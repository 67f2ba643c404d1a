//! Quickstart: declare a population, attach metadata, ingest a biased
//! sample, and compare CLOSED vs SEMI-OPEN answers — then re-ask the
//! same question through the concurrent session API: prepared
//! statements with `?` parameters, EXPLAIN, and four threads sharing
//! one engine.
//!
//! Run with: `cargo run --release -p mosaic-examples --bin quickstart`

use std::sync::Arc;

use mosaic_core::{MosaicEngine, Value, Visibility};

fn main() {
    let engine = Arc::new(MosaicEngine::new());
    let db = engine.session();

    // 1. An auxiliary table holding a published aggregate report
    //    (auxiliary relations behave like ordinary SQL tables).
    db.execute(
        "CREATE TABLE CityReport (city TEXT, reported_count INT);
         INSERT INTO CityReport VALUES
           ('Seattle', 700000), ('Portland', 600000), ('Boise', 200000);",
    )
    .expect("aux table");

    // 2. The population we actually care about — it does not (and cannot)
    //    hold tuples; it's an open-world relation.
    db.execute("CREATE GLOBAL POPULATION People (city TEXT, age INT);")
        .expect("population");

    // 3. Bind the report to the population as metadata (a 1-D marginal
    //    over city).
    db.execute(
        "CREATE METADATA People_M1 AS
           (SELECT city, reported_count FROM CityReport);",
    )
    .expect("metadata");

    // 4. A sample of people, heavily skewed toward Seattle.
    db.execute("CREATE SAMPLE SurveySample AS (SELECT * FROM People);")
        .expect("sample");
    let mut rows = String::from("INSERT INTO SurveySample VALUES ");
    let mut parts = Vec::new();
    for i in 0..80 {
        parts.push(format!("('Seattle', {})", 20 + i % 50));
    }
    for i in 0..15 {
        parts.push(format!("('Portland', {})", 25 + i % 40));
    }
    for i in 0..5 {
        parts.push(format!("('Boise', {})", 30 + i % 30));
    }
    rows.push_str(&parts.join(", "));
    db.execute(&rows).expect("ingest");

    // 5. CLOSED: the raw sample — Seattle looks like 80% of the world.
    let closed = db
        .execute("SELECT CLOSED city, COUNT(*) FROM People GROUP BY city ORDER BY city")
        .expect("closed query");
    println!("CLOSED (raw biased sample):\n{}", closed.table);

    // 6. SEMI-OPEN: Mosaic reweights the sample with IPF so the city
    //    marginal is satisfied — population-scale counts come out.
    let semi = db
        .execute("SELECT SEMI-OPEN city, COUNT(*) FROM People GROUP BY city ORDER BY city")
        .expect("semi-open query");
    println!("SEMI-OPEN (IPF-debiased):\n{}", semi.table);
    for note in &semi.notes {
        println!("note: {note}");
    }

    // The weighted AVG works the same way.
    let avg = db
        .execute("SELECT SEMI-OPEN AVG(age) FROM People")
        .expect("avg");
    println!("\nSEMI-OPEN AVG(age):\n{}", avg.table);

    // 7. The same question, production-style: prepare once (parse +
    //    bind + plan), then execute many times binding only the `?`
    //    parameter values.
    let session = engine.session();
    let prepared = session
        .prepare("SELECT SEMI-OPEN city, COUNT(*) FROM People WHERE age >= ? GROUP BY city ORDER BY city")
        .expect("prepare");
    for min_age in [30i64, 50] {
        let out = session
            .query_prepared(&prepared, &[Value::Int(min_age)])
            .expect("execute_prepared");
        println!("\nSEMI-OPEN counts with age >= {min_age} (prepared):\n{out}");
    }

    // 8. EXPLAIN renders the bound plan — operators, morsel split,
    //    thread budget, and the visibility pipeline — without running it.
    let plan = session
        .query("EXPLAIN SELECT SEMI-OPEN city, COUNT(*) FROM People WHERE age >= 30 GROUP BY city")
        .expect("explain");
    println!("EXPLAIN:\n{plan}");

    // 9. The engine is Arc-shared: sessions on other threads execute
    //    concurrently under catalog read locks. One session per
    //    visibility level — a per-session default, no engine mutation —
    //    each preparing and running its own parameterized query, while
    //    two more share the SEMI-OPEN prepared statement from step 7.
    std::thread::scope(|s| {
        let defaults: Vec<_> = [Visibility::Closed, Visibility::SemiOpen]
            .into_iter()
            .map(|vis| {
                let engine = &engine;
                s.spawn(move || {
                    let session = engine.session().with_default_visibility(vis);
                    let prepared = session
                        .prepare("SELECT city, COUNT(*) FROM People WHERE age >= ? GROUP BY city")
                        .expect("prepare");
                    let out = session
                        .query_prepared(&prepared, &[Value::Int(30)])
                        .expect("concurrent execute");
                    (vis, out.num_rows())
                })
            })
            .collect();
        let shared: Vec<_> = (0..2)
            .map(|_| {
                let engine = &engine;
                let prepared = &prepared;
                s.spawn(move || {
                    engine
                        .session()
                        .query_prepared(prepared, &[Value::Int(50)])
                        .expect("shared prepared execute")
                        .num_rows()
                })
            })
            .collect();
        for h in defaults {
            let (vis, groups) = h.join().expect("join");
            println!("concurrent session at {vis}: {groups} group(s)");
        }
        for h in shared {
            println!(
                "shared prepared statement: {} group(s)",
                h.join().expect("join")
            );
        }
    });
}
