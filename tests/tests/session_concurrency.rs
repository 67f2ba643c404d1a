//! Concurrency guarantees of the shared-engine session API:
//!
//! * N scoped threads sharing one `Arc<MosaicEngine>` through
//!   independent sessions must produce results **bit-identical** to a
//!   serial run of the same statements — for every planner_oracle query
//!   template, on a multi-morsel table.
//! * One `Prepared` statement executed concurrently from ≥ 4 sessions
//!   must match ad-hoc `Session::execute` with the parameter inlined as
//!   a literal, value for value.
//! * A writer session (catalog write locks) interleaving with reader
//!   sessions must never expose a torn state: every observed COUNT is a
//!   whole number of inserted batches and monotonic per reader.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use mosaic_core::{MosaicEngine, Table, Value, MORSEL_ROWS};

/// The planner_oracle query templates (29 shapes over table `t`), with
/// the generated threshold pinned — re-run here through the session API.
const QUERIES: &[&str] = &[
    "SELECT * FROM t",
    "SELECT k, i FROM t WHERE i > {thr}",
    "SELECT i + f, i * 2, f / 2 FROM t",
    "SELECT i / 0, i % 3, -i, -f FROM t",
    "SELECT 2 + i, 2 * i, 2 - i, 7 % i, {thr} - i FROM t",
    "SELECT i FROM t WHERE i % 7 = 0",
    "SELECT k FROM t WHERE i IS NULL OR f IS NULL",
    "SELECT k FROM t WHERE k IN ('v0', 'v1') ORDER BY i DESC LIMIT 5",
    "SELECT i FROM t WHERE i BETWEEN -10 AND {thr} ORDER BY i",
    "SELECT f FROM t WHERE f * 2.0 > 10.0 AND i <= {thr}",
    "SELECT k FROM t WHERE NOT i = {thr} AND k IS NOT NULL",
    "SELECT i FROM t WHERE i IN (1, 2, NULL)",
    "SELECT i FROM t WHERE i NOT IN (3, {thr})",
    "SELECT k, i, f FROM t ORDER BY k, i DESC, f LIMIT 7",
    "SELECT i > {thr}, f IS NULL, k = 'v1' FROM t",
    "SELECT COUNT(*) FROM t",
    "SELECT COUNT(f), COUNT(i) FROM t",
    "SELECT SUM(i), AVG(f), MIN(i), MAX(f) FROM t",
    "SELECT MIN(k), MAX(k) FROM t",
    "SELECT SUM(i) / COUNT(*) FROM t",
    "SELECT SUM(i + f), AVG(i * 2) FROM t",
    "SELECT COUNT(*) FROM t WHERE f > 0.0 OR i < 0",
    "SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k",
    "SELECT k, SUM(i) AS s FROM t GROUP BY k ORDER BY s DESC, k LIMIT 3",
    "SELECT k, AVG(f) AS a, MIN(i), MAX(i) FROM t GROUP BY k ORDER BY k",
    "SELECT k, COUNT(i) AS c FROM t WHERE f IS NOT NULL GROUP BY k ORDER BY c DESC, k",
    "SELECT i, COUNT(*) FROM t GROUP BY i ORDER BY i LIMIT 10",
    "SELECT f, COUNT(*) FROM t GROUP BY f ORDER BY f LIMIT 10",
    "SELECT k, i, COUNT(*) FROM t GROUP BY k, i ORDER BY k, i",
];

/// A multi-morsel mixed-type table with NULLs (the planner_oracle data
/// shape, scaled past one morsel so the parallel driver really splits).
fn oracle_table(rows: usize) -> Table {
    use mosaic_core::{DataType, Field, Schema, TableBuilder};
    let schema = Schema::new(vec![
        Field::new("k", DataType::Str),
        Field::new("i", DataType::Int),
        Field::new("f", DataType::Float),
    ]);
    let mut b = TableBuilder::new(schema);
    for r in 0..rows {
        b.push_row(vec![
            if r % 5 == 0 {
                Value::Null
            } else {
                Value::Str(format!("v{}", r % 3))
            },
            if r % 11 == 0 {
                Value::Null
            } else {
                Value::Int((r % 83) as i64 - 40)
            },
            if r % 13 == 0 {
                Value::Null
            } else {
                Value::Float((r % 59) as f64 * 0.75 - 22.0)
            },
        ])
        .unwrap();
    }
    b.finish()
}

fn assert_identical(a: &Table, b: &Table, context: &str) {
    assert_eq!(a.num_rows(), b.num_rows(), "{context}: row count");
    assert_eq!(a.num_columns(), b.num_columns(), "{context}: column count");
    for c in 0..a.num_columns() {
        let (fa, fb) = (a.schema().field(c), b.schema().field(c));
        assert_eq!(fa.name, fb.name, "{context}: field {c} name");
        assert_eq!(fa.data_type, fb.data_type, "{context}: field {c} type");
    }
    for r in 0..a.num_rows() {
        for c in 0..a.num_columns() {
            assert_eq!(a.value(r, c), b.value(r, c), "{context}: cell ({r},{c})");
        }
    }
}

/// N threads × independent sessions × every oracle template ==
/// bit-identical to the serial run over the same shared engine.
#[test]
fn concurrent_sessions_match_serial_run() {
    let engine = Arc::new(MosaicEngine::new());
    engine
        .register_table("t", oracle_table(2 * MORSEL_ROWS + 777))
        .unwrap();
    let queries: Vec<String> = QUERIES.iter().map(|q| q.replace("{thr}", "7")).collect();

    // Serial baseline through one session.
    let serial = engine.session();
    let baseline: Vec<Result<Table, String>> = queries
        .iter()
        .map(|q| serial.query(q).map_err(|e| e.to_string()))
        .collect();

    const THREADS: usize = 6;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..THREADS)
            .map(|ti| {
                let engine = &engine;
                let queries = &queries;
                let baseline = &baseline;
                s.spawn(move || {
                    // Each thread gets its own session (odd threads cap
                    // their worker pool — thread count never changes
                    // results).
                    let session = if ti % 2 == 0 {
                        engine.session()
                    } else {
                        engine.session().with_parallelism(1 + ti)
                    };
                    for (q, base) in queries.iter().zip(baseline) {
                        let got = session.query(q).map_err(|e| e.to_string());
                        match (base, &got) {
                            (Ok(b), Ok(g)) => {
                                assert_identical(b, g, &format!("thread {ti}, {q:?}"))
                            }
                            (Err(b), Err(g)) => {
                                assert_eq!(b, g, "thread {ti}, {q:?}: error mismatch")
                            }
                            _ => panic!("thread {ti}, {q:?}: ok/err divergence"),
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
}

/// Acceptance: one prepared parameterized aggregate, executed
/// concurrently from ≥ 4 sessions over one shared engine, returns
/// bit-identical results to ad-hoc `Session::execute` with the literal
/// inlined — and every session shares the same `Prepared` object.
#[test]
fn prepared_concurrent_matches_adhoc_execute() {
    let table = oracle_table(2 * MORSEL_ROWS + 123);
    let engine = Arc::new(MosaicEngine::new());
    engine.register_table("t", table.clone()).unwrap();

    let prepared = engine
        .session()
        .prepare(
            "SELECT k, COUNT(*) AS c, SUM(i) AS s, AVG(f) AS a \
             FROM t WHERE i > ? GROUP BY k ORDER BY k",
        )
        .unwrap();
    assert_eq!(prepared.param_count(), 1);

    // Baselines through the ad-hoc path on a second engine holding the
    // same data.
    let thresholds: [i64; 4] = [-10, 0, 7, 25];
    let db = Arc::new(MosaicEngine::new());
    db.register_table("t", table).unwrap();
    let db = db.session();
    let baselines: Vec<Table> = thresholds
        .iter()
        .map(|thr| {
            db.query(&format!(
                "SELECT k, COUNT(*) AS c, SUM(i) AS s, AVG(f) AS a \
                 FROM t WHERE i > {thr} GROUP BY k ORDER BY k"
            ))
            .unwrap()
        })
        .collect();

    std::thread::scope(|s| {
        let handles: Vec<_> = thresholds
            .iter()
            .zip(&baselines)
            .map(|(&thr, base)| {
                let engine = &engine;
                let prepared = &prepared;
                s.spawn(move || {
                    let session = engine.session();
                    for _ in 0..3 {
                        let got = session
                            .query_prepared(prepared, &[Value::Int(thr)])
                            .unwrap();
                        assert_identical(base, &got, &format!("threshold {thr}"));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    });
}

/// Writer-vs-readers catalog locking: INSERTs take the write lock, so a
/// reader must only ever observe a whole number of committed batches,
/// and its observations must be monotonic.
#[test]
fn writer_and_readers_interleave_consistently() {
    const BATCH: usize = 10;
    const BATCHES: usize = 40;
    let engine = Arc::new(MosaicEngine::new());
    engine.session().execute("CREATE TABLE w (x INT)").unwrap();
    let done = AtomicBool::new(false);

    std::thread::scope(|s| {
        let writer = {
            let engine = &engine;
            let done = &done;
            s.spawn(move || {
                let session = engine.session();
                for b in 0..BATCHES {
                    let values: Vec<String> =
                        (0..BATCH).map(|i| format!("({})", b * BATCH + i)).collect();
                    session
                        .execute(&format!("INSERT INTO w VALUES {}", values.join(", ")))
                        .unwrap();
                }
                done.store(true, Ordering::Release);
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let engine = &engine;
                let done = &done;
                s.spawn(move || {
                    let session = engine.session();
                    let mut last = 0i64;
                    let mut observations = 0usize;
                    loop {
                        let finished = done.load(Ordering::Acquire);
                        let out = session.query("SELECT COUNT(*) FROM w").unwrap();
                        let count = match out.value(0, 0) {
                            Value::Int(n) => n,
                            other => panic!("COUNT returned {other:?}"),
                        };
                        assert_eq!(count % BATCH as i64, 0, "reader saw a torn batch: {count}");
                        assert!(count >= last, "count went backwards: {last} -> {count}");
                        last = count;
                        observations += 1;
                        if finished {
                            break;
                        }
                    }
                    assert_eq!(
                        last,
                        (BATCH * BATCHES) as i64,
                        "final count after writer done"
                    );
                    observations
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
    });
}

/// DDL (CREATE/DROP) racing prepared execution: the stale-source check
/// turns a dropped relation into a clean bind error, never a wrong
/// answer or a poisoned engine.
#[test]
fn prepared_execution_races_ddl_cleanly() {
    let engine = Arc::new(MosaicEngine::new());
    engine.register_table("t", oracle_table(500)).unwrap();
    let prepared = engine
        .session()
        .prepare("SELECT COUNT(*) FROM t WHERE i > ?")
        .unwrap();

    std::thread::scope(|s| {
        let runner = {
            let engine = &engine;
            let prepared = &prepared;
            s.spawn(move || {
                let session = engine.session();
                let mut ok = 0usize;
                let mut stale = 0usize;
                for _ in 0..200 {
                    match session.execute_prepared(prepared, &[Value::Int(0)]) {
                        Ok(_) => ok += 1,
                        // Once the table is gone, the only acceptable
                        // failure is the stale/unknown-relation error.
                        Err(e) => {
                            let msg = e.to_string();
                            assert!(
                                msg.contains("stale") || msg.contains("unknown relation"),
                                "unexpected error under DDL race: {msg}"
                            );
                            stale += 1;
                        }
                    }
                }
                (ok, stale)
            })
        };
        let dropper = {
            let engine = &engine;
            s.spawn(move || {
                let session = engine.session();
                session.execute("DROP TABLE t").unwrap();
            })
        };
        dropper.join().unwrap();
        let (ok, stale) = runner.join().unwrap();
        assert_eq!(ok + stale, 200);
    });
}

/// One binding, three consumers: for one statement per source kind the
/// ad-hoc path, `prepare` + `execute_prepared`, and the result-cache hit
/// return cell-for-cell identical tables — and an `INSERT … SELECT`
/// ingests exactly what its source SELECT returns ad hoc.
#[test]
fn every_source_kind_agrees_across_adhoc_prepared_and_cache() {
    use mosaic_core::{EngineOptions, OpenBackend, OpenOptions};
    let swg = mosaic_swg::SwgConfig::default()
        .with_hidden_dim(24)
        .with_hidden_layers(2)
        .with_latent_dim(Some(4))
        .with_lambda(0.0)
        .with_projections(16)
        .with_batch_size(128)
        .with_epochs(40)
        .with_steps_per_epoch(Some(2))
        .with_learning_rate(5e-3)
        .with_seed(3);
    let engine = Arc::new(MosaicEngine::with_options(
        EngineOptions::default().with_open(
            OpenOptions::default()
                .with_backend(OpenBackend::Swg(swg))
                .with_num_generated(3)
                .with_rows_per_sample(Some(300)),
        ),
    ));
    let mut setup = String::from(
        "CREATE TABLE Report (country TEXT, email TEXT, reported_count INT);
         INSERT INTO Report (country, reported_count) VALUES ('UK', 600), ('FR', 400);
         INSERT INTO Report (email, reported_count) VALUES ('Yahoo', 300), ('AOL', 700);
         CREATE GLOBAL POPULATION Migrants (country TEXT, email TEXT);
         CREATE METADATA Migrants_M1 AS
           (SELECT country, reported_count FROM Report WHERE country IS NOT NULL);
         CREATE METADATA Migrants_M2 AS
           (SELECT email, reported_count FROM Report WHERE email IS NOT NULL);
         CREATE SAMPLE YahooSample AS (SELECT * FROM Migrants WHERE email = 'Yahoo');
         CREATE TABLE Regions (country TEXT, region TEXT);
         INSERT INTO Regions VALUES ('UK', 'north'), ('FR', 'south'), ('DE', 'east');
         CREATE TABLE Sink (region TEXT, n FLOAT);
         INSERT INTO YahooSample VALUES ",
    );
    let mut rows = vec!["('UK','Yahoo')"; 30];
    rows.extend(vec!["('FR','Yahoo')"; 20]);
    setup.push_str(&rows.join(","));
    engine.session().execute(&setup).unwrap();

    // One seed makes the OPEN statements reproducible, so they cache
    // like any other. The cache knob is explicit so the hit
    // assertions hold under an ambient MOSAIC_RESULT_CACHE=off.
    let cached = engine.session().with_seed(7).with_result_cache(true);
    let uncached = cached.clone().with_result_cache(false);
    let by_country = |vis: &str| {
        format!(
            "SELECT {vis} country, COUNT(*) AS n FROM Migrants GROUP BY country ORDER BY country"
        )
    };
    let region_join = |vis: &str| {
        format!(
            "SELECT {vis} c.region AS region, COUNT(*) AS n \
             FROM Migrants m JOIN Regions c ON m.country = c.country \
             GROUP BY c.region ORDER BY region"
        )
    };
    let statements = [
        ("scalar", "SELECT 1 + 2 AS x, 'a' AS s".to_string()),
        ("aux", "SELECT country, region FROM Regions ORDER BY country".to_string()),
        (
            "lone-aliased aux",
            "SELECT r.region FROM Regions r WHERE r.country = 'UK'".to_string(),
        ),
        (
            "raw sample",
            "SELECT country, COUNT(*), SUM(weight) FROM YahooSample GROUP BY country ORDER BY country"
                .to_string(),
        ),
        ("population CLOSED", by_country("CLOSED")),
        ("population SEMI-OPEN", by_country("SEMI-OPEN")),
        ("population OPEN", by_country("OPEN")),
        (
            "inner join",
            "SELECT s.country, c.region FROM YahooSample s JOIN Regions c \
             ON s.country = c.country ORDER BY s.country LIMIT 5"
                .to_string(),
        ),
        (
            "left join",
            "SELECT c.region AS region, COUNT(s.email) AS n FROM Regions c LEFT JOIN YahooSample s \
             ON c.country = s.country GROUP BY c.region ORDER BY region"
                .to_string(),
        ),
        ("population join SEMI-OPEN", region_join("SEMI-OPEN")),
        ("population join OPEN", region_join("OPEN")),
    ];
    for (kind, sql) in &statements {
        let fresh = uncached.execute(sql).unwrap();
        let miss = cached.execute(sql).unwrap();
        let hit = cached.execute(sql).unwrap();
        assert!(
            hit.notes.iter().any(|n| n.starts_with("result cache hit")),
            "{kind}: second cached run should hit"
        );
        let prepared = uncached.prepare(sql).unwrap();
        let executed = uncached.execute_prepared(&prepared, &[]).unwrap();
        assert!(fresh.table.num_rows() > 0, "{kind}: empty answer");
        assert_identical(&fresh.table, &miss.table, &format!("{kind}: cache miss"));
        assert_identical(&fresh.table, &hit.table, &format!("{kind}: cache hit"));
        assert_identical(&fresh.table, &executed.table, &format!("{kind}: prepared"));
        assert_eq!(fresh.visibility, executed.visibility, "{kind}: visibility");
    }

    // INSERT … SELECT binds its source through the same entry.
    let source = region_join("SEMI-OPEN");
    let expected = uncached.execute(&source).unwrap().table;
    cached
        .execute(&format!("INSERT INTO Sink {source}"))
        .unwrap();
    let sunk = uncached.query("SELECT region, n FROM Sink").unwrap();
    assert_identical(&expected, &sunk, "INSERT … SELECT source");
}
