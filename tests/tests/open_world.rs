//! OPEN query processing across the full stack: tuple generation with the
//! M-SWG and Bayesian-network backends, model caching, and the §3.3
//! false-negative/false-positive semantics.

use std::collections::HashMap;
use std::sync::Arc;

use mosaic_bn::BnConfig;
use mosaic_core::{
    Binner, EngineOptions, Marginal, MosaicEngine, OpenBackend, OpenOptions, QueryResult, Session,
    Value, Visibility,
};
use mosaic_swg::SwgConfig;

fn tiny_swg() -> SwgConfig {
    SwgConfig::default()
        .with_hidden_dim(24)
        .with_hidden_layers(2)
        .with_latent_dim(Some(4))
        .with_lambda(0.0)
        .with_projections(16)
        .with_batch_size(128)
        .with_epochs(60)
        .with_steps_per_epoch(Some(2))
        .with_learning_rate(5e-3)
        .with_seed(3)
}

fn new_db(open: OpenOptions) -> Session {
    Arc::new(MosaicEngine::with_options(
        EngineOptions::default().with_open(open),
    ))
    .session()
}

/// A world with two categorical attributes where the sample only covers
/// one provider (the §2 shape, shrunk).
fn setup(backend: OpenBackend) -> Session {
    let db = new_db(
        OpenOptions::default()
            .with_backend(backend)
            .with_num_generated(4)
            .with_rows_per_sample(Some(600)),
    );
    db.execute(
        "CREATE TABLE Report (country TEXT, email TEXT, reported_count INT);
         INSERT INTO Report (country, reported_count) VALUES ('UK', 600), ('FR', 400);
         INSERT INTO Report (email, reported_count) VALUES ('Yahoo', 300), ('AOL', 700);
         CREATE GLOBAL POPULATION Migrants (country TEXT, email TEXT);
         CREATE METADATA Migrants_M1 AS
           (SELECT country, reported_count FROM Report WHERE country IS NOT NULL);
         CREATE METADATA Migrants_M2 AS
           (SELECT email, reported_count FROM Report WHERE email IS NOT NULL);
         CREATE SAMPLE YahooSample AS (SELECT * FROM Migrants WHERE email = 'Yahoo');",
    )
    .unwrap();
    let mut rows = vec!["('UK','Yahoo')"; 30];
    rows.extend(vec!["('FR','Yahoo')"; 20]);
    db.execute(&format!(
        "INSERT INTO YahooSample VALUES {}",
        rows.join(",")
    ))
    .unwrap();
    db
}

#[test]
fn open_generates_missing_email_providers() {
    let db = setup(OpenBackend::Swg(tiny_swg()));
    let open = db
        .execute("SELECT OPEN email, COUNT(*) FROM Migrants GROUP BY email ORDER BY email")
        .unwrap();
    assert_eq!(open.visibility, Some(Visibility::Open));
    let emails: Vec<String> = (0..open.table.num_rows())
        .map(|r| open.table.value(r, 0).to_string())
        .collect();
    assert!(
        emails.iter().any(|e| e == "AOL"),
        "OPEN answer should contain the AOL provider missing from the sample; got {emails:?}"
    );
    // And the counts are at population scale (total ~1000).
    let total: f64 = (0..open.table.num_rows())
        .filter_map(|r| open.table.value(r, 1).as_f64())
        .sum();
    assert!(
        (500.0..1500.0).contains(&total),
        "population-scale total, got {total}"
    );
}

#[test]
fn semi_open_cannot_generate_missing_providers() {
    let db = setup(OpenBackend::Swg(tiny_swg()));
    let semi = db
        .execute("SELECT SEMI-OPEN email, COUNT(*) FROM Migrants GROUP BY email")
        .unwrap();
    for r in 0..semi.table.num_rows() {
        assert_eq!(
            semi.table.value(r, 0),
            Value::Str("Yahoo".into()),
            "SEMI-OPEN must not invent tuples (zero false positives)"
        );
    }
}

#[test]
fn bayes_net_backend_also_answers_open_queries() {
    let db = setup(OpenBackend::BayesNet(BnConfig::default()));
    let open = db
        .execute("SELECT OPEN country, COUNT(*) FROM Migrants GROUP BY country ORDER BY country")
        .unwrap();
    assert!(open.table.num_rows() >= 2);
    // Country marginal should be roughly respected (IPF-weighted fit):
    // UK 600 vs FR 400.
    let fr = open.table.value(0, 1).as_f64().unwrap();
    let uk = open.table.value(1, 1).as_f64().unwrap();
    assert!(uk > fr, "UK {uk} should exceed FR {fr}");
}

#[test]
fn model_cache_hits_on_repeat_queries() {
    let db = setup(OpenBackend::Swg(tiny_swg()));
    let first = db.execute("SELECT OPEN COUNT(*) FROM Migrants").unwrap();
    assert!(
        first.notes.iter().any(|n| n.contains("trained")),
        "first OPEN query trains: {:?}",
        first.notes
    );
    let second = db.execute("SELECT OPEN COUNT(*) FROM Migrants").unwrap();
    assert!(
        second.notes.iter().any(|n| n.contains("cache hit")),
        "second OPEN query reuses the model: {:?}",
        second.notes
    );
    // A write to an unrelated relation leaves the model valid — models
    // follow the population's dependency epochs, like plans and
    // results — and the answer bit-identical.
    db.execute(
        "CREATE TABLE Unrelated (country TEXT, n INT); INSERT INTO Unrelated VALUES ('UK', 1);",
    )
    .unwrap();
    let unrelated = db.execute("SELECT OPEN COUNT(*) FROM Migrants").unwrap();
    assert!(
        unrelated.notes.iter().any(|n| n.contains("cache hit")),
        "an unrelated write must not refit the model: {:?}",
        unrelated.notes
    );
    assert_eq!(second.table.value(0, 0), unrelated.table.value(0, 0));
    // A write to the population's sample or metadata refits.
    for write in [
        "INSERT INTO YahooSample VALUES ('UK','Yahoo')",
        "CREATE METADATA Migrants_M3 AS (SELECT country, n FROM Unrelated)",
    ] {
        db.execute(write).unwrap();
        let after = db.execute("SELECT OPEN COUNT(*) FROM Migrants").unwrap();
        assert!(
            after.notes.iter().any(|n| n.contains("trained")),
            "{write} retrains: {:?}",
            after.notes
        );
    }
}

/// A registered binner changes the IPF cells an OPEN fit is weighted
/// by, so the fitted model must not outlive it: the next query refits,
/// and its outcome — rows or error — is a fresh engine's that had the
/// binner from the start.
#[test]
fn model_cache_refits_after_binner_change() {
    let four = Binner::equal_width(0.0, 100.0, 4);
    // 25-wide bins from 0 like `four`: the same cells for ages below
    // 100, under another configuration.
    let six = Binner::equal_width(0.0, 150.0, 6);
    // 50-wide bins: no sample row lands in a cell of the marginal.
    let two = Binner::equal_width(0.0, 100.0, 2);
    let q = "SELECT OPEN AVG(age) FROM P";
    // A BayesNet world whose INT marginal was built with `four`, with
    // `binner` registered before the first query.
    let world = |binner: &Binner| -> Session {
        let engine = Arc::new(MosaicEngine::with_options(
            EngineOptions::default().with_open(
                OpenOptions::default()
                    .with_backend(OpenBackend::BayesNet(BnConfig::default()))
                    .with_num_generated(2)
                    .with_rows_per_sample(Some(200)),
            ),
        ));
        engine.register_binner("age", binner.clone());
        let db = engine.session().with_seed(1);
        let ages: Vec<String> = (0..100).map(|a| format!("({a})")).collect();
        db.execute(&format!(
            "CREATE TABLE Ages (age INT);
             INSERT INTO Ages VALUES {};
             CREATE GLOBAL POPULATION P (age INT);
             CREATE SAMPLE S AS (SELECT * FROM P);
             INSERT INTO S VALUES (5), (20), (30), (30), (45), (60), (70), (90);",
            ages.join(", ")
        ))
        .unwrap();
        let binners = HashMap::from([("age".to_string(), four.clone())]);
        let report = db.query("SELECT age FROM Ages").unwrap();
        let marginal = Marginal::from_table(&report, &["age"], None, &binners).unwrap();
        engine.add_metadata("P_M1", "P", marginal).unwrap();
        db
    };
    let outcome = |r: mosaic_core::Result<QueryResult>| {
        r.map(|r| {
            (0..r.table.num_rows())
                .map(|i| r.table.row(i))
                .collect::<Vec<_>>()
        })
        .map_err(|e| format!("{e:?}"))
    };
    let trained = |r: &QueryResult| r.notes.iter().any(|n| n.contains("trained"));

    let db = world(&four);
    let first = db.execute(q).unwrap();
    assert!(trained(&first), "{:?}", first.notes);

    db.engine().register_binner("age", six.clone());
    let after = db.execute(q).unwrap();
    assert!(trained(&after), "a new binner refits: {:?}", after.notes);
    assert_eq!(outcome(Ok(after)), outcome(world(&six).execute(q)));

    db.engine().register_binner("age", two.clone());
    let fresh = world(&two).execute(q);
    assert!(fresh.is_err(), "no row matches the marginal's cells");
    assert_eq!(outcome(db.execute(q)), outcome(fresh));
}

#[test]
fn open_answers_are_deterministic_given_seed() {
    let db1 = setup(OpenBackend::Swg(tiny_swg()));
    let db2 = setup(OpenBackend::Swg(tiny_swg()));
    let a = db1.execute("SELECT OPEN COUNT(*) FROM Migrants").unwrap();
    let b = db2.execute("SELECT OPEN COUNT(*) FROM Migrants").unwrap();
    assert_eq!(
        a.table.value(0, 0),
        b.table.value(0, 0),
        "same seed, same answer"
    );
}

#[test]
fn non_aggregate_open_query_returns_generated_tuples() {
    let db = setup(OpenBackend::Swg(tiny_swg()));
    let r = db
        .execute("SELECT OPEN country, email FROM Migrants LIMIT 50")
        .unwrap();
    assert!(r.table.num_rows() > 0 && r.table.num_rows() <= 50);
    assert!(r
        .notes
        .iter()
        .any(|n| n.contains("non-aggregate OPEN query")));
}

#[test]
fn open_requires_metadata() {
    let db = new_db(OpenOptions::default().with_backend(OpenBackend::Swg(tiny_swg())));
    db.execute(
        "CREATE GLOBAL POPULATION P (a TEXT);
         CREATE SAMPLE S AS (SELECT * FROM P);
         INSERT INTO S VALUES ('x');",
    )
    .unwrap();
    assert!(db.execute("SELECT OPEN COUNT(*) FROM P").is_err());
}

#[test]
fn open_count_tracks_marginal_total() {
    let db = setup(OpenBackend::Swg(tiny_swg()));
    let r = db.execute("SELECT OPEN COUNT(*) FROM Migrants").unwrap();
    let count = r.table.value(0, 0).as_f64().unwrap();
    // Marginal total is 1000; generated samples are uniformly reweighted
    // to it.
    assert!(
        (900.0..1100.0).contains(&count),
        "OPEN COUNT(*) = {count}, want ~1000"
    );
}
