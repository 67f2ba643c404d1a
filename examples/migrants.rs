//! The paper's §2 motivating example, end to end: estimating European
//! migrant counts from a Yahoo!-email sample, debiased against Eurostat
//! reports — including the OPEN query that *generates* the AOL tuples
//! missing from the sample.
//!
//! Run with: `cargo run --release -p mosaic-examples --bin migrants`

use std::sync::Arc;

use mosaic_core::{EngineOptions, MosaicEngine, OpenBackend, OpenOptions, SwgConfig};
use mosaic_storage::TableBuilder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Ground-truth world we pretend not to know: migrants per (country,
/// email provider).
const WORLD: &[(&str, &str, i64)] = &[
    ("UK", "Yahoo", 20_000),
    ("UK", "AOL", 5_000),
    ("UK", "Gmail", 35_000),
    ("FR", "Yahoo", 9_000),
    ("FR", "AOL", 3_000),
    ("FR", "Gmail", 28_000),
    ("DE", "Yahoo", 12_000),
    ("DE", "AOL", 2_000),
    ("DE", "Gmail", 41_000),
];

fn main() {
    // A lighter generator than the engine default keeps the example
    // snappy; the marginals here are tiny.
    let swg = SwgConfig::default()
        .with_hidden_dim(32)
        .with_hidden_layers(2)
        .with_latent_dim(Some(4))
        .with_lambda(0.0)
        .with_epochs(120)
        .with_batch_size(256)
        .with_steps_per_epoch(Some(2))
        .with_learning_rate(5e-3);
    let open = OpenOptions::default()
        .with_backend(OpenBackend::Swg(swg))
        .with_num_generated(5)
        .with_rows_per_sample(Some(4000));
    let engine = Arc::new(MosaicEngine::with_options(
        EngineOptions::default().with_open(open),
    ));
    let db = engine.session();

    // ---- The exact DDL of the paper's §2 listing ----
    db.execute("CREATE TEMPORARY TABLE Eurostat (country TEXT, email TEXT, reported_count INT);")
        .expect("eurostat table");
    // "...Ingest Eurostat reports to Eurostat table" — per-country totals
    // (email NULL) and per-provider totals (country NULL).
    let mut by_country = std::collections::HashMap::new();
    let mut by_email = std::collections::HashMap::new();
    for (c, e, n) in WORLD {
        *by_country.entry(*c).or_insert(0) += n;
        *by_email.entry(*e).or_insert(0) += n;
    }
    for (c, n) in &by_country {
        db.execute(&format!(
            "INSERT INTO Eurostat (country, reported_count) VALUES ('{c}', {n})"
        ))
        .expect("insert");
    }
    for (e, n) in &by_email {
        db.execute(&format!(
            "INSERT INTO Eurostat (email, reported_count) VALUES ('{e}', {n})"
        ))
        .expect("insert");
    }

    db.execute(
        "CREATE GLOBAL POPULATION EuropeMigrants (country TEXT, email TEXT);
         CREATE METADATA EuropeMigrants_M1 AS
           (SELECT country, reported_count FROM Eurostat WHERE country IS NOT NULL);
         CREATE METADATA EuropeMigrants_M2 AS
           (SELECT email, reported_count FROM Eurostat WHERE email IS NOT NULL);
         CREATE SAMPLE YahooMigrants AS
           (SELECT * FROM EuropeMigrants WHERE email = 'Yahoo');",
    )
    .expect("paper ddl");

    // "...Ingest Yahoo sample to YahooMigrants": a 10% sample of the
    // Yahoo migrants only — the selection bias of the motivating example.
    let mut rng = StdRng::seed_from_u64(1);
    let schema = engine
        .catalog()
        .sample("YahooMigrants")
        .unwrap()
        .data
        .schema()
        .clone();
    let mut b = TableBuilder::new(schema);
    for (c, e, n) in WORLD {
        if *e != "Yahoo" {
            continue;
        }
        for _ in 0..(*n / 10) {
            if rng.random::<f64>() < 0.95 {
                b.push_row(vec![(*c).into(), (*e).into()]).unwrap();
            }
        }
    }
    engine
        .ingest_sample("YahooMigrants", b.finish())
        .expect("ingest");

    // ---- The two queries of the paper ----
    println!(
        "SELECT SEMI-OPEN country, email, COUNT(*) FROM EuropeMigrants GROUP BY country, email;"
    );
    let semi = db
        .execute(
            "SELECT SEMI-OPEN country, email, COUNT(*) FROM EuropeMigrants \
             GROUP BY country, email ORDER BY country, email",
        )
        .expect("semi-open");
    println!("{}", semi.table);
    println!("(Only Yahoo rows — reweighting cannot invent the AOL/Gmail tuples.)\n");

    println!("SELECT OPEN country, email, COUNT(*) FROM EuropeMigrants GROUP BY country, email;");
    let open = db
        .execute(
            "SELECT OPEN country, email, COUNT(*) FROM EuropeMigrants \
             GROUP BY country, email ORDER BY country, email",
        )
        .expect("open");
    println!("{}", open.table);
    for note in &open.notes {
        println!("note: {note}");
    }
    println!(
        "\nGround truth for comparison: UK/Yahoo 20000, UK/AOL 5000, FR/Yahoo 9000, …\n\
         The OPEN answer contains email providers that never appear in the sample:\n\
         Mosaic generated them from the Eurostat marginals (paper §2's 'UK, AOL, 20' row).\n\
         Note the per-cell counts are approximate — with only 1-D marginals the\n\
         (country × email) joint is underdetermined, which is exactly the OPEN\n\
         visibility trade-off of §3.3: fewer false negatives, possible false\n\
         positives. Publishing a 2-D marginal pins the joint down."
    );
}
