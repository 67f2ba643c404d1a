//! The "open data" ingestion flow the paper motivates (§1): a scientist
//! downloads a sample CSV and a published aggregate CSV from a data
//! repository, loads both, and queries the population — exercising
//! `mosaic_storage::csv` together with the engine.

use std::sync::Arc;

use mosaic_core::{MosaicEngine, Session, Value};
use mosaic_storage::csv::{read_csv_str, write_csv_string};

fn new_db() -> Session {
    Arc::new(MosaicEngine::new()).session()
}

const AGGREGATE_CSV: &str = "\
region,reported_count
north,4000
south,6000
";

const SAMPLE_CSV: &str = "\
region,income
north,50
north,55
north,60
north,45
south,80
";

#[test]
fn csv_to_population_query() {
    let db = new_db();
    db.execute(
        "CREATE TABLE CensusReport (region TEXT, reported_count INT);
         CREATE GLOBAL POPULATION People (region TEXT, income INT);
         CREATE SAMPLE WebSurvey AS (SELECT * FROM People);",
    )
    .unwrap();

    // Load the aggregate CSV into the auxiliary table via SQL inserts.
    let agg = read_csv_str(AGGREGATE_CSV).unwrap();
    for r in 0..agg.num_rows() {
        db.execute(&format!(
            "INSERT INTO CensusReport VALUES ('{}', {})",
            agg.value(r, 0),
            agg.value(r, 1)
        ))
        .unwrap();
    }
    db.execute("CREATE METADATA People_M1 AS (SELECT region, reported_count FROM CensusReport);")
        .unwrap();

    // Load the sample CSV straight into the sample (schema-coerced).
    let sample = read_csv_str(SAMPLE_CSV).unwrap();
    db.engine().ingest_sample("WebSurvey", sample).unwrap();

    // The biased web survey over-represents the north (4:1); the census
    // says the south is bigger (6000 vs 4000).
    let r = db
        .execute("SELECT SEMI-OPEN region, COUNT(*) FROM People GROUP BY region ORDER BY region")
        .unwrap();
    assert_eq!(r.table.num_rows(), 2);
    assert!((r.table.value(0, 1).as_f64().unwrap() - 4000.0).abs() < 1e-6);
    assert!((r.table.value(1, 1).as_f64().unwrap() - 6000.0).abs() < 1e-6);

    // Weighted average income: north rows carry 1000 each, the single
    // south row carries 6000.
    let avg = db
        .execute("SELECT SEMI-OPEN AVG(income) FROM People")
        .unwrap();
    let expect = (4000.0 * 52.5 + 6000.0 * 80.0) / 10_000.0;
    assert!((avg.table.value(0, 0).as_f64().unwrap() - expect).abs() < 1e-6);
}

#[test]
fn query_results_export_as_csv() {
    let db = new_db();
    db.execute(
        "CREATE TABLE T (name TEXT, v INT);
         INSERT INTO T VALUES ('a, b', 1), ('c', 2);",
    )
    .unwrap();
    let out = db.execute("SELECT name, v FROM T ORDER BY v").unwrap();
    let csv = write_csv_string(&out.table).unwrap();
    // Embedded comma round-trips through quoting.
    let back = read_csv_str(&csv).unwrap();
    assert_eq!(back.value(0, 0), Value::Str("a, b".into()));
    assert_eq!(back.value(1, 1), Value::Int(2));
}

#[test]
fn ingest_reorders_columns_by_name() {
    // The CSV's column order differs from the sample's declared order;
    // ingest_sample matches by name.
    let db = new_db();
    db.execute(
        "CREATE GLOBAL POPULATION P (a TEXT, b INT);
         CREATE SAMPLE S AS (SELECT * FROM P);",
    )
    .unwrap();
    let t = read_csv_str("b,a\n7,x\n8,y\n").unwrap();
    db.engine().ingest_sample("S", t).unwrap();
    let r = db.execute("SELECT a, b FROM S ORDER BY b").unwrap();
    assert_eq!(r.table.value(0, 0), Value::Str("x".into()));
    assert_eq!(r.table.value(0, 1), Value::Int(7));
}

#[test]
fn ingest_rejects_missing_columns() {
    let db = new_db();
    db.execute(
        "CREATE GLOBAL POPULATION P (a TEXT, b INT);
         CREATE SAMPLE S AS (SELECT * FROM P);",
    )
    .unwrap();
    let t = read_csv_str("a\nx\n").unwrap();
    assert!(db.engine().ingest_sample("S", t).is_err());
}
