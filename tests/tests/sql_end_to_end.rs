//! End-to-end SQL tests: the paper's §2 script and the surrounding DDL/DML
//! surface, through the full parse → plan → execute pipeline.

use std::sync::Arc;

use mosaic_core::{MosaicEngine, MosaicError, Session, Value, Visibility};

fn new_db() -> Session {
    Arc::new(MosaicEngine::new()).session()
}

fn db_with_paper_schema() -> Session {
    let db = new_db();
    db.execute(
        "CREATE TEMPORARY TABLE Eurostat (country TEXT, email TEXT, reported_count INT);
         INSERT INTO Eurostat (country, reported_count) VALUES ('UK', 60000), ('FR', 40000);
         INSERT INTO Eurostat (email, reported_count) VALUES ('Yahoo', 30000), ('AOL', 70000);
         CREATE GLOBAL POPULATION EuropeMigrants (country TEXT, email TEXT);
         CREATE METADATA EuropeMigrants_M1 AS
           (SELECT country, reported_count FROM Eurostat WHERE country IS NOT NULL);
         CREATE METADATA EuropeMigrants_M2 AS
           (SELECT email, reported_count FROM Eurostat WHERE email IS NOT NULL);
         CREATE SAMPLE YahooMigrants AS
           (SELECT * FROM EuropeMigrants WHERE email = 'Yahoo');",
    )
    .expect("paper §2 DDL executes");
    db
}

#[test]
fn paper_section2_script_round_trips() {
    let db = db_with_paper_schema();
    // Ingest a biased Yahoo-only sample: 3 UK rows, 1 FR row.
    db.execute(
        "INSERT INTO YahooMigrants VALUES
           ('UK','Yahoo'), ('UK','Yahoo'), ('UK','Yahoo'), ('FR','Yahoo');",
    )
    .unwrap();
    let semi = db
        .execute(
            "SELECT SEMI-OPEN country, email, COUNT(*) FROM EuropeMigrants \
             GROUP BY country, email ORDER BY country",
        )
        .unwrap();
    assert_eq!(semi.visibility, Some(Visibility::SemiOpen));
    // Only Yahoo groups can appear (no generation under SEMI-OPEN).
    assert_eq!(semi.table.num_rows(), 2);
    for r in 0..2 {
        assert_eq!(semi.table.value(r, 1), Value::Str("Yahoo".into()));
    }
    // IPF satisfied both 1-D marginals: country totals 40000/60000 and the
    // email marginal concentrates all mass on Yahoo (AOL cells are empty
    // in the sample — SEMI-OPEN false negatives).
    let fr = semi.table.value(0, 2).as_f64().unwrap();
    let uk = semi.table.value(1, 2).as_f64().unwrap();
    assert!(uk > fr, "UK ({uk}) should outweigh FR ({fr})");
    let total = uk + fr;
    assert!(total > 25_000.0, "total weighted count {total}");
}

#[test]
fn closed_query_is_raw_sample() {
    let db = db_with_paper_schema();
    db.execute("INSERT INTO YahooMigrants VALUES ('UK','Yahoo'), ('FR','Yahoo');")
        .unwrap();
    let closed = db
        .execute(
            "SELECT CLOSED country, COUNT(*) FROM EuropeMigrants GROUP BY country ORDER BY country",
        )
        .unwrap();
    assert_eq!(closed.table.value(0, 1), Value::Int(1));
    assert_eq!(closed.table.value(1, 1), Value::Int(1));
}

#[test]
fn default_visibility_is_semi_open() {
    let db = db_with_paper_schema();
    db.execute("INSERT INTO YahooMigrants VALUES ('UK','Yahoo');")
        .unwrap();
    let r = db
        .execute("SELECT country, COUNT(*) FROM EuropeMigrants GROUP BY country")
        .unwrap();
    assert_eq!(r.visibility, Some(Visibility::SemiOpen));
}

#[test]
fn visibility_on_aux_table_rejected() {
    let db = db_with_paper_schema();
    let err = db
        .execute("SELECT SEMI-OPEN country FROM Eurostat")
        .unwrap_err();
    assert!(matches!(err, MosaicError::Unsupported(_)), "{err}");
}

#[test]
fn insert_into_population_rejected() {
    let db = db_with_paper_schema();
    let err = db
        .execute("INSERT INTO EuropeMigrants VALUES ('UK', 'Yahoo')")
        .unwrap_err();
    assert!(matches!(err, MosaicError::Unsupported(_)), "{err}");
}

#[test]
fn semi_open_without_metadata_or_mechanism_fails() {
    let db = new_db();
    db.execute(
        "CREATE GLOBAL POPULATION P (a TEXT);
         CREATE SAMPLE S AS (SELECT * FROM P);
         INSERT INTO S VALUES ('x');",
    )
    .unwrap();
    let err = db.execute("SELECT SEMI-OPEN COUNT(*) FROM P").unwrap_err();
    assert!(matches!(err, MosaicError::Execution(_)), "{err}");
}

#[test]
fn known_uniform_mechanism_needs_no_metadata() {
    let db = new_db();
    db.execute(
        "CREATE GLOBAL POPULATION P (a TEXT);
         CREATE SAMPLE S AS (SELECT * FROM P USING MECHANISM UNIFORM PERCENT 10);
         INSERT INTO S VALUES ('x'), ('x'), ('y');",
    )
    .unwrap();
    let r = db.execute("SELECT SEMI-OPEN COUNT(*) FROM P").unwrap();
    // 3 rows at weight 100/10 = 10 each.
    assert_eq!(r.table.value(0, 0).as_f64().unwrap(), 30.0);
}

#[test]
fn stratified_mechanism_uses_strata_marginal() {
    let db = new_db();
    db.execute(
        "CREATE TABLE Report (region TEXT, reported_count INT);
         INSERT INTO Report VALUES ('N', 1000), ('S', 9000);
         CREATE GLOBAL POPULATION P (region TEXT, v INT);
         CREATE METADATA P_M1 AS (SELECT region, reported_count FROM Report);
         CREATE SAMPLE S AS (SELECT * FROM P USING MECHANISM STRATIFIED ON region PERCENT 10);
         INSERT INTO S VALUES ('N', 1), ('N', 2), ('S', 3), ('S', 4);",
    )
    .unwrap();
    let r = db
        .execute("SELECT SEMI-OPEN region, COUNT(*) FROM P GROUP BY region ORDER BY region")
        .unwrap();
    // N_h/n_h: N -> 1000/2 = 500 per row; S -> 9000/2 = 4500 per row.
    assert_eq!(r.table.value(0, 1).as_f64().unwrap(), 1000.0);
    assert_eq!(r.table.value(1, 1).as_f64().unwrap(), 9000.0);
}

#[test]
fn derived_population_filters_gp_sample() {
    let db = new_db();
    db.execute(
        "CREATE TABLE Report (city TEXT, reported_count INT);
         INSERT INTO Report VALUES ('A', 100), ('B', 300);
         CREATE GLOBAL POPULATION People (city TEXT, age INT);
         CREATE METADATA People_M1 AS (SELECT city, reported_count FROM Report);
         CREATE POPULATION CityA AS (SELECT * FROM People WHERE city = 'A');
         CREATE SAMPLE S AS (SELECT * FROM People);
         INSERT INTO S VALUES ('A', 30), ('A', 40), ('B', 50), ('B', 60), ('B', 70);",
    )
    .unwrap();
    // Query the derived population: only city A rows (reweighted to the
    // GP marginal, then viewed).
    let r = db.execute("SELECT SEMI-OPEN COUNT(*) FROM CityA").unwrap();
    let count = r.table.value(0, 0).as_f64().unwrap();
    assert!((count - 100.0).abs() < 1.0, "CityA count {count}");
    let closed = db.execute("SELECT CLOSED COUNT(*) FROM CityA").unwrap();
    assert_eq!(closed.table.value(0, 0), Value::Int(2));
}

#[test]
fn insert_select_from_aux_into_sample() {
    let db = new_db();
    db.execute(
        "CREATE TABLE Staging (name TEXT, n INT);
         INSERT INTO Staging VALUES ('a', 1), ('b', 2), ('c', 3);
         CREATE GLOBAL POPULATION P (name TEXT, n INT);
         CREATE SAMPLE S AS (SELECT * FROM P);
         INSERT INTO S SELECT name, n FROM Staging WHERE n > 1;",
    )
    .unwrap();
    let r = db.execute("SELECT name FROM S ORDER BY name").unwrap();
    assert_eq!(r.table.num_rows(), 2);
    assert_eq!(r.table.value(0, 0), Value::Str("b".into()));
}

#[test]
fn sample_scan_exposes_weight_column() {
    let db = db_with_paper_schema();
    db.execute("INSERT INTO YahooMigrants VALUES ('UK','Yahoo'), ('FR','Yahoo');")
        .unwrap();
    let r = db.execute("SELECT SUM(weight) FROM YahooMigrants").unwrap();
    // Initial weights are 1 per tuple (paper §3.2).
    assert_eq!(r.table.value(0, 0).as_f64().unwrap(), 2.0);
}

#[test]
fn user_set_initial_weights_respected_by_ipf() {
    let db = db_with_paper_schema();
    db.execute("INSERT INTO YahooMigrants VALUES ('UK','Yahoo'), ('UK','Yahoo'), ('FR','Yahoo');")
        .unwrap();
    db.engine()
        .set_sample_weights("YahooMigrants", vec![3.0, 1.0, 1.0])
        .unwrap();
    let r = db
        .execute("SELECT SEMI-OPEN country, COUNT(*) FROM EuropeMigrants GROUP BY country ORDER BY country")
        .unwrap();
    // Ratios within the UK cell are preserved by IPF (3:1).
    let uk_total = r.table.value(1, 1).as_f64().unwrap();
    assert!(uk_total > 0.0);
}

#[test]
fn drop_statements_work() {
    let db = db_with_paper_schema();
    db.execute("DROP SAMPLE YahooMigrants").unwrap();
    assert!(db.engine().catalog().sample("YahooMigrants").is_none());
    db.execute("DROP METADATA EuropeMigrants_M1").unwrap();
    assert_eq!(
        db.engine().catalog().metadata_for("EuropeMigrants").len(),
        1
    );
    assert!(db.execute("DROP TABLE Nothing").is_err());
}

#[test]
fn scalar_select_without_from() {
    let db = new_db();
    let r = db.execute("SELECT 1 + 2 AS three").unwrap();
    assert_eq!(r.table.value(0, 0), Value::Int(3));
    assert_eq!(r.table.schema().field(0).name, "three");
}

#[test]
fn metadata_requires_inferable_population() {
    let db = new_db();
    db.execute(
        "CREATE TABLE T (a TEXT, n INT);
         INSERT INTO T VALUES ('x', 1);
         CREATE GLOBAL POPULATION Pop (a TEXT);",
    )
    .unwrap();
    // Name prefix does not match any population and no FOR clause: error.
    let err = db
        .execute("CREATE METADATA Unrelated_M1 AS (SELECT a, n FROM T)")
        .unwrap_err();
    assert!(matches!(err, MosaicError::Catalog(_)), "{err}");
    // Explicit FOR succeeds.
    db.execute("CREATE METADATA Unrelated_M1 FOR Pop AS (SELECT a, n FROM T)")
        .unwrap();
    assert_eq!(db.engine().catalog().metadata_for("Pop").len(), 1);
}

#[test]
fn duplicate_relations_rejected() {
    let db = db_with_paper_schema();
    assert!(db
        .execute("CREATE GLOBAL POPULATION Another (a TEXT)")
        .is_err());
    assert!(db
        .execute("CREATE SAMPLE YahooMigrants AS (SELECT * FROM EuropeMigrants)")
        .is_err());
}

#[test]
fn metadata_group_by_query_builds_marginal() {
    let db = new_db();
    db.execute(
        "CREATE TABLE Raw (city TEXT);
         INSERT INTO Raw VALUES ('A'), ('A'), ('B');
         CREATE GLOBAL POPULATION P (city TEXT);
         CREATE METADATA P_M1 AS (SELECT city, COUNT(*) FROM Raw GROUP BY city);",
    )
    .unwrap();
    let catalog = db.engine().catalog();
    let meta = catalog.metadata_for("P");
    assert_eq!(meta.len(), 1);
    assert_eq!(meta[0].marginal.get(&[Value::Str("A".into())]), Some(2.0));
}

/// A metadata query is an ordinary SELECT: it binds through the one
/// binder, so aliases and qualified references resolve, a `?` is the
/// ad-hoc parameter error, and its output names are the marginal's
/// attributes.
#[test]
fn metadata_query_binds_like_any_select() {
    let db = db_with_paper_schema();
    for (name, query) in [
        (
            "M3",
            "SELECT Eurostat.country AS country, reported_count FROM Eurostat \
             WHERE country IS NOT NULL",
        ),
        (
            "M4",
            "SELECT e.country AS country, e.reported_count FROM Eurostat e \
             WHERE e.country IS NOT NULL",
        ),
    ] {
        db.execute(&format!(
            "CREATE METADATA {name} FOR EuropeMigrants AS ({query})"
        ))
        .unwrap_or_else(|e| panic!("{query}: {e}"));
        let catalog = db.engine().catalog();
        let metas = catalog.metadata_for("EuropeMigrants");
        let m = &metas.iter().find(|m| m.name == name).unwrap().marginal;
        assert_eq!(m.attrs(), ["country".to_string()], "{query}");
        assert_eq!(m.get(&[Value::Str("UK".into())]), Some(60000.0), "{query}");
    }
    // Rejected statements fail exactly like the bare SELECT.
    for query in [
        "SELECT nosuch, reported_count FROM Eurostat",
        "SELECT country, reported_count FROM Eurostat WHERE reported_count > ?",
    ] {
        let bare = db.execute(query).unwrap_err();
        let meta = db
            .execute(&format!(
                "CREATE METADATA M5 FOR EuropeMigrants AS ({query})"
            ))
            .unwrap_err();
        assert_eq!(bare.to_string(), meta.to_string(), "{query}");
        assert_eq!(
            std::mem::discriminant(&bare),
            std::mem::discriminant(&meta),
            "{query}"
        );
        assert_eq!(
            query.contains('?'),
            matches!(meta, MosaicError::Param(_)),
            "{meta}"
        );
    }
    // An unaliased qualified key would name an attribute
    // (`Eurostat.country`) no population has: rejected, asking for AS.
    for query in [
        "SELECT Eurostat.country, reported_count FROM Eurostat",
        "SELECT e.country, e.reported_count FROM Eurostat e",
    ] {
        db.execute(query).unwrap();
        let err = db
            .execute(&format!(
                "CREATE METADATA M5 FOR EuropeMigrants AS ({query})"
            ))
            .unwrap_err();
        assert!(matches!(err, MosaicError::Unsupported(_)), "{err}");
        assert!(err.to_string().contains(" AS "), "{err}");
    }
    assert_eq!(
        db.engine().catalog().metadata_for("EuropeMigrants").len(),
        4
    );
}

/// Metadata queries read auxiliary tables: a sample, a population (its
/// answer would depend on the metadata being defined) or a join is
/// rejected, all with the one message.
#[test]
fn metadata_query_must_read_an_auxiliary_table() {
    let db = db_with_paper_schema();
    db.execute("INSERT INTO YahooMigrants VALUES ('UK','Yahoo'), ('FR','Yahoo');")
        .unwrap();
    let mut messages = Vec::new();
    for query in [
        "SELECT country, COUNT(*) FROM YahooMigrants GROUP BY country",
        "SELECT CLOSED country, COUNT(*) FROM EuropeMigrants GROUP BY country",
        "SELECT a.country, b.reported_count FROM Eurostat a JOIN Eurostat b \
         ON a.country = b.country",
        "SELECT 'UK', 1",
    ] {
        db.execute(query).unwrap_or_else(|e| panic!("{query}: {e}"));
        let err = db
            .execute(&format!(
                "CREATE METADATA M5 FOR EuropeMigrants AS ({query})"
            ))
            .unwrap_err();
        assert!(matches!(err, MosaicError::Unsupported(_)), "{query}: {err}");
        assert!(
            err.to_string()
                .contains("metadata queries read auxiliary tables"),
            "{query}: {err}"
        );
        messages.push(err.to_string());
    }
    messages.dedup();
    assert_eq!(messages.len(), 1, "{messages:?}");
    assert_eq!(
        db.engine().catalog().metadata_for("EuropeMigrants").len(),
        2
    );
}
