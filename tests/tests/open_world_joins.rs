//! Statistical acceptance of open-world joins: SEMI-OPEN weighted
//! aggregates through population⋈aux and population⋈sample joins must
//! land on the declared-marginal ground truth, combined weights must be
//! IPF re-calibrated when both sides carry correction weights, and LEFT
//! OUTER must keep the unmatched population mass (the §3.3 false
//! negatives stay visible instead of silently dropping).

use std::collections::HashMap;
use std::sync::Arc;

use mosaic_core::{MosaicEngine, Session, Value};

fn new_db() -> Session {
    Arc::new(MosaicEngine::new()).session()
}

/// The §2 world, shrunk: a population of 1000 migrants (declared country
/// marginal UK 600 / FR 400), observed only through a biased sample of
/// 50 rows (40 UK, 10 FR), joined against auxiliary country attributes.
fn setup() -> Session {
    let db = new_db();
    db.execute(
        "CREATE TABLE Report (country TEXT, reported_count INT);
         INSERT INTO Report VALUES ('UK', 600), ('FR', 400);
         CREATE GLOBAL POPULATION Migrants (country TEXT);
         CREATE METADATA Migrants_M AS (SELECT country, reported_count FROM Report);
         CREATE SAMPLE MSample AS (SELECT * FROM Migrants);
         CREATE TABLE Regions (country TEXT, region TEXT, score INT);
         INSERT INTO Regions VALUES ('UK', 'north', 10), ('FR', 'south', 50);",
    )
    .unwrap();
    let mut rows = vec!["('UK')"; 40];
    rows.extend(vec!["('FR')"; 10]);
    db.execute(&format!("INSERT INTO MSample VALUES {}", rows.join(",")))
        .unwrap();
    db
}

fn group_counts(t: &mosaic_core::Table) -> HashMap<String, f64> {
    (0..t.num_rows())
        .map(|r| {
            let key = match t.value(r, 0) {
                Value::Null => "<null>".to_string(),
                v => v.to_string(),
            };
            (key, t.value(r, 1).as_f64().unwrap())
        })
        .collect()
}

/// SEMI-OPEN COUNT(*) through a population⋈aux join lands exactly on
/// the declared marginal totals (single-marginal raking is exact), while
/// CLOSED reports the raw biased sample counts.
#[test]
fn semi_open_join_counts_match_declared_marginal() {
    let db = setup();
    let semi = db
        .execute(
            "SELECT SEMI-OPEN c.region AS region, COUNT(*) AS n \
             FROM Migrants m JOIN Regions c ON m.country = c.country \
             GROUP BY c.region ORDER BY region",
        )
        .unwrap();
    let semi = group_counts(&semi.table);
    assert!(
        (semi["north"] - 600.0).abs() < 1e-6 && (semi["south"] - 400.0).abs() < 1e-6,
        "SEMI-OPEN joined counts should hit the declared marginal: {semi:?}"
    );
    let closed = db
        .execute(
            "SELECT CLOSED c.region AS region, COUNT(*) AS n \
             FROM Migrants m JOIN Regions c ON m.country = c.country \
             GROUP BY c.region ORDER BY region",
        )
        .unwrap();
    let closed = group_counts(&closed.table);
    assert_eq!(closed["north"], 40.0, "CLOSED keeps the raw sample counts");
    assert_eq!(closed["south"], 10.0, "CLOSED keeps the raw sample counts");
}

/// A weighted AVG over an attribute fetched *through* the join: the
/// SEMI-OPEN estimate must essentially recover the population truth,
/// closing almost all of the biased (CLOSED) gap — the debiasing.rs
/// acceptance shape, through a join tree.
#[test]
fn semi_open_join_average_debiases_toward_truth() {
    let db = setup();
    // Truth over the declared population: (600·10 + 400·50) / 1000.
    let truth = 26.0;
    let avg_of = |db: &Session, vis: &str| -> f64 {
        db.execute(&format!(
            "SELECT {vis} AVG(c.score) AS a \
             FROM Migrants m JOIN Regions c ON m.country = c.country"
        ))
        .unwrap()
        .table
        .value(0, 0)
        .as_f64()
        .unwrap()
    };
    let semi = avg_of(&db, "SEMI-OPEN");
    let closed = avg_of(&db, "CLOSED");
    let semi_err = (semi - truth).abs();
    let closed_err = (closed - truth).abs();
    assert!(
        closed_err > 5.0,
        "the sample must actually be biased for this test to mean anything \
         (closed {closed:.2} vs truth {truth:.2})"
    );
    assert!(
        semi_err < closed_err * 0.05 && semi_err < 1e-3,
        "SEMI-OPEN join AVG {semi:.4} should recover truth {truth} \
         (closed {closed:.4}, err {closed_err:.4})"
    );
}

/// Weighted×weighted: joining the population with a declared sample puts
/// correction weights on BOTH sides; the combined product weight must be
/// IPF re-calibrated so group totals reproduce the declared marginal —
/// the raw product (40·40 UK pairs at weight 15) would be off by ~40×.
#[test]
fn combined_weights_recalibrated_to_declared_marginals() {
    let db = setup();
    let result = db
        .execute(
            "SELECT SEMI-OPEN m.country AS country, COUNT(*) AS n \
             FROM Migrants m JOIN MSample s ON m.country = s.country \
             GROUP BY m.country ORDER BY country",
        )
        .unwrap();
    assert!(
        result.notes.iter().any(|n| n.contains("re-calibrated")),
        "expected the combined-weight re-calibration note, got {:?}",
        result.notes
    );
    let counts = group_counts(&result.table);
    assert!(
        (counts["UK"] - 600.0).abs() < 1e-6,
        "re-calibrated UK mass should be 600, got {counts:?}"
    );
    assert!(
        (counts["FR"] - 400.0).abs() < 1e-6,
        "re-calibrated FR mass should be 400, got {counts:?}"
    );
    // The ungrouped total is the whole declared population.
    let total = db
        .execute(
            "SELECT SEMI-OPEN COUNT(*) AS n \
             FROM Migrants m JOIN MSample s ON m.country = s.country",
        )
        .unwrap()
        .table
        .value(0, 0)
        .as_f64()
        .unwrap();
    assert!(
        (total - 1000.0).abs() < 1e-6,
        "re-calibrated total mass should be the declared 1000, got {total}"
    );
}

/// The re-calibrated combined weight must be bit-identical across
/// thread counts and optimizer settings — in particular, projection
/// pruning must not strip the marginal attributes IPF rakes over.
#[test]
fn recalibrated_join_is_invariant_across_threads_and_optimizer() {
    use std::sync::Arc;
    let engine = Arc::new(mosaic_core::MosaicEngine::new());
    engine
        .session()
        .execute(
            "CREATE TABLE Report (country TEXT, reported_count INT);
             INSERT INTO Report VALUES ('UK', 600), ('FR', 400);
             CREATE GLOBAL POPULATION Migrants (country TEXT);
             CREATE METADATA Migrants_M AS (SELECT country, reported_count FROM Report);
             CREATE SAMPLE MSample AS (SELECT * FROM Migrants);
             INSERT INTO MSample VALUES ('UK'), ('UK'), ('UK'), ('FR');",
        )
        .unwrap();
    for sql in [
        "SELECT SEMI-OPEN COUNT(*) AS n \
         FROM Migrants m JOIN MSample s ON m.country = s.country",
        "SELECT SEMI-OPEN m.country AS country, COUNT(*) AS n \
         FROM Migrants m JOIN MSample s ON m.country = s.country \
         GROUP BY m.country ORDER BY country",
    ] {
        let baseline = engine
            .session()
            .with_parallelism(1)
            .with_optimizer(false)
            .query(sql)
            .unwrap();
        for threads in [1, 2, 8] {
            for optimizer in [false, true] {
                let out = engine
                    .session()
                    .with_parallelism(threads)
                    .with_optimizer(optimizer)
                    .query(sql)
                    .unwrap();
                assert_eq!(out.num_rows(), baseline.num_rows(), "{sql}");
                for r in 0..out.num_rows() {
                    for c in 0..out.num_columns() {
                        assert_eq!(
                            out.value(r, c),
                            baseline.value(r, c),
                            "{sql} diverged at ({r},{c}) with threads={threads}, \
                             optimizer={optimizer}"
                        );
                    }
                }
            }
        }
    }
}

/// Without declared marginals the combined weight is the plain product
/// under independence — and the answer says so in its notes.
#[test]
fn combined_weight_without_marginals_is_plain_product() {
    let db = new_db();
    // A known uniform mechanism gives SEMI-OPEN weights without any
    // declared metadata — so there is nothing to re-calibrate against.
    db.execute(
        "CREATE GLOBAL POPULATION P (k TEXT);
         CREATE SAMPLE A AS (SELECT * FROM P USING MECHANISM UNIFORM PERCENT 50);
         CREATE SAMPLE B AS (SELECT * FROM P USING MECHANISM UNIFORM PERCENT 50);
         INSERT INTO A VALUES ('x'), ('y');
         INSERT INTO B VALUES ('x'), ('x');",
    )
    .unwrap();
    let result = db
        .execute(
            "SELECT SEMI-OPEN COUNT(*) AS n \
             FROM P p JOIN B b ON p.k = b.k",
        )
        .unwrap();
    assert!(
        result
            .notes
            .iter()
            .any(|n| n.contains("independence assumption")),
        "expected the independence-assumption note, got {:?}",
        result.notes
    );
}

/// LEFT OUTER under SEMI-OPEN: population rows with no aux match keep
/// their reweighted mass in the NULL-extended group instead of being
/// dropped — the open-world answer to a closed-world lookup table.
#[test]
fn semi_open_left_join_keeps_unmatched_mass() {
    let db = setup();
    // An aux table that only knows about the UK.
    db.execute(
        "CREATE TABLE UkOnly (country TEXT, region TEXT);
         INSERT INTO UkOnly VALUES ('UK', 'north');",
    )
    .unwrap();
    let out = db
        .execute(
            "SELECT SEMI-OPEN c.region AS region, COUNT(*) AS n \
             FROM Migrants m LEFT JOIN UkOnly c ON m.country = c.country \
             GROUP BY c.region ORDER BY region",
        )
        .unwrap();
    let groups = group_counts(&out.table);
    assert!(
        (groups["north"] - 600.0).abs() < 1e-6,
        "matched mass: {groups:?}"
    );
    assert!(
        (groups["<null>"] - 400.0).abs() < 1e-6,
        "the FR mass must survive, NULL-extended: {groups:?}"
    );
    // An INNER join silently drops it — exactly the failure mode LEFT
    // OUTER exists to surface.
    let inner = db
        .execute(
            "SELECT SEMI-OPEN COUNT(*) AS n \
             FROM Migrants m JOIN UkOnly c ON m.country = c.country",
        )
        .unwrap();
    let n = inner.table.value(0, 0).as_f64().unwrap();
    assert!(
        (n - 600.0).abs() < 1e-6,
        "INNER keeps only the UK mass: {n}"
    );
}
