//! What EXPLAIN says about a statement's source, and the notes execution
//! leaves on its answer, pinned per kind of read: an auxiliary table, a
//! raw or aliased sample, a population under each visibility and each
//! debiasing path (mechanism weights, IPF against the population's own or
//! the GP's metadata, generation), and the joins that combine them.
//!
//! Each row pins every EXPLAIN line above `logical:` (the plan layers
//! below it have their own suites) and every execution note, or the
//! error execution raises. The session is fixed — 2 threads, seed 7,
//! the Bayesian-network OPEN backend — so the text is deterministic and
//! the suite runs in seconds in a debug build.

use std::sync::Arc;

use mosaic_bn::BnConfig;
use mosaic_core::{EngineOptions, MosaicEngine, OpenBackend, OpenOptions, Session};

/// A world whose global population carries metadata: a sample per
/// debiasing path, a population derived without its own sample or
/// metadata, and a lookup table to join against.
const WITH_METADATA: &str = "
    CREATE TABLE Regions (region TEXT, n INT);
    INSERT INTO Regions VALUES ('north', 600), ('south', 400);
    CREATE TABLE Lookup (region TEXT, label TEXT);
    INSERT INTO Lookup VALUES ('north', 'N'), ('south', 'S');
    CREATE GLOBAL POPULATION People (region TEXT, age INT);
    CREATE METADATA People_Region FOR People AS (SELECT region, n FROM Regions);
    CREATE SAMPLE SP AS (SELECT * FROM People);
    INSERT INTO SP VALUES ('north', 30), ('north', 50), ('south', 20), ('south', 70), ('north', 41);
    CREATE POPULATION Unif AS (SELECT * FROM People WHERE age > 0);
    CREATE SAMPLE SU AS (SELECT * FROM Unif USING MECHANISM UNIFORM PERCENT 10);
    INSERT INTO SU VALUES ('north', 30), ('south', 60);
    CREATE POPULATION Strat AS (SELECT * FROM People WHERE age > 0);
    CREATE METADATA Strat_Region FOR Strat AS (SELECT region, n FROM Regions);
    CREATE SAMPLE SST AS (SELECT * FROM Strat USING MECHANISM STRATIFIED ON region PERCENT 20);
    INSERT INTO SST VALUES ('north', 30), ('north', 35), ('south', 60);
    CREATE POPULATION Young AS (SELECT * FROM People WHERE age < 40);";

/// A world without any metadata.
const WITHOUT_METADATA: &str = "
    CREATE GLOBAL POPULATION P (region TEXT, v INT);
    CREATE SAMPLE SS AS (SELECT * FROM P USING MECHANISM STRATIFIED ON region PERCENT 10);
    INSERT INTO SS VALUES ('a', 1), ('a', 2), ('b', 3);
    CREATE POPULATION Q AS (SELECT * FROM P WHERE v > 1);
    CREATE SAMPLE SQ AS (SELECT * FROM Q);
    INSERT INTO SQ VALUES ('a', 2), ('b', 3);";

fn world(script: &str) -> Session {
    let open = OpenOptions::default().with_backend(OpenBackend::BayesNet(BnConfig::default()));
    let engine = Arc::new(MosaicEngine::with_options(
        EngineOptions::default().with_open(open),
    ));
    let session = engine.session().with_parallelism(2).with_seed(7);
    session.execute(script).unwrap();
    session
}

/// One pinned statement: its world, its SQL, the EXPLAIN lines above
/// `logical:`, and the execution notes (or `error: <message>`).
struct Row {
    what: &'static str,
    world: &'static str,
    sql: &'static str,
    explain: &'static [&'static str],
    notes: &'static [&'static str],
}

const ROWS: &[Row] = &[
    Row {
        what: "aux table",
        world: WITH_METADATA,
        sql: "SELECT label FROM Lookup",
        explain: &[
            "SELECT FROM table Lookup",
        ],
        notes: &[],
    },
    Row {
        what: "raw sample",
        world: WITH_METADATA,
        sql: "SELECT COUNT(*) FROM SP",
        explain: &[
            "SELECT FROM sample SP (raw scan; engine weights exposed as column `weight`)",
        ],
        notes: &[
            "raw sample scan of SP (weights exposed as column `weight`)",
        ],
    },
    Row {
        what: "aliased sample",
        world: WITH_METADATA,
        sql: "SELECT s.age FROM SP s WHERE s.age > 25",
        explain: &[
            "SELECT FROM sample SP AS s",
        ],
        notes: &[
            "raw sample scan of SP (weights exposed as column `weight`)",
        ],
    },
    Row {
        what: "population, CLOSED",
        world: WITH_METADATA,
        sql: "SELECT CLOSED region, COUNT(*) FROM People GROUP BY region",
        explain: &[
            "SELECT CLOSED FROM population People",
            "  source: sample SP (5 rows)",
            "  visibility: CLOSED — raw sample scan, no reweighting",
        ],
        notes: &[
            "population People via sample SP (5 rows), visibility CLOSED",
        ],
    },
    Row {
        what: "SEMI-OPEN, UNIFORM mechanism",
        world: WITH_METADATA,
        sql: "SELECT SEMI-OPEN COUNT(*) FROM Unif",
        explain: &[
            "SELECT SEMI-OPEN FROM population Unif",
            "  source: sample SU (2 rows)",
            "  visibility: SEMI-OPEN — inverse-probability weights (known UNIFORM mechanism, 10%)",
        ],
        notes: &[
            "population Unif via sample SU (2 rows), visibility SEMI-OPEN",
            "known UNIFORM mechanism: inverse-probability weight 10.000",
        ],
    },
    Row {
        what: "SEMI-OPEN, STRATIFIED with a 1-D marginal",
        world: WITH_METADATA,
        sql: "SELECT SEMI-OPEN region, COUNT(*) FROM Strat GROUP BY region",
        explain: &[
            "SELECT SEMI-OPEN FROM population Strat",
            "  source: sample SST (3 rows)",
            "  visibility: SEMI-OPEN — inverse-probability weights (known STRATIFIED mechanism on region, 20%)",
        ],
        notes: &[
            "population Strat via sample SST (3 rows), visibility SEMI-OPEN",
            "known STRATIFIED mechanism on region: per-stratum N_h/n_h from metadata Strat_Region",
        ],
    },
    Row {
        what: "SEMI-OPEN, STRATIFIED without a 1-D marginal",
        world: WITHOUT_METADATA,
        sql: "SELECT SEMI-OPEN COUNT(*) FROM P",
        explain: &[
            "SELECT SEMI-OPEN FROM population P",
            "  source: sample SS (3 rows)",
            "  visibility: SEMI-OPEN — inverse-probability weights (known STRATIFIED mechanism on region but no marginal over it; falling back to uniform weight 10.000)",
        ],
        notes: &[
            "population P via sample SS (3 rows), visibility SEMI-OPEN",
            "known STRATIFIED mechanism on region but no marginal over it; falling back to uniform weight 10.000",
        ],
    },
    Row {
        what: "SEMI-OPEN, IPF against own metadata",
        world: WITH_METADATA,
        sql: "SELECT SEMI-OPEN region, COUNT(*) FROM People GROUP BY region",
        explain: &[
            "SELECT SEMI-OPEN FROM population People",
            "  source: sample SP (5 rows)",
            "  visibility: SEMI-OPEN — IPF reweighting against 1 marginal(s) of People",
        ],
        notes: &[
            "population People via sample SP (5 rows), visibility SEMI-OPEN",
            "IPF vs 1 marginal(s) of People: 2 iterations, max rel err 0.00e0",
        ],
    },
    Row {
        what: "SEMI-OPEN, IPF against the GP's metadata",
        world: WITH_METADATA,
        sql: "SELECT SEMI-OPEN COUNT(*) FROM Young",
        explain: &[
            "SELECT SEMI-OPEN FROM population Young",
            "  source: sample SP (5 rows, view filter: age < 40)",
            "  visibility: SEMI-OPEN — IPF reweighting against 1 marginal(s) of GP People",
        ],
        notes: &[
            "population Young via sample SP (5 rows), visibility SEMI-OPEN",
            "IPF vs 1 marginal(s) of GP People: 2 iterations, max rel err 0.00e0",
        ],
    },
    Row {
        what: "SEMI-OPEN, no metadata",
        world: WITHOUT_METADATA,
        sql: "SELECT SEMI-OPEN COUNT(*) FROM Q",
        explain: &[
            "SELECT SEMI-OPEN FROM population Q",
            "  source: sample SQ (2 rows)",
            "  visibility: SEMI-OPEN — execution would fail: execution error: SEMI-OPEN query over Q needs either a known sampling mechanism or population metadata (CREATE METADATA …)",
        ],
        notes: &[
            "error: execution error: SEMI-OPEN query over Q needs either a known sampling mechanism or population metadata (CREATE METADATA …)",
        ],
    },
    Row {
        what: "OPEN with metadata",
        world: WITH_METADATA,
        sql: "SELECT OPEN region, COUNT(*) FROM People GROUP BY region",
        explain: &[
            "SELECT OPEN FROM population People",
            "  source: sample SP (5 rows)",
            "  visibility: OPEN — 10 generative replicate(s), backend bayes-net, seed 7",
            "  combine: keep groups present in every replicate, average aggregates; ORDER BY / LIMIT applied after combining",
        ],
        notes: &[
            "population People via sample SP (5 rows), visibility OPEN",
            "trained bayes-net on 5 rows with 1 marginal(s)",
            "combined 10 generated samples of 5 rows across 2 worker thread(s) (population size 1000)",
        ],
    },
    Row {
        what: "OPEN without metadata",
        world: WITHOUT_METADATA,
        sql: "SELECT OPEN COUNT(*) FROM Q",
        explain: &[
            "SELECT OPEN FROM population Q",
            "  source: sample SQ (2 rows)",
            "  visibility: OPEN — execution would fail: execution error: OPEN query over Q requires population metadata",
        ],
        notes: &[
            "error: execution error: OPEN query over Q requires population metadata",
        ],
    },
    Row {
        what: "sample join",
        world: WITHOUT_METADATA,
        sql: "SELECT x.v FROM SS x JOIN SQ y ON x.v = y.v",
        explain: &[
            "SELECT FROM SS AS x INNER JOIN SQ AS y",
            "  left: sample SS (3 rows, weights exposed as column `weight`)",
            "  right: sample SQ (2 rows, weights exposed as column `weight`)",
            "  combined weight: product of per-side weights (independence assumption; a join without a SEMI-OPEN or OPEN population is not re-calibrated)",
            "  join: INNER hash equi-join; build = smaller input (SQ, currently); probe = SS, streamed per morsel, already in canonical (left row, right row) order",
            "  join build: hash table on normalized key tokens",
        ],
        notes: &[
            "raw sample scan of SS (weights exposed as column `weight`)",
            "raw sample scan of SQ (weights exposed as column `weight`)",
            "hash equi-join of SS ⋈ SQ",
            "combined weight = product of per-side weights (independence assumption; a join without a SEMI-OPEN or OPEN population is not re-calibrated)",
        ],
    },
    Row {
        what: "SEMI-OPEN population join table",
        world: WITH_METADATA,
        sql: "SELECT SEMI-OPEN l.label, COUNT(*) FROM People p JOIN Lookup l ON p.region = l.region GROUP BY l.label",
        explain: &[
            "SELECT SEMI-OPEN FROM People AS p INNER JOIN Lookup AS l",
            "  left: population People (5 rows, via sample SP, weights exposed as column `weight`)",
            "  right: table Lookup (2 rows)",
            "  visibility: SEMI-OPEN — People: IPF reweighting against 1 marginal(s) of People",
            "  join: INNER hash equi-join; build = smaller input (Lookup, currently); probe = People, streamed per morsel, already in canonical (left row, right row) order",
            "  join build: direct-indexed on dictionary codes (2 slots)",
        ],
        notes: &[
            "population People via sample SP (5 rows), SEMI-OPEN side",
            "IPF vs 1 marginal(s) of People: 2 iterations, max rel err 0.00e0",
            "hash equi-join of People ⋈ Lookup",
        ],
    },
    Row {
        what: "SEMI-OPEN population join sample, re-calibrated",
        world: WITH_METADATA,
        sql: "SELECT SEMI-OPEN p.region, COUNT(*) FROM People p JOIN SU s ON p.region = s.region GROUP BY p.region",
        explain: &[
            "SELECT SEMI-OPEN FROM People AS p INNER JOIN SU AS s",
            "  left: population People (5 rows, via sample SP, weights exposed as column `weight`)",
            "  right: sample SU (2 rows, weights exposed as column `weight`)",
            "  visibility: SEMI-OPEN — People: IPF reweighting against 1 marginal(s) of People",
            "  combined weight: product of per-side weights, IPF re-calibrated against 1 declared marginal(s) of People",
            "  join: INNER hash equi-join; build = smaller input (SU, currently); probe = People, streamed per morsel, already in canonical (left row, right row) order",
            "  join build: direct-indexed on dictionary codes (2 slots)",
        ],
        notes: &[
            "population People via sample SP (5 rows), SEMI-OPEN side",
            "IPF vs 1 marginal(s) of People: 2 iterations, max rel err 0.00e0",
            "raw sample scan of SU (weights exposed as column `weight`)",
            "hash equi-join of People ⋈ SU",
            "combined weight = product of per-side weights, IPF re-calibrated against 1 declared marginal(s) of People",
            "IPF vs 1 marginal(s) re-calibrating the combined join weight: 1 iterations, max rel err 0.00e0",
        ],
    },
    Row {
        what: "OPEN population join table",
        world: WITH_METADATA,
        sql: "SELECT OPEN l.label, COUNT(*) FROM People p JOIN Lookup l ON p.region = l.region GROUP BY l.label",
        explain: &[
            "SELECT OPEN FROM People AS p INNER JOIN Lookup AS l",
            "  left: population People (5 rows, via sample SP, weights exposed as column `weight`)",
            "  right: table Lookup (2 rows)",
            "  visibility: OPEN — People side generated per replicate: 10 replicate(s), backend bayes-net, seed 7",
            "  combine: keep groups present in every replicate, average aggregates; ORDER BY / LIMIT applied after combining",
            "  join: INNER hash equi-join; build = smaller input (Lookup, currently); probe = People, streamed per morsel, already in canonical (left row, right row) order",
            "  join build: direct-indexed on dictionary codes (2 slots)",
        ],
        notes: &[
            "hash equi-join of People ⋈ Lookup",
            "generative model cache hit",
            "combined 10 generated samples of 5 rows across 2 worker thread(s) (population size 1000)",
        ],
    },
];

fn explain_head(s: &Session, sql: &str) -> Vec<String> {
    let plan = s.query(&format!("EXPLAIN {sql}")).unwrap();
    (0..plan.num_rows())
        .map(|r| plan.value(r, 0).to_string())
        .take_while(|l| !l.starts_with("  logical:"))
        .collect()
}

fn notes(s: &Session, sql: &str) -> Vec<String> {
    match s.execute(sql) {
        Ok(r) => r.notes,
        Err(e) => vec![format!("error: {e}")],
    }
}

#[test]
fn explain_lines_and_notes_per_read() {
    let mut worlds: Vec<(&str, Session)> = Vec::new();
    let mut mismatches = Vec::new();
    for row in ROWS {
        if !worlds.iter().any(|(w, _)| *w == row.world) {
            worlds.push((row.world, world(row.world)));
        }
        let s = &worlds.iter().find(|(w, _)| *w == row.world).unwrap().1;
        let (explain, notes) = (explain_head(s, row.sql), notes(s, row.sql));
        if explain != row.explain || notes != row.notes {
            mismatches.push(format!(
                "{}: {}\n  explain: {explain:#?}\n  notes: {notes:#?}",
                row.what, row.sql
            ));
        }
    }
    assert!(mismatches.is_empty(), "{}", mismatches.join("\n"));
}
