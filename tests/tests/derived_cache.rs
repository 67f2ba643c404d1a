//! The engine's cache of derived OPEN artefacts — fitted models and the
//! replicates drawn from them — against the one rule it must keep: an
//! answer served through it is bit for bit the answer a fresh engine
//! gives after the same statements. The plan and result caches keep the
//! same rule for ad-hoc scripts (`script_caches_match_a_fresh_engine`).

use std::sync::{Arc, Barrier};
use std::time::Instant;

use mosaic_bn::BnConfig;
use mosaic_core::{
    Binner, EngineOptions, MosaicEngine, OpenBackend, OpenOptions, QueryResult, ScriptError,
    Session, SwgConfig, Value,
};
use proptest::prelude::*;

/// A global population with region metadata, a sample of it, a derived
/// population without metadata of its own, a table to join against and
/// one no population reads.
const WORLD: &str = "
    CREATE TABLE Regions (region TEXT, n INT);
    INSERT INTO Regions VALUES ('north', 600), ('south', 400);
    CREATE TABLE Lookup (region TEXT, label TEXT);
    INSERT INTO Lookup VALUES ('north', 'N'), ('south', 'S');
    CREATE TABLE Other (x INT);
    CREATE GLOBAL POPULATION People (region TEXT, age INT);
    CREATE METADATA People_Region FOR People AS (SELECT region, n FROM Regions);
    CREATE SAMPLE SP AS (SELECT * FROM People);
    INSERT INTO SP VALUES ('north', 30), ('north', 50), ('south', 20), ('south', 70), ('north', 41);
    CREATE POPULATION Young AS (SELECT * FROM People WHERE age < 45);";

/// The seeded OPEN reads: aggregates over the GP and over a derived
/// population, a non-aggregate answered from one replicate, and a join.
const READS: &[&str] = &[
    "SELECT OPEN region, COUNT(*), AVG(age) FROM People GROUP BY region ORDER BY region",
    "SELECT OPEN COUNT(*), SUM(age) FROM Young",
    "SELECT OPEN region, age FROM People ORDER BY region, age LIMIT 6",
    "SELECT OPEN l.label, COUNT(*) FROM People p JOIN Lookup l ON p.region = l.region \
     GROUP BY l.label ORDER BY l.label",
];

/// One step of a generated history.
#[derive(Debug, Clone)]
enum Step {
    Sql(String),
    Binner(usize),
    Seed(u64),
    Read(&'static str),
}

/// Step `i` of a history, drawn from `(kind, arg)`. Names carry `i` so
/// every CREATE in a history is new.
fn step(i: usize, kind: u8, arg: u64) -> Step {
    let region = if arg.is_multiple_of(2) {
        "north"
    } else {
        "south"
    };
    let age = 10 + (arg % 80);
    match kind {
        0 => Step::Sql(format!("INSERT INTO SP VALUES ('{region}', {age})")),
        1 => Step::Sql(format!(
            "CREATE TABLE C{i} (region TEXT, n INT);
             INSERT INTO C{i} VALUES ('north', {}), ('south', {});
             CREATE METADATA M{i} FOR {} AS (SELECT region, n FROM C{i})",
            100 + arg % 700,
            100 + (arg / 7) % 700,
            if arg.is_multiple_of(3) {
                "Young"
            } else {
                "People"
            },
        )),
        2 => Step::Binner(2 + (arg % 4) as usize),
        3 => {
            Step::Sql(if arg.is_multiple_of(2) {
                format!(
                    "DROP SP; CREATE SAMPLE SP AS (SELECT * FROM People);
                 INSERT INTO SP VALUES ('north', {age}), ('south', {}), ('north', 33)",
                    90 - age
                )
            } else {
                format!("DROP Young; CREATE POPULATION Young AS (SELECT * FROM People WHERE age < {age})")
            })
        }
        4 => Step::Sql(format!("INSERT INTO Other VALUES ({arg})")),
        5 => Step::Seed(arg % 3),
        _ => Step::Read(READS[arg as usize % READS.len()]),
    }
}

fn engine() -> Arc<MosaicEngine> {
    let open = OpenOptions::default()
        .with_backend(OpenBackend::BayesNet(BnConfig::default()))
        .with_num_generated(3)
        .with_rows_per_sample(Some(40));
    let engine = Arc::new(MosaicEngine::with_options(
        EngineOptions::default().with_open(open),
    ));
    engine.session().execute(WORLD).unwrap();
    engine
}

/// The session a read runs in: two workers, the result cache off so
/// every read reaches the generator, and the history's current seed.
fn session(engine: &Arc<MosaicEngine>, seed: u64) -> Session {
    engine
        .session()
        .with_parallelism(2)
        .with_result_cache(false)
        .with_seed(seed)
}

/// An outcome compared bit for bit: every value, floats by bit pattern,
/// or the error's text.
type Outcome = Result<Vec<Vec<String>>, String>;

/// The [`Outcome`] of a statement.
fn outcome(r: mosaic_core::Result<QueryResult>) -> Outcome {
    let r = r.map_err(|e| e.to_string())?;
    Ok((0..r.table.num_rows())
        .map(|i| {
            r.table
                .row(i)
                .into_iter()
                .map(|v| match v {
                    Value::Float(f) => format!("f{:016x}", f.to_bits()),
                    v => format!("{v:?}"),
                })
                .collect()
        })
        .collect())
}

/// A script's outcome compared bit for bit: the answer as in
/// [`outcome`], or the failing statement and the error's text.
fn script_outcome(r: Result<QueryResult, ScriptError>) -> Outcome {
    match r {
        Ok(r) => outcome(Ok(r)),
        Err(e) => Err(format!("{:?}: {}", e.statement, e.error)),
    }
}

/// The ad-hoc world the script histories start from.
const TABLES: &str = "
    CREATE TABLE t (k INT, v INT);
    INSERT INTO t VALUES (3, 30), (1, 10), (2, 20), (1, 5);
    CREATE TABLE u (x INT);";

/// Single-SELECT scripts over `t`, repeated verbatim: aggregates, a
/// top-k, a filter that fails once `k` is TEXT, and a `SUM` that fails
/// over TEXT.
const SCRIPT_READS: &[&str] = &[
    "SELECT COUNT(*), SUM(v), AVG(v) FROM t",
    "SELECT k, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY k ORDER BY k",
    "SELECT k, v FROM t ORDER BY v DESC, k LIMIT 3;",
    "SELECT k FROM t WHERE k > 1 ORDER BY k;",
    "SELECT SUM(k) FROM t;",
];

/// Write `i` of a script history, drawn from `(kind, arg)`: multi-row
/// inserts into `t`, dropping `t` and re-creating it with `k` typed INT
/// or TEXT (over which two of [`SCRIPT_READS`] fail), a plain drop, and
/// writes to the unrelated `u`.
fn script_write(i: usize, kind: u8, arg: u64) -> String {
    let (a, b) = (arg % 7, (arg / 7) % 50);
    match kind {
        0 => format!("INSERT INTO t VALUES ({a}, {b}), ({}, {i})", a + 1),
        1 => format!("INSERT INTO t VALUES ('{a}', {b}), ('x{i}', {a})"),
        2 => format!(
            "DROP TABLE t; CREATE TABLE t (k {}, v INT); INSERT INTO t VALUES ({a}, {b})",
            if arg.is_multiple_of(2) { "INT" } else { "TEXT" }
        ),
        3 => "DROP TABLE t".to_string(),
        _ => format!("INSERT INTO u VALUES ({arg}), ({i})"),
    }
}

/// Apply a write step; `Ok(())` or the error's text.
fn write(engine: &Arc<MosaicEngine>, step: &Step) -> Result<(), String> {
    match step {
        Step::Sql(sql) => session(engine, 0)
            .execute(sql)
            .map(drop)
            .map_err(|e| e.to_string()),
        Step::Binner(bins) => {
            engine.register_binner("age", Binner::equal_width(0.0, 100.0, *bins));
            Ok(())
        }
        Step::Seed(_) | Step::Read(_) => Ok(()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random interleavings of sample inserts, metadata, binners, drop
    /// and re-create, unrelated writes, seed changes and seeded OPEN
    /// reads: after every read, the long-lived engine's answer equals a
    /// fresh engine's that replayed the same writes.
    #[test]
    fn derived_cache_matches_a_fresh_engine(
        history in proptest::collection::vec((0u8..10, 0u64..1_000_000), 4..20),
    ) {
        let live = engine();
        let mut seed = 7;
        let mut writes: Vec<(Step, Result<(), String>)> = Vec::new();
        for (i, &(kind, arg)) in history.iter().enumerate() {
            match step(i, kind, arg) {
                Step::Seed(s) => seed = s,
                Step::Read(sql) => {
                    let cached = outcome(session(&live, seed).execute(sql));
                    let fresh = engine();
                    for (w, result) in &writes {
                        prop_assert_eq!(&write(&fresh, w), result, "replaying {:?}", w);
                    }
                    let expected = outcome(session(&fresh, seed).execute(sql));
                    prop_assert_eq!(
                        cached, expected,
                        "read {} of {:?} (seed {}) after {:?}", i, sql, seed, history
                    );
                }
                w => {
                    let result = write(&live, &w);
                    writes.push((w, result));
                }
            }
        }
    }

    /// Random histories of ad-hoc scripts — CREATE, multi-row INSERT,
    /// DROP and re-create under another column type, unrelated writes
    /// and repeated identical single-SELECT scripts — through
    /// `Session::execute_script`: after every read, the long-lived
    /// engine (plan and result caches on) answers, or fails, bit for bit
    /// like a fresh engine that replayed the writes with the result
    /// cache off.
    #[test]
    fn script_caches_match_a_fresh_engine(
        history in proptest::collection::vec((0u8..12, 0u64..1_000_000), 4..24),
    ) {
        let run = |engine: &Arc<MosaicEngine>, cache: bool, sql: &str| {
            engine.session().with_parallelism(2).with_result_cache(cache).execute_script(sql)
        };
        let live = Arc::new(MosaicEngine::new());
        run(&live, true, TABLES).unwrap();
        let mut writes: Vec<(String, Outcome)> = Vec::new();
        for (i, &(kind, arg)) in history.iter().enumerate() {
            if kind < 6 {
                let sql = script_write(i, kind, arg);
                writes.push((sql.clone(), script_outcome(run(&live, true, &sql))));
                continue;
            }
            let sql = SCRIPT_READS[arg as usize % SCRIPT_READS.len()];
            // Twice: the repeat runs from the plan cache.
            let cached = [(); 2].map(|_| script_outcome(run(&live, true, sql)));
            let fresh = Arc::new(MosaicEngine::new());
            run(&fresh, false, TABLES).unwrap();
            for (w, result) in &writes {
                prop_assert_eq!(&script_outcome(run(&fresh, false, w)), result, "replaying {}", w);
            }
            let expected = script_outcome(run(&fresh, false, sql));
            for (n, cached) in cached.iter().enumerate() {
                prop_assert_eq!(
                    cached, &expected, "read {} (run {}) of {:?} after {:?}", i, n, sql, history
                );
            }
        }
    }
}

/// An M-SWG engine whose fit takes one step per epoch for every 32
/// sample rows: a population with a few rows fits at once, one with
/// thousands takes seconds.
fn swg_engine() -> Arc<MosaicEngine> {
    let swg = SwgConfig::default()
        .with_hidden_dim(16)
        .with_hidden_layers(1)
        .with_latent_dim(Some(2))
        .with_lambda(0.0)
        .with_projections(8)
        .with_batch_size(32)
        .with_epochs(20)
        .with_steps_per_epoch(None)
        .with_seed(1);
    let open = OpenOptions::default()
        .with_backend(OpenBackend::Swg(swg))
        .with_num_generated(RUNS)
        .with_rows_per_sample(Some(50));
    Arc::new(MosaicEngine::with_options(
        EngineOptions::default().with_open(open),
    ))
}

/// Replicates per OPEN aggregate in [`swg_engine`].
const RUNS: usize = 3;

/// A global population `G`, and under it population `name` with a
/// region marginal and a sample of `rows` rows.
fn population(engine: &Arc<MosaicEngine>, name: &str, rows: usize) {
    let values: Vec<String> = (0..rows)
        .map(|i| format!("('{}', {})", ["north", "south"][i % 2], i % 90))
        .collect();
    let s = engine.session();
    if engine.catalog().population("G").is_none() {
        s.execute(
            "CREATE TABLE Regions (region TEXT, n INT);
             INSERT INTO Regions VALUES ('north', 600), ('south', 400);
             CREATE GLOBAL POPULATION G (region TEXT, age INT);",
        )
        .unwrap();
    }
    s.execute(&format!(
        "CREATE POPULATION {name} AS (SELECT * FROM G WHERE age >= 0);
         CREATE METADATA {name}_M FOR {name} AS (SELECT region, n FROM Regions);
         CREATE SAMPLE {name}_S AS (SELECT * FROM {name});
         INSERT INTO {name}_S VALUES {};",
        values.join(", ")
    ))
    .unwrap();
}

fn open_count(engine: &Arc<MosaicEngine>, name: &str) -> QueryResult {
    session(engine, 7)
        .execute(&format!(
            "SELECT OPEN region, COUNT(*) FROM {name} GROUP BY region"
        ))
        .unwrap()
}

/// A cold fit of one population holds no lock another population's
/// OPEN statement needs: B's warm query returns while A still fits.
#[test]
fn cold_fit_does_not_block_other_populations() {
    let engine = swg_engine();
    population(&engine, "B", 8);
    population(&engine, "A", 6_000);
    open_count(&engine, "B");
    let started = engine.cache_stats().derived_misses;
    std::thread::scope(|scope| {
        let a = scope.spawn(|| open_count(&engine, "A"));
        // A's first miss is its model: from then on the fit runs.
        while engine.cache_stats().derived_misses == started {
            std::thread::yield_now();
        }
        let t0 = Instant::now();
        let b = open_count(&engine, "B");
        let waited = t0.elapsed();
        assert!(
            b.notes.iter().any(|n| n == "generative model cache hit"),
            "{:?}",
            b.notes
        );
        assert!(
            !a.is_finished(),
            "B's warm query ({waited:?}) waited for A's cold fit"
        );
        let a = a.join().unwrap();
        assert!(a.notes.iter().any(|n| n.starts_with("trained m-swg")));
    });
}

/// Four callers of one cold statement share one fit and one draw per
/// replicate, and all get the same answer.
#[test]
fn concurrent_cold_queries_fit_once() {
    let engine = swg_engine();
    population(&engine, "A", 1_000);
    let barrier = Barrier::new(4);
    let results: Vec<QueryResult> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    open_count(&engine, "A")
                })
            })
            .collect();
        threads.into_iter().map(|t| t.join().unwrap()).collect()
    });
    let trained = results
        .iter()
        .filter(|r| r.notes.iter().any(|n| n.starts_with("trained ")))
        .count();
    assert_eq!(trained, 1, "exactly one caller fits");
    // One model miss, then one miss per replicate.
    assert_eq!(engine.cache_stats().derived_misses, 1 + RUNS as u64);
    let first = outcome(Ok(results[0].clone()));
    for r in &results[1..] {
        assert_eq!(outcome(Ok(r.clone())), first);
    }
}

/// `clear_caches` drops fitted models and replicates too; the next
/// statement refits and answers as before. The counters, in process and
/// over the wire, show the derived entries come and go.
#[test]
fn clear_caches_drops_fitted_models_and_replicates() {
    let engine = engine();
    let sql = READS[0];
    let first = session(&engine, 7).execute(sql).unwrap();
    let warm = session(&engine, 7).execute(sql).unwrap();
    assert!(warm.notes.iter().any(|n| n == "generative model cache hit"));
    let s = engine.cache_stats();
    // One model and three replicates, each built once and hit once.
    assert_eq!(
        (s.derived_entries, s.derived_misses, s.derived_hits),
        (4, 4, 4)
    );
    assert!(s.derived_bytes > 0 && s.derived_bytes <= s.derived_capacity_bytes);

    let handle = mosaic_serve::Server::bind(
        Arc::clone(&engine),
        "127.0.0.1:0",
        mosaic_serve::ServeConfig::default(),
    )
    .unwrap()
    .spawn()
    .0;
    let mut client = mosaic_serve::Client::connect(handle.addr()).unwrap();
    let wire = |client: &mut mosaic_serve::Client, name: &str| {
        let t = client.cache_stats().unwrap().table;
        (0..t.num_rows())
            .find(|&r| t.value(r, 0) == Value::Str(name.into()))
            .map(|r| t.value(r, 1))
            .unwrap_or_else(|| panic!("{name} missing from the CacheStats reply"))
    };
    assert_eq!(wire(&mut client, "derived_entries"), Value::Int(4));
    assert_eq!(wire(&mut client, "derived_hits"), Value::Int(4));

    engine.clear_caches();
    let s = engine.cache_stats();
    assert_eq!((s.derived_entries, s.derived_bytes), (0, 0));
    assert_eq!(wire(&mut client, "derived_entries"), Value::Int(0));
    client.close().unwrap();
    handle.shutdown();

    let refit = session(&engine, 7).execute(sql).unwrap();
    assert!(
        refit.notes.iter().any(|n| n.starts_with("trained ")),
        "{:?}",
        refit.notes
    );
    assert_eq!(outcome(Ok(refit)), outcome(Ok(first)));
}
