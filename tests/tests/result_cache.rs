//! The epoch-invalidated result cache, end to end:
//!
//! * A cache **hit is bit-identical** to uncached re-execution — for the
//!   planner-oracle template subset, across the optimizer × parallelism
//!   matrix, and across visibilities (CLOSED, SEMI-OPEN IPF, and OPEN,
//!   whose answers the session seed fixes).
//! * **Writes invalidate**: INSERT / DROP+recreate / sample writes
//!   between identical queries never serve stale rows — the post-write
//!   answer always equals a fresh uncached execution.
//! * A **concurrent writer** racing cached readers never exposes a torn
//!   or stale count: every observed COUNT is a whole number of batches
//!   and monotonic per reader.
//! * The byte-bounded **LRU** respects its capacity, evicts, and
//!   refuses oversized entries; the plan cache powers the zero-parse
//!   hot path and drops stale entries after DDL.
//! * Over the wire, `SetOption result_cache=on|off|clear` gates and
//!   clears the cache per connection, and `CacheStats` frames report
//!   engine-wide counters.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use mosaic_bn::BnConfig;
use mosaic_core::{
    EngineOptions, MosaicEngine, OpenBackend, OpenOptions, QueryResult, Session, Table, Value,
};
use mosaic_serve::{Client, ServeConfig, Server, ServerHandle};

/// Aggregate-heavy planner-oracle subset (all deterministic at any
/// thread count, so a cached answer is provably THE answer).
const TEMPLATES: &[&str] = &[
    "SELECT COUNT(*) FROM t",
    "SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k",
    "SELECT SUM(i), AVG(f), MIN(i), MAX(f) FROM t",
    "SELECT k, i FROM t WHERE i > 40 ORDER BY i DESC, k LIMIT 20",
    "SELECT k, SUM(i) AS s FROM t WHERE i > 0 GROUP BY k ORDER BY s DESC, k LIMIT 5",
    "SELECT COUNT(*) FROM t WHERE f > 0.0 OR i < 0",
    "SELECT k, AVG(f) AS a, MIN(i), MAX(i) FROM t GROUP BY k ORDER BY k",
];

/// A session with the result cache pinned on — explicit, so this
/// suite's hit assertions hold even when CI sets `MOSAIC_RESULT_CACHE=off`
/// for the re-execution pass.
fn cached(engine: &Arc<MosaicEngine>) -> Session {
    engine.session().with_result_cache(true)
}

fn seed_engine(rows: usize) -> Arc<MosaicEngine> {
    let engine = Arc::new(MosaicEngine::new());
    seed_table(&engine.session(), rows);
    engine
}

fn seed_table(session: &Session, rows: usize) {
    let mut sql = String::from("CREATE TABLE t (k TEXT, i INT, f FLOAT);\n");
    let mut values = Vec::with_capacity(rows);
    for r in 0..rows {
        let k = format!("'g{}'", r % 17);
        let i = if r % 7 == 0 {
            "NULL".into()
        } else {
            ((r % 200) as i64 - 60).to_string()
        };
        let f = if r % 9 == 0 {
            "NULL".into()
        } else {
            format!("{:.3}", (r as f64) * 0.5 - 55.0)
        };
        values.push(format!("({k}, {i}, {f})"));
    }
    for chunk in values.chunks(2048) {
        sql.push_str("INSERT INTO t VALUES ");
        sql.push_str(&chunk.join(", "));
        sql.push_str(";\n");
    }
    session.execute(&sql).unwrap();
}

fn assert_identical(a: &Table, b: &Table, ctx: &str) {
    assert_eq!(a.num_rows(), b.num_rows(), "{ctx}: row count");
    assert_eq!(a.num_columns(), b.num_columns(), "{ctx}: column count");
    for c in 0..a.num_columns() {
        let (fa, fb) = (a.schema().field(c), b.schema().field(c));
        assert_eq!(fa.name, fb.name, "{ctx}: field {c} name");
        assert_eq!(fa.data_type, fb.data_type, "{ctx}: field {c} type");
    }
    for r in 0..a.num_rows() {
        for c in 0..a.num_columns() {
            // `Value` equality is total and compares floats by bit
            // pattern, so this is literal bit-identity.
            assert_eq!(a.value(r, c), b.value(r, c), "{ctx}: cell ({r},{c})");
        }
    }
}

fn is_hit(r: &QueryResult) -> bool {
    r.notes.iter().any(|n| n.starts_with("result cache hit"))
}

/// Every template: uncached baseline == first cached run (miss) ==
/// second cached run (hit), across the optimizer × parallelism matrix.
#[test]
fn cached_hit_bit_identical_to_uncached_across_matrix() {
    let engine = seed_engine(4_000);
    for optimizer in [true, false] {
        for threads in [1, 3] {
            let uncached = engine
                .session()
                .with_result_cache(false)
                .with_optimizer(optimizer)
                .with_parallelism(threads);
            let cached = cached(&engine)
                .with_optimizer(optimizer)
                .with_parallelism(threads);
            for sql in TEMPLATES {
                let ctx = format!("{sql} (optimizer={optimizer}, threads={threads})");
                let baseline = uncached.execute(sql).unwrap();
                assert!(!is_hit(&baseline), "{ctx}: opted-out session must miss");
                let first = cached.execute(sql).unwrap();
                let second = cached.execute(sql).unwrap();
                assert!(is_hit(&second), "{ctx}: second run should hit");
                assert_identical(&baseline.table, &first.table, &ctx);
                assert_identical(&baseline.table, &second.table, &ctx);
            }
        }
    }
    let stats = engine.cache_stats();
    assert!(stats.hits > 0, "matrix runs should have produced hits");
}

/// Prepared statements participate: each distinct parameter vector
/// caches separately, and a hit equals the literal-inlined uncached run.
#[test]
fn prepared_params_cache_per_value() {
    let engine = seed_engine(3_000);
    let cached = cached(&engine);
    let uncached = engine.session().with_result_cache(false);
    let prepared = cached
        .prepare("SELECT k, COUNT(*) AS c FROM t WHERE i > ? GROUP BY k ORDER BY k")
        .unwrap();
    for thr in [0i64, 25, 50] {
        let baseline = uncached
            .execute(&format!(
                "SELECT k, COUNT(*) AS c FROM t WHERE i > {thr} GROUP BY k ORDER BY k"
            ))
            .unwrap();
        let first = cached
            .execute_prepared(&prepared, &[Value::Int(thr)])
            .unwrap();
        let second = cached
            .execute_prepared(&prepared, &[Value::Int(thr)])
            .unwrap();
        assert!(is_hit(&second), "param {thr}: second run should hit");
        assert_identical(&baseline.table, &first.table, &format!("param {thr} miss"));
        assert_identical(&baseline.table, &second.table, &format!("param {thr} hit"));
    }
    // Different parameter values never collide.
    let a = cached
        .execute_prepared(&prepared, &[Value::Int(0)])
        .unwrap();
    let b = cached
        .execute_prepared(&prepared, &[Value::Int(50)])
        .unwrap();
    assert!(is_hit(&a) && is_hit(&b));
    let same = a.table.num_rows() == b.table.num_rows()
        && (0..a.table.num_rows()).all(|r| a.table.value(r, 1) == b.table.value(r, 1));
    assert!(!same, "thresholds 0 and 50 must produce different counts");
}

/// The §2 population world: SEMI-OPEN (IPF) answers cache and hit
/// bit-identically, and sample writes invalidate them.
#[test]
fn semi_open_caches_and_sample_writes_invalidate() {
    let engine = Arc::new(MosaicEngine::new());
    engine
        .session()
        .execute(
            "CREATE TABLE Report (country TEXT, email TEXT, reported_count INT);
             INSERT INTO Report (country, reported_count) VALUES ('UK', 600), ('FR', 400);
             INSERT INTO Report (email, reported_count) VALUES ('Yahoo', 300), ('AOL', 700);
             CREATE GLOBAL POPULATION Migrants (country TEXT, email TEXT);
             CREATE METADATA Migrants_M1 AS
               (SELECT country, reported_count FROM Report WHERE country IS NOT NULL);
             CREATE METADATA Migrants_M2 AS
               (SELECT email, reported_count FROM Report WHERE email IS NOT NULL);
             CREATE SAMPLE YahooSample AS (SELECT * FROM Migrants WHERE email = 'Yahoo');
             INSERT INTO YahooSample VALUES ('UK','Yahoo'), ('UK','Yahoo'), ('FR','Yahoo');",
        )
        .unwrap();
    let q = "SELECT SEMI-OPEN country, COUNT(*) FROM Migrants GROUP BY country ORDER BY country";
    let cached = cached(&engine);
    let uncached = engine.session().with_result_cache(false);

    let baseline = uncached.execute(q).unwrap();
    let first = cached.execute(q).unwrap();
    let second = cached.execute(q).unwrap();
    assert!(is_hit(&second), "SEMI-OPEN second run should hit");
    assert_identical(&baseline.table, &first.table, "semi-open miss");
    assert_identical(&baseline.table, &second.table, "semi-open hit");

    // A write to the backing sample bumps the population's epoch: the
    // next run must re-execute and equal a fresh uncached answer.
    cached
        .execute("INSERT INTO YahooSample VALUES ('FR','Yahoo'), ('FR','Yahoo')")
        .unwrap();
    let after = cached.execute(q).unwrap();
    assert!(!is_hit(&after), "sample write must invalidate the entry");
    let fresh = uncached.execute(q).unwrap();
    assert_identical(&fresh.table, &after.table, "post-write semi-open");

    // CREATE SAMPLE on the population invalidates again.
    let warm = cached.execute(q).unwrap();
    assert!(is_hit(&warm));
    cached
        .execute(
            "CREATE SAMPLE Second AS (SELECT * FROM Migrants WHERE email = 'Yahoo');
             INSERT INTO Second VALUES ('UK','Yahoo')",
        )
        .unwrap();
    let after_ddl = cached.execute(q).unwrap();
    assert!(!is_hit(&after_ddl), "CREATE SAMPLE must invalidate");
    let fresh = uncached.execute(q).unwrap();
    assert_identical(&fresh.table, &after_ddl.table, "post-CREATE SAMPLE");
}

/// The paper's EuropeMigrants-over-Migrants shape: population `P` is a
/// view over `GP` and answers through a sample *declared on GP*, so
/// writes to that sample — and GP-level metadata — are writes to `P`.
/// The binding's dependency set (`P` plus the population it is defined
/// over) drives result-cache, plan-cache and prepared invalidation alike:
/// no surface may serve the pre-write answer.
#[test]
fn derived_population_invalidated_by_gp_sample_and_metadata_writes() {
    let engine = Arc::new(MosaicEngine::new());
    let cached = cached(&engine);
    let uncached = engine.session().with_result_cache(false);
    cached
        .execute(
            "CREATE TABLE R (c TEXT, e TEXT, n INT);
             INSERT INTO R (c, n) VALUES ('UK', 60), ('FR', 40);
             INSERT INTO R (e, n) VALUES ('y', 30), ('g', 40), ('z', 20), ('q', 10);
             CREATE GLOBAL POPULATION GP (c TEXT, e TEXT);
             CREATE POPULATION P AS (SELECT * FROM GP WHERE c = 'UK');
             CREATE METADATA GP_M1 AS (SELECT c, n FROM R WHERE c IS NOT NULL);
             CREATE SAMPLE S AS (SELECT * FROM GP);
             INSERT INTO S VALUES ('UK','y'), ('FR','y'), ('UK','g');",
        )
        .unwrap();
    let handle = start(Arc::clone(&engine));
    let mut client = Client::connect(handle.addr()).unwrap();

    let closed = "SELECT CLOSED COUNT(*) FROM P";
    let semi = "SELECT SEMI-OPEN e, COUNT(*) FROM P GROUP BY e ORDER BY e";
    let closed_prepared = cached.prepare(closed).unwrap();
    let semi_prepared = cached.prepare(semi).unwrap();
    // Every surface answers `sql` from warm caches exactly like a fresh
    // uncached execution: ad-hoc (twice, so the second run exercises
    // the caches), prepared, the in-process plan-cache hot path, and
    // the wire (whose repeated `Query` frames take that hot path too).
    let mut check_all = |sql: &str, prepared: &mosaic_core::Prepared, ctx: &str| -> Table {
        let fresh = uncached.execute(sql).unwrap().table;
        for run in 0..2 {
            let adhoc = cached.execute(sql).unwrap();
            assert_identical(&fresh, &adhoc.table, &format!("{ctx}: ad-hoc run {run}"));
            let prep = cached.execute_prepared(prepared, &[]).unwrap();
            assert_identical(&fresh, &prep.table, &format!("{ctx}: prepared run {run}"));
            let plans = plan_counts(&engine);
            let hot = cached.execute(sql).unwrap();
            assert_eq!(
                plan_counts(&engine),
                (plans.0 + 1, plans.1),
                "{ctx}: hot path run {run} is a plan-cache hit"
            );
            assert_identical(&fresh, &hot.table, &format!("{ctx}: hot path run {run}"));
            let wire = client.query(sql).unwrap();
            assert_identical(&fresh, &wire.table, &format!("{ctx}: wire run {run}"));
        }
        assert!(is_hit(&cached.execute(sql).unwrap()), "{ctx}: caches warm");
        fresh
    };

    let before = check_all(closed, &closed_prepared, "closed, before");
    assert_eq!(before.value(0, 0), Value::Int(2));
    let semi_before = check_all(semi, &semi_prepared, "semi-open, before");

    // A write to the GP's sample is a write to P.
    cached
        .execute("INSERT INTO S VALUES ('UK','z'), ('UK','q')")
        .unwrap();
    assert!(
        !is_hit(&cached.execute(closed).unwrap()),
        "sample INSERT must invalidate the derived population's entry"
    );
    let after = check_all(closed, &closed_prepared, "closed, after INSERT");
    assert_eq!(after.value(0, 0), Value::Int(4));
    let semi_after = check_all(semi, &semi_prepared, "semi-open, after INSERT");
    assert_ne!(semi_before.num_rows(), semi_after.num_rows());

    // So is GP-level metadata: a second marginal re-weights P's answer.
    cached
        .execute("CREATE METADATA GP_M2 AS (SELECT e, n FROM R WHERE e IS NOT NULL)")
        .unwrap();
    assert!(
        !is_hit(&cached.execute(semi).unwrap()),
        "GP-level CREATE METADATA must invalidate the derived population's entry"
    );
    check_all(semi, &semi_prepared, "semi-open, after CREATE METADATA");
    check_all(closed, &closed_prepared, "closed, after CREATE METADATA");

    client.close().unwrap();
    handle.shutdown();
}

/// A sample side of a reweighted join has its combined weight
/// re-calibrated against the metadata of the population it was declared
/// on, so that population is a dependency of the statement even though
/// the FROM clause never names it.
#[test]
fn reweighted_join_invalidated_by_sample_side_population_metadata() {
    let engine = Arc::new(MosaicEngine::new());
    let cached = cached(&engine);
    let uncached = engine.session().with_result_cache(false);
    cached
        .execute(
            "CREATE TABLE R (c TEXT, n INT);
             INSERT INTO R VALUES ('UK', 60), ('FR', 40);
             CREATE TABLE R2 (c TEXT, n INT);
             INSERT INTO R2 VALUES ('UK', 10), ('FR', 90);
             CREATE GLOBAL POPULATION GP (c TEXT, e TEXT);
             CREATE METADATA GP_M1 AS (SELECT c, n FROM R);
             CREATE SAMPLE S AS (SELECT * FROM GP);
             INSERT INTO S VALUES ('UK','y'), ('FR','y'), ('UK','g');
             CREATE POPULATION Q AS (SELECT * FROM GP WHERE e = 'y');
             CREATE SAMPLE SQ AS (SELECT * FROM Q);
             INSERT INTO SQ VALUES ('UK','y'), ('FR','y');",
        )
        .unwrap();
    let q = "SELECT SEMI-OPEN g.c AS c, COUNT(*) AS n FROM GP g JOIN SQ s ON g.c = s.c \
             GROUP BY g.c ORDER BY c";
    let before = cached.execute(q).unwrap();
    assert!(is_hit(&cached.execute(q).unwrap()));
    cached
        .execute("CREATE METADATA Q_M1 FOR Q AS (SELECT c, n FROM R2)")
        .unwrap();
    let after = cached.execute(q).unwrap();
    assert!(
        !is_hit(&after),
        "metadata on the sample side's population must invalidate"
    );
    let fresh = uncached.execute(q).unwrap();
    assert_identical(&fresh.table, &after.table, "post-CREATE METADATA join");
    assert_ne!(
        before.table.value(0, 1),
        after.table.value(0, 1),
        "the new marginal re-calibrates the combined weights"
    );
}

/// INSERT between identical queries: the cached path never serves the
/// stale pre-write count.
#[test]
fn insert_invalidates_cached_count() {
    let engine = seed_engine(1_000);
    let s = cached(&engine);
    let q = "SELECT COUNT(*) FROM t";
    let before = s.execute(q).unwrap();
    assert!(is_hit(&s.execute(q).unwrap()));
    s.execute("INSERT INTO t VALUES ('z', 1, 1.0), ('z', 2, 2.0)")
        .unwrap();
    let after = s.execute(q).unwrap();
    assert!(!is_hit(&after), "INSERT must invalidate");
    let (a, b) = (
        before.table.value(0, 0).as_f64().unwrap(),
        after.table.value(0, 0).as_f64().unwrap(),
    );
    assert_eq!(b - a, 2.0, "post-write count reflects the insert");
    let stats = engine.cache_stats();
    assert!(stats.invalidations > 0, "stale entry should be dropped");
}

/// DROP + recreate with the same name: the fingerprint matches but the
/// epoch does not — the answer comes from the new table.
#[test]
fn drop_and_recreate_never_serves_old_table() {
    let engine = Arc::new(MosaicEngine::new());
    let s = cached(&engine);
    s.execute("CREATE TABLE t (k TEXT, i INT, f FLOAT); INSERT INTO t VALUES ('a', 1, 1.0)")
        .unwrap();
    let q = "SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k";
    s.execute(q).unwrap();
    assert!(is_hit(&s.execute(q).unwrap()));
    s.execute(
        "DROP TABLE t;
         CREATE TABLE t (k TEXT, i INT, f FLOAT);
         INSERT INTO t VALUES ('x', 9, 9.0), ('y', 8, 8.0)",
    )
    .unwrap();
    let after = s.execute(q).unwrap();
    assert!(!is_hit(&after), "DROP must invalidate");
    assert_eq!(after.table.num_rows(), 2);
    assert_eq!(after.table.value(0, 0), Value::Str("x".into()));
    assert_eq!(after.table.value(1, 0), Value::Str("y".into()));
}

/// A writer inserting fixed-size batches races cached readers: every
/// served COUNT must be a whole number of batches and monotonic per
/// reader — a cached entry may be *old news* for at most the instant it
/// is validated, never stale.
#[test]
fn concurrent_writer_vs_cached_readers() {
    const BATCH: usize = 10;
    const BATCHES: usize = 40;
    const READERS: usize = 4;
    let engine = Arc::new(MosaicEngine::new());
    engine
        .session()
        .execute("CREATE TABLE t (k TEXT, i INT, f FLOAT)")
        .unwrap();
    let done = Arc::new(AtomicBool::new(false));
    // The writer's 40 batches take ~20 ms — less than a reader thread
    // needs to start on a loaded 2-core box — so the writer waits until
    // every reader has made its first observation.
    let started = Arc::new(Barrier::new(READERS + 1));
    std::thread::scope(|scope| {
        let mut readers = Vec::new();
        for _ in 0..READERS {
            let engine = Arc::clone(&engine);
            let done = Arc::clone(&done);
            let started = Arc::clone(&started);
            readers.push(scope.spawn(move || {
                let s = cached(&engine);
                let mut last = 0i64;
                let mut observations = 0usize;
                while observations == 0 || !done.load(Ordering::Relaxed) {
                    let r = s.execute("SELECT COUNT(*) FROM t").unwrap();
                    let n = match r.table.value(0, 0) {
                        Value::Int(n) => n,
                        v => panic!("COUNT returned {v:?}"),
                    };
                    assert_eq!(
                        n % BATCH as i64,
                        0,
                        "torn read: {n} is not a whole number of batches"
                    );
                    assert!(n >= last, "stale read: count went {last} -> {n}");
                    last = n;
                    observations += 1;
                    if observations == 1 {
                        started.wait();
                    }
                }
                observations
            }));
        }
        let writer = engine.session();
        started.wait();
        let row = "('w', 1, 1.0)";
        let batch_sql = format!("INSERT INTO t VALUES {}", [row; BATCH].join(", "));
        for _ in 0..BATCHES {
            writer.execute(&batch_sql).unwrap();
        }
        done.store(true, Ordering::Relaxed);
        let total: usize = readers.into_iter().map(|r| r.join().unwrap()).sum();
        assert!(total > 0, "readers should have observed something");
    });
    let r = engine.session().execute("SELECT COUNT(*) FROM t").unwrap();
    assert_eq!(r.table.value(0, 0), Value::Int((BATCH * BATCHES) as i64));
}

/// The byte-bounded LRU: capacity is respected, old entries evict, and
/// an entry larger than the whole cache is never admitted.
#[test]
fn lru_respects_byte_bound_and_refuses_oversized() {
    // 1 MB cache over a table whose full scan is bigger than that.
    let engine = Arc::new(MosaicEngine::with_options(
        EngineOptions::default().with_result_cache(1),
    ));
    let s = cached(&engine);
    let mut sql = String::from("CREATE TABLE big (a INT, b INT);\n");
    let values: Vec<String> = (0..80_000).map(|r| format!("({r}, {})", r * 2)).collect();
    for chunk in values.chunks(4096) {
        sql.push_str("INSERT INTO big VALUES ");
        sql.push_str(&chunk.join(", "));
        sql.push_str(";\n");
    }
    s.execute(&sql).unwrap();

    // Oversized: a full-scan result (~1.25 MB) exceeds the 1 MB cap.
    s.execute("SELECT a, b FROM big").unwrap();
    let again = s.execute("SELECT a, b FROM big").unwrap();
    assert!(!is_hit(&again), "oversized results must not be admitted");
    assert_eq!(engine.cache_stats().entries, 0);

    // Distinct mid-size results (~1/8 MB each) force LRU eviction.
    for m in 2..18 {
        s.execute(&format!("SELECT a FROM big WHERE a % {m} = 0"))
            .unwrap();
    }
    let stats = engine.cache_stats();
    assert!(stats.entries > 0, "mid-size results should be cached");
    assert!(
        stats.bytes <= stats.capacity_bytes,
        "cache bytes {} exceed capacity {}",
        stats.bytes,
        stats.capacity_bytes
    );
    assert!(stats.evictions > 0, "16 x ~1/8 MB into 1 MB must evict");
    // Evicted or not, every re-run still answers correctly.
    let r = s.execute("SELECT a FROM big WHERE a % 17 = 0").unwrap();
    assert_eq!(r.table.num_rows(), 80_000usize.div_ceil(17));
}

/// `(plan_hits, plan_misses)` of the engine's plan cache.
fn plan_counts(engine: &MosaicEngine) -> (u64, u64) {
    let s = engine.cache_stats();
    (s.plan_hits, s.plan_misses)
}

/// The plan cache powers the zero-parse hot path: nothing is cached
/// until the statement has gone through the full path once, the repeat
/// is served from the cache without a miss, and DDL makes the cached
/// plan stale.
#[test]
fn plan_cache_hot_path_and_ddl_staleness() {
    let engine = seed_engine(500);
    let s = engine.session();
    let sql = "SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k";
    let (hits, misses) = plan_counts(&engine);
    let full = s.execute(sql).unwrap();
    assert_eq!(
        plan_counts(&engine),
        (hits, misses + 1),
        "nothing cached before the first full execution"
    );
    let hot = s.execute(sql).unwrap();
    assert_eq!(
        plan_counts(&engine),
        (hits + 1, misses + 1),
        "the repeat is a plan hit and no miss"
    );
    assert_identical(&full.table, &hot.table, "hot path");
    s.execute("DROP TABLE t").unwrap();
    let (hits, misses) = plan_counts(&engine);
    assert!(s.execute(sql).is_err(), "t is gone");
    assert_eq!(
        plan_counts(&engine),
        (hits, misses),
        "DDL must make the cached plan stale: no hit, and a script that \
         does not bind counts no miss"
    );
    // Over a re-created `t` the statement binds afresh (a miss), then
    // hits again.
    seed_table(&s, 10);
    let (hits, misses) = plan_counts(&engine);
    s.execute(sql).unwrap();
    s.execute(sql).unwrap();
    assert_eq!(plan_counts(&engine), (hits + 1, misses + 1));
}

/// Scripts that can never hit the plan cache — DDL, INSERT, several
/// statements, EXPLAIN, text that does not parse and a SELECT that does
/// not bind — count no plan miss; a single SELECT that binds counts one.
#[test]
fn scripts_that_cannot_hit_count_no_plan_miss() {
    let engine = Arc::new(MosaicEngine::new());
    let s = engine.session();
    let before = plan_counts(&engine);
    s.execute("CREATE TABLE x (a INT)").unwrap();
    s.execute("INSERT INTO x VALUES (1), (2)").unwrap();
    s.execute("SELECT a FROM x; SELECT COUNT(*) FROM x")
        .unwrap();
    s.execute("EXPLAIN SELECT a FROM x").unwrap();
    assert!(s.execute("SELEC a FROM x").is_err());
    assert!(s.execute("SELECT nope FROM x").is_err());
    assert_eq!(plan_counts(&engine), before, "none of these could hit");
    s.execute("SELECT a FROM x").unwrap();
    assert_eq!(plan_counts(&engine), (before.0, before.1 + 1));
}

/// Run `first`, then `second`, through one cached session: `second`
/// must be no cache hit and answer exactly as an uncached execution
/// does. Each pair below once shared a fingerprint, because the plan
/// text it was hashed from renders both statements alike.
fn assert_fingerprints_apart(engine: &Arc<MosaicEngine>, first: &str, second: &str) {
    let s = cached(engine);
    s.execute(first).unwrap();
    let got = s.execute(second).unwrap();
    let fresh = engine
        .session()
        .with_result_cache(false)
        .execute(second)
        .unwrap();
    assert!(!is_hit(&got), "{second} was served {first}'s entry");
    assert_identical(&got.table, &fresh.table, second);
}

#[test]
fn in_list_items_and_negation_are_in_the_fingerprint() {
    let engine = Arc::new(MosaicEngine::new());
    engine
        .session()
        .execute("CREATE TABLE c (s TEXT); INSERT INTO c VALUES ('a'), ('b'), ('c');")
        .unwrap();
    let one = "SELECT s FROM c WHERE s IN ('a')";
    assert_fingerprints_apart(&engine, one, "SELECT s FROM c WHERE s IN ('a', 'b', 'c')");
    assert_fingerprints_apart(&engine, one, "SELECT s FROM c WHERE s NOT IN ('a')");
}

#[test]
fn between_bounds_and_negation_are_in_the_fingerprint() {
    let engine = Arc::new(MosaicEngine::new());
    engine
        .session()
        .execute("CREATE TABLE c (f FLOAT); INSERT INTO c VALUES (1.5), (2.0), (7.0);")
        .unwrap();
    let low = "SELECT COUNT(*) FROM c WHERE f BETWEEN 1 AND 5";
    assert_fingerprints_apart(
        &engine,
        low,
        "SELECT COUNT(*) FROM c WHERE f BETWEEN 6 AND 9",
    );
    assert_fingerprints_apart(
        &engine,
        low,
        "SELECT COUNT(*) FROM c WHERE f NOT BETWEEN 1 AND 5",
    );
}

#[test]
fn string_literal_and_column_are_apart_in_the_fingerprint() {
    let engine = Arc::new(MosaicEngine::new());
    engine
        .session()
        .execute("CREATE TABLE c (s TEXT, k TEXT); INSERT INTO c VALUES ('a', 'a'), ('k', 'b');")
        .unwrap();
    assert_fingerprints_apart(
        &engine,
        "SELECT k, COUNT(*) FROM c WHERE s = 'k' GROUP BY k",
        "SELECT k, COUNT(*) FROM c WHERE s = k GROUP BY k",
    );
}

#[test]
fn integral_float_and_int_literals_are_apart_in_the_fingerprint() {
    let engine = Arc::new(MosaicEngine::new());
    engine
        .session()
        .execute("CREATE TABLE c (i INT); INSERT INTO c VALUES (1), (2), (5);")
        .unwrap();
    assert_fingerprints_apart(
        &engine,
        "SELECT SUM(i * 2) FROM c",
        "SELECT SUM(i * 2.0) FROM c",
    );
}

/// Every statement of a small predicate grammar — comparisons against
/// int and float twins, string literals and columns, IN lists of one to
/// three items, BETWEEN, their NOT forms and AND / OR of two — runs once
/// through a cache that already holds every statement before it: a hit
/// on another statement's entry (a fingerprint collision) would answer
/// differently from the uncached run. Each statement runs twice, so
/// every one is also served from its own entry once.
#[test]
fn cached_answers_equal_fresh_ones_across_a_predicate_grammar() {
    let engine = seed_engine(300);
    let atoms = [
        "i = 2",
        "i = 2.0",
        "i > 1",
        "i >= 1",
        "f = 2",
        "f = 2.0",
        "f > 1.5",
        "k = 'g1'",
        "k = 'g2'",
        "k = k",
        "k IN ('g1')",
        "k IN ('g1', 'g2')",
        "k IN ('g1', 'g2', 'g3')",
        "k NOT IN ('g1')",
        "i IN (1, 2)",
        "i IN (1, 2.0)",
        "i NOT IN (1, 2)",
        "f BETWEEN 1 AND 5",
        "f BETWEEN 6 AND 9",
        "f BETWEEN 1.0 AND 5",
        "f NOT BETWEEN 1 AND 5",
        "i IS NULL",
        "i IS NOT NULL",
    ];
    let mut predicates: Vec<String> = atoms.iter().map(|a| a.to_string()).collect();
    for (a, b) in atoms.iter().zip(atoms.iter().rev()) {
        predicates.push(format!("NOT {a}"));
        predicates.push(format!("{a} AND {b}"));
        predicates.push(format!("{a} OR {b}"));
    }
    let statements: Vec<String> = predicates
        .iter()
        .flat_map(|p| {
            [
                format!("SELECT k, COUNT(*), SUM(i * 2) FROM t WHERE {p} GROUP BY k ORDER BY k"),
                format!("SELECT k, COUNT(*), SUM(i * 2.0) FROM t WHERE {p} GROUP BY k ORDER BY k"),
            ]
        })
        .collect();
    let fresh = engine.session().with_result_cache(false);
    let cached = cached(&engine);
    for round in 0..2 {
        for sql in &statements {
            let want = fresh.execute(sql).unwrap();
            let got = cached.execute(sql).unwrap();
            assert_eq!(is_hit(&got), round == 1, "{sql}: hit only on the repeat");
            assert_identical(&got.table, &want.table, sql);
        }
    }
}

/// A session that opted out, and an engine built with the cache off,
/// never produce hits.
#[test]
fn opt_outs_never_hit() {
    let engine = seed_engine(500);
    let off = engine.session().with_result_cache(false);
    for _ in 0..3 {
        assert!(!is_hit(&off.execute("SELECT COUNT(*) FROM t").unwrap()));
    }
    let disabled = Arc::new(MosaicEngine::with_options(
        EngineOptions::default().with_result_cache(0),
    ));
    seed_table(&disabled.session(), 100);
    let s = disabled.session();
    for _ in 0..3 {
        assert!(!is_hit(&s.execute("SELECT COUNT(*) FROM t").unwrap()));
    }
    assert_eq!(disabled.cache_stats().entries, 0);
}

/// EXPLAIN reports the fingerprint and the cache verdict, and the
/// verdict tracks reality: not cached → cached → off, and OPEN keyed by
/// its seed.
#[test]
fn explain_reports_fingerprint_and_verdict() {
    let engine = seed_engine(500);
    let s = cached(&engine);
    let lines = |r: &QueryResult| -> String {
        (0..r.table.num_rows())
            .map(|i| r.table.value(i, 0).to_string())
            .collect::<Vec<_>>()
            .join("\n")
    };
    let q = "SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k";
    let text = lines(&s.execute(&format!("EXPLAIN {q}")).unwrap());
    assert!(text.contains("fingerprint: "), "{text}");
    assert!(
        text.contains("result cache: eligible, not cached"),
        "{text}"
    );
    s.execute(q).unwrap();
    let text = lines(&s.execute(&format!("EXPLAIN {q}")).unwrap());
    assert!(text.contains("result cache: eligible, cached"), "{text}");
    // The fingerprint is stable across EXPLAIN runs.
    let fp = text
        .lines()
        .find(|l| l.trim_start().starts_with("fingerprint: "))
        .unwrap()
        .trim()
        .to_string();
    let text2 = lines(&s.execute(&format!("EXPLAIN {q}")).unwrap());
    assert!(text2.contains(&fp), "{text2}");

    let off = engine.session().with_result_cache(false);
    let text = lines(&off.execute(&format!("EXPLAIN {q}")).unwrap());
    assert!(text.contains("result cache: off"), "{text}");

    // OPEN caches like every visibility: a session that sets no seed
    // draws with seed 0, so its statement is the `seed 0` statement.
    // (A Bayesian-network backend keeps the fit quick in debug builds.)
    let open = OpenOptions::default().with_backend(OpenBackend::BayesNet(BnConfig::default()));
    let engine = Arc::new(MosaicEngine::with_options(
        EngineOptions::default().with_open(open),
    ));
    let s = cached(&engine);
    s.execute(
        "CREATE TABLE PopK (k TEXT, n INT);
         INSERT INTO PopK VALUES ('a', 60), ('b', 40);
         CREATE GLOBAL POPULATION Pop (k TEXT);
         CREATE METADATA PopM FOR Pop AS (SELECT k, n FROM PopK);
         CREATE SAMPLE PS AS (SELECT * FROM Pop);
         INSERT INTO PS VALUES ('a'), ('b')",
    )
    .unwrap();
    let open_q = "SELECT OPEN k, COUNT(*) FROM Pop GROUP BY k";
    let fingerprint = |session: &Session| {
        let text = lines(&session.execute(&format!("EXPLAIN {open_q}")).unwrap());
        assert!(!text.contains("ineligible"), "{text}");
        let line = text
            .lines()
            .find(|l| l.trim_start().starts_with("fingerprint: "));
        line.expect("an OPEN statement has a fingerprint")
            .trim()
            .to_string()
    };
    let unseeded = fingerprint(&s);
    assert_eq!(unseeded, fingerprint(&cached(&engine).with_seed(0)));
    assert_ne!(unseeded, fingerprint(&cached(&engine).with_seed(7)));
    assert!(!is_hit(&s.execute(open_q).unwrap()));
    assert!(
        is_hit(&s.execute(open_q).unwrap()),
        "a repeated unseeded OPEN statement is a result-cache hit"
    );
}

// ---------------------------------------------------------------------
// Wire protocol: SetOption result_cache + CacheStats frames.
// ---------------------------------------------------------------------

fn start(engine: Arc<MosaicEngine>) -> ServerHandle {
    let server = Server::bind(engine, "127.0.0.1:0", ServeConfig::default()).unwrap();
    let (handle, _join) = server.spawn();
    handle
}

fn stat(table: &Table, name: &str) -> i64 {
    for r in 0..table.num_rows() {
        if table.value(r, 0) == Value::Str(name.into()) {
            if let Value::Int(v) = table.value(r, 1) {
                return v;
            }
        }
    }
    panic!("stat {name} missing from CacheStats result");
}

/// Per-connection gate + engine-wide stats and clear, over the wire —
/// with every response still bit-identical to in-process execution.
#[test]
fn serve_set_option_and_cache_stats() {
    let engine = seed_engine(2_000);
    let expected = engine
        .session()
        .with_result_cache(false)
        .execute(TEMPLATES[1])
        .unwrap();
    let handle = start(Arc::clone(&engine));
    let mut client = Client::connect(handle.addr()).unwrap();

    client.set_option("result_cache", "off").unwrap();
    for _ in 0..2 {
        let r = client.query(TEMPLATES[1]).unwrap();
        assert!(
            !r.notes.iter().any(|n| n.starts_with("result cache hit")),
            "opted-out connection must never hit"
        );
        assert_identical(&expected.table, &r.table, "wire, cache off");
    }

    client.set_option("result_cache", "on").unwrap();
    client.query(TEMPLATES[1]).unwrap();
    let r = client.query(TEMPLATES[1]).unwrap();
    assert!(
        r.notes.iter().any(|n| n.starts_with("result cache hit")),
        "second cached run over the wire should hit; notes: {:?}",
        r.notes
    );
    assert_identical(&expected.table, &r.table, "wire, cache hit");

    let stats = client.cache_stats().unwrap();
    assert!(stat(&stats.table, "hits") >= 1);
    assert!(stat(&stats.table, "entries") >= 1);
    assert!(stat(&stats.table, "capacity_bytes") > 0);

    client.set_option("result_cache", "clear").unwrap();
    let stats = client.cache_stats().unwrap();
    assert_eq!(stat(&stats.table, "entries"), 0);
    // Counters survive the clear; the entries are gone.
    assert!(stat(&stats.table, "hits") >= 1);
    client.close().unwrap();
    handle.shutdown();
}
