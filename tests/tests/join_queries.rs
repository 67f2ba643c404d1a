//! Engine-level join integration tests: the acceptance query
//! (sample × dimension with carried weights), combined weights for
//! weighted×weighted joins, bind-time diagnostics (ambiguity, unknown
//! relations listing the catalog), prepared join statements with `?`
//! parameters on both sides, and the EXPLAIN rendering of a join plan.

use std::sync::Arc;

use mosaic_core::{MosaicEngine, MosaicError, Value};
use mosaic_sql::{parse, parse_expr, SelectStmt, Statement};
use mosaic_storage::{DataType, Field, Schema, Table, TableBuilder, Value as V};
use mosaic_tests::oracle::{reference_join, run_select_rowwise};

fn select(src: &str) -> SelectStmt {
    match parse(src).unwrap().pop().unwrap() {
        Statement::Select(s) => s,
        other => panic!("not a select: {other:?}"),
    }
}

fn tables_identical(a: &Table, b: &Table) {
    assert_eq!(a.num_rows(), b.num_rows(), "row count");
    assert_eq!(a.num_columns(), b.num_columns(), "column count");
    for r in 0..a.num_rows() {
        for c in 0..a.num_columns() {
            assert_eq!(a.value(r, c), b.value(r, c), "cell ({r},{c})");
        }
    }
}

/// Flights fact rows (carrier, distance) and a carriers dimension
/// (code, name) — the ISSUE's acceptance shape.
fn flights_engine() -> Arc<MosaicEngine> {
    let engine = Arc::new(MosaicEngine::new());
    let session = engine.session();
    session
        .execute(
            "CREATE TABLE flights (carrier TEXT, distance INT, elapsed INT);
             INSERT INTO flights VALUES
               ('AA', 100, 60), ('AA', 500, 120), ('WN', 900, 180),
               ('WN', 1500, 240), ('US', 300, 90), ('ZZ', 50, 10);
             CREATE TABLE carriers (code TEXT, name TEXT);
             INSERT INTO carriers VALUES
               ('AA', 'American'), ('WN', 'Southwest'), ('US', 'USAir'), ('DL', 'Delta');",
        )
        .unwrap();
    engine
}

/// The acceptance-criteria query: parses, binds, optimizes (pushdown +
/// pruning fire and show in EXPLAIN), and returns bit-identical results
/// across row-wise reference × vectorized × threads {1,2,8} × optimizer
/// {off,on}.
#[test]
fn acceptance_query_end_to_end() {
    let engine = flights_engine();
    let sql = "SELECT c.name AS name, SUM(f.distance) AS s FROM flights f \
               JOIN carriers c ON f.carrier = c.code \
               WHERE f.elapsed > 30 AND c.name != 'Delta' \
               GROUP BY c.name ORDER BY name";
    // Row-wise reference: nested-loop join, then the row-at-a-time
    // executor over the joined table.
    let cat = engine.catalog();
    let flights = cat.aux("flights").unwrap().clone();
    let carriers = cat.aux("carriers").unwrap().clone();
    drop(cat);
    let keys = vec![(parse_expr("carrier").unwrap(), parse_expr("code").unwrap())];
    let joined = reference_join(&flights, "f", &carriers, "c", &keys).unwrap();
    let reference = run_select_rowwise(
        &select(
            "SELECT name, SUM(distance) AS s FROM j WHERE elapsed > 30 AND name != 'Delta' \
             GROUP BY name ORDER BY name",
        ),
        &joined,
        None,
    )
    .unwrap();
    assert_eq!(reference.num_rows(), 3);
    for threads in [1usize, 2, 8] {
        for optimizer in [false, true] {
            let out = engine
                .session()
                .with_parallelism(threads)
                .with_optimizer(optimizer)
                .query(sql)
                .unwrap();
            tables_identical(&out, &reference);
        }
    }
    // EXPLAIN shows the join tree and the fired rules.
    let plan = engine
        .session()
        .with_optimizer(true)
        .query(&format!("EXPLAIN {sql}"))
        .unwrap();
    let text: Vec<String> = (0..plan.num_rows())
        .map(|r| plan.value(r, 0).to_string())
        .collect();
    let text = text.join("\n");
    assert!(text.contains("INNER hash equi-join"), "{text}");
    assert!(text.contains("Join[carrier = code]"), "{text}");
    assert!(text.contains("predicate_pushdown"), "{text}");
    assert!(text.contains("projection_pruning"), "{text}");
    assert!(text.contains("HashJoin"), "{text}");
    // The unused flights column `elapsed`… is referenced; but carriers
    // pruning keeps only code + name, and the elapsed filter pushed into
    // the left scan.
    assert!(text.contains("pushed Filter"), "{text}");
}

/// Weighted aggregates over a joined sample use the carried sample
/// weights: the engine-managed `weight` column flows through the join
/// (and pruning must not drop it).
#[test]
fn joined_sample_carries_weights() {
    let engine = Arc::new(MosaicEngine::new());
    let session = engine.session();
    session
        .execute(
            "CREATE GLOBAL POPULATION Pop (carrier TEXT, distance INT);
             CREATE SAMPLE S AS (SELECT * FROM Pop);
             INSERT INTO S VALUES ('AA', 100), ('WN', 900), ('AA', 500), ('US', 300);
             CREATE TABLE carriers (code TEXT, name TEXT);
             INSERT INTO carriers VALUES ('AA', 'American'), ('WN', 'Southwest');",
        )
        .unwrap();
    engine
        .set_sample_weights("S", vec![10.0, 2.0, 10.0, 7.0])
        .unwrap();
    for optimizer in [false, true] {
        let out = engine
            .session()
            .with_optimizer(optimizer)
            .query(
                "SELECT c.name AS name, SUM(s.weight * s.distance) AS wsum, SUM(s.weight) AS w \
                 FROM S s JOIN carriers c ON s.carrier = c.code GROUP BY c.name ORDER BY name",
            )
            .unwrap();
        assert_eq!(out.num_rows(), 2);
        // American: 10*100 + 10*500 = 6000, weight 20; Southwest: 2*900.
        assert_eq!(out.value(0, 0), V::Str("American".into()));
        assert_eq!(out.value(0, 1), V::Float(6000.0));
        assert_eq!(out.value(0, 2), V::Float(20.0));
        assert_eq!(out.value(1, 1), V::Float(1800.0));
    }
}

/// Joining two samples (two weighted inputs) is a clean bind-time error.
#[test]
fn two_weighted_relations_combine_weights() {
    let engine = Arc::new(MosaicEngine::new());
    engine
        .session()
        .execute(
            "CREATE GLOBAL POPULATION Pop (a TEXT);
             CREATE SAMPLE S1 AS (SELECT * FROM Pop);
             CREATE SAMPLE S2 AS (SELECT * FROM Pop);
             INSERT INTO S1 VALUES ('x'), ('y');
             INSERT INTO S2 VALUES ('x'), ('x');",
        )
        .unwrap();
    let s = engine.session();
    // The join emits exactly one `weight` output — the product of the
    // per-side weights (fresh samples carry weight 1.0 per row).
    let out = s
        .query("SELECT a.a, weight FROM S1 a JOIN S2 b ON a.a = b.a")
        .unwrap();
    assert_eq!(out.num_rows(), 2, "'x' matches both S2 rows");
    let names: Vec<&str> = out
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    assert_eq!(names, vec!["a.a", "weight"]);
    for r in 0..out.num_rows() {
        assert_eq!(out.value(r, 1), V::Float(1.0), "product of unit weights");
    }
    // The wildcard exposes one combined weight, not one per side.
    let out = s
        .query("SELECT * FROM S1 a JOIN S2 b ON a.a = b.a")
        .unwrap();
    let weight_cols = out
        .schema()
        .fields()
        .iter()
        .filter(|f| f.name.to_ascii_lowercase().contains("weight"))
        .count();
    assert_eq!(weight_cols, 1, "one combined weight column");
}

/// Ambiguous bare columns, unknown qualifiers, and non-equi ON shapes
/// are rejected with targeted errors.
#[test]
fn join_bind_diagnostics() {
    let engine = Arc::new(MosaicEngine::new());
    engine
        .session()
        .execute(
            "CREATE TABLE a (k INT, v INT);
             CREATE TABLE b (k INT, w INT);
             INSERT INTO a VALUES (1, 10);
             INSERT INTO b VALUES (1, 20);",
        )
        .unwrap();
    let s = engine.session();
    // Bare `k` exists on both sides.
    let err = s.query("SELECT k FROM a JOIN b ON a.k = b.k").unwrap_err();
    assert!(err.to_string().contains("ambiguous column k"), "{err}");
    // Qualified duplicates work.
    let ok = s
        .query("SELECT a.k, b.k, v, w FROM a JOIN b ON a.k = b.k")
        .unwrap();
    assert_eq!(ok.num_rows(), 1);
    assert_eq!(ok.schema().field(0).name, "a.k");
    // Unknown qualifier.
    let err = s
        .query("SELECT x.k FROM a JOIN b ON a.k = b.k")
        .unwrap_err();
    assert!(
        err.to_string().contains("unknown relation qualifier x"),
        "{err}"
    );
    // Non-equi ON.
    let err = s.query("SELECT v FROM a JOIN b ON a.k > b.k").unwrap_err();
    assert!(err.to_string().contains("equi-join"), "{err}");
    // Both sides of one equality from the same relation.
    let err = s.query("SELECT v FROM a JOIN b ON a.k = a.v").unwrap_err();
    assert!(err.to_string().contains("exactly one"), "{err}");
    // A population side without a usable sample errors naming the
    // population (the join itself is legal — resolution isn't).
    engine
        .session()
        .execute("CREATE GLOBAL POPULATION P (k INT)")
        .unwrap();
    let err = s.query("SELECT v FROM a JOIN P ON a.k = P.k").unwrap_err();
    assert!(
        err.to_string()
            .contains("no non-empty sample available for population P"),
        "{err}"
    );
    // A visibility clause over a population-free scope names the
    // relations that made it illegal.
    let err = s
        .query("SELECT SEMI-OPEN v FROM a JOIN b ON a.k = b.k")
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("apply to population queries only"), "{msg}");
    assert!(msg.contains("a, b"), "{msg}");
    // OPEN×OPEN two-population joins are rejected with both names and
    // the workaround.
    engine
        .session()
        .execute(
            "CREATE POPULATION Q AS (SELECT * FROM P WHERE k > 0);
             CREATE SAMPLE PS AS (SELECT * FROM P);
             CREATE SAMPLE QS AS (SELECT * FROM Q);
             INSERT INTO PS VALUES (1);
             INSERT INTO QS VALUES (1);",
        )
        .unwrap();
    let err = s
        .query("SELECT OPEN COUNT(*) FROM P JOIN Q ON P.k = Q.k")
        .unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("OPEN join of populations P and Q"), "{msg}");
    assert!(msg.contains("one population side"), "{msg}");
    // A population in a multi-relation FROM without a JOIN is rejected
    // with the population's name.
    let err = s.query("SELECT p.k FROM P p").unwrap_err();
    assert!(err.to_string().contains("population P can appear"), "{err}");
}

/// The unknown-relation error lists what the catalog does have.
#[test]
fn unknown_table_error_lists_available_relations() {
    let engine = Arc::new(MosaicEngine::new());
    let s = engine.session();
    let err = s.query("SELECT x FROM missing").unwrap_err();
    assert!(err.to_string().contains("no relations yet"), "{err}");
    s.execute("CREATE TABLE t1 (x INT); CREATE TABLE t2 (y INT);")
        .unwrap();
    let err = s.query("SELECT x FROM missing").unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("unknown relation missing"), "{msg}");
    assert!(msg.contains("t1") && msg.contains("t2"), "{msg}");
    // The prepare path gives the same hint as a bind error.
    let err = s.prepare("SELECT x FROM missing").unwrap_err();
    assert!(matches!(err, MosaicError::Bind(_)), "{err}");
    assert!(err.to_string().contains("t1"), "{err}");
    // And so does a join referencing an unknown dimension.
    let err = s
        .query("SELECT t1.x FROM t1 JOIN nope ON t1.x = nope.z")
        .unwrap_err();
    assert!(err.to_string().contains("available relations"), "{err}");
}

/// Prepared join statements cache the optimized plan; `?` parameters
/// bind on both sides at execution time.
#[test]
fn prepared_join_with_params_on_both_sides() {
    let engine = flights_engine();
    let s = engine.session().with_optimizer(true);
    let p = s
        .prepare(
            "SELECT c.name AS name, COUNT(*) AS n FROM flights f \
             JOIN carriers c ON f.carrier = c.code \
             WHERE f.distance > ? AND c.name != ? GROUP BY c.name ORDER BY name",
        )
        .unwrap();
    assert_eq!(p.param_count(), 2);
    // The optimized logical plan was cached at prepare time.
    assert!(p.fired_rules().contains(&"projection_pruning"), "{p:?}");
    let logical = p.logical_plan().to_string();
    assert!(logical.contains("Join[carrier = code]"), "{logical}");
    for (thr, skip, expect_rows) in [(0i64, "Delta", 3), (400, "none", 2), (99999, "none", 0)] {
        let out = s
            .query_prepared(&p, &[Value::Int(thr), Value::Str(skip.into())])
            .unwrap();
        assert_eq!(out.num_rows(), expect_rows, "thr {thr}");
        // Bit-identical to the unprepared statement with inlined values.
        let direct = s
            .query(&format!(
                "SELECT c.name AS name, COUNT(*) AS n FROM flights f \
                 JOIN carriers c ON f.carrier = c.code \
                 WHERE f.distance > {thr} AND c.name != '{skip}' \
                 GROUP BY c.name ORDER BY name"
            ))
            .unwrap();
        tables_identical(&out, &direct);
    }
    // Dropping either relation makes the prepared statement stale.
    s.execute("DROP TABLE carriers").unwrap();
    let err = s
        .execute_prepared(&p, &[Value::Int(0), Value::Str("x".into())])
        .unwrap_err();
    assert!(matches!(err, MosaicError::Bind(_)), "{err}");
}

/// A lone aliased relation routes through the scope binder: qualified
/// references resolve and results match the bare-name spelling.
#[test]
fn single_relation_alias_and_qualified_refs() {
    let engine = flights_engine();
    let s = engine.session();
    let a = s
        .query(
            "SELECT f.carrier AS carrier, f.distance AS distance FROM flights f \
                WHERE f.distance > 400 ORDER BY f.distance",
        )
        .unwrap();
    let b = s
        .query("SELECT carrier, distance FROM flights WHERE distance > 400 ORDER BY distance")
        .unwrap();
    tables_identical(&a, &b);
    // Qualifying by the table name works without an alias, too.
    let c = s
        .query(
            "SELECT flights.carrier AS carrier, flights.distance AS distance \
                FROM flights WHERE flights.distance > 400 ORDER BY flights.distance",
        )
        .unwrap();
    tables_identical(&b, &c);
}

/// Pushdown must never change error behavior: a safe single-sided
/// conjunct does NOT move below the join when an unsafe conjunct stays
/// residual, because pushing it would shrink the rows the unsafe
/// conjunct evaluates over (here: a NaN comparison errs in both
/// optimizer modes — or in neither).
#[test]
fn pushdown_preserves_error_identity_with_unsafe_residual() {
    let mut fb = TableBuilder::new(Schema::new(vec![
        Field::new("k", DataType::Str),
        Field::new("i", DataType::Int),
        Field::new("fval", DataType::Float),
    ]));
    fb.push_row(vec!["a".into(), V::Int(1), V::Float(f64::NAN)])
        .unwrap();
    let fact = fb.finish();
    let mut db = TableBuilder::new(Schema::new(vec![Field::new("code", DataType::Str)]));
    db.push_row(vec!["a".into()]).unwrap();
    let dim = db.finish();
    let engine = Arc::new(MosaicEngine::new());
    engine.register_table("fact", fact).unwrap();
    engine.register_table("dim", dim).unwrap();
    // `f.i > 3` is pushable on its own, but the residual `f.fval > 0.5`
    // can error (NaN): pushing would filter the NaN row out before the
    // residual runs and turn the error into an empty result.
    let sql = "SELECT COUNT(*) FROM fact f JOIN dim c ON f.k = c.code \
               WHERE f.fval > 0.5 AND f.i > 3";
    let off = engine.session().with_optimizer(false).query(sql);
    let on = engine.session().with_optimizer(true).query(sql);
    match (off, on) {
        (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
        other => panic!("optimizer changed the outcome: {other:?}"),
    }
}

/// ORDER BY may reference a SELECT item's alias over a join, exactly
/// like the single-relation path (sort keys resolve against the
/// projection output first).
#[test]
fn order_by_alias_over_join() {
    let engine = flights_engine();
    for optimizer in [false, true] {
        let out = engine
            .session()
            .with_optimizer(optimizer)
            .query(
                "SELECT f.carrier AS carrier, f.distance AS d FROM flights f \
                 JOIN carriers c ON f.carrier = c.code WHERE f.distance > 100 \
                 ORDER BY d DESC LIMIT 2",
            )
            .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, 1), V::Int(1500));
        assert_eq!(out.value(1, 1), V::Int(900));
        // Aggregate alias in ORDER BY, too.
        let out = engine
            .session()
            .with_optimizer(optimizer)
            .query(
                "SELECT c.name AS name, COUNT(*) AS n FROM flights f \
                 JOIN carriers c ON f.carrier = c.code GROUP BY c.name \
                 ORDER BY n DESC, name",
            )
            .unwrap();
        assert_eq!(out.value(0, 0), V::Str("American".into()));
        assert_eq!(out.value(0, 1), V::Int(2));
    }
}

/// Regression: ORDER BY a qualified grouped column of a single aliased
/// relation. The unaliased item `t.k` names its output column `t.k`, and
/// the sort key must resolve to that column, not to the bare `k` the
/// aggregate output lacks (it failed with `column not found: k`).
#[test]
fn order_by_qualified_grouped_column_single_relation() {
    let engine = Arc::new(MosaicEngine::new());
    engine
        .session()
        .execute(
            "CREATE TABLE t (k TEXT, v INT); INSERT INTO t VALUES ('b', 1), ('a', 2), ('b', 3);",
        )
        .unwrap();
    for optimizer in [false, true] {
        let out = engine
            .session()
            .with_optimizer(optimizer)
            .query("SELECT t.k, COUNT(*) FROM t GROUP BY t.k ORDER BY t.k")
            .unwrap();
        assert_eq!(out.schema().field(0).name, "t.k");
        let rows: Vec<(V, V)> = (0..out.num_rows())
            .map(|r| (out.value(r, 0), out.value(r, 1)))
            .collect();
        assert_eq!(
            rows,
            vec![("a".into(), V::Int(1)), ("b".into(), V::Int(2))],
            "optimizer={optimizer}"
        );
    }
}

/// Regression: ORDER BY a qualified grouped column through a join
/// (`d.grp`, unique in scope, so the join names it `grp` while the item
/// names its output `d.grp`); it failed with `column not found: grp`.
#[test]
fn order_by_qualified_grouped_column_through_join() {
    let engine = Arc::new(MosaicEngine::new());
    engine
        .session()
        .execute(
            "CREATE TABLE t (k TEXT, v INT);
             INSERT INTO t VALUES ('x', 1), ('y', 2), ('z', 3), ('x', 4);
             CREATE TABLE d (k TEXT, grp TEXT);
             INSERT INTO d VALUES ('x', 'g2'), ('y', 'g1'), ('z', 'g2');",
        )
        .unwrap();
    for optimizer in [false, true] {
        let out = engine
            .session()
            .with_optimizer(optimizer)
            .query(
                "SELECT d.grp, COUNT(*) FROM t JOIN d ON t.k = d.k \
                 GROUP BY d.grp ORDER BY d.grp",
            )
            .unwrap();
        assert_eq!(out.schema().field(0).name, "d.grp");
        let rows: Vec<(V, V)> = (0..out.num_rows())
            .map(|r| (out.value(r, 0), out.value(r, 1)))
            .collect();
        assert_eq!(
            rows,
            vec![("g1".into(), V::Int(1)), ("g2".into(), V::Int(3))],
            "optimizer={optimizer}"
        );
    }
}

/// `SELECT *` over a join yields both sides' columns in scope order
/// with duplicate names qualified.
#[test]
fn wildcard_join_output_naming() {
    let engine = Arc::new(MosaicEngine::new());
    engine
        .session()
        .execute(
            "CREATE TABLE l (k INT, v INT);
             CREATE TABLE r (k INT, w INT);
             INSERT INTO l VALUES (1, 10), (2, 20);
             INSERT INTO r VALUES (1, 100), (1, 200);",
        )
        .unwrap();
    let out = engine
        .session()
        .query("SELECT * FROM l JOIN r ON l.k = r.k")
        .unwrap();
    let names: Vec<&str> = out
        .schema()
        .fields()
        .iter()
        .map(|f| f.name.as_str())
        .collect();
    assert_eq!(names, vec!["l.k", "v", "r.k", "w"]);
    // Canonical (left, right) order: l row 0 matches r rows 0 and 1.
    assert_eq!(out.num_rows(), 2);
    assert_eq!(out.value(0, 3), V::Int(100));
    assert_eq!(out.value(1, 3), V::Int(200));
}

/// The weight column of a joined sample survives projection pruning
/// even when the rest of the sample's columns are pruned away.
#[test]
fn pruning_keeps_joined_sample_weight() {
    let engine = Arc::new(MosaicEngine::new());
    engine
        .session()
        .execute(
            "CREATE GLOBAL POPULATION Pop (carrier TEXT, distance INT, extra1 INT, extra2 INT);
             CREATE SAMPLE S AS (SELECT * FROM Pop);
             INSERT INTO S VALUES ('AA', 100, 1, 2), ('WN', 900, 3, 4);
             CREATE TABLE carriers (code TEXT, name TEXT);
             INSERT INTO carriers VALUES ('AA', 'American'), ('WN', 'Southwest');",
        )
        .unwrap();
    engine.set_sample_weights("S", vec![3.0, 5.0]).unwrap();
    let s = engine.session().with_optimizer(true);
    let p = s
        .prepare(
            "SELECT c.name AS name, SUM(s.weight) AS w FROM S s \
             JOIN carriers c ON s.carrier = c.code GROUP BY c.name ORDER BY name",
        )
        .unwrap();
    assert!(p.fired_rules().contains(&"projection_pruning"), "{p:?}");
    let out = s.query_prepared(&p, &[]).unwrap();
    assert_eq!(out.value(0, 1), V::Float(3.0));
    assert_eq!(out.value(1, 1), V::Float(5.0));
}

/// Cross-checking the hash join against a brute-force reference over a
/// build of Int keys crossing the f64 coercion edge and a float probe.
#[test]
fn mixed_type_keys_join_like_sql_cmp() {
    let mut lb = TableBuilder::new(Schema::new(vec![Field::new("k", DataType::Int)]));
    for v in [1i64, 2, 3, (1i64 << 53) + 1] {
        lb.push_row(vec![V::Int(v)]).unwrap();
    }
    let left = lb.finish();
    let mut rb = TableBuilder::new(Schema::new(vec![
        Field::new("code", DataType::Float),
        Field::new("tag", DataType::Str),
    ]));
    for (v, t) in [(2.0f64, "two"), ((1u64 << 53) as f64, "big"), (9.0, "none")] {
        rb.push_row(vec![V::Float(v), V::Str(t.into())]).unwrap();
    }
    let right = rb.finish();
    let engine = Arc::new(MosaicEngine::new());
    engine.register_table("l", left.clone()).unwrap();
    engine.register_table("r", right.clone()).unwrap();
    let keys = vec![(parse_expr("k").unwrap(), parse_expr("code").unwrap())];
    let reference = reference_join(&left, "l", &right, "r", &keys).unwrap();
    for optimizer in [false, true] {
        let out = engine
            .session()
            .with_optimizer(optimizer)
            .query("SELECT * FROM l JOIN r ON l.k = r.code")
            .unwrap();
        tables_identical(&out, &reference);
    }
    // 2 matches 2.0; 2^53+1 collapses onto 2^53 under f64 coercion —
    // exactly what sql_cmp (and therefore the reference) does.
    assert_eq!(reference.num_rows(), 2);
}
