//! Property-based equivalence, four ways: the vectorized physical-plan
//! executor — serial (`parallelism = 1`) *and* parallel (thread counts
//! {2, 8}), with the logical optimizer **off and on** — must produce
//! results identical to the retained row-at-a-time reference
//! (`mosaic_tests::oracle::run_select_rowwise`): same schema, same
//! values bit-for-bit, and
//! the same errors — across generated tables (with NULLs), expressions,
//! and weight vectors. This is the safety net under every later
//! executor optimization; it pins the morsel driver's invariant that
//! the thread count never changes results *and* the optimizer's
//! invariant that plan rewriting (projection pruning, constant folding,
//! Sort+Limit → TopK fusion) never changes results either.

use mosaic_core::{plan_select, ExecContext, Knobs, PlanInput};
use mosaic_sql::{parse, SelectStmt, Statement};
use mosaic_storage::{DataType, Field, Schema, Table, TableBuilder, Value};
use mosaic_tests::oracle::{reference_join, reference_join_kinded, run_select_rowwise};
use proptest::prelude::*;

type Row = (Option<u8>, Option<i64>, Option<f64>, Option<u8>);

/// Mixed-type table with NULLs in every column: `k` (string from a small
/// alphabet), `i` (int), `f` (float), `bo` (bool: TRUE for an odd draw).
fn build_table(rows: &[Row]) -> Table {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Str),
        Field::new("i", DataType::Int),
        Field::new("f", DataType::Float),
        Field::new("bo", DataType::Bool),
    ]);
    let mut b = TableBuilder::new(schema);
    for (k, i, f, bo) in rows {
        b.push_row(vec![
            k.map_or(Value::Null, |k| Value::Str(format!("v{}", k % 3))),
            i.map_or(Value::Null, Value::Int),
            f.map_or(Value::Null, Value::Float),
            bo.map_or(Value::Null, |bo| Value::Bool(bo % 2 == 1)),
        ])
        .unwrap();
    }
    b.finish()
}

fn select(src: &str) -> mosaic_sql::SelectStmt {
    match parse(src).unwrap().pop().unwrap() {
        Statement::Select(s) => s,
        other => panic!("not a select: {other:?}"),
    }
}

/// Exact table equality: schema (names and types) plus `Value` equality
/// per cell (floats compare by bit pattern via `Value::PartialEq`).
fn tables_identical(a: &Table, b: &Table) -> std::result::Result<(), String> {
    if a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns() {
        return Err(format!(
            "shape {}x{} vs {}x{}",
            a.num_rows(),
            a.num_columns(),
            b.num_rows(),
            b.num_columns()
        ));
    }
    for c in 0..a.num_columns() {
        let (fa, fb) = (a.schema().field(c), b.schema().field(c));
        if fa.name != fb.name || fa.data_type != fb.data_type {
            return Err(format!(
                "field {c}: {} {} vs {} {}",
                fa.name, fa.data_type, fb.name, fb.data_type
            ));
        }
    }
    for r in 0..a.num_rows() {
        for c in 0..a.num_columns() {
            if a.value(r, c) != b.value(r, c) {
                return Err(format!(
                    "cell ({r},{c}): {:?} vs {:?}",
                    a.value(r, c),
                    b.value(r, c)
                ));
            }
        }
    }
    Ok(())
}

/// The vectorized executor at one threads × optimizer × partitions cell.
fn run_cell(
    stmt: &SelectStmt,
    table: &Table,
    weights: Option<&[f64]>,
    threads: usize,
    optimizer: bool,
    partitions: usize,
) -> mosaic_core::Result<Table> {
    plan_select(stmt, weights.is_some(), optimizer, Some(table.schema()))
        .physical
        .run(
            PlanInput::Table { table, weights },
            &ExecContext::new(&[], threads, partitions),
        )
}

/// [`run_cell`] at the process-default merge-partition count
/// (`MOSAIC_AGG_PARTITIONS` or 16 — CI runs the suite at both 1 and 16).
fn run_default_partitions(
    stmt: &SelectStmt,
    table: &Table,
    weights: Option<&[f64]>,
    threads: usize,
    optimizer: bool,
) -> mosaic_core::Result<Table> {
    let partitions = Knobs::from_env().partitions;
    run_cell(stmt, table, weights, threads, optimizer, partitions)
}

/// Thread counts every query is checked at: serial, a partial pool, and
/// an oversubscribed pool.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

/// Run a query through the row-wise reference and the vectorized
/// executor — optimizer off and on — at every thread count, and demand
/// identical outcomes everywhere.
fn assert_equivalent(src: &str, table: &Table, weights: Option<&[f64]>) {
    let stmt = select(src);
    let rowwise = run_select_rowwise(&stmt, table, weights);
    for threads in THREAD_COUNTS {
        for optimizer in [false, true] {
            let vectorized = run_default_partitions(&stmt, table, weights, threads, optimizer);
            match (vectorized, &rowwise) {
                (Ok(v), Ok(r)) => {
                    if let Err(msg) = tables_identical(&v, r) {
                        panic!(
                            "divergence on {src:?} at {threads} thread(s), optimizer={optimizer}: {msg}\nvectorized:\n{v}\nrowwise:\n{r}"
                        );
                    }
                }
                (Err(v), Err(r)) => {
                    assert_eq!(
                        v.to_string(),
                        r.to_string(),
                        "error mismatch on {src:?} at {threads} thread(s), optimizer={optimizer}"
                    );
                }
                (v, r) => panic!(
                    "one path failed on {src:?} at {threads} thread(s), optimizer={optimizer}: vectorized {:?}, rowwise {:?}",
                    v.map(|t| t.num_rows()),
                    r.as_ref().map(|t| t.num_rows())
                ),
            }
        }
    }
}

/// Query templates exercised against every generated table. `{thr}` is
/// substituted with a generated threshold.
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
    "SELECT k, SUM(i) + AVG(f) AS m FROM t WHERE i > {thr} GROUP BY k ORDER BY k",
    // Sorting an aggregate result by a non-projected source column must
    // error identically in both executors (no silent input fallback).
    "SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY i",
    // BOOL compared with BOOL.
    "SELECT i, bo FROM t WHERE bo = true",
    "SELECT k FROM t WHERE bo <> false ORDER BY i DESC LIMIT 5",
    "SELECT bo = true, bo <> false, bo = (i > {thr}) FROM t",
    "SELECT bo, COUNT(*), SUM(i) FROM t WHERE bo <> (f > 0.0) GROUP BY bo ORDER BY bo",
];

/// Multi-morsel bit-identity: on a table spanning several morsels, every
/// template (weighted and unweighted) must produce the exact same table
/// at thread counts {1, 2, 8} — the morsel driver's core invariant,
/// beyond the reach of the small proptest tables.
#[test]
fn multi_morsel_thread_counts_agree() {
    let rows = 2 * mosaic_core::MORSEL_ROWS + 777;
    let table = build_table(
        &(0..rows)
            .map(|r| {
                (
                    (r % 5 != 0).then_some((r % 3) as u8),
                    (r % 11 != 0).then_some((r % 83) as i64 - 40),
                    (r % 13 != 0).then_some((r % 59) as f64 * 0.75 - 22.0),
                    (r % 7 != 0).then_some((r % 2) as u8),
                )
            })
            .collect::<Vec<Row>>(),
    );
    let weights: Vec<f64> = (0..rows).map(|r| 0.1 + (r % 17) as f64 * 0.4).collect();
    for template in QUERIES {
        let src = template.replace("{thr}", "7");
        let stmt = select(&src);
        for weights in [None, Some(weights.as_slice())] {
            // Baseline: serial, unoptimized. Every (thread count,
            // optimizer) combination must reproduce it exactly.
            let baseline = run_default_partitions(&stmt, &table, weights, 1, false);
            for threads in [1, 2, 8] {
                for optimizer in [false, true] {
                    if threads == 1 && !optimizer {
                        continue; // that is the baseline itself
                    }
                    let out = run_default_partitions(&stmt, &table, weights, threads, optimizer);
                    match (&baseline, &out) {
                        (Ok(b), Ok(o)) => {
                            if let Err(msg) = tables_identical(b, o) {
                                panic!(
                                    "divergence on {src:?} at {threads} threads, optimizer={optimizer}: {msg}"
                                );
                            }
                        }
                        (Err(b), Err(o)) => {
                            assert_eq!(
                                b.to_string(),
                                o.to_string(),
                                "error mismatch on {src:?}, optimizer={optimizer}"
                            )
                        }
                        _ => panic!(
                            "ok/err divergence on {src:?} at {threads} threads, optimizer={optimizer}"
                        ),
                    }
                }
            }
        }
    }
}

/// High-cardinality string GROUP BY: thousands of distinct groups over
/// a multi-morsel table — the radix-partitioned aggregate merge must be
/// bit-identical to the serial merge at every (thread count, partition
/// count, optimizer) combination, and match the row-wise reference.
#[test]
fn high_cardinality_string_group_by_agrees() {
    let rows = 2 * mosaic_core::MORSEL_ROWS + 777;
    let schema = Schema::new(vec![
        Field::new("k", DataType::Str),
        Field::new("i", DataType::Int),
        Field::new("f", DataType::Float),
    ]);
    let mut b = TableBuilder::new(schema);
    for r in 0..rows {
        b.push_row(vec![
            if r % 97 == 0 {
                Value::Null
            } else {
                Value::Str(format!("g{}", r % 4500)) // ≥ 4K distinct groups
            },
            if r % 11 != 0 {
                Value::Int((r % 83) as i64 - 40)
            } else {
                Value::Null
            },
            if r % 13 != 0 {
                Value::Float((r % 59) as f64 * 0.75 - 22.0)
            } else {
                Value::Null
            },
        ])
        .unwrap();
    }
    let table = b.finish().dict_encoded();
    let weights: Vec<f64> = (0..rows).map(|r| 0.1 + (r % 17) as f64 * 0.4).collect();
    let templates = [
        "SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k",
        "SELECT k, SUM(i) AS s, AVG(f) AS a, MIN(i), MAX(f) FROM t GROUP BY k ORDER BY k LIMIT 50",
        "SELECT k, COUNT(i) AS c FROM t WHERE f > 0.0 GROUP BY k ORDER BY c DESC, k LIMIT 20",
        "SELECT k, SUM(i) + AVG(f) AS m FROM t GROUP BY k ORDER BY m DESC, k LIMIT 10",
    ];
    for src in templates {
        let stmt = select(src);
        for weights in [None, Some(weights.as_slice())] {
            // Baseline: serial merge on one thread, optimizer off. Every
            // (thread count, partition count, optimizer) combination
            // must reproduce it bit-for-bit. (The row-wise reference
            // folds weighted float sums in row order rather than morsel
            // order, so — as in `multi_morsel_thread_counts_agree` —
            // the serial vectorized run is the bit-identity anchor.)
            let baseline = run_cell(&stmt, &table, weights, 1, false, 1).unwrap();
            for threads in THREAD_COUNTS {
                for partitions in [1, 16] {
                    for optimizer in [false, true] {
                        let out = run_cell(&stmt, &table, weights, threads, optimizer, partitions)
                            .unwrap();
                        if let Err(msg) = tables_identical(&out, &baseline) {
                            panic!(
                                "high-cardinality divergence on {src:?} at {threads} thread(s), \
                                 {partitions} partition(s), optimizer={optimizer}: {msg}"
                            );
                        }
                    }
                }
            }
            // Semantic anchor: the unweighted COUNT template is exact
            // integer arithmetic, so it must also match the row-wise
            // reference (not just be internally consistent).
            if weights.is_none() && src.contains("COUNT(*) FROM t GROUP BY k ORDER BY k") {
                let reference = run_select_rowwise(&stmt, &table, None).unwrap();
                tables_identical(&baseline, &reference).unwrap();
            }
        }
    }

    // Inputs aimed at the executor hasher's paths (`plan/hash.rs`): int
    // keys strided by 2^20 plus i64::MIN / i64::MAX; float keys whose
    // -0.0 / +0.0 and two NaN payloads must stay separate groups by bit
    // pattern; two-key GROUP BYs through the pairwise combiner; and a
    // dictionary of ≥ 4 × MORSEL_ROWS strings filtered to a few hundred
    // rows per morsel, so the codes a morsel sees are sparse in the code
    // space. Integer arithmetic only, so every cell must equal the
    // row-wise reference — first-appearance group order included (no
    // ORDER BY).
    let rows = 4 * mosaic_core::MORSEL_ROWS + 777;
    let schema = Schema::new(vec![
        Field::new("s", DataType::Int),
        Field::new("z", DataType::Float),
        Field::new("w", DataType::Str),
        Field::new("i", DataType::Int),
    ]);
    let mut b = TableBuilder::new(schema);
    for r in 0..rows {
        let s = match r % 1009 {
            0 => Value::Null,
            5 => Value::Int(i64::MIN),
            7 => Value::Int(i64::MAX),
            _ => Value::Int(((r % 3001) as i64 - 1500) << 20),
        };
        let z = match r % 6 {
            0 => Value::Float(-0.0),
            1 => Value::Float(0.0),
            2 => Value::Float(f64::from_bits(0x7ff8_0000_0000_0001)),
            3 => Value::Float(f64::from_bits(0x7ff8_0000_0000_0002)),
            4 => Value::Float(1.5),
            _ => Value::Null,
        };
        let w = Value::Str(format!("w{r}"));
        b.push_row(vec![s, z, w, Value::Int((r % 83) as i64 - 40)])
            .unwrap();
    }
    let table = b.finish().dict_encoded();
    for src in [
        "SELECT s, COUNT(*) AS n, MIN(i) AS lo FROM t GROUP BY s",
        "SELECT z, COUNT(*) AS n, SUM(i) AS si FROM t GROUP BY z",
        "SELECT z, s, COUNT(*) AS n FROM t GROUP BY z, s",
        "SELECT w, COUNT(*) AS n, SUM(i) AS si FROM t WHERE i = 3 GROUP BY w",
        "SELECT w, z, COUNT(*) AS n FROM t WHERE i = 3 GROUP BY w, z",
    ] {
        let stmt = select(src);
        let reference = run_select_rowwise(&stmt, &table, None).unwrap();
        for threads in THREAD_COUNTS {
            for partitions in [1, 16] {
                for optimizer in [false, true] {
                    let out =
                        run_cell(&stmt, &table, None, threads, optimizer, partitions).unwrap();
                    if let Err(msg) = tables_identical(&out, &reference) {
                        panic!(
                            "hash-path divergence on {src:?} at {threads} thread(s), \
                             {partitions} partition(s), optimizer={optimizer}: {msg}"
                        );
                    }
                }
            }
        }
    }
}

/// Dictionary-vs-plain equivalence: the same logical table stored with
/// plain per-row strings and with dictionary-encoded string columns
/// must produce bit-identical results through every query template at
/// every thread count. The encoding is a physical property only.
#[test]
fn dict_and_plain_representations_agree() {
    let rows = mosaic_core::MORSEL_ROWS + 333;
    let plain = build_table(
        &(0..rows)
            .map(|r| {
                (
                    (r % 5 != 0).then_some((r % 3) as u8),
                    (r % 11 != 0).then_some((r % 83) as i64 - 40),
                    (r % 13 != 0).then_some((r % 59) as f64 * 0.75 - 22.0),
                    (r % 7 != 0).then_some((r % 2) as u8),
                )
            })
            .collect::<Vec<Row>>(),
    );
    assert!(!plain.column(0).is_dict(), "TableBuilder builds plain Str");
    let dict = plain.dict_encoded();
    assert!(dict.column(0).is_dict(), "dict_encoded builds Dict");
    for template in QUERIES {
        let src = template.replace("{thr}", "7");
        let stmt = select(&src);
        for threads in THREAD_COUNTS {
            let p = run_default_partitions(&stmt, &plain, None, threads, true);
            let d = run_default_partitions(&stmt, &dict, None, threads, true);
            match (p, d) {
                (Ok(p), Ok(d)) => {
                    if let Err(msg) = tables_identical(&p, &d) {
                        panic!("dict/plain divergence on {src:?} at {threads} thread(s): {msg}");
                    }
                }
                (Err(p), Err(d)) => assert_eq!(p.to_string(), d.to_string()),
                _ => panic!("ok/err divergence on {src:?} at {threads} thread(s)"),
            }
        }
    }
}

// ---- the expression evaluator against the row-wise oracle ----

use mosaic_core::plan::vector::{eval_expr, eval_predicate};
use mosaic_tests::oracle::{eval_expr_rowwise, eval_predicate_rowwise};

/// Four columns with a NULL in every one of them: int `x`, string `s`,
/// float `f`, bool `b`.
fn expr_table() -> Table {
    let schema = Schema::new(vec![
        Field::new("x", DataType::Int),
        Field::new("s", DataType::Str),
        Field::new("f", DataType::Float),
        Field::new("b", DataType::Bool),
    ]);
    let mut t = TableBuilder::new(schema);
    for row in [
        vec![1.into(), "a".into(), 0.5.into(), true.into()],
        vec![2.into(), "b".into(), 1.5.into(), false.into()],
        vec![3.into(), "a".into(), Value::Null, Value::Null],
        vec![Value::Null, "c".into(), 4.5.into(), true.into()],
    ] {
        t.push_row(row).unwrap();
    }
    t.finish()
}

/// Every predicate here selects the rows the row-wise oracle selects.
#[test]
fn predicates_match_oracle() {
    let t = expr_table();
    for src in [
        "x > 1",
        "x > 1 AND s = 'a'",
        "x = 1 OR s = 'b'",
        "NOT x = 2",
        "f < 100",
        "f IS NULL",
        "f IS NOT NULL",
        "s IN ('a', 'z')",
        "s NOT IN ('a')",
        "x IN (1, 3, NULL)",
        "x NOT IN (1, NULL)",
        "x IN (x, 7)",
        "b IN (true, NULL)",
        "x BETWEEN 2 AND 3",
        "x NOT BETWEEN 2 AND 3",
        "f BETWEEN 0 AND 2",
        "s BETWEEN 'a' AND 'b'",
        "x BETWEEN f AND 3",
        "x + 1 > 2",
        "x * 2 = 4",
        "x / 0 > 1",
        "f > 0 OR x = 3",
        "f > 0 AND x >= 1",
        "b",
        "NOT b",
        "b = true",
        "b <> false",
        "b < (x > 1)",
        "b = NULL",
        "s = NULL",
        "(x > 1) IS NULL",
        "x % 2 = 1",
        "2 < x",
        "'a' = s",
        "1 = 1",
        "NULL > 1",
        "-x < -1",
        "x > 0.5",
        "f = 1.5",
        "x + f > 2",
    ] {
        let expr = mosaic_sql::parse_expr(src).unwrap();
        let vec = eval_predicate(&expr, &t).unwrap();
        let row = eval_predicate_rowwise(&expr, &t).unwrap();
        assert_eq!(vec.to_indices(), row.to_indices(), "predicate {src}");
    }
}

/// Every projection here has the oracle's column type and values.
#[test]
fn projections_match_oracle() {
    let t = expr_table();
    for src in [
        "x",
        "s",
        "f",
        "b",
        "x + 1",
        "x * 2",
        "2 + x",
        "2 * x",
        "2 - x",
        "7 % x",
        "x + f",
        "x / 2",
        "x / 0",
        "x % 2",
        "f - 0.5",
        "-x",
        "-f",
        "2",
        "2.5",
        "'lit'",
        "NULL",
        "x > 2",
        "s = 'a'",
        "f IS NULL",
        "x IN (1, 2)",
        "x BETWEEN 1 AND 2",
        "b = true",
        "b <> (x > 1)",
        "NULL + x",
    ] {
        let expr = mosaic_sql::parse_expr(src).unwrap();
        let vec = eval_expr(&expr, &t).unwrap();
        let row = eval_expr_rowwise(&expr, &t).unwrap();
        assert_eq!(vec.data_type(), row.data_type(), "type of {src}");
        assert_eq!(vec.len(), row.len(), "len of {src}");
        for i in 0..vec.len() {
            assert_eq!(vec.value(i), row.value(i), "{src} row {i}");
        }
    }
}

/// A nullable BOOL `b` and a FLOAT `f` with a NaN in every 97th row.
fn nan_table(rows: usize) -> Table {
    let schema = Schema::new(vec![
        Field::new("i", DataType::Int),
        Field::new("b", DataType::Bool),
        Field::new("f", DataType::Float),
    ]);
    let mut t = TableBuilder::new(schema);
    for r in 0..rows {
        t.push_row(vec![
            Value::Int((r % 41) as i64),
            match r % 3 {
                0 => Value::Null,
                1 => Value::Bool(true),
                _ => Value::Bool(false),
            },
            match r % 97 {
                96 => Value::Float(f64::NAN),
                11 => Value::Null,
                m => Value::Float(m as f64 * 0.05 - 1.0),
            },
        ])
        .unwrap();
    }
    t.finish()
}

/// Comparisons over a NaN-bearing FLOAT — where `>` errors, naming the
/// first NaN row, and `BETWEEN` is NULL — agree with the row-wise oracle
/// at every threads × partitions × optimizer cell, errors included,
/// over tables without a NaN, with one, and spanning two morsels.
#[test]
fn nan_shapes_match_reference() {
    let templates = [
        "SELECT COUNT(*) FROM t WHERE f > 0",
        "SELECT i, f > 0 FROM t",
        "SELECT i FROM t WHERE f BETWEEN 0 AND 2",
        "SELECT i FROM t WHERE f NOT BETWEEN 0 AND 2",
        "SELECT b, COUNT(*) AS n FROM t WHERE f BETWEEN 0 AND 2 GROUP BY b ORDER BY b",
    ];
    for rows in [0, 60, 95, mosaic_core::MORSEL_ROWS + 500] {
        let table = nan_table(rows);
        for src in templates {
            let stmt = select(src);
            let reference = run_select_rowwise(&stmt, &table, None);
            for threads in THREAD_COUNTS {
                for partitions in [1, 16] {
                    for optimizer in [false, true] {
                        let out = run_cell(&stmt, &table, None, threads, optimizer, partitions);
                        let cell = format!(
                            "{src:?} over {rows} rows at {threads} thread(s), \
                             {partitions} partition(s), optimizer={optimizer}"
                        );
                        match (&out, &reference) {
                            (Ok(v), Ok(r)) => {
                                if let Err(msg) = tables_identical(v, r) {
                                    panic!("divergence on {cell}: {msg}");
                                }
                            }
                            (Err(v), Err(r)) => {
                                assert_eq!(v.to_string(), r.to_string(), "{cell}")
                            }
                            _ => panic!("one path failed on {cell}: {out:?} vs {reference:?}"),
                        }
                    }
                }
            }
        }
    }
}

// ---- the join oracle ----
//
// INNER and LEFT OUTER equi-joins run through the same four-way
// oracle: the row-wise reference is `mosaic_tests::oracle::reference_join_kinded`
// (canonical nested loop, NULL-extending unmatched left rows for LEFT
// OUTER, combining per-side weights for weighted×weighted joins)
// followed by `run_select_rowwise` over the joined table, and the
// engine's hash-join path must reproduce it bit-for-bit at optimizer
// {off, on} × threads {1, 2, 8}.

use mosaic_core::{JoinKind, MosaicEngine};
use std::sync::Arc;

/// Fact table: string key `k` (with NULLs and values the dimension
/// lacks), int key `num`, float key `fkey` (with NULLs), and data
/// columns `dist` / `dur`.
fn fact_table(rows: usize) -> Table {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Str),
        Field::new("num", DataType::Int),
        Field::new("fkey", DataType::Float),
        Field::new("dist", DataType::Int),
        Field::new("dur", DataType::Float),
    ]);
    let mut b = TableBuilder::new(schema);
    for r in 0..rows {
        b.push_row(vec![
            if r % 9 == 0 {
                Value::Null // NULL join keys must never match
            } else {
                Value::Str(format!("v{}", r % 5)) // v3/v4 miss the dim side
            },
            Value::Int((r % 7) as i64),
            if r % 11 == 0 {
                Value::Null
            } else {
                Value::Float((r % 4) as f64 + 0.5)
            },
            Value::Int((r % 83) as i64 - 40),
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

/// Dimension table: string key `code` (with a NULL and a code the fact
/// side never produces), int key `ncode`, float key `fcode`, plus
/// `grp` / `boost` payloads. Some codes repeat, so one probe row can
/// match several build rows.
fn dim_table() -> Table {
    let schema = Schema::new(vec![
        Field::new("code", DataType::Str),
        Field::new("ncode", DataType::Int),
        Field::new("fcode", DataType::Float),
        Field::new("grp", DataType::Str),
        Field::new("boost", DataType::Int),
    ]);
    let mut b = TableBuilder::new(schema);
    for (code, ncode, fcode, grp, boost) in [
        (Value::Str("v0".into()), 1, 0.5, "g1", 10),
        (Value::Str("v1".into()), 2, 1.5, "g1", 20),
        (Value::Str("v2".into()), 3, 2.5, "g2", 30),
        (Value::Str("v1".into()), 4, 1.5, "g2", 40), // duplicate keys
        (Value::Null, 5, 3.5, "g3", 50),             // NULL key: never matches
        (Value::Str("zz".into()), 99, 9.5, "g3", 60), // unmatched code
    ] {
        b.push_row(vec![
            code,
            Value::Int(ncode),
            Value::Float(fcode),
            Value::Str(grp.into()),
            Value::Int(boost),
        ])
        .unwrap();
    }
    b.finish()
}

/// A join template: the join SQL the engine runs, the equivalent
/// single-table SQL over the reference-joined table, and the equi-join
/// keys (in each side's own column names) for `reference_join`.
const JOIN_TEMPLATES: &[(&str, &str, (&str, &str))] = &[
    (
        "SELECT * FROM fact f JOIN dim c ON f.k = c.code",
        "SELECT * FROM j",
        ("k", "code"),
    ),
    (
        "SELECT c.grp AS grp, COUNT(*) AS n, SUM(f.dist) AS s, AVG(f.dur) AS a \
         FROM fact f JOIN dim c ON f.k = c.code GROUP BY c.grp ORDER BY grp",
        "SELECT grp, COUNT(*) AS n, SUM(dist) AS s, AVG(dur) AS a \
         FROM j GROUP BY grp ORDER BY grp",
        ("k", "code"),
    ),
    // Pushdown into both sides plus ORDER/LIMIT above the join.
    (
        "SELECT f.dist AS dist, c.boost AS boost FROM fact f JOIN dim c ON f.k = c.code \
         WHERE f.dist > {thr} AND c.grp = 'g1' ORDER BY dist, boost LIMIT 7",
        "SELECT dist, boost FROM j WHERE dist > {thr} AND grp = 'g1' \
         ORDER BY dist, boost LIMIT 7",
        ("k", "code"),
    ),
    // A cross-side conjunct stays above the join (not pushable).
    (
        "SELECT COUNT(*) AS n FROM fact f JOIN dim c ON f.k = c.code \
         WHERE f.dist + c.boost > {thr}",
        "SELECT COUNT(*) AS n FROM j WHERE dist + boost > {thr}",
        ("k", "code"),
    ),
    // Expression keys over int columns.
    (
        "SELECT c.grp AS grp, COUNT(*) AS n FROM fact f JOIN dim c ON f.num + 1 = c.ncode \
         GROUP BY c.grp ORDER BY grp",
        "SELECT grp, COUNT(*) AS n FROM j GROUP BY grp ORDER BY grp",
        ("num + 1", "ncode"),
    ),
    // Float keys (NULLs on the fact side never match).
    (
        "SELECT c.boost AS boost, COUNT(*) AS n FROM fact f JOIN dim c ON f.fkey = c.fcode \
         GROUP BY c.boost ORDER BY boost",
        "SELECT boost, COUNT(*) AS n FROM j GROUP BY boost ORDER BY boost",
        ("fkey", "fcode"),
    ),
    // Empty build side: the pushed dimension filter matches nothing.
    (
        "SELECT f.dist AS dist, c.grp AS grp FROM fact f JOIN dim c ON f.k = c.code \
         WHERE c.grp = 'nope'",
        "SELECT dist, grp FROM j WHERE grp = 'nope'",
        ("k", "code"),
    ),
    // Empty probe side: the pushed fact filter matches nothing.
    (
        "SELECT COUNT(*) AS n FROM fact f JOIN dim c ON f.k = c.code WHERE f.dist > 99999",
        "SELECT COUNT(*) AS n FROM j WHERE dist > 99999",
        ("k", "code"),
    ),
    // LEFT OUTER wildcard: unmatched fact rows (v3/v4 codes and NULL
    // keys) survive with the dimension side NULL-extended.
    (
        "SELECT * FROM fact f LEFT JOIN dim c ON f.k = c.code",
        "SELECT * FROM j",
        ("k", "code"),
    ),
    // LEFT OUTER aggregate: the NULL-extended rows form a NULL group,
    // and COUNT(col) skips NULL-extended payloads while COUNT(*) keeps
    // the rows.
    (
        "SELECT c.grp AS grp, COUNT(*) AS n, COUNT(c.boost) AS nb \
         FROM fact f LEFT JOIN dim c ON f.k = c.code GROUP BY c.grp ORDER BY grp",
        "SELECT grp, COUNT(*) AS n, COUNT(boost) AS nb FROM j GROUP BY grp ORDER BY grp",
        ("k", "code"),
    ),
    // LEFT OUTER anti-join idiom: the right-side IS NULL predicate must
    // stay ABOVE the join (pushing it below would change results).
    (
        "SELECT f.dist AS dist FROM fact f LEFT JOIN dim c ON f.k = c.code \
         WHERE c.boost IS NULL ORDER BY dist LIMIT 9",
        "SELECT dist FROM j WHERE boost IS NULL ORDER BY dist LIMIT 9",
        ("k", "code"),
    ),
    // LEFT OUTER with a pushable left-side conjunct.
    (
        "SELECT f.dist AS dist, c.grp AS grp FROM fact f LEFT JOIN dim c ON f.k = c.code \
         WHERE f.dist > {thr} ORDER BY dist, grp LIMIT 11",
        "SELECT dist, grp FROM j WHERE dist > {thr} ORDER BY dist, grp LIMIT 11",
        ("k", "code"),
    ),
    // LEFT OUTER with a right-side equality conjunct: NULL-extended
    // rows fail it, so it filters — but only above the join.
    (
        "SELECT f.dist AS dist, c.grp AS grp FROM fact f LEFT JOIN dim c ON f.k = c.code \
         WHERE c.grp = 'g1' ORDER BY dist, grp LIMIT 11",
        "SELECT dist, grp FROM j WHERE grp = 'g1' ORDER BY dist, grp LIMIT 11",
        ("k", "code"),
    ),
    // LEFT OUTER over float keys: NULL fact keys never match but still
    // appear, NULL-extended, in the NULL boost group.
    (
        "SELECT c.boost AS boost, COUNT(*) AS n FROM fact f LEFT JOIN dim c ON f.fkey = c.fcode \
         GROUP BY c.boost ORDER BY boost",
        "SELECT boost, COUNT(*) AS n FROM j GROUP BY boost ORDER BY boost",
        ("fkey", "fcode"),
    ),
    // LEFT OUTER over expression keys.
    (
        "SELECT c.grp AS grp, COUNT(*) AS n FROM fact f LEFT JOIN dim c ON f.num + 1 = c.ncode \
         GROUP BY c.grp ORDER BY grp",
        "SELECT grp, COUNT(*) AS n FROM j GROUP BY grp ORDER BY grp",
        ("num + 1", "ncode"),
    ),
    // LEFT OUTER where nothing on the right survives the residual
    // filter — the engine must not "optimize" it into an empty build.
    (
        "SELECT f.dist AS dist, c.grp AS grp FROM fact f LEFT JOIN dim c ON f.k = c.code \
         WHERE c.grp = 'nope'",
        "SELECT dist, grp FROM j WHERE grp = 'nope'",
        ("k", "code"),
    ),
];

/// The join kind a template exercises, recovered from its SQL.
fn template_kind(join_sql: &str) -> JoinKind {
    if join_sql.contains("LEFT JOIN") {
        JoinKind::LeftOuter
    } else {
        JoinKind::Inner
    }
}

fn join_keys(spec: (&str, &str)) -> Vec<(mosaic_sql::Expr, mosaic_sql::Expr)> {
    vec![(
        mosaic_sql::parse_expr(spec.0).unwrap(),
        mosaic_sql::parse_expr(spec.1).unwrap(),
    )]
}

/// Run one join template through the four-way oracle against an engine
/// holding `fact` and `dim` as auxiliary tables.
fn assert_join_equivalent(engine: &Arc<MosaicEngine>, fact: &Table, dim: &Table, thr: i64) {
    for (join_sql, ref_sql, keys) in JOIN_TEMPLATES {
        let kind = template_kind(join_sql);
        let join_sql = join_sql.replace("{thr}", &thr.to_string());
        let ref_sql = ref_sql.replace("{thr}", &thr.to_string());
        let joined =
            reference_join_kinded(fact, "f", dim, "c", &join_keys(*keys), kind, &[]).unwrap();
        let reference = run_select_rowwise(&select(&ref_sql), &joined, None).unwrap();
        for threads in THREAD_COUNTS {
            for optimizer in [false, true] {
                let session = engine
                    .session()
                    .with_parallelism(threads)
                    .with_optimizer(optimizer);
                let out = session.query(&join_sql).unwrap_or_else(|e| {
                    panic!("{join_sql:?} failed (threads {threads}, optimizer {optimizer}): {e}")
                });
                if let Err(msg) = tables_identical(&out, &reference) {
                    panic!(
                        "join divergence on {join_sql:?} at {threads} thread(s), \
                         optimizer={optimizer}: {msg}\nhash join:\n{out}\nreference:\n{reference}"
                    );
                }
            }
        }
    }
}

/// The join oracle on a small fact table (both build-side choices get
/// exercised: the dimension is smaller, so it builds; the wildcard
/// template's reference covers full-width output).
#[test]
fn join_templates_match_reference() {
    let fact = fact_table(257);
    let dim = dim_table();
    let engine = Arc::new(MosaicEngine::new());
    engine.register_table("fact", fact.clone()).unwrap();
    engine.register_table("dim", dim.clone()).unwrap();
    for thr in [-40, 0, 17] {
        assert_join_equivalent(&engine, &fact, &dim, thr);
    }
}

/// Build-side flip: when the left side is smaller, the executor builds
/// on it and probes the right side — the canonical (left, right) output
/// order must survive the flip.
#[test]
fn join_smaller_left_builds_and_order_survives() {
    let fact = fact_table(4); // smaller than dim (6 rows)
    let dim = dim_table();
    let engine = Arc::new(MosaicEngine::new());
    engine.register_table("fact", fact.clone()).unwrap();
    engine.register_table("dim", dim.clone()).unwrap();
    assert_join_equivalent(&engine, &fact, &dim, 0);
}

/// Degenerate inputs: an empty fact (probe) side, and an empty
/// dimension (build) side — every template, both join kinds, must
/// agree with the reference (LEFT OUTER against an empty dimension
/// NULL-extends every fact row; INNER returns nothing).
#[test]
fn join_empty_sides_match_reference() {
    let dim = dim_table();
    let empty_dim = {
        let schema = std::sync::Arc::clone(dim.schema());
        TableBuilder::new(schema).finish()
    };
    for (fact, dim) in [
        (fact_table(0), dim.clone()), // empty probe
        (fact_table(31), empty_dim),  // empty build
        (fact_table(0), dim_table()), // re-check with fresh dim
    ] {
        let engine = Arc::new(MosaicEngine::new());
        engine.register_table("fact", fact.clone()).unwrap();
        engine.register_table("dim", dim.clone()).unwrap();
        assert_join_equivalent(&engine, &fact, &dim, 0);
    }
}

/// Weighted×weighted joins through the four-way oracle: both sides are
/// samples, so the engine exposes per-side weights and the join emits
/// one combined `weight` column (the product; NULL when the right side
/// is NULL-extended). The reference builds the same weight-augmented
/// tables and uses `reference_join_kinded` with both sides weighted.
#[test]
fn weighted_join_templates_match_reference() {
    let engine = Arc::new(MosaicEngine::new());
    engine
        .session()
        .execute(
            "CREATE GLOBAL POPULATION PopW (k TEXT, x INT);
             CREATE SAMPLE WA AS (SELECT * FROM PopW);
             CREATE SAMPLE WB AS (SELECT * FROM PopW);
             INSERT INTO WA VALUES ('a', 1), ('a', 2), ('b', 3), ('c', 4);
             INSERT INTO WB VALUES ('a', 10), ('b', 20), ('b', 30), ('d', 40);",
        )
        .unwrap();
    // Mirror the engine's sample scan: data columns plus a `weight`
    // column (fresh samples carry weight 1.0 per row).
    let sample_with_weights = |rows: &[(&str, i64)]| {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("x", DataType::Int),
            Field::new("weight", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        for (k, x) in rows {
            b.push_row(vec![
                Value::Str((*k).into()),
                Value::Int(*x),
                Value::Float(1.0),
            ])
            .unwrap();
        }
        b.finish()
    };
    let wa = sample_with_weights(&[("a", 1), ("a", 2), ("b", 3), ("c", 4)]);
    let wb = sample_with_weights(&[("a", 10), ("b", 20), ("b", 30), ("d", 40)]);
    let templates: &[(&str, &str)] = &[
        (
            "SELECT * FROM WA a JOIN WB b ON a.k = b.k",
            "SELECT * FROM j",
        ),
        (
            "SELECT * FROM WA a LEFT JOIN WB b ON a.k = b.k",
            "SELECT * FROM j",
        ),
        (
            "SELECT SUM(weight) AS s, COUNT(*) AS n FROM WA a JOIN WB b ON a.k = b.k",
            "SELECT SUM(weight) AS s, COUNT(*) AS n FROM j",
        ),
        (
            "SELECT SUM(weight) AS s, COUNT(weight) AS nw, COUNT(*) AS n \
             FROM WA a LEFT JOIN WB b ON a.k = b.k",
            "SELECT SUM(weight) AS s, COUNT(weight) AS nw, COUNT(*) AS n FROM j",
        ),
    ];
    for (join_sql, ref_sql) in templates {
        let kind = template_kind(join_sql);
        let joined =
            reference_join_kinded(&wa, "a", &wb, "b", &join_keys(("k", "k")), kind, &[0, 1])
                .unwrap();
        let reference = run_select_rowwise(&select(ref_sql), &joined, None).unwrap();
        for threads in THREAD_COUNTS {
            for optimizer in [false, true] {
                let out = engine
                    .session()
                    .with_parallelism(threads)
                    .with_optimizer(optimizer)
                    .query(join_sql)
                    .unwrap_or_else(|e| {
                        panic!(
                            "{join_sql:?} failed (threads {threads}, optimizer {optimizer}): {e}"
                        )
                    });
                if let Err(msg) = tables_identical(&out, &reference) {
                    panic!(
                        "weighted join divergence on {join_sql:?} at {threads} thread(s), \
                         optimizer={optimizer}: {msg}\nhash join:\n{out}\nreference:\n{reference}"
                    );
                }
            }
        }
    }
}

/// Multi-morsel probe determinism: a fact table spanning several
/// morsels joined against a small dimension must produce the same table
/// at every thread count, optimizer on and off — and match the
/// row-wise reference.
#[test]
fn join_multi_morsel_probe_is_deterministic() {
    let rows = 2 * mosaic_core::MORSEL_ROWS + 777;
    let fact = fact_table(rows);
    let dim = dim_table();
    let engine = Arc::new(MosaicEngine::new());
    engine.register_table("fact", fact.clone()).unwrap();
    engine.register_table("dim", dim.clone()).unwrap();
    let sql = "SELECT c.grp AS grp, COUNT(*) AS n, SUM(f.dist) AS s \
               FROM fact f JOIN dim c ON f.k = c.code GROUP BY c.grp ORDER BY grp";
    let joined = reference_join(&fact, "f", &dim, "c", &join_keys(("k", "code"))).unwrap();
    let reference = run_select_rowwise(
        &select("SELECT grp, COUNT(*) AS n, SUM(dist) AS s FROM j GROUP BY grp ORDER BY grp"),
        &joined,
        None,
    )
    .unwrap();
    for threads in THREAD_COUNTS {
        for optimizer in [false, true] {
            let out = engine
                .session()
                .with_parallelism(threads)
                .with_optimizer(optimizer)
                .query(sql)
                .unwrap();
            if let Err(msg) = tables_identical(&out, &reference) {
                panic!("multi-morsel join divergence at {threads} threads, optimizer={optimizer}: {msg}");
            }
        }
    }
}

/// ORDER BY over a multi-morsel join: the prefix sort composed with
/// the morsel-parallel probe and the partitioned build must stay
/// bit-identical to the row-wise reference at every thread count ×
/// partition count, optimizer off and on — INNER and LEFT OUTER.
#[test]
fn order_by_over_join_multi_morsel_matches_reference() {
    let rows = 2 * mosaic_core::MORSEL_ROWS + 777;
    let fact = fact_table(rows);
    let dim = dim_table();
    let engine = Arc::new(MosaicEngine::new());
    engine.register_table("fact", fact.clone()).unwrap();
    engine.register_table("dim", dim.clone()).unwrap();
    let templates: &[(&str, &str)] = &[
        // Full sorts (no LIMIT, so sort_limit_fusion cannot reduce them
        // to TopK) over the joined rows.
        (
            "SELECT f.dist AS dist, c.boost AS boost FROM fact f JOIN dim c ON f.k = c.code \
             WHERE f.dist > 30 ORDER BY dist DESC, boost",
            "SELECT dist, boost FROM j WHERE dist > 30 ORDER BY dist DESC, boost",
        ),
        (
            "SELECT f.dist AS dist, c.grp AS grp FROM fact f LEFT JOIN dim c ON f.k = c.code \
             WHERE f.dist > 35 ORDER BY grp DESC, dist",
            "SELECT dist, grp FROM j WHERE dist > 35 ORDER BY grp DESC, dist",
        ),
        // Aggregate above the join with a full ORDER BY on the groups.
        (
            "SELECT c.grp AS grp, COUNT(*) AS n, SUM(f.dist) AS s \
             FROM fact f JOIN dim c ON f.k = c.code GROUP BY c.grp ORDER BY s DESC, grp",
            "SELECT grp, COUNT(*) AS n, SUM(dist) AS s FROM j GROUP BY grp ORDER BY s DESC, grp",
        ),
    ];
    for (join_sql, ref_sql) in templates {
        let kind = template_kind(join_sql);
        let joined =
            reference_join_kinded(&fact, "f", &dim, "c", &join_keys(("k", "code")), kind, &[])
                .unwrap();
        let reference = run_select_rowwise(&select(ref_sql), &joined, None).unwrap();
        for threads in THREAD_COUNTS {
            for partitions in [1usize, 16] {
                for optimizer in [false, true] {
                    let out = engine
                        .session()
                        .with_parallelism(threads)
                        .with_agg_partitions(partitions)
                        .with_optimizer(optimizer)
                        .query(join_sql)
                        .unwrap();
                    if let Err(msg) = tables_identical(&out, &reference) {
                        panic!(
                            "ORDER BY-over-join divergence on {join_sql:?} at {threads} \
                             thread(s), {partitions} partition(s), optimizer={optimizer}: {msg}"
                        );
                    }
                }
            }
        }
    }
}

/// Partitioned-build determinism at scale: a multi-morsel build side
/// (so the radix-partitioned parallel build actually engages) probed by
/// a larger fact table must return the same bits at every thread count
/// × partition count as the serial single-partition baseline. The
/// nested-loop reference is unaffordable at this size, so the t1/p1
/// optimizer-off engine run is the oracle (its agreement with the
/// reference is pinned by the smaller join suites).
#[test]
fn partitioned_join_build_is_deterministic() {
    let dim_rows = mosaic_core::MORSEL_ROWS + 333;
    let fact_rows = 2 * mosaic_core::MORSEL_ROWS + 777;
    // `sk` keys are strided by 2^20: they differ only in high bits, so
    // partition routing and bucket choice must both come from mixed bits.
    let dim_schema = Schema::new(vec![
        Field::new("key", DataType::Str),
        Field::new("p", DataType::Int),
        Field::new("sk", DataType::Int),
    ]);
    let mut b = TableBuilder::new(dim_schema);
    for j in 0..dim_rows {
        let (key, sk) = if j % 101 == 0 {
            // NULL build keys: hashed nowhere, match nothing
            (Value::Null, Value::Null)
        } else {
            (Value::Str(format!("w{j}")), Value::Int((j as i64) << 20))
        };
        b.push_row(vec![key, Value::Int((j % 53) as i64), sk])
            .unwrap();
    }
    let bigdim = b.finish();
    let fact_schema = Schema::new(vec![
        Field::new("key", DataType::Str),
        Field::new("v", DataType::Int),
        Field::new("sk", DataType::Int),
    ]);
    let mut b = TableBuilder::new(fact_schema);
    for r in 0..fact_rows {
        b.push_row(vec![
            Value::Str(format!("w{}", r % dim_rows)),
            Value::Int((r % 997) as i64 - 400),
            Value::Int(((r % dim_rows) as i64) << 20),
        ])
        .unwrap();
    }
    let bigfact = b.finish();
    let engine = Arc::new(MosaicEngine::new());
    engine.register_table("bigdim", bigdim).unwrap();
    engine.register_table("bigfact", bigfact).unwrap();
    let templates: &[&str] = &[
        // Build = bigdim (smaller, > 1 morsel) → partitioned build.
        "SELECT f.v AS v, d.p AS p FROM bigfact f JOIN bigdim d ON f.key = d.key \
         WHERE f.v > 540 ORDER BY v DESC, p",
        "SELECT d.p AS p, COUNT(*) AS n, SUM(f.v) AS s \
         FROM bigfact f LEFT JOIN bigdim d ON f.key = d.key GROUP BY d.p ORDER BY p",
        "SELECT d.p AS p, COUNT(*) AS n, SUM(f.v) AS s \
         FROM bigfact f JOIN bigdim d ON f.sk = d.sk GROUP BY d.p ORDER BY p",
    ];
    for sql in templates {
        let baseline = engine
            .session()
            .with_parallelism(1)
            .with_agg_partitions(1)
            .with_optimizer(false)
            .query(sql)
            .unwrap();
        assert!(baseline.num_rows() > 0, "workload must produce rows: {sql}");
        for threads in THREAD_COUNTS {
            for partitions in [1usize, 16] {
                for optimizer in [false, true] {
                    let out = engine
                        .session()
                        .with_parallelism(threads)
                        .with_agg_partitions(partitions)
                        .with_optimizer(optimizer)
                        .query(sql)
                        .unwrap();
                    if let Err(msg) = tables_identical(&out, &baseline) {
                        panic!(
                            "partitioned build divergence on {sql:?} at {threads} thread(s), \
                             {partitions} partition(s), optimizer={optimizer}: {msg}"
                        );
                    }
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Unweighted equivalence over every template.
    #[test]
    fn vectorized_matches_rowwise(
        rows in proptest::collection::vec(
            (
                proptest::option::of(0u8..3),
                proptest::option::of(-40i64..40),
                proptest::option::of(-25.0f64..25.0),
                proptest::option::of(0u8..2),
            ),
            0..50,
        ),
        thr in -40i64..40,
    ) {
        let table = build_table(&rows);
        for template in QUERIES {
            let src = template.replace("{thr}", &thr.to_string());
            assert_equivalent(&src, &table, None);
        }
    }

    /// Weighted equivalence: the §5.3 weighted-aggregate rewrite must be
    /// a plan property, not a behavioural fork.
    #[test]
    fn weighted_vectorized_matches_rowwise(
        rows in proptest::collection::vec(
            (
                proptest::option::of(0u8..3),
                proptest::option::of(-40i64..40),
                proptest::option::of(-25.0f64..25.0),
                proptest::option::of(0u8..2),
            ),
            1..40,
        ),
        raw_weights in proptest::collection::vec(0.05f64..20.0, 40),
        thr in -40i64..40,
    ) {
        let table = build_table(&rows);
        let weights = &raw_weights[..rows.len()];
        for template in QUERIES {
            let src = template.replace("{thr}", &thr.to_string());
            assert_equivalent(&src, &table, Some(weights));
        }
    }

    /// Degenerate shapes: empty tables, all-NULL columns, single rows.
    #[test]
    fn degenerate_tables_match(nulls in 0u8..4, n in 0usize..3) {
        let rows: Vec<Row> = (0..n)
            .map(|_| match nulls {
                0 => (None, None, None, None),
                1 => (Some(1), None, Some(2.5), None),
                2 => (None, Some(7), None, Some(1)),
                _ => (Some(0), Some(-3), Some(-0.0), Some(0)),
            })
            .collect();
        let table = build_table(&rows);
        for template in QUERIES {
            let src = template.replace("{thr}", "0");
            assert_equivalent(&src, &table, None);
        }
    }
}
