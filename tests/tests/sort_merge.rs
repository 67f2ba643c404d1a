//! Parallel sort correctness. The k-way run-merge kernel
//! ([`mosaic_storage::kernels::merge_sorted_runs`]) must reproduce a
//! stable `sort_by` exactly — under NULL keys, NaN keys, heavy ties,
//! and DESC orderings — for *any* split of the input into sorted runs,
//! because the engine's parallel sort picks its run boundaries from the
//! morsel size and the thread count must never change results. An
//! engine-level sweep then pins ORDER BY output bit-identical across
//! thread counts × partition counts against the row-wise reference,
//! including a multi-morsel input that actually exercises run merging.

use std::cmp::Ordering;

use mosaic_core::{plan_select, ExecContext, PlanInput, MORSEL_ROWS};
use mosaic_sql::{parse, SelectStmt, Statement};
use mosaic_storage::kernels::merge_sorted_runs;
use mosaic_storage::{DataType, Field, Schema, Table, TableBuilder, Value};
use mosaic_tests::oracle::run_select_rowwise;
use proptest::prelude::*;

/// The vectorized executor at one threads × optimizer × partitions cell.
fn run_cell(
    stmt: &SelectStmt,
    table: &Table,
    threads: usize,
    optimizer: bool,
    partitions: usize,
) -> mosaic_core::Result<Table> {
    let input = PlanInput::Table {
        table,
        weights: None,
    };
    plan_select(stmt, false, optimizer, Some(table.schema()))
        .physical
        .run(input, &ExecContext::new(&[], threads, partitions))
}

fn select(src: &str) -> SelectStmt {
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

/// Decode a generated tag into a sort key: NULL (`None`), NaN, signed
/// zeros, and a narrow tied range — every equivalence class the
/// engine's total order has to break ties within.
fn decode_key(tag: u8, v: i32) -> Option<f64> {
    match tag {
        0 | 1 => None,
        2 | 3 => Some(f64::NAN),
        4 => Some(-0.0),
        5 => Some(0.0),
        _ => Some(v as f64 * 0.5),
    }
}

/// A total order over optional float keys: NULLs sort last, floats by
/// `total_cmp` (NaN has a definite place), optionally reversed.
fn key_cmp(a: &Option<f64>, b: &Option<f64>, desc: bool) -> Ordering {
    let ord = match (a, b) {
        (None, None) => Ordering::Equal,
        (None, Some(_)) => Ordering::Greater,
        (Some(_), None) => Ordering::Less,
        (Some(x), Some(y)) => x.total_cmp(y),
    };
    if desc {
        ord.reverse()
    } else {
        ord
    }
}

type Row = (Option<u8>, Option<i64>, Option<f64>);

/// Mixed-type table with NULLs in every column, the planner-oracle
/// shape: `k` (string from a small alphabet), `i` (int), `f` (float).
fn build_table(rows: &[Row]) -> Table {
    let schema = Schema::new(vec![
        Field::new("k", DataType::Str),
        Field::new("i", DataType::Int),
        Field::new("f", DataType::Float),
    ]);
    let mut b = TableBuilder::new(schema);
    for (k, i, f) in rows {
        b.push_row(vec![
            k.map_or(Value::Null, |k| Value::Str(format!("v{}", k % 3))),
            i.map_or(Value::Null, Value::Int),
            f.map_or(Value::Null, Value::Float),
        ])
        .unwrap();
    }
    b.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Merging any consecutive-run split of the input under the strict
    /// `(key, index)` order reproduces a stable `sort_by` of the keys
    /// alone — the exact equivalence the engine's parallel sort rests
    /// on.
    #[test]
    fn merge_sorted_runs_equals_stable_sort(
        raw in proptest::collection::vec((0u8..16, -4i32..4), 0..300),
        lens in proptest::collection::vec(1usize..40, 0..12),
        desc_tag in 0u8..2,
    ) {
        let keys: Vec<Option<f64>> = raw.iter().map(|&(t, v)| decode_key(t, v)).collect();
        let desc = desc_tag == 1;
        let n = keys.len();
        let less = |a: usize, b: usize| match key_cmp(&keys[a], &keys[b], desc) {
            Ordering::Less => true,
            Ordering::Greater => false,
            Ordering::Equal => a < b,
        };
        let strict = |a: &usize, b: &usize| {
            if less(*a, *b) {
                Ordering::Less
            } else if less(*b, *a) {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        };
        // Split 0..n into consecutive runs from the generated lengths
        // (whatever is left over becomes the final run), then sort each
        // run independently — exactly what the worker pool does.
        let mut runs: Vec<Vec<usize>> = Vec::new();
        let mut start = 0usize;
        for len in lens {
            if start >= n {
                break;
            }
            let end = (start + len).min(n);
            let mut run: Vec<usize> = (start..end).collect();
            run.sort_unstable_by(strict);
            runs.push(run);
            start = end;
        }
        if start < n {
            let mut run: Vec<usize> = (start..n).collect();
            run.sort_unstable_by(strict);
            runs.push(run);
        }
        let merged = merge_sorted_runs(&runs, less);
        let mut expect: Vec<usize> = (0..n).collect();
        expect.sort_by(|&a, &b| key_cmp(&keys[a], &keys[b], desc));
        prop_assert_eq!(merged, expect);
    }

    /// Engine-level: a multi-key ORDER BY (with NULLs, ties, and mixed
    /// ASC/DESC) is bit-identical to the row-wise reference at every
    /// thread count × partition count.
    #[test]
    fn order_by_bit_identical_across_threads(
        rows in proptest::collection::vec(
            (
                proptest::option::of(0u8..3),
                proptest::option::of(-5i64..5),
                proptest::option::of(-2.0f64..2.0),
            ),
            0..120,
        ),
        desc_f_tag in 0u8..2,
        desc_i_tag in 0u8..2,
    ) {
        let (desc_f, desc_i) = (desc_f_tag == 1, desc_i_tag == 1);
        let table = build_table(&rows);
        let src = format!(
            "SELECT k, i, f FROM t ORDER BY f{}, i{}, k",
            if desc_f { " DESC" } else { "" },
            if desc_i { " DESC" } else { "" },
        );
        let stmt = select(&src);
        let reference = run_select_rowwise(&stmt, &table, None).unwrap();
        for threads in [1usize, 2, 8] {
            for partitions in [1usize, 16] {
                for optimizer in [false, true] {
                    let got = run_cell(&stmt, &table, threads, optimizer, partitions).unwrap();
                    if let Err(msg) = tables_identical(&got, &reference) {
                        panic!(
                            "divergence on {src:?} at {threads} thread(s), \
                             {partitions} partition(s), optimizer={optimizer}: {msg}"
                        );
                    }
                }
            }
        }
    }
}

/// A genuinely multi-morsel sort (3 runs) with heavy ties and NaN keys:
/// the parallel run-split + k-way merge must match both the serial
/// executor and the row-wise reference bit-for-bit. Proptest inputs
/// stay small, so this pins the run-merge path explicitly.
#[test]
fn multi_morsel_order_by_matches_serial_and_reference() {
    let rows = 2 * MORSEL_ROWS + 777;
    let schema = Schema::new(vec![
        Field::new("g", DataType::Str),
        Field::new("x", DataType::Float),
        Field::new("n", DataType::Int),
    ]);
    let mut b = TableBuilder::new(schema);
    for r in 0..rows {
        b.push_row(vec![
            if r % 17 == 0 {
                Value::Null
            } else {
                Value::Str(format!("s{}", r % 7))
            },
            match r % 13 {
                0 => Value::Null,
                1 => Value::Float(f64::NAN),
                _ => Value::Float(((r % 29) as f64) * 0.25 - 3.0), // heavy ties
            },
            Value::Int((r % 1000) as i64 - 300),
        ])
        .unwrap();
    }
    let table = b.finish();
    let stmt = select("SELECT g, x, n FROM t ORDER BY x DESC, g, n DESC");
    let reference = run_select_rowwise(&stmt, &table, None).unwrap();
    let serial = run_cell(&stmt, &table, 1, true, 1).unwrap();
    tables_identical(&serial, &reference).expect("serial executor vs row-wise reference");
    for threads in [2usize, 8] {
        for partitions in [1usize, 16] {
            let got = run_cell(&stmt, &table, threads, true, partitions).unwrap();
            tables_identical(&got, &serial).unwrap_or_else(|msg| {
                panic!(
                    "parallel sort diverged at {threads} threads, {partitions} partitions: {msg}"
                )
            });
        }
    }
}
