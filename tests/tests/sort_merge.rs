//! Sort correctness. The engine's Sort orders `(key prefix, row)`
//! pairs ([`Column::order_prefix`]) and looks further only among equal
//! prefixes, so a prefix must never contradict the key order — for
//! every column kind, ASC and DESC, at every boundary of the encodings
//! — and equal exact prefixes must mean equal keys. Engine-level sweeps
//! then pin ORDER BY output against a stable `sort_by` of the key chain
//! and against the row-wise reference, bit-identical across thread
//! counts, on inputs around and across the morsel size. The k-way
//! run-merge kernel ([`mosaic_storage::kernels::merge_sorted_runs`])
//! must reproduce a stable `sort_by` for *any* split of the input into
//! sorted runs.

use std::cmp::Ordering;

use mosaic_core::{plan_select, ExecContext, PlanInput, MORSEL_ROWS};
use mosaic_sql::{parse, SelectStmt, Statement};
use mosaic_storage::kernels::merge_sorted_runs;
use mosaic_storage::{Column, ColumnBuilder, DataType, Field, Schema, Table, TableBuilder, Value};
use mosaic_tests::oracle::run_select_rowwise;
use proptest::prelude::*;

/// The vectorized executor at one threads × optimizer cell.
fn run_cell(
    stmt: &SelectStmt,
    table: &Table,
    threads: usize,
    optimizer: bool,
) -> mosaic_core::Result<Table> {
    let input = PlanInput::Table {
        table,
        weights: None,
    };
    plan_select(stmt, false, optimizer, Some(table.schema()))
        .physical
        .run(input, &ExecContext::new(&[], threads))
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

/// Integers at the edges of the sign-flip encoding.
const INTS: [i64; 7] = [i64::MIN, i64::MIN + 1, -1, 0, 1, i64::MAX - 1, i64::MAX];

/// Floats at the edges of the `total_cmp` transform: both zeros, both
/// infinities, subnormals, and NaNs of either sign with the smallest
/// and largest payloads (the all-ones NaN shares NULL's prefix).
fn floats() -> [f64; 16] {
    [
        f64::from_bits(u64::MAX),
        -f64::NAN,
        f64::NEG_INFINITY,
        f64::MIN,
        -1.0,
        -f64::MIN_POSITIVE,
        -5e-324,
        -0.0,
        0.0,
        5e-324,
        f64::MIN_POSITIVE / 4.0,
        1.0,
        f64::MAX,
        f64::INFINITY,
        f64::NAN,
        f64::from_bits(0x7ff8_0000_0000_0001),
    ]
}

/// Strings at the edges of the 8-byte prefix: empty, a NUL byte (which
/// pads like the empty tail), a shared 8-byte head that differs only
/// after byte 8, and multi-byte UTF-8 across the cut.
const STRS: [&str; 12] = [
    "",
    "\0",
    "a",
    "a\0",
    "abcdefgh",
    "abcdefgh\0",
    "abcdefghi",
    "abcdefghj",
    "abcdefgé",
    "abcdéfgh",
    "日本語テキスト",
    "\u{10FFFF}",
];

/// One column of every kind from generated `(tag, v)` pairs: `None` is
/// NULL, a tag below the pool size picks a boundary value, anything else
/// a small value (`v`), so ties are common. Strings come plain and
/// dictionary-encoded.
fn prefix_columns(raw: &[Option<(u8, i8)>]) -> Vec<(&'static str, Column)> {
    let pick = |ty: DataType, f: &dyn Fn(u8, i8) -> Value| {
        let mut b = ColumnBuilder::new(ty);
        for r in raw {
            b.push(r.map_or(Value::Null, |(t, v)| f(t, v))).unwrap();
        }
        b.finish()
    };
    let int = pick(DataType::Int, &|t, v| {
        Value::Int(INTS.get(t as usize).copied().unwrap_or(v as i64))
    });
    let float = pick(DataType::Float, &|t, v| {
        Value::Float(floats().get(t as usize).copied().unwrap_or(v as f64 * 0.5))
    });
    let text = pick(DataType::Str, &|t, v| {
        Value::Str(
            STRS.get(t as usize)
                .map_or(format!("abcdefgh{v}"), |s| s.to_string()),
        )
    });
    let boolean = pick(DataType::Bool, &|_, v| Value::Bool(v % 2 == 0));
    let dict = text.dict_encoded();
    vec![
        ("int", int),
        ("float", float),
        ("str", text),
        ("dict", dict),
        ("bool", boolean),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `prefix(a) < prefix(b)` implies row `a` sorts strictly before row
    /// `b` under the key order of the engine's `row_order`
    /// (`Value::total_cmp`, which the column comparator matches),
    /// reversed for DESC along with the complemented prefix; and when
    /// the prefix is exact, equal prefixes of two rows that are both
    /// NULL or both not mean equal keys. Checked on whole columns and on
    /// a slice (a morsel's view at an offset).
    #[test]
    fn order_prefix_never_contradicts_the_key_order(
        raw in proptest::collection::vec(
            proptest::option::of((0u8..24, -3i8..3)),
            0..40,
        ),
    ) {
        for (kind, full) in prefix_columns(&raw) {
            let views = [full.clone(), full.slice(1.min(full.len()), full.len().saturating_sub(1))];
            for col in views {
                let exact = col.order_prefix_is_exact();
                for desc in [false, true] {
                    let flip = if desc { u64::MAX } else { 0 };
                    for a in 0..col.len() {
                        for b in 0..col.len() {
                            let (pa, pb) = (col.order_prefix(a) ^ flip, col.order_prefix(b) ^ flip);
                            let ord = col.value(a).total_cmp(&col.value(b));
                            let ord = if desc { ord.reverse() } else { ord };
                            if pa < pb {
                                prop_assert_eq!(ord, Ordering::Less, "{} rows {} {} desc={}", kind, a, b, desc);
                            }
                            if pa == pb && exact && col.is_null(a) == col.is_null(b) {
                                prop_assert_eq!(ord, Ordering::Equal, "{} rows {} {}", kind, a, b);
                            }
                        }
                    }
                }
            }
        }
    }

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
    /// thread count.
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
            for optimizer in [false, true] {
                let got = run_cell(&stmt, &table, threads, optimizer).unwrap();
                if let Err(msg) = tables_identical(&got, &reference) {
                    panic!(
                        "divergence on {src:?} at {threads} thread(s), optimizer={optimizer}: {msg}"
                    );
                }
            }
        }
    }
}

/// A multi-morsel sort with heavy ties, NULL and NaN keys: every
/// thread budget must match both the serial executor and the row-wise
/// reference bit-for-bit. Proptest inputs stay small, so this pins a
/// sort over merged morsel output explicitly.
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
    let serial = run_cell(&stmt, &table, 1, true).unwrap();
    tables_identical(&serial, &reference).expect("serial executor vs row-wise reference");
    for threads in [2usize, 8] {
        let got = run_cell(&stmt, &table, threads, true).unwrap();
        tables_identical(&got, &serial)
            .unwrap_or_else(|msg| panic!("parallel sort diverged at {threads} threads: {msg}"));
    }
}

/// Engine ORDER BY equals a stable `sort_by` over the key chain, at
/// sizes on both sides of one morsel and across three, at every thread
/// budget. The keys cover every prefix path: a float key with NULLs,
/// NaNs and ties (equal prefixes re-key on the next key), a plain
/// string key whose 8-byte prefix is inexact, a dictionary key, a bool
/// key, and an int key at `i64::MIN` beside NULL (NULL's prefix).
#[test]
fn order_by_equals_stable_sort_of_the_key_chain() {
    let schema = Schema::new(vec![
        Field::new("f", DataType::Float),
        Field::new("p", DataType::Str),
        Field::new("d", DataType::Str),
        Field::new("b", DataType::Bool),
        Field::new("i", DataType::Int),
    ]);
    for rows in [MORSEL_ROWS - 1, MORSEL_ROWS + 1, 3 * MORSEL_ROWS] {
        let mut builder = TableBuilder::new(schema.clone());
        for r in 0..rows {
            let h = (r as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40;
            builder
                .push_row(vec![
                    match h % 11 {
                        0 => Value::Null,
                        1 => Value::Float(f64::NAN),
                        2 => Value::Float(-0.0),
                        _ => Value::Float((h % 97) as f64 * 0.5 - 20.0),
                    },
                    Value::Str(format!("prefix--{}", h % 5)),
                    if h.is_multiple_of(7) {
                        Value::Null
                    } else {
                        Value::Str(format!("g{}", h % 13))
                    },
                    Value::Bool(h.is_multiple_of(3)),
                    match h % 17 {
                        0 => Value::Null,
                        1 => Value::Int(i64::MIN),
                        _ => Value::Int((h % 29) as i64 - 14),
                    },
                ])
                .unwrap();
        }
        let plain = builder.finish();
        let mut columns = plain.columns().to_vec();
        columns[2] = columns[2].dict_encoded();
        let table = Table::new(plain.schema().clone(), columns).unwrap();
        for (src, keys) in [
            (
                "SELECT f, p, d, b, i FROM t ORDER BY f DESC, p, d, i DESC",
                vec![(0, true), (1, false), (2, false), (4, true)],
            ),
            (
                "SELECT f, p, d, b, i FROM t ORDER BY i, b DESC, d DESC",
                vec![(4, false), (3, true), (2, true)],
            ),
            ("SELECT f, p, d, b, i FROM t ORDER BY p", vec![(1, false)]),
        ] {
            let key_rows: Vec<Vec<Value>> = (0..rows)
                .map(|r| keys.iter().map(|&(c, _)| table.value(r, c)).collect())
                .collect();
            let mut order: Vec<usize> = (0..rows).collect();
            order.sort_by(|&a, &b| {
                keys.iter()
                    .enumerate()
                    .map(|(j, &(_, desc))| {
                        let ord = key_rows[a][j].total_cmp(&key_rows[b][j]);
                        if desc {
                            ord.reverse()
                        } else {
                            ord
                        }
                    })
                    .find(|ord| ord.is_ne())
                    .unwrap_or(Ordering::Equal)
            });
            let expect = table.take(&order);
            let stmt = select(src);
            for threads in [1usize, 2, 8] {
                let got = run_cell(&stmt, &table, threads, true).unwrap();
                tables_identical(&got, &expect).unwrap_or_else(|msg| {
                    panic!("{src} over {rows} rows at {threads} thread(s): {msg}")
                });
            }
        }
    }
}
