//! Direct-indexed keys answer exactly like hashed ones. A single GROUP
//! BY key of dictionary codes, BOOL or an INT column of narrow span
//! numbers its groups through a slot table, and a single TEXT join key
//! builds a table indexed by dictionary code; wider domains hash. Every
//! answer here must equal the row-at-a-time oracle
//! (`mosaic_tests::oracle`) at threads {1, 2, 8} × optimizer {off, on},
//! ad hoc and prepared, on both sides of each gate.

use std::sync::Arc;

use mosaic_core::{MosaicEngine, MORSEL_ROWS};
use mosaic_sql::{parse, parse_expr, JoinKind, SelectStmt, Statement};
use mosaic_storage::{Bitmap, Column, DataType, Field, Schema, Table, TableBuilder, Value};
use mosaic_tests::oracle::{reference_join_kinded, run_select_rowwise};

/// The widest INT span (max − min + 1) a full morsel's group ids index
/// directly: the dense-key rule allows four slots per row, and one slot
/// is NULL's.
const GATE_SPAN: i64 = 4 * MORSEL_ROWS as i64 - 1;

fn select(src: &str) -> SelectStmt {
    match parse(src).unwrap().pop().unwrap() {
        Statement::Select(s) => s,
        other => panic!("not a select: {other:?}"),
    }
}

/// Exact equality: field names and types, then every cell (floats by
/// bit pattern).
fn assert_same(got: &Table, want: &Table, what: &str) {
    let fields = |t: &Table| -> Vec<(String, DataType)> {
        t.schema()
            .fields()
            .iter()
            .map(|f| (f.name.clone(), f.data_type))
            .collect()
    };
    assert_eq!(fields(got), fields(want), "{what}: schema");
    assert_eq!(got.num_rows(), want.num_rows(), "{what}: row count");
    for r in 0..got.num_rows() {
        for c in 0..got.num_columns() {
            assert_eq!(got.value(r, c), want.value(r, c), "{what}: cell ({r},{c})");
        }
    }
}

/// `sql` with its one `?` replaced by `param` written as a literal.
fn ad_hoc(sql: &str, param: &Option<Value>) -> String {
    match param {
        None => sql.to_string(),
        Some(Value::Str(s)) => sql.replace('?', &format!("'{s}'")),
        Some(v) => sql.replace('?', &v.to_string()),
    }
}

/// Run `sql` at every thread × optimizer cell, ad hoc (the parameter
/// written in) and prepared (the parameter bound), and demand `want`
/// from each.
fn check(engine: &Arc<MosaicEngine>, sql: &str, param: Option<Value>, want: &Table) {
    let text = ad_hoc(sql, &param);
    let params: Vec<Value> = param.into_iter().collect();
    for threads in [1, 2, 8] {
        for optimizer in [false, true] {
            let s = engine
                .session()
                .with_parallelism(threads)
                .with_optimizer(optimizer)
                .with_result_cache(false);
            let cell = format!("{text} at {threads}t/opt={optimizer}");
            assert_same(&s.query(&text).unwrap(), want, &format!("ad hoc {cell}"));
            let prepared = s.prepare(sql).unwrap();
            let got = s.query_prepared(&prepared, &params).unwrap();
            assert_same(&got, want, &format!("prepared {cell}"));
        }
    }
}

/// [`check`] against the oracle over table `t`.
fn check_single(engine: &Arc<MosaicEngine>, t: &Table, sql: &str, param: Option<Value>) {
    let want = run_select_rowwise(&select(&ad_hoc(sql, &param)), t, None).unwrap();
    check(engine, sql, param, &want);
}

fn engine_with(tables: &[(&str, &Table)]) -> Arc<MosaicEngine> {
    let engine = Arc::new(MosaicEngine::new());
    for (name, table) in tables {
        engine.register_table(name, (*table).clone()).unwrap();
    }
    engine
}

/// `t(i INT, v INT)`: `i` from `values` (`None` = NULL over the given
/// payload, which need not lie in the span of the valid values), `v`
/// the row number.
fn int_table(values: &[(Option<i64>, i64)]) -> Table {
    let data: Vec<i64> = values
        .iter()
        .map(|&(v, payload)| v.unwrap_or(payload))
        .collect();
    let validity = Bitmap::from_iter(values.iter().map(|(v, _)| v.is_some()));
    let rows: Vec<i64> = (0..values.len() as i64).collect();
    Table::new(
        Schema::new(vec![
            Field::new("i", DataType::Int),
            Field::new("v", DataType::Int),
        ]),
        vec![
            Column::from_i64_opt(data, Some(validity)),
            Column::from_i64_opt(rows, None),
        ],
    )
    .unwrap()
}

/// One full morsel whose `i` spans exactly `span` values from `base`
/// (both ends present, the rest strided over the span), with NULLs
/// whose payload lies far outside it.
fn spanned(base: i64, span: i64) -> Table {
    let values: Vec<(Option<i64>, i64)> = (0..MORSEL_ROWS as i64)
        .map(|r| match r {
            0 => (Some(base), 0),
            1 => (Some(base + (span - 1)), 0),
            r if r % 97 == 0 => (None, i64::MAX - r),
            r => (Some(base + (r * 7919) % span), 0),
        })
        .collect();
    int_table(&values)
}

const INT_QUERIES: [(&str, Option<i64>); 3] = [
    // No ORDER BY: first-appearance group order is part of the answer.
    (
        "SELECT i, COUNT(*) AS c, SUM(v) AS s FROM t GROUP BY i",
        None,
    ),
    (
        "SELECT i, MIN(v), MAX(v) FROM t WHERE v > ? GROUP BY i",
        Some(5000),
    ),
    (
        "SELECT i, COUNT(*) AS c FROM t GROUP BY i ORDER BY c DESC, i LIMIT 20",
        None,
    ),
];

/// INT spans one below, at and one above the widest a morsel indexes
/// directly, near zero and at both ends of the `i64` range.
#[test]
fn int_group_by_spans_around_the_gate() {
    for span in [GATE_SPAN - 1, GATE_SPAN, GATE_SPAN + 1] {
        for base in [-17, i64::MIN, i64::MAX - span + 1] {
            let t = spanned(base, span);
            let engine = engine_with(&[("t", &t)]);
            for (sql, param) in INT_QUERIES {
                check_single(&engine, &t, sql, param.map(Value::Int));
            }
        }
    }
}

/// `i64::MIN` beside `i64::MAX`, NULL payloads outside the span, an
/// all-NULL morsel, and spans that differ by morsel — narrow, wide and
/// far apart — so the merge unifies typed keys through both its slot
/// table and its hashed fallback.
#[test]
fn int_group_by_extremes_and_per_morsel_spans() {
    let m = MORSEL_ROWS as i64;
    let values: Vec<(Option<i64>, i64)> = (0..3 * m + 500)
        .map(|r| match r / m {
            0 if r % 13 == 0 => (None, -5_000_000_000),
            0 => (Some(r % 100), 0),
            1 => (None, r * 1_000_003),
            2 if r % 1000 == 7 => (Some(i64::MIN), 0),
            2 if r % 1000 == 8 => (Some(i64::MAX), 0),
            2 => (Some(1_000_000 + r % 50), 0),
            _ => (Some(r % 15 - 7), 0),
        })
        .collect();
    let t = int_table(&values);
    let engine = engine_with(&[("t", &t)]);
    for (sql, param) in INT_QUERIES {
        check_single(&engine, &t, sql, param.map(Value::Int));
    }
    // Without the third morsel the global span is narrow again.
    let narrow = "SELECT i, COUNT(*) AS c, SUM(v) AS s FROM t WHERE v < ? OR v >= ? GROUP BY i";
    let stmt = narrow.replacen('?', &(2 * m).to_string(), 1);
    check_single(&engine, &t, &stmt, Some(Value::Int(3 * m)));
    // Every key NULL.
    check_single(
        &engine,
        &t,
        &format!(
            "SELECT i, COUNT(*) AS c FROM t WHERE v >= ? AND v < {} GROUP BY i",
            2 * m
        ),
        Some(Value::Int(m)),
    );
}

/// `t(b BOOL, s TEXT, v INT)` over `rows` rows, NULLs in `b` and `s`.
fn bool_text_table(rows: usize) -> Table {
    let mut b = TableBuilder::new(Schema::new(vec![
        Field::new("b", DataType::Bool),
        Field::new("s", DataType::Str),
        Field::new("v", DataType::Int),
    ]));
    for r in 0..rows {
        b.push_row(vec![
            if r % 5 == 0 {
                Value::Null
            } else {
                Value::Bool(r % 3 == 1)
            },
            if r % 41 == 0 {
                Value::Null
            } else {
                Value::Str(format!("s{}", (r * 7) % 37))
            },
            Value::Int(r as i64 % 1000 - 300),
        ])
        .unwrap();
    }
    b.finish()
}

/// BOOL with NULLs, and TEXT stored plain and dictionary-encoded.
#[test]
fn bool_and_text_group_by() {
    let plain = bool_text_table(MORSEL_ROWS + 777);
    assert!(plain.column_by_name("s").unwrap().dict_parts().is_none());
    let dict = plain.dict_encoded();
    for t in [&plain, &dict] {
        let engine = engine_with(&[("t", t)]);
        for (sql, param) in [
            (
                "SELECT b, COUNT(*) AS c, SUM(v) AS s FROM t GROUP BY b",
                None,
            ),
            (
                "SELECT s, COUNT(*) AS c, MIN(v), MAX(v) FROM t GROUP BY s",
                None,
            ),
            (
                "SELECT s, SUM(v) AS total FROM t WHERE v > ? GROUP BY s ORDER BY total DESC, s",
                Some(Value::Int(0)),
            ),
        ] {
            check_single(&engine, t, sql, param);
        }
    }
}

/// `(key, value)` rows as a table `name(<key> TEXT, <value> INT)`.
fn keyed(key: &str, value: &str, rows: &[(Option<String>, i64)]) -> Table {
    let mut b = TableBuilder::new(Schema::new(vec![
        Field::new(key, DataType::Str),
        Field::new(value, DataType::Int),
    ]));
    for (k, v) in rows {
        b.push_row(vec![
            k.clone().map_or(Value::Null, Value::Str),
            Value::Int(*v),
        ])
        .unwrap();
    }
    b.finish()
}

/// The probe-side fact table `a(ak, av)` over two morsels: 40 keys, 10 of
/// which the dimension lacks, and NULL keys.
fn fact() -> Table {
    let rows: Vec<(Option<String>, i64)> = (0..MORSEL_ROWS as i64 + 333)
        .map(|r| ((r % 31 != 0).then(|| format!("k{}", r % 40)), r))
        .collect();
    keyed("ak", "av", &rows).dict_encoded()
}

/// The build-side dimension `b(bk, bv)`: keys k0..k29 (k0..k9 twice),
/// NULL keys, and keys the fact table lacks — its own dictionary.
fn dimension() -> Table {
    let mut rows: Vec<(Option<String>, i64)> =
        (0..30).map(|j| (Some(format!("k{j}")), j)).collect();
    rows.extend((0..10).map(|j| (Some(format!("k{j}")), 100 + j)));
    rows.extend([
        (None, -1),
        (Some("x1".into()), -2),
        (None, -3),
        (Some("x2".into()), -4),
    ]);
    keyed("bk", "bv", &rows).dict_encoded()
}

/// The oracle of a join statement: the row-wise join of `left` and
/// `right` (bindings `a`/`b` by their key columns), then the row-wise
/// SELECT `over` it.
fn join_oracle(
    left: &Table,
    right: &Table,
    keys: (&str, &str),
    kind: JoinKind,
    over: &str,
) -> Table {
    let (lb, rb) = if keys.0 == "ak" {
        ("a", "b")
    } else {
        ("b", "a")
    };
    let keys = [(parse_expr(keys.0).unwrap(), parse_expr(keys.1).unwrap())];
    let joined = reference_join_kinded(left, lb, right, rb, &keys, kind, &[]).unwrap();
    run_select_rowwise(&select(over), &joined, None).unwrap()
}

/// The `EXPLAIN` line for `sql` that starts with `prefix`, with the
/// optimizer on or off.
fn explain_line(engine: &Arc<MosaicEngine>, sql: &str, prefix: &str, optimizer: bool) -> String {
    let s = engine.session().with_optimizer(optimizer);
    let plan = s.query(&format!("EXPLAIN {sql}")).unwrap();
    (0..plan.num_rows())
        .map(|r| plan.value(r, 0).to_string())
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no {prefix:?} line"))
}

/// The `join build:` line `EXPLAIN` prints for `sql`.
fn join_build_line(engine: &Arc<MosaicEngine>, sql: &str) -> String {
    explain_line(engine, sql, "  join build:", true)
}

/// Every TEXT join shape over a (fact, dimension) pair: INNER and LEFT
/// OUTER, the build on the right and on the left, pushed filters, and
/// an aggregate over the join.
fn check_joins(engine: &Arc<MosaicEngine>, a: &Table, b: &Table) {
    for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
        let join = match kind {
            JoinKind::Inner => "JOIN",
            JoinKind::LeftOuter => "LEFT JOIN",
        };
        // Build = the smaller side: the dimension on the right, then on
        // the left (its rows counting-sorted back to canonical order).
        let sql = format!("SELECT av, bv FROM a {join} b ON a.ak = b.bk");
        let want = join_oracle(a, b, ("ak", "bk"), kind, "SELECT av, bv FROM j");
        check(engine, &sql, None, &want);
        let sql = format!("SELECT bv, av, ak FROM b {join} a ON b.bk = a.ak WHERE av > ?");
        let want = join_oracle(
            b,
            a,
            ("bk", "ak"),
            kind,
            "SELECT bv, av, ak FROM j WHERE av > 9000",
        );
        check(engine, &sql, Some(Value::Int(9000)), &want);
        // Conjuncts the optimizer pushes below the join, one per side.
        let sql =
            format!("SELECT av, bk FROM a {join} b ON a.ak = b.bk WHERE av > 100 AND bv < 20");
        let want = join_oracle(
            a,
            b,
            ("ak", "bk"),
            kind,
            "SELECT av, bk FROM j WHERE av > 100 AND bv < 20",
        );
        check(engine, &sql, None, &want);
    }
    let sql = "SELECT bk, COUNT(*) AS c, SUM(av) AS s FROM a JOIN b ON a.ak = b.bk GROUP BY bk";
    let want = join_oracle(
        a,
        b,
        ("ak", "bk"),
        JoinKind::Inner,
        "SELECT bk, COUNT(*) AS c, SUM(av) AS s FROM j GROUP BY bk",
    );
    check(engine, sql, None, &want);
}

/// A probe dictionary that differs from the build dictionary, probe
/// values the build side lacks, NULL keys on both sides and duplicate
/// build keys: the build indexes its dictionary codes directly.
#[test]
fn text_join_direct_indexed() {
    let (a, b) = (fact(), dimension());
    let engine = engine_with(&[("a", &a), ("b", &b)]);
    let line = join_build_line(&engine, "SELECT av FROM a JOIN b ON a.ak = b.bk");
    assert_eq!(
        line,
        "  join build: direct-indexed on dictionary codes (33 slots)"
    );
    check_joins(&engine, &a, &b);
}

/// A fact side stored as plain strings encodes per probe morsel, so
/// every morsel brings a dictionary of its own.
#[test]
fn text_join_plain_probe_side() {
    let plain: Vec<(Option<String>, i64)> = (0..MORSEL_ROWS as i64 + 333)
        .map(|r| ((r % 31 != 0).then(|| format!("k{}", r % 40)), r))
        .collect();
    let a = keyed("ak", "av", &plain);
    assert!(a.column(0).dict_parts().is_none());
    let b = dimension();
    let engine = engine_with(&[("a", &a), ("b", &b)]);
    check_joins(&engine, &a, &b);
}

/// A small build side sharing a dictionary far larger than itself takes
/// the hashed path, and answers the same.
#[test]
fn text_join_over_the_gate_hashes() {
    let wide: Vec<(Option<String>, i64)> = (0..5000).map(|j| (Some(format!("k{j}")), j)).collect();
    let wide = keyed("bk", "bv", &wide).dict_encoded();
    let mut picks: Vec<usize> = (0..30).chain(0..10).collect();
    picks.push(4999);
    let b = wide.take(&picks);
    assert_eq!(b.column(0).dict_parts().unwrap().1.len(), 5000);
    let a = fact();
    let engine = engine_with(&[("a", &a), ("b", &b)]);
    let line = join_build_line(&engine, "SELECT av FROM a JOIN b ON a.ak = b.bk");
    assert_eq!(line, "  join build: hash table on normalized key tokens");
    check_joins(&engine, &a, &b);
}

/// A pushed filter moves the build side across the gate: 5 000 build rows
/// over a 5 000-entry dictionary index their codes directly, the 10 that
/// survive `bv < 10` hash. Only execution counts the surviving rows, so
/// `EXPLAIN` names no build table when a side has pushed filters; with
/// the optimizer off nothing is pushed, and it names the one the whole
/// side takes.
#[test]
fn pushed_filter_flips_the_build_gate() {
    let rows: Vec<(Option<String>, i64)> = (0..5000).map(|j| (Some(format!("k{j}")), j)).collect();
    let b = keyed("bk", "bv", &rows).dict_encoded();
    assert_eq!(b.column(0).dict_parts().unwrap().1.len(), 5000);
    let a = fact();
    let engine = engine_with(&[("a", &a), ("b", &b)]);
    let sql = "SELECT av, bv FROM a JOIN b ON a.ak = b.bk WHERE bv < 10";
    assert_eq!(
        explain_line(&engine, sql, "  join build:", true),
        "  join build: chosen at execution from the rows that survive the pushed filters"
    );
    let join = explain_line(&engine, sql, "  join:", true);
    assert!(
        join.contains("build = smaller input after the pushed filters, chosen at execution"),
        "{join}"
    );
    assert!(!join.contains("currently"), "{join}");
    assert_eq!(
        explain_line(&engine, sql, "  join build:", false),
        "  join build: direct-indexed on dictionary codes (5000 slots)"
    );
    let want = join_oracle(
        &a,
        &b,
        ("ak", "bk"),
        JoinKind::Inner,
        "SELECT av, bv FROM j WHERE bv < 10",
    );
    assert!(want.num_rows() > 0);
    check(&engine, sql, None, &want);
}
