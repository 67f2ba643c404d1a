//! Golden bits for joins and TopK over inputs of several morsels.
//!
//! The digests were recorded with the executor that gathered every joined
//! row into one table before splitting it into morsels, and that merged
//! every projected row before TopK. A streamed join and per-morsel TopK
//! heaps must keep each joined morsel's rows, the fold order of every
//! float aggregate and every tie-break exactly where they were, so these
//! digests must not move at any thread count or partition count. Each
//! statement pins one digest with the optimizer off and one with it on.

use std::fmt::Write;
use std::sync::Arc;

use mosaic_core::{MosaicEngine, Table, Value};
use mosaic_storage::csv::read_csv_str;

/// Fact rows: a little over three morsels of 16 Ki rows.
const FACT_ROWS: usize = 3 * 16 * 1024 + 1234;

/// FNV-1a over the little-endian bytes of each word.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// Column names, types and every cell (column-major, tagged by variant).
fn table_digest(t: &Table) -> u64 {
    let mut words = vec![t.num_rows() as u64];
    let bytes = |words: &mut Vec<u64>, s: &str| {
        words.push(s.len() as u64);
        words.extend(s.bytes().map(u64::from));
    };
    for f in t.schema().fields() {
        bytes(&mut words, &f.name);
        bytes(&mut words, &f.data_type.to_string());
    }
    for c in 0..t.num_columns() {
        for r in 0..t.num_rows() {
            match t.value(r, c) {
                Value::Null => words.push(0),
                Value::Bool(b) => words.extend([1, u64::from(b)]),
                Value::Int(i) => words.extend([2, i as u64]),
                Value::Float(f) => words.extend([3, f.to_bits()]),
                Value::Str(s) => {
                    words.push(4);
                    bytes(&mut words, &s);
                }
            }
        }
    }
    digest(words)
}

/// `t(k TEXT, i INT, f FLOAT, g FLOAT)`: 40 joinable keys plus keys the
/// dimension lacks, NULL keys, and float values of very different
/// magnitudes so every reordered sum shows. `g` holds TopK keys with
/// NULL, NaN, -0.0, 0.0 and heavy ties.
fn fact_csv() -> String {
    let mut out = String::from("k,i,f,g\n");
    let mut x = 0x2545_f491_4f6c_dd1du64;
    for r in 0..FACT_ROWS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        match x % 53 {
            0 => {}
            1..=3 => write!(out, "zz{}", x % 5).unwrap(),
            v => write!(out, "k{}", v % 40).unwrap(),
        }
        out.push(',');
        if !x.is_multiple_of(31) {
            write!(out, "{}", (x >> 8) % 1000).unwrap();
        }
        out.push(',');
        if !x.is_multiple_of(29) {
            let scale = [1e-3, 1.0, 1e7][(x >> 20) as usize % 3];
            write!(out, "{}", ((x >> 24) % 100_000) as f64 * scale / 7.0).unwrap();
        }
        out.push(',');
        match (x >> 40) % 97 {
            0 => {}
            1 => out.push_str("NaN"),
            2 => out.push_str("-0.0"),
            3 => out.push_str("0.0"),
            v => write!(out, "{}", (v % 9) as f64 * 0.5 + (r % 3) as f64).unwrap(),
        }
        out.push('\n');
    }
    out
}

/// `d(k TEXT, grp TEXT, boost FLOAT)`: 36 of the fact table's 40 keys
/// plus 3 keys no fact row carries.
fn dim_csv() -> String {
    let mut out = String::from("k,grp,boost\n");
    for j in 4..40 {
        writeln!(out, "k{j},h{},{}", j % 6, 1.0 + (j % 7) as f64 / 3.0).unwrap();
    }
    for j in 0..3 {
        writeln!(out, "yy{j},h{j},0.5").unwrap();
    }
    out
}

fn scan_engine() -> Arc<MosaicEngine> {
    let engine = Arc::new(MosaicEngine::new());
    let fact = read_csv_str(&fact_csv()).unwrap();
    let dim = read_csv_str(&dim_csv()).unwrap();
    let types: Vec<String> = fact
        .schema()
        .fields()
        .iter()
        .map(|f| f.data_type.to_string())
        .collect();
    assert_eq!(types.join(","), "TEXT,INT,FLOAT,FLOAT");
    assert!(
        fact.column(0).is_dict(),
        "string keys join through dictionaries"
    );
    engine.register_table("t", fact).unwrap();
    engine.register_table("d", dim).unwrap();
    engine
}

/// The SEMI-OPEN world of `open_world_joins`, grown until the
/// population ⋈ sample join spans several morsels: 300 sample rows joined
/// with themselves on a two-valued key give 200² + 100² pairs.
fn semi_open_engine() -> Arc<MosaicEngine> {
    let engine = Arc::new(MosaicEngine::new());
    let db = engine.session();
    db.execute(
        "CREATE TABLE Report (country TEXT, reported_count INT);
         INSERT INTO Report VALUES ('UK', 600), ('FR', 400);
         CREATE GLOBAL POPULATION Migrants (country TEXT, age FLOAT);
         CREATE METADATA Migrants_M AS (SELECT country, reported_count FROM Report);
         CREATE SAMPLE MSample AS (SELECT * FROM Migrants);",
    )
    .unwrap();
    let rows: Vec<String> = (0..300)
        .map(|r| {
            let country = if r % 3 == 2 { "FR" } else { "UK" };
            format!("('{country}', {})", 18.0 + (r * 37 % 61) as f64 / 3.0)
        })
        .collect();
    db.execute(&format!("INSERT INTO MSample VALUES {}", rows.join(",")))
        .unwrap();
    engine
}

/// Run `sql` at threads {1, 2, 8} × partitions {1, 16}, with the
/// optimizer off and on; every cell must produce the digest recorded for
/// its optimizer setting (`golden` = [off, on]). The two differ where
/// predicate pushdown moves the joined-morsel boundaries a float fold
/// depends on.
fn assert_golden(engine: &Arc<MosaicEngine>, sql: &str, golden: [&str; 2]) {
    for (optimizer, golden) in [false, true].into_iter().zip(golden) {
        for threads in [1, 2, 8] {
            for partitions in [1, 16] {
                let out = engine
                    .session()
                    .with_parallelism(threads)
                    .with_agg_partitions(partitions)
                    .with_optimizer(optimizer)
                    .with_result_cache(false)
                    .query(sql)
                    .unwrap_or_else(|e| panic!("{sql}: {e}"));
                assert_eq!(
                    format!("{:#018x}", table_digest(&out)),
                    golden,
                    "{sql} at threads={threads}, partitions={partitions}, \
                     optimizer={optimizer} ({} rows)",
                    out.num_rows()
                );
            }
        }
    }
}

/// Float SUM/AVG over a multi-morsel INNER join, built on the (small)
/// right side: the probe streams the fact table in canonical order.
#[test]
fn inner_join_build_right_is_golden() {
    let engine = scan_engine();
    assert_golden(
        &engine,
        "SELECT d.grp AS grp, COUNT(*) AS c, SUM(t.f) AS sf, AVG(t.f) AS af, \
         SUM(t.f * d.boost) AS sfb, AVG(t.i) AS ai \
         FROM t JOIN d ON t.k = d.k GROUP BY d.grp ORDER BY grp",
        ["0xff6a84936433e35b", "0xff6a84936433e35b"],
    );
    assert_golden(
        &engine,
        "SELECT COUNT(*), SUM(t.f), AVG(t.f * d.boost) FROM t JOIN d ON t.k = d.k \
         WHERE t.i > 100",
        ["0x23e00715a77210da", "0xe87d5ab5e529e3cc"],
    );
    assert_golden(
        &engine,
        "SELECT t.k, t.i, d.grp, t.f FROM t JOIN d ON t.k = d.k WHERE t.i > 900",
        ["0x4db15107d575eebd", "0x4db15107d575eebd"],
    );
}

/// The same shapes with the build on the (small) left side: pairs come
/// out of the probe in right-major order and must be put back into
/// canonical (left row, right row) order.
#[test]
fn inner_join_build_left_is_golden() {
    let engine = scan_engine();
    assert_golden(
        &engine,
        "SELECT d.grp AS grp, COUNT(*) AS c, SUM(t.f) AS sf, AVG(t.f) AS af \
         FROM d JOIN t ON d.k = t.k GROUP BY d.grp ORDER BY grp",
        ["0x9fab7790fa5e9071", "0x9fab7790fa5e9071"],
    );
    assert_golden(
        &engine,
        "SELECT d.k, t.i, t.f FROM d JOIN t ON d.k = t.k WHERE t.i > 500",
        ["0xb0b71434c6b27c18", "0xb0b71434c6b27c18"],
    );
}

/// LEFT OUTER with unmatched rows (keys the other side lacks and NULL
/// keys), probing on the left and building on the left.
#[test]
fn left_outer_join_is_golden() {
    let engine = scan_engine();
    assert_golden(
        &engine,
        "SELECT d.grp AS grp, COUNT(*) AS c, SUM(t.f) AS sf, AVG(d.boost) AS ab \
         FROM t LEFT JOIN d ON t.k = d.k GROUP BY d.grp ORDER BY grp",
        ["0x84be7d4b14ebda18", "0x84be7d4b14ebda18"],
    );
    assert_golden(
        &engine,
        "SELECT t.k, t.i, d.grp, d.boost FROM t LEFT JOIN d ON t.k = d.k WHERE t.i < 40",
        ["0xe153627033df2c42", "0xe153627033df2c42"],
    );
    assert_golden(
        &engine,
        "SELECT d.k AS dk, COUNT(t.i) AS n, SUM(t.f) AS sf \
         FROM d LEFT JOIN t ON d.k = t.k GROUP BY d.k ORDER BY dk",
        ["0xdd82cf3ede402c98", "0xdd82cf3ede402c98"],
    );
    assert_golden(
        &engine,
        "SELECT d.k, d.grp, t.i FROM d LEFT JOIN t ON d.k = t.k WHERE d.grp <> 'h1'",
        ["0x777a44bdaee4d6ca", "0x777a44bdaee4d6ca"],
    );
}

/// A weighted SEMI-OPEN population ⋈ sample join: the combined weight is
/// IPF re-calibrated over every joined row before the weighted aggregate
/// folds it morsel by morsel.
#[test]
fn semi_open_recalibrated_join_is_golden() {
    let engine = semi_open_engine();
    assert_golden(
        &engine,
        "SELECT SEMI-OPEN m.country AS country, COUNT(*) AS n, SUM(s.age) AS sa, \
         AVG(m.age) AS am FROM Migrants m JOIN MSample s ON m.country = s.country \
         GROUP BY m.country ORDER BY country",
        ["0x84e2b51b5ca1956e", "0x84e2b51b5ca1956e"],
    );
    assert_golden(
        &engine,
        "SELECT SEMI-OPEN COUNT(*) AS n, AVG(s.age) AS a \
         FROM Migrants m JOIN MSample s ON m.country = s.country",
        ["0x15f5210d5202ba79", "0x15f5210d5202ba79"],
    );
}

/// TopK over several morsels with NULL, NaN, -0.0 and tied keys, in both
/// directions, over a table and over a join.
#[test]
fn topk_over_many_morsels_is_golden() {
    let engine = scan_engine();
    assert_golden(
        &engine,
        "SELECT g, i, k FROM t ORDER BY g DESC, i LIMIT 40",
        ["0xd23f848c556776f8", "0xd23f848c556776f8"],
    );
    assert_golden(
        &engine,
        "SELECT k, g FROM t WHERE i > 10 ORDER BY g, k DESC LIMIT 25",
        ["0x082245ed5ce57daf", "0x082245ed5ce57daf"],
    );
    assert_golden(
        &engine,
        "SELECT t.k, d.boost, t.i FROM t JOIN d ON t.k = d.k WHERE t.i > 200 \
         ORDER BY t.i DESC, t.k, d.boost LIMIT 30",
        ["0x5f110e8480ac63a4", "0x5f110e8480ac63a4"],
    );
}

/// TopK whose ORDER BY names columns the projection dropped: the keys
/// fall back to the pre-projection rows.
#[test]
fn topk_fallback_to_input_columns_is_golden() {
    let engine = scan_engine();
    assert_golden(
        &engine,
        "SELECT k, i FROM t WHERE i IS NOT NULL ORDER BY f DESC LIMIT 30",
        ["0xcf275c76ba81b329", "0xcf275c76ba81b329"],
    );
    assert_golden(
        &engine,
        "SELECT k FROM t ORDER BY g, i LIMIT 20",
        ["0x5bc721ab2d543868", "0x5bc721ab2d543868"],
    );
    assert_golden(
        &engine,
        "SELECT t.i FROM t JOIN d ON t.k = d.k ORDER BY d.boost DESC, t.f LIMIT 20",
        ["0xeb7976af719f58cc", "0xeb7976af719f58cc"],
    );
}
