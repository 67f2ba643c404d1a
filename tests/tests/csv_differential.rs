//! Differential test of the columnar CSV reader against the row-wise
//! reader it replaced.
//!
//! `reference::read_csv` is that reader, kept verbatim: split every line
//! into `String`s, infer a `Value` per field, park the rows, take the
//! widest type per column, rebuild every row for `TableBuilder`, then
//! dictionary-encode in a third pass. It is a fixture this suite compares
//! against, not a second product path. The contract is *the same table
//! for every input*: schema, cells (floats by bit pattern), validity, the
//! dictionary's values in first-appearance order — and for inputs that
//! fail, the same error variant, message and 1-based physical line number.
//!
//! Generated headers are clean (distinct, non-empty, no BOM): those are
//! the reader's two deliberate departures from the reference, pinned by
//! unit tests in `mosaic_storage::csv`.

use std::io::BufReader;

use mosaic_storage::csv::{read_csv, read_csv_str};
use mosaic_storage::{DataType, StorageError, Table};
use proptest::prelude::*;
use proptest::test_runner::case_rng;
use rand::rngs::StdRng;
use rand::Rng;

mod reference {
    use std::io::BufRead;
    use std::sync::Arc;

    use mosaic_storage::{
        DataType, Field, Result, Schema, StorageError, Table, TableBuilder, Value,
    };

    fn split_record(line: &str) -> std::result::Result<Vec<String>, String> {
        let mut fields = Vec::new();
        let mut cur = String::new();
        let mut chars = line.chars().peekable();
        let mut in_quotes = false;
        while let Some(c) = chars.next() {
            if in_quotes {
                match c {
                    '"' => {
                        if chars.peek() == Some(&'"') {
                            cur.push('"');
                            chars.next();
                        } else {
                            in_quotes = false;
                        }
                    }
                    other => cur.push(other),
                }
            } else {
                match c {
                    '"' if cur.is_empty() => in_quotes = true,
                    ',' => {
                        fields.push(std::mem::take(&mut cur));
                    }
                    other => cur.push(other),
                }
            }
        }
        if in_quotes {
            return Err("unterminated quoted field".into());
        }
        fields.push(cur);
        Ok(fields)
    }

    fn infer_value(s: &str) -> Value {
        if s.is_empty() {
            return Value::Null;
        }
        if let Ok(i) = s.parse::<i64>() {
            return Value::Int(i);
        }
        if let Ok(f) = s.parse::<f64>() {
            return Value::Float(f);
        }
        match s.to_ascii_lowercase().as_str() {
            "true" => Value::Bool(true),
            "false" => Value::Bool(false),
            _ => Value::Str(s.to_string()),
        }
    }

    pub fn read_csv(reader: impl BufRead) -> Result<Table> {
        let mut lines = reader.lines();
        let header = lines
            .next()
            .transpose()
            .map_err(|e| StorageError::InvalidValue(format!("io error: {e}")))?
            .ok_or_else(|| StorageError::InvalidValue("empty CSV input".into()))?;
        let names =
            split_record(header.trim_end_matches('\r')).map_err(StorageError::InvalidValue)?;
        let mut rows: Vec<Vec<Value>> = Vec::new();
        for (lineno, line) in lines.enumerate() {
            let line = line.map_err(|e| StorageError::InvalidValue(format!("io error: {e}")))?;
            let line = line.trim_end_matches('\r');
            if line.is_empty() {
                continue;
            }
            let fields = split_record(line)
                .map_err(|e| StorageError::InvalidValue(format!("line {}: {e}", lineno + 2)))?;
            if fields.len() != names.len() {
                return Err(StorageError::LengthMismatch {
                    expected: names.len(),
                    actual: fields.len(),
                    context: format!("CSV line {}", lineno + 2),
                });
            }
            rows.push(fields.iter().map(|f| infer_value(f)).collect());
        }
        let mut types: Vec<Option<DataType>> = vec![None; names.len()];
        for row in &rows {
            for (c, v) in row.iter().enumerate() {
                let vt = match v.data_type() {
                    None => continue,
                    Some(t) => t,
                };
                types[c] = Some(match (types[c], vt) {
                    (None, t) => t,
                    (Some(a), b) if a == b => a,
                    (Some(DataType::Int), DataType::Float)
                    | (Some(DataType::Float), DataType::Int) => DataType::Float,
                    _ => DataType::Str,
                });
            }
        }
        let fields: Vec<Field> = names
            .iter()
            .zip(&types)
            .map(|(n, t)| Field::new(n.clone(), t.unwrap_or(DataType::Str)))
            .collect();
        let schema = Schema::new(fields);
        let mut b = TableBuilder::with_capacity(Arc::clone(&schema), rows.len());
        for row in rows {
            let coerced: Vec<Value> = row
                .into_iter()
                .enumerate()
                .map(|(c, v)| match (schema.field(c).data_type, v) {
                    (_, Value::Null) => Value::Null,
                    (DataType::Str, v) => Value::Str(v.to_string()),
                    (DataType::Float, Value::Int(i)) => Value::Float(i as f64),
                    (_, v) => v,
                })
                .collect();
            b.push_row(coerced)?;
        }
        Ok(b.finish().dict_encoded())
    }
}

// ------------------------------------------------------------ generator

const INTS: &[&str] = &[
    "0",
    "7",
    "-3",
    "42",
    "007",
    "+5",
    "-0",
    "1000000",
    "9007199254740993",
    "-9007199254740993",
    "1234567890123456789",
    "9223372036854775807",
    "-9223372036854775808",
];
const FLOATS: &[&str] = &[
    "1.50",
    "2.5",
    "-0.0",
    ".5",
    "5.",
    "1e3",
    "-2.5E-3",
    "nan",
    "NaN",
    "-nan",
    "inf",
    "-inf",
    "Infinity",
    "1e400",
    "0.1",
    "9223372036854775808",
    "12345678901234567890",
    "-9223372036854775809",
    "123456789012345678.5",
];
const BOOLS: &[&str] = &["true", "false", "TRUE", "False"];
const TEXTS: &[&str] = &[
    "abc",
    "g7",
    "g12",
    " 5",
    "5 ",
    "x, y",
    "he said \"hi\"",
    "\"",
    "tru",
    "t",
    "falsey",
    "nano",
    "i",
    "infinit",
    "-",
    "+",
    ".",
    "1.2.3",
    "0x10",
    "1_000",
    "1e",
    "héllo",
    "日本, 東京",
    "NULL",
];
/// Fields written as-is: malformed or unusual quoting both readers must
/// agree on (a literal quote mid-field, text after a closing quote, a
/// reopened quote, a stray `\r`, an unterminated quote).
const RAW: &[&str] = &[
    "ab\"cd",
    "\"ab\"cd",
    "\"\"x",
    "\"\"\"a\"",
    "\"\" \"\"",
    "\"a\"\"b\"",
    "\"a,b\"\"c,d\"",
    "\"1\"2",
    "\"\"\"\"",
    "a\rb",
    "\"abc",
    "\"\"\"",
];

/// How a column's cells are drawn: `stages[i]` is the vocabulary used
/// from row `starts[i]` on, so a column widens at a random row.
struct ColumnPlan {
    stages: Vec<&'static [&'static str]>,
    starts: Vec<usize>,
    null_rate: f64,
}

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.random_range(0..from.len())]
}

fn column_plan(rng: &mut StdRng, rows: usize) -> ColumnPlan {
    let stages: Vec<&'static [&'static str]> = match rng.random_range(0..12u32) {
        0 => vec![&[]], // all NULL
        1 => vec![INTS],
        2 => vec![FLOATS],
        3 => vec![BOOLS],
        4 => vec![TEXTS],
        5 => vec![INTS, FLOATS],
        6 => vec![INTS, TEXTS],
        7 => vec![FLOATS, TEXTS],
        8 => vec![INTS, FLOATS, TEXTS],
        9 => vec![BOOLS, TEXTS],
        10 => vec![TEXTS, INTS, BOOLS, FLOATS],
        _ => vec![BOOLS, INTS],
    };
    let mut starts: Vec<usize> = (1..stages.len())
        .map(|_| rng.random_range(0..rows + 1))
        .collect();
    starts.push(0);
    starts.sort_unstable();
    ColumnPlan {
        stages,
        starts,
        null_rate: [0.0, 0.05, 0.3][rng.random_range(0..3usize)],
    }
}

/// Write `value` as one CSV field: quoted and escaped when it must be,
/// and sometimes when it need not be.
fn write_field(out: &mut String, value: &str, rng: &mut StdRng) {
    if value.contains(',') || value.contains('"') || rng.random_bool(0.1) {
        out.push('"');
        out.push_str(&value.replace('"', "\"\""));
        out.push('"');
    } else {
        out.push_str(value);
    }
}

fn write_cell(out: &mut String, plan: &ColumnPlan, row: usize, rng: &mut StdRng) {
    let stage = plan.starts.iter().rposition(|&s| s <= row).unwrap_or(0);
    let vocabulary = plan.stages[stage];
    if vocabulary.is_empty() || rng.random_bool(plan.null_rate) {
        if rng.random_bool(0.3) {
            out.push_str("\"\""); // quoted-empty is NULL too
        }
    } else if rng.random_bool(0.02) {
        out.push_str(pick(rng, RAW));
    } else if rng.random_bool(0.002) {
        write_field(out, &"x".repeat(100 * 1024), rng);
    } else {
        write_field(out, pick(rng, vocabulary), rng);
    }
}

/// CSV text whose shape is drawn from the case's RNG.
struct CsvText;

impl Strategy for CsvText {
    type Value = String;

    fn generate(&self, rng: &mut StdRng) -> String {
        let columns = rng.random_range(1..6usize);
        let rows = rng.random_range(0..40usize);
        let plans: Vec<ColumnPlan> = (0..columns).map(|_| column_plan(rng, rows)).collect();
        let crlf = rng.random_bool(0.3);
        let blank_rate = if rng.random_bool(0.3) { 0.15 } else { 0.0 };
        // At most one structural fault per text, so most inputs parse.
        let fault_row = rng.random_bool(0.25).then(|| rng.random_range(0..rows + 1));
        let mut out = String::new();
        let end_line = |out: &mut String, rng: &mut StdRng| {
            if crlf || rng.random_bool(0.05) {
                out.push('\r');
            }
            out.push('\n');
        };
        for c in 0..columns {
            if c > 0 {
                out.push(',');
            }
            write_field(&mut out, &format!("c{c}"), rng);
        }
        end_line(&mut out, rng);
        for row in 0..rows {
            while rng.random_bool(blank_rate) {
                end_line(&mut out, rng);
            }
            let mut fields: Vec<String> = plans
                .iter()
                .map(|plan| {
                    let mut field = String::new();
                    write_cell(&mut field, plan, row, rng);
                    field
                })
                .collect();
            if fault_row == Some(row) {
                match rng.random_range(0..3u32) {
                    0 => fields.push("extra".into()),
                    1 => drop(fields.pop()), // a 1-column row becomes blank
                    _ => fields[0].insert(0, '"'),
                }
            }
            out.push_str(&fields.join(","));
            if row + 1 < rows || rng.random_bool(0.7) {
                end_line(&mut out, rng);
            }
        }
        out
    }
}

// ----------------------------------------------------------- comparison

fn assert_same_table(got: &Table, want: &Table, what: &str) {
    assert_eq!(got.num_rows(), want.num_rows(), "{what}: row count");
    assert_eq!(
        got.schema().fields(),
        want.schema().fields(),
        "{what}: schema"
    );
    for (c, (g, w)) in got.columns().iter().zip(want.columns()).enumerate() {
        assert_eq!(g.validity(), w.validity(), "{what}: validity of column {c}");
        match w.data_type() {
            DataType::Bool => assert_eq!(g.bool_data(), w.bool_data(), "{what}: column {c}"),
            DataType::Int => assert_eq!(g.i64_data(), w.i64_data(), "{what}: column {c}"),
            DataType::Float => {
                let bits = |t: &[f64]| t.iter().map(|f| f.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    g.f64_data().map(bits),
                    w.f64_data().map(bits),
                    "{what}: column {c}"
                );
            }
            DataType::Str => {
                let (gc, gd) = g.dict_parts().expect("reader dictionary-encodes text");
                let (wc, wd) = w.dict_parts().expect("reference dictionary-encodes text");
                assert_eq!(gd.values(), wd.values(), "{what}: dictionary of column {c}");
                assert_eq!(gc, wc, "{what}: codes of column {c}");
            }
        }
    }
}

fn assert_same_outcome(
    got: &Result<Table, StorageError>,
    want: &Result<Table, StorageError>,
    what: &str,
) {
    match (got, want) {
        (Ok(g), Ok(w)) => assert_same_table(g, w, what),
        // `StorageError` is `PartialEq`: variant, message and line number.
        (Err(g), Err(w)) => assert_eq!(g, w, "{what}"),
        _ => panic!("{what}: reader gave {got:?}, reference gave {want:?}"),
    }
}

/// Both entry points of the reader against the reference; the `BufRead`
/// one through a 7-byte buffer so lines straddle refills.
fn check(text: &str) -> Result<Table, StorageError> {
    let want = reference::read_csv(text.as_bytes());
    assert_same_outcome(&read_csv_str(text), &want, "read_csv_str");
    let small = BufReader::with_capacity(7, text.as_bytes());
    assert_same_outcome(&read_csv(small), &want, "read_csv");
    want
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    #[test]
    fn columnar_reader_matches_rowwise_reference(text in CsvText) {
        check(&text).ok();
    }
}

const CASES: u32 = 1024;

/// The property above is only as strong as what the generator reaches:
/// every column type, NULLs in text columns, and each failure kind.
#[test]
fn generator_covers_every_outcome() {
    let (mut ok, mut ragged, mut unterminated, mut null_in_text) = (0, 0, 0, 0);
    let mut types = std::collections::HashSet::new();
    for case in 0..CASES {
        match reference::read_csv(CsvText.generate(&mut case_rng(case)).as_bytes()) {
            Ok(t) => {
                ok += 1;
                for c in t.columns() {
                    types.insert(c.data_type());
                    let with_null = c.dict_parts().is_some_and(|(_, d)| d.code_of("").is_some());
                    null_in_text += usize::from(with_null && c.null_count() < c.len());
                }
            }
            Err(StorageError::LengthMismatch { .. }) => ragged += 1,
            Err(StorageError::InvalidValue(_)) => unterminated += 1,
            Err(e) => panic!("unexpected reference error {e}"),
        }
    }
    assert!(ok >= CASES / 2, "only {ok} of {CASES} inputs parse");
    assert!(
        ragged >= 30 && unterminated >= 30,
        "{ragged} / {unterminated}"
    );
    assert!(null_in_text >= 50, "{null_in_text} text columns with NULLs");
    assert_eq!(types.len(), 4, "{types:?}");
}

// ------------------------------------------------------ shrunk examples

#[test]
fn wide_integers_survive_int_float_text_widening() {
    // 2⁵³ + 1 is an Int when read, a Float once `0.5` arrives (rounded to
    // 2⁵³), and must display as the integer when `x` makes the column TEXT.
    let t = check("a\n9007199254740993\n0.5\nx\n").unwrap();
    assert_eq!(t.value(0, 0).to_string(), "9007199254740993");
    let t = check("a\n9007199254740993\n0.5\n").unwrap();
    assert_eq!(t.column(0).f64_data().unwrap()[0], 9007199254740992.0);
}

#[test]
fn text_columns_display_typed_cells_from_their_parsed_value() {
    let t = check("a\nabc\n007\n1.50\nTRUE\n-0\n-0.0\n").unwrap();
    let cells: Vec<String> = t.column(0).iter().map(|v| v.to_string()).collect();
    assert_eq!(cells, ["abc", "7", "1.5", "true", "0", "-0"]);
}

#[test]
fn first_null_of_a_text_column_takes_a_dictionary_code() {
    let t = check("a,b\nx,\n,1\ny,2\n,\n").unwrap();
    let (codes, dict) = t.column(0).dict_parts().unwrap();
    assert_eq!(dict.values(), ["x", "", "y"]);
    assert_eq!(codes, [0, 1, 2, 1]);
    // A column that is NULL before it is anything else.
    let t = check("a\n\"\"\n\"\"\nz\n").unwrap();
    assert_eq!(t.column(0).dict_parts().unwrap().1.values(), ["", "z"]);
    // All NULL: TEXT, one empty value; no rows: TEXT, empty dictionary.
    let t = check("a,b\n1,\n2,\n").unwrap();
    assert_eq!(t.column(1).dict_parts().unwrap().1.values(), [""]);
    let t = check("a\n").unwrap();
    assert!(t.column(0).dict_parts().unwrap().1.is_empty());
}

#[test]
fn errors_carry_the_physical_line_number() {
    for text in [
        "a,b\n1,2\n\n\r\n3\n",
        "a,b\n1,2\n\n3,\"x\n",
        "a\n\"\"\"\n",
        "\"a\n1\n",
        "",
        "a,b\r\n1,2,3",
    ] {
        assert!(check(text).is_err(), "{text:?}");
    }
}

#[test]
fn invalid_utf8_is_the_same_io_error() {
    let bytes: &[u8] = b"a,b\n1,2\n\xff,3\n4,5\n";
    let want = reference::read_csv(bytes).unwrap_err();
    assert_eq!(read_csv(bytes).unwrap_err(), want);
    assert!(matches!(want, StorageError::InvalidValue(m) if m.starts_with("io error")));
}
