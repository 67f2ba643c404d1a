//! Minimal CSV reader/writer for [`Table`]s — no external dependencies.
//!
//! Mosaic's experiment substitutions generate synthetic workloads, but a
//! user with the real IDEBench flights CSV (or any other sample file) can
//! ingest it directly with [`read_csv`] / [`read_csv_str`]; results export
//! with [`write_csv`]. Quoting follows RFC 4180 (double quotes, `""`
//! escape); type inference per column tries Int → Float → Bool → Str,
//! with empty fields as NULL.
//!
//! The reader is single-pass and columnar. One record splitter hands out
//! each field as a `&str` borrowed from the line; every column owns a
//! typed builder (`Vec<i64>` / `Vec<f64>` / `Vec<bool>` / `u32` codes plus
//! a dictionary that grows in first-appearance order, and a validity
//! bitmap) and *widens in flight* along the inference lattice
//! (`∅ → Int → Float`, anything else mixed → `Str`), re-rendering the
//! cells it already holds. No row of [`Value`]s and no per-field
//! `String` is ever built, so ingest allocates per vector doubling, not
//! per row. The table that comes out is the one the two-pass row-wise
//! reader it replaced would build — schema, cells (floats by bit
//! pattern), validity and dictionary order; `tests/tests/csv_differential.rs`
//! keeps that reader as the reference and compares.

use std::fmt::Write as _;
use std::io::{BufRead, Write};

use crate::column::DictionaryBuilder;
use crate::{Bitmap, Column, DataType, Field, Result, Schema, StorageError, Table, Value};

/// Split one CSV record, handing `field(index, text)` each field in
/// order; returns the field count. Fields are slices of `line` — a quote
/// only opens a quoted field as its first byte, so an unquoted field runs
/// to the next comma — except quoted fields with `""` escapes or text
/// after the closing quote, which are assembled in `scratch`.
fn split_record(
    line: &str,
    scratch: &mut String,
    mut field: impl FnMut(usize, &str),
) -> std::result::Result<usize, &'static str> {
    let bytes = line.as_bytes();
    let find = |b: u8, from: usize| bytes[from..].iter().position(|&x| x == b).map(|p| from + p);
    let mut count = 0;
    let mut start = 0;
    loop {
        // `end` is the comma that terminates the field, or the line's end.
        let end = if bytes.get(start) != Some(&b'"') {
            let end = find(b',', start).unwrap_or(bytes.len());
            field(count, &line[start..end]);
            end
        } else {
            let close = find(b'"', start + 1).ok_or(UNTERMINATED)?;
            if matches!(bytes.get(close + 1), None | Some(b',')) {
                field(count, &line[start + 1..close]);
                close + 1
            } else {
                let end = unquote(line, start, scratch)?;
                field(count, scratch);
                end
            }
        };
        count += 1;
        if end == bytes.len() {
            return Ok(count);
        }
        start = end + 1;
    }
}

const UNTERMINATED: &str = "unterminated quoted field";

/// The general quoted field starting at `line[start]`, unescaped into
/// `out`; returns where it ends (a comma or the line's end). `""` inside
/// quotes is a literal quote; outside quotes a quote is literal unless
/// the field is still empty, where it (re)opens quoting.
fn unquote(line: &str, start: usize, out: &mut String) -> std::result::Result<usize, &'static str> {
    out.clear();
    let bytes = line.as_bytes();
    let mut in_quotes = false;
    // `line[run..i]` is literal text not yet copied to `out`. Every cut
    // falls on an ASCII byte, so the slices stay on char boundaries.
    let (mut run, mut i) = (start, start);
    while i < bytes.len() {
        match bytes[i] {
            b'"' if in_quotes => {
                out.push_str(&line[run..i]);
                if bytes.get(i + 1) == Some(&b'"') {
                    out.push('"');
                    i += 2;
                } else {
                    in_quotes = false;
                    i += 1;
                }
                run = i;
            }
            b'"' if out.is_empty() && run == i => {
                in_quotes = true;
                i += 1;
                run = i;
            }
            b',' if !in_quotes => break,
            _ => i += 1,
        }
    }
    if in_quotes {
        return Err(UNTERMINATED);
    }
    out.push_str(&line[run..i]);
    Ok(i)
}

/// One non-empty field, typed the way inference types a lone value.
enum Cell<'a> {
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(&'a str),
}

impl<'a> Cell<'a> {
    /// Int, else Float, else Bool (any case), else Str. The first byte
    /// rules out most text before any parse is attempted.
    fn parse(s: &'a str) -> Cell<'a> {
        match s.as_bytes()[0] {
            b'0'..=b'9' | b'+' | b'-' | b'.' | b'i' | b'I' | b'n' | b'N' => {
                if let Ok(i) = s.parse::<i64>() {
                    Cell::Int(i)
                } else if let Ok(f) = s.parse::<f64>() {
                    Cell::Float(f)
                } else {
                    Cell::Str(s)
                }
            }
            b't' | b'T' if s.eq_ignore_ascii_case("true") => Cell::Bool(true),
            b'f' | b'F' if s.eq_ignore_ascii_case("false") => Cell::Bool(false),
            _ => Cell::Str(s),
        }
    }

    fn data_type(&self) -> DataType {
        match self {
            Cell::Bool(_) => DataType::Bool,
            Cell::Int(_) => DataType::Int,
            Cell::Float(_) => DataType::Float,
            Cell::Str(_) => DataType::Str,
        }
    }

    /// The cell as a TEXT column stores it: a typed cell is displayed from
    /// its parsed value (`007` reads `7`, `TRUE` reads `true`), as
    /// [`Value`]'s `Display` would.
    fn text(&self, buf: &'a mut String) -> &'a str {
        buf.clear();
        match self {
            Cell::Bool(b) => return if *b { "true" } else { "false" },
            Cell::Int(i) => write!(buf, "{i}"),
            Cell::Float(f) => write!(buf, "{f}"),
            Cell::Str(s) => return s,
        }
        .expect("writing to a String cannot fail");
        buf
    }
}

/// The typed payload of a column under construction.
#[derive(Default)]
enum Cells {
    /// Only NULLs so far.
    #[default]
    Untyped,
    Bool(Vec<bool>),
    Int(Vec<i64>),
    Float {
        values: Vec<f64>,
        /// `(row, integer)` for cells read as integers that `f64` cannot
        /// hold exactly (|i| ≥ 2⁵³): should the column widen to TEXT they
        /// must display as the integer, not as the rounded float.
        wide_ints: Vec<(usize, i64)>,
    },
    Str {
        codes: Vec<u32>,
        dict: DictionaryBuilder,
    },
}

/// One column of the table being read: typed payload, validity, and the
/// in-flight widening between them.
#[derive(Default)]
struct ColumnParser {
    cells: Cells,
    /// Created at the first NULL; `None` = every row so far is valid.
    validity: Option<Bitmap>,
    len: usize,
    /// Reused to display typed cells entering a TEXT column.
    text: String,
}

impl ColumnParser {
    fn data_type(&self) -> Option<DataType> {
        match self.cells {
            Cells::Untyped => None,
            Cells::Bool(_) => Some(DataType::Bool),
            Cells::Int(_) => Some(DataType::Int),
            Cells::Float { .. } => Some(DataType::Float),
            Cells::Str { .. } => Some(DataType::Str),
        }
    }

    fn push(&mut self, field: &str) {
        if field.is_empty() {
            self.validity
                .get_or_insert_with(|| Bitmap::ones(self.len))
                .push(false);
            match &mut self.cells {
                Cells::Untyped => {}
                Cells::Bool(v) => v.push(false),
                Cells::Int(v) => v.push(0),
                Cells::Float { values, .. } => values.push(0.0),
                Cells::Str { codes, dict } => codes.push(dict.code("")),
            }
            self.len += 1;
            return;
        }
        let cell = Cell::parse(field);
        // Column type = widest type observed (Int ⊂ Float; anything mixed
        // with Str becomes Str).
        let have = self.data_type();
        let ty = match (have, cell.data_type()) {
            (None, t) => t,
            (Some(a), b) if a == b => a,
            (Some(DataType::Int), DataType::Float) | (Some(DataType::Float), DataType::Int) => {
                DataType::Float
            }
            _ => DataType::Str,
        };
        if have != Some(ty) {
            self.widen(ty);
        }
        match (&mut self.cells, cell) {
            (Cells::Bool(v), Cell::Bool(b)) => v.push(b),
            (Cells::Int(v), Cell::Int(i)) => v.push(i),
            (Cells::Float { values, wide_ints }, Cell::Int(i)) => {
                if is_wide(i) {
                    wide_ints.push((self.len, i));
                }
                values.push(i as f64);
            }
            (Cells::Float { values, .. }, Cell::Float(f)) => values.push(f),
            (Cells::Str { codes, dict }, cell) => codes.push(dict.code(cell.text(&mut self.text))),
            _ => unreachable!("column was widened to hold the cell"),
        }
        if let Some(v) = &mut self.validity {
            v.push(true);
        }
        self.len += 1;
    }

    /// Convert the rows held so far to the wider type `to`.
    fn widen(&mut self, to: DataType) {
        let n = self.len;
        self.cells = match (std::mem::take(&mut self.cells), to) {
            (Cells::Untyped, DataType::Bool) => Cells::Bool(vec![false; n]),
            (Cells::Untyped, DataType::Int) => Cells::Int(vec![0; n]),
            (Cells::Untyped, DataType::Float) => Cells::Float {
                values: vec![0.0; n],
                wide_ints: Vec::new(),
            },
            (Cells::Int(v), DataType::Float) => Cells::Float {
                wide_ints: (0..n)
                    .map(|r| (r, v[r]))
                    .filter(|&(_, i)| is_wide(i))
                    .collect(),
                values: v.iter().map(|&i| i as f64).collect(),
            },
            (old, DataType::Str) => {
                // Display every cell in row order (NULL slots as ""), so the
                // dictionary comes out in first-appearance order.
                let mut dict = DictionaryBuilder::default();
                let mut codes = Vec::with_capacity(n);
                let mut wide = match &old {
                    Cells::Float { wide_ints, .. } => wide_ints.as_slice(),
                    _ => &[],
                }
                .iter()
                .peekable();
                for r in 0..n {
                    if self.validity.as_ref().is_some_and(|v| !v.get(r)) {
                        codes.push(dict.code(""));
                        continue;
                    }
                    let cell = match &old {
                        Cells::Bool(v) => Cell::Bool(v[r]),
                        Cells::Int(v) => Cell::Int(v[r]),
                        Cells::Float { values, .. } => match wide.next_if(|w| w.0 == r) {
                            Some(&(_, i)) => Cell::Int(i),
                            None => Cell::Float(values[r]),
                        },
                        Cells::Untyped | Cells::Str { .. } => {
                            unreachable!("untyped columns hold only NULLs; TEXT never widens")
                        }
                    };
                    codes.push(dict.code(cell.text(&mut self.text)));
                }
                Cells::Str { codes, dict }
            }
            _ => unreachable!("the lattice only widens ∅ → Bool | Int → Float → Str"),
        };
    }

    fn finish(mut self) -> Column {
        if matches!(self.cells, Cells::Untyped) {
            self.widen(DataType::Str);
        }
        match self.cells {
            Cells::Bool(v) => Column::from_bool_opt(v, self.validity),
            Cells::Int(v) => Column::from_i64_opt(v, self.validity),
            Cells::Float { values, .. } => Column::from_f64_opt(values, self.validity),
            Cells::Str { codes, dict } => Column::from_dict_parts(codes, dict, self.validity),
            Cells::Untyped => unreachable!("widened to TEXT above"),
        }
    }
}

/// True if `i as f64` may display differently from `i`.
fn is_wide(i: i64) -> bool {
    i.unsigned_abs() >= 1 << 53
}

/// The reader's state between physical lines.
#[derive(Default)]
struct Ingest {
    names: Vec<String>,
    columns: Vec<ColumnParser>,
    /// 1-based number of the last line consumed; 0 before the header.
    line_no: usize,
    scratch: String,
}

impl Ingest {
    /// Consume one physical line (without its `\n`).
    fn line(&mut self, line: &str) -> Result<()> {
        self.line_no += 1;
        let line = line.trim_end_matches('\r');
        if self.line_no == 1 {
            return self.header(line);
        }
        if line.is_empty() {
            return Ok(());
        }
        let columns = &mut self.columns;
        let count = split_record(line, &mut self.scratch, |c, field| {
            // Fields beyond the header's arity fail the count check below.
            if let Some(column) = columns.get_mut(c) {
                column.push(field);
            }
        })
        .map_err(|e| StorageError::InvalidValue(format!("line {}: {e}", self.line_no)))?;
        if count != columns.len() {
            return Err(StorageError::LengthMismatch {
                expected: columns.len(),
                actual: count,
                context: format!("CSV line {}", self.line_no),
            });
        }
        Ok(())
    }

    fn header(&mut self, line: &str) -> Result<()> {
        // Spreadsheet and data-portal exports lead with a UTF-8 BOM.
        let line = line.strip_prefix('\u{feff}').unwrap_or(line);
        let names = &mut self.names;
        split_record(line, &mut self.scratch, |_, name| {
            names.push(name.to_string())
        })
        .map_err(|e| StorageError::InvalidValue(e.into()))?;
        // `Schema` resolves names case-insensitively to the first match, so
        // a repeated name would be a column no query can reach.
        for (c, name) in names.iter().enumerate() {
            if name.is_empty() {
                return Err(StorageError::InvalidValue(format!(
                    "CSV header: column {} has an empty name",
                    c + 1
                )));
            }
            if let Some(first) = names[..c].iter().position(|n| n.eq_ignore_ascii_case(name)) {
                return Err(StorageError::InvalidValue(format!(
                    "CSV header: duplicate column name {name:?} (columns {} and {})",
                    first + 1,
                    c + 1
                )));
            }
        }
        self.columns.resize_with(names.len(), ColumnParser::default);
        Ok(())
    }

    fn finish(self) -> Result<Table> {
        if self.line_no == 0 {
            return Err(StorageError::InvalidValue("empty CSV input".into()));
        }
        let columns: Vec<Column> = self.columns.into_iter().map(ColumnParser::finish).collect();
        let fields = self
            .names
            .into_iter()
            .zip(&columns)
            .map(|(name, c)| Field::new(name, c.data_type()))
            .collect();
        Table::new(Schema::new(fields), columns)
    }
}

/// Read a CSV with a header row from any reader, inferring column types.
pub fn read_csv(mut reader: impl BufRead) -> Result<Table> {
    let mut ingest = Ingest::default();
    let mut line = String::new();
    loop {
        line.clear();
        let read = reader
            .read_line(&mut line)
            .map_err(|e| StorageError::InvalidValue(format!("io error: {e}")))?;
        if read == 0 {
            return ingest.finish();
        }
        ingest.line(line.strip_suffix('\n').unwrap_or(&line))?;
    }
}

/// Read a CSV from an in-memory string.
pub fn read_csv_str(data: &str) -> Result<Table> {
    let mut ingest = Ingest::default();
    for line in data.lines() {
        ingest.line(line)?;
    }
    ingest.finish()
}

/// Read a CSV from a file path.
pub fn read_csv_path(path: impl AsRef<std::path::Path>) -> Result<Table> {
    let f = std::fs::File::open(path)
        .map_err(|e| StorageError::InvalidValue(format!("cannot open CSV: {e}")))?;
    read_csv(std::io::BufReader::new(f))
}

fn escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Write a table as CSV (header + rows; NULLs as empty fields).
pub fn write_csv(table: &Table, mut writer: impl Write) -> Result<()> {
    let io_err = |e: std::io::Error| StorageError::InvalidValue(format!("io error: {e}"));
    let header: Vec<String> = table
        .schema()
        .fields()
        .iter()
        .map(|f| escape(&f.name))
        .collect();
    writeln!(writer, "{}", header.join(",")).map_err(io_err)?;
    for r in 0..table.num_rows() {
        let row: Vec<String> = (0..table.num_columns())
            .map(|c| match table.value(r, c) {
                Value::Null => String::new(),
                Value::Str(s) => escape(&s),
                other => other.to_string(),
            })
            .collect();
        writeln!(writer, "{}", row.join(",")).map_err(io_err)?;
    }
    Ok(())
}

/// Render a table as a CSV string.
pub fn write_csv_string(table: &Table) -> Result<String> {
    let mut buf = Vec::new();
    write_csv(table, &mut buf)?;
    String::from_utf8(buf).map_err(|e| StorageError::InvalidValue(e.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_inferred_types() {
        let t =
            read_csv_str("name,age,score,member\nalice,30,1.5,true\nbob,41,2.0,false\n").unwrap();
        assert_eq!(t.num_rows(), 2);
        assert_eq!(t.schema().field(0).data_type, DataType::Str);
        assert_eq!(t.schema().field(1).data_type, DataType::Int);
        assert_eq!(t.schema().field(2).data_type, DataType::Float);
        assert_eq!(t.schema().field(3).data_type, DataType::Bool);
        let s = write_csv_string(&t).unwrap();
        let t2 = read_csv_str(&s).unwrap();
        assert_eq!(t2.value(1, 1), Value::Int(41));
        assert_eq!(t2.value(0, 3), Value::Bool(true));
    }

    #[test]
    fn quoted_fields_with_commas() {
        let t = read_csv_str("a,b\n\"x, y\",1\n\"he said \"\"hi\"\"\",2\n").unwrap();
        assert_eq!(t.value(0, 0), Value::Str("x, y".into()));
        assert_eq!(t.value(1, 0), Value::Str("he said \"hi\"".into()));
        // Round trip preserves quoting.
        let s = write_csv_string(&t).unwrap();
        let t2 = read_csv_str(&s).unwrap();
        assert_eq!(t2.value(0, 0), t.value(0, 0));
    }

    #[test]
    fn empty_fields_are_null() {
        let t = read_csv_str("a,b\n1,\n,2\n").unwrap();
        assert!(t.column(1).is_null(0));
        assert!(t.column(0).is_null(1));
        assert_eq!(t.value(0, 0), Value::Int(1));
    }

    #[test]
    fn mixed_int_float_widens() {
        let t = read_csv_str("x\n1\n2.5\n").unwrap();
        assert_eq!(t.schema().field(0).data_type, DataType::Float);
        assert_eq!(t.value(0, 0), Value::Float(1.0));
    }

    #[test]
    fn mixed_numeric_string_becomes_string() {
        let t = read_csv_str("x\n1\nabc\n").unwrap();
        assert_eq!(t.schema().field(0).data_type, DataType::Str);
        assert_eq!(t.value(0, 0), Value::Str("1".into()));
    }

    #[test]
    fn arity_mismatch_is_error() {
        assert!(read_csv_str("a,b\n1\n").is_err());
        assert!(read_csv_str("").is_err());
        assert!(read_csv_str("a\n\"unterminated\n").is_err());
    }

    #[test]
    fn leading_bom_is_stripped() {
        for t in [
            read_csv_str("\u{feff}a,b\n1,2\n").unwrap(),
            read_csv("\u{feff}\"a\",b\r\n1,2\r\n".as_bytes()).unwrap(),
        ] {
            assert_eq!(t.schema().field(0).name, "a");
            assert_eq!(t.column_by_name("a").unwrap().value(0), Value::Int(1));
        }
        // Only the file's first bytes are a BOM; elsewhere it is data.
        let t = read_csv_str("a\n\u{feff}x\n").unwrap();
        assert_eq!(t.value(0, 0), Value::Str("\u{feff}x".into()));
    }

    #[test]
    fn duplicate_and_empty_header_names_are_rejected() {
        let err = |csv: &str| match read_csv_str(csv) {
            Err(StorageError::InvalidValue(m)) => m,
            other => panic!("{csv:?} gave {other:?}"),
        };
        let m = err("a,b,A\n1,2,3\n");
        assert!(m.contains("\"A\"") && m.contains("columns 1 and 3"), "{m}");
        assert!(err("a,\n1,2\n").contains("column 2"));
        assert!(err("\"\",b\n").contains("column 1"));
        // A blank first line is a header with one empty name.
        assert!(err("\na\n1\n").contains("empty name"));
    }

    #[test]
    fn crlf_line_endings() {
        let t = read_csv_str("a,b\r\n1,x\r\n").unwrap();
        assert_eq!(t.value(0, 1), Value::Str("x".into()));
    }
}
