use std::fmt;
use std::sync::Arc;

use crate::{Bitmap, Column, ColumnBuilder, Result, Schema, StorageError, Value};

/// An immutable, in-memory, columnar table.
///
/// All of Mosaic's relations (auxiliary tables, sample data, generated
/// populations, query results) are `Table`s.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Arc<Schema>,
    columns: Vec<Column>,
    num_rows: usize,
}

impl Table {
    /// Assemble a table from a schema and matching columns.
    pub fn new(schema: Arc<Schema>, columns: Vec<Column>) -> Result<Table> {
        if schema.len() != columns.len() {
            return Err(StorageError::SchemaMismatch(format!(
                "schema has {} fields but {} columns were provided",
                schema.len(),
                columns.len()
            )));
        }
        let num_rows = columns.first().map_or(0, Column::len);
        for (i, c) in columns.iter().enumerate() {
            if c.len() != num_rows {
                return Err(StorageError::LengthMismatch {
                    expected: num_rows,
                    actual: c.len(),
                    context: format!("column {} ({})", i, schema.field(i).name),
                });
            }
            if c.data_type() != schema.field(i).data_type {
                return Err(StorageError::TypeMismatch {
                    expected: schema.field(i).data_type.to_string(),
                    actual: c.data_type().to_string(),
                    context: format!("column {} ({})", i, schema.field(i).name),
                });
            }
        }
        Ok(Table {
            schema,
            columns,
            num_rows,
        })
    }

    /// Empty table with the given schema.
    pub fn empty(schema: Arc<Schema>) -> Table {
        let columns = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type).finish())
            .collect();
        Table {
            schema,
            columns,
            num_rows: 0,
        }
    }

    /// Table schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.num_rows == 0
    }

    /// Column at position `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Column by (case-insensitive) name.
    pub fn column_by_name(&self, name: &str) -> Result<&Column> {
        self.schema.index_of(name).map(|i| &self.columns[i])
    }

    /// All columns.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// Dynamic value at `(row, col)`.
    pub fn value(&self, row: usize, col: usize) -> Value {
        self.columns[col].value(row)
    }

    /// Materialize row `row` as a `Vec<Value>`.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// Iterate rows as `Vec<Value>` (materializing; prefer columnar access
    /// in hot paths).
    pub fn rows(&self) -> impl Iterator<Item = Vec<Value>> + '_ {
        (0..self.num_rows).map(move |i| self.row(i))
    }

    /// Approximate heap footprint of the table in bytes: the sum of its
    /// columns' [`Column::approx_bytes`]. Shared payloads may be counted
    /// once per referencing column — this is the cheap upper-bound
    /// estimate cache admission and eviction budgets use, not an
    /// allocator report.
    pub fn approx_bytes(&self) -> usize {
        self.columns.iter().map(Column::approx_bytes).sum()
    }

    /// Gather rows by index into a new table.
    pub fn take(&self, indices: &[usize]) -> Table {
        Table {
            schema: Arc::clone(&self.schema),
            columns: self.columns.iter().map(|c| c.take(indices)).collect(),
            num_rows: indices.len(),
        }
    }

    /// Keep rows with a set selection bit.
    pub fn filter(&self, selection: &Bitmap) -> Table {
        assert_eq!(selection.len(), self.num_rows, "selection length mismatch");
        self.take(&selection.to_indices())
    }

    /// Zero-copy view of rows `[offset, offset + len)`: every column
    /// keeps sharing its payload (see [`Column::slice`]). This is how the
    /// morsel-driven executor splits a scan into worker-sized units.
    pub fn slice(&self, offset: usize, len: usize) -> Table {
        Table {
            schema: Arc::clone(&self.schema),
            columns: self.columns.iter().map(|c| c.slice(offset, len)).collect(),
            num_rows: len,
        }
    }

    /// Vertically concatenate many schema-compatible tables in one pass
    /// per column ([`Column::concat_many`]) — the materializing merge of
    /// per-morsel outputs. With a single input this is an O(1) clone.
    pub fn vstack(parts: &[&Table]) -> Result<Table> {
        let Some(first) = parts.first() else {
            return Err(StorageError::SchemaMismatch(
                "Table::vstack needs at least one input".into(),
            ));
        };
        if parts.len() == 1 {
            return Ok((*first).clone());
        }
        for p in &parts[1..] {
            if !first.schema.compatible_with(p.schema()) {
                return Err(StorageError::SchemaMismatch(format!(
                    "cannot vstack {} with {}",
                    first.schema, p.schema
                )));
            }
        }
        let columns = (0..first.num_columns())
            .map(|c| {
                let cols: Vec<&Column> = parts.iter().map(|p| p.column(c)).collect();
                Column::concat_many(&cols)
            })
            .collect::<Result<Vec<_>>>()?;
        Table::new(Arc::clone(&first.schema), columns)
    }

    /// Table with every plain string column dictionary-encoded (see
    /// [`Column::dict_encoded`]); non-string columns pass through as O(1)
    /// clones. For tables built row-wise (`INSERT`, `TableBuilder`); CSV
    /// ingest encodes during its scan and never holds plain strings.
    pub fn dict_encoded(&self) -> Table {
        Table {
            schema: Arc::clone(&self.schema),
            columns: self.columns.iter().map(|c| c.dict_encoded()).collect(),
            num_rows: self.num_rows,
        }
    }

    /// Project columns by name into a new table.
    pub fn project(&self, names: &[&str]) -> Result<Table> {
        let schema = self.schema.project(names)?;
        let columns = names
            .iter()
            .map(|n| self.column_by_name(n).cloned())
            .collect::<Result<Vec<_>>>()?;
        Table::new(schema, columns)
    }

    /// Vertically concatenate with a schema-compatible table.
    pub fn concat(&self, other: &Table) -> Result<Table> {
        if !self.schema.compatible_with(other.schema()) {
            return Err(StorageError::SchemaMismatch(format!(
                "cannot concat {} with {}",
                self.schema, other.schema
            )));
        }
        let columns = self
            .columns
            .iter()
            .zip(other.columns.iter())
            .map(|(a, b)| a.concat(b))
            .collect::<Result<Vec<_>>>()?;
        Table::new(Arc::clone(&self.schema), columns)
    }

    /// First `n` rows.
    pub fn limit(&self, n: usize) -> Table {
        let indices: Vec<usize> = (0..self.num_rows.min(n)).collect();
        self.take(&indices)
    }

    /// Render as an aligned ASCII table (used by examples and the `mosaic`
    /// shell).
    pub fn to_pretty_string(&self) -> String {
        let headers: Vec<String> = self
            .schema
            .fields()
            .iter()
            .map(|f| f.name.clone())
            .collect();
        let mut widths: Vec<usize> = headers.iter().map(String::len).collect();
        let mut cells: Vec<Vec<String>> = Vec::with_capacity(self.num_rows);
        for r in 0..self.num_rows {
            let row: Vec<String> = (0..self.num_columns())
                .map(|c| match self.value(r, c) {
                    Value::Float(f) => format!("{f:.4}"),
                    v => v.to_string(),
                })
                .collect();
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
            cells.push(row);
        }
        let mut out = String::new();
        let sep = |out: &mut String| {
            out.push('+');
            for w in &widths {
                out.push_str(&"-".repeat(w + 2));
                out.push('+');
            }
            out.push('\n');
        };
        sep(&mut out);
        out.push('|');
        for (h, w) in headers.iter().zip(&widths) {
            out.push_str(&format!(" {h:<w$} |"));
        }
        out.push('\n');
        sep(&mut out);
        for row in &cells {
            out.push('|');
            for (cell, w) in row.iter().zip(&widths) {
                out.push_str(&format!(" {cell:<w$} |"));
            }
            out.push('\n');
        }
        sep(&mut out);
        out
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_pretty_string())
    }
}

/// Row-oriented, type-checked table construction.
#[derive(Debug)]
pub struct TableBuilder {
    schema: Arc<Schema>,
    builders: Vec<ColumnBuilder>,
}

impl TableBuilder {
    /// New builder for `schema`.
    pub fn new(schema: Arc<Schema>) -> Self {
        let builders = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::new(f.data_type))
            .collect();
        TableBuilder { schema, builders }
    }

    /// New builder with a row-capacity hint.
    pub fn with_capacity(schema: Arc<Schema>, capacity: usize) -> Self {
        let builders = schema
            .fields()
            .iter()
            .map(|f| ColumnBuilder::with_capacity(f.data_type, capacity))
            .collect();
        TableBuilder { schema, builders }
    }

    /// Append one row; its arity and types must match the schema.
    pub fn push_row(&mut self, row: Vec<Value>) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(StorageError::LengthMismatch {
                expected: self.schema.len(),
                actual: row.len(),
                context: "TableBuilder::push_row".into(),
            });
        }
        for (i, v) in row.into_iter().enumerate() {
            if v.is_null() && !self.schema.field(i).nullable {
                return Err(StorageError::InvalidValue(format!(
                    "NULL in non-nullable column {}",
                    self.schema.field(i).name
                )));
            }
            self.builders[i].push(v)?;
        }
        Ok(())
    }

    /// Rows appended so far.
    pub fn len(&self) -> usize {
        self.builders.first().map_or(0, ColumnBuilder::len)
    }

    /// True if no rows were appended.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Finish into an immutable [`Table`].
    pub fn finish(self) -> Table {
        let num_rows = self.len();
        Table {
            schema: self.schema,
            columns: self
                .builders
                .into_iter()
                .map(ColumnBuilder::finish)
                .collect(),
            num_rows,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{DataType, Field};

    fn sample_table() -> Table {
        let schema = Schema::new(vec![
            Field::new("id", DataType::Int),
            Field::new("name", DataType::Str),
            Field::new("score", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        b.push_row(vec![1.into(), "alice".into(), 3.5.into()])
            .unwrap();
        b.push_row(vec![2.into(), "bob".into(), 1.0.into()])
            .unwrap();
        b.push_row(vec![3.into(), "carol".into(), 2.25.into()])
            .unwrap();
        b.finish()
    }

    #[test]
    fn build_and_access() {
        let t = sample_table();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.value(1, 1), Value::Str("bob".into()));
        assert_eq!(t.column_by_name("SCORE").unwrap().f64_at(2), Some(2.25));
    }

    #[test]
    fn push_row_arity_checked() {
        let t = sample_table();
        let mut b = TableBuilder::new(Arc::clone(t.schema()));
        assert!(b.push_row(vec![1.into()]).is_err());
    }

    #[test]
    fn filter_and_project() {
        let t = sample_table();
        let sel = Bitmap::from_iter([true, false, true]);
        let f = t.filter(&sel);
        assert_eq!(f.num_rows(), 2);
        let p = f.project(&["name"]).unwrap();
        assert_eq!(p.num_columns(), 1);
        assert_eq!(p.value(1, 0), Value::Str("carol".into()));
    }

    #[test]
    fn concat_compatible() {
        let t = sample_table();
        let c = t.concat(&t).unwrap();
        assert_eq!(c.num_rows(), 6);
    }

    #[test]
    fn slice_then_vstack_roundtrips() {
        let t = sample_table();
        let (a, b) = (t.slice(0, 2), t.slice(2, 1));
        assert_eq!(a.num_rows(), 2);
        assert_eq!(b.value(0, 1), Value::Str("carol".into()));
        let whole = Table::vstack(&[&a, &b]).unwrap();
        assert_eq!(whole.num_rows(), 3);
        for r in 0..3 {
            for c in 0..3 {
                assert_eq!(whole.value(r, c), t.value(r, c), "cell ({r},{c})");
            }
        }
        assert!(Table::vstack(&[]).is_err());
    }

    #[test]
    fn table_new_validates_lengths() {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("b", DataType::Int),
        ]);
        let cols = vec![Column::from_i64(vec![1, 2]), Column::from_i64(vec![1])];
        assert!(Table::new(schema, cols).is_err());
    }

    #[test]
    fn table_new_validates_types() {
        let schema = Schema::new(vec![Field::new("a", DataType::Int)]);
        let cols = vec![Column::from_f64(vec![1.0])];
        assert!(Table::new(schema, cols).is_err());
    }

    #[test]
    fn pretty_print_contains_headers() {
        let t = sample_table();
        let s = t.to_pretty_string();
        assert!(s.contains("name"));
        assert!(s.contains("alice"));
    }

    #[test]
    fn limit_truncates() {
        let t = sample_table();
        assert_eq!(t.limit(2).num_rows(), 2);
        assert_eq!(t.limit(10).num_rows(), 3);
    }

    #[test]
    fn non_nullable_rejects_null() {
        let schema = Schema::new(vec![Field::required("a", DataType::Int)]);
        let mut b = TableBuilder::new(schema);
        assert!(b.push_row(vec![Value::Null]).is_err());
    }
}
