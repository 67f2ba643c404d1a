use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::{Result, StorageError};

/// Physical data type of a column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// Boolean.
    Bool,
    /// 64-bit signed integer.
    Int,
    /// 64-bit float.
    Float,
    /// UTF-8 string.
    Str,
}

impl DataType {
    /// Parse a SQL-ish type name (`INT`, `BIGINT`, `FLOAT`, `DOUBLE`,
    /// `REAL`, `TEXT`, `VARCHAR`, `BOOL`, ...).
    pub fn parse_sql(name: &str) -> Option<DataType> {
        match name.to_ascii_uppercase().as_str() {
            "INT" | "INTEGER" | "BIGINT" | "SMALLINT" => Some(DataType::Int),
            "FLOAT" | "DOUBLE" | "REAL" | "DECIMAL" | "NUMERIC" => Some(DataType::Float),
            "TEXT" | "VARCHAR" | "CHAR" | "STRING" => Some(DataType::Str),
            "BOOL" | "BOOLEAN" => Some(DataType::Bool),
            _ => None,
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Bool => "BOOL",
            DataType::Int => "INT",
            DataType::Float => "FLOAT",
            DataType::Str => "TEXT",
        };
        f.write_str(s)
    }
}

/// A named, typed column in a [`Schema`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Field {
    /// Column name (matched case-insensitively by the SQL layer).
    pub name: String,
    /// Physical type.
    pub data_type: DataType,
    /// Whether NULLs are permitted.
    pub nullable: bool,
}

impl Field {
    /// A nullable field.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
            nullable: true,
        }
    }

    /// A non-nullable field.
    pub fn required(name: impl Into<String>, data_type: DataType) -> Self {
        Field {
            name: name.into(),
            data_type,
            nullable: false,
        }
    }
}

/// An ordered collection of [`Field`]s with O(1) name lookup.
#[derive(Debug, Clone)]
pub struct Schema {
    fields: Vec<Field>,
    index: HashMap<String, usize>,
}

impl Schema {
    /// Build a schema from fields. Duplicate names (case-insensitive) keep
    /// the first occurrence in the lookup index.
    pub fn new(fields: Vec<Field>) -> Arc<Schema> {
        let mut index = HashMap::with_capacity(fields.len());
        for (i, f) in fields.iter().enumerate() {
            index.entry(f.name.to_ascii_lowercase()).or_insert(i);
        }
        Arc::new(Schema { fields, index })
    }

    /// All fields in order.
    pub fn fields(&self) -> &[Field] {
        &self.fields
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the schema has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Field at position `i`.
    pub fn field(&self, i: usize) -> &Field {
        &self.fields[i]
    }

    /// Case-insensitive lookup of a column's position.
    pub fn index_of(&self, name: &str) -> Result<usize> {
        self.index
            .get(&name.to_ascii_lowercase())
            .copied()
            .ok_or_else(|| StorageError::ColumnNotFound(name.to_owned()))
    }

    /// Case-insensitive lookup of a field by name.
    pub fn field_by_name(&self, name: &str) -> Result<&Field> {
        self.index_of(name).map(|i| &self.fields[i])
    }

    /// True if a column with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.index.contains_key(&name.to_ascii_lowercase())
    }

    /// Structural equality on (name, type) pairs, ignoring nullability.
    pub fn compatible_with(&self, other: &Schema) -> bool {
        self.fields.len() == other.fields.len()
            && self
                .fields
                .iter()
                .zip(other.fields.iter())
                .all(|(a, b)| a.name.eq_ignore_ascii_case(&b.name) && a.data_type == b.data_type)
    }

    /// Project a subset of columns (by name) into a new schema.
    pub fn project(&self, names: &[&str]) -> Result<Arc<Schema>> {
        let fields = names
            .iter()
            .map(|n| self.field_by_name(n).cloned())
            .collect::<Result<Vec<_>>>()?;
        Ok(Schema::new(fields))
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, field) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{} {}", field.name, field.data_type)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Arc<Schema> {
        Schema::new(vec![
            Field::new("a", DataType::Int),
            Field::new("B", DataType::Str),
        ])
    }

    #[test]
    fn lookup_is_case_insensitive() {
        let s = schema();
        assert_eq!(s.index_of("A").unwrap(), 0);
        assert_eq!(s.index_of("b").unwrap(), 1);
        assert!(s.index_of("c").is_err());
    }

    #[test]
    fn project_preserves_types() {
        let s = schema();
        let p = s.project(&["b"]).unwrap();
        assert_eq!(p.len(), 1);
        assert_eq!(p.field(0).data_type, DataType::Str);
    }

    #[test]
    fn parse_sql_types() {
        assert_eq!(DataType::parse_sql("double"), Some(DataType::Float));
        assert_eq!(DataType::parse_sql("VARCHAR"), Some(DataType::Str));
        assert_eq!(DataType::parse_sql("blob"), None);
    }

    #[test]
    fn compatible_ignores_case_and_nullability() {
        let a = Schema::new(vec![Field::new("x", DataType::Int)]);
        let b = Schema::new(vec![Field::required("X", DataType::Int)]);
        assert!(a.compatible_with(&b));
    }
}
