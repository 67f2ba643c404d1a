use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use crate::schema::DataType;

/// A dynamically typed SQL scalar value.
///
/// `Value` is the unit of exchange between the parser, the executor, and the
/// statistics layer (marginal cells are keyed by tuples of `Value`s). It
/// implements a *total* equality and hash (floats compared by bit pattern) so
/// it can key hash maps, plus SQL-flavoured comparison helpers that coerce
/// between [`Value::Int`] and [`Value::Float`].
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// Boolean.
    Bool(bool),
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(String),
}

impl Value {
    /// The [`DataType`] of this value, or `None` for NULL.
    pub fn data_type(&self) -> Option<DataType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(DataType::Bool),
            Value::Int(_) => Some(DataType::Int),
            Value::Float(_) => Some(DataType::Float),
            Value::Str(_) => Some(DataType::Str),
        }
    }

    /// True iff this is [`Value::Null`].
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Numeric view of the value (ints widen to floats); `None` for
    /// non-numeric values.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            Value::Bool(b) => Some(if *b { 1.0 } else { 0.0 }),
            _ => None,
        }
    }

    /// Integer view of the value; floats are rejected unless they are whole.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            Value::Float(f) if f.fract() == 0.0 => Some(*f as i64),
            Value::Bool(b) => Some(*b as i64),
            _ => None,
        }
    }

    /// String view of the value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// SQL comparison with numeric coercion. Returns `None` when either side
    /// is NULL or the types are incomparable (SQL three-valued logic).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                x.partial_cmp(&y)
            }
        }
    }

    /// Total ordering for sorting: NULLs first, then by type, then by value
    /// (floats via `total_cmp`, numerics coerced).
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Bool(a), Bool(b)) => a.cmp(b),
            (Str(a), Str(b)) => a.cmp(b),
            (Int(a), Int(b)) => a.cmp(b),
            (Float(a), Float(b)) => a.total_cmp(b),
            (Int(a), Float(b)) => (*a as f64).total_cmp(b),
            (Float(a), Int(b)) => a.total_cmp(&(*b as f64)),
            // Heterogeneous non-numeric pairs: order by type tag for stability.
            (a, b) => type_rank(a).cmp(&type_rank(b)),
        }
    }

    /// Coerce this value to the given data type if losslessly possible.
    pub fn coerce_to(&self, ty: DataType) -> Option<Value> {
        match (self, ty) {
            (Value::Null, _) => Some(Value::Null),
            (Value::Int(i), DataType::Float) => Some(Value::Float(*i as f64)),
            (Value::Float(f), DataType::Int) if f.fract() == 0.0 => Some(Value::Int(*f as i64)),
            (v, ty) if v.data_type() == Some(ty) => Some(v.clone()),
            _ => None,
        }
    }
}

fn type_rank(v: &Value) -> u8 {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int(_) => 2,
        Value::Float(_) => 2,
        Value::Str(_) => 3,
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        match (self, other) {
            (Value::Null, Value::Null) => true,
            (Value::Bool(a), Value::Bool(b)) => a == b,
            (Value::Int(a), Value::Int(b)) => a == b,
            (Value::Float(a), Value::Float(b)) => a.to_bits() == b.to_bits(),
            (Value::Int(a), Value::Float(b)) | (Value::Float(b), Value::Int(a)) => {
                *b == *a as f64 && b.fract() == 0.0
            }
            (Value::Str(a), Value::Str(b)) => a == b,
            _ => false,
        }
    }
}

impl Eq for Value {}

impl Hash for Value {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Value::Null => state.write_u8(0),
            Value::Bool(b) => {
                state.write_u8(1);
                b.hash(state);
            }
            // Ints and whole floats must hash identically because they
            // compare equal (see PartialEq above).
            Value::Int(i) => {
                state.write_u8(2);
                state.write_i64(*i);
            }
            Value::Float(f) => {
                if f.fract() == 0.0 && f.is_finite() && f.abs() < i64::MAX as f64 {
                    state.write_u8(2);
                    state.write_i64(*f as i64);
                } else {
                    state.write_u8(3);
                    state.write_u64(f.to_bits());
                }
            }
            Value::Str(s) => {
                state.write_u8(4);
                s.hash(state);
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn numeric_coercion_eq_and_hash_agree() {
        let a = Value::Int(3);
        let b = Value::Float(3.0);
        assert_eq!(a, b);
        let mut m = HashMap::new();
        m.insert(a, 1);
        assert!(m.contains_key(&b));
    }

    #[test]
    fn null_compares_as_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
    }

    #[test]
    fn sql_cmp_coerces_int_float() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(3.0).sql_cmp(&Value::Int(3)),
            Some(Ordering::Equal)
        );
    }

    #[test]
    fn total_cmp_sorts_nulls_first() {
        let mut vs = [Value::Int(2), Value::Null, Value::Int(1)];
        vs.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(vs[0], Value::Null);
        assert_eq!(vs[1], Value::Int(1));
    }

    #[test]
    fn display_round_trips_simply() {
        assert_eq!(Value::Str("x".into()).to_string(), "x");
        assert_eq!(Value::Null.to_string(), "NULL");
        assert_eq!(Value::Bool(true).to_string(), "true");
    }

    #[test]
    fn coerce_to_float_widens_int() {
        assert_eq!(
            Value::Int(7).coerce_to(DataType::Float),
            Some(Value::Float(7.0))
        );
        assert_eq!(Value::Float(7.5).coerce_to(DataType::Int), None);
    }
}
