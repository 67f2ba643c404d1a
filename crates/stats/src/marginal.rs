use std::collections::HashMap;
use std::fmt;

use mosaic_storage::{Table, Value};

use crate::Binner;

/// A weighted k-dimensional histogram over named attributes — Mosaic's
/// "population metadata" (paper §3.2).
///
/// The paper focuses on 1- and 2-dimensional marginals ("these histograms
/// (marginals) are commonly released by corporations or governments"), but
/// nothing here restricts the dimensionality.
#[derive(Debug, Clone, PartialEq)]
pub struct Marginal {
    attrs: Vec<String>,
    cells: HashMap<Vec<Value>, f64>,
}

impl Marginal {
    /// Empty marginal over the given attributes.
    pub fn new(attrs: Vec<String>) -> Self {
        assert!(!attrs.is_empty(), "marginal needs at least one attribute");
        Marginal {
            attrs,
            cells: HashMap::new(),
        }
    }

    /// Build a marginal by (weighted) group-by count over a table.
    ///
    /// `weights` defaults to all-ones; `binners` optionally discretize
    /// continuous attributes before cell formation.
    pub fn from_table(
        table: &Table,
        attrs: &[&str],
        weights: Option<&[f64]>,
        binners: &HashMap<String, Binner>,
    ) -> mosaic_storage::Result<Marginal> {
        let cols = attrs
            .iter()
            .map(|a| table.column_by_name(a))
            .collect::<mosaic_storage::Result<Vec<_>>>()?;
        let col_binners: Vec<Option<&Binner>> = attrs
            .iter()
            .map(|a| {
                binners
                    .get(*a)
                    .or_else(|| binners.get(&a.to_ascii_lowercase()))
            })
            .collect();
        let mut m = Marginal::new(attrs.iter().map(|s| s.to_string()).collect());
        for row in 0..table.num_rows() {
            let key: Vec<Value> = cols
                .iter()
                .zip(&col_binners)
                .map(|(c, b)| apply_binner(c.value(row), *b))
                .collect();
            let w = weights.map_or(1.0, |w| w[row]);
            m.add(key, w);
        }
        Ok(m)
    }

    /// Attribute names, in cell-key order.
    pub fn attrs(&self) -> &[String] {
        &self.attrs
    }

    /// Dimensionality (1 for 1-D marginals, 2 for attribute pairs, ...).
    pub fn dim(&self) -> usize {
        self.attrs.len()
    }

    /// Number of distinct cells.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// Add `count` to a cell (creating it if absent).
    pub fn add(&mut self, key: Vec<Value>, count: f64) {
        assert_eq!(key.len(), self.attrs.len(), "cell key arity mismatch");
        *self.cells.entry(key).or_insert(0.0) += count;
    }

    /// Set a cell's count outright.
    pub fn set(&mut self, key: Vec<Value>, count: f64) {
        assert_eq!(key.len(), self.attrs.len(), "cell key arity mismatch");
        self.cells.insert(key, count);
    }

    /// Count for a cell, if present.
    pub fn get(&self, key: &[Value]) -> Option<f64> {
        self.cells.get(key).copied()
    }

    /// Iterate `(cell key, count)` pairs in arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<Value>, f64)> + '_ {
        self.cells.iter().map(|(k, &v)| (k, v))
    }

    /// Total mass (the implied population size when this is a count
    /// marginal over the whole population).
    pub fn total(&self) -> f64 {
        self.cells.values().sum()
    }

    /// Project a (k>1)-dim marginal down to a subset of its attributes.
    pub fn project(&self, attrs: &[&str]) -> Option<Marginal> {
        let idx: Vec<usize> = attrs
            .iter()
            .map(|a| self.attrs.iter().position(|x| x.eq_ignore_ascii_case(a)))
            .collect::<Option<Vec<_>>>()?;
        let mut m = Marginal::new(attrs.iter().map(|s| s.to_string()).collect());
        for (key, count) in self.iter() {
            let sub: Vec<Value> = idx.iter().map(|&i| key[i].clone()).collect();
            m.add(sub, count);
        }
        Some(m)
    }

    /// Scale every cell so the total equals `target_total`.
    pub fn rescale(&mut self, target_total: f64) {
        let t = self.total();
        if t > 0.0 {
            let f = target_total / t;
            for v in self.cells.values_mut() {
                *v *= f;
            }
        }
    }

    /// True if this marginal covers attribute `name` (case-insensitive).
    pub fn covers(&self, name: &str) -> bool {
        self.attrs.iter().any(|a| a.eq_ignore_ascii_case(name))
    }

    /// The marginal's cells as `(f64 value, weight)` pairs, for 1-D numeric
    /// marginals. Returns `None` if the marginal is not 1-D or any cell key
    /// is non-numeric.
    pub fn to_numeric_pairs(&self) -> Option<Vec<(f64, f64)>> {
        if self.dim() != 1 {
            return None;
        }
        let mut out = Vec::with_capacity(self.cells.len());
        for (k, c) in self.iter() {
            out.push((k[0].as_f64()?, c));
        }
        Some(out)
    }
}

/// Binned cells are keyed by the **bin midpoint** (not the bin index):
/// the midpoint is a real coordinate, so downstream consumers that embed
/// marginal cells into attribute space (the M-SWG encoder) and consumers
/// that only need consistent discrete keys (IPF) can share one
/// representation.
pub(crate) fn apply_binner(v: Value, binner: Option<&Binner>) -> Value {
    match (binner, v) {
        (Some(b), v) => match v.as_f64() {
            Some(x) => Value::Float(b.midpoint(b.bin(x))),
            None => v,
        },
        (None, v) => v,
    }
}

impl fmt::Display for Marginal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Marginal({}; {} cells, total {:.1})",
            self.attrs.join(", "),
            self.num_cells(),
            self.total()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_storage::{DataType, Field, Schema, TableBuilder};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("country", DataType::Str),
            Field::new("email", DataType::Str),
            Field::new("age", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        for (c, e, a) in [
            ("UK", "Yahoo", 30.0),
            ("UK", "AOL", 40.0),
            ("FR", "Yahoo", 25.0),
            ("FR", "Yahoo", 35.0),
        ] {
            b.push_row(vec![c.into(), e.into(), a.into()]).unwrap();
        }
        b.finish()
    }

    #[test]
    fn from_table_counts_groups() {
        let t = table();
        let m = Marginal::from_table(&t, &["country"], None, &HashMap::new()).unwrap();
        assert_eq!(m.get(&["UK".into()]), Some(2.0));
        assert_eq!(m.get(&["FR".into()]), Some(2.0));
        assert_eq!(m.total(), 4.0);
    }

    #[test]
    fn from_table_weighted() {
        let t = table();
        let w = [1.0, 2.0, 3.0, 4.0];
        let m = Marginal::from_table(&t, &["email"], Some(&w), &HashMap::new()).unwrap();
        assert_eq!(m.get(&["Yahoo".into()]), Some(8.0));
        assert_eq!(m.get(&["AOL".into()]), Some(2.0));
    }

    #[test]
    fn two_dim_cells() {
        let t = table();
        let m = Marginal::from_table(&t, &["country", "email"], None, &HashMap::new()).unwrap();
        assert_eq!(m.dim(), 2);
        assert_eq!(m.get(&["FR".into(), "Yahoo".into()]), Some(2.0));
        assert_eq!(m.get(&["FR".into(), "AOL".into()]), None);
    }

    #[test]
    fn binner_discretizes_continuous() {
        let t = table();
        let mut binners = HashMap::new();
        binners.insert("age".to_string(), Binner::equal_width(20.0, 40.0, 2));
        let m = Marginal::from_table(&t, &["age"], None, &binners).unwrap();
        // bins: [20,30) and [30,40], keyed by midpoints 25 and 35;
        // ages 30,40,35 fall in bin 1; 25 in bin 0.
        assert_eq!(m.get(&[Value::Float(25.0)]), Some(1.0));
        assert_eq!(m.get(&[Value::Float(35.0)]), Some(3.0));
    }

    #[test]
    fn project_sums_out_attrs() {
        let t = table();
        let m2 = Marginal::from_table(&t, &["country", "email"], None, &HashMap::new()).unwrap();
        let m1 = m2.project(&["email"]).unwrap();
        assert_eq!(m1.get(&["Yahoo".into()]), Some(3.0));
        assert!(m2.project(&["missing"]).is_none());
    }

    #[test]
    fn rescale_changes_total() {
        let t = table();
        let mut m = Marginal::from_table(&t, &["country"], None, &HashMap::new()).unwrap();
        m.rescale(100.0);
        assert!((m.total() - 100.0).abs() < 1e-9);
        assert_eq!(m.get(&["UK".into()]), Some(50.0));
    }

    #[test]
    fn numeric_pairs_for_1d() {
        let mut m = Marginal::new(vec!["x".into()]);
        m.add(vec![Value::Int(1)], 2.0);
        m.add(vec![Value::Float(2.5)], 3.0);
        let mut pairs = m.to_numeric_pairs().unwrap();
        pairs.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert_eq!(pairs, vec![(1.0, 2.0), (2.5, 3.0)]);
        let m2 = Marginal::new(vec!["a".into(), "b".into()]);
        assert!(m2.to_numeric_pairs().is_none());
    }
}
