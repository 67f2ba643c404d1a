use std::collections::HashMap;
use std::sync::Arc;

use mosaic_nn::Matrix;
use mosaic_stats::Marginal;
use mosaic_storage::{Column, ColumnBuilder, DataType, Schema, Table, Value};

/// Per-attribute encoding specification.
#[derive(Debug, Clone, PartialEq)]
pub enum AttrSpec {
    /// Min-max scaled to `[0, 1]`; decoded by unscaling (and rounding when
    /// the source column was integral).
    Numeric {
        /// Attribute name.
        name: String,
        /// Observed minimum (scale anchor).
        min: f64,
        /// Observed maximum.
        max: f64,
        /// Round decoded values to whole numbers.
        integer: bool,
    },
    /// One-hot encoded block over the observed distinct values; decoded by
    /// argmax.
    Categorical {
        /// Attribute name.
        name: String,
        /// Distinct values in block order.
        values: Vec<Value>,
    },
}

impl AttrSpec {
    /// Attribute name.
    pub fn name(&self) -> &str {
        match self {
            AttrSpec::Numeric { name, .. } | AttrSpec::Categorical { name, .. } => name,
        }
    }

    /// Encoded width (1 for numeric, #distinct for categorical) — the
    /// "M-SWG Dim" column of the paper's Table 1.
    pub fn width(&self) -> usize {
        match self {
            AttrSpec::Numeric { .. } => 1,
            AttrSpec::Categorical { values, .. } => values.len(),
        }
    }
}

/// A marginal lifted into encoded space: weighted points over the encoded
/// columns of its attributes, ready for (sliced) Wasserstein matching.
#[derive(Debug, Clone)]
pub struct EncodedMarginal {
    /// Which encoded columns of the generator output this marginal
    /// constrains.
    pub cols: Vec<usize>,
    /// Cell centers in encoded coordinates (one per marginal cell).
    pub points: Vec<Vec<f64>>,
    /// Cell masses.
    pub weights: Vec<f64>,
    /// Human-readable label (attribute names).
    pub label: String,
}

impl EncodedMarginal {
    /// Encoded dimensionality.
    pub fn dim(&self) -> usize {
        self.cols.len()
    }
}

/// Bidirectional encoding between a [`Table`] and the generator's
/// continuous `[0,1]`-ish coordinate space (paper §5.3).
#[derive(Debug, Clone)]
pub struct Encoder {
    specs: Vec<AttrSpec>,
    offsets: Vec<usize>,
    total_dim: usize,
    schema: Arc<Schema>,
}

impl Encoder {
    /// Fit an encoder to a table: string/bool columns become one-hot
    /// categorical blocks; numeric columns min-max scale (with integer
    /// rounding when the column is `Int`). `extra_values` can widen a
    /// categorical domain with values known from metadata but absent from
    /// the sample.
    pub fn fit(table: &Table, extra_values: &HashMap<String, Vec<Value>>) -> Encoder {
        let mut specs = Vec::with_capacity(table.num_columns());
        for (i, field) in table.schema().fields().iter().enumerate() {
            let col = table.column(i);
            let spec = match field.data_type {
                DataType::Str | DataType::Bool => {
                    let mut values: Vec<Value> = Vec::new();
                    for v in col.iter() {
                        if !v.is_null() && !values.contains(&v) {
                            values.push(v);
                        }
                    }
                    if let Some(extra) = extra_values.get(&field.name.to_ascii_lowercase()) {
                        for v in extra {
                            if !values.contains(v) {
                                values.push(v.clone());
                            }
                        }
                    }
                    values.sort_by(|a, b| a.total_cmp(b));
                    AttrSpec::Categorical {
                        name: field.name.clone(),
                        values,
                    }
                }
                DataType::Int | DataType::Float => {
                    let (mut min, mut max) = col.numeric_range().unwrap_or((0.0, 1.0));
                    if let Some(extra) = extra_values.get(&field.name.to_ascii_lowercase()) {
                        for v in extra {
                            if let Some(x) = v.as_f64() {
                                min = min.min(x);
                                max = max.max(x);
                            }
                        }
                    }
                    if max <= min {
                        max = min + 1.0;
                    }
                    AttrSpec::Numeric {
                        name: field.name.clone(),
                        min,
                        max,
                        integer: field.data_type == DataType::Int,
                    }
                }
            };
            specs.push(spec);
        }
        let mut offsets = Vec::with_capacity(specs.len());
        let mut acc = 0;
        for s in &specs {
            offsets.push(acc);
            acc += s.width();
        }
        Encoder {
            specs,
            offsets,
            total_dim: acc,
            schema: Arc::clone(table.schema()),
        }
    }

    /// Total encoded dimensionality.
    pub fn dim(&self) -> usize {
        self.total_dim
    }

    /// Attribute specs in schema order.
    pub fn specs(&self) -> &[AttrSpec] {
        &self.specs
    }

    /// Encoded column range of attribute `name`.
    pub fn attr_cols(&self, name: &str) -> Option<std::ops::Range<usize>> {
        let i = self
            .specs
            .iter()
            .position(|s| s.name().eq_ignore_ascii_case(name))?;
        Some(self.offsets[i]..self.offsets[i] + self.specs[i].width())
    }

    /// Softmax blocks for the generator head: `(start, len)` of every
    /// categorical attribute.
    pub fn softmax_blocks(&self) -> Vec<(usize, usize)> {
        self.specs
            .iter()
            .zip(&self.offsets)
            .filter(|(s, _)| matches!(s, AttrSpec::Categorical { .. }))
            .map(|(s, &o)| (o, s.width()))
            .collect()
    }

    /// Encode one attribute value into `out[range]`.
    fn encode_value(&self, attr: usize, v: &Value, out: &mut [f64]) {
        match &self.specs[attr] {
            AttrSpec::Numeric { min, max, .. } => {
                let x = v.as_f64().unwrap_or(*min);
                out[0] = ((x - min) / (max - min)).clamp(0.0, 1.0);
            }
            AttrSpec::Categorical { values, .. } => {
                out.fill(0.0);
                if let Some(pos) = values.iter().position(|c| c == v) {
                    out[pos] = 1.0;
                }
            }
        }
    }

    /// Encode a whole table (schema-compatible with the fitted table) into
    /// an `n × dim` matrix.
    pub fn encode_table(&self, table: &Table) -> mosaic_storage::Result<Matrix> {
        let cols: Vec<&Column> = self
            .specs
            .iter()
            .map(|s| table.column_by_name(s.name()))
            .collect::<mosaic_storage::Result<Vec<_>>>()?;
        let n = table.num_rows();
        let mut m = Matrix::zeros(n, self.total_dim);
        for row in 0..n {
            let out = m.row_mut(row);
            for (ai, col) in cols.iter().enumerate() {
                let v = col.value(row);
                let range = self.offsets[ai]..self.offsets[ai] + self.specs[ai].width();
                self.encode_value(ai, &v, &mut out[range]);
            }
        }
        Ok(m)
    }

    /// Decode generator output rows back into a table: numeric columns
    /// unscale (rounding integers), categorical blocks argmax-discretize
    /// (paper: "only force the output to be binary for data generation").
    pub fn decode_matrix(&self, m: &Matrix) -> Table {
        let n = m.rows();
        let columns = self
            .specs
            .iter()
            .zip(&self.offsets)
            .zip(self.schema.fields())
            .map(|((spec, &start), field)| match spec {
                AttrSpec::Numeric {
                    min, max, integer, ..
                } => {
                    let x = |r| m.get(r, start).clamp(0.0, 1.0) * (max - min) + min;
                    if *integer {
                        Column::from_i64((0..n).map(|r| x(r).round() as i64).collect())
                    } else {
                        Column::from_f64((0..n).map(x).collect())
                    }
                }
                AttrSpec::Categorical { values, .. } => {
                    // Plain (not dictionary-encoded) strings, as a
                    // `TableBuilder` would produce.
                    let mut b = ColumnBuilder::with_capacity(field.data_type, n);
                    for r in 0..n {
                        let v = if values.is_empty() {
                            Value::Null
                        } else {
                            let block = &m.row(r)[start..start + values.len()];
                            let arg = block
                                .iter()
                                .enumerate()
                                .max_by(|a, b| a.1.total_cmp(b.1))
                                .map(|(i, _)| i)
                                .unwrap_or(0);
                            values[arg].clone()
                        };
                        b.push(v).expect("decoded value matches the column type");
                    }
                    b.finish()
                }
            })
            .collect();
        Table::new(Arc::clone(&self.schema), columns).expect("decoded columns match the schema")
    }

    /// Lift a marginal into encoded space (cell keys become weighted points
    /// over the marginal attributes' encoded columns).
    pub fn encode_marginal(&self, m: &Marginal) -> Option<EncodedMarginal> {
        let attr_idx: Vec<usize> = m
            .attrs()
            .iter()
            .map(|a| {
                self.specs
                    .iter()
                    .position(|s| s.name().eq_ignore_ascii_case(a))
            })
            .collect::<Option<Vec<_>>>()?;
        let mut cols = Vec::new();
        for &ai in &attr_idx {
            cols.extend(self.offsets[ai]..self.offsets[ai] + self.specs[ai].width());
        }
        let mut points = Vec::with_capacity(m.num_cells());
        let mut weights = Vec::with_capacity(m.num_cells());
        for (key, count) in m.iter() {
            let mut point = vec![0.0; cols.len()];
            let mut pos = 0;
            for (ki, &ai) in attr_idx.iter().enumerate() {
                let w = self.specs[ai].width();
                self.encode_value(ai, &key[ki], &mut point[pos..pos + w]);
                pos += w;
            }
            points.push(point);
            weights.push(count);
        }
        Some(EncodedMarginal {
            cols,
            points,
            weights,
            label: m.attrs().join(","),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_storage::{DataType, Field, Schema, TableBuilder};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("carrier", DataType::Str),
            Field::new("distance", DataType::Int),
            Field::new("delay", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        for (c, d, y) in [("AA", 100, 1.5), ("WN", 500, -2.0), ("AA", 900, 0.0)] {
            b.push_row(vec![c.into(), (d as i64).into(), y.into()])
                .unwrap();
        }
        b.finish()
    }

    #[test]
    fn encoded_width_matches_table1_convention() {
        let t = table();
        let enc = Encoder::fit(&t, &HashMap::new());
        // carrier: 2 one-hot dims; distance/delay: 1 each.
        assert_eq!(enc.dim(), 4);
        assert_eq!(enc.specs()[0].width(), 2);
        assert_eq!(enc.softmax_blocks(), vec![(0, 2)]);
        assert_eq!(enc.attr_cols("distance"), Some(2..3));
    }

    #[test]
    fn encode_scales_to_unit_interval() {
        let t = table();
        let enc = Encoder::fit(&t, &HashMap::new());
        let m = enc.encode_table(&t).unwrap();
        assert_eq!((m.rows(), m.cols()), (3, 4));
        for x in m.data() {
            assert!((0.0..=1.0).contains(x), "out of range: {x}");
        }
        // Row 0: AA -> one-hot [1,0]; distance 100 is min -> 0.0.
        assert_eq!(m.row(0)[0], 1.0);
        assert_eq!(m.row(0)[2], 0.0);
        // Row 2: distance 900 is max -> 1.0.
        assert_eq!(m.row(2)[2], 1.0);
    }

    #[test]
    fn roundtrip_decode_recovers_rows() {
        let t = table();
        let enc = Encoder::fit(&t, &HashMap::new());
        let m = enc.encode_table(&t).unwrap();
        let back = enc.decode_matrix(&m);
        assert_eq!(back.num_rows(), 3);
        for r in 0..3 {
            assert_eq!(back.value(r, 0), t.value(r, 0), "carrier row {r}");
            assert_eq!(back.value(r, 1), t.value(r, 1), "distance row {r}");
            let orig = t.value(r, 2).as_f64().unwrap();
            let dec = back.value(r, 2).as_f64().unwrap();
            assert!((orig - dec).abs() < 1e-9, "delay row {r}");
        }
    }

    /// Column-by-column decoding gives the table the row-at-a-time
    /// `TableBuilder` path gives: the same cells, the same plain (not
    /// dictionary-encoded) strings, the same validity.
    #[test]
    fn decode_matches_row_builder() {
        let schema = Schema::new(vec![
            Field::new("carrier", DataType::Str),
            Field::new("late", DataType::Bool),
            Field::new("gate", DataType::Str),
            Field::new("distance", DataType::Int),
            Field::new("delay", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        for (c, l, d, y) in [("AA", true, 100, 1.5), ("WN", false, 500, -2.0)] {
            b.push_row(vec![c.into(), l.into(), Value::Null, d.into(), y.into()])
                .unwrap();
        }
        let t = b.finish();
        let enc = Encoder::fit(&t, &HashMap::new());
        let m = Matrix::from_vec(
            3,
            enc.dim(),
            vec![
                0.2, 0.9, 0.6, 0.1, 0.25, -0.5, //
                0.7, 0.7, 0.0, 0.3, 1.5, 0.5, //
                0.1, 0.2, 0.4, 0.4, 0.5, 0.125,
            ],
        );
        let mut expected = TableBuilder::new(Arc::clone(t.schema()));
        for r in 0..m.rows() {
            let row = m.row(r);
            let argmax = |block: &[f64]| {
                let (i, _) = block
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .unwrap();
                i
            };
            let carriers = ["AA", "WN"];
            expected
                .push_row(vec![
                    carriers[argmax(&row[0..2])].into(),
                    [false, true][argmax(&row[2..4])].into(),
                    Value::Null,
                    Value::Int((row[4].clamp(0.0, 1.0) * 400.0 + 100.0).round() as i64),
                    Value::Float(row[5].clamp(0.0, 1.0) * 3.5 - 2.0),
                ])
                .unwrap();
        }
        let expected = expected.finish();
        let got = enc.decode_matrix(&m);
        assert!(Arc::ptr_eq(got.schema(), t.schema()));
        for c in 0..expected.num_columns() {
            let (e, g) = (expected.column(c), got.column(c));
            assert_eq!(g.is_dict(), e.is_dict(), "column {c} encoding");
            assert_eq!(g.validity(), e.validity(), "column {c} validity");
            for r in 0..expected.num_rows() {
                assert_eq!(g.value(r), e.value(r), "cell ({r}, {c})");
            }
        }
    }

    #[test]
    fn extra_values_extend_categorical_domain() {
        let t = table();
        let mut extra = HashMap::new();
        extra.insert("carrier".to_string(), vec![Value::Str("US".into())]);
        let enc = Encoder::fit(&t, &extra);
        assert_eq!(enc.specs()[0].width(), 3);
    }

    #[test]
    fn encode_marginal_one_hot_cells() {
        let t = table();
        let enc = Encoder::fit(&t, &HashMap::new());
        let mut marg = Marginal::new(vec!["carrier".into(), "distance".into()]);
        marg.add(vec!["AA".into(), Value::Int(500)], 7.0);
        let em = enc.encode_marginal(&marg).unwrap();
        assert_eq!(em.dim(), 3); // 2 one-hot + 1 numeric
        assert_eq!(em.points.len(), 1);
        assert_eq!(em.weights[0], 7.0);
        // AA one-hot + scaled 500 -> 0.5.
        assert_eq!(em.points[0], vec![1.0, 0.0, 0.5]);
    }

    #[test]
    fn marginal_with_unknown_attr_is_none() {
        let t = table();
        let enc = Encoder::fit(&t, &HashMap::new());
        let marg = Marginal::new(vec!["missing".into()]);
        assert!(enc.encode_marginal(&marg).is_none());
    }
}
