use std::collections::HashMap;
use std::hash::Hash;

use mosaic_storage::{Column, DataType, Table, Value};

use crate::marginal::apply_binner;
use crate::{Binner, Marginal};

/// Configuration for Iterative Proportional Fitting.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct IpfConfig {
    /// Maximum raking passes over all marginals.
    pub max_iterations: usize,
    /// Convergence threshold on the maximum relative cell error.
    pub tolerance: f64,
}

impl Default for IpfConfig {
    fn default() -> Self {
        IpfConfig {
            max_iterations: 200,
            tolerance: 1e-8,
        }
    }
}

impl IpfConfig {
    /// Set the maximum raking passes over all marginals.
    pub fn with_max_iterations(mut self, n: usize) -> Self {
        self.max_iterations = n;
        self
    }

    /// Set the convergence threshold on the maximum relative cell error.
    pub fn with_tolerance(mut self, tol: f64) -> Self {
        self.tolerance = tol;
        self
    }
}

/// Outcome of an IPF run.
#[derive(Debug, Clone)]
pub struct IpfReport {
    /// Raking passes actually performed.
    pub iterations: usize,
    /// Maximum relative cell error at termination.
    pub max_rel_error: f64,
    /// Whether the tolerance was reached.
    pub converged: bool,
    /// Rows whose cell does not appear in some marginal (their weight is
    /// zeroed for that marginal's constraint — the marginal says such
    /// tuples have zero population mass).
    pub unmatched_rows: usize,
    /// Marginal cells with positive target but zero sample mass; IPF cannot
    /// create mass there (SEMI-OPEN queries have false negatives, paper
    /// §3.3) — these are exactly the cells OPEN query processing exists for.
    pub empty_target_cells: usize,
}

/// `MarginalIndex::row_cell` entry of a row whose key is not a cell of
/// the marginal.
const OUTSIDE: u32 = u32::MAX;

struct MarginalIndex {
    /// Target count per cell.
    targets: Vec<f64>,
    /// For each sample row, the cell index in `targets`, or [`OUTSIDE`].
    row_cell: Vec<u32>,
}

/// Iterative Proportional Fitting (Deming–Stephan raking; paper §4.1).
///
/// Reweights a sample so that, for every supplied marginal, the weighted
/// sample totals per cell match the marginal's published counts. This is
/// Mosaic's SEMI-OPEN query evaluation when the sampling mechanism is
/// unknown.
///
/// ```
/// use mosaic_storage::{DataType, Field, Schema, TableBuilder};
/// use mosaic_stats::{Ipf, IpfConfig, Marginal};
/// use std::collections::HashMap;
///
/// let schema = Schema::new(vec![Field::new("city", DataType::Str)]);
/// let mut b = TableBuilder::new(schema);
/// // Biased sample: 3 of "a", 1 of "b".
/// for c in ["a", "a", "a", "b"] {
///     b.push_row(vec![c.into()]).unwrap();
/// }
/// let sample = b.finish();
///
/// // Ground truth: the population is 50/50.
/// let mut m = Marginal::new(vec!["city".into()]);
/// m.add(vec!["a".into()], 100.0);
/// m.add(vec!["b".into()], 100.0);
///
/// let ipf = Ipf::new(&sample, std::slice::from_ref(&m), &HashMap::new()).unwrap();
/// let (weights, report) = ipf.fit(None, &IpfConfig::default());
/// assert!(report.converged);
/// assert!((weights[0] - 100.0 / 3.0).abs() < 1e-6);
/// assert!((weights[3] - 100.0).abs() < 1e-6);
/// ```
pub struct Ipf {
    marginals: Vec<MarginalIndex>,
    num_rows: usize,
    unmatched_rows: usize,
    empty_target_cells: usize,
}

impl Ipf {
    /// Index a sample table against a set of marginals. `binners`
    /// discretize continuous attributes (keyed by attribute name) and must
    /// match the binning used to build the marginals.
    ///
    /// Each row's cell key is the tuple of its (binned) attribute values.
    /// Rows are first grouped by one typed token per attribute (a
    /// dictionary code, a bin, a raw integer), and the `Vec<Value>` key is
    /// built and looked up once per group, not once per row: rows with
    /// equal tokens have equal keys, so they fall in the same cell.
    pub fn new(
        sample: &Table,
        marginals: &[Marginal],
        binners: &HashMap<String, Binner>,
    ) -> mosaic_storage::Result<Ipf> {
        let n = sample.num_rows();
        let mut out = Vec::with_capacity(marginals.len());
        let mut unmatched = vec![false; n];
        let mut empty_target_cells = 0usize;
        for m in marginals {
            let cols = m
                .attrs()
                .iter()
                .map(|a| sample.column_by_name(a))
                .collect::<mosaic_storage::Result<Vec<_>>>()?;
            let col_binners: Vec<Option<&Binner>> = m
                .attrs()
                .iter()
                .map(|a| {
                    binners
                        .get(a.as_str())
                        .or_else(|| binners.get(&a.to_ascii_lowercase()))
                })
                .collect();
            assert!(
                m.num_cells() < OUTSIDE as usize,
                "marginal has too many cells"
            );
            // Stable cell order for the targets vector.
            let mut cell_index: HashMap<&[Value], u32> = HashMap::new();
            let mut targets = Vec::with_capacity(m.num_cells());
            for (key, count) in m.iter() {
                cell_index.insert(key, targets.len() as u32);
                targets.push(count);
            }
            let mut groups = vec![0u32; n];
            for (col, binner) in cols.iter().zip(&col_binners) {
                refine(&mut groups, &column_tokens(col, *binner));
            }
            // Groups are numbered in order of first appearance, so a group
            // id one past the cells resolved so far is a new tuple.
            let mut group_cell: Vec<u32> = Vec::new();
            let mut seen = vec![false; targets.len()];
            let mut row_cell = Vec::with_capacity(n);
            for (row, &group) in groups.iter().enumerate() {
                if group as usize == group_cell.len() {
                    let key: Vec<Value> = cols
                        .iter()
                        .zip(&col_binners)
                        .map(|(c, b)| apply_binner(c.value(row), *b))
                        .collect();
                    let cell = cell_index.get(key.as_slice()).copied().unwrap_or(OUTSIDE);
                    if cell != OUTSIDE {
                        seen[cell as usize] = true;
                    }
                    group_cell.push(cell);
                }
                let cell = group_cell[group as usize];
                unmatched[row] |= cell == OUTSIDE;
                row_cell.push(cell);
            }
            empty_target_cells += seen
                .iter()
                .zip(&targets)
                .filter(|(s, t)| !**s && **t > 0.0)
                .count();
            out.push(MarginalIndex { targets, row_cell });
        }
        Ok(Ipf {
            marginals: out,
            num_rows: n,
            unmatched_rows: unmatched.iter().filter(|&&u| u).count(),
            empty_target_cells,
        })
    }

    /// Number of sample rows being reweighted.
    pub fn num_rows(&self) -> usize {
        self.num_rows
    }

    /// Run the raking loop. `initial_weights` defaults to all-ones (the
    /// paper: sample weights are "initialized to be one for every tuple").
    /// Returns the fitted weights and a convergence report.
    ///
    /// Each marginal takes one pass over the rows: it scales every row by
    /// its cell's factor `target / total` (computed once per cell) and
    /// sums the new weight into the next marginal's cell totals, the last
    /// marginal into the first one's for the next pass. Every cell total
    /// is summed in row order, so the weights do not depend on how the
    /// passes are arranged.
    pub fn fit(
        &self,
        initial_weights: Option<&[f64]>,
        config: &IpfConfig,
    ) -> (Vec<f64>, IpfReport) {
        let mut weights: Vec<f64> = match initial_weights {
            Some(w) => {
                assert_eq!(w.len(), self.num_rows, "initial weight length mismatch");
                w.to_vec()
            }
            None => vec![1.0; self.num_rows],
        };
        let mut iterations = 0;
        let mut max_rel_error = f64::INFINITY;
        let mut converged = false;
        // `totals[j]`: marginal j's cell totals under the current weights.
        let mut totals: Vec<Vec<f64>> = self
            .marginals
            .iter()
            .map(|m| vec![0.0; m.targets.len()])
            .collect();
        if let Some(first) = self.marginals.first() {
            for (&w, &cell) in weights.iter().zip(&first.row_cell) {
                if cell != OUTSIDE {
                    totals[0][cell as usize] += w;
                }
            }
        }
        let mut factors: Vec<f64> = Vec::new();
        for it in 0..config.max_iterations {
            iterations = it + 1;
            let mut pass_err = 0.0f64;
            for (j, m) in self.marginals.iter().enumerate() {
                factors.clear();
                for (&total, &target) in totals[j].iter().zip(&m.targets) {
                    if target > 0.0 && total > 0.0 {
                        pass_err = pass_err.max((total - target).abs() / target);
                    } else if target > 0.0 {
                        // Unreachable target mass: not counted against
                        // convergence (IPF cannot fix it); surfaced in the
                        // report via empty_target_cells instead.
                    } else if total > 0.0 {
                        pass_err = pass_err.max(1.0);
                    }
                    // `w * 1.0` is `w` bit for bit: a cell whose total is
                    // not positive leaves its rows as they were.
                    factors.push(if total > 0.0 { target / total } else { 1.0 });
                }
                let next = (j + 1) % self.marginals.len();
                let next_cells = &self.marginals[next].row_cell;
                let next_totals = &mut totals[next];
                next_totals.fill(0.0);
                for ((w, &cell), &next_cell) in weights.iter_mut().zip(&m.row_cell).zip(next_cells)
                {
                    *w = if cell == OUTSIDE {
                        // Row outside the marginal's support: the metadata
                        // says no such tuples exist in the population.
                        0.0
                    } else {
                        *w * factors[cell as usize]
                    };
                    if next_cell != OUTSIDE {
                        next_totals[next_cell as usize] += *w;
                    }
                }
            }
            max_rel_error = pass_err;
            if pass_err < config.tolerance {
                converged = true;
                break;
            }
        }
        (
            weights,
            IpfReport {
                iterations,
                max_rel_error,
                converged,
                unmatched_rows: self.unmatched_rows,
                empty_target_cells: self.empty_target_cells,
            },
        )
    }
}

/// One token per row of a marginal's key column such that rows with
/// equal tokens have equal cell-key values ([`apply_binner`] of the row's
/// value). Token 0 is NULL. A dictionary code, a bin index or a raw `i64`
/// is read straight from the typed column; any other column interns the
/// key value itself.
fn column_tokens(col: &Column, binner: Option<&Binner>) -> Vec<u32> {
    let n = col.len();
    match (binner, col.data_type()) {
        (Some(b), DataType::Int | DataType::Float | DataType::Bool)
            if b.num_bins() < OUTSIDE as usize =>
        {
            (0..n)
                .map(|i| col.f64_at(i).map_or(0, |x| b.bin(x) as u32 + 1))
                .collect()
        }
        (None, _) if col.is_dict() => {
            let (codes, _) = col.dict_parts().expect("dictionary column");
            codes
                .iter()
                .enumerate()
                .map(|(i, &c)| if col.is_null(i) { 0 } else { c + 1 })
                .collect()
        }
        (None, DataType::Int) => {
            let data = col.i64_data().expect("Int column");
            intern(n, |i| (!col.is_null(i)).then(|| data[i]))
        }
        _ => intern(n, |i| {
            (!col.is_null(i)).then(|| apply_binner(col.value(i), binner))
        }),
    }
}

/// Tokens `1..` for the distinct keys of `key(0..n)` in order of first
/// appearance; `None` (NULL) is token 0.
fn intern<K: Hash + Eq>(n: usize, key: impl Fn(usize) -> Option<K>) -> Vec<u32> {
    let mut ids: HashMap<K, u32> = HashMap::new();
    (0..n)
        .map(|i| match key(i) {
            None => 0,
            Some(k) => {
                let next = ids.len() as u32 + 1;
                *ids.entry(k).or_insert(next)
            }
        })
        .collect()
}

/// Split every row's group by one more column's token: `groups` then
/// holds each row's (group, token) pair id, numbered in order of first
/// appearance.
fn refine(groups: &mut [u32], tokens: &[u32]) {
    let mut ids: HashMap<(u32, u32), u32> = HashMap::new();
    for (g, &t) in groups.iter_mut().zip(tokens) {
        let next = ids.len() as u32;
        *g = *ids.entry((*g, t)).or_insert(next);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_storage::{DataType, Field, Schema, TableBuilder};

    fn two_attr_sample() -> Table {
        let schema = Schema::new(vec![
            Field::new("a", DataType::Str),
            Field::new("b", DataType::Str),
        ]);
        let mut t = TableBuilder::new(schema);
        for (a, b) in [("x", "u"), ("x", "v"), ("y", "u"), ("y", "v")] {
            t.push_row(vec![a.into(), b.into()]).unwrap();
        }
        t.finish()
    }

    fn marg(attr: &str, cells: &[(&str, f64)]) -> Marginal {
        let mut m = Marginal::new(vec![attr.into()]);
        for (k, c) in cells {
            m.add(vec![(*k).into()], *c);
        }
        m
    }

    #[test]
    fn single_marginal_exact_in_one_pass() {
        let t = two_attr_sample();
        let m = marg("a", &[("x", 60.0), ("y", 40.0)]);
        let ipf = Ipf::new(&t, std::slice::from_ref(&m), &HashMap::new()).unwrap();
        let (w, rep) = ipf.fit(None, &IpfConfig::default());
        assert!(rep.converged);
        assert!((w[0] - 30.0).abs() < 1e-9);
        assert!((w[2] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn two_marginals_both_satisfied() {
        let t = two_attr_sample();
        let ma = marg("a", &[("x", 70.0), ("y", 30.0)]);
        let mb = marg("b", &[("u", 50.0), ("v", 50.0)]);
        let ipf = Ipf::new(&t, &[ma.clone(), mb.clone()], &HashMap::new()).unwrap();
        let (w, rep) = ipf.fit(None, &IpfConfig::default());
        assert!(rep.converged, "report: {rep:?}");
        // Check both marginals are satisfied by the weighted sample.
        let wa_x = w[0] + w[1];
        let wb_u = w[0] + w[2];
        assert!((wa_x - 70.0).abs() < 1e-6);
        assert!((wb_u - 50.0).abs() < 1e-6);
        assert!((w.iter().sum::<f64>() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn unmatched_rows_get_zero_weight() {
        let t = two_attr_sample();
        // Marginal that omits a="y": those tuples don't exist in the population.
        let m = marg("a", &[("x", 10.0)]);
        let ipf = Ipf::new(&t, std::slice::from_ref(&m), &HashMap::new()).unwrap();
        let (w, rep) = ipf.fit(None, &IpfConfig::default());
        assert_eq!(rep.unmatched_rows, 2);
        assert_eq!(w[2], 0.0);
        assert_eq!(w[3], 0.0);
        assert!((w[0] + w[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn empty_target_cells_reported() {
        let t = two_attr_sample();
        let m = marg("a", &[("x", 50.0), ("y", 40.0), ("z", 10.0)]);
        let ipf = Ipf::new(&t, std::slice::from_ref(&m), &HashMap::new()).unwrap();
        let (_, rep) = ipf.fit(None, &IpfConfig::default());
        // "z" has target mass but no sample rows: a false-negative cell.
        assert_eq!(rep.empty_target_cells, 1);
    }

    #[test]
    fn initial_weights_respected() {
        let t = two_attr_sample();
        let m = marg("a", &[("x", 100.0), ("y", 100.0)]);
        let ipf = Ipf::new(&t, std::slice::from_ref(&m), &HashMap::new()).unwrap();
        // Row 0 starts 3x heavier than row 1; IPF preserves the ratio within a cell.
        let (w, _) = ipf.fit(Some(&[3.0, 1.0, 1.0, 1.0]), &IpfConfig::default());
        assert!((w[0] / w[1] - 3.0).abs() < 1e-9);
        assert!((w[0] + w[1] - 100.0).abs() < 1e-9);
    }

    #[test]
    fn binned_continuous_marginal() {
        let schema = Schema::new(vec![Field::new("x", DataType::Float)]);
        let mut b = TableBuilder::new(schema);
        for x in [0.1, 0.2, 0.8, 0.9] {
            b.push_row(vec![x.into()]).unwrap();
        }
        let t = b.finish();
        let binner = Binner::equal_width(0.0, 1.0, 2);
        let mut m = Marginal::new(vec!["x".into()]);
        // Binned cells are keyed by bin midpoints (0.25 and 0.75).
        m.add(vec![Value::Float(0.25)], 10.0);
        m.add(vec![Value::Float(0.75)], 90.0);
        let mut binners = HashMap::new();
        binners.insert("x".to_string(), binner);
        let ipf = Ipf::new(&t, std::slice::from_ref(&m), &binners).unwrap();
        let (w, rep) = ipf.fit(None, &IpfConfig::default());
        assert!(rep.converged);
        assert!((w[0] - 5.0).abs() < 1e-9);
        assert!((w[3] - 45.0).abs() < 1e-9);
    }

    #[test]
    fn missing_column_is_an_error() {
        let t = two_attr_sample();
        let m = marg("missing", &[("x", 1.0)]);
        assert!(Ipf::new(&t, std::slice::from_ref(&m), &HashMap::new()).is_err());
    }
}

/// The two-pass raking loop `Ipf` replaced, kept as the reference the
/// fused kernel and the token index must match bit for bit: a `Vec<Value>`
/// cell key per row and marginal, then per marginal one pass summing the
/// cell totals and one pass scaling every row by `target / total`.
#[cfg(test)]
mod reference {
    use super::*;

    #[allow(clippy::needless_range_loop)]
    pub fn fit(
        sample: &Table,
        marginals: &[Marginal],
        binners: &HashMap<String, Binner>,
        initial_weights: Option<&[f64]>,
        config: &IpfConfig,
    ) -> mosaic_storage::Result<(Vec<f64>, IpfReport)> {
        let n = sample.num_rows();
        let mut index: Vec<(Vec<f64>, Vec<usize>)> = Vec::new();
        let mut unmatched = vec![false; n];
        let mut empty_target_cells = 0usize;
        for m in marginals {
            let cols = m
                .attrs()
                .iter()
                .map(|a| sample.column_by_name(a))
                .collect::<mosaic_storage::Result<Vec<_>>>()?;
            let col_binners: Vec<Option<&Binner>> = m
                .attrs()
                .iter()
                .map(|a| {
                    binners
                        .get(a.as_str())
                        .or_else(|| binners.get(&a.to_ascii_lowercase()))
                })
                .collect();
            let mut cell_index: HashMap<Vec<Value>, usize> = HashMap::new();
            let mut targets = Vec::with_capacity(m.num_cells());
            for (key, count) in m.iter() {
                cell_index.insert(key.clone(), targets.len());
                targets.push(count);
            }
            let mut row_cell = Vec::with_capacity(n);
            let mut seen = vec![false; targets.len()];
            for row in 0..n {
                let key: Vec<Value> = cols
                    .iter()
                    .zip(&col_binners)
                    .map(|(c, b)| match (b, c.value(row)) {
                        (Some(binner), v) => match v.as_f64() {
                            Some(x) => Value::Float(binner.midpoint(binner.bin(x))),
                            None => v,
                        },
                        (None, v) => v,
                    })
                    .collect();
                match cell_index.get(&key) {
                    Some(&idx) => {
                        seen[idx] = true;
                        row_cell.push(idx);
                    }
                    None => {
                        unmatched[row] = true;
                        row_cell.push(usize::MAX);
                    }
                }
            }
            empty_target_cells += seen
                .iter()
                .zip(&targets)
                .filter(|(s, t)| !**s && **t > 0.0)
                .count();
            index.push((targets, row_cell));
        }

        let mut weights: Vec<f64> = match initial_weights {
            Some(w) => w.to_vec(),
            None => vec![1.0; n],
        };
        let mut iterations = 0;
        let mut max_rel_error = f64::INFINITY;
        let mut converged = false;
        let mut totals: Vec<f64> = Vec::new();
        for it in 0..config.max_iterations {
            iterations = it + 1;
            let mut pass_err = 0.0f64;
            for (targets, row_cell) in &index {
                totals.clear();
                totals.resize(targets.len(), 0.0);
                for (row, &cell) in row_cell.iter().enumerate() {
                    if cell != usize::MAX {
                        totals[cell] += weights[row];
                    }
                }
                for (&total, &target) in totals.iter().zip(targets) {
                    if target > 0.0 && total > 0.0 {
                        pass_err = pass_err.max((total - target).abs() / target);
                    } else if target > 0.0 {
                    } else if total > 0.0 {
                        pass_err = pass_err.max(1.0);
                    }
                }
                for (row, &cell) in row_cell.iter().enumerate() {
                    if cell == usize::MAX {
                        weights[row] = 0.0;
                        continue;
                    }
                    let total = totals[cell];
                    let target = targets[cell];
                    if total > 0.0 {
                        weights[row] *= target / total;
                    }
                }
            }
            max_rel_error = pass_err;
            if pass_err < config.tolerance {
                converged = true;
                break;
            }
        }
        let unmatched_rows = unmatched.iter().filter(|&&u| u).count();
        Ok((
            weights,
            IpfReport {
                iterations,
                max_rel_error,
                converged,
                unmatched_rows,
                empty_target_cells,
            },
        ))
    }
}

#[cfg(test)]
mod equivalence {
    use super::*;
    use mosaic_storage::{Field, Schema, TableBuilder};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const ATTRS: [&str; 6] = ["ds", "ps", "i", "f", "ib", "fb"];

    /// A random sample over a dictionary and a plain Str column, Int and
    /// Float columns read raw (`i`, `f`) and possibly binned (`ib`, `fb`),
    /// every column with NULLs, windowed by a random offset.
    fn sample(rng: &mut StdRng) -> (Table, HashMap<String, Binner>) {
        let schema = Schema::new(vec![
            Field::new("ds", DataType::Str),
            Field::new("ps", DataType::Str),
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("ib", DataType::Int),
            Field::new("fb", DataType::Float),
        ]);
        let strs = ["a", "b", "", "dd"];
        let floats = [0.5, 1.0, 2.25, -0.0, 0.0, 3.0, -1.5];
        let offset = rng.random_range(0..3usize);
        let n = rng.random_range(0..40usize);
        let mut b = TableBuilder::new(schema.clone());
        for _ in 0..offset + n {
            let row = [
                strs[rng.random_range(0..4usize)].into(),
                strs[rng.random_range(0..3usize)].into(),
                Value::Int(rng.random_range(-2..4i64)),
                Value::Float(floats[rng.random_range(0..7usize)]),
                Value::Int(rng.random_range(-5..25i64)),
                Value::Float(rng.random_range(-1.0..6.0)),
            ];
            let row = row
                .into_iter()
                .map(|v| {
                    if rng.random_bool(0.15) {
                        Value::Null
                    } else {
                        v
                    }
                })
                .collect();
            b.push_row(row).unwrap();
        }
        let plain = b.finish();
        let mut columns = plain.columns().to_vec();
        columns[0] = columns[0].dict_encoded();
        let table = Table::new(schema, columns).unwrap().slice(offset, n);
        let mut binners = HashMap::new();
        if rng.random_bool(0.7) {
            binners.insert("ib".to_string(), Binner::equal_width(0.0, 20.0, 4));
        }
        if rng.random_bool(0.7) {
            binners.insert("fb".to_string(), Binner::equal_width(0.0, 5.0, 3));
        }
        (table, binners)
    }

    /// 0–3 marginals of arity 1–3. Cells come from sample rows (so rows
    /// match them) with zero or positive targets, plus keys no row has;
    /// rows whose key is not drawn fall outside the marginal.
    fn marginals(
        rng: &mut StdRng,
        table: &Table,
        binners: &HashMap<String, Binner>,
    ) -> Vec<Marginal> {
        let count = rng.random_range(0..4usize);
        (0..count)
            .map(|_| {
                let arity = rng.random_range(1..4usize);
                let mut attrs: Vec<&str> = Vec::new();
                while attrs.len() < arity {
                    let a = ATTRS[rng.random_range(0..ATTRS.len())];
                    if !attrs.contains(&a) {
                        attrs.push(a);
                    }
                }
                let mut m = Marginal::new(attrs.iter().map(|a| a.to_string()).collect());
                for row in 0..table.num_rows() {
                    if rng.random_bool(0.3) {
                        continue;
                    }
                    let key = attrs
                        .iter()
                        .map(|a| {
                            let v = table.column_by_name(a).unwrap().value(row);
                            apply_binner(v, binners.get(*a))
                        })
                        .collect();
                    let target = if rng.random_bool(0.2) {
                        0.0
                    } else {
                        rng.random_range(0.5..50.0)
                    };
                    m.set(key, target);
                }
                for _ in 0..rng.random_range(0..3usize) {
                    let key = attrs
                        .iter()
                        .map(|a| match *a {
                            "ds" | "ps" => Value::from("zz"),
                            "i" | "ib" => Value::Int(99),
                            _ => Value::Float(7.75),
                        })
                        .collect();
                    m.set(key, rng.random_range(1.0..9.0));
                }
                m
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn raking_matches_the_scalar_reference_bit_for_bit(
            seed in 0u64..u64::MAX,
            max_iterations in 0usize..6,
            loose in 0u8..2,
            with_init in 0u8..2,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (table, binners) = sample(&mut rng);
            let marginals = marginals(&mut rng, &table, &binners);
            let init: Vec<f64> = (0..table.num_rows())
                .map(|_| if rng.random_bool(0.2) { 0.0 } else { rng.random_range(0.1..4.0) })
                .collect();
            let init = (with_init == 1).then_some(init.as_slice());
            let tolerance = if loose == 1 { 0.25 } else { 1e-8 };
            let config = IpfConfig::default()
                .with_max_iterations(max_iterations)
                .with_tolerance(tolerance);
            let (want, want_report) =
                reference::fit(&table, &marginals, &binners, init, &config).unwrap();
            let (got, got_report) = Ipf::new(&table, &marginals, &binners)
                .unwrap()
                .fit(init, &config);
            let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(bits(&got), bits(&want));
            proptest::prop_assert_eq!(got_report.iterations, want_report.iterations);
            proptest::prop_assert_eq!(
                got_report.max_rel_error.to_bits(),
                want_report.max_rel_error.to_bits()
            );
            proptest::prop_assert_eq!(got_report.converged, want_report.converged);
            proptest::prop_assert_eq!(got_report.unmatched_rows, want_report.unmatched_rows);
            proptest::prop_assert_eq!(
                got_report.empty_target_cells,
                want_report.empty_target_cells
            );
        }
    }
}
