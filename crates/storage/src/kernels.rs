//! Vectorized compute kernels over typed column data.
//!
//! These are the hot loops of the query executor: comparison, arithmetic,
//! gather/filter, and grouped-aggregation primitives that operate
//! directly on `&[i64]` / `&[f64]` / `&[String]` slices plus [`Bitmap`]s,
//! never materializing a per-cell [`crate::Value`]. The planner in
//! `mosaic-core` lowers expression trees onto these kernels and falls
//! back to row-at-a-time evaluation only for shapes the kernels don't
//! cover.
//!
//! Every kernel takes plain slices, so all of them are *morsel-sliceable*:
//! a caller may hand in any window of a column's payload (see
//! `Column::slice`) and combine the per-window results afterwards. For
//! aggregation that combination is explicit — workers accumulate into a
//! mergeable [`AggState`] per morsel and the final pass folds the partial
//! states together in morsel order.
//!
//! Numeric comparison semantics intentionally mirror `Value::sql_cmp`:
//! *all* numeric comparisons (including Int vs Int) coerce through `f64`,
//! so kernel results are bit-identical to the row-at-a-time reference
//! oracle.
//!
//! ```
//! use mosaic_storage::kernels::{self, CmpOp};
//!
//! // Predicate kernel: `v > 2` over a typed slice → selection bitmap.
//! let data = [1i64, 5, 3];
//! let sel = kernels::cmp_i64_scalar(&data, CmpOp::Gt, 2.0);
//! assert_eq!(sel.to_indices(), vec![1, 2]);
//! // Gather kernel: keep the selected rows.
//! assert_eq!(kernels::filter_i64(&data, &sel), vec![5, 3]);
//! ```

use std::cmp::Ordering;

use crate::Bitmap;

/// Comparison operator for the `cmp_*` kernel family.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `=`
    Eq,
    /// `!=`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl CmpOp {
    /// Whether an `Ordering` satisfies this operator.
    #[inline]
    pub fn holds(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }
}

// ---- comparison kernels (truth bitmaps; NULL handling is the caller's
// ---- job via validity intersection) ----

macro_rules! cmp_scalar_kernel {
    ($name:ident, $t:ty) => {
        /// Compare every element against a scalar, producing a truth
        /// bitmap. Numeric inputs coerce through `f64` (SQL semantics).
        pub fn $name(data: &[$t], op: CmpOp, rhs: f64) -> Bitmap {
            match op {
                CmpOp::Eq => Bitmap::from_iter(data.iter().map(|&v| v as f64 == rhs)),
                CmpOp::Ne => Bitmap::from_iter(data.iter().map(|&v| v as f64 != rhs)),
                CmpOp::Lt => Bitmap::from_iter(data.iter().map(|&v| (v as f64) < rhs)),
                CmpOp::Le => Bitmap::from_iter(data.iter().map(|&v| v as f64 <= rhs)),
                CmpOp::Gt => Bitmap::from_iter(data.iter().map(|&v| v as f64 > rhs)),
                CmpOp::Ge => Bitmap::from_iter(data.iter().map(|&v| v as f64 >= rhs)),
            }
        }
    };
}

cmp_scalar_kernel!(cmp_i64_scalar, i64);
cmp_scalar_kernel!(cmp_f64_scalar, f64);

macro_rules! cmp_binary_kernel {
    ($name:ident, $ta:ty, $tb:ty) => {
        /// Element-wise comparison of two equal-length slices.
        pub fn $name(a: &[$ta], b: &[$tb], op: CmpOp) -> Bitmap {
            assert_eq!(a.len(), b.len(), "kernel length mismatch");
            let pairs = a.iter().zip(b.iter());
            match op {
                CmpOp::Eq => Bitmap::from_iter(pairs.map(|(&x, &y)| x as f64 == y as f64)),
                CmpOp::Ne => Bitmap::from_iter(pairs.map(|(&x, &y)| x as f64 != y as f64)),
                CmpOp::Lt => Bitmap::from_iter(pairs.map(|(&x, &y)| (x as f64) < y as f64)),
                CmpOp::Le => Bitmap::from_iter(pairs.map(|(&x, &y)| x as f64 <= y as f64)),
                CmpOp::Gt => Bitmap::from_iter(pairs.map(|(&x, &y)| x as f64 > y as f64)),
                CmpOp::Ge => Bitmap::from_iter(pairs.map(|(&x, &y)| x as f64 >= y as f64)),
            }
        }
    };
}

cmp_binary_kernel!(cmp_i64, i64, i64);
cmp_binary_kernel!(cmp_f64, f64, f64);
cmp_binary_kernel!(cmp_i64_f64, i64, f64);
cmp_binary_kernel!(cmp_f64_i64, f64, i64);

/// Compare every string against a scalar.
pub fn cmp_str_scalar(data: &[String], op: CmpOp, rhs: &str) -> Bitmap {
    Bitmap::from_iter(data.iter().map(|v| op.holds(v.as_str().cmp(rhs))))
}

/// Element-wise comparison of two string slices.
pub fn cmp_str(a: &[String], b: &[String], op: CmpOp) -> Bitmap {
    assert_eq!(a.len(), b.len(), "kernel length mismatch");
    Bitmap::from_iter(a.iter().zip(b).map(|(x, y)| op.holds(x.cmp(y))))
}

/// Membership of every numeric element in a literal set (`IN` lists).
/// The set is tiny in practice, so a linear scan beats hashing.
pub fn in_f64_set(data: &[f64], set: &[f64]) -> Bitmap {
    Bitmap::from_iter(data.iter().map(|&v| set.contains(&v)))
}

/// Membership of every integer element in a numeric literal set.
pub fn in_i64_set(data: &[i64], set: &[f64]) -> Bitmap {
    Bitmap::from_iter(data.iter().map(|&v| set.contains(&(v as f64))))
}

/// Membership of every string element in a literal set.
pub fn in_str_set(data: &[String], set: &[&str]) -> Bitmap {
    Bitmap::from_iter(data.iter().map(|v| set.iter().any(|s| s == v)))
}

/// Per-row truth lookup for dictionary-encoded strings: `lut[code]` is
/// the predicate's answer for that dictionary entry, precomputed once per
/// dictionary (O(K) string comparisons), so the per-row cost is one
/// indexed load. Codes beyond `lut` (impossible for a well-formed
/// column) read as `false`.
pub fn lookup_codes(codes: &[u32], lut: &[bool]) -> Bitmap {
    Bitmap::from_iter(
        codes
            .iter()
            .map(|&c| lut.get(c as usize).copied().unwrap_or(false)),
    )
}

/// Element-wise comparison of two borrowed string slices — the
/// column-vs-column path when at least one side is dictionary-encoded
/// (each side materializes `&str` views, never owned `String`s).
pub fn cmp_str_pairs(a: &[&str], b: &[&str], op: CmpOp) -> Bitmap {
    assert_eq!(a.len(), b.len(), "kernel length mismatch");
    Bitmap::from_iter(a.iter().zip(b).map(|(x, y)| op.holds(x.cmp(y))))
}

/// `low <= v <= high` for every element (numeric `BETWEEN`).
pub fn between_f64(data: &[f64], low: f64, high: f64) -> Bitmap {
    Bitmap::from_iter(data.iter().map(|&v| v >= low && v <= high))
}

/// `low <= v <= high` for every integer element.
pub fn between_i64(data: &[i64], low: f64, high: f64) -> Bitmap {
    Bitmap::from_iter(data.iter().map(|&v| v as f64 >= low && v as f64 <= high))
}

// ---- arithmetic kernels ----

/// Integer arithmetic operator for [`arith_i64`] (division is excluded:
/// SQL division always produces a float — see [`div_f64`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntArithOp {
    /// Wrapping addition.
    Add,
    /// Wrapping subtraction.
    Sub,
    /// Wrapping multiplication.
    Mul,
}

/// Element-wise wrapping integer arithmetic.
pub fn arith_i64(a: &[i64], op: IntArithOp, b: &[i64]) -> Vec<i64> {
    assert_eq!(a.len(), b.len(), "kernel length mismatch");
    let pairs = a.iter().zip(b.iter());
    match op {
        IntArithOp::Add => pairs.map(|(&x, &y)| x.wrapping_add(y)).collect(),
        IntArithOp::Sub => pairs.map(|(&x, &y)| x.wrapping_sub(y)).collect(),
        IntArithOp::Mul => pairs.map(|(&x, &y)| x.wrapping_mul(y)).collect(),
    }
}

/// Wrapping integer arithmetic against a scalar right-hand side.
pub fn arith_i64_scalar(a: &[i64], op: IntArithOp, b: i64) -> Vec<i64> {
    match op {
        IntArithOp::Add => a.iter().map(|&x| x.wrapping_add(b)).collect(),
        IntArithOp::Sub => a.iter().map(|&x| x.wrapping_sub(b)).collect(),
        IntArithOp::Mul => a.iter().map(|&x| x.wrapping_mul(b)).collect(),
    }
}

/// Float arithmetic operator for [`arith_f64`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FloatArithOp {
    /// Addition.
    Add,
    /// Subtraction.
    Sub,
    /// Multiplication.
    Mul,
}

/// Element-wise float arithmetic.
pub fn arith_f64(a: &[f64], op: FloatArithOp, b: &[f64]) -> Vec<f64> {
    assert_eq!(a.len(), b.len(), "kernel length mismatch");
    let pairs = a.iter().zip(b.iter());
    match op {
        FloatArithOp::Add => pairs.map(|(&x, &y)| x + y).collect(),
        FloatArithOp::Sub => pairs.map(|(&x, &y)| x - y).collect(),
        FloatArithOp::Mul => pairs.map(|(&x, &y)| x * y).collect(),
    }
}

/// Float arithmetic against a scalar right-hand side.
pub fn arith_f64_scalar(a: &[f64], op: FloatArithOp, b: f64) -> Vec<f64> {
    match op {
        FloatArithOp::Add => a.iter().map(|&x| x + b).collect(),
        FloatArithOp::Sub => a.iter().map(|&x| x - b).collect(),
        FloatArithOp::Mul => a.iter().map(|&x| x * b).collect(),
    }
}

/// Float arithmetic with a scalar *left*-hand side (`2 - x`).
pub fn arith_scalar_f64(a: f64, op: FloatArithOp, b: &[f64]) -> Vec<f64> {
    match op {
        FloatArithOp::Add => b.iter().map(|&y| a + y).collect(),
        FloatArithOp::Sub => b.iter().map(|&y| a - y).collect(),
        FloatArithOp::Mul => b.iter().map(|&y| a * y).collect(),
    }
}

/// SQL division: always float, divisor zero ⇒ NULL. Returns the quotients
/// plus a bitmap of rows that stay valid (cleared where the divisor is
/// zero).
pub fn div_f64(a: &[f64], b: &[f64]) -> (Vec<f64>, Bitmap) {
    assert_eq!(a.len(), b.len(), "kernel length mismatch");
    let valid = Bitmap::from_iter(b.iter().map(|&y| y != 0.0));
    let out = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| if y == 0.0 { 0.0 } else { x / y })
        .collect();
    (out, valid)
}

/// SQL modulo over floats: divisor zero ⇒ NULL.
pub fn mod_f64(a: &[f64], b: &[f64]) -> (Vec<f64>, Bitmap) {
    assert_eq!(a.len(), b.len(), "kernel length mismatch");
    let valid = Bitmap::from_iter(b.iter().map(|&y| y != 0.0));
    let out = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| if y == 0.0 { 0.0 } else { x % y })
        .collect();
    (out, valid)
}

/// SQL modulo over integers (stays integral): divisor zero ⇒ NULL.
pub fn mod_i64(a: &[i64], b: &[i64]) -> (Vec<i64>, Bitmap) {
    assert_eq!(a.len(), b.len(), "kernel length mismatch");
    let valid = Bitmap::from_iter(b.iter().map(|&y| y != 0));
    let out = a
        .iter()
        .zip(b)
        .map(|(&x, &y)| if y == 0 { 0 } else { x % y })
        .collect();
    (out, valid)
}

/// Widen an integer slice to `f64` (for mixed-type arithmetic).
pub fn widen_i64(data: &[i64]) -> Vec<f64> {
    data.iter().map(|&v| v as f64).collect()
}

/// Negate every integer.
pub fn neg_i64(data: &[i64]) -> Vec<i64> {
    data.iter().map(|&v| v.wrapping_neg()).collect()
}

/// Negate every float.
pub fn neg_f64(data: &[f64]) -> Vec<f64> {
    data.iter().map(|&v| -v).collect()
}

// ---- gather / filter kernels ----

/// Gather `data[indices[i]]` (indices may repeat and reorder).
pub fn take_i64(data: &[i64], indices: &[usize]) -> Vec<i64> {
    indices.iter().map(|&i| data[i]).collect()
}

/// Gather floats by index.
pub fn take_f64(data: &[f64], indices: &[usize]) -> Vec<f64> {
    indices.iter().map(|&i| data[i]).collect()
}

/// Gather strings by index (payload gather for join output columns).
pub fn take_str(data: &[String], indices: &[usize]) -> Vec<String> {
    indices.iter().map(|&i| data[i].clone()).collect()
}

// ---- join-key kernels ----
//
// Equi-join keys compare with `Value::sql_cmp` equality: every numeric
// value (Int, Float, Bool) coerces through `f64`, strings compare
// exactly, and NULL / NaN never match anything. The kernels normalize
// numeric key columns into 64-bit tokens such that two values are
// join-equal iff their tokens are equal — `-0.0` folds onto `0.0`
// (`sql_cmp` calls them equal) and NaN rows are marked invalid.

/// Normalized join-key token of one `f64`; `None` for NaN (a NaN key
/// never matches, like NULL).
#[inline]
pub fn join_key_f64(v: f64) -> Option<u64> {
    if v.is_nan() {
        return None;
    }
    // -0.0 == 0.0 under sql_cmp but differs in bit pattern; normalize.
    let v = if v == 0.0 { 0.0 } else { v };
    Some(v.to_bits())
}

/// Join-key tokens of an integer key column. Ints coerce through `f64`
/// first — `sql_cmp` compares all numerics that way, so integers beyond
/// 2^53 that collapse to one double are join-equal by design.
pub fn join_keys_i64(data: &[i64]) -> Vec<u64> {
    data.iter().map(|&v| (v as f64).to_bits()).collect()
}

/// Join-key tokens of a float key column, plus the bitmap of rows whose
/// key is usable (cleared for NaN — those rows never match).
pub fn join_keys_f64(data: &[f64]) -> (Vec<u64>, Bitmap) {
    let mut out = Vec::with_capacity(data.len());
    let mut valid = Bitmap::ones(data.len());
    for (i, &v) in data.iter().enumerate() {
        match join_key_f64(v) {
            Some(bits) => out.push(bits),
            None => {
                out.push(0);
                valid.set(i, false);
            }
        }
    }
    (out, valid)
}

/// Join-key tokens of a boolean key column (`sql_cmp` coerces booleans
/// numerically, so `true` join-matches `1` and `1.0`).
pub fn join_keys_bool(data: &[bool]) -> Vec<u64> {
    data.iter().map(|&b| (b as u8 as f64).to_bits()).collect()
}

/// Keep elements whose selection bit is set.
pub fn filter_i64(data: &[i64], selection: &Bitmap) -> Vec<i64> {
    assert_eq!(data.len(), selection.len(), "selection length mismatch");
    selection.iter_ones().map(|i| data[i]).collect()
}

/// Keep floats whose selection bit is set.
pub fn filter_f64(data: &[f64], selection: &Bitmap) -> Vec<f64> {
    assert_eq!(data.len(), selection.len(), "selection length mismatch");
    selection.iter_ones().map(|i| data[i]).collect()
}

/// Intersect two optional validity bitmaps (`None` = all valid).
pub fn combine_validity(a: Option<&Bitmap>, b: Option<&Bitmap>) -> Option<Bitmap> {
    match (a, b) {
        (None, None) => None,
        (Some(v), None) | (None, Some(v)) => Some(v.clone()),
        (Some(x), Some(y)) => Some(x.and(y)),
    }
}

// ---- grouped aggregation kernels ----
//
// `group_ids` assigns every row to a dense group index; the accumulator
// slices are indexed by group. `weights` (when present) realize the
// paper's §5.3 weighted-aggregate rewrite without any per-row branching
// in the unweighted case.

/// Mergeable partial-aggregate state for SUM / AVG / COUNT over one set
/// of groups: `Σ x·w` (`sums`), `Σ w` (`wsums`, 1-weights when
/// unweighted), and the qualifying row count (`counts`), each indexed by
/// dense group id.
///
/// Morsel-driven execution gives every worker its own `AggState` filled
/// through [`group_sum_f64`] / [`group_sum_i64`] / [`group_count`] over
/// that worker's morsels, then folds the states together with
/// [`AggState::merge_from`] **in morsel order** — fixed morsel boundaries
/// plus an ordered merge make the result independent of how many threads
/// ran the morsels.
///
/// ```
/// use mosaic_storage::kernels::{self, AggState};
///
/// // Two morsels of `SUM(x) GROUP BY g` with groups appearing in
/// // different local orders.
/// let mut m0 = AggState::new(2); // local groups: [a, b]
/// kernels::group_sum_f64(
///     &[1.0, 2.0, 4.0],
///     None,
///     &[0, 1, 0],
///     None,
///     &mut m0.sums,
///     &mut m0.wsums,
///     &mut m0.counts,
/// );
/// let mut m1 = AggState::new(2); // local groups: [b, a]
/// kernels::group_sum_f64(
///     &[10.0, 20.0],
///     None,
///     &[0, 1],
///     None,
///     &mut m1.sums,
///     &mut m1.wsums,
///     &mut m1.counts,
/// );
/// // Global group order is first-appearance order: [a, b].
/// let mut global = AggState::new(2);
/// global.merge_from(&m0, &[0, 1]); // local a→0, b→1
/// global.merge_from(&m1, &[1, 0]); // local b→1, a→0
/// assert_eq!(global.sums, vec![25.0, 12.0]);
/// assert_eq!(global.counts, vec![3, 2]);
/// ```
#[derive(Debug, Clone, Default)]
pub struct AggState {
    /// Per-group `Σ x·w` (plain `Σ x` when unweighted).
    pub sums: Vec<f64>,
    /// Per-group `Σ w` (the qualifying row count as `f64` when
    /// unweighted) — the denominator of weighted AVG.
    pub wsums: Vec<f64>,
    /// Per-group count of qualifying (non-NULL) rows.
    pub counts: Vec<u64>,
}

impl AggState {
    /// Zeroed state for `n_groups` groups.
    pub fn new(n_groups: usize) -> AggState {
        AggState {
            sums: vec![0.0; n_groups],
            wsums: vec![0.0; n_groups],
            counts: vec![0u64; n_groups],
        }
    }

    /// Number of groups this state covers.
    pub fn n_groups(&self) -> usize {
        self.counts.len()
    }

    /// Fold another state's accumulators into this one. `group_map[l]`
    /// is the index in `self` of the other state's local group `l`;
    /// mapped indices must be in bounds.
    pub fn merge_from(&mut self, other: &AggState, group_map: &[u32]) {
        assert_eq!(
            other.n_groups(),
            group_map.len(),
            "group map length mismatch"
        );
        for (l, &g) in group_map.iter().enumerate() {
            let g = g as usize;
            self.sums[g] += other.sums[l];
            self.wsums[g] += other.wsums[l];
            self.counts[g] += other.counts[l];
        }
    }

    /// Sparse variant of [`AggState::merge_from`] for partitioned merge:
    /// fold only the listed `(local, target)` pairs. Because each local
    /// group appears at most once per source state, per-target addition
    /// order equals the order sources are folded — identical to
    /// `merge_from`, so partitioning never changes float results.
    pub fn merge_pairs(&mut self, other: &AggState, pairs: &[(u32, u32)]) {
        for &(l, g) in pairs {
            let (l, g) = (l as usize, g as usize);
            self.sums[g] += other.sums[l];
            self.wsums[g] += other.wsums[l];
            self.counts[g] += other.counts[l];
        }
    }
}

/// Weighted/unweighted grouped sum over floats. Accumulates `Σ w·x` into
/// `sums` and the qualifying row count into `counts`, skipping invalid
/// (NULL) rows.
pub fn group_sum_f64(
    data: &[f64],
    validity: Option<&Bitmap>,
    group_ids: &[u32],
    weights: Option<&[f64]>,
    sums: &mut [f64],
    wsums: &mut [f64],
    counts: &mut [u64],
) {
    assert_eq!(data.len(), group_ids.len(), "kernel length mismatch");
    match (validity, weights) {
        (None, None) => {
            for (i, &x) in data.iter().enumerate() {
                let g = group_ids[i] as usize;
                sums[g] += x;
                wsums[g] += 1.0;
                counts[g] += 1;
            }
        }
        (None, Some(w)) => {
            for (i, &x) in data.iter().enumerate() {
                let g = group_ids[i] as usize;
                sums[g] += w[i] * x;
                wsums[g] += w[i];
                counts[g] += 1;
            }
        }
        (Some(v), None) => {
            for i in v.iter_ones() {
                let g = group_ids[i] as usize;
                sums[g] += data[i];
                wsums[g] += 1.0;
                counts[g] += 1;
            }
        }
        (Some(v), Some(w)) => {
            for i in v.iter_ones() {
                let g = group_ids[i] as usize;
                sums[g] += w[i] * data[i];
                wsums[g] += w[i];
                counts[g] += 1;
            }
        }
    }
}

/// Grouped sum over integers (unweighted fast path for `SUM(int_col)`).
pub fn group_sum_i64(
    data: &[i64],
    validity: Option<&Bitmap>,
    group_ids: &[u32],
    sums: &mut [f64],
    counts: &mut [u64],
) {
    assert_eq!(data.len(), group_ids.len(), "kernel length mismatch");
    match validity {
        None => {
            for (i, &x) in data.iter().enumerate() {
                let g = group_ids[i] as usize;
                sums[g] += x as f64;
                counts[g] += 1;
            }
        }
        Some(v) => {
            for i in v.iter_ones() {
                let g = group_ids[i] as usize;
                sums[g] += data[i] as f64;
                counts[g] += 1;
            }
        }
    }
}

/// Grouped COUNT: weighted count (`Σ w`) plus raw qualifying-row count
/// for every group, skipping invalid rows.
pub fn group_count(
    validity: Option<&Bitmap>,
    group_ids: &[u32],
    weights: Option<&[f64]>,
    wsums: &mut [f64],
    counts: &mut [u64],
) {
    match (validity, weights) {
        (None, None) => {
            for &g in group_ids {
                wsums[g as usize] += 1.0;
                counts[g as usize] += 1;
            }
        }
        (None, Some(w)) => {
            for (i, &g) in group_ids.iter().enumerate() {
                wsums[g as usize] += w[i];
                counts[g as usize] += 1;
            }
        }
        (Some(v), None) => {
            for i in v.iter_ones() {
                wsums[group_ids[i] as usize] += 1.0;
                counts[group_ids[i] as usize] += 1;
            }
        }
        (Some(v), Some(w)) => {
            for i in v.iter_ones() {
                wsums[group_ids[i] as usize] += w[i];
                counts[group_ids[i] as usize] += 1;
            }
        }
    }
}

/// Grouped min/max over floats (weights never change extrema).
/// `mins`/`maxs` must be seeded with `INFINITY`/`NEG_INFINITY`.
pub fn group_min_max_f64(
    data: &[f64],
    validity: Option<&Bitmap>,
    group_ids: &[u32],
    mins: &mut [f64],
    maxs: &mut [f64],
    counts: &mut [u64],
) {
    assert_eq!(data.len(), group_ids.len(), "kernel length mismatch");
    let mut visit = |i: usize| {
        let g = group_ids[i] as usize;
        let x = data[i];
        if x < mins[g] {
            mins[g] = x;
        }
        if x > maxs[g] {
            maxs[g] = x;
        }
        counts[g] += 1;
    };
    match validity {
        None => (0..data.len()).for_each(&mut visit),
        Some(v) => v.iter_ones().for_each(&mut visit),
    }
}

/// Grouped min/max over integers.
pub fn group_min_max_i64(
    data: &[i64],
    validity: Option<&Bitmap>,
    group_ids: &[u32],
    mins: &mut [i64],
    maxs: &mut [i64],
    counts: &mut [u64],
) {
    assert_eq!(data.len(), group_ids.len(), "kernel length mismatch");
    let mut visit = |i: usize| {
        let g = group_ids[i] as usize;
        let x = data[i];
        if x < mins[g] {
            mins[g] = x;
        }
        if x > maxs[g] {
            maxs[g] = x;
        }
        counts[g] += 1;
    };
    match validity {
        None => (0..data.len()).for_each(&mut visit),
        Some(v) => v.iter_ones().for_each(&mut visit),
    }
}

/// Merge `K` sorted runs of row indices into one globally sorted index
/// vector: a deterministic k-way merge of runs sorted independently.
///
/// `less` must be a **strict total order** over the indices appearing
/// in the runs (callers break key ties on the index itself), each run
/// must be sorted under it, and no index may appear twice. Under those
/// preconditions the output is exactly the order a stable sort of the
/// concatenated runs by the original keys produces — independent of how
/// the indices were split into runs.
///
/// The merge is a binary min-heap of run cursors keyed on each run's
/// current head; ties cannot arise (the order is strict over distinct
/// indices), so the pop sequence — and therefore the result — is a pure
/// function of `less`.
pub fn merge_sorted_runs<F>(runs: &[Vec<usize>], less: F) -> Vec<usize>
where
    F: Fn(usize, usize) -> bool,
{
    fn sift<F: Fn(usize, usize) -> bool>(
        heap: &mut [usize],
        mut i: usize,
        runs: &[Vec<usize>],
        pos: &[usize],
        less: &F,
    ) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut m = i;
            let head = |k: usize| runs[k][pos[k]];
            if l < heap.len() && less(head(heap[l]), head(heap[m])) {
                m = l;
            }
            if r < heap.len() && less(head(heap[r]), head(heap[m])) {
                m = r;
            }
            if m == i {
                return;
            }
            heap.swap(i, m);
            i = m;
        }
    }

    let total: usize = runs.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(total);
    let mut pos = vec![0usize; runs.len()];
    let mut heap: Vec<usize> = (0..runs.len()).filter(|&r| !runs[r].is_empty()).collect();
    for i in (0..heap.len() / 2).rev() {
        sift(&mut heap, i, runs, &pos, &less);
    }
    while let Some(&r) = heap.first() {
        out.push(runs[r][pos[r]]);
        pos[r] += 1;
        if pos[r] == runs[r].len() {
            let last = heap.len() - 1;
            heap.swap(0, last);
            heap.pop();
        }
        if !heap.is_empty() {
            sift(&mut heap, 0, runs, &pos, &less);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_scalar_matches_manual() {
        let data = [1i64, 5, 3, 5, -2];
        let bm = cmp_i64_scalar(&data, CmpOp::Gt, 2.0);
        assert_eq!(bm.to_indices(), vec![1, 2, 3]);
        let bm = cmp_f64_scalar(&[1.0, 2.5, 2.5], CmpOp::Eq, 2.5);
        assert_eq!(bm.to_indices(), vec![1, 2]);
    }

    #[test]
    fn merge_sorted_runs_matches_stable_sort() {
        // Duplicate keys; the strict total order is (key, index), so the
        // merge must reproduce a stable sort by the keys alone no matter
        // how the indices are cut into runs.
        let keys = [5i64, 1, 3, 3, 2, 5, 1, 4, 3, 0, 2, 5];
        let less = |a: usize, b: usize| (keys[a], a) < (keys[b], b);
        let ord = |a: &usize, b: &usize| {
            if less(*a, *b) {
                std::cmp::Ordering::Less
            } else if less(*b, *a) {
                std::cmp::Ordering::Greater
            } else {
                std::cmp::Ordering::Equal
            }
        };
        let mut expect: Vec<usize> = (0..keys.len()).collect();
        expect.sort_by_key(|&i| keys[i]); // stable
        for chunk in [1usize, 2, 5, 12] {
            let all: Vec<usize> = (0..keys.len()).collect();
            let runs: Vec<Vec<usize>> = all
                .chunks(chunk)
                .map(|c| {
                    let mut run = c.to_vec();
                    run.sort_unstable_by(ord);
                    run
                })
                .collect();
            assert_eq!(merge_sorted_runs(&runs, less), expect, "chunk {chunk}");
        }
        let empty: [Vec<usize>; 0] = [];
        assert!(merge_sorted_runs(&empty, |a: usize, b: usize| a < b).is_empty());
        assert!(merge_sorted_runs(&[vec![], vec![]], |a, b| a < b).is_empty());
    }

    #[test]
    fn cmp_mixed_int_float() {
        let bm = cmp_i64_f64(&[1, 2, 3], &[1.5, 2.0, 2.5], CmpOp::Ge);
        assert_eq!(bm.to_indices(), vec![1, 2]);
    }

    #[test]
    fn cmp_str_kernels() {
        let data: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        assert_eq!(
            cmp_str_scalar(&data, CmpOp::Ne, "b").to_indices(),
            vec![0, 2]
        );
        assert_eq!(cmp_str(&data, &data, CmpOp::Eq).count_ones(), 3);
    }

    #[test]
    fn in_set_kernels() {
        assert_eq!(in_i64_set(&[1, 2, 3], &[2.0, 9.0]).to_indices(), vec![1]);
        let strs: Vec<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        assert_eq!(in_str_set(&strs, &["y", "z"]).to_indices(), vec![1]);
    }

    #[test]
    fn between_inclusive() {
        assert_eq!(
            between_i64(&[1, 2, 3, 4], 2.0, 3.0).to_indices(),
            vec![1, 2]
        );
    }

    #[test]
    fn int_arith_wraps() {
        assert_eq!(
            arith_i64(&[1, i64::MAX], IntArithOp::Add, &[2, 1]),
            vec![3, i64::MIN]
        );
        assert_eq!(arith_i64_scalar(&[5, 6], IntArithOp::Mul, 3), vec![15, 18]);
    }

    #[test]
    fn div_by_zero_invalidates() {
        let (q, valid) = div_f64(&[6.0, 1.0], &[2.0, 0.0]);
        assert_eq!(q[0], 3.0);
        assert!(valid.get(0) && !valid.get(1));
        let (m, valid) = mod_i64(&[7, 7], &[4, 0]);
        assert_eq!(m[0], 3);
        assert!(!valid.get(1));
    }

    #[test]
    fn take_and_filter() {
        assert_eq!(take_i64(&[10, 20, 30], &[2, 0, 0]), vec![30, 10, 10]);
        let sel = Bitmap::from_iter([true, false, true]);
        assert_eq!(filter_f64(&[1.0, 2.0, 3.0], &sel), vec![1.0, 3.0]);
    }

    #[test]
    fn join_key_tokens_follow_sql_equality() {
        // Int 2 and Float 2.0 must produce the same token.
        let ints = join_keys_i64(&[2, -1, 0]);
        let (floats, valid) = join_keys_f64(&[2.0, -0.0, f64::NAN]);
        assert_eq!(ints[0], floats[0]);
        // -0.0 normalizes onto 0.0 (they are sql-equal).
        assert_eq!(floats[1], join_keys_i64(&[0])[0]);
        assert_eq!(ints[2], floats[1]);
        // NaN keys are invalid — they never match.
        assert!(valid.get(0) && valid.get(1) && !valid.get(2));
        assert_eq!(join_key_f64(f64::NAN), None);
        // Booleans coerce numerically, like sql_cmp.
        assert_eq!(join_keys_bool(&[true, false]), join_keys_i64(&[1, 0]));
    }

    #[test]
    fn take_str_reorders_and_repeats() {
        let data: Vec<String> = ["a", "b", "c"].iter().map(|s| s.to_string()).collect();
        assert_eq!(take_str(&data, &[2, 0, 0]), vec!["c", "a", "a"]);
    }

    #[test]
    fn validity_combines_as_and() {
        let a = Bitmap::from_iter([true, true, false]);
        let b = Bitmap::from_iter([true, false, true]);
        assert_eq!(
            combine_validity(Some(&a), Some(&b)).unwrap().to_indices(),
            vec![0]
        );
        assert_eq!(combine_validity(None, Some(&b)).unwrap(), b);
        assert!(combine_validity(None, None).is_none());
    }

    #[test]
    fn grouped_sum_weighted() {
        let data = [1.0, 2.0, 3.0, 4.0];
        let gids = [0u32, 1, 0, 1];
        let w = [10.0, 1.0, 10.0, 1.0];
        let mut sums = [0.0; 2];
        let mut wsums = [0.0; 2];
        let mut counts = [0u64; 2];
        group_sum_f64(
            &data,
            None,
            &gids,
            Some(&w),
            &mut sums,
            &mut wsums,
            &mut counts,
        );
        assert_eq!(sums, [40.0, 6.0]);
        assert_eq!(wsums, [20.0, 2.0]);
        assert_eq!(counts, [2, 2]);
    }

    #[test]
    fn grouped_sum_skips_nulls() {
        let data = [1.0, 99.0, 3.0];
        let validity = Bitmap::from_iter([true, false, true]);
        let gids = [0u32, 0, 0];
        let mut sums = [0.0; 1];
        let mut wsums = [0.0; 1];
        let mut counts = [0u64; 1];
        group_sum_f64(
            &data,
            Some(&validity),
            &gids,
            None,
            &mut sums,
            &mut wsums,
            &mut counts,
        );
        assert_eq!(sums, [4.0]);
        assert_eq!(counts, [2]);
    }

    #[test]
    fn grouped_min_max() {
        let data = [5i64, -1, 9, 0];
        let gids = [0u32, 0, 1, 1];
        let mut mins = [i64::MAX; 2];
        let mut maxs = [i64::MIN; 2];
        let mut counts = [0u64; 2];
        group_min_max_i64(&data, None, &gids, &mut mins, &mut maxs, &mut counts);
        assert_eq!(mins, [-1, 0]);
        assert_eq!(maxs, [5, 9]);
    }

    #[test]
    fn grouped_count_weighted_null_aware() {
        let validity = Bitmap::from_iter([true, false, true, true]);
        let gids = [0u32, 0, 1, 1];
        let w = [2.0, 3.0, 4.0, 5.0];
        let mut wsums = [0.0; 2];
        let mut counts = [0u64; 2];
        group_count(Some(&validity), &gids, Some(&w), &mut wsums, &mut counts);
        assert_eq!(wsums, [2.0, 9.0]);
        assert_eq!(counts, [1, 2]);
    }

    #[test]
    fn lookup_codes_applies_lut() {
        let codes = [0u32, 2, 1, 5];
        let lut = [true, false, true];
        let out = lookup_codes(&codes, &lut);
        // Code 5 is beyond the LUT and reads as false.
        assert_eq!(out.to_indices(), vec![0, 1]);
    }

    #[test]
    fn cmp_str_pairs_matches_cmp_str() {
        let a = vec!["a".to_string(), "b".into(), "c".into()];
        let b = vec!["b".to_string(), "b".into(), "a".into()];
        let ar: Vec<&str> = a.iter().map(|s| s.as_str()).collect();
        let br: Vec<&str> = b.iter().map(|s| s.as_str()).collect();
        for op in [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge] {
            assert_eq!(
                cmp_str_pairs(&ar, &br, op).to_indices(),
                cmp_str(&a, &b, op).to_indices(),
                "{op:?}"
            );
        }
    }

    #[test]
    fn merge_pairs_matches_merge_from() {
        let mut local = AggState::new(3);
        for g in 0..3 {
            local.sums[g] = (g + 1) as f64;
            local.wsums[g] = 1.0;
            local.counts[g] = g as u64;
        }
        let map = [2u32, 0, 1];
        let mut a = AggState::new(3);
        a.merge_from(&local, &map);
        let mut b = AggState::new(3);
        let pairs: Vec<(u32, u32)> = map
            .iter()
            .enumerate()
            .map(|(l, &g)| (l as u32, g))
            .collect();
        b.merge_pairs(&local, &pairs);
        assert_eq!(a.sums, b.sums);
        assert_eq!(a.wsums, b.wsums);
        assert_eq!(a.counts, b.counts);
    }
}
