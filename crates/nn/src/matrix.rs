use rand::Rng;

/// A row-major dense `f64` matrix.
///
/// Only the kernels a small MLP needs are provided. The three matrix
/// products share one register-tiled kernel that sums every output in
/// the same k-order as a scalar i-k-j loop.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix.
    pub fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Build from a flat row-major vector.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Matrix {
        assert_eq!(data.len(), rows * cols, "matrix shape mismatch");
        Matrix { rows, cols, data }
    }

    /// Gaussian-initialized matrix with standard deviation `std`
    /// (Box–Muller; avoids a `rand_distr` dependency).
    pub fn randn<R: Rng + ?Sized>(rows: usize, cols: usize, std: f64, rng: &mut R) -> Matrix {
        let data = (0..rows * cols)
            .map(|_| {
                let u1: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                let u2: f64 = rng.random::<f64>();
                std * (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
            })
            .collect();
        Matrix { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Element at `(r, c)`.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f64 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    /// Set element at `(r, c)`.
    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f64) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row(&self, r: usize) -> &[f64] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutably borrow row `r`.
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [f64] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Flat row-major data.
    pub fn data(&self) -> &[f64] {
        &self.data
    }

    /// Mutable flat row-major data.
    pub fn data_mut(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Give the matrix shape `rows × cols`, reusing its allocation when it
    /// is large enough. The contents are unspecified afterwards: callers
    /// overwrite every element.
    fn reshape_for_overwrite(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// The transpose (`n×k → k×n`).
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for (c, &x) in self.row(r).iter().enumerate() {
                out.data[c * self.rows + r] = x;
            }
        }
        out
    }

    /// `self · other` (`(n×k) · (k×m) → n×m`).
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(0, 0);
        self.matmul_into(other, None, &mut out);
        out
    }

    /// `out ← self · other`, plus `bias` (a `1×m` row vector) added to
    /// every row as each tile is stored — a dense layer in one pass. `out`
    /// is reshaped to `n×m` and overwritten, reusing its allocation.
    ///
    /// Terms whose `self` element is zero are left out of the sum. That
    /// can only change a result when `other` holds an infinity or NaN
    /// (`0·∞ = NaN`): for finite `b`, `0·b` is ±0, and adding ±0 to an
    /// accumulator that starts at +0.0 (and so is never −0) leaves it
    /// unchanged. So the zeros are tested only when one O(k·m) scan finds
    /// a non-finite value in `other`.
    pub fn matmul_into(&self, other: &Matrix, bias: Option<&Matrix>, out: &mut Matrix) {
        assert_eq!(self.cols, other.rows, "matmul shape mismatch");
        if let Some(bias) = bias {
            assert_eq!(
                (bias.rows, bias.cols),
                (1, other.cols),
                "bias shape mismatch"
            );
        }
        let skip_zeros = !other.data.iter().all(|x| x.is_finite());
        out.reshape_for_overwrite(self.rows, other.cols);
        let bias = bias.map(|b| b.data.as_slice());
        if skip_zeros {
            product::<true>(self, other, bias, &mut out.data);
        } else {
            product::<false>(self, other, bias, &mut out.data);
        }
    }

    /// `selfᵀ · other` (`(n×k)ᵀ · (n×m) → k×m`): each output sums over
    /// the `n` rows in order, skipping zeros of `self` like
    /// [`Matrix::matmul_into`].
    pub fn matmul_tn(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.rows, other.rows, "matmul_tn shape mismatch");
        self.transpose().matmul(other)
    }

    /// `self · otherᵀ` (`(n×k) · (m×k)ᵀ → n×m`): every term is summed,
    /// zeros included.
    pub fn matmul_nt(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.cols, "matmul_nt shape mismatch");
        let mut out = Matrix::zeros(self.rows, other.rows);
        product::<false>(self, &other.transpose(), None, &mut out.data);
        out
    }

    /// Element-wise in-place addition.
    pub fn add_assign(&mut self, other: &Matrix) {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        for (a, b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
    }

    /// In-place scaling.
    pub fn scale(&mut self, factor: f64) {
        for a in &mut self.data {
            *a *= factor;
        }
    }

    /// Column sums as a `1×cols` matrix.
    pub fn col_sum(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols);
        for r in 0..self.rows {
            for (o, &x) in out.data.iter_mut().zip(self.row(r)) {
                *o += x;
            }
        }
        out
    }

    /// Column means as a `1×cols` matrix.
    pub fn col_mean(&self) -> Matrix {
        let mut s = self.col_sum();
        if self.rows > 0 {
            s.scale(1.0 / self.rows as f64);
        }
        s
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }
}

/// Rows of the register tile: each `b` segment loaded is reused for `MR`
/// rows, each `a` element for `NR` columns.
const MR: usize = 2;
/// Columns of the register tile: 2 × 8 accumulators fill eight of the
/// sixteen SSE2 registers of baseline x86-64, leaving room for the `b`
/// segment and the broadcast `a` values.
const NR: usize = 8;

/// `out ← a · b (+ bias)` over row-major data: `MR × NR` register tiles,
/// narrower ones for the rows and columns left over.
///
/// Whatever tile an output falls in, it is summed as
/// `0.0 + a[i,0]·b[0,j] + a[i,1]·b[1,j] + …` in k-order, the order of the
/// scalar i-k-j loop, so its bits do not depend on the tiling (Rust never
/// contracts `x*y + z` into a fused multiply-add). With `SKIP_ZEROS`,
/// terms whose `a` element is zero are left out.
fn product<const SKIP_ZEROS: bool>(a: &Matrix, b: &Matrix, bias: Option<&[f64]>, out: &mut [f64]) {
    debug_assert_eq!(a.cols, b.rows);
    debug_assert_eq!(out.len(), a.rows * b.cols);
    let mut i = 0;
    while i + MR <= a.rows {
        row_panel::<SKIP_ZEROS, MR>(a, b, bias, out, i);
        i += MR;
    }
    for i in i..a.rows {
        row_panel::<SKIP_ZEROS, 1>(a, b, bias, out, i);
    }
}

/// Output rows `i..i + R`, tile by tile across the columns.
#[inline(always)]
fn row_panel<const SKIP_ZEROS: bool, const R: usize>(
    a: &Matrix,
    b: &Matrix,
    bias: Option<&[f64]>,
    out: &mut [f64],
    i: usize,
) {
    let m = b.cols;
    let mut j = 0;
    while j + NR <= m {
        tile::<SKIP_ZEROS, R, NR>(a, b, bias, out, i, j);
        j += NR;
    }
    if j + 4 <= m {
        tile::<SKIP_ZEROS, R, 4>(a, b, bias, out, i, j);
        j += 4;
    }
    if j + 2 <= m {
        tile::<SKIP_ZEROS, R, 2>(a, b, bias, out, i, j);
        j += 2;
    }
    if j < m {
        tile::<SKIP_ZEROS, R, 1>(a, b, bias, out, i, j);
    }
}

/// The `R × W` outputs at `(i, j)`, accumulated in registers over the
/// whole k range and stored once (with the bias added in the store).
#[inline(always)]
#[allow(clippy::needless_range_loop)]
fn tile<const SKIP_ZEROS: bool, const R: usize, const W: usize>(
    a: &Matrix,
    b: &Matrix,
    bias: Option<&[f64]>,
    out: &mut [f64],
    i: usize,
    j: usize,
) {
    let m = b.cols;
    let a_rows: [&[f64]; R] = std::array::from_fn(|r| a.row(i + r));
    let mut acc = [[0.0f64; W]; R];
    for (p, b_row) in b.data.chunks_exact(m).enumerate() {
        let b_seg: &[f64; W] = b_row[j..j + W].try_into().expect("tile width");
        for r in 0..R {
            let x = a_rows[r][p];
            if SKIP_ZEROS && x == 0.0 {
                continue;
            }
            for c in 0..W {
                acc[r][c] += x * b_seg[c];
            }
        }
    }
    for r in 0..R {
        let dst = &mut out[(i + r) * m + j..(i + r) * m + j + W];
        match bias {
            Some(bias) => {
                for c in 0..W {
                    dst[c] = acc[r][c] + bias[j + c];
                }
            }
            None => dst.copy_from_slice(&acc[r]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn matmul_small() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        let b = Matrix::from_vec(3, 2, vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]);
        let c = a.matmul(&b);
        assert_eq!(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_tn_equals_transpose_then_matmul() {
        let mut rng = StdRng::seed_from_u64(1);
        let a = Matrix::randn(4, 3, 1.0, &mut rng);
        let b = Matrix::randn(4, 5, 1.0, &mut rng);
        let tn = a.matmul_tn(&b);
        // Manual transpose.
        let mut at = Matrix::zeros(3, 4);
        for r in 0..4 {
            for c in 0..3 {
                at.set(c, r, a.get(r, c));
            }
        }
        let expect = at.matmul(&b);
        for (x, y) in tn.data().iter().zip(expect.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn matmul_nt_equals_matmul_with_transpose() {
        let mut rng = StdRng::seed_from_u64(2);
        let a = Matrix::randn(3, 4, 1.0, &mut rng);
        let b = Matrix::randn(5, 4, 1.0, &mut rng);
        let nt = a.matmul_nt(&b);
        let mut bt = Matrix::zeros(4, 5);
        for r in 0..5 {
            for c in 0..4 {
                bt.set(c, r, b.get(r, c));
            }
        }
        let expect = a.matmul(&bt);
        for (x, y) in nt.data().iter().zip(expect.data()) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn broadcast_and_reductions() {
        let identity = Matrix::from_vec(2, 2, vec![1.0, 0.0, 0.0, 1.0]);
        let mut m = Matrix::zeros(0, 0);
        Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).matmul_into(
            &identity,
            Some(&Matrix::from_vec(1, 2, vec![10.0, 20.0])),
            &mut m,
        );
        assert_eq!(m.data(), &[11.0, 22.0, 13.0, 24.0]);
        assert_eq!(m.col_sum().data(), &[24.0, 46.0]);
        assert_eq!(m.col_mean().data(), &[12.0, 23.0]);
    }

    #[test]
    fn randn_reasonable_spread() {
        let mut rng = StdRng::seed_from_u64(3);
        let m = Matrix::randn(100, 100, 2.0, &mut rng);
        let mean = m.data().iter().sum::<f64>() / 10_000.0;
        let var = m.data().iter().map(|x| (x - mean).powi(2)).sum::<f64>() / 10_000.0;
        assert!(mean.abs() < 0.1);
        assert!((var - 4.0).abs() < 0.3);
    }

    #[test]
    #[should_panic]
    fn shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    /// The scalar i-k-j kernels the tile kernel replaced: the reference
    /// its outputs must match bit for bit.
    mod reference {
        use super::Matrix;

        pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(a.rows, b.cols);
            for i in 0..a.rows {
                for (k, &x) in a.row(i).iter().enumerate() {
                    if x == 0.0 {
                        continue;
                    }
                    for (o, &y) in out.row_mut(i).iter_mut().zip(b.row(k)) {
                        *o += x * y;
                    }
                }
            }
            out
        }

        pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(a.cols, b.cols);
            for n in 0..a.rows {
                for (k, &x) in a.row(n).iter().enumerate() {
                    if x == 0.0 {
                        continue;
                    }
                    for (o, &y) in out.row_mut(k).iter_mut().zip(b.row(n)) {
                        *o += x * y;
                    }
                }
            }
            out
        }

        pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
            let mut out = Matrix::zeros(a.rows, b.rows);
            for i in 0..a.rows {
                for j in 0..b.rows {
                    let mut acc = 0.0;
                    for (x, y) in a.row(i).iter().zip(b.row(j)) {
                        acc += x * y;
                    }
                    out.set(i, j, acc);
                }
            }
            out
        }
    }

    /// A matrix of normal draws salted with the values that decide the
    /// zero-skip: ±0.0 always, ±∞ and NaN when `non_finite`.
    fn salted(rows: usize, cols: usize, non_finite: bool, rng: &mut StdRng) -> Matrix {
        let mut m = Matrix::randn(rows, cols, 1.0, rng);
        for x in m.data_mut() {
            *x = match rng.random_range(0u8..16) {
                0 | 1 => 0.0,
                2 => -0.0,
                3 if non_finite => f64::INFINITY,
                4 if non_finite => f64::NEG_INFINITY,
                5 if non_finite => f64::NAN,
                _ => *x,
            };
        }
        m
    }

    /// Bit patterns, with every NaN mapped to one: IEEE 754 leaves the
    /// payload of a NaN result unspecified, so only NaN-ness is compared.
    fn bits(m: &Matrix) -> (usize, usize, Vec<u64>) {
        let bits = m
            .data()
            .iter()
            .map(|x| if x.is_nan() { f64::NAN } else { *x }.to_bits())
            .collect();
        (m.rows(), m.cols(), bits)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// `n` covers 0 rows and row counts that are not a multiple of
        /// the tile height, `m` column counts that are not a multiple of
        /// the tile width, `k` a single term.
        #[test]
        fn kernels_match_the_scalar_reference_bit_for_bit(
            n in 0usize..12,
            k in 1usize..10,
            m in 1usize..27,
            non_finite in 0u8..2,
            seed in 0u64..u64::MAX,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let non_finite = non_finite == 1;
            let a = salted(n, k, true, &mut rng);
            let b = salted(k, m, non_finite, &mut rng);
            proptest::prop_assert_eq!(bits(&a.matmul(&b)), bits(&reference::matmul(&a, &b)));
            let bias = salted(1, m, non_finite, &mut rng);
            let mut fused = Matrix::from_vec(1, 1, vec![f64::NAN]);
            a.matmul_into(&b, Some(&bias), &mut fused);
            let mut unfused = reference::matmul(&a, &b);
            for r in 0..n {
                for (o, x) in unfused.row_mut(r).iter_mut().zip(bias.data()) {
                    *o += x;
                }
            }
            proptest::prop_assert_eq!(bits(&fused), bits(&unfused));
            // `selfᵀ · other` over an `n`-row pair (`n` = 0 gives k×m zeros).
            let c = salted(n, m, non_finite, &mut rng);
            proptest::prop_assert_eq!(bits(&a.matmul_tn(&c)), bits(&reference::matmul_tn(&a, &c)));
            let d = salted(m, k, non_finite, &mut rng);
            proptest::prop_assert_eq!(bits(&a.matmul_nt(&d)), bits(&reference::matmul_nt(&a, &d)));
        }
    }
}
