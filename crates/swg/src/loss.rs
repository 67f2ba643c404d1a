//! Loss terms of the M-SWG objective (paper §5.2, Eq. 1) with closed-form
//! gradients:
//!
//! ```text
//! min_G  k·Σ_{i∈I₁} W(P_i, Q_i)
//!      + (1/p)·Σ_{{i,j}∈I₂} Σ_{ω∈Ω} W(P_{i,j}ω, Q_{i,j}ω)
//!      + λ·E_{x∼G}[ min_{y∈S} ‖x−y‖² ]
//! ```
//!
//! 1-D marginals use the exact Wasserstein distance via sorted quantile
//! matching; ≥2-D marginals are first projected by random unit vectors
//! (the sliced Wasserstein distance). The last term keeps generated points
//! on the sample manifold (the paper's sample-coverage assumption).

use mosaic_nn::Matrix;
use mosaic_stats::{WassersteinOrder, WeightedEmpirical};

use crate::EncodedMarginal;

/// Exact 1-D Wasserstein matching between a generated batch column and a
/// weighted target distribution.
///
/// Sorted generated value `x₍ₖ₎` is matched to the target quantile at CDF
/// position `(k+0.5)/n`. Under `W2Squared` the contribution is
/// `(x−q)²/n` with gradient `2(x−q)/n`; under `W1` it is `|x−q|/n` with
/// gradient `sign(x−q)/n`. Returns the loss and writes per-generated-value
/// gradients into `grad` (aligned with `values`).
pub fn quantile_matching_1d(
    values: &[f64],
    target: &WeightedEmpirical,
    order: WassersteinOrder,
    grad: &mut [f64],
) -> f64 {
    debug_assert_eq!(values.len(), grad.len());
    let n = values.len();
    if n == 0 || target.is_empty() {
        grad.fill(0.0);
        return 0.0;
    }
    let mut idx: Vec<usize> = (0..n).collect();
    idx.sort_by(|&a, &b| values[a].total_cmp(&values[b]));
    let nf = n as f64;
    let mut loss = 0.0;
    for (rank, &i) in idx.iter().enumerate() {
        let q = target.quantile((rank as f64 + 0.5) / nf);
        let d = values[i] - q;
        match order {
            WassersteinOrder::W2Squared => {
                loss += d * d / nf;
                grad[i] = 2.0 * d / nf;
            }
            WassersteinOrder::W1 => {
                loss += d.abs() / nf;
                grad[i] = d.signum() / nf;
            }
        }
    }
    loss
}

/// One marginal's contribution to the loss and to `grad_output`.
///
/// * encoded dim 1 → exact 1-D Wasserstein (no projections needed),
/// * encoded dim ≥ 2 → sliced Wasserstein over `projections` random unit
///   vectors, averaged.
///
/// `scale` multiplies both the loss and the gradient (the `k` coefficient
/// of Eq. 1, or `1` for 2-D terms).
#[allow(clippy::needless_range_loop)]
pub fn marginal_loss_grad(
    output: &Matrix,
    marginal: &EncodedMarginal,
    projections: &[Vec<f64>],
    order: WassersteinOrder,
    scale: f64,
    grad_output: &mut Matrix,
) -> f64 {
    let n = output.rows();
    if n == 0 || marginal.points.is_empty() {
        return 0.0;
    }
    let mut values = vec![0.0; n];
    let mut grad1d = vec![0.0; n];
    if marginal.dim() == 1 {
        let col = marginal.cols[0];
        for r in 0..n {
            values[r] = output.get(r, col);
        }
        let target = WeightedEmpirical::from_pairs(
            marginal
                .points
                .iter()
                .zip(&marginal.weights)
                .map(|(p, &w)| (p[0], w)),
        );
        let loss = quantile_matching_1d(&values, &target, order, &mut grad1d);
        for r in 0..n {
            let g = grad_output.get(r, col) + scale * grad1d[r];
            grad_output.set(r, col, g);
        }
        return scale * loss;
    }
    assert!(
        !projections.is_empty(),
        "multi-dimensional marginal requires projections"
    );
    let mut total = 0.0;
    let pf = projections.len() as f64;
    for omega in projections {
        debug_assert_eq!(omega.len(), marginal.dim());
        // Project generated sub-vector and target cells onto omega.
        for r in 0..n {
            let row = output.row(r);
            values[r] = marginal
                .cols
                .iter()
                .zip(omega)
                .map(|(&c, &w)| row[c] * w)
                .sum();
        }
        let target = WeightedEmpirical::from_pairs(
            marginal
                .points
                .iter()
                .zip(&marginal.weights)
                .map(|(p, &wt)| (p.iter().zip(omega).map(|(x, w)| x * w).sum(), wt)),
        );
        let loss = quantile_matching_1d(&values, &target, order, &mut grad1d);
        total += loss / pf;
        // Chain rule through the projection: d proj / d x_c = omega_c.
        let s = scale / pf;
        for r in 0..n {
            let g1 = grad1d[r];
            if g1 == 0.0 {
                continue;
            }
            for (&c, &w) in marginal.cols.iter().zip(omega) {
                let g = grad_output.get(r, c) + s * g1 * w;
                grad_output.set(r, c, g);
            }
        }
    }
    scale * total
}

/// The coverage term `λ·E_x min_y ‖x−y‖²`: for every generated row, the
/// squared distance to its nearest encoded sample row among the
/// candidates `sample_rows` (a random subsample, or every row — the paper
/// does not prescribe an index, and a subsample preserves the objective in
/// expectation). Returns the loss and accumulates gradients `2λ(x−y)/n`
/// into `grad_output`.
///
/// The search is exact and its result is fixed bit for bit: each
/// candidate's distance is the full sum `Σ_k (x_k − y_k)²` taken in
/// coordinate order (no reassociation, no fused multiply-add), the
/// nearest is picked by a strict `<` so the first position in
/// `sample_rows` wins a tie, a NaN distance is never picked, and if no
/// distance is picked the first candidate is used. The candidates are
/// copied once per call into a candidate-major buffer, so one row's
/// distances to all of them accumulate one coordinate at a time across a
/// contiguous slice.
pub fn coverage_loss_grad(
    output: &Matrix,
    sample_enc: &Matrix,
    sample_rows: &[usize],
    lambda: f64,
    grad_output: &mut Matrix,
) -> f64 {
    let n = output.rows();
    let d = output.cols();
    if n == 0 || sample_rows.is_empty() || lambda == 0.0 {
        return 0.0;
    }
    let m = sample_rows.len();
    // yt[k·m + j] is coordinate k of candidate j.
    let mut yt = vec![0.0; d * m];
    for (j, &s) in sample_rows.iter().enumerate() {
        for (k, &v) in sample_enc.row(s)[..d].iter().enumerate() {
            yt[k * m + j] = v;
        }
    }
    let mut acc = vec![0.0; m];
    let nf = n as f64;
    let mut loss = 0.0;
    for r in 0..n {
        let x = output.row(r);
        acc.fill(0.0);
        for (&xk, yk) in x.iter().zip(yt.chunks_exact(m)) {
            for (a, &y) in acc.iter_mut().zip(yk) {
                let diff = xk - y;
                *a += diff * diff;
            }
        }
        let mut best = f64::INFINITY;
        let mut best_pos = 0;
        for (j, &dist) in acc.iter().enumerate() {
            if dist < best {
                best = dist;
                best_pos = j;
            }
        }
        loss += lambda * best / nf;
        let y = sample_enc.row(sample_rows[best_pos]);
        for ((g, &xk), &yk) in grad_output.row_mut(r).iter_mut().zip(x).zip(y) {
            *g += 2.0 * lambda * (xk - yk) / nf;
        }
    }
    loss
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The brute-force search `coverage_loss_grad` replaced: in-order
    /// distances with an early exit once a partial sum reaches the best.
    #[allow(clippy::needless_range_loop)]
    fn reference_coverage_loss_grad(
        output: &Matrix,
        sample_enc: &Matrix,
        sample_rows: &[usize],
        lambda: f64,
        grad_output: &mut Matrix,
    ) -> f64 {
        let n = output.rows();
        let d = output.cols();
        if n == 0 || sample_rows.is_empty() || lambda == 0.0 {
            return 0.0;
        }
        let nf = n as f64;
        let mut loss = 0.0;
        for r in 0..n {
            let x = output.row(r);
            let mut best = f64::INFINITY;
            let mut best_row = sample_rows[0];
            for &s in sample_rows {
                let y = sample_enc.row(s);
                let mut dist = 0.0;
                for k in 0..d {
                    let diff = x[k] - y[k];
                    dist += diff * diff;
                    if dist >= best {
                        break;
                    }
                }
                if dist < best {
                    best = dist;
                    best_row = s;
                }
            }
            loss += lambda * best / nf;
            let y = sample_enc.row(best_row).to_vec();
            let g = grad_output.row_mut(r);
            for k in 0..d {
                g[k] += 2.0 * lambda * (x[k] - y[k]) / nf;
            }
        }
        loss
    }

    /// A coordinate that is often a quarter step in `[0, 1]`, so distances
    /// between distinct rows tie exactly, and otherwise a random float.
    fn coordinate(rng: &mut StdRng) -> f64 {
        if rng.random_bool(0.6) {
            f64::from(rng.random_range(0..5u8)) * 0.25
        } else {
            rng.random_range(-1.5..2.5)
        }
    }

    /// A sample of `d`-wide rows in which some rows repeat earlier ones,
    /// and `m` candidate positions drawn with replacement.
    fn coverage_world(rng: &mut StdRng, d: usize, m: usize) -> (Matrix, Vec<usize>) {
        let rows = rng.random_range(1..80usize);
        let mut data: Vec<f64> = Vec::with_capacity(rows * d);
        for r in 0..rows {
            if r > 0 && rng.random_bool(0.3) {
                let src = rng.random_range(0..r) * d;
                data.extend_from_within(src..src + d);
            } else {
                data.extend((0..d).map(|_| coordinate(rng)));
            }
        }
        let positions = (0..m).map(|_| rng.random_range(0..rows)).collect();
        (Matrix::from_vec(rows, d, data), positions)
    }

    /// `n` generated rows: some equal a candidate, and when `specials`
    /// is set some cells are NaN or ±∞.
    fn generated(
        rng: &mut StdRng,
        n: usize,
        sample: &Matrix,
        positions: &[usize],
        specials: bool,
    ) -> Matrix {
        let d = sample.cols();
        let mut data = Vec::with_capacity(n * d);
        for _ in 0..n {
            if rng.random_bool(0.25) {
                let s = positions[rng.random_range(0..positions.len())];
                data.extend_from_slice(sample.row(s));
            } else {
                data.extend((0..d).map(|_| coordinate(rng)));
            }
        }
        if specials {
            for v in data.iter_mut() {
                if rng.random_bool(0.05) {
                    *v = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.random_range(0..3usize)];
                }
            }
        }
        Matrix::from_vec(n, d, data)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        #[test]
        fn coverage_matches_brute_force_bit_for_bit(
            seed in 0u64..u64::MAX,
            d in 1usize..25,
            m in 1usize..301,
            n in 0usize..40,
            lambda_pick in 0usize..4,
            specials in 0u8..2,
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let (sample, positions) = coverage_world(&mut rng, d, m);
            let output = generated(&mut rng, n, &sample, &positions, specials == 1);
            let lambda = [0.0, 1e-7, 0.04, 1.3][lambda_pick];
            let start: Vec<f64> = (0..n * d).map(|_| rng.random_range(-0.5..0.5)).collect();
            let mut want_grad = Matrix::from_vec(n, d, start.clone());
            let mut got_grad = Matrix::from_vec(n, d, start);
            let want =
                reference_coverage_loss_grad(&output, &sample, &positions, lambda, &mut want_grad);
            let got = coverage_loss_grad(&output, &sample, &positions, lambda, &mut got_grad);
            let bits = |g: &Matrix| g.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            proptest::prop_assert_eq!(got.to_bits(), want.to_bits());
            proptest::prop_assert_eq!(bits(&got_grad), bits(&want_grad));
        }
    }

    #[test]
    fn quantile_matching_zero_when_matched() {
        // Generated values already at the target quantiles.
        let target = WeightedEmpirical::from_values([0.0, 1.0]);
        let values = [0.0, 1.0];
        let mut grad = [0.0; 2];
        let loss = quantile_matching_1d(&values, &target, WassersteinOrder::W2Squared, &mut grad);
        assert!(loss.abs() < 1e-12);
        assert!(grad.iter().all(|g| g.abs() < 1e-12));
    }

    #[test]
    fn quantile_matching_gradient_points_toward_target() {
        // All generated mass at 0, target at 1: gradient must be negative
        // (decrease loss by increasing x).
        let target = WeightedEmpirical::from_values([1.0]);
        let values = [0.0, 0.0];
        let mut grad = [0.0; 2];
        let loss = quantile_matching_1d(&values, &target, WassersteinOrder::W2Squared, &mut grad);
        assert!((loss - 1.0).abs() < 1e-12);
        assert!(grad.iter().all(|&g| g < 0.0));
    }

    #[test]
    fn quantile_matching_w1_gradient_is_sign() {
        let target = WeightedEmpirical::from_values([5.0]);
        let values = [0.0, 10.0];
        let mut grad = [0.0; 2];
        quantile_matching_1d(&values, &target, WassersteinOrder::W1, &mut grad);
        assert!(grad[0] < 0.0 && grad[1] > 0.0);
    }

    #[test]
    fn quantile_matching_finite_difference() {
        let target = WeightedEmpirical::from_pairs([(0.0, 2.0), (1.0, 1.0), (3.0, 1.0)]);
        let values = [0.3, 2.1, -0.4, 1.7];
        let mut grad = [0.0; 4];
        let l0 = quantile_matching_1d(&values, &target, WassersteinOrder::W2Squared, &mut grad);
        let _ = l0;
        let eps = 1e-6;
        for i in 0..values.len() {
            let mut vp = values;
            vp[i] += eps;
            let mut g = [0.0; 4];
            let lp = quantile_matching_1d(&vp, &target, WassersteinOrder::W2Squared, &mut g);
            let mut vm = values;
            vm[i] -= eps;
            let lm = quantile_matching_1d(&vm, &target, WassersteinOrder::W2Squared, &mut g);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad[i]).abs() < 1e-5,
                "i={i}: numeric {numeric} vs analytic {}",
                grad[i]
            );
        }
    }

    #[test]
    fn marginal_1d_gradients_land_on_right_column() {
        let output = Matrix::from_vec(2, 3, vec![0.0, 0.5, 0.0, 0.0, 0.5, 0.0]);
        let marg = EncodedMarginal {
            cols: vec![1],
            points: vec![vec![1.0]],
            weights: vec![1.0],
            label: "x".into(),
        };
        let mut grad = Matrix::zeros(2, 3);
        let loss = marginal_loss_grad(
            &output,
            &marg,
            &[],
            WassersteinOrder::W2Squared,
            1.0,
            &mut grad,
        );
        assert!(loss > 0.0);
        assert_eq!(grad.get(0, 0), 0.0);
        assert!(grad.get(0, 1) < 0.0); // push column 1 up toward 1.0
        assert_eq!(grad.get(0, 2), 0.0);
    }

    #[test]
    fn marginal_2d_sliced_finite_difference() {
        let output = Matrix::from_vec(3, 2, vec![0.1, 0.9, 0.4, 0.2, 0.8, 0.7]);
        let marg = EncodedMarginal {
            cols: vec![0, 1],
            points: vec![vec![0.0, 0.0], vec![1.0, 1.0]],
            weights: vec![1.0, 2.0],
            label: "x,y".into(),
        };
        let projections = vec![vec![0.6, 0.8], vec![1.0, 0.0]];
        let mut grad = Matrix::zeros(3, 2);
        let _ = marginal_loss_grad(
            &output,
            &marg,
            &projections,
            WassersteinOrder::W2Squared,
            1.0,
            &mut grad,
        );
        let eps = 1e-6;
        for idx in 0..output.data().len() {
            let mut op = output.clone();
            op.data_mut()[idx] += eps;
            let mut g = Matrix::zeros(3, 2);
            let lp = marginal_loss_grad(
                &op,
                &marg,
                &projections,
                WassersteinOrder::W2Squared,
                1.0,
                &mut g,
            );
            let mut om = output.clone();
            om.data_mut()[idx] -= eps;
            let lm = marginal_loss_grad(
                &om,
                &marg,
                &projections,
                WassersteinOrder::W2Squared,
                1.0,
                &mut g,
            );
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[idx]).abs() < 1e-5,
                "idx {idx}: numeric {numeric} vs analytic {}",
                grad.data()[idx]
            );
        }
    }

    #[test]
    fn coverage_zero_when_on_sample() {
        let sample = Matrix::from_vec(2, 2, vec![0.0, 0.0, 1.0, 1.0]);
        let output = sample.clone();
        let mut grad = Matrix::zeros(2, 2);
        let loss = coverage_loss_grad(&output, &sample, &[0, 1], 0.5, &mut grad);
        assert!(loss.abs() < 1e-12);
        assert!(grad.data().iter().all(|g| g.abs() < 1e-12));
    }

    #[test]
    fn coverage_pulls_toward_nearest_sample_point() {
        let sample = Matrix::from_vec(2, 1, vec![0.0, 10.0]);
        let output = Matrix::from_vec(1, 1, vec![1.0]); // nearest is 0.0
        let mut grad = Matrix::zeros(1, 1);
        let loss = coverage_loss_grad(&output, &sample, &[0, 1], 1.0, &mut grad);
        assert!((loss - 1.0).abs() < 1e-12);
        assert!(grad.get(0, 0) > 0.0); // gradient descent will move x toward 0
    }

    #[test]
    fn coverage_finite_difference() {
        let sample = Matrix::from_vec(3, 2, vec![0.0, 0.0, 0.5, 0.5, 1.0, 0.2]);
        let output = Matrix::from_vec(2, 2, vec![0.3, 0.1, 0.9, 0.4]);
        let rows = [0usize, 1, 2];
        let mut grad = Matrix::zeros(2, 2);
        coverage_loss_grad(&output, &sample, &rows, 0.7, &mut grad);
        let eps = 1e-6;
        for idx in 0..output.data().len() {
            let mut op = output.clone();
            op.data_mut()[idx] += eps;
            let mut g = Matrix::zeros(2, 2);
            let lp = coverage_loss_grad(&op, &sample, &rows, 0.7, &mut g);
            let mut om = output.clone();
            om.data_mut()[idx] -= eps;
            let lm = coverage_loss_grad(&om, &sample, &rows, 0.7, &mut g);
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - grad.data()[idx]).abs() < 1e-5,
                "idx {idx}: numeric {numeric} vs analytic {}",
                grad.data()[idx]
            );
        }
    }
}
