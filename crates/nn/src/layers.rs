use rand::Rng;

use crate::{Matrix, Param};

/// A neural-network layer with manual backprop.
///
/// `forward` caches whatever `backward` needs; `backward` accumulates
/// parameter gradients and returns the gradient with respect to its input.
pub trait Layer {
    /// Forward pass. `train` toggles training-time behaviour (batch-norm
    /// batch statistics vs. running statistics).
    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix;

    /// Evaluation-mode forward pass without mutation: no activation
    /// caching, batch-norm uses running statistics. Because it borrows
    /// `&self`, a fitted network can run inference from many threads at
    /// once (the engine generates OPEN-query replicates in parallel).
    ///
    /// `x` holds the input on entry and the output on return. Element-wise
    /// layers rewrite it in place; a layer that changes the width writes
    /// into `scratch` and swaps the two. A stack of layers thus ping-pongs
    /// between two caller-owned buffers and allocates nothing once both
    /// have grown to the widest layer.
    fn forward_eval(&self, x: &mut Matrix, scratch: &mut Matrix);

    /// Backward pass: consumes `dL/d output`, accumulates parameter grads,
    /// returns `dL/d input`. Must be called after a `forward` with
    /// `train = true`.
    fn backward(&mut self, grad_output: &Matrix) -> Matrix;

    /// Trainable parameters (empty for parameterless layers).
    fn params_mut(&mut self) -> Vec<&mut Param>;
}

/// The eval-mode output of a layer that works in place, computed on a
/// copy of `input`.
fn eval_copy(layer: &impl Layer, input: &Matrix) -> Matrix {
    let mut x = input.clone();
    layer.forward_eval(&mut x, &mut Matrix::zeros(0, 0));
    x
}

/// Fully-connected layer `y = x·W + b` with He-normal initialization.
#[derive(Debug, Clone)]
pub struct Dense {
    weight: Param,
    bias: Param,
    cached_input: Option<Matrix>,
}

impl Dense {
    /// New dense layer `in_dim → out_dim`, He-initialized (appropriate for
    /// the ReLU stacks the paper's generator uses).
    pub fn new<R: Rng + ?Sized>(in_dim: usize, out_dim: usize, rng: &mut R) -> Dense {
        let std = (2.0 / in_dim as f64).sqrt();
        Dense {
            weight: Param::new(Matrix::randn(in_dim, out_dim, std, rng)),
            bias: Param::new(Matrix::zeros(1, out_dim)),
            cached_input: None,
        }
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.weight.value.cols()
    }
}

impl Layer for Dense {
    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        if train {
            self.cached_input = Some(input.clone());
        }
        let mut out = Matrix::zeros(0, 0);
        input.matmul_into(&self.weight.value, Some(&self.bias.value), &mut out);
        out
    }

    fn forward_eval(&self, x: &mut Matrix, scratch: &mut Matrix) {
        x.matmul_into(&self.weight.value, Some(&self.bias.value), scratch);
        std::mem::swap(x, scratch);
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let input = self
            .cached_input
            .as_ref()
            .expect("backward before forward(train=true)");
        self.weight.grad.add_assign(&input.matmul_tn(grad_output));
        self.bias.grad.add_assign(&grad_output.col_sum());
        grad_output.matmul_nt(&self.weight.value)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }
}

/// Rectified linear unit.
#[derive(Debug, Clone, Default)]
pub struct Relu {
    mask: Option<Vec<bool>>,
    shape: (usize, usize),
}

impl Relu {
    /// New ReLU.
    pub fn new() -> Relu {
        Relu::default()
    }
}

impl Layer for Relu {
    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        if train {
            self.mask = Some(input.data().iter().map(|&x| x > 0.0).collect());
            self.shape = (input.rows(), input.cols());
        }
        eval_copy(self, input)
    }

    fn forward_eval(&self, x: &mut Matrix, _scratch: &mut Matrix) {
        for v in x.data_mut() {
            *v = v.max(0.0);
        }
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mask = self.mask.as_ref().expect("backward before forward");
        let data = grad_output
            .data()
            .iter()
            .zip(mask)
            .map(|(&g, &m)| if m { g } else { 0.0 })
            .collect();
        Matrix::from_vec(self.shape.0, self.shape.1, data)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

/// 1-D batch normalization with learnable scale/shift and running
/// statistics for evaluation mode (the paper applies "batch normalization
/// after each layer").
#[derive(Debug, Clone)]
pub struct BatchNorm {
    gamma: Param,
    beta: Param,
    running_mean: Matrix,
    running_var: Matrix,
    momentum: f64,
    eps: f64,
    // training caches
    xhat: Option<Matrix>,
    centered: Option<Matrix>,
    inv_std: Option<Vec<f64>>,
}

impl BatchNorm {
    /// New batch-norm over `dim` features.
    pub fn new(dim: usize) -> BatchNorm {
        BatchNorm {
            gamma: Param::new(Matrix::from_vec(1, dim, vec![1.0; dim])),
            beta: Param::new(Matrix::zeros(1, dim)),
            running_mean: Matrix::zeros(1, dim),
            running_var: Matrix::from_vec(1, dim, vec![1.0; dim]),
            momentum: 0.1,
            eps: 1e-5,
            xhat: None,
            centered: None,
            inv_std: None,
        }
    }
}

#[allow(clippy::needless_range_loop)]
impl Layer for BatchNorm {
    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        let (n, d) = (input.rows(), input.cols());
        if train {
            let mean = input.col_mean();
            let mut centered = input.clone();
            for r in 0..n {
                let row = centered.row_mut(r);
                for (x, m) in row.iter_mut().zip(mean.data()) {
                    *x -= m;
                }
            }
            let mut var = vec![0.0; d];
            for r in 0..n {
                for (v, &x) in var.iter_mut().zip(centered.row(r)) {
                    *v += x * x;
                }
            }
            for v in &mut var {
                *v /= n as f64;
            }
            let inv_std: Vec<f64> = var.iter().map(|&v| 1.0 / (v + self.eps).sqrt()).collect();
            let mut xhat = centered.clone();
            for r in 0..n {
                let row = xhat.row_mut(r);
                for (x, s) in row.iter_mut().zip(&inv_std) {
                    *x *= s;
                }
            }
            // Update running statistics.
            for j in 0..d {
                let rm = self.running_mean.get(0, j);
                let rv = self.running_var.get(0, j);
                self.running_mean.set(
                    0,
                    j,
                    (1.0 - self.momentum) * rm + self.momentum * mean.get(0, j),
                );
                self.running_var
                    .set(0, j, (1.0 - self.momentum) * rv + self.momentum * var[j]);
            }
            let mut out = xhat.clone();
            for r in 0..n {
                let row = out.row_mut(r);
                for j in 0..d {
                    row[j] = row[j] * self.gamma.value.get(0, j) + self.beta.value.get(0, j);
                }
            }
            self.xhat = Some(xhat);
            self.centered = Some(centered);
            self.inv_std = Some(inv_std);
            out
        } else {
            eval_copy(self, input)
        }
    }

    fn forward_eval(&self, x: &mut Matrix, _scratch: &mut Matrix) {
        let std: Vec<f64> = self
            .running_var
            .data()
            .iter()
            .map(|v| (v + self.eps).sqrt())
            .collect();
        let (mean, gamma, beta) = (
            self.running_mean.data(),
            self.gamma.value.data(),
            self.beta.value.data(),
        );
        for r in 0..x.rows() {
            let row = x.row_mut(r);
            for j in 0..row.len() {
                let xhat = (row[j] - mean[j]) / std[j];
                row[j] = xhat * gamma[j] + beta[j];
            }
        }
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let xhat = self.xhat.as_ref().expect("backward before forward");
        let inv_std = self.inv_std.as_ref().expect("backward before forward");
        let (n, d) = (grad_output.rows(), grad_output.cols());
        let nf = n as f64;
        // Parameter grads.
        for j in 0..d {
            let mut dg = 0.0;
            let mut db = 0.0;
            for r in 0..n {
                dg += grad_output.get(r, j) * xhat.get(r, j);
                db += grad_output.get(r, j);
            }
            let g0 = self.gamma.grad.get(0, j);
            let b0 = self.beta.grad.get(0, j);
            self.gamma.grad.set(0, j, g0 + dg);
            self.beta.grad.set(0, j, b0 + db);
        }
        // Input grads (standard batch-norm backward, per feature):
        // dx = (gamma * inv_std / N) * (N*dy - sum(dy) - xhat * sum(dy*xhat))
        let mut dx = Matrix::zeros(n, d);
        for j in 0..d {
            let mut sum_dy = 0.0;
            let mut sum_dy_xhat = 0.0;
            for r in 0..n {
                sum_dy += grad_output.get(r, j);
                sum_dy_xhat += grad_output.get(r, j) * xhat.get(r, j);
            }
            let g = self.gamma.value.get(0, j);
            for r in 0..n {
                let dy = grad_output.get(r, j);
                let v = g * inv_std[j] / nf * (nf * dy - sum_dy - xhat.get(r, j) * sum_dy_xhat);
                dx.set(r, j, v);
            }
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.gamma, &mut self.beta]
    }
}

/// Softmax applied independently over disjoint column blocks; identity on
/// uncovered columns. The paper "add\[s\] a softmax layer for the categorical
/// variable" — each one-hot-encoded categorical attribute is a block.
#[derive(Debug, Clone)]
pub struct BlockSoftmax {
    /// `(start, len)` of each softmax block.
    blocks: Vec<(usize, usize)>,
    output: Option<Matrix>,
}

impl BlockSoftmax {
    /// New block softmax over the given `(start, len)` blocks.
    pub fn new(blocks: Vec<(usize, usize)>) -> BlockSoftmax {
        BlockSoftmax {
            blocks,
            output: None,
        }
    }
}

impl Layer for BlockSoftmax {
    fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        let out = eval_copy(self, input);
        if train {
            self.output = Some(out.clone());
        }
        out
    }

    fn forward_eval(&self, x: &mut Matrix, _scratch: &mut Matrix) {
        for r in 0..x.rows() {
            let row = x.row_mut(r);
            for &(start, len) in &self.blocks {
                let slice = &mut row[start..start + len];
                let max = slice.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let mut sum = 0.0;
                for x in slice.iter_mut() {
                    *x = (*x - max).exp();
                    sum += *x;
                }
                for x in slice.iter_mut() {
                    *x /= sum;
                }
            }
        }
    }

    fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let out = self.output.as_ref().expect("backward before forward");
        let mut dx = grad_output.clone();
        for r in 0..dx.rows() {
            for &(start, len) in &self.blocks {
                // dz_i = s_i * (g_i - sum_j g_j s_j)
                let s = &out.row(r)[start..start + len];
                let g = &grad_output.row(r)[start..start + len];
                let dot: f64 = s.iter().zip(g).map(|(si, gi)| si * gi).sum();
                let target = &mut dx.row_mut(r)[start..start + len];
                for i in 0..len {
                    target[i] = s[i] * (g[i] - dot);
                }
            }
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Finite-difference gradient check for a layer under loss
    /// `L = 0.5 * ||forward(x)||²`.
    fn grad_check_input<L: Layer>(layer: &mut L, x: &Matrix, tol: f64) {
        let out = layer.forward(x, true);
        let grad_out = out.clone(); // dL/dout = out for 0.5*||out||^2
        let dx = layer.backward(&grad_out);
        let eps = 1e-5;
        for idx in 0..x.data().len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let op = layer.forward(&xp, true);
            let lp: f64 = 0.5 * op.data().iter().map(|v| v * v).sum::<f64>();
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let om = layer.forward(&xm, true);
            let lm: f64 = 0.5 * om.data().iter().map(|v| v * v).sum::<f64>();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = dx.data()[idx];
            assert!(
                (numeric - analytic).abs() < tol * (1.0 + numeric.abs()),
                "idx {idx}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn dense_forward_shape_and_grad() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = Dense::new(3, 4, &mut rng);
        let x = Matrix::randn(5, 3, 1.0, &mut rng);
        let y = layer.forward(&x, true);
        assert_eq!((y.rows(), y.cols()), (5, 4));
        grad_check_input(&mut layer, &x, 1e-4);
    }

    #[test]
    fn dense_param_grads_match_finite_difference() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut layer = Dense::new(2, 2, &mut rng);
        let x = Matrix::randn(4, 2, 1.0, &mut rng);
        let out = layer.forward(&x, true);
        layer.backward(&out.clone());
        let analytic = layer.params_mut()[0].grad.get(0, 0);
        let eps = 1e-5;
        let orig = layer.params_mut()[0].value.get(0, 0);
        layer.params_mut()[0].value.set(0, 0, orig + eps);
        let lp: f64 = 0.5
            * layer
                .forward(&x, false)
                .data()
                .iter()
                .map(|v| v * v)
                .sum::<f64>();
        layer.params_mut()[0].value.set(0, 0, orig - eps);
        let lm: f64 = 0.5
            * layer
                .forward(&x, false)
                .data()
                .iter()
                .map(|v| v * v)
                .sum::<f64>();
        layer.params_mut()[0].value.set(0, 0, orig);
        let numeric = (lp - lm) / (2.0 * eps);
        assert!((numeric - analytic).abs() < 1e-4 * (1.0 + numeric.abs()));
    }

    #[test]
    fn relu_zeroes_negatives_and_grads() {
        let mut layer = Relu::new();
        let x = Matrix::from_vec(1, 4, vec![-1.0, 2.0, -3.0, 4.0]);
        let y = layer.forward(&x, true);
        assert_eq!(y.data(), &[0.0, 2.0, 0.0, 4.0]);
        let dx = layer.backward(&Matrix::from_vec(1, 4, vec![1.0; 4]));
        assert_eq!(dx.data(), &[0.0, 1.0, 0.0, 1.0]);
    }

    #[test]
    fn batchnorm_normalizes_batch() {
        let mut layer = BatchNorm::new(2);
        let x = Matrix::from_vec(4, 2, vec![1.0, 10.0, 2.0, 20.0, 3.0, 30.0, 4.0, 40.0]);
        let y = layer.forward(&x, true);
        let mean = y.col_mean();
        assert!(mean.data().iter().all(|m| m.abs() < 1e-9));
        // Variance should be ~1 for each column.
        for j in 0..2 {
            let var: f64 = (0..4).map(|r| y.get(r, j).powi(2)).sum::<f64>() / 4.0;
            assert!((var - 1.0).abs() < 1e-3, "var {var}");
        }
    }

    #[test]
    fn batchnorm_grad_check() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = BatchNorm::new(3);
        // Scale/shift away from identity to exercise all terms.
        layer.params_mut()[0].value.set(0, 0, 1.5);
        layer.params_mut()[1].value.set(0, 1, -0.5);
        let x = Matrix::randn(6, 3, 2.0, &mut rng);
        grad_check_input(&mut layer, &x, 1e-3);
    }

    #[test]
    fn batchnorm_eval_uses_running_stats() {
        let mut layer = BatchNorm::new(1);
        let x = Matrix::from_vec(4, 1, vec![10.0, 12.0, 8.0, 10.0]);
        for _ in 0..200 {
            layer.forward(&x, true);
        }
        // After many identical batches, running stats converge to batch stats,
        // so eval output ≈ train output.
        let eval = layer.forward(&x, false);
        let train = layer.forward(&x, true);
        for (a, b) in eval.data().iter().zip(train.data()) {
            assert!((a - b).abs() < 0.05, "{a} vs {b}");
        }
    }

    #[test]
    fn block_softmax_rows_sum_to_one() {
        let mut layer = BlockSoftmax::new(vec![(0, 3)]);
        let x = Matrix::from_vec(2, 4, vec![1.0, 2.0, 3.0, 7.0, -1.0, 0.0, 1.0, 9.0]);
        let y = layer.forward(&x, true);
        for r in 0..2 {
            let s: f64 = y.row(r)[..3].iter().sum();
            assert!((s - 1.0).abs() < 1e-12);
            assert_eq!(y.get(r, 3), x.get(r, 3)); // identity outside blocks
        }
    }

    #[test]
    fn block_softmax_grad_check() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = BlockSoftmax::new(vec![(0, 3), (4, 2)]);
        let x = Matrix::randn(3, 6, 1.0, &mut rng);
        grad_check_input(&mut layer, &x, 1e-4);
    }
}
