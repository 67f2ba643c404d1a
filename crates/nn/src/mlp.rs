use rand::Rng;

use crate::{BatchNorm, BlockSoftmax, Dense, Layer, Matrix, Param, Relu};

/// A sequential feed-forward network.
///
/// The M-SWG generator (paper §5.3, footnote 3) is a stack of
/// `Dense → ReLU → BatchNorm` groups followed by a final `Dense` and an
/// optional [`BlockSoftmax`] head for one-hot categorical blocks;
/// [`Mlp::generator`] builds exactly that shape.
pub struct Mlp {
    layers: Vec<Box<dyn Layer + Send + Sync>>,
}

impl Mlp {
    /// Empty network.
    pub fn new() -> Mlp {
        Mlp { layers: Vec::new() }
    }

    /// Append a layer.
    pub fn push(&mut self, layer: impl Layer + Send + Sync + 'static) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// The paper's generator architecture: `hidden_layers` ReLU
    /// fully-connected layers of width `hidden_dim` with batch
    /// normalization after each, a linear output of `out_dim`, and a
    /// softmax over each categorical block.
    pub fn generator<R: Rng + ?Sized>(
        latent_dim: usize,
        hidden_dim: usize,
        hidden_layers: usize,
        out_dim: usize,
        softmax_blocks: Vec<(usize, usize)>,
        rng: &mut R,
    ) -> Mlp {
        let mut mlp = Mlp::new();
        let mut prev = latent_dim;
        for _ in 0..hidden_layers {
            mlp.push(Dense::new(prev, hidden_dim, rng));
            mlp.push(Relu::new());
            mlp.push(BatchNorm::new(hidden_dim));
            prev = hidden_dim;
        }
        mlp.push(Dense::new(prev, out_dim, rng));
        if !softmax_blocks.is_empty() {
            mlp.push(BlockSoftmax::new(softmax_blocks));
        }
        mlp
    }

    /// Number of layers.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Forward pass through every layer.
    pub fn forward(&mut self, input: &Matrix, train: bool) -> Matrix {
        let mut x = input.clone();
        for layer in &mut self.layers {
            x = layer.forward(&x, train);
        }
        x
    }

    /// Evaluation-mode forward pass without mutation (shared-reference
    /// inference; see [`Layer::forward_eval`]): `x` holds the network
    /// input on entry and its output on return, and `scratch` is the
    /// second buffer the layers ping-pong with. A caller running many
    /// batches keeps `scratch` across them so it is allocated once.
    pub fn forward_eval(&self, x: &mut Matrix, scratch: &mut Matrix) {
        for layer in &self.layers {
            layer.forward_eval(x, scratch);
        }
    }

    /// Backward pass (after a `forward(…, true)`), accumulating parameter
    /// gradients; returns the gradient w.r.t. the network input.
    pub fn backward(&mut self, grad_output: &Matrix) -> Matrix {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g);
        }
        g
    }

    /// All trainable parameters.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Total number of trainable scalars.
    pub fn num_parameters(&mut self) -> usize {
        self.params_mut()
            .iter()
            .map(|p| p.value.rows() * p.value.cols())
            .sum()
    }
}

impl Default for Mlp {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Adam;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn generator_shape() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut g = Mlp::generator(2, 16, 3, 5, vec![(0, 3)], &mut rng);
        let z = Matrix::randn(7, 2, 1.0, &mut rng);
        let out = g.forward(&z, true);
        assert_eq!((out.rows(), out.cols()), (7, 5));
        // Softmax head: first 3 columns of each row sum to 1.
        for r in 0..7 {
            let s: f64 = out.row(r)[..3].iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
        }
        // 3 hidden groups of (dense, relu, bn) + final dense + softmax = 11.
        assert_eq!(g.num_layers(), 11);
        assert!(g.num_parameters() > 0);
    }

    #[test]
    fn mlp_gradient_check_end_to_end() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut g = Mlp::new();
        g.push(Dense::new(3, 8, &mut rng));
        g.push(Relu::new());
        g.push(Dense::new(8, 2, &mut rng));
        let x = Matrix::randn(4, 3, 1.0, &mut rng);
        let out = g.forward(&x, true);
        let dx = g.backward(&out.clone());
        let eps = 1e-5;
        for idx in 0..x.data().len() {
            let mut xp = x.clone();
            xp.data_mut()[idx] += eps;
            let lp: f64 = 0.5
                * g.forward(&xp, true)
                    .data()
                    .iter()
                    .map(|v| v * v)
                    .sum::<f64>();
            let mut xm = x.clone();
            xm.data_mut()[idx] -= eps;
            let lm: f64 = 0.5
                * g.forward(&xm, true)
                    .data()
                    .iter()
                    .map(|v| v * v)
                    .sum::<f64>();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!(
                (numeric - dx.data()[idx]).abs() < 1e-4 * (1.0 + numeric.abs()),
                "idx {idx}"
            );
        }
    }

    #[test]
    fn mlp_learns_a_linear_map() {
        // Train y = 2x - 1 on a tiny MLP; loss should fall dramatically.
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = Mlp::new();
        g.push(Dense::new(1, 16, &mut rng));
        g.push(Relu::new());
        g.push(Dense::new(16, 1, &mut rng));
        let mut opt = Adam::new(0.01);
        let x = Matrix::from_vec(8, 1, (0..8).map(|i| i as f64 / 4.0).collect());
        let target = Matrix::from_vec(8, 1, x.data().iter().map(|v| 2.0 * v - 1.0).collect());
        let mut first_loss = None;
        let mut last_loss = 0.0;
        for _ in 0..400 {
            let out = g.forward(&x, true);
            let mut grad = out.clone();
            let mut loss = 0.0;
            for i in 0..grad.data().len() {
                let d = out.data()[i] - target.data()[i];
                loss += d * d;
                grad.data_mut()[i] = 2.0 * d / grad.data().len() as f64;
            }
            g.backward(&grad);
            opt.step(g.params_mut());
            first_loss.get_or_insert(loss);
            last_loss = loss;
        }
        assert!(last_loss < first_loss.unwrap() * 0.01, "loss {last_loss}");
    }
}
