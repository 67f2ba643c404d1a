use std::collections::HashMap;
use std::fmt;

use mosaic_nn::{Adam, Matrix, Mlp, PlateauScheduler};
use mosaic_stats::{random_unit_vectors, Marginal, WassersteinOrder};
use mosaic_storage::{StorageError, Table, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::loss::{coverage_loss_grad, marginal_loss_grad};
use crate::{EncodedMarginal, Encoder};

/// M-SWG hyperparameters. Defaults follow the paper's synthetic-data
/// experiment (§5.3, footnote 3): 3 ReLU FC layers × 100 nodes, λ = 0.04,
/// batch size 500, Adam at 1e-3 with reduce-on-plateau.
///
/// `#[non_exhaustive]`: construct with [`SwgConfig::default`] (or the
/// `paper_*` presets) and the `with_*` builders so future fields are
/// not breaking changes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct SwgConfig {
    /// Hidden layer width.
    pub hidden_dim: usize,
    /// Number of hidden `Dense→ReLU→BatchNorm` groups.
    pub hidden_layers: usize,
    /// Latent dimension ℓ; `None` uses the encoded data dimensionality
    /// (the paper's flights setup: "the latent dimension ℓ being the same
    /// as the input dimensionality").
    pub latent_dim: Option<usize>,
    /// Coverage-term weight λ.
    pub lambda: f64,
    /// Random projections per ≥2-D marginal per step (paper: p = 1000).
    pub projections: usize,
    /// Training batch size.
    pub batch_size: usize,
    /// Initial Adam learning rate.
    pub learning_rate: f64,
    /// Training epochs ("each epoch is one pass over the population
    /// marginals").
    pub epochs: usize,
    /// Steps per epoch; `None` derives `max(1, sample_rows / batch_size)`.
    pub steps_per_epoch: Option<usize>,
    /// Matching loss: exact `W1` or smooth squared `W2`.
    pub order: WassersteinOrder,
    /// Coefficient `k` on the 1-D marginal terms of Eq. 1.
    pub one_dim_scale: f64,
    /// Sample rows examined per step for the nearest-neighbour coverage
    /// term: a random subsample drawn with replacement, or every row when
    /// it is at least the sample size. The search over them is exact:
    /// full in-order squared distances, a strict `<`, and the first
    /// position wins a tie.
    pub coverage_subsample: usize,
    /// Epochs without loss improvement before a 10× LR decay.
    pub plateau_patience: usize,
    /// RNG seed (training is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for SwgConfig {
    fn default() -> Self {
        SwgConfig {
            hidden_dim: 100,
            hidden_layers: 3,
            latent_dim: Some(2),
            lambda: 0.04,
            projections: 100,
            batch_size: 500,
            learning_rate: 1e-3,
            epochs: 30,
            steps_per_epoch: None,
            order: WassersteinOrder::W2Squared,
            one_dim_scale: 1.0,
            coverage_subsample: 2048,
            plateau_patience: 5,
            seed: 0,
        }
    }
}

impl SwgConfig {
    /// The paper's flights configuration (§5.3): 5 layers × 50 nodes,
    /// λ = 1e-7, p = 1000 projections, batch 500, ℓ = input dim.
    pub fn paper_flights() -> SwgConfig {
        SwgConfig {
            hidden_dim: 50,
            hidden_layers: 5,
            latent_dim: None,
            lambda: 1e-7,
            projections: 1000,
            epochs: 80,
            ..SwgConfig::default()
        }
    }

    /// The paper's spiral configuration (§5.3): 3 layers × 100 nodes,
    /// λ = 0.04, ℓ = 2.
    pub fn paper_spiral() -> SwgConfig {
        SwgConfig {
            hidden_dim: 100,
            hidden_layers: 3,
            latent_dim: Some(2),
            lambda: 0.04,
            ..SwgConfig::default()
        }
    }

    /// Set the hidden layer width.
    pub fn with_hidden_dim(mut self, n: usize) -> Self {
        self.hidden_dim = n;
        self
    }

    /// Set the number of hidden `Dense→ReLU→BatchNorm` groups.
    pub fn with_hidden_layers(mut self, n: usize) -> Self {
        self.hidden_layers = n;
        self
    }

    /// Set the latent dimension (`None` = encoded data dimensionality).
    pub fn with_latent_dim(mut self, dim: Option<usize>) -> Self {
        self.latent_dim = dim;
        self
    }

    /// Set the coverage-term weight λ.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Set the random projections per ≥2-D marginal per step.
    pub fn with_projections(mut self, n: usize) -> Self {
        self.projections = n;
        self
    }

    /// Set the training batch size.
    pub fn with_batch_size(mut self, n: usize) -> Self {
        self.batch_size = n;
        self
    }

    /// Set the initial Adam learning rate.
    pub fn with_learning_rate(mut self, lr: f64) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Set the number of training epochs.
    pub fn with_epochs(mut self, n: usize) -> Self {
        self.epochs = n;
        self
    }

    /// Set the steps per epoch (`None` = `max(1, rows / batch_size)`).
    pub fn with_steps_per_epoch(mut self, n: Option<usize>) -> Self {
        self.steps_per_epoch = n;
        self
    }

    /// Set the matching loss order.
    pub fn with_order(mut self, order: WassersteinOrder) -> Self {
        self.order = order;
        self
    }

    /// Set the coefficient on the 1-D marginal terms of Eq. 1.
    pub fn with_one_dim_scale(mut self, k: f64) -> Self {
        self.one_dim_scale = k;
        self
    }

    /// Set the coverage-term subsample size.
    pub fn with_coverage_subsample(mut self, n: usize) -> Self {
        self.coverage_subsample = n;
        self
    }

    /// Set the plateau patience (epochs before a 10× LR decay).
    pub fn with_plateau_patience(mut self, n: usize) -> Self {
        self.plateau_patience = n;
        self
    }

    /// Set the training RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// Errors from M-SWG fitting/generation.
#[derive(Debug)]
pub enum SwgError {
    /// A marginal references an attribute missing from the sample.
    MissingAttribute(String),
    /// The training sample has no rows.
    EmptySample,
    /// A hyperparameter is out of range.
    InvalidConfig(String),
    /// Underlying storage error.
    Storage(StorageError),
}

impl fmt::Display for SwgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SwgError::MissingAttribute(a) => {
                write!(f, "marginal attribute {a} not present in the sample")
            }
            SwgError::EmptySample => write!(f, "cannot fit an M-SWG on an empty sample"),
            SwgError::InvalidConfig(msg) => write!(f, "invalid M-SWG configuration: {msg}"),
            SwgError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for SwgError {}

impl From<StorageError> for SwgError {
    fn from(e: StorageError) -> Self {
        SwgError::Storage(e)
    }
}

/// Training diagnostics.
#[derive(Debug, Clone)]
pub struct TrainReport {
    /// Mean loss per epoch.
    pub loss_history: Vec<f64>,
    /// Final epoch's mean loss.
    pub final_loss: f64,
    /// Labels of every marginal constraint used (including sample
    /// marginals auto-added for uncovered attributes, per §5.2).
    pub marginal_labels: Vec<String>,
    /// Final learning rate after plateau decays.
    pub final_lr: f64,
}

/// A trained Marginal-Constrained Sliced Wasserstein Generator.
pub struct MSwg {
    mlp: Mlp,
    encoder: Encoder,
    config: SwgConfig,
    latent_dim: usize,
    report: TrainReport,
}

impl MSwg {
    /// Train a generator on a biased `sample` and a set of population
    /// `marginals`.
    ///
    /// Attributes not covered by any marginal get a 1-D marginal built
    /// from the sample itself ("the model has no way of learning even the
    /// sample distribution of those attributes. Therefore, we add
    /// marginals from the sample", §5.2). Categorical domain values that
    /// appear only in the metadata are added to the encoder so the
    /// generator *can* emit them.
    pub fn fit(
        sample: &Table,
        marginals: &[Marginal],
        config: SwgConfig,
    ) -> Result<MSwg, SwgError> {
        Self::fit_with_progress(sample, marginals, config, |_, _| {})
    }

    /// [`MSwg::fit`] with a per-epoch callback `(epoch, mean_loss)`.
    pub fn fit_with_progress(
        sample: &Table,
        marginals: &[Marginal],
        config: SwgConfig,
        mut progress: impl FnMut(usize, f64),
    ) -> Result<MSwg, SwgError> {
        if sample.is_empty() {
            return Err(SwgError::EmptySample);
        }
        // Training divides the sample by it and generation steps by it.
        if config.batch_size == 0 {
            return Err(SwgError::InvalidConfig(
                "batch_size must be at least 1".into(),
            ));
        }
        for m in marginals {
            for a in m.attrs() {
                if !sample.schema().contains(a) {
                    return Err(SwgError::MissingAttribute(a.clone()));
                }
            }
        }
        let mut rng = StdRng::seed_from_u64(config.seed);

        // Widen the encoder's view of every attribute with metadata-only
        // values: categorical domains gain unseen categories (so the
        // generator *can* emit them — the §2 AOL case) and numeric ranges
        // stretch to cover marginal support outside the biased sample.
        let mut extra: HashMap<String, Vec<Value>> = HashMap::new();
        for m in marginals {
            for (ai, attr) in m.attrs().iter().enumerate() {
                // Validated above; attribute exists.
                let _ = sample.schema().field_by_name(attr)?;
                let entry = extra.entry(attr.to_ascii_lowercase()).or_default();
                for (key, _) in m.iter() {
                    if !entry.contains(&key[ai]) {
                        entry.push(key[ai].clone());
                    }
                }
            }
        }
        let encoder = Encoder::fit(sample, &extra);

        // Add 1-D sample marginals for attributes no population marginal
        // covers.
        let mut all_marginals: Vec<Marginal> = marginals.to_vec();
        let mut labels: Vec<String> = marginals.iter().map(|m| m.attrs().join(",")).collect();
        for spec in encoder.specs() {
            let covered = marginals.iter().any(|m| m.covers(spec.name()));
            if !covered {
                let sm = Marginal::from_table(sample, &[spec.name()], None, &HashMap::new())?;
                labels.push(format!("{} (sample)", spec.name()));
                all_marginals.push(sm);
            }
        }
        let encoded: Vec<EncodedMarginal> = all_marginals
            .iter()
            .map(|m| {
                encoder
                    .encode_marginal(m)
                    .ok_or_else(|| SwgError::MissingAttribute(m.attrs().join(",")))
            })
            .collect::<Result<_, _>>()?;
        // A ≥2-D encoded marginal is matched through its projections.
        if config.projections == 0 {
            if let Some(em) = encoded.iter().find(|em| em.dim() >= 2) {
                return Err(SwgError::InvalidConfig(format!(
                    "projections must be at least 1: marginal {} encodes to {} dimensions",
                    em.label,
                    em.dim()
                )));
            }
        }

        let sample_enc = encoder.encode_table(sample)?;
        let latent_dim = config.latent_dim.unwrap_or(encoder.dim()).max(1);
        let mut mlp = Mlp::generator(
            latent_dim,
            config.hidden_dim,
            config.hidden_layers,
            encoder.dim(),
            encoder.softmax_blocks(),
            &mut rng,
        );
        let mut opt = Adam::new(config.learning_rate);
        let mut sched = PlateauScheduler::new().with_patience(config.plateau_patience);
        let steps = config
            .steps_per_epoch
            .unwrap_or_else(|| (sample.num_rows() / config.batch_size).max(1));
        let mut loss_history = Vec::with_capacity(config.epochs);
        let n_sample = sample_enc.rows();
        for epoch in 0..config.epochs {
            let mut epoch_loss = 0.0;
            for _ in 0..steps {
                let z = Matrix::randn(config.batch_size, latent_dim, 1.0, &mut rng);
                let out = mlp.forward(&z, true);
                let mut grad = Matrix::zeros(out.rows(), out.cols());
                let mut loss = 0.0;
                for em in &encoded {
                    let (projections, scale) = if em.dim() == 1 {
                        (Vec::new(), config.one_dim_scale)
                    } else {
                        (
                            random_unit_vectors(em.dim(), config.projections, &mut rng),
                            1.0,
                        )
                    };
                    loss +=
                        marginal_loss_grad(&out, em, &projections, config.order, scale, &mut grad);
                }
                if config.lambda > 0.0 {
                    let k = config.coverage_subsample.min(n_sample);
                    let rows: Vec<usize> = if k == n_sample {
                        (0..n_sample).collect()
                    } else {
                        (0..k).map(|_| rng.random_range(0..n_sample)).collect()
                    };
                    loss += coverage_loss_grad(&out, &sample_enc, &rows, config.lambda, &mut grad);
                }
                mlp.backward(&grad);
                opt.step(mlp.params_mut());
                epoch_loss += loss;
            }
            let mean_loss = epoch_loss / steps as f64;
            loss_history.push(mean_loss);
            sched.step(mean_loss, &mut opt);
            progress(epoch, mean_loss);
        }
        let final_loss = loss_history.last().copied().unwrap_or(f64::NAN);
        Ok(MSwg {
            mlp,
            encoder,
            latent_dim,
            report: TrainReport {
                loss_history,
                final_loss,
                marginal_labels: labels,
                final_lr: opt.lr,
            },
            config,
        })
    }

    /// Training diagnostics.
    pub fn report(&self) -> &TrainReport {
        &self.report
    }

    /// The fitted attribute encoder.
    pub fn encoder(&self) -> &Encoder {
        &self.encoder
    }

    /// Generate `n` synthetic population tuples (evaluation mode: batch
    /// norm uses running statistics; categorical blocks are
    /// argmax-discretized). Borrows `&self`, so a fitted generator can
    /// serve many threads concurrently (the engine's parallel OPEN
    /// replicates).
    pub fn generate<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Table {
        let dim = self.encoder.dim();
        let mut assembled = Matrix::zeros(n, dim);
        let mut scratch = Matrix::zeros(0, 0);
        for start in (0..n).step_by(self.config.batch_size) {
            let batch = self.config.batch_size.min(n - start);
            let mut x = Matrix::randn(batch, self.latent_dim, 1.0, rng);
            self.mlp.forward_eval(&mut x, &mut scratch);
            assembled.data_mut()[start * dim..(start + batch) * dim].copy_from_slice(x.data());
        }
        self.encoder.decode_matrix(&assembled)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_storage::{DataType, Field, Schema, TableBuilder};

    fn numeric_sample(values: &[f64]) -> Table {
        let schema = Schema::new(vec![Field::new("x", DataType::Float)]);
        let mut b = TableBuilder::new(schema);
        for &v in values {
            b.push_row(vec![v.into()]).unwrap();
        }
        b.finish()
    }

    fn small_config() -> SwgConfig {
        SwgConfig {
            hidden_dim: 24,
            hidden_layers: 2,
            latent_dim: Some(2),
            lambda: 0.0,
            projections: 20,
            batch_size: 64,
            learning_rate: 5e-3,
            epochs: 40,
            steps_per_epoch: Some(4),
            seed: 7,
            ..SwgConfig::default()
        }
    }

    #[test]
    fn fit_rejects_empty_sample() {
        let t = numeric_sample(&[]);
        assert!(matches!(
            MSwg::fit(&t, &[], small_config()),
            Err(SwgError::EmptySample)
        ));
    }

    #[test]
    fn fit_rejects_zero_batch_size() {
        let t = numeric_sample(&[1.0, 2.0]);
        for steps in [None, Some(1)] {
            let cfg = small_config()
                .with_batch_size(0)
                .with_steps_per_epoch(steps);
            assert!(matches!(
                MSwg::fit(&t, &[], cfg),
                Err(SwgError::InvalidConfig(_))
            ));
        }
    }

    #[test]
    fn fit_rejects_zero_projections_for_multi_dim_marginals() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Float),
            Field::new("c", DataType::Str),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..8 {
            let c = if i % 2 == 0 { "a" } else { "b" };
            b.push_row(vec![(i as f64).into(), (8.0 - i as f64).into(), c.into()])
                .unwrap();
        }
        let sample = b.finish();
        let cfg = small_config().with_projections(0).with_epochs(1);
        let mut xy = Marginal::new(vec!["x".into(), "y".into()]);
        xy.add(vec![Value::Float(1.0), Value::Float(7.0)], 1.0);
        let mut c = Marginal::new(vec!["c".into()]);
        c.add(vec!["a".into()], 1.0);
        // A 2-attribute marginal, and a 1-attribute categorical one whose
        // one-hot encoding is 2 wide.
        for (m, label) in [(xy, "x,y"), (c, "c")] {
            match MSwg::fit(&sample, std::slice::from_ref(&m), cfg.clone()) {
                Err(SwgError::InvalidConfig(msg)) => {
                    assert!(msg.contains(&format!("marginal {label} ")), "{msg}")
                }
                other => panic!("expected InvalidConfig, got {:?}", other.err()),
            }
        }
        // Only 1-D encoded marginals: no projections are needed.
        let numeric = numeric_sample(&[0.1, 0.4, 0.7, 0.9]);
        let model = MSwg::fit(&numeric, &[], cfg).unwrap();
        assert_eq!(model.report().loss_history.len(), 1);
    }

    #[test]
    fn fit_rejects_unknown_marginal_attr() {
        let t = numeric_sample(&[1.0]);
        let m = Marginal::new(vec!["nope".into()]);
        assert!(matches!(
            MSwg::fit(&t, std::slice::from_ref(&m), small_config()),
            Err(SwgError::MissingAttribute(_))
        ));
    }

    #[test]
    fn learns_a_shifted_numeric_marginal() {
        // Sample concentrated near 0.2 but the population marginal says the
        // mass is near 0.8: the generator must follow the marginal.
        let sample = numeric_sample(&(0..64).map(|i| 0.1 + 0.002 * i as f64).collect::<Vec<_>>());
        let mut marg = Marginal::new(vec!["x".into()]);
        marg.add(vec![Value::Float(0.7)], 1.0);
        marg.add(vec![Value::Float(0.8)], 2.0);
        marg.add(vec![Value::Float(0.9)], 1.0);
        let model = MSwg::fit(&sample, std::slice::from_ref(&marg), small_config()).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let gen = model.generate(512, &mut rng);
        let xs: Vec<f64> = gen
            .column_by_name("x")
            .unwrap()
            .iter()
            .map(|v| v.as_f64().unwrap())
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!(
            (mean - 0.8).abs() < 0.1,
            "generated mean {mean}, want ~0.8; report {:?}",
            model.report().loss_history
        );
    }

    #[test]
    fn loss_decreases_during_training() {
        let sample = numeric_sample(&(0..64).map(|i| i as f64 / 64.0).collect::<Vec<_>>());
        let mut marg = Marginal::new(vec!["x".into()]);
        for i in 0..10 {
            marg.add(vec![Value::Float(i as f64 / 10.0)], 1.0);
        }
        let model = MSwg::fit(&sample, std::slice::from_ref(&marg), small_config()).unwrap();
        let h = &model.report().loss_history;
        let first: f64 = h[..3].iter().sum::<f64>() / 3.0;
        let last: f64 = h[h.len() - 3..].iter().sum::<f64>() / 3.0;
        assert!(last < first, "loss did not decrease: {first} -> {last}");
    }

    #[test]
    fn uncovered_attrs_get_sample_marginals() {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Float),
            Field::new("y", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        for i in 0..32 {
            b.push_row(vec![
                (i as f64 / 32.0).into(),
                (1.0 - i as f64 / 32.0).into(),
            ])
            .unwrap();
        }
        let sample = b.finish();
        let mut marg = Marginal::new(vec!["x".into()]);
        marg.add(vec![Value::Float(0.5)], 1.0);
        let cfg = SwgConfig {
            epochs: 2,
            ..small_config()
        };
        let model = MSwg::fit(&sample, std::slice::from_ref(&marg), cfg).unwrap();
        assert!(model
            .report()
            .marginal_labels
            .iter()
            .any(|l| l == "y (sample)"));
    }

    #[test]
    fn generates_metadata_only_categories() {
        // Sample only contains carrier "AA", but the marginal gives "US"
        // half the mass: the generator must be able to emit "US" (this is
        // exactly the §2 open-world example: AOL emails absent from the
        // Yahoo sample).
        let schema = Schema::new(vec![Field::new("carrier", DataType::Str)]);
        let mut b = TableBuilder::new(schema);
        for _ in 0..32 {
            b.push_row(vec!["AA".into()]).unwrap();
        }
        let sample = b.finish();
        let mut marg = Marginal::new(vec!["carrier".into()]);
        marg.add(vec!["AA".into()], 1.0);
        marg.add(vec!["US".into()], 1.0);
        let cfg = SwgConfig {
            epochs: 60,
            ..small_config()
        };
        let model = MSwg::fit(&sample, std::slice::from_ref(&marg), cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let gen = model.generate(400, &mut rng);
        let us = gen
            .column_by_name("carrier")
            .unwrap()
            .iter()
            .filter(|v| v == &Value::Str("US".into()))
            .count();
        let frac = us as f64 / 400.0;
        assert!((0.2..=0.8).contains(&frac), "US fraction {frac}, want ~0.5");
    }

    #[test]
    fn generation_is_deterministic_given_seed() {
        let sample = numeric_sample(&(0..32).map(|i| i as f64 / 32.0).collect::<Vec<_>>());
        let mut marg = Marginal::new(vec!["x".into()]);
        marg.add(vec![Value::Float(0.5)], 1.0);
        let cfg = SwgConfig {
            epochs: 2,
            ..small_config()
        };
        let m1 = MSwg::fit(&sample, std::slice::from_ref(&marg), cfg.clone()).unwrap();
        let m2 = MSwg::fit(&sample, std::slice::from_ref(&marg), cfg).unwrap();
        let g1 = m1.generate(10, &mut StdRng::seed_from_u64(3));
        let g2 = m2.generate(10, &mut StdRng::seed_from_u64(3));
        for r in 0..10 {
            assert_eq!(g1.value(r, 0), g2.value(r, 0));
        }
    }
}
