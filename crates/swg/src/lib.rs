//! # mosaic-swg
//!
//! The **Marginal-Constrained Sliced Wasserstein Generator (M-SWG)** — the
//! Mosaic paper's primary machine-learning contribution (§5) and the engine
//! behind `OPEN` query processing.
//!
//! Given a biased sample and a set of published 1-/2-dimensional population
//! marginals, the M-SWG trains a generator network whose outputs
//!
//! 1. match every marginal in (sliced) Wasserstein distance, and
//! 2. stay close to the sample manifold via a λ-weighted nearest-sample
//!    penalty (`λ·E_{x∼G} min_{y∈S} ‖x−y‖²`),
//!
//! so generated tuples *look like* real sample tuples but are *distributed
//! like* the population. No discriminator network is needed: the 1-D
//! Wasserstein distance is computed exactly by quantile matching, and ≥2-D
//! marginals are reduced to 1-D by random projections (the *sliced*
//! Wasserstein distance).
//!
//! The three pieces:
//!
//! * [`Encoder`] — min-max scaling for numeric attributes and one-hot
//!   blocks (with a softmax head during training and argmax
//!   discretization at generation time) for categoricals, exactly as in
//!   §5.3 ("we one-hot encode the categorical variables and scale all
//!   attributes to be between 0 and 1").
//! * [`loss`] — the marginal-matching and coverage loss terms with
//!   closed-form gradients.
//! * [`MSwg`] — configuration, training loop (Adam + plateau LR decay),
//!   and batch generation.

#![forbid(unsafe_code)]

mod encoder;
pub mod loss;
mod model;

pub use encoder::{AttrSpec, EncodedMarginal, Encoder};
pub use model::{MSwg, SwgConfig, SwgError, TrainReport};
