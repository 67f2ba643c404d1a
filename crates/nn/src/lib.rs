//! # mosaic-nn
//!
//! A minimal dense neural-network framework with manual backpropagation —
//! the substrate for Mosaic's Marginal-Constrained Sliced Wasserstein
//! Generator (paper §5; the authors used PyTorch, we build the equivalent
//! pieces from scratch):
//!
//! * [`Matrix`] — row-major dense matrices with the handful of BLAS-like
//!   kernels a small MLP needs,
//! * [`Dense`], [`Relu`], [`BatchNorm`], [`BlockSoftmax`] — the layers used
//!   by the paper's generator ("3 ReLU FC layers with 100 nodes each …
//!   batch normalization after each layer … a softmax layer for the
//!   categorical variable"),
//! * [`Mlp`] — a sequential container with forward/backward,
//! * [`Adam`] — the Adam optimizer with PyTorch-default hyperparameters,
//! * [`PlateauScheduler`] — "an initial learning rate of 0.001 that
//!   decreases by a factor of 10 if a plateau is reached during training".
//!
//! The framework is deliberately small: generators in this problem domain
//! are a few dense layers wide (50–200 units), so clarity and testability
//! (gradient checks, property tests) beat generality.

#![forbid(unsafe_code)]

mod layers;
mod matrix;
mod mlp;
mod optim;

pub use layers::{BatchNorm, BlockSoftmax, Dense, Layer, Relu};
pub use matrix::Matrix;
pub use mlp::Mlp;
pub use optim::{Adam, Param, PlateauScheduler};
