//! # mosaic-bench
//!
//! Workload generators, metrics, and experiment harnesses that regenerate
//! **every table and figure** of the Mosaic paper's evaluation (§5.3):
//!
//! | Paper artifact | Module / binary | Answered by |
//! |---|---|---|
//! | Fig. 5 (spiral population, biased vs M-SWG sample) | [`spiral`], `bin/fig5` | an `MSwg` fitted directly |
//! | Fig. 6 (range-query error vs box width, Unif vs M-SWG) | [`experiments::fig6`], `bin/fig6` | an `MSwg` fitted directly, each generated sample scored |
//! | Table 1 (flights attributes + encoded dims) | [`flights`], `bin/table1` | the M-SWG `Encoder` |
//! | Table 2 + Fig. 7 (queries 1–8, Unif vs IPF vs M-SWG) | [`experiments::fig7`], `bin/fig7` | SQL on [`flights::engine`] |
//! | §3.3 visibility trade-off table | [`experiments::visibility`], `bin/visibility` | SQL on [`flights::engine`] |
//! | §5.3 model-selection protocol (200 random queries) | [`experiments::selection`], `bin/selection` | SQL on [`flights::engine`] |
//! | Ablations: projections (A1), metadata path (A4), OPEN backend (A5) | `bin/ablation_{projections,metadata,backend}` | SQL on [`flights::engine`] |
//!
//! The flights rows ask a `MosaicEngine` one SQL statement per method —
//! the truth over the population table, Unif and IPF as SEMI-OPEN, the
//! generative model as OPEN (see [`experiments::Method`]) — so their
//! numbers come from the engine's own reweighting, replicate loop and
//! combine. The spiral experiments score each generated sample on its
//! own, a protocol the engine's combined OPEN answer does not expose.
//!
//! Since the IDEBench flights CSV is not available offline, [`flights`]
//! generates a synthetic population with the same five attributes, the
//! same skewed carrier distribution (including the rare `US`/`F9`
//! carriers the paper calls out), the same correlations
//! (elapsed_time ≈ distance/speed + taxi), and the same biased-sample
//! construction (5 % sample, 95 % of tuples with `elapsed_time > 200`).
//! See DESIGN.md for the substitution rationale.

pub mod experiments;
pub mod flights;
pub mod metrics;
pub mod spiral;
