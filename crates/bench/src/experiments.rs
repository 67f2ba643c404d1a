//! Experiment runners, one per paper artifact. Each returns plain structs
//! the harness binaries render; everything is deterministic given the
//! seeds in the configs.
//!
//! The flights runners (Fig. 7, §5.3 selection, §3.3 visibility) are
//! clients of one [`MosaicEngine`](mosaic_core::MosaicEngine) set up by
//! [`flights::engine`]: every method is one SQL statement on one seeded
//! session (see [`Method`]), so the paper's numbers come from the
//! engine's own SEMI-OPEN and OPEN pipelines.

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use mosaic_core::{EngineOptions, IpfConfig, OpenBackend, OpenOptions, Session, Visibility};
use mosaic_storage::Table;
use mosaic_swg::{MSwg, SwgConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::flights::{self, FlightsConfig, FlightsData};
use crate::metrics::{group_percent_diff, percent_diff, Summary};
use crate::spiral::{self, SpiralConfig};

/// How §5.3 answers a query over the flights population.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// The ground truth: the query over the population table.
    Truth,
    /// Uniform reweighting, the default AQP baseline: SEMI-OPEN over
    /// [`flights::UNIF`], whose sample declares a uniform mechanism.
    Unif,
    /// IPF, Mosaic's SEMI-OPEN technique: SEMI-OPEN over [`flights::GP`].
    Ipf,
    /// The generative model, Mosaic's OPEN technique: OPEN over
    /// [`flights::GP`].
    Open,
}

impl Method {
    /// `sql` — a query over [`flights::GP`] without a visibility
    /// keyword — as this method asks it.
    pub fn statement(self, sql: &str) -> String {
        let (keyword, relation) = match self {
            Method::Truth => ("", flights::TRUTH),
            Method::Unif => ("SEMI-OPEN ", flights::UNIF),
            Method::Ipf => ("SEMI-OPEN ", flights::GP),
            Method::Open => ("OPEN ", flights::GP),
        };
        sql.replacen("SELECT ", &format!("SELECT {keyword}"), 1)
            .replacen(
                &format!(" FROM {}", flights::GP),
                &format!(" FROM {relation}"),
                1,
            )
    }
}

/// Ask `sql` (see [`Method::statement`]) the way `method` does, as
/// `(group key, value)` pairs: `None` key for a scalar aggregate, and no
/// pair for a NULL aggregate.
pub fn answer(session: &Session, method: Method, sql: &str) -> Vec<(Option<String>, f64)> {
    let table = session
        .query(&method.statement(sql))
        .unwrap_or_else(|e| panic!("{method:?} {sql}: {e}"));
    flatten(&table)
}

/// Flatten an aggregate answer — group keys first, one aggregate last —
/// to `(group key, value)` pairs (`None` key for a scalar aggregate);
/// rows whose aggregate is NULL are dropped.
fn flatten(out: &Table) -> Vec<(Option<String>, f64)> {
    let keys = out.num_columns() - 1;
    (0..out.num_rows())
        .filter_map(|r| {
            let value = out.value(r, keys).as_f64()?;
            let key = (keys > 0).then(|| {
                (0..keys)
                    .map(|c| out.value(r, c).to_string())
                    .collect::<Vec<_>>()
                    .join("|")
            });
            Some((key, value))
        })
        .collect()
}

/// Mean percent difference of `estimate` vs `truth` over the truth's
/// groups (missing groups count as 100 %); `None` when the truth or the
/// estimate is entirely empty (the paper's "not-empty" filter).
pub fn answer_error(
    estimate: &[(Option<String>, f64)],
    truth: &[(Option<String>, f64)],
) -> Option<f64> {
    if truth.is_empty() || estimate.is_empty() {
        return None;
    }
    let est: HashMap<&Option<String>, f64> = estimate.iter().map(|(k, v)| (k, *v)).collect();
    let diffs: Vec<f64> = truth
        .iter()
        .filter_map(|(k, t)| group_percent_diff(est.get(k).copied(), Some(*t)))
        .collect();
    if diffs.is_empty() {
        None
    } else {
        Some(diffs.iter().sum::<f64>() / diffs.len() as f64)
    }
}

// ---------------------------------------------------------------- Fig. 6

/// Fig. 6 configuration: random 2-D range queries on the spiral at
/// varying box widths.
#[derive(Debug, Clone)]
pub struct Fig6Config {
    /// Spiral workload parameters.
    pub spiral: SpiralConfig,
    /// M-SWG training parameters.
    pub swg: SwgConfig,
    /// Random queries per coverage level (paper: 100).
    pub queries: usize,
    /// Generated samples to average over (paper: 10).
    pub generated_samples: usize,
    /// Fractional box-width coverages (paper: 0.1 – 0.8).
    pub coverages: Vec<f64>,
    /// Query RNG seed.
    pub seed: u64,
}

impl Default for Fig6Config {
    fn default() -> Self {
        Fig6Config {
            spiral: SpiralConfig::default(),
            swg: SwgConfig::paper_spiral(),
            queries: 100,
            generated_samples: 10,
            coverages: vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8],
            seed: 1,
        }
    }
}

/// One Fig. 6 row: error distributions at one coverage level.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Fractional box-width coverage.
    pub coverage: f64,
    /// Uniformly-reweighted biased sample (the AQP baseline).
    pub unif: Summary,
    /// M-SWG generated samples.
    pub mswg: Summary,
}

/// Run the Fig. 6 experiment.
pub fn fig6(config: &Fig6Config) -> Vec<Fig6Row> {
    let data = spiral::generate(&config.spiral);
    let pop_n = data.population.num_rows() as f64;
    let model =
        MSwg::fit(&data.sample, &data.marginals, config.swg.clone()).expect("spiral M-SWG fits");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let gen_tables: Vec<Table> = (0..config.generated_samples)
        .map(|_| model.generate(data.sample.num_rows(), &mut rng))
        .collect();
    let unif_w = vec![pop_n / data.sample.num_rows() as f64; data.sample.num_rows()];
    let gen_w = vec![pop_n / data.sample.num_rows() as f64; data.sample.num_rows()];

    let (xmin, xmax) = (0.0, 1.0);
    let (ymin, ymax) = (-0.1, 0.9);
    let mut rows = Vec::with_capacity(config.coverages.len());
    for &coverage in &config.coverages {
        let wx = coverage * (xmax - xmin);
        let wy = coverage * (ymax - ymin);
        let mut unif_err = Vec::with_capacity(config.queries);
        let mut mswg_err = Vec::with_capacity(config.queries);
        for _ in 0..config.queries {
            let x0 = xmin + rng.random::<f64>() * (xmax - xmin - wx);
            let y0 = ymin + rng.random::<f64>() * (ymax - ymin - wy);
            let truth = spiral::count_in_box(&data.population, x0, x0 + wx, y0, y0 + wy);
            let unif =
                spiral::weighted_count_in_box(&data.sample, &unif_w, x0, x0 + wx, y0, y0 + wy);
            // Average percent difference across the generated samples
            // (paper: "report the average percent difference across the
            // different samples").
            let mut gen_diffs = Vec::with_capacity(gen_tables.len());
            for g in &gen_tables {
                let est = spiral::weighted_count_in_box(g, &gen_w, x0, x0 + wx, y0, y0 + wy);
                gen_diffs.push(percent_diff(est, truth) / 100.0);
            }
            unif_err.push(percent_diff(unif, truth) / 100.0);
            mswg_err.push(gen_diffs.iter().sum::<f64>() / gen_diffs.len() as f64);
        }
        rows.push(Fig6Row {
            coverage,
            unif: Summary::of(&unif_err),
            mswg: Summary::of(&mswg_err),
        });
    }
    rows
}

// ---------------------------------------------------------------- Fig. 7

/// Configuration of the flights experiments: Fig. 7 / Table 2, the
/// §5.3 selection protocol and the §3.3 visibility table.
#[derive(Debug, Clone)]
pub struct Fig7Config {
    /// Flights workload parameters.
    pub flights: FlightsConfig,
    /// OPEN options: the generative backend and the generated samples
    /// combined per query (paper: 10).
    pub open: OpenOptions,
    /// IPF settings.
    pub ipf: IpfConfig,
    /// The session's OPEN generation seed.
    pub seed: u64,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Fig7Config {
            flights: FlightsConfig::default(),
            // The paper's flights config, with laptop-scale projection
            // and epoch counts (see DESIGN.md). ~30 s of training on
            // one core; `--full` harness flags raise both.
            open: OpenOptions::default()
                .with_backend(OpenBackend::Swg(
                    SwgConfig::paper_flights()
                        .with_projections(96)
                        .with_epochs(60),
                ))
                .with_num_generated(10),
            ipf: IpfConfig::default(),
            seed: 2,
        }
    }
}

impl Fig7Config {
    /// A seeded session on a fresh engine holding `data` with `sample`
    /// ingested (see [`flights::engine`]).
    pub fn session(&self, data: &FlightsData, sample: Table) -> Session {
        let options = EngineOptions::default()
            .with_open(self.open.clone())
            .with_ipf(self.ipf.clone());
        flights::engine(data, sample, options)
            .session()
            .with_seed(self.seed)
    }
}

/// Error of each method on one Table 2 query.
#[derive(Debug, Clone)]
pub struct Fig7Row {
    /// Query id (Q1–Q8).
    pub id: &'static str,
    /// Uniform reweighting (default AQP baseline).
    pub unif: Option<f64>,
    /// IPF (Mosaic's SEMI-OPEN technique).
    pub ipf: Option<f64>,
    /// The OPEN backend (the M-SWG unless `open` says otherwise).
    pub mswg: Option<f64>,
}

/// Run the Fig. 7 experiment (queries 1–8 of Table 2). Also returns the
/// wall time of the first OPEN statement, the one that fits the model.
pub fn fig7(config: &Fig7Config) -> (Vec<Fig7Row>, Duration) {
    let data = flights::generate(&config.flights);
    let session = config.session(&data, data.sample.clone());
    let mut fit = None;
    let rows = flights::table2_queries()
        .into_iter()
        .map(|(id, sql)| {
            let truth = answer(&session, Method::Truth, &sql);
            let error = |method| answer_error(&answer(&session, method, &sql), &truth);
            let (unif, ipf) = (error(Method::Unif), error(Method::Ipf));
            let t0 = Instant::now();
            let mswg = error(Method::Open);
            fit.get_or_insert(t0.elapsed());
            Fig7Row {
                id,
                unif,
                ipf,
                mswg,
            }
        })
        .collect();
    (rows, fit.unwrap_or_default())
}

// ------------------------------------------------------- §5.3 selection

/// The model-selection protocol of §5.3: random continuous-attribute
/// queries with the Q1–Q4 template, scored only when both the truth and
/// the estimate are non-empty.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// Queries where both answers were non-empty.
    pub scored: usize,
    /// Mean percent error per method.
    pub unif_mean: f64,
    /// IPF mean percent error.
    pub ipf_mean: f64,
    /// M-SWG mean percent error.
    pub mswg_mean: f64,
    /// Queries where M-SWG beat Unif.
    pub mswg_wins: usize,
    /// Queries where IPF beat Unif.
    pub ipf_wins: usize,
}

/// Run `queries` random continuous queries (paper: 200).
pub fn selection(config: &Fig7Config, queries: usize) -> SelectionResult {
    let data = flights::generate(&config.flights);
    let session = config.session(&data, data.sample.clone());
    let numeric = ["taxi_out", "taxi_in", "elapsed_time", "distance"];
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(77));
    let mut unif_errs = Vec::new();
    let mut ipf_errs = Vec::new();
    let mut mswg_errs = Vec::new();
    for _ in 0..queries {
        let a = numeric[rng.random_range(0..numeric.len())];
        let mut b = numeric[rng.random_range(0..numeric.len())];
        while b == a {
            b = numeric[rng.random_range(0..numeric.len())];
        }
        let (lo, hi) = data
            .population
            .column_by_name(b)
            .expect("attr")
            .numeric_range()
            .expect("non-empty");
        let thr = lo + rng.random::<f64>() * (hi - lo);
        let op = if rng.random::<bool>() { ">" } else { "<" };
        let sql = format!(
            "SELECT AVG({a}) FROM {} WHERE {b} {op} {thr:.1}",
            flights::GP
        );
        let truth = answer(&session, Method::Truth, &sql);
        if truth.is_empty() {
            continue;
        }
        let error = |method| answer_error(&answer(&session, method, &sql), &truth);
        // The paper's filter: both the true answer and the M-SWG answer
        // non-empty.
        let (Some(ue), Some(ie), Some(me)) =
            (error(Method::Unif), error(Method::Ipf), error(Method::Open))
        else {
            continue;
        };
        unif_errs.push(ue);
        ipf_errs.push(ie);
        mswg_errs.push(me);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    let wins = |v: &[f64]| v.iter().zip(&unif_errs).filter(|(e, u)| e < u).count();
    SelectionResult {
        scored: unif_errs.len(),
        unif_mean: mean(&unif_errs),
        ipf_mean: mean(&ipf_errs),
        mswg_mean: mean(&mswg_errs),
        mswg_wins: wins(&mswg_errs),
        ipf_wins: wins(&ipf_errs),
    }
}

// --------------------------------------------- §3.3 visibility trade-off

/// False-negative / false-positive counts per visibility level, at the
/// granularity of GROUP BY carrier groups.
#[derive(Debug, Clone)]
pub struct VisibilityRow {
    /// Visibility level.
    pub visibility: Visibility,
    /// Groups in the population missing from the answer.
    pub false_negatives: usize,
    /// Groups in the answer that don't exist in the population.
    pub false_positives: usize,
    /// Groups returned.
    pub returned: usize,
}

/// §3.3 experiment: drop several carriers from the sample and compare
/// which GROUP BY groups each visibility level recovers.
pub fn visibility(config: &Fig7Config, dropped_carriers: &[&str]) -> Vec<VisibilityRow> {
    let data = flights::generate(&config.flights);
    let keep: Vec<usize> = (0..data.sample.num_rows())
        .filter(|&r| {
            let c = data.sample.value(r, 0).to_string();
            !dropped_carriers.contains(&c.as_str())
        })
        .collect();
    let session = config.session(&data, data.sample.take(&keep));
    let groups = |sql: &str| -> HashSet<String> {
        flatten(&session.query(sql).expect("visibility query"))
            .into_iter()
            .filter_map(|(k, _)| k)
            .collect()
    };
    let sql = format!(
        "SELECT carrier, COUNT(*) FROM {} GROUP BY carrier",
        flights::GP
    );
    let truth = groups(&Method::Truth.statement(&sql));
    [Visibility::Closed, Visibility::SemiOpen, Visibility::Open]
        .into_iter()
        .map(|visibility| {
            let got = groups(&sql.replacen("SELECT ", &format!("SELECT {visibility} "), 1));
            VisibilityRow {
                visibility,
                false_negatives: truth.difference(&got).count(),
                false_positives: got.difference(&truth).count(),
                returned: got.len(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_swg() -> SwgConfig {
        SwgConfig::default()
            .with_hidden_dim(16)
            .with_hidden_layers(1)
            .with_latent_dim(Some(2))
            .with_projections(8)
            .with_batch_size(64)
            .with_epochs(4)
            .with_steps_per_epoch(Some(2))
            .with_coverage_subsample(128)
    }

    fn tiny_fig7() -> Fig7Config {
        Fig7Config {
            flights: FlightsConfig {
                population: 4000,
                marginal_bins: 8,
                ..FlightsConfig::default()
            },
            open: OpenOptions::default()
                .with_backend(OpenBackend::Swg(tiny_swg()))
                .with_num_generated(2),
            ..Fig7Config::default()
        }
    }

    #[test]
    fn answer_flattens_groups_and_scalars() {
        let config = tiny_fig7();
        let d = flights::generate(&config.flights);
        let session = config.session(&d, d.sample.clone());
        let scalar = answer(&session, Method::Truth, "SELECT AVG(distance) FROM Flights");
        assert_eq!(scalar.len(), 1);
        assert!(scalar[0].0.is_none());
        let groups = answer(
            &session,
            Method::Truth,
            "SELECT carrier, COUNT(*) FROM Flights GROUP BY carrier",
        );
        assert!(groups.len() > 5);
        assert!(groups.iter().all(|(k, _)| k.is_some()));
        // An empty selection's NULL aggregate flattens to no answer.
        let empty = answer(
            &session,
            Method::Unif,
            "SELECT AVG(distance) FROM Flights WHERE distance < 0",
        );
        assert!(empty.is_empty());
    }

    #[test]
    fn methods_rewrite_visibility_and_relation() {
        let sql = "SELECT AVG(distance) FROM Flights WHERE elapsed_time > 200";
        assert_eq!(
            Method::Truth.statement(sql),
            "SELECT AVG(distance) FROM FlightsTruth WHERE elapsed_time > 200"
        );
        assert_eq!(
            Method::Unif.statement(sql),
            "SELECT SEMI-OPEN AVG(distance) FROM FlightsUnif WHERE elapsed_time > 200"
        );
        assert_eq!(
            Method::Ipf.statement(sql),
            "SELECT SEMI-OPEN AVG(distance) FROM Flights WHERE elapsed_time > 200"
        );
        assert_eq!(
            Method::Open.statement(sql),
            "SELECT OPEN AVG(distance) FROM Flights WHERE elapsed_time > 200"
        );
    }

    #[test]
    fn answer_error_scores_missing_groups() {
        let truth = vec![(Some("a".to_string()), 10.0), (Some("b".to_string()), 10.0)];
        let est = vec![(Some("a".to_string()), 11.0)];
        // a: 10% error, b missing: 100% -> mean 55%.
        assert_eq!(answer_error(&est, &truth), Some(55.0));
        assert_eq!(answer_error(&[], &truth), None);
    }

    #[test]
    fn fig6_smoke() {
        let cfg = Fig6Config {
            spiral: SpiralConfig {
                population: 2000,
                sample: 300,
                ..SpiralConfig::default()
            },
            swg: tiny_swg(),
            queries: 10,
            generated_samples: 2,
            coverages: vec![0.4],
            seed: 3,
        };
        let rows = fig6(&cfg);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].unif.n, 10);
        assert!(rows[0].unif.mean.is_finite());
        assert!(rows[0].mswg.mean.is_finite());
    }

    #[test]
    fn fig7_smoke() {
        let (rows, fit) = fig7(&tiny_fig7());
        assert_eq!(rows.len(), 8);
        assert!(fit > Duration::ZERO);
        // The continuous queries (Q1–Q4) are always scorable for unif and
        // ipf; Q8's rare carriers may be absent from a tiny sample (the
        // paper observes the same failure mode at full scale for M-SWG).
        for r in rows.iter().take(4) {
            assert!(r.unif.is_some(), "{} unif missing", r.id);
            assert!(r.ipf.is_some(), "{} ipf missing", r.id);
        }
    }

    #[test]
    fn visibility_smoke() {
        let rows = visibility(&tiny_fig7(), &["US", "F9", "HA"]);
        assert_eq!(rows.len(), 3);
        // CLOSED and SEMI-OPEN cannot return the dropped carriers.
        assert!(rows[0].false_negatives >= 3);
        assert_eq!(rows[0].false_positives, 0);
        assert_eq!(rows[1].false_positives, 0);
    }
}
