//! Experiment runners, one per paper artifact. Each returns plain structs
//! the harness binaries render; everything is deterministic given the
//! seeds in the configs.

use std::collections::HashMap;
use std::sync::Arc;

use mosaic_core::{run_select, EngineOptions, MosaicEngine, OpenBackend, OpenOptions, Visibility};
use mosaic_sql::{parse, SelectItem, SelectStmt, Statement};
use mosaic_stats::{Ipf, IpfConfig};
use mosaic_storage::Table;
use mosaic_swg::{MSwg, SwgConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::flights::{self, FlightsConfig};
use crate::metrics::{group_percent_diff, percent_diff, Summary};
use crate::spiral::{self, SpiralConfig};

/// Parse a single SELECT statement.
fn select_stmt(sql: &str) -> SelectStmt {
    match parse(sql).expect("query parses").pop().expect("one stmt") {
        Statement::Select(s) => s,
        other => panic!("not a select: {other:?}"),
    }
}

/// Run an aggregate query over a table and flatten the answer to
/// `(group key, value)` pairs (`group = None` for scalar aggregates).
pub fn answer(sql: &str, table: &Table, weights: Option<&[f64]>) -> Vec<(Option<String>, f64)> {
    let stmt = select_stmt(sql);
    let out = run_select(&stmt, table, weights).expect("query runs");
    flatten_answer(&stmt, &out)
}

fn flatten_answer(stmt: &SelectStmt, out: &Table) -> Vec<(Option<String>, f64)> {
    let is_agg: Vec<bool> = stmt
        .items
        .iter()
        .map(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Wildcard => false,
        })
        .collect();
    let key_cols: Vec<usize> = (0..is_agg.len()).filter(|&i| !is_agg[i]).collect();
    let val_col = (0..is_agg.len())
        .find(|&i| is_agg[i])
        .expect("aggregate column");
    let mut rows = Vec::with_capacity(out.num_rows());
    for r in 0..out.num_rows() {
        let key = if key_cols.is_empty() {
            None
        } else {
            Some(
                key_cols
                    .iter()
                    .map(|&c| out.value(r, c).to_string())
                    .collect::<Vec<_>>()
                    .join("|"),
            )
        };
        if let Some(v) = out.value(r, val_col).as_f64() {
            rows.push((key, v));
        }
    }
    rows
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

/// Fig. 7 / Table 2 configuration.
#[derive(Debug, Clone)]
pub struct Fig7Config {
    /// Flights workload parameters.
    pub flights: FlightsConfig,
    /// M-SWG training parameters.
    pub swg: SwgConfig,
    /// Generated samples to combine (paper: 10).
    pub generated_samples: usize,
    /// IPF settings.
    pub ipf: IpfConfig,
    /// Generation seed.
    pub seed: u64,
}

impl Default for Fig7Config {
    fn default() -> Self {
        Fig7Config {
            flights: FlightsConfig::default(),
            // The paper's flights config, with laptop-scale projection
            // and epoch counts (see DESIGN.md). ~30 s of training on
            // one core; `--full` harness flags raise both.
            swg: SwgConfig::paper_flights()
                .with_projections(96)
                .with_epochs(60),
            generated_samples: 10,
            ipf: IpfConfig::default(),
            seed: 2,
        }
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
    /// M-SWG (Mosaic's OPEN technique).
    pub mswg: Option<f64>,
}

/// Everything fig7 needs, reusable by the ablation harnesses.
pub struct Fig7Artifacts {
    /// The generated workload.
    pub data: flights::FlightsData,
    /// IPF-fitted weights for the sample.
    pub ipf_weights: Vec<f64>,
    /// Generated tables from the trained M-SWG.
    pub generated: Vec<Table>,
}

/// Prepare the flights workload, IPF weights, and M-SWG generations.
pub fn fig7_prepare(config: &Fig7Config) -> Fig7Artifacts {
    let data = flights::generate(&config.flights);
    let ipf = Ipf::new(&data.sample, &data.marginals, &data.binners).expect("ipf indexes");
    let (ipf_weights, _report) = ipf.fit(None, &config.ipf);
    let model =
        MSwg::fit(&data.sample, &data.marginals, config.swg.clone()).expect("flights M-SWG fits");
    let mut rng = StdRng::seed_from_u64(config.seed);
    let generated = (0..config.generated_samples)
        .map(|_| model.generate(data.sample.num_rows(), &mut rng))
        .collect();
    Fig7Artifacts {
        data,
        ipf_weights,
        generated,
    }
}

/// Combine per-generated-sample answers: groups present in all answers,
/// averaged (paper §5.3 protocol).
pub fn combine_generated_answers(
    answers: &[Vec<(Option<String>, f64)>],
) -> Vec<(Option<String>, f64)> {
    let mut acc: HashMap<Option<String>, (usize, f64)> = HashMap::new();
    for ans in answers {
        for (k, v) in ans {
            let e = acc.entry(k.clone()).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += v;
        }
    }
    acc.into_iter()
        .filter(|(_, (n, _))| *n == answers.len())
        .map(|(k, (n, s))| (k, s / n as f64))
        .collect()
}

/// Run the Fig. 7 experiment (queries 1–8 of Table 2).
pub fn fig7(config: &Fig7Config) -> Vec<Fig7Row> {
    let art = fig7_prepare(config);
    fig7_rows(config, &art)
}

/// Score the Table 2 queries against prepared artifacts.
pub fn fig7_rows(config: &Fig7Config, art: &Fig7Artifacts) -> Vec<Fig7Row> {
    let data = &art.data;
    let n = data.sample.num_rows() as f64;
    let pop_n = data.population.num_rows() as f64;
    let unif_w = vec![pop_n / n; data.sample.num_rows()];
    let gen_w = vec![pop_n / n; data.sample.num_rows()];
    let mut rows = Vec::new();
    for (id, sql) in flights::table2_queries() {
        let truth = answer(&sql, &data.population, None);
        let unif = answer(&sql, &data.sample, Some(&unif_w));
        let ipf = answer(&sql, &data.sample, Some(&art.ipf_weights));
        let per_gen: Vec<_> = art
            .generated
            .iter()
            .map(|g| {
                let w = vec![gen_w[0]; g.num_rows()];
                answer(&sql, g, Some(&w))
            })
            .collect();
        let mswg = combine_generated_answers(&per_gen);
        let _ = config;
        rows.push(Fig7Row {
            id,
            unif: answer_error(&unif, &truth),
            ipf: answer_error(&ipf, &truth),
            mswg: answer_error(&mswg, &truth),
        });
    }
    rows
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
    let art = fig7_prepare(config);
    let data = &art.data;
    let n = data.sample.num_rows() as f64;
    let pop_n = data.population.num_rows() as f64;
    let unif_w = vec![pop_n / n; data.sample.num_rows()];
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
        let sql = format!("SELECT AVG({a}) FROM F WHERE {b} {op} {thr:.1}");
        let truth = answer(&sql, &data.population, None);
        if truth.is_empty() {
            continue;
        }
        let unif = answer(&sql, &data.sample, Some(&unif_w));
        let ipf = answer(&sql, &data.sample, Some(&art.ipf_weights));
        let per_gen: Vec<_> = art
            .generated
            .iter()
            .map(|g| answer(&sql, g, Some(&vec![pop_n / n; g.num_rows()])))
            .collect();
        let mswg = combine_generated_answers(&per_gen);
        // The paper's filter: both the true answer and the M-SWG answer
        // non-empty.
        let (Some(ue), Some(ie), Some(me)) = (
            answer_error(&unif, &truth),
            answer_error(&ipf, &truth),
            answer_error(&mswg, &truth),
        ) else {
            continue;
        };
        unif_errs.push(ue);
        ipf_errs.push(ie);
        mswg_errs.push(me);
    }
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    SelectionResult {
        scored: unif_errs.len(),
        unif_mean: mean(&unif_errs),
        ipf_mean: mean(&ipf_errs),
        mswg_mean: mean(&mswg_errs),
        mswg_wins: mswg_errs
            .iter()
            .zip(&unif_errs)
            .filter(|(m, u)| m < u)
            .count(),
        ipf_wins: ipf_errs
            .iter()
            .zip(&unif_errs)
            .filter(|(i, u)| i < u)
            .count(),
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
/// which GROUP BY groups each visibility level recovers. Exercises the
/// full SQL path through a [`MosaicEngine`] session.
pub fn visibility(
    flights_config: &FlightsConfig,
    swg: SwgConfig,
    dropped_carriers: &[&str],
) -> Vec<VisibilityRow> {
    let data = flights::generate(flights_config);
    let open = OpenOptions::default()
        .with_backend(OpenBackend::Swg(swg))
        .with_num_generated(3);
    let engine = Arc::new(MosaicEngine::with_options(
        EngineOptions::default().with_open(open),
    ));
    let db = engine.session();
    db.execute(
        "CREATE GLOBAL POPULATION Flights (carrier TEXT, taxi_out INT, taxi_in INT, elapsed_time INT, distance INT);
         CREATE SAMPLE FlightSample AS (SELECT * FROM Flights);",
    )
    .expect("ddl");
    // Metadata: the (carrier, elapsed) marginal plus the three others.
    for (i, m) in data.marginals.iter().enumerate() {
        engine
            .add_metadata(&format!("Flights_M{i}"), "Flights", m.clone())
            .expect("metadata");
    }
    for (attr, binner) in &data.binners {
        engine.register_binner(attr, binner.clone());
    }
    // Ingest the biased sample minus the dropped carriers.
    let keep: Vec<usize> = (0..data.sample.num_rows())
        .filter(|&r| {
            let c = data.sample.value(r, 0).to_string();
            !dropped_carriers.contains(&c.as_str())
        })
        .collect();
    engine
        .ingest_sample("FlightSample", data.sample.take(&keep))
        .expect("ingest");

    let truth_groups: std::collections::HashSet<String> = answer(
        "SELECT carrier, COUNT(*) FROM F GROUP BY carrier",
        &data.population,
        None,
    )
    .into_iter()
    .filter_map(|(k, _)| k)
    .collect();

    let mut rows = Vec::new();
    for vis in [Visibility::Closed, Visibility::SemiOpen, Visibility::Open] {
        let kw = match vis {
            Visibility::Closed => "CLOSED",
            Visibility::SemiOpen => "SEMI-OPEN",
            Visibility::Open => "OPEN",
        };
        let out = db
            .execute(&format!(
                "SELECT {kw} carrier, COUNT(*) FROM Flights GROUP BY carrier"
            ))
            .expect("visibility query");
        let got: std::collections::HashSet<String> = (0..out.table.num_rows())
            .map(|r| out.table.value(r, 0).to_string())
            .collect();
        rows.push(VisibilityRow {
            visibility: vis,
            false_negatives: truth_groups.difference(&got).count(),
            false_positives: got.difference(&truth_groups).count(),
            returned: got.len(),
        });
    }
    rows
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

    #[test]
    fn answer_flattens_groups_and_scalars() {
        let d = flights::generate(&FlightsConfig {
            population: 2000,
            ..FlightsConfig::default()
        });
        let scalar = answer("SELECT AVG(distance) FROM F", &d.population, None);
        assert_eq!(scalar.len(), 1);
        assert!(scalar[0].0.is_none());
        let groups = answer(
            "SELECT carrier, COUNT(*) FROM F GROUP BY carrier",
            &d.population,
            None,
        );
        assert!(groups.len() > 5);
        assert!(groups.iter().all(|(k, _)| k.is_some()));
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
    fn combine_keeps_only_common_groups() {
        let a = vec![(Some("x".to_string()), 1.0), (Some("y".to_string()), 3.0)];
        let b = vec![(Some("x".to_string()), 3.0)];
        let c = combine_generated_answers(&[a, b]);
        assert_eq!(c.len(), 1);
        assert_eq!(c[0], (Some("x".to_string()), 2.0));
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
        let cfg = Fig7Config {
            flights: FlightsConfig {
                population: 4000,
                marginal_bins: 8,
                ..FlightsConfig::default()
            },
            swg: tiny_swg(),
            generated_samples: 2,
            ..Fig7Config::default()
        };
        let rows = fig7(&cfg);
        assert_eq!(rows.len(), 8);
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
        let rows = visibility(
            &FlightsConfig {
                population: 4000,
                marginal_bins: 8,
                ..FlightsConfig::default()
            },
            tiny_swg(),
            &["US", "F9", "HA"],
        );
        assert_eq!(rows.len(), 3);
        // CLOSED and SEMI-OPEN cannot return the dropped carriers.
        assert!(rows[0].false_negatives >= 3);
        assert_eq!(rows[0].false_positives, 0);
        assert_eq!(rows[1].false_positives, 0);
    }
}
