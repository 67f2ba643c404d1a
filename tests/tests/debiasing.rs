//! Statistical correctness of the debiasing pipeline: IPF against ground
//! truth on synthetic workloads, the M-SWG on the spiral, and the
//! Bayesian-network/IPF combination (the Themis pipeline).

use std::collections::HashMap;

use mosaic_bench::flights::{self, FlightsConfig};
use mosaic_bench::spiral::{self, SpiralConfig};
use mosaic_bn::{BayesNet, BnConfig};
use mosaic_stats::{wasserstein_1d, WassersteinOrder};
use mosaic_stats::{weighted, Ipf, IpfConfig, Marginal, WeightedEmpirical};
use mosaic_storage::Table;
use mosaic_swg::{MSwg, SwgConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn col_f64(t: &Table, name: &str) -> Vec<Option<f64>> {
    t.column_by_name(name).unwrap().to_f64_vec()
}

#[test]
fn ipf_recovers_population_mean_on_flights() {
    let data = flights::generate(&FlightsConfig {
        population: 30_000,
        marginal_bins: 24,
        ..FlightsConfig::default()
    });
    let truth = weighted::weighted_mean(
        &col_f64(&data.population, "elapsed_time"),
        &vec![1.0; data.population.num_rows()],
    )
    .unwrap();
    let biased = weighted::weighted_mean(
        &col_f64(&data.sample, "elapsed_time"),
        &vec![1.0; data.sample.num_rows()],
    )
    .unwrap();
    let ipf = Ipf::new(&data.sample, &data.marginals, &data.binners).unwrap();
    let (w, _) = ipf.fit(None, &IpfConfig::default());
    let debiased = weighted::weighted_mean(&col_f64(&data.sample, "elapsed_time"), &w).unwrap();
    // The biased sample is way off; IPF should close most of the gap.
    let bias_err = (biased - truth).abs();
    let ipf_err = (debiased - truth).abs();
    assert!(
        ipf_err < bias_err * 0.15,
        "IPF error {ipf_err:.2} vs biased error {bias_err:.2} (truth {truth:.2})"
    );
}

#[test]
fn ipf_single_marginal_satisfied_exactly() {
    // With one marginal, Deming–Stephan raking satisfies every reachable
    // cell exactly after one pass.
    let data = flights::generate(&FlightsConfig {
        population: 20_000,
        marginal_bins: 16,
        ..FlightsConfig::default()
    });
    let target = &data.marginals[0]; // (carrier, elapsed_time)
    let ipf = Ipf::new(&data.sample, std::slice::from_ref(target), &data.binners).unwrap();
    let (w, report) = ipf.fit(None, &IpfConfig::default());
    assert!(report.converged, "{report:?}");
    let weighted_m = Marginal::from_table(
        &data.sample,
        &["carrier", "elapsed_time"],
        Some(&w),
        &data.binners,
    )
    .unwrap();
    let mut checked = 0;
    for (key, got) in weighted_m.iter() {
        if got <= 0.0 {
            continue;
        }
        let want = target.get(key).unwrap_or(0.0);
        assert!(
            (got - want).abs() < 1e-6 * (1.0 + want),
            "cell {key:?}: got {got:.3}, want {want:.3}"
        );
        checked += 1;
    }
    assert!(checked > 10, "checked {checked} cells");
}

#[test]
fn ipf_multiple_marginals_reduce_error_even_without_convergence() {
    // Four overlapping 2-D marginals over a sample missing many cells are
    // generally unsatisfiable simultaneously (the report surfaces the
    // empty target cells — SEMI-OPEN's false negatives); IPF must still
    // shrink the marginal error dramatically vs the unweighted sample.
    let data = flights::generate(&FlightsConfig {
        population: 20_000,
        marginal_bins: 16,
        ..FlightsConfig::default()
    });
    let ipf = Ipf::new(&data.sample, &data.marginals, &data.binners).unwrap();
    let (w, report) = ipf.fit(
        None,
        &IpfConfig::default()
            .with_max_iterations(500)
            .with_tolerance(1e-6),
    );
    assert!(report.empty_target_cells > 0);
    let target = &data.marginals[0];
    let err_of = |weights: &[f64]| {
        let m = Marginal::from_table(
            &data.sample,
            &["carrier", "elapsed_time"],
            Some(weights),
            &data.binners,
        )
        .unwrap();
        let mut total = 0.0;
        for (key, want) in target.iter() {
            let got = m.get(key).unwrap_or(0.0);
            total += (got - want).abs();
        }
        total
    };
    let raw_err = err_of(&vec![
        data.population.num_rows() as f64
            / data.sample.num_rows() as f64;
        data.sample.num_rows()
    ]);
    let ipf_err = err_of(&w);
    // A large part of the residual is the unreachable mass in the empty
    // target cells (identical for any reweighting of the sample), so the
    // improvement is bounded; require a solid constant-factor reduction.
    assert!(
        ipf_err < raw_err * 0.7,
        "IPF L1 marginal error {ipf_err:.0} vs uniform {raw_err:.0}"
    );
}

#[test]
fn mswg_debiases_the_spiral_sample() {
    let data = spiral::generate(&SpiralConfig {
        population: 10_000,
        sample: 1_000,
        ..SpiralConfig::default()
    });
    let model = MSwg::fit(
        &data.sample,
        &data.marginals,
        SwgConfig::paper_spiral()
            .with_epochs(25)
            .with_batch_size(256),
    )
    .unwrap();
    let mut rng = StdRng::seed_from_u64(2);
    let gen = model.generate(1_000, &mut rng);
    for attr in ["x", "y"] {
        let pop =
            WeightedEmpirical::from_values(col_f64(&data.population, attr).into_iter().flatten());
        let biased =
            WeightedEmpirical::from_values(col_f64(&data.sample, attr).into_iter().flatten());
        let generated = WeightedEmpirical::from_values(col_f64(&gen, attr).into_iter().flatten());
        let d_biased = wasserstein_1d(&biased, &pop, WassersteinOrder::W1);
        let d_gen = wasserstein_1d(&generated, &pop, WassersteinOrder::W1);
        assert!(
            d_gen < d_biased * 0.5,
            "{attr}: generated W1 {d_gen:.4} should be well under biased W1 {d_biased:.4}"
        );
    }
}

#[test]
fn themis_pipeline_ipf_then_bayes_net() {
    // The Themis approach (§4.1): IPF-reweight, then fit the explicit
    // model on the reweighted sample.
    let data = flights::generate(&FlightsConfig {
        population: 20_000,
        marginal_bins: 16,
        ..FlightsConfig::default()
    });
    let ipf = Ipf::new(&data.sample, &data.marginals, &data.binners).unwrap();
    let (w, _) = ipf.fit(None, &IpfConfig::default());
    let bn = BayesNet::fit(&data.sample, Some(&w), &BnConfig::default()).unwrap();
    let mut rng = StdRng::seed_from_u64(4);
    let synth = bn.sample(20_000, &mut rng);
    let truth = weighted::weighted_mean(
        &col_f64(&data.population, "elapsed_time"),
        &vec![1.0; data.population.num_rows()],
    )
    .unwrap();
    let biased = weighted::weighted_mean(
        &col_f64(&data.sample, "elapsed_time"),
        &vec![1.0; data.sample.num_rows()],
    )
    .unwrap();
    let synth_mean = weighted::weighted_mean(
        &col_f64(&synth, "elapsed_time"),
        &vec![1.0; synth.num_rows()],
    )
    .unwrap();
    assert!(
        (synth_mean - truth).abs() < (biased - truth).abs() * 0.3,
        "BN synthetic mean {synth_mean:.1} vs truth {truth:.1} (biased {biased:.1})"
    );
}

#[test]
fn binned_marginals_round_trip_through_engine_conventions() {
    // Marginal::from_table and Ipf must agree on binned cell keys.
    let data = spiral::generate(&SpiralConfig {
        population: 3_000,
        sample: 500,
        ..SpiralConfig::default()
    });
    let sample_m = Marginal::from_table(&data.sample, &["x"], None, &data.binners).unwrap();
    let pop_m = &data.marginals[0];
    // Every sample cell key must exist in the population marginal (same
    // binning ⇒ same midpoint keys).
    let mut matched = 0;
    for (key, _) in sample_m.iter() {
        assert!(
            pop_m.get(key).is_some(),
            "sample cell {key:?} missing from population marginal"
        );
        matched += 1;
    }
    assert!(matched > 5);
    let _unused: HashMap<(), ()> = HashMap::new();
}

/// An IPF fit that stops at its iteration cap says so on every path that
/// fits: SEMI-OPEN over a population with its own metadata, over a
/// derived population reweighted against its GP's metadata, and the
/// re-calibration of a weighted×weighted join's combined weight. One
/// pass over two marginals cannot satisfy both, so each fit stops
/// unconverged; with the default cap the single-marginal fits converge
/// and carry no such suffix.
#[test]
fn ipf_non_convergence_is_reported_on_every_path() {
    use std::sync::Arc;

    use mosaic_core::{EngineOptions, MosaicEngine};

    let setup = |ipf: IpfConfig| {
        let db = Arc::new(MosaicEngine::with_options(
            EngineOptions::default().with_ipf(ipf),
        ))
        .session();
        db.execute(
            "CREATE TABLE Report (country TEXT, email TEXT, reported_count INT);
             INSERT INTO Report (country, reported_count) VALUES ('UK', 600), ('FR', 400);
             INSERT INTO Report (email, reported_count) VALUES ('Yahoo', 300), ('AOL', 700);
             CREATE GLOBAL POPULATION Migrants (country TEXT, email TEXT);
             CREATE METADATA Migrants_M1 AS
               (SELECT country, reported_count FROM Report WHERE country IS NOT NULL);
             CREATE METADATA Migrants_M2 AS
               (SELECT email, reported_count FROM Report WHERE email IS NOT NULL);
             CREATE SAMPLE MSample AS (SELECT * FROM Migrants);
             INSERT INTO MSample VALUES ('UK', 'Yahoo'), ('UK', 'Yahoo'), ('UK', 'AOL'),
               ('FR', 'AOL'), ('FR', 'Yahoo'), ('UK', 'Yahoo');
             CREATE POPULATION UkMigrants AS (SELECT * FROM Migrants WHERE country = 'UK');",
        )
        .unwrap();
        db
    };
    let note = |db: &mosaic_core::Session, sql: &str, about: &str| -> String {
        let notes = db.execute(sql).unwrap().notes;
        notes
            .iter()
            .find(|n| n.starts_with("IPF vs") && n.contains(about))
            .unwrap_or_else(|| panic!("no IPF note about {about:?} for {sql}: {notes:?}"))
            .clone()
    };
    let paths = [
        (
            "SELECT SEMI-OPEN COUNT(*) FROM Migrants",
            "2 marginal(s) of Migrants",
        ),
        (
            "SELECT SEMI-OPEN COUNT(*) FROM UkMigrants",
            "2 marginal(s) of GP Migrants",
        ),
        (
            "SELECT SEMI-OPEN COUNT(*) FROM Migrants m JOIN MSample s \
             ON m.country = s.country",
            "re-calibrating the combined join weight",
        ),
    ];
    let capped = setup(IpfConfig::default().with_max_iterations(1));
    for (sql, about) in paths {
        let n = note(&capped, sql, about);
        assert!(
            n.contains(": 1 iterations,") && n.ends_with(" (not converged)"),
            "{n}"
        );
    }
    // One marginal: a single raking pass satisfies it exactly.
    let db = setup(IpfConfig::default());
    db.execute("DROP METADATA Migrants_M2").unwrap();
    for (sql, about) in paths {
        let about = about.replace("2 marginal(s)", "1 marginal(s)");
        let n = note(&db, sql, &about);
        assert!(!n.contains("not converged"), "{n}");
    }
}
