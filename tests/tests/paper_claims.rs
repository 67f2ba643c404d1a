//! The paper's evaluation claims (§3.3, §5.3, Tables 1 and 2) asked of
//! the engine at a scale a debug `cargo test` runs in seconds. Each test
//! asserts an *ordering* the paper reports, not its numbers, and only
//! orderings this reproduction measures to hold: the M-SWG does not beat
//! uniform reweighting on Table 2 here, so no test claims it does.

use std::collections::HashMap;

use mosaic_bench::experiments::{answer, answer_error, visibility, Fig7Config, Method};
use mosaic_bench::flights::{self, FlightsConfig};
use mosaic_core::{OpenBackend, OpenOptions};
use mosaic_swg::{Encoder, SwgConfig};

/// Table 2, Q1–Q4: IPF against the four marginals beats uniform
/// reweighting on every continuous query, and on their mean.
#[test]
fn ipf_beats_uniform_reweighting_on_each_continuous_query() {
    let config = Fig7Config {
        flights: FlightsConfig {
            population: 20_000,
            marginal_bins: 8,
            ..FlightsConfig::default()
        },
        ..Fig7Config::default()
    };
    let data = flights::generate(&config.flights);
    let session = config.session(&data, data.sample.clone());
    let (mut unif_sum, mut ipf_sum) = (0.0, 0.0);
    for (id, sql) in flights::table2_queries().into_iter().take(4) {
        let truth = answer(&session, Method::Truth, &sql);
        let error = |method| answer_error(&answer(&session, method, &sql), &truth).unwrap();
        let (unif, ipf) = (error(Method::Unif), error(Method::Ipf));
        assert!(ipf < unif, "{id}: IPF {ipf:.3} % vs Unif {unif:.3} %");
        unif_sum += unif;
        ipf_sum += ipf;
    }
    assert!(
        ipf_sum < unif_sum,
        "Q1–Q4 mean: IPF {ipf_sum} vs Unif {unif_sum}"
    );
}

/// Table 1: the M-SWG encodes `carrier` one-hot over its 14 values and
/// each numeric attribute as one scaled dimension.
#[test]
fn table1_encoded_widths() {
    let config = Fig7Config::default();
    let data = flights::generate(&FlightsConfig {
        population: 20_000,
        ..config.flights
    });
    let session = config.session(&data, data.sample.clone());
    let sample = session
        .query("SELECT carrier, taxi_out, taxi_in, elapsed_time, distance FROM FlightSample")
        .unwrap();
    let encoder = Encoder::fit(&sample, &HashMap::new());
    let widths: Vec<(&str, usize)> = encoder
        .specs()
        .iter()
        .map(|s| (s.name(), s.width()))
        .collect();
    assert_eq!(
        widths,
        [
            ("carrier", 14),
            ("taxi_out", 1),
            ("taxi_in", 1),
            ("elapsed_time", 1),
            ("distance", 1)
        ]
    );
}

/// §3.3: with three carriers missing from the sample, CLOSED and
/// SEMI-OPEN miss exactly those groups (they have no rows to return) and
/// invent none; OPEN, generating from the (carrier, elapsed_time)
/// marginal, misses fewer — on every seed. (At 4 K rows and 8 epochs
/// every seed misses at most one group; at 2–3 K rows and 4 epochs some
/// seed misses all three.)
#[test]
fn open_recovers_carrier_groups_the_sample_misses() {
    let dropped = ["US", "F9", "HA"];
    let swg = SwgConfig::default()
        .with_hidden_dim(32)
        .with_hidden_layers(2)
        .with_latent_dim(None)
        .with_lambda(1e-7)
        .with_projections(16)
        .with_batch_size(256)
        .with_epochs(8);
    for seed in 1..=5 {
        let config = Fig7Config {
            flights: FlightsConfig {
                population: 4_000,
                marginal_bins: 8,
                ..FlightsConfig::default()
            },
            open: OpenOptions::default()
                .with_backend(OpenBackend::Swg(swg.clone()))
                .with_num_generated(3),
            seed,
            ..Fig7Config::default()
        };
        let [closed, semi_open, open] = &visibility(&config, &dropped)[..] else {
            panic!("one row per visibility level");
        };
        for row in [closed, semi_open] {
            assert_eq!(row.false_negatives, dropped.len(), "seed {seed}: {row:?}");
            assert_eq!(row.false_positives, 0, "seed {seed}: {row:?}");
        }
        assert!(
            open.false_negatives < dropped.len(),
            "seed {seed}: {open:?}"
        );
    }
}
