//! Reproduces the **§3.3 visibility trade-off table**: false negatives
//! and false positives of CLOSED vs SEMI-OPEN vs OPEN queries when the
//! sample is missing several carriers entirely.
//!
//! | level | FN | FP | assumption |
//! |---|---|---|---|
//! | CLOSED | n | 0 | closed |
//! | SEMI-OPEN | n | 0 | open |
//! | OPEN | ≤ n | ≥ 0 | open |
//!
//! Usage: `cargo run --release -p mosaic-bench --bin visibility [--full]`

use mosaic_bench::experiments::{visibility, Fig7Config};
use mosaic_bench::flights::FlightsConfig;
use mosaic_core::{OpenBackend, OpenOptions};
use mosaic_swg::SwgConfig;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let flights = if full {
        FlightsConfig {
            population: 200_000,
            marginal_bins: 16,
            ..FlightsConfig::default()
        }
    } else {
        FlightsConfig {
            population: 30_000,
            marginal_bins: 12,
            ..FlightsConfig::default()
        }
    };
    let swg = SwgConfig::default()
        .with_hidden_dim(50)
        .with_hidden_layers(3)
        .with_latent_dim(None)
        .with_lambda(1e-7)
        .with_projections(if full { 128 } else { 32 })
        .with_epochs(if full { 30 } else { 15 })
        .with_batch_size(256);
    let dropped = ["US", "F9", "HA", "VX"];
    eprintln!(
        "visibility: population={}, dropping carriers {:?} from the sample",
        flights.population, dropped
    );
    let config = Fig7Config {
        flights,
        open: OpenOptions::default()
            .with_backend(OpenBackend::Swg(swg))
            .with_num_generated(3),
        ..Fig7Config::default()
    };
    let rows = visibility(&config, &dropped);
    println!("Section 3.3 visibility trade-off (GROUP BY carrier groups):");
    println!(
        "{:<10} {:>8} {:>8} {:>9} {:>12}",
        "level", "FN", "FP", "returned", "assumption"
    );
    for r in &rows {
        let assumption = match r.visibility {
            mosaic_core::Visibility::Closed => "closed",
            _ => "open",
        };
        println!(
            "{:<10} {:>8} {:>8} {:>9} {:>12}",
            r.visibility.to_string(),
            r.false_negatives,
            r.false_positives,
            r.returned,
            assumption
        );
    }
    println!();
    println!(
        "Expected shape: CLOSED and SEMI-OPEN have FN = {} (the dropped carriers) \
         and FP = 0; OPEN recovers some or all dropped carriers (FN ≤ {}) and may \
         introduce false positives.",
        dropped.len(),
        dropped.len()
    );
}
