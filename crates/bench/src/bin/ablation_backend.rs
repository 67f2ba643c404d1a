//! **Ablation A5** — generative backend for OPEN queries: the implicit
//! M-SWG (paper §5) vs the explicit Chow–Liu Bayesian network fitted on
//! the IPF-reweighted sample (§4.2 / Themis). Runs Fig. 7 once per
//! backend and scores the Table 2 queries against the ground truth.
//!
//! Usage: `cargo run --release -p mosaic-bench --bin ablation_backend [--full]`

use mosaic_bench::experiments::{fig7, Fig7Config};
use mosaic_bench::flights::FlightsConfig;
use mosaic_bn::BnConfig;
use mosaic_core::OpenBackend;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let config = Fig7Config {
        flights: if full {
            FlightsConfig::paper_scale()
        } else {
            FlightsConfig {
                population: 50_000,
                ..FlightsConfig::default()
            }
        },
        ..Fig7Config::default()
    };
    let (mswg, _) = fig7(&config);
    let (bn, _) = fig7(&Fig7Config {
        open: config
            .open
            .clone()
            .with_backend(OpenBackend::BayesNet(BnConfig::default())),
        ..config
    });

    println!("Ablation A5: OPEN backend, percent error on Table 2 queries");
    println!("{:<4} {:>10} {:>10}", "Id", "M-SWG", "BayesNet");
    let cell = |v: Option<f64>| v.map_or("empty".to_string(), |x| format!("{x:.2}"));
    for (m, b) in mswg.iter().zip(&bn) {
        println!("{:<4} {:>10} {:>10}", m.id, cell(m.mswg), cell(b.mswg));
    }
    println!();
    println!(
        "Expected shape: the BN (explicit model, fits the reweighted joint \
         exactly up to its tree independence assumptions) is competitive on \
         the continuous queries; the M-SWG avoids the independence assumption \
         entirely (paper §4.2 trade-off discussion)."
    );
}
