//! **Ablation A1** — number of random projections `p` for the sliced
//! Wasserstein terms (paper: p = 1000; DESIGN.md defaults lower).
//! Accuracy on the continuous Table 2 queries vs the wall time of the
//! first OPEN statement, the one that trains the M-SWG.
//!
//! Usage: `cargo run --release -p mosaic-bench --bin ablation_projections [--full]`

use mosaic_bench::experiments::{fig7, Fig7Config};
use mosaic_bench::flights::FlightsConfig;
use mosaic_core::{OpenBackend, OpenOptions};
use mosaic_swg::SwgConfig;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let flights = if full {
        FlightsConfig {
            population: 200_000,
            ..FlightsConfig::default()
        }
    } else {
        FlightsConfig {
            population: 30_000,
            marginal_bins: 16,
            ..FlightsConfig::default()
        }
    };
    let ps = if full {
        vec![16usize, 64, 256, 1000]
    } else {
        vec![8, 32, 128]
    };
    println!("Ablation A1: sliced-Wasserstein projection count");
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10} {:>12}",
        "p", "Q1", "Q2", "Q3", "Q4", "train (s)"
    );
    for p in ps {
        let swg = SwgConfig::paper_flights()
            .with_projections(p)
            .with_epochs(if full { 30 } else { 12 });
        let config = Fig7Config {
            flights: flights.clone(),
            open: OpenOptions::default()
                .with_backend(OpenBackend::Swg(swg))
                .with_num_generated(5),
            ..Fig7Config::default()
        };
        let (rows, fit) = fig7(&config);
        let cell = |v: Option<f64>| v.map_or("empty".to_string(), |x| format!("{x:.2}"));
        println!(
            "{:>6} {:>10} {:>10} {:>10} {:>10} {:>12.1}",
            p,
            cell(rows[0].mswg),
            cell(rows[1].mswg),
            cell(rows[2].mswg),
            cell(rows[3].mswg),
            fit.as_secs_f64()
        );
    }
    println!();
    println!(
        "Expected shape: error stabilizes once p is large enough to cover the \
         2-D marginal directions; training time grows linearly in p."
    );
}
