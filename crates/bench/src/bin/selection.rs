//! Reproduces the **§5.3 model-selection protocol**: 200 random
//! continuous-attribute queries with the Q1–Q4 template ("the attributes
//! and predicates are randomly generated"), scored only when both the
//! true answer and the estimate are non-empty.
//!
//! The paper reports that on the non-empty queries, *all* M-SWG models
//! achieve lower error than Unif, and IPF also beats Unif.
//!
//! Usage: `cargo run --release -p mosaic-bench --bin selection [--full]`

use mosaic_bench::experiments::{selection, Fig7Config};
use mosaic_bench::flights::FlightsConfig;
use mosaic_core::{OpenBackend, OpenOptions};
use mosaic_swg::SwgConfig;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let config = if full {
        Fig7Config {
            flights: FlightsConfig::paper_scale(),
            open: OpenOptions::default().with_backend(OpenBackend::Swg(
                SwgConfig::paper_flights()
                    .with_projections(256)
                    .with_epochs(40),
            )),
            ..Fig7Config::default()
        }
    } else {
        Fig7Config::default()
    };
    let queries = 200;
    eprintln!(
        "selection: {} random continuous queries over population={}",
        queries, config.flights.population
    );
    let r = selection(&config, queries);
    println!("Section 5.3 parameter-selection protocol ({queries} random queries):");
    println!("scored (non-empty) queries: {}", r.scored);
    println!(
        "mean percent error:  Unif {:.2}  IPF {:.2}  M-SWG {:.2}",
        r.unif_mean, r.ipf_mean, r.mswg_mean
    );
    println!(
        "M-SWG beats Unif on {}/{} queries; IPF beats Unif on {}/{}",
        r.mswg_wins, r.scored, r.ipf_wins, r.scored
    );
    println!();
    println!(
        "Paper claim: on non-empty queries both M-SWG and IPF achieve lower \
         error than Unif."
    );
}
