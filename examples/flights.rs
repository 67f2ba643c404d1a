//! The paper's flights scenario (§5.3) through the engine API: declare
//! the synthetic IDEBench-style workload in an engine
//! (`mosaic_bench::flights::engine`: population, sample, marginals,
//! binners, and the population as a table for the ground truth) and
//! compare the three visibility levels on a Table 2 query.
//!
//! Run with: `cargo run --release -p mosaic-examples --bin flights`

use mosaic_bench::flights::{self, FlightsConfig};
use mosaic_core::{EngineOptions, OpenBackend, OpenOptions};
use mosaic_swg::SwgConfig;

fn main() {
    let data = flights::generate(&FlightsConfig {
        population: 50_000,
        marginal_bins: 16,
        ..FlightsConfig::default()
    });
    println!(
        "population: {} rows | biased sample: {} rows (95% long flights)",
        data.population.num_rows(),
        data.sample.num_rows()
    );

    let swg = SwgConfig::paper_flights()
        .with_projections(64)
        .with_epochs(60);
    let open = OpenOptions::default()
        .with_backend(OpenBackend::Swg(swg))
        .with_num_generated(5);
    let engine = flights::engine(
        &data,
        data.sample.clone(),
        EngineOptions::default().with_open(open),
    );
    let db = engine.session();

    // Ground truth from the population table (normally unknowable).
    let truth = db
        .query("SELECT AVG(elapsed_time) FROM FlightsTruth WHERE distance > 1000")
        .expect("truth query");
    println!("\nQuery 3 of Table 2: SELECT AVG(elapsed_time) FROM Flights WHERE distance > 1000");
    println!("ground truth: {}", truth.value(0, 0));

    for vis in ["CLOSED", "SEMI-OPEN", "OPEN"] {
        let result = db
            .execute(&format!(
                "SELECT {vis} AVG(elapsed_time) FROM Flights WHERE distance > 1000"
            ))
            .expect("query");
        println!("\n{vis}:\n{}", result.table);
        for note in &result.notes {
            println!("  note: {note}");
        }
    }
    println!(
        "\nExpected shape (paper Fig. 7, Q3): CLOSED overestimates (the sample \
         over-represents long flights); SEMI-OPEN's IPF reweighting lands within \
         a percent of the truth using the (distance, elapsed_time) marginal. \
         OPEN answers from *generated* tuples whose joint is only as fine as the \
         binned marginals, so it corrects the bias direction but with more \
         variance — the paper's same observation for M-SWG on Q1/Q3 \
         (run `cargo run -p mosaic-bench --bin fig7` for the full comparison)."
    );
}
