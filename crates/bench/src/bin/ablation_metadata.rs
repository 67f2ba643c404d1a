//! **Ablation A4** — the two metadata paths of the paper's Fig. 3:
//! reweighting directly to the *query population*'s marginals (bottom
//! dashed line) vs reweighting to the *global population* and treating
//! the query population as a view (left dashed line).
//!
//! The paper: "the accuracy will likely be lower when reweighting to fit
//! global population … than reweighting to fit the query population
//! directly as biases that exist in the query population may not be
//! captured when learning the global population."
//!
//! Usage: `cargo run --release -p mosaic-bench --bin ablation_metadata [--full]`

use mosaic_bench::flights::{self, FlightsConfig};
use mosaic_core::EngineOptions;
use mosaic_stats::{percent_diff, Marginal};

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let config = if full {
        FlightsConfig::paper_scale()
    } else {
        FlightsConfig {
            population: 50_000,
            ..FlightsConfig::default()
        }
    };
    let data = flights::generate(&config);
    let engine = flights::engine(&data, data.sample.clone(), EngineOptions::default());
    let db = engine.session();
    db.execute("CREATE POPULATION LongFlights AS (SELECT * FROM Flights WHERE distance > 1000)")
        .expect("ddl");
    let truth = |sql: &str| db.query(sql).expect("truth query");
    let truth_avg = truth("SELECT AVG(elapsed_time) FROM FlightsTruth WHERE distance > 1000")
        .value(0, 0)
        .as_f64()
        .expect("avg");

    let q = "SELECT SEMI-OPEN AVG(elapsed_time) FROM LongFlights";
    println!("Ablation A4: metadata path (Fig. 3), query: {q}");
    println!("ground truth AVG(elapsed_time | distance>1000): {truth_avg:.2}");
    let run = |name: &str| {
        let result = db.execute(q).expect("query");
        let est = result.table.value(0, 0).as_f64().expect("avg");
        println!(
            "{name:<34} estimate {est:>9.2}  percent diff {:>6.2}",
            percent_diff(est, truth_avg)
        );
        for note in &result.notes {
            println!("    note: {note}");
        }
    };
    // Path 1: LongFlights has no metadata of its own, so SEMI-OPEN
    // reweights to the GP's marginals (left dashed line of Fig. 3).
    run("GP metadata (left path)");
    // Path 2: LongFlights' own marginals win over the GP's (bottom
    // dashed line).
    let long_pop = truth("SELECT * FROM FlightsTruth WHERE distance > 1000");
    for (i, (a, b)) in flights::MARGINAL_PAIRS.iter().enumerate() {
        let m = Marginal::from_table(&long_pop, &[a, b], None, &data.binners).expect("marginal");
        engine
            .add_metadata(&format!("LongFlights_M{i}"), "LongFlights", m)
            .expect("metadata");
    }
    run("query-pop metadata (bottom path)");
    println!();
    println!(
        "Expected shape: the query-population path is at least as accurate as \
         the GP path (paper §4.1)."
    );
}
