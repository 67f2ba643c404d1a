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

use std::collections::HashMap;
use std::sync::Arc;

use mosaic_bench::flights::{self, FlightsConfig};
use mosaic_core::MosaicEngine;
use mosaic_stats::{percent_diff, Marginal};

fn setup_db(data: &flights::FlightsData) -> Arc<MosaicEngine> {
    let db = Arc::new(MosaicEngine::new());
    db.session().execute(
        "CREATE GLOBAL POPULATION Flights (carrier TEXT, taxi_out INT, taxi_in INT, elapsed_time INT, distance INT);
         CREATE POPULATION LongFlights AS (SELECT * FROM Flights WHERE distance > 1000);
         CREATE SAMPLE FlightSample AS (SELECT * FROM Flights);",
    )
    .expect("ddl");
    for (attr, binner) in &data.binners {
        db.register_binner(attr, binner.clone());
    }
    db.ingest_sample("FlightSample", data.sample.clone())
        .expect("ingest");
    db
}

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

    // Ground truth over the derived population.
    let long_rows: Vec<usize> = {
        let d = data
            .population
            .column_by_name("distance")
            .expect("distance");
        (0..data.population.num_rows())
            .filter(|&r| d.f64_at(r).unwrap_or(0.0) > 1000.0)
            .collect()
    };
    let long_pop = data.population.take(&long_rows);
    let truth_avg = {
        let e = long_pop.column_by_name("elapsed_time").expect("elapsed");
        (0..long_pop.num_rows())
            .filter_map(|r| e.f64_at(r))
            .sum::<f64>()
            / long_pop.num_rows() as f64
    };

    // Path 1: metadata on the GP only (left dashed line of Fig. 3).
    let db_gp = setup_db(&data);
    for (i, m) in data.marginals.iter().enumerate() {
        db_gp
            .add_metadata(&format!("Flights_M{i}"), "Flights", m.clone())
            .expect("metadata");
    }
    // Path 2: metadata on the query population only (bottom dashed line).
    let db_qp = setup_db(&data);
    let pairs = [
        ("carrier", "elapsed_time"),
        ("taxi_out", "elapsed_time"),
        ("taxi_in", "elapsed_time"),
        ("distance", "elapsed_time"),
    ];
    for (i, (a, b)) in pairs.iter().enumerate() {
        let m = Marginal::from_table(&long_pop, &[a, b], None, &data.binners).expect("marginal");
        db_qp
            .add_metadata(&format!("LongFlights_M{i}"), "LongFlights", m)
            .expect("metadata");
    }
    let _unused: HashMap<(), ()> = HashMap::new();

    let q = "SELECT SEMI-OPEN AVG(elapsed_time) FROM LongFlights";
    println!("Ablation A4: metadata path (Fig. 3), query: {q}");
    println!("ground truth AVG(elapsed_time | distance>1000): {truth_avg:.2}");
    for (name, db) in [
        ("GP metadata (left path)", &db_gp),
        ("query-pop metadata (bottom path)", &db_qp),
    ] {
        let result = db.session().execute(q).expect("query");
        let est = result.table.value(0, 0).as_f64().expect("avg");
        println!(
            "{name:<34} estimate {est:>9.2}  percent diff {:>6.2}",
            percent_diff(est, truth_avg)
        );
        for note in &result.notes {
            println!("    note: {note}");
        }
    }
    println!();
    println!(
        "Expected shape: the query-population path is at least as accurate as \
         the GP path (paper §4.1)."
    );
}
