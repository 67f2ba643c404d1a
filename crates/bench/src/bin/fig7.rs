//! Reproduces **Fig. 7** (and Table 2): average percent difference of
//! uniform reweighting vs IPF vs M-SWG on the eight aggregate queries over
//! the biased flights sample — continuous queries 1–4 (left plot) and
//! categorical GROUP BY queries 5–8 (right plot).
//!
//! Usage: `cargo run --release -p mosaic-bench --bin fig7 [--full]`

use mosaic_bench::experiments::{fig7, Fig7Config};
use mosaic_bench::flights::{table2_queries, FlightsConfig};
use mosaic_core::{OpenBackend, OpenOptions};
use mosaic_swg::SwgConfig;

fn fmt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:>8.2}"),
        None => format!("{:>8}", "empty"),
    }
}

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
    if let OpenBackend::Swg(swg) = &config.open.backend {
        eprintln!(
            "fig7: population={} projections={} epochs={} (use --full for paper scale)",
            config.flights.population, swg.projections, swg.epochs
        );
    }
    eprintln!("Table 2 queries:");
    for (id, sql) in table2_queries() {
        eprintln!("  {id}: {sql}");
    }
    let (rows, fit) = fig7(&config);
    eprintln!(
        "first OPEN statement (fits the M-SWG): {:.1} s",
        fit.as_secs_f64()
    );
    println!("Figure 7: average percent difference per query");
    println!("{:<4} {:>8} {:>8} {:>8}", "Id", "Unif", "IPF", "M-SWG");
    println!("-- continuous queries (left plot) --");
    for r in rows.iter().take(4) {
        println!("{:<4} {} {} {}", r.id, fmt(r.unif), fmt(r.ipf), fmt(r.mswg));
    }
    println!("-- categorical GROUP BY queries (right plot) --");
    for r in rows.iter().skip(4) {
        println!("{:<4} {} {} {}", r.id, fmt(r.unif), fmt(r.ipf), fmt(r.mswg));
    }
    println!();
    println!("Paper claims to check against:");
    println!(" * Q1 (predicate matches the sample bias): Unif/IPF near zero error.");
    println!(" * Q3: Unif/IPF overestimate (long-flight bias inflates elapsed_time).");
    println!(" * Averaged over Q1–Q4, M-SWG achieves the lowest error.");
    println!(" * Q8 (rare carriers US/F9): M-SWG struggles to generate rare values.");
    let avg = |f: fn(&mosaic_bench::experiments::Fig7Row) -> Option<f64>| {
        let v: Vec<f64> = rows.iter().take(4).filter_map(f).collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    println!();
    println!(
        "Mean error over Q1-Q4:  Unif {:.2}  IPF {:.2}  M-SWG {:.2}",
        avg(|r| r.unif),
        avg(|r| r.ipf),
        avg(|r| r.mswg)
    );
}
