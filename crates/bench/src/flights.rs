//! Synthetic IDEBench-style flights workload (paper §5.3, Table 1).
//!
//! The paper evaluates on US domestic flights from IDEBench (426,411 rows
//! after filtering to 2015–16), with the five attributes of Table 1 and a
//! biased 5 % sample in which 95 % of tuples have `elapsed_time > 200`
//! minutes. The real CSV is not available offline, so this module
//! generates a population with the same structure:
//!
//! * `carrier` — 14 carriers with a skewed distribution; `WN`/`AA` are the
//!   popular carriers of queries 5–7, `US`/`F9` the rare ones of query 8,
//! * `distance` — whole-number miles, carrier-dependent mixture of short
//!   hops and long hauls,
//! * `elapsed_time` — `distance / cruise speed + taxi + noise` (whole
//!   minutes), so distance and elapsed time are strongly correlated (the
//!   correlation behind the paper's query-3 observation),
//! * `taxi_out` / `taxi_in` — whole minutes, mildly carrier-dependent.
//!
//! The marginals are the paper's four attribute pairs (C,E), (O,E), (I,E),
//! (D,E), built with explicit binners (the paper uses raw whole-number
//! projections; we bin to keep cell counts laptop-friendly — see
//! DESIGN.md).

use std::collections::HashMap;
use std::sync::Arc;

use mosaic_core::{EngineOptions, MosaicEngine};
use mosaic_stats::{standard_normal, Binner, Marginal};
use mosaic_storage::{DataType, Field, Schema, Table, TableBuilder, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The 14 carriers; indices 0/1 are the popular `WN`/`AA`, 10/11 the rare
/// `US`/`F9` of query 8.
pub const CARRIERS: [&str; 14] = [
    "WN", "AA", "DL", "UA", "OO", "EV", "B6", "AS", "NK", "HA", "US", "F9", "VX", "MQ",
];

/// Carrier probabilities (sum to 1); skewed like the real data, with `US`
/// and `F9` rare.
pub const CARRIER_PROBS: [f64; 14] = [
    0.21, 0.18, 0.15, 0.11, 0.09, 0.07, 0.05, 0.04, 0.025, 0.02, 0.012, 0.008, 0.015, 0.02,
];

/// Flights workload parameters.
#[derive(Debug, Clone)]
pub struct FlightsConfig {
    /// Population rows (paper: 426,411).
    pub population: usize,
    /// Sample fraction (paper: 0.05).
    pub sample_fraction: f64,
    /// Fraction of sampled tuples with `elapsed_time > 200` (paper: 0.95).
    pub long_flight_bias: f64,
    /// Bins per numeric attribute for the 2-D marginals.
    pub marginal_bins: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FlightsConfig {
    fn default() -> Self {
        FlightsConfig {
            population: 100_000,
            sample_fraction: 0.05,
            long_flight_bias: 0.95,
            marginal_bins: 32,
            seed: 7,
        }
    }
}

impl FlightsConfig {
    /// Paper-scale population (426,411 rows).
    pub fn paper_scale() -> FlightsConfig {
        FlightsConfig {
            population: 426_411,
            ..FlightsConfig::default()
        }
    }
}

/// The generated flights workload.
pub struct FlightsData {
    /// Ground-truth population.
    pub population: Table,
    /// Biased 5 % sample (95 % long flights).
    pub sample: Table,
    /// The paper's four marginal pairs (C,E) (O,E) (I,E) (D,E), binned.
    pub marginals: Vec<Marginal>,
    /// Binners for the numeric attributes (shared by marginals and IPF).
    pub binners: HashMap<String, Binner>,
}

/// The attribute pairs of the paper's four marginals: (C,E) (O,E) (I,E)
/// (D,E).
pub const MARGINAL_PAIRS: [(&str, &str); 4] = [
    ("carrier", "elapsed_time"),
    ("taxi_out", "elapsed_time"),
    ("taxi_in", "elapsed_time"),
    ("distance", "elapsed_time"),
];

/// The global population [`engine`] declares; its sample carries no
/// mechanism, so SEMI-OPEN over it reweights with IPF.
pub const GP: &str = "Flights";
/// A population derived from [`GP`] whose sample declares a uniform
/// mechanism: SEMI-OPEN over it is the paper's Unif baseline, the
/// inverse-probability weight `N / n` of an assumed uniform sample.
pub const UNIF: &str = "FlightsUnif";
/// The population as a plain table: the ground truth.
pub const TRUTH: &str = "FlightsTruth";

/// A fresh engine holding the flights workload: the global population
/// [`GP`] with sample `FlightSample` (`sample` ingested), the four
/// marginals and the binners; the derived population [`UNIF`] whose
/// sample holds the same rows under `USING MECHANISM UNIFORM PERCENT
/// 100·n/N`; and the population as the table [`TRUTH`].
pub fn engine(data: &FlightsData, sample: Table, options: EngineOptions) -> Arc<MosaicEngine> {
    let engine = Arc::new(MosaicEngine::with_options(options));
    let percent = 100.0 * sample.num_rows() as f64 / data.population.num_rows() as f64;
    engine
        .session()
        .execute(&format!(
            "CREATE GLOBAL POPULATION {GP} (carrier TEXT, taxi_out INT, taxi_in INT, elapsed_time INT, distance INT);
             CREATE SAMPLE FlightSample AS (SELECT * FROM {GP});
             CREATE POPULATION {UNIF} AS (SELECT * FROM {GP});
             CREATE SAMPLE FlightUnifSample AS (SELECT * FROM {UNIF} USING MECHANISM UNIFORM PERCENT {percent});"
        ))
        .expect("flights DDL");
    for (i, m) in data.marginals.iter().enumerate() {
        engine
            .add_metadata(&format!("{GP}_M{i}"), GP, m.clone())
            .expect("metadata");
    }
    for (attr, binner) in &data.binners {
        engine.register_binner(attr, binner.clone());
    }
    engine
        .ingest_sample("FlightUnifSample", sample.clone())
        .expect("ingest");
    engine
        .ingest_sample("FlightSample", sample)
        .expect("ingest");
    engine
        .register_table(TRUTH, data.population.clone())
        .expect("population table");
    engine
}

/// Flights schema: Table 1's attributes.
pub fn flights_schema() -> std::sync::Arc<Schema> {
    Schema::new(vec![
        Field::new("carrier", DataType::Str),
        Field::new("taxi_out", DataType::Int),
        Field::new("taxi_in", DataType::Int),
        Field::new("elapsed_time", DataType::Int),
        Field::new("distance", DataType::Int),
    ])
}

fn sample_carrier<R: Rng + ?Sized>(rng: &mut R) -> usize {
    let mut u: f64 = rng.random();
    for (i, &p) in CARRIER_PROBS.iter().enumerate() {
        if u < p {
            return i;
        }
        u -= p;
    }
    CARRIER_PROBS.len() - 1
}

/// Generate one flight row: `(carrier_idx, taxi_out, taxi_in, elapsed,
/// distance)`.
fn generate_row<R: Rng + ?Sized>(rng: &mut R) -> (usize, i64, i64, i64, i64) {
    let c = sample_carrier(rng);
    // Carrier flavor: low-cost short-haul carriers fly shorter routes.
    let long_haul_share = match c {
        0 => 0.25,     // WN: mostly short hops
        1..=3 => 0.45, // AA/DL/UA: mixed networks
        9 => 0.70,     // HA: island long hauls
        10 => 0.30,    // US
        11 => 0.35,    // F9
        _ => 0.30,
    };
    let distance = if rng.random::<f64>() < long_haul_share {
        // Long haul: 800–2,800 miles.
        (800.0 + 2000.0 * rng.random::<f64>().powf(1.3)).round()
    } else {
        // Short hop: 100–900 miles.
        (100.0 + 800.0 * rng.random::<f64>().powf(1.6)).round()
    };
    // Hub congestion: big networks taxi longer.
    let taxi_base = match c {
        1..=3 => 18.0,
        0 => 13.0,
        _ => 15.0,
    };
    let taxi_out = (taxi_base + 4.0 * standard_normal(rng))
        .clamp(3.0, 60.0)
        .round();
    let taxi_in = (6.0 + 0.3 * taxi_base + 2.5 * standard_normal(rng))
        .clamp(2.0, 40.0)
        .round();
    // elapsed = air time + taxi + noise; cruise ~7.3 miles/min + 18 min
    // overhead for climb/descent.
    let air = distance / 7.3 + 18.0;
    let elapsed = (air + taxi_out + taxi_in + 6.0 * standard_normal(rng))
        .max(20.0)
        .round();
    (
        c,
        taxi_out as i64,
        taxi_in as i64,
        elapsed as i64,
        distance as i64,
    )
}

/// Generate the population, the biased sample, and the paper's marginals.
pub fn generate(config: &FlightsConfig) -> FlightsData {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let schema = flights_schema();
    let mut b = TableBuilder::with_capacity(schema.clone(), config.population);
    for _ in 0..config.population {
        let (c, o, ti, e, d) = generate_row(&mut rng);
        b.push_row(vec![
            Value::Str(CARRIERS[c].to_string()),
            o.into(),
            ti.into(),
            e.into(),
            d.into(),
        ])
        .expect("schema");
    }
    from_population(b.finish(), config)
}

/// Build the biased sample and marginals from an *existing* population
/// table — e.g. the real IDEBench flights CSV loaded via
/// `mosaic_storage::csv::read_csv_path` (it must carry the Table 1
/// attributes: carrier, taxi_out, taxi_in, elapsed_time, distance).
pub fn from_population(population: Table, config: &FlightsConfig) -> FlightsData {
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
    let elapsed = population
        .column_by_name("elapsed_time")
        .expect("elapsed_time column");
    let mut long_rows: Vec<usize> = Vec::new();
    let mut short_rows: Vec<usize> = Vec::new();
    for i in 0..population.num_rows() {
        if elapsed.f64_at(i).unwrap_or(0.0) > 200.0 {
            long_rows.push(i);
        } else {
            short_rows.push(i);
        }
    }

    // Biased sample: `long_flight_bias` of the rows come from flights with
    // elapsed_time > 200 (paper: "a biased 5 percent sample … with a 95
    // percent bias"). Within each stratum the selection is additionally
    // tilted toward long distances and congested airports — real-world
    // selection bias is never a clean one-attribute cut, and this tilt is
    // exactly what the published (D,E)/(O,E) marginals let IPF and the
    // M-SWG correct while Unif cannot.
    let sample_size = ((population.num_rows() as f64) * config.sample_fraction).round() as usize;
    let n_long = ((sample_size as f64) * config.long_flight_bias).round() as usize;
    let n_short = sample_size.saturating_sub(n_long);
    let dist_col = population.column_by_name("distance").expect("distance");
    let taxi_col = population.column_by_name("taxi_out").expect("taxi_out");
    let mut chosen = Vec::with_capacity(sample_size);
    let pick = |pool: &[usize], k: usize, rng: &mut StdRng, out: &mut Vec<usize>| {
        // Weighted sampling without replacement (Efraimidis–Spirakis
        // exponential race): key = Exp(1)/w, keep the k smallest.
        let mut keyed: Vec<(f64, usize)> = pool
            .iter()
            .map(|&i| {
                let d = dist_col.f64_at(i).unwrap_or(0.0);
                let o = taxi_col.f64_at(i).unwrap_or(0.0);
                let w = (0.0012 * d + 0.06 * o).exp();
                let u: f64 = rng.random::<f64>().max(f64::MIN_POSITIVE);
                (-u.ln() / w, i)
            })
            .collect();
        let k = k.min(keyed.len());
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        out.extend(keyed[..k].iter().map(|&(_, i)| i));
    };
    pick(&long_rows, n_long, &mut rng, &mut chosen);
    pick(&short_rows, n_short, &mut rng, &mut chosen);
    let sample = population.take(&chosen);

    // Binners sized to each attribute's population range.
    let mut binners = HashMap::new();
    for attr in ["taxi_out", "taxi_in", "elapsed_time", "distance"] {
        let (lo, hi) = population
            .column_by_name(attr)
            .expect("attr")
            .numeric_range()
            .expect("non-empty");
        binners.insert(
            attr.to_string(),
            Binner::equal_width(lo, hi + 1.0, config.marginal_bins),
        );
    }
    let marginals = MARGINAL_PAIRS
        .iter()
        .map(|(a, b)| Marginal::from_table(&population, &[a, b], None, &binners).expect("marginal"))
        .collect();
    FlightsData {
        population,
        sample,
        marginals,
        binners,
    }
}

/// The eight aggregate queries of Table 2 over [`GP`] (GROUP BY clauses
/// restored; the paper omits them for space).
pub fn table2_queries() -> Vec<(&'static str, String)> {
    vec![
        ("Q1", "SELECT AVG(distance) FROM Flights WHERE elapsed_time > 200".into()),
        ("Q2", "SELECT AVG(taxi_in) FROM Flights WHERE elapsed_time < 200".into()),
        ("Q3", "SELECT AVG(elapsed_time) FROM Flights WHERE distance > 1000".into()),
        ("Q4", "SELECT AVG(taxi_out) FROM Flights WHERE distance < 1000".into()),
        (
            "Q5",
            "SELECT carrier, AVG(distance) FROM Flights WHERE elapsed_time > 200 AND carrier IN ('WN','AA') GROUP BY carrier".into(),
        ),
        (
            "Q6",
            "SELECT carrier, AVG(taxi_in) FROM Flights WHERE elapsed_time < 200 AND carrier IN ('WN','AA') GROUP BY carrier".into(),
        ),
        (
            "Q7",
            "SELECT carrier, AVG(elapsed_time) FROM Flights WHERE distance > 1000 AND carrier IN ('WN','AA') GROUP BY carrier".into(),
        ),
        (
            "Q8",
            "SELECT carrier, AVG(taxi_out) FROM Flights WHERE distance < 1000 AND carrier IN ('US','F9') GROUP BY carrier".into(),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> FlightsData {
        generate(&FlightsConfig {
            population: 20_000,
            ..FlightsConfig::default()
        })
    }

    #[test]
    fn carrier_probs_sum_to_one() {
        let s: f64 = CARRIER_PROBS.iter().sum();
        assert!((s - 1.0).abs() < 1e-9, "sum {s}");
    }

    #[test]
    fn sample_has_the_declared_bias() {
        let d = tiny();
        assert_eq!(d.sample.num_rows(), 1000);
        let e = d.sample.column_by_name("elapsed_time").unwrap();
        let long = (0..d.sample.num_rows())
            .filter(|&r| e.f64_at(r).unwrap() > 200.0)
            .count() as f64;
        let frac = long / d.sample.num_rows() as f64;
        assert!((frac - 0.95).abs() < 0.02, "long fraction {frac}");
    }

    #[test]
    fn population_is_unbiased_by_comparison() {
        let d = tiny();
        let e = d.population.column_by_name("elapsed_time").unwrap();
        let long = (0..d.population.num_rows())
            .filter(|&r| e.f64_at(r).unwrap() > 200.0)
            .count() as f64;
        let frac = long / d.population.num_rows() as f64;
        assert!(
            (0.15..0.75).contains(&frac),
            "population long fraction {frac} suspicious"
        );
    }

    #[test]
    fn distance_elapsed_strongly_correlated() {
        let d = tiny();
        let dist = d.population.column_by_name("distance").unwrap();
        let el = d.population.column_by_name("elapsed_time").unwrap();
        let n = d.population.num_rows() as f64;
        let (mut sx, mut sy, mut sxx, mut syy, mut sxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for r in 0..d.population.num_rows() {
            let x = dist.f64_at(r).unwrap();
            let y = el.f64_at(r).unwrap();
            sx += x;
            sy += y;
            sxx += x * x;
            syy += y * y;
            sxy += x * y;
        }
        let corr = (n * sxy - sx * sy) / ((n * sxx - sx * sx).sqrt() * (n * syy - sy * sy).sqrt());
        assert!(corr > 0.9, "corr {corr}");
    }

    #[test]
    fn rare_carriers_are_rare_but_present() {
        let d = tiny();
        let c = d.population.column_by_name("carrier").unwrap();
        let count = |name: &str| {
            (0..d.population.num_rows())
                .filter(|&r| c.value(r) == Value::Str(name.into()))
                .count() as f64
                / d.population.num_rows() as f64
        };
        assert!(count("WN") > 0.15);
        let us = count("US");
        let f9 = count("F9");
        assert!(us > 0.001 && us < 0.03, "US freq {us}");
        assert!(f9 > 0.001 && f9 < 0.03, "F9 freq {f9}");
    }

    #[test]
    fn marginals_cover_the_four_pairs() {
        let d = tiny();
        assert_eq!(d.marginals.len(), 4);
        assert_eq!(
            d.marginals[0].attrs(),
            &["carrier".to_string(), "elapsed_time".into()]
        );
        for m in &d.marginals {
            assert!((m.total() - 20_000.0).abs() < 1e-6);
        }
    }

    #[test]
    fn queries_parse() {
        for (id, q) in table2_queries() {
            assert!(mosaic_core::parse(&q).is_ok(), "{id} failed to parse");
        }
    }
}
