//! Seeded input generators. The benchmark owns its data: everything the
//! engine receives — CSV text, sample tables, marginals, request
//! streams, INSERT batches — is a pure function of `--seed`, so equal
//! seeds give byte-identical inputs and later edits to the paper
//! harnesses in `crates/bench` cannot shift the baseline.

use std::collections::HashMap;
use std::fmt::Write as _;

use mosaic_stats::{Binner, Marginal};
use mosaic_storage::{DataType, Field, Schema, Table, TableBuilder, Value};

/// splitmix64, as in `loadgen`: tiny, seedable, and identical on every
/// platform.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// An independent stream for a named purpose, so adding a consumer
    /// never shifts the draws of another.
    pub fn stream(seed: u64, purpose: &str) -> SplitMix {
        let mut h = seed ^ 0xCBF2_9CE4_8422_2325;
        for b in purpose.bytes() {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
        let mut s = SplitMix(h);
        s.next_u64();
        s
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize
    }

    /// Standard normal (Box–Muller).
    pub fn normal(&mut self) -> f64 {
        let u = self.unit().max(f64::MIN_POSITIVE);
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// Cumulative zipf distribution over `n` ranks (rank k drawn ∝
/// 1/(k+1)^s) — the hot-template skew of a dashboard workload.
pub fn zipf_cdf(n: usize, s: f64) -> Vec<f64> {
    let weights: Vec<f64> = (0..n).map(|k| 1.0 / ((k + 1) as f64).powf(s)).collect();
    let total: f64 = weights.iter().sum();
    let mut acc = 0.0;
    weights
        .iter()
        .map(|w| {
            acc += w / total;
            acc
        })
        .collect()
}

pub fn draw(cdf: &[f64], rng: &mut SplitMix) -> usize {
    let u = rng.unit();
    cdf.iter().position(|&c| u <= c).unwrap_or(cdf.len() - 1)
}

// ------------------------------------------------------------ fact / dim

/// Distinct values of the fact table's group column `k` and rows of the
/// dimension table `d`.
pub const FACT_GROUPS: usize = 23;

fn fact_row(rng: &mut SplitMix) -> (usize, Option<i64>, Option<f64>) {
    let k = rng.below(FACT_GROUPS);
    // NULL rates as in loadgen: 1/11 of `i`, 1/13 of `f`.
    let i = (rng.below(11) != 0).then(|| rng.below(1000) as i64 - 300);
    let f = (rng.below(13) != 0).then(|| ((rng.unit() * 2.0e6).round() - 4.0e5) / 4.0);
    (k, i, f)
}

/// The fact table `t(k TEXT, i INT, f FLOAT)` as CSV text with a header
/// (empty field = NULL): `k` takes 23 values, `i` ~1000 values in
/// `-300..700`, `f` quarter-steps in `-1e5..4e5`.
pub fn fact_csv(rows: usize, seed: u64) -> String {
    let mut rng = SplitMix::stream(seed, "fact");
    let mut out = String::with_capacity(rows * 20 + 8);
    out.push_str("k,i,f\n");
    for _ in 0..rows {
        let (k, i, f) = fact_row(&mut rng);
        let _ = write!(out, "g{k},");
        if let Some(i) = i {
            let _ = write!(out, "{i}");
        }
        out.push(',');
        if let Some(f) = f {
            let _ = write!(out, "{f:.2}");
        }
        out.push('\n');
    }
    out
}

/// The 23-row dimension table `d(k TEXT, grp TEXT, boost INT)` as CSV.
pub fn dim_csv() -> String {
    let mut out = String::from("k,grp,boost\n");
    for j in 0..FACT_GROUPS {
        let _ = writeln!(out, "g{j},h{},{}", j % 5, j % 7);
    }
    out
}

/// One `INSERT INTO t VALUES …` statement of `rows` seeded fact rows —
/// the write unit of `serve_rw`.
pub fn insert_sql(rows: usize, rng: &mut SplitMix) -> String {
    let mut sql = String::from("INSERT INTO t VALUES ");
    for r in 0..rows {
        let (k, i, f) = fact_row(rng);
        if r > 0 {
            sql.push_str(", ");
        }
        let _ = write!(sql, "('g{k}', ");
        match i {
            Some(i) => {
                let _ = write!(sql, "{i}, ");
            }
            None => sql.push_str("NULL, "),
        }
        match f {
            Some(f) => {
                let _ = write!(sql, "{f:.2})");
            }
            None => sql.push_str("NULL)"),
        }
    }
    sql
}

// --------------------------------------------------------------- flights

const CARRIERS: [&str; 14] = [
    "WN", "AA", "DL", "UA", "OO", "EV", "B6", "AS", "NK", "HA", "US", "F9", "VX", "MQ",
];

const CARRIER_PROBS: [f64; 14] = [
    0.21, 0.18, 0.15, 0.11, 0.09, 0.07, 0.05, 0.04, 0.025, 0.02, 0.012, 0.008, 0.015, 0.02,
];

/// The flights-shaped workload of the paper's §5.3 (shape lifted from
/// `crates/bench/src/flights.rs`, re-implemented here on the benchmark's
/// own generator): the full population (ground truth for the error
/// ceilings), a biased sample, and the four 2-D marginals with their
/// binners.
pub struct Flights {
    pub population: Table,
    pub sample: Table,
    pub marginals: Vec<Marginal>,
    pub binners: HashMap<String, Binner>,
}

fn flights_schema() -> std::sync::Arc<Schema> {
    Schema::new(vec![
        Field::new("carrier", DataType::Str),
        Field::new("taxi_out", DataType::Int),
        Field::new("taxi_in", DataType::Int),
        Field::new("elapsed_time", DataType::Int),
        Field::new("distance", DataType::Int),
    ])
}

fn flight_row(rng: &mut SplitMix) -> (usize, i64, i64, i64, i64) {
    let mut u = rng.unit();
    let mut c = CARRIER_PROBS.len() - 1;
    for (i, &p) in CARRIER_PROBS.iter().enumerate() {
        if u < p {
            c = i;
            break;
        }
        u -= p;
    }
    let long_haul_share = match c {
        0 => 0.25,
        1..=3 => 0.45,
        9 => 0.70,
        11 => 0.35,
        _ => 0.30,
    };
    let distance = if rng.unit() < long_haul_share {
        (800.0 + 2000.0 * rng.unit().powf(1.3)).round()
    } else {
        (100.0 + 800.0 * rng.unit().powf(1.6)).round()
    };
    let taxi_base = match c {
        1..=3 => 18.0,
        0 => 13.0,
        _ => 15.0,
    };
    let taxi_out = (taxi_base + 4.0 * rng.normal()).clamp(3.0, 60.0).round();
    let taxi_in = (6.0 + 0.3 * taxi_base + 2.5 * rng.normal())
        .clamp(2.0, 40.0)
        .round();
    let air = distance / 7.3 + 18.0;
    let elapsed = (air + taxi_out + taxi_in + 6.0 * rng.normal())
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

/// `population` rows, a `sample_fraction` sample in which `0.95` of the
/// tuples have `elapsed_time > 200` (tilted further toward long
/// distances and slow taxi-outs, as the paper's harness does), and the
/// (C,E) (O,E) (I,E) (D,E) marginals at `bins` bins per numeric attribute.
pub fn flights(population: usize, sample_fraction: f64, bins: usize, seed: u64) -> Flights {
    let mut rng = SplitMix::stream(seed, "flights");
    let mut rows = Vec::with_capacity(population);
    let mut b = TableBuilder::with_capacity(flights_schema(), population);
    for _ in 0..population {
        let r = flight_row(&mut rng);
        b.push_row(vec![
            Value::Str(CARRIERS[r.0].to_string()),
            r.1.into(),
            r.2.into(),
            r.3.into(),
            r.4.into(),
        ])
        .expect("row fits the flights schema");
        rows.push(r);
    }
    let population_table = b.finish();

    let sample_size = (population as f64 * sample_fraction).round() as usize;
    let n_long = (sample_size as f64 * 0.95).round() as usize;
    let mut rng = SplitMix::stream(seed, "flights-sample");
    // Weighted sampling without replacement (exponential race): key =
    // Exp(1)/w, keep the k smallest of each stratum.
    let mut pick = |long: bool, k: usize, out: &mut Vec<usize>| {
        let mut keyed: Vec<(f64, usize)> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| (r.3 > 200) == long)
            .map(|(i, r)| {
                let w = (0.0012 * r.4 as f64 + 0.06 * r.1 as f64).exp();
                (-rng.unit().max(f64::MIN_POSITIVE).ln() / w, i)
            })
            .collect();
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        out.extend(keyed.iter().take(k).map(|&(_, i)| i));
    };
    let mut chosen = Vec::with_capacity(sample_size);
    pick(true, n_long, &mut chosen);
    pick(false, sample_size.saturating_sub(n_long), &mut chosen);
    let sample = population_table.take(&chosen);

    let mut binners = HashMap::new();
    for attr in ["taxi_out", "taxi_in", "elapsed_time", "distance"] {
        let (lo, hi) = population_table
            .column_by_name(attr)
            .expect("flights attribute")
            .numeric_range()
            .expect("non-empty population");
        binners.insert(attr.to_string(), Binner::equal_width(lo, hi + 1.0, bins));
    }
    let marginals = ["carrier", "taxi_out", "taxi_in", "distance"]
        .iter()
        .map(|a| {
            Marginal::from_table(&population_table, &[a, "elapsed_time"], None, &binners)
                .expect("marginal attributes exist")
        })
        .collect();
    Flights {
        population: population_table,
        sample,
        marginals,
        binners,
    }
}

/// A Table-2 query shape: the SQL body after `SELECT <visibility>` with
/// the numeric cut-off as `?`, and the cut-offs the request stream draws
/// from (a small set, so every answer can be checked against the first
/// time its (shape, cut-off) pair ran).
pub struct Shape {
    pub body: &'static str,
    pub cutoffs: [i64; 4],
}

/// Q1–Q8 of the paper's Table 2, in order.
pub const SHAPES: [Shape; 8] = [
    Shape {
        body: "AVG(distance) FROM Flights WHERE elapsed_time > ?",
        cutoffs: [180, 200, 220, 240],
    },
    Shape {
        body: "AVG(taxi_in) FROM Flights WHERE elapsed_time < ?",
        cutoffs: [180, 200, 220, 240],
    },
    Shape {
        body: "AVG(elapsed_time) FROM Flights WHERE distance > ?",
        cutoffs: [900, 1000, 1100, 1200],
    },
    Shape {
        body: "AVG(taxi_out) FROM Flights WHERE distance < ?",
        cutoffs: [900, 1000, 1100, 1200],
    },
    Shape {
        body: "carrier, AVG(distance) FROM Flights WHERE elapsed_time > ? \
               AND carrier IN ('WN','AA') GROUP BY carrier",
        cutoffs: [180, 200, 220, 240],
    },
    Shape {
        body: "carrier, AVG(taxi_in) FROM Flights WHERE elapsed_time < ? \
               AND carrier IN ('WN','AA') GROUP BY carrier",
        cutoffs: [180, 200, 220, 240],
    },
    Shape {
        body: "carrier, AVG(elapsed_time) FROM Flights WHERE distance > ? \
               AND carrier IN ('WN','AA') GROUP BY carrier",
        cutoffs: [900, 1000, 1100, 1200],
    },
    Shape {
        body: "carrier, AVG(taxi_out) FROM Flights WHERE distance < ? \
               AND carrier IN ('US','F9') GROUP BY carrier",
        cutoffs: [900, 1000, 1100, 1200],
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_reproduce_bytes_and_different_seeds_differ() {
        assert_eq!(fact_csv(500, 7), fact_csv(500, 7));
        assert_ne!(fact_csv(500, 7), fact_csv(500, 8));
        let batch = |seed| insert_sql(64, &mut SplitMix::stream(seed, "writes"));
        assert_eq!(batch(3), batch(3));
        assert_ne!(batch(3), batch(4));
        let requests = |seed| {
            let cdf = zipf_cdf(16, 1.1);
            let mut rng = SplitMix::stream(seed, "conn0");
            (0..200).map(|_| draw(&cdf, &mut rng)).collect::<Vec<_>>()
        };
        assert_eq!(requests(1), requests(1));
        assert_ne!(requests(1), requests(2));
        let csv = |seed| {
            mosaic_storage::csv::write_csv_string(&flights(2000, 0.05, 8, seed).sample).unwrap()
        };
        assert_eq!(csv(5), csv(5));
        assert_ne!(csv(5), csv(6));
    }

    #[test]
    fn fact_csv_parses_to_the_declared_shape() {
        let t = mosaic_storage::csv::read_csv_str(&fact_csv(4000, 1)).unwrap();
        assert_eq!(t.num_rows(), 4000);
        let types: Vec<DataType> = t.schema().fields().iter().map(|f| f.data_type).collect();
        assert_eq!(types, [DataType::Str, DataType::Int, DataType::Float]);
        let nulls = t.column(1).null_count() as f64 / 4000.0;
        assert!((nulls - 1.0 / 11.0).abs() < 0.03, "i NULL rate {nulls}");
    }

    #[test]
    fn flights_sample_has_the_declared_bias() {
        let f = flights(20_000, 0.05, 16, 9);
        assert_eq!(f.sample.num_rows(), 1000);
        let e = f.sample.column_by_name("elapsed_time").unwrap();
        let long = (0..1000).filter(|&r| e.f64_at(r).unwrap() > 200.0).count();
        assert!((long as f64 / 1000.0 - 0.95).abs() < 0.02, "long {long}");
        assert_eq!(f.marginals.len(), 4);
        for m in &f.marginals {
            assert!((m.total() - 20_000.0).abs() < 1e-6);
        }
    }

    #[test]
    fn zipf_cdf_is_a_distribution() {
        let cdf = zipf_cdf(16, 1.1);
        assert!((cdf[15] - 1.0).abs() < 1e-12);
        assert!(cdf.windows(2).all(|w| w[0] < w[1]));
        assert!(cdf[0] > 0.25, "rank 1 is hot: {}", cdf[0]);
    }
}
