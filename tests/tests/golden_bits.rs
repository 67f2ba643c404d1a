//! Golden bits for the M-SWG generator stack, from the dense kernels up
//! to an OPEN answer, and for IPF raking, from `Ipf::fit` up to a
//! SEMI-OPEN answer.
//!
//! The generator digests were recorded with the scalar i-k-j `Matrix`
//! kernels that preceded the register-blocked tile kernel. A kernel may
//! change how it walks the matrices but never the order in which it sums
//! the terms of one output element, so these digests must not move: a
//! reordered sum, a fused multiply-add or a changed zero-skip anywhere in
//! `mosaic-nn` moves them. `open_world` and `open_join_determinism`
//! compare a binary only with itself and cannot catch that.
//!
//! The IPF digests were recorded with the two-pass raking loop that
//! summed each cell's total, then scaled every row by `target / total`.
//! The same rule holds: every cell's total is summed in row order, and
//! every row is scaled by the same quotient, so weights and reports stay
//! bit-identical.

use std::collections::HashMap;
use std::sync::Arc;

use mosaic_core::{EngineOptions, MosaicEngine, OpenBackend, OpenOptions, Table, Value};
use mosaic_nn::{Adam, Matrix, Mlp};
use mosaic_stats::{Binner, Ipf, IpfConfig, IpfReport, Marginal};
use mosaic_storage::{DataType, Field, Schema, TableBuilder};
use mosaic_swg::{MSwg, SwgConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// FNV-1a over the little-endian bytes of each word.
fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn matrix_digest(m: &Matrix) -> u64 {
    digest(m.data().iter().map(|x| x.to_bits()))
}

/// Column-major digest of every cell, tagged by variant.
fn table_digest(t: &Table) -> u64 {
    let mut words = Vec::new();
    for c in 0..t.num_columns() {
        for r in 0..t.num_rows() {
            match t.value(r, c) {
                Value::Null => words.push(0),
                Value::Bool(b) => words.extend([1, u64::from(b)]),
                Value::Int(i) => words.extend([2, i as u64]),
                Value::Float(f) => words.extend([3, f.to_bits()]),
                Value::Str(s) => {
                    words.extend([4, s.len() as u64]);
                    words.extend(s.bytes().map(u64::from));
                }
            }
        }
    }
    digest(words)
}

fn eval(mlp: &Mlp, z: &Matrix) -> Matrix {
    let mut x = z.clone();
    mlp.forward_eval(&mut x, &mut Matrix::zeros(0, 0));
    x
}

/// The benchmark's generator shape (18 → 50 → (50 → 50)×4 → 18) on a
/// row count that is not a multiple of any tile height.
#[test]
fn generator_eval_output_is_golden() {
    let mut rng = StdRng::seed_from_u64(24);
    let g = Mlp::generator(18, 50, 5, 18, vec![(0, 6), (9, 4)], &mut rng);
    let z = Matrix::randn(503, 18, 1.0, &mut rng);
    let out = eval(&g, &z);
    assert_eq!((out.rows(), out.cols()), (503, 18));
    assert_eq!(
        format!("{:#018x}", matrix_digest(&out)),
        "0x9de8864c92626395"
    );
}

/// Three Adam steps run every kernel: `matmul` forward, `matmul_tn` for
/// the weight gradients (over ReLU zeros, so the zero-skip is live) and
/// `matmul_nt` for the input gradients; widths 6, 13 and 5 leave
/// remainders in both tile dimensions.
#[test]
fn weights_after_three_adam_steps_are_golden() {
    let mut rng = StdRng::seed_from_u64(25);
    let mut g = Mlp::generator(6, 13, 2, 5, vec![(0, 3)], &mut rng);
    let mut opt = Adam::new(1e-2);
    for _ in 0..3 {
        let z = Matrix::randn(37, 6, 1.0, &mut rng);
        let out = g.forward(&z, true);
        // dL/dout = out for L = 0.5 * ||out||².
        g.backward(&out);
        opt.step(g.params_mut());
    }
    let weights = digest(
        g.params_mut()
            .iter()
            .flat_map(|p| p.value.data().iter().map(|x| x.to_bits()))
            .collect::<Vec<_>>(),
    );
    assert_eq!(format!("{weights:#018x}"), "0x53a0d6b5ddd7eac1");
    // Eval after training: batch norm now runs on non-trivial running
    // statistics.
    let out = eval(&g, &Matrix::randn(29, 6, 1.0, &mut rng));
    assert_eq!(
        format!("{:#018x}", matrix_digest(&out)),
        "0x468cb73c475b61cb"
    );
}

fn flights_sample() -> Table {
    let schema = Schema::new(vec![
        Field::new("carrier", DataType::Str),
        Field::new("distance", DataType::Int),
        Field::new("delay", DataType::Float),
    ]);
    let mut b = TableBuilder::new(schema);
    let carriers = ["AA", "DL", "WN"];
    for i in 0..40i64 {
        b.push_row(vec![
            carriers[(i % 3) as usize].into(),
            (100 + 37 * i).into(),
            (((i * 7) % 11) as f64 - 4.5).into(),
        ])
        .unwrap();
    }
    b.finish()
}

/// A small fixed-seed fit, then a generate whose row count leaves a
/// partial last batch.
#[test]
fn mswg_generate_output_is_golden() {
    let mut carrier = Marginal::new(vec!["carrier".into()]);
    carrier.add(vec!["AA".into()], 10.0);
    carrier.add(vec!["DL".into()], 5.0);
    carrier.add(vec!["UA".into()], 5.0);
    let mut distance = Marginal::new(vec!["distance".into()]);
    distance.add(vec![Value::Int(300)], 2.0);
    distance.add(vec![Value::Int(1200)], 1.0);
    let cfg = SwgConfig::default()
        .with_hidden_dim(12)
        .with_hidden_layers(2)
        .with_latent_dim(Some(3))
        .with_lambda(0.01)
        .with_projections(8)
        .with_batch_size(32)
        .with_epochs(3)
        .with_steps_per_epoch(Some(2))
        .with_coverage_subsample(16)
        .with_seed(9);
    let model = MSwg::fit(&flights_sample(), &[carrier, distance], cfg).unwrap();
    let loss = digest(model.report().loss_history.iter().map(|x| x.to_bits()));
    assert_eq!(format!("{loss:#018x}"), "0x28541c9c5cc953af");
    let generated = model.generate(203, &mut StdRng::seed_from_u64(4));
    assert_eq!(generated.num_rows(), 203);
    assert_eq!(
        format!("{:#018x}", table_digest(&generated)),
        "0x1e7e20cf894b3077"
    );
}

/// A categorical + numeric sample in which every distinct row appears
/// three times, so nearest-neighbour distances tie exactly.
fn duplicated_sample() -> Table {
    let schema = Schema::new(vec![
        Field::new("carrier", DataType::Str),
        Field::new("distance", DataType::Int),
        Field::new("delay", DataType::Float),
    ]);
    let mut b = TableBuilder::new(schema);
    let carriers = ["AA", "DL", "WN", "UA"];
    for i in 0..57i64 {
        let k = i % 19;
        b.push_row(vec![
            carriers[(k % 4) as usize].into(),
            (200 + 61 * (k % 7)).into(),
            (((k * 5) % 9) as f64 * 0.75 - 2.0).into(),
        ])
        .unwrap();
    }
    b.finish()
}

/// Fits whose loss the coverage term shapes: λ = 0.04 and the paper's
/// flights λ = 1e-7, each with a subsample drawn with replacement (16 of
/// 57 rows, so positions repeat) and with every row (`coverage_subsample`
/// ≥ the sample size). The nearest-neighbour search may change how it
/// walks the candidates, but never a distance's summation order or the
/// first-position tie-break, so these digests must not move.
#[test]
fn mswg_coverage_fit_is_golden() {
    let mut carrier = Marginal::new(vec!["carrier".into()]);
    carrier.add(vec!["AA".into()], 6.0);
    carrier.add(vec!["DL".into()], 3.0);
    carrier.add(vec!["UA".into()], 4.0);
    carrier.add(vec!["WN".into()], 2.0);
    let mut carrier_distance = Marginal::new(vec!["carrier".into(), "distance".into()]);
    carrier_distance.add(vec!["AA".into(), Value::Int(300)], 2.0);
    carrier_distance.add(vec!["DL".into(), Value::Int(500)], 1.0);
    carrier_distance.add(vec!["WN".into(), Value::Int(260)], 1.5);
    let sample = duplicated_sample();
    let mut got = Vec::new();
    for lambda in [0.04, 1e-7] {
        for subsample in [16, 64] {
            let cfg = SwgConfig::default()
                .with_hidden_dim(10)
                .with_hidden_layers(2)
                .with_latent_dim(None)
                .with_lambda(lambda)
                .with_projections(6)
                .with_batch_size(24)
                .with_epochs(3)
                .with_steps_per_epoch(Some(2))
                .with_coverage_subsample(subsample)
                .with_seed(31);
            let model =
                MSwg::fit(&sample, &[carrier.clone(), carrier_distance.clone()], cfg).unwrap();
            let loss = digest(model.report().loss_history.iter().map(|x| x.to_bits()));
            let generated = model.generate(77, &mut StdRng::seed_from_u64(8));
            got.push(format!("{loss:#018x} {:#018x}", table_digest(&generated)));
        }
    }
    assert_eq!(
        got,
        [
            "0x0066ba7a20ac897b 0x8858b65303acef3a",
            "0xf6e7aaba810be484 0xd8166cee45a77481",
            "0x5be3180c774ece0a 0x61966a1bbd371dd8",
            "0xb22bbbb719d792ad 0x6231d365f7ac41d5"
        ]
    );
}

/// An OPEN answer through the engine: fit, parallel replicates, combine.
#[test]
fn open_answer_is_golden() {
    let swg = SwgConfig::default()
        .with_hidden_dim(10)
        .with_hidden_layers(2)
        .with_latent_dim(Some(4))
        .with_lambda(0.0)
        .with_projections(8)
        .with_batch_size(64)
        .with_epochs(4)
        .with_steps_per_epoch(Some(2))
        .with_seed(3);
    let open = OpenOptions::default()
        .with_backend(OpenBackend::Swg(swg))
        .with_num_generated(4)
        .with_rows_per_sample(Some(150));
    let engine = Arc::new(MosaicEngine::with_options(
        EngineOptions::default().with_open(open),
    ));
    let db = engine.session().with_seed(11);
    db.execute(
        "CREATE TABLE Report (country TEXT, email TEXT, reported_count INT);
         INSERT INTO Report (country, reported_count) VALUES ('UK', 600), ('FR', 400);
         INSERT INTO Report (email, reported_count) VALUES ('Yahoo', 300), ('AOL', 700);
         CREATE GLOBAL POPULATION Migrants (country TEXT, email TEXT);
         CREATE METADATA Migrants_M1 AS
           (SELECT country, reported_count FROM Report WHERE country IS NOT NULL);
         CREATE METADATA Migrants_M2 AS
           (SELECT email, reported_count FROM Report WHERE email IS NOT NULL);
         CREATE SAMPLE YahooSample AS (SELECT * FROM Migrants WHERE email = 'Yahoo');",
    )
    .unwrap();
    let mut rows = vec!["('UK','Yahoo')"; 30];
    rows.extend(vec!["('FR','Yahoo')"; 20]);
    db.execute(&format!(
        "INSERT INTO YahooSample VALUES {}",
        rows.join(",")
    ))
    .unwrap();
    let answer = db
        .execute(
            "SELECT OPEN country, email, COUNT(*) AS n FROM Migrants \
             GROUP BY country, email ORDER BY country, email",
        )
        .unwrap();
    assert!(answer.table.num_rows() > 0);
    assert_eq!(
        format!("{:#018x}", table_digest(&answer.table)),
        "0x5efd8c2fde3ebf94"
    );

    // ORDER BY … LIMIT applies to the combined answer, not to each
    // replicate: fused into a TopK with the optimizer on, Sort → Limit
    // with it off, and the same bits either way.
    let top = "SELECT OPEN country, email, COUNT(*) AS n FROM Migrants \
               GROUP BY country, email ORDER BY n DESC, country LIMIT 1";
    for optimizer in [true, false] {
        let s = engine.session().with_seed(11).with_optimizer(optimizer);
        let fused = s
            .prepare(top)
            .unwrap()
            .fired_rules()
            .contains(&"sort_limit_fusion");
        assert_eq!(fused, optimizer);
        let answer = s.execute(top).unwrap();
        assert_eq!(answer.table.num_rows(), 1);
        assert_eq!(
            format!("{:#018x}", table_digest(&answer.table)),
            "0x99357480e483b8e1",
            "optimizer {optimizer}"
        );
    }
    // The same statement prepared with a parameter in its WHERE clause.
    let prepared = db
        .prepare(
            "SELECT OPEN country, email, COUNT(*) AS n FROM Migrants WHERE country <> ? \
             GROUP BY country, email ORDER BY n DESC, country LIMIT 1",
        )
        .unwrap();
    let answer = db
        .execute_prepared(&prepared, &[Value::Str("FR".into())])
        .unwrap();
    assert_eq!(
        format!("{:#018x}", table_digest(&answer.table)),
        "0xd7eb8ace7314bd80"
    );
    // An OPEN-join aggregate that orders and limits.
    db.execute(
        "CREATE TABLE Regions (country TEXT, region TEXT);
         INSERT INTO Regions VALUES ('UK', 'north'), ('FR', 'south');",
    )
    .unwrap();
    let answer = db
        .execute(
            "SELECT OPEN c.region AS region, m.email AS email, COUNT(*) AS n \
             FROM Migrants m JOIN Regions c ON m.country = c.country \
             GROUP BY c.region, m.email ORDER BY n DESC, region LIMIT 2",
        )
        .unwrap();
    assert_eq!(
        format!("{:#018x}", table_digest(&answer.table)),
        "0x45a9ef4b3535eb54"
    );
}

/// The weights (`to_bits`) and every report field of one IPF fit.
fn ipf_digest(weights: &[f64], report: &IpfReport) -> u64 {
    digest(weights.iter().map(|w| w.to_bits()).chain([
        report.iterations as u64,
        report.max_rel_error.to_bits(),
        u64::from(report.converged),
        report.unmatched_rows as u64,
        report.empty_target_cells as u64,
    ]))
}

/// IPF on the flights workload: the 5 000-row biased sample raked against
/// the four binned 2-D marginals under the engine's default config, which
/// stops at the 200-iteration cap without converging. The raking kernel
/// may change how it walks rows and cells, but never the order in which
/// it sums one cell's total, so this digest must not move.
#[test]
fn ipf_flights_fit_is_golden() {
    let data = mosaic_bench::flights::generate(&mosaic_bench::flights::FlightsConfig::default());
    let ipf = Ipf::new(&data.sample, &data.marginals, &data.binners).unwrap();
    let (weights, report) = ipf.fit(None, &IpfConfig::default());
    assert_eq!(weights.len(), 5_000);
    assert_eq!(report.iterations, 200);
    assert!(!report.converged);
    assert_eq!(
        format!("{:#018x}", ipf_digest(&weights, &report)),
        "0xf995dea6ecdb1d5b"
    );
}

/// A small table that reaches every branch of `Ipf::new` and `Ipf::fit`:
/// a dictionary-encoded and a plain string column, a binned Int and a
/// binned Float, an unbinned Int, NULL keys (matched by a NULL cell in
/// one marginal, outside the others), rows outside a marginal, a
/// zero-target cell with rows, a positive-target cell without rows, a
/// 3-attribute marginal, and initial weights that are not all one.
fn ipf_edge_world() -> (Table, Vec<Marginal>, HashMap<String, Binner>, Vec<f64>) {
    let schema = Schema::new(vec![
        Field::new("city", DataType::Str),
        Field::new("tag", DataType::Str),
        Field::new("age", DataType::Int),
        Field::new("score", DataType::Float),
        Field::new("n", DataType::Int),
    ]);
    let mut b = TableBuilder::new(schema.clone());
    let cities = ["a", "b", "a", "b", "b", "a", "c", "e"];
    let tags = ["x", "y"];
    for i in 0..61i64 {
        let city = if i % 11 == 5 {
            Value::Null
        } else {
            cities[(i * 5 % 8) as usize].into()
        };
        let tag = if i % 13 == 2 {
            Value::Null
        } else {
            tags[(i % 2) as usize].into()
        };
        let age = if i % 9 == 4 {
            Value::Null
        } else {
            Value::Int(3 + (i * 17) % 90)
        };
        let score = if i % 10 == 7 {
            Value::Null
        } else {
            Value::Float(((i * 29) % 50) as f64 / 10.0 - 0.3)
        };
        b.push_row(vec![city, tag, age, score, Value::Int(i % 3)])
            .unwrap();
    }
    let plain = b.finish();
    let mut columns = plain.columns().to_vec();
    columns[0] = columns[0].dict_encoded();
    let table = Table::new(schema, columns).unwrap();
    assert!(table.column(0).is_dict() && !table.column(1).is_dict());

    let mut binners = HashMap::new();
    binners.insert("age".to_string(), Binner::equal_width(0.0, 100.0, 4));
    binners.insert("score".to_string(), Binner::equal_width(0.0, 5.0, 3));

    let mut city = Marginal::new(vec!["city".into()]);
    for (c, n) in [("a", 120.0), ("b", 310.0), ("c", 0.0), ("d", 55.0)] {
        city.add(vec![c.into()], n);
    }
    city.add(vec![Value::Null], 20.0);
    let mut age_score = Marginal::new(vec!["age".into(), "score".into()]);
    for (i, mid_a) in [12.5, 37.5, 62.5, 87.5].into_iter().enumerate() {
        for (j, mid_s) in [5.0 / 6.0, 2.5, 25.0 / 6.0].into_iter().enumerate() {
            if (i, j) != (3, 0) {
                age_score.add(
                    vec![Value::Float(mid_a), Value::Float(mid_s)],
                    (13 * i + 7 * j + 4) as f64,
                );
            }
        }
    }
    age_score.add(vec![Value::Null, Value::Float(2.5)], 6.0);
    let mut tag_n_city = Marginal::new(vec!["tag".into(), "n".into(), "city".into()]);
    for (k, t) in tags.into_iter().enumerate() {
        for n in 0..3i64 {
            for (c, city) in ["a", "b", "c", "e"].into_iter().enumerate() {
                if (k as i64 + n + c as i64) % 7 != 1 {
                    tag_n_city.add(
                        vec![t.into(), Value::Int(n), city.into()],
                        (5 + 3 * k as i64 + 2 * n + c as i64) as f64,
                    );
                }
            }
        }
    }
    let init: Vec<f64> = (0..table.num_rows())
        .map(|i| {
            if i % 8 == 3 {
                0.0
            } else {
                0.5 + (i % 5) as f64 * 0.75
            }
        })
        .collect();
    (table, vec![city, age_score, tag_n_city], binners, init)
}

#[test]
fn ipf_edge_cases_fit_is_golden() {
    let (table, marginals, binners, init) = ipf_edge_world();
    let ipf = Ipf::new(&table, &marginals, &binners).unwrap();
    let (weights, report) = ipf.fit(Some(&init), &IpfConfig::default());
    assert!(report.unmatched_rows > 0 && report.empty_target_cells > 0);
    assert_eq!(
        format!("{:#018x}", ipf_digest(&weights, &report)),
        "0xd4a759960ef2c989"
    );
    let mut got = Vec::new();
    for iterations in [0, 1] {
        let config = IpfConfig::default().with_max_iterations(iterations);
        let (weights, report) = ipf.fit(Some(&init), &config);
        assert_eq!(report.iterations, iterations);
        got.push(format!("{:#018x}", ipf_digest(&weights, &report)));
    }
    let none = Ipf::new(&table, &[], &binners).unwrap();
    let (weights, report) = none.fit(Some(&init), &IpfConfig::default());
    got.push(format!("{:#018x}", ipf_digest(&weights, &report)));
    assert_eq!(
        got,
        [
            "0x06eff9858eb392a5",
            "0xb361cedabb44f898",
            "0x10343c7dc9119b79"
        ]
    );
}

/// SEMI-OPEN answers and notes through the engine on each path that
/// fits: the population's own metadata, the GP's metadata read through a
/// derived population's view, and the combined weight of a join
/// re-calibrated against the declared marginals.
#[test]
fn semi_open_ipf_answers_are_golden() {
    let engine = Arc::new(MosaicEngine::new());
    let db = engine.session().with_seed(5);
    db.execute(
        "CREATE GLOBAL POPULATION People (region TEXT, age INT, income FLOAT);
         CREATE SAMPLE SP AS (SELECT * FROM People);
         CREATE POPULATION Young AS (SELECT * FROM People WHERE age < 45);
         CREATE POPULATION Unif AS (SELECT * FROM People WHERE age > 0);
         CREATE SAMPLE SU AS (SELECT * FROM Unif USING MECHANISM UNIFORM PERCENT 10);
         INSERT INTO SU VALUES ('north', 30, 1.5), ('south', 60, 2.5), ('west', 41, 0.5);",
    )
    .unwrap();
    let regions = ["north", "south", "west", "east"];
    let rows: Vec<String> = (0..53i64)
        .map(|i| {
            let region = regions[((i * 5 + i / 7) % 4) as usize];
            let age = 18 + (i * 23) % 70;
            let income = ((i * 37) % 100) as f64 / 8.0;
            format!("('{region}', {age}, {income})")
        })
        .collect();
    db.execute(&format!("INSERT INTO SP VALUES {}", rows.join(",")))
        .unwrap();
    let weights: Vec<f64> = (0..53).map(|i| 1.0 + (i % 4) as f64 * 0.5).collect();
    engine.set_sample_weights("SP", weights).unwrap();
    engine.register_binner("age", Binner::equal_width(0.0, 100.0, 5));
    engine.register_binner("income", Binner::equal_width(0.0, 12.5, 4));
    let mut region = Marginal::new(vec!["region".into()]);
    for (r, n) in [
        ("north", 400.0),
        ("south", 350.0),
        ("west", 150.0),
        ("south-east", 40.0),
    ] {
        region.add(vec![r.into()], n);
    }
    let mut age_income = Marginal::new(vec!["age".into(), "income".into()]);
    for a in 0..5 {
        for m in 0..4 {
            if (a + m) % 6 != 2 {
                age_income.add(
                    vec![
                        Value::Float(10.0 + 20.0 * a as f64),
                        Value::Float(12.5 / 8.0 * (2 * m + 1) as f64),
                    ],
                    (30 + 11 * a + 7 * m) as f64,
                );
            }
        }
    }
    engine
        .add_metadata("People_Region", "People", region)
        .unwrap();
    engine
        .add_metadata("People_AgeIncome", "People", age_income)
        .unwrap();

    let mut got = Vec::new();
    for sql in [
        "SELECT SEMI-OPEN region, COUNT(*) AS n, SUM(age) AS a, AVG(income) AS i \
         FROM People GROUP BY region ORDER BY region",
        "SELECT SEMI-OPEN region, COUNT(*) AS n, AVG(income) AS i \
         FROM Young GROUP BY region ORDER BY region",
        "SELECT SEMI-OPEN p.region, COUNT(*) AS n, SUM(p.income) AS i \
         FROM People p JOIN SU s ON p.region = s.region GROUP BY p.region ORDER BY p.region",
    ] {
        let answer = db.execute(sql).unwrap();
        assert!(
            answer.notes.iter().any(|n| n.starts_with("IPF vs")),
            "{:?}",
            answer.notes
        );
        let notes = answer.notes.join("\n");
        got.push(format!(
            "{:#018x}",
            digest(
                [table_digest(&answer.table)]
                    .into_iter()
                    .chain(notes.bytes().map(u64::from))
            )
        ));
    }
    assert_eq!(
        got,
        [
            "0xa3798b67134a73d1",
            "0x0ca812ca3d55a178",
            "0xcb9c54eba9f0d339"
        ]
    );
}
