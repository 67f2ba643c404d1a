//! Golden bits for the M-SWG generator stack, from the dense kernels up
//! to an OPEN answer.
//!
//! The digests were recorded with the scalar i-k-j `Matrix` kernels that
//! preceded the register-blocked tile kernel. A kernel may change how it
//! walks the matrices but never the order in which it sums the terms of
//! one output element, so these digests must not move: a reordered sum,
//! a fused multiply-add or a changed zero-skip anywhere in `mosaic-nn`
//! moves them. `open_world` and `open_join_determinism` compare a binary
//! only with itself and cannot catch that.

use std::sync::Arc;

use mosaic_core::{EngineOptions, MosaicEngine, OpenBackend, OpenOptions, Table, Value};
use mosaic_nn::{Adam, Matrix, Mlp};
use mosaic_stats::Marginal;
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
    let db = Arc::new(MosaicEngine::with_options(
        EngineOptions::default().with_open(open),
    ))
    .session()
    .with_seed(11);
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
}
