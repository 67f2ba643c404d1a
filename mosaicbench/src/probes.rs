//! Per-layer probes: direct, timed calls into each layer's public
//! functions on fixed seeded inputs. They run in every traced run, read
//! the same whatever the workload, and gate nothing — they say *which
//! layer* moved when an end-to-end number does. Every repetition is also
//! a span (`probe.<metric>`), so the numbers can be re-derived from the
//! trace file.

use std::sync::Arc;
use std::time::Instant;

use mosaic_bn::{BayesNet, BnConfig};
use mosaic_core::{EngineOptions, Session, Table, Value};
use mosaic_serve::{Client, PermitPool, Response, ServeConfig, Server, WireField};
use mosaic_stats::{random_unit_vectors, sliced_wasserstein, Ipf, Marginal, WassersteinOrder};
use mosaic_storage::csv::read_csv_str;
use mosaic_storage::kernels::{self, CmpOp};
use mosaic_swg::MSwg;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::closed_scan::{engine_with_tables, CLASSES};
use crate::flights::{engine_with_flights, open_options, shape_sql};
use crate::gen::{self, SplitMix, SHAPES};
use crate::harness::{Metric, Sizes};
use crate::serve::MIX;
use crate::stats::median;
use crate::trace::Recorder;

/// Median seconds of `reps` calls of `f`, each a span named `name`.
/// Results go through `black_box` so the calls cannot be optimized away.
fn med<T>(rec: &mut Recorder, name: &'static str, reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let trace = rec.new_trace();
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            rec.span(trace, None, name, |_, _| {
                std::hint::black_box(f());
            });
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

pub fn run(sizes: &Sizes, seed: u64, rec: &mut Recorder) -> Vec<Metric> {
    let mut out = Vec::new();
    storage_sql_core(sizes, seed, rec, &mut out);
    open_world(sizes, seed, rec, &mut out);
    out
}

/// storage, sql, core::plan, core::cache, core::catalog and serve over
/// the probe fact table.
fn storage_sql_core(sizes: &Sizes, seed: u64, rec: &mut Recorder, out: &mut Vec<Metric>) {
    let rows = sizes.probe_rows;
    let csv = gen::fact_csv(rows, seed);
    let s = med(rec, "probe.storage.csv.read", 3, || {
        read_csv_str(&csv).map(|t| t.num_rows())
    });
    out.push(Metric::new(
        "storage.csv.read_mb_per_s",
        csv.len() as f64 / 1e6 / s,
        "MB/s",
    ));
    let fact = read_csv_str(&csv).expect("fact CSV parses");
    out.push(Metric::new(
        "storage.table.bytes_per_row",
        fact.approx_bytes() as f64 / rows as f64,
        "B/row",
    ));

    // Kernels, called directly on the fact columns.
    let (i_col, f_col, k_col) = (fact.column(1), fact.column(2), fact.column(0));
    let i_data = i_col.i64_data().expect("i is INT");
    let f_data = f_col.f64_data().expect("f is FLOAT");
    let (codes, dict) = k_col.dict_parts().expect("CSV ingest dictionary-encodes k");
    let mrows = |s: f64| rows as f64 / 1e6 / s;
    let s = med(rec, "probe.storage.kernels.filter", 9, || {
        let keep = kernels::cmp_i64_scalar(i_data, CmpOp::Gt, 100.0);
        kernels::filter_f64(f_data, &keep).len()
    });
    out.push(Metric::new(
        "storage.kernels.filter_mrows_per_s",
        mrows(s),
        "Mrows/s",
    ));
    let s = med(rec, "probe.storage.kernels.group_sum", 9, || {
        let mut st = kernels::AggState::new(dict.len());
        kernels::group_sum_f64(
            f_data,
            f_col.validity(),
            codes,
            None,
            &mut st.sums,
            &mut st.wsums,
            &mut st.counts,
        );
        st.counts[0]
    });
    out.push(Metric::new(
        "storage.kernels.group_sum_mrows_per_s",
        mrows(s),
        "Mrows/s",
    ));
    let less = |a: usize, b: usize| f_data[a].total_cmp(&f_data[b]).then(a.cmp(&b)).is_lt();
    let runs: Vec<Vec<usize>> = (0..16)
        .map(|r| {
            let mut run: Vec<usize> = (r * rows / 16..(r + 1) * rows / 16).collect();
            run.sort_unstable_by(|&a, &b| f_data[a].total_cmp(&f_data[b]).then(a.cmp(&b)));
            run
        })
        .collect();
    let s = med(rec, "probe.storage.kernels.merge_runs", 5, || {
        kernels::merge_sorted_runs(&runs, less).len()
    });
    out.push(Metric::new(
        "storage.kernels.merge_runs_mrows_per_s",
        mrows(s),
        "Mrows/s",
    ));

    // sql: the wire mix's statements and the writer's INSERT.
    let statements: Vec<String> = MIX.iter().map(|s| s.sql()).collect();
    let per_statement = |rec: &mut Recorder, name, f: &dyn Fn(&str)| {
        let medians: Vec<f64> = statements
            .iter()
            .map(|sql| med(rec, name, 30, || f(sql)))
            .collect();
        median(&medians) * 1e6
    };
    let tokenize_us = per_statement(rec, "probe.sql.tokenize", &|sql| {
        std::hint::black_box(mosaic_sql::tokenize(sql).map(|t| t.len()).ok());
    });
    let parse_us = per_statement(rec, "probe.sql.parse", &|sql| {
        std::hint::black_box(mosaic_sql::parse(sql).map(|s| s.len()).ok());
    });
    out.push(Metric::new("sql.tokenize_us", tokenize_us, "us"));
    out.push(Metric::new("sql.parse_us", parse_us, "us"));
    let insert = gen::insert_sql(
        sizes.insert_rows,
        &mut SplitMix::stream(seed, "probe-insert"),
    );
    let s = med(rec, "probe.sql.parse_insert", 30, || {
        mosaic_sql::parse(&insert).map(|s| s.len()).ok()
    });
    out.push(Metric::new(
        "sql.parse_insert_us_per_row",
        s * 1e6 / sizes.insert_rows as f64,
        "us/row",
    ));

    // core::session / core::plan on an engine holding the probe table.
    let engine = engine_with_tables(&csv, &gen::dim_csv());
    let uncached = engine.session().with_result_cache(false);
    let prepare_us = median(
        &statements
            .iter()
            .map(|sql| {
                med(rec, "probe.core.prepare", 30, || {
                    uncached.prepare(sql).is_ok()
                })
            })
            .collect::<Vec<_>>(),
    ) * 1e6;
    out.push(Metric::new("core.prepare_us", prepare_us, "us"));
    out.push(
        Metric::new("core.prepare.self_us", prepare_us - parse_us, "us")
            .with_note("core.prepare_us - sql.parse_us"),
    );
    let mut busy = 0.0;
    for (class, sql) in CLASSES {
        let prepared = uncached.prepare(sql).expect("class prepares");
        let s = med(rec, "probe.core.exec", 9, || {
            uncached
                .query_prepared(&prepared, &[])
                .map(|t| t.num_rows())
                .ok()
        });
        busy += s;
        out.push(Metric::new(format!("core.exec.{class}_ms"), s * 1e3, "ms"));
    }
    out.push(
        Metric::new(
            "core.exec.mrows_per_s",
            (CLASSES.len() * rows) as f64 / 1e6 / busy,
            "Mrows/s",
        )
        .with_note("fact rows scanned by the 8 classes / their summed medians"),
    );

    // core::cache: an in-process execute of a statement that is cached.
    let cached = engine.session();
    let hot = "SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY k";
    cached.execute(hot).expect("fills the cache");
    let hit_s = med(rec, "probe.core.cache.hit", 200, || {
        cached.execute(hot).is_ok()
    });
    out.push(Metric::new("core.cache.hit_us", hit_s * 1e6, "us"));

    // serve: codec on every statement's response frames, connect, permits.
    let codec: Vec<(f64, f64, f64)> = statements
        .iter()
        .map(|sql| codec_probe(rec, &cached, sql))
        .collect();
    let col = |f: fn(&(f64, f64, f64)) -> f64| median(&codec.iter().map(f).collect::<Vec<_>>());
    out.push(Metric::new(
        "serve.protocol.encode_us",
        col(|c| c.0) * 1e6,
        "us",
    ));
    out.push(Metric::new(
        "serve.protocol.decode_us",
        col(|c| c.1) * 1e6,
        "us",
    ));
    out.push(Metric::new(
        "serve.protocol.bytes_per_response",
        col(|c| c.2),
        "B",
    ));
    let server = Server::bind(Arc::clone(&engine), "127.0.0.1:0", ServeConfig::default())
        .expect("bind probe server");
    let (handle, acceptor) = server.spawn();
    let s = med(rec, "probe.serve.client.connect", 20, || {
        Client::connect(handle.addr())
            .map(|c| c.close().is_ok())
            .ok()
    });
    out.push(Metric::new("serve.client.connect_us", s * 1e6, "us"));
    handle.shutdown();
    acceptor.join().expect("probe acceptor exits");
    let pool = PermitPool::new(engine.options().parallelism);
    let s = med(rec, "probe.serve.admission.acquire", 1000, || {
        pool.acquire(2).threads()
    });
    out.push(Metric::new("serve.admission.acquire_us", s * 1e6, "us"));

    // core::catalog: a 64-row INSERT into the probe table (copy-on-write
    // append) — last, because it changes the table.
    let writer = engine.session();
    let mut rng = SplitMix::stream(seed, "probe-insert");
    let s = med(rec, "probe.core.catalog.insert", 10, || {
        writer
            .execute(&gen::insert_sql(sizes.insert_rows, &mut rng))
            .is_ok()
    });
    out.push(Metric::new("core.catalog.insert_ms", s * 1e3, "ms"));
}

/// Encode and decode the frames that carry `sql`'s result; returns
/// `(encode s, decode s, bytes)` for the whole response.
fn codec_probe(rec: &mut Recorder, session: &Session, sql: &str) -> (f64, f64, f64) {
    let result = session.execute(sql).expect("statement runs");
    let t: &Table = &result.table;
    let frames = [
        Response::Schema {
            fields: t
                .schema()
                .fields()
                .iter()
                .map(|f| WireField {
                    name: f.name.clone(),
                    data_type: f.data_type,
                    nullable: f.nullable,
                })
                .collect(),
        },
        Response::RowBatch {
            rows: t.rows().collect::<Vec<Vec<Value>>>(),
        },
        Response::Done {
            visibility: result.visibility,
            notes: result.notes.clone(),
        },
    ];
    let encoded: Vec<(u8, Vec<u8>)> = frames.iter().map(Response::encode).collect();
    let bytes: usize = encoded.iter().map(|(_, p)| p.len() + 5).sum();
    let enc = med(rec, "probe.serve.protocol.encode", 30, || {
        frames.iter().map(|f| f.encode().1.len()).sum::<usize>()
    });
    let dec = med(rec, "probe.serve.protocol.decode", 30, || {
        encoded
            .iter()
            .filter(|(ty, p)| Response::decode(*ty, p).is_ok())
            .count()
    });
    (enc, dec, bytes as f64)
}

/// stats, swg, bn and the SEMI-OPEN / OPEN pipelines of core::engine over
/// the probe flights sample.
fn open_world(sizes: &Sizes, seed: u64, rec: &mut Recorder, out: &mut Vec<Metric>) {
    let data = gen::flights(
        sizes.probe_population,
        sizes.sample_fraction,
        sizes.marginal_bins,
        seed,
    );
    let sample_rows = data.sample.num_rows();

    // stats::ipf, directly.
    let new_s = med(rec, "probe.stats.ipf.new", 5, || {
        Ipf::new(&data.sample, &data.marginals, &data.binners)
            .map(|i| i.num_rows())
            .ok()
    });
    let ipf = Ipf::new(&data.sample, &data.marginals, &data.binners).expect("IPF indexes");
    let ipf_config = EngineOptions::default().ipf;
    let fit_s = med(rec, "probe.stats.ipf.fit", 5, || {
        ipf.fit(None, &ipf_config).1.iterations
    });
    let (weights, report) = ipf.fit(None, &ipf_config);
    out.push(Metric::new("stats.ipf.new_ms", new_s * 1e3, "ms"));
    out.push(Metric::new("stats.ipf.fit_ms", fit_s * 1e3, "ms"));
    out.push(Metric::new(
        "stats.ipf.iterations",
        report.iterations as f64,
        "count",
    ));
    out.push(Metric::new(
        "stats.ipf.max_rel_err",
        report.max_rel_error,
        "ratio",
    ));

    // stats::wasserstein: the (distance, elapsed_time) marginal against
    // the same marginal of the raw sample, 32 projections.
    let population_cloud = cloud(&data.marginals[3]);
    let sample_marginal = Marginal::from_table(
        &data.sample,
        &["distance", "elapsed_time"],
        None,
        &data.binners,
    )
    .expect("sample marginal");
    let sample_cloud = cloud(&sample_marginal);
    let projections = random_unit_vectors(2, 32, &mut StdRng::seed_from_u64(seed));
    let s = med(rec, "probe.stats.wasserstein.sliced", 9, || {
        sliced_wasserstein(
            &population_cloud,
            &sample_cloud,
            &projections,
            WassersteinOrder::W2Squared,
        )
    });
    out.push(Metric::new("stats.wasserstein.sliced_us", s * 1e6, "us"));

    // core::engine SEMI-OPEN: the engine's query minus the IPF it runs.
    let semi = engine_with_flights(&data, EngineOptions::default());
    let session = semi.session().with_result_cache(false);
    let q1 = session
        .prepare(&shape_sql("SEMI-OPEN", &SHAPES[0]))
        .expect("Q1 prepares");
    let params = [Value::Int(SHAPES[0].cutoffs[1])];
    let query_s = med(rec, "probe.core.semi_open.query", 5, || {
        session.query_prepared(&q1, &params).is_ok()
    });
    out.push(Metric::new("core.semi_open.query_ms", query_s * 1e3, "ms"));
    out.push(
        Metric::new(
            "core.semi_open.self_ms",
            (query_s - new_s - fit_s) * 1e3,
            "ms",
        )
        .with_note("query - stats.ipf.new - stats.ipf.fit"),
    );
    out.push(Metric::new(
        "core.catalog.ingest_mrows_per_s",
        {
            let s = med(rec, "probe.core.catalog.ingest", 5, || {
                semi.ingest_sample("FlightSample", data.sample.clone())
                    .is_ok()
            });
            sample_rows as f64 / 1e6 / s
        },
        "Mrows/s",
    ));

    // swg (and nn inside it), directly.
    let t0 = Instant::now();
    let model = rec.span(0, None, "probe.swg.fit", |_, _| {
        MSwg::fit(&data.sample, &data.marginals, sizes.probe_swg.clone()).expect("M-SWG fits")
    });
    out.push(Metric::new("swg.fit_s", t0.elapsed().as_secs_f64(), "s"));
    let report = model.report();
    out.push(Metric::new(
        "swg.fit.epochs",
        report.loss_history.len() as f64,
        "count",
    ));
    out.push(Metric::new("swg.fit.final_loss", report.final_loss, "loss"));
    let mut rng = StdRng::seed_from_u64(seed);
    let generate_s = med(rec, "probe.swg.generate", 5, || {
        model.generate(sample_rows, &mut rng).num_rows()
    });
    out.push(Metric::new(
        "swg.generate_krows_per_s",
        sample_rows as f64 / 1e3 / generate_s,
        "krows/s",
    ));

    // core::engine OPEN: cold (fits the model) then warm.
    let open = engine_with_flights(&data, open_options(&sizes.probe_swg));
    let session = open.session().with_result_cache(false).with_seed(seed);
    let q1 = session
        .prepare(&shape_sql("OPEN", &SHAPES[0]))
        .expect("Q1 prepares");
    let t0 = Instant::now();
    let cold = rec.span(0, None, "probe.core.open.cold_query", |_, _| {
        session
            .execute_prepared(&q1, &params)
            .expect("cold OPEN query")
    });
    out.push(Metric::new(
        "core.open.cold_query_s",
        t0.elapsed().as_secs_f64(),
        "s",
    ));
    let warm_s = med(rec, "probe.core.open.warm_query", 5, || {
        session.query_prepared(&q1, &params).is_ok()
    });
    // "combined 10 generated samples of 3000 rows across 2 worker
    // thread(s) …" — replicates and the workers they ran on, as the engine
    // reports them.
    let note_number = |before: &str| -> f64 {
        cold.notes
            .iter()
            .find_map(|n| {
                let words: Vec<&str> = n.strip_prefix("combined ")?.split(' ').collect();
                let at = words.iter().position(|w| *w == before)?;
                words.get(at.checked_sub(1)?)?.parse().ok()
            })
            .unwrap_or(0.0)
    };
    let (replicates, workers) = (note_number("generated"), note_number("worker").max(1.0));
    out.push(Metric::new("core.open.warm_query_ms", warm_s * 1e3, "ms"));
    out.push(
        Metric::new(
            "core.open.self_ms",
            (warm_s - replicates * generate_s / workers) * 1e3,
            "ms",
        )
        .with_note(format!(
            "warm query - {replicates} replicates x swg generate / {workers} workers"
        )),
    );
    out.push(Metric::new("core.open.replicates", replicates, "count"));

    // bn: no workload uses this backend; recorded so a later one can.
    let bn_config = BnConfig::default();
    let s = med(rec, "probe.bn.fit", 3, || {
        BayesNet::fit(&data.sample, Some(&weights), &bn_config)
            .map(|b| b.num_nodes())
            .ok()
    });
    out.push(Metric::new("bn.fit_ms", s * 1e3, "ms"));
    let net = BayesNet::fit(&data.sample, Some(&weights), &bn_config).expect("BN fits");
    let s = med(rec, "probe.bn.sample", 5, || {
        net.sample(sample_rows, &mut rng).num_rows()
    });
    out.push(Metric::new(
        "bn.sample_krows_per_s",
        sample_rows as f64 / 1e3 / s,
        "krows/s",
    ));
}

/// A 2-D marginal as a weighted point cloud.
fn cloud(m: &Marginal) -> Vec<(Vec<f64>, f64)> {
    m.iter()
        .filter_map(|(key, mass)| Some((vec![key[0].as_f64()?, key[1].as_f64()?], mass)))
        .collect()
}
