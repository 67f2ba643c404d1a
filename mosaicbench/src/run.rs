//! The driver shared by all workloads: generate → set up (several times)
//! → warm up → measure (plain, and in a traced run also through the
//! staged API, plus the probes) → final checks, and the result document.

use std::time::Instant;

use mosaic_core::CacheStats;

use crate::closed_scan::ClosedScan;
use crate::flights::{Open, SemiOpen};
use crate::harness::{
    peak_rss_mb, summarize, Metric, RunConfig, Sizes, Window, Workload, WorkloadName, RATE_QUANTILE,
};
use crate::json::Json;
use crate::serve::{ServeHot, ServeRw};
use crate::spec::{MetricSpec, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::trace::{self, Recorder};

/// Everything one run reports.
#[derive(Debug)]
pub struct Outcome {
    pub workload: WorkloadName,
    pub attempted: u64,
    pub failed: u64,
    /// The contract's metrics for this mode, in catalogue order.
    pub metrics: Vec<Metric>,
    /// Printed, not part of the result document.
    pub informational: Vec<Metric>,
    pub warnings: Vec<String>,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// `{"correct", "attempted", "failed", "metrics"}` — exactly the keys
    /// the contract names.
    pub fn document(&self) -> Json {
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct())),
            ("attempted".into(), Json::Num(self.attempted.max(1) as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            (
                "metrics".into(),
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            (
                                m.name.clone(),
                                Json::Obj(vec![
                                    ("value".into(), Json::Num(m.value)),
                                    ("unit".into(), Json::Str(m.unit.into())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// One `<workload> <metric> <value> <unit>` line per number.
    pub fn lines(&self) -> Vec<String> {
        let line = |m: &Metric| {
            let note = if m.note.is_empty() {
                String::new()
            } else {
                format!("  ({})", m.note)
            };
            format!(
                "{} {} {} {}{note}",
                self.workload.as_str(),
                m.name,
                m.value,
                m.unit
            )
        };
        self.metrics
            .iter()
            .chain(&self.informational)
            .map(line)
            .chain(self.warnings.iter().map(|w| format!("warning: {w}")))
            .collect()
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let sizes = if cfg.quick {
        Sizes::quick()
    } else {
        Sizes::full()
    };
    match cfg.workload {
        WorkloadName::ClosedScan => drive::<ClosedScan>(cfg, &sizes),
        WorkloadName::ServeHot => drive::<ServeHot>(cfg, &sizes),
        WorkloadName::ServeRw => drive::<ServeRw>(cfg, &sizes),
        WorkloadName::SemiOpen => drive::<SemiOpen>(cfg, &sizes),
        WorkloadName::Open => drive::<Open>(cfg, &sizes),
    }
}

fn drive<W: Workload>(cfg: &RunConfig, sizes: &Sizes) -> Outcome {
    let mut warnings = Vec::new();
    let mut informational = Vec::new();

    let t0 = Instant::now();
    let inputs = W::generate(cfg, sizes);
    informational.push(
        Metric::new("gen_s", t0.elapsed().as_secs_f64(), "s")
            .with_note("the benchmark's own data generation, not part of setup_s"),
    );

    // Set up several times; the last one is kept. Tear-down is untimed.
    let mut setup_times = Vec::new();
    let mut workload: Option<W> = None;
    for _ in 0..W::setup_repeats(cfg.quick) {
        if let Some(previous) = workload.take() {
            previous.teardown();
        }
        let t0 = Instant::now();
        workload = Some(W::setup(&inputs, cfg, sizes));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("at least one set-up");
    let setup = Metric::new("setup_s", median(&setup_times), "s")
        .with_note(format!("median of {} set-ups", setup_times.len()));
    workload.prepare_checks(&inputs);

    let mut attempted = 0;
    let mut failed = 0;
    let mut take = |win: &mut Window, warnings: &mut Vec<String>| {
        attempted += win.attempted;
        failed += win.failed;
        warnings.append(&mut win.warnings);
    };
    let mut warm = workload.window(cfg.warmup(), None);
    take(&mut warm, &mut warnings);

    let tail_p = cfg.workload.tail_percentile();
    let mut metrics = Vec::new();
    if !cfg.trace {
        mosaic_core::reset_worker_thread_peak();
        let mut win = workload.window(std::time::Duration::from_secs_f64(cfg.seconds), None);
        take(&mut win, &mut warnings);
        let sum = summarize(&win, W::class_balanced(), tail_p);
        let n = win.ops();
        let per_class = if W::class_balanced() {
            ", mean over classes"
        } else {
            ""
        };
        metrics.push(
            Metric::new("ops_per_s", sum.ops_per_s, "1/s").with_note(format!(
                "n={n}, p{} over slices; whole window {:.4}",
                RATE_QUANTILE * 100.0,
                n as f64 / win.wall_s
            )),
        );
        metrics.push(
            Metric::new("op_p25_ms", sum.op_p25_ms, "ms").with_note(format!("n={n}{per_class}")),
        );
        // Not gated (they are per-layer metrics of a traced run): printed
        // here from the full window, for the reader.
        informational.push(
            Metric::new("ops_per_s_p50", sum.ops_per_s_p50, "1/s").with_note("median over slices"),
        );
        informational.push(
            Metric::new("op_p50_ms", sum.op_p50_ms, "ms").with_note(format!("n={n}{per_class}")),
        );
        informational.push(tail_metric(&sum.tail, tail_p, n));
        metrics.push(setup);
        informational.append(&mut win.extra);
        informational.push(Metric::new(
            "core.exec.worker_peak",
            mosaic_core::worker_thread_peak() as f64,
            "count",
        ));
    } else {
        let half = std::time::Duration::from_secs_f64(cfg.seconds / 2.0);
        let mut plain = workload.window(half, None);
        take(&mut plain, &mut warnings);
        let before = workload.engine().cache_stats();
        mosaic_core::reset_worker_thread_peak();
        let origin = Instant::now();
        let mut traced = workload.window(half, Some(origin));
        take(&mut traced, &mut warnings);
        let after = workload.engine().cache_stats();
        let worker_peak = mosaic_core::worker_thread_peak();

        let t0 = Instant::now();
        let mut probe_rec = Recorder::new(origin, 1 << 60);
        let probes = crate::probes::run(sizes, cfg.seed, &mut probe_rec);
        informational.push(Metric::new("probe_s", t0.elapsed().as_secs_f64(), "s"));

        metrics.extend(window_metrics(
            &plain,
            &traced,
            &before,
            &after,
            worker_peak,
        ));
        let sum = summarize(&plain, W::class_balanced(), tail_p);
        warnings.extend(sum.tail.warning.clone());
        metrics.push(
            Metric::new("op_p50_ms", sum.op_p50_ms, "ms")
                .with_note(format!("n={}, tracing off", plain.ops())),
        );
        metrics.push(tail_metric(&sum.tail, tail_p, plain.ops()));
        metrics.append(&mut traced.extra);
        metrics.extend(probes);
        // What the wire adds to a cache hit: only where replies were hits.
        let value = |name: &str| metrics.iter().find(|m| m.name == name).map(|m| m.value);
        if let (Some(roundtrip), Some(hit)) = (
            value("serve.wire.hit_roundtrip_us").filter(|v| v.is_finite()),
            value("core.cache.hit_us"),
        ) {
            metrics.push(
                Metric::new("serve.wire.overhead_us", roundtrip - hit, "us")
                    .with_note("median hit round trip - core.cache.hit_us"),
            );
        }
        informational.push(setup);
        traced.spans.append(&mut probe_rec.spans);
        if let Some(dir) = &cfg.trace_dir {
            let counters: Vec<(String, f64)> =
                metrics.iter().map(|m| (m.name.clone(), m.value)).collect();
            let path = dir.join(format!("{}.jsonl", cfg.workload.as_str()));
            let written = std::fs::create_dir_all(dir)
                .and_then(|()| trace::write_jsonl(&path, &traced.spans, &counters));
            if let Err(e) = written {
                failed += 1;
                warnings.push(format!("cannot write {}: {e}", path.display()));
            }
        }
    }

    let mut finish = workload.finish(&inputs);
    attempted += finish.attempted;
    failed += finish.failed;
    warnings.append(&mut finish.warnings);
    if cfg.trace {
        metrics.append(&mut finish.extra);
    } else {
        informational.append(&mut finish.extra);
        metrics.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB").with_note("VmHWM"));
    }

    let catalogue: &[MetricSpec] = if cfg.trace { &PER_LAYER } else { &END_TO_END };
    let (metrics, mut extra) = conform(metrics, catalogue, &mut warnings);
    informational.append(&mut extra);
    Outcome {
        workload: cfg.workload,
        attempted,
        failed,
        metrics,
        informational,
        warnings,
    }
}

/// `op_tail_ms` with its percentile and support.
fn tail_metric(tail: &crate::stats::Tail, tail_p: f64, n: usize) -> Metric {
    Metric::new("op_tail_ms", tail.value, "ms").with_note(format!(
        "p{}, n={n}, {} beyond, tracing off",
        tail_p * 100.0,
        tail.beyond
    ))
}

/// The per-layer numbers that come from the workload's own windows.
fn window_metrics(
    plain: &Window,
    traced: &Window,
    before: &CacheStats,
    after: &CacheStats,
    worker_peak: usize,
) -> Vec<Metric> {
    let untraced_rate = plain.ops() as f64 / plain.wall_s;
    let traced_rate = traced.ops() as f64 / traced.wall_s;
    let summary = trace::summarize(&traced.spans);
    let us = |name: &str, own: bool| {
        summary.get(name).map_or(0.0, |s| {
            (if own { s.median_self_ns } else { s.median_ns }) / 1e3
        })
    };
    let ratio = |hits: u64, misses: u64| {
        if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        }
    };
    vec![
        Metric::new(
            "trace_overhead_frac",
            1.0 - traced_rate / untraced_rate,
            "ratio",
        )
        .with_note("1 - traced ops/s / untraced ops/s"),
        Metric::new("window.ops_per_s_untraced", untraced_rate, "1/s")
            .with_note(format!("n={}", plain.ops())),
        Metric::new("window.ops_per_s_traced", traced_rate, "1/s")
            .with_note(format!("n={}", traced.ops())),
        Metric::new("trace.spans", traced.spans.len() as f64, "count"),
        Metric::new("op.self_us", us("op", true), "us")
            .with_note("op span minus its children: the benchmark's own share"),
        Metric::new("op.sql_parse_us", us("sql.parse", false), "us"),
        Metric::new("op.core_prepare_us", us("core.prepare", false), "us"),
        Metric::new("op.core_execute_us", us("core.execute", false), "us"),
        Metric::new(
            "op.serve_roundtrip_self_us",
            us("serve.roundtrip", true),
            "us",
        )
        .with_note("round trip minus client-side encode and decode"),
        Metric::new(
            "op.serve_request_encode_us",
            us("serve.request_encode", false),
            "us",
        ),
        Metric::new(
            "op.serve_response_decode_us",
            us("serve.response_decode", false),
            "us",
        ),
        Metric::new("core.exec.worker_peak", worker_peak as f64, "count"),
        Metric::new(
            "core.cache.hit_ratio",
            ratio(after.hits - before.hits, after.misses - before.misses),
            "ratio",
        ),
        Metric::new(
            "core.cache.plan_hit_ratio",
            ratio(
                after.plan_hits - before.plan_hits,
                after.plan_misses - before.plan_misses,
            ),
            "ratio",
        ),
        Metric::new(
            "core.cache.invalidations",
            (after.invalidations - before.invalidations) as f64,
            "count",
        ),
        Metric::new(
            "core.cache.evictions",
            (after.evictions - before.evictions) as f64,
            "count",
        ),
    ]
}

/// Order `computed` by the catalogue. A per-layer entry nothing computed
/// is a layer this workload leaves idle and reads 0; computed numbers the
/// catalogue does not list are returned separately, for printing only.
fn conform(
    mut computed: Vec<Metric>,
    catalogue: &[MetricSpec],
    warnings: &mut Vec<String>,
) -> (Vec<Metric>, Vec<Metric>) {
    let mut listed = Vec::with_capacity(catalogue.len());
    for spec in catalogue {
        match computed.iter().position(|m| m.name == spec.name) {
            Some(i) => {
                let m = computed.remove(i);
                if m.unit != spec.unit {
                    warnings.push(format!(
                        "{} is reported in {} but catalogued in {}",
                        m.name, m.unit, spec.unit
                    ));
                }
                listed.push(m);
            }
            // An end-to-end metric is never idle: a missing one is a bug
            // and must fail the run (NaN makes it incorrect).
            None if spec.bound.is_some() => {
                listed.push(Metric::new(spec.name, f64::NAN, spec.unit).with_note("not measured"))
            }
            None => listed.push(
                Metric::new(spec.name, 0.0, spec.unit).with_note("layer idle on this workload"),
            ),
        }
    }
    (listed, computed)
}
