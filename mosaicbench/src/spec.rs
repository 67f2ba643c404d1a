//! The metric catalogue: every name the benchmark reports, with its unit,
//! its better direction and — for end-to-end metrics — its regression
//! bound. `BENCHMARK.json` states the same list; a test keeps the two
//! from drifting apart.

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression; per-layer metrics
    /// have none.
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees; printed by an untraced run, every
/// one on every workload. Every bound is the contract's maximum: the
/// reference box changes speed by 10–20 % between stretches of minutes
/// and the allocator makes the wire workloads' RSS bimodal (README, "Why
/// the bounds are 25 %"), and the driver compares medians taken minutes
/// apart.
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("ops_per_s", "1/s", "higher", 0.25),
    e2e("op_p25_ms", "ms", "lower", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
];

/// Single layers; printed by a traced run. The first block comes from
/// the traced window of the workload itself (0 where the workload leaves
/// that layer idle), the rest from the probes, which call each layer's
/// public functions on fixed seeded inputs and so read the same on every
/// workload.
pub const PER_LAYER: [MetricSpec; 71] = [
    // ---- the untraced half of the traced run: the median and the tail
    // ---- latency. They are not end-to-end metrics because no bound the
    // ---- contract allows holds for them on a shared host: the driver saw
    // ---- the tail's middle half spread 26-53 % of the median on all five
    // ---- workloads between runs of the same code, and the median moves
    // ---- up to 21 % when something else takes a core half of the time.
    layer("op_p50_ms", "ms", "lower"),
    layer("op_tail_ms", "ms", "lower"),
    // ---- the workload's traced window
    layer("trace_overhead_frac", "ratio", "lower"),
    layer("trace.spans", "count", "higher"),
    layer("op.self_us", "us", "lower"),
    layer("op.sql_parse_us", "us", "lower"),
    layer("op.core_prepare_us", "us", "lower"),
    layer("op.core_execute_us", "us", "lower"),
    layer("op.serve_roundtrip_self_us", "us", "lower"),
    layer("op.serve_request_encode_us", "us", "lower"),
    layer("op.serve_response_decode_us", "us", "lower"),
    layer("core.exec.worker_peak", "count", "lower"),
    layer("core.cache.hit_ratio", "ratio", "higher"),
    layer("core.cache.plan_hit_ratio", "ratio", "higher"),
    layer("core.cache.invalidations", "count", "lower"),
    layer("core.cache.evictions", "count", "lower"),
    layer("serve.wire.overhead_us", "us", "lower"),
    layer("serve.admission.permit_peak", "count", "lower"),
    layer("serve.server.rejected", "count", "lower"),
    layer("serve.server.threads", "count", "lower"),
    layer("serve.server.threads_after", "count", "lower"),
    layer("serve.server.ctx_switches_per_op", "count", "lower"),
    layer("write_p50_ms", "ms", "lower"),
    layer("write_tail_ms", "ms", "lower"),
    layer("sched_lag_ms", "ms", "lower"),
    // ---- probes: storage
    layer("storage.csv.read_mb_per_s", "MB/s", "higher"),
    layer("storage.table.bytes_per_row", "B/row", "lower"),
    layer("storage.kernels.filter_mrows_per_s", "Mrows/s", "higher"),
    layer("storage.kernels.group_sum_mrows_per_s", "Mrows/s", "higher"),
    layer(
        "storage.kernels.merge_runs_mrows_per_s",
        "Mrows/s",
        "higher",
    ),
    // ---- probes: sql
    layer("sql.tokenize_us", "us", "lower"),
    layer("sql.parse_us", "us", "lower"),
    layer("sql.parse_insert_us_per_row", "us/row", "lower"),
    // ---- probes: core::plan / core::session
    layer("core.prepare_us", "us", "lower"),
    layer("core.prepare.self_us", "us", "lower"),
    layer("core.exec.count_ms", "ms", "lower"),
    layer("core.exec.agg_lowcard_ms", "ms", "lower"),
    layer("core.exec.agg_highcard_ms", "ms", "lower"),
    layer("core.exec.filter_agg_ms", "ms", "lower"),
    layer("core.exec.topk_ms", "ms", "lower"),
    layer("core.exec.sort_full_ms", "ms", "lower"),
    layer("core.exec.join_agg_ms", "ms", "lower"),
    layer("core.exec.join_topk_ms", "ms", "lower"),
    layer("core.exec.mrows_per_s", "Mrows/s", "higher"),
    // ---- probes: core::cache, core::catalog
    layer("core.cache.hit_us", "us", "lower"),
    layer("core.catalog.insert_ms", "ms", "lower"),
    layer("core.catalog.ingest_mrows_per_s", "Mrows/s", "higher"),
    // ---- probes: core::engine visibility pipelines
    layer("core.semi_open.query_ms", "ms", "lower"),
    layer("core.semi_open.self_ms", "ms", "lower"),
    layer("core.open.cold_query_s", "s", "lower"),
    layer("core.open.warm_query_ms", "ms", "lower"),
    layer("core.open.self_ms", "ms", "lower"),
    layer("core.open.replicates", "count", "lower"),
    // ---- probes: stats
    layer("stats.ipf.new_ms", "ms", "lower"),
    layer("stats.ipf.fit_ms", "ms", "lower"),
    layer("stats.ipf.iterations", "count", "lower"),
    layer("stats.ipf.max_rel_err", "ratio", "lower"),
    layer("stats.wasserstein.sliced_us", "us", "lower"),
    // ---- probes: swg (covers nn), bn
    layer("swg.fit_s", "s", "lower"),
    layer("swg.fit.epochs", "count", "lower"),
    layer("swg.fit.final_loss", "loss", "lower"),
    layer("swg.generate_krows_per_s", "krows/s", "higher"),
    layer("bn.fit_ms", "ms", "lower"),
    layer("bn.sample_krows_per_s", "krows/s", "higher"),
    // ---- probes: serve
    layer("serve.protocol.encode_us", "us", "lower"),
    layer("serve.protocol.decode_us", "us", "lower"),
    layer("serve.protocol.bytes_per_response", "B", "lower"),
    layer("serve.client.connect_us", "us", "lower"),
    layer("serve.admission.acquire_us", "us", "lower"),
    // ---- the bases of trace_overhead_frac
    layer("window.ops_per_s_untraced", "1/s", "higher"),
    layer("window.ops_per_s_traced", "1/s", "higher"),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};

    fn name_ok(s: &str, max: usize, extra: &str) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_meet_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(name_ok(m.name, 64, "_.-"), "name {}", m.name);
            assert!(m.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(
                name_ok(m.unit, 16, "_/%.-"),
                "unit {} of {}",
                m.unit,
                m.name
            );
            assert!(m.better == "lower" || m.better == "higher");
        }
        for m in &END_TO_END {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            let b = m.bound.unwrap();
            assert!(b > 0.0 && b <= 0.25);
        }
        for m in &PER_LAYER {
            assert!(seen.insert(m.name), "duplicate {}", m.name);
            assert!(m.bound.is_none());
        }
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert_eq!((setup.unit, setup.better), ("s", "lower"));
        let largest = END_TO_END
            .iter()
            .map(|m| m.bound.unwrap())
            .fold(0.0, f64::max);
        assert_eq!(
            setup.bound,
            Some(largest),
            "setup_s carries the largest bound"
        );
    }

    /// `BENCHMARK.json` sits at the repository root, one level above this
    /// package.
    #[test]
    fn benchmark_json_states_the_same_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let keys: Vec<&str> = doc
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        let listed = |key: &str| -> Vec<(String, String, String, Option<f64>)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (
                        s("name"),
                        s("unit"),
                        s("better"),
                        m.get("bound").and_then(Json::as_f64),
                    )
                })
                .collect()
        };
        let spec = |list: &[MetricSpec]| -> Vec<(String, String, String, Option<f64>)> {
            list.iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.into(), m.bound))
                .collect()
        };
        assert_eq!(listed("end_to_end"), spec(&END_TO_END));
        assert_eq!(listed("per_layer"), spec(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        let ours: Vec<&str> = crate::harness::WorkloadName::ALL
            .iter()
            .map(|w| w.as_str())
            .collect();
        assert_eq!(workloads, ours);
        let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
        assert!((1.0..=60.0).contains(&seconds) && seconds.fract() == 0.0);
    }
}
