//! What every workload shares: the run configuration and sizes, the
//! `Workload` contract, the measured window's result, the derivation of
//! the end-to-end metrics, and the `/proc` readers.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mosaic_core::{MosaicEngine, SwgConfig, Table};
use mosaic_storage::Column;

use crate::stats::{self, Tail};
use crate::trace::Span;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkloadName {
    ClosedScan,
    ServeHot,
    ServeRw,
    SemiOpen,
    Open,
}

impl WorkloadName {
    pub const ALL: [WorkloadName; 5] = [
        WorkloadName::ClosedScan,
        WorkloadName::ServeHot,
        WorkloadName::ServeRw,
        WorkloadName::SemiOpen,
        WorkloadName::Open,
    ];

    pub fn as_str(self) -> &'static str {
        match self {
            WorkloadName::ClosedScan => "closed_scan",
            WorkloadName::ServeHot => "serve_hot",
            WorkloadName::ServeRw => "serve_rw",
            WorkloadName::SemiOpen => "semi_open",
            WorkloadName::Open => "open",
        }
    }

    pub fn parse(s: &str) -> Option<WorkloadName> {
        WorkloadName::ALL.into_iter().find(|w| w.as_str() == s)
    }

    /// The fixed tail percentile of `op_tail_ms`: the highest round
    /// percentile with at least ten samples beyond it at the op count the
    /// untraced half (7.5 s) of a traced run gives on the 2-core reference
    /// box (≥ 150, 300 000, 100 000, 350 and 55 ops). `serve_rw` sits at
    /// p99.9 because about 1 % of its reads are refill misses: p99 would
    /// fall on the boundary between hits and misses and flip between them.
    pub fn tail_percentile(self) -> f64 {
        match self {
            WorkloadName::ClosedScan => 0.90,
            WorkloadName::ServeHot => 0.99,
            WorkloadName::ServeRw => 0.999,
            WorkloadName::SemiOpen => 0.95,
            WorkloadName::Open => 0.80,
        }
    }
}

/// One invocation's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: WorkloadName,
    pub seed: u64,
    /// Length of the measured window(s), seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    pub quick: bool,
    /// Where a traced run writes `<workload>.jsonl`; nothing is written
    /// without it.
    pub trace_dir: Option<PathBuf>,
}

impl RunConfig {
    /// Warm-up before the measured window: caches fill, lazy set-up ends.
    pub fn warmup(&self) -> Duration {
        Duration::from_secs_f64(self.seconds / 8.0)
    }
}

/// Input sizes. `full` is the benchmark; `quick` keeps the smoke test
/// (debug build) to a few seconds.
#[derive(Debug, Clone)]
pub struct Sizes {
    pub scan_rows: usize,
    pub serve_rows: usize,
    /// `serve_rw`'s fact table: smaller than `serve_hot`'s, so that the
    /// refill misses after each write take a small share of the reader's
    /// time (see [`Sizes::full`]).
    pub serve_rw_rows: usize,
    pub semi_open_population: usize,
    pub open_population: usize,
    pub sample_fraction: f64,
    pub marginal_bins: usize,
    pub open_swg: SwgConfig,
    /// Rows per `serve_rw` INSERT and the writer's period.
    pub insert_rows: usize,
    pub write_period: Duration,
    /// Inputs of the per-layer probes (fixed, independent of the workload).
    pub probe_rows: usize,
    pub probe_population: usize,
    pub probe_swg: SwgConfig,
}

impl Sizes {
    pub fn full() -> Sizes {
        let swg = SwgConfig::paper_flights().with_projections(32);
        Sizes {
            scan_rows: 2_000_000,
            serve_rows: 200_000,
            // At 200 000 rows the ~16 refills after each write took 45-70 %
            // of every 100 ms period, and reads/s = (1 - miss share) / hit
            // time turned a 1.5x slower box into 2.4x fewer reads: the
            // driver saw a 40 % run-to-run spread. At 100 000 rows the
            // share is about a fifth: a refill twice as dear still costs
            // the readers more than the bound, and a slower box no longer
            // multiplies.
            serve_rw_rows: 100_000,
            semi_open_population: 100_000,
            open_population: 60_000,
            sample_fraction: 0.05,
            marginal_bins: 16,
            open_swg: swg.clone().with_epochs(15),
            insert_rows: 64,
            write_period: Duration::from_millis(100),
            probe_rows: 200_000,
            probe_population: 60_000,
            probe_swg: swg.with_epochs(5),
        }
    }

    pub fn quick() -> Sizes {
        let swg = SwgConfig::default()
            .with_hidden_dim(16)
            .with_hidden_layers(1)
            .with_projections(8)
            .with_batch_size(64)
            .with_epochs(2)
            .with_steps_per_epoch(Some(2))
            .with_coverage_subsample(128);
        Sizes {
            scan_rows: 6_000,
            serve_rows: 3_000,
            serve_rw_rows: 3_000,
            semi_open_population: 4_000,
            open_population: 4_000,
            sample_fraction: 0.05,
            marginal_bins: 8,
            open_swg: swg.clone(),
            insert_rows: 8,
            write_period: Duration::from_millis(25),
            probe_rows: 3_000,
            probe_population: 4_000,
            probe_swg: swg,
        }
    }
}

/// A reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Sample count, percentile or other context printed beside it.
    pub note: String,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
            note: String::new(),
        }
    }

    pub fn with_note(mut self, note: impl Into<String>) -> Metric {
        self.note = note.into();
        self
    }
}

/// Time slices a wire workload's window is cut into (the cyclic workloads
/// close one slice per cycle over their classes). `ops_per_s` is a high
/// quantile over slices, so the slices must be short enough that some of
/// them pass undisturbed: 0.2 s of a 15 s window, two of `serve_rw`'s
/// write periods.
pub const SLICES: u32 = 75;

/// The gated latency is this quantile of the op latencies and the gated
/// rate this quantile of the slice rates. Whatever else runs on the host
/// only ever adds time, so the quick side of a distribution is the
/// program and the slow side is the program plus the host: with one of the
/// two cores taken half of the time, on the four workloads that use both
/// cores the median latency rose 4-21 % and the median slice rate fell
/// 17-23 %, while the first-quartile latency moved by at most 6 % and the
/// ninth-decile rate fell 3-6 % (README, "Why quartiles, not medians").
pub const LATENCY_QUANTILE: f64 = 0.25;
pub const RATE_QUANTILE: f64 = 0.90;

/// One client's verified ops in completion order. Five bytes an op: at
/// 70 000 ops/s the log must stay small beside the program's own memory,
/// or `peak_rss_mb` would measure the benchmark.
#[derive(Debug, Default)]
pub struct OpLog {
    latency_ns: Vec<u32>,
    /// Class (template / shape index) in the low 7 bits, [`OpLog::HIT`]
    /// when the reply came from the result cache.
    tag: Vec<u8>,
    /// Slice boundaries: `(ops completed so far, seconds since the
    /// window started)`.
    marks: Vec<(u32, f64)>,
}

impl OpLog {
    const HIT: u8 = 0x80;

    pub fn push(&mut self, class: usize, cache_hit: bool, latency: Duration) {
        debug_assert!(class < Self::HIT as usize);
        self.latency_ns
            .push(latency.as_nanos().min(u32::MAX as u128) as u32);
        self.tag
            .push(class as u8 | if cache_hit { Self::HIT } else { 0 });
    }

    /// Close a slice now (cyclic workloads: one slice per cycle).
    pub fn mark(&mut self, elapsed: Duration) {
        self.marks
            .push((self.latency_ns.len() as u32, elapsed.as_secs_f64()));
    }

    /// Close every fixed-length slice that ended before `elapsed`; call
    /// it when an op completes, before pushing the op.
    pub fn mark_elapsed(&mut self, elapsed: Duration, slice: Duration) {
        while slice * (self.marks.len() as u32 + 1) <= elapsed {
            let end = slice * (self.marks.len() as u32 + 1);
            self.mark(end);
        }
    }

    pub fn len(&self) -> usize {
        self.latency_ns.len()
    }

    fn ms(&self, range: std::ops::Range<usize>) -> impl Iterator<Item = f64> + '_ {
        self.latency_ns[range].iter().map(|&ns| ns as f64 / 1e6)
    }

    /// Latencies (ms) of one class.
    fn class_ms(&self, class: usize) -> Vec<f64> {
        self.ms(0..self.len())
            .zip(&self.tag)
            .filter(|(_, &t)| (t & !Self::HIT) as usize == class)
            .map(|(l, _)| l)
            .collect()
    }

    /// Latencies (s) of the cache hits.
    pub fn hit_latencies_s(&self) -> Vec<f64> {
        self.ms(0..self.len())
            .zip(&self.tag)
            .filter(|(_, &t)| t & Self::HIT != 0)
            .map(|(l, _)| l / 1e3)
            .collect()
    }

    /// `(ops completed, seconds elapsed)` when slice `k` began.
    fn slice_start(&self, k: usize) -> (u32, f64) {
        if k == 0 {
            (0, 0.0)
        } else {
            self.marks[k - 1]
        }
    }
}

/// What one window (warm-up, measured or traced) observed.
#[derive(Debug, Default)]
pub struct Window {
    pub wall_s: f64,
    /// One log per client.
    pub logs: Vec<OpLog>,
    pub attempted: u64,
    pub failed: u64,
    /// Spans of a traced window.
    pub spans: Vec<Span>,
    /// Workload-specific window numbers (write latency, hit round trip…).
    pub extra: Vec<Metric>,
    pub warnings: Vec<String>,
}

impl Window {
    pub fn ops(&self) -> usize {
        self.logs.iter().map(OpLog::len).sum()
    }
}

/// Final checks and whatever only shows after the window.
#[derive(Debug, Default)]
pub struct Finish {
    pub attempted: u64,
    pub failed: u64,
    pub extra: Vec<Metric>,
    pub warnings: Vec<String>,
}

/// A workload: seeded inputs, a timed set-up, a window that can run
/// plain or traced, and final checks.
pub trait Workload: Sized {
    type Inputs;

    /// Build every input from the seed (reported as `gen_s`, not part of
    /// `setup_s`: it is the benchmark's time, not the program's).
    fn generate(cfg: &RunConfig, sizes: &Sizes) -> Self::Inputs;

    /// How often the driver sets up in one run; `setup_s` is the median.
    fn setup_repeats(quick: bool) -> usize;

    /// The timed set-up: only calls into the program.
    fn setup(inputs: &Self::Inputs, cfg: &RunConfig, sizes: &Sizes) -> Self;

    /// Untimed: compute the answers the window checks against.
    fn prepare_checks(&mut self, _inputs: &Self::Inputs) {}

    /// Run ops for `duration`. With `trace_origin` each op goes through
    /// the staged public API inside spans.
    fn window(&mut self, duration: Duration, trace_origin: Option<Instant>) -> Window;

    fn engine(&self) -> &Arc<MosaicEngine>;

    /// Whether ops cycle through equally frequent classes of different
    /// cost. A plain quantile of such a mix sits on the boundary between
    /// two classes and flips between them from run to run, so the latency
    /// quantiles are then means over classes of the per-class quantile.
    fn class_balanced() -> bool;

    /// Release what a set-up holds; runs (untimed) between set-up repeats.
    fn teardown(self) {}

    /// Final checks, then release everything (server threads joined).
    fn finish(self, _inputs: &Self::Inputs) -> Finish {
        Finish::default()
    }
}

/// The latency and rate summaries of a window.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Quantile [`RATE_QUANTILE`] over slices of the ops completed in the
    /// slice (all clients) per second of slice.
    pub ops_per_s: f64,
    /// Median slice rate.
    pub ops_per_s_p50: f64,
    /// Quantile [`LATENCY_QUANTILE`] of the op latencies, ms.
    pub op_p25_ms: f64,
    /// Median op latency, ms.
    pub op_p50_ms: f64,
    /// Percentile `tail_p` of the op latencies, ms.
    pub tail: Tail,
}

/// Summarize a window. With `balanced`, `op_p25_ms` and `op_p50_ms` are
/// the mean over classes of the per-class quantile.
pub fn summarize(win: &Window, balanced: bool, tail_p: f64) -> Summary {
    let slices = win.logs.iter().map(|l| l.marks.len()).min().unwrap_or(0);
    let rates: Vec<f64> = (0..slices)
        .map(|k| {
            win.logs
                .iter()
                .map(|l| {
                    let ((n0, t0), (n1, t1)) = (l.slice_start(k), l.marks[k]);
                    (n1 - n0) as f64 / (t1 - t0)
                })
                .sum()
        })
        .collect();
    let rates = stats::sorted(rates);

    let all = stats::sorted(win.logs.iter().flat_map(|l| l.ms(0..l.len())).collect());
    let classes = win
        .logs
        .iter()
        .flat_map(|l| &l.tag)
        .map(|&t| (t & !OpLog::HIT) as usize + 1)
        .max()
        .unwrap_or(0);
    let per_class: Vec<Vec<f64>> = if balanced {
        (0..classes)
            .map(|c| stats::sorted(win.logs.iter().flat_map(|l| l.class_ms(c)).collect()))
            .filter(|lat: &Vec<f64>| !lat.is_empty())
            .collect()
    } else {
        Vec::new()
    };
    let quantile = |q: f64| {
        if balanced {
            per_class
                .iter()
                .map(|lat| stats::percentile(lat, q))
                .sum::<f64>()
                / per_class.len() as f64
        } else {
            stats::percentile(&all, q)
        }
    };
    Summary {
        ops_per_s: stats::percentile(&rates, RATE_QUANTILE),
        ops_per_s_p50: stats::percentile(&rates, 0.5),
        op_p25_ms: quantile(LATENCY_QUANTILE),
        op_p50_ms: quantile(0.5),
        tail: stats::tail(&all, tail_p),
    }
}

/// Cell-for-cell identity, floats by bit pattern (`Value` equality is
/// total), schemas included.
pub fn tables_identical(a: &Table, b: &Table) -> bool {
    if a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns() {
        return false;
    }
    for c in 0..a.num_columns() {
        let (fa, fb) = (a.schema().field(c), b.schema().field(c));
        if fa.name != fb.name || fa.data_type != fb.data_type {
            return false;
        }
    }
    (0..a.num_columns()).all(|c| columns_identical(a.column(c), b.column(c)))
}

/// Typed comparisons for the common layouts (a full sort returns ~10⁵
/// rows per op, and building a `Value` per cell would cost as much as the
/// query); anything else falls back to `Value` equality.
fn columns_identical(a: &Column, b: &Column) -> bool {
    let n = a.len();
    let nulls_match = (0..n).all(|r| a.is_null(r) == b.is_null(r));
    if !nulls_match {
        return false;
    }
    let live = |r: &usize| !a.is_null(*r);
    if let (Some(x), Some(y)) = (a.i64_data(), b.i64_data()) {
        return (0..n).filter(live).all(|r| x[r] == y[r]);
    }
    if let (Some(x), Some(y)) = (a.f64_data(), b.f64_data()) {
        return (0..n)
            .filter(live)
            .all(|r| x[r].to_bits() == y[r].to_bits());
    }
    if let (Some((x, dx)), Some((y, dy))) = (a.dict_parts(), b.dict_parts()) {
        return (0..n).filter(live).all(|r| dx.get(x[r]) == dy.get(y[r]));
    }
    (0..n).all(|r| a.value(r) == b.value(r))
}

// ------------------------------------------------------------------ /proc

fn status_field(status: &str, key: &str) -> Option<u64> {
    status
        .lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|rest| rest.trim_start_matches(':').split_whitespace().next())
        .and_then(|v| v.parse().ok())
}

fn self_status(key: &str) -> Option<u64> {
    status_field(&std::fs::read_to_string("/proc/self/status").ok()?, key)
}

/// Peak resident set of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    self_status("VmHWM").map_or(f64::NAN, |kb| kb as f64 / 1024.0)
}

/// Threads of this process right now.
pub fn process_threads() -> u64 {
    self_status("Threads").unwrap_or(0)
}

fn ctx_switches_of(status: &str) -> u64 {
    status_field(status, "voluntary_ctxt_switches").unwrap_or(0)
        + status_field(status, "nonvoluntary_ctxt_switches").unwrap_or(0)
}

/// Context switches of the calling thread so far.
pub fn thread_ctx_switches() -> u64 {
    std::fs::read_to_string("/proc/thread-self/status").map_or(0, |s| ctx_switches_of(&s))
}

/// Context switches so far of every thread of this process, by thread id.
pub fn task_ctx_switches() -> Vec<(u64, u64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|e| {
        let e = e.ok()?;
        let tid = e.file_name().to_str()?.parse().ok()?;
        let status = std::fs::read_to_string(e.path().join("status")).ok()?;
        Some((tid, ctx_switches_of(&status)))
    })
    .collect()
}

/// Switches between two [`task_ctx_switches`] snapshots, over the threads
/// alive at both (server threads; client threads add their own deltas).
pub fn ctx_switch_delta(before: &[(u64, u64)], after: &[(u64, u64)]) -> u64 {
    after
        .iter()
        .filter_map(|&(tid, n)| {
            before
                .iter()
                .find(|&&(t, _)| t == tid)
                .map(|&(_, n0)| n.saturating_sub(n0))
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(x: f64) -> Duration {
        Duration::from_secs_f64(x / 1e3)
    }

    #[test]
    fn balanced_quantiles_are_means_over_classes() {
        // Two equally frequent classes at 1 ms and 9 ms, one cycle = one
        // slice of 10 ms: a plain quantile sits on the boundary between
        // the classes, the balanced one in the middle.
        let mut log = OpLog::default();
        for cycle in 1..=50 {
            log.push(0, false, ms(1.0));
            log.push(1, false, ms(9.0));
            log.mark(ms(10.0 * cycle as f64));
        }
        let win = Window {
            wall_s: 0.5,
            logs: vec![log],
            ..Window::default()
        };
        let sum = summarize(&win, true, 0.9);
        assert!((sum.ops_per_s - 200.0).abs() < 1e-6, "{sum:?}");
        assert!((sum.op_p25_ms - 5.0).abs() < 1e-9, "{sum:?}");
        assert!((sum.op_p50_ms - 5.0).abs() < 1e-9, "{sum:?}");
        assert_eq!(sum.tail.value, 9.0);
        let plain = summarize(&win, false, 0.9);
        assert_eq!(plain.op_p25_ms, 1.0);
        assert!(plain.op_p50_ms == 1.0 || plain.op_p50_ms == 9.0);
    }

    #[test]
    fn the_gated_quantiles_shrug_off_a_disturbed_stretch() {
        // Two connections, slices of 0.1 s, 100 ops a slice each at 1 ms
        // (2 % of them at 3 ms) — except in 7 slices of every 10, where an
        // outside disturbance halves the rate and triples the latencies.
        // The medians move; the first-quartile latency and the
        // ninth-decile rate read the undisturbed program.
        let slice = ms(100.0);
        let log = || {
            let mut log = OpLog::default();
            for k in 0..SLICES {
                let disturbed = k % 10 < 7;
                let n = if disturbed { 50 } else { 100 };
                for i in 0..n {
                    let elapsed = slice * k + slice * i / n;
                    log.mark_elapsed(elapsed, slice);
                    let base = if i % 50 == 49 { 3.0 } else { 1.0 };
                    log.push(
                        i as usize % 4,
                        i % 2 == 0,
                        ms(if disturbed { 3.0 * base } else { base }),
                    );
                }
            }
            log.mark_elapsed(slice * SLICES, slice);
            log
        };
        let win = Window {
            wall_s: 7.5,
            logs: vec![log(), log()],
            ..Window::default()
        };
        // 75 slices: 54 disturbed, 21 not.
        assert_eq!(win.ops(), 2 * (21 * 100 + 54 * 50));
        let sum = summarize(&win, false, 0.99);
        assert!(
            (sum.ops_per_s - 2000.0).abs() < 1e-6,
            "undisturbed rate: {sum:?}"
        );
        assert_eq!(sum.op_p25_ms, 1.0);
        assert_eq!(sum.op_p50_ms, 3.0, "most ops are disturbed ones");
        assert_eq!(sum.tail.value, 9.0);
        assert!(sum.tail.beyond >= 10 && sum.tail.warning.is_none());
        assert_eq!(win.logs[0].hit_latencies_s().len(), 21 * 50 + 54 * 25);
    }

    #[test]
    fn proc_status_fields_parse() {
        let s = "Name:\tx\nVmHWM:\t  2048 kB\nThreads:\t7\nvoluntary_ctxt_switches:\t10\nnonvoluntary_ctxt_switches:\t5\n";
        assert_eq!(status_field(s, "VmHWM"), Some(2048));
        assert_eq!(status_field(s, "Threads"), Some(7));
        assert_eq!(ctx_switches_of(s), 15);
        assert_eq!(ctx_switch_delta(&[(1, 10), (2, 5)], &[(1, 14), (3, 99)]), 4);
        assert!(peak_rss_mb() > 0.0);
        assert!(process_threads() >= 1);
    }
}
