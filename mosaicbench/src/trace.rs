//! The traced run's span recorder. It lives in the benchmark: spans wrap
//! the calls *into* each layer's public API, nothing inside the crates is
//! instrumented. Spans are kept in memory and written out once, after
//! the window.

use std::collections::HashMap;
use std::io::Write;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Spans of one op share a trace id.
    pub trace_id: u64,
    pub span_id: u64,
    /// The span that caused this one (`None` for an op's root).
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// One thread's recorder; wire workloads give each connection its own
/// (with a distinct `id_base`) and merge them after the window.
pub struct Recorder {
    origin: Instant,
    next_id: u64,
    pub spans: Vec<Span>,
}

impl Recorder {
    /// `origin` is shared by all recorders of a run so their timestamps
    /// are comparable; `id_base` keeps span and trace ids disjoint.
    pub fn new(origin: Instant, id_base: u64) -> Recorder {
        Recorder {
            origin,
            next_id: id_base,
            spans: Vec::new(),
        }
    }

    /// Start a new trace (one op); returns its id.
    pub fn new_trace(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Run `f` inside a span. The closure gets the recorder back (to open
    /// child spans) and the new span's id (to name as their parent).
    pub fn span<T>(
        &mut self,
        trace_id: u64,
        parent: Option<u64>,
        name: &'static str,
        f: impl FnOnce(&mut Recorder, u64) -> T,
    ) -> T {
        self.next_id += 1;
        let span_id = self.next_id;
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        let out = f(self, span_id);
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            trace_id,
            span_id,
            parent,
            name,
            start_ns,
            end_ns,
        });
        out
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `children`
/// intervals (clipped to the parent; overlapping children count once).
pub fn covered_ns(start: u64, end: u64, children: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = children
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|(s, e)| e > s)
        .collect();
    clipped.sort_unstable();
    let mut covered = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            covered += e - s;
            cursor = e;
        }
    }
    covered
}

/// Self time per span: its duration minus the part of that interval its
/// direct children cover. Keyed by span id.
pub fn self_times(spans: &[Span]) -> HashMap<u64, u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.span_id)
                .map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            (s.span_id, s.duration_ns() - covered)
        })
        .collect()
}

/// Per span name, over the traces (ops) in which it occurs: the median of
/// the per-trace total duration and total self time. A name that occurs
/// several times in one trace — one `serve.response_decode` per frame —
/// is summed within the trace first, so the numbers are per op.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameSummary {
    pub spans: usize,
    pub median_ns: f64,
    pub median_self_ns: f64,
}

pub fn summarize(spans: &[Span]) -> HashMap<&'static str, NameSummary> {
    let selfs = self_times(spans);
    let mut per_trace: HashMap<(&'static str, u64), (usize, f64, f64)> = HashMap::new();
    for s in spans {
        let e = per_trace.entry((s.name, s.trace_id)).or_default();
        e.0 += 1;
        e.1 += s.duration_ns() as f64;
        e.2 += selfs[&s.span_id] as f64;
    }
    let mut by_name: HashMap<&'static str, (usize, Vec<f64>, Vec<f64>)> = HashMap::new();
    for ((name, _), (n, total, own)) in per_trace {
        let e = by_name.entry(name).or_default();
        e.0 += n;
        e.1.push(total);
        e.2.push(own);
    }
    by_name
        .into_iter()
        .map(|(name, (spans, total, own))| {
            (
                name,
                NameSummary {
                    spans,
                    median_ns: crate::stats::median(&total),
                    median_self_ns: crate::stats::median(&own),
                },
            )
        })
        .collect()
}

/// One JSON object per line: the span fields, then a final line of
/// counters.
pub fn write_jsonl(
    path: &std::path::Path,
    spans: &[Span],
    counters: &[(String, f64)],
) -> std::io::Result<()> {
    use crate::json::Json;
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let line = Json::Obj(vec![
            ("trace_id".into(), Json::Num(s.trace_id as f64)),
            ("span_id".into(), Json::Num(s.span_id as f64)),
            (
                "parent".into(),
                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
            ),
            ("name".into(), Json::Str(s.name.into())),
            ("start_ns".into(), Json::Num(s.start_ns as f64)),
            ("end_ns".into(), Json::Num(s.end_ns as f64)),
        ]);
        writeln!(w, "{}", line.render())?;
    }
    let counters = Json::Obj(vec![(
        "counters".into(),
        Json::Obj(
            counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        ),
    )]);
    writeln!(w, "{}", counters.render())?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            trace_id: 1,
            span_id: id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // op [0,100) ⊃ prepare [10,40) ⊃ parse [15,25); execute [40,90).
        let spans = [
            span(1, None, "op", 0, 100),
            span(2, Some(1), "core.prepare", 10, 40),
            span(3, Some(2), "sql.parse", 15, 25),
            span(4, Some(1), "core.execute", 40, 90),
        ];
        let st = self_times(&spans);
        assert_eq!(
            st[&1],
            100 - 30 - 50,
            "grandchildren are not subtracted twice"
        );
        assert_eq!(st[&2], 30 - 10);
        assert_eq!(st[&3], 10);
        assert_eq!(st[&4], 50);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Two connections' round trips overlap inside one parent, one
        // child pokes out past the parent's end.
        assert_eq!(covered_ns(0, 100, &[(10, 60), (40, 80)]), 70);
        assert_eq!(covered_ns(0, 100, &[(90, 150), (95, 99)]), 10);
        assert_eq!(covered_ns(50, 100, &[(0, 10)]), 0);
        let spans = [
            span(1, None, "op", 0, 100),
            span(2, Some(1), "a", 10, 60),
            span(3, Some(1), "b", 40, 80),
            span(4, Some(1), "c", 20, 30),
        ];
        assert_eq!(self_times(&spans)[&1], 30);
    }

    #[test]
    fn recorder_nests_spans_and_children_fit_their_parent() {
        let mut rec = Recorder::new(Instant::now(), 1000);
        let trace = rec.new_trace();
        let out = rec.span(trace, None, "op", |rec, op| {
            rec.span(trace, Some(op), "sql.parse", |_, _| 1)
                + rec.span(trace, Some(op), "core.execute", |_, _| 2)
        });
        assert_eq!(out, 3);
        assert_eq!(rec.spans.len(), 3);
        let op = rec.spans.iter().find(|s| s.name == "op").unwrap();
        for child in rec.spans.iter().filter(|s| s.parent == Some(op.span_id)) {
            assert_eq!(child.trace_id, trace);
            assert!(child.start_ns >= op.start_ns && child.end_ns <= op.end_ns);
        }
        let summary = summarize(&rec.spans);
        assert_eq!(summary["op"].spans, 1);
        assert!(summary["op"].median_self_ns <= summary["op"].median_ns);
    }

    #[test]
    fn summary_sums_repeated_names_within_a_trace() {
        // Trace 1 decodes three frames (10 + 20 + 30), trace 2 one (40).
        let mut spans = vec![
            span(2, Some(1), "serve.response_decode", 0, 10),
            span(3, Some(1), "serve.response_decode", 10, 30),
            span(4, Some(1), "serve.response_decode", 30, 60),
        ];
        spans.push(Span {
            trace_id: 2,
            ..span(6, Some(5), "serve.response_decode", 100, 140)
        });
        let s = summarize(&spans)["serve.response_decode"];
        assert_eq!(s.spans, 4);
        assert_eq!(s.median_ns, 50.0, "median of the per-op totals 60 and 40");
    }
}
