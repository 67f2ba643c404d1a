//! `mosaicbench compare <a.json…> -- <b.json…>`: per (workload, metric),
//! each side's median and quartiles and a verdict against the metric's
//! bound. Inputs are the files `--out` appends to: one JSON object per
//! line with `workload` and `metrics`.

use std::collections::BTreeMap;

use crate::json::{self, Json};
use crate::spec::{MetricSpec, END_TO_END};
use crate::stats::quartiles;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    WithinBound,
    Regressed,
    Improved,
    /// A side's own inter-quartile spread exceeds the bound, so the two
    /// medians cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::WithinBound => "within-bound",
            Verdict::Regressed => "regressed",
            Verdict::Improved => "improved",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Quartiles of each side and the verdict of `b` against `a` (the
/// parent). Each side needs at least two runs.
pub fn judge(spec: &MetricSpec, a: &[f64], b: &[f64]) -> Option<([f64; 3], [f64; 3], Verdict)> {
    let (qa, qb) = (quartiles(a)?, quartiles(b)?);
    let bound = spec.bound?;
    let spread = |q: &[f64; 3]| (q[2] - q[0]) / q[1].abs();
    // Positive = b is worse than a, as a share of a's median.
    let worse = match spec.better {
        "higher" => (qa[1] - qb[1]) / qa[1].abs(),
        _ => (qb[1] - qa[1]) / qa[1].abs(),
    };
    let verdict = if spread(&qa) > bound || spread(&qb) > bound {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else if worse < -bound {
        Verdict::Improved
    } else {
        Verdict::WithinBound
    };
    Some((qa, qb, verdict))
}

type Samples = BTreeMap<(String, String), Vec<f64>>;

/// `(workload, metric) → values` over every line of every file.
fn load(paths: &[String]) -> Result<Samples, String> {
    let mut out = Samples::new();
    for path in paths {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let doc = json::parse(line).map_err(|e| format!("{path}: {e}"))?;
            let workload = doc
                .get("workload")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{path}: a line has no workload"))?;
            let metrics = doc
                .get("metrics")
                .and_then(Json::as_obj)
                .ok_or_else(|| format!("{path}: a line has no metrics"))?;
            for (name, m) in metrics {
                if let Some(v) = m.get("value").and_then(Json::as_f64) {
                    out.entry((workload.to_string(), name.clone()))
                        .or_default()
                        .push(v);
                }
            }
        }
    }
    Ok(out)
}

/// Prints the table; returns whether any pair regressed or is unresolved.
pub fn run(args: &[String]) -> Result<bool, String> {
    let split = args
        .iter()
        .position(|a| a == "--")
        .ok_or("usage: mosaicbench compare <a.json...> -- <b.json...>")?;
    let (a, b) = (load(&args[..split])?, load(&args[split + 1..])?);
    let mut bad = false;
    println!(
        "{:<12} {:<12} {:>36} {:>36}  verdict",
        "workload", "metric", "a: q1 / median / q3", "b: q1 / median / q3"
    );
    for ((workload, metric), va) in &a {
        let Some(spec) = END_TO_END.iter().find(|s| s.name == metric) else {
            continue;
        };
        let Some(vb) = b.get(&(workload.clone(), metric.clone())) else {
            continue;
        };
        let Some((qa, qb, verdict)) = judge(spec, va, vb) else {
            println!("{workload:<12} {metric:<12} needs two runs a side");
            bad = true;
            continue;
        };
        let q = |q: [f64; 3]| format!("{:.4} / {:.4} / {:.4}", q[0], q[1], q[2]);
        println!(
            "{workload:<12} {metric:<12} {:>36} {:>36}  {} (bound {}%, n={}+{})",
            q(qa),
            q(qb),
            verdict.as_str(),
            spec.bound.unwrap_or(0.0) * 100.0,
            va.len(),
            vb.len()
        );
        bad |= matches!(verdict, Verdict::Regressed | Verdict::Unresolved);
    }
    Ok(bad)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(better: &'static str) -> MetricSpec {
        MetricSpec {
            name: "m",
            unit: "ms",
            better,
            bound: Some(0.10),
        }
    }

    fn around(center: f64, spread: f64) -> Vec<f64> {
        (0..10)
            .map(|i| center * (1.0 + spread * (i as f64 - 4.5) / 4.5))
            .collect()
    }

    #[test]
    fn verdicts_cover_all_four_cases() {
        let verdict = |s: &MetricSpec, a: &[f64], b: &[f64]| judge(s, a, b).unwrap().2;
        let lower = spec("lower");
        let base = around(100.0, 0.02);
        assert_eq!(
            verdict(&lower, &base, &around(104.0, 0.02)),
            Verdict::WithinBound
        );
        assert_eq!(
            verdict(&lower, &base, &around(115.0, 0.02)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&lower, &base, &around(85.0, 0.02)),
            Verdict::Improved
        );
        // A side whose own quartiles are further apart than the bound
        // cannot resolve a 10 % difference, whatever the medians say.
        assert_eq!(
            verdict(&lower, &base, &around(115.0, 0.30)),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&lower, &around(100.0, 0.30), &base),
            Verdict::Unresolved
        );
        // Direction flips for throughput.
        let higher = spec("higher");
        assert_eq!(
            verdict(&higher, &base, &around(85.0, 0.02)),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&higher, &base, &around(115.0, 0.02)),
            Verdict::Improved
        );
        assert!(judge(&lower, &[1.0], &base).is_none());
    }
}
