//! `mosaicbench` — the repository's benchmark.
//!
//! ```text
//! mosaicbench --workload <closed_scan|serve_hot|serve_rw|semi_open|open|all>
//!             [--seed <u64>] [--seconds <s>] [--trace <0|1>]
//!             [--trace-dir <dir>] [--out <file>] [--quick]
//! mosaicbench compare <a.json…> -- <b.json…>
//! ```
//!
//! One run: seeded inputs → set-up (several times, median reported) →
//! warm-up → a measured window → output checks. `--trace 0` prints the
//! end-to-end metrics; `--trace 1` repeats the window through the staged
//! public API under an in-memory span recorder, runs the per-layer
//! probes and prints the per-layer metrics. Every number is printed as
//! `<workload> <metric> <value> <unit>`; the last line of standard output
//! is the JSON result. The exit code is non-zero if any check failed.
//! `all` runs each workload in a child process, so every workload gets a
//! fresh engine and its own peak RSS. See README.md beside Cargo.toml.

mod closed_scan;
mod compare;
mod flights;
mod gen;
mod harness;
mod json;
mod probes;
mod run;
mod serve;
mod spec;
mod stats;
mod trace;

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use harness::{RunConfig, WorkloadName};
use json::Json;

/// Default `--seed`; `BENCHMARK.json`'s driver passes its own.
const DEFAULT_SEED: u64 = 20_200_112;
/// Default `--seconds`: `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 15.0;

struct Cli {
    /// `None` = all five, each in a child process.
    workload: Option<WorkloadName>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    trace_dir: Option<PathBuf>,
    out: Option<PathBuf>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
        trace_dir: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                cli.workload = match v.as_str() {
                    "all" => None,
                    name => {
                        Some(WorkloadName::parse(name).ok_or(format!("unknown workload {name}"))?)
                    }
                }
            }
            "--seed" => cli.seed = value()?.parse().map_err(|_| "--seed takes a u64")?,
            "--seconds" => {
                cli.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--trace-dir" => cli.trace_dir = Some(value()?.into()),
            "--out" => cli.out = Some(value()?.into()),
            "--quick" => cli.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(cli)
}

/// Run one workload in this process and print its report; returns
/// whether every check passed.
fn run_one(cli: &Cli, workload: WorkloadName) -> Result<bool, String> {
    let cfg = RunConfig {
        workload,
        seed: cli.seed,
        seconds: cli.seconds,
        trace: cli.trace,
        quick: cli.quick,
        trace_dir: cli.trace_dir.clone(),
    };
    eprintln!(
        "mosaicbench: {} seed={} seconds={} trace={} nproc={} engine_parallelism={}",
        workload.as_str(),
        cfg.seed,
        cfg.seconds,
        cfg.trace as u8,
        std::thread::available_parallelism().map_or(0, |n| n.get()),
        mosaic_core::default_parallelism(),
    );
    let outcome = run::run(&cfg);
    let document = outcome.document();
    if let Some(path) = &cli.out {
        let Json::Obj(mut fields) = document.clone() else {
            unreachable!("the result document is an object");
        };
        fields.insert(0, ("workload".into(), Json::Str(workload.as_str().into())));
        fields.insert(1, ("seed".into(), Json::Num(cfg.seed as f64)));
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        writeln!(file, "{}", Json::Obj(fields).render())
            .map_err(|e| format!("{}: {e}", path.display()))?;
    }
    let mut stdout = std::io::stdout().lock();
    for line in outcome.lines() {
        writeln!(stdout, "{line}").map_err(|e| e.to_string())?;
    }
    writeln!(stdout, "{}", document.render()).map_err(|e| e.to_string())?;
    Ok(outcome.correct())
}

/// `--workload all`: one child per workload, output passed through.
fn run_all(args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut passthrough: Vec<String> = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--workload" {
            it.next();
        } else {
            passthrough.push(a.clone());
        }
    }
    let mut ok = true;
    for w in WorkloadName::ALL {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w.as_str()])
            .args(&passthrough)
            .status()
            .map_err(|e| format!("cannot start the {} child: {e}", w.as_str()))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = if args.first().map(String::as_str) == Some("compare") {
        compare::run(&args[1..]).map(|bad| !bad)
    } else {
        parse_cli(&args).and_then(|cli| match cli.workload {
            Some(w) => run_one(&cli, w),
            None => run_all(&args),
        })
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("mosaicbench: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{END_TO_END, PER_LAYER};

    #[test]
    fn cli_takes_the_contract_flags() {
        let args: Vec<String> = "--workload serve_rw --seed 7 --seconds 2.5 --trace 1"
            .split(' ')
            .map(String::from)
            .collect();
        let cli = parse_cli(&args).unwrap();
        assert_eq!(cli.workload, Some(WorkloadName::ServeRw));
        assert_eq!((cli.seed, cli.seconds, cli.trace), (7, 2.5, true));
        assert!(parse_cli(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_cli(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_cli(&["--seconds".into(), "0".into()]).is_err());
        assert!(parse_cli(&[]).unwrap().workload.is_none());
    }

    /// The smoke test: all five workloads end to end in `--quick` mode,
    /// untraced and traced. The emitted JSON must parse, carry exactly the
    /// catalogue's metrics with their units, all finite, and nothing may
    /// fail.
    #[test]
    fn quick_mode_runs_every_workload_end_to_end() {
        // Inside the package (under the ignored target/), never outside the checkout.
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("target/smoke-trace-{}", std::process::id()));
        let mut nonzero = std::collections::HashSet::new();
        for workload in WorkloadName::ALL {
            for trace in [false, true] {
                let outcome = run::run(&RunConfig {
                    workload,
                    seed: 11,
                    seconds: 0.3,
                    trace,
                    quick: true,
                    trace_dir: trace.then(|| dir.clone()),
                });
                let what = format!("{} trace={trace}", workload.as_str());
                assert_eq!(outcome.failed, 0, "{what}: {:?}", outcome.warnings);
                assert!(outcome.attempted > 0, "{what}");
                let doc = json::parse(&outcome.document().render()).unwrap();
                let keys: Vec<&str> = doc
                    .as_obj()
                    .unwrap()
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                assert_eq!(
                    keys,
                    ["correct", "attempted", "failed", "metrics"],
                    "{what}"
                );
                assert_eq!(doc.get("correct"), Some(&Json::Bool(true)), "{what}");
                let metrics = doc.get("metrics").and_then(Json::as_obj).unwrap();
                let catalogue: &[spec::MetricSpec] = if trace { &PER_LAYER } else { &END_TO_END };
                let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                let wanted: Vec<&str> = catalogue.iter().map(|s| s.name).collect();
                assert_eq!(names, wanted, "{what}");
                for ((name, m), spec) in metrics.iter().zip(catalogue) {
                    let value = m.get("value").and_then(Json::as_f64);
                    assert!(
                        value.is_some_and(f64::is_finite),
                        "{what}: {name} = {value:?}"
                    );
                    assert_eq!(
                        m.get("unit").and_then(Json::as_str),
                        Some(spec.unit),
                        "{name}"
                    );
                    if !trace {
                        assert!(value.unwrap() > 0.0, "{what}: {name} must never be 0");
                    } else if value.unwrap() != 0.0 {
                        nonzero.insert(name.clone());
                    }
                }
                if trace {
                    let file = dir.join(format!("{}.jsonl", workload.as_str()));
                    let text = std::fs::read_to_string(&file).unwrap();
                    let lines: Vec<Json> = text.lines().map(|l| json::parse(l).unwrap()).collect();
                    assert!(lines.len() > 10, "{what}: span file is short");
                    // Every child lies inside its parent's interval.
                    let num = |s: &Json, k: &str| s.get(k).and_then(Json::as_f64);
                    let bounds: std::collections::HashMap<u64, (f64, f64)> = lines
                        .iter()
                        .filter_map(|s| {
                            let id = num(s, "span_id")? as u64;
                            Some((id, (num(s, "start_ns")?, num(s, "end_ns")?)))
                        })
                        .collect();
                    for s in &lines {
                        let Some(parent) = num(s, "parent") else {
                            continue;
                        };
                        let (p0, p1) = bounds[&(parent as u64)];
                        let (c0, c1) = (num(s, "start_ns").unwrap(), num(s, "end_ns").unwrap());
                        assert!(p0 <= c0 && c1 <= p1, "{what}: a child span pokes out");
                    }
                }
            }
        }
        // Every per-layer metric is live on at least one workload (the
        // counters below legitimately stay 0 when nothing goes wrong).
        let may_stay_zero = [
            "core.cache.evictions",
            "serve.server.rejected",
            "serve.server.threads_after",
        ];
        for spec in &PER_LAYER {
            assert!(
                nonzero.contains(spec.name) || may_stay_zero.contains(&spec.name),
                "{} reads 0 on every workload",
                spec.name
            );
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
