//! `closed_scan`: one in-process client cycling through eight query
//! classes over a large fact table with the result cache off, so
//! `core::plan` (morsel executor, aggregate, sort, join) and
//! `storage::kernels` do nearly all the work and `serve`, `core::cache`,
//! `stats` and `swg` none.

use std::sync::Arc;
use std::time::{Duration, Instant};

use mosaic_core::{MosaicEngine, Session, Table};
use mosaic_storage::csv::read_csv_str;

use crate::gen;
use crate::harness::{tables_identical, OpLog, RunConfig, Sizes, Window, Workload};
use crate::trace::Recorder;

/// The eight classes, in cycle order: `(class, SQL)`.
pub const CLASSES: [(&str, &str); 8] = [
    ("count", "SELECT COUNT(*), SUM(i), AVG(f) FROM t"),
    (
        "agg_lowcard",
        "SELECT k, COUNT(*), AVG(f) AS a, MIN(i), MAX(i) FROM t GROUP BY k ORDER BY k",
    ),
    (
        "agg_highcard",
        "SELECT i, COUNT(*) AS c, SUM(f) AS s FROM t GROUP BY i ORDER BY i",
    ),
    (
        "filter_agg",
        "SELECT k, SUM(i) AS s FROM t WHERE i > 0 AND f < 1000.0 GROUP BY k \
         ORDER BY s DESC, k LIMIT 5",
    ),
    (
        "topk",
        "SELECT k, i, f FROM t ORDER BY f DESC, i, k LIMIT 50",
    ),
    // About a tenth of the rows survive the filter and all are returned.
    (
        "sort_full",
        "SELECT i, f, k FROM t WHERE i > 600 ORDER BY f, i, k",
    ),
    (
        "join_agg",
        "SELECT d.grp AS grp, COUNT(*) AS c, SUM(t.i) AS s FROM t JOIN d ON t.k = d.k \
         GROUP BY d.grp ORDER BY grp",
    ),
    (
        "join_topk",
        "SELECT t.k, d.boost, t.i FROM t JOIN d ON t.k = d.k WHERE t.i > 200 \
         ORDER BY t.i DESC, t.k, d.boost LIMIT 30",
    ),
];

pub struct Inputs {
    fact_csv: String,
    dim_csv: String,
}

pub struct ClosedScan {
    engine: Arc<MosaicEngine>,
    session: Session,
    expected: Vec<Table>,
}

/// A fresh engine holding `t` and `d`, ingested from CSV text.
pub fn engine_with_tables(fact_csv: &str, dim_csv: &str) -> Arc<MosaicEngine> {
    let engine = Arc::new(MosaicEngine::new());
    let fact = read_csv_str(fact_csv).expect("generated fact CSV parses");
    let dim = read_csv_str(dim_csv).expect("generated dim CSV parses");
    engine.register_table("t", fact).expect("register t");
    engine.register_table("d", dim).expect("register d");
    engine
}

/// The oracle every response is compared with: serial, unoptimized,
/// uncached execution of the same statements.
pub fn reference_session(engine: &Arc<MosaicEngine>) -> Session {
    engine
        .session()
        .with_parallelism(1)
        .with_optimizer(false)
        .with_result_cache(false)
}

impl Workload for ClosedScan {
    type Inputs = Inputs;

    fn generate(cfg: &RunConfig, sizes: &Sizes) -> Inputs {
        Inputs {
            fact_csv: gen::fact_csv(sizes.scan_rows, cfg.seed),
            dim_csv: gen::dim_csv(),
        }
    }

    fn setup_repeats(_quick: bool) -> usize {
        3
    }

    fn setup(inputs: &Inputs, _cfg: &RunConfig, _sizes: &Sizes) -> ClosedScan {
        let engine = engine_with_tables(&inputs.fact_csv, &inputs.dim_csv);
        let session = engine.session().with_result_cache(false);
        ClosedScan {
            engine,
            session,
            expected: Vec::new(),
        }
    }

    fn prepare_checks(&mut self, _inputs: &Inputs) {
        let reference = reference_session(&self.engine);
        self.expected = CLASSES
            .iter()
            .map(|(_, sql)| {
                reference
                    .query(sql)
                    .expect("class runs on the reference path")
            })
            .collect();
    }

    fn window(&mut self, duration: Duration, trace_origin: Option<Instant>) -> Window {
        let mut win = Window::default();
        let mut log = OpLog::default();
        let mut rec = trace_origin.map(|o| Recorder::new(o, 0));
        let start = Instant::now();
        // Whole cycles only, so every class weighs the same in the window;
        // each cycle is one slice.
        while start.elapsed() < duration {
            for (class, (_, sql)) in CLASSES.iter().enumerate() {
                win.attempted += 1;
                let t0 = Instant::now();
                let result = match rec.as_mut() {
                    None => self.session.execute(sql).map(|r| r.table),
                    Some(rec) => staged(rec, &self.session, sql, &[]),
                };
                let latency = t0.elapsed();
                match result {
                    Ok(t) if tables_identical(&t, &self.expected[class]) => {
                        log.push(class, false, latency)
                    }
                    _ => win.failed += 1,
                }
            }
            log.mark(start.elapsed());
        }
        win.logs.push(log);
        win.wall_s = start.elapsed().as_secs_f64();
        win.spans = rec.map(|r| r.spans).unwrap_or_default();
        win
    }

    fn engine(&self) -> &Arc<MosaicEngine> {
        &self.engine
    }

    fn class_balanced() -> bool {
        true
    }
}

/// One in-process op through the staged public API, so the layer
/// boundaries show from outside: `op` ⊃ `sql.parse` → `core.prepare` →
/// `core.execute`. (`Session::prepare` parses again internally; the
/// separate parse span is what lets its share be subtracted.)
pub fn staged(
    rec: &mut Recorder,
    session: &Session,
    sql: &str,
    params: &[mosaic_core::Value],
) -> mosaic_core::Result<Table> {
    let trace = rec.new_trace();
    rec.span(trace, None, "op", |rec, op| {
        rec.span(trace, Some(op), "sql.parse", |_, _| mosaic_sql::parse(sql))?;
        let prepared = rec.span(trace, Some(op), "core.prepare", |_, _| session.prepare(sql))?;
        rec.span(trace, Some(op), "core.execute", |_, _| {
            session.query_prepared(&prepared, params)
        })
    })
}
