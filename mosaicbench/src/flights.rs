//! `semi_open` and `open`: one in-process client asking the paper's
//! Table-2 query shapes over a flights-shaped population it only holds a
//! biased sample of. On `semi_open` IPF is re-fitted on every query, so
//! `stats::ipf` does most of the work; on `open` the M-SWG is fitted once
//! (in set-up) and every op generates and queries ten replicates, so
//! `swg` and the replicate loop in `core::engine` do. The result cache is
//! off on both.

use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mosaic_core::{
    EngineOptions, MosaicEngine, OpenBackend, OpenOptions, Prepared, Session, Statement, Table,
    Value,
};

use crate::closed_scan::staged;
use crate::gen::{self, Flights, SplitMix, SHAPES};
use crate::harness::{tables_identical, Finish, Metric, OpLog, RunConfig, Sizes, Window, Workload};
use crate::trace::Recorder;

/// Mean percent error of Q1–Q4 allowed against the generator's full
/// population, fixed after calibrating on seeds 1–12, 101, 202 and 303
/// with 10 s windows (observed: SEMI-OPEN 0.4–1.8 %, OPEN 30.8–33.1 % —
/// 15 epochs underfit, but the number is stable): a "speed-up" that
/// breaks debiasing fails the run.
const SEMI_OPEN_ERROR_CEILING: f64 = 5.0;
const OPEN_ERROR_CEILING: f64 = 40.0;

/// The population and its sample declared, metadata attached, sample
/// ingested — the paper's §3 set-up through the programmatic API.
pub fn engine_with_flights(data: &Flights, options: EngineOptions) -> Arc<MosaicEngine> {
    let engine = Arc::new(MosaicEngine::with_options(options));
    engine
        .session()
        .execute(
            "CREATE GLOBAL POPULATION Flights (carrier TEXT, taxi_out INT, taxi_in INT, \
             elapsed_time INT, distance INT); \
             CREATE SAMPLE FlightSample AS (SELECT * FROM Flights);",
        )
        .expect("flights DDL");
    for (i, m) in data.marginals.iter().enumerate() {
        engine
            .add_metadata(&format!("Flights_M{i}"), "Flights", m.clone())
            .expect("metadata attaches");
    }
    for (attr, binner) in &data.binners {
        engine.register_binner(attr, binner.clone());
    }
    engine
        .ingest_sample("FlightSample", data.sample.clone())
        .expect("sample ingests");
    engine
}

pub fn open_options(swg: &mosaic_core::SwgConfig) -> EngineOptions {
    EngineOptions::default().with_open(
        OpenOptions::default()
            .with_backend(OpenBackend::Swg(swg.clone()))
            .with_num_generated(10),
    )
}

/// `SELECT <visibility> <shape body>` with the cut-off still a `?`.
pub fn shape_sql(visibility: &str, shape: &gen::Shape) -> String {
    format!("SELECT {visibility} {}", shape.body)
}

/// Flatten an aggregate answer to `(group, value)` pairs (no group for a
/// scalar aggregate): the last column is the aggregate.
fn flatten(t: &Table) -> Vec<(Option<String>, f64)> {
    let val = t.num_columns() - 1;
    (0..t.num_rows())
        .filter_map(|r| {
            let key = (val > 0).then(|| t.value(r, 0).to_string());
            t.value(r, val).as_f64().map(|v| (key, v))
        })
        .collect()
}

/// Mean percent difference over the truth's groups; a missing group
/// counts 100 %.
fn percent_error(estimate: &Table, truth: &Table) -> f64 {
    let est: HashMap<Option<String>, f64> = flatten(estimate).into_iter().collect();
    let truth = flatten(truth);
    if truth.is_empty() {
        return 0.0;
    }
    truth
        .iter()
        .map(|(k, t)| {
            est.get(k)
                .map_or(100.0, |e| mosaic_stats::percent_diff(*e, *t))
        })
        .sum::<f64>()
        / truth.len() as f64
}

pub struct FlightsWorkload<const OPEN: bool> {
    engine: Arc<MosaicEngine>,
    session: Session,
    prepared: Vec<Prepared>,
    /// The first answer seen per `(shape, cut-off)`: every later answer to
    /// the same request must repeat it bit for bit.
    first_answers: HashMap<(usize, i64), Table>,
    requests: SplitMix,
    next_shape: usize,
}

pub type SemiOpen = FlightsWorkload<false>;
pub type Open = FlightsWorkload<true>;

impl<const OPEN: bool> FlightsWorkload<OPEN> {
    fn visibility() -> &'static str {
        if OPEN {
            "OPEN"
        } else {
            "SEMI-OPEN"
        }
    }

    /// Record or check one answer; true when it is acceptable.
    fn verify(&mut self, shape: usize, cutoff: i64, answer: Table) -> bool {
        match self.first_answers.get(&(shape, cutoff)) {
            Some(first) => tables_identical(first, &answer),
            None => {
                self.first_answers.insert((shape, cutoff), answer);
                true
            }
        }
    }
}

impl<const OPEN: bool> Workload for FlightsWorkload<OPEN> {
    type Inputs = Flights;

    fn generate(cfg: &RunConfig, sizes: &Sizes) -> Flights {
        let population = if OPEN {
            sizes.open_population
        } else {
            sizes.semi_open_population
        };
        gen::flights(
            population,
            sizes.sample_fraction,
            sizes.marginal_bins,
            cfg.seed,
        )
    }

    fn setup_repeats(quick: bool) -> usize {
        // SEMI-OPEN sets up in ~0.1 s, so more repeats steady its median;
        // OPEN's set-up fits the model, seconds each time.
        match (OPEN, quick) {
            (_, true) => 2,
            (true, false) => 3,
            (false, false) => 7,
        }
    }

    /// Declare, attach, ingest, prepare the eight shapes and answer each
    /// once: lazy work (on OPEN the M-SWG fit behind the first query)
    /// lands here, not in the measured window.
    fn setup(inputs: &Flights, cfg: &RunConfig, sizes: &Sizes) -> Self {
        let options = if OPEN {
            open_options(&sizes.open_swg)
        } else {
            EngineOptions::default()
        };
        let engine = engine_with_flights(inputs, options);
        // The OPEN session seed is derived from the run seed; the engine
        // never sees the run seed itself.
        let session = engine
            .session()
            .with_result_cache(false)
            .with_seed(SplitMix::stream(cfg.seed, "open-session").next_u64());
        let prepared: Vec<Prepared> = SHAPES
            .iter()
            .map(|s| {
                session
                    .prepare(&shape_sql(Self::visibility(), s))
                    .expect("shape prepares")
            })
            .collect();
        let mut this = FlightsWorkload {
            engine,
            session,
            prepared,
            first_answers: HashMap::new(),
            requests: SplitMix::stream(cfg.seed, "requests"),
            next_shape: 0,
        };
        for (i, s) in SHAPES.iter().enumerate() {
            let answer = this
                .session
                .query_prepared(&this.prepared[i], &[Value::Int(s.cutoffs[0])])
                .expect("first answer of a shape");
            this.first_answers.insert((i, s.cutoffs[0]), answer);
        }
        this
    }

    fn window(&mut self, duration: Duration, trace_origin: Option<Instant>) -> Window {
        let mut win = Window::default();
        let mut log = OpLog::default();
        let mut rec = trace_origin.map(|o| Recorder::new(o, 0));
        let start = Instant::now();
        // Whole cycles over the eight shapes; each cycle is one slice.
        while start.elapsed() < duration || self.next_shape != 0 {
            let shape = self.next_shape;
            self.next_shape = (shape + 1) % SHAPES.len();
            let cutoff = SHAPES[shape].cutoffs[self.requests.below(4)];
            let params = [Value::Int(cutoff)];
            win.attempted += 1;
            let t0 = Instant::now();
            let result = match rec.as_mut() {
                None => self.session.query_prepared(&self.prepared[shape], &params),
                Some(rec) => staged(
                    rec,
                    &self.session,
                    &shape_sql(Self::visibility(), &SHAPES[shape]),
                    &params,
                ),
            };
            let latency = t0.elapsed();
            if result.is_ok_and(|answer| self.verify(shape, cutoff, answer)) {
                log.push(shape, false, latency);
            } else {
                win.failed += 1;
            }
            if self.next_shape == 0 {
                log.mark(start.elapsed());
            }
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

    /// Accuracy: every answered request against the same query over the
    /// generator's full population.
    fn finish(self, inputs: &Flights) -> Finish {
        let mut errors: Vec<Vec<f64>> = vec![Vec::new(); SHAPES.len()];
        for (&(shape, cutoff), answer) in &self.first_answers {
            let sql = format!("SELECT {}", SHAPES[shape].body).replace('?', &cutoff.to_string());
            let Some(Statement::Select(stmt)) =
                mosaic_core::parse(&sql).expect("shape parses").pop()
            else {
                unreachable!("shapes are SELECTs");
            };
            let truth = mosaic_core::run_select(&stmt, &inputs.population, None)
                .expect("shape runs over the population");
            errors[shape].push(percent_error(answer, &truth));
        }
        let mean = |shapes: std::ops::Range<usize>| {
            let all: Vec<f64> = errors[shapes].iter().flatten().copied().collect();
            all.iter().sum::<f64>() / all.len().max(1) as f64
        };
        let (scalar, grouped) = (mean(0..4), mean(4..8));
        let ceiling = if OPEN {
            OPEN_ERROR_CEILING
        } else {
            SEMI_OPEN_ERROR_CEILING
        };
        let mut finish = Finish {
            attempted: 1,
            failed: (scalar.is_nan() || scalar > ceiling) as u64,
            ..Finish::default()
        };
        if finish.failed > 0 {
            finish.warnings.push(format!(
                "mean error on Q1-Q4 is {scalar:.2} %, above the {ceiling} % ceiling"
            ));
        }
        finish.extra = vec![
            Metric::new("error_q1_q4_pct", scalar, "%").with_note("vs full population"),
            Metric::new("error_q5_q8_pct", grouped, "%")
                .with_note("informational: rare carriers can be absent from the sample"),
        ];
        finish
    }
}
