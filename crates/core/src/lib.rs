//! # mosaic-core
//!
//! **Mosaic** — a sample-based database system for open-world query
//! processing (Orr, Ainsworth, Cai, Jamieson, Balazinska, Suciu;
//! CIDR 2020).
//!
//! Traditional DBMSs make the *closed world assumption*: a tuple not in
//! the database does not exist. Data scientists analysing biased samples
//! need the opposite — the *open world assumption* — plus machinery to
//! debias samples whose sampling mechanism is unknown. Mosaic provides:
//!
//! * a sample-oriented data model: population, sample, and auxiliary
//!   relations plus population metadata (marginals) — see [`catalog`],
//! * SQL extensions to declare them (`CREATE [GLOBAL] POPULATION`,
//!   `CREATE SAMPLE … USING MECHANISM`, `CREATE METADATA`) — parsed by
//!   `mosaic-sql`,
//! * three query visibility levels (paper §3.3):
//!   - `CLOSED` — answer from the raw samples,
//!   - `SEMI-OPEN` — reweight the sample (inverse-probability weights for
//!     known mechanisms, IPF against the marginals otherwise),
//!   - `OPEN` — additionally *generate* missing tuples with a pluggable
//!     generative model ([`GenerativeModel`]: the M-SWG by default, a
//!     Chow–Liu Bayesian network as the explicit-model alternative).
//!
//! ## Quickstart
//!
//! ```
//! use std::sync::Arc;
//! use mosaic_core::MosaicEngine;
//!
//! let session = Arc::new(MosaicEngine::new()).session();
//! session.execute(
//!     "CREATE TABLE Eurostat (country TEXT, reported_count INT);
//!      INSERT INTO Eurostat VALUES ('UK', 30000), ('FR', 20000);
//!      CREATE GLOBAL POPULATION EuropeMigrants (country TEXT);
//!      CREATE METADATA EuropeMigrants_M1 AS
//!        (SELECT country, reported_count FROM Eurostat);
//!      CREATE SAMPLE YahooMigrants AS (SELECT * FROM EuropeMigrants);
//!      INSERT INTO YahooMigrants VALUES ('UK'), ('UK'), ('FR');",
//! )
//! .unwrap();
//! // SEMI-OPEN reweights the 3-row sample so the marginal is satisfied.
//! let result = session
//!     .execute("SELECT SEMI-OPEN country, COUNT(*) FROM EuropeMigrants GROUP BY country ORDER BY country")
//!     .unwrap();
//! let t = &result.table;
//! assert_eq!(t.num_rows(), 2);
//! assert!((t.value(1, 1).as_f64().unwrap() - 30000.0).abs() < 1.0);
//! ```
//!
//! See `examples/migrants.rs` for the full §2 scenario.
//!
//! ## Sessions, prepared statements, EXPLAIN
//!
//! [`MosaicEngine`] is `Arc`-shareable: its catalog sits behind a
//! reader–writer lock, so any number of [`Session`]s execute SELECTs
//! concurrently while DDL/DML serializes.
//! Each session carries its own [`Knobs`] — default visibility, OPEN
//! seed, thread cap, merge partitions, optimizer, result cache — set by
//! the typed `Session::with_*` setters or by text through
//! [`Knobs::set`], the one parser behind the `MOSAIC_*` environment
//! variables, the wire's `SetOption` and the shell's flags and `.set`.
//!
//! Every SELECT is bound **once** into a [`Prepared`] — resolved source
//! relations, baked-in visibility, logical/optimized/physical plan —
//! and that one binding drives ad-hoc execution, prepared execution,
//! the plan and result caches, and `EXPLAIN`; a statement the binder
//! rejects fails with the binder's error everywhere. The binder resolves
//! every column and types every expression, so an unknown column or a
//! type mismatch is a bind error whatever the data. Every script runs
//! through one loop, [`Session::execute_script`], whose [`ScriptError`]
//! names the failing statement:
//!
//! ```
//! use std::sync::Arc;
//! use mosaic_core::{MosaicEngine, Value};
//!
//! let engine = Arc::new(MosaicEngine::new());
//! let session = engine.session();
//! session.execute("CREATE TABLE t (x INT); INSERT INTO t VALUES (1), (2), (3);").unwrap();
//! // Prepare once (parse + bind + plan), execute many (bind values only).
//! let prepared = session.prepare("SELECT COUNT(*) FROM t WHERE x >= ?").unwrap();
//! assert_eq!(session.query_prepared(&prepared, &[Value::Int(2)]).unwrap().value(0, 0), 2i64.into());
//! assert_eq!(session.query_prepared(&prepared, &[Value::Int(3)]).unwrap().value(0, 0), 1i64.into());
//! // EXPLAIN renders the bound plan as a result table.
//! let plan = session.query("EXPLAIN SELECT COUNT(*) FROM t WHERE x >= 2").unwrap();
//! assert!(plan.num_rows() > 2);
//! ```
//!
//! ## Planning and the logical optimizer
//!
//! A bound SELECT plans in three layers: the statement becomes a
//! [`LogicalPlan`] IR (`Scan → Filter? → Project | Aggregate → Sort? →
//! Limit?` — a tree with a [`LogicalPlan::Join`] leaf once a `FROM …
//! JOIN …` appears), a rule-based optimizer rewrites it (projection
//! pruning, param-aware constant folding, join predicate pushdown,
//! Sort+Limit → `TopK` fusion — see [`plan::optimize`]), and the
//! result lowers to a [`PhysicalPlan`]. A plan executes through its one
//! entry point, [`PhysicalPlan::run`]: a [`PlanInput`] (one table with
//! optional row weights — what CLOSED, SEMI-OPEN and OPEN differ in — or
//! a left/right pair) plus an [`ExecContext`] (parameter values, thread
//! budget, merge partitions). Plans themselves hold no knobs.
//!
//! ## Joins
//!
//! Relations join with INNER and LEFT OUTER equi-joins (`FROM flights f
//! JOIN carriers c ON f.carrier = c.code`, `a LEFT JOIN b ON …`): the
//! scope binder resolves aliases and qualified columns (with bind-time
//! ambiguity errors), the vectorized [`plan::join::HashJoinOp`] builds
//! on the smaller input, probes the larger one morsel by morsel and
//! streams the joined rows through the morsel pipeline without ever
//! materializing the joined table; output rows keep the canonical
//! (left row, right row) order —
//! bit-identical at every thread count and to a nested loop. LEFT
//! OUTER joins NULL-extend the
//! right side of unmatched left rows. A joined sample carries its
//! engine-managed `weight` column through; when **both** sides are
//! weighted the join emits one combined `weight` column — the product
//! of the per-side weights (see [`plan::join`]). Populations join too:
//! a population side resolves through its chosen sample under the
//! statement's visibility — CLOSED scans it raw, SEMI-OPEN attaches
//! correction weights (with IPF re-calibration of a two-sided product
//! against the declared marginals), and OPEN runs the generate+query
//! replicate loop over the whole joined plan.
//! The optimizer is a pure plan rewrite — results are **bit-identical**
//! with it on or off (the oracle suite A/Bs both paths) — and is gated
//! by the `optimizer` knob ([`Session::with_optimizer`], or the
//! `MOSAIC_OPTIMIZER=off` environment variable). Prepared
//! statements optimize once, at prepare time; `EXPLAIN` shows the
//! logical plan before and after rewriting with the fired rule names.
//!
//! ## Parallel execution
//!
//! Query execution is morsel-driven: scans split into fixed-size morsels
//! of Arc-shared column slices that a scoped worker pool processes in
//! parallel, with per-morsel partial aggregates merged by a
//! radix-partitioned parallel pass (see [`plan`]). The thread cap is the
//! `threads` knob (per session: [`Session::with_parallelism`]), starting
//! at [`EngineOptions::parallelism`] — the `MOSAIC_PARALLELISM`
//! environment variable or the core count — and never changes results,
//! only latency.

#![warn(missing_docs)]

mod cache;
pub mod catalog;
mod engine;
mod error;
mod eval;
mod exec;
mod explain;
mod knobs;
mod models;
pub mod plan;
mod session;
mod source;

pub use cache::CacheStats;
pub use catalog::{Catalog, Mechanism, MetadataEntry, Population, Sample};
pub use engine::{EngineOptions, MosaicEngine, OpenBackend, OpenOptions, QueryResult};
pub use error::{MosaicError, ScriptError};
pub use eval::eval_scalar;
pub use exec::run_select;
pub use knobs::{Key, Knobs, KEYS};
pub use models::{BnModel, GenerativeModel, SwgModel};
pub use plan::fingerprint::format_fingerprint;
pub use plan::logical::LogicalPlan;
pub use plan::parallel::{
    default_parallelism, reset_worker_thread_peak, worker_thread_peak, MORSEL_ROWS,
};
pub use plan::{plan_select, ExecContext, PhysicalPlan, PlanInput, Planned};
pub use session::{Prepared, Session};

// Re-export the pieces users need to drive the engine programmatically.
pub use mosaic_sql::{
    parse, Expr, FromClause, JoinClause, JoinKind, SelectStmt, Statement, TableRef, Visibility,
};
pub use mosaic_stats::{Binner, IpfConfig, Marginal};
pub use mosaic_storage::{DataType, Field, Schema, Table, TableBuilder, Value};
pub use mosaic_swg::SwgConfig;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MosaicError>;
