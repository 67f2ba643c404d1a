//! Sessions and prepared statements — the concurrent client surface of
//! the engine.
//!
//! A [`Session`] is a lightweight handle onto a shared
//! [`MosaicEngine`]: an `Arc` plus one [`Knobs`] (default visibility,
//! generation seed, thread cap, merge partitions, optimizer, result
//! cache), filled once when the session is created. Sessions never
//! mutate the engine-wide [`EngineOptions`](crate::EngineOptions), so
//! any number of them can run concurrently with different settings.
//!
//! [`Session::prepare`] implements the prepare-once/execute-many
//! pattern of the paper's workload (§5.3 re-runs one aggregate template
//! across visibilities and replicates): the SQL is parsed once, names
//! are bound against the catalog, the physical plan is lowered and
//! cached, and [`Session::execute_prepared`] only binds `?` parameter
//! values and executes — no parsing, no planning.

use std::sync::Arc;

use mosaic_sql::{FromClause, SelectItem, SelectStmt, Statement, TableRef, Visibility};
use mosaic_storage::{DataType, Schema, Table, Value};

use crate::catalog::{Catalog, Population, Sample};
use crate::engine::{sample_scan_schema, unknown_relation, MosaicEngine, QueryResult};
use crate::eval::check_select;
use crate::plan::join::ScopeRel;
use crate::plan::logical::LogicalPlan;
use crate::plan::{plan_select, PhysicalPlan, Planned};
use crate::source::choose_sample;
use crate::{Knobs, MosaicError, Result, ScriptError};

/// A client session on a shared [`MosaicEngine`].
///
/// Scripts run through [`Session::execute_script`] (or
/// [`Session::execute`], its error alone), the engine's one script loop,
/// which the wire's `Query` frame and the shell take too; a statement
/// run many times can be bound once with [`Session::prepare`].
/// Cloning a session copies its knobs and shares the engine.
/// Sessions are `Send`: move them into threads freely — the engine's
/// catalog lock lets all sessions read concurrently while DDL/DML
/// serializes.
#[derive(Clone)]
pub struct Session {
    engine: Arc<MosaicEngine>,
    knobs: Knobs,
}

impl Session {
    /// A session starting from the process defaults
    /// ([`Knobs::from_env`]) with the engine's thread budget.
    pub(crate) fn new(engine: Arc<MosaicEngine>) -> Session {
        let knobs = Knobs {
            threads: engine.options().parallelism,
            ..Knobs::from_env()
        };
        Session { engine, knobs }
    }

    /// The shared engine this session runs on.
    pub fn engine(&self) -> &Arc<MosaicEngine> {
        &self.engine
    }

    /// This session's settings.
    pub fn knobs(&self) -> &Knobs {
        &self.knobs
    }

    /// Set one knob from its text (see [`Knobs::set`]): the shell's
    /// `.set`, its flags and the wire's `SetOption` all land here.
    pub fn set(&mut self, key: &str, value: &str) -> std::result::Result<(), String> {
        self.knobs.set(key, value)
    }

    /// Set the default visibility of population queries.
    pub fn with_default_visibility(mut self, v: Visibility) -> Session {
        self.knobs.visibility = v;
        self
    }

    /// Set the OPEN-query generation seed (default 0).
    pub fn with_seed(mut self, seed: u64) -> Session {
        self.knobs.seed = seed;
        self
    }

    /// Set the worker-thread cap (minimum 1; never changes results, only
    /// wall-clock time).
    pub fn with_parallelism(mut self, n: usize) -> Session {
        self.knobs.threads = n.max(1);
        self
    }

    /// Set the radix-partition count of the parallel aggregate merge
    /// (minimum 1; `1` runs the merge as a single serial pass). Like the
    /// thread cap, the partition count never changes results.
    pub fn with_agg_partitions(mut self, n: usize) -> Session {
        self.knobs.partitions = n.max(1);
        self
    }

    /// Enable or disable the rule-based logical optimizer for this
    /// session's statements (results are bit-identical either way —
    /// only latency changes). Statements prepared *before* the change
    /// keep the plans they were prepared with.
    pub fn with_optimizer(mut self, on: bool) -> Session {
        self.knobs.optimizer = on;
        self
    }

    /// Opt this session in or out of the shared result cache. Opting
    /// out never shrinks the engine-wide cache — other sessions keep
    /// their hits. Cached results are bit-identical to fresh execution,
    /// so this is a memory/latency knob, not a correctness one.
    pub fn with_result_cache(mut self, on: bool) -> Session {
        self.knobs.result_cache = on;
        self
    }

    /// Execute a script of `;`-separated statements; returns the result
    /// of the last statement that has one (a SELECT or an EXPLAIN), or an
    /// empty result. [`Session::execute_script`] with the error alone.
    pub fn execute(&self, sql: &str) -> Result<QueryResult> {
        self.execute_script(sql).map_err(|e| e.error)
    }

    /// Execute a script of `;`-separated statements through the engine's
    /// one script loop — the path of [`Session::execute`], the wire's
    /// `Query` frame and the shell. A script whose exact text has an
    /// epoch-valid plan in the shared plan cache runs without being
    /// parsed; otherwise it is parsed once, and a single-SELECT script
    /// publishes its plan for the next identical script, from any
    /// session. Execution stops at the first failing statement, whose
    /// 0-based index and text the [`ScriptError`] names (whether or not
    /// its plan was cached); earlier statements keep their effects.
    pub fn execute_script(&self, sql: &str) -> std::result::Result<QueryResult, ScriptError> {
        self.engine.run_script(sql, &self.knobs)
    }

    /// Execute a script and return just the last result table.
    pub fn query(&self, sql: &str) -> Result<Table> {
        self.execute(sql).map(|r| r.table)
    }

    /// Prepare a single SELECT statement: parse once, bind names
    /// against the catalog, resolve the visibility pipeline, lower the
    /// physical plan, and count `?` parameters. The returned
    /// [`Prepared`] is immutable and `Sync` — share it across sessions
    /// and threads, and re-execute it with different parameter values
    /// without re-parsing or re-planning.
    pub fn prepare(&self, sql: &str) -> Result<Prepared> {
        let mut stmts = mosaic_sql::parse(sql)?;
        if stmts.len() != 1 {
            return Err(MosaicError::Bind(format!(
                "prepare expects exactly one statement, found {}",
                stmts.len()
            )));
        }
        let stmt = match stmts.pop().expect("checked length") {
            Statement::Select(s) => s,
            other => {
                return Err(MosaicError::Bind(format!(
                    "only SELECT statements can be prepared, found {other:?}"
                )))
            }
        };
        let cat = self.engine.catalog();
        // Ad-hoc execution surfaces the binder's `Catalog` /
        // `Unsupported` variants as raised; a failed prepare is a bind
        // failure whatever the cause.
        Prepared::bind(&cat, &self.knobs, stmt, sql).map_err(|e| match e {
            MosaicError::Catalog(m) | MosaicError::Unsupported(m) => MosaicError::Bind(m),
            other => other,
        })
    }

    /// Execute a prepared statement with positional-parameter values
    /// (one [`Value`] per `?`, in lexical order). Skips parsing and
    /// planning entirely: the cached plan runs with the parameters
    /// bound into its placeholder expressions.
    pub fn execute_prepared(&self, prepared: &Prepared, params: &[Value]) -> Result<QueryResult> {
        if params.len() != prepared.param_count {
            return Err(MosaicError::Param(format!(
                "prepared statement expects {} parameter(s), got {}",
                prepared.param_count,
                params.len()
            )));
        }
        let opts = self.engine.options();
        let cat = self.engine.catalog();
        self.engine
            .select_prepared(&cat, &opts, &self.knobs, prepared, params)
    }

    /// [`Session::execute_prepared`], returning just the result table.
    pub fn query_prepared(&self, prepared: &Prepared, params: &[Value]) -> Result<Table> {
        self.execute_prepared(prepared, params).map(|r| r.table)
    }
}

/// What kind of catalog relation a bound statement reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RelKind {
    /// An auxiliary table: scans as-is.
    Aux,
    /// A sample: scans with the engine-managed `weight` column exposed.
    Sample,
    /// A population, answered through its chosen sample under the
    /// statement's visibility.
    Population,
}

impl RelKind {
    /// The word EXPLAIN and error messages use for this kind.
    pub(crate) fn word(self) -> &'static str {
        match self {
            RelKind::Aux => "table",
            RelKind::Sample => "sample",
            RelKind::Population => "population",
        }
    }
}

/// A catalog relation looked up by name: the one place the engine
/// classifies a FROM relation (the binder records the outcome; execution
/// and EXPLAIN re-resolve the *recorded* name and kind).
pub(crate) enum Resolved<'c> {
    /// An auxiliary table.
    Aux(&'c Table),
    /// A sample.
    Sample(&'c Sample),
    /// A population (its sample is chosen per use: data may have grown).
    Population(&'c Population),
}

impl<'c> Resolved<'c> {
    /// Classify `name` against the catalog. Relation names are unique
    /// across kinds, so the probe order is immaterial.
    fn classify(cat: &'c Catalog, name: &str) -> Result<Resolved<'c>> {
        if let Some(pop) = cat.population(name) {
            Ok(Resolved::Population(pop))
        } else if let Some(t) = cat.aux(name) {
            Ok(Resolved::Aux(t))
        } else if let Some(s) = cat.sample(name) {
            Ok(Resolved::Sample(s))
        } else {
            Err(unknown_relation(cat, name))
        }
    }

    fn kind(&self) -> RelKind {
        match self {
            Resolved::Aux(_) => RelKind::Aux,
            Resolved::Sample(_) => RelKind::Sample,
            Resolved::Population(_) => RelKind::Population,
        }
    }

    /// Record this relation as a statement source. Samples and
    /// populations record their catalog spelling, tables the written one.
    fn bound(&self, tref: &TableRef, scoped: bool) -> BoundRel {
        BoundRel {
            name: match self {
                Resolved::Aux(_) => tref.name.clone(),
                Resolved::Sample(s) => s.name.clone(),
                Resolved::Population(pop) => pop.name.clone(),
            },
            binding: scoped.then(|| tref.binding().to_string()),
            kind: self.kind(),
        }
    }

    /// Append the relations whose writes change what a statement over
    /// this source returns — the dependency set cached plans, cached
    /// results and fitted models are validated against. A population
    /// answers through samples and metadata declared on itself *or* on
    /// the population it is defined over, so that one is a dependency
    /// too; a sample side of a reweighted join is re-calibrated against
    /// its declared population's metadata (`reweighted`).
    fn push_deps(&self, name: &str, reweighted: bool, deps: &mut Vec<String>) {
        match self {
            Resolved::Population(pop) => deps.extend(population_deps(pop)),
            Resolved::Sample(s) if reweighted => {
                deps.extend([name.to_string(), s.population.clone()])
            }
            _ => deps.push(name.to_string()),
        }
    }
}

/// The dependency set of one population: itself plus the population it
/// is defined over (whose samples and metadata it answers through).
pub(crate) fn population_deps(pop: &Population) -> Vec<String> {
    std::iter::once(pop.name.clone())
        .chain(pop.source.iter().map(|(gp, _)| gp.clone()))
        .collect()
}

/// One relation of a bound FROM clause, as the binder recorded it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct BoundRel {
    /// Catalog relation name.
    pub name: String,
    /// The name column references qualified with (alias or relation
    /// name) when the statement bound through the scope binder; `None`
    /// for a plain single-relation FROM.
    pub binding: Option<String>,
    /// The kind it bound to.
    pub kind: RelKind,
}

impl BoundRel {
    /// Look the recorded relation up in the live catalog. DDL may have
    /// dropped it or re-created the name as another kind since the
    /// statement was bound; running the plan against a different kind
    /// would silently change semantics, so either is the stale-statement
    /// error.
    pub(crate) fn resolve<'c>(&self, cat: &'c Catalog) -> Result<Resolved<'c>> {
        match Resolved::classify(cat, &self.name) {
            Ok(r) if r.kind() == self.kind => Ok(r),
            _ => Err(MosaicError::Bind(format!(
                "prepared statement is stale: {} {} no longer exists",
                self.kind.word(),
                self.name
            ))),
        }
    }

    /// True when this relation's scan exposes a `weight` column under
    /// the statement's visibility.
    pub(crate) fn weighted(&self, vis: Option<Visibility>) -> bool {
        match self.kind {
            RelKind::Aux => false,
            RelKind::Sample => true,
            RelKind::Population => vis != Some(Visibility::Closed),
        }
    }
}

/// What a bound statement reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Source {
    /// `SELECT` without FROM: one internal row.
    Scalar,
    /// One relation (possibly aliased).
    Single(BoundRel),
    /// A two-relation join, in source order.
    Join(Vec<BoundRel>),
}

/// A bound SELECT: the parsed statement, its resolved source, and every
/// plan layer. This is the single representation of a SELECT — ad-hoc
/// execution, prepared execution, the plan and result caches and
/// `EXPLAIN` all consume it.
///
/// Produced by [`Session::prepare`]; executed by
/// [`Session::execute_prepared`]. Immutable and thread-safe: one
/// `Prepared` can serve any number of sessions concurrently.
pub struct Prepared {
    sql: String,
    stmt: SelectStmt,
    param_count: usize,
    source: Source,
    /// Every relation whose write invalidates this statement's cached
    /// plan and results (see [`Resolved::push_deps`]).
    deps: Vec<String>,
    /// Logical, optimized (rules ran once, at bind time; parameter-aware
    /// constant folding leaves `?` residuals for execution to bind) and
    /// physical plan.
    planned: Planned,
    /// For aggregate OPEN queries: the plan each generative replicate
    /// runs — the physical plan without its ordering stages, which apply
    /// once the replicates combine.
    replicate_plan: Option<PhysicalPlan>,
}

impl std::fmt::Debug for Prepared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Prepared")
            .field("sql", &self.sql)
            .field("param_count", &self.param_count)
            .field("source", &self.source)
            .field("logical", &self.planned.optimized.to_string())
            .field("fired", &self.planned.fired)
            .field("plan", &self.planned.physical.to_string())
            .finish_non_exhaustive()
    }
}

impl Prepared {
    /// The original SQL text.
    pub fn sql(&self) -> &str {
        &self.sql
    }

    /// Number of positional parameters (`?`) the statement expects.
    pub fn param_count(&self) -> usize {
        self.param_count
    }

    /// The resolved visibility (population queries; `None` otherwise).
    pub fn visibility(&self) -> Option<Visibility> {
        self.stmt.visibility
    }

    /// The cached logical plan — already optimized, so every execution
    /// reuses the rewrite the optimizer did once at prepare time.
    pub fn logical_plan(&self) -> &LogicalPlan {
        &self.planned.optimized
    }

    /// Names of the optimizer rules that fired at prepare time (empty
    /// when the optimizer was off or nothing applied).
    pub fn fired_rules(&self) -> &[&'static str] {
        &self.planned.fired
    }

    /// The bound (visibility-resolved, possibly scope-rewritten)
    /// statement this plan executes.
    pub(crate) fn stmt(&self) -> &SelectStmt {
        &self.stmt
    }

    /// What the statement reads.
    pub(crate) fn source(&self) -> &Source {
        &self.source
    }

    /// Every plan layer.
    pub(crate) fn planned(&self) -> &Planned {
        &self.planned
    }

    /// The replicate plan of an aggregate OPEN statement.
    pub(crate) fn replicate_plan(&self) -> Option<&PhysicalPlan> {
        self.replicate_plan.as_ref()
    }

    /// Names of the source relations, in bind order, for the
    /// fingerprint (scalar SELECTs read none).
    pub(crate) fn relations(&self) -> Vec<String> {
        match &self.source {
            Source::Scalar => Vec::new(),
            Source::Single(rel) => vec![rel.name.clone()],
            Source::Join(rels) => rels.iter().map(|r| r.name.clone()).collect(),
        }
    }

    /// Every relation whose write invalidates this statement's cached
    /// plan and results.
    pub(crate) fn dependencies(&self) -> &[String] {
        &self.deps
    }

    /// Bind a parsed SELECT against the catalog: resolve the source
    /// relation(s), resolve and type every expression against their
    /// schema, resolve the visibility pipeline, and lower the plan(s).
    /// The only place a FROM clause is classified.
    pub(crate) fn bind(cat: &Catalog, k: &Knobs, stmt: SelectStmt, sql: &str) -> Result<Prepared> {
        let param_count = stmt.param_count();
        let finish = |stmt: SelectStmt, source, deps, planned: Planned| Prepared {
            sql: sql.to_string(),
            replicate_plan: (stmt.visibility == Some(Visibility::Open)
                && planned.physical.is_aggregate())
            .then(|| planned.physical.unordered()),
            stmt,
            param_count,
            source,
            deps,
            planned,
        };
        let Some(fc) = stmt.from.clone() else {
            check_select(&stmt, &|c| {
                Err(MosaicError::Bind(format!(
                    "column {c} is not allowed in a SELECT without FROM"
                )))
            })?;
            // Wildcards have nothing to expand over: they drop.
            let items = stmt
                .items
                .iter()
                .filter(|i| !matches!(i, SelectItem::Wildcard))
                .cloned()
                .collect();
            let stmt = SelectStmt { items, ..stmt };
            let planned = plan_select(&stmt, false, k.optimizer, None);
            return Ok(finish(stmt, Source::Scalar, Vec::new(), planned));
        };
        if crate::plan::join::needs_scope(&stmt, &fc) {
            // Joins, aliases and qualified references bind through the
            // scope binder.
            let scope = resolve_scope(cat, k.visibility, &fc, stmt.visibility)?;
            // Bake the resolved visibility in (population scopes only),
            // so later session-default changes cannot shift the
            // semantics the plan was built under.
            let stmt = SelectStmt {
                visibility: scope.vis,
                ..stmt
            };
            let mut sources = scope.sources;
            if !fc.has_joins() {
                // A lone aliased relation: rewrite to bare column names
                // and plan the ordinary single-relation pipeline.
                let rel = scope.rels.into_iter().next().expect("one relation");
                let schema = Arc::clone(&rel.schema);
                let stmt = crate::plan::join::bind_single(&stmt, rel)?;
                check_select(&stmt, &schema_types(&schema, &fc.base.name))?;
                let planned = plan_select(&stmt, false, k.optimizer, Some(&schema));
                let source = Source::Single(sources.remove(0));
                return Ok(finish(stmt, source, scope.deps, planned));
            }
            // Population-containing scopes under SEMI-OPEN/OPEN answer
            // aggregates through the §5.3 weighted rewrite; CLOSED
            // scopes and plain sample joins do not.
            let weighted_agg = scope.vis.is_some_and(|v| v != Visibility::Closed);
            let bound = crate::plan::join::bind_join(&stmt, scope.rels, weighted_agg)?;
            let planned = crate::plan::plan_logical(bound.logical, k.optimizer, None);
            let source = Source::Join(sources);
            return Ok(finish(bound.stmt, source, scope.deps, planned));
        }
        let resolved = Resolved::classify(cat, &fc.base.name)?;
        let (stmt, schema) = match &resolved {
            Resolved::Population(pop) => {
                // Resolve the visibility now so the plan's
                // weighted-rewrite property is fixed; the session
                // default is baked into the bound statement.
                let vis = stmt.visibility.unwrap_or(k.visibility);
                let stmt = SelectStmt {
                    visibility: Some(vis),
                    ..stmt
                };
                (stmt, Arc::clone(&pop.schema))
            }
            _ if stmt.visibility.is_some() => {
                return Err(MosaicError::Unsupported(
                    "visibility levels (CLOSED/SEMI-OPEN/OPEN) apply to population queries only"
                        .into(),
                ));
            }
            Resolved::Aux(t) => (stmt, Arc::clone(t.schema())),
            // Samples expose the engine-managed `weight` column; bind
            // (and optimize) against the augmented schema.
            Resolved::Sample(s) => (stmt, sample_scan_schema(s)),
        };
        check_select(&stmt, &schema_types(&schema, &fc.base.name))?;
        // Population statements outside CLOSED carry row weights into
        // the §5.3 weighted-aggregate rewrite.
        let weighted = stmt.visibility.is_some_and(|v| v != Visibility::Closed);
        let planned = plan_select(&stmt, weighted, k.optimizer, Some(&schema));
        let rel = resolved.bound(&fc.base, false);
        let mut deps = Vec::new();
        resolved.push_deps(&rel.name, false, &mut deps);
        Ok(finish(stmt, Source::Single(rel), deps, planned))
    }
}

/// Column types of one relation's schema, for [`check_select`], which
/// binds every column reference of a statement through it.
fn schema_types<'a>(
    schema: &'a Schema,
    relation: &'a str,
) -> impl Fn(&str) -> Result<DataType> + 'a {
    move |c| {
        schema
            .field_by_name(c)
            .map(|f| f.data_type)
            .map_err(|_| MosaicError::Bind(format!("unknown column {c} in relation {relation}")))
    }
}

/// A resolved multi-relation (or aliased) FROM scope.
struct BoundScope {
    /// The recorded sources, in source order.
    sources: Vec<BoundRel>,
    /// The same relations as the scope binder sees them (binding name,
    /// bound schema, weightedness).
    rels: Vec<ScopeRel>,
    /// The scope's dependency set.
    deps: Vec<String>,
    /// The effective visibility: `Some` when a population is in scope
    /// (the open-world join pipeline), `None` for a plain table/sample
    /// scope.
    vis: Option<Visibility>,
}

/// Resolve a multi-relation FROM clause against the catalog,
/// **population-aware**: auxiliary tables scan as-is, samples scan with
/// the engine-managed `weight` column exposed (and are marked
/// weighted), and populations resolve through their chosen sample under
/// the statement's visibility — CLOSED sides scan the raw sample
/// unweighted, SEMI-OPEN and OPEN sides expose correction weights.
///
/// Rejects a visibility clause on a population-free scope, a population
/// outside a JOIN, and an OPEN scope with more than one population side
/// — each with an error naming the offending relations.
fn resolve_scope(
    cat: &Catalog,
    default_vis: Visibility,
    from: &FromClause,
    stmt_vis: Option<Visibility>,
) -> Result<BoundScope> {
    let resolved: Vec<Resolved<'_>> = from
        .relations()
        .map(|t| Resolved::classify(cat, &t.name))
        .collect::<Result<_>>()?;
    let pops: Vec<&str> = resolved
        .iter()
        .filter_map(|r| match r {
            Resolved::Population(pop) => Some(pop.name.as_str()),
            _ => None,
        })
        .collect();
    if pops.is_empty() {
        if let Some(vis) = stmt_vis {
            let rels: Vec<&str> = from.relations().map(|t| t.name.as_str()).collect();
            return Err(MosaicError::Unsupported(format!(
                "visibility levels (CLOSED/SEMI-OPEN/OPEN) apply to population queries only: \
                 SELECT {vis} over ({}) references no population",
                rels.join(", ")
            )));
        }
    } else if !from.has_joins() {
        return Err(MosaicError::Unsupported(format!(
            "population {} can appear in a multi-relation FROM only as a JOIN side; \
             query the population directly or join its sample",
            pops[0]
        )));
    }
    let vis = stmt_vis.unwrap_or(default_vis);
    if vis == Visibility::Open && pops.len() > 1 {
        return Err(MosaicError::Unsupported(format!(
            "OPEN join of populations {} and {} is not supported: each OPEN replicate \
             generates rows for exactly one population side; query one side CLOSED or \
             SEMI-OPEN, or join a declared sample instead",
            pops[0], pops[1]
        )));
    }
    let vis = (!pops.is_empty()).then_some(vis);
    let reweighted = vis.is_some_and(|v| v != Visibility::Closed);
    let mut scope = BoundScope {
        sources: Vec::new(),
        rels: Vec::new(),
        deps: Vec::new(),
        vis,
    };
    for (tref, r) in from.relations().zip(&resolved) {
        let source = r.bound(tref, true);
        let schema = match r {
            Resolved::Aux(t) => Arc::clone(t.schema()),
            Resolved::Sample(s) => sample_scan_schema(s),
            Resolved::Population(pop) => {
                let (sample, _) = choose_sample(cat, pop)?;
                if reweighted {
                    sample_scan_schema(sample)
                } else {
                    Arc::clone(sample.data.schema())
                }
            }
        };
        scope.rels.push(ScopeRel {
            name: source.name.clone(),
            binding: tref.binding().to_string(),
            schema,
            weighted: source.weighted(vis),
        });
        r.push_deps(&source.name, reweighted, &mut scope.deps);
        scope.sources.push(source);
    }
    Ok(scope)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_storage::Value;

    fn engine_with_table() -> Arc<MosaicEngine> {
        let engine = Arc::new(MosaicEngine::new());
        engine
            .session()
            .execute(
                "CREATE TABLE t (k TEXT, v INT);
                 INSERT INTO t VALUES ('a', 1), ('b', 2), ('a', 3), ('c', 4);",
            )
            .unwrap();
        engine
    }

    #[test]
    fn prepare_execute_roundtrip() {
        let engine = engine_with_table();
        let s = engine.session();
        let p = s
            .prepare("SELECT k, COUNT(*) AS c FROM t WHERE v > ? GROUP BY k ORDER BY k")
            .unwrap();
        assert_eq!(p.param_count(), 1);
        let r1 = s.query_prepared(&p, &[Value::Int(0)]).unwrap();
        assert_eq!(r1.num_rows(), 3);
        let r2 = s.query_prepared(&p, &[Value::Int(2)]).unwrap();
        assert_eq!(r2.num_rows(), 2); // a (v=3) and c (v=4)
                                      // Must match the unprepared path with the literal inlined.
        let direct = s
            .query("SELECT k, COUNT(*) AS c FROM t WHERE v > 2 GROUP BY k ORDER BY k")
            .unwrap();
        assert_eq!(r2.num_rows(), direct.num_rows());
        for r in 0..direct.num_rows() {
            for c in 0..direct.num_columns() {
                assert_eq!(r2.value(r, c), direct.value(r, c));
            }
        }
    }

    #[test]
    fn param_count_mismatch_is_param_error() {
        let engine = engine_with_table();
        let s = engine.session();
        let p = s
            .prepare("SELECT * FROM t WHERE v BETWEEN ? AND ?")
            .unwrap();
        assert_eq!(p.param_count(), 2);
        let err = s.execute_prepared(&p, &[Value::Int(1)]).unwrap_err();
        assert!(matches!(err, MosaicError::Param(_)), "{err}");
    }

    #[test]
    fn unprepared_params_rejected() {
        let engine = engine_with_table();
        let s = engine.session();
        let err = s.execute("SELECT * FROM t WHERE v > ?").unwrap_err();
        assert!(matches!(err, MosaicError::Param(_)), "{err}");
    }

    #[test]
    fn unknown_column_is_bind_error() {
        let engine = engine_with_table();
        let s = engine.session();
        let err = s.prepare("SELECT nope FROM t").unwrap_err();
        assert!(matches!(err, MosaicError::Bind(_)), "{err}");
        let err = s.prepare("SELECT v FROM missing").unwrap_err();
        assert!(matches!(err, MosaicError::Bind(_)), "{err}");
        let err = s.prepare("SELECT 1; SELECT 2").unwrap_err();
        assert!(matches!(err, MosaicError::Bind(_)), "{err}");
        let err = s.prepare("DROP TABLE t").unwrap_err();
        assert!(matches!(err, MosaicError::Bind(_)), "{err}");
    }

    /// A relation dropped — or dropped and re-created as another kind —
    /// between prepare and execute is the stale-statement `Bind` error
    /// for every source kind; the recorded name *and kind* must both
    /// still resolve.
    #[test]
    fn stale_prepared_statement_detected() {
        let engine = engine_with_table();
        let s = engine.session();
        s.execute(
            "CREATE TABLE u (k TEXT);
             INSERT INTO u VALUES ('a');
             CREATE GLOBAL POPULATION People (k TEXT);
             CREATE SAMPLE S AS (SELECT * FROM People);
             INSERT INTO S VALUES ('a'), ('b');",
        )
        .unwrap();
        let prepare = |sql: &str| (sql.to_string(), s.prepare(sql).unwrap());
        let scalar = prepare("SELECT 1 + 1");
        let over_t = [
            prepare("SELECT COUNT(*) FROM t"),
            prepare("SELECT x.k FROM t x"),
            prepare("SELECT t.k FROM t JOIN u ON t.k = u.k"),
            prepare("SELECT CLOSED t.k FROM t JOIN People p ON t.k = p.k"),
        ];
        let over_sample = [
            prepare("SELECT COUNT(*) FROM S"),
            prepare("SELECT u.k FROM u JOIN S ON u.k = S.k"),
        ];
        let over_population = [
            prepare("SELECT CLOSED COUNT(*) FROM People"),
            prepare("SELECT CLOSED u.k FROM u LEFT JOIN People p ON u.k = p.k"),
        ];
        let assert_stale = |stmts: &[(String, Prepared)]| {
            for (sql, p) in stmts {
                let err = s.execute_prepared(p, &[]).unwrap_err();
                assert!(matches!(err, MosaicError::Bind(_)), "{sql}: {err}");
                assert!(err.to_string().contains("stale"), "{sql}: {err}");
            }
        };
        for (sql, p) in over_t.iter().chain(&over_sample).chain(&over_population) {
            s.execute_prepared(p, &[])
                .unwrap_or_else(|e| panic!("{sql}: {e}"));
        }
        // Table → sample.
        s.execute("DROP TABLE t; CREATE SAMPLE t AS (SELECT * FROM People);")
            .unwrap();
        assert_stale(&over_t);
        // Sample → table.
        s.execute("DROP SAMPLE S; CREATE TABLE S (k TEXT);")
            .unwrap();
        assert_stale(&over_sample);
        // Population → table.
        s.execute("DROP POPULATION People; CREATE TABLE People (k TEXT);")
            .unwrap();
        assert_stale(&over_population);
        // Plain drops are stale too; a scalar statement reads nothing.
        s.execute("DROP TABLE u").unwrap();
        assert_stale(&over_sample[1..]);
        s.execute_prepared(&scalar.1, &[]).unwrap();
    }

    /// A FROM-less SELECT runs over one internal row; its column must
    /// not be addressable, and EXPLAIN and `CREATE METADATA … AS (…)`
    /// report the binder's error for every statement the binder rejects.
    #[test]
    fn binder_errors_are_final_for_execute_and_explain() {
        let engine = engine_with_table();
        let s = engine.session();
        s.execute("CREATE GLOBAL POPULATION People (k TEXT)")
            .unwrap();
        let metadata = |sql: &str| format!("CREATE METADATA People_M1 AS ({sql})");
        for sql in ["SELECT dummy", "SELECT dummy + 41 AS x"] {
            for sql in [sql.to_string(), format!("EXPLAIN {sql}"), metadata(sql)] {
                let err = s.execute(&sql).unwrap_err();
                assert!(matches!(err, MosaicError::Bind(_)), "{sql}: {err}");
            }
        }
        for sql in [
            "SELECT nope FROM t",
            "SELECT v FROM missing",
            "SELECT CLOSED v FROM t",
            "SELECT x.v FROM t",
            "SELECT t.v FROM t JOIN missing m ON t.k = m.k",
        ] {
            let run = s.execute(sql).unwrap_err().to_string();
            let explain = s.execute(&format!("EXPLAIN {sql}")).unwrap_err();
            assert_eq!(run, explain.to_string(), "{sql}");
            let as_metadata = s.execute(&metadata(sql)).unwrap_err();
            assert_eq!(run, as_metadata.to_string(), "{sql}");
        }
    }

    #[test]
    fn session_visibility_override() {
        let engine = Arc::new(MosaicEngine::new());
        let setup = engine.session();
        setup
            .execute(
                "CREATE TABLE Report (city TEXT, n INT);
                 INSERT INTO Report VALUES ('x', 10), ('y', 30);
                 CREATE GLOBAL POPULATION People (city TEXT);
                 CREATE METADATA People_M1 AS (SELECT city, n FROM Report);
                 CREATE SAMPLE S AS (SELECT * FROM People);
                 INSERT INTO S VALUES ('x'), ('y'), ('y');",
            )
            .unwrap();
        // Engine default is SEMI-OPEN; a CLOSED-override session answers
        // from the raw sample instead.
        let closed = engine.session().with_default_visibility(Visibility::Closed);
        let r = closed.execute("SELECT COUNT(*) FROM People").unwrap();
        assert_eq!(r.visibility, Some(Visibility::Closed));
        assert_eq!(r.table.value(0, 0), Value::Int(3));
        let semi = engine.session();
        let r = semi.execute("SELECT COUNT(*) FROM People").unwrap();
        assert_eq!(r.visibility, Some(Visibility::SemiOpen));
        assert!((r.table.value(0, 0).as_f64().unwrap() - 40.0).abs() < 1e-6);
    }

    #[test]
    fn prepared_caches_optimized_plan() {
        let engine = engine_with_table();
        // Explicit override so the test is independent of the ambient
        // MOSAIC_OPTIMIZER default.
        let s = engine.session().with_optimizer(true);
        let sql = "SELECT k FROM t WHERE v > ? + (1 + 1) ORDER BY v DESC LIMIT 2";
        let p = s.prepare(sql).unwrap();
        // Rules ran once, at prepare: folding left the `?` residual,
        // pruning resolved the scan columns, fusion produced TopK.
        assert!(p.fired_rules().contains(&"constant_folding"), "{p:?}");
        assert!(p.fired_rules().contains(&"sort_limit_fusion"), "{p:?}");
        let logical = p.logical_plan().to_string();
        assert!(logical.contains("?1 + 2"), "{logical}");
        assert!(logical.contains("TopK"), "{logical}");
        // Bit-identity against an optimizer-off session's prepared plan.
        let off = s.clone().with_optimizer(false);
        let p_off = off.prepare(sql).unwrap();
        assert!(p_off.fired_rules().is_empty(), "{p_off:?}");
        for v in [0i64, 1, 3] {
            let a = s.query_prepared(&p, &[Value::Int(v)]).unwrap();
            let b = off.query_prepared(&p_off, &[Value::Int(v)]).unwrap();
            assert_eq!(a.num_rows(), b.num_rows(), "v = {v}");
            for r in 0..a.num_rows() {
                for c in 0..a.num_columns() {
                    assert_eq!(a.value(r, c), b.value(r, c), "v = {v} cell ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn pruned_sample_scan_keeps_weight_column() {
        let engine = Arc::new(MosaicEngine::new());
        let s = engine.session();
        s.execute(
            "CREATE GLOBAL POPULATION People (city TEXT, age INT);
             CREATE SAMPLE S AS (SELECT * FROM People);
             INSERT INTO S VALUES ('x', 1), ('y', 2);",
        )
        .unwrap();
        // `weight` is engine-managed, not part of the sample's declared
        // schema; the pruned scan must still keep it.
        let p = s
            .prepare("SELECT SUM(weight) FROM S WHERE age > ?")
            .unwrap();
        let out = s.query_prepared(&p, &[Value::Int(0)]).unwrap();
        assert_eq!(out.value(0, 0), Value::Float(2.0));
    }

    #[test]
    fn scalar_and_sample_prepared() {
        let engine = Arc::new(MosaicEngine::new());
        let s = engine.session();
        let p = s.prepare("SELECT 1 + ?").unwrap();
        let out = s.query_prepared(&p, &[Value::Int(41)]).unwrap();
        assert_eq!(out.value(0, 0), Value::Int(42));
        let err = s.prepare("SELECT x").unwrap_err();
        assert!(matches!(err, MosaicError::Bind(_)), "{err}");
    }
}
