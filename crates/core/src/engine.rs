//! [`MosaicEngine`] — the shared Mosaic engine: DDL/DML handling plus
//! the three-visibility population query pipeline of paper §4.
//!
//! Every SELECT reaches the engine as a [`Prepared`] binding
//! (`session.rs`): [`MosaicEngine::select`] carries out the read
//! decision (`source.rs`) for each source the binder recorded and runs
//! the stored plan — the engine never classifies a FROM clause or plans
//! a statement itself.
//!
//! The engine is `Arc`-shareable: its catalog sits behind a
//! `parking_lot::RwLock`, so any number of sessions run SELECTs
//! concurrently under read locks while DDL/DML statements take the
//! write lock. Fitted generative models and the replicates drawn from
//! them live in the engine's derived-artefact cache (`cache.rs`), so
//! concurrent OPEN queries share one fit and one draw per replicate, and
//! no fit or draw runs under a cache lock.

use std::collections::HashMap;
use std::sync::Arc;

use mosaic_bn::BnConfig;
use mosaic_sql::{
    parse_spanned, Expr, InsertSource, SelectItem, SelectStmt, Statement, Visibility,
};
use mosaic_stats::{Binner, Ipf, IpfConfig, IpfReport, Marginal};
use mosaic_storage::{Column, DataType, Field, Schema, Table, TableBuilder, Value};
use mosaic_swg::SwgConfig;
use parking_lot::{Mutex, RwLock, RwLockReadGuard};

use crate::catalog::{
    empty_table, marginal_from_table, Catalog, Mechanism, MetadataEntry, Population, Sample,
};
use crate::eval::eval_scalar;
use crate::models::{BnModel, GenerativeModel, SwgModel};
use crate::plan::{ExecContext, PhysicalPlan, PlanInput, PostJoin};
use crate::session::{population_deps, Prepared, RelKind, Session, Source};
use crate::source::{
    combined_weight, mechanism_note, read_side, How, Metadata, PopulationRead, Read,
};
use crate::{Knobs, MosaicError, Result, ScriptError};

/// Which generative model answers OPEN queries.
#[derive(Debug, Clone)]
pub enum OpenBackend {
    /// The Marginal-Constrained Sliced Wasserstein Generator (paper §5).
    Swg(SwgConfig),
    /// A Chow–Liu Bayesian network on the IPF-reweighted sample (the
    /// explicit-model alternative of §4.2).
    BayesNet(BnConfig),
}

impl OpenBackend {
    pub(crate) fn id(&self) -> &'static str {
        match self {
            OpenBackend::Swg(_) => "m-swg",
            OpenBackend::BayesNet(_) => "bayes-net",
        }
    }
}

/// OPEN query processing options.
///
/// `#[non_exhaustive]`: construct with [`OpenOptions::default`] and the
/// `with_*` builders so future fields are not breaking changes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct OpenOptions {
    /// Generative backend.
    pub backend: OpenBackend,
    /// Independent generated samples per query; the paper uses 10 and
    /// returns "the groups appearing in all 10 answers, averaging the
    /// aggregate value" (§5.3).
    pub num_generated: usize,
    /// Rows per generated sample (`None` = same as the training sample,
    /// the paper's protocol).
    pub rows_per_sample: Option<usize>,
}

impl Default for OpenOptions {
    fn default() -> Self {
        OpenOptions {
            backend: OpenBackend::Swg(SwgConfig::default()),
            num_generated: 10,
            rows_per_sample: None,
        }
    }
}

impl OpenOptions {
    /// Set the generative backend.
    pub fn with_backend(mut self, backend: OpenBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Set the number of generated samples combined per query.
    pub fn with_num_generated(mut self, n: usize) -> Self {
        self.num_generated = n;
        self
    }

    /// Set the rows per generated sample (`None` = training-sample size).
    pub fn with_rows_per_sample(mut self, n: Option<usize>) -> Self {
        self.rows_per_sample = n;
        self
    }
}

/// Engine-wide options: what a deployment fixes once for every session.
/// The per-query settings live in each session's [`Knobs`].
///
/// `#[non_exhaustive]`: construct with [`EngineOptions::default`] and the
/// `with_*` builders so future fields are not breaking changes.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EngineOptions {
    /// OPEN query options.
    pub open: OpenOptions,
    /// IPF convergence settings for SEMI-OPEN queries.
    pub ipf: IpfConfig,
    /// Binners for continuous attributes (keyed by attribute name),
    /// shared by metadata construction and IPF cell formation.
    pub binners: HashMap<String, Binner>,
    /// The engine's worker-thread budget: every new session's
    /// [`Knobs::threads`] and a server's default worker budget.
    /// Defaults to `MOSAIC_PARALLELISM` or the machine's core count;
    /// never changes results, only wall-clock time.
    pub parallelism: usize,
    /// Result-cache capacity in megabytes; `0` disables the result
    /// cache engine-wide. Defaults to 64. Caching never changes results
    /// — the determinism contract makes a valid cached result
    /// bit-identical to re-execution — it only removes latency.
    pub result_cache_mb: usize,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            open: OpenOptions::default(),
            ipf: IpfConfig::default(),
            binners: HashMap::new(),
            parallelism: crate::plan::parallel::default_parallelism(),
            result_cache_mb: 64,
        }
    }
}

impl EngineOptions {
    /// Set the OPEN query options.
    pub fn with_open(mut self, open: OpenOptions) -> Self {
        self.open = open;
        self
    }

    /// Set the IPF convergence settings.
    pub fn with_ipf(mut self, ipf: IpfConfig) -> Self {
        self.ipf = ipf;
        self
    }

    /// Set the worker-thread budget (minimum 1).
    pub fn with_parallelism(mut self, n: usize) -> Self {
        self.parallelism = n.max(1);
        self
    }

    /// Set the result-cache capacity in megabytes (`0` disables the
    /// cache engine-wide). Caching never changes results, only latency.
    pub fn with_result_cache(mut self, mb: usize) -> Self {
        self.result_cache_mb = mb;
        self
    }
}

/// The result of executing a statement: the last query's table plus
/// execution diagnostics.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// Result rows.
    pub table: Table,
    /// Visibility level that produced the result (population queries).
    pub visibility: Option<Visibility>,
    /// Human-readable diagnostics (chosen sample, IPF convergence, model
    /// cache hits, …).
    pub notes: Vec<String>,
}

impl QueryResult {
    pub(crate) fn empty() -> QueryResult {
        QueryResult {
            table: Table::empty(Schema::new(Vec::new())),
            visibility: None,
            notes: Vec::new(),
        }
    }
}

/// The shared Mosaic engine.
///
/// All methods take `&self`; wrap the engine in an [`Arc`] and open any
/// number of [`Session`]s onto it. Concurrent SELECTs proceed under
/// catalog read locks; DDL/DML statements (`CREATE …`, `INSERT`,
/// `DROP`) serialize behind the write lock. All statement execution is
/// deterministic given the engine options and the session's [`Knobs`].
///
/// ```
/// use std::sync::Arc;
/// use mosaic_core::MosaicEngine;
///
/// let engine = Arc::new(MosaicEngine::new());
/// let session = engine.session();
/// session.execute("CREATE TABLE t (x INT); INSERT INTO t VALUES (1), (2);").unwrap();
/// let prepared = session.prepare("SELECT COUNT(*) FROM t WHERE x > ?").unwrap();
/// let result = session.execute_prepared(&prepared, &[1.into()]).unwrap();
/// assert_eq!(result.table.value(0, 0), 1i64.into());
/// ```
pub struct MosaicEngine {
    catalog: RwLock<Catalog>,
    /// Shared so a statement holds its snapshot without the lock;
    /// [`MosaicEngine::register_binner`] copies on write.
    options: RwLock<Arc<EngineOptions>>,
    /// Fitted OPEN models and their generated replicates, valid per
    /// epoch snapshot (see [`crate::cache`]).
    derived: crate::cache::DerivedCache,
    /// Epoch-invalidated query results, shared by every session (see
    /// [`crate::cache`]).
    result_cache: crate::cache::ResultCache,
    /// Bound-and-optimized plans for ad-hoc SQL, keyed on the statement
    /// text, shared by every session and wire connection.
    plan_cache: crate::cache::PlanCache,
}

impl Default for MosaicEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl MosaicEngine {
    /// New engine with default options (M-SWG OPEN backend).
    pub fn new() -> MosaicEngine {
        Self::with_options(EngineOptions::default())
    }

    /// New engine with explicit options.
    pub fn with_options(options: EngineOptions) -> MosaicEngine {
        MosaicEngine {
            catalog: RwLock::new(Catalog::new()),
            options: RwLock::new(Arc::new(options)),
            derived: crate::cache::DerivedCache::default(),
            result_cache: crate::cache::ResultCache::default(),
            plan_cache: crate::cache::PlanCache::default(),
        }
    }

    /// Open a new session on this shared engine. Sessions are cheap
    /// (an `Arc` clone plus one [`Knobs`]) and independent: each starts
    /// from [`Knobs::from_env`] with the engine's thread budget and can
    /// change any knob without touching the engine-wide options.
    pub fn session(self: &Arc<Self>) -> Session {
        Session::new(Arc::clone(self))
    }

    /// Read access to the catalog. Holding the guard blocks writers
    /// (DDL/DML), not other readers — drop it promptly.
    pub fn catalog(&self) -> RwLockReadGuard<'_, Catalog> {
        self.catalog.read()
    }

    /// Snapshot of the engine-wide options.
    pub fn options(&self) -> Arc<EngineOptions> {
        Arc::clone(&self.options.read())
    }

    /// Register a binner for a continuous attribute (shared by metadata
    /// construction and IPF). Statements already running keep the
    /// options they started with.
    pub fn register_binner(&self, attr: &str, binner: Binner) {
        Arc::make_mut(&mut self.options.write())
            .binners
            .insert(attr.to_ascii_lowercase(), binner);
    }

    /// Register (or replace) an auxiliary table programmatically —
    /// the bulk-ingestion path that skips SQL `INSERT` round-trips.
    pub fn register_table(&self, name: &str, table: Table) -> Result<()> {
        self.catalog.write().create_aux(name, table)
    }

    /// Ingest rows into a sample programmatically (the paper's "...Ingest
    /// Yahoo sample to YahooMigrants" step).
    pub fn ingest_sample(&self, sample: &str, rows: Table) -> Result<()> {
        let mut cat = self.catalog.write();
        let coerced = coerce_to_sample_schema(&cat, sample, rows)?;
        cat.append_to_sample(sample, coerced)
    }

    /// Attach a marginal to a population programmatically.
    pub fn add_metadata(&self, name: &str, population: &str, marginal: Marginal) -> Result<()> {
        self.catalog.write().create_metadata(MetadataEntry {
            name: name.to_string(),
            population: population.to_string(),
            marginal,
        })
    }

    /// Overwrite a sample's initial weights (paper §3.2). Every weight
    /// must be finite and non-negative; zero drops a row's mass.
    pub fn set_sample_weights(&self, sample: &str, weights: Vec<f64>) -> Result<()> {
        self.catalog.write().set_sample_weights(sample, weights)
    }

    /// Run a script of `;`-separated statements under a session's knobs —
    /// the one loop every script takes ([`Session::execute_script`], so
    /// also the wire's `Query` frame and the shell). A script whose exact
    /// text has an epoch-valid plan in the shared plan cache runs it
    /// without being parsed; any other script is parsed once and its
    /// statements run in order, a single-SELECT script publishing its
    /// binding for the next identical script. Stops at the first failing
    /// statement — earlier statements keep their effects — and returns
    /// the last result, or an empty one.
    pub(crate) fn run_script(
        &self,
        sql: &str,
        k: &Knobs,
    ) -> std::result::Result<QueryResult, ScriptError> {
        {
            let cat = self.catalog.read();
            if let Some(p) = self.plan_cache.get(sql, k.visibility, k.optimizer, &cat) {
                return self
                    .select_prepared(&cat, &self.options(), k, &p, &[])
                    .map_err(|e| ScriptError::at(0, p.sql(), e));
            }
        }
        let stmts = parse_spanned(sql).map_err(|e| ScriptError {
            statement: None,
            error: e.into(),
        })?;
        let opts = self.options();
        let publish = matches!(stmts.as_slice(), [(Statement::Select(_), _)]);
        let mut last = QueryResult::empty();
        for (i, (stmt, span)) in stmts.into_iter().enumerate() {
            let text = sql[span].trim();
            let outcome = match stmt {
                Statement::Select(stmt) if publish => self
                    .execute_select(stmt, Some((sql, text)), &opts, k)
                    .map(Some),
                stmt => self.execute_statement(stmt, &opts, k),
            };
            if let Some(r) = outcome.map_err(|e| ScriptError::at(i, text, e))? {
                last = r;
            }
        }
        Ok(last)
    }

    /// Execute one ad-hoc SELECT — the single entry every unprepared
    /// SELECT (script statements, `INSERT … SELECT` sources) goes
    /// through: bind it, publish the binding for cross-session reuse
    /// when the statement is a whole script (`script` holds the script's
    /// text, the plan-cache key, and the statement's), and run it
    /// through the result cache. A bind failure is the statement's error.
    fn execute_select(
        &self,
        stmt: SelectStmt,
        script: Option<(&str, &str)>,
        opts: &EngineOptions,
        k: &Knobs,
    ) -> Result<QueryResult> {
        reject_params(&stmt)?;
        let cat = self.catalog.read();
        let text = script.map_or("", |(_, text)| text);
        let p = Arc::new(Prepared::bind(&cat, k, stmt, text)?);
        if let Some((sql, _)) = script {
            self.plan_cache
                .insert(sql, k.visibility, k.optimizer, Arc::clone(&p), &cat);
        }
        self.select_prepared(&cat, opts, k, &p, &[])
    }

    /// Execute a bound statement through the result cache: look the
    /// fingerprint up under the same catalog read guard the execution
    /// would use (so epoch checks and execution see one catalog state),
    /// fall through to [`MosaicEngine::select`] on a miss, and insert
    /// the fresh result under the current epoch snapshot.
    pub(crate) fn select_prepared(
        &self,
        cat: &Catalog,
        opts: &EngineOptions,
        k: &Knobs,
        prepared: &Prepared,
        params: &[Value],
    ) -> Result<QueryResult> {
        let vis = prepared.visibility().unwrap_or(Visibility::Closed);
        if !result_cache_on(opts, k) {
            return self.select(cat, opts, k, prepared, params);
        }
        let fp = fingerprint_of(prepared, params, opts, k, vis);
        if let Some(mut hit) = self.result_cache.get(fp, cat) {
            hit.notes.push(format!(
                "result cache hit (fingerprint {})",
                crate::plan::fingerprint::format_fingerprint(fp)
            ));
            return Ok(hit);
        }
        let result = self.select(cat, opts, k, prepared, params)?;
        let (relations, capacity) = (prepared.dependencies(), opts.result_cache_mb << 20);
        self.result_cache
            .insert(fp, &result, cat, relations, capacity);
        Ok(result)
    }

    /// Point-in-time statistics of the shared result, plan and
    /// derived-artefact caches.
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        let mut s = crate::cache::CacheStats {
            capacity_bytes: self.options.read().result_cache_mb << 20,
            ..Default::default()
        };
        self.result_cache.stats_into(&mut s);
        self.plan_cache.stats_into(&mut s);
        self.derived.stats_into(&mut s);
        s
    }

    /// Drop every cached result, plan, fitted model and replicate.
    /// Cumulative counters are kept;
    /// correctness never requires this call — epochs invalidate stale
    /// entries automatically — it just releases memory.
    pub fn clear_caches(&self) {
        self.result_cache.clear();
        self.plan_cache.clear();
        self.derived.clear();
    }

    /// Whether a valid (epoch-current) result is cached under `fp`
    /// (`EXPLAIN`'s non-mutating probe).
    pub(crate) fn result_cached(&self, fp: u64, cat: &Catalog) -> bool {
        self.result_cache.peek(fp, cat)
    }

    fn execute_statement(
        &self,
        stmt: Statement,
        opts: &EngineOptions,
        k: &Knobs,
    ) -> Result<Option<QueryResult>> {
        match stmt {
            Statement::CreateTable { name, fields, .. } => {
                if fields.is_empty() {
                    return Err(MosaicError::Unsupported(format!(
                        "CREATE TABLE {name} requires a column list"
                    )));
                }
                self.catalog
                    .write()
                    .create_aux(&name, Table::empty(Schema::new(fields)))?;
                Ok(None)
            }
            Statement::CreatePopulation {
                name,
                global,
                fields,
                source,
            } => {
                let mut cat = self.catalog.write();
                let schema = if !fields.is_empty() {
                    Schema::new(fields)
                } else if let Some((gp, _, cols)) = &source {
                    let gp_pop = cat
                        .population(gp)
                        .ok_or_else(|| MosaicError::Catalog(format!("unknown population {gp}")))?;
                    if cols.is_empty() {
                        Arc::clone(&gp_pop.schema)
                    } else {
                        gp_pop
                            .schema
                            .project(&cols.iter().map(String::as_str).collect::<Vec<_>>())?
                    }
                } else {
                    return Err(MosaicError::Catalog(format!(
                        "population {name} needs attributes or an AS SELECT definition"
                    )));
                };
                cat.create_population(Population {
                    name,
                    schema,
                    global,
                    source: source.map(|(gp, pred, _)| (gp, pred)),
                })?;
                Ok(None)
            }
            Statement::CreateSample {
                name,
                fields,
                population,
                columns,
                predicate,
                mechanism,
            } => {
                let mut cat = self.catalog.write();
                let pop = cat.population(&population).ok_or_else(|| {
                    MosaicError::Catalog(format!("unknown population {population}"))
                })?;
                let schema = if !fields.is_empty() {
                    Schema::new(fields)
                } else if columns.is_empty() {
                    Arc::clone(&pop.schema)
                } else {
                    pop.schema
                        .project(&columns.iter().map(String::as_str).collect::<Vec<_>>())?
                };
                cat.create_sample(Sample {
                    name,
                    population,
                    predicate,
                    mechanism: mechanism.as_ref().map(Mechanism::from),
                    data: empty_table(schema),
                    weights: Vec::new(),
                })?;
                Ok(None)
            }
            Statement::CreateMetadata {
                name,
                population,
                query,
            } => {
                // One write lock for the whole statement: binding and
                // executing the metadata query take `&Catalog` and never
                // lock it (no engine re-entry), so this cannot deadlock.
                let mut cat = self.catalog.write();
                let pop = match population {
                    Some(p) => p,
                    None => cat.infer_metadata_population(&name).ok_or_else(|| {
                        MosaicError::Catalog(format!(
                            "cannot infer the population for metadata {name}; use CREATE METADATA {name} FOR <population> AS …"
                        ))
                    })?,
                };
                reject_params(&query)?;
                // Key columns name the marginal's attributes; an
                // unaliased qualified key would name one no population
                // has.
                let keys = &query.items[..query.items.len().saturating_sub(1)];
                let qualified_key = keys.iter().find_map(|i| match i {
                    SelectItem::Expr {
                        expr: Expr::Column(c),
                        alias: None,
                    } if c.contains('.') => Some(c.clone()),
                    _ => None,
                });
                let bound = Prepared::bind(&cat, k, query, "")?;
                // A metadata query over a population would depend on the
                // metadata it defines; samples and joins are not reports.
                if !matches!(bound.source(), Source::Single(rel) if rel.kind == RelKind::Aux) {
                    return Err(MosaicError::Unsupported(
                        "metadata queries read auxiliary tables: the FROM clause must name \
                         exactly one auxiliary table (not a sample, a population or a join)"
                            .into(),
                    ));
                }
                if let Some(c) = qualified_key {
                    return Err(MosaicError::Unsupported(format!(
                        "metadata key {c} would name a marginal attribute no population has; \
                         write {c} AS <attribute>"
                    )));
                }
                let result = self.select(&cat, opts, k, &bound, &[])?.table;
                let marginal = marginal_from_table(&result)?;
                cat.create_metadata(MetadataEntry {
                    name,
                    population: pop,
                    marginal,
                })?;
                Ok(None)
            }
            Statement::Insert {
                table,
                columns,
                source,
            } => {
                self.insert(&table, columns.as_deref(), source, opts, k)?;
                Ok(None)
            }
            Statement::Select(stmt) => self.execute_select(stmt, None, opts, k).map(Some),
            Statement::Explain(stmt) => {
                let cat = self.catalog.read();
                let bound = Prepared::bind(&cat, k, stmt, "")?;
                let lines = crate::explain::render(self, &cat, opts, k, &bound)?;
                let table = Table::new(
                    Schema::new(vec![Field::new("plan", DataType::Str)]),
                    vec![Column::from_str(lines)],
                )?;
                Ok(Some(QueryResult {
                    table,
                    visibility: None,
                    notes: Vec::new(),
                }))
            }
            Statement::Drop { name } => {
                self.catalog.write().drop_any(&name)?;
                Ok(None)
            }
        }
    }

    fn insert(
        &self,
        target: &str,
        columns: Option<&[String]>,
        source: InsertSource,
        opts: &EngineOptions,
        k: &Knobs,
    ) -> Result<()> {
        // For a SELECT source, run the query (under its own read lock)
        // first — taking the write lock around a SELECT that re-enters
        // the engine would self-deadlock.
        let (values, selected) = match source {
            InsertSource::Values(rows) => (rows, None),
            InsertSource::Select(stmt) => {
                let result = self.execute_select(*stmt, None, opts, k)?;
                (Vec::new(), Some(result.table))
            }
        };
        let mut cat = self.catalog.write();
        // Resolve the target schema (aux table or sample).
        let (target_schema, is_sample) = if let Some(t) = cat.aux(target) {
            (Arc::clone(t.schema()), false)
        } else if let Some(s) = cat.sample(target) {
            (Arc::clone(s.data.schema()), true)
        } else if cat.population(target).is_some() {
            return Err(MosaicError::Unsupported(
                "cannot INSERT into a population: population tuples are unknown by definition; ingest into a SAMPLE instead"
                    .into(),
            ));
        } else {
            return Err(MosaicError::Catalog(format!("unknown relation {target}")));
        };
        let rows = match selected {
            None => {
                let mut b = TableBuilder::with_capacity(Arc::clone(&target_schema), values.len());
                for row in values {
                    let values: Vec<Value> = row.iter().map(eval_scalar).collect::<Result<_>>()?;
                    b.push_row(arrange_row(&target_schema, columns, values)?)?;
                }
                b.finish()
            }
            Some(result) => {
                // Re-type row by row so compatible columns coerce.
                let mut b =
                    TableBuilder::with_capacity(Arc::clone(&target_schema), result.num_rows());
                for row in result.rows() {
                    b.push_row(arrange_row(&target_schema, columns, row)?)?;
                }
                b.finish()
            }
        };
        // Dictionary-encode the ingested string columns: dict is the
        // first-class string representation for every ingest path (CSV,
        // VALUES, INSERT..SELECT), so scans hit the code-level kernels.
        let rows = rows.dict_encoded();
        if is_sample {
            cat.append_to_sample(target, rows)
        } else {
            let existing = cat.aux(target).expect("checked above");
            let merged = if existing.is_empty() {
                rows
            } else {
                existing.concat(&rows)?
            };
            cat.replace_aux(target, merged)
        }
    }

    // ---- SELECT dispatch ----

    /// Execute a bound statement: decide how each recorded FROM side is
    /// read ([`read_side`]), materialize every side but a generated one,
    /// and run the stored plan once — one side as a table with its row
    /// weights, two as a join — or, when OPEN generates a population
    /// side, once per replicate through the replicate driver.
    pub(crate) fn select(
        &self,
        cat: &Catalog,
        opts: &EngineOptions,
        k: &Knobs,
        bound: &Prepared,
        params: &[Value],
    ) -> Result<QueryResult> {
        let plan = &bound.planned().physical;
        let ctx = ExecContext::new(params, k.threads, k.partitions);
        let rels = match bound.source() {
            Source::Scalar => {
                let table = &Table::new(
                    Schema::new(vec![Field::new("dummy", DataType::Int)]),
                    vec![Column::from_i64(vec![0])],
                )?;
                let weights = None;
                let table = plan.run(PlanInput::Table { table, weights }, &ctx)?;
                return Ok(QueryResult {
                    table,
                    visibility: None,
                    notes: Vec::new(),
                });
            }
            Source::Single(rel) => std::slice::from_ref(rel),
            Source::Join(rels) => rels.as_slice(),
        };
        let visibility = bound.visibility();
        let sides = rels
            .iter()
            .map(|rel| read_side(cat, rel, visibility))
            .collect::<Result<Vec<_>>>()?;
        let joined = sides.len() > 1;
        let (marginals, combined) = combined_weight(&sides).unzip();
        let mut notes = Vec::new();
        let mut inputs: Vec<Option<Input>> = Vec::with_capacity(sides.len());
        let mut generated = None;
        for side in sides {
            match side_input(opts, side.read, joined, &mut notes)? {
                SideInput::Fixed(input) => inputs.push(Some(input)),
                SideInput::Generated(side, meta) => {
                    generated = Some((side, meta));
                    inputs.push(None);
                }
            }
        }
        if joined {
            let from = bound
                .stmt()
                .from
                .as_ref()
                .expect("join statements have FROM");
            let sym = match from.joins[0].kind {
                mosaic_sql::JoinKind::Inner => "⋈",
                mosaic_sql::JoinKind::LeftOuter => "⟕",
            };
            let (left, right) = (&rels[0].name, &rels[1].name);
            notes.push(format!("hash equi-join of {left} {sym} {right}"));
        }
        if let Some(combined) = combined {
            notes.push(format!("combined weight = {combined}"));
        }
        // One re-calibration fit per execution of the joined plan (per
        // replicate under OPEN); their reports become one note after the
        // run.
        let recal_fits: Mutex<Vec<(usize, IpfReport)>> = Mutex::new(Vec::new());
        let marginals = marginals.unwrap_or_default();
        let recalibrate = |joined: Table| {
            let fit = recalibrate_joined_weights(&joined, &marginals, &opts.binners, &opts.ipf)?;
            Ok(fit.map(|(weight, applied, report)| {
                recal_fits.lock().push((applied, report));
                weight
            }))
        };
        let post_join: Option<&PostJoin<'_>> = if marginals.is_empty() {
            None
        } else {
            Some(&recalibrate)
        };
        let run = |plan: &PhysicalPlan, inputs: &[&Input], ctx: &ExecContext<'_>| match *inputs {
            [(table, weights)] => {
                let weights = weights.as_deref();
                plan.run(PlanInput::Table { table, weights }, ctx)
            }
            [(left, _), (right, _)] => plan.run(
                PlanInput::Join {
                    left,
                    right,
                    post_join,
                },
                ctx,
            ),
            _ => unreachable!("a FROM clause reads one or two relations"),
        };
        let table = match generated {
            None => run(plan, &inputs.iter().flatten().collect::<Vec<_>>(), &ctx)?,
            Some((side, meta)) => {
                let om = self.open_model(cat, opts, side, meta, &mut notes)?;
                // One replicate: the generated rows, each carrying the
                // replicate's uniform weight, in place of the side.
                let answer =
                    |plan: &PhysicalPlan, rows: Table, weight: f64, ctx: &ExecContext<'_>| {
                        let weights = vec![weight; rows.num_rows()];
                        let gen = input(rows, weights, joined)?;
                        let inputs: Vec<&Input> =
                            inputs.iter().map(|i| i.as_ref().unwrap_or(&gen)).collect();
                        run(plan, &inputs, ctx)
                    };
                let what = if joined { "join" } else { "query" };
                open_answer(k, bound, params, &om, what, &mut notes, answer)?
            }
        };
        let fits = std::mem::take(&mut *recal_fits.lock());
        // Replicates fit independently: report the worst fit, which is
        // the same whichever worker ran which replicate.
        let worst = fits.iter().max_by(|(_, a), (_, b)| {
            (!a.converged)
                .cmp(&!b.converged)
                .then(a.max_rel_error.total_cmp(&b.max_rel_error))
                .then(a.iterations.cmp(&b.iterations))
        });
        if let Some((applied, report)) = worst {
            let runs = match fits.len() {
                1 => String::new(),
                n => format!(", worst of {n} replicate fits"),
            };
            notes.push(ipf_note(
                &format!("{applied} marginal(s) re-calibrating the combined join weight{runs}"),
                report,
            ));
        }
        Ok(QueryResult {
            table,
            visibility,
            notes,
        })
    }

    /// Choose training data and fit (or fetch from the derived-artefact
    /// cache) the generative model for one generated population side — a
    /// single-population OPEN answer or the OPEN side of an open-world
    /// join. A cached model, and every replicate drawn from it, is valid
    /// while the population's dependency epochs are unchanged — the rule
    /// plans and results are validated by — so writes to unrelated
    /// relations never refit or redraw.
    fn open_model<'e>(
        &'e self,
        cat: &'e Catalog,
        opts: &EngineOptions,
        side: PopulationRead<'_>,
        meta: Metadata<'_>,
        notes: &mut Vec<String>,
    ) -> Result<OpenModel<'e>> {
        let PopulationRead {
            pop, sample, view, ..
        } = side;
        let marginals = meta.marginals();
        // Training data: if the metadata describes the query population,
        // train on the view-filtered sample; if it describes the GP, train
        // on the full sample and filter generated tuples afterwards.
        let (train_data, train_init) = if meta.of_gp {
            (sample.data.clone(), sample.weights.clone())
        } else {
            apply_view_weighted(&sample.data, &sample.weights, view)?
        };
        if train_data.is_empty() {
            return Err(MosaicError::Execution(
                "no sample rows available to train the generative model".into(),
            ));
        }
        let pop_size = marginals.iter().map(|m| m.total()).fold(0.0f64, f64::max);
        // The cache key covers everything the fit reads — backend
        // hyper-parameters, IPF settings and binners — so a registered
        // binner refits instead of serving a model fitted without it.
        let key = format!(
            "{}|{}",
            pop.name.to_ascii_lowercase(),
            model_shape(opts, Visibility::Open).expect("OPEN has a model shape")
        );
        let deps = population_deps(pop);
        let fit = || {
            let mut model: Box<dyn GenerativeModel> = match &opts.open.backend {
                OpenBackend::Swg(cfg) => Box::new(SwgModel::new(cfg.clone())),
                OpenBackend::BayesNet(cfg) => Box::new(BnModel::new(cfg.clone())),
            };
            // Explicit backends want IPF weights; compute them when
            // possible (ignore failure: marginals may not be IPF-able).
            let ipf_weights = Ipf::new(&train_data, &marginals, &opts.binners)
                .map(|ipf| ipf.fit(Some(&train_init), &opts.ipf).0)
                .unwrap_or_else(|_| train_init.clone());
            model.fit(&train_data, &ipf_weights, &marginals)?;
            notes.push(format!(
                "trained {} on {} rows with {} marginal(s)",
                model.name(),
                train_data.num_rows(),
                marginals.len()
            ));
            // A model summarises its training sample: charge it that
            // sample's bytes.
            Ok((Arc::from(model), train_data.approx_bytes()))
        };
        let (model, hit) = self.derived.model(key.clone(), cat, &deps, fit)?;
        if hit {
            notes.push("generative model cache hit".into());
        }
        let per_sample = opts
            .open
            .rows_per_sample
            .unwrap_or_else(|| train_data.num_rows());
        Ok(OpenModel {
            model,
            cache: &self.derived,
            cat,
            key,
            deps,
            meta_is_gp: meta.of_gp,
            view: view.cloned(),
            pop_size,
            per_sample,
            runs: opts.open.num_generated.max(1),
        })
    }
}

/// Ad-hoc statements carry no parameter values: a `?` outside a
/// prepared statement is an error.
fn reject_params(stmt: &SelectStmt) -> Result<()> {
    match stmt.param_count() {
        0 => Ok(()),
        n => Err(MosaicError::Param(format!(
            "statement expects {n} parameter(s); use Session::prepare / execute_prepared"
        ))),
    }
}

/// OPEN answering (paper §4.2, §5.3 protocol) over a fitted model — the
/// one replicate driver. `answer` runs `plan` over one generated sample,
/// whose rows each carry the given uniform weight, under the given
/// context.
///
/// A non-aggregate statement is answered from one generated sample (a
/// representative population). An aggregate statement runs its
/// replicate plan — the plan without its ordering stages — on
/// `num_generated` samples, keeps the groups present in every answer,
/// averages the aggregates, and then runs the plan's own ordering
/// stages over the combined answer.
fn open_answer(
    k: &Knobs,
    bound: &Prepared,
    params: &[Value],
    om: &OpenModel<'_>,
    what: &str,
    notes: &mut Vec<String>,
    answer: impl Fn(&PhysicalPlan, Table, f64, &ExecContext<'_>) -> Result<Table> + Sync,
) -> Result<Table> {
    let generate = |run: usize| om.generate(open_run_seed(k.seed, run));
    // The engine owns one thread budget: when several replicates run
    // concurrently, each runs its inner query single-threaded; a lone
    // replicate hands the whole budget to the morsel executor. Either
    // way at most `k.threads` threads are busy — the replicate pool and
    // the executor pool never multiply.
    let parallelism = k.threads.max(1);
    let ctx = |threads| ExecContext::new(params, threads, k.partitions);
    let Some(replicate_plan) = bound.replicate_plan() else {
        let (generated, weight) = generate(0)?;
        notes.push(format!(
            "non-aggregate OPEN {what} answered from one generated sample of {} rows",
            generated.num_rows()
        ));
        return answer(
            &bound.planned().physical,
            generated,
            weight,
            &ctx(parallelism),
        );
    };
    // The replicates are independent and the fitted model is shared
    // immutably, so run the paper's `num_generated = 10` loop on a
    // bounded worker pool: idle workers pull the next run index off a
    // shared counter. Seeding per run index and collecting by run
    // index keep the combined answer identical to serial execution.
    let runs = om.runs;
    let workers = runs.min(parallelism);
    let inner_threads = if workers > 1 { 1 } else { parallelism };
    let per_run: Vec<Table> = crate::plan::parallel::run_ordered(runs, workers, |run| {
        let (generated, weight) = generate(run)?;
        answer(replicate_plan, generated, weight, &ctx(inner_threads))
    })
    .into_iter()
    .collect::<Result<_>>()?;
    notes.push(format!(
        "combined {} generated samples of {} rows across {} worker thread(s) (population size {:.0})",
        runs, om.per_sample, workers, om.pop_size
    ));
    let combined = combine_open_runs(bound.stmt(), per_run)?;
    bound
        .planned()
        .physical
        .apply_order(combined, None, &ctx(parallelism))
}

/// A fitted generative model plus the replicate parameters of the OPEN
/// loop (paper §4.2), produced by [`MosaicEngine::open_model`].
struct OpenModel<'e> {
    model: Arc<dyn GenerativeModel>,
    /// Where the model's replicates are kept, under the model's key and
    /// the population's dependencies as they are in `cat`.
    cache: &'e crate::cache::DerivedCache,
    cat: &'e Catalog,
    key: String,
    deps: Vec<String>,
    /// Whether the marginals (and thus the model) describe the GP: the
    /// view predicate then filters *generated* tuples.
    meta_is_gp: bool,
    /// The population's defining predicate over the GP, if any.
    view: Option<Expr>,
    /// Population size implied by the metadata (max marginal total).
    pop_size: f64,
    /// Rows drawn per replicate.
    per_sample: usize,
    /// Replicates an aggregate answer combines.
    runs: usize,
}

impl OpenModel<'_> {
    /// One replicate, from the derived-artefact cache or freshly drawn:
    /// `per_sample` rows from `seed`, view-filtered when the model was
    /// trained on the GP, and the per-row uniform weight — population
    /// size over draw count, 0 for an empty draw.
    fn generate(&self, seed: u64) -> Result<(Table, f64)> {
        let key = crate::cache::DerivedKey::Replicate {
            model: self.key.clone(),
            seed,
            rows: self.per_sample,
        };
        self.cache.replicate(key, self.cat, &self.deps, || {
            let generated = self.model.generate(self.per_sample, seed)?;
            let generated = if self.meta_is_gp {
                apply_view(&generated, self.view.as_ref())?
            } else {
                generated
            };
            let weight = if generated.is_empty() {
                0.0
            } else {
                self.pop_size / self.per_sample as f64
            };
            Ok((generated, weight))
        })
    }
}

/// Deterministic per-replicate seed: a splitmix-style multiply of the
/// base seed, offset by the run index, so run `k` draws the same rows
/// whichever worker thread executes it.
fn open_run_seed(base: u64, run: usize) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(run as u64 + 1)
}

/// Rake the joined `weight` column — the product of per-side correction
/// weights, an independence assumption — against the declared marginals
/// that project onto the joined schema. A marginal attribute resolves to
/// the column of that exact name, or — when the join qualified colliding
/// names into `binding.column` form — to the leftmost `*.attr` column
/// (for equi-join keys both sides agree, and the left side is never
/// NULL-extended). Marginals naming attributes the join projected away
/// are skipped; with none applicable (or no joined rows) the product
/// stands as-is and this returns `None`. Otherwise: the re-calibrated
/// weight column, the number of marginals applied, and the fit's report.
fn recalibrate_joined_weights(
    joined: &Table,
    marginals: &[Marginal],
    binners: &HashMap<String, Binner>,
    ipf: &IpfConfig,
) -> Result<Option<(Column, usize, IpfReport)>> {
    let fields = joined.schema().fields();
    let resolve = |attr: &str| -> Option<usize> {
        fields
            .iter()
            .position(|f| f.name.eq_ignore_ascii_case(attr))
            .or_else(|| {
                fields.iter().position(|f| {
                    f.name
                        .rsplit_once('.')
                        .is_some_and(|(_, col)| col.eq_ignore_ascii_case(attr))
                })
            })
    };
    // The marginals that fully resolve, plus the projected view IPF
    // rakes over: each resolved attribute under its unqualified name.
    let mut applicable: Vec<Marginal> = Vec::new();
    let mut view_cols: Vec<(String, usize)> = Vec::new();
    for m in marginals {
        let Some(idxs) = m
            .attrs()
            .iter()
            .map(|a| resolve(a))
            .collect::<Option<Vec<usize>>>()
        else {
            continue;
        };
        if applicable.contains(m) {
            continue; // both sides declared the same marginal
        }
        for (attr, &idx) in m.attrs().iter().zip(&idxs) {
            if !view_cols.iter().any(|(n, _)| n.eq_ignore_ascii_case(attr)) {
                view_cols.push((attr.clone(), idx));
            }
        }
        applicable.push(m.clone());
    }
    if applicable.is_empty() || joined.is_empty() {
        return Ok(None);
    }
    let widx = fields
        .iter()
        .position(|f| f.name.eq_ignore_ascii_case("weight"))
        .ok_or_else(|| {
            MosaicError::Execution(
                "combined-weight re-calibration requires the joined weight column".into(),
            )
        })?;
    let wcol = joined.column(widx);
    // NULL-extended (LEFT OUTER) rows enter IPF with weight 0 and stay
    // there; their output weight keeps the NULL validity.
    let init: Vec<f64> = (0..wcol.len())
        .map(|i| wcol.f64_at(i).unwrap_or(0.0))
        .collect();
    let view = Table::new(
        Schema::new(
            view_cols
                .iter()
                .map(|(n, i)| Field::new(n, fields[*i].data_type))
                .collect(),
        ),
        view_cols
            .iter()
            .map(|(_, i)| joined.column(*i).clone())
            .collect(),
    )?;
    let (weights, report) = Ipf::new(&view, &applicable, binners)?.fit(Some(&init), ipf);
    let validity = wcol.validity().cloned();
    let weight = Column::from_f64_opt(weights, validity);
    Ok(Some((weight, applicable.len(), report)))
}

/// The note an IPF fit leaves on its answer — the same wording on every
/// path that fits (own metadata, a GP's metadata, the combined join
/// weight), a fit that stopped short of the tolerance included.
fn ipf_note(against: &str, report: &IpfReport) -> String {
    format!(
        "IPF vs {against}: {} iterations, max rel err {:.2e}{}",
        report.iterations,
        report.max_rel_error,
        if report.converged {
            ""
        } else {
            " (not converged)"
        },
    )
}

/// The unknown-relation error, listing what the catalog does have so a
/// typo'd FROM is a one-glance fix.
pub(crate) fn unknown_relation(cat: &Catalog, name: &str) -> MosaicError {
    let names = cat.relation_names();
    if names.is_empty() {
        MosaicError::Catalog(format!(
            "unknown relation {name} (the catalog has no relations yet)"
        ))
    } else {
        MosaicError::Catalog(format!(
            "unknown relation {name}; available relations: {}",
            names.join(", ")
        ))
    }
}

/// One side's plan input: its rows and, on a weighted population side
/// of a single-relation statement, their correction weights.
type Input = (Table, Option<Vec<f64>>);

/// Rows with correction weights as a plan input: a join reads every
/// side's weights as its `weight` column instead.
fn input(table: Table, weights: Vec<f64>, joined: bool) -> Result<Input> {
    if joined {
        Ok((table_with_weight_column(&table, &weights)?, None))
    } else {
        Ok((table, Some(weights)))
    }
}

/// A side carried out for the plan, or handed to the replicate driver
/// with the metadata its model fits against.
enum SideInput<'c> {
    Fixed(Input),
    Generated(PopulationRead<'c>, Metadata<'c>),
}

/// Carry out one side's read: an auxiliary table as-is, a raw sample
/// with its weights as the `weight` column, a population's chosen sample
/// view-filtered and debiased as [`read_side`] decided (paper §4.1). A
/// debiasing path that cannot run is the statement's error.
fn side_input<'c>(
    opts: &EngineOptions,
    read: Read<'c>,
    joined: bool,
    notes: &mut Vec<String>,
) -> Result<SideInput<'c>> {
    let (side, how) = match read {
        Read::Aux(t) => return Ok(SideInput::Fixed((t.clone(), None))),
        Read::Sample(s) => {
            notes.push(format!(
                "raw sample scan of {} (weights exposed as column `weight`)",
                s.name
            ));
            let table = table_with_weight_column(&s.data, &s.weights)?;
            return Ok(SideInput::Fixed((table, None)));
        }
        Read::Population(side, how) => (side, how?),
    };
    let PopulationRead {
        pop,
        sample,
        view,
        vis,
    } = side;
    // A joined OPEN side is generated per replicate, unannounced.
    if !joined || !matches!(how, How::Generate(_)) {
        let what = match joined {
            true => format!("{vis} side"),
            false => format!("visibility {vis}"),
        };
        let (name, rows) = (&sample.name, sample.len());
        notes.push(format!(
            "population {} via sample {name} ({rows} rows), {what}",
            pop.name
        ));
    }
    let (table, weights) = match how {
        How::AsIs => return Ok(SideInput::Fixed((apply_view(&sample.data, view)?, None))),
        How::Mechanism(mechanism, strata) => {
            notes.push(mechanism_note(mechanism, strata));
            let weights = inverse_probability_weights(mechanism, strata, sample.len());
            apply_view_weighted(&sample.data, &weights, view)?
        }
        How::Ipf(meta) => ipf_weights(opts, sample, view, &meta, notes)?,
        How::Generate(meta) => return Ok(SideInput::Generated(side, meta)),
    };
    Ok(SideInput::Fixed(input(table, weights, joined)?))
}

/// A known mechanism's weight `1 / Pr_S(t)` for each of the sample's `n`
/// rows: `N_h/n_h` per stratum when there are strata, else `100/percent`.
fn inverse_probability_weights(
    mechanism: &Mechanism,
    strata: Option<(&Column, &MetadataEntry)>,
    n: usize,
) -> Vec<f64> {
    let Some((column, meta)) = strata else {
        let (Mechanism::Uniform { percent } | Mechanism::Stratified { percent, .. }) = mechanism;
        return vec![100.0 / percent; n];
    };
    let mut counts: HashMap<Value, f64> = HashMap::new();
    for v in column.iter() {
        *counts.entry(v).or_insert(0.0) += 1.0;
    }
    (0..n)
        .map(|row| {
            let v = column.value(row);
            let n_h = counts.get(&v).copied().unwrap_or(1.0);
            let cap_n_h = meta.marginal.get(&[v]).unwrap_or(0.0);
            if cap_n_h > 0.0 {
                cap_n_h / n_h
            } else {
                0.0
            }
        })
        .collect()
}

/// IPF weights (paper §4.1). Against the population's own metadata the
/// view-filtered sample is reweighted directly (the more accurate bottom
/// path of Fig. 3); against the GP's, the whole sample is reweighted to
/// the GP and the population read as a view (left path). Returns the
/// view-filtered sample and its weights.
fn ipf_weights(
    opts: &EngineOptions,
    sample: &Sample,
    view: Option<&Expr>,
    meta: &Metadata<'_>,
    notes: &mut Vec<String>,
) -> Result<(Table, Vec<f64>)> {
    let fit = |data: &Table, init: &[f64], notes: &mut Vec<String>| -> Result<Vec<f64>> {
        let ipf = Ipf::new(data, &meta.marginals(), &opts.binners)?;
        let (weights, report) = ipf.fit(Some(init), &opts.ipf);
        notes.push(ipf_note(&meta.describe(), &report));
        Ok(weights)
    };
    if meta.of_gp {
        let weights = fit(&sample.data, &sample.weights, notes)?;
        return apply_view_weighted(&sample.data, &weights, view);
    }
    let (data, init) = apply_view_weighted(&sample.data, &sample.weights, view)?;
    let weights = fit(&data, &init, notes)?;
    Ok((data, weights))
}

/// Whether this session's statements read and fill the shared result
/// cache: the session has not opted out and the engine cache has room.
pub(crate) fn result_cache_on(opts: &EngineOptions, k: &Knobs) -> bool {
    k.result_cache && opts.result_cache_mb > 0
}

/// The one rendering of the configuration that shapes a visibility's
/// answers beyond the plan: IPF settings and binners for SEMI-OPEN, plus
/// the generative backend for OPEN (everything a model fit reads).
/// CLOSED consults none of it. Both the derived-artefact cache's model
/// key and the result-cache fingerprint are built from it.
fn model_shape(opts: &EngineOptions, vis: Visibility) -> Option<String> {
    if vis == Visibility::Closed {
        return None;
    }
    // HashMap iteration order is nondeterministic — sort before
    // rendering or identical configs would key apart.
    let mut binners: Vec<String> = opts
        .binners
        .iter()
        .map(|(k, b)| format!("{k}={b:?}"))
        .collect();
    binners.sort();
    let reweighting = format!("ipf={:?}|binners={}", opts.ipf, binners.join(","));
    Some(match vis {
        Visibility::Open => format!("{reweighting}|backend={:?}", opts.open.backend),
        _ => reweighting,
    })
}

/// The canonical result-cache fingerprint of a bound statement: its
/// plan, relations and parameter values, the visibility's model shape
/// and, for OPEN, the replicate protocol and seed.
pub(crate) fn fingerprint_of(
    prepared: &Prepared,
    params: &[Value],
    opts: &EngineOptions,
    k: &Knobs,
    vis: Visibility,
) -> u64 {
    let config = model_shape(opts, vis).map(|shape| match vis {
        Visibility::Open => format!(
            "{shape}|num_generated={}|rows_per_sample={:?}|seed={}",
            opts.open.num_generated, opts.open.rows_per_sample, k.seed,
        ),
        _ => shape,
    });
    crate::plan::fingerprint::plan_fingerprint(
        prepared.logical_plan(),
        &prepared.relations(),
        params,
        vis,
        config.as_deref(),
    )
}

/// Map a row (possibly with an explicit column list) onto the target
/// schema order, filling unmentioned columns with NULL.
fn arrange_row(
    schema: &Schema,
    columns: Option<&[String]>,
    values: Vec<Value>,
) -> Result<Vec<Value>> {
    match columns {
        None => {
            if values.len() != schema.len() {
                return Err(MosaicError::Execution(format!(
                    "INSERT arity {} != table arity {}",
                    values.len(),
                    schema.len()
                )));
            }
            Ok(values)
        }
        Some(cols) => {
            if values.len() != cols.len() {
                return Err(MosaicError::Execution(format!(
                    "INSERT arity {} != column list arity {}",
                    values.len(),
                    cols.len()
                )));
            }
            let mut row = vec![Value::Null; schema.len()];
            for (c, v) in cols.iter().zip(values) {
                row[schema.index_of(c)?] = v;
            }
            Ok(row)
        }
    }
}

/// Conform `rows` to the sample's schema: columns matched by name, each
/// conformed once as a whole (see [`conform_column`]), text
/// dictionary-encoded.
fn coerce_to_sample_schema(cat: &Catalog, sample: &str, rows: Table) -> Result<Table> {
    let s = cat
        .sample(sample)
        .ok_or_else(|| MosaicError::Catalog(format!("unknown sample {sample}")))?;
    let schema = Arc::clone(s.data.schema());
    let columns = schema
        .fields()
        .iter()
        .map(|f| conform_column(rows.column_by_name(&f.name)?, f))
        .collect::<mosaic_storage::Result<Vec<_>>>()?;
    Ok(Table::new(schema, columns)?)
}

/// `col` as a column of `field`'s type, by the rules of
/// `ColumnBuilder::push`: the same type is shared (O(1)), Int widens to
/// Float, whole Floats narrow to Int, NULLs fit any type, anything else
/// is a type mismatch.
fn conform_column(col: &Column, field: &Field) -> mosaic_storage::Result<Column> {
    use mosaic_storage::StorageError;
    if !field.nullable && col.null_count() > 0 {
        return Err(StorageError::InvalidValue(format!(
            "NULL in non-nullable column {}",
            field.name
        )));
    }
    let validity = || col.validity().cloned();
    match (col.data_type(), field.data_type) {
        (from, to) if from == to => Ok(col.dict_encoded()),
        (DataType::Int, DataType::Float) => {
            let ints = col.i64_data().expect("INT column");
            let floats = ints.iter().map(|&i| i as f64).collect();
            Ok(Column::from_f64_opt(floats, validity()))
        }
        (DataType::Float, DataType::Int)
            if (0..col.len()).all(|r| col.f64_at(r).is_none_or(|f| f.fract() == 0.0)) =>
        {
            let floats = col.f64_data().expect("FLOAT column");
            let ints = floats.iter().map(|&f| f as i64).collect();
            Ok(Column::from_i64_opt(ints, validity()))
        }
        (_, to) if col.null_count() == col.len() => {
            Ok(Column::from_values(to, &vec![Value::Null; col.len()])?.dict_encoded())
        }
        (from, to) => Err(StorageError::TypeMismatch {
            expected: to.to_string(),
            actual: from.to_string(),
            context: format!("column {}", field.name),
        }),
    }
}

/// Filter a table by an optional predicate.
fn apply_view(table: &Table, view: Option<&Expr>) -> Result<Table> {
    match view {
        None => Ok(table.clone()),
        Some(pred) => {
            let sel = crate::plan::vector::eval_predicate(pred, table)?;
            Ok(table.filter(&sel))
        }
    }
}

/// Filter a table and a parallel weight vector by an optional predicate.
fn apply_view_weighted(
    table: &Table,
    weights: &[f64],
    view: Option<&Expr>,
) -> Result<(Table, Vec<f64>)> {
    match view {
        None => Ok((table.clone(), weights.to_vec())),
        Some(pred) => {
            let sel = crate::plan::vector::eval_predicate(pred, table)?;
            let idx = sel.to_indices();
            let w = idx.iter().map(|&i| weights[i]).collect();
            Ok((table.take(&idx), w))
        }
    }
}

/// The schema a raw sample scan executes against: the sample's data
/// schema plus the engine-managed `weight` column (mirroring
/// [`table_with_weight_column`]). Prepared statements and EXPLAIN bind
/// and optimize against this, so projection pruning can never drop the
/// weight column a query references.
pub(crate) fn sample_scan_schema(sample: &Sample) -> Arc<Schema> {
    let mut fields = sample.data.schema().fields().to_vec();
    fields.push(Field::new("weight", DataType::Float));
    Schema::new(fields)
}

/// Append a weight vector as the `weight` column (the catalog reserves
/// that name on populations and samples, so it is always free).
fn table_with_weight_column(data: &Table, weights: &[f64]) -> Result<Table> {
    let mut fields = data.schema().fields().to_vec();
    fields.push(Field::new("weight", DataType::Float));
    let mut columns = data.columns().to_vec();
    columns.push(Column::from_f64(weights.to_vec()));
    Table::new(Schema::new(fields), columns).map_err(Into::into)
}

/// Combine the per-generated-sample answers of an aggregate OPEN query
/// (paper §5.3): keep the groups appearing in *all* runs, and average
/// each aggregate column over the runs where it is non-NULL (NULL when
/// it is NULL in every run). A scalar aggregate's one row appears in
/// every run, so a replicate whose selection came out empty does not
/// drop the answer; it only leaves the average to the others.
fn combine_open_runs(stmt: &SelectStmt, runs: Vec<Table>) -> Result<Table> {
    let first = runs
        .first()
        .ok_or_else(|| MosaicError::Execution("no OPEN runs".into()))?;
    let schema = Arc::clone(first.schema());
    // Which output columns are group keys vs aggregates?
    let is_agg: Vec<bool> = stmt
        .items
        .iter()
        .map(|i| match i {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Wildcard => false,
        })
        .collect();
    if is_agg.len() != schema.len() {
        return Err(MosaicError::Execution(
            "OPEN combiner: projection arity mismatch".into(),
        ));
    }
    let key_cols: Vec<usize> = (0..is_agg.len()).filter(|&i| !is_agg[i]).collect();
    let agg_cols: Vec<usize> = (0..is_agg.len()).filter(|&i| is_agg[i]).collect();
    // key -> per-aggregate sums and appearance count.
    let mut order: Vec<Vec<Value>> = Vec::new();
    let mut acc: HashMap<Vec<Value>, (usize, Vec<f64>, Vec<usize>)> = HashMap::new();
    for run in &runs {
        for row in 0..run.num_rows() {
            let key: Vec<Value> = key_cols.iter().map(|&c| run.value(row, c)).collect();
            let entry = acc.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                (0, vec![0.0; agg_cols.len()], vec![0; agg_cols.len()])
            });
            entry.0 += 1;
            for (ai, &c) in agg_cols.iter().enumerate() {
                if let Some(x) = run.value(row, c).as_f64() {
                    entry.1[ai] += x;
                    entry.2[ai] += 1;
                }
            }
        }
    }
    let mut b = TableBuilder::new(Arc::clone(&schema));
    for key in &order {
        let (appearances, sums, counts) = &acc[key];
        if *appearances != runs.len() {
            continue; // paper: "return the groups appearing in all 10 answers"
        }
        let mut row = vec![Value::Null; schema.len()];
        for (ki, &c) in key_cols.iter().enumerate() {
            row[c] = key[ki].clone();
        }
        for (ai, &c) in agg_cols.iter().enumerate() {
            row[c] = if counts[ai] > 0 {
                Value::Float(sums[ai] / counts[ai] as f64)
            } else {
                Value::Null
            };
        }
        // Coerce to the schema's column types.
        let coerced: Vec<Value> = row
            .into_iter()
            .enumerate()
            .map(|(c, v)| {
                v.coerce_to(schema.field(c).data_type)
                    .unwrap_or(Value::Null)
            })
            .collect();
        b.push_row(coerced)?;
    }
    Ok(b.finish())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_storage::StorageError;

    fn select(sql: &str) -> SelectStmt {
        match mosaic_sql::parse(sql).unwrap().pop().unwrap() {
            Statement::Select(s) => s,
            other => panic!("not a select: {other:?}"),
        }
    }

    /// One replicate's answer with the given output columns and rows.
    fn run(fields: &[(&str, DataType)], rows: &[Vec<Value>]) -> Table {
        let schema = Schema::new(fields.iter().map(|(n, t)| Field::new(*n, *t)).collect());
        let mut b = TableBuilder::new(schema);
        for row in rows {
            b.push_row(row.clone()).unwrap();
        }
        b.finish()
    }

    #[test]
    fn combine_keeps_only_common_groups() {
        let stmt = select("SELECT g, AVG(x) FROM t GROUP BY g");
        let fields = [("g", DataType::Str), ("AVG(x)", DataType::Float)];
        let a = run(
            &fields,
            &[vec!["x".into(), 1.0.into()], vec!["y".into(), 3.0.into()]],
        );
        let b = run(&fields, &[vec!["x".into(), 3.0.into()]]);
        let c = combine_open_runs(&stmt, vec![a, b]).unwrap();
        assert_eq!(c.num_rows(), 1);
        assert_eq!(c.value(0, 0), Value::Str("x".into()));
        assert_eq!(c.value(0, 1), Value::Float(2.0));
    }

    /// A scalar aggregate that is NULL in some replicates (their
    /// selection was empty) averages the others; NULL in all stays NULL.
    #[test]
    fn combine_averages_the_non_null_replicates_of_a_scalar_aggregate() {
        let stmt = select("SELECT AVG(x) FROM t WHERE x > 1");
        let fields = [("AVG(x)", DataType::Float)];
        let answer = |v: Value| run(&fields, &[vec![v]]);
        let c = combine_open_runs(
            &stmt,
            vec![answer(1.0.into()), answer(Value::Null), answer(3.0.into())],
        )
        .unwrap();
        assert_eq!(c.num_rows(), 1);
        assert_eq!(c.value(0, 0), Value::Float(2.0));
        let c = combine_open_runs(&stmt, vec![answer(Value::Null), answer(Value::Null)]).unwrap();
        assert_eq!(c.num_rows(), 1);
        assert_eq!(c.value(0, 0), Value::Null);
    }

    /// `Column::from_values` pushes each value through `ColumnBuilder`,
    /// which is what ingest did row by row; `conform_column` must accept,
    /// reject and produce the same.
    #[test]
    fn conform_column_agrees_with_pushing_each_value() {
        use DataType::{Bool, Float, Int, Str};
        let sources = [
            (Int, vec![Value::Int(1), Value::Null, Value::Int(-3)]),
            (
                Float,
                vec![Value::Float(1.0), Value::Null, Value::Float(-3.0)],
            ),
            (Float, vec![Value::Float(1.5), Value::Null]),
            (Float, vec![Value::Float(f64::NAN)]),
            (Str, vec![Value::Str("a".into()), Value::Null]),
            (Str, vec![Value::Null, Value::Null]),
            (Bool, vec![Value::Bool(true)]),
            (Int, vec![]),
        ];
        for (from, values) in &sources {
            let col = Column::from_values(*from, values).unwrap();
            for to in [Bool, Int, Float, Str] {
                let what = format!("{from} {values:?} as {to}");
                match (
                    conform_column(&col, &Field::new("x", to)),
                    Column::from_values(to, values),
                ) {
                    (Ok(got), Ok(want)) => {
                        assert_eq!(got.data_type(), to, "{what}");
                        assert_eq!(got.is_dict(), to == Str, "{what}");
                        let cells = |c: &Column| c.iter().collect::<Vec<_>>();
                        assert_eq!(cells(&got), cells(&want), "{what}");
                    }
                    (
                        Err(StorageError::TypeMismatch {
                            expected, actual, ..
                        }),
                        Err(StorageError::TypeMismatch {
                            expected: e,
                            actual: a,
                            ..
                        }),
                    ) => assert_eq!((expected, actual), (e, a), "{what}"),
                    (got, want) => panic!("{what}: {got:?}, pushing gives {want:?}"),
                }
            }
        }
        let nulls = Column::from_values(Int, &[Value::Null]).unwrap();
        assert!(conform_column(&nulls, &Field::required("x", Int)).is_err());
    }
}
