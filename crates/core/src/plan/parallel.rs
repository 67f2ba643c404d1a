//! The morsel-driven parallel execution driver.
//!
//! A [`PhysicalPlan`] executes in three phases:
//!
//! 1. **Split** — the input is cut into fixed-size morsels of
//!    [`MORSEL_ROWS`] rows (`MorselSource`). A scanned table's morsels
//!    are zero-copy windows ([`Table::slice`]): every column keeps
//!    sharing its Arc'd payload. A join's morsel gathers the join's
//!    output columns for its range of the canonical pair sequence
//!    ([`JoinedRows::gather`]) — the rows a slice of the fully joined
//!    table would hold, without that table ever existing.
//! 2. **Morsel phase** — each morsel independently runs the plan's
//!    filter stages and its shape stage: projection produces an output
//!    fragment, aggregation produces a mergeable partial state
//!    (`aggregate::compute_partial`). A projection followed by a TopK
//!    over bare sort keys (`PhysicalPlan::morsel_topk`) keeps only the
//!    morsel's best `n` rows. When the input spans more than one morsel
//!    and the plan allows more than one thread, a scoped worker pool
//!    executes this phase; idle workers pull the next unclaimed morsel
//!    off a shared counter (classic morsel-driven scheduling — load
//!    balances skewed filters for free).
//! 3. **Merge** — per-morsel results stitch back together *in morsel
//!    order*: output fragments concatenate ([`Table::vstack`]), partial
//!    aggregate states fold into global per-group states
//!    (`aggregate::merge_finalize`). The aggregate merge itself is
//!    parallel: the global group space is hash-partitioned into the
//!    `partitions` knob's radix partitions and each partition
//!    merges independently on the same worker pool, still folding in
//!    morsel order within every group. Sort then runs once over the
//!    merged result — integer sorts of (key prefix, row id) pairs on
//!    the calling thread, key by key — and Limit truncates; a per-morsel
//!    TopK selects once more, from the surviving candidates.
//!
//! # Determinism
//!
//! Results are **bit-identical at every thread count** by construction:
//! morsel boundaries depend only on the input row count, merging always
//! walks morsels in index order, and error reporting picks the failing
//! (stage, morsel) pair with the lowest rank. Threads only decide *who* computes a
//! morsel, never *what* is computed. The aggregate-merge partition count
//! is equally inert: within any group the fold order is morsel order for
//! every P, and partition outputs scatter back into global
//! first-appearance order before assembly. A single-morsel input (≤
//! [`MORSEL_ROWS`] rows — including every table the row-at-a-time oracle
//! suite generates) additionally reproduces the pre-morsel whole-table
//! vectorized path bit-for-bit.

use std::sync::atomic::{AtomicUsize, Ordering};

use mosaic_storage::{kernels, ColumnBuilder, DataType, Field, Schema, Table, Value};
use parking_lot::Mutex;

use super::join::JoinedRows;
use super::{aggregate, project_ranked, topk_candidates, ExecContext, PhysicalPlan, Shape};
use crate::{MosaicError, Result};

/// Rows per morsel. Fixed (never derived from the thread count) so that
/// morsel boundaries — and therefore merged float accumulations — are a
/// function of the data alone. 16Ki rows keeps a handful of columns
/// comfortably inside L2 while giving a 100K-row scan enough morsels to
/// feed eight workers.
pub const MORSEL_ROWS: usize = 16 * 1024;

/// The default worker-thread cap: the `threads` knob of
/// [`Knobs::from_env`](crate::Knobs::from_env) (`MOSAIC_PARALLELISM`, or
/// the machine's available parallelism).
pub fn default_parallelism() -> usize {
    crate::Knobs::from_env().threads
}

/// Live engine worker threads (scoped threads spawned by
/// [`run_ordered`]), process-wide.
static ACTIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);
/// High-water mark of [`ACTIVE_WORKERS`] since the last reset.
static PEAK_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// RAII gauge: counts a worker thread as active for its lifetime and
/// maintains the process-wide peak.
struct WorkerGauge;

impl WorkerGauge {
    fn enter() -> WorkerGauge {
        let now = ACTIVE_WORKERS.fetch_add(1, Ordering::SeqCst) + 1;
        PEAK_WORKERS.fetch_max(now, Ordering::SeqCst);
        WorkerGauge
    }
}

impl Drop for WorkerGauge {
    fn drop(&mut self) {
        ACTIVE_WORKERS.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Engine worker threads currently alive, process-wide. The calling
/// thread is never counted — only the scoped workers the morsel driver
/// and the OPEN replicate loop spawn (a single-threaded execution
/// spawns none and reads 0).
pub fn active_worker_threads() -> usize {
    ACTIVE_WORKERS.load(Ordering::SeqCst)
}

/// The highest number of engine worker threads simultaneously alive
/// since the last [`reset_worker_thread_peak`] — the observable that
/// lets a server (or a test) *prove* a shared thread budget held across
/// concurrent sessions.
pub fn worker_thread_peak() -> usize {
    PEAK_WORKERS.load(Ordering::SeqCst)
}

/// Reset the [`worker_thread_peak`] high-water mark to the current
/// active count.
pub fn reset_worker_thread_peak() {
    PEAK_WORKERS.store(ACTIVE_WORKERS.load(Ordering::SeqCst), Ordering::SeqCst);
}

/// Run `n_tasks` independent tasks on at most `workers` scoped threads
/// and return their results **in task order**. Idle workers claim the
/// next unstarted task off a shared counter (morsel-driven scheduling);
/// with `workers <= 1` the tasks simply run inline on the calling
/// thread. Shared by the morsel phase and the engine's OPEN replicate
/// loop — one ordered-pool implementation, not two.
pub(crate) fn run_ordered<T: Send>(
    n_tasks: usize,
    workers: usize,
    run: impl Fn(usize) -> T + Sync,
) -> Vec<T> {
    let workers = workers.min(n_tasks);
    if workers <= 1 {
        return (0..n_tasks).map(run).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = (0..n_tasks).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| {
                let _gauge = WorkerGauge::enter();
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n_tasks {
                        break;
                    }
                    *slots[i].lock() = Some(run(i));
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.into_inner().expect("every task was claimed"))
        .collect()
}

/// What one morsel contributes to the merge phase.
enum MorselOut {
    /// Projection shape: the projected fragment (with a per-morsel TopK,
    /// only its candidate rows), the matching post-filter input rows when
    /// an ordering stage may need to resolve dropped columns, and per
    /// output column the type it had wherever the full fragment held a
    /// non-NULL value.
    Shaped {
        out: Table,
        filtered: Option<Table>,
        typed: Vec<Option<DataType>>,
    },
    /// Aggregation shape: a mergeable partial state.
    Partial(aggregate::MorselPartial),
}

/// What a plan's morsels are cut from.
pub(crate) enum MorselSource<'a> {
    /// A scanned table with optional row weights: morsel `m` is the
    /// zero-copy slice of rows `[m·MORSEL_ROWS, (m+1)·MORSEL_ROWS)`.
    Table {
        /// The scanned table.
        table: &'a Table,
        /// Optional per-row weights.
        weights: Option<&'a [f64]>,
    },
    /// A join's canonical pair sequence: morsel `m` gathers the join's
    /// output columns for joined rows `[m·MORSEL_ROWS, (m+1)·MORSEL_ROWS)`
    /// — the rows a slice of the fully joined table would hold.
    Joined(&'a JoinedRows),
}

/// The error of a weight vector that is not parallel to its rows — the
/// one weight-length check every input shape goes through.
pub(crate) fn weight_length(len: usize, rows: usize) -> Result<()> {
    if len == rows {
        return Ok(());
    }
    Err(MosaicError::Execution(format!(
        "weight vector length {len} != table rows {rows}"
    )))
}

/// Unwrap per-task results in task order, or surface the error of the
/// lowest (stage rank, task index) pair — the error a whole-table pass,
/// and a sequential walk over the tasks, reports.
pub(crate) fn first_error<T>(results: Vec<aggregate::Ranked<T>>) -> Result<Vec<T>> {
    let mut outs = Vec::with_capacity(results.len());
    let mut first: Option<(u32, MosaicError)> = None;
    for r in results {
        match r {
            Ok(o) => outs.push(o),
            // Earlier tasks are seen first, so a strict `<` keeps the
            // lowest task within a rank.
            Err((rank, e)) => {
                if first.as_ref().is_none_or(|(best, _)| rank < *best) {
                    first = Some((rank, e));
                }
            }
        }
    }
    match first {
        Some((_, e)) => Err(e),
        None => Ok(outs),
    }
}

/// Execute `plan`'s pipeline (everything after a join stage, if any)
/// over `source` on at most `ctx.threads` workers, binding `ctx.params`
/// into any positional-parameter placeholders. `ctx.partitions` caps
/// the radix-partition count of the aggregate merge phase (1 = serial
/// merge); like the thread cap it never changes results. A weighted
/// join aggregate reads each morsel's row weights off its gathered
/// `weight` column (NULL — a NULL-extended LEFT OUTER row — weighs 0).
pub(crate) fn execute_plan(
    plan: &PhysicalPlan,
    source: MorselSource<'_>,
    ctx: &ExecContext<'_>,
) -> Result<Table> {
    let (params, threads) = (ctx.params, ctx.threads);
    // Pruned scan: keep only the columns the optimizer proved the plan
    // references. Columns are Arc-shared, so this is a cheap header-only
    // projection — the payoff is downstream, where Filter's row gather
    // and the sort-fallback merge stop materializing unread columns.
    // Weights are row-parallel and unaffected. (A join prunes its own
    // inputs and gathers only its output columns.)
    let pruned;
    let source = match source {
        MorselSource::Table { table, weights } => {
            if let Some(w) = weights {
                weight_length(w.len(), table.num_rows())?;
            }
            let table = match plan.scan_columns() {
                Some(cols) => {
                    pruned = prune_scan(table, cols)?;
                    &pruned
                }
                None => table,
            };
            MorselSource::Table { table, weights }
        }
        joined => joined,
    };
    let (n, join_weight, weighted) = match &source {
        MorselSource::Table { table, weights } => (table.num_rows(), None, weights.is_some()),
        MorselSource::Joined(joined) => {
            let weight = plan.agg_weighted().then(|| {
                joined.schema().index_of("weight").map_err(|_| {
                    MosaicError::Execution(
                        "weighted join aggregate requires the joined weight column".into(),
                    )
                })
            });
            let weight = weight.transpose()?;
            (joined.num_rows(), weight, weight.is_some())
        }
    };
    let n_morsels = n.div_ceil(MORSEL_ROWS).max(1);
    let topk = plan.morsel_topk();
    // The post-filter input only matters when lowering found an ordering
    // key the projection does not output; a plain scan with no filter
    // stages and no per-morsel TopK serves it as the whole table, with
    // zero merging.
    let carry_filtered = plan.order_reads_input
        && (!plan.filters.is_empty()
            || topk.is_some()
            || matches!(source, MorselSource::Joined(_)));

    // Every stage has a rank (the source gather = 0, filter `i` = `1 +
    // i`; group keys / item `j` of the shape = `pre_len + 0 / 1 + j`;
    // then a per-morsel TopK's sort keys) and stages run in rank order
    // within a morsel, so a (rank, morsel) error key reproduces the
    // whole-table executor's error exactly: stages error in plan order,
    // and within a stage the lowest failing morsel holds the first
    // failing row.
    let pre_len = 1 + plan.filters.len() as u32;
    let run = |mi: usize| -> aggregate::Ranked<MorselOut> {
        let start = mi * MORSEL_ROWS;
        let len = MORSEL_ROWS.min(n - start);
        let (mut table, mut weights): (Table, Option<Vec<f64>>) = match &source {
            MorselSource::Table { table, weights } => (
                table.slice(start, len),
                weights.map(|w| w[start..start + len].to_vec()),
            ),
            MorselSource::Joined(joined) => {
                let table = joined.gather(start..start + len).map_err(|e| (0, e))?;
                let weights = join_weight.map(|c| {
                    let w = table.column(c);
                    (0..len).map(|i| w.f64_at(i).unwrap_or(0.0)).collect()
                });
                (table, weights)
            }
        };
        for (fi, filter) in plan.filters.iter().enumerate() {
            let idx = filter
                .selection(params, &table)
                .map_err(|e| (1 + fi as u32, e))?;
            weights = weights.map(|w| kernels::take_f64(&w, &idx));
            table = table.take(&idx);
        }
        match &plan.shape {
            Shape::Aggregate {
                items,
                group_by,
                weighted: agg_weighted,
            } => {
                debug_assert_eq!(*agg_weighted, weights.is_some());
                aggregate::compute_partial(items, group_by, &table, weights.as_deref(), params)
                    .map(MorselOut::Partial)
                    .map_err(|(r, e)| (pre_len + r, e))
            }
            Shape::Project { items } => {
                let rank = |r: u32| pre_len.saturating_add(r);
                let out = project_ranked(items, &table, params).map_err(|(r, e)| (rank(r), e))?;
                let typed = typed_columns(&out);
                let Some((keys, limit)) = topk else {
                    let filtered = carry_filtered.then_some(table);
                    return Ok(MorselOut::Shaped {
                        out,
                        filtered,
                        typed,
                    });
                };
                let keys_rank = 1 + items.len() as u32;
                let input = carry_filtered.then_some(&table);
                let keep = topk_candidates(keys, limit, params, &out, input)
                    .map_err(|(r, e)| (rank(keys_rank + r), e))?;
                Ok(MorselOut::Shaped {
                    out: out.take(&keep),
                    filtered: input.map(|t| t.take(&keep)),
                    typed,
                })
            }
        }
    };

    let outs = first_error(run_ordered(n_morsels, threads, run))?;

    // Merge phase.
    let (table, filtered_merged) = match &plan.shape {
        Shape::Aggregate { items, .. } => {
            let partials: Vec<aggregate::MorselPartial> = outs
                .into_iter()
                .map(|o| match o {
                    MorselOut::Partial(p) => p,
                    MorselOut::Shaped { .. } => unreachable!("aggregate plans emit partials"),
                })
                .collect();
            let table = aggregate::merge_finalize(
                items,
                weighted,
                &partials,
                params,
                threads,
                ctx.partitions,
            )?;
            (table, None)
        }
        Shape::Project { .. } => {
            let mut fragments = Vec::with_capacity(outs.len());
            let mut filtered = Vec::with_capacity(outs.len());
            let mut typed = Vec::with_capacity(outs.len());
            for o in outs {
                match o {
                    MorselOut::Shaped {
                        out,
                        filtered: f,
                        typed: t,
                    } => {
                        fragments.push(out);
                        filtered.extend(f);
                        typed.push(t);
                    }
                    MorselOut::Partial(_) => unreachable!("projection plans emit fragments"),
                }
            }
            let merged = vstack_fragments(&fragments, &typed)?;
            let filtered_merged = match &source {
                _ if !plan.order_reads_input => None,
                _ if carry_filtered => {
                    let refs: Vec<&Table> = filtered.iter().collect();
                    Some(Table::vstack(&refs)?)
                }
                MorselSource::Table { table, .. } => Some((*table).clone()),
                MorselSource::Joined(_) => unreachable!("joined morsels carry their rows"),
            };
            (merged, filtered_merged)
        }
    };

    // The ordering stages run once over the merged result; a per-morsel
    // TopK selects again, over the surviving candidates.
    plan.apply_order(table, filtered_merged.as_ref(), ctx)
}

/// Resolve a pruned scan's column list against the actual table (by
/// name: the relation may have been re-bound since planning). Names the
/// table lacks are dropped — expressions referencing them report the
/// same unknown-column error they would without pruning. When nothing
/// survives (a column-free statement such as `SELECT COUNT(*)`), the
/// first column is kept so the scan's row count is preserved.
pub(crate) fn prune_scan(table: &Table, cols: &[String]) -> Result<Table> {
    let kept: Vec<&str> = cols
        .iter()
        .map(String::as_str)
        .filter(|n| table.schema().contains(n))
        .collect();
    if kept.len() == table.num_columns() {
        return Ok(table.clone());
    }
    if kept.is_empty() {
        if table.num_columns() == 0 {
            return Ok(table.clone());
        }
        let first = table.schema().field(0).name.clone();
        return table.project(&[first.as_str()]).map_err(Into::into);
    }
    table.project(&kept).map_err(Into::into)
}

/// Concatenate per-morsel projection outputs, reconciling the evaluator's
/// degenerate-type rule: a morsel whose output column came out all-NULL
/// (or whose every row was filtered away) types that column `Int`, while
/// sibling morsels carry the real type. All-NULL columns are recast to
/// the real type — nulls stay nulls, so no value changes — which is
/// exactly the type the whole-table pass would have inferred. `typed`
/// holds, per fragment, each column's type where the morsel's full
/// projection held a non-NULL value: a per-morsel TopK keeps only its
/// candidate rows, which may all be NULL in a column that was not.
fn vstack_fragments(fragments: &[Table], typed: &[Vec<Option<DataType>>]) -> Result<Table> {
    let non_empty: Vec<&Table> = fragments.iter().filter(|t| !t.is_empty()).collect();
    // Everything filtered away (or an empty input): any fragment carries
    // the canonical empty-result schema.
    let first = match non_empty.first() {
        Some(first) => *first,
        None => fragments.first().expect("at least one morsel"),
    };
    // Per column, the type of some morsel that has at least one non-NULL
    // value (all morsels with one agree — output types are a function of
    // the statement and the input schema).
    let mut target: Vec<DataType> = (0..first.num_columns())
        .map(|c| first.column(c).data_type())
        .collect();
    for t in typed {
        for (c, ty) in t.iter().enumerate() {
            if let Some(ty) = ty {
                target[c] = *ty;
            }
        }
    }
    if non_empty.is_empty() {
        return recast_all_null_columns(first, &target);
    }
    let parts: Vec<Table> = non_empty
        .iter()
        .map(|t| recast_all_null_columns(t, &target))
        .collect::<Result<_>>()?;
    let refs: Vec<&Table> = parts.iter().collect();
    Table::vstack(&refs).map_err(Into::into)
}

/// Per column, its type when it holds at least one non-NULL value.
fn typed_columns(t: &Table) -> Vec<Option<DataType>> {
    t.columns()
        .iter()
        .map(|c| (c.null_count() < c.len()).then(|| c.data_type()))
        .collect()
}

/// Rebuild any all-NULL column whose type disagrees with the target as
/// an all-NULL column *of* the target type.
fn recast_all_null_columns(t: &Table, target: &[DataType]) -> Result<Table> {
    if (0..t.num_columns()).all(|c| t.column(c).data_type() == target[c]) {
        return Ok(t.clone());
    }
    let fields: Vec<Field> = t
        .schema()
        .fields()
        .iter()
        .zip(target)
        .map(|(f, &ty)| Field::new(f.name.clone(), ty))
        .collect();
    let columns = (0..t.num_columns())
        .map(|c| {
            let col = t.column(c);
            if col.data_type() == target[c] {
                return Ok(col.clone());
            }
            debug_assert_eq!(col.null_count(), col.len(), "only all-NULL columns recast");
            let mut b = ColumnBuilder::with_capacity(target[c], col.len());
            for _ in 0..col.len() {
                b.push(Value::Null)?;
            }
            Ok(b.finish())
        })
        .collect::<Result<Vec<_>>>()?;
    Table::new(Schema::new(fields), columns).map_err(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{plan_select, PlanInput};
    use mosaic_sql::{parse, SelectStmt, Statement};
    use mosaic_storage::TableBuilder;

    fn select(src: &str) -> SelectStmt {
        match parse(src).unwrap().pop().unwrap() {
            Statement::Select(s) => s,
            other => panic!("not a select: {other:?}"),
        }
    }

    /// Run the unoptimized plan of `stmt` at the given thread count.
    fn run(
        stmt: &SelectStmt,
        table: &Table,
        weights: Option<&[f64]>,
        threads: usize,
    ) -> Result<Table> {
        plan_select(stmt, weights.is_some(), false, None)
            .physical
            .run(
                PlanInput::Table { table, weights },
                &ExecContext::new(&[], threads, 16),
            )
    }

    /// A table spanning several morsels, with NULLs and a skewed filter.
    fn big_table(rows: usize) -> (Table, Vec<f64>) {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("i", DataType::Int),
            Field::new("f", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        for r in 0..rows {
            b.push_row(vec![
                Value::Str(format!("g{}", r % 7)),
                if r % 11 == 0 {
                    Value::Null
                } else {
                    Value::Int((r % 1000) as i64 - 300)
                },
                if r % 13 == 0 {
                    Value::Null
                } else {
                    Value::Float((r as f64) * 0.25 - 100.0)
                },
            ])
            .unwrap();
        }
        let weights = (0..rows).map(|r| 0.5 + (r % 10) as f64 * 0.3).collect();
        (b.finish(), weights)
    }

    fn identical(a: &Table, b: &Table) {
        assert_eq!(a.num_rows(), b.num_rows());
        assert_eq!(a.num_columns(), b.num_columns());
        for c in 0..a.num_columns() {
            assert_eq!(a.schema().field(c).name, b.schema().field(c).name);
            assert_eq!(a.schema().field(c).data_type, b.schema().field(c).data_type);
        }
        for r in 0..a.num_rows() {
            for c in 0..a.num_columns() {
                assert_eq!(a.value(r, c), b.value(r, c), "cell ({r},{c})");
            }
        }
    }

    /// The bit-identity invariant: thread count never changes results,
    /// on inputs that span many morsels, weighted and unweighted.
    #[test]
    fn thread_count_never_changes_results() {
        let (table, weights) = big_table(3 * MORSEL_ROWS + 123);
        for src in [
            "SELECT k, COUNT(*), SUM(i), AVG(f), MIN(i), MAX(f) FROM t \
             WHERE i > -100 GROUP BY k ORDER BY k",
            "SELECT COUNT(*), SUM(f) / COUNT(f) FROM t WHERE f IS NOT NULL",
            "SELECT k, i FROM t WHERE i % 5 = 0 ORDER BY f DESC LIMIT 50",
            "SELECT i + 1, f * 2.0 FROM t WHERE k = 'g3'",
        ] {
            let stmt = select(src);
            for weights in [None, Some(weights.as_slice())] {
                let baseline = run(&stmt, &table, weights, 1).unwrap();
                for threads in [2, 3, 8] {
                    let out = run(&stmt, &table, weights, threads).unwrap();
                    identical(&baseline, &out);
                }
            }
        }
    }

    /// A morsel whose output is entirely NULL types its column Int; the
    /// merge must recast it to the real column type.
    #[test]
    fn all_null_morsel_outputs_recast() {
        let rows = 2 * MORSEL_ROWS;
        let schema = Schema::new(vec![Field::new("f", DataType::Float)]);
        let mut b = TableBuilder::new(schema);
        for r in 0..rows {
            // Second morsel entirely NULL.
            b.push_row(vec![if r >= MORSEL_ROWS {
                Value::Null
            } else {
                Value::Float(r as f64)
            }])
            .unwrap();
        }
        let t = b.finish();
        let stmt = select("SELECT f + 1 FROM t");
        let out = run(&stmt, &t, None, 2).unwrap();
        assert_eq!(out.num_rows(), rows);
        assert_eq!(out.schema().field(0).data_type, DataType::Float);
        assert_eq!(out.value(0, 0), Value::Float(1.0));
        assert_eq!(out.value(MORSEL_ROWS, 0), Value::Null);
    }

    /// Fully-filtered inputs keep the serial empty-result schema.
    #[test]
    fn empty_result_schema_is_stable() {
        let (table, _) = big_table(2 * MORSEL_ROWS);
        let stmt = select("SELECT k, f FROM t WHERE i > 99999");
        for threads in [1, 4] {
            let out = run(&stmt, &table, None, threads).unwrap();
            assert_eq!(out.num_rows(), 0);
            assert_eq!(out.num_columns(), 2);
        }
    }

    /// Different SELECT items failing in different morsels must surface
    /// the error of the *earliest item* (stage rank), matching the
    /// whole-table executor — not the error of the earliest morsel.
    #[test]
    fn error_selection_is_stage_ordered() {
        let rows = 2 * MORSEL_ROWS;
        let schema = Schema::new(vec![
            Field::new("f1", DataType::Float),
            Field::new("f2", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        for r in 0..rows {
            // f1 meets a NaN only in morsel 1, f2 only in morsel 0: the
            // comparison of item 2 fails in the earlier morsel.
            let (f1, f2) = if r < MORSEL_ROWS {
                (1.0, f64::NAN)
            } else {
                (f64::NAN, 1.0)
            };
            b.push_row(vec![f1.into(), f2.into()]).unwrap();
        }
        let t = b.finish();
        let stmt = select("SELECT f1 > 1, f2 > 2 FROM t");
        for threads in [1, 2, 8] {
            let err = run(&stmt, &t, None, threads).unwrap_err();
            assert_eq!(
                err.to_string(),
                "execution error: cannot compare NaN with 1",
                "{threads} threads"
            );
        }
    }

    #[test]
    fn env_override_parses() {
        // Only asserts the parser contract, not the ambient environment.
        assert!(default_parallelism() >= 1);
    }
}
