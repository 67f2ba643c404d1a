//! The plan layer: a [`SelectStmt`] lowers into a [`LogicalPlan`] IR
//! (see [`logical`]), the rule-based optimizer in [`optimize`] rewrites
//! it (projection pruning, constant folding, Sort+Limit → TopK fusion),
//! and the result lowers into a typed physical pipeline. [`plan_select`]
//! runs the whole chain and keeps the before/after logical plans plus
//! the fired rule names for `EXPLAIN`.
//!
//! A [`PhysicalPlan`] is `Scan | HashJoin`, then its `filters`
//! ([`FilterOp`]), one `shape` (projection or hash aggregation), then
//! its `order` stages (`Sort`, `Limit`, or the fused `TopK` when the
//! optimizer fuses `Sort → Limit`) — plain enums and structs, not trait
//! objects, so the morsel driver matches on what each stage is. Row
//! weights travel with the rows through the filters into the aggregate,
//! where they realize the paper's §5.3 weighted-aggregate rewrite; no
//! stage after the shape sees a weight. Expressions evaluate through the
//! vectorized evaluator in [`vector`] over the typed kernels of
//! `mosaic_storage::kernels`.
//!
//! Execution is **morsel-driven and parallel** (see [`parallel`]): the
//! scan splits into fixed-size morsels of Arc-shared column slices, the
//! filters, the projection and the partial-aggregate phase of the hash
//! aggregation run per morsel on a scoped worker pool, and the aggregate
//! merge itself is radix-partitioned across the same pool before the
//! ordering stages, which run once over the merged result
//! (`PhysicalPlan::apply_order`; the OPEN combiner orders the combined
//! replicate answers through the same method).
//!
//! A plan has **one entry point**, [`PhysicalPlan::run`]: the
//! [`PlanInput`] says what it reads (one table with optional row
//! weights, or a left/right pair), the [`ExecContext`] carries the
//! parameter values, the thread budget and the merge partition count.
//! Plans hold no knobs — threads and partitions never affect results,
//! so they belong to an execution, not to the plan a cache may share.

pub(crate) mod aggregate;
pub mod fingerprint;
pub(crate) mod hash;
pub mod join;
pub mod logical;
pub mod optimize;
pub mod parallel;
pub mod vector;

use std::borrow::Cow;
use std::fmt;

use mosaic_sql::{Expr, SelectItem, SelectStmt};
use mosaic_storage::{Column, ColumnBuilder, DataType, Field, Schema, Table, Value};

use crate::{MosaicError, Result};
use logical::LogicalPlan;
use parallel::MorselSource;

/// Bind an expression's positional parameters against the execution's
/// parameter vector. Parameter-free expressions (the overwhelmingly
/// common case) are borrowed, not cloned.
pub(crate) fn bind_expr<'a>(expr: &'a Expr, params: &[Value]) -> Result<Cow<'a, Expr>> {
    if !expr.has_params() {
        return Ok(Cow::Borrowed(expr));
    }
    expr.bind_params(params)
        .map(Cow::Owned)
        .map_err(|i| missing_param(i, params.len()))
}

/// The error for a `?` placeholder with no bound value.
pub(crate) fn missing_param(index: usize, supplied: usize) -> MosaicError {
    MosaicError::Param(format!(
        "statement references parameter ?{} but only {supplied} value(s) were supplied",
        index + 1
    ))
}

/// Execution-scoped context: everything one execution of a plan is
/// given besides its input. Handed to [`PhysicalPlan::run`] and on to
/// every stage.
#[derive(Clone, Copy)]
pub struct ExecContext<'a> {
    /// Positional-parameter values for this execution (empty for
    /// unprepared statements). Stages bind [`Expr::Param`] nodes against
    /// this vector before evaluating.
    pub params: &'a [Value],
    /// Worker-thread budget (minimum 1) of the morsel phase and of the
    /// aggregate merge. Morsel-phase stages take no budget — they already
    /// run *on* the pool — and the ordering stages run on the calling
    /// thread. Never changes results, only who computes them.
    pub threads: usize,
    /// Radix-partition count (minimum 1 = serial) of the aggregate
    /// merge and of a multi-morsel join build. Never changes results.
    pub partitions: usize,
}

impl<'a> ExecContext<'a> {
    /// The context of one plan execution.
    pub fn new(params: &'a [Value], threads: usize, partitions: usize) -> Self {
        ExecContext {
            params,
            threads: threads.max(1),
            partitions: partitions.max(1),
        }
    }
}

/// What a plan reads: the two shapes [`PhysicalPlan::run`] accepts. A
/// join plan given one table — or a single-relation plan given a pair —
/// is an [`MosaicError::Execution`] error, never a silently wrong answer.
#[derive(Clone, Copy)]
pub enum PlanInput<'a> {
    /// One source table. `weights` (parallel to its rows) realize the
    /// §5.3 weighted-aggregate rewrite: CLOSED passes none, SEMI-OPEN the
    /// correction weights, OPEN a generated replicate's uniform weight.
    Table {
        /// The scanned table.
        table: &'a Table,
        /// Optional per-row weights.
        weights: Option<&'a [f64]>,
    },
    /// The two sides of a join plan, base relation first.
    Join {
        /// Left (base) input.
        left: &'a Table,
        /// Right (joined) input.
        right: &'a Table,
        /// Runs once over every joined row (gathered into one table)
        /// before the rest of the pipeline and may return a replacement
        /// for the joined `weight` column — the engine IPF-re-calibrates
        /// the combined weight of a weighted×weighted join here.
        post_join: Option<&'a PostJoin<'a>>,
    },
}

/// The post-join hook of [`PlanInput::Join`]: every joined row in,
/// optionally a replacement `weight` column (one value per joined row)
/// out.
pub type PostJoin<'a> = dyn Fn(Table) -> Result<Option<Column>> + Sync + 'a;

/// `WHERE` — the predicate whose selection the morsel driver (and a join
/// side, below the join) gathers, rows and weights alike.
#[derive(Clone)]
pub struct FilterOp {
    /// The predicate.
    pub predicate: Expr,
}

impl FilterOp {
    /// The rows of `table` the predicate keeps.
    pub(crate) fn selection(&self, params: &[Value], table: &Table) -> Result<Vec<usize>> {
        let predicate = bind_expr(&self.predicate, params)?;
        Ok(vector::eval_predicate(&predicate, table)?.to_indices())
    }

    /// The `EXPLAIN` line.
    pub(crate) fn describe(&self) -> String {
        format!("Filter: {}", self.predicate)
    }
}

/// The shape stage of a plan: exactly one of projection or aggregation.
/// The morsel driver runs a projection per morsel and splits an
/// aggregation into its per-morsel partial and its merge phase.
#[derive(Clone)]
pub(crate) enum Shape {
    /// Projection without aggregates.
    Project {
        /// The SELECT list.
        items: Vec<SelectItem>,
    },
    /// Grouped (or global) aggregation.
    Aggregate {
        /// The SELECT list.
        items: Vec<SelectItem>,
        /// GROUP BY expressions (empty = one global group).
        group_by: Vec<Expr>,
        /// Weighted-rewrite property (paper §5.3): COUNT(*) →
        /// SUM(weight), SUM(x) → SUM(weight·x), AVG → weighted mean.
        weighted: bool,
    },
}

impl Shape {
    fn name(&self) -> &'static str {
        match self {
            Shape::Project { .. } => "Project",
            Shape::Aggregate { .. } => "HashAggregate",
        }
    }

    fn describe(&self) -> String {
        match self {
            Shape::Project { items } => format!("Project: [{}]", join_items(items)),
            Shape::Aggregate {
                items,
                group_by,
                weighted,
            } => {
                let keys: Vec<String> = group_by.iter().map(Expr::to_string).collect();
                format!(
                    "HashAggregate{}: keys=[{}], items=[{}]",
                    if *weighted { "[weighted]" } else { "" },
                    keys.join(", "),
                    join_items(items)
                )
            }
        }
    }
}

/// A SELECT list as `EXPLAIN` text.
pub(crate) fn join_items(items: &[SelectItem]) -> String {
    let items: Vec<String> = items.iter().map(SelectItem::to_string).collect();
    items.join(", ")
}

/// Evaluate a projection over `table`, tagging any error with the
/// failing item's stage rank (`1 + i` for item `i`; rank 0 is reserved
/// for stages that precede the shape). The morsel driver uses the rank
/// to reproduce whole-table error ordering across morsels.
pub(crate) fn project_ranked(
    items: &[SelectItem],
    table: &Table,
    params: &[Value],
) -> aggregate::Ranked<Table> {
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for (ii, item) in items.iter().enumerate() {
        let rank = 1 + ii as u32;
        match item {
            SelectItem::Wildcard => {
                for (i, f) in table.schema().fields().iter().enumerate() {
                    fields.push(f.clone());
                    columns.push(table.column(i).clone());
                }
            }
            SelectItem::Expr { expr, .. } => {
                let expr = bind_expr(expr, params).map_err(|e| (rank, e))?;
                let col = vector::eval_expr(&expr, table).map_err(|e| (rank, e))?;
                fields.push(Field::new(output_name(item), col.data_type()));
                columns.push(col);
            }
        }
    }
    Table::new(Schema::new(fields), columns).map_err(|e| (u32::MAX, e.into()))
}

/// An ordering stage. Ordering stages run once, over the shaped
/// (projected or aggregated) result, after the morsel merge.
#[derive(Clone)]
pub(crate) enum Order {
    /// `ORDER BY` — sort on evaluated key columns ([`sort_indices`]):
    /// `(prefix, row)` pairs sort with integer comparisons, key by key,
    /// into the strict (keys, row index) order, which is the stable
    /// sort's order exactly — bit-identical at every thread count.
    Sort {
        /// `(expr, descending)` sort keys.
        keys: Vec<(Expr, bool)>,
    },
    /// `LIMIT n`.
    Limit {
        /// Maximum number of output rows.
        n: usize,
    },
    /// Fused `ORDER BY … LIMIT n`: the first `n` rows of the stable sort
    /// order, selected with bounded per-block heaps plus an ordered
    /// merge instead of a full sort — O(rows · log n) against Sort's
    /// O(rows · log rows). Ties break on the original row index, which
    /// is exactly what a stable sort followed by `LIMIT n` produces, so
    /// the fused stage is bit-identical to the `Sort → Limit` pair it
    /// replaces (the optimizer's `sort_limit_fusion` rule relies on
    /// this).
    ///
    /// Over a projection whose sort keys are bare columns or constants
    /// ([`PhysicalPlan::morsel_topk`]) the heaps run inside the morsel
    /// phase ([`topk_candidates`]): each morsel keeps its best `n` rows,
    /// in row order, and this stage then selects from those candidates
    /// alone instead of the whole projected table.
    TopK {
        /// `(expr, descending)` sort keys.
        keys: Vec<(Expr, bool)>,
        /// Number of rows to keep.
        n: usize,
    },
}

impl Order {
    fn name(&self) -> &'static str {
        match self {
            Order::Sort { .. } => "Sort",
            Order::Limit { .. } => "Limit",
            Order::TopK { .. } => "TopK",
        }
    }

    fn describe(&self) -> String {
        match self {
            Order::Sort { keys } => format!("Sort: [{}]", logical::describe_keys(keys)),
            Order::Limit { n } => format!("Limit: {n}"),
            Order::TopK { keys, n } => {
                format!("TopK: [{}] limit {n}", logical::describe_keys(keys))
            }
        }
    }

    /// The sort keys of a Sort or TopK stage.
    fn keys(&self) -> &[(Expr, bool)] {
        match self {
            Order::Sort { keys } | Order::TopK { keys, .. } => keys,
            Order::Limit { .. } => &[],
        }
    }

    /// Run this stage over `table`. `input`, when given, holds the
    /// post-filter, pre-projection rows parallel to `table`: sort keys
    /// naming a source column the projection dropped resolve against it
    /// (see [`PhysicalPlan::order_reads_input`]).
    fn apply(&self, table: Table, input: Option<&Table>, ctx: &ExecContext<'_>) -> Result<Table> {
        let (keys, n) = match self {
            Order::Limit { n } => return Ok(table.limit(*n)),
            Order::Sort { keys } => (keys, None),
            Order::TopK { keys, n } => (keys, Some(*n)),
        };
        let key_cols = eval_sort_keys(keys, ctx.params, &table, input).map_err(|(_, e)| e)?;
        let rows = table.num_rows();
        let Some(n) = n else {
            let order = sort_indices(keys, &key_cols, rows);
            drop(key_cols);
            return Ok(table.take(&order));
        };
        let cmp = row_order(keys, &key_cols);
        // Bounded heap per morsel-sized block, then an ordered merge of
        // the ≤ n survivors per block.
        let mut candidates: Vec<usize> = Vec::new();
        let mut start = 0;
        while start < rows {
            let end = (start + parallel::MORSEL_ROWS).min(rows);
            top_n_in_range(start..end, n, &cmp, &mut candidates);
            start = end;
        }
        candidates.sort_unstable_by(|&a, &b| cmp(a, b));
        candidates.truncate(n);
        Ok(table.take(&candidates))
    }
}

/// True when every column `key` references is one of `names` (the
/// shaped output's columns), so the key resolves against the output.
fn resolves_in<'a>(key: &Expr, names: impl Iterator<Item = &'a str> + Clone) -> bool {
    key.referenced_columns()
        .iter()
        .all(|c| names.clone().any(|n| n.eq_ignore_ascii_case(c)))
}

/// Evaluate `ORDER BY` key columns: a key resolves against the shaped
/// output (aliases, aggregate names) when every column it names is an
/// output column, else against the pre-projection `input`, which is
/// parallel to `out` whenever it is given. Shared by Sort and TopK — the
/// fused stage must resolve keys exactly like the sort it replaces, or
/// the optimizer's bit-identity contract breaks. An error carries the
/// failing key's index.
fn eval_sort_keys(
    keys: &[(Expr, bool)],
    params: &[Value],
    out: &Table,
    input: Option<&Table>,
) -> aggregate::Ranked<Vec<Column>> {
    let names = out.schema().fields().iter().map(|f| f.name.as_str());
    let mut key_cols: Vec<Column> = Vec::with_capacity(keys.len());
    for (ki, (expr, _)) in keys.iter().enumerate() {
        let rank = ki as u32;
        let expr = bind_expr(expr, params).map_err(|e| (rank, e))?;
        let source = match input {
            Some(input) if !resolves_in(&expr, names.clone()) => {
                debug_assert_eq!(input.num_rows(), out.num_rows());
                input
            }
            _ => out,
        };
        key_cols.push(vector::eval_expr(&expr, source).map_err(|e| (rank, e))?);
    }
    Ok(key_cols)
}

/// The permutation of a full Sort: the strict [`row_order`] of
/// `key_cols` over `rows` rows, sorted on 16 bytes per row — the first
/// key's order prefix ([`Column::order_prefix`]) packed above the row id
/// in one `u128` (see [`sort_pairs`]). `row_order` is strict, so the
/// permutation is unique: any thread count, and any correct sort, gives
/// the same bits.
fn sort_indices(keys: &[(Expr, bool)], key_cols: &[Column], rows: usize) -> Vec<usize> {
    assert!(
        rows <= u32::MAX as usize,
        "sort input has too many rows for u32 row ids"
    );
    let mut pairs: Vec<u128> = (0..rows)
        .map(|row| sort_pair(keys, key_cols, 0, row))
        .collect();
    let has_nulls: Vec<bool> = key_cols.iter().map(|c| c.null_count() > 0).collect();
    let cmp = row_order(keys, key_cols);
    sort_pairs(&mut pairs, 0, keys, key_cols, &has_nulls, &cmp);
    pairs.into_iter().map(pair_row).collect()
}

/// Key `k`'s order prefix of `row` (complemented for DESC) above the
/// row id.
fn sort_pair(keys: &[(Expr, bool)], key_cols: &[Column], k: usize, row: usize) -> u128 {
    let prefix = key_cols[k].order_prefix(row);
    let prefix = if keys[k].1 { !prefix } else { prefix };
    u128::from(prefix) << 64 | row as u128
}

/// The row id of a sort pair.
fn pair_row(pair: u128) -> usize {
    pair as u32 as usize
}

/// Put `pairs` — key `k`'s sort pairs of rows that tie on every earlier
/// key — into `cmp` order. One integer sort orders the prefixes; equal
/// prefixes fall to the row id, which is `row_order`'s own tie-break. A
/// run of equal prefixes over equal key values (an exact prefix, rows
/// all NULL or all not) re-keys on key `k + 1` and recurses; a run the
/// prefix cannot decide (plain strings, NULL beside `i64::MIN` or the
/// all-ones NaN) sorts under the full comparator.
fn sort_pairs(
    pairs: &mut [u128],
    k: usize,
    keys: &[(Expr, bool)],
    key_cols: &[Column],
    has_nulls: &[bool],
    cmp: &impl Fn(usize, usize) -> std::cmp::Ordering,
) {
    pairs.sort_unstable();
    let col = &key_cols[k];
    let (exact, has_nulls_k) = (col.order_prefix_is_exact(), has_nulls[k]);
    if exact && !has_nulls_k && k + 1 == keys.len() {
        return;
    }
    for run in pairs.chunk_by_mut(|a, b| a >> 64 == b >> 64) {
        if run.len() < 2 {
            continue;
        }
        let mixed = has_nulls_k && {
            let nulls = run.iter().filter(|&&p| col.is_null(pair_row(p))).count();
            nulls != 0 && nulls != run.len()
        };
        if !exact || mixed {
            run.sort_unstable_by(|&a, &b| cmp(pair_row(a), pair_row(b)));
        } else if k + 1 < keys.len() {
            for pair in run.iter_mut() {
                *pair = sort_pair(keys, key_cols, k + 1, pair_row(*pair));
            }
            sort_pairs(run, k + 1, keys, key_cols, has_nulls, cmp);
        }
    }
}

/// The strict total order of Sort and TopK: the ORDER BY key chain, ties
/// broken on the original row index — exactly the permutation a
/// *stable* sort by the keys alone produces.
fn row_order<'a>(
    keys: &'a [(Expr, bool)],
    key_cols: &'a [Column],
) -> impl Fn(usize, usize) -> std::cmp::Ordering + Sync + 'a {
    move |a, b| {
        for ((_, desc), col) in keys.iter().zip(key_cols) {
            let ord = col.total_cmp_rows(a, b);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord.is_ne() {
                return ord;
            }
        }
        a.cmp(&b)
    }
}

/// One morsel's TopK candidates: the rows of its projected fragment
/// `out` that can still be among the first `n` — its own first `n` under
/// the same strict (keys, row index) order — in ascending row order, so
/// the candidates of all morsels, concatenated, keep the input order the
/// final selection breaks ties on. Sort keys resolve as in the TopK
/// stage itself (`input` = the morsel's pre-projection rows, when the
/// plan's ordering reads them); an error carries the failing key's
/// index.
pub(crate) fn topk_candidates(
    keys: &[(Expr, bool)],
    n: usize,
    params: &[Value],
    out: &Table,
    input: Option<&Table>,
) -> aggregate::Ranked<Vec<usize>> {
    let key_cols = eval_sort_keys(keys, params, out, input)?;
    let cmp = row_order(keys, &key_cols);
    let mut keep = Vec::with_capacity(n.min(out.num_rows()));
    top_n_in_range(0..out.num_rows(), n, &cmp, &mut keep);
    keep.sort_unstable();
    Ok(keep)
}

/// Append the `n` smallest row indices (under `cmp`) of `range` to
/// `out`, using a bounded binary max-heap (the root is the worst row
/// currently kept, so a better row replaces it in O(log n)).
fn top_n_in_range(
    range: std::ops::Range<usize>,
    n: usize,
    cmp: &impl Fn(usize, usize) -> std::cmp::Ordering,
    out: &mut Vec<usize>,
) {
    if n == 0 {
        return;
    }
    let base = out.len();
    for row in range {
        if out.len() - base < n {
            out.push(row);
            // Sift up.
            let heap = &mut out[base..];
            let mut i = heap.len() - 1;
            while i > 0 {
                let parent = (i - 1) / 2;
                if cmp(heap[i], heap[parent]) == std::cmp::Ordering::Greater {
                    heap.swap(i, parent);
                    i = parent;
                } else {
                    break;
                }
            }
            continue;
        }
        let heap = &mut out[base..];
        if cmp(row, heap[0]) != std::cmp::Ordering::Less {
            continue;
        }
        heap[0] = row;
        // Sift down.
        let mut i = 0;
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < heap.len() && cmp(heap[l], heap[largest]) == std::cmp::Ordering::Greater {
                largest = l;
            }
            if r < heap.len() && cmp(heap[r], heap[largest]) == std::cmp::Ordering::Greater {
                largest = r;
            }
            if largest == i {
                break;
            }
            heap.swap(i, largest);
            i = largest;
        }
    }
}

/// A lowered SELECT: filter stages, one shape stage (projection or
/// aggregation), then ordering stages.
///
/// Execution is morsel-driven (see [`parallel`]): the scan splits into
/// fixed-size morsels of Arc-shared column slices, the filter and shape
/// stages run per morsel — on the context's worker threads when the
/// input spans several morsels — and per-morsel outputs merge in morsel
/// order before the ordering stages. Morsel boundaries depend only on
/// the row count, so results are **bit-identical at every thread
/// count**, and a single-morsel input reproduces the serial whole-table
/// path exactly.
#[derive(Clone)]
pub struct PhysicalPlan {
    /// Columns the scan keeps (`None` = all): the physical realization
    /// of the optimizer's projection-pruning rule. Resolved by *name*
    /// against the actual table at execution time — relations can be
    /// re-bound between prepare and execute, so plan-time column ids
    /// are advisory (they live on the logical plan for display).
    scan_columns: Option<Vec<String>>,
    /// The hash-join stage for two-relation plans (`None` for
    /// single-relation plans): the join yields its pair sequence, and
    /// the remaining pipeline runs over it morsel-parallel like any
    /// scan, each morsel gathering its joined rows.
    pub(crate) join: Option<join::HashJoinOp>,
    /// The WHERE stages, run per morsel before the shape.
    pub(crate) filters: Vec<FilterOp>,
    pub(crate) shape: Shape,
    /// The ordering stages, run once over the shaped result.
    pub(crate) order: Vec<Order>,
    /// Whether an ordering stage resolves a key against the post-filter,
    /// pre-projection rows, decided at lowering ([`order_reads_input`]):
    /// only then does the morsel driver keep those rows next to the
    /// projected ones.
    pub(crate) order_reads_input: bool,
}

impl PhysicalPlan {
    /// Execute the plan over `input` — the one way a plan runs. The
    /// context's thread budget and partition count never change
    /// results. A weight vector must be parallel to its table; when a
    /// join plan's aggregate carries the §5.3 weighted rewrite, the
    /// joined `weight` column becomes the row-weight vector of the
    /// downstream pipeline (a NULL weight — a NULL-extended LEFT OUTER
    /// row — contributes weight 0).
    pub fn run(&self, input: PlanInput<'_>, ctx: &ExecContext<'_>) -> Result<Table> {
        match (input, &self.join) {
            (PlanInput::Table { table, weights }, None) => {
                parallel::execute_plan(self, MorselSource::Table { table, weights }, ctx)
            }
            (
                PlanInput::Join {
                    left,
                    right,
                    post_join,
                },
                Some(join),
            ) => {
                let mut joined = join.execute(left, right, ctx)?;
                if let Some(f) = post_join {
                    if let Some(weight) = f(joined.gather(0..joined.num_rows())?)? {
                        joined.replace_weight(weight)?;
                    }
                }
                parallel::execute_plan(self, MorselSource::Joined(&joined), ctx)
            }
            (PlanInput::Table { .. }, Some(_)) => Err(MosaicError::Execution(
                "plan/input mismatch: a join plan needs a left/right input pair, got one table"
                    .into(),
            )),
            (PlanInput::Join { .. }, None) => Err(MosaicError::Execution(
                "plan/input mismatch: a single-relation plan needs one table, got a left/right pair"
                    .into(),
            )),
        }
    }

    /// Run the ordering stages over a shaped result: the morsel
    /// driver's post-merge loop, and the OPEN combiner's, which orders
    /// the combined replicate answers (with no pre-projection `input`,
    /// as for every aggregate plan).
    pub(crate) fn apply_order(
        &self,
        mut table: Table,
        input: Option<&Table>,
        ctx: &ExecContext<'_>,
    ) -> Result<Table> {
        for stage in &self.order {
            table = stage.apply(table, input, ctx)?;
        }
        Ok(table)
    }

    /// This plan without its ordering stages: what each replicate of an
    /// aggregate OPEN statement runs before the replicates combine.
    pub(crate) fn unordered(&self) -> PhysicalPlan {
        PhysicalPlan {
            order: Vec::new(),
            order_reads_input: false,
            ..self.clone()
        }
    }

    /// True when the shape stage is a *weighted* aggregate (§5.3
    /// rewrite). A join plan with this property consumes the joined
    /// `weight` column as its row-weight vector.
    pub(crate) fn agg_weighted(&self) -> bool {
        matches!(&self.shape, Shape::Aggregate { weighted: true, .. })
    }

    /// True when the shape stage aggregates. ORDER BY keys must then
    /// resolve against the aggregate output only — offering the
    /// pre-shape input as a fallback would let sorts silently bind to
    /// unaggregated source columns whenever the group count happens to
    /// equal the input row count.
    pub(crate) fn is_aggregate(&self) -> bool {
        matches!(self.shape, Shape::Aggregate { .. })
    }

    /// The sort keys and row count of the TopK that selects inside the
    /// morsel phase, if any: the first ordering stage when it is a TopK
    /// over a projection whose sort keys are bare columns, constants or
    /// parameters. Such a key resolves against the same column (of the
    /// projection, else of the pre-projection rows) in every morsel, so
    /// per-morsel heaps select exactly what one heap over the merged
    /// table would. The morsel driver and `EXPLAIN` both branch on this
    /// one predicate.
    pub(crate) fn morsel_topk(&self) -> Option<(&[(Expr, bool)], usize)> {
        let (Shape::Project { .. }, Some(Order::TopK { keys, n })) =
            (&self.shape, self.order.first())
        else {
            return None;
        };
        keys.iter()
            .all(|(e, _)| matches!(e, Expr::Column(_) | Expr::Literal(_) | Expr::Param(_)))
            .then_some((keys, *n))
    }

    /// The pruned scan's column names (`None` = scan every column).
    pub fn scan_columns(&self) -> Option<&[String]> {
        self.scan_columns.as_deref()
    }

    /// Operator names in execution order (EXPLAIN-style). Join plans
    /// start at the hash join instead of a plain scan.
    pub fn operators(&self) -> Vec<&'static str> {
        let mut names = vec![if self.join.is_some() {
            "HashJoin"
        } else {
            "Scan"
        }];
        names.extend(self.filters.iter().map(|_| "Filter"));
        names.push(self.shape.name());
        names.extend(self.order.iter().map(Order::name));
        names
    }

    /// One description line per operator (excluding the scan, which only
    /// the engine can describe — it knows the relation) in execution
    /// order. Used by `EXPLAIN`.
    pub fn describe_operators(&self) -> Vec<String> {
        let mut lines: Vec<String> = Vec::new();
        if let Some(join) = &self.join {
            lines.push(join.describe());
            lines.extend(join.describe_sides().into_iter().map(|l| format!("  {l}")));
        }
        lines.extend(self.filters.iter().map(FilterOp::describe));
        lines.push(self.shape.describe());
        for (i, stage) in self.order.iter().enumerate() {
            lines.push(match self.morsel_topk() {
                Some((_, n)) if i == 0 => format!(
                    "{} (a bounded heap per morsel keeps ≤ {n} candidate(s))",
                    stage.describe()
                ),
                _ => stage.describe(),
            });
        }
        lines
    }
}

impl fmt::Display for PhysicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.operators().join(" → "))
    }
}

/// True when the statement needs the aggregate shape.
pub(crate) fn has_aggregate_shape(stmt: &SelectStmt) -> bool {
    !stmt.group_by.is_empty()
        || stmt.items.iter().any(|item| match item {
            SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
            SelectItem::Wildcard => false,
        })
}

/// Lower a logical plan into the physical operator pipeline.
///
/// Plans built by [`LogicalPlan::from_stmt`] always carry exactly one
/// shape node (`Project` or `Aggregate`). A hand-assembled chain
/// without one lowers as an implicit `SELECT *` projection — the
/// identity shape — rather than panicking.
fn lower_logical(plan: &LogicalPlan) -> PhysicalPlan {
    let mut scan_columns = None;
    let mut join_stage = None;
    let mut filters = Vec::new();
    let mut shape = None;
    let mut order = Vec::new();
    for node in plan.nodes() {
        match node {
            LogicalPlan::Scan { columns, .. } => {
                scan_columns = columns
                    .as_ref()
                    .map(|cols| cols.iter().map(|c| c.name.clone()).collect());
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                keys,
                output,
                ..
            } => {
                join_stage = Some(join::HashJoinOp {
                    left: lower_join_side(left, keys.iter().map(|(l, _)| l.clone()).collect()),
                    right: lower_join_side(right, keys.iter().map(|(_, r)| r.clone()).collect()),
                    kind: *kind,
                    output: output.clone(),
                });
            }
            LogicalPlan::Filter { predicate, .. } => filters.push(FilterOp {
                predicate: predicate.clone(),
            }),
            LogicalPlan::Project { items, .. } => {
                shape = Some(Shape::Project {
                    items: items.clone(),
                });
            }
            LogicalPlan::Aggregate {
                items,
                group_by,
                weighted,
                ..
            } => {
                shape = Some(Shape::Aggregate {
                    items: items.clone(),
                    group_by: group_by.clone(),
                    weighted: *weighted,
                });
            }
            LogicalPlan::Sort { keys, .. } => order.push(Order::Sort { keys: keys.clone() }),
            LogicalPlan::Limit { n, .. } => order.push(Order::Limit { n: *n }),
            LogicalPlan::TopK { keys, n, .. } => order.push(Order::TopK {
                keys: keys.clone(),
                n: *n,
            }),
        }
    }
    let shape = shape.unwrap_or_else(|| Shape::Project {
        items: vec![SelectItem::Wildcard],
    });
    PhysicalPlan {
        scan_columns,
        join: join_stage,
        filters,
        order_reads_input: order_reads_input(&shape, &order),
        shape,
        order,
    }
}

/// True when some Sort or TopK key of `order` names a column the
/// projection `shape` does not output, so it resolves against the
/// pre-projection rows. An aggregate's keys resolve against its output
/// alone, and a `*` item outputs every input column.
fn order_reads_input(shape: &Shape, order: &[Order]) -> bool {
    let Shape::Project { items } = shape else {
        return false;
    };
    if items
        .iter()
        .any(|item| matches!(item, SelectItem::Wildcard))
    {
        return false;
    }
    let names: Vec<String> = items.iter().map(output_name).collect();
    order
        .iter()
        .flat_map(Order::keys)
        .any(|(key, _)| !resolves_in(key, names.iter().map(String::as_str)))
}

/// Lower one join input chain (`Scan → Filter*`) into a [`join::JoinSide`].
fn lower_join_side(side: &LogicalPlan, keys: Vec<Expr>) -> join::JoinSide {
    let mut scan_columns = None;
    let mut filters = Vec::new();
    for node in side.nodes() {
        match node {
            LogicalPlan::Scan { columns, .. } => {
                scan_columns = columns
                    .as_ref()
                    .map(|cols| cols.iter().map(|c| c.name.clone()).collect());
            }
            LogicalPlan::Filter { predicate, .. } => filters.push(FilterOp {
                predicate: predicate.clone(),
            }),
            other => debug_assert!(false, "unexpected join-input node {}", other.name()),
        }
    }
    join::JoinSide {
        scan_columns,
        filters,
        keys,
    }
}

/// A fully planned SELECT: the canonical logical plan, the optimized
/// logical plan with the fired rule names, and the lowered physical
/// plan. Produced by [`plan_select`]; `EXPLAIN` renders all three
/// layers, prepared statements cache the whole bundle so rules run once
/// at prepare time.
pub struct Planned {
    /// The canonical logical plan (before optimization).
    pub logical: LogicalPlan,
    /// The logical plan after the optimizer ran (identical to
    /// `logical` when the optimizer is off or no rule fired).
    pub optimized: LogicalPlan,
    /// Names of the optimizer rules that fired, in application order
    /// (empty when the optimizer is off).
    pub fired: Vec<&'static str>,
    /// The physical plan lowered from `optimized`.
    pub physical: PhysicalPlan,
}

/// Plan one bound SELECT: build the logical plan, optimize it (when
/// `optimizer` is true; `schema` — the bound source schema, if known —
/// enables projection pruning), and lower the physical plan.
pub fn plan_select(
    stmt: &SelectStmt,
    weighted: bool,
    optimizer: bool,
    schema: Option<&Schema>,
) -> Planned {
    plan_logical(LogicalPlan::from_stmt(stmt, weighted), optimizer, schema)
}

/// Optimize + lower an already-built logical plan (the join binder
/// constructs its [`LogicalPlan::Join`] tree itself; single-relation
/// statements go through [`plan_select`]).
pub fn plan_logical(logical: LogicalPlan, optimizer: bool, schema: Option<&Schema>) -> Planned {
    let (optimized, fired) = if optimizer {
        optimize::optimize(logical.clone(), schema)
    } else {
        (logical.clone(), Vec::new())
    };
    let physical = lower_logical(&optimized);
    Planned {
        logical,
        optimized,
        fired,
        physical,
    }
}

/// Output column name of a projection item.
pub(crate) fn output_name(item: &SelectItem) -> String {
    match item {
        SelectItem::Wildcard => "*".into(),
        SelectItem::Expr { expr, alias } => alias.clone().unwrap_or_else(|| expr.default_name()),
    }
}

/// Assemble per-group output rows into a table, typing each column by
/// its first non-NULL value (an Int column widens to Float when a Float
/// shows; Int when every value is NULL).
pub(crate) fn assemble_value_rows(fields: &[String], value_rows: &[Vec<Value>]) -> Result<Table> {
    let ncols = fields.len();
    let mut schema_fields = Vec::with_capacity(ncols);
    let mut columns = Vec::with_capacity(ncols);
    for c in 0..ncols {
        let mut ty: Option<DataType> = None;
        for row in value_rows {
            match (ty, row[c].data_type()) {
                (None, Some(t)) => ty = Some(t),
                (Some(DataType::Int), Some(DataType::Float)) => ty = Some(DataType::Float),
                _ => {}
            }
        }
        let ty = ty.unwrap_or(DataType::Int);
        let mut b = ColumnBuilder::with_capacity(ty, value_rows.len());
        for row in value_rows {
            let v = match (&row[c], ty) {
                (Value::Int(i), DataType::Float) => Value::Float(*i as f64),
                (v, _) => v.clone(),
            };
            b.push(v)?;
        }
        schema_fields.push(Field::new(fields[c].clone(), ty));
        columns.push(b.finish());
    }
    Table::new(Schema::new(schema_fields), columns).map_err(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_sql::{parse, Statement};
    use mosaic_storage::TableBuilder;

    fn select(src: &str) -> SelectStmt {
        match parse(src).unwrap().pop().unwrap() {
            Statement::Select(s) => s,
            other => panic!("not a select: {other:?}"),
        }
    }

    /// The direct structural translation of a statement — no optimizer.
    fn lower(stmt: &SelectStmt, weighted: bool) -> PhysicalPlan {
        plan_select(stmt, weighted, false, None).physical
    }

    /// Run a single-relation plan at the given thread count.
    fn run(
        plan: &PhysicalPlan,
        table: &Table,
        weights: Option<&[f64]>,
        threads: usize,
    ) -> Result<Table> {
        plan.run(
            PlanInput::Table { table, weights },
            &ExecContext::new(&[], threads, 16),
        )
    }

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("v", DataType::Int),
        ]);
        let mut b = TableBuilder::new(schema);
        for (k, v) in [("a", 1), ("b", 2), ("a", 3), ("b", 4), ("c", 5)] {
            b.push_row(vec![k.into(), (v as i64).into()]).unwrap();
        }
        b.finish()
    }

    /// `Sort` over a 3-morsel input with heavy ties on its key returns
    /// the stable order of the key at a 1- and an 8-thread budget alike:
    /// the prefix sort breaks equal prefixes on the row id.
    #[test]
    fn sort_op_is_stable_at_every_thread_budget() {
        use crate::plan::parallel::MORSEL_ROWS;
        let rows = 3 * MORSEL_ROWS + 17;
        let schema = Schema::new(vec![
            Field::new("v", DataType::Int),
            Field::new("r", DataType::Int),
        ]);
        let mut b = TableBuilder::new(schema);
        for r in 0..rows {
            b.push_row(vec![
                Value::Int(((r * 7919) % 1000) as i64),
                Value::Int(r as i64),
            ])
            .unwrap();
        }
        let plan = lower(&select("SELECT v, r FROM t ORDER BY v DESC"), false);
        assert!(matches!(plan.order[..], [Order::Sort { .. }]));
        let table = b.finish();
        let ctx = |threads: usize| ExecContext::new(&[], threads, 1);
        let mut expect: Vec<usize> = (0..rows).collect();
        expect.sort_by_key(|&r| std::cmp::Reverse(table.value(r, 0).as_i64()));
        for threads in [1, 8] {
            let got = plan
                .apply_order(table.clone(), None, &ctx(threads))
                .unwrap();
            let got: Vec<usize> = (0..got.num_rows())
                .map(|r| got.value(r, 1).as_i64().unwrap() as usize)
                .collect();
            assert_eq!(got, expect, "{threads} thread(s)");
        }
    }

    /// `SELECT … FROM l JOIN r ON l.k = r.k`, planned over [`table`]
    /// twice; `weighted` makes both sides expose a `weight` column the
    /// aggregate consumes.
    fn join_plan(src: &str, weighted: bool) -> (PhysicalPlan, Table) {
        let mut t = table();
        if weighted {
            let mut fields = t.schema().fields().to_vec();
            fields.push(Field::new("weight", DataType::Float));
            let mut columns = t.columns().to_vec();
            columns.push(Column::from_f64(vec![2.0; t.num_rows()]));
            t = Table::new(Schema::new(fields), columns).unwrap();
        }
        let rel = |name: &str| join::ScopeRel {
            name: name.into(),
            binding: name.into(),
            schema: std::sync::Arc::clone(t.schema()),
            weighted,
        };
        let bound = join::bind_join(&select(src), vec![rel("l"), rel("r")], weighted).unwrap();
        (plan_logical(bound.logical, true, None).physical, t)
    }

    /// A join plan given one table must not run its post-join pipeline
    /// over that table and return rows: both mismatches are typed
    /// errors, and the matching shapes run.
    #[test]
    fn plan_input_shape_mismatch_is_error() {
        let ctx = ExecContext::new(&[], 2, 16);
        let (join, t) = join_plan("SELECT l.k, r.v FROM l JOIN r ON l.k = r.k", false);
        let single = lower(&select("SELECT k FROM t"), false);
        let one = PlanInput::Table {
            table: &t,
            weights: None,
        };
        let pair = PlanInput::Join {
            left: &t,
            right: &t,
            post_join: None,
        };
        for (plan, input, needs) in [(&join, one, "left/right"), (&single, pair, "one table")] {
            let err = plan.run(input, &ctx).unwrap_err();
            assert!(matches!(err, MosaicError::Execution(_)), "{err}");
            let msg = err.to_string();
            assert!(msg.contains("mismatch") && msg.contains(needs), "{msg}");
        }
        // a×a, b×b pair up 2×2 each, c once.
        assert_eq!(join.run(pair, &ctx).unwrap().num_rows(), 9);
        assert_eq!(single.run(one, &ctx).unwrap().num_rows(), 5);
    }

    /// One check guards both input shapes: a caller-supplied vector of
    /// the wrong length is rejected, and the vector a weighted join plan
    /// derives from the joined `weight` column passes the same check.
    #[test]
    fn weight_length_checked_on_both_input_paths() {
        let plan = lower(&select("SELECT COUNT(*) FROM t"), true);
        let err = run(&plan, &table(), Some(&[1.0]), 2).unwrap_err();
        assert!(matches!(err, MosaicError::Execution(_)), "{err}");
        assert!(err.to_string().contains("weight vector length 1"), "{err}");

        let (join, t) = join_plan("SELECT COUNT(*) FROM l JOIN r ON l.k = r.k", true);
        let pair = |post_join| PlanInput::Join {
            left: &t,
            right: &t,
            post_join,
        };
        let ctx = ExecContext::new(&[], 2, 16);
        // 9 joined rows, each weighing 2 × 2.
        let out = join.run(pair(None), &ctx).unwrap();
        assert_eq!(out.value(0, 0), Value::Float(36.0));
        // The hook sees every joined row and runs before the weights are
        // read off the joined rows.
        let halve = |joined: Table| {
            assert_eq!(joined.num_rows(), 9);
            Ok(Some(Column::from_f64(vec![2.0; 9])))
        };
        let out = join.run(pair(Some(&halve)), &ctx).unwrap();
        assert_eq!(out.value(0, 0), Value::Float(18.0));
        // A replacement weight column goes through the same check.
        let short = |_: Table| Ok(Some(Column::from_f64(vec![1.0; 4])));
        let err = join.run(pair(Some(&short)), &ctx).unwrap_err();
        assert!(err.to_string().contains("weight vector length 4"), "{err}");
    }

    #[test]
    fn lowering_shapes() {
        let plan = lower(&select("SELECT * FROM t"), false);
        assert_eq!(plan.operators(), vec!["Scan", "Project"]);
        let plan = lower(
            &select("SELECT k, COUNT(*) FROM t WHERE v > 1 GROUP BY k ORDER BY k LIMIT 2"),
            true,
        );
        assert_eq!(
            plan.operators(),
            vec!["Scan", "Filter", "HashAggregate", "Sort", "Limit"]
        );
        assert_eq!(
            plan.to_string(),
            "Scan → Filter → HashAggregate → Sort → Limit"
        );
    }

    #[test]
    fn plan_executes_group_by() {
        let plan = lower(
            &select("SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY s DESC"),
            false,
        );
        let out = run(&plan, &table(), None, 4).unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.value(0, 0), Value::Str("b".into()));
        assert_eq!(out.value(0, 1), Value::Int(6));
        assert_eq!(out.value(1, 0), Value::Str("c".into()));
        assert_eq!(out.value(2, 0), Value::Str("a".into()));
    }

    #[test]
    fn weighted_plan_property() {
        let plan = lower(&select("SELECT COUNT(*) FROM t"), true);
        let w = [2.0, 2.0, 2.0, 2.0, 2.0];
        let out = run(&plan, &table(), Some(&w), 4).unwrap();
        assert_eq!(out.value(0, 0), Value::Float(10.0));
    }

    #[test]
    fn aggregate_sort_cannot_bind_source_columns() {
        // Every key is its own group, so group count == input row count;
        // the sort must still refuse to fall back to the unaggregated
        // input (the row-wise reference errors here too).
        let schema = Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("v", DataType::Int),
        ]);
        let mut b = TableBuilder::new(schema);
        for (k, v) in [("a", 3), ("b", 1), ("c", 2)] {
            b.push_row(vec![k.into(), (v as i64).into()]).unwrap();
        }
        let t = b.finish();
        let plan = lower(
            &select("SELECT k, COUNT(*) FROM t GROUP BY k ORDER BY v"),
            false,
        );
        assert!(run(&plan, &t, None, 4).is_err());
    }

    #[test]
    fn min_max_beyond_f64_precision_matches_oracle() {
        // 2^53 + 1 and 2^53 collapse to the same f64; sql_cmp sees them
        // as equal and MIN and MAX both keep the first value, as the
        // row-at-a-time oracle does.
        let schema = Schema::new(vec![Field::new("v", DataType::Int)]);
        let mut b = TableBuilder::new(schema);
        for v in [(1i64 << 53) + 1, 1i64 << 53] {
            b.push_row(vec![v.into()]).unwrap();
        }
        let t = b.finish();
        let stmt = select("SELECT MIN(v), MAX(v) FROM t");
        let vectorized = run(&lower(&stmt, false), &t, None, 4).unwrap();
        assert_eq!(vectorized.value(0, 0), Value::Int((1 << 53) + 1));
        assert_eq!(vectorized.value(0, 1), Value::Int((1 << 53) + 1));
    }

    /// The fused TopK operator must reproduce Sort → Limit bit-for-bit:
    /// same rows, same (stable) tie order — across multi-chunk inputs
    /// with heavy ties, NULL keys, mixed directions, and limits around
    /// the edge cases.
    #[test]
    fn topk_matches_sort_limit() {
        let rows = 2 * parallel::MORSEL_ROWS + 321;
        let schema = Schema::new(vec![
            Field::new("g", DataType::Int),
            Field::new("f", DataType::Float),
            Field::new("id", DataType::Int),
        ]);
        let mut b = mosaic_storage::TableBuilder::new(schema);
        for r in 0..rows {
            b.push_row(vec![
                Value::Int((r % 5) as i64), // heavy ties
                if r % 7 == 0 {
                    Value::Null
                } else {
                    Value::Float((r % 97) as f64 - 48.0)
                },
                Value::Int(r as i64),
            ])
            .unwrap();
        }
        let t = b.finish();
        for src in [
            "SELECT g, id FROM t ORDER BY g LIMIT 13",
            "SELECT g, id FROM t ORDER BY g DESC, f LIMIT 50",
            "SELECT id FROM t WHERE f IS NOT NULL ORDER BY f DESC LIMIT 7",
            "SELECT g, f, id FROM t ORDER BY f, g DESC LIMIT 0",
            "SELECT g, id FROM t ORDER BY g LIMIT 1000000",
        ] {
            let stmt = select(src);
            for threads in [1, 4] {
                let unopt = plan_select(&stmt, false, false, Some(t.schema())).physical;
                let unopt = run(&unopt, &t, None, threads).unwrap();
                let opt = plan_select(&stmt, false, true, Some(t.schema())).physical;
                let opt = run(&opt, &t, None, threads).unwrap();
                assert_eq!(unopt.num_rows(), opt.num_rows(), "{src}");
                assert_eq!(unopt.num_columns(), opt.num_columns(), "{src}");
                for r in 0..unopt.num_rows() {
                    for c in 0..unopt.num_columns() {
                        assert_eq!(unopt.value(r, c), opt.value(r, c), "{src} cell ({r},{c})");
                    }
                }
            }
        }
    }

    #[test]
    fn optimized_plan_shapes() {
        let planned = plan_select(
            &select("SELECT k FROM t WHERE v > 1 ORDER BY v LIMIT 2"),
            false,
            true,
            None,
        );
        assert_eq!(
            planned.physical.operators(),
            vec!["Scan", "Filter", "Project", "TopK"]
        );
        assert_eq!(planned.fired, vec!["sort_limit_fusion"]);
        // Without the optimizer the structure is untouched.
        let planned = plan_select(
            &select("SELECT k FROM t WHERE v > 1 ORDER BY v LIMIT 2"),
            false,
            false,
            None,
        );
        assert_eq!(
            planned.physical.operators(),
            vec!["Scan", "Filter", "Project", "Sort", "Limit"]
        );
        assert!(planned.fired.is_empty());
    }

    /// Lowering decides whether the ordering stages read the
    /// pre-projection rows: only a key naming a column the projection
    /// drops does, so a Sort over output columns (aliases, expressions
    /// over them, `*`) runs without the morsel driver carrying them.
    #[test]
    fn sort_on_output_columns_lowers_without_carried_input() {
        for (src, reads_input) in [
            ("SELECT k, v FROM t WHERE v > 1 ORDER BY v DESC, k", false),
            ("SELECT k, v AS w FROM t WHERE v > 1 ORDER BY w + 1", false),
            ("SELECT * FROM t WHERE v > 1 ORDER BY v", false),
            (
                "SELECT k, COUNT(*) AS c FROM t GROUP BY k ORDER BY c",
                false,
            ),
            ("SELECT k FROM t WHERE v > 1 ORDER BY v DESC", true),
            ("SELECT k, v AS w FROM t ORDER BY w, v", true),
        ] {
            for optimizer in [false, true] {
                let plan = plan_select(&select(src), false, optimizer, None).physical;
                assert_eq!(plan.order_reads_input, reads_input, "{src}");
            }
        }
        let out = run(
            &lower(
                &select("SELECT k, v FROM t WHERE v > 1 ORDER BY v DESC, k"),
                false,
            ),
            &table(),
            None,
            4,
        )
        .unwrap();
        let got: Vec<Value> = (0..out.num_rows()).map(|r| out.value(r, 1)).collect();
        assert_eq!(got, [5, 4, 3, 2].map(Value::Int));
    }

    #[test]
    fn sort_falls_back_to_filtered_input() {
        let plan = lower(
            &select("SELECT k FROM t WHERE v > 1 ORDER BY v DESC"),
            false,
        );
        let out = run(&plan, &table(), None, 4).unwrap();
        assert_eq!(out.value(0, 0), Value::Str("c".into()));
        assert_eq!(out.num_rows(), 4);
    }
}
