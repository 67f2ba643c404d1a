//! Multi-relation FROM scopes and the vectorized hash equi-join.
//!
//! A `FROM a [AS x] JOIN b [AS y] ON x.k = y.k` clause binds into a
//! scope: the relations in source order, each with a binding name
//! (alias or relation name) and its bound schema. The scope defines the
//! join's **output columns** — a column name unique across both sides
//! keeps its bare name, a duplicated name is qualified as
//! `binding.column` — and resolves every column reference in the
//! statement (qualified or bare, with a bind-time ambiguity error when a
//! bare name matches both sides) to an output column.
//!
//! Join semantics:
//!
//! * **Equi-joins only (INNER or LEFT OUTER).** The ON predicate must be
//!   a conjunction of `left = right` equalities, each side referencing
//!   exactly one relation. Two rows join iff every key pair is equal
//!   under [`Value::sql_cmp`] — numerics coerce through `f64`, strings
//!   compare exactly, and NULL or NaN keys never match anything. A LEFT
//!   OUTER join additionally keeps every unmatched left row once,
//!   NULL-extended on the right side.
//! * **Canonical output order.** Output rows are ordered by (left row,
//!   right row) — the order a nested loop with the left side outermost
//!   produces. The hash executor builds on the *smaller* input and
//!   probes the larger one morsel-parallel, restoring the canonical
//!   order afterwards, so results are bit-identical at every thread
//!   count and to [`reference_join`]. An unmatched left row of a LEFT
//!   OUTER join appears at its left position.
//! * **Weights.** A sample input exposes the engine-managed `weight`
//!   column and the join carries it through (projection pruning never
//!   drops it). When *both* inputs are weighted, the join emits one
//!   **combined** `weight` column — the elementwise product of the two
//!   sides' correction weights, the open-world combination rule under
//!   the independence assumption; the engine can re-calibrate it
//!   against declared marginals with IPF afterwards.
//!
//! [`Value::sql_cmp`]: mosaic_storage::Value::sql_cmp

use std::sync::Arc;

use mosaic_sql::{BinOp, Expr, FromClause, JoinKind, SelectItem, SelectStmt};
use mosaic_storage::{kernels, Bitmap, Column, DataType, Field, Schema, Table, Value};

use super::hash::{self, FoldMap};
use super::logical::{JoinOutCol, LogicalPlan};
use super::parallel::{parallel_sort_indices, prune_scan, run_ordered, MORSEL_ROWS};
use super::{bind_expr, Batch, ExecContext, FilterOp, PhysicalOperator};
use crate::{MosaicError, Result};

/// True when a statement's FROM clause needs the multi-relation scope
/// binder: it has joins, an alias, or qualified (`alias.column`)
/// references. Plain single-relation statements keep the pre-join path.
pub(crate) fn needs_scope(stmt: &SelectStmt, from: &FromClause) -> bool {
    from.has_joins()
        || from.base.alias.is_some()
        || stmt.referenced_columns().iter().any(|c| c.contains('.'))
}

/// A relation bound into a FROM scope.
#[derive(Debug, Clone)]
pub(crate) struct ScopeRel {
    /// Catalog relation name (as written in the statement).
    pub name: String,
    /// Binding name column references qualify with (alias or name).
    pub binding: String,
    /// Bound schema (samples: augmented with the `weight` column).
    pub schema: Arc<Schema>,
    /// True when the relation exposes the engine-managed weight column.
    pub weighted: bool,
}

/// A bound multi-relation FROM scope.
#[derive(Debug)]
pub(crate) struct Scope {
    rels: Vec<ScopeRel>,
    out: Vec<JoinOutCol>,
}

/// The join's output columns for a list of (binding, schema) sides:
/// every column of every side in source order, bare-named when unique
/// across the scope, `binding.column` otherwise.
///
/// With `combine_weight` (both sides weighted), the two per-side
/// `weight` columns collapse into one *combined* output named `weight`
/// whose value is their elementwise product; the right side's weight
/// column produces no output of its own.
pub(crate) fn output_columns(sides: &[(&str, &Schema)], combine_weight: bool) -> Vec<JoinOutCol> {
    let is_weight = |name: &str| name.eq_ignore_ascii_case("weight");
    let mut counts: FoldMap<String, usize> = FoldMap::default();
    for (source, (_, schema)) in sides.iter().enumerate() {
        for f in schema.fields() {
            if combine_weight && source > 0 && is_weight(&f.name) {
                continue;
            }
            *counts.entry(f.name.to_ascii_lowercase()).or_insert(0) += 1;
        }
    }
    let mut out = Vec::new();
    for (source, (binding, schema)) in sides.iter().enumerate() {
        for (id, f) in schema.fields().iter().enumerate() {
            if combine_weight && is_weight(&f.name) {
                if source == 0 {
                    out.push(JoinOutCol {
                        name: "weight".to_string(),
                        source: 0,
                        column: f.name.clone(),
                        column_id: id,
                        data_type: DataType::Float,
                        combined: true,
                    });
                }
                continue;
            }
            let name = if counts[&f.name.to_ascii_lowercase()] > 1 {
                format!("{binding}.{}", f.name)
            } else {
                f.name.clone()
            };
            out.push(JoinOutCol {
                name,
                source,
                column: f.name.clone(),
                column_id: id,
                data_type: f.data_type,
                combined: false,
            });
        }
    }
    out
}

impl Scope {
    /// Bind a scope. Errors on duplicate binding names. Two weighted
    /// (sample) relations are allowed: their correction weights combine
    /// into one product `weight` output column.
    pub fn new(rels: Vec<ScopeRel>) -> Result<Scope> {
        for (i, a) in rels.iter().enumerate() {
            for b in &rels[i + 1..] {
                if a.binding.eq_ignore_ascii_case(&b.binding) {
                    return Err(MosaicError::Bind(format!(
                        "duplicate relation binding {} in FROM; alias one of the relations",
                        a.binding
                    )));
                }
            }
        }
        let combine_weight = rels.iter().filter(|r| r.weighted).count() > 1;
        let sides: Vec<(&str, &Schema)> = rels
            .iter()
            .map(|r| (r.binding.as_str(), r.schema.as_ref()))
            .collect();
        let out = output_columns(&sides, combine_weight);
        Ok(Scope { rels, out })
    }

    /// The join's output columns.
    pub fn out(&self) -> &[JoinOutCol] {
        &self.out
    }

    /// Indices of the weighted (sample) relations, in source order.
    pub fn weighted_sources(&self) -> Vec<usize> {
        self.rels
            .iter()
            .enumerate()
            .filter(|(_, r)| r.weighted)
            .map(|(i, _)| i)
            .collect()
    }

    /// Resolve a (possibly qualified) column reference to its output
    /// column. Bare names matching more than one relation are an
    /// ambiguity error; unknown names and unknown qualifiers are bind
    /// errors.
    pub fn resolve(&self, name: &str) -> Result<&JoinOutCol> {
        if let Some((qual, col)) = name.split_once('.') {
            let source = self
                .rels
                .iter()
                .position(|r| r.binding.eq_ignore_ascii_case(qual))
                .ok_or_else(|| {
                    MosaicError::Bind(format!(
                        "unknown relation qualifier {qual} in column reference {name}; \
                         relations in scope: {}",
                        self.bindings().join(", ")
                    ))
                })?;
            return self
                .out
                .iter()
                .find(|o| o.source == source && o.column.eq_ignore_ascii_case(col))
                .or_else(|| {
                    // Both sides weighted: either side's qualified
                    // `weight` resolves to the single combined column
                    // (the per-side weights are not separately
                    // addressable through the join).
                    if col.eq_ignore_ascii_case("weight") {
                        self.out.iter().find(|o| o.combined)
                    } else {
                        None
                    }
                })
                .ok_or_else(|| {
                    MosaicError::Bind(format!(
                        "unknown column {col} in relation {} ({})",
                        self.rels[source].binding, self.rels[source].name
                    ))
                });
        }
        let matches: Vec<&JoinOutCol> = self
            .out
            .iter()
            .filter(|o| o.column.eq_ignore_ascii_case(name))
            .collect();
        match matches.len() {
            0 => Err(MosaicError::Bind(format!(
                "unknown column {name} in FROM scope ({})",
                self.bindings().join(", ")
            ))),
            1 => Ok(matches[0]),
            _ => Err(MosaicError::Bind(format!(
                "ambiguous column {name}: it exists in {}; qualify it as <relation>.{name}",
                matches
                    .iter()
                    .map(|o| self.rels[o.source].binding.as_str())
                    .collect::<Vec<_>>()
                    .join(" and "),
            ))),
        }
    }

    fn bindings(&self) -> Vec<&str> {
        self.rels.iter().map(|r| r.binding.as_str()).collect()
    }

    /// Rewrite every column reference in an expression to its join
    /// output name.
    pub fn rewrite(&self, e: &Expr) -> Result<Expr> {
        map_columns(e, &|name| Ok(self.resolve(name)?.name.clone()))
    }

    /// Rewrite every column reference to its *source* column name,
    /// requiring all references to come from relation `source` (keys and
    /// pushed-down predicates evaluate against one side's table).
    pub fn rewrite_for_source(&self, e: &Expr, source: usize) -> Result<Expr> {
        map_columns(e, &|name| {
            let out = self.resolve(name)?;
            if out.source != source {
                return Err(MosaicError::Bind(format!(
                    "column {name} does not belong to relation {}",
                    self.rels[source].binding
                )));
            }
            Ok(out.column.clone())
        })
    }

    /// Rewrite a statement's expressions (SELECT list, WHERE, GROUP BY,
    /// ORDER BY) to join output names. The FROM clause is kept verbatim
    /// so the statement stays re-bindable and display-faithful.
    ///
    /// ORDER BY keys get one extra degree of freedom: a name that is not
    /// in scope but matches a SELECT item's output name (its alias or
    /// written spelling) stays untouched — sort keys resolve against the
    /// projection output first at execution, exactly like the
    /// single-relation path.
    pub fn rewrite_stmt(&self, stmt: &SelectStmt) -> Result<SelectStmt> {
        let items: Vec<SelectItem> = stmt
            .items
            .iter()
            .map(|i| match i {
                SelectItem::Wildcard => Ok(SelectItem::Wildcard),
                SelectItem::Expr { expr, alias } => Ok(SelectItem::Expr {
                    expr: self.rewrite(expr)?,
                    // Unaliased items keep their written spelling as
                    // the output name, so `SELECT f.distance` still
                    // labels the column `f.distance`.
                    alias: Some(alias.clone().unwrap_or_else(|| expr.default_name())),
                }),
            })
            .collect::<Result<_>>()?;
        let item_names: Vec<String> = items
            .iter()
            .filter_map(|i| match i {
                SelectItem::Expr { alias: Some(a), .. } => Some(a.clone()),
                _ => None,
            })
            .collect();
        let rewrite_sort_key = |e: &Expr| {
            map_columns(e, &|name| {
                match self.resolve(name) {
                    Ok(out) => Ok(out.name.clone()),
                    Err(err) => {
                        if item_names.iter().any(|n| n.eq_ignore_ascii_case(name)) {
                            // A projection alias: leave it for the sort
                            // to resolve against the output table.
                            Ok(name.to_string())
                        } else {
                            Err(err)
                        }
                    }
                }
            })
        };
        Ok(SelectStmt {
            visibility: stmt.visibility,
            items,
            from: stmt.from.clone(),
            where_clause: stmt
                .where_clause
                .as_ref()
                .map(|e| self.rewrite(e))
                .transpose()?,
            group_by: stmt
                .group_by
                .iter()
                .map(|e| self.rewrite(e))
                .collect::<Result<_>>()?,
            order_by: stmt
                .order_by
                .iter()
                .map(|(e, d)| rewrite_sort_key(e).map(|e| (e, *d)))
                .collect::<Result<_>>()?,
            limit: stmt.limit,
        })
    }
}

/// Rebuild an expression with every [`Expr::Column`] name mapped through
/// `f`.
pub(crate) fn map_columns(e: &Expr, f: &impl Fn(&str) -> Result<String>) -> Result<Expr> {
    let map_box = |e: &Expr| map_columns(e, f).map(Box::new);
    Ok(match e {
        Expr::Column(name) => Expr::Column(f(name)?),
        Expr::Literal(_) | Expr::Param(_) => e.clone(),
        Expr::Unary { op, expr } => Expr::Unary {
            op: *op,
            expr: map_box(expr)?,
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: map_box(left)?,
            op: *op,
            right: map_box(right)?,
        },
        Expr::InList {
            expr,
            list,
            negated,
        } => Expr::InList {
            expr: map_box(expr)?,
            list: list
                .iter()
                .map(|e| map_columns(e, f))
                .collect::<Result<_>>()?,
            negated: *negated,
        },
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: map_box(expr)?,
            low: map_box(low)?,
            high: map_box(high)?,
            negated: *negated,
        },
        Expr::IsNull { expr, negated } => Expr::IsNull {
            expr: map_box(expr)?,
            negated: *negated,
        },
        Expr::Agg { func, arg } => Expr::Agg {
            func: *func,
            arg: arg.as_deref().map(map_box).transpose()?,
        },
    })
}

/// A statement bound against a two-relation scope: the rewritten
/// statement (output names) plus the logical plan with its
/// [`LogicalPlan::Join`] leaf.
pub(crate) struct BoundJoin {
    /// The statement with every expression rewritten to output names.
    pub stmt: SelectStmt,
    /// The canonical logical plan.
    pub logical: LogicalPlan,
}

/// Bind a single aliased relation: validate and rewrite every reference
/// (resolving `alias.col` to `col`), returning the rewritten statement
/// for the ordinary single-table pipeline.
pub(crate) fn bind_single(stmt: &SelectStmt, rel: ScopeRel) -> Result<SelectStmt> {
    Scope::new(vec![rel])?.rewrite_stmt(stmt)
}

/// Bind a join statement against its resolved relations (base first).
///
/// `weighted_agg` marks the paper's §5.3 weighted-aggregate rewrite:
/// population sides under SEMI-OPEN/OPEN visibility carry correction
/// weights the aggregate must consume (the engine feeds the joined
/// `weight` column in as row weights). Sample/table joins pass `false` —
/// their `weight` stays an ordinary, explicitly-queried column.
pub(crate) fn bind_join(
    stmt: &SelectStmt,
    rels: Vec<ScopeRel>,
    weighted_agg: bool,
) -> Result<BoundJoin> {
    let from = stmt
        .from
        .as_ref()
        .expect("bind_join requires a FROM clause");
    if from.joins.len() > 1 {
        return Err(MosaicError::Unsupported(
            "only one JOIN per statement is supported for now".into(),
        ));
    }
    debug_assert_eq!(rels.len(), 2);
    let scope = Scope::new(rels)?;
    let keys = extract_keys(&scope, &from.joins[0].on)?;
    let rewritten = scope.rewrite_stmt(stmt)?;
    let leaf = LogicalPlan::Join {
        left: Box::new(LogicalPlan::Scan {
            source: 0,
            columns: None,
        }),
        right: Box::new(LogicalPlan::Scan {
            source: 1,
            columns: None,
        }),
        kind: from.joins[0].kind,
        keys,
        output: scope.out().to_vec(),
        weighted: scope.weighted_sources(),
    };
    let logical = LogicalPlan::from_stmt_over(&rewritten, weighted_agg, leaf);
    Ok(BoundJoin {
        stmt: rewritten,
        logical,
    })
}

/// Decompose an ON predicate into equi-join key pairs: a conjunction of
/// `left = right` equalities, each side referencing exactly one
/// relation. Keys are rewritten to their side's source column names.
fn extract_keys(scope: &Scope, on: &Expr) -> Result<Vec<(Expr, Expr)>> {
    let mut conjuncts = Vec::new();
    split_and(on, &mut conjuncts);
    let mut keys = Vec::with_capacity(conjuncts.len());
    for conj in conjuncts {
        let Expr::Binary {
            left,
            op: BinOp::Eq,
            right,
        } = conj
        else {
            return Err(MosaicError::Unsupported(format!(
                "only equi-joins are supported (INNER or LEFT OUTER): ON must be a \
                 conjunction of `left = right` equalities, found {}",
                conj.default_name()
            )));
        };
        let ls = sole_source(scope, left)?;
        let rs = sole_source(scope, right)?;
        let (l, r): (&Expr, &Expr) = match (ls, rs) {
            (Some(0), Some(1)) => (left, right),
            (Some(1), Some(0)) => (right, left),
            _ => {
                return Err(MosaicError::Unsupported(format!(
                    "each side of the join equality {} = {} must reference exactly one \
                     relation, one per side",
                    left.default_name(),
                    right.default_name()
                )))
            }
        };
        keys.push((
            scope.rewrite_for_source(l, 0)?,
            scope.rewrite_for_source(r, 1)?,
        ));
    }
    Ok(keys)
}

/// Which relation an ON-side expression references: `Some(s)` when every
/// column resolves to source `s`, `None` when it references no columns
/// or spans several sources.
fn sole_source(scope: &Scope, e: &Expr) -> Result<Option<usize>> {
    let cols = e.referenced_columns();
    let mut source = None;
    for c in &cols {
        let s = scope.resolve(c)?.source;
        match source {
            None => source = Some(s),
            Some(prev) if prev != s => return Ok(None),
            _ => {}
        }
    }
    Ok(source)
}

/// Append an expression's AND-conjuncts to `out`, in source order.
pub(crate) fn split_and<'a>(e: &'a Expr, out: &mut Vec<&'a Expr>) {
    match e {
        Expr::Binary {
            left,
            op: BinOp::And,
            right,
        } => {
            split_and(left, out);
            split_and(right, out);
        }
        other => out.push(other),
    }
}

/// Left-associative AND chain over conjuncts (the parser's shape).
pub(crate) fn and_chain(mut conjuncts: Vec<Expr>) -> Expr {
    let first = conjuncts.remove(0);
    conjuncts.into_iter().fold(first, |acc, c| Expr::Binary {
        left: Box::new(acc),
        op: BinOp::And,
        right: Box::new(c),
    })
}

/// Conservative "this predicate can never error at evaluation time"
/// check, required before pushing a WHERE conjunct below the join: a
/// pushed predicate evaluates over rows the unpushed plan would never
/// see (rows that don't join), so any conjunct that *could* error must
/// stay above the join to keep optimizer-on/off results identical.
///
/// Safe shapes (operands restricted to bare columns and literals, whose
/// evaluation cannot fail):
/// * comparisons where both sides are Int columns / numeric literals,
///   both Str, or both Bool (`sql_cmp` total within those classes —
///   Float *columns* are excluded because a NaN makes `sql_cmp` error);
/// * `IS [NOT] NULL`, `[NOT] IN (literals…)` and `[NOT] BETWEEN
///   literals` — these yield NULL instead of erroring on incomparable
///   values, for any column type;
/// * AND / OR / NOT combinations of safe conjuncts.
pub(crate) fn push_safe(e: &Expr, ty: &impl Fn(&str) -> Option<DataType>) -> bool {
    #[derive(PartialEq, Clone, Copy)]
    enum Class {
        Num,
        Str,
        Bool,
        Null,
    }
    fn class(e: &Expr, ty: &impl Fn(&str) -> Option<DataType>) -> Option<Class> {
        match e {
            Expr::Literal(Value::Int(_)) | Expr::Literal(Value::Float(_)) => Some(Class::Num),
            Expr::Literal(Value::Str(_)) => Some(Class::Str),
            Expr::Literal(Value::Bool(_)) => Some(Class::Bool),
            Expr::Literal(Value::Null) => Some(Class::Null),
            Expr::Column(name) => match ty(name)? {
                DataType::Int => Some(Class::Num),
                DataType::Str => Some(Class::Str),
                DataType::Bool => Some(Class::Bool),
                // A Float column may hold NaN, which errors under
                // comparison — never push those.
                DataType::Float => None,
            },
            _ => None,
        }
    }
    /// Bare column or literal: evaluation itself cannot fail.
    fn simple(e: &Expr) -> bool {
        matches!(e, Expr::Column(_) | Expr::Literal(_))
    }
    match e {
        Expr::Binary {
            left,
            op: BinOp::And | BinOp::Or,
            right,
        } => push_safe(left, ty) && push_safe(right, ty),
        Expr::Unary {
            op: mosaic_sql::UnaryOp::Not,
            expr,
        } => push_safe(expr, ty),
        Expr::Binary {
            left,
            op: BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq,
            right,
        } => match (class(left, ty), class(right, ty)) {
            (Some(Class::Null), Some(_)) | (Some(_), Some(Class::Null)) => true,
            (Some(a), Some(b)) => a == b,
            _ => false,
        },
        Expr::IsNull { expr, .. } => simple(expr),
        Expr::InList { expr, list, .. } => {
            simple(expr) && list.iter().all(|e| matches!(e, Expr::Literal(_)))
        }
        Expr::Between {
            expr, low, high, ..
        } => {
            simple(expr)
                && matches!(low.as_ref(), Expr::Literal(_))
                && matches!(high.as_ref(), Expr::Literal(_))
        }
        _ => false,
    }
}

// ---- the physical hash join ----

/// One input of a [`HashJoinOp`]: the pruned scan column list, the
/// pushed-down filters, and this side's key expressions (in source
/// column names).
pub struct JoinSide {
    /// Columns the side's scan keeps (`None` = all).
    pub scan_columns: Option<Vec<String>>,
    /// Pushed-down filters, applied before the join.
    pub filters: Vec<FilterOp>,
    /// This side's equi-join key expressions.
    pub keys: Vec<Expr>,
}

/// The vectorized hash equi-join stage of a physical plan (INNER or
/// LEFT OUTER).
///
/// Execution: both inputs are pruned and filtered, the **smaller** one
/// is built into hash tables keyed on normalized key tokens (see
/// `mosaic_storage::kernels::join_key_f64`) — a build side spanning more
/// than one morsel radix-partitions its keys into P independent tables
/// built in parallel on the shared worker pool (P = the engine's
/// aggregate-merge partition knob), a smaller build stays one serial
/// table — then the larger side is probed morsel-parallel with ordered
/// fragment merge, each probe key routed to its key-hash partition.
/// Matching row pairs are restored to the canonical (left row, right
/// row) order (a parallel run-merge sort when the pair set is large) —
/// so results are bit-identical at every thread count *and every
/// partition count*, and to [`reference_join`]. A LEFT OUTER join then
/// inserts one NULL-extended row per unmatched left row via a single
/// merge walk over the canonically ordered pairs.
pub struct HashJoinOp {
    /// Left (base) input.
    pub left: JoinSide,
    /// Right (joined) input.
    pub right: JoinSide,
    /// INNER or LEFT OUTER.
    pub kind: JoinKind,
    /// Output columns (name, source, source column).
    pub output: Vec<JoinOutCol>,
}

impl HashJoinOp {
    /// One-line description for `EXPLAIN`.
    pub fn describe(&self) -> String {
        let keys: Vec<String> = self
            .left
            .keys
            .iter()
            .zip(&self.right.keys)
            .map(|(l, r)| format!("{} = {}", l.default_name(), r.default_name()))
            .collect();
        let out: Vec<&str> = self.output.iter().map(|o| o.name.as_str()).collect();
        let kind = match self.kind {
            JoinKind::Inner => "",
            JoinKind::LeftOuter => " LEFT OUTER",
        };
        format!(
            "HashJoin:{kind} keys [{}], output [{}] (build = smaller input, radix-partitioned \
             when multi-morsel; probe morsel-parallel)",
            keys.join(", "),
            out.join(", ")
        )
    }

    /// Per-side description lines (scan columns + pushed filters) for
    /// `EXPLAIN`.
    pub fn describe_sides(&self) -> Vec<String> {
        let side = |label: &str, s: &JoinSide| {
            let cols = match &s.scan_columns {
                Some(c) => format!(", columns: [{}]", c.join(", ")),
                None => String::new(),
            };
            let filters: Vec<String> = s
                .filters
                .iter()
                .map(|f| format!(", pushed {}", f.describe()))
                .collect();
            format!("{label} input: Scan{cols}{}", filters.join(""))
        };
        vec![side("left", &self.left), side("right", &self.right)]
    }

    /// Prune + filter one input, returning the side's table.
    fn prepare_input(
        &self,
        side: &JoinSide,
        table: &Table,
        ctx: &ExecContext<'_>,
    ) -> Result<Table> {
        let table = match &side.scan_columns {
            Some(cols) => prune_scan(table, cols)?,
            None => table.clone(),
        };
        let mut batch = Batch {
            table,
            weights: None,
        };
        for f in &side.filters {
            batch = f.execute(ctx, &batch)?;
        }
        Ok(batch.table)
    }

    /// Execute the join: returns the joined table in canonical
    /// (left row, right row) order. `ctx.partitions` caps the radix
    /// partitioning of a multi-morsel build side (1 = serial build);
    /// like the thread cap it never changes results.
    pub fn execute(&self, left: &Table, right: &Table, ctx: &ExecContext<'_>) -> Result<Table> {
        let (params, threads, partitions) = (ctx.params, ctx.threads, ctx.partitions);
        let l = self.prepare_input(&self.left, left, ctx)?;
        let r = self.prepare_input(&self.right, right, ctx)?;
        let lk = eval_keys(&self.left.keys, &l, params)?;
        let rk = eval_keys(&self.right.keys, &r, params)?;

        // Build on the strictly smaller input; ties build the right side
        // so the probe emits canonical left-major order directly.
        let build_is_left = l.num_rows() < r.num_rows();
        let (build_keys, probe_keys) = if build_is_left {
            (&lk, &rk)
        } else {
            (&rk, &lk)
        };

        let (mut left_idx, mut right_idx) =
            join_pairs(build_keys, probe_keys, threads, partitions)?;
        if build_is_left {
            // `join_pairs` returns (build, probe) = (left, right) pairs
            // in probe-major (right-major) order; restore the canonical
            // left-major order. The order is (left row, pair position) —
            // a stable sort by left row — so right indices, globally
            // ascending in probe order, stay ascending within each left
            // row; large pair sets sort as parallel runs + k-way merge.
            let perm = parallel_sort_indices(left_idx.len(), threads, |a, b| {
                left_idx[a].cmp(&left_idx[b]).then(a.cmp(&b))
            });
            left_idx = perm.iter().map(|&i| left_idx[i]).collect();
            right_idx = perm.iter().map(|&i| right_idx[i]).collect();
        } else {
            std::mem::swap(&mut left_idx, &mut right_idx);
        }

        // LEFT OUTER: one merge walk over the canonically ordered pairs
        // (left_idx is ascending) inserts each unmatched left row once,
        // NULL-extended on the right. An empty inner result (empty
        // build side, type-mismatched keys) NULL-extends every left row.
        let right_opt: Option<Vec<Option<usize>>> = match self.kind {
            JoinKind::Inner => None,
            JoinKind::LeftOuter => {
                let mut li = Vec::with_capacity(left_idx.len());
                let mut ro = Vec::with_capacity(left_idx.len());
                let mut p = 0;
                for lr in 0..l.num_rows() {
                    let matched = p < left_idx.len() && left_idx[p] == lr;
                    while p < left_idx.len() && left_idx[p] == lr {
                        li.push(lr);
                        ro.push(Some(right_idx[p]));
                        p += 1;
                    }
                    if !matched {
                        li.push(lr);
                        ro.push(None);
                    }
                }
                left_idx = li;
                Some(ro)
            }
        };

        // Gather the output columns from both sides.
        let mut fields = Vec::with_capacity(self.output.len());
        let mut columns = Vec::with_capacity(self.output.len());
        for out in &self.output {
            let col = if out.combined {
                combined_weight_column(&l, &r, &left_idx, &right_idx, right_opt.as_deref())?
            } else if out.source == 0 {
                l.column_by_name(&out.column)?.take(&left_idx)
            } else {
                let src = r.column_by_name(&out.column)?;
                match &right_opt {
                    Some(ro) => src.take_opt(ro),
                    None => src.take(&right_idx),
                }
            };
            fields.push(Field::new(out.name.clone(), col.data_type()));
            columns.push(col);
        }
        Table::new(Schema::new(fields), columns).map_err(Into::into)
    }
}

/// A table's engine-managed weight column (name-insensitive lookup).
fn weight_column(t: &Table) -> Result<&Column> {
    let f = t
        .schema()
        .fields()
        .iter()
        .find(|f| f.name.eq_ignore_ascii_case("weight"))
        .ok_or_else(|| {
            MosaicError::Execution(
                "combined weight output requires a weight column on both join sides".into(),
            )
        })?;
    t.column_by_name(&f.name).map_err(Into::into)
}

/// Gather the *combined* weight column of a weighted×weighted join: the
/// elementwise product of the two sides' correction weights
/// (independence assumption). A NULL weight on either side — or a
/// NULL-extended right row of a LEFT OUTER join — yields NULL.
fn combined_weight_column(
    l: &Table,
    r: &Table,
    left_idx: &[usize],
    right_idx: &[usize],
    right_opt: Option<&[Option<usize>]>,
) -> Result<Column> {
    let lw = weight_column(l)?;
    let rw = weight_column(r)?;
    let n = left_idx.len();
    let mut vals = Vec::with_capacity(n);
    let mut validity = Bitmap::ones(n);
    for i in 0..n {
        let rv = match right_opt {
            Some(ro) => ro[i].and_then(|ri| rw.f64_at(ri)),
            None => rw.f64_at(right_idx[i]),
        };
        match (lw.f64_at(left_idx[i]), rv) {
            (Some(a), Some(b)) => vals.push(a * b),
            _ => {
                vals.push(0.0);
                validity.set(i, false);
            }
        }
    }
    Ok(Column::from_f64_opt(vals, Some(validity)))
}

/// Evaluate a side's key expressions into columns.
fn eval_keys(keys: &[Expr], table: &Table, params: &[Value]) -> Result<Vec<Column>> {
    keys.iter()
        .map(|e| {
            let e = bind_expr(e, params)?;
            super::vector::eval_expr(&e, table)
        })
        .collect()
}

/// Per-row normalized key tokens of one key column, plus the rows whose
/// key is usable (non-NULL, non-NaN). Numeric classes (Int/Float/Bool)
/// share one token space — `sql_cmp` coerces them all through `f64` —
/// while strings dictionary-encode against the build side.
struct TokenCol {
    tokens: Vec<u64>,
    valid: Option<Bitmap>,
}

fn numeric_tokens(col: &Column) -> Option<TokenCol> {
    let (tokens, nan_valid) = match col.data_type() {
        DataType::Int => (kernels::join_keys_i64(col.i64_data()?), None),
        DataType::Float => {
            let (t, v) = kernels::join_keys_f64(col.f64_data()?);
            (t, Some(v))
        }
        DataType::Bool => (kernels::join_keys_bool(col.bool_data()?), None),
        DataType::Str => return None,
    };
    Some(TokenCol {
        tokens,
        valid: kernels::combine_validity(col.validity(), nan_valid.as_ref()),
    })
}

/// Tokenize a string build/probe key pair through the columns' own
/// dictionaries (encoding on the fly when a side is still plain — the
/// single source of truth for string token normalization). Sides sharing
/// one dictionary `Arc` use their codes as tokens directly; otherwise
/// the probe remaps onto the build dictionary once per *distinct* probe
/// value. Strings the build side never saw can't match — their rows
/// become invalid.
fn str_tokens(build: &Column, probe: &Column) -> Option<(TokenCol, TokenCol)> {
    let build = build.dict_encoded();
    let probe = probe.dict_encoded();
    let (bc, bd) = build.dict_parts()?;
    let (pc, pd) = probe.dict_parts()?;
    let bt = TokenCol {
        tokens: bc.iter().map(|&c| c as u64).collect(),
        valid: build.validity().cloned(),
    };
    if Arc::ptr_eq(bd, pd) {
        let pt = TokenCol {
            tokens: pc.iter().map(|&c| c as u64).collect(),
            valid: probe.validity().cloned(),
        };
        return Some((bt, pt));
    }
    let remap: Vec<Option<u32>> = pd.values().iter().map(|s| bd.code_of(s)).collect();
    let mut pt = Vec::with_capacity(pc.len());
    let mut pvalid = Bitmap::ones(pc.len());
    for (i, &c) in pc.iter().enumerate() {
        match remap[c as usize] {
            Some(t) => pt.push(t as u64),
            None => {
                pt.push(0);
                pvalid.set(i, false);
            }
        }
    }
    Some((
        bt,
        TokenCol {
            tokens: pt,
            valid: kernels::combine_validity(probe.validity(), Some(&pvalid)),
        },
    ))
}

/// Hash-join two tokenized key sets: radix-partitioned parallel build
/// over `build_keys` (serial below one morsel), morsel-parallel probe
/// over `probe_keys` with ordered fragment merge. Returns
/// `(build rows, probe rows)` pairs in probe-major order (probe row
/// ascending; build rows ascending within one probe row).
fn join_pairs(
    build_keys: &[Column],
    probe_keys: &[Column],
    threads: usize,
    partitions: usize,
) -> Result<(Vec<usize>, Vec<usize>)> {
    let build_rows = build_keys.first().map_or(0, Column::len);
    let probe_rows = probe_keys.first().map_or(0, Column::len);
    debug_assert_eq!(build_keys.len(), probe_keys.len());

    // Tokenize per key column. A Str/non-Str class mismatch means no
    // pair can ever be sql_cmp-equal: the join is empty.
    let mut build_tok = Vec::with_capacity(build_keys.len());
    let mut probe_tok = Vec::with_capacity(probe_keys.len());
    for (b, p) in build_keys.iter().zip(probe_keys) {
        match (
            b.data_type() == DataType::Str,
            p.data_type() == DataType::Str,
        ) {
            (true, true) => {
                let (bt, pt) = str_tokens(b, p).expect("typed str columns");
                build_tok.push(bt);
                probe_tok.push(pt);
            }
            (false, false) => {
                build_tok.push(numeric_tokens(b).expect("typed numeric column"));
                probe_tok.push(numeric_tokens(p).expect("typed numeric column"));
            }
            _ => return Ok((Vec::new(), Vec::new())),
        }
    }
    // The overwhelmingly common single-key join hashes plain `u64`
    // tokens — no per-row allocation in the build or probe loops;
    // multi-key joins fall back to `Vec<u64>` composite keys.
    if let ([bt], [pt]) = (build_tok.as_slice(), probe_tok.as_slice()) {
        let key_of = |t: &TokenCol, row: usize| -> Option<u64> {
            if t.valid.as_ref().is_some_and(|v| !v.get(row)) {
                return None;
            }
            Some(t.tokens[row])
        };
        return Ok(build_and_probe(
            build_rows,
            probe_rows,
            threads,
            partitions,
            |row| key_of(bt, row),
            |row| key_of(pt, row),
        ));
    }
    let key_of = |toks: &[TokenCol], row: usize| -> Option<Vec<u64>> {
        let mut key = Vec::with_capacity(toks.len());
        for t in toks {
            if t.valid.as_ref().is_some_and(|v| !v.get(row)) {
                return None;
            }
            key.push(t.tokens[row]);
        }
        Some(key)
    };
    Ok(build_and_probe(
        build_rows,
        probe_rows,
        threads,
        partitions,
        |row| key_of(&build_tok, row),
        |row| key_of(&probe_tok, row),
    ))
}

/// Radix-partitioned build + morsel-parallel probe over row-key
/// closures (`None` = unusable key, never matches). A multi-morsel
/// build side is hashed into `partitions` independent tables on the
/// worker pool (single-morsel builds stay serial — partitioning costs
/// more than it saves); each probe key routes to exactly one partition
/// by the same process-wide hash. Per-key build rows stay in ascending
/// row order at every partition count, and probe fragments merge in
/// morsel order, so the pair order is a function of the data alone.
fn build_and_probe<K: Eq + std::hash::Hash + Send + Sync>(
    build_rows: usize,
    probe_rows: usize,
    threads: usize,
    partitions: usize,
    build_key: impl Fn(usize) -> Option<K> + Sync,
    probe_key: impl Fn(usize) -> Option<K> + Sync,
) -> (Vec<usize>, Vec<usize>) {
    // `u16::MAX` is the NULL-key sentinel in `part_of`, so cap there.
    let n_parts = if partitions > 1 && build_rows > MORSEL_ROWS {
        partitions.min(u16::MAX as usize)
    } else {
        1
    };
    // Build: per key, the matching build rows in ascending row order.
    let tables: Vec<FoldMap<K, Vec<u32>>> = if n_parts == 1 {
        let mut table: FoldMap<K, Vec<u32>> = FoldMap::default();
        for row in 0..build_rows {
            if let Some(key) = build_key(row) {
                table.entry(key).or_default().push(row as u32);
            }
        }
        vec![table]
    } else {
        // Phase 1 (morsel-parallel): each build row's partition id.
        let n_bm = build_rows.div_ceil(MORSEL_ROWS);
        let part_chunks: Vec<Vec<u16>> = run_ordered(n_bm, threads, |mi| {
            let start = mi * MORSEL_ROWS;
            let end = (start + MORSEL_ROWS).min(build_rows);
            (start..end)
                .map(|row| match build_key(row) {
                    Some(key) => hash::partition(hash::hash_one(&key), n_parts) as u16,
                    None => u16::MAX,
                })
                .collect()
        });
        let part_of: Vec<u16> = part_chunks.concat();
        // Phase 2 (partition-parallel): independent tables, each
        // inserting its own rows in ascending build-row order.
        run_ordered(n_parts, threads, |pi| {
            let mut table: FoldMap<K, Vec<u32>> = FoldMap::default();
            for (row, &part) in part_of.iter().enumerate() {
                if part == pi as u16 {
                    let key = build_key(row).expect("partitioned rows have keys");
                    table.entry(key).or_default().push(row as u32);
                }
            }
            table
        })
    };
    if tables.iter().all(FoldMap::is_empty) {
        return (Vec::new(), Vec::new());
    }
    let n_morsels = probe_rows.div_ceil(MORSEL_ROWS).max(1);
    let frags: Vec<(Vec<usize>, Vec<usize>)> = run_ordered(n_morsels, threads, |mi| {
        let start = mi * MORSEL_ROWS;
        let end = (start + MORSEL_ROWS).min(probe_rows);
        let mut build_idx = Vec::new();
        let mut probe_idx = Vec::new();
        for row in start..end {
            if let Some(key) = probe_key(row) {
                let table = if n_parts == 1 {
                    &tables[0]
                } else {
                    &tables[hash::partition(hash::hash_one(&key), n_parts)]
                };
                if let Some(rows) = table.get(&key) {
                    for &b in rows {
                        build_idx.push(b as usize);
                        probe_idx.push(row);
                    }
                }
            }
        }
        (build_idx, probe_idx)
    });
    let total: usize = frags.iter().map(|(b, _)| b.len()).sum();
    let mut build_idx = Vec::with_capacity(total);
    let mut probe_idx = Vec::with_capacity(total);
    for (b, pr) in frags {
        build_idx.extend(b);
        probe_idx.extend(pr);
    }
    (build_idx, probe_idx)
}

// ---- the row-at-a-time reference join ----

/// Row-at-a-time reference INNER equi-join — the semantics oracle for
/// [`HashJoinOp`], mirroring what [`crate::oracle::run_select_rowwise`] is to
/// the vectorized executor. Delegates to [`reference_join_kinded`] with
/// `JoinKind::Inner` and no weighted sides.
pub fn reference_join(
    left: &Table,
    left_binding: &str,
    right: &Table,
    right_binding: &str,
    keys: &[(Expr, Expr)],
) -> Result<Table> {
    reference_join_kinded(
        left,
        left_binding,
        right,
        right_binding,
        keys,
        JoinKind::Inner,
        &[],
    )
}

/// Row-at-a-time reference equi-join covering every join semantic the
/// vectorized [`HashJoinOp`] implements: INNER or LEFT OUTER, with
/// optional per-side correction weights.
///
/// A nested loop with the left side outermost: rows join iff every
/// `(left key, right key)` pair is equal under
/// [`Value::sql_cmp`](mosaic_storage::Value::sql_cmp) (NULL and NaN
/// keys never match), output rows appear in (left row, right row)
/// order, and output columns follow the scope naming rule (bare when
/// unique, `binding.column` otherwise). Key expressions are written in
/// each side's own column names.
///
/// A LEFT OUTER join keeps every unmatched left row once, at its left
/// position, NULL-extended on the right. When `weighted` names both
/// sides (`[0, 1]`), the two per-side `weight` columns collapse into
/// one combined `weight` output — the row-wise product of the sides'
/// weights, NULL when either factor is NULL or the right side is
/// NULL-extended.
pub fn reference_join_kinded(
    left: &Table,
    left_binding: &str,
    right: &Table,
    right_binding: &str,
    keys: &[(Expr, Expr)],
    kind: JoinKind,
    weighted: &[usize],
) -> Result<Table> {
    let materialize = |exprs: Vec<&Expr>, table: &Table| -> Result<Vec<Vec<Value>>> {
        exprs
            .into_iter()
            .map(|e| {
                let col = crate::eval::eval_expr_rowwise(e, table)?;
                Ok((0..col.len()).map(|i| col.value(i)).collect())
            })
            .collect()
    };
    let lk = materialize(keys.iter().map(|(l, _)| l).collect(), left)?;
    let rk = materialize(keys.iter().map(|(_, r)| r).collect(), right)?;
    let mut left_idx = Vec::new();
    let mut right_idx: Vec<Option<usize>> = Vec::new();
    for lr in 0..left.num_rows() {
        let mut matched = false;
        for rr in 0..right.num_rows() {
            let all_equal = lk
                .iter()
                .zip(&rk)
                .all(|(lc, rc)| lc[lr].sql_cmp(&rc[rr]) == Some(std::cmp::Ordering::Equal));
            if all_equal {
                left_idx.push(lr);
                right_idx.push(Some(rr));
                matched = true;
            }
        }
        if !matched && kind == JoinKind::LeftOuter {
            left_idx.push(lr);
            right_idx.push(None);
        }
    }
    let combine_weight = weighted.len() > 1;
    let out = output_columns(
        &[
            (left_binding, left.schema().as_ref()),
            (right_binding, right.schema().as_ref()),
        ],
        combine_weight,
    );
    let mut fields = Vec::with_capacity(out.len());
    let mut columns = Vec::with_capacity(out.len());
    for o in &out {
        let col = if o.combined {
            // Row-at-a-time product through `Value`, independent of the
            // vectorized gather.
            let lw = weight_column(left)?;
            let rw = weight_column(right)?;
            let n = left_idx.len();
            let mut vals = Vec::with_capacity(n);
            let mut validity = Bitmap::ones(n);
            for i in 0..n {
                let a = lw.value(left_idx[i]).as_f64();
                let b = right_idx[i].and_then(|ri| rw.value(ri).as_f64());
                match (a, b) {
                    (Some(a), Some(b)) => vals.push(a * b),
                    _ => {
                        vals.push(0.0);
                        validity.set(i, false);
                    }
                }
            }
            Column::from_f64_opt(vals, Some(validity))
        } else if o.source == 0 {
            left.column_by_name(&o.column)?.take(&left_idx)
        } else {
            right.column_by_name(&o.column)?.take_opt(&right_idx)
        };
        fields.push(Field::new(o.name.clone(), col.data_type()));
        columns.push(col);
    }
    Table::new(Schema::new(fields), columns).map_err(Into::into)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_sql::{parse, parse_expr, Statement};
    use mosaic_storage::TableBuilder;

    fn select(src: &str) -> SelectStmt {
        match parse(src).unwrap().pop().unwrap() {
            Statement::Select(s) => s,
            other => panic!("not a select: {other:?}"),
        }
    }

    /// The radix-partitioned build is (a) deterministic — the pair
    /// output is bit-identical at every thread count × partition count
    /// — and (b) really on the pool: the probe side is a single morsel,
    /// which `run_ordered` runs inline without ever touching the worker
    /// gauge, so *any* gauge activity here comes from the build's
    /// partition-map and per-partition phases. Fast tasks can drain
    /// before every spawned worker starts, so only this ≥ 1 lower bound
    /// is deterministic (the 10M-row bench asserts concurrency at
    /// scale).
    #[test]
    fn partitioned_build_spawns_workers_and_matches_serial() {
        use crate::plan::parallel::{reset_worker_thread_peak, worker_thread_peak};
        let build_rows = MORSEL_ROWS + 100;
        let probe_rows = MORSEL_ROWS;
        let bkey = |row: usize| {
            if row.is_multiple_of(50) {
                None // NULL build keys partition nowhere
            } else {
                Some((row % 4096) as u64)
            }
        };
        let pkey = |row: usize| Some((row % 8192) as u64);
        let (b1, p1) = build_and_probe(build_rows, probe_rows, 1, 1, bkey, pkey);
        assert!(!b1.is_empty());
        reset_worker_thread_peak();
        let (b2, p2) = build_and_probe(build_rows, probe_rows, 8, 16, bkey, pkey);
        assert!(
            worker_thread_peak() >= 1,
            "partitioned build never spawned a pool worker (serial fallback?)"
        );
        assert_eq!(b1, b2);
        assert_eq!(p1, p2);
        // Partition count is a pure execution knob: any count, including
        // ones that split hot keys unevenly, yields the same pairs.
        for partitions in [2usize, 7, 64] {
            let (b, p) = build_and_probe(build_rows, probe_rows, 8, partitions, bkey, pkey);
            assert_eq!(b1, b, "{partitions} partitions changed build pairs");
            assert_eq!(p1, p, "{partitions} partitions changed probe pairs");
        }
    }

    /// A single-morsel build side must skip partitioning entirely (the
    /// serial path), whatever the partition knob says.
    #[test]
    fn small_build_side_stays_serial() {
        let bkey = |row: usize| Some(row as u64 % 16);
        let pkey = |row: usize| Some(row as u64 % 32);
        let (b1, p1) = build_and_probe(MORSEL_ROWS, 64, 1, 1, bkey, pkey);
        let (b2, p2) = build_and_probe(MORSEL_ROWS, 64, 8, 16, bkey, pkey);
        assert_eq!(b1, b2);
        assert_eq!(p1, p2);
    }

    fn rel(name: &str, binding: &str, fields: Vec<Field>, weighted: bool) -> ScopeRel {
        ScopeRel {
            name: name.into(),
            binding: binding.into(),
            schema: Schema::new(fields),
            weighted,
        }
    }

    fn flights_carriers() -> Vec<ScopeRel> {
        vec![
            rel(
                "flights",
                "f",
                vec![
                    Field::new("carrier", DataType::Str),
                    Field::new("distance", DataType::Int),
                ],
                false,
            ),
            rel(
                "carriers",
                "c",
                vec![
                    Field::new("code", DataType::Str),
                    Field::new("name", DataType::Str),
                ],
                false,
            ),
        ]
    }

    #[test]
    fn scope_naming_and_resolution() {
        let scope = Scope::new(flights_carriers()).unwrap();
        // All names unique → bare output names.
        assert_eq!(scope.resolve("f.carrier").unwrap().name, "carrier");
        assert_eq!(scope.resolve("name").unwrap().source, 1);
        assert!(scope.resolve("f.name").is_err());
        assert!(scope.resolve("nope").is_err());
        assert!(scope.resolve("x.carrier").is_err());
    }

    #[test]
    fn duplicate_names_qualify_and_bare_is_ambiguous() {
        let rels = vec![
            rel("a", "a", vec![Field::new("k", DataType::Int)], false),
            rel("b", "b", vec![Field::new("k", DataType::Int)], false),
        ];
        let scope = Scope::new(rels).unwrap();
        assert_eq!(scope.resolve("a.k").unwrap().name, "a.k");
        assert_eq!(scope.resolve("b.k").unwrap().name, "b.k");
        let err = scope.resolve("k").unwrap_err();
        assert!(err.to_string().contains("ambiguous"), "{err}");
    }

    #[test]
    fn two_weighted_relations_combine_weight() {
        let rels = vec![
            rel(
                "s1",
                "s1",
                vec![
                    Field::new("a", DataType::Int),
                    Field::new("weight", DataType::Float),
                ],
                true,
            ),
            rel(
                "s2",
                "s2",
                vec![
                    Field::new("b", DataType::Int),
                    Field::new("weight", DataType::Float),
                ],
                true,
            ),
        ];
        let scope = Scope::new(rels).unwrap();
        assert_eq!(scope.weighted_sources(), vec![0, 1]);
        // The two per-side weight columns collapse into one combined
        // `weight` output.
        let weights: Vec<&JoinOutCol> = scope
            .out()
            .iter()
            .filter(|o| o.name.eq_ignore_ascii_case("weight"))
            .collect();
        assert_eq!(weights.len(), 1);
        assert!(weights[0].combined);
        assert_eq!(weights[0].data_type, DataType::Float);
        // Either side's qualified `weight` resolves to the combined
        // column; bare `weight` is unambiguous.
        assert!(scope.resolve("s1.weight").unwrap().combined);
        assert!(scope.resolve("s2.weight").unwrap().combined);
        assert!(scope.resolve("weight").unwrap().combined);
    }

    #[test]
    fn key_extraction_orients_sides() {
        let scope = Scope::new(flights_carriers()).unwrap();
        // Written backwards: right side first.
        let on = parse_expr("c.code = f.carrier").unwrap();
        let keys = extract_keys(&scope, &on).unwrap();
        assert_eq!(keys.len(), 1);
        assert_eq!(keys[0].0, parse_expr("carrier").unwrap());
        assert_eq!(keys[0].1, parse_expr("code").unwrap());
        // Non-equi and single-sided shapes are rejected.
        assert!(extract_keys(&scope, &parse_expr("f.carrier > c.code").unwrap()).is_err());
        assert!(extract_keys(&scope, &parse_expr("f.carrier = f.carrier").unwrap()).is_err());
        assert!(extract_keys(&scope, &parse_expr("f.carrier = 'AA'").unwrap()).is_err());
    }

    #[test]
    fn bind_join_builds_tree_and_rewrites() {
        let stmt = select(
            "SELECT c.name, SUM(f.distance) FROM flights f JOIN carriers c \
             ON f.carrier = c.code WHERE f.distance > 100 GROUP BY c.name",
        );
        let bound = bind_join(&stmt, flights_carriers(), false).unwrap();
        let join = bound.logical.join().expect("join leaf");
        let LogicalPlan::Join { output, .. } = join else {
            unreachable!()
        };
        assert_eq!(output.len(), 4);
        // Rewritten statement speaks output names.
        let w = bound.stmt.where_clause.as_ref().unwrap();
        assert_eq!(w, &parse_expr("distance > 100").unwrap());
        let text = bound.logical.to_string();
        assert!(text.contains("Join[carrier = code]"), "{text}");
    }

    #[test]
    fn push_safety_rules() {
        let ty = |name: &str| -> Option<DataType> {
            match name {
                "i" => Some(DataType::Int),
                "s" => Some(DataType::Str),
                "f" => Some(DataType::Float),
                "b" => Some(DataType::Bool),
                _ => None,
            }
        };
        for (src, safe) in [
            ("i > 3", true),
            ("s = 'x'", true),
            ("b = true", true),
            ("i > 3 AND s != 'y'", true),
            ("NOT i = 2", true),
            ("f IS NOT NULL", true),
            ("f BETWEEN 0 AND 2", true),
            ("f IN (1.5, 2.5)", true),
            ("i IN (1, 2, NULL)", true),
            ("i = NULL", true),
            // Float comparisons can error on NaN: not pushable.
            ("f > 0.5", false),
            // Type-mixed comparisons error: not pushable.
            ("i = 'x'", false),
            ("s < 3", false),
            // Compound operands are not analyzed: not pushable.
            ("i + 1 > 3", false),
            ("unknown > 1", false),
        ] {
            let e = parse_expr(src).unwrap();
            assert_eq!(push_safe(&e, &ty), safe, "{src}");
        }
    }

    fn table(fields: Vec<Field>, rows: Vec<Vec<Value>>) -> Table {
        let mut b = TableBuilder::new(Schema::new(fields));
        for row in rows {
            b.push_row(row).unwrap();
        }
        b.finish()
    }

    #[test]
    fn reference_join_canonical_order_and_null_keys() {
        let left = table(
            vec![
                Field::new("k", DataType::Str),
                Field::new("v", DataType::Int),
            ],
            vec![
                vec!["a".into(), 1.into()],
                vec!["b".into(), 2.into()],
                vec![Value::Null, 3.into()],
                vec!["a".into(), 4.into()],
            ],
        );
        let right = table(
            vec![
                Field::new("code", DataType::Str),
                Field::new("n", DataType::Int),
            ],
            vec![
                vec!["a".into(), 10.into()],
                vec![Value::Null, 20.into()],
                vec!["a".into(), 30.into()],
            ],
        );
        let keys = vec![(parse_expr("k").unwrap(), parse_expr("code").unwrap())];
        let out = reference_join(&left, "l", &right, "r", &keys).unwrap();
        // Rows: (l0,r0), (l0,r2), (l3,r0), (l3,r2) — NULLs never match.
        assert_eq!(out.num_rows(), 4);
        assert_eq!(out.num_columns(), 4);
        let vs: Vec<(Value, Value)> = (0..4).map(|r| (out.value(r, 1), out.value(r, 3))).collect();
        assert_eq!(
            vs,
            vec![
                (1.into(), 10.into()),
                (1.into(), 30.into()),
                (4.into(), 10.into()),
                (4.into(), 30.into()),
            ]
        );
    }

    #[test]
    fn hash_join_matches_reference_both_build_sides() {
        // Small left (build = left, probe = right after the size rule)
        // and the mirrored case both reproduce the reference exactly.
        let mk_left = |n: usize| {
            table(
                vec![
                    Field::new("k", DataType::Int),
                    Field::new("v", DataType::Int),
                ],
                (0..n)
                    .map(|i| {
                        vec![
                            if i % 7 == 0 {
                                Value::Null
                            } else {
                                Value::Int((i % 5) as i64)
                            },
                            Value::Int(i as i64),
                        ]
                    })
                    .collect(),
            )
        };
        let mk_right = |n: usize| {
            table(
                vec![
                    Field::new("code", DataType::Int),
                    Field::new("w", DataType::Int),
                ],
                (0..n)
                    .map(|i| vec![Value::Int((i % 6) as i64), Value::Int(100 + i as i64)])
                    .collect(),
            )
        };
        let keys = vec![(parse_expr("k").unwrap(), parse_expr("code").unwrap())];
        for (ln, rn) in [(30usize, 8usize), (8, 30), (10, 10), (0, 5), (5, 0)] {
            let left = mk_left(ln);
            let right = mk_right(rn);
            for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
                let op = HashJoinOp {
                    left: JoinSide {
                        scan_columns: None,
                        filters: Vec::new(),
                        keys: vec![keys[0].0.clone()],
                    },
                    right: JoinSide {
                        scan_columns: None,
                        filters: Vec::new(),
                        keys: vec![keys[0].1.clone()],
                    },
                    kind,
                    output: output_columns(
                        &[
                            ("l", left.schema().as_ref()),
                            ("r", right.schema().as_ref()),
                        ],
                        false,
                    ),
                };
                let reference =
                    reference_join_kinded(&left, "l", &right, "r", &keys, kind, &[]).unwrap();
                for (threads, partitions) in [(1, 1), (4, 1), (4, 16)] {
                    let out = op
                        .execute(&left, &right, &ExecContext::new(&[], threads, partitions))
                        .unwrap();
                    assert_eq!(out.num_rows(), reference.num_rows(), "{kind} {ln}x{rn}");
                    for r in 0..out.num_rows() {
                        for c in 0..out.num_columns() {
                            assert_eq!(
                                out.value(r, c),
                                reference.value(r, c),
                                "{kind} {ln}x{rn} cell ({r},{c}) at {threads} threads"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn left_outer_null_extends_and_keeps_order() {
        let left = table(
            vec![
                Field::new("k", DataType::Int),
                Field::new("v", DataType::Int),
            ],
            vec![
                vec![1.into(), 10.into()],
                vec![Value::Null, 20.into()],
                vec![3.into(), 30.into()],
                vec![1.into(), 40.into()],
            ],
        );
        let right = table(
            vec![
                Field::new("code", DataType::Int),
                Field::new("n", DataType::Int),
            ],
            vec![vec![1.into(), 100.into()], vec![1.into(), 200.into()]],
        );
        let keys = vec![(parse_expr("k").unwrap(), parse_expr("code").unwrap())];
        let op = HashJoinOp {
            left: JoinSide {
                scan_columns: None,
                filters: Vec::new(),
                keys: vec![keys[0].0.clone()],
            },
            right: JoinSide {
                scan_columns: None,
                filters: Vec::new(),
                keys: vec![keys[0].1.clone()],
            },
            kind: JoinKind::LeftOuter,
            output: output_columns(
                &[
                    ("l", left.schema().as_ref()),
                    ("r", right.schema().as_ref()),
                ],
                false,
            ),
        };
        let out = op
            .execute(&left, &right, &ExecContext::new(&[], 2, 16))
            .unwrap();
        // l0 matches r0,r1; l1 (NULL key) and l2 are NULL-extended at
        // their left positions; l3 matches r0,r1 again.
        assert_eq!(out.num_rows(), 6);
        let rows: Vec<(Value, Value)> =
            (0..6).map(|r| (out.value(r, 1), out.value(r, 3))).collect();
        assert_eq!(
            rows,
            vec![
                (10.into(), 100.into()),
                (10.into(), 200.into()),
                (20.into(), Value::Null),
                (30.into(), Value::Null),
                (40.into(), 100.into()),
                (40.into(), 200.into()),
            ]
        );
        let reference =
            reference_join_kinded(&left, "l", &right, "r", &keys, JoinKind::LeftOuter, &[])
                .unwrap();
        assert_eq!(out.num_rows(), reference.num_rows());
        for r in 0..out.num_rows() {
            for c in 0..out.num_columns() {
                assert_eq!(out.value(r, c), reference.value(r, c), "cell ({r},{c})");
            }
        }
    }

    #[test]
    fn combined_weight_is_product_and_null_extends() {
        let left = table(
            vec![
                Field::new("k", DataType::Int),
                Field::new("weight", DataType::Float),
            ],
            vec![
                vec![1.into(), 2.0.into()],
                vec![2.into(), 3.0.into()],
                vec![9.into(), 5.0.into()],
            ],
        );
        let right = table(
            vec![
                Field::new("code", DataType::Int),
                Field::new("weight", DataType::Float),
            ],
            vec![vec![1.into(), 10.0.into()], vec![2.into(), 0.5.into()]],
        );
        let keys = vec![(parse_expr("k").unwrap(), parse_expr("code").unwrap())];
        let output = output_columns(
            &[
                ("a", left.schema().as_ref()),
                ("b", right.schema().as_ref()),
            ],
            true,
        );
        // One combined weight column; right's weight emits no output.
        assert_eq!(
            output.iter().filter(|o| o.name == "weight").count(),
            1,
            "{output:?}"
        );
        for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
            let op = HashJoinOp {
                left: JoinSide {
                    scan_columns: None,
                    filters: Vec::new(),
                    keys: vec![keys[0].0.clone()],
                },
                right: JoinSide {
                    scan_columns: None,
                    filters: Vec::new(),
                    keys: vec![keys[0].1.clone()],
                },
                kind,
                output: output.clone(),
            };
            let out = op
                .execute(&left, &right, &ExecContext::new(&[], 2, 16))
                .unwrap();
            let w = out.column_by_name("weight").unwrap();
            match kind {
                JoinKind::Inner => {
                    assert_eq!(out.num_rows(), 2);
                    assert_eq!(w.value(0), Value::Float(20.0));
                    assert_eq!(w.value(1), Value::Float(1.5));
                }
                JoinKind::LeftOuter => {
                    // The unmatched left row k=9 gets a NULL combined
                    // weight.
                    assert_eq!(out.num_rows(), 3);
                    assert_eq!(w.value(2), Value::Null);
                }
            }
            let reference =
                reference_join_kinded(&left, "a", &right, "b", &keys, kind, &[0, 1]).unwrap();
            assert_eq!(out.num_rows(), reference.num_rows());
            for r in 0..out.num_rows() {
                for c in 0..out.num_columns() {
                    assert_eq!(out.value(r, c), reference.value(r, c), "{kind} ({r},{c})");
                }
            }
        }
    }

    #[test]
    fn cross_type_keys_follow_sql_cmp() {
        // Int keys join Float keys through f64 coercion; strings never
        // match numbers.
        let left = table(
            vec![Field::new("k", DataType::Int)],
            vec![vec![1.into()], vec![2.into()]],
        );
        let right = table(
            vec![Field::new("code", DataType::Float)],
            vec![vec![1.0.into()], vec![2.5.into()]],
        );
        let keys = vec![(parse_expr("k").unwrap(), parse_expr("code").unwrap())];
        let op = HashJoinOp {
            left: JoinSide {
                scan_columns: None,
                filters: Vec::new(),
                keys: vec![keys[0].0.clone()],
            },
            right: JoinSide {
                scan_columns: None,
                filters: Vec::new(),
                keys: vec![keys[0].1.clone()],
            },
            kind: JoinKind::Inner,
            output: output_columns(
                &[
                    ("l", left.schema().as_ref()),
                    ("r", right.schema().as_ref()),
                ],
                false,
            ),
        };
        let out = op
            .execute(&left, &right, &ExecContext::new(&[], 1, 1))
            .unwrap();
        let reference = reference_join(&left, "l", &right, "r", &keys).unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.num_rows(), reference.num_rows());
        assert_eq!(out.value(0, 0), Value::Int(1));

        let right_str = table(
            vec![Field::new("code", DataType::Str)],
            vec![vec!["1".into()]],
        );
        let op2 = HashJoinOp {
            output: output_columns(
                &[
                    ("l", left.schema().as_ref()),
                    ("r", right_str.schema().as_ref()),
                ],
                false,
            ),
            ..op
        };
        assert_eq!(
            op2.execute(&left, &right_str, &ExecContext::new(&[], 1, 1))
                .unwrap()
                .num_rows(),
            0
        );
    }
}
