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
//!   probes the larger one morsel by morsel, in canonical order when it
//!   probes the left side and restored by a counting sort otherwise, so
//!   results are bit-identical at every thread count. An unmatched left
//!   row of a LEFT OUTER join appears at its left position.
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
use mosaic_storage::{kernels, Bitmap, Column, DataType, Dictionary, Field, Schema, Table, Value};
use parking_lot::Mutex;

use super::aggregate::Ranked;
use super::hash::{self, FoldMap};
use super::logical::{JoinOutCol, LogicalPlan};
use super::parallel::{first_error, prune_scan, run_ordered, MORSEL_ROWS};
use super::{bind_expr, ExecContext, FilterOp};
use crate::eval::{check_select, comparable, expr_type};
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
    /// ORDER BY keys resolve the way the projection names its output: a
    /// name matching a SELECT item's output name (its alias or written
    /// spelling, e.g. `t.k`) stays untouched — sort keys resolve against
    /// the projection output first at execution, exactly like the
    /// single-relation path, and an aggregate's output keeps that name.
    /// Any other name is rewritten like the rest of the statement.
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
                if item_names.iter().any(|n| n.eq_ignore_ascii_case(name)) {
                    // A projection output name: leave it for the sort to
                    // resolve against the output table.
                    Ok(name.to_string())
                } else {
                    Ok(self.resolve(name)?.name.clone())
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
    check_select(&rewritten, &|c| {
        scope
            .out()
            .iter()
            .find(|o| o.name.eq_ignore_ascii_case(c))
            .map(|o| o.data_type)
            .ok_or_else(|| MosaicError::Bind(format!("unknown column {c} in the join's output")))
    })?;
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
                 conjunction of `left = right` equalities, found {conj}"
            )));
        };
        let ls = sole_source(scope, left)?;
        let rs = sole_source(scope, right)?;
        let (l, r): (&Expr, &Expr) = match (ls, rs) {
            (Some(0), Some(1)) => (left, right),
            (Some(1), Some(0)) => (right, left),
            _ => {
                return Err(MosaicError::Unsupported(format!(
                    "each side of the join equality {left} = {right} must reference exactly \
                     one relation, one per side"
                )))
            }
        };
        let (l, r) = (
            scope.rewrite_for_source(l, 0)?,
            scope.rewrite_for_source(r, 1)?,
        );
        let side_type = |source: usize, e: &Expr| {
            let schema = &scope.rels[source].schema;
            expr_type(e, &|c| Ok(schema.field_by_name(c)?.data_type), false)
        };
        comparable(&l, side_type(0, &l)?, &r, side_type(1, &r)?)?;
        keys.push((l, r));
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
/// The binder has already rejected every ill-typed comparison, so the
/// one evaluation error left is a comparison meeting a NaN. Safe shapes
/// (operands restricted to bare columns and literals, whose evaluation
/// cannot fail):
/// * comparisons with no FLOAT-column operand (a Float column may hold
///   a NaN);
/// * `IS [NOT] NULL`, `[NOT] IN (literals…)` and `[NOT] BETWEEN
///   literals`, which never error: a NaN matches no IN item and makes
///   BETWEEN NULL;
/// * AND / OR / NOT combinations of safe conjuncts.
pub(crate) fn push_safe(e: &Expr, ty: &impl Fn(&str) -> Option<DataType>) -> bool {
    /// Bare column or literal: evaluation itself cannot fail.
    fn simple(e: &Expr) -> bool {
        matches!(e, Expr::Column(_) | Expr::Literal(_))
    }
    // A comparison operand that never holds a NaN: a literal or a
    // column of a known, non-FLOAT type.
    let nan_free = |e: &Expr| match e {
        Expr::Literal(_) => true,
        Expr::Column(name) => ty(name).is_some_and(|t| t != DataType::Float),
        _ => false,
    };
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
        } => nan_free(left) && nan_free(right),
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
#[derive(Clone)]
pub struct JoinSide {
    /// Columns the side's scan keeps (`None` = all).
    pub scan_columns: Option<Vec<String>>,
    /// Pushed-down filters, applied before the join.
    pub filters: Vec<FilterOp>,
    /// This side's equi-join key expressions.
    pub keys: Vec<Expr>,
}

/// The right row of a NULL-extended LEFT OUTER pair in a [`Fragment`].
const NULL_ROW: u32 = u32::MAX;

/// A run of the joined pair sequence: the left and right row of each
/// (left row, right row) pair, as row indices into the two tables of a
/// [`JoinedRows`]; [`NULL_ROW`] on the right marks a NULL-extended row.
#[derive(Default)]
struct Fragment {
    left: Vec<u32>,
    right: Vec<u32>,
}

/// Build on the strictly smaller input; ties build the right side, so
/// the probe walks the left side and emits canonical left-major order
/// directly. `EXPLAIN` reports the same choice.
pub(crate) fn build_is_left(left_rows: usize, right_rows: usize) -> bool {
    left_rows < right_rows
}

/// The radix-partition count of a hashed build side of `rows` rows: the
/// `partitions` knob when the side spans more than one morsel, else 1 —
/// a serial build, since partitioning a small side costs more than it
/// saves. Capped at `u16::MAX`, the NULL-key sentinel of the partition
/// map.
pub(crate) fn build_partitions(rows: usize, partitions: usize) -> usize {
    if partitions > 1 && rows > MORSEL_ROWS {
        partitions.min(u16::MAX as usize)
    } else {
        1
    }
}

/// How a join indexes its build side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BuildStrategy {
    /// One TEXT key whose build dictionary passes [`hash::dense_fits`]:
    /// a table of the build rows grouped by dictionary code, one slot
    /// per code. Nothing hashes, in the build or in the probe.
    Direct { slots: usize },
    /// Hash tables over normalized key tokens, in this many radix
    /// partitions (see [`build_partitions`]).
    Hashed { partitions: usize },
}

impl std::fmt::Display for BuildStrategy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            BuildStrategy::Direct { slots } => {
                write!(f, "direct-indexed on dictionary codes ({slots} slots)")
            }
            BuildStrategy::Hashed { partitions: 1 } => {
                write!(f, "1 radix partition(s) (serial build)")
            }
            BuildStrategy::Hashed { partitions } => {
                write!(f, "{partitions} radix partition(s) on the worker pool")
            }
        }
    }
}

/// The one gate for a join's build table, which the executor and
/// `EXPLAIN`'s `join build:` line both call. `dict_len` is the size of
/// the build key's dictionary when the join has a single TEXT key
/// (`None` otherwise), `rows` the build side's row count. The gate
/// weighs the dictionary against the build rows: a dictionary shared
/// with a large table can be far larger than a filtered build side.
pub(crate) fn build_strategy(
    dict_len: Option<usize>,
    rows: usize,
    partitions: usize,
) -> BuildStrategy {
    match dict_len {
        Some(slots) if hash::dense_fits(slots as u128 + 1, rows) => BuildStrategy::Direct { slots },
        _ => BuildStrategy::Hashed {
            partitions: build_partitions(rows, partitions),
        },
    }
}

/// The vectorized hash equi-join stage of a physical plan (INNER or
/// LEFT OUTER) — the morsel source of a join plan.
///
/// Execution ([`HashJoinOp::execute`]): both inputs are pruned, and
/// their pushed-down filters run per morsel on the worker pool. The
/// **smaller** side (counted after its filters) is gathered and indexed
/// as [`build_strategy`] decides. A single TEXT key over a dictionary
/// small enough for the build side is direct-indexed: the build rows
/// grouped by dictionary code, each probe row a code load, a slot load
/// and the pushes. Any other key builds hash tables keyed on normalized
/// key tokens (see `mosaic_storage::kernels::join_key_f64`) — a build
/// side spanning more than one morsel radix-partitions its keys into P
/// independent tables built in parallel (P = the engine's partition
/// knob), a smaller build stays one serial table. The larger side is
/// then probed morsel by morsel on the pool, each probe key routed to
/// its key-hash partition, and every probe morsel yields one `Fragment`
/// of (left row, right row) pairs. Probing the left side, the fragments
/// already follow the canonical (left row, right row) order and a LEFT
/// OUTER join NULL-extends unmatched rows in place; probing the right
/// side, one stable counting sort by left row restores it. Nothing is gathered
/// here: the morsel driver gathers the output columns per joined morsel
/// ([`JoinedRows::gather`]). Results are bit-identical at every thread
/// count *and every partition count*.
#[derive(Clone)]
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

/// One join input after scan pruning and its pushed-down filters.
struct Input {
    /// The pruned scan.
    table: Table,
    /// Per morsel of `table`, the morsel-local rows every pushed filter
    /// keeps (`None`: the side has no filters and keeps every row).
    kept: Option<Vec<Vec<u32>>>,
}

impl Input {
    /// Rows surviving the filters.
    fn rows(&self) -> usize {
        match &self.kept {
            Some(kept) => kept.iter().map(Vec::len).sum(),
            None => self.table.num_rows(),
        }
    }

    /// The surviving rows as one table (the build side).
    fn materialize(&self) -> Table {
        let Some(kept) = &self.kept else {
            return self.table.clone();
        };
        let rows: Vec<usize> = kept
            .iter()
            .enumerate()
            .flat_map(|(mi, k)| k.iter().map(move |&r| mi * MORSEL_ROWS + r as usize))
            .collect();
        self.table.take(&rows)
    }
}

impl HashJoinOp {
    /// One-line description for `EXPLAIN`.
    pub fn describe(&self) -> String {
        let keys: Vec<String> = self
            .left
            .keys
            .iter()
            .zip(&self.right.keys)
            .map(|(l, r)| format!("{l} = {r}"))
            .collect();
        let out: Vec<&str> = self.output.iter().map(|o| o.name.as_str()).collect();
        let kind = match self.kind {
            JoinKind::Inner => "",
            JoinKind::LeftOuter => " LEFT OUTER",
        };
        format!(
            "HashJoin:{kind} keys [{}], output [{}] (build = smaller input; pushed filters, \
             probe and output gather per morsel)",
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

    /// Execute the join: the canonical (left row, right row) pair
    /// sequence, ready to be gathered morsel by morsel. `ctx.partitions`
    /// caps the radix partitioning of a multi-morsel build side (1 =
    /// serial build); like the thread cap it never changes results.
    ///
    /// Errors surface in the order a whole-table pass raises them: the
    /// left side's pushed filters, the right side's, then the left keys
    /// and the right keys — within a stage, the lowest failing morsel.
    pub fn execute(
        &self,
        left: &Table,
        right: &Table,
        ctx: &ExecContext<'_>,
    ) -> Result<JoinedRows> {
        let [l, r] = self.filter_inputs(left, right, ctx)?;
        let build_is_left = build_is_left(l.rows(), r.rows());
        let (build, probe, build_side, probe_side) = if build_is_left {
            (l, r, &self.left, &self.right)
        } else {
            (r, l, &self.right, &self.left)
        };
        let build_table = build.materialize();
        if build_table.num_rows().max(probe.table.num_rows()) >= NULL_ROW as usize {
            return Err(MosaicError::Unsupported(format!(
                "join inputs are limited to {NULL_ROW} rows"
            )));
        }
        let hashed = match eval_keys(&build_side.keys, &build_table, ctx.params) {
            Ok(keys) => Ok(HashBuild::new(&keys, ctx.threads, ctx.partitions)),
            Err((_, e)) => Err(e),
        };
        // Left keys evaluate before right keys: a failing left build
        // side wins over any probe error, a failing right one only when
        // no left (probe) key fails.
        let hashed = match hashed {
            Err(e) if build_is_left => return Err(e),
            hashed => hashed,
        };
        let outer = self.kind == JoinKind::LeftOuter;
        let probed = hashed.as_ref().ok();
        let frags = probe_morsels(&probe, probe_side, probed, build_is_left, outer, ctx)?;
        hashed?;
        let (left, right, frags) = if build_is_left {
            let frags = vec![left_major(frags, build_table.num_rows(), outer)];
            (build_table, probe.table, frags)
        } else {
            (probe.table, build_table, frags)
        };
        JoinedRows::new(left, right, &self.output, frags)
    }

    /// Prune both inputs and run their pushed filters, one task per
    /// morsel of each filtered side on the worker pool.
    fn filter_inputs(
        &self,
        left: &Table,
        right: &Table,
        ctx: &ExecContext<'_>,
    ) -> Result<[Input; 2]> {
        let sides = [&self.left, &self.right];
        let prune = |side: &JoinSide, table: &Table| match &side.scan_columns {
            Some(cols) => prune_scan(table, cols),
            None => Ok(table.clone()),
        };
        let tables = [prune(&self.left, left)?, prune(&self.right, right)?];
        let morsels = tables
            .each_ref()
            .map(|t| t.num_rows().div_ceil(MORSEL_ROWS).max(1));
        let tasks: Vec<(usize, usize)> = (0..2)
            .filter(|&s| !sides[s].filters.is_empty())
            .flat_map(|s| (0..morsels[s]).map(move |mi| (s, mi)))
            .collect();
        // Stage ranks: the left filters, then the right ones.
        let first_rank = [0, self.left.filters.len() as u32];
        let kept = run_ordered(tasks.len(), ctx.threads, |ti| {
            let (s, mi) = tasks[ti];
            filter_morsel(&tables[s], mi, &sides[s].filters, ctx.params)
                .map_err(|(rank, e)| (first_rank[s] + rank, e))
        });
        let mut kept = first_error(kept)?.into_iter();
        let mut input = |s: usize, table: Table| Input {
            kept: (!sides[s].filters.is_empty()).then(|| kept.by_ref().take(morsels[s]).collect()),
            table,
        };
        let [l, r] = tables;
        Ok([input(0, l), input(1, r)])
    }
}

/// The morsel-local rows of morsel `mi` that every filter keeps. Filter
/// `i` fails with stage rank `i`.
fn filter_morsel(
    table: &Table,
    mi: usize,
    filters: &[FilterOp],
    params: &[Value],
) -> Ranked<Vec<u32>> {
    let start = mi * MORSEL_ROWS;
    let len = MORSEL_ROWS.min(table.num_rows() - start);
    let mut morsel = table.slice(start, len);
    let mut rows: Vec<u32> = (0..len as u32).collect();
    for (fi, f) in filters.iter().enumerate() {
        let idx = f.selection(params, &morsel).map_err(|e| (fi as u32, e))?;
        rows = idx.iter().map(|&i| rows[i]).collect();
        if fi + 1 < filters.len() {
            morsel = morsel.take(&idx);
        }
    }
    Ok(rows)
}

/// Probe every morsel of `input` against `build` on the worker pool: one
/// fragment per probe morsel, in morsel order. Pairs are (probe row,
/// build row) when the probe side is the left one — canonical order, a
/// LEFT OUTER join NULL-extending unmatched probe rows in place — and
/// (build row, probe row) in probe-major order otherwise. Probe rows are
/// rows of `input.table`; build rows index the build table. With no
/// `build` (its keys failed) the morsels only evaluate their keys, so a
/// probe key error that precedes the build's still surfaces.
fn probe_morsels(
    input: &Input,
    side: &JoinSide,
    build: Option<&HashBuild>,
    build_is_left: bool,
    outer: bool,
    ctx: &ExecContext<'_>,
) -> Result<Vec<Fragment>> {
    let key_columns: Vec<String> = side
        .keys
        .iter()
        .flat_map(Expr::referenced_columns)
        .collect();
    let n = input.table.num_rows();
    let frags = run_ordered(n.div_ceil(MORSEL_ROWS).max(1), ctx.threads, |mi| {
        let start = mi * MORSEL_ROWS;
        let morsel = input.table.slice(start, MORSEL_ROWS.min(n - start));
        let kept = input.kept.as_ref().map(|k| k[mi].as_slice());
        // Keys evaluate over the surviving rows only, as a whole-table
        // pass over the filtered side would.
        let morsel = match kept {
            Some(kept) => {
                let rows: Vec<usize> = kept.iter().map(|&r| r as usize).collect();
                prune_scan(&morsel, &key_columns)
                    .map_err(|e| (0, e))?
                    .take(&rows)
            }
            None => morsel,
        };
        let keys = eval_keys(&side.keys, &morsel, ctx.params)?;
        let Some(build) = build else {
            return Ok(Fragment::default());
        };
        let mut out = Emit {
            frag: Fragment {
                left: Vec::with_capacity(morsel.num_rows()),
                right: Vec::with_capacity(morsel.num_rows()),
            },
            rows: morsel.num_rows(),
            row_of: |j: usize| (start + kept.map_or(j, |k| k[j] as usize)) as u32,
            build_is_left,
            outer,
        };
        build.probe(&keys, &mut out);
        Ok(out.frag)
    });
    first_error(frags)
}

/// One probe morsel's output: its rows' pairs go into `frag`.
struct Emit<R> {
    frag: Fragment,
    /// The morsel's row count.
    rows: usize,
    /// Probe row `j` of the morsel as a row of the probe input.
    row_of: R,
    build_is_left: bool,
    outer: bool,
}

impl<R: Fn(usize) -> u32> Emit<R> {
    /// Emit every probe row's pairs with the build rows `matches` gives
    /// it (ascending). Pairs are (probe row, build row) when the probe
    /// side is the left one — a LEFT OUTER join NULL-extending an
    /// unmatched probe row in place — and (build row, probe row)
    /// otherwise. A single match, the common case, pushes two words.
    fn pairs<'b>(&mut self, matches: impl Fn(usize) -> &'b [u32]) {
        let frag = &mut self.frag;
        for j in 0..self.rows {
            let row = (self.row_of)(j);
            let m = matches(j);
            match (m, self.build_is_left) {
                ([b], true) => {
                    frag.left.push(*b);
                    frag.right.push(row);
                }
                ([b], false) => {
                    frag.left.push(row);
                    frag.right.push(*b);
                }
                ([], false) if self.outer => {
                    frag.left.push(row);
                    frag.right.push(NULL_ROW);
                }
                (m, true) => {
                    frag.left.extend_from_slice(m);
                    frag.right.extend(std::iter::repeat_n(row, m.len()));
                }
                (m, false) => {
                    frag.left.extend(std::iter::repeat_n(row, m.len()));
                    frag.right.extend_from_slice(m);
                }
            }
        }
    }
}

/// Canonical (left row, right row) order for pairs probed on the right
/// side: one stable counting sort of the probe-major fragments by left
/// row. Within a left row the right rows keep their probe order, which
/// ascends. A LEFT OUTER join gives every unmatched left row one
/// NULL-extended slot at its position.
fn left_major(frags: Vec<Fragment>, left_rows: usize, outer: bool) -> Fragment {
    let mut start = vec![0usize; left_rows + 1];
    for f in &frags {
        for &l in &f.left {
            start[l as usize + 1] += 1;
        }
    }
    if outer {
        for slots in &mut start[1..] {
            *slots = (*slots).max(1);
        }
    }
    for l in 0..left_rows {
        start[l + 1] += start[l];
    }
    let total = start[left_rows];
    let mut out = Fragment {
        left: Vec::with_capacity(total),
        right: vec![NULL_ROW; total],
    };
    for l in 0..left_rows {
        out.left.resize(start[l + 1], l as u32);
    }
    for f in frags {
        for (&l, &r) in f.left.iter().zip(&f.right) {
            let at = &mut start[l as usize];
            out.right[*at] = r;
            *at += 1;
        }
    }
    out
}

/// Where one output column of a join gathers from.
enum OutSource {
    Left(usize),
    Right(usize),
    /// The product of the two sides' weight columns.
    Combined {
        left: usize,
        right: usize,
    },
}

/// The output of [`HashJoinOp::execute`]: the canonical (left row, right
/// row) pair sequence as fragments over the two tables the pairs index.
/// No output column exists until [`JoinedRows::gather`] builds one for a
/// range of joined rows — the morsel driver asks for one morsel at a
/// time, so a join never holds its whole output.
pub struct JoinedRows {
    left: Table,
    right: Table,
    sources: Vec<OutSource>,
    schema: Arc<Schema>,
    frags: Vec<Fragment>,
    /// `starts[i]` is the first joined row of `frags[i]`; the last entry
    /// is the joined row count.
    starts: Vec<usize>,
    /// A replacement for one output column (by position): the
    /// re-calibrated combined weight.
    weight: Option<(usize, Column)>,
}

impl JoinedRows {
    fn new(
        left: Table,
        right: Table,
        output: &[JoinOutCol],
        frags: Vec<Fragment>,
    ) -> Result<JoinedRows> {
        let mut sources = Vec::with_capacity(output.len());
        let mut fields = Vec::with_capacity(output.len());
        for o in output {
            let (source, data_type) = if o.combined {
                let source = OutSource::Combined {
                    left: weight_index(&left)?,
                    right: weight_index(&right)?,
                };
                (source, DataType::Float)
            } else if o.source == 0 {
                let c = left.schema().index_of(&o.column)?;
                (OutSource::Left(c), left.column(c).data_type())
            } else {
                let c = right.schema().index_of(&o.column)?;
                (OutSource::Right(c), right.column(c).data_type())
            };
            sources.push(source);
            fields.push(Field::new(o.name.clone(), data_type));
        }
        let mut starts = Vec::with_capacity(frags.len() + 1);
        starts.push(0);
        for f in &frags {
            starts.push(starts[starts.len() - 1] + f.left.len());
        }
        Ok(JoinedRows {
            left,
            right,
            sources,
            schema: Schema::new(fields),
            frags,
            starts,
            weight: None,
        })
    }

    /// The joined row count.
    pub fn num_rows(&self) -> usize {
        self.starts[self.starts.len() - 1]
    }

    /// The output schema: one field per join output column.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Replace the output column named `weight` (the combined weight of
    /// a weighted×weighted join) with `column`, one value per joined row.
    pub fn replace_weight(&mut self, column: Column) -> Result<()> {
        super::parallel::weight_length(column.len(), self.num_rows())?;
        let at = self.schema.index_of("weight")?;
        self.weight = Some((at, column));
        Ok(())
    }

    /// Gather the output columns of joined rows `rows` (a range of the
    /// canonical pair sequence) into a table. Only these rows and only
    /// the join's output columns are materialized.
    pub fn gather(&self, rows: std::ops::Range<usize>) -> Result<Table> {
        let null = NULL_ROW as usize;
        let mut left = Vec::with_capacity(rows.len());
        let mut right = Vec::with_capacity(rows.len());
        // The last fragment starting at or before `rows.start` holds it.
        let mut f = self.starts.partition_point(|&s| s <= rows.start) - 1;
        let mut at = rows.start;
        while at < rows.end {
            let frag = &self.frags[f];
            let lo = at - self.starts[f];
            let hi = (rows.end - self.starts[f]).min(frag.left.len());
            left.extend(frag.left[lo..hi].iter().map(|&r| r as usize));
            right.extend(frag.right[lo..hi].iter().map(|&r| r as usize));
            at += hi - lo;
            f += 1;
        }
        // Consecutive left rows (each probe row matched once) gather as a
        // zero-copy slice; only LEFT OUTER output has NULL-extended rows.
        let run = left
            .first()
            .filter(|&&first| left.iter().enumerate().all(|(i, &l)| l == first + i));
        let right_opt: Option<Vec<Option<usize>>> = right
            .contains(&null)
            .then(|| right.iter().map(|&r| (r != null).then_some(r)).collect());
        let columns = self
            .sources
            .iter()
            .enumerate()
            .map(|(c, source)| match (source, &self.weight) {
                (_, Some((w, column))) if *w == c => column.slice(rows.start, rows.len()),
                (OutSource::Left(i), _) => match run {
                    Some(&first) => self.left.column(*i).slice(first, left.len()),
                    None => self.left.column(*i).take(&left),
                },
                (OutSource::Right(i), _) => match &right_opt {
                    Some(opt) => self.right.column(*i).take_opt(opt),
                    None => self.right.column(*i).take(&right),
                },
                (
                    OutSource::Combined {
                        left: lw,
                        right: rw,
                    },
                    _,
                ) => combined_weight(self.left.column(*lw), self.right.column(*rw), &left, &right),
            })
            .collect();
        Table::new(Arc::clone(&self.schema), columns).map_err(Into::into)
    }
}

/// The position of a table's engine-managed weight column.
fn weight_index(t: &Table) -> Result<usize> {
    t.schema().index_of("weight").map_err(|_| {
        MosaicError::Execution(
            "combined weight output requires a weight column on both join sides".into(),
        )
    })
}

/// The *combined* weight of a weighted×weighted join at the given pairs:
/// the elementwise product of the two sides' correction weights
/// (independence assumption). A NULL weight on either side — or a
/// NULL-extended right row of a LEFT OUTER join — yields NULL.
fn combined_weight(lw: &Column, rw: &Column, left: &[usize], right: &[usize]) -> Column {
    let n = left.len();
    let mut vals = Vec::with_capacity(n);
    let mut validity = Bitmap::ones(n);
    for (i, (&l, &r)) in left.iter().zip(right).enumerate() {
        let b = if r == NULL_ROW as usize {
            None
        } else {
            rw.f64_at(r)
        };
        match (lw.f64_at(l), b) {
            (Some(a), Some(b)) => vals.push(a * b),
            _ => {
                vals.push(0.0);
                validity.set(i, false);
            }
        }
    }
    Column::from_f64_opt(vals, Some(validity))
}

/// Evaluate a side's key expressions into columns; an error carries the
/// failing key's index.
fn eval_keys(keys: &[Expr], table: &Table, params: &[Value]) -> Ranked<Vec<Column>> {
    keys.iter()
        .enumerate()
        .map(|(ki, e)| {
            let rank = ki as u32;
            let e = bind_expr(e, params).map_err(|e| (rank, e))?;
            super::vector::eval_expr(&e, table).map_err(|e| (rank, e))
        })
        .collect()
}

/// Per-row normalized key tokens of one key column, plus the rows whose
/// key is usable (non-NULL, non-NaN). Numeric classes (Int/Float/Bool)
/// share one token space — `sql_cmp` coerces them all through `f64` —
/// while strings use the build side's dictionary codes.
struct TokenCol {
    tokens: Vec<u64>,
    valid: Option<Bitmap>,
}

impl TokenCol {
    fn get(&self, row: usize) -> Option<u64> {
        if self.valid.as_ref().is_some_and(|v| !v.get(row)) {
            return None;
        }
        Some(self.tokens[row])
    }
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

/// A value derived from a probe dictionary, kept for the last probe
/// dictionary seen: the probe derives it once per distinct dictionary,
/// not once per morsel.
struct PerProbeDict<T: ?Sized>(Mutex<Option<(Arc<Dictionary>, Arc<T>)>>);

impl<T: ?Sized> PerProbeDict<T> {
    fn new() -> Self {
        PerProbeDict(Mutex::new(None))
    }

    fn get(&self, pd: &Arc<Dictionary>, derive: impl FnOnce() -> Arc<T>) -> Arc<T> {
        if let Some((seen, value)) = &*self.0.lock() {
            if Arc::ptr_eq(seen, pd) {
                return Arc::clone(value);
            }
        }
        let value = derive();
        *self.0.lock() = Some((Arc::clone(pd), Arc::clone(&value)));
        value
    }
}

/// One build-side key column, tokenized, and the token space the probe
/// side must map into. A string key tokenizes through the build column's
/// own dictionary (encoded on the fly when the column is still plain — the
/// single source of truth for string token normalization).
struct BuildKey {
    tokens: TokenCol,
    /// The dictionary whose codes are the tokens (`None`: numeric key).
    dict: Option<Arc<Dictionary>>,
    /// Per probe code, the build code of the same string, or
    /// `dict.len()` when the build side never saw it.
    remap: PerProbeDict<[u32]>,
}

impl BuildKey {
    fn new(col: &Column) -> BuildKey {
        let (tokens, dict) = if col.data_type() == DataType::Str {
            let col = col.dict_encoded();
            let (codes, dict) = col.dict_parts().expect("dictionary-encoded");
            let tokens = TokenCol {
                tokens: codes.iter().map(|&c| u64::from(c)).collect(),
                valid: col.validity().cloned(),
            };
            (tokens, Some(Arc::clone(dict)))
        } else {
            (numeric_tokens(col).expect("typed numeric column"), None)
        };
        BuildKey {
            tokens,
            dict,
            remap: PerProbeDict::new(),
        }
    }

    /// A probe key column in this key's token space; `None` when the two
    /// sides' classes differ (Str against non-Str), so no pair can be
    /// `sql_cmp`-equal. Strings the build side never saw become invalid
    /// rows: they cannot match.
    fn probe(&self, col: &Column) -> Option<TokenCol> {
        let Some(bd) = &self.dict else {
            return numeric_tokens(col);
        };
        let col = col.dict_encoded();
        let (codes, pd) = col.dict_parts()?;
        if Arc::ptr_eq(bd, pd) {
            return Some(TokenCol {
                tokens: codes.iter().map(|&c| u64::from(c)).collect(),
                valid: col.validity().cloned(),
            });
        }
        let remap = self.remap_for(bd, pd);
        let miss = bd.len() as u32;
        let tokens = codes
            .iter()
            .map(|&c| u64::from(remap[c as usize]))
            .collect();
        let found = Bitmap::from_iter(codes.iter().map(|&c| remap[c as usize] != miss));
        Some(TokenCol {
            tokens,
            valid: kernels::combine_validity(col.validity(), Some(&found)),
        })
    }

    /// Per code of probe dictionary `pd`, the build code of the same
    /// string, or `bd.len()` (no build row has it).
    fn remap_for(&self, bd: &Dictionary, pd: &Arc<Dictionary>) -> Arc<[u32]> {
        let miss = bd.len() as u32;
        self.remap.get(pd, || {
            pd.values()
                .iter()
                .map(|s| bd.code_of(s).unwrap_or(miss))
                .collect()
        })
    }
}

/// The build side: its tokenized keys and the table over them.
struct HashBuild {
    keys: Vec<BuildKey>,
    tables: Tables,
}

/// The build table [`build_strategy`] chose. The overwhelmingly common
/// single-key join hashes plain `u64` tokens — no per-row allocation in
/// the build or probe loops; multi-key joins fall back to `Vec<u64>`
/// composite keys.
enum Tables {
    Direct(CodeTable),
    One(PartitionedMap<u64>),
    Many(PartitionedMap<Vec<u64>>),
}

impl HashBuild {
    fn new(keys: &[Column], threads: usize, partitions: usize) -> HashBuild {
        let keys: Vec<BuildKey> = keys.iter().map(BuildKey::new).collect();
        let rows = keys.first().map_or(0, |k| k.tokens.tokens.len());
        let dict_len = match keys.as_slice() {
            [k] => k.dict.as_ref().map(|d| d.len()),
            _ => None,
        };
        let tables = match (build_strategy(dict_len, rows, partitions), keys.as_slice()) {
            (BuildStrategy::Direct { slots }, [k]) => {
                Tables::Direct(CodeTable::new(&k.tokens, slots))
            }
            (BuildStrategy::Hashed { partitions }, [k]) => {
                Tables::One(PartitionedMap::build(rows, threads, partitions, |row| {
                    k.tokens.get(row)
                }))
            }
            (BuildStrategy::Hashed { partitions }, keys) => {
                Tables::Many(PartitionedMap::build(rows, threads, partitions, |row| {
                    keys.iter().map(|k| k.tokens.get(row)).collect()
                }))
            }
            (BuildStrategy::Direct { .. }, _) => unreachable!("direct builds have one key"),
        };
        HashBuild { keys, tables }
    }

    fn is_empty(&self) -> bool {
        match &self.tables {
            Tables::Direct(t) => t.rows.is_empty(),
            Tables::One(m) => m.is_empty(),
            Tables::Many(m) => m.is_empty(),
        }
    }

    /// Emit the pairs of one probe morsel, whose key columns are `cols`.
    /// A key whose classes differ between the sides (Str against
    /// non-Str) matches nothing.
    fn probe<R: Fn(usize) -> u32>(&self, cols: &[Column], out: &mut Emit<R>) {
        let none = |_: usize| -> &[u32] { &[] };
        if self.is_empty() {
            return out.pairs(none);
        }
        match &self.tables {
            Tables::Direct(t) => {
                let key = &self.keys[0];
                let bd = key
                    .dict
                    .as_ref()
                    .expect("direct builds key on a dictionary");
                let col = cols[0].dict_encoded();
                let Some((codes, pd)) = col.dict_parts() else {
                    return out.pairs(none);
                };
                let runs = t.runs_for(bd, pd, || key.remap_for(bd, pd));
                match col.validity() {
                    None => out.pairs(|j| t.run(runs[codes[j] as usize])),
                    Some(v) => out.pairs(|j| {
                        if v.get(j) {
                            t.run(runs[codes[j] as usize])
                        } else {
                            &[]
                        }
                    }),
                }
            }
            Tables::One(m) => match self.keys[0].probe(&cols[0]) {
                Some(tokens) => out.pairs(|j| tokens.get(j).map_or(&[], |k| m.get(&k))),
                None => out.pairs(none),
            },
            Tables::Many(m) => {
                let tokens: Option<Vec<TokenCol>> = self
                    .keys
                    .iter()
                    .zip(cols)
                    .map(|(k, c)| k.probe(c))
                    .collect();
                match tokens {
                    Some(tokens) => out.pairs(|j| {
                        tokens
                            .iter()
                            .map(|t| t.get(j))
                            .collect::<Option<Vec<u64>>>()
                            .map_or(&[], |k| m.get(&k))
                    }),
                    None => out.pairs(none),
                }
            }
        }
    }
}

/// A direct-indexed build table for one TEXT key: the build rows grouped
/// by dictionary code, ascending within a code (a counting sort), with
/// the run of code `c` at `rows[offsets[c]..offsets[c + 1]]`. Code
/// `slots`, one past the dictionary, has an empty run: every probe value
/// the build side lacks maps there.
struct CodeTable {
    offsets: Vec<u32>,
    rows: Vec<u32>,
    /// Per code of the last probe dictionary, the run of the build code
    /// with the same string: the probe's remap composed with `offsets`.
    runs: PerProbeDict<[(u32, u32)]>,
}

impl CodeTable {
    fn new(key: &TokenCol, slots: usize) -> CodeTable {
        let n = key.tokens.len();
        let code = |row: usize| key.get(row).map(|t| t as usize);
        let mut offsets = vec![0u32; slots + 2];
        for c in (0..n).filter_map(code) {
            offsets[c + 1] += 1;
        }
        for c in 0..=slots {
            offsets[c + 1] += offsets[c];
        }
        let mut next = offsets.clone();
        let mut rows = vec![0u32; offsets[slots + 1] as usize];
        for (row, c) in (0..n).filter_map(|row| code(row).map(|c| (row, c))) {
            rows[next[c] as usize] = row as u32;
            next[c] += 1;
        }
        CodeTable {
            offsets,
            rows,
            runs: PerProbeDict::new(),
        }
    }

    /// Per code of probe dictionary `pd`, the run of build rows holding
    /// the same string. `remap` gives the build code per probe code when
    /// the two dictionaries differ.
    fn runs_for(
        &self,
        bd: &Arc<Dictionary>,
        pd: &Arc<Dictionary>,
        remap: impl FnOnce() -> Arc<[u32]>,
    ) -> Arc<[(u32, u32)]> {
        let run = |c: u32| (self.offsets[c as usize], self.offsets[c as usize + 1]);
        self.runs.get(pd, || {
            if Arc::ptr_eq(bd, pd) {
                (0..bd.len() as u32).map(run).collect()
            } else {
                remap().iter().map(|&c| run(c)).collect()
            }
        })
    }

    #[inline]
    fn run(&self, (lo, hi): (u32, u32)) -> &[u32] {
        &self.rows[lo as usize..hi as usize]
    }
}

/// Per key, the matching build rows in ascending row order, split over
/// one or more key-hash partitions. Each key lives in exactly one
/// partition, chosen by the process-wide hash, so the rows a key maps
/// to — and their order — are the same at every partition count.
struct PartitionedMap<K> {
    parts: Vec<FoldMap<K, Vec<u32>>>,
}

impl<K: Eq + std::hash::Hash + Send + Sync> PartitionedMap<K> {
    /// Hash `rows` build rows (`None` = unusable key, never matches)
    /// into `n_parts` tables. One partition is a serial build; more run
    /// on the worker pool: a morsel-parallel pass assigns each row its
    /// partition, then each partition inserts its rows in ascending row
    /// order.
    fn build(
        rows: usize,
        threads: usize,
        n_parts: usize,
        key: impl Fn(usize) -> Option<K> + Sync,
    ) -> Self {
        if n_parts == 1 {
            let mut table: FoldMap<K, Vec<u32>> = FoldMap::default();
            for row in 0..rows {
                if let Some(k) = key(row) {
                    table.entry(k).or_default().push(row as u32);
                }
            }
            return PartitionedMap { parts: vec![table] };
        }
        let part_chunks: Vec<Vec<u16>> = run_ordered(rows.div_ceil(MORSEL_ROWS), threads, |mi| {
            let start = mi * MORSEL_ROWS;
            (start..(start + MORSEL_ROWS).min(rows))
                .map(|row| match key(row) {
                    Some(k) => hash::partition(hash::hash_one(&k), n_parts) as u16,
                    None => u16::MAX,
                })
                .collect()
        });
        let part_of: Vec<u16> = part_chunks.concat();
        let parts = run_ordered(n_parts, threads, |pi| {
            let mut table: FoldMap<K, Vec<u32>> = FoldMap::default();
            for (row, &part) in part_of.iter().enumerate() {
                if part == pi as u16 {
                    let k = key(row).expect("partitioned rows have keys");
                    table.entry(k).or_default().push(row as u32);
                }
            }
            table
        });
        PartitionedMap { parts }
    }

    fn is_empty(&self) -> bool {
        self.parts.iter().all(FoldMap::is_empty)
    }

    fn get(&self, key: &K) -> &[u32] {
        let part = match self.parts.as_slice() {
            [one] => one,
            parts => &parts[hash::partition(hash::hash_one(key), parts.len())],
        };
        part.get(key).map_or(&[], Vec::as_slice)
    }
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

    /// Hash `build_rows` keys at the given thread budget, partitioned
    /// through the executor's gate, then look every probe key up: the
    /// (build row, probe row) pairs in probe-major order.
    fn pairs(
        build_rows: usize,
        probe_rows: usize,
        threads: usize,
        partitions: usize,
        bkey: impl Fn(usize) -> Option<u64> + Sync,
        pkey: impl Fn(usize) -> Option<u64>,
    ) -> Vec<(u32, usize)> {
        let parts = build_partitions(build_rows, partitions);
        let map = PartitionedMap::build(build_rows, threads, parts, bkey);
        let mut out = Vec::new();
        for row in 0..probe_rows {
            if let Some(k) = pkey(row) {
                out.extend(map.get(&k).iter().map(|&b| (b, row)));
            }
        }
        out
    }

    /// The radix-partitioned build is (a) deterministic — the pair
    /// output is bit-identical at every thread count × partition count
    /// — and (b) really on the pool: the probe here is a serial loop
    /// that never touches the worker gauge, so *any* gauge activity
    /// comes from the build's partition-map and per-partition phases.
    /// Fast tasks can drain before every spawned worker starts, so only
    /// this ≥ 1 lower bound is deterministic (the 10M-row bench asserts
    /// concurrency at scale).
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
        let serial = pairs(build_rows, probe_rows, 1, 1, bkey, pkey);
        assert!(!serial.is_empty());
        reset_worker_thread_peak();
        let parallel = pairs(build_rows, probe_rows, 8, 16, bkey, pkey);
        assert!(
            worker_thread_peak() >= 1,
            "partitioned build never spawned a pool worker (serial fallback?)"
        );
        assert_eq!(serial, parallel);
        // Partition count is a pure execution knob: any count, including
        // ones that split hot keys unevenly, yields the same pairs.
        for partitions in [2usize, 7, 64] {
            let p = pairs(build_rows, probe_rows, 8, partitions, bkey, pkey);
            assert_eq!(serial, p, "{partitions} partitions changed the pairs");
        }
    }

    /// A single-morsel build side must skip partitioning entirely (the
    /// serial path), whatever the partition knob says.
    #[test]
    fn small_build_side_stays_serial() {
        assert_eq!(build_partitions(MORSEL_ROWS, 16), 1);
        assert_eq!(build_partitions(MORSEL_ROWS + 1, 16), 16);
        assert_eq!(build_partitions(MORSEL_ROWS + 1, 1), 1);
        let bkey = |row: usize| Some(row as u64 % 16);
        let pkey = |row: usize| Some(row as u64 % 32);
        assert_eq!(
            pairs(MORSEL_ROWS, 64, 1, 1, bkey, pkey),
            pairs(MORSEL_ROWS, 64, 8, 16, bkey, pkey)
        );
    }

    /// A TEXT key column over `values` (`None` = NULL).
    fn text_key(values: &[Option<&str>]) -> Column {
        let values: Vec<Value> = values
            .iter()
            .map(|v| v.map_or(Value::Null, |s| Value::Str(s.into())))
            .collect();
        Column::from_values(DataType::Str, &values)
            .unwrap()
            .dict_encoded()
    }

    /// The direct-indexed table and the hashed ones (one partition and
    /// sixteen) give every probe row the same build rows: a probe
    /// dictionary other than the build's, values the build side lacks,
    /// NULL keys on both sides, duplicate build keys, each pair order
    /// and LEFT OUTER.
    #[test]
    fn direct_and_hashed_builds_match_alike() {
        let names = ["a", "b", "c", "d", "e"];
        let build: Vec<Option<&str>> = (0..MORSEL_ROWS + 50)
            .map(|r| (r % 9 != 0).then(|| names[(r * 7) % 4]))
            .collect();
        let build = text_key(&build);
        let probe: Vec<Option<&str>> = (0..300)
            .map(|r| (r % 11 != 0).then(|| names[(r * 3) % 5]))
            .collect();
        // The probe side once with a dictionary of its own, once with
        // the build side's.
        let own = text_key(&probe);
        let shared = build.take(&(0..300).collect::<Vec<_>>());
        let key = || BuildKey::new(&build);
        let slots = key().dict.as_ref().unwrap().len();
        let rows = build.len();
        let builds = [
            Tables::Direct(CodeTable::new(&key().tokens, slots)),
            Tables::One(PartitionedMap::build(rows, 1, 1, |r| key().tokens.get(r))),
            Tables::One(PartitionedMap::build(rows, 4, 16, |r| key().tokens.get(r))),
        ];
        let mut answers = Vec::new();
        for tables in builds {
            let build = HashBuild {
                keys: vec![key()],
                tables,
            };
            let mut answer = Vec::new();
            for probe in [&own, &shared] {
                for (build_is_left, outer) in [(false, false), (false, true), (true, false)] {
                    let mut out = Emit {
                        frag: Fragment::default(),
                        rows: probe.len(),
                        row_of: |j: usize| j as u32,
                        build_is_left,
                        outer,
                    };
                    build.probe(std::slice::from_ref(probe), &mut out);
                    answer.push((out.frag.left, out.frag.right));
                }
            }
            answers.push(answer);
        }
        assert!(!answers[0][0].0.is_empty());
        assert_eq!(answers[0], answers[1]);
        assert_eq!(answers[0], answers[2]);
    }

    /// The gate weighs the build dictionary against the build rows.
    #[test]
    fn build_strategy_gate() {
        assert_eq!(
            build_strategy(Some(23), 23, 16),
            BuildStrategy::Direct { slots: 23 }
        );
        assert_eq!(
            build_strategy(Some(1023), 0, 16),
            BuildStrategy::Direct { slots: 1023 }
        );
        assert_eq!(
            build_strategy(Some(1024), 10, 16),
            BuildStrategy::Hashed { partitions: 1 }
        );
        assert_eq!(
            build_strategy(None, MORSEL_ROWS + 1, 16),
            BuildStrategy::Hashed { partitions: 16 }
        );
    }

    /// Run a join and gather every joined row.
    fn run_join(op: &HashJoinOp, left: &Table, right: &Table, ctx: &ExecContext<'_>) -> Table {
        let joined = op.execute(left, right, ctx).unwrap();
        joined.gather(0..joined.num_rows()).unwrap()
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
            // Compound operands are not analyzed: not pushable.
            ("i + 1 > 3", false),
            ("unknown > 1", false),
        ] {
            let e = parse_expr(src).unwrap();
            assert_eq!(push_safe(&e, &ty), safe, "{src}");
        }
        // Type-mixed comparisons, IN lists and BETWEEN bounds never reach
        // the rule: the binder rejects them in a join's WHERE clause.
        let rels = || {
            let fields = ty_fields(&[("i", DataType::Int), ("s", DataType::Str)]);
            let more = ty_fields(&[("f", DataType::Float), ("b", DataType::Bool)]);
            vec![rel("l", "l", fields, false), rel("r", "r", more, false)]
        };
        for cond in [
            "i = 'x'",
            "s < 3",
            "b = 1",
            "s IN (1, 2)",
            "f IN ('a')",
            "i BETWEEN 'a' AND 'b'",
        ] {
            let stmt = select(&format!(
                "SELECT l.i FROM l JOIN r ON l.i = r.f WHERE {cond}"
            ));
            let err = bind_join(&stmt, rels(), false).err().expect(cond);
            assert!(matches!(err, MosaicError::Bind(_)), "{cond}: {err}");
        }
    }

    fn ty_fields(cols: &[(&str, DataType)]) -> Vec<Field> {
        cols.iter().map(|(n, t)| Field::new(*n, *t)).collect()
    }

    fn table(fields: Vec<Field>, rows: Vec<Vec<Value>>) -> Table {
        let mut b = TableBuilder::new(Schema::new(fields));
        for row in rows {
            b.push_row(row).unwrap();
        }
        b.finish()
    }

    /// Every output row of a nested-loop equi-join with the left side
    /// outermost — the canonical order every join must produce: the
    /// left row's values, then the right row's (NULLs for a LEFT OUTER
    /// join's unmatched left row). Rows join iff all their key values
    /// are `sql_cmp`-equal.
    fn nested_loop_rows(
        left: &Table,
        right: &Table,
        keys: &[(&str, &str)],
        kind: JoinKind,
    ) -> Vec<Vec<Value>> {
        let row = |t: &Table, r: usize| -> Vec<Value> {
            (0..t.num_columns()).map(|c| t.value(r, c)).collect()
        };
        let equal = |lr: usize, rr: usize| {
            keys.iter().all(|(lk, rk)| {
                let l = left.column_by_name(lk).unwrap().value(lr);
                let r = right.column_by_name(rk).unwrap().value(rr);
                l.sql_cmp(&r) == Some(std::cmp::Ordering::Equal)
            })
        };
        let mut out = Vec::new();
        for lr in 0..left.num_rows() {
            let matches: Vec<usize> = (0..right.num_rows()).filter(|&rr| equal(lr, rr)).collect();
            for &rr in &matches {
                out.push([row(left, lr), row(right, rr)].concat());
            }
            if matches.is_empty() && kind == JoinKind::LeftOuter {
                out.push([row(left, lr), vec![Value::Null; right.num_columns()]].concat());
            }
        }
        out
    }

    fn rows_of(t: &Table) -> Vec<Vec<Value>> {
        (0..t.num_rows())
            .map(|r| (0..t.num_columns()).map(|c| t.value(r, c)).collect())
            .collect()
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
        let keys = [(parse_expr("k").unwrap(), parse_expr("code").unwrap())];
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
                let reference = nested_loop_rows(&left, &right, &[("k", "code")], kind);
                for (threads, partitions) in [(1, 1), (4, 1), (4, 16)] {
                    let ctx = ExecContext::new(&[], threads, partitions);
                    let out = run_join(&op, &left, &right, &ctx);
                    assert_eq!(
                        rows_of(&out),
                        reference,
                        "{kind} {ln}x{rn} at {threads} threads"
                    );
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
        let keys = [(parse_expr("k").unwrap(), parse_expr("code").unwrap())];
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
        let out = run_join(&op, &left, &right, &ExecContext::new(&[], 2, 16));
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
        assert_eq!(
            rows_of(&out),
            nested_loop_rows(&left, &right, &[("k", "code")], JoinKind::LeftOuter)
        );
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
        let keys = [(parse_expr("k").unwrap(), parse_expr("code").unwrap())];
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
            let out = run_join(&op, &left, &right, &ExecContext::new(&[], 2, 16));
            // Columns: k, the combined weight, code.
            let mut want: Vec<Vec<Value>> = vec![
                vec![1.into(), 20.0.into(), 1.into()],
                vec![2.into(), 1.5.into(), 2.into()],
            ];
            if kind == JoinKind::LeftOuter {
                // The unmatched left row k=9 gets a NULL combined weight.
                want.push(vec![9.into(), Value::Null, Value::Null]);
            }
            assert_eq!(rows_of(&out), want, "{kind}");
        }
    }

    fn side(keys: &[&str], filters: &[&str]) -> JoinSide {
        JoinSide {
            scan_columns: None,
            filters: filters
                .iter()
                .map(|f| FilterOp {
                    predicate: parse_expr(f).unwrap(),
                })
                .collect(),
            keys: keys.iter().map(|k| parse_expr(k).unwrap()).collect(),
        }
    }

    /// Multi-morsel inputs with pushed filters on both sides and a
    /// two-column key: the streamed probe (either side), the per-morsel
    /// filters and the counting sort back to canonical order reproduce
    /// the reference join of the pre-filtered tables, INNER and LEFT
    /// OUTER, at every thread and partition count.
    #[test]
    fn filtered_multi_key_join_matches_reference() {
        let big = 2 * MORSEL_ROWS + 500;
        let mk = |rows: usize, salt: usize| {
            table(
                vec![
                    Field::new("a", DataType::Int),
                    Field::new("b", DataType::Str),
                    Field::new("v", DataType::Int),
                ],
                (0..rows)
                    .map(|r| {
                        vec![
                            Value::Int(((r * 7 + salt) % 13) as i64),
                            if (r + salt).is_multiple_of(17) {
                                Value::Null
                            } else {
                                Value::Str(format!("s{}", (r + salt) % 3))
                            },
                            Value::Int(r as i64),
                        ]
                    })
                    .collect(),
            )
        };
        let keep = |t: &Table, pred: &str| {
            let sel = super::super::vector::eval_predicate(&parse_expr(pred).unwrap(), t).unwrap();
            t.filter(&sel)
        };
        for (ln, rn) in [(big, 300), (300, big)] {
            let (left, right) = (mk(ln, 0), mk(rn, 5));
            let (lf, rf) = ("v % 5 <> 1", "v % 7 <> 2");
            for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
                let op = HashJoinOp {
                    left: side(&["a", "b"], &[lf]),
                    right: side(&["a", "b"], &[rf]),
                    kind,
                    output: output_columns(
                        &[
                            ("l", left.schema().as_ref()),
                            ("r", right.schema().as_ref()),
                        ],
                        false,
                    ),
                };
                let reference = nested_loop_rows(
                    &keep(&left, lf),
                    &keep(&right, rf),
                    &[("a", "a"), ("b", "b")],
                    kind,
                );
                for (threads, partitions) in [(1, 1), (3, 1), (3, 16)] {
                    let ctx = ExecContext::new(&[], threads, partitions);
                    let out = run_join(&op, &left, &right, &ctx);
                    assert_eq!(
                        rows_of(&out),
                        reference,
                        "{kind} {ln}x{rn} at {threads} threads"
                    );
                }
            }
        }
    }

    /// Key errors surface in whole-table order — every left key before
    /// any right key — whichever side the size rule builds on: both keys
    /// are ill-typed here, and the left one's error wins.
    #[test]
    fn key_errors_surface_left_before_right() {
        let mk = |rows: usize, s: &str| {
            table(
                vec![Field::new("k", DataType::Str)],
                (0..rows).map(|_| vec![Value::Str(s.into())]).collect(),
            )
        };
        for (ln, rn) in [(3, MORSEL_ROWS + 9), (MORSEL_ROWS + 9, 3)] {
            let (left, right) = (mk(ln, "lk"), mk(rn, "rk"));
            let op = HashJoinOp {
                left: side(&["k + 1"], &[]),
                right: side(&["k * 2"], &[]),
                kind: JoinKind::Inner,
                output: output_columns(
                    &[
                        ("l", left.schema().as_ref()),
                        ("r", right.schema().as_ref()),
                    ],
                    false,
                ),
            };
            for threads in [1, 4] {
                let err = op
                    .execute(&left, &right, &ExecContext::new(&[], threads, 16))
                    .err()
                    .expect("keys fail");
                assert_eq!(
                    err.to_string(),
                    "bind error: non-numeric operand k (TEXT) of k + 1",
                    "{ln}x{rn}"
                );
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
        let keys = [(parse_expr("k").unwrap(), parse_expr("code").unwrap())];
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
        let out = run_join(&op, &left, &right, &ExecContext::new(&[], 1, 1));
        assert_eq!(rows_of(&out), vec![vec![Value::Int(1), Value::Float(1.0)]]);

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
