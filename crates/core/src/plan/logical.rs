//! The logical-plan IR — the layer between binding and physical
//! lowering.
//!
//! A bound SELECT first becomes a [`LogicalPlan`]: a chain of relational
//! nodes (`Scan → Filter? → Project | Aggregate → Sort? → Limit?`) whose
//! expressions are the statement's own, with the weighted-rewrite
//! property resolved. The rule-based optimizer in
//! [`crate::plan::optimize`] rewrites this IR (pruning scans, folding
//! constants, fusing Sort+Limit into [`LogicalPlan::TopK`]) before
//! [`crate::plan::plan_logical`] lowers it into a [`PhysicalPlan`].
//!
//! Keeping the IR separate from both the AST and the physical operators
//! is what makes future operators (joins, unions, multi-backend routing)
//! one node away: rules speak in relational terms, the executor never
//! sees un-optimized shapes, and `EXPLAIN` can show the plan before and
//! after rewriting.
//!
//! [`PhysicalPlan`]: crate::plan::PhysicalPlan

use std::fmt;

use mosaic_sql::{Expr, JoinKind, SelectItem, SelectStmt};

use super::join_items;

/// A column kept by a pruned scan: the source column's name plus the
/// column id resolved against the source schema at plan time. Execution
/// re-resolves by name (relations can be re-bound between prepare and
/// execute); the id is the plan-time resolution, kept for display and
/// for rules that want positional reasoning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScanColumn {
    /// Source column name (schema casing).
    pub name: String,
    /// Column id in the source schema the plan was bound against.
    pub id: usize,
}

impl fmt::Display for ScanColumn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#{}", self.name, self.id)
    }
}

/// One output column of a [`LogicalPlan::Join`]: the join's output name
/// plus the provenance of the value (which input relation, which source
/// column). Output names follow the scope rule: a column name that is
/// unique across both sides keeps its bare name; a duplicated name is
/// qualified as `binding.column`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinOutCol {
    /// Join output column name.
    pub name: String,
    /// Input relation index (0 = left/base, 1 = joined).
    pub source: usize,
    /// Column name in the source relation's schema.
    pub column: String,
    /// Column index in the source schema the plan was bound against
    /// (plan-time resolution; execution re-resolves by name).
    pub column_id: usize,
    /// Bound column type (drives the pushdown safety check).
    pub data_type: mosaic_storage::DataType,
    /// True for the *combined* `weight` column of a weighted×weighted
    /// join: its value is the elementwise product of both sides' weight
    /// columns (independence assumption), not a gather from one side.
    pub combined: bool,
}

/// A logical query plan: the relational IR a bound SELECT lowers to
/// before optimization. Every node owns its input(s) — a chain for
/// single-relation statements, a tree once a [`LogicalPlan::Join`]
/// replaces the scan leaf.
#[derive(Debug, Clone, PartialEq)]
pub enum LogicalPlan {
    /// Leaf: scan the source relation. `columns: None` reads every
    /// column; `Some(cols)` is a pruned scan that materializes only the
    /// referenced columns (the projection-pruning rule's output).
    Scan {
        /// Which bound relation this scan reads (0 for single-relation
        /// statements; join inputs index the FROM clause's relations).
        source: usize,
        /// Columns the scan keeps (`None` = all).
        columns: Option<Vec<ScanColumn>>,
    },
    /// Equi-join of two input subtrees. Keys are `(left, right)`
    /// expression pairs written in each side's *source* column names;
    /// a pair of rows joins iff every key pair is `sql_cmp`-equal
    /// (NULL and NaN keys never match). Output rows are ordered by
    /// (left row, right row) — the canonical nested-loop order — no
    /// matter which side the executor builds its hash table on. A
    /// LEFT OUTER join additionally emits every unmatched left row
    /// once, NULL-extended on the right, at its canonical position.
    Join {
        /// Left input (`Scan → Filter*` after predicate pushdown).
        left: Box<LogicalPlan>,
        /// Right input.
        right: Box<LogicalPlan>,
        /// INNER or LEFT OUTER.
        kind: JoinKind,
        /// Equi-join key pairs `(left expr, right expr)`.
        keys: Vec<(Expr, Expr)>,
        /// The join's output columns (narrowed by projection pruning).
        output: Vec<JoinOutCol>,
        /// Indices of the inputs that expose the engine-managed `weight`
        /// column (sample sides) — pruning must keep it. Both sides
        /// weighted means the output carries one *combined* `weight`
        /// column (the per-side product).
        weighted: Vec<usize>,
    },
    /// `WHERE` — keep rows satisfying the predicate.
    Filter {
        /// Input node.
        input: Box<LogicalPlan>,
        /// The predicate.
        predicate: Expr,
    },
    /// Projection without aggregates.
    Project {
        /// Input node.
        input: Box<LogicalPlan>,
        /// The SELECT list.
        items: Vec<SelectItem>,
    },
    /// Grouped (or global) aggregation; `weighted` marks the paper's
    /// §5.3 weighted-aggregate rewrite.
    Aggregate {
        /// Input node.
        input: Box<LogicalPlan>,
        /// The SELECT list.
        items: Vec<SelectItem>,
        /// GROUP BY expressions (empty = one global group).
        group_by: Vec<Expr>,
        /// Weighted-rewrite property.
        weighted: bool,
    },
    /// `ORDER BY` — stable sort on the key expressions.
    Sort {
        /// Input node.
        input: Box<LogicalPlan>,
        /// `(expr, descending)` sort keys.
        keys: Vec<(Expr, bool)>,
    },
    /// `LIMIT n`.
    Limit {
        /// Input node.
        input: Box<LogicalPlan>,
        /// Maximum number of output rows.
        n: usize,
    },
    /// Fused Sort+Limit: the first `n` rows of the stable sort order,
    /// computed with bounded per-morsel heaps instead of a full sort
    /// (the sort/limit-fusion rule's output). Bit-identical to
    /// `Sort → Limit` by construction.
    TopK {
        /// Input node.
        input: Box<LogicalPlan>,
        /// `(expr, descending)` sort keys.
        keys: Vec<(Expr, bool)>,
        /// Number of rows to keep.
        n: usize,
    },
}

impl LogicalPlan {
    /// Build the canonical (un-optimized) logical plan of a bound
    /// SELECT: `Scan → Filter? → Project | Aggregate → Sort? → Limit?`,
    /// a direct structural mirror of the statement. `weighted` marks
    /// whether execution will carry row weights.
    pub fn from_stmt(stmt: &SelectStmt, weighted: bool) -> LogicalPlan {
        Self::from_stmt_over(
            stmt,
            weighted,
            LogicalPlan::Scan {
                source: 0,
                columns: None,
            },
        )
    }

    /// Build the statement's chain (`Filter? → Project | Aggregate →
    /// Sort? → Limit?`) over an arbitrary leaf — the plain scan for
    /// single-relation statements, a [`LogicalPlan::Join`] subtree for
    /// multi-relation ones.
    pub(crate) fn from_stmt_over(
        stmt: &SelectStmt,
        weighted: bool,
        leaf: LogicalPlan,
    ) -> LogicalPlan {
        let mut node = leaf;
        if let Some(pred) = &stmt.where_clause {
            node = LogicalPlan::Filter {
                input: Box::new(node),
                predicate: pred.clone(),
            };
        }
        node = if super::has_aggregate_shape(stmt) {
            LogicalPlan::Aggregate {
                input: Box::new(node),
                items: stmt.items.clone(),
                group_by: stmt.group_by.clone(),
                weighted,
            }
        } else {
            LogicalPlan::Project {
                input: Box::new(node),
                items: stmt.items.clone(),
            }
        };
        if !stmt.order_by.is_empty() {
            node = LogicalPlan::Sort {
                input: Box::new(node),
                keys: stmt.order_by.clone(),
            };
        }
        if let Some(n) = stmt.limit {
            node = LogicalPlan::Limit {
                input: Box::new(node),
                n,
            };
        }
        node
    }

    /// Node name for plan rendering.
    pub fn name(&self) -> &'static str {
        match self {
            LogicalPlan::Scan { .. } => "Scan",
            LogicalPlan::Join { .. } => "Join",
            LogicalPlan::Filter { .. } => "Filter",
            LogicalPlan::Project { .. } => "Project",
            LogicalPlan::Aggregate { .. } => "Aggregate",
            LogicalPlan::Sort { .. } => "Sort",
            LogicalPlan::Limit { .. } => "Limit",
            LogicalPlan::TopK { .. } => "TopK",
        }
    }

    /// The node's chain input, if any (`None` for the scan leaf and for
    /// [`LogicalPlan::Join`], whose two inputs are reached through the
    /// node itself).
    pub fn input(&self) -> Option<&LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Join { .. } => None,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::TopK { input, .. } => Some(input),
        }
    }

    /// Mutable access to the node's chain input, if any.
    pub(crate) fn input_mut(&mut self) -> Option<&mut LogicalPlan> {
        match self {
            LogicalPlan::Scan { .. } | LogicalPlan::Join { .. } => None,
            LogicalPlan::Filter { input, .. }
            | LogicalPlan::Project { input, .. }
            | LogicalPlan::Aggregate { input, .. }
            | LogicalPlan::Sort { input, .. }
            | LogicalPlan::Limit { input, .. }
            | LogicalPlan::TopK { input, .. } => Some(input),
        }
    }

    /// The join node at the bottom of the chain, if this plan scans more
    /// than one relation.
    pub fn join(&self) -> Option<&LogicalPlan> {
        match self.scan() {
            j @ LogicalPlan::Join { .. } => Some(j),
            _ => None,
        }
    }

    /// The plan's nodes in execution order (scan first).
    pub fn nodes(&self) -> Vec<&LogicalPlan> {
        let mut out = Vec::new();
        let mut cur = Some(self);
        while let Some(node) = cur {
            out.push(node);
            cur = node.input();
        }
        out.reverse();
        out
    }

    /// The leaf at the bottom of the chain: the scan for single-relation
    /// plans, the [`LogicalPlan::Join`] node for multi-relation ones.
    pub fn scan(&self) -> &LogicalPlan {
        let mut cur = self;
        while let Some(input) = cur.input() {
            cur = input;
        }
        cur
    }

    /// One-line description of this node alone (expressions included),
    /// EXPLAIN-style. A join's description embeds its two input chains.
    pub fn describe(&self) -> String {
        match self {
            LogicalPlan::Scan { columns: None, .. } => "Scan".to_string(),
            LogicalPlan::Scan {
                columns: Some(cols),
                ..
            } => {
                let names: Vec<String> = cols.iter().map(ScanColumn::to_string).collect();
                format!("Scan[{}]", names.join(", "))
            }
            LogicalPlan::Join {
                left,
                right,
                kind,
                keys,
                ..
            } => {
                let keys: Vec<String> = keys.iter().map(|(l, r)| format!("{l} = {r}")).collect();
                let sym = match kind {
                    JoinKind::Inner => "⋈",
                    JoinKind::LeftOuter => "⟕",
                };
                format!("Join[{}]({left} {sym} {right})", keys.join(", "))
            }
            LogicalPlan::Filter { predicate, .. } => {
                format!("Filter({predicate})")
            }
            LogicalPlan::Project { items, .. } => format!("Project[{}]", join_items(items)),
            LogicalPlan::Aggregate {
                items,
                group_by,
                weighted,
                ..
            } => {
                let keys: Vec<String> = group_by.iter().map(Expr::to_string).collect();
                format!(
                    "Aggregate{}(keys=[{}], items=[{}])",
                    if *weighted { "[weighted]" } else { "" },
                    keys.join(", "),
                    join_items(items)
                )
            }
            LogicalPlan::Sort { keys, .. } => format!("Sort[{}]", describe_keys(keys)),
            LogicalPlan::Limit { n, .. } => format!("Limit({n})"),
            LogicalPlan::TopK { keys, n, .. } => {
                format!("TopK[{}](n={n})", describe_keys(keys))
            }
        }
    }
}

/// `ORDER BY` keys as plan text: `expr [DESC], …`.
pub(crate) fn describe_keys(keys: &[(Expr, bool)]) -> String {
    keys.iter()
        .map(|(e, desc)| format!("{e}{}", if *desc { " DESC" } else { "" }))
        .collect::<Vec<_>>()
        .join(", ")
}

impl fmt::Display for LogicalPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.nodes().iter().map(|n| n.describe()).collect();
        write!(f, "{}", parts.join(" → "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_sql::{parse, Statement};

    fn select(src: &str) -> SelectStmt {
        match parse(src).unwrap().pop().unwrap() {
            Statement::Select(s) => s,
            other => panic!("not a select: {other:?}"),
        }
    }

    #[test]
    fn from_stmt_mirrors_clause_order() {
        let plan = LogicalPlan::from_stmt(
            &select("SELECT k, COUNT(*) FROM t WHERE v > 1 GROUP BY k ORDER BY k LIMIT 2"),
            true,
        );
        let names: Vec<&str> = plan.nodes().iter().map(|n| n.name()).collect();
        assert_eq!(names, vec!["Scan", "Filter", "Aggregate", "Sort", "Limit"]);
        let text = plan.to_string();
        assert!(text.contains("Filter(v > 1)"), "{text}");
        assert!(text.contains("Aggregate[weighted]"), "{text}");
    }

    #[test]
    fn projection_plan_display() {
        let plan = LogicalPlan::from_stmt(&select("SELECT k FROM t"), false);
        assert_eq!(plan.to_string(), "Scan → Project[k]");
        assert_eq!(plan.scan().name(), "Scan");
    }
}
