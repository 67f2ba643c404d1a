//! The rule-based logical optimizer.
//!
//! [`optimize`] rewrites a [`LogicalPlan`] with three rules, reporting
//! which fired (the names surface in `EXPLAIN`):
//!
//! * **`constant_folding`** — every constant subexpression (no columns,
//!   no parameters, no aggregates) collapses to the literal the
//!   row-at-a-time reference evaluator produces for it, so folding can
//!   never change a value. Parameter-aware: at prepare time, subtrees
//!   containing `?` keep their placeholders while their constant
//!   siblings still fold (`v > ? + (1 + 1)` → `v > ?1 + 2`). Constant
//!   subtrees whose evaluation *errors* are left intact so the error
//!   surfaces at execution exactly as the unoptimized plan reports it.
//!   Unaliased SELECT items that fold keep their original output name
//!   via a synthesized alias, so result schemas are identical with the
//!   optimizer on or off. Inside an `Aggregate` node only
//!   aggregate-containing items fold: GROUP BY expressions and the key
//!   items pair by structural equality at execution time, so rewriting
//!   either side could create (or destroy) a pairing the unoptimized
//!   plan doesn't have — both spellings stay intact instead.
//! * **`projection_pruning`** — when the statement has no `*` item, the
//!   scan keeps only the columns the statement references (resolved
//!   against the bound source schema). Columns are `Arc`-shared, so a
//!   pruned scan is free to build — the win is downstream: `Filter`'s
//!   row gather and the sort fallback input stop materializing columns
//!   nobody reads. A statement referencing no columns at all (e.g.
//!   `SELECT COUNT(*)`) keeps the first column so the scan's row count
//!   survives.
//! * **`sort_limit_fusion`** — `Sort → Limit` fuses into
//!   [`LogicalPlan::TopK`], which selects the first `n` rows of the
//!   stable sort order with bounded per-morsel heaps (O(rows · log n))
//!   instead of sorting everything (O(rows · log rows)). Ties break on
//!   the original row index — exactly the stable sort's order — so the
//!   fusion is bit-identical.
//!
//! All rules are pure functions of the plan (and the bound schema), so
//! optimization is deterministic; the whole pass is gated by the
//! `optimizer` knob ([`crate::Knobs`]) so the unoptimized path stays
//! exercisable (the oracle suite A/Bs both paths bit-identically).

use mosaic_sql::{Expr, JoinKind, SelectItem};
use mosaic_storage::Schema;

use super::logical::{LogicalPlan, ScanColumn};

/// Run every rule over the plan; returns the rewritten plan plus the
/// names of the rules that fired, in application order. `schema` is the
/// bound source schema when known (single-relation projection pruning
/// needs it to resolve column ids; without it that rule is skipped).
/// Join plans carry their own binding (the [`LogicalPlan::Join`] output
/// map), so the join rules — predicate pushdown, then join-aware
/// projection pruning — never need the schema parameter.
pub fn optimize(
    mut plan: LogicalPlan,
    schema: Option<&Schema>,
) -> (LogicalPlan, Vec<&'static str>) {
    let mut fired = Vec::new();
    if constant_folding(&mut plan) {
        fired.push("constant_folding");
    }
    if matches!(plan.scan(), LogicalPlan::Join { .. }) {
        if predicate_pushdown(&mut plan) {
            fired.push("predicate_pushdown");
        }
        if join_projection_pruning(&mut plan) {
            fired.push("projection_pruning");
        }
    } else if let Some(schema) = schema {
        if projection_pruning(&mut plan, schema) {
            fired.push("projection_pruning");
        }
    }
    if sort_limit_fusion(&mut plan) {
        fired.push("sort_limit_fusion");
    }
    (plan, fired)
}

// ---- constant folding ----

/// Fold constant subexpressions throughout the plan. Returns true if
/// anything changed.
fn constant_folding(plan: &mut LogicalPlan) -> bool {
    let mut changed = false;
    let mut cur = Some(plan);
    while let Some(node) = cur {
        match node {
            LogicalPlan::Scan { .. } | LogicalPlan::Limit { .. } => {}
            LogicalPlan::Join {
                left, right, keys, ..
            } => {
                // Keys fold like any expression: a folded constant
                // subtree evaluates to the exact value every row saw, so
                // the matched pairs are unchanged. Recurse into both
                // input chains (they may carry filters).
                for (l, r) in keys.iter_mut() {
                    changed |= fold_in_place(l);
                    changed |= fold_in_place(r);
                }
                changed |= constant_folding(left);
                changed |= constant_folding(right);
            }
            LogicalPlan::Filter { predicate, .. } => {
                changed |= fold_in_place(predicate);
            }
            LogicalPlan::Project { items, .. } => {
                changed |= fold_items(items, false);
            }
            LogicalPlan::Aggregate { items, .. } => {
                // Fold only aggregate-containing items. GROUP BY
                // expressions and key items pair by *structural*
                // equality at execution time ("projection X is neither
                // an aggregate nor a GROUP BY expression" otherwise), so
                // rewriting either side independently could create a
                // match the unoptimized plan doesn't have — e.g.
                // `SELECT x + 2 … GROUP BY x + (1 + 1)` errors
                // unoptimized but would succeed folded. Keeping both
                // spellings intact keeps the pairing — and therefore
                // the result or error — bit-identical.
                changed |= fold_items(items, true);
            }
            LogicalPlan::Sort { keys, .. } | LogicalPlan::TopK { keys, .. } => {
                for (e, _) in keys.iter_mut() {
                    changed |= fold_in_place(e);
                }
            }
        }
        cur = node.input_mut();
    }
    changed
}

/// Fold the SELECT list. Unaliased items that fold get an alias carrying
/// their original display name, so output schemas never change. With
/// `aggregates_only`, non-aggregate items are left untouched (they pair
/// with GROUP BY expressions structurally — see the Aggregate arm of
/// [`constant_folding`]).
fn fold_items(items: &mut [SelectItem], aggregates_only: bool) -> bool {
    let mut changed = false;
    for item in items.iter_mut() {
        if let SelectItem::Expr { expr, alias } = item {
            if aggregates_only && !expr.contains_aggregate() {
                continue;
            }
            let mut c = false;
            let folded = fold_expr(expr, &mut c);
            if c {
                if alias.is_none() {
                    *alias = Some(expr.default_name());
                }
                *expr = folded;
                changed = true;
            }
        }
    }
    changed
}

fn fold_in_place(expr: &mut Expr) -> bool {
    let mut changed = false;
    let folded = fold_expr(expr, &mut changed);
    if changed {
        *expr = folded;
    }
    changed
}

/// Recursively fold constant subtrees to literals via the row-at-a-time
/// reference evaluator (so a folded value is *by definition* the value
/// every row would have seen). Erroring constants stay unfolded.
fn fold_expr(expr: &Expr, changed: &mut bool) -> Expr {
    if expr.is_const() && !matches!(expr, Expr::Literal(_)) {
        if let Ok(v) = crate::eval::eval_scalar(expr) {
            *changed = true;
            return Expr::Literal(v);
        }
        return expr.clone();
    }
    let fold_box = |e: &Expr, changed: &mut bool| Box::new(fold_expr(e, changed));
    match expr {
        Expr::Literal(_) | Expr::Column(_) | Expr::Param(_) => expr.clone(),
        Expr::Unary { op, expr: inner } => Expr::Unary {
            op: *op,
            expr: fold_box(inner, changed),
        },
        Expr::Binary { left, op, right } => Expr::Binary {
            left: fold_box(left, changed),
            op: *op,
            right: fold_box(right, changed),
        },
        Expr::InList {
            expr: inner,
            list,
            negated,
        } => Expr::InList {
            expr: fold_box(inner, changed),
            list: list.iter().map(|e| fold_expr(e, changed)).collect(),
            negated: *negated,
        },
        Expr::Between {
            expr: inner,
            low,
            high,
            negated,
        } => Expr::Between {
            expr: fold_box(inner, changed),
            low: fold_box(low, changed),
            high: fold_box(high, changed),
            negated: *negated,
        },
        Expr::IsNull {
            expr: inner,
            negated,
        } => Expr::IsNull {
            expr: fold_box(inner, changed),
            negated: *negated,
        },
        Expr::Agg { func, arg } => Expr::Agg {
            func: *func,
            arg: arg.as_deref().map(|a| fold_box(a, changed)),
        },
    }
}

// ---- projection pruning ----

/// Restrict the scan to the columns the plan references. Fires only when
/// the statement has no wildcard and the referenced set is narrower than
/// the source schema.
fn projection_pruning(plan: &mut LogicalPlan, schema: &Schema) -> bool {
    let mut referenced: Vec<String> = Vec::new();
    let mut add = |exprs: &[&Expr]| {
        for e in exprs {
            for c in e.referenced_columns() {
                if !referenced.iter().any(|n| n.eq_ignore_ascii_case(&c)) {
                    referenced.push(c);
                }
            }
        }
    };
    for node in plan.nodes() {
        match node {
            LogicalPlan::Scan { .. } | LogicalPlan::Limit { .. } => {}
            LogicalPlan::Join { .. } => return false, // join plans use join_projection_pruning
            LogicalPlan::Filter { predicate, .. } => add(&[predicate]),
            LogicalPlan::Project { items, .. } => {
                if !collect_item_columns(items, &mut add) {
                    return false; // wildcard: the scan schema is the output
                }
            }
            LogicalPlan::Aggregate {
                items, group_by, ..
            } => {
                if !collect_item_columns(items, &mut add) {
                    return false;
                }
                add(&group_by.iter().collect::<Vec<_>>());
            }
            LogicalPlan::Sort { keys, .. } | LogicalPlan::TopK { keys, .. } => {
                add(&keys.iter().map(|(e, _)| e).collect::<Vec<_>>());
            }
        }
    }
    // Resolve against the bound schema, in schema order. Referenced
    // names the schema lacks are dropped here — evaluation reports the
    // same unknown-column error with or without pruning.
    let mut ids: Vec<usize> = referenced
        .iter()
        .filter_map(|n| schema.index_of(n).ok())
        .collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() >= schema.len() {
        return false; // nothing to prune
    }
    if ids.is_empty() {
        if schema.is_empty() {
            return false;
        }
        // No columns referenced (SELECT COUNT(*), SELECT 1, …): keep one
        // column so the scan's row count survives the pruning.
        ids.push(0);
    }
    let cols: Vec<ScanColumn> = ids
        .into_iter()
        .map(|id| ScanColumn {
            name: schema.field(id).name.clone(),
            id,
        })
        .collect();
    *scan_columns_mut(plan) = Some(cols);
    true
}

/// Collect column references from SELECT items into `add`; returns false
/// if a wildcard makes pruning unsafe.
fn collect_item_columns(items: &[SelectItem], add: &mut impl FnMut(&[&Expr])) -> bool {
    for item in items {
        match item {
            SelectItem::Wildcard => return false,
            SelectItem::Expr { expr, .. } => add(&[expr]),
        }
    }
    true
}

fn scan_columns_mut(plan: &mut LogicalPlan) -> &mut Option<Vec<ScanColumn>> {
    match plan {
        LogicalPlan::Scan { columns, .. } => columns,
        other => scan_columns_mut(
            other
                .input_mut()
                .expect("non-scan logical nodes have an input"),
        ),
    }
}

// ---- join predicate pushdown ----

/// Push WHERE conjuncts that reference exactly one join input — and that
/// provably cannot error (see [`crate::plan::join::push_safe`]) — below
/// the join, into that input's filter chain. For an INNER join a
/// single-sided conjunct drops the same output rows whether it runs
/// before or after the join; running it before shrinks the build /
/// probe inputs. A LEFT OUTER join only admits *left*-side pushes:
/// filtering the right input before the join would NULL-extend rows the
/// unpushed plan drops. Conjuncts that span both sides, reference
/// unknown columns or the combined weight column, carry parameters in
/// unsafe shapes, or could error stay above the join untouched.
///
/// The rule fires only when **every** conjunct — pushed *and* residual —
/// is provably error-free: pushing one conjunct shrinks the set of rows
/// the residual conjuncts evaluate over, so a residual that *could*
/// error (say, a Float comparison hitting NaN on a row the pushed
/// filter now removes) would error with the optimizer off but succeed
/// with it on, breaking the bit-identical-including-errors contract.
fn predicate_pushdown(plan: &mut LogicalPlan) -> bool {
    // Find the Filter directly above the Join.
    let mut cur = Some(plan);
    while let Some(node) = cur {
        if matches!(node, LogicalPlan::Filter { input, .. } if matches!(input.as_ref(), LogicalPlan::Join { .. }))
        {
            return push_filter_into_join(node);
        }
        cur = node.input_mut();
    }
    false
}

fn push_filter_into_join(node: &mut LogicalPlan) -> bool {
    // Phase 1: classify the conjuncts (immutable).
    let (mut pushed, residual): ([Vec<Expr>; 2], Vec<Expr>) = {
        let LogicalPlan::Filter { input, predicate } = &*node else {
            unreachable!("caller matched a filter-over-join");
        };
        let LogicalPlan::Join { output, kind, .. } = input.as_ref() else {
            unreachable!("caller matched a filter-over-join");
        };
        let mut conjuncts = Vec::new();
        crate::plan::join::split_and(predicate, &mut conjuncts);
        let out_type = |name: &str| {
            output
                .iter()
                .find(|o| o.name.eq_ignore_ascii_case(name))
                .map(|o| o.data_type)
        };
        // Every conjunct must be provably error-free before anything
        // moves: a pushed conjunct shrinks the rows the residual ones
        // evaluate over, which must never suppress (or introduce) an
        // error the unoptimized plan reports.
        if !conjuncts
            .iter()
            .all(|c| crate::plan::join::push_safe(c, &out_type))
        {
            return false;
        }
        let mut residual: Vec<Expr> = Vec::new();
        let mut pushed: [Vec<Expr>; 2] = [Vec::new(), Vec::new()];
        for conj in conjuncts {
            match conjunct_side(conj, output) {
                // Rewrite output names back to source column names. A
                // LEFT OUTER join never pushes into the NULL-extending
                // (right) side.
                Some(s) if *kind == JoinKind::Inner || s == 0 => {
                    pushed[s].push(rewrite_to_source(conj, output))
                }
                _ => residual.push(conj.clone()),
            }
        }
        (pushed, residual)
    };
    if pushed[0].is_empty() && pushed[1].is_empty() {
        return false;
    }
    // Phase 2: wrap the join inputs in the pushed filters.
    {
        let LogicalPlan::Filter { input, .. } = node else {
            unreachable!("matched above");
        };
        let LogicalPlan::Join { left, right, .. } = input.as_mut() else {
            unreachable!("matched above");
        };
        for (s, side) in [left, right].into_iter().enumerate() {
            if !pushed[s].is_empty() {
                let inner = std::mem::replace(
                    side,
                    Box::new(LogicalPlan::Scan {
                        source: s,
                        columns: None,
                    }),
                );
                **side = LogicalPlan::Filter {
                    input: inner,
                    predicate: crate::plan::join::and_chain(std::mem::take(&mut pushed[s])),
                };
            }
        }
    }
    // Phase 3: shrink or splice out the residual filter.
    if residual.is_empty() {
        let LogicalPlan::Filter { input, .. } = node else {
            unreachable!("matched above");
        };
        let join = std::mem::replace(
            input,
            Box::new(LogicalPlan::Scan {
                source: 0,
                columns: None,
            }),
        );
        *node = *join;
    } else {
        let LogicalPlan::Filter { predicate, .. } = node else {
            unreachable!("matched above");
        };
        *predicate = crate::plan::join::and_chain(residual);
    }
    true
}

/// The single join input a conjunct references, if any: every referenced
/// column must resolve to an output column of the same source. Unknown
/// columns (the error surfaces at execution either way) and column-free
/// conjuncts return `None`.
fn conjunct_side(conj: &Expr, output: &[crate::plan::logical::JoinOutCol]) -> Option<usize> {
    let cols = conj.referenced_columns();
    let mut side = None;
    for c in &cols {
        let out = output.iter().find(|o| o.name.eq_ignore_ascii_case(c))?;
        if out.combined {
            // The combined weight is a product of *both* sides' weight
            // columns — it exists only after the join.
            return None;
        }
        match side {
            None => side = Some(out.source),
            Some(s) if s != out.source => return None,
            _ => {}
        }
    }
    side
}

/// Rewrite a single-sided conjunct's output-name references to the
/// side's source column names (names that resolve to no output column
/// pass through untouched — the execution error is identical either
/// way).
fn rewrite_to_source(conj: &Expr, output: &[crate::plan::logical::JoinOutCol]) -> Expr {
    crate::plan::join::map_columns(conj, &|name| {
        Ok(output
            .iter()
            .find(|o| o.name.eq_ignore_ascii_case(name))
            .map(|o| o.column.clone())
            .unwrap_or_else(|| name.to_string()))
    })
    .expect("infallible column mapping")
}

// ---- join projection pruning ----

/// Projection pruning through both join sides: narrow the join's output
/// to the columns referenced above it (always keeping the weighted
/// side's `weight` column — the sample-weight carrying rule — and at
/// least one column so the row count survives), then prune each side's
/// scan to the columns its keys, pushed filters, and surviving output
/// need. Fires only when the statement has no `*` item.
fn join_projection_pruning(plan: &mut LogicalPlan) -> bool {
    // 1. Collect output-name references from the chain above the join.
    let mut referenced: Vec<String> = Vec::new();
    let mut add = |exprs: &[&Expr]| {
        for e in exprs {
            for c in e.referenced_columns() {
                if !referenced.iter().any(|n| n.eq_ignore_ascii_case(&c)) {
                    referenced.push(c);
                }
            }
        }
    };
    for node in plan.nodes() {
        match node {
            LogicalPlan::Scan { .. } | LogicalPlan::Limit { .. } | LogicalPlan::Join { .. } => {}
            LogicalPlan::Filter { predicate, .. } => add(&[predicate]),
            LogicalPlan::Project { items, .. } => {
                if !collect_item_columns(items, &mut add) {
                    return false;
                }
            }
            LogicalPlan::Aggregate {
                items, group_by, ..
            } => {
                if !collect_item_columns(items, &mut add) {
                    return false;
                }
                add(&group_by.iter().collect::<Vec<_>>());
            }
            LogicalPlan::Sort { keys, .. } | LogicalPlan::TopK { keys, .. } => {
                add(&keys.iter().map(|(e, _)| e).collect::<Vec<_>>());
            }
        }
    }

    // 2. Narrow the join node.
    let join = join_mut(plan);
    let LogicalPlan::Join {
        left,
        right,
        keys,
        output,
        weighted,
        ..
    } = join
    else {
        unreachable!("optimize() only calls this on join plans");
    };
    let mut changed = false;
    let kept: Vec<crate::plan::logical::JoinOutCol> = output
        .iter()
        .filter(|o| {
            referenced.iter().any(|n| n.eq_ignore_ascii_case(&o.name))
                || o.combined
                || (weighted.contains(&o.source) && o.column.eq_ignore_ascii_case("weight"))
                // Combined-weight joins feed post-join IPF re-calibration,
                // which resolves declared marginal attributes against the
                // joined schema — pruning a weighted side could silently
                // skip the raking (and make results depend on the
                // optimizer). Keep every weighted-side column.
                || (weighted.len() > 1 && weighted.contains(&o.source))
        })
        .cloned()
        .collect();
    let kept = if kept.is_empty() {
        vec![output[0].clone()]
    } else {
        kept
    };
    // 3. Prune each side's scan to (surviving output ∪ key refs ∪
    //    pushed-filter refs), resolved through the pre-pruning output
    //    map (which lists every source column with its bound id).
    for (s, side) in [&mut *left, &mut *right].into_iter().enumerate() {
        if s == 1 && kept.iter().any(|o| o.combined) {
            // The combined weight gathers from the right side's weight
            // column, which (by construction) has no output entry of
            // its own — leave the right scan unpruned so it survives.
            continue;
        }
        let mut needed: Vec<&str> = kept
            .iter()
            .filter(|o| o.source == s)
            .map(|o| o.column.as_str())
            .collect();
        for (lk, rk) in keys.iter() {
            let k = if s == 0 { lk } else { rk };
            for c in k.referenced_columns() {
                if let Some(o) = output
                    .iter()
                    .find(|o| o.source == s && o.column.eq_ignore_ascii_case(&c))
                {
                    if !needed.iter().any(|n| n.eq_ignore_ascii_case(&o.column)) {
                        needed.push(o.column.as_str());
                    }
                }
            }
        }
        let mut chain = Some(side.as_ref());
        let mut filter_cols: Vec<String> = Vec::new();
        while let Some(node) = chain {
            if let LogicalPlan::Filter { predicate, .. } = node {
                filter_cols.extend(predicate.referenced_columns());
            }
            chain = node.input();
        }
        for c in &filter_cols {
            if let Some(o) = output
                .iter()
                .find(|o| o.source == s && o.column.eq_ignore_ascii_case(c))
            {
                if !needed.iter().any(|n| n.eq_ignore_ascii_case(&o.column)) {
                    needed.push(o.column.as_str());
                }
            }
        }
        let mut cols: Vec<ScanColumn> = output
            .iter()
            .filter(|o| o.source == s && needed.iter().any(|n| n.eq_ignore_ascii_case(&o.column)))
            .map(|o| ScanColumn {
                name: o.column.clone(),
                id: o.column_id,
            })
            .collect();
        cols.sort_by_key(|c| c.id);
        cols.dedup();
        let side_width = output.iter().filter(|o| o.source == s).count();
        if cols.is_empty() && side_width > 0 {
            // Keep one column so the side's row count survives.
            let first = output.iter().find(|o| o.source == s).expect("non-empty");
            cols.push(ScanColumn {
                name: first.column.clone(),
                id: first.column_id,
            });
        }
        if cols.len() < side_width {
            let scan = side_scan_mut(side);
            if let LogicalPlan::Scan { columns, .. } = scan {
                if columns.as_ref() != Some(&cols) {
                    *columns = Some(cols);
                    changed = true;
                }
            }
        }
    }
    if kept.len() < output.len() {
        *output = kept;
        changed = true;
    }
    changed
}

/// Mutable access to the join node at the bottom of the chain.
fn join_mut(plan: &mut LogicalPlan) -> &mut LogicalPlan {
    if matches!(plan, LogicalPlan::Join { .. }) {
        return plan;
    }
    join_mut(
        plan.input_mut()
            .expect("join plans bottom out at the join node"),
    )
}

/// Mutable access to the scan at the bottom of a join input chain.
fn side_scan_mut(side: &mut LogicalPlan) -> &mut LogicalPlan {
    if matches!(side, LogicalPlan::Scan { .. }) {
        return side;
    }
    side_scan_mut(side.input_mut().expect("join inputs bottom out at a scan"))
}

// ---- sort/limit fusion ----

/// Fuse `Limit(Sort(x))` into `TopK(x)`.
fn sort_limit_fusion(plan: &mut LogicalPlan) -> bool {
    if let LogicalPlan::Limit { input, n } = plan {
        let n = *n;
        if let LogicalPlan::Sort {
            input: sort_in,
            keys,
        } = input.as_mut()
        {
            let keys = std::mem::take(keys);
            let inner = std::mem::replace(
                sort_in,
                Box::new(LogicalPlan::Scan {
                    source: 0,
                    columns: None,
                }),
            );
            *plan = LogicalPlan::TopK {
                input: inner,
                keys,
                n,
            };
            return true;
        }
    }
    match plan.input_mut() {
        Some(input) => sort_limit_fusion(input),
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_sql::{parse, parse_expr, SelectStmt, Statement};
    use mosaic_storage::{DataType, Field};

    fn select(src: &str) -> SelectStmt {
        match parse(src).unwrap().pop().unwrap() {
            Statement::Select(s) => s,
            other => panic!("not a select: {other:?}"),
        }
    }

    fn schema() -> std::sync::Arc<Schema> {
        Schema::new(vec![
            Field::new("k", DataType::Str),
            Field::new("v", DataType::Int),
            Field::new("w", DataType::Float),
        ])
    }

    fn optimize_stmt(src: &str) -> (LogicalPlan, Vec<&'static str>) {
        let plan = LogicalPlan::from_stmt(&select(src), false);
        optimize(plan, Some(&schema()))
    }

    #[test]
    fn folds_constants_and_keeps_param_residuals() {
        let (plan, fired) = optimize_stmt("SELECT v FROM t WHERE v > 1 + 1");
        assert!(fired.contains(&"constant_folding"), "{fired:?}");
        let nodes = plan.nodes();
        let LogicalPlan::Filter { predicate, .. } = nodes[1] else {
            panic!("expected filter, got {}", nodes[1].describe());
        };
        assert_eq!(predicate, &parse_expr("v > 2").unwrap());

        // A `?` residual blocks its own subtree but not constant siblings.
        let (plan, fired) = optimize_stmt("SELECT v FROM t WHERE v > ? + (2 * 3)");
        assert!(fired.contains(&"constant_folding"), "{fired:?}");
        let text = plan.to_string();
        assert!(text.contains("?1 + 6"), "{text}");
    }

    #[test]
    fn folded_items_keep_their_output_name() {
        let (plan, _) = optimize_stmt("SELECT 1 + 2, v FROM t");
        let nodes = plan.nodes();
        let LogicalPlan::Project { items, .. } = nodes[1] else {
            panic!("expected project");
        };
        let mosaic_sql::SelectItem::Expr { expr, alias } = &items[0] else {
            panic!("expected expr item");
        };
        assert_eq!(expr, &parse_expr("3").unwrap());
        assert_eq!(alias.as_deref(), Some("1 + 2"));
    }

    #[test]
    fn group_by_pairing_is_never_rewritten() {
        // Execution pairs non-aggregate items with GROUP BY expressions
        // by structural equality; folding either side independently
        // could create a match the unoptimized plan rejects. Both
        // spellings must survive untouched — in both directions.
        for src in [
            "SELECT v + 2, COUNT(*) FROM t GROUP BY v + (1 + 1)",
            "SELECT v + (1 + 1), COUNT(*) FROM t GROUP BY v + 2",
        ] {
            let (plan, _) = optimize_stmt(src);
            let LogicalPlan::Aggregate {
                items, group_by, ..
            } = plan.nodes()[1]
            else {
                panic!("expected aggregate: {plan}");
            };
            let stmt = select(src);
            assert_eq!(&stmt.group_by, group_by, "{src}");
            let mosaic_sql::SelectItem::Expr { expr, .. } = &items[0] else {
                panic!("expected expr item");
            };
            let mosaic_sql::SelectItem::Expr { expr: orig, .. } = &stmt.items[0] else {
                panic!("expected expr item");
            };
            assert_eq!(expr, orig, "{src}");
        }
        // Aggregate-containing items still fold (their shells never
        // participate in GROUP BY pairing).
        let (plan, fired) = optimize_stmt("SELECT k, SUM(v) * (1 + 1) FROM t GROUP BY k");
        assert!(fired.contains(&"constant_folding"), "{fired:?}");
        let LogicalPlan::Aggregate { items, .. } = plan.nodes()[1] else {
            panic!("expected aggregate: {plan}");
        };
        let mosaic_sql::SelectItem::Expr { expr, alias } = &items[1] else {
            panic!("expected expr item");
        };
        assert_eq!(expr, &parse_expr("SUM(v) * 2").unwrap());
        assert_eq!(alias.as_deref(), Some("SUM(v) * 1 + 1"));
    }

    #[test]
    fn erroring_constants_stay_unfolded() {
        // `'x' > 1` is constant but errors in the reference evaluator;
        // it must survive folding untouched so execution reports the
        // same error with the optimizer on or off.
        let (plan, _) = optimize_stmt("SELECT v FROM t WHERE k = 'a' AND 'x' > 1");
        let nodes = plan.nodes();
        let LogicalPlan::Filter { predicate, .. } = nodes[1] else {
            panic!("expected filter, got {}", nodes[1].describe());
        };
        assert_eq!(predicate, &parse_expr("k = 'a' AND 'x' > 1").unwrap());
    }

    #[test]
    fn prunes_scan_to_referenced_columns() {
        let (plan, fired) = optimize_stmt("SELECT k FROM t WHERE v > 1 ORDER BY v DESC");
        assert!(fired.contains(&"projection_pruning"), "{fired:?}");
        let LogicalPlan::Scan {
            columns: Some(cols),
            ..
        } = plan.scan()
        else {
            panic!("expected pruned scan: {plan}");
        };
        let names: Vec<&str> = cols.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(names, vec!["k", "v"]);
        assert_eq!(cols[0].id, 0);
        assert_eq!(cols[1].id, 1);
    }

    #[test]
    fn wildcard_blocks_pruning() {
        let (plan, fired) = optimize_stmt("SELECT * FROM t WHERE v > 1");
        assert!(!fired.contains(&"projection_pruning"), "{fired:?}");
        assert!(matches!(
            plan.scan(),
            LogicalPlan::Scan { columns: None, .. }
        ));
    }

    #[test]
    fn column_free_statement_keeps_one_column() {
        let (plan, fired) = optimize_stmt("SELECT COUNT(*) FROM t");
        assert!(fired.contains(&"projection_pruning"), "{fired:?}");
        let LogicalPlan::Scan {
            columns: Some(cols),
            ..
        } = plan.scan()
        else {
            panic!("expected pruned scan");
        };
        assert_eq!(cols.len(), 1);
        assert_eq!(cols[0].id, 0);
    }

    #[test]
    fn fully_referenced_schema_not_pruned() {
        let (_, fired) = optimize_stmt("SELECT k, v, w FROM t");
        assert!(!fired.contains(&"projection_pruning"), "{fired:?}");
    }

    #[test]
    fn sort_limit_fuses_to_topk() {
        let (plan, fired) = optimize_stmt("SELECT k FROM t ORDER BY v DESC, k LIMIT 5");
        assert!(fired.contains(&"sort_limit_fusion"), "{fired:?}");
        let names: Vec<&str> = plan.nodes().iter().map(|n| n.name()).collect();
        assert_eq!(names, vec!["Scan", "Project", "TopK"]);
        assert!(plan.to_string().contains("TopK[v DESC, k](n=5)"), "{plan}");

        // No LIMIT → Sort stays.
        let (plan, fired) = optimize_stmt("SELECT k FROM t ORDER BY v");
        assert!(!fired.contains(&"sort_limit_fusion"), "{fired:?}");
        assert!(plan.to_string().contains("Sort[v]"), "{plan}");
    }
}
