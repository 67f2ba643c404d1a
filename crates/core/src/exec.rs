//! The query executor: filter → (group / aggregate | project) → order →
//! limit, over a single table with optional row weights.
//!
//! Weights realize the paper's weighted-aggregate rewrite (§5.3: "To run
//! the aggregate queries over a weighted sample, we simply modify the
//! aggregate to be over a weight attribute (e.g. COUNT(*) becomes
//! SUM(weight))"). With `weights = None`, aggregates behave like ordinary
//! SQL.
//!
//! [`run_select`] plans the statement and runs the vectorized physical
//! plan (see [`crate::plan`]); [`run_select_rowwise`] is the retained
//! row-at-a-time implementation, kept as the semantics oracle of the
//! equivalence suites.

use std::collections::HashMap;

use mosaic_sql::{AggFunc, Expr, SelectItem, SelectStmt};
use mosaic_storage::{Field, Schema, Table, Value};

use crate::eval::{eval_predicate_rowwise, eval_row};
use crate::plan::{self, output_name, ExecContext, LimitOp, PhysicalOperator, PlanInput, SortOp};
use crate::{Knobs, MosaicError, Result};

/// Execute a SELECT over one table through the vectorized, morsel-driven
/// physical plan. `weights` (parallel to the table's rows) turns
/// aggregates into weighted aggregates. Uses the process-default thread
/// cap, merge partition count and optimizer setting
/// ([`Knobs::from_env`]); none ever changes results.
pub fn run_select(stmt: &SelectStmt, table: &Table, weights: Option<&[f64]>) -> Result<Table> {
    let k = Knobs::from_env();
    let ctx = ExecContext::new(&[], k.threads, k.partitions);
    plan::plan_select(stmt, weights.is_some(), k.optimizer, Some(table.schema()))
        .physical
        .run(PlanInput::Table { table, weights }, &ctx)
}

/// Row-at-a-time reference implementation of [`run_select`]. Every value
/// it produces must match the vectorized plan byte-for-byte; the
/// `planner_oracle` property suite enforces this.
pub fn run_select_rowwise(
    stmt: &SelectStmt,
    table: &Table,
    weights: Option<&[f64]>,
) -> Result<Table> {
    // The reference indexes `weights` by row: keep its own guard, with
    // the plan's message, so the suites can compare errors too.
    if let Some(w) = weights.filter(|w| w.len() != table.num_rows()) {
        return Err(MosaicError::Execution(format!(
            "weight vector length {} != table rows {}",
            w.len(),
            table.num_rows()
        )));
    }
    // 1. WHERE
    let (filtered, fweights): (Table, Option<Vec<f64>>) = match &stmt.where_clause {
        Some(pred) => {
            let sel = eval_predicate_rowwise(pred, table)?;
            let idx = sel.to_indices();
            let w = weights.map(|w| idx.iter().map(|&i| w[i]).collect());
            (table.take(&idx), w)
        }
        None => (table.clone(), weights.map(|w| w.to_vec())),
    };
    let has_agg = plan::has_aggregate_shape(stmt);
    let mut out = if has_agg {
        aggregate(stmt, &filtered, fweights.as_deref())?
    } else {
        project(stmt, &filtered)?
    };
    // 3. ORDER BY
    if !stmt.order_by.is_empty() {
        out = order_by(stmt, out, if has_agg { None } else { Some(&filtered) })?;
    }
    // 4. LIMIT
    if let Some(n) = stmt.limit {
        out = out.limit(n);
    }
    Ok(out)
}

fn project(stmt: &SelectStmt, table: &Table) -> Result<Table> {
    let mut fields = Vec::new();
    let mut columns = Vec::new();
    for item in &stmt.items {
        match item {
            SelectItem::Wildcard => {
                for (i, f) in table.schema().fields().iter().enumerate() {
                    fields.push(f.clone());
                    columns.push(table.column(i).clone());
                }
            }
            SelectItem::Expr { expr, .. } => {
                let col = crate::eval::eval_expr_rowwise(expr, table)?;
                fields.push(Field::new(output_name(item), col.data_type()));
                columns.push(col);
            }
        }
    }
    Table::new(Schema::new(fields), columns).map_err(Into::into)
}

fn aggregate(stmt: &SelectStmt, table: &Table, weights: Option<&[f64]>) -> Result<Table> {
    // Group rows by the GROUP BY key (insertion-ordered).
    let n = table.num_rows();
    let mut group_keys: Vec<Vec<Value>> = Vec::new();
    let mut group_rows: Vec<Vec<usize>> = Vec::new();
    if stmt.group_by.is_empty() {
        group_keys.push(Vec::new());
        group_rows.push((0..n).collect());
    } else {
        let mut index: HashMap<Vec<Value>, usize> = HashMap::new();
        for row in 0..n {
            let key: Vec<Value> = stmt
                .group_by
                .iter()
                .map(|e| eval_row(e, Some(table), row))
                .collect::<Result<_>>()?;
            let gi = *index.entry(key.clone()).or_insert_with(|| {
                group_keys.push(key);
                group_rows.push(Vec::new());
                group_keys.len() - 1
            });
            group_rows[gi].push(row);
        }
    }
    // Compute each output column.
    let mut fields = Vec::with_capacity(stmt.items.len());
    let mut value_rows: Vec<Vec<Value>> = vec![Vec::new(); group_keys.len()];
    for item in &stmt.items {
        let expr = match item {
            SelectItem::Wildcard => {
                return Err(MosaicError::Execution(
                    "SELECT * cannot be combined with GROUP BY / aggregates".into(),
                ))
            }
            SelectItem::Expr { expr, .. } => expr,
        };
        if expr.contains_aggregate() {
            for (gi, rows) in group_rows.iter().enumerate() {
                let v = eval_agg_expr(expr, table, rows, weights)?;
                value_rows[gi].push(v);
            }
        } else {
            // Must be one of the group-by expressions.
            let pos = stmt
                .group_by
                .iter()
                .position(|g| g == expr)
                .ok_or_else(|| {
                    MosaicError::Execution(format!(
                        "projection {} is neither an aggregate nor a GROUP BY expression",
                        expr.default_name()
                    ))
                })?;
            for (gi, key) in group_keys.iter().enumerate() {
                value_rows[gi].push(key[pos].clone());
            }
        }
        fields.push(output_name(item));
    }
    // Assemble columns with type inference (shared with the vectorized
    // aggregate so both executors apply one widening rule).
    plan::assemble_value_rows(&fields, &value_rows)
}

/// Evaluate an expression that contains aggregates, for one group.
fn eval_agg_expr(
    expr: &Expr,
    table: &Table,
    rows: &[usize],
    weights: Option<&[f64]>,
) -> Result<Value> {
    match expr {
        Expr::Agg { func, arg } => compute_aggregate(*func, arg.as_deref(), table, rows, weights),
        Expr::Binary { left, op, right } => {
            // Allow arithmetic over aggregates, e.g. SUM(x) / COUNT(*).
            let l = eval_agg_expr(left, table, rows, weights)?;
            let r = eval_agg_expr(right, table, rows, weights)?;
            crate::eval::eval_row(
                &Expr::Binary {
                    left: Box::new(Expr::Literal(l)),
                    op: *op,
                    right: Box::new(Expr::Literal(r)),
                },
                None,
                0,
            )
        }
        Expr::Unary { op, expr } => {
            let v = eval_agg_expr(expr, table, rows, weights)?;
            crate::eval::eval_row(
                &Expr::Unary {
                    op: *op,
                    expr: Box::new(Expr::Literal(v)),
                },
                None,
                0,
            )
        }
        Expr::Literal(v) => Ok(v.clone()),
        other => Err(MosaicError::Execution(format!(
            "expression {} mixes aggregates with row-level terms",
            other.default_name()
        ))),
    }
}

fn compute_aggregate(
    func: AggFunc,
    arg: Option<&Expr>,
    table: &Table,
    rows: &[usize],
    weights: Option<&[f64]>,
) -> Result<Value> {
    let weight_of = |row: usize| weights.map_or(1.0, |w| w[row]);
    match func {
        AggFunc::Count => {
            let mut total = 0.0;
            for &row in rows {
                let counted = match arg {
                    None => true,
                    Some(e) => !eval_row(e, Some(table), row)?.is_null(),
                };
                if counted {
                    total += weight_of(row);
                }
            }
            if weights.is_none() {
                Ok(Value::Int(total as i64))
            } else {
                Ok(Value::Float(total))
            }
        }
        AggFunc::Sum | AggFunc::Avg => {
            let e = arg.ok_or_else(|| {
                MosaicError::Execution(format!("{}(*) requires an argument", func.name()))
            })?;
            let mut num = 0.0;
            let mut den = 0.0;
            let mut any = false;
            let mut all_int = true;
            for &row in rows {
                let v = eval_row(e, Some(table), row)?;
                if v.is_null() {
                    continue;
                }
                if !matches!(v, Value::Int(_)) {
                    all_int = false;
                }
                let x = v.as_f64().ok_or_else(|| {
                    MosaicError::Execution(format!("{} over non-numeric value", func.name()))
                })?;
                let w = weight_of(row);
                num += w * x;
                den += w;
                any = true;
            }
            if !any {
                return Ok(Value::Null);
            }
            match func {
                AggFunc::Sum => {
                    if weights.is_none() && all_int {
                        Ok(Value::Int(num as i64))
                    } else {
                        Ok(Value::Float(num))
                    }
                }
                AggFunc::Avg => Ok(Value::Float(num / den)),
                _ => unreachable!(),
            }
        }
        AggFunc::Min | AggFunc::Max => {
            let e = arg.ok_or_else(|| {
                MosaicError::Execution(format!("{}(*) requires an argument", func.name()))
            })?;
            let mut best: Option<Value> = None;
            for &row in rows {
                let v = eval_row(e, Some(table), row)?;
                if v.is_null() {
                    continue;
                }
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let keep_new = match v.sql_cmp(&b) {
                            Some(std::cmp::Ordering::Less) => func == AggFunc::Min,
                            Some(std::cmp::Ordering::Greater) => func == AggFunc::Max,
                            _ => false,
                        };
                        if keep_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best.unwrap_or(Value::Null))
        }
    }
}

/// Apply a statement's ORDER BY and LIMIT to an already-computed result
/// table (used by the OPEN-query combiner, which evaluates the aggregate
/// body per generated sample and orders only the merged result).
pub(crate) fn apply_order_limit(
    stmt: &SelectStmt,
    table: Table,
    params: &[mosaic_storage::Value],
) -> Result<Table> {
    // Combined OPEN results are aggregate outputs — group-count sized,
    // far below one sort block — so a serial sort is right.
    let ctx = ExecContext::new(params, 1, 1);
    let mut batch = plan::Batch {
        table,
        weights: None,
    };
    if !stmt.order_by.is_empty() {
        let sort = SortOp {
            keys: stmt.order_by.clone(),
        };
        batch = sort.execute(&ctx, &batch)?;
    }
    if let Some(n) = stmt.limit {
        batch = LimitOp { n }.execute(&ctx, &batch)?;
    }
    Ok(batch.table)
}

fn order_by(stmt: &SelectStmt, out: Table, input: Option<&Table>) -> Result<Table> {
    // Prefer ordering on the output table (aliases/aggregate names);
    // fall back to the pre-projection input for non-aggregate queries.
    let mut keys: Vec<Vec<Value>> = Vec::with_capacity(out.num_rows());
    for row in 0..out.num_rows() {
        let mut key = Vec::with_capacity(stmt.order_by.len());
        for (expr, _) in &stmt.order_by {
            let v = match eval_row(expr, Some(&out), row) {
                Ok(v) => v,
                Err(e) => match input {
                    Some(t) if t.num_rows() == out.num_rows() => eval_row(expr, Some(t), row)?,
                    _ => return Err(e),
                },
            };
            key.push(v);
        }
        keys.push(key);
    }
    let mut idx: Vec<usize> = (0..out.num_rows()).collect();
    idx.sort_by(|&a, &b| {
        for (ki, (_, desc)) in stmt.order_by.iter().enumerate() {
            let ord = keys[a][ki].total_cmp(&keys[b][ki]);
            let ord = if *desc { ord.reverse() } else { ord };
            if ord != std::cmp::Ordering::Equal {
                return ord;
            }
        }
        std::cmp::Ordering::Equal
    });
    Ok(out.take(&idx))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_sql::{parse, Statement};
    use mosaic_storage::{DataType, Field, Schema, TableBuilder};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("carrier", DataType::Str),
            Field::new("distance", DataType::Int),
            Field::new("elapsed", DataType::Float),
        ]);
        let mut b = TableBuilder::new(schema);
        for (c, d, e) in [
            ("AA", 100, 60.0),
            ("AA", 500, 120.0),
            ("WN", 900, 180.0),
            ("WN", 1500, 240.0),
            ("US", 300, 90.0),
        ] {
            b.push_row(vec![c.into(), (d as i64).into(), e.into()])
                .unwrap();
        }
        b.finish()
    }

    fn select(src: &str) -> SelectStmt {
        match parse(src).unwrap().pop().unwrap() {
            Statement::Select(s) => s,
            other => panic!("not a select: {other:?}"),
        }
    }

    #[test]
    fn simple_projection_and_filter() {
        let t = table();
        let out = run_select(
            &select("SELECT carrier, distance FROM t WHERE distance > 400"),
            &t,
            None,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.num_columns(), 2);
    }

    #[test]
    fn wildcard_preserves_all_columns() {
        let t = table();
        let out = run_select(&select("SELECT * FROM t"), &t, None).unwrap();
        assert_eq!(out.num_columns(), 3);
        assert_eq!(out.num_rows(), 5);
    }

    #[test]
    fn unweighted_aggregates() {
        let t = table();
        let out = run_select(
            &select(
                "SELECT COUNT(*), SUM(distance), AVG(elapsed), MIN(distance), MAX(distance) FROM t",
            ),
            &t,
            None,
        )
        .unwrap();
        assert_eq!(out.value(0, 0), Value::Int(5));
        assert_eq!(out.value(0, 1), Value::Int(3300));
        assert_eq!(out.value(0, 2), Value::Float(138.0));
        assert_eq!(out.value(0, 3), Value::Int(100));
        assert_eq!(out.value(0, 4), Value::Int(1500));
    }

    #[test]
    fn weighted_aggregates_match_rewrite() {
        let t = table();
        let w = [10.0, 10.0, 1.0, 1.0, 1.0];
        let out = run_select(
            &select("SELECT COUNT(*), AVG(distance) FROM t"),
            &t,
            Some(&w),
        )
        .unwrap();
        assert_eq!(out.value(0, 0), Value::Float(23.0));
        let avg = (10.0 * 100.0 + 10.0 * 500.0 + 900.0 + 1500.0 + 300.0) / 23.0;
        assert!((out.value(0, 1).as_f64().unwrap() - avg).abs() < 1e-9);
    }

    #[test]
    fn group_by_with_weights() {
        let t = table();
        let w = [2.0, 3.0, 1.0, 1.0, 5.0];
        let out = run_select(
            &select("SELECT carrier, COUNT(*) FROM t GROUP BY carrier ORDER BY carrier"),
            &t,
            Some(&w),
        )
        .unwrap();
        assert_eq!(out.num_rows(), 3);
        assert_eq!(out.value(0, 0), Value::Str("AA".into()));
        assert_eq!(out.value(0, 1), Value::Float(5.0));
        assert_eq!(out.value(1, 0), Value::Str("US".into()));
        assert_eq!(out.value(1, 1), Value::Float(5.0));
        assert_eq!(out.value(2, 1), Value::Float(2.0));
    }

    #[test]
    fn paper_query_shape() {
        // Query 5 of Table 2 (with the bracket IN list).
        let t = table();
        let out = run_select(
            &select("SELECT carrier, AVG(distance) FROM t WHERE elapsed > 100 AND carrier IN ['WN', 'AA'] GROUP BY carrier ORDER BY carrier"),
            &t,
            None,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, 1), Value::Float(500.0)); // AA: only the 500 row
        assert_eq!(out.value(1, 1), Value::Float(1200.0)); // WN: (900+1500)/2
    }

    #[test]
    fn aggregate_arithmetic() {
        let t = table();
        let out = run_select(&select("SELECT SUM(distance) / COUNT(*) FROM t"), &t, None).unwrap();
        assert_eq!(out.value(0, 0), Value::Float(660.0));
    }

    #[test]
    fn empty_group_semantics() {
        let t = table();
        let out = run_select(
            &select("SELECT COUNT(*), SUM(distance) FROM t WHERE distance > 99999"),
            &t,
            None,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 1);
        assert_eq!(out.value(0, 0), Value::Int(0));
        assert_eq!(out.value(0, 1), Value::Null);
    }

    #[test]
    fn group_by_empty_table_returns_no_groups() {
        let t = table();
        let out = run_select(
            &select("SELECT carrier, COUNT(*) FROM t WHERE distance > 99999 GROUP BY carrier"),
            &t,
            None,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 0);
    }

    #[test]
    fn projection_must_be_grouped() {
        let t = table();
        assert!(run_select(
            &select("SELECT elapsed, COUNT(*) FROM t GROUP BY carrier"),
            &t,
            None
        )
        .is_err());
    }

    #[test]
    fn order_by_aggregate_desc_and_limit() {
        let t = table();
        let out = run_select(
            &select("SELECT carrier, COUNT(*) AS c FROM t GROUP BY carrier ORDER BY c DESC, carrier LIMIT 2"),
            &t,
            None,
        )
        .unwrap();
        assert_eq!(out.num_rows(), 2);
        assert_eq!(out.value(0, 0), Value::Str("AA".into()));
        assert_eq!(out.value(1, 0), Value::Str("WN".into()));
    }

    #[test]
    fn alias_names_output() {
        let t = table();
        let out = run_select(&select("SELECT AVG(distance) AS avg_dist FROM t"), &t, None).unwrap();
        assert_eq!(out.schema().field(0).name, "avg_dist");
    }

    #[test]
    fn weight_length_mismatch_is_error() {
        let t = table();
        assert!(run_select(&select("SELECT COUNT(*) FROM t"), &t, Some(&[1.0])).is_err());
    }

    #[test]
    fn order_by_input_column_for_plain_select() {
        let t = table();
        let out = run_select(
            &select("SELECT carrier FROM t ORDER BY distance DESC LIMIT 1"),
            &t,
            None,
        )
        .unwrap();
        assert_eq!(out.value(0, 0), Value::Str("WN".into()));
    }
}
