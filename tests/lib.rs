//! Integration-test crate: the tests live under `tests/`; this library
//! holds the row-at-a-time oracle they compare the engine against.

pub mod oracle {
    //! The row-at-a-time reference the equivalence suites compare the
    //! vectorized engine against: a SELECT over one table
    //! ([`run_select_rowwise`]) and an equi-join of two
    //! ([`reference_join_kinded`]).
    //!
    //! Per row, the oracle substitutes the row's column values for the
    //! column references and evaluates the result with
    //! [`mosaic_core::eval_scalar`], the engine's one scalar evaluator,
    //! so the operator semantics are written once. Everything else —
    //! the row loop, grouping, aggregation, ordering, the nested-loop
    //! join — is written here, independently of the engine's vectorized
    //! kernels, morsels and hash tables.
    //!
    //! The oracle types values, not columns: a type error shows only at
    //! a row whose values are not NULL, where the engine's binder
    //! reports it for every table. The suites compare well-typed
    //! statements.

    use std::cmp::Ordering;
    use std::collections::HashMap;

    use mosaic_core::{eval_scalar, Expr, JoinKind, MosaicError, Result, SelectStmt};
    use mosaic_sql::{AggFunc, SelectItem};
    use mosaic_storage::{Bitmap, Column, ColumnBuilder, DataType, Field, Schema, Table, Value};

    /// `expr` with every column reference replaced by its value at `row`.
    fn substitute(expr: &Expr, table: &Table, row: usize) -> Result<Expr> {
        let sub = |e: &Expr| substitute(e, table, row).map(Box::new);
        Ok(match expr {
            Expr::Column(name) => Expr::Literal(table.column_by_name(name)?.value(row)),
            Expr::Literal(_) | Expr::Param(_) => expr.clone(),
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: sub(expr)?,
            },
            Expr::Binary { left, op, right } => Expr::Binary {
                left: sub(left)?,
                op: *op,
                right: sub(right)?,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: sub(expr)?,
                list: list
                    .iter()
                    .map(|e| substitute(e, table, row))
                    .collect::<Result<_>>()?,
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: sub(expr)?,
                low: sub(low)?,
                high: sub(high)?,
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: sub(expr)?,
                negated: *negated,
            },
            Expr::Agg { .. } => expr.clone(),
        })
    }

    /// Evaluate `expr` at one row of `table`.
    fn eval_row(expr: &Expr, table: &Table, row: usize) -> Result<Value> {
        eval_scalar(&substitute(expr, table, row)?)
    }

    /// A column holding `values`: typed by the first non-NULL value, an
    /// Int column widening to Float when a Float shows, Int when every
    /// value is NULL.
    fn column_of(values: Vec<Value>) -> Result<Column> {
        let mut ty = None;
        for v in &values {
            match (ty, v.data_type()) {
                (None, Some(t)) => ty = Some(t),
                (Some(DataType::Int), Some(DataType::Float)) => ty = Some(DataType::Float),
                _ => {}
            }
        }
        let ty = ty.unwrap_or(DataType::Int);
        let mut b = ColumnBuilder::with_capacity(ty, values.len());
        for v in values {
            b.push(match (v, ty) {
                (Value::Int(i), DataType::Float) => Value::Float(i as f64),
                (v, _) => v,
            })?;
        }
        Ok(b.finish())
    }

    /// Evaluate an expression for every row of `table`.
    pub fn eval_expr_rowwise(expr: &Expr, table: &Table) -> Result<Column> {
        let values = (0..table.num_rows())
            .map(|row| eval_row(expr, table, row))
            .collect::<Result<_>>()?;
        column_of(values)
    }

    /// Evaluate a predicate into a selection bitmap (NULL ⇒ excluded).
    pub fn eval_predicate_rowwise(expr: &Expr, table: &Table) -> Result<Bitmap> {
        let n = table.num_rows();
        let mut bm = Bitmap::zeros(n);
        for row in 0..n {
            if eval_row(expr, table, row)? == Value::Bool(true) {
                bm.set(row, true);
            }
        }
        Ok(bm)
    }

    fn output_name(item: &SelectItem) -> String {
        match item {
            SelectItem::Wildcard => "*".into(),
            SelectItem::Expr { expr, alias } => {
                alias.clone().unwrap_or_else(|| expr.default_name())
            }
        }
    }

    /// Row-at-a-time SELECT over one table: WHERE, then GROUP BY and
    /// aggregates (weighted by `weights`, the paper's §5.3 rewrite) or a
    /// projection, then ORDER BY and LIMIT.
    pub fn run_select_rowwise(
        stmt: &SelectStmt,
        table: &Table,
        weights: Option<&[f64]>,
    ) -> Result<Table> {
        if let Some(w) = weights.filter(|w| w.len() != table.num_rows()) {
            return Err(MosaicError::Execution(format!(
                "weight vector length {} != table rows {}",
                w.len(),
                table.num_rows()
            )));
        }
        let (filtered, fweights): (Table, Option<Vec<f64>>) = match &stmt.where_clause {
            Some(pred) => {
                let idx = eval_predicate_rowwise(pred, table)?.to_indices();
                let w = weights.map(|w| idx.iter().map(|&i| w[i]).collect());
                (table.take(&idx), w)
            }
            None => (table.clone(), weights.map(|w| w.to_vec())),
        };
        let has_agg = !stmt.group_by.is_empty()
            || stmt.items.iter().any(|item| match item {
                SelectItem::Expr { expr, .. } => expr.contains_aggregate(),
                SelectItem::Wildcard => false,
            });
        let mut out = if has_agg {
            aggregate(stmt, &filtered, fweights.as_deref())?
        } else {
            project(stmt, &filtered)?
        };
        if !stmt.order_by.is_empty() {
            out = order_by(stmt, out, (!has_agg).then_some(&filtered))?;
        }
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
                    let col = eval_expr_rowwise(expr, table)?;
                    fields.push(Field::new(output_name(item), col.data_type()));
                    columns.push(col);
                }
            }
        }
        Ok(Table::new(Schema::new(fields), columns)?)
    }

    fn aggregate(stmt: &SelectStmt, table: &Table, weights: Option<&[f64]>) -> Result<Table> {
        // Groups in order of first appearance.
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
                    .map(|e| eval_row(e, table, row))
                    .collect::<Result<_>>()?;
                let gi = *index.entry(key.clone()).or_insert_with(|| {
                    group_keys.push(key);
                    group_rows.push(Vec::new());
                    group_keys.len() - 1
                });
                group_rows[gi].push(row);
            }
        }
        let mut fields = Vec::with_capacity(stmt.items.len());
        let mut columns = Vec::with_capacity(stmt.items.len());
        for item in &stmt.items {
            let expr = match item {
                SelectItem::Wildcard => {
                    return Err(MosaicError::Execution(
                        "SELECT * cannot be combined with GROUP BY / aggregates".into(),
                    ))
                }
                SelectItem::Expr { expr, .. } => expr,
            };
            let values = if expr.contains_aggregate() {
                group_rows
                    .iter()
                    .map(|rows| eval_agg_expr(expr, table, rows, weights))
                    .collect::<Result<_>>()?
            } else {
                let pos = stmt
                    .group_by
                    .iter()
                    .position(|g| g == expr)
                    .ok_or_else(|| {
                        MosaicError::Execution(format!(
                            "projection {expr} is neither an aggregate nor a GROUP BY expression"
                        ))
                    })?;
                group_keys.iter().map(|key| key[pos].clone()).collect()
            };
            let col = column_of(values)?;
            fields.push(Field::new(output_name(item), col.data_type()));
            columns.push(col);
        }
        Ok(Table::new(Schema::new(fields), columns)?)
    }

    /// Evaluate an expression that contains aggregates, for one group.
    fn eval_agg_expr(
        expr: &Expr,
        table: &Table,
        rows: &[usize],
        weights: Option<&[f64]>,
    ) -> Result<Value> {
        let literal =
            |e: &Expr| eval_agg_expr(e, table, rows, weights).map(|v| Box::new(Expr::Literal(v)));
        match expr {
            Expr::Agg { func, arg } => {
                compute_aggregate(*func, arg.as_deref(), table, rows, weights)
            }
            Expr::Binary { left, op, right } => eval_scalar(&Expr::Binary {
                left: literal(left)?,
                op: *op,
                right: literal(right)?,
            }),
            Expr::Unary { op, expr } => eval_scalar(&Expr::Unary {
                op: *op,
                expr: literal(expr)?,
            }),
            Expr::Literal(v) => Ok(v.clone()),
            other => Err(MosaicError::Execution(format!(
                "expression {other} mixes aggregates with row-level terms"
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
        let Some(e) = arg else {
            if func != AggFunc::Count {
                return Err(MosaicError::Execution(format!(
                    "{}(*) requires an argument",
                    func.name()
                )));
            }
            let total = rows.iter().fold(0.0, |acc, &row| acc + weight_of(row));
            return Ok(match weights {
                None => Value::Int(total as i64),
                Some(_) => Value::Float(total),
            });
        };
        let mut values = Vec::with_capacity(rows.len());
        for &row in rows {
            let v = eval_row(e, table, row)?;
            if !v.is_null() {
                values.push((row, v));
            }
        }
        match func {
            AggFunc::Count => {
                let total = values
                    .iter()
                    .fold(0.0, |acc, (row, _)| acc + weight_of(*row));
                Ok(match weights {
                    None => Value::Int(total as i64),
                    Some(_) => Value::Float(total),
                })
            }
            AggFunc::Sum | AggFunc::Avg => {
                if values.is_empty() {
                    return Ok(Value::Null);
                }
                let ints: Option<Vec<i64>> = values
                    .iter()
                    .map(|(_, v)| match v {
                        Value::Int(i) => Some(*i),
                        _ => None,
                    })
                    .collect();
                if let (None, Some(ints)) = (weights, ints) {
                    // An unweighted sum of INTs is exact: INT when it
                    // fits, an error naming the aggregate when it does
                    // not; AVG divides the exact sum once.
                    let sum: i128 = ints.iter().map(|&i| i128::from(i)).sum();
                    return match func {
                        AggFunc::Sum => i64::try_from(sum).map(Value::Int).map_err(|_| {
                            MosaicError::Execution(format!(
                                "{}({e}) overflows INT: the exact sum {sum} does not fit in 64 \
                                 bits",
                                func.name()
                            ))
                        }),
                        _ => Ok(Value::Float(sum as f64 / ints.len() as f64)),
                    };
                }
                let (mut num, mut den) = (0.0, 0.0);
                for (row, v) in &values {
                    let x = match v {
                        Value::Int(i) => *i as f64,
                        Value::Float(f) => *f,
                        _ => {
                            return Err(MosaicError::Execution(format!(
                                "{} over non-numeric value",
                                func.name()
                            )))
                        }
                    };
                    num += weight_of(*row) * x;
                    den += weight_of(*row);
                }
                Ok(match func {
                    AggFunc::Sum => Value::Float(num),
                    _ => Value::Float(num / den),
                })
            }
            AggFunc::Min | AggFunc::Max => {
                let mut best: Option<Value> = None;
                for (_, v) in values {
                    // First wins on ties and on incomparable values.
                    let keep_new = best.as_ref().is_none_or(|b| match v.sql_cmp(b) {
                        Some(Ordering::Less) => func == AggFunc::Min,
                        Some(Ordering::Greater) => func == AggFunc::Max,
                        _ => false,
                    });
                    if keep_new {
                        best = Some(v);
                    }
                }
                Ok(best.unwrap_or(Value::Null))
            }
        }
    }

    /// Stable sort on the ORDER BY keys, each resolved against the output
    /// table first and, for a projection, against the filtered input. A
    /// key naming a column neither has is an error even over no rows.
    fn order_by(stmt: &SelectStmt, out: Table, input: Option<&Table>) -> Result<Table> {
        for (expr, _) in &stmt.order_by {
            for c in expr.referenced_columns() {
                if !out.schema().contains(&c) {
                    input.unwrap_or(&out).column_by_name(&c)?;
                }
            }
        }
        let mut keys: Vec<Vec<Value>> = Vec::with_capacity(out.num_rows());
        for row in 0..out.num_rows() {
            let mut key = Vec::with_capacity(stmt.order_by.len());
            for (expr, _) in &stmt.order_by {
                let v = match eval_row(expr, &out, row) {
                    Ok(v) => v,
                    Err(e) => match input {
                        Some(t) if t.num_rows() == out.num_rows() => eval_row(expr, t, row)?,
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
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        Ok(out.take(&idx))
    }

    /// Row-at-a-time INNER equi-join: [`reference_join_kinded`] with no
    /// weighted side.
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

    /// Row-at-a-time equi-join covering every join the engine runs:
    /// INNER or LEFT OUTER, with optional per-side correction weights.
    ///
    /// A nested loop with the left side outermost: rows join iff every
    /// `(left key, right key)` pair is equal under `sql_cmp` (NULL and
    /// NaN keys never match), and output rows appear in (left row, right
    /// row) order. Key expressions are written in each side's own column
    /// names. Output columns are every column of both sides, bare-named
    /// when the name is unique across them, `binding.column` otherwise.
    ///
    /// A LEFT OUTER join keeps every unmatched left row once, at its left
    /// position, NULL-extended on the right. When `weighted` names both
    /// sides (`[0, 1]`), the two `weight` columns collapse into one
    /// `weight` output at the left side's position: the product of the
    /// sides' weights, NULL when either factor is NULL or the right side
    /// is NULL-extended.
    pub fn reference_join_kinded(
        left: &Table,
        left_binding: &str,
        right: &Table,
        right_binding: &str,
        keys: &[(Expr, Expr)],
        kind: JoinKind,
        weighted: &[usize],
    ) -> Result<Table> {
        let key_values = |side: &Table, exprs: Vec<&Expr>| -> Result<Vec<Vec<Value>>> {
            (0..side.num_rows())
                .map(|row| exprs.iter().map(|e| eval_row(e, side, row)).collect())
                .collect()
        };
        let lk = key_values(left, keys.iter().map(|(l, _)| l).collect())?;
        let rk = key_values(right, keys.iter().map(|(_, r)| r).collect())?;
        let mut pairs: Vec<(usize, Option<usize>)> = Vec::new();
        for (lr, lkey) in lk.iter().enumerate() {
            let before = pairs.len();
            for (rr, rkey) in rk.iter().enumerate() {
                let equal = lkey
                    .iter()
                    .zip(rkey)
                    .all(|(a, b)| a.sql_cmp(b) == Some(Ordering::Equal));
                if equal {
                    pairs.push((lr, Some(rr)));
                }
            }
            if pairs.len() == before && kind == JoinKind::LeftOuter {
                pairs.push((lr, None));
            }
        }
        let combine = weighted.len() > 1;
        let is_weight = |name: &str| name.eq_ignore_ascii_case("weight");
        let sides = [(left_binding, left), (right_binding, right)];
        let mut counts: HashMap<String, usize> = HashMap::new();
        for (source, (_, t)) in sides.iter().enumerate() {
            for f in t.schema().fields() {
                if !(combine && source == 1 && is_weight(&f.name)) {
                    *counts.entry(f.name.to_ascii_lowercase()).or_default() += 1;
                }
            }
        }
        let value = |source: usize, col: usize, pair: &(usize, Option<usize>)| match source {
            0 => left.column(col).value(pair.0),
            _ => pair.1.map_or(Value::Null, |rr| right.column(col).value(rr)),
        };
        let mut fields = Vec::new();
        let mut columns = Vec::new();
        for (source, (binding, t)) in sides.iter().enumerate() {
            for (ci, f) in t.schema().fields().iter().enumerate() {
                let (name, values): (String, Vec<Value>) = if combine && is_weight(&f.name) {
                    if source == 1 {
                        continue;
                    }
                    let rw = right.schema().index_of("weight")?;
                    let product = |p: &(usize, Option<usize>)| match (
                        value(0, ci, p).as_f64(),
                        value(1, rw, p).as_f64(),
                    ) {
                        (Some(a), Some(b)) => Value::Float(a * b),
                        _ => Value::Null,
                    };
                    ("weight".into(), pairs.iter().map(product).collect())
                } else {
                    let name = if counts[&f.name.to_ascii_lowercase()] > 1 {
                        format!("{binding}.{}", f.name)
                    } else {
                        f.name.clone()
                    };
                    (name, pairs.iter().map(|p| value(source, ci, p)).collect())
                };
                let ty = if combine && name == "weight" {
                    DataType::Float
                } else {
                    f.data_type
                };
                let mut b = ColumnBuilder::with_capacity(ty, values.len());
                for v in values {
                    b.push(v)?;
                }
                fields.push(Field::new(name, ty));
                columns.push(b.finish());
            }
        }
        Ok(Table::new(Schema::new(fields), columns)?)
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use mosaic_sql::parse_expr;
        use mosaic_storage::TableBuilder;

        fn table() -> Table {
            let schema = Schema::new(vec![
                Field::new("x", DataType::Int),
                Field::new("s", DataType::Str),
                Field::new("f", DataType::Float),
            ]);
            let mut b = TableBuilder::new(schema);
            b.push_row(vec![1.into(), "a".into(), 0.5.into()]).unwrap();
            b.push_row(vec![2.into(), "b".into(), 1.5.into()]).unwrap();
            b.push_row(vec![3.into(), "a".into(), Value::Null]).unwrap();
            b.finish()
        }

        fn pred(src: &str, t: &Table) -> Vec<usize> {
            eval_predicate_rowwise(&parse_expr(src).unwrap(), t)
                .unwrap()
                .to_indices()
        }

        #[test]
        fn rowwise_predicates() {
            let t = table();
            assert_eq!(pred("x > 1", &t), vec![1, 2]);
            assert_eq!(pred("x > 1 AND s = 'a'", &t), vec![2]);
            assert_eq!(pred("x = 1 OR s = 'b'", &t), vec![0, 1]);
            assert_eq!(pred("NOT x = 2", &t), vec![0, 2]);
            // f is NULL in row 2: the comparison is NULL, excluded.
            assert_eq!(pred("f < 100", &t), vec![0, 1]);
            assert_eq!(pred("f IS NULL", &t), vec![2]);
            assert_eq!(pred("s IN ('a', 'z')", &t), vec![0, 2]);
            assert_eq!(pred("s NOT IN ('a')", &t), vec![1]);
            assert_eq!(pred("x NOT BETWEEN 2 AND 3", &t), vec![0]);
            assert_eq!(pred("f > 0 OR x = 3", &t), vec![0, 1, 2]);
        }

        #[test]
        fn rowwise_column_types() {
            let t = table();
            let c = eval_expr_rowwise(&parse_expr("x * 2").unwrap(), &t).unwrap();
            assert_eq!(c.data_type(), DataType::Int);
            assert_eq!(c.value(2), Value::Int(6));
            let c = eval_expr_rowwise(&parse_expr("x + f").unwrap(), &t).unwrap();
            assert_eq!(c.data_type(), DataType::Float);
            assert!(c.is_null(2));
            assert!(eval_expr_rowwise(&parse_expr("COUNT(*)").unwrap(), &t).is_err());
        }

        #[test]
        fn reference_join_canonical_order_and_null_keys() {
            let mk = |fields: Vec<Field>, rows: Vec<Vec<Value>>| {
                let mut b = TableBuilder::new(Schema::new(fields));
                for row in rows {
                    b.push_row(row).unwrap();
                }
                b.finish()
            };
            let left = mk(
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
            let right = mk(
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
            let vs: Vec<(Value, Value)> =
                (0..4).map(|r| (out.value(r, 1), out.value(r, 3))).collect();
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
    }
}
