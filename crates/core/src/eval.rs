//! Expression typing and scalar evaluation (SQL three-valued logic,
//! numeric coercion between `Int` and `Float`).
//!
//! [`expr_type`] is the one place that decides an expression's type and
//! its type error. The binder calls it on every expression of a
//! statement; the vectorized evaluator in [`crate::plan::vector`] calls it
//! on every expression it evaluates, which covers `?` values bound at
//! execution and plans that were never bound; [`eval_scalar`] calls it on
//! every expression it folds. A type error is [`MosaicError::Bind`] on
//! every path, whatever the data. The one error that depends on the data
//! is a comparison that meets a NaN ([`nan_comparison`]).
//!
//! [`eval_scalar`] evaluates an expression without column references to
//! one [`Value`]. Constant folding, INSERT VALUES, the vectorized
//! evaluator's scalar-with-scalar cases and the arithmetic over
//! per-group aggregate values all go through it, so the binary-operator
//! semantics are written once.

use std::cmp::Ordering;

use mosaic_sql::{AggFunc, BinOp, Expr, SelectItem, SelectStmt, UnaryOp};
use mosaic_storage::{DataType, Value};

use crate::plan::{has_aggregate_shape, output_name};
use crate::{MosaicError, Result};

/// The type `expr` evaluates to, or the error of its first ill-typed
/// node. `None` is the type of an expression whose only possible value
/// is NULL, or of a `?` not yet bound: it fits wherever any type does.
///
/// `column` resolves a column reference to its type (or the caller's
/// unknown-column error). With `aggregates` false an aggregate call is an
/// error; with it true (the items of an aggregate query) aggregate calls
/// are allowed and their arguments are typed as rows.
///
/// The rules: arithmetic and negation need numeric operands (`Int`,
/// `Float`); `=`, `<`, `IN` and `BETWEEN` need comparable ones (both
/// numeric, both `TEXT` or both `BOOL`); `NOT`, `AND` and `OR` need
/// `BOOL`; `SUM` and `AVG` need a numeric argument.
pub(crate) fn expr_type(
    expr: &Expr,
    column: &dyn Fn(&str) -> Result<DataType>,
    aggregates: bool,
) -> Result<Option<DataType>> {
    let ty = |e: &Expr| expr_type(e, column, aggregates);
    match expr {
        Expr::Literal(v) => Ok(v.data_type()),
        Expr::Column(name) => column(name).map(Some),
        Expr::Param(_) => Ok(None),
        Expr::Unary {
            op: UnaryOp::Neg,
            expr: e,
        } => {
            let t = ty(e)?;
            if !numeric(t) {
                return Err(type_error(format!("cannot negate {}", typed(e, t))));
            }
            Ok(t)
        }
        Expr::Unary {
            op: UnaryOp::Not,
            expr: e,
        } => {
            let t = ty(e)?;
            if !boolean(t) {
                return Err(type_error(format!("NOT of non-boolean {}", typed(e, t))));
            }
            Ok(Some(DataType::Bool))
        }
        Expr::Binary { left, op, right } => {
            let (lt, rt) = (ty(left)?, ty(right)?);
            match op {
                BinOp::And | BinOp::Or => {
                    for (e, t) in [(left, lt), (right, rt)] {
                        if !boolean(t) {
                            return Err(type_error(format!(
                                "logical operand must be boolean, got {}",
                                typed(e, t)
                            )));
                        }
                    }
                    Ok(Some(DataType::Bool))
                }
                BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => {
                    comparable(left, lt, right, rt)?;
                    Ok(Some(DataType::Bool))
                }
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
                    for (e, t) in [(left, lt), (right, rt)] {
                        if !numeric(t) {
                            return Err(type_error(format!(
                                "non-numeric operand {} of {expr}",
                                typed(e, t)
                            )));
                        }
                    }
                    Ok(match (lt, rt) {
                        (None, _) | (_, None) => None,
                        _ if *op == BinOp::Div => Some(DataType::Float),
                        (Some(DataType::Int), Some(DataType::Int)) => Some(DataType::Int),
                        _ => Some(DataType::Float),
                    })
                }
            }
        }
        Expr::InList { expr: e, list, .. } => {
            let t = ty(e)?;
            for item in list {
                comparable(e, t, item, ty(item)?)?;
            }
            Ok(Some(DataType::Bool))
        }
        Expr::Between {
            expr: e, low, high, ..
        } => {
            let t = ty(e)?;
            comparable(e, t, low, ty(low)?)?;
            comparable(e, t, high, ty(high)?)?;
            Ok(Some(DataType::Bool))
        }
        Expr::IsNull { expr: e, .. } => {
            ty(e)?;
            Ok(Some(DataType::Bool))
        }
        Expr::Agg { func, arg } => {
            if !aggregates {
                return Err(type_error(
                    "aggregate in a non-aggregate context".to_string(),
                ));
            }
            let Some(arg) = arg else {
                return Ok(Some(DataType::Int));
            };
            let t = expr_type(arg, column, false)?;
            match func {
                AggFunc::Count => Ok(Some(DataType::Int)),
                AggFunc::Sum | AggFunc::Avg if !numeric(t) => Err(type_error(format!(
                    "{} over non-numeric {}",
                    func.name(),
                    typed(arg, t)
                ))),
                AggFunc::Avg => Ok(Some(DataType::Float)),
                AggFunc::Sum | AggFunc::Min | AggFunc::Max => Ok(t),
            }
        }
    }
}

/// Type a predicate: [`expr_type`] plus the rule that a predicate is
/// `BOOL` (or NULL).
pub(crate) fn predicate_type(expr: &Expr, column: &dyn Fn(&str) -> Result<DataType>) -> Result<()> {
    let t = expr_type(expr, column, false)?;
    if !boolean(t) {
        return Err(type_error(format!(
            "predicate {} is not boolean",
            typed(expr, t)
        )));
    }
    Ok(())
}

/// Resolve and type every expression of a bound SELECT: the items (those
/// of an aggregate query may call aggregates), the WHERE predicate, the
/// GROUP BY keys, then the ORDER BY keys the way the sort resolves them:
/// against the SELECT's output columns and, for a projection, failing
/// that, against its input.
pub(crate) fn check_select(
    stmt: &SelectStmt,
    column: &dyn Fn(&str) -> Result<DataType>,
) -> Result<()> {
    let aggregate = has_aggregate_shape(stmt);
    let mut outputs = Vec::with_capacity(stmt.items.len());
    for item in &stmt.items {
        if let SelectItem::Expr { expr, .. } = item {
            // An output NULL on every row is an Int column.
            let t = expr_type(expr, column, aggregate)?.unwrap_or(DataType::Int);
            outputs.push((output_name(item), t));
        }
    }
    if let Some(w) = &stmt.where_clause {
        predicate_type(w, column)?;
    }
    for g in &stmt.group_by {
        expr_type(g, column, false)?;
    }
    let output = |c: &str| match outputs.iter().find(|(n, _)| n.eq_ignore_ascii_case(c)) {
        Some((_, t)) => Ok(*t),
        None if aggregate => Err(MosaicError::Bind(format!(
            "unknown column {c} in the aggregate's output"
        ))),
        None => column(c),
    };
    for (key, _) in &stmt.order_by {
        if let Err(e) = expr_type(key, &output, false) {
            if aggregate {
                return Err(e);
            }
            expr_type(key, column, false)?;
        }
    }
    Ok(())
}

fn numeric(t: Option<DataType>) -> bool {
    matches!(t, None | Some(DataType::Int | DataType::Float))
}

fn boolean(t: Option<DataType>) -> bool {
    matches!(t, None | Some(DataType::Bool))
}

/// `l` and `r` may be compared: either is NULL, both are numeric, or
/// both have the same type.
pub(crate) fn comparable(
    l: &Expr,
    lt: Option<DataType>,
    r: &Expr,
    rt: Option<DataType>,
) -> Result<()> {
    match (lt, rt) {
        (None, _) | (_, None) => Ok(()),
        (Some(a), Some(b)) if a == b || (numeric(lt) && numeric(rt)) => Ok(()),
        _ => Err(type_error(format!(
            "cannot compare {} with {}",
            typed(l, lt),
            typed(r, rt)
        ))),
    }
}

/// `expr (TYPE)`, the operand naming of a type error.
fn typed(expr: &Expr, t: Option<DataType>) -> String {
    match t {
        Some(t) => format!("{expr} ({t})"),
        None => expr.to_string(),
    }
}

fn type_error(msg: String) -> MosaicError {
    MosaicError::Bind(msg)
}

/// The error of a comparison that meets a NaN: `sql_cmp` orders no NaN,
/// so the comparison has no answer. Raised per row, by [`eval_scalar`]
/// and by the vectorized comparison kernels alike.
pub(crate) fn nan_comparison(l: &Value, r: &Value) -> MosaicError {
    MosaicError::Execution(format!("cannot compare {l} with {r}"))
}

/// The error of evaluating a `?` that was never bound to a value.
pub(crate) fn unbound_param(index: usize) -> MosaicError {
    MosaicError::Param(format!(
        "unbound parameter ?{}: supply values through a prepared statement",
        index + 1
    ))
}

/// Evaluate an expression with no column references to one value
/// (constant folding, INSERT VALUES literals). The expression is typed
/// first, so an ill-typed one fails with the binder's type error.
pub fn eval_scalar(expr: &Expr) -> Result<Value> {
    let no_columns = |c: &str| {
        Err(MosaicError::Execution(format!(
            "column {c} not allowed in this context"
        )))
    };
    expr_type(expr, &no_columns, false)?;
    eval_typed(expr)
}

/// Evaluate a well-typed constant expression. Both operands of every
/// operator are evaluated, so an error in either one is the
/// expression's error whatever the other decides.
fn eval_typed(expr: &Expr) -> Result<Value> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Param(i) => Err(unbound_param(*i)),
        Expr::Unary { op, expr } => Ok(match (op, eval_typed(expr)?) {
            (UnaryOp::Neg, Value::Int(i)) => Value::Int(i.wrapping_neg()),
            (UnaryOp::Neg, Value::Float(f)) => Value::Float(-f),
            (UnaryOp::Not, Value::Bool(b)) => Value::Bool(!b),
            _ => Value::Null,
        }),
        Expr::Binary { left, op, right } => {
            let (l, r) = (eval_typed(left)?, eval_typed(right)?);
            eval_binary(&l, *op, &r)
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            let v = eval_typed(expr)?;
            let items = list.iter().map(eval_typed).collect::<Result<Vec<_>>>()?;
            if v.is_null() {
                return Ok(Value::Null);
            }
            if items.iter().any(|c| v.sql_cmp(c) == Some(Ordering::Equal)) {
                Ok(Value::Bool(!negated))
            } else if items.iter().any(Value::is_null) {
                Ok(Value::Null)
            } else {
                Ok(Value::Bool(*negated))
            }
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            let (v, lo, hi) = (eval_typed(expr)?, eval_typed(low)?, eval_typed(high)?);
            match (v.sql_cmp(&lo), v.sql_cmp(&hi)) {
                (Some(a), Some(b)) => {
                    let inside = a != Ordering::Less && b != Ordering::Greater;
                    Ok(Value::Bool(inside != *negated))
                }
                _ => Ok(Value::Null),
            }
        }
        Expr::IsNull { expr, negated } => Ok(Value::Bool(eval_typed(expr)?.is_null() != *negated)),
        Expr::Column(_) | Expr::Agg { .. } => Err(MosaicError::Execution(format!(
            "{expr} cannot be evaluated without a row"
        ))),
    }
}

/// A binary operator over two values of types [`expr_type`] accepted.
fn eval_binary(l: &Value, op: BinOp, r: &Value) -> Result<Value> {
    if matches!(op, BinOp::And | BinOp::Or) {
        let as_bool = |v: &Value| match v {
            Value::Bool(b) => Some(*b),
            _ => None,
        };
        let (lb, rb) = (as_bool(l), as_bool(r));
        let decides = op == BinOp::Or;
        return Ok(if lb == Some(decides) || rb == Some(decides) {
            Value::Bool(decides)
        } else if lb.is_some() && rb.is_some() {
            Value::Bool(!decides)
        } else {
            Value::Null
        });
    }
    if l.is_null() || r.is_null() {
        return Ok(Value::Null);
    }
    let cmp = |holds: fn(Ordering) -> bool| match l.sql_cmp(r) {
        Some(ord) => Ok(Value::Bool(holds(ord))),
        None => Err(nan_comparison(l, r)),
    };
    match op {
        BinOp::Eq => cmp(Ordering::is_eq),
        BinOp::NotEq => cmp(Ordering::is_ne),
        BinOp::Lt => cmp(Ordering::is_lt),
        BinOp::LtEq => cmp(Ordering::is_le),
        BinOp::Gt => cmp(Ordering::is_gt),
        BinOp::GtEq => cmp(Ordering::is_ge),
        BinOp::And | BinOp::Or => unreachable!("handled above"),
        BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod => {
            // Integer arithmetic stays integral except for division.
            if let (Value::Int(a), Value::Int(b)) = (l, r) {
                return Ok(match op {
                    BinOp::Add => Value::Int(a.wrapping_add(*b)),
                    BinOp::Sub => Value::Int(a.wrapping_sub(*b)),
                    BinOp::Mul => Value::Int(a.wrapping_mul(*b)),
                    _ if *b == 0 => Value::Null,
                    BinOp::Div => Value::Float(*a as f64 / *b as f64),
                    _ => Value::Int(a % b),
                });
            }
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return Ok(Value::Null);
            };
            Ok(match op {
                BinOp::Add => Value::Float(a + b),
                BinOp::Sub => Value::Float(a - b),
                BinOp::Mul => Value::Float(a * b),
                _ if b == 0.0 => Value::Null,
                BinOp::Div => Value::Float(a / b),
                _ => Value::Float(a % b),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_sql::parse_expr;

    fn eval(src: &str) -> Result<Value> {
        eval_scalar(&parse_expr(src).unwrap())
    }

    #[test]
    fn comparisons_and_logic() {
        assert_eq!(eval("2 > 1 AND 'a' = 'a'").unwrap(), Value::Bool(true));
        assert_eq!(eval("1 = 2 OR 'a' = 'b'").unwrap(), Value::Bool(false));
        assert_eq!(eval("NOT 2 = 2").unwrap(), Value::Bool(false));
        assert_eq!(eval("'a' < 'b'").unwrap(), Value::Bool(true));
        assert_eq!(eval("false < true").unwrap(), Value::Bool(true));
        assert_eq!(eval("2 >= 2.0").unwrap(), Value::Bool(true));
    }

    #[test]
    fn null_excluded_from_predicates() {
        // A comparison with NULL is NULL, which a predicate excludes.
        assert_eq!(eval("NULL < 100").unwrap(), Value::Null);
        assert_eq!(eval("'a' = NULL").unwrap(), Value::Null);
        assert_eq!(eval("NULL IS NULL").unwrap(), Value::Bool(true));
        assert_eq!(eval("1 IS NOT NULL").unwrap(), Value::Bool(true));
    }

    #[test]
    fn in_list_and_between() {
        assert_eq!(eval("'a' IN ('a', 'z')").unwrap(), Value::Bool(true));
        assert_eq!(eval("'b' NOT IN ('a')").unwrap(), Value::Bool(true));
        assert_eq!(eval("2 IN (1.0, 2.0)").unwrap(), Value::Bool(true));
        assert_eq!(eval("2 BETWEEN 2 AND 3").unwrap(), Value::Bool(true));
        assert_eq!(eval("1 NOT BETWEEN 2 AND 3").unwrap(), Value::Bool(true));
        assert_eq!(eval("'b' BETWEEN 'a' AND 'c'").unwrap(), Value::Bool(true));
    }

    #[test]
    fn arithmetic_types() {
        assert_eq!(eval("2 * 3").unwrap(), Value::Int(6));
        assert_eq!(eval("7 % 2").unwrap(), Value::Int(1));
        assert_eq!(eval("7 / 2").unwrap(), Value::Float(3.5));
        assert_eq!(eval("1 + 0.5").unwrap(), Value::Float(1.5));
        assert_eq!(eval("-(2 - 5)").unwrap(), Value::Int(3));
        assert_eq!(eval("NULL + 1").unwrap(), Value::Null);
    }

    #[test]
    fn aggregates_rejected_here() {
        assert!(eval("COUNT(*)").is_err());
        assert!(eval("SUM(1) + 1").is_err());
    }

    #[test]
    fn division_by_zero_is_null() {
        assert_eq!(eval("1 / 0").unwrap(), Value::Null);
        assert_eq!(eval("5 / 2").unwrap(), Value::Float(2.5));
        assert_eq!(eval("5 % 0").unwrap(), Value::Null);
    }

    #[test]
    fn scalar_rejects_columns() {
        assert!(eval("x + 1").is_err());
        assert_eq!(eval("2 + 3").unwrap(), Value::Int(5));
    }

    #[test]
    fn three_valued_logic() {
        assert_eq!(eval("NULL OR true").unwrap(), Value::Bool(true));
        assert_eq!(eval("true OR NULL").unwrap(), Value::Bool(true));
        assert_eq!(eval("NULL AND true").unwrap(), Value::Null);
        assert_eq!(eval("false AND NULL").unwrap(), Value::Bool(false));
        assert_eq!(eval("NULL AND false").unwrap(), Value::Bool(false));
        assert_eq!(eval("NOT NULL").unwrap(), Value::Null);
        assert_eq!(eval("1 IN (2, NULL)").unwrap(), Value::Null);
        assert_eq!(eval("1 IN (1, NULL)").unwrap(), Value::Bool(true));
        assert_eq!(eval("1 BETWEEN NULL AND 5").unwrap(), Value::Null);
    }

    #[test]
    fn type_errors_are_bind_errors_whatever_the_values() {
        for src in [
            "'x' > 3",
            "'x' + 1",
            "true + 1",
            "NULL + 'x'",
            "-'x'",
            "NOT 1",
            "1 AND true",
            "'a' IN (1, 2)",
            "1 BETWEEN 'a' AND 'b'",
            "true = 1",
        ] {
            let err = eval(src).unwrap_err();
            assert!(matches!(err, MosaicError::Bind(_)), "{src}: {err}");
        }
        assert_eq!(
            eval("'x' > 3").unwrap_err().to_string(),
            "bind error: cannot compare 'x' (TEXT) with 3 (INT)"
        );
    }

    #[test]
    fn typing_rules() {
        let schema = |c: &str| match c {
            "i" => Ok(DataType::Int),
            "f" => Ok(DataType::Float),
            "s" => Ok(DataType::Str),
            "b" => Ok(DataType::Bool),
            _ => Err(MosaicError::Bind(format!("unknown column {c}"))),
        };
        let ty = |src: &str, aggregates| expr_type(&parse_expr(src).unwrap(), &schema, aggregates);
        assert_eq!(ty("i + 1", false).unwrap(), Some(DataType::Int));
        assert_eq!(ty("i / 2", false).unwrap(), Some(DataType::Float));
        assert_eq!(ty("i + f", false).unwrap(), Some(DataType::Float));
        assert_eq!(ty("i + ?", false).unwrap(), None);
        assert_eq!(
            ty("b = true AND s < 'x'", false).unwrap(),
            Some(DataType::Bool)
        );
        assert_eq!(ty("AVG(i)", true).unwrap(), Some(DataType::Float));
        assert_eq!(ty("MIN(s)", true).unwrap(), Some(DataType::Str));
        assert!(ty("COUNT(*)", false).is_err());
        assert!(ty("SUM(s)", true).is_err());
        assert!(ty("SUM(b)", true).is_err());
        assert!(ty("nope = 1", false).is_err());
        let pred = |src: &str| predicate_type(&parse_expr(src).unwrap(), &schema);
        assert!(pred("b").is_ok());
        assert!(pred("NULL").is_ok());
        assert!(pred("i").is_err());
    }

    #[test]
    fn nan_comparisons_error_and_between_is_null() {
        let nan = |src: &str| {
            let mut e = parse_expr(src).unwrap();
            e = e.bind_params(&[Value::Float(f64::NAN)]).unwrap();
            eval_scalar(&e)
        };
        let err = nan("? > 0").unwrap_err();
        assert!(matches!(err, MosaicError::Execution(_)), "{err}");
        assert_eq!(
            err.to_string(),
            "execution error: cannot compare NaN with 0"
        );
        assert_eq!(nan("? BETWEEN 0 AND 2").unwrap(), Value::Null);
        assert_eq!(nan("? IN (1.0)").unwrap(), Value::Bool(false));
        // An error in either operand is the expression's error.
        assert!(nan("false AND ? > 0").is_err());
    }
}
