//! Vectorized expression evaluation over columnar tables — the engine's
//! one row evaluator.
//!
//! Each entry point first types its expression against the table's
//! schema with `expr_type`, the binder's function, so an ill-typed
//! expression fails with the binder's error on an empty table as on a
//! full one. Every well-typed shape then lowers onto the typed kernels
//! of `mosaic_storage::kernels`: numeric arithmetic and comparisons,
//! string and boolean comparisons, boolean logic in three-valued form,
//! `IN` lists, `BETWEEN` and `IS NULL`. Every operand of every operator
//! is evaluated in full, so an error in either operand of `AND` / `OR`
//! is the expression's error.
//!
//! The one error that depends on the data is a comparison that meets a
//! NaN: the kernel raises that error for the first such row,
//! naming that row's values. At a NaN, `BETWEEN` answers NULL and an
//! `IN` item does not match, as [`crate::eval_scalar`] does.

use std::borrow::Cow;

use mosaic_sql::{BinOp, Expr, UnaryOp};
use mosaic_storage::kernels::{self, CmpOp, FloatArithOp, IntArithOp};
use mosaic_storage::{Bitmap, Column, ColumnBuilder, DataType, Dictionary, Table, Value};

use crate::eval::{eval_scalar, expr_type, nan_comparison, predicate_type, unbound_param};
use crate::{MosaicError, Result};

/// A three-valued-logic boolean vector: row `i` is TRUE iff
/// `truth[i] && valid[i]`, FALSE iff `!truth[i] && valid[i]`, and NULL
/// (unknown) iff `!valid[i]`. `valid = None` means every row is known.
pub(crate) struct BoolVec {
    truth: Bitmap,
    valid: Option<Bitmap>,
}

impl BoolVec {
    fn all_known(truth: Bitmap) -> BoolVec {
        BoolVec { truth, valid: None }
    }

    fn constant(b: bool, n: usize) -> BoolVec {
        BoolVec::all_known(if b { Bitmap::ones(n) } else { Bitmap::zeros(n) })
    }

    fn all_null(n: usize) -> BoolVec {
        BoolVec {
            truth: Bitmap::zeros(n),
            valid: Some(Bitmap::zeros(n)),
        }
    }

    fn known_true(&self) -> Bitmap {
        match &self.valid {
            None => self.truth.clone(),
            Some(v) => self.truth.and(v),
        }
    }

    fn known_false(&self) -> Bitmap {
        match &self.valid {
            None => self.truth.not(),
            Some(v) => self.truth.not().and(v),
        }
    }

    /// Selection bitmap under SQL predicate semantics (NULL ⇒ excluded).
    pub(crate) fn selection(&self) -> Bitmap {
        self.known_true()
    }
}

/// A numeric intermediate: either a scalar (splat lazily) or a typed
/// vector with optional validity.
enum Num<'a> {
    ScalarInt(i64),
    ScalarFloat(f64),
    /// A literal NULL (propagates to every row).
    ScalarNull,
    Int(Cow<'a, [i64]>, Option<Bitmap>),
    Float(Cow<'a, [f64]>, Option<Bitmap>),
}

impl Num<'_> {
    fn validity(&self) -> Option<&Bitmap> {
        match self {
            Num::Int(_, v) | Num::Float(_, v) => v.as_ref(),
            _ => None,
        }
    }
}

// ---- public entry points ----

/// Evaluate a predicate into a selection bitmap (NULL ⇒ excluded).
pub fn eval_predicate(expr: &Expr, table: &Table) -> Result<Bitmap> {
    predicate_type(expr, &|c| Ok(table.column_by_name(c)?.data_type()))?;
    Ok(eval_bool(expr, table)?.selection())
}

/// Evaluate an expression into one value per row of `table`.
///
/// A column none of whose values shows (an empty table, or NULL on every
/// row) is an Int column: the type a row-at-a-time evaluation infers
/// from the values it sees has nothing to go on there.
pub fn eval_expr(expr: &Expr, table: &Table) -> Result<Column> {
    let ty = table_type(expr, table)?;
    let n = table.num_rows();
    if n == 0 {
        return Ok(ColumnBuilder::new(DataType::Int).finish());
    }
    let col = match expr {
        Expr::Column(name) => table.column_by_name(name)?.clone(),
        Expr::Literal(v) => splat_value(v, n),
        _ if ty == Some(DataType::Bool) => bool_to_column(eval_bool(expr, table)?),
        _ => num_to_column(eval_num(expr, table)?, n),
    };
    if col.null_count() == n && col.data_type() != DataType::Int {
        return Ok(Column::from_i64_opt(vec![0; n], Some(Bitmap::zeros(n))));
    }
    Ok(col)
}

/// The type of `expr` over `table`'s columns.
fn table_type(expr: &Expr, table: &Table) -> Result<Option<DataType>> {
    expr_type(expr, &|c| Ok(table.column_by_name(c)?.data_type()), false)
}

/// The error for an operand shape [`expr_type`] rejects, should one
/// reach a kernel without it.
fn mistyped(expr: &Expr) -> MosaicError {
    MosaicError::Execution(format!("no kernel evaluates {expr} with its operand types"))
}

fn splat_value(v: &Value, n: usize) -> Column {
    match v {
        Value::Null => Column::from_i64_opt(vec![0; n], Some(Bitmap::zeros(n))),
        Value::Bool(b) => Column::from_bool(vec![*b; n]),
        Value::Int(i) => Column::from_i64(vec![*i; n]),
        Value::Float(f) => Column::from_f64(vec![*f; n]),
        Value::Str(s) => Column::from_str(vec![s.clone(); n]),
    }
}

fn num_to_column(num: Num<'_>, n: usize) -> Column {
    match num {
        Num::ScalarInt(i) => Column::from_i64(vec![i; n]),
        Num::ScalarFloat(f) => Column::from_f64(vec![f; n]),
        Num::ScalarNull => Column::from_i64_opt(vec![0; n], Some(Bitmap::zeros(n))),
        Num::Int(d, v) => Column::from_i64_opt(d.into_owned(), v),
        Num::Float(d, v) => Column::from_f64_opt(d.into_owned(), v),
    }
}

fn bool_to_column(bv: BoolVec) -> Column {
    let data: Vec<bool> = (0..bv.truth.len()).map(|i| bv.truth.get(i)).collect();
    Column::from_bool_opt(data, bv.valid)
}

// ---- numeric expression lowering ----

fn eval_num<'a>(expr: &'a Expr, table: &'a Table) -> Result<Num<'a>> {
    Ok(match expr {
        Expr::Literal(Value::Int(i)) => Num::ScalarInt(*i),
        Expr::Literal(Value::Float(f)) => Num::ScalarFloat(*f),
        Expr::Literal(Value::Null) => Num::ScalarNull,
        Expr::Param(i) => return Err(unbound_param(*i)),
        Expr::Column(name) => {
            let col = table.column_by_name(name)?;
            let valid = col.validity().cloned();
            match (col.i64_data(), col.f64_data()) {
                (Some(d), _) => Num::Int(Cow::Borrowed(d), valid),
                (_, Some(d)) => Num::Float(Cow::Borrowed(d), valid),
                _ => return Err(mistyped(expr)),
            }
        }
        Expr::Unary {
            op: UnaryOp::Neg,
            expr,
        } => match eval_num(expr, table)? {
            Num::ScalarInt(i) => Num::ScalarInt(i.wrapping_neg()),
            Num::ScalarFloat(f) => Num::ScalarFloat(-f),
            Num::ScalarNull => Num::ScalarNull,
            Num::Int(d, v) => Num::Int(Cow::Owned(kernels::neg_i64(&d)), v),
            Num::Float(d, v) => Num::Float(Cow::Owned(kernels::neg_f64(&d)), v),
        },
        Expr::Binary { left, op, right }
            if matches!(
                op,
                BinOp::Add | BinOp::Sub | BinOp::Mul | BinOp::Div | BinOp::Mod
            ) =>
        {
            let l = eval_num(left, table)?;
            let r = eval_num(right, table)?;
            num_binary(l, *op, r).ok_or_else(|| mistyped(expr))?
        }
        _ => return Err(mistyped(expr)),
    })
}

/// Scalar∘scalar arithmetic through the scalar evaluator (one definition
/// of Int/Int division, division by zero, …).
fn scalar_binary(l: Value, op: BinOp, r: Value) -> Option<Num<'static>> {
    let expr = Expr::Binary {
        left: Box::new(Expr::Literal(l)),
        op,
        right: Box::new(Expr::Literal(r)),
    };
    match eval_scalar(&expr).ok()? {
        Value::Int(i) => Some(Num::ScalarInt(i)),
        Value::Float(f) => Some(Num::ScalarFloat(f)),
        Value::Null => Some(Num::ScalarNull),
        _ => None,
    }
}

fn scalar_value(num: &Num<'_>) -> Option<Value> {
    match num {
        Num::ScalarInt(i) => Some(Value::Int(*i)),
        Num::ScalarFloat(f) => Some(Value::Float(*f)),
        Num::ScalarNull => Some(Value::Null),
        _ => None,
    }
}

/// The value of a non-NULL numeric operand at `row`.
fn num_value(num: &Num<'_>, row: usize) -> Value {
    match num {
        Num::Int(d, _) => Value::Int(d[row]),
        Num::Float(d, _) => Value::Float(d[row]),
        scalar => scalar_value(scalar).unwrap_or(Value::Null),
    }
}

fn is_scalar(num: &Num<'_>) -> bool {
    scalar_value(num).is_some()
}

fn int_arith_op(op: BinOp) -> Option<IntArithOp> {
    match op {
        BinOp::Add => Some(IntArithOp::Add),
        BinOp::Sub => Some(IntArithOp::Sub),
        BinOp::Mul => Some(IntArithOp::Mul),
        _ => None,
    }
}

fn float_arith_op(op: BinOp) -> Option<FloatArithOp> {
    match op {
        BinOp::Add => Some(FloatArithOp::Add),
        BinOp::Sub => Some(FloatArithOp::Sub),
        BinOp::Mul => Some(FloatArithOp::Mul),
        _ => None,
    }
}

/// Materialize a numeric operand as `f64` data (widening ints, splatting
/// scalars to `len`).
fn to_f64_vec(num: &Num<'_>, len: usize) -> Option<Vec<f64>> {
    match num {
        Num::ScalarInt(i) => Some(vec![*i as f64; len]),
        Num::ScalarFloat(f) => Some(vec![*f; len]),
        Num::ScalarNull => None,
        Num::Int(d, _) => Some(kernels::widen_i64(d)),
        Num::Float(d, _) => Some(d.to_vec()),
    }
}

fn num_len(num: &Num<'_>) -> Option<usize> {
    match num {
        Num::Int(d, _) => Some(d.len()),
        Num::Float(d, _) => Some(d.len()),
        _ => None,
    }
}

fn num_binary<'a>(l: Num<'a>, op: BinOp, r: Num<'a>) -> Option<Num<'a>> {
    // NULL literal on either side nulls every row.
    if matches!(l, Num::ScalarNull) || matches!(r, Num::ScalarNull) {
        return Some(Num::ScalarNull);
    }
    if is_scalar(&l) && is_scalar(&r) {
        return scalar_binary(scalar_value(&l)?, op, scalar_value(&r)?);
    }
    let len = num_len(&l).or_else(|| num_len(&r))?;
    let valid = kernels::combine_validity(l.validity(), r.validity());

    // Integer-preserving paths (Add/Sub/Mul/Mod stay Int when both sides
    // are Int; Div is always float per SQL semantics).
    if let (Num::Int(a, _), Num::Int(b, _)) = (&l, &r) {
        if let Some(iop) = int_arith_op(op) {
            return Some(Num::Int(Cow::Owned(kernels::arith_i64(a, iop, b)), valid));
        }
        if op == BinOp::Mod {
            let (out, nonzero) = kernels::mod_i64(a, b);
            let valid = kernels::combine_validity(valid.as_ref(), Some(&nonzero));
            return Some(Num::Int(Cow::Owned(out), valid));
        }
    }
    if let (Num::Int(a, _), Num::ScalarInt(b)) = (&l, &r) {
        if let Some(iop) = int_arith_op(op) {
            return Some(Num::Int(
                Cow::Owned(kernels::arith_i64_scalar(a, iop, *b)),
                valid,
            ));
        }
        if op == BinOp::Mod {
            let (out, nonzero) = kernels::mod_i64(a, &vec![*b; len]);
            let valid = kernels::combine_validity(valid.as_ref(), Some(&nonzero));
            return Some(Num::Int(Cow::Owned(out), valid));
        }
    }
    if let (Num::ScalarInt(a), Num::Int(b, _)) = (&l, &r) {
        match op {
            // Commutative ops reuse the scalar-rhs kernel directly.
            BinOp::Add => {
                return Some(Num::Int(
                    Cow::Owned(kernels::arith_i64_scalar(b, IntArithOp::Add, *a)),
                    valid,
                ))
            }
            BinOp::Mul => {
                return Some(Num::Int(
                    Cow::Owned(kernels::arith_i64_scalar(b, IntArithOp::Mul, *a)),
                    valid,
                ))
            }
            // a - x = -(x - a), still one pass plus an in-place negate.
            BinOp::Sub => {
                return Some(Num::Int(
                    Cow::Owned(kernels::neg_i64(&kernels::arith_i64_scalar(
                        b,
                        IntArithOp::Sub,
                        *a,
                    ))),
                    valid,
                ))
            }
            // Scalar % vector has no cheap rewrite; splat the scalar.
            BinOp::Mod => {
                let (out, nonzero) = kernels::mod_i64(&vec![*a; len], b);
                let valid = kernels::combine_validity(valid.as_ref(), Some(&nonzero));
                return Some(Num::Int(Cow::Owned(out), valid));
            }
            _ => {}
        }
    }

    // Scalar-broadcast fast paths: no splat of the scalar side.
    if let Some(fop) = float_arith_op(op) {
        match (scalar_f64(&l), scalar_f64(&r)) {
            (None, Some(b)) => {
                let a = num_f64_data(&l)?;
                return Some(Num::Float(
                    Cow::Owned(kernels::arith_f64_scalar(&a, fop, b)),
                    valid,
                ));
            }
            (Some(a), None) => {
                let b = num_f64_data(&r)?;
                return Some(Num::Float(
                    Cow::Owned(kernels::arith_scalar_f64(a, fop, &b)),
                    valid,
                ));
            }
            _ => {}
        }
    }
    // Float path (covers Div over ints and every mixed combination).
    let a = to_f64_vec(&l, len)?;
    let b = to_f64_vec(&r, len)?;
    match op {
        BinOp::Div => {
            let (out, nonzero) = kernels::div_f64(&a, &b);
            let valid = kernels::combine_validity(valid.as_ref(), Some(&nonzero));
            Some(Num::Float(Cow::Owned(out), valid))
        }
        BinOp::Mod => {
            let (out, nonzero) = kernels::mod_f64(&a, &b);
            let valid = kernels::combine_validity(valid.as_ref(), Some(&nonzero));
            Some(Num::Float(Cow::Owned(out), valid))
        }
        _ => {
            let fop = float_arith_op(op)?;
            Some(Num::Float(
                Cow::Owned(kernels::arith_f64(&a, fop, &b)),
                valid,
            ))
        }
    }
}

/// Numeric scalar as `f64` (ints widen); `None` for vectors and NULL.
fn scalar_f64(num: &Num<'_>) -> Option<f64> {
    match num {
        Num::ScalarInt(i) => Some(*i as f64),
        Num::ScalarFloat(f) => Some(*f),
        _ => None,
    }
}

/// Vector payload as `f64` data (borrowed for floats, widened for ints);
/// `None` for scalars.
fn num_f64_data<'b>(num: &'b Num<'_>) -> Option<Cow<'b, [f64]>> {
    match num {
        Num::Int(d, _) => Some(Cow::Owned(kernels::widen_i64(d))),
        Num::Float(d, _) => Some(Cow::Borrowed(d)),
        _ => None,
    }
}

// ---- boolean expression lowering ----

fn cmp_op(op: BinOp) -> Option<CmpOp> {
    match op {
        BinOp::Eq => Some(CmpOp::Eq),
        BinOp::NotEq => Some(CmpOp::Ne),
        BinOp::Lt => Some(CmpOp::Lt),
        BinOp::LtEq => Some(CmpOp::Le),
        BinOp::Gt => Some(CmpOp::Gt),
        BinOp::GtEq => Some(CmpOp::Ge),
        _ => None,
    }
}

/// Mirror of the comparison for swapped operands (`5 < x` ⇔ `x > 5`).
fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Eq => CmpOp::Eq,
        CmpOp::Ne => CmpOp::Ne,
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
    }
}

pub(crate) fn eval_bool(expr: &Expr, table: &Table) -> Result<BoolVec> {
    let n = table.num_rows();
    match expr {
        Expr::Literal(Value::Bool(b)) => Ok(BoolVec::constant(*b, n)),
        Expr::Literal(Value::Null) => Ok(BoolVec::all_null(n)),
        Expr::Param(i) => Err(unbound_param(*i)),
        Expr::Column(name) => {
            let col = table.column_by_name(name)?;
            let data = col.bool_data().ok_or_else(|| mistyped(expr))?;
            Ok(BoolVec {
                truth: Bitmap::from_iter(data.iter().copied()),
                valid: col.validity().cloned(),
            })
        }
        Expr::Unary {
            op: UnaryOp::Not,
            expr,
        } => {
            let bv = eval_bool(expr, table)?;
            Ok(BoolVec {
                truth: bv.known_false(),
                valid: bv.valid,
            })
        }
        Expr::Binary {
            left,
            op: op @ (BinOp::And | BinOp::Or),
            right,
        } => {
            let l = eval_bool(left, table)?;
            let r = eval_bool(right, table)?;
            if l.valid.is_none() && r.valid.is_none() {
                let truth = if *op == BinOp::And {
                    l.truth.and(&r.truth)
                } else {
                    l.truth.or(&r.truth)
                };
                return Ok(BoolVec::all_known(truth));
            }
            let (lt, lf) = (l.known_true(), l.known_false());
            let (rt, rf) = (r.known_true(), r.known_false());
            let (kt, kf) = if *op == BinOp::And {
                (lt.and(&rt), lf.or(&rf))
            } else {
                (lt.or(&rt), lf.and(&rf))
            };
            let valid = kt.or(&kf);
            Ok(BoolVec {
                truth: kt,
                valid: Some(valid),
            })
        }
        Expr::Binary { left, op, right } => match cmp_op(*op) {
            Some(op) => eval_comparison(left, op, right, table, OnNan::Error),
            None => Err(mistyped(expr)),
        },
        Expr::IsNull { expr, negated } => eval_is_null(expr, *negated, table),
        Expr::InList {
            expr,
            list,
            negated,
        } => eval_in_list(expr, list, *negated, table),
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => eval_between(expr, low, high, *negated, table),
        _ => Err(mistyped(expr)),
    }
}

/// What a comparison answers at a row where an operand is NaN.
#[derive(Clone, Copy, PartialEq)]
enum OnNan {
    /// Raise [`nan_comparison`] for the first such row (`=`, `<`, …).
    Error,
    /// NULL (`BETWEEN`'s bounds).
    Null,
    /// FALSE (an `IN` item: NaN matches nothing).
    Unequal,
}

fn eval_comparison(
    left: &Expr,
    op: CmpOp,
    right: &Expr,
    table: &Table,
    on_nan: OnNan,
) -> Result<BoolVec> {
    let n = table.num_rows();
    match (table_type(left, table)?, table_type(right, table)?) {
        (Some(DataType::Str), Some(DataType::Str)) => compare_strs(left, op, right, table),
        (Some(DataType::Bool), Some(DataType::Bool)) => Ok(compare_bools(
            &eval_bool(left, table)?,
            op,
            &eval_bool(right, table)?,
        )),
        (Some(DataType::Str | DataType::Bool), None)
        | (None, Some(DataType::Str | DataType::Bool)) => {
            // NULL on one side: no row compares, but both operands still
            // run for their errors.
            eval_expr(left, table)?;
            eval_expr(right, table)?;
            Ok(BoolVec::all_null(n))
        }
        // Numeric (everything coerces through f64, like sql_cmp).
        _ => compare_nums(
            &eval_num(left, table)?,
            op,
            &eval_num(right, table)?,
            n,
            on_nan,
        ),
    }
}

/// BOOL compared with BOOL (FALSE < TRUE).
fn compare_bools(l: &BoolVec, op: CmpOp, r: &BoolVec) -> BoolVec {
    let (a, b) = (&l.truth, &r.truth);
    let truth = match op {
        CmpOp::Eq => a.and(b).or(&a.not().and(&b.not())),
        CmpOp::Ne => a.and(&b.not()).or(&a.not().and(b)),
        CmpOp::Lt => a.not().and(b),
        CmpOp::Le => a.not().or(b),
        CmpOp::Gt => a.and(&b.not()),
        CmpOp::Ge => a.or(&b.not()),
    };
    BoolVec {
        truth,
        valid: kernels::combine_validity(l.valid.as_ref(), r.valid.as_ref()),
    }
}

fn compare_strs(left: &Expr, op: CmpOp, right: &Expr, table: &Table) -> Result<BoolVec> {
    let n = table.num_rows();
    let l = str_operand(left, table)?;
    let r = str_operand(right, table)?;
    Ok(match (l, r) {
        (StrOperand::Scalar(a), StrOperand::Scalar(b)) => BoolVec::constant(op.holds(a.cmp(b)), n),
        // Dictionary vs literal: answer the predicate once per distinct
        // value (a K-entry LUT), then one indexed load per row.
        (StrOperand::Dict(codes, dict, v), StrOperand::Scalar(s)) => BoolVec {
            truth: kernels::lookup_codes(codes, &cmp_lut(dict, op, s)),
            valid: v.cloned(),
        },
        (StrOperand::Scalar(s), StrOperand::Dict(codes, dict, v)) => BoolVec {
            truth: kernels::lookup_codes(codes, &cmp_lut(dict, flip(op), s)),
            valid: v.cloned(),
        },
        (StrOperand::Col(d, v), StrOperand::Scalar(s)) => BoolVec {
            truth: kernels::cmp_str_scalar(d, op, s),
            valid: v.cloned(),
        },
        (StrOperand::Scalar(s), StrOperand::Col(d, v)) => BoolVec {
            truth: kernels::cmp_str_scalar(d, flip(op), s),
            valid: v.cloned(),
        },
        (StrOperand::Col(a, va), StrOperand::Col(b, vb)) => BoolVec {
            truth: kernels::cmp_str(a, b, op),
            valid: kernels::combine_validity(va, vb),
        },
        // Column vs column with a dictionary side: compare borrowed &str
        // views (no String clones, no decode copy).
        (a, b) => BoolVec {
            truth: kernels::cmp_str_pairs(&a.str_refs(n), &b.str_refs(n), op),
            valid: kernels::combine_validity(a.validity(), b.validity()),
        },
    })
}

/// Per-code truth table for `value <op> rhs` over a dictionary.
fn cmp_lut(dict: &Dictionary, op: CmpOp, rhs: &str) -> Vec<bool> {
    dict.values()
        .iter()
        .map(|v| op.holds(v.as_str().cmp(rhs)))
        .collect()
}

enum StrOperand<'a> {
    Scalar(&'a str),
    Col(&'a [String], Option<&'a Bitmap>),
    Dict(&'a [u32], &'a Dictionary, Option<&'a Bitmap>),
}

impl<'a> StrOperand<'a> {
    fn validity(&self) -> Option<&'a Bitmap> {
        match self {
            StrOperand::Scalar(_) => None,
            StrOperand::Col(_, v) | StrOperand::Dict(_, _, v) => *v,
        }
    }

    /// Borrowed per-row string views.
    fn str_refs(&self, n: usize) -> Vec<&'a str> {
        match self {
            StrOperand::Scalar(s) => vec![*s; n],
            StrOperand::Col(d, _) => d.iter().map(|s| s.as_str()).collect(),
            StrOperand::Dict(codes, dict, _) => codes.iter().map(|&c| dict.get(c)).collect(),
        }
    }
}

fn str_operand<'a>(expr: &'a Expr, table: &'a Table) -> Result<StrOperand<'a>> {
    match expr {
        Expr::Literal(Value::Str(s)) => Ok(StrOperand::Scalar(s)),
        Expr::Column(name) => {
            let col = table.column_by_name(name)?;
            if let Some((codes, dict)) = col.dict_parts() {
                return Ok(StrOperand::Dict(codes, dict.as_ref(), col.validity()));
            }
            let data = col.str_data().ok_or_else(|| mistyped(expr))?;
            Ok(StrOperand::Col(data, col.validity()))
        }
        _ => Err(mistyped(expr)),
    }
}

/// True if a numeric operand holds a NaN anywhere (NULL slots included:
/// a cheap pre-check before [`nan_rows`] finds the rows that count).
fn contains_nan(num: &Num<'_>) -> bool {
    match num {
        Num::ScalarFloat(f) => f.is_nan(),
        Num::Float(d, _) => d.iter().any(|v| v.is_nan()),
        _ => false,
    }
}

/// The rows where a comparison of `l` with `r` meets a NaN: both
/// operands non-NULL and either one NaN.
fn nan_rows(l: &Num<'_>, r: &Num<'_>, n: usize, valid: Option<&Bitmap>) -> Bitmap {
    let mask = |num: &Num<'_>| match num {
        Num::ScalarFloat(f) if f.is_nan() => Bitmap::ones(n),
        Num::Float(d, _) => Bitmap::from_iter(d.iter().map(|v| v.is_nan())),
        _ => Bitmap::zeros(n),
    };
    let nan = mask(l).or(&mask(r));
    match valid {
        Some(v) => nan.and(v),
        None => nan,
    }
}

fn compare_nums(l: &Num<'_>, op: CmpOp, r: &Num<'_>, n: usize, on_nan: OnNan) -> Result<BoolVec> {
    if matches!(l, Num::ScalarNull) || matches!(r, Num::ScalarNull) {
        return Ok(BoolVec::all_null(n));
    }
    let mut valid = kernels::combine_validity(l.validity(), r.validity());
    if on_nan != OnNan::Unequal && (contains_nan(l) || contains_nan(r)) {
        let nan = nan_rows(l, r, n, valid.as_ref());
        if on_nan == OnNan::Error {
            if let Some(row) = nan.iter_ones().next() {
                return Err(nan_comparison(&num_value(l, row), &num_value(r, row)));
            }
        }
        valid = Some(match valid {
            Some(v) => v.and(&nan.not()),
            None => nan.not(),
        });
    }
    let truth = match (l, r) {
        (Num::Int(a, _), Num::ScalarInt(b)) => kernels::cmp_i64_scalar(a, op, *b as f64),
        (Num::Int(a, _), Num::ScalarFloat(b)) => kernels::cmp_i64_scalar(a, op, *b),
        (Num::Float(a, _), Num::ScalarInt(b)) => kernels::cmp_f64_scalar(a, op, *b as f64),
        (Num::Float(a, _), Num::ScalarFloat(b)) => kernels::cmp_f64_scalar(a, op, *b),
        (Num::ScalarInt(a), Num::Int(b, _)) => kernels::cmp_i64_scalar(b, flip(op), *a as f64),
        (Num::ScalarFloat(a), Num::Int(b, _)) => kernels::cmp_i64_scalar(b, flip(op), *a),
        (Num::ScalarInt(a), Num::Float(b, _)) => kernels::cmp_f64_scalar(b, flip(op), *a as f64),
        (Num::ScalarFloat(a), Num::Float(b, _)) => kernels::cmp_f64_scalar(b, flip(op), *a),
        (Num::Int(a, _), Num::Int(b, _)) => kernels::cmp_i64(a, b, op),
        (Num::Float(a, _), Num::Float(b, _)) => kernels::cmp_f64(a, b, op),
        (Num::Int(a, _), Num::Float(b, _)) => kernels::cmp_i64_f64(a, b, op),
        (Num::Float(a, _), Num::Int(b, _)) => kernels::cmp_f64_i64(a, b, op),
        // Scalar vs scalar: compare once and splat (NaN never holds).
        (a, b) => {
            let holds = num_value(a, 0)
                .sql_cmp(&num_value(b, 0))
                .is_some_and(|ord| op.holds(ord));
            return Ok(BoolVec {
                truth: BoolVec::constant(holds, n).truth,
                valid,
            });
        }
    };
    Ok(BoolVec { truth, valid })
}

/// `expr [NOT] BETWEEN low AND high`, lowered directly: it is not the 3VL
/// AND of two comparisons, because it is NULL when *any* bound is NULL
/// (or NaN) even if the other bound already decides the answer.
fn eval_between(
    expr: &Expr,
    low: &Expr,
    high: &Expr,
    negated: bool,
    table: &Table,
) -> Result<BoolVec> {
    let n = table.num_rows();
    let ty = table_type(expr, table)?
        .or(table_type(low, table)?)
        .or(table_type(high, table)?);
    let (ge, le) = if let Some(DataType::Str | DataType::Bool) = ty {
        (
            eval_comparison(expr, CmpOp::Ge, low, table, OnNan::Null)?,
            eval_comparison(expr, CmpOp::Le, high, table, OnNan::Null)?,
        )
    } else {
        let v = eval_num(expr, table)?;
        let lo = eval_num(low, table)?;
        let hi = eval_num(high, table)?;
        // A NaN-free vector operand with non-NaN scalar bounds takes the
        // fused range kernel.
        if let (Some(lo), Some(hi)) = (scalar_f64(&lo), scalar_f64(&hi)) {
            let inside = if lo.is_nan() || hi.is_nan() || contains_nan(&v) {
                None
            } else {
                match &v {
                    Num::Int(d, _) => Some(kernels::between_i64(d, lo, hi)),
                    Num::Float(d, _) => Some(kernels::between_f64(d, lo, hi)),
                    _ => None,
                }
            };
            if let Some(inside) = inside {
                return Ok(BoolVec {
                    truth: if negated { inside.not() } else { inside },
                    valid: v.validity().cloned(),
                });
            }
        }
        (
            compare_nums(&v, CmpOp::Ge, &lo, n, OnNan::Null)?,
            compare_nums(&v, CmpOp::Le, &hi, n, OnNan::Null)?,
        )
    };
    let inside = ge.truth.and(&le.truth);
    Ok(BoolVec {
        truth: if negated { inside.not() } else { inside },
        valid: kernels::combine_validity(ge.valid.as_ref(), le.valid.as_ref()),
    })
}

/// The NULL rows of an operand with validity `valid`.
fn null_rows(valid: Option<&Bitmap>, n: usize) -> Bitmap {
    valid.map_or_else(|| Bitmap::zeros(n), Bitmap::not)
}

fn eval_is_null(operand: &Expr, negated: bool, table: &Table) -> Result<BoolVec> {
    let n = table.num_rows();
    // Any column type works directly off the validity bitmap.
    let null_mask = match operand {
        Expr::Column(name) => null_rows(table.column_by_name(name)?.validity(), n),
        _ => match table_type(operand, table)? {
            Some(DataType::Bool) => null_rows(eval_bool(operand, table)?.valid.as_ref(), n),
            // The only string-valued expression besides a column: a literal.
            Some(DataType::Str) => Bitmap::zeros(n),
            _ => match eval_num(operand, table)? {
                Num::ScalarNull => Bitmap::ones(n),
                Num::ScalarInt(_) | Num::ScalarFloat(_) => Bitmap::zeros(n),
                Num::Int(_, v) | Num::Float(_, v) => null_rows(v.as_ref(), n),
            },
        },
    };
    Ok(BoolVec::all_known(if negated {
        null_mask.not()
    } else {
        null_mask
    }))
}

/// `operand [NOT] IN (list)`: NULL when the operand is NULL; TRUE (FALSE
/// for `NOT IN`) when an item equals it; otherwise NULL if an item is
/// NULL, else FALSE (TRUE for `NOT IN`).
fn eval_in_list(operand: &Expr, list: &[Expr], negated: bool, table: &Table) -> Result<BoolVec> {
    let n = table.num_rows();
    let literals: Option<Vec<&Value>> = list
        .iter()
        .map(|item| match item {
            Expr::Literal(v) => Some(v),
            _ => None,
        })
        .collect();
    if let Some(literals) = literals {
        if let Some((matched, operand_valid)) = match_literals(operand, &literals, table)? {
            let truth = if negated {
                matched.not()
            } else {
                matched.clone()
            };
            let valid = if literals.iter().any(|v| v.is_null()) {
                Some(match &operand_valid {
                    Some(v) => v.and(&matched),
                    None => matched,
                })
            } else {
                operand_valid
            };
            return Ok(BoolVec { truth, valid });
        }
    }
    // Any other list: one equality per item.
    let mut matched = Bitmap::zeros(n);
    let mut unknown = Bitmap::zeros(n);
    for item in list {
        let eq = eval_comparison(operand, CmpOp::Eq, item, table, OnNan::Unequal)?;
        matched = matched.or(&eq.known_true());
        if let Some(v) = &eq.valid {
            unknown = unknown.or(&v.not());
        }
    }
    let operand_known = eval_is_null(operand, true, table)?.truth;
    let valid = operand_known.and(&matched.or(&unknown.not()));
    Ok(BoolVec {
        truth: if negated { matched.not() } else { matched },
        valid: Some(valid),
    })
}

/// Set-membership kernels for a column or numeric operand against a
/// literal list: the rows equal to some literal, and the operand's
/// validity. `None` for operands these kernels do not cover.
fn match_literals(
    operand: &Expr,
    literals: &[&Value],
    table: &Table,
) -> Result<Option<(Bitmap, Option<Bitmap>)>> {
    let numbers = || -> Vec<f64> { literals.iter().filter_map(|v| v.as_f64()).collect() };
    if let Expr::Column(name) = operand {
        let col = table.column_by_name(name)?;
        let typed = || mistyped(operand);
        let matched = match col.data_type() {
            DataType::Str => {
                let set: Vec<&str> = literals.iter().filter_map(|v| v.as_str()).collect();
                if let Some((codes, dict)) = col.dict_parts() {
                    // Membership decided once per distinct value.
                    let lut: Vec<bool> = dict
                        .values()
                        .iter()
                        .map(|v| set.iter().any(|s| s == v))
                        .collect();
                    kernels::lookup_codes(codes, &lut)
                } else {
                    kernels::in_str_set(col.str_data().ok_or_else(typed)?, &set)
                }
            }
            DataType::Int => kernels::in_i64_set(col.i64_data().ok_or_else(typed)?, &numbers()),
            DataType::Float => kernels::in_f64_set(col.f64_data().ok_or_else(typed)?, &numbers()),
            DataType::Bool => return Ok(None),
        };
        return Ok(Some((matched, col.validity().cloned())));
    }
    if !matches!(
        table_type(operand, table)?,
        Some(DataType::Int | DataType::Float)
    ) {
        return Ok(None);
    }
    let num = eval_num(operand, table)?;
    let matched = match &num {
        Num::Int(d, _) => kernels::in_i64_set(d, &numbers()),
        Num::Float(d, _) => kernels::in_f64_set(d, &numbers()),
        _ => return Ok(None),
    };
    Ok(Some((matched, num.validity().cloned())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_sql::parse_expr;
    use mosaic_storage::{Field, Schema, TableBuilder};
    use std::sync::Arc;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Field::new("x", DataType::Int),
            Field::new("s", DataType::Str),
            Field::new("f", DataType::Float),
            Field::new("b", DataType::Bool),
        ]);
        let mut t = TableBuilder::new(schema);
        t.push_row(vec![1.into(), "a".into(), 0.5.into(), true.into()])
            .unwrap();
        t.push_row(vec![2.into(), "b".into(), 1.5.into(), false.into()])
            .unwrap();
        t.push_row(vec![3.into(), "a".into(), Value::Null, Value::Null])
            .unwrap();
        t.push_row(vec![Value::Null, "c".into(), 4.5.into(), true.into()])
            .unwrap();
        t.finish()
    }

    fn selected(src: &str, t: &Table) -> Result<Vec<usize>> {
        Ok(eval_predicate(&parse_expr(src).unwrap(), t)?.to_indices())
    }

    #[test]
    fn empty_table_defaults_to_int() {
        let t = Table::empty(Schema::new(vec![Field::new("s", DataType::Str)]));
        let c = eval_expr(&parse_expr("s").unwrap(), &t).unwrap();
        assert_eq!(c.data_type(), DataType::Int);
        assert!(c.is_empty());
    }

    #[test]
    fn all_null_results_default_to_int() {
        let schema = Schema::new(vec![Field::new("f", DataType::Float)]);
        let mut b = TableBuilder::new(schema);
        b.push_row(vec![Value::Null]).unwrap();
        let t = b.finish();
        let c = eval_expr(&parse_expr("f + 1").unwrap(), &t).unwrap();
        assert_eq!(c.data_type(), DataType::Int);
        assert_eq!(c.value(0), Value::Null);
    }

    /// BOOL compared with BOOL, and the shapes that share its kernels:
    /// a NULL side, `IN` over a BOOL column, `IS NULL` of a predicate,
    /// `BETWEEN` over strings.
    #[test]
    fn bool_comparisons_and_generic_shapes() {
        let t = table();
        assert_eq!(selected("b = true", &t).unwrap(), vec![0, 3]);
        assert_eq!(selected("b <> false", &t).unwrap(), vec![0, 3]);
        assert_eq!(selected("b < true", &t).unwrap(), vec![1]);
        assert_eq!(selected("b >= false", &t).unwrap(), vec![0, 1, 3]);
        assert_eq!(selected("b = NULL", &t).unwrap(), Vec::<usize>::new());
        assert_eq!(selected("s = NULL", &t).unwrap(), Vec::<usize>::new());
        assert_eq!(selected("b IN (false)", &t).unwrap(), vec![1]);
        assert_eq!(selected("x IN (x, NULL)", &t).unwrap(), vec![0, 1, 2]);
        assert_eq!(selected("(f > 1) IS NULL", &t).unwrap(), vec![2]);
        assert_eq!(
            selected("s BETWEEN 'a' AND 'b'", &t).unwrap(),
            vec![0, 1, 2]
        );
        let c = eval_expr(&parse_expr("b = (x < 2)").unwrap(), &t).unwrap();
        let values: Vec<Value> = (0..4).map(|i| c.value(i)).collect();
        assert_eq!(
            values,
            vec![true.into(), true.into(), Value::Null, Value::Null]
        );
    }

    /// The one data-dependent error: a comparison meeting a NaN names the
    /// first such row's values; `BETWEEN` is NULL there instead.
    #[test]
    fn nan_comparisons_agree_with_oracle() {
        let schema = Schema::new(vec![Field::new("f", DataType::Float)]);
        let mut b = TableBuilder::new(schema);
        for v in [
            Value::Float(1.0),
            Value::Null,
            Value::Float(f64::NAN),
            Value::Float(-2.0),
        ] {
            b.push_row(vec![v]).unwrap();
        }
        let t = b.finish();
        let err = selected("f > 0", &t).unwrap_err();
        assert!(matches!(err, MosaicError::Execution(_)), "{err}");
        assert_eq!(
            err.to_string(),
            "execution error: cannot compare NaN with 0"
        );
        assert!(selected("f IS NULL OR f > 0", &t).is_err());
        assert_eq!(selected("f BETWEEN 0 AND 2", &t).unwrap(), vec![0]);
        assert_eq!(selected("f NOT BETWEEN 0 AND 2", &t).unwrap(), vec![3]);
        assert_eq!(selected("f IN (1.0, 7.0)", &t).unwrap(), vec![0]);
        assert_eq!(selected("f NOT IN (1.0)", &t).unwrap(), vec![2, 3]);
    }

    /// An ill-typed expression is the binder's error on every table,
    /// empty and all-NULL ones included.
    #[test]
    fn ill_typed_shapes_are_bind_errors() {
        let full = table();
        let nulls = {
            let mut b = TableBuilder::new(Arc::clone(full.schema()));
            b.push_row(vec![Value::Null; 4]).unwrap();
            b.finish()
        };
        let empty = Table::empty(Arc::clone(full.schema()));
        for t in [&full, &nulls, &empty] {
            for src in [
                "s > 3", "s + 1", "b + 1", "x AND b", "NOT x", "-s", "s IN (1)",
            ] {
                let err = eval_expr(&parse_expr(src).unwrap(), t).unwrap_err();
                assert!(matches!(err, MosaicError::Bind(_)), "{src}: {err}");
            }
            let err = selected("x", t).unwrap_err();
            assert_eq!(
                err.to_string(),
                "bind error: predicate x (INT) is not boolean"
            );
        }
    }
}
