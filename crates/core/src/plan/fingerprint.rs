//! Stable plan fingerprinting — the cache key of the result cache.
//!
//! A fingerprint is a 64-bit hash over everything that determines a
//! query's result under the engine's determinism contract: a structural
//! encoding of the *optimized* [`LogicalPlan`] (`write_plan`), the
//! resolved relation names it reads, the bound parameter values, the
//! effective visibility, and the model configuration (IPF options, OPEN
//! backend and seed) for visibilities that consult generative machinery.
//! Thread count, partition count, and optimizer setting are deliberately
//! **excluded**: results are bit-identical across all of them, so one
//! entry serves every execution configuration. (The optimizer setting
//! still changes the optimized plan, so cache entries naturally split
//! per setting — each is correct, they just don't share.)
//!
//! The encoding is lossless: every plan node and expression variant
//! writes a tag and then every field, literals as a type tag plus their
//! bits, strings length-prefixed. Two plans share a fingerprint only if
//! they are the same plan (up to a hash collision), however they
//! render — `s IN ('a')` and `s IN ('a', 'b')`, `2` and `2.0`, `s = 'k'`
//! and `s = k` all differ.
//!
//! The hash is FNV-1a over the encoding. `DefaultHasher` is explicitly
//! avoided: fingerprints are rendered by `EXPLAIN` and travel over the
//! wire in cache-hit notes, so they must be stable across processes,
//! runs, and Rust versions.

use mosaic_sql::{AggFunc, BinOp, Expr, JoinKind, SelectItem, UnaryOp, Visibility};
use mosaic_storage::{DataType, Value};

use super::logical::LogicalPlan;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A tiny process-stable streaming hasher (64-bit FNV-1a).
///
/// Unlike `std::hash::DefaultHasher`, the output is specified by the
/// algorithm alone, so two processes (or a server and its `EXPLAIN`
/// output read by a human) agree on every fingerprint.
#[derive(Debug, Clone)]
pub struct StableHasher {
    state: u64,
}

impl Default for StableHasher {
    fn default() -> Self {
        StableHasher::new()
    }
}

impl StableHasher {
    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> StableHasher {
        StableHasher { state: FNV_OFFSET }
    }

    /// Absorb raw bytes.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
    }

    /// Absorb a string, length-prefixed so adjacent components can never
    /// alias (`"ab" + "c"` hashes differently from `"a" + "bc"`).
    pub fn write_str(&mut self, s: &str) {
        self.write_u64(s.len() as u64);
        self.write(s.as_bytes());
    }

    /// Absorb a `u64` (little-endian).
    pub fn write_u64(&mut self, v: u64) {
        self.write(&v.to_le_bytes());
    }

    /// Absorb a single byte.
    pub fn write_u8(&mut self, v: u8) {
        self.write(&[v]);
    }

    /// Absorb a dynamic value: a type tag plus the exact payload bits.
    /// Floats hash their raw bit pattern, matching the engine-wide
    /// convention that float equality is bit equality.
    pub fn write_value(&mut self, v: &Value) {
        match v {
            Value::Null => self.write_u8(0),
            Value::Bool(b) => {
                self.write_u8(1);
                self.write_u8(*b as u8);
            }
            Value::Int(i) => {
                self.write_u8(2);
                self.write_u64(*i as u64);
            }
            Value::Float(f) => {
                self.write_u8(3);
                self.write_u64(f.to_bits());
            }
            Value::Str(s) => {
                self.write_u8(4);
                self.write_str(s);
            }
        }
    }

    /// The hash of everything absorbed so far.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

/// Compute the canonical fingerprint of a query.
///
/// * `logical` — the **optimized** logical plan, which canonicalizes the
///   statement: two SQL spellings that optimize to the same plan share a
///   fingerprint.
/// * `relations` — resolved relation names the plan reads, in bind
///   order. The logical plan refers to relations by index, so the names
///   must be hashed alongside it.
/// * `params` — bound positional parameter values.
/// * `visibility` — effective visibility the query runs under.
/// * `model_config` — for SEMI-OPEN/OPEN: a stable rendering of the
///   model-relevant options (IPF configuration, OPEN backend, replicate
///   count, and seed). `None` for CLOSED queries.
pub fn plan_fingerprint(
    logical: &LogicalPlan,
    relations: &[String],
    params: &[Value],
    visibility: Visibility,
    model_config: Option<&str>,
) -> u64 {
    let mut h = StableHasher::new();
    write_plan(&mut h, logical);
    h.write_u64(relations.len() as u64);
    for r in relations {
        h.write_str(&r.to_ascii_lowercase());
    }
    h.write_u64(params.len() as u64);
    for p in params {
        h.write_value(p);
    }
    h.write_u8(match visibility {
        Visibility::Closed => 0,
        Visibility::SemiOpen => 1,
        Visibility::Open => 2,
    });
    match model_config {
        Some(cfg) => {
            h.write_u8(1);
            h.write_str(cfg);
        }
        None => h.write_u8(0),
    }
    h.finish()
}

/// Absorb a logical plan: each node's tag, then every field, inputs
/// included.
fn write_plan(h: &mut StableHasher, plan: &LogicalPlan) {
    match plan {
        LogicalPlan::Scan { source, columns } => {
            h.write_u8(0);
            h.write_u64(*source as u64);
            write_option(h, columns.as_ref(), |h, cols| {
                h.write_u64(cols.len() as u64);
                for c in cols {
                    h.write_str(&c.name);
                    h.write_u64(c.id as u64);
                }
            });
        }
        LogicalPlan::Join {
            left,
            right,
            kind,
            keys,
            output,
            weighted,
        } => {
            h.write_u8(1);
            write_plan(h, left);
            write_plan(h, right);
            h.write_u8(match kind {
                JoinKind::Inner => 0,
                JoinKind::LeftOuter => 1,
            });
            h.write_u64(keys.len() as u64);
            for (l, r) in keys {
                write_expr(h, l);
                write_expr(h, r);
            }
            h.write_u64(output.len() as u64);
            for o in output {
                h.write_str(&o.name);
                h.write_u64(o.source as u64);
                h.write_str(&o.column);
                h.write_u64(o.column_id as u64);
                write_data_type(h, o.data_type);
                h.write_u8(o.combined as u8);
            }
            h.write_u64(weighted.len() as u64);
            for w in weighted {
                h.write_u64(*w as u64);
            }
        }
        LogicalPlan::Filter { input, predicate } => {
            h.write_u8(2);
            write_plan(h, input);
            write_expr(h, predicate);
        }
        LogicalPlan::Project { input, items } => {
            h.write_u8(3);
            write_plan(h, input);
            write_items(h, items);
        }
        LogicalPlan::Aggregate {
            input,
            items,
            group_by,
            weighted,
        } => {
            h.write_u8(4);
            write_plan(h, input);
            write_items(h, items);
            write_exprs(h, group_by);
            h.write_u8(*weighted as u8);
        }
        LogicalPlan::Sort { input, keys } => {
            h.write_u8(5);
            write_plan(h, input);
            write_sort_keys(h, keys);
        }
        LogicalPlan::Limit { input, n } => {
            h.write_u8(6);
            write_plan(h, input);
            h.write_u64(*n as u64);
        }
        LogicalPlan::TopK { input, keys, n } => {
            h.write_u8(7);
            write_plan(h, input);
            write_sort_keys(h, keys);
            h.write_u64(*n as u64);
        }
    }
}

/// Absorb an expression: its variant's tag, then every field.
fn write_expr(h: &mut StableHasher, expr: &Expr) {
    match expr {
        Expr::Literal(v) => {
            h.write_u8(0);
            h.write_value(v);
        }
        Expr::Column(name) => {
            h.write_u8(1);
            h.write_str(name);
        }
        Expr::Unary { op, expr } => {
            h.write_u8(2);
            h.write_u8(match op {
                UnaryOp::Neg => 0,
                UnaryOp::Not => 1,
            });
            write_expr(h, expr);
        }
        Expr::Binary { left, op, right } => {
            h.write_u8(3);
            h.write_u8(match op {
                BinOp::Or => 0,
                BinOp::And => 1,
                BinOp::Eq => 2,
                BinOp::NotEq => 3,
                BinOp::Lt => 4,
                BinOp::LtEq => 5,
                BinOp::Gt => 6,
                BinOp::GtEq => 7,
                BinOp::Add => 8,
                BinOp::Sub => 9,
                BinOp::Mul => 10,
                BinOp::Div => 11,
                BinOp::Mod => 12,
            });
            write_expr(h, left);
            write_expr(h, right);
        }
        Expr::InList {
            expr,
            list,
            negated,
        } => {
            h.write_u8(4);
            write_expr(h, expr);
            write_exprs(h, list);
            h.write_u8(*negated as u8);
        }
        Expr::Between {
            expr,
            low,
            high,
            negated,
        } => {
            h.write_u8(5);
            write_expr(h, expr);
            write_expr(h, low);
            write_expr(h, high);
            h.write_u8(*negated as u8);
        }
        Expr::IsNull { expr, negated } => {
            h.write_u8(6);
            write_expr(h, expr);
            h.write_u8(*negated as u8);
        }
        Expr::Agg { func, arg } => {
            h.write_u8(7);
            h.write_u8(match func {
                AggFunc::Count => 0,
                AggFunc::Sum => 1,
                AggFunc::Avg => 2,
                AggFunc::Min => 3,
                AggFunc::Max => 4,
            });
            write_option(h, arg.as_deref(), write_expr);
        }
        Expr::Param(i) => {
            h.write_u8(8);
            h.write_u64(*i as u64);
        }
    }
}

fn write_exprs(h: &mut StableHasher, exprs: &[Expr]) {
    h.write_u64(exprs.len() as u64);
    for e in exprs {
        write_expr(h, e);
    }
}

fn write_items(h: &mut StableHasher, items: &[SelectItem]) {
    h.write_u64(items.len() as u64);
    for item in items {
        match item {
            SelectItem::Wildcard => h.write_u8(0),
            SelectItem::Expr { expr, alias } => {
                h.write_u8(1);
                write_expr(h, expr);
                write_option(h, alias.as_ref(), |h, a| h.write_str(a));
            }
        }
    }
}

fn write_sort_keys(h: &mut StableHasher, keys: &[(Expr, bool)]) {
    h.write_u64(keys.len() as u64);
    for (e, desc) in keys {
        write_expr(h, e);
        h.write_u8(*desc as u8);
    }
}

fn write_data_type(h: &mut StableHasher, t: DataType) {
    h.write_u8(match t {
        DataType::Bool => 0,
        DataType::Int => 1,
        DataType::Float => 2,
        DataType::Str => 3,
    });
}

fn write_option<T>(h: &mut StableHasher, v: Option<T>, write: impl Fn(&mut StableHasher, T)) {
    match v {
        None => h.write_u8(0),
        Some(v) => {
            h.write_u8(1);
            write(h, v);
        }
    }
}

/// Render a fingerprint the way `EXPLAIN` and cache notes show it.
pub fn format_fingerprint(fp: u64) -> String {
    format!("{fp:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_sql::{parse, parse_expr, SelectStmt, Statement};

    fn select(src: &str) -> SelectStmt {
        match parse(src).unwrap().pop().unwrap() {
            Statement::Select(s) => s,
            other => panic!("not a select: {other:?}"),
        }
    }

    fn plan(src: &str) -> LogicalPlan {
        LogicalPlan::from_stmt(&select(src), false)
    }

    fn fp_of(logical: &LogicalPlan, params: &[Value]) -> u64 {
        plan_fingerprint(
            logical,
            &["t".to_string()],
            params,
            Visibility::Closed,
            None,
        )
    }

    fn fp(src: &str) -> u64 {
        fp_of(&plan(src), &[])
    }

    fn expr_fp(e: &Expr) -> u64 {
        let mut h = StableHasher::new();
        write_expr(&mut h, e);
        h.finish()
    }

    #[test]
    fn stable_across_calls_and_processes() {
        // FNV-1a over a fixed encoding is fully specified, so equal plans
        // give equal fingerprints in every process — what makes them
        // meaningful in EXPLAIN output and across the wire.
        let a = fp("SELECT k FROM t");
        assert_eq!(a, fp("SELECT k FROM t"));
        assert_eq!(format_fingerprint(a).len(), 16);
    }

    #[test]
    fn every_component_matters() {
        let logical = plan("SELECT k FROM t");
        let base = fp_of(&logical, &[]);
        assert_ne!(base, fp("SELECT j FROM t"), "plan");
        assert_ne!(base, fp_of(&logical, &[Value::Int(1)]), "params");
        assert_ne!(
            base,
            plan_fingerprint(&logical, &["u".to_string()], &[], Visibility::Closed, None),
            "relation name"
        );
        assert_ne!(
            base,
            plan_fingerprint(
                &logical,
                &["t".to_string()],
                &[],
                Visibility::SemiOpen,
                Some("ipf")
            ),
            "visibility + model config"
        );
    }

    #[test]
    fn relation_names_are_case_insensitive_like_the_catalog() {
        let logical = plan("SELECT k FROM t");
        let lower = plan_fingerprint(&logical, &["t".into()], &[], Visibility::Closed, None);
        let upper = plan_fingerprint(&logical, &["T".into()], &[], Visibility::Closed, None);
        assert_eq!(lower, upper);
    }

    #[test]
    fn float_params_hash_by_bit_pattern() {
        let logical = plan("SELECT k FROM t");
        let pos = fp_of(&logical, &[Value::Float(0.0)]);
        let neg = fp_of(&logical, &[Value::Float(-0.0)]);
        assert_ne!(pos, neg, "0.0 and -0.0 are different results downstream");
        let nan = fp_of(&logical, &[Value::Float(f64::NAN)]);
        assert_eq!(nan, fp_of(&logical, &[Value::Float(f64::NAN)]));
    }

    #[test]
    fn length_prefix_prevents_component_aliasing() {
        let logical = plan("SELECT k FROM t");
        let a = plan_fingerprint(
            &logical,
            &["ab".into(), "c".into()],
            &[],
            Visibility::Closed,
            None,
        );
        let b = plan_fingerprint(
            &logical,
            &["a".into(), "bc".into()],
            &[],
            Visibility::Closed,
            None,
        );
        assert_ne!(a, b);
    }

    /// The distinctions an output-name rendering loses — quotes, list
    /// items, bounds, negation, a float's decimal point — are all in the
    /// encoding, and in the plan text too.
    #[test]
    fn lossy_renderings_do_not_collide() {
        for (a, b) in [
            (
                "SELECT k FROM t WHERE s IN ('a')",
                "SELECT k FROM t WHERE s IN ('a', 'b', 'c')",
            ),
            (
                "SELECT k FROM t WHERE s IN ('a')",
                "SELECT k FROM t WHERE s NOT IN ('a')",
            ),
            (
                "SELECT k FROM t WHERE f BETWEEN 1 AND 5",
                "SELECT k FROM t WHERE f BETWEEN 6 AND 9",
            ),
            (
                "SELECT k FROM t WHERE f BETWEEN 1 AND 5",
                "SELECT k FROM t WHERE f NOT BETWEEN 1 AND 5",
            ),
            (
                "SELECT k FROM t WHERE s = 'k'",
                "SELECT k FROM t WHERE s = k",
            ),
            ("SELECT SUM(i * 2) FROM t", "SELECT SUM(i * 2.0) FROM t"),
        ] {
            assert_ne!(plan(a).to_string(), plan(b).to_string(), "{a} vs {b}");
            assert_ne!(fp(a), fp(b), "{a} vs {b}");
        }
    }

    /// Dropping `negated`, a list item or a bound changes the encoding.
    #[test]
    fn every_expression_field_is_encoded() {
        let base = parse_expr("x NOT IN (1, 2)").unwrap();
        let Expr::InList { expr, list, .. } = base.clone() else {
            unreachable!()
        };
        let no_negated = Expr::InList {
            expr: expr.clone(),
            list: list.clone(),
            negated: false,
        };
        let short_list = Expr::InList {
            expr,
            list: list[..1].to_vec(),
            negated: true,
        };
        assert_ne!(expr_fp(&base), expr_fp(&no_negated), "negated");
        assert_ne!(expr_fp(&base), expr_fp(&short_list), "list item");
        let between = parse_expr("x BETWEEN 1 AND 5").unwrap();
        let Expr::Between {
            expr, low, high, ..
        } = between.clone()
        else {
            unreachable!()
        };
        let other_high = Expr::Between {
            expr: expr.clone(),
            low: low.clone(),
            high: low.clone(),
            negated: false,
        };
        let negated = Expr::Between {
            expr,
            low,
            high,
            negated: true,
        };
        assert_ne!(expr_fp(&between), expr_fp(&other_high), "bound");
        assert_ne!(expr_fp(&between), expr_fp(&negated), "negated");
    }
}
