use std::fmt;

use mosaic_storage::{Field, Value};

/// Query visibility level (paper §3.3): how much freedom Mosaic has to
/// reweight and create tuples when answering a population query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Visibility {
    /// Use the samples as-is (closed world; LAV data-integration answering).
    Closed,
    /// Reweight the samples (open world, no invented tuples; zero false
    /// positives, up to `n` false negatives).
    SemiOpen,
    /// Reweight and *generate* missing tuples (open world; fewer false
    /// negatives at the cost of possible false positives).
    Open,
}

impl fmt::Display for Visibility {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Visibility::Closed => "CLOSED",
            Visibility::SemiOpen => "SEMI-OPEN",
            Visibility::Open => "OPEN",
        };
        f.write_str(s)
    }
}

/// Aggregate functions supported by the executor. Under SEMI-OPEN/OPEN these
/// are rewritten to their weighted forms (paper §5.3: "we simply modify the
/// aggregate to be over a weight attribute").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// `COUNT(*)` / `COUNT(expr)` → `SUM(weight)` over qualifying rows.
    Count,
    /// `SUM(expr)` → `SUM(weight · expr)`.
    Sum,
    /// `AVG(expr)` → weighted mean.
    Avg,
    /// `MIN(expr)` (weights don't change the minimum).
    Min,
    /// `MAX(expr)`.
    Max,
}

impl AggFunc {
    /// Parse an aggregate function name.
    pub fn from_name(name: &str) -> Option<AggFunc> {
        match name.to_ascii_uppercase().as_str() {
            "COUNT" => Some(AggFunc::Count),
            "SUM" => Some(AggFunc::Sum),
            "AVG" => Some(AggFunc::Avg),
            "MIN" => Some(AggFunc::Min),
            "MAX" => Some(AggFunc::Max),
            _ => None,
        }
    }

    /// Canonical SQL name.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Avg => "AVG",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
        }
    }
}

/// Binary operators, in increasing precedence groups (OR < AND < comparison
/// < additive < multiplicative).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Logical OR.
    Or,
    /// Logical AND.
    And,
    /// `=`.
    Eq,
    /// `!=` / `<>`.
    NotEq,
    /// `<`.
    Lt,
    /// `<=`.
    LtEq,
    /// `>`.
    Gt,
    /// `>=`.
    GtEq,
    /// `+`.
    Add,
    /// `-`.
    Sub,
    /// `*`.
    Mul,
    /// `/`.
    Div,
    /// `%`.
    Mod,
}

impl fmt::Display for BinOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BinOp::Or => "OR",
            BinOp::And => "AND",
            BinOp::Eq => "=",
            BinOp::NotEq => "!=",
            BinOp::Lt => "<",
            BinOp::LtEq => "<=",
            BinOp::Gt => ">",
            BinOp::GtEq => ">=",
            BinOp::Add => "+",
            BinOp::Sub => "-",
            BinOp::Mul => "*",
            BinOp::Div => "/",
            BinOp::Mod => "%",
        };
        f.write_str(s)
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UnaryOp {
    /// Numeric negation.
    Neg,
    /// Logical NOT.
    Not,
}

/// A scalar or aggregate expression.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A literal value.
    Literal(Value),
    /// A column reference.
    Column(String),
    /// Unary operation.
    Unary {
        /// Operator.
        op: UnaryOp,
        /// Operand.
        expr: Box<Expr>,
    },
    /// Binary operation.
    Binary {
        /// Left operand.
        left: Box<Expr>,
        /// Operator.
        op: BinOp,
        /// Right operand.
        right: Box<Expr>,
    },
    /// `expr [NOT] IN (v1, v2, …)` (square brackets also accepted, as in
    /// the paper's Table 2 queries).
    InList {
        /// Tested expression.
        expr: Box<Expr>,
        /// Candidate values.
        list: Vec<Expr>,
        /// True for `NOT IN`.
        negated: bool,
    },
    /// `expr [NOT] BETWEEN low AND high`.
    Between {
        /// Tested expression.
        expr: Box<Expr>,
        /// Inclusive lower bound.
        low: Box<Expr>,
        /// Inclusive upper bound.
        high: Box<Expr>,
        /// True for `NOT BETWEEN`.
        negated: bool,
    },
    /// `expr IS [NOT] NULL`.
    IsNull {
        /// Tested expression.
        expr: Box<Expr>,
        /// True for `IS NOT NULL`.
        negated: bool,
    },
    /// Aggregate call; `arg` is `None` for `COUNT(*)`.
    Agg {
        /// Aggregate function.
        func: AggFunc,
        /// Argument expression (None = `*`).
        arg: Option<Box<Expr>>,
    },
    /// A positional statement parameter (`?`), 0-indexed in lexical
    /// order. Parameters are bound to [`Value`]s at execution time by a
    /// prepared statement; evaluating an unbound parameter is an error.
    Param(usize),
}

impl Expr {
    /// Column reference shorthand.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Literal shorthand.
    pub fn lit(v: impl Into<Value>) -> Expr {
        Expr::Literal(v.into())
    }

    /// `self AND other` shorthand.
    pub fn and(self, other: Expr) -> Expr {
        Expr::Binary {
            left: Box::new(self),
            op: BinOp::And,
            right: Box::new(other),
        }
    }

    /// True if the expression contains an aggregate call.
    pub fn contains_aggregate(&self) -> bool {
        match self {
            Expr::Agg { .. } => true,
            Expr::Literal(_) | Expr::Column(_) | Expr::Param(_) => false,
            Expr::Unary { expr, .. } => expr.contains_aggregate(),
            Expr::Binary { left, right, .. } => {
                left.contains_aggregate() || right.contains_aggregate()
            }
            Expr::InList { expr, list, .. } => {
                expr.contains_aggregate() || list.iter().any(Expr::contains_aggregate)
            }
            Expr::Between {
                expr, low, high, ..
            } => expr.contains_aggregate() || low.contains_aggregate() || high.contains_aggregate(),
            Expr::IsNull { expr, .. } => expr.contains_aggregate(),
        }
    }

    /// Collect the names of all referenced columns (deduplicated, in first
    /// appearance order).
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_columns(&mut out);
        out
    }

    fn collect_columns(&self, out: &mut Vec<String>) {
        match self {
            Expr::Column(name) => {
                if !out.iter().any(|n| n.eq_ignore_ascii_case(name)) {
                    out.push(name.clone());
                }
            }
            Expr::Literal(_) | Expr::Param(_) => {}
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr.collect_columns(out),
            Expr::Binary { left, right, .. } => {
                left.collect_columns(out);
                right.collect_columns(out);
            }
            Expr::InList { expr, list, .. } => {
                expr.collect_columns(out);
                for e in list {
                    e.collect_columns(out);
                }
            }
            Expr::Between {
                expr, low, high, ..
            } => {
                expr.collect_columns(out);
                low.collect_columns(out);
                high.collect_columns(out);
            }
            Expr::Agg { arg, .. } => {
                if let Some(a) = arg {
                    a.collect_columns(out);
                }
            }
        }
    }

    /// A display-ready name for this expression when used as an unaliased
    /// projection (e.g. `COUNT(*)`, `country`).
    pub fn default_name(&self) -> String {
        match self {
            Expr::Column(c) => c.clone(),
            Expr::Agg { func, arg } => match arg {
                Some(a) => format!("{}({})", func.name(), a.default_name()),
                None => format!("{}(*)", func.name()),
            },
            Expr::Literal(v) => v.to_string(),
            Expr::Binary { left, op, right } => {
                format!("{} {} {}", left.default_name(), op, right.default_name())
            }
            Expr::Unary { op, expr } => match op {
                UnaryOp::Neg => format!("-{}", expr.default_name()),
                UnaryOp::Not => format!("NOT {}", expr.default_name()),
            },
            Expr::InList { expr, .. } => format!("{} IN (...)", expr.default_name()),
            Expr::Between { expr, .. } => format!("{} BETWEEN ...", expr.default_name()),
            Expr::IsNull { expr, negated } => format!(
                "{} IS {}NULL",
                expr.default_name(),
                if *negated { "NOT " } else { "" }
            ),
            Expr::Param(i) => format!("?{}", i + 1),
        }
    }

    /// True if the expression contains a positional parameter.
    pub fn has_params(&self) -> bool {
        self.max_param().is_some()
    }

    /// True if the expression is a pure literal computation: no column
    /// references, no positional parameters, no aggregate calls anywhere
    /// in the tree. Constant subtrees are what a planner may fold to a
    /// single literal at plan (or prepare) time without changing
    /// row-level semantics.
    pub fn is_const(&self) -> bool {
        match self {
            Expr::Literal(_) => true,
            Expr::Column(_) | Expr::Param(_) | Expr::Agg { .. } => false,
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr.is_const(),
            Expr::Binary { left, right, .. } => left.is_const() && right.is_const(),
            Expr::InList { expr, list, .. } => expr.is_const() && list.iter().all(Expr::is_const),
            Expr::Between {
                expr, low, high, ..
            } => expr.is_const() && low.is_const() && high.is_const(),
        }
    }

    /// Highest parameter index referenced, if any.
    pub fn max_param(&self) -> Option<usize> {
        match self {
            Expr::Param(i) => Some(*i),
            Expr::Literal(_) | Expr::Column(_) => None,
            Expr::Unary { expr, .. } | Expr::IsNull { expr, .. } => expr.max_param(),
            Expr::Binary { left, right, .. } => left.max_param().max(right.max_param()),
            Expr::InList { expr, list, .. } => list
                .iter()
                .filter_map(Expr::max_param)
                .max()
                .max(expr.max_param()),
            Expr::Between {
                expr, low, high, ..
            } => expr.max_param().max(low.max_param()).max(high.max_param()),
            Expr::Agg { arg, .. } => arg.as_deref().and_then(Expr::max_param),
        }
    }

    /// Replace every [`Expr::Param`] with the corresponding literal from
    /// `params`. Errors with the offending 0-based index when a parameter
    /// is out of range.
    pub fn bind_params(&self, params: &[Value]) -> Result<Expr, usize> {
        let bind_box = |e: &Expr| e.bind_params(params).map(Box::new);
        Ok(match self {
            Expr::Param(i) => match params.get(*i) {
                Some(v) => Expr::Literal(v.clone()),
                None => return Err(*i),
            },
            Expr::Literal(_) | Expr::Column(_) => self.clone(),
            Expr::Unary { op, expr } => Expr::Unary {
                op: *op,
                expr: bind_box(expr)?,
            },
            Expr::Binary { left, op, right } => Expr::Binary {
                left: bind_box(left)?,
                op: *op,
                right: bind_box(right)?,
            },
            Expr::InList {
                expr,
                list,
                negated,
            } => Expr::InList {
                expr: bind_box(expr)?,
                list: list
                    .iter()
                    .map(|e| e.bind_params(params))
                    .collect::<Result<_, _>>()?,
                negated: *negated,
            },
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => Expr::Between {
                expr: bind_box(expr)?,
                low: bind_box(low)?,
                high: bind_box(high)?,
                negated: *negated,
            },
            Expr::IsNull { expr, negated } => Expr::IsNull {
                expr: bind_box(expr)?,
                negated: *negated,
            },
            Expr::Agg { func, arg } => Expr::Agg {
                func: *func,
                arg: arg.as_deref().map(bind_box).transpose()?,
            },
        })
    }

    /// How tightly the top node binds, in the parser's precedence levels
    /// (OR < AND < NOT < comparison < `+ -` < `* / %` < unary minus <
    /// atoms). A negative number literal binds like unary minus.
    fn precedence(&self) -> u8 {
        match self {
            Expr::Binary { op, .. } => match op {
                BinOp::Or => 1,
                BinOp::And => 2,
                BinOp::Eq | BinOp::NotEq | BinOp::Lt | BinOp::LtEq | BinOp::Gt | BinOp::GtEq => 4,
                BinOp::Add | BinOp::Sub => 5,
                BinOp::Mul | BinOp::Div | BinOp::Mod => 6,
            },
            Expr::Unary {
                op: UnaryOp::Not, ..
            } => 3,
            Expr::InList { .. } | Expr::Between { .. } | Expr::IsNull { .. } => 4,
            Expr::Unary {
                op: UnaryOp::Neg, ..
            } => 7,
            Expr::Literal(Value::Int(i)) if *i < 0 => 7,
            Expr::Literal(Value::Float(x)) if x.is_sign_negative() => 7,
            Expr::Literal(_) | Expr::Column(_) | Expr::Param(_) | Expr::Agg { .. } => 8,
        }
    }

    /// Write `self` as an operand of a slot that needs at least `min`
    /// binding strength, parenthesized when it binds more loosely.
    fn fmt_operand(&self, f: &mut fmt::Formatter<'_>, min: u8) -> fmt::Result {
        if self.precedence() < min {
            write!(f, "({self})")
        } else {
            write!(f, "{self}")
        }
    }
}

/// The expression as SQL text that parses back to the same tree: string
/// literals are quoted (`'` doubled), float literals keep their decimal
/// point (`2.0`, not `2`), IN lists and BETWEEN bounds are written out,
/// and operands are parenthesized where precedence needs it. A `?` is
/// written with its 1-based position (`?1`). Messages,
/// plan text and `EXPLAIN` use this; [`Expr::default_name`] stays the
/// output-column name.
impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let not = |negated: bool| if negated { "NOT " } else { "" };
        match self {
            Expr::Column(c) => f.write_str(c),
            Expr::Literal(Value::Str(s)) => write!(f, "'{}'", s.replace('\'', "''")),
            Expr::Literal(Value::Float(x)) => write!(f, "{x:?}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Param(i) => write!(f, "?{}", i + 1),
            Expr::Agg { func, arg: None } => write!(f, "{}(*)", func.name()),
            Expr::Agg { func, arg: Some(a) } => write!(f, "{}({a})", func.name()),
            Expr::Binary { left, op, right } => {
                let p = self.precedence();
                // Comparisons take additive operands on both sides; the
                // other operators associate to the left.
                let (lmin, rmin) = if p == 4 { (5, 5) } else { (p, p + 1) };
                left.fmt_operand(f, lmin)?;
                write!(f, " {op} ")?;
                right.fmt_operand(f, rmin)
            }
            Expr::Unary {
                op: UnaryOp::Not,
                expr,
            } => {
                f.write_str("NOT ")?;
                expr.fmt_operand(f, 3)
            }
            Expr::Unary {
                op: UnaryOp::Neg,
                expr,
            } => {
                f.write_str("-")?;
                expr.fmt_operand(f, 8)
            }
            Expr::InList {
                expr,
                list,
                negated,
            } => {
                expr.fmt_operand(f, 5)?;
                write!(f, " {}IN (", not(*negated))?;
                for (i, item) in list.iter().enumerate() {
                    if i > 0 {
                        f.write_str(", ")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str(")")
            }
            Expr::Between {
                expr,
                low,
                high,
                negated,
            } => {
                expr.fmt_operand(f, 5)?;
                write!(f, " {}BETWEEN ", not(*negated))?;
                low.fmt_operand(f, 5)?;
                f.write_str(" AND ")?;
                high.fmt_operand(f, 5)
            }
            Expr::IsNull { expr, negated } => {
                expr.fmt_operand(f, 5)?;
                write!(f, " IS {}NULL", not(*negated))
            }
        }
    }
}

/// One projection in a SELECT list.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectItem {
    /// `*`.
    Wildcard,
    /// `expr [AS alias]`.
    Expr {
        /// The projected expression.
        expr: Expr,
        /// Optional alias.
        alias: Option<String>,
    },
}

/// `*`, `expr` or `expr AS alias`, with the expression's [`Expr`] text.
impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Wildcard => f.write_str("*"),
            SelectItem::Expr { expr, alias: None } => write!(f, "{expr}"),
            SelectItem::Expr {
                expr,
                alias: Some(alias),
            } => write!(f, "{expr} AS {alias}"),
        }
    }
}

/// A relation reference in a FROM clause: the relation name plus an
/// optional alias (`flights f` / `flights AS f`). Column references may
/// qualify with the binding name (`f.carrier`).
#[derive(Debug, Clone, PartialEq)]
pub struct TableRef {
    /// Relation name as written.
    pub name: String,
    /// Optional alias.
    pub alias: Option<String>,
}

impl TableRef {
    /// A bare reference without an alias.
    pub fn named(name: impl Into<String>) -> TableRef {
        TableRef {
            name: name.into(),
            alias: None,
        }
    }

    /// The name column references qualify with: the alias when present,
    /// the relation name otherwise.
    pub fn binding(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

impl fmt::Display for TableRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} AS {a}", self.name),
            None => f.write_str(&self.name),
        }
    }
}

/// Join kind: INNER keeps only matching row pairs; LEFT OUTER
/// additionally keeps every unmatched left row once, NULL-extended on
/// the right side (open-world queries are precisely about the rows an
/// inner join would drop).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JoinKind {
    /// `[INNER] JOIN`.
    #[default]
    Inner,
    /// `LEFT [OUTER] JOIN`.
    LeftOuter,
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            JoinKind::Inner => "INNER",
            JoinKind::LeftOuter => "LEFT OUTER",
        })
    }
}

/// One `JOIN <table> ON <predicate>` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct JoinClause {
    /// The joined relation.
    pub table: TableRef,
    /// INNER or LEFT OUTER.
    pub kind: JoinKind,
    /// The ON predicate. The binder requires a conjunction of equalities
    /// between the two sides (an equi-join).
    pub on: Expr,
}

/// A FROM clause: a base relation plus zero or more joins
/// (left-deep: each JOIN applies to everything to its left).
#[derive(Debug, Clone, PartialEq)]
pub struct FromClause {
    /// The leftmost relation.
    pub base: TableRef,
    /// `JOIN … ON …` clauses, in source order.
    pub joins: Vec<JoinClause>,
}

impl FromClause {
    /// A single-relation clause without alias or joins.
    pub fn table(name: impl Into<String>) -> FromClause {
        FromClause {
            base: TableRef::named(name),
            joins: Vec::new(),
        }
    }

    /// The bare relation name when this is a plain single-relation FROM
    /// (no joins, no alias) — the shape every pre-join code path handles.
    pub fn single(&self) -> Option<&str> {
        if self.joins.is_empty() && self.base.alias.is_none() {
            Some(&self.base.name)
        } else {
            None
        }
    }

    /// True when the clause contains at least one JOIN.
    pub fn has_joins(&self) -> bool {
        !self.joins.is_empty()
    }

    /// Every referenced relation, base first, in source order.
    pub fn relations(&self) -> impl Iterator<Item = &TableRef> {
        std::iter::once(&self.base).chain(self.joins.iter().map(|j| &j.table))
    }
}

/// A SELECT statement. A single-relation FROM covers the paper's §4
/// population queries; multi-relation FROMs (INNER equi-joins) let a
/// debiased sample join against ordinary dimension tables.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    /// Optional visibility level (populations only; defaults applied by the
    /// engine).
    pub visibility: Option<Visibility>,
    /// Projection list.
    pub items: Vec<SelectItem>,
    /// Source relations (population, sample, or auxiliary tables).
    pub from: Option<FromClause>,
    /// WHERE predicate.
    pub where_clause: Option<Expr>,
    /// GROUP BY expressions.
    pub group_by: Vec<Expr>,
    /// ORDER BY `(expr, descending)` pairs.
    pub order_by: Vec<(Expr, bool)>,
    /// LIMIT row count.
    pub limit: Option<usize>,
}

impl SelectStmt {
    /// Every expression in the statement, in clause order (JOIN … ON
    /// predicates come between the SELECT list and WHERE, matching their
    /// lexical position).
    fn exprs(&self) -> impl Iterator<Item = &Expr> {
        self.items
            .iter()
            .filter_map(|i| match i {
                SelectItem::Expr { expr, .. } => Some(expr),
                SelectItem::Wildcard => None,
            })
            .chain(self.from.iter().flat_map(|f| f.joins.iter().map(|j| &j.on)))
            .chain(self.where_clause.iter())
            .chain(self.group_by.iter())
            .chain(self.order_by.iter().map(|(e, _)| e))
    }

    /// Number of positional parameters the statement expects
    /// (`1 + max index`; parameters are numbered in lexical order).
    pub fn param_count(&self) -> usize {
        self.exprs()
            .filter_map(Expr::max_param)
            .max()
            .map_or(0, |i| i + 1)
    }

    /// Column names referenced anywhere in the statement (deduplicated,
    /// in first appearance order) — the prepare-time binding set.
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        for e in self.exprs() {
            for c in e.referenced_columns() {
                if !out.iter().any(|n: &String| n.eq_ignore_ascii_case(&c)) {
                    out.push(c);
                }
            }
        }
        out
    }

    /// Replace every positional parameter with the corresponding literal.
    /// Errors with the offending 0-based index on out-of-range access.
    pub fn bind_params(&self, params: &[Value]) -> Result<SelectStmt, usize> {
        Ok(SelectStmt {
            visibility: self.visibility,
            items: self
                .items
                .iter()
                .map(|i| match i {
                    SelectItem::Wildcard => Ok(SelectItem::Wildcard),
                    SelectItem::Expr { expr, alias } => Ok(SelectItem::Expr {
                        expr: expr.bind_params(params)?,
                        alias: alias.clone(),
                    }),
                })
                .collect::<Result<_, usize>>()?,
            from: self
                .from
                .as_ref()
                .map(|f| -> Result<FromClause, usize> {
                    Ok(FromClause {
                        base: f.base.clone(),
                        joins: f
                            .joins
                            .iter()
                            .map(|j| -> Result<JoinClause, usize> {
                                Ok(JoinClause {
                                    table: j.table.clone(),
                                    kind: j.kind,
                                    on: j.on.bind_params(params)?,
                                })
                            })
                            .collect::<Result<_, usize>>()?,
                    })
                })
                .transpose()?,
            where_clause: self
                .where_clause
                .as_ref()
                .map(|e| e.bind_params(params))
                .transpose()?,
            group_by: self
                .group_by
                .iter()
                .map(|e| e.bind_params(params))
                .collect::<Result<_, usize>>()?,
            order_by: self
                .order_by
                .iter()
                .map(|(e, d)| e.bind_params(params).map(|e| (e, *d)))
                .collect::<Result<_, usize>>()?,
            limit: self.limit,
        })
    }
}

/// A sampling mechanism declaration (paper §3.1: `USING MECHANISM
/// <mechanism> PERCENT <perc>`).
#[derive(Debug, Clone, PartialEq)]
pub enum MechanismSpec {
    /// `UNIFORM PERCENT p`: every GP tuple included independently so the
    /// sample is `p` percent of the GP.
    Uniform {
        /// Sample percentage of the GP.
        percent: f64,
    },
    /// `STRATIFIED ON attr PERCENT p`: equal-size strata samples totalling
    /// `p` percent of the GP.
    Stratified {
        /// Stratification attribute.
        attr: String,
        /// Sample percentage of the GP.
        percent: f64,
    },
}

/// Row source for INSERT.
#[derive(Debug, Clone, PartialEq)]
pub enum InsertSource {
    /// `VALUES (…), (…)` — each row is a list of literal expressions.
    Values(Vec<Vec<Expr>>),
    /// `INSERT INTO t SELECT …`.
    Select(Box<SelectStmt>),
}

/// A parsed SQL statement in the Mosaic dialect.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `CREATE [TEMPORARY] TABLE name (fields…)` — an auxiliary relation.
    CreateTable {
        /// Relation name.
        name: String,
        /// Declared fields (may be empty for late-bound ingestion).
        fields: Vec<Field>,
        /// TEMPORARY flag (auxiliary tables are transient in the paper's
        /// example; retained as a marker).
        temporary: bool,
    },
    /// `CREATE [GLOBAL] POPULATION name (fields…) [AS (SELECT … FROM gp
    /// WHERE pred)]`.
    CreatePopulation {
        /// Population name.
        name: String,
        /// True for the global population.
        global: bool,
        /// Declared attributes (may be empty when derived via AS SELECT).
        fields: Vec<Field>,
        /// Defining view over the global population: `(gp_name, predicate,
        /// projected columns)`.
        source: Option<(String, Option<Expr>, Vec<String>)>,
    },
    /// `CREATE SAMPLE name (fields…) AS (SELECT … FROM gp [WHERE pred]
    /// [USING MECHANISM …])`.
    CreateSample {
        /// Sample name.
        name: String,
        /// Declared attributes (may be empty).
        fields: Vec<Field>,
        /// Reference population.
        population: String,
        /// Projected columns (empty = `*`).
        columns: Vec<String>,
        /// Defining predicate over the population.
        predicate: Option<Expr>,
        /// Optional known sampling mechanism.
        mechanism: Option<MechanismSpec>,
    },
    /// `CREATE METADATA name [FOR population] AS (SELECT …)`.
    CreateMetadata {
        /// Metadata name (paper convention: `<pop>_M1`).
        name: String,
        /// Explicit population binding (extension; otherwise inferred from
        /// the name).
        population: Option<String>,
        /// The aggregate query producing the marginal.
        query: SelectStmt,
    },
    /// `INSERT INTO name [(cols…)] VALUES … | SELECT …`.
    Insert {
        /// Target relation.
        table: String,
        /// Optional explicit column list.
        columns: Option<Vec<String>>,
        /// Row source.
        source: InsertSource,
    },
    /// A SELECT query.
    Select(SelectStmt),
    /// `EXPLAIN <select>` — render the bound physical plan (operators,
    /// morsel count, thread budget, visibility pipeline) as a result
    /// table instead of executing the query.
    Explain(SelectStmt),
    /// `DROP TABLE|POPULATION|SAMPLE|METADATA name`.
    Drop {
        /// Relation name.
        name: String,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse_expr;

    #[test]
    fn expr_helpers() {
        let e = Expr::col("a").and(Expr::lit(1));
        assert!(matches!(e, Expr::Binary { op: BinOp::And, .. }));
    }

    #[test]
    fn aggregate_detection() {
        let e = Expr::Binary {
            left: Box::new(Expr::Agg {
                func: AggFunc::Count,
                arg: None,
            }),
            op: BinOp::Add,
            right: Box::new(Expr::lit(1)),
        };
        assert!(e.contains_aggregate());
        assert!(!Expr::col("x").contains_aggregate());
    }

    #[test]
    fn referenced_columns_dedup() {
        let e = Expr::col("a").and(Expr::Binary {
            left: Box::new(Expr::col("A")),
            op: BinOp::Lt,
            right: Box::new(Expr::col("b")),
        });
        assert_eq!(e.referenced_columns(), vec!["a".to_string(), "b".into()]);
    }

    #[test]
    fn default_names() {
        let e = Expr::Agg {
            func: AggFunc::Avg,
            arg: Some(Box::new(Expr::col("x"))),
        };
        assert_eq!(e.default_name(), "AVG(x)");
        assert_eq!(
            Expr::Agg {
                func: AggFunc::Count,
                arg: None
            }
            .default_name(),
            "COUNT(*)"
        );
    }

    /// The text parses back to the same tree, and what `default_name`
    /// loses — quotes, list items, bounds, a float's decimal point,
    /// grouping — it keeps.
    #[test]
    fn display_round_trips_through_the_parser() {
        for (src, text) in [
            ("s = 'k'", "s = 'k'"),
            ("s = k", "s = k"),
            ("s = 'it''s'", "s = 'it''s'"),
            ("i IN (1, 2, NULL)", "i IN (1, 2, NULL)"),
            ("s NOT IN ['a', 'b']", "s NOT IN ('a', 'b')"),
            ("f NOT BETWEEN 1 AND 2.5", "f NOT BETWEEN 1 AND 2.5"),
            ("f BETWEEN -1 AND i + 1", "f BETWEEN -1 AND i + 1"),
            ("SUM(i * 2.0)", "SUM(i * 2.0)"),
            ("(a + b) * c", "(a + b) * c"),
            ("a - (b - c)", "a - (b - c)"),
            ("a - b - c", "a - b - c"),
            ("a - -3", "a - -3"),
            ("-(a + 1)", "-(a + 1)"),
            ("-(-a)", "-(-a)"),
            ("(a OR b) AND NOT (c OR d)", "(a OR b) AND NOT (c OR d)"),
            ("NOT a = b", "NOT a = b"),
            ("(a = b) = c", "(a = b) = c"),
            ("(a > 1) IS NULL", "(a > 1) IS NULL"),
            ("COUNT(*) + MAX(t.v)", "COUNT(*) + MAX(t.v)"),
            ("b = true", "b = true"),
        ] {
            let e = parse_expr(src).unwrap();
            assert_eq!(e.to_string(), text, "{src}");
            assert_eq!(parse_expr(text).unwrap(), e, "{src} -> {text}");
        }
        // `-(-3)`: a folded literal under negation keeps its parentheses.
        let e = Expr::Unary {
            op: UnaryOp::Neg,
            expr: Box::new(Expr::lit(-3)),
        };
        assert_eq!(e.to_string(), "-(-3)");
        // A parameter is named by its 1-based position.
        let e = parse_expr("x IS NOT NULL OR y > ?").unwrap();
        assert_eq!(e.to_string(), "x IS NOT NULL OR y > ?1");
        // Output names are unchanged.
        assert_eq!(parse_expr("s = 'k'").unwrap().default_name(), "s = k");
    }

    #[test]
    fn agg_from_name_case_insensitive() {
        assert_eq!(AggFunc::from_name("avg"), Some(AggFunc::Avg));
        assert_eq!(AggFunc::from_name("median"), None);
    }
}
