//! Scalar expressions.

use std::fmt;

use decorr_common::{normalize_ident, DataType, Value};

use crate::plan::RelExpr;

/// A (possibly qualified) reference to a column of some relation in scope.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnRef {
    /// Optional relation qualifier (`orders` in `orders.custkey`).
    pub qualifier: Option<String>,
    /// The column name, normalised.
    pub name: String,
}

impl ColumnRef {
    /// An unqualified reference.
    pub fn new(name: impl Into<String>) -> ColumnRef {
        ColumnRef {
            qualifier: None,
            name: normalize_ident(&name.into()),
        }
    }

    /// A qualifier-scoped reference.
    pub fn qualified(qualifier: impl Into<String>, name: impl Into<String>) -> ColumnRef {
        ColumnRef {
            qualifier: Some(normalize_ident(&qualifier.into())),
            name: normalize_ident(&name.into()),
        }
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => write!(f, "{}", self.name),
        }
    }
}

/// Binary operators (arithmetic, comparison, logical, string concatenation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `+`
    Add,
    /// `-`
    Sub,
    /// `*`
    Mul,
    /// `/`
    Div,
    /// `%`
    Mod,
    /// `||`
    Concat,
    /// `=`
    Eq,
    /// `<>`
    NotEq,
    /// `<`
    Lt,
    /// `<=`
    LtEq,
    /// `>`
    Gt,
    /// `>=`
    GtEq,
    /// `AND`
    And,
    /// `OR`
    Or,
}

impl BinaryOp {
    /// True for comparison operators whose result is a boolean.
    pub fn is_comparison(&self) -> bool {
        matches!(
            self,
            BinaryOp::Eq
                | BinaryOp::NotEq
                | BinaryOp::Lt
                | BinaryOp::LtEq
                | BinaryOp::Gt
                | BinaryOp::GtEq
        )
    }

    /// True for AND / OR.
    pub fn is_logical(&self) -> bool {
        matches!(self, BinaryOp::And | BinaryOp::Or)
    }

    /// SQL rendering of the operator.
    pub fn sql(&self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
            BinaryOp::Mod => "%",
            BinaryOp::Concat => "||",
            BinaryOp::Eq => "=",
            BinaryOp::NotEq => "<>",
            BinaryOp::Lt => "<",
            BinaryOp::LtEq => "<=",
            BinaryOp::Gt => ">",
            BinaryOp::GtEq => ">=",
            BinaryOp::And => "AND",
            BinaryOp::Or => "OR",
        }
    }
}

impl fmt::Display for BinaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.sql())
    }
}

/// Unary operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnaryOp {
    /// Logical negation.
    Not,
    /// Arithmetic negation.
    Neg,
    /// `IS NULL`.
    IsNull,
    /// `IS NOT NULL`.
    IsNotNull,
}

impl fmt::Display for UnaryOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            UnaryOp::Not => "NOT",
            UnaryOp::Neg => "-",
            UnaryOp::IsNull => "IS NULL",
            UnaryOp::IsNotNull => "IS NOT NULL",
        };
        write!(f, "{s}")
    }
}

/// Built-in and user-defined aggregate functions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AggFunc {
    /// `count(expr)` — non-null values.
    Count,
    /// `count(*)` — counts rows rather than non-null values.
    CountStar,
    /// `sum(expr)`.
    Sum,
    /// `min(expr)`.
    Min,
    /// `max(expr)`.
    Max,
    /// `avg(expr)`.
    Avg,
    /// A user-defined aggregate, looked up by name in the function registry. These are
    /// produced by the cursor-loop algebraization of Section VII (the paper's
    /// `aux-agg()` of Example 6).
    UserDefined(String),
}

impl AggFunc {
    /// The SQL name of the aggregate.
    pub fn name(&self) -> String {
        match self {
            AggFunc::Count => "count".into(),
            AggFunc::CountStar => "count".into(),
            AggFunc::Sum => "sum".into(),
            AggFunc::Min => "min".into(),
            AggFunc::Max => "max".into(),
            AggFunc::Avg => "avg".into(),
            AggFunc::UserDefined(n) => n.clone(),
        }
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AggFunc::CountStar => write!(f, "count(*)"),
            other => write!(f, "{}", other.name()),
        }
    }
}

/// A single aggregate computation inside an [`RelExpr::Aggregate`] node.
#[derive(Debug, Clone, PartialEq)]
pub struct AggCall {
    /// The aggregate function.
    pub func: AggFunc,
    /// Argument expressions evaluated against the aggregate's input. Empty for
    /// `count(*)`; user-defined aggregates may take several arguments.
    pub args: Vec<ScalarExpr>,
    /// `agg(distinct expr)` — deduplicate the argument values first.
    pub distinct: bool,
    /// Output column name.
    pub alias: String,
}

impl AggCall {
    /// A non-distinct aggregate call.
    pub fn new(func: AggFunc, args: Vec<ScalarExpr>, alias: impl Into<String>) -> AggCall {
        AggCall {
            func,
            args,
            distinct: false,
            alias: normalize_ident(&alias.into()),
        }
    }
}

impl fmt::Display for AggCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let args = if matches!(self.func, AggFunc::CountStar) {
            "*".to_string()
        } else {
            self.args
                .iter()
                .map(|a| a.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        };
        let distinct = if self.distinct { "distinct " } else { "" };
        write!(
            f,
            "{}({}{}) as {}",
            self.func.name(),
            distinct,
            args,
            self.alias
        )
    }
}

/// A scalar expression.
#[derive(Debug, Clone, PartialEq)]
pub enum ScalarExpr {
    /// A constant.
    Literal(Value),
    /// A reference to a column of a relation in scope (possibly an *outer* relation,
    /// which is what makes an expression correlated).
    Column(ColumnRef),
    /// A named parameter: a UDF formal parameter, a UDF local variable, or a correlation
    /// variable introduced by the Apply *bind* extension (`:ckey` in the paper's
    /// examples).
    Param(String),
    /// Binary operation.
    Binary {
        /// The operator.
        op: BinaryOp,
        /// Left operand.
        left: Box<ScalarExpr>,
        /// Right operand.
        right: Box<ScalarExpr>,
    },
    /// Unary operation.
    Unary {
        /// The operator.
        op: UnaryOp,
        /// The operand.
        expr: Box<ScalarExpr>,
    },
    /// Conditional expression `(p1?e1 : p2?e2 : … : en)` — SQL `CASE WHEN`.
    Case {
        /// `(condition, result)` pairs, tested in order.
        branches: Vec<(ScalarExpr, ScalarExpr)>,
        /// Result when no branch matches (NULL when absent).
        else_expr: Option<Box<ScalarExpr>>,
    },
    /// Explicit cast.
    Cast {
        /// The expression being cast.
        expr: Box<ScalarExpr>,
        /// The target type.
        data_type: DataType,
    },
    /// `coalesce(e1, e2, …)` — first non-null argument.
    Coalesce(Vec<ScalarExpr>),
    /// A scalar subquery `(select …)`: must produce at most one row and one column.
    ScalarSubquery(Box<RelExpr>),
    /// `EXISTS (select …)`.
    Exists(Box<RelExpr>),
    /// `expr IN (select …)`.
    InSubquery {
        /// The probe expression.
        expr: Box<ScalarExpr>,
        /// The one-column subquery providing the membership set.
        subquery: Box<RelExpr>,
        /// `NOT IN`.
        negated: bool,
    },
    /// Invocation of a scalar user-defined function. Evaluated by the interpreter when
    /// executed directly (the paper's iterative plan); removed by the decorrelation
    /// rewrite when possible.
    UdfCall {
        /// Registered UDF name, normalised.
        name: String,
        /// Argument expressions, in formal-parameter order.
        args: Vec<ScalarExpr>,
    },
}

/// One immediate child slot of a [`ScalarExpr`] node, as
/// [`ScalarExpr::for_each_child_mut`] hands it out.
#[derive(Debug)]
pub enum ChildMut<'a> {
    /// A sub-expression.
    Expr(&'a mut ScalarExpr),
    /// The plan of a scalar / `EXISTS` / `IN` subquery.
    Subquery(&'a mut RelExpr),
}

impl ScalarExpr {
    /// An unqualified column reference.
    pub fn column(name: impl Into<String>) -> ScalarExpr {
        ScalarExpr::Column(ColumnRef::new(name))
    }

    /// A qualified column reference.
    pub fn qualified_column(q: impl Into<String>, name: impl Into<String>) -> ScalarExpr {
        ScalarExpr::Column(ColumnRef::qualified(q, name))
    }

    /// A constant.
    pub fn literal(v: impl Into<Value>) -> ScalarExpr {
        ScalarExpr::Literal(v.into())
    }

    /// A named parameter reference.
    pub fn param(name: impl Into<String>) -> ScalarExpr {
        ScalarExpr::Param(normalize_ident(&name.into()))
    }

    /// The NULL literal.
    pub fn null() -> ScalarExpr {
        ScalarExpr::Literal(Value::Null)
    }

    /// A binary operation.
    pub fn binary(op: BinaryOp, left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Binary {
            op,
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// `left = right`.
    pub fn eq(left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinaryOp::Eq, left, right)
    }

    /// `left > right`.
    pub fn gt(left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinaryOp::Gt, left, right)
    }

    /// `left < right`.
    pub fn lt(left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinaryOp::Lt, left, right)
    }

    /// `left AND right`.
    pub fn and(left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinaryOp::And, left, right)
    }

    /// `left OR right`.
    pub fn or(left: ScalarExpr, right: ScalarExpr) -> ScalarExpr {
        ScalarExpr::binary(BinaryOp::Or, left, right)
    }

    #[allow(clippy::should_implement_trait)]
    /// Logical negation.
    pub fn not(expr: ScalarExpr) -> ScalarExpr {
        ScalarExpr::Unary {
            op: UnaryOp::Not,
            expr: Box::new(expr),
        }
    }

    /// A scalar UDF invocation.
    pub fn udf(name: impl Into<String>, args: Vec<ScalarExpr>) -> ScalarExpr {
        ScalarExpr::UdfCall {
            name: normalize_ident(&name.into()),
            args,
        }
    }

    /// Conjunction of a list of predicates (`true` when empty).
    pub fn conjunction(mut preds: Vec<ScalarExpr>) -> ScalarExpr {
        match preds.len() {
            0 => ScalarExpr::Literal(Value::Bool(true)),
            1 => preds.pop().unwrap(),
            _ => {
                let mut it = preds.into_iter();
                let first = it.next().unwrap();
                it.fold(first, ScalarExpr::and)
            }
        }
    }

    /// Splits a predicate into its top-level AND-ed conjuncts.
    pub fn split_conjuncts(&self) -> Vec<ScalarExpr> {
        match self {
            ScalarExpr::Binary {
                op: BinaryOp::And,
                left,
                right,
            } => {
                let mut v = left.split_conjuncts();
                v.extend(right.split_conjuncts());
                v
            }
            other => vec![other.clone()],
        }
    }

    /// True if the expression is the boolean literal TRUE.
    pub fn is_true_literal(&self) -> bool {
        matches!(self, ScalarExpr::Literal(Value::Bool(true)))
    }

    /// Returns the children of this expression (not descending into subquery plans).
    pub fn children(&self) -> Vec<&ScalarExpr> {
        let mut children = vec![];
        self.for_each_child(&mut |c| children.push(c));
        children
    }

    /// Calls `f` on each immediate child expression without allocating — the hot-path
    /// form of [`ScalarExpr::children`] for traversals that run per plan node (the
    /// static validator, free-variable analysis).
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a ScalarExpr)) {
        match self {
            ScalarExpr::Literal(_)
            | ScalarExpr::Column(_)
            | ScalarExpr::Param(_)
            | ScalarExpr::ScalarSubquery(_)
            | ScalarExpr::Exists(_) => {}
            ScalarExpr::Binary { left, right, .. } => {
                f(left);
                f(right);
            }
            ScalarExpr::Unary { expr, .. } | ScalarExpr::Cast { expr, .. } => f(expr),
            ScalarExpr::Coalesce(args) => args.iter().for_each(f),
            ScalarExpr::Case {
                branches,
                else_expr,
            } => {
                for (p, e) in branches {
                    f(p);
                    f(e);
                }
                if let Some(e) = else_expr {
                    f(e);
                }
            }
            ScalarExpr::InSubquery { expr, .. } => f(expr),
            ScalarExpr::UdfCall { args, .. } => args.iter().for_each(f),
        }
    }

    /// Calls `f` on each immediate child slot — sub-expressions *and* subquery plans —
    /// mutably, in evaluation order. The one enumeration of the variants every
    /// rewriting walker in [`crate::visit`] is built on.
    pub fn for_each_child_mut(&mut self, f: &mut dyn FnMut(ChildMut<'_>)) {
        match self {
            ScalarExpr::Literal(_) | ScalarExpr::Column(_) | ScalarExpr::Param(_) => {}
            ScalarExpr::ScalarSubquery(q) | ScalarExpr::Exists(q) => f(ChildMut::Subquery(q)),
            ScalarExpr::Binary { left, right, .. } => {
                f(ChildMut::Expr(left));
                f(ChildMut::Expr(right));
            }
            ScalarExpr::Unary { expr, .. } | ScalarExpr::Cast { expr, .. } => {
                f(ChildMut::Expr(expr))
            }
            ScalarExpr::Coalesce(args) | ScalarExpr::UdfCall { args, .. } => {
                args.iter_mut().for_each(|a| f(ChildMut::Expr(a)))
            }
            ScalarExpr::Case {
                branches,
                else_expr,
            } => {
                for (p, e) in branches {
                    f(ChildMut::Expr(p));
                    f(ChildMut::Expr(e));
                }
                if let Some(e) = else_expr {
                    f(ChildMut::Expr(e));
                }
            }
            ScalarExpr::InSubquery { expr, subquery, .. } => {
                f(ChildMut::Expr(expr));
                f(ChildMut::Subquery(subquery));
            }
        }
    }

    /// True if the expression (not descending into subqueries) contains any UDF call.
    pub fn contains_udf_call(&self) -> bool {
        if matches!(self, ScalarExpr::UdfCall { .. }) {
            return true;
        }
        self.children().iter().any(|c| c.contains_udf_call())
    }

    /// True if the expression contains a subquery (scalar, EXISTS or IN).
    pub fn contains_subquery(&self) -> bool {
        match self {
            ScalarExpr::ScalarSubquery(_)
            | ScalarExpr::Exists(_)
            | ScalarExpr::InSubquery { .. } => true,
            other => other.children().iter().any(|c| c.contains_subquery()),
        }
    }

    /// Collects the names of all [`ScalarExpr::Param`]s appearing in the expression
    /// (not descending into subquery plans — use [`crate::visit::free_params`] for
    /// whole-plan analysis).
    pub fn collect_params(&self, out: &mut Vec<String>) {
        if let ScalarExpr::Param(p) = self {
            if !out.contains(p) {
                out.push(p.clone());
            }
        }
        for c in self.children() {
            c.collect_params(out);
        }
    }

    /// Collects all column references appearing directly in the expression.
    pub fn collect_columns(&self, out: &mut Vec<ColumnRef>) {
        if let ScalarExpr::Column(c) = self {
            if !out.contains(c) {
                out.push(c.clone());
            }
        }
        for c in self.children() {
            c.collect_columns(out);
        }
    }
}

impl fmt::Display for ScalarExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScalarExpr::Literal(v) => write!(f, "{v}"),
            ScalarExpr::Column(c) => write!(f, "{c}"),
            ScalarExpr::Param(p) => write!(f, ":{p}"),
            ScalarExpr::Binary { op, left, right } => write!(f, "({left} {op} {right})"),
            ScalarExpr::Unary { op, expr } => match op {
                UnaryOp::IsNull | UnaryOp::IsNotNull => write!(f, "({expr} {op})"),
                _ => write!(f, "({op} {expr})"),
            },
            ScalarExpr::Case {
                branches,
                else_expr,
            } => {
                write!(f, "case")?;
                for (p, e) in branches {
                    write!(f, " when {p} then {e}")?;
                }
                if let Some(e) = else_expr {
                    write!(f, " else {e}")?;
                }
                write!(f, " end")
            }
            ScalarExpr::Cast { expr, data_type } => write!(f, "cast({expr} as {data_type})"),
            ScalarExpr::Coalesce(args) => {
                let parts: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                write!(f, "coalesce({})", parts.join(", "))
            }
            ScalarExpr::ScalarSubquery(_) => write!(f, "(<scalar subquery>)"),
            ScalarExpr::Exists(_) => write!(f, "exists(<subquery>)"),
            ScalarExpr::InSubquery { expr, negated, .. } => {
                write!(
                    f,
                    "{expr} {}in (<subquery>)",
                    if *negated { "not " } else { "" }
                )
            }
            ScalarExpr::UdfCall { name, args } => {
                let parts: Vec<String> = args.iter().map(|a| a.to_string()).collect();
                write!(f, "{name}({})", parts.join(", "))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunction_roundtrip() {
        let a = ScalarExpr::eq(ScalarExpr::column("x"), ScalarExpr::literal(1));
        let b = ScalarExpr::gt(ScalarExpr::column("y"), ScalarExpr::literal(2));
        let c = ScalarExpr::lt(ScalarExpr::column("z"), ScalarExpr::literal(3));
        let conj = ScalarExpr::conjunction(vec![a.clone(), b.clone(), c.clone()]);
        assert_eq!(conj.split_conjuncts(), vec![a, b, c]);
        assert!(ScalarExpr::conjunction(vec![]).is_true_literal());
    }

    #[test]
    fn collect_params_dedups() {
        let e = ScalarExpr::and(
            ScalarExpr::eq(ScalarExpr::param("ckey"), ScalarExpr::column("custkey")),
            ScalarExpr::gt(ScalarExpr::param("ckey"), ScalarExpr::param("other")),
        );
        let mut params = vec![];
        e.collect_params(&mut params);
        assert_eq!(params, vec!["ckey".to_string(), "other".to_string()]);
    }

    #[test]
    fn contains_udf_call_nested() {
        let e = ScalarExpr::binary(
            BinaryOp::Mul,
            ScalarExpr::udf("discount", vec![ScalarExpr::column("totalprice")]),
            ScalarExpr::literal(2),
        );
        assert!(e.contains_udf_call());
        assert!(!ScalarExpr::column("x").contains_udf_call());
    }

    #[test]
    fn display_case() {
        let e = ScalarExpr::Case {
            branches: vec![(
                ScalarExpr::gt(ScalarExpr::column("tb"), ScalarExpr::literal(1000000)),
                ScalarExpr::literal("Platinum"),
            )],
            else_expr: Some(Box::new(ScalarExpr::literal("Regular"))),
        };
        assert_eq!(
            e.to_string(),
            "case when (tb > 1000000) then 'Platinum' else 'Regular' end"
        );
    }

    #[test]
    fn display_param_and_udf() {
        let e = ScalarExpr::udf("service_level", vec![ScalarExpr::param("CKey")]);
        assert_eq!(e.to_string(), "service_level(:ckey)");
    }
}
