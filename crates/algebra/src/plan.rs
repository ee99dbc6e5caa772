//! Logical relational operators, including the paper's extended Apply operators.

use std::fmt;

use decorr_common::{normalize_ident, Schema, Value};

use crate::expr::{AggCall, ScalarExpr};

/// Join types. `LeftSemi` / `LeftAnti` correspond to the paper's semijoin (⋉) and
/// antijoin annotations of the Apply operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    /// Inner join.
    Inner,
    /// Left outer join.
    LeftOuter,
    /// Left semijoin ⋉.
    LeftSemi,
    /// Left antijoin.
    LeftAnti,
    /// Cross product.
    Cross,
}

impl JoinKind {
    /// True if the join only returns columns of its left input.
    pub fn left_only(&self) -> bool {
        matches!(self, JoinKind::LeftSemi | JoinKind::LeftAnti)
    }
}

impl fmt::Display for JoinKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            JoinKind::Inner => "inner",
            JoinKind::LeftOuter => "left outer",
            JoinKind::LeftSemi => "left semi",
            JoinKind::LeftAnti => "left anti",
            JoinKind::Cross => "cross",
        };
        write!(f, "{s}")
    }
}

/// The join annotation of an Apply operator: one of cross product (the default), left
/// outer join, left semijoin and left antijoin — exactly the four variants of
/// Galindo-Legaria & Joshi used by the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyKind {
    /// `A×` — cross-product annotation.
    Cross,
    /// `A⟕` — left-outer annotation.
    LeftOuter,
    /// `A⋉` — semijoin annotation.
    LeftSemi,
    /// `A▷` — antijoin annotation.
    LeftAnti,
}

impl ApplyKind {
    /// The join kind this Apply turns into when the inner expression is uncorrelated
    /// (rule K1).
    pub fn to_join_kind(&self) -> JoinKind {
        match self {
            ApplyKind::Cross => JoinKind::Cross,
            ApplyKind::LeftOuter => JoinKind::LeftOuter,
            ApplyKind::LeftSemi => JoinKind::LeftSemi,
            ApplyKind::LeftAnti => JoinKind::LeftAnti,
        }
    }

    /// True if the Apply only returns columns of its left input.
    pub fn left_only(&self) -> bool {
        matches!(self, ApplyKind::LeftSemi | ApplyKind::LeftAnti)
    }
}

impl fmt::Display for ApplyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ApplyKind::Cross => "cross",
            ApplyKind::LeftOuter => "left outer",
            ApplyKind::LeftSemi => "left semi",
            ApplyKind::LeftAnti => "left anti",
        };
        write!(f, "{s}")
    }
}

/// One item of a generalized projection: an expression with an optional output alias.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectItem {
    /// The projected expression.
    pub expr: ScalarExpr,
    /// Output alias (`expr AS alias`).
    pub alias: Option<String>,
}

impl ProjectItem {
    /// An unaliased item.
    pub fn new(expr: ScalarExpr) -> ProjectItem {
        ProjectItem { expr, alias: None }
    }

    /// An aliased item.
    pub fn aliased(expr: ScalarExpr, alias: impl Into<String>) -> ProjectItem {
        ProjectItem {
            expr,
            alias: Some(normalize_ident(&alias.into())),
        }
    }

    /// The output column name of this item: the alias if given, otherwise the column
    /// name for plain column references, otherwise a positional name.
    pub fn output_name(&self, position: usize) -> String {
        if let Some(a) = &self.alias {
            return a.clone();
        }
        match &self.expr {
            ScalarExpr::Column(c) => c.name.clone(),
            ScalarExpr::Param(p) => p.clone(),
            _ => format!("col{position}"),
        }
    }
}

impl fmt::Display for ProjectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.alias {
            Some(a) => write!(f, "{} as {a}", self.expr),
            None => write!(f, "{}", self.expr),
        }
    }
}

/// A sort key: expression plus direction.
#[derive(Debug, Clone, PartialEq)]
pub struct SortKey {
    /// The key expression.
    pub expr: ScalarExpr,
    /// `ASC` (true) or `DESC`.
    pub ascending: bool,
}

/// A parameter binding of the Apply *bind* extension: formal parameter name and the
/// actual-argument expression evaluated against the outer (left) input.
#[derive(Debug, Clone, PartialEq)]
pub struct ParamBinding {
    /// The formal parameter being bound.
    pub param: String,
    /// The actual argument, evaluated against the outer tuple.
    pub value: ScalarExpr,
}

impl ParamBinding {
    /// A binding `param=value`.
    pub fn new(param: impl Into<String>, value: ScalarExpr) -> ParamBinding {
        ParamBinding {
            param: normalize_ident(&param.into()),
            value,
        }
    }
}

impl fmt::Display for ParamBinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.param, self.value)
    }
}

/// An assignment `left_attr = right_attr` of the Apply-Merge extension.
#[derive(Debug, Clone, PartialEq)]
pub struct MergeAssignment {
    /// Attribute of the left (outer) input being assigned to.
    pub target: String,
    /// Attribute of the right (inner) result providing the value.
    pub source: String,
}

impl MergeAssignment {
    /// An assignment `target=source`.
    pub fn new(target: impl Into<String>, source: impl Into<String>) -> MergeAssignment {
        MergeAssignment {
            target: normalize_ident(&target.into()),
            source: normalize_ident(&source.into()),
        }
    }
}

impl fmt::Display for MergeAssignment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={}", self.target, self.source)
    }
}

/// A logical relational expression (plan tree).
#[derive(Debug, Clone, PartialEq)]
pub enum RelExpr {
    /// The Single relation `S`: one empty tuple and no attributes (Section III). Used to
    /// return scalar constants or computed values as relations.
    Single,
    /// Base table scan, optionally aliased.
    Scan {
        /// The stored table name.
        table: String,
        /// Optional alias re-qualifying the output columns.
        alias: Option<String>,
    },
    /// An inline relation of literal rows (used for VALUES lists and unit tests).
    Values {
        /// Column names and types of the literal relation.
        schema: Schema,
        /// The literal rows; each must match the schema's arity.
        rows: Vec<Vec<Value>>,
    },
    /// Selection σ.
    Select {
        /// The filtered input.
        input: Box<RelExpr>,
        /// The filter predicate.
        predicate: ScalarExpr,
    },
    /// Generalized projection Π (`distinct = true`) / Πd (`distinct = false`,
    /// "projection without duplicate removal", Section III).
    Project {
        /// The projected input.
        input: Box<RelExpr>,
        /// The output expressions.
        items: Vec<ProjectItem>,
        /// Whether duplicates are eliminated (Π vs Πd).
        distinct: bool,
    },
    /// Group-by / aggregation  `a1,…,an G f1(),…,fm()`.
    Aggregate {
        /// The grouped input.
        input: Box<RelExpr>,
        /// Grouping expressions (empty for a scalar aggregate).
        group_by: Vec<ScalarExpr>,
        /// The aggregate computations.
        aggregates: Vec<AggCall>,
    },
    /// Join of two independent inputs.
    Join {
        /// Left input.
        left: Box<RelExpr>,
        /// Right input.
        right: Box<RelExpr>,
        /// The join type.
        kind: JoinKind,
        /// Join predicate; `None` for a pure cross product.
        condition: Option<ScalarExpr>,
    },
    /// Bag or set union.
    Union {
        /// Left input.
        left: Box<RelExpr>,
        /// Right input (same arity, unifiable column types).
        right: Box<RelExpr>,
        /// `UNION ALL` (bag) vs `UNION` (set).
        all: bool,
    },
    /// Sort.
    Sort {
        /// The sorted input.
        input: Box<RelExpr>,
        /// Sort keys, major first.
        keys: Vec<SortKey>,
    },
    /// Row limit (SQL `TOP n` / `LIMIT n`) — used by the experiments to vary the number
    /// of UDF invocations.
    Limit {
        /// The limited input.
        input: Box<RelExpr>,
        /// Maximum number of rows returned.
        limit: usize,
    },
    /// Rename operator ρ: re-qualifies every output column with a new relation alias.
    Rename {
        /// The renamed input.
        input: Box<RelExpr>,
        /// The new relation alias.
        alias: String,
    },
    /// The Apply operator `E0 A⊗ E1` with the *bind* extension (Section III). For every
    /// tuple of `left` the `right` expression is evaluated with the tuple's attributes in
    /// scope and with each bind parameter set to its actual-argument value.
    Apply {
        /// The outer input.
        left: Box<RelExpr>,
        /// The parameterised inner expression.
        right: Box<RelExpr>,
        /// The join annotation ⊗.
        kind: ApplyKind,
        /// Parameter bindings (`bind: p1=a1, …, pn=an`); empty for a plain Apply.
        bindings: Vec<ParamBinding>,
    },
    /// Apply-Merge `r AM(L) e(r)` (Section III): evaluates the single-tuple expression
    /// `right` per outer tuple and assigns selected result attributes back into the
    /// outer tuple. An empty assignment list means "merge all common attributes".
    ApplyMerge {
        /// The outer input.
        left: Box<RelExpr>,
        /// The single-tuple inner expression.
        right: Box<RelExpr>,
        /// Explicit assignment list; empty means "merge all common attributes".
        assignments: Vec<MergeAssignment>,
    },
    /// Conditional Apply-Merge `r AMC(p, et, ef)` (Section III): models assignments
    /// inside if-then-else blocks. Evaluates `predicate` per outer tuple and merges the
    /// result of `then_branch` or `else_branch` accordingly.
    ConditionalApplyMerge {
        /// The outer input.
        left: Box<RelExpr>,
        /// The branch condition, evaluated per outer tuple.
        predicate: ScalarExpr,
        /// Branch merged when the predicate holds.
        then_branch: Box<RelExpr>,
        /// Branch merged otherwise.
        else_branch: Box<RelExpr>,
        /// Explicit assignment list; empty means "merge all common attributes".
        assignments: Vec<MergeAssignment>,
    },
}

impl RelExpr {
    /// An unaliased base-table scan.
    pub fn scan(table: impl Into<String>) -> RelExpr {
        RelExpr::Scan {
            table: normalize_ident(&table.into()),
            alias: None,
        }
    }

    /// An aliased base-table scan.
    pub fn scan_as(table: impl Into<String>, alias: impl Into<String>) -> RelExpr {
        RelExpr::Scan {
            table: normalize_ident(&table.into()),
            alias: Some(normalize_ident(&alias.into())),
        }
    }

    /// The operator's immediate relational children, in [`RelExpr::for_each_child`]
    /// order (subqueries inside scalar expressions are *not* included; see
    /// [`crate::visit`]).
    pub fn children(&self) -> Vec<&RelExpr> {
        let mut children = vec![];
        self.for_each_child(&mut |c| children.push(c));
        children
    }

    /// Calls `f` on each immediate relational child, in order: `input`; `left` then
    /// `right`; or `left`, `then_branch`, `else_branch`. With
    /// [`RelExpr::for_each_child_mut`], the only enumeration of a plan's children.
    pub fn for_each_child<'a>(&'a self, f: &mut impl FnMut(&'a RelExpr)) {
        match self {
            RelExpr::Single | RelExpr::Scan { .. } | RelExpr::Values { .. } => {}
            RelExpr::Select { input, .. }
            | RelExpr::Project { input, .. }
            | RelExpr::Aggregate { input, .. }
            | RelExpr::Sort { input, .. }
            | RelExpr::Limit { input, .. }
            | RelExpr::Rename { input, .. } => f(input),
            RelExpr::Join { left, right, .. }
            | RelExpr::Union { left, right, .. }
            | RelExpr::Apply { left, right, .. }
            | RelExpr::ApplyMerge { left, right, .. } => {
                f(left);
                f(right);
            }
            RelExpr::ConditionalApplyMerge {
                left,
                then_branch,
                else_branch,
                ..
            } => {
                f(left);
                f(then_branch);
                f(else_branch);
            }
        }
    }

    /// [`RelExpr::for_each_child`], handing each child out mutably so a walker can
    /// rewrite the tree in place.
    pub fn for_each_child_mut(&mut self, f: &mut impl FnMut(&mut RelExpr)) {
        match self {
            RelExpr::Single | RelExpr::Scan { .. } | RelExpr::Values { .. } => {}
            RelExpr::Select { input, .. }
            | RelExpr::Project { input, .. }
            | RelExpr::Aggregate { input, .. }
            | RelExpr::Sort { input, .. }
            | RelExpr::Limit { input, .. }
            | RelExpr::Rename { input, .. } => f(input),
            RelExpr::Join { left, right, .. }
            | RelExpr::Union { left, right, .. }
            | RelExpr::Apply { left, right, .. }
            | RelExpr::ApplyMerge { left, right, .. } => {
                f(left);
                f(right);
            }
            RelExpr::ConditionalApplyMerge {
                left,
                then_branch,
                else_branch,
                ..
            } => {
                f(left);
                f(then_branch);
                f(else_branch);
            }
        }
    }

    /// The operator's first relational child.
    pub fn first_child(&self) -> Option<&RelExpr> {
        let mut first = None;
        self.for_each_child(&mut |c| {
            first.get_or_insert(c);
        });
        first
    }

    /// Scalar expressions owned directly by this operator (predicates, projection items,
    /// bindings, …), in [`RelExpr::for_each_expr`] order.
    pub fn expressions(&self) -> Vec<&ScalarExpr> {
        let mut exprs = vec![];
        self.for_each_expr(&mut |e| exprs.push(e));
        exprs
    }

    /// Calls `f` on each directly-owned scalar expression, in order: a selection's or
    /// conditional merge's predicate, the projection items, the grouping expressions
    /// then every aggregate's arguments, the join condition, the sort keys, the Apply
    /// binding values. With [`RelExpr::for_each_expr_mut`], the only enumeration of a
    /// plan's own expressions.
    pub fn for_each_expr<'a>(&'a self, f: &mut impl FnMut(&'a ScalarExpr)) {
        match self {
            RelExpr::Select { predicate, .. }
            | RelExpr::ConditionalApplyMerge { predicate, .. } => f(predicate),
            RelExpr::Project { items, .. } => items.iter().for_each(|i| f(&i.expr)),
            RelExpr::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                group_by.iter().for_each(&mut *f);
                for a in aggregates {
                    a.args.iter().for_each(&mut *f);
                }
            }
            RelExpr::Join { condition, .. } => condition.iter().for_each(f),
            RelExpr::Sort { keys, .. } => keys.iter().for_each(|k| f(&k.expr)),
            RelExpr::Apply { bindings, .. } => bindings.iter().for_each(|b| f(&b.value)),
            _ => {}
        }
    }

    /// [`RelExpr::for_each_expr`], handing each expression out mutably.
    pub fn for_each_expr_mut(&mut self, f: &mut impl FnMut(&mut ScalarExpr)) {
        match self {
            RelExpr::Select { predicate, .. }
            | RelExpr::ConditionalApplyMerge { predicate, .. } => f(predicate),
            RelExpr::Project { items, .. } => items.iter_mut().for_each(|i| f(&mut i.expr)),
            RelExpr::Aggregate {
                group_by,
                aggregates,
                ..
            } => {
                group_by.iter_mut().for_each(&mut *f);
                for a in aggregates {
                    a.args.iter_mut().for_each(&mut *f);
                }
            }
            RelExpr::Join { condition, .. } => condition.iter_mut().for_each(f),
            RelExpr::Sort { keys, .. } => keys.iter_mut().for_each(|k| f(&mut k.expr)),
            RelExpr::Apply { bindings, .. } => bindings.iter_mut().for_each(|b| f(&mut b.value)),
            _ => {}
        }
    }

    /// A short name for the operator, used in plan display and debugging.
    pub fn name(&self) -> &'static str {
        match self {
            RelExpr::Single => "Single",
            RelExpr::Scan { .. } => "Scan",
            RelExpr::Values { .. } => "Values",
            RelExpr::Select { .. } => "Select",
            RelExpr::Project { .. } => "Project",
            RelExpr::Aggregate { .. } => "Aggregate",
            RelExpr::Join { .. } => "Join",
            RelExpr::Union { .. } => "Union",
            RelExpr::Sort { .. } => "Sort",
            RelExpr::Limit { .. } => "Limit",
            RelExpr::Rename { .. } => "Rename",
            RelExpr::Apply { .. } => "Apply",
            RelExpr::ApplyMerge { .. } => "ApplyMerge",
            RelExpr::ConditionalApplyMerge { .. } => "ConditionalApplyMerge",
        }
    }

    /// True if the plan (recursively, including scalar subqueries) contains any of the
    /// extended or plain Apply operators — i.e. decorrelation has not (fully) succeeded.
    pub fn contains_apply(&self) -> bool {
        if matches!(
            self,
            RelExpr::Apply { .. }
                | RelExpr::ApplyMerge { .. }
                | RelExpr::ConditionalApplyMerge { .. }
        ) {
            return true;
        }
        if self.children().iter().any(|c| c.contains_apply()) {
            return true;
        }
        // Descend into subqueries held by scalar expressions.
        fn expr_has_apply(e: &ScalarExpr) -> bool {
            match e {
                ScalarExpr::ScalarSubquery(q) | ScalarExpr::Exists(q) => q.contains_apply(),
                ScalarExpr::InSubquery { subquery, expr, .. } => {
                    subquery.contains_apply() || expr_has_apply(expr)
                }
                other => other.children().iter().any(|c| expr_has_apply(c)),
            }
        }
        self.expressions().iter().any(|e| expr_has_apply(e))
    }

    /// True if the plan contains any UDF invocation in its scalar expressions.
    pub fn contains_udf_call(&self) -> bool {
        if self.expressions().iter().any(|e| e.contains_udf_call()) {
            return true;
        }
        self.children().iter().any(|c| c.contains_udf_call())
    }

    /// Structural FNV-1a fingerprint of the plan: hashes the derived `Debug`
    /// rendering, which covers every operator, expression, literal and alias in the
    /// tree. The optimizer's plan cache, the executor's per-node cardinality
    /// collector and the runtime feedback store all key on this value, so estimated
    /// and actual row counts for the same (sub)plan can be joined across layers.
    /// Collisions are possible in principle — callers that must rule them out (the
    /// plan cache) additionally compare the keyed plan with `==`.
    pub fn fingerprint(&self) -> u64 {
        let mut hasher = decorr_common::FnvHasher::new();
        // Infallible: the hasher's writer never errors.
        let _ = std::fmt::Write::write_fmt(&mut hasher, format_args!("{self:?}"));
        hasher.finish()
    }

    /// Counts operators in the plan tree (not descending into scalar subqueries).
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ScalarExpr as E;

    fn correlated_select() -> RelExpr {
        RelExpr::Select {
            input: Box::new(RelExpr::scan("orders")),
            predicate: E::eq(E::column("custkey"), E::param("ckey")),
        }
    }

    fn sample_apply() -> RelExpr {
        RelExpr::Apply {
            left: Box::new(RelExpr::scan("customer")),
            right: Box::new(correlated_select()),
            kind: ApplyKind::Cross,
            bindings: vec![ParamBinding::new("ckey", E::column("custkey"))],
        }
    }

    #[test]
    fn children_in_order() {
        let mut plan = sample_apply();
        let children: Vec<RelExpr> = plan.children().into_iter().cloned().collect();
        assert_eq!(children, [RelExpr::scan("customer"), correlated_select()]);
        assert_eq!(plan.first_child(), Some(&children[0]));
        plan.for_each_child_mut(&mut |c| *c = RelExpr::Single);
        assert_eq!(plan.children(), [&RelExpr::Single, &RelExpr::Single]);
    }

    #[test]
    fn contains_apply_detection() {
        assert!(sample_apply().contains_apply());
        assert!(!RelExpr::scan("customer").contains_apply());
        // Apply hidden inside a scalar subquery is also detected.
        let hidden = RelExpr::Select {
            input: Box::new(RelExpr::scan("t")),
            predicate: E::eq(
                ScalarExpr::ScalarSubquery(Box::new(sample_apply())),
                E::literal(1),
            ),
        };
        assert!(hidden.contains_apply());
    }

    #[test]
    fn node_count_counts_operators() {
        assert_eq!(sample_apply().node_count(), 4);
        assert_eq!(RelExpr::Single.node_count(), 1);
    }

    #[test]
    fn project_item_output_names() {
        assert_eq!(
            ProjectItem::aliased(E::literal(1), "One").output_name(0),
            "one"
        );
        assert_eq!(
            ProjectItem::new(E::column("custkey")).output_name(3),
            "custkey"
        );
        assert_eq!(ProjectItem::new(E::literal(5)).output_name(3), "col3");
    }

    #[test]
    fn apply_kind_join_mapping() {
        assert_eq!(ApplyKind::Cross.to_join_kind(), JoinKind::Cross);
        assert_eq!(ApplyKind::LeftOuter.to_join_kind(), JoinKind::LeftOuter);
        assert!(ApplyKind::LeftSemi.left_only());
    }

    #[test]
    fn udf_call_detection_in_plan() {
        let plan = RelExpr::Project {
            input: Box::new(RelExpr::scan("orders")),
            items: vec![ProjectItem::new(E::udf(
                "discount",
                vec![E::column("totalprice")],
            ))],
            distinct: false,
        };
        assert!(plan.contains_udf_call());
        assert!(!RelExpr::scan("orders").contains_udf_call());
    }
}
