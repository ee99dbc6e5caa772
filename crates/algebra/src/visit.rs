//! Plan and expression traversal, substitution and free-variable analysis.
//!
//! The transformation rules of Section VI need three pieces of static analysis:
//!
//! 1. *parameter substitution* — rule R9 (Apply-bind removal) replaces every occurrence
//!    of a formal parameter in the inner expression with the corresponding actual
//!    argument;
//! 2. *free parameters* — a plan whose free parameters are all bound by an Apply-bind can
//!    be checked for correlation;
//! 3. *free (outer) column references* — rules K1/K2 require that the inner expression
//!    "uses no parameters from r", i.e. references no attribute produced by the outer
//!    expression and no bind parameter. Where a column binds is decided by one walk,
//!    [`walk_scopes`], which the plan validator visits too.

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use decorr_common::{Schema, Value};

use crate::expr::{ChildMut, ColumnRef, ScalarExpr};
use crate::plan::RelExpr;
use crate::schema::{SchemaMemo, SchemaProvider};

/// Applies `f` bottom-up to every operator in the plan (children first, then the parent
/// holding the rewritten children).
pub fn transform_plan_up(plan: &RelExpr, f: &mut dyn FnMut(RelExpr) -> RelExpr) -> RelExpr {
    fn rewrite(plan: &mut RelExpr, f: &mut dyn FnMut(RelExpr) -> RelExpr) {
        plan.for_each_child_mut(&mut |c| rewrite(c, f));
        *plan = f(std::mem::replace(plan, RelExpr::Single));
    }
    let mut plan = plan.clone();
    rewrite(&mut plan, f);
    plan
}

/// Applies `plan_f` bottom-up to every operator in the plan — including the plans of
/// scalar subqueries nested inside expressions — and `expr_f` bottom-up to every scalar
/// expression node along the way. Unlike [`transform_plan_up`], which stops at subquery
/// boundaries, this rewrites the entire reachable tree; the UDF-merge pass uses it to
/// re-qualify inlined UDF bodies.
pub fn transform_plan_deep(
    plan: &RelExpr,
    plan_f: &mut dyn FnMut(RelExpr) -> RelExpr,
    expr_f: &mut dyn FnMut(ScalarExpr) -> ScalarExpr,
) -> RelExpr {
    let mut plan = plan.clone();
    rewrite_plan_deep(&mut plan, plan_f, expr_f);
    plan
}

/// [`transform_plan_deep`] in place: children, then the node's own expressions (and
/// the subquery plans inside them), then the node.
fn rewrite_plan_deep(
    plan: &mut RelExpr,
    plan_f: &mut dyn FnMut(RelExpr) -> RelExpr,
    expr_f: &mut dyn FnMut(ScalarExpr) -> ScalarExpr,
) {
    plan.for_each_child_mut(&mut |c| rewrite_plan_deep(c, plan_f, expr_f));
    plan.for_each_expr_mut(&mut |e| {
        rewrite_expr(
            e,
            &mut |q, expr_f| rewrite_plan_deep(q, plan_f, expr_f),
            expr_f,
        )
    });
    *plan = plan_f(std::mem::replace(plan, RelExpr::Single));
}

/// What a walker does with a subquery plan it meets inside an expression; it is handed
/// the walker's own expression function to carry into the plan.
type SubqueryFn<'a> = dyn FnMut(&mut RelExpr, &mut dyn FnMut(ScalarExpr) -> ScalarExpr) + 'a;

/// The one expression walker: applies `f` bottom-up, in place, to every node of `expr`
/// (a node is handed to `f` with its children already rewritten), passing each nested
/// subquery plan to `subquery` on the way.
fn rewrite_expr(
    expr: &mut ScalarExpr,
    subquery: &mut SubqueryFn<'_>,
    f: &mut dyn FnMut(ScalarExpr) -> ScalarExpr,
) {
    expr.for_each_child_mut(&mut |child| match child {
        ChildMut::Expr(e) => rewrite_expr(e, subquery, f),
        ChildMut::Subquery(q) => subquery(q, f),
    });
    let node = std::mem::replace(expr, ScalarExpr::Literal(Value::Null));
    *expr = f(node);
}

/// Applies `f` bottom-up to every node of a scalar expression. Does not descend into
/// subquery plans (use [`map_plan_exprs`] for that).
pub fn transform_expr_up(
    expr: &ScalarExpr,
    f: &mut dyn FnMut(ScalarExpr) -> ScalarExpr,
) -> ScalarExpr {
    let mut expr = expr.clone();
    rewrite_expr(&mut expr, &mut |_, _| {}, f);
    expr
}

/// Rewrites every scalar expression owned by any operator in the plan (recursively
/// through the whole tree, including the plans of scalar subqueries) by applying `f`
/// bottom-up to the expression nodes.
pub fn map_plan_exprs(plan: &RelExpr, f: &mut dyn FnMut(ScalarExpr) -> ScalarExpr) -> RelExpr {
    transform_plan_deep(plan, &mut |node| node, f)
}

/// Substitutes parameters in a scalar expression using `bindings`, descending into
/// subquery plans.
fn substitute_params_in_expr(expr: &mut ScalarExpr, bindings: &HashMap<String, ScalarExpr>) {
    rewrite_expr(
        expr,
        &mut |q, subst| rewrite_plan_deep(q, &mut |node| node, subst),
        &mut |e| match &e {
            ScalarExpr::Param(p) => bindings.get(p).cloned().unwrap_or(e),
            _ => e,
        },
    );
}

/// Substitutes parameters throughout a plan. Parameters that are re-bound by a nested
/// Apply-bind with the same name are *shadowed* and left untouched below that Apply.
pub fn substitute_params_in_plan(
    plan: &RelExpr,
    bindings: &HashMap<String, ScalarExpr>,
) -> RelExpr {
    fn substitute(plan: &mut RelExpr, bindings: &HashMap<String, ScalarExpr>) {
        if bindings.is_empty() {
            return;
        }
        // An Apply's binding values are evaluated against the outer scope, like every
        // other expression an operator owns.
        plan.for_each_expr_mut(&mut |e| substitute_params_in_expr(e, bindings));
        match plan {
            RelExpr::Apply {
                left,
                right,
                bindings: rebound,
                ..
            } => {
                // Parameters re-bound here are shadowed in the right child.
                let mut inner = bindings.clone();
                for b in rebound.iter() {
                    inner.remove(&b.param);
                }
                substitute(left, bindings);
                substitute(right, &inner);
            }
            other => other.for_each_child_mut(&mut |c| substitute(c, bindings)),
        }
    }
    let mut plan = plan.clone();
    substitute(&mut plan, bindings);
    plan
}

/// Collects the free parameters of a plan: parameters referenced anywhere in the tree
/// that are not bound by an enclosing Apply-bind inside the plan itself.
pub fn free_params(plan: &RelExpr) -> Vec<String> {
    let mut out = vec![];
    collect_free_params(plan, &HashSet::new(), &mut out);
    out
}

fn collect_free_params(plan: &RelExpr, bound: &HashSet<String>, out: &mut Vec<String>) {
    // Parameters in this node's own expressions.
    plan.for_each_expr(&mut |e| collect_expr_free_params(e, bound, out));
    match plan {
        RelExpr::Apply {
            left,
            right,
            bindings,
            ..
        } => {
            collect_free_params(left, bound, out);
            let mut inner = bound.clone();
            for b in bindings {
                inner.insert(b.param.clone());
            }
            collect_free_params(right, &inner, out);
        }
        other => {
            other.for_each_child(&mut |c| collect_free_params(c, bound, out));
        }
    }
}

fn collect_expr_free_params(expr: &ScalarExpr, bound: &HashSet<String>, out: &mut Vec<String>) {
    match expr {
        ScalarExpr::Param(p) => {
            if !bound.contains(p) && !out.contains(p) {
                out.push(p.clone());
            }
        }
        ScalarExpr::ScalarSubquery(q) | ScalarExpr::Exists(q) => collect_free_params(q, bound, out),
        ScalarExpr::InSubquery { expr, subquery, .. } => {
            collect_expr_free_params(expr, bound, out);
            collect_free_params(subquery, bound, out);
        }
        other => {
            other.for_each_child(&mut |c| collect_expr_free_params(c, bound, out));
        }
    }
}

/// Where a column reference binds under the static scope model of [`walk_scopes`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Binding {
    /// The innermost scope with the name, inside the plan, has exactly one match.
    Bound,
    /// No scope inside the plan has the name: it refers to an outer query block.
    Free,
    /// The innermost scope with the name has it more than once.
    Ambiguous,
    /// The schema the operator's expressions see could not be inferred (e.g. a scan of
    /// an unknown table below it).
    Unknown,
}

/// What a [`walk_scopes`] caller does with the plan it walks. The walk is pre-order: an
/// operator, then its own expressions (each subquery where it occurs), then its
/// children.
pub trait ScopeVisitor {
    /// An operator, before its expressions and children; `schemas` is the walk's memo.
    fn operator(&mut self, _plan: &RelExpr, _schemas: &mut SchemaMemo) {}
    /// An expression node, before its children.
    fn expr(&mut self, _expr: &ScalarExpr) {}
    /// A column reference in an expression `operator` owns, and where it binds.
    fn column(&mut self, column: &ColumnRef, operator: &'static str, binding: Binding);
}

/// Walks `plan` under the one static scope model, the one both the plan validator and
/// the rules' correlation test ([`free_column_refs`]) read:
///
/// * an operator's own expressions see its input: both inputs of a join, union, Apply or
///   Apply-Merge, the left input of a conditional Apply-Merge, the only input otherwise;
/// * an Apply or Apply-Merge right side, and a conditional Apply-Merge's branches, also
///   see the left input;
/// * a subquery also sees the scope of the expression holding it;
/// * the innermost scope with the name decides.
///
/// Each node's schema is inferred once, through one [`SchemaMemo`].
pub fn walk_scopes(plan: &RelExpr, provider: &dyn SchemaProvider, visitor: &mut dyn ScopeVisitor) {
    let mut walk = ScopeWalk {
        provider,
        schemas: SchemaMemo::new(),
        outer: vec![],
        visitor,
    };
    walk.plan(plan);
}

struct ScopeWalk<'a> {
    provider: &'a dyn SchemaProvider,
    schemas: SchemaMemo,
    /// The enclosing scopes, innermost last. A scope whose schema is unknown sees
    /// nothing, so it is not pushed.
    outer: Vec<Rc<Schema>>,
    visitor: &'a mut dyn ScopeVisitor,
}

impl ScopeWalk<'_> {
    fn schema(&mut self, plan: &RelExpr) -> Option<Rc<Schema>> {
        self.schemas.infer(plan, self.provider).ok()
    }

    /// The schema the operator's own expressions see, `None` if a child's is unknown.
    fn visible(&mut self, plan: &RelExpr) -> Option<Rc<Schema>> {
        match plan {
            RelExpr::Join { left, right, .. }
            | RelExpr::Union { left, right, .. }
            | RelExpr::Apply { left, right, .. }
            | RelExpr::ApplyMerge { left, right, .. } => {
                let (l, r) = (self.schema(left)?, self.schema(right)?);
                Some(Rc::new(l.join(&r)))
            }
            RelExpr::ConditionalApplyMerge { left, .. } => self.schema(left),
            other => match other.first_child() {
                Some(c) => self.schema(c),
                None => Some(Rc::new(Schema::empty())),
            },
        }
    }

    /// Runs `f` with `scope` (if known) as the innermost enclosing scope.
    fn within(&mut self, scope: Option<Rc<Schema>>, f: impl FnOnce(&mut Self)) {
        let pushed = scope.map(|s| self.outer.push(s)).is_some();
        f(self);
        if pushed {
            self.outer.pop();
        }
    }

    fn plan(&mut self, plan: &RelExpr) {
        self.visitor.operator(plan, &mut self.schemas);
        let visible = self.visible(plan);
        plan.for_each_expr(&mut |e| self.expr(e, visible.as_ref(), plan.name()));
        match plan {
            RelExpr::Apply { left, right, .. } | RelExpr::ApplyMerge { left, right, .. } => {
                self.plan(left);
                let scope = self.schema(left);
                self.within(scope, |w| w.plan(right));
            }
            RelExpr::ConditionalApplyMerge {
                left,
                then_branch,
                else_branch,
                ..
            } => {
                self.plan(left);
                let scope = self.schema(left);
                self.within(scope, |w| {
                    w.plan(then_branch);
                    w.plan(else_branch);
                });
            }
            other => other.for_each_child(&mut |c| self.plan(c)),
        }
    }

    fn expr(&mut self, expr: &ScalarExpr, visible: Option<&Rc<Schema>>, operator: &'static str) {
        self.visitor.expr(expr);
        match expr {
            ScalarExpr::Column(c) => {
                let binding = visible.map_or(Binding::Unknown, |v| self.bind(c, v));
                self.visitor.column(c, operator, binding);
            }
            ScalarExpr::ScalarSubquery(q) | ScalarExpr::Exists(q) => {
                self.within(visible.cloned(), |w| w.plan(q))
            }
            ScalarExpr::InSubquery { expr, subquery, .. } => {
                self.expr(expr, visible, operator);
                self.within(visible.cloned(), |w| w.plan(subquery));
            }
            other => other.for_each_child(&mut |c| self.expr(c, visible, operator)),
        }
    }

    fn bind(&self, c: &ColumnRef, visible: &Schema) -> Binding {
        let scopes = std::iter::once(visible).chain(self.outer.iter().rev().map(|s| &**s));
        for scope in scopes {
            match scope.lookup(c.qualifier.as_deref(), &c.name) {
                Ok(Some(_)) => return Binding::Bound,
                Ok(None) => {}
                Err(_) => return Binding::Ambiguous,
            }
        }
        Binding::Free
    }
}

/// Collects the free column references of a plan: references used anywhere in the tree
/// that the plan's own scopes do not bind (they must therefore refer to an outer query
/// block — the correlation the decorrelation rules try to remove). An ambiguous
/// reference, or one whose operator's input schema is unknown, counts as free.
pub fn free_column_refs(plan: &RelExpr, provider: &dyn SchemaProvider) -> Vec<ColumnRef> {
    struct Free(Vec<ColumnRef>);
    impl ScopeVisitor for Free {
        fn column(&mut self, c: &ColumnRef, _: &'static str, binding: Binding) {
            if binding != Binding::Bound && !self.0.contains(c) {
                self.0.push(c.clone());
            }
        }
    }
    let mut free = Free(vec![]);
    walk_scopes(plan, provider, &mut free);
    free.0
}

/// True if the inner (right) expression of an Apply is *uncorrelated* with respect to the
/// outer schema and bind parameters: it references no outer column and no parameter bound
/// by `bound_params`. This is the "e uses no parameters from r" side condition of rules
/// K1 and K2.
pub fn is_uncorrelated(
    inner: &RelExpr,
    outer_schema: &Schema,
    bound_params: &[String],
    provider: &dyn SchemaProvider,
) -> bool {
    let params = free_params(inner);
    if params.iter().any(|p| bound_params.contains(p)) {
        return false;
    }
    let free_cols = free_column_refs(inner, provider);
    !free_cols
        .iter()
        .any(|c| outer_schema.find(c.qualifier.as_deref(), &c.name).is_some())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::ScalarExpr as E;
    use crate::plan::{ApplyKind, JoinKind, ParamBinding, ProjectItem};
    use crate::schema::MapProvider;
    use decorr_common::{Column, DataType};

    fn provider() -> MapProvider {
        MapProvider::new()
            .with_table(
                "customer",
                Schema::new(vec![Column::new("custkey", DataType::Int)]),
            )
            .with_table(
                "orders",
                Schema::new(vec![
                    Column::new("orderkey", DataType::Int),
                    Column::new("custkey", DataType::Int),
                    Column::new("totalprice", DataType::Float),
                ]),
            )
    }

    fn correlated_inner() -> RelExpr {
        RelExpr::Select {
            input: Box::new(RelExpr::scan("orders")),
            predicate: E::eq(E::column("custkey"), E::param("ckey")),
        }
    }

    #[test]
    fn substitute_params_replaces_free_only() {
        let mut bindings = HashMap::new();
        bindings.insert("ckey".to_string(), E::qualified_column("c", "custkey"));
        let plan = correlated_inner();
        let rewritten = substitute_params_in_plan(&plan, &bindings);
        assert!(free_params(&rewritten).is_empty());
        // A nested apply that rebinds ckey shadows the substitution.
        let nested = RelExpr::Apply {
            left: Box::new(RelExpr::scan("customer")),
            right: Box::new(correlated_inner()),
            kind: ApplyKind::Cross,
            bindings: vec![ParamBinding::new("ckey", E::column("custkey"))],
        };
        let rewritten = substitute_params_in_plan(&nested, &bindings);
        assert!(free_params(&rewritten).is_empty());
        match rewritten {
            RelExpr::Apply { right, .. } => {
                // The inner param is still :ckey (shadowed), not c.custkey.
                assert_eq!(free_params(&right), vec!["ckey".to_string()]);
            }
            other => panic!("expected Apply, got {}", other.name()),
        }
    }

    #[test]
    fn free_params_bound_by_apply_bind_are_not_free() {
        let plan = RelExpr::Apply {
            left: Box::new(RelExpr::scan("customer")),
            right: Box::new(correlated_inner()),
            kind: ApplyKind::Cross,
            bindings: vec![ParamBinding::new("ckey", E::column("custkey"))],
        };
        assert!(free_params(&plan).is_empty());
        assert_eq!(free_params(&correlated_inner()), vec!["ckey".to_string()]);
    }

    #[test]
    fn free_columns_detect_correlation() {
        // orders-side select referencing c.custkey (outer) is correlated.
        let inner = RelExpr::Select {
            input: Box::new(RelExpr::scan("orders")),
            predicate: E::eq(E::column("custkey"), E::qualified_column("c", "custkey")),
        };
        let free = free_column_refs(&inner, &provider());
        assert_eq!(free.len(), 1);
        assert_eq!(free[0].qualifier.as_deref(), Some("c"));

        let outer_schema = provider()
            .table_schema("customer")
            .unwrap()
            .with_qualifier("c");
        assert!(!is_uncorrelated(&inner, &outer_schema, &[], &provider()));

        let uncorrelated = RelExpr::Select {
            input: Box::new(RelExpr::scan("orders")),
            predicate: E::gt(E::column("totalprice"), E::literal(100)),
        };
        assert!(is_uncorrelated(
            &uncorrelated,
            &outer_schema,
            &[],
            &provider()
        ));
    }

    /// Each column reference of `plan` with where it binds, in walk order.
    fn bindings(plan: &RelExpr) -> Vec<(String, Binding)> {
        struct Seen(Vec<(String, Binding)>);
        impl ScopeVisitor for Seen {
            fn column(&mut self, c: &ColumnRef, _: &'static str, binding: Binding) {
                self.0.push((c.to_string(), binding));
            }
        }
        let mut seen = Seen(vec![]);
        walk_scopes(plan, &provider(), &mut seen);
        seen.0
    }

    #[test]
    fn walk_scopes_reports_where_each_column_binds() {
        let select = |input: RelExpr, predicate| RelExpr::Select {
            input: Box::new(input),
            predicate,
        };
        // An Apply's right side sees its left input; `x.y` binds nowhere.
        let correlated = select(
            RelExpr::scan("orders"),
            E::and(
                E::eq(E::column("orderkey"), E::qualified_column("c", "custkey")),
                E::gt(E::column("totalprice"), E::qualified_column("x", "y")),
            ),
        );
        let apply = RelExpr::Apply {
            left: Box::new(RelExpr::scan_as("customer", "c")),
            right: Box::new(correlated.clone()),
            kind: ApplyKind::Cross,
            bindings: vec![],
        };
        // A subquery sees the scope of the expression holding it.
        let subquery = RelExpr::Project {
            input: Box::new(RelExpr::scan_as("customer", "c")),
            items: vec![ProjectItem::aliased(
                ScalarExpr::ScalarSubquery(Box::new(correlated)),
                "s",
            )],
            distinct: false,
        };
        let bound_free = [
            ("orderkey".to_string(), Binding::Bound),
            ("c.custkey".to_string(), Binding::Bound),
            ("totalprice".to_string(), Binding::Bound),
            ("x.y".to_string(), Binding::Free),
        ];
        assert_eq!(bindings(&apply), bound_free);
        assert_eq!(bindings(&subquery), bound_free);
        assert_eq!(
            free_column_refs(&apply, &provider()),
            [ColumnRef::qualified("x", "y")]
        );
        // Two inputs with `custkey`: the first scope with the name decides, ambiguously.
        let self_join = RelExpr::Join {
            left: Box::new(RelExpr::scan("orders")),
            right: Box::new(RelExpr::scan_as("orders", "o2")),
            kind: JoinKind::Inner,
            condition: None,
        };
        let ambiguous = select(self_join, E::eq(E::column("custkey"), E::literal(1)));
        assert_eq!(
            bindings(&ambiguous),
            [("custkey".to_string(), Binding::Ambiguous)]
        );
        // No schema below an unknown table; both count as free.
        let unknown = select(
            RelExpr::scan("nosuch"),
            E::eq(E::column("k"), E::literal(1)),
        );
        assert_eq!(bindings(&unknown), [("k".to_string(), Binding::Unknown)]);
        assert_eq!(
            free_column_refs(&ambiguous, &provider()),
            [ColumnRef::new("custkey")]
        );
        assert_eq!(
            free_column_refs(&unknown, &provider()),
            [ColumnRef::new("k")]
        );
    }

    #[test]
    fn transform_plan_up_rewrites_nodes() {
        let plan = RelExpr::Select {
            input: Box::new(RelExpr::scan("orders")),
            predicate: E::literal(true),
        };
        // Remove trivially-true selections.
        let rewritten = transform_plan_up(&plan, &mut |node| match node {
            RelExpr::Select { input, predicate } if predicate.is_true_literal() => *input,
            other => other,
        });
        assert_eq!(rewritten, RelExpr::scan("orders"));
    }

    #[test]
    fn map_plan_exprs_descends_into_subqueries() {
        let plan = RelExpr::Project {
            input: Box::new(RelExpr::scan("customer")),
            items: vec![ProjectItem::aliased(
                ScalarExpr::ScalarSubquery(Box::new(correlated_inner())),
                "tb",
            )],
            distinct: false,
        };
        let mut saw_param = false;
        map_plan_exprs(&plan, &mut |e| {
            if matches!(e, ScalarExpr::Param(_)) {
                saw_param = true;
            }
            e
        });
        assert!(
            saw_param,
            "expected traversal to reach params inside subquery plans"
        );
    }
}
