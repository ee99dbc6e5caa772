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
//!    expression and no bind parameter.

use std::collections::{HashMap, HashSet};

use decorr_common::{Schema, Value};

use crate::expr::{ChildMut, ColumnRef, ScalarExpr};
use crate::plan::RelExpr;
use crate::schema::{infer_schema, SchemaProvider};

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

/// Collects the free column references of a plan: references used anywhere in the tree
/// that are not produced by the plan's own inputs (they must therefore refer to an outer
/// query block — the correlation the decorrelation rules try to remove).
pub fn free_column_refs(plan: &RelExpr, provider: &dyn SchemaProvider) -> Vec<ColumnRef> {
    let mut out = vec![];
    collect_free_columns(plan, provider, &mut out);
    out
}

fn schema_or_empty(plan: &RelExpr, provider: &dyn SchemaProvider) -> Schema {
    infer_schema(plan, provider).unwrap_or_else(|_| Schema::empty())
}

fn collect_free_columns(plan: &RelExpr, provider: &dyn SchemaProvider, out: &mut Vec<ColumnRef>) {
    // Which relations are visible to this node's own expressions?
    let visible: Schema = match plan {
        RelExpr::Join { left, right, .. }
        | RelExpr::Union { left, right, .. }
        | RelExpr::Apply { left, right, .. }
        | RelExpr::ApplyMerge { left, right, .. } => {
            schema_or_empty(left, provider).join(&schema_or_empty(right, provider))
        }
        RelExpr::ConditionalApplyMerge { left, .. } => schema_or_empty(left, provider),
        other => other
            .first_child()
            .map(|c| schema_or_empty(c, provider))
            .unwrap_or_else(Schema::empty),
    };
    let push_if_free = |c: &ColumnRef, visible: &Schema, out: &mut Vec<ColumnRef>| {
        if visible.find(c.qualifier.as_deref(), &c.name).is_none() && !out.contains(c) {
            out.push(c.clone());
        }
    };
    for e in plan.expressions() {
        let mut subquery_free = vec![];
        collect_expr_free_columns(e, provider, &mut subquery_free);
        for c in &subquery_free {
            push_if_free(c, &visible, out);
        }
    }
    // Children: a child's free columns stay free unless this node is an Apply-family
    // operator and the left child's schema resolves them (correlation bound here).
    match plan {
        RelExpr::Apply { left, right, .. } | RelExpr::ApplyMerge { left, right, .. } => {
            collect_free_columns(left, provider, out);
            let mut right_free = vec![];
            collect_free_columns(right, provider, &mut right_free);
            let left_schema = schema_or_empty(left, provider);
            for c in right_free {
                if left_schema.find(c.qualifier.as_deref(), &c.name).is_none() && !out.contains(&c)
                {
                    out.push(c);
                }
            }
        }
        RelExpr::ConditionalApplyMerge {
            left,
            then_branch,
            else_branch,
            ..
        } => {
            collect_free_columns(left, provider, out);
            let left_schema = schema_or_empty(left, provider);
            for branch in [then_branch, else_branch] {
                let mut branch_free = vec![];
                collect_free_columns(branch, provider, &mut branch_free);
                for c in branch_free {
                    if left_schema.find(c.qualifier.as_deref(), &c.name).is_none()
                        && !out.contains(&c)
                    {
                        out.push(c);
                    }
                }
            }
        }
        other => {
            for c in other.children() {
                collect_free_columns(c, provider, out);
            }
        }
    }
}

fn collect_expr_free_columns(
    expr: &ScalarExpr,
    provider: &dyn SchemaProvider,
    out: &mut Vec<ColumnRef>,
) {
    match expr {
        ScalarExpr::Column(c) => {
            if !out.contains(c) {
                out.push(c.clone());
            }
        }
        ScalarExpr::ScalarSubquery(q) | ScalarExpr::Exists(q) => {
            // Free columns of the nested subquery are free here too.
            let nested = free_column_refs(q, provider);
            for c in nested {
                if !out.contains(&c) {
                    out.push(c);
                }
            }
        }
        ScalarExpr::InSubquery { expr, subquery, .. } => {
            collect_expr_free_columns(expr, provider, out);
            let nested = free_column_refs(subquery, provider);
            for c in nested {
                if !out.contains(&c) {
                    out.push(c);
                }
            }
        }
        other => {
            for c in other.children() {
                collect_expr_free_columns(c, provider, out);
            }
        }
    }
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
    use crate::plan::{ApplyKind, ParamBinding, ProjectItem};
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
