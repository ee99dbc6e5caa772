//! Expression tree merging (Section V).
//!
//! For every UDF invocation in a SELECT list or WHERE clause, the invocation is replaced
//! by a reference to the `retval` column of the UDF's algebraic form — derived once, at
//! registration, and read from the UDF's registry record — and the calling block's input
//! is wrapped in an Apply operator with the *bind* extension that maps the formal
//! parameters to the actual-argument expressions (rule K6 + the bind extension of
//! Section III).

use std::collections::HashMap;

use decorr_algebra::expr::ChildMut;
use decorr_algebra::plan::ParamBinding;
use decorr_algebra::visit::transform_plan_deep;
use decorr_algebra::{ApplyKind, ProjectItem, RelExpr, ScalarExpr};
use decorr_common::{Error, Result};
use decorr_udf::FunctionRegistry;

/// The result of merging UDF invocations into a query plan.
#[derive(Debug, Clone)]
pub struct MergeOutcome {
    pub plan: RelExpr,
    /// The UDF of each invocation replaced by its algebraic form, in merge order.
    pub merged: Vec<String>,
    /// UDF invocations that could not be merged (name and reason); they remain as
    /// iterative calls in the plan.
    pub skipped: Vec<(String, String)>,
}

/// Merges every algebraizable UDF invocation found in SELECT lists (projections) and
/// WHERE clauses (selections) of the plan.
pub fn merge_udf_calls(plan: &RelExpr, registry: &FunctionRegistry) -> Result<MergeOutcome> {
    let mut state = MergeState {
        registry,
        merged: vec![],
        skipped: vec![],
    };
    let mut plan = plan.clone();
    merge_in_plan(&mut plan, &mut state)?;
    Ok(MergeOutcome {
        plan,
        merged: state.merged,
        skipped: state.skipped,
    })
}

struct MergeState<'a> {
    registry: &'a FunctionRegistry,
    merged: Vec<String>,
    skipped: Vec<(String, String)>,
}

fn merge_in_plan(plan: &mut RelExpr, state: &mut MergeState) -> Result<()> {
    // Children first.
    let mut merged = Ok(());
    plan.for_each_child_mut(&mut |c| {
        if merged.is_ok() {
            merged = merge_in_plan(c, state);
        }
    });
    merged?;
    match plan {
        RelExpr::Project { input, items, .. } => items
            .iter_mut()
            .try_for_each(|item| replace_udf_calls(&mut item.expr, input, state)),
        RelExpr::Select { input, predicate } => replace_udf_calls(predicate, input, state),
        _ => Ok(()),
    }
}

/// Replaces UDF invocations inside `expr`, wrapping `input` with one Apply (bind) per
/// replaced call. Nested calls are replaced innermost-first, so an outer call's argument
/// list can reference the inner call's output column. Subqueries are left alone, and so
/// is the probe of an `IN (select …)`.
fn replace_udf_calls(
    expr: &mut ScalarExpr,
    input: &mut RelExpr,
    state: &mut MergeState,
) -> Result<()> {
    if matches!(expr, ScalarExpr::InSubquery { .. }) {
        return Ok(());
    }
    let mut replaced = Ok(());
    expr.for_each_child_mut(&mut |child| {
        if let (Ok(()), ChildMut::Expr(e)) = (&replaced, child) {
            replaced = replace_udf_calls(e, input, state);
        }
    });
    replaced?;
    let ScalarExpr::UdfCall { name, args } = expr else {
        return Ok(());
    };
    let (Ok(udf), Some(record)) = (state.registry.udf(name), state.registry.record(name)) else {
        return Ok(());
    };
    if udf.is_table_valued() {
        state.skipped.push((
            name.clone(),
            "table-valued function used in a scalar context".into(),
        ));
        return Ok(());
    }
    if udf.params.len() != args.len() {
        return Err(Error::Binding(format!(
            "function '{name}' expects {} arguments, got {}",
            udf.params.len(),
            args.len()
        )));
    }
    let form = match &record.form {
        Ok(form) => form,
        Err(reason) => {
            state.skipped.push((name.clone(), reason.to_string()));
            return Ok(());
        }
    };
    let ordinal = state.merged.len();
    state.merged.push(udf.name.clone());
    let alias = format!("__udf{ordinal}");
    let body = uniquify_body_qualifiers(form, ordinal);
    // Π_{retval as __udfN}(E_udf): keeps each invocation's output name unique when a
    // query invokes several UDFs.
    let right = RelExpr::Project {
        input: Box::new(body),
        items: vec![ProjectItem::aliased(
            ScalarExpr::column("retval"),
            alias.clone(),
        )],
        distinct: false,
    };
    let bindings = udf
        .params
        .iter()
        .zip(args.iter())
        .map(|(p, a)| ParamBinding::new(p.name.clone(), a.clone()))
        .collect();
    let previous = std::mem::replace(input, RelExpr::Single);
    *input = RelExpr::Apply {
        left: Box::new(previous),
        right: Box::new(right),
        kind: ApplyKind::Cross,
        bindings,
    };
    *expr = ScalarExpr::column(alias);
    Ok(())
}

/// Re-qualifies every relation introduced inside an inlined UDF body (base-table scans
/// and ρ renames) with a fresh, invocation-unique alias, rewriting the body's own column
/// references to match. Without this, a UDF body that reads the same table as the
/// calling query emits colliding qualifiers: after Apply-bind removal substitutes the
/// outer argument, the correlation predicate `t.k = :k` degenerates into the tautology
/// `t.k = t.k` and the correlation is silently lost.
///
/// From the second invocation on, the body's aggregate output names (`agg0`,
/// `__loop_<var>`) get the same prefix, and with them every projection alias, merge
/// assignment and unqualified reference spelling one of those names: two decorrelated
/// calls put both grouped sides in one scope, where equal unqualified names would be
/// ambiguous. The first invocation keeps its names, so a single-call plan reads as it
/// always has.
fn uniquify_body_qualifiers(body: &RelExpr, invocation: usize) -> RelExpr {
    let fresh = |name: &str| format!("__udf{invocation}_{name}");
    let mut renames: HashMap<String, String> = HashMap::new();
    let mut names: HashMap<String, String> = HashMap::new();
    transform_plan_deep(
        body,
        &mut |node| {
            match &node {
                RelExpr::Scan { table, alias } => {
                    let q = alias.as_ref().unwrap_or(table);
                    renames.entry(q.clone()).or_insert_with(|| fresh(q));
                }
                RelExpr::Rename { alias, .. } => {
                    renames.entry(alias.clone()).or_insert_with(|| fresh(alias));
                }
                RelExpr::Aggregate { aggregates, .. } if invocation > 0 => {
                    for a in aggregates {
                        names
                            .entry(a.alias.clone())
                            .or_insert_with(|| fresh(&a.alias));
                    }
                }
                _ => {}
            }
            node
        },
        &mut |e| e,
    );
    if renames.is_empty() && names.is_empty() {
        return body.clone();
    }
    let rename = |name: &mut String| {
        if let Some(new) = names.get(name.as_str()) {
            name.clone_from(new);
        }
    };
    transform_plan_deep(
        body,
        &mut |mut node| {
            match &mut node {
                RelExpr::Scan { table, alias } => {
                    let q = alias.as_deref().unwrap_or(table);
                    *alias = renames.get(q).cloned().or(alias.take());
                }
                RelExpr::Rename { alias, .. } => {
                    if let Some(new) = renames.get(alias.as_str()) {
                        alias.clone_from(new);
                    }
                }
                RelExpr::Project { items, .. } => items
                    .iter_mut()
                    .filter_map(|i| i.alias.as_mut())
                    .for_each(rename),
                RelExpr::Aggregate { aggregates, .. } => {
                    aggregates.iter_mut().for_each(|a| rename(&mut a.alias))
                }
                RelExpr::ApplyMerge { assignments, .. }
                | RelExpr::ConditionalApplyMerge { assignments, .. } => {
                    for a in assignments {
                        rename(&mut a.target);
                        rename(&mut a.source);
                    }
                }
                _ => {}
            }
            node
        },
        &mut |e| match e {
            ScalarExpr::Column(mut c) => {
                match &c.qualifier {
                    Some(q) => {
                        if let Some(new) = renames.get(q) {
                            c.qualifier = Some(new.clone());
                        }
                    }
                    None => rename(&mut c.name),
                }
                ScalarExpr::Column(c)
            }
            other => other,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_algebra::display::explain;
    use decorr_parser::{parse_and_plan, parse_function};

    /// A registry of `sources`, algebraized the way registration does it.
    fn registry_of(sources: &[&str]) -> FunctionRegistry {
        let mut registry = FunctionRegistry::new();
        for source in sources {
            registry.register_udf(parse_function(source).unwrap());
        }
        crate::algebraize_registry(&mut registry, None, &decorr_algebra::EmptyProvider);
        registry
    }

    fn registry_with_discount() -> FunctionRegistry {
        registry_of(&["create function discount(float amount) returns float as \
                       begin return amount * 0.15; end"])
    }

    #[test]
    fn merges_select_list_invocation() {
        let registry = registry_with_discount();
        let plan =
            parse_and_plan("select orderkey, discount(totalprice) as d from orders").unwrap();
        let outcome = merge_udf_calls(&plan, &registry).unwrap();
        assert_eq!(outcome.merged.len(), 1);
        assert!(outcome.skipped.is_empty());
        let text = explain(&outcome.plan);
        assert!(text.contains("Apply(cross) bind:amount=totalprice"));
        assert!(text.contains("Project [retval as __udf0]"));
        assert!(!outcome.plan.contains_udf_call());
    }

    #[test]
    fn merges_where_clause_invocation() {
        let registry = registry_with_discount();
        let plan =
            parse_and_plan("select orderkey from orders where discount(totalprice) > 100").unwrap();
        let outcome = merge_udf_calls(&plan, &registry).unwrap();
        assert_eq!(outcome.merged.len(), 1);
        let text = explain(&outcome.plan);
        assert!(text.contains("Select [(__udf0 > 100)]"));
        assert!(text.contains("Apply(cross) bind:amount=totalprice"));
    }

    #[test]
    fn unknown_functions_are_left_alone() {
        let registry = FunctionRegistry::new();
        let plan = parse_and_plan("select mystery(totalprice) from orders").unwrap();
        let outcome = merge_udf_calls(&plan, &registry).unwrap();
        assert_eq!(outcome.merged.len(), 0);
        assert!(outcome.plan.contains_udf_call());
    }

    #[test]
    fn non_algebraizable_udf_is_skipped_with_reason() {
        let registry = registry_of(&["create function spin(int n) returns int as \
             begin int i = 0; while (i < n) begin i = i + 1; end return i; end"]);
        let plan = parse_and_plan("select spin(custkey) from customer").unwrap();
        let outcome = merge_udf_calls(&plan, &registry).unwrap();
        assert_eq!(outcome.merged.len(), 0);
        assert_eq!(outcome.skipped.len(), 1);
        assert!(outcome.skipped[0].1.contains("WHILE"));
        assert!(outcome.plan.contains_udf_call());
    }

    #[test]
    fn calls_inside_subqueries_and_in_probes_stay_iterative() {
        let registry = registry_with_discount();
        for sql in [
            "select orderkey from orders \
             where discount(totalprice) in (select totalprice from orders)",
            "select orderkey from orders \
             where exists (select orderkey from orders where discount(totalprice) > 1)",
        ] {
            let plan = parse_and_plan(sql).unwrap();
            let outcome = merge_udf_calls(&plan, &registry).unwrap();
            assert!(outcome.merged.is_empty(), "{sql}");
            assert_eq!(outcome.plan, plan, "{sql}");
        }
    }

    #[test]
    fn multiple_invocations_get_distinct_aliases() {
        let registry = registry_with_discount();
        let plan = parse_and_plan(
            "select discount(totalprice) as d1, discount(totalprice * 2) as d2 from orders",
        )
        .unwrap();
        let outcome = merge_udf_calls(&plan, &registry).unwrap();
        assert_eq!(outcome.merged.len(), 2);
        let text = explain(&outcome.plan);
        assert!(text.contains("retval as __udf0"));
        assert!(text.contains("retval as __udf1"));
    }

    #[test]
    fn body_scans_of_the_calling_table_get_fresh_aliases() {
        let registry = registry_of(&["create function grp_total(int k) returns float as \
             begin return select sum(totalprice) from orders where custkey = :k; end"]);
        let plan = parse_and_plan("select custkey, grp_total(custkey) from orders").unwrap();
        let outcome = merge_udf_calls(&plan, &registry).unwrap();
        assert_eq!(outcome.merged.len(), 1);
        let text = explain(&outcome.plan);
        // The inlined body must scan `orders` under a fresh alias so its columns cannot
        // collide with the outer query's `orders` columns once :k is substituted.
        assert!(
            text.contains("Scan orders as __udf0_orders"),
            "body scan not re-aliased:\n{text}"
        );
    }
}
