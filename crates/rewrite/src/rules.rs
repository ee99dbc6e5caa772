//! Transformation rules for Apply removal (Section VI).
//!
//! Implements the known rules K1–K6 of Galindo-Legaria & Joshi (Table I), the paper's
//! new rules R1–R9 (Table II), the standard decorrelation of correlated scalar
//! aggregates (outer join + group-by), an Apply-through-join pushdown, and the cleanup
//! rules (predicate pushdown, adjacent-projection merging) that bring the rewritten
//! query into the flat form of the paper's Example 2.
//!
//! Every rule is a pure function `RelExpr → Option<RelExpr>`; the [`FixpointEngine`]
//! applies a [`RuleSet`] bottom-up until no rule fires, with instrumentation and a
//! firing budget.

use std::collections::{BTreeMap, HashMap};

use decorr_algebra::schema::infer_schema;
use decorr_algebra::visit::{free_params, is_uncorrelated, substitute_params_in_plan};
use decorr_algebra::{
    AggFunc, ApplyKind, BinaryOp, ColumnRef, JoinKind, ProjectItem, RelExpr, ScalarExpr,
    SchemaProvider,
};
use decorr_common::{Error, Result, Schema, Value};

/// A named transformation rule.
pub struct Rule {
    pub name: &'static str,
    pub apply: fn(&RelExpr, &dyn SchemaProvider) -> Option<RelExpr>,
}

/// An ordered collection of rules. Earlier rules take priority at each node.
pub struct RuleSet {
    pub rules: Vec<Rule>,
}

impl RuleSet {
    /// The default pipeline used by the rewriter: R-rules to reduce the extended Apply
    /// operators, K-rules and decorrelation rules to remove Apply, and cleanup rules to
    /// flatten the result.
    pub fn default_pipeline() -> RuleSet {
        RuleSet {
            rules: vec![
                Rule {
                    name: "R9-apply-bind-removal",
                    apply: rule_r9_bind_removal,
                },
                Rule {
                    name: "R1-apply-single",
                    apply: rule_r1_apply_single,
                },
                Rule {
                    name: "R2-merge-projection-on-single",
                    apply: rule_r2_merge_projection,
                },
                Rule {
                    name: "R8-conditional-merge-to-case",
                    apply: rule_r8_conditional_to_case,
                },
                Rule {
                    name: "R4-apply-merge-removal",
                    apply: rule_r4_apply_merge_removal,
                },
                Rule {
                    name: "K3-pull-select-above-apply",
                    apply: rule_k3_pull_select,
                },
                Rule {
                    name: "K4-pull-project-above-apply",
                    apply: rule_k4_pull_project,
                },
                Rule {
                    name: "R5-pull-left-project-above-apply",
                    apply: rule_r5_pull_left_project,
                },
                Rule {
                    name: "push-apply-below-join",
                    apply: rule_push_apply_below_join,
                },
                Rule {
                    name: "decorrelate-scalar-aggregate",
                    apply: rule_scalar_aggregate,
                },
                Rule {
                    name: "K2-apply-select-to-join",
                    apply: rule_k2_apply_select_to_join,
                },
                Rule {
                    name: "K1-apply-to-join",
                    apply: rule_k1_apply_to_join,
                },
                Rule {
                    name: "merge-selects",
                    apply: rule_merge_selects,
                },
                Rule {
                    name: "push-select-into-join",
                    apply: rule_push_select_into_join,
                },
                Rule {
                    name: "push-select-below-project",
                    apply: rule_push_select_below_project,
                },
                Rule {
                    name: "merge-projections",
                    apply: rule_r3_merge_projections,
                },
                Rule {
                    name: "remove-trivial-select",
                    apply: rule_remove_trivial_select,
                },
            ],
        }
    }

    /// Only the plan-normalisation cleanup rules (predicate pushdown into joins and
    /// below projections, selection/projection merging). The engine applies these to
    /// every query plan — including the queries inside UDF bodies — before execution, so
    /// that the *iterative* baseline also runs reasonable plans (comma-syntax joins
    /// become hash-joinable inner joins), exactly like the commercial systems the paper
    /// measures.
    pub fn cleanup_only() -> RuleSet {
        RuleSet {
            rules: vec![
                Rule {
                    name: "merge-selects",
                    apply: rule_merge_selects,
                },
                Rule {
                    name: "push-select-into-join",
                    apply: rule_push_select_into_join,
                },
                Rule {
                    name: "push-select-below-project",
                    apply: rule_push_select_below_project,
                },
                Rule {
                    name: "remove-trivial-select",
                    apply: rule_remove_trivial_select,
                },
            ],
        }
    }
}

/// The result of driving a [`RuleSet`] to fixpoint with a [`FixpointEngine`]: the
/// rewritten plan plus the instrumentation the optimizer's PassManager reports.
#[derive(Debug, Clone)]
pub struct FixpointOutcome {
    /// The rewritten plan.
    pub plan: RelExpr,
    /// Names of the rules that fired, in application order.
    pub fired: Vec<String>,
    /// Fire count per rule name (sorted, for stable reporting).
    pub fire_counts: BTreeMap<String, u64>,
    /// Number of full bottom-up passes performed.
    pub iterations: usize,
    /// True if the last pass changed nothing (a genuine fixpoint, as opposed to the
    /// iteration limit stopping a still-changing plan).
    pub reached_fixpoint: bool,
}

impl FixpointOutcome {
    /// How often the named rule fired.
    pub fn fire_count(&self, rule: &str) -> u64 {
        self.fire_counts.get(rule).copied().unwrap_or(0)
    }

    /// Total number of rule firings.
    pub fn total_fires(&self) -> u64 {
        self.fire_counts.values().sum()
    }
}

/// Applies a [`RuleSet`] bottom-up until a fixpoint, with instrumentation and a budget
/// guard.
///
/// Two limits bound the work:
///
/// * `max_iterations` — full bottom-up passes over the tree; hitting it stops rewriting
///   and reports `reached_fixpoint == false` (matching the behaviour of the paper's
///   tool, which simply gives up and keeps the iterative plan);
/// * `max_rule_firings` — the *budget guard*: total rule firings across all passes;
///   exceeding it is an **error**, because it means the rule set is cyclic (two rules
///   undoing each other fire forever without the per-pass `changed` flag ever settling).
#[derive(Debug, Clone)]
pub struct FixpointEngine {
    pub max_iterations: usize,
    pub max_rule_firings: u64,
}

impl Default for FixpointEngine {
    fn default() -> Self {
        FixpointEngine {
            max_iterations: 50,
            max_rule_firings: 100_000,
        }
    }
}

impl FixpointEngine {
    pub fn new() -> FixpointEngine {
        FixpointEngine::default()
    }

    /// An engine with the given iteration limit and the default firing budget.
    pub fn with_max_iterations(max_iterations: usize) -> FixpointEngine {
        FixpointEngine {
            max_iterations,
            ..FixpointEngine::default()
        }
    }

    /// Replaces the total-rule-firing budget.
    pub fn with_rule_budget(mut self, max_rule_firings: u64) -> FixpointEngine {
        self.max_rule_firings = max_rule_firings;
        self
    }

    /// Drives `rules` to fixpoint over `plan`. Errors when the firing budget is
    /// exhausted (a cyclic rule set); otherwise terminates after at most
    /// `max_iterations` passes.
    pub fn run(
        &self,
        plan: &RelExpr,
        rules: &RuleSet,
        provider: &dyn SchemaProvider,
    ) -> Result<FixpointOutcome> {
        let mut current = plan.clone();
        let mut fired: Vec<String> = vec![];
        let mut fire_counts: BTreeMap<String, u64> = BTreeMap::new();
        let mut iterations = 0;
        let mut reached_fixpoint = false;
        let mut budget_exhausted = false;
        while iterations < self.max_iterations {
            iterations += 1;
            let mut changed = false;
            let next = decorr_algebra::visit::transform_plan_up(&current, &mut |node| {
                if budget_exhausted {
                    return node;
                }
                for rule in &rules.rules {
                    if let Some(rewritten) = (rule.apply)(&node, provider) {
                        if rewritten != node {
                            fired.push(rule.name.to_string());
                            *fire_counts.entry(rule.name.to_string()).or_insert(0) += 1;
                            if fired.len() as u64 > self.max_rule_firings {
                                budget_exhausted = true;
                                return node;
                            }
                            changed = true;
                            return rewritten;
                        }
                    }
                }
                node
            });
            if budget_exhausted {
                return Err(Error::Rewrite(format!(
                    "rewrite budget exhausted: more than {} rule firings without reaching \
                     a fixpoint (iteration {iterations}); the rule set is cyclic. \
                     Last rules fired: {:?}",
                    self.max_rule_firings,
                    &fired[fired.len().saturating_sub(6)..],
                )));
            }
            current = next;
            if !changed {
                reached_fixpoint = true;
                break;
            }
        }
        Ok(FixpointOutcome {
            plan: current,
            fired,
            fire_counts,
            iterations,
            reached_fixpoint,
        })
    }
}

fn schema_of(plan: &RelExpr, provider: &dyn SchemaProvider) -> Schema {
    infer_schema(plan, provider).unwrap_or_else(|_| Schema::empty())
}

fn columns_of(schema: &Schema) -> Vec<ProjectItem> {
    schema
        .columns
        .iter()
        .map(|c| {
            let expr = match &c.qualifier {
                Some(q) => ScalarExpr::qualified_column(q.clone(), c.name.clone()),
                None => ScalarExpr::column(c.name.clone()),
            };
            ProjectItem::new(expr)
        })
        .collect()
}

// --------------------------------------------------------------------------- R rules

/// R9: Apply-bind removal — replace formal parameters in the inner expression by the
/// actual arguments and drop the binding list.
///
/// Actual-argument expressions are first *qualified* against the outer input's schema
/// (`custkey` → `customer.custkey`), so that once substituted into the inner expression
/// they remain references to the outer relation rather than being captured by
/// identically-named inner columns.
pub fn rule_r9_bind_removal(plan: &RelExpr, provider: &dyn SchemaProvider) -> Option<RelExpr> {
    let RelExpr::Apply {
        left,
        right,
        kind,
        bindings,
    } = plan
    else {
        return None;
    };
    if bindings.is_empty() {
        return None;
    }
    let left_schema = schema_of(left, provider);
    let qualify = |expr: &ScalarExpr| -> ScalarExpr {
        decorr_algebra::visit::transform_expr_up(expr, &mut |e| match &e {
            ScalarExpr::Column(c) if c.qualifier.is_none() => {
                match left_schema.find(None, &c.name) {
                    Some(idx) => match &left_schema.column(idx).qualifier {
                        Some(q) => ScalarExpr::qualified_column(q.clone(), c.name.clone()),
                        None => e,
                    },
                    None => e,
                }
            }
            _ => e,
        })
    };
    let map: HashMap<String, ScalarExpr> = bindings
        .iter()
        .map(|b| (b.param.clone(), qualify(&b.value)))
        .collect();
    let new_right = substitute_params_in_plan(right, &map);
    Some(RelExpr::Apply {
        left: left.clone(),
        right: Box::new(new_right),
        kind: *kind,
        bindings: vec![],
    })
}

/// R1: `r A× S = S A× r = r`.
pub fn rule_r1_apply_single(plan: &RelExpr, _provider: &dyn SchemaProvider) -> Option<RelExpr> {
    let RelExpr::Apply {
        left,
        right,
        kind: ApplyKind::Cross,
        bindings,
    } = plan
    else {
        return None;
    };
    if !bindings.is_empty() {
        return None;
    }
    if matches!(right.as_ref(), RelExpr::Single) {
        return Some(left.as_ref().clone());
    }
    if matches!(left.as_ref(), RelExpr::Single) {
        return Some(right.as_ref().clone());
    }
    None
}

/// R2: `r AM (Π_{e1 as a1,…}(S)) = Πd_{…}(r)` — an Apply-Merge whose inner expression is
/// a projection on Single is an in-place generalized projection on `r`.
pub fn rule_r2_merge_projection(plan: &RelExpr, provider: &dyn SchemaProvider) -> Option<RelExpr> {
    let RelExpr::ApplyMerge {
        left,
        right,
        assignments,
    } = plan
    else {
        return None;
    };
    let RelExpr::Project {
        input,
        items,
        distinct: false,
    } = right.as_ref()
    else {
        return None;
    };
    if !matches!(input.as_ref(), RelExpr::Single) {
        return None;
    }
    let left_schema = schema_of(left, provider);
    if left_schema.is_empty() && !matches!(left.as_ref(), RelExpr::Single) {
        return None;
    }
    // Map assigned attribute name → assigned expression.
    let mut assigned: HashMap<String, ScalarExpr> = HashMap::new();
    if assignments.is_empty() {
        for (i, item) in items.iter().enumerate() {
            let name = item.output_name(i);
            if left_schema.find(None, &name).is_some() || matches!(left.as_ref(), RelExpr::Single) {
                assigned.insert(name, item.expr.clone());
            }
        }
    } else {
        for a in assignments {
            let idx = items
                .iter()
                .position(|it| it.alias.as_deref() == Some(a.source.as_str()))?;
            assigned.insert(a.target.clone(), items[idx].expr.clone());
        }
    }
    // Rebuild the projection: each left column, with assigned ones replaced in place;
    // attributes assigned but not present in the left schema (e.g. when the left input
    // is Single inside an if/else branch) are appended.
    let mut new_items: Vec<ProjectItem> = left_schema
        .columns
        .iter()
        .map(|c| match assigned.remove(&c.name) {
            Some(expr) => ProjectItem::aliased(expr, c.name.clone()),
            None => {
                let expr = match &c.qualifier {
                    Some(q) => ScalarExpr::qualified_column(q.clone(), c.name.clone()),
                    None => ScalarExpr::column(c.name.clone()),
                };
                ProjectItem::aliased(expr, c.name.clone())
            }
        })
        .collect();
    for (i, item) in items.iter().enumerate() {
        let name = item.output_name(i);
        if let Some(expr) = assigned.remove(&name) {
            new_items.push(ProjectItem::aliased(expr, name));
        }
    }
    Some(RelExpr::Project {
        input: left.clone(),
        items: new_items,
        distinct: false,
    })
}

/// R8 (generalised): `r AMC(p, et, ef) = Π_{r.* with merged attributes replaced by
/// conditional expressions}(r)` whenever both branches are projections on Single. A
/// variable assigned in only one branch keeps its previous value on the other branch.
pub fn rule_r8_conditional_to_case(
    plan: &RelExpr,
    provider: &dyn SchemaProvider,
) -> Option<RelExpr> {
    let RelExpr::ConditionalApplyMerge {
        left,
        predicate,
        then_branch,
        else_branch,
        assignments,
    } = plan
    else {
        return None;
    };
    if !assignments.is_empty() {
        return None;
    }
    let then_items = scalar_branch_items(then_branch)?;
    let else_items = scalar_branch_items(else_branch)?;
    let left_schema = schema_of(left, provider);
    if left_schema.is_empty() && !matches!(left.as_ref(), RelExpr::Single) {
        return None;
    }
    let mut new_items: Vec<ProjectItem> = left_schema
        .columns
        .iter()
        .map(|c| {
            let current = match &c.qualifier {
                Some(q) => ScalarExpr::qualified_column(q.clone(), c.name.clone()),
                None => ScalarExpr::column(c.name.clone()),
            };
            let then_expr = then_items.get(&c.name).cloned();
            let else_expr = else_items.get(&c.name).cloned();
            let expr = match (then_expr, else_expr) {
                (None, None) => current,
                (t, e) => ScalarExpr::Case {
                    branches: vec![(predicate.clone(), t.unwrap_or_else(|| current.clone()))],
                    else_expr: Some(Box::new(e.unwrap_or(current))),
                },
            };
            ProjectItem::aliased(expr, c.name.clone())
        })
        .collect();
    // Attributes assigned only inside the branches (not present in the left schema):
    // a branch that does not assign them leaves them at their previous value, which on a
    // Single left input is NULL (`⊥`).
    let mut extra_names: Vec<String> = vec![];
    for name in then_items.keys().chain(else_items.keys()) {
        if left_schema.find(None, name).is_none() && !extra_names.contains(name) {
            extra_names.push(name.clone());
        }
    }
    for name in extra_names {
        let then_expr = then_items
            .get(&name)
            .cloned()
            .unwrap_or_else(ScalarExpr::null);
        let else_expr = else_items
            .get(&name)
            .cloned()
            .unwrap_or_else(ScalarExpr::null);
        new_items.push(ProjectItem::aliased(
            ScalarExpr::Case {
                branches: vec![(predicate.clone(), then_expr)],
                else_expr: Some(Box::new(else_expr)),
            },
            name,
        ));
    }
    Some(RelExpr::Project {
        input: left.clone(),
        items: new_items,
        distinct: false,
    })
}

/// Extracts `name → expression` from a branch that is a (chain of) projection(s) on
/// `Single` — i.e. a scalar-valued single-tuple expression (the side condition of R8).
fn scalar_branch_items(branch: &RelExpr) -> Option<HashMap<String, ScalarExpr>> {
    match branch {
        RelExpr::Single => Some(HashMap::new()),
        RelExpr::Project {
            input,
            items,
            distinct: false,
        } => {
            let inner = scalar_branch_items(input)?;
            let mut out = inner.clone();
            for (i, item) in items.iter().enumerate() {
                // Substitute references to inner names so the expression is closed over
                // the outer context only.
                let substituted =
                    decorr_algebra::visit::transform_expr_up(&item.expr, &mut |e| match &e {
                        ScalarExpr::Column(c) if c.qualifier.is_none() => {
                            inner.get(&c.name).cloned().unwrap_or(e)
                        }
                        _ => e,
                    });
                out.insert(item.output_name(i), substituted);
            }
            Some(out)
        }
        _ => None,
    }
}

/// R4: general Apply-Merge removal — `r AM(L) e = Π_X(r A× e)`. The inner expression's
/// output columns are renamed to fresh names first so the outer projection can reference
/// both sides unambiguously.
pub fn rule_r4_apply_merge_removal(
    plan: &RelExpr,
    provider: &dyn SchemaProvider,
) -> Option<RelExpr> {
    let RelExpr::ApplyMerge {
        left,
        right,
        assignments,
    } = plan
    else {
        return None;
    };
    // R2 handles the projection-on-Single case; this rule covers the rest.
    if let RelExpr::Project {
        input,
        distinct: false,
        ..
    } = right.as_ref()
    {
        if matches!(input.as_ref(), RelExpr::Single) {
            return None;
        }
    }
    let left_schema = schema_of(left, provider);
    let right_schema = schema_of(right, provider);
    if left_schema.is_empty() || right_schema.is_empty() {
        return None;
    }
    // Determine the assignment pairs (target-in-left, source-in-right).
    let pairs: Vec<(String, String)> = if assignments.is_empty() {
        right_schema
            .columns
            .iter()
            .filter(|rc| left_schema.find(None, &rc.name).is_some())
            .map(|rc| (rc.name.clone(), rc.name.clone()))
            .collect()
    } else {
        assignments
            .iter()
            .map(|a| (a.target.clone(), a.source.clone()))
            .collect()
    };
    if pairs.is_empty() {
        return None;
    }
    // Rename the inner outputs to fresh names.
    let fresh_items: Vec<ProjectItem> = right_schema
        .columns
        .iter()
        .enumerate()
        .map(|(i, c)| {
            let expr = match &c.qualifier {
                Some(q) => ScalarExpr::qualified_column(q.clone(), c.name.clone()),
                None => ScalarExpr::column(c.name.clone()),
            };
            ProjectItem::aliased(expr, format!("__rhs{i}"))
        })
        .collect();
    let renamed_right = RelExpr::Project {
        input: right.clone(),
        items: fresh_items,
        distinct: false,
    };
    let source_to_fresh: HashMap<String, String> = right_schema
        .columns
        .iter()
        .enumerate()
        .map(|(i, c)| (c.name.clone(), format!("__rhs{i}")))
        .collect();
    // Outer projection: left columns, with assigned ones replaced by the fresh inner
    // column.
    let items: Vec<ProjectItem> = left_schema
        .columns
        .iter()
        .map(|c| {
            if let Some((_, source)) = pairs.iter().find(|(t, _)| t == &c.name) {
                let fresh = source_to_fresh
                    .get(source)
                    .cloned()
                    .unwrap_or_else(|| source.clone());
                ProjectItem::aliased(ScalarExpr::column(fresh), c.name.clone())
            } else {
                let expr = match &c.qualifier {
                    Some(q) => ScalarExpr::qualified_column(q.clone(), c.name.clone()),
                    None => ScalarExpr::column(c.name.clone()),
                };
                ProjectItem::aliased(expr, c.name.clone())
            }
        })
        .collect();
    Some(RelExpr::Project {
        input: Box::new(RelExpr::Apply {
            left: left.clone(),
            right: Box::new(renamed_right),
            kind: ApplyKind::Cross,
            bindings: vec![],
        }),
        items,
        distinct: false,
    })
}

/// R6: `r AMC(p, et, ef) = r AM (σ_p(et) ∪ σ_¬p(ef))` — for a two-valued `p` and
/// single-tuple branches (the latter always true by construction of the algebraizer).
pub fn rule_r6_conditional_to_union(
    plan: &RelExpr,
    _provider: &dyn SchemaProvider,
) -> Option<RelExpr> {
    let RelExpr::ConditionalApplyMerge {
        left,
        predicate,
        then_branch,
        else_branch,
        assignments,
    } = plan
    else {
        return None;
    };
    let then_sel = RelExpr::Select {
        input: then_branch.clone(),
        predicate: predicate.clone(),
    };
    let else_sel = RelExpr::Select {
        input: else_branch.clone(),
        predicate: ScalarExpr::not(predicate.clone()),
    };
    Some(RelExpr::ApplyMerge {
        left: left.clone(),
        right: Box::new(RelExpr::Union {
            left: Box::new(then_sel),
            right: Box::new(else_sel),
            all: true,
        }),
        assignments: assignments.clone(),
    })
}

/// R7: `Π_{e1 as a}(σ_p1(r)) ∪ Π_{e2 as a}(σ_p2(r)) = Π_{(p1?e1:p2?e2) as a}(r)` when
/// `p1 ∧ p2 = false`. The mutual-exclusivity check is syntactic: `p2` must be `NOT p1`
/// (the shape produced by R6).
pub fn rule_r7_union_to_case(plan: &RelExpr, _provider: &dyn SchemaProvider) -> Option<RelExpr> {
    let RelExpr::Union {
        left,
        right,
        all: true,
    } = plan
    else {
        return None;
    };
    let (p1, items1, r1) = project_over_select(left)?;
    let (p2, items2, r2) = project_over_select(right)?;
    if r1 != r2 {
        return None;
    }
    if p2 != ScalarExpr::not(p1.clone()) && p1 != ScalarExpr::not(p2.clone()) {
        return None;
    }
    if items1.len() != items2.len() {
        return None;
    }
    let mut items = vec![];
    for (i, (a, b)) in items1.iter().zip(items2.iter()).enumerate() {
        let name_a = a.output_name(i);
        if name_a != b.output_name(i) {
            return None;
        }
        items.push(ProjectItem::aliased(
            ScalarExpr::Case {
                branches: vec![(p1.clone(), a.expr.clone())],
                else_expr: Some(Box::new(b.expr.clone())),
            },
            name_a,
        ));
    }
    Some(RelExpr::Project {
        input: Box::new(r1),
        items,
        distinct: false,
    })
}

fn project_over_select(plan: &RelExpr) -> Option<(ScalarExpr, Vec<ProjectItem>, RelExpr)> {
    match plan {
        RelExpr::Project {
            input,
            items,
            distinct: false,
        } => match input.as_ref() {
            RelExpr::Select {
                input: base,
                predicate,
            } => Some((predicate.clone(), items.clone(), base.as_ref().clone())),
            _ => None,
        },
        RelExpr::Select { input, predicate } => match input.as_ref() {
            RelExpr::Project {
                input: base,
                items,
                distinct: false,
            } => Some((predicate.clone(), items.clone(), base.as_ref().clone())),
            _ => None,
        },
        _ => None,
    }
}

/// R5: `(Πd_A(r)) A⊗ e = Πd_{A, e.*}(r A⊗ e)` provided `e` does not use the computed
/// attributes of the projection.
pub fn rule_r5_pull_left_project(plan: &RelExpr, provider: &dyn SchemaProvider) -> Option<RelExpr> {
    let RelExpr::Apply {
        left,
        right,
        kind,
        bindings,
    } = plan
    else {
        return None;
    };
    if !bindings.is_empty() {
        return None;
    }
    let RelExpr::Project {
        input,
        items,
        distinct: false,
    } = left.as_ref()
    else {
        return None;
    };
    // Computed attributes: projection items that are not plain column references.
    let computed: Vec<String> = items
        .iter()
        .enumerate()
        .filter(|(_, it)| !matches!(it.expr, ScalarExpr::Column(_)))
        .map(|(i, it)| it.output_name(i))
        .collect();
    if !computed.is_empty() {
        // Does the inner expression reference any computed attribute?
        let inner_free = decorr_algebra::visit::free_column_refs(right, provider);
        if inner_free.iter().any(|c| computed.contains(&c.name)) {
            return None;
        }
    }
    // The projection must not drop columns that `e` needs: only safe when the inner
    // expression's free references do not name dropped columns of the projection input.
    let input_schema = schema_of(input, provider);
    let kept: Vec<String> = items
        .iter()
        .enumerate()
        .map(|(i, it)| it.output_name(i))
        .collect();
    let inner_free = decorr_algebra::visit::free_column_refs(right, provider);
    for c in &inner_free {
        let in_input = input_schema.find(c.qualifier.as_deref(), &c.name).is_some();
        let in_kept = kept.iter().any(|k| k == &c.name);
        if in_input && !in_kept {
            return None;
        }
    }
    let right_schema = schema_of(right, provider);
    let mut new_items = items.clone();
    if !kind.left_only() {
        new_items.extend(columns_of(&right_schema));
    }
    Some(RelExpr::Project {
        input: Box::new(RelExpr::Apply {
            left: input.clone(),
            right: right.clone(),
            kind: *kind,
            bindings: vec![],
        }),
        items: new_items,
        distinct: false,
    })
}

// --------------------------------------------------------------------------- K rules

/// K1: `r A⊗ e = r ⊗ e` when `e` uses no parameters from `r`.
pub fn rule_k1_apply_to_join(plan: &RelExpr, provider: &dyn SchemaProvider) -> Option<RelExpr> {
    let RelExpr::Apply {
        left,
        right,
        kind,
        bindings,
    } = plan
    else {
        return None;
    };
    if !bindings.is_empty() {
        return None;
    }
    let left_schema = schema_of(left, provider);
    if !is_uncorrelated(right, &left_schema, &[], provider) {
        return None;
    }
    Some(RelExpr::Join {
        left: left.clone(),
        right: right.clone(),
        kind: kind.to_join_kind(),
        condition: None,
    })
}

/// K2: `r A⊗ (σ_p(e)) = r ⊗_p e` when `e` uses no parameters from `r` (the predicate may
/// still be correlated — it becomes the join condition).
pub fn rule_k2_apply_select_to_join(
    plan: &RelExpr,
    provider: &dyn SchemaProvider,
) -> Option<RelExpr> {
    let RelExpr::Apply {
        left,
        right,
        kind,
        bindings,
    } = plan
    else {
        return None;
    };
    if !bindings.is_empty() {
        return None;
    }
    let RelExpr::Select { input, predicate } = right.as_ref() else {
        return None;
    };
    let left_schema = schema_of(left, provider);
    if !is_uncorrelated(input, &left_schema, &[], provider) {
        return None;
    }
    let join_kind = match kind {
        ApplyKind::Cross => JoinKind::Inner,
        other => other.to_join_kind(),
    };
    Some(RelExpr::Join {
        left: left.clone(),
        right: input.clone(),
        kind: join_kind,
        condition: Some(predicate.clone()),
    })
}

/// K3: `r A× (σ_p(e)) = σ_p(r A× e)` — pull a selection above a cross Apply.
pub fn rule_k3_pull_select(plan: &RelExpr, _provider: &dyn SchemaProvider) -> Option<RelExpr> {
    let RelExpr::Apply {
        left,
        right,
        kind: ApplyKind::Cross,
        bindings,
    } = plan
    else {
        return None;
    };
    if !bindings.is_empty() {
        return None;
    }
    let RelExpr::Select { input, predicate } = right.as_ref() else {
        return None;
    };
    Some(RelExpr::Select {
        input: Box::new(RelExpr::Apply {
            left: left.clone(),
            right: input.clone(),
            kind: ApplyKind::Cross,
            bindings: vec![],
        }),
        predicate: predicate.clone(),
    })
}

/// K4: `r A× (Π_v(e)) = Π_{v ∪ schema(r)}(r A× e)` — pull a projection above a cross
/// Apply, keeping the outer attributes.
pub fn rule_k4_pull_project(plan: &RelExpr, provider: &dyn SchemaProvider) -> Option<RelExpr> {
    let RelExpr::Apply {
        left,
        right,
        kind: ApplyKind::Cross,
        bindings,
    } = plan
    else {
        return None;
    };
    if !bindings.is_empty() {
        return None;
    }
    let RelExpr::Project {
        input,
        items,
        distinct: false,
    } = right.as_ref()
    else {
        return None;
    };
    // R1 handles `r A× S`; if the projection is on Single let K4 still fire (it will be
    // followed by R1 on the new inner Apply).
    let left_schema = schema_of(left, provider);
    if left_schema.is_empty() && !matches!(left.as_ref(), RelExpr::Single) {
        return None;
    }
    let mut new_items = columns_of(&left_schema);
    new_items.extend(items.clone());
    Some(RelExpr::Project {
        input: Box::new(RelExpr::Apply {
            left: left.clone(),
            right: input.clone(),
            kind: ApplyKind::Cross,
            bindings: vec![],
        }),
        items: new_items,
        distinct: false,
    })
}

/// K5: `r A× (A G_F(e)) = (A ∪ schema(r)) G_F(r A× e)` — pull a *grouped* aggregate above
/// a cross Apply, adding the outer attributes to the grouping columns.
///
/// This rule assumes the outer relation `r` has no duplicate rows (e.g. it exposes a
/// key), which is why it is not part of [`RuleSet::default_pipeline`]; the scalar
/// aggregate case is handled by [`rule_scalar_aggregate`] instead.
pub fn rule_k5_pull_groupby(plan: &RelExpr, provider: &dyn SchemaProvider) -> Option<RelExpr> {
    let RelExpr::Apply {
        left,
        right,
        kind: ApplyKind::Cross,
        bindings,
    } = plan
    else {
        return None;
    };
    if !bindings.is_empty() {
        return None;
    }
    let RelExpr::Aggregate {
        input,
        group_by,
        aggregates,
    } = right.as_ref()
    else {
        return None;
    };
    if group_by.is_empty() {
        return None;
    }
    let left_schema = schema_of(left, provider);
    let mut new_group_by: Vec<ScalarExpr> = left_schema
        .columns
        .iter()
        .map(|c| match &c.qualifier {
            Some(q) => ScalarExpr::qualified_column(q.clone(), c.name.clone()),
            None => ScalarExpr::column(c.name.clone()),
        })
        .collect();
    new_group_by.extend(group_by.clone());
    Some(RelExpr::Aggregate {
        input: Box::new(RelExpr::Apply {
            left: left.clone(),
            right: input.clone(),
            kind: ApplyKind::Cross,
            bindings: vec![],
        }),
        group_by: new_group_by,
        aggregates: aggregates.clone(),
    })
}

/// K6 is the Apply-introduction rule (`Π_{f(A)}(r) = Π(r A× ρ(f(A)))`); it is used by the
/// merge step (see [`crate::merge`]) rather than by the removal pipeline.
///
/// Pushes a cross Apply below an inner/cross join when exactly one join input is
/// correlated with the outer relation: `r A× (e1 ⊗_p e2) = (r A× e1) ⊗_p e2` when `e2` is
/// uncorrelated (and symmetrically). This is the standard companion rule from the
/// Galindo-Legaria & Joshi framework needed once UDF bodies contain multi-table queries.
pub fn rule_push_apply_below_join(
    plan: &RelExpr,
    provider: &dyn SchemaProvider,
) -> Option<RelExpr> {
    let RelExpr::Apply {
        left,
        right,
        kind: ApplyKind::Cross,
        bindings,
    } = plan
    else {
        return None;
    };
    if !bindings.is_empty() {
        return None;
    }
    let RelExpr::Join {
        left: e1,
        right: e2,
        kind: join_kind,
        condition,
    } = right.as_ref()
    else {
        return None;
    };
    if !matches!(join_kind, JoinKind::Inner | JoinKind::Cross) {
        return None;
    }
    let outer_schema = schema_of(left, provider);
    let params = free_params(left);
    let e1_uncorrelated = is_uncorrelated(e1, &outer_schema, &params, provider);
    let e2_uncorrelated = is_uncorrelated(e2, &outer_schema, &params, provider);
    match (e1_uncorrelated, e2_uncorrelated) {
        // Only e1 correlated: push the Apply to the left input.
        (false, true) => Some(RelExpr::Join {
            left: Box::new(RelExpr::Apply {
                left: left.clone(),
                right: e1.clone(),
                kind: ApplyKind::Cross,
                bindings: vec![],
            }),
            right: e2.clone(),
            kind: *join_kind,
            condition: condition.clone(),
        }),
        // Only e2 correlated: push the Apply to the right input (join inputs swap, which
        // is fine for inner/cross joins; columns are resolved by name).
        (true, false) => Some(RelExpr::Join {
            left: Box::new(RelExpr::Apply {
                left: left.clone(),
                right: e2.clone(),
                kind: ApplyKind::Cross,
                bindings: vec![],
            }),
            right: e1.clone(),
            kind: *join_kind,
            condition: condition.clone(),
        }),
        _ => None,
    }
}

// ------------------------------------------------------- scalar aggregate decorrelation

/// Decorrelates `r A× (G_{F}(…σ_{inner = outer ∧ …}(e)…))` — a correlated *scalar*
/// aggregate — into `r ⟕_{inner = outer} (inner G_F(e))`, the classic
/// outer-join + group-by rewrite used in the paper's Example 2 / Experiment 2.
///
/// Requirements:
/// * the aggregate has no GROUP BY of its own;
/// * every reference to the outer relation inside the aggregate subtree occurs in
///   equality conjuncts `inner_column = outer_expression` of selections under the
///   aggregate (possibly below projections);
/// * COUNT aggregates are wrapped in `coalesce(…, 0)` above the join to preserve the
///   "empty group counts zero" semantics (the count bug).
pub fn rule_scalar_aggregate(plan: &RelExpr, provider: &dyn SchemaProvider) -> Option<RelExpr> {
    let RelExpr::Apply {
        left,
        right,
        kind,
        bindings,
    } = plan
    else {
        return None;
    };
    if !bindings.is_empty() || !matches!(kind, ApplyKind::Cross | ApplyKind::LeftOuter) {
        return None;
    }
    let RelExpr::Aggregate {
        input,
        group_by,
        aggregates,
    } = right.as_ref()
    else {
        return None;
    };
    if !group_by.is_empty() {
        return None;
    }
    let outer_schema = schema_of(left, provider);
    if outer_schema.is_empty() {
        return None;
    }
    // The aggregate must actually be correlated; otherwise K1 applies.
    if is_uncorrelated(right, &outer_schema, &[], provider) {
        return None;
    }
    // Walk through projections to the selection carrying the correlation.
    let extraction = extract_correlated_equalities(input, &outer_schema, provider)?;
    // No other correlation may remain after removing those conjuncts.
    if !is_uncorrelated(&extraction.rewritten_input, &outer_schema, &[], provider) {
        return None;
    }
    // The aggregate arguments themselves must not reference the outer relation. A
    // reference that resolves against the aggregate's own input is fine even if the same
    // name also exists in the outer relation (self-joins).
    let input_schema = schema_of(input, provider);
    for a in aggregates {
        let mut cols = vec![];
        for arg in &a.args {
            arg.collect_columns(&mut cols);
        }
        if cols.iter().any(|c| {
            outer_schema.find(c.qualifier.as_deref(), &c.name).is_some()
                && input_schema.find(c.qualifier.as_deref(), &c.name).is_none()
        }) {
            return None;
        }
    }
    // Build the grouped aggregate over the decorrelated input. The aggregate side is
    // wrapped in a rename so its columns (which often share names with the outer
    // relation's key, e.g. `custkey`) stay unambiguous in the join condition.
    let group_exprs: Vec<ScalarExpr> = extraction
        .inner_keys
        .iter()
        .map(|c| match &c.qualifier {
            Some(q) => ScalarExpr::qualified_column(q.clone(), c.name.clone()),
            None => ScalarExpr::column(c.name.clone()),
        })
        .collect();
    let grp_alias = format!(
        "__grp_{}",
        aggregates
            .first()
            .map(|a| a.alias.clone())
            .unwrap_or_else(|| "agg".to_string())
    );
    let grouped = RelExpr::Rename {
        input: Box::new(RelExpr::Aggregate {
            input: Box::new(extraction.rewritten_input),
            group_by: group_exprs.clone(),
            aggregates: aggregates.clone(),
        }),
        alias: grp_alias.clone(),
    };
    // Join condition: inner key = outer expression (for every extracted pair). The inner
    // key is referenced through the rename alias.
    let condition = ScalarExpr::conjunction(
        extraction
            .inner_keys
            .iter()
            .zip(extraction.outer_exprs.iter().cloned())
            .map(|(inner, outer)| {
                ScalarExpr::eq(
                    ScalarExpr::qualified_column(grp_alias.clone(), inner.name.clone()),
                    outer,
                )
            })
            .collect(),
    );
    let join = RelExpr::Join {
        left: left.clone(),
        right: Box::new(grouped),
        kind: JoinKind::LeftOuter,
        condition: Some(condition),
    };
    // Preserve the Apply's output shape: outer columns followed by the aggregate values
    // (COUNTs coalesced to 0 so empty groups behave like iterative execution).
    let mut items = columns_of(&outer_schema);
    for a in aggregates {
        let col = ScalarExpr::column(a.alias.clone());
        let expr = match &a.func {
            AggFunc::Count | AggFunc::CountStar => {
                ScalarExpr::Coalesce(vec![col, ScalarExpr::literal(0)])
            }
            AggFunc::UserDefined(name) => match provider.aggregate_empty_value(name) {
                Some(empty) => ScalarExpr::Coalesce(vec![col, ScalarExpr::Literal(empty)]),
                None => col,
            },
            _ => col,
        };
        items.push(ProjectItem::aliased(expr, a.alias.clone()));
    }
    Some(RelExpr::Project {
        input: Box::new(join),
        items,
        distinct: false,
    })
}

struct CorrelationExtraction {
    rewritten_input: RelExpr,
    inner_keys: Vec<ColumnRef>,
    outer_exprs: Vec<ScalarExpr>,
}

/// Finds the selections (and inner/cross join conditions) under the aggregate that carry
/// `inner = outer` equality conjuncts, removes them, and makes sure the inner key columns
/// stay visible through any intervening projections.
fn extract_correlated_equalities(
    input: &RelExpr,
    outer_schema: &Schema,
    provider: &dyn SchemaProvider,
) -> Option<CorrelationExtraction> {
    match input {
        RelExpr::Select {
            input: base,
            predicate,
        } => {
            // Correlation may also sit deeper (e.g. below a join); merge what the
            // subtree yields with this selection's own conjuncts.
            let nested = extract_correlated_equalities(base, outer_schema, provider);
            let (rewritten_base, mut inner_keys, mut outer_exprs) = match nested {
                Some(e) => (e.rewritten_input, e.inner_keys, e.outer_exprs),
                None => (base.as_ref().clone(), vec![], vec![]),
            };
            let base_schema = schema_of(base, provider);
            let mut residual = vec![];
            for conjunct in predicate.split_conjuncts() {
                if let Some((inner, outer)) =
                    correlated_equality(&conjunct, &base_schema, outer_schema)
                {
                    inner_keys.push(inner);
                    outer_exprs.push(outer);
                } else {
                    residual.push(conjunct);
                }
            }
            if inner_keys.is_empty() {
                return None;
            }
            let rewritten = if residual.is_empty() {
                rewritten_base
            } else {
                RelExpr::Select {
                    input: Box::new(rewritten_base),
                    predicate: ScalarExpr::conjunction(residual),
                }
            };
            Some(CorrelationExtraction {
                rewritten_input: rewritten,
                inner_keys,
                outer_exprs,
            })
        }
        RelExpr::Join {
            left,
            right,
            kind: kind @ (JoinKind::Inner | JoinKind::Cross),
            condition,
        } => {
            let left_ext = extract_correlated_equalities(left, outer_schema, provider);
            let right_ext = extract_correlated_equalities(right, outer_schema, provider);
            let (new_left, mut inner_keys, mut outer_exprs) = match left_ext {
                Some(e) => (e.rewritten_input, e.inner_keys, e.outer_exprs),
                None => (left.as_ref().clone(), vec![], vec![]),
            };
            let (new_right, right_keys, right_outer) = match right_ext {
                Some(e) => (e.rewritten_input, e.inner_keys, e.outer_exprs),
                None => (right.as_ref().clone(), vec![], vec![]),
            };
            inner_keys.extend(right_keys);
            outer_exprs.extend(right_outer);
            // The join condition itself may hold correlated conjuncts.
            let combined_schema = schema_of(left, provider).join(&schema_of(right, provider));
            let mut residual = vec![];
            if let Some(c) = condition {
                for conjunct in c.split_conjuncts() {
                    if let Some((inner, outer)) =
                        correlated_equality(&conjunct, &combined_schema, outer_schema)
                    {
                        inner_keys.push(inner);
                        outer_exprs.push(outer);
                    } else {
                        residual.push(conjunct);
                    }
                }
            }
            if inner_keys.is_empty() {
                return None;
            }
            let new_condition = if residual.is_empty() {
                None
            } else {
                Some(ScalarExpr::conjunction(residual))
            };
            let new_kind = if new_condition.is_none() {
                JoinKind::Cross
            } else {
                *kind
            };
            Some(CorrelationExtraction {
                rewritten_input: RelExpr::Join {
                    left: Box::new(new_left),
                    right: Box::new(new_right),
                    kind: new_kind,
                    condition: new_condition,
                },
                inner_keys,
                outer_exprs,
            })
        }
        RelExpr::Project {
            input: base,
            items,
            distinct: false,
        } => {
            let inner = extract_correlated_equalities(base, outer_schema, provider)?;
            // Keep the key columns visible through the projection: an item that reads
            // the key but renames it (a cursor fetching its correlated column,
            // `t.c0 as @v`) does not output it.
            let mut items = items.clone();
            for key in &inner.inner_keys {
                let already = items
                    .iter()
                    .enumerate()
                    .any(|(i, it)| it.output_name(i) == key.name);
                if !already {
                    let expr = match &key.qualifier {
                        Some(q) => ScalarExpr::qualified_column(q.clone(), key.name.clone()),
                        None => ScalarExpr::column(key.name.clone()),
                    };
                    items.push(ProjectItem::new(expr));
                }
            }
            Some(CorrelationExtraction {
                rewritten_input: RelExpr::Project {
                    input: Box::new(inner.rewritten_input),
                    items,
                    distinct: false,
                },
                inner_keys: inner.inner_keys,
                outer_exprs: inner.outer_exprs,
            })
        }
        _ => None,
    }
}

/// Matches `inner_column = outer_expression` (in either order): the inner side must be a
/// plain column of the aggregate's input, the outer side must reference only columns of
/// the outer relation.
fn correlated_equality(
    conjunct: &ScalarExpr,
    inner_schema: &Schema,
    outer_schema: &Schema,
) -> Option<(ColumnRef, ScalarExpr)> {
    let ScalarExpr::Binary {
        op: BinaryOp::Eq,
        left,
        right,
    } = conjunct
    else {
        return None;
    };
    for (a, b) in [(left, right), (right, left)] {
        let ScalarExpr::Column(inner_col) = a.as_ref() else {
            continue;
        };
        if inner_schema
            .find(inner_col.qualifier.as_deref(), &inner_col.name)
            .is_none()
        {
            continue;
        }
        let mut outer_cols = vec![];
        b.collect_columns(&mut outer_cols);
        if outer_cols.is_empty() {
            continue;
        }
        let all_outer = outer_cols.iter().all(|c| {
            outer_schema.find(c.qualifier.as_deref(), &c.name).is_some()
                && inner_schema.find(c.qualifier.as_deref(), &c.name).is_none()
        });
        if all_outer {
            return Some((inner_col.clone(), b.as_ref().clone()));
        }
    }
    None
}

// --------------------------------------------------------------------------- cleanup

/// `σ_p(σ_q(e)) = σ_{p ∧ q}(e)`.
pub fn rule_merge_selects(plan: &RelExpr, _provider: &dyn SchemaProvider) -> Option<RelExpr> {
    let RelExpr::Select { input, predicate } = plan else {
        return None;
    };
    let RelExpr::Select {
        input: inner,
        predicate: inner_pred,
    } = input.as_ref()
    else {
        return None;
    };
    Some(RelExpr::Select {
        input: inner.clone(),
        predicate: ScalarExpr::and(inner_pred.clone(), predicate.clone()),
    })
}

/// Predicate pushdown into inner/cross joins: conjuncts referencing both inputs move into
/// the join condition (turning a cross product into an inner join); conjuncts referencing
/// a single input move below the join.
pub fn rule_push_select_into_join(
    plan: &RelExpr,
    provider: &dyn SchemaProvider,
) -> Option<RelExpr> {
    let RelExpr::Select { input, predicate } = plan else {
        return None;
    };
    let RelExpr::Join {
        left,
        right,
        kind,
        condition,
    } = input.as_ref()
    else {
        return None;
    };
    if !matches!(kind, JoinKind::Inner | JoinKind::Cross) {
        return None;
    }
    let left_schema = schema_of(left, provider);
    let right_schema = schema_of(right, provider);
    let mut to_left = vec![];
    let mut to_right = vec![];
    let mut to_join = vec![];
    let mut keep = vec![];
    for conjunct in predicate.split_conjuncts() {
        let mut cols = vec![];
        conjunct.collect_columns(&mut cols);
        if cols.is_empty() || conjunct.contains_subquery() || conjunct.contains_udf_call() {
            keep.push(conjunct);
            continue;
        }
        let all_left = cols
            .iter()
            .all(|c| left_schema.find(c.qualifier.as_deref(), &c.name).is_some());
        let all_right = cols
            .iter()
            .all(|c| right_schema.find(c.qualifier.as_deref(), &c.name).is_some());
        let any_left = cols
            .iter()
            .any(|c| left_schema.find(c.qualifier.as_deref(), &c.name).is_some());
        let any_right = cols
            .iter()
            .any(|c| right_schema.find(c.qualifier.as_deref(), &c.name).is_some());
        if all_left && !any_right {
            to_left.push(conjunct);
        } else if all_right && !any_left {
            to_right.push(conjunct);
        } else if any_left && any_right {
            to_join.push(conjunct);
        } else {
            keep.push(conjunct);
        }
    }
    if to_left.is_empty() && to_right.is_empty() && to_join.is_empty() {
        return None;
    }
    let new_left = if to_left.is_empty() {
        left.as_ref().clone()
    } else {
        RelExpr::Select {
            input: left.clone(),
            predicate: ScalarExpr::conjunction(to_left),
        }
    };
    let new_right = if to_right.is_empty() {
        right.as_ref().clone()
    } else {
        RelExpr::Select {
            input: right.clone(),
            predicate: ScalarExpr::conjunction(to_right),
        }
    };
    let mut condition_conjuncts: Vec<ScalarExpr> = condition
        .as_ref()
        .map(|c| c.split_conjuncts())
        .unwrap_or_default();
    condition_conjuncts.extend(to_join);
    let new_kind = if condition_conjuncts.is_empty() {
        *kind
    } else {
        JoinKind::Inner
    };
    let new_join = RelExpr::Join {
        left: Box::new(new_left),
        right: Box::new(new_right),
        kind: new_kind,
        condition: if condition_conjuncts.is_empty() {
            None
        } else {
            Some(ScalarExpr::conjunction(condition_conjuncts))
        },
    };
    Some(if keep.is_empty() {
        new_join
    } else {
        RelExpr::Select {
            input: Box::new(new_join),
            predicate: ScalarExpr::conjunction(keep),
        }
    })
}

/// The output columns of a projection as (qualifier, name, expression) triples, using the
/// same naming rules as schema inference (aliases strip the qualifier; plain column
/// references keep theirs).
fn projection_outputs(items: &[ProjectItem]) -> Vec<(Option<String>, String, ScalarExpr)> {
    items
        .iter()
        .enumerate()
        .map(|(i, item)| {
            let qualifier = match (&item.alias, &item.expr) {
                (None, ScalarExpr::Column(c)) => c.qualifier.clone(),
                _ => None,
            };
            (qualifier, item.output_name(i), item.expr.clone())
        })
        .collect()
}

/// Substitutes column references in `expr` by the matching projection output expression.
/// Qualified references must match the output's qualifier; a reference that matches zero
/// or several outputs makes the substitution ambiguous and returns `None`.
fn substitute_projection(
    expr: &ScalarExpr,
    outputs: &[(Option<String>, String, ScalarExpr)],
    forbid_expensive: bool,
) -> Option<ScalarExpr> {
    let mut ok = true;
    let result = decorr_algebra::visit::transform_expr_up(expr, &mut |e| match &e {
        ScalarExpr::Column(c) => {
            let candidates: Vec<&(Option<String>, String, ScalarExpr)> = outputs
                .iter()
                .filter(|(q, name, _)| {
                    name == &c.name
                        && match (&c.qualifier, q) {
                            (None, _) => true,
                            (Some(cq), Some(oq)) => cq == oq,
                            (Some(_), None) => false,
                        }
                })
                .collect();
            match candidates.as_slice() {
                [(_, _, inner)] => {
                    if forbid_expensive && (inner.contains_udf_call() || inner.contains_subquery())
                    {
                        ok = false;
                        e
                    } else {
                        inner.clone()
                    }
                }
                _ => {
                    ok = false;
                    e
                }
            }
        }
        _ => e,
    });
    if ok {
        Some(result)
    } else {
        None
    }
}

/// Pushes a selection below a non-distinct projection by substituting the projection's
/// expressions into the predicate: `σ_p(Πd_A(e)) = Πd_A(σ_{p[A]}(e))`. This lets
/// correlated equality predicates reach the joins produced by Apply removal, where
/// [`rule_push_select_into_join`] turns them into (hash-joinable) join conditions.
pub fn rule_push_select_below_project(
    plan: &RelExpr,
    _provider: &dyn SchemaProvider,
) -> Option<RelExpr> {
    let RelExpr::Select { input, predicate } = plan else {
        return None;
    };
    let RelExpr::Project {
        input: base,
        items,
        distinct: false,
    } = input.as_ref()
    else {
        return None;
    };
    let outputs = projection_outputs(items);
    let pushed = substitute_projection(predicate, &outputs, true)?;
    Some(RelExpr::Project {
        input: Box::new(RelExpr::Select {
            input: base.clone(),
            predicate: pushed,
        }),
        items: items.clone(),
        distinct: false,
    })
}

/// R3 (generalised to plans): merge adjacent non-distinct projections by substituting the
/// inner projection's expressions into the outer one.
pub fn rule_r3_merge_projections(
    plan: &RelExpr,
    _provider: &dyn SchemaProvider,
) -> Option<RelExpr> {
    let RelExpr::Project {
        input,
        items,
        distinct: false,
    } = plan
    else {
        return None;
    };
    let RelExpr::Project {
        input: inner_input,
        items: inner_items,
        distinct: false,
    } = input.as_ref()
    else {
        return None;
    };
    // Every column reference of the outer items must resolve (unambiguously, respecting
    // qualifiers) against the inner projection's outputs.
    let outputs = projection_outputs(inner_items);
    let mut new_items: Vec<ProjectItem> = vec![];
    for (i, item) in items.iter().enumerate() {
        let expr = substitute_projection(&item.expr, &outputs, false)?;
        // An explicitly qualified `q.c` that stays `q.c` keeps its qualifier: an alias
        // would drop it from the output, and a reference above may still name it.
        let keeps_qualifier = item.alias.is_none()
            && matches!(&item.expr, ScalarExpr::Column(c) if c.qualifier.is_some())
            && expr == item.expr;
        new_items.push(if keeps_qualifier {
            ProjectItem::new(expr)
        } else {
            ProjectItem::aliased(expr, item.output_name(i))
        });
    }
    Some(RelExpr::Project {
        input: inner_input.clone(),
        items: new_items,
        distinct: false,
    })
}

/// Removes `σ_true(e)`.
pub fn rule_remove_trivial_select(
    plan: &RelExpr,
    _provider: &dyn SchemaProvider,
) -> Option<RelExpr> {
    let RelExpr::Select { input, predicate } = plan else {
        return None;
    };
    if matches!(predicate, ScalarExpr::Literal(Value::Bool(true))) {
        return Some(input.as_ref().clone());
    }
    None
}
