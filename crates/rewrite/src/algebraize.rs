//! Algebraic representation of UDFs (Sections IV and VII).
//!
//! The algebraizer turns the procedural body of a UDF into a *parameterized* relational
//! expression whose only free parameters are the UDF's formal arguments and whose single
//! output column is `retval`:
//!
//! * the running context (the paper's `Eudf` built left-to-right over logical nodes) is a
//!   single-tuple expression whose attributes are the UDF's local variables;
//! * variable declarations use Apply-cross over a projection on `Single`;
//! * assignments and `SELECT … INTO` use Apply-Merge;
//! * if-then-else blocks use Conditional Apply-Merge, recursively;
//! * the `RETURN` expression is attached with Apply-cross and projected as `retval`;
//! * cursor loops whose bodies carry cyclic data dependences are converted into a
//!   user-defined *auxiliary aggregate* (Section VII-A, Example 6) applied over the
//!   cursor query.

use std::collections::{HashMap, HashSet};

use decorr_algebra::schema::infer_schema;
use decorr_algebra::visit::map_plan_exprs;
use decorr_algebra::{
    AggCall, AggFunc, ApplyKind, ColumnRef, ProjectItem, RelExpr, ScalarExpr, SchemaProvider,
};
use decorr_common::{Column, DataType, Error, Result, Value};
use decorr_udf::analysis::DataDependenceGraph;
use decorr_udf::{
    aux_aggregate_name, synthesize_aux_aggregate, AggregateDefinition, FunctionRegistry, Statement,
    UdfDefinition,
};

struct Algebraizer<'a> {
    udf: &'a UdfDefinition,
    provider: &'a dyn SchemaProvider,
    /// Formal parameter names.
    params: HashSet<String>,
    /// Local variables currently in scope (declaration order preserved separately).
    locals: HashSet<String>,
    var_types: Vec<(String, DataType)>,
    /// Statically known initial values (literal declarations/assignments) for Section
    /// VII's "initial values statically determinable" condition.
    literal_values: HashMap<String, Value>,
    aux_aggregates: Vec<AggregateDefinition>,
}

/// Algebraizes the registered UDF `only` names (every one when `None`) against the table
/// schemas of `provider` and stores each form, or the reason the body declines, in the
/// UDF's registry record. A form depends on the body and the schemas it reads, never on a
/// calling query (Froid binds a function once the same way), so merging only looks it up.
pub fn algebraize_registry(
    registry: &mut FunctionRegistry,
    only: Option<&str>,
    provider: &dyn SchemaProvider,
) {
    let forms: Vec<_> = registry
        .udfs()
        .filter(|udf| only.is_none_or(|name| udf.name == decorr_common::normalize_ident(name)))
        .map(|udf| (udf.name.clone(), algebraize_udf(udf, provider)))
        .collect();
    for (name, form) in forms {
        registry.set_form(&name, form);
    }
}

/// Algebraizes a scalar UDF (Section IV; loops per Section VII-A) into its form — a plan
/// whose free parameters are exactly the UDF's formal parameter names and whose output is
/// one column named `retval` — and the auxiliary aggregates the form calls.
///
/// Fails with [`Error::Unsupported`] / [`Error::Rewrite`] when the UDF falls outside the
/// decorrelatable class (arbitrary `WHILE` loops, loops whose cyclic part still executes
/// queries, multiple live-out loop variables, conditional inserts into a table-valued
/// result). [`algebraize_registry`] records such a failure as the UDF's decline reason,
/// and every call of the UDF keeps the iterative plan.
pub fn algebraize_udf(
    udf: &UdfDefinition,
    provider: &dyn SchemaProvider,
) -> Result<(RelExpr, Vec<AggregateDefinition>)> {
    if udf.is_table_valued() {
        return algebraize_table_udf(udf, provider);
    }
    let mut alg = Algebraizer::new(udf, provider);
    let mut ctx = RelExpr::Single;
    let mut return_plan: Option<RelExpr> = None;
    for stmt in &udf.body {
        if return_plan.is_some() {
            break; // statements after an unconditional RETURN are dead code
        }
        match stmt {
            Statement::Return { expr } => {
                let expr = expr.clone().ok_or_else(|| {
                    Error::Unsupported("scalar UDF with a bare RETURN".to_string())
                })?;
                return_plan = Some(alg.attach_return(ctx.clone(), &expr)?);
            }
            other => {
                ctx = alg.algebraize_statement(ctx, other)?;
            }
        }
    }
    let plan = return_plan.ok_or_else(|| {
        Error::Unsupported(format!(
            "UDF '{}' has no top-level RETURN statement; conditional returns are not \
             decorrelatable",
            udf.name
        ))
    })?;
    Ok((plan, alg.aux_aggregates))
}

/// Algebraizes a table-valued UDF per Section VII-B:
/// `((S A× Ec) AM Eb) A× Π_{v1 as a1, …}(S)`, restricted to insert-only cursor loops
/// without cyclic data dependences.
fn algebraize_table_udf(
    udf: &UdfDefinition,
    provider: &dyn SchemaProvider,
) -> Result<(RelExpr, Vec<AggregateDefinition>)> {
    let schema = udf
        .returns_table
        .clone()
        .ok_or_else(|| Error::Internal("algebraize_table_udf on a scalar UDF".into()))?;
    let mut alg = Algebraizer::new(udf, provider);
    // Find the single cursor loop; everything before it must be simple declarations.
    let mut ctx = RelExpr::Single;
    let mut result: Option<RelExpr> = None;
    for stmt in &udf.body {
        match stmt {
            Statement::Declare { .. } | Statement::Assign { .. } => {
                ctx = alg.algebraize_statement(ctx, stmt)?;
            }
            Statement::CursorLoop {
                query,
                fetch_vars,
                body,
            } => {
                if result.is_some() {
                    return Err(Error::Unsupported(
                        "table-valued UDF with more than one cursor loop".into(),
                    ));
                }
                // Condition (i) of Section VII-B: no cyclic data dependences.
                let mut known = alg.known_vars();
                known.extend(fetch_vars.iter().cloned());
                let ddg = DataDependenceGraph::build(body, &known);
                if ddg.first_cyclic_node().is_some() {
                    return Err(Error::Unsupported(
                        "table-valued UDF whose loop has cyclic data dependences".into(),
                    ));
                }
                // Conditions (ii)/(iii): inserts only; collect exactly the insert values.
                let mut inserts = vec![];
                let mut loop_ctx = alg.cursor_context(query, fetch_vars)?;
                for s in body {
                    match s {
                        Statement::InsertIntoResult { values } => inserts.push(values.clone()),
                        Statement::Declare { .. } | Statement::Assign { .. } => {
                            loop_ctx = alg.algebraize_statement(loop_ctx, s)?;
                        }
                        Statement::If { .. } => {
                            return Err(Error::Unsupported(
                                "conditional inserts in table-valued UDFs are not supported".into(),
                            ))
                        }
                        other => {
                            return Err(Error::Unsupported(format!(
                                "statement '{}' inside a table-valued UDF loop",
                                other.kind()
                            )))
                        }
                    }
                }
                if inserts.len() != 1 {
                    return Err(Error::Unsupported(format!(
                        "table-valued UDF must insert exactly once per iteration (found {})",
                        inserts.len()
                    )));
                }
                // Π_{v1 as a1, v2 as a2, …} over the per-iteration context.
                let values = &inserts[0];
                if values.len() != schema.len() {
                    return Err(Error::TypeError(format!(
                        "insert provides {} values for {} result columns",
                        values.len(),
                        schema.len()
                    )));
                }
                let items = values
                    .iter()
                    .zip(schema.columns.iter())
                    .map(|(v, c)| ProjectItem::aliased(alg.normalize_expr(v), c.name.clone()))
                    .collect();
                result = Some(RelExpr::Project {
                    input: Box::new(loop_ctx),
                    items,
                    distinct: false,
                });
            }
            Statement::Return { .. } => break,
            other => {
                return Err(Error::Unsupported(format!(
                    "statement '{}' in a table-valued UDF body",
                    other.kind()
                )))
            }
        }
    }
    let plan = result
        .ok_or_else(|| Error::Unsupported("table-valued UDF without a cursor loop".to_string()))?;
    Ok((plan, alg.aux_aggregates))
}

impl<'a> Algebraizer<'a> {
    fn new(udf: &'a UdfDefinition, provider: &'a dyn SchemaProvider) -> Algebraizer<'a> {
        let params: HashSet<String> = udf.param_names().into_iter().collect();
        let mut var_types: Vec<(String, DataType)> = udf
            .params
            .iter()
            .map(|p| (p.name.clone(), p.data_type))
            .collect();
        var_types.extend(udf.declared_variables());
        Algebraizer {
            udf,
            provider,
            params,
            locals: HashSet::new(),
            var_types,
            literal_values: HashMap::new(),
            aux_aggregates: vec![],
        }
    }

    fn known_vars(&self) -> HashSet<String> {
        self.params.union(&self.locals).cloned().collect()
    }

    /// Normalises identifier references inside statement expressions: local variables
    /// become (correlated) column references against the running context, formal
    /// parameters become `Param`s, and everything else is left alone.
    fn normalize_expr(&self, expr: &ScalarExpr) -> ScalarExpr {
        let locals = self.locals.clone();
        let params = self.params.clone();
        decorr_algebra::visit::transform_expr_up(expr, &mut |e| normalize_ref(e, &locals, &params))
    }

    /// Same normalisation applied to every expression of a query plan (e.g. the plan of a
    /// `SELECT … INTO` or cursor query, where `:custcat` refers to a local variable).
    ///
    /// Column references that resolve against the query's *own* tables are additionally
    /// qualified with their table alias (`custkey` → `customer.custkey`), so that they do
    /// not become ambiguous once the query is hoisted into the calling block's scope by
    /// the Apply-removal rules.
    fn normalize_plan(&self, plan: &RelExpr) -> RelExpr {
        let locals = self.locals.clone();
        let params = self.params.clone();
        let mut normalized = map_plan_exprs(plan, &mut |e| normalize_ref(e, &locals, &params));
        qualify_plan(&mut normalized, self.provider);
        normalized
    }

    /// Normalizes `query` and projects its first `targets.len()` output columns, renamed
    /// to `targets`. A query without a projection on top (`select *`) is projected onto
    /// its output columns as the provider types them; one whose columns cannot be
    /// inferred (its table does not exist yet) declines.
    fn columns_as(&self, query: &RelExpr, targets: &[String]) -> Result<RelExpr> {
        let (input, items, distinct) = match self.normalize_plan(query) {
            RelExpr::Project {
                input,
                items,
                distinct,
            } => (input, items, distinct),
            other => {
                let schema = infer_schema(&other, self.provider).unwrap_or_default();
                if schema.len() < targets.len().max(1) {
                    return Err(Error::Rewrite(
                        "cannot determine the output columns of an assignment query".into(),
                    ));
                }
                let column = |c: &Column| ColumnRef {
                    qualifier: c.qualifier.clone(),
                    name: c.name.clone(),
                };
                let items = schema
                    .columns
                    .iter()
                    .map(|c| ProjectItem::new(ScalarExpr::Column(column(c))))
                    .collect();
                (Box::new(other), items, false)
            }
        };
        if items.len() < targets.len() {
            return Err(Error::Rewrite(format!(
                "query provides {} columns for {} assignment targets",
                items.len(),
                targets.len()
            )));
        }
        let items = items
            .into_iter()
            .zip(targets)
            .map(|(item, t)| ProjectItem::aliased(item.expr, t.clone()))
            .collect();
        Ok(RelExpr::Project {
            input,
            items,
            distinct,
        })
    }

    /// Algebraizes one non-return statement, extending the running context.
    fn algebraize_statement(&mut self, ctx: RelExpr, stmt: &Statement) -> Result<RelExpr> {
        match stmt {
            Statement::Declare {
                name,
                data_type,
                init,
            } => {
                let init_expr = match init {
                    Some(e) => self.normalize_expr(e),
                    None => ScalarExpr::Literal(data_type.uninitialized()),
                };
                // Track statically-known initial values for Section VII's condition 1.
                match &init_expr {
                    ScalarExpr::Literal(v) => {
                        self.literal_values.insert(name.clone(), v.clone());
                    }
                    _ => {
                        self.literal_values.remove(name);
                    }
                }
                self.locals.insert(name.clone());
                if !self.var_types.iter().any(|(n, _)| n == name) {
                    self.var_types.push((name.clone(), *data_type));
                }
                // ctx A× Π_{init as name}(S)
                Ok(RelExpr::Apply {
                    left: Box::new(ctx),
                    right: Box::new(project_on_single(vec![(init_expr, name.clone())])),
                    kind: ApplyKind::Cross,
                    bindings: vec![],
                })
            }
            Statement::Assign { name, expr } => {
                if !self.locals.contains(name) {
                    // Assignment to an undeclared variable: treat as implicit declaration
                    // (some dialects allow this for @variables).
                    self.locals.insert(name.clone());
                    if !self.var_types.iter().any(|(n, _)| n == name) {
                        self.var_types.push((name.clone(), DataType::Null));
                    }
                    let declared = self.algebraize_statement(
                        ctx,
                        &Statement::Declare {
                            name: name.clone(),
                            data_type: DataType::Null,
                            init: None,
                        },
                    )?;
                    return self.algebraize_statement(
                        declared,
                        &Statement::Assign {
                            name: name.clone(),
                            expr: expr.clone(),
                        },
                    );
                }
                match expr {
                    ScalarExpr::Literal(v) => {
                        self.literal_values.insert(name.clone(), v.clone());
                    }
                    _ => {
                        self.literal_values.remove(name);
                    }
                }
                // Assignment from a scalar query uses the query plan directly as the
                // inner expression; any other expression is a projection on Single.
                let right = match expr {
                    ScalarExpr::ScalarSubquery(q) => {
                        self.columns_as(q, std::slice::from_ref(name))?
                    }
                    other => project_on_single(vec![(self.normalize_expr(other), name.clone())]),
                };
                Ok(RelExpr::ApplyMerge {
                    left: Box::new(ctx),
                    right: Box::new(right),
                    assignments: vec![],
                })
            }
            Statement::SelectInto { query, targets } => {
                for t in targets {
                    if !self.locals.contains(t) && !self.params.contains(t) {
                        self.locals.insert(t.clone());
                        if !self.var_types.iter().any(|(n, _)| n == t) {
                            self.var_types.push((t.clone(), DataType::Null));
                        }
                    }
                    self.literal_values.remove(t);
                }
                let right = self.columns_as(query, targets)?;
                Ok(RelExpr::ApplyMerge {
                    left: Box::new(ctx),
                    right: Box::new(right),
                    assignments: vec![],
                })
            }
            Statement::If {
                condition,
                then_branch,
                else_branch,
            } => {
                let predicate = self.normalize_expr(condition);
                let then_plan = self.algebraize_branch(then_branch)?;
                let else_plan = self.algebraize_branch(else_branch)?;
                // Variables assigned inside branches no longer have statically known
                // values.
                for s in then_branch.iter().chain(else_branch) {
                    for w in decorr_udf::analysis::statement_writes(s) {
                        self.literal_values.remove(&w);
                    }
                }
                Ok(RelExpr::ConditionalApplyMerge {
                    left: Box::new(ctx),
                    predicate,
                    then_branch: Box::new(then_plan),
                    else_branch: Box::new(else_plan),
                    assignments: vec![],
                })
            }
            Statement::CursorLoop {
                query,
                fetch_vars,
                body,
            } => self.algebraize_cursor_loop(ctx, query, fetch_vars, body),
            Statement::While { .. } => Err(Error::Unsupported(format!(
                "UDF '{}' contains an arbitrary WHILE loop (dynamic iteration space); \
                 it can be executed iteratively but not decorrelated",
                self.udf.name
            ))),
            Statement::InsertIntoResult { .. } => Err(Error::Unsupported(
                "INSERT into a result table outside a table-valued UDF".into(),
            )),
            Statement::Return { .. } => Err(Error::Internal("RETURN handled by the caller".into())),
        }
    }

    /// Algebraizes the statements of an if/else arm into a single-tuple expression over
    /// `Single` (the paper's e_t / e_f).
    fn algebraize_branch(&mut self, stmts: &[Statement]) -> Result<RelExpr> {
        let mut plan = RelExpr::Single;
        for stmt in stmts {
            match stmt {
                Statement::Return { .. } => {
                    return Err(Error::Unsupported(
                        "RETURN inside a conditional branch is not decorrelatable".into(),
                    ))
                }
                other => {
                    plan = self.algebraize_statement(plan, other)?;
                }
            }
        }
        Ok(plan)
    }

    /// Builds the per-iteration context of a cursor loop: the cursor query with its
    /// output columns renamed to the fetch variables (the `fetch next … into` is modelled
    /// as an assignment, Section VII-A).
    fn cursor_context(&mut self, query: &RelExpr, fetch_vars: &[String]) -> Result<RelExpr> {
        let context = self.columns_as(query, fetch_vars)?;
        for v in fetch_vars {
            self.locals.insert(v.clone());
        }
        Ok(context)
    }

    fn algebraize_cursor_loop(
        &mut self,
        ctx: RelExpr,
        query: &RelExpr,
        fetch_vars: &[String],
        body: &[Statement],
    ) -> Result<RelExpr> {
        let mut known = self.known_vars();
        known.extend(fetch_vars.iter().cloned());
        for s in body {
            known.extend(decorr_udf::analysis::statement_writes(s));
        }
        let ddg = DataDependenceGraph::build(body, &known);
        let Some(cycle_start) = ddg.first_cyclic_node() else {
            return Err(Error::Unsupported(format!(
                "cursor loop in UDF '{}' has no cyclic data dependences; its result does \
                 not feed an aggregate and cannot be decorrelated",
                self.udf.name
            )));
        };
        // E_in: the cursor query (fetch modelled as assignment) followed by the
        // statements that precede the first cyclic node.
        let mut loop_ctx = self.cursor_context(query, fetch_vars)?;
        for stmt in &body[..cycle_start] {
            match stmt {
                Statement::Declare { .. } | Statement::Assign { .. } => {
                    loop_ctx = self.algebraize_statement(loop_ctx, stmt)?;
                }
                other => {
                    return Err(Error::Unsupported(format!(
                        "statement '{}' before the cyclic part of a cursor loop",
                        other.kind()
                    )))
                }
            }
        }
        // L_c: the cyclic suffix becomes an auxiliary user-defined aggregate.
        let cyclic = &body[cycle_start..];
        let live_out = self.single_live_out(cyclic)?;
        let initial_values: Vec<(String, Value)> = self
            .literal_values
            .iter()
            .map(|(k, v)| (k.clone(), v.clone()))
            .collect();
        let definition = synthesize_aux_aggregate(
            &aux_aggregate_name(&self.udf.name, self.aux_aggregates.len() + 1),
            cyclic,
            &known,
            &initial_values,
            &self.var_types,
            &live_out,
        )?;
        // E_b = G_{aux(args) as live_out}(E_in)
        let agg_args: Vec<ScalarExpr> = definition
            .params
            .iter()
            .map(|p| ScalarExpr::column(p.name.clone()))
            .collect();
        // The aggregate's output gets a fresh name so it never collides with the context
        // variable it is assigned to.
        let agg_alias = format!("__loop_{live_out}");
        let aggregate = RelExpr::Aggregate {
            input: Box::new(loop_ctx),
            group_by: vec![],
            aggregates: vec![AggCall::new(
                AggFunc::UserDefined(definition.name.clone()),
                agg_args,
                agg_alias.clone(),
            )],
        };
        self.aux_aggregates.push(definition);
        // The loop's contribution merges the aggregate result into the context variable.
        if !self.locals.contains(&live_out) {
            return Err(Error::Rewrite(format!(
                "loop result variable '{live_out}' is not declared before the loop"
            )));
        }
        self.literal_values.remove(&live_out);
        Ok(RelExpr::ApplyMerge {
            left: Box::new(ctx),
            right: Box::new(aggregate),
            assignments: vec![decorr_algebra::plan::MergeAssignment::new(
                live_out.clone(),
                agg_alias,
            )],
        })
    }

    /// Determines the single variable that carries the loop's result (written in the
    /// cyclic part and live afterwards). The executor supports multi-variable aggregate
    /// state, but the algebraic form needs exactly one result column.
    fn single_live_out(&self, cyclic: &[Statement]) -> Result<String> {
        let mut written: Vec<String> = vec![];
        for s in cyclic {
            for w in decorr_udf::analysis::statement_writes(s) {
                if !written.contains(&w) {
                    written.push(w);
                }
            }
        }
        // Live afterwards = read by any later statement in the UDF body (including the
        // RETURN). We conservatively check the whole body text after the loop by
        // re-scanning all statements for reads of the written variables outside the loop.
        let known = self.known_vars();
        let mut live: Vec<String> = vec![];
        for stmt in &self.udf.body {
            if matches!(stmt, Statement::CursorLoop { .. }) {
                continue;
            }
            let reads = decorr_udf::analysis::statement_reads(stmt, &known);
            for w in &written {
                if reads.contains(w) && !live.contains(w) {
                    live.push(w.clone());
                }
            }
        }
        match live.len() {
            1 => Ok(live.remove(0)),
            0 => Err(Error::Unsupported(
                "cursor loop writes no variable that is used after the loop".into(),
            )),
            n => Err(Error::Unsupported(format!(
                "cursor loop has {n} live-out variables; only one is supported"
            ))),
        }
    }

    /// Attaches the RETURN expression: `Π_retval(ctx A× right)` (Section IV).
    fn attach_return(&mut self, ctx: RelExpr, expr: &ScalarExpr) -> Result<RelExpr> {
        let right = match expr {
            ScalarExpr::ScalarSubquery(q) => self.columns_as(q, &["retval".into()])?,
            other => project_on_single(vec![(self.normalize_expr(other), "retval".into())]),
        };
        let applied = RelExpr::Apply {
            left: Box::new(ctx),
            right: Box::new(right),
            kind: ApplyKind::Cross,
            bindings: vec![],
        };
        Ok(RelExpr::Project {
            input: Box::new(applied),
            items: vec![ProjectItem::new(ScalarExpr::column("retval"))],
            distinct: false,
        })
    }
}

/// `Π_{expr as name, …}(S)`.
fn project_on_single(items: Vec<(ScalarExpr, String)>) -> RelExpr {
    RelExpr::Project {
        input: Box::new(RelExpr::Single),
        items: items
            .into_iter()
            .map(|(e, n)| ProjectItem::aliased(e, n))
            .collect(),
        distinct: false,
    }
}

/// Qualifies unqualified column references in every operator of `plan` against the
/// schemas of that operator's own inputs.
fn qualify_plan(plan: &mut RelExpr, provider: &dyn SchemaProvider) {
    plan.for_each_child_mut(&mut |c| qualify_plan(c, provider));
    let visible = plan
        .children()
        .iter()
        .map(|c| {
            decorr_algebra::schema::infer_schema(c, provider)
                .unwrap_or_else(|_| decorr_common::Schema::empty())
        })
        .fold(decorr_common::Schema::empty(), |acc, s| acc.join(&s));
    plan.for_each_expr_mut(&mut |e| {
        *e = decorr_algebra::visit::transform_expr_up(e, &mut |inner| match &inner {
            ScalarExpr::Column(c) if c.qualifier.is_none() => match visible.find(None, &c.name) {
                Some(idx) => match &visible.column(idx).qualifier {
                    Some(q) => ScalarExpr::qualified_column(q.clone(), c.name.clone()),
                    None => inner,
                },
                None => inner,
            },
            _ => inner,
        })
    });
}

fn normalize_ref(
    expr: ScalarExpr,
    locals: &HashSet<String>,
    params: &HashSet<String>,
) -> ScalarExpr {
    match &expr {
        ScalarExpr::Param(p) => {
            if locals.contains(p) {
                ScalarExpr::column(p.clone())
            } else {
                // Formal parameters and unknown names both stay as parameters; an
                // unknown name surfaces later as an unbound-parameter execution error.
                expr
            }
        }
        ScalarExpr::Column(c) if c.qualifier.is_none() => {
            if params.contains(&c.name) && !locals.contains(&c.name) {
                ScalarExpr::param(c.name.clone())
            } else {
                expr
            }
        }
        _ => expr,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_algebra::display::explain;
    use decorr_parser::parse_function;

    /// A UDF's form and the auxiliary aggregates it calls.
    #[derive(Debug)]
    struct Algebraized {
        plan: RelExpr,
        aux_aggregates: Vec<AggregateDefinition>,
    }

    fn algebraize_with(udf: &UdfDefinition, provider: &dyn SchemaProvider) -> Result<Algebraized> {
        let (plan, aux_aggregates) = algebraize_udf(udf, provider)?;
        Ok(Algebraized {
            plan,
            aux_aggregates,
        })
    }

    fn algebraize(udf: &UdfDefinition) -> Result<Algebraized> {
        algebraize_with(udf, &decorr_algebra::EmptyProvider)
    }

    #[test]
    fn algebraizes_single_expression_udf() {
        // Example 3 of the paper.
        let udf = parse_function(
            "create function discount(float amount) returns float as \
             begin return amount * 0.15; end",
        )
        .unwrap();
        let out = algebraize(&udf).unwrap();
        let text = explain(&out.plan);
        assert!(text.contains("Project [retval]"));
        assert!(text.contains("Apply(cross)"));
        assert!(text.contains("(:amount * 0.15) as retval"));
        assert!(out.aux_aggregates.is_empty());
        // Free parameters are exactly the formals.
        assert_eq!(
            decorr_algebra::visit::free_params(&out.plan),
            vec!["amount".to_string()]
        );
    }

    #[test]
    fn algebraizes_single_query_udf() {
        // Example 4 of the paper.
        let udf = parse_function(
            "create function totalbusiness(int ckey) returns int as \
             begin return select sum(totalprice) from orders where custkey = :ckey; end",
        )
        .unwrap();
        let out = algebraize(&udf).unwrap();
        let text = explain(&out.plan);
        assert!(text.contains("Aggregate group_by=[] aggs=[sum(totalprice)"));
        assert!(text.contains("Scan orders"));
        assert!(text.contains("(custkey = :ckey)"));
        assert_eq!(
            decorr_algebra::visit::free_params(&out.plan),
            vec!["ckey".to_string()]
        );
    }

    #[test]
    fn algebraizes_example1_with_branching() {
        let udf = parse_function(
            "create function service_level(int ckey) returns char(10) as \
             begin \
               float totalbusiness; string level; \
               select sum(totalprice) into :totalbusiness from orders where custkey = :ckey; \
               if (totalbusiness > 1000000) level = 'Platinum'; \
               else if (totalbusiness > 500000) level = 'Gold'; \
               else level = 'Regular'; \
               return level; \
             end",
        )
        .unwrap();
        let out = algebraize(&udf).unwrap();
        let text = explain(&out.plan);
        // The structure of Figure 5: ConditionalApplyMerge over an ApplyMerge over the
        // declarations, with the scalar aggregate as the AM's inner expression.
        assert!(text.contains("ConditionalApplyMerge if (totalbusiness > 1000000)"));
        assert!(text.contains("ApplyMerge"));
        assert!(text.contains("Aggregate group_by=[] aggs=[sum(totalprice)"));
        // Local variable references became columns; the formal stays a parameter.
        assert_eq!(
            decorr_algebra::visit::free_params(&out.plan),
            vec!["ckey".to_string()]
        );
    }

    #[test]
    fn algebraizes_cursor_loop_into_aux_aggregate() {
        // Example 5 of the paper (getcost replaced by a plain arithmetic expression so
        // the pre-loop part stays statically analysable).
        let udf = parse_function(
            "create function totalloss(int pkey, float cost) returns float as \
             begin \
               float total_loss = 0; \
               declare c cursor for \
                 select price, qty, disc from lineitem where partkey = :pkey; \
               open c; \
               fetch next from c into @price, @qty, @disc; \
               while @@fetch_status = 0 \
                 float profit = (@price - @disc) - (cost * @qty); \
                 if (profit < 0) total_loss = total_loss - profit; \
                 fetch next from c into @price, @qty, @disc; \
               close c; deallocate c; \
               return total_loss; \
             end",
        )
        .unwrap();
        let out = algebraize(&udf).unwrap();
        assert_eq!(out.aux_aggregates.len(), 1);
        let agg = &out.aux_aggregates[0];
        assert_eq!(agg.name, "aux_agg_totalloss");
        assert_eq!(agg.state.len(), 1);
        assert_eq!(agg.state[0].0, "total_loss");
        assert_eq!(
            agg.state[0].2,
            Value::Float(0.0).cast(DataType::Float).unwrap()
        );
        assert_eq!(agg.params.len(), 1);
        assert_eq!(agg.params[0].name, "profit");
        let text = explain(&out.plan);
        assert!(text.contains("aux_agg_totalloss(profit) as __loop_total_loss"));
        assert!(text.contains("Scan lineitem"));
    }

    #[test]
    fn while_loops_are_rejected() {
        let udf = parse_function(
            "create function f(int n) returns int as \
             begin \
               int total = 0; int i = 0; \
               while (i < n) begin total = total + i; i = i + 1; end \
               return total; \
             end",
        )
        .unwrap();
        let err = algebraize(&udf).unwrap_err();
        assert_eq!(err.kind(), "unsupported");
        assert!(err.to_string().contains("WHILE"));
    }

    #[test]
    fn algebraizes_table_valued_udf() {
        let udf = parse_function(
            "create function big_orders(float threshold) returns tt table(orderkey int, boosted float) as \
             begin \
               declare c cursor for select orderkey, totalprice from orders where totalprice > :threshold; \
               open c; \
               fetch next from c into @ok, @tp; \
               while @@fetch_status = 0 \
               begin \
                 insert into tt values (@ok, @tp * 1.1); \
                 fetch next from c into @ok, @tp; \
               end \
               close c; deallocate c; \
               return tt; \
             end",
        )
        .unwrap();
        let out = algebraize(&udf).unwrap();
        let text = explain(&out.plan);
        assert!(text.contains("Project [@ok as orderkey, (@tp * 1.1) as boosted]"));
        assert!(text.contains("Scan orders"));
    }

    #[test]
    fn conditional_return_is_rejected() {
        let udf = parse_function(
            "create function f(int x) returns int as \
             begin if (x > 0) return 1; else return 0; end",
        )
        .unwrap();
        assert_eq!(algebraize(&udf).unwrap_err().kind(), "unsupported");
    }

    #[test]
    fn each_loop_gets_its_ordinal_aggregate_name() {
        let udf = parse_function(
            "create function f(int k) returns int as \
             begin \
               int a = 0; int b = 0; \
               declare c cursor for select x from t where k = :k; \
               open c; fetch next from c into @v; \
               while @@fetch_status = 0 a = a + @v; fetch next from c into @v; \
               close c; deallocate c; \
               declare d cursor for select x from t; \
               open d; fetch next from d into @w; \
               while @@fetch_status = 0 b = b + @w; fetch next from d into @w; \
               close d; deallocate d; \
               return a + b; \
             end",
        )
        .unwrap();
        let names: Vec<String> = algebraize(&udf)
            .unwrap()
            .aux_aggregates
            .into_iter()
            .map(|a| a.name)
            .collect();
        assert_eq!(names, ["aux_agg_f", "aux2_agg_f"]);
    }

    #[test]
    fn a_projection_less_query_is_typed_by_the_provider_or_declines() {
        // `select *` plans without a projection: its output columns come from the
        // table schema, and without one the body declines instead of panicking.
        let udf = parse_function(
            "create function s(int k) returns int as \
             begin return select * from one where c = :k; end",
        )
        .unwrap();
        let err = algebraize(&udf).unwrap_err();
        assert!(err
            .to_string()
            .contains("cannot determine the output columns"));
        let one = decorr_algebra::MapProvider::new().with_table(
            "one",
            decorr_common::Schema::new(vec![decorr_common::Column::new("c", DataType::Int)]),
        );
        let out = algebraize_with(&udf, &one).unwrap();
        assert!(explain(&out.plan).contains("one.c as retval"));
        assert_eq!(
            decorr_algebra::visit::free_params(&out.plan),
            vec!["k".to_string()]
        );
    }

    #[test]
    fn the_registry_records_forms_and_declines() {
        let mut registry = FunctionRegistry::new();
        for source in [
            "create function ok(int x) returns int as begin return x + 1; end",
            "create function no(int x) returns int as \
             begin if (x > 0) return 1; else return 0; end",
        ] {
            registry.register_udf(parse_function(source).unwrap());
        }
        algebraize_registry(&mut registry, Some("OK"), &decorr_algebra::EmptyProvider);
        assert!(registry.record("ok").unwrap().form.is_ok());
        let pending = registry.record("no").unwrap().form.clone().unwrap_err();
        assert!(pending
            .to_string()
            .contains("no algebraic form derived yet"));
        algebraize_registry(&mut registry, None, &decorr_algebra::EmptyProvider);
        let reason = registry.record("no").unwrap().form.clone().unwrap_err();
        assert!(reason
            .to_string()
            .contains("RETURN inside a conditional branch"));
    }
}
