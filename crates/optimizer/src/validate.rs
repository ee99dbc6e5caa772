//! Structural plan validation, run by the [`PassManager`](crate::PassManager) after
//! every stage (behind `PassManagerOptions::validate_plans`) so that a buggy rewrite
//! rule becomes a named-violation pipeline error instead of a silent wrong answer.
//!
//! [`validate_plan`] is a visitor of [`walk_scopes`], the one static scope model the
//! rewrite rules' correlation test reads too, and checks the invariants every rewrite
//! rule must preserve:
//!
//! * every [`Scan`](RelExpr::Scan) names a table the provider knows;
//! * every column reference resolves against the operator's input schema or an
//!   enclosing scope, and unambiguously in the innermost scope that has it;
//! * `Union` sides agree on arity and column types (up to numeric widening);
//! * `Values` rows match their declared schema's arity;
//! * every Apply correlation binding is consumed by the right subtree;
//! * every UDF call and user-defined aggregate names a registered function.
//!
//! Free [`Param`](decorr_algebra::ScalarExpr::Param)s are deliberately *not*
//! violations: UDF body fragments and mid-rewrite plans legitimately contain
//! parameters bound by an enclosing Apply-bind or by the interpreter.
//! [`check_decorrelated`] is the separate check that a plan claimed fully decorrelated
//! holds no Apply-family operator.

use std::fmt;

use decorr_algebra::visit::{free_params, walk_scopes, Binding, ScopeVisitor};
use decorr_algebra::{AggFunc, ColumnRef, RelExpr, ScalarExpr, SchemaMemo, SchemaProvider};
use decorr_common::DataType;
use decorr_udf::FunctionRegistry;

/// One violated structural invariant, located by operator name.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// A `Scan` references a table the schema provider does not know.
    UnknownTable {
        /// The unresolvable table name.
        table: String,
    },
    /// A column reference resolves against neither the operator's input schema nor
    /// any enclosing scope.
    UnresolvedColumn {
        /// The unresolvable (possibly qualified) column reference.
        column: String,
        /// Name of the operator whose expression holds the reference.
        operator: &'static str,
    },
    /// A column reference matches several columns of the innermost scope that has it.
    AmbiguousColumn {
        /// The ambiguous (possibly qualified) column reference.
        column: String,
        /// Name of the operator whose expression holds the reference.
        operator: &'static str,
    },
    /// A scalar UDF invocation names a function that is neither registered nor known
    /// to the schema provider.
    UnknownFunction {
        /// The unresolvable function name.
        name: String,
    },
    /// A user-defined aggregate names no registered aggregate (auxiliary aggregates are
    /// registered with the UDF they were synthesised from).
    UnknownAggregate {
        /// The unresolvable aggregate name.
        name: String,
    },
    /// The two sides of a `Union` produce different numbers of columns.
    UnionArityMismatch {
        /// Column count of the left side.
        left: usize,
        /// Column count of the right side.
        right: usize,
    },
    /// A `Union` column pairs two types that cannot be unified.
    UnionTypeMismatch {
        /// Zero-based column position.
        position: usize,
        /// Type on the left side.
        left: DataType,
        /// Type on the right side.
        right: DataType,
    },
    /// A `Values` row does not match the declared schema's arity.
    ValuesArityMismatch {
        /// Column count declared by the `Values` schema.
        expected: usize,
        /// Column count of the offending row.
        found: usize,
    },
    /// An Apply correlation binding whose parameter is never consumed by the right
    /// subtree — dead correlation a rewrite should have removed, or (worse) a binding
    /// whose consumer a buggy rule dropped.
    UnconsumedBinding {
        /// The unused binding parameter.
        param: String,
        /// Name of the Apply-family operator holding the binding.
        operator: &'static str,
    },
    /// A residual Apply-family operator in a plan the pipeline claims is fully
    /// decorrelated.
    ResidualApply {
        /// Name of the residual operator.
        operator: &'static str,
    },
}

impl Violation {
    /// Stable kebab-case violation name, used in pipeline error messages and tests.
    pub fn name(&self) -> &'static str {
        match self {
            Violation::UnknownTable { .. } => "unknown-table",
            Violation::UnresolvedColumn { .. } => "unresolved-column",
            Violation::AmbiguousColumn { .. } => "ambiguous-column",
            Violation::UnknownFunction { .. } => "unknown-function",
            Violation::UnknownAggregate { .. } => "unknown-aggregate",
            Violation::UnionArityMismatch { .. } => "union-arity-mismatch",
            Violation::UnionTypeMismatch { .. } => "union-type-mismatch",
            Violation::ValuesArityMismatch { .. } => "values-arity-mismatch",
            Violation::UnconsumedBinding { .. } => "unconsumed-binding",
            Violation::ResidualApply { .. } => "residual-apply",
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::UnknownTable { table } => write!(f, "scan of unknown table '{table}'"),
            Violation::UnresolvedColumn { column, operator } => write!(
                f,
                "column '{column}' in operator '{operator}' resolves against neither its \
                 input schema nor any enclosing scope"
            ),
            Violation::AmbiguousColumn { column, operator } => write!(
                f,
                "column '{column}' in operator '{operator}' is ambiguous: it matches several \
                 columns of the innermost scope that has it"
            ),
            Violation::UnknownFunction { name } => {
                write!(f, "call of unknown function '{name}'")
            }
            Violation::UnknownAggregate { name } => {
                write!(f, "call of unknown user-defined aggregate '{name}'")
            }
            Violation::UnionArityMismatch { left, right } => write!(
                f,
                "union sides produce {left} and {right} columns respectively"
            ),
            Violation::UnionTypeMismatch {
                position,
                left,
                right,
            } => write!(
                f,
                "union column {position} pairs incompatible types {left} and {right}"
            ),
            Violation::ValuesArityMismatch { expected, found } => write!(
                f,
                "values row has {found} fields but the declared schema has {expected} columns"
            ),
            Violation::UnconsumedBinding { param, operator } => write!(
                f,
                "binding parameter '{param}' of operator '{operator}' is never consumed \
                 by its right subtree"
            ),
            Violation::ResidualApply { operator } => write!(
                f,
                "residual '{operator}' operator in a plan claimed fully decorrelated"
            ),
        }
    }
}

/// Outcome of one [`validate_plan`] run: the violations found plus the number of
/// individual checks performed (reported per pass in `PipelineReport`/EXPLAIN).
#[derive(Debug, Clone, Default)]
pub struct ValidationReport {
    /// Violated invariants, in plan-walk order.
    pub violations: Vec<Violation>,
    /// Individual invariant checks performed (column resolutions, arity checks,
    /// binding-consumption checks, name lookups).
    pub checks: u64,
}

impl ValidationReport {
    /// True when no invariant was violated.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }
}

/// Validates a plan against a schema provider and function registry, counting checks.
///
/// This is the entry point the optimizer's per-pass validation uses: the provider is
/// whatever view of the catalog the pipeline optimizes against.
pub fn validate_plan(
    plan: &RelExpr,
    provider: &dyn SchemaProvider,
    registry: &FunctionRegistry,
) -> ValidationReport {
    let mut v = Validator {
        provider,
        registry,
        report: ValidationReport::default(),
    };
    walk_scopes(plan, provider, &mut v);
    v.report
}

/// Checks that a plan the pipeline claims fully decorrelated really contains no
/// Apply-family operator (including inside scalar subqueries). Returns one
/// [`Violation::ResidualApply`] per residual operator.
pub fn check_decorrelated(plan: &RelExpr) -> Vec<Violation> {
    let mut out = vec![];
    collect_residual_applies(plan, &mut out);
    out
}

fn collect_residual_applies(plan: &RelExpr, out: &mut Vec<Violation>) {
    if matches!(
        plan,
        RelExpr::Apply { .. } | RelExpr::ApplyMerge { .. } | RelExpr::ConditionalApplyMerge { .. }
    ) {
        out.push(Violation::ResidualApply {
            operator: plan.name(),
        });
    }
    plan.for_each_expr(&mut |e| collect_expr_residual_applies(e, out));
    plan.for_each_child(&mut |c| collect_residual_applies(c, out));
}

fn collect_expr_residual_applies(expr: &ScalarExpr, out: &mut Vec<Violation>) {
    match expr {
        ScalarExpr::ScalarSubquery(q) | ScalarExpr::Exists(q) => collect_residual_applies(q, out),
        ScalarExpr::InSubquery { expr, subquery, .. } => {
            collect_expr_residual_applies(expr, out);
            collect_residual_applies(subquery, out);
        }
        other => {
            other.for_each_child(&mut |c| collect_expr_residual_applies(c, out));
        }
    }
}

struct Validator<'a> {
    provider: &'a dyn SchemaProvider,
    registry: &'a FunctionRegistry,
    report: ValidationReport,
}

impl ScopeVisitor for Validator<'_> {
    fn operator(&mut self, plan: &RelExpr, schemas: &mut SchemaMemo) {
        match plan {
            RelExpr::Scan { table, .. } => {
                self.report.checks += 1;
                if self.provider.table_schema(table).is_err() {
                    self.report.violations.push(Violation::UnknownTable {
                        table: table.clone(),
                    });
                }
            }
            RelExpr::Values { schema, rows } => {
                for row in rows {
                    self.report.checks += 1;
                    if row.len() != schema.len() {
                        self.report.violations.push(Violation::ValuesArityMismatch {
                            expected: schema.len(),
                            found: row.len(),
                        });
                        break;
                    }
                }
            }
            RelExpr::Union { left, right, .. } => {
                let (l, r) = (
                    schemas.infer(left, self.provider),
                    schemas.infer(right, self.provider),
                );
                if let (Ok(l), Ok(r)) = (l, r) {
                    self.report.checks += 1;
                    if l.len() != r.len() {
                        self.report.violations.push(Violation::UnionArityMismatch {
                            left: l.len(),
                            right: r.len(),
                        });
                    } else {
                        for i in 0..l.len() {
                            self.report.checks += 1;
                            let (lt, rt) = (l.column(i).data_type, r.column(i).data_type);
                            if lt.unify(rt).is_err() {
                                self.report.violations.push(Violation::UnionTypeMismatch {
                                    position: i,
                                    left: lt,
                                    right: rt,
                                });
                            }
                        }
                    }
                }
            }
            RelExpr::Aggregate { aggregates, .. } => {
                for a in aggregates {
                    if let AggFunc::UserDefined(name) = &a.func {
                        self.report.checks += 1;
                        if !self.registry.has_aggregate(name) {
                            self.report
                                .violations
                                .push(Violation::UnknownAggregate { name: name.clone() });
                        }
                    }
                }
            }
            RelExpr::Apply {
                right, bindings, ..
            } => {
                let consumed = free_params(right);
                for b in bindings {
                    self.report.checks += 1;
                    if !consumed.contains(&b.param) {
                        self.report.violations.push(Violation::UnconsumedBinding {
                            param: b.param.clone(),
                            operator: plan.name(),
                        });
                    }
                }
            }
            _ => {}
        }
    }

    fn expr(&mut self, expr: &ScalarExpr) {
        if let ScalarExpr::UdfCall { name, .. } = expr {
            self.report.checks += 1;
            if !self.registry.has_udf(name) && self.provider.udf_return_type(name).is_none() {
                self.report
                    .violations
                    .push(Violation::UnknownFunction { name: name.clone() });
            }
        }
    }

    /// A reference under an operator whose input schema is unknown is not checked: the
    /// unknown table below is reported once, at its scan.
    fn column(&mut self, c: &ColumnRef, operator: &'static str, binding: Binding) {
        if binding == Binding::Unknown {
            return;
        }
        self.report.checks += 1;
        let column = || c.to_string();
        match binding {
            Binding::Ambiguous => self.report.violations.push(Violation::AmbiguousColumn {
                column: column(),
                operator,
            }),
            Binding::Free => self.report.violations.push(Violation::UnresolvedColumn {
                column: column(),
                operator,
            }),
            Binding::Bound | Binding::Unknown => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_algebra::{
        AggCall, ApplyKind, JoinKind, MapProvider, ParamBinding, ProjectItem, ScalarExpr as E,
    };
    use decorr_common::{Column, Schema, Value};

    fn provider() -> MapProvider {
        MapProvider::new()
            .with_table(
                "customer",
                Schema::new(vec![
                    Column::new("custkey", DataType::Int),
                    Column::new("name", DataType::Str),
                ]),
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

    fn run(plan: &RelExpr) -> ValidationReport {
        validate_plan(plan, &provider(), &FunctionRegistry::new())
    }

    #[test]
    fn well_formed_query_is_clean() {
        let plan = RelExpr::Select {
            input: Box::new(RelExpr::scan("orders")),
            predicate: E::gt(E::column("totalprice"), E::literal(100)),
        };
        let report = run(&plan);
        assert!(report.is_clean(), "violations: {:?}", report.violations);
        assert!(report.checks >= 2, "scan + column resolution counted");
    }

    #[test]
    fn unknown_table_is_flagged_once() {
        let plan = RelExpr::Select {
            input: Box::new(RelExpr::scan("nosuch")),
            predicate: E::gt(E::column("totalprice"), E::literal(100)),
        };
        let report = run(&plan);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].name(), "unknown-table");
    }

    #[test]
    fn dangling_column_is_flagged_with_operator() {
        let plan = RelExpr::Project {
            input: Box::new(RelExpr::scan("orders")),
            items: vec![ProjectItem::new(E::column("no_such_col"))],
            distinct: false,
        };
        let report = run(&plan);
        assert_eq!(report.violations.len(), 1);
        match &report.violations[0] {
            Violation::UnresolvedColumn { column, operator } => {
                assert_eq!(column, "no_such_col");
                assert_eq!(*operator, "Project");
            }
            other => panic!("expected unresolved-column, got {other:?}"),
        }
    }

    #[test]
    fn correlated_subquery_resolves_through_outer_scope() {
        // select * from customer c where exists(select * from orders o
        //                                       where o.custkey = c.custkey)
        let subquery = RelExpr::Select {
            input: Box::new(RelExpr::scan_as("orders", "o")),
            predicate: E::eq(
                E::qualified_column("o", "custkey"),
                E::qualified_column("c", "custkey"),
            ),
        };
        let plan = RelExpr::Select {
            input: Box::new(RelExpr::scan_as("customer", "c")),
            predicate: E::Exists(Box::new(subquery)),
        };
        assert!(run(&plan).is_clean());
    }

    #[test]
    fn ambiguous_column_is_flagged_instead_of_binding_outward() {
        // select * from customer where exists(select * from orders a join orders b
        //                                     on a.orderkey = b.orderkey where custkey = 1)
        let join = RelExpr::Join {
            left: Box::new(RelExpr::scan_as("orders", "a")),
            right: Box::new(RelExpr::scan_as("orders", "b")),
            kind: JoinKind::Inner,
            condition: Some(E::eq(
                E::qualified_column("a", "orderkey"),
                E::qualified_column("b", "orderkey"),
            )),
        };
        let subquery = RelExpr::Select {
            input: Box::new(join),
            predicate: E::eq(E::column("custkey"), E::literal(1)),
        };
        let plan = RelExpr::Select {
            input: Box::new(RelExpr::scan("customer")),
            predicate: E::Exists(Box::new(subquery)),
        };
        let report = run(&plan);
        assert_eq!(report.violations.len(), 1, "{:?}", report.violations);
        assert_eq!(report.violations[0].name(), "ambiguous-column");
    }

    #[test]
    fn truly_free_column_in_subquery_is_flagged() {
        let subquery = RelExpr::Select {
            input: Box::new(RelExpr::scan_as("orders", "o")),
            predicate: E::eq(
                E::qualified_column("o", "custkey"),
                E::qualified_column("zz", "custkey"),
            ),
        };
        let plan = RelExpr::Select {
            input: Box::new(RelExpr::scan_as("customer", "c")),
            predicate: E::Exists(Box::new(subquery)),
        };
        let report = run(&plan);
        assert_eq!(report.violations.len(), 1);
        assert_eq!(report.violations[0].name(), "unresolved-column");
    }

    #[test]
    fn union_arity_and_type_mismatches() {
        let two_cols = RelExpr::Project {
            input: Box::new(RelExpr::scan("customer")),
            items: vec![
                ProjectItem::new(E::column("custkey")),
                ProjectItem::new(E::column("name")),
            ],
            distinct: false,
        };
        let one_col = RelExpr::Project {
            input: Box::new(RelExpr::scan("orders")),
            items: vec![ProjectItem::new(E::column("orderkey"))],
            distinct: false,
        };
        let arity = RelExpr::Union {
            left: Box::new(two_cols.clone()),
            right: Box::new(one_col),
            all: true,
        };
        let report = run(&arity);
        assert_eq!(report.violations[0].name(), "union-arity-mismatch");

        let int_then_str = RelExpr::Project {
            input: Box::new(RelExpr::scan("orders")),
            items: vec![
                ProjectItem::new(E::column("orderkey")),
                ProjectItem::aliased(E::column("orderkey"), "n"),
            ],
            distinct: false,
        };
        let types = RelExpr::Union {
            left: Box::new(two_cols),
            right: Box::new(int_then_str),
            all: true,
        };
        let report = run(&types);
        // Column 0 unifies (int/int); column 1 pairs str with int.
        assert_eq!(report.violations.len(), 1);
        match &report.violations[0] {
            Violation::UnionTypeMismatch { position, .. } => assert_eq!(*position, 1),
            other => panic!("expected union-type-mismatch, got {other:?}"),
        }
    }

    #[test]
    fn values_row_arity_mismatch() {
        let plan = RelExpr::Values {
            schema: Schema::new(vec![Column::new("a", DataType::Int)]),
            rows: vec![vec![Value::Int(1), Value::Int(2)]],
        };
        let report = run(&plan);
        assert_eq!(report.violations[0].name(), "values-arity-mismatch");
    }

    #[test]
    fn unconsumed_apply_binding_is_flagged() {
        let consumed = RelExpr::Apply {
            left: Box::new(RelExpr::scan_as("customer", "c")),
            right: Box::new(RelExpr::Project {
                input: Box::new(RelExpr::Single),
                items: vec![ProjectItem::aliased(E::param("ckey"), "retval")],
                distinct: false,
            }),
            kind: ApplyKind::Cross,
            bindings: vec![ParamBinding::new(
                "ckey",
                E::qualified_column("c", "custkey"),
            )],
        };
        assert!(run(&consumed).is_clean());

        let dangling = RelExpr::Apply {
            left: Box::new(RelExpr::scan_as("customer", "c")),
            right: Box::new(RelExpr::scan("orders")),
            kind: ApplyKind::Cross,
            bindings: vec![ParamBinding::new(
                "ckey",
                E::qualified_column("c", "custkey"),
            )],
        };
        let report = run(&dangling);
        assert_eq!(report.violations.len(), 1);
        match &report.violations[0] {
            Violation::UnconsumedBinding { param, .. } => assert_eq!(param, "ckey"),
            other => panic!("expected unconsumed-binding, got {other:?}"),
        }
    }

    #[test]
    fn unknown_function_and_aggregate_are_flagged() {
        let call = RelExpr::Project {
            input: Box::new(RelExpr::scan("orders")),
            items: vec![ProjectItem::new(E::udf(
                "no_such_fn",
                vec![E::column("orderkey")],
            ))],
            distinct: false,
        };
        let report = run(&call);
        assert_eq!(report.violations[0].name(), "unknown-function");
        // A provider that knows the return type resolves the name without a registry
        // entry.
        let knows = provider().with_udf("no_such_fn", DataType::Int);
        assert!(validate_plan(&call, &knows, &FunctionRegistry::new()).is_clean());

        let agg = RelExpr::Aggregate {
            input: Box::new(RelExpr::scan("orders")),
            group_by: vec![],
            aggregates: vec![AggCall::new(
                AggFunc::UserDefined("no_such_agg".into()),
                vec![E::column("totalprice")],
                "v",
            )],
        };
        let report = run(&agg);
        assert_eq!(report.violations[0].name(), "unknown-aggregate");
    }

    #[test]
    fn aggregate_argument_out_of_scope_is_flagged() {
        let plan = RelExpr::Aggregate {
            input: Box::new(RelExpr::scan("orders")),
            group_by: vec![],
            aggregates: vec![AggCall::new(AggFunc::Sum, vec![E::column("nope")], "v")],
        };
        let report = run(&plan);
        assert_eq!(report.violations.len(), 1);
        match &report.violations[0] {
            Violation::UnresolvedColumn { operator, .. } => assert_eq!(*operator, "Aggregate"),
            other => panic!("expected unresolved-column, got {other:?}"),
        }
    }

    #[test]
    fn free_params_are_tolerated() {
        // A UDF body fragment: its formal parameter is free in the plan.
        let plan = RelExpr::Select {
            input: Box::new(RelExpr::scan("orders")),
            predicate: E::eq(E::column("custkey"), E::param("ckey")),
        };
        assert!(run(&plan).is_clean());
    }

    #[test]
    fn join_resolves_against_both_sides() {
        let plan = RelExpr::Join {
            left: Box::new(RelExpr::scan_as("customer", "c")),
            right: Box::new(RelExpr::scan_as("orders", "o")),
            kind: JoinKind::Inner,
            condition: Some(E::eq(
                E::qualified_column("c", "custkey"),
                E::qualified_column("o", "custkey"),
            )),
        };
        assert!(run(&plan).is_clean());
    }

    #[test]
    fn residual_apply_detection() {
        let apply = RelExpr::Apply {
            left: Box::new(RelExpr::scan("customer")),
            right: Box::new(RelExpr::Single),
            kind: ApplyKind::Cross,
            bindings: vec![],
        };
        let found = check_decorrelated(&apply);
        assert_eq!(found.len(), 1);
        assert_eq!(found[0].name(), "residual-apply");
        assert!(check_decorrelated(&RelExpr::scan("customer")).is_empty());
        // Buried inside a scalar subquery still counts.
        let buried = RelExpr::Select {
            input: Box::new(RelExpr::scan("customer")),
            predicate: E::Exists(Box::new(apply)),
        };
        assert_eq!(check_decorrelated(&buried).len(), 1);
    }

    #[test]
    fn violation_display_names_the_problem() {
        let v = Violation::UnresolvedColumn {
            column: "o.custkey".into(),
            operator: "select",
        };
        let text = v.to_string();
        assert!(text.contains("o.custkey") && text.contains("select"));
        assert_eq!(
            Violation::ResidualApply { operator: "apply" }.name(),
            "residual-apply"
        );
    }
}
