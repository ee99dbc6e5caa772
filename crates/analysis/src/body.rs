//! Transitive UDF body analysis.
//!
//! [`analyze_body`] computes a body's facts over the *transitive closure* of the UDFs
//! it calls: the facts of a function are the union of the facts of everything it can
//! reach through [`UdfCall`]s, resolved against a [`FunctionRegistry`] with a visited
//! set so mutually recursive definitions terminate. The engine consumes the result
//! twice:
//!
//! * at **registration** — a function declared `DETERMINISTIC` whose body
//!   (transitively) calls a `VOLATILE` function is rejected with a diagnostic, and a
//!   function whose purity was merely defaulted is silently downgraded to volatile;
//! * at **memo-epoch construction** — a body with an [exact](BodyFacts::reads_exact)
//!   read set is invalidated per *table set* (any of its tables changing moves the
//!   epoch) instead of on the catalog-wide data generation.
//!
//! [`UdfCall`]: decorr_algebra::ScalarExpr::UdfCall

use std::collections::BTreeSet;

use decorr_algebra::{RelExpr, ScalarExpr};
use decorr_common::normalize_ident;
use decorr_udf::{FunctionRegistry, Statement, UdfDefinition};

/// Inferred volatility of a UDF body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Purity {
    /// Every construct reachable from the body is deterministic: all callees are
    /// registered and pure. Safe to deduplicate and memoize.
    Pure,
    /// The body calls at least one function that is not (yet) registered, so its
    /// volatility cannot be inferred. Callers must not *reject* on this, but must
    /// also not strengthen the declared contract.
    Unknown,
    /// The body (transitively) calls a function registered as volatile.
    Volatile,
}

/// Facts inferred from a UDF body, transitively through called UDFs.
#[derive(Debug, Clone, PartialEq)]
pub struct BodyFacts {
    /// Inferred volatility (see [`Purity`]).
    pub purity: Purity,
    /// Every catalog table the body can read, directly or through any reachable
    /// callee's body (normalized names). Exact only when [`reads_exact`] holds.
    ///
    /// [`reads_exact`]: BodyFacts::reads_exact
    pub table_reads: BTreeSet<String>,
    /// Called UDF names in first-encounter order (direct calls first, then callees'
    /// calls), deduplicated and normalized.
    pub calls: Vec<String>,
    /// True when the body — or any reachable callee's body — executes a SQL query
    /// (`SELECT INTO`, a cursor loop, or a subquery inside an expression).
    pub has_subquery: bool,
    /// True when [`table_reads`](BodyFacts::table_reads) is provably the complete
    /// read set: every reachable callee is registered, so no unregistered body can
    /// hide additional reads. When false, callers must fall back to catalog-wide
    /// invalidation.
    pub reads_exact: bool,
    /// Names of reachable callees registered as volatile — the witnesses behind
    /// [`Purity::Volatile`], used in registration diagnostics.
    pub volatile_calls: Vec<String>,
}

/// Analyzes a UDF definition against a registry (see the [module docs](self)).
///
/// The definition itself does not need to be registered; its *callees* are resolved
/// in `registry`. The root's own declared volatility is deliberately ignored — the
/// result describes what the body *does*, for the caller to compare against what was
/// declared.
pub fn analyze_body(udf: &UdfDefinition, registry: &FunctionRegistry) -> BodyFacts {
    analyze_statements(&udf.body, registry)
}

/// Analyzes a raw statement list (the body of a UDF) against a registry.
pub fn analyze_statements(body: &[Statement], registry: &FunctionRegistry) -> BodyFacts {
    let mut facts = BodyFacts {
        purity: Purity::Pure,
        table_reads: BTreeSet::new(),
        calls: vec![],
        has_subquery: false,
        reads_exact: true,
        volatile_calls: vec![],
    };
    let mut direct = Direct::default();
    for stmt in body {
        direct.statement(stmt);
    }
    facts.table_reads.extend(direct.tables);
    facts.has_subquery |= direct.has_subquery;

    // Worklist over callees with a visited set: cycles (f calls g calls f) terminate
    // because each name is expanded at most once.
    let mut visited: BTreeSet<String> = BTreeSet::new();
    let mut pending = direct.calls;
    while let Some(name) = pending.pop_front() {
        if !visited.insert(name.clone()) {
            continue;
        }
        facts.calls.push(name.clone());
        match registry.udf(&name) {
            Ok(callee) => {
                if !callee.pure {
                    facts.purity = Purity::Volatile;
                    facts.volatile_calls.push(name.clone());
                }
                let mut d = Direct::default();
                for stmt in &callee.body {
                    d.statement(stmt);
                }
                facts.table_reads.extend(d.tables);
                facts.has_subquery |= d.has_subquery;
                pending.extend(d.calls);
            }
            Err(_) => {
                // An unregistered callee may read anything and do anything.
                facts.reads_exact = false;
                if facts.purity == Purity::Pure {
                    facts.purity = Purity::Unknown;
                }
            }
        }
    }
    facts
}

/// Direct (non-transitive) facts of one statement list.
#[derive(Default)]
struct Direct {
    tables: BTreeSet<String>,
    calls: std::collections::VecDeque<String>,
    has_subquery: bool,
}

impl Direct {
    fn statement(&mut self, stmt: &Statement) {
        match stmt {
            Statement::Declare { init, .. } => {
                if let Some(e) = init {
                    self.expr(e);
                }
            }
            Statement::Assign { expr, .. } => self.expr(expr),
            Statement::SelectInto { query, .. } => {
                self.has_subquery = true;
                self.plan(query);
            }
            Statement::If {
                condition,
                then_branch,
                else_branch,
            } => {
                self.expr(condition);
                for s in then_branch.iter().chain(else_branch) {
                    self.statement(s);
                }
            }
            Statement::CursorLoop { query, body, .. } => {
                self.has_subquery = true;
                self.plan(query);
                for s in body {
                    self.statement(s);
                }
            }
            Statement::While { condition, body } => {
                self.expr(condition);
                for s in body {
                    self.statement(s);
                }
            }
            Statement::InsertIntoResult { values } => {
                for v in values {
                    self.expr(v);
                }
            }
            Statement::Return { expr } => {
                if let Some(e) = expr {
                    self.expr(e);
                }
            }
        }
    }

    fn plan(&mut self, plan: &RelExpr) {
        if let RelExpr::Scan { table, .. } = plan {
            self.tables.insert(normalize_ident(table));
        }
        for e in plan.expressions() {
            self.expr(e);
        }
        for c in plan.children() {
            self.plan(c);
        }
    }

    fn expr(&mut self, expr: &ScalarExpr) {
        match expr {
            ScalarExpr::UdfCall { name, args } => {
                self.calls.push_back(normalize_ident(name));
                for a in args {
                    self.expr(a);
                }
            }
            ScalarExpr::ScalarSubquery(q) | ScalarExpr::Exists(q) => {
                self.has_subquery = true;
                self.plan(q);
            }
            ScalarExpr::InSubquery { expr, subquery, .. } => {
                self.has_subquery = true;
                self.expr(expr);
                self.plan(subquery);
            }
            other => {
                for c in other.children() {
                    self.expr(c);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_algebra::ScalarExpr as E;
    use decorr_common::DataType;
    use decorr_udf::UdfParameter;

    fn udf(name: &str, body: Vec<Statement>) -> UdfDefinition {
        UdfDefinition::new(
            name,
            vec![UdfParameter::new("x", DataType::Int)],
            DataType::Int,
            body,
        )
    }

    fn returning(expr: ScalarExpr) -> Vec<Statement> {
        vec![Statement::Return { expr: Some(expr) }]
    }

    fn select_into(table: &str) -> Statement {
        Statement::SelectInto {
            query: RelExpr::scan(table),
            targets: vec!["v".into()],
        }
    }

    #[test]
    fn pure_arithmetic_body_has_empty_exact_reads() {
        let f = udf("f", returning(E::param("x")));
        let facts = analyze_body(&f, &FunctionRegistry::new());
        assert_eq!(facts.purity, Purity::Pure);
        assert!(facts.table_reads.is_empty());
        assert!(facts.reads_exact);
        assert!(!facts.has_subquery);
        assert!(facts.calls.is_empty());
    }

    #[test]
    fn direct_reads_are_collected() {
        let f = udf(
            "f",
            vec![select_into("orders"), Statement::Return { expr: None }],
        );
        let facts = analyze_body(&f, &FunctionRegistry::new());
        assert_eq!(
            facts.table_reads,
            ["orders".to_string()].into_iter().collect()
        );
        assert!(facts.has_subquery);
        assert!(facts.reads_exact);
    }

    #[test]
    fn callee_reads_are_merged_transitively() {
        // f calls g; g reads lineitem; f itself reads orders.
        let mut registry = FunctionRegistry::new();
        registry.register_udf(udf(
            "g",
            vec![select_into("lineitem"), Statement::Return { expr: None }],
        ));
        let f = udf(
            "f",
            vec![
                select_into("orders"),
                Statement::Return {
                    expr: Some(E::udf("g", vec![E::param("x")])),
                },
            ],
        );
        let facts = analyze_body(&f, &registry);
        assert_eq!(facts.purity, Purity::Pure);
        assert!(facts.reads_exact);
        assert_eq!(facts.calls, vec!["g".to_string()]);
        let expected: BTreeSet<String> = ["orders".to_string(), "lineitem".to_string()].into();
        assert_eq!(facts.table_reads, expected);
    }

    #[test]
    fn volatile_callee_makes_purity_volatile_transitively() {
        // f calls g, g calls v, v is volatile — two hops away.
        let mut registry = FunctionRegistry::new();
        let mut v = udf("v", returning(E::param("x")));
        v.pure = false;
        registry.register_udf(v);
        registry.register_udf(udf("g", returning(E::udf("v", vec![E::param("x")]))));
        let f = udf("f", returning(E::udf("g", vec![E::param("x")])));
        let facts = analyze_body(&f, &registry);
        assert_eq!(facts.purity, Purity::Volatile);
        assert_eq!(facts.volatile_calls, vec!["v".to_string()]);
        assert_eq!(facts.calls, vec!["g".to_string(), "v".to_string()]);
    }

    #[test]
    fn unknown_callee_is_unknown_purity_and_inexact_reads() {
        let f = udf("f", returning(E::udf("mystery", vec![E::param("x")])));
        let facts = analyze_body(&f, &FunctionRegistry::new());
        assert_eq!(facts.purity, Purity::Unknown);
        assert!(!facts.reads_exact);
        assert_eq!(facts.calls, vec!["mystery".to_string()]);
    }

    #[test]
    fn mutual_recursion_terminates() {
        let mut registry = FunctionRegistry::new();
        registry.register_udf(udf("a", returning(E::udf("b", vec![E::param("x")]))));
        registry.register_udf(udf(
            "b",
            vec![
                select_into("orders"),
                Statement::Return {
                    expr: Some(E::udf("a", vec![E::param("x")])),
                },
            ],
        ));
        let a = registry.udf("a").unwrap().clone();
        let facts = analyze_body(&a, &registry);
        assert_eq!(facts.purity, Purity::Pure);
        assert!(facts.reads_exact);
        assert_eq!(
            facts.table_reads,
            ["orders".to_string()].into_iter().collect()
        );
        // Both names appear once despite the cycle.
        assert_eq!(facts.calls, vec!["b".to_string(), "a".to_string()]);
    }

    #[test]
    fn subquery_inside_expression_counts_and_reads() {
        let body = returning(E::ScalarSubquery(Box::new(RelExpr::scan("probes"))));
        let facts = analyze_statements(&body, &FunctionRegistry::new());
        assert!(facts.has_subquery);
        assert_eq!(
            facts.table_reads,
            ["probes".to_string()].into_iter().collect()
        );
    }
}
