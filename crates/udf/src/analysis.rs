//! UDF body analysis: the read/write sets of statements and the data dependence graph
//! (DDG) of Section VII-A, and the transitive facts registration derives from a body
//! ([`analyze_body`]: the tables it reads, the volatile functions it reaches).

use std::collections::{BTreeSet, HashSet, VecDeque};

use decorr_algebra::visit::free_params;
use decorr_algebra::{RelExpr, ScalarExpr};
use decorr_common::normalize_ident;

use crate::ast::{Statement, UdfDefinition};
use crate::registry::FunctionRegistry;

/// Collects the names of variables *read* by an expression, restricted to `known_vars`.
///
/// Variable references appear either as parameters (`:x`, `@x`) or as bare unqualified
/// identifiers, so both forms are considered; references inside nested subquery plans are
/// included via free-parameter analysis.
pub fn expr_reads(expr: &ScalarExpr, known_vars: &HashSet<String>, out: &mut HashSet<String>) {
    match expr {
        ScalarExpr::Param(p) => {
            if known_vars.contains(p) {
                out.insert(p.clone());
            }
        }
        ScalarExpr::Column(c) => {
            if c.qualifier.is_none() && known_vars.contains(&c.name) {
                out.insert(c.name.clone());
            }
        }
        ScalarExpr::ScalarSubquery(q) | ScalarExpr::Exists(q) => {
            for p in free_params(q) {
                if known_vars.contains(&p) {
                    out.insert(p);
                }
            }
            for c in decorr_algebra::visit::free_column_refs(q, &decorr_algebra::EmptyProvider) {
                if c.qualifier.is_none() && known_vars.contains(&c.name) {
                    out.insert(c.name);
                }
            }
        }
        ScalarExpr::InSubquery { expr, subquery, .. } => {
            expr_reads(expr, known_vars, out);
            for p in free_params(subquery) {
                if known_vars.contains(&p) {
                    out.insert(p);
                }
            }
        }
        other => {
            for c in other.children() {
                expr_reads(c, known_vars, out);
            }
        }
    }
}

/// Variables read by a statement (recursively through nested blocks).
pub fn statement_reads(stmt: &Statement, known_vars: &HashSet<String>) -> HashSet<String> {
    let mut out = HashSet::new();
    collect_reads(stmt, known_vars, &mut out);
    out
}

fn collect_reads(stmt: &Statement, known_vars: &HashSet<String>, out: &mut HashSet<String>) {
    if let Some(query) = stmt.query() {
        out.extend(
            free_params(query)
                .into_iter()
                .filter(|p| known_vars.contains(p)),
        );
    }
    stmt.for_each_expr(&mut |e| expr_reads(e, known_vars, out));
    stmt.for_each_block(&mut |block| {
        for s in block {
            collect_reads(s, known_vars, out);
        }
    });
}

/// Variables written by a statement (recursively through nested blocks).
pub fn statement_writes(stmt: &Statement) -> HashSet<String> {
    let mut out = HashSet::new();
    collect_writes(stmt, &mut out);
    out
}

fn collect_writes(stmt: &Statement, out: &mut HashSet<String>) {
    match stmt {
        Statement::Declare { name, .. } | Statement::Assign { name, .. } => {
            out.insert(name.clone());
        }
        Statement::SelectInto { targets, .. }
        | Statement::CursorLoop {
            fetch_vars: targets,
            ..
        } => out.extend(targets.iter().cloned()),
        _ => {}
    }
    stmt.for_each_block(&mut |block| {
        for s in block {
            collect_writes(s, out);
        }
    });
}

/// Facts inferred from a UDF body, transitively through the UDFs it calls.
#[derive(Debug, Clone, PartialEq)]
pub struct BodyFacts {
    /// Every table the body can read, directly or through any reachable callee's body,
    /// sorted. `None` is an open set: some reachable callee is not registered, so its
    /// reads are unknown.
    pub reads: Option<Vec<String>>,
    /// Reachable callees registered as volatile, in discovery order: the body is
    /// volatile exactly when this is non-empty.
    pub volatile_calls: Vec<String>,
}

/// Analyzes a UDF body over the *transitive closure* of the UDFs it calls, resolved in
/// `registry` with a visited set so mutually recursive definitions terminate.
///
/// The definition itself need not be registered, and its own declared volatility is
/// ignored: the result describes what the body *does*. Registration consumes it twice:
/// [`FunctionRegistry::register_udf`] keeps every record's read set (the memo epoch's
/// table set) current with it, and the engine refuses a body declared `DETERMINISTIC`
/// that reaches a volatile callee.
pub fn analyze_body(udf: &UdfDefinition, registry: &FunctionRegistry) -> BodyFacts {
    let mut direct = Direct::default();
    direct.block(&udf.body);
    let mut reads_exact = true;
    let mut volatile_calls = vec![];
    // Worklist over callees: cycles (f calls g calls f) terminate because each name is
    // expanded at most once.
    let mut visited = BTreeSet::new();
    while let Some(name) = direct.calls.pop_front() {
        if !visited.insert(name.clone()) {
            continue;
        }
        match registry.udf(&name) {
            Ok(callee) => {
                if !callee.pure {
                    volatile_calls.push(name);
                }
                direct.block(&callee.body);
            }
            // An unregistered callee may read anything.
            Err(_) => reads_exact = false,
        }
    }
    BodyFacts {
        reads: reads_exact.then(|| direct.tables.into_iter().collect()),
        volatile_calls,
    }
}

/// The normalized names of the UDFs `plan` invokes directly, in its subqueries too
/// (not transitively through their bodies).
pub fn plan_calls(plan: &RelExpr) -> BTreeSet<String> {
    let mut direct = Direct::default();
    direct.plan(plan);
    direct.calls.into_iter().collect()
}

/// The tables statement lists scan and the UDFs they call, not transitively.
#[derive(Default)]
struct Direct {
    tables: BTreeSet<String>,
    calls: VecDeque<String>,
}

impl Direct {
    fn block(&mut self, stmts: &[Statement]) {
        for stmt in stmts {
            if let Some(query) = stmt.query() {
                self.plan(query);
            }
            stmt.for_each_expr(&mut |e| self.expr(e));
            stmt.for_each_block(&mut |b| self.block(b));
        }
    }

    fn plan(&mut self, plan: &RelExpr) {
        if let RelExpr::Scan { table, .. } = plan {
            self.tables.insert(normalize_ident(table));
        }
        plan.for_each_expr(&mut |e| self.expr(e));
        plan.for_each_child(&mut |c| self.plan(c));
    }

    fn expr(&mut self, expr: &ScalarExpr) {
        if let ScalarExpr::UdfCall { name, .. } = expr {
            self.calls.push_back(normalize_ident(name));
        }
        expr.for_each_child(&mut |c| self.expr(c));
        if let ScalarExpr::ScalarSubquery(q)
        | ScalarExpr::Exists(q)
        | ScalarExpr::InSubquery { subquery: q, .. } = expr
        {
            self.plan(q);
        }
    }
}

/// The data dependence graph over the statements of a loop body.
///
/// Because statements execute repeatedly, a dependence edge `i → j` exists whenever
/// statement `i` writes a variable that statement `j` reads, regardless of textual order
/// (a later-to-earlier dependence is carried by the loop's back edge). A statement
/// participates in a *cycle* of data dependences iff it can reach itself through such
/// edges — e.g. `total_loss = total_loss - profit` in the paper's Example 5.
#[derive(Debug, Clone)]
pub struct DataDependenceGraph {
    n: usize,
    /// Adjacency: `edges[i]` holds the targets of dependence edges out of statement `i`.
    edges: Vec<Vec<usize>>,
}

impl DataDependenceGraph {
    /// Builds the DDG of a loop body. `known_vars` is the full set of variables in scope
    /// (locals, formal parameters and cursor fetch variables).
    pub fn build(stmts: &[Statement], known_vars: &HashSet<String>) -> DataDependenceGraph {
        let n = stmts.len();
        let reads: Vec<HashSet<String>> = stmts
            .iter()
            .map(|s| statement_reads(s, known_vars))
            .collect();
        let writes: Vec<HashSet<String>> = stmts.iter().map(statement_writes).collect();
        let mut edges = vec![vec![]; n];
        for i in 0..n {
            for (j, read) in reads.iter().enumerate() {
                if writes[i].iter().any(|v| read.contains(v)) && !edges[i].contains(&j) {
                    edges[i].push(j);
                }
            }
        }
        DataDependenceGraph { n, edges }
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Dependence successors of statement `i`.
    pub fn successors(&self, i: usize) -> &[usize] {
        &self.edges[i]
    }

    /// True if statement `i` lies on a cycle of data dependences (can reach itself).
    pub fn in_cycle(&self, i: usize) -> bool {
        // DFS from i's successors looking for i.
        let mut visited = vec![false; self.n];
        let mut stack: Vec<usize> = self.edges[i].clone();
        while let Some(node) = stack.pop() {
            if node == i {
                return true;
            }
            if !visited[node] {
                visited[node] = true;
                stack.extend(self.edges[node].iter().copied());
            }
        }
        false
    }

    /// Index of the first statement (textual order) that is part of a dependence cycle —
    /// the paper's `Li`. `None` if the loop body has no cyclic dependences.
    pub fn first_cyclic_node(&self) -> Option<usize> {
        (0..self.n).find(|&i| self.in_cycle(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_algebra::{BinaryOp, ScalarExpr as E};

    fn vars(names: &[&str]) -> HashSet<String> {
        names.iter().map(|s| s.to_string()).collect()
    }

    /// The loop body of the paper's Example 5:
    ///   profit = (@price - @disc) - (cost * @qty);
    ///   if (profit < 0) total_loss = total_loss - profit;
    fn example5_body() -> Vec<Statement> {
        vec![
            Statement::Assign {
                name: "profit".into(),
                expr: E::binary(
                    BinaryOp::Sub,
                    E::binary(BinaryOp::Sub, E::param("@price"), E::param("@disc")),
                    E::binary(BinaryOp::Mul, E::param("cost"), E::param("@qty")),
                ),
            },
            Statement::If {
                condition: E::lt(E::param("profit"), E::literal(0)),
                then_branch: vec![Statement::Assign {
                    name: "total_loss".into(),
                    expr: E::binary(BinaryOp::Sub, E::param("total_loss"), E::param("profit")),
                }],
                else_branch: vec![],
            },
        ]
    }

    #[test]
    fn read_write_sets() {
        let known = vars(&["profit", "total_loss", "cost", "@price", "@disc", "@qty"]);
        let body = example5_body();
        let reads0 = statement_reads(&body[0], &known);
        assert!(reads0.contains("@price") && reads0.contains("cost"));
        assert!(!reads0.contains("profit"));
        assert_eq!(statement_writes(&body[0]), vars(&["profit"]));
        let reads1 = statement_reads(&body[1], &known);
        assert!(reads1.contains("profit") && reads1.contains("total_loss"));
        assert_eq!(statement_writes(&body[1]), vars(&["total_loss"]));
    }

    #[test]
    fn example5_has_cycle_starting_at_the_if() {
        let known = vars(&["profit", "total_loss", "cost", "@price", "@disc", "@qty"]);
        let ddg = DataDependenceGraph::build(&example5_body(), &known);
        // Statement 0 (profit = …) is not cyclic; statement 1 (the if block) is, because
        // total_loss is both read and written by it.
        assert!(!ddg.in_cycle(0));
        assert!(ddg.in_cycle(1));
        assert_eq!(ddg.first_cyclic_node(), Some(1));
    }

    #[test]
    fn acyclic_body_has_no_cycles() {
        let known = vars(&["a", "b", "@x"]);
        let body = vec![
            Statement::Assign {
                name: "a".into(),
                expr: E::param("@x"),
            },
            Statement::Assign {
                name: "b".into(),
                expr: E::param("a"),
            },
        ];
        let ddg = DataDependenceGraph::build(&body, &known);
        assert_eq!(ddg.first_cyclic_node(), None);
        assert_eq!(ddg.successors(0), &[1]);
    }

    #[test]
    fn mutual_dependence_across_statements_is_a_cycle() {
        // a = b; b = a;  →  both are in a cycle (carried by the loop back edge).
        let known = vars(&["a", "b"]);
        let body = vec![
            Statement::Assign {
                name: "a".into(),
                expr: E::param("b"),
            },
            Statement::Assign {
                name: "b".into(),
                expr: E::param("a"),
            },
        ];
        let ddg = DataDependenceGraph::build(&body, &known);
        assert_eq!(ddg.first_cyclic_node(), Some(0));
        assert!(ddg.in_cycle(1));
    }

    #[test]
    fn select_into_reads_free_params_of_query() {
        let known = vars(&["cur", "total"]);
        let stmt = Statement::SelectInto {
            query: decorr_algebra::RelExpr::Select {
                input: Box::new(decorr_algebra::RelExpr::scan("categories")),
                predicate: E::eq(E::column("categorykey"), E::param("cur")),
            },
            targets: vec!["total".into()],
        };
        let reads = statement_reads(&stmt, &known);
        assert!(reads.contains("cur"));
        assert_eq!(statement_writes(&stmt), vars(&["total"]));
    }

    fn udf(name: &str, body: Vec<Statement>) -> UdfDefinition {
        UdfDefinition::new(
            name,
            vec![crate::UdfParameter::new("x", decorr_common::DataType::Int)],
            decorr_common::DataType::Int,
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

    fn tables(names: &[&str]) -> Option<Vec<String>> {
        Some(names.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn a_body_reads_what_it_and_its_callees_scan() {
        let f = udf("f", returning(E::param("x")));
        let facts = analyze_body(&f, &FunctionRegistry::new());
        assert_eq!(facts.reads, tables(&[]));
        assert!(facts.volatile_calls.is_empty());
        // f reads orders and calls g; g reads lineitem.
        let mut registry = FunctionRegistry::new();
        registry.register_udf(udf("g", vec![select_into("lineitem")]));
        let f = udf(
            "f",
            vec![
                select_into("orders"),
                Statement::Return {
                    expr: Some(E::udf("g", vec![E::param("x")])),
                },
            ],
        );
        assert_eq!(
            analyze_body(&f, &registry).reads,
            tables(&["lineitem", "orders"])
        );
        // A subquery inside an expression reads too.
        let probe = udf(
            "p",
            returning(E::ScalarSubquery(Box::new(RelExpr::scan("probes")))),
        );
        assert_eq!(analyze_body(&probe, &registry).reads, tables(&["probes"]));
    }

    #[test]
    fn a_volatile_callee_two_calls_away_is_the_witness() {
        let mut registry = FunctionRegistry::new();
        let mut v = udf("v", returning(E::param("x")));
        v.pure = false;
        registry.register_udf(v);
        registry.register_udf(udf("g", returning(E::udf("v", vec![E::param("x")]))));
        let f = udf("f", returning(E::udf("g", vec![E::param("x")])));
        let facts = analyze_body(&f, &registry);
        assert_eq!(facts.volatile_calls, ["v"]);
        assert_eq!(facts.reads, tables(&[]));
    }

    #[test]
    fn an_unknown_callee_opens_the_read_set() {
        let f = udf("f", returning(E::udf("mystery", vec![E::param("x")])));
        let facts = analyze_body(&f, &FunctionRegistry::new());
        assert_eq!(facts.reads, None);
        assert!(facts.volatile_calls.is_empty());
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
        assert_eq!(analyze_body(&a, &registry).reads, tables(&["orders"]));
        assert_eq!(registry.record("a").unwrap().reads, tables(&["orders"]));
    }
}
