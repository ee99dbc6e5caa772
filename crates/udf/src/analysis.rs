//! Read/write-set analysis and the data dependence graph (DDG) of Section VII-A.

use std::collections::HashSet;

use decorr_algebra::visit::free_params;
use decorr_algebra::ScalarExpr;

use crate::ast::Statement;

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
    match stmt {
        Statement::Declare { init, .. } => {
            if let Some(e) = init {
                expr_reads(e, known_vars, out);
            }
        }
        Statement::Assign { expr, .. } => expr_reads(expr, known_vars, out),
        Statement::SelectInto { query, .. } => {
            for p in free_params(query) {
                if known_vars.contains(&p) {
                    out.insert(p);
                }
            }
        }
        Statement::If {
            condition,
            then_branch,
            else_branch,
        } => {
            expr_reads(condition, known_vars, out);
            for s in then_branch.iter().chain(else_branch) {
                collect_reads(s, known_vars, out);
            }
        }
        Statement::CursorLoop { query, body, .. } => {
            for p in free_params(query) {
                if known_vars.contains(&p) {
                    out.insert(p);
                }
            }
            for s in body {
                collect_reads(s, known_vars, out);
            }
        }
        Statement::While { condition, body } => {
            expr_reads(condition, known_vars, out);
            for s in body {
                collect_reads(s, known_vars, out);
            }
        }
        Statement::InsertIntoResult { values } => {
            for v in values {
                expr_reads(v, known_vars, out);
            }
        }
        Statement::Return { expr } => {
            if let Some(e) = expr {
                expr_reads(e, known_vars, out);
            }
        }
    }
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
        Statement::SelectInto { targets, .. } => {
            out.extend(targets.iter().cloned());
        }
        Statement::If {
            then_branch,
            else_branch,
            ..
        } => {
            for s in then_branch.iter().chain(else_branch) {
                collect_writes(s, out);
            }
        }
        Statement::CursorLoop {
            fetch_vars, body, ..
        } => {
            out.extend(fetch_vars.iter().cloned());
            for s in body {
                collect_writes(s, out);
            }
        }
        Statement::While { body, .. } => {
            for s in body {
                collect_writes(s, out);
            }
        }
        Statement::InsertIntoResult { .. } | Statement::Return { .. } => {}
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
}
