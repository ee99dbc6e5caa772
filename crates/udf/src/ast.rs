//! Procedural AST for UDF bodies.

use std::fmt;

use decorr_algebra::{RelExpr, ScalarExpr};
use decorr_common::{normalize_ident, DataType, Schema, Value};

/// A formal parameter of a UDF or user-defined aggregate.
#[derive(Debug, Clone, PartialEq)]
pub struct UdfParameter {
    pub name: String,
    pub data_type: DataType,
}

impl UdfParameter {
    pub fn new(name: impl Into<String>, data_type: DataType) -> UdfParameter {
        UdfParameter {
            name: normalize_ident(&name.into()),
            data_type,
        }
    }
}

impl fmt::Display for UdfParameter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.data_type, self.name)
    }
}

/// A single statement of a UDF body.
///
/// The parser desugars the verbose cursor pattern of the paper's Example 5
/// (`declare cursor` / `open` / `fetch next … into` / `while @@fetch_status = 0` /
/// `close` / `deallocate`) into a single [`Statement::CursorLoop`], which is both what
/// the interpreter executes and what the Section VII algebraization consumes.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `declare x int;` or `int x = expr;`
    Declare {
        name: String,
        data_type: DataType,
        init: Option<ScalarExpr>,
    },
    /// `x = expr;` — the expression may contain scalar subqueries and UDF calls.
    Assign { name: String, expr: ScalarExpr },
    /// `select e1, e2 into :v1, :v2 from …` — a scalar query whose single result row is
    /// assigned to the target variables.
    SelectInto {
        query: RelExpr,
        targets: Vec<String>,
    },
    /// `if (cond) … else …`
    If {
        condition: ScalarExpr,
        then_branch: Vec<Statement>,
        else_branch: Vec<Statement>,
    },
    /// A cursor loop: iterate over `query`, binding each row's columns to `fetch_vars`
    /// and executing `body`.
    CursorLoop {
        query: RelExpr,
        fetch_vars: Vec<String>,
        body: Vec<Statement>,
    },
    /// An arbitrary `while (cond) …` loop (dynamic iteration space). Executable by the
    /// interpreter; not decorrelatable (Section VII-C).
    While {
        condition: ScalarExpr,
        body: Vec<Statement>,
    },
    /// `insert into <result table> values (…)` inside a table-valued UDF.
    InsertIntoResult { values: Vec<ScalarExpr> },
    /// `return expr;` (scalar UDFs) or `return;` / `return tt;` (table-valued UDFs).
    Return { expr: Option<ScalarExpr> },
}

impl Statement {
    /// Short operator-like name for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Statement::Declare { .. } => "declare",
            Statement::Assign { .. } => "assign",
            Statement::SelectInto { .. } => "select-into",
            Statement::If { .. } => "if",
            Statement::CursorLoop { .. } => "cursor-loop",
            Statement::While { .. } => "while",
            Statement::InsertIntoResult { .. } => "insert-into-result",
            Statement::Return { .. } => "return",
        }
    }

    /// Calls `f` on each nested statement block, in order: an `if`'s then and else
    /// branches, a loop's body. With [`Statement::for_each_block_mut`], the only
    /// enumeration of a statement's blocks.
    pub fn for_each_block<'a>(&'a self, f: &mut impl FnMut(&'a [Statement])) {
        match self {
            Statement::If {
                then_branch,
                else_branch,
                ..
            } => {
                f(then_branch);
                f(else_branch);
            }
            Statement::CursorLoop { body, .. } | Statement::While { body, .. } => f(body),
            _ => {}
        }
    }

    /// [`Statement::for_each_block`], handing each block out mutably.
    pub fn for_each_block_mut(&mut self, f: &mut impl FnMut(&mut [Statement])) {
        match self {
            Statement::If {
                then_branch,
                else_branch,
                ..
            } => {
                f(then_branch);
                f(else_branch);
            }
            Statement::CursorLoop { body, .. } | Statement::While { body, .. } => f(body),
            _ => {}
        }
    }

    /// Calls `f` on each scalar expression the statement owns directly (not those of its
    /// blocks), in order: a declaration's initializer, an assigned value, an `if`'s or
    /// `while`'s condition, the inserted values, the returned value.
    pub fn for_each_expr<'a>(&'a self, f: &mut impl FnMut(&'a ScalarExpr)) {
        match self {
            Statement::Declare { init: expr, .. } | Statement::Return { expr } => {
                expr.iter().for_each(f)
            }
            Statement::Assign { expr, .. }
            | Statement::If {
                condition: expr, ..
            }
            | Statement::While {
                condition: expr, ..
            } => f(expr),
            Statement::InsertIntoResult { values } => values.iter().for_each(f),
            Statement::SelectInto { .. } | Statement::CursorLoop { .. } => {}
        }
    }

    /// The query a `SELECT … INTO` or a cursor loop runs.
    pub fn query(&self) -> Option<&RelExpr> {
        match self {
            Statement::SelectInto { query, .. } | Statement::CursorLoop { query, .. } => {
                Some(query)
            }
            _ => None,
        }
    }

    /// True if the statement (recursively) contains a loop.
    pub fn contains_loop(&self) -> bool {
        let mut found = matches!(self, Statement::CursorLoop { .. } | Statement::While { .. });
        self.for_each_block(&mut |b| found |= b.iter().any(Statement::contains_loop));
        found
    }

    /// True if the statement (recursively) executes a SQL query (scalar subquery,
    /// `SELECT INTO`, or a cursor query).
    pub fn contains_query(&self) -> bool {
        let mut found = self.query().is_some();
        self.for_each_expr(&mut |e| found |= e.contains_subquery());
        self.for_each_block(&mut |b| found |= b.iter().any(Statement::contains_query));
        found
    }
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::Declare {
                name,
                data_type,
                init,
            } => match init {
                Some(e) => write!(f, "{data_type} {name} = {e};"),
                None => write!(f, "{data_type} {name};"),
            },
            Statement::Assign { name, expr } => write!(f, "{name} = {expr};"),
            Statement::SelectInto { targets, .. } => {
                write!(f, "select … into {};", targets.join(", "))
            }
            Statement::If { condition, .. } => write!(f, "if ({condition}) …"),
            Statement::CursorLoop { fetch_vars, .. } => {
                write!(f, "cursor loop into ({})", fetch_vars.join(", "))
            }
            Statement::While { condition, .. } => write!(f, "while ({condition}) …"),
            Statement::InsertIntoResult { values } => {
                let parts: Vec<String> = values.iter().map(|v| v.to_string()).collect();
                write!(f, "insert into result values ({});", parts.join(", "))
            }
            Statement::Return { expr } => match expr {
                Some(e) => write!(f, "return {e};"),
                None => write!(f, "return;"),
            },
        }
    }
}

/// A complete user-defined function definition.
#[derive(Debug, Clone, PartialEq)]
pub struct UdfDefinition {
    pub name: String,
    pub params: Vec<UdfParameter>,
    /// Return type for scalar UDFs.
    pub return_type: DataType,
    /// For table-valued UDFs: the schema of the returned table (and `return_type` is
    /// ignored).
    pub returns_table: Option<Schema>,
    pub body: Vec<Statement>,
    /// Original source text, if the UDF came from the parser (used when printing the
    /// "original query + UDF definition" side of the experiments).
    pub source: Option<String>,
    /// The purity contract, declared at registration time: a pure UDF returns the same
    /// result for the same arguments as long as the registry and catalog are
    /// unchanged, so the executor may deduplicate and memoize its invocations. Every
    /// construct the interpreter offers (arithmetic, control flow, embedded queries
    /// over catalog tables) is deterministic, so UDFs default to pure; declare
    /// `VOLATILE` in `CREATE FUNCTION` to opt out and force one evaluation per row.
    pub pure: bool,
    /// True when the registration spelled out a volatility clause (`VOLATILE` or
    /// `DETERMINISTIC`) rather than inheriting the default. An *explicit*
    /// `DETERMINISTIC` that contradicts the body's inferred volatility is rejected at
    /// registration; an inherited default is silently downgraded instead.
    pub purity_declared: bool,
}

impl UdfDefinition {
    pub fn new(
        name: impl Into<String>,
        params: Vec<UdfParameter>,
        return_type: DataType,
        body: Vec<Statement>,
    ) -> UdfDefinition {
        UdfDefinition {
            name: normalize_ident(&name.into()),
            params,
            return_type,
            returns_table: None,
            body,
            source: None,
            pure: true,
            purity_declared: false,
        }
    }

    pub fn is_table_valued(&self) -> bool {
        self.returns_table.is_some()
    }

    /// Names of the formal parameters, in order.
    pub fn param_names(&self) -> Vec<String> {
        self.params.iter().map(|p| p.name.clone()).collect()
    }

    /// All local variables declared anywhere in the body (including nested blocks).
    pub fn declared_variables(&self) -> Vec<(String, DataType)> {
        fn walk(stmts: &[Statement], out: &mut Vec<(String, DataType)>) {
            for s in stmts {
                if let Statement::Declare {
                    name, data_type, ..
                } = s
                {
                    if !out.iter().any(|(n, _)| n == name) {
                        out.push((name.clone(), *data_type));
                    }
                }
                s.for_each_block(&mut |b| walk(b, out));
            }
        }
        let mut out = vec![];
        walk(&self.body, &mut out);
        out
    }
}

/// A user-defined aggregate function: either written by the user or synthesised by the
/// Section VII rewrite (the paper's `aux-agg()`, Example 6).
///
/// The executor evaluates it with the standard initialize / accumulate / terminate
/// protocol of user-defined aggregates: `state` is initialised from the literal initial
/// values, `accumulate` runs once per input row with the declared parameters bound to the
/// aggregate's arguments, and `terminate` is an expression over the state variables.
#[derive(Debug, Clone, PartialEq)]
pub struct AggregateDefinition {
    pub name: String,
    /// State variables: name, type and statically-determined initial value.
    pub state: Vec<(String, DataType, Value)>,
    /// Parameters of the accumulate step (the attributes the loop body "uses but does
    /// not modify").
    pub params: Vec<UdfParameter>,
    /// Statements executed for every input row (over state variables and parameters).
    pub accumulate: Vec<Statement>,
    /// Result expression over the final state.
    pub terminate: ScalarExpr,
    pub return_type: DataType,
}

impl fmt::Display for AggregateDefinition {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "aggregate {}(", self.name)?;
        for p in &self.params {
            writeln!(f, "    {p},")?;
        }
        writeln!(f, ")")?;
        writeln!(f, "state:")?;
        for (n, t, v) in &self.state {
            writeln!(f, "    {t} {n} = {v};")?;
        }
        writeln!(f, "accumulate:")?;
        for s in &self.accumulate {
            writeln!(f, "    {s}")?;
        }
        write!(f, "terminate: return {};", self.terminate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_algebra::ScalarExpr as E;

    /// Builds the body of the paper's Example 1 `service_level` UDF programmatically.
    pub fn service_level_body() -> Vec<Statement> {
        vec![
            Statement::Declare {
                name: "totalbusiness".into(),
                data_type: DataType::Float,
                init: None,
            },
            Statement::Declare {
                name: "level".into(),
                data_type: DataType::Str,
                init: None,
            },
            Statement::SelectInto {
                query: RelExpr::Aggregate {
                    input: Box::new(RelExpr::Select {
                        input: Box::new(RelExpr::scan("orders")),
                        predicate: E::eq(E::column("custkey"), E::param("ckey")),
                    }),
                    group_by: vec![],
                    aggregates: vec![decorr_algebra::AggCall::new(
                        decorr_algebra::AggFunc::Sum,
                        vec![E::column("totalprice")],
                        "v",
                    )],
                },
                targets: vec!["totalbusiness".into()],
            },
            Statement::If {
                condition: E::gt(E::param("totalbusiness"), E::literal(1_000_000)),
                then_branch: vec![Statement::Assign {
                    name: "level".into(),
                    expr: E::literal("Platinum"),
                }],
                else_branch: vec![Statement::If {
                    condition: E::gt(E::param("totalbusiness"), E::literal(500_000)),
                    then_branch: vec![Statement::Assign {
                        name: "level".into(),
                        expr: E::literal("Gold"),
                    }],
                    else_branch: vec![Statement::Assign {
                        name: "level".into(),
                        expr: E::literal("Regular"),
                    }],
                }],
            },
            Statement::Return {
                expr: Some(E::param("level")),
            },
        ]
    }

    #[test]
    fn udf_definition_queries_and_vars() {
        let udf = UdfDefinition::new(
            "service_level",
            vec![UdfParameter::new("ckey", DataType::Int)],
            DataType::Str,
            service_level_body(),
        );
        assert!(!udf.is_table_valued());
        assert_eq!(udf.param_names(), vec!["ckey".to_string()]);
        assert_eq!(
            udf.declared_variables(),
            vec![
                ("totalbusiness".to_string(), DataType::Float),
                ("level".to_string(), DataType::Str)
            ]
        );
    }

    #[test]
    fn statement_classification() {
        let s = Statement::Assign {
            name: "x".into(),
            expr: E::literal(1),
        };
        assert_eq!(s.kind(), "assign");
        assert!(!s.contains_loop());
        assert!(!s.contains_query());

        let loop_stmt = Statement::CursorLoop {
            query: RelExpr::scan("lineitem"),
            fetch_vars: vec!["price".into()],
            body: vec![],
        };
        assert!(loop_stmt.contains_loop());
        assert!(loop_stmt.contains_query());

        let nested = Statement::If {
            condition: E::literal(true),
            then_branch: vec![loop_stmt],
            else_branch: vec![],
        };
        assert!(nested.contains_loop());
    }

    #[test]
    fn display_forms() {
        let s = Statement::Declare {
            name: "total".into(),
            data_type: DataType::Int,
            init: Some(E::literal(0)),
        };
        assert_eq!(s.to_string(), "int total = 0;");
        let r = Statement::Return {
            expr: Some(E::param("level")),
        };
        assert_eq!(r.to_string(), "return :level;");
    }

    /// Every `RelExpr` and `Statement` variant, its children (blocks) numbered `c0…` and
    /// its expressions `:e0…` in the documented order: the borrowing and `_mut`
    /// traversals visit each slot once, in that order, and the `_mut` ones reach the
    /// slots themselves.
    #[test]
    fn traversals_visit_every_slot_once_in_order() {
        use decorr_algebra::plan::{MergeAssignment, ParamBinding, ProjectItem, SortKey};
        use decorr_algebra::{AggCall, AggFunc, ApplyKind, JoinKind};
        let c = |i: usize| Box::new(RelExpr::scan(format!("c{i}")));
        let e = |i: usize| E::param(format!("e{i}"));
        let item = |i: usize| ProjectItem::new(e(i));
        let key = |i: usize| SortKey {
            expr: e(i),
            ascending: true,
        };
        let plans = vec![
            (RelExpr::Single, 0, 0),
            (RelExpr::scan("t"), 0, 0),
            (
                RelExpr::Values {
                    schema: Schema::empty(),
                    rows: vec![vec![]],
                },
                0,
                0,
            ),
            (
                RelExpr::Select {
                    input: c(0),
                    predicate: e(0),
                },
                1,
                1,
            ),
            (
                RelExpr::Project {
                    input: c(0),
                    items: vec![item(0), item(1)],
                    distinct: false,
                },
                1,
                2,
            ),
            (
                RelExpr::Aggregate {
                    input: c(0),
                    group_by: vec![e(0), e(1)],
                    aggregates: vec![
                        AggCall::new(AggFunc::Sum, vec![e(2), e(3)], "a"),
                        AggCall::new(AggFunc::CountStar, vec![], "n"),
                        AggCall::new(AggFunc::Max, vec![e(4)], "m"),
                    ],
                },
                1,
                5,
            ),
            (
                RelExpr::Join {
                    left: c(0),
                    right: c(1),
                    kind: JoinKind::Inner,
                    condition: Some(e(0)),
                },
                2,
                1,
            ),
            (
                RelExpr::Union {
                    left: c(0),
                    right: c(1),
                    all: true,
                },
                2,
                0,
            ),
            (
                RelExpr::Sort {
                    input: c(0),
                    keys: vec![key(0), key(1)],
                },
                1,
                2,
            ),
            (
                RelExpr::Limit {
                    input: c(0),
                    limit: 1,
                },
                1,
                0,
            ),
            (
                RelExpr::Rename {
                    input: c(0),
                    alias: "r".into(),
                },
                1,
                0,
            ),
            (
                RelExpr::Apply {
                    left: c(0),
                    right: c(1),
                    kind: ApplyKind::Cross,
                    bindings: vec![ParamBinding::new("p", e(0)), ParamBinding::new("q", e(1))],
                },
                2,
                2,
            ),
            (
                RelExpr::ApplyMerge {
                    left: c(0),
                    right: c(1),
                    assignments: vec![MergeAssignment::new("a", "b")],
                },
                2,
                0,
            ),
            (
                RelExpr::ConditionalApplyMerge {
                    left: c(0),
                    predicate: e(0),
                    then_branch: c(1),
                    else_branch: c(2),
                    assignments: vec![],
                },
                3,
                1,
            ),
        ];
        assert_eq!(plans.len(), 14);
        fn numbered(prefix: &str, n: usize) -> Vec<String> {
            (0..n).map(|i| format!("{prefix}{i}")).collect()
        }
        let name = |plan: &RelExpr| match plan {
            RelExpr::Scan { table, .. } => table.clone(),
            other => panic!("unexpected child {}", other.name()),
        };
        for (mut plan, children, exprs) in plans {
            let expected = numbered("c", children);
            let mut seen = vec![];
            plan.for_each_child(&mut |c| seen.push(name(c)));
            assert_eq!(seen, expected, "{}", plan.name());
            let mut seen = vec![];
            plan.for_each_child_mut(&mut |c| {
                seen.push(name(c));
                *c = RelExpr::scan(format!("{}x", name(c)));
            });
            assert_eq!(seen, expected, "{}", plan.name());
            let renamed: Vec<String> = plan.children().into_iter().map(name).collect();
            assert_eq!(
                renamed,
                numbered("c", children)
                    .into_iter()
                    .map(|c| c + "x")
                    .collect::<Vec<_>>()
            );
            assert_eq!(plan.first_child().map(name), renamed.first().cloned());

            let expected = numbered(":e", exprs);
            let mut seen = vec![];
            plan.for_each_expr(&mut |e| seen.push(e.to_string()));
            assert_eq!(seen, expected, "{}", plan.name());
            let mut seen = vec![];
            plan.for_each_expr_mut(&mut |e| {
                seen.push(e.to_string());
                *e = E::literal(0);
            });
            assert_eq!(seen, expected, "{}", plan.name());
            assert!(plan.expressions().iter().all(|e| **e == E::literal(0)));
            assert_eq!(plan.expressions().len(), exprs);
        }

        let block = |i: usize| vec![Statement::Return { expr: Some(e(i)) }];
        let query = RelExpr::scan("q");
        let statements = vec![
            (
                Statement::Declare {
                    name: "v".into(),
                    data_type: DataType::Int,
                    init: Some(e(0)),
                },
                0,
                1,
            ),
            (
                Statement::Assign {
                    name: "v".into(),
                    expr: e(0),
                },
                0,
                1,
            ),
            (
                Statement::SelectInto {
                    query: query.clone(),
                    targets: vec!["v".into()],
                },
                0,
                0,
            ),
            (
                Statement::If {
                    condition: e(0),
                    then_branch: block(10),
                    else_branch: block(11),
                },
                2,
                1,
            ),
            (
                Statement::CursorLoop {
                    query: query.clone(),
                    fetch_vars: vec!["v".into()],
                    body: block(10),
                },
                1,
                0,
            ),
            (
                Statement::While {
                    condition: e(0),
                    body: block(10),
                },
                1,
                1,
            ),
            (
                Statement::InsertIntoResult {
                    values: vec![e(0), e(1)],
                },
                0,
                2,
            ),
            (Statement::Return { expr: Some(e(0)) }, 0, 1),
        ];
        assert_eq!(statements.len(), 8);
        for (mut stmt, blocks, exprs) in statements {
            let expected: Vec<String> = (0..blocks).map(|i| format!("return :e1{i};")).collect();
            let mut seen = vec![];
            stmt.for_each_block(&mut |b| seen.extend(b.iter().map(ToString::to_string)));
            assert_eq!(seen, expected, "{}", stmt.kind());
            let mut seen = vec![];
            stmt.for_each_block_mut(&mut |b| {
                seen.extend(b.iter().map(ToString::to_string));
                b[0] = Statement::Return { expr: None };
            });
            assert_eq!(seen, expected, "{}", stmt.kind());
            stmt.for_each_block(&mut |b| assert_eq!(b, [Statement::Return { expr: None }]));

            let mut seen = vec![];
            stmt.for_each_expr(&mut |e| seen.push(e.to_string()));
            assert_eq!(seen, numbered(":e", exprs), "{}", stmt.kind());
            let has_query = matches!(stmt.kind(), "select-into" | "cursor-loop");
            assert_eq!(stmt.query(), has_query.then_some(&query), "{}", stmt.kind());
        }
    }
}
