//! Lowering of parsed `SELECT` statements into the logical algebra.

use decorr_algebra::{AggCall, AggFunc, JoinKind, ProjectItem, RelExpr, ScalarExpr, SortKey};
use decorr_common::{Error, Result};

use crate::ast::{SelectItem, SelectStatement};

/// Lowers a parsed SELECT statement into a [`RelExpr`] tree:
/// `Scan → Join* → Select(where) → Aggregate? → Select(having)? → Project → Sort? → Limit?`.
///
/// UDF invocations remain embedded as [`ScalarExpr::UdfCall`]; built-in aggregate
/// function names (`sum`, `count`, `min`, `max`, `avg`) are recognised and pulled into an
/// [`RelExpr::Aggregate`] node.
pub fn plan_select(select: &SelectStatement) -> Result<RelExpr> {
    // 1. FROM clause: cross-join the comma-separated items; each item chains its joins.
    let mut plan: Option<RelExpr> = None;
    for item in &select.from {
        let mut item_plan = scan_of(&item.base.table, item.base.alias.as_deref());
        for join in &item.joins {
            let right = scan_of(&join.table.table, join.table.alias.as_deref());
            item_plan = RelExpr::Join {
                left: Box::new(item_plan),
                right: Box::new(right),
                kind: join.kind,
                condition: join.on.clone(),
            };
        }
        plan = Some(match plan {
            None => item_plan,
            Some(existing) => RelExpr::Join {
                left: Box::new(existing),
                right: Box::new(item_plan),
                kind: JoinKind::Cross,
                condition: None,
            },
        });
    }
    // A query with no FROM clause (e.g. `select 1+1`) selects from the Single relation.
    let mut plan = plan.unwrap_or(RelExpr::Single);

    // 2. WHERE.
    if let Some(pred) = &select.where_clause {
        plan = RelExpr::Select {
            input: Box::new(plan),
            predicate: pred.clone(),
        };
    }

    // 3. Aggregation: extract aggregate calls from the select list and HAVING clause.
    let mut agg_calls: Vec<AggCall> = vec![];
    let mut rewritten_items: Vec<(ScalarExpr, Option<String>)> = vec![];
    let mut wildcard_only = false;
    for item in select.items.iter() {
        match item {
            SelectItem::Wildcard => {
                if select.items.len() == 1 {
                    wildcard_only = true;
                } else {
                    return Err(Error::Unsupported(
                        "`*` mixed with other select items is not supported".into(),
                    ));
                }
            }
            SelectItem::QualifiedWildcard(q) => {
                return Err(Error::Unsupported(format!(
                    "qualified wildcard '{q}.*' is not supported"
                )));
            }
            SelectItem::Expr { expr, alias } => {
                let preferred = alias.clone();
                let rewritten = extract_aggs(expr, &mut agg_calls, preferred.as_deref());
                rewritten_items.push((rewritten, alias.clone()));
            }
        }
    }
    let rewritten_having = select
        .having
        .as_ref()
        .map(|h| extract_aggs(h, &mut agg_calls, None));

    let has_aggregation = !agg_calls.is_empty() || !select.group_by.is_empty();
    if has_aggregation {
        plan = RelExpr::Aggregate {
            input: Box::new(plan),
            group_by: select.group_by.clone(),
            aggregates: agg_calls,
        };
        if let Some(having) = rewritten_having {
            plan = RelExpr::Select {
                input: Box::new(plan),
                predicate: having,
            };
        }
    } else if select.having.is_some() {
        return Err(Error::Unsupported(
            "HAVING without aggregation is not supported".into(),
        ));
    }

    // 4. Projection. A bare `select * from t` needs no projection node. With
    //    aggregation, a lone wildcard keeps the aggregate's natural output.
    if !wildcard_only {
        let items: Vec<ProjectItem> = rewritten_items
            .into_iter()
            .map(|(expr, alias)| match alias {
                Some(a) => ProjectItem::aliased(expr, a),
                None => ProjectItem::new(expr),
            })
            .collect();
        // When the whole select list is exactly the aggregate outputs in order, the
        // projection is still added — it is cheap and keeps output names predictable.
        plan = RelExpr::Project {
            input: Box::new(plan),
            items,
            distinct: select.distinct,
        };
    } else if select.distinct {
        return Err(Error::Unsupported(
            "SELECT DISTINCT * is not supported".into(),
        ));
    }

    // 5. ORDER BY.
    if !select.order_by.is_empty() {
        plan = RelExpr::Sort {
            input: Box::new(plan),
            keys: select
                .order_by
                .iter()
                .map(|o| SortKey {
                    expr: o.expr.clone(),
                    ascending: o.ascending,
                })
                .collect(),
        };
    }

    // 6. LIMIT / TOP.
    if let Some(limit) = select.limit {
        plan = RelExpr::Limit {
            input: Box::new(plan),
            limit,
        };
    }
    Ok(plan)
}

fn scan_of(table: &str, alias: Option<&str>) -> RelExpr {
    match alias {
        Some(a) => RelExpr::scan_as(table, a),
        None => RelExpr::scan(table),
    }
}

/// Replaces aggregate function calls in `expr` with column references to aggregate
/// output columns, appending the extracted calls to `agg_calls`.
fn extract_aggs(
    expr: &ScalarExpr,
    agg_calls: &mut Vec<AggCall>,
    preferred_alias: Option<&str>,
) -> ScalarExpr {
    match expr {
        ScalarExpr::UdfCall { name, args } if is_agg_name(name) => {
            let func = match (name.as_str(), args.is_empty()) {
                ("count", true) => AggFunc::CountStar,
                ("count", false) => AggFunc::Count,
                ("sum", _) => AggFunc::Sum,
                ("min", _) => AggFunc::Min,
                ("max", _) => AggFunc::Max,
                ("avg", _) => AggFunc::Avg,
                _ => unreachable!("is_agg_name covers exactly these"),
            };
            // Reuse an identical aggregate if present; otherwise add a new one.
            let alias = preferred_alias
                .map(|a| a.to_string())
                .unwrap_or_else(|| format!("agg{}", agg_calls.len()));
            if let Some(existing) = agg_calls.iter().find(|c| c.func == func && c.args == *args) {
                return ScalarExpr::column(existing.alias.clone());
            }
            agg_calls.push(AggCall::new(func, args.clone(), alias.clone()));
            ScalarExpr::column(alias)
        }
        ScalarExpr::Binary { op, left, right } => ScalarExpr::Binary {
            op: *op,
            left: Box::new(extract_aggs(left, agg_calls, None)),
            right: Box::new(extract_aggs(right, agg_calls, None)),
        },
        ScalarExpr::Unary { op, expr } => ScalarExpr::Unary {
            op: *op,
            expr: Box::new(extract_aggs(expr, agg_calls, None)),
        },
        ScalarExpr::Case {
            branches,
            else_expr,
        } => ScalarExpr::Case {
            branches: branches
                .iter()
                .map(|(p, e)| {
                    (
                        extract_aggs(p, agg_calls, None),
                        extract_aggs(e, agg_calls, None),
                    )
                })
                .collect(),
            else_expr: else_expr
                .as_ref()
                .map(|e| Box::new(extract_aggs(e, agg_calls, None))),
        },
        ScalarExpr::Coalesce(args) => ScalarExpr::Coalesce(
            args.iter()
                .map(|a| extract_aggs(a, agg_calls, None))
                .collect(),
        ),
        ScalarExpr::Cast { expr, data_type } => ScalarExpr::Cast {
            expr: Box::new(extract_aggs(expr, agg_calls, None)),
            data_type: *data_type,
        },
        other => other.clone(),
    }
}

fn is_agg_name(name: &str) -> bool {
    crate::parser::is_builtin_aggregate(name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::SqlStatement;
    use crate::parse_and_plan as parse_and_plan_str;
    use crate::parser::{parse_function, parse_query, parse_statement};
    use decorr_algebra::display::explain;
    use decorr_common::DataType;
    use decorr_udf::Statement;

    #[test]
    fn plans_example1_query() {
        // Example 1 of the paper: UDF invocation in the select list.
        let plan =
            parse_and_plan_str("select custkey, service_level(custkey) from customer").unwrap();
        let text = explain(&plan);
        assert!(text.contains("Project [custkey, service_level(custkey)"));
        assert!(text.contains("Scan customer"));
        assert!(plan.contains_udf_call());
    }

    #[test]
    fn plans_scalar_aggregate_query() {
        // The body query of Example 1's UDF.
        let plan =
            parse_and_plan_str("select sum(totalprice) from orders where custkey = :ckey").unwrap();
        match &plan {
            RelExpr::Project { input, .. } => match input.as_ref() {
                RelExpr::Aggregate {
                    group_by,
                    aggregates,
                    ..
                } => {
                    assert!(group_by.is_empty());
                    assert_eq!(aggregates.len(), 1);
                    assert_eq!(aggregates[0].func, AggFunc::Sum);
                }
                other => panic!("expected Aggregate below Project, got {}", other.name()),
            },
            other => panic!("expected Project on top, got {}", other.name()),
        }
    }

    #[test]
    fn plans_group_by_query() {
        let plan = parse_and_plan_str(
            "select custkey, sum(totalprice) as totalbusiness from orders group by custkey",
        )
        .unwrap();
        let text = explain(&plan);
        assert!(
            text.contains("Aggregate group_by=[custkey] aggs=[sum(totalprice) as totalbusiness]")
        );
    }

    #[test]
    fn plans_joins_and_where() {
        let plan = parse_and_plan_str(
            "select o.orderkey from orders o, customer c \
             left outer join nation n on c.nationkey = n.nationkey \
             where o.custkey = c.custkey and o.totalprice > 1000",
        )
        .unwrap();
        let text = explain(&plan);
        assert!(text.contains("Join(cross)"));
        assert!(text.contains("Join(left outer) on (c.nationkey = n.nationkey)"));
        assert!(text.contains("Select [((o.custkey = c.custkey) AND (o.totalprice > 1000))]"));
    }

    #[test]
    fn plans_top_and_order_by() {
        let plan =
            parse_and_plan_str("select top 100 orderkey from orders order by totalprice desc")
                .unwrap();
        match &plan {
            RelExpr::Limit { limit, input } => {
                assert_eq!(*limit, 100);
                assert!(matches!(input.as_ref(), RelExpr::Sort { .. }));
            }
            other => panic!("expected Limit on top, got {}", other.name()),
        }
        // LIMIT syntax is equivalent.
        let plan2 =
            parse_and_plan_str("select orderkey from orders order by totalprice desc limit 100")
                .unwrap();
        assert_eq!(explain(&plan), explain(&plan2));
    }

    #[test]
    fn plans_scalar_subquery_in_where() {
        // The min-cost supplier query of Section II.
        let plan = parse_and_plan_str(
            "select suppkey, partkey from partsupp p1 \
             where supplycost = (select min(supplycost) from partsupp p2 \
                                 where p1.partkey = p2.partkey)",
        )
        .unwrap();
        let text = explain(&plan);
        assert!(text.contains("[subquery]"));
        assert!(text.contains("Aggregate group_by=[] aggs=[min(supplycost)"));
    }

    #[test]
    fn plans_count_star_and_case() {
        let plan = parse_and_plan_str(
            "select case when count(*) > 0 then 'some' else 'none' end as verdict from orders",
        )
        .unwrap();
        let text = explain(&plan);
        assert!(text.contains("count(*)"));
        assert!(text.contains("case when"));
    }

    #[test]
    fn select_without_from_uses_single() {
        let plan = parse_and_plan_str("select 1 + 2 as three").unwrap();
        match &plan {
            RelExpr::Project { input, items, .. } => {
                assert!(matches!(input.as_ref(), RelExpr::Single));
                assert_eq!(items[0].alias.as_deref(), Some("three"));
            }
            other => panic!("unexpected plan {}", other.name()),
        }
    }

    #[test]
    fn select_star_produces_bare_scan() {
        let plan = parse_and_plan_str("select * from customer").unwrap();
        assert!(matches!(plan, RelExpr::Scan { .. }));
    }

    #[test]
    fn parses_example8_discount_udf() {
        // Experiment 1's UDF (Example 8).
        let udf = parse_function(
            "create function discount(float amt, int ckey) returns float as \
             begin \
               int custcat; float catdisct, totaldiscount; \
               select category into :custcat from customer where customerkey = :ckey; \
               select frac_discount into :catdisct from categorydiscount where category = :custcat; \
               totaldiscount = catdisct * amt; \
               return totaldiscount; \
             end",
        )
        .unwrap();
        assert_eq!(udf.name, "discount");
        assert_eq!(udf.params.len(), 2);
        assert_eq!(udf.return_type, DataType::Float);
        assert!(udf.body.iter().any(Statement::contains_query));
        assert!(!udf.body.iter().any(Statement::contains_loop));
        // declarations + 2 select-into + assignment + return
        assert!(udf.body.len() >= 5);
        assert!(matches!(
            udf.body.last().unwrap(),
            Statement::Return { expr: Some(_) }
        ));
    }

    #[test]
    fn volatility_clause_controls_purity() {
        let base = "begin return 1; end";
        let pure = parse_function(&format!("create function f() returns int as {base}")).unwrap();
        assert!(pure.pure, "UDFs default to pure");
        let volatile = parse_function(&format!(
            "create function f() returns int volatile as {base}"
        ))
        .unwrap();
        assert!(!volatile.pure);
        let spelled_out = parse_function(&format!(
            "create function f() returns int deterministic as {base}"
        ))
        .unwrap();
        assert!(spelled_out.pure);
    }

    #[test]
    fn parses_example1_service_level_udf() {
        let udf = parse_function(
            "create function service_level(int ckey) returns char(10) as \
             begin \
               float totalbusiness; string level; \
               select sum(totalprice) into :totalbusiness from orders where custkey = :ckey; \
               if (totalbusiness > 1000000) \
                   level = 'Platinum'; \
               else if (totalbusiness > 500000) \
                   level = 'Gold'; \
               else level = 'Regular'; \
               return level; \
             end",
        )
        .unwrap();
        assert_eq!(udf.name, "service_level");
        assert_eq!(udf.return_type, DataType::Str);
        // Find the if statement and check its nesting (the paper's L3 / L3.2 structure).
        let if_stmt = udf
            .body
            .iter()
            .find(|s| matches!(s, Statement::If { .. }))
            .expect("if statement");
        match if_stmt {
            Statement::If { else_branch, .. } => {
                assert_eq!(else_branch.len(), 1);
                assert!(matches!(else_branch[0], Statement::If { .. }));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn parses_example5_cursor_loop_udf() {
        let udf = parse_function(
            "create function totalloss(int pkey) returns int as \
             begin \
               int total_loss = 0; \
               int cost = getcost(pkey); \
               declare c cursor for \
                 select price, qty, disc from lineitem where partkey = :pkey; \
               open c; \
               fetch next from c into @price, @qty, @disc; \
               while @@fetch_status = 0 \
                 int profit = (@price - @disc) - (cost * @qty); \
                 if (profit < 0) \
                     total_loss = total_loss - profit; \
                 fetch next from c into @price, @qty, @disc; \
               close c; deallocate c; \
               return total_loss; \
             end",
        )
        .unwrap();
        assert!(udf.body.iter().any(Statement::contains_loop));
        let cursor = udf
            .body
            .iter()
            .find(|s| matches!(s, Statement::CursorLoop { .. }))
            .expect("cursor loop");
        match cursor {
            Statement::CursorLoop {
                fetch_vars, body, ..
            } => {
                assert_eq!(
                    fetch_vars,
                    &vec!["@price".to_string(), "@qty".into(), "@disc".into()]
                );
                // Body: declare profit; if (profit < 0) …  (the trailing fetch is dropped)
                assert_eq!(body.len(), 2);
                assert!(matches!(body[1], Statement::If { .. }));
            }
            _ => unreachable!(),
        }
        // The return statement after the loop is preserved.
        assert!(matches!(
            udf.body.last().unwrap(),
            Statement::Return { expr: Some(_) }
        ));
    }

    #[test]
    fn parses_table_valued_udf() {
        let udf = parse_function(
            "create function top_customers() returns tt table(custkey int, total float) as \
             begin \
               declare c cursor for select custkey, totalprice from orders; \
               open c; \
               fetch next from c into @ck, @tp; \
               while @@fetch_status = 0 \
               begin \
                 insert into tt values (@ck, @tp * 1.1); \
                 fetch next from c into @ck, @tp; \
               end \
               close c; deallocate c; \
               return tt; \
             end",
        )
        .unwrap();
        assert!(udf.is_table_valued());
        let schema = udf.returns_table.as_ref().unwrap();
        assert_eq!(schema.names(), vec!["custkey", "total"]);
        let cursor = udf
            .body
            .iter()
            .find(|s| matches!(s, Statement::CursorLoop { .. }))
            .expect("cursor loop");
        match cursor {
            Statement::CursorLoop { body, .. } => {
                assert!(matches!(body[0], Statement::InsertIntoResult { .. }));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn parses_ddl_and_dml() {
        let stmt = parse_statement(
            "create table customer(custkey int not null, name varchar(25), acctbal float)",
        )
        .unwrap();
        match stmt {
            SqlStatement::CreateTable { name, columns } => {
                assert_eq!(name, "customer");
                assert_eq!(columns.len(), 3);
                assert!(!columns[0].nullable);
                assert_eq!(columns[2].data_type, DataType::Float);
            }
            other => panic!("unexpected {:?}", other.kind()),
        }
        let stmt = parse_statement("create index idx_orders_custkey on orders(custkey)").unwrap();
        assert_eq!(stmt.kind(), "create-index");
        let stmt = parse_statement("insert into t (a, b) values (1, 'x'), (2, 'y')").unwrap();
        match stmt {
            SqlStatement::Insert { rows, columns, .. } => {
                assert_eq!(rows.len(), 2);
                assert_eq!(columns.unwrap(), vec!["a".to_string(), "b".into()]);
            }
            other => panic!("unexpected {:?}", other.kind()),
        }
    }

    #[test]
    fn parse_errors_are_reported() {
        assert!(parse_query("select from where").is_err());
        assert!(parse_query("selec 1").is_err());
        assert!(parse_statement("create table t(x unknown_type)").is_err());
        assert!(parse_function("create function f() returns int as begin banana end").is_err());
        // Insert into a base table inside a UDF body is a side effect: rejected.
        let err = parse_function(
            "create function f() returns int as begin insert into orders values (1); return 0; end",
        )
        .unwrap_err();
        assert_eq!(err.kind(), "unsupported");
    }

    #[test]
    fn where_clause_udf_call() {
        let plan =
            parse_and_plan_str("select orderkey from orders where discount(totalprice) > 100")
                .unwrap();
        assert!(plan.contains_udf_call());
    }

    #[test]
    fn in_list_and_exists() {
        let q = parse_query("select * from t where x in (1, 2, 3)").unwrap();
        assert!(q.where_clause.is_some());
        let plan = parse_and_plan_str(
            "select name from customer c where exists (select orderkey from orders o where o.custkey = c.custkey)",
        )
        .unwrap();
        let text = explain(&plan);
        assert!(text.contains("exists"));
    }
}
