//! Dead-column elimination, the last step of the `cleanup` stage.
//!
//! Apply removal leaves a merged UDF body's projections in the flattened plan: `NULL`
//! placeholders for the body's local variables and every column of the tables it read,
//! carried through every join above them. Froid gets dead-local elimination from the
//! host optimizer's column pruning once a body is algebraic; here it is one top-down
//! walk that drops the items of a non-distinct `Project` no operator above it names.
//!
//! The walk is conservative, so it never drops a live column and never hides an error:
//! * a name matches by its bare column name, qualified or not, and a `:param` name
//!   counts too (evaluation falls back from a parameter to a column);
//! * only an item that is a bare column reference or a literal is dropped;
//! * the projection that defines the plan's output keeps every item, and so does a
//!   `distinct` one or one holding an item named by its position;
//! * a `Project` and an `Aggregate` read only their own references from below; a
//!   selection, join, sort, limit and rename add theirs to what is read above them;
//! * nothing under a `Union`, an Apply-family operator or an operator whose expressions
//!   hold a subquery is touched;
//! * a projection keeps at least one item.

use decorr_algebra::{ProjectItem, RelExpr, ScalarExpr};

/// Drops the dead items of every prunable projection in `plan` and returns how many
/// went.
pub(crate) fn prune_dead_columns(plan: &mut RelExpr) -> usize {
    walk(plan, &mut Vec::new(), None)
}

/// Prunes `plan`, below operators that reference `names[start..]` when `live` is
/// `Some(start)`, or that may read every column `plan` outputs when it is `None`.
/// `names` is one stack for the whole walk: each operator pushes the names its own
/// expressions reference and truncates them again on the way out.
fn walk<'a>(plan: &'a mut RelExpr, names: &mut Vec<&'a str>, live: Option<usize>) -> usize {
    let mark = names.len();
    let pruned = match plan {
        RelExpr::Project {
            input,
            items,
            distinct,
        } => {
            let pruned = match live {
                Some(start) if !*distinct => drop_dead_items(items, &names[start..]),
                _ => 0,
            };
            let items: &'a [ProjectItem] = items;
            if reference(items.iter().map(|i| &i.expr), names) {
                pruned + walk(input, names, Some(mark))
            } else {
                pruned
            }
        }
        RelExpr::Aggregate {
            input,
            group_by,
            aggregates,
        } => {
            let args = aggregates.iter().flat_map(|a| &a.args);
            if reference(group_by.iter().chain(args), names) {
                walk(input, names, Some(mark))
            } else {
                0
            }
        }
        RelExpr::Select { input, predicate } => {
            if reference([&*predicate], names) {
                walk(input, names, live)
            } else {
                0
            }
        }
        RelExpr::Sort { input, keys } => {
            if reference(keys.iter().map(|k| &k.expr), names) {
                walk(input, names, live)
            } else {
                0
            }
        }
        RelExpr::Join {
            left,
            right,
            condition,
            ..
        } => {
            if reference(condition.iter(), names) {
                walk(left, names, live) + walk(right, names, live)
            } else {
                0
            }
        }
        RelExpr::Limit { input, .. } | RelExpr::Rename { input, .. } => walk(input, names, live),
        RelExpr::Single
        | RelExpr::Scan { .. }
        | RelExpr::Values { .. }
        | RelExpr::Union { .. }
        | RelExpr::Apply { .. }
        | RelExpr::ApplyMerge { .. }
        | RelExpr::ConditionalApplyMerge { .. } => 0,
    };
    names.truncate(mark);
    pruned
}

/// Pushes every column and parameter name `exprs` reference onto `names`. False when
/// an expression holds a subquery: what that reads of the input is not in `names`.
fn reference<'a>(
    exprs: impl IntoIterator<Item = &'a ScalarExpr>,
    names: &mut Vec<&'a str>,
) -> bool {
    fn visit<'a>(expr: &'a ScalarExpr, names: &mut Vec<&'a str>, plain: &mut bool) {
        match expr {
            ScalarExpr::Column(c) => names.push(&c.name),
            ScalarExpr::Param(p) => names.push(p),
            ScalarExpr::ScalarSubquery(_)
            | ScalarExpr::Exists(_)
            | ScalarExpr::InSubquery { .. } => *plain = false,
            _ => {}
        }
        expr.for_each_child(&mut |child| visit(child, names, plain));
    }
    let mut plain = true;
    for expr in exprs {
        visit(expr, names, &mut plain);
    }
    plain
}

/// The name an operator above reads `item` by, or `None` when its output column is
/// named by its position (`col3`).
fn item_name(item: &ProjectItem) -> Option<&str> {
    match (&item.alias, &item.expr) {
        (Some(alias), _) => Some(alias),
        (None, ScalarExpr::Column(c)) => Some(&c.name),
        (None, ScalarExpr::Param(p)) => Some(p),
        (None, _) => None,
    }
}

/// Drops the items of `items` that are a bare column or a literal and that no name in
/// `live` reads, keeping at least one; returns how many went. A projection with an item
/// named by its position keeps everything: a dropped item before it would rename it.
fn drop_dead_items(items: &mut Vec<ProjectItem>, live: &[&str]) -> usize {
    if items.iter().any(|item| item_name(item).is_none()) {
        return 0;
    }
    let dead = |item: &ProjectItem| {
        matches!(item.expr, ScalarExpr::Column(_) | ScalarExpr::Literal(_))
            && item_name(item).is_some_and(|name| !live.contains(&name))
    };
    let keep_first = items.iter().all(dead);
    let before = items.len();
    let mut position = 0;
    items.retain(|item| {
        position += 1;
        (keep_first && position == 1) || !dead(item)
    });
    before - items.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_algebra::{AggCall, AggFunc, BinaryOp, JoinKind, SortKey};

    fn col(q: &str, name: &str) -> ScalarExpr {
        ScalarExpr::qualified_column(q, name)
    }

    fn project(input: RelExpr, items: Vec<ProjectItem>) -> RelExpr {
        RelExpr::Project {
            input: Box::new(input),
            items,
            distinct: false,
        }
    }

    fn columns(q: &str, names: &[&str]) -> Vec<ProjectItem> {
        names.iter().map(|n| ProjectItem::new(col(q, n))).collect()
    }

    /// The output names of the first `Project` strictly below the root.
    fn inner_items(plan: &RelExpr) -> Vec<String> {
        let mut node = plan.first_child();
        while let Some(current) = node {
            if let RelExpr::Project { items, .. } = current {
                return items
                    .iter()
                    .enumerate()
                    .map(|(i, it)| it.output_name(i))
                    .collect();
            }
            node = current.first_child();
        }
        panic!("no inner projection in {plan:?}")
    }

    /// `root` items over `inner` items over `orders`, with `op` wrapped around the
    /// inner projection.
    fn under(op: impl FnOnce(RelExpr) -> RelExpr, inner: Vec<ProjectItem>) -> RelExpr {
        let inner = project(RelExpr::scan("orders"), inner);
        project(op(inner), columns("orders", &["orderkey"]))
    }

    #[test]
    fn drops_the_flattened_body_placeholders_and_unread_columns() {
        // Figure 10's flattened shape: the body's projection carries NULL placeholders
        // for its locals and every customer column through two joins.
        let mut inner = columns(
            "orders",
            &["orderkey", "custkey", "totalprice", "orderyear"],
        );
        for local in ["custcat", "catdisct", "totaldiscount"] {
            inner.push(ProjectItem::aliased(ScalarExpr::null(), local));
        }
        inner.extend(columns(
            "c",
            &["custkey", "name", "nationkey", "acctbal", "category"],
        ));
        let body_join = RelExpr::Join {
            left: Box::new(RelExpr::scan("orders")),
            right: Box::new(RelExpr::scan_as("customer", "c")),
            kind: JoinKind::Inner,
            condition: Some(ScalarExpr::eq(
                col("c", "custkey"),
                col("orders", "custkey"),
            )),
        };
        let mut plan = project(
            RelExpr::Join {
                left: Box::new(project(body_join, inner)),
                right: Box::new(RelExpr::scan_as("categorydiscount", "d")),
                kind: JoinKind::Inner,
                condition: Some(ScalarExpr::eq(col("d", "category"), col("c", "category"))),
            },
            vec![
                ProjectItem::aliased(col("orders", "orderkey"), "orderkey"),
                ProjectItem::aliased(
                    ScalarExpr::binary(
                        BinaryOp::Mul,
                        col("d", "frac_discount"),
                        col("orders", "totalprice"),
                    ),
                    "totaldiscount",
                ),
            ],
        );
        assert_eq!(prune_dead_columns(&mut plan), 9);
        assert_eq!(inner_items(&plan), ["orderkey", "totalprice", "category"]);
        // The root's items are the query's output: both stay.
        let RelExpr::Project { items, .. } = &plan else {
            unreachable!()
        };
        assert_eq!(items.len(), 2);
        // A second walk finds nothing left to drop.
        assert_eq!(prune_dead_columns(&mut plan), 0);
    }

    #[test]
    fn keeps_the_root_a_distinct_projection_and_anything_under_a_union() {
        let mut root = project(RelExpr::scan("orders"), columns("orders", &["a", "b"]));
        assert_eq!(prune_dead_columns(&mut root), 0);
        // A root under a sort and a limit still defines the output.
        let mut sorted = RelExpr::Limit {
            input: Box::new(RelExpr::Sort {
                input: Box::new(root.clone()),
                keys: vec![],
            }),
            limit: 3,
        };
        assert_eq!(prune_dead_columns(&mut sorted), 0);

        let mut distinct = under(
            |inner| match inner {
                RelExpr::Project { input, items, .. } => RelExpr::Project {
                    input,
                    items,
                    distinct: true,
                },
                _ => unreachable!(),
            },
            columns("orders", &["orderkey", "custkey"]),
        );
        assert_eq!(prune_dead_columns(&mut distinct), 0);
        assert_eq!(inner_items(&distinct), ["orderkey", "custkey"]);

        let mut union = under(
            |inner| RelExpr::Union {
                left: Box::new(inner.clone()),
                right: Box::new(inner),
                all: true,
            },
            columns("orders", &["orderkey", "custkey"]),
        );
        assert_eq!(prune_dead_columns(&mut union), 0);
    }

    #[test]
    fn keeps_an_item_that_can_raise() {
        let inner = vec![
            ProjectItem::new(col("orders", "orderkey")),
            ProjectItem::aliased(
                ScalarExpr::binary(BinaryOp::Div, ScalarExpr::literal(100), col("orders", "w")),
                "ratio",
            ),
            ProjectItem::new(col("orders", "w")),
        ];
        let mut plan = under(|inner| inner, inner);
        assert_eq!(prune_dead_columns(&mut plan), 1);
        assert_eq!(inner_items(&plan), ["orderkey", "ratio"]);
    }

    #[test]
    fn keeps_a_name_only_a_condition_key_or_param_above_reads() {
        let inner = || columns("orders", &["orderkey", "k", "dead"]);
        let condition = ScalarExpr::eq(col("x", "k"), ScalarExpr::column("j"));
        let mut joined = under(
            |inner| RelExpr::Join {
                left: Box::new(inner),
                right: Box::new(RelExpr::scan_as("other", "x")),
                kind: JoinKind::LeftOuter,
                condition: Some(condition),
            },
            inner(),
        );
        let mut grouped = RelExpr::Aggregate {
            input: Box::new(project(RelExpr::scan("orders"), inner())),
            group_by: vec![col("orders", "k")],
            aggregates: vec![AggCall::new(
                AggFunc::Sum,
                vec![ScalarExpr::column("orderkey")],
                "s",
            )],
        };
        let mut sorted = under(
            |inner| RelExpr::Sort {
                input: Box::new(inner),
                keys: vec![SortKey {
                    expr: ScalarExpr::column("k"),
                    ascending: false,
                }],
            },
            inner(),
        );
        let mut filtered = under(
            |inner| RelExpr::Select {
                input: Box::new(inner),
                predicate: ScalarExpr::eq(ScalarExpr::param("k"), ScalarExpr::literal(1)),
            },
            inner(),
        );
        for plan in [&mut joined, &mut sorted, &mut filtered] {
            assert_eq!(prune_dead_columns(plan), 1, "{plan:?}");
            assert_eq!(inner_items(plan), ["orderkey", "k"]);
        }
        assert_eq!(prune_dead_columns(&mut grouped), 1);
        let RelExpr::Aggregate { input, .. } = &grouped else {
            unreachable!()
        };
        let RelExpr::Project { items, .. } = &**input else {
            unreachable!()
        };
        assert_eq!(items.len(), 2);
    }

    #[test]
    fn keeps_everything_under_a_subquery_and_one_item_per_projection() {
        let exists = ScalarExpr::Exists(Box::new(RelExpr::Select {
            input: Box::new(RelExpr::scan("lineitem")),
            predicate: ScalarExpr::eq(ScalarExpr::column("l_key"), ScalarExpr::column("dead")),
        }));
        let mut correlated = under(
            |inner| RelExpr::Select {
                input: Box::new(inner),
                predicate: exists,
            },
            columns("orders", &["orderkey", "dead"]),
        );
        assert_eq!(prune_dead_columns(&mut correlated), 0);
        assert_eq!(inner_items(&correlated), ["orderkey", "dead"]);

        // Nothing above reads the inner projection; one of its items stays.
        let mut unread = project(
            project(RelExpr::scan("orders"), columns("orders", &["a", "b", "c"])),
            vec![ProjectItem::aliased(ScalarExpr::literal(1), "one")],
        );
        assert_eq!(prune_dead_columns(&mut unread), 2);
        assert_eq!(inner_items(&unread), ["a"]);
    }
}
