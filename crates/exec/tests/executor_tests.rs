//! End-to-end tests of the executor and interpreter: SQL text is parsed, lowered to the
//! logical algebra and executed against an in-memory catalog.

use std::sync::Arc;

use decorr_common::{Column, DataType, Row, Schema, Value};
use decorr_exec::{Executor, UdfMemo, HASH_JOIN_THRESHOLD};
use decorr_parser::{parse_and_plan, parse_function};
use decorr_storage::Catalog;
use decorr_udf::FunctionRegistry;

/// Builds a small TPC-H-flavoured catalog used throughout these tests.
fn setup() -> (Arc<Catalog>, FunctionRegistry) {
    setup_with(10)
}

/// The catalog of [`setup`] with customers `1..=customers`: customer `i` has `i` orders,
/// so the first `n` customers and their orders are the same rows at any size ≥ `n`.
fn setup_with(customers: i64) -> (Arc<Catalog>, FunctionRegistry) {
    setup_indexed(customers, true)
}

/// The catalog of [`setup_with`], with or without the hash index on `orders.custkey`.
fn setup_indexed(customers: i64, index_orders: bool) -> (Arc<Catalog>, FunctionRegistry) {
    let mut catalog = Catalog::new();
    catalog
        .create_table(
            "customer",
            Schema::new(vec![
                Column::new("custkey", DataType::Int).not_null(),
                Column::new("name", DataType::Str),
                Column::new("nationkey", DataType::Int),
            ]),
        )
        .unwrap();
    catalog
        .create_table(
            "orders",
            Schema::new(vec![
                Column::new("orderkey", DataType::Int).not_null(),
                Column::new("custkey", DataType::Int),
                Column::new("totalprice", DataType::Float),
            ]),
        )
        .unwrap();
    // Customer i has i orders each worth 100*i.
    for i in 1..=customers {
        catalog
            .insert_rows(
                "customer",
                vec![Row::new(vec![
                    Value::Int(i),
                    Value::str(format!("Customer#{i}")),
                    Value::Int(i % 3),
                ])],
            )
            .unwrap();
    }
    let mut orderkey = 0i64;
    for i in 1..=customers {
        for _ in 0..i {
            orderkey += 1;
            catalog
                .insert_rows(
                    "orders",
                    vec![Row::new(vec![
                        Value::Int(orderkey),
                        Value::Int(i),
                        Value::Float(100.0 * i as f64),
                    ])],
                )
                .unwrap();
        }
    }
    if index_orders {
        catalog.create_index("orders", "custkey").unwrap();
    }
    catalog.create_index("customer", "custkey").unwrap();
    (Arc::new(catalog), FunctionRegistry::new())
}

fn run(catalog: &Arc<Catalog>, registry: &FunctionRegistry, sql: &str) -> decorr_exec::ResultSet {
    let plan = parse_and_plan(sql).unwrap();
    Executor::new(Arc::clone(catalog), Arc::new(registry.clone()))
        .execute(&plan)
        .unwrap()
}

#[test]
fn scan_filter_project() {
    let (catalog, registry) = setup();
    let rs = run(
        &catalog,
        &registry,
        "select name from customer where custkey > 8",
    );
    assert_eq!(rs.canonical(), vec!["('Customer#10')", "('Customer#9')"]);
}

#[test]
fn arithmetic_and_case_in_projection() {
    let (catalog, registry) = setup();
    let rs = run(
        &catalog,
        &registry,
        "select custkey, case when custkey > 5 then 'big' else 'small' end as size \
         from customer where custkey = 1 or custkey = 9",
    );
    assert_eq!(rs.canonical(), vec!["(1, 'small')", "(9, 'big')"]);
}

#[test]
fn group_by_aggregation() {
    let (catalog, registry) = setup();
    let rs = run(
        &catalog,
        &registry,
        "select custkey, sum(totalprice) as total, count(*) as n from orders group by custkey",
    );
    assert_eq!(rs.len(), 10);
    let idx = rs.schema.index_of(None, "custkey").unwrap();
    for row in &rs.rows {
        let k = row.get(idx).as_int().unwrap();
        assert_eq!(row.get(1), &Value::Float(100.0 * k as f64 * k as f64));
        assert_eq!(row.get(2), &Value::Int(k));
    }
}

#[test]
fn scalar_aggregate_over_empty_input_returns_one_row() {
    let (catalog, registry) = setup();
    let rs = run(
        &catalog,
        &registry,
        "select count(*) as n, sum(totalprice) as s from orders where custkey = 999",
    );
    assert_eq!(rs.len(), 1);
    assert_eq!(rs.rows[0].get(0), &Value::Int(0));
    assert!(rs.rows[0].get(1).is_null());
}

#[test]
fn joins_inner_and_left_outer() {
    let (catalog, registry) = setup();
    // Inner join: every order matches its customer.
    let rs = run(
        &catalog,
        &registry,
        "select c.custkey, o.totalprice from customer c, orders o where c.custkey = o.custkey",
    );
    assert_eq!(rs.len(), 55); // 1+2+…+10 orders
                              // Left outer join against a selective right side: customers without expensive orders
                              // still appear with NULL.
    let rs = run(
        &catalog,
        &registry,
        "select c.custkey, o.orderkey from customer c \
         left outer join orders o on c.custkey = o.custkey and o.totalprice > 900",
    );
    let nulls = rs.rows.iter().filter(|r| r.get(1).is_null()).count();
    assert_eq!(nulls, 9); // only customer 10 has orders over 900
    assert_eq!(rs.len(), 9 + 10); // 9 null-extended + 10 orders of customer 10
}

#[test]
fn hash_join_and_nested_loop_agree() {
    // The filter sits above the join, so the join reads whole tables: 10 + 55 rows, at
    // or above the hash-join threshold, against 5 + 15 rows below it. Unindexed, the
    // right table is hashed or looped over; with its index on the join key, each
    // customer probes it instead.
    let plan = parse_and_plan(
        "select c.custkey, o.orderkey from customer c join orders o on c.custkey = o.custkey \
         where c.custkey <= 5",
    )
    .unwrap();
    let run = |customers, index_orders| {
        let (catalog, registry) = setup_indexed(customers, index_orders);
        let join_input = catalog.table("customer").unwrap().row_count()
            + catalog.table("orders").unwrap().row_count();
        let executor = Executor::new(catalog, Arc::new(registry));
        let result = executor.execute(&plan).unwrap();
        let rows: Vec<String> = result.rows.iter().map(Row::to_string).collect();
        (join_input, rows, executor.stats_snapshot())
    };
    let (hash_input, hashed, hash_stats) = run(10, false);
    let (loop_input, looped, loop_stats) = run(5, false);
    let (_, indexed, index_stats) = run(10, true);
    assert!(loop_input < HASH_JOIN_THRESHOLD && HASH_JOIN_THRESHOLD <= hash_input);
    assert_eq!(hashed, looped);
    assert_eq!(hashed.len(), 15);
    assert_eq!(
        indexed, hashed,
        "the index route emits the same rows in the same order"
    );
    let algorithms =
        |s: &decorr_exec::ExecStats| (s.hash_joins, s.index_joins, s.nested_loop_joins);
    assert_eq!(algorithms(&hash_stats), (1, 0, 0));
    assert_eq!(algorithms(&loop_stats), (0, 0, 1));
    assert_eq!(algorithms(&index_stats), (0, 1, 0));
    // One probe per customer; only the customers are scanned.
    assert_eq!(
        (index_stats.index_lookups, index_stats.rows_scanned),
        (10, 10)
    );
    assert_eq!((hash_stats.index_lookups, hash_stats.rows_scanned), (0, 65));
}

#[test]
fn order_by_and_limit() {
    let (catalog, registry) = setup();
    let rs = run(
        &catalog,
        &registry,
        "select top 3 custkey from customer order by custkey desc",
    );
    assert_eq!(
        rs.column("custkey").unwrap(),
        vec![Value::Int(10), Value::Int(9), Value::Int(8)]
    );
}

#[test]
fn distinct_projection() {
    let (catalog, registry) = setup();
    let rs = run(
        &catalog,
        &registry,
        "select distinct nationkey from customer",
    );
    assert_eq!(rs.len(), 3);
}

#[test]
fn correlated_scalar_subquery() {
    let (catalog, registry) = setup();
    let rs = run(
        &catalog,
        &registry,
        "select custkey, (select sum(totalprice) from orders where custkey = c.custkey) as total \
         from customer c where custkey <= 3",
    );
    assert_eq!(
        rs.canonical(),
        vec!["(1, 100.0)", "(2, 400.0)", "(3, 900.0)"]
    );
}

#[test]
fn exists_and_in_subqueries() {
    let (catalog, registry) = setup();
    let rs = run(
        &catalog,
        &registry,
        "select custkey from customer c where exists \
         (select orderkey from orders o where o.custkey = c.custkey and o.totalprice > 900)",
    );
    assert_eq!(rs.canonical(), vec!["(10)"]);
    let rs = run(
        &catalog,
        &registry,
        "select orderkey from orders where custkey in (select custkey from customer where custkey < 2)",
    );
    assert_eq!(rs.len(), 1);
}

#[test]
fn index_assisted_selection_is_used() {
    let (catalog, registry) = setup();
    let plan = parse_and_plan("select orderkey from orders where custkey = 7").unwrap();
    let exec = Executor::new(Arc::clone(&catalog), Arc::new(registry.clone()));
    let rs = exec.execute(&plan).unwrap();
    assert_eq!(rs.len(), 7);
    let stats = exec.stats_snapshot();
    assert_eq!(stats.index_lookups, 1);
    assert_eq!(stats.rows_scanned, 0, "index path must not scan the table");
}

#[test]
fn scalar_udf_iterative_invocation() {
    let (catalog, mut registry) = setup();
    registry.register_udf(
        parse_function(
            "create function totalbusiness(int ckey) returns float as \
             begin \
               return select sum(totalprice) from orders where custkey = :ckey; \
             end",
        )
        .unwrap(),
    );
    let plan =
        parse_and_plan("select custkey, totalbusiness(custkey) as tb from customer").unwrap();
    let exec = Executor::new(Arc::clone(&catalog), Arc::new(registry.clone()));
    let rs = exec.execute(&plan).unwrap();
    assert_eq!(rs.len(), 10);
    let tb = rs.column("tb").unwrap();
    assert_eq!(tb[0], Value::Float(100.0));
    assert_eq!(tb[9], Value::Float(10_000.0));
    // Iterative execution: one UDF invocation per customer row.
    assert_eq!(exec.stats_snapshot().udf_invocations, 10);
}

#[test]
fn service_level_udf_with_branching() {
    let (catalog, mut registry) = setup();
    registry.register_udf(
        parse_function(
            "create function service_level(int ckey) returns varchar(10) as \
             begin \
               float totalbusiness; string level; \
               select sum(totalprice) into :totalbusiness from orders where custkey = :ckey; \
               if (totalbusiness > 5000) level = 'Platinum'; \
               else if (totalbusiness > 1000) level = 'Gold'; \
               else level = 'Regular'; \
               return level; \
             end",
        )
        .unwrap(),
    );
    let rs = run(
        &catalog,
        &registry,
        "select custkey, service_level(custkey) as lvl from customer where custkey in (1, 5, 10)",
    );
    assert_eq!(
        rs.canonical(),
        vec!["(1, 'Regular')", "(10, 'Platinum')", "(5, 'Gold')"]
    );
}

#[test]
fn udf_in_where_clause() {
    let (catalog, mut registry) = setup();
    registry.register_udf(
        parse_function(
            "create function discount(float amount) returns float as \
             begin return amount * 0.15; end",
        )
        .unwrap(),
    );
    let rs = run(
        &catalog,
        &registry,
        "select orderkey from orders where discount(totalprice) > 140",
    );
    // totalprice > 933.3… → only customer 10's orders (1000.0): 10 orders.
    assert_eq!(rs.len(), 10);
}

#[test]
fn udf_with_cursor_loop_interpreted() {
    let (catalog, mut registry) = setup();
    registry.register_udf(
        parse_function(
            "create function order_count_above(int ckey, float threshold) returns int as \
             begin \
               int n = 0; \
               declare c cursor for select totalprice from orders where custkey = :ckey; \
               open c; \
               fetch next from c into @tp; \
               while @@fetch_status = 0 \
               begin \
                 if (@tp > threshold) n = n + 1; \
                 fetch next from c into @tp; \
               end \
               close c; deallocate c; \
               return n; \
             end",
        )
        .unwrap(),
    );
    let rs = run(
        &catalog,
        &registry,
        "select custkey, order_count_above(custkey, 500.0) as n from customer where custkey in (3, 7)",
    );
    assert_eq!(rs.canonical(), vec!["(3, 0)", "(7, 7)"]);
}

#[test]
fn udf_with_while_loop_interpreted() {
    let (catalog, mut registry) = setup();
    registry.register_udf(
        parse_function(
            "create function sum_to(int n) returns int as \
             begin \
               int total = 0; int i = 1; \
               while (i <= n) \
               begin \
                 total = total + i; \
                 i = i + 1; \
               end \
               return total; \
             end",
        )
        .unwrap(),
    );
    let rs = run(&catalog, &registry, "select sum_to(10) as s");
    assert_eq!(rs.rows[0].get(0), &Value::Int(55));
}

#[test]
fn table_valued_udf_execution() {
    let (catalog, mut registry) = setup();
    registry.register_udf(
        parse_function(
            "create function big_orders(float threshold) returns tt table(orderkey int, price float) as \
             begin \
               declare c cursor for select orderkey, totalprice from orders; \
               open c; \
               fetch next from c into @ok, @tp; \
               while @@fetch_status = 0 \
               begin \
                 if (@tp > threshold) insert into tt values (@ok, @tp); \
                 fetch next from c into @ok, @tp; \
               end \
               close c; deallocate c; \
               return tt; \
             end",
        )
        .unwrap(),
    );
    let exec = Executor::new(Arc::clone(&catalog), Arc::new(registry.clone()));
    let rs = exec
        .call_table_udf("big_orders", vec![Value::Float(900.0)])
        .unwrap();
    assert_eq!(rs.len(), 10);
    assert_eq!(rs.schema.names(), vec!["orderkey", "price"]);
}

/// The table-valued twin of the racing-workers guarantee, driven straight through
/// `Executor::call_table_udf`: 8 threads released together call a pure table-valued UDF
/// over the same few argument tuples through one shared dedup tier. Each distinct tuple
/// is evaluated once, every other call is a hit, and every thread sees the rows the
/// single-threaded run sees.
#[test]
fn racing_table_udf_calls_evaluate_each_tuple_once() {
    const THREADS: usize = 8;
    const ROUNDS: usize = 10;
    let (catalog, mut registry) = setup();
    registry.register_udf(
        parse_function(
            "create function orders_above(float threshold) returns tt table(orderkey int, price float) as \
             begin \
               declare c cursor for select orderkey, totalprice from orders; \
               open c; \
               fetch next from c into @ok, @tp; \
               while @@fetch_status = 0 \
               begin \
                 if (@tp > threshold) insert into tt values (@ok, @tp); \
                 fetch next from c into @ok, @tp; \
               end \
               close c; deallocate c; \
               return tt; \
             end",
        )
        .unwrap(),
    );
    let registry = Arc::new(registry);
    let thresholds = [150.0, 450.0, 650.0, 900.0, 2000.0];
    let executor = || {
        Executor::new(Arc::clone(&catalog), Arc::clone(&registry))
            .with_udf_dedup(Arc::new(UdfMemo::with_capacity(64)))
    };
    // One thread's work: every tuple once, starting at a thread-specific offset so the
    // threads collide on different tuples at different times.
    let call_all = |exec: &Executor, offset: usize| -> Vec<(usize, Vec<Row>)> {
        (0..thresholds.len())
            .map(|i| (i + offset) % thresholds.len())
            .map(|i| {
                let args = vec![Value::Float(thresholds[i])];
                (i, exec.call_table_udf("orders_above", args).unwrap().rows)
            })
            .collect()
    };
    let serial_exec = executor();
    let mut serial = call_all(&serial_exec, 0);
    serial.sort_by_key(|(i, _)| *i);
    assert_eq!(serial[3].1.len(), 10, "the ten orders of customer 10");
    assert_eq!(
        serial_exec.stats_snapshot().udf_invocations,
        thresholds.len() as u64
    );
    for round in 0..ROUNDS {
        let exec = executor();
        let start = std::sync::Barrier::new(THREADS);
        std::thread::scope(|scope| {
            for thread in 0..THREADS {
                let (exec, start, serial, call_all) = (&exec, &start, &serial, &call_all);
                scope.spawn(move || {
                    start.wait();
                    for (i, rows) in call_all(exec, thread) {
                        assert_eq!(rows, serial[i].1, "round {round} thread {thread} tuple {i}");
                    }
                });
            }
        });
        let stats = exec.stats_snapshot();
        assert_eq!(
            stats.udf_invocations,
            thresholds.len() as u64,
            "round {round}: one evaluation per distinct tuple"
        );
        assert_eq!(
            stats.udf_dedup_hits,
            ((THREADS - 1) * thresholds.len()) as u64,
            "round {round}: every other call is answered by the dedup tier"
        );
    }
}

#[test]
fn nested_udf_calls() {
    let (catalog, mut registry) = setup();
    registry.register_udf(
        parse_function(
            "create function double_it(float x) returns float as begin return x * 2; end",
        )
        .unwrap(),
    );
    registry.register_udf(
        parse_function(
            "create function quadruple(float x) returns float as \
             begin return double_it(double_it(x)); end",
        )
        .unwrap(),
    );
    let rs = run(&catalog, &registry, "select quadruple(2.5) as q");
    assert_eq!(rs.rows[0].get(0), &Value::Float(10.0));
}

#[test]
fn runtime_errors_are_reported() {
    let (catalog, registry) = setup();
    let exec = Executor::new(Arc::clone(&catalog), Arc::new(registry.clone()));
    // Unknown table.
    let plan = parse_and_plan("select x from nosuchtable").unwrap();
    assert_eq!(exec.execute(&plan).unwrap_err().kind(), "catalog");
    // Unknown function.
    let plan = parse_and_plan("select nosuchfn(custkey) from customer").unwrap();
    assert_eq!(exec.execute(&plan).unwrap_err().kind(), "catalog");
    // Unknown column.
    let plan = parse_and_plan("select nosuchcolumn from customer").unwrap();
    assert_eq!(exec.execute(&plan).unwrap_err().kind(), "binding");
    // Division by zero.
    let plan = parse_and_plan("select 1 / 0").unwrap();
    assert_eq!(exec.execute(&plan).unwrap_err().kind(), "execution");
}

#[test]
fn union_and_union_all() {
    let (catalog, registry) = setup();
    let a = parse_and_plan("select nationkey from customer where custkey <= 3").unwrap();
    let b = parse_and_plan("select nationkey from customer where custkey <= 3").unwrap();
    let union_all = decorr_algebra::RelExpr::Union {
        left: Box::new(a.clone()),
        right: Box::new(b.clone()),
        all: true,
    };
    let union_distinct = decorr_algebra::RelExpr::Union {
        left: Box::new(a),
        right: Box::new(b),
        all: false,
    };
    let exec = Executor::new(Arc::clone(&catalog), Arc::new(registry.clone()));
    assert_eq!(exec.execute(&union_all).unwrap().len(), 6);
    assert_eq!(exec.execute(&union_distinct).unwrap().len(), 3);
}

/// The executor's result schema is the schema inference the plan validator trusts: one
/// rule (`decorr_algebra::schema`), asserted over the operators that used to compute
/// their output schema with a private copy plus the Apply family around them.
#[test]
fn executed_schema_is_the_inferred_schema() {
    use decorr_algebra::plan::{ApplyKind, JoinKind, MergeAssignment, ParamBinding};
    use decorr_algebra::{infer_schema, AggCall, AggFunc, PlanBuilder, ScalarExpr as E};
    use decorr_udf::{AggregateDefinition, Statement, UdfParameter};

    let (catalog, mut registry) = setup();
    // A user-defined aggregate: its output column takes the declared return type.
    registry.register_aggregate(AggregateDefinition {
        name: "total_agg".into(),
        state: vec![("total".into(), DataType::Float, Value::Float(0.0))],
        params: vec![UdfParameter::new("amount", DataType::Float)],
        accumulate: vec![Statement::Assign {
            name: "total".into(),
            expr: E::binary(
                decorr_algebra::BinaryOp::Add,
                E::Param("total".into()),
                E::Param("amount".into()),
            ),
        }],
        terminate: E::Param("total".into()),
        return_type: DataType::Float,
    });
    let registry = Arc::new(registry);

    // Customers 6..=10 have orders above 500, so every Apply kind (anti included)
    // returns rows.
    let orders_of_customer = || {
        PlanBuilder::scan_as("orders", "o")
            .select(E::eq(
                E::qualified_column("o", "custkey"),
                E::qualified_column("c", "custkey"),
            ))
            .select(E::gt(E::column("totalprice"), E::literal(500.0)))
    };
    let mut plans = vec![
        (
            "project",
            PlanBuilder::scan_as("customer", "c").project(vec![
                (E::qualified_column("c", "custkey"), None),
                (E::column("name"), Some("who")),
                (
                    E::binary(
                        decorr_algebra::BinaryOp::Mul,
                        E::column("nationkey"),
                        E::literal(2),
                    ),
                    None,
                ),
            ]),
        ),
        (
            "distinct",
            PlanBuilder::scan("customer").project_distinct(vec![(E::column("nationkey"), None)]),
        ),
        (
            "group-by with a user-defined aggregate",
            PlanBuilder::scan("orders").aggregate(
                vec![
                    E::column("custkey"),
                    E::binary(
                        decorr_algebra::BinaryOp::Add,
                        E::column("orderkey"),
                        E::literal(0),
                    ),
                ],
                vec![
                    AggCall::new(
                        AggFunc::UserDefined("total_agg".into()),
                        vec![E::column("totalprice")],
                        "spent",
                    ),
                    AggCall::new(AggFunc::Max, vec![E::column("totalprice")], "top"),
                    AggCall::new(AggFunc::CountStar, vec![], "n"),
                ],
            ),
        ),
        (
            "left-outer join",
            PlanBuilder::scan_as("customer", "c").join(
                PlanBuilder::scan_as("orders", "o"),
                JoinKind::LeftOuter,
                Some(E::eq(
                    E::qualified_column("c", "custkey"),
                    E::qualified_column("o", "custkey"),
                )),
            ),
        ),
        (
            "apply-merge",
            PlanBuilder::scan_as("customer", "c")
                .project(vec![
                    (E::qualified_column("c", "custkey"), None),
                    (E::literal(0.0), Some("spent")),
                ])
                .apply_merge(
                    PlanBuilder::single().project(vec![(E::literal(1.5), Some("spent"))]),
                    vec![MergeAssignment::new("spent", "spent")],
                ),
        ),
    ];
    for kind in [
        ApplyKind::Cross,
        ApplyKind::LeftOuter,
        ApplyKind::LeftSemi,
        ApplyKind::LeftAnti,
    ] {
        plans.push((
            "apply",
            PlanBuilder::scan_as("customer", "c").apply(orders_of_customer(), kind, vec![]),
        ));
    }
    // The bind extension: the right side reads the outer key through a parameter.
    plans.push((
        "apply with a binding",
        PlanBuilder::scan_as("customer", "c").apply(
            PlanBuilder::scan_as("orders", "o")
                .select(E::eq(
                    E::qualified_column("o", "custkey"),
                    E::Param("k".into()),
                ))
                .aggregate(
                    vec![],
                    vec![AggCall::new(
                        AggFunc::Sum,
                        vec![E::column("totalprice")],
                        "spent",
                    )],
                ),
            ApplyKind::Cross,
            vec![ParamBinding::new("k", E::qualified_column("c", "custkey"))],
        ),
    ));

    for (label, builder) in plans {
        let plan = builder.build();
        let executor = Executor::new(Arc::clone(&catalog), Arc::clone(&registry));
        let executed = executor
            .execute(&plan)
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        let inferred = infer_schema(&plan, &executor.provider()).unwrap();
        assert_eq!(executed.schema, inferred, "{label}: {plan:?}");
        assert!(!executed.rows.is_empty(), "{label} returned no rows");
    }
}
