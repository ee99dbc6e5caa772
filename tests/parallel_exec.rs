//! Serial/parallel equivalence of the morsel-driven executor.
//!
//! The parallel engine's contract is strict: for every plan and every worker-pool
//! size, the parallel execution must produce **byte-identical** results to the serial
//! (inline) execution — same rows, same row order, same float rounding (aggregation
//! partitions by group key, so each group's accumulation chain stays in global row
//! order). These tests drive that contract with the deterministic property harness
//! used by `tests/rule_properties.rs`, across `parallelism ∈ {1, 2, 4, 8}`, and end to
//! end with a seeded SQL battery (cold and warm, analyzed or not, beside a racing
//! writer).

use udf_decorrelation::algebra::{
    AggCall, AggFunc, ApplyKind, BinaryOp, JoinKind, PlanBuilder, RelExpr, ScalarExpr as E,
};
use udf_decorrelation::common::{Column, DataType, Row, Schema, SmallRng, Value};
use udf_decorrelation::engine::{Engine, QueryOptions};
use udf_decorrelation::exec::{ExecConfig, Executor, ResultSet};
use udf_decorrelation::storage::Catalog;
use udf_decorrelation::tpch::{experiment1, experiment2, experiment3, load, TpchConfig};
use udf_decorrelation::udf::FunctionRegistry;

use std::sync::Arc;

const PARALLELISMS: [usize; 4] = [1, 2, 4, 8];
/// Small morsels so even the property-sized tables span many of them.
const TEST_MORSEL: usize = 16;

fn config_with(parallelism: usize) -> ExecConfig {
    ExecConfig {
        parallelism,
        morsel_size: TEST_MORSEL,
        ..ExecConfig::default()
    }
}

/// Executes `plan` serially and at every tested pool size; asserts byte-identical
/// results (including row order) and returns the serial result.
fn assert_parallel_equivalence(catalog: &Arc<Catalog>, plan: &RelExpr) -> ResultSet {
    let registry = Arc::new(FunctionRegistry::new());
    let serial = Executor::with_config(Arc::clone(catalog), Arc::clone(&registry), config_with(1))
        .execute(plan)
        .expect("serial execution");
    for p in PARALLELISMS {
        let executor =
            Executor::with_config(Arc::clone(catalog), Arc::clone(&registry), config_with(p));
        let parallel = executor.execute(plan).expect("parallel execution");
        assert_eq!(
            serial, parallel,
            "parallel execution at {p} workers diverged from serial"
        );
        assert_eq!(serial.canonical(), parallel.canonical());
    }
    serial
}

/// Deterministic per-case RNG driver (same scheme as `tests/rule_properties.rs`).
fn check_property(name: &str, cases: u64, property: impl Fn(&mut SmallRng)) {
    for case in 0..cases {
        let seed = 0x9A11_0000 + case;
        let mut rng = SmallRng::seed_from_u64(seed);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            property(&mut rng);
        }));
        if let Err(panic) = result {
            eprintln!("property '{name}' failed for seed {seed:#x} (case {case})");
            std::panic::resume_unwind(panic);
        }
    }
}

/// A catalog with one `accounts(id, grp, amount)` table of `n` random rows.
fn random_accounts(rng: &mut SmallRng, min: usize, max: usize) -> Catalog {
    let mut catalog = Catalog::new();
    catalog
        .create_table(
            "accounts",
            Schema::new(vec![
                Column::new("id", DataType::Int),
                Column::new("grp", DataType::Int),
                Column::new("amount", DataType::Float),
            ]),
        )
        .unwrap();
    let n = rng.gen_range_usize(min, max);
    catalog
        .insert_rows(
            "accounts",
            (0..n)
                .map(|_| {
                    Row::new(vec![
                        Value::Int(rng.gen_range_i64(0, 200)),
                        Value::Int(rng.gen_range_i64(0, 9)),
                        Value::Float(rng.gen_range_f64(-1000.0, 1000.0)),
                    ])
                })
                .collect(),
        )
        .unwrap();
    catalog
}

/// One random plan over the accounts table, covering every parallelised operator:
/// filter, project, hash aggregation (float sums included), equi-join, Apply with a
/// correlated scalar aggregate, and sort.
fn random_plan(rng: &mut SmallRng) -> RelExpr {
    match rng.gen_range_usize(0, 6) {
        0 => {
            // σ + Π with arithmetic.
            let threshold = rng.gen_range_f64(-500.0, 500.0);
            PlanBuilder::scan("accounts")
                .select(E::gt(E::column("amount"), E::literal(threshold)))
                .project(vec![
                    (E::column("id"), None),
                    (
                        E::binary(
                            udf_decorrelation::algebra::BinaryOp::Mul,
                            E::column("amount"),
                            E::literal(2),
                        ),
                        Some("doubled"),
                    ),
                ])
                .build()
        }
        1 => {
            // Grouped hash aggregation with order-sensitive float accumulators.
            PlanBuilder::scan("accounts")
                .aggregate(
                    vec![E::column("grp")],
                    vec![
                        AggCall::new(AggFunc::Sum, vec![E::column("amount")], "total"),
                        AggCall::new(AggFunc::Avg, vec![E::column("amount")], "mean"),
                        AggCall::new(AggFunc::CountStar, vec![], "n"),
                        AggCall::new(AggFunc::Min, vec![E::column("amount")], "lo"),
                        AggCall::new(AggFunc::Max, vec![E::column("amount")], "hi"),
                    ],
                )
                .build()
        }
        2 => {
            // Scalar (ungrouped) float aggregate: one accumulation chain.
            PlanBuilder::scan("accounts")
                .aggregate(
                    vec![],
                    vec![AggCall::new(AggFunc::Sum, vec![E::column("amount")], "s")],
                )
                .build()
        }
        3 => {
            // Self equi-join (hash path once the inputs clear the threshold).
            let limit = rng.gen_range_f64(-500.0, 500.0);
            PlanBuilder::scan_as("accounts", "a")
                .join(
                    PlanBuilder::scan_as("accounts", "b")
                        .select(E::gt(E::qualified_column("b", "amount"), E::literal(limit))),
                    JoinKind::Inner,
                    Some(E::eq(
                        E::qualified_column("a", "grp"),
                        E::qualified_column("b", "grp"),
                    )),
                )
                .project(vec![
                    (E::qualified_column("a", "id"), None),
                    (E::qualified_column("b", "id"), Some("other")),
                ])
                .build()
        }
        4 => {
            // Correlated Apply: per-row scalar aggregate over the same table.
            let inner = PlanBuilder::scan_as("accounts", "inner_side")
                .select(E::eq(
                    E::qualified_column("inner_side", "grp"),
                    E::qualified_column("outer_side", "grp"),
                ))
                .aggregate(
                    vec![],
                    vec![AggCall::new(
                        AggFunc::Sum,
                        vec![E::qualified_column("inner_side", "amount")],
                        "total",
                    )],
                );
            PlanBuilder::scan_as("accounts", "outer_side")
                .apply(inner, ApplyKind::Cross, vec![])
                .project(vec![
                    (E::qualified_column("outer_side", "id"), None),
                    (E::column("total"), None),
                ])
                .build()
        }
        _ => {
            // Sort over a filtered scan (tie-heavy keys exercise merge stability).
            let threshold = rng.gen_range_f64(-500.0, 500.0);
            PlanBuilder::scan("accounts")
                .select(E::gt(E::column("amount"), E::literal(threshold)))
                .sort(vec![(E::column("grp"), rng.gen_range_usize(0, 2) == 0)])
                .build()
        }
    }
}

#[test]
fn random_plans_are_parallelism_invariant() {
    check_property("random_plans_are_parallelism_invariant", 40, |rng| {
        let catalog = Arc::new(random_accounts(rng, 60, 220));
        let plan = random_plan(rng);
        assert_parallel_equivalence(&catalog, &plan);
    });
}

#[test]
fn morsel_edge_cases_fall_back_to_serial_semantics() {
    // Empty table, table smaller than one morsel, and a single worker must all produce
    // the serial result (and the first two never dispatch morsels at all).
    let registry = Arc::new(FunctionRegistry::new());
    for rows in [0usize, 5] {
        let mut catalog = Catalog::new();
        catalog
            .create_table(
                "accounts",
                Schema::new(vec![
                    Column::new("id", DataType::Int),
                    Column::new("grp", DataType::Int),
                    Column::new("amount", DataType::Float),
                ]),
            )
            .unwrap();
        catalog
            .insert_rows(
                "accounts",
                (0..rows as i64)
                    .map(|i| Row::new(vec![Value::Int(i), Value::Int(i % 2), Value::Float(1.5)]))
                    .collect(),
            )
            .unwrap();
        let plan = PlanBuilder::scan("accounts")
            .aggregate(
                vec![],
                vec![AggCall::new(AggFunc::Sum, vec![E::column("amount")], "s")],
            )
            .build();
        let catalog = Arc::new(catalog);
        let serial =
            Executor::with_config(Arc::clone(&catalog), Arc::clone(&registry), config_with(1))
                .execute(&plan)
                .unwrap();
        let parallel_exec = Executor::with_config(
            Arc::clone(&catalog),
            Arc::clone(&registry),
            ExecConfig {
                parallelism: 4,
                morsel_size: 8,
                ..ExecConfig::default()
            },
        );
        let parallel = parallel_exec.execute(&plan).unwrap();
        assert_eq!(serial, parallel, "{rows} rows");
        assert_eq!(
            parallel_exec.stats_snapshot().morsels_dispatched,
            0,
            "inputs within one morsel must not fan out"
        );
    }
}

#[test]
fn single_worker_parallelism_is_the_serial_path() {
    let mut rng = SmallRng::seed_from_u64(0x51);
    let catalog = Arc::new(random_accounts(&mut rng, 100, 150));
    let plan = random_plan(&mut rng);
    let registry = Arc::new(FunctionRegistry::new());
    let executor = Executor::with_config(catalog, registry, config_with(1));
    executor.execute(&plan).unwrap();
    let stats = executor.stats_snapshot();
    assert_eq!(stats.morsels_dispatched, 0);
    assert_eq!(stats.parallel_operators, 0);
    assert!(executor.trace_snapshot().is_empty());
}

/// Satellite regression: `ResultSet::canonical()` (and the raw row order beneath it)
/// must be deterministic regardless of worker interleaving — repeated parallel runs of
/// the same query are byte-identical to each other and to the serial run.
#[test]
fn canonical_is_deterministic_across_worker_interleavings() {
    let engine = parallel_db(200);
    let session = engine.session();
    let sql = "select custkey, service_level(custkey) as level from customer";
    let serial = session
        .query_with(sql, &options_with_parallelism(1))
        .unwrap();
    let mut canonicals = vec![];
    for _ in 0..5 {
        let parallel = session
            .query_with(sql, &options_with_parallelism(4))
            .unwrap();
        assert_eq!(serial.rows, parallel.rows, "row order diverged from serial");
        canonicals.push(
            ResultSet {
                schema: parallel.schema.clone(),
                rows: parallel.rows.clone(),
            }
            .canonical(),
        );
    }
    assert!(
        canonicals.windows(2).all(|w| w[0] == w[1]),
        "canonical() varied across runs"
    );
}

fn parallel_db(customers: usize) -> Engine {
    let engine = load(&TpchConfig::tiny().with_customers(customers)).unwrap();
    experiment2().install(&engine).unwrap();
    engine
}

/// [`parallel_db`]'s data and UDF on an engine built with `parallelism` workers.
fn parallel_db_with_pool(customers: usize, parallelism: usize) -> Engine {
    let loaded = parallel_db(customers);
    Engine::builder()
        .catalog((*loaded.catalog()).clone())
        .registry((*loaded.registry()).clone())
        .parallelism(parallelism)
        .build()
}

fn options_with_parallelism(parallelism: usize) -> QueryOptions {
    QueryOptions {
        exec_config: Some(ExecConfig {
            parallelism,
            morsel_size: TEST_MORSEL,
            // These tests compare logical work across repeated runs of one database;
            // the cross-query memo would turn later runs into pure cache hits.
            udf_memoization: false,
            ..ExecConfig::default()
        }),
        ..QueryOptions::default()
    }
}

/// End-to-end engine equivalence on the paper's three experiment workloads, both
/// execution strategies, across the tested pool sizes.
#[test]
fn experiment_workloads_are_parallelism_invariant_end_to_end() {
    for (workload, invocations) in [(experiment1(), 40), (experiment2(), 30), (experiment3(), 8)] {
        let engine = load(&TpchConfig::tiny()).unwrap();
        let session = engine.session();
        workload.install(&engine).unwrap();
        let sql = (workload.query)(invocations);
        for strategy in [
            QueryOptions::iterative,
            QueryOptions::decorrelated,
            QueryOptions::default,
        ] {
            let serial = session
                .query_with(&sql, &with_config(strategy(), 1))
                .unwrap_or_else(|e| panic!("{}: serial: {e}", workload.name));
            for p in PARALLELISMS {
                let parallel = session
                    .query_with(&sql, &with_config(strategy(), p))
                    .unwrap_or_else(|e| panic!("{}: parallel {p}: {e}", workload.name));
                assert_eq!(
                    serial.rows, parallel.rows,
                    "{}: parallelism {p} diverged",
                    workload.name
                );
                // The counters that describe the *logical* work must not depend on the
                // pool size.
                assert_eq!(
                    serial.exec_stats.udf_invocations,
                    parallel.exec_stats.udf_invocations
                );
                assert_eq!(
                    serial.exec_stats.rows_scanned,
                    parallel.exec_stats.rows_scanned
                );
                assert_eq!(serial.exec_stats.hash_joins, parallel.exec_stats.hash_joins);
            }
        }
    }
}

fn with_config(mut options: QueryOptions, parallelism: usize) -> QueryOptions {
    options.exec_config = Some(ExecConfig {
        parallelism,
        morsel_size: TEST_MORSEL,
        // See `options_with_parallelism`: logical-work counters must not depend on
        // how warm the cross-query memo is.
        udf_memoization: false,
        ..ExecConfig::default()
    });
    options
}

/// The helper budget: set once when the engine is built with `parallelism(4)`, drawn on
/// by every query that fans out, and whole again as soon as a query returns — a
/// dispatch joins its helpers before it returns, so nothing is left running.
#[test]
fn helper_budget_is_shared_across_queries() {
    let engine = parallel_db_with_pool(300, 4);
    let session = engine.session();
    let sql = "select custkey, service_level(custkey) as level from customer";
    assert_eq!(engine.worker_pool_stats().workers, 4);
    let mut dispatches_seen = 0;
    for round in 0..3 {
        // Small morsels so the operators actually fan out on this data size.
        let result = session
            .query_with(sql, &options_with_parallelism(4))
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
        assert!(result.exec_stats.parallel_operators > 0, "round {round}");
        let stats = engine.worker_pool_stats();
        assert_eq!((stats.workers, stats.in_flight), (4, 0), "round {round}");
        assert!(stats.dispatches > dispatches_seen, "round {round}");
        dispatches_seen = stats.dispatches;
    }
    // A serial engine has no budget until a session asks for one.
    assert_eq!(parallel_db(10).worker_pool_stats().workers, 0);
}

/// A standalone executor drawing on `engine`'s helper budget, as the engine's own do.
fn executor_on(engine: &Engine, parallelism: usize) -> Executor {
    Executor::with_config(
        engine.catalog(),
        engine.registry(),
        config_with(parallelism),
    )
    .with_worker_pool(engine.worker_pool())
}

/// Panic safety: a dispatch whose task panics (a UDF exploding mid-morsel) fails with
/// an `Error`, its helpers are joined and returned to the budget, and the next dispatch
/// on the same executor and the next query on the same engine run normally.
#[test]
fn panicked_batch_leaves_the_engine_pool_usable() {
    let engine = parallel_db_with_pool(300, 4);
    let session = engine.session();
    let executor = executor_on(&engine, 4);
    let err = executor
        .run_morsels(
            || "panicky".to_string(),
            0,
            8 * TEST_MORSEL,
            |_, range| -> udf_decorrelation::common::Result<Vec<Row>> {
                assert!(!range.contains(&(5 * TEST_MORSEL)), "udf panic");
                Ok(vec![])
            },
        )
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "execution error: morsel worker panicked: udf panic"
    );
    assert_eq!(engine.worker_pool_stats().in_flight, 0);
    let starts = executor
        .run_morsels(
            || "fine".to_string(),
            0,
            8 * TEST_MORSEL,
            |_, range| Ok(vec![range.start]),
        )
        .unwrap();
    assert_eq!(starts, (0..8).map(|m| m * TEST_MORSEL).collect::<Vec<_>>());
    let sql = "select custkey, service_level(custkey) as level from customer";
    let serial = session
        .query_with(sql, &options_with_parallelism(1))
        .unwrap();
    let parallel = session
        .query_with(sql, &options_with_parallelism(4))
        .unwrap();
    assert_eq!(serial.rows, parallel.rows);
    assert!(parallel.exec_stats.parallel_operators > 0);
    assert_eq!(engine.worker_pool_stats().in_flight, 0);
}

/// A dispatch never waits for another's helpers: while one dispatch holds the whole
/// budget, a query big enough to fan out runs inline instead — same rows, no parallel
/// operator — and fans out again once the budget is free.
#[test]
fn a_query_that_finds_the_budget_held_runs_inline() {
    use std::sync::Barrier;
    let engine = parallel_db_with_pool(300, 2);
    let session = engine.session();
    let sql = "select custkey, service_level(custkey) as level from customer \
               where custkey > 10";
    let expected = session
        .query_with(sql, &options_with_parallelism(1))
        .unwrap();
    // The holder leases 2 helpers — the whole budget — and parks both in their first
    // task until the query below has run.
    let holder = executor_on(&engine, 2);
    let (holding, release) = (Barrier::new(3), Barrier::new(3));
    std::thread::scope(|scope| {
        scope.spawn(|| {
            holder
                .run_morsels(
                    || "holder".to_string(),
                    0,
                    2 * TEST_MORSEL,
                    |_, _| -> udf_decorrelation::common::Result<Vec<Row>> {
                        holding.wait();
                        release.wait();
                        Ok(vec![])
                    },
                )
                .unwrap();
        });
        holding.wait();
        let stats = engine.worker_pool_stats();
        assert_eq!((stats.workers, stats.in_flight), (2, 2));
        let squeezed = session
            .query_with(sql, &options_with_parallelism(2))
            .unwrap();
        assert_eq!(squeezed.rows, expected.rows);
        assert_eq!(squeezed.exec_stats.parallel_operators, 0);
        assert_eq!(squeezed.exec_stats.morsels_dispatched, 0);
        assert!(squeezed.exec_trace.is_empty());
        release.wait();
    });
    assert_eq!(engine.worker_pool_stats().in_flight, 0);
    let free = session
        .query_with(sql, &options_with_parallelism(2))
        .unwrap();
    assert_eq!(free.rows, expected.rows);
    assert!(free.exec_stats.parallel_operators > 0);
}

/// Four sessions at `parallelism = 4` run the figure queries at once on one engine:
/// every result matches the serial rows, and the helpers in flight — sampled while
/// they run — never exceed the engine's budget.
#[test]
fn concurrent_sessions_stay_within_the_helper_budget() {
    use std::sync::atomic::{AtomicBool, Ordering};
    let loaded = load(&TpchConfig::tiny().with_customers(120)).unwrap();
    let workloads = [
        (experiment1(), 400),
        (experiment2(), 100),
        (experiment3(), 8),
    ];
    for (workload, _) in &workloads {
        workload.install(&loaded).unwrap();
    }
    let engine = Engine::builder()
        .catalog((*loaded.catalog()).clone())
        .registry((*loaded.registry()).clone())
        .parallelism(4)
        .build();
    let queries: Vec<(String, QueryOptions)> = workloads
        .iter()
        .flat_map(|(workload, invocations)| {
            let sql = (workload.query)(*invocations);
            [QueryOptions::iterative(), QueryOptions::decorrelated()].map(|o| (sql.clone(), o))
        })
        .collect();
    let serial: Vec<Vec<Row>> = queries
        .iter()
        .map(|(sql, options)| {
            let options = with_config(options.clone(), 1);
            engine.session().query_with(sql, &options).unwrap().rows
        })
        .collect();
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let clients: Vec<_> = (0..4)
            .map(|client| {
                let (engine, queries, serial) = (&engine, &queries, &serial);
                scope.spawn(move || {
                    let session = engine.session();
                    let mut fanned_out = 0;
                    for round in 0..3 {
                        for (i, (sql, options)) in queries.iter().enumerate() {
                            let options = with_config(options.clone(), 4);
                            let result = session.query_with(sql, &options).unwrap();
                            assert_eq!(result.rows, serial[i], "client {client} round {round}");
                            fanned_out += result.exec_stats.parallel_operators;
                        }
                    }
                    fanned_out
                })
            })
            .collect();
        scope.spawn(|| {
            while !done.load(Ordering::Relaxed) {
                let stats = engine.worker_pool_stats();
                assert!(stats.in_flight <= stats.workers, "{stats:?}");
                std::thread::yield_now();
            }
        });
        let fanned_out: u64 = clients.into_iter().map(|c| c.join().unwrap()).sum();
        done.store(true, Ordering::Relaxed);
        assert!(fanned_out > 0, "no client ever got a helper");
    });
    let stats = engine.worker_pool_stats();
    assert_eq!((stats.workers, stats.in_flight), (4, 0));
}

/// Rows in two different morsels raise two different runtime errors: the query reports
/// the one a serial run meets first, whatever the thread count (of the failing tasks,
/// the lowest index wins).
#[test]
fn the_first_failing_row_decides_the_error_at_any_parallelism() {
    let mut catalog = Catalog::new();
    let int = |name| Column::new(name, DataType::Int);
    catalog
        .create_table("t", Schema::new(vec![int("id"), int("v"), int("d")]))
        .unwrap();
    let rows = (0..200i64).map(|id| {
        let (v, d) = match id {
            150 => (1, 0),
            70 => (i64::MAX, 1),
            _ => (1, 1),
        };
        Row::new(vec![Value::Int(id), Value::Int(v), Value::Int(d)])
    });
    catalog.insert_rows("t", rows.collect()).unwrap();
    let engine = Engine::builder().catalog(catalog).build();
    let session = engine.session();
    for sql in [
        "select id, (v + 1000) / d as w from t",
        "select id from t where (v + 1000) / d > 0",
    ] {
        let errors: Vec<String> = [1, 2, 4]
            .into_iter()
            .map(|p| {
                let err = session.query_with(sql, &options_with_parallelism(p));
                err.unwrap_err().to_string()
            })
            .collect();
        assert!(errors[0].contains("integer overflow"), "{}", errors[0]);
        assert_eq!(errors[1], errors[0], "{sql} at parallelism 2");
        assert_eq!(errors[2], errors[0], "{sql} at parallelism 4");
    }
    // The other order: the division by zero comes first.
    let sql = "select id, (v + 1000) / d as w from t where id > 100 or id < 60";
    for p in [1, 2, 4] {
        let err = session.query_with(sql, &options_with_parallelism(p));
        let err = err.unwrap_err().to_string();
        assert!(err.contains("division by zero"), "parallelism {p}: {err}");
    }
}

/// Filter/project chains: a scan→filter→project query run inline (`parallelism == 1`)
/// and fanned out to the pool produces byte-identical rows and identical per-node
/// actual cardinalities, and the pooled run reports the chain as one fused operator.
///
/// Counter semantics: `pipelined_operators`, `parallel_operators` and
/// `morsels_dispatched` count operators that fanned out, so they stay 0 at
/// `parallelism == 1`, where the same chain runs on the calling thread.
#[test]
fn pipelined_chains_match_materialized_execution() {
    let engine = parallel_db(400);
    let session = engine.session();
    let sql = "select custkey, service_level(custkey) as level from customer \
               where custkey > 10";
    let serial = session
        .query_with(sql, &options_with_parallelism(1))
        .unwrap();
    let fused = session
        .query_with(sql, &options_with_parallelism(4))
        .unwrap();
    assert_eq!(serial.rows, fused.rows);
    assert!(
        fused.exec_stats.pipelined_operators > 0,
        "fusion did not engage: {:?}",
        fused.exec_stats
    );
    assert_eq!(serial.exec_stats.pipelined_operators, 0);
    // The fused trace reports the chain as one operator with its fused depth.
    assert!(
        fused
            .exec_trace
            .operators
            .iter()
            .any(|op| op.operator.starts_with("pipeline(") && op.pipelined_stages >= 2),
        "no pipelined operator in trace:\n{}",
        fused.exec_trace.render()
    );
    // Scan, filter and project (and the UDF body's nodes beneath them) record the
    // same actuals on both routes. The strategy is pinned: `Auto` costs a plan by
    // pool size and may pick different plans for 1 and 4 workers.
    let actuals = |parallelism| {
        let mut options = with_config(QueryOptions::iterative(), parallelism);
        if let Some(config) = &mut options.exec_config {
            config.collect_cardinalities = true;
        }
        session
            .query_with(sql, &options)
            .unwrap()
            .node_cardinalities
    };
    let inline = actuals(1);
    assert!(inline.len() >= 3, "{inline:?}");
    assert_eq!(inline, actuals(4));
}

/// Satellite regression: a degenerate `morsel_size: 0` (or `parallelism: 0`) literal
/// is clamped at executor construction instead of degenerating into one-row morsels,
/// and `Engine::builder().parallelism(0)` clamps to serial.
#[test]
fn degenerate_exec_config_is_clamped() {
    let mut rng = SmallRng::seed_from_u64(0xC1A);
    let catalog = std::sync::Arc::new(random_accounts(&mut rng, 100, 120));
    let registry = std::sync::Arc::new(FunctionRegistry::new());
    let plan = PlanBuilder::scan("accounts")
        .select(E::gt(E::column("amount"), E::literal(0)))
        .build();
    let serial = Executor::with_config(
        std::sync::Arc::clone(&catalog),
        std::sync::Arc::clone(&registry),
        config_with(1),
    )
    .execute(&plan)
    .unwrap();
    let degenerate = Executor::with_config(
        std::sync::Arc::clone(&catalog),
        std::sync::Arc::clone(&registry),
        ExecConfig {
            parallelism: 4,
            morsel_size: 0,
            ..ExecConfig::default()
        },
    );
    assert_eq!(degenerate.config.morsel_size, 1, "clamped at construction");
    let result = degenerate.execute(&plan).unwrap();
    assert_eq!(serial, result);
    let rows = catalog.table("accounts").unwrap().row_count() as u64;
    assert!(
        degenerate.stats_snapshot().morsels_dispatched < rows,
        "morsel_size 0 must not degenerate into one-row morsels ({} morsels for {} rows)",
        degenerate.stats_snapshot().morsels_dispatched,
        rows
    );
    // A 1-row input never fans out, even with the clamped 1-row morsel floor.
    let tiny = Executor::with_config(
        std::sync::Arc::clone(&catalog),
        registry,
        ExecConfig {
            parallelism: 0,
            morsel_size: 0,
            ..ExecConfig::default()
        },
    );
    assert_eq!(tiny.config.parallelism, 1, "parallelism 0 clamps to serial");
    // Engine-level clamp.
    let engine = Engine::builder().parallelism(0).build();
    assert_eq!(engine.parallelism(), 1);
    assert_eq!(engine.worker_pool_stats().workers, 0);
}

/// A parallel run populates the per-operator execution trace and the morsel counters.
#[test]
fn parallel_runs_record_an_execution_trace() {
    let engine = parallel_db(300);
    let session = engine.session();
    let sql = "select custkey, service_level(custkey) as level from customer";
    let result = session
        .query_with(sql, &options_with_parallelism(4))
        .unwrap();
    assert!(result.exec_stats.morsels_dispatched > 0);
    assert!(result.exec_stats.parallel_operators > 0);
    assert!(!result.exec_trace.is_empty());
    let rendered = result.exec_trace.render();
    assert!(rendered.contains("morsels"), "{rendered}");
    for op in &result.exec_trace.operators {
        assert!(op.workers >= 1 && op.workers <= 4);
        assert!(op.morsels > 0);
        assert_eq!(op.rows_per_worker.len(), op.workers);
    }
}

// ------------------------------------------- byte-identity battery, end to end

const BATTERY_CUSTOMERS: i64 = 50;
const BATTERY_ORDERS_PER_CUSTOMER: i64 = 40;

/// Seeded customer/orders data (orders span several storage chunks and many morsels),
/// the paper's `service_level` UDF, and an `events` table only the racing writer
/// touches. Identical at every pool size.
fn battery_engine(parallelism: usize) -> Engine {
    let engine = Engine::builder()
        .exec_config(config_with(parallelism))
        .build();
    let admin = engine.session();
    admin
        .execute(
            "create table customer(custkey int not null, name varchar(25)); \
             create table orders(orderkey int not null, custkey int, totalprice float); \
             create table events(id int not null, amount float)",
        )
        .unwrap();
    let customers: Vec<Row> = (1..=BATTERY_CUSTOMERS)
        .map(|i| Row::new(vec![Value::Int(i), Value::str(format!("Customer#{i}"))]))
        .collect();
    engine.insert_rows("customer", customers).unwrap();
    let orders: Vec<Row> = (0..BATTERY_CUSTOMERS * BATTERY_ORDERS_PER_CUSTOMER)
        .map(|n| {
            let (i, j) = (
                n / BATTERY_ORDERS_PER_CUSTOMER + 1,
                n % BATTERY_ORDERS_PER_CUSTOMER,
            );
            Row::new(vec![
                Value::Int(n + 1),
                Value::Int(i),
                Value::Float(500.0 * i as f64 + 13.0 * j as f64),
            ])
        })
        .collect();
    engine.insert_rows("orders", orders).unwrap();
    admin
        .register_function(
            "create function service_level(int ckey) returns varchar(10) as \
             begin \
               float totalbusiness; string level; \
               select sum(totalprice) into :totalbusiness from orders where custkey = :ckey; \
               if (totalbusiness > 200000) level = 'Platinum'; \
               else if (totalbusiness > 50000) level = 'Gold'; \
               else level = 'Regular'; \
               return level; \
             end",
        )
        .unwrap();
    engine
}

/// One pass of the seeded query battery; returns every result verbatim (no sorting —
/// row *order* is part of the byte-identity contract).
fn run_battery(engine: &Engine, seed: u64) -> Vec<String> {
    let session = engine.session();
    let mut log = vec![];
    let mut push = |sql: &str| {
        let result = session.query(sql).unwrap();
        let rows: Vec<String> = result.rows.iter().map(|r| format!("{r:?}")).collect();
        log.push(format!("{sql} => {}", rows.join("|")));
    };
    push("select custkey, name from customer");
    push("select orderkey, totalprice from orders where custkey = 7");
    push("select orderkey from orders where totalprice >= 5000 and totalprice <= 9000");
    push("select custkey, sum(totalprice) as total from orders group by custkey");
    push("select o.orderkey from customer c join orders o on c.custkey = o.custkey where o.totalprice > 20000");
    push("select custkey, service_level(custkey) as level from customer");
    // Seeded random range scans, some reaching past the last order.
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..8 {
        let lo = rng.gen_range_i64(1, 2200);
        let hi = lo + rng.gen_range_i64(1, 500);
        push(&format!(
            "select orderkey, custkey from orders where orderkey >= {lo} and orderkey <= {hi}"
        ));
    }
    log
}

/// Results are byte-identical at parallelism 1 and 4, cold and warm, analyzed or not —
/// including while another session races inserts into an unrelated table.
#[test]
fn results_are_byte_identical_across_parallelism_cold_warm_and_analyzed() {
    let reference_engine = battery_engine(1);
    let reference = run_battery(&reference_engine, 42);
    assert_eq!(
        reference,
        run_battery(&reference_engine, 42),
        "warm caches changed a result on the reference configuration"
    );
    for parallelism in [1usize, 4] {
        let engine = battery_engine(parallelism);
        // Racing inserter: concurrent copy-on-write appends to `events` publish new
        // catalog epochs while the battery scans customer/orders snapshots.
        let writer = engine.session();
        let inserter = std::thread::spawn(move || {
            for i in 0..200 {
                writer
                    .execute(&format!("insert into events values ({i}, {i}.5)"))
                    .unwrap();
                if i == 100 {
                    writer.execute("analyze events").unwrap();
                }
            }
        });
        let cold = run_battery(&engine, 42);
        inserter.join().unwrap();
        assert_eq!(
            reference, cold,
            "cold run diverged at parallelism={parallelism}"
        );
        // ANALYZE changes estimates and so possibly plans; the rows a query returns
        // must not move by a byte.
        engine.session().execute("analyze orders").unwrap();
        let warm = run_battery(&engine, 42);
        assert_eq!(
            reference, warm,
            "analyzed warm run diverged at parallelism={parallelism}"
        );
    }
}

// ------------------------------------------------------------- join kinds, by hand

/// `l(a, k)` = (1, 1), (2, 2), (3, NULL), (4, 1000); `r(k, v)` = (k, 10k) for k in
/// 0..200, a second k = 2 row (2, 21), then (1, 11), (2, 22) and (NULL, 0): past the
/// hash-join threshold, and with a hash index on `r.k` when `index_right` is set.
fn join_kinds_catalog(index_right: bool) -> Arc<Catalog> {
    let mut catalog = Catalog::new();
    let int = |name: &str| Column::new(name, DataType::Int);
    catalog
        .create_table("l", Schema::new(vec![int("a"), int("k")]))
        .unwrap();
    catalog
        .create_table("r", Schema::new(vec![int("k"), int("v")]))
        .unwrap();
    let left = [(1, Some(1)), (2, Some(2)), (3, None), (4, Some(1000))];
    catalog
        .insert_rows(
            "l",
            left.iter()
                .map(|&(a, k)| Row::new(vec![Value::Int(a), k.map_or(Value::Null, Value::Int)]))
                .collect(),
        )
        .unwrap();
    let row =
        |k: Option<i64>, v: i64| Row::new(vec![k.map_or(Value::Null, Value::Int), Value::Int(v)]);
    let right = (0..200).map(|k| (k, 10 * k)).chain([(2, 21)]);
    catalog
        .insert_rows("r", right.map(|(k, v)| row(Some(k), v)).collect())
        .unwrap();
    if index_right {
        catalog.create_index("r", "k").unwrap();
    }
    // Rows inserted while a snapshot shares the index land in its delta tier (the 201
    // base postings keep two delta postings from being folded), after every base
    // posting of their key. A NULL right key is never indexed and never matches.
    let snapshot = catalog.clone();
    catalog
        .insert_rows("r", vec![row(Some(1), 11), row(Some(2), 22), row(None, 0)])
        .unwrap();
    drop(snapshot);
    Arc::new(catalog)
}

/// Renders rows as `a,k|k,v` tuples, NULL as `-`, in result order.
fn rendered(result: &ResultSet) -> Vec<String> {
    result
        .rows
        .iter()
        .map(|row| {
            let values: Vec<String> = row
                .values
                .iter()
                .map(|v| match v {
                    Value::Null => "-".to_string(),
                    v => v.to_string(),
                })
                .collect();
            values.join(",")
        })
        .collect()
}

/// Every join kind on all three join algorithms, with and without a residual
/// predicate, at one and two threads, against rows worked out by hand: each match
/// emitted once, in left-row then right-row order (the index route's delta-tier rows
/// after its base-tier ones), an outer join's unmatched rows NULL-extended, a semi or
/// anti join's left rows whole, and a NULL key matching nothing.
#[test]
fn every_join_kind_emits_the_hand_computed_rows() {
    let catalog = join_kinds_catalog(false);
    let indexed = join_kinds_catalog(true);
    let lk = || E::qualified_column("l", "k");
    let rk = || E::qualified_column("r", "k");
    let equi = E::eq(lk(), rk());
    // The same equality as two range conjuncts: no equi key, so a nested-loop join.
    let ranged = E::and(
        E::binary(BinaryOp::LtEq, lk(), rk()),
        E::binary(BinaryOp::GtEq, lk(), rk()),
    );
    let residual = E::gt(E::qualified_column("r", "v"), E::literal(15));
    let (m1, m1b) = ("1,1,1,10", "1,1,1,11");
    let (m2, m2b, m2c) = ("2,2,2,20", "2,2,2,21", "2,2,2,22");
    let (n1, n3, n4) = ("1,1,-,-", "3,-,-,-", "4,1000,-,-");
    let plain: [(JoinKind, Vec<&str>); 4] = [
        (JoinKind::Inner, vec![m1, m1b, m2, m2b, m2c]),
        (JoinKind::LeftOuter, vec![m1, m1b, m2, m2b, m2c, n3, n4]),
        (JoinKind::LeftSemi, vec!["1,1", "2,2"]),
        (JoinKind::LeftAnti, vec!["3,-", "4,1000"]),
    ];
    let filtered: [(JoinKind, Vec<&str>); 4] = [
        (JoinKind::Inner, vec![m2, m2b, m2c]),
        (JoinKind::LeftOuter, vec![n1, m2, m2b, m2c, n3, n4]),
        (JoinKind::LeftSemi, vec!["2,2"]),
        (JoinKind::LeftAnti, vec!["1,1", "3,-", "4,1000"]),
    ];
    // (algorithm, catalog, condition, expected (hash, index, nested-loop) joins)
    let algorithms = [
        ("hash", &catalog, &equi, (1, 0, 0)),
        ("nested-loop", &catalog, &ranged, (0, 0, 1)),
        ("index", &indexed, &equi, (0, 1, 0)),
    ];
    for parallelism in [1, 2] {
        let config = ExecConfig {
            parallelism,
            morsel_size: 2,
            ..ExecConfig::default()
        };
        let executor_on = |catalog: &Arc<Catalog>| {
            Executor::with_config(
                Arc::clone(catalog),
                Arc::new(FunctionRegistry::new()),
                config.clone(),
            )
        };
        for (algorithm, catalog, condition, joins) in algorithms {
            let executor = executor_on(catalog);
            for (with_residual, expected) in [(false, &plain), (true, &filtered)] {
                let condition = if with_residual {
                    E::and(condition.clone(), residual.clone())
                } else {
                    condition.clone()
                };
                for (kind, rows) in expected {
                    let plan = RelExpr::Join {
                        left: Box::new(RelExpr::scan("l")),
                        right: Box::new(RelExpr::scan("r")),
                        kind: *kind,
                        condition: Some(condition.clone()),
                    };
                    let before = executor.stats_snapshot();
                    let result = executor.execute(&plan).unwrap();
                    let after = executor.stats_snapshot();
                    let case = format!(
                        "{kind} join, {algorithm}, residual={with_residual}, \
                         parallelism={parallelism}"
                    );
                    assert_eq!(rendered(&result), *rows, "{case}");
                    let counted = (
                        after.hash_joins - before.hash_joins,
                        after.index_joins - before.index_joins,
                        after.nested_loop_joins - before.nested_loop_joins,
                    );
                    assert_eq!(counted, joins, "{case}");
                    // The index route probes once per non-NULL left key and scans
                    // only the left table.
                    let probes = after.index_lookups - before.index_lookups;
                    let scanned = after.rows_scanned - before.rows_scanned;
                    let (want_probes, want_scanned) = if algorithm == "index" {
                        (3, 4)
                    } else {
                        (0, 4 + 204)
                    };
                    assert_eq!((probes, scanned), (want_probes, want_scanned), "{case}");
                    assert_eq!(
                        result.schema.len(),
                        if kind.left_only() { 2 } else { 4 },
                        "{case}"
                    );
                }
            }
        }
        // The index route books the right scan's actual as the rows its lookups
        // returned: keys 1 and 2 find 2 and 3 rows.
        let diagnostic = Executor::with_config(
            Arc::clone(&indexed),
            Arc::new(FunctionRegistry::new()),
            ExecConfig {
                collect_cardinalities: true,
                ..config.clone()
            },
        );
        let right = RelExpr::scan("r");
        let plan = RelExpr::Join {
            left: Box::new(RelExpr::scan("l")),
            right: Box::new(right.clone()),
            kind: JoinKind::Inner,
            condition: Some(equi.clone()),
        };
        diagnostic.execute(&plan).unwrap();
        let scan = diagnostic
            .cardinality_snapshot()
            .into_iter()
            .find(|node| node.fingerprint == right.fingerprint())
            .expect("the right scan records an actual");
        assert_eq!((scan.executions, scan.rows_out), (1, 5));
        let executor = executor_on(&catalog);
        // No condition at all: a nested-loop product with a two-row right side.
        let pair = RelExpr::Values {
            schema: Schema::new(vec![
                Column::new("x", DataType::Int),
                Column::new("y", DataType::Int),
            ]),
            rows: vec![
                vec![Value::Int(7), Value::Int(70)],
                vec![Value::Int(8), Value::Int(80)],
            ],
        };
        let product = |kind| RelExpr::Join {
            left: Box::new(RelExpr::scan("l")),
            right: Box::new(pair.clone()),
            kind,
            condition: None,
        };
        let crossed = [
            "1,1,7,70",
            "1,1,8,80",
            "2,2,7,70",
            "2,2,8,80",
            "3,-,7,70",
            "3,-,8,80",
            "4,1000,7,70",
            "4,1000,8,80",
        ];
        for kind in [JoinKind::Inner, JoinKind::LeftOuter] {
            let result = executor.execute(&product(kind)).unwrap();
            assert_eq!(
                rendered(&result),
                crossed,
                "{kind}, parallelism={parallelism}"
            );
        }
        let semi = executor.execute(&product(JoinKind::LeftSemi)).unwrap();
        assert_eq!(rendered(&semi), ["1,1", "2,2", "3,-", "4,1000"]);
        let anti = executor.execute(&product(JoinKind::LeftAnti)).unwrap();
        assert!(anti.rows.is_empty(), "parallelism={parallelism}");
    }
}
