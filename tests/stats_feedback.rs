//! Integration tests of the statistics & feedback subsystem through `Engine` +
//! `Session`: cached table statistics (the no-rescan regression), sampled `ANALYZE`
//! through SQL, histogram-driven estimates on the experiment plans (a seeded
//! bounded-q-error property test across scale factors), and the headline feedback
//! regression — a workload where the static cost model picks the iterative plan
//! wrongly and runtime feedback flips the decision to the decorrelated plan.

use std::fmt::Write as _;
use std::time::Duration;

use udf_decorrelation::common::FnvHasher;
use udf_decorrelation::engine::{Engine, ExecutionStrategy, QueryOptions};
use udf_decorrelation::optimizer::{estimate_per_node, CostParams};
use udf_decorrelation::stats::q_error;
use udf_decorrelation::tpch::{experiment1, experiment2, experiment3, load, TpchConfig};

// ----------------------------------------------------------- statistics caching

/// Satellite regression: `Table::stats()` used to recompute full-table statistics
/// (a hash-set scan of every row) on every call, and `predicate_selectivity`
/// triggers it per conjunct per optimize. Statistics are now cached with a dirty
/// flag: repeated optimizes against unchanged data must not rescan.
#[test]
fn repeated_optimizes_do_not_rescan_table_statistics() {
    let engine = Engine::new();
    let session = engine.session();
    session.execute("create table t(x int, grp int)").unwrap();
    session
        .execute("insert into t values (1, 0), (2, 0), (3, 1), (4, 1), (5, 2)")
        .unwrap();
    // Several *distinct* query shapes over the same table (distinct shapes so the
    // plan cache cannot absorb the stats lookups), each with multiple conjuncts.
    for limit in 1..=4 {
        session
            .query(&format!(
                "select x from t where grp = 1 and x <= {limit} and x >= 0"
            ))
            .unwrap();
        session
            .explain(&format!("select x from t where x <= {limit}"))
            .unwrap();
    }
    let recomputes = engine.catalog().table("t").unwrap().stats_recomputes();
    assert_eq!(
        recomputes, 1,
        "eight optimizes over an unchanged table must compute statistics exactly once"
    );
    // New data dirties the cache: exactly one more recompute on next use.
    session.execute("insert into t values (6, 2)").unwrap();
    session.query("select x from t where grp = 2").unwrap();
    assert_eq!(engine.catalog().table("t").unwrap().stats_recomputes(), 2);
}

/// Statistics — and so every cost decision — did not move when the storage layer
/// under them did: an FNV-1a fingerprint of each TPC-H table's `TableStatistics`
/// (`Debug` rendering; the type holds only `Vec`s and scalars), basic and after
/// `ANALYZE`, equals the constant recorded at commit cd3ceeb, where a table's
/// statistics were still merged from per-partition summaries. The second configuration
/// has tables spanning several storage chunks and one (`orders`, 12 000 rows) past the
/// 8 192-row reservoir, so the sampler's draws are pinned too.
#[test]
fn table_statistics_fingerprints_match_the_recorded_constants() {
    type Fingerprints = [(&'static str, u64); 8];
    const TINY_BASIC: Fingerprints = [
        ("categories", 0xafa9768196001a09),
        ("category_ancestors", 0x40575605e2ecbf41),
        ("categorydiscount", 0x3c411cb3c3d520ff),
        ("customer", 0x1c3698b3462bfe64),
        ("lineitem", 0xc1d4105241b9f0bd),
        ("orders", 0x2b97c3b2d9c25b73),
        ("parts", 0x2d8cc8131c9f4705),
        ("partsupp", 0xf5a646bea92c0fe7),
    ];
    const TINY_ANALYZED: Fingerprints = [
        ("categories", 0x234ba28eda884ff7),
        ("category_ancestors", 0xc4a340c8b05936c0),
        ("categorydiscount", 0x79f5343e0bcf1d67),
        ("customer", 0xac531eeafa4ee7a4),
        ("lineitem", 0x98ccfc3d2349b40b),
        ("orders", 0xfb9df3be6c513b7e),
        ("parts", 0x2d79fbdb769ac0f5),
        ("partsupp", 0xfdd57e40df32f61e),
    ];
    const LARGER_BASIC: Fingerprints = [
        ("categories", 0xafa9768196001a09),
        ("category_ancestors", 0x40575605e2ecbf41),
        ("categorydiscount", 0x3c411cb3c3d520ff),
        ("customer", 0x5fff5a1f4979261a),
        ("lineitem", 0xb34c3416be063b24),
        ("orders", 0x4802b5423aae8582),
        ("parts", 0x2d8cc8131c9f4705),
        ("partsupp", 0xf5a646bea92c0fe7),
    ];
    const LARGER_ANALYZED: Fingerprints = [
        ("categories", 0x234ba28eda884ff7),
        ("category_ancestors", 0xc4a340c8b05936c0),
        ("categorydiscount", 0x79f5343e0bcf1d67),
        ("customer", 0xcb35960d5d37d8d7),
        ("lineitem", 0x1f045f5e2b35744d),
        ("orders", 0x1d1854e2fbff06a3),
        ("parts", 0x40b062d714fad73e),
        ("partsupp", 0xfdd57e40df32f61e),
    ];
    let fingerprints = |engine: &Engine| -> Vec<(String, u64)> {
        let catalog = engine.catalog();
        catalog
            .table_names()
            .into_iter()
            .map(|name| {
                let mut hasher = FnvHasher::new();
                write!(hasher, "{:?}", catalog.table(&name).unwrap().stats()).unwrap();
                (name, hasher.finish())
            })
            .collect()
    };
    let owned = |expected: Fingerprints| expected.map(|(name, print)| (name.to_string(), print));
    for (config, basic, analyzed) in [
        (TpchConfig::tiny(), TINY_BASIC, TINY_ANALYZED),
        (
            TpchConfig::tiny().with_customers(3_000),
            LARGER_BASIC,
            LARGER_ANALYZED,
        ),
    ] {
        let engine = load(&config).unwrap();
        assert_eq!(fingerprints(&engine), owned(basic), "{config:?}");
        engine.analyze();
        assert_eq!(fingerprints(&engine), owned(analyzed), "{config:?}");
    }
}

// ------------------------------------------------------------------ ANALYZE surface

#[test]
fn analyze_statement_builds_histogram_statistics() {
    let engine = Engine::new();
    let session = engine.session();
    session.execute("create table nums(v int)").unwrap();
    let values: Vec<String> = (0..500).map(|i| format!("({i})")).collect();
    session
        .execute(&format!("insert into nums values {}", values.join(", ")))
        .unwrap();
    assert!(!engine.catalog().table("nums").unwrap().is_analyzed());
    let summaries = session.execute("analyze nums").unwrap();
    assert_eq!(summaries.len(), 1);
    let catalog = engine.catalog();
    let table = catalog.table("nums").unwrap();
    assert!(table.is_analyzed());
    let stats = table.stats();
    assert!(stats.analyzed);
    let sel = stats
        .range_selectivity("v", None, Some((49.0, true)))
        .expect("histogram after ANALYZE");
    assert!((sel - 0.1).abs() < 0.05, "selectivity {sel}");
    // Bare ANALYZE covers every table.
    session
        .execute("create table other(w int); insert into other values (1)")
        .unwrap();
    session.execute("analyze").unwrap();
    assert!(engine.catalog().table("other").unwrap().is_analyzed());
}

#[test]
fn analyze_invalidates_cached_plans() {
    let engine = Engine::new();
    let session = engine.session();
    session.execute("create table t(x int)").unwrap();
    let values: Vec<String> = (0..200).map(|i| format!("({i})")).collect();
    session
        .execute(&format!("insert into t values {}", values.join(", ")))
        .unwrap();
    // A predicate the default model estimates well (est 60 vs actual 101 rows stays
    // below the q-error threshold), so the feedback loop leaves the entry alone and
    // the invalidation below is attributable to ANALYZE.
    let sql = "select x from t where x <= 100";
    session.query(sql).unwrap();
    assert!(
        session
            .query(sql)
            .unwrap()
            .rewrite_report
            .cache
            .unwrap()
            .hit
    );
    // Fresh statistics change cost-based decisions: cached plans must re-optimize.
    session.execute("analyze t").unwrap();
    assert!(
        !session
            .query(sql)
            .unwrap()
            .rewrite_report
            .cache
            .unwrap()
            .hit,
        "ANALYZE must invalidate cached plans"
    );
}

// --------------------------------------------------- estimate accuracy (property)

/// Seeded property test (satellite): after `ANALYZE`, per-node cardinality
/// estimates for the scan/filter/join/aggregate nodes of the three experiment
/// plans stay within a bounded q-error of the executed actuals, across scale
/// factors and invocation counts.
#[test]
fn analyzed_estimates_stay_within_bounded_q_error_across_scales() {
    // (scale, invocations) pairs seeded over both experiment dimensions.
    const SCALES: [f64; 2] = [0.02, 0.05];
    const MAX_Q_SCAN_FILTER: f64 = 4.0;
    const MAX_Q_ANY: f64 = 32.0;
    for &scale in &SCALES {
        for (workload, invocations) in
            [(experiment1(), 30), (experiment2(), 20), (experiment3(), 4)]
        {
            let engine = load(&TpchConfig::with_scale(scale)).unwrap();
            let session = engine.session();
            engine.analyze();
            workload.install(&engine).unwrap();
            let sql = (workload.query)(invocations);
            // Execute iteratively with per-node cardinality collection: the
            // iterative plan's nodes (scan, filter, project) are exactly the shapes
            // the statistics must estimate well.
            let mut config = engine.exec_config();
            config.collect_cardinalities = true;
            let options = QueryOptions {
                exec_config: Some(config),
                ..QueryOptions::iterative()
            };
            let result = session.query_with(&sql, &options).unwrap();
            assert!(!result.node_cardinalities.is_empty());
            // Pair per-node estimates with the recorded actuals by fingerprint. The
            // executed plan is the *normalized* form, so run the same normalisation
            // pipeline the iterative strategy uses before estimating.
            let plan = udf_decorrelation::parser::parse_and_plan(&sql).unwrap();
            let catalog = engine.catalog();
            let registry = engine.registry();
            let provider = udf_decorrelation::exec::CatalogProvider::new(&catalog, &registry);
            let normalized = udf_decorrelation::optimizer::PassManager::cleanup_pipeline()
                .optimize(&plan, &registry, &provider, Some(catalog.as_ref()))
                .unwrap()
                .plan;
            let params = CostParams::new(1);
            let estimates = estimate_per_node(&normalized, &catalog, &registry, &params);
            let mut checked = 0;
            for estimate in &estimates {
                let Some(actual) = result
                    .node_cardinalities
                    .iter()
                    .find(|n| n.fingerprint == estimate.fingerprint)
                else {
                    continue;
                };
                let q = q_error(estimate.cardinality, actual.mean_rows());
                let bound = match estimate.operator.as_str() {
                    "Scan" | "Select" => MAX_Q_SCAN_FILTER,
                    _ => MAX_Q_ANY,
                };
                assert!(
                    q <= bound,
                    "{}: {} node estimated {:.1} vs actual {:.1} rows (q-error {q:.1} \
                     > bound {bound}) at scale {scale}",
                    workload.name,
                    estimate.operator,
                    estimate.cardinality,
                    actual.mean_rows(),
                );
                checked += 1;
            }
            assert!(
                checked >= 2,
                "{}: expected estimate/actual pairs for at least the scan and filter \
                 nodes, checked {checked}",
                workload.name
            );
        }
    }
}

/// The root-cardinality q-error reported by the engine improves once tables are
/// analyzed: a narrow range predicate estimated with the default constant misses
/// by a large factor, the histogram estimate does not.
#[test]
fn analyze_improves_root_cardinality_q_error() {
    let workload = experiment1();
    let engine = load(&TpchConfig::with_scale(0.05)).unwrap();
    let session = engine.session();
    workload.install(&engine).unwrap();
    let sql = (workload.query)(10);
    let before = session
        .query_with(&sql, &QueryOptions::iterative())
        .unwrap();
    engine.analyze();
    let after = session
        .query_with(&sql, &QueryOptions::iterative())
        .unwrap();
    assert_eq!(before.rows.len(), after.rows.len());
    assert!(
        after.cardinality_q_error < before.cardinality_q_error,
        "analyzed q-error {:.2} must beat unanalyzed {:.2}",
        after.cardinality_q_error,
        before.cardinality_q_error
    );
    assert!(
        after.cardinality_q_error < 2.0,
        "histogram root estimate q-error {:.2}",
        after.cardinality_q_error
    );
}

// ------------------------------------------------------------- feedback flips plans

/// An engine whose UDF `total_business` scans an unindexed 8000-row table per call, and
/// the query that invokes it once per customer (40 customers).
fn mispriced_udf_engine() -> (Engine, &'static str) {
    let engine = Engine::new();
    let session = engine.session();
    // Wide rows (strings) make per-row interpretation measurably expensive, which
    // is exactly what the index-assuming static model misses on an unindexed scan.
    session
        .execute(
            "create table customer(custkey int not null); \
         create table orders(orderkey int not null, custkey int, totalprice float, \
                             comment varchar(40), clerk varchar(20))",
        )
        .unwrap();
    // Deliberately NO index on orders.custkey.
    let customers: Vec<String> = (0..40).map(|i| format!("({i})")).collect();
    session
        .execute(&format!(
            "insert into customer values {}",
            customers.join(", ")
        ))
        .unwrap();
    let mut orders = vec![];
    for i in 0..8_000i64 {
        orders.push(udf_decorrelation::prelude::Row::new(vec![
            i.into(),
            (i % 40).into(),
            (i as f64).into(),
            format!("order comment number {i}").into(),
            format!("Clerk#{}", i % 100).into(),
        ]));
    }
    engine.insert_rows("orders", orders).unwrap();
    engine
        .register_function(
            "create function total_business(int ckey) returns float as \
         begin return select sum(totalprice) from orders where custkey = :ckey; end",
        )
        .unwrap();
    (
        engine,
        "select custkey, total_business(custkey) as total from customer",
    )
}

/// The headline feedback regression. The UDF's correlated query scans an unindexed
/// table, but the static cost model prices correlated execution with the
/// index-assisted discount — so for a small outer table it wrongly picks the
/// iterative plan. Executing it once measures the true per-invocation cost; the
/// feedback loop learns it, invalidates the stale cache entry, and the next
/// optimize flips to the decorrelated plan.
#[test]
fn feedback_flips_a_miscosted_strategy_to_decorrelated() {
    let (engine, sql) = mispriced_udf_engine();
    let session = engine.session();

    // 1. The static model picks the iterative plan (its correlated discount assumes
    //    an index that does not exist).
    let first = session.query(sql).unwrap();
    assert_eq!(first.strategy, ExecutionStrategy::Auto);
    assert!(
        !first.used_decorrelated_plan,
        "premise: the static model must pick the iterative plan \
         (notes: {:?})",
        first.rewrite_notes
    );
    assert!(first.exec_stats.udf_invocations >= 40);

    // 2. The execution measured the true invocation cost; the feedback loop must
    //    have learned it and flagged the shape.
    let learned = engine.feedback().learned()["total_business"]
        .units
        .expect("feedback must learn the UDF cost after 40 invocations");
    assert!(
        learned > 1_000.0,
        "an unindexed 8000-row scan per invocation must cost thousands of row-ops, \
         learned {learned}"
    );
    assert!(
        engine.feedback_stats().generation > 1,
        "a mispriced UDF must move the feedback generation"
    );

    // 3. The next optimize re-decides with the learned cost and flips.
    let second = session.query(sql).unwrap();
    assert!(
        second.used_decorrelated_plan,
        "feedback must flip the miscosted strategy to the decorrelated plan \
         (notes: {:?})",
        second.rewrite_notes
    );
    assert!(
        second
            .rewrite_notes
            .iter()
            .any(|n| n.contains("learned UDF cost")),
        "the strategy pass must report the learned costs it used: {:?}",
        second.rewrite_notes
    );
    assert_eq!(
        second.exec_stats.udf_invocations, 0,
        "the decorrelated plan performs no iterative invocations"
    );
    // Both executions agree on the results.
    assert_eq!(
        first.canonical_projection(&["custkey", "total"]).unwrap(),
        second.canonical_projection(&["custkey", "total"]).unwrap()
    );
}

/// The strategy note cites the learned costs the decision used: with two UDFs learned
/// and a query calling one, it names that one only.
#[test]
fn the_strategy_note_cites_only_the_learned_costs_of_called_udfs() {
    let (engine, sql) = mispriced_udf_engine();
    let session = engine.session();
    engine
        .register_function(
            "create function order_count(int ckey) returns int as \
         begin return select count(*) from orders where custkey = :ckey; end",
        )
        .unwrap();
    // Iterative runs invoke each UDF once per customer, so both costs are learned.
    for learned_sql in [
        sql,
        "select custkey, order_count(custkey) as n from customer",
    ] {
        session
            .query_with(learned_sql, &QueryOptions::iterative())
            .unwrap();
    }
    let learned = engine.feedback().learned();
    for name in ["total_business", "order_count"] {
        assert!(learned[name].units.is_some(), "{name} must be learned");
    }
    let result = session.query(sql).unwrap();
    let note = result
        .rewrite_notes
        .iter()
        .find(|n| n.contains("learned UDF cost"))
        .unwrap_or_else(|| panic!("no learned-cost note: {:?}", result.rewrite_notes));
    assert!(
        note.starts_with("1 learned UDF cost(s) applied: total_business≈"),
        "{note}"
    );
    assert!(!note.contains("order_count"), "{note}");
}

/// The learning loop end to end, pinned: the headline flip plus a filter UDF called
/// with repeated arguments, run in one engine. What each query used, what each UDF's
/// feedback entry counted and the store's counters equal the constants recorded at
/// commit cb750d5, before the executor, the feedback store and the snapshot shared one
/// per-UDF record. Only counts are pinned; wall clocks are not.
#[test]
fn learning_loop_counts_match_the_recorded_constants() {
    let (engine, flip_sql) = mispriced_udf_engine();
    let session = engine.session();
    session.execute("create table t(x int, grp int)").unwrap();
    let rows: Vec<String> = (0..100).map(|i| format!("({i}, {})", i % 5)).collect();
    session
        .execute(&format!("insert into t values {}", rows.join(", ")))
        .unwrap();
    engine
        .register_function("create function parity(int v) returns int as begin return v % 2; end")
        .unwrap();
    // Five distinct arguments over 100 rows: the per-query dedup tier and then the
    // cross-query memo answer all but the first five calls, and five evaluations stay
    // below the cost trust floor, so only the dedup fraction is learned.
    let filter_sql = "select x from t where x >= 0 and parity(grp) = 1";

    let mut used = vec![];
    let mut timings = vec![];
    for (sql, options) in [
        (flip_sql, QueryOptions::default()),
        (flip_sql, QueryOptions::default()),
        (filter_sql, QueryOptions::iterative()),
        (filter_sql, QueryOptions::iterative()),
    ] {
        let result = session.query_with(sql, &options).unwrap();
        used.push(result.used_decorrelated_plan);
        for t in &result.udf_timings {
            timings.push((t.name.clone(), t.invocations, t.hits));
        }
    }
    assert_eq!(used, [false, true, false, false]);
    let timing = |name: &str, invocations, hits| (name.to_string(), invocations, hits);
    assert_eq!(
        timings,
        [
            timing("total_business", 40, 0),
            timing("parity", 5, 95),
            timing("parity", 0, 100),
        ]
    );

    let entries: Vec<(String, u64, u64, u64, u64)> = engine
        .feedback()
        .export_state()
        .udfs
        .into_iter()
        .map(|u| {
            let r = u.runtime;
            (
                r.name,
                r.invocations,
                r.hits,
                r.predicate_evaluated,
                r.predicate_passed,
            )
        })
        .collect();
    assert_eq!(
        entries,
        [
            ("parity".to_string(), 5, 195, 200, 80),
            ("total_business".to_string(), 40, 0, 0, 0),
        ]
    );
    let stats = engine.feedback_stats();
    assert_eq!(stats.queries_recorded, 4);
    assert_eq!(stats.udfs_tracked, 2);
    // One bump for the mispriced cost, one for parity's dedup fraction (5 of 100
    // calls evaluated).
    assert_eq!(stats.generation, 3);
    // The flip query's first run (its UDF cost q-error) and the filter query's first
    // run (3 rows estimated, 40 returned): each shape is flagged once.
    assert_eq!(stats.invalidations_flagged, 2);
}

/// Feedback state is engine-local: a forked engine starts with a fresh store.
#[test]
fn forked_engines_do_not_share_feedback() {
    let engine = Engine::new();
    let session = engine.session();
    session
        .execute("create table t(x int); insert into t values (1), (2), (3)")
        .unwrap();
    session.query("select x from t where x <= 2").unwrap();
    assert!(engine.feedback_stats().queries_recorded >= 1);
    let fork = engine.fork();
    assert_eq!(fork.feedback_stats().queries_recorded, 0);
    assert_eq!(fork.feedback_stats().generation, 1);
}

/// The feedback trust floors keep one-off timings of nearly-free UDFs from
/// polluting the learned costs (and from invalidating plans).
#[test]
fn cheap_udfs_below_the_trust_floor_learn_nothing() {
    let engine = Engine::new();
    let session = engine.session();
    session
        .execute("create table t(x int); insert into t values (1), (2), (3)")
        .unwrap();
    engine
        .register_function("create function tiny(int v) returns int as begin return v + 1; end")
        .unwrap();
    let result = session
        .query_with(
            "select tiny(x) as y from t",
            &QueryOptions {
                strategy: ExecutionStrategy::Iterative,
                ..QueryOptions::default()
            },
        )
        .unwrap();
    assert_eq!(result.exec_stats.udf_invocations, 3);
    assert_eq!(
        engine.feedback().learned()["tiny"].units,
        None,
        "3 sub-microsecond invocations are below both trust floors"
    );
    assert_eq!(engine.feedback_stats().generation, 1);
}

/// `explain_analyze` surfaces the new instrumentation: estimated vs actual rows
/// per operator, the root q-error, and measured UDF costs.
#[test]
fn explain_analyze_reports_estimates_actuals_and_feedback() {
    let engine = load(&TpchConfig::tiny()).unwrap();
    let session = engine.session();
    engine.analyze();
    let workload = experiment2();
    workload.install(&engine).unwrap();
    let text = session
        .explain_analyze(&(workload.query)(20))
        .expect("explain analyze");
    assert!(
        text.contains("== cardinalities (estimated vs actual) =="),
        "{text}"
    );
    assert!(text.contains("q-error"), "{text}");
    assert!(text.contains("== feedback =="), "{text}");
    assert!(text.contains("root cardinality"), "{text}");
    assert!(text.contains("feedback store"), "{text}");
}

/// End-to-end sanity for the timing plumbing: iterative executions report per-UDF
/// wall clocks on the query result.
#[test]
fn query_results_carry_udf_timings() {
    let engine = load(&TpchConfig::tiny()).unwrap();
    let session = engine.session();
    let workload = experiment2();
    workload.install(&engine).unwrap();
    let result = session
        .query_with(&(workload.query)(20), &QueryOptions::iterative())
        .unwrap();
    let timing = result
        .udf_timings
        .iter()
        .find(|t| t.name == "service_level")
        .expect("service_level timing recorded");
    assert_eq!(timing.invocations, result.exec_stats.udf_invocations);
    assert!(timing.total > Duration::ZERO);
}
