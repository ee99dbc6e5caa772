//! Cross-crate integration tests: the three paper experiments executed end to end, with
//! the iterative and decorrelated strategies compared for result equality and for the
//! execution characteristics the paper describes.

use udf_decorrelation::engine::QueryOptions;
use udf_decorrelation::tpch::{experiment1, experiment2, experiment3, load, TpchConfig};

fn run_experiment(workload: udf_decorrelation::tpch::Workload, invocations: usize) {
    let engine = load(&TpchConfig::tiny()).unwrap();
    let session = engine.session();
    workload.install(&engine).unwrap();
    let sql = (workload.query)(invocations);

    let iterative = session
        .query_with(&sql, &QueryOptions::iterative())
        .unwrap();
    let decorrelated = session
        .query_with(&sql, &QueryOptions::decorrelated())
        .unwrap();

    // 1. Results agree (order-insensitive, compared by output column name).
    let columns: Vec<&str> = iterative
        .schema
        .columns
        .iter()
        .map(|c| c.name.as_str())
        .collect();
    assert_eq!(
        iterative.canonical_projection(&columns).unwrap(),
        decorrelated.canonical_projection(&columns).unwrap(),
        "results differ for {}",
        workload.name
    );

    // 2. The iterative plan really is iterative (one UDF invocation per outer row) and
    //    the decorrelated plan performs none.
    assert_eq!(
        iterative.exec_stats.udf_invocations as usize,
        iterative.rows.len(),
        "iterative execution must invoke the UDF once per row"
    );
    assert_eq!(decorrelated.exec_stats.udf_invocations, 0);

    // 3. The explain output shows both alternatives.
    let explain = session.explain(&sql).unwrap();
    assert!(explain.contains("decorrelated plan"), "{explain}");

    // 4. Re-running both strategies is served from the plan cache and produces exactly
    //    the same results as the fresh (cold) runs.
    for (fresh, options) in [
        (&iterative, QueryOptions::iterative()),
        (&decorrelated, QueryOptions::decorrelated()),
    ] {
        let warm = session.query_with(&sql, &options).unwrap();
        assert!(
            warm.rewrite_report.cache.expect("cache attached").hit,
            "repeated {:?} run must be served from the plan cache for {}",
            options.strategy,
            workload.name
        );
        assert_eq!(
            warm.canonical_projection(&columns).unwrap(),
            fresh.canonical_projection(&columns).unwrap(),
            "cached and fresh outcomes disagree for {}",
            workload.name
        );
        assert_eq!(warm.used_decorrelated_plan, fresh.used_decorrelated_plan);
    }
}

#[test]
fn experiment1_discount_over_orders() {
    run_experiment(experiment1(), 60);
}

#[test]
fn experiment2_service_level_over_customers() {
    run_experiment(experiment2(), 40);
}

#[test]
fn experiment3_cursor_loop_over_categories() {
    run_experiment(experiment3(), 10);
}

#[test]
fn decorrelated_plan_scales_better_in_work_performed() {
    // Not a timing test (timings belong to `benchmark/`): compare *work counters*.
    // The iterative plan's subquery executions grow linearly with the invocation count;
    // the decorrelated plan's stay constant.
    let workload = experiment2();
    let engine = load(&TpchConfig::tiny()).unwrap();
    let session = engine.session();
    workload.install(&engine).unwrap();

    let small = session
        .query_with(&(workload.query)(10), &QueryOptions::iterative())
        .unwrap();
    let large = session
        .query_with(&(workload.query)(50), &QueryOptions::iterative())
        .unwrap();
    assert!(large.exec_stats.udf_invocations > small.exec_stats.udf_invocations);
    assert!(large.exec_stats.index_lookups > small.exec_stats.index_lookups);

    let small_d = session
        .query_with(&(workload.query)(10), &QueryOptions::decorrelated())
        .unwrap();
    let large_d = session
        .query_with(&(workload.query)(50), &QueryOptions::decorrelated())
        .unwrap();
    assert_eq!(small_d.exec_stats.udf_invocations, 0);
    assert_eq!(
        small_d.exec_stats.rows_scanned, large_d.exec_stats.rows_scanned,
        "the decorrelated plan scans the same data regardless of the invocation count"
    );
}

#[test]
fn rewrite_tool_emits_sql_for_every_experiment() {
    let engine = load(&TpchConfig::tiny()).unwrap();
    let session = engine.session();
    for workload in [experiment1(), experiment2(), experiment3()] {
        workload.install(&engine).unwrap();
        let report = session.rewrite_sql(&(workload.query)(100)).unwrap();
        assert!(report.decorrelated, "{}: {:?}", workload.name, report.notes);
        assert!(report.rewritten_sql.to_lowercase().contains("join"));
    }
}
