//! Tests of the optimizer's instrumented PassManager: per-rule fire counts, fixpoint
//! termination, per-pass timings in `EXPLAIN`/`rewrite_report`, and the rule-firing
//! budget guard that turns a cyclic rule set into an error instead of a hang.

use udf_decorrelation::algebra::{RelExpr, SchemaProvider};
use udf_decorrelation::common::SmallRng;
use udf_decorrelation::engine::QueryOptions;
use udf_decorrelation::optimizer::PassManager;
use udf_decorrelation::rewrite::merge::merge_udf_calls;
use udf_decorrelation::rewrite::rules::{FixpointEngine, Rule, RuleSet};
use udf_decorrelation::tpch::{experiment1, experiment2, experiment3, load, TpchConfig};

// ----------------------------------------------------------- instrumentation coverage

/// The Example-2-style rewrite (service_level over TPC-H customers): the rewrite report
/// must attribute the paper's rules to the apply-removal pass with exact fire counts,
/// and the fixpoint must terminate by convergence, not by the iteration limit.
#[test]
fn rule_fire_counts_on_service_level_workload() {
    let workload = experiment2();
    let engine = load(&TpchConfig::tiny()).unwrap();
    let session = engine.session();
    workload.install(&engine).unwrap();
    let result = session
        .query_with(&(workload.query)(20), &QueryOptions::decorrelated())
        .unwrap();
    let report = &result.rewrite_report;

    let removal = report
        .pass("apply-removal")
        .expect("apply-removal pass traced");
    assert_eq!(
        removal.reached_fixpoint,
        Some(true),
        "fixpoint did not converge"
    );
    assert!(
        removal.fixpoint_iterations.unwrap() >= 2,
        "a real rewrite takes multiple fixpoint passes"
    );
    // The service-level rewrite has one UDF invocation (one Apply bind), one scalar
    // aggregate, and a nested if/else-if/else — i.e. two conditional merges.
    for (rule, expected) in [
        ("R9-apply-bind-removal", 1),
        ("decorrelate-scalar-aggregate", 1),
        ("R8-conditional-merge-to-case", 2),
    ] {
        assert_eq!(
            removal.rule_fires.get(rule).copied().unwrap_or(0),
            expected,
            "expected {rule} to fire exactly {expected}×; fired: {:?}",
            removal.rule_fires
        );
    }
    // Fire counts aggregate across passes and match the flat applied_rules list.
    let total: u64 = report.rule_fire_counts().values().sum();
    assert_eq!(total, result.applied_rules.len() as u64);
}

/// The Example-5-style cursor-loop rewrite (experiment 3) goes through the
/// auxiliary-aggregate path and still terminates with full instrumentation.
#[test]
fn cursor_loop_rewrite_terminates_with_instrumentation() {
    let workload = experiment3();
    let engine = load(&TpchConfig::tiny()).unwrap();
    let session = engine.session();
    workload.install(&engine).unwrap();
    let options = QueryOptions {
        // Snapshots are off on the hot path; opt in to inspect them.
        capture_snapshots: true,
        ..QueryOptions::decorrelated()
    };
    let result = session.query_with(&(workload.query)(8), &options).unwrap();
    let report = &result.rewrite_report;

    let merge = report.pass("algebraize-merge").expect("merge pass traced");
    assert!(
        merge
            .notes
            .iter()
            .any(|n| n.contains("auxiliary aggregate")),
        "cursor loop must synthesise an auxiliary aggregate; notes: {:?}",
        merge.notes
    );
    let removal = report.pass("apply-removal").unwrap();
    assert_eq!(removal.reached_fixpoint, Some(true));
    assert!(removal.total_rule_fires() >= 3, "{:?}", removal.rule_fires);
    assert!(
        removal
            .rule_fires
            .contains_key("decorrelate-scalar-aggregate"),
        "{:?}",
        removal.rule_fires
    );
    // Snapshots bracket the pass: the Apply-laden plan in, the flat plan out.
    let before = removal.plan_before.as_deref().unwrap();
    let after = removal.plan_after.as_deref().unwrap();
    assert!(before.contains("Apply"), "before:\n{before}");
    assert!(!after.contains("Apply"), "after:\n{after}");
}

/// Acceptance: `EXPLAIN` and `rewrite_report` expose per-rule fire counts and per-pass
/// timings for a decorrelated TPC-H workload query.
#[test]
fn explain_shows_per_pass_timings_and_fire_counts() {
    let workload = experiment2();
    let engine = load(&TpchConfig::tiny()).unwrap();
    let session = engine.session();
    workload.install(&engine).unwrap();
    let sql = (workload.query)(20);

    let explain = session.explain(&sql).unwrap();
    assert!(explain.contains("== optimizer passes =="), "{explain}");
    for pass in [
        "normalize",
        "algebraize-merge",
        "apply-removal",
        "cleanup",
        "strategy-choice",
    ] {
        assert!(explain.contains(pass), "missing pass {pass}:\n{explain}");
    }
    assert!(explain.contains(" ms "), "no timings rendered:\n{explain}");
    assert!(
        explain.contains("rule fire counts:") && explain.contains("R9-apply-bind-removal ×1"),
        "no per-rule fire counts rendered:\n{explain}"
    );

    // The same trace rides on every query result.
    let result = session.query(&sql).unwrap();
    assert_eq!(result.rewrite_report.passes.len(), 5);
    assert!(result.rewrite_report.total_rule_fires() > 0);
}

/// The cleanup stage drops Figure 10's dead columns and says so on its line of the pass
/// table: the flattened `discount` body's projection carries three `NULL` placeholders
/// for its locals and nine columns of `orders` and `customer`, of which the joins and
/// the query above read three. The note stays out of the query's own notes.
#[test]
fn explain_reports_the_dead_columns_cleanup_pruned() {
    let workload = experiment1();
    let engine = load(&TpchConfig::tiny()).unwrap();
    let session = engine.session();
    workload.install(&engine).unwrap();
    let sql = (workload.query)(20);

    let explain = session.explain(&sql).unwrap();
    let cleanup = explain
        .lines()
        .find(|line| line.starts_with("cleanup "))
        .unwrap_or_else(|| panic!("no cleanup line:\n{explain}"));
    assert!(cleanup.ends_with("pruned 9 dead column(s)"), "{cleanup}");
    assert!(!explain.contains("NULL as"), "{explain}");

    let result = session
        .query_with(&sql, &QueryOptions::decorrelated())
        .unwrap();
    assert!(
        !result.rewrite_notes.iter().any(|n| n.contains("pruned")),
        "{:?}",
        result.rewrite_notes
    );
}

/// The iterative strategy runs the normalisation pipeline only — the trace proves no
/// rewrite work happened.
#[test]
fn iterative_strategy_traces_normalization_only() {
    let workload = experiment2();
    let engine = load(&TpchConfig::tiny()).unwrap();
    let session = engine.session();
    workload.install(&engine).unwrap();
    let result = session
        .query_with(&(workload.query)(10), &QueryOptions::iterative())
        .unwrap();
    let names: Vec<&str> = result
        .rewrite_report
        .passes
        .iter()
        .map(|p| p.name.as_str())
        .collect();
    assert_eq!(names, vec!["normalize"]);
    assert!(result.rewrite_report.pass("apply-removal").is_none());
}

// ------------------------------------------------------------------ budget guard

/// A deliberately cyclic rule: endlessly swaps the inputs of a cross join, so every
/// bottom-up pass changes the plan and the fixpoint never converges.
fn cyclic_swap(plan: &RelExpr, _provider: &dyn SchemaProvider) -> Option<RelExpr> {
    let RelExpr::Join {
        left,
        right,
        kind,
        condition: None,
    } = plan
    else {
        return None;
    };
    if left == right {
        return None;
    }
    Some(RelExpr::Join {
        left: right.clone(),
        right: left.clone(),
        kind: *kind,
        condition: None,
    })
}

fn cyclic_ruleset() -> RuleSet {
    RuleSet {
        rules: vec![Rule {
            name: "cyclic-swap",
            apply: cyclic_swap,
        }],
    }
}

/// Property: whatever the (deterministic pseudo-random) plan shape and budget, the
/// fixpoint engine every pipeline stage runs its rules through aborts a cyclic rule set
/// with a budget error instead of looping forever.
#[test]
fn budget_guard_fires_on_cyclic_ruleset() {
    let provider = udf_decorrelation::algebra::EmptyProvider;
    for case in 0..32u64 {
        let mut rng = SmallRng::seed_from_u64(0xB0D6E7 + case);
        // A left-deep tree of cross joins over distinct scans: every join node keeps
        // swapping, so firings grow without bound until the budget stops them.
        let joins = rng.gen_range_usize(1, 6);
        let mut plan = RelExpr::scan("t0");
        for i in 1..=joins {
            plan = RelExpr::Join {
                left: Box::new(plan),
                right: Box::new(RelExpr::scan(format!("t{i}"))),
                kind: udf_decorrelation::algebra::JoinKind::Cross,
                condition: None,
            };
        }
        let budget = rng.gen_range_i64(10, 500) as u64;
        // Without the firing budget this would spin for a very long time.
        let engine = FixpointEngine::with_max_iterations(usize::MAX).with_rule_budget(budget);
        let err = engine
            .run(&plan, &cyclic_ruleset(), &provider)
            .expect_err("cyclic rule set must exhaust the budget");
        let message = err.to_string();
        assert!(
            message.contains("budget exhausted") && message.contains("cyclic-swap"),
            "unexpected error for case {case} (budget {budget}): {message}"
        );
    }
}

/// The same guard protects the real pipeline: a healthy rule set stays far below the
/// default budget, and an artificially tiny budget trips on a real workload rewrite.
#[test]
fn real_pipeline_respects_budget() {
    let workload = experiment2();
    let engine = load(&TpchConfig::tiny()).unwrap();
    let session = engine.session();
    workload.install(&engine).unwrap();
    let sql = (workload.query)(10);

    // Healthy: the full rewrite fits comfortably in the default budget.
    let ok = session
        .query_with(&sql, &QueryOptions::decorrelated())
        .unwrap();
    assert!(ok.rewrite_report.total_rule_fires() < 1_000);

    // Pathological budget: Apply removal over the merged plan errors out instead of
    // silently degrading.
    let plan = udf_decorrelation::parser::parse_and_plan(&sql).unwrap();
    let catalog = engine.catalog();
    let registry = engine.registry();
    let provider = udf_decorrelation::exec::CatalogProvider::new(&catalog, &registry);
    let merged = merge_udf_calls(&plan, &registry).unwrap();
    assert!(
        !merged.merged.is_empty(),
        "the service-level call must merge"
    );
    let err = FixpointEngine::new()
        .with_rule_budget(2)
        .run(&merged.plan, &RuleSet::default_pipeline(), &provider)
        .expect_err("a 2-firing budget cannot fit the service-level rewrite");
    assert!(err.to_string().contains("budget exhausted"), "{err}");
}

// ------------------------------------------------------------------ plan cache seam

/// A PassManager with an attached plan cache skips the pipeline on repeats: the warm
/// report carries a single synthetic `plan-cache` trace plus the cache counters, while
/// the outcome (plan, strategy, rules) is identical to the cold run.
#[test]
fn attached_plan_cache_memoizes_the_pipeline() {
    use std::sync::Arc;
    use udf_decorrelation::optimizer::PlanCache;

    let workload = experiment2();
    let engine = load(&TpchConfig::tiny()).unwrap();
    workload.install(&engine).unwrap();
    let plan = udf_decorrelation::parser::parse_and_plan(&(workload.query)(10)).unwrap();
    let catalog = engine.catalog();
    let registry = engine.registry();
    let provider = udf_decorrelation::exec::CatalogProvider::new(&catalog, &registry);

    let cache = Arc::new(PlanCache::with_capacity(8));
    let manager = PassManager::decorrelation_pipeline().with_plan_cache(Arc::clone(&cache));
    let cold = manager
        .optimize(&plan, &registry, &provider, Some(catalog.as_ref()))
        .unwrap();
    assert!(!cold.report.cache.expect("activity recorded").hit);
    assert_eq!(cold.report.passes.len(), 5);

    let warm = manager
        .optimize(&plan, &registry, &provider, Some(catalog.as_ref()))
        .unwrap();
    let activity = warm.report.cache.expect("activity recorded");
    assert!(activity.hit);
    assert_eq!(warm.report.passes.len(), 1);
    assert_eq!(warm.report.passes[0].name, "plan-cache");
    assert_eq!(warm.plan, cold.plan);
    assert_eq!(warm.applied_rules, cold.applied_rules);
    assert_eq!(warm.used_decorrelated_plan, cold.used_decorrelated_plan);
    assert_eq!(activity.stats.hits, 1);

    // A pipeline with different options has a different fingerprint and must not
    // serve the entry, even through the same shared cache.
    let forced = PassManager::decorrelation_pipeline()
        .with_mode(udf_decorrelation::optimizer::OptimizeMode::ForceDecorrelated)
        .with_plan_cache(Arc::clone(&cache));
    assert_ne!(
        forced.pipeline_fingerprint(),
        manager.pipeline_fingerprint()
    );
    let other = forced
        .optimize(&plan, &registry, &provider, Some(catalog.as_ref()))
        .unwrap();
    assert!(!other.report.cache.expect("activity recorded").hit);
}
