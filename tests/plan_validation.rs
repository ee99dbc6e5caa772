//! Static plan validation wired through the optimizer: a buggy rewrite pass fails
//! loudly with a named-pass, named-violation error; the real pipeline's intermediate
//! plans validate clean on every experiment-style workload; and the UDF body analyzer
//! rejects registrations whose declared determinism contradicts the body.

use udf_decorrelation::algebra::{ProjectItem, RelExpr, ScalarExpr};
use udf_decorrelation::common::{Result, SmallRng};
use udf_decorrelation::engine::Engine;
use udf_decorrelation::exec::CatalogProvider;
use udf_decorrelation::optimizer::{OptimizerPass, PassContext, PassEffect, PassManager};
use udf_decorrelation::tpch::{experiment1, experiment2, experiment3, load, TpchConfig};

// ----------------------------------------------------------- broken-rule detection

/// A deliberately buggy "rewrite": wraps the plan in a projection of a column no
/// input produces — the kind of malformed output a botched rule would emit.
struct DanglingProjectPass;

impl OptimizerPass for DanglingProjectPass {
    fn name(&self) -> &'static str {
        "broken-for-test"
    }

    fn run(&self, plan: &RelExpr, _ctx: &mut PassContext) -> Result<PassEffect> {
        let broken = RelExpr::Project {
            input: Box::new(plan.clone()),
            items: vec![ProjectItem {
                expr: ScalarExpr::column("no_such_column"),
                alias: Some("boom".into()),
            }],
            distinct: false,
        };
        Ok(PassEffect::unchanged(broken))
    }
}

/// Acceptance: a broken rewrite rule appended to the real pipeline is caught by the
/// per-pass validator, and the error names both the offending pass and the violation.
#[test]
fn broken_rewrite_pass_fails_with_named_violation() {
    let workload = experiment2();
    let engine = load(&TpchConfig::tiny()).unwrap();
    workload.install(&engine).unwrap();
    let plan = udf_decorrelation::parser::parse_and_plan(&(workload.query)(10)).unwrap();
    let catalog = engine.catalog();
    let registry = engine.registry();
    let provider = CatalogProvider::new(&catalog, &registry);

    let manager = PassManager::rewrite_pipeline()
        .with_pass(DanglingProjectPass)
        .with_validation(true);
    let err = manager
        .optimize(&plan, &registry, &provider, Some(catalog.as_ref()))
        .expect_err("the validator must reject the dangling projection");
    assert_eq!(err.kind(), "rewrite");
    let message = err.to_string();
    assert!(
        message.contains("broken-for-test"),
        "error must name the offending pass: {message}"
    );
    assert!(
        message.contains("[unresolved-column]") && message.contains("no_such_column"),
        "error must name the violation: {message}"
    );

    // The same pipeline without the broken pass optimizes the plan cleanly, and every
    // executed pass records its validation checks.
    let clean = PassManager::rewrite_pipeline()
        .with_validation(true)
        .optimize(&plan, &registry, &provider, Some(catalog.as_ref()))
        .expect("the real pipeline validates clean");
    for pass in &clean.report.passes {
        let checks = pass
            .validation_checks
            .unwrap_or_else(|| panic!("pass '{}' was not validated", pass.name));
        assert!(checks > 0, "pass '{}' recorded zero checks", pass.name);
    }
    assert!(
        clean.report.render().contains("plan validation:"),
        "EXPLAIN-style render must carry the validation section:\n{}",
        clean.report.render()
    );
}

/// A plan that arrives *already* malformed is a user error, not a rule bug: the
/// engine keeps surfacing its properly-kinded catalog/binding error instead of a
/// validation failure (the validator only arms itself on initially-clean plans).
#[test]
fn user_errors_keep_their_kind_with_validation_on() {
    let engine = Engine::new();
    let session = engine.session();
    let err = session.query("select * from missing").unwrap_err();
    assert_eq!(err.kind(), "catalog", "{err}");
}

// ----------------------------------------------------------- pipeline-wide property

/// Seeded property test: across random experiment-1/2/3-style queries, every
/// intermediate plan of the full rewrite fixpoint validates clean, at cost-model
/// parallelism 1 and 4 alike.
#[test]
fn every_intermediate_plan_validates_clean_across_workloads() {
    let engine = load(&TpchConfig::tiny()).unwrap();
    let workloads = [experiment1(), experiment2(), experiment3()];
    for w in &workloads {
        w.install(&engine).unwrap();
    }
    let catalog = engine.catalog();
    let registry = engine.registry();
    let provider = CatalogProvider::new(&catalog, &registry);

    let mut rng = SmallRng::seed_from_u64(0x9A11DA7E);
    for case in 0..24u64 {
        let workload = &workloads[rng.gen_range_usize(0, workloads.len())];
        let invocations = rng.gen_range_usize(1, 40);
        let plan = udf_decorrelation::parser::parse_and_plan(&(workload.query)(invocations))
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        for parallelism in [1usize, 4] {
            let manager = PassManager::decorrelation_pipeline()
                .with_validation(true)
                .with_parallelism(parallelism);
            let outcome = manager
                .optimize(&plan, &registry, &provider, Some(catalog.as_ref()))
                .unwrap_or_else(|e| {
                    panic!(
                        "case {case} ({}, {invocations} invocations, parallelism \
                         {parallelism}) failed validation: {e}",
                        workload.name
                    )
                });
            for pass in &outcome.report.passes {
                assert!(
                    pass.validation_checks.is_some(),
                    "case {case}: pass '{}' skipped validation",
                    pass.name
                );
            }
        }
    }
}

// ----------------------------------------------------------- registration analysis

/// Acceptance: a UDF *explicitly declared* DETERMINISTIC whose body calls a volatile
/// UDF is rejected at registration with a diagnostic naming the volatile callee.
#[test]
fn deterministic_declaration_over_volatile_callee_is_rejected() {
    let engine = Engine::new();
    let session = engine.session();
    session.execute("create table t(x int)").unwrap();
    engine
        .register_function("create function vol(int x) returns int volatile as begin return x; end")
        .unwrap();
    let err = engine
        .register_function(
            "create function det(int x) returns int deterministic as \
             begin return vol(x) + 1; end",
        )
        .expect_err("a DETERMINISTIC wrapper over a volatile callee must be rejected");
    assert_eq!(err.kind(), "binding", "{err}");
    let message = err.to_string();
    assert!(
        message.contains("det") && message.contains("DETERMINISTIC") && message.contains("vol"),
        "diagnostic must name the function, the contract and the volatile callee: {message}"
    );

    // The rejection also fires through the SQL surface (`execute`), not just the
    // registration API.
    let err = session
        .execute(
            "create function det2(int x) returns int deterministic as \
             begin return vol(x) * 2; end",
        )
        .expect_err("execute must reject the same contradiction");
    assert_eq!(err.kind(), "binding", "{err}");
}

/// A UDF that merely inherits the pure-by-default contract (no explicit clause) is
/// silently downgraded to volatile instead of rejected — the default is a default,
/// not a promise.
#[test]
fn inherited_purity_is_downgraded_not_rejected() {
    let engine = Engine::new();
    let session = engine.session();
    session.execute("create table t(x int)").unwrap();
    engine
        .register_function("create function vol(int x) returns int volatile as begin return x; end")
        .unwrap();
    engine
        .register_function("create function lax(int x) returns int as begin return vol(x) + 1; end")
        .expect("an undeclared default must downgrade silently");
    let registry = engine.registry();
    let lax = registry.udf("lax").unwrap();
    assert!(
        !lax.pure,
        "transitively volatile body must clear the inferred pure flag"
    );
    // And the volatility is transitive: a third hop inherits it too.
    engine
        .register_function(
            "create function laxer(int x) returns int as begin return lax(x) - 1; end",
        )
        .unwrap();
    assert!(!engine.registry().udf("laxer").unwrap().pure);
}
