//! Static plan validation wired through the optimizer: every stage of the real
//! pipeline records its validation checks, its intermediate plans validate clean on
//! every experiment-style workload, a malformed input keeps its user-error kind, and
//! the UDF body analyzer rejects registrations whose declared determinism contradicts
//! the body.

use udf_decorrelation::common::SmallRng;
use udf_decorrelation::engine::Engine;
use udf_decorrelation::exec::CatalogProvider;
use udf_decorrelation::optimizer::PassManager;
use udf_decorrelation::tpch::{experiment1, experiment2, experiment3, load, TpchConfig};

// ----------------------------------------------------------- broken-rule detection

/// The real rewrite pipeline validates clean on a real workload, and every executed
/// stage records its validation checks. (A stage whose output breaks a clean plan fails
/// with a named-stage, named-violation error: that is a unit test of the stage helper in
/// `optimizer::pass`.)
#[test]
fn real_rewrite_pipeline_validates_every_stage_clean() {
    let workload = experiment2();
    let engine = load(&TpchConfig::tiny()).unwrap();
    workload.install(&engine).unwrap();
    let plan = udf_decorrelation::parser::parse_and_plan(&(workload.query)(10)).unwrap();
    let catalog = engine.catalog();
    let registry = engine.registry();
    let provider = CatalogProvider::new(&catalog, &registry);

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

/// An unqualified column that matches several columns of the innermost scope with a
/// match is ambiguous: a binding error that says so, never a silent reference to a
/// same-named column of an enclosing query — neither in a scalar subquery, nor under
/// EXISTS, nor at the top level.
#[test]
fn an_ambiguous_column_is_a_binding_error_not_an_outer_reference() {
    let engine = Engine::new();
    let session = engine.session();
    session
        .execute(
            "create table o(k int, v int); insert into o values (1, 10), (2, 20); \
             create table t(k int, w int); insert into t values (1, 100), (2, 200), (3, 300)",
        )
        .unwrap();
    for sql in [
        "select o.v, (select count(*) from t a join t b on a.k = b.k where k = 3) as n from o",
        "select o.v from o where exists (select 1 from t a join t b on a.k = b.k where k = 3)",
        "select k from t a join t b on a.k = b.k",
    ] {
        let err = match session.query(sql) {
            Ok(result) => panic!("`{sql}` must fail, returned {:?}", result.rows),
            Err(err) => err,
        };
        assert_eq!(err.kind(), "binding", "`{sql}`: {err}");
        assert!(err.to_string().contains("ambiguous"), "`{sql}`: {err}");
    }
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
