//! Integration tests of the optimizer's plan cache through `Engine` + `Session`:
//! hit/miss accounting, LRU eviction under capacity pressure, invalidation on UDF
//! redefinition and DDL, EXPLAIN surfacing, and a seeded property test proving that
//! random interleavings of `query` and `register_udf` never serve a stale plan.

use udf_decorrelation::common::SmallRng;
use udf_decorrelation::engine::{Engine, QueryOptions, QueryResult};
use udf_decorrelation::exec::ExecConfig;
use udf_decorrelation::prelude::Value;

/// An engine with `t(x int, grp int)` holding five rows and the scalar UDF
/// `shift(x) = x * mult + add`.
fn db_with_shift(mult: i64, add: i64) -> Engine {
    with_shift(Engine::new(), mult, add)
}

fn with_shift(engine: Engine, mult: i64, add: i64) -> Engine {
    let session = engine.session();
    session.execute("create table t(x int, grp int)").unwrap();
    session
        .execute("insert into t values (1, 0), (2, 0), (3, 1), (4, 1), (5, 2)")
        .unwrap();
    register_shift(&engine, mult, add);
    engine
}

/// An engine like [`db_with_shift`]'s whose plan cache holds two outcomes.
fn tiny_cache_with_shift(mult: i64, add: i64) -> Engine {
    with_shift(Engine::builder().plan_cache_capacity(2).build(), mult, add)
}

fn register_shift(engine: &Engine, mult: i64, add: i64) {
    engine
        .register_function(&format!(
            "create function shift(int v) returns int as begin return v * {mult} + {add}; end"
        ))
        .unwrap();
}

const SHIFT_QUERY: &str = "select x, shift(x) as y from t";

fn shifted(result: &QueryResult) -> Vec<(i64, i64)> {
    let xs = result.column("x").unwrap();
    let ys = result.column("y").unwrap();
    let mut out: Vec<(i64, i64)> = xs
        .iter()
        .zip(&ys)
        .map(|(x, y)| match (x, y) {
            (Value::Int(x), Value::Int(y)) => (*x, *y),
            other => panic!("unexpected values {other:?}"),
        })
        .collect();
    out.sort();
    out
}

#[test]
fn repeated_queries_hit_the_cache_and_agree_with_fresh_runs() {
    let engine = db_with_shift(2, 1);
    let session = engine.session();
    let cold = session.query(SHIFT_QUERY).unwrap();
    let cold_activity = cold.rewrite_report.cache.expect("cache attached");
    assert!(!cold_activity.hit);
    for i in 0..3 {
        let warm = session.query(SHIFT_QUERY).unwrap();
        let activity = warm.rewrite_report.cache.expect("cache attached");
        assert!(activity.hit, "repeat {i} must hit");
        assert_eq!(shifted(&warm), shifted(&cold));
        assert_eq!(warm.used_decorrelated_plan, cold.used_decorrelated_plan);
        // The warm report replaces the pipeline traces with one plan-cache trace.
        let names: Vec<&str> = warm
            .rewrite_report
            .passes
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(names, vec!["plan-cache"]);
        assert!(warm
            .rewrite_notes
            .iter()
            .any(|n| n.contains("served from plan cache")));
    }
    let stats = engine.plan_cache_stats();
    assert_eq!(stats.hits, 3);
    assert!(stats.misses >= 1);
    assert_eq!(stats.entries, 1);
}

/// Two sessions on one engine, one serial and one with a four-worker override, share
/// the plan cache but never each other's cached decision: the pipeline fingerprint
/// folds in the parallelism the strategy choice was costed for, so a plan optimized
/// for one pool size is never served to another.
#[test]
fn sessions_with_different_parallelism_never_share_a_cached_decision() {
    let engine = db_with_shift(2, 1);
    assert_eq!(engine.parallelism(), 1);
    let serial = engine.session();
    let pooled = engine.session().with_exec_config(ExecConfig {
        parallelism: 4,
        ..ExecConfig::default()
    });
    let hit = |result: &QueryResult| result.rewrite_report.cache.expect("cache attached").hit;

    let cold = serial.query(SHIFT_QUERY).unwrap();
    assert!(!hit(&cold));
    assert!(hit(&serial.query(SHIFT_QUERY).unwrap()));
    let misses_before = engine.plan_cache_stats().misses;

    // The pooled session must not be served the strategy costed for one worker.
    let first_pooled = pooled.query(SHIFT_QUERY).unwrap();
    assert!(
        !hit(&first_pooled),
        "a four-worker session must miss the serial session's warm entry"
    );
    assert_eq!(engine.plan_cache_stats().misses, misses_before + 1);
    assert_eq!(shifted(&first_pooled), shifted(&cold));

    // It warms its own entry …
    assert!(hit(&pooled.query(SHIFT_QUERY).unwrap()));

    // … beside the serial one, which is still servable: two entries, one per size.
    let back = serial.query(SHIFT_QUERY).unwrap();
    assert!(
        hit(&back),
        "the serial entry cached earlier must still be servable"
    );
    assert_eq!(shifted(&back), shifted(&cold));
    assert_eq!(engine.plan_cache_stats().entries, 2);
}

#[test]
fn strategies_use_distinct_cache_entries() {
    let engine = db_with_shift(3, 0);
    let session = engine.session();
    let auto = session.query(SHIFT_QUERY).unwrap();
    // A different strategy is a different pipeline: it must not serve Auto's entry.
    let iterative = session
        .query_with(SHIFT_QUERY, &QueryOptions::iterative())
        .unwrap();
    assert!(!iterative.rewrite_report.cache.expect("cache attached").hit);
    assert_eq!(shifted(&auto), shifted(&iterative));
    let warm_iterative = session
        .query_with(SHIFT_QUERY, &QueryOptions::iterative())
        .unwrap();
    assert!(
        warm_iterative
            .rewrite_report
            .cache
            .expect("cache attached")
            .hit
    );
    assert_eq!(engine.plan_cache_stats().entries, 2);
}

#[test]
fn redefined_udf_body_changes_the_cached_outcome() {
    // The satellite regression: after CREATE OR REPLACE, the registry generation moves
    // and a repeated query must re-optimize against the new body — never serve the plan
    // built from the old one.
    let engine = db_with_shift(1, 1);
    let session = engine.session();
    let before = session.query(SHIFT_QUERY).unwrap();
    assert_eq!(
        shifted(&before),
        vec![(1, 2), (2, 3), (3, 4), (4, 5), (5, 6)]
    );
    let warm = session.query(SHIFT_QUERY).unwrap();
    assert!(warm.rewrite_report.cache.expect("cache attached").hit);

    let generation_before = engine.registry().generation();
    register_shift(&engine, 1, 100);
    assert!(
        engine.registry().generation() > generation_before,
        "register_udf must bump the registry generation"
    );

    let after = session.query(SHIFT_QUERY).unwrap();
    let activity = after.rewrite_report.cache.expect("cache attached");
    assert!(
        !activity.hit,
        "redefinition must invalidate the cached plan"
    );
    assert_eq!(
        shifted(&after),
        vec![(1, 101), (2, 102), (3, 103), (4, 104), (5, 105)],
        "the outcome must reflect the redefined body"
    );
    // And the new entry serves the new body from then on.
    let warm_after = session.query(SHIFT_QUERY).unwrap();
    assert!(warm_after.rewrite_report.cache.expect("cache attached").hit);
    assert_eq!(shifted(&warm_after), shifted(&after));
}

#[test]
fn ddl_invalidates_cached_plans() {
    let engine = db_with_shift(2, 0);
    let session = engine.session();
    session.query(SHIFT_QUERY).unwrap();
    assert!(
        session
            .query(SHIFT_QUERY)
            .unwrap()
            .rewrite_report
            .cache
            .unwrap()
            .hit
    );
    session.execute("create index on t(grp)").unwrap();
    let after_ddl = session.query(SHIFT_QUERY).unwrap();
    assert!(
        !after_ddl.rewrite_report.cache.unwrap().hit,
        "DDL must move the catalog generation and miss"
    );
}

#[test]
fn lru_eviction_under_capacity_pressure() {
    let engine = tiny_cache_with_shift(2, 0);
    let session = engine.session();
    let queries = [
        "select x from t where x <= 1",
        "select x from t where x <= 2",
        "select x from t where x <= 3",
    ];
    for sql in &queries {
        session.query(sql).unwrap();
    }
    let stats = engine.plan_cache_stats();
    assert_eq!(stats.entries, 2, "{stats:?}");
    assert!(stats.evictions >= 1, "{stats:?}");
    // The oldest entry was evicted; the two youngest are resident.
    assert!(
        !session
            .query(queries[0])
            .unwrap()
            .rewrite_report
            .cache
            .unwrap()
            .hit
    );
    assert!(
        session
            .query(queries[2])
            .unwrap()
            .rewrite_report
            .cache
            .unwrap()
            .hit
    );
}

#[test]
fn explain_surfaces_cache_statistics() {
    let engine = db_with_shift(2, 0);
    let session = engine.session();
    let first = session.explain(SHIFT_QUERY).unwrap();
    assert!(first.contains("plan cache: miss"), "{first}");
    let second = session.explain(SHIFT_QUERY).unwrap();
    assert!(second.contains("plan cache: hit"), "{second}");
    assert!(second.contains("plan-cache"), "{second}");
    assert!(second.contains("hits="), "{second}");
}

#[test]
fn forked_engine_starts_with_a_cold_cache() {
    let engine = db_with_shift(2, 0);
    let session = engine.session();
    session.query(SHIFT_QUERY).unwrap();
    assert!(
        session
            .query(SHIFT_QUERY)
            .unwrap()
            .rewrite_report
            .cache
            .unwrap()
            .hit
    );
    let fork = engine.fork();
    assert_eq!(fork.plan_cache_stats().entries, 0);
    let fresh = fork.session().query(SHIFT_QUERY).unwrap();
    assert!(
        !fresh.rewrite_report.cache.unwrap().hit,
        "a fork mutates independently and must not share cache entries"
    );
}

/// Seeded property test (in-repo deterministic harness, like `tests/rule_properties`):
/// for random interleavings of `query` and `register_udf` — over several query shapes
/// and a deliberately tiny cache so eviction, hits and invalidation all occur — every
/// query result must match the *current* UDF definition. A single stale served plan
/// would surface as a wrong `y` column.
#[test]
fn random_query_redefine_interleavings_never_serve_stale_plans() {
    const CASES: u64 = 24;
    const STEPS: usize = 40;
    for case in 0..CASES {
        let seed = 0xCAC4_E000 + case;
        let mut rng = SmallRng::seed_from_u64(seed);
        let engine = tiny_cache_with_shift(1, 0);
        let session = engine.session();
        let (mut mult, mut add) = (1i64, 0i64);
        for step in 0..STEPS {
            if rng.gen_range_usize(0, 4) == 0 {
                mult = rng.gen_range_i64(1, 5);
                add = rng.gen_range_i64(-10, 10);
                register_shift(&engine, mult, add);
                continue;
            }
            // Three query shapes so the tiny cache keeps churning.
            let limit = rng.gen_range_i64(1, 4) + 2;
            let sql = format!("select x, shift(x) as y from t where x <= {limit}");
            let result = session
                .query(&sql)
                .unwrap_or_else(|e| panic!("seed {seed:#x} step {step}: query failed: {e}"));
            let expected: Vec<(i64, i64)> = (1..=5)
                .filter(|x| *x <= limit)
                .map(|x| (x, x * mult + add))
                .collect();
            assert_eq!(
                shifted(&result),
                expected,
                "seed {seed:#x} step {step}: stale plan served for mult={mult} add={add}"
            );
        }
        let stats = engine.plan_cache_stats();
        assert!(
            stats.hits > 0,
            "seed {seed:#x}: the interleaving never exercised the cache: {stats:?}"
        );
    }
}
