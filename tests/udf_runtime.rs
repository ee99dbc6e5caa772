//! The UDF invocation runtime: per-query dedup, cross-query memoization of pure UDF
//! results, and their invalidation rules.
//!
//! Two contracts are driven here end to end:
//!
//! * **transparency** — with the dedup tier and the memo on, every query returns rows
//!   byte-identical to the plain evaluation, at every tested pool size, warm or cold;
//! * **freshness** — a memoized result never outlives the registry or catalog state
//!   it was computed against: redefining a UDF or changing table data empties the
//!   stale entries before the next query runs.

use udf_decorrelation::common::{Row, SmallRng, Value};
use udf_decorrelation::engine::{Engine, QueryOptions};
use udf_decorrelation::exec::ExecConfig;

const PARALLELISMS: [usize; 4] = [1, 2, 4, 8];
/// Small morsels so the property-sized tables span many of them.
const TEST_MORSEL: usize = 16;

/// An engine with a `probes` table whose `grp` column repeats heavily (the
/// repeated-argument workload batching and memoization feed on) and a pure UDF whose
/// result depends on the `items` table.
fn scored_db(rows: usize, distinct_groups: i64, seed: u64) -> Engine {
    let engine = Engine::new();
    let session = engine.session();
    session
        .execute(
            "create table items(id int not null, grp int, val float); \
         create index on items(grp); \
         create table probes(id int not null, grp int)",
        )
        .unwrap();
    let mut rng = SmallRng::seed_from_u64(seed);
    let items: Vec<Row> = (0..rows)
        .map(|i| {
            Row::new(vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range_i64(0, distinct_groups)),
                Value::Float(rng.gen_range_f64(1.0, 100.0)),
            ])
        })
        .collect();
    engine.insert_rows("items", items).unwrap();
    let probes: Vec<Row> = (0..rows)
        .map(|i| {
            Row::new(vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range_i64(0, distinct_groups)),
            ])
        })
        .collect();
    engine.insert_rows("probes", probes).unwrap();
    engine
        .register_function(
            "create function group_score(int g) returns float as \
         begin \
           float total; \
           select sum(val) into :total from items where grp = :g; \
           if (total > 0) return total; \
           return 0.0; \
         end",
        )
        .unwrap();
    engine
}

fn runtime_config(parallelism: usize, batching: bool, memoization: bool) -> ExecConfig {
    ExecConfig {
        parallelism,
        morsel_size: TEST_MORSEL,
        udf_batching: batching,
        udf_memoization: memoization,
        ..ExecConfig::default()
    }
}

fn iterative_with(config: ExecConfig) -> QueryOptions {
    QueryOptions {
        exec_config: Some(config),
        ..QueryOptions::iterative()
    }
}

/// Seeded property test: batching + memoization on vs off produce byte-identical
/// rows (same values, same order) across parallelism 1/2/4/8, on projections and on
/// multi-conjunct UDF filters, cold and warm.
#[test]
fn batching_and_memoization_preserve_results_bytewise() {
    for seed in [7, 99, 2014] {
        let engine = scored_db(200, 12, seed);
        let session = engine.session();
        for sql in [
            "select id, grp, group_score(grp) as score from probes",
            // Two conjuncts, one UDF-bearing: exercises the cost-ordered path too.
            "select id from probes where group_score(grp) > 200.0 and id >= 10",
        ] {
            let baseline = session
                .query_with(sql, &iterative_with(runtime_config(1, false, false)))
                .unwrap();
            for p in PARALLELISMS {
                // Cold-ish and warm runs: the second run at each pool size is
                // answered mostly from the memo and must not change a byte.
                for run in 0..2 {
                    let result = session
                        .query_with(sql, &iterative_with(runtime_config(p, true, true)))
                        .unwrap();
                    assert_eq!(
                        baseline.rows, result.rows,
                        "seed {seed} parallelism {p} run {run} diverged for {sql}"
                    );
                }
            }
        }
        // 200 probes over 12 groups repeat heavily: the runtime must have answered
        // most calls from the caches instead of evaluating the body per row.
        let warm = session
            .query_with(
                "select id, grp, group_score(grp) as score from probes",
                &iterative_with(runtime_config(4, true, true)),
            )
            .unwrap();
        let stats = &warm.exec_stats;
        assert!(
            stats.udf_memo_hits + stats.udf_dedup_hits > 0,
            "warm run should hit the caches: {stats:?}"
        );
        assert_eq!(
            stats.udf_invocations, 0,
            "a fully warm memo answers every call: {stats:?}"
        );
    }
}

/// Redefining a UDF bumps the registry generation, which empties the memo: the new
/// definition's results must be served immediately, never the old ones.
#[test]
fn redefining_a_udf_never_serves_stale_results() {
    let engine = Engine::new();
    let session = engine.session();
    session.execute("create table t(x int)").unwrap();
    engine
        .insert_rows(
            "t",
            (1..=10i64).map(|i| Row::new(vec![Value::Int(i)])).collect(),
        )
        .unwrap();
    engine
        .register_function("create function f(int x) returns int as begin return x + 1; end")
        .unwrap();
    let sql = "select x, f(x) as y from t";
    let first = session.query_with(sql, &QueryOptions::iterative()).unwrap();
    assert_eq!(
        first.column("y").unwrap(),
        (2..=11i64).map(Value::Int).collect::<Vec<_>>()
    );
    // Warm the memo: the second run is answered from it.
    let warm = session.query_with(sql, &QueryOptions::iterative()).unwrap();
    assert_eq!(first.rows, warm.rows);
    assert!(
        warm.exec_stats.udf_memo_hits > 0,
        "second run should be served by the memo: {:?}",
        warm.exec_stats
    );
    // Redefine f. The memoized x+1 results are now stale.
    engine
        .register_function("create function f(int x) returns int as begin return x * 10; end")
        .unwrap();
    let after = session.query_with(sql, &QueryOptions::iterative()).unwrap();
    assert_eq!(
        after.column("y").unwrap(),
        (1..=10i64).map(|i| Value::Int(i * 10)).collect::<Vec<_>>(),
        "redefined UDF must never serve the old definition's results"
    );
    assert!(
        engine.udf_memo_stats().invalidations >= 1,
        "the registry generation bump must flush the memo: {:?}",
        engine.udf_memo_stats()
    );
}

/// Changing table data bumps the catalog's data generation: memoized results of
/// data-dependent pure UDFs are flushed, so the next query sees the new data.
#[test]
fn data_changes_invalidate_memoized_udf_results() {
    let db_seed = 4242;
    let engine = scored_db(60, 3, db_seed);
    let session = engine.session();
    let sql = "select grp, group_score(grp) as score from probes where id < 5";
    let before = session.query_with(sql, &QueryOptions::iterative()).unwrap();
    // Warm run served from the memo.
    let warm = session.query_with(sql, &QueryOptions::iterative()).unwrap();
    assert_eq!(before.rows, warm.rows);
    // A new item changes every group's sum candidate set; the memoized scores for
    // group 0 are stale now.
    session
        .execute("insert into items values (10000, 0, 5000.0)")
        .unwrap();
    let after = session.query_with(sql, &QueryOptions::iterative()).unwrap();
    for (row_before, row_after) in before.rows.iter().zip(&after.rows) {
        let grp = row_before.get(0);
        if *grp == Value::Int(0) {
            assert_ne!(
                row_before.get(1),
                row_after.get(1),
                "group 0's memoized score must be recomputed after the insert"
            );
        } else {
            assert_eq!(row_before.get(1), row_after.get(1));
        }
    }
}

/// Memo invalidation is per table: `group_score` provably reads only `items`, so
/// its epoch is keyed on that table's data version. Inserting into the *unrelated*
/// `probes` table must keep its memoized results servable.
#[test]
fn unrelated_table_inserts_do_not_invalidate_memoized_results() {
    let engine = scored_db(60, 3, 77);
    let session = engine.session();
    let sql = "select grp, group_score(grp) as score from probes where id < 5";
    let cold = session.query_with(sql, &QueryOptions::iterative()).unwrap();
    // Insert into a table group_score never reads (bumps the catalog-wide data
    // generation, but not items' data version).
    session
        .execute("insert into probes values (10000, 1)")
        .unwrap();
    let warm = session.query_with(sql, &QueryOptions::iterative()).unwrap();
    assert!(
        warm.exec_stats.udf_memo_hits > 0,
        "inserting into probes must not evict group_score(items) results: {:?}",
        warm.exec_stats
    );
    for (row_cold, row_warm) in cold.rows.iter().zip(&warm.rows) {
        assert_eq!(row_cold.get(1), row_warm.get(1));
    }
    // Inserting into items *does* invalidate, as the sibling test above drives.
    session
        .execute("insert into items values (10001, 0, 5000.0)")
        .unwrap();
    let refreshed = session.query_with(sql, &QueryOptions::iterative()).unwrap();
    assert!(
        engine.udf_memo_stats().invalidations >= 1,
        "items' data-version bump must drop stale group_score entries: {:?}",
        engine.udf_memo_stats()
    );
    let stale_score = cold
        .rows
        .iter()
        .find(|r| *r.get(0) == Value::Int(0))
        .map(|r| r.get(1).clone());
    let fresh_score = refreshed
        .rows
        .iter()
        .find(|r| *r.get(0) == Value::Int(0))
        .map(|r| r.get(1).clone());
    assert_ne!(stale_score, fresh_score);
}

/// A `volatile` UDF opts out of both caches: every call evaluates the body.
#[test]
fn volatile_udfs_are_never_cached() {
    let engine = Engine::new();
    let session = engine.session();
    session.execute("create table t(x int)").unwrap();
    engine
        .insert_rows("t", vec![Row::new(vec![Value::Int(1)]); 10])
        .unwrap();
    engine
        .register_function("create function v(int x) returns int volatile as begin return x; end")
        .unwrap();
    let result = session
        .query_with("select v(x) as y from t", &QueryOptions::iterative())
        .unwrap();
    assert_eq!(result.exec_stats.udf_invocations, 10);
    assert_eq!(result.exec_stats.udf_memo_hits, 0);
    assert_eq!(result.exec_stats.udf_dedup_hits, 0);
}

/// Observed UDF predicate pass-rates feed the feedback store, where the next query's
/// cost-ordered evaluation (and the strategy choice) can read them.
#[test]
fn filter_selectivity_feedback_is_recorded() {
    let sql = "select id from probes where group_score(grp) > 200.0 and id >= 0";
    // The inline route and — with morsels small enough that 4 workers really fan
    // out — the pooled route record the pass-rate, and record the same one.
    let mut pass_rates = vec![];
    for parallelism in [1, 4] {
        let engine = scored_db(200, 12, 31);
        let session = engine.session();
        let result = session
            .query_with(
                sql,
                &iterative_with(runtime_config(parallelism, true, true)),
            )
            .unwrap();
        assert_eq!(result.exec_stats.parallel_operators > 0, parallelism > 1);
        let learned = engine.feedback().learned()["group_score"];
        let observed = learned
            .pass_rate
            .expect("the UDF conjunct's pass-rate should be recorded");
        assert!(
            (0.0..=1.0).contains(&observed),
            "pass-rate out of range: {observed}"
        );
        pass_rates.push(observed);
        // Dedup feedback: repeated groups mean most calls were cache hits, so the
        // learned effective-invocation fraction is well below 1.
        let fraction = learned
            .dedup_fraction
            .expect("dedup fraction should be trusted after 200 calls");
        assert!(fraction < 0.5, "12 groups over 200 rows: {fraction}");
    }
    assert_eq!(pass_rates[0], pass_rates[1]);
}

/// ROADMAP follow-up: the memo epoch covers a UDF's *full* read set, not just
/// single-table bodies. A UDF reading two tables is keyed on a fingerprint of both
/// data versions, so inserts into an unrelated third table keep its memoized results
/// servable — while an insert into either read table still evicts them.
#[test]
fn two_table_udf_memo_survives_inserts_into_unrelated_table() {
    let engine = Engine::new();
    let session = engine.session();
    session
        .execute(
            "create table items(grp int, val float); \
         create table rates(grp int, rate float); \
         create table probes(id int not null, grp int)",
        )
        .unwrap();
    engine
        .insert_rows(
            "items",
            (0..30)
                .map(|i| Row::new(vec![Value::Int(i % 3), Value::Float(10.0 + i as f64)]))
                .collect(),
        )
        .unwrap();
    engine
        .insert_rows(
            "rates",
            (0..3)
                .map(|g| Row::new(vec![Value::Int(g), Value::Float(1.0 + g as f64)]))
                .collect(),
        )
        .unwrap();
    engine
        .insert_rows(
            "probes",
            (0..20)
                .map(|i| Row::new(vec![Value::Int(i), Value::Int(i % 3)]))
                .collect(),
        )
        .unwrap();
    engine
        .register_function(
            "create function scaled_score(int g) returns float as \
         begin \
           float total; float r; \
           select sum(val) into :total from items where grp = :g; \
           select max(rate) into :r from rates where grp = :g; \
           return total * r; \
         end",
        )
        .unwrap();
    let sql = "select grp, scaled_score(grp) as score from probes where id < 6";
    let cold = session.query_with(sql, &QueryOptions::iterative()).unwrap();
    // Insert into the table scaled_score never reads: bumps the catalog-wide data
    // generation, but neither items' nor rates' data version.
    session
        .execute("insert into probes values (1000, 1)")
        .unwrap();
    let warm = session.query_with(sql, &QueryOptions::iterative()).unwrap();
    assert!(
        warm.exec_stats.udf_memo_hits > 0,
        "inserting into probes must not evict scaled_score(items, rates) results: {:?}",
        warm.exec_stats
    );
    for (row_cold, row_warm) in cold.rows.iter().zip(&warm.rows) {
        assert_eq!(row_cold.get(1), row_warm.get(1));
    }
    // Inserting into *either* read table invalidates: rates is the second table of
    // the read set, exactly the case a single-table epoch key would miss.
    session
        .execute("insert into rates values (0, 100.0)")
        .unwrap();
    let refreshed = session.query_with(sql, &QueryOptions::iterative()).unwrap();
    assert!(
        engine.udf_memo_stats().invalidations >= 1,
        "rates' data-version bump must drop stale scaled_score entries: {:?}",
        engine.udf_memo_stats()
    );
    let stale = cold
        .rows
        .iter()
        .find(|r| *r.get(0) == Value::Int(0))
        .map(|r| r.get(1).clone());
    let fresh = refreshed
        .rows
        .iter()
        .find(|r| *r.get(0) == Value::Int(0))
        .map(|r| r.get(1).clone());
    assert_ne!(
        stale, fresh,
        "max(rate) for group 0 changed from 1.0 to 100.0"
    );
}

/// Regression: a UDF whose body reads the *same table* as the calling query must
/// decorrelate correctly. The inlined body's scan used to keep the outer query's
/// qualifier, so the correlation predicate `t.k = :k` collapsed into the tautology
/// `t.k = t.k` after parameter substitution and every row silently received the
/// whole-table aggregate.
#[test]
fn self_table_udf_decorrelates_to_the_same_answer_as_iteration() {
    // A fresh engine per strategy, so neither run sees the other's caches.
    let fresh_session = || {
        let session = Engine::new().session();
        session
            .execute("create table t0(c0 int not null, c1 float)")
            .unwrap();
        session
            .execute("insert into t0 values (1, 10.0), (1, 5.0), (2, 7.0), (3, 100.0)")
            .unwrap();
        session
            .register_function(
                "create function f0(int k) returns float as \
             begin return select sum(c1) from t0 where c0 = :k; end",
            )
            .unwrap();
        session
    };
    let query = "select c0, f0(c0) as v from t0";
    let baseline = fresh_session()
        .query_with(query, &QueryOptions::iterative())
        .unwrap();
    let result = fresh_session()
        .query_with(query, &QueryOptions::decorrelated())
        .unwrap();
    assert_eq!(
        baseline.rows, result.rows,
        "decorrelated plan must match per-key iterative results"
    );
    // Groups 1/2/3 sum to 15, 7 and 100 — distinct values prove per-key correlation.
    assert_eq!(result.rows.len(), 4);
    let distinct: std::collections::HashSet<String> = result
        .rows
        .iter()
        .map(|r| format!("{:?}", r.get(1)))
        .collect();
    assert_eq!(
        distinct.len(),
        3,
        "every row got the same (whole-table) sum"
    );
}

/// The dedup tier's reservation is the one mechanism that keeps counters independent of
/// scheduling: at parallelism 8 racing workers coalesce onto one evaluation per
/// distinct argument tuple, and a worker that re-evaluates a tuple whose reservation it
/// lost books a hit. For every position a UDF call can take in a filter/project chain,
/// rows are byte-identical to the serial run and `udf_invocations` equals the serial
/// count, every round.
#[test]
fn udf_invocation_counters_are_stable_under_racing_workers() {
    const ROWS: usize = 2_000;
    const GROUPS: i64 = 50;
    const ROUNDS: usize = 10;
    let base = scored_db(ROWS, GROUPS, 0xC0DE);
    for function in [
        "create function group_count(int g) returns int as \
         begin int n; select count(*) into :n from items where grp = :g; return n; end",
        // Errors for exactly one argument value: division by zero at g = 7.
        "create function fragile(int g) returns float as \
         begin \
           float total; \
           select sum(val) into :total from items where grp = :g; \
           return total / (g - 7); \
         end",
    ] {
        base.register_function(function).unwrap();
    }
    // Every run starts from a fork: same data and functions, empty caches.
    let run = |sql: &str, parallelism: usize| {
        base.fork()
            .session()
            .query_with(
                sql,
                &iterative_with(runtime_config(parallelism, true, true)),
            )
            .unwrap()
    };
    let shapes = [
        (
            "select id, group_score(grp) as score from probes",
            GROUPS as u64,
        ),
        (
            "select id from probes where group_score(grp) > 200.0 and id >= 10",
            GROUPS as u64,
        ),
        (
            "select id, group_score(grp) as score, group_count(grp) as n from probes",
            2 * GROUPS as u64,
        ),
    ];
    for (sql, distinct_calls) in shapes {
        let serial = run(sql, 1);
        assert_eq!(
            serial.exec_stats.udf_invocations, distinct_calls,
            "serial baseline: one evaluation per distinct (function, group): {sql}"
        );
        for round in 0..ROUNDS {
            let result = run(sql, 8);
            assert!(result.exec_stats.parallel_operators > 0, "{sql}");
            assert_eq!(result.rows, serial.rows, "round {round}: {sql}");
            assert_eq!(
                result.exec_stats.udf_invocations, serial.exec_stats.udf_invocations,
                "round {round}: parallel invocation count drifted from the serial baseline: {sql}"
            );
        }
    }
    // An evaluation that fails abandons its reservation, which must wake the workers
    // waiting on that tuple (a lost wake-up would hang this test): the query fails with
    // the error the serial run reports, and the next query on the same engine is
    // unaffected. The memo stays detached here — which tuples a failing parallel query
    // got to memoize before it failed is the one thing that does depend on scheduling.
    let failing_then_next = |parallelism: usize| {
        let session = base.fork().session();
        let options = iterative_with(runtime_config(parallelism, true, false));
        let error = session
            .query_with("select id, fragile(grp) as v from probes", &options)
            .unwrap_err()
            .to_string();
        let next = session
            .query_with(
                "select id, fragile(grp) as v from probes where grp <> 7",
                &options,
            )
            .unwrap();
        (error, next)
    };
    let (serial_error, serial_next) = failing_then_next(1);
    assert!(serial_error.contains("division by zero"), "{serial_error}");
    assert_eq!(serial_next.exec_stats.udf_invocations, GROUPS as u64 - 1);
    for round in 0..ROUNDS {
        let (error, next) = failing_then_next(8);
        assert_eq!(error, serial_error, "round {round}");
        assert_eq!(next.rows, serial_next.rows, "round {round}");
        assert_eq!(
            next.exec_stats.udf_invocations, serial_next.exec_stats.udf_invocations,
            "round {round}: the query after a failed one must count as its serial run does"
        );
    }
}

/// The serial, seeded script that pins what the invocation path counts: a projection
/// and a two-conjunct filter over the same pure UDF through both cache tiers, and the
/// projection again with the engine memo detached (so the per-query tier answers), run
/// cold, warm, after an insert into a table the UDF never reads and after an insert
/// into the one it does. The constants were recorded at the commit before the
/// invocation path was unified (two dedup mechanisms, `call_udf`/`call_table_udf` as
/// twins, the caches filled at five sites), so any change to lookup order, publish
/// sites or epoch derivation shows here as a moved number rather than as a subtly
/// different hit rate.
///
/// A row is `(step, shape, [udf_invocations, udf_memo_hits, udf_dedup_hits] of the
/// query, [hits, misses, insertions, invalidations] of the engine memo so far)`.
#[test]
fn serial_counters_match_the_recorded_constants() {
    const MEMO_OFF: &str = "projection, memo off";
    let engine = scored_db(300, 20, 0x5EED);
    let session = engine.session();
    let shapes = [
        (
            "projection",
            "select id, group_score(grp) as score from probes",
            true,
        ),
        (
            "filter",
            "select id from probes where group_score(grp + 1) > 200.0 and id >= 10",
            true,
        ),
        (
            MEMO_OFF,
            "select id, group_score(grp) as score from probes",
            false,
        ),
    ];
    let mut observed = vec![];
    let mut step = |step: &'static str| {
        for (shape, sql, memoization) in shapes {
            let options = iterative_with(runtime_config(1, true, memoization));
            let stats = session.query_with(sql, &options).unwrap().exec_stats;
            let memo = engine.udf_memo_stats();
            observed.push((
                step,
                shape,
                [
                    stats.udf_invocations,
                    stats.udf_memo_hits,
                    stats.udf_dedup_hits,
                ],
                [memo.hits, memo.misses, memo.insertions, memo.invalidations],
            ));
        }
    };
    step("cold");
    step("warm");
    session
        .execute("insert into probes values (100000, 3)")
        .unwrap();
    step("unrelated insert");
    session
        .execute("insert into items values (100000, 0, 5000.0)")
        .unwrap();
    step("related insert");
    let expected = vec![
        ("cold", "projection", [20, 280, 0], [280, 20, 20, 0]),
        ("cold", "filter", [1, 289, 0], [569, 21, 21, 0]),
        ("cold", MEMO_OFF, [20, 0, 280], [569, 21, 21, 0]),
        ("warm", "projection", [0, 300, 0], [869, 21, 21, 0]),
        ("warm", "filter", [0, 290, 0], [1159, 21, 21, 0]),
        ("warm", MEMO_OFF, [20, 0, 280], [1159, 21, 21, 0]),
        (
            "unrelated insert",
            "projection",
            [0, 301, 0],
            [1460, 21, 21, 0],
        ),
        ("unrelated insert", "filter", [0, 291, 0], [1751, 21, 21, 0]),
        (
            "unrelated insert",
            MEMO_OFF,
            [20, 0, 281],
            [1751, 21, 21, 0],
        ),
        (
            "related insert",
            "projection",
            [20, 281, 0],
            [2032, 41, 41, 20],
        ),
        ("related insert", "filter", [1, 290, 0], [2322, 42, 42, 21]),
        ("related insert", MEMO_OFF, [20, 0, 281], [2322, 42, 42, 21]),
    ];
    assert_eq!(observed, expected);
}

/// An aggregate inside a UDF body sees the body's parameter through its outer scope:
/// here both its argument and its group key name `:ckey`. Each invocation's aggregate
/// binds its own call's argument, on the serial aggregate and, for a call made on the
/// calling thread at two threads with one row per morsel, on the fanned-out one.
#[test]
fn an_aggregate_in_a_udf_body_binds_the_parameter_in_its_argument_and_group_key() {
    let engine = Engine::new();
    let session = engine.session();
    session
        .execute(
            "create table t(k int, x int); create table q(k int); \
             insert into t values (1, 10), (1, 20), (2, 5), (3, 7); \
             insert into q values (1), (2), (4)",
        )
        .unwrap();
    engine
        .register_function(
            "create function scaled(int ckey) returns int as \
             begin return select sum(x * :ckey) from t where k = :ckey group by :ckey; end",
        )
        .unwrap();
    for parallelism in [1, 2] {
        let config = ExecConfig {
            parallelism,
            morsel_size: 1,
            udf_batching: false,
            udf_memoization: false,
            ..ExecConfig::default()
        };
        let result = session
            .query_with(
                "select k, scaled(k) as s from q",
                &iterative_with(config.clone()),
            )
            .unwrap();
        assert_eq!(result.exec_stats.udf_invocations, 3);
        assert_eq!(
            result.canonical_projection(&["k", "s"]).unwrap(),
            ["(1, 30)", "(2, 10)", "(4, NULL)"],
            "parallelism={parallelism}"
        );
        // A call outside any row loop runs its body on the calling executor, so the
        // two rows of `k = 1` fan out over the aggregate's morsels.
        let single = session
            .query_with("select scaled(1) as s", &iterative_with(config))
            .unwrap();
        assert_eq!(single.column("s").unwrap(), [Value::Int(30)]);
        if parallelism > 1 {
            assert!(single.exec_stats.morsels_dispatched > 0);
        }
    }
}
