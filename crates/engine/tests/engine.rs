//! The engine crate's own tests: the `Engine` + `Session` statement surface, sharing
//! between sessions, the builder, forks, and durability (WAL replay, checkpoints).

use std::path::{Path, PathBuf};

use decorr_common::{Row, Value};
use decorr_engine::{Engine, ExecutionStrategy, ExecutionSummary, QueryOptions};

fn sample_db() -> Engine {
    let engine = Engine::new();
    let session = engine.session();
    session
        .execute(
            "create table customer(custkey int not null, name varchar(25)); \
         create table orders(orderkey int not null, custkey int, totalprice float); \
         create index on orders(custkey);",
        )
        .unwrap();
    let customers: Vec<Row> = (1..=20i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::str(format!("Customer#{i}"))]))
        .collect();
    engine.insert_rows("customer", customers).unwrap();
    let mut orders = vec![];
    let mut ok = 0i64;
    for i in 1..=20i64 {
        for _ in 0..i {
            ok += 1;
            orders.push(Row::new(vec![
                Value::Int(ok),
                Value::Int(i),
                Value::Float(1000.0 * i as f64),
            ]));
        }
    }
    engine.insert_rows("orders", orders).unwrap();
    engine
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

#[test]
fn ddl_dml_and_simple_query() {
    let engine = Engine::new();
    let session = engine.session();
    let summaries = session
        .execute("create table t(x int, y varchar(5)); insert into t values (1, 'a'), (2, 'b')")
        .unwrap();
    assert_eq!(summaries[1], ExecutionSummary::RowsInserted(2));
    let result = session.query("select x from t where y = 'b'").unwrap();
    assert_eq!(result.column("x").unwrap(), vec![Value::Int(2)]);
}

#[test]
fn iterative_and_decorrelated_strategies_agree() {
    let engine = sample_db();
    let session = engine.session();
    let sql = "select custkey, service_level(custkey) as level from customer";
    let iterative = session.query_with(sql, &QueryOptions::iterative()).unwrap();
    let decorrelated = session
        .query_with(sql, &QueryOptions::decorrelated())
        .unwrap();
    assert!(!iterative.used_decorrelated_plan);
    assert!(decorrelated.used_decorrelated_plan);
    assert!(iterative.exec_stats.udf_invocations >= 20);
    assert_eq!(decorrelated.exec_stats.udf_invocations, 0);
    assert_eq!(
        iterative
            .canonical_projection(&["custkey", "level"])
            .unwrap(),
        decorrelated
            .canonical_projection(&["custkey", "level"])
            .unwrap()
    );
}

#[test]
fn auto_strategy_runs_and_matches_iterative() {
    let engine = sample_db();
    let session = engine.session();
    let sql = "select custkey, service_level(custkey) as level from customer";
    let auto = session.query(sql).unwrap();
    let iterative = session.query_with(sql, &QueryOptions::iterative()).unwrap();
    assert_eq!(
        auto.canonical_projection(&["custkey", "level"]).unwrap(),
        iterative
            .canonical_projection(&["custkey", "level"])
            .unwrap()
    );
}

#[test]
fn explain_reports_both_plans_and_decision() {
    let engine = sample_db();
    let session = engine.session();
    let text = session
        .explain("select custkey, service_level(custkey) as level from customer")
        .unwrap();
    assert!(text.contains("original (iterative) plan"));
    assert!(text.contains("decorrelated plan"));
    assert!(text.contains("Join(left outer)"));
    assert!(text.contains("cost-based decision"));
}

#[test]
fn rewrite_sql_produces_flat_query_text() {
    let engine = sample_db();
    let session = engine.session();
    let report = session
        .rewrite_sql("select custkey, service_level(custkey) as level from customer")
        .unwrap();
    assert!(report.decorrelated);
    let sql = report.rewritten_sql.to_lowercase();
    assert!(sql.contains("left outer join"), "sql: {sql}");
    assert!(sql.contains("group by"), "sql: {sql}");
    assert!(sql.contains("case when"), "sql: {sql}");
}

#[test]
fn decorrelated_strategy_fails_for_non_decorrelatable_udf() {
    let engine = sample_db();
    let session = engine.session();
    engine
        .register_function(
            "create function spin(int n) returns int as \
         begin int i = 0; while (i < n) begin i = i + 1; end return i; end",
        )
        .unwrap();
    let err = session
        .query_with(
            "select spin(custkey) from customer",
            &QueryOptions::decorrelated(),
        )
        .unwrap_err();
    assert_eq!(err.kind(), "rewrite");
    // But the Auto and Iterative strategies still execute it.
    let auto = session
        .query("select custkey, spin(custkey) as s from customer where custkey = 3")
        .unwrap();
    assert_eq!(auto.column("s").unwrap(), vec![Value::Int(3)]);
}

#[test]
fn session_parallelism_preserves_results_and_reports_a_trace() {
    let engine = sample_db();
    let session = engine.session();
    // Bulk both tables up past the morsel floor so operators fan out whichever
    // strategy the cost model picks.
    let mut extra_customers = vec![];
    let mut extra_orders = vec![];
    for i in 0..2_000i64 {
        extra_customers.push(Row::new(vec![
            Value::Int(100 + i),
            Value::str(format!("Extra#{i}")),
        ]));
        extra_orders.push(Row::new(vec![
            Value::Int(10_000 + i),
            Value::Int(100 + i),
            Value::Float(500.0 * (i % 7) as f64),
        ]));
    }
    engine.insert_rows("customer", extra_customers).unwrap();
    engine.insert_rows("orders", extra_orders).unwrap();
    let sql = "select custkey, service_level(custkey) as level from customer";
    let serial = session.query(sql).unwrap();
    assert_eq!(engine.parallelism(), 1);
    let mut config = engine.exec_config();
    config.parallelism = 4;
    let pooled = engine.session().with_exec_config(config);
    let parallel = pooled.query(sql).unwrap();
    assert_eq!(serial.rows, parallel.rows);
    assert!(parallel.exec_stats.morsels_dispatched > 0);
    assert!(!parallel.exec_trace.is_empty());
    let analyzed = pooled.explain_analyze(sql).unwrap();
    assert!(analyzed.contains("== execution =="), "{analyzed}");
    assert!(analyzed.contains("parallelism=4"), "{analyzed}");
    assert!(analyzed.contains("== parallel operators =="), "{analyzed}");
    assert!(analyzed.contains("morsels"), "{analyzed}");
}

#[test]
fn errors_surface_cleanly() {
    let engine = Engine::new();
    let session = engine.session();
    assert_eq!(
        session.execute("create tabel t(x int)").unwrap_err().kind(),
        "parse"
    );
    assert_eq!(
        session.query("select * from missing").unwrap_err().kind(),
        "catalog"
    );
}

#[test]
fn sessions_share_data_and_plan_cache() {
    let engine = sample_db();
    let sql = "select custkey, service_level(custkey) as level from customer";
    let a = engine.session();
    let b = engine.session();
    // Warm the shape twice: the very first execution's runtime feedback can
    // invalidate its own entry (cold statistics → q-error over threshold); the
    // re-optimized entry is the stable one every session then shares.
    let first = a.query(sql).unwrap();
    a.query(sql).unwrap();
    let before = engine.plan_cache_stats();
    // Session B reuses the plan session A optimized: same cache, same key.
    let second = b.query(sql).unwrap();
    let after = engine.plan_cache_stats();
    assert!(after.hits > before.hits, "{before:?} vs {after:?}");
    assert_eq!(
        first.canonical_projection(&["custkey", "level"]).unwrap(),
        second.canonical_projection(&["custkey", "level"]).unwrap()
    );
}

#[test]
fn sessions_see_committed_writes_and_pinned_queries_do_not_tear() {
    let engine = Engine::new();
    let writer = engine.session();
    writer
        .execute("create table t(x int); insert into t values (1)")
        .unwrap();
    let reader = engine.session();
    assert_eq!(reader.query("select x from t").unwrap().len(), 1);
    // A pinned snapshot taken before a write keeps reading the old epoch.
    let snapshot = engine.catalog();
    writer.execute("insert into t values (2)").unwrap();
    assert_eq!(snapshot.table("t").unwrap().row_count(), 1);
    assert_eq!(reader.query("select x from t").unwrap().len(), 2);
}

#[test]
fn session_exec_config_override_only_affects_that_session() {
    let engine = sample_db();
    let mut config = engine.exec_config();
    config.parallelism = 3;
    let tuned = engine.session().with_exec_config(config);
    let plain = engine.session();
    let sql = "select custkey, service_level(custkey) as level from customer";
    let tuned_result = tuned.query(sql).unwrap();
    let plain_result = plain.query(sql).unwrap();
    assert_eq!(tuned_result.rows, plain_result.rows);
    assert_eq!(engine.parallelism(), 1);
}

#[test]
fn session_strategy_is_the_default_for_query() {
    let session = sample_db()
        .session()
        .with_strategy(ExecutionStrategy::Iterative);
    let sql = "select custkey, service_level(custkey) as level from customer";
    let result = session.query(sql).unwrap();
    assert!(!result.used_decorrelated_plan);
    assert!(result.exec_stats.udf_invocations >= 20);
}

#[test]
fn builder_configures_capacities_and_parallelism() {
    let engine = Engine::builder()
        .parallelism(2)
        .plan_cache_capacity(7)
        .udf_memo_capacity(0)
        .build();
    assert_eq!(engine.parallelism(), 2);
    assert_eq!(engine.plan_cache().capacity(), 7);
    assert_eq!(engine.worker_pool_stats().workers, 2);
    // Memo capacity 0 disables memoization.
    assert_eq!(engine.udf_memo_stats().entries, 0);
}

#[test]
fn fork_is_independent_copy_on_write() {
    let engine = sample_db();
    let fork = engine.fork();
    fork.insert_rows(
        "customer",
        vec![Row::new(vec![Value::Int(999), Value::str("Forked")])],
    )
    .unwrap();
    assert_eq!(
        fork.catalog().table("customer").unwrap().row_count(),
        engine.catalog().table("customer").unwrap().row_count() + 1
    );
    // The fork starts with cold caches.
    assert_eq!(fork.plan_cache_stats().entries, 0);
}

/// A unique throwaway data directory, removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "decorr_engine_{}_{tag}_{:?}",
            std::process::id(),
            std::thread::current().id(),
        ));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

#[test]
fn writes_survive_reopen_via_wal_alone() {
    let dir = TempDir::new("wal_only");
    {
        let engine = Engine::builder().data_dir(dir.path()).try_build().unwrap();
        let session = engine.session();
        session
            .execute(
                "create table t(x int, y varchar(5)); \
                 insert into t values (1, 'a'), (2, 'b'); \
                 create index on t(x)",
            )
            .unwrap();
        let stats = engine.persist_stats();
        assert!(stats.active && !stats.snapshot_loaded);
        assert_eq!(stats.wal_records_appended, 3);
        assert_eq!(stats.checkpoints, 0);
        // No checkpoint: the reopened engine must rebuild from the WAL alone.
    }
    let engine = Engine::builder().data_dir(dir.path()).try_build().unwrap();
    let stats = engine.persist_stats();
    assert!(!stats.snapshot_loaded);
    assert_eq!(stats.wal_records_replayed, 3);
    let result = engine
        .session()
        .query("select y from t where x = 2")
        .unwrap();
    assert_eq!(result.column("y").unwrap(), vec![Value::str("b")]);
}

#[test]
fn checkpoint_truncates_wal_and_reopen_restores_functions_and_stats() {
    let dir = TempDir::new("checkpoint");
    {
        let engine = Engine::builder().data_dir(dir.path()).try_build().unwrap();
        let session = engine.session();
        session
            .execute(
                "create table orders(orderkey int not null, custkey int, totalprice float); \
                 insert into orders values (1, 1, 100.0), (2, 1, 250.0), (3, 2, 50.0); \
                 create table customer(custkey int not null, name varchar(10)); \
                 insert into customer values (1, 'Ann'), (2, 'Bob')",
            )
            .unwrap();
        session
            .register_function(
                "create function spend(int ckey) returns float as \
                 begin \
                   float total; \
                   select sum(totalprice) into :total from orders where custkey = :ckey; \
                   return total; \
                 end",
            )
            .unwrap();
        session.execute("analyze").unwrap();
        let stats = engine.checkpoint().unwrap();
        assert_eq!(stats.checkpoints, 1);
        assert!(stats.snapshot_bytes > 0);
        // Post-checkpoint writes land in the (fresh) WAL.
        session
            .execute("insert into orders values (4, 2, 75.0)")
            .unwrap();
    }
    let engine = Engine::builder().data_dir(dir.path()).try_build().unwrap();
    let stats = engine.persist_stats();
    assert!(stats.snapshot_loaded);
    assert_eq!(stats.wal_records_replayed, 1);
    let catalog = engine.catalog();
    // `customer` was untouched after the checkpoint: its statistics traveled in
    // the snapshot, so reading them is not a recompute. (`orders` took a
    // WAL-replayed insert, which legitimately dirties its cache.)
    let untouched = catalog.table("customer").unwrap();
    assert!(untouched.stats().analyzed);
    assert_eq!(untouched.stats_recomputes(), 0);
    assert!(catalog.table("orders").unwrap().stats().analyzed);
    let result = engine
        .session()
        .query("select spend(custkey) as s from orders where orderkey = 4")
        .unwrap();
    assert_eq!(result.column("s").unwrap(), vec![Value::Float(125.0)]);
}

#[test]
fn checkpoint_without_data_dir_is_a_named_error() {
    let engine = Engine::new();
    let err = engine.checkpoint().unwrap_err();
    assert_eq!(err.kind(), "persist");
    assert!(!engine.persist_stats().active);
}
