//! Durability, end to end: an engine checkpointed to a `data_dir`, dropped, and
//! reopened must answer the query battery **byte-identically** across shard counts
//! and parallelism, keep the feedback store's learned strategy flips without
//! re-executing the learning workload, replay the longest valid WAL prefix past a
//! torn tail, and reject corrupted snapshots with named errors — never panics.

use std::fs::OpenOptions;
use std::path::{Path, PathBuf};

use udf_decorrelation::common::{Row, Value};
use udf_decorrelation::engine::{Engine, Session};
use udf_decorrelation::optimizer::CostParams;
use udf_decorrelation::persist::{SNAPSHOT_FILE, WAL_FILE};
use udf_decorrelation::prelude::ShardPolicy;

const SERVICE_LEVEL_SQL: &str = "create function service_level(int ckey) returns varchar(10) as \
     begin \
       float totalbusiness; string level; \
       select sum(totalprice) into :totalbusiness from orders where custkey = :ckey; \
       if (totalbusiness > 200000) level = 'Platinum'; \
       else if (totalbusiness > 50000) level = 'Gold'; \
       else level = 'Regular'; \
       return level; \
     end";

/// A unique throwaway data directory, removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "decorr_persistence_{}_{tag}_{:?}",
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

/// Seeded customer/orders data (identical for every configuration), loaded through
/// the WAL-logged write path.
fn populate(engine: &Engine) {
    let admin = engine.session();
    admin
        .execute(
            "create table customer(custkey int not null, name varchar(25)); \
             create table orders(orderkey int not null, custkey int, totalprice float); \
             create index on orders(custkey)",
        )
        .unwrap();
    let customers: Vec<Row> = (1..=30i64)
        .map(|i| Row::new(vec![Value::Int(i), Value::str(format!("Customer#{i}"))]))
        .collect();
    engine.load_rows("customer", customers).unwrap();
    let mut orders = vec![];
    let mut orderkey = 0i64;
    for i in 1..=30i64 {
        for j in 0..20i64 {
            orderkey += 1;
            orders.push(Row::new(vec![
                Value::Int(orderkey),
                Value::Int(i),
                Value::Float(500.0 * i as f64 + 13.0 * j as f64),
            ]));
        }
    }
    engine.load_rows("orders", orders).unwrap();
    admin.register_function(SERVICE_LEVEL_SQL).unwrap();
    admin.execute("analyze").unwrap();
    // A few single-row writes after the bulk load: what gets persisted then has a
    // partly filled tail chunk and index postings not yet folded into the index base,
    // and `custkey = 7` below reads through both.
    for i in 0..5 {
        let custkey = [7, 7, 31, 7, 2][i];
        admin
            .execute(&format!(
                "insert into orders values ({}, {custkey}, 77.5)",
                9_000 + i
            ))
            .unwrap();
    }
}

/// One pass of the query battery; returns every result verbatim (row order is part
/// of the byte-identity contract).
fn run_battery(session: &Session) -> Vec<String> {
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
    push(
        "select o.orderkey from customer c join orders o on c.custkey = o.custkey \
         where o.totalprice > 12000",
    );
    push("select custkey, service_level(custkey) as level from customer");
    log
}

/// The tentpole property: checkpoint, kill, reopen from `data_dir` — the restored
/// engine answers the battery byte-identically to the live one, across shard
/// counts 1/4/8 and parallelism 1/4, and restoring recomputes no statistics. The
/// same holds with no checkpoint at all, when reopening replays the WAL.
#[test]
fn results_are_byte_identical_after_checkpoint_and_reopen() {
    for shards in [1usize, 4, 8] {
        for parallelism in [1usize, 4] {
            for checkpoint in [true, false] {
                let case =
                    format!("shards={shards} parallelism={parallelism} checkpoint={checkpoint}");
                let dir = TempDir::new(&format!("roundtrip_{shards}_{parallelism}_{checkpoint}"));
                let before = {
                    let engine = Engine::builder()
                        .data_dir(dir.path())
                        .shard_count(shards)
                        .parallelism(parallelism)
                        .build();
                    populate(&engine);
                    let before = run_battery(&engine.session());
                    if checkpoint {
                        engine.checkpoint().unwrap();
                    }
                    before
                    // Dropped without any shutdown protocol: reopen is the recovery.
                };
                let mut builder = Engine::builder()
                    .data_dir(dir.path())
                    .parallelism(parallelism);
                if !checkpoint {
                    // Only a snapshot records the fanout; a replayed CREATE TABLE
                    // takes the builder's.
                    builder = builder.shard_count(shards);
                }
                let engine = builder.build();
                let stats = engine.persist_stats();
                assert!(stats.active, "{case}");
                assert_eq!(stats.snapshot_loaded, checkpoint, "{case}");
                assert_eq!(
                    stats.wal_records_replayed == 0,
                    checkpoint,
                    "{case}: a checkpoint truncates the WAL, and only a checkpoint"
                );
                let after = run_battery(&engine.session());
                assert_eq!(before, after, "restored results diverged at {case}");
                if checkpoint {
                    // The snapshot carried the merged statistics: answering the
                    // battery needed no table-statistics rescan on either table.
                    let catalog = engine.catalog();
                    for table in ["customer", "orders"] {
                        assert_eq!(
                            catalog.table(table).unwrap().stats_recomputes(),
                            0,
                            "cold open of {table} must reuse persisted statistics"
                        );
                    }
                }
            }
        }
    }
}

/// The feedback store's learned state is part of the snapshot: a strategy flip
/// earned by executing a miscosted UDF survives a restart, and the reopened engine
/// picks the decorrelated plan on its *first* query — no re-learning execution.
#[test]
fn learned_strategy_flip_survives_restart_without_reexecution() {
    let dir = TempDir::new("feedback_flip");
    let sql = "select custkey, total_business(custkey) as total from customer";
    let learned_before = {
        let engine = Engine::builder().data_dir(dir.path()).build();
        let session = engine.session();
        session
            .execute(
                "create table customer(custkey int not null); \
                 create table orders(orderkey int not null, custkey int, totalprice float, \
                                     comment varchar(40), clerk varchar(20))",
            )
            .unwrap();
        // Deliberately NO index on orders.custkey: the static model prices the
        // correlated plan with an index discount that does not exist.
        let customers: Vec<String> = (0..40).map(|i| format!("({i})")).collect();
        session
            .execute(&format!(
                "insert into customer values {}",
                customers.join(", ")
            ))
            .unwrap();
        let mut orders = vec![];
        for i in 0..8_000i64 {
            orders.push(Row::new(vec![
                i.into(),
                (i % 40).into(),
                (i as f64).into(),
                format!("order comment number {i}").into(),
                format!("Clerk#{}", i % 100).into(),
            ]));
        }
        engine.load_rows("orders", orders).unwrap();
        session
            .register_function(
                "create function total_business(int ckey) returns float as \
                 begin return select sum(totalprice) from orders where custkey = :ckey; end",
            )
            .unwrap();
        let first = session.query(sql).unwrap();
        assert!(
            !first.used_decorrelated_plan,
            "premise: the static model must pick the iterative plan"
        );
        let second = session.query(sql).unwrap();
        assert!(
            second.used_decorrelated_plan,
            "premise: feedback must flip the strategy before the restart"
        );
        engine.checkpoint().unwrap();
        engine
            .feedback()
            .udf_cost_overrides(CostParams::default().row_op_seconds)
            .get("total_business")
            .copied()
            .expect("learned cost present before restart")
    };
    let engine = Engine::builder().data_dir(dir.path()).build();
    let learned_after = engine
        .feedback()
        .udf_cost_overrides(CostParams::default().row_op_seconds)
        .get("total_business")
        .copied()
        .expect("learned UDF cost must survive the restart");
    assert_eq!(
        learned_after.to_bits(),
        learned_before.to_bits(),
        "restored learned cost must be bit-identical"
    );
    // First post-restart query: the learned cost flips the decision immediately —
    // zero iterative invocations ever happen in this process.
    let restored = engine.session().query(sql).unwrap();
    assert!(
        restored.used_decorrelated_plan,
        "restored feedback must flip the strategy without re-execution \
         (notes: {:?})",
        restored.rewrite_notes
    );
    assert_eq!(restored.exec_stats.udf_invocations, 0);
}

/// A torn WAL tail (process killed mid-append) must not poison recovery: reopen
/// replays the longest valid prefix, truncates the tail, and keeps serving writes.
#[test]
fn torn_wal_tail_replays_valid_prefix_and_keeps_serving() {
    let dir = TempDir::new("torn_tail");
    {
        let engine = Engine::builder().data_dir(dir.path()).build();
        let session = engine.session();
        session.execute("create table t(x int)").unwrap();
        for i in 0..5 {
            session
                .execute(&format!("insert into t values ({i})"))
                .unwrap();
        }
    }
    // Tear the tail: chop 3 bytes off the last frame.
    let wal_path = dir.path().join(WAL_FILE);
    let len = std::fs::metadata(&wal_path).unwrap().len();
    OpenOptions::new()
        .write(true)
        .open(&wal_path)
        .unwrap()
        .set_len(len - 3)
        .unwrap();
    let engine = Engine::builder().data_dir(dir.path()).build();
    let stats = engine.persist_stats();
    assert_eq!(
        stats.wal_records_replayed, 5,
        "create-table plus the four intact inserts replay; the torn fifth is dropped"
    );
    let result = engine.session().query("select x from t").unwrap();
    assert_eq!(result.rows.len(), 4);
    // The engine keeps serving writes after the truncation, and they are durable.
    engine
        .session()
        .execute("insert into t values (99)")
        .unwrap();
    drop(engine);
    let reopened = Engine::builder().data_dir(dir.path()).build();
    let result = reopened.session().query("select x from t").unwrap();
    assert_eq!(result.rows.len(), 5);
}

/// A flipped byte anywhere in the snapshot is a named `persist` error (the checksum
/// catches it); a truncated snapshot likewise. Neither panics.
#[test]
fn corrupt_snapshots_are_rejected_with_named_errors() {
    let dir = TempDir::new("corrupt_snapshot");
    {
        let engine = Engine::builder().data_dir(dir.path()).build();
        let session = engine.session();
        session
            .execute("create table t(x int); insert into t values (1), (2), (3)")
            .unwrap();
        engine.checkpoint().unwrap();
    }
    let snapshot_path = dir.path().join(SNAPSHOT_FILE);
    let good = std::fs::read(&snapshot_path).unwrap();

    // Flip one byte in the middle of the payload.
    let mut flipped = good.clone();
    let mid = flipped.len() / 2;
    flipped[mid] ^= 0x40;
    std::fs::write(&snapshot_path, &flipped).unwrap();
    let err = Engine::builder()
        .data_dir(dir.path())
        .try_build()
        .unwrap_err();
    assert_eq!(err.kind(), "persist");

    // Truncate the snapshot.
    std::fs::write(&snapshot_path, &good[..good.len() - 9]).unwrap();
    let err = Engine::builder()
        .data_dir(dir.path())
        .try_build()
        .unwrap_err();
    assert_eq!(err.kind(), "persist");

    // Restoring the intact bytes recovers everything.
    std::fs::write(&snapshot_path, &good).unwrap();
    let engine = Engine::builder().data_dir(dir.path()).try_build().unwrap();
    let result = engine.session().query("select x from t").unwrap();
    assert_eq!(result.rows.len(), 3);
}

/// The `Hash` placement policy is reachable through the public API, reroutes
/// existing rows without changing results, and both the per-table switch and the
/// builder default survive a restart.
#[test]
fn hash_placement_is_reachable_and_durable() {
    let dir = TempDir::new("hash_placement");
    {
        let engine = Engine::builder()
            .data_dir(dir.path())
            .shard_count(4)
            .build();
        let session = engine.session();
        session.execute("create table t(x int, y int)").unwrap();
        let rows: Vec<Row> = (0..200i64)
            .map(|i| Row::new(vec![Value::Int(i), Value::Int(i * 3)]))
            .collect();
        engine.load_rows("t", rows).unwrap();
        let before = engine
            .session()
            .query("select x, y from t")
            .unwrap()
            .canonical_projection(&["x", "y"])
            .unwrap();
        engine.set_table_placement("t", ShardPolicy::Hash).unwrap();
        let table = engine.catalog().table_arc("t").unwrap();
        assert_eq!(table.shard_policy(), ShardPolicy::Hash);
        assert!(
            table.shards().iter().all(|s| !s.is_empty()),
            "hash routing must spread 200 rows over all 4 shards"
        );
        let after = engine
            .session()
            .query("select x, y from t")
            .unwrap()
            .canonical_projection(&["x", "y"])
            .unwrap();
        assert_eq!(before, after, "rerouting must not change the row multiset");
        // Durable via the WAL alone (no checkpoint).
    }
    let engine = Engine::builder().data_dir(dir.path()).build();
    let table = engine.catalog().table_arc("t").unwrap();
    assert_eq!(table.shard_policy(), ShardPolicy::Hash);
    assert_eq!(table.row_count(), 200);
    assert!(table.shards().iter().all(|s| !s.is_empty()));
}
