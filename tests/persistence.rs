//! Durability, end to end: an engine checkpointed to a `data_dir`, dropped, and
//! reopened must answer the query battery **byte-identically** at every parallelism,
//! keep the feedback store's learned strategy flips without re-executing the learning
//! workload, replay the longest valid WAL prefix past a torn tail, refuse a log frame
//! that verifies but does not decode without truncating it, and reject corrupted or
//! old-format snapshots with named errors — never panics.

use std::fs::OpenOptions;
use std::path::{Path, PathBuf};

use udf_decorrelation::common::{FnvHasher, Row, Value};
use udf_decorrelation::engine::{Engine, QueryOptions, Session};
use udf_decorrelation::parser::parse_function;
use udf_decorrelation::persist::encode::ByteWriter;
use udf_decorrelation::persist::{SNAPSHOT_FILE, WAL_FILE};
use udf_decorrelation::udf::FunctionRegistry;

const SERVICE_LEVEL_SQL: &str = "create function service_level(int ckey) returns varchar(10) as \
     begin \
       float totalbusiness; string level; \
       select sum(totalprice) into :totalbusiness from orders where custkey = :ckey; \
       if (totalbusiness > 200000) level = 'Platinum'; \
       else if (totalbusiness > 50000) level = 'Gold'; \
       else level = 'Regular'; \
       return level; \
     end";

/// A cursor-loop UDF (it owns an auxiliary aggregate), registered before the table it
/// reads exists.
const ORDER_COUNT_SQL: &str = "create function order_count(int ckey) returns int as \
     begin \
       int n = 0; \
       declare c cursor for select orderkey from orders where custkey = :ckey; \
       open c; fetch next from c into @ok; \
       while @@fetch_status = 0 n = n + 1; fetch next from c into @ok; \
       close c; deallocate c; \
       return n; \
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
    admin.register_function(ORDER_COUNT_SQL).unwrap();
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
    engine.insert_rows("customer", customers).unwrap();
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
    engine.insert_rows("orders", orders).unwrap();
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
    push("select custkey, order_count(custkey) as n from customer");
    log
}

/// What registration derived for every UDF: the algebraic form or decline reason, the
/// read set and the auxiliary aggregates' definitions.
fn udf_records(engine: &Engine) -> Vec<String> {
    let registry = engine.registry();
    registry
        .records()
        .map(|(name, record)| {
            let aggregates: Vec<String> = record
                .aux_aggregates
                .iter()
                .map(|a| registry.aggregate(a).unwrap().to_string())
                .collect();
            format!(
                "{name} form={:?} reads={:?} aggregates={aggregates:?}",
                record.form, record.reads
            )
        })
        .collect()
}

/// Everything a restore must bring back exactly, per table: rows in scan order, index
/// definitions, statistics, `data_version`; and the catalog's two generations.
fn stored_state(engine: &Engine) -> Vec<String> {
    let catalog = engine.catalog();
    let mut state = vec![format!(
        "generations ddl={} data={}",
        catalog.ddl_generation(),
        catalog.data_generation()
    )];
    for name in catalog.table_names() {
        let table = catalog.table(&name).unwrap();
        state.push(format!(
            "{name} v{} indexes={:?} stats={:?} rows={:?}",
            table.data_version(),
            table.indexed_columns(),
            table.stats(),
            table.scan().collect_rows()
        ));
    }
    state
}

/// The tentpole property: checkpoint, kill, reopen from `data_dir` — the restored
/// engine holds the same stored state and UDF records and answers the battery
/// byte-identically to the live one, at parallelism 1 and 4, and restoring recomputes no
/// statistics. The same holds with no checkpoint at all, when reopening replays the WAL.
#[test]
fn results_are_byte_identical_after_checkpoint_and_reopen() {
    for parallelism in [1usize, 4] {
        for checkpoint in [true, false] {
            let case = format!("parallelism={parallelism} checkpoint={checkpoint}");
            let dir = TempDir::new(&format!("roundtrip_{parallelism}_{checkpoint}"));
            let open = || {
                Engine::builder()
                    .parallelism(parallelism)
                    .data_dir(dir.path())
                    .try_build()
                    .unwrap()
            };
            let (before, state_before, records_before) = {
                let engine = open();
                populate(&engine);
                let before = run_battery(&engine.session());
                if checkpoint {
                    engine.checkpoint().unwrap();
                }
                (before, stored_state(&engine), udf_records(&engine))
                // Dropped without any shutdown protocol: reopen is the recovery.
            };
            let engine = open();
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
                // The snapshot carried the statistics: answering the battery needed
                // no table-statistics rescan on either table.
                let catalog = engine.catalog();
                for table in ["customer", "orders"] {
                    assert_eq!(
                        catalog.table(table).unwrap().stats_recomputes(),
                        0,
                        "cold open of {table} must reuse persisted statistics"
                    );
                }
            }
            assert_eq!(state_before, stored_state(&engine), "{case}");
            assert_eq!(records_before, udf_records(&engine), "{case}");
            assert!(records_before[0].contains("aux_agg_order_count"), "{case}");
        }
    }
}

/// A registry handed to the builder is derived before the data directory is opened, so
/// against no tables; the tables the snapshot brings back re-derive its forms the way
/// table DDL does, and the restored engine decorrelates to the iterative answer.
#[test]
fn a_builder_registry_is_rebound_to_the_restored_tables() {
    let dir = TempDir::new("builder_registry");
    let create_m = "create table m(k int not null, x float)";
    {
        let engine = Engine::builder().data_dir(dir.path()).try_build().unwrap();
        let session = engine.session();
        session.execute(create_m).unwrap();
        session
            .execute("insert into m values (1, 1.0), (2, 2.0), (1, 4.0)")
            .unwrap();
        engine.checkpoint().unwrap();
    }
    let mut registry = FunctionRegistry::new();
    registry.register_udf(
        parse_function(
            "create function tot(int key) returns float as \
             begin return select sum(x) from m where k = :key; end",
        )
        .unwrap(),
    );
    let restored = Engine::builder()
        .registry(registry.clone())
        .data_dir(dir.path())
        .try_build()
        .unwrap();
    let unbound = Engine::builder().registry(registry).build();
    let record = |engine: &Engine| engine.registry().record("tot").cloned().unwrap();
    let before_ddl = record(&unbound);
    unbound.session().execute(create_m).unwrap();
    assert_ne!(record(&unbound), before_ddl);
    assert_eq!(record(&restored), record(&unbound));

    let sql = "select k, tot(k) as v from m";
    let session = restored.session();
    let sorted = |options: &QueryOptions| {
        let result = session.query_with(sql, options).unwrap();
        let mut rows: Vec<String> = result.rows.iter().map(|r| format!("{r:?}")).collect();
        rows.sort();
        (rows, result.exec_stats.udf_invocations)
    };
    let (iterative, _) = sorted(&QueryOptions::iterative());
    assert_eq!(sorted(&QueryOptions::decorrelated()), (iterative, 0));
}

/// The feedback store's learned state is part of the snapshot: a strategy flip
/// earned by executing a miscosted UDF survives a restart, and the reopened engine
/// picks the decorrelated plan on its *first* query — no re-learning execution.
#[test]
fn learned_strategy_flip_survives_restart_without_reexecution() {
    let dir = TempDir::new("feedback_flip");
    let sql = "select custkey, total_business(custkey) as total from customer";
    let learned_before = {
        let engine = Engine::builder().data_dir(dir.path()).try_build().unwrap();
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
        engine.insert_rows("orders", orders).unwrap();
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
        engine.feedback().learned()["total_business"]
            .units
            .expect("learned cost present before restart")
    };
    let engine = Engine::builder().data_dir(dir.path()).try_build().unwrap();
    let learned_after = engine.feedback().learned()["total_business"]
        .units
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
        let engine = Engine::builder().data_dir(dir.path()).try_build().unwrap();
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
    let engine = Engine::builder().data_dir(dir.path()).try_build().unwrap();
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
    let reopened = Engine::builder().data_dir(dir.path()).try_build().unwrap();
    let result = reopened.session().query("select x from t").unwrap();
    assert_eq!(result.rows.len(), 5);
}

/// A flipped byte anywhere in the snapshot is a named `persist` error (the checksum
/// catches it); a truncated snapshot likewise. Neither panics.
#[test]
fn corrupt_snapshots_are_rejected_with_named_errors() {
    let dir = TempDir::new("corrupt_snapshot");
    {
        let engine = Engine::builder().data_dir(dir.path()).try_build().unwrap();
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

/// A snapshot written in an older format `version` is refused by name: no reader
/// exists for it, and nothing of it is loaded.
fn assert_snapshot_version_is_refused(version: u32) {
    let dir = TempDir::new(&format!("snapshot_v{version}"));
    std::fs::create_dir_all(dir.path()).unwrap();
    // Magic, the version, an empty payload, and the checksum that makes it verify.
    let mut image = b"DCRSNAP1".to_vec();
    image.extend_from_slice(&version.to_le_bytes());
    image.extend_from_slice(&0u64.to_le_bytes());
    let mut hasher = FnvHasher::new();
    hasher.write_bytes(&image);
    image.extend_from_slice(&hasher.finish().to_le_bytes());
    std::fs::write(dir.path().join(SNAPSHOT_FILE), &image).unwrap();
    let err = Engine::builder()
        .data_dir(dir.path())
        .try_build()
        .unwrap_err();
    assert_eq!(err.kind(), "persist");
    let expected = format!("snapshot format version {version} is not supported (expected 3)");
    assert!(err.to_string().contains(&expected), "{err}");
    assert_eq!(
        std::fs::read(dir.path().join(SNAPSHOT_FILE)).unwrap(),
        image,
        "the refused image is left in place"
    );
}

/// Version 1 stored partitioned rows and placement policies.
#[test]
fn a_version_1_snapshot_is_refused_by_name() {
    assert_snapshot_version_is_refused(1);
}

/// Version 2 stored each analyzed table's sampling configuration.
#[test]
fn a_version_2_snapshot_is_refused_by_name() {
    assert_snapshot_version_is_refused(2);
}

/// A WAL frame whose sequence number and checksum verify was fully written. If its
/// payload does not decode (here: tag 6, the retired placement record, as an old log
/// would hold) the engine refuses to open and truncates nothing — the acknowledged
/// insert behind it must not be dropped as if it were a torn tail.
#[test]
fn an_undecodable_but_verified_wal_frame_fails_the_open_and_truncates_nothing() {
    let dir = TempDir::new("wal_unknown_tag");
    {
        let engine = Engine::builder().data_dir(dir.path()).try_build().unwrap();
        engine.session().execute("create table t(x int)").unwrap();
    }
    let wal_path = dir.path().join(WAL_FILE);
    let frame = |seq: u64, payload: &[u8]| {
        let mut hasher = FnvHasher::new();
        hasher.write_u64(seq);
        hasher.write_bytes(payload);
        let mut frame = seq.to_le_bytes().to_vec();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&hasher.finish().to_le_bytes());
        frame.extend_from_slice(payload);
        frame
    };
    // Tag 6 with the old record's fields (table name, placement bit); behind it a valid
    // insert (tag 2: table name, row count, rows).
    let mut retired = ByteWriter::new();
    retired.put_u8(6);
    retired.put_str("t");
    retired.put_bool(true);
    let retired = retired.into_bytes();
    let mut insert = ByteWriter::new();
    insert.put_u8(2);
    insert.put_str("t");
    insert.put_u64(1);
    insert.put_row(&Row::new(vec![Value::Int(7)]));
    let insert = insert.into_bytes();
    let mut log = std::fs::read(&wal_path).unwrap();
    let intact = log.len();
    log.extend(frame(2, &retired));
    log.extend(frame(3, &insert));
    std::fs::write(&wal_path, &log).unwrap();

    let err = Engine::builder()
        .data_dir(dir.path())
        .try_build()
        .unwrap_err();
    assert_eq!(err.kind(), "persist");
    let message = err.to_string();
    assert!(
        message.contains("record 2") && message.contains("tag 6"),
        "{message}"
    );
    assert_eq!(std::fs::read(&wal_path).unwrap(), log, "nothing truncated");

    // Without the retired frame the same insert replays: the re-framing was sound.
    log.truncate(intact);
    log.extend(frame(2, &insert));
    std::fs::write(&wal_path, &log).unwrap();
    let engine = Engine::builder().data_dir(dir.path()).try_build().unwrap();
    let result = engine.session().query("select x from t").unwrap();
    assert_eq!(result.rows, vec![Row::new(vec![Value::Int(7)])]);
}
