//! Concurrent multi-session serving: several [`Session`]s on one shared [`Engine`],
//! interleaving reads with inserts, `ANALYZE` and UDF re-registration.
//!
//! Three contracts are driven here end to end:
//!
//! * **isolation without blocking** — every query pins a catalog snapshot; concurrent
//!   writers swap in new epochs, so nothing panics, deadlocks or tears mid-query;
//! * **determinism** — each session's query results are byte-identical to a serial
//!   replay of the same seeded operation sequence on a fresh engine (shared tables
//!   are read-only during the stress, private tables are written by exactly one
//!   session, and UDF re-registration reuses the same body);
//! * **sharing** — a plan optimized by one session is a plan-cache hit for another.

use std::thread;

use udf_decorrelation::common::{Row, SmallRng, Value};
use udf_decorrelation::engine::{Engine, Session};
use udf_decorrelation::exec::ExecConfig;
use udf_decorrelation::storage::Catalog;

const SESSIONS: usize = 4;
const OPS_PER_SESSION: usize = 40;

const SERVICE_LEVEL_SQL: &str = "create function service_level(int ckey) returns varchar(10) as \
     begin \
       float totalbusiness; string level; \
       select sum(totalprice) into :totalbusiness from orders where custkey = :ckey; \
       if (totalbusiness > 200000) level = 'Platinum'; \
       else if (totalbusiness > 50000) level = 'Gold'; \
       else level = 'Regular'; \
       return level; \
     end";

/// Shared customer/orders tables plus one private `events_<i>` table per session.
fn build_engine(parallelism: usize) -> Engine {
    let engine = Engine::builder().parallelism(parallelism).build();
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
    engine.insert_rows("customer", customers).unwrap();
    let mut orders = vec![];
    let mut orderkey = 0i64;
    for i in 1..=30i64 {
        for _ in 0..i {
            orderkey += 1;
            orders.push(Row::new(vec![
                Value::Int(orderkey),
                Value::Int(i),
                Value::Float(1000.0 * i as f64),
            ]));
        }
    }
    engine.insert_rows("orders", orders).unwrap();
    for t in 0..SESSIONS {
        admin
            .execute(&format!(
                "create table events_{t}(id int not null, grp int, amount float)"
            ))
            .unwrap();
    }
    admin.register_function(SERVICE_LEVEL_SQL).unwrap();
    engine
}

/// Runs one session's seeded operation mix and returns the log of query results
/// (canonicalized: strategy choices may differ between runs, results may not).
fn run_session(session: &Session, t: usize) -> Vec<String> {
    let mut rng = SmallRng::seed_from_u64(1000 + t as u64);
    let mut next_id = 0i64;
    let mut log = vec![];
    for step in 0..OPS_PER_SESSION {
        let roll = rng.gen_range_i64(0, 100);
        if roll < 55 {
            // Shared-shape query: every session submits the same SQL, so the plan
            // cache serves one optimized entry to all of them.
            let result = session
                .query("select custkey, service_level(custkey) as level from customer")
                .unwrap();
            log.push(
                result
                    .canonical_projection(&["custkey", "level"])
                    .unwrap()
                    .join("|"),
            );
        } else if roll < 75 {
            // Private insert: only this session writes events_<t>.
            next_id += 1;
            let grp = next_id % 5;
            let amount = step as f64 * 1.5 + t as f64;
            session
                .execute(&format!(
                    "insert into events_{t} values ({next_id}, {grp}, {amount})"
                ))
                .unwrap();
        } else if roll < 90 {
            // Private query over this session's own writes.
            let grp = rng.gen_range_i64(0, 5);
            let result = session
                .query(&format!(
                    "select id, amount from events_{t} where grp = {grp}"
                ))
                .unwrap();
            let mut rows: Vec<String> = result.rows.iter().map(|r| format!("{r:?}")).collect();
            rows.sort();
            log.push(rows.join("|"));
        } else if roll < 95 {
            // ANALYZE interleaves statistics rebuilds (a DDL-generation bump that
            // invalidates cached plans engine-wide) with everyone else's queries.
            let table = if roll % 2 == 0 {
                "orders".to_string()
            } else {
                format!("events_{t}")
            };
            session.execute(&format!("analyze {table}")).unwrap();
        } else {
            // Re-register the shared UDF with the same body: bumps the registry
            // generation (flushing memoized results) without changing any answer.
            session.register_function(SERVICE_LEVEL_SQL).unwrap();
        }
    }
    log
}

/// The tentpole stress: `SESSIONS` threads race reads, writes, ANALYZE and UDF
/// re-registration on one engine; every session's query log must be byte-identical
/// to a serial replay of the same seeded sequence on a fresh engine.
#[test]
fn concurrent_sessions_match_serial_replay() {
    let engine = build_engine(2);
    let handles: Vec<_> = (0..SESSIONS)
        .map(|t| {
            let session = engine.session();
            thread::spawn(move || run_session(&session, t))
        })
        .collect();
    let concurrent_logs: Vec<Vec<String>> =
        handles.into_iter().map(|h| h.join().unwrap()).collect();

    // Serial replay: same seeds, same op sequences, one session at a time.
    let replay_engine = build_engine(2);
    for (t, concurrent) in concurrent_logs.iter().enumerate() {
        let serial = run_session(&replay_engine.session(), t);
        assert_eq!(
            concurrent, &serial,
            "session {t}: concurrent results diverge from serial replay"
        );
    }

    // The sessions shared one plan cache: the repeated shared shape must have been
    // served from it across sessions.
    let stats = engine.plan_cache_stats();
    assert!(
        stats.hits > 0,
        "no cross-session plan-cache hits: {stats:?}"
    );
}

/// A plan optimized (and feedback-calibrated) by session A is a warm cache hit for
/// session B — no re-optimization.
#[test]
fn plan_warmed_by_one_session_hits_in_another() {
    let engine = build_engine(1);
    let sql = "select custkey, service_level(custkey) as level from customer";
    let a = engine.session();
    // Twice: the first execution's runtime feedback may invalidate its own entry
    // (cold statistics); the re-optimized entry is the stable one.
    a.query(sql).unwrap();
    a.query(sql).unwrap();
    let before = engine.plan_cache_stats();
    let b = engine.session();
    let result = b.query(sql).unwrap();
    let after = engine.plan_cache_stats();
    assert!(after.hits > before.hits, "{before:?} vs {after:?}");
    assert_eq!(result.len(), 30);
}

/// Writers never block readers: a long sequence of inserts/ANALYZE on one thread
/// while another thread queries a pinned snapshot per statement — every read sees a
/// consistent row count (never a torn intermediate state). And a reader that pinned
/// an epoch before the writes keeps exactly what it pinned: the writer's single-row
/// inserts into the indexed `orders` outnumber any storage chunk and any index delta,
/// so they seal chunks and fold deltas underneath the pin, which must not notice.
#[test]
fn snapshot_reads_are_consistent_under_concurrent_writes() {
    const ORDER_INSERTS: i64 = 1_100;
    let engine = build_engine(1);
    let lookup = |catalog: &Catalog, custkey: i64| -> Vec<Row> {
        let hits = catalog
            .table("orders")
            .unwrap()
            .index_lookup("custkey", &Value::Int(custkey))
            .expect("orders(custkey) is indexed");
        hits.into_iter().cloned().collect()
    };
    let pinned = engine.catalog();
    let orders_before = pinned.table("orders").unwrap().row_count();
    let (seven_before, new_before) = (lookup(&pinned, 7), lookup(&pinned, 31));
    assert_eq!((seven_before.len(), new_before.len()), (7, 0));

    let writer = engine.session();
    let reader = engine.session();
    let write_thread = thread::spawn(move || {
        for i in 0..ORDER_INSERTS {
            // Alternately a key the pinned reader has postings for, and one it has not.
            let custkey = if i % 2 == 0 { 7 } else { 31 };
            writer
                .execute(&format!(
                    "insert into orders values ({}, {custkey}, 1.0)",
                    10_000 + i
                ))
                .unwrap();
            if i < 50 {
                writer
                    .execute(&format!("insert into events_0 values ({i}, 0, 1.0)"))
                    .unwrap();
                if i % 10 == 0 {
                    writer.execute("analyze events_0").unwrap();
                }
            }
        }
    });
    let mut last = 0usize;
    for _ in 0..50 {
        let n = reader.query("select id from events_0").unwrap().len();
        // Row counts grow monotonically: each statement commits atomically via the
        // epoch swap, so a reader can never observe a partial insert.
        assert!(n >= last, "row count went backwards: {last} -> {n}");
        last = n;
    }
    write_thread.join().unwrap();
    assert_eq!(reader.query("select id from events_0").unwrap().len(), 50);

    // The pin still reads its own epoch, row for row and posting for posting.
    assert_eq!(pinned.table("orders").unwrap().row_count(), orders_before);
    assert_eq!(
        pinned.table("orders").unwrap().scan().iter().count(),
        orders_before
    );
    assert_eq!(lookup(&pinned, 7), seven_before);
    assert_eq!(lookup(&pinned, 31), new_before);
    // A session opened now sees every insert, old postings first.
    let fresh = engine.session();
    let all = fresh.query("select orderkey from orders").unwrap();
    assert_eq!(all.len(), orders_before + ORDER_INSERTS as usize);
    let seven = fresh
        .query("select orderkey from orders where custkey = 7")
        .unwrap();
    let keys: Vec<i64> = seven
        .rows
        .iter()
        .map(|r| r.get(0).as_int().unwrap())
        .collect();
    let expected: Vec<i64> = seven_before
        .iter()
        .map(|r| r.get(0).as_int().unwrap())
        .chain((0..ORDER_INSERTS).step_by(2).map(|i| 10_000 + i))
        .collect();
    assert_eq!(keys, expected);
    assert_eq!(
        lookup(&engine.catalog(), 31).len(),
        ORDER_INSERTS as usize / 2
    );
}

/// `Engine` and `Session` are the handles client threads hold: both must be shareable
/// and sendable. Checked at compile time.
#[test]
fn engine_and_session_are_send_and_sync() {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Engine>();
    assert_send_sync::<Session>();
}

/// What replaced `set_parallelism`: an engine is built serial (no helper budget), and a
/// session that overrides `parallelism` still fans out — its first dispatch raises the
/// *shared* budget to what it asks for, once — and gets rows byte-identical to the
/// serial session's, while the engine's own default stays serial.
#[test]
fn session_parallelism_override_grows_the_shared_pool_once() {
    let engine = build_engine(1);
    assert_eq!(engine.worker_pool_stats().workers, 0);
    let serial = engine.session();
    let pooled = engine.session().with_exec_config(ExecConfig {
        parallelism: 4,
        morsel_size: 16,
        ..engine.exec_config()
    });
    let sql = "select orderkey, custkey, totalprice * 2 as doubled from orders \
               where totalprice > 3000";
    let expected = serial.query(sql).unwrap();
    assert_eq!(expected.exec_stats.parallel_operators, 0);
    assert_eq!(
        engine.worker_pool_stats().workers,
        0,
        "serial queries ask for nothing"
    );

    for round in 0..2 {
        let result = pooled.query(sql).unwrap();
        assert_eq!(result.rows, expected.rows, "row order included");
        assert!(result.exec_stats.parallel_operators > 0, "round {round}");
        let stats = engine.worker_pool_stats();
        assert_eq!((stats.workers, stats.in_flight), (4, 0), "round {round}");
    }
    // The engine's own default is untouched: the serial session still runs inline.
    assert_eq!(engine.parallelism(), 1);
    assert_eq!(serial.query(sql).unwrap().exec_stats.parallel_operators, 0);
}
