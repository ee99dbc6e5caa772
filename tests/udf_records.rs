//! The record registration derives for every UDF: its algebraic form or the reason it
//! declines, its auxiliary aggregates and its transitive read set, stored in the UDF's
//! registry entry by the write that registers it.
//!
//! Driven end to end through `CREATE FUNCTION` / `CREATE TABLE` / `DROP TABLE` text:
//!
//! * a body the rewriter must decline is known, with its reason, before any query
//!   arrives, and `Decorrelated` refuses a query with the same reason;
//! * a form follows the tables its body reads: a UDF registered before its table, or
//!   over a table dropped and re-created with other columns, still decorrelates to the
//!   iterative answer;
//! * writes that cannot change a form (`INSERT`, `ANALYZE`, `CREATE INDEX`) leave the
//!   registry, its generation and the memo's hits alone;
//! * auxiliary aggregates carry stable names, leave with the body that made them, and
//!   never share a name with a UDF;
//! * a table written through `Engine::mutate_catalog` re-derives the forms like DDL does.

use udf_decorrelation::engine::{Engine, QueryOptions, Session};
use udf_decorrelation::udf::Statement;

/// An engine with `t(c0, c1)`, three rows.
fn engine_with_t() -> (Engine, Session) {
    let engine = Engine::new();
    let session = engine.session();
    session
        .execute(
            "create table t(c0 int not null, c1 float); \
             insert into t values (1, 1.5), (2, 2.5), (3, -1.0)",
        )
        .unwrap();
    (engine, session)
}

/// The query's rows under `options`, sorted, or its error text.
fn sorted_rows(
    session: &Session,
    sql: &str,
    options: &QueryOptions,
) -> Result<Vec<String>, String> {
    let result = session
        .query_with(sql, options)
        .map_err(|e| e.to_string())?;
    let mut rows: Vec<String> = result.rows.iter().map(|r| format!("{r:?}")).collect();
    rows.sort();
    Ok(rows)
}

/// Iterative, decorrelated and cost-based execution of `sql` agree, and the decorrelated
/// plan runs no UDF body.
fn assert_strategies_agree(session: &Session, sql: &str) {
    let iterative = sorted_rows(session, sql, &QueryOptions::iterative()).unwrap();
    let decorrelated = session
        .query_with(sql, &QueryOptions::decorrelated())
        .unwrap();
    assert_eq!(decorrelated.exec_stats.udf_invocations, 0, "{sql}");
    assert_eq!(
        sorted_rows(session, sql, &QueryOptions::decorrelated()).unwrap(),
        iterative,
        "{sql}"
    );
    assert_eq!(
        sorted_rows(session, sql, &QueryOptions::default()).unwrap(),
        iterative,
        "{sql}"
    );
}

/// One body per decline reachable from SQL, with the reason the rewriter has always
/// printed for it.
const DECLINES: [(&str, &str, &str); 6] = [
    (
        "w",
        "create function w(int n) returns int as \
         begin int i = 0; while (i < n) begin i = i + 1; end return i; end",
        "unsupported: UDF 'w' contains an arbitrary WHILE loop (dynamic iteration space); \
         it can be executed iteratively but not decorrelated",
    ),
    (
        "rb",
        "create function rb(int x) returns int as \
         begin if (x > 0) return 1; else return 0; end",
        "unsupported: RETURN inside a conditional branch is not decorrelatable",
    ),
    (
        "nr",
        "create function nr(int x) returns int as begin int y = x; end",
        "unsupported: UDF 'nr' has no top-level RETURN statement; conditional returns are \
         not decorrelatable",
    ),
    (
        "nc",
        "create function nc(int k) returns int as \
         begin int total = 0; \
           declare c cursor for select c0 from t where c0 = :k; \
           open c; fetch next from c into @v; \
           while @@fetch_status = 0 \
           begin total = @v; fetch next from c into @v; end \
           close c; deallocate c; return total; end",
        "unsupported: cursor loop in UDF 'nc' has no cyclic data dependences; its result \
         does not feed an aggregate and cannot be decorrelated",
    ),
    (
        "two",
        "create function two(int k) returns int as \
         begin int a = 0; int b = 0; \
           declare c cursor for select c0 from t where c0 = :k; \
           open c; fetch next from c into @v; \
           while @@fetch_status = 0 \
           begin a = a + @v; b = b + 1; fetch next from c into @v; end \
           close c; deallocate c; return a + b; end",
        "unsupported: cursor loop has 2 live-out variables; only one is supported",
    ),
    (
        "tv",
        "create function tv(int k) returns tt table(x int) as \
         begin \
           declare c cursor for select c0 from t where c0 = :k; \
           open c; fetch next from c into @v; \
           while @@fetch_status = 0 \
           begin if (@v > 0) insert into tt values (@v); fetch next from c into @v; end \
           close c; deallocate c; return tt; end",
        "unsupported: conditional inserts in table-valued UDFs are not supported",
    ),
];

#[test]
fn every_reachable_decline_is_recorded_at_registration() {
    let (engine, session) = engine_with_t();
    for (name, source, reason) in DECLINES {
        session.execute(source).unwrap();
        let registry = engine.registry();
        let record = registry.record(name).unwrap();
        assert_eq!(
            record
                .form
                .as_ref()
                .map_err(ToString::to_string)
                .unwrap_err(),
            reason
        );
        assert!(record.aux_aggregates.is_empty(), "{name}");
        let reads = if source.contains("from t") {
            vec!["t".to_string()]
        } else {
            vec![]
        };
        assert_eq!(record.reads, Some(reads), "{name}");

        let sql = format!("select c0, {name}(c0) as v from t");
        let refused = session
            .query_with(&sql, &QueryOptions::decorrelated())
            .unwrap_err()
            .to_string();
        // A table-valued function in a scalar position is refused at the call site,
        // before its record is consulted.
        let why = if name == "tv" {
            "table-valued function used in a scalar context"
        } else {
            reason
        };
        assert_eq!(
            refused,
            format!(
                "rewrite error: query could not be decorrelated: UDF '{name}' kept as an \
                 iterative invocation: {why}; no merged UDF invocations; no decorrelated \
                 alternative; executing the iterative plan"
            )
        );
        if name != "tv" {
            assert_eq!(
                session
                    .query_with(&sql, &QueryOptions::iterative())
                    .unwrap()
                    .len(),
                3
            );
        }
    }
}

/// A body that reads a table with no projection on top (`select *`) is typed by the
/// table's schema — once the table exists — instead of panicking the registration.
#[test]
fn a_projection_less_body_decorrelates_once_its_table_exists() {
    let engine = Engine::new();
    let session = engine.session();
    session
        .execute(
            "create function s(int k) returns int as \
             begin return select * from one where c = :k; end",
        )
        .unwrap();
    let reason = engine
        .registry()
        .record("s")
        .unwrap()
        .form
        .clone()
        .unwrap_err();
    assert_eq!(
        reason.to_string(),
        "rewrite error: cannot determine the output columns of an assignment query"
    );
    session
        .execute("create table one(c int); insert into one values (1), (2), (3)")
        .unwrap();
    assert!(engine.registry().record("s").unwrap().form.is_ok());
    assert_strategies_agree(&session, "select c, s(c) from one");
}

/// A form is qualified against the schemas its body reads, so table DDL re-derives it:
/// registered before its table exists, or over a table dropped and re-created with
/// other columns, the UDF gets a form qualified against the table that exists and
/// decorrelates to the iterative answer, over the calling query's own table too.
#[test]
fn forms_follow_the_tables_their_bodies_read() {
    let engine = Engine::new();
    let session = engine.session();
    session
        .execute(
            "create function tot(int key) returns float as \
             begin return select sum(x) from m where k = :key; end",
        )
        .unwrap();
    let unbound = engine.registry().record("tot").unwrap().clone();
    session
        .execute(
            "create table m(k int not null, x float); \
             insert into m values (1, 1.0), (2, 2.0), (3, 3.0), (1, 4.0)",
        )
        .unwrap();
    let bound = engine.registry().record("tot").unwrap().clone();
    assert_ne!(
        bound.form, unbound.form,
        "creating the table re-derives the form"
    );
    assert_eq!(bound.reads, Some(vec!["m".to_string()]));
    let sql = "select k, tot(k) as v from m";
    assert_strategies_agree(&session, sql);

    session
        .execute(
            "drop table m; create table m(pad int, x float, k int not null); \
             insert into m values (0, 10.0, 2), (0, 20.0, 2), (0, 5.0, 7)",
        )
        .unwrap();
    assert_strategies_agree(&session, sql);
    assert_eq!(
        sorted_rows(&session, sql, &QueryOptions::decorrelated()).unwrap(),
        [
            "Row { values: [Int(2), Float(30.0)] }",
            "Row { values: [Int(2), Float(30.0)] }",
            "Row { values: [Int(7), Float(5.0)] }"
        ]
    );
}

/// `INSERT`, `ANALYZE` and `CREATE INDEX` cannot change a form: they leave the registry
/// snapshot (and so its generation and every memo epoch's registry part) untouched, and
/// the memo serves exactly the hits it served before records moved into the registry.
#[test]
fn writes_that_cannot_change_a_form_leave_the_registry_alone() {
    let engine = Engine::new();
    let session = engine.session();
    session
        .execute(
            "create table m(k int not null, x float); \
             insert into m values (1, 1.0), (2, 2.0), (3, 3.0), (1, 4.0); \
             create function tot(int key) returns float as \
             begin return select sum(x) from m where k = :key; end",
        )
        .unwrap();
    let registry = engine.registry();
    let sql = "select k, tot(k) as v from m";
    let mut memo = vec![];
    for step in [
        "q",
        "q",
        "analyze",
        "q",
        "create index on m(k)",
        "q",
        "q",
        "insert into m values (9, 9.0)",
    ] {
        if step == "q" {
            session.query_with(sql, &QueryOptions::iterative()).unwrap();
        } else {
            session.execute(step).unwrap();
            assert!(
                std::sync::Arc::ptr_eq(&registry, &engine.registry()),
                "{step}"
            );
        }
        let stats = engine.udf_memo_stats();
        memo.push((stats.hits, stats.misses));
    }
    assert_eq!(engine.registry().generation(), registry.generation());
    // A fork starts on the same epoch, so its records are not derived again.
    assert!(std::sync::Arc::ptr_eq(
        &engine.registry(),
        &engine.fork().registry()
    ));
    // Recorded before forms moved into the registry.
    assert_eq!(
        memo,
        [
            (1, 3),
            (5, 3),
            (5, 3),
            (6, 6),
            (6, 6),
            (7, 9),
            (11, 9),
            (11, 9)
        ]
    );
}

const CURSOR_BODY: &str = "begin float n = 0; \
       declare c cursor for select c1 from t where c0 = :k; \
       open c; fetch next from c into @v; \
       while @@fetch_status = 0 n = n + @v; fetch next from c into @v; \
       close c; deallocate c; return n; end";

/// Auxiliary aggregates are named by (UDF, loop ordinal), leave with the body that made
/// them, and never share a name with a UDF: `CREATE FUNCTION` refuses every name of
/// their shape, whether or not such an aggregate is registered.
#[test]
fn auxiliary_aggregates_are_named_owned_and_never_shadowed() {
    let (engine, session) = engine_with_t();
    session
        .execute(&format!(
            "create function g(int k) returns float as {CURSOR_BODY}"
        ))
        .unwrap();
    let registry = engine.registry();
    assert_eq!(registry.record("g").unwrap().aux_aggregates, ["aux_agg_g"]);
    assert!(registry.has_aggregate("aux_agg_g"));
    let sql = "select c0, g(c0) as v from t";
    assert_strategies_agree(&session, sql);

    // A body with two loops: the second loop's aggregate has its own stable name.
    session
        .execute(
            "create function f(int k) returns int as \
             begin int a = 0; int b = 0; \
               declare c cursor for select c0 from t where c0 = :k; \
               open c; fetch next from c into @v; \
               while @@fetch_status = 0 a = a + @v; fetch next from c into @v; \
               close c; deallocate c; \
               declare d cursor for select c0 from t; \
               open d; fetch next from d into @w; \
               while @@fetch_status = 0 b = b + @w; fetch next from d into @w; \
               close d; deallocate d; \
               return a + b; end",
        )
        .unwrap();
    let registry = engine.registry();
    assert_eq!(
        registry.record("f").unwrap().aux_aggregates,
        ["aux_agg_f", "aux2_agg_f"]
    );
    assert!(registry.has_aggregate("aux2_agg_f"));

    // CREATE OR REPLACE takes the old body's aggregates with it.
    session
        .execute("create or replace function f(int k) returns int as begin return k; end")
        .unwrap();
    let registry = engine.registry();
    assert!(registry.record("f").unwrap().aux_aggregates.is_empty());
    assert!(!registry.has_aggregate("aux_agg_f") && !registry.has_aggregate("aux2_agg_f"));

    // A UDF cannot take the aggregate's name, nor one no aggregate holds yet.
    for shadow in ["aux_agg_g", "AUX3_agg_nobody"] {
        let refused = session
            .execute(&format!(
                "create function {shadow}(int k) returns varchar(8) as begin return 'x'; end"
            ))
            .unwrap_err();
        assert_eq!(
            refused.to_string(),
            format!(
                "catalog error: function name '{}' is reserved for auxiliary aggregates",
                shadow.to_ascii_lowercase()
            )
        );
    }
    let registry = engine.registry();
    assert!(!registry.has_udf("aux_agg_g") && registry.has_aggregate("aux_agg_g"));
    assert_eq!(
        registry.return_type("aux_agg_g"),
        Some(udf_decorrelation::common::DataType::Float)
    );
    assert_strategies_agree(&session, sql);
}

/// `int a = 1, b = 2;` declares two variables in the enclosing block — one `Declare` per
/// variable — so both stay in scope for what follows it, in a body and in the
/// statements before the cyclic part of a cursor loop alike.
#[test]
fn a_multi_variable_declaration_declares_each_variable_in_its_block() {
    let (engine, session) = engine_with_t();
    session
        .execute(
            "create function g(int k) returns int as \
             begin int a = 1, b = 2; return a + b + k; end; \
             create function h(int k) returns float as \
             begin float s = 0; \
               declare c cursor for select c1 from t where c0 = :k; \
               open c; fetch next from c into @v; \
               while @@fetch_status = 0 \
               begin float p = @v, q = 2; s = s + p * q; fetch next from c into @v; end \
               close c; deallocate c; return s; end",
        )
        .unwrap();
    let registry = engine.registry();
    let kinds = |stmts: &[Statement]| stmts.iter().map(Statement::kind).collect::<Vec<_>>();
    assert_eq!(
        kinds(&registry.udf("g").unwrap().body),
        ["declare", "declare", "return"]
    );
    let Statement::CursorLoop { body, .. } = &registry.udf("h").unwrap().body[1] else {
        panic!("expected the cursor loop second");
    };
    assert_eq!(kinds(body), ["declare", "declare", "assign"]);
    assert_strategies_agree(&session, "select c0, g(c0) as v from t");
    assert_strategies_agree(&session, "select c0, h(c0) as v from t");
}

/// A cursor that fetches the very column it is correlated on: the merged projections
/// keep the inlined body's qualifier on that column, so the decorrelated plan binds and
/// every intermediate plan validates.
#[test]
fn a_cursor_loop_fetching_its_correlated_column_decorrelates() {
    let (_engine, session) = engine_with_t();
    session
        .execute(
            "create function f(int k) returns int as \
             begin int s = 0; \
               declare c cursor for select c0 from t where c0 = :k; \
               open c; fetch next from c into @v; \
               while @@fetch_status = 0 \
               begin s = s + @v; fetch next from c into @v; end \
               close c; deallocate c; return s; end",
        )
        .unwrap();
    let sql = "select c0, f(c0) as s from t";
    assert_strategies_agree(&session, sql);
    let validated = QueryOptions {
        validate_plans: Some(true),
        ..QueryOptions::default()
    };
    assert_eq!(
        sorted_rows(&session, sql, &validated).unwrap(),
        sorted_rows(&session, sql, &QueryOptions::iterative()).unwrap()
    );
}

/// A table created or dropped through `Engine::mutate_catalog`, not the SQL front door,
/// re-derives the forms too: the one catalog write path does it.
#[test]
fn a_table_created_through_mutate_catalog_rebinds_the_forms() {
    use udf_decorrelation::common::{Column, DataType, Row, Schema, Value};
    let engine = Engine::new();
    let session = engine.session();
    session
        .execute(
            "create function tot(int key) returns float as \
             begin return select sum(x) from m where k = :key; end",
        )
        .unwrap();
    let unbound = engine.registry().record("tot").unwrap().clone();
    let schema = Schema::new(vec![
        Column::new("k", DataType::Int),
        Column::new("x", DataType::Float),
    ]);
    let rows = [(1, 1.0), (2, 2.0), (1, 4.0)]
        .map(|(k, x)| Row::new(vec![Value::Int(k), Value::Float(x)]))
        .to_vec();
    engine
        .mutate_catalog(|c| {
            c.create_table("m", schema)?;
            c.insert_rows("m", rows)
        })
        .unwrap();
    assert_eq!(
        engine.registry().record("tot").unwrap().reads,
        Some(vec!["m".to_string()])
    );
    assert_ne!(engine.registry().record("tot").unwrap().form, unbound.form);
    assert_strategies_agree(&session, "select k, tot(k) as v from m");
    engine.mutate_catalog(|c| c.drop_table("m")).unwrap();
    assert_eq!(engine.registry().record("tot").unwrap().form, unbound.form);
}

/// The functions of the two-call queries: `f0`/`f1` aggregate `t0` by key, `h1` counts
/// `t1` rows by key in a cursor loop, `p0` reads no table.
const TWO_CALL_UDFS: &str = "\
    create function f0(int k) returns float as \
    begin return select sum(c1) from t0 where c0 = :k; end; \
    create function f1(int k) returns float as \
    begin return select max(c1) from t0 where c0 = :k; end; \
    create function h1(int k) returns int as \
    begin int n = 0; \
      declare c cursor for select c1 from t1 where c0 = :k; \
      open c; fetch next from c into @x; \
      while @@fetch_status = 0 begin n = n + 1; fetch next from c into @x; end \
      close c; deallocate c; return n; end; \
    create function p0(int k) returns int as begin return k + 1; end";

/// Queries with two merged UDF calls, in one expression, in two columns, and in a
/// conjunctive `WHERE`.
const TWO_CALL_QUERIES: [&str; 5] = [
    "select c0, f0(c0) + f1(c0) as v from t1",
    "select c0, h1(c0) as a, h1(c0) as b from t1",
    "select c0, h1(c0) + p0(c0) as v from t1",
    "select c0, p0(c0) + h1(c0) as v from t1",
    "select c0 from t0 where f0(c0) > 1.0 and h1(c0) > 0",
];

/// Two merged calls in one query: each inlined body's grouped side gets its own name,
/// so the decorrelated plan binds every column, and all three strategies agree, with
/// every intermediate plan validated.
#[test]
fn a_query_with_two_merged_calls_decorrelates() {
    let session = Engine::new().session();
    session
        .execute(
            "create table t0(c0 int not null, c1 float, c2 int); \
             insert into t0 values (1, 1.5, 3), (1, 2.5, 4), (2, -3.0, 5), (3, null, 6), \
             (4, 0.0, null); \
             create table t1(c0 int not null, c1 int); \
             insert into t1 values (1, 10), (2, 20), (2, 30), (5, 50)",
        )
        .unwrap();
    session.execute(TWO_CALL_UDFS).unwrap();
    let validated = |strategy: QueryOptions| QueryOptions {
        validate_plans: Some(true),
        ..strategy
    };
    for sql in TWO_CALL_QUERIES {
        assert_strategies_agree(&session, sql);
        let iterative = sorted_rows(&session, sql, &QueryOptions::iterative()).unwrap();
        for options in [QueryOptions::decorrelated(), QueryOptions::default()] {
            assert_eq!(
                sorted_rows(&session, sql, &validated(options)).unwrap(),
                iterative,
                "{sql}"
            );
        }
    }

    // At scale, with an index and statistics, the cost-based choice runs the
    // decorrelated plan of the two aggregate calls.
    let session = Engine::new().session();
    let rows = |f: &dyn Fn(i64) -> String| (0..3000).map(f).collect::<Vec<_>>().join(", ");
    session
        .execute(&format!(
            "create table t0(c0 int not null, c1 float, c2 int); \
             insert into t0 values {}; \
             create table t1(c0 int not null, c1 int); \
             insert into t1 values {}; \
             create index on t0(c0); analyze",
            rows(&|i| format!("({}, {}.5, {i})", i % 1000, i % 7)),
            rows(&|i| format!("({}, {})", i % 1500, i % 11)),
        ))
        .unwrap();
    session.execute(TWO_CALL_UDFS).unwrap();
    for sql in [
        TWO_CALL_QUERIES[0],
        "select c0, f0(c0) as a, f1(c0) as b from t1",
    ] {
        assert_strategies_agree(&session, sql);
    }
}
