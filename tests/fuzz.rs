//! Seeded grammar-based fuzzing of the whole pipeline — parser → optimizer →
//! executor → snapshot/restore — plus the durability layer's hostile-bytes front
//! door. Deterministic (in-repo `SmallRng`, fixed base seed) so a failure is a
//! replayable regression, not a flake. `DECORR_FUZZ_ITERS` scales the iteration
//! count (default 60; CI's fuzz-smoke step runs 500).
//!
//! Four properties, asserted every iteration:
//!  1. nothing panics — generated statements may fail, but as `Err`, and serial
//!     and parallel engines must fail identically;
//!  2. serial and parallel executions agree byte-for-byte on every query;
//!  3. an engine checkpointed (or WAL-recovered), dropped and reopened answers
//!     the same queries byte-identically;
//!  4. every UDF query returns the same rows, sorted, iteratively and decorrelated, on
//!     the live and on the restored engine — in half the iterations each
//!     `create function` runs before the `create table` its body reads. A table has up
//!     to two UDFs, each one of four [`UdfShape`]s (the fourth calls the first UDF), and
//!     a query calls them in one of four [`Placement`]s; every shape and every placement
//!     must occur in the run.

use std::path::{Path, PathBuf};

use udf_decorrelation::common::{DataType, SmallRng};
use udf_decorrelation::engine::{Engine, QueryOptions, Session};
use udf_decorrelation::persist::Snapshot;

fn fuzz_iters() -> u64 {
    std::env::var("DECORR_FUZZ_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60)
}

/// A unique throwaway data directory, removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir = std::env::temp_dir().join(format!(
            "decorr_fuzz_{}_{tag}_{:?}",
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

/// The bodies a generated UDF keyed on `c0` can have.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum UdfShape {
    /// `return select sum(<float col>) from tN where c0 = :k`.
    AggregateLookup,
    /// Experiment 2: `select sum(<float col>) into :s …`, then an IF/ELSE over `s`.
    ConditionalAggregate,
    /// Experiment 3: a cursor loop counting the rows of `select <col> from tN where
    /// c0 = :k` into one live-out `int`.
    CursorCount,
    /// A body that calls the table's first UDF and adds a constant (the benchmark's
    /// `cc_nested` shape).
    Nested,
}

const SHAPES: [UdfShape; 4] = [
    UdfShape::AggregateLookup,
    UdfShape::ConditionalAggregate,
    UdfShape::CursorCount,
    UdfShape::Nested,
];

/// Where a UDF query calls its table's UDFs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Placement {
    /// `select c0, fA(c0) as v from tN`.
    Select,
    /// `select c0, fA(c0) + fB(c0) as v from tN`.
    Sum,
    /// `select c0, fA(c0) as a, fB(c0) as b from tN`.
    TwoColumns,
    /// `select c0 from tN where fA(c0) > <lit>`.
    Where,
}

const PLACEMENTS: [Placement; 4] = [
    Placement::Select,
    Placement::Sum,
    Placement::TwoColumns,
    Placement::Where,
];

/// The `returns … as begin … end` part of a `shape` UDF `(int k)` over `table`. The
/// aggregate shapes need a float column; without one the UDF counts with a cursor, as
/// does a nested body with no `callee`.
fn gen_udf_body(
    rng: &mut SmallRng,
    table: &FuzzTable,
    shape: UdfShape,
    callee: Option<&str>,
) -> (UdfShape, String) {
    let name = &table.name;
    let fcol = table.columns_of(DataType::Float).first().copied();
    if let (UdfShape::Nested, Some(callee)) = (shape, callee) {
        return (
            shape,
            format!(
                "returns float as begin float v; v = {callee}(k); v = v + {}; return v; end",
                gen_literal(rng, DataType::Float)
            ),
        );
    }
    match (shape, fcol) {
        (UdfShape::AggregateLookup, Some(fcol)) => (
            shape,
            format!(
                "returns float as begin return select sum({fcol}) from {name} where c0 = :k; end"
            ),
        ),
        (UdfShape::ConditionalAggregate, Some(fcol)) => (
            shape,
            format!(
                "returns float as begin float s; \
                 select sum({fcol}) into :s from {name} where c0 = :k; \
                 if (s > {}) s = s * 2; else s = 0; return s; end",
                gen_literal(rng, DataType::Float)
            ),
        ),
        _ => {
            let (col, _) = &table.columns[rng.gen_range_usize(0, table.columns.len())];
            (
                UdfShape::CursorCount,
                format!(
                    "returns int as begin int n = 0; \
                     declare c cursor for select {col} from {name} where c0 = :k; \
                     open c; fetch next from c into @x; \
                     while @@fetch_status = 0 n = n + 1; fetch next from c into @x; \
                     close c; deallocate c; return n; end"
                ),
            )
        }
    }
}

/// The generated schema the query grammar draws from.
struct FuzzTable {
    name: String,
    /// (column name, type); `c0` is always a non-null int.
    columns: Vec<(String, DataType)>,
    /// Name and shape of each registered UDF keyed on `c0`: none, one or two.
    udfs: Vec<(String, UdfShape)>,
}

impl FuzzTable {
    fn columns_of(&self, ty: DataType) -> Vec<&str> {
        self.columns
            .iter()
            .filter(|(_, t)| *t == ty)
            .map(|(n, _)| n.as_str())
            .collect()
    }
}

fn gen_literal(rng: &mut SmallRng, ty: DataType) -> String {
    match ty {
        DataType::Int => rng.gen_range_i64(-100, 100).to_string(),
        DataType::Float => match rng.gen_range_usize(0, 8) {
            0 => "-0.0".to_string(),
            1 => "0.0".to_string(),
            _ => format!("{:.3}", rng.gen_range_f64(-1e4, 1e4)),
        },
        _ => {
            let len = rng.gen_range_usize(0, 5);
            let s: String = (0..len)
                .map(|_| (b'a' + rng.gen_range_usize(0, 26) as u8) as char)
                .collect();
            format!("'{s}'")
        }
    }
}

/// Generates the DDL/DML statement stream for one iteration. Every statement is a
/// plain SQL string so the identical stream drives every engine under test. With
/// `udf_first`, a UDF is created before the table its body reads.
fn gen_statements(rng: &mut SmallRng, udf_first: bool) -> (Vec<FuzzTable>, Vec<String>) {
    let mut tables = vec![];
    let mut statements = vec![];
    let n_tables = rng.gen_range_usize(1, 3);
    for t in 0..n_tables {
        let mut columns = vec![("c0".to_string(), DataType::Int)];
        let mut decls = vec!["c0 int not null".to_string()];
        for c in 1..=rng.gen_range_usize(1, 4) {
            let (ty, decl) = match rng.gen_range_usize(0, 3) {
                0 => (DataType::Int, "int"),
                1 => (DataType::Float, "float"),
                _ => (DataType::Str, "varchar(8)"),
            };
            columns.push((format!("c{c}"), ty));
            decls.push(format!("c{c} {decl}"));
        }
        let name = format!("t{t}");
        let create_at = statements.len();
        statements.push(format!("create table {name}({})", decls.join(", ")));
        // Insert batches; c0 values overlap across tables so joins hit.
        for _ in 0..rng.gen_range_usize(1, 4) {
            let rows: Vec<String> = (0..rng.gen_range_usize(1, 16))
                .map(|_| {
                    let vals: Vec<String> = columns
                        .iter()
                        .map(|(_, ty)| gen_literal(rng, *ty))
                        .collect();
                    format!("({})", vals.join(", "))
                })
                .collect();
            statements.push(format!("insert into {name} values {}", rows.join(", ")));
        }
        if rng.gen_bool() {
            statements.push(format!("create index on {name}(c0)"));
        }
        let mut table = FuzzTable {
            name,
            columns,
            udfs: vec![],
        };
        // Up to two UDFs correlated with this table's key, `f{t}` then `g{t}`; a nested
        // `g{t}` calls `f{t}`, which is created before it either way.
        let at = if udf_first {
            create_at
        } else {
            statements.len()
        };
        for fname in ["f", "g"].iter().take(rng.gen_range_usize(0, 3)) {
            let fname = format!("{fname}{t}");
            let wanted = SHAPES[rng.gen_range_usize(0, SHAPES.len())];
            let callee = table.udfs.first().map(|(f, _)| f.as_str());
            let (shape, body) = gen_udf_body(rng, &table, wanted, callee);
            let create = format!("create function {fname}(int k) {body}");
            statements.insert(at + table.udfs.len(), create);
            table.udfs.push((fname, shape));
        }
        tables.push(table);
    }
    if rng.gen_bool() {
        statements.push("analyze".to_string());
    }
    (tables, statements)
}

/// The UDFs a query calls, by shape, and where it calls them.
type UdfCalls = (Vec<UdfShape>, Placement);

/// Generates the query battery for one iteration: each query, and the UDFs it calls, if
/// it calls any.
fn gen_queries(rng: &mut SmallRng, tables: &[FuzzTable]) -> Vec<(String, Option<UdfCalls>)> {
    let mut queries = vec![];
    for _ in 0..rng.gen_range_usize(4, 9) {
        let table = &tables[rng.gen_range_usize(0, tables.len())];
        let mut invokes_udf = None;
        let sql = match rng.gen_range_usize(0, 5) {
            // Projection, optionally filtered.
            0 => {
                let n = rng.gen_range_usize(1, table.columns.len() + 1);
                let cols: Vec<&str> = table
                    .columns
                    .iter()
                    .take(n)
                    .map(|(c, _)| c.as_str())
                    .collect();
                let mut sql = format!("select {} from {}", cols.join(", "), table.name);
                if rng.gen_bool() {
                    let (col, ty) = &table.columns[rng.gen_range_usize(0, table.columns.len())];
                    let op = ["=", ">=", "<=", "<>"][rng.gen_range_usize(0, 4)];
                    sql.push_str(&format!(" where {col} {op} {}", gen_literal(rng, *ty)));
                }
                sql
            }
            // Star scan with a range predicate on the key.
            1 => format!(
                "select * from {} where c0 >= {} and c0 <= {}",
                table.name,
                rng.gen_range_i64(-100, 0),
                rng.gen_range_i64(0, 100),
            ),
            // Grouped aggregate over a float column, else a count-ish fallback.
            2 => match table.columns_of(DataType::Float).first() {
                Some(fcol) => format!(
                    "select c0, sum({fcol}) as s from {} group by c0",
                    table.name
                ),
                None => format!("select c0 from {} where c0 <> 0", table.name),
            },
            // Self/cross join on the shared key domain.
            3 => {
                let right = &tables[rng.gen_range_usize(0, tables.len())];
                format!(
                    "select a.c0 from {} a join {} b on a.c0 = b.c0",
                    table.name, right.name,
                )
            }
            // UDF invocation when one exists — the decorrelation front door. The two-call
            // placements call two of the table's UDFs, or its one UDF twice.
            _ if table.udfs.is_empty() => format!("select c0 from {}", table.name),
            _ => {
                let mut pick = || &table.udfs[rng.gen_range_usize(0, table.udfs.len())];
                let ((fa, sa), (fb, sb)) = (pick(), pick());
                let placement = PLACEMENTS[rng.gen_range_usize(0, PLACEMENTS.len())];
                let name = &table.name;
                let (sql, shapes) = match placement {
                    Placement::Select => {
                        (format!("select c0, {fa}(c0) as v from {name}"), vec![*sa])
                    }
                    Placement::Sum => (
                        format!("select c0, {fa}(c0) + {fb}(c0) as v from {name}"),
                        vec![*sa, *sb],
                    ),
                    Placement::TwoColumns => (
                        format!("select c0, {fa}(c0) as a, {fb}(c0) as b from {name}"),
                        vec![*sa, *sb],
                    ),
                    Placement::Where => (
                        format!(
                            "select c0 from {name} where {fa}(c0) > {}",
                            gen_literal(rng, DataType::Float)
                        ),
                        vec![*sa],
                    ),
                };
                invokes_udf = Some((shapes, placement));
                sql
            }
        };
        queries.push((sql, invokes_udf));
    }
    queries
}

/// Executes one statement, folding success and failure into a comparable outcome.
fn apply(session: &Session, sql: &str) -> String {
    match session.execute(sql) {
        Ok(_) => "ok".to_string(),
        Err(e) => format!("error: {e}"),
    }
}

/// Runs one query verbatim (row order included), folding errors into the outcome.
fn run(session: &Session, sql: &str) -> String {
    match session.query(sql) {
        Ok(r) => {
            let rows: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
            rows.join("|")
        }
        Err(e) => format!("error: {e}"),
    }
}

/// Asserts that a UDF query returns the same rows, sorted, iteratively and decorrelated.
fn assert_decorrelation_agrees(session: &Session, sql: &str, context: &str) {
    let sorted = |options: &QueryOptions| match session.query_with(sql, options) {
        Ok(r) => {
            let mut rows: Vec<String> = r.rows.iter().map(|row| format!("{row:?}")).collect();
            rows.sort();
            rows.join("|")
        }
        Err(e) => format!("error: {e}"),
    };
    assert_eq!(
        sorted(&QueryOptions::iterative()),
        sorted(&QueryOptions::decorrelated()),
        "{context}: iterative and decorrelated diverged for `{sql}`"
    );
}

/// The pipeline property: for every seed, serial, parallel and restored engines
/// agree byte-for-byte on every generated statement and query outcome.
#[test]
fn generated_workloads_agree_serial_parallel_and_restored() {
    let iters = fuzz_iters();
    // UDF queries checked, per shape called and per placement.
    let mut shapes_checked = [0usize; SHAPES.len()];
    let mut placements_checked = [0usize; PLACEMENTS.len()];
    for i in 0..iters {
        let mut rng = SmallRng::seed_from_u64(0xF0CC_5EED ^ (i.wrapping_mul(0x9E37_79B9)));
        let (tables, statements) = gen_statements(&mut rng, i % 2 == 1);
        let queries = gen_queries(&mut rng, &tables);
        let dir = TempDir::new(&format!("iter{i}"));

        let serial = Engine::builder()
            .parallelism(1)
            .data_dir(dir.path())
            .try_build()
            .unwrap();
        let parallel = Engine::builder().parallelism(4).build();
        let serial_session = serial.session();
        let parallel_session = parallel.session();
        for sql in &statements {
            let a = apply(&serial_session, sql);
            let b = apply(&parallel_session, sql);
            assert_eq!(a, b, "iter {i}: statement outcome diverged for `{sql}`");
        }
        let mut expected = vec![];
        for (sql, _) in &queries {
            let a = run(&serial_session, sql);
            let b = run(&parallel_session, sql);
            assert_eq!(
                a,
                b,
                "iter {i}: serial/parallel diverged for `{sql}`\nworkload:\n  {}",
                statements.join(";\n  ")
            );
            expected.push(a);
        }
        // Half the iterations checkpoint (restore from snapshot), half rely on WAL
        // replay alone — both recovery paths stay fuzzed.
        if rng.gen_bool() {
            serial.checkpoint().unwrap();
        }
        // After the battery and the checkpoint, so the extra runs' feedback cannot move
        // a cost-based choice the byte-identity checks compare.
        let udf_queries = queries
            .iter()
            .filter_map(|(sql, calls)| Some((sql, calls.as_ref()?)));
        for (sql, (shapes, placement)) in udf_queries.clone() {
            assert_decorrelation_agrees(&serial_session, sql, &format!("iter {i}"));
            for shape in shapes {
                shapes_checked[*shape as usize] += 1;
            }
            placements_checked[*placement as usize] += 1;
        }
        drop(serial);

        let restored = Engine::builder()
            .parallelism(1)
            .data_dir(dir.path())
            .try_build()
            .unwrap();
        let restored_session = restored.session();
        for ((sql, _), want) in queries.iter().zip(&expected) {
            let got = run(&restored_session, sql);
            assert_eq!(
                &got,
                want,
                "iter {i}: restored engine diverged for `{sql}`\nworkload:\n  {}",
                statements.join(";\n  ")
            );
        }
        for (sql, _) in udf_queries {
            assert_decorrelation_agrees(&restored_session, sql, &format!("iter {i} restored"));
        }
    }
    for (shape, checked) in SHAPES.iter().zip(shapes_checked) {
        eprintln!("{shape:?}: {checked} calls checked");
        assert!(checked > 0, "no iteration generated a {shape:?} UDF call");
    }
    for (placement, checked) in PLACEMENTS.iter().zip(placements_checked) {
        eprintln!("{placement:?}: {checked} UDF queries checked");
        assert!(
            checked > 0,
            "no iteration generated a {placement:?} UDF query"
        );
    }
}

/// The front-door property: hostile bytes — random mutations and truncations of a
/// real snapshot, and raw garbage in both durability files — produce `Ok`/`Err`,
/// never a panic, and never a successfully "restored" corrupt engine.
#[test]
fn hostile_bytes_never_panic_the_durability_front_door() {
    let dir = TempDir::new("hostile");
    {
        let engine = Engine::builder().data_dir(dir.path()).try_build().unwrap();
        engine
            .session()
            .execute(
                "create table t(x int not null, y float, z varchar(8)); \
                 insert into t values (1, 1.5, 'ab'), (2, -0.0, ''), (3, 9.75, 'xyz')",
            )
            .unwrap();
        engine.checkpoint().unwrap();
    }
    let snapshot_path = dir.path().join(udf_decorrelation::persist::SNAPSHOT_FILE);
    let wal_path = dir.path().join(udf_decorrelation::persist::WAL_FILE);
    let good = std::fs::read(&snapshot_path).unwrap();

    let mut rng = SmallRng::seed_from_u64(0xBAD_B17E5);
    let iters = fuzz_iters();
    for i in 0..iters {
        // Mutate: up to 4 byte-flips plus an optional truncation.
        let mut bytes = good.clone();
        for _ in 0..rng.gen_range_usize(1, 5) {
            let pos = rng.gen_range_usize(0, bytes.len());
            bytes[pos] ^= (rng.next_u64() % 255 + 1) as u8;
        }
        if rng.gen_bool() {
            bytes.truncate(rng.gen_range_usize(0, bytes.len() + 1));
        }
        // Direct decode of hostile bytes: must return, not panic.
        let _ = Snapshot::decode(&bytes);
        // Full open with the hostile snapshot (and, sometimes, garbage WAL).
        std::fs::write(&snapshot_path, &bytes).unwrap();
        if rng.gen_bool() {
            let garbage: Vec<u8> = (0..rng.gen_range_usize(0, 128))
                .map(|_| (rng.next_u64() & 0xFF) as u8)
                .collect();
            std::fs::write(&wal_path, &garbage).unwrap();
        } else {
            let _ = std::fs::remove_file(&wal_path);
        }
        match Engine::builder().data_dir(dir.path()).try_build() {
            // A mutated-but-accepted snapshot must still be the original content
            // (e.g. a flip confined to bytes a truncation then removed is fine
            // only if the checksum still held — verify by querying).
            Ok(engine) => {
                let r = engine.session().query("select x from t").unwrap();
                assert_eq!(r.rows.len(), 3, "iter {i}: corrupt state slipped through");
            }
            Err(e) => assert_eq!(e.kind(), "persist", "iter {i}: unexpected error kind"),
        }
    }
    // Leave the good bytes behind so the TempDir drop isn't hiding a poisoned dir.
    std::fs::write(&snapshot_path, &good).unwrap();
    let _ = std::fs::remove_file(&wal_path);
    Engine::builder().data_dir(dir.path()).try_build().unwrap();
}
