//! The engine facade: an embeddable in-memory SQL database with UDF decorrelation.
//!
//! The public API is split into two layers:
//!
//! * [`Engine`] — the shared, thread-safe process-wide state: the catalog and function
//!   registry behind an epoch/snapshot swap, plus the plan cache, runtime feedback
//!   store, cross-query UDF memo and persistent worker pool, all shared by every
//!   client. An `Engine` is a cheap clonable handle (`Arc` inside).
//! * [`Session`] — a cheap per-client handle onto an engine. Sessions carry only
//!   per-client state (an executor-config override and a default execution strategy)
//!   and expose the statement surface: [`Session::query`], [`Session::execute`],
//!   [`Session::explain`], [`Session::explain_analyze`]. Sessions are `Clone` and can
//!   be freely moved across threads; any number can run concurrently against one
//!   engine.
//!
//! Reads never block writes: a query *pins* an immutable snapshot of the catalog and
//! registry (two `Arc` clones) and runs entirely against it, while concurrent
//! `INSERT`/`ANALYZE`/DDL build a new catalog copy-on-write (only touched tables are
//! deep-cloned) and atomically swap it in as the next epoch.
//!
//! [`Database`] remains as a thin single-session facade over one private engine — the
//! embedded, single-threaded entry point. A query submitted through
//! [`Database::query`] goes through exactly the paper's pipeline: parse → algebraize &
//! merge UDFs → remove Apply operators → (cost-based) choice between the iterative and
//! the decorrelated plan → execute.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use decorr_algebra::display::explain;
use decorr_algebra::RelExpr;
use decorr_common::{Column, Error, Result, Row, Schema, Value};
use decorr_exec::{
    CatalogProvider, Env, ExecConfig, Executor, MemoEpoch, UdfMemo, UdfMemoStats, UdfRuntimeHint,
    WorkerPool, WorkerPoolStats,
};
use decorr_optimizer::{
    estimate_per_node, estimate_with, estimated_udf_invocation_cost, plan_fingerprint, CostParams,
    FeedbackConfig, FeedbackStats, FeedbackStore, OptimizeMode, OptimizeOutcome, PassManager,
    PipelineReport, PlanCache, PlanCacheStats,
};
use decorr_parser::{parse_statements, plan_select, SqlStatement};
use decorr_persist::{ColumnDef, PersistStats, Snapshot, TableSnapshot, WalRecord, WalWriter};
use decorr_rewrite::plan_to_sql;
use decorr_stats::q_error;
use decorr_storage::{AnalyzeConfig, Catalog, ShardPolicy, Table, TableStats};
use decorr_udf::FunctionRegistry;

/// How the engine should execute a query that invokes UDFs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionStrategy {
    /// Decorrelate when possible and let the cost model pick between the iterative and
    /// the rewritten plan (the paper's intended deployment).
    #[default]
    Auto,
    /// Always execute the original plan, invoking UDFs tuple-at-a-time (the baseline of
    /// every experiment in the paper).
    Iterative,
    /// Always execute the decorrelated plan; fails if decorrelation is not possible.
    Decorrelated,
}

/// Per-query options.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    pub strategy: ExecutionStrategy,
    /// Override the executor configuration (hash-join threshold etc.).
    pub exec_config: Option<ExecConfig>,
    /// Capture before/after plan snapshots in the per-pass `rewrite_report` (off by
    /// default: snapshot rendering costs string work per optimizer pass; `EXPLAIN`
    /// always captures them).
    pub capture_snapshots: bool,
    /// Override per-pass static plan validation for this query. `None` keeps the
    /// compile-profile default (on in debug builds, off in release unless the
    /// `DECORR_VALIDATE_PLANS` environment variable opts in); `Some(v)` forces it.
    /// The plan cache fingerprints the flag, so validated and unvalidated runs of
    /// the same query shape never serve each other's cached pipelines.
    pub validate_plans: Option<bool>,
}

impl QueryOptions {
    pub fn iterative() -> QueryOptions {
        QueryOptions {
            strategy: ExecutionStrategy::Iterative,
            ..QueryOptions::default()
        }
    }

    pub fn decorrelated() -> QueryOptions {
        QueryOptions {
            strategy: ExecutionStrategy::Decorrelated,
            ..QueryOptions::default()
        }
    }
}

/// The result of a query, together with how it was obtained.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub schema: Schema,
    pub rows: Vec<Row>,
    /// The strategy that was requested.
    pub strategy: ExecutionStrategy,
    /// True if the executed plan was the decorrelated one.
    pub used_decorrelated_plan: bool,
    /// Notes from the rewriter (skipped UDFs, reasons decorrelation was abandoned).
    pub rewrite_notes: Vec<String>,
    /// Rules that fired during rewriting.
    pub applied_rules: Vec<String>,
    /// Executor counters (UDF invocations performed, index lookups, joins, …).
    pub exec_stats: decorr_exec::executor::ExecStats,
    /// The optimizer's per-pass trace: pass timings, per-rule fire counts, fixpoint
    /// iteration counts and before/after plan snapshots.
    pub rewrite_report: PipelineReport,
    /// The executor's per-operator trace (morsels dispatched, per-worker row spread,
    /// rows in/out, operator wall clock) — empty for fully serial executions.
    pub exec_trace: decorr_exec::ExecTrace,
    /// Estimated root cardinality of the executed plan (the cost model's number the
    /// feedback loop compares against `rows.len()`).
    pub estimated_rows: f64,
    /// q-error of the root cardinality estimate for this execution.
    pub cardinality_q_error: f64,
    /// Measured wall-clock per invoked UDF (empty for set-oriented executions).
    pub udf_timings: Vec<decorr_exec::UdfTiming>,
    /// Actual output cardinality per executed plan node, keyed by structural
    /// fingerprint. Only populated when the query ran with
    /// `ExecConfig::collect_cardinalities` (e.g. under `EXPLAIN ANALYZE`).
    pub node_cardinalities: Vec<decorr_exec::NodeCardinality>,
}

impl QueryResult {
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Values of a named output column.
    pub fn column(&self, name: &str) -> Result<Vec<Value>> {
        let idx = self.schema.index_of(None, name)?;
        Ok(self.rows.iter().map(|r| r.get(idx).clone()).collect())
    }

    /// Order-insensitive canonical form restricted to the given columns (for comparing
    /// the iterative and decorrelated executions in tests).
    pub fn canonical_projection(&self, columns: &[&str]) -> Result<Vec<String>> {
        let indices: Vec<usize> = columns
            .iter()
            .map(|c| self.schema.index_of(None, c))
            .collect::<Result<Vec<_>>>()?;
        let mut out: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let projected: Vec<String> =
                    indices.iter().map(|&i| r.get(i).to_string()).collect();
                format!("({})", projected.join(", "))
            })
            .collect();
        out.sort();
        Ok(out)
    }
}

/// Report produced by [`Session::rewrite_sql`] — the output of the paper's standalone
/// rewrite tool: the rewritten SQL text plus any auxiliary aggregate definitions.
#[derive(Debug, Clone)]
pub struct RewriteReport {
    pub decorrelated: bool,
    pub rewritten_sql: String,
    pub auxiliary_functions: Vec<String>,
    pub applied_rules: Vec<String>,
    pub notes: Vec<String>,
}

/// Summary of a non-query statement execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecutionSummary {
    TableCreated(String),
    TableDropped(String),
    IndexCreated {
        table: String,
        column: String,
    },
    RowsInserted(usize),
    FunctionCreated(String),
    /// An `ANALYZE` ran; holds the names of the analyzed tables.
    Analyzed {
        tables: Vec<String>,
    },
    /// A SELECT executed through [`Session::execute`]; holds the number of rows.
    QueryRows(usize),
}

/// Default capacity (distinct argument tuples) of the cross-query pure-UDF memo.
const DEFAULT_UDF_MEMO_CAPACITY: usize = 8192;

/// Capacity of the per-query dedup cache attached when `ExecConfig::udf_batching` is
/// on. Generous: it only lives for one query, and batched Apply loops can touch many
/// distinct argument tuples.
const UDF_DEDUP_CAPACITY: usize = 65536;

/// Lock helpers: a poisoned lock means another session panicked mid-operation; the
/// protected state is swap-only (`Arc` replacement) or a plain config value, so it is
/// never left torn — recover the guard instead of cascading the panic into every
/// other session sharing the engine.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Maps a live schema to the persist layer's plain column definitions (unqualified:
/// `Table::restore` re-qualifies with the table name).
fn column_defs(schema: &Schema) -> Vec<ColumnDef> {
    schema
        .columns
        .iter()
        .map(|c| ColumnDef {
            name: c.name.clone(),
            data_type: c.data_type,
            nullable: c.nullable,
        })
        .collect()
}

/// Rebuilds a schema from persisted column definitions.
fn schema_of(columns: &[ColumnDef]) -> Schema {
    Schema::new(
        columns
            .iter()
            .map(|c| {
                let col = Column::new(&c.name, c.data_type);
                if c.nullable {
                    col
                } else {
                    col.not_null()
                }
            })
            .collect(),
    )
}

/// The persisted placement bit, decoded.
fn policy_of(hash_policy: bool) -> ShardPolicy {
    if hash_policy {
        ShardPolicy::Hash
    } else {
        ShardPolicy::AppendToLast
    }
}

/// Counter snapshot of a live durability handle.
fn stats_of(handle: &PersistHandle) -> PersistStats {
    PersistStats {
        active: true,
        snapshot_loaded: handle.snapshot_loaded,
        checkpoints: handle.checkpoints,
        last_checkpoint_micros: handle.last_checkpoint_micros,
        snapshot_bytes: handle.snapshot_bytes,
        wal_records_appended: handle.wal.records_appended(),
        wal_bytes_appended: handle.wal.bytes_appended(),
        wal_records_replayed: handle.replayed,
    }
}

/// The snapshot readers pin: catalog and registry swapped together so a query never
/// observes a catalog from one epoch with a registry from another.
#[derive(Debug, Clone)]
struct SharedState {
    catalog: Arc<Catalog>,
    registry: Arc<FunctionRegistry>,
}

#[derive(Debug)]
struct EngineInner {
    /// Current catalog + registry epoch. Readers clone the two `Arc`s under the read
    /// lock and run against that immutable snapshot; writers build the next epoch
    /// outside the lock and swap it in.
    state: RwLock<SharedState>,
    /// Serializes writers (DDL/DML/ANALYZE/CREATE FUNCTION) so concurrent mutations
    /// can't lose updates in the clone-mutate-swap cycle. Readers never touch it.
    writer: Mutex<()>,
    exec_config: RwLock<ExecConfig>,
    plan_cache: RwLock<Arc<PlanCache>>,
    worker_pool: RwLock<Arc<WorkerPool>>,
    feedback: RwLock<Arc<FeedbackStore>>,
    udf_memo: RwLock<Arc<UdfMemo>>,
    analyze_config: RwLock<AnalyzeConfig>,
    /// Durability handle: `Some` when the engine was opened with a `data_dir`. Held
    /// briefly by the writer path (to append WAL records) and by
    /// [`Engine::checkpoint`]; always acquired *after* `writer` when both are taken,
    /// so append order matches epoch-swap order.
    persist: Mutex<Option<PersistHandle>>,
}

/// Live durability state of an engine opened with a `data_dir`.
#[derive(Debug)]
struct PersistHandle {
    /// Directory holding `snapshot.bin` and `wal.log`.
    dir: PathBuf,
    /// Open WAL appender (the tail already recovered and truncated).
    wal: WalWriter,
    /// True when opening found (and loaded) an existing snapshot.
    snapshot_loaded: bool,
    /// WAL records replayed when the engine opened.
    replayed: u64,
    /// Checkpoints completed since open.
    checkpoints: u64,
    /// Wall-clock of the most recent checkpoint, in microseconds.
    last_checkpoint_micros: u64,
    /// Size of the most recently written snapshot, in bytes.
    snapshot_bytes: u64,
}

/// The shared, thread-safe core of the database: one per process (or per logical
/// database), serving any number of concurrent [`Session`]s.
///
/// The engine owns the process-wide state every client shares:
///
/// * the **catalog** and **function registry**, behind an epoch swap — queries pin an
///   immutable snapshot and never block writers (see [`Engine::mutate_catalog`]);
/// * the **plan cache** — its key already folds in the registry generation, the DDL
///   generation, the pipeline shape (including parallelism) and the feedback
///   generation, so one cache safely serves every session: a plan warmed by session A
///   is a hit for session B;
/// * the **feedback store** — runtime cardinality and UDF-cost measurements from all
///   sessions calibrate one shared cost model;
/// * the **cross-query UDF memo** — entries are stamped with a per-UDF epoch (see
///   [`Engine::analyze`] docs on invalidation), so sessions on different snapshots
///   coexist in one cache;
/// * the persistent **worker pool** — morsel workers are reused across operators,
///   queries *and* sessions.
///
/// `Engine` is a cheap handle (`Arc` inside): clone it to share, use
/// [`Engine::fork`] to create an independent engine with the same data but fresh
/// caches.
#[derive(Debug, Clone)]
pub struct Engine {
    inner: Arc<EngineInner>,
}

impl Default for Engine {
    fn default() -> Engine {
        Engine::new()
    }
}

impl Engine {
    /// An empty engine with default configuration.
    pub fn new() -> Engine {
        Engine::builder().build()
    }

    /// A builder for configuring parallelism, cache capacities and the
    /// analyze/feedback configuration up front.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Opens a new session: a cheap per-client handle with its own config override
    /// and default strategy. Any number of sessions may run concurrently.
    pub fn session(&self) -> Session {
        Session::new(self.clone())
    }

    /// An independent engine with the same data and functions but **fresh, empty**
    /// caches (same capacities), its own worker pool and a fresh feedback store. The
    /// fork's catalog shares table storage copy-on-write with the original: only
    /// tables either side subsequently writes are deep-cloned.
    pub fn fork(&self) -> Engine {
        let state = read(&self.inner.state).clone();
        Engine::builder()
            .catalog((*state.catalog).clone())
            .registry((*state.registry).clone())
            .exec_config(self.exec_config())
            .plan_cache_capacity(read(&self.inner.plan_cache).capacity())
            .udf_memo_capacity(read(&self.inner.udf_memo).capacity())
            .analyze_config(self.analyze_config())
            .feedback_config(read(&self.inner.feedback).config().clone())
            .build()
    }

    // ---- snapshot reads -------------------------------------------------------

    /// The current catalog snapshot. The returned `Arc` pins this epoch: concurrent
    /// writers swap in new epochs without disturbing it.
    pub fn catalog(&self) -> Arc<Catalog> {
        Arc::clone(&read(&self.inner.state).catalog)
    }

    /// The current function-registry snapshot (see [`Engine::catalog`]).
    pub fn registry(&self) -> Arc<FunctionRegistry> {
        Arc::clone(&read(&self.inner.state).registry)
    }

    /// Pins one consistent snapshot of everything a query needs: catalog + registry
    /// (one epoch), the shared caches, the worker pool and the resolved executor
    /// configuration.
    fn pin(&self, config_override: Option<&ExecConfig>) -> Pinned {
        let state = read(&self.inner.state).clone();
        let exec_config = match config_override {
            Some(config) => config.clone(),
            None => read(&self.inner.exec_config).clone(),
        }
        .normalized();
        Pinned {
            catalog: state.catalog,
            registry: state.registry,
            exec_config,
            plan_cache: Arc::clone(&read(&self.inner.plan_cache)),
            worker_pool: Arc::clone(&read(&self.inner.worker_pool)),
            feedback: Arc::clone(&read(&self.inner.feedback)),
            udf_memo: Arc::clone(&read(&self.inner.udf_memo)),
        }
    }

    // ---- writes (clone-mutate-swap) -------------------------------------------

    /// Runs a catalog mutation against a copy of the current epoch and atomically
    /// swaps the result in as the next epoch. Concurrent queries keep reading their
    /// pinned snapshots; they only contend on the brief `Arc` swap. Writers serialize
    /// on an internal mutex. The clone is copy-on-write per table: only tables `f`
    /// actually touches are deep-cloned.
    ///
    /// If `f` fails, no swap happens and the error is returned.
    ///
    /// Direct mutations through this method bypass the write-ahead log: on a durable
    /// engine (built with [`EngineBuilder::data_dir`]) they stay in memory until the
    /// next [`Engine::checkpoint`] captures them. The named write methods
    /// ([`Engine::create_table`], [`Engine::insert_rows`], [`Engine::create_index`],
    /// …) and the SQL statement surface log every write as it happens.
    pub fn mutate_catalog<R>(&self, f: impl FnOnce(&mut Catalog) -> Result<R>) -> Result<R> {
        self.mutate_catalog_wal(None, f)
    }

    /// The clone-mutate-swap writer cycle, with an optional WAL record appended
    /// between the successful mutation and the epoch swap (still inside the writer
    /// critical section, so WAL order matches publication order). A failed append
    /// abandons the swap: the write is neither visible nor durable.
    fn mutate_catalog_wal<R>(
        &self,
        record: Option<WalRecord>,
        f: impl FnOnce(&mut Catalog) -> Result<R>,
    ) -> Result<R> {
        let writer = lock(&self.inner.writer);
        let current = read(&self.inner.state).clone();
        let mut catalog = (*current.catalog).clone();
        let out = f(&mut catalog)?;
        if let Some(record) = record {
            self.wal_append(&record)?;
        }
        *write(&self.inner.state) = SharedState {
            catalog: Arc::new(catalog),
            registry: current.registry,
        };
        // `current` may hold the last handle to the superseded epoch; whatever that
        // epoch owned privately is freed here, after the next writer may start.
        drop(writer);
        drop(current.catalog);
        Ok(out)
    }

    /// Appends one record to the WAL if this engine is durable; a no-op otherwise.
    /// Caller holds the writer lock.
    fn wal_append(&self, record: &WalRecord) -> Result<()> {
        let mut slot = lock(&self.inner.persist);
        if let Some(handle) = slot.as_mut() {
            handle.wal.append(record)?;
        }
        Ok(())
    }

    /// True when this engine was opened with a `data_dir` and is logging writes.
    fn persist_active(&self) -> bool {
        lock(&self.inner.persist).is_some()
    }

    /// Like [`Engine::mutate_catalog`], for the function registry.
    pub fn mutate_registry<R>(&self, f: impl FnOnce(&mut FunctionRegistry) -> R) -> R {
        self.mutate_registry_wal(None, f)
            .expect("without a WAL record the registry write cycle has no step that fails")
    }

    /// Registers a UDF from its `CREATE FUNCTION` source. The queries inside the body
    /// are normalised (predicate pushdown etc.) so that iterative invocation executes
    /// them with reasonable plans, just like a commercial system would.
    pub fn register_function(&self, sql: &str) -> Result<()> {
        let udf = decorr_parser::parse_function(sql)?;
        self.register_udf_definition(udf)
    }

    /// Registers an already-parsed UDF definition (normalising its body queries).
    ///
    /// The body is statically analysed first: a UDF *explicitly declared*
    /// `DETERMINISTIC` whose body (transitively) calls a volatile UDF is rejected,
    /// since memoizing it would serve stale results. A UDF that merely inherited the
    /// pure-by-default contract is silently downgraded to volatile instead.
    pub fn register_udf_definition(&self, udf: decorr_udf::UdfDefinition) -> Result<()> {
        // Normalize against the current snapshot before taking the writer lock:
        // normalization is a best-effort plan cleanup, so racing with a concurrent
        // DDL at worst misses an optimization opportunity, never correctness.
        let pinned = self.pin(None);
        let mut normalized = pinned.normalize_udf(udf);
        let facts = decorr_analysis::analyze_body(&normalized, &pinned.registry);
        if facts.purity == decorr_analysis::Purity::Volatile && normalized.pure {
            if normalized.purity_declared {
                let witness = facts
                    .volatile_calls
                    .first()
                    .map(String::as_str)
                    .unwrap_or("<unknown>");
                return Err(Error::Binding(format!(
                    "function '{}' is declared DETERMINISTIC but its body calls the \
                     volatile function '{witness}'; drop the DETERMINISTIC clause or \
                     declare it VOLATILE",
                    normalized.name,
                )));
            }
            // Default contract, not a promise: infer volatility instead of rejecting.
            normalized.pure = false;
        }
        let record = if self.persist_active() {
            let source = normalized.source.clone().ok_or_else(|| {
                Error::Persist(format!(
                    "function '{}' has no source text; durable engines replay functions \
                     through the parser, so register it with CREATE FUNCTION source",
                    normalized.name,
                ))
            })?;
            Some(WalRecord::CreateFunction { source })
        } else {
            None
        };
        self.mutate_registry_wal(record, |r| r.register_udf(normalized))?;
        Ok(())
    }

    /// Like [`Engine::mutate_catalog_wal`], for the function registry.
    fn mutate_registry_wal<R>(
        &self,
        record: Option<WalRecord>,
        f: impl FnOnce(&mut FunctionRegistry) -> R,
    ) -> Result<R> {
        let writer = lock(&self.inner.writer);
        let current = read(&self.inner.state).clone();
        let mut registry = (*current.registry).clone();
        let out = f(&mut registry);
        if let Some(record) = record {
            self.wal_append(&record)?;
        }
        *write(&self.inner.state) = SharedState {
            catalog: current.catalog,
            registry: Arc::new(registry),
        };
        // As in `mutate_catalog_wal`: free the superseded registry outside the lock.
        drop(writer);
        drop(current.registry);
        Ok(out)
    }

    /// Creates a table (WAL-logged on durable engines; see
    /// [`Session::execute`] for the SQL route).
    pub fn create_table(&self, name: &str, schema: Schema) -> Result<()> {
        let record = self.persist_active().then(|| WalRecord::CreateTable {
            name: name.to_string(),
            columns: column_defs(&schema),
        });
        self.mutate_catalog_wal(record, |c| c.create_table(name, schema))
    }

    /// Drops a table (WAL-logged on durable engines).
    pub fn drop_table(&self, name: &str) -> Result<()> {
        let record = self.persist_active().then(|| WalRecord::DropTable {
            name: name.to_string(),
        });
        self.mutate_catalog_wal(record, |c| c.drop_table(name))
    }

    /// Appends already-materialized full-width rows to a table (WAL-logged on
    /// durable engines). Returns the number of rows inserted.
    pub fn insert_rows(&self, table: &str, rows: Vec<Row>) -> Result<usize> {
        let record = self.persist_active().then(|| WalRecord::Insert {
            table: table.to_string(),
            rows: rows.clone(),
        });
        self.mutate_catalog_wal(record, |c| c.insert_rows(table, rows))
    }

    /// Switches one table's shard-placement policy, rerouting its existing rows
    /// (WAL-logged on durable engines). See `Catalog::set_table_placement`.
    pub fn set_table_placement(&self, table: &str, policy: ShardPolicy) -> Result<()> {
        let record = self.persist_active().then(|| WalRecord::SetPlacement {
            table: table.to_string(),
            hash_policy: policy == ShardPolicy::Hash,
        });
        self.mutate_catalog_wal(record, |c| c.set_table_placement(table, policy))
    }

    /// Bulk-loads rows built programmatically (used by the TPC-H style generator).
    pub fn load_rows(&self, table: &str, rows: Vec<Row>) -> Result<usize> {
        self.insert_rows(table, rows)
    }

    /// Creates a hash index on `table(column)` (WAL-logged on durable engines).
    pub fn create_index(&self, table: &str, column: &str) -> Result<()> {
        let record = self.persist_active().then(|| WalRecord::CreateIndex {
            table: table.to_string(),
            column: column.to_string(),
        });
        self.mutate_catalog_wal(record, |c| c.create_index(table, column))
    }

    /// Runs a sampled `ANALYZE` over every table: builds histogram/MCV statistics the
    /// cost model's range and equality selectivities consume. Bumps the catalog DDL
    /// generation, so cached plans re-optimize against the fresh statistics. Returns
    /// the analyzed table names.
    pub fn analyze(&self) -> Vec<String> {
        let config = self.analyze_config();
        let record = self.persist_active().then(|| WalRecord::Analyze {
            table: None,
            config: config.clone(),
        });
        self.mutate_catalog_wal(record, |c| Ok(c.analyze_all(&config)))
            .expect("analyze_all is infallible")
    }

    /// Runs a sampled `ANALYZE` over one table (see [`Engine::analyze`]).
    pub fn analyze_table(&self, name: &str) -> Result<()> {
        let config = self.analyze_config();
        let record = self.persist_active().then(|| WalRecord::Analyze {
            table: Some(name.to_string()),
            config: config.clone(),
        });
        self.mutate_catalog_wal(record, |c| c.analyze_table(name, &config))
    }

    // ---- durability -----------------------------------------------------------

    /// Writes a checkpoint: the full engine state (catalog DDL, every table's
    /// sharded rows and statistics, registered functions, learned feedback) as one
    /// atomic snapshot file, then truncates the WAL. Requires a durable engine
    /// (built with [`EngineBuilder::data_dir`]); returns the updated counters.
    ///
    /// Runs inside the writer critical section, so the snapshot is one consistent
    /// epoch and no write can slip between the snapshot and the WAL reset.
    pub fn checkpoint(&self) -> Result<PersistStats> {
        let _writer = lock(&self.inner.writer);
        let start = Instant::now();
        let snapshot = self.build_snapshot()?;
        let mut slot = lock(&self.inner.persist);
        let handle = slot.as_mut().ok_or_else(|| {
            Error::Persist(
                "engine has no data_dir; open it with Engine::builder().data_dir(..)".into(),
            )
        })?;
        let bytes = snapshot.save(&handle.dir)?;
        handle.wal.reset()?;
        handle.checkpoints += 1;
        handle.snapshot_bytes = bytes;
        handle.last_checkpoint_micros = start.elapsed().as_micros().max(1) as u64;
        Ok(stats_of(handle))
    }

    /// Durability counters: checkpoints completed, WAL records/bytes appended,
    /// records replayed on open. All zeros (`active == false`) on an engine without
    /// a `data_dir`.
    pub fn persist_stats(&self) -> PersistStats {
        match lock(&self.inner.persist).as_ref() {
            None => PersistStats::default(),
            Some(handle) => stats_of(handle),
        }
    }

    /// Maps the current epoch into a plain-data [`Snapshot`]. Caller holds the
    /// writer lock (or owns the only handle), so the epoch cannot move underneath.
    fn build_snapshot(&self) -> Result<Snapshot> {
        let state = read(&self.inner.state).clone();
        let catalog = state.catalog;
        let registry = state.registry;
        let mut tables = vec![];
        for name in catalog.table_names() {
            let table = catalog.table(&name)?;
            tables.push(TableSnapshot {
                name: name.clone(),
                columns: column_defs(table.schema()),
                shard_target: table.shard_target(),
                hash_policy: table.shard_policy() == ShardPolicy::Hash,
                shards: table.shards().iter().map(|shard| shard.to_vec()).collect(),
                indexes: table.indexed_columns(),
                analyze_config: table.analyze_config().cloned(),
                // Persisting the merged statistics makes the restored table's first
                // optimize as informed as the live one's — no cold-open rescan.
                stats: Some(table.stats().inner().clone()),
                data_version: table.data_version(),
            });
        }
        let mut functions = vec![];
        for name in registry.udf_names() {
            let udf = registry.udf(&name)?;
            match &udf.source {
                Some(source) => functions.push(source.clone()),
                None => {
                    return Err(Error::Persist(format!(
                        "function '{name}' has no source text and cannot be checkpointed",
                    )))
                }
            }
        }
        Ok(Snapshot {
            ddl_generation: catalog.ddl_generation(),
            data_generation: catalog.data_generation(),
            default_shard_count: catalog.default_shard_count(),
            default_hash_placement: catalog.default_placement() == ShardPolicy::Hash,
            tables,
            functions,
            feedback: read(&self.inner.feedback).export_state(),
        })
    }

    /// Opens `dir` on a freshly built (still-private) engine: loads the snapshot if
    /// one exists, replays the WAL's valid prefix through the ordinary write path,
    /// then installs the durability handle so subsequent writes are logged. Replay
    /// itself is deliberately unlogged (the records are already on disk).
    fn open_data_dir(&self, dir: &Path) -> Result<()> {
        let mut snapshot_loaded = false;
        if let Some(snapshot) = Snapshot::load(dir)? {
            self.restore_snapshot(snapshot)?;
            snapshot_loaded = true;
        }
        let (wal, recovery) = WalWriter::open(dir)?;
        let replayed = recovery.records.len() as u64;
        for record in recovery.records {
            self.apply_wal_record(record)?;
        }
        *lock(&self.inner.persist) = Some(PersistHandle {
            dir: dir.to_path_buf(),
            wal,
            snapshot_loaded,
            replayed,
            checkpoints: 0,
            last_checkpoint_micros: 0,
            snapshot_bytes: 0,
        });
        Ok(())
    }

    /// Rebuilds live state from a decoded snapshot: tables (exact shard layout,
    /// indexes, statistics, generations), then functions (re-parsed from source, so
    /// normalization is identical by construction), then the feedback store's
    /// learned state.
    fn restore_snapshot(&self, snapshot: Snapshot) -> Result<()> {
        let Snapshot {
            ddl_generation,
            data_generation,
            default_shard_count,
            default_hash_placement,
            tables,
            functions,
            feedback,
        } = snapshot;
        self.mutate_catalog(|c| {
            c.set_default_shard_count(default_shard_count);
            c.set_default_placement(policy_of(default_hash_placement));
            for t in tables {
                let table = Table::restore(
                    &t.name,
                    schema_of(&t.columns),
                    t.shard_target,
                    policy_of(t.hash_policy),
                    t.shards,
                    &t.indexes,
                    t.analyze_config,
                    t.stats.map(TableStats::from_statistics),
                    t.data_version,
                )?;
                c.restore_table(table)?;
            }
            c.set_generations(ddl_generation, data_generation);
            Ok(())
        })?;
        for source in &functions {
            self.register_function(source)?;
        }
        read(&self.inner.feedback).import_state(feedback);
        Ok(())
    }

    /// Replays one recovered WAL record through the same (unlogged) write paths the
    /// original statement used.
    fn apply_wal_record(&self, record: WalRecord) -> Result<()> {
        match record {
            WalRecord::CreateTable { name, columns } => {
                self.mutate_catalog(|c| c.create_table(&name, schema_of(&columns)))
            }
            WalRecord::DropTable { name } => self.mutate_catalog(|c| c.drop_table(&name)),
            WalRecord::Insert { table, rows } => self
                .mutate_catalog(|c| c.insert_rows(&table, rows))
                .map(|_| ()),
            WalRecord::CreateIndex { table, column } => {
                self.mutate_catalog(|c| c.create_index(&table, &column))
            }
            WalRecord::Analyze { table, config } => match table {
                Some(name) => self.mutate_catalog(|c| c.analyze_table(&name, &config)),
                None => self
                    .mutate_catalog(|c| Ok(c.analyze_all(&config)))
                    .map(|_| ()),
            },
            WalRecord::CreateFunction { source } => self.register_function(&source),
            WalRecord::SetPlacement { table, hash_policy } => {
                self.mutate_catalog(|c| c.set_table_placement(&table, policy_of(hash_policy)))
            }
        }
    }

    // ---- shared-component accessors and configuration --------------------------

    /// The default executor configuration used by sessions without an override.
    pub fn exec_config(&self) -> ExecConfig {
        read(&self.inner.exec_config).clone()
    }

    /// Replaces the engine-wide default executor configuration and rebuilds the
    /// worker pool if the parallelism changed.
    pub fn set_exec_config(&self, config: ExecConfig) {
        let _writer = lock(&self.inner.writer);
        let normalized = config.normalized();
        let parallelism = normalized.parallelism;
        *write(&self.inner.exec_config) = normalized;
        self.resize_worker_pool(parallelism);
    }

    /// The configured executor worker-pool size.
    pub fn parallelism(&self) -> usize {
        read(&self.inner.exec_config).parallelism
    }

    /// Sets the executor worker-pool size for subsequent queries. `1` (the default)
    /// executes serially; `n > 1` fans scans, filters, projections, hash joins, hash
    /// aggregation and correlated Apply loops out to `n` persistent morsel workers.
    /// Parallel runs return byte-identical results to serial runs. The optimizer's
    /// cost model is recalibrated to the pool size, and the plan-cache key changes
    /// with it, so cached decisions never cross pool sizes.
    ///
    /// Out-of-range values are clamped (`parallelism ≥ 1`), and the persistent worker
    /// pool is rebuilt to the new size. In-flight queries keep the previous pool
    /// alive through their own pinned handle until they finish.
    pub fn set_parallelism(&self, parallelism: usize) {
        let _writer = lock(&self.inner.writer);
        {
            let mut config = write(&self.inner.exec_config);
            config.parallelism = parallelism.max(1);
            *config = config.clone().normalized();
        }
        self.resize_worker_pool(parallelism.max(1));
    }

    /// Rebuilds the worker pool to match the given parallelism (serial execution
    /// keeps an empty pool — no idle threads). Caller holds the writer lock.
    fn resize_worker_pool(&self, parallelism: usize) {
        let target = if parallelism > 1 { parallelism } else { 0 };
        let mut pool = write(&self.inner.worker_pool);
        if pool.worker_count() != target {
            *pool = Arc::new(WorkerPool::new(target));
        }
    }

    /// The persistent worker pool shared by every session's queries. Exposed for
    /// benches and diagnostics (spawn counters prove pool reuse across queries).
    pub fn worker_pool(&self) -> Arc<WorkerPool> {
        Arc::clone(&read(&self.inner.worker_pool))
    }

    /// Lifecycle counters of the persistent worker pool (live workers, lifetime
    /// thread spawns, batches executed).
    pub fn worker_pool_stats(&self) -> WorkerPoolStats {
        read(&self.inner.worker_pool).stats()
    }

    /// The shared plan cache (for stats and explicit `clear`).
    pub fn plan_cache(&self) -> Arc<PlanCache> {
        Arc::clone(&read(&self.inner.plan_cache))
    }

    /// Snapshot of the plan-cache counters
    /// (hits/misses/evictions/invalidations/entries).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        read(&self.inner.plan_cache).stats()
    }

    /// Replaces the plan cache with an empty one holding at most `capacity` outcomes
    /// (0 disables plan caching).
    pub fn set_plan_cache_capacity(&self, capacity: usize) {
        *write(&self.inner.plan_cache) = Arc::new(PlanCache::with_capacity(capacity));
    }

    /// The runtime feedback store (learned UDF costs, recorded q-errors).
    pub fn feedback(&self) -> Arc<FeedbackStore> {
        Arc::clone(&read(&self.inner.feedback))
    }

    /// Snapshot of the feedback counters.
    pub fn feedback_stats(&self) -> FeedbackStats {
        read(&self.inner.feedback).stats()
    }

    /// Replaces the feedback store with a fresh one using `config` (thresholds, trust
    /// floors). Learned state is discarded.
    pub fn set_feedback_config(&self, config: FeedbackConfig) {
        *write(&self.inner.feedback) = Arc::new(FeedbackStore::with_config(config));
    }

    /// Counter snapshot of the cross-query pure-UDF memo
    /// (hits/misses/insertions/evictions/invalidations/entries).
    pub fn udf_memo_stats(&self) -> UdfMemoStats {
        read(&self.inner.udf_memo).stats()
    }

    /// Replaces the cross-query pure-UDF memo with an empty one holding at most
    /// `capacity` distinct argument tuples. `0` disables memoization entirely (the
    /// per-query dedup cache controlled by `ExecConfig::udf_batching` is unaffected).
    pub fn set_udf_memo_capacity(&self, capacity: usize) {
        *write(&self.inner.udf_memo) = Arc::new(UdfMemo::with_capacity(capacity));
    }

    /// The configuration `ANALYZE` runs with.
    pub fn analyze_config(&self) -> AnalyzeConfig {
        read(&self.inner.analyze_config).clone()
    }

    /// Replaces the `ANALYZE` configuration used by subsequent analyzes.
    pub fn set_analyze_config(&self, config: AnalyzeConfig) {
        *write(&self.inner.analyze_config) = config;
    }
}

/// Configures and builds an [`Engine`].
#[derive(Debug, Default)]
pub struct EngineBuilder {
    catalog: Catalog,
    registry: FunctionRegistry,
    exec_config: ExecConfig,
    plan_cache_capacity: Option<usize>,
    udf_memo_capacity: Option<usize>,
    analyze_config: AnalyzeConfig,
    feedback_config: Option<FeedbackConfig>,
    shard_count: Option<usize>,
    default_placement: Option<ShardPolicy>,
    data_dir: Option<PathBuf>,
}

impl EngineBuilder {
    /// Seeds the engine with an existing catalog (used by [`Engine::fork`]).
    pub fn catalog(mut self, catalog: Catalog) -> EngineBuilder {
        self.catalog = catalog;
        self
    }

    /// Seeds the engine with an existing function registry.
    pub fn registry(mut self, registry: FunctionRegistry) -> EngineBuilder {
        self.registry = registry;
        self
    }

    /// The engine-wide default executor configuration.
    pub fn exec_config(mut self, config: ExecConfig) -> EngineBuilder {
        self.exec_config = config;
        self
    }

    /// Worker-pool size (clamped to ≥ 1; shorthand for setting it on the exec
    /// config).
    pub fn parallelism(mut self, parallelism: usize) -> EngineBuilder {
        self.exec_config.parallelism = parallelism.max(1);
        self
    }

    /// Plan-cache capacity in cached outcomes (0 disables plan caching).
    pub fn plan_cache_capacity(mut self, capacity: usize) -> EngineBuilder {
        self.plan_cache_capacity = Some(capacity);
        self
    }

    /// Cross-query UDF memo capacity in distinct argument tuples (0 disables).
    pub fn udf_memo_capacity(mut self, capacity: usize) -> EngineBuilder {
        self.udf_memo_capacity = Some(capacity);
        self
    }

    /// The configuration `ANALYZE` runs with (sample size, buckets, MCVs, seed).
    pub fn analyze_config(mut self, config: AnalyzeConfig) -> EngineBuilder {
        self.analyze_config = config;
        self
    }

    /// The runtime-feedback configuration (q-error thresholds, trust floors).
    pub fn feedback_config(mut self, config: FeedbackConfig) -> EngineBuilder {
        self.feedback_config = Some(config);
        self
    }

    /// Target shard fanout for tables created *after* the engine is built (clamped to
    /// ≥ 1; existing tables in a seeded catalog keep their layout). More shards mean
    /// finer COW inserts, finer incremental `ANALYZE`, and more min/max pruning
    /// opportunities; the scan itself parallelizes by morsel either way.
    pub fn shard_count(mut self, shard_count: usize) -> EngineBuilder {
        self.shard_count = Some(shard_count.max(1));
        self
    }

    /// Default shard-placement policy for tables created after the engine is built
    /// (`AppendToLast` when unset). `ShardPolicy::Hash` routes every row by the hash
    /// of its values, spreading inserts across all shards up front — better pruning
    /// and parallel balance, at the price of insertion-order scans.
    pub fn default_placement(mut self, policy: ShardPolicy) -> EngineBuilder {
        self.default_placement = Some(policy);
        self
    }

    /// Makes the engine durable: `dir` holds a checkpointed snapshot plus a
    /// write-ahead log. Building loads the snapshot (if any), replays the WAL's
    /// valid prefix, and logs every subsequent write; [`Engine::checkpoint`]
    /// compacts the log into a fresh snapshot. Use [`EngineBuilder::try_build`] to
    /// surface corruption as an error instead of a panic.
    pub fn data_dir(mut self, dir: impl Into<PathBuf>) -> EngineBuilder {
        self.data_dir = Some(dir.into());
        self
    }

    /// Builds the engine, panicking if the `data_dir` (when set) cannot be opened —
    /// the infallible path for engines without one.
    pub fn build(self) -> Engine {
        self.try_build()
            .expect("engine data_dir failed to open; use try_build() to handle corruption")
    }

    /// Builds the engine; a `data_dir` that cannot be read (I/O error, corrupt
    /// snapshot) is returned as an error. Without a `data_dir` this never fails.
    pub fn try_build(mut self) -> Result<Engine> {
        if let Some(shard_count) = self.shard_count {
            self.catalog.set_default_shard_count(shard_count);
        }
        if let Some(policy) = self.default_placement {
            self.catalog.set_default_placement(policy);
        }
        let data_dir = self.data_dir.take();
        let exec_config = self.exec_config.normalized();
        let pool_size = if exec_config.parallelism > 1 {
            exec_config.parallelism
        } else {
            0
        };
        let plan_cache = match self.plan_cache_capacity {
            Some(capacity) => PlanCache::with_capacity(capacity),
            None => PlanCache::new(),
        };
        let feedback = match self.feedback_config {
            Some(config) => FeedbackStore::with_config(config),
            None => FeedbackStore::new(),
        };
        let memo_capacity = self.udf_memo_capacity.unwrap_or(DEFAULT_UDF_MEMO_CAPACITY);
        let engine = Engine {
            inner: Arc::new(EngineInner {
                state: RwLock::new(SharedState {
                    catalog: Arc::new(self.catalog),
                    registry: Arc::new(self.registry),
                }),
                writer: Mutex::new(()),
                exec_config: RwLock::new(exec_config),
                plan_cache: RwLock::new(Arc::new(plan_cache)),
                worker_pool: RwLock::new(Arc::new(WorkerPool::new(pool_size))),
                feedback: RwLock::new(Arc::new(feedback)),
                udf_memo: RwLock::new(Arc::new(UdfMemo::with_capacity(memo_capacity))),
                analyze_config: RwLock::new(self.analyze_config),
                persist: Mutex::new(None),
            }),
        };
        if let Some(dir) = data_dir {
            engine.open_data_dir(&dir)?;
        }
        Ok(engine)
    }
}

/// One consistent snapshot of everything a single query needs. Pinning is a handful
/// of `Arc` clones; the query then runs entirely against immutable state, so
/// concurrent writers never block it (and it never blocks them).
#[derive(Debug, Clone)]
struct Pinned {
    catalog: Arc<Catalog>,
    registry: Arc<FunctionRegistry>,
    /// Resolved (per-query override → session override → engine default) and
    /// normalized executor configuration.
    exec_config: ExecConfig,
    plan_cache: Arc<PlanCache>,
    worker_pool: Arc<WorkerPool>,
    feedback: Arc<FeedbackStore>,
    udf_memo: Arc<UdfMemo>,
}

impl Pinned {
    /// Applies the cleanup/normalisation rules to a query plan through the optimizer's
    /// cleanup pipeline. Normalisation is best-effort: a (theoretically impossible)
    /// budget exhaustion in the cleanup rules keeps the plan as-is instead of failing.
    fn normalize_plan(&self, plan: &RelExpr) -> RelExpr {
        let provider = CatalogProvider::new(&self.catalog, &self.registry);
        // Validation is off here by design: these are UDF *body* fragments whose
        // local variables and formal parameters appear as free columns/params until
        // the interpreter (or the algebraizer) binds them, so the plan validator
        // would flag them. Body soundness is covered by `decorr_analysis::analyze_body`
        // at registration instead.
        PassManager::cleanup_pipeline()
            .with_validation(false)
            .optimize(plan, &self.registry, &provider, Some(self.catalog.as_ref()))
            .map(|o| o.plan)
            .unwrap_or_else(|_| plan.clone())
    }

    /// Builds the pass pipeline for the requested execution strategy.
    fn pass_manager_for(strategy: ExecutionStrategy) -> PassManager {
        match strategy {
            ExecutionStrategy::Iterative => PassManager::cleanup_pipeline(),
            ExecutionStrategy::Decorrelated => {
                PassManager::decorrelation_pipeline().with_mode(OptimizeMode::ForceDecorrelated)
            }
            ExecutionStrategy::Auto => PassManager::decorrelation_pipeline(),
        }
    }

    /// Runs the optimizer pipeline for the given strategy over an already-planned
    /// query, with the shared plan cache attached: a repeated plan under an unchanged
    /// registry/schema skips the pipeline entirely — including when a *different*
    /// session warmed the cache.
    fn optimize_plan(
        &self,
        plan: &RelExpr,
        strategy: ExecutionStrategy,
        capture_snapshots: bool,
        parallelism: usize,
        validate_plans: Option<bool>,
    ) -> Result<OptimizeOutcome> {
        let provider = CatalogProvider::new(&self.catalog, &self.registry);
        let mut manager = Pinned::pass_manager_for(strategy)
            .with_snapshots(capture_snapshots)
            .with_parallelism(parallelism)
            .with_plan_cache(Arc::clone(&self.plan_cache))
            .with_feedback(Arc::clone(&self.feedback));
        if let Some(validate) = validate_plans {
            manager = manager.with_validation(validate);
        }
        manager.optimize(plan, &self.registry, &provider, Some(self.catalog.as_ref()))
    }

    /// Normalises every query embedded in a UDF body.
    fn normalize_udf(&self, mut udf: decorr_udf::UdfDefinition) -> decorr_udf::UdfDefinition {
        fn walk(stmts: &mut [decorr_udf::Statement], normalize: &dyn Fn(&RelExpr) -> RelExpr) {
            for stmt in stmts {
                match stmt {
                    decorr_udf::Statement::SelectInto { query, .. } => *query = normalize(query),
                    decorr_udf::Statement::CursorLoop { query, body, .. } => {
                        *query = normalize(query);
                        walk(body, normalize);
                    }
                    decorr_udf::Statement::While { body, .. } => walk(body, normalize),
                    decorr_udf::Statement::If {
                        then_branch,
                        else_branch,
                        ..
                    } => {
                        walk(then_branch, normalize);
                        walk(else_branch, normalize);
                    }
                    decorr_udf::Statement::Return {
                        expr: Some(decorr_algebra::ScalarExpr::ScalarSubquery(q)),
                    } => **q = normalize(q),
                    decorr_udf::Statement::Assign {
                        expr: decorr_algebra::ScalarExpr::ScalarSubquery(q),
                        ..
                    } => **q = normalize(q),
                    _ => {}
                }
            }
        }
        let normalize = |plan: &RelExpr| self.normalize_plan(plan);
        walk(&mut udf.body, &normalize);
        udf
    }

    /// Builds the per-UDF memo-epoch map for this snapshot. A memoized result is
    /// served only while its epoch matches, i.e. while the registry generation, the
    /// DDL generation and the relevant *data* version are unchanged. The data
    /// component covers the UDF's full (transitive) read set as inferred by
    /// [`decorr_analysis::analyze_body`]: a body that reads no table gets a constant,
    /// a body with an exact read set gets a fingerprint of the sorted
    /// `(table, data_version)` pairs — so inserts into tables *outside* that set
    /// don't evict its results — and an opaque read set (the body calls an
    /// unregistered function) falls back to the catalog-wide data generation.
    fn memo_epochs(&self) -> Arc<BTreeMap<String, MemoEpoch>> {
        let registry_gen = self.registry.generation();
        let ddl_gen = self.catalog.ddl_generation();
        let catalog_wide = self.catalog.data_generation();
        let mut map = BTreeMap::new();
        for name in self.registry.udf_names() {
            let Ok(udf) = self.registry.udf(&name) else {
                continue;
            };
            let facts = decorr_analysis::analyze_body(udf, &self.registry);
            let data = if !facts.reads_exact {
                catalog_wide
            } else if facts.table_reads.is_empty() {
                0
            } else {
                let mut hasher = decorr_common::FnvHasher::default();
                let mut opaque = false;
                for table in &facts.table_reads {
                    match self.catalog.table(table) {
                        Ok(t) => {
                            hasher.write_bytes(table.as_bytes());
                            hasher.write_u64(t.data_version());
                        }
                        // A read of a table the catalog no longer (or doesn't yet)
                        // know: be conservative and key catalog-wide.
                        Err(_) => opaque = true,
                    }
                }
                if opaque {
                    catalog_wide
                } else {
                    hasher.finish()
                }
            };
            map.insert(name, (registry_gen, ddl_gen, data));
        }
        Arc::new(map)
    }

    /// Runs an already-planned query against this snapshot. Every strategy routes
    /// through the optimizer's [`PassManager`]: the iterative strategy runs the
    /// normalisation pipeline only, the other strategies run the full decorrelation
    /// pipeline (with the cost-based choice for [`ExecutionStrategy::Auto`]).
    fn run_plan(
        &self,
        plan: &RelExpr,
        strategy: ExecutionStrategy,
        capture_snapshots: bool,
        validate_plans: Option<bool>,
    ) -> Result<QueryResult> {
        let config = &self.exec_config;
        let outcome = self.optimize_plan(
            plan,
            strategy,
            capture_snapshots,
            config.parallelism,
            validate_plans,
        )?;
        if strategy == ExecutionStrategy::Decorrelated && !outcome.decorrelated {
            return Err(Error::Rewrite(format!(
                "query could not be decorrelated: {}",
                outcome.notes.join("; ")
            )));
        }
        // Register auxiliary aggregates in a per-query copy of the registry; plans
        // without auxiliary aggregates (the common case) share the engine's registry
        // snapshot without copying it. The memo epochs below use the *base* registry
        // generation: the clone registers aggregates without changing any scalar UDF
        // a memoized result could depend on.
        let effective_registry = if outcome.aux_aggregates.is_empty() {
            Arc::clone(&self.registry)
        } else {
            let mut registry = (*self.registry).clone();
            for agg in &outcome.aux_aggregates {
                registry.register_aggregate(agg.clone());
            }
            Arc::new(registry)
        };
        // Attach the engine's persistent pool: worker threads outlive this query.
        let mut executor = Executor::with_config(
            Arc::clone(&self.catalog),
            effective_registry,
            config.clone(),
        )
        .with_worker_pool(Arc::clone(&self.worker_pool));
        if config.udf_memoization && self.udf_memo.is_enabled() {
            executor = executor
                .with_udf_memo(Arc::clone(&self.udf_memo))
                .with_memo_epochs(self.memo_epochs());
        }
        if config.udf_batching {
            executor =
                executor.with_udf_dedup(Arc::new(UdfMemo::with_capacity(UDF_DEDUP_CAPACITY)));
        }
        // Learned per-UDF cost and pass-rate order the UDF conjuncts of filters.
        let mut hints: BTreeMap<String, UdfRuntimeHint> = BTreeMap::new();
        for (name, mean_seconds) in self.feedback.udf_mean_seconds() {
            hints.insert(
                name,
                UdfRuntimeHint {
                    mean_seconds,
                    selectivity: 0.5,
                },
            );
        }
        for (name, selectivity) in self.feedback.udf_selectivities() {
            hints
                .entry(name)
                .and_modify(|hint| hint.selectivity = selectivity)
                .or_insert(UdfRuntimeHint {
                    mean_seconds: 1e-4,
                    selectivity,
                });
        }
        if !hints.is_empty() {
            executor = executor.with_udf_hints(Arc::new(hints));
        }
        let result_set = executor.execute(&outcome.plan)?;
        let (estimated_rows, cardinality_q_error, udf_timings) =
            self.fold_feedback(plan, &outcome, &result_set, &executor, config.parallelism);
        Ok(QueryResult {
            schema: result_set.schema,
            rows: result_set.rows,
            strategy,
            used_decorrelated_plan: outcome.used_decorrelated_plan,
            rewrite_notes: outcome.notes,
            applied_rules: outcome.applied_rules,
            exec_stats: executor.stats_snapshot(),
            rewrite_report: outcome.report,
            exec_trace: executor.trace_snapshot(),
            estimated_rows,
            cardinality_q_error,
            udf_timings,
            node_cardinalities: executor.cardinality_snapshot(),
        })
    }

    /// Folds one execution's ground truth into the shared feedback store: the
    /// estimated vs actual root cardinality and the measured per-UDF invocation
    /// wall-clocks. When the observed q-error (cardinality or UDF cost) first crosses
    /// the configured threshold for this plan fingerprint, the stale cost-based
    /// plan-cache entries are invalidated so the next optimize — from *any* session —
    /// re-decides with the calibrated numbers.
    fn fold_feedback(
        &self,
        input_plan: &RelExpr,
        outcome: &OptimizeOutcome,
        result_set: &decorr_exec::ResultSet,
        executor: &Executor,
        parallelism: usize,
    ) -> (f64, f64, Vec<decorr_exec::UdfTiming>) {
        let params = CostParams::new(parallelism);
        // The decision already carries both alternatives' estimates; recompute only
        // when the pipeline made no decision (iterative strategy, UDF-free queries).
        let estimated_rows = match &outcome.decision {
            Some(decision) if outcome.used_decorrelated_plan => decision.decorrelated.cardinality,
            Some(decision) => decision.iterative.cardinality,
            None => {
                estimate_with(&outcome.plan, &self.catalog, &self.registry, &params).cardinality
            }
        };
        let actual_rows = result_set.rows.len() as u64;
        let fingerprint = outcome
            .report
            .cache
            .as_ref()
            .map(|activity| activity.key_hash)
            .unwrap_or_else(|| plan_fingerprint(input_plan));
        let cardinality_q = self
            .feedback
            .record_query(fingerprint, estimated_rows, actual_rows);
        let mut worst_q = cardinality_q;
        let udf_timings = executor.udf_timing_snapshot();
        for timing in &udf_timings {
            let static_units =
                estimated_udf_invocation_cost(&timing.name, &self.catalog, &self.registry, &params);
            // `timing.invocations` counts *evaluated* calls only — memo/dedup hits
            // are recorded separately so learned per-call costs don't drift to zero
            // as the caches warm up.
            let cost_q = self.feedback.record_udf_timing(
                &timing.name,
                timing.invocations,
                timing.total,
                static_units,
                params.row_op_seconds,
            );
            worst_q = worst_q.max(cost_q);
            self.feedback
                .record_udf_dedup(&timing.name, timing.invocations, timing.hits);
        }
        for selectivity in executor.udf_selectivity_snapshot() {
            self.feedback.record_udf_predicate(
                &selectivity.name,
                selectivity.evaluated,
                selectivity.passed,
            );
        }
        if self.feedback.flag_for_invalidation(fingerprint, worst_q) {
            self.plan_cache.invalidate_fingerprint(fingerprint);
        }
        (estimated_rows, cardinality_q, udf_timings)
    }

    /// Materializes the value rows of an `INSERT` (constants and constant
    /// arithmetic) against this snapshot.
    fn materialize_insert_rows(
        &self,
        table: &str,
        columns: Option<&[String]>,
        rows: &[Vec<decorr_algebra::ScalarExpr>],
    ) -> Result<Vec<Row>> {
        let schema = self.catalog.table_schema(table)?;
        let executor = Executor::with_config(
            Arc::clone(&self.catalog),
            Arc::clone(&self.registry),
            self.exec_config.clone(),
        );
        let env = Env::root();
        let mut materialized = vec![];
        for row in rows {
            let values: Result<Vec<Value>> =
                row.iter().map(|e| executor.eval_expr(e, &env)).collect();
            let values = values?;
            let full_row = match columns {
                None => Row::new(values),
                Some(cols) => {
                    if cols.len() != values.len() {
                        return Err(Error::Execution(format!(
                            "INSERT provides {} values for {} columns",
                            values.len(),
                            cols.len()
                        )));
                    }
                    let mut full = vec![Value::Null; schema.len()];
                    for (c, v) in cols.iter().zip(values) {
                        let idx = schema.index_of(None, c)?;
                        full[idx] = v;
                    }
                    Row::new(full)
                }
            };
            materialized.push(full_row);
        }
        Ok(materialized)
    }
}

/// A per-client handle onto a shared [`Engine`].
///
/// Sessions are cheap (`Clone` copies an `Arc` handle plus the per-session config)
/// and carry only per-client state: an optional executor-config override and a
/// default [`ExecutionStrategy`]. All data, functions, caches and feedback live in
/// the engine and are shared across sessions.
///
/// Every statement a session executes pins a fresh consistent snapshot, so a session
/// always sees its own earlier writes (and any writes other sessions have committed
/// by then), while long-running queries are never torn by concurrent mutations.
#[derive(Debug, Clone)]
pub struct Session {
    engine: Engine,
    exec_config: Option<ExecConfig>,
    strategy: ExecutionStrategy,
}

impl Session {
    /// Opens a session on `engine` (equivalent to [`Engine::session`]).
    pub fn new(engine: Engine) -> Session {
        Session {
            engine,
            exec_config: None,
            strategy: ExecutionStrategy::default(),
        }
    }

    /// The shared engine this session runs against.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Sets this session's executor-config override (`None` uses the engine
    /// default). Only this session is affected.
    pub fn set_exec_config(&mut self, config: Option<ExecConfig>) {
        self.exec_config = config.map(|c| c.normalized());
    }

    /// Builder-style [`Session::set_exec_config`].
    pub fn with_exec_config(mut self, config: ExecConfig) -> Session {
        self.set_exec_config(Some(config));
        self
    }

    /// This session's executor-config override, if any.
    pub fn exec_config(&self) -> Option<&ExecConfig> {
        self.exec_config.as_ref()
    }

    /// Sets the default execution strategy used by [`Session::query`] (per-query
    /// [`QueryOptions`] still win).
    pub fn set_strategy(&mut self, strategy: ExecutionStrategy) {
        self.strategy = strategy;
    }

    /// Builder-style [`Session::set_strategy`].
    pub fn with_strategy(mut self, strategy: ExecutionStrategy) -> Session {
        self.set_strategy(strategy);
        self
    }

    pub fn strategy(&self) -> ExecutionStrategy {
        self.strategy
    }

    /// Pins a snapshot using this session's config override (unless the per-query
    /// options carry their own).
    fn pin(&self, options: &QueryOptions) -> Pinned {
        let config = options.exec_config.as_ref().or(self.exec_config.as_ref());
        self.engine.pin(config)
    }

    /// Runs a `SELECT` query with this session's default strategy.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.query_with(
            sql,
            &QueryOptions {
                strategy: self.strategy,
                ..QueryOptions::default()
            },
        )
    }

    /// Runs a `SELECT` query with explicit options.
    pub fn query_with(&self, sql: &str, options: &QueryOptions) -> Result<QueryResult> {
        let select = decorr_parser::parse_query(sql)?;
        let plan = plan_select(&select)?;
        self.run_plan(&plan, options)
    }

    /// Runs an already-planned query against a freshly pinned snapshot.
    pub fn run_plan(&self, plan: &RelExpr, options: &QueryOptions) -> Result<QueryResult> {
        self.pin(options).run_plan(
            plan,
            options.strategy,
            options.capture_snapshots,
            options.validate_plans,
        )
    }

    /// Executes one or more statements (DDL, DML, `CREATE FUNCTION`, or queries) and
    /// returns a summary per statement. Statements run sequentially; each pins a
    /// fresh snapshot, so later statements see earlier ones' effects.
    pub fn execute(&self, sql: &str) -> Result<Vec<ExecutionSummary>> {
        let statements = parse_statements(sql)?;
        let mut out = vec![];
        for stmt in statements {
            out.push(self.execute_statement(stmt)?);
        }
        Ok(out)
    }

    fn execute_statement(&self, stmt: SqlStatement) -> Result<ExecutionSummary> {
        match stmt {
            SqlStatement::CreateTable { name, columns } => {
                self.engine.create_table(&name, Schema::new(columns))?;
                Ok(ExecutionSummary::TableCreated(name))
            }
            SqlStatement::DropTable { name } => {
                self.engine.drop_table(&name)?;
                Ok(ExecutionSummary::TableDropped(name))
            }
            SqlStatement::CreateIndex { table, column } => {
                self.engine.create_index(&table, &column)?;
                Ok(ExecutionSummary::IndexCreated { table, column })
            }
            SqlStatement::Insert {
                table,
                columns,
                rows,
            } => {
                let pinned = self.pin(&QueryOptions::default());
                let materialized =
                    pinned.materialize_insert_rows(&table, columns.as_deref(), &rows)?;
                let n = self.engine.insert_rows(&table, materialized)?;
                Ok(ExecutionSummary::RowsInserted(n))
            }
            SqlStatement::CreateFunction(udf) => {
                let name = udf.name.clone();
                self.engine.register_udf_definition(udf)?;
                Ok(ExecutionSummary::FunctionCreated(name))
            }
            SqlStatement::Analyze { table } => {
                let tables = match table {
                    Some(name) => {
                        self.engine.analyze_table(&name)?;
                        vec![name]
                    }
                    None => self.engine.analyze(),
                };
                Ok(ExecutionSummary::Analyzed { tables })
            }
            SqlStatement::Query(select) => {
                let plan = plan_select(&select)?;
                let result = self.run_plan(
                    &plan,
                    &QueryOptions {
                        strategy: self.strategy,
                        ..QueryOptions::default()
                    },
                )?;
                Ok(ExecutionSummary::QueryRows(result.rows.len()))
            }
        }
    }

    /// Registers a UDF from its `CREATE FUNCTION` source (see
    /// [`Engine::register_function`]).
    pub fn register_function(&self, sql: &str) -> Result<()> {
        self.engine.register_function(sql)
    }

    /// Returns an EXPLAIN-style report: the original plan, the rewritten plan (if
    /// any), the rules that fired, the per-pass timings and rule fire counts recorded
    /// by the PassManager, and the cost-based decision.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let select = decorr_parser::parse_query(sql)?;
        let plan = plan_select(&select)?;
        let pinned = self.pin(&QueryOptions::default());
        // EXPLAIN is the diagnostic entry point: always capture plan snapshots.
        let outcome = pinned.optimize_plan(
            &plan,
            ExecutionStrategy::Auto,
            true,
            pinned.exec_config.parallelism,
            None,
        )?;
        let mut out = String::new();
        out.push_str("== original (iterative) plan ==\n");
        out.push_str(&explain(&outcome.iterative_plan));
        if let Some(rewritten) = &outcome.rewritten_plan {
            out.push_str("\n== decorrelated plan ==\n");
            out.push_str(&explain(rewritten));
            out.push_str("\n== rules applied ==\n");
            out.push_str(&outcome.applied_rules.join(", "));
            out.push('\n');
            if let Some(decision) = &outcome.decision {
                out.push_str("\n== cost-based decision ==\n");
                out.push_str(&decision.summary());
                out.push('\n');
            }
        } else {
            out.push_str("\n== decorrelation ==\nnot performed: ");
            out.push_str(&outcome.notes.join("; "));
            out.push('\n');
        }
        out.push_str("\n== optimizer passes ==\n");
        out.push_str(&outcome.report.render());
        Ok(out)
    }

    /// Like [`Session::explain`], but additionally *executes* the query and appends
    /// the runtime side of the story: the executor counters, the per-operator
    /// execution trace (morsels dispatched, per-worker row spread, rows in/out,
    /// operator wall clock), the **estimated vs actual rows per plan operator** (the
    /// statistics subsystem's accuracy, as q-errors), and the feedback the execution
    /// fed back into the cost model (measured UDF costs, recorded q-errors).
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        let mut out = self.explain(sql)?;
        let select = decorr_parser::parse_query(sql)?;
        let plan = plan_select(&select)?;
        let pinned = self.pin(&QueryOptions::default());
        // Resolve the plan that is about to execute *before* executing it: the
        // execution's own feedback can invalidate this shape and flip the next
        // optimize's decision, and the estimates table must describe the plan the
        // actuals were recorded for. `run_plan` below re-optimizes internally, but
        // nothing executes in between, so it is served this exact cached outcome.
        let outcome = pinned.optimize_plan(
            &plan,
            ExecutionStrategy::Auto,
            false,
            pinned.exec_config.parallelism,
            None,
        )?;
        // Execute in diagnostic mode against the *same* pinned snapshot: per-node
        // actual cardinalities are recorded, keyed by structural fingerprint.
        let mut diagnostic = pinned.clone();
        diagnostic.exec_config.collect_cardinalities = true;
        let result = diagnostic.run_plan(&plan, ExecutionStrategy::Auto, false, None)?;
        out.push_str("\n== execution ==\n");
        out.push_str(&format!(
            "rows={} parallelism={} · scanned={} shards-pruned={} index-lookups={} \
             udf-invocations={} udf-memo-hits={} udf-dedup-hits={} udf-batched={} \
             subqueries={} hash-joins={} nl-joins={} morsels={} pipelined-ops={} \
             pool-spawns={}\n",
            result.rows.len(),
            pinned.exec_config.parallelism,
            result.exec_stats.rows_scanned,
            result.exec_stats.shards_pruned,
            result.exec_stats.index_lookups,
            result.exec_stats.udf_invocations,
            result.exec_stats.udf_memo_hits,
            result.exec_stats.udf_dedup_hits,
            result.exec_stats.udf_batch_evals,
            result.exec_stats.subqueries_executed,
            result.exec_stats.hash_joins,
            result.exec_stats.nested_loop_joins,
            result.exec_stats.morsels_dispatched,
            result.exec_stats.pipelined_operators,
            result.exec_stats.pool_spawns,
        ));
        // Estimated vs actual rows per operator of the executed plan.
        let params = CostParams::new(pinned.exec_config.parallelism);
        let estimates =
            estimate_per_node(&outcome.plan, &pinned.catalog, &pinned.registry, &params);
        out.push_str("\n== cardinalities (estimated vs actual) ==\n");
        out.push_str(&format!(
            "{:<24} {:>12} {:>12} {:>8} {:>8}\n",
            "operator", "est rows", "actual rows", "execs", "q-error"
        ));
        for estimate in &estimates {
            match result
                .node_cardinalities
                .iter()
                .find(|n| n.fingerprint == estimate.fingerprint)
            {
                Some(actual) => out.push_str(&format!(
                    "{:<24} {:>12.0} {:>12.1} {:>8} {:>8.1}\n",
                    estimate.operator,
                    estimate.cardinality,
                    actual.mean_rows(),
                    actual.executions,
                    q_error(estimate.cardinality, actual.mean_rows()),
                )),
                None => out.push_str(&format!(
                    "{:<24} {:>12.0} {:>12} {:>8} {:>8}\n",
                    estimate.operator, estimate.cardinality, "(not run)", "-", "-"
                )),
            }
        }
        out.push_str("\n== feedback ==\n");
        out.push_str(&format!(
            "root cardinality: estimated {:.0}, actual {} (q-error {:.2})\n",
            result.estimated_rows,
            result.rows.len(),
            result.cardinality_q_error,
        ));
        for timing in &result.udf_timings {
            out.push_str(&format!(
                "udf {}: {} invocation(s), {} cache hit(s), mean {:.3} ms\n",
                timing.name,
                timing.invocations,
                timing.hits,
                timing.mean().as_secs_f64() * 1e3,
            ));
        }
        let feedback = self.engine.feedback_stats();
        out.push_str(&format!(
            "feedback store: {} quer{} recorded, {} udf(s) tracked, \
             {} invalidation(s) flagged\n",
            feedback.queries_recorded,
            if feedback.queries_recorded == 1 {
                "y"
            } else {
                "ies"
            },
            feedback.udfs_tracked,
            feedback.invalidations_flagged,
        ));
        let persist = self.engine.persist_stats();
        if persist.active {
            out.push_str(&format!(
                "durability: {} checkpoint(s), {} WAL record(s) appended ({} bytes), \
                 {} record(s) replayed on open\n",
                persist.checkpoints,
                persist.wal_records_appended,
                persist.wal_bytes_appended,
                persist.wal_records_replayed,
            ));
        }
        out.push_str("\n== parallel operators ==\n");
        out.push_str(&result.exec_trace.render());
        Ok(out)
    }

    /// The standalone rewrite-tool entry point (Figure 9): returns the rewritten SQL
    /// text and the auxiliary aggregate definitions, without executing anything.
    pub fn rewrite_sql(&self, sql: &str) -> Result<RewriteReport> {
        let select = decorr_parser::parse_query(sql)?;
        let plan = plan_select(&select)?;
        let pinned = self.pin(&QueryOptions::default());
        let provider = CatalogProvider::new(&pinned.catalog, &pinned.registry);
        let outcome = PassManager::rewrite_pipeline().optimize(
            &plan,
            &pinned.registry,
            &provider,
            Some(pinned.catalog.as_ref()),
        )?;
        Ok(RewriteReport {
            decorrelated: outcome.decorrelated,
            rewritten_sql: plan_to_sql(&outcome.plan),
            auxiliary_functions: outcome
                .aux_aggregates
                .iter()
                .map(|a| a.to_string())
                .collect(),
            applied_rules: outcome.applied_rules,
            notes: outcome.notes,
        })
    }
}

/// An embeddable in-memory SQL engine with UDF decorrelation: a thin single-session
/// facade over a private [`Engine`].
///
/// This is the convenience entry point for embedded, single-client use — examples,
/// tests and benches. Multi-client serving should hold one [`Engine`] and open one
/// [`Session`] per client instead; [`Database::engine`] exposes the engine behind an
/// existing `Database` so the two styles compose.
///
/// The `&mut self` receivers on mutating methods are kept for API familiarity (and
/// to make single-threaded ownership obvious); the engine underneath is fully
/// thread-safe.
#[derive(Debug)]
pub struct Database {
    engine: Engine,
    session: Session,
}

impl Clone for Database {
    /// Clones the data and functions but gives the clone a **fresh, empty** plan
    /// cache (same capacity), its own worker pool, feedback store and UDF memo — see
    /// [`Engine::fork`]. Clones mutate their catalogs independently (copy-on-write:
    /// table storage is shared until written).
    fn clone(&self) -> Database {
        Database::from_engine(self.engine.fork())
    }
}

impl Default for Database {
    fn default() -> Database {
        Database::new()
    }
}

impl Database {
    pub fn new() -> Database {
        Database::from_engine(Engine::new())
    }

    pub fn with_exec_config(exec_config: ExecConfig) -> Database {
        Database::from_engine(Engine::builder().exec_config(exec_config).build())
    }

    /// Wraps an existing engine in a single-session facade.
    pub fn from_engine(engine: Engine) -> Database {
        let session = engine.session();
        Database { engine, session }
    }

    /// The shared engine underneath — open more sessions on it with
    /// [`Engine::session`] to serve concurrent clients against this database.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// The facade's own session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Replaces the plan cache with an empty one holding at most `capacity` outcomes
    /// (0 disables plan caching).
    pub fn set_plan_cache_capacity(&mut self, capacity: usize) {
        self.engine.set_plan_cache_capacity(capacity);
    }

    /// Replaces the cross-query pure-UDF memo with an empty one holding at most
    /// `capacity` distinct argument tuples. `0` disables memoization entirely (the
    /// per-query dedup cache controlled by `ExecConfig::udf_batching` is unaffected).
    pub fn set_udf_memo_capacity(&mut self, capacity: usize) {
        self.engine.set_udf_memo_capacity(capacity);
    }

    /// Counter snapshot of the cross-query pure-UDF memo
    /// (hits/misses/insertions/evictions/invalidations/entries).
    pub fn udf_memo_stats(&self) -> UdfMemoStats {
        self.engine.udf_memo_stats()
    }

    /// Sets the executor worker-pool size for subsequent queries (see
    /// [`Engine::set_parallelism`]).
    pub fn set_parallelism(&mut self, parallelism: usize) {
        self.engine.set_parallelism(parallelism);
    }

    /// The persistent worker pool shared by every query's executor. Exposed for
    /// benches and diagnostics (spawn counters prove pool reuse across queries).
    pub fn worker_pool(&self) -> Arc<WorkerPool> {
        self.engine.worker_pool()
    }

    /// Lifecycle counters of the persistent worker pool (live workers, lifetime
    /// thread spawns, batches executed).
    pub fn worker_pool_stats(&self) -> WorkerPoolStats {
        self.engine.worker_pool_stats()
    }

    /// The configured executor worker-pool size.
    pub fn parallelism(&self) -> usize {
        self.engine.parallelism()
    }

    /// The default executor configuration used by queries without a per-query
    /// override.
    pub fn exec_config(&self) -> ExecConfig {
        self.engine.exec_config()
    }

    /// The shared plan cache (for stats and explicit `clear`).
    pub fn plan_cache(&self) -> Arc<PlanCache> {
        self.engine.plan_cache()
    }

    /// Snapshot of the plan-cache counters
    /// (hits/misses/evictions/invalidations/entries).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.engine.plan_cache_stats()
    }

    /// The runtime feedback store (learned UDF costs, recorded q-errors).
    pub fn feedback(&self) -> Arc<FeedbackStore> {
        self.engine.feedback()
    }

    /// Snapshot of the feedback counters.
    pub fn feedback_stats(&self) -> FeedbackStats {
        self.engine.feedback_stats()
    }

    /// Replaces the feedback store with a fresh one using `config` (thresholds, trust
    /// floors). Learned state is discarded.
    pub fn set_feedback_config(&mut self, config: FeedbackConfig) {
        self.engine.set_feedback_config(config);
    }

    /// The configuration `ANALYZE` runs with.
    pub fn analyze_config(&self) -> AnalyzeConfig {
        self.engine.analyze_config()
    }

    /// Replaces the `ANALYZE` configuration used by subsequent analyzes.
    pub fn set_analyze_config(&mut self, config: AnalyzeConfig) {
        self.engine.set_analyze_config(config);
    }

    /// Runs a sampled `ANALYZE` over every table (see [`Engine::analyze`]).
    pub fn analyze(&mut self) -> Vec<String> {
        self.engine.analyze()
    }

    /// Runs a sampled `ANALYZE` over one table (see [`Engine::analyze_table`]).
    pub fn analyze_table(&mut self, name: &str) -> Result<()> {
        self.engine.analyze_table(name)
    }

    /// The current catalog snapshot (pinned: concurrent writes build new epochs).
    pub fn catalog(&self) -> Arc<Catalog> {
        self.engine.catalog()
    }

    /// The current function-registry snapshot.
    pub fn registry(&self) -> Arc<FunctionRegistry> {
        self.engine.registry()
    }

    /// Runs a catalog mutation (see [`Engine::mutate_catalog`]).
    pub fn mutate_catalog<R>(&mut self, f: impl FnOnce(&mut Catalog) -> Result<R>) -> Result<R> {
        self.engine.mutate_catalog(f)
    }

    /// Runs a registry mutation (see [`Engine::mutate_registry`]).
    pub fn mutate_registry<R>(&mut self, f: impl FnOnce(&mut FunctionRegistry) -> R) -> R {
        self.engine.mutate_registry(f)
    }

    /// Creates a hash index on `table(column)`.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        self.engine.create_index(table, column)
    }

    /// Executes one or more statements (DDL, DML, `CREATE FUNCTION`, or queries) and
    /// returns a summary per statement.
    pub fn execute(&mut self, sql: &str) -> Result<Vec<ExecutionSummary>> {
        self.session.execute(sql)
    }

    /// Registers a UDF from its `CREATE FUNCTION` source (see
    /// [`Engine::register_function`]).
    pub fn register_function(&mut self, sql: &str) -> Result<()> {
        self.engine.register_function(sql)
    }

    /// Runs a `SELECT` query with the default (cost-based) strategy.
    pub fn query(&self, sql: &str) -> Result<QueryResult> {
        self.session.query(sql)
    }

    /// Runs a `SELECT` query with explicit options.
    pub fn query_with(&self, sql: &str, options: &QueryOptions) -> Result<QueryResult> {
        self.session.query_with(sql, options)
    }

    /// Runs an already-planned query (see [`Session::run_plan`]).
    pub fn run_plan(&self, plan: &RelExpr, options: &QueryOptions) -> Result<QueryResult> {
        self.session.run_plan(plan, options)
    }

    /// Returns an EXPLAIN-style report (see [`Session::explain`]).
    pub fn explain(&self, sql: &str) -> Result<String> {
        self.session.explain(sql)
    }

    /// EXPLAIN plus execution diagnostics (see [`Session::explain_analyze`]).
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        self.session.explain_analyze(sql)
    }

    /// The standalone rewrite-tool entry point (see [`Session::rewrite_sql`]).
    pub fn rewrite_sql(&self, sql: &str) -> Result<RewriteReport> {
        self.session.rewrite_sql(sql)
    }

    /// Bulk-loads rows built programmatically (used by the TPC-H style generator).
    pub fn load_rows(&mut self, table: &str, rows: Vec<Row>) -> Result<usize> {
        self.engine.load_rows(table, rows)
    }

    /// Opens a durable database at `dir` (see [`EngineBuilder::data_dir`]): loads
    /// the snapshot if one exists, replays the WAL, and logs subsequent writes.
    pub fn open(dir: impl Into<PathBuf>) -> Result<Database> {
        Ok(Database::from_engine(
            Engine::builder().data_dir(dir).try_build()?,
        ))
    }

    /// Writes a checkpoint and truncates the WAL (see [`Engine::checkpoint`]).
    pub fn checkpoint(&mut self) -> Result<PersistStats> {
        self.engine.checkpoint()
    }

    /// Durability counters (see [`Engine::persist_stats`]).
    pub fn persist_stats(&self) -> PersistStats {
        self.engine.persist_stats()
    }

    /// Switches one table's shard-placement policy, rerouting its existing rows
    /// (see [`Engine::set_table_placement`]).
    pub fn set_table_placement(&mut self, table: &str, policy: ShardPolicy) -> Result<()> {
        self.engine.set_table_placement(table, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_db() -> Database {
        let mut db = Database::new();
        db.execute(
            "create table customer(custkey int not null, name varchar(25)); \
             create table orders(orderkey int not null, custkey int, totalprice float); \
             create index on orders(custkey);",
        )
        .unwrap();
        let customers: Vec<Row> = (1..=20i64)
            .map(|i| Row::new(vec![Value::Int(i), Value::str(format!("Customer#{i}"))]))
            .collect();
        db.load_rows("customer", customers).unwrap();
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
        db.load_rows("orders", orders).unwrap();
        db.register_function(
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
        db
    }

    #[test]
    fn ddl_dml_and_simple_query() {
        let mut db = Database::new();
        let summaries = db
            .execute("create table t(x int, y varchar(5)); insert into t values (1, 'a'), (2, 'b')")
            .unwrap();
        assert_eq!(summaries[1], ExecutionSummary::RowsInserted(2));
        let result = db.query("select x from t where y = 'b'").unwrap();
        assert_eq!(result.column("x").unwrap(), vec![Value::Int(2)]);
    }

    #[test]
    fn iterative_and_decorrelated_strategies_agree() {
        let db = sample_db();
        let sql = "select custkey, service_level(custkey) as level from customer";
        let iterative = db.query_with(sql, &QueryOptions::iterative()).unwrap();
        let decorrelated = db.query_with(sql, &QueryOptions::decorrelated()).unwrap();
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
        let db = sample_db();
        let sql = "select custkey, service_level(custkey) as level from customer";
        let auto = db.query(sql).unwrap();
        let iterative = db.query_with(sql, &QueryOptions::iterative()).unwrap();
        assert_eq!(
            auto.canonical_projection(&["custkey", "level"]).unwrap(),
            iterative
                .canonical_projection(&["custkey", "level"])
                .unwrap()
        );
    }

    #[test]
    fn explain_reports_both_plans_and_decision() {
        let db = sample_db();
        let text = db
            .explain("select custkey, service_level(custkey) as level from customer")
            .unwrap();
        assert!(text.contains("original (iterative) plan"));
        assert!(text.contains("decorrelated plan"));
        assert!(text.contains("Join(left outer)"));
        assert!(text.contains("cost-based decision"));
    }

    #[test]
    fn rewrite_sql_produces_flat_query_text() {
        let db = sample_db();
        let report = db
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
        let mut db = sample_db();
        db.register_function(
            "create function spin(int n) returns int as \
             begin int i = 0; while (i < n) begin i = i + 1; end return i; end",
        )
        .unwrap();
        let err = db
            .query_with(
                "select spin(custkey) from customer",
                &QueryOptions::decorrelated(),
            )
            .unwrap_err();
        assert_eq!(err.kind(), "rewrite");
        // But the Auto and Iterative strategies still execute it.
        let auto = db
            .query("select custkey, spin(custkey) as s from customer where custkey = 3")
            .unwrap();
        assert_eq!(auto.column("s").unwrap(), vec![Value::Int(3)]);
    }

    #[test]
    fn parallelism_knob_preserves_results_and_reports_a_trace() {
        let mut db = sample_db();
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
        db.load_rows("customer", extra_customers).unwrap();
        db.load_rows("orders", extra_orders).unwrap();
        let sql = "select custkey, service_level(custkey) as level from customer";
        let serial = db.query(sql).unwrap();
        assert_eq!(db.parallelism(), 1);
        db.set_parallelism(4);
        assert_eq!(db.parallelism(), 4);
        assert_eq!(db.exec_config().parallelism, 4);
        let parallel = db.query(sql).unwrap();
        assert_eq!(serial.rows, parallel.rows);
        assert!(parallel.exec_stats.morsels_dispatched > 0);
        assert!(!parallel.exec_trace.is_empty());
        let analyzed = db.explain_analyze(sql).unwrap();
        assert!(analyzed.contains("== execution =="), "{analyzed}");
        assert!(analyzed.contains("parallelism=4"), "{analyzed}");
        assert!(analyzed.contains("== parallel operators =="), "{analyzed}");
        assert!(analyzed.contains("morsels"), "{analyzed}");
    }

    #[test]
    fn errors_surface_cleanly() {
        let mut db = Database::new();
        assert_eq!(
            db.execute("create tabel t(x int)").unwrap_err().kind(),
            "parse"
        );
        assert_eq!(
            db.query("select * from missing").unwrap_err().kind(),
            "catalog"
        );
    }

    #[test]
    fn sessions_share_data_and_plan_cache() {
        let db = sample_db();
        let engine = db.engine().clone();
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
        let db = sample_db();
        let engine = db.engine().clone();
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
        let db = sample_db();
        let session = db
            .engine()
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
        let db = sample_db();
        let fork = db.engine().fork();
        fork.load_rows(
            "customer",
            vec![Row::new(vec![Value::Int(999), Value::str("Forked")])],
        )
        .unwrap();
        assert_eq!(
            fork.catalog().table("customer").unwrap().row_count(),
            db.catalog().table("customer").unwrap().row_count() + 1
        );
        // The fork starts with cold caches.
        assert_eq!(fork.plan_cache_stats().entries, 0);
    }

    #[test]
    fn database_facade_matches_direct_session() {
        let db = sample_db();
        let sql = "select custkey, service_level(custkey) as level from customer";
        let via_facade = db.query(sql).unwrap();
        let via_session = db.engine().session().query(sql).unwrap();
        assert_eq!(
            via_facade
                .canonical_projection(&["custkey", "level"])
                .unwrap(),
            via_session
                .canonical_projection(&["custkey", "level"])
                .unwrap()
        );
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
            let engine = Engine::builder().data_dir(dir.path()).build();
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
        let engine = Engine::builder().data_dir(dir.path()).build();
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
            let engine = Engine::builder().data_dir(dir.path()).build();
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
        let engine = Engine::builder().data_dir(dir.path()).build();
        let stats = engine.persist_stats();
        assert!(stats.snapshot_loaded);
        assert_eq!(stats.wal_records_replayed, 1);
        let catalog = engine.catalog();
        // `customer` was untouched after the checkpoint: its statistics traveled in
        // the snapshot, so reading them is not a recompute. (`orders` took a
        // WAL-replayed insert, which legitimately dirties its cache.)
        let untouched = catalog.table("customer").unwrap();
        assert!(untouched.stats().inner().analyzed);
        assert_eq!(untouched.stats_recomputes(), 0);
        assert!(catalog.table("orders").unwrap().stats().inner().analyzed);
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

    #[test]
    fn hash_placement_is_durable() {
        let dir = TempDir::new("hash_placement");
        {
            let engine = Engine::builder()
                .data_dir(dir.path())
                .default_placement(ShardPolicy::Hash)
                .shard_count(4)
                .build();
            let session = engine.session();
            session.execute("create table t(x int)").unwrap();
            let rows: Vec<Row> = (0..64).map(|i| Row::new(vec![Value::Int(i)])).collect();
            engine.load_rows("t", rows).unwrap();
            assert_eq!(
                engine.catalog().table("t").unwrap().shard_policy(),
                ShardPolicy::Hash
            );
            engine.checkpoint().unwrap();
        }
        let engine = Engine::builder().data_dir(dir.path()).build();
        let table_arc = engine.catalog().table_arc("t").unwrap();
        assert_eq!(table_arc.shard_policy(), ShardPolicy::Hash);
        assert_eq!(table_arc.row_count(), 64);
        // Hash routing spreads 64 rows across all four shards.
        assert!(table_arc.shards().iter().all(|s| !s.is_empty()));
    }
}
