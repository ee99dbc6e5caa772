//! The shared engine: the catalog + registry epoch behind its snapshot swap, the
//! builder that configures an engine once, and the clone-mutate-swap write cycle every
//! DDL/DML/`ANALYZE`/`CREATE FUNCTION` goes through.

use std::path::PathBuf;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use decorr_common::{Error, Result, Row, Schema};
use decorr_exec::{
    CatalogProvider, ExecConfig, UdfMemo, UdfMemoStats, WorkerPool, WorkerPoolStats,
};
use decorr_optimizer::{FeedbackStats, FeedbackStore, PlanCache, PlanCacheStats};
use decorr_persist::WalRecord;
use decorr_storage::Catalog;
use decorr_udf::{FunctionRegistry, UdfDefinition};

use crate::durability::{column_defs, PersistHandle};
use crate::Session;

/// Default capacity (distinct argument tuples) of the cross-query pure-UDF memo.
const DEFAULT_UDF_MEMO_CAPACITY: usize = 8192;

/// Lock helpers: a poisoned lock means another session panicked mid-operation; the
/// protected state is swap-only (`Arc` replacement), `()` or the durability counters,
/// so it is never left torn — recover the guard instead of cascading the panic into every
/// other session sharing the engine.
pub(crate) fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

pub(crate) fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The snapshot readers pin: catalog and registry swapped together so a query never
/// observes a catalog from one epoch with a registry (and UDF records) from another.
#[derive(Debug, Clone)]
pub(crate) struct SharedState {
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) registry: Arc<FunctionRegistry>,
}

impl SharedState {
    /// Derives against this epoch's catalog the form of the UDF `only` names (of every
    /// UDF when `None`: table DDL moved the schemas forms are bound to). Read sets need
    /// no catalog: registering a UDF keeps every one current.
    fn derive_records(&mut self, only: Option<&str>) {
        let view = Arc::clone(&self.registry);
        let registry = Arc::make_mut(&mut self.registry);
        let provider = CatalogProvider::new(&self.catalog, &view);
        decorr_rewrite::algebraize_registry(registry, only, &provider);
    }
}

#[derive(Debug)]
pub(crate) struct EngineInner {
    /// Current catalog + registry epoch. Readers clone the two `Arc`s under the read
    /// lock and run against that immutable snapshot. Writer: the clone-mutate-swap
    /// cycle ([`Engine::mutate_catalog`] and [`Engine::register_udf_definition`]),
    /// which builds the next epoch outside the lock and swaps it in.
    pub(crate) state: RwLock<SharedState>,
    /// Serializes writers (DDL/DML/ANALYZE/CREATE FUNCTION) so concurrent mutations
    /// can't lose updates in the clone-mutate-swap cycle. Readers never touch it.
    pub(crate) writer: Mutex<()>,
    /// Cross-query pure-UDF memo. Writer: [`Engine::set_udf_memo_capacity`], whose only
    /// caller is `benchmark/src/run.rs:60`; a plain field once that setter goes.
    pub(crate) udf_memo: RwLock<Arc<UdfMemo>>,
    // Fixed at build time: the builder is the only place an engine is configured, so
    // these need no lock (the stores synchronize their own contents).
    pub(crate) exec_config: ExecConfig,
    pub(crate) plan_cache: Arc<PlanCache>,
    pub(crate) worker_pool: Arc<WorkerPool>,
    pub(crate) feedback: Arc<FeedbackStore>,
    /// Durability handle: `Some` when the engine was opened with a `data_dir`. Held
    /// briefly by the writer path (to append WAL records) and by
    /// [`Engine::checkpoint`]; always acquired *after* `writer` when both are taken,
    /// so append order matches epoch-swap order.
    pub(crate) persist: Mutex<Option<PersistHandle>>,
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
/// * the **worker pool** — one budget of helper threads bounds what the fanned-out
///   operators of every session's queries run at once.
///
/// `Engine` is a cheap handle (`Arc` inside): clone it to share, use
/// [`Engine::fork`] to create an independent engine with the same data but fresh
/// caches.
#[derive(Debug, Clone)]
pub struct Engine {
    pub(crate) inner: Arc<EngineInner>,
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

    /// A builder for parallelism, cache capacities and the `data_dir` — the only place
    /// an engine is configured.
    pub fn builder() -> EngineBuilder {
        EngineBuilder::default()
    }

    /// Opens a new session: a cheap per-client handle with its own config override
    /// and default strategy. Any number of sessions may run concurrently.
    pub fn session(&self) -> Session {
        Session::new(self.clone())
    }

    /// An independent engine with the same data and functions but **fresh, empty**
    /// caches (same capacities), its own worker pool and a fresh feedback store. It
    /// starts on this engine's epoch, UDF records included, sharing table storage
    /// copy-on-write: only tables either side subsequently writes are deep-cloned.
    pub fn fork(&self) -> Engine {
        let fork = Engine::builder()
            .exec_config(self.exec_config())
            .plan_cache_capacity(self.inner.plan_cache.capacity())
            .udf_memo_capacity(read(&self.inner.udf_memo).capacity())
            .build();
        *write(&fork.inner.state) = read(&self.inner.state).clone();
        fork
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
    ///
    /// `f` gets the next epoch, still sharing both halves with the current one, and
    /// unshares the half it writes with `Arc::make_mut`. A write that changes the table
    /// schemas re-derives every UDF record; any other leaves the registry alone.
    fn write_cycle<R>(
        &self,
        record: Option<WalRecord>,
        f: impl FnOnce(&mut SharedState) -> Result<R>,
    ) -> Result<R> {
        let writer = lock(&self.inner.writer);
        let current = read(&self.inner.state).clone();
        let mut next = current.clone();
        let out = f(&mut next)?;
        if !next.catalog.same_schemas(&current.catalog) {
            next.derive_records(None);
        }
        if let Some(record) = record {
            self.wal_append(&record)?;
        }
        *write(&self.inner.state) = next;
        // `current` may hold the last handle to the superseded epoch; whatever that
        // epoch owned privately is freed here, after the next writer may start.
        drop(writer);
        drop(current);
        Ok(out)
    }

    /// [`Engine::write_cycle`] over the catalog half.
    fn mutate_catalog_wal<R>(
        &self,
        record: Option<WalRecord>,
        f: impl FnOnce(&mut Catalog) -> Result<R>,
    ) -> Result<R> {
        self.write_cycle(record, |next| f(Arc::make_mut(&mut next.catalog)))
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
    /// pure-by-default contract is silently downgraded to volatile instead. Names of
    /// the shape auxiliary aggregates take (`aux_agg_…`) are refused, so no UDF shares
    /// a name with an aggregate another UDF's form calls.
    ///
    /// The write that swaps the definition in derives its record against the next
    /// epoch's catalog (see [`FunctionRegistry`](decorr_udf::FunctionRegistry)).
    pub fn register_udf_definition(&self, udf: UdfDefinition) -> Result<()> {
        if decorr_udf::is_aux_aggregate_name(&udf.name) {
            return Err(Error::Catalog(format!(
                "function name '{}' is reserved for auxiliary aggregates",
                udf.name
            )));
        }
        // Normalize against the current snapshot before taking the writer lock:
        // normalization is a best-effort plan cleanup, so racing with a concurrent
        // DDL at worst misses an optimization opportunity, never correctness.
        let pinned = self.pin(None);
        let mut normalized = pinned.normalize_udf(udf);
        let facts = decorr_udf::analysis::analyze_body(&normalized, &pinned.registry);
        if let (Some(witness), true) = (facts.volatile_calls.first(), normalized.pure) {
            if normalized.purity_declared {
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
        self.write_cycle(record, |next| {
            let name = normalized.name.clone();
            Arc::make_mut(&mut next.registry).register_udf(normalized);
            next.derive_records(Some(&name));
            Ok(())
        })
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
        self.analyze_with(None).expect("analyze_all is infallible")
    }

    /// Runs a sampled `ANALYZE` over one table (see [`Engine::analyze`]).
    pub fn analyze_table(&self, name: &str) -> Result<()> {
        self.analyze_with(Some(name.to_string())).map(|_| ())
    }

    /// `ANALYZE` of one table or all of them (the path WAL replay takes too). Returns
    /// the analyzed table names.
    pub(crate) fn analyze_with(&self, table: Option<String>) -> Result<Vec<String>> {
        let record = self.persist_active().then(|| WalRecord::Analyze {
            table: table.clone(),
        });
        self.mutate_catalog_wal(record, |c| match &table {
            Some(name) => c.analyze_table(name).map(|()| vec![name.clone()]),
            None => Ok(c.analyze_all()),
        })
    }

    // ---- shared-component accessors ---------------------------------------------

    /// The default executor configuration used by sessions without an override.
    pub fn exec_config(&self) -> ExecConfig {
        self.inner.exec_config.clone()
    }

    /// The configured threads per fanned-out operator.
    pub fn parallelism(&self) -> usize {
        self.inner.exec_config.parallelism
    }

    /// The helper-thread budget shared by every session's queries. Exposed so a
    /// standalone executor (a bench, a diagnostic) can draw on the same budget.
    pub fn worker_pool(&self) -> Arc<WorkerPool> {
        Arc::clone(&self.inner.worker_pool)
    }

    /// The shared helper budget's counters: the budget, helpers leased right now,
    /// dispatches that fanned out.
    pub fn worker_pool_stats(&self) -> WorkerPoolStats {
        self.inner.worker_pool.stats()
    }

    /// The shared plan cache (for stats and explicit `clear`).
    pub fn plan_cache(&self) -> Arc<PlanCache> {
        Arc::clone(&self.inner.plan_cache)
    }

    /// Snapshot of the plan-cache counters
    /// (hits/misses/evictions/invalidations/entries).
    pub fn plan_cache_stats(&self) -> PlanCacheStats {
        self.inner.plan_cache.stats()
    }

    /// The runtime feedback store (learned UDF costs, recorded q-errors).
    pub fn feedback(&self) -> Arc<FeedbackStore> {
        Arc::clone(&self.inner.feedback)
    }

    /// Snapshot of the feedback counters.
    pub fn feedback_stats(&self) -> FeedbackStats {
        self.inner.feedback.stats()
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
}

/// Configures and builds an [`Engine`].
#[derive(Debug, Default)]
pub struct EngineBuilder {
    catalog: Catalog,
    registry: FunctionRegistry,
    exec_config: ExecConfig,
    plan_cache_capacity: Option<usize>,
    udf_memo_capacity: Option<usize>,
}

impl EngineBuilder {
    /// Seeds the engine with an existing catalog.
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

    /// Threads per fanned-out operator, and the engine's helper budget (clamped to
    /// ≥ 1; shorthand for setting it on the exec config).
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

    /// Makes the engine durable: `dir` holds a checkpointed snapshot plus a
    /// write-ahead log. Opening the directory can fail, so the returned builder's only
    /// terminal is [`DurableEngineBuilder::try_build`]; configure everything else
    /// before this call.
    pub fn data_dir(self, dir: impl Into<PathBuf>) -> DurableEngineBuilder {
        DurableEngineBuilder {
            builder: self,
            dir: dir.into(),
        }
    }

    /// Builds the in-memory engine.
    pub fn build(self) -> Engine {
        let exec_config = self.exec_config.normalized();
        let pool_size = if exec_config.parallelism > 1 {
            exec_config.parallelism
        } else {
            0
        };
        let plan_cache = self
            .plan_cache_capacity
            .map_or_else(PlanCache::new, PlanCache::with_capacity);
        let memo_capacity = self.udf_memo_capacity.unwrap_or(DEFAULT_UDF_MEMO_CAPACITY);
        let mut state = SharedState {
            catalog: Arc::new(self.catalog),
            registry: Arc::new(self.registry),
        };
        state.derive_records(None);
        Engine {
            inner: Arc::new(EngineInner {
                state: RwLock::new(state),
                writer: Mutex::new(()),
                udf_memo: RwLock::new(Arc::new(UdfMemo::with_capacity(memo_capacity))),
                exec_config,
                plan_cache: Arc::new(plan_cache),
                worker_pool: Arc::new(WorkerPool::new(pool_size)),
                feedback: Arc::new(FeedbackStore::new()),
                persist: Mutex::new(None),
            }),
        }
    }
}

/// An [`EngineBuilder`] with a `data_dir` (see [`EngineBuilder::data_dir`]).
#[derive(Debug)]
pub struct DurableEngineBuilder {
    builder: EngineBuilder,
    dir: PathBuf,
}

impl DurableEngineBuilder {
    /// Builds the engine on its `data_dir`: loads the snapshot (if any), replays the
    /// WAL's valid prefix, and logs every subsequent write; [`Engine::checkpoint`]
    /// compacts the log into a fresh snapshot. A directory that cannot be read (I/O
    /// error, corrupt snapshot or WAL header) is returned as an error.
    pub fn try_build(self) -> Result<Engine> {
        let engine = self.builder.build();
        engine.open_data_dir(&self.dir)?;
        Ok(engine)
    }
}
