//! The persistent morsel-driven worker pool.
//!
//! Parallel operators split their input into fixed-size *morsels* (row ranges) that a
//! pool of long-lived `std::thread` workers pulls from a shared atomic queue — the
//! classic morsel-driven scheduling of Leis et al., built on nothing but `std::sync`
//! primitives (the workspace is dependency-free and forbids `unsafe`).
//!
//! Unlike the first parallel engine (which re-spawned scoped threads for every
//! operator), the [`WorkerPool`] here is *persistent*: its workers park on a condvar
//! between batches and are reused across operators **and** across queries. An
//! `Engine` owns one pool and attaches it to every session's executors; a standalone
//! executor lazily creates its own pool, so the pool is the only dispatch path. Thread
//! spawns are therefore a pool-lifecycle event (`ExecStats::pool_spawns`), not a
//! per-operator cost.
//!
//! Because the workers are long-lived, batch jobs must be `'static`: operators package
//! an owned job context (`Arc`'d input rows, cloned expressions and environments, and a
//! serial [`Executor`] view that shares the catalog/registry `Arc`s) instead of
//! borrowing from the submitting stack frame.
//!
//! Determinism contract: workers may *process* morsels in any interleaving, but every
//! driver returns its per-task outputs **sorted by task index** (the sort-stabilized
//! merge), so a parallel run assembles byte-identical output to an inline, row-at-a-time
//! run. Operators whose result depends on accumulation order (hash aggregation)
//! additionally partition by group-key hash so each group's accumulation chain stays in
//! global row order — see `Executor::execute_aggregate`.
//!
//! Panic safety: a task that panics (e.g. a UDF hitting a library panic mid-morsel) is
//! caught *per task* inside the worker loop. The batch reports the first panic message
//! to its submitter — which surfaces it as an [`Error::Execution`] on that query — and
//! the worker thread survives, so the pool stays usable for the next batch.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use decorr_common::{Error, Result, Row};

use crate::executor::Executor;
use crate::stats::OperatorTrace;

/// Output-row accounting for batch task results: every type a parallel operator
/// returns per task reports how many rows (or build entries / groups, for
/// non-row-producing stages) it carries, so the per-operator trace can expose actual
/// output cardinalities next to the input spread.
pub(crate) trait OutputRows {
    fn output_rows(&self) -> u64;
}

impl OutputRows for Vec<Row> {
    fn output_rows(&self) -> u64 {
        self.len() as u64
    }
}

impl OutputRows for std::collections::HashMap<Vec<decorr_common::value::GroupKey>, Vec<usize>> {
    fn output_rows(&self) -> u64 {
        self.values().map(|v| v.len() as u64).sum()
    }
}

/// Splits `len` rows into contiguous ranges of at most `morsel_size` rows.
///
/// Edge cases: zero rows produce zero morsels; a table smaller than one morsel produces
/// a single morsel covering it; `morsel_size == 0` is treated as 1 so the split always
/// terminates.
pub fn morsel_ranges(len: usize, morsel_size: usize) -> Vec<Range<usize>> {
    let step = morsel_size.max(1);
    let mut out = Vec::with_capacity(len.div_ceil(step));
    let mut start = 0;
    while start < len {
        let end = (start + step).min(len);
        out.push(start..end);
        start = end;
    }
    out
}

/// A batch job: invoked as `job(participant_slot, task_index)` once per task.
type BatchJob = Box<dyn Fn(usize, usize) + Send + Sync>;

/// One submitted batch of independent tasks. Workers claim task indexes from the
/// shared `next` counter (morsel scheduling); the submitter blocks until `finished`
/// reaches `tasks`.
struct Batch {
    job: BatchJob,
    tasks: usize,
    /// Participant slots this batch may hand out (bounds the workers it occupies).
    max_workers: usize,
    /// Next unclaimed task index.
    next: AtomicUsize,
    /// Participant slots handed out so far (may overshoot `max_workers`; the overshoot
    /// is never used).
    joined: AtomicUsize,
    /// Completed tasks. A panicked task still counts — completion must never hang.
    finished: AtomicUsize,
    /// First panic message observed while running a task of this batch.
    panic: Mutex<Option<String>>,
}

impl Batch {
    fn fully_claimed(&self) -> bool {
        self.next.load(Ordering::Relaxed) >= self.tasks
    }

    fn done(&self) -> bool {
        self.finished.load(Ordering::Relaxed) >= self.tasks
    }
}

/// Queue state shared between submitters and workers, guarded by one mutex.
#[derive(Default)]
struct PoolQueue {
    batches: VecDeque<Arc<Batch>>,
    shutdown: bool,
}

struct PoolShared {
    queue: Mutex<PoolQueue>,
    /// Wakes parked workers when a batch arrives or the pool shuts down.
    work_ready: Condvar,
    /// Wakes batch submitters when a batch's last task finishes.
    batch_done: Condvar,
}

/// Snapshot of a pool's lifecycle counters (for diagnostics and EXPLAIN-style reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerPoolStats {
    /// Live worker threads.
    pub workers: usize,
    /// Threads spawned over the pool's lifetime (grows only when the pool grows).
    pub threads_spawned: u64,
    /// Batches executed over the pool's lifetime.
    pub batches_run: u64,
}

/// A persistent, condvar-backed worker pool.
///
/// Workers are spawned eagerly by [`WorkerPool::new`] and on demand by
/// [`WorkerPool::ensure_workers`]; they park between batches and are joined when the
/// pool is dropped. Multiple submitters may run batches concurrently — batches queue
/// FIFO and each is bounded to its own `max_workers` participant slots.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Live worker handles, joined on drop.
    workers: Mutex<Vec<JoinHandle<()>>>,
    threads_spawned: AtomicU64,
    batches_run: AtomicU64,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.worker_count())
            .field("threads_spawned", &self.threads_spawned())
            .field("batches_run", &self.batches_run.load(Ordering::Relaxed))
            .finish()
    }
}

impl Default for WorkerPool {
    /// An empty pool; workers are spawned on first use by [`WorkerPool::ensure_workers`].
    fn default() -> Self {
        WorkerPool::new(0)
    }
}

impl WorkerPool {
    /// A pool with `workers` threads spawned eagerly (warm-up happens here, not on the
    /// query path). `0` defers every spawn to [`WorkerPool::ensure_workers`].
    pub fn new(workers: usize) -> WorkerPool {
        let pool = WorkerPool {
            shared: Arc::new(PoolShared {
                queue: Mutex::new(PoolQueue::default()),
                work_ready: Condvar::new(),
                batch_done: Condvar::new(),
            }),
            workers: Mutex::new(vec![]),
            threads_spawned: AtomicU64::new(0),
            batches_run: AtomicU64::new(0),
        };
        pool.ensure_workers(workers);
        pool
    }

    /// Live worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.lock().expect("worker list poisoned").len()
    }

    /// Threads spawned over the pool's lifetime.
    pub fn threads_spawned(&self) -> u64 {
        self.threads_spawned.load(Ordering::Relaxed)
    }

    /// Lifecycle counter snapshot.
    pub fn stats(&self) -> WorkerPoolStats {
        WorkerPoolStats {
            workers: self.worker_count(),
            threads_spawned: self.threads_spawned(),
            batches_run: self.batches_run.load(Ordering::Relaxed),
        }
    }

    /// Grows the pool to at least `target` workers and returns how many threads were
    /// spawned (0 once the pool is warm — the per-query steady state).
    pub fn ensure_workers(&self, target: usize) -> usize {
        let mut workers = self.workers.lock().expect("worker list poisoned");
        let missing = target.saturating_sub(workers.len());
        for _ in 0..missing {
            let shared = Arc::clone(&self.shared);
            self.threads_spawned.fetch_add(1, Ordering::Relaxed);
            workers.push(std::thread::spawn(move || worker_loop(&shared)));
        }
        missing
    }

    /// Runs `tasks` independent tasks on at most `max_workers` pool workers, blocking
    /// until every task has finished. Task indexes are claimed from a shared counter,
    /// so workers self-balance across uneven tasks. Returns the first panic message if
    /// any task panicked; the pool itself stays healthy either way.
    pub fn run_batch(
        &self,
        max_workers: usize,
        tasks: usize,
        job: BatchJob,
    ) -> std::result::Result<(), String> {
        if tasks == 0 {
            return Ok(());
        }
        self.ensure_workers(max_workers.max(1).min(tasks));
        self.batches_run.fetch_add(1, Ordering::Relaxed);
        let batch = Arc::new(Batch {
            job,
            tasks,
            max_workers: max_workers.max(1),
            next: AtomicUsize::new(0),
            joined: AtomicUsize::new(0),
            finished: AtomicUsize::new(0),
            panic: Mutex::new(None),
        });
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            queue.batches.push_back(Arc::clone(&batch));
            self.shared.work_ready.notify_all();
        }
        let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
        while !batch.done() {
            queue = self
                .shared
                .batch_done
                .wait(queue)
                .expect("pool queue poisoned");
        }
        // Fully-claimed batches are usually pruned by the workers; make sure ours is
        // gone before returning (it holds the job closure and its captured context).
        queue.batches.retain(|b| !Arc::ptr_eq(b, &batch));
        drop(queue);
        let panic = batch.panic.lock().expect("panic slot poisoned").take();
        match panic {
            Some(message) => Err(message),
            None => Ok(()),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut queue = self.shared.queue.lock().expect("pool queue poisoned");
            queue.shutdown = true;
            self.shared.work_ready.notify_all();
        }
        let handles = std::mem::take(&mut *self.workers.lock().expect("worker list poisoned"));
        for handle in handles {
            let _ = handle.join();
        }
    }
}

/// A parked worker's life: claim a participant slot in a pending batch, drain tasks
/// from it, repeat; park when no batch needs hands; exit on shutdown.
fn worker_loop(shared: &PoolShared) {
    loop {
        let (batch, slot) = {
            let mut queue = shared.queue.lock().expect("pool queue poisoned");
            loop {
                if queue.shutdown {
                    return;
                }
                if let Some(claim) = claim_slot(&mut queue) {
                    break claim;
                }
                queue = shared.work_ready.wait(queue).expect("pool queue poisoned");
            }
        };
        run_tasks(shared, &batch, slot);
    }
}

/// Finds the first batch with unclaimed tasks and a free participant slot. Batches
/// whose tasks are all claimed are pruned so the queue never grows unboundedly.
fn claim_slot(queue: &mut PoolQueue) -> Option<(Arc<Batch>, usize)> {
    queue.batches.retain(|batch| !batch.fully_claimed());
    for batch in &queue.batches {
        let slot = batch.joined.fetch_add(1, Ordering::Relaxed);
        if slot < batch.max_workers {
            return Some((Arc::clone(batch), slot));
        }
    }
    None
}

/// Drains tasks from a batch, catching panics per task so a poisoned UDF cannot kill
/// the worker thread or wedge the batch.
fn run_tasks(shared: &PoolShared, batch: &Batch, slot: usize) {
    loop {
        let idx = batch.next.fetch_add(1, Ordering::Relaxed);
        if idx >= batch.tasks {
            return;
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| (batch.job)(slot, idx))) {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "worker panicked".to_string());
            batch
                .panic
                .lock()
                .expect("panic slot poisoned")
                .get_or_insert(message);
        }
        let done = batch.finished.fetch_add(1, Ordering::Relaxed) + 1;
        if done >= batch.tasks {
            // Take the queue lock before notifying so the wake-up cannot slip between
            // a submitter's `done()` check and its wait.
            let _guard = shared.queue.lock().expect("pool queue poisoned");
            shared.batch_done.notify_all();
        }
    }
}

/// One participant's contribution: its `(task index, task output)` pairs plus the
/// number of input rows it processed (for the trace's per-worker spread).
type WorkerOutput<T> = (Vec<(usize, Result<T>)>, u64);

impl Executor {
    /// True when an operator over `len` input rows should fan out to the pool:
    /// parallelism is enabled and the input spans more than one morsel. With
    /// `parallelism == 1` every operator runs inline on the calling thread.
    pub(crate) fn should_parallelize(&self, len: usize) -> bool {
        self.config.parallelism > 1 && len > self.config.morsel_size.max(1)
    }

    /// Runs `tasks` independent work items on the worker pool and returns their outputs
    /// **in task order**. Workers evaluate through a shared serial view of this
    /// executor (same catalog/registry/stats `Arc`s, `parallelism = 1`), so nested plan
    /// execution inside a task never re-enters the pool. Records an [`OperatorTrace`]
    /// entry; `pipelined` is the number of plan operators fused into this dispatch (0
    /// for a single-operator dispatch).
    ///
    /// `task_rows` reports the input-row weight of a task for the trace's per-worker
    /// spread; `f` receives the shared serial executor view and the task index. Both
    /// must be `'static`: the pool workers outlive this call's stack frame, so the job
    /// context is owned, not borrowed.
    pub(crate) fn run_pool<T, F>(
        &self,
        operator: &str,
        pipelined: usize,
        tasks: usize,
        task_rows: impl Fn(usize) -> u64 + Send + Sync + 'static,
        f: F,
    ) -> Result<Vec<T>>
    where
        T: Send + OutputRows + 'static,
        F: Fn(&Executor, usize) -> Result<T> + Send + Sync + 'static,
    {
        if tasks == 0 {
            return Ok(vec![]);
        }
        let workers = self.config.parallelism.max(1).min(tasks);
        let pool = self.worker_pool();
        let spawned = pool.ensure_workers(workers);
        self.stats.add_pool_spawns(spawned as u64);
        let start = Instant::now();
        // Per-participant output slots. Each participant locks only its own slot, so
        // the mutexes are uncontended; the submitter drains them after the batch
        // completes (slot-mutex release/acquire publishes the workers' writes).
        let slots: Arc<Vec<Mutex<WorkerOutput<T>>>> =
            Arc::new((0..workers).map(|_| Mutex::new((vec![], 0))).collect());
        let view = Arc::new(self.worker_view());
        let job: BatchJob = {
            let slots = Arc::clone(&slots);
            Box::new(move |slot, idx| {
                let rows = task_rows(idx);
                let result = f(&view, idx);
                let mut out = slots[slot].lock().expect("worker output slot poisoned");
                out.0.push((idx, result));
                out.1 += rows;
            })
        };
        let outcome = pool.run_batch(workers, tasks, job);
        let duration = start.elapsed();
        // A panicked task produced no output, so the slot merge below cannot run —
        // fail the whole operator instead. The pool itself stays usable.
        if let Err(message) = outcome {
            return Err(Error::Execution(format!(
                "morsel worker panicked: {message}"
            )));
        }
        let per_worker: Vec<WorkerOutput<T>> = slots
            .iter()
            .map(|slot| std::mem::take(&mut *slot.lock().expect("worker output slot poisoned")))
            .collect();
        let rows_per_worker: Vec<u64> = per_worker.iter().map(|(_, rows)| *rows).collect();
        // Sort-stabilized merge: outputs reassemble in task order regardless of which
        // worker ran which task, and errors surface deterministically (lowest task
        // index wins).
        let mut merged: Vec<Option<Result<T>>> = (0..tasks).map(|_| None).collect();
        for (results, _) in per_worker {
            for (idx, result) in results {
                merged[idx] = Some(result);
            }
        }
        self.stats.add_morsels_dispatched(tasks as u64);
        self.stats.add_parallel_operators(1);
        if pipelined > 0 {
            self.stats.add_pipelined_operators(pipelined as u64);
        }
        let rows_in: u64 = rows_per_worker.iter().sum();
        let rows_out: u64 = merged
            .iter()
            .filter_map(|slot| match slot {
                Some(Ok(output)) => Some(output.output_rows()),
                _ => None,
            })
            .sum();
        self.trace.record(OperatorTrace {
            operator: operator.to_string(),
            morsels: tasks,
            workers,
            rows_per_worker,
            duration,
            pipelined_stages: pipelined,
            pool_spawns: spawned,
            rows_in,
            rows_out,
        });
        merged
            .into_iter()
            .map(|slot| slot.expect("every task index is produced exactly once"))
            .collect()
    }

    /// Morsel-driven map: splits `len` rows into morsels and runs `f` per morsel range,
    /// returning the per-morsel outputs in morsel order. `pipelined` is forwarded to
    /// the trace (see [`Executor::run_pool`]).
    ///
    /// `ExecConfig::morsel_size` is the *floor*: large inputs use proportionally larger
    /// morsels so the queue never holds more than a few tasks per worker (per-morsel
    /// dispatch overhead stays bounded), while still leaving enough tasks for the pool
    /// to balance skew. The split depends only on `len` and the configuration — never
    /// on scheduling — so the morsel-order merge stays deterministic.
    pub(crate) fn run_morsels<T, F>(
        &self,
        operator: &str,
        pipelined: usize,
        len: usize,
        f: F,
    ) -> Result<Vec<T>>
    where
        T: Send + OutputRows + 'static,
        F: Fn(&Executor, Range<usize>) -> Result<T> + Send + Sync + 'static,
    {
        let tasks_per_worker = 4;
        let effective = self
            .config
            .morsel_size
            .max(1)
            .max(len.div_ceil(self.config.parallelism.max(1) * tasks_per_worker));
        let ranges = morsel_ranges(len, effective);
        let weights = ranges.clone();
        let task_rows = move |idx: usize| weights[idx].len() as u64;
        self.run_pool(
            operator,
            pipelined,
            ranges.len(),
            task_rows,
            move |view, idx| f(view, ranges[idx].clone()),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;

    #[test]
    fn empty_input_produces_no_morsels() {
        assert!(morsel_ranges(0, 1024).is_empty());
    }

    #[test]
    fn input_smaller_than_one_morsel_is_a_single_range() {
        assert_eq!(morsel_ranges(7, 1024), vec![0..7]);
    }

    #[test]
    fn exact_multiple_splits_cleanly() {
        assert_eq!(morsel_ranges(8, 4), vec![0..4, 4..8]);
    }

    #[test]
    fn remainder_goes_into_a_short_tail_morsel() {
        assert_eq!(morsel_ranges(10, 4), vec![0..4, 4..8, 8..10]);
    }

    #[test]
    fn zero_morsel_size_is_clamped_not_divergent() {
        assert_eq!(morsel_ranges(3, 0), vec![0..1, 1..2, 2..3]);
    }

    #[test]
    fn ranges_cover_input_without_gaps_or_overlap() {
        for (len, size) in [(1, 1), (1000, 7), (4096, 1024), (5, 100)] {
            let ranges = morsel_ranges(len, size);
            let mut covered = 0;
            for r in &ranges {
                assert_eq!(r.start, covered, "gap before {r:?}");
                assert!(r.end > r.start, "empty morsel {r:?}");
                assert!(r.len() <= size.max(1));
                covered = r.end;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn pool_reuses_threads_across_batches() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.worker_count(), 3);
        assert_eq!(pool.threads_spawned(), 3);
        for round in 0..5u64 {
            let counter = Arc::new(TestCounter::new(0));
            let job = {
                let counter = Arc::clone(&counter);
                Box::new(move |_slot: usize, idx: usize| {
                    counter.fetch_add(idx as u64 + 1, Ordering::Relaxed);
                })
            };
            pool.run_batch(3, 8, job).unwrap();
            assert_eq!(counter.load(Ordering::Relaxed), 36, "round {round}");
        }
        // The whole point: repeated batches spawn no new threads.
        assert_eq!(pool.threads_spawned(), 3);
        assert_eq!(pool.stats().batches_run, 5);
    }

    #[test]
    fn pool_grows_on_demand_and_only_once() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.worker_count(), 0);
        assert_eq!(pool.ensure_workers(2), 2);
        assert_eq!(pool.ensure_workers(2), 0);
        assert_eq!(pool.ensure_workers(4), 2);
        assert_eq!(pool.worker_count(), 4);
        assert_eq!(pool.threads_spawned(), 4);
    }

    #[test]
    fn empty_batch_completes_immediately() {
        let pool = WorkerPool::new(1);
        pool.run_batch(4, 0, Box::new(|_, _| panic!("never called")))
            .unwrap();
    }

    #[test]
    fn panicking_task_fails_the_batch_but_not_the_pool() {
        let pool = WorkerPool::new(2);
        let ran = Arc::new(TestCounter::new(0));
        let job = {
            let ran = Arc::clone(&ran);
            Box::new(move |_slot: usize, idx: usize| {
                if idx == 3 {
                    panic!("udf exploded mid-morsel");
                }
                ran.fetch_add(1, Ordering::Relaxed);
            })
        };
        let err = pool.run_batch(2, 6, job).unwrap_err();
        assert!(err.contains("udf exploded"), "{err}");
        // Every non-panicking task still completed (completion never hangs) …
        assert_eq!(ran.load(Ordering::Relaxed), 5);
        // … the workers survived, and the next batch runs normally.
        assert_eq!(pool.worker_count(), 2);
        let ok = Arc::new(TestCounter::new(0));
        let job = {
            let ok = Arc::clone(&ok);
            Box::new(move |_slot: usize, _idx: usize| {
                ok.fetch_add(1, Ordering::Relaxed);
            })
        };
        pool.run_batch(2, 4, job).unwrap();
        assert_eq!(ok.load(Ordering::Relaxed), 4);
        assert_eq!(pool.threads_spawned(), 2, "recovery must not respawn");
    }

    // Unit tests drive `run_pool` with bare indexes as task outputs.
    impl OutputRows for usize {
        fn output_rows(&self) -> u64 {
            1
        }
    }

    #[test]
    fn run_pool_surfaces_panics_and_stays_usable() {
        use decorr_storage::Catalog;
        use decorr_udf::FunctionRegistry;

        let executor = Executor::with_config(
            Arc::new(Catalog::new()),
            Arc::new(FunctionRegistry::new()),
            crate::ExecConfig::default().with_parallelism(2),
        );
        let err = executor
            .run_pool(
                "panicky",
                0,
                6,
                |_| 1,
                |_, idx| {
                    if idx == 2 {
                        panic!("boom at {idx}");
                    }
                    Ok(idx)
                },
            )
            .unwrap_err();
        assert!(err.to_string().contains("morsel worker panicked"), "{err}");
        assert!(err.to_string().contains("boom at 2"), "{err}");
        // The same executor (same lazily-created pool) runs the next batch fine, on
        // the same threads.
        let spawned_before = executor.worker_pool().threads_spawned();
        let out = executor
            .run_pool("ok", 0, 6, |_| 1, |_, idx| Ok(idx * 10))
            .unwrap();
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
        assert_eq!(executor.worker_pool().threads_spawned(), spawned_before);
    }

    #[test]
    fn concurrent_submitters_share_one_pool() {
        let pool = Arc::new(WorkerPool::new(4));
        let total = Arc::new(TestCounter::new(0));
        std::thread::scope(|scope| {
            for _ in 0..3 {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                scope.spawn(move || {
                    for _ in 0..10 {
                        let total = Arc::clone(&total);
                        pool.run_batch(
                            2,
                            16,
                            Box::new(move |_, _| {
                                total.fetch_add(1, Ordering::Relaxed);
                            }),
                        )
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 3 * 10 * 16);
        assert_eq!(pool.threads_spawned(), 4);
    }
}
