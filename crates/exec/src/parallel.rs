//! The morsel driver: scoped fan-out of one operator's row ranges.
//!
//! An operator splits its input into fixed-size *morsels* (row ranges) and hands the
//! driver one job that maps a morsel to its output — the morsel-driven scheduling of
//! Leis et al., built on nothing but `std` (the workspace is dependency-free and
//! forbids `unsafe`). The driver has two routes, and the job is the operator's only
//! row loop on both:
//!
//! * **inline** — an input within one morsel (always, at `parallelism == 1`) runs as
//!   the single morsel `0..len` on the calling thread: no thread, no trace entry, no
//!   morsel counter;
//! * **fanned out** — up to `parallelism` helper threads spawned in a
//!   [`std::thread::scope`] pull task indexes from one atomic counter until it runs dry,
//!   while the calling thread waits in the scope. The scope joins before the driver
//!   returns, so a job *borrows* what the inline loop borrows — plan, schemas,
//!   expressions, the outer [`crate::Env`], the table's rows — and nothing is cloned or
//!   wrapped in an `Arc` to cross a thread.
//!
//! What outlives a dispatch is only the [`WorkerPool`]: the engine-wide budget of
//! helper threads that may be running at once, shared by every session's queries. A
//! dispatch leases what is free and never waits; with fewer than two free it runs inline.
//!
//! Determinism contract: threads may *process* morsels in any interleaving, but the
//! driver returns the per-task outputs **in task order**, so a fanned-out run
//! assembles byte-identical output to the inline run, and of several failing tasks the
//! one with the lowest index — the first failing row in input order — is reported.
//! Operators whose result depends on accumulation order (hash aggregation)
//! additionally partition by group-key hash so each group's accumulation chain stays in
//! global row order — see `Executor::execute_aggregate_parallel`.
//!
//! Panic safety: a task that panics is caught *per task* and becomes that task's
//! [`Error::Execution`], so the dispatch fails like any other erroring query, the
//! scope still joins, and the lease goes back to the pool.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Instant;

use decorr_common::{Error, Result};

use crate::executor::Executor;
use crate::stats::OperatorTrace;

/// What a morsel job returns: a piece of the operator's output that the driver counts
/// (for the trace's actual output cardinality) and joins to its neighbours.
pub trait MorselOutput: Send + Default {
    /// Rows — or build entries / groups / hash tables, for a stage that produces no
    /// rows — in this piece.
    fn output_rows(&self) -> u64;

    /// Appends the output of the next morsel in input order.
    fn append(&mut self, next: Self);
}

impl<X: Send> MorselOutput for Vec<X> {
    fn output_rows(&self) -> u64 {
        self.len() as u64
    }

    fn append(&mut self, mut next: Self) {
        Vec::append(self, &mut next);
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

/// Snapshot of a pool's counters (for diagnostics and EXPLAIN-style reporting).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerPoolStats {
    /// The budget: helper threads all dispatches together may have running.
    pub workers: usize,
    /// Helper threads leased to dispatches right now (0 on an idle engine).
    pub in_flight: usize,
    /// Dispatches that fanned out over the pool's lifetime.
    pub dispatches: u64,
}

/// The helper-thread budget every executor of one engine draws on.
///
/// There are no threads in here: a dispatch spawns its helpers in a scope of its own
/// and joins them before it returns. The pool only bounds how many such helpers run at
/// once across concurrent queries, so four sessions at `parallelism = 4` do not put
/// twelve extra threads on a two-core host.
///
/// The counters guard no data (results cross threads through the scope's join), so
/// `Relaxed` is enough for all of them.
#[derive(Debug, Default)]
pub struct WorkerPool {
    budget: AtomicUsize,
    in_flight: AtomicUsize,
    dispatches: AtomicU64,
}

impl WorkerPool {
    /// A pool with a budget of `workers` helper threads. `0` leaves the budget to the
    /// first dispatch that asks for more.
    pub fn new(workers: usize) -> WorkerPool {
        WorkerPool {
            budget: AtomicUsize::new(workers),
            ..WorkerPool::default()
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> WorkerPoolStats {
        WorkerPoolStats {
            workers: self.budget.load(Ordering::Relaxed),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            dispatches: self.dispatches.load(Ordering::Relaxed),
        }
    }

    /// Leases up to `want` helpers: whatever the budget has free, possibly none — a
    /// dispatch never waits for another's helpers. A request larger than the budget
    /// raises it (a session may override `parallelism` above the engine's).
    pub(crate) fn lease(&self, want: usize) -> HelperLease<'_> {
        let budget = self.budget.fetch_max(want, Ordering::Relaxed).max(want);
        let mut helpers = 0;
        let _ = self
            .in_flight
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |held| {
                helpers = want.min(budget.saturating_sub(held));
                Some(held + helpers)
            });
        HelperLease {
            pool: self,
            helpers,
        }
    }
}

/// Helpers leased from a [`WorkerPool`]; dropping the lease returns them.
pub(crate) struct HelperLease<'p> {
    pool: &'p WorkerPool,
    pub(crate) helpers: usize,
}

impl Drop for HelperLease<'_> {
    fn drop(&mut self) {
        self.pool
            .in_flight
            .fetch_sub(self.helpers, Ordering::Relaxed);
    }
}

/// One thread's contribution to a dispatch: its `(task index, task output)` pairs plus
/// the number of input rows it processed (for the trace's per-worker spread).
type WorkerOutput<T> = (Vec<(usize, Result<T>)>, u64);

impl Executor {
    /// True when an operator over `len` input rows may fan out: parallelism is enabled
    /// and the input spans more than one morsel. With `parallelism == 1` every operator
    /// runs inline on the calling thread.
    pub(crate) fn should_parallelize(&self, len: usize) -> bool {
        self.config.parallelism > 1 && len > self.config.morsel_size.max(1)
    }

    /// [`Executor::run_morsels`] over explicit task indexes instead of row ranges: runs
    /// `tasks` independent work items of an operator over `len` input rows and returns
    /// their outputs joined **in task order**. `task_rows` is a task's input-row weight
    /// for the trace's per-worker spread.
    ///
    /// Inline — `len` within one morsel, or fewer than two helpers free in the pool —
    /// every task runs on the calling thread through `self` and nothing is recorded.
    pub(crate) fn run_pool<T, F>(
        &self,
        operator: impl FnOnce() -> String,
        pipelined: usize,
        len: usize,
        tasks: usize,
        task_rows: impl Fn(usize) -> u64 + Sync,
        f: F,
    ) -> Result<T>
    where
        T: MorselOutput,
        F: Fn(&Executor, usize) -> Result<T> + Sync,
    {
        // The pool is consulted only by an operator big enough to fan out: an inline
        // operator (one runs per UDF invocation) must not touch an engine-wide counter.
        // A single helper would be the inline loop on a thread it first has to spawn.
        let lease = self
            .should_parallelize(len)
            .then(|| self.pool.lease(self.config.parallelism.min(tasks)))
            .filter(|lease| lease.helpers > 1);
        let Some(lease) = lease else {
            return join_in_order((0..tasks).map(|idx| f(self, idx)));
        };
        self.pool.dispatches.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let view = self.worker_view();
        let next = AtomicUsize::new(0);
        let drain = || -> WorkerOutput<T> {
            let (mut outputs, mut rows) = (vec![], 0);
            loop {
                let idx = next.fetch_add(1, Ordering::Relaxed);
                if idx >= tasks {
                    return (outputs, rows);
                }
                let result = catch_unwind(AssertUnwindSafe(|| f(&view, idx)))
                    .unwrap_or_else(|payload| Err(panic_error(payload.as_ref())));
                outputs.push((idx, result));
                rows += task_rows(idx);
            }
        };
        // The calling thread waits in the scope rather than draining too: a caller that
        // allocates beside its helpers measured 1.3–1.5x slower on allocation-heavy
        // operators than two helpers beside an idle caller (CHANGES.md, PR 22).
        let mut per_worker: Vec<WorkerOutput<T>> = std::thread::scope(|scope| {
            let helpers: Vec<_> = (0..lease.helpers)
                .filter_map(|_| std::thread::Builder::new().spawn_scoped(scope, drain).ok())
                .collect();
            helpers
                .into_iter()
                .map(|helper| helper.join().expect("tasks catch their own panics"))
                .collect()
        });
        // A helper the host refuses to spawn is a helper less, not a failed query; with
        // none at all the tasks are still there for the calling thread.
        if per_worker.is_empty() {
            per_worker.push(drain());
        }
        drop(lease);
        let duration = start.elapsed();
        let rows_per_worker: Vec<u64> = per_worker.iter().map(|(_, rows)| *rows).collect();
        // Task-order merge: outputs reassemble by task index whichever thread ran the
        // task, and errors surface deterministically (lowest task index wins).
        let mut by_task: Vec<Option<Result<T>>> = (0..tasks).map(|_| None).collect();
        for (idx, result) in per_worker.into_iter().flat_map(|(outputs, _)| outputs) {
            by_task[idx] = Some(result);
        }
        let by_task = by_task
            .into_iter()
            .map(|slot| slot.expect("every task index is produced exactly once"));
        self.stats.add_morsels_dispatched(tasks as u64);
        self.stats.add_parallel_operators(1);
        self.stats.add_pipelined_operators(pipelined as u64);
        let mut rows_out = 0;
        let joined = join_in_order(by_task.inspect(|result| {
            rows_out += result.as_ref().map_or(0, MorselOutput::output_rows);
        }));
        self.trace.record(OperatorTrace {
            operator: operator(),
            morsels: tasks,
            workers: rows_per_worker.len(),
            rows_in: rows_per_worker.iter().sum(),
            rows_per_worker,
            duration,
            pipelined_stages: pipelined,
            rows_out,
        });
        joined
    }

    /// Morsel-driven map: runs `f` once per morsel of `len` rows and returns the
    /// per-morsel outputs joined in morsel order. `f` receives the executor to evaluate
    /// through and the morsel's row range.
    ///
    /// An input within one morsel (always, at `parallelism == 1`) is the single morsel
    /// `0..len`: `f(self, 0..len)` on the calling thread, nothing recorded. A larger
    /// one is drained by the helpers the executor can lease from its pool, all
    /// evaluating through a serial view of this executor (same catalog, registry and
    /// counters, `parallelism = 1`) so plan execution nested inside a morsel never fans
    /// out again, and records an [`OperatorTrace`] under `operator`'s label; `pipelined`
    /// is the number of plan operators fused into the dispatch (0 for a single one).
    ///
    /// `ExecConfig::morsel_size` is the *floor*: large inputs use proportionally larger
    /// morsels so the counter never holds more than a few tasks per thread (per-morsel
    /// dispatch overhead stays bounded), while still leaving enough tasks to balance
    /// skew. The split depends only on `len` and the configuration — never on
    /// scheduling — so the morsel-order merge stays deterministic.
    pub fn run_morsels<T, F>(
        &self,
        operator: impl FnOnce() -> String,
        pipelined: usize,
        len: usize,
        f: F,
    ) -> Result<T>
    where
        T: MorselOutput,
        F: Fn(&Executor, Range<usize>) -> Result<T> + Sync,
    {
        if !self.should_parallelize(len) {
            return f(self, 0..len);
        }
        let tasks_per_worker = 4;
        let effective = self
            .config
            .morsel_size
            .max(len.div_ceil(self.config.parallelism * tasks_per_worker));
        let ranges = morsel_ranges(len, effective);
        self.run_pool(
            operator,
            pipelined,
            len,
            ranges.len(),
            |idx| ranges[idx].len() as u64,
            |view, idx| f(view, ranges[idx].clone()),
        )
    }
}

/// Joins task outputs, given in task order, into one; the first error ends it.
fn join_in_order<T: MorselOutput>(mut outputs: impl Iterator<Item = Result<T>>) -> Result<T> {
    let mut joined = outputs.next().transpose()?.unwrap_or_default();
    for output in outputs {
        joined.append(output?);
    }
    Ok(joined)
}

/// A fixed trace label, in the lazy form the driver takes: only a dispatch that fans
/// out builds its label.
pub(crate) fn label(operator: &'static str) -> impl FnOnce() -> String {
    move || operator.to_string()
}

/// The error a panicking task is reported as.
fn panic_error(payload: &(dyn std::any::Any + Send)) -> Error {
    let message = payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("worker panicked");
    Error::Execution(format!("morsel worker panicked: {message}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

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
    fn leases_take_what_is_free_and_return_it() {
        let pool = WorkerPool::new(4);
        let first = pool.lease(3);
        let second = pool.lease(3);
        let third = pool.lease(3);
        assert_eq!((first.helpers, second.helpers, third.helpers), (3, 1, 0));
        assert_eq!(pool.stats().in_flight, 4);
        drop(first);
        assert_eq!(pool.stats().in_flight, 1);
        assert_eq!(
            pool.lease(5).helpers,
            4,
            "a larger request raises the budget"
        );
        assert_eq!(pool.stats().workers, 5);
        drop((second, third));
        assert_eq!(pool.stats().in_flight, 0);
        // An empty pool takes its budget from the first request.
        let lazy = WorkerPool::default();
        assert_eq!(lazy.lease(2).helpers, 2);
        assert_eq!(lazy.stats().workers, 2);
    }

    fn executor(parallelism: usize, pool: &Arc<WorkerPool>) -> Executor {
        Executor::with_config(
            Arc::new(decorr_storage::Catalog::new()),
            Arc::new(decorr_udf::FunctionRegistry::new()),
            crate::ExecConfig {
                parallelism,
                morsel_size: 1,
                ..crate::ExecConfig::default()
            },
        )
        .with_worker_pool(Arc::clone(pool))
    }

    #[test]
    fn a_panicking_task_fails_its_dispatch_and_nothing_else() {
        let pool = Arc::new(WorkerPool::new(1));
        let executor = executor(2, &pool);
        let err = executor
            .run_pool(
                label("panicky"),
                0,
                6,
                6,
                |_| 1,
                |_, idx| {
                    if idx == 2 {
                        panic!("boom at {idx}");
                    }
                    Ok(vec![idx])
                },
            )
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            Error::Execution("morsel worker panicked: boom at 2".into()).to_string()
        );
        assert_eq!(pool.stats().in_flight, 0, "the lease came back");
        // The next dispatch on the same executor runs normally.
        let out = executor
            .run_pool(label("ok"), 0, 6, 6, |_| 1, |_, idx| Ok(vec![idx * 10]))
            .unwrap();
        assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
        assert_eq!(pool.stats().dispatches, 2);
        assert_eq!(executor.stats_snapshot().parallel_operators, 2);
    }

    #[test]
    fn the_lowest_failing_task_is_the_one_reported() {
        let pool = Arc::new(WorkerPool::new(3));
        let fail = |idx: usize| -> Result<Vec<usize>> {
            Err(Error::Execution(format!("task {idx} failed")))
        };
        for parallelism in [1, 2, 4] {
            let err = executor(parallelism, &pool)
                .run_pool(
                    label("failing"),
                    0,
                    8,
                    8,
                    |_| 1,
                    |_, idx| match idx {
                        3 => fail(idx),
                        5 => panic!("task 5 panicked"),
                        _ => Ok(vec![idx]),
                    },
                )
                .unwrap_err();
            assert!(err.to_string().contains("task 3 failed"), "{err}");
        }
    }

    fn rows(range: Range<usize>) -> Vec<usize> {
        range.collect()
    }

    #[test]
    fn a_dispatch_that_finds_the_budget_held_runs_inline() {
        let pool = Arc::new(WorkerPool::new(3));
        let held = pool.lease(2);
        let executor = executor(3, &pool);
        let out = executor
            .run_morsels(label("squeezed"), 0, 10, |_, range| Ok(rows(range)))
            .unwrap();
        assert_eq!(out, rows(0..10));
        let stats = executor.stats_snapshot();
        assert_eq!((stats.parallel_operators, stats.morsels_dispatched), (0, 0));
        assert!(executor.trace_snapshot().is_empty());
        drop(held);
        assert_eq!(pool.stats().in_flight, 0);
        // With the budget free the same call fans out, to the same output.
        let fanned = executor
            .run_morsels(label("free"), 0, 10, |_, range| Ok(rows(range)))
            .unwrap();
        assert_eq!(fanned, rows(0..10));
        assert_eq!(executor.stats_snapshot().parallel_operators, 1);
        assert_eq!(executor.trace_snapshot().operators[0].workers, 3);
    }

    #[test]
    fn concurrent_dispatches_share_one_budget() {
        let pool = Arc::new(WorkerPool::new(3));
        let total = AtomicU64::new(0);
        let peak = AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    let executor = executor(3, &pool);
                    for _ in 0..10 {
                        executor
                            .run_pool(
                                label("shared"),
                                0,
                                16,
                                16,
                                |_| 1,
                                |_, idx| {
                                    peak.fetch_max(pool.stats().in_flight, Ordering::Relaxed);
                                    total.fetch_add(1, Ordering::Relaxed);
                                    Ok(vec![idx])
                                },
                            )
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 3 * 10 * 16);
        assert!(peak.load(Ordering::Relaxed) <= 3, "never over the budget");
        assert_eq!(pool.stats().in_flight, 0);
    }
}
