//! Runtime counters and the per-operator execution trace.
//!
//! The executor is shared by reference across the morsel workers of the parallel
//! engine, so its live counters are lock-free atomics ([`AtomicExecStats`]); callers
//! read them through the plain [`ExecStats`] snapshot the engine has always exposed.
//! The [`ExecTrace`] mirrors the optimizer's per-pass instrumentation on the execution
//! side: one [`OperatorTrace`] per morsel-driven operator, recording how many morsels
//! were dispatched, how the rows spread across workers, and the operator's wall clock.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use decorr_algebra::RelExpr;
use decorr_udf::UdfRuntime;

/// Runtime counters, useful for tests, EXPLAIN ANALYZE-style reporting and the
/// experiment harness (e.g. the number of UDF invocations actually performed).
///
/// This is the *snapshot* form; the executor's live counters are the atomic
/// [`AtomicExecStats`], which morsel workers update without taking a lock.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ExecStats {
    pub rows_scanned: u64,
    pub index_lookups: u64,
    pub udf_invocations: u64,
    pub subqueries_executed: u64,
    pub hash_joins: u64,
    /// Joins that probed the right table's hash index once per left row.
    pub index_joins: u64,
    pub nested_loop_joins: u64,
    /// Morsels of fanned-out operators (0 for a fully serial execution).
    pub morsels_dispatched: u64,
    /// Operators that took the parallel path.
    pub parallel_operators: u64,
    /// Plan operators of the filter/project chains that fanned out: each
    /// chain's stages plus the base access it streams from (0 for chains run inline).
    pub pipelined_operators: u64,
    /// Pure-UDF calls answered by the database-owned memo cache (results reused
    /// across queries). `udf_invocations` counts only *evaluated* calls.
    pub udf_memo_hits: u64,
    /// Pure-UDF calls answered by the per-query dedup cache (repeated argument
    /// tuples within one execution).
    pub udf_dedup_hits: u64,
}

/// Lock-free live counters. Every counter is monotonically increasing and additions
/// commute, so `Ordering::Relaxed` is sufficient: a snapshot taken after `execute`
/// returns observes every update (the thread joins in `std::thread::scope` synchronize).
#[derive(Debug, Default)]
pub struct AtomicExecStats {
    pub rows_scanned: AtomicU64,
    pub index_lookups: AtomicU64,
    pub udf_invocations: AtomicU64,
    pub subqueries_executed: AtomicU64,
    pub hash_joins: AtomicU64,
    pub index_joins: AtomicU64,
    pub nested_loop_joins: AtomicU64,
    pub morsels_dispatched: AtomicU64,
    pub parallel_operators: AtomicU64,
    pub pipelined_operators: AtomicU64,
    pub udf_memo_hits: AtomicU64,
    pub udf_dedup_hits: AtomicU64,
}

impl AtomicExecStats {
    pub fn add_rows_scanned(&self, n: u64) {
        self.rows_scanned.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_index_lookups(&self, n: u64) {
        self.index_lookups.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_udf_invocations(&self, n: u64) {
        self.udf_invocations.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_subqueries_executed(&self, n: u64) {
        self.subqueries_executed.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_hash_joins(&self, n: u64) {
        self.hash_joins.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_index_joins(&self, n: u64) {
        self.index_joins.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_nested_loop_joins(&self, n: u64) {
        self.nested_loop_joins.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_morsels_dispatched(&self, n: u64) {
        self.morsels_dispatched.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_parallel_operators(&self, n: u64) {
        self.parallel_operators.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_pipelined_operators(&self, n: u64) {
        self.pipelined_operators.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_udf_memo_hits(&self, n: u64) {
        self.udf_memo_hits.fetch_add(n, Ordering::Relaxed);
    }

    pub fn add_udf_dedup_hits(&self, n: u64) {
        self.udf_dedup_hits.fetch_add(n, Ordering::Relaxed);
    }

    /// A plain snapshot of the counters.
    pub fn snapshot(&self) -> ExecStats {
        ExecStats {
            rows_scanned: self.rows_scanned.load(Ordering::Relaxed),
            index_lookups: self.index_lookups.load(Ordering::Relaxed),
            udf_invocations: self.udf_invocations.load(Ordering::Relaxed),
            subqueries_executed: self.subqueries_executed.load(Ordering::Relaxed),
            hash_joins: self.hash_joins.load(Ordering::Relaxed),
            index_joins: self.index_joins.load(Ordering::Relaxed),
            nested_loop_joins: self.nested_loop_joins.load(Ordering::Relaxed),
            morsels_dispatched: self.morsels_dispatched.load(Ordering::Relaxed),
            parallel_operators: self.parallel_operators.load(Ordering::Relaxed),
            pipelined_operators: self.pipelined_operators.load(Ordering::Relaxed),
            udf_memo_hits: self.udf_memo_hits.load(Ordering::Relaxed),
            udf_dedup_hits: self.udf_dedup_hits.load(Ordering::Relaxed),
        }
    }
}

/// What one morsel-driven operator did: dispatched morsels, the per-worker row spread,
/// and the operator's elapsed wall clock. Operators that run inline on the calling
/// thread record nothing.
#[derive(Debug, Clone)]
pub struct OperatorTrace {
    /// Operator name plus the parallel stage ("scan(orders)", "hash-join probe", …).
    pub operator: String,
    /// Morsels the operator was split into.
    pub morsels: usize,
    /// Scoped helper threads that ran the operator.
    pub workers: usize,
    /// Input rows each worker processed (index = worker id). The spread shows how well
    /// the morsel queue balanced the operator.
    pub rows_per_worker: Vec<u64>,
    /// Wall-clock time of the parallel section (dispatch → last task finished).
    pub duration: Duration,
    /// Plan operators fused into this dispatch (0 = a single-operator dispatch; n ≥ 2
    /// = a pipelined chain, e.g. scan→filter→project, executed in one pass per morsel).
    pub pipelined_stages: usize,
    /// Input rows this dispatch consumed (the sum of `rows_per_worker`).
    pub rows_in: u64,
    /// Output rows (or build entries / groups, for non-row-producing stages) this
    /// dispatch produced — the actual-cardinality side of estimate-vs-actual
    /// reporting.
    pub rows_out: u64,
}

/// The executor-side counterpart of the optimizer's `PipelineReport`: one entry per
/// morsel-driven operator, in completion order.
#[derive(Debug, Clone, Default)]
pub struct ExecTrace {
    pub operators: Vec<OperatorTrace>,
}

impl ExecTrace {
    pub fn is_empty(&self) -> bool {
        self.operators.is_empty()
    }

    /// Renders the per-operator table (the execution analogue of
    /// `PipelineReport::render`).
    pub fn render(&self) -> String {
        if self.operators.is_empty() {
            return "no parallel operators (serial execution)\n".to_string();
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:<36} {:>8} {:>8} {:>6} {:>9} {:>9} {:>12}  rows/worker\n",
            "operator", "morsels", "workers", "fused", "rows-in", "rows-out", "time"
        ));
        for op in &self.operators {
            let spread: Vec<String> = op.rows_per_worker.iter().map(u64::to_string).collect();
            out.push_str(&format!(
                "{:<36} {:>8} {:>8} {:>6} {:>9} {:>9} {:>9.3} ms  [{}]\n",
                op.operator,
                op.morsels,
                op.workers,
                op.pipelined_stages,
                op.rows_in,
                op.rows_out,
                op.duration.as_secs_f64() * 1e3,
                spread.join(", "),
            ));
        }
        out
    }
}

/// Shared, locked trace collector. The lock is taken once per *operator* (not per row
/// or morsel): workers report their row counts back through the morsel driver, which
/// appends a single [`OperatorTrace`] after the scope joins.
#[derive(Debug, Default)]
pub struct TraceCollector {
    operators: Mutex<Vec<OperatorTrace>>,
}

impl TraceCollector {
    pub fn record(&self, trace: OperatorTrace) {
        self.operators
            .lock()
            .expect("trace collector poisoned")
            .push(trace);
    }

    pub fn snapshot(&self) -> ExecTrace {
        ExecTrace {
            operators: self
                .operators
                .lock()
                .expect("trace collector poisoned")
                .clone(),
        }
    }
}

// ------------------------------------------------------------- cardinality collection

/// Actual cardinality of one plan node across a query's execution: how many times the
/// node ran (correlated nodes run once per outer row) and how many rows it produced
/// in total. Keyed by the node's structural [`RelExpr::fingerprint`], which is also
/// what the optimizer's per-node estimates key on — joining the two yields the
/// per-operator q-errors shown by `EXPLAIN ANALYZE`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeCardinality {
    pub fingerprint: u64,
    /// Operator name (`Scan`, `Select`, `Join`, …).
    pub operator: String,
    /// Times this exact subtree was executed.
    pub executions: u64,
    /// Total rows produced across all executions.
    pub rows_out: u64,
}

impl NodeCardinality {
    /// Mean rows per execution — the number comparable against a one-shot estimate.
    pub fn mean_rows(&self) -> f64 {
        if self.executions == 0 {
            0.0
        } else {
            self.rows_out as f64 / self.executions as f64
        }
    }
}

/// Shared collector of per-node actual cardinalities. Only populated when
/// `ExecConfig::collect_cardinalities` is on (diagnostic paths: `EXPLAIN ANALYZE`,
/// accuracy tests) — each `record` pays a `Debug` rendering of the
/// subtree (the fingerprint) plus a mutex round-trip per node *execution*, so the
/// flag keeps that entirely off the hot path.
#[derive(Debug, Default)]
pub struct CardinalityCollector {
    nodes: Mutex<BTreeMap<u64, NodeCardinality>>,
}

impl CardinalityCollector {
    /// Records one execution of `plan` producing `rows_out` rows.
    pub fn record(&self, plan: &RelExpr, rows_out: u64) {
        let fingerprint = plan.fingerprint();
        let mut nodes = self.nodes.lock().expect("cardinality collector poisoned");
        let entry = nodes.entry(fingerprint).or_insert_with(|| NodeCardinality {
            fingerprint,
            operator: plan.name().to_string(),
            executions: 0,
            rows_out: 0,
        });
        entry.executions += 1;
        entry.rows_out += rows_out;
    }

    /// Everything recorded so far, in fingerprint order.
    pub fn snapshot(&self) -> Vec<NodeCardinality> {
        self.nodes
            .lock()
            .expect("cardinality collector poisoned")
            .values()
            .cloned()
            .collect()
    }
}

// --------------------------------------------------------------- UDF runtime records

/// Shared collector of the per-UDF runtime records: evaluations and their wall clock,
/// cache hits, and the outcomes of filter conjuncts the UDF leads. Always on: the lock
/// is taken once per UDF *invocation* (whose body executes whole queries) and once per
/// filter morsel, and the engine's feedback loop needs these numbers from normal runs,
/// not just diagnostic ones.
#[derive(Debug, Default)]
pub(crate) struct UdfRuntimeCollector {
    /// One record per UDF, sorted by name.
    records: Mutex<Vec<UdfRuntime>>,
}

impl UdfRuntimeCollector {
    /// Applies `f` to the record of `name`, creating it the first time the name is seen.
    pub(crate) fn update(&self, name: &str, f: impl FnOnce(&mut UdfRuntime)) {
        let mut records = self.records.lock().expect("udf runtime collector poisoned");
        let at = match records.binary_search_by(|r| r.name.as_str().cmp(name)) {
            Ok(at) => at,
            Err(at) => {
                records.insert(at, UdfRuntime::new(name));
                at
            }
        };
        f(&mut records[at]);
    }

    /// Every record so far, in name order.
    pub(crate) fn snapshot(&self) -> Vec<UdfRuntime> {
        self.records
            .lock()
            .expect("udf runtime collector poisoned")
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn atomic_stats_snapshot_round_trips() {
        let stats = AtomicExecStats::default();
        stats.add_rows_scanned(10);
        stats.add_rows_scanned(5);
        stats.add_udf_invocations(3);
        stats.add_morsels_dispatched(7);
        stats.add_parallel_operators(2);
        stats.add_pipelined_operators(3);
        let snap = stats.snapshot();
        assert_eq!(snap.rows_scanned, 15);
        assert_eq!(snap.udf_invocations, 3);
        assert_eq!(snap.morsels_dispatched, 7);
        assert_eq!(snap.parallel_operators, 2);
        assert_eq!(snap.pipelined_operators, 3);
        assert_eq!(snap.hash_joins, 0);
    }

    #[test]
    fn trace_renders_and_totals() {
        let collector = TraceCollector::default();
        assert!(collector.snapshot().is_empty());
        collector.record(OperatorTrace {
            operator: "scan(orders)".into(),
            morsels: 4,
            workers: 2,
            rows_per_worker: vec![3000, 1096],
            duration: Duration::from_micros(1500),
            pipelined_stages: 2,
            rows_in: 4096,
            rows_out: 4000,
        });
        let trace = collector.snapshot();
        let rendered = trace.render();
        assert!(rendered.contains("scan(orders)"));
        assert!(rendered.contains("[3000, 1096]"));
        assert!(rendered.contains("rows-out"));
        assert!(rendered.contains("4000"));
        let empty = ExecTrace::default().render();
        assert!(empty.contains("serial execution"));
    }

    #[test]
    fn cardinality_collector_accumulates_per_fingerprint() {
        let collector = CardinalityCollector::default();
        let scan = RelExpr::scan("orders");
        let other = RelExpr::scan("customer");
        collector.record(&scan, 100);
        collector.record(&scan, 100);
        collector.record(&other, 7);
        let snapshot = collector.snapshot();
        assert_eq!(snapshot.len(), 2);
        let orders = snapshot
            .iter()
            .find(|n| n.fingerprint == scan.fingerprint())
            .unwrap();
        assert_eq!(orders.executions, 2);
        assert_eq!(orders.rows_out, 200);
        assert_eq!(orders.mean_rows(), 100.0);
        assert_eq!(orders.operator, "Scan");
    }

    #[test]
    fn udf_runtime_collector_keeps_one_record_per_udf_in_name_order() {
        let collector = UdfRuntimeCollector::default();
        let evaluate = |r: &mut UdfRuntime, micros| {
            r.invocations += 1;
            r.total += Duration::from_micros(micros);
        };
        collector.update("g", |r| evaluate(r, 5));
        collector.update("f", |r| evaluate(r, 100));
        collector.update("f", |r| evaluate(r, 300));
        collector.update("f", |r| r.hits += 1);
        collector.update("f", |r| {
            r.predicate_evaluated += 150;
            r.predicate_passed += 15;
        });
        let snapshot = collector.snapshot();
        let names: Vec<&str> = snapshot.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, ["f", "g"]);
        let f = &snapshot[0];
        assert_eq!((f.invocations, f.hits), (2, 1), "hits are not invocations");
        assert_eq!(f.total, Duration::from_micros(400));
        assert_eq!((f.predicate_evaluated, f.predicate_passed), (150, 15));
    }
}
