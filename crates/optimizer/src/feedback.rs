//! Runtime feedback: measured cardinalities and UDF invocation costs folded back into
//! the cost model.
//!
//! After each query the engine records two kinds of ground truth here:
//!
//! * **cardinality feedback** — the executed plan's estimated root cardinality vs the
//!   actual row count, per plan fingerprint, summarized as a [`q_error`];
//! * **UDF feedback** — the runtime record ([`UdfRuntime`]) of every UDF the query
//!   executed iteratively: evaluations and their wall clock, cache hits and filter
//!   outcomes, summed per UDF and compared with the static body-cost estimate.
//!
//! The strategy-choice pass consults the learned UDF costs (converted to row-op units
//! through `cost::ROW_OP_SECONDS`) *instead of* the static estimate, so the
//! iterative-vs-decorrelated decision is made with measured numbers once a workload
//! has run. When the recorded q-error of a fingerprint first exceeds the threshold
//! (4), the store flags it for plan-cache invalidation and bumps its
//! [`generation`](FeedbackStore::generation) — the plan cache folds that generation
//! into its key for cost-based pipelines, so *every* stale cost-based entry is
//! re-decided with the calibrated numbers, while pipelines that ignore the cost model
//! (forced iterative/decorrelated) keep their entries.
//!
//! [`q_error`]: decorr_storage::stats::q_error

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Duration;

use decorr_common::normalize_ident;
use decorr_storage::stats::q_error;
use decorr_udf::{LearnedUdf, UdfRuntime};

use crate::cost::ROW_OP_SECONDS;

/// A fingerprint whose recorded q-error (cardinality or UDF cost) exceeds this is
/// flagged: its plan-cache entries are invalidated and the store generation moves so
/// cost-based decisions re-run with the learned numbers.
const Q_ERROR_THRESHOLD: f64 = 4.0;
/// Observations a learned UDF number needs before it is trusted: evaluations for a
/// cost, calls for a dedup fraction, evaluated rows for a pass rate (guards against
/// one-off noise on nearly-free functions).
const MIN_UDF_INVOCATIONS: u64 = 8;
/// Measured wall-clock a UDF's cost needs before it is trusted.
const MIN_UDF_TOTAL: Duration = Duration::from_millis(1);

/// Recorded estimate-vs-actual state of one query fingerprint.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryFeedback {
    pub fingerprint: u64,
    /// Most recent estimated root cardinality.
    pub estimated_rows: f64,
    /// Most recent actual root row count.
    pub actual_rows: u64,
    /// q-error of the most recent execution (cardinality only).
    pub q_error: f64,
    /// Worst q-error ever recorded for this fingerprint (cardinality or UDF cost).
    pub max_q_error: f64,
    pub executions: u64,
    /// True once this fingerprint triggered a plan-cache invalidation; further
    /// executions with the same feedback state must not thrash the cache.
    pub invalidated: bool,
}

/// Counters for reporting (EXPLAIN ANALYZE, benches, tests).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FeedbackStats {
    pub queries_recorded: u64,
    pub udfs_tracked: usize,
    pub invalidations_flagged: u64,
    pub generation: u64,
}

/// Everything the store knows about one UDF: its runtime records summed, the static
/// estimate they are compared with, and whether each learned number has already moved
/// the generation. A snapshot persists exactly this, trust flags included, so a
/// restored store neither re-bumps its generation for a flagged UDF nor forgets a flag.
#[derive(Debug, Clone, PartialEq)]
pub struct UdfFeedback {
    /// Counters summed over every recorded query, under the normalized UDF name.
    pub runtime: UdfRuntime,
    /// Static per-invocation estimate (row-op units) last reported with an evaluation.
    pub static_units: f64,
    /// Whether the learned cost already contributed a generation bump.
    pub cost_flagged: bool,
    /// Whether the learned dedup fraction already contributed a generation bump.
    pub dedup_flagged: bool,
}

impl UdfFeedback {
    fn new(name: &str) -> UdfFeedback {
        UdfFeedback {
            runtime: UdfRuntime::new(name),
            static_units: 0.0,
            cost_flagged: false,
            dedup_flagged: false,
        }
    }

    /// What this entry teaches: the cost, dedup fraction and pass rate once past their
    /// trust floors, and the mean cost as soon as one evaluation was measured (a rough
    /// early number already orders predicates better than none).
    fn learned(&self) -> LearnedUdf {
        let r = &self.runtime;
        let calls = r.invocations + r.hits;
        let mean_seconds =
            (r.invocations > 0).then(|| r.total.as_secs_f64() / r.invocations as f64);
        let cost_trusted = r.invocations >= MIN_UDF_INVOCATIONS && r.total >= MIN_UDF_TOTAL;
        LearnedUdf {
            units: mean_seconds
                .filter(|_| cost_trusted)
                .map(|seconds| (seconds / ROW_OP_SECONDS).max(1.0)),
            dedup_fraction: (calls >= MIN_UDF_INVOCATIONS)
                .then(|| r.invocations as f64 / calls as f64),
            mean_seconds,
            pass_rate: (r.predicate_evaluated >= MIN_UDF_INVOCATIONS)
                .then(|| r.predicate_passed as f64 / r.predicate_evaluated as f64),
        }
    }
}

/// The concurrency-safe feedback store, owned by the engine (one per database) and
/// consulted by the strategy-choice pass through the [`PassManager`].
///
/// [`PassManager`]: crate::pass::PassManager
#[derive(Debug)]
pub struct FeedbackStore {
    queries: RwLock<HashMap<u64, QueryFeedback>>,
    udfs: RwLock<BTreeMap<String, UdfFeedback>>,
    /// Bumped whenever learned state changes in a way that can change a cost-based
    /// decision. Starts at 1 — the plan cache uses the generation only for
    /// feedback-sensitive pipelines.
    generation: AtomicU64,
    queries_recorded: AtomicU64,
    invalidations_flagged: AtomicU64,
}

impl Default for FeedbackStore {
    fn default() -> Self {
        FeedbackStore::new()
    }
}

impl FeedbackStore {
    pub fn new() -> FeedbackStore {
        FeedbackStore {
            queries: RwLock::new(HashMap::new()),
            udfs: RwLock::new(BTreeMap::new()),
            generation: AtomicU64::new(1),
            queries_recorded: AtomicU64::new(0),
            invalidations_flagged: AtomicU64::new(0),
        }
    }

    /// Current feedback generation (part of the plan-cache key for cost-based
    /// pipelines).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Relaxed)
    }

    /// Records one executed query's estimated vs actual root cardinality. Returns the
    /// cardinality q-error of this execution.
    pub fn record_query(&self, fingerprint: u64, estimated_rows: f64, actual_rows: u64) -> f64 {
        let q = q_error(estimated_rows, actual_rows as f64);
        let mut queries = self.queries.write().expect("feedback store poisoned");
        let entry = queries.entry(fingerprint).or_insert(QueryFeedback {
            fingerprint,
            estimated_rows,
            actual_rows,
            q_error: q,
            max_q_error: q,
            executions: 0,
            invalidated: false,
        });
        entry.estimated_rows = estimated_rows;
        entry.actual_rows = actual_rows;
        entry.q_error = q;
        entry.max_q_error = entry.max_q_error.max(q);
        entry.executions += 1;
        self.queries_recorded.fetch_add(1, Ordering::Relaxed);
        q
    }

    /// Folds one query's runtime record of a UDF into the UDF's entry, together with
    /// the static per-invocation estimate the cost model would use, and returns the cost
    /// q-error (1.0 while below the trust floors).
    ///
    /// The store generation is bumped — cost-based plan-cache entries decided with the
    /// old numbers become unreachable and are re-decided on their next lookup — the
    /// first time a trusted learned cost crosses the q-error threshold, and the first
    /// time a trusted dedup fraction falls below 0.5 (the caches answer at least half
    /// the calls, so effective invocation counts matter).
    pub fn record_udf(&self, runtime: &UdfRuntime, static_units: Option<f64>) -> f64 {
        let calls = runtime.invocations + runtime.hits;
        if calls + runtime.predicate_evaluated == 0 {
            return 1.0;
        }
        let mut udfs = self.udfs.write().expect("feedback store poisoned");
        let entry = udfs
            .entry(normalize_ident(&runtime.name))
            .or_insert_with_key(|name| UdfFeedback::new(name));
        let sum = &mut entry.runtime;
        sum.invocations += runtime.invocations;
        sum.total += runtime.total;
        sum.hits += runtime.hits;
        sum.predicate_evaluated += runtime.predicate_evaluated;
        sum.predicate_passed += runtime.predicate_passed.min(runtime.predicate_evaluated);
        let learned = entry.learned();
        let mut q = 1.0;
        if runtime.invocations > 0 {
            if let Some(static_units) = static_units {
                entry.static_units = static_units;
            }
            if let (Some(units), true) = (learned.units, entry.static_units > 0.0) {
                q = q_error(entry.static_units, units);
                if q > Q_ERROR_THRESHOLD && !entry.cost_flagged {
                    entry.cost_flagged = true;
                    self.generation.fetch_add(1, Ordering::Relaxed);
                }
            }
        }
        if calls > 0 && !entry.dedup_flagged && learned.dedup_fraction.is_some_and(|f| f < 0.5) {
            entry.dedup_flagged = true;
            self.generation.fetch_add(1, Ordering::Relaxed);
        }
        q
    }

    /// What the store has learned about every UDF it tracks, keyed by normalized name:
    /// the one read both consumers share. The cost model takes `units` and
    /// `dedup_fraction`, the executor's filter ordering `mean_seconds` and `pass_rate`.
    pub fn learned(&self) -> BTreeMap<String, LearnedUdf> {
        let udfs = self.udfs.read().expect("feedback store poisoned");
        udfs.iter()
            .map(|(name, entry)| (name.clone(), entry.learned()))
            .collect()
    }

    /// Marks a query fingerprint whose observed q-error exceeded the threshold for
    /// plan-cache invalidation. Returns true exactly once per fingerprint — callers
    /// invalidate on true, so a persistently misestimated shape cannot thrash the
    /// cache by invalidating itself on every execution.
    ///
    /// Flagging does *not* move the store generation: the generation tracks changes
    /// to the learned state (see [`record_udf`](Self::record_udf)),
    /// while a flag only evicts the flagged shape's own cost-based entry so its next
    /// optimize re-reads whatever has been learned.
    pub fn flag_for_invalidation(&self, fingerprint: u64, observed_q_error: f64) -> bool {
        if observed_q_error <= Q_ERROR_THRESHOLD {
            return false;
        }
        let mut queries = self.queries.write().expect("feedback store poisoned");
        let entry = queries.entry(fingerprint).or_insert(QueryFeedback {
            fingerprint,
            estimated_rows: 0.0,
            actual_rows: 0,
            q_error: observed_q_error,
            max_q_error: observed_q_error,
            executions: 0,
            invalidated: false,
        });
        entry.max_q_error = entry.max_q_error.max(observed_q_error);
        if entry.invalidated {
            return false;
        }
        entry.invalidated = true;
        self.invalidations_flagged.fetch_add(1, Ordering::Relaxed);
        true
    }

    /// Recorded state of one query fingerprint.
    pub fn query_feedback(&self, fingerprint: u64) -> Option<QueryFeedback> {
        self.queries
            .read()
            .expect("feedback store poisoned")
            .get(&fingerprint)
            .cloned()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> FeedbackStats {
        FeedbackStats {
            queries_recorded: self.queries_recorded.load(Ordering::Relaxed),
            udfs_tracked: self.udfs.read().expect("feedback store poisoned").len(),
            invalidations_flagged: self.invalidations_flagged.load(Ordering::Relaxed),
            generation: self.generation(),
        }
    }
}

/// The full serializable state of a [`FeedbackStore`] — what a snapshot persists so
/// learned UDF costs, dedup fractions and predicate selectivities (and the strategy
/// flips they cause) survive a restart without re-execution.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FeedbackState {
    /// Store generation at export time (≥ 1 for any live store).
    pub generation: u64,
    /// Lifetime count of recorded query executions.
    pub queries_recorded: u64,
    /// Lifetime count of plan-cache invalidation flags.
    pub invalidations_flagged: u64,
    /// Per-fingerprint cardinality feedback, sorted by fingerprint for a
    /// deterministic encoding.
    pub queries: Vec<QueryFeedback>,
    /// Per-UDF entries, sorted by name.
    pub udfs: Vec<UdfFeedback>,
}

impl FeedbackStore {
    /// Exports the store's complete learned state in deterministic order.
    pub fn export_state(&self) -> FeedbackState {
        let queries_map = self.queries.read().expect("feedback store poisoned");
        let mut queries: Vec<QueryFeedback> = queries_map.values().cloned().collect();
        queries.sort_by_key(|q| q.fingerprint);
        drop(queries_map);
        let udfs = self.udfs.read().expect("feedback store poisoned");
        let udfs = udfs.values().cloned().collect();
        FeedbackState {
            generation: self.generation(),
            queries_recorded: self.queries_recorded.load(Ordering::Relaxed),
            invalidations_flagged: self.invalidations_flagged.load(Ordering::Relaxed),
            queries,
            udfs,
        }
    }

    /// Replaces the store's learned state wholesale (the snapshot-restore path).
    /// The imported generation is clamped to ≥ 1, the floor every live store starts
    /// at, so plan-cache keys derived from it stay well-formed.
    pub fn import_state(&self, state: FeedbackState) {
        let mut queries = self.queries.write().expect("feedback store poisoned");
        queries.clear();
        for q in state.queries {
            queries.insert(q.fingerprint, q);
        }
        drop(queries);
        let mut udfs = self.udfs.write().expect("feedback store poisoned");
        udfs.clear();
        for mut entry in state.udfs {
            entry.runtime.name = normalize_ident(&entry.runtime.name);
            udfs.insert(entry.runtime.name.clone(), entry);
        }
        drop(udfs);
        self.generation
            .store(state.generation.max(1), Ordering::Relaxed);
        self.queries_recorded
            .store(state.queries_recorded, Ordering::Relaxed);
        self.invalidations_flagged
            .store(state.invalidations_flagged, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A runtime record of `invocations` evaluations taking `total` together.
    fn evaluated(name: &str, invocations: u64, total: Duration) -> UdfRuntime {
        UdfRuntime {
            invocations,
            total,
            ..UdfRuntime::new(name)
        }
    }

    fn learned(store: &FeedbackStore, name: &str) -> LearnedUdf {
        store.learned()[name]
    }

    #[test]
    fn query_feedback_accumulates_and_reports_q_errors() {
        let store = FeedbackStore::new();
        assert_eq!(store.generation(), 1);
        let q = store.record_query(42, 1000.0, 10);
        assert_eq!(q, 100.0);
        let state = store.query_feedback(42).unwrap();
        assert_eq!(state.actual_rows, 10);
        assert_eq!(state.executions, 1);
        assert!(!state.invalidated);
        // A later, accurate execution keeps the historical max.
        store.record_query(42, 12.0, 10);
        let state = store.query_feedback(42).unwrap();
        assert_eq!(state.max_q_error, 100.0);
        assert!(state.q_error < 2.0);
        assert_eq!(store.stats().queries_recorded, 2);
    }

    #[test]
    fn invalidation_flags_fire_exactly_once() {
        let store = FeedbackStore::new();
        store.record_query(7, 500.0, 5);
        assert!(!store.flag_for_invalidation(7, 2.0), "below threshold");
        assert!(store.flag_for_invalidation(7, 100.0));
        assert_eq!(
            store.generation(),
            1,
            "flags evict one shape; only learned-state changes move the generation"
        );
        assert!(
            !store.flag_for_invalidation(7, 100.0),
            "same state must not re-flag"
        );
        assert_eq!(store.stats().invalidations_flagged, 1);
    }

    #[test]
    fn udf_costs_are_learned_once_past_the_trust_floors() {
        let store = FeedbackStore::new();
        // Below both floors: not trusted, no cost.
        store.record_udf(&evaluated("cheap", 2, Duration::from_micros(10)), Some(5.0));
        assert_eq!(learned(&store, "cheap").units, None);
        // Past the floors: 10 ms over 10 invocations → 1 ms ≈ 2857 units vs 5 static.
        let expensive = evaluated("Expensive", 10, Duration::from_millis(10));
        let q = store.record_udf(&expensive, Some(5.0));
        assert!(q > 100.0, "cost q-error {q}");
        let units = learned(&store, "expensive")
            .units
            .expect("names are normalized");
        assert!(
            (units - 1e-3 / ROW_OP_SECONDS).abs() < 1.0,
            "learned {units}"
        );
        assert!(store.generation() > 1, "mispriced UDF bumps the generation");
        let generation = store.generation();
        // More of the same measurements do not keep bumping.
        store.record_udf(&expensive, Some(5.0));
        assert_eq!(store.generation(), generation);
    }

    #[test]
    fn dedup_feedback_learns_effective_fractions_and_bumps_once() {
        let store = FeedbackStore::new();
        let calls = |evaluations, hits| UdfRuntime {
            hits,
            ..evaluated("f", evaluations, Duration::from_millis(evaluations))
        };
        // 4 evaluated + 2 hits: below the trust floor, nothing learned.
        store.record_udf(&calls(4, 2), Some(1000.0));
        assert_eq!(learned(&store, "f").dedup_fraction, None);
        let before = store.generation();
        // 4 more evaluated + 12 hits: 8 evaluated of 22 calls ≈ 0.36 < 0.5 → one bump.
        store.record_udf(
            &UdfRuntime {
                name: "F".into(),
                ..calls(4, 12)
            },
            Some(1000.0),
        );
        let fraction = learned(&store, "f").dedup_fraction.unwrap();
        assert!((fraction - 8.0 / 22.0).abs() < 1e-9, "{fraction}");
        assert_eq!(store.generation(), before + 1);
        // Further hits refine the fraction without re-bumping.
        store.record_udf(&calls(0, 10), None);
        assert_eq!(store.generation(), before + 1);
        assert!(fraction > learned(&store, "f").dedup_fraction.unwrap());
    }

    #[test]
    fn predicate_feedback_reports_trusted_pass_rates() {
        let store = FeedbackStore::new();
        let outcomes = |name: &str, evaluated, passed| UdfRuntime {
            predicate_evaluated: evaluated,
            predicate_passed: passed,
            ..UdfRuntime::new(name)
        };
        store.record_udf(&outcomes("p", 4, 1), None);
        assert_eq!(
            learned(&store, "p").pass_rate,
            None,
            "below the trust floor"
        );
        store.record_udf(&outcomes("P", 12, 3), None);
        assert_eq!(learned(&store, "p").pass_rate, Some(0.25));
        // An empty record is a no-op; passed is clamped to evaluated.
        store.record_udf(&outcomes("q", 0, 99), None);
        store.record_udf(&outcomes("p", 4, 99), None);
        assert_eq!(store.stats().udfs_tracked, 1);
        assert_eq!(learned(&store, "p").pass_rate, Some(0.4));
    }

    #[test]
    fn mean_seconds_require_no_trust_floor() {
        let store = FeedbackStore::new();
        store.record_udf(&evaluated("g", 2, Duration::from_millis(8)), None);
        let g = learned(&store, "g");
        assert!((g.mean_seconds.unwrap() - 4e-3).abs() < 1e-9);
        assert_eq!(g.pass_rate, None, "no predicate outcome was recorded");
        assert_eq!(g.units, None, "two evaluations are below the cost floor");
    }

    #[test]
    fn exported_state_round_trips_into_a_fresh_store() {
        let store = FeedbackStore::new();
        store.record_query(42, 1000.0, 10);
        store.record_query(7, 10.0, 9);
        assert!(store.flag_for_invalidation(42, 100.0));
        let expensive = evaluated("expensive", 10, Duration::from_millis(10));
        store.record_udf(&expensive, Some(5.0));
        store.record_udf(
            &UdfRuntime {
                hits: 90,
                predicate_evaluated: 100,
                predicate_passed: 25,
                ..UdfRuntime::new("expensive")
            },
            None,
        );
        let state = store.export_state();
        assert!(state.generation > 1);
        assert_eq!(state.queries.len(), 2);
        assert_eq!(
            state.queries[0].fingerprint, 7,
            "queries export sorted by fingerprint"
        );

        let restored = FeedbackStore::new();
        restored.import_state(state.clone());
        assert_eq!(restored.generation(), store.generation());
        assert_eq!(restored.stats(), store.stats());
        assert_eq!(
            restored.learned(),
            store.learned(),
            "learned numbers survive without re-execution"
        );
        assert_eq!(restored.query_feedback(42), store.query_feedback(42));
        // Export is deterministic: re-exporting unchanged state is identical.
        assert_eq!(restored.export_state(), state);
        // Trust flags survive: re-recording the same mispriced measurements must not
        // re-bump the restored generation.
        let generation = restored.generation();
        restored.record_udf(&expensive, Some(5.0));
        assert_eq!(restored.generation(), generation);
        // An empty/default state clamps the generation to the live floor.
        let blank = FeedbackStore::new();
        blank.import_state(FeedbackState::default());
        assert_eq!(blank.generation(), 1);
    }

    #[test]
    fn accurate_udf_costs_never_bump_the_generation() {
        let store = FeedbackStore::new();
        // Measured ≈ static: q ≈ 1, below the threshold (and past both trust floors).
        let static_units = 5.0;
        let per_call = Duration::from_secs_f64(static_units * ROW_OP_SECONDS);
        store.record_udf(
            &evaluated("fair", 4000, per_call * 4000),
            Some(static_units),
        );
        assert_eq!(store.generation(), 1);
        assert!(learned(&store, "fair").units.is_some());
    }
}
