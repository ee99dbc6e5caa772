//! Runtime feedback: measured cardinalities and UDF invocation costs folded back into
//! the cost model.
//!
//! After each query the engine records two kinds of ground truth here:
//!
//! * **cardinality feedback** — the executed plan's estimated root cardinality vs the
//!   actual row count, per plan fingerprint, summarized as a [`q_error`];
//! * **UDF cost feedback** — the measured wall-clock per invocation of every UDF the
//!   query executed iteratively, vs the static body-cost estimate the model used.
//!
//! The strategy-choice pass consults the learned UDF costs (converted to row-op units
//! through [`CostParams::row_op_seconds`]) *instead of* the static estimate, so the
//! iterative-vs-decorrelated decision is made with measured numbers once a workload
//! has run. When the recorded q-error of a fingerprint first exceeds the configured
//! threshold, the store flags it for plan-cache invalidation and bumps its
//! [`generation`](FeedbackStore::generation) — the plan cache folds that generation
//! into its key for cost-based pipelines, so *every* stale cost-based entry is
//! re-decided with the calibrated numbers, while pipelines that ignore the cost model
//! (forced iterative/decorrelated) keep their entries.
//!
//! [`q_error`]: decorr_stats::q_error
//! [`CostParams::row_op_seconds`]: crate::cost::CostParams::row_op_seconds

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Duration;

use decorr_common::normalize_ident;
use decorr_stats::q_error;

/// Thresholds and calibration of the feedback loop.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackConfig {
    /// A fingerprint whose recorded q-error (cardinality or UDF cost) exceeds this is
    /// flagged: its plan-cache entries are invalidated and the store generation moves
    /// so cost-based decisions re-run with the learned numbers.
    pub q_error_threshold: f64,
    /// Minimum invocations before a UDF's measured cost is trusted (guards against
    /// one-off timing noise on nearly-free functions).
    pub min_udf_invocations: u64,
    /// Minimum total measured wall-clock before a UDF's cost is trusted.
    pub min_udf_total: Duration,
}

impl Default for FeedbackConfig {
    fn default() -> Self {
        FeedbackConfig {
            q_error_threshold: 4.0,
            min_udf_invocations: 8,
            min_udf_total: Duration::from_millis(1),
        }
    }
}

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

#[derive(Debug, Default)]
struct UdfEntry {
    invocations: u64,
    total: Duration,
    static_units: f64,
    /// Whether this UDF's learned cost already contributed a generation bump.
    flagged: bool,
    /// Memo/dedup cache hits observed for this UDF (calls answered without running
    /// the body — *not* included in `invocations`).
    cache_hits: u64,
    /// Whether this UDF's learned dedup fraction already contributed a generation
    /// bump (fired once, when the fraction first becomes trusted and significant).
    dedup_flagged: bool,
    /// Filter-predicate outcomes: rows this UDF's predicate was evaluated for, and
    /// how many of those passed.
    predicate_evaluated: u64,
    predicate_passed: u64,
}

/// The concurrency-safe feedback store, owned by the engine (one per database) and
/// consulted by the strategy-choice pass through the [`PassManager`].
///
/// [`PassManager`]: crate::pass::PassManager
#[derive(Debug)]
pub struct FeedbackStore {
    config: FeedbackConfig,
    queries: RwLock<HashMap<u64, QueryFeedback>>,
    udfs: RwLock<BTreeMap<String, UdfEntry>>,
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
        FeedbackStore::with_config(FeedbackConfig::default())
    }

    pub fn with_config(config: FeedbackConfig) -> FeedbackStore {
        FeedbackStore {
            config,
            queries: RwLock::new(HashMap::new()),
            udfs: RwLock::new(BTreeMap::new()),
            generation: AtomicU64::new(1),
            queries_recorded: AtomicU64::new(0),
            invalidations_flagged: AtomicU64::new(0),
        }
    }

    pub fn config(&self) -> &FeedbackConfig {
        &self.config
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

    /// Records measured wall-clock for `invocations` executions of a UDF, together
    /// with the static per-invocation estimate the cost model would use, and returns
    /// the cost q-error (1.0 while below the trust floors).
    ///
    /// When a trusted measurement first crosses the q-error threshold, the store
    /// generation is bumped: cost-based plan-cache entries decided with the old
    /// numbers become unreachable and are re-decided on their next lookup.
    pub fn record_udf_timing(
        &self,
        name: &str,
        invocations: u64,
        total: Duration,
        static_units: Option<f64>,
        row_op_seconds: f64,
    ) -> f64 {
        if invocations == 0 {
            return 1.0;
        }
        let key = normalize_ident(name);
        let mut udfs = self.udfs.write().expect("feedback store poisoned");
        let entry = udfs.entry(key).or_default();
        entry.invocations += invocations;
        entry.total += total;
        if let Some(static_units) = static_units {
            entry.static_units = static_units;
        }
        if entry.invocations < self.config.min_udf_invocations
            || entry.total < self.config.min_udf_total
            || entry.static_units <= 0.0
        {
            return 1.0;
        }
        let learned_units = learned_units(entry, row_op_seconds);
        let q = q_error(entry.static_units, learned_units);
        if q > self.config.q_error_threshold && !entry.flagged {
            entry.flagged = true;
            self.generation.fetch_add(1, Ordering::Relaxed);
        }
        q
    }

    /// Records one query's dedup outcome for a UDF: `evaluated` calls actually ran
    /// the body (already counted by [`record_udf_timing`](Self::record_udf_timing))
    /// while `hits` were answered from the memo/dedup caches. When the learned dedup
    /// fraction first becomes trusted *and* meaningful (< 0.5 — the caches answer at
    /// least half the calls), the store generation is bumped once so cost-based
    /// plan-cache entries re-decide with effective invocation counts.
    pub fn record_udf_dedup(&self, name: &str, evaluated: u64, hits: u64) {
        if evaluated + hits == 0 {
            return;
        }
        let key = normalize_ident(name);
        let mut udfs = self.udfs.write().expect("feedback store poisoned");
        let entry = udfs.entry(key).or_default();
        entry.cache_hits += hits;
        let calls = entry.invocations + entry.cache_hits;
        if calls < self.config.min_udf_invocations || entry.dedup_flagged {
            return;
        }
        let fraction = entry.invocations as f64 / calls as f64;
        if fraction < 0.5 {
            entry.dedup_flagged = true;
            self.generation.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The learned fraction of a UDF's calls that actually evaluate the body (the
    /// rest are dedup/memo hits), for
    /// [`CostParams::udf_dedup_fractions`](crate::cost::CostParams::with_udf_dedup_fractions).
    /// Only UDFs with a trusted number of observed calls are reported.
    pub fn udf_dedup_fractions(&self) -> BTreeMap<String, f64> {
        let udfs = self.udfs.read().expect("feedback store poisoned");
        udfs.iter()
            .filter(|(_, e)| e.invocations + e.cache_hits >= self.config.min_udf_invocations)
            .map(|(name, e)| {
                let calls = (e.invocations + e.cache_hits) as f64;
                (name.clone(), e.invocations as f64 / calls)
            })
            .collect()
    }

    /// Records filter-predicate outcomes for a UDF-bearing conjunct: how many rows it
    /// was evaluated for and how many passed. Feeds the executor's cost-ordered
    /// predicate evaluation on later queries.
    pub fn record_udf_predicate(&self, name: &str, evaluated: u64, passed: u64) {
        if evaluated == 0 {
            return;
        }
        let key = normalize_ident(name);
        let mut udfs = self.udfs.write().expect("feedback store poisoned");
        let entry = udfs.entry(key).or_default();
        entry.predicate_evaluated += evaluated;
        entry.predicate_passed += passed.min(evaluated);
    }

    /// What the executor's cost-ordered filter evaluation learns per UDF, as
    /// `(mean seconds, pass-rate)`: the measured mean wall-clock per *evaluated*
    /// invocation (no trust floor — a rough early number already orders predicates
    /// better than no number) and the observed pass-rate of its predicate (only with a
    /// trusted number of evaluations). UDFs with neither are left out.
    pub fn udf_runtime_profiles(&self) -> BTreeMap<String, (Option<f64>, Option<f64>)> {
        let udfs = self.udfs.read().expect("feedback store poisoned");
        udfs.iter()
            .map(|(name, e)| {
                let mean_seconds =
                    (e.invocations > 0).then(|| e.total.as_secs_f64() / e.invocations as f64);
                let selectivity = (e.predicate_evaluated >= self.config.min_udf_invocations)
                    .then(|| e.predicate_passed as f64 / e.predicate_evaluated as f64);
                (name.clone(), (mean_seconds, selectivity))
            })
            .filter(|(_, profile)| *profile != (None, None))
            .collect()
    }

    /// Marks a query fingerprint whose observed q-error exceeded the threshold for
    /// plan-cache invalidation. Returns true exactly once per fingerprint — callers
    /// invalidate on true, so a persistently misestimated shape cannot thrash the
    /// cache by invalidating itself on every execution.
    ///
    /// Flagging does *not* move the store generation: the generation tracks changes
    /// to the learned state (see [`record_udf_timing`](Self::record_udf_timing)),
    /// while a flag only evicts the flagged shape's own cost-based entry so its next
    /// optimize re-reads whatever has been learned.
    pub fn flag_for_invalidation(&self, fingerprint: u64, observed_q_error: f64) -> bool {
        if observed_q_error <= self.config.q_error_threshold {
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

    /// The learned per-invocation costs (row-op units) of every trusted UDF, for
    /// [`CostParams::udf_cost_overrides`](crate::cost::CostParams::udf_cost_overrides).
    pub fn udf_cost_overrides(&self, row_op_seconds: f64) -> BTreeMap<String, f64> {
        let udfs = self.udfs.read().expect("feedback store poisoned");
        udfs.iter()
            .filter(|(_, e)| {
                e.invocations >= self.config.min_udf_invocations
                    && e.total >= self.config.min_udf_total
            })
            .map(|(name, e)| (name.clone(), learned_units(e, row_op_seconds)))
            .collect()
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

/// Serializable learned state of one UDF — the persisted form of the store's
/// private per-UDF entry (all counters, trust flags included, so a restored store
/// neither re-bumps its generation for already-flagged UDFs nor forgets a flag).
#[derive(Debug, Clone, PartialEq)]
pub struct UdfFeedbackState {
    /// Normalized UDF name.
    pub name: String,
    /// Body evaluations measured so far.
    pub invocations: u64,
    /// Total measured wall-clock, in nanoseconds (`Duration` is not portably
    /// serializable; nanos round-trip exactly for any realistic total).
    pub total_nanos: u64,
    /// Static per-invocation estimate (row-op units) last reported to the store.
    pub static_units: f64,
    /// Whether the learned cost already contributed a generation bump.
    pub flagged: bool,
    /// Memo/dedup cache hits observed.
    pub cache_hits: u64,
    /// Whether the learned dedup fraction already contributed a generation bump.
    pub dedup_flagged: bool,
    /// Rows this UDF's predicate was evaluated for.
    pub predicate_evaluated: u64,
    /// How many of those evaluations passed.
    pub predicate_passed: u64,
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
    /// Per-UDF learned state, sorted by name.
    pub udfs: Vec<UdfFeedbackState>,
}

impl FeedbackStore {
    /// Exports the store's complete learned state in deterministic order.
    pub fn export_state(&self) -> FeedbackState {
        let queries_map = self.queries.read().expect("feedback store poisoned");
        let mut queries: Vec<QueryFeedback> = queries_map.values().cloned().collect();
        queries.sort_by_key(|q| q.fingerprint);
        drop(queries_map);
        let udfs = self
            .udfs
            .read()
            .expect("feedback store poisoned")
            .iter()
            .map(|(name, e)| UdfFeedbackState {
                name: name.clone(),
                invocations: e.invocations,
                total_nanos: e.total.as_nanos().min(u64::MAX as u128) as u64,
                static_units: e.static_units,
                flagged: e.flagged,
                cache_hits: e.cache_hits,
                dedup_flagged: e.dedup_flagged,
                predicate_evaluated: e.predicate_evaluated,
                predicate_passed: e.predicate_passed,
            })
            .collect();
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
        for u in state.udfs {
            udfs.insert(
                normalize_ident(&u.name),
                UdfEntry {
                    invocations: u.invocations,
                    total: Duration::from_nanos(u.total_nanos),
                    static_units: u.static_units,
                    flagged: u.flagged,
                    cache_hits: u.cache_hits,
                    dedup_flagged: u.dedup_flagged,
                    predicate_evaluated: u.predicate_evaluated,
                    predicate_passed: u.predicate_passed,
                },
            );
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

/// Measured mean wall-clock per invocation converted to abstract row-op units.
fn learned_units(entry: &UdfEntry, row_op_seconds: f64) -> f64 {
    let mean_seconds = entry.total.as_secs_f64() / entry.invocations.max(1) as f64;
    (mean_seconds / row_op_seconds.max(1e-12)).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn udf_timings_learn_costs_once_past_the_trust_floors() {
        let store = FeedbackStore::new();
        let row_op = 1e-6;
        // Below both floors: not trusted, no override.
        store.record_udf_timing("cheap", 2, Duration::from_micros(10), Some(5.0), row_op);
        assert!(store.udf_cost_overrides(row_op).is_empty());
        // Past the floors: 10 ms over 10 invocations → 1 ms ≈ 1000 units vs 5 static.
        let q = store.record_udf_timing(
            "Expensive",
            10,
            Duration::from_millis(10),
            Some(5.0),
            row_op,
        );
        assert!(q > 100.0, "cost q-error {q}");
        let overrides = store.udf_cost_overrides(row_op);
        assert!(
            (overrides["expensive"] - 1000.0).abs() < 1.0,
            "learned {overrides:?} (names normalized)"
        );
        assert!(store.generation() > 1, "mispriced UDF bumps the generation");
        let generation = store.generation();
        // More of the same measurements do not keep bumping.
        store.record_udf_timing(
            "expensive",
            10,
            Duration::from_millis(10),
            Some(5.0),
            row_op,
        );
        assert_eq!(store.generation(), generation);
    }

    #[test]
    fn dedup_feedback_learns_effective_fractions_and_bumps_once() {
        let store = FeedbackStore::new();
        let row_op = 1e-6;
        // 4 evaluated + 2 hits: below the trust floor, nothing reported.
        store.record_udf_timing("f", 4, Duration::from_millis(4), Some(1000.0), row_op);
        store.record_udf_dedup("f", 4, 2);
        assert!(store.udf_dedup_fractions().is_empty());
        let before = store.generation();
        // 4 more evaluated + 12 hits: 8 evaluated of 22 calls ≈ 0.36 < 0.5 → one bump.
        store.record_udf_timing("f", 4, Duration::from_millis(4), Some(1000.0), row_op);
        store.record_udf_dedup("F", 4, 12);
        let fractions = store.udf_dedup_fractions();
        assert!((fractions["f"] - 8.0 / 22.0).abs() < 1e-9, "{fractions:?}");
        assert_eq!(store.generation(), before + 1);
        // Further hits refine the fraction without re-bumping.
        store.record_udf_dedup("f", 0, 10);
        assert_eq!(store.generation(), before + 1);
        assert!(fractions["f"] > store.udf_dedup_fractions()["f"]);
    }

    #[test]
    fn predicate_feedback_reports_trusted_pass_rates() {
        let store = FeedbackStore::new();
        store.record_udf_predicate("p", 4, 1);
        assert!(
            store.udf_runtime_profiles().is_empty(),
            "below the trust floor"
        );
        store.record_udf_predicate("P", 12, 3);
        let pass_rate = |store: &FeedbackStore| store.udf_runtime_profiles()["p"].1.unwrap();
        assert!((pass_rate(&store) - 0.25).abs() < 1e-9);
        // Zero evaluations are a no-op; passed is clamped to evaluated.
        store.record_udf_predicate("p", 0, 99);
        assert!((pass_rate(&store) - 0.25).abs() < 1e-9);
    }

    #[test]
    fn mean_seconds_require_no_trust_floor() {
        let store = FeedbackStore::new();
        store.record_udf_timing("g", 2, Duration::from_millis(8), None, 1e-6);
        let (mean_seconds, selectivity) = store.udf_runtime_profiles()["g"];
        assert!((mean_seconds.unwrap() - 4e-3).abs() < 1e-9);
        assert_eq!(selectivity, None, "no predicate outcome was recorded");
    }

    #[test]
    fn exported_state_round_trips_into_a_fresh_store() {
        let store = FeedbackStore::new();
        let row_op = 1e-6;
        store.record_query(42, 1000.0, 10);
        store.record_query(7, 10.0, 9);
        assert!(store.flag_for_invalidation(42, 100.0));
        store.record_udf_timing(
            "expensive",
            10,
            Duration::from_millis(10),
            Some(5.0),
            row_op,
        );
        store.record_udf_dedup("expensive", 0, 90);
        store.record_udf_predicate("expensive", 100, 25);
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
            restored.udf_cost_overrides(row_op),
            store.udf_cost_overrides(row_op),
            "learned costs survive without re-execution"
        );
        assert_eq!(restored.udf_dedup_fractions(), store.udf_dedup_fractions());
        assert_eq!(
            restored.udf_runtime_profiles(),
            store.udf_runtime_profiles()
        );
        assert_eq!(restored.query_feedback(42), store.query_feedback(42));
        // Export is deterministic: re-exporting unchanged state is identical.
        assert_eq!(restored.export_state(), state);
        // Trust flags survive: re-recording the same mispriced measurements must not
        // re-bump the restored generation.
        let generation = restored.generation();
        restored.record_udf_timing(
            "expensive",
            10,
            Duration::from_millis(10),
            Some(5.0),
            row_op,
        );
        assert_eq!(restored.generation(), generation);
        // An empty/default state clamps the generation to the live floor.
        let blank = FeedbackStore::new();
        blank.import_state(FeedbackState::default());
        assert_eq!(blank.generation(), 1);
    }

    #[test]
    fn accurate_udf_costs_never_bump_the_generation() {
        let store = FeedbackStore::new();
        let row_op = 1e-6;
        // Measured ≈ static: q ≈ 1, below the threshold (and past both trust floors).
        store.record_udf_timing(
            "fair",
            400,
            Duration::from_micros(400 * 5),
            Some(5.0),
            row_op,
        );
        assert_eq!(store.generation(), 1);
        assert_eq!(store.udf_cost_overrides(row_op).len(), 1);
    }
}
