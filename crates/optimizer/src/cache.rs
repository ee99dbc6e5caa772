//! The plan cache: memoization of whole [`OptimizeOutcome`]s across repeated queries.
//!
//! The decorrelation rewrite pays off only while the optimizer itself stays cheap. A
//! service that answers the same UDF-laden query shapes for millions of users re-runs
//! the normalize → algebraize/merge → apply-removal → cleanup → strategy pipeline on
//! every request — pure waste once the first request has paid for it. This module
//! provides the memo: a concurrency-safe (`RwLock` + LRU, dependency-free) cache from a
//! *structural fingerprint* of the planned query to the full [`OptimizeOutcome`] the
//! pipeline produced for it.
//!
//! ## Cache key
//!
//! A lookup matches only when **all** of the following agree:
//!
//! 1. the FNV-1a structural hash of the normalized input plan (and, to rule out hash
//!    collisions, the stored plan compares equal to the probe plan);
//! 2. the [`FunctionRegistry`] generation — bumped by every `register_udf` /
//!    `register_aggregate`, so redefining a UDF body can never serve a plan built from
//!    the old definition;
//! 3. the catalog DDL generation — bumped by `CREATE/DROP TABLE` and `CREATE INDEX`,
//!    so plans bound against a changed schema become unreachable;
//! 4. the pipeline fingerprint — which of the three pipelines (cleanup, rewrite,
//!    decorrelation) plus every [`PassManagerOptions`] field, so e.g. an `EXPLAIN`
//!    (snapshots on) never serves a snapshot-less hot-path entry and a
//!    forced-decorrelated pipeline never serves a cost-based one.
//!
//! Row inserts deliberately do **not** invalidate: they can only make a cached
//! cost-based strategy choice suboptimal, never incorrect (the cache stores plans, not
//! results — execution always runs against live data).
//!
//! ## Concurrency & eviction
//!
//! Lookups take the read lock only: LRU recency is an `AtomicU64` tick per entry, and
//! hit/miss/eviction counters are atomics, so concurrent readers never serialize.
//! Inserts take the write lock, evicting the least-recently-used entry when the cache
//! is at capacity. Entries from older registry/DDL generations are reaped on insert
//! (counted as invalidations) — they can never be hit again, so they only waste slots.
//!
//! [`FunctionRegistry`]: decorr_udf::FunctionRegistry
//! [`PassManagerOptions`]: crate::pass::PassManagerOptions

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use decorr_algebra::RelExpr;

use crate::pass::OptimizeOutcome;

/// Default number of cached plans (small: each entry holds a handful of plan trees).
pub const DEFAULT_PLAN_CACHE_CAPACITY: usize = 128;

// ----------------------------------------------------------------------- fingerprints

/// Structural FNV-1a fingerprint of a plan — delegates to [`RelExpr::fingerprint`],
/// the workspace-wide plan identity the executor's cardinality collector and the
/// feedback store also key on. Collisions are possible in principle, which is why
/// cache entries also store the key plan and compare it with `==` on lookup.
pub fn plan_fingerprint(plan: &RelExpr) -> u64 {
    plan.fingerprint()
}

/// Everything besides the plan that the cached outcome depends on. Two lookups share an
/// entry only when every field agrees.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheContext {
    /// [`FunctionRegistry::generation`](decorr_udf::FunctionRegistry::generation) at
    /// optimize time.
    pub registry_generation: u64,
    /// Catalog DDL generation at optimize time; `None` when optimizing without a
    /// catalog (the standalone rewrite tool). Catalog-less entries live in their own
    /// generation domain: a catalog pipeline's inserts never reap them, because future
    /// catalog-less lookups can still legitimately hit them.
    pub ddl_generation: Option<u64>,
    /// The runtime [`FeedbackStore`](crate::feedback::FeedbackStore) generation the
    /// optimize ran under; `None` for pipelines whose outcome does not depend on the
    /// feedback-calibrated cost model (forced iterative/decorrelated, or no store
    /// attached). Like `ddl_generation`, the two domains never invalidate each other:
    /// a feedback-blind entry stays servable across feedback generations.
    pub feedback_generation: Option<u64>,
    /// Fingerprint of the pipeline shape and options (see
    /// [`PassManager::pipeline_fingerprint`](crate::pass::PassManager::pipeline_fingerprint)).
    pub pipeline_fingerprint: u64,
}

// ----------------------------------------------------------------------------- stats

/// A point-in-time snapshot of the cache counters, surfaced through
/// `PipelineReport::cache` and the EXPLAIN per-pass table.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that fell through to the full pipeline.
    pub misses: u64,
    /// Entries displaced by the LRU policy at capacity.
    pub evictions: u64,
    /// Stale-generation entries reaped (UDF redefinition / DDL).
    pub invalidations: u64,
    /// Outcomes stored.
    pub inserts: u64,
    /// Live entries.
    pub entries: usize,
    /// Configured capacity.
    pub capacity: usize,
}

impl PlanCacheStats {
    /// Hit fraction over all lookups so far (0.0 when the cache was never probed).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// What the cache did for one `optimize` call, attached to that call's
/// `PipelineReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheActivity {
    /// True when the outcome was served from the cache.
    pub hit: bool,
    /// The structural fingerprint of the probed plan.
    pub key_hash: u64,
    /// The registry generation the lookup was made under.
    pub registry_generation: u64,
    /// Counter snapshot *after* this lookup.
    pub stats: PlanCacheStats,
}

// ----------------------------------------------------------------------------- cache

struct Entry {
    /// The exact plan this entry was keyed on; compared on lookup to rule out
    /// fingerprint collisions.
    key_plan: RelExpr,
    context: CacheContext,
    outcome: OptimizeOutcome,
    /// LRU recency tick; atomic so read-lock lookups can touch it.
    last_used: AtomicU64,
}

#[derive(Default)]
struct Buckets {
    map: HashMap<u64, Vec<Entry>>,
    len: usize,
}

/// A concurrency-safe LRU cache from (plan fingerprint, [`CacheContext`]) to
/// [`OptimizeOutcome`]. See the module docs for the key and invalidation rules.
pub struct PlanCache {
    capacity: usize,
    buckets: RwLock<Buckets>,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    inserts: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("stats", &stats)
            .finish()
    }
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::with_capacity(DEFAULT_PLAN_CACHE_CAPACITY)
    }
}

impl PlanCache {
    /// A cache with the default capacity.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// A cache holding at most `capacity` outcomes. A capacity of 0 disables caching:
    /// every lookup misses and nothing is stored.
    pub fn with_capacity(capacity: usize) -> PlanCache {
        PlanCache {
            capacity,
            buckets: RwLock::new(Buckets::default()),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            inserts: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.buckets.read().expect("plan cache poisoned").len
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry (counters are preserved — they describe the cache's lifetime).
    pub fn clear(&self) {
        let mut buckets = self.buckets.write().expect("plan cache poisoned");
        buckets.map.clear();
        buckets.len = 0;
    }

    /// Counter snapshot.
    pub fn stats(&self) -> PlanCacheStats {
        PlanCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            inserts: self.inserts.load(Ordering::Relaxed),
            entries: self.len(),
            capacity: self.capacity,
        }
    }

    /// Looks up the outcome cached for `plan` under `context`. Takes the read lock
    /// only; a hit touches the entry's LRU tick and clones the stored outcome.
    pub fn lookup(&self, plan: &RelExpr, context: &CacheContext) -> Option<OptimizeOutcome> {
        self.lookup_hashed(plan_fingerprint(plan), plan, context)
    }

    /// [`lookup`](PlanCache::lookup) with a precomputed [`plan_fingerprint`], for
    /// callers that reuse the hash across lookup, insert and reporting.
    pub fn lookup_hashed(
        &self,
        hash: u64,
        plan: &RelExpr,
        context: &CacheContext,
    ) -> Option<OptimizeOutcome> {
        if self.capacity == 0 {
            // Still a probe: the miss counter must reflect that caching is disabled
            // but being consulted, or stats would claim the cache was never touched.
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        }
        let buckets = self.buckets.read().expect("plan cache poisoned");
        let found = buckets.map.get(&hash).and_then(|entries| {
            entries
                .iter()
                .find(|e| e.context == *context && e.key_plan == *plan)
        });
        match found {
            Some(entry) => {
                let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
                entry.last_used.store(tick, Ordering::Relaxed);
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(entry.outcome.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Stores `outcome` for `plan` under `context`, evicting the least-recently-used
    /// entry when at capacity and reaping any entry from an older registry/DDL
    /// generation (those can never be hit again).
    pub fn insert(&self, plan: &RelExpr, context: &CacheContext, outcome: OptimizeOutcome) {
        self.insert_hashed(plan_fingerprint(plan), plan, context, outcome)
    }

    /// [`insert`](PlanCache::insert) with a precomputed [`plan_fingerprint`].
    pub fn insert_hashed(
        &self,
        hash: u64,
        plan: &RelExpr,
        context: &CacheContext,
        outcome: OptimizeOutcome,
    ) {
        if self.capacity == 0 {
            return;
        }
        let mut buckets = self.buckets.write().expect("plan cache poisoned");
        // Reap stale-generation entries across the whole cache: a cheap O(entries)
        // sweep on the (already pipeline-priced) miss path. Generations are monotonic
        // per database, so an entry behind the inserting call's view can never be hit
        // again regardless of which pipeline stored it. DDL generations are only
        // comparable when both sides carry one — catalog-less entries are never stale
        // relative to a catalog pipeline's view.
        let mut reaped = 0usize;
        for entries in buckets.map.values_mut() {
            let before = entries.len();
            entries.retain(|e| {
                e.context.registry_generation >= context.registry_generation
                    && match (e.context.ddl_generation, context.ddl_generation) {
                        (Some(entry_gen), Some(current_gen)) => entry_gen >= current_gen,
                        _ => true,
                    }
                    && match (e.context.feedback_generation, context.feedback_generation) {
                        (Some(entry_gen), Some(current_gen)) => entry_gen >= current_gen,
                        _ => true,
                    }
            });
            reaped += before - entries.len();
        }
        if reaped > 0 {
            buckets.map.retain(|_, v| !v.is_empty());
            buckets.len -= reaped;
            self.invalidations
                .fetch_add(reaped as u64, Ordering::Relaxed);
        }
        // Replace an existing entry for the same key in place.
        if let Some(entries) = buckets.map.get_mut(&hash) {
            if let Some(existing) = entries
                .iter_mut()
                .find(|e| e.context == *context && e.key_plan == *plan)
            {
                existing.outcome = outcome;
                let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
                existing.last_used.store(tick, Ordering::Relaxed);
                self.inserts.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        while buckets.len >= self.capacity {
            Self::evict_lru(&mut buckets);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let tick = self.tick.fetch_add(1, Ordering::Relaxed) + 1;
        buckets.map.entry(hash).or_default().push(Entry {
            key_plan: plan.clone(),
            context: *context,
            outcome,
            last_used: AtomicU64::new(tick),
        });
        buckets.len += 1;
        self.inserts.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops every *feedback-sensitive* entry keyed on the given plan fingerprint,
    /// regardless of generations — the runtime feedback loop calls this when a
    /// fingerprint's recorded q-error crosses the threshold, so the next optimize
    /// re-decides with the calibrated numbers. Entries whose pipeline ignored the
    /// cost model (`feedback_generation == None`) are untouched: re-deciding them
    /// could not change anything. Returns the number of entries removed (counted as
    /// invalidations).
    pub fn invalidate_fingerprint(&self, hash: u64) -> usize {
        let mut buckets = self.buckets.write().expect("plan cache poisoned");
        let Some(entries) = buckets.map.get_mut(&hash) else {
            return 0;
        };
        let before = entries.len();
        entries.retain(|e| e.context.feedback_generation.is_none());
        let removed = before - entries.len();
        if entries.is_empty() {
            buckets.map.remove(&hash);
        }
        buckets.len -= removed;
        self.invalidations
            .fetch_add(removed as u64, Ordering::Relaxed);
        removed
    }

    /// Removes the entry with the smallest LRU tick. O(entries), which is fine at the
    /// intended capacities (hundreds) and keeps the cache dependency-free.
    fn evict_lru(buckets: &mut Buckets) {
        let mut victim: Option<(u64, usize, u64)> = None; // (bucket, index, tick)
        for (&hash, entries) in buckets.map.iter() {
            for (i, entry) in entries.iter().enumerate() {
                let tick = entry.last_used.load(Ordering::Relaxed);
                if victim.map(|(_, _, t)| tick < t).unwrap_or(true) {
                    victim = Some((hash, i, tick));
                }
            }
        }
        if let Some((hash, index, _)) = victim {
            let entries = buckets.map.get_mut(&hash).expect("victim bucket exists");
            entries.remove(index);
            if entries.is_empty() {
                buckets.map.remove(&hash);
            }
            buckets.len -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pass::PassManager;
    use decorr_algebra::schema::MapProvider;
    use decorr_common::{Column, DataType, Schema};
    use decorr_parser::parse_and_plan;
    use decorr_udf::FunctionRegistry;

    fn provider() -> MapProvider {
        MapProvider::new().with_table(
            "t",
            Schema::new(vec![
                Column::new("a", DataType::Int),
                Column::new("b", DataType::Int),
            ]),
        )
    }

    fn outcome_for(sql: &str) -> (RelExpr, OptimizeOutcome) {
        let plan = parse_and_plan(sql).unwrap();
        let outcome = PassManager::rewrite_pipeline()
            .optimize(&plan, &FunctionRegistry::new(), &provider(), None)
            .unwrap();
        (plan, outcome)
    }

    fn ctx(generation: u64) -> CacheContext {
        CacheContext {
            registry_generation: generation,
            ddl_generation: Some(0),
            feedback_generation: Some(1),
            pipeline_fingerprint: 7,
        }
    }

    #[test]
    fn fingerprint_distinguishes_plans_and_is_stable() {
        let a = parse_and_plan("select a from t").unwrap();
        let a2 = parse_and_plan("select a from t").unwrap();
        let b = parse_and_plan("select b from t").unwrap();
        assert_eq!(plan_fingerprint(&a), plan_fingerprint(&a2));
        assert_ne!(plan_fingerprint(&a), plan_fingerprint(&b));
    }

    #[test]
    fn hit_miss_and_replacement() {
        let cache = PlanCache::with_capacity(4);
        let (plan, outcome) = outcome_for("select a from t");
        assert!(cache.lookup(&plan, &ctx(0)).is_none());
        cache.insert(&plan, &ctx(0), outcome.clone());
        let hit = cache.lookup(&plan, &ctx(0)).expect("hit after insert");
        assert_eq!(hit.plan, outcome.plan);
        // Different registry generation or pipeline never hits.
        assert!(cache.lookup(&plan, &ctx(1)).is_none());
        let other_pipeline = CacheContext {
            pipeline_fingerprint: 8,
            ..ctx(0)
        };
        assert!(cache.lookup(&plan, &other_pipeline).is_none());
        let stats = cache.stats();
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.misses, 3);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn lru_eviction_at_capacity_keeps_recently_used() {
        let cache = PlanCache::with_capacity(2);
        let (plan_a, out_a) = outcome_for("select a from t");
        let (plan_b, out_b) = outcome_for("select b from t");
        let (plan_c, out_c) = outcome_for("select a, b from t");
        cache.insert(&plan_a, &ctx(0), out_a);
        cache.insert(&plan_b, &ctx(0), out_b);
        // Touch A so B becomes the LRU victim.
        assert!(cache.lookup(&plan_a, &ctx(0)).is_some());
        cache.insert(&plan_c, &ctx(0), out_c);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup(&plan_a, &ctx(0)).is_some(), "A was touched");
        assert!(cache.lookup(&plan_b, &ctx(0)).is_none(), "B was evicted");
        assert!(cache.lookup(&plan_c, &ctx(0)).is_some());
    }

    #[test]
    fn stale_generations_are_reaped_on_insert() {
        let cache = PlanCache::with_capacity(8);
        let (plan_a, out_a) = outcome_for("select a from t");
        let (plan_b, out_b) = outcome_for("select b from t");
        cache.insert(&plan_a, &ctx(0), out_a);
        cache.insert(&plan_b, &ctx(1), out_b);
        assert_eq!(cache.len(), 1, "generation-0 entry reaped");
        assert_eq!(cache.stats().invalidations, 1);
        assert!(cache.lookup(&plan_a, &ctx(0)).is_none());
        assert!(cache.lookup(&plan_b, &ctx(1)).is_some());
    }

    #[test]
    fn invalidate_fingerprint_removes_only_feedback_sensitive_entries() {
        let cache = PlanCache::with_capacity(8);
        let (plan, out) = outcome_for("select a from t");
        let sensitive = ctx(0);
        let blind = CacheContext {
            feedback_generation: None,
            pipeline_fingerprint: 9, // a different pipeline (e.g. forced-iterative)
            ..ctx(0)
        };
        cache.insert(&plan, &sensitive, out.clone());
        cache.insert(&plan, &blind, out);
        assert_eq!(cache.len(), 2);
        let removed = cache.invalidate_fingerprint(plan_fingerprint(&plan));
        assert_eq!(removed, 1, "only the cost-based entry goes");
        assert!(cache.lookup(&plan, &sensitive).is_none());
        assert!(
            cache.lookup(&plan, &blind).is_some(),
            "feedback-blind pipelines keep their entries"
        );
        assert_eq!(cache.stats().invalidations, 1);
        assert_eq!(cache.invalidate_fingerprint(0xDEAD_BEEF), 0);
    }

    #[test]
    fn newer_feedback_generations_reap_stale_entries_on_insert() {
        let cache = PlanCache::with_capacity(8);
        let (plan_a, out_a) = outcome_for("select a from t");
        let (plan_b, out_b) = outcome_for("select b from t");
        cache.insert(&plan_a, &ctx(0), out_a);
        let newer = CacheContext {
            feedback_generation: Some(2),
            ..ctx(0)
        };
        cache.insert(&plan_b, &newer, out_b);
        assert_eq!(cache.len(), 1, "feedback generation 1 entry reaped");
        assert!(cache.lookup(&plan_a, &ctx(0)).is_none());
        assert!(cache.lookup(&plan_b, &newer).is_some());
    }

    #[test]
    fn catalog_less_entries_survive_catalog_pipeline_inserts() {
        // Catalog-less contexts (ddl_generation None) live in their own domain: an
        // insert from a catalog pipeline at a high DDL generation must not reap them,
        // since future catalog-less lookups can still hit them.
        let cache = PlanCache::with_capacity(8);
        let (plan_a, out_a) = outcome_for("select a from t");
        let (plan_b, out_b) = outcome_for("select b from t");
        let no_catalog = CacheContext {
            registry_generation: 0,
            ddl_generation: None,
            feedback_generation: None,
            pipeline_fingerprint: 7,
        };
        let with_catalog = CacheContext {
            registry_generation: 0,
            ddl_generation: Some(5),
            feedback_generation: None,
            pipeline_fingerprint: 7,
        };
        cache.insert(&plan_a, &no_catalog, out_a);
        cache.insert(&plan_b, &with_catalog, out_b);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().invalidations, 0);
        assert!(cache.lookup(&plan_a, &no_catalog).is_some());
        assert!(cache.lookup(&plan_b, &with_catalog).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching_but_counts_probes() {
        let cache = PlanCache::with_capacity(0);
        let (plan, outcome) = outcome_for("select a from t");
        cache.insert(&plan, &ctx(0), outcome);
        assert!(cache.lookup(&plan, &ctx(0)).is_none());
        assert_eq!(cache.len(), 0);
        let stats = cache.stats();
        assert_eq!(stats.misses, 1, "disabled caches still count lookups");
        assert_eq!(stats.inserts, 0);
    }

    #[test]
    fn concurrent_lookups_and_inserts_are_safe() {
        use std::sync::Arc;
        let cache = Arc::new(PlanCache::with_capacity(4));
        let (plan, outcome) = outcome_for("select a from t");
        cache.insert(&plan, &ctx(0), outcome);
        let handles: Vec<_> = (0..4)
            .map(|i| {
                let cache = Arc::clone(&cache);
                let plan = plan.clone();
                std::thread::spawn(move || {
                    for _ in 0..200 {
                        if i % 2 == 0 {
                            assert!(cache.lookup(&plan, &ctx(0)).is_some());
                        } else {
                            let (p, o) = outcome_for("select b from t");
                            cache.insert(&p, &ctx(0), o);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert!(cache.stats().hits >= 400);
    }
}
