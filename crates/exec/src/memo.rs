//! Bounded, sharded LRU memo cache for pure-UDF results.
//!
//! Two instances of [`UdfMemo`] participate in the UDF invocation runtime, read and
//! written together through one front, `UdfCaches`:
//!
//! * the **engine memo** — owned by the shared `Engine`, shared across sessions and
//!   queries; every entry is stamped with the [`MemoEpoch`] it was computed under
//!   (function-registry generation + catalog DDL generation + per-table or
//!   catalog-wide data version), so a redefined UDF or changed data can never serve
//!   stale results, while concurrent queries pinned to *different* catalog snapshots
//!   each read only entries matching their own epoch;
//! * the **per-query dedup cache** — a fresh instance attached to each query's
//!   executor, which deduplicates repeated argument tuples *within* one execution.
//!   It also carries the [`reservation`](UdfMemo::reserve) protocol: a racing worker
//!   that finds another worker already evaluating the same argument tuple *waits* for
//!   the published result instead of evaluating the UDF a second time — the one
//!   mechanism that keeps invocation counts independent of scheduling.
//!
//! Keys are `(normalized name, argument tuple)`; the 64-bit FNV-1a fingerprint over
//! both is the shard/slot index, and the full argument tuple is kept alongside the
//! cached value so a fingerprint collision is detected (and treated as a miss) rather
//! than served. Argument identity is *exact*: `Int(2)` and `Float(2.0)` are distinct
//! keys, because a UDF can observe the argument's type (`return x` must echo the exact
//! value it was given). Floats compare by bit pattern.
//!
//! A capacity of **0 disables the cache entirely** — `get` always misses and `insert`
//! is a no-op — mirroring how `ExecConfig::normalized` clamps nonsensical knob values
//! instead of panicking. Any other capacity is rounded up to shard granularity.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::ThreadId;

use decorr_common::{FnvHasher, Row, Value};

use crate::stats::AtomicExecStats;

/// Number of independently locked shards. Power of two; small enough that an empty
/// memo is cheap, large enough that a dispatch's threads rarely contend on one lock.
const SHARDS: usize = 8;

/// Cache-coherence epoch: `(function-registry generation, DDL generation, data
/// version)`. Any component changing means previously memoized results may be
/// stale — a UDF body was replaced, a table was created/dropped/analyzed, or rows
/// were inserted (a pure UDF may read tables through embedded queries). The data
/// component is the *per-table* data version when the engine can prove the UDF reads
/// exactly one table, and the catalog-wide data generation otherwise.
pub type MemoEpoch = (u64, u64, u64);

/// The epoch used by per-query dedup caches, whose lifetime is one execution: no
/// mutation can interleave, so entries never go stale.
pub const NO_EPOCH: MemoEpoch = (0, 0, 0);

/// A memoized UDF result: scalar UDFs cache the returned [`Value`], table-valued UDFs
/// cache the emitted rows.
#[derive(Debug, Clone, PartialEq)]
pub enum MemoValue {
    Scalar(Value),
    Table(Vec<Row>),
}

/// Fingerprints a UDF invocation: FNV-1a over the normalized name and each argument's
/// type tag + exact payload. Used as the slot index of both cache tiers.
pub fn fingerprint_invocation(name: &str, args: &[Value]) -> u64 {
    let mut h = FnvHasher::new();
    h.write_bytes(name.as_bytes());
    for arg in args {
        match arg {
            Value::Null => h.write_u64(0),
            Value::Bool(b) => {
                h.write_u64(1);
                h.write_u64(u64::from(*b));
            }
            Value::Int(i) => {
                h.write_u64(2);
                h.write_u64(*i as u64);
            }
            Value::Float(f) => {
                h.write_u64(3);
                h.write_u64(f.to_bits());
            }
            Value::Str(s) => {
                h.write_u64(4);
                h.write_u64(s.len() as u64);
                h.write_bytes(s.as_bytes());
            }
        }
    }
    h.finish()
}

/// Exact value identity (not SQL equality): types must match, floats compare by bit
/// pattern. SQL's `Int(2) = Float(2.0)` must *not* unify memo keys — the UDF sees the
/// concrete type.
fn value_identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Null, Value::Null) => true,
        (Value::Bool(x), Value::Bool(y)) => x == y,
        (Value::Int(x), Value::Int(y)) => x == y,
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        (Value::Str(x), Value::Str(y)) => x == y,
        _ => false,
    }
}

fn args_identical(a: &[Value], b: &[Value]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| value_identical(x, y))
}

#[derive(Debug)]
struct Entry {
    name: String,
    args: Vec<Value>,
    value: MemoValue,
    epoch: MemoEpoch,
    tick: u64,
}

#[derive(Debug, Default)]
struct Shard {
    /// Fingerprint → entry. On the (vanishingly rare) collision of two distinct
    /// invocations on one fingerprint, the newer insert wins the slot; `get` compares
    /// the stored arguments so the loser reads a miss, never a wrong value.
    entries: HashMap<u64, Entry>,
    /// LRU order: tick → fingerprint. Ticks are unique within a shard.
    lru: BTreeMap<u64, u64>,
    tick: u64,
    /// Fingerprints currently being evaluated under a [`UdfMemo::reserve`]
    /// reservation, and by which thread. Kept outside `entries` so pending markers
    /// can never be evicted by LRU pressure.
    pending: HashMap<u64, ThreadId>,
}

impl Shard {
    fn touch(&mut self, fingerprint: u64) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(entry) = self.entries.get_mut(&fingerprint) {
            self.lru.remove(&entry.tick);
            entry.tick = tick;
            self.lru.insert(tick, fingerprint);
        }
    }

    fn remove(&mut self, fingerprint: u64) {
        if let Some(entry) = self.entries.remove(&fingerprint) {
            self.lru.remove(&entry.tick);
        }
    }
}

/// One shard plus the condition variable reservation waiters sleep on.
#[derive(Debug, Default)]
struct ShardSlot {
    state: Mutex<Shard>,
    published: Condvar,
}

/// Counter snapshot for diagnostics and EXPLAIN ANALYZE (see
/// [`UdfMemo::stats`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UdfMemoStats {
    pub hits: u64,
    pub misses: u64,
    pub insertions: u64,
    pub evictions: u64,
    /// Stale entries dropped because a lookup's epoch differed from the entry's
    /// (UDF redefined, schema changed, or a table the UDF reads gained rows).
    pub invalidations: u64,
    /// Times a [`reserve`](UdfMemo::reserve) caller slept waiting for a racing
    /// evaluation of the same argument tuple instead of re-evaluating it.
    pub reservation_waits: u64,
    /// Entries currently resident.
    pub entries: u64,
    /// Configured capacity (0 = disabled).
    pub capacity: u64,
}

/// The bounded, sharded LRU memo cache (see the module docs).
#[derive(Debug)]
pub struct UdfMemo {
    shards: Vec<ShardSlot>,
    capacity: usize,
    per_shard_capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    invalidations: AtomicU64,
    reservation_waits: AtomicU64,
}

/// Outcome of [`UdfMemo::reserve`].
#[derive(Debug)]
pub enum Reservation<'a> {
    /// A valid cached result (possibly published by a racing worker we waited for).
    Hit(MemoValue),
    /// The caller owns the evaluation: compute the result, then
    /// [`publish`](ReservationGuard::publish) it. Dropping the guard without
    /// publishing (evaluation error or panic) wakes waiters so one of them can take
    /// over the reservation.
    Reserved(ReservationGuard<'a>),
    /// The cache is disabled, or this same thread already holds a reservation for
    /// this fingerprint (a self-recursive UDF): evaluate without coordinating.
    Bypass,
}

/// RAII ownership of an in-flight reservation (see [`UdfMemo::reserve`]).
#[derive(Debug)]
pub struct ReservationGuard<'a> {
    memo: &'a UdfMemo,
    fingerprint: u64,
    done: bool,
    took_over: bool,
}

impl ReservationGuard<'_> {
    /// True when this reservation was acquired only after sleeping on a racing
    /// worker's reservation for the same tuple: that worker's result was published
    /// then evicted (or the evaluation was abandoned) before this caller's wake-up
    /// re-check. The caller's evaluation is then a *duplicate* from the counters'
    /// point of view — callers use this to keep invocation counts race-free.
    pub fn took_over(&self) -> bool {
        self.took_over
    }

    /// Publishes the computed result under the reservation and wakes all waiters.
    pub fn publish(mut self, name: &str, args: &[Value], value: MemoValue, epoch: MemoEpoch) {
        self.done = true;
        let slot = self.memo.shard(self.fingerprint);
        let mut shard = slot.state.lock().expect("memo shard poisoned");
        shard.pending.remove(&self.fingerprint);
        self.memo
            .insert_locked(&mut shard, name, self.fingerprint, args, value, epoch);
        slot.published.notify_all();
    }
}

impl Drop for ReservationGuard<'_> {
    fn drop(&mut self) {
        if self.done {
            return;
        }
        let slot = self.memo.shard(self.fingerprint);
        let mut shard = slot.state.lock().expect("memo shard poisoned");
        shard.pending.remove(&self.fingerprint);
        slot.published.notify_all();
    }
}

impl UdfMemo {
    /// Creates a memo holding roughly `capacity` entries (rounded up to shard
    /// granularity). `capacity == 0` builds a disabled cache: every lookup misses and
    /// every insert is dropped — "no memo", not "evict on every insert".
    pub fn with_capacity(capacity: usize) -> UdfMemo {
        UdfMemo {
            shards: (0..SHARDS).map(|_| ShardSlot::default()).collect(),
            capacity,
            per_shard_capacity: capacity.div_ceil(SHARDS),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            reservation_waits: AtomicU64::new(0),
        }
    }

    /// The configured capacity (0 = disabled). `Engine::fork` uses this to build a
    /// fresh memo of the same size.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    fn shard(&self, fingerprint: u64) -> &ShardSlot {
        &self.shards[(fingerprint as usize) % SHARDS]
    }

    /// Returns the slot's value when its entry matches exactly, counting a hit and
    /// refreshing its LRU position. A matching entry stamped with a *different* epoch
    /// is dropped and counted as an invalidation.
    fn hit_locked(
        &self,
        shard: &mut Shard,
        name: &str,
        fingerprint: u64,
        args: &[Value],
        epoch: MemoEpoch,
    ) -> Option<MemoValue> {
        match shard.entries.get(&fingerprint) {
            Some(entry) if entry.name == name && args_identical(&entry.args, args) => {
                if entry.epoch == epoch {
                    let value = entry.value.clone();
                    shard.touch(fingerprint);
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    Some(value)
                } else {
                    shard.remove(fingerprint);
                    self.invalidations.fetch_add(1, Ordering::Relaxed);
                    None
                }
            }
            _ => None,
        }
    }

    /// Looks up a cached result stamped with exactly `epoch`. `fingerprint` must be
    /// [`fingerprint_invocation`]`(name, args)`; the caller computes it once and
    /// reuses it across both tiers' lookups and inserts. A matching entry with
    /// a *different* epoch is stale: it is dropped (counted as an invalidation) and
    /// the lookup misses.
    pub fn get(
        &self,
        name: &str,
        fingerprint: u64,
        args: &[Value],
        epoch: MemoEpoch,
    ) -> Option<MemoValue> {
        if self.capacity == 0 {
            return None;
        }
        let mut shard = self
            .shard(fingerprint)
            .state
            .lock()
            .expect("memo shard poisoned");
        let value = self.hit_locked(&mut shard, name, fingerprint, args, epoch);
        if value.is_none() {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        value
    }

    fn insert_locked(
        &self,
        shard: &mut Shard,
        name: &str,
        fingerprint: u64,
        args: &[Value],
        value: MemoValue,
        epoch: MemoEpoch,
    ) {
        if let Some(existing) = shard.entries.get_mut(&fingerprint) {
            existing.name = name.to_string();
            existing.args = args.to_vec();
            existing.value = value;
            existing.epoch = epoch;
            shard.touch(fingerprint);
            return;
        }
        if shard.entries.len() >= self.per_shard_capacity {
            if let Some((&oldest_tick, &oldest_fp)) = shard.lru.iter().next() {
                shard.lru.remove(&oldest_tick);
                shard.entries.remove(&oldest_fp);
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        shard.tick += 1;
        let tick = shard.tick;
        shard.lru.insert(tick, fingerprint);
        shard.entries.insert(
            fingerprint,
            Entry {
                name: name.to_string(),
                args: args.to_vec(),
                value,
                epoch,
                tick,
            },
        );
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }

    /// Caches a result stamped with `epoch`, evicting the least-recently-used entry
    /// of the target shard when it is full. No-op when the cache is disabled.
    pub fn insert(
        &self,
        name: &str,
        fingerprint: u64,
        args: &[Value],
        value: MemoValue,
        epoch: MemoEpoch,
    ) {
        if self.capacity == 0 {
            return;
        }
        let mut shard = self
            .shard(fingerprint)
            .state
            .lock()
            .expect("memo shard poisoned");
        self.insert_locked(&mut shard, name, fingerprint, args, value, epoch);
    }

    /// Claims the evaluation of one argument tuple, coordinating racing workers:
    ///
    /// * a valid cached entry → [`Reservation::Hit`] (no evaluation needed);
    /// * nobody evaluating → [`Reservation::Reserved`]: the caller computes the
    ///   result and [`publish`](ReservationGuard::publish)es it;
    /// * another *thread* already evaluating the same fingerprint → block until it
    ///   publishes or abandons, then re-check (a publish becomes a `Hit`; an abandon
    ///   lets this caller take over the reservation);
    /// * the cache is disabled, or *this* thread already holds the reservation (a
    ///   self-recursive UDF must not deadlock on itself) → [`Reservation::Bypass`]:
    ///   evaluate without coordinating.
    pub fn reserve(
        &self,
        name: &str,
        fingerprint: u64,
        args: &[Value],
        epoch: MemoEpoch,
    ) -> Reservation<'_> {
        if self.capacity == 0 {
            return Reservation::Bypass;
        }
        let slot = self.shard(fingerprint);
        let mut shard: MutexGuard<'_, Shard> = slot.state.lock().expect("memo shard poisoned");
        let mut waited = false;
        loop {
            if let Some(value) = self.hit_locked(&mut shard, name, fingerprint, args, epoch) {
                return Reservation::Hit(value);
            }
            match shard.pending.get(&fingerprint) {
                Some(owner) if *owner == std::thread::current().id() => {
                    return Reservation::Bypass;
                }
                Some(_) => {
                    self.reservation_waits.fetch_add(1, Ordering::Relaxed);
                    waited = true;
                    shard = slot.published.wait(shard).expect("memo shard poisoned");
                }
                None => {
                    shard
                        .pending
                        .insert(fingerprint, std::thread::current().id());
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    return Reservation::Reserved(ReservationGuard {
                        memo: self,
                        fingerprint,
                        done: false,
                        took_over: waited,
                    });
                }
            }
        }
    }

    /// Counter snapshot (cumulative since construction).
    pub fn stats(&self) -> UdfMemoStats {
        UdfMemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            reservation_waits: self.reservation_waits.load(Ordering::Relaxed),
            entries: self
                .shards
                .iter()
                .map(|s| s.state.lock().expect("memo shard poisoned").entries.len() as u64)
                .sum(),
            capacity: self.capacity as u64,
        }
    }
}

/// The two result caches of a pure-UDF call behind one lookup and one publish: the
/// engine-owned cross-query memo (with the per-UDF epochs of the query's pinned
/// snapshot) and the per-query dedup tier. Either may be absent.
#[derive(Debug, Clone, Default)]
pub(crate) struct UdfCaches {
    pub(crate) memo: Option<Arc<UdfMemo>>,
    pub(crate) memo_epochs: Arc<BTreeMap<String, MemoEpoch>>,
    pub(crate) dedup: Option<Arc<UdfMemo>>,
}

impl UdfCaches {
    pub(crate) fn is_empty(&self) -> bool {
        self.memo.is_none() && self.dedup.is_none()
    }

    fn memo_epoch(&self, name: &str) -> MemoEpoch {
        self.memo_epochs.get(name).copied().unwrap_or(NO_EPOCH)
    }

    /// Looks one invocation up: the shared memo first, then a reservation in the
    /// per-query tier, which blocks while another thread evaluates the same tuple
    /// (`Bypass` without such a tier). A hit is booked in `stats` under its tier.
    pub(crate) fn lookup(
        &self,
        name: &str,
        fingerprint: u64,
        args: &[Value],
        stats: &AtomicExecStats,
    ) -> Reservation<'_> {
        if let Some(memo) = &self.memo {
            if let Some(value) = memo.get(name, fingerprint, args, self.memo_epoch(name)) {
                stats.add_udf_memo_hits(1);
                return Reservation::Hit(value);
            }
        }
        let Some(dedup) = &self.dedup else {
            return Reservation::Bypass;
        };
        let outcome = dedup.reserve(name, fingerprint, args, NO_EPOCH);
        if matches!(outcome, Reservation::Hit(_)) {
            stats.add_udf_dedup_hits(1);
        }
        outcome
    }

    /// Writes an evaluated result into every attached tier; through `reservation`,
    /// when [`lookup`](UdfCaches::lookup) granted one, which wakes the workers waiting
    /// on this tuple.
    pub(crate) fn publish(
        &self,
        name: &str,
        fingerprint: u64,
        args: &[Value],
        value: &MemoValue,
        reservation: Option<ReservationGuard<'_>>,
    ) {
        match (reservation, &self.dedup) {
            (Some(guard), _) => guard.publish(name, args, value.clone(), NO_EPOCH),
            (None, Some(dedup)) => dedup.insert(name, fingerprint, args, value.clone(), NO_EPOCH),
            (None, None) => {}
        }
        if let Some(memo) = &self.memo {
            let epoch = self.memo_epoch(name);
            memo.insert(name, fingerprint, args, value.clone(), epoch);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(v: i64) -> MemoValue {
        MemoValue::Scalar(Value::Int(v))
    }

    #[test]
    fn roundtrip_and_counters() {
        let memo = UdfMemo::with_capacity(64);
        let args = vec![Value::Int(7)];
        let fp = fingerprint_invocation("f", &args);
        assert_eq!(memo.get("f", fp, &args, NO_EPOCH), None);
        memo.insert("f", fp, &args, scalar(14), NO_EPOCH);
        assert_eq!(memo.get("f", fp, &args, NO_EPOCH), Some(scalar(14)));
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn exact_type_identity_not_sql_equality() {
        let memo = UdfMemo::with_capacity(64);
        let int_args = vec![Value::Int(2)];
        let float_args = vec![Value::Float(2.0)];
        let int_fp = fingerprint_invocation("f", &int_args);
        let float_fp = fingerprint_invocation("f", &float_args);
        assert_ne!(
            int_fp, float_fp,
            "type tag must separate Int(2) from Float(2.0)"
        );
        memo.insert("f", int_fp, &int_args, scalar(1), NO_EPOCH);
        assert_eq!(memo.get("f", float_fp, &float_args, NO_EPOCH), None);
        // A colliding fingerprint with different arguments reads a miss, not the
        // stored value.
        assert_eq!(memo.get("f", int_fp, &float_args, NO_EPOCH), None);
        // Same fingerprint, different name: also a miss.
        assert_eq!(memo.get("g", int_fp, &int_args, NO_EPOCH), None);
    }

    #[test]
    fn zero_capacity_disables_without_panicking() {
        let memo = UdfMemo::with_capacity(0);
        assert!(!memo.is_enabled());
        let args = vec![Value::Int(1)];
        let fp = fingerprint_invocation("f", &args);
        memo.insert("f", fp, &args, scalar(1), NO_EPOCH);
        assert_eq!(memo.get("f", fp, &args, NO_EPOCH), None);
        assert_eq!(memo.stats().entries, 0);
        assert!(matches!(
            memo.reserve("f", fp, &args, NO_EPOCH),
            Reservation::Bypass
        ));
        let stats = memo.stats();
        assert_eq!(stats.insertions, 0);
        assert_eq!(stats.evictions, 0);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        // Capacity 8 → one slot per shard; two keys landing in one shard evict LRU.
        let memo = UdfMemo::with_capacity(8);
        // Find three invocations that map to the same shard.
        let mut same_shard = vec![];
        for i in 0..1000 {
            let args = vec![Value::Int(i)];
            let fp = fingerprint_invocation("f", &args);
            if (fp as usize).is_multiple_of(SHARDS) {
                same_shard.push((args, fp));
                if same_shard.len() == 3 {
                    break;
                }
            }
        }
        let [(a, fa), (b, fb), (c, fc)] = <[_; 3]>::try_from(same_shard).unwrap();
        memo.insert("f", fa, &a, scalar(1), NO_EPOCH);
        memo.insert("f", fb, &b, scalar(2), NO_EPOCH);
        // `a` was evicted to make room for `b`.
        assert_eq!(memo.get("f", fa, &a, NO_EPOCH), None);
        assert_eq!(memo.get("f", fb, &b, NO_EPOCH), Some(scalar(2)));
        // Touch `b`, insert `c`: `b` is most-recent, so `c` replaces it anyway in a
        // one-slot shard — but after a re-insert of `b`, a get must still hit.
        memo.insert("f", fc, &c, scalar(3), NO_EPOCH);
        assert_eq!(memo.get("f", fb, &b, NO_EPOCH), None);
        assert_eq!(memo.get("f", fc, &c, NO_EPOCH), Some(scalar(3)));
        assert!(memo.stats().evictions >= 2);
    }

    #[test]
    fn epoch_mismatch_invalidates_stale_entries() {
        let memo = UdfMemo::with_capacity(64);
        let args = vec![Value::Int(1)];
        let fp = fingerprint_invocation("f", &args);
        memo.insert("f", fp, &args, scalar(10), (1, 0, 0));
        // Same epoch: served.
        assert_eq!(memo.get("f", fp, &args, (1, 0, 0)), Some(scalar(10)));
        // Registry generation bumped (UDF redefined): stale entry dropped.
        assert_eq!(memo.get("f", fp, &args, (2, 0, 0)), None);
        assert_eq!(memo.stats().invalidations, 1);
        assert_eq!(
            memo.stats().entries,
            0,
            "stale entry must be evicted, not retained"
        );
        // Data version bumped: same.
        memo.insert("f", fp, &args, scalar(20), (2, 0, 0));
        assert_eq!(memo.get("f", fp, &args, (2, 0, 1)), None);
        assert_eq!(memo.stats().invalidations, 2);
        // Entries under *different* epochs for different UDFs coexist: stamping is
        // per entry, not a global flush.
        let g_args = vec![Value::Int(2)];
        let g_fp = fingerprint_invocation("g", &g_args);
        memo.insert("f", fp, &args, scalar(30), (2, 0, 1));
        memo.insert("g", g_fp, &g_args, scalar(40), (2, 0, 7));
        assert_eq!(memo.get("f", fp, &args, (2, 0, 1)), Some(scalar(30)));
        assert_eq!(memo.get("g", g_fp, &g_args, (2, 0, 7)), Some(scalar(40)));
    }

    #[test]
    fn table_values_roundtrip() {
        let memo = UdfMemo::with_capacity(64);
        let args = vec![Value::Str("x".into())];
        let fp = fingerprint_invocation("t", &args);
        let rows = vec![Row::new(vec![Value::Int(1)]), Row::new(vec![Value::Int(2)])];
        memo.insert("t", fp, &args, MemoValue::Table(rows.clone()), NO_EPOCH);
        assert_eq!(
            memo.get("t", fp, &args, NO_EPOCH),
            Some(MemoValue::Table(rows))
        );
    }

    #[test]
    fn reservation_hit_miss_and_publish() {
        let memo = UdfMemo::with_capacity(64);
        let args = vec![Value::Int(5)];
        let fp = fingerprint_invocation("f", &args);
        // First reservation claims the evaluation.
        let guard = match memo.reserve("f", fp, &args, NO_EPOCH) {
            Reservation::Reserved(g) => g,
            other => panic!("expected Reserved, got {other:?}"),
        };
        guard.publish("f", &args, scalar(10), NO_EPOCH);
        // After publish, a second reservation is a Hit.
        match memo.reserve("f", fp, &args, NO_EPOCH) {
            Reservation::Hit(v) => assert_eq!(v, scalar(10)),
            other => panic!("expected Hit, got {other:?}"),
        }
        let stats = memo.stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
    }

    #[test]
    fn abandoned_reservation_lets_the_next_caller_take_over() {
        let memo = UdfMemo::with_capacity(64);
        let args = vec![Value::Int(5)];
        let fp = fingerprint_invocation("f", &args);
        {
            let _guard = match memo.reserve("f", fp, &args, NO_EPOCH) {
                Reservation::Reserved(g) => g,
                other => panic!("expected Reserved, got {other:?}"),
            };
            // Dropped without publish: evaluation failed.
        }
        match memo.reserve("f", fp, &args, NO_EPOCH) {
            Reservation::Reserved(g) => assert!(
                !g.took_over(),
                "same-thread re-reserve never waited, so it did not take over"
            ),
            other => panic!("expected Reserved, got {other:?}"),
        };
    }

    /// A waiter that sleeps on another worker's reservation and wakes to find it
    /// gone (abandoned here; evicted-after-publish is the other path) takes the
    /// reservation over — and the guard reports it, so the interpreter can keep the
    /// duplicate evaluation out of the invocation counters.
    #[test]
    fn waiter_that_takes_over_reports_it() {
        use std::sync::Arc;
        let memo = Arc::new(UdfMemo::with_capacity(64));
        let args = vec![Value::Int(11)];
        let fp = fingerprint_invocation("f", &args);
        let guard = match memo.reserve("f", fp, &args, NO_EPOCH) {
            Reservation::Reserved(g) => g,
            other => panic!("expected Reserved, got {other:?}"),
        };
        assert!(!guard.took_over(), "the uncontended winner never waited");
        let waiter = {
            let memo = Arc::clone(&memo);
            let args = args.clone();
            std::thread::spawn(move || match memo.reserve("f", fp, &args, NO_EPOCH) {
                Reservation::Reserved(g) => {
                    let took_over = g.took_over();
                    g.publish("f", &args, scalar(22), NO_EPOCH);
                    took_over
                }
                other => panic!("expected to take over the reservation, got {other:?}"),
            })
        };
        // Give the waiter time to block on the condvar, then abandon the
        // reservation: the waiter must wake, take over, and know it did.
        std::thread::sleep(std::time::Duration::from_millis(100));
        drop(guard);
        assert!(
            waiter.join().unwrap(),
            "a waiter that slept through an abandon must report took_over"
        );
        assert_eq!(memo.get("f", fp, &args, NO_EPOCH), Some(scalar(22)));
    }

    #[test]
    fn reentrant_reservation_bypasses_instead_of_deadlocking() {
        let memo = UdfMemo::with_capacity(64);
        let args = vec![Value::Int(5)];
        let fp = fingerprint_invocation("f", &args);
        let _guard = match memo.reserve("f", fp, &args, NO_EPOCH) {
            Reservation::Reserved(g) => g,
            other => panic!("expected Reserved, got {other:?}"),
        };
        // Same thread, same fingerprint (self-recursive UDF): must not block.
        assert!(matches!(
            memo.reserve("f", fp, &args, NO_EPOCH),
            Reservation::Bypass
        ));
    }

    #[test]
    fn racing_reservations_coalesce_onto_one_evaluation() {
        use std::sync::Arc;
        let memo = Arc::new(UdfMemo::with_capacity(64));
        let args = vec![Value::Int(9)];
        let fp = fingerprint_invocation("f", &args);
        let guard = match memo.reserve("f", fp, &args, NO_EPOCH) {
            Reservation::Reserved(g) => g,
            other => panic!("expected Reserved, got {other:?}"),
        };
        // Spawn waiters that race on the reserved fingerprint; they must block until
        // the publish below and then all observe the published value.
        let waiters: Vec<_> = (0..4)
            .map(|_| {
                let memo = Arc::clone(&memo);
                let args = args.clone();
                std::thread::spawn(move || match memo.reserve("f", fp, &args, NO_EPOCH) {
                    Reservation::Hit(v) => v,
                    other => panic!("waiter expected Hit, got {other:?}"),
                })
            })
            .collect();
        // Give the waiters a moment to actually park on the condvar.
        std::thread::sleep(std::time::Duration::from_millis(20));
        guard.publish("f", &args, scalar(81), NO_EPOCH);
        for w in waiters {
            assert_eq!(w.join().unwrap(), scalar(81));
        }
        let stats = memo.stats();
        assert_eq!(stats.insertions, 1, "exactly one evaluation published");
        assert_eq!(stats.hits, 4);
        assert!(stats.reservation_waits >= 1);
    }
}
