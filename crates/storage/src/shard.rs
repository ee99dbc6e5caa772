//! Table shards and the row chunks inside them.
//!
//! Two units, two jobs:
//!
//! * The **shard** is the unit of pruning, statistics maintenance and parallel fanout.
//!   A [`Table`](crate::table::Table) owns a fixed-fanout set of `Arc<Shard>`s
//!   (`shard_count`); each shard caches its own [`ShardStatistics`] summary (so ANALYZE
//!   is incremental: only shards that changed re-sample), and the cached full-pass
//!   min/max lets scans prune shards whose value range provably misses a predicate.
//! * The **chunk** is the unit of copy-on-write. A shard keeps its rows in chunks of a
//!   fixed capacity (`CHUNK_ROWS`, private). A chunk that has filled up is sealed
//!   behind an `Arc`: it is never written, and so never copied, again. A writer that
//!   appends to a shard it shares with a pinned reader copies the list of sealed-chunk
//!   handles and the one open tail chunk — at most one chunk of rows, whatever the
//!   size of the shard or the table. A single-shard table (`shard_count(1)`, the
//!   default) therefore pays the same for an insert as a many-shard one.
//!
//! Chunks are invisible above this module except as the *runs* a scan is handed:
//! [`Shard::runs`], [`RowsView::chunks`] and [`ShardSet::slices`] yield `&[Row]`
//! slices, one per chunk touched, in scan order. A row's position inside its shard
//! (the offset half of a [`RowLocator`](crate::index::RowLocator)) maps to a chunk by
//! division, because every chunk but the last holds exactly `CHUNK_ROWS` rows.
//!
//! Two read-side views exist over a shard set:
//!
//! * [`RowsView`] borrows the table — the everyday replacement for the retired
//!   contiguous `Table::rows()` slice;
//! * [`ShardSet`] owns `Arc` handles plus prefix offsets — the `'static`,
//!   cheaply-cloned form the executor's worker-pool jobs capture, mapping global
//!   morsel ranges onto row runs with no intermediate copy-out.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::ops::Range;
use std::sync::{Arc, RwLock};

use decorr_common::{Row, Schema};

use decorr_stats::{AnalyzeConfig, ShardStatistics};

/// How a table routes inserted rows onto its shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ShardPolicy {
    /// Rows append to the last open shard; new shards open as the table grows (up to
    /// the configured fanout). Shards are contiguous insertion-order segments, so the
    /// global scan order equals insertion order at *every* fanout — the invariant the
    /// byte-identity contract across shard counts rests on.
    #[default]
    AppendToLast,
    /// Rows route by a hash of their values; all shards exist up front. Scan order
    /// differs from insertion order, so this policy is for workloads that never
    /// relied on it (and for exercising empty/skewed shards in tests).
    Hash,
}

/// Rows per chunk. A power of two, so mapping a shard offset to its chunk is a shift
/// and a mask. It bounds what one insert into a shared shard copies (the open tail, on
/// average half of this) against the number of chunk handles a shard of `n` rows
/// carries (`n / CHUNK_ROWS`, cloned with the shard) and the number of runs a scan is
/// handed. At 512 the tail copy is about 10 µs, a fifth of what parsing the `INSERT`
/// that caused it costs, and a 50 000-row shard is 97 handles.
pub(crate) const CHUNK_ROWS: usize = 512;

/// One shard: a run of rows in insertion order, stored as fixed-capacity chunks, plus
/// a lazily-computed statistics summary.
///
/// The summary is cached under the same dirty-on-write discipline as table-level
/// statistics: appending a row clears it, and the next statistics pass recomputes
/// only the shards whose cache is empty (or was computed at the wrong tier).
#[derive(Debug, Default)]
pub struct Shard {
    /// Full chunks of exactly [`CHUNK_ROWS`] rows each. Never written again, so every
    /// clone of the shard shares them. A slice behind the `Arc`, not a `Vec`: a row's
    /// address then follows from the handle alone, one load less per point access.
    sealed: Vec<Arc<[Row]>>,
    /// The open chunk, fewer than [`CHUNK_ROWS`] rows: the only rows a clone copies.
    tail: Vec<Row>,
    /// Cached summary; `None` marks it dirty. Interior mutability so lazily ensuring
    /// summaries works through the shared references the executor holds.
    summary: RwLock<Option<Arc<ShardStatistics>>>,
}

impl Clone for Shard {
    /// The copy a writer makes of a shard it shares with a reader: the sealed chunks
    /// by handle, the open tail by value.
    fn clone(&self) -> Shard {
        Shard {
            sealed: self.sealed.clone(),
            tail: self.tail.clone(),
            summary: RwLock::new(self.cached_summary()),
        }
    }
}

impl Shard {
    /// An empty shard with no cached summary.
    pub fn new() -> Shard {
        Shard::default()
    }

    /// Rebuilds a shard around an exact row vector — the snapshot-restore
    /// constructor. The summary starts dirty; statistics recompute lazily.
    pub fn from_rows(rows: Vec<Row>) -> Shard {
        let mut sealed = Vec::with_capacity(rows.len() / CHUNK_ROWS);
        let mut rows = rows.into_iter();
        let tail = loop {
            let chunk: Vec<Row> = rows.by_ref().take(CHUNK_ROWS).collect();
            if chunk.len() < CHUNK_ROWS {
                break chunk;
            }
            sealed.push(Arc::from(chunk));
        };
        Shard {
            sealed,
            tail,
            summary: RwLock::new(None),
        }
    }

    /// The shard's rows in insertion order, as one `&[Row]` run per chunk.
    pub fn runs(&self) -> Runs<'_> {
        Runs {
            shards: Default::default(),
            shard: Some(self),
            next: 0,
        }
    }

    /// The `index`-th run: a sealed chunk, or past them the open tail.
    fn run(&self, index: usize) -> &[Row] {
        self.sealed.get(index).map_or(&self.tail, |chunk| chunk)
    }

    fn run_count(&self) -> usize {
        self.sealed.len() + usize::from(!self.tail.is_empty())
    }

    /// The row at `offset` (must be in bounds).
    pub fn row(&self, offset: usize) -> &Row {
        &self.run(offset / CHUNK_ROWS)[offset % CHUNK_ROWS]
    }

    /// Every row, copied into one vector — the snapshot encoding of a shard.
    pub fn to_vec(&self) -> Vec<Row> {
        self.runs().collect::<Vec<_>>().concat()
    }

    /// Number of rows in the shard.
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK_ROWS + self.tail.len()
    }

    /// True when the shard holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Appends a row and dirties the cached summary. Only the open tail is ever
    /// written; the row that fills it seals it.
    pub(crate) fn push(&mut self, row: Row) {
        self.tail.push(row);
        if self.tail.len() == CHUNK_ROWS {
            self.sealed.push(Arc::from(std::mem::take(&mut self.tail)));
        }
        *self.summary.get_mut().expect("shard summary poisoned") = None;
    }

    /// The cached summary, if the shard is clean. Never computes — scan-time pruning
    /// must not pay a statistics pass, so dirty shards simply decline to prune.
    pub fn cached_summary(&self) -> Option<Arc<ShardStatistics>> {
        self.summary.read().expect("shard summary poisoned").clone()
    }

    /// The shard's summary at the tier `config` implies, computing (and caching) it
    /// only when the cache is dirty or was computed at the other tier. Every real
    /// recompute bumps `recomputes` — the regression metric proving ANALYZE stays
    /// incremental.
    pub(crate) fn ensure_summary(
        &self,
        schema: &Schema,
        config: Option<&AnalyzeConfig>,
        shard_index: u64,
        recomputes: &std::sync::atomic::AtomicU64,
    ) -> Arc<ShardStatistics> {
        let wanted_analyzed = config.is_some();
        if let Some(cached) = self.cached_summary() {
            if cached.analyzed == wanted_analyzed {
                return cached;
            }
        }
        // Double-checked under the write lock so concurrent readers that raced past
        // the fast path compute (and count) the pass only once.
        let mut slot = self.summary.write().expect("shard summary poisoned");
        if let Some(cached) = slot.as_ref() {
            if cached.analyzed == wanted_analyzed {
                return Arc::clone(cached);
            }
        }
        let runs: Vec<&[Row]> = self.runs().collect();
        let computed = Arc::new(match config {
            Some(c) => ShardStatistics::analyzed(schema, &runs, c, shard_index),
            None => ShardStatistics::basic(schema, &runs),
        });
        recomputes.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        *slot = Some(Arc::clone(&computed));
        computed
    }

    /// Routing hash for [`ShardPolicy::Hash`]: a hash over the row's value group
    /// keys (NULL-safe, Int/Float-unifying like every other value-keyed structure).
    pub(crate) fn route_hash(row: &Row) -> u64 {
        let mut h = DefaultHasher::new();
        for v in &row.values {
            v.group_key().hash(&mut h);
        }
        h.finish()
    }

    /// The sealed chunk handles, for tests that assert which chunks two shards share.
    #[cfg(test)]
    pub(crate) fn sealed(&self) -> &[Arc<[Row]>] {
        &self.sealed
    }
}

/// The row runs of one shard or of a sequence of shards, in scan order: one `&[Row]`
/// per chunk, none empty.
#[derive(Debug, Clone)]
pub struct Runs<'a> {
    shards: std::slice::Iter<'a, Arc<Shard>>,
    shard: Option<&'a Shard>,
    /// Index of the next run of `shard`.
    next: usize,
}

impl<'a> Runs<'a> {
    fn over(shards: &'a [Arc<Shard>]) -> Runs<'a> {
        Runs {
            shards: shards.iter(),
            shard: None,
            next: 0,
        }
    }
}

impl<'a> Iterator for Runs<'a> {
    type Item = &'a [Row];

    fn next(&mut self) -> Option<&'a [Row]> {
        loop {
            if let Some(shard) = self.shard.filter(|s| self.next < s.run_count()) {
                self.next += 1;
                return Some(shard.run(self.next - 1));
            }
            self.shard = Some(self.shards.next()?);
            self.next = 0;
        }
    }
}

/// A borrowed view over a table's shards — the replacement for the retired
/// `Table::rows() -> &[Row]` contract. Iteration visits rows in global scan order;
/// [`chunks`](RowsView::chunks) yields morsel-sized slices that never cross a run
/// boundary; [`collect_rows`](RowsView::collect_rows) is the explicit escape hatch
/// for callers that genuinely need one contiguous vector.
#[derive(Debug, Clone, Copy)]
pub struct RowsView<'a> {
    shards: &'a [Arc<Shard>],
    len: usize,
}

impl<'a> RowsView<'a> {
    pub(crate) fn new(shards: &'a [Arc<Shard>], len: usize) -> RowsView<'a> {
        RowsView { shards, len }
    }

    /// Total number of rows across all shards.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// All rows in global scan order.
    pub fn iter(&self) -> impl Iterator<Item = &'a Row> {
        Runs::over(self.shards).flatten()
    }

    /// Morsel-sized row slices, at most `size` rows each, never crossing a run
    /// boundary (each slice is contiguous in one chunk's storage).
    pub fn chunks(&self, size: usize) -> impl Iterator<Item = &'a [Row]> {
        let size = size.max(1);
        Runs::over(self.shards).flat_map(move |run| run.chunks(size))
    }

    /// The row at global position `i`, if in bounds.
    pub fn get(&self, mut i: usize) -> Option<&'a Row> {
        for shard in self.shards {
            if i < shard.len() {
                return Some(shard.row(i));
            }
            i -= shard.len();
        }
        None
    }

    /// Materializes every row into one contiguous vector — the explicit escape hatch
    /// for consumers of the old contiguous-slice contract.
    pub fn collect_rows(&self) -> Vec<Row> {
        Runs::over(self.shards).collect::<Vec<_>>().concat()
    }
}

impl<'a> IntoIterator for RowsView<'a> {
    type Item = &'a Row;
    type IntoIter = std::iter::Flatten<Runs<'a>>;

    fn into_iter(self) -> Self::IntoIter {
        Runs::over(self.shards).flatten()
    }
}

/// An owned, cheaply-cloned handle onto a set of shards plus prefix offsets: the
/// `'static` form of [`RowsView`] the executor's worker-pool jobs capture. A global
/// row range (a morsel) maps onto row runs via [`slices`](ShardSet::slices) with no
/// row copied.
#[derive(Debug, Clone, Default)]
pub struct ShardSet {
    shards: Vec<Arc<Shard>>,
    /// Prefix sums: `offsets[i]` is the global position of shard `i`'s first row;
    /// the final entry is the total row count.
    offsets: Vec<usize>,
}

impl ShardSet {
    /// Wraps a set of shard handles, computing the prefix offsets.
    pub fn new(shards: Vec<Arc<Shard>>) -> ShardSet {
        let mut offsets = Vec::with_capacity(shards.len() + 1);
        let mut total = 0usize;
        offsets.push(0);
        for shard in &shards {
            total += shard.len();
            offsets.push(total);
        }
        ShardSet { shards, offsets }
    }

    /// Total number of rows across all shards.
    pub fn len(&self) -> usize {
        *self.offsets.last().unwrap_or(&0)
    }

    /// True when the set covers no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards in the set.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The underlying shard handles.
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// The row runs covering the global row range — the zero-copy morsel source. A
    /// run never crosses a chunk (and so never a shard); empty intersections are
    /// skipped.
    pub fn slices(&self, range: Range<usize>) -> ShardSlices<'_> {
        let end = range.end.min(self.len());
        let start = range.start.min(end);
        // First shard whose span contains `start`.
        let shard = self
            .offsets
            .partition_point(|&o| o <= start)
            .saturating_sub(1);
        ShardSlices {
            set: self,
            shard,
            start,
            end,
        }
    }

    /// Rows of the global range, one at a time, in scan order.
    pub fn iter_range(&self, range: Range<usize>) -> impl Iterator<Item = &Row> {
        self.slices(range).flatten()
    }

    /// All rows, in scan order.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        Runs::over(&self.shards).flatten()
    }

    /// The row at global position `i`, if in bounds — a binary search over the prefix
    /// offsets (the hash-join probe resolves build-side matches by global index).
    pub fn get(&self, i: usize) -> Option<&Row> {
        if i >= self.len() {
            return None;
        }
        let shard = self.offsets.partition_point(|&o| o <= i) - 1;
        Some(self.shards[shard].row(i - self.offsets[shard]))
    }

    /// Materializes the global range into one vector (used where an operator's output
    /// genuinely is a contiguous row vector, e.g. a scan result).
    pub fn collect_range(&self, range: Range<usize>) -> Vec<Row> {
        let end = range.end.min(self.len());
        let start = range.start.min(end);
        let mut out = Vec::with_capacity(end - start);
        for slice in self.slices(start..end) {
            out.extend_from_slice(slice);
        }
        out
    }

    /// Materializes every row.
    pub fn collect_rows(&self) -> Vec<Row> {
        self.collect_range(0..self.len())
    }
}

/// Iterator of row runs covering a global row range (see [`ShardSet::slices`]).
#[derive(Debug)]
pub struct ShardSlices<'a> {
    set: &'a ShardSet,
    shard: usize,
    start: usize,
    end: usize,
}

impl<'a> Iterator for ShardSlices<'a> {
    type Item = &'a [Row];

    fn next(&mut self) -> Option<&'a [Row]> {
        while self.start < self.end && self.shard < self.set.shards.len() {
            let lo = self.set.offsets[self.shard];
            let hi = self.set.offsets[self.shard + 1];
            if self.start >= hi {
                self.shard += 1;
                continue;
            }
            // `start` lies inside this shard, so inside exactly one of its chunks.
            let begin = self.start - lo;
            let chunk = self.set.shards[self.shard].run(begin / CHUNK_ROWS);
            let within = begin % CHUNK_ROWS;
            let stop = chunk.len().min(within + (self.end.min(hi) - self.start));
            self.start += stop - within;
            return Some(&chunk[within..stop]);
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::Value;

    fn shard_of(values: Range<i64>) -> Arc<Shard> {
        let mut s = Shard::new();
        for i in values {
            s.push(Row::new(vec![Value::Int(i)]));
        }
        Arc::new(s)
    }

    fn ints(rows: Vec<Row>) -> Vec<i64> {
        rows.iter()
            .map(|r| match r.get(0) {
                Value::Int(i) => *i,
                other => panic!("unexpected value {other:?}"),
            })
            .collect()
    }

    #[test]
    fn shard_set_maps_global_ranges_onto_shard_slices() {
        let set = ShardSet::new(vec![shard_of(0..4), shard_of(4..4), shard_of(4..10)]);
        assert_eq!(set.len(), 10);
        assert_eq!(set.shard_count(), 3);
        // A range inside one shard.
        assert_eq!(ints(set.collect_range(1..3)), vec![1, 2]);
        // A range crossing the (empty) middle shard.
        assert_eq!(ints(set.collect_range(2..7)), vec![2, 3, 4, 5, 6]);
        let slices: Vec<usize> = set.slices(2..7).map(<[Row]>::len).collect();
        assert_eq!(slices, vec![2, 3], "two shard-local slices, no copy");
        // Degenerate and clamped ranges.
        assert!(set.collect_range(5..5).is_empty());
        assert_eq!(ints(set.collect_range(8..usize::MAX)), vec![8, 9]);
        // Point lookups by global index, across the empty middle shard.
        assert_eq!(set.get(3), Some(&Row::new(vec![Value::Int(3)])));
        assert_eq!(set.get(4), Some(&Row::new(vec![Value::Int(4)])));
        assert_eq!(set.get(10), None);
        // Full iteration order is global scan order.
        assert_eq!(ints(set.collect_rows()), (0..10).collect::<Vec<_>>());
        assert_eq!(set.iter_range(0..10).count(), 10);
        assert_eq!(set.iter().count(), 10);
    }

    #[test]
    fn ranges_cross_chunk_boundaries_without_a_seam() {
        let n = (2 * CHUNK_ROWS + 10) as i64;
        // A shard grown row by row and one rebuilt from a vector chunk identically.
        let pushed = shard_of(0..n);
        let rebuilt = Shard::from_rows(pushed.to_vec());
        let run_lens = |s: &Shard| s.runs().map(<[Row]>::len).collect::<Vec<_>>();
        assert_eq!(run_lens(&pushed), vec![CHUNK_ROWS, CHUNK_ROWS, 10]);
        assert_eq!(run_lens(&rebuilt), run_lens(&pushed));
        assert_eq!(pushed.len(), n as usize);
        assert_eq!(ints(rebuilt.to_vec()), (0..n).collect::<Vec<_>>());

        let set = ShardSet::new(vec![shard_of(0..3), pushed, shard_of(n..n + 5)]);
        assert_eq!(set.len(), n as usize + 8);
        // Global position g holds the value g - 3 inside the middle shard.
        let lo = 3 + CHUNK_ROWS - 2;
        let hi = 3 + 2 * CHUNK_ROWS + 1;
        let lens: Vec<usize> = set.slices(lo..hi).map(<[Row]>::len).collect();
        assert_eq!(lens, vec![2, CHUNK_ROWS, 1], "one run per chunk touched");
        assert_eq!(
            ints(set.collect_range(lo..hi)),
            (lo as i64 - 3..hi as i64 - 3).collect::<Vec<_>>()
        );
        // A range over everything: shard and chunk seams alike are invisible.
        let all: Vec<i64> = (0..3).chain(0..n).chain(n..n + 5).collect();
        assert_eq!(ints(set.collect_rows()), all);
        assert_eq!(set.iter().count(), all.len());
        for g in [0, 2, 3, 3 + CHUNK_ROWS - 1, 3 + CHUNK_ROWS, set.len() - 1] {
            assert_eq!(set.get(g), Some(&Row::new(vec![Value::Int(all[g])])));
        }
        assert_eq!(set.get(set.len()), None);
    }

    #[test]
    fn appending_to_a_shared_shard_copies_only_its_open_tail() {
        let mut writer = Shard::clone(&shard_of(0..(CHUNK_ROWS as i64 + 7)));
        let reader = writer.clone();
        writer.push(Row::new(vec![Value::Int(-1)]));
        assert!(Arc::ptr_eq(&writer.sealed()[0], &reader.sealed()[0]));
        assert_eq!(
            (reader.len(), writer.len()),
            (CHUNK_ROWS + 7, CHUNK_ROWS + 8)
        );
        assert_eq!(reader.row(CHUNK_ROWS + 6), writer.row(CHUNK_ROWS + 6));
        assert_eq!(writer.row(CHUNK_ROWS + 7), &Row::new(vec![Value::Int(-1)]));
        // The row that fills the tail seals it, and the next one opens a new tail.
        for i in 0..CHUNK_ROWS as i64 {
            writer.push(Row::new(vec![Value::Int(i)]));
        }
        let run_lens: Vec<usize> = writer.runs().map(<[Row]>::len).collect();
        assert_eq!(run_lens, vec![CHUNK_ROWS, CHUNK_ROWS, 8]);
        assert_eq!(
            reader.runs().map(<[Row]>::len).sum::<usize>(),
            CHUNK_ROWS + 7
        );
    }

    #[test]
    fn empty_shard_set_is_sane() {
        let set = ShardSet::new(vec![]);
        assert_eq!(set.len(), 0);
        assert!(set.is_empty());
        assert!(set.slices(0..10).next().is_none());
        assert!(set.collect_rows().is_empty());
    }

    #[test]
    fn rows_view_chunks_never_cross_shard_boundaries() {
        let shards = vec![shard_of(0..5), shard_of(5..8)];
        let view = RowsView::new(&shards, 8);
        assert_eq!(view.len(), 8);
        let chunk_lens: Vec<usize> = view.chunks(4).map(<[Row]>::len).collect();
        assert_eq!(
            chunk_lens,
            vec![4, 1, 3],
            "shard 0 splits 4+1, shard 1 is whole"
        );
        assert_eq!(ints(view.collect_rows()), (0..8).collect::<Vec<_>>());
        assert_eq!(view.get(5), Some(&Row::new(vec![Value::Int(5)])));
        assert_eq!(view.get(8), None);
        assert_eq!(view.iter().count(), 8);
        let mut seen = 0;
        for _row in view {
            seen += 1;
        }
        assert_eq!(seen, 8);
    }
}
