//! The chunked, copy-on-write row store behind a [`Table`](crate::table::Table).
//!
//! Rows are kept in insertion order in chunks of a fixed capacity (`CHUNK_ROWS`,
//! private). A chunk that has filled up is sealed behind an `Arc`: it is never written,
//! and so never copied, again. A writer that appends to a store it shares with a pinned
//! reader copies the list of sealed-chunk handles and the one open tail chunk — at most
//! one chunk of rows, whatever the size of the table.
//!
//! Chunks are invisible above this module except as the *runs* a scan is handed:
//! [`RowStore::runs`] yields `&[Row]` slices, one per chunk touched, in scan order. A
//! row's position (a [`RowLocator`](crate::index::RowLocator), a morsel bound) maps to
//! its chunk by division, because every chunk but the last holds exactly `CHUNK_ROWS`
//! rows.
//!
//! Readers borrow the store from the table ([`Table::scan`](crate::table::Table::scan)):
//! the executor's morsel jobs run in a thread scope that ends before the borrow does,
//! and map morsel ranges onto row runs with no intermediate copy-out.

use std::ops::Range;
use std::sync::Arc;

use decorr_common::Row;

/// Rows per chunk. A power of two, so mapping a position to its chunk is a shift and a
/// mask. It bounds what one insert into a shared store copies (the open tail, on
/// average half of this) against the number of chunk handles a table of `n` rows
/// carries (`n / CHUNK_ROWS`, cloned with the store) and the number of runs a scan is
/// handed. At 512 the tail copy is about 10 µs, a fifth of what parsing the `INSERT`
/// that caused it costs, and a 50 000-row table is 97 handles.
pub(crate) const CHUNK_ROWS: usize = 512;

/// A table's rows in insertion order, stored as fixed-capacity chunks.
///
/// Cloning is the copy a writer makes of a store it shares with a reader: the sealed
/// chunks by handle, the open tail by value.
#[derive(Debug, Clone, Default)]
pub struct RowStore {
    /// Full chunks of exactly [`CHUNK_ROWS`] rows each. Never written again, so every
    /// clone of the store shares them. A slice behind the `Arc`, not a `Vec`: a row's
    /// address then follows from the handle alone, one load less per point access.
    sealed: Vec<Arc<[Row]>>,
    /// The open chunk, fewer than [`CHUNK_ROWS`] rows: the only rows a clone copies.
    tail: Vec<Row>,
}

impl RowStore {
    /// Builds a store around an exact row vector — the snapshot-restore constructor.
    pub(crate) fn from_rows(rows: Vec<Row>) -> RowStore {
        let mut sealed = Vec::with_capacity(rows.len() / CHUNK_ROWS);
        let mut rows = rows.into_iter();
        let tail = loop {
            let chunk: Vec<Row> = rows.by_ref().take(CHUNK_ROWS).collect();
            if chunk.len() < CHUNK_ROWS {
                break chunk;
            }
            sealed.push(Arc::from(chunk));
        };
        RowStore { sealed, tail }
    }

    /// Appends a row. Only the open tail is ever written; the row that fills it seals
    /// it.
    pub(crate) fn push(&mut self, row: Row) {
        self.tail.push(row);
        if self.tail.len() == CHUNK_ROWS {
            self.sealed.push(Arc::from(std::mem::take(&mut self.tail)));
        }
    }

    /// The `index`-th chunk: a sealed one, or past them the open tail.
    fn chunk(&self, index: usize) -> &[Row] {
        self.sealed.get(index).map_or(&self.tail, |chunk| chunk)
    }

    /// Number of rows in the store.
    pub fn len(&self) -> usize {
        self.sealed.len() * CHUNK_ROWS + self.tail.len()
    }

    /// True when the store holds no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The row at position `i`, if in bounds.
    pub fn get(&self, i: usize) -> Option<&Row> {
        (i < self.len()).then(|| &self.chunk(i / CHUNK_ROWS)[i % CHUNK_ROWS])
    }

    /// The row runs covering a range of positions (clamped to the store) — the
    /// zero-copy morsel source. One run per chunk touched, in scan order, none empty.
    pub fn runs(&self, range: Range<usize>) -> impl Iterator<Item = &[Row]> + '_ {
        let end = range.end.min(self.len());
        let start = range.start.min(end);
        let chunks = if start == end {
            0..0
        } else {
            start / CHUNK_ROWS..end.div_ceil(CHUNK_ROWS)
        };
        chunks.map(move |index| {
            let first = index * CHUNK_ROWS;
            let chunk = self.chunk(index);
            &chunk[start.saturating_sub(first)..chunk.len().min(end - first)]
        })
    }

    /// All rows, in scan order.
    pub fn iter(&self) -> impl Iterator<Item = &Row> + '_ {
        self.iter_range(0..self.len())
    }

    /// The rows of a range of positions, one at a time, in scan order.
    pub fn iter_range(&self, range: Range<usize>) -> impl Iterator<Item = &Row> + '_ {
        self.runs(range).flatten()
    }

    /// Copies a range of positions into one vector (used where an operator's output
    /// genuinely is a contiguous row vector, e.g. a scan result).
    pub fn collect_range(&self, range: Range<usize>) -> Vec<Row> {
        self.runs(range).collect::<Vec<_>>().concat()
    }

    /// Copies every row into one vector.
    pub fn collect_rows(&self) -> Vec<Row> {
        self.collect_range(0..self.len())
    }

    /// The sealed chunk handles, for tests that assert which chunks two stores share.
    #[cfg(test)]
    pub(crate) fn sealed(&self) -> &[Arc<[Row]>] {
        &self.sealed
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::Value;

    fn row(i: i64) -> Row {
        Row::new(vec![Value::Int(i)])
    }

    fn store_of(values: Range<i64>) -> RowStore {
        let mut store = RowStore::default();
        for i in values {
            store.push(row(i));
        }
        store
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
    fn ranges_cross_chunk_boundaries_without_a_seam() {
        let n = (2 * CHUNK_ROWS + 10) as i64;
        // A store grown row by row and one rebuilt from a vector chunk identically.
        let pushed = store_of(0..n);
        let rebuilt = RowStore::from_rows(pushed.collect_rows());
        let run_lens = |s: &RowStore, range| s.runs(range).map(<[Row]>::len).collect::<Vec<_>>();
        assert_eq!(
            run_lens(&pushed, 0..usize::MAX),
            vec![CHUNK_ROWS, CHUNK_ROWS, 10]
        );
        assert_eq!(
            run_lens(&rebuilt, 0..usize::MAX),
            run_lens(&pushed, 0..usize::MAX)
        );
        assert_eq!(pushed.len(), n as usize);
        assert_eq!(ints(rebuilt.collect_rows()), (0..n).collect::<Vec<_>>());
        assert_eq!(pushed.iter().count(), n as usize);

        let (lo, hi) = (CHUNK_ROWS - 2, 2 * CHUNK_ROWS + 1);
        assert_eq!(
            run_lens(&pushed, lo..hi),
            vec![2, CHUNK_ROWS, 1],
            "one run per chunk touched"
        );
        assert_eq!(
            ints(pushed.collect_range(lo..hi)),
            (lo as i64..hi as i64).collect::<Vec<_>>()
        );
        assert_eq!(pushed.iter_range(lo..hi).count(), hi - lo);
        // Degenerate and clamped ranges.
        assert!(pushed.runs(5..5).next().is_none());
        assert!(pushed.runs(CHUNK_ROWS..CHUNK_ROWS).next().is_none());
        assert_eq!(
            ints(pushed.collect_range(n as usize - 2..usize::MAX)),
            vec![n - 2, n - 1]
        );
        for i in [0, CHUNK_ROWS - 1, CHUNK_ROWS, n as usize - 1] {
            assert_eq!(pushed.get(i), Some(&row(i as i64)));
        }
        assert_eq!(pushed.get(n as usize), None);
        assert_eq!(
            pushed.get(3 * CHUNK_ROWS + 3),
            None,
            "past the tail's chunk"
        );
        // A store that ends exactly on a chunk boundary has an empty tail and no run for it.
        let full = store_of(0..CHUNK_ROWS as i64);
        assert_eq!(run_lens(&full, 0..usize::MAX), vec![CHUNK_ROWS]);
        assert_eq!(full.get(CHUNK_ROWS), None);
    }

    #[test]
    fn appending_to_a_shared_store_copies_only_its_open_tail() {
        let mut writer = store_of(0..(CHUNK_ROWS as i64 + 7));
        let reader = writer.clone();
        writer.push(row(-1));
        assert!(Arc::ptr_eq(&writer.sealed()[0], &reader.sealed()[0]));
        assert_eq!(
            (reader.len(), writer.len()),
            (CHUNK_ROWS + 7, CHUNK_ROWS + 8)
        );
        assert_eq!(reader.get(CHUNK_ROWS + 6), writer.get(CHUNK_ROWS + 6));
        assert_eq!(reader.get(CHUNK_ROWS + 7), None);
        assert_eq!(writer.get(CHUNK_ROWS + 7), Some(&row(-1)));
        // The row that fills the tail seals it, and the next one opens a new tail.
        for i in 0..CHUNK_ROWS as i64 {
            writer.push(row(i));
        }
        let run_lens: Vec<usize> = writer.runs(0..usize::MAX).map(<[Row]>::len).collect();
        assert_eq!(run_lens, vec![CHUNK_ROWS, CHUNK_ROWS, 8]);
        assert_eq!(reader.iter().count(), CHUNK_ROWS + 7);
    }

    #[test]
    fn empty_store_is_sane() {
        let store = RowStore::default();
        assert_eq!(store.len(), 0);
        assert!(store.is_empty());
        assert!(store.runs(0..10).next().is_none());
        assert!(store.collect_rows().is_empty());
        assert_eq!(store.get(0), None);
    }
}
