//! Hash indexes over a single column.
//!
//! An index is two tiers: an immutable, `Arc`-shared **base** holding nearly all
//! postings, and a small private **delta** holding the postings added since the base
//! was last written. Cloning an index (part of cloning a table, which every engine
//! write does) shares the base and copies only the delta, so a write into a table a
//! reader has pinned pays for the postings it adds, not for the postings that exist.
//! The delta is folded into a fresh base once it outgrows a fixed fraction of it.

use std::collections::HashMap;
use std::sync::Arc;

use decorr_common::{value::GroupKey, Row, Value};

/// Position of an indexed row in its table's [`RowStore`](crate::rows::RowStore). Rows
/// never move, so postings stay valid across inserts — index maintenance is strictly
/// incremental, never a rebuild.
pub type RowLocator = usize;

type Postings = HashMap<GroupKey, Vec<RowLocator>>;

/// The delta is folded into the base once it holds more than `1 / FOLD_RATIO` of the
/// base's postings. Folding a shared base copies it, so the ratio trades two costs a
/// single-row insert pays: `FOLD_RATIO` postings of amortised base copy, against the
/// `base / (2 * FOLD_RATIO)` postings of delta an average table clone copies. At 64,
/// an insert into a 50 000-row index costs about 64 + 390 posting copies where copying
/// the index cost 50 000; the two terms meet at 8 192 rows.
const FOLD_RATIO: usize = 64;

/// An equality hash index: maps a column value to the locators of the rows holding it.
///
/// NULL keys are not indexed (SQL equality never matches NULL), so lookups for NULL
/// return no rows, matching predicate semantics.
#[derive(Debug, Clone)]
pub struct HashIndex {
    column_name: String,
    column_idx: usize,
    /// Shared with every clone taken since it was last written; never mutated while
    /// shared. A key's postings here precede its postings in `delta`.
    base: Arc<Postings>,
    base_postings: usize,
    /// Postings added while `base` was shared. Private to this handle (cloned with it).
    delta: Postings,
    delta_postings: usize,
}

impl HashIndex {
    /// An empty index over the named column at position `column_idx` in the schema.
    pub fn new(column_name: &str, column_idx: usize) -> HashIndex {
        HashIndex {
            column_name: column_name.to_string(),
            column_idx,
            base: Arc::default(),
            base_postings: 0,
            delta: Postings::new(),
            delta_postings: 0,
        }
    }

    /// The indexed column's (normalized) name.
    pub fn column_name(&self) -> &str {
        &self.column_name
    }

    /// The indexed column's position in the table schema.
    pub fn column_idx(&self) -> usize {
        self.column_idx
    }

    /// Number of distinct (non-NULL) keys in the index.
    pub fn distinct_keys(&self) -> usize {
        let only_in_delta = self
            .delta
            .keys()
            .filter(|key| !self.base.contains_key(*key))
            .count();
        self.base.len() + only_in_delta
    }

    /// Adds a row (by its position in the table) to the index.
    ///
    /// While no clone shares the base — a bulk load, an index build, a restore — the
    /// posting goes straight into it and the delta stays empty. Once a clone does, the
    /// posting goes to the delta, which is folded when it outgrows its share.
    pub fn insert(&mut self, row: &Row, position: RowLocator) {
        let key = &row.values[self.column_idx];
        if key.is_null() {
            return;
        }
        let tier = match Arc::get_mut(&mut self.base) {
            Some(base) => {
                // The clones that made the delta necessary are gone. Its postings are
                // older than this one, so they must reach the base first.
                merge(base, std::mem::take(&mut self.delta));
                self.base_postings += std::mem::take(&mut self.delta_postings) + 1;
                base
            }
            None => {
                self.delta_postings += 1;
                &mut self.delta
            }
        };
        tier.entry(key.group_key()).or_default().push(position);
        if self.delta_postings * FOLD_RATIO > self.base_postings {
            merge(
                Arc::make_mut(&mut self.base),
                std::mem::take(&mut self.delta),
            );
            self.base_postings += std::mem::take(&mut self.delta_postings);
        }
    }

    /// Locators of rows whose indexed column equals `value`, as two runs that read in
    /// insertion order: the base's postings for the key, then the delta's.
    pub fn lookup(&self, value: &Value) -> [&[RowLocator]; 2] {
        // NULL is never a key in either tier, so a NULL probe finds nothing.
        let key = value.group_key();
        [&self.base, &self.delta].map(|tier| tier.get(&key).map_or(&[][..], Vec::as_slice))
    }

    /// Removes every posting (used by `truncate`).
    pub fn clear(&mut self) {
        *self = HashIndex::new(&self.column_name, self.column_idx);
    }

    /// Whether both indexes read the same base allocation, for tests that assert a
    /// clone-then-insert copied no base.
    #[cfg(test)]
    pub(crate) fn shares_base_with(&self, other: &HashIndex) -> bool {
        Arc::ptr_eq(&self.base, &other.base)
    }

    /// Postings currently in the delta tier, for tests that count folds.
    #[cfg(test)]
    pub(crate) fn delta_postings(&self) -> usize {
        self.delta_postings
    }
}

/// Moves every posting of `delta` behind the postings `base` already has for its key.
/// Reads no row: a fold is a merge of two posting maps.
fn merge(base: &mut Postings, delta: Postings) {
    for (key, mut locators) in delta {
        base.entry(key).or_default().append(&mut locators);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(idx: &HashIndex, key: Value) -> Vec<RowLocator> {
        idx.lookup(&key).concat()
    }

    #[test]
    fn lookup_by_key() {
        let mut idx = HashIndex::new("k", 0);
        idx.insert(&Row::new(vec![Value::Int(1), "a".into()]), 0);
        idx.insert(&Row::new(vec![Value::Int(2), "b".into()]), 1);
        idx.insert(&Row::new(vec![Value::Int(1), "c".into()]), 2);
        assert_eq!(hits(&idx, Value::Int(1)), vec![0, 2]);
        assert_eq!(hits(&idx, Value::Int(3)), vec![]);
        assert_eq!(idx.distinct_keys(), 2);
    }

    #[test]
    fn a_shared_base_is_never_written_and_order_survives_the_tiers() {
        let row = |k: i64| Row::new(vec![Value::Int(k)]);
        let mut idx = HashIndex::new("k", 0);
        for position in 0..FOLD_RATIO {
            idx.insert(&row(position as i64 % 2), position);
        }
        assert_eq!(idx.delta_postings(), 0, "nobody shares the base yet");

        // A reader clones; the writer's postings go to its private delta.
        let reader = idx.clone();
        idx.insert(&row(1), FOLD_RATIO);
        assert!(idx.shares_base_with(&reader));
        assert_eq!((idx.delta_postings(), reader.delta_postings()), (1, 0));
        assert_eq!(hits(&idx, Value::Int(1)).len(), FOLD_RATIO / 2 + 1);
        assert_eq!(hits(&idx, Value::Int(1)).last(), Some(&FOLD_RATIO));
        assert_eq!(hits(&reader, Value::Int(1)).len(), FOLD_RATIO / 2);

        // One more outgrows 1/FOLD_RATIO of the base: the writer folds into a base
        // of its own, and the reader's is left as it was.
        idx.insert(&row(7), FOLD_RATIO + 1);
        assert!(!idx.shares_base_with(&reader));
        assert_eq!(idx.delta_postings(), 0);
        assert_eq!(hits(&idx, Value::Int(1)).last(), Some(&FOLD_RATIO));
        assert_eq!(hits(&idx, Value::Int(7)), vec![FOLD_RATIO + 1]);
        assert_eq!(hits(&reader, Value::Int(7)), vec![]);
        assert_eq!((idx.distinct_keys(), reader.distinct_keys()), (3, 2));

        // A delta whose readers have gone is merged ahead of the next posting.
        let mut writer = idx.clone();
        writer.insert(&row(7), FOLD_RATIO + 2);
        assert_eq!(writer.delta_postings(), 1);
        drop(idx);
        writer.insert(&row(7), FOLD_RATIO + 3);
        assert_eq!(writer.delta_postings(), 0);
        assert_eq!(
            hits(&writer, Value::Int(7)),
            vec![FOLD_RATIO + 1, FOLD_RATIO + 2, FOLD_RATIO + 3]
        );
    }

    #[test]
    fn null_keys_are_not_indexed() {
        let mut idx = HashIndex::new("k", 0);
        idx.insert(&Row::new(vec![Value::Null]), 0);
        assert_eq!(hits(&idx, Value::Null), vec![]);
        assert_eq!(idx.distinct_keys(), 0);
    }

    #[test]
    fn int_and_float_keys_unify() {
        let mut idx = HashIndex::new("k", 0);
        idx.insert(&Row::new(vec![Value::Int(2)]), 0);
        assert_eq!(hits(&idx, Value::Float(2.0)), vec![0]);
    }
}
