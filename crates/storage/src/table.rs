//! In-memory row-store table with hash indexes and cached statistics.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use decorr_common::{normalize_ident, Error, Result, Row, Schema, Value};

use crate::index::HashIndex;
use crate::rows::RowStore;
use crate::stats::TableStatistics;

/// An in-memory table: a schema, one chunked [`RowStore`], and hash indexes keyed by
/// column name.
///
/// Cloning a table (the engine's copy-on-write snapshot swap) shares the row store and
/// every index base, and a subsequent insert copies only what it writes: the store's
/// open tail chunk (see [`crate::rows`]) and each index's delta (see [`crate::index`])
/// — a cost set by the rows added, not by the rows the table holds. Statistics are
/// computed lazily from the store and cached until the next data change.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Arc<RowStore>,
    indexes: HashMap<String, HashIndex>,
    /// Cached statistics; `None` marks them dirty. Interior mutability so `stats()`
    /// works through the shared references the executor and optimizer hold.
    cached_stats: RwLock<Option<Arc<TableStatistics>>>,
    /// Whether an `ANALYZE` ran: the statistics cache then re-analyzes itself.
    analyzed: bool,
    /// How many times statistics were (re)computed — the regression metric: repeated
    /// optimizes against an unchanged table must not rescan it.
    stats_recomputes: AtomicU64,
    /// How many full index builds ran (one per `create_index` over existing rows).
    /// Insert-path index maintenance is incremental and must never bump this.
    index_rebuilds: AtomicU64,
    /// Monotonic per-table data version: bumped by every insert and truncate. Result
    /// caches (the engine's UDF memo) key on this instead of the catalog-wide data
    /// generation when a UDF provably reads only this table, so writes to unrelated
    /// tables don't flush its memoized results.
    data_version: u64,
}

impl Clone for Table {
    fn clone(&self) -> Table {
        Table {
            name: self.name.clone(),
            schema: self.schema.clone(),
            // An Arc clone: the store is shared with the original until one is written.
            rows: Arc::clone(&self.rows),
            // Shares each index's base; copies only its delta.
            indexes: self.indexes.clone(),
            cached_stats: RwLock::new(
                self.cached_stats
                    .read()
                    .expect("stats cache poisoned")
                    .clone(),
            ),
            analyzed: self.analyzed,
            stats_recomputes: AtomicU64::new(self.stats_recomputes.load(Ordering::Relaxed)),
            index_rebuilds: AtomicU64::new(self.index_rebuilds.load(Ordering::Relaxed)),
            data_version: self.data_version,
        }
    }
}

impl Table {
    /// Creates an empty table. Column qualifiers in the supplied schema are replaced by
    /// the table name so that scans produce properly qualified columns.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        let name = normalize_ident(&name.into());
        let schema = schema.with_qualifier(&name);
        Table {
            name,
            schema,
            rows: Arc::default(),
            indexes: HashMap::new(),
            cached_stats: RwLock::new(None),
            analyzed: false,
            stats_recomputes: AtomicU64::new(0),
            index_rebuilds: AtomicU64::new(0),
            data_version: 0,
        }
    }

    /// The (normalized) table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The table's schema, with columns qualified by the table name.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Rebuilds a table from its persisted parts — the snapshot-restore constructor.
    /// `rows` are the table's rows in scan order, `indexed_columns` are rebuilt from
    /// them, and `stats`, when present, re-seeds the statistics cache so the first
    /// optimize after a cold open needs no rescan. Rows are arity-checked against the
    /// schema; deeper corruption is the snapshot checksum's job.
    pub fn restore(
        name: impl Into<String>,
        schema: Schema,
        rows: Vec<Row>,
        indexed_columns: &[String],
        analyzed: bool,
        stats: Option<TableStatistics>,
        data_version: u64,
    ) -> Result<Table> {
        let mut table = Table::new(name, schema);
        let width = table.schema.len();
        if let Some(bad) = rows.iter().find(|r| r.len() != width) {
            return Err(Error::Persist(format!(
                "table '{}': restored row has {} values, schema has {}",
                table.name,
                bad.len(),
                width
            )));
        }
        table.rows = Arc::new(RowStore::from_rows(rows));
        table.cached_stats = RwLock::new(stats.map(Arc::new));
        table.analyzed = analyzed;
        table.data_version = data_version;
        for column in indexed_columns {
            table.create_index(column)?;
        }
        Ok(table)
    }

    /// A borrowed view of the table's rows — the scan API.
    pub fn scan(&self) -> &RowStore {
        &self.rows
    }

    /// Number of rows in the table.
    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Validates and appends a row, maintaining all indexes.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        if row.len() != self.schema.len() {
            return Err(Error::Execution(format!(
                "insert into '{}': expected {} values, got {}",
                self.name,
                self.schema.len(),
                row.len()
            )));
        }
        for (i, v) in row.values.iter().enumerate() {
            let col = self.schema.column(i);
            if !v.is_null() && !col.data_type.is_compatible_with(v.data_type()) {
                return Err(Error::TypeError(format!(
                    "insert into '{}': column '{}' expects {}, got {} ({v})",
                    self.name,
                    col.name,
                    col.data_type,
                    v.data_type()
                )));
            }
            if v.is_null() && !col.nullable {
                return Err(Error::Execution(format!(
                    "insert into '{}': column '{}' is NOT NULL",
                    self.name, col.name
                )));
            }
        }
        let position = self.rows.len();
        for index in self.indexes.values_mut() {
            index.insert(&row, position);
        }
        // Copy-on-write: a store shared with a reader gets its own list of chunk handles
        // (no sealed row is copied) and its own copy of the open tail chunk.
        Arc::make_mut(&mut self.rows).push(row);
        self.data_version += 1;
        self.mark_stats_dirty();
        Ok(())
    }

    /// Bulk insert (used by the data generator). Rows are validated like
    /// [`Table::insert`].
    pub fn insert_all(&mut self, rows: Vec<Row>) -> Result<()> {
        rows.into_iter().try_for_each(|row| self.insert(row))
    }

    /// Creates a hash index on `column` (no-op if one already exists). Existing rows
    /// are indexed immediately — the one full build this index will ever run (see
    /// [`Table::index_rebuilds`]); insert-path maintenance is incremental per row.
    pub fn create_index(&mut self, column: &str) -> Result<()> {
        let column = normalize_ident(column);
        if self.indexes.contains_key(&column) {
            return Ok(());
        }
        let col_idx = self.schema.index_of(None, &column)?;
        let mut index = HashIndex::new(&column, col_idx);
        for (position, row) in self.rows.iter().enumerate() {
            index.insert(row, position);
        }
        self.index_rebuilds.fetch_add(1, Ordering::Relaxed);
        self.indexes.insert(column, index);
        Ok(())
    }

    /// Returns the hash index on `column` if one exists.
    pub fn index_on(&self, column: &str) -> Option<&HashIndex> {
        self.indexes.get(&normalize_ident(column))
    }

    /// Names of all indexed columns.
    pub fn indexed_columns(&self) -> Vec<String> {
        let mut cols: Vec<String> = self.indexes.keys().cloned().collect();
        cols.sort();
        cols
    }

    /// Looks up rows whose indexed `column` equals `value` using the hash index.
    /// Returns `None` when no index exists on the column (caller should fall back to
    /// a scan).
    pub fn index_lookup(&self, column: &str, value: &Value) -> Option<Vec<&Row>> {
        self.index_on(column).map(|idx| {
            let [older, newer] = idx.lookup(value);
            let mut rows = Vec::with_capacity(older.len() + newer.len());
            rows.extend(older.iter().chain(newer).map(|&position| {
                self.rows
                    .get(position)
                    .expect("index postings point at stored rows")
            }));
            rows
        })
    }

    /// Statistics for the cost model, computed lazily from the row store and cached
    /// until the next data change. Unanalyzed tables get basic statistics (row count,
    /// exact distinct counts, null fractions); tables a sampled
    /// [`analyze`](Table::analyze) ran over additionally carry histograms and MCV
    /// lists, and *re-analyze themselves* when the cache is invalidated by new data.
    pub fn stats(&self) -> Arc<TableStatistics> {
        if let Some(cached) = self
            .cached_stats
            .read()
            .expect("stats cache poisoned")
            .clone()
        {
            return cached;
        }
        // Double-checked under the write lock: concurrent readers that missed above
        // must not each run the pass (and each bump the recompute counter) — one
        // computes, the rest wait and reuse it.
        let mut slot = self.cached_stats.write().expect("stats cache poisoned");
        if let Some(cached) = slot.as_ref() {
            return Arc::clone(cached);
        }
        let runs: Vec<&[Row]> = self.rows.runs(0..self.rows.len()).collect();
        let computed = Arc::new(if self.analyzed {
            TableStatistics::analyzed(&self.schema, &runs)
        } else {
            TableStatistics::basic(&self.schema, &runs)
        });
        self.stats_recomputes.fetch_add(1, Ordering::Relaxed);
        *slot = Some(Arc::clone(&computed));
        computed
    }

    /// Runs a sampled `ANALYZE` over the table: builds histogram/MCV statistics from a
    /// reservoir sample and remembers that it ran, so later invalidations re-analyze
    /// automatically. Returns the fresh statistics.
    pub fn analyze(&mut self) -> Arc<TableStatistics> {
        self.analyzed = true;
        self.mark_stats_dirty();
        self.stats()
    }

    /// True when the table carries `ANALYZE`-built histogram statistics.
    pub fn is_analyzed(&self) -> bool {
        self.analyzed
    }

    /// Lifetime count of statistics passes — the regression metric proving that
    /// repeated `stats()` calls against unchanged data never rescan the table.
    pub fn stats_recomputes(&self) -> u64 {
        self.stats_recomputes.load(Ordering::Relaxed)
    }

    /// Lifetime count of full index builds (one per `create_index` over existing
    /// rows). Insert-path index maintenance is incremental and never bumps this —
    /// including when an index folds its delta into its base, which merges postings
    /// and never re-reads a row.
    pub fn index_rebuilds(&self) -> u64 {
        self.index_rebuilds.load(Ordering::Relaxed)
    }

    /// Monotonic data version: bumped by every [`insert`](Table::insert) and
    /// [`truncate`](Table::truncate). See the field docs for how result caches use it.
    pub fn data_version(&self) -> u64 {
        self.data_version
    }

    /// Marks cached statistics dirty (cheap; the next `stats()` call recomputes).
    fn mark_stats_dirty(&mut self) {
        let cached = self.cached_stats.get_mut().expect("stats cache poisoned");
        *cached = None;
    }

    /// Removes all rows (keeps schema, index definitions and whether it was analyzed).
    pub fn truncate(&mut self) {
        self.rows = Arc::default();
        for index in self.indexes.values_mut() {
            index.clear();
        }
        self.data_version += 1;
        self.mark_stats_dirty();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rows::CHUNK_ROWS;
    use decorr_common::{Column, DataType};

    fn orders_table() -> Table {
        Table::new(
            "orders",
            Schema::new(vec![
                Column::new("orderkey", DataType::Int).not_null(),
                Column::new("custkey", DataType::Int),
                Column::new("totalprice", DataType::Float),
            ]),
        )
    }

    fn order_rows(n: i64) -> Vec<Row> {
        (0..n)
            .map(|i| Row::new(vec![i.into(), (i % 10).into(), (i as f64).into()]))
            .collect()
    }

    #[test]
    fn insert_and_scan() {
        let mut t = orders_table();
        t.insert(Row::new(vec![1.into(), 10.into(), 100.5.into()]))
            .unwrap();
        t.insert(Row::new(vec![2.into(), 10.into(), 2.5.into()]))
            .unwrap();
        assert_eq!(t.row_count(), 2);
        assert_eq!(t.scan().get(1).unwrap().get(2), &Value::Float(2.5));
        assert_eq!(t.schema().column(0).qualifier.as_deref(), Some("orders"));
    }

    #[test]
    fn scan_materializes_rows_in_global_order() {
        let mut t = orders_table();
        t.insert_all(order_rows(1000)).unwrap();
        let materialized = t.scan().collect_rows();
        assert_eq!(materialized.len(), 1000);
        assert_eq!(materialized[7].get(0), &Value::Int(7));
        assert_eq!(materialized[999].get(0), &Value::Int(999));
    }

    #[test]
    fn insert_validates_arity_and_types() {
        let mut t = orders_table();
        assert!(t.insert(Row::new(vec![1.into()])).is_err());
        assert!(t
            .insert(Row::new(vec!["x".into(), 10.into(), 1.0.into()]))
            .is_err());
        // NOT NULL violation
        assert!(t
            .insert(Row::new(vec![Value::Null, 10.into(), 1.0.into()]))
            .is_err());
        // Int accepted where Float expected (numeric compatibility)
        assert!(t
            .insert(Row::new(vec![1.into(), 10.into(), 7.into()]))
            .is_ok());
    }

    #[test]
    fn clone_shares_the_store_until_written() {
        let mut t = orders_table();
        t.insert_all(order_rows(1000)).unwrap();
        let snapshot = t.clone();
        assert!(Arc::ptr_eq(&t.rows, &snapshot.rows));
        t.insert(Row::new(vec![1000.into(), 0.into(), 0.0.into()]))
            .unwrap();
        assert!(!Arc::ptr_eq(&t.rows, &snapshot.rows));
        assert_eq!(snapshot.row_count(), 1000);
        assert_eq!(t.row_count(), 1001);
    }

    /// Chunks of `live` that `snapshot` does not hold — what a write made after the
    /// clone had to allocate: sealed chunks by handle, and the open tail once the two
    /// no longer share a store (a store's clone always copies its tail).
    fn unshared_chunks(live: &Table, snapshot: &Table) -> usize {
        let (mine, theirs) = (live.scan(), snapshot.scan());
        if std::ptr::eq(mine, theirs) {
            return 0;
        }
        let fresh = mine
            .sealed()
            .iter()
            .enumerate()
            .filter(|(i, chunk)| {
                theirs
                    .sealed()
                    .get(*i)
                    .is_none_or(|c| !Arc::ptr_eq(chunk, c))
            })
            .count();
        fresh + usize::from(mine.len() % CHUNK_ROWS != 0)
    }

    fn owned(hits: Option<Vec<&Row>>) -> Vec<Row> {
        hits.expect("indexed column").into_iter().cloned().collect()
    }

    #[test]
    fn clone_then_insert_copies_one_chunk_and_no_index_base() {
        for n in [50_000, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1] {
            let case = format!("{n} rows");
            let mut t = orders_table();
            t.insert_all(order_rows(n as i64)).unwrap();
            t.create_index("custkey").unwrap();
            t.create_index("orderkey").unwrap();
            let before = owned(t.index_lookup("custkey", &Value::Int(3)));

            let snapshot = t.clone();
            assert_eq!(unshared_chunks(&t, &snapshot), 0, "{case}");
            let added = Row::new(vec![(n as i64).into(), 3.into(), 0.5.into()]);
            t.insert(added.clone()).unwrap();

            // The write allocated exactly one chunk: a copy of the open tail with the
            // row behind it (sealed at once if that filled it). Every chunk sealed
            // before is still the snapshot's, and so is every index base.
            assert_eq!(unshared_chunks(&t, &snapshot), 1, "{case}");
            for (i, sealed) in snapshot.scan().sealed().iter().enumerate() {
                assert!(
                    Arc::ptr_eq(sealed, &t.scan().sealed()[i]),
                    "{case}: chunk {i}"
                );
            }
            for column in ["custkey", "orderkey"] {
                let (mine, theirs) = (
                    t.index_on(column).unwrap(),
                    snapshot.index_on(column).unwrap(),
                );
                assert!(
                    mine.shares_base_with(theirs),
                    "{case}: {column} base copied"
                );
                assert_eq!(theirs.delta_postings(), 0, "{case}");
                assert_eq!(mine.delta_postings(), 1, "{case}");
            }

            // The snapshot side is untouched; the live side sees the row, last.
            assert_eq!(snapshot.row_count(), n, "{case}");
            assert_eq!(snapshot.scan().iter().count(), n, "{case}");
            assert_eq!(
                owned(snapshot.index_lookup("custkey", &Value::Int(3))),
                before,
                "{case}"
            );
            assert!(owned(snapshot.index_lookup("orderkey", &Value::Int(n as i64))).is_empty());
            let mut after = before.clone();
            after.push(added.clone());
            assert_eq!(t.row_count(), n + 1, "{case}");
            assert_eq!(
                owned(t.index_lookup("custkey", &Value::Int(3))),
                after,
                "{case}"
            );
            assert_eq!(
                owned(t.index_lookup("orderkey", &Value::Int(n as i64))),
                vec![added]
            );
        }
    }

    /// The two-tier index answers exactly as an index built in one pass over the
    /// same rows would, in the same order, through any interleaving of inserts,
    /// clones (dropped or kept pinned) and delta folds — and a pinned clone keeps
    /// answering as it did when it was taken.
    #[test]
    fn two_tier_index_matches_a_rebuilt_index_and_pinned_clones_never_change() {
        use decorr_common::SmallRng;
        let schema = || {
            Schema::new(vec![
                Column::new("id", DataType::Int).not_null(),
                Column::new("k", DataType::Float),
            ])
        };
        // Keys from a small domain so duplicates are the rule; the same number comes
        // as an Int or as a Float (they must land in one posting list); some are NULL.
        let draw = |rng: &mut SmallRng, id: i64| {
            let k = rng.gen_range_i64(0, 12);
            let key = match rng.gen_range_i64(0, 8) {
                0 => Value::Null,
                1..=3 => Value::Float(k as f64),
                _ => Value::Int(k),
            };
            Row::new(vec![Value::Int(id), key])
        };
        let probes: Vec<Value> = (0..12)
            .map(Value::Int)
            .chain([Value::Float(5.0), Value::Null, Value::Int(99)])
            .collect();
        let answers = |t: &Table| -> Vec<Vec<Row>> {
            probes
                .iter()
                .map(|p| owned(t.index_lookup("k", p)))
                .collect()
        };

        for seed in [11u64, 12] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut rows: Vec<Row> = vec![];
            let mut live = Table::new("t", schema());
            live.create_index("k").unwrap();
            // A bulk load first, so that a delta has a base worth not copying.
            let bulk: Vec<Row> = (0..2_000).map(|id| draw(&mut rng, id)).collect();
            rows.extend(bulk.iter().cloned());
            live.insert_all(bulk).unwrap();
            assert_eq!(
                live.index_on("k").unwrap().delta_postings(),
                0,
                "bulk loads build the base"
            );

            let mut pinned: Vec<(Table, Vec<Vec<Row>>)> = vec![];
            let (mut folds, mut largest_delta) = (0, 0);
            for step in 0..400 {
                let row = draw(&mut rng, rows.len() as i64);
                rows.push(row.clone());
                let delta_before = live.index_on("k").unwrap().delta_postings();
                match rng.gen_range_i64(0, 10) {
                    // The engine's write cycle: clone, write the clone, publish it;
                    // the superseded table is dropped, or stays pinned by a reader.
                    roll @ 0..=7 => {
                        let mut next = live.clone();
                        next.insert(row).unwrap();
                        let superseded = std::mem::replace(&mut live, next);
                        if roll >= 6 {
                            let expected = answers(&superseded);
                            pinned.push((superseded, expected));
                            // Oldest reader leaves: bounds the work of checking them.
                            if pinned.len() > 4 {
                                pinned.remove(0);
                            }
                        }
                    }
                    // A write in place, with or without readers still on the base.
                    _ => live.insert(row).unwrap(),
                }
                let delta_after = live.index_on("k").unwrap().delta_postings();
                largest_delta = largest_delta.max(delta_after);
                if delta_before > 0 && delta_after == 0 {
                    folds += 1;
                }

                let mut rebuilt = Table::new("t", schema());
                rebuilt.insert_all(rows.clone()).unwrap();
                rebuilt.create_index("k").unwrap();
                assert_eq!(answers(&live), answers(&rebuilt), "seed {seed} step {step}");
                for (i, (table, expected)) in pinned.iter().enumerate() {
                    assert_eq!(&answers(table), expected, "seed {seed} step {step} pin {i}");
                }
            }
            assert!(folds >= 3, "seed {seed}: only {folds} folds");
            assert!(
                largest_delta > 8,
                "seed {seed}: deltas stayed at {largest_delta}"
            );
            assert_eq!(live.index_rebuilds(), 1, "a fold is not a rebuild");
            assert_eq!(live.row_count(), rows.len());
        }
    }

    /// Morsel ranges and index lookups agree with a plain `Vec<Row>` at every chunk
    /// seam, on the live table and on a clone pinned before the last insert.
    #[test]
    fn ranges_and_lookups_across_chunk_seams_match_a_plain_vector() {
        let check = |t: &Table, model: &[Row], case: &str| {
            let n = model.len();
            assert_eq!(t.row_count(), n, "{case}");
            assert_eq!(t.scan().collect_rows(), model, "{case}");
            let seams = [0, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1];
            let bounds: Vec<usize> = (0..=n / CHUNK_ROWS)
                .flat_map(|chunk| seams.map(|s| (chunk * CHUNK_ROWS + s).min(n)))
                .collect();
            for &lo in &bounds {
                for &hi in bounds.iter().filter(|&&hi| hi >= lo) {
                    assert_eq!(
                        t.scan().collect_range(lo..hi),
                        model[lo..hi],
                        "{case}: {lo}..{hi}"
                    );
                    assert!(t.scan().iter_range(lo..hi).eq(&model[lo..hi]), "{case}");
                    assert!(t.scan().runs(lo..hi).all(|run| !run.is_empty()), "{case}");
                }
                assert_eq!(t.scan().get(lo), model.get(lo), "{case}: row {lo}");
            }
            // Unique key: the row at each seam. Shared key: every tenth row, in order.
            for &i in bounds.iter().filter(|&&i| i < n) {
                assert_eq!(
                    owned(t.index_lookup("orderkey", &Value::Int(i as i64))),
                    vec![model[i].clone()],
                    "{case}: orderkey {i}"
                );
            }
            let shared: Vec<Row> = model.iter().skip(3).step_by(10).cloned().collect();
            assert_eq!(
                owned(t.index_lookup("custkey", &Value::Int(3))),
                shared,
                "{case}"
            );
        };
        for n in [
            CHUNK_ROWS - 1,
            CHUNK_ROWS,
            CHUNK_ROWS + 1,
            3 * CHUNK_ROWS + 1,
        ] {
            let mut model = order_rows(n as i64);
            let mut t = orders_table();
            t.create_index("orderkey").unwrap();
            t.insert_all(model.clone()).unwrap();
            t.create_index("custkey").unwrap();
            check(&t, &model, &format!("{n} rows"));

            let pinned = t.clone();
            let added = Row::new(vec![
                (n as i64).into(),
                ((n % 10) as i64).into(),
                0.5.into(),
            ]);
            t.insert(added.clone()).unwrap();
            check(&pinned, &model, &format!("{n} rows, pinned clone"));
            model.push(added);
            check(&t, &model, &format!("{n} rows + 1"));
        }
    }

    #[test]
    fn index_lookup_finds_matching_rows() {
        let mut t = orders_table();
        for i in 0..100i64 {
            t.insert(Row::new(vec![i.into(), (i % 10).into(), (i as f64).into()]))
                .unwrap();
        }
        t.create_index("custkey").unwrap();
        let hits = t.index_lookup("custkey", &Value::Int(3)).unwrap();
        assert_eq!(hits.len(), 10);
        assert!(hits.iter().all(|r| r.get(1) == &Value::Int(3)));
        // Unindexed column -> None
        assert!(t.index_lookup("totalprice", &Value::Float(1.0)).is_none());
        // Missing key -> empty
        assert_eq!(t.index_lookup("custkey", &Value::Int(99)).unwrap().len(), 0);
    }

    #[test]
    fn index_lookup_spans_chunks() {
        let mut t = orders_table();
        t.insert_all(order_rows(1000)).unwrap();
        t.create_index("custkey").unwrap();
        let hits = t.index_lookup("custkey", &Value::Int(3)).unwrap();
        assert_eq!(hits.len(), 100);
        assert!(hits.iter().all(|r| r.get(1) == &Value::Int(3)));
    }

    #[test]
    fn index_created_after_inserts_sees_existing_rows() {
        let mut t = orders_table();
        t.insert(Row::new(vec![1.into(), 7.into(), 1.0.into()]))
            .unwrap();
        t.create_index("custkey").unwrap();
        t.insert(Row::new(vec![2.into(), 7.into(), 2.0.into()]))
            .unwrap();
        assert_eq!(t.index_lookup("custkey", &Value::Int(7)).unwrap().len(), 2);
        assert_eq!(t.indexed_columns(), vec!["custkey".to_string()]);
    }

    #[test]
    fn index_maintenance_is_incremental_not_a_rebuild() {
        let mut t = orders_table();
        t.insert_all(order_rows(1000)).unwrap();
        assert_eq!(t.index_rebuilds(), 0, "no index yet, no build");
        t.create_index("custkey").unwrap();
        assert_eq!(t.index_rebuilds(), 1, "one full build over existing rows");
        // Creating it again is a no-op, not a rebuild.
        t.create_index("custkey").unwrap();
        assert_eq!(t.index_rebuilds(), 1);
        // Inserts maintain the index per row without rebuilding it.
        for row in order_rows(100) {
            t.insert(Row::new(vec![
                (2000 + row.get(0).as_int().unwrap()).into(),
                row.get(1).clone(),
                row.get(2).clone(),
            ]))
            .unwrap();
        }
        assert_eq!(t.index_rebuilds(), 1, "inserts never trigger a rebuild");
        assert_eq!(
            t.index_lookup("custkey", &Value::Int(3)).unwrap().len(),
            110
        );
    }

    #[test]
    fn stats_are_cached_until_data_changes() {
        let mut t = orders_table();
        for i in 0..50i64 {
            t.insert(Row::new(vec![i.into(), (i % 5).into(), (i as f64).into()]))
                .unwrap();
        }
        assert_eq!(t.stats_recomputes(), 0, "stats are lazy");
        let first = t.stats();
        assert_eq!(first.distinct_count("custkey"), 5);
        assert_eq!(t.stats_recomputes(), 1);
        // Repeated reads serve the cached Arc without rescanning.
        for _ in 0..10 {
            let again = t.stats();
            assert_eq!(again.row_count, 50);
        }
        assert_eq!(t.stats_recomputes(), 1, "unchanged table must not rescan");
        // An insert dirties the cache; the next read recomputes once.
        t.insert(Row::new(vec![50.into(), 9.into(), 1.0.into()]))
            .unwrap();
        assert_eq!(t.stats().distinct_count("custkey"), 6);
        assert_eq!(t.stats_recomputes(), 2);
    }

    #[test]
    fn analyze_is_sticky_across_invalidation() {
        let mut t = orders_table();
        for i in 0..200i64 {
            t.insert(Row::new(vec![i.into(), (i % 10).into(), (i as f64).into()]))
                .unwrap();
        }
        assert!(!t.is_analyzed());
        let analyzed = t.analyze();
        assert!(analyzed.analyzed);
        assert!(analyzed
            .range_selectivity("orderkey", None, Some((99.0, true)))
            .is_some());
        // New data invalidates, and the next stats() re-analyzes automatically.
        t.insert(Row::new(vec![200.into(), 3.into(), 1.0.into()]))
            .unwrap();
        let refreshed = t.stats();
        assert!(refreshed.analyzed, "an analyzed table re-analyzes");
        assert_eq!(refreshed.row_count, 201);
    }

    #[test]
    fn data_version_tracks_inserts_and_truncate() {
        let mut t = orders_table();
        assert_eq!(t.data_version(), 0);
        t.insert(Row::new(vec![1.into(), 7.into(), 1.0.into()]))
            .unwrap();
        t.insert(Row::new(vec![2.into(), 8.into(), 2.0.into()]))
            .unwrap();
        assert_eq!(t.data_version(), 2);
        // Read-only operations leave it alone.
        let _ = t.stats();
        t.create_index("custkey").unwrap();
        assert_eq!(t.data_version(), 2);
        t.truncate();
        assert_eq!(t.data_version(), 3);
        // Clones carry the version forward.
        assert_eq!(t.clone().data_version(), 3);
    }

    #[test]
    fn restore_rebuilds_rows_and_indexes() {
        let mut original = orders_table();
        original.insert_all(order_rows(1000)).unwrap();
        original.create_index("custkey").unwrap();
        let analyzed = original.analyze();
        let restored = Table::restore(
            "orders",
            Schema::new(vec![
                Column::new("orderkey", DataType::Int).not_null(),
                Column::new("custkey", DataType::Int),
                Column::new("totalprice", DataType::Float),
            ]),
            original.scan().collect_rows(),
            &original.indexed_columns(),
            original.is_analyzed(),
            Some(analyzed.as_ref().clone()),
            original.data_version(),
        )
        .unwrap();
        assert_eq!(restored.row_count(), 1000);
        assert_eq!(restored.data_version(), original.data_version());
        assert_eq!(
            restored.scan().collect_rows(),
            original.scan().collect_rows(),
            "scan order is byte-identical"
        );
        assert_eq!(
            restored
                .index_lookup("custkey", &Value::Int(3))
                .unwrap()
                .len(),
            100
        );
        // The restored stats cache serves without a rescan.
        assert_eq!(restored.stats_recomputes(), 0);
        let stats = restored.stats();
        assert!(stats.analyzed);
        assert_eq!(stats.row_count, 1000);
        assert_eq!(restored.stats_recomputes(), 0, "cache restored, no rescan");
        assert!(restored.is_analyzed());
        // Arity mismatches are rejected with a persist error, not a panic.
        let err = Table::restore(
            "bad",
            Schema::new(vec![Column::new("k", DataType::Int)]),
            vec![Row::new(vec![1.into(), 2.into()])],
            &[],
            false,
            None,
            0,
        )
        .unwrap_err();
        assert_eq!(err.kind(), "persist");
    }

    #[test]
    fn truncate_clears_rows_and_indexes() {
        let mut t = orders_table();
        t.create_index("custkey").unwrap();
        t.insert(Row::new(vec![1.into(), 7.into(), 1.0.into()]))
            .unwrap();
        t.truncate();
        assert_eq!(t.row_count(), 0);
        assert_eq!(t.index_lookup("custkey", &Value::Int(7)).unwrap().len(), 0);
        assert!(t.scan().is_empty());
    }
}
