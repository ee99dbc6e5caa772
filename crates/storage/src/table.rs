//! In-memory sharded row-store table with hash indexes and cached statistics.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use decorr_common::{normalize_ident, Error, Result, Row, Schema, Value};

use crate::index::HashIndex;
use crate::shard::{RowsView, Shard, ShardPolicy, ShardSet};
use decorr_stats::{AnalyzeConfig, ShardStatistics, TableStatistics};

/// Smallest shard a row-at-a-time insert stream fills before the table opens the next
/// shard: prevents degenerate `1, 1, 1, N-3` splits when rows trickle in one by one.
/// Bulk inserts ([`Table::insert_all`]) know their final size and balance exactly.
const MIN_SHARD_FILL: usize = 256;

/// An in-memory table: a schema, a fixed-fanout set of [`Shard`]s, and hash indexes
/// keyed by column name.
///
/// Cloning a table (the engine's copy-on-write snapshot swap) shares every shard and
/// every index base, and a subsequent insert copies only what it writes: the open tail
/// chunk of the shard it appends to (see [`crate::shard`]) and each index's delta (see
/// [`crate::index`]) — a cost set by the rows added, not by the rows the table holds,
/// at any shard count. Each shard caches its own [`ShardStatistics`] summary; table-level
/// statistics are the lazy merge of the per-shard summaries, so after an insert the
/// next [`Table::stats`] re-samples only the dirty shard (incremental ANALYZE), and
/// the cached full-pass min/max lets scans prune shards a range or equality predicate
/// provably misses.
#[derive(Debug)]
pub struct Table {
    name: String,
    schema: Schema,
    shards: Vec<Arc<Shard>>,
    /// Configured fanout (≥ 1). `AppendToLast` opens shards lazily up to this count;
    /// `Hash` creates them all up front.
    shard_target: usize,
    shard_policy: ShardPolicy,
    total_rows: usize,
    indexes: HashMap<String, HashIndex>,
    /// Cached merged statistics; `None` marks them dirty. Interior mutability so
    /// `stats()` works through the shared references the executor and optimizer hold.
    cached_stats: RwLock<Option<Arc<TableStatistics>>>,
    /// Remembered `ANALYZE` configuration; `None` until the first ANALYZE.
    analyze_config: Option<AnalyzeConfig>,
    /// How many times the table-level merge was (re)computed — the regression metric:
    /// repeated optimizes against an unchanged table must not rescan it.
    stats_recomputes: AtomicU64,
    /// How many *per-shard* statistics passes ran — the incremental-ANALYZE metric:
    /// after one insert, exactly one shard re-samples, not all of them.
    shard_stat_recomputes: AtomicU64,
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
            // Arc clones: shards are shared with the original until one is written.
            shards: self.shards.clone(),
            shard_target: self.shard_target,
            shard_policy: self.shard_policy,
            total_rows: self.total_rows,
            // Shares each index's base; copies only its delta.
            indexes: self.indexes.clone(),
            cached_stats: RwLock::new(
                self.cached_stats
                    .read()
                    .expect("stats cache poisoned")
                    .clone(),
            ),
            analyze_config: self.analyze_config.clone(),
            stats_recomputes: AtomicU64::new(self.stats_recomputes.load(Ordering::Relaxed)),
            shard_stat_recomputes: AtomicU64::new(
                self.shard_stat_recomputes.load(Ordering::Relaxed),
            ),
            index_rebuilds: AtomicU64::new(self.index_rebuilds.load(Ordering::Relaxed)),
            data_version: self.data_version,
        }
    }
}

impl Table {
    /// Creates an empty single-shard table — the default layout, indistinguishable
    /// from the pre-shard storage. Column qualifiers in the supplied schema are
    /// replaced by the table name so that scans produce properly qualified columns.
    pub fn new(name: impl Into<String>, schema: Schema) -> Table {
        Table::with_shards(name, schema, 1, ShardPolicy::AppendToLast)
    }

    /// Creates an empty table with a fixed shard fanout and routing policy.
    pub fn with_shards(
        name: impl Into<String>,
        schema: Schema,
        shard_count: usize,
        policy: ShardPolicy,
    ) -> Table {
        let name = normalize_ident(&name.into());
        let schema = schema.with_qualifier(&name);
        let shard_target = shard_count.max(1);
        Table {
            name,
            schema,
            shards: Table::initial_shards(shard_target, policy),
            shard_target,
            shard_policy: policy,
            total_rows: 0,
            indexes: HashMap::new(),
            cached_stats: RwLock::new(None),
            analyze_config: None,
            stats_recomputes: AtomicU64::new(0),
            shard_stat_recomputes: AtomicU64::new(0),
            index_rebuilds: AtomicU64::new(0),
            data_version: 0,
        }
    }

    fn initial_shards(shard_target: usize, policy: ShardPolicy) -> Vec<Arc<Shard>> {
        match policy {
            // Lazy growth: open shards as the table fills.
            ShardPolicy::AppendToLast => vec![Arc::new(Shard::new())],
            // Hash routing needs every shard to exist up front.
            ShardPolicy::Hash => (0..shard_target).map(|_| Arc::new(Shard::new())).collect(),
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

    /// The configured shard fanout (≥ 1), whether or not every shard is open yet.
    pub fn shard_target(&self) -> usize {
        self.shard_target
    }

    /// The row-routing policy in effect.
    pub fn shard_policy(&self) -> ShardPolicy {
        self.shard_policy
    }

    /// The remembered `ANALYZE` configuration (`None` until the first ANALYZE).
    pub fn analyze_config(&self) -> Option<&AnalyzeConfig> {
        self.analyze_config.as_ref()
    }

    /// Switches the row-routing policy, re-routing every existing row into fresh
    /// shards under the new policy and rebuilding indexes incrementally. A no-op when
    /// the policy is unchanged. Bumps [`data_version`](Table::data_version) (scan
    /// order changes under `Hash`, so result caches keyed on the old layout must not
    /// serve) and dirties cached statistics.
    pub fn set_placement(&mut self, policy: ShardPolicy) -> Result<()> {
        if policy == self.shard_policy {
            return Ok(());
        }
        let rows = self.scan().collect_rows();
        self.shard_policy = policy;
        self.shards = Table::initial_shards(self.shard_target, policy);
        for index in self.indexes.values_mut() {
            index.clear();
        }
        self.total_rows = 0;
        let target = rows.len().div_ceil(self.shard_target).max(1);
        for row in rows {
            self.insert_with_fill_target(row, target)?;
        }
        self.data_version += 1;
        self.mark_stats_dirty();
        Ok(())
    }

    /// Rebuilds a table from its persisted parts — the snapshot-restore constructor.
    /// `shard_rows` must match the persisted shard layout exactly (scan order is the
    /// concatenation), `indexed_columns` are rebuilt from the restored rows, and
    /// `stats`, when present, re-seeds the merged statistics cache so the first
    /// optimize after a cold open needs no rescan. Rows are arity-checked against the
    /// schema; deeper corruption is the snapshot checksum's job.
    #[allow(clippy::too_many_arguments)]
    pub fn restore(
        name: impl Into<String>,
        schema: Schema,
        shard_target: usize,
        policy: ShardPolicy,
        shard_rows: Vec<Vec<Row>>,
        indexed_columns: &[String],
        analyze_config: Option<AnalyzeConfig>,
        stats: Option<TableStatistics>,
        data_version: u64,
    ) -> Result<Table> {
        let name = normalize_ident(&name.into());
        let schema = schema.with_qualifier(&name);
        let width = schema.len();
        for rows in &shard_rows {
            if let Some(bad) = rows.iter().find(|r| r.len() != width) {
                return Err(Error::Persist(format!(
                    "table '{}': restored row has {} values, schema has {}",
                    name,
                    bad.len(),
                    width
                )));
            }
        }
        let total_rows = shard_rows.iter().map(Vec::len).sum();
        let shards: Vec<Arc<Shard>> = shard_rows
            .into_iter()
            .map(|rows| Arc::new(Shard::from_rows(rows)))
            .collect();
        let mut table = Table {
            name,
            schema,
            shards,
            shard_target: shard_target.max(1),
            shard_policy: policy,
            total_rows,
            indexes: HashMap::new(),
            cached_stats: RwLock::new(stats.map(Arc::new)),
            analyze_config,
            stats_recomputes: AtomicU64::new(0),
            shard_stat_recomputes: AtomicU64::new(0),
            index_rebuilds: AtomicU64::new(0),
            data_version,
        };
        for column in indexed_columns {
            table.create_index(column)?;
        }
        Ok(table)
    }

    /// A borrowed, shard-iterating view over the table's rows — the scan API.
    pub fn scan(&self) -> RowsView<'_> {
        RowsView::new(&self.shards, self.total_rows)
    }

    /// The table's shards (shared handles).
    pub fn shards(&self) -> &[Arc<Shard>] {
        &self.shards
    }

    /// Current number of shards (≤ the configured fanout for `AppendToLast`).
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// An owned, `'static` handle over every shard — what the executor's worker-pool
    /// jobs capture to map morsel ranges onto shard slices without copying rows out.
    pub fn shard_set(&self) -> ShardSet {
        ShardSet::new(self.shards.clone())
    }

    /// An owned shard handle excluding shards whose *cached* summary proves no row
    /// can satisfy `lo <= column <= hi` (see [`ShardStatistics::may_contain_in_range`]).
    /// Returns the kept set and the number of shards pruned. Never computes
    /// statistics: dirty shards are conservatively kept, and empty shards are kept
    /// without counting as pruned.
    pub fn pruned_shard_set(
        &self,
        column: &str,
        lo: Option<(f64, bool)>,
        hi: Option<(f64, bool)>,
    ) -> (ShardSet, usize) {
        let mut kept = Vec::with_capacity(self.shards.len());
        let mut pruned = 0usize;
        for shard in &self.shards {
            if shard.is_empty() {
                kept.push(Arc::clone(shard));
                continue;
            }
            match shard.cached_summary() {
                Some(s) if !s.may_contain_in_range(column, lo, hi) => pruned += 1,
                _ => kept.push(Arc::clone(shard)),
            }
        }
        (ShardSet::new(kept), pruned)
    }

    /// Fraction of the table's rows in shards a scan with the given bound would keep
    /// (1.0 when nothing can be pruned — unknown column, dirty summaries, …). The
    /// cost model scales scan costs by this, pricing shard pruning.
    pub fn unpruned_row_fraction(
        &self,
        column: &str,
        lo: Option<(f64, bool)>,
        hi: Option<(f64, bool)>,
    ) -> f64 {
        if self.total_rows == 0 {
            return 1.0;
        }
        let mut kept = 0usize;
        for shard in &self.shards {
            match shard.cached_summary() {
                Some(s) if !s.may_contain_in_range(column, lo, hi) => {}
                _ => kept += shard.len(),
            }
        }
        kept as f64 / self.total_rows as f64
    }

    /// Total number of rows across all shards.
    pub fn row_count(&self) -> usize {
        self.total_rows
    }

    /// Validates and appends a row, maintaining all indexes. Row-at-a-time streams
    /// fill each shard to a minimum fill (256 rows) before opening the next.
    pub fn insert(&mut self, row: Row) -> Result<()> {
        let target = (self.total_rows + 1)
            .div_ceil(self.shard_target)
            .max(MIN_SHARD_FILL);
        self.insert_with_fill_target(row, target)
    }

    /// Bulk insert (used by the data generator). Rows are validated like
    /// [`Table::insert`]; the batch's known final size balances rows evenly across
    /// the configured fanout.
    pub fn insert_all(&mut self, rows: Vec<Row>) -> Result<()> {
        let target = (self.total_rows + rows.len())
            .div_ceil(self.shard_target)
            .max(1);
        for row in rows {
            self.insert_with_fill_target(row, target)?;
        }
        Ok(())
    }

    fn insert_with_fill_target(&mut self, row: Row, fill_target: usize) -> Result<()> {
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
        let shard_idx = match self.shard_policy {
            ShardPolicy::Hash => (Shard::route_hash(&row) % self.shard_target as u64) as usize,
            ShardPolicy::AppendToLast => {
                let last = self.shards.len() - 1;
                if self.shards.len() < self.shard_target && self.shards[last].len() >= fill_target {
                    self.shards.push(Arc::new(Shard::new()));
                }
                self.shards.len() - 1
            }
        };
        let offset = self.shards[shard_idx].len();
        for index in self.indexes.values_mut() {
            index.insert(&row, shard_idx, offset);
        }
        // Copy-on-write: a shard shared with a reader gets its own list of chunk handles
        // (no row is copied), and `push` then copies at most the open tail chunk.
        Arc::make_mut(&mut self.shards[shard_idx]).push(row);
        self.total_rows += 1;
        self.data_version += 1;
        self.mark_stats_dirty();
        Ok(())
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
        for (shard_idx, shard) in self.shards.iter().enumerate() {
            for (offset, row) in shard.runs().flatten().enumerate() {
                index.insert(row, shard_idx, offset);
            }
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
            rows.extend(
                older
                    .iter()
                    .chain(newer)
                    .map(|&(shard, offset)| self.shards[shard].row(offset)),
            );
            rows
        })
    }

    /// Statistics for the cost model, computed lazily and cached until the next data
    /// change. The table-level document is the merge of per-shard summaries, and only
    /// *dirty* shards recompute theirs — an insert re-samples one shard, not the
    /// table. Unanalyzed tables get basic statistics (row count, exact distinct
    /// counts, null fractions); tables a sampled [`analyze`](Table::analyze) ran over
    /// additionally carry histograms and MCV lists, and *re-analyze themselves* with
    /// the remembered configuration when the cache is invalidated by new data.
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
        // must not each run the merge (and each bump the recompute counter) — one
        // computes, the rest wait and reuse it.
        let mut slot = self.cached_stats.write().expect("stats cache poisoned");
        if let Some(cached) = slot.as_ref() {
            return Arc::clone(cached);
        }
        let config = self.analyze_config.as_ref();
        let summaries: Vec<Arc<ShardStatistics>> = self
            .shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                shard.ensure_summary(&self.schema, config, i as u64, &self.shard_stat_recomputes)
            })
            .collect();
        let refs: Vec<&ShardStatistics> = summaries.iter().map(Arc::as_ref).collect();
        let computed = Arc::new(ShardStatistics::merge(&self.schema, &refs, config));
        self.stats_recomputes.fetch_add(1, Ordering::Relaxed);
        *slot = Some(Arc::clone(&computed));
        computed
    }

    /// Runs a sampled `ANALYZE` over the table: builds histogram/MCV statistics from
    /// per-shard reservoir samples and remembers `config` so later invalidations
    /// re-analyze automatically (and incrementally). Returns the fresh statistics.
    pub fn analyze(&mut self, config: AnalyzeConfig) -> Arc<TableStatistics> {
        self.analyze_config = Some(config);
        self.mark_stats_dirty();
        self.stats()
    }

    /// True when the table carries `ANALYZE`-built histogram statistics.
    pub fn is_analyzed(&self) -> bool {
        self.analyze_config.is_some()
    }

    /// Lifetime count of table-level statistics merges — the regression metric
    /// proving that repeated `stats()` calls against unchanged data never rescan the
    /// table.
    pub fn stats_recomputes(&self) -> u64 {
        self.stats_recomputes.load(Ordering::Relaxed)
    }

    /// Lifetime count of per-shard statistics passes — the incremental-ANALYZE
    /// metric: after an insert, the next `stats()` bumps this by the number of
    /// *dirty* shards (usually 1), not the shard count.
    pub fn shard_stat_recomputes(&self) -> u64 {
        self.shard_stat_recomputes.load(Ordering::Relaxed)
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

    /// Removes all rows (keeps schema, index definitions, the shard layout and the
    /// ANALYZE config).
    pub fn truncate(&mut self) {
        self.shards = Table::initial_shards(self.shard_target, self.shard_policy);
        self.total_rows = 0;
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
    use crate::shard::CHUNK_ROWS;
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

    fn sharded_orders(shard_count: usize) -> Table {
        Table::with_shards(
            "orders",
            Schema::new(vec![
                Column::new("orderkey", DataType::Int).not_null(),
                Column::new("custkey", DataType::Int),
                Column::new("totalprice", DataType::Float),
            ]),
            shard_count,
            ShardPolicy::AppendToLast,
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
        let mut t = sharded_orders(4);
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
    fn bulk_loads_balance_across_shards_and_keep_scan_order() {
        let mut t = sharded_orders(4);
        t.insert_all(order_rows(1000)).unwrap();
        assert_eq!(t.shard_count(), 4);
        let sizes: Vec<usize> = t.shards().iter().map(|s| s.len()).collect();
        assert_eq!(sizes, vec![250, 250, 250, 250]);
        // Global scan order is insertion order regardless of fanout.
        let keys: Vec<i64> = t
            .scan()
            .iter()
            .map(|r| match r.get(0) {
                Value::Int(i) => *i,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(keys, (0..1000).collect::<Vec<_>>());
        // Appends after the fanout is reached go to the last shard.
        t.insert(Row::new(vec![1000.into(), 0.into(), 0.0.into()]))
            .unwrap();
        assert_eq!(t.shard_count(), 4);
        assert_eq!(t.shards()[3].len(), 251);
    }

    #[test]
    fn row_at_a_time_streams_fill_shards_to_the_minimum_first() {
        let mut t = sharded_orders(4);
        for row in order_rows(600) {
            t.insert(row).unwrap();
        }
        // 600 singleton inserts: each shard fills to MIN_SHARD_FILL before the next
        // opens — no degenerate 1-row shards.
        let sizes: Vec<usize> = t.shards().iter().map(|s| s.len()).collect();
        assert_eq!(sizes, vec![256, 256, 88]);
    }

    #[test]
    fn hash_policy_routes_rows_deterministically() {
        let make = || {
            let mut t = Table::with_shards(
                "orders",
                Schema::new(vec![
                    Column::new("orderkey", DataType::Int).not_null(),
                    Column::new("custkey", DataType::Int),
                    Column::new("totalprice", DataType::Float),
                ]),
                4,
                ShardPolicy::Hash,
            );
            t.insert_all(order_rows(400)).unwrap();
            t
        };
        let (a, b) = (make(), make());
        assert_eq!(a.shard_count(), 4);
        assert_eq!(a.row_count(), 400);
        // Same rows, same routing.
        let sizes = |t: &Table| t.shards().iter().map(|s| s.len()).collect::<Vec<_>>();
        assert_eq!(sizes(&a), sizes(&b));
        // Every shard's rows are found through the index after routing.
        assert!(sizes(&a).iter().sum::<usize>() == 400);
    }

    #[test]
    fn clone_shares_shards_until_written() {
        let mut t = sharded_orders(4);
        t.insert_all(order_rows(1000)).unwrap();
        let snapshot = t.clone();
        // All four shards are physically shared right after the clone.
        for (a, b) in t.shards().iter().zip(snapshot.shards()) {
            assert!(Arc::ptr_eq(a, b));
        }
        t.insert(Row::new(vec![1000.into(), 0.into(), 0.0.into()]))
            .unwrap();
        // The write deep-cloned only the shard it appended to.
        let shared: Vec<bool> = t
            .shards()
            .iter()
            .zip(snapshot.shards())
            .map(|(a, b)| Arc::ptr_eq(a, b))
            .collect();
        assert_eq!(shared, vec![true, true, true, false]);
        assert_eq!(snapshot.row_count(), 1000);
        assert_eq!(t.row_count(), 1001);
    }

    /// Chunks of `live` that `snapshot` does not hold — what a write made after the
    /// clone had to allocate: sealed chunks by handle, and the open tail of any shard
    /// the two no longer share (a shard's clone always copies its tail).
    fn unshared_chunks(live: &Table, snapshot: &Table) -> usize {
        live.shards()
            .iter()
            .zip(snapshot.shards())
            .filter(|(mine, theirs)| !Arc::ptr_eq(mine, theirs))
            .map(|(mine, theirs)| {
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
            })
            .sum()
    }

    fn owned(hits: Option<Vec<&Row>>) -> Vec<Row> {
        hits.expect("indexed column").into_iter().cloned().collect()
    }

    #[test]
    fn clone_then_insert_copies_one_chunk_and_no_index_base() {
        let cases = [
            (1, ShardPolicy::AppendToLast, 50_000),
            (1, ShardPolicy::AppendToLast, CHUNK_ROWS - 1),
            (1, ShardPolicy::AppendToLast, CHUNK_ROWS),
            (1, ShardPolicy::AppendToLast, CHUNK_ROWS + 1),
            (4, ShardPolicy::Hash, 50_000),
        ];
        for (shard_count, policy, n) in cases {
            let case = format!("{shard_count} shard(s), {policy:?}, {n} rows");
            let mut t = Table::with_shards(
                "orders",
                orders_table().schema().clone(),
                shard_count,
                policy,
            );
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
            for (mine, theirs) in t.shards().iter().zip(snapshot.shards()) {
                for (i, sealed) in theirs.sealed().iter().enumerate() {
                    assert!(Arc::ptr_eq(sealed, &mine.sealed()[i]), "{case}: chunk {i}");
                }
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

        for (seed, shard_count) in [(11u64, 1usize), (12, 3)] {
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut rows: Vec<Row> = vec![];
            let mut live =
                Table::with_shards("t", schema(), shard_count, ShardPolicy::AppendToLast);
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
    fn index_lookup_spans_shards() {
        let mut t = sharded_orders(4);
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
        let mut t = sharded_orders(4);
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
        let analyzed = t.analyze(AnalyzeConfig::default());
        assert!(analyzed.analyzed);
        assert!(analyzed
            .range_selectivity("orderkey", None, Some((99.0, true)))
            .is_some());
        // New data invalidates, and the next stats() re-analyzes automatically.
        t.insert(Row::new(vec![200.into(), 3.into(), 1.0.into()]))
            .unwrap();
        let refreshed = t.stats();
        assert!(refreshed.analyzed, "re-analyze with remembered config");
        assert_eq!(refreshed.row_count, 201);
    }

    #[test]
    fn incremental_analyze_resamples_only_dirty_shards() {
        let mut t = sharded_orders(4);
        t.insert_all(order_rows(1000)).unwrap();
        t.analyze(AnalyzeConfig::default());
        assert_eq!(t.stats_recomputes(), 1);
        assert_eq!(t.shard_stat_recomputes(), 4, "all four shards sample once");
        // Repeated reads touch nothing.
        let _ = t.stats();
        assert_eq!(t.shard_stat_recomputes(), 4);
        // One insert dirties exactly one shard; the merge re-runs but only that
        // shard re-samples.
        t.insert(Row::new(vec![1000.into(), 0.into(), 0.0.into()]))
            .unwrap();
        let refreshed = t.stats();
        assert!(refreshed.analyzed);
        assert_eq!(refreshed.row_count, 1001);
        assert_eq!(t.stats_recomputes(), 2);
        assert_eq!(
            t.shard_stat_recomputes(),
            5,
            "only the dirty shard re-sampled"
        );
    }

    #[test]
    fn pruned_shard_sets_respect_cached_summaries() {
        let mut t = sharded_orders(4);
        t.insert_all(order_rows(1000)).unwrap();
        // Before any statistics pass nothing can be pruned.
        let (set, pruned) = t.pruned_shard_set("orderkey", Some((900.0, true)), None);
        assert_eq!((set.len(), pruned), (1000, 0), "dirty shards never prune");
        assert_eq!(
            t.unpruned_row_fraction("orderkey", Some((900.0, true)), None),
            1.0
        );
        t.analyze(AnalyzeConfig::default());
        // orderkey >= 900 lives entirely in the last shard (rows 750..999).
        let (set, pruned) = t.pruned_shard_set("orderkey", Some((900.0, true)), None);
        assert_eq!(pruned, 3);
        assert_eq!(set.len(), 250);
        let frac = t.unpruned_row_fraction("orderkey", Some((900.0, true)), None);
        assert!((frac - 0.25).abs() < 1e-9, "frac {frac}");
        // Equality inside one shard's range keeps just that shard.
        let (set, pruned) = t.pruned_shard_set("orderkey", Some((10.0, true)), Some((10.0, true)));
        assert_eq!(pruned, 3);
        assert_eq!(set.len(), 250);
        // An unknown column prunes nothing.
        let (_, pruned) = t.pruned_shard_set("nosuch", Some((900.0, true)), None);
        assert_eq!(pruned, 0);
        // custkey spans 0..9 in every shard: no pruning for custkey = 3.
        let (set, pruned) = t.pruned_shard_set("custkey", Some((3.0, true)), Some((3.0, true)));
        assert_eq!((set.len(), pruned), (1000, 0));
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
    fn set_placement_reroutes_rows_and_maintains_indexes() {
        let mut t = sharded_orders(4);
        t.insert_all(order_rows(400)).unwrap();
        t.create_index("custkey").unwrap();
        let version_before = t.data_version();
        t.set_placement(ShardPolicy::Hash).unwrap();
        assert_eq!(t.shard_policy(), ShardPolicy::Hash);
        assert_eq!(t.shard_count(), 4, "hash placement opens every shard");
        assert_eq!(t.row_count(), 400);
        assert!(t.data_version() > version_before);
        // Same rows, different order: compare as sorted multisets.
        let mut keys: Vec<i64> = t
            .scan()
            .iter()
            .map(|r| r.get(0).as_int().unwrap())
            .collect();
        keys.sort_unstable();
        assert_eq!(keys, (0..400).collect::<Vec<_>>());
        // Indexes were rebuilt against the new locators.
        let hits = t.index_lookup("custkey", &Value::Int(3)).unwrap();
        assert_eq!(hits.len(), 40);
        assert!(hits.iter().all(|r| r.get(1) == &Value::Int(3)));
        // Routing matches a table built under Hash from scratch.
        let mut fresh = Table::with_shards(
            "orders",
            Schema::new(vec![
                Column::new("orderkey", DataType::Int).not_null(),
                Column::new("custkey", DataType::Int),
                Column::new("totalprice", DataType::Float),
            ]),
            4,
            ShardPolicy::Hash,
        );
        fresh.insert_all(order_rows(400)).unwrap();
        let sizes = |t: &Table| t.shards().iter().map(|s| s.len()).collect::<Vec<_>>();
        assert_eq!(sizes(&t), sizes(&fresh));
        // Switching to the same policy is a no-op.
        let v = t.data_version();
        t.set_placement(ShardPolicy::Hash).unwrap();
        assert_eq!(t.data_version(), v);
    }

    #[test]
    fn restore_rebuilds_exact_layout_and_indexes() {
        let mut original = sharded_orders(4);
        original.insert_all(order_rows(1000)).unwrap();
        original.create_index("custkey").unwrap();
        let analyzed = original.analyze(AnalyzeConfig::default());
        let shard_rows: Vec<Vec<Row>> = original.shards().iter().map(|s| s.to_vec()).collect();
        let restored = Table::restore(
            "orders",
            Schema::new(vec![
                Column::new("orderkey", DataType::Int).not_null(),
                Column::new("custkey", DataType::Int),
                Column::new("totalprice", DataType::Float),
            ]),
            original.shard_target(),
            original.shard_policy(),
            shard_rows,
            &original.indexed_columns(),
            original.analyze_config().cloned(),
            Some(analyzed.as_ref().clone()),
            original.data_version(),
        )
        .unwrap();
        assert_eq!(restored.row_count(), 1000);
        assert_eq!(restored.shard_count(), original.shard_count());
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
            1,
            ShardPolicy::AppendToLast,
            vec![vec![Row::new(vec![1.into(), 2.into()])]],
            &[],
            None,
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
