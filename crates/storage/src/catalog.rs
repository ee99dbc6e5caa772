//! The catalog: a named collection of tables.

use std::collections::BTreeMap;
use std::sync::Arc;

use decorr_common::{normalize_ident, Error, Result, Row, Schema};

use crate::table::Table;

/// The database catalog. Owns every table; the executor reads through shared references
/// while DDL/DML goes through `&mut` methods on the owning engine.
///
/// DDL statements bump a monotonic [`ddl_generation`](Catalog::ddl_generation) counter;
/// the optimizer's plan cache folds it into its cache key so plans bound against a
/// dropped or re-created schema become unreachable. Row inserts deliberately do *not*
/// bump it — they can only make a cached cost-based choice suboptimal, never incorrect.
/// Inserts instead bump the separate [`data_generation`](Catalog::data_generation)
/// counter, which consumers whose cached *results* (not plans) depend on table
/// contents — like the engine's UDF memo cache — fold into their invalidation epoch.
/// Tables are stored behind `Arc` so cloning a catalog (the engine's copy-on-write
/// snapshot swap) is cheap: only tables a writer actually touches are deep-cloned, via
/// [`Arc::make_mut`] in [`table_mut`](Catalog::table_mut).
#[derive(Debug, Default, Clone)]
pub struct Catalog {
    tables: BTreeMap<String, Arc<Table>>,
    ddl_generation: u64,
    data_generation: u64,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Installs a fully-built table (the snapshot-restore path). Fails if a table
    /// with the same name already exists. Does *not* bump generations — restore sets
    /// them wholesale via [`set_generations`](Catalog::set_generations).
    pub fn restore_table(&mut self, table: Table) -> Result<()> {
        let key = table.name().to_string();
        if self.tables.contains_key(&key) {
            return Err(Error::Persist(format!(
                "restore: table '{key}' already exists"
            )));
        }
        self.tables.insert(key, Arc::new(table));
        Ok(())
    }

    /// Overwrites both generation counters — the snapshot-restore path, so counters
    /// (and everything keyed on them, like plan-cache entries) continue exactly where
    /// the checkpointed engine left off.
    pub fn set_generations(&mut self, ddl: u64, data: u64) {
        self.ddl_generation = ddl;
        self.data_generation = data;
    }

    /// Creates a table. Fails if a table with the same name already exists.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<()> {
        let key = normalize_ident(name);
        if self.tables.contains_key(&key) {
            return Err(Error::Catalog(format!("table '{name}' already exists")));
        }
        self.ddl_generation += 1;
        let table = Table::new(key.clone(), schema);
        self.tables.insert(key, Arc::new(table));
        Ok(())
    }

    /// Drops a table. Fails if it does not exist.
    pub fn drop_table(&mut self, name: &str) -> Result<()> {
        let key = normalize_ident(name);
        if self.tables.remove(&key).is_none() {
            return Err(Error::Catalog(format!("table '{name}' does not exist")));
        }
        self.ddl_generation += 1;
        Ok(())
    }

    /// Monotonic DDL counter: incremented by `create_table`, `drop_table` and
    /// `create_index`. Plan caches key on this value so schema changes invalidate
    /// cached plans.
    pub fn ddl_generation(&self) -> u64 {
        self.ddl_generation
    }

    /// Monotonic data-mutation counter: incremented by every successful
    /// [`insert_rows`](Catalog::insert_rows). A pure UDF's result may depend on table
    /// contents (its body can run queries), so result caches key on this value to
    /// avoid serving answers computed against rows that have since changed.
    pub fn data_generation(&self) -> u64 {
        self.data_generation
    }

    /// Shared access to a table by (case-insensitive) name.
    pub fn table(&self, name: &str) -> Result<&Table> {
        self.tables
            .get(&normalize_ident(name))
            .map(|t| t.as_ref())
            .ok_or_else(|| Error::Catalog(format!("unknown table '{name}'")))
    }

    /// Mutable access to a table. On a catalog cloned from a pinned snapshot the table
    /// is still shared with the snapshot, so this copy-on-writes just that table.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table> {
        self.tables
            .get_mut(&normalize_ident(name))
            .map(Arc::make_mut)
            .ok_or_else(|| Error::Catalog(format!("unknown table '{name}'")))
    }

    /// The shared handle for a table — lets executors pin one table's data
    /// independently of the catalog it came from.
    pub fn table_arc(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .get(&normalize_ident(name))
            .cloned()
            .ok_or_else(|| Error::Catalog(format!("unknown table '{name}'")))
    }

    /// True when a table with the given (case-insensitive) name exists.
    pub fn has_table(&self, name: &str) -> bool {
        self.tables.contains_key(&normalize_ident(name))
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.keys().cloned().collect()
    }

    /// Convenience: schema of a table (unqualified error if missing).
    pub fn table_schema(&self, name: &str) -> Result<Schema> {
        Ok(self.table(name)?.schema().clone())
    }

    /// True when `other` holds the same table names with the same schemas: whatever
    /// was bound against one catalog's schemas is bound right against the other's.
    pub fn same_schemas(&self, other: &Catalog) -> bool {
        self.tables.len() == other.tables.len()
            && self
                .tables
                .iter()
                .zip(&other.tables)
                .all(|((a, t), (b, u))| a == b && (Arc::ptr_eq(t, u) || t.schema() == u.schema()))
    }

    /// Convenience: inserts rows into a table. Bumps the data generation (but not the
    /// DDL generation — plans stay valid, memoized UDF results do not).
    pub fn insert_rows(&mut self, name: &str, rows: Vec<Row>) -> Result<usize> {
        let n = rows.len();
        self.table_mut(name)?.insert_all(rows)?;
        self.data_generation += 1;
        Ok(n)
    }

    /// Convenience: creates a hash index.
    pub fn create_index(&mut self, table: &str, column: &str) -> Result<()> {
        self.table_mut(table)?.create_index(column)?;
        self.ddl_generation += 1;
        Ok(())
    }

    /// Runs a sampled `ANALYZE` over one table (see
    /// [`Table::analyze`](crate::table::Table::analyze)). Bumps the DDL generation:
    /// fresh histograms change cost-based decisions, so cached plans must be
    /// re-optimized against the new statistics.
    pub fn analyze_table(&mut self, name: &str) -> Result<()> {
        self.table_mut(name)?.analyze();
        self.ddl_generation += 1;
        Ok(())
    }

    /// Runs a sampled `ANALYZE` over every table; returns the analyzed table names.
    pub fn analyze_all(&mut self) -> Vec<String> {
        let names = self.table_names();
        for name in &names {
            if let Some(table) = self.tables.get_mut(name) {
                Arc::make_mut(table).analyze();
            }
        }
        self.ddl_generation += 1;
        names
    }

    /// Total number of rows across all tables (used in tests and diagnostics).
    pub fn total_rows(&self) -> usize {
        self.tables.values().map(|t| t.row_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::{Column, DataType, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Str),
        ])
    }

    #[test]
    fn create_insert_lookup() {
        let mut c = Catalog::new();
        c.create_table("t", schema()).unwrap();
        assert!(c.has_table("T"));
        c.insert_rows("t", vec![Row::new(vec![1.into(), "a".into()])])
            .unwrap();
        assert_eq!(c.table("t").unwrap().row_count(), 1);
        assert_eq!(c.total_rows(), 1);
        assert_eq!(c.table_names(), vec!["t".to_string()]);
    }

    #[test]
    fn duplicate_and_missing_tables_error() {
        let mut c = Catalog::new();
        c.create_table("t", schema()).unwrap();
        assert_eq!(c.create_table("T", schema()).unwrap_err().kind(), "catalog");
        assert_eq!(c.table("nosuch").unwrap_err().kind(), "catalog");
        assert_eq!(c.drop_table("nosuch").unwrap_err().kind(), "catalog");
        c.drop_table("t").unwrap();
        assert!(!c.has_table("t"));
    }

    #[test]
    fn inserts_bump_data_generation_but_not_ddl() {
        let mut c = Catalog::new();
        c.create_table("t", schema()).unwrap();
        let (ddl, data) = (c.ddl_generation(), c.data_generation());
        c.insert_rows("t", vec![Row::new(vec![1.into(), "a".into()])])
            .unwrap();
        assert_eq!(c.ddl_generation(), ddl);
        assert_eq!(c.data_generation(), data + 1);
        // A failed insert (unknown table) leaves the counter alone.
        assert!(c.insert_rows("nosuch", vec![]).is_err());
        assert_eq!(c.data_generation(), data + 1);
    }

    #[test]
    fn clone_is_copy_on_write_per_table() {
        let mut c = Catalog::new();
        c.create_table("a", schema()).unwrap();
        c.create_table("b", schema()).unwrap();
        let snapshot = c.clone();
        c.insert_rows("a", vec![Row::new(vec![1.into(), "a".into()])])
            .unwrap();
        // The pinned snapshot still sees the old contents of the written table...
        assert_eq!(snapshot.table("a").unwrap().row_count(), 0);
        assert_eq!(c.table("a").unwrap().row_count(), 1);
        assert_eq!(snapshot.data_generation() + 1, c.data_generation());
        // ...while the untouched table is still physically shared, not deep-cloned.
        assert!(Arc::ptr_eq(
            &c.table_arc("b").unwrap(),
            &snapshot.table_arc("b").unwrap()
        ));
        assert!(!Arc::ptr_eq(
            &c.table_arc("a").unwrap(),
            &snapshot.table_arc("a").unwrap()
        ));
    }

    #[test]
    fn only_table_ddl_changes_the_schemas() {
        let mut c = Catalog::new();
        c.create_table("t", schema()).unwrap();
        let before = c.clone();
        c.insert_rows("t", vec![Row::new(vec![1.into(), "a".into()])])
            .unwrap();
        c.create_index("t", "k").unwrap();
        c.analyze_all();
        assert!(c.same_schemas(&before));
        c.drop_table("t").unwrap();
        assert!(!c.same_schemas(&before));
        c.create_table("t", Schema::new(vec![Column::new("k", DataType::Int)]))
            .unwrap();
        assert!(!c.same_schemas(&before));
        c.drop_table("t").unwrap();
        c.create_table("t", schema()).unwrap();
        assert!(c.same_schemas(&before));
        c.create_table("u", schema()).unwrap();
        assert!(!c.same_schemas(&before) && !before.same_schemas(&c));
    }

    #[test]
    fn generations_can_be_restored_wholesale() {
        let mut c = Catalog::new();
        c.create_table("t", schema()).unwrap();
        c.set_generations(41, 17);
        assert_eq!(c.ddl_generation(), 41);
        assert_eq!(c.data_generation(), 17);
        // Restore refuses to clobber an existing table.
        let dup = Table::new("t", schema());
        assert_eq!(c.restore_table(dup).unwrap_err().kind(), "persist");
    }

    #[test]
    fn index_via_catalog() {
        let mut c = Catalog::new();
        c.create_table("t", schema()).unwrap();
        c.insert_rows(
            "t",
            vec![
                Row::new(vec![1.into(), "a".into()]),
                Row::new(vec![1.into(), "b".into()]),
            ],
        )
        .unwrap();
        c.create_index("t", "k").unwrap();
        let hits = c
            .table("t")
            .unwrap()
            .index_lookup("k", &Value::Int(1))
            .unwrap();
        assert_eq!(hits.len(), 2);
    }
}
