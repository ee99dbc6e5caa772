//! The durable side of an engine opened with a `data_dir`: the live [`PersistHandle`],
//! building a [`Snapshot`] from the current epoch and restoring one, replaying the WAL
//! through the ordinary write paths, and [`Engine::checkpoint`].

use std::path::{Path, PathBuf};
use std::time::Instant;

use decorr_common::{Column, Error, Result, Schema};
use decorr_persist::{ColumnDef, PersistStats, Snapshot, TableSnapshot, WalRecord, WalWriter};
use decorr_storage::Table;

use crate::engine::{lock, read, Engine};

/// Live durability state of an engine opened with a `data_dir`.
#[derive(Debug)]
pub(crate) struct PersistHandle {
    /// Directory holding `snapshot.bin` and `wal.log`.
    dir: PathBuf,
    /// Open WAL appender (the tail already recovered and truncated).
    wal: WalWriter,
    /// The counters this handle owns; the WAL's are read off `wal` on demand.
    stats: PersistStats,
}

/// Maps a live schema to the persist layer's plain column definitions (unqualified:
/// `Table::restore` re-qualifies with the table name).
pub(crate) fn column_defs(schema: &Schema) -> Vec<ColumnDef> {
    schema
        .columns
        .iter()
        .map(|c| ColumnDef {
            name: c.name.clone(),
            data_type: c.data_type,
            nullable: c.nullable,
        })
        .collect()
}

/// Rebuilds a schema from persisted column definitions.
fn schema_of(columns: &[ColumnDef]) -> Schema {
    Schema::new(
        columns
            .iter()
            .map(|c| {
                let col = Column::new(&c.name, c.data_type);
                if c.nullable {
                    col
                } else {
                    col.not_null()
                }
            })
            .collect(),
    )
}

/// Counter snapshot of a live durability handle.
fn stats_of(handle: &PersistHandle) -> PersistStats {
    PersistStats {
        wal_records_appended: handle.wal.records_appended(),
        wal_bytes_appended: handle.wal.bytes_appended(),
        ..handle.stats
    }
}

impl Engine {
    /// Appends one record to the WAL if this engine is durable; a no-op otherwise.
    /// Caller holds the writer lock.
    pub(crate) fn wal_append(&self, record: &WalRecord) -> Result<()> {
        let mut slot = lock(&self.inner.persist);
        if let Some(handle) = slot.as_mut() {
            handle.wal.append(record)?;
        }
        Ok(())
    }

    /// True when this engine was opened with a `data_dir` and is logging writes.
    pub(crate) fn persist_active(&self) -> bool {
        lock(&self.inner.persist).is_some()
    }

    /// Writes a checkpoint: the full engine state (catalog DDL, every table's rows
    /// and statistics, registered functions, learned feedback) as one
    /// atomic snapshot file, then truncates the WAL. Requires a durable engine
    /// (built with [`EngineBuilder::data_dir`](crate::EngineBuilder::data_dir)); returns the updated counters.
    ///
    /// Runs inside the writer critical section, so the snapshot is one consistent
    /// epoch and no write can slip between the snapshot and the WAL reset.
    pub fn checkpoint(&self) -> Result<PersistStats> {
        let _writer = lock(&self.inner.writer);
        let start = Instant::now();
        let snapshot = self.build_snapshot()?;
        let mut slot = lock(&self.inner.persist);
        let handle = slot.as_mut().ok_or_else(|| {
            Error::Persist(
                "engine has no data_dir; open it with Engine::builder().data_dir(..)".into(),
            )
        })?;
        let bytes = snapshot.save(&handle.dir)?;
        handle.wal.reset()?;
        handle.stats.checkpoints += 1;
        handle.stats.snapshot_bytes = bytes;
        handle.stats.last_checkpoint_micros = start.elapsed().as_micros().max(1) as u64;
        Ok(stats_of(handle))
    }

    /// Durability counters: checkpoints completed, WAL records/bytes appended,
    /// records replayed on open. All zeros (`active == false`) on an engine without
    /// a `data_dir`.
    pub fn persist_stats(&self) -> PersistStats {
        match lock(&self.inner.persist).as_ref() {
            None => PersistStats::default(),
            Some(handle) => stats_of(handle),
        }
    }

    /// Maps the current epoch into a plain-data [`Snapshot`]. Caller holds the
    /// writer lock (or owns the only handle), so the epoch cannot move underneath.
    fn build_snapshot(&self) -> Result<Snapshot> {
        let state = read(&self.inner.state).clone();
        let catalog = state.catalog;
        let registry = state.registry;
        let mut tables = vec![];
        for name in catalog.table_names() {
            let table = catalog.table(&name)?;
            tables.push(TableSnapshot {
                name: name.clone(),
                columns: column_defs(table.schema()),
                rows: table.scan().collect_rows(),
                indexes: table.indexed_columns(),
                analyzed: table.is_analyzed(),
                // Persisting the statistics makes the restored table's first
                // optimize as informed as the live one's — no cold-open rescan.
                stats: Some((*table.stats()).clone()),
                data_version: table.data_version(),
            });
        }
        let mut functions = vec![];
        for udf in registry.udfs() {
            match &udf.source {
                Some(source) => functions.push(source.clone()),
                None => {
                    return Err(Error::Persist(format!(
                        "function '{}' has no source text and cannot be checkpointed",
                        udf.name,
                    )))
                }
            }
        }
        Ok(Snapshot {
            ddl_generation: catalog.ddl_generation(),
            data_generation: catalog.data_generation(),
            tables,
            functions,
            feedback: self.inner.feedback.export_state(),
        })
    }

    /// Opens `dir` on a freshly built (still-private) engine: loads the snapshot if
    /// one exists, replays the WAL's valid prefix through the ordinary write path,
    /// then installs the durability handle so subsequent writes are logged. Replay
    /// itself is deliberately unlogged (the records are already on disk).
    pub(crate) fn open_data_dir(&self, dir: &Path) -> Result<()> {
        let mut stats = PersistStats {
            active: true,
            ..PersistStats::default()
        };
        if let Some(snapshot) = Snapshot::load(dir)? {
            self.restore_snapshot(snapshot)?;
            stats.snapshot_loaded = true;
        }
        let (wal, recovery) = WalWriter::open(dir)?;
        stats.wal_records_replayed = recovery.records.len() as u64;
        for record in recovery.records {
            self.apply_wal_record(record)?;
        }
        *lock(&self.inner.persist) = Some(PersistHandle {
            dir: dir.to_path_buf(),
            wal,
            stats,
        });
        Ok(())
    }

    /// Rebuilds live state from a decoded snapshot: tables (rows in scan order,
    /// indexes, statistics, generations), then functions (re-parsed from source, so
    /// normalization is identical by construction), then the feedback store's
    /// learned state.
    fn restore_snapshot(&self, snapshot: Snapshot) -> Result<()> {
        let Snapshot {
            ddl_generation,
            data_generation,
            tables,
            functions,
            feedback,
        } = snapshot;
        self.mutate_catalog(|c| {
            for t in tables {
                let table = Table::restore(
                    &t.name,
                    schema_of(&t.columns),
                    t.rows,
                    &t.indexes,
                    t.analyzed,
                    t.stats,
                    t.data_version,
                )?;
                c.restore_table(table)?;
            }
            c.set_generations(ddl_generation, data_generation);
            Ok(())
        })?;
        for source in &functions {
            self.register_function(source)?;
        }
        self.inner.feedback.import_state(feedback);
        Ok(())
    }

    /// Replays one recovered WAL record through the write path the original statement
    /// used. Nothing is logged again: the durability handle is installed only after
    /// replay, so `persist_active()` is still false here.
    fn apply_wal_record(&self, record: WalRecord) -> Result<()> {
        match record {
            WalRecord::CreateTable { name, columns } => {
                self.create_table(&name, schema_of(&columns))
            }
            WalRecord::DropTable { name } => self.drop_table(&name),
            WalRecord::Insert { table, rows } => self.insert_rows(&table, rows).map(|_| ()),
            WalRecord::CreateIndex { table, column } => self.create_index(&table, &column),
            WalRecord::Analyze { table } => self.analyze_with(table).map(|_| ()),
            WalRecord::CreateFunction { source } => self.register_function(&source),
        }
    }
}
