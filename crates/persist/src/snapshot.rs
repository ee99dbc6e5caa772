//! Versioned, checksummed binary snapshots of the full engine state.
//!
//! A snapshot is a plain-data image: catalog DDL (schemas, indexed columns), each
//! table's rows in exact scan order, the [`TableStatistics`] documents (histograms/MCVs/NDVs re-seed the statistics cache
//! on open, so the first optimize after a cold start needs no rescan), registered
//! UDF sources, and the feedback store's learned state. The engine maps its live
//! structures into this model at checkpoint time and back at open.
//!
//! On disk: an 8-byte magic, a format version, a length-prefixed payload and a
//! trailing FNV-1a checksum over everything before it. [`Snapshot::save`] writes to
//! `snapshot.bin.tmp` and renames over `snapshot.bin`, so a crash mid-checkpoint
//! leaves the previous snapshot intact; [`Snapshot::load`] rejects any flipped byte
//! with a named [`Error::Persist`] rather than
//! deserializing garbage.

use std::fs;
use std::path::Path;
use std::time::Duration;

use decorr_common::{DataType, Error, FnvHasher, Result, Row};
use decorr_optimizer::{FeedbackState, QueryFeedback, UdfFeedback, UdfRuntime};
use decorr_storage::{ColumnStatistics, Histogram, TableStatistics};

use crate::encode::{ByteReader, ByteWriter};

/// File name of the snapshot inside a `data_dir`.
pub const SNAPSHOT_FILE: &str = "snapshot.bin";
/// Temporary file the atomic save writes before renaming.
const SNAPSHOT_TMP: &str = "snapshot.bin.tmp";
/// Magic prefix identifying a snapshot file.
const MAGIC: &[u8; 8] = b"DCRSNAP1";
/// Current format version. Bump on any incompatible layout change. There is no reader
/// for an older one: version 1 stored each table's rows as several partitions plus a
/// fanout and a placement policy, version 2 each analyzed table's sampling
/// configuration.
pub const VERSION: u32 = 3;

/// One column of a persisted table schema (unqualified — the restore path
/// re-qualifies columns with the table name, exactly like `CREATE TABLE`).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Declared type.
    pub data_type: DataType,
    /// False for `NOT NULL` columns.
    pub nullable: bool,
}

/// Full persisted state of one table.
#[derive(Debug, Clone, PartialEq)]
pub struct TableSnapshot {
    /// Normalized table name.
    pub name: String,
    /// Schema columns, unqualified.
    pub columns: Vec<ColumnDef>,
    /// The table's rows in scan order, so a restored table scans byte-identically.
    pub rows: Vec<Row>,
    /// Indexed column names (indexes rebuild from rows on restore).
    pub indexes: Vec<String>,
    /// Whether an `ANALYZE` ran over the table.
    pub analyzed: bool,
    /// Table statistics at checkpoint time, when warm — re-seeds the
    /// statistics cache so a cold open serves the first optimize without a rescan.
    pub stats: Option<TableStatistics>,
    /// The table's monotonic data version (result caches key on it).
    pub data_version: u64,
}

/// A complete engine-state image.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// Catalog DDL generation at checkpoint time.
    pub ddl_generation: u64,
    /// Catalog data generation at checkpoint time.
    pub data_generation: u64,
    /// Every table, in catalog (name) order.
    pub tables: Vec<TableSnapshot>,
    /// `CREATE FUNCTION` sources of every registered UDF, in registry (name) order.
    /// Restore replays them through the parser, so normalization is identical.
    pub functions: Vec<String>,
    /// The feedback store's learned state.
    pub feedback: FeedbackState,
}

impl Snapshot {
    /// Encodes the snapshot into its on-disk byte form (magic, version, payload,
    /// trailing checksum).
    pub fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        w.put_u64(self.ddl_generation);
        w.put_u64(self.data_generation);
        w.put_u32(self.tables.len() as u32);
        for table in &self.tables {
            put_table(&mut w, table);
        }
        w.put_u32(self.functions.len() as u32);
        for source in &self.functions {
            w.put_str(source);
        }
        put_feedback(&mut w, &self.feedback);
        let payload = w.into_bytes();

        let mut out = Vec::with_capacity(payload.len() + 28);
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&payload);
        let mut hasher = FnvHasher::new();
        hasher.write_bytes(&out);
        out.extend_from_slice(&hasher.finish().to_le_bytes());
        out
    }

    /// Decodes a snapshot, verifying magic, version, length and checksum. Any
    /// mismatch — including a single flipped byte anywhere in the file — is a named
    /// `persist` error, never a panic.
    pub fn decode(bytes: &[u8]) -> Result<Snapshot> {
        if bytes.len() < MAGIC.len() + 4 + 8 + 8 {
            return Err(Error::Persist("snapshot file is too short".into()));
        }
        if &bytes[..MAGIC.len()] != MAGIC {
            return Err(Error::Persist("snapshot magic mismatch".into()));
        }
        let body_len = bytes.len() - 8;
        let stored = u64::from_le_bytes(bytes[body_len..].try_into().expect("8 bytes"));
        let mut hasher = FnvHasher::new();
        hasher.write_bytes(&bytes[..body_len]);
        if hasher.finish() != stored {
            return Err(Error::Persist(
                "snapshot checksum mismatch (corrupt or torn file)".into(),
            ));
        }
        let mut r = ByteReader::new(&bytes[MAGIC.len()..body_len]);
        let version = r.get_u32()?;
        if version != VERSION {
            return Err(Error::Persist(format!(
                "snapshot format version {version} is not supported (expected {VERSION})"
            )));
        }
        let payload_len = r.get_usize()?;
        if payload_len != r.remaining() {
            return Err(Error::Persist(format!(
                "snapshot payload length mismatch: header says {payload_len}, file holds {}",
                r.remaining()
            )));
        }
        let ddl_generation = r.get_u64()?;
        let data_generation = r.get_u64()?;
        let table_count = r.get_u32()? as usize;
        let mut tables = Vec::with_capacity(table_count.min(r.remaining()));
        for _ in 0..table_count {
            tables.push(get_table(&mut r)?);
        }
        let function_count = r.get_u32()? as usize;
        let mut functions = Vec::with_capacity(function_count.min(r.remaining()));
        for _ in 0..function_count {
            functions.push(r.get_str()?);
        }
        let feedback = get_feedback(&mut r)?;
        if !r.is_empty() {
            return Err(Error::Persist(format!(
                "snapshot has {} trailing bytes",
                r.remaining()
            )));
        }
        Ok(Snapshot {
            ddl_generation,
            data_generation,
            tables,
            functions,
            feedback,
        })
    }

    /// Atomically writes the snapshot into `dir` (created if missing): encode to
    /// `snapshot.bin.tmp`, then rename over `snapshot.bin`. Returns the byte size.
    pub fn save(&self, dir: &Path) -> Result<u64> {
        fs::create_dir_all(dir)
            .map_err(|e| Error::Persist(format!("cannot create data dir {dir:?}: {e}")))?;
        let bytes = self.encode();
        let tmp = dir.join(SNAPSHOT_TMP);
        let dst = dir.join(SNAPSHOT_FILE);
        fs::write(&tmp, &bytes)
            .map_err(|e| Error::Persist(format!("cannot write snapshot {tmp:?}: {e}")))?;
        fs::rename(&tmp, &dst)
            .map_err(|e| Error::Persist(format!("cannot rename snapshot into place: {e}")))?;
        Ok(bytes.len() as u64)
    }

    /// Loads the snapshot from `dir`, if one exists. `Ok(None)` when the directory
    /// or file is missing (a fresh `data_dir`); a corrupt file is an error.
    pub fn load(dir: &Path) -> Result<Option<Snapshot>> {
        let path = dir.join(SNAPSHOT_FILE);
        let bytes = match fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(Error::Persist(format!(
                    "cannot read snapshot {path:?}: {e}"
                )))
            }
        };
        Snapshot::decode(&bytes).map(Some)
    }
}

fn put_table(w: &mut ByteWriter, t: &TableSnapshot) {
    w.put_str(&t.name);
    w.put_u32(t.columns.len() as u32);
    for c in &t.columns {
        w.put_str(&c.name);
        w.put_data_type(c.data_type);
        w.put_bool(c.nullable);
    }
    w.put_u64(t.rows.len() as u64);
    for row in &t.rows {
        w.put_row(row);
    }
    w.put_u32(t.indexes.len() as u32);
    for col in &t.indexes {
        w.put_str(col);
    }
    w.put_bool(t.analyzed);
    w.put_option(t.stats.as_ref(), put_table_statistics);
    w.put_u64(t.data_version);
}

fn get_table(r: &mut ByteReader<'_>) -> Result<TableSnapshot> {
    let name = r.get_str()?;
    let column_count = r.get_u32()? as usize;
    let mut columns = Vec::with_capacity(column_count.min(r.remaining()));
    for _ in 0..column_count {
        columns.push(ColumnDef {
            name: r.get_str()?,
            data_type: r.get_data_type()?,
            nullable: r.get_bool()?,
        });
    }
    let row_count = r.get_usize()?;
    let mut rows = Vec::with_capacity(row_count.min(r.remaining()));
    for _ in 0..row_count {
        rows.push(r.get_row()?);
    }
    let index_count = r.get_u32()? as usize;
    let mut indexes = Vec::with_capacity(index_count.min(r.remaining()));
    for _ in 0..index_count {
        indexes.push(r.get_str()?);
    }
    let analyzed = r.get_bool()?;
    let stats = r.get_option(get_table_statistics)?;
    let data_version = r.get_u64()?;
    Ok(TableSnapshot {
        name,
        columns,
        rows,
        indexes,
        analyzed,
        stats,
        data_version,
    })
}

fn put_table_statistics(w: &mut ByteWriter, s: &TableStatistics) {
    w.put_usize(s.row_count);
    w.put_bool(s.analyzed);
    w.put_usize(s.sampled_rows);
    w.put_u32(s.columns.len() as u32);
    for c in &s.columns {
        put_column_statistics(w, c);
    }
}

fn get_table_statistics(r: &mut ByteReader<'_>) -> Result<TableStatistics> {
    let row_count = r.get_usize()?;
    let analyzed = r.get_bool()?;
    let sampled_rows = r.get_usize()?;
    let column_count = r.get_u32()? as usize;
    let mut columns = Vec::with_capacity(column_count.min(r.remaining()));
    for _ in 0..column_count {
        columns.push(get_column_statistics(r)?);
    }
    Ok(TableStatistics {
        row_count,
        columns,
        analyzed,
        sampled_rows,
    })
}

fn put_column_statistics(w: &mut ByteWriter, c: &ColumnStatistics) {
    w.put_str(&c.name);
    w.put_usize(c.distinct_count);
    w.put_f64(c.null_fraction);
    w.put_option(c.min.as_ref(), |w, v| w.put_f64(*v));
    w.put_option(c.max.as_ref(), |w, v| w.put_f64(*v));
    w.put_u32(c.mcvs.len() as u32);
    for (value, freq) in &c.mcvs {
        w.put_value(value);
        w.put_f64(*freq);
    }
    w.put_option(c.histogram.as_ref(), put_histogram);
}

fn get_column_statistics(r: &mut ByteReader<'_>) -> Result<ColumnStatistics> {
    let name = r.get_str()?;
    let distinct_count = r.get_usize()?;
    let null_fraction = r.get_f64()?;
    let min = r.get_option(|r| r.get_f64())?;
    let max = r.get_option(|r| r.get_f64())?;
    let mcv_count = r.get_u32()? as usize;
    let mut mcvs = Vec::with_capacity(mcv_count.min(r.remaining()));
    for _ in 0..mcv_count {
        let value = r.get_value()?;
        let freq = r.get_f64()?;
        mcvs.push((value, freq));
    }
    let histogram = r.get_option(get_histogram)?;
    Ok(ColumnStatistics {
        name,
        distinct_count,
        null_fraction,
        min,
        max,
        mcvs,
        histogram,
    })
}

fn put_histogram(w: &mut ByteWriter, h: &Histogram) {
    w.put_u32(h.bounds().len() as u32);
    for b in h.bounds() {
        w.put_f64(*b);
    }
    w.put_u32(h.counts().len() as u32);
    for c in h.counts() {
        w.put_u64(*c);
    }
    w.put_u32(h.distinct_counts().len() as u32);
    for d in h.distinct_counts() {
        w.put_u64(*d);
    }
    w.put_u64(h.total());
}

fn get_histogram(r: &mut ByteReader<'_>) -> Result<Histogram> {
    let nb = r.get_u32()? as usize;
    let mut bounds = Vec::with_capacity(nb.min(r.remaining()));
    for _ in 0..nb {
        bounds.push(r.get_f64()?);
    }
    let nc = r.get_u32()? as usize;
    let mut counts = Vec::with_capacity(nc.min(r.remaining()));
    for _ in 0..nc {
        counts.push(r.get_u64()?);
    }
    let nd = r.get_u32()? as usize;
    let mut distinct = Vec::with_capacity(nd.min(r.remaining()));
    for _ in 0..nd {
        distinct.push(r.get_u64()?);
    }
    let total = r.get_u64()?;
    Histogram::from_parts(bounds, counts, distinct, total)
        .ok_or_else(|| Error::Persist("histogram parts violate structural invariants".into()))
}

fn put_feedback(w: &mut ByteWriter, f: &FeedbackState) {
    w.put_u64(f.generation);
    w.put_u64(f.queries_recorded);
    w.put_u64(f.invalidations_flagged);
    w.put_u32(f.queries.len() as u32);
    for q in &f.queries {
        w.put_u64(q.fingerprint);
        w.put_f64(q.estimated_rows);
        w.put_u64(q.actual_rows);
        w.put_f64(q.q_error);
        w.put_f64(q.max_q_error);
        w.put_u64(q.executions);
        w.put_bool(q.invalidated);
    }
    w.put_u32(f.udfs.len() as u32);
    for u in &f.udfs {
        let r = &u.runtime;
        w.put_str(&r.name);
        w.put_u64(r.invocations);
        // Nanoseconds round-trip exactly for any realistic total.
        w.put_u64(r.total.as_nanos().min(u64::MAX as u128) as u64);
        w.put_f64(u.static_units);
        w.put_bool(u.cost_flagged);
        w.put_u64(r.hits);
        w.put_bool(u.dedup_flagged);
        w.put_u64(r.predicate_evaluated);
        w.put_u64(r.predicate_passed);
    }
}

fn get_feedback(r: &mut ByteReader<'_>) -> Result<FeedbackState> {
    let generation = r.get_u64()?;
    let queries_recorded = r.get_u64()?;
    let invalidations_flagged = r.get_u64()?;
    let query_count = r.get_u32()? as usize;
    let mut queries = Vec::with_capacity(query_count.min(r.remaining()));
    for _ in 0..query_count {
        queries.push(QueryFeedback {
            fingerprint: r.get_u64()?,
            estimated_rows: r.get_f64()?,
            actual_rows: r.get_u64()?,
            q_error: r.get_f64()?,
            max_q_error: r.get_f64()?,
            executions: r.get_u64()?,
            invalidated: r.get_bool()?,
        });
    }
    let udf_count = r.get_u32()? as usize;
    let mut udfs = Vec::with_capacity(udf_count.min(r.remaining()));
    for _ in 0..udf_count {
        // Wire order: the runtime record's counters interleave with the entry's fields.
        let name = r.get_str()?;
        let invocations = r.get_u64()?;
        let total = Duration::from_nanos(r.get_u64()?);
        let static_units = r.get_f64()?;
        let cost_flagged = r.get_bool()?;
        let hits = r.get_u64()?;
        let dedup_flagged = r.get_bool()?;
        udfs.push(UdfFeedback {
            runtime: UdfRuntime {
                name,
                invocations,
                total,
                hits,
                predicate_evaluated: r.get_u64()?,
                predicate_passed: r.get_u64()?,
            },
            static_units,
            cost_flagged,
            dedup_flagged,
        });
    }
    Ok(FeedbackState {
        generation,
        queries_recorded,
        invalidations_flagged,
        queries,
        udfs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::Value;

    fn sample_snapshot() -> Snapshot {
        let histogram = Histogram::equi_depth((0..1000).map(|i| i as f64).collect(), 32).unwrap();
        Snapshot {
            ddl_generation: 12,
            data_generation: 7,
            tables: vec![TableSnapshot {
                name: "orders".into(),
                columns: vec![
                    ColumnDef {
                        name: "orderkey".into(),
                        data_type: DataType::Int,
                        nullable: false,
                    },
                    ColumnDef {
                        name: "totalprice".into(),
                        data_type: DataType::Float,
                        nullable: true,
                    },
                ],
                rows: vec![
                    Row::new(vec![Value::Int(1), Value::Float(10.5)]),
                    Row::new(vec![Value::Int(2), Value::Null]),
                    Row::new(vec![Value::Int(3), Value::Float(-0.0)]),
                ],
                indexes: vec!["orderkey".into()],
                analyzed: true,
                stats: Some(TableStatistics {
                    row_count: 3,
                    columns: vec![ColumnStatistics {
                        name: "orderkey".into(),
                        distinct_count: 3,
                        null_fraction: 0.0,
                        min: Some(1.0),
                        max: Some(3.0),
                        mcvs: vec![(Value::Int(1), 0.33)],
                        histogram: Some(histogram),
                    }],
                    analyzed: true,
                    sampled_rows: 3,
                }),
                data_version: 3,
            }],
            functions: vec!["create function f(x int) returns int as x + 1".into()],
            feedback: FeedbackState {
                generation: 3,
                queries_recorded: 5,
                invalidations_flagged: 1,
                queries: vec![QueryFeedback {
                    fingerprint: 99,
                    estimated_rows: 10.0,
                    actual_rows: 1000,
                    q_error: 100.0,
                    max_q_error: 100.0,
                    executions: 2,
                    invalidated: true,
                }],
                udfs: vec![UdfFeedback {
                    runtime: UdfRuntime {
                        name: "f".into(),
                        invocations: 20,
                        total: Duration::from_nanos(1_000_000),
                        hits: 80,
                        predicate_evaluated: 100,
                        predicate_passed: 25,
                    },
                    static_units: 5.0,
                    cost_flagged: true,
                    dedup_flagged: true,
                }],
            },
        }
    }

    #[test]
    fn encode_decode_is_identity() {
        let snapshot = sample_snapshot();
        let bytes = snapshot.encode();
        let decoded = Snapshot::decode(&bytes).unwrap();
        assert_eq!(decoded, snapshot);
        // Deterministic: same state, same bytes.
        assert_eq!(decoded.encode(), bytes);
        // The empty snapshot round-trips too.
        let empty = Snapshot::default();
        assert_eq!(Snapshot::decode(&empty.encode()).unwrap(), empty);
    }

    /// The feedback section's bytes for a hand-built state hash to the value recorded
    /// at commit cb750d5, before the per-UDF entry and its persisted copy became one
    /// type: snapshots written then still decode to the same learned state.
    #[test]
    fn feedback_bytes_match_the_recorded_hash() {
        let mut w = ByteWriter::new();
        put_feedback(&mut w, &sample_snapshot().feedback);
        let mut hasher = FnvHasher::new();
        hasher.write_bytes(&w.into_bytes());
        assert_eq!(hasher.finish(), 0x1ff2_5a1d_2da0_b48a);
    }

    #[test]
    fn every_flipped_byte_is_rejected() {
        let bytes = sample_snapshot().encode();
        // Exhaustively flip one byte at a time across a stride of the file (every
        // byte for small files) — each corruption must be a named error.
        for i in (0..bytes.len()).step_by(7) {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x40;
            let err = Snapshot::decode(&corrupt).unwrap_err();
            assert_eq!(err.kind(), "persist", "flipping byte {i} must be caught");
        }
        // Truncations at any point are rejected.
        for cut in [0, 1, 8, bytes.len() / 2, bytes.len() - 1] {
            let err = Snapshot::decode(&bytes[..cut]).unwrap_err();
            assert_eq!(err.kind(), "persist", "truncation at {cut}");
        }
    }

    #[test]
    fn save_and_load_round_trip_atomically() {
        let dir =
            std::env::temp_dir().join(format!("decorr_persist_snapshot_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        // Missing dir/file loads as None, not an error.
        assert_eq!(Snapshot::load(&dir).unwrap(), None);
        let snapshot = sample_snapshot();
        let bytes = snapshot.save(&dir).unwrap();
        assert!(bytes > 0);
        assert_eq!(Snapshot::load(&dir).unwrap(), Some(snapshot.clone()));
        // No tmp file survives a successful save.
        assert!(!dir.join(SNAPSHOT_TMP).exists());
        // Overwrite with new state.
        let mut next = snapshot;
        next.ddl_generation += 1;
        next.save(&dir).unwrap();
        assert_eq!(
            Snapshot::load(&dir).unwrap().unwrap().ddl_generation,
            next.ddl_generation
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
