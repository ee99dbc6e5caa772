//! Write-ahead log of logical write operations between checkpoints.
//!
//! Each record frames one engine write (INSERT / DDL / ANALYZE / `CREATE FUNCTION`)
//! as: sequence number, payload length, an FNV-1a checksum over sequence + payload,
//! then the payload bytes. The engine appends from inside its
//! writer critical section, so record order matches the epoch-swap order readers
//! observe.
//!
//! Recovery tolerates a torn tail: [`WalWriter::open`] replays the longest prefix of
//! records whose framing, checksum and sequence all verify, truncates the file back
//! to that prefix, and reports whether anything was discarded. A frame that verifies
//! but whose payload does not decode was fully written by something this build does
//! not understand — that is an error, and nothing is truncated. After a successful
//! checkpoint the engine calls [`WalWriter::reset`] — the snapshot now covers
//! everything the log held.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};

use decorr_common::{Error, FnvHasher, Result, Row};

use crate::encode::{ByteReader, ByteWriter};
use crate::snapshot::ColumnDef;

/// File name of the write-ahead log inside a `data_dir`.
pub const WAL_FILE: &str = "wal.log";

/// Bytes of framing before each record's payload: seq (8) + len (4) + checksum (8).
const FRAME_BYTES: usize = 20;

/// One logged engine write, in logical (replayable) form. Replay drives the same
/// engine entry points the original statements did, so normalization and validation
/// are identical by construction.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// `CREATE TABLE name (columns…)`.
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions, unqualified.
        columns: Vec<ColumnDef>,
    },
    /// `DROP TABLE name`.
    DropTable {
        /// Table name.
        name: String,
    },
    /// Rows appended to one table (already materialized to full-width rows).
    Insert {
        /// Target table.
        table: String,
        /// The inserted rows, in insertion order.
        rows: Vec<Row>,
    },
    /// `CREATE INDEX ON table (column)`.
    CreateIndex {
        /// Target table.
        table: String,
        /// Indexed column.
        column: String,
    },
    /// `ANALYZE [table]`.
    Analyze {
        /// The analyzed table, or `None` for all tables.
        table: Option<String>,
    },
    /// `CREATE FUNCTION …` — the full source text, replayed through the parser.
    CreateFunction {
        /// Original SQL source.
        source: String,
    },
}

impl WalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match self {
            WalRecord::CreateTable { name, columns } => {
                w.put_u8(0);
                w.put_str(name);
                w.put_u32(columns.len() as u32);
                for c in columns {
                    w.put_str(&c.name);
                    w.put_data_type(c.data_type);
                    w.put_bool(c.nullable);
                }
            }
            WalRecord::DropTable { name } => {
                w.put_u8(1);
                w.put_str(name);
            }
            WalRecord::Insert { table, rows } => {
                w.put_u8(2);
                w.put_str(table);
                w.put_u64(rows.len() as u64);
                for row in rows {
                    w.put_row(row);
                }
            }
            WalRecord::CreateIndex { table, column } => {
                w.put_u8(3);
                w.put_str(table);
                w.put_str(column);
            }
            WalRecord::Analyze { table } => {
                w.put_u8(7);
                w.put_option(table.as_ref(), |w, t: &String| w.put_str(t));
            }
            WalRecord::CreateFunction { source } => {
                w.put_u8(5);
                w.put_str(source);
            }
        }
        w.into_bytes()
    }

    fn decode(bytes: &[u8]) -> Result<WalRecord> {
        let mut r = ByteReader::new(bytes);
        let record = match r.get_u8()? {
            0 => {
                let name = r.get_str()?;
                let n = r.get_u32()? as usize;
                let mut columns = Vec::with_capacity(n.min(r.remaining()));
                for _ in 0..n {
                    columns.push(ColumnDef {
                        name: r.get_str()?,
                        data_type: r.get_data_type()?,
                        nullable: r.get_bool()?,
                    });
                }
                WalRecord::CreateTable { name, columns }
            }
            1 => WalRecord::DropTable { name: r.get_str()? },
            2 => {
                let table = r.get_str()?;
                let n = r.get_usize()?;
                let mut rows = Vec::with_capacity(n.min(r.remaining()));
                for _ in 0..n {
                    rows.push(r.get_row()?);
                }
                WalRecord::Insert { table, rows }
            }
            3 => WalRecord::CreateIndex {
                table: r.get_str()?,
                column: r.get_str()?,
            },
            5 => WalRecord::CreateFunction {
                source: r.get_str()?,
            },
            7 => WalRecord::Analyze {
                table: r.get_option(|r| r.get_str())?,
            },
            // Retired tags stay reserved so an old log is refused by name, never
            // misread: 4 was `Analyze` with the sampling configuration ANALYZE no
            // longer has, 6 was `SetPlacement` (table placement policies).
            tag => return Err(Error::Persist(format!("invalid WAL record tag {tag}"))),
        };
        if !r.is_empty() {
            return Err(Error::Persist(format!(
                "WAL record has {} trailing bytes",
                r.remaining()
            )));
        }
        Ok(record)
    }
}

/// Outcome of opening a WAL: the valid records, plus whether a torn/corrupt tail was
/// discarded.
#[derive(Debug)]
pub struct WalRecovery {
    /// Records of the longest valid prefix, in append order.
    pub records: Vec<WalRecord>,
    /// True when bytes past the valid prefix were discarded (torn tail).
    pub truncated: bool,
}

/// Appender over a `data_dir`'s write-ahead log.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    next_seq: u64,
    records_appended: u64,
    bytes_appended: u64,
}

impl WalWriter {
    /// Opens (creating if needed) the WAL in `dir`, recovering existing records
    /// first. The longest valid prefix is returned for replay; anything after it —
    /// a torn frame, a checksum mismatch, an out-of-order sequence number — is
    /// truncated away so subsequent appends extend a clean log. A frame that verifies
    /// but does not decode is an error: the file is left as it is.
    pub fn open(dir: &Path) -> Result<(WalWriter, WalRecovery)> {
        std::fs::create_dir_all(dir)
            .map_err(|e| Error::Persist(format!("cannot create data dir {dir:?}: {e}")))?;
        let path = dir.join(WAL_FILE);
        let existing = match std::fs::read(&path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(Error::Persist(format!("cannot read WAL {path:?}: {e}"))),
        };
        let (records, valid_len) = scan_valid_prefix(&existing)?;
        let truncated = valid_len < existing.len();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| Error::Persist(format!("cannot open WAL {path:?}: {e}")))?;
        if truncated {
            file.set_len(valid_len as u64)
                .map_err(|e| Error::Persist(format!("cannot truncate torn WAL tail: {e}")))?;
        }
        let writer = WalWriter {
            file,
            path,
            next_seq: records.len() as u64 + 1,
            records_appended: 0,
            bytes_appended: 0,
        };
        Ok((writer, WalRecovery { records, truncated }))
    }

    /// Appends one record, returning the bytes written (framing included).
    pub fn append(&mut self, record: &WalRecord) -> Result<u64> {
        let payload = record.encode();
        let mut frame = Vec::with_capacity(FRAME_BYTES + payload.len());
        frame.extend_from_slice(&self.next_seq.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        let mut hasher = FnvHasher::new();
        hasher.write_u64(self.next_seq);
        hasher.write_bytes(&payload);
        frame.extend_from_slice(&hasher.finish().to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file
            .write_all(&frame)
            .map_err(|e| Error::Persist(format!("cannot append to WAL {:?}: {e}", self.path)))?;
        self.next_seq += 1;
        self.records_appended += 1;
        self.bytes_appended += frame.len() as u64;
        Ok(frame.len() as u64)
    }

    /// Truncates the log to empty — called after a successful checkpoint, which now
    /// covers everything the log held. Sequence numbering restarts at 1.
    pub fn reset(&mut self) -> Result<()> {
        self.file
            .set_len(0)
            .map_err(|e| Error::Persist(format!("cannot reset WAL {:?}: {e}", self.path)))?;
        self.next_seq = 1;
        Ok(())
    }

    /// Records appended through this writer (since open).
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }

    /// Bytes appended through this writer (since open), framing included.
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }
}

/// Walks the raw log, returning the decoded records of the longest valid prefix and
/// its byte length. Stops — without erroring — at the first torn frame, checksum
/// mismatch or sequence gap: a torn write fails one of those. A frame that passes
/// them was fully written, so a payload that then does not decode is not a tail to
/// drop (acknowledged records may follow it) but an error.
fn scan_valid_prefix(bytes: &[u8]) -> Result<(Vec<WalRecord>, usize)> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    let mut expected_seq = 1u64;
    while bytes.len() - pos >= FRAME_BYTES {
        let seq = u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8 bytes"));
        let len =
            u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().expect("4 bytes")) as usize;
        let stored = u64::from_le_bytes(bytes[pos + 12..pos + 20].try_into().expect("8 bytes"));
        if seq != expected_seq || bytes.len() - pos - FRAME_BYTES < len {
            break;
        }
        let payload = &bytes[pos + FRAME_BYTES..pos + FRAME_BYTES + len];
        let mut hasher = FnvHasher::new();
        hasher.write_u64(seq);
        hasher.write_bytes(payload);
        if hasher.finish() != stored {
            break;
        }
        let record = WalRecord::decode(payload).map_err(|e| {
            let tag = payload.first().map_or("none".to_string(), u8::to_string);
            Error::Persist(format!(
                "WAL record {seq} (tag {tag}) passes its checksum but does not decode \
                 ({e}); the log is left as it is"
            ))
        })?;
        records.push(record);
        pos += FRAME_BYTES + len;
        expected_seq += 1;
    }
    Ok((records, pos))
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::{DataType, Value};

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("decorr_wal_{}_{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::CreateTable {
                name: "t".into(),
                columns: vec![ColumnDef {
                    name: "k".into(),
                    data_type: DataType::Int,
                    nullable: false,
                }],
            },
            WalRecord::Insert {
                table: "t".into(),
                rows: vec![Row::new(vec![Value::Int(1)]), Row::new(vec![Value::Int(2)])],
            },
            WalRecord::CreateIndex {
                table: "t".into(),
                column: "k".into(),
            },
            WalRecord::Analyze {
                table: Some("t".into()),
            },
            WalRecord::CreateFunction {
                source: "create function f(x int) returns int as x".into(),
            },
            WalRecord::DropTable { name: "t".into() },
            WalRecord::Analyze { table: None },
        ]
    }

    #[test]
    fn retired_tags_are_refused_by_name() {
        // Tag 4: the old `Analyze` (all tables; sample size, buckets, MCVs, seed).
        let mut analyze = ByteWriter::new();
        analyze.put_u8(4);
        analyze.put_option(None, |w, t: &String| w.put_str(t));
        for field in [8_192, 32, 8, 0x5EED_57A7] {
            analyze.put_u64(field);
        }
        // Tag 6: the old `SetPlacement` (table name, placement bit).
        let mut placement = ByteWriter::new();
        placement.put_u8(6);
        placement.put_str("t");
        placement.put_bool(true);
        for (tag, bytes) in [(4, analyze), (6, placement)] {
            let err = WalRecord::decode(&bytes.into_bytes()).unwrap_err();
            let expected = format!("persistence error: invalid WAL record tag {tag}");
            assert_eq!(err.to_string(), expected);
        }
    }

    #[test]
    fn append_reopen_replays_in_order() {
        let dir = tmp_dir("replay");
        let (mut w, recovery) = WalWriter::open(&dir).unwrap();
        assert!(recovery.records.is_empty());
        assert!(!recovery.truncated);
        let records = sample_records();
        for r in &records {
            assert!(w.append(r).unwrap() > FRAME_BYTES as u64);
        }
        assert_eq!(w.records_appended(), records.len() as u64);
        assert!(w.bytes_appended() > 0);
        drop(w);
        let (_, recovery) = WalWriter::open(&dir).unwrap();
        assert_eq!(recovery.records, records);
        assert!(!recovery.truncated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tail_is_discarded_and_log_stays_appendable() {
        let dir = tmp_dir("torn");
        let (mut w, _) = WalWriter::open(&dir).unwrap();
        let records = sample_records();
        for r in &records {
            w.append(r).unwrap();
        }
        drop(w);
        // Tear the last record: chop a few bytes off the file.
        let path = dir.join(WAL_FILE);
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let (mut w, recovery) = WalWriter::open(&dir).unwrap();
        assert!(recovery.truncated, "torn tail must be reported");
        assert_eq!(recovery.records, records[..records.len() - 1]);
        // The log accepts new appends after recovery, and they replay cleanly.
        w.append(records.last().unwrap()).unwrap();
        drop(w);
        let (_, recovery) = WalWriter::open(&dir).unwrap();
        assert_eq!(recovery.records, records);
        assert!(!recovery.truncated);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_record_stops_replay_at_last_valid() {
        let dir = tmp_dir("corrupt");
        let (mut w, _) = WalWriter::open(&dir).unwrap();
        let records = sample_records();
        for r in &records {
            w.append(r).unwrap();
        }
        drop(w);
        let path = dir.join(WAL_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte near the middle of the file: replay stops at the record
        // boundary before it, keeping a strict prefix.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let (_, recovery) = WalWriter::open(&dir).unwrap();
        assert!(recovery.truncated);
        assert!(recovery.records.len() < records.len());
        assert_eq!(recovery.records[..], records[..recovery.records.len()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reset_empties_the_log_and_restarts_sequencing() {
        let dir = tmp_dir("reset");
        let (mut w, _) = WalWriter::open(&dir).unwrap();
        for r in &sample_records() {
            w.append(r).unwrap();
        }
        w.reset().unwrap();
        let one = WalRecord::DropTable { name: "x".into() };
        w.append(&one).unwrap();
        drop(w);
        let (_, recovery) = WalWriter::open(&dir).unwrap();
        assert_eq!(recovery.records, vec![one]);
        assert!(!recovery.truncated, "post-reset log is clean");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
