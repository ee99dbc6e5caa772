//! Durable engine state: snapshots + write-ahead log.
//!
//! Everything the engine learns — table data, `ANALYZE` statistics and the feedback
//! store's measured UDF costs — normally dies with the process. This crate is the
//! durability layer under the whole stack, dependency-free like the rest of the
//! workspace:
//!
//! * [`snapshot`] — a versioned, checksummed binary image of the full engine state
//!   ([`Snapshot`]), with atomic write-tmp-then-rename checkpointing ([`Snapshot::save`])
//!   and corruption-rejecting load ([`Snapshot::load`]);
//! * [`wal`] — a write-ahead log of the logical write operations between checkpoints
//!   ([`WalRecord`]), appended by the engine's clone-mutate-swap writer path, truncated
//!   after each successful checkpoint, and recovered with a torn-tail policy that
//!   replays the longest valid prefix ([`WalWriter::open`]);
//! * [`encode`] — the little-endian byte codec both share. Floats travel as IEEE bit
//!   patterns, so a restored engine answers queries byte-identically.
//!
//! The crate deliberately knows nothing about `Engine`, `Catalog` or `Table`: it moves
//! plain data (rows, schemas, statistics documents, feedback state). The engine crate
//! maps its live structures into [`Snapshot`]/[`WalRecord`] and back, which keeps this
//! layer small enough to reason about byte-for-byte — and keeps the fuzz harness
//! honest, because every code path here is reachable from decoded bytes.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod encode;
pub mod snapshot;
pub mod wal;

pub use snapshot::{ColumnDef, Snapshot, TableSnapshot, SNAPSHOT_FILE};
pub use wal::{WalRecord, WalWriter, WAL_FILE};

/// Durability counters the engine surfaces through `Engine::persist_stats()`.
///
/// All zeros (with `active == false`) when the engine runs without a `data_dir`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// True when the engine was opened with a `data_dir` and is logging writes.
    pub active: bool,
    /// True when opening found (and loaded) an existing snapshot.
    pub snapshot_loaded: bool,
    /// Checkpoints completed since open.
    pub checkpoints: u64,
    /// Wall-clock of the most recent checkpoint, in microseconds.
    pub last_checkpoint_micros: u64,
    /// Size of the most recently written snapshot, in bytes.
    pub snapshot_bytes: u64,
    /// WAL records appended since open.
    pub wal_records_appended: u64,
    /// WAL bytes appended since open.
    pub wal_bytes_appended: u64,
    /// WAL records replayed when the engine opened.
    pub wal_records_replayed: u64,
}
