//! In-memory storage: tables, hash indexes, catalog and statistics.
//!
//! The paper runs its experiments on commercial systems over TPC-H with "default indices
//! on primary and foreign keys". This crate provides the equivalent substrate: an
//! in-memory row store (one chunked, copy-on-write [`RowStore`] per table) with hash
//! indexes that the executor uses both for the iterative baseline (the per-invocation
//! lookups inside UDF bodies) and for index-nested-loop joins, plus lazily computed,
//! cached per-table [statistics](stats) for the cost model: exact basic counts, and
//! the histograms and MCV lists of a sampled `ANALYZE`.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod catalog;
pub mod index;
pub mod rows;
pub mod stats;
pub mod table;

pub use catalog::Catalog;
pub use index::{HashIndex, RowLocator};
pub use rows::RowStore;
pub use stats::{ColumnStatistics, Histogram, TableStatistics};
pub use table::Table;
