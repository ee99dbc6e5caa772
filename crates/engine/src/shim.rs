//! The last piece of the retired single-session facade.
//!
//! `benchmark/` is a package outside this workspace that only a `[benchmark]` PR may
//! edit, and it still compiles against `tpch::generate(..) -> Database` followed by
//! `.analyze()`, `.catalog()` and `.engine()` (`benchmark/src/run.rs:46-57`). Nothing
//! inside the workspace uses this type (CI's `lint` job checks that); it goes when
//! `run.rs` calls `tpch::load` instead.

use std::sync::Arc;

use decorr_storage::Catalog;

use crate::Engine;

/// An [`Engine`] under its old name. Use the engine, and a [`crate::Session`] on it.
#[doc(hidden)]
#[derive(Debug)]
pub struct Database(Engine);

impl Database {
    pub fn from_engine(engine: Engine) -> Database {
        Database(engine)
    }

    pub fn engine(&self) -> &Engine {
        &self.0
    }

    pub fn catalog(&self) -> Arc<Catalog> {
        self.0.catalog()
    }

    // `&mut self`: `run.rs` binds the database `mut` for this call.
    pub fn analyze(&mut self) -> Vec<String> {
        self.0.analyze()
    }
}
