//! # udf-decorrelation
//!
//! A full reproduction of *"Decorrelation of User Defined Function Invocations in
//! Queries"* (Simhadri et al., ICDE 2014) as a Rust workspace: an in-memory SQL engine
//! with a procedural UDF interpreter, the paper's extended Apply operators and
//! transformation rules (K1–K6, R1–R9), cursor-loop algebraization with auxiliary
//! aggregates, and a cost-based optimizer that chooses between iterative and
//! decorrelated plans.
//!
//! This top-level crate simply re-exports the public API of the member crates. The API
//! is two handles: an [`engine::Engine`] owns the data, the functions and everything
//! shared (plan cache, UDF memo, runtime feedback, worker pool) and is configured once
//! through [`engine::Engine::builder`]; an [`engine::Session`] is a cheap per-client
//! handle that runs statements and queries against it:
//!
//! ```
//! use udf_decorrelation::prelude::*;
//!
//! let engine = Engine::new();
//! let session = engine.session();
//! session.execute("create table t(x int, y int)").unwrap();
//! session.execute("insert into t values (1, 10), (2, 20)").unwrap();
//! session
//!     .execute("create function double_y(int v) returns int as begin return v * 2; end")
//!     .unwrap();
//! let result = session.query("select x, double_y(y) as yy from t").unwrap();
//! assert_eq!(result.rows.len(), 2);
//! ```
//!
//! Serving many clients is the same API with more sessions. Sessions running on
//! different threads share the engine's caches and pool, while each query pins an
//! immutable catalog snapshot (writers swap in new epochs, readers never block):
//!
//! ```
//! use udf_decorrelation::prelude::*;
//!
//! let engine = Engine::builder().parallelism(2).build();
//! let admin = engine.session();
//! admin.execute("create table t(x int)").unwrap();
//! admin.execute("insert into t values (1), (2), (3)").unwrap();
//! let handles: Vec<_> = (0..4)
//!     .map(|_| {
//!         let session = engine.session();
//!         std::thread::spawn(move || session.query("select x from t").unwrap().len())
//!     })
//!     .collect();
//! for handle in handles {
//!     assert_eq!(handle.join().unwrap(), 3);
//! }
//! ```

pub use decorr_algebra as algebra;
pub use decorr_common as common;
pub use decorr_engine as engine;
pub use decorr_exec as exec;
pub use decorr_optimizer as optimizer;
pub use decorr_optimizer::validate as analysis;
pub use decorr_parser as parser;
pub use decorr_persist as persist;
pub use decorr_rewrite as rewrite;
pub use decorr_storage as storage;
pub use decorr_storage::stats;
pub use decorr_tpch as tpch;
pub use decorr_udf as udf;

/// Commonly used types, re-exported for convenience.
pub mod prelude {
    pub use decorr_common::{DataType, Error, Result, Row, Schema, Value};
    pub use decorr_engine::{
        Engine, EngineBuilder, ExecutionStrategy, QueryOptions, QueryResult, Session,
    };
    pub use decorr_persist::PersistStats;
}
