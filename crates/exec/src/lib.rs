//! Query execution: expression evaluation, a row-at-a-time executor over the logical
//! algebra, and the procedural UDF interpreter.
//!
//! The executor evaluates [`decorr_algebra::RelExpr`] trees directly against the
//! in-memory catalog. It supports two execution styles, which is exactly what the
//! paper's experiments compare:
//!
//! * **iterative (correlated) execution** — UDF invocations in projections/predicates are
//!   executed per row by the [`interpreter`], which in turn runs the queries inside the
//!   UDF body one invocation at a time (using hash-index lookups when available, like the
//!   commercial systems' "default indices"); correlated subqueries and the Apply-family
//!   operators are likewise executed tuple-by-tuple;
//! * **set-oriented execution** — flat plans produced by the decorrelation rewrite are
//!   executed with index nested-loop joins (probing a base table's hash index once per
//!   outer row, the access path iteration had), hash joins, hash aggregation and
//!   hash-based duplicate elimination.
//!
//! The split between this crate and `decorr-optimizer` is deliberate: this crate makes
//! only *local, mechanical* choices (use an index if one matches, probe the right
//! table's index when [`index_join`] finds one, else use a hash join if the join has an
//! equality condition and the inputs are large enough); the optimizer crate owns the
//! cost model, which prices joins through the same [`index_join`] test, and the
//! cost-based choice between the original and rewritten query forms.

pub mod aggregate;
pub mod env;
pub mod eval;
pub mod executor;
pub mod interpreter;
pub mod memo;
pub mod parallel;
pub mod stats;

pub use env::Env;
pub use executor::{index_join, ExecConfig, Executor, IndexJoin, ResultSet, HASH_JOIN_THRESHOLD};
pub use memo::{fingerprint_invocation, MemoEpoch, MemoValue, UdfMemo, UdfMemoStats};
pub use parallel::{morsel_ranges, MorselOutput, WorkerPool, WorkerPoolStats};
pub use stats::{ExecStats, ExecTrace, NodeCardinality, OperatorTrace};

use decorr_algebra::{ScalarExpr, SchemaProvider};
use decorr_common::{DataType, Result, Schema, Value};
use decorr_storage::Catalog;
use decorr_udf::FunctionRegistry;

/// A [`SchemaProvider`] backed by the storage catalog and the function registry, used by
/// schema inference throughout rewriting and execution.
pub struct CatalogProvider<'a> {
    pub catalog: &'a Catalog,
    pub registry: &'a FunctionRegistry,
}

impl<'a> CatalogProvider<'a> {
    pub fn new(catalog: &'a Catalog, registry: &'a FunctionRegistry) -> CatalogProvider<'a> {
        CatalogProvider { catalog, registry }
    }
}

impl SchemaProvider for CatalogProvider<'_> {
    fn table_schema(&self, table: &str) -> Result<Schema> {
        self.catalog.table_schema(table)
    }

    fn udf_return_type(&self, name: &str) -> Option<DataType> {
        self.registry.return_type(name)
    }

    fn aggregate_empty_value(&self, name: &str) -> Option<Value> {
        let agg = self.registry.aggregate(name).ok()?;
        // The common case (and the only one the synthesised auxiliary aggregates
        // produce): `terminate` returns one state variable, whose initial value is the
        // empty-input result.
        match &agg.terminate {
            ScalarExpr::Param(p) => agg
                .state
                .iter()
                .find(|(name, _, _)| name == p)
                .map(|(_, _, init)| init.clone()),
            ScalarExpr::Literal(v) => Some(v.clone()),
            _ => None,
        }
    }
}
