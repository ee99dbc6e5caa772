//! The engine: an embeddable in-memory SQL database with UDF decorrelation.
//!
//! The public API is two handles:
//!
//! * [`Engine`] — the shared, thread-safe process-wide state: the catalog and function
//!   registry behind an epoch/snapshot swap, plus the plan cache, runtime feedback
//!   store, cross-query UDF memo and helper-thread budget, all shared by every
//!   client. An `Engine` is a cheap clonable handle (`Arc` inside). It is configured
//!   once, through [`Engine::builder`], and takes the writes that are not SQL text
//!   (bulk loads, index creation, `ANALYZE`, checkpoints).
//! * [`Session`] — a cheap per-client handle onto an engine. Sessions carry only
//!   per-client state (an executor-config override and a default execution strategy)
//!   and expose the statement surface: [`Session::query`], [`Session::execute`],
//!   [`Session::explain`], [`Session::explain_analyze`]. Sessions are `Clone` and can
//!   be freely moved across threads; any number can run concurrently against one
//!   engine.
//!
//! A query goes through exactly the paper's pipeline: parse → algebraize & merge UDFs
//! → remove Apply operators → (cost-based) choice between the iterative and the
//! decorrelated plan → execute.
//!
//! Reads never block writes: a query *pins* an immutable snapshot of the catalog and
//! registry (two `Arc` clones) and runs entirely against it, while concurrent
//! `INSERT`/`ANALYZE`/DDL build a new catalog copy-on-write (only touched tables are
//! deep-cloned) and atomically swap it in as the next epoch.
//!
//! Module map: `engine` holds the epoch state, the builder and the write cycle;
//! `durability` the snapshot/WAL side of a `data_dir` engine; `pinned` the per-query
//! optimize → execute → fold-feedback path; `session` and `explain` the per-client
//! statement surface.

mod durability;
mod engine;
mod explain;
mod pinned;
mod session;
mod shim;

pub use engine::{DurableEngineBuilder, Engine, EngineBuilder};
pub use session::Session;
#[doc(hidden)]
pub use shim::Database;

use decorr_common::{Result, Row, Schema, Value};
use decorr_exec::ExecConfig;
use decorr_optimizer::PipelineReport;

/// How the engine should execute a query that invokes UDFs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecutionStrategy {
    /// Decorrelate when possible and let the cost model pick between the iterative and
    /// the rewritten plan (the paper's intended deployment).
    #[default]
    Auto,
    /// Always execute the original plan, invoking UDFs tuple-at-a-time (the baseline of
    /// every experiment in the paper).
    Iterative,
    /// Always execute the decorrelated plan; fails if decorrelation is not possible.
    Decorrelated,
}

/// Per-query options.
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    pub strategy: ExecutionStrategy,
    /// Override the executor configuration (hash-join threshold etc.).
    pub exec_config: Option<ExecConfig>,
    /// Capture before/after plan snapshots in the per-pass `rewrite_report` (off by
    /// default: snapshot rendering costs string work per optimizer pass; `EXPLAIN`
    /// always captures them).
    pub capture_snapshots: bool,
    /// Override per-pass static plan validation for this query. `None` keeps the
    /// compile-profile default (on in debug builds, off in release unless the
    /// `DECORR_VALIDATE_PLANS` environment variable opts in); `Some(v)` forces it.
    /// The plan cache fingerprints the flag, so validated and unvalidated runs of
    /// the same query shape never serve each other's cached pipelines.
    pub validate_plans: Option<bool>,
}

impl QueryOptions {
    pub fn iterative() -> QueryOptions {
        QueryOptions {
            strategy: ExecutionStrategy::Iterative,
            ..QueryOptions::default()
        }
    }

    pub fn decorrelated() -> QueryOptions {
        QueryOptions {
            strategy: ExecutionStrategy::Decorrelated,
            ..QueryOptions::default()
        }
    }
}

/// The result of a query, together with how it was obtained.
#[derive(Debug, Clone)]
pub struct QueryResult {
    pub schema: Schema,
    pub rows: Vec<Row>,
    /// The strategy that was requested.
    pub strategy: ExecutionStrategy,
    /// True if the executed plan was the decorrelated one.
    pub used_decorrelated_plan: bool,
    /// Notes from the rewriter (skipped UDFs, reasons decorrelation was abandoned).
    pub rewrite_notes: Vec<String>,
    /// Rules that fired during rewriting.
    pub applied_rules: Vec<String>,
    /// Executor counters (UDF invocations performed, index lookups, joins, …).
    pub exec_stats: decorr_exec::executor::ExecStats,
    /// The optimizer's per-pass trace: pass timings, per-rule fire counts, fixpoint
    /// iteration counts and before/after plan snapshots.
    pub rewrite_report: PipelineReport,
    /// The executor's per-operator trace (morsels dispatched, per-worker row spread,
    /// rows in/out, operator wall clock) — empty for fully serial executions.
    pub exec_trace: decorr_exec::ExecTrace,
    /// Estimated root cardinality of the executed plan (the cost model's number the
    /// feedback loop compares against `rows.len()`).
    pub estimated_rows: f64,
    /// q-error of the root cardinality estimate for this execution.
    pub cardinality_q_error: f64,
    /// The runtime record of each invoked UDF — evaluations and their wall clock,
    /// cache hits, filter outcomes — in name order (empty for set-oriented executions).
    pub udf_timings: Vec<decorr_udf::UdfRuntime>,
    /// Actual output cardinality per executed plan node, keyed by structural
    /// fingerprint. Only populated when the query ran with
    /// `ExecConfig::collect_cardinalities` (e.g. under `EXPLAIN ANALYZE`).
    pub node_cardinalities: Vec<decorr_exec::NodeCardinality>,
}

impl QueryResult {
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Values of a named output column.
    pub fn column(&self, name: &str) -> Result<Vec<Value>> {
        let idx = self.schema.index_of(None, name)?;
        Ok(self.rows.iter().map(|r| r.get(idx).clone()).collect())
    }

    /// Order-insensitive canonical form restricted to the given columns (for comparing
    /// the iterative and decorrelated executions in tests).
    pub fn canonical_projection(&self, columns: &[&str]) -> Result<Vec<String>> {
        let indices: Vec<usize> = columns
            .iter()
            .map(|c| self.schema.index_of(None, c))
            .collect::<Result<Vec<_>>>()?;
        let mut out: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let projected: Vec<String> =
                    indices.iter().map(|&i| r.get(i).to_string()).collect();
                format!("({})", projected.join(", "))
            })
            .collect();
        out.sort();
        Ok(out)
    }
}

/// Report produced by [`Session::rewrite_sql`] — the output of the paper's standalone
/// rewrite tool: the rewritten SQL text plus any auxiliary aggregate definitions.
#[derive(Debug, Clone)]
pub struct RewriteReport {
    pub decorrelated: bool,
    pub rewritten_sql: String,
    pub auxiliary_functions: Vec<String>,
    pub applied_rules: Vec<String>,
    pub notes: Vec<String>,
}

/// Summary of a non-query statement execution.
#[derive(Debug, Clone, PartialEq)]
pub enum ExecutionSummary {
    TableCreated(String),
    TableDropped(String),
    IndexCreated {
        table: String,
        column: String,
    },
    RowsInserted(usize),
    FunctionCreated(String),
    /// An `ANALYZE` ran; holds the names of the analyzed tables.
    Analyzed {
        tables: Vec<String>,
    },
    /// A SELECT executed through [`Session::execute`]; holds the number of rows.
    QueryRows(usize),
}
