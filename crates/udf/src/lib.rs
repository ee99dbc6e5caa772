//! User-defined function representation and program analysis.
//!
//! This crate owns everything about UDFs *as programs*:
//!
//! * [`ast`] — the procedural AST (`CREATE FUNCTION` bodies): declarations, assignments,
//!   `SELECT … INTO`, if-then-else, cursor loops, `WHILE` loops, `RETURN`, and inserts
//!   into a table-valued result.
//! * [`registry`] — the function registry holding scalar/table-valued UDF definitions,
//!   each with the record registration derives from its body (algebraic form or decline
//!   reason, auxiliary aggregates, read set), and user-defined aggregates (both
//!   user-written and the auxiliary aggregates synthesised by the rewrite of Section VII).
//! * [`analysis`] — the one analysis of UDF bodies: read/write sets of statements and
//!   the data-dependence graph (DDG) of Section VII-A, with cycle detection to find
//!   loop-carried dependences, and the facts a body has through the UDFs it calls (the
//!   tables it reads, the volatile functions it reaches).
//! * [`aux_agg`] — synthesis of the auxiliary user-defined aggregate (the paper's
//!   Example 6) from the cyclic part of a cursor-loop body.
//! * [`runtime`] — the per-UDF runtime record the executor fills, the feedback store
//!   sums and a snapshot persists, and what the feedback loop learns from it.

pub mod analysis;
pub mod ast;
pub mod aux_agg;
pub mod registry;
pub mod runtime;

pub use ast::{AggregateDefinition, Statement, UdfDefinition, UdfParameter};
pub use aux_agg::{aux_aggregate_name, is_aux_aggregate_name, synthesize_aux_aggregate};
pub use registry::{FunctionRegistry, UdfRecord};
pub use runtime::{LearnedUdf, UdfRuntime};
