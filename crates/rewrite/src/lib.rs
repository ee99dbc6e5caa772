//! Decorrelation of UDF invocations — the paper's primary contribution.
//!
//! The pipeline mirrors Figure 9 of the paper:
//!
//! 1. [`algebraize`] — build a *parameterized algebraic expression* for each registered
//!    UDF (Section IV), handling assignments, scalar queries, conditional branching, and
//!    cursor loops via auxiliary aggregates (Section VII). This runs once, when a function
//!    is registered ([`algebraize_registry`]), and the form lives in the UDF's registry
//!    record.
//! 2. [`merge`] — merge each invoked UDF's recorded form with the calling query block
//!    using the Apply operator with the *bind* extension (Section V, rule K6).
//! 3. [`rules`] — remove the Apply operators using the known rules K1–K6 of
//!    Galindo-Legaria & Joshi and the paper's new rules R1–R9, plus the standard
//!    correlated-scalar-aggregate decorrelation and cleanup rules
//!    (predicate pushdown, projection merging). The [`rules::FixpointEngine`] drives a
//!    [`rules::RuleSet`] to fixpoint with per-rule fire counts, iteration counts and a
//!    firing budget that turns a cyclic rule set into an error instead of a hang.
//! 4. [`sql_gen`] — renders the rewritten plan back to SQL text, for use as an external
//!    preprocessor in front of a database system.
//!
//! The *orchestration* of these steps — which pass runs when, with which budget, and the
//! decision to keep the iterative plan when an Apply survives — lives in the
//! `decorr-optimizer` crate's `PassManager`, exactly like the paper's placement of the
//! rules inside a cost-based optimizer. This crate only provides the mechanics.

pub mod algebraize;
pub mod merge;
pub mod rules;
pub mod sql_gen;

pub use algebraize::{algebraize_registry, algebraize_udf};
pub use merge::{merge_udf_calls, MergeOutcome};
pub use rules::{FixpointEngine, FixpointOutcome, RuleSet};
pub use sql_gen::plan_to_sql;
