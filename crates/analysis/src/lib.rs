//! Static plan validation for the decorrelation engine.
//!
//! The decorrelation rewrites of the paper are only sound while the plans they emit
//! stay *well-formed*: every column reference resolves, operator schemas are consistent
//! bottom-up, Apply bindings are actually consumed. Nothing guarantees that by
//! construction, so this crate checks it statically:
//!
//! * [`validate_plan`] — a structural [plan validator](mod@validate) run by
//!   `optimizer::PassManager` after every pass (behind
//!   `PassManagerOptions::validate_plans`), turning a buggy rewrite rule into a
//!   named-violation pipeline error instead of a silent wrong answer;
//! * [`check_decorrelated`] — the check that a plan claimed fully decorrelated holds no
//!   Apply-family operator.
//!
//! UDF bodies are analysed in `decorr_udf::analysis`, where registration derives their
//! read sets and volatility.
//!
//! The crate is dependency-free (only workspace crates below the optimizer) so every
//! layer — rewrite rules, optimizer, tests — can call it without cycles.

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod validate;

pub use validate::{check_decorrelated, validate_plan, ValidationReport, Violation};
