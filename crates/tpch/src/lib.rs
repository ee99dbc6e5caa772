//! TPC-H-style data generation and the paper's experiment workloads.
//!
//! The paper runs on the TPC-H 10 GB dataset "with a few augmented attributes to suit our
//! examples" (customer categories, category discounts, a category hierarchy). This crate
//! generates a deterministic, laptop-scale equivalent and packages the three experiments
//! of Section X as ready-to-run workloads (UDF definition + query + invocation-count
//! sweep).

pub mod gen;
pub mod workloads;

pub use gen::{generate, load, TpchConfig};
pub use workloads::{experiment1, experiment2, experiment3, Workload};
