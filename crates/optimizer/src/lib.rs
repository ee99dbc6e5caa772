//! The optimizer: an instrumented pass pipeline, cost model and strategy selection.
//!
//! The paper argues that its transformation rules should live inside a cost-based
//! optimizer so that *iterative invocation remains an alternative* — Experiment 3 shows a
//! regime (few invocations, scan-dominated rewritten form) where the original plan is the
//! better choice. This crate provides that layer for the engine:
//!
//! * [`pass`] — the [`PassManager`]: the single, observable pipeline every query goes
//!   through, one function running the stages of Figure 9 in order (normalize →
//!   algebraize & merge → Apply removal → cleanup (pushdown, projection merging, dead
//!   columns) → strategy choice), with per-stage timings, per-rule fire counts, fixpoint
//!   iteration counts, before/after plan snapshots and a rule-firing budget guard;
//! * [`cache`] — the [`PlanCache`]: a concurrency-safe LRU memo from a structural plan
//!   fingerprint (plus registry/DDL generations and pipeline options) to a full
//!   [`OptimizeOutcome`], so repeated queries skip the pipeline entirely;
//! * [`cost`] — cardinality estimation and a cost model over logical plans, fed by the
//!   statistics subsystem (histograms/MCVs after a sampled `ANALYZE`) and including
//!   the cost of iterative UDF invocation (outer cardinality × cost of the queries
//!   inside the UDF body);
//! * [`feedback`] — the runtime [`FeedbackStore`]: measured cardinalities and per-UDF
//!   invocation costs folded back into the model after each execution, driving both
//!   the strategy choice (learned UDF costs) and plan-cache invalidation (q-error
//!   threshold);
//! * [`strategy`] — the cost-based choice between the original (iterative) plan and the
//!   decorrelated plan produced by `decorr-rewrite`;
//! * [`validate`] — the structural plan validator. Behind
//!   [`PassManagerOptions::validate_plans`] (default on in debug builds, opt-in via
//!   `DECORR_VALIDATE_PLANS=1` in release) the pipeline re-validates the plan after
//!   every stage, so a buggy rewrite rule fails loudly with a named-stage,
//!   named-violation error instead of producing a malformed plan.

pub mod cache;
pub mod cost;
pub mod feedback;
pub mod pass;
mod prune;
pub mod strategy;
pub mod validate;

pub use cache::{
    plan_fingerprint, CacheActivity, CacheContext, PlanCache, PlanCacheStats,
    DEFAULT_PLAN_CACHE_CAPACITY,
};
pub use cost::{
    estimate_per_node, estimate_with, estimated_udf_invocation_cost, CostEstimate, CostParams,
    NodeEstimate,
};
/// The per-UDF runtime record a [`UdfFeedback`] entry sums.
pub use decorr_udf::UdfRuntime;
pub use feedback::{FeedbackState, FeedbackStats, FeedbackStore, QueryFeedback, UdfFeedback};
pub use pass::{
    OptimizeMode, OptimizeOutcome, PassManager, PassManagerOptions, PassTrace, PipelineReport,
};
pub use strategy::{choose_strategy_with, StrategyChoice, StrategyDecision};
pub use validate::{validate_plan, ValidationReport, Violation};
