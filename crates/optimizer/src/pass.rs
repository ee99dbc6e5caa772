//! The instrumented optimization pipeline: a [`PassManager`] owning an ordered list of
//! named passes behind the common [`OptimizerPass`] trait.
//!
//! This is the single entry point through which every query is optimized. The pipeline
//! mirrors Figure 9 of the paper — normalize, algebraize & merge UDF invocations
//! (Sections IV, V, VII), remove Apply operators with the transformation rules
//! (Section VI), clean up, and make the cost-based choice between the iterative and the
//! decorrelated alternative (Section IX) — but unlike the paper's prose, every step here
//! is observable: per-pass wall-clock timings, per-rule fire counts, fixpoint iteration
//! counts, before/after plan snapshots, and a shared rule-firing budget that turns a
//! cyclic rule set into an error instead of an unbounded loop.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use decorr_algebra::display::explain;
use decorr_algebra::{RelExpr, SchemaProvider};
use decorr_common::{Error, Result};
use decorr_rewrite::merge::merge_udf_calls;
use decorr_rewrite::rules::{FixpointEngine, RuleSet};
use decorr_storage::Catalog;
use decorr_udf::{AggregateDefinition, FunctionRegistry};

use crate::cache::{plan_fingerprint, CacheActivity, CacheContext, PlanCache};
use crate::cost::CostParams;
use crate::feedback::FeedbackStore;
use crate::strategy::{choose_strategy_with, StrategyChoice, StrategyDecision};
use decorr_common::FnvHasher;

// ---------------------------------------------------------------------------- options

/// How the strategy-choice pass resolves the iterative/decorrelated alternative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimizeMode {
    /// Compare estimated costs and pick the cheaper plan (the paper's deployment).
    #[default]
    CostBased,
    /// Always pick the decorrelated plan when the rewrite succeeded (the experiments'
    /// "rewritten" arm). The caller is expected to treat a failed rewrite as an error.
    ForceDecorrelated,
}

/// Knobs shared by every pass in a pipeline.
#[derive(Debug, Clone)]
pub struct PassManagerOptions {
    /// Maximum number of full bottom-up passes per rule-fixpoint pass.
    pub max_fixpoint_iterations: usize,
    /// Total rule-firing budget shared by all passes of one `optimize` call. Exhausting
    /// it aborts optimization with an error — the guard against cyclic rule sets.
    pub rule_fire_budget: u64,
    /// Strategy resolution mode.
    pub mode: OptimizeMode,
    /// Capture EXPLAIN-style before/after snapshots per pass. Off by default: snapshot
    /// rendering costs string work per pass on every optimize call, so only diagnostic
    /// entry points (`EXPLAIN`, debugging sessions) should enable it.
    pub capture_snapshots: bool,
    /// The executor's worker-pool size, fed into the cost model so the strategy choice
    /// accounts for morsel-parallel scans/joins/aggregates. Part of the pipeline
    /// fingerprint: a cached decision made for one pool size must not serve another.
    pub parallelism: usize,
    /// Re-validate the plan with `decorr_analysis::validate_plan` after **every**
    /// pass: any structural violation (dangling column reference, unconsumed Apply
    /// binding, unknown function, …) fails the pipeline with a named-pass,
    /// named-violation error instead of letting a buggy rule produce a silently
    /// wrong plan. Defaults to on in debug builds (so every test run self-checks)
    /// and off in release; the `DECORR_VALIDATE_PLANS` environment variable
    /// (`1`/`true`/`on` vs `0`/`false`/`off`) overrides the default either way.
    pub validate_plans: bool,
}

/// Compile-profile default for [`PassManagerOptions::validate_plans`], overridable
/// through the `DECORR_VALIDATE_PLANS` environment variable.
fn default_validate_plans() -> bool {
    match std::env::var("DECORR_VALIDATE_PLANS") {
        Ok(v) => matches!(
            v.trim().to_ascii_lowercase().as_str(),
            "1" | "true" | "on" | "yes"
        ),
        Err(_) => cfg!(debug_assertions),
    }
}

impl Default for PassManagerOptions {
    fn default() -> Self {
        PassManagerOptions {
            max_fixpoint_iterations: 50,
            rule_fire_budget: 100_000,
            mode: OptimizeMode::CostBased,
            capture_snapshots: false,
            parallelism: 1,
            validate_plans: default_validate_plans(),
        }
    }
}

// ---------------------------------------------------------------------------- context

/// Mutable state threaded through the passes of one `optimize` call.
pub struct PassContext<'a> {
    pub registry: &'a FunctionRegistry,
    pub provider: &'a dyn SchemaProvider,
    /// Storage statistics for the cost model; `None` outside an engine (e.g. when the
    /// pipeline runs as a standalone rewrite tool over a schema-only provider).
    pub catalog: Option<&'a Catalog>,
    /// Runtime feedback (learned UDF invocation costs); consulted by the
    /// strategy-choice pass when attached. `None` outside an engine.
    pub feedback: Option<&'a FeedbackStore>,
    pub options: PassManagerOptions,
    /// The normalized original plan — the iterative alternative the strategy pass can
    /// fall back to. Set by [`AlgebraizeMergePass`] before it merges UDF bodies.
    pub baseline_plan: Option<RelExpr>,
    /// The fully decorrelated plan, when the rewrite succeeded (kept even when the
    /// cost-based choice later reverts to the iterative plan).
    pub rewritten_plan: Option<RelExpr>,
    /// The UDF of each invocation replaced by its algebraic form, in merge order.
    pub merged: Vec<String>,
    /// True if every merged UDF invocation was decorrelated (no Apply remains).
    pub decorrelated: bool,
    /// True if the plan the pipeline returns is the decorrelated one.
    pub used_decorrelated_plan: bool,
    /// The cost-based decision, when one was made.
    pub decision: Option<StrategyDecision>,
    /// Remaining shared rule-firing budget.
    rule_budget_left: u64,
}

impl<'a> PassContext<'a> {
    fn new(
        registry: &'a FunctionRegistry,
        provider: &'a dyn SchemaProvider,
        catalog: Option<&'a Catalog>,
        feedback: Option<&'a FeedbackStore>,
        options: PassManagerOptions,
    ) -> PassContext<'a> {
        let budget = options.rule_fire_budget;
        PassContext {
            registry,
            provider,
            catalog,
            feedback,
            options,
            baseline_plan: None,
            rewritten_plan: None,
            merged: vec![],
            decorrelated: false,
            used_decorrelated_plan: false,
            decision: None,
            rule_budget_left: budget,
        }
    }

    /// The auxiliary aggregates the merged forms call, one per call, as their UDFs'
    /// registry records list them.
    fn merged_aux_aggregates(&self) -> impl Iterator<Item = &AggregateDefinition> {
        self.merged
            .iter()
            .filter_map(|udf| self.registry.record(udf))
            .flat_map(|record| &record.aux_aggregates)
            .filter_map(|name| self.registry.aggregate(name).ok())
    }

    /// A [`FixpointEngine`] configured with this pipeline's iteration limit and the
    /// *remaining* shared firing budget.
    pub fn fixpoint_engine(&self) -> FixpointEngine {
        FixpointEngine::with_max_iterations(self.options.max_fixpoint_iterations)
            .with_rule_budget(self.rule_budget_left)
    }

    /// Deducts rule firings from the shared budget.
    pub fn charge_rule_firings(&mut self, fires: u64) {
        self.rule_budget_left = self.rule_budget_left.saturating_sub(fires);
    }
}

// ---------------------------------------------------------------------------- effects

/// What one pass did to the plan, as reported back to the [`PassManager`].
#[derive(Debug, Clone)]
pub struct PassEffect {
    pub plan: RelExpr,
    /// Rules that fired inside this pass, in order.
    pub fired: Vec<String>,
    /// Fire counts per rule.
    pub rule_fires: BTreeMap<String, u64>,
    /// Full fixpoint passes performed, for rule-fixpoint passes.
    pub fixpoint_iterations: Option<usize>,
    /// Whether the fixpoint genuinely converged (vs. hitting the iteration limit).
    pub reached_fixpoint: Option<bool>,
    /// Human-readable remarks (skipped UDFs, reverts, decisions).
    pub notes: Vec<String>,
}

impl PassEffect {
    /// A pass that left the plan untouched.
    pub fn unchanged(plan: RelExpr) -> PassEffect {
        PassEffect {
            plan,
            fired: vec![],
            rule_fires: BTreeMap::new(),
            fixpoint_iterations: None,
            reached_fixpoint: None,
            notes: vec![],
        }
    }

    fn with_note(mut self, note: impl Into<String>) -> PassEffect {
        self.notes.push(note.into());
        self
    }
}

/// A named, instrumented optimization pass.
pub trait OptimizerPass {
    /// Stable pass name, shown in traces and EXPLAIN output.
    fn name(&self) -> &'static str;
    /// Transforms the plan, reporting instrumentation through the returned effect.
    fn run(&self, plan: &RelExpr, ctx: &mut PassContext) -> Result<PassEffect>;
}

// ----------------------------------------------------------------------------- traces

/// Everything the manager recorded about one executed pass.
#[derive(Debug, Clone)]
pub struct PassTrace {
    pub name: String,
    pub duration: Duration,
    /// True if the pass changed the plan.
    pub changed: bool,
    pub rule_fires: BTreeMap<String, u64>,
    pub fired: Vec<String>,
    pub fixpoint_iterations: Option<usize>,
    pub reached_fixpoint: Option<bool>,
    /// EXPLAIN snapshot before/after the pass (when snapshot capture is enabled).
    pub plan_before: Option<String>,
    pub plan_after: Option<String>,
    pub notes: Vec<String>,
    /// Number of structural-invariant checks the per-pass plan validator performed
    /// on this pass's output plan (`None` when validation was off). A recorded pass
    /// always validated clean — violations abort the pipeline instead.
    pub validation_checks: Option<u64>,
}

impl PassTrace {
    pub fn total_rule_fires(&self) -> u64 {
        self.rule_fires.values().sum()
    }
}

/// The per-pass trace of one `optimize` call — the engine exposes this as
/// `QueryResult::rewrite_report` and inside `EXPLAIN` output.
#[derive(Debug, Clone, Default)]
pub struct PipelineReport {
    pub passes: Vec<PassTrace>,
    /// What the plan cache did for this call, when the pipeline ran with one attached:
    /// whether it hit, the key fingerprint, and a counter snapshot
    /// (hits/misses/evictions/invalidations). `None` when no cache was attached.
    pub cache: Option<CacheActivity>,
}

impl PipelineReport {
    /// The trace of a named pass, if it ran.
    pub fn pass(&self, name: &str) -> Option<&PassTrace> {
        self.passes.iter().find(|p| p.name == name)
    }

    /// Aggregated rule fire counts across all passes.
    pub fn rule_fire_counts(&self) -> BTreeMap<String, u64> {
        let mut out = BTreeMap::new();
        for pass in &self.passes {
            for (rule, n) in &pass.rule_fires {
                *out.entry(rule.clone()).or_insert(0) += n;
            }
        }
        out
    }

    /// Total rule firings across all passes.
    pub fn total_rule_fires(&self) -> u64 {
        self.passes.iter().map(|p| p.total_rule_fires()).sum()
    }

    /// Renders the per-pass table shown by `EXPLAIN`: timings, fire counts, fixpoint
    /// iterations and notes, followed by the aggregated per-rule fire counts.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<20} {:>12} {:>7} {:>7}  notes\n",
            "pass", "time", "fires", "iters"
        ));
        for pass in &self.passes {
            out.push_str(&format!(
                "{:<20} {:>9.3} ms {:>7} {:>7}  {}\n",
                pass.name,
                pass.duration.as_secs_f64() * 1e3,
                pass.total_rule_fires(),
                pass.fixpoint_iterations
                    .map(|i| i.to_string())
                    .unwrap_or_else(|| "-".into()),
                pass.notes.join("; ")
            ));
        }
        let validated: Vec<&PassTrace> = self
            .passes
            .iter()
            .filter(|p| p.validation_checks.is_some())
            .collect();
        if !validated.is_empty() {
            let rendered: Vec<String> = validated
                .iter()
                .map(|p| format!("{} ×{}", p.name, p.validation_checks.unwrap_or(0)))
                .collect();
            out.push_str(&format!(
                "plan validation: {} — all passes clean\n",
                rendered.join(", ")
            ));
        }
        let counts = self.rule_fire_counts();
        if !counts.is_empty() {
            out.push_str("rule fire counts: ");
            let rendered: Vec<String> = counts
                .iter()
                .map(|(rule, n)| format!("{rule} ×{n}"))
                .collect();
            out.push_str(&rendered.join(", "));
            out.push('\n');
        }
        if let Some(cache) = &self.cache {
            out.push_str(&format!(
                "plan cache: {} (key {:016x}) · hits={} misses={} evictions={} \
                 invalidations={} entries={}/{} hit-rate={:.0}%\n",
                if cache.hit { "hit" } else { "miss" },
                cache.key_hash,
                cache.stats.hits,
                cache.stats.misses,
                cache.stats.evictions,
                cache.stats.invalidations,
                cache.stats.entries,
                cache.stats.capacity,
                cache.stats.hit_rate() * 100.0,
            ));
        }
        out
    }
}

// ---------------------------------------------------------------------------- outcome

/// The result of running a [`PassManager`] pipeline over a query plan.
#[derive(Debug, Clone)]
pub struct OptimizeOutcome {
    /// The plan to execute (the strategy pass's choice; the rewritten plan when the
    /// rewrite succeeded and was selected, otherwise the normalized original).
    pub plan: RelExpr,
    /// The normalized original plan — the iterative alternative.
    pub iterative_plan: RelExpr,
    /// The fully decorrelated plan, when the rewrite succeeded (independent of whether
    /// the cost model then selected it).
    pub rewritten_plan: Option<RelExpr>,
    /// True if every merged UDF invocation was decorrelated.
    pub decorrelated: bool,
    /// True if `plan` is the decorrelated plan.
    pub used_decorrelated_plan: bool,
    /// Number of UDF invocations replaced by algebraic forms.
    pub merged_calls: usize,
    /// The auxiliary aggregates `rewritten_plan` calls, one per merged call, derived from
    /// the merged UDFs' registry records. Executing needs nothing from here (they are
    /// registered with their UDFs): it is kept for `Session::rewrite_sql` and the
    /// `benchmark/` package, and ROADMAP item 10 (`[benchmark]` housekeeping) may drop it.
    pub aux_aggregates: Vec<AggregateDefinition>,
    /// Names of the transformation rules that fired, in order, across all passes.
    pub applied_rules: Vec<String>,
    /// Human-readable notes from every pass.
    pub notes: Vec<String>,
    /// The cost-based decision, when one was made.
    pub decision: Option<StrategyDecision>,
    /// Per-pass instrumentation.
    pub report: PipelineReport,
}

// ----------------------------------------------------------------------------- passes

/// Plan normalisation: predicate pushdown, selection/projection merging. Runs first so
/// that even the iterative baseline executes reasonable plans (comma-syntax joins become
/// hash-joinable inner joins), exactly like the commercial systems the paper measures.
pub struct NormalizePass;

impl OptimizerPass for NormalizePass {
    fn name(&self) -> &'static str {
        "normalize"
    }

    fn run(&self, plan: &RelExpr, ctx: &mut PassContext) -> Result<PassEffect> {
        let outcome = ctx
            .fixpoint_engine()
            .run(plan, &RuleSet::cleanup_only(), ctx.provider)?;
        ctx.charge_rule_firings(outcome.total_fires());
        Ok(PassEffect {
            plan: outcome.plan,
            fired: outcome.fired,
            rule_fires: outcome.fire_counts,
            fixpoint_iterations: Some(outcome.iterations),
            reached_fixpoint: Some(outcome.reached_fixpoint),
            notes: vec![],
        })
    }
}

/// Algebraization and merging (Sections IV, V, VII): merges the parameterized algebraic
/// expression of every UDF invoked by the query — derived when the UDF was registered —
/// into the calling block with the Apply (bind) operator. Also snapshots the incoming
/// plan as the iterative baseline the later passes can revert to.
pub struct AlgebraizeMergePass;

impl OptimizerPass for AlgebraizeMergePass {
    fn name(&self) -> &'static str {
        "algebraize-merge"
    }

    fn run(&self, plan: &RelExpr, ctx: &mut PassContext) -> Result<PassEffect> {
        ctx.baseline_plan = Some(plan.clone());
        if !plan.contains_udf_call() {
            return Ok(PassEffect::unchanged(plan.clone())
                .with_note("query invokes no user-defined functions"));
        }
        let merged = merge_udf_calls(plan, ctx.registry)?;
        let mut effect = PassEffect::unchanged(merged.plan);
        for (name, reason) in &merged.skipped {
            effect.notes.push(format!(
                "UDF '{name}' kept as an iterative invocation: {reason}"
            ));
        }
        ctx.merged = merged.merged;
        if !ctx.merged.is_empty() {
            effect.notes.push(format!(
                "merged {} UDF invocation(s), {} auxiliary aggregate(s)",
                ctx.merged.len(),
                ctx.merged_aux_aggregates().count()
            ));
        }
        Ok(effect)
    }
}

/// Apply removal (Section VI): drives the K1–K6/R1–R9 rule set to fixpoint. If some
/// Apply operator survives and full decorrelation is required, reverts to the baseline
/// plan — iterative invocation remains the execution strategy, like the paper's tool.
pub struct ApplyRemovalPass;

impl OptimizerPass for ApplyRemovalPass {
    fn name(&self) -> &'static str {
        "apply-removal"
    }

    fn run(&self, plan: &RelExpr, ctx: &mut PassContext) -> Result<PassEffect> {
        if ctx.merged.is_empty() {
            return Ok(PassEffect::unchanged(plan.clone()).with_note("no merged UDF invocations"));
        }
        let outcome =
            ctx.fixpoint_engine()
                .run(plan, &RuleSet::default_pipeline(), ctx.provider)?;
        ctx.charge_rule_firings(outcome.total_fires());
        let mut effect = PassEffect {
            plan: outcome.plan,
            fired: outcome.fired,
            rule_fires: outcome.fire_counts,
            fixpoint_iterations: Some(outcome.iterations),
            reached_fixpoint: Some(outcome.reached_fixpoint),
            notes: vec![],
        };
        ctx.decorrelated = !effect.plan.contains_apply();
        // Matching the paper's tool: a query some Apply operator cannot be removed from
        // reverts to its normalized original form.
        if !ctx.decorrelated {
            effect.plan = ctx
                .baseline_plan
                .clone()
                .expect("algebraize-merge runs before apply-removal");
            effect.notes.push(
                "some Apply operators could not be removed; the query was left untransformed \
                 (iterative invocation remains the execution strategy)"
                    .into(),
            );
        }
        Ok(effect)
    }
}

/// Final cleanup after Apply removal: re-runs the normalisation rules so the flattened
/// plan exposes pushdown-ready predicates and merged projections to the executor.
pub struct CleanupPass;

impl OptimizerPass for CleanupPass {
    fn name(&self) -> &'static str {
        "cleanup"
    }

    fn run(&self, plan: &RelExpr, ctx: &mut PassContext) -> Result<PassEffect> {
        let outcome = ctx
            .fixpoint_engine()
            .run(plan, &RuleSet::cleanup_only(), ctx.provider)?;
        ctx.charge_rule_firings(outcome.total_fires());
        if ctx.decorrelated {
            ctx.rewritten_plan = Some(outcome.plan.clone());
        }
        Ok(PassEffect {
            plan: outcome.plan,
            fired: outcome.fired,
            rule_fires: outcome.fire_counts,
            fixpoint_iterations: Some(outcome.iterations),
            reached_fixpoint: Some(outcome.reached_fixpoint),
            notes: vec![],
        })
    }
}

/// The cost-based choice between the iterative and the decorrelated plan (Section IX):
/// the paper's point about registering the transformation rules inside a cost-based
/// optimizer, so that iterative invocation remains an alternative (Experiment 3 shows a
/// regime where it wins).
pub struct StrategyChoicePass;

impl OptimizerPass for StrategyChoicePass {
    fn name(&self) -> &'static str {
        "strategy-choice"
    }

    fn run(&self, plan: &RelExpr, ctx: &mut PassContext) -> Result<PassEffect> {
        if !ctx.decorrelated {
            ctx.used_decorrelated_plan = false;
            return Ok(PassEffect::unchanged(plan.clone())
                .with_note("no decorrelated alternative; executing the iterative plan"));
        }
        let baseline = ctx
            .baseline_plan
            .clone()
            .expect("algebraize-merge runs before strategy-choice");
        match (ctx.options.mode, ctx.catalog) {
            (OptimizeMode::ForceDecorrelated, _) => {
                ctx.used_decorrelated_plan = true;
                Ok(PassEffect::unchanged(plan.clone())
                    .with_note("decorrelated plan forced by options"))
            }
            (OptimizeMode::CostBased, Some(catalog)) => {
                let mut params = CostParams::new(ctx.options.parallelism);
                // Learned UDF invocation costs (runtime feedback) replace the static
                // body estimates — this is where a mispriced iterative plan gets
                // re-decided with measured numbers. Learned dedup fractions give
                // effective invocation counts: calls the dedup/memo runtime answers from
                // cache cost nothing, so an iterative plan over repetitive arguments is
                // cheaper than its raw call count says.
                let mut learned_note = None;
                if let Some(feedback) = ctx.feedback {
                    params.learned = feedback.learned();
                    let costs: Vec<String> = params
                        .learned
                        .iter()
                        .filter_map(|(name, l)| l.units.map(|units| format!("{name}≈{units:.0}")))
                        .collect();
                    if !costs.is_empty() {
                        learned_note = Some(format!(
                            "{} learned UDF cost(s) applied: {}",
                            costs.len(),
                            costs.join(", ")
                        ));
                    }
                }
                let decision =
                    choose_strategy_with(&baseline, plan, catalog, ctx.registry, &params);
                let summary = decision.summary();
                let chosen = match decision.choice {
                    StrategyChoice::Decorrelated => {
                        ctx.used_decorrelated_plan = true;
                        plan.clone()
                    }
                    StrategyChoice::Iterative => {
                        ctx.used_decorrelated_plan = false;
                        baseline
                    }
                };
                ctx.decision = Some(decision);
                let mut effect = PassEffect::unchanged(chosen).with_note(summary);
                if let Some(note) = learned_note {
                    effect = effect.with_note(note);
                }
                Ok(effect)
            }
            (OptimizeMode::CostBased, None) => {
                ctx.used_decorrelated_plan = true;
                Ok(PassEffect::unchanged(plan.clone()).with_note(
                    "no catalog statistics available; defaulting to the decorrelated plan",
                ))
            }
        }
    }
}

// ----------------------------------------------------------------------- pass manager

/// Owns an ordered list of named passes and drives a plan through them, recording a
/// [`PassTrace`] per pass. With a [`PlanCache`] attached (see
/// [`with_plan_cache`](PassManager::with_plan_cache)), `optimize` first probes the
/// cache and skips the pipeline entirely on a hit.
pub struct PassManager {
    passes: Vec<Box<dyn OptimizerPass>>,
    options: PassManagerOptions,
    cache: Option<Arc<PlanCache>>,
    feedback: Option<Arc<FeedbackStore>>,
}

impl PassManager {
    /// An empty pipeline with default options; push passes with [`PassManager::push`].
    pub fn new() -> PassManager {
        PassManager {
            passes: vec![],
            options: PassManagerOptions::default(),
            cache: None,
            feedback: None,
        }
    }

    /// Normalisation only — what every query (and every query inside a UDF body) goes
    /// through before iterative execution.
    pub fn cleanup_pipeline() -> PassManager {
        PassManager::new().with_pass(NormalizePass)
    }

    /// The full Figure-9 rewrite pipeline *without* the strategy choice: normalize,
    /// algebraize & merge, Apply removal, cleanup. This is the paper's standalone
    /// rewrite tool; the outcome's plan is the rewritten form whenever decorrelation
    /// succeeded.
    pub fn rewrite_pipeline() -> PassManager {
        PassManager::new()
            .with_pass(NormalizePass)
            .with_pass(AlgebraizeMergePass)
            .with_pass(ApplyRemovalPass)
            .with_pass(CleanupPass)
    }

    /// The deployed pipeline: the rewrite pipeline followed by the cost-based strategy
    /// choice.
    pub fn decorrelation_pipeline() -> PassManager {
        PassManager::rewrite_pipeline().with_pass(StrategyChoicePass)
    }

    /// Replaces the pipeline options.
    pub fn with_options(mut self, options: PassManagerOptions) -> PassManager {
        self.options = options;
        self
    }

    /// Sets the strategy-resolution mode.
    pub fn with_mode(mut self, mode: OptimizeMode) -> PassManager {
        self.options.mode = mode;
        self
    }

    /// Enables or disables per-pass before/after plan snapshots. Snapshot rendering is
    /// pure string work but it is paid on every `optimize` call, so the engine keeps it
    /// off on the query hot path and turns it on for diagnostics (`EXPLAIN`).
    pub fn with_snapshots(mut self, capture_snapshots: bool) -> PassManager {
        self.options.capture_snapshots = capture_snapshots;
        self
    }

    /// Calibrates the cost model for the executor's worker-pool size (see
    /// [`PassManagerOptions::parallelism`]).
    pub fn with_parallelism(mut self, parallelism: usize) -> PassManager {
        self.options.parallelism = parallelism.max(1);
        self
    }

    /// Forces per-pass plan validation on or off, overriding the build-profile
    /// default and the `DECORR_VALIDATE_PLANS` environment variable (see
    /// [`PassManagerOptions::validate_plans`]).
    pub fn with_validation(mut self, validate_plans: bool) -> PassManager {
        self.options.validate_plans = validate_plans;
        self
    }

    /// Attaches a shared [`PlanCache`]: `optimize` probes it before running any pass
    /// and stores the outcome on a miss. The cache key folds in the registry and
    /// catalog-DDL generations plus this pipeline's
    /// [fingerprint](PassManager::pipeline_fingerprint), so distinct pipelines sharing
    /// one cache never cross-serve.
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> PassManager {
        self.cache = Some(cache);
        self
    }

    /// Attaches a runtime [`FeedbackStore`]: the strategy-choice pass consults its
    /// learned UDF invocation costs, and (for cost-based pipelines) the store's
    /// generation becomes part of the plan-cache key, so newly learned costs make
    /// stale cost-based decisions unreachable.
    pub fn with_feedback(mut self, feedback: Arc<FeedbackStore>) -> PassManager {
        self.feedback = Some(feedback);
        self
    }

    /// True when this pipeline's outcome can depend on the feedback store: a
    /// cost-based strategy choice with a store attached. Feedback-blind pipelines
    /// (normalisation only, forced decorrelation) keep `None` in their cache context,
    /// so feedback-generation moves never invalidate their entries.
    fn consults_feedback(&self) -> bool {
        self.feedback.is_some()
            && self.options.mode == OptimizeMode::CostBased
            && self.passes.iter().any(|p| p.name() == "strategy-choice")
    }

    /// Appends a pass (builder style).
    pub fn with_pass(mut self, pass: impl OptimizerPass + 'static) -> PassManager {
        self.passes.push(Box::new(pass));
        self
    }

    /// Appends a pass.
    pub fn push(&mut self, pass: impl OptimizerPass + 'static) {
        self.passes.push(Box::new(pass));
    }

    pub fn options(&self) -> &PassManagerOptions {
        &self.options
    }

    /// Fingerprint of the pipeline shape and its options: pass names in order plus
    /// every [`PassManagerOptions`] knob. Part of the plan-cache key, so two pipelines
    /// that could produce different outcomes for the same plan never share an entry.
    pub fn pipeline_fingerprint(&self) -> u64 {
        let mut hasher = FnvHasher::new();
        for pass in &self.passes {
            let _ = std::fmt::Write::write_str(&mut hasher, pass.name());
            let _ = std::fmt::Write::write_str(&mut hasher, ";");
        }
        hasher.write_u64(self.options.max_fixpoint_iterations as u64);
        hasher.write_u64(self.options.rule_fire_budget);
        hasher.write_u64(match self.options.mode {
            OptimizeMode::CostBased => 0,
            OptimizeMode::ForceDecorrelated => 1,
        });
        hasher.write_u64(u64::from(self.options.capture_snapshots));
        hasher.write_u64(self.options.parallelism as u64);
        hasher.write_u64(u64::from(self.options.validate_plans));
        hasher.finish()
    }

    /// Drives `plan` through the pipeline, consulting the attached [`PlanCache`]
    /// first (when one is attached). On a hit the pipeline is skipped entirely and the
    /// outcome's report carries a single synthetic `plan-cache` trace whose duration is
    /// the lookup cost; on a miss the freshly computed outcome is stored before being
    /// returned. `catalog` supplies statistics for the cost model; pass `None` when
    /// running as a pure rewrite tool.
    pub fn optimize(
        &self,
        plan: &RelExpr,
        registry: &FunctionRegistry,
        provider: &dyn SchemaProvider,
        catalog: Option<&Catalog>,
    ) -> Result<OptimizeOutcome> {
        let Some(cache) = &self.cache else {
            return self.run_pipeline(plan, registry, provider, catalog);
        };
        let context = CacheContext {
            registry_generation: registry.generation(),
            ddl_generation: catalog.map(Catalog::ddl_generation),
            feedback_generation: if self.consults_feedback() {
                self.feedback.as_ref().map(|f| f.generation())
            } else {
                None
            },
            pipeline_fingerprint: self.pipeline_fingerprint(),
        };
        // Hash once: the fingerprint walks the whole plan tree, so the lookup, the
        // insert and the reported key all reuse this value, and the lookup timing
        // below includes it (it *is* part of the warm-path cost).
        let start = Instant::now();
        let key_hash = plan_fingerprint(plan);
        if let Some(mut outcome) = cache.lookup_hashed(key_hash, plan, &context) {
            let lookup = start.elapsed();
            outcome.notes.push(format!(
                "served from plan cache (registry generation {})",
                context.registry_generation
            ));
            outcome.report = PipelineReport {
                passes: vec![PassTrace {
                    name: "plan-cache".into(),
                    duration: lookup,
                    changed: false,
                    rule_fires: BTreeMap::new(),
                    fired: vec![],
                    fixpoint_iterations: None,
                    reached_fixpoint: None,
                    plan_before: None,
                    plan_after: None,
                    notes: vec!["cache hit — optimizer pipeline skipped".into()],
                    validation_checks: None,
                }],
                cache: Some(CacheActivity {
                    hit: true,
                    key_hash,
                    registry_generation: context.registry_generation,
                    stats: cache.stats(),
                }),
            };
            return Ok(outcome);
        }
        let mut outcome = self.run_pipeline(plan, registry, provider, catalog)?;
        // The hit path replaces the report with a synthetic plan-cache trace, so do not
        // store the cold run's report (for EXPLAIN pipelines it holds per-pass plan
        // snapshots — dead weight every hit would pay to clone).
        let mut cached = outcome.clone();
        cached.report = PipelineReport::default();
        cache.insert_hashed(key_hash, plan, &context, cached);
        outcome.report.cache = Some(CacheActivity {
            hit: false,
            key_hash,
            registry_generation: context.registry_generation,
            stats: cache.stats(),
        });
        Ok(outcome)
    }

    /// The uncached pipeline: drives `plan` through every pass in order.
    fn run_pipeline(
        &self,
        plan: &RelExpr,
        registry: &FunctionRegistry,
        provider: &dyn SchemaProvider,
        catalog: Option<&Catalog>,
    ) -> Result<OptimizeOutcome> {
        let mut ctx = PassContext::new(
            registry,
            provider,
            catalog,
            self.feedback.as_deref(),
            self.options.clone(),
        );
        let mut current = plan.clone();
        let mut report = PipelineReport::default();
        let mut applied_rules: Vec<String> = vec![];
        let mut notes: Vec<String> = vec![];
        // The validator guards against *rule* bugs: plans that were well-formed
        // becoming malformed mid-pipeline. A plan that arrives already dirty (an
        // unknown table, an unresolvable column) is a user error — whether the input
        // was dirty is only decided lazily, on the error path, so the happy path
        // never pays for validating the input twice.
        let mut validate_plans = self.options.validate_plans;
        // Check count of the last validated plan; `None` until the first validation.
        let mut last_checks: Option<u64> = None;
        for pass in &self.passes {
            let plan_before = self.options.capture_snapshots.then(|| explain(&current));
            let start = Instant::now();
            let effect = pass.run(&current, &mut ctx).map_err(|e| {
                Error::Rewrite(format!("optimizer pass '{}' failed: {e}", pass.name()))
            })?;
            let duration = start.elapsed();
            let changed = effect.plan != current;
            // An unchanged pass cannot have introduced a violation: the plan is
            // byte-identical to the last validated one, so its check count is
            // carried over instead of re-walking the tree.
            let validation_checks = match (validate_plans, last_checks) {
                (true, Some(checks)) if !changed => Some(checks),
                (true, _) => {
                    let validation =
                        decorr_analysis::validate_plan(&effect.plan, provider, registry);
                    match validation.violations.first() {
                        Some(violation)
                            if decorr_analysis::validate_plan(plan, provider, registry)
                                .is_clean() =>
                        {
                            let rule = effect
                                .fired
                                .last()
                                .map(|r| format!(" (last rule fired: '{r}')"))
                                .unwrap_or_default();
                            return Err(Error::Rewrite(format!(
                                "plan validation failed after pass '{}'{rule}: [{}] {violation}",
                                pass.name(),
                                violation.name(),
                            )));
                        }
                        Some(_) => {
                            // The violation was already present in the input plan: a
                            // user error, not a rule bug. Disarm validation so the
                            // binder/executor surfaces its properly-kinded error.
                            validate_plans = false;
                            None
                        }
                        None => {
                            last_checks = Some(validation.checks);
                            Some(validation.checks)
                        }
                    }
                }
                (false, _) => None,
            };
            let plan_after =
                (self.options.capture_snapshots && changed).then(|| explain(&effect.plan));
            applied_rules.extend(effect.fired.iter().cloned());
            notes.extend(effect.notes.iter().cloned());
            report.passes.push(PassTrace {
                name: pass.name().to_string(),
                duration,
                changed,
                rule_fires: effect.rule_fires,
                fired: effect.fired,
                fixpoint_iterations: effect.fixpoint_iterations,
                reached_fixpoint: effect.reached_fixpoint,
                plan_before,
                plan_after,
                notes: effect.notes,
                validation_checks,
            });
            current = effect.plan;
        }
        if validate_plans && ctx.decorrelated {
            // The pipeline claims full decorrelation: the rewritten plan (and the
            // final plan when it *is* the rewritten one) must carry no residual
            // Apply-family operator — guards a later pass reintroducing one.
            let candidate = ctx.rewritten_plan.as_ref().unwrap_or(&current);
            if let Some(violation) = decorr_analysis::check_decorrelated(candidate).first() {
                return Err(Error::Rewrite(format!(
                    "plan validation failed after pipeline: [{}] {violation}",
                    violation.name(),
                )));
            }
        }
        let iterative_plan = ctx.baseline_plan.clone().unwrap_or_else(|| current.clone());
        let rewritten_plan = ctx.rewritten_plan.clone().or_else(|| {
            // Pipelines without a strategy pass end on the rewritten form itself.
            ctx.decorrelated.then(|| current.clone())
        });
        // In a strategy-less pipeline the returned plan is the rewritten one whenever
        // the rewrite succeeded.
        let used_decorrelated_plan = ctx.used_decorrelated_plan
            || (ctx.decorrelated
                && rewritten_plan
                    .as_ref()
                    .map(|r| r == &current)
                    .unwrap_or(false));
        let aux_aggregates = if ctx.decorrelated {
            ctx.merged_aux_aggregates().cloned().collect()
        } else {
            vec![]
        };
        Ok(OptimizeOutcome {
            plan: current,
            iterative_plan,
            rewritten_plan,
            decorrelated: ctx.decorrelated,
            used_decorrelated_plan,
            merged_calls: ctx.merged.len(),
            aux_aggregates,
            applied_rules,
            notes,
            decision: ctx.decision,
            report,
        })
    }
}

impl Default for PassManager {
    fn default() -> Self {
        PassManager::decorrelation_pipeline()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_algebra::display::explain;
    use decorr_algebra::schema::MapProvider;
    use decorr_common::{Column, DataType, Schema};
    use decorr_parser::{parse_and_plan, parse_function};

    fn provider() -> MapProvider {
        MapProvider::new()
            .with_table(
                "customer",
                Schema::new(vec![
                    Column::new("custkey", DataType::Int),
                    Column::new("name", DataType::Str),
                ]),
            )
            .with_table(
                "orders",
                Schema::new(vec![
                    Column::new("orderkey", DataType::Int),
                    Column::new("custkey", DataType::Int),
                    Column::new("totalprice", DataType::Float),
                ]),
            )
    }

    /// A registry of `sources`, algebraized against `provider()` the way registration
    /// does it.
    fn registry_of(sources: &[&str]) -> FunctionRegistry {
        let mut registry = FunctionRegistry::new();
        for source in sources {
            registry.register_udf(parse_function(source).unwrap());
        }
        decorr_rewrite::algebraize_registry(&mut registry, None, &provider());
        registry
    }

    fn rewrite(plan: &decorr_algebra::RelExpr, registry: &FunctionRegistry) -> OptimizeOutcome {
        PassManager::rewrite_pipeline()
            .optimize(plan, registry, &provider(), None)
            .unwrap()
    }

    #[test]
    fn decorrelates_example3_discount() {
        // Example 3: after rewriting, no Apply and no UDF call remain and the arithmetic
        // is inlined into the projection (Π_{orderkey, totalprice*0.15}(orders)).
        let registry = registry_of(&["create function discount(float amount) returns float as \
             begin return amount * 0.15; end"]);
        let plan =
            parse_and_plan("select orderkey, discount(totalprice) as d from orders").unwrap();
        let outcome = rewrite(&plan, &registry);
        assert!(outcome.decorrelated);
        assert!(outcome.used_decorrelated_plan);
        assert!(!outcome.plan.contains_apply());
        assert!(!outcome.plan.contains_udf_call());
        let text = explain(&outcome.plan);
        assert!(text.contains("totalprice * 0.15) as d"), "plan:\n{text}");
        assert!(text.contains("Scan orders"));
        // The whole plan collapses to a single projection over the scan.
        assert!(outcome.plan.node_count() <= 3, "plan:\n{text}");
    }

    #[test]
    fn decorrelates_example1_service_level_into_outer_join() {
        // Example 1 → Example 2: the rewritten form is a left outer join between
        // customer and a grouped aggregation over orders, with a CASE projection.
        let registry = registry_of(&[
            "create function service_level(int ckey) returns char(10) as \
             begin \
               float totalbusiness; string level; \
               select sum(totalprice) into :totalbusiness from orders where custkey = :ckey; \
               if (totalbusiness > 1000000) level = 'Platinum'; \
               else if (totalbusiness > 500000) level = 'Gold'; \
               else level = 'Regular'; \
               return level; \
             end",
        ]);
        let plan = parse_and_plan("select custkey, service_level(custkey) as level from customer")
            .unwrap();
        let outcome = rewrite(&plan, &registry);
        let text = explain(&outcome.plan);
        assert!(
            outcome.decorrelated,
            "rules: {:?}\nnotes: {:?}\nplan:\n{text}",
            outcome.applied_rules, outcome.notes
        );
        assert!(text.contains("Join(left outer)"), "plan:\n{text}");
        // The inlined body scans `orders` under a fresh invocation-unique alias so its
        // columns can never collide with same-named outer columns.
        assert!(
            text.contains("Aggregate group_by=[__udf0_orders.custkey]"),
            "plan:\n{text}"
        );
        assert!(
            text.contains("Scan orders as __udf0_orders"),
            "plan:\n{text}"
        );
        assert!(text.contains("'Platinum'"), "plan:\n{text}");
        assert!(!outcome.plan.contains_udf_call());
        // R9, R2, R8, R4 and the scalar-aggregate decorrelation must all have fired.
        for expected in [
            "R9-apply-bind-removal",
            "R8-conditional-merge-to-case",
            "decorrelate-scalar-aggregate",
        ] {
            assert!(
                outcome.applied_rules.iter().any(|r| r == expected),
                "expected rule {expected} to fire; fired: {:?}",
                outcome.applied_rules
            );
        }
        // The instrumentation attributes the rule firings to the apply-removal pass.
        let removal = outcome.report.pass("apply-removal").unwrap();
        assert!(removal.total_rule_fires() >= 3, "{:?}", removal.rule_fires);
        assert_eq!(removal.reached_fixpoint, Some(true));
    }

    #[test]
    fn query_without_udfs_is_untouched() {
        let registry = FunctionRegistry::new();
        let plan = parse_and_plan("select custkey from customer").unwrap();
        let outcome = rewrite(&plan, &registry);
        assert!(!outcome.decorrelated);
        assert_eq!(outcome.plan, plan);
        assert!(outcome
            .notes
            .iter()
            .any(|n| n.contains("no user-defined functions")));
    }

    #[test]
    fn non_decorrelatable_udf_keeps_original_plan() {
        let registry = registry_of(&["create function spin(int n) returns int as \
             begin int i = 0; while (i < n) begin i = i + 1; end return i; end"]);
        let plan = parse_and_plan("select spin(custkey) from customer").unwrap();
        let outcome = rewrite(&plan, &registry);
        assert!(!outcome.decorrelated);
        assert_eq!(outcome.plan, plan);
        assert!(outcome.notes.iter().any(|n| n.contains("WHILE")));
    }

    #[test]
    fn every_pass_is_traced_in_order() {
        let registry = FunctionRegistry::new();
        let plan = parse_and_plan("select custkey from customer").unwrap();
        let outcome = PassManager::decorrelation_pipeline()
            .optimize(&plan, &registry, &provider(), None)
            .unwrap();
        let traced: Vec<&str> = outcome
            .report
            .passes
            .iter()
            .map(|p| p.name.as_str())
            .collect();
        assert_eq!(
            traced,
            vec![
                "normalize",
                "algebraize-merge",
                "apply-removal",
                "cleanup",
                "strategy-choice"
            ]
        );
    }
}
