//! The instrumented optimization pipeline: [`PassManager::optimize`] drives a plan
//! through the fixed stage sequence of Figure 9, written as one function.
//!
//! This is the single entry point through which every query is optimized. The stages
//! mirror Figure 9 of the paper — normalize, algebraize & merge UDF invocations
//! (Sections IV, V, VII), remove Apply operators with the transformation rules
//! (Section VI), clean up, and make the cost-based choice between the iterative and the
//! decorrelated alternative (Section IX) — but unlike the paper's prose, every stage here
//! is observable: per-stage wall-clock timings, per-rule fire counts, fixpoint iteration
//! counts, before/after plan snapshots, and a shared rule-firing budget that turns a
//! cyclic rule set into an error instead of an unbounded loop.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use decorr_algebra::display::explain;
use decorr_algebra::{RelExpr, SchemaProvider};
use decorr_common::{Error, Result};
use decorr_rewrite::merge::merge_udf_calls;
use decorr_rewrite::rules::{FixpointEngine, FixpointOutcome, RuleSet};
use decorr_storage::Catalog;
use decorr_udf::{AggregateDefinition, FunctionRegistry};

use crate::cache::{plan_fingerprint, CacheActivity, CacheContext, PlanCache};
use crate::cost::CostParams;
use crate::feedback::FeedbackStore;
use crate::prune::prune_dead_columns;
use crate::strategy::{choose_strategy_with, StrategyChoice, StrategyDecision};
use crate::validate::{check_decorrelated, validate_plan};
use decorr_common::FnvHasher;

// ---------------------------------------------------------------------------- options

/// Maximum number of full bottom-up passes per rule fixpoint.
const MAX_FIXPOINT_ITERATIONS: usize = 50;

/// Total rule firings shared by all stages of one `optimize` call. Exhausting it aborts
/// optimization with an error — the guard against cyclic rule sets.
const RULE_FIRE_BUDGET: u64 = 100_000;

/// How the strategy-choice stage resolves the iterative/decorrelated alternative.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimizeMode {
    /// Compare estimated costs and pick the cheaper plan (the paper's deployment).
    #[default]
    CostBased,
    /// Always pick the decorrelated plan when the rewrite succeeded (the experiments'
    /// "rewritten" arm). The caller is expected to treat a failed rewrite as an error.
    ForceDecorrelated,
}

/// Knobs shared by every stage of a pipeline.
#[derive(Debug, Clone)]
pub struct PassManagerOptions {
    /// Strategy resolution mode.
    pub mode: OptimizeMode,
    /// Capture EXPLAIN-style before/after snapshots per stage. Off by default: snapshot
    /// rendering costs string work per stage on every optimize call, so only diagnostic
    /// entry points (`EXPLAIN`, debugging sessions) should enable it.
    pub capture_snapshots: bool,
    /// The executor's worker-pool size, fed into the cost model so the strategy choice
    /// accounts for morsel-parallel scans/joins/aggregates. Part of the pipeline
    /// fingerprint: a cached decision made for one pool size must not serve another.
    pub parallelism: usize,
    /// Re-validate the plan with [`validate_plan`] after **every** stage: any
    /// structural violation (dangling column reference, unconsumed Apply binding,
    /// unknown function, …) fails the pipeline with a named-stage, named-violation
    /// error instead of letting a buggy rule produce a silently wrong plan. Defaults
    /// to on in debug builds (so every test run self-checks) and off in release; the
    /// `DECORR_VALIDATE_PLANS` environment variable (`1`/`true`/`on` vs
    /// `0`/`false`/`off`) overrides the default either way.
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
            mode: OptimizeMode::CostBased,
            capture_snapshots: false,
            parallelism: 1,
            validate_plans: default_validate_plans(),
        }
    }
}

// ----------------------------------------------------------------------------- traces

/// Everything the manager recorded about one executed stage.
#[derive(Debug, Clone)]
pub struct PassTrace {
    pub name: String,
    pub duration: Duration,
    /// True if the stage changed the plan.
    pub changed: bool,
    pub rule_fires: BTreeMap<String, u64>,
    pub fired: Vec<String>,
    pub fixpoint_iterations: Option<usize>,
    pub reached_fixpoint: Option<bool>,
    /// EXPLAIN snapshot before/after the stage (when snapshot capture is enabled).
    pub plan_before: Option<String>,
    pub plan_after: Option<String>,
    pub notes: Vec<String>,
    /// Number of structural-invariant checks the plan validator performed on this
    /// stage's output plan (`None` when validation was off). A recorded stage always
    /// validated clean — violations abort the pipeline instead.
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
    /// The plan to execute (the strategy choice's pick; the rewritten plan when the
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
    /// `benchmark/` package, and ROADMAP item 12 (`[benchmark]` housekeeping) may drop it.
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

// ----------------------------------------------------------------------------- stages

/// What one stage's body produced, handed back to [`Stages::run`].
struct Stage {
    plan: RelExpr,
    /// Rules that fired inside the stage, in order, and how often each did.
    fired: Vec<String>,
    rule_fires: BTreeMap<String, u64>,
    /// Iterations and convergence of the stage's rule fixpoint, if it ran one.
    fixpoint: Option<(usize, bool)>,
    /// Human-readable remarks (skipped UDFs, reverts, decisions).
    notes: Vec<String>,
    /// Remarks for the stage's own line of the pass table only, not the outcome's
    /// notes.
    trace_notes: Vec<String>,
}

impl Stage {
    /// A stage that produced `plan` without running rules.
    fn plan(plan: RelExpr) -> Stage {
        Stage {
            plan,
            fired: vec![],
            rule_fires: BTreeMap::new(),
            fixpoint: None,
            notes: vec![],
            trace_notes: vec![],
        }
    }

    /// A stage that drove one rule set to fixpoint.
    fn rules(outcome: FixpointOutcome) -> Stage {
        Stage {
            plan: outcome.plan,
            fired: outcome.fired,
            rule_fires: outcome.fire_counts,
            fixpoint: Some((outcome.iterations, outcome.reached_fixpoint)),
            notes: vec![],
            trace_notes: vec![],
        }
    }

    fn note(mut self, note: impl Into<String>) -> Stage {
        self.notes.push(note.into());
        self
    }

    fn trace_note(mut self, note: impl Into<String>) -> Stage {
        self.trace_notes.push(note.into());
        self
    }
}

/// What one pipeline run threads through its stages: the shared rule budget, whether
/// the validator is still armed, and the trace so far.
///
/// The validator guards against *rule* bugs: plans that were well-formed becoming
/// malformed mid-pipeline. A plan that arrives already dirty (an unknown table, an
/// unresolvable column) is a user error, so a violation first validates the input
/// plan, and one the input already had disarms validation for the rest of the run:
/// the binder/executor then surfaces its properly-kinded error. Deciding this only on
/// the error path keeps the happy path from validating the input twice.
struct Stages<'a> {
    input: &'a RelExpr,
    provider: &'a dyn SchemaProvider,
    registry: &'a FunctionRegistry,
    capture_snapshots: bool,
    rule_budget_left: u64,
    validate: bool,
    /// Check count of the last validated plan; `None` until the first validation.
    last_checks: Option<u64>,
    report: PipelineReport,
    applied_rules: Vec<String>,
    notes: Vec<String>,
}

impl<'a> Stages<'a> {
    fn new(
        input: &'a RelExpr,
        provider: &'a dyn SchemaProvider,
        registry: &'a FunctionRegistry,
        options: &PassManagerOptions,
    ) -> Stages<'a> {
        Stages {
            input,
            provider,
            registry,
            capture_snapshots: options.capture_snapshots,
            rule_budget_left: RULE_FIRE_BUDGET,
            validate: options.validate_plans,
            last_checks: None,
            report: PipelineReport::default(),
            applied_rules: vec![],
            notes: vec![],
        }
    }

    /// Runs one stage: `body` turns `plan` into the stage's output, given a fixpoint
    /// engine holding the remaining shared rule budget. The stage is timed, charged
    /// against the budget, validated, snapshotted and traced under `name`.
    fn run(
        &mut self,
        name: &'static str,
        plan: &RelExpr,
        body: impl FnOnce(FixpointEngine) -> Result<Stage>,
    ) -> Result<RelExpr> {
        let plan_before = self.capture_snapshots.then(|| explain(plan));
        let start = Instant::now();
        let engine = FixpointEngine::with_max_iterations(MAX_FIXPOINT_ITERATIONS)
            .with_rule_budget(self.rule_budget_left);
        let stage = body(engine)
            .map_err(|e| Error::Rewrite(format!("optimizer pass '{name}' failed: {e}")))?;
        let duration = start.elapsed();
        let fires: u64 = stage.rule_fires.values().sum();
        self.rule_budget_left = self.rule_budget_left.saturating_sub(fires);
        let changed = stage.plan != *plan;
        let validation_checks = self.validate(name, &stage, changed)?;
        let plan_after = (self.capture_snapshots && changed).then(|| explain(&stage.plan));
        self.applied_rules.extend(stage.fired.iter().cloned());
        self.notes.extend(stage.notes.iter().cloned());
        let (fixpoint_iterations, reached_fixpoint) = stage.fixpoint.unzip();
        let mut notes = stage.notes;
        notes.extend(stage.trace_notes);
        self.report.passes.push(PassTrace {
            name: name.to_string(),
            duration,
            changed,
            rule_fires: stage.rule_fires,
            fired: stage.fired,
            fixpoint_iterations,
            reached_fixpoint,
            plan_before,
            plan_after,
            notes,
            validation_checks,
        });
        Ok(stage.plan)
    }

    /// The validator's check count for a stage's output (`None` when validation is
    /// off), or the error naming the stage and the violation it introduced.
    fn validate(&mut self, name: &str, stage: &Stage, changed: bool) -> Result<Option<u64>> {
        if !self.validate {
            return Ok(None);
        }
        // An unchanged stage cannot have introduced a violation: the plan is identical
        // to the last validated one, so its check count carries over.
        if let (Some(checks), false) = (self.last_checks, changed) {
            return Ok(Some(checks));
        }
        let validation = validate_plan(&stage.plan, self.provider, self.registry);
        match validation.violations.first() {
            None => {
                self.last_checks = Some(validation.checks);
                Ok(Some(validation.checks))
            }
            Some(violation)
                if validate_plan(self.input, self.provider, self.registry).is_clean() =>
            {
                let rule = stage
                    .fired
                    .last()
                    .map(|r| format!(" (last rule fired: '{r}')"))
                    .unwrap_or_default();
                Err(Error::Rewrite(format!(
                    "plan validation failed after pass '{name}'{rule}: [{}] {violation}",
                    violation.name(),
                )))
            }
            Some(_) => {
                self.validate = false;
                Ok(None)
            }
        }
    }

    /// The outcome of a run that ends on `plan` without a decorrelated alternative.
    fn into_outcome(self, plan: RelExpr, iterative_plan: RelExpr) -> OptimizeOutcome {
        OptimizeOutcome {
            plan,
            iterative_plan,
            rewritten_plan: None,
            decorrelated: false,
            used_decorrelated_plan: false,
            merged_calls: 0,
            aux_aggregates: vec![],
            applied_rules: self.applied_rules,
            notes: self.notes,
            decision: None,
            report: self.report,
        }
    }
}

/// The auxiliary aggregates the merged forms call, one per call, as their UDFs'
/// registry records list them.
fn merged_aux_aggregates<'r>(
    registry: &'r FunctionRegistry,
    merged: &'r [String],
) -> impl Iterator<Item = &'r AggregateDefinition> {
    merged
        .iter()
        .filter_map(|udf| registry.record(udf))
        .flat_map(|record| &record.aux_aggregates)
        .filter_map(|name| registry.aggregate(name).ok())
}

// ----------------------------------------------------------------------- pass manager

/// Which stages a [`PassManager`] runs; each pipeline extends the one before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pipeline {
    /// `normalize` only.
    Cleanup,
    /// `normalize`, `algebraize-merge`, `apply-removal`, `cleanup`.
    Rewrite,
    /// The rewrite stages, then `strategy-choice`.
    Decorrelation,
}

/// Drives a plan through one of three pipelines, recording a [`PassTrace`] per stage.
/// With a [`PlanCache`] attached (see [`with_plan_cache`](PassManager::with_plan_cache)),
/// `optimize` first probes the cache and skips the pipeline entirely on a hit.
pub struct PassManager {
    pipeline: Pipeline,
    options: PassManagerOptions,
    cache: Option<Arc<PlanCache>>,
    feedback: Option<Arc<FeedbackStore>>,
}

impl PassManager {
    fn of(pipeline: Pipeline) -> PassManager {
        PassManager {
            pipeline,
            options: PassManagerOptions::default(),
            cache: None,
            feedback: None,
        }
    }

    /// Normalisation only — what every query (and every query inside a UDF body) goes
    /// through before iterative execution.
    pub fn cleanup_pipeline() -> PassManager {
        PassManager::of(Pipeline::Cleanup)
    }

    /// The full Figure-9 rewrite pipeline *without* the strategy choice: normalize,
    /// algebraize & merge, Apply removal, cleanup. This is the paper's standalone
    /// rewrite tool; the outcome's plan is the rewritten form whenever decorrelation
    /// succeeded.
    pub fn rewrite_pipeline() -> PassManager {
        PassManager::of(Pipeline::Rewrite)
    }

    /// The deployed pipeline: the rewrite pipeline followed by the cost-based strategy
    /// choice.
    pub fn decorrelation_pipeline() -> PassManager {
        PassManager::of(Pipeline::Decorrelation)
    }

    /// Sets the strategy-resolution mode.
    pub fn with_mode(mut self, mode: OptimizeMode) -> PassManager {
        self.options.mode = mode;
        self
    }

    /// Enables or disables per-stage before/after plan snapshots. Snapshot rendering is
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

    /// Forces per-stage plan validation on or off, overriding the build-profile
    /// default and the `DECORR_VALIDATE_PLANS` environment variable (see
    /// [`PassManagerOptions::validate_plans`]).
    pub fn with_validation(mut self, validate_plans: bool) -> PassManager {
        self.options.validate_plans = validate_plans;
        self
    }

    /// Attaches a shared [`PlanCache`]: `optimize` probes it before running any stage
    /// and stores the outcome on a miss. The cache key folds in the registry and
    /// catalog-DDL generations plus this pipeline's
    /// [fingerprint](PassManager::pipeline_fingerprint), so distinct pipelines sharing
    /// one cache never cross-serve.
    pub fn with_plan_cache(mut self, cache: Arc<PlanCache>) -> PassManager {
        self.cache = Some(cache);
        self
    }

    /// Attaches a runtime [`FeedbackStore`]: the strategy choice consults its learned
    /// UDF invocation costs, and (for cost-based pipelines) the store's generation
    /// becomes part of the plan-cache key, so newly learned costs make stale
    /// cost-based decisions unreachable.
    pub fn with_feedback(mut self, feedback: Arc<FeedbackStore>) -> PassManager {
        self.feedback = Some(feedback);
        self
    }

    /// True when this pipeline's outcome can depend on the feedback store: a
    /// cost-based strategy choice with a store attached. Feedback-blind pipelines
    /// (normalisation only, rewrite only, forced decorrelation) keep `None` in their
    /// cache context, so feedback-generation moves never invalidate their entries.
    fn consults_feedback(&self) -> bool {
        self.feedback.is_some()
            && self.options.mode == OptimizeMode::CostBased
            && self.pipeline == Pipeline::Decorrelation
    }

    /// Fingerprint of the pipeline and its options: which of the three pipelines this
    /// is plus every [`PassManagerOptions`] field. Part of the plan-cache key, so two
    /// pipelines that could produce different outcomes for the same plan never share an
    /// entry.
    pub fn pipeline_fingerprint(&self) -> u64 {
        let mut hasher = FnvHasher::new();
        hasher.write_u64(self.pipeline as u64);
        hasher.write_u64(self.options.mode as u64);
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
        // store the cold run's report (for EXPLAIN pipelines it holds per-stage plan
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

    /// The uncached pipeline: the stages of Figure 9 in order, as far as this
    /// manager's pipeline goes.
    fn run_pipeline(
        &self,
        plan: &RelExpr,
        registry: &FunctionRegistry,
        provider: &dyn SchemaProvider,
        catalog: Option<&Catalog>,
    ) -> Result<OptimizeOutcome> {
        let mut stages = Stages::new(plan, provider, registry, &self.options);

        // Normalisation: predicate pushdown, selection/projection merging. It runs first
        // so that even the iterative baseline executes reasonable plans (comma-syntax
        // joins become hash-joinable inner joins), like the systems the paper measures.
        let normalized = stages.run("normalize", plan, |fixpoint| {
            Ok(Stage::rules(fixpoint.run(
                plan,
                &RuleSet::cleanup_only(),
                provider,
            )?))
        })?;
        if self.pipeline == Pipeline::Cleanup {
            return Ok(stages.into_outcome(normalized.clone(), normalized));
        }

        // Algebraization and merging (Sections IV, V, VII): every UDF invocation whose
        // registry record holds an algebraic form is merged into the calling block with
        // the Apply (bind) operator. `normalized` stays the iterative baseline.
        let mut merged = vec![];
        let merged_plan = stages.run("algebraize-merge", &normalized, |_| {
            if !normalized.contains_udf_call() {
                return Ok(
                    Stage::plan(normalized.clone()).note("query invokes no user-defined functions")
                );
            }
            let outcome = merge_udf_calls(&normalized, registry)?;
            let mut stage = Stage::plan(outcome.plan);
            for (name, reason) in &outcome.skipped {
                stage = stage.note(format!(
                    "UDF '{name}' kept as an iterative invocation: {reason}"
                ));
            }
            merged = outcome.merged;
            if !merged.is_empty() {
                stage = stage.note(format!(
                    "merged {} UDF invocation(s), {} auxiliary aggregate(s)",
                    merged.len(),
                    merged_aux_aggregates(registry, &merged).count()
                ));
            }
            Ok(stage)
        })?;

        // Apply removal (Section VI): the K1–K6/R1–R9 rule set to fixpoint. Like the
        // paper's tool, a query some Apply operator cannot be removed from reverts to its
        // normalized original form, and iterative invocation remains its strategy.
        let mut decorrelated = false;
        let removed = stages.run("apply-removal", &merged_plan, |fixpoint| {
            if merged.is_empty() {
                return Ok(Stage::plan(merged_plan.clone()).note("no merged UDF invocations"));
            }
            let outcome = fixpoint.run(&merged_plan, &RuleSet::default_pipeline(), provider)?;
            let mut stage = Stage::rules(outcome);
            decorrelated = !stage.plan.contains_apply();
            if !decorrelated {
                stage.plan = normalized.clone();
                stage = stage.note(
                    "some Apply operators could not be removed; the query was left \
                     untransformed (iterative invocation remains the execution strategy)",
                );
            }
            Ok(stage)
        })?;

        // Cleanup: the normalisation rules again, so the flattened plan exposes
        // pushdown-ready predicates and merged projections to the executor, then the
        // dead columns of a flattened plan go: the merged bodies' placeholders for their
        // locals and the columns of the tables they read that nothing above names.
        let cleaned = stages.run("cleanup", &removed, |fixpoint| {
            let mut stage =
                Stage::rules(fixpoint.run(&removed, &RuleSet::cleanup_only(), provider)?);
            if decorrelated {
                let pruned = prune_dead_columns(&mut stage.plan);
                if pruned > 0 {
                    stage = stage.trace_note(format!("pruned {pruned} dead column(s)"));
                }
            }
            Ok(stage)
        })?;
        if stages.validate && decorrelated {
            // The pipeline claims full decorrelation: the rewritten plan must carry no
            // residual Apply-family operator.
            if let Some(violation) = check_decorrelated(&cleaned).first() {
                return Err(Error::Rewrite(format!(
                    "plan validation failed after pipeline: [{}] {violation}",
                    violation.name(),
                )));
            }
        }
        let rewritten_plan = decorrelated.then(|| cleaned.clone());

        // The strategy choice (Section IX). Without it, the rewrite tool returns the
        // rewritten form whenever decorrelation succeeded.
        let mut used_decorrelated_plan = decorrelated;
        let mut decision = None;
        let chosen = if self.pipeline == Pipeline::Decorrelation {
            stages.run("strategy-choice", &cleaned, |_| {
                let (stage, used, made) =
                    self.choose_strategy(&normalized, &cleaned, decorrelated, registry, catalog);
                used_decorrelated_plan = used;
                decision = made;
                Ok(stage)
            })?
        } else {
            cleaned
        };

        let aux_aggregates = if decorrelated {
            merged_aux_aggregates(registry, &merged).cloned().collect()
        } else {
            vec![]
        };
        Ok(OptimizeOutcome {
            rewritten_plan,
            decorrelated,
            used_decorrelated_plan,
            merged_calls: merged.len(),
            aux_aggregates,
            decision,
            ..stages.into_outcome(chosen, normalized)
        })
    }

    /// The cost-based choice between the iterative `baseline` and the `cleaned`
    /// rewrite (Section IX): the paper's point about registering the transformation
    /// rules inside a cost-based optimizer, so that iterative invocation remains an
    /// alternative (Experiment 3 shows a regime where it wins). Returns the stage,
    /// whether its plan is the decorrelated one, and the decision when one was made.
    fn choose_strategy(
        &self,
        baseline: &RelExpr,
        cleaned: &RelExpr,
        decorrelated: bool,
        registry: &FunctionRegistry,
        catalog: Option<&Catalog>,
    ) -> (Stage, bool, Option<StrategyDecision>) {
        if !decorrelated {
            let stage = Stage::plan(cleaned.clone())
                .note("no decorrelated alternative; executing the iterative plan");
            return (stage, false, None);
        }
        let catalog = match (self.options.mode, catalog) {
            (OptimizeMode::ForceDecorrelated, _) => {
                let stage =
                    Stage::plan(cleaned.clone()).note("decorrelated plan forced by options");
                return (stage, true, None);
            }
            (OptimizeMode::CostBased, None) => {
                let stage = Stage::plan(cleaned.clone())
                    .note("no catalog statistics available; defaulting to the decorrelated plan");
                return (stage, true, None);
            }
            (OptimizeMode::CostBased, Some(catalog)) => catalog,
        };
        let mut params = CostParams::new(self.options.parallelism);
        // Learned UDF invocation costs (runtime feedback) replace the static body
        // estimates — this is where a mispriced iterative plan gets re-decided with
        // measured numbers. Learned dedup fractions give effective invocation counts:
        // calls the dedup/memo runtime answers from cache cost nothing, so an iterative
        // plan over repetitive arguments is cheaper than its raw call count says.
        let mut learned_note = None;
        if let Some(feedback) = &self.feedback {
            params.learned = feedback.learned();
            // The note cites only what applies: the learned costs of the UDFs the
            // iterative plan invokes, not every entry in the store.
            let called = decorr_udf::analysis::plan_calls(baseline);
            let costs: Vec<String> = params
                .learned
                .iter()
                .filter(|(name, _)| called.contains(*name))
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
        let decision = choose_strategy_with(baseline, cleaned, catalog, registry, &params);
        let used = decision.choice == StrategyChoice::Decorrelated;
        let plan = if used { cleaned } else { baseline };
        let mut stage = Stage::plan(plan.clone()).note(decision.summary());
        if let Some(note) = learned_note {
            stage = stage.note(note);
        }
        (stage, used, Some(decision))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_algebra::display::explain;
    use decorr_algebra::schema::MapProvider;
    use decorr_algebra::{ProjectItem, ScalarExpr};
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

    /// `plan` under a projection of a column no input produces — the malformed output
    /// a botched rule would emit.
    fn dangling(plan: &RelExpr) -> RelExpr {
        RelExpr::Project {
            input: Box::new(plan.clone()),
            items: vec![ProjectItem {
                expr: ScalarExpr::column("no_such_column"),
                alias: Some("boom".into()),
            }],
            distinct: false,
        }
    }

    #[test]
    fn a_stage_that_breaks_a_clean_plan_fails_with_a_named_violation() {
        let registry = FunctionRegistry::new();
        let provider = provider();
        let options = PassManagerOptions {
            validate_plans: true,
            ..PassManagerOptions::default()
        };
        let clean = parse_and_plan("select custkey from customer").unwrap();
        let mut stages = Stages::new(&clean, &provider, &registry, &options);
        let err = stages
            .run("broken-for-test", &clean, |_| {
                Ok(Stage::plan(dangling(&clean)))
            })
            .expect_err("the validator must reject the dangling projection");
        assert_eq!(err.kind(), "rewrite");
        let message = err.to_string();
        assert!(
            message.contains("broken-for-test"),
            "error must name the offending stage: {message}"
        );
        assert!(
            message.contains("[unresolved-column]") && message.contains("no_such_column"),
            "error must name the violation: {message}"
        );

        // The same stage over an input that already had the violation is a user error,
        // not a rule bug: validation disarms and the stage is traced unvalidated.
        let dirty = dangling(&clean);
        let mut stages = Stages::new(&dirty, &provider, &registry, &options);
        stages
            .run("broken-for-test", &dirty, |_| {
                Ok(Stage::plan(dangling(&dirty)))
            })
            .expect("a dirty input disarms validation");
        assert!(!stages.validate);
        assert_eq!(stages.report.passes[0].validation_checks, None);
    }
}
