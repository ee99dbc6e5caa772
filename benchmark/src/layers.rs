//! The traced run: the engine's query pipeline rebuilt from outside, one call per
//! crate boundary, so each layer's time can be bracketed by a span without
//! instrumenting the program. `LayeredRunner` mirrors what `Session::query_with`
//! does — parse → plan → `PassManager::optimize` (with the engine's shared plan cache
//! and feedback store) → `Executor::execute` — and leaves out only the engine's own
//! glue (snapshot pinning, memo epochs, the feedback fold), which is what
//! `engine.query_overhead_us` then measures as the residual.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use udf_decorrelation::algebra::RelExpr;
use udf_decorrelation::common::{Error, Result, Row, SmallRng, Value};
use udf_decorrelation::engine::{Engine, ExecutionStrategy};
use udf_decorrelation::exec::{
    CatalogProvider, ExecConfig, ExecStats, Executor, UdfMemo, WorkerPool,
};
use udf_decorrelation::optimizer::{OptimizeMode, OptimizeOutcome, PassManager, PlanCache};
use udf_decorrelation::parser::{lexer, parse_function, parse_query, plan_select};
use udf_decorrelation::persist::{WalRecord, WalWriter};
use udf_decorrelation::storage::Table;

use crate::host::host_cores;
use crate::run::{exec_override, round, strategy_index, Outcome, Runner, Samples, SessionRunner};
use crate::spec::{Class, Op, Spec};
use crate::stats::{fast_decile, median};
use crate::trace::{Span, Tracer};

/// Capacity of the per-query dedup cache the engine attaches under `udf_batching`.
const UDF_DEDUP_CAPACITY: usize = 65_536;

/// Runs ops through the layered pipeline, recording one span per layer call under a
/// root span per op. With a disabled tracer it is the same pipeline without spans.
pub struct LayeredRunner {
    pub tracer: Tracer,
    exec_config: ExecConfig,
    /// `(class, strategy)` of each op, indexed by its query id.
    pub queries: Vec<(usize, ExecutionStrategy)>,
    /// The executor's counters for the latest op of each `(class, strategy)`.
    pub exec_stats: BTreeMap<(usize, usize), ExecStats>,
}

fn pass_manager_for(strategy: ExecutionStrategy) -> PassManager {
    match strategy {
        ExecutionStrategy::Iterative => PassManager::cleanup_pipeline(),
        ExecutionStrategy::Decorrelated => {
            PassManager::decorrelation_pipeline().with_mode(OptimizeMode::ForceDecorrelated)
        }
        ExecutionStrategy::Auto => PassManager::decorrelation_pipeline(),
    }
}

fn optimize(manager: &PassManager, engine: &Engine, plan: &RelExpr) -> Result<OptimizeOutcome> {
    let (catalog, registry) = (engine.catalog(), engine.registry());
    let provider = CatalogProvider::new(&catalog, &registry);
    manager.optimize(plan, &registry, &provider, Some(&catalog))
}

/// Builds the executor the engine would build for `outcome` and runs the plan.
fn execute(
    engine: &Engine,
    outcome: &OptimizeOutcome,
    config: &ExecConfig,
    pool: Arc<WorkerPool>,
) -> Result<(Vec<Row>, ExecStats)> {
    let mut registry = engine.registry();
    if !outcome.aux_aggregates.is_empty() {
        let mut with_aggregates = (*registry).clone();
        for aggregate in &outcome.aux_aggregates {
            with_aggregates.register_aggregate(aggregate.clone());
        }
        registry = Arc::new(with_aggregates);
    }
    let mut executor =
        Executor::with_config(engine.catalog(), registry, config.clone()).with_worker_pool(pool);
    if config.udf_batching {
        executor = executor.with_udf_dedup(Arc::new(UdfMemo::with_capacity(UDF_DEDUP_CAPACITY)));
    }
    let rows = executor.execute(&outcome.plan)?.rows;
    Ok((rows, executor.stats_snapshot()))
}

impl LayeredRunner {
    /// The engine's cross-query UDF memo is not reachable from outside, so the layered
    /// pipeline always runs with `udf_memoization` off; callers compare it against a
    /// `SessionRunner` configured the same way.
    pub fn new(spec: &Spec, traced: bool) -> LayeredRunner {
        LayeredRunner {
            tracer: Tracer::new(traced),
            exec_config: layered_exec_config(spec),
            queries: vec![],
            exec_stats: BTreeMap::new(),
        }
    }

    fn layered(
        &mut self,
        engine: &Engine,
        class: usize,
        op: &Op,
        strategy: ExecutionStrategy,
        query: u64,
    ) -> Result<(Vec<Row>, bool)> {
        let tracer = &mut self.tracer;
        if let Some(source) = &op.register {
            let span = tracer.begin("parser.udf_parse", query);
            let udf = parse_function(source);
            tracer.end(span);
            let span = tracer.begin("engine.register", query);
            let registered = udf.and_then(|udf| engine.register_udf_definition(udf));
            tracer.end(span);
            registered?;
        }
        let span = tracer.begin("parser.parse", query);
        let select = parse_query(&op.sql);
        tracer.end(span);
        let span = tracer.begin("parser.plan", query);
        let plan = select.and_then(|select| plan_select(&select));
        tracer.end(span);
        let plan = plan?;

        let span = tracer.begin("optimizer.optimize", query);
        let manager = pass_manager_for(strategy)
            .with_parallelism(self.exec_config.parallelism)
            .with_plan_cache(engine.plan_cache())
            .with_feedback(engine.feedback());
        let outcome = optimize(&manager, engine, &plan);
        tracer.end(span);
        let outcome = outcome?;
        if strategy == ExecutionStrategy::Decorrelated && !outcome.decorrelated {
            return Err(Error::Rewrite(format!(
                "query could not be decorrelated: {}",
                outcome.notes.join("; ")
            )));
        }

        let span = tracer.begin("exec.execute", query);
        let executed = execute(engine, &outcome, &self.exec_config, engine.worker_pool());
        tracer.end(span);
        let (rows, stats) = executed?;
        self.exec_stats
            .insert((class, strategy_index(strategy)), stats);
        Ok((rows, outcome.used_decorrelated_plan))
    }
}

impl Runner for LayeredRunner {
    fn run(
        &mut self,
        engine: &Engine,
        class: usize,
        op: &Op,
        strategy: ExecutionStrategy,
    ) -> Outcome {
        let query = self.queries.len() as u64;
        self.queries.push((class, strategy));
        let start = Instant::now();
        let root = self.tracer.begin("query", query);
        let result = self.layered(engine, class, op, strategy, query);
        self.tracer.end(root);
        Outcome {
            ms: start.elapsed().as_secs_f64() * 1e3,
            result,
        }
    }
}

fn layered_exec_config(spec: &Spec) -> ExecConfig {
    ExecConfig {
        udf_memoization: false,
        ..exec_override(spec).unwrap_or_default()
    }
}

/// Median of `reps` timings of `f`, in microseconds.
fn median_us<R>(reps: usize, mut f: impl FnMut() -> R) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            black_box(f());
            start.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&samples)
}

const PROBE_REPS: usize = 5;

/// A named per-layer value with its unit.
pub type Metric = (String, f64, &'static str);

/// Everything the traced run produced.
pub struct Traced {
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
    /// Verdicts of every op the traced run executed, whichever runner ran it.
    pub samples: Samples,
    /// Inserts the persist probe made durable, for the reopen check.
    pub probe_inserts: u64,
}

fn metric(name: &str, value: f64, unit: &'static str) -> Metric {
    (name.into(), value, unit)
}

/// Runs the workload's classes in blocks — with spans, without spans, and through
/// `Session` — until `deadline`, then probes each layer's public functions directly.
pub fn traced_run(
    spec: &Spec,
    base: &Engine,
    classes: &[Class],
    deadline: Instant,
    scratch: &Path,
) -> Traced {
    let mut traced = LayeredRunner::new(spec, true);
    let mut plain = LayeredRunner::new(spec, false);
    let mut session = SessionRunner {
        exec_config: Some(layered_exec_config(spec)),
    };
    let mut traced_samples = Samples::new(classes.len());
    let mut plain_samples = Samples::new(classes.len());
    let mut session_samples = Samples::new(classes.len());
    // One unrecorded block first: the untraced run warms up the same way.
    let mut warm_up = Samples::new(classes.len());
    round(
        base,
        spec,
        classes,
        &mut LayeredRunner::new(spec, false),
        &mut warm_up,
    );
    // `engine` is where the last pass ran: the loaded engine itself, or the fork that
    // holds every UDF the workload's ops register.
    let engine = loop {
        round(base, spec, classes, &mut traced, &mut traced_samples);
        round(base, spec, classes, &mut plain, &mut plain_samples);
        let engine = round(base, spec, classes, &mut session, &mut session_samples);
        if Instant::now() >= deadline {
            break engine;
        }
    };

    let probe = Probe {
        spec,
        base,
        engine: &engine,
        classes,
        top: classes.len() - 1,
        traced: &traced,
    };
    let mut metrics = probe.parser();
    metrics.extend(probe.optimizer_rewrite_analysis(&session_samples));
    metrics.extend(probe.exec());
    metrics.extend(probe.storage());
    let (persist, probe_inserts) = probe.persist(scratch);
    metrics.extend(persist);
    metrics.extend(probe.engine_and_trace(&traced_samples, &plain_samples, &session_samples));

    let mut samples = traced_samples;
    samples.merge(plain_samples);
    samples.merge(session_samples);
    samples.merge(warm_up);
    Traced {
        metrics,
        spans: traced.tracer.into_spans(),
        samples,
        probe_inserts,
    }
}

/// What the per-layer probes work on, after the traced rounds.
struct Probe<'a> {
    spec: &'a Spec,
    /// The loaded engine.
    base: &'a Engine,
    /// Where the last pass ran: `base`, or the fork with every op's UDF registered.
    engine: &'a Engine,
    classes: &'a [Class],
    top: usize,
    traced: &'a LayeredRunner,
}

impl Probe<'_> {
    fn top_op(&self) -> &Op {
        &self.classes[self.top].ops[0]
    }

    fn udf_sources(&self) -> Vec<&String> {
        let registered = self.classes.iter().flat_map(|c| &c.ops);
        self.spec
            .udfs
            .iter()
            .chain(registered.filter_map(|op| op.register.as_ref()))
            .collect()
    }

    /// Fast-decile duration, in microseconds, of the spans called `name` that belong to
    /// top-class ops run under `strategy`; 0 if there are none.
    fn span_us(&self, name: &str, strategy: ExecutionStrategy) -> f64 {
        let durations: Vec<f64> = self
            .traced
            .tracer
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .filter(|s| self.traced.queries[s.query_id as usize] == (self.top, strategy))
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect();
        if durations.is_empty() {
            0.0
        } else {
            fast_decile(&durations)
        }
    }

    fn parser(&self) -> Vec<Metric> {
        let lex_us = median_us(PROBE_REPS, || lexer::tokenize(&self.top_op().sql));
        let udf_parse: Vec<f64> = self
            .udf_sources()
            .iter()
            .map(|source| median_us(PROBE_REPS, || parse_function(source)))
            .collect();
        // `parse_query` tokenizes internally; the parse proper is what remains.
        let parse_us = self.span_us("parser.parse", ExecutionStrategy::Auto) - lex_us;
        vec![
            metric("parser.lex_us", lex_us, "us"),
            metric("parser.parse_us", parse_us.max(0.0), "us"),
            metric(
                "parser.plan_us",
                self.span_us("parser.plan", ExecutionStrategy::Auto),
                "us",
            ),
            metric("parser.udf_parse_us", median(&udf_parse), "us"),
        ]
    }

    /// Cold pipelines over the top query. Each pass's own duration comes from the
    /// `PipelineReport` the optimizer returns with the plan.
    fn optimizer_rewrite_analysis(&self, session: &Samples) -> Vec<Metric> {
        let plan = parse_query(&self.top_op().sql)
            .and_then(|select| plan_select(&select))
            .expect("top query parses");
        let pipeline = PassManager::decorrelation_pipeline().with_validation(false);
        let mut full_us = vec![];
        let mut pass_us: BTreeMap<String, Vec<f64>> = BTreeMap::new();
        let mut full = None;
        for _ in 0..PROBE_REPS {
            let start = Instant::now();
            let outcome = optimize(&pipeline, self.engine, &plan).expect("cold optimize");
            full_us.push(start.elapsed().as_secs_f64() * 1e6);
            for pass in &outcome.report.passes {
                pass_us
                    .entry(pass.name.clone())
                    .or_default()
                    .push(pass.duration.as_secs_f64() * 1e6);
            }
            full = Some(outcome);
        }
        let full = full.expect("PROBE_REPS is positive");
        let pass = |name: &str| pass_us.get(name).map_or(0.0, |samples| median(samples));
        let validated_us = median_us(PROBE_REPS, || {
            let validating = PassManager::decorrelation_pipeline().with_validation(true);
            optimize(&validating, self.engine, &plan).expect("validated optimize")
        });
        let cached = PassManager::decorrelation_pipeline()
            .with_validation(false)
            .with_plan_cache(Arc::new(PlanCache::new()));
        optimize(&cached, self.engine, &plan).expect("fill the probe's plan cache");
        let cache_hit_us = median_us(PROBE_REPS, || {
            optimize(&cached, self.engine, &plan).expect("cached optimize")
        });

        let mut metrics = vec![
            metric("optimizer.normalize_us", pass("normalize"), "us"),
            metric("optimizer.strategy_us", pass("strategy-choice"), "us"),
            metric("optimizer.cache_hit_us", cache_hit_us, "us"),
            metric(
                "optimizer.rule_fires",
                full.report.total_rule_fires() as f64,
                "count",
            ),
            metric(
                "optimizer.plan_cache_hit_rate",
                self.engine.plan_cache_stats().hit_rate(),
                "ratio",
            ),
        ];
        metrics.extend(decision_metrics(self.classes, session));
        metrics.extend([
            metric(
                "rewrite.pipeline_us",
                pass("algebraize-merge") + pass("apply-removal") + pass("cleanup"),
                "us",
            ),
            metric("rewrite.merged_calls", full.merged_calls as f64, "count"),
            metric(
                "rewrite.aux_aggregates",
                full.aux_aggregates.len() as f64,
                "count",
            ),
            metric(
                "analysis.validate_us",
                (validated_us - median(&full_us)).max(0.0),
                "us",
            ),
        ]);
        metrics
    }

    fn exec(&self) -> Vec<Metric> {
        let config = layered_exec_config(self.spec);
        let execute_us = |sql: &str, strategy, config: &ExecConfig, pool: &Arc<WorkerPool>| {
            let plan = parse_query(sql)
                .and_then(|select| plan_select(&select))
                .expect("probe query parses");
            let manager = pass_manager_for(strategy).with_parallelism(config.parallelism);
            let outcome = optimize(&manager, self.engine, &plan).expect("probe optimize");
            median_us(PROBE_REPS, || {
                execute(self.engine, &outcome, config, Arc::clone(pool)).expect("probe execute")
            })
        };
        let scan_filter_us = execute_us(
            &self.classes[self.top].twin_sql,
            ExecutionStrategy::Iterative,
            &config,
            &self.engine.worker_pool(),
        );
        let cores = host_cores();
        let decorr_par_us = execute_us(
            &self.top_op().sql,
            ExecutionStrategy::Decorrelated,
            &config.clone().with_parallelism(cores),
            &Arc::new(WorkerPool::new(if cores > 1 { cores } else { 0 })),
        );
        let iter_execute_us = self.span_us("exec.execute", ExecutionStrategy::Iterative);
        let stats_of = |strategy| {
            let key = (self.top, strategy_index(strategy));
            self.traced
                .exec_stats
                .get(&key)
                .cloned()
                .unwrap_or_default()
        };
        let iter_stats = stats_of(ExecutionStrategy::Iterative);
        let memo = self.engine.udf_memo_stats();
        let mut metrics = vec![
            metric("exec.iter_execute_ms", iter_execute_us / 1e3, "ms"),
            metric(
                "exec.decorr_execute_ms",
                self.span_us("exec.execute", ExecutionStrategy::Decorrelated) / 1e3,
                "ms",
            ),
            metric("exec.scan_filter_ms", scan_filter_us / 1e3, "ms"),
            metric(
                "exec.udf_call_us",
                (iter_execute_us - scan_filter_us).max(0.0)
                    / iter_stats.udf_invocations.max(1) as f64,
                "us",
            ),
            metric("exec.decorr_par_execute_ms", decorr_par_us / 1e3, "ms"),
            metric(
                "exec.memo_hit_rate",
                memo.hits as f64 / (memo.hits + memo.misses).max(1) as f64,
                "ratio",
            ),
        ];
        let arms = [
            ("iter", iter_stats),
            ("decorr", stats_of(ExecutionStrategy::Decorrelated)),
        ];
        for (arm, stats) in arms {
            let counts = [
                ("rows_scanned", stats.rows_scanned),
                ("index_lookups", stats.index_lookups),
                ("udf_invocations", stats.udf_invocations),
                ("hash_joins", stats.hash_joins),
                ("subqueries_executed", stats.subqueries_executed),
            ];
            for (counter, value) in counts {
                metrics.push((format!("exec.{arm}.{counter}"), value as f64, "count"));
            }
        }
        metrics
    }

    /// What `Session::query_with` adds to the layers it calls, and what recording
    /// spans adds to them.
    fn engine_and_trace(
        &self,
        traced: &Samples,
        plain: &Samples,
        session: &Samples,
    ) -> Vec<Metric> {
        let auto = ExecutionStrategy::Auto;
        let layers_us: f64 = [
            "parser.udf_parse",
            "engine.register",
            "parser.parse",
            "parser.plan",
            "optimizer.optimize",
            "exec.execute",
        ]
        .iter()
        .map(|name| self.span_us(name, auto))
        .sum();
        let session_top_us = fast_decile(&session.read_ms[self.top][strategy_index(auto)]) * 1e3;
        let fork = self.base.fork();
        let register: Vec<f64> = self
            .udf_sources()
            .iter()
            .map(|source| {
                median_us(1, || {
                    fork.register_function(source).expect("probe register")
                })
            })
            .collect();
        let total = |samples: &Samples| -> f64 {
            samples
                .read_ms
                .iter()
                .flatten()
                .map(|cell| fast_decile(cell))
                .sum()
        };
        let (with_spans, without_spans) = (total(traced), total(plain));
        vec![
            metric("engine.query_overhead_us", session_top_us - layers_us, "us"),
            metric("engine.register_udf_us", median(&register), "us"),
            metric(
                "trace.span_count",
                self.traced.tracer.spans().len() as f64,
                "spans",
            ),
            metric(
                "trace.overhead_frac",
                (with_spans - without_spans) / without_spans,
                "ratio",
            ),
            metric("host.cores", host_cores() as f64, "count"),
        ]
    }
}

/// Section IX as numbers: how often `Auto` ran the plan that measured faster, where
/// the two arms cross, and where `Auto` switches to the decorrelated plan.
fn decision_metrics(classes: &[Class], session: &Samples) -> Vec<Metric> {
    /// Arms within this share of each other count as a tie: either choice is right.
    const TIE_BAND: f64 = 0.05;
    let arm = |class: usize, strategy: ExecutionStrategy| {
        fast_decile(&session.read_ms[class][strategy_index(strategy)])
    };
    let mut picked_faster = 0usize;
    let mut decidable = 0usize;
    let mut crossover = 0.0;
    let mut auto_switch = 0.0;
    let mut previous: Option<(f64, f64)> = None;
    for (c, class) in classes.iter().enumerate() {
        if class.ops.iter().any(|op| op.declines) {
            continue;
        }
        let (iterative, decorrelated) = (
            arm(c, ExecutionStrategy::Iterative),
            arm(c, ExecutionStrategy::Decorrelated),
        );
        let (used, total) = session.auto_decorrelated[c];
        let auto_decorrelated = used * 2 > total;
        let tie = (iterative - decorrelated).abs() <= TIE_BAND * iterative.min(decorrelated);
        decidable += 1;
        picked_faster += usize::from(tie || auto_decorrelated == (decorrelated < iterative));
        if auto_switch == 0.0 && auto_decorrelated {
            auto_switch = class.invocations as f64;
        }
        // The arms cross where `iterative - decorrelated` changes sign between two
        // neighbouring classes; interpolate the invocation count linearly.
        let gap = iterative - decorrelated;
        if let Some((before_n, before_gap)) = previous {
            if crossover == 0.0 && before_gap < 0.0 && gap >= 0.0 {
                let n = class.invocations as f64;
                crossover = before_n + (n - before_n) * (-before_gap) / (gap - before_gap);
            }
        }
        previous = Some((class.invocations as f64, gap));
    }
    vec![
        (
            "optimizer.picked_faster_frac".into(),
            picked_faster as f64 / decidable.max(1) as f64,
            "ratio",
        ),
        (
            "optimizer.crossover_invocations".into(),
            crossover,
            "invocations",
        ),
        (
            "optimizer.auto_switch_invocations".into(),
            auto_switch,
            "invocations",
        ),
    ]
}

impl Probe<'_> {
    /// Direct calls into the storage crate on the workload's driving table, and the
    /// engine's non-durable write path on a fork.
    fn storage(&self) -> Vec<Metric> {
        let (spec, base) = (self.spec, self.base);
        let catalog = base.catalog();
        let table = catalog.table(spec.driving_table).expect("driving table");
        let rows = table.row_count();
        let scan_us = median_us(PROBE_REPS, || {
            table
                .scan()
                .iter()
                .filter(|row| matches!(row.get(0), Value::Int(_)))
                .count()
        });

        const LOOKUPS: usize = 100_000;
        let mut rng = SmallRng::seed_from_u64(spec.seed ^ 0x1D8);
        let keys: Vec<Value> = (0..LOOKUPS)
            .map(|_| Value::Int(rng.gen_range_i64_inclusive(1, rows.max(1) as i64)))
            .collect();
        let lookups_us = median_us(PROBE_REPS, || {
            keys.iter()
                .map(|key| {
                    table
                        .index_lookup(spec.driving_key, key)
                        .map_or(0, |hits| hits.len())
                })
                .sum::<usize>()
        });

        // Row copies are made up front: the load is timed, not the cloning.
        let mut copies: Vec<Vec<Row>> = (0..PROBE_REPS)
            .map(|_| table.scan().iter().cloned().collect())
            .collect();
        let mut rebuilt = None;
        let load_us = median_us(PROBE_REPS, || {
            let mut fresh = Table::new(spec.driving_table, table.schema().clone());
            fresh
                .insert_all(copies.pop().expect("one copy per repetition"))
                .expect("reload driving table");
            rebuilt = Some(fresh);
        });
        let fresh = rebuilt.expect("at least one repetition");
        let index_us = median_us(PROBE_REPS, || {
            let mut copy = fresh.clone();
            copy.create_index(spec.driving_key).expect("rebuild index");
            copy
        });

        // The engine's non-durable write path on a fork: single-row inserts (each a
        // clone-mutate-swap of the table), then an incremental ANALYZE after a batch.
        const SINGLE_INSERTS: u64 = 20;
        const ANALYZE_BATCH: u64 = 250;
        let fork = base.fork();
        let insert_us: Vec<f64> = (0..SINGLE_INSERTS)
            .map(|n| {
                let row = probe_row(spec, n);
                median_us(1, || {
                    fork.insert_rows("orders", vec![row.clone()])
                        .expect("probe insert")
                })
            })
            .collect();
        let analyze_us: Vec<f64> = (1..=3)
            .map(|batch| {
                let rows = (0..ANALYZE_BATCH)
                    .map(|n| probe_row(spec, batch * ANALYZE_BATCH + n))
                    .collect();
                fork.insert_rows("orders", rows)
                    .expect("probe batch insert");
                median_us(1, || fork.analyze_table("orders").expect("probe analyze"))
            })
            .collect();
        vec![
            (
                "storage.scan_mrows_s".into(),
                rows as f64 / scan_us,
                "Mrows/s",
            ),
            (
                "storage.index_lookup_ns".into(),
                lookups_us * 1e3 / LOOKUPS as f64,
                "ns",
            ),
            ("storage.insert_us".into(), median(&insert_us), "us"),
            ("storage.analyze_ms".into(), median(&analyze_us) / 1e3, "ms"),
            ("storage.load_s".into(), load_us / 1e6, "s"),
            ("storage.index_build_s".into(), index_us / 1e6, "s"),
        ]
    }

    /// The durability layer called directly: `WalWriter::append` of single-row insert
    /// records on a scratch log beside the engine's, then `Engine::checkpoint`. All
    /// zero, and no persist call made, on a workload without a `data_dir`.
    fn persist(&self, scratch: &Path) -> (Vec<Metric>, u64) {
        let (spec, base) = (self.spec, self.base);
        const APPENDS: u64 = 1_000;
        const REPLAYED: u64 = 50;
        let mut values = [0.0; 4];
        let mut inserted = 0;
        if spec.durable {
            let (mut wal, _) = WalWriter::open(scratch).expect("open probe WAL");
            let mut bytes = 0;
            let append_us: Vec<f64> = (0..APPENDS)
                .map(|n| {
                    let record = WalRecord::Insert {
                        table: "orders".into(),
                        rows: vec![probe_row(spec, n)],
                    };
                    median_us(1, || bytes += wal.append(&record).expect("probe append"))
                })
                .collect();
            let checkpoint = base.checkpoint().expect("probe checkpoint");
            values = [
                median(&append_us),
                bytes as f64 / APPENDS as f64,
                checkpoint.last_checkpoint_micros as f64 / 1e3,
                checkpoint.snapshot_bytes as f64 / base.catalog().total_rows().max(1) as f64,
            ];
            // Leave records in the engine's own WAL so the reopen replays something.
            for n in 0..REPLAYED {
                base.insert_rows("orders", vec![probe_row(spec, 1_000_000 + n)])
                    .expect("probe insert");
            }
            inserted = REPLAYED;
        }
        (
            vec![
                ("persist.wal_append_us".into(), values[0], "us"),
                ("persist.wal_bytes_per_row".into(), values[1], "bytes"),
                ("persist.checkpoint_ms".into(), values[2], "ms"),
                ("persist.snapshot_bytes_per_row".into(), values[3], "bytes"),
            ],
            inserted,
        )
    }
}

/// A full-width `orders` row keyed far above the generated rows and above the keys
/// the serving clients insert.
fn probe_row(spec: &Spec, n: u64) -> Row {
    Row::new(vec![
        Value::Int(i64::MAX / 2 + n as i64),
        Value::Int(spec.data.customers as i64),
        Value::Float(1_000.0 + n as f64),
        Value::Int(1999),
    ])
}
