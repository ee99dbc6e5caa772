//! Set-up, the two load drivers (single-client sweep, multi-client serving mix) and
//! the end-to-end metrics computed from their samples.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use udf_decorrelation::common::{Error, Row, SmallRng};
use udf_decorrelation::engine::{Engine, ExecutionStrategy, ExecutionSummary, QueryOptions};
use udf_decorrelation::exec::ExecConfig;
use udf_decorrelation::tpch;

use crate::oracle::check_rows;
use crate::spec::{Class, Op, Spec};
use crate::stats::{fast_decile, geomean, percentile};

/// Every read is issued under each strategy in turn, in this order.
pub const STRATEGIES: [ExecutionStrategy; 3] = [
    ExecutionStrategy::Auto,
    ExecutionStrategy::Iterative,
    ExecutionStrategy::Decorrelated,
];

pub fn strategy_index(strategy: ExecutionStrategy) -> usize {
    STRATEGIES
        .iter()
        .position(|s| *s == strategy)
        .expect("STRATEGIES lists every strategy")
}

/// The executor configuration a workload's queries run with: `None` is the engine
/// default; the fig arms switch the UDF invocation runtime off so every tuple pays the
/// call, as in the paper.
pub fn exec_override(spec: &Spec) -> Option<ExecConfig> {
    spec.plain_udf_runtime.then(|| ExecConfig {
        udf_batching: false,
        udf_memoization: false,
        ..ExecConfig::default()
    })
}

/// Generates and loads the data, builds the indexes, runs `ANALYZE` and registers the
/// workload's UDFs. A durable workload gets its engine on `data_dir`, which must be
/// empty, and one checkpoint that puts the loaded tables on disk.
pub fn load(spec: &Spec, data_dir: &Path) -> Engine {
    let mut db = tpch::generate(&spec.data).expect("data generation");
    db.analyze();
    let engine = if spec.durable {
        // The generator fills a private in-memory engine; hand its tables to a durable
        // one. Seeded tables bypass the WAL, so the checkpoint below makes them durable.
        Engine::builder()
            .catalog((*db.catalog()).clone())
            .data_dir(data_dir)
            .try_build()
            .expect("open durable engine")
    } else {
        db.engine().clone()
    };
    if spec.plain_udf_runtime {
        engine.set_udf_memo_capacity(0);
    }
    for udf in &spec.udfs {
        engine
            .register_function(udf)
            .expect("register workload UDF");
    }
    if spec.durable {
        engine.checkpoint().expect("initial checkpoint");
    }
    engine
}

/// What one op did.
pub struct Outcome {
    pub ms: f64,
    /// The rows, and whether the executed plan was the decorrelated one.
    pub result: Result<(Vec<Row>, bool), Error>,
}

/// Executes ops. The untraced run uses [`SessionRunner`]; the traced run adds runners
/// that rebuild the same pipeline layer by layer.
pub trait Runner {
    /// Runs one op of class number `class` under `strategy` on `engine`.
    fn run(
        &mut self,
        engine: &Engine,
        class: usize,
        op: &Op,
        strategy: ExecutionStrategy,
    ) -> Outcome;
}

/// SQL text in, rows out, through the public `Session` API: what a user gets.
pub struct SessionRunner {
    pub exec_config: Option<ExecConfig>,
}

impl Runner for SessionRunner {
    fn run(
        &mut self,
        engine: &Engine,
        _class: usize,
        op: &Op,
        strategy: ExecutionStrategy,
    ) -> Outcome {
        let options = QueryOptions {
            strategy,
            exec_config: self.exec_config.clone(),
            ..QueryOptions::default()
        };
        let session = engine.session();
        let start = Instant::now();
        let result = op
            .register
            .as_ref()
            .map_or(Ok(()), |udf| session.register_function(udf))
            .and_then(|()| session.query_with(&op.sql, &options));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        Outcome {
            ms,
            result: result.map(|r| (r.rows, r.used_decorrelated_plan)),
        }
    }
}

/// Failures described in the report; the rest are only counted.
const MAX_ERRORS: usize = 5;

/// Latencies and verdicts of one run.
#[derive(Debug, Clone)]
pub struct Samples {
    /// `[class][strategy]` read latencies in milliseconds.
    pub read_ms: Vec<[Vec<f64>; 3]>,
    /// Per class: `Auto` reads that executed the decorrelated plan, and all `Auto` reads.
    pub auto_decorrelated: Vec<(u64, u64)>,
    /// Latencies of the statements that are not reads, by kind: `insert`, `analyze`,
    /// `checkpoint`.
    pub statement_ms: BTreeMap<&'static str, Vec<f64>>,
    pub ops: u64,
    pub failed: u64,
    /// The first few failures, for the report.
    pub errors: Vec<String>,
}

impl Samples {
    pub fn new(classes: usize) -> Samples {
        Samples {
            read_ms: vec![Default::default(); classes],
            auto_decorrelated: vec![(0, 0); classes],
            statement_ms: BTreeMap::new(),
            ops: 0,
            failed: 0,
            errors: vec![],
        }
    }

    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < MAX_ERRORS {
            self.errors.push(what);
        }
    }

    /// Checks a read against the oracle and records it.
    pub fn record_read(
        &mut self,
        class: usize,
        strategy: ExecutionStrategy,
        op: &Op,
        outcome: Outcome,
    ) {
        self.ops += 1;
        self.read_ms[class][strategy_index(strategy)].push(outcome.ms);
        if strategy == ExecutionStrategy::Auto {
            let used_decorrelated = matches!(outcome.result, Ok((_, true)));
            self.auto_decorrelated[class].0 += u64::from(used_decorrelated);
            self.auto_decorrelated[class].1 += 1;
        }
        let must_decline = op.declines && strategy == ExecutionStrategy::Decorrelated;
        let verdict = match outcome.result {
            Err(e) if must_decline && e.kind() == "rewrite" => Ok(()),
            Err(e) => Err(format!("error: {e}")),
            Ok(_) if must_decline => Err("answered a query it must decline".into()),
            Ok((rows, _)) => check_rows(&rows, op.first_key, &op.cells),
        };
        if let Err(what) = verdict {
            self.fail(format!("{strategy:?} `{}`: {what}", op.sql));
        }
    }

    /// Records a statement that is not a read.
    fn record_statement(&mut self, kind: &'static str, ms: f64, result: Result<(), String>) {
        self.ops += 1;
        self.statement_ms.entry(kind).or_default().push(ms);
        if let Err(what) = result {
            self.fail(what);
        }
    }

    pub fn merge(&mut self, other: Samples) {
        for (mine, theirs) in self.read_ms.iter_mut().zip(other.read_ms) {
            for (m, t) in mine.iter_mut().zip(theirs) {
                m.extend(t);
            }
        }
        for (mine, theirs) in self
            .auto_decorrelated
            .iter_mut()
            .zip(other.auto_decorrelated)
        {
            mine.0 += theirs.0;
            mine.1 += theirs.1;
        }
        for (kind, theirs) in other.statement_ms {
            self.statement_ms.entry(kind).or_default().extend(theirs);
        }
        self.ops += other.ops;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(MAX_ERRORS);
    }
}

/// One round of the single-client sweep: three passes over the classes, rotating the
/// strategy so every (class, strategy) pair runs exactly once and no strategy always
/// follows the same neighbour. Returns the engine the last pass ran on.
pub fn round(
    base: &Engine,
    spec: &Spec,
    classes: &[Class],
    runner: &mut dyn Runner,
    samples: &mut Samples,
) -> Engine {
    let mut engine = base.clone();
    for pass in 0..STRATEGIES.len() {
        if spec.fork_each_pass {
            engine = base.fork();
        }
        for (c, class) in classes.iter().enumerate() {
            let strategy = STRATEGIES[(pass + c) % STRATEGIES.len()];
            for op in &class.ops {
                let outcome = runner.run(&engine, c, op, strategy);
                samples.record_read(c, strategy, op, outcome);
            }
        }
    }
    engine
}

/// Rounds until `deadline` has passed, and at least one.
pub fn sweep(
    base: &Engine,
    spec: &Spec,
    classes: &[Class],
    runner: &mut dyn Runner,
    deadline: Instant,
    samples: &mut Samples,
) {
    loop {
        round(base, spec, classes, runner, samples);
        if Instant::now() >= deadline {
            return;
        }
    }
}

/// Keys of rows the benchmark inserts start here, far above the generated ones.
const INSERTED_ORDERKEY_BASE: i64 = 10_000_000;
const INSERTED_ORDERKEY_STRIDE: i64 = 1_000_000_000;

/// The `n`-th single-row insert of `client`. Its `custkey` lies in the upper half of
/// the customers, above every key the reads ask about, so read answers stay checkable
/// while the table's data version, indexes and statistics all move.
fn insert_statement(spec: &Spec, client: usize, n: u64) -> String {
    let half = (spec.data.customers / 2) as u64;
    let orderkey = INSERTED_ORDERKEY_BASE + client as i64 * INSERTED_ORDERKEY_STRIDE + n as i64;
    let custkey = half + 1 + n % half;
    let totalprice = 1_000.0 + (n % 977) as f64 * 0.25;
    format!("insert into orders values ({orderkey}, {custkey}, {totalprice:?}, 1999)")
}

fn timed_insert(engine: &Engine, sql: &str) -> (f64, Result<(), String>) {
    let session = engine.session();
    let start = Instant::now();
    let result = session.execute(sql);
    let ms = start.elapsed().as_secs_f64() * 1e3;
    let verdict = match result {
        Ok(summary) if summary == [ExecutionSummary::RowsInserted(1)] => Ok(()),
        Ok(summary) => Err(format!("`{sql}`: unexpected summary {summary:?}")),
        Err(e) => Err(format!("`{sql}`: {e}")),
    };
    (ms, verdict)
}

/// Single-row inserts a fork of the engine takes in `write_tail` before the next fork
/// replaces it: the table never grows by more than this, so every insert is timed at
/// (almost) the loaded table size.
const TAIL_WRITES_PER_FORK: usize = 50;

/// Times `spec.tail_writes` single-row inserts after the read window, on forks of the
/// engine. They touch no row a read returned, and nothing is read after them.
pub fn write_tail(engine: &Engine, spec: &Spec, samples: &mut Samples) {
    let mut fork = engine.fork();
    for n in 0..spec.tail_writes {
        if n > 0 && n % TAIL_WRITES_PER_FORK == 0 {
            fork = engine.fork();
        }
        let (ms, verdict) = timed_insert(&fork, &insert_statement(spec, 0, n as u64));
        samples.record_statement("insert", ms, verdict);
    }
}

/// Reads of each (class, strategy) pair in one serving round of one client, for a
/// class the inserts do not invalidate and for one they do. With six classes, half of
/// each kind, a round is 81 + 18 reads and 18 inserts: 15 % of its ops are writes.
const SERVE_READS_PER_PAIR: usize = 9;
const SERVE_READS_AFTER_INSERT_PER_PAIR: usize = 2;
/// Client 0 checkpoints after every this many of its rounds.
const SERVE_ROUNDS_PER_CHECKPOINT: u64 = 4;

/// One step of a serving round: a read, preceded by a single-row insert or not.
#[derive(Clone, Copy, PartialEq, Debug)]
struct ServeOp {
    insert_first: bool,
    class: usize,
    strategy: ExecutionStrategy,
}

/// The fixed multiset of one client's round, in a seeded order.
///
/// A read whose UDF reads `orders` always comes right after an insert into `orders`,
/// so the cross-query memo never serves it; the other reads are never invalidated by
/// an insert, so after warm-up the memo always serves them. A shuffled mix of the two
/// would make each latency flip between a memo hit and a full recomputation on the
/// timing of the other client's writes, and no median of that is steady.
fn serve_schedule(classes: &[Class], seed: u64, client: usize) -> Vec<ServeOp> {
    let mut ops = vec![];
    for (class, definition) in classes.iter().enumerate() {
        let insert_first = definition.reads_written_table;
        let repeats = if insert_first {
            SERVE_READS_AFTER_INSERT_PER_PAIR
        } else {
            SERVE_READS_PER_PAIR
        };
        for strategy in STRATEGIES {
            ops.extend(vec![
                ServeOp {
                    insert_first,
                    class,
                    strategy
                };
                repeats
            ]);
        }
    }
    let mut rng = SmallRng::seed_from_u64(seed ^ (0x5E21_E000 + client as u64));
    for i in (1..ops.len()).rev() {
        ops.swap(i, rng.gen_range_usize(0, i + 1));
    }
    ops
}

/// The serving mix: `spec.clients` closed-loop sessions on one engine, each repeating
/// its seeded round (reads under every strategy, some right after a single-row insert) until the
/// deadline; client 0 also runs `ANALYZE orders` after each of its rounds and a
/// checkpoint after every fourth. Returns the samples and the inserts acknowledged.
pub fn serve(engine: &Engine, spec: &Spec, classes: &[Class], deadline: Instant) -> (Samples, u64) {
    let results: Vec<(Samples, u64)> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..spec.clients)
            .map(|client| {
                scope.spawn(move || {
                    let schedule = serve_schedule(classes, spec.seed, client);
                    let mut runner = SessionRunner {
                        exec_config: exec_override(spec),
                    };
                    let mut samples = Samples::new(classes.len());
                    let mut inserted = 0u64;
                    let mut rounds = 0u64;
                    loop {
                        for step in &schedule {
                            if step.insert_first {
                                let sql = insert_statement(spec, client, inserted);
                                let (ms, verdict) = timed_insert(engine, &sql);
                                inserted += u64::from(verdict.is_ok());
                                samples.record_statement("insert", ms, verdict);
                            }
                            let op = &classes[step.class].ops[0];
                            let outcome = runner.run(engine, step.class, op, step.strategy);
                            samples.record_read(step.class, step.strategy, op, outcome);
                        }
                        rounds += 1;
                        if client == 0 {
                            let start = Instant::now();
                            let analyzed = engine.session().execute("analyze orders");
                            let ms = start.elapsed().as_secs_f64() * 1e3;
                            samples.record_statement(
                                "analyze",
                                ms,
                                analyzed.map(drop).map_err(|e| format!("analyze: {e}")),
                            );
                            if rounds.is_multiple_of(SERVE_ROUNDS_PER_CHECKPOINT) {
                                let start = Instant::now();
                                let checkpoint = engine.checkpoint();
                                let ms = start.elapsed().as_secs_f64() * 1e3;
                                samples.record_statement(
                                    "checkpoint",
                                    ms,
                                    checkpoint.map(drop).map_err(|e| format!("checkpoint: {e}")),
                                );
                            }
                        }
                        if Instant::now() >= deadline {
                            return (samples, inserted);
                        }
                    }
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("serving client panicked"))
            .collect()
    });
    let mut merged = Samples::new(classes.len());
    let mut acknowledged = 0;
    for (samples, inserted) in results {
        merged.merge(samples);
        acknowledged += inserted;
    }
    (merged, acknowledged)
}

/// What reopening a durable workload's `data_dir` found.
#[derive(Debug, Default)]
pub struct Reopened {
    /// Acknowledged inserts that are not in `orders`.
    pub missing: u64,
    pub restore_ms: f64,
    pub replayed_records: u64,
}

/// Reopens `data_dir` after the engine that wrote it is gone and looks for every
/// acknowledged insert.
pub fn reopen(data_dir: &Path, acknowledged: u64) -> Result<Reopened, String> {
    let start = Instant::now();
    let reopened = Engine::builder()
        .data_dir(data_dir)
        .try_build()
        .map_err(|e| format!("reopen: {e}"))?;
    let restore_ms = start.elapsed().as_secs_f64() * 1e3;
    let catalog = reopened.catalog();
    let orders = catalog
        .table("orders")
        .map_err(|e| format!("reopen: {e}"))?;
    let present = orders
        .scan()
        .iter()
        .filter(|row| {
            row.get(0)
                .as_int()
                .is_ok_and(|k| k >= INSERTED_ORDERKEY_BASE)
        })
        .count() as u64;
    Ok(Reopened {
        missing: acknowledged.saturating_sub(present),
        restore_ms,
        replayed_records: reopened.persist_stats().wal_records_replayed,
    })
}

/// The paper's figure as a table on stderr: per class, the fast-decile latency of each
/// arm and how often `Auto` ran the decorrelated plan; then the distribution of all
/// `Auto` reads as a user on this host saw it, interference included.
pub fn print_sweep(classes: &[Class], samples: &Samples) {
    eprintln!(
        "{:>12} {:>12} {:>12} {:>12} {:>18}",
        "invocations", "iter ms", "decorr ms", "auto ms", "auto decorrelated"
    );
    for (c, class) in classes.iter().enumerate() {
        let [auto, iterative, decorrelated] = &samples.read_ms[c];
        let (used, total) = samples.auto_decorrelated[c];
        eprintln!(
            "{:>12} {:>12.3} {:>12.3} {:>12.3} {:>12}/{}",
            class.invocations,
            fast_decile(iterative),
            fast_decile(decorrelated),
            fast_decile(auto),
            used,
            total
        );
    }
    let mut auto_reads: Vec<f64> = samples
        .read_ms
        .iter()
        .flat_map(|by_strategy| {
            by_strategy[strategy_index(ExecutionStrategy::Auto)]
                .iter()
                .copied()
        })
        .collect();
    auto_reads.sort_by(f64::total_cmp);
    eprintln!(
        "auto reads: {} samples, p50 {:.3} ms, p95 {:.3} ms",
        auto_reads.len(),
        percentile(&auto_reads, 0.50),
        percentile(&auto_reads, 0.95)
    );
}

/// The end-to-end metrics every workload reports, in `BENCHMARK.json` order (without
/// `setup_s` and `peak_rss_mb`, which the caller measures around the run). Latencies
/// are fast deciles: see [`fast_decile`].
pub fn end_to_end(spec: &Spec, classes: &[Class], samples: &Samples) -> Vec<(&'static str, f64)> {
    let cell = |class: usize, strategy: ExecutionStrategy| {
        fast_decile(&samples.read_ms[class][strategy_index(strategy)])
    };
    let top = classes.len() - 1;
    let iter_top = cell(top, ExecutionStrategy::Iterative);
    let decorr_top = cell(top, ExecutionStrategy::Decorrelated);
    // Auto against the faster forced arm, per class; a class the rewriter must decline
    // has only the iterative arm to compare with.
    let ratios: Vec<f64> = classes
        .iter()
        .enumerate()
        .map(|(c, class)| {
            let iterative = cell(c, ExecutionStrategy::Iterative);
            let best = if class.ops.iter().any(|op| op.declines) {
                iterative
            } else {
                iterative.min(cell(c, ExecutionStrategy::Decorrelated))
            };
            cell(c, ExecutionStrategy::Auto) / best
        })
        .collect();
    // The rate at which the measured mix would complete if every op took the fast
    // decile of its kind, on every client at once. The write tail of a workload that
    // does not serve writes beside its reads is not part of its mix.
    let reads = samples.read_ms.iter().flatten();
    let statements = samples.statement_ms.values().filter(|_| spec.durable);
    let (mut ops, mut seconds) = (0, 0.0);
    for kind in reads.chain(statements) {
        ops += kind.len();
        seconds += kind.len() as f64 * fast_decile(kind) / 1e3;
    }
    vec![
        ("iter_top_ms", iter_top),
        ("decorr_top_ms", decorr_top),
        ("auto_top_ms", cell(top, ExecutionStrategy::Auto)),
        ("auto_low_ms", cell(0, ExecutionStrategy::Auto)),
        ("speedup_top", iter_top / decorr_top),
        ("auto_vs_best", geomean(&ratios)),
        ("write_ms", fast_decile(&samples.statement_ms["insert"])),
        (
            "throughput_ops_s",
            ops as f64 / seconds * spec.clients as f64,
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{Cell, Facts};
    use crate::spec::Workload;
    use udf_decorrelation::tpch::TpchConfig;

    /// The three experiments on `TpchConfig::tiny()`, every class under every strategy.
    fn tiny_round(workload: Workload, tamper: bool) -> Samples {
        let mut spec = Spec::new(workload, 7, true);
        spec.data = TpchConfig::tiny();
        spec.points = vec![3, 8];
        let engine = load(&spec, Path::new("unused: not durable"));
        let mut classes = spec.classes(&Facts::read(&engine.catalog()));
        if tamper {
            classes[1].ops[0].cells[2] = Cell::Text("not what the engine says".into());
        }
        let mut samples = Samples::new(classes.len());
        let mut runner = SessionRunner {
            exec_config: exec_override(&spec),
        };
        round(&engine, &spec, &classes, &mut runner, &mut samples);
        assert_eq!(samples.ops, (classes.len() * STRATEGIES.len()) as u64);
        samples
    }

    #[test]
    fn oracle_agrees_with_the_engine_under_every_strategy() {
        for workload in [
            Workload::Fig10Lookup,
            Workload::Fig11Agg,
            Workload::Fig12Cursor,
        ] {
            let samples = tiny_round(workload, false);
            assert_eq!(
                samples.failed,
                0,
                "{}: {:?}",
                workload.name(),
                samples.errors
            );
            // Both plans really ran: the forced arms are not Auto in disguise.
            assert!(samples
                .read_ms
                .iter()
                .all(|class| class.iter().all(|arm| arm.len() == 1)));
        }
    }

    #[test]
    fn a_wrong_expected_value_fails_every_strategy() {
        let samples = tiny_round(Workload::Fig11Agg, true);
        assert_eq!(
            samples.failed,
            STRATEGIES.len() as u64,
            "{:?}",
            samples.errors
        );
    }

    #[test]
    fn serving_schedule_is_a_seeded_permutation_of_a_fixed_mix() {
        let mut spec = Spec::new(Workload::ServeMixed, 42, true);
        spec.durable = false;
        let engine = load(&spec, Path::new("unused: not durable"));
        let classes = spec.classes(&Facts::read(&engine.catalog()));
        let schedule = serve_schedule(&classes, 42, 0);
        let inserts = schedule.iter().filter(|op| op.insert_first).count();
        assert_eq!(
            inserts,
            3 * STRATEGIES.len() * SERVE_READS_AFTER_INSERT_PER_PAIR
        );
        assert_eq!(
            schedule.len() - inserts,
            3 * STRATEGIES.len() * SERVE_READS_PER_PAIR
        );
        let share = inserts as f64 / (schedule.len() + inserts) as f64;
        assert!(
            (0.14..0.16).contains(&share),
            "writes are {share} of the ops"
        );
        assert!(schedule
            .iter()
            .all(|op| op.insert_first == classes[op.class].reads_written_table));
        assert_eq!(schedule, serve_schedule(&classes, 42, 0));
        assert_ne!(schedule, serve_schedule(&classes, 43, 0));
        assert_ne!(schedule, serve_schedule(&classes, 42, 1));
    }
}
