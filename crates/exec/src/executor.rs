//! Execution of logical plans. Every operator hands its row loop to the morsel driver
//! ([`Executor::run_morsels`]) as one job that borrows the plan, the schemas and the
//! outer environment from the calling frame: an input within one morsel (always, at
//! `parallelism == 1`) runs that job inline as the single morsel `0..len`, a larger one
//! fans it out over scoped helper threads. Filters and projections have a single
//! implementation, the chain runner (`Executor::execute_chain`), which streams each
//! base row through every adjacent filter/project layer in one pass.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use decorr_algebra::schema::{aggregate_schema, infer_schema, project_schema};
use decorr_algebra::{
    AggCall, AggFunc, ApplyKind, BinaryOp, ColumnRef, JoinKind, ProjectItem, RelExpr, ScalarExpr,
};
use decorr_common::{normalize_ident, value::GroupKey, Error, Result, Row, Schema, Value};
use decorr_storage::{Catalog, HashIndex, RowStore, Table};
use decorr_udf::{FunctionRegistry, LearnedUdf, UdfRuntime};

use crate::aggregate::BuiltinAccumulator;
use crate::env::Env;
use crate::memo::{MemoEpoch, UdfCaches, UdfMemo};
use crate::parallel::{label, MorselOutput, WorkerPool};
use crate::stats::{
    AtomicExecStats, CardinalityCollector, ExecTrace, NodeCardinality, TraceCollector,
    UdfRuntimeCollector,
};
use crate::CatalogProvider;

pub use crate::stats::ExecStats;

/// Minimum combined input size (rows) before an equi-join is executed as a hash join
/// instead of a nested-loop join. This mirrors the plan switches the paper observes
/// between 1K and 10K invocations in Experiment 2.
pub const HASH_JOIN_THRESHOLD: usize = 64;

/// Execution-time configuration knobs.
#[derive(Debug, Clone)]
pub struct ExecConfig {
    /// Threads per operator for morsel-driven parallel execution. `1` (the default)
    /// keeps every operator inline on the calling thread; `n > 1` lets scans,
    /// filter/project chains, hash joins, hash aggregation and the Apply family fan
    /// morsels out to up to `n` scoped helper threads, as far as the engine's helper
    /// budget allows. Parallel runs produce byte-identical results to serial
    /// runs (morsel outputs merge in morsel order and aggregation partitions by group
    /// key, preserving per-group accumulation order).
    ///
    /// Values are clamped to `≥ 1` by [`Executor::with_config`] /
    /// [`ExecConfig::normalized`].
    pub parallelism: usize,
    /// Rows per morsel. An operator goes parallel only when its input spans more than
    /// one morsel, so small inputs never pay the fan-out overhead. Clamped to `≥ 1`
    /// (a zero morsel size must not degenerate into per-row tasks).
    pub morsel_size: usize,
    /// Record the actual output cardinality of every executed plan node (keyed by the
    /// node's structural fingerprint) into the executor's
    /// [`CardinalityCollector`]. Off by default: this is the estimate-vs-actual
    /// diagnostic used by `EXPLAIN ANALYZE` and the accuracy tests, and fingerprinting
    /// every node would tax the hot path.
    pub collect_cardinalities: bool,
    /// Attach the per-query dedup tier: a pure UDF evaluates each distinct argument
    /// tuple once per query, and workers racing on one tuple coalesce onto a single
    /// evaluation through the tier's reservation protocol. The engine builds the tier
    /// only when this is on. Results are byte-identical either way; this only changes
    /// how many times a pure UDF body runs.
    pub udf_batching: bool,
    /// Cross-query memoization of pure-UDF results through the database-owned memo
    /// cache. The engine attaches the memo only when this is on.
    pub udf_memoization: bool,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            parallelism: 1,
            morsel_size: 1024,
            collect_cardinalities: false,
            udf_batching: true,
            udf_memoization: true,
        }
    }
}

impl ExecConfig {
    /// Returns this configuration with the threads per operator set (builder style).
    pub fn with_parallelism(mut self, parallelism: usize) -> ExecConfig {
        self.parallelism = parallelism.max(1);
        self
    }

    /// Returns this configuration with out-of-range knobs clamped into their valid
    /// domains (`parallelism ≥ 1`, `morsel_size ≥ 1`). Every executor applies this at
    /// construction, so a degenerate literal like `ExecConfig { morsel_size: 0, .. }`
    /// cannot push `should_parallelize` into one-row-morsel behaviour.
    pub fn normalized(mut self) -> ExecConfig {
        self.parallelism = self.parallelism.max(1);
        self.morsel_size = self.morsel_size.max(1);
        self
    }
}

/// A fully materialised query result.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultSet {
    pub schema: Schema,
    pub rows: Vec<Row>,
}

impl ResultSet {
    pub fn empty(schema: Schema) -> ResultSet {
        ResultSet {
            schema,
            rows: vec![],
        }
    }

    pub fn len(&self) -> usize {
        self.rows.len()
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The single value of a 1×1 result (scalar queries).
    pub fn scalar(&self) -> Result<Value> {
        match self.rows.len() {
            0 => Ok(Value::Null),
            1 => Ok(self.rows[0].values.first().cloned().unwrap_or(Value::Null)),
            n => Err(Error::Execution(format!("scalar query returned {n} rows"))),
        }
    }

    /// Values of the named column, in row order.
    pub fn column(&self, name: &str) -> Result<Vec<Value>> {
        let idx = self.schema.index_of(None, name)?;
        Ok(self.rows.iter().map(|r| r.get(idx).clone()).collect())
    }

    /// A canonical representation for order-insensitive comparisons in tests: rows
    /// rendered as strings and sorted.
    pub fn canonical(&self) -> Vec<String> {
        let mut out: Vec<String> = self.rows.iter().map(|r| r.to_string()).collect();
        out.sort();
        out
    }

    /// Like [`ResultSet::canonical`], but projecting only the named columns (used to
    /// compare results of plans whose column order differs).
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

/// The executor: evaluates logical plans against a catalog and function registry.
///
/// The executor holds `Arc` handles to its catalog and registry because the engine
/// hands it a pinned snapshot of both that must outlive concurrent writers, and to its
/// collectors because a fanned-out dispatch evaluates through a serial *view* of the
/// executor that shares them. It is `Sync`: its only shared mutable state is the
/// lock-free [`AtomicExecStats`] and the locked collectors, so the threads of a
/// dispatch evaluate through `&Executor` concurrently and borrow everything else.
pub struct Executor {
    pub catalog: Arc<Catalog>,
    pub registry: Arc<FunctionRegistry>,
    pub config: ExecConfig,
    pub stats: Arc<AtomicExecStats>,
    pub(crate) trace: Arc<TraceCollector>,
    /// Per-node actual cardinalities (populated when
    /// `ExecConfig::collect_cardinalities` is on).
    pub(crate) cardinalities: Arc<CardinalityCollector>,
    /// One runtime record per invoked UDF: evaluations and their wall clock, cache
    /// hits, filter outcomes (always on; the engine's feedback loop reads it after every
    /// query).
    pub(crate) udf_runtime: Arc<UdfRuntimeCollector>,
    /// The result caches a pure-UDF call consults: the engine-owned cross-query memo
    /// with this query's per-UDF epochs, and the per-query dedup tier.
    pub(crate) udf_caches: UdfCaches,
    /// What the engine's feedback store has learned per UDF; the mean evaluation cost
    /// and the pass rate order the UDF conjuncts of filters.
    pub(crate) udf_hints: Arc<BTreeMap<String, LearnedUdf>>,
    /// The helper-thread budget fanned-out operators lease from: the engine's, shared
    /// by every session's queries, when attached; otherwise this executor's own.
    pub(crate) pool: Arc<WorkerPool>,
}

impl Executor {
    pub fn new(catalog: Arc<Catalog>, registry: Arc<FunctionRegistry>) -> Executor {
        Executor::with_config(catalog, registry, ExecConfig::default())
    }

    pub fn with_config(
        catalog: Arc<Catalog>,
        registry: Arc<FunctionRegistry>,
        config: ExecConfig,
    ) -> Executor {
        Executor {
            catalog,
            registry,
            config: config.normalized(),
            stats: Arc::new(AtomicExecStats::default()),
            trace: Arc::new(TraceCollector::default()),
            cardinalities: Arc::new(CardinalityCollector::default()),
            udf_runtime: Arc::default(),
            udf_caches: UdfCaches::default(),
            udf_hints: Arc::new(BTreeMap::new()),
            pool: Arc::default(),
        }
    }

    /// Attaches a shared helper budget (builder style). The engine calls this with its
    /// own pool so concurrent queries together stay within one budget; an executor
    /// without one is bounded only by its own `parallelism`.
    pub fn with_worker_pool(mut self, pool: Arc<WorkerPool>) -> Executor {
        self.pool = pool;
        self
    }

    /// Attaches the engine-owned cross-query memo cache (builder style). Entries are
    /// epoch-stamped, so pair this with [`with_memo_epochs`](Executor::with_memo_epochs)
    /// when registry/catalog state can change between queries.
    pub fn with_udf_memo(mut self, memo: Arc<UdfMemo>) -> Executor {
        self.udf_caches.memo = Some(memo);
        self
    }

    /// Attaches the per-UDF memo epochs computed from this query's pinned
    /// catalog/registry snapshot (builder style). A UDF absent from the map uses
    /// [`NO_EPOCH`](crate::memo::NO_EPOCH) — the standalone-executor case where
    /// nothing mutates.
    pub fn with_memo_epochs(mut self, epochs: Arc<BTreeMap<String, MemoEpoch>>) -> Executor {
        self.udf_caches.memo_epochs = epochs;
        self
    }

    /// Attaches a per-query dedup cache (builder style): repeated pure-UDF argument
    /// tuples within this execution evaluate once.
    pub fn with_udf_dedup(mut self, dedup: Arc<UdfMemo>) -> Executor {
        self.udf_caches.dedup = Some(dedup);
        self
    }

    /// Attaches what the feedback loop has learned per UDF, for cost-ordered predicate
    /// evaluation (builder style). A number not learned yet ranks with the filter's
    /// default.
    pub fn with_udf_hints(mut self, hints: Arc<BTreeMap<String, LearnedUdf>>) -> Executor {
        self.udf_hints = hints;
        self
    }

    /// A serial view of this executor for the threads of one dispatch: same catalog,
    /// registry, counters and trace, but `parallelism = 1` so plan execution *inside* a
    /// morsel (Apply inner plans, subqueries, UDF bodies) never fans out again.
    pub(crate) fn worker_view(&self) -> Executor {
        Executor {
            catalog: Arc::clone(&self.catalog),
            registry: Arc::clone(&self.registry),
            config: ExecConfig {
                parallelism: 1,
                ..self.config.clone()
            },
            stats: Arc::clone(&self.stats),
            trace: Arc::clone(&self.trace),
            cardinalities: Arc::clone(&self.cardinalities),
            udf_runtime: Arc::clone(&self.udf_runtime),
            udf_caches: self.udf_caches.clone(),
            udf_hints: Arc::clone(&self.udf_hints),
            pool: Arc::clone(&self.pool),
        }
    }

    pub fn provider(&self) -> CatalogProvider<'_> {
        CatalogProvider::new(&self.catalog, &self.registry)
    }

    /// A snapshot of the runtime counters.
    pub fn stats_snapshot(&self) -> ExecStats {
        self.stats.snapshot()
    }

    /// A snapshot of the per-operator execution trace (morsels dispatched, per-worker
    /// row spread, wall clock) — the execution-side mirror of the optimizer's per-pass
    /// report. Empty for fully serial executions.
    pub fn trace_snapshot(&self) -> ExecTrace {
        self.trace.snapshot()
    }

    /// The per-node actual cardinalities recorded while
    /// `ExecConfig::collect_cardinalities` was on (empty otherwise).
    pub fn cardinality_snapshot(&self) -> Vec<NodeCardinality> {
        self.cardinalities.snapshot()
    }

    /// The runtime record of every UDF this executor invoked, in name order (empty for
    /// set-oriented executions, which invoke no UDFs).
    pub fn udf_runtime_snapshot(&self) -> Vec<UdfRuntime> {
        self.udf_runtime.snapshot()
    }

    /// Executes a plan with no outer context.
    pub fn execute(&self, plan: &RelExpr) -> Result<ResultSet> {
        self.execute_with_env(plan, &Env::root())
    }

    /// Executes a plan in the scope of `outer` (correlated execution).
    pub fn execute_with_env(&self, plan: &RelExpr, outer: &Env) -> Result<ResultSet> {
        if !self.config.collect_cardinalities {
            return self.execute_dispatch(plan, outer);
        }
        // Diagnostic mode: record every node's actual output cardinality, keyed by
        // the node's structural fingerprint. Children recurse through this same entry
        // point, so one hook covers the whole tree (a filter/project chain records its
        // root here and the layers beneath it from its per-stage row counts).
        let result = self.execute_dispatch(plan, outer)?;
        // A scan's actual is booked where its table is resolved (`resolve_input`), the
        // same on every route that reads one.
        if !matches!(plan, RelExpr::Scan { .. }) {
            self.cardinalities.record(plan, result.rows.len() as u64);
        }
        Ok(result)
    }

    /// Operator dispatch (the pre-instrumentation `execute_with_env` body).
    fn execute_dispatch(&self, plan: &RelExpr, outer: &Env) -> Result<ResultSet> {
        match plan {
            RelExpr::Single => Ok(ResultSet {
                schema: Schema::empty(),
                rows: vec![Row::empty()],
            }),
            RelExpr::Scan { table, .. } => {
                // The scan as a node of its own: resolve, then copy the rows out (each
                // `Row` owns its values, so this is a deep copy, morsel by morsel).
                let (schema, source) = self.input_source(plan, outer)?;
                let rows = self.run_morsels(
                    || format!("scan({table})"),
                    0,
                    source.len(),
                    |_, range| Ok(source.collect_range(range)),
                )?;
                Ok(ResultSet { schema, rows })
            }
            RelExpr::Values { schema, rows } => Ok(ResultSet {
                schema: schema.clone(),
                rows: rows.iter().map(|r| Row::new(r.clone())).collect(),
            }),
            RelExpr::Select { .. } | RelExpr::Project { .. } => self.execute_chain(plan, outer),
            RelExpr::Aggregate {
                input,
                group_by,
                aggregates,
            } => self.execute_aggregate(input, group_by, aggregates, outer),
            RelExpr::Join {
                left,
                right,
                kind,
                condition,
            } => self.execute_join(left, right, *kind, condition.as_ref(), outer),
            RelExpr::Union { left, right, all } => {
                let l = self.execute_with_env(left, outer)?;
                let r = self.execute_with_env(right, outer)?;
                let mut rows = l.rows;
                rows.extend(r.rows);
                if !all {
                    rows = dedupe_rows(rows);
                }
                Ok(ResultSet {
                    schema: l.schema,
                    rows,
                })
            }
            RelExpr::Sort { input, keys } => {
                let ResultSet { schema, rows } = self.execute_with_env(input, outer)?;
                // Each row moves into the frame for its keys and back out beside them.
                let mut frame = Env::frame(schema, outer);
                let mut keyed: Vec<(Vec<Value>, Row)> = Vec::with_capacity(rows.len());
                for row in rows {
                    frame.row = row;
                    let key_values: Result<Vec<Value>> = keys
                        .iter()
                        .map(|k| self.eval_expr(&k.expr, &frame))
                        .collect();
                    keyed.push((key_values?, std::mem::take(&mut frame.row)));
                }
                keyed.sort_by(|(ka, _), (kb, _)| {
                    for (i, key) in keys.iter().enumerate() {
                        let ord = ka[i].total_cmp(&kb[i]);
                        let ord = if key.ascending { ord } else { ord.reverse() };
                        if ord != std::cmp::Ordering::Equal {
                            return ord;
                        }
                    }
                    std::cmp::Ordering::Equal
                });
                Ok(ResultSet {
                    schema: frame.schema,
                    rows: keyed.into_iter().map(|(_, r)| r).collect(),
                })
            }
            RelExpr::Limit { input, limit } => {
                let mut rs = self.execute_with_env(input, outer)?;
                rs.rows.truncate(*limit);
                Ok(rs)
            }
            RelExpr::Rename { input, alias } => {
                let rs = self.execute_with_env(input, outer)?;
                Ok(ResultSet {
                    schema: rs.schema.with_qualifier(alias),
                    rows: rs.rows,
                })
            }
            RelExpr::Apply {
                left,
                right,
                kind,
                bindings,
            } => self.execute_apply(left, right, *kind, bindings, outer),
            RelExpr::ApplyMerge {
                left,
                right,
                assignments,
            } => self.execute_apply_merge(left, right, assignments, outer),
            RelExpr::ConditionalApplyMerge {
                left,
                predicate,
                then_branch,
                else_branch,
                assignments,
            } => self.execute_conditional_apply_merge(
                left,
                predicate,
                then_branch,
                else_branch,
                assignments,
                outer,
            ),
        }
    }

    /// Resolves an operator's input. A base-table scan is the one place a table is looked
    /// up: alias-qualify its schema, then either take `indexed`'s rows (the chain's
    /// index lookup under a filter) or book a full scan — `rows_scanned` and the scan
    /// node's actual — and hand back the table's row store, which the operator's
    /// morsels stream out of storage with no copy-out. Anything else executes and
    /// materializes.
    fn resolve_input<'a>(
        &'a self,
        plan: &RelExpr,
        outer: &Env,
        indexed: impl FnOnce(&Table, &Schema) -> Option<Vec<Row>>,
    ) -> Result<(Schema, RowSource<'a>)> {
        let RelExpr::Scan { table, alias } = plan else {
            let rs = self.execute_with_env(plan, outer)?;
            return Ok((rs.schema, RowSource::Rows(rs.rows)));
        };
        let t = self.catalog.table(table)?;
        let schema = match alias {
            Some(a) => t.schema().with_qualifier(a),
            None => t.schema().clone(),
        };
        if let Some(hits) = indexed(t, &schema) {
            return Ok((schema, RowSource::Rows(hits)));
        }
        self.stats.add_rows_scanned(t.row_count() as u64);
        if self.config.collect_cardinalities {
            self.cardinalities.record(plan, t.row_count() as u64);
        }
        Ok((schema, RowSource::Table(t.scan())))
    }

    /// [`Executor::resolve_input`] for an operator that has no use for an index: a scan
    /// node itself, a join or Apply input.
    fn input_source<'a>(&'a self, plan: &RelExpr, outer: &Env) -> Result<(Schema, RowSource<'a>)> {
        self.resolve_input(plan, outer, |_, _| None)
    }

    /// Attempts to answer `σ_predicate(scan)` with a hash-index lookup: an equality
    /// conjunct on an indexed column whose comparison value is computable from the
    /// outer scope alone (a constant, a parameter, or an outer correlation variable).
    /// This is how the iterative baseline avoids a full scan per UDF invocation,
    /// matching the paper's "default indices on primary and foreign keys". Returns the
    /// index hits and the conjunction of the remaining conjuncts, which the caller
    /// still has to apply; `None` when no usable index/conjunct exists.
    fn try_index_scan(
        &self,
        t: &Table,
        schema: &Schema,
        predicate: &ScalarExpr,
        outer: &Env,
    ) -> Option<(Vec<Row>, ScalarExpr)> {
        let mut conjuncts = predicate.split_conjuncts();
        let (answered, hits) = conjuncts.iter().enumerate().find_map(|(i, conjunct)| {
            let ScalarExpr::Binary {
                op: BinaryOp::Eq,
                left,
                right,
            } = conjunct
            else {
                return None;
            };
            // Identify (column-of-this-table, value-expression) in either order.
            [(left, right), (right, left)]
                .into_iter()
                .find_map(|(col_side, val_side)| {
                    let ScalarExpr::Column(c) = col_side.as_ref() else {
                        return None;
                    };
                    if schema.find(c.qualifier.as_deref(), &c.name).is_none()
                        || t.index_on(&c.name).is_none()
                    {
                        return None;
                    }
                    // The probe value must be computable without this table's row.
                    let key = self.eval_expr(val_side, outer).ok()?;
                    let hits: Vec<Row> = t
                        .index_lookup(&c.name, &key)
                        .unwrap_or_default()
                        .into_iter()
                        .cloned()
                        .collect();
                    Some((i, hits))
                })
        })?;
        self.stats.add_index_lookups(1);
        conjuncts.remove(answered);
        Some((hits, ScalarExpr::conjunction(conjuncts)))
    }

    // ------------------------------------------------------------ UDF invocation runtime

    /// Prepares a filter predicate for per-row evaluation. A conjunction of at least
    /// two conjuncts, at least one of which invokes a UDF and all of whose UDFs are
    /// pure, is evaluated in learned cost order (cheapest-most-selective first,
    /// short-circuiting the rest) and instrumented with selectivity counters; kept rows
    /// are identical under SQL three-valued logic, though *which* conjunct surfaces a
    /// runtime error first can change. Anything else — in particular a volatile UDF —
    /// keeps the plain left-to-right evaluation of the predicate as written.
    fn prepare_filter<'p>(&self, predicate: &'p ScalarExpr) -> PreparedFilter<'p> {
        let simple = PreparedFilter::Simple(predicate);
        // The common filter invokes no UDF: nothing to reorder and nothing to copy
        // (an iterative plan prepares its inner filters once per UDF invocation).
        if !predicate.contains_udf_call() {
            return simple;
        }
        let conjuncts = predicate.split_conjuncts();
        if conjuncts.len() < 2 {
            return simple;
        }
        const DEFAULT_COST: f64 = 1e-4;
        const DEFAULT_SELECTIVITY: f64 = 0.5;
        let mut plain = vec![];
        let mut ranked: Vec<(f64, usize, ScalarExpr, Option<String>)> = vec![];
        for (idx, conjunct) in conjuncts.into_iter().enumerate() {
            let mut names = vec![];
            collect_udf_names(&conjunct, &mut names);
            if names.is_empty() {
                plain.push((conjunct, None));
                continue;
            }
            let all_pure = names
                .iter()
                .all(|n| self.registry.udf(n).map(|u| u.pure).unwrap_or(false));
            if !all_pure {
                return simple;
            }
            let cost: f64 = names
                .iter()
                .map(|n| {
                    self.udf_hints
                        .get(n)
                        .and_then(|l| l.mean_seconds)
                        .map_or(DEFAULT_COST, |seconds| seconds.max(1e-9))
                })
                .sum();
            // Selectivity is attributed to the conjunct's first UDF; rank =
            // cost / (1 − pass-rate) puts cheap predicates that reject many rows
            // first and expensive ones that pass almost everything last.
            let selectivity = self
                .udf_hints
                .get(&names[0])
                .and_then(|l| l.pass_rate)
                .map_or(DEFAULT_SELECTIVITY, |s| s.clamp(0.0, 1.0));
            let rank = cost / (1.0 - selectivity).max(0.05);
            ranked.push((rank, idx, conjunct, Some(names[0].clone())));
        }
        ranked.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut ordered = plain;
        ordered.extend(
            ranked
                .into_iter()
                .map(|(_, _, conjunct, name)| (conjunct, name)),
        );
        PreparedFilter::Ordered(ordered)
    }

    // ---------------------------------------------------------- filter/project chains

    /// Executes `plan` — a `Select` or a `Project` — together with every filter/project
    /// layer beneath it in one pass over the chain's base: a row flows through all the
    /// stages before the next one is read, so nothing materializes between the layers.
    /// This is the only implementation of both operators, and [`run_chain`] its only row
    /// loop: the morsel driver calls it once over the whole base when that is within one
    /// morsel (always, at `parallelism == 1`) and once per morsel otherwise, so rows,
    /// selectivity feedback and per-node cardinalities do not depend on the route.
    fn execute_chain(&self, plan: &RelExpr, outer: &Env) -> Result<ResultSet> {
        let mut index_residual = None;
        let (mut layers, base) = fusible_chain(plan);
        // Resolve the base. A table scan is streamed straight out of the catalog (no
        // copy-out); under a filter it is first tried as a hash-index lookup.
        let (base_schema, source) = self.resolve_input(base, outer, |t, schema| {
            let ChainLayer::Filter(predicate) = layers[0].1 else {
                return None;
            };
            let (hits, residual) = self.try_index_scan(t, schema, predicate, outer)?;
            index_residual = Some(residual);
            Some(hits)
        })?;
        if let Some(residual) = &index_residual {
            // The lookup answered one conjunct of the bottom filter; the rest remains.
            layers[0].1 = ChainLayer::Filter(residual);
        }
        // One stage per layer, bottom-up.
        let mut stages: Vec<ChainStage<'_>> = Vec::with_capacity(layers.len());
        for (_, layer) in &layers {
            match *layer {
                ChainLayer::Filter(predicate) => {
                    stages.push(ChainStage::Filter(self.prepare_filter(predicate)));
                }
                ChainLayer::Project(items) => {
                    let schema = project_schema(
                        items,
                        output_schema(&stages, &base_schema),
                        &self.provider(),
                    );
                    stages.push(ChainStage::Project { items, schema });
                }
            }
        }
        // Only a fanned-out chain pays for its trace label.
        let label = || {
            let base_label = match base {
                RelExpr::Scan { table, .. } if index_residual.is_some() => {
                    format!("index({table})")
                }
                RelExpr::Scan { table, .. } => format!("scan({table})"),
                _ => "input".to_string(),
            };
            let stage_labels: String = stages.iter().map(ChainStage::label).collect();
            format!("pipeline({base_label}{stage_labels})")
        };
        // Fused operators = every stage plus the base access it streams from.
        let (fused, len) = (stages.len() + 1, source.len());
        let mut out = match source {
            RowSource::Table(store) => self.run_morsels(label, fused, len, |view, range| {
                let rows = store.iter_range(range).cloned();
                run_chain(view, rows, &base_schema, &stages, outer)
            })?,
            RowSource::Rows(rows) => {
                let rows = RwLock::new(rows);
                self.run_morsels(label, fused, len, |view, range| {
                    let rows = take_rows(&rows, range).into_iter();
                    run_chain(view, rows, &base_schema, &stages, outer)
                })?
            }
        };
        if self.config.collect_cardinalities {
            // `execute_with_env` records the chain's root; the layers beneath it did
            // not run as nodes of their own, so their actuals are the stage counts.
            let below_root = layers.len() - 1;
            for ((node, _), rows_out) in layers.iter().zip(&out.stage_rows).take(below_root) {
                self.cardinalities.record(node, *rows_out);
            }
        }
        if matches!(plan, RelExpr::Project { distinct: true, .. }) {
            out.rows = dedupe_rows(out.rows);
        }
        // The result takes over the top projection's schema, or the base's under filters.
        let schema = loop {
            match stages.pop() {
                Some(ChainStage::Project { schema, .. }) => break schema,
                Some(ChainStage::Filter(_)) => {}
                None => break base_schema,
            }
        };
        Ok(ResultSet {
            schema,
            rows: out.rows,
        })
    }

    // ------------------------------------------------------------------- aggregation

    /// Fresh accumulator states for one group, one per aggregate call.
    fn make_accumulators(&self, aggregates: &[AggCall]) -> Result<Vec<AccState>> {
        aggregates
            .iter()
            .map(|a| match &a.func {
                AggFunc::UserDefined(name) => {
                    let def = self.registry.aggregate(name)?;
                    let mut state = HashMap::new();
                    for (var, _, init) in &def.state {
                        state.insert(var.clone(), init.clone());
                    }
                    Ok(AccState::User {
                        name: name.clone(),
                        state,
                    })
                }
                builtin => Ok(AccState::Builtin(BuiltinAccumulator::new(builtin))),
            })
            .collect()
    }

    /// Feeds one row's evaluated argument lists into a group's accumulators.
    fn accumulate_into(&self, accs: &mut [AccState], args_per_agg: &[Vec<Value>]) -> Result<()> {
        for (acc, args) in accs.iter_mut().zip(args_per_agg.iter()) {
            match acc {
                AccState::Builtin(b) => b.update(args),
                AccState::User { name, state } => {
                    self.accumulate_user_aggregate(name, state, args)?;
                }
            }
        }
        Ok(())
    }

    /// Finalizes groups (in their given order) into output rows.
    fn finalize_groups(
        &self,
        groups: Vec<(Vec<Value>, Vec<AccState>)>,
        schema: Schema,
    ) -> Result<ResultSet> {
        let mut rows = vec![];
        for (group_values, accs) in groups {
            let mut values = group_values;
            for acc in accs {
                let v = match acc {
                    AccState::Builtin(b) => b.finalize(),
                    AccState::User { name, state } => {
                        self.terminate_user_aggregate(&name, state)?
                    }
                };
                values.push(v);
            }
            rows.push(Row::new(values));
        }
        Ok(ResultSet { schema, rows })
    }

    fn execute_aggregate(
        &self,
        input: &RelExpr,
        group_by: &[ScalarExpr],
        aggregates: &[AggCall],
        outer: &Env,
    ) -> Result<ResultSet> {
        let input_rs = self.execute_with_env(input, outer)?;
        let schema = aggregate_schema(group_by, aggregates, &input_rs.schema, &self.provider());
        if self.should_parallelize(input_rs.rows.len()) {
            return self.execute_aggregate_parallel(input_rs, group_by, aggregates, outer, schema);
        }

        // Group rows, each moved into one evaluation frame in turn.
        let mut groups: Vec<(Vec<Value>, Vec<AccState>)> = vec![];
        let mut group_index: HashMap<Vec<GroupKey>, usize> = HashMap::new();
        let mut env = Env::frame(input_rs.schema, outer);
        for row in input_rs.rows {
            env.row = row;
            let group_values: Result<Vec<Value>> =
                group_by.iter().map(|g| self.eval_expr(g, &env)).collect();
            let group_values = group_values?;
            let key: Vec<GroupKey> = group_values.iter().map(|v| v.group_key()).collect();
            let idx = match group_index.get(&key) {
                Some(&i) => i,
                None => {
                    groups.push((group_values, self.make_accumulators(aggregates)?));
                    group_index.insert(key, groups.len() - 1);
                    groups.len() - 1
                }
            };
            let args_per_agg: Result<Vec<Vec<Value>>> = aggregates
                .iter()
                .map(|call| call.args.iter().map(|a| self.eval_expr(a, &env)).collect())
                .collect();
            self.accumulate_into(&mut groups[idx].1, &args_per_agg?)?;
        }
        // A scalar aggregate (no GROUP BY) over an empty input still produces one row.
        if groups.is_empty() && group_by.is_empty() {
            groups.push((vec![], self.make_accumulators(aggregates)?));
        }
        self.finalize_groups(groups, schema)
    }

    /// Partitioned hash aggregation. Stage 1 evaluates group-by expressions and
    /// aggregate arguments morsel-parallel (this is where scalar subqueries and UDF
    /// calls in aggregate arguments run). Stage 2 assigns each group key to one of
    /// `parallelism` partitions by hash; every partition worker walks the evaluated
    /// morsels *in global row order* and accumulates only its own keys, so each group's
    /// accumulation chain is exactly the serial chain (bit-identical float sums) while
    /// distinct groups accumulate concurrently. The partial partitions merge at
    /// finalize, ordered by each group's first input row — the serial first-seen order.
    fn execute_aggregate_parallel(
        &self,
        input_rs: ResultSet,
        group_by: &[ScalarExpr],
        aggregates: &[AggCall],
        outer: &Env,
        schema: Schema,
    ) -> Result<ResultSet> {
        let nparts = self.config.parallelism;
        let ResultSet {
            schema: input_schema,
            rows: source,
        } = input_rs;
        let evaluated: Vec<EvaluatedRow> =
            self.run_morsels(label("aggregate eval"), 0, source.len(), |view, range| {
                let mut out = Vec::with_capacity(range.len());
                // One frame per morsel; each row is copied into its reused slot.
                let mut env = Env::frame(input_schema.clone(), outer);
                for row in &source[range] {
                    env.row.clone_from(row);
                    let group_values: Result<Vec<Value>> =
                        group_by.iter().map(|g| view.eval_expr(g, &env)).collect();
                    let group_values = group_values?;
                    let key: Vec<GroupKey> = group_values.iter().map(|v| v.group_key()).collect();
                    let args_per_agg: Result<Vec<Vec<Value>>> = aggregates
                        .iter()
                        .map(|call| call.args.iter().map(|a| view.eval_expr(a, &env)).collect())
                        .collect();
                    out.push(EvaluatedRow {
                        partition: partition_of(&key, nparts),
                        group_values,
                        key,
                        args_per_agg: args_per_agg?,
                    });
                }
                Ok(out)
            })?;

        let weight = (source.len() / nparts) as u64;
        let mut groups: PartialGroups = self.run_pool(
            label("aggregate accumulate"),
            0,
            source.len(),
            nparts,
            |_| weight,
            |view, part| {
                let mut groups: PartialGroups = vec![];
                let mut index: HashMap<&[GroupKey], usize> = HashMap::new();
                for (first_seen, row) in evaluated.iter().enumerate() {
                    if row.partition != part {
                        continue;
                    }
                    let idx = match index.get(row.key.as_slice()) {
                        Some(&i) => i,
                        None => {
                            groups.push((
                                first_seen,
                                row.group_values.clone(),
                                view.make_accumulators(aggregates)?,
                            ));
                            index.insert(&row.key, groups.len() - 1);
                            groups.len() - 1
                        }
                    };
                    view.accumulate_into(&mut groups[idx].2, &row.args_per_agg)?;
                }
                Ok(groups)
            },
        )?;
        // The partitions come back joined; restore the serial first-seen group order.
        groups.sort_by_key(|(first_seen, _, _)| *first_seen);
        let groups: Vec<(Vec<Value>, Vec<AccState>)> = groups
            .into_iter()
            .map(|(_, values, accs)| (values, accs))
            .collect();
        // The parallel path requires a non-empty input, so the empty-input scalar
        // aggregate row is the serial path's concern.
        self.finalize_groups(groups, schema)
    }

    // -------------------------------------------------------------------------- joins

    /// Executes a join with one of three algorithms, which all feed one probe loop
    /// ([`Executor::probe_join`]), so every join kind and residual behaves alike:
    /// * the **index nested-loop join** whenever [`index_join`] finds the right input a
    ///   bare base-table `Scan` with a hash index on the right side of an equi-key:
    ///   each left row looks its key up in that index, and the right table is neither
    ///   scanned nor hashed;
    /// * the **hash join** for any other join with an equi-key whose inputs hold at
    ///   least [`HASH_JOIN_THRESHOLD`] rows together: a partitioned build over the
    ///   right input, then a probe over the left;
    /// * **nested loops** over the materialised right input otherwise.
    ///
    /// The choice is structural, and all three emit the same rows in the same order:
    /// left-row order, then each left row's matching right rows in ascending position.
    fn execute_join(
        &self,
        left: &RelExpr,
        right: &RelExpr,
        kind: JoinKind,
        condition: Option<&ScalarExpr>,
        outer: &Env,
    ) -> Result<ResultSet> {
        let index = index_join(&self.catalog, right, condition);
        let (left_schema, left_src) = self.input_source(left, outer)?;
        if let Some(join) = index {
            return self.execute_index_join(&left_schema, &left_src, right, kind, join, outer);
        }
        let (right_schema, right_src) = self.input_source(right, outer)?;
        let out_schema = join_schema(kind, &left_schema, &right_schema);
        let combined_schema = left_schema.join(&right_schema);
        let right_width = right_schema.len();

        // Try to extract hash-join keys from the condition.
        let (equi_keys, residual) = condition
            .map(|c| split_equi_conjuncts(c, &left_schema, &right_schema))
            .unwrap_or((vec![], vec![]));
        let big_enough = left_src.len() + right_src.len() >= HASH_JOIN_THRESHOLD;
        let rows = if equi_keys.is_empty() || !big_enough {
            self.stats.add_nested_loop_joins(1);
            let residual = condition.filter(|c| !c.is_true_literal());
            self.probe_join(
                &left_src,
                "nested-loop-join probe",
                kind,
                residual.map(|r| (r, &combined_schema)),
                right_width,
                outer,
                || (),
                |_, _, _| Ok(right_src.iter()),
            )?
        } else {
            // A partitioned build over the right input, then a probe over the left.
            // Bucket entries hold ascending right row indexes — the serial build order —
            // and probe morsels reassemble in morsel order, so the output row order
            // does not depend on the partition count or the route.
            self.stats.add_hash_joins(1);
            let residual = (!residual.is_empty()).then(|| ScalarExpr::conjunction(residual));
            let fan_out =
                self.should_parallelize(right_src.len()) || self.should_parallelize(left_src.len());
            let nparts = if fan_out { self.config.parallelism } else { 1 };
            // Per-morsel key computation: `(partition, key, right row index)` entries
            // in right-row order.
            let entries: Vec<BuildEntry> = self.run_morsels(
                label("hash-join build keys"),
                0,
                right_src.len(),
                |view, range| {
                    let mut entries = vec![];
                    for (offset, rrow) in right_src.iter_range(range.clone()).enumerate() {
                        let keys = equi_keys.iter().map(|(_, rk)| rk);
                        if let Some(key) = view.join_key(rrow, &right_schema, keys, outer)? {
                            entries.push((partition_of(&key, nparts), key, range.start + offset));
                        }
                    }
                    Ok(entries)
                },
            )?;
            // One hash table per partition, each task walking the entries in order, so
            // every bucket's row indexes ascend. Weighted by the build side: a big
            // probe side over a tiny build table assembles inline.
            let weight = (right_src.len() / nparts) as u64;
            let tables: Vec<HashMap<&[GroupKey], Vec<usize>>> = self.run_pool(
                label("hash-join build"),
                0,
                right_src.len(),
                nparts,
                |_| weight,
                |_, part| {
                    let mut table: HashMap<&[GroupKey], Vec<usize>> = HashMap::new();
                    for (_, key, idx) in entries.iter().filter(|entry| entry.0 == part) {
                        table.entry(key).or_default().push(*idx);
                    }
                    Ok(vec![table])
                },
            )?;
            self.probe_join(
                &left_src,
                "hash-join probe",
                kind,
                residual.as_ref().map(|r| (r, &combined_schema)),
                right_width,
                outer,
                || (),
                |view, _, lrow| {
                    let keys = equi_keys.iter().map(|(lk, _)| lk);
                    let matches: &[usize] = match &view.join_key(lrow, &left_schema, keys, outer)? {
                        None => &[],
                        Some(key) => tables[partition_of(key, nparts)]
                            .get(key.as_slice())
                            .map_or(&[], Vec::as_slice),
                    };
                    Ok(matches.iter().map(|&ri| right_src.get(ri)))
                },
            )?
        };
        Ok(ResultSet {
            schema: out_schema,
            rows,
        })
    }

    /// The index nested-loop join `join` describes. Per left row, the probe key is read
    /// by ordinal when it is a bare left column, otherwise evaluated in one frame per
    /// morsel inside the outer scope, and looked up in the right table's index; the
    /// hits go to the probe loop in position order (base-tier postings, then delta-tier
    /// ones). A NULL key issues no probe and matches nothing. `rows_scanned` books no
    /// right row, and the right scan's actual cardinality is the rows its lookups
    /// returned.
    fn execute_index_join(
        &self,
        left_schema: &Schema,
        left_src: &RowSource<'_>,
        right: &RelExpr,
        kind: JoinKind,
        join: IndexJoin<'_>,
        outer: &Env,
    ) -> Result<ResultSet> {
        self.stats.add_index_joins(1);
        let IndexJoin {
            table,
            schema: right_schema,
            index,
            probe,
            residual,
        } = join;
        let combined_schema = left_schema.join(&right_schema);
        let ordinal = match &probe {
            ScalarExpr::Column(c) => left_schema.find(c.qualifier.as_deref(), &c.name),
            _ => None,
        };
        let store = table.scan();
        let hits = AtomicU64::new(0);
        let rows = self.probe_join(
            left_src,
            "index-join probe",
            kind,
            residual.as_ref().map(|r| (r, &combined_schema)),
            right_schema.len(),
            outer,
            || match ordinal {
                Some(i) => ProbeKey::Ordinal(i),
                None => ProbeKey::Frame(Env::frame(left_schema.clone(), outer)),
            },
            |view, key, lrow| {
                let evaluated;
                let key = match key {
                    ProbeKey::Ordinal(i) => lrow.get(*i),
                    ProbeKey::Frame(frame) => {
                        frame.row.clone_from(lrow);
                        evaluated = view.eval_expr(&probe, frame)?;
                        &evaluated
                    }
                };
                let postings = if key.is_null() {
                    [&[][..]; 2]
                } else {
                    view.stats.add_index_lookups(1);
                    index.lookup(key)
                };
                if view.config.collect_cardinalities {
                    let found = postings.iter().map(|run| run.len() as u64).sum();
                    hits.fetch_add(found, Ordering::Relaxed);
                }
                let [older, newer] = postings;
                Ok(older.iter().chain(newer).map(|&position| {
                    store
                        .get(position)
                        .expect("index postings point at stored rows")
                }))
            },
        )?;
        if self.config.collect_cardinalities {
            self.cardinalities.record(right, hits.into_inner());
        }
        Ok(ResultSet {
            schema: join_schema(kind, left_schema, &right_schema),
            rows,
        })
    }

    /// The probe loop all three join algorithms share. Every left row is joined to each
    /// right row `candidates` yields for it that passes the residual predicate, if any;
    /// then it gets its NULL-extended row (outer join) or is kept or dropped whole (semi,
    /// anti join). `candidates` gets the per-morsel state `state` builds. A match is
    /// built once, straight into the output; a residual, with the joined schema it is
    /// evaluated against, sees it through one evaluation frame per morsel, which the
    /// row moves into and back out of.
    fn probe_join<'r, S, I>(
        &self,
        left: &RowSource<'_>,
        operator: &'static str,
        kind: JoinKind,
        residual: Option<(&ScalarExpr, &Schema)>,
        right_width: usize,
        outer: &Env,
        state: impl Fn() -> S + Sync,
        candidates: impl Fn(&Executor, &mut S, &Row) -> Result<I> + Sync,
    ) -> Result<Vec<Row>>
    where
        I: Iterator<Item = &'r Row>,
    {
        self.run_morsels(label(operator), 0, left.len(), |view, range| {
            let mut residual =
                residual.map(|(predicate, schema)| (predicate, Env::frame(schema.clone(), outer)));
            let mut state = state();
            let mut rows = vec![];
            for lrow in left.iter_range(range) {
                let mut matched = false;
                for rrow in candidates(view, &mut state, lrow)? {
                    if let Some((predicate, frame)) = &mut residual {
                        frame.row = joined_row(lrow, Some(rrow), right_width);
                        if !view.eval_predicate(predicate, frame)? {
                            continue;
                        }
                    }
                    matched = true;
                    match (kind, &mut residual) {
                        (JoinKind::LeftSemi | JoinKind::LeftAnti, _) => break,
                        (_, Some((_, frame))) => rows.push(std::mem::take(&mut frame.row)),
                        (_, None) => rows.push(joined_row(lrow, Some(rrow), right_width)),
                    }
                }
                match kind {
                    JoinKind::LeftOuter if !matched => {
                        rows.push(joined_row(lrow, None, right_width));
                    }
                    JoinKind::LeftSemi if matched => rows.push(lrow.clone()),
                    JoinKind::LeftAnti if !matched => rows.push(lrow.clone()),
                    _ => {}
                }
            }
            Ok(rows)
        })
    }

    /// Hash-join key of one row: `None` when any key expression is NULL (SQL equality
    /// never matches NULL).
    fn join_key<'e>(
        &self,
        row: &Row,
        schema: &Schema,
        key_exprs: impl Iterator<Item = &'e ScalarExpr>,
        outer: &Env,
    ) -> Result<Option<Vec<GroupKey>>> {
        let env = Env::with_row(schema.clone(), row.clone()).nested_in(outer);
        let mut key = vec![];
        for expr in key_exprs {
            let v = self.eval_expr(expr, &env)?;
            if v.is_null() {
                return Ok(None);
            }
            key.push(v.group_key());
        }
        Ok(Some(key))
    }

    // -------------------------------------------------------------------- Apply family

    /// Runs `f` for every left row — the row loop of the Apply family — and returns the
    /// per-row outputs concatenated in left-row order.
    fn for_each_left_row<F>(
        &self,
        left: &RowSource<'_>,
        operator: &'static str,
        f: F,
    ) -> Result<Vec<Row>>
    where
        F: Fn(&Executor, &Row, &mut Vec<Row>) -> Result<()> + Sync,
    {
        self.run_morsels(label(operator), 0, left.len(), |view, range| {
            let mut out = vec![];
            for lrow in left.iter_range(range) {
                f(view, lrow, &mut out)?;
            }
            Ok(out)
        })
    }

    fn execute_apply(
        &self,
        left: &RelExpr,
        right: &RelExpr,
        kind: ApplyKind,
        bindings: &[decorr_algebra::plan::ParamBinding],
        outer: &Env,
    ) -> Result<ResultSet> {
        let (left_schema, left_src) = self.input_source(left, outer)?;
        let provider = self.provider();
        let right_schema = infer_schema(right, &provider).unwrap_or_else(|_| Schema::empty());
        let out_schema = match kind {
            ApplyKind::LeftSemi | ApplyKind::LeftAnti => left_schema.clone(),
            ApplyKind::LeftOuter => left_schema.join(&right_schema.as_nullable()),
            ApplyKind::Cross => left_schema.join(&right_schema),
        };
        // Correlated evaluation of the inner plan, once per outer row. Each outer row
        // is independent, so the Apply family is morsel-parallel over its left input —
        // this is what parallelises iterative (non-decorrelated) execution.
        let right_width = right_schema.len();
        let rows = self.for_each_left_row(&left_src, "apply", |view, lrow, rows| {
            let mut env = Env::with_row(left_schema.clone(), lrow.clone()).nested_in(outer);
            for b in bindings {
                let v = view.eval_expr(&b.value, &env)?;
                env.set_param(&b.param, v);
            }
            let inner = view.execute_with_env(right, &env)?;
            match kind {
                ApplyKind::Cross | ApplyKind::LeftOuter => {
                    for rrow in &inner.rows {
                        rows.push(joined_row(lrow, Some(rrow), right_width));
                    }
                    if kind == ApplyKind::LeftOuter && inner.rows.is_empty() {
                        rows.push(joined_row(lrow, None, right_width));
                    }
                }
                ApplyKind::LeftSemi => {
                    if !inner.rows.is_empty() {
                        rows.push(lrow.clone());
                    }
                }
                ApplyKind::LeftAnti => {
                    if inner.rows.is_empty() {
                        rows.push(lrow.clone());
                    }
                }
            }
            Ok(())
        })?;
        Ok(ResultSet {
            schema: out_schema,
            rows,
        })
    }

    fn execute_apply_merge(
        &self,
        left: &RelExpr,
        right: &RelExpr,
        assignments: &[decorr_algebra::plan::MergeAssignment],
        outer: &Env,
    ) -> Result<ResultSet> {
        let (schema, left_src) = self.input_source(left, outer)?;
        let rows = self.for_each_left_row(&left_src, "apply-merge", |view, lrow, rows| {
            let env = Env::with_row(schema.clone(), lrow.clone()).nested_in(outer);
            let inner = view.execute_with_env(right, &env)?;
            rows.push(view.merge_row(lrow, &schema, &inner, assignments)?);
            Ok(())
        })?;
        Ok(ResultSet { schema, rows })
    }

    fn execute_conditional_apply_merge(
        &self,
        left: &RelExpr,
        predicate: &ScalarExpr,
        then_branch: &RelExpr,
        else_branch: &RelExpr,
        assignments: &[decorr_algebra::plan::MergeAssignment],
        outer: &Env,
    ) -> Result<ResultSet> {
        let (schema, left_src) = self.input_source(left, outer)?;
        let rows =
            self.for_each_left_row(&left_src, "conditional-apply-merge", |view, lrow, rows| {
                let env = Env::with_row(schema.clone(), lrow.clone()).nested_in(outer);
                let branch = if view.eval_predicate(predicate, &env)? {
                    then_branch
                } else {
                    else_branch
                };
                let inner = view.execute_with_env(branch, &env)?;
                rows.push(view.merge_row(lrow, &schema, &inner, assignments)?);
                Ok(())
            })?;
        Ok(ResultSet { schema, rows })
    }

    /// Implements the Apply-Merge assignment semantics: the inner result must have at
    /// most one tuple; its attributes are assigned into the outer tuple. An empty inner
    /// result retains the existing values (the paper notes this behaviour is
    /// system-specific; we follow the "no assignment" interpretation).
    fn merge_row(
        &self,
        lrow: &Row,
        left_schema: &Schema,
        inner: &ResultSet,
        assignments: &[decorr_algebra::plan::MergeAssignment],
    ) -> Result<Row> {
        if inner.rows.len() > 1 {
            return Err(Error::Execution(format!(
                "assignment source returned {} rows (expected at most one)",
                inner.rows.len()
            )));
        }
        let mut out = lrow.clone();
        if let Some(inner_row) = inner.rows.first() {
            if assignments.is_empty() {
                // Default: merge all common attributes.
                for (ri, rcol) in inner.schema.columns.iter().enumerate() {
                    if let Some(li) = left_schema.find(None, &rcol.name) {
                        out.values[li] = inner_row.get(ri).clone();
                    }
                }
            } else {
                for a in assignments {
                    let li = left_schema.index_of(None, &a.target)?;
                    let ri = inner.schema.index_of(None, &a.source)?;
                    out.values[li] = inner_row.get(ri).clone();
                }
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------- chain helpers

/// One filter/project layer of a chain, borrowed from the plan during chain detection.
#[derive(Clone, Copy)]
enum ChainLayer<'p> {
    Filter(&'p ScalarExpr),
    Project(&'p [ProjectItem]),
}

/// The per-row form of a chain layer, borrowing its predicate or items from the plan.
enum ChainStage<'p> {
    Filter(PreparedFilter<'p>),
    Project {
        items: &'p [ProjectItem],
        /// The projection's output schema.
        schema: Schema,
    },
}

impl ChainStage<'_> {
    /// This stage's segment of a fanned-out chain's trace label.
    fn label(&self) -> &'static str {
        match self {
            ChainStage::Filter(_) => "→filter",
            ChainStage::Project { .. } => "→project",
        }
    }
}

/// The schema of the rows leaving the last of `stages` over a base of schema `base`.
fn output_schema<'s>(stages: &'s [ChainStage<'_>], base: &'s Schema) -> &'s Schema {
    stages
        .iter()
        .rev()
        .find_map(|stage| match stage {
            ChainStage::Project { schema, .. } => Some(schema),
            ChainStage::Filter(_) => None,
        })
        .unwrap_or(base)
}

/// What one [`run_chain`] pass produced: the rows that survived every stage and, per
/// stage, how many rows left it (the actual cardinality of that layer's plan node).
#[derive(Default)]
struct ChainOutput {
    rows: Vec<Row>,
    stage_rows: Vec<u64>,
}

impl MorselOutput for ChainOutput {
    fn output_rows(&self) -> u64 {
        self.rows.len() as u64
    }

    fn append(&mut self, next: ChainOutput) {
        self.rows.extend(next.rows);
        for (total, rows_out) in self.stage_rows.iter_mut().zip(next.stage_rows) {
            *total += rows_out;
        }
    }
}

/// Streams `rows` of schema `base_schema` through every stage, in row order: the one
/// per-row filter and projection evaluation, called by the morsel driver once per
/// morsel. Filters fold their selectivity counters into the executor once per call,
/// not per row.
fn run_chain(
    view: &Executor,
    rows: impl Iterator<Item = Row>,
    base_schema: &Schema,
    stages: &[ChainStage<'_>],
    outer: &Env,
) -> Result<ChainOutput> {
    let mut out = ChainOutput {
        rows: vec![],
        stage_rows: vec![0; stages.len()],
    };
    let mut outcomes: Vec<Vec<(u64, u64)>> = stages
        .iter()
        .map(|stage| match stage {
            ChainStage::Filter(filter) => filter.counters(),
            ChainStage::Project { .. } => vec![],
        })
        .collect();
    'rows: for row in rows {
        let mut env = Env::with_row(base_schema.clone(), row).nested_in(outer);
        for (i, stage) in stages.iter().enumerate() {
            match stage {
                ChainStage::Filter(filter) => {
                    if !filter.eval(view, &env, &mut outcomes[i])? {
                        continue 'rows;
                    }
                }
                ChainStage::Project { items, schema } => {
                    let values: Result<Vec<Value>> = items
                        .iter()
                        .map(|item| view.eval_expr(&item.expr, &env))
                        .collect();
                    env.row = Row::new(values?);
                    // Only a later stage resolves columns against the new schema.
                    if i + 1 < stages.len() {
                        env.schema = schema.clone();
                    }
                }
            }
            out.stage_rows[i] += 1;
        }
        out.rows.push(env.row);
    }
    for (stage, outcomes) in stages.iter().zip(&outcomes) {
        if let ChainStage::Filter(filter) = stage {
            filter.flush(view, outcomes);
        }
    }
    Ok(out)
}

/// Peels the filter/project layers off the top of `plan` (a `Select` or a `Project`),
/// returning them **bottom-up**, each with its plan node, together with the base they
/// feed on. The chain always holds at least `plan` itself. A `distinct` projection
/// deduplicates its whole output, so it can only be a chain's top layer: below the top
/// it ends the chain and becomes the base.
fn fusible_chain(plan: &RelExpr) -> (Vec<(&RelExpr, ChainLayer<'_>)>, &RelExpr) {
    let mut layers = vec![];
    let mut cur = plan;
    loop {
        match cur {
            RelExpr::Project {
                input,
                items,
                distinct,
            } if !*distinct || layers.is_empty() => {
                layers.push((cur, ChainLayer::Project(items)));
                cur = input;
            }
            RelExpr::Select { input, predicate } => {
                layers.push((cur, ChainLayer::Filter(predicate)));
                cur = input;
            }
            _ => break,
        }
    }
    layers.reverse();
    (layers, cur)
}

// ----------------------------------------------------------------------- join helpers

/// Splits a join condition into hash-join key pairs `(left_key, right_key)` and residual
/// conjuncts. A conjunct qualifies as a key pair when it is an equality whose two sides
/// reference columns of exactly one (different) input each.
fn split_equi_conjuncts(
    condition: &ScalarExpr,
    left: &Schema,
    right: &Schema,
) -> (Vec<(ScalarExpr, ScalarExpr)>, Vec<ScalarExpr>) {
    let mut keys = vec![];
    let mut residual = vec![];
    for conjunct in condition.split_conjuncts() {
        if let ScalarExpr::Binary {
            op: BinaryOp::Eq,
            left: a,
            right: b,
        } = &conjunct
        {
            let a_side = side_of(a, left, right);
            let b_side = side_of(b, left, right);
            match (a_side, b_side) {
                (Side::Left, Side::Right) => {
                    keys.push((a.as_ref().clone(), b.as_ref().clone()));
                    continue;
                }
                (Side::Right, Side::Left) => {
                    keys.push((b.as_ref().clone(), a.as_ref().clone()));
                    continue;
                }
                _ => {}
            }
        }
        residual.push(conjunct);
    }
    (keys, residual)
}

/// The access path of an index nested-loop join, as [`index_join`] found it.
pub struct IndexJoin<'c> {
    /// The right input's base table.
    pub table: &'c Table,
    /// That table's schema, qualified by the scan's alias.
    pub schema: Schema,
    /// The hash index on the probing equi-key's right column.
    pub index: &'c HashIndex,
    /// The probing equi-key's left side: the value each left row looks up.
    pub probe: ScalarExpr,
    /// Every other conjunct of the condition, further equi-keys included, checked on
    /// the joined row.
    pub residual: Option<ScalarExpr>,
}

/// Whether a join with `right` on `condition` runs as an index nested-loop join: the
/// one eligibility test, which the executor and the cost model both call. It does when
/// `right` is a bare base-table `Scan` and an equality conjunct of the condition has a
/// column of that table with a hash index on one side, and on the other an expression
/// the hash join would take as a left key: one that reads columns, none of them the
/// right table's, and no parameter or subquery. The first such conjunct probes. A
/// `Select` over the scan is not eligible, since its filter may have an index to use.
pub fn index_join<'c>(
    catalog: &'c Catalog,
    right: &RelExpr,
    condition: Option<&ScalarExpr>,
) -> Option<IndexJoin<'c>> {
    let (RelExpr::Scan { table, alias }, Some(condition)) = (right, condition) else {
        return None;
    };
    let table = catalog.table(table).ok()?;
    let schema = match alias {
        Some(a) => table.schema().with_qualifier(a),
        None => table.schema().clone(),
    };
    let mut conjuncts = condition.split_conjuncts();
    let (at, probe, index) = conjuncts.iter().enumerate().find_map(|(i, conjunct)| {
        let ScalarExpr::Binary {
            op: BinaryOp::Eq,
            left: a,
            right: b,
        } = conjunct
        else {
            return None;
        };
        [(a, b), (b, a)].into_iter().find_map(|(probe, column)| {
            let ScalarExpr::Column(c) = column.as_ref() else {
                return None;
            };
            let position = schema.find(c.qualifier.as_deref(), &c.name)?;
            let index = table.index_on(&schema.column(position).name)?;
            key_columns(probe)?
                .iter()
                .all(|c| schema.find(c.qualifier.as_deref(), &c.name).is_none())
                .then(|| (i, probe.as_ref().clone(), index))
        })
    })?;
    conjuncts.remove(at);
    Some(IndexJoin {
        table,
        schema,
        index,
        probe,
        residual: (!conjuncts.is_empty()).then(|| ScalarExpr::conjunction(conjuncts)),
    })
}

/// The output schema of a `kind` join: the left's alone for a semi or anti join, else
/// the left's then the right's, nullable under an outer join.
fn join_schema(kind: JoinKind, left: &Schema, right: &Schema) -> Schema {
    match kind {
        JoinKind::LeftSemi | JoinKind::LeftAnti => left.clone(),
        JoinKind::LeftOuter => left.join(&right.as_nullable()),
        _ => left.join(right),
    }
}

/// How one morsel of an index join reads a left row's probe value: straight from the
/// row when the key is a bare left column, else through the morsel's evaluation frame.
enum ProbeKey {
    Ordinal(usize),
    Frame(Env),
}

#[derive(PartialEq, Clone, Copy)]
enum Side {
    Left,
    Right,
    Neither,
}

/// Which input's columns an expression references (exclusively).
fn side_of(expr: &ScalarExpr, left: &Schema, right: &Schema) -> Side {
    let Some(cols) = key_columns(expr) else {
        return Side::Neither;
    };
    let all_left = cols
        .iter()
        .all(|c| left.find(c.qualifier.as_deref(), &c.name).is_some());
    let all_right = cols
        .iter()
        .all(|c| right.find(c.qualifier.as_deref(), &c.name).is_some());
    match (all_left, all_right) {
        (true, false) => Side::Left,
        (false, true) => Side::Right,
        _ => Side::Neither,
    }
}

/// The columns a join key expression reads: `None` unless it reads at least one and
/// no parameter or subquery.
fn key_columns(expr: &ScalarExpr) -> Option<Vec<ColumnRef>> {
    let mut cols: Vec<ColumnRef> = vec![];
    expr.collect_columns(&mut cols);
    let mut params = vec![];
    expr.collect_params(&mut params);
    (!cols.is_empty() && params.is_empty() && !expr.contains_subquery()).then_some(cols)
}

/// One build-side entry: its hash partition, the evaluated join key and the global
/// right-row index.
type BuildEntry = (usize, Vec<GroupKey>, usize);
/// `(first input row, group values, accumulators)` per group.
type PartialGroups = Vec<(usize, Vec<Value>, Vec<AccState>)>;

/// One input row of a parallel aggregation after the morsel-parallel evaluation stage.
struct EvaluatedRow {
    group_values: Vec<Value>,
    key: Vec<GroupKey>,
    /// Hash partition of `key`, computed once in the parallel stage so the
    /// accumulation workers don't re-hash every row `nparts` times.
    partition: usize,
    args_per_agg: Vec<Vec<Value>>,
}

/// An operator's input, addressed by row position so morsels map onto it: either a
/// materialized intermediate result, or a table's row store borrowed from the catalog
/// and streamed straight out of storage (no copy-out).
enum RowSource<'a> {
    Rows(Vec<Row>),
    Table(&'a RowStore),
}

impl RowSource<'_> {
    fn len(&self) -> usize {
        match self {
            RowSource::Rows(rows) => rows.len(),
            RowSource::Table(store) => store.len(),
        }
    }

    /// The row at global position `i` (must be in bounds).
    fn get(&self, i: usize) -> &Row {
        match self {
            RowSource::Rows(rows) => &rows[i],
            RowSource::Table(store) => store.get(i).expect("row index out of bounds"),
        }
    }

    /// All rows, in source order.
    fn iter(&self) -> Box<dyn Iterator<Item = &Row> + '_> {
        self.iter_range(0..self.len())
    }

    /// The rows of one global range (a morsel), in source order.
    fn iter_range(&self, range: std::ops::Range<usize>) -> Box<dyn Iterator<Item = &Row> + '_> {
        match self {
            RowSource::Rows(rows) => Box::new(rows[range].iter()),
            RowSource::Table(store) => Box::new(store.iter_range(range)),
        }
    }

    /// A copy of the rows of one global range, in source order.
    fn collect_range(&self, range: std::ops::Range<usize>) -> Vec<Row> {
        match self {
            RowSource::Rows(rows) => rows[range].to_vec(),
            RowSource::Table(store) => store.collect_range(range),
        }
    }
}

/// One join output row, in one allocation: `left`'s values, then `right`'s, or
/// `right_width` NULLs without a right row (the outer join's NULL extension).
fn joined_row(left: &Row, right: Option<&Row>, right_width: usize) -> Row {
    let mut values = Vec::with_capacity(left.len() + right_width);
    values.extend_from_slice(&left.values);
    match right {
        Some(right) => values.extend_from_slice(&right.values),
        None => values.resize(left.len() + right_width, Value::Null),
    }
    Row::new(values)
}

/// The rows of one morsel of a materialized input its operator consumes. The single
/// morsel of the inline route takes the vector whole, so its rows are moved through
/// the operator; the morsels of a fanned-out run copy theirs — a row freed on another
/// thread than the one that allocated it costs the allocator more than the copy does
/// (measured: PR 22 in CHANGES.md).
fn take_rows(rows: &RwLock<Vec<Row>>, range: std::ops::Range<usize>) -> Vec<Row> {
    let shared = rows.read().expect("row readers cannot panic");
    if range.len() < shared.len() {
        return shared[range].to_vec();
    }
    drop(shared);
    std::mem::take(&mut *rows.write().expect("row readers cannot panic"))
}

/// Appends the normalized names of every UDF invoked anywhere in `expr` (not
/// descending into subquery bodies) to `out`, in evaluation order.
fn collect_udf_names(expr: &ScalarExpr, out: &mut Vec<String>) {
    if let ScalarExpr::UdfCall { name, .. } = expr {
        out.push(normalize_ident(name));
    }
    for child in expr.children() {
        collect_udf_names(child, out);
    }
}

/// A filter predicate prepared for evaluation: either the original expression, or a
/// conjunction whose UDF-bearing conjuncts were reordered cheapest-most-selective
/// first and instrumented with selectivity counters for the feedback loop.
enum PreparedFilter<'p> {
    Simple(&'p ScalarExpr),
    /// Conjuncts in evaluation order; `Some(name)` tags UDF-bearing conjuncts with
    /// the normalized name of their first UDF for selectivity attribution.
    Ordered(Vec<(ScalarExpr, Option<String>)>),
}

impl PreparedFilter<'_> {
    /// Fresh outcome counters, one `(evaluated, passed)` slot per ordered conjunct.
    fn counters(&self) -> Vec<(u64, u64)> {
        match self {
            PreparedFilter::Simple(_) => vec![],
            PreparedFilter::Ordered(conjuncts) => vec![(0, 0); conjuncts.len()],
        }
    }

    /// Evaluates the filter for one row. The kept-row set is identical to plain
    /// evaluation under three-valued logic (a conjunction is true iff every conjunct
    /// is true); only which conjunct surfaces a runtime error first can differ.
    fn eval(&self, exec: &Executor, env: &Env, outcomes: &mut [(u64, u64)]) -> Result<bool> {
        match self {
            PreparedFilter::Simple(expr) => exec.eval_predicate(expr, env),
            PreparedFilter::Ordered(conjuncts) => {
                for (i, (conjunct, name)) in conjuncts.iter().enumerate() {
                    let pass = exec.eval_predicate(conjunct, env)?;
                    if name.is_some() {
                        outcomes[i].0 += 1;
                        if pass {
                            outcomes[i].1 += 1;
                        }
                    }
                    if !pass {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
        }
    }

    /// Folds one evaluation batch's outcome counters into the UDFs' runtime records
    /// (one lock acquisition per morsel, not per row).
    fn flush(&self, exec: &Executor, outcomes: &[(u64, u64)]) {
        if let PreparedFilter::Ordered(conjuncts) = self {
            for ((_, name), &(evaluated, passed)) in conjuncts.iter().zip(outcomes) {
                if let (Some(name), true) = (name, evaluated > 0) {
                    exec.udf_runtime.update(name, |r| {
                        r.predicate_evaluated += evaluated;
                        r.predicate_passed += passed;
                    });
                }
            }
        }
    }
}

/// Running accumulator state for one aggregate call within one group: either a
/// built-in accumulator or the interpreted state of a user-defined aggregate.
enum AccState {
    Builtin(BuiltinAccumulator),
    User {
        name: String,
        state: HashMap<String, Value>,
    },
}

/// Which hash partition a group/join key belongs to. Any stable hash works — the
/// partition assignment only has to agree between build and probe within one operator.
fn partition_of(key: &[GroupKey], nparts: usize) -> usize {
    if nparts <= 1 {
        return 0;
    }
    let mut hasher = std::collections::hash_map::DefaultHasher::new();
    key.hash(&mut hasher);
    (hasher.finish() % nparts as u64) as usize
}

/// Removes duplicate rows (used by UNION and DISTINCT) preserving first-seen order.
fn dedupe_rows(rows: Vec<Row>) -> Vec<Row> {
    let mut seen: HashSet<Vec<GroupKey>> = HashSet::new();
    let mut out = vec![];
    for row in rows {
        let key: Vec<GroupKey> = row.values.iter().map(|v| v.group_key()).collect();
        if seen.insert(key) {
            out.push(row);
        }
    }
    out
}
