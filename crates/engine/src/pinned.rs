//! One query against one pinned snapshot: optimize (through the shared plan cache) →
//! execute → fold the execution's ground truth back into the feedback store.

use std::collections::BTreeMap;
use std::sync::Arc;

use decorr_algebra::{RelExpr, ScalarExpr};
use decorr_common::{Error, Result, Row, Value};
use decorr_exec::{CatalogProvider, Env, ExecConfig, Executor, MemoEpoch, UdfMemo};
use decorr_optimizer::{
    estimate_with, estimated_udf_invocation_cost, plan_fingerprint, CostParams, OptimizeMode,
    OptimizeOutcome, PassManager,
};
use decorr_storage::Catalog;
use decorr_udf::{FunctionRegistry, Statement, UdfDefinition, UdfRuntime};

use crate::engine::{read, Engine, EngineInner};
use crate::{ExecutionStrategy, QueryOptions, QueryResult};

/// Capacity of the per-query dedup cache attached when `ExecConfig::udf_batching` is
/// on. Generous: it only lives for one query, and an iterative plan over a large
/// outer relation can touch many distinct argument tuples.
const UDF_DEDUP_CAPACITY: usize = 65536;

/// One consistent snapshot of everything a single query needs. Pinning is a handful
/// of `Arc` clones; the query then runs entirely against immutable state, so
/// concurrent writers never block it (and it never blocks them).
#[derive(Debug, Clone)]
pub(crate) struct Pinned {
    pub(crate) catalog: Arc<Catalog>,
    pub(crate) registry: Arc<FunctionRegistry>,
    /// Resolved (per-query override → session override → engine default) and
    /// normalized executor configuration.
    pub(crate) exec_config: ExecConfig,
    udf_memo: Arc<UdfMemo>,
    /// The engine, for what is fixed at build time and so needs no pinning: the plan
    /// cache, the feedback store and the worker pool.
    shared: Arc<EngineInner>,
}

impl Engine {
    /// Pins one consistent snapshot of everything a query needs: catalog + registry
    /// (one epoch), the UDF memo and the resolved executor configuration.
    pub(crate) fn pin(&self, config_override: Option<&ExecConfig>) -> Pinned {
        let state = read(&self.inner.state).clone();
        let exec_config = config_override
            .unwrap_or(&self.inner.exec_config)
            .clone()
            .normalized();
        Pinned {
            catalog: state.catalog,
            registry: state.registry,
            exec_config,
            udf_memo: Arc::clone(&read(&self.inner.udf_memo)),
            shared: Arc::clone(&self.inner),
        }
    }
}

impl Pinned {
    /// Applies the cleanup/normalisation rules to a query plan through the optimizer's
    /// cleanup pipeline. Normalisation is best-effort: a (theoretically impossible)
    /// budget exhaustion in the cleanup rules keeps the plan as-is instead of failing.
    fn normalize_plan(&self, plan: &RelExpr) -> RelExpr {
        let provider = CatalogProvider::new(&self.catalog, &self.registry);
        // Validation is off here by design: these are UDF *body* fragments whose
        // local variables and formal parameters appear as free columns/params until
        // the interpreter (or the algebraizer) binds them, so the plan validator
        // would flag them. Body soundness is covered by `decorr_udf::analysis::analyze_body`
        // at registration instead.
        PassManager::cleanup_pipeline()
            .with_validation(false)
            .optimize(plan, &self.registry, &provider, Some(self.catalog.as_ref()))
            .map(|o| o.plan)
            .unwrap_or_else(|_| plan.clone())
    }

    /// Builds the pass pipeline for the requested execution strategy.
    fn pass_manager_for(strategy: ExecutionStrategy) -> PassManager {
        match strategy {
            ExecutionStrategy::Iterative => PassManager::cleanup_pipeline(),
            ExecutionStrategy::Decorrelated => {
                PassManager::decorrelation_pipeline().with_mode(OptimizeMode::ForceDecorrelated)
            }
            ExecutionStrategy::Auto => PassManager::decorrelation_pipeline(),
        }
    }

    /// Runs the optimizer pipeline for the given strategy over an already-planned
    /// query, with the shared plan cache attached: a repeated plan under an unchanged
    /// registry/schema skips the pipeline entirely — including when a *different*
    /// session warmed the cache.
    pub(crate) fn optimize_plan(
        &self,
        plan: &RelExpr,
        strategy: ExecutionStrategy,
        capture_snapshots: bool,
        validate_plans: Option<bool>,
    ) -> Result<OptimizeOutcome> {
        let provider = CatalogProvider::new(&self.catalog, &self.registry);
        let mut manager = Pinned::pass_manager_for(strategy)
            .with_snapshots(capture_snapshots)
            .with_parallelism(self.exec_config.parallelism)
            .with_plan_cache(Arc::clone(&self.shared.plan_cache))
            .with_feedback(Arc::clone(&self.shared.feedback));
        if let Some(validate) = validate_plans {
            manager = manager.with_validation(validate);
        }
        manager.optimize(plan, &self.registry, &provider, Some(self.catalog.as_ref()))
    }

    /// Normalises every query embedded in a UDF body.
    pub(crate) fn normalize_udf(&self, mut udf: UdfDefinition) -> UdfDefinition {
        fn walk(stmts: &mut [Statement], normalize: &dyn Fn(&RelExpr) -> RelExpr) {
            for stmt in stmts {
                match stmt {
                    Statement::SelectInto { query, .. } | Statement::CursorLoop { query, .. } => {
                        *query = normalize(query)
                    }
                    // A query that is the whole returned or assigned value.
                    Statement::Return {
                        expr: Some(ScalarExpr::ScalarSubquery(q)),
                    }
                    | Statement::Assign {
                        expr: ScalarExpr::ScalarSubquery(q),
                        ..
                    } => **q = normalize(q),
                    _ => {}
                }
                stmt.for_each_block_mut(&mut |block| walk(block, normalize));
            }
        }
        let normalize = |plan: &RelExpr| self.normalize_plan(plan);
        walk(&mut udf.body, &normalize);
        udf
    }

    /// Builds the per-UDF memo-epoch map for this snapshot. A memoized result is
    /// served only while its epoch matches, i.e. while the registry generation, the
    /// DDL generation and the relevant *data* version are unchanged. The data
    /// component covers the UDF's full (transitive) read set, held by its registry
    /// record: a body that reads no table gets a constant, a body
    /// with an exact read set gets a fingerprint of the sorted `(table, data_version)`
    /// pairs — so inserts into tables *outside* that set don't evict its results — and
    /// an open read set (the body calls an unregistered function) falls back to the
    /// catalog-wide data generation.
    fn memo_epochs(&self) -> Arc<BTreeMap<String, MemoEpoch>> {
        let registry_gen = self.registry.generation();
        let ddl_gen = self.catalog.ddl_generation();
        let catalog_wide = self.catalog.data_generation();
        let data_version = |tables: &[String]| {
            let mut hasher = decorr_common::FnvHasher::default();
            for table in tables {
                // A read of a table the catalog no longer (or doesn't yet) know: be
                // conservative and key catalog-wide.
                let version = self.catalog.table(table).ok()?.data_version();
                hasher.write_bytes(table.as_bytes());
                hasher.write_u64(version);
            }
            Some(hasher.finish())
        };
        let epochs = self.registry.records().map(|(name, record)| {
            let data = match record.reads.as_deref() {
                None => catalog_wide,
                Some([]) => 0,
                Some(tables) => data_version(tables).unwrap_or(catalog_wide),
            };
            (name.clone(), (registry_gen, ddl_gen, data))
        });
        Arc::new(epochs.collect())
    }

    /// Runs an already-planned query against this snapshot. Every strategy routes
    /// through the optimizer's [`PassManager`]: the iterative strategy runs the
    /// normalisation pipeline only, the other strategies run the full decorrelation
    /// pipeline (with the cost-based choice for [`ExecutionStrategy::Auto`]).
    pub(crate) fn run_plan(&self, plan: &RelExpr, options: &QueryOptions) -> Result<QueryResult> {
        let config = &self.exec_config;
        let strategy = options.strategy;
        let outcome = self.optimize_plan(
            plan,
            strategy,
            options.capture_snapshots,
            options.validate_plans,
        )?;
        if strategy == ExecutionStrategy::Decorrelated && !outcome.decorrelated {
            return Err(Error::Rewrite(format!(
                "query could not be decorrelated: {}",
                outcome.notes.join("; ")
            )));
        }
        // Attach the engine's helper budget: concurrent queries share one bound. The
        // auxiliary aggregates a decorrelated plan calls are registered with their UDFs.
        let mut executor = Executor::with_config(
            Arc::clone(&self.catalog),
            Arc::clone(&self.registry),
            config.clone(),
        )
        .with_worker_pool(Arc::clone(&self.shared.worker_pool));
        if config.udf_memoization && self.udf_memo.is_enabled() {
            executor = executor
                .with_udf_memo(Arc::clone(&self.udf_memo))
                .with_memo_epochs(self.memo_epochs());
        }
        if config.udf_batching {
            executor =
                executor.with_udf_dedup(Arc::new(UdfMemo::with_capacity(UDF_DEDUP_CAPACITY)));
        }
        // Learned per-UDF cost and pass rate order the UDF conjuncts of filters.
        let executor = executor.with_udf_hints(Arc::new(self.shared.feedback.learned()));
        let result_set = executor.execute(&outcome.plan)?;
        let (estimated_rows, cardinality_q_error, udf_timings) =
            self.fold_feedback(plan, &outcome, &result_set, &executor);
        Ok(QueryResult {
            schema: result_set.schema,
            rows: result_set.rows,
            strategy,
            used_decorrelated_plan: outcome.used_decorrelated_plan,
            rewrite_notes: outcome.notes,
            applied_rules: outcome.applied_rules,
            exec_stats: executor.stats_snapshot(),
            rewrite_report: outcome.report,
            exec_trace: executor.trace_snapshot(),
            estimated_rows,
            cardinality_q_error,
            udf_timings,
            node_cardinalities: executor.cardinality_snapshot(),
        })
    }

    /// Folds one execution's ground truth into the shared feedback store: the
    /// estimated vs actual root cardinality and each invoked UDF's runtime record. When
    /// the observed q-error (cardinality or UDF cost) first crosses the threshold for
    /// this plan fingerprint, the stale cost-based plan-cache entries are invalidated
    /// so the next optimize — from *any* session — re-decides with the calibrated
    /// numbers.
    fn fold_feedback(
        &self,
        input_plan: &RelExpr,
        outcome: &OptimizeOutcome,
        result_set: &decorr_exec::ResultSet,
        executor: &Executor,
    ) -> (f64, f64, Vec<UdfRuntime>) {
        let feedback = &self.shared.feedback;
        let params = CostParams::new(self.exec_config.parallelism);
        // The decision already carries both alternatives' estimates; recompute only
        // when the pipeline made no decision (iterative strategy, UDF-free queries).
        let estimated_rows = match &outcome.decision {
            Some(decision) if outcome.used_decorrelated_plan => decision.decorrelated.cardinality,
            Some(decision) => decision.iterative.cardinality,
            None => {
                estimate_with(&outcome.plan, &self.catalog, &self.registry, &params).cardinality
            }
        };
        let actual_rows = result_set.rows.len() as u64;
        let fingerprint = outcome
            .report
            .cache
            .as_ref()
            .map(|activity| activity.key_hash)
            .unwrap_or_else(|| plan_fingerprint(input_plan));
        let cardinality_q = feedback.record_query(fingerprint, estimated_rows, actual_rows);
        let mut worst_q = cardinality_q;
        let udf_timings = executor.udf_runtime_snapshot();
        for runtime in &udf_timings {
            let static_units = estimated_udf_invocation_cost(
                &runtime.name,
                &self.catalog,
                &self.registry,
                &params,
            );
            worst_q = worst_q.max(feedback.record_udf(runtime, static_units));
        }
        if feedback.flag_for_invalidation(fingerprint, worst_q) {
            self.shared.plan_cache.invalidate_fingerprint(fingerprint);
        }
        (estimated_rows, cardinality_q, udf_timings)
    }

    /// Materializes the value rows of an `INSERT` (constants and constant
    /// arithmetic) against this snapshot.
    pub(crate) fn materialize_insert_rows(
        &self,
        table: &str,
        columns: Option<&[String]>,
        rows: &[Vec<decorr_algebra::ScalarExpr>],
    ) -> Result<Vec<Row>> {
        let schema = self.catalog.table_schema(table)?;
        let executor = Executor::with_config(
            Arc::clone(&self.catalog),
            Arc::clone(&self.registry),
            self.exec_config.clone(),
        );
        let env = Env::root();
        let mut materialized = vec![];
        for row in rows {
            let values: Result<Vec<Value>> =
                row.iter().map(|e| executor.eval_expr(e, &env)).collect();
            let values = values?;
            let full_row = match columns {
                None => Row::new(values),
                Some(cols) => {
                    if cols.len() != values.len() {
                        return Err(Error::Execution(format!(
                            "INSERT provides {} values for {} columns",
                            values.len(),
                            cols.len()
                        )));
                    }
                    let mut full = vec![Value::Null; schema.len()];
                    for (c, v) in cols.iter().zip(values) {
                        let idx = schema.index_of(None, c)?;
                        full[idx] = v;
                    }
                    Row::new(full)
                }
            };
            materialized.push(full_row);
        }
        Ok(materialized)
    }
}
