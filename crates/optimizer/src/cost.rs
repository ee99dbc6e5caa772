//! Cardinality estimation and a cost model over logical plans.
//!
//! The estimator consumes the statistics subsystem (`storage::stats`'s
//! [`TableStatistics`](decorr_storage::TableStatistics), cached per table): equality predicates use MCV lists and distinct counts, range
//! predicates (`<`, `>`, `BETWEEN`) use equi-depth histograms when a sampled `ANALYZE`
//! has run, and grouped aggregates use group-column distinct counts. Where statistics
//! do not resolve a term, the constants below stand in. The runtime feedback loop
//! (`crate::feedback`) replaces the static per-UDF body estimate with *measured*
//! invocation costs through [`CostParams::learned`].

use std::collections::BTreeMap;

use decorr_algebra::{BinaryOp, JoinKind, RelExpr, ScalarExpr};
use decorr_common::{normalize_ident, Value};
use decorr_exec::index_join;
use decorr_storage::Catalog;
use decorr_udf::{FunctionRegistry, LearnedUdf, Statement};

/// Output fraction of a semi/anti join relative to its left input.
const SEMI_JOIN_SELECTIVITY: f64 = 0.5;
/// Output fraction of a non-equi join relative to the cross product.
const NON_EQUI_JOIN_SELECTIVITY: f64 = 0.1;
/// Group count as a fraction of the input when the group columns' distinct counts are
/// unknown.
const GROUP_COUNT_FRACTION: f64 = 0.5;
/// Per-invocation discount of a correlated inner plan relative to a full evaluation
/// (index-assisted execution).
const CORRELATED_DISCOUNT: f64 = 0.01;
/// Selectivity of an equality predicate when no statistics resolve it.
const DEFAULT_EQUALITY_SELECTIVITY: f64 = 0.1;
/// Selectivity of one comparison bound when no histogram resolves it.
const DEFAULT_RANGE_SELECTIVITY: f64 = 0.3;
/// Selectivity of an unclassifiable predicate conjunct.
const DEFAULT_PREDICATE_SELECTIVITY: f64 = 0.5;

/// Wall-clock seconds one abstract row operation is worth in this interpreted engine —
/// the bridge between measured UDF wall-clock and the model's row-op units. Every other
/// term of the model is in abstract units, so this constant alone places the
/// iterative/decorrelated switch: whenever the executor gets faster, measured
/// invocations shrink against the decorrelated plan's fixed estimate and the switch
/// moves up. Calibrated on Experiment 2 (a `service_level` call measures ~4.8 µs, the
/// decorrelated plan is priced at ~144 000 units) so the switch sits near 9 000
/// invocations, between the measured crossover (~8 000) and well below the
/// 12 000-invocation top point.
pub(crate) const ROW_OP_SECONDS: f64 = 3.5e-7;

/// The estimated cardinality and abstract cost (row operations) of a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostEstimate {
    pub cardinality: f64,
    pub cost: f64,
}

impl CostEstimate {
    fn new(cardinality: f64, cost: f64) -> CostEstimate {
        CostEstimate {
            cardinality: cardinality.max(1.0),
            cost: cost.max(0.0),
        }
    }
}

/// Runtime parameters the cost model calibrates against: the executor's worker-pool
/// size and what the feedback loop has learned per UDF.
#[derive(Debug, Clone, PartialEq)]
pub struct CostParams {
    /// The executor's `ExecConfig::parallelism`. Data-parallel operators (scans,
    /// filters, projections, hash joins, hash aggregation and the morsel-parallel
    /// Apply loops) divide their incremental cost by the effective speedup.
    pub parallelism: usize,
    /// What the feedback store has learned per UDF, keyed by normalized name: a learned
    /// invocation cost replaces the static body estimate in [`estimate_with`], and a
    /// learned dedup fraction scales the per-call cost so strategy choice compares
    /// *effective* invocation counts, not raw ones.
    pub learned: BTreeMap<String, LearnedUdf>,
}

/// Measured morsel-pool scaling is sub-linear (merge overheads and skew), so each
/// extra worker contributes this fraction of a perfectly parallel worker.
///
/// 0.85 was set when a persistent pool replaced an earlier scoped fan-out (0.7 then).
/// Dispatch is scoped again and the value is deliberately not retuned: a helper spawn
/// measures 16–36 µs against a smallest fanned-out operator of over a thousand rows, so
/// what the constant prices is still the morsel-merge and skew overhead. ROADMAP item 3
/// re-measures it together with the verdict on parallel execution as a whole.
const PARALLEL_EFFICIENCY: f64 = 0.85;

impl CostParams {
    /// Parameters for `parallelism` threads per operator, with nothing learned yet.
    pub fn new(parallelism: usize) -> CostParams {
        CostParams {
            parallelism: parallelism.max(1),
            learned: BTreeMap::new(),
        }
    }

    /// What the feedback loop has learned about a UDF (nothing, if it has no entry).
    fn learned_for(&self, name: &str) -> LearnedUdf {
        self.learned
            .get(&normalize_ident(name))
            .copied()
            .unwrap_or_default()
    }

    /// The divisor applied to data-parallel operator costs: `1` when serial, and a
    /// sub-linear function of the worker count otherwise.
    pub fn effective_parallelism(&self) -> f64 {
        1.0 + PARALLEL_EFFICIENCY * (self.parallelism.max(1) - 1) as f64
    }
}

/// The per-node estimate of one plan operator, keyed by the subtree's structural
/// fingerprint so it can be joined against the executor's per-node actuals (the
/// `collect_cardinalities` trace) to compute q-errors.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeEstimate {
    /// [`RelExpr::fingerprint`] of the subtree rooted at this operator.
    pub fingerprint: u64,
    /// Operator name (`Scan`, `Select`, `Join`, …).
    pub operator: String,
    pub cardinality: f64,
    pub cost: f64,
}

/// Estimates every operator of `plan` (pre-order), for estimate-vs-actual accuracy
/// reporting. Subtree estimates are recomputed per node, which is quadratic in plan
/// depth — fine for the tree sizes this engine optimizes, and only diagnostic paths
/// (EXPLAIN ANALYZE, the accuracy tests) call it.
pub fn estimate_per_node(
    plan: &RelExpr,
    catalog: &Catalog,
    registry: &FunctionRegistry,
    params: &CostParams,
) -> Vec<NodeEstimate> {
    fn walk(
        plan: &RelExpr,
        catalog: &Catalog,
        registry: &FunctionRegistry,
        params: &CostParams,
        out: &mut Vec<NodeEstimate>,
    ) {
        let est = estimate_with(plan, catalog, registry, params);
        out.push(NodeEstimate {
            fingerprint: plan.fingerprint(),
            operator: plan.name().to_string(),
            cardinality: est.cardinality,
            cost: est.cost,
        });
        for child in plan.children() {
            walk(child, catalog, registry, params, out);
        }
    }
    let mut out = vec![];
    walk(plan, catalog, registry, params, &mut out);
    out
}

/// The static (model-derived) cost of one invocation of a named UDF: the cost of the
/// queries inside its body, discounted for index-assisted correlated execution. This
/// is the number the feedback loop compares measured invocation costs against.
pub fn estimated_udf_invocation_cost(
    name: &str,
    catalog: &Catalog,
    registry: &FunctionRegistry,
    params: &CostParams,
) -> Option<f64> {
    registry
        .udf(name)
        .ok()
        .map(|udf| udf_body_cost(&udf.body, catalog, registry, params))
}

/// Full estimate (cardinality and cost) calibrated for the given runtime parameters.
pub fn estimate_with(
    plan: &RelExpr,
    catalog: &Catalog,
    registry: &FunctionRegistry,
    params: &CostParams,
) -> CostEstimate {
    let par = params.effective_parallelism();
    match plan {
        RelExpr::Single => CostEstimate::new(1.0, 0.0),
        RelExpr::Values { rows, .. } => CostEstimate::new(rows.len() as f64, rows.len() as f64),
        RelExpr::Scan { table, .. } => {
            let rows = catalog
                .table(table)
                .map(|t| t.row_count() as f64)
                .unwrap_or(1000.0);
            CostEstimate::new(rows, rows / par)
        }
        RelExpr::Select { input, predicate } => {
            let input_est = estimate_with(input, catalog, registry, params);
            let selectivity = predicate_selectivity(predicate, input, catalog);
            CostEstimate::new(
                input_est.cardinality * selectivity,
                input_est.cost + input_est.cardinality / par,
            )
        }
        RelExpr::Project { input, items, .. } => {
            let input_est = estimate_with(input, catalog, registry, params);
            // Each UDF invocation in the projection costs one execution of the queries in
            // its body per input row — this is the "iterative plan" cost the paper is
            // eliminating. Learned invocation costs (feedback) take precedence over the
            // static body estimate inside `udf_cost_of_expr`.
            let per_row_udf_cost: f64 = items
                .iter()
                .map(|i| udf_cost_of_expr(&i.expr, catalog, registry, params))
                .sum();
            CostEstimate::new(
                input_est.cardinality,
                input_est.cost + input_est.cardinality * (1.0 + per_row_udf_cost) / par,
            )
        }
        RelExpr::Aggregate {
            input, group_by, ..
        } => {
            let input_est = estimate_with(input, catalog, registry, params);
            let groups = if group_by.is_empty() {
                1.0
            } else {
                estimate_group_count(group_by, input, catalog, input_est.cardinality)
            };
            CostEstimate::new(groups, input_est.cost + input_est.cardinality / par)
        }
        RelExpr::Join {
            left,
            right,
            kind,
            condition,
        } => {
            let l = estimate_with(left, catalog, registry, params);
            if let Some(join) = index_join(catalog, right, condition.as_ref()) {
                // An index nested-loop join: one probe per left row, each finding the
                // index's mean rows per key. The right table is neither scanned nor
                // built.
                let per_probe =
                    join.table.row_count() as f64 / join.index.distinct_keys().max(1) as f64;
                let output = match kind {
                    JoinKind::LeftSemi | JoinKind::LeftAnti => {
                        l.cardinality * SEMI_JOIN_SELECTIVITY
                    }
                    JoinKind::LeftOuter => l.cardinality * per_probe.max(1.0),
                    _ => l.cardinality * per_probe,
                };
                return CostEstimate::new(output, l.cost + l.cardinality / par);
            }
            let r = estimate_with(right, catalog, registry, params);
            let has_equi = condition
                .as_ref()
                .map(|c| {
                    c.split_conjuncts().iter().any(|cj| {
                        matches!(
                            cj,
                            ScalarExpr::Binary {
                                op: BinaryOp::Eq,
                                ..
                            }
                        )
                    })
                })
                .unwrap_or(false);
            let output = match kind {
                JoinKind::Cross => l.cardinality * r.cardinality,
                JoinKind::LeftSemi | JoinKind::LeftAnti => l.cardinality * SEMI_JOIN_SELECTIVITY,
                _ if has_equi => (l.cardinality).max(r.cardinality),
                _ => l.cardinality * r.cardinality * NON_EQUI_JOIN_SELECTIVITY,
            };
            // Hash join when an equality condition exists, nested loops otherwise.
            let join_cost = if has_equi {
                l.cardinality + r.cardinality
            } else {
                l.cardinality * r.cardinality
            };
            CostEstimate::new(output, l.cost + r.cost + join_cost / par)
        }
        RelExpr::Union { left, right, .. } => {
            let l = estimate_with(left, catalog, registry, params);
            let r = estimate_with(right, catalog, registry, params);
            CostEstimate::new(l.cardinality + r.cardinality, l.cost + r.cost)
        }
        RelExpr::Sort { input, .. } => {
            let e = estimate_with(input, catalog, registry, params);
            let sort_cost = e.cardinality * (e.cardinality.max(2.0)).log2();
            CostEstimate::new(e.cardinality, e.cost + sort_cost)
        }
        RelExpr::Limit { input, limit } => {
            let e = estimate_with(input, catalog, registry, params);
            CostEstimate::new((*limit as f64).min(e.cardinality), e.cost)
        }
        RelExpr::Rename { input, .. } => estimate_with(input, catalog, registry, params),
        RelExpr::Apply { left, right, .. } => {
            // Correlated evaluation: the inner expression runs once per outer row. The
            // executor morsel-parallelizes the Apply loop over its outer rows, so the
            // per-row inner cost scales down with the pool like the set-oriented
            // operators do.
            let l = estimate_with(left, catalog, registry, params);
            let r = estimate_with(right, catalog, registry, params);
            CostEstimate::new(
                l.cardinality * r.cardinality.max(1.0),
                l.cost + l.cardinality * (r.cost * CORRELATED_DISCOUNT).max(1.0) / par,
            )
        }
        RelExpr::ApplyMerge { left, right, .. }
        | RelExpr::ConditionalApplyMerge {
            left,
            then_branch: right,
            ..
        } => {
            let l = estimate_with(left, catalog, registry, params);
            let r = estimate_with(right, catalog, registry, params);
            CostEstimate::new(
                l.cardinality,
                l.cost + l.cardinality * (r.cost * CORRELATED_DISCOUNT).max(1.0) / par,
            )
        }
    }
}

/// Group-count estimate: when every grouping expression is a column whose base-table
/// distinct count is known, the group count is the product of the distinct counts
/// (capped by the input cardinality); otherwise a fixed input fraction.
fn estimate_group_count(
    group_by: &[ScalarExpr],
    input: &RelExpr,
    catalog: &Catalog,
    input_cardinality: f64,
) -> f64 {
    let stats = base_table_of(input)
        .and_then(|t| catalog.table(&t).ok())
        .map(|t| t.stats());
    if let Some(stats) = &stats {
        let mut ndv_product = 1.0f64;
        let mut all_resolved = true;
        for g in group_by {
            match g {
                ScalarExpr::Column(c) if stats.column(&c.name).is_some() => {
                    ndv_product *= stats.distinct_count(&c.name) as f64;
                }
                _ => {
                    all_resolved = false;
                    break;
                }
            }
        }
        if all_resolved {
            return ndv_product.clamp(1.0, input_cardinality.max(1.0));
        }
    }
    (input_cardinality * GROUP_COUNT_FRACTION).max(1.0)
}

/// One conjunct, classified for selectivity estimation.
enum ConjunctClass {
    /// `col = value` (value `None` when the comparison side is not a literal, column
    /// `None` when neither side is a plain column).
    Equality {
        column: Option<String>,
        value: Option<Value>,
    },
    /// A single numeric bound on a column: `col < v`, `v <= col`, … normalized to the
    /// column-on-the-left orientation.
    Bound {
        column: String,
        lo: Option<(f64, bool)>,
        hi: Option<(f64, bool)>,
    },
    /// A comparison the histogram cannot serve (non-literal side, string bound, `<>`).
    OpaqueComparison,
    /// Anything else.
    Other,
}

fn classify_conjunct(conjunct: &ScalarExpr) -> ConjunctClass {
    let ScalarExpr::Binary { op, left, right } = conjunct else {
        return ConjunctClass::Other;
    };
    // Identify (column, literal) in either orientation; `flipped` means the literal is
    // on the left, so the comparison direction reverses.
    let (column, literal, flipped) = match (left.as_ref(), right.as_ref()) {
        (ScalarExpr::Column(c), ScalarExpr::Literal(v)) => (Some(c), Some(v), false),
        (ScalarExpr::Literal(v), ScalarExpr::Column(c)) => (Some(c), Some(v), true),
        (ScalarExpr::Column(c), _) => (Some(c), None, false),
        (_, ScalarExpr::Column(c)) => (Some(c), None, true),
        _ => (None, None, false),
    };
    match op {
        BinaryOp::Eq => ConjunctClass::Equality {
            column: column.map(|c| c.name.clone()),
            value: literal.cloned(),
        },
        BinaryOp::Lt | BinaryOp::LtEq | BinaryOp::Gt | BinaryOp::GtEq => {
            let (Some(column), Some(literal)) = (column, literal) else {
                return ConjunctClass::OpaqueComparison;
            };
            let Ok(bound) = literal.as_float() else {
                return ConjunctClass::OpaqueComparison; // non-numeric bound
            };
            // Normalize to column-left orientation: `v < col` is `col > v`.
            let effective = if flipped {
                match op {
                    BinaryOp::Lt => BinaryOp::Gt,
                    BinaryOp::LtEq => BinaryOp::GtEq,
                    BinaryOp::Gt => BinaryOp::Lt,
                    BinaryOp::GtEq => BinaryOp::LtEq,
                    _ => unreachable!(),
                }
            } else {
                *op
            };
            let (lo, hi) = match effective {
                BinaryOp::Lt => (None, Some((bound, false))),
                BinaryOp::LtEq => (None, Some((bound, true))),
                BinaryOp::Gt => (Some((bound, false)), None),
                BinaryOp::GtEq => (Some((bound, true)), None),
                _ => unreachable!(),
            };
            ConjunctClass::Bound {
                column: column.name.clone(),
                lo,
                hi,
            }
        }
        op if op.is_comparison() => ConjunctClass::OpaqueComparison,
        _ => ConjunctClass::Other,
    }
}

fn predicate_selectivity(predicate: &ScalarExpr, input: &RelExpr, catalog: &Catalog) -> f64 {
    let stats = base_table_of(input)
        .and_then(|t| catalog.table(&t).ok())
        .map(|t| t.stats());
    let mut selectivity = 1.0;
    // Range conjuncts on the same column fold into one interval before the histogram
    // is consulted: `col >= lo AND col <= hi` (BETWEEN) is a single range fraction,
    // not two independent guesses. `(lo, hi, bound_count)` per column.
    type Interval = (Option<(f64, bool)>, Option<(f64, bool)>, u32);
    let mut intervals: BTreeMap<String, Interval> = BTreeMap::new();
    for conjunct in predicate.split_conjuncts() {
        match classify_conjunct(&conjunct) {
            ConjunctClass::Equality { column, value } => {
                selectivity *= match (&stats, column) {
                    (Some(stats), Some(column)) => match value {
                        Some(value) => stats.equality_selectivity_value(&column, &value),
                        None => stats.equality_selectivity(&column),
                    },
                    _ => DEFAULT_EQUALITY_SELECTIVITY,
                };
            }
            ConjunctClass::Bound { column, lo, hi } => {
                let entry = intervals.entry(column).or_insert((None, None, 0));
                // Keep the tightest bounds: largest lower / smallest upper, and on
                // equal values the exclusive variant (x > 5 is tighter than x >= 5).
                if let Some((v, inclusive)) = lo {
                    entry.0 = match entry.0 {
                        Some((cur, cur_inc)) if cur > v => Some((cur, cur_inc)),
                        Some((cur, cur_inc)) if cur == v => Some((cur, cur_inc && inclusive)),
                        _ => Some((v, inclusive)),
                    };
                }
                if let Some((v, inclusive)) = hi {
                    entry.1 = match entry.1 {
                        Some((cur, cur_inc)) if cur < v => Some((cur, cur_inc)),
                        Some((cur, cur_inc)) if cur == v => Some((cur, cur_inc && inclusive)),
                        _ => Some((v, inclusive)),
                    };
                }
                entry.2 += 1;
            }
            ConjunctClass::OpaqueComparison => selectivity *= DEFAULT_RANGE_SELECTIVITY,
            ConjunctClass::Other => selectivity *= DEFAULT_PREDICATE_SELECTIVITY,
        }
    }
    for (column, (lo, hi, bounds)) in intervals {
        let from_histogram = stats
            .as_ref()
            .and_then(|s| s.range_selectivity(&column, lo, hi));
        selectivity *= match from_histogram {
            Some(fraction) => fraction.max(0.0),
            // No histogram: the seed behaviour — one default factor per bound.
            None => DEFAULT_RANGE_SELECTIVITY.powi(bounds as i32),
        };
    }
    selectivity.clamp(0.000_001, 1.0)
}

fn base_table_of(plan: &RelExpr) -> Option<String> {
    match plan {
        RelExpr::Scan { table, .. } => Some(table.clone()),
        RelExpr::Select { input, .. }
        | RelExpr::Project { input, .. }
        | RelExpr::Limit { input, .. }
        | RelExpr::Rename { input, .. } => base_table_of(input),
        _ => None,
    }
}

/// Per-invocation cost of the UDF calls contained in an expression: the learned
/// (feedback-measured) invocation cost when one exists, otherwise the static cost of
/// the queries inside the UDF body discounted for index-assisted correlated execution.
fn udf_cost_of_expr(
    expr: &ScalarExpr,
    catalog: &Catalog,
    registry: &FunctionRegistry,
    params: &CostParams,
) -> f64 {
    let mut total = 0.0;
    if let ScalarExpr::UdfCall { name, .. } = expr {
        // Per-call cost (learned when available) scaled by the effective fraction of
        // calls the dedup/memo runtime actually evaluates.
        let learned = params.learned_for(name);
        let fraction = learned.dedup_fraction.map_or(1.0, |f| f.clamp(0.0, 1.0));
        if let Some(units) = learned.units {
            total += units * fraction;
        } else if let Ok(udf) = registry.udf(name) {
            total += udf_body_cost(&udf.body, catalog, registry, params) * fraction;
        }
    }
    for child in expr.children() {
        total += udf_cost_of_expr(child, catalog, registry, params);
    }
    total
}

fn udf_body_cost(
    body: &[Statement],
    catalog: &Catalog,
    registry: &FunctionRegistry,
    params: &CostParams,
) -> f64 {
    let mut total = 1.0; // imperative statements are cheap but not free
    for stmt in body {
        match stmt {
            Statement::SelectInto { query, .. } => {
                total += estimate_with(query, catalog, registry, params).cost * CORRELATED_DISCOUNT;
            }
            Statement::CursorLoop { query, body, .. } => {
                let inner = estimate_with(query, catalog, registry, params);
                total += inner.cost * CORRELATED_DISCOUNT
                    + inner.cardinality * udf_body_cost(body, catalog, registry, params);
            }
            Statement::While { body, .. } => {
                total += 10.0 * udf_body_cost(body, catalog, registry, params);
            }
            Statement::If {
                then_branch,
                else_branch,
                ..
            } => {
                total += udf_body_cost(then_branch, catalog, registry, params).max(udf_body_cost(
                    else_branch,
                    catalog,
                    registry,
                    params,
                ));
            }
            Statement::Assign {
                expr: ScalarExpr::ScalarSubquery(q),
                ..
            }
            | Statement::Return {
                expr: Some(ScalarExpr::ScalarSubquery(q)),
            } => {
                total += estimate_with(q, catalog, registry, params).cost * CORRELATED_DISCOUNT;
            }
            _ => {}
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::{Column, DataType, Row, Schema, Value};
    use decorr_parser::{parse_and_plan, parse_function};

    /// The serial estimate with nothing learned.
    fn estimate(plan: &RelExpr, catalog: &Catalog, registry: &FunctionRegistry) -> CostEstimate {
        estimate_with(plan, catalog, registry, &CostParams::new(1))
    }

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.create_table(
            "orders",
            Schema::new(vec![
                Column::new("orderkey", DataType::Int),
                Column::new("custkey", DataType::Int),
                Column::new("totalprice", DataType::Float),
            ]),
        )
        .unwrap();
        let rows: Vec<Row> = (0..1000i64)
            .map(|i| {
                Row::new(vec![
                    Value::Int(i),
                    Value::Int(i % 50),
                    Value::Float(i as f64),
                ])
            })
            .collect();
        c.insert_rows("orders", rows).unwrap();
        c.create_table(
            "customer",
            Schema::new(vec![Column::new("custkey", DataType::Int)]),
        )
        .unwrap();
        c.insert_rows(
            "customer",
            (0..50i64).map(|i| Row::new(vec![Value::Int(i)])).collect(),
        )
        .unwrap();
        c
    }

    #[test]
    fn scan_and_filter_cardinalities() {
        let catalog = catalog();
        let registry = FunctionRegistry::new();
        let scan = parse_and_plan("select * from orders").unwrap();
        assert_eq!(estimate(&scan, &catalog, &registry).cardinality, 1000.0);
        let filtered = parse_and_plan("select * from orders where custkey = 7").unwrap();
        let card = estimate(&filtered, &catalog, &registry).cardinality;
        assert!((card - 20.0).abs() < 1.0, "expected ~20 rows, got {card}");
    }

    #[test]
    fn histograms_sharpen_range_estimates() {
        let mut catalog = catalog();
        let registry = FunctionRegistry::new();
        let narrow = parse_and_plan("select * from orders where orderkey <= 100").unwrap();
        // Unanalyzed: the default range constant wildly overestimates (0.3 × 1000).
        let before = estimate(&narrow, &catalog, &registry).cardinality;
        assert!((before - 300.0).abs() < 1.0, "default estimate {before}");
        catalog.analyze_table("orders").unwrap();
        let after = estimate(&narrow, &catalog, &registry).cardinality;
        assert!(
            (after - 101.0).abs() < 25.0,
            "histogram estimate {after} for ~101 actual rows"
        );
        // BETWEEN-style conjunct pairs fold into one interval, not two 30% guesses.
        let between =
            parse_and_plan("select * from orders where orderkey >= 200 and orderkey <= 399")
                .unwrap();
        let est = estimate(&between, &catalog, &registry).cardinality;
        assert!((est - 200.0).abs() < 50.0, "between estimate {est}");
    }

    #[test]
    fn group_counts_use_distinct_statistics() {
        let catalog = catalog();
        let registry = FunctionRegistry::new();
        let grouped =
            parse_and_plan("select custkey, sum(totalprice) from orders group by custkey").unwrap();
        let groups = estimate(&grouped, &catalog, &registry).cardinality;
        // Seed model said input/2 = 500; the statistics know there are 50 custkeys.
        assert!((groups - 50.0).abs() < 1.0, "group estimate {groups}");
    }

    #[test]
    fn iterative_udf_plan_costs_scale_with_outer_cardinality() {
        let catalog = catalog();
        let mut registry = FunctionRegistry::new();
        registry.register_udf(
            parse_function(
                "create function tb(int ckey) returns float as \
                 begin return select sum(totalprice) from orders where custkey = :ckey; end",
            )
            .unwrap(),
        );
        let small =
            parse_and_plan("select custkey, tb(custkey) from customer where custkey = 3").unwrap();
        let large = parse_and_plan("select custkey, tb(custkey) from customer").unwrap();
        let small_cost = estimate(&small, &catalog, &registry).cost;
        let large_cost = estimate(&large, &catalog, &registry).cost;
        assert!(
            large_cost > small_cost,
            "iterative cost must grow with the number of invocations ({small_cost} vs {large_cost})"
        );
    }

    #[test]
    fn learned_udf_costs_override_the_static_estimate() {
        let catalog = catalog();
        let mut registry = FunctionRegistry::new();
        registry.register_udf(
            parse_function(
                "create function tb(int ckey) returns float as \
                 begin return select sum(totalprice) from orders where custkey = :ckey; end",
            )
            .unwrap(),
        );
        let plan = parse_and_plan("select custkey, tb(custkey) from customer").unwrap();
        let static_params = CostParams::new(1);
        let static_cost = estimate_with(&plan, &catalog, &registry, &static_params).cost;
        let static_per_invocation =
            estimated_udf_invocation_cost("tb", &catalog, &registry, &static_params)
                .expect("tb is registered");
        assert!(static_per_invocation > 1.0);
        // Feedback learned the UDF is 100x more expensive than modelled.
        let units = Some(static_per_invocation * 100.0);
        let learned = CostParams {
            learned: [(
                "tb".to_string(),
                LearnedUdf {
                    units,
                    ..LearnedUdf::default()
                },
            )]
            .into(),
            ..static_params
        };
        assert_eq!(
            learned.learned_for("TB").units,
            units,
            "the lookup is case-normalized"
        );
        let learned_cost = estimate_with(&plan, &catalog, &registry, &learned).cost;
        assert!(
            learned_cost > static_cost * 10.0,
            "learned {learned_cost} must dominate static {static_cost}"
        );
    }

    #[test]
    fn per_node_estimates_cover_the_whole_tree() {
        let catalog = catalog();
        let registry = FunctionRegistry::new();
        let plan = parse_and_plan("select custkey from orders where custkey = 7").unwrap();
        let nodes = estimate_per_node(&plan, &catalog, &registry, &CostParams::new(1));
        assert_eq!(nodes.len(), plan.node_count());
        assert_eq!(nodes[0].fingerprint, plan.fingerprint());
        assert!(nodes.iter().any(|n| n.operator == "Scan"));
        // The root's estimate matches the plain estimator.
        let root = estimate(&plan, &catalog, &registry).cardinality;
        assert_eq!(nodes[0].cardinality, root);
    }

    #[test]
    fn hash_join_costs_less_than_cross_product() {
        let catalog = catalog();
        let registry = FunctionRegistry::new();
        let join = parse_and_plan(
            "select o.orderkey from customer c join orders o on c.custkey = o.custkey",
        )
        .unwrap();
        let cross = parse_and_plan("select o.orderkey from customer c, orders o").unwrap();
        assert!(
            estimate(&join, &catalog, &registry).cost < estimate(&cross, &catalog, &registry).cost
        );
        // A semi join keeps half its left input.
        let semi = RelExpr::Join {
            left: Box::new(RelExpr::scan("orders")),
            right: Box::new(RelExpr::scan("customer")),
            kind: JoinKind::LeftSemi,
            condition: None,
        };
        let semi = estimate(&semi, &catalog, &registry).cardinality;
        assert!((semi - 500.0).abs() < 1.0, "semi join estimate {semi}");
    }

    #[test]
    fn apply_costs_reflect_correlated_execution() {
        let catalog = catalog();
        let registry = FunctionRegistry::new();
        let correlated = decorr_algebra::RelExpr::Apply {
            left: Box::new(decorr_algebra::RelExpr::scan("orders")),
            right: Box::new(
                parse_and_plan("select sum(totalprice) from orders where custkey = :ckey").unwrap(),
            ),
            kind: decorr_algebra::ApplyKind::Cross,
            bindings: vec![],
        };
        let flat =
            parse_and_plan("select custkey, sum(totalprice) from orders group by custkey").unwrap();
        assert!(
            estimate(&correlated, &catalog, &registry).cost
                > estimate(&flat, &catalog, &registry).cost
        );
    }
}
