//! `EXPLAIN` and `EXPLAIN ANALYZE`: the optimizer's side of a query as text, and the
//! same plus one diagnostic execution.

use decorr_algebra::display::explain;
use decorr_common::Result;
use decorr_optimizer::{estimate_per_node, CostParams};
use decorr_parser::plan_select;
use decorr_storage::stats::q_error;

use crate::{ExecutionStrategy, QueryOptions, Session};

impl Session {
    /// Returns an EXPLAIN-style report: the original plan, the rewritten plan (if
    /// any), the rules that fired, the per-pass timings and rule fire counts recorded
    /// by the PassManager, and the cost-based decision.
    pub fn explain(&self, sql: &str) -> Result<String> {
        let select = decorr_parser::parse_query(sql)?;
        let plan = plan_select(&select)?;
        let pinned = self.pin(&QueryOptions::default());
        // EXPLAIN is the diagnostic entry point: always capture plan snapshots.
        let outcome = pinned.optimize_plan(&plan, ExecutionStrategy::Auto, true, None)?;
        let mut out = String::new();
        out.push_str("== original (iterative) plan ==\n");
        out.push_str(&explain(&outcome.iterative_plan));
        if let Some(rewritten) = &outcome.rewritten_plan {
            out.push_str("\n== decorrelated plan ==\n");
            out.push_str(&explain(rewritten));
            out.push_str("\n== rules applied ==\n");
            out.push_str(&outcome.applied_rules.join(", "));
            out.push('\n');
            if let Some(decision) = &outcome.decision {
                out.push_str("\n== cost-based decision ==\n");
                out.push_str(&decision.summary());
                out.push('\n');
            }
        } else {
            out.push_str("\n== decorrelation ==\nnot performed: ");
            out.push_str(&outcome.notes.join("; "));
            out.push('\n');
        }
        out.push_str("\n== optimizer passes ==\n");
        out.push_str(&outcome.report.render());
        Ok(out)
    }

    /// Like [`Session::explain`], but additionally *executes* the query and appends
    /// the runtime side of the story: the executor counters, the per-operator
    /// execution trace (morsels dispatched, per-worker row spread, rows in/out,
    /// operator wall clock), the **estimated vs actual rows per plan operator** (the
    /// statistics subsystem's accuracy, as q-errors), and the feedback the execution
    /// fed back into the cost model (measured UDF costs, recorded q-errors).
    pub fn explain_analyze(&self, sql: &str) -> Result<String> {
        let mut out = self.explain(sql)?;
        let select = decorr_parser::parse_query(sql)?;
        let plan = plan_select(&select)?;
        let pinned = self.pin(&QueryOptions::default());
        // Resolve the plan that is about to execute *before* executing it: the
        // execution's own feedback can invalidate this shape and flip the next
        // optimize's decision, and the estimates table must describe the plan the
        // actuals were recorded for. `run_plan` below re-optimizes internally, but
        // nothing executes in between, so it is served this exact cached outcome.
        let outcome = pinned.optimize_plan(&plan, ExecutionStrategy::Auto, false, None)?;
        // Execute in diagnostic mode against the *same* pinned snapshot: per-node
        // actual cardinalities are recorded, keyed by structural fingerprint.
        let mut diagnostic = pinned.clone();
        diagnostic.exec_config.collect_cardinalities = true;
        let result = diagnostic.run_plan(&plan, &QueryOptions::default())?;
        out.push_str("\n== execution ==\n");
        out.push_str(&format!(
            "rows={} parallelism={} · scanned={} index-lookups={} udf-invocations={} \
             udf-memo-hits={} udf-dedup-hits={} subqueries={} \
             hash-joins={} index-joins={} nl-joins={} morsels={} pipelined-ops={}\n",
            result.rows.len(),
            pinned.exec_config.parallelism,
            result.exec_stats.rows_scanned,
            result.exec_stats.index_lookups,
            result.exec_stats.udf_invocations,
            result.exec_stats.udf_memo_hits,
            result.exec_stats.udf_dedup_hits,
            result.exec_stats.subqueries_executed,
            result.exec_stats.hash_joins,
            result.exec_stats.index_joins,
            result.exec_stats.nested_loop_joins,
            result.exec_stats.morsels_dispatched,
            result.exec_stats.pipelined_operators,
        ));
        // Estimated vs actual rows per operator of the executed plan.
        let params = CostParams::new(pinned.exec_config.parallelism);
        let estimates =
            estimate_per_node(&outcome.plan, &pinned.catalog, &pinned.registry, &params);
        out.push_str("\n== cardinalities (estimated vs actual) ==\n");
        out.push_str(&format!(
            "{:<24} {:>12} {:>12} {:>8} {:>8}\n",
            "operator", "est rows", "actual rows", "execs", "q-error"
        ));
        for estimate in &estimates {
            match result
                .node_cardinalities
                .iter()
                .find(|n| n.fingerprint == estimate.fingerprint)
            {
                Some(actual) => out.push_str(&format!(
                    "{:<24} {:>12.0} {:>12.1} {:>8} {:>8.1}\n",
                    estimate.operator,
                    estimate.cardinality,
                    actual.mean_rows(),
                    actual.executions,
                    q_error(estimate.cardinality, actual.mean_rows()),
                )),
                None => out.push_str(&format!(
                    "{:<24} {:>12.0} {:>12} {:>8} {:>8}\n",
                    estimate.operator, estimate.cardinality, "(not run)", "-", "-"
                )),
            }
        }
        out.push_str("\n== feedback ==\n");
        out.push_str(&format!(
            "root cardinality: estimated {:.0}, actual {} (q-error {:.2})\n",
            result.estimated_rows,
            result.rows.len(),
            result.cardinality_q_error,
        ));
        for timing in &result.udf_timings {
            out.push_str(&format!(
                "udf {}: {} invocation(s), {} cache hit(s), mean {:.3} ms\n",
                timing.name,
                timing.invocations,
                timing.hits,
                timing.mean().as_secs_f64() * 1e3,
            ));
        }
        let feedback = self.engine().feedback_stats();
        out.push_str(&format!(
            "feedback store: {} quer{} recorded, {} udf(s) tracked, \
             {} invalidation(s) flagged\n",
            feedback.queries_recorded,
            if feedback.queries_recorded == 1 {
                "y"
            } else {
                "ies"
            },
            feedback.udfs_tracked,
            feedback.invalidations_flagged,
        ));
        let persist = self.engine().persist_stats();
        if persist.active {
            out.push_str(&format!(
                "durability: {} checkpoint(s), {} WAL record(s) appended ({} bytes), \
                 {} record(s) replayed on open\n",
                persist.checkpoints,
                persist.wal_records_appended,
                persist.wal_bytes_appended,
                persist.wal_records_replayed,
            ));
        }
        out.push_str("\n== parallel operators ==\n");
        out.push_str(&result.exec_trace.render());
        Ok(out)
    }
}
