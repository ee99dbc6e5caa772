//! Experiment 2 end to end on generated TPC-H-style data: compare the iterative and
//! decorrelated executions of the paper's `service_level` UDF (Example 1 → Example 2).
//!
//! ```text
//! cargo run --release --example service_level
//! ```

use std::time::Instant;

use udf_decorrelation::engine::QueryOptions;
use udf_decorrelation::prelude::*;
use udf_decorrelation::tpch::{experiment2, load, TpchConfig};

fn main() -> Result<()> {
    // ~2000 customers / 20000 orders: a laptop-scale stand-in for the paper's TPC-H 10GB.
    let config = TpchConfig::default();
    let engine = load(&config)?;
    let session = engine.session();
    let workload = experiment2();
    workload.install(&engine)?;

    println!("{}\n", workload.name);
    for invocations in [100usize, 500, 1_000, 2_000] {
        let sql = (workload.query)(invocations);

        let start = Instant::now();
        let iterative = session.query_with(&sql, &QueryOptions::iterative())?;
        let iterative_time = start.elapsed();

        let start = Instant::now();
        let decorrelated = session.query_with(&sql, &QueryOptions::decorrelated())?;
        let decorrelated_time = start.elapsed();

        assert_eq!(
            iterative.canonical_projection(&["custkey", "level"])?,
            decorrelated.canonical_projection(&["custkey", "level"])?,
            "strategies must agree"
        );
        println!(
            "{invocations:>6} invocations: iterative {:>8.2} ms ({} UDF calls)   decorrelated {:>8.2} ms ({} hash joins)",
            iterative_time.as_secs_f64() * 1e3,
            iterative.exec_stats.udf_invocations,
            decorrelated_time.as_secs_f64() * 1e3,
            decorrelated.exec_stats.hash_joins,
        );
    }

    // Show the rewritten SQL the standalone tool would hand to a commercial database.
    let report = session.rewrite_sql(&(workload.query)(2_000))?;
    println!("\nrewritten SQL:\n{}", report.rewritten_sql);
    Ok(())
}
