//! Probe of the fanned-out executor path, which no benchmark workload drives: every gated
//! metric runs at `parallelism = 1`. Times the three experiments' top queries at the
//! benchmark's scales under both strategies, inline and fanned out, with the UDF memo
//! and the per-query dedup tier off (the paper's "every tuple pays the call").
//!
//! ```text
//! cargo run --release --example pool_probe                  # parallelism 1 and host cores
//! cargo run --release --example pool_probe -- --parallelism 4
//! cargo run --release --example pool_probe -- --tiny        # smoke: tiny data, one run per cell
//! ```
//!
//! One tab-separated line per (query, strategy, parallelism) cell; a fanned-out cell is
//! followed by its per-operator trace. To compare two commits, build this file in each
//! checkout into its own target directory and alternate the two binaries
//! (`.claude/skills/verify/SKILL.md`): the counters must be equal before a time is worth
//! reading.

use std::time::Instant;

use udf_decorrelation::engine::{ExecutionStrategy, QueryOptions};
use udf_decorrelation::exec::ExecConfig;
use udf_decorrelation::prelude::*;
use udf_decorrelation::tpch::{experiment1, experiment2, experiment3, load, TpchConfig, Workload};

const WARM_UPS: usize = 2;
const TIMED_RUNS: usize = 15;

/// `benchmark/src/spec.rs`'s data shape: no lineitems, 25 customer categories, seed 42.
fn data(
    customers: usize,
    orders_per_customer: usize,
    parts: usize,
    categories: usize,
) -> TpchConfig {
    TpchConfig {
        customers,
        orders_per_customer,
        lineitems_per_order: 0,
        parts,
        categories,
        customer_categories: 25,
        seed: 42,
    }
}

fn main() -> Result<()> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let tiny = args.iter().any(|a| a == "--tiny");
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let parallelism = match args.iter().position(|a| a == "--parallelism") {
        Some(i) => args.get(i + 1).and_then(|n| n.parse().ok()).unwrap_or(2),
        None => cores.max(2),
    };
    println!("host cores {cores}, parallelism 1 and {parallelism}");
    // (label, workload, data, invocations at the benchmark's top sweep point).
    let cells: [(&str, Workload, TpchConfig, usize); 3] = [
        ("fig10", experiment1(), data(5_000, 10, 100, 10), 20_000),
        ("fig11", experiment2(), data(12_000, 4, 100, 10), 12_000),
        ("fig12", experiment3(), data(20, 10, 5_000, 400), 200),
    ];
    for (figure, workload, config, invocations) in cells {
        let engine = load(&if tiny { TpchConfig::tiny() } else { config })?;
        engine.analyze();
        workload.install(&engine)?;
        let session = engine.session();
        let sql = (workload.query)(invocations);
        for strategy in [
            ExecutionStrategy::Iterative,
            ExecutionStrategy::Decorrelated,
        ] {
            for parallelism in [1, parallelism] {
                let options = QueryOptions {
                    strategy,
                    exec_config: Some(ExecConfig {
                        parallelism,
                        // Tiny tables fit one default morsel and would never fan out.
                        morsel_size: if tiny {
                            16
                        } else {
                            ExecConfig::default().morsel_size
                        },
                        udf_memoization: false,
                        udf_batching: false,
                        ..ExecConfig::default()
                    }),
                    ..QueryOptions::default()
                };
                let (warm_ups, runs) = if tiny { (0, 1) } else { (WARM_UPS, TIMED_RUNS) };
                for _ in 0..warm_ups {
                    session.query_with(&sql, &options)?;
                }
                let mut millis = Vec::with_capacity(runs);
                let mut last = None;
                for _ in 0..runs {
                    let start = Instant::now();
                    let result = session.query_with(&sql, &options)?;
                    millis.push(start.elapsed().as_secs_f64() * 1e3);
                    last = Some(result);
                }
                millis.sort_by(f64::total_cmp);
                let result = last.expect("at least one timed run");
                let stats = &result.exec_stats;
                println!(
                    "{figure}\t{strategy:?}\tp={parallelism}\tmedian_ms={:.2}\trows={}\t\
                     udf_invocations={}\trows_scanned={}\thash_joins={}\tparallel_operators={}",
                    millis[millis.len() / 2],
                    result.rows.len(),
                    stats.udf_invocations,
                    stats.rows_scanned,
                    stats.hash_joins,
                    stats.parallel_operators,
                );
                if parallelism > 1 {
                    print!("{}", result.exec_trace.render());
                }
            }
        }
    }
    Ok(())
}
