//! The paper's standalone query-rewrite tool (Figure 9), as a program: feed it a schema,
//! UDF definitions and a query; it prints the decorrelated SQL plus any auxiliary
//! aggregate definitions (Example 6) without executing anything.
//!
//! ```text
//! cargo run --example rewrite_tool
//! ```

use udf_decorrelation::prelude::*;
use udf_decorrelation::tpch::{experiment1, experiment2, experiment3, load, TpchConfig};

fn main() -> Result<()> {
    // The schema comes from the generated catalog; the data itself is irrelevant for
    // rewriting, so the tiny configuration is enough.
    let engine = load(&TpchConfig::tiny())?;
    let session = engine.session();

    for workload in [experiment1(), experiment2(), experiment3()] {
        workload.install(&engine)?;
        let sql = (workload.query)(1_000);
        println!("==================================================================");
        println!("-- {}", workload.name);
        println!("-- original query:\n--   {sql}\n");
        let report = session.rewrite_sql(&sql)?;
        if report.decorrelated {
            println!(
                "-- rewritten (decorrelated) query:\n{}\n",
                report.rewritten_sql
            );
            if !report.auxiliary_functions.is_empty() {
                println!("-- auxiliary aggregate definitions:");
                for aux in &report.auxiliary_functions {
                    println!("{aux}\n");
                }
            }
            println!("-- rules applied: {}\n", report.applied_rules.join(", "));
        } else {
            println!("-- not decorrelated: {}\n", report.notes.join("; "));
        }
    }
    Ok(())
}
