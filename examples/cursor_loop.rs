//! Cursor-loop decorrelation (Section VII): the paper's Example 5 `totalloss` UDF is
//! turned into an auxiliary aggregate (Example 6) and the query becomes a set-oriented
//! group-by.
//!
//! ```text
//! cargo run --example cursor_loop
//! ```

use udf_decorrelation::engine::QueryOptions;
use udf_decorrelation::prelude::*;
use udf_decorrelation::tpch::{load, TpchConfig};

fn main() -> Result<()> {
    let engine = load(&TpchConfig::tiny())?;
    let session = engine.session();

    // Example 5 of the paper.
    engine.register_function(
        "create function totalloss(int pkey, float cost) returns float as \
         begin \
           float total_loss = 0; \
           declare c cursor for \
             select price, qty, disc from lineitem where partkey = :pkey; \
           open c; \
           fetch next from c into @price, @qty, @disc; \
           while @@fetch_status = 0 \
             float profit = (@price - @disc) - (cost * @qty); \
             if (profit < 0) total_loss = total_loss - profit; \
             fetch next from c into @price, @qty, @disc; \
           close c; deallocate c; \
           return total_loss; \
         end",
    )?;

    // The per-part unit cost is passed as a constant (the paper's getCost() helper is a
    // black-box function; a non-constant argument would keep the loop correlated on an
    // outer attribute, which this rewrite intentionally refuses to decorrelate).
    let sql = "select partkey, totalloss(partkey, 5.0) as loss \
               from partsupp where suppkey = 0";

    println!("{}", session.explain(sql)?);

    let iterative = session.query_with(sql, &QueryOptions::iterative())?;
    let decorrelated = session.query_with(sql, &QueryOptions::decorrelated())?;
    assert_eq!(
        iterative.canonical_projection(&["partkey", "loss"])?,
        decorrelated.canonical_projection(&["partkey", "loss"])?
    );
    println!(
        "both strategies agree on {} parts; iterative performed {} UDF invocations, \
         the decorrelated plan performed {}",
        iterative.rows.len(),
        iterative.exec_stats.udf_invocations,
        decorrelated.exec_stats.udf_invocations
    );

    // The synthesised auxiliary aggregate (the paper's Example 6).
    let report = session.rewrite_sql(sql)?;
    for aux in &report.auxiliary_functions {
        println!("\nauxiliary aggregate:\n{aux}");
    }
    Ok(())
}
