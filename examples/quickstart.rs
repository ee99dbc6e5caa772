//! Quickstart: create tables, register an imperative UDF, and watch the engine
//! decorrelate it.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use udf_decorrelation::prelude::*;

fn main() -> Result<()> {
    let engine = Engine::new();
    let session = engine.session();

    // A tiny schema with the paper's flavour: customers and their orders.
    session.execute(
        "create table customer(custkey int not null, name varchar(25)); \
         create table orders(orderkey int not null, custkey int, totalprice float); \
         create index on orders(custkey);",
    )?;
    session.execute(
        "insert into customer values (1, 'Alice'), (2, 'Bob'), (3, 'Carol'); \
         insert into orders values \
            (101, 1, 1200000.0), (102, 1, 150000.0), \
            (103, 2, 600000.0), \
            (104, 3, 90000.0), (105, 3, 20000.0)",
    )?;

    // Example 1 of the paper: a UDF with a scalar query, assignments and branching.
    engine.register_function(
        "create function service_level(int ckey) returns varchar(10) as \
         begin \
           float totalbusiness; string level; \
           select sum(totalprice) into :totalbusiness from orders where custkey = :ckey; \
           if (totalbusiness > 1000000) level = 'Platinum'; \
           else if (totalbusiness > 500000) level = 'Gold'; \
           else level = 'Regular'; \
           return level; \
         end",
    )?;

    let sql = "select custkey, service_level(custkey) as level from customer";

    // EXPLAIN shows the original (iterative) plan, the decorrelated plan, the rules that
    // fired, and the cost-based decision.
    println!("{}", session.explain(sql)?);

    // Execute with the default (cost-based) strategy.
    let result = session.query(sql)?;
    println!("results ({} rows):", result.rows.len());
    for row in &result.rows {
        println!("  {}", row.display_with(&result.schema));
    }
    println!(
        "\nexecuted {} plan; UDF invocations performed: {}",
        if result.used_decorrelated_plan {
            "the decorrelated"
        } else {
            "the iterative"
        },
        result.exec_stats.udf_invocations
    );
    Ok(())
}
