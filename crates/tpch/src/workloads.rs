//! The three experiment workloads of Section X, packaged as (UDF, query template) pairs.

use decorr_common::Result;
use decorr_engine::Engine;

/// A benchmark workload: the UDF(s) to register and a query template parameterised by the
/// number of UDF invocations.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Human-readable name ("Experiment 1 (Figure 10)").
    pub name: &'static str,
    /// `CREATE FUNCTION` statements.
    pub functions: Vec<&'static str>,
    /// Produces the benchmark query limited to roughly `invocations` UDF invocations
    /// (the paper varies the invocation count with TOP / WHERE clauses).
    pub query: fn(invocations: usize) -> String,
}

impl Workload {
    /// Registers this workload's UDFs with the engine.
    pub fn install(&self, engine: &Engine) -> Result<()> {
        for f in &self.functions {
            engine.register_function(f)?;
        }
        Ok(())
    }
}

/// Experiment 1 (Figure 10): straight-line UDF with two scalar SQL lookups
/// (the paper's Example 8), invoked once per order.
pub fn experiment1() -> Workload {
    Workload {
        name: "Experiment 1 (Figure 10): discount(totalprice, custkey) over orders",
        functions: vec![
            "create function discount(float amt, int ckey) returns float as \
             begin \
               int custcat; float catdisct; float totaldiscount; \
               select category into :custcat from customer where custkey = :ckey; \
               select frac_discount into :catdisct from categorydiscount where category = :custcat; \
               totaldiscount = catdisct * amt; \
               return totaldiscount; \
             end",
        ],
        query: |invocations| {
            format!(
                "select orderkey, discount(totalprice, custkey) as totaldiscount \
                 from orders where orderkey <= {invocations}"
            )
        },
    }
}

/// Experiment 2 (Figure 11): the service_level UDF of Example 1 (assignments, branching
/// and a scalar aggregate query), invoked once per customer.
pub fn experiment2() -> Workload {
    Workload {
        name: "Experiment 2 (Figure 11): service_level(custkey) over customer",
        functions: vec![
            "create function service_level(int ckey) returns varchar(10) as \
             begin \
               float totalbusiness; string level; \
               select sum(totalprice) into :totalbusiness from orders where custkey = :ckey; \
               if (totalbusiness > 1000000) level = 'Platinum'; \
               else if (totalbusiness > 500000) level = 'Gold'; \
               else level = 'Regular'; \
               return level; \
             end",
        ],
        query: |invocations| {
            format!(
                "select custkey, service_level(custkey) as level \
                 from customer where custkey <= {invocations}"
            )
        },
    }
}

/// Experiment 3 (Figure 12): a UDF with a cursor loop (borrowed from Guravannavar's
/// thesis) that counts the parts in a category and all of its ancestor categories,
/// invoked once per category. Decorrelation goes through the auxiliary-aggregate path of
/// Section VII-A.
pub fn experiment3() -> Workload {
    Workload {
        name: "Experiment 3 (Figure 12): category_part_count(categorykey) over categories",
        functions: vec![
            "create function category_part_count(int ckey) returns int as \
             begin \
               int total = 0; \
               declare c cursor for \
                 select p.partkey from parts p, category_ancestors a \
                 where p.category = a.ancestor and a.category = :ckey; \
               open c; \
               fetch next from c into @pk; \
               while @@fetch_status = 0 \
                 total = total + 1; \
                 fetch next from c into @pk; \
               close c; deallocate c; \
               return total; \
             end",
        ],
        query: |invocations| {
            format!(
                "select categorykey, category_part_count(categorykey) as nparts \
                 from categories where categorykey < {invocations}"
            )
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{load, TpchConfig};
    use decorr_engine::QueryOptions;

    fn check_workload(workload: Workload, invocations: usize, expect_decorrelated: bool) {
        let engine = load(&TpchConfig::tiny()).unwrap();
        workload.install(&engine).unwrap();
        let session = engine.session();
        let sql = (workload.query)(invocations);
        let iterative = session
            .query_with(&sql, &QueryOptions::iterative())
            .unwrap();
        if expect_decorrelated {
            let rewritten = session
                .query_with(&sql, &QueryOptions::decorrelated())
                .unwrap();
            let columns: Vec<&str> = iterative
                .schema
                .columns
                .iter()
                .map(|c| c.name.as_str())
                .collect();
            assert_eq!(
                iterative.canonical_projection(&columns).unwrap(),
                rewritten.canonical_projection(&columns).unwrap(),
                "iterative and decorrelated executions disagree for {}",
                workload.name
            );
            assert!(rewritten.exec_stats.udf_invocations == 0);
            assert!(iterative.exec_stats.udf_invocations as usize >= 1);
        }
        assert!(
            !iterative.rows.is_empty(),
            "workload query returned no rows"
        );
    }

    #[test]
    fn experiment1_iterative_and_decorrelated_agree() {
        check_workload(experiment1(), 40, true);
    }

    #[test]
    fn experiment2_iterative_and_decorrelated_agree() {
        check_workload(experiment2(), 30, true);
    }

    #[test]
    fn experiment3_iterative_and_decorrelated_agree() {
        check_workload(experiment3(), 8, true);
    }
}
