//! Deterministic data generator for the TPC-H-flavoured schema used by the experiments.

use decorr_common::SmallRng;
use decorr_common::{Result, Row, Value};
use decorr_engine::Engine;

/// Scale configuration. The defaults are laptop-scale versions of the paper's setup
/// (TPC-H 10 GB: 1.5 M customers / 15 M orders); the *ratios* between tables are
/// preserved so the experiment curves keep their shape.
#[derive(Debug, Clone)]
pub struct TpchConfig {
    pub customers: usize,
    pub orders_per_customer: usize,
    pub lineitems_per_order: usize,
    pub parts: usize,
    pub categories: usize,
    /// Customer categories (drives `categorydiscount` in Experiment 1).
    pub customer_categories: usize,
    pub seed: u64,
}

impl Default for TpchConfig {
    fn default() -> Self {
        TpchConfig {
            customers: 2_000,
            orders_per_customer: 10,
            lineitems_per_order: 3,
            parts: 5_000,
            categories: 200,
            customer_categories: 25,
            seed: 42,
        }
    }
}

impl TpchConfig {
    /// A tiny configuration for unit tests.
    pub fn tiny() -> TpchConfig {
        TpchConfig {
            customers: 50,
            orders_per_customer: 4,
            lineitems_per_order: 2,
            parts: 100,
            categories: 10,
            customer_categories: 5,
            seed: 7,
        }
    }

    /// Scales the number of customers (the main driver of UDF invocation counts).
    pub fn with_customers(mut self, customers: usize) -> TpchConfig {
        self.customers = customers;
        self
    }

    /// Scales every table proportionally to the default configuration (`scale = 1.0`
    /// is the default size). The executor bench uses this to measure end-to-end
    /// latency at two scale factors with the table *ratios* preserved.
    pub fn with_scale(scale: f64) -> TpchConfig {
        let scale = scale.max(0.001);
        let default = TpchConfig::default();
        let scaled = |n: usize| ((n as f64 * scale).round() as usize).max(1);
        TpchConfig {
            customers: scaled(default.customers),
            parts: scaled(default.parts),
            categories: scaled(default.categories),
            ..default
        }
    }
}

/// [`load`] behind the retired facade type: the signature `benchmark/src/run.rs:46`
/// compiles against, and that package may only be edited by a `[benchmark]` PR. Goes
/// with `decorr_engine::Database` once `run.rs` calls [`load`].
#[doc(hidden)]
pub fn generate(config: &TpchConfig) -> Result<decorr_engine::Database> {
    load(config).map(decorr_engine::Database::from_engine)
}

/// Creates the schema, generates the data and builds the default primary/foreign-key
/// indexes (the paper's "default indices"), returning a ready-to-query [`Engine`].
pub fn load(config: &TpchConfig) -> Result<Engine> {
    let engine = Engine::new();
    engine.session().execute(
        "create table customer(custkey int not null, name varchar(25), nationkey int, \
                               acctbal float, category int); \
         create table orders(orderkey int not null, custkey int, totalprice float, \
                             orderyear int); \
         create table lineitem(orderkey int, partkey int, suppkey int, price float, \
                               qty int, disc float); \
         create table partsupp(partkey int, suppkey int, supplycost float); \
         create table parts(partkey int not null, category int, retailprice float); \
         create table categories(categorykey int not null, parentkey int, name varchar(30)); \
         create table category_ancestors(category int, ancestor int); \
         create table categorydiscount(category int not null, frac_discount float);",
    )?;

    let mut rng = SmallRng::seed_from_u64(config.seed);

    // customer / categorydiscount
    let customers: Vec<Row> = (1..=config.customers as i64)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::str(format!("Customer#{i:06}")),
                Value::Int(rng.gen_range_i64(0, 25)),
                Value::Float(rng.gen_range_f64(-999.0, 10_000.0)),
                Value::Int(rng.gen_range_i64(0, config.customer_categories as i64)),
            ])
        })
        .collect();
    engine.insert_rows("customer", customers)?;
    let discounts: Vec<Row> = (0..config.customer_categories as i64)
        .map(|c| Row::new(vec![Value::Int(c), Value::Float(0.01 * (c % 20) as f64)]))
        .collect();
    engine.insert_rows("categorydiscount", discounts)?;

    // orders / lineitem / partsupp
    let mut orders = vec![];
    let mut lineitems = vec![];
    let mut orderkey = 0i64;
    for custkey in 1..=config.customers as i64 {
        for _ in 0..config.orders_per_customer {
            orderkey += 1;
            // Skew total prices so that the service-level buckets of Example 1 are all
            // populated.
            let totalprice = rng.gen_range_f64(100.0, 200_000.0) * (1.0 + (custkey % 17) as f64);
            orders.push(Row::new(vec![
                Value::Int(orderkey),
                Value::Int(custkey),
                Value::Float(totalprice),
                Value::Int(1992 + (orderkey % 7)),
            ]));
            for _ in 0..config.lineitems_per_order {
                let partkey = rng.gen_range_i64_inclusive(1, config.parts.max(1) as i64);
                lineitems.push(Row::new(vec![
                    Value::Int(orderkey),
                    Value::Int(partkey),
                    Value::Int(rng.gen_range_i64_inclusive(1, 100)),
                    Value::Float(rng.gen_range_f64(1.0, 1_000.0)),
                    Value::Int(rng.gen_range_i64_inclusive(1, 50)),
                    Value::Float(rng.gen_range_f64(0.0, 0.1)),
                ]));
            }
        }
    }
    engine.insert_rows("orders", orders)?;
    engine.insert_rows("lineitem", lineitems)?;
    let partsupp: Vec<Row> = (1..=config.parts as i64)
        .flat_map(|p| {
            let mut rows = vec![];
            for s in 0..4i64 {
                rows.push(Row::new(vec![
                    Value::Int(p),
                    Value::Int(s),
                    Value::Float(rand_cost(p, s)),
                ]));
            }
            rows
        })
        .collect();
    engine.insert_rows("partsupp", partsupp)?;

    // parts / categories / ancestors (Experiment 3): a two-level category hierarchy in
    // which every non-root category has a parent among the first 10% of categories.
    let roots = (config.categories / 10).max(1) as i64;
    let categories: Vec<Row> = (0..config.categories as i64)
        .map(|c| {
            let parent = if c < roots {
                Value::Null
            } else {
                Value::Int(c % roots)
            };
            Row::new(vec![
                Value::Int(c),
                parent,
                Value::str(format!("Category#{c}")),
            ])
        })
        .collect();
    engine.insert_rows("categories", categories)?;
    // category_ancestors: the reflexive-transitive closure of the parent relation
    // (materialised, as applications commonly do for hierarchy queries).
    let mut ancestors = vec![];
    for c in 0..config.categories as i64 {
        ancestors.push(Row::new(vec![Value::Int(c), Value::Int(c)]));
        if c >= roots {
            ancestors.push(Row::new(vec![Value::Int(c), Value::Int(c % roots)]));
        }
    }
    engine.insert_rows("category_ancestors", ancestors)?;
    let parts: Vec<Row> = (1..=config.parts as i64)
        .map(|p| {
            Row::new(vec![
                Value::Int(p),
                Value::Int(rng.gen_range_i64(0, config.categories as i64)),
                Value::Float(rng.gen_range_f64(1.0, 2_000.0)),
            ])
        })
        .collect();
    engine.insert_rows("parts", parts)?;

    // The paper's "default indices on primary and foreign keys".
    for (table, column) in [
        ("customer", "custkey"),
        ("customer", "category"),
        ("orders", "orderkey"),
        ("orders", "custkey"),
        ("lineitem", "orderkey"),
        ("lineitem", "partkey"),
        ("partsupp", "partkey"),
        ("parts", "partkey"),
        ("parts", "category"),
        ("categories", "categorykey"),
        ("category_ancestors", "category"),
        ("category_ancestors", "ancestor"),
        ("categorydiscount", "category"),
    ] {
        engine.create_index(table, column)?;
    }
    Ok(engine)
}

fn rand_cost(p: i64, s: i64) -> f64 {
    // Deterministic pseudo-cost without consuming RNG state (keeps partsupp stable when
    // other table sizes change).
    (((p * 31 + s * 17) % 997) as f64) + 1.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_consistent_tiny_database() {
        let config = TpchConfig::tiny();
        let engine = load(&config).unwrap();
        let catalog = engine.catalog();
        assert_eq!(catalog.table("customer").unwrap().row_count(), 50);
        assert_eq!(catalog.table("orders").unwrap().row_count(), 200);
        assert_eq!(catalog.table("lineitem").unwrap().row_count(), 400);
        assert_eq!(catalog.table("parts").unwrap().row_count(), 100);
        // Every order's custkey references an existing customer.
        let orders = engine
            .session()
            .query("select count(*) as n from orders where custkey > 50")
            .unwrap();
        assert_eq!(orders.rows[0].get(0), &Value::Int(0));
        // Indexes exist on the foreign keys.
        assert!(catalog
            .table("orders")
            .unwrap()
            .index_on("custkey")
            .is_some());
    }

    #[test]
    fn generation_is_deterministic() {
        let total = || {
            let session = load(&TpchConfig::tiny()).unwrap().session();
            session
                .query("select sum(totalprice) as s from orders")
                .unwrap()
        };
        let (qa, qb) = (total(), total());
        assert_eq!(qa.rows[0].get(0), qb.rows[0].get(0));
    }

    #[test]
    fn category_ancestors_closure_is_reflexive() {
        let session = load(&TpchConfig::tiny()).unwrap().session();
        let rs = session
            .query("select count(*) as n from category_ancestors where category = ancestor")
            .unwrap();
        assert_eq!(rs.rows[0].get(0), &Value::Int(10));
    }
}
