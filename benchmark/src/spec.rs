//! The five workloads: data scale, UDFs, query classes and expected answers.
//!
//! Everything here is generated from the seed; the engine only ever sees the resulting
//! SQL text and rows.

use udf_decorrelation::common::SmallRng;
use udf_decorrelation::tpch::{self, TpchConfig};

use crate::oracle::{Cell, Facts};

/// A workload of the benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig10Lookup,
    Fig11Agg,
    Fig12Cursor,
    CompileCold,
    ServeMixed,
}

impl Workload {
    pub const ALL: [Workload; 5] = [
        Workload::Fig10Lookup,
        Workload::Fig11Agg,
        Workload::Fig12Cursor,
        Workload::CompileCold,
        Workload::ServeMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig10Lookup => "fig10_lookup",
            Workload::Fig11Agg => "fig11_agg",
            Workload::Fig12Cursor => "fig12_cursor",
            Workload::CompileCold => "compile_cold",
            Workload::ServeMixed => "serve_mixed",
        }
    }

    /// Why the workload is in the benchmark (one line, copied into `BENCHMARK.json`).
    pub fn why(self) -> &'static str {
        match self {
            Workload::Fig10Lookup => {
                "Figure 10: straight-line UDF with two index lookups; iterative ~ decorrelated, so scan, filter, join and index lookups do the work"
            }
            Workload::Fig11Agg => {
                "Figure 11: decorrelated plan is a flat group-by, iterative grows with invocations; the crossover sits inside the sweep, so the cost model decides"
            }
            Workload::Fig12Cursor => {
                "Figure 12: cursor-loop UDF through the auxiliary aggregate; the interpreter dominates the iterative arm and vanishes from the decorrelated one"
            }
            Workload::CompileCold => {
                "register a UDF, then one cold query over <=10 rows: parser, rewrite, optimizer and registration are half the time, against 0.1 % in the fig workloads"
            }
            Workload::ServeMixed => {
                "durable engine, closed-loop clients, reads beside single-row inserts, ANALYZE and checkpoints with default memo, batching and plan cache on"
            }
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One measured statement sequence: an optional `CREATE FUNCTION`, then a query.
#[derive(Debug, Clone)]
pub struct Op {
    /// Registered immediately before the query, inside the timed op (`compile_cold`).
    pub register: Option<String>,
    pub sql: String,
    /// The answer: two-column rows `(key, value)`, `cells[i]` for key `first_key + i`.
    pub first_key: i64,
    pub cells: Vec<Cell>,
    /// True when the UDF cannot be decorrelated: the `Decorrelated` strategy must
    /// refuse the query instead of answering it.
    pub declines: bool,
}

/// Ops that cost about the same. Classes are ordered by work: the first is the
/// workload's *low* point, the last its *top* point.
#[derive(Debug, Clone)]
pub struct Class {
    /// UDF invocations one op of this class performs when executed iteratively.
    pub invocations: usize,
    pub ops: Vec<Op>,
    /// The first op's query with the UDF call removed: the same scan and filter.
    pub twin_sql: String,
    /// True when the UDF reads `orders`, the table the benchmark's inserts go to, so
    /// that an insert invalidates its memoized results.
    pub reads_written_table: bool,
}

/// Everything that sizes a workload. `BENCHMARK.json` fixes the measured seconds; the
/// rest is fixed here and recorded in the README and in every results file.
#[derive(Debug, Clone)]
pub struct Spec {
    pub workload: Workload,
    /// Draws the data (`data.seed`), the corpus constants and the serving order.
    pub seed: u64,
    pub data: TpchConfig,
    /// Sweep points (UDF invocations) of the fig workloads and of `serve_mixed`'s reads.
    pub points: Vec<usize>,
    /// `compile_cold`: corpus variants per UDF body kind.
    pub variants: usize,
    /// UDFs registered during set-up.
    pub udfs: Vec<String>,
    /// The paper's "every tuple pays the call": UDF batching and memoization off.
    pub plain_udf_runtime: bool,
    /// Start every pass over the classes from `Engine::fork()` of the loaded engine.
    pub fork_each_pass: bool,
    pub durable: bool,
    pub clients: usize,
    /// The table the top-class query scans, and its indexed key.
    pub driving_table: &'static str,
    pub driving_key: &'static str,
    /// Single-row inserts timed after the read window (`serve_mixed` times its own).
    pub tail_writes: usize,
}

impl Spec {
    pub fn new(workload: Workload, seed: u64, smoke: bool) -> Spec {
        let data = |customers, orders_per_customer, parts, categories| TpchConfig {
            customers,
            orders_per_customer,
            // No experiment reads lineitem; leaving it empty keeps set-up about the
            // tables the queries touch.
            lineitems_per_order: 0,
            parts,
            categories,
            customer_categories: 25,
            seed,
        };
        let udfs = |w: tpch::Workload| w.functions.iter().map(|f| f.to_string()).collect();
        let base = Spec {
            workload,
            seed,
            data: data(100, 10, 100, 10),
            points: vec![],
            variants: 0,
            udfs: vec![],
            plain_udf_runtime: true,
            fork_each_pass: false,
            durable: false,
            clients: 1,
            driving_table: "orders",
            driving_key: "orderkey",
            tail_writes: if smoke { 10 } else { 300 },
        };
        // An insert into a 200-row `orders` takes ~25 us: time half a second of them, so
        // that a burst of interference cannot cover the fastest tenth.
        let small_table = Spec {
            tail_writes: if smoke { 10 } else { 20_000 },
            ..base.clone()
        };
        match workload {
            Workload::Fig10Lookup => Spec {
                data: if smoke {
                    data(100, 10, 100, 10)
                } else {
                    data(5_000, 10, 100, 10)
                },
                points: if smoke {
                    vec![5, 100, 400]
                } else {
                    vec![10, 1_000, 5_000, 10_000, 20_000]
                },
                udfs: udfs(tpch::experiment1()),
                ..base
            },
            Workload::Fig11Agg => Spec {
                // Four orders per customer put the measured crossover near two thirds of
                // the customers and the cost model's switch near four fifths, so the top
                // point lies clearly beyond both and `Auto`'s choice there is stable.
                data: if smoke {
                    data(100, 4, 100, 10)
                } else {
                    data(12_000, 4, 100, 10)
                },
                points: if smoke {
                    vec![5, 50, 100]
                } else {
                    vec![10, 1_000, 4_000, 7_000, 12_000]
                },
                udfs: udfs(tpch::experiment2()),
                driving_table: "customer",
                driving_key: "custkey",
                ..base
            },
            Workload::Fig12Cursor => Spec {
                data: if smoke {
                    data(20, 10, 200, 20)
                } else {
                    data(20, 10, 5_000, 400)
                },
                points: if smoke {
                    vec![2, 5, 10]
                } else {
                    vec![2, 10, 50, 100, 200]
                },
                udfs: udfs(tpch::experiment3()),
                driving_table: "categories",
                driving_key: "categorykey",
                ..small_table
            },
            // The rows are incidental here and stay `tiny()`'s own: the seed draws the
            // corpus. (Seeded rows change how many parts the cursor loops iterate over,
            // which moves the top class by 12 % from seed to seed.)
            Workload::CompileCold => Spec {
                data: TpchConfig::tiny(),
                variants: if smoke { 1 } else { 8 },
                plain_udf_runtime: false,
                fork_each_pass: true,
                ..small_table
            },
            Workload::ServeMixed => Spec {
                data: if smoke {
                    data(100, 10, 100, 10)
                } else {
                    data(2_000, 10, 100, 10)
                },
                points: if smoke {
                    vec![5, 20, 50]
                } else {
                    vec![10, 100, 1_000]
                },
                udfs: {
                    let mut all: Vec<String> = udfs(tpch::experiment1());
                    all.extend(udfs(tpch::experiment2()));
                    all
                },
                plain_udf_runtime: false,
                durable: true,
                clients: crate::host::host_cores().min(2),
                tail_writes: 0,
                ..base
            },
        }
    }

    /// Builds the query classes and their expected answers from the generated rows.
    pub fn classes(&self, facts: &Facts) -> Vec<Class> {
        match self.workload {
            Workload::Fig10Lookup => self
                .points
                .iter()
                .map(|&n| discount_class(facts, n))
                .collect(),
            Workload::Fig11Agg => self
                .points
                .iter()
                .map(|&n| service_level_class(facts, n))
                .collect(),
            Workload::Fig12Cursor => self
                .points
                .iter()
                .map(|&n| part_count_class(facts, n))
                .collect(),
            Workload::CompileCold => compile_corpus(facts, self.seed, self.variants),
            // Low and top are `discount` reads, which no insert invalidates; the
            // `service_level` reads in between pay for every insert into `orders`.
            Workload::ServeMixed => {
                let mut classes: Vec<Class> = self
                    .points
                    .iter()
                    .flat_map(|&n| [service_level_class(facts, n), discount_class(facts, n)])
                    .collect();
                classes.swap(0, 1);
                classes
            }
        }
    }

    /// One line describing the scale, recorded with every result.
    pub fn scale(&self) -> String {
        format!(
            "customers={} orders={} parts={} categories={} points={:?} variants={} clients={}",
            self.data.customers,
            self.data.customers * self.data.orders_per_customer,
            self.data.parts,
            self.data.categories,
            self.points,
            self.variants,
            self.clients
        )
    }
}

fn single(first_key: i64, cells: Vec<Cell>, sql: String, twin_sql: String) -> Class {
    Class {
        invocations: cells.len(),
        ops: vec![Op {
            register: None,
            sql,
            first_key,
            cells,
            declines: false,
        }],
        twin_sql,
        reads_written_table: false,
    }
}

/// Experiment 1 at `n` invocations: one `discount` call per order.
fn discount_class(facts: &Facts, n: usize) -> Class {
    let cells = (1..=n as i64)
        .map(|o| Cell::Float(facts.discount(o)))
        .collect();
    single(
        1,
        cells,
        (tpch::experiment1().query)(n),
        format!("select orderkey, totalprice from orders where orderkey <= {n}"),
    )
}

/// Experiment 2 at `n` invocations: one `service_level` call per customer.
fn service_level_class(facts: &Facts, n: usize) -> Class {
    let cells = (1..=n as i64)
        .map(|c| Cell::Text(facts.service_level(c).into()))
        .collect();
    Class {
        reads_written_table: true,
        ..single(
            1,
            cells,
            (tpch::experiment2().query)(n),
            format!("select custkey, nationkey from customer where custkey <= {n}"),
        )
    }
}

/// Experiment 3 at `n` invocations: one `category_part_count` call per category.
fn part_count_class(facts: &Facts, n: usize) -> Class {
    let cells = (0..n as i64)
        .map(|c| Cell::Int(facts.category_part_count(c)))
        .collect();
    single(
        0,
        cells,
        (tpch::experiment3().query)(n),
        format!("select categorykey, parentkey from categories where categorykey < {n}"),
    )
}

/// Rows every `compile_cold` query touches.
const COLD_ROWS: i64 = 10;

/// The `compile_cold` corpus: `variants` seeded (UDF, query) pairs for each of six body
/// kinds, one class per kind. The kinds are fixed; the seed draws the constants, so
/// every seed compiles the same shapes. `nested-call` variant `v` calls `straight-line`
/// variant `v`, which an earlier op of the same pass registered.
fn compile_corpus(facts: &Facts, seed: u64, variants: usize) -> Vec<Class> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xC01D_C0DE);
    // Multiples of a quarter print exactly and survive the SQL round trip bit for bit.
    let mut quarter = |low: i64, high: i64| rng.gen_range_i64_inclusive(low, high) as f64 / 4.0;
    let by_order =
        "select orderkey, {f}(totalprice, custkey) as v from orders where orderkey <= 10";
    let by_customer = "select custkey, {f}(custkey) as v from customer where custkey <= 10";
    let by_category =
        "select categorykey, {f}(categorykey) as v from categories where categorykey < 10";
    let op = |name: &str, register: String, query: &str, first_key: i64, cells: Vec<Cell>| Op {
        register: Some(register),
        sql: query.replace("{f}", name),
        first_key,
        cells,
        declines: false,
    };

    let mut straight = vec![];
    let mut if_else = vec![];
    let mut scalar_agg = vec![];
    let mut nested = vec![];
    let mut dynamic_while = vec![];
    let mut cursor = vec![];
    for v in 0..variants {
        let factor = quarter(2, 40);
        let straight_value = |o: i64| {
            let (custkey, price) = facts.order(o);
            facts.customer_discount(custkey) * price * factor
        };
        let name = format!("cc_straight_{v}");
        straight.push(op(
            &name,
            format!(
                "create function {name}(float amt, int ckey) returns float as \
                 begin \
                   int custcat; float catdisct; float scaled; \
                   select category into :custcat from customer where custkey = :ckey; \
                   select frac_discount into :catdisct from categorydiscount \
                     where category = :custcat; \
                   scaled = catdisct * amt * {factor:?}; \
                   return scaled; \
                 end"
            ),
            by_order,
            1,
            (1..=COLD_ROWS)
                .map(|o| Cell::Float(straight_value(o)))
                .collect(),
        ));

        let offset = quarter(1, 400);
        let name = format!("cc_nested_{v}");
        nested.push(op(
            &name,
            format!(
                "create function {name}(float amt, int ckey) returns float as \
                 begin \
                   float inner_value; \
                   inner_value = cc_straight_{v}(amt, ckey); \
                   inner_value = inner_value + {offset:?}; \
                   return inner_value; \
                 end"
            ),
            by_order,
            1,
            (1..=COLD_ROWS)
                .map(|o| Cell::Float(straight_value(o) + offset))
                .collect(),
        ));

        let threshold = v as i64 % 4;
        let (high, low) = (quarter(4, 40), quarter(1, 3));
        let name = format!("cc_if_else_{v}");
        if_else.push(op(
            &name,
            format!(
                "create function {name}(float amt, int ckey) returns float as \
                 begin \
                   int custcat; float scaled; \
                   select category into :custcat from customer where custkey = :ckey; \
                   if (custcat > {threshold}) scaled = amt * {high:?}; \
                   else scaled = amt * {low:?}; \
                   return scaled; \
                 end"
            ),
            by_order,
            1,
            (1..=COLD_ROWS)
                .map(|o| {
                    let (custkey, price) = facts.order(o);
                    let above = facts.customer_category(custkey) > threshold;
                    Cell::Float(price * if above { high } else { low })
                })
                .collect(),
        ));

        let factor = quarter(2, 40);
        let name = format!("cc_scalar_agg_{v}");
        scalar_agg.push(op(
            &name,
            format!(
                "create function {name}(int ckey) returns float as \
                 begin \
                   float total; \
                   select sum(totalprice) into :total from orders where custkey = :ckey; \
                   total = total * {factor:?}; \
                   return total; \
                 end"
            ),
            by_customer,
            1,
            (1..=COLD_ROWS)
                .map(|c| Cell::Float(facts.total_business(c) * factor))
                .collect(),
        ));

        let step = 1 + v as i64;
        let name = format!("cc_while_{v}");
        dynamic_while.push(Op {
            declines: true,
            ..op(
                &name,
                format!(
                    "create function {name}(int n) returns int as \
                     begin \
                       int total = 0; int i = 0; \
                       while (i < n) begin total = total + i * {step}; i = i + 1; end \
                       return total; \
                     end"
                ),
                by_customer,
                1,
                (1..=COLD_ROWS)
                    .map(|n| Cell::Int(step * n * (n - 1) / 2))
                    .collect(),
            )
        });

        let name = format!("cc_cursor_{v}");
        cursor.push(op(
            &name,
            format!(
                "create function {name}(int ckey) returns int as \
                 begin \
                   int total = 0; \
                   declare c cursor for \
                     select p.partkey from parts p, category_ancestors a \
                     where p.category = a.ancestor and a.category = :ckey; \
                   open c; \
                   fetch next from c into @pk; \
                   while @@fetch_status = 0 \
                     total = total + {step}; \
                     fetch next from c into @pk; \
                   close c; deallocate c; \
                   return total; \
                 end"
            ),
            by_category,
            0,
            (0..COLD_ROWS)
                .map(|c| Cell::Int(step * facts.category_part_count(c)))
                .collect(),
        ));
    }
    let class = |ops: Vec<Op>, twin: &str| Class {
        invocations: COLD_ROWS as usize,
        ops,
        twin_sql: twin.into(),
        reads_written_table: false,
    };
    let order_twin = "select orderkey, totalprice from orders where orderkey <= 10";
    let customer_twin = "select custkey, nationkey from customer where custkey <= 10";
    let category_twin = "select categorykey, parentkey from categories where categorykey < 10";
    vec![
        class(straight, order_twin),
        class(if_else, order_twin),
        class(scalar_agg, customer_twin),
        class(nested, order_twin),
        class(dynamic_while, customer_twin),
        class(cursor, category_twin),
    ]
}
