//! The independent oracle: expected query answers computed in plain Rust from the
//! generated rows, never from the engine's own query path. No strategy serves as
//! another's reference; every measured op is checked against these values.

use std::collections::HashMap;

use udf_decorrelation::common::{Row, Value};
use udf_decorrelation::storage::Catalog;

/// One expected output value.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Int(i64),
    Float(f64),
    Text(String),
}

/// Relative tolerance on float cells.
const FLOAT_TOLERANCE: f64 = 1e-9;

fn cell_matches(value: &Value, cell: &Cell) -> bool {
    match (value, cell) {
        (Value::Int(v), Cell::Int(c)) => v == c,
        (Value::Float(v), Cell::Float(c)) => (v - c).abs() <= FLOAT_TOLERANCE * c.abs(),
        (Value::Str(v), Cell::Text(c)) => v == c,
        _ => false,
    }
}

/// Checks two-column `(key, value)` rows, in any order, against the expected cells:
/// `cells[i]` belongs to key `first_key + i`. Checks the row count, every key exactly
/// once, and every value. Returns the first discrepancy.
pub fn check_rows(rows: &[Row], first_key: i64, cells: &[Cell]) -> Result<(), String> {
    if rows.len() != cells.len() {
        return Err(format!("{} rows, expected {}", rows.len(), cells.len()));
    }
    let mut seen = vec![false; cells.len()];
    for row in rows {
        if row.len() != 2 {
            return Err(format!("row has {} columns, expected 2", row.len()));
        }
        let Value::Int(key) = row.get(0) else {
            return Err(format!("non-integer key {:?}", row.get(0)));
        };
        let slot = key
            .checked_sub(first_key)
            .and_then(|i| usize::try_from(i).ok())
            .filter(|i| *i < cells.len())
            .ok_or_else(|| format!("unexpected key {key}"))?;
        if std::mem::replace(&mut seen[slot], true) {
            return Err(format!("key {key} returned twice"));
        }
        if !cell_matches(row.get(1), &cells[slot]) {
            return Err(format!(
                "key {key}: got {:?}, expected {:?}",
                row.get(1),
                cells[slot]
            ));
        }
    }
    Ok(())
}

/// The generated data, read once through `Table::scan`, in the shapes the three
/// experiments' UDFs consult.
#[derive(Debug, Default)]
pub struct Facts {
    customer_category: HashMap<i64, i64>,
    category_discount: HashMap<i64, f64>,
    /// `orderkey → (custkey, totalprice)`.
    orders: HashMap<i64, (i64, f64)>,
    /// `custkey → Σ totalprice`, accumulated in scan order.
    customer_total: HashMap<i64, f64>,
    /// `parts.category → number of parts`.
    parts_in_category: HashMap<i64, i64>,
    /// `category → its ancestors` (the materialised reflexive closure).
    ancestors: HashMap<i64, Vec<i64>>,
}

fn int(row: &Row, idx: usize) -> i64 {
    row.get(idx).as_int().expect("generated column is an int")
}

fn float(row: &Row, idx: usize) -> f64 {
    row.get(idx)
        .as_float()
        .expect("generated column is a float")
}

impl Facts {
    pub fn read(catalog: &Catalog) -> Facts {
        let scan = |table: &str| {
            catalog
                .table(table)
                .unwrap_or_else(|e| panic!("generated table {table}: {e}"))
                .scan()
        };
        let mut facts = Facts::default();
        for row in scan("customer").iter() {
            facts.customer_category.insert(int(row, 0), int(row, 4));
        }
        for row in scan("categorydiscount").iter() {
            facts.category_discount.insert(int(row, 0), float(row, 1));
        }
        for row in scan("orders").iter() {
            let (custkey, price) = (int(row, 1), float(row, 2));
            facts.orders.insert(int(row, 0), (custkey, price));
            *facts.customer_total.entry(custkey).or_insert(0.0) += price;
        }
        for row in scan("parts").iter() {
            *facts.parts_in_category.entry(int(row, 1)).or_insert(0) += 1;
        }
        for row in scan("category_ancestors").iter() {
            facts
                .ancestors
                .entry(int(row, 0))
                .or_default()
                .push(int(row, 1));
        }
        facts
    }

    pub fn customer_category(&self, custkey: i64) -> i64 {
        self.customer_category[&custkey]
    }

    pub fn order(&self, orderkey: i64) -> (i64, f64) {
        self.orders[&orderkey]
    }

    /// `frac_discount` of the customer's category.
    pub fn customer_discount(&self, custkey: i64) -> f64 {
        self.category_discount[&self.customer_category(custkey)]
    }

    /// Experiment 1: `discount(totalprice, custkey)` of one order.
    pub fn discount(&self, orderkey: i64) -> f64 {
        let (custkey, price) = self.order(orderkey);
        self.customer_discount(custkey) * price
    }

    /// `sum(totalprice)` over the customer's orders.
    pub fn total_business(&self, custkey: i64) -> f64 {
        self.customer_total[&custkey]
    }

    /// Experiment 2: `service_level(custkey)`.
    pub fn service_level(&self, custkey: i64) -> &'static str {
        let total = self.total_business(custkey);
        if total > 1_000_000.0 {
            "Platinum"
        } else if total > 500_000.0 {
            "Gold"
        } else {
            "Regular"
        }
    }

    /// Experiment 3: parts in the category or any of its ancestors.
    pub fn category_part_count(&self, category: i64) -> i64 {
        self.ancestors
            .get(&category)
            .into_iter()
            .flatten()
            .map(|a| self.parts_in_category.get(a).copied().unwrap_or(0))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(key: i64, value: Value) -> Row {
        Row::new(vec![Value::Int(key), value])
    }

    #[test]
    fn check_rows_accepts_any_order_within_tolerance() {
        let cells = vec![Cell::Float(10.0), Cell::Float(20.0), Cell::Float(30.0)];
        let rows = vec![
            row(7, Value::Float(30.0)),
            row(5, Value::Float(10.0 * (1.0 + 1e-12))),
            row(6, Value::Float(20.0)),
        ];
        assert!(check_rows(&rows, 5, &cells).is_ok());
    }

    #[test]
    fn check_rows_rejects_each_kind_of_discrepancy() {
        let cells = vec![Cell::Int(1), Cell::Text("Gold".into())];
        let good = vec![row(1, Value::Int(1)), row(2, Value::str("Gold"))];
        assert!(check_rows(&good, 1, &cells).is_ok());
        assert!(check_rows(&good[..1], 1, &cells).is_err(), "missing row");
        let wrong = vec![row(1, Value::Int(2)), row(2, Value::str("Gold"))];
        assert!(check_rows(&wrong, 1, &cells).is_err(), "wrong value");
        let twice = vec![row(1, Value::Int(1)), row(1, Value::Int(1))];
        assert!(check_rows(&twice, 1, &cells).is_err(), "duplicate key");
        let stray = vec![row(1, Value::Int(1)), row(9, Value::str("Gold"))];
        assert!(check_rows(&stray, 1, &cells).is_err(), "key out of range");
        let off = vec![row(1, Value::Float(1.0)), row(2, Value::str("Gold"))];
        assert!(check_rows(&off, 1, &cells).is_err(), "wrong type");
        let drift = vec![row(1, Value::Float(10.0 * (1.0 + 1e-6)))];
        assert!(check_rows(&drift, 1, &[Cell::Float(10.0)]).is_err());
    }
}
