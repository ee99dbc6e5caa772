//! Row (tuple) representation.

use std::fmt;

use crate::{Schema, Value};

/// A tuple of values. Rows are schema-less by themselves; the accompanying [`Schema`]
/// gives names and types to the positions.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Row {
    /// The field values, in schema position order.
    pub values: Vec<Value>,
}

impl Row {
    /// A row over the given values.
    pub fn new(values: Vec<Value>) -> Row {
        Row { values }
    }

    /// The empty row — the single tuple of the paper's `Single` relation.
    pub fn empty() -> Row {
        Row { values: vec![] }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True for the zero-column row.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The value at position `idx` (panics out of range).
    pub fn get(&self, idx: usize) -> &Value {
        &self.values[idx]
    }

    /// Pretty-prints the row against a schema, `name=value` pairs.
    pub fn display_with(&self, schema: &Schema) -> String {
        self.values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let name = schema
                    .columns
                    .get(i)
                    .map(|c| c.qualified_name())
                    .unwrap_or_else(|| format!("#{i}"));
                format!("{name}={v}")
            })
            .collect::<Vec<_>>()
            .join(", ")
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.values.iter().map(|v| v.to_string()).collect();
        write!(f, "({})", parts.join(", "))
    }
}

impl From<Vec<Value>> for Row {
    fn from(values: Vec<Value>) -> Self {
        Row { values }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Column, DataType};

    #[test]
    fn empty_row() {
        assert!(Row::empty().is_empty());
        assert_eq!(Row::empty().to_string(), "()");
    }

    #[test]
    fn display_with_schema() {
        let schema = Schema::new(vec![
            Column::new("k", DataType::Int),
            Column::new("v", DataType::Str),
        ]);
        let r = Row::new(vec![Value::Int(7), Value::str("hi")]);
        assert_eq!(r.display_with(&schema), "k=7, v='hi'");
    }
}
