//! Evaluation environments: row scopes, variable bindings and outer-query correlation.

use std::collections::HashMap;

use decorr_common::{normalize_ident, Result, Row, Schema, Value};

/// An evaluation environment.
///
/// Environments form a chain: the innermost scope is consulted first, and unresolved
/// column / parameter references fall through to the `outer` environment. This is how
/// correlated evaluation works — the right child of an `Apply` is evaluated in an
/// environment whose outer scope is the current outer tuple, and queries inside UDF
/// bodies see the UDF's local variables as parameters.
#[derive(Debug, Clone, Default)]
pub struct Env {
    /// Schema of the current row scope (empty for a pure variable scope).
    pub schema: Schema,
    /// The current row (empty for a pure variable scope).
    pub row: Row,
    /// Named parameters / variables visible in this scope.
    pub params: HashMap<String, Value>,
    /// Enclosing scope, if any.
    pub outer: Option<Box<Env>>,
}

impl Env {
    /// An empty root environment.
    pub fn root() -> Env {
        Env::default()
    }

    /// An environment holding a row of the given schema.
    pub fn with_row(schema: Schema, row: Row) -> Env {
        Env {
            schema,
            row,
            params: HashMap::new(),
            outer: None,
        }
    }

    /// An operator's evaluation frame: a scope of `schema` inside `outer` whose row slot
    /// starts empty. The operator moves each of its rows into `row` in turn, so it pays
    /// for the schema and the outer scope once, not once per row.
    pub(crate) fn frame(schema: Schema, outer: &Env) -> Env {
        Env::with_row(schema, Row::empty()).nested_in(outer)
    }

    /// An environment holding only named variables.
    pub fn with_params(params: HashMap<String, Value>) -> Env {
        Env {
            schema: Schema::empty(),
            row: Row::empty(),
            params,
            outer: None,
        }
    }

    /// Returns a copy of this environment nested inside `outer`.
    pub fn nested_in(mut self, outer: &Env) -> Env {
        self.outer = Some(Box::new(outer.clone()));
        self
    }

    /// Sets a parameter value in this scope.
    pub fn set_param(&mut self, name: &str, value: Value) {
        self.params.insert(normalize_ident(name), value);
    }

    /// Looks up a parameter, walking outward through enclosing scopes.
    pub fn param(&self, name: &str) -> Option<Value> {
        let key = normalize_ident(name);
        if let Some(v) = self.params.get(&key) {
            return Some(v.clone());
        }
        self.outer.as_ref().and_then(|o| o.param(name))
    }

    /// Looks up a column reference, walking outward through enclosing scopes. The first
    /// scope with a matching column decides: `Ok(None)` when no scope has one, a binding
    /// error when that scope has several — an ambiguous reference never falls through
    /// to an enclosing query.
    pub fn column(&self, qualifier: Option<&str>, name: &str) -> Result<Option<Value>> {
        match self.schema.lookup(qualifier, name)? {
            Some(idx) => Ok(Some(self.row.get(idx).clone())),
            None => match &self.outer {
                Some(outer) => outer.column(qualifier, name),
                None => Ok(None),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use decorr_common::{Column, DataType};

    #[test]
    fn param_lookup_walks_scopes() {
        let mut outer = Env::root();
        outer.set_param("ckey", Value::Int(7));
        let mut inner = Env::root().nested_in(&outer);
        assert_eq!(inner.param("CKEY"), Some(Value::Int(7)));
        inner.set_param("ckey", Value::Int(9));
        assert_eq!(inner.param("ckey"), Some(Value::Int(9)));
        assert_eq!(inner.param("nosuch"), None);
    }

    #[test]
    fn column_lookup_walks_scopes() {
        let outer = Env::with_row(
            Schema::new(vec![Column::qualified("c", "custkey", DataType::Int)]),
            Row::new(vec![Value::Int(42)]),
        );
        let inner = Env::with_row(
            Schema::new(vec![Column::new("orderkey", DataType::Int)]),
            Row::new(vec![Value::Int(1)]),
        )
        .nested_in(&outer);
        assert_eq!(inner.column(None, "orderkey").unwrap(), Some(Value::Int(1)));
        assert_eq!(
            inner.column(Some("c"), "custkey").unwrap(),
            Some(Value::Int(42))
        );
        assert_eq!(inner.column(None, "custkey").unwrap(), Some(Value::Int(42)));
        assert_eq!(inner.column(None, "nosuch").unwrap(), None);
    }

    #[test]
    fn an_ambiguous_column_is_an_error_not_an_outer_reference() {
        let outer = Env::with_row(
            Schema::new(vec![Column::qualified("o", "k", DataType::Int)]),
            Row::new(vec![Value::Int(1)]),
        );
        let inner = Env::with_row(
            Schema::new(vec![
                Column::qualified("a", "k", DataType::Int),
                Column::qualified("b", "k", DataType::Int),
            ]),
            Row::new(vec![Value::Int(3), Value::Int(3)]),
        )
        .nested_in(&outer);
        let err = inner.column(None, "k").unwrap_err();
        assert_eq!(err.kind(), "binding");
        assert!(err.to_string().contains("ambiguous"), "{err}");
        assert_eq!(inner.column(Some("o"), "k").unwrap(), Some(Value::Int(1)));
    }
}
