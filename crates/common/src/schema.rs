//! Relation schemas and column metadata.

use std::fmt;

use crate::{normalize_ident, DataType, Error, Result};

/// A single column of a relation schema.
///
/// Columns carry an optional *qualifier* (table name or alias) so that after joins two
/// columns with the same base name (e.g. `c.custkey` and `o.custkey`) can still be
/// disambiguated during name resolution, exactly as a SQL engine would.
#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    /// Table name or alias that produced the column, if any.
    pub qualifier: Option<String>,
    /// Column name (always stored lower-case).
    pub name: String,
    /// Declared or inferred type.
    pub data_type: DataType,
    /// Whether the column may hold NULLs.
    pub nullable: bool,
}

impl Column {
    /// Creates a nullable, unqualified column.
    pub fn new(name: impl Into<String>, data_type: DataType) -> Column {
        Column {
            qualifier: None,
            name: normalize_ident(&name.into()),
            data_type,
            nullable: true,
        }
    }

    /// Creates a nullable column with a table qualifier.
    pub fn qualified(
        qualifier: impl Into<String>,
        name: impl Into<String>,
        data_type: DataType,
    ) -> Column {
        Column {
            qualifier: Some(normalize_ident(&qualifier.into())),
            name: normalize_ident(&name.into()),
            data_type,
            nullable: true,
        }
    }

    /// Marks the column NOT NULL (builder style).
    pub fn not_null(mut self) -> Column {
        self.nullable = false;
        self
    }

    /// The fully qualified display name (`qualifier.name` or just `name`).
    pub fn qualified_name(&self) -> String {
        match &self.qualifier {
            Some(q) => format!("{q}.{}", self.name),
            None => self.name.clone(),
        }
    }

    /// True if this column matches a reference `qualifier`/`name` pair. An unqualified
    /// reference matches any qualifier; a qualified reference must match exactly.
    pub fn matches(&self, qualifier: Option<&str>, name: &str) -> bool {
        if !self.name.eq_ignore_ascii_case(name) {
            return false;
        }
        match qualifier {
            None => true,
            Some(q) => self
                .qualifier
                .as_deref()
                .map(|cq| cq.eq_ignore_ascii_case(q))
                .unwrap_or(false),
        }
    }
}

impl fmt::Display for Column {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.qualified_name(), self.data_type)
    }
}

/// An ordered list of columns describing the output of a relational operator or the
/// layout of a stored table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Schema {
    /// The columns, in output position order.
    pub columns: Vec<Column>,
}

impl Schema {
    /// A schema over the given columns.
    pub fn new(columns: Vec<Column>) -> Schema {
        Schema { columns }
    }

    /// The empty schema — the schema of the paper's `Single` relation `S` (one empty
    /// tuple, no attributes).
    pub fn empty() -> Schema {
        Schema { columns: vec![] }
    }

    /// Number of columns.
    pub fn len(&self) -> usize {
        self.columns.len()
    }

    /// True for the zero-column schema.
    pub fn is_empty(&self) -> bool {
        self.columns.is_empty()
    }

    /// Finds the index of the column matching a (possibly qualified) reference:
    /// `Ok(None)` when no column matches, a binding error when more than one does.
    pub fn lookup(&self, qualifier: Option<&str>, name: &str) -> Result<Option<usize>> {
        let mut matches = self
            .columns
            .iter()
            .enumerate()
            .filter(|(_, c)| c.matches(qualifier, name))
            .map(|(i, _)| i);
        let first = matches.next();
        if first.is_some() && matches.next().is_some() {
            return Err(Error::Binding(format!(
                "column reference '{}' is ambiguous in schema [{self}]",
                normalize_ident(name)
            )));
        }
        Ok(first)
    }

    /// Like [`Schema::lookup`], but a reference no column matches is an error too.
    pub fn index_of(&self, qualifier: Option<&str>, name: &str) -> Result<usize> {
        self.lookup(qualifier, name)?.ok_or_else(|| {
            let name = normalize_ident(name);
            Error::Binding(format!(
                "column '{}' not found in schema [{self}]",
                match qualifier {
                    Some(q) => format!("{}.{name}", normalize_ident(q)),
                    None => name,
                },
            ))
        })
    }

    /// Like [`Schema::lookup`], but `None` both when no column matches and when the
    /// reference is ambiguous.
    pub fn find(&self, qualifier: Option<&str>, name: &str) -> Option<usize> {
        self.lookup(qualifier, name).ok().flatten()
    }

    /// Returns the column at `idx`.
    pub fn column(&self, idx: usize) -> &Column {
        &self.columns[idx]
    }

    /// Concatenates two schemas (the schema of a join output).
    pub fn join(&self, other: &Schema) -> Schema {
        let mut columns = self.columns.clone();
        columns.extend(other.columns.clone());
        Schema { columns }
    }

    /// Returns a copy of the schema with every column's qualifier replaced by `alias`.
    pub fn with_qualifier(&self, alias: &str) -> Schema {
        let alias = normalize_ident(alias);
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| Column {
                    qualifier: Some(alias.clone()),
                    ..c.clone()
                })
                .collect(),
        }
    }

    /// Returns a copy with every column marked nullable — used for the null-extended
    /// side of an outer join.
    pub fn as_nullable(&self) -> Schema {
        Schema {
            columns: self
                .columns
                .iter()
                .map(|c| Column {
                    nullable: true,
                    ..c.clone()
                })
                .collect(),
        }
    }

    /// Column names in order (handy in tests).
    pub fn names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }
}

impl fmt::Display for Schema {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let parts: Vec<String> = self.columns.iter().map(|c| c.qualified_name()).collect();
        write!(f, "{}", parts.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Schema {
        Schema::new(vec![
            Column::qualified("c", "custkey", DataType::Int),
            Column::qualified("c", "name", DataType::Str),
            Column::qualified("o", "custkey", DataType::Int),
            Column::new("totalprice", DataType::Float),
        ])
    }

    #[test]
    fn qualified_lookup() {
        let s = sample();
        assert_eq!(s.index_of(Some("c"), "custkey").unwrap(), 0);
        assert_eq!(s.index_of(Some("o"), "custkey").unwrap(), 2);
        assert_eq!(s.index_of(None, "totalprice").unwrap(), 3);
    }

    #[test]
    fn ambiguous_unqualified_lookup_fails() {
        let s = sample();
        let err = s.index_of(None, "custkey").unwrap_err();
        assert_eq!(err.kind(), "binding");
    }

    #[test]
    fn unknown_column_fails() {
        let s = sample();
        assert_eq!(s.index_of(None, "nosuch").unwrap_err().kind(), "binding");
        assert!(s.find(None, "nosuch").is_none());
    }

    #[test]
    fn case_insensitive_lookup() {
        let s = sample();
        assert_eq!(s.index_of(Some("C"), "CustKey").unwrap(), 0);
    }

    #[test]
    fn join_concatenates_and_requalify() {
        let a = Schema::new(vec![Column::new("x", DataType::Int)]);
        let b = Schema::new(vec![Column::new("y", DataType::Int)]);
        let j = a.join(&b);
        assert_eq!(j.len(), 2);
        let q = j.with_qualifier("t");
        assert_eq!(q.index_of(Some("t"), "y").unwrap(), 1);
    }

    #[test]
    fn empty_schema_is_single_relation_schema() {
        assert!(Schema::empty().is_empty());
        assert_eq!(Schema::empty().len(), 0);
    }

    #[test]
    fn nullable_conversion() {
        let s = Schema::new(vec![Column::new("x", DataType::Int).not_null()]);
        assert!(!s.column(0).nullable);
        assert!(s.as_nullable().column(0).nullable);
    }
}
