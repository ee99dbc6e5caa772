//! Dynamically typed values and their static types.
//!
//! The engine is an in-memory interpreter, so a single enum covers every SQL value the
//! paper's examples need: integers, floats, strings, booleans and NULL. The paper's `⊥`
//! (value of an uninitialised variable, Section III) is represented as [`Value::Null`].

use std::cmp::Ordering;
use std::fmt;

use crate::{Error, Result};

/// Static type of a column, parameter or variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DataType {
    /// 64-bit signed integer (`int`, `bigint`).
    Int,
    /// 64-bit IEEE float (`float`, `decimal` — approximated).
    Float,
    /// Variable length string (`char(n)`, `varchar`, `text`).
    Str,
    /// Boolean (`bool`, also the type of predicates).
    Bool,
    /// The type of NULL literals / `⊥` before any other type information is known.
    Null,
}

impl DataType {
    /// Returns the default "uninitialised" value for the type — the paper's `⊥`.
    ///
    /// We follow the convention of most procedural SQL dialects and use NULL for every
    /// type rather than a language specific default.
    pub fn uninitialized(&self) -> Value {
        Value::Null
    }

    /// True if a value of type `other` can be assigned/compared to this type without an
    /// explicit cast (ints promote to floats, NULL unifies with everything).
    pub fn is_compatible_with(&self, other: DataType) -> bool {
        if *self == other || *self == DataType::Null || other == DataType::Null {
            return true;
        }
        matches!(
            (*self, other),
            (DataType::Int, DataType::Float) | (DataType::Float, DataType::Int)
        )
    }

    /// Least common type of two types (used for CASE branches, unions, arithmetic).
    pub fn unify(&self, other: DataType) -> Result<DataType> {
        match (*self, other) {
            (a, b) if a == b => Ok(a),
            (DataType::Null, b) => Ok(b),
            (a, DataType::Null) => Ok(a),
            (DataType::Int, DataType::Float) | (DataType::Float, DataType::Int) => {
                Ok(DataType::Float)
            }
            (a, b) => Err(Error::TypeError(format!("incompatible types {a} and {b}"))),
        }
    }
}

impl fmt::Display for DataType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DataType::Int => "int",
            DataType::Float => "float",
            DataType::Str => "varchar",
            DataType::Bool => "bool",
            DataType::Null => "null",
        };
        write!(f, "{s}")
    }
}

/// A runtime SQL value.
///
/// `Value` implements three-valued-logic aware comparison helpers ([`Value::sql_eq`],
/// [`Value::sql_cmp`]) in addition to a total order ([`Ord`] via [`Value::total_cmp`])
/// used for sorting and grouping, where NULLs sort first and compare equal to each other.
#[derive(Debug, Clone)]
pub enum Value {
    /// SQL NULL.
    Null,
    /// A boolean.
    Bool(bool),
    /// A 64-bit integer.
    Int(i64),
    /// A 64-bit float.
    Float(f64),
    /// A UTF-8 string.
    Str(String),
}

impl Value {
    /// Constructs a string value.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The dynamic type of this value.
    pub fn data_type(&self) -> DataType {
        match self {
            Value::Null => DataType::Null,
            Value::Bool(_) => DataType::Bool,
            Value::Int(_) => DataType::Int,
            Value::Float(_) => DataType::Float,
            Value::Str(_) => DataType::Str,
        }
    }

    /// True for SQL NULL.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// Interprets the value as a boolean for predicate evaluation. NULL maps to `None`
    /// (unknown) per SQL three-valued logic.
    pub fn as_bool(&self) -> Result<Option<bool>> {
        match self {
            Value::Null => Ok(None),
            Value::Bool(b) => Ok(Some(*b)),
            other => Err(Error::TypeError(format!("expected boolean, found {other}"))),
        }
    }

    /// Returns the value as an i64 if it is an integer (or integral float).
    pub fn as_int(&self) -> Result<i64> {
        match self {
            Value::Int(i) => Ok(*i),
            Value::Float(f) if f.fract() == 0.0 => Ok(*f as i64),
            other => Err(Error::TypeError(format!("expected int, found {other}"))),
        }
    }

    /// Returns the value as an f64 if it is numeric.
    pub fn as_float(&self) -> Result<f64> {
        match self {
            Value::Int(i) => Ok(*i as f64),
            Value::Float(f) => Ok(*f),
            other => Err(Error::TypeError(format!("expected float, found {other}"))),
        }
    }

    /// Returns the value as a string slice if it is a string.
    pub fn as_str(&self) -> Result<&str> {
        match self {
            Value::Str(s) => Ok(s),
            other => Err(Error::TypeError(format!("expected string, found {other}"))),
        }
    }

    /// SQL equality: NULL compared with anything is unknown (`None`).
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// SQL comparison with three-valued logic: returns `None` if either side is NULL or
    /// the types are not comparable.
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (a, b) => {
                let (af, bf) = (a.as_float().ok()?, b.as_float().ok()?);
                af.partial_cmp(&bf)
            }
        }
    }

    /// Total comparison used for sorting and group-by keys: NULLs compare equal to each
    /// other and sort before every non-NULL value; mixed numeric types compare by value;
    /// different non-comparable types order by a fixed type rank.
    pub fn total_cmp(&self, other: &Value) -> Ordering {
        fn rank(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
            }
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (Value::Int(a), Value::Int(b)) => a.cmp(b),
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::Str(a), Value::Str(b)) => a.cmp(b),
            (a, b) if rank(a) == 2 && rank(b) == 2 => {
                let (af, bf) = (a.as_float().unwrap(), b.as_float().unwrap());
                af.partial_cmp(&bf).unwrap_or(Ordering::Equal)
            }
            (a, b) => rank(a).cmp(&rank(b)),
        }
    }

    /// A hashable group-by / join key representation of the value in which `Int(2)` and
    /// `Float(2.0)` hash identically and all NULLs collide.
    pub fn group_key(&self) -> GroupKey {
        match self {
            Value::Null => GroupKey::Null,
            Value::Bool(b) => GroupKey::Bool(*b),
            Value::Int(i) => GroupKey::Float((*i as f64).to_bits()),
            Value::Float(f) => GroupKey::Float(f.to_bits()),
            Value::Str(s) => GroupKey::Str(s.clone()),
        }
    }

    /// Arithmetic addition with numeric promotion. NULL propagates.
    pub fn add(&self, other: &Value) -> Result<Value> {
        Value::numeric_binop(self, other, "+", |a, b| a + b, |a, b| a.checked_add(b))
    }

    /// Arithmetic subtraction with numeric promotion. NULL propagates.
    pub fn sub(&self, other: &Value) -> Result<Value> {
        Value::numeric_binop(self, other, "-", |a, b| a - b, |a, b| a.checked_sub(b))
    }

    /// Arithmetic multiplication with numeric promotion. NULL propagates.
    pub fn mul(&self, other: &Value) -> Result<Value> {
        Value::numeric_binop(self, other, "*", |a, b| a * b, |a, b| a.checked_mul(b))
    }

    /// Arithmetic division. Integer division by zero is an error; the result of integer
    /// division is a float (as in most SQL dialects for `/` on decimals).
    pub fn div(&self, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        let b = other.as_float()?;
        if b == 0.0 {
            return Err(Error::Execution("division by zero".into()));
        }
        Ok(Value::Float(self.as_float()? / b))
    }

    /// Remainder on integers. NULL propagates.
    pub fn modulo(&self, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        let b = other.as_int()?;
        if b == 0 {
            return Err(Error::Execution("division by zero".into()));
        }
        Ok(Value::Int(self.as_int()? % b))
    }

    /// String concatenation (`||`). NULL propagates.
    pub fn concat(&self, other: &Value) -> Result<Value> {
        if self.is_null() || other.is_null() {
            return Ok(Value::Null);
        }
        Ok(Value::Str(format!(
            "{}{}",
            self.display_raw(),
            other.display_raw()
        )))
    }

    fn numeric_binop(
        a: &Value,
        b: &Value,
        op: &str,
        ff: impl Fn(f64, f64) -> f64,
        fi: impl Fn(i64, i64) -> Option<i64>,
    ) -> Result<Value> {
        match (a, b) {
            (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
            (Value::Int(x), Value::Int(y)) => fi(*x, *y)
                .map(Value::Int)
                .ok_or_else(|| Error::Execution(format!("integer overflow in {x} {op} {y}"))),
            _ => Ok(Value::Float(ff(a.as_float()?, b.as_float()?))),
        }
    }

    /// Renders the value without quoting (used for concatenation and display).
    pub fn display_raw(&self) -> String {
        match self {
            Value::Null => "NULL".to_string(),
            Value::Bool(b) => b.to_string(),
            Value::Int(i) => i.to_string(),
            Value::Float(f) => {
                if f.fract() == 0.0 && f.abs() < 1e15 {
                    format!("{:.1}", f)
                } else {
                    f.to_string()
                }
            }
            Value::Str(s) => s.clone(),
        }
    }

    /// Casts the value to the requested type, following permissive SQL casting rules.
    pub fn cast(&self, ty: DataType) -> Result<Value> {
        match (self, ty) {
            (Value::Null, _) => Ok(Value::Null),
            (v, DataType::Null) => Ok(v.clone()),
            (Value::Int(i), DataType::Int) => Ok(Value::Int(*i)),
            (Value::Int(i), DataType::Float) => Ok(Value::Float(*i as f64)),
            (Value::Float(f), DataType::Float) => Ok(Value::Float(*f)),
            (Value::Float(f), DataType::Int) => Ok(Value::Int(*f as i64)),
            (Value::Bool(b), DataType::Bool) => Ok(Value::Bool(*b)),
            (Value::Str(s), DataType::Str) => Ok(Value::Str(s.clone())),
            (Value::Str(s), DataType::Int) => s
                .trim()
                .parse::<i64>()
                .map(Value::Int)
                .map_err(|_| Error::TypeError(format!("cannot cast '{s}' to int"))),
            (Value::Str(s), DataType::Float) => s
                .trim()
                .parse::<f64>()
                .map(Value::Float)
                .map_err(|_| Error::TypeError(format!("cannot cast '{s}' to float"))),
            (v, DataType::Str) => Ok(Value::Str(v.display_raw())),
            (v, t) => Err(Error::TypeError(format!("cannot cast {v} to {t}"))),
        }
    }
}

/// Hashable/equatable key form of a [`Value`], used for hash joins and hash aggregation.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum GroupKey {
    /// SQL NULL (all NULLs land in one group).
    Null,
    /// A boolean key.
    Bool(bool),
    /// Numeric values are normalised to the bit pattern of their f64 representation so
    /// that `Int(2)` and `Float(2.0)` collide.
    Float(u64),
    /// A string key.
    Str(String),
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.total_cmp(other) == Ordering::Equal
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Str(s) => write!(f, "'{s}'"),
            other => write!(f, "{}", other.display_raw()),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Float(v)
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_string())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn data_type_unify() {
        assert_eq!(
            DataType::Int.unify(DataType::Float).unwrap(),
            DataType::Float
        );
        assert_eq!(DataType::Null.unify(DataType::Str).unwrap(), DataType::Str);
        assert_eq!(DataType::Int.unify(DataType::Int).unwrap(), DataType::Int);
        assert!(DataType::Int.unify(DataType::Str).is_err());
    }

    #[test]
    fn data_type_compatibility() {
        assert!(DataType::Int.is_compatible_with(DataType::Float));
        assert!(DataType::Str.is_compatible_with(DataType::Null));
        assert!(!DataType::Bool.is_compatible_with(DataType::Int));
    }

    #[test]
    fn sql_eq_with_nulls_is_unknown() {
        assert_eq!(Value::Null.sql_eq(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Null), None);
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(1)), Some(true));
        assert_eq!(Value::Int(1).sql_eq(&Value::Int(2)), Some(false));
    }

    #[test]
    fn numeric_promotion_in_comparison() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Float(1.5).sql_cmp(&Value::Int(2)),
            Some(Ordering::Less)
        );
    }

    #[test]
    fn total_cmp_null_first_and_equal() {
        assert_eq!(Value::Null.total_cmp(&Value::Null), Ordering::Equal);
        assert_eq!(Value::Null.total_cmp(&Value::Int(-100)), Ordering::Less);
        assert_eq!(
            Value::Str("a".into()).total_cmp(&Value::Int(5)),
            Ordering::Greater
        );
    }

    #[test]
    fn arithmetic_basics() {
        assert_eq!(Value::Int(2).add(&Value::Int(3)).unwrap(), Value::Int(5));
        assert_eq!(
            Value::Int(2).mul(&Value::Float(0.5)).unwrap(),
            Value::Float(1.0)
        );
        assert_eq!(Value::Int(7).modulo(&Value::Int(3)).unwrap(), Value::Int(1));
        assert!(Value::Int(1).div(&Value::Int(0)).is_err());
        assert!(Value::Null.add(&Value::Int(1)).unwrap().is_null());
    }

    #[test]
    fn integer_overflow_is_an_error() {
        assert!(Value::Int(i64::MAX).add(&Value::Int(1)).is_err());
        assert!(Value::Int(i64::MIN).sub(&Value::Int(1)).is_err());
    }

    #[test]
    fn casting() {
        assert_eq!(
            Value::str("42").cast(DataType::Int).unwrap(),
            Value::Int(42)
        );
        assert_eq!(
            Value::Int(42).cast(DataType::Str).unwrap(),
            Value::str("42")
        );
        assert_eq!(
            Value::Float(1.9).cast(DataType::Int).unwrap(),
            Value::Int(1)
        );
        assert!(Value::str("abc").cast(DataType::Int).is_err());
        assert!(Value::Null.cast(DataType::Int).unwrap().is_null());
    }

    #[test]
    fn group_key_unifies_int_and_float() {
        assert_eq!(Value::Int(2).group_key(), Value::Float(2.0).group_key());
        assert_ne!(Value::Int(2).group_key(), Value::Int(3).group_key());
        assert_eq!(Value::Null.group_key(), Value::Null.group_key());
    }
}
