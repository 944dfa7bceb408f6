//! The scalar value model shared by storage metadata, expressions, and
//! execution.
//!
//! Values follow SQL semantics: `Null` is absent data, comparisons between
//! `Null` and anything are *unknown* (represented as `None` from
//! [`Value::sql_cmp`]), and the numeric types coerce with each other.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

/// The type of a column or scalar.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ScalarType {
    Bool,
    Int,
    Float,
    Str,
    /// Days since the Unix epoch.
    Date,
    /// Microseconds since the Unix epoch.
    Timestamp,
}

impl ScalarType {
    /// Whether two types are comparable (possibly via numeric coercion).
    pub fn comparable_with(self, other: ScalarType) -> bool {
        self == other || (self.is_numeric() && other.is_numeric())
    }

    /// True for `Int` and `Float`.
    pub fn is_numeric(self) -> bool {
        matches!(self, ScalarType::Int | ScalarType::Float)
    }
}

impl fmt::Display for ScalarType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ScalarType::Bool => "BOOLEAN",
            ScalarType::Int => "BIGINT",
            ScalarType::Float => "DOUBLE",
            ScalarType::Str => "VARCHAR",
            ScalarType::Date => "DATE",
            ScalarType::Timestamp => "TIMESTAMP",
        };
        f.write_str(s)
    }
}

/// A single SQL scalar value.
///
/// Strings are shared: cloning a `Str` bumps a reference count, so copying
/// a string cell out of a column chunk into a row never allocates.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Value {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(Arc<str>),
    /// Days since the Unix epoch.
    Date(i32),
    /// Microseconds since the Unix epoch.
    Timestamp(i64),
}

impl Value {
    /// The type of this value, or `None` for `Null` (untyped).
    pub fn scalar_type(&self) -> Option<ScalarType> {
        match self {
            Value::Null => None,
            Value::Bool(_) => Some(ScalarType::Bool),
            Value::Int(_) => Some(ScalarType::Int),
            Value::Float(_) => Some(ScalarType::Float),
            Value::Str(_) => Some(ScalarType::Str),
            Value::Date(_) => Some(ScalarType::Date),
            Value::Timestamp(_) => Some(ScalarType::Timestamp),
        }
    }

    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// SQL comparison: `None` when either side is `Null` or the types are
    /// incomparable (the predicate evaluates to *unknown*).
    pub fn sql_cmp(&self, other: &Value) -> Option<Ordering> {
        match (self, other) {
            (Value::Null, _) | (_, Value::Null) => None,
            (Value::Bool(a), Value::Bool(b)) => Some(a.cmp(b)),
            (Value::Int(a), Value::Int(b)) => Some(a.cmp(b)),
            (Value::Float(a), Value::Float(b)) => Some(a.total_cmp(b)),
            (Value::Int(a), Value::Float(b)) => Some(cmp_i64_f64(*a, *b)),
            (Value::Float(a), Value::Int(b)) => Some(cmp_i64_f64(*b, *a).reverse()),
            (Value::Str(a), Value::Str(b)) => Some(a.cmp(b)),
            (Value::Date(a), Value::Date(b)) => Some(a.cmp(b)),
            (Value::Timestamp(a), Value::Timestamp(b)) => Some(a.cmp(b)),
            _ => None,
        }
    }

    /// SQL equality with three-valued logic: `None` means *unknown*.
    pub fn sql_eq(&self, other: &Value) -> Option<bool> {
        self.sql_cmp(other).map(|o| o == Ordering::Equal)
    }

    /// Numeric view of the value, coercing `Int` to `f64`.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(i) => Some(*i as f64),
            Value::Float(f) => Some(*f),
            _ => None,
        }
    }

    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Approximate in-memory size in bytes, used by the storage layer for
    /// partition sizing and by join summaries for their byte budget.
    pub fn approx_size(&self) -> usize {
        match self {
            Value::Null => 1,
            Value::Bool(_) => 1,
            Value::Int(_) | Value::Timestamp(_) => 8,
            Value::Float(_) => 8,
            Value::Date(_) => 4,
            Value::Str(s) => 16 + s.len(),
        }
    }
}

/// Exact comparison between an `i64` and an `f64` without precision loss for
/// large integers.
fn cmp_i64_f64(a: i64, b: f64) -> Ordering {
    if b.is_nan() {
        // total_cmp places NaN above all numbers; mirror that here so mixed
        // comparisons stay consistent with Float/Float ordering.
        return Ordering::Less;
    }
    if b == f64::INFINITY {
        return Ordering::Less;
    }
    if b == f64::NEG_INFINITY {
        return Ordering::Greater;
    }
    // 2^63 = 9.22e18: every f64 with |b| >= 2^63 is outside i64's range.
    if b >= 9_223_372_036_854_775_808.0 {
        return Ordering::Less;
    }
    if b < -9_223_372_036_854_775_808.0 {
        return Ordering::Greater;
    }
    let bt = b.trunc();
    let bi = bt as i64;
    match a.cmp(&bi) {
        Ordering::Equal => {
            let frac = b - bt;
            if frac > 0.0 {
                Ordering::Less
            } else if frac < 0.0 {
                Ordering::Greater
            } else {
                Ordering::Equal
            }
        }
        ord => ord,
    }
}

impl PartialEq for Value {
    /// Structural equality for use in collections and tests.
    ///
    /// Unlike [`Value::sql_eq`], `Null == Null` here and `Int(1) !=
    /// Float(1.0)`; NaN equals NaN (via `total_cmp`). Use `sql_eq` for query
    /// semantics.
    fn eq(&self, other: &Self) -> bool {
        self.total_ord_cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        std::mem::discriminant(self).hash(state);
        match self {
            Value::Null => {}
            Value::Bool(b) => b.hash(state),
            Value::Int(i) => i.hash(state),
            Value::Float(f) => f.to_bits().hash(state),
            Value::Str(s) => s.hash(state),
            Value::Date(d) => d.hash(state),
            Value::Timestamp(t) => t.hash(state),
        }
    }
}

impl Value {
    /// A total order over *all* values, for data structures (heaps, BTree
    /// keys). `Null` sorts lowest; across type classes the order follows the
    /// discriminant; numerics compare by value.
    pub fn total_ord_cmp(&self, other: &Value) -> Ordering {
        fn class(v: &Value) -> u8 {
            match v {
                Value::Null => 0,
                Value::Bool(_) => 1,
                Value::Int(_) | Value::Float(_) => 2,
                Value::Str(_) => 3,
                Value::Date(_) => 4,
                Value::Timestamp(_) => 5,
            }
        }
        match class(self).cmp(&class(other)) {
            Ordering::Equal => match (self, other) {
                (Value::Null, Value::Null) => Ordering::Equal,
                (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
                (Value::Int(a), Value::Int(b)) => a.cmp(b),
                (Value::Float(a), Value::Float(b)) => a.total_cmp(b),
                (Value::Int(a), Value::Float(b)) => cmp_i64_f64(*a, *b),
                (Value::Float(a), Value::Int(b)) => cmp_i64_f64(*b, *a).reverse(),
                (Value::Str(a), Value::Str(b)) => a.cmp(b),
                (Value::Date(a), Value::Date(b)) => a.cmp(b),
                (Value::Timestamp(a), Value::Timestamp(b)) => a.cmp(b),
                _ => unreachable!("same class"),
            },
            ord => ord,
        }
    }
}

/// Wrapper giving [`Value`] a total `Ord` for use in `BinaryHeap`/`BTreeMap`.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct KeyValue(pub Value);

impl PartialOrd for KeyValue {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for KeyValue {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0.total_ord_cmp(&other.0)
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "NULL"),
            Value::Bool(b) => write!(f, "{}", if *b { "TRUE" } else { "FALSE" }),
            Value::Int(i) => write!(f, "{i}"),
            Value::Float(x) => write!(f, "{x}"),
            Value::Str(s) => write!(f, "'{}'", s.replace('\'', "''")),
            Value::Date(d) => write!(f, "DATE({d})"),
            Value::Timestamp(t) => write!(f, "TS({t})"),
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
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.into())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(v.into())
    }
}
impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

/// Checked SQL arithmetic with numeric promotion. Returns `None` on type
/// errors; overflow promotes to float.
pub mod arith {
    use super::Value;

    pub fn add(a: &Value, b: &Value) -> Option<Value> {
        binop(a, b, i64::checked_add, |x, y| x + y)
    }

    pub fn sub(a: &Value, b: &Value) -> Option<Value> {
        binop(a, b, i64::checked_sub, |x, y| x - y)
    }

    pub fn mul(a: &Value, b: &Value) -> Option<Value> {
        binop(a, b, i64::checked_mul, |x, y| x * y)
    }

    /// SQL division always yields a float; division by zero yields `Null`
    /// (matching engines that return NULL rather than erroring mid-scan).
    pub fn div(a: &Value, b: &Value) -> Option<Value> {
        if a.is_null() || b.is_null() {
            return Some(Value::Null);
        }
        let (x, y) = (a.as_f64()?, b.as_f64()?);
        if y == 0.0 {
            Some(Value::Null)
        } else {
            Some(Value::Float(x / y))
        }
    }

    pub fn neg(a: &Value) -> Option<Value> {
        match a {
            Value::Null => Some(Value::Null),
            Value::Int(i) => Some(
                i.checked_neg()
                    .map_or(Value::Float(-(*i as f64)), Value::Int),
            ),
            Value::Float(f) => Some(Value::Float(-f)),
            _ => None,
        }
    }

    fn binop(
        a: &Value,
        b: &Value,
        int_op: fn(i64, i64) -> Option<i64>,
        float_op: fn(f64, f64) -> f64,
    ) -> Option<Value> {
        match (a, b) {
            (Value::Null, _) | (_, Value::Null) => Some(Value::Null),
            (Value::Int(x), Value::Int(y)) => Some(
                int_op(*x, *y)
                    .map_or_else(|| Value::Float(float_op(*x as f64, *y as f64)), Value::Int),
            ),
            _ => {
                let (x, y) = (a.as_f64()?, b.as_f64()?);
                Some(Value::Float(float_op(x, y)))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_comparisons_are_unknown() {
        assert_eq!(Value::Null.sql_cmp(&Value::Int(1)), None);
        assert_eq!(Value::Int(1).sql_cmp(&Value::Null), None);
        assert_eq!(Value::Null.sql_eq(&Value::Null), None);
    }

    #[test]
    fn numeric_coercion() {
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.0)),
            Some(Ordering::Equal)
        );
        assert_eq!(
            Value::Int(2).sql_cmp(&Value::Float(2.5)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Float(3.0).sql_cmp(&Value::Int(2)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn large_int_float_comparison_is_exact() {
        // 2^53 + 1 is not representable as f64; a naive cast would compare equal.
        let big = (1i64 << 53) + 1;
        assert_eq!(
            Value::Int(big).sql_cmp(&Value::Float((1i64 << 53) as f64)),
            Some(Ordering::Greater)
        );
        assert_eq!(
            Value::Int(i64::MAX).sql_cmp(&Value::Float(f64::INFINITY)),
            Some(Ordering::Less)
        );
        assert_eq!(
            Value::Int(i64::MIN).sql_cmp(&Value::Float(f64::NEG_INFINITY)),
            Some(Ordering::Greater)
        );
    }

    #[test]
    fn incompatible_types_are_unknown() {
        assert_eq!(Value::Int(1).sql_cmp(&Value::Str("a".into())), None);
        assert_eq!(Value::Date(1).sql_cmp(&Value::Timestamp(1)), None);
    }

    #[test]
    fn total_order_covers_all_classes() {
        let mut vals = [
            Value::Str("b".into()),
            Value::Null,
            Value::Int(3),
            Value::Float(2.5),
            Value::Bool(true),
            Value::Date(10),
        ];
        vals.sort_by(|a, b| a.total_ord_cmp(b));
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Bool(true));
        assert_eq!(vals[2], Value::Float(2.5));
        assert_eq!(vals[3], Value::Int(3));
    }

    #[test]
    fn arithmetic_overflow_promotes() {
        let v = arith::add(&Value::Int(i64::MAX), &Value::Int(1)).unwrap();
        assert!(matches!(v, Value::Float(_)));
        assert_eq!(
            arith::div(&Value::Int(1), &Value::Int(0)),
            Some(Value::Null)
        );
    }

    #[test]
    fn display_quotes_strings() {
        assert_eq!(Value::Str("o'brien".into()).to_string(), "'o''brien'");
    }
}
