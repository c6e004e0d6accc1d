//! Dynamically-typed cell values.
//!
//! The engine's hot paths operate directly on typed column arrays; [`Value`]
//! is used at the edges — tabular views, row keys for sort orders, UDF
//! results, and test assertions. The paper supports "integers, floating-point
//! numbers, dates, free-form text, and strings describing categorical data"
//! (§3.5) plus missing values; `Value` mirrors exactly that.

use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// A single spreadsheet cell value.
///
/// `Missing` sorts before every present value, mirroring Hillview's tabular
/// view, and equal values of different types never compare equal.
#[derive(Debug, Clone)]
pub enum Value {
    /// A missing (null) cell.
    Missing,
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float. NaN is normalized to `Missing` on column ingest.
    Double(f64),
    /// A date, encoded as milliseconds since the Unix epoch.
    Date(i64),
    /// Free-form or categorical text (reference-counted; cloning is cheap).
    Str(Arc<str>),
}

impl Value {
    /// Build a string value.
    pub fn str(s: impl Into<Arc<str>>) -> Self {
        Value::Str(s.into())
    }

    /// True if the value is `Missing`.
    pub fn is_missing(&self) -> bool {
        matches!(self, Value::Missing)
    }

    /// Interpret the value as a real number where possible (paper §4.3:
    /// histograms accept "a value that can be readily converted to a real
    /// number, such as a date").
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Double(v) => Some(*v),
            Value::Date(ms) => Some(*ms as f64),
            _ => None,
        }
    }

    /// The integer payload, if this is an `Int` or `Date`.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) | Value::Date(v) => Some(*v),
            _ => None,
        }
    }

    /// The string payload, if any.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a borrowed [`Cell`], the form every comparison goes
    /// through.
    #[inline]
    pub(crate) fn cell(&self) -> Cell<'_> {
        match self {
            Value::Missing => Cell::Missing,
            Value::Int(v) => Cell::Int(*v),
            Value::Double(v) => Cell::Double(*v),
            Value::Date(v) => Cell::Date(*v),
            Value::Str(s) => Cell::Str(s),
        }
    }
}

/// A borrowed cell value: a [`Value`] without the owned string. Table cells
/// compare against row keys in this form, straight from typed column
/// storage, so the ordering below is the one and only definition of how
/// values sort.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Cell<'a> {
    Missing,
    Int(i64),
    Double(f64),
    Date(i64),
    Str(&'a str),
}

impl Cell<'_> {
    /// Rank used to order values of different types (Missing < Int < Double <
    /// Date < Str). Numeric types are compared numerically among themselves.
    #[inline]
    fn type_rank(self) -> u8 {
        match self {
            Cell::Missing => 0,
            Cell::Int(_) | Cell::Double(_) => 1,
            Cell::Date(_) => 2,
            Cell::Str(_) => 3,
        }
    }

    /// Total order: `Missing` first, numbers compared numerically across
    /// `Int` and `Double`, then dates, then strings.
    #[inline]
    pub(crate) fn cmp(self, other: Cell<'_>) -> Ordering {
        use Cell::*;
        match (self, other) {
            (Missing, Missing) => Ordering::Equal,
            (Int(a), Int(b)) => a.cmp(&b),
            (Double(a), Double(b)) => a.partial_cmp(&b).unwrap_or(Ordering::Equal),
            (Int(a), Double(b)) => (a as f64).partial_cmp(&b).unwrap_or(Ordering::Equal),
            (Double(a), Int(b)) => a.partial_cmp(&(b as f64)).unwrap_or(Ordering::Equal),
            (Date(a), Date(b)) => a.cmp(&b),
            (Str(a), Str(b)) => a.cmp(b),
            _ => self.type_rank().cmp(&other.type_rank()),
        }
    }
}

impl PartialEq for Value {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Value {}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cell().cmp(other.cell())
    }
}

impl std::hash::Hash for Value {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        match self {
            Value::Missing => state.write_u8(0),
            Value::Int(v) => {
                state.write_u8(1);
                state.write_i64(*v);
            }
            Value::Double(v) => {
                state.write_u8(2);
                // Hash the bit pattern; NaN never reaches columns.
                state.write_u64(v.to_bits());
            }
            Value::Date(v) => {
                state.write_u8(3);
                state.write_i64(*v);
            }
            Value::Str(s) => {
                state.write_u8(4);
                state.write(s.as_bytes());
            }
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Missing => write!(f, "(missing)"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Double(v) => write!(f, "{v}"),
            Value::Date(ms) => write!(f, "@{ms}"),
            Value::Str(s) => write!(f, "{s}"),
        }
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<f64> for Value {
    fn from(v: f64) -> Self {
        if v.is_nan() {
            Value::Missing
        } else {
            Value::Double(v)
        }
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(Arc::from(v))
    }
}

impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::Str(Arc::from(v.as_str()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_sorts_first() {
        let mut vs = [
            Value::Int(3),
            Value::Missing,
            Value::str("abc"),
            Value::Double(-1.5),
            Value::Date(100),
        ];
        vs.sort();
        assert!(vs[0].is_missing());
        assert_eq!(vs[1], Value::Double(-1.5));
        assert_eq!(vs[2], Value::Int(3));
        assert_eq!(vs[3], Value::Date(100));
        assert_eq!(vs[4], Value::str("abc"));
    }

    #[test]
    fn numeric_cross_type_comparison() {
        assert_eq!(Value::Int(2), Value::Double(2.0));
        assert!(Value::Int(2) < Value::Double(2.5));
        assert!(Value::Double(1.9) < Value::Int(2));
    }

    #[test]
    fn nan_becomes_missing() {
        assert!(Value::from(f64::NAN).is_missing());
        assert!(!Value::from(0.0).is_missing());
    }

    #[test]
    fn as_f64_conversions() {
        assert_eq!(Value::Int(7).as_f64(), Some(7.0));
        assert_eq!(Value::Double(2.5).as_f64(), Some(2.5));
        assert_eq!(Value::Date(1000).as_f64(), Some(1000.0));
        assert_eq!(Value::str("x").as_f64(), None);
        assert_eq!(Value::Missing.as_f64(), None);
    }

    #[test]
    fn display_round_trip_is_readable() {
        assert_eq!(Value::Int(42).to_string(), "42");
        assert_eq!(Value::str("SFO").to_string(), "SFO");
        assert_eq!(Value::Missing.to_string(), "(missing)");
    }

    #[test]
    fn hash_distinguishes_types() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        fn h(v: &Value) -> u64 {
            let mut s = DefaultHasher::new();
            v.hash(&mut s);
            s.finish()
        }
        assert_ne!(h(&Value::Int(1)), h(&Value::Date(1)));
        assert_ne!(h(&Value::Missing), h(&Value::Int(0)));
    }

    #[test]
    fn string_values_share_storage() {
        let v = Value::str("shared");
        let w = v.clone();
        match (&v, &w) {
            (Value::Str(a), Value::Str(b)) => assert!(Arc::ptr_eq(a, b)),
            _ => unreachable!(),
        }
    }
}
