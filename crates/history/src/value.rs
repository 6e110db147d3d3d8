//! Values carried by object versions.
//!
//! The theory of the paper never inspects values — conflicts are
//! defined purely over version identities and predicate match status.
//! Values exist so that (a) example histories can mirror the paper's
//! `w1(x1, 2)` notation, (b) the engine substrate can store real rows,
//! and (c) predicate match tables can be *derived* from row contents
//! instead of being written out by hand.

use std::collections::BTreeMap;
use std::fmt;

/// A value stored in an object version.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Value {
    /// 64-bit integer (the paper's numeric examples).
    Int(i64),
    /// UTF-8 string (department names and the like).
    Str(String),
    /// Boolean.
    Bool(bool),
    /// A relational tuple with named fields.
    Tuple(Row),
}

impl Value {
    /// Convenience constructor for string values.
    pub fn str(s: impl Into<String>) -> Value {
        Value::Str(s.into())
    }

    /// The integer payload, if this is an [`Value::Int`].
    pub fn as_int(&self) -> Option<i64> {
        match self {
            Value::Int(i) => Some(*i),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{s:?}"),
            Value::Bool(b) => write!(f, "{b}"),
            Value::Tuple(r) => write!(f, "{r}"),
        }
    }
}

impl From<i64> for Value {
    fn from(i: i64) -> Self {
        Value::Int(i)
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Self {
        Value::Str(s.to_string())
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Self {
        Value::Bool(b)
    }
}

/// A relational tuple: an ordered map from field name to value.
#[derive(Debug, Clone, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Row {
    fields: BTreeMap<String, Value>,
}

impl Row {
    /// An empty row.
    pub fn new() -> Row {
        Row::default()
    }

    /// Builder-style field setter.
    ///
    /// ```
    /// use adya_history::{Row, Value};
    /// let r = Row::new().with("dept", "Sales").with("sal", 100i64);
    /// assert_eq!(r.get("sal"), Some(&Value::Int(100)));
    /// ```
    pub fn with(mut self, field: impl Into<String>, value: impl Into<Value>) -> Row {
        self.fields.insert(field.into(), value.into());
        self
    }

    /// Sets a field in place.
    pub fn set(&mut self, field: impl Into<String>, value: impl Into<Value>) {
        self.fields.insert(field.into(), value.into());
    }

    /// Looks up a field.
    pub fn get(&self, field: &str) -> Option<&Value> {
        self.fields.get(field)
    }

    /// Iterates fields in name order.
    pub fn fields(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the row has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }
}

impl fmt::Display for Row {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}: {v}")?;
        }
        write!(f, "}}")
    }
}

/// The lifecycle kind of a version (§4.1).
///
/// Objects move `Unborn → Visible* → Dead`; only visible versions may
/// be read by item reads, and only visible versions can match a
/// predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum VersionKind {
    /// The object has not yet been inserted (initial `x_init` state).
    Unborn,
    /// A normal, readable version.
    Visible,
    /// The object has been deleted; a dead version is terminal.
    Dead,
}

impl fmt::Display for VersionKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VersionKind::Unborn => write!(f, "unborn"),
            VersionKind::Visible => write!(f, "visible"),
            VersionKind::Dead => write!(f, "dead"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_builder_and_lookup() {
        let r = Row::new().with("dept", "Sales").with("sal", 10i64);
        assert_eq!(r.get("dept"), Some(&Value::Str("Sales".into())));
        assert_eq!(r.get("sal").and_then(Value::as_int), Some(10));
        assert_eq!(r.get("missing"), None);
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
    }

    #[test]
    fn row_set_overwrites() {
        let mut r = Row::new().with("sal", 10i64);
        r.set("sal", 20i64);
        assert_eq!(r.get("sal").and_then(Value::as_int), Some(20));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn value_conversions() {
        assert_eq!(Value::from(5i64), Value::Int(5));
        assert_eq!(Value::from("hi"), Value::Str("hi".into()));
        assert_eq!(Value::from(true), Value::Bool(true));
        assert_eq!(Value::str("s"), Value::Str("s".into()));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Value::Int(7).to_string(), "7");
        assert_eq!(Value::str("a").to_string(), "\"a\"");
        let r = Row::new().with("d", "S");
        assert_eq!(Value::Tuple(r).to_string(), "{d: \"S\"}");
        assert_eq!(VersionKind::Dead.to_string(), "dead");
    }
}
