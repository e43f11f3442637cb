//! Runtime values.

use std::fmt;

use tacoma_briefcase::Element;

use crate::RuntimeError;

/// A TaxScript runtime value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// The absent value; `bc_get` past the end yields `nil`, which is how
    /// the Figure-4 agent detects an exhausted itinerary.
    Nil,
    /// Boolean.
    Bool(bool),
    /// 64-bit integer.
    Int(i64),
    /// UTF-8 string.
    Str(String),
    /// Immutable list.
    List(Vec<Value>),
}

impl Value {
    /// Truthiness: `nil` and `false` are false; `0` is false; empty
    /// strings/lists are false; everything else is true. `while (1)` is
    /// the canonical infinite loop (Figure 4).
    pub fn truthy(&self) -> bool {
        match self {
            Value::Nil => false,
            Value::Bool(b) => *b,
            Value::Int(v) => *v != 0,
            Value::Str(s) => !s.is_empty(),
            Value::List(l) => !l.is_empty(),
        }
    }

    /// A short type name for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Nil => "nil",
            Value::Bool(_) => "bool",
            Value::Int(_) => "int",
            Value::Str(_) => "string",
            Value::List(_) => "list",
        }
    }

    /// Renders the value the way `display` and `str()` do.
    pub fn render(&self) -> String {
        match self {
            Value::Nil => "nil".to_owned(),
            Value::Bool(b) => b.to_string(),
            Value::Int(v) => v.to_string(),
            Value::Str(s) => s.clone(),
            Value::List(items) => {
                let inner: Vec<String> = items.iter().map(Value::render).collect();
                format!("[{}]", inner.join(", "))
            }
        }
    }

    /// Converts a briefcase element to a value: UTF-8 text becomes a
    /// string; anything else is surfaced as a string of hex (agents that
    /// need raw binary use dedicated builtins).
    pub fn from_element(e: &Element) -> Value {
        match e.as_str() {
            Ok(s) => Value::Str(s.to_owned()),
            Err(_) => {
                const DIGITS: &[u8; 16] = b"0123456789abcdef";
                let mut hex = String::with_capacity(e.data().len() * 2);
                for &b in e.data() {
                    hex.push(char::from(DIGITS[usize::from(b >> 4)]));
                    hex.push(char::from(DIGITS[usize::from(b & 0xf)]));
                }
                Value::Str(hex)
            }
        }
    }

    /// Converts a value to a briefcase element (its rendering).
    pub fn to_element(&self) -> Element {
        Element::from(self.render())
    }

    /// Requires a string, for builtins.
    pub fn expect_str(&self, builtin: &'static str) -> Result<&str, RuntimeError> {
        match self {
            Value::Str(s) => Ok(s),
            _ => Err(RuntimeError::BuiltinType {
                name: builtin,
                expected: "a string",
            }),
        }
    }

    /// Requires an integer, for builtins.
    pub fn expect_int(&self, builtin: &'static str) -> Result<i64, RuntimeError> {
        match self {
            Value::Int(v) => Ok(*v),
            _ => Err(RuntimeError::BuiltinType {
                name: builtin,
                expected: "an integer",
            }),
        }
    }

    /// Requires a list, for builtins.
    pub fn expect_list(&self, builtin: &'static str) -> Result<&[Value], RuntimeError> {
        match self {
            Value::List(l) => Ok(l),
            _ => Err(RuntimeError::BuiltinType {
                name: builtin,
                expected: "a list",
            }),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.render())
    }
}

impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int(v)
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}

impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::Str(v.to_owned())
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
    fn truthiness_matches_c_conventions() {
        assert!(Value::Int(1).truthy());
        assert!(!Value::Int(0).truthy());
        assert!(!Value::Nil.truthy());
        assert!(!Value::Str(String::new()).truthy());
        assert!(Value::Str("x".into()).truthy());
        assert!(!Value::List(vec![]).truthy());
    }

    #[test]
    fn render_formats() {
        assert_eq!(Value::Nil.render(), "nil");
        assert_eq!(
            Value::List(vec![Value::Int(1), Value::Str("a".into())]).render(),
            "[1, a]"
        );
    }

    #[test]
    fn element_roundtrip_for_text() {
        let v = Value::Str("tacoma://h/vm".into());
        assert_eq!(Value::from_element(&v.to_element()), v);
    }

    #[test]
    fn binary_elements_surface_as_hex() {
        let e = Element::from(vec![0xff, 0xfe]);
        assert_eq!(Value::from_element(&e), Value::Str("fffe".into()));
    }

    #[test]
    fn large_binary_elements_render_like_per_byte_formatting() {
        // 32 KiB of every byte value, non-UTF-8 from its first byte.
        let data: Vec<u8> = (0..32 * 1024).map(|i| 0xff - (i % 256) as u8).collect();
        let expected: String = data.iter().map(|b| format!("{b:02x}")).collect();
        let e = Element::from(data);
        assert_eq!(Value::from_element(&e), Value::Str(expected));
    }

    #[test]
    fn expectations_report_builtin_name() {
        let err = Value::Nil.expect_str("substr").unwrap_err();
        assert!(matches!(
            err,
            RuntimeError::BuiltinType { name: "substr", .. }
        ));
    }
}
