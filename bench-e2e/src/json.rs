//! Thin JSON helpers over the vendored `serde` value tree: the child
//! protocol, the ledger and the trace file are all built as
//! [`Value`]s and rendered by the vendored `serde_json`.

use serde::{DeError, Deserialize, Serialize, Value};

/// A raw JSON document (the vendored stub has no `Value` impls of its
/// own).
pub struct Json(pub Value);

impl Serialize for Json {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_value(v: &Value) -> Result<Json, DeError> {
        Ok(Json(v.clone()))
    }
}

/// Render `v` as one line of JSON.
pub fn render(v: Value) -> String {
    serde_json::to_string(&Json(v)).expect("value trees always render")
}

/// Parse one JSON document.
pub fn parse(s: &str) -> Result<Value, String> {
    serde_json::from_str::<Json>(s)
        .map(|j| j.0)
        .map_err(|e| e.to_string())
}

/// An object from `(key, value)` pairs, keeping their order.
pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Value)>) -> Value {
    Value::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
}

/// A finite float (non-finite values, which JSON cannot carry, read 0).
pub fn num(x: f64) -> Value {
    Value::F64(if x.is_finite() { x } else { 0.0 })
}

/// A string value.
pub fn string(s: impl Into<String>) -> Value {
    Value::Str(s.into())
}

/// A number as a float (integers widen).
pub fn as_f64(v: &Value) -> Option<f64> {
    match v {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

/// Field `key` of an object as a float.
pub fn get_f64(v: &Value, key: &str) -> Option<f64> {
    as_f64(v.field(key).ok()?)
}

/// Field `key` of an object as an unsigned integer.
pub fn get_u64(v: &Value, key: &str) -> Option<u64> {
    match v.field(key).ok()? {
        Value::U64(n) => Some(*n),
        _ => None,
    }
}

/// Field `key` of an object as a string.
pub fn get_str<'a>(v: &'a Value, key: &str) -> Option<&'a str> {
    match v.field(key).ok()? {
        Value::Str(s) => Some(s),
        _ => None,
    }
}
