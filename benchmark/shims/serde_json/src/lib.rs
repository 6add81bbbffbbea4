//! Offline stand-in for `serde_json`: `to_string`/`to_string_pretty`/
//! `to_vec`/`to_vec_pretty`/`to_writer`, `from_str`/`from_slice`, `Value`/`Map`/`Number`, `to_value`/
//! `from_value` and a `json!` macro. The text it writes is what
//! serde_json writes (compact or two-space pretty, externally tagged
//! enums, non-finite floats as `null`, integer map keys quoted).

mod de;
mod ser;

pub use serde::{Content as Value, Map, Number};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A JSON encoding or decoding error.
#[derive(Debug)]
pub struct Error {
    msg: String,
}

/// `serde_json::Result`.
pub type Result<T> = std::result::Result<T, Error>;

impl Error {
    pub(crate) fn new(msg: impl Into<String>) -> Error {
        Error { msg: msg.into() }
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.msg)
    }
}

impl std::error::Error for Error {}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Error::new(msg.to_string())
    }
}

impl From<Error> for std::io::Error {
    fn from(e: Error) -> Self {
        std::io::Error::new(std::io::ErrorKind::InvalidData, e)
    }
}

/// Compact JSON text of `value`.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    ser::to_string(value, false)
}

/// Two-space indented JSON text of `value`.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String> {
    ser::to_string(value, true)
}

/// Compact JSON bytes of `value`.
pub fn to_vec<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string(value).map(String::into_bytes)
}

/// Indented JSON bytes of `value`.
pub fn to_vec_pretty<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    to_string_pretty(value).map(String::into_bytes)
}

/// Write compact JSON to `writer`.
pub fn to_writer<W: std::io::Write, T: Serialize + ?Sized>(mut writer: W, value: &T) -> Result<()> {
    writer
        .write_all(to_string(value)?.as_bytes())
        .map_err(|e| Error::new(format!("io error: {e}")))
}

/// Parse one JSON value from `text`; only whitespace may follow it.
pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    de::from_str(text)
}

/// Parse one JSON value from UTF-8 `bytes`.
pub fn from_slice<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    let text = std::str::from_utf8(bytes).map_err(|e| Error::new(format!("invalid UTF-8: {e}")))?;
    from_str(text)
}

/// Convert any serializable value into a [`Value`] tree.
pub fn to_value<T: Serialize>(value: T) -> Result<Value> {
    from_str(&to_string(&value)?)
}

/// Read a `T` out of a [`Value`] tree.
pub fn from_value<T: Deserialize>(value: Value) -> Result<T> {
    from_str(&value.to_string())
}

/// Build a [`Value`] from JSON-like syntax. Keys are string literals (or
/// any single token that converts into `String`); values are `null`,
/// nested `[...]`/`{...}`, or any expression that implements `Serialize`.
#[macro_export]
macro_rules! json {
    (null) => { $crate::Value::Null };
    ([ $($tt:tt)* ]) => {{
        #[allow(unused_mut)]
        let mut array: ::std::vec::Vec<$crate::Value> = ::std::vec::Vec::new();
        $crate::__json_array!(array $($tt)*);
        $crate::Value::Array(array)
    }};
    ({ $($tt:tt)* }) => {{
        #[allow(unused_mut)]
        let mut object: $crate::Map<::std::string::String, $crate::Value> = $crate::Map::new();
        $crate::__json_object!(object $($tt)*);
        $crate::Value::Object(object)
    }};
    ($e:expr) => { $crate::to_value(&$e).expect("json! value serializes") };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_array {
    ($a:ident) => {};
    ($a:ident null $(, $($rest:tt)*)?) => {
        $a.push($crate::Value::Null); $crate::__json_array!($a $($($rest)*)?);
    };
    ($a:ident [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $a.push($crate::json!([ $($inner)* ])); $crate::__json_array!($a $($($rest)*)?);
    };
    ($a:ident { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $a.push($crate::json!({ $($inner)* })); $crate::__json_array!($a $($($rest)*)?);
    };
    ($a:ident $v:expr , $($rest:tt)*) => {
        $a.push($crate::json!($v)); $crate::__json_array!($a $($rest)*);
    };
    ($a:ident $v:expr) => { $a.push($crate::json!($v)); };
}

#[doc(hidden)]
#[macro_export]
macro_rules! __json_object {
    ($m:ident) => {};
    ($m:ident $k:tt : null $(, $($rest:tt)*)?) => {
        $m.insert(($k).into(), $crate::Value::Null); $crate::__json_object!($m $($($rest)*)?);
    };
    ($m:ident $k:tt : [ $($inner:tt)* ] $(, $($rest:tt)*)?) => {
        $m.insert(($k).into(), $crate::json!([ $($inner)* ])); $crate::__json_object!($m $($($rest)*)?);
    };
    ($m:ident $k:tt : { $($inner:tt)* } $(, $($rest:tt)*)?) => {
        $m.insert(($k).into(), $crate::json!({ $($inner)* })); $crate::__json_object!($m $($($rest)*)?);
    };
    ($m:ident $k:tt : $v:expr , $($rest:tt)*) => {
        $m.insert(($k).into(), $crate::json!($v)); $crate::__json_object!($m $($rest)*);
    };
    ($m:ident $k:tt : $v:expr) => { $m.insert(($k).into(), $crate::json!($v)); };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq, Default)]
    struct Row {
        name: String,
        ops: f64,
        #[serde(default)]
        note: Option<String>,
        #[serde(default)]
        extra: u32,
        #[serde(skip_serializing_if = "Option::is_none")]
        trace: Option<u8>,
        #[serde(skip)]
        scratch: u64,
    }

    #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
    enum Rule {
        Drop,
        Delay(u64),
        Pair(u8, String),
        Window { from: u64, to: u64 },
    }

    #[test]
    fn struct_text_and_round_trip() {
        let r = Row {
            name: "a\"b".into(),
            ops: 1.5,
            note: None,
            extra: 7,
            trace: None,
            scratch: 9,
        };
        let text = to_string(&r).unwrap();
        assert_eq!(text, r#"{"name":"a\"b","ops":1.5,"note":null,"extra":7}"#);
        let back: Row = from_str(&text).unwrap();
        assert_eq!(back, Row { scratch: 0, ..r });
        // Unknown keys are skipped, absent defaulted ones filled in.
        let sparse: Row = from_str(r#"{"zzz":[1,{"a":null}],"ops":2,"name":"n"}"#).unwrap();
        assert_eq!(
            sparse,
            Row {
                name: "n".into(),
                ops: 2.0,
                ..Row::default()
            }
        );
        assert!(from_str::<Row>(r#"{"name":"n"}"#).is_err());
        assert!(from_str::<Row>(r#"{"name":"n","ops":1} x"#).is_err());
    }

    #[test]
    fn enums_are_externally_tagged() {
        let rules = vec![
            Rule::Drop,
            Rule::Delay(5),
            Rule::Pair(1, "x".into()),
            Rule::Window { from: 1, to: 2 },
        ];
        let text = to_string(&rules).unwrap();
        assert_eq!(
            text,
            r#"["Drop",{"Delay":5},{"Pair":[1,"x"]},{"Window":{"from":1,"to":2}}]"#
        );
        assert_eq!(from_str::<Vec<Rule>>(&text).unwrap(), rules);
        let pretty = to_string_pretty(&rules).unwrap();
        assert_eq!(from_str::<Vec<Rule>>(&pretty).unwrap(), rules);
    }

    #[test]
    fn pretty_layout() {
        let mut m = BTreeMap::new();
        m.insert(2u32, vec![1.0f64, 2.5]);
        m.insert(10u32, vec![]);
        let text = to_string_pretty(&m).unwrap();
        assert_eq!(text, "{\n  \"2\": [\n    1.0,\n    2.5\n  ],\n  \"10\": []\n}");
        assert_eq!(from_str::<BTreeMap<u32, Vec<f64>>>(&text).unwrap(), m);
    }

    #[test]
    fn value_tree_and_macro() {
        let mut v = json!({"bench": "x", "rows": [{"ops": 1.5, "n": 3}, null], "neg": -2});
        assert_eq!(v["rows"][0]["ops"].as_f64(), Some(1.5));
        assert_eq!(v["rows"][0]["n"].as_u64(), Some(3));
        assert_eq!(v["neg"].as_i64(), Some(-2));
        assert!(v["missing"].is_null());
        v["rows"][0]["ops"] = json!(2.0);
        v["new"] = json!(true);
        let text = v.to_string();
        assert_eq!(from_str::<Value>(&text).unwrap(), v);
        assert_eq!(v.get("bench").and_then(Value::as_str), Some("x"));
        let row: BTreeMap<String, f64> = from_value(v["rows"][0].clone()).unwrap();
        assert_eq!(row["ops"], 2.0);
        assert_eq!(to_value(vec![1u8, 2]).unwrap(), json!([1, 2]));
    }

    #[test]
    fn strings_numbers_and_garbage() {
        let s: String = from_str(r#""aé\n😀""#).unwrap();
        assert_eq!(s, "aé\n😀");
        assert_eq!(from_str::<f64>("1e3").unwrap(), 1000.0);
        assert_eq!(from_str::<i64>("-12").unwrap(), -12);
        assert_eq!(from_str::<u64>("18446744073709551615").unwrap(), u64::MAX);
        assert!(from_str::<u8>("256").is_err());
        assert!(from_str::<u64>("1.5").is_err());
        assert_eq!(to_string(&f64::NAN).unwrap(), "null");
        for bad in ["", "{", "[1,", "[1 2]", "{\"a\"}", "tru", "\"abc", "[1,]", "nul"] {
            assert!(from_str::<Value>(bad).is_err(), "{bad:?} parsed");
        }
    }
}
