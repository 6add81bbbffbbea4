//! The self-describing tree that `serde_json` re-exports as `Value`.
//! It lives here so that it can implement [`Serialize`]/[`Deserialize`]
//! through `put_content`/`get_content`.

use crate::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::BTreeMap;
use std::fmt;

/// `serde_json::Map`: sorted by key, like serde_json without
/// `preserve_order`.
pub type Map<K, V> = BTreeMap<K, V>;

/// A JSON number.
#[derive(Clone, Copy, Debug)]
pub enum Number {
    U(u64),
    I(i64),
    F(f64),
}

impl Number {
    pub fn as_f64(&self) -> Option<f64> {
        Some(match *self {
            Number::U(v) => v as f64,
            Number::I(v) => v as f64,
            Number::F(v) => v,
        })
    }
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Number::U(v) => Some(v),
            Number::I(v) => u64::try_from(v).ok(),
            Number::F(_) => None,
        }
    }
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Number::U(v) => i64::try_from(v).ok(),
            Number::I(v) => Some(v),
            Number::F(_) => None,
        }
    }
    pub fn is_f64(&self) -> bool {
        matches!(self, Number::F(_))
    }
    /// `None` for NaN and the infinities, which JSON cannot hold.
    pub fn from_f64(v: f64) -> Option<Number> {
        v.is_finite().then_some(Number::F(v))
    }
}

impl PartialEq for Number {
    fn eq(&self, other: &Number) -> bool {
        match (self.is_f64(), other.is_f64()) {
            (true, true) => self.as_f64() == other.as_f64(),
            (false, false) => match (self.as_u64(), other.as_u64()) {
                (Some(a), Some(b)) => a == b,
                _ => self.as_i64() == other.as_i64(),
            },
            _ => false,
        }
    }
}

impl fmt::Display for Number {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Number::U(v) => write!(f, "{v}"),
            Number::I(v) => write!(f, "{v}"),
            Number::F(v) => f.write_str(&format_f64(v)),
        }
    }
}

/// JSON text of a float: shortest round-trip digits, always with a
/// fraction or exponent so it reads back as a float; `null` if not finite.
pub fn format_f64(v: f64) -> String {
    if !v.is_finite() {
        return "null".to_string();
    }
    let s = format!("{v:?}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

/// Write `s` as a JSON string literal.
pub fn write_json_str<W: fmt::Write + ?Sized>(w: &mut W, s: &str) -> fmt::Result {
    w.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => w.write_str("\\\"")?,
            '\\' => w.write_str("\\\\")?,
            '\n' => w.write_str("\\n")?,
            '\r' => w.write_str("\\r")?,
            '\t' => w.write_str("\\t")?,
            '\u{08}' => w.write_str("\\b")?,
            '\u{0c}' => w.write_str("\\f")?,
            c if (c as u32) < 0x20 => write!(w, "\\u{:04x}", c as u32)?,
            c => w.write_char(c)?,
        }
    }
    w.write_char('"')
}

/// A JSON value.
#[derive(Clone, Debug, Default, PartialEq)]
pub enum Content {
    #[default]
    Null,
    Bool(bool),
    Number(Number),
    String(String),
    Array(Vec<Content>),
    Object(Map<String, Content>),
}

static NULL: Content = Content::Null;

/// What a [`Content`] can be indexed by: `&str`/`String` (object key) or
/// `usize` (array position).
pub trait ContentIndex {
    #[doc(hidden)]
    fn index_into<'a>(&self, v: &'a Content) -> Option<&'a Content>;
    #[doc(hidden)]
    fn index_into_mut<'a>(&self, v: &'a mut Content) -> Option<&'a mut Content>;
    #[doc(hidden)]
    fn index_or_insert<'a>(&self, v: &'a mut Content) -> &'a mut Content;
}

impl ContentIndex for str {
    fn index_into<'a>(&self, v: &'a Content) -> Option<&'a Content> {
        match v {
            Content::Object(m) => m.get(self),
            _ => None,
        }
    }
    fn index_into_mut<'a>(&self, v: &'a mut Content) -> Option<&'a mut Content> {
        match v {
            Content::Object(m) => m.get_mut(self),
            _ => None,
        }
    }
    fn index_or_insert<'a>(&self, v: &'a mut Content) -> &'a mut Content {
        if let Content::Null = v {
            *v = Content::Object(Map::new());
        }
        match v {
            Content::Object(m) => m.entry(self.to_string()).or_insert(Content::Null),
            other => panic!("cannot index {other} with a string key"),
        }
    }
}

impl ContentIndex for String {
    fn index_into<'a>(&self, v: &'a Content) -> Option<&'a Content> {
        self.as_str().index_into(v)
    }
    fn index_into_mut<'a>(&self, v: &'a mut Content) -> Option<&'a mut Content> {
        self.as_str().index_into_mut(v)
    }
    fn index_or_insert<'a>(&self, v: &'a mut Content) -> &'a mut Content {
        self.as_str().index_or_insert(v)
    }
}

impl ContentIndex for usize {
    fn index_into<'a>(&self, v: &'a Content) -> Option<&'a Content> {
        match v {
            Content::Array(a) => a.get(*self),
            _ => None,
        }
    }
    fn index_into_mut<'a>(&self, v: &'a mut Content) -> Option<&'a mut Content> {
        match v {
            Content::Array(a) => a.get_mut(*self),
            _ => None,
        }
    }
    fn index_or_insert<'a>(&self, v: &'a mut Content) -> &'a mut Content {
        match v {
            Content::Array(a) => {
                let len = a.len();
                a.get_mut(*self)
                    .unwrap_or_else(|| panic!("index {self} out of bounds of array of length {len}"))
            }
            other => panic!("cannot index {other} with an array position"),
        }
    }
}

impl<T: ContentIndex + ?Sized> ContentIndex for &T {
    fn index_into<'a>(&self, v: &'a Content) -> Option<&'a Content> {
        (**self).index_into(v)
    }
    fn index_into_mut<'a>(&self, v: &'a mut Content) -> Option<&'a mut Content> {
        (**self).index_into_mut(v)
    }
    fn index_or_insert<'a>(&self, v: &'a mut Content) -> &'a mut Content {
        (**self).index_or_insert(v)
    }
}

impl<I: ContentIndex> std::ops::Index<I> for Content {
    type Output = Content;
    fn index(&self, index: I) -> &Content {
        index.index_into(self).unwrap_or(&NULL)
    }
}

impl<I: ContentIndex> std::ops::IndexMut<I> for Content {
    fn index_mut(&mut self, index: I) -> &mut Content {
        index.index_or_insert(self)
    }
}

impl Content {
    pub fn get<I: ContentIndex>(&self, index: I) -> Option<&Content> {
        index.index_into(self)
    }
    pub fn get_mut<I: ContentIndex>(&mut self, index: I) -> Option<&mut Content> {
        index.index_into_mut(self)
    }
    pub fn is_null(&self) -> bool {
        matches!(self, Content::Null)
    }
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Content::Bool(b) => Some(*b),
            _ => None,
        }
    }
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Content::Number(n) => n.as_f64(),
            _ => None,
        }
    }
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Content::Number(n) => n.as_u64(),
            _ => None,
        }
    }
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Content::Number(n) => n.as_i64(),
            _ => None,
        }
    }
    pub fn is_number(&self) -> bool {
        matches!(self, Content::Number(_))
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Content::String(s) => Some(s),
            _ => None,
        }
    }
    pub fn is_string(&self) -> bool {
        matches!(self, Content::String(_))
    }
    pub fn as_array(&self) -> Option<&Vec<Content>> {
        match self {
            Content::Array(a) => Some(a),
            _ => None,
        }
    }
    pub fn as_array_mut(&mut self) -> Option<&mut Vec<Content>> {
        match self {
            Content::Array(a) => Some(a),
            _ => None,
        }
    }
    pub fn is_array(&self) -> bool {
        matches!(self, Content::Array(_))
    }
    pub fn as_object(&self) -> Option<&Map<String, Content>> {
        match self {
            Content::Object(m) => Some(m),
            _ => None,
        }
    }
    pub fn as_object_mut(&mut self) -> Option<&mut Map<String, Content>> {
        match self {
            Content::Object(m) => Some(m),
            _ => None,
        }
    }
    pub fn is_object(&self) -> bool {
        matches!(self, Content::Object(_))
    }
    /// Replace with `Null`, returning the old value.
    pub fn take(&mut self) -> Content {
        std::mem::take(self)
    }
}

/// Compact JSON.
impl fmt::Display for Content {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Content::Null => f.write_str("null"),
            Content::Bool(b) => write!(f, "{b}"),
            Content::Number(n) => write!(f, "{n}"),
            Content::String(s) => write_json_str(f, s),
            Content::Array(a) => {
                f.write_str("[")?;
                for (i, v) in a.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{v}")?;
                }
                f.write_str("]")
            }
            Content::Object(m) => {
                f.write_str("{")?;
                for (i, (k, v)) in m.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write_json_str(f, k)?;
                    write!(f, ":{v}")?;
                }
                f.write_str("}")
            }
        }
    }
}

impl Serialize for Content {
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error> {
        s.put_content(self)
    }
}

impl Deserialize for Content {
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error> {
        d.get_content()
    }
}

macro_rules! content_from {
    ($($t:ty => |$v:ident| $e:expr),* $(,)?) => {$(
        impl From<$t> for Content {
            fn from($v: $t) -> Content {
                $e
            }
        }
    )*};
}

content_from! {
    bool => |v| Content::Bool(v),
    u8 => |v| Content::Number(Number::U(v.into())),
    u16 => |v| Content::Number(Number::U(v.into())),
    u32 => |v| Content::Number(Number::U(v.into())),
    u64 => |v| Content::Number(Number::U(v)),
    usize => |v| Content::Number(Number::U(v as u64)),
    i8 => |v| Content::from(i64::from(v)),
    i16 => |v| Content::from(i64::from(v)),
    i32 => |v| Content::from(i64::from(v)),
    i64 => |v| Content::Number(if v >= 0 { Number::U(v as u64) } else { Number::I(v) }),
    isize => |v| Content::from(v as i64),
    f32 => |v| Content::from(f64::from(v)),
    f64 => |v| Number::from_f64(v).map_or(Content::Null, Content::Number),
    String => |v| Content::String(v),
    &str => |v| Content::String(v.to_string()),
    Map<String, Content> => |v| Content::Object(v),
    () => |_v| Content::Null,
}

impl<T: Into<Content>> From<Vec<T>> for Content {
    fn from(v: Vec<T>) -> Content {
        Content::Array(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Content>> From<Option<T>> for Content {
    fn from(v: Option<T>) -> Content {
        v.map_or(Content::Null, Into::into)
    }
}
