//! The JSON writer.

use crate::{Error, Result};
use serde::{Content, Serialize, Serializer, VariantKind};
use std::fmt::Write as _;

struct Ser {
    out: String,
    pretty: bool,
    /// One entry per open array/object: whether nothing was written in it yet.
    first: Vec<bool>,
    /// The next scalar is a map key: numbers and booleans are quoted.
    key: bool,
}

pub fn to_string<T: Serialize + ?Sized>(value: &T, pretty: bool) -> Result<String> {
    let mut s = Ser {
        out: String::new(),
        pretty,
        first: Vec::new(),
        key: false,
    };
    value.serialize(&mut s)?;
    Ok(s.out)
}

impl Ser {
    fn newline(&mut self) {
        if self.pretty {
            self.out.push('\n');
            for _ in 0..self.first.len() {
                self.out.push_str("  ");
            }
        }
    }

    fn open(&mut self, c: char) {
        self.out.push(c);
        self.first.push(true);
    }

    fn close(&mut self, c: char) {
        let was_empty = self.first.pop().unwrap_or(true);
        if !was_empty {
            self.newline();
        }
        self.out.push(c);
    }

    /// Separator and indentation before an element, key or field.
    fn item(&mut self) {
        if let Some(first) = self.first.last_mut() {
            if !std::mem::replace(first, false) {
                self.out.push(',');
            }
        }
        self.newline();
    }

    fn colon(&mut self) {
        self.out.push(':');
        if self.pretty {
            self.out.push(' ');
        }
    }

    fn scalar(&mut self, text: std::fmt::Arguments<'_>) -> Result<()> {
        if std::mem::replace(&mut self.key, false) {
            self.out.push('"');
            let _ = self.out.write_fmt(text);
            self.out.push('"');
        } else {
            let _ = self.out.write_fmt(text);
        }
        Ok(())
    }

    fn string(&mut self, v: &str) -> Result<()> {
        self.key = false;
        let _ = serde::__private_json::write_json_str(&mut self.out, v);
        Ok(())
    }

    fn not_a_key(&mut self, what: &str) -> Result<()> {
        if self.key {
            return Err(Error::new(format!("key must be a string, not {what}")));
        }
        Ok(())
    }
}

macro_rules! put_display {
    ($($name:ident: $t:ty),*) => {$(
        fn $name(&mut self, v: $t) -> Result<()> {
            self.scalar(format_args!("{v}"))
        }
    )*};
}

impl Serializer for Ser {
    type Error = Error;

    put_display!(put_bool: bool, put_u8: u8, put_u16: u16, put_u32: u32, put_u64: u64,
                 put_u128: u128, put_i8: i8, put_i16: i16, put_i32: i32, put_i64: i64);

    fn put_f32(&mut self, v: f32) -> Result<()> {
        if !v.is_finite() {
            return self.scalar(format_args!("null"));
        }
        let s = format!("{v:?}");
        if s.contains(['.', 'e', 'E']) {
            self.scalar(format_args!("{s}"))
        } else {
            self.scalar(format_args!("{s}.0"))
        }
    }
    fn put_f64(&mut self, v: f64) -> Result<()> {
        self.scalar(format_args!("{}", serde::__private_json::format_f64(v)))
    }
    fn put_char(&mut self, v: char) -> Result<()> {
        self.string(v.encode_utf8(&mut [0u8; 4]))
    }
    fn put_str(&mut self, v: &str) -> Result<()> {
        self.string(v)
    }
    fn put_byte_seq(&mut self, v: &[u8]) -> Result<()> {
        self.begin_seq(v.len())?;
        for b in v {
            self.elem()?;
            self.put_u8(*b)?;
        }
        self.end_seq()
    }
    fn put_unit(&mut self) -> Result<()> {
        self.not_a_key("null")?;
        self.out.push_str("null");
        Ok(())
    }
    fn put_none(&mut self) -> Result<()> {
        self.put_unit()
    }
    fn begin_some(&mut self) -> Result<()> {
        Ok(())
    }
    fn begin_seq(&mut self, _len: usize) -> Result<()> {
        self.not_a_key("an array")?;
        self.open('[');
        Ok(())
    }
    fn elem(&mut self) -> Result<()> {
        self.item();
        Ok(())
    }
    fn end_seq(&mut self) -> Result<()> {
        self.close(']');
        Ok(())
    }
    fn begin_tuple(&mut self, len: usize) -> Result<()> {
        self.begin_seq(len)
    }
    fn end_tuple(&mut self) -> Result<()> {
        self.end_seq()
    }
    fn begin_map(&mut self, _len: usize) -> Result<()> {
        self.not_a_key("an object")?;
        self.open('{');
        Ok(())
    }
    fn map_key(&mut self) -> Result<()> {
        self.item();
        self.key = true;
        Ok(())
    }
    fn map_value(&mut self) -> Result<()> {
        self.key = false;
        self.colon();
        Ok(())
    }
    fn end_map(&mut self) -> Result<()> {
        self.close('}');
        Ok(())
    }
    fn begin_struct(&mut self, _name: &'static str, len: usize) -> Result<()> {
        self.begin_map(len)
    }
    fn field(&mut self, name: &'static str) -> Result<()> {
        self.item();
        self.string(name)?;
        self.colon();
        Ok(())
    }
    fn end_struct(&mut self) -> Result<()> {
        self.end_map()
    }
    fn unit_variant(&mut self, _index: u32, variant: &'static str) -> Result<()> {
        self.string(variant)
    }
    fn begin_variant(&mut self, _index: u32, variant: &'static str, kind: VariantKind) -> Result<()> {
        self.begin_map(1)?;
        self.field(variant)?;
        match kind {
            VariantKind::Newtype => Ok(()),
            VariantKind::Tuple(n) => self.begin_seq(n),
            VariantKind::Struct(n) => self.begin_map(n),
        }
    }
    fn end_variant(&mut self, kind: VariantKind) -> Result<()> {
        match kind {
            VariantKind::Newtype => {}
            VariantKind::Tuple(_) => self.end_seq()?,
            VariantKind::Struct(_) => self.end_map()?,
        }
        self.end_map()
    }
    fn put_content(&mut self, v: &Content) -> Result<()> {
        match v {
            Content::Null => self.put_unit(),
            Content::Bool(b) => self.put_bool(*b),
            Content::Number(n) => self.scalar(format_args!("{n}")),
            Content::String(s) => self.string(s),
            Content::Array(a) => {
                self.begin_seq(a.len())?;
                for item in a {
                    self.elem()?;
                    self.put_content(item)?;
                }
                self.end_seq()
            }
            Content::Object(m) => {
                self.begin_map(m.len())?;
                for (k, item) in m {
                    self.map_key()?;
                    self.string(k)?;
                    self.map_value()?;
                    self.put_content(item)?;
                }
                self.end_map()
            }
        }
    }
}
