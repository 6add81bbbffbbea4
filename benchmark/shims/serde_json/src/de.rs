//! The JSON reader.

use crate::{Error, Result};
use serde::{Content, Deserialize, Deserializer, Map, Number};

/// An open `[`/`{`, or an enum being read.
enum Frame {
    /// Array, object or struct: nothing read in it yet?
    Open { first: bool },
    /// An enum written as a bare string: nothing to close.
    BareVariant,
    /// An enum written as `{"Variant": ...}`: a `}` to consume.
    TaggedVariant,
}

struct De<'a> {
    text: &'a str,
    pos: usize,
    frames: Vec<Frame>,
    /// The next scalar is a map key: numbers and booleans arrive quoted.
    key: bool,
}

pub fn from_str<T: Deserialize>(text: &str) -> Result<T> {
    let mut d = De {
        text,
        pos: 0,
        frames: Vec::new(),
        key: false,
    };
    let v = T::deserialize(&mut d)?;
    d.skip_ws();
    if d.pos != text.len() {
        return Err(d.error("trailing characters"));
    }
    Ok(v)
}

impl<'a> De<'a> {
    fn error(&self, what: &str) -> Error {
        let upto = &self.text[..self.pos.min(self.text.len())];
        let line = upto.matches('\n').count() + 1;
        let column = upto.len() - upto.rfind('\n').map_or(0, |i| i + 1) + 1;
        Error::new(format!("{what} at line {line} column {column}"))
    }

    fn bytes(&self) -> &'a [u8] {
        self.text.as_bytes()
    }

    fn skip_ws(&mut self) {
        while matches!(self.bytes().get(self.pos), Some(b' ' | b'\n' | b'\t' | b'\r')) {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes().get(self.pos).copied()
    }

    fn expect(&mut self, c: u8) -> Result<()> {
        if self.peek() == Some(c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.error(&format!("expected `{}`", c as char)))
        }
    }

    fn eat_word(&mut self, word: &str) -> bool {
        self.skip_ws();
        if self.text[self.pos..].starts_with(word) {
            self.pos += word.len();
            true
        } else {
            false
        }
    }

    fn parse_string(&mut self) -> Result<String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.pos..];
            let stop = rest
                .find(['"', '\\'])
                .ok_or_else(|| self.error("unterminated string"))?;
            if rest[..stop].bytes().any(|b| b < 0x20) {
                return Err(self.error("control character in string"));
            }
            out.push_str(&rest[..stop]);
            self.pos += stop + 1;
            if rest.as_bytes()[stop] == b'"' {
                return Ok(out);
            }
            let esc = *self
                .bytes()
                .get(self.pos)
                .ok_or_else(|| self.error("unterminated escape"))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{08}'),
                b'f' => out.push('\u{0c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hi = self.hex4()?;
                    let code = if (0xd800..0xdc00).contains(&hi) {
                        if !self.text[self.pos..].starts_with("\\u") {
                            return Err(self.error("lone surrogate"));
                        }
                        self.pos += 2;
                        let lo = self.hex4()?;
                        if !(0xdc00..0xe000).contains(&lo) {
                            return Err(self.error("invalid surrogate pair"));
                        }
                        0x10000 + ((hi - 0xd800) << 10) + (lo - 0xdc00)
                    } else {
                        hi
                    };
                    out.push(char::from_u32(code).ok_or_else(|| self.error("invalid code point"))?);
                }
                _ => return Err(self.error("invalid escape")),
            }
        }
    }

    fn hex4(&mut self) -> Result<u32> {
        let digits = self
            .text
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.error("truncated \\u escape"))?;
        self.pos += 4;
        u32::from_str_radix(digits, 16).map_err(|_| self.error("invalid \\u escape"))
    }

    /// The text of the next number (unquoted, or quoted when it is a key).
    fn number_text(&mut self) -> Result<&'a str> {
        let quoted = std::mem::replace(&mut self.key, false);
        if quoted {
            self.expect(b'"')?;
        }
        self.skip_ws();
        let start = self.pos;
        while matches!(
            self.bytes().get(self.pos),
            Some(b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
        ) {
            self.pos += 1;
        }
        if start == self.pos {
            return Err(self.error("expected a number"));
        }
        let text = &self.text[start..self.pos];
        if quoted {
            self.expect(b'"')?;
        }
        Ok(text)
    }

    fn integer<T: std::str::FromStr>(&mut self) -> Result<T> {
        let text = self.number_text()?;
        text.parse()
            .map_err(|_| self.error(&format!("invalid integer `{text}`")))
    }

    fn float(&mut self) -> Result<f64> {
        let text = self.number_text()?;
        // Rust's parser accepts forms JSON forbids (`.5`, `1.`, `+1`);
        // hold the line on the ones that matter for detecting garbage.
        let digits = text.strip_prefix('-').unwrap_or(text);
        if !digits.starts_with(|c: char| c.is_ascii_digit()) || text.ends_with('.') {
            return Err(self.error(&format!("invalid number `{text}`")));
        }
        text.parse()
            .map_err(|_| self.error(&format!("invalid number `{text}`")))
    }

    /// Shared by `seq_next`/`map_next`/`next_key`: is there another item
    /// before `close`? Consumes the separator, or `close` and the frame.
    fn next_item(&mut self, close: u8) -> Result<bool> {
        if self.peek() == Some(close) {
            self.pos += 1;
            self.frames.pop();
            return Ok(false);
        }
        let Some(Frame::Open { first }) = self.frames.last_mut() else {
            return Err(self.error("no open array or object"));
        };
        if !std::mem::replace(first, false) {
            self.expect(b',')?;
            if self.peek() == Some(close) {
                return Err(self.error("trailing comma"));
            }
        }
        Ok(true)
    }

    fn open(&mut self, c: u8) -> Result<()> {
        self.expect(c)?;
        self.frames.push(Frame::Open { first: true });
        Ok(())
    }

    fn parse_content(&mut self) -> Result<Content> {
        match self.peek() {
            Some(b'n') if self.eat_word("null") => Ok(Content::Null),
            Some(b't') if self.eat_word("true") => Ok(Content::Bool(true)),
            Some(b'f') if self.eat_word("false") => Ok(Content::Bool(false)),
            Some(b'"') => self.parse_string().map(Content::String),
            Some(b'[') => {
                self.open(b'[')?;
                let mut items = Vec::new();
                while self.next_item(b']')? {
                    items.push(self.parse_content()?);
                }
                Ok(Content::Array(items))
            }
            Some(b'{') => {
                self.open(b'{')?;
                let mut map = Map::new();
                while self.next_item(b'}')? {
                    let k = self.parse_string()?;
                    self.expect(b':')?;
                    map.insert(k, self.parse_content()?);
                }
                Ok(Content::Object(map))
            }
            Some(b'-' | b'0'..=b'9') => {
                let save = self.pos;
                let text = self.number_text()?;
                let n = if let Ok(u) = text.parse::<u64>() {
                    Number::U(u)
                } else if let Ok(i) = text.parse::<i64>() {
                    Number::I(i)
                } else {
                    self.pos = save;
                    Number::F(self.float()?)
                };
                Ok(Content::Number(n))
            }
            _ => Err(self.error("expected a value")),
        }
    }
}

macro_rules! get_int {
    ($($name:ident: $t:ty),*) => {$(
        fn $name(&mut self) -> Result<$t> {
            self.integer()
        }
    )*};
}

impl Deserializer for De<'_> {
    type Error = Error;

    fn positional(&self) -> bool {
        false
    }

    get_int!(get_u8: u8, get_u16: u16, get_u32: u32, get_u64: u64, get_u128: u128,
             get_i8: i8, get_i16: i16, get_i32: i32, get_i64: i64);

    fn get_bool(&mut self) -> Result<bool> {
        let quoted = std::mem::replace(&mut self.key, false);
        if quoted {
            self.expect(b'"')?;
        }
        let v = if self.eat_word("true") {
            true
        } else if self.eat_word("false") {
            false
        } else {
            return Err(self.error("expected a boolean"));
        };
        if quoted {
            self.expect(b'"')?;
        }
        Ok(v)
    }
    fn get_f32(&mut self) -> Result<f32> {
        self.float().map(|v| v as f32)
    }
    fn get_f64(&mut self) -> Result<f64> {
        self.float()
    }
    fn get_char(&mut self) -> Result<char> {
        let s = self.get_string()?;
        let mut chars = s.chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Ok(c),
            _ => Err(self.error("expected a one-character string")),
        }
    }
    fn get_string(&mut self) -> Result<String> {
        self.key = false;
        self.parse_string()
    }
    fn get_byte_seq(&mut self) -> Result<Vec<u8>> {
        self.open(b'[')?;
        let mut out = Vec::new();
        while self.next_item(b']')? {
            out.push(self.get_u8()?);
        }
        Ok(out)
    }
    fn get_unit(&mut self) -> Result<()> {
        if self.eat_word("null") {
            Ok(())
        } else {
            Err(self.error("expected null"))
        }
    }
    fn get_option(&mut self) -> Result<bool> {
        Ok(!self.eat_word("null"))
    }
    fn begin_seq(&mut self) -> Result<Option<usize>> {
        self.open(b'[').map(|()| None)
    }
    fn seq_next(&mut self) -> Result<bool> {
        self.next_item(b']')
    }
    fn end_seq(&mut self) -> Result<()> {
        Ok(())
    }
    fn begin_tuple(&mut self, _len: usize) -> Result<()> {
        self.open(b'[')
    }
    fn tuple_elem(&mut self) -> Result<()> {
        if self.next_item(b']')? {
            Ok(())
        } else {
            Err(self.error("tuple is too short"))
        }
    }
    fn end_tuple(&mut self) -> Result<()> {
        if self.next_item(b']')? {
            Err(self.error("tuple is too long"))
        } else {
            Ok(())
        }
    }
    fn begin_map(&mut self) -> Result<Option<usize>> {
        self.open(b'{').map(|()| None)
    }
    fn map_next(&mut self) -> Result<bool> {
        let more = self.next_item(b'}')?;
        self.key = more;
        Ok(more)
    }
    fn map_value(&mut self) -> Result<()> {
        self.key = false;
        self.expect(b':')
    }
    fn end_map(&mut self) -> Result<()> {
        Ok(())
    }
    fn begin_struct(&mut self, _name: &'static str, _fields: &'static [&'static str]) -> Result<()> {
        self.open(b'{')
    }
    fn next_key(&mut self, fields: &'static [&'static str]) -> Result<Option<usize>> {
        while self.next_item(b'}')? {
            let k = self.parse_string()?;
            self.expect(b':')?;
            if let Some(i) = fields.iter().position(|f| *f == k) {
                return Ok(Some(i));
            }
            self.parse_content()?;
        }
        Ok(None)
    }
    fn end_struct(&mut self) -> Result<()> {
        Ok(())
    }
    fn begin_enum(&mut self, name: &'static str, variants: &'static [&'static str]) -> Result<u32> {
        let tagged = self.peek() == Some(b'{');
        if tagged {
            self.pos += 1;
        }
        let tag = self.parse_string()?;
        let index = variants
            .iter()
            .position(|v| *v == tag)
            .ok_or_else(|| self.error(&format!("unknown variant `{tag}` of {name}")))?;
        if tagged {
            self.expect(b':')?;
            self.frames.push(Frame::TaggedVariant);
        } else {
            self.frames.push(Frame::BareVariant);
        }
        Ok(index as u32)
    }
    fn end_enum(&mut self) -> Result<()> {
        match self.frames.pop() {
            Some(Frame::BareVariant) => Ok(()),
            Some(Frame::TaggedVariant) => self.expect(b'}'),
            _ => Err(self.error("unbalanced enum")),
        }
    }
    fn get_content(&mut self) -> Result<Content> {
        self.parse_content()
    }
}
