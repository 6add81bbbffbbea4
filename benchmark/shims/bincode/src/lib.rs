//! Offline stand-in for `bincode` 1.x.
//!
//! Writes and reads exactly what `bincode::serialize`/`deserialize`
//! produce with their default options: little-endian fixed-width
//! integers, `u64` length prefixes, `u32` enum tags, one-byte `Option`
//! and `bool` tags, no framing around structs and tuples, trailing input
//! bytes allowed.

use serde::{Content, Deserialize, Deserializer, Serialize, Serializer, VariantKind};
use std::fmt;
use std::io::Write;

/// Why encoding or decoding failed.
#[derive(Debug)]
pub enum ErrorKind {
    Io(std::io::Error),
    /// The input ended inside a value.
    UnexpectedEof,
    InvalidUtf8Encoding,
    InvalidBoolEncoding(u8),
    InvalidCharEncoding,
    InvalidTagEncoding(usize),
    /// The type needs a self-describing format.
    DeserializeAnyNotSupported,
    Custom(String),
}

/// `bincode::Error`, boxed like the original.
pub type Error = Box<ErrorKind>;
/// `bincode::Result`.
pub type Result<T> = std::result::Result<T, Error>;

impl fmt::Display for ErrorKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ErrorKind::Io(e) => write!(f, "io error: {e}"),
            ErrorKind::UnexpectedEof => f.write_str("io error: unexpected end of file"),
            ErrorKind::InvalidUtf8Encoding => f.write_str("string is not valid utf8"),
            ErrorKind::InvalidBoolEncoding(b) => {
                write!(f, "invalid u8 while decoding bool, expected 0 or 1, found {b}")
            }
            ErrorKind::InvalidCharEncoding => f.write_str("char is not valid"),
            ErrorKind::InvalidTagEncoding(t) => write!(f, "tag for enum is not valid, found {t}"),
            ErrorKind::DeserializeAnyNotSupported => f.write_str("bincode does not support self-describing values"),
            ErrorKind::Custom(s) => f.write_str(s),
        }
    }
}

impl std::error::Error for ErrorKind {}

impl serde::ser::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Box::new(ErrorKind::Custom(msg.to_string()))
    }
}

impl serde::de::Error for Error {
    fn custom<T: fmt::Display>(msg: T) -> Self {
        Box::new(ErrorKind::Custom(msg.to_string()))
    }
}

/// Abstracts "append these bytes" so that one serializer both writes and
/// measures.
trait Sink {
    fn put(&mut self, bytes: &[u8]) -> Result<()>;
}

struct WriteSink<W: Write>(W);

impl<W: Write> Sink for WriteSink<W> {
    #[inline]
    fn put(&mut self, bytes: &[u8]) -> Result<()> {
        self.0.write_all(bytes).map_err(|e| Box::new(ErrorKind::Io(e)))
    }
}

struct CountSink(u64);

impl Sink for CountSink {
    #[inline]
    fn put(&mut self, bytes: &[u8]) -> Result<()> {
        self.0 += bytes.len() as u64;
        Ok(())
    }
}

struct Ser<K: Sink>(K);

macro_rules! put_le {
    ($($name:ident: $t:ty),*) => {$(
        #[inline]
        fn $name(&mut self, v: $t) -> Result<()> {
            self.0.put(&v.to_le_bytes())
        }
    )*};
}

impl<K: Sink> Serializer for Ser<K> {
    type Error = Error;

    put_le!(put_u8: u8, put_u16: u16, put_u32: u32, put_u64: u64, put_u128: u128,
            put_i8: i8, put_i16: i16, put_i32: i32, put_i64: i64, put_f32: f32, put_f64: f64);

    #[inline]
    fn put_bool(&mut self, v: bool) -> Result<()> {
        self.0.put(&[u8::from(v)])
    }
    fn put_char(&mut self, v: char) -> Result<()> {
        self.0.put(v.encode_utf8(&mut [0u8; 4]).as_bytes())
    }
    #[inline]
    fn put_str(&mut self, v: &str) -> Result<()> {
        self.put_byte_seq(v.as_bytes())
    }
    #[inline]
    fn put_byte_seq(&mut self, v: &[u8]) -> Result<()> {
        self.put_u64(v.len() as u64)?;
        self.0.put(v)
    }
    #[inline]
    fn put_unit(&mut self) -> Result<()> {
        Ok(())
    }
    #[inline]
    fn put_none(&mut self) -> Result<()> {
        self.put_u8(0)
    }
    #[inline]
    fn begin_some(&mut self) -> Result<()> {
        self.put_u8(1)
    }
    #[inline]
    fn begin_seq(&mut self, len: usize) -> Result<()> {
        self.put_u64(len as u64)
    }
    #[inline]
    fn elem(&mut self) -> Result<()> {
        Ok(())
    }
    #[inline]
    fn end_seq(&mut self) -> Result<()> {
        Ok(())
    }
    #[inline]
    fn begin_tuple(&mut self, _len: usize) -> Result<()> {
        Ok(())
    }
    #[inline]
    fn end_tuple(&mut self) -> Result<()> {
        Ok(())
    }
    #[inline]
    fn begin_map(&mut self, len: usize) -> Result<()> {
        self.put_u64(len as u64)
    }
    #[inline]
    fn map_key(&mut self) -> Result<()> {
        Ok(())
    }
    #[inline]
    fn map_value(&mut self) -> Result<()> {
        Ok(())
    }
    #[inline]
    fn end_map(&mut self) -> Result<()> {
        Ok(())
    }
    #[inline]
    fn begin_struct(&mut self, _name: &'static str, _len: usize) -> Result<()> {
        Ok(())
    }
    #[inline]
    fn field(&mut self, _name: &'static str) -> Result<()> {
        Ok(())
    }
    #[inline]
    fn end_struct(&mut self) -> Result<()> {
        Ok(())
    }
    #[inline]
    fn unit_variant(&mut self, index: u32, _variant: &'static str) -> Result<()> {
        self.put_u32(index)
    }
    #[inline]
    fn begin_variant(&mut self, index: u32, _variant: &'static str, _kind: VariantKind) -> Result<()> {
        self.put_u32(index)
    }
    #[inline]
    fn end_variant(&mut self, _kind: VariantKind) -> Result<()> {
        Ok(())
    }
    fn put_content(&mut self, _v: &Content) -> Result<()> {
        Err(Box::new(ErrorKind::DeserializeAnyNotSupported))
    }
}

/// Number of bytes `serialize` would produce.
pub fn serialized_size<T: Serialize + ?Sized>(value: &T) -> Result<u64> {
    let mut s = Ser(CountSink(0));
    value.serialize(&mut s)?;
    Ok(s.0 .0)
}

/// Encode into a fresh, exactly sized `Vec<u8>` (one measuring pass, one
/// writing pass — what bincode does).
pub fn serialize<T: Serialize + ?Sized>(value: &T) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(serialized_size(value)? as usize);
    serialize_into(&mut out, value)?;
    Ok(out)
}

/// Encode into `writer`.
pub fn serialize_into<W: Write, T: Serialize + ?Sized>(writer: W, value: &T) -> Result<()> {
    value.serialize(&mut Ser(WriteSink(writer)))
}

struct De<'a> {
    input: &'a [u8],
}

impl<'a> De<'a> {
    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > self.input.len() {
            return Err(Box::new(ErrorKind::UnexpectedEof));
        }
        let (head, tail) = self.input.split_at(n);
        self.input = tail;
        Ok(head)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    #[inline]
    fn len(&mut self) -> Result<usize> {
        usize::try_from(self.get_u64()?).map_err(|_| Box::new(ErrorKind::Custom("length does not fit usize".into())))
    }
}

macro_rules! get_le {
    ($($name:ident: $t:ty),*) => {$(
        #[inline]
        fn $name(&mut self) -> Result<$t> {
            Ok(<$t>::from_le_bytes(self.array()?))
        }
    )*};
}

impl Deserializer for De<'_> {
    type Error = Error;

    #[inline]
    fn positional(&self) -> bool {
        true
    }

    get_le!(get_u8: u8, get_u16: u16, get_u32: u32, get_u64: u64, get_u128: u128,
            get_i8: i8, get_i16: i16, get_i32: i32, get_i64: i64, get_f32: f32, get_f64: f64);

    #[inline]
    fn get_bool(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(Box::new(ErrorKind::InvalidBoolEncoding(b))),
        }
    }
    fn get_char(&mut self) -> Result<char> {
        let first = self.get_u8()?;
        let width = match first {
            0x00..=0x7f => 1,
            0xc0..=0xdf => 2,
            0xe0..=0xef => 3,
            0xf0..=0xf7 => 4,
            _ => return Err(Box::new(ErrorKind::InvalidCharEncoding)),
        };
        let mut buf = [first, 0, 0, 0];
        buf[1..width].copy_from_slice(self.take(width - 1)?);
        std::str::from_utf8(&buf[..width])
            .ok()
            .and_then(|s| s.chars().next())
            .ok_or_else(|| Box::new(ErrorKind::InvalidCharEncoding))
    }
    fn get_string(&mut self) -> Result<String> {
        String::from_utf8(self.get_byte_seq()?).map_err(|_| Box::new(ErrorKind::InvalidUtf8Encoding))
    }
    #[inline]
    fn get_byte_seq(&mut self) -> Result<Vec<u8>> {
        let len = self.len()?;
        Ok(self.take(len)?.to_vec())
    }
    #[inline]
    fn get_unit(&mut self) -> Result<()> {
        Ok(())
    }
    #[inline]
    fn get_option(&mut self) -> Result<bool> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(Box::new(ErrorKind::InvalidTagEncoding(t as usize))),
        }
    }
    #[inline]
    fn begin_seq(&mut self) -> Result<Option<usize>> {
        self.len().map(Some)
    }
    #[inline]
    fn seq_next(&mut self) -> Result<bool> {
        Ok(false)
    }
    #[inline]
    fn end_seq(&mut self) -> Result<()> {
        Ok(())
    }
    #[inline]
    fn begin_tuple(&mut self, _len: usize) -> Result<()> {
        Ok(())
    }
    #[inline]
    fn tuple_elem(&mut self) -> Result<()> {
        Ok(())
    }
    #[inline]
    fn end_tuple(&mut self) -> Result<()> {
        Ok(())
    }
    #[inline]
    fn begin_map(&mut self) -> Result<Option<usize>> {
        self.len().map(Some)
    }
    #[inline]
    fn map_next(&mut self) -> Result<bool> {
        Ok(false)
    }
    #[inline]
    fn map_value(&mut self) -> Result<()> {
        Ok(())
    }
    #[inline]
    fn end_map(&mut self) -> Result<()> {
        Ok(())
    }
    #[inline]
    fn begin_struct(&mut self, _name: &'static str, _fields: &'static [&'static str]) -> Result<()> {
        Ok(())
    }
    fn next_key(&mut self, _fields: &'static [&'static str]) -> Result<Option<usize>> {
        Ok(None)
    }
    #[inline]
    fn end_struct(&mut self) -> Result<()> {
        Ok(())
    }
    #[inline]
    fn begin_enum(&mut self, _name: &'static str, _variants: &'static [&'static str]) -> Result<u32> {
        self.get_u32()
    }
    #[inline]
    fn end_enum(&mut self) -> Result<()> {
        Ok(())
    }
    fn get_content(&mut self) -> Result<Content> {
        Err(Box::new(ErrorKind::DeserializeAnyNotSupported))
    }
}

/// Decode one value from the front of `bytes` (trailing bytes are
/// allowed, as with bincode's `deserialize`).
pub fn deserialize<T: Deserialize>(bytes: &[u8]) -> Result<T> {
    T::deserialize(&mut De { input: bytes })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
    enum Op {
        Nop,
        Put(u32, String),
        Get { key: Vec<u8>, hint: Option<u16> },
        One(u8),
    }

    #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
    struct Id(u32);

    #[derive(serde::Serialize, serde::Deserialize, Debug, PartialEq)]
    struct Msg {
        id: Id,
        digest: [u8; 4],
        ops: Vec<Op>,
        pair: (u64, bool),
    }

    #[test]
    fn layout_matches_bincode_1x() {
        let m = Msg {
            id: Id(7),
            digest: [1, 2, 3, 4],
            ops: vec![Op::Nop, Op::One(9)],
            pair: (5, true),
        };
        let bytes = serialize(&m).unwrap();
        let mut want = vec![7, 0, 0, 0, 1, 2, 3, 4];
        want.extend_from_slice(&2u64.to_le_bytes());
        want.extend_from_slice(&[0, 0, 0, 0]);
        want.extend_from_slice(&[3, 0, 0, 0, 9]);
        want.extend_from_slice(&5u64.to_le_bytes());
        want.push(1);
        assert_eq!(bytes, want);
        assert_eq!(serialized_size(&m).unwrap(), want.len() as u64);
        assert_eq!(deserialize::<Msg>(&bytes).unwrap(), m);
    }

    #[test]
    fn every_variant_shape_round_trips() {
        let ops = vec![
            Op::Nop,
            Op::Put(3, "x".into()),
            Op::Get {
                key: vec![1, 2],
                hint: Some(4),
            },
            Op::Get {
                key: vec![],
                hint: None,
            },
        ];
        let bytes = serialize(&ops).unwrap();
        assert_eq!(deserialize::<Vec<Op>>(&bytes).unwrap(), ops);
    }

    #[test]
    fn truncated_and_hostile_input_is_an_error() {
        let bytes = serialize(&vec![1u64, 2, 3]).unwrap();
        assert!(deserialize::<Vec<u64>>(&bytes[..bytes.len() - 1]).is_err());
        // A length prefix far beyond the input must fail, not allocate.
        let huge = u64::MAX.to_le_bytes();
        assert!(deserialize::<Vec<u8>>(&huge).is_err());
        assert!(deserialize::<Vec<u64>>(&huge).is_err());
        assert!(deserialize::<Op>(&[9, 0, 0, 0]).is_err());
        assert!(deserialize::<bool>(&[2]).is_err());
    }
}
