//! Offline stand-in for `serde`.
//!
//! The container this repository grows in has no crate registry, so the
//! benchmark patches every crates.io dependency of the workspace with a
//! small local crate that offers the part of the API the workspace uses.
//! This one keeps serde's *names* (`Serialize`, `Deserialize`,
//! `de::DeserializeOwned`, the derive macros and the `#[serde(...)]`
//! field attributes `default`, `skip`, `skip_serializing_if`,
//! `skip_deserializing`) but a much smaller data model: a format is a
//! [`Serializer`]/[`Deserializer`] with one method per primitive and
//! explicit begin/end calls around compounds. Two formats implement it:
//! the `bincode` shim (positional, fixed-width little-endian — byte-for-byte
//! bincode 1.x's default options) and the `serde_json` shim (keyed,
//! self-describing, externally tagged enums like real serde_json).

pub use serde_derive::{Deserialize, Serialize};

mod content;
mod impls;

pub use content::{Content, Map, Number};

/// What a non-unit enum variant holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum VariantKind {
    /// `V(T)`
    Newtype,
    /// `V(A, B, ..)` with that many fields.
    Tuple(usize),
    /// `V { a, b, .. }` with that many serialized fields.
    Struct(usize),
}

/// A value that can write itself to a [`Serializer`].
pub trait Serialize {
    /// Write `self` to `s`.
    fn serialize<S: Serializer + ?Sized>(&self, s: &mut S) -> Result<(), S::Error>;

    /// Write a slice of `Self` as a sequence. `u8` overrides this with
    /// the one-call byte path, which is how `Vec<u8>` avoids a call per
    /// byte without specialization.
    #[doc(hidden)]
    fn serialize_slice<S: Serializer + ?Sized>(items: &[Self], s: &mut S) -> Result<(), S::Error>
    where
        Self: Sized,
    {
        s.begin_seq(items.len())?;
        for v in items {
            s.elem()?;
            v.serialize(s)?;
        }
        s.end_seq()
    }
}

/// A value that can read itself from a [`Deserializer`].
pub trait Deserialize: Sized {
    /// Read one value from `d`.
    fn deserialize<D: Deserializer + ?Sized>(d: &mut D) -> Result<Self, D::Error>;

    /// Read a sequence of `Self`; `u8` overrides it (see
    /// [`Serialize::serialize_slice`]). The pre-allocation is capped so a
    /// hostile length prefix cannot reserve memory the input does not back.
    #[doc(hidden)]
    fn deserialize_vec<D: Deserializer + ?Sized>(d: &mut D) -> Result<Vec<Self>, D::Error> {
        let mut out = Vec::new();
        match d.begin_seq()? {
            Some(len) => {
                out.reserve(len.min(4096));
                for _ in 0..len {
                    out.push(Self::deserialize(d)?);
                }
            }
            None => {
                while d.seq_next()? {
                    out.push(Self::deserialize(d)?);
                }
            }
        }
        d.end_seq()?;
        Ok(out)
    }
}

/// An output format.
pub trait Serializer {
    /// The format's error type.
    type Error: ser::Error;

    fn put_bool(&mut self, v: bool) -> Result<(), Self::Error>;
    fn put_u8(&mut self, v: u8) -> Result<(), Self::Error>;
    fn put_u16(&mut self, v: u16) -> Result<(), Self::Error>;
    fn put_u32(&mut self, v: u32) -> Result<(), Self::Error>;
    fn put_u64(&mut self, v: u64) -> Result<(), Self::Error>;
    fn put_u128(&mut self, v: u128) -> Result<(), Self::Error>;
    fn put_i8(&mut self, v: i8) -> Result<(), Self::Error>;
    fn put_i16(&mut self, v: i16) -> Result<(), Self::Error>;
    fn put_i32(&mut self, v: i32) -> Result<(), Self::Error>;
    fn put_i64(&mut self, v: i64) -> Result<(), Self::Error>;
    fn put_f32(&mut self, v: f32) -> Result<(), Self::Error>;
    fn put_f64(&mut self, v: f64) -> Result<(), Self::Error>;
    fn put_char(&mut self, v: char) -> Result<(), Self::Error>;
    fn put_str(&mut self, v: &str) -> Result<(), Self::Error>;
    /// A `Vec<u8>`/`[u8]` written as one run (same encoding as a sequence
    /// of `u8`, without the per-element calls).
    fn put_byte_seq(&mut self, v: &[u8]) -> Result<(), Self::Error>;
    fn put_unit(&mut self) -> Result<(), Self::Error>;

    fn put_none(&mut self) -> Result<(), Self::Error>;
    /// The value follows.
    fn begin_some(&mut self) -> Result<(), Self::Error>;

    fn begin_seq(&mut self, len: usize) -> Result<(), Self::Error>;
    /// Before each element of a sequence or tuple.
    fn elem(&mut self) -> Result<(), Self::Error>;
    fn end_seq(&mut self) -> Result<(), Self::Error>;

    /// Fixed-length: no length prefix in positional formats.
    fn begin_tuple(&mut self, len: usize) -> Result<(), Self::Error>;
    fn end_tuple(&mut self) -> Result<(), Self::Error>;

    fn begin_map(&mut self, len: usize) -> Result<(), Self::Error>;
    /// Before each key.
    fn map_key(&mut self) -> Result<(), Self::Error>;
    /// Between a key and its value.
    fn map_value(&mut self) -> Result<(), Self::Error>;
    fn end_map(&mut self) -> Result<(), Self::Error>;

    fn begin_struct(&mut self, name: &'static str, len: usize) -> Result<(), Self::Error>;
    /// Before each named field's value.
    fn field(&mut self, name: &'static str) -> Result<(), Self::Error>;
    fn end_struct(&mut self) -> Result<(), Self::Error>;

    fn unit_variant(&mut self, index: u32, variant: &'static str) -> Result<(), Self::Error>;
    /// Contents follow: one value (`Newtype`), `elem`-separated values
    /// (`Tuple`) or `field`-introduced values (`Struct`).
    fn begin_variant(&mut self, index: u32, variant: &'static str, kind: VariantKind) -> Result<(), Self::Error>;
    fn end_variant(&mut self, kind: VariantKind) -> Result<(), Self::Error>;

    /// A self-describing tree (only keyed formats accept one).
    fn put_content(&mut self, v: &Content) -> Result<(), Self::Error>;
}

/// An input format.
pub trait Deserializer {
    /// The format's error type.
    type Error: de::Error;

    /// `true`: structs are read field by field in declaration order and
    /// sequences carry their length. `false`: structs are keyed and
    /// compounds are delimited.
    fn positional(&self) -> bool;

    fn get_bool(&mut self) -> Result<bool, Self::Error>;
    fn get_u8(&mut self) -> Result<u8, Self::Error>;
    fn get_u16(&mut self) -> Result<u16, Self::Error>;
    fn get_u32(&mut self) -> Result<u32, Self::Error>;
    fn get_u64(&mut self) -> Result<u64, Self::Error>;
    fn get_u128(&mut self) -> Result<u128, Self::Error>;
    fn get_i8(&mut self) -> Result<i8, Self::Error>;
    fn get_i16(&mut self) -> Result<i16, Self::Error>;
    fn get_i32(&mut self) -> Result<i32, Self::Error>;
    fn get_i64(&mut self) -> Result<i64, Self::Error>;
    fn get_f32(&mut self) -> Result<f32, Self::Error>;
    fn get_f64(&mut self) -> Result<f64, Self::Error>;
    fn get_char(&mut self) -> Result<char, Self::Error>;
    fn get_string(&mut self) -> Result<String, Self::Error>;
    fn get_byte_seq(&mut self) -> Result<Vec<u8>, Self::Error>;
    fn get_unit(&mut self) -> Result<(), Self::Error>;

    /// `true`: a value follows.
    fn get_option(&mut self) -> Result<bool, Self::Error>;

    /// `Some(len)` in positional formats (read exactly `len` elements,
    /// then `end_seq`); `None` in delimited ones (loop on `seq_next`,
    /// which consumes the closing delimiter when it returns `false`).
    fn begin_seq(&mut self) -> Result<Option<usize>, Self::Error>;
    fn seq_next(&mut self) -> Result<bool, Self::Error>;
    fn end_seq(&mut self) -> Result<(), Self::Error>;

    fn begin_tuple(&mut self, len: usize) -> Result<(), Self::Error>;
    /// Before each tuple element.
    fn tuple_elem(&mut self) -> Result<(), Self::Error>;
    fn end_tuple(&mut self) -> Result<(), Self::Error>;

    /// As `begin_seq`; each entry is key, `map_value`, value.
    fn begin_map(&mut self) -> Result<Option<usize>, Self::Error>;
    fn map_next(&mut self) -> Result<bool, Self::Error>;
    fn map_value(&mut self) -> Result<(), Self::Error>;
    fn end_map(&mut self) -> Result<(), Self::Error>;

    fn begin_struct(&mut self, name: &'static str, fields: &'static [&'static str]) -> Result<(), Self::Error>;
    /// Keyed formats only: the index in `fields` of the next key, with
    /// unknown keys skipped; `None` at the end of the struct (the closing
    /// delimiter is consumed).
    fn next_key(&mut self, fields: &'static [&'static str]) -> Result<Option<usize>, Self::Error>;
    fn end_struct(&mut self) -> Result<(), Self::Error>;

    /// The variant's index in `variants`; its contents follow, then
    /// `end_enum`.
    fn begin_enum(&mut self, name: &'static str, variants: &'static [&'static str]) -> Result<u32, Self::Error>;
    fn end_enum(&mut self) -> Result<(), Self::Error>;

    /// A self-describing tree (only keyed formats can produce one).
    fn get_content(&mut self) -> Result<Content, Self::Error>;
}

/// Serialization-side names.
pub mod ser {
    pub use super::{Serialize, Serializer};

    /// A format's serialization error.
    pub trait Error: Sized + std::fmt::Display {
        /// Build an error from a message.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;
    }
}

/// Deserialization-side names.
pub mod de {
    pub use super::{Deserialize, Deserializer};

    /// A format's deserialization error.
    pub trait Error: Sized + std::fmt::Display {
        /// Build an error from a message.
        fn custom<T: std::fmt::Display>(msg: T) -> Self;

        /// A required struct field was absent.
        fn missing_field(field: &'static str) -> Self {
            Self::custom(format_args!("missing field `{field}`"))
        }

        /// An enum tag named no variant.
        fn unknown_variant(index: u32, name: &'static str) -> Self {
            Self::custom(format_args!("invalid variant index {index} for enum {name}"))
        }
    }

    /// A value that owns everything it deserializes (every value, here:
    /// this data model has no borrowed deserialization).
    pub trait DeserializeOwned: Deserialize {}
    impl<T: Deserialize> DeserializeOwned for T {}
}

/// JSON text helpers shared with the `serde_json` stand-in.
#[doc(hidden)]
pub mod __private_json {
    pub use crate::content::{format_f64, write_json_str};
}

/// Support code the derive macros expand to.
#[doc(hidden)]
pub mod __private {
    pub use std::default::Default;
    pub use std::option::Option::{self, None, Some};
    pub use std::result::Result::{self, Err, Ok};
}
