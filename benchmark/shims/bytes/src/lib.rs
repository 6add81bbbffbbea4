//! Offline stand-in for `bytes` 1.x: a `Vec`-backed [`BytesMut`] with the
//! [`Buf`]/[`BufMut`] methods the workspace's stream framing calls.
//! Consuming from the front moves a cursor; the consumed prefix is
//! reclaimed when it outgrows the live bytes.

use std::ops::{Deref, DerefMut};

/// A growable byte buffer that can be consumed from the front.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct BytesMut {
    data: Vec<u8>,
    /// Index of the first live byte in `data`.
    head: usize,
}

impl BytesMut {
    pub fn new() -> Self {
        Self::default()
    }
    pub fn len(&self) -> usize {
        self.data.len() - self.head
    }
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
    pub fn clear(&mut self) {
        self.data.clear();
        self.head = 0;
    }
    pub fn reserve(&mut self, additional: usize) {
        self.compact();
        self.data.reserve(additional);
    }
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.compact();
        self.data.extend_from_slice(bytes);
    }
    /// Split off and return the first `at` bytes.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.len(), "split_to out of bounds: {at} > {}", self.len());
        let front = self.data[self.head..self.head + at].to_vec();
        self.head += at;
        BytesMut { data: front, head: 0 }
    }

    /// Drop the consumed prefix once it is at least as large as what is live.
    fn compact(&mut self) {
        if self.head > 0 && self.head >= self.len() {
            self.data.drain(..self.head);
            self.head = 0;
        }
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.head..]
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data[self.head..]
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "BytesMut({:?})", &**self)
    }
}

/// Reading from the front of a buffer.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, cnt: usize);
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len(), "advance out of bounds: {cnt} > {}", self.len());
        self.head += cnt;
    }
}

/// Appending to a buffer.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn front_consumption_and_appends_interleave() {
        let mut b = BytesMut::new();
        b.put_u32_le(3);
        b.put_slice(b"abc");
        b.put_u32_le(1);
        assert_eq!(b.len(), 11);
        assert_eq!(b[..4], 3u32.to_le_bytes());
        b.advance(4);
        assert_eq!(&*b.split_to(3), b"abc");
        assert_eq!(b.len(), 4);
        b.extend_from_slice(b"z");
        assert_eq!(b[..4], 1u32.to_le_bytes());
        b.advance(4);
        assert_eq!(b.to_vec(), b"z");
        b.advance(1);
        assert!(b.is_empty());
        b.extend_from_slice(b"fresh");
        assert_eq!(&*b, b"fresh");
    }

    #[test]
    #[should_panic(expected = "advance out of bounds")]
    fn advancing_past_the_end_panics() {
        let mut b = BytesMut::new();
        b.put_slice(b"ab");
        b.advance(3);
    }
}
