//! Shared, cheaply-clonable message payloads.
//!
//! NeoBFT's end-host hot path must not give back the switch's gains in
//! `memcpy`: once the network orders and authenticates requests, the
//! replica loop is thin, and a per-destination `Vec<u8>` clone on every
//! broadcast would dominate it. [`Payload`] is an `Arc<[u8]>`-backed
//! newtype: a broadcast to N peers is one encode plus N refcount bumps,
//! and delivery hands nodes `&[u8]` views without copying.
//!
//! [`PayloadBuilder`] is the `BytesMut`-style companion for hot encode
//! paths: it owns a scratch buffer that is reused across messages, so a
//! steady-state sender performs exactly one allocation (the shared
//! `Arc<[u8]>`) per wire message.
//!
//! The module also keeps process-wide allocation counters
//! ([`PayloadStats`]) so the repository benchmark can report bytes-copied
//! and allocations per committed operation (`wire.payload_*_per_op`) —
//! making copy regressions visible in its results instead of only in
//! profiles.

use std::fmt;
use std::ops::Deref;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Process-wide payload allocation counters (relaxed atomics; cheap
/// enough for the hot path, exact enough for per-op reporting).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static CLONES: AtomicU64 = AtomicU64::new(0);

/// A point-in-time view of the process-wide payload counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PayloadStats {
    /// `Arc<[u8]>` buffers created (one per encoded wire message).
    pub allocations: u64,
    /// Total bytes copied into those buffers.
    pub allocated_bytes: u64,
    /// Reference-count bumps (broadcast fan-out, caching, requeues).
    pub clones: u64,
}

impl PayloadStats {
    /// Read the current process-wide counters.
    pub fn snapshot() -> PayloadStats {
        PayloadStats {
            allocations: ALLOCATIONS.load(Ordering::Relaxed),
            allocated_bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
            clones: CLONES.load(Ordering::Relaxed),
        }
    }

    /// Counters accumulated since `earlier` (for windowed reporting).
    pub fn since(&self, earlier: &PayloadStats) -> PayloadStats {
        PayloadStats {
            allocations: self.allocations.saturating_sub(earlier.allocations),
            allocated_bytes: self.allocated_bytes.saturating_sub(earlier.allocated_bytes),
            clones: self.clones.saturating_sub(earlier.clones),
        }
    }
}

/// An immutable, reference-counted wire payload.
///
/// Cloning bumps a refcount instead of copying bytes, which is what
/// makes `Context::broadcast` a single-encode operation. Derefs to
/// `[u8]` so existing slice-based code reads it unchanged.
#[derive(PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Payload(Arc<[u8]>);

impl Payload {
    /// The shared empty payload (no allocation).
    pub fn empty() -> Payload {
        static EMPTY: std::sync::OnceLock<Arc<[u8]>> = std::sync::OnceLock::new();
        Payload(EMPTY.get_or_init(|| Arc::from(&[][..])).clone())
    }

    /// Copy `bytes` into a fresh shared buffer.
    pub fn copy_from_slice(bytes: &[u8]) -> Payload {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(bytes.len() as u64, Ordering::Relaxed);
        Payload(Arc::from(bytes))
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True when the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The bytes as a slice (equivalent to `Deref`).
    pub fn as_slice(&self) -> &[u8] {
        &self.0
    }
}

impl Deref for Payload {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl AsRef<[u8]> for Payload {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl From<Vec<u8>> for Payload {
    fn from(v: Vec<u8>) -> Payload {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        ALLOCATED_BYTES.fetch_add(v.len() as u64, Ordering::Relaxed);
        Payload(Arc::from(v))
    }
}

impl From<&[u8]> for Payload {
    fn from(v: &[u8]) -> Payload {
        Payload::copy_from_slice(v)
    }
}

impl<const N: usize> From<[u8; N]> for Payload {
    fn from(v: [u8; N]) -> Payload {
        Payload::copy_from_slice(&v)
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Payload({} bytes)", self.0.len())
    }
}

// Manual Clone (not derived) so broadcast fan-out is visible in
// PayloadStats: each bump is a refcount increment, never a byte copy.
impl Clone for Payload {
    fn clone(&self) -> Payload {
        CLONES.fetch_add(1, Ordering::Relaxed);
        Payload(Arc::clone(&self.0))
    }
}

impl Default for Payload {
    fn default() -> Payload {
        Payload::empty()
    }
}

/// A `BytesMut`-style builder that reuses its scratch buffer across
/// messages: encode into [`PayloadBuilder::buf`], then
/// [`PayloadBuilder::finish`] copies the scratch into a fresh shared
/// buffer and clears the scratch *keeping its capacity*.
#[derive(Default)]
pub struct PayloadBuilder {
    scratch: Vec<u8>,
}

impl PayloadBuilder {
    /// A builder with an empty scratch buffer.
    pub fn new() -> PayloadBuilder {
        PayloadBuilder::default()
    }

    /// A builder whose scratch starts at `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> PayloadBuilder {
        PayloadBuilder {
            scratch: Vec::with_capacity(capacity),
        }
    }

    /// The scratch buffer, cleared and ready for one message's bytes.
    pub fn buf(&mut self) -> &mut Vec<u8> {
        self.scratch.clear();
        &mut self.scratch
    }

    /// Append bytes to the current message.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.scratch.extend_from_slice(bytes);
    }

    /// Seal the current message into a [`Payload`], retaining the
    /// scratch allocation for the next one.
    pub fn finish(&mut self) -> Payload {
        let p = Payload::copy_from_slice(&self.scratch);
        self.scratch.clear();
        p
    }

    /// Current scratch capacity (test/diagnostic hook).
    pub fn capacity(&self) -> usize {
        self.scratch.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deref_and_conversions() {
        let p: Payload = vec![1u8, 2, 3].into();
        assert_eq!(&*p, &[1, 2, 3]);
        assert_eq!(p.as_slice(), &[1, 2, 3]);
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        let q: Payload = (&[1u8, 2, 3][..]).into();
        assert_eq!(p, q);
        assert!(Payload::empty().is_empty());
        assert_eq!(Payload::default(), Payload::empty());
    }

    #[test]
    fn clone_shares_the_buffer() {
        let p: Payload = vec![7u8; 64].into();
        let q = p.clone();
        // Same allocation: identical pointers, not just equal bytes.
        assert!(std::ptr::eq(p.as_slice(), q.as_slice()));
    }

    #[test]
    fn stats_count_allocs_and_clones() {
        let before = PayloadStats::snapshot();
        let p: Payload = vec![0u8; 100].into();
        let _q = p.clone();
        let _r = p.clone();
        // Counters are process-wide, so parallel tests may add to the
        // deltas; assert lower bounds only.
        let delta = PayloadStats::snapshot().since(&before);
        assert!(delta.allocations >= 1);
        assert!(delta.allocated_bytes >= 100);
        assert!(delta.clones >= 2);
    }

    #[test]
    fn builder_reuses_scratch_capacity() {
        let mut b = PayloadBuilder::with_capacity(256);
        b.buf().extend_from_slice(&[1, 2, 3]);
        let p = b.finish();
        assert_eq!(&*p, &[1, 2, 3]);
        let cap = b.capacity();
        assert!(cap >= 256);
        b.extend_from_slice(&[9; 10]);
        let q = b.finish();
        assert_eq!(q.len(), 10);
        assert_eq!(b.capacity(), cap, "scratch allocation survives finish");
    }
}
