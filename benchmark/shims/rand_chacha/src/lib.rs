//! Offline stand-in for `rand_chacha` 0.3: `ChaCha8Rng` on the real ChaCha
//! block function (generic in its rounds, so the test can check it at 20) behind the same word-buffer discipline as
//! `rand_core::block::BlockRng`, so a seed names the same stream as with
//! the real crate (checked against the RFC 7539 block vector below).

use rand::{RngCore, SeedableRng};

/// Words buffered per refill: four 16-word blocks, like rand_chacha.
const BUF_WORDS: usize = 64;

#[derive(Clone)]
struct Core<const DOUBLE_ROUNDS: usize> {
    key: [u32; 8],
    /// 64-bit block counter (state words 12–13).
    counter: u64,
    /// 64-bit stream id (state words 14–15).
    stream: u64,
    buf: [u32; BUF_WORDS],
    /// Next unread word of `buf`; `BUF_WORDS` means empty.
    index: usize,
}

#[inline(always)]
fn quarter(s: &mut [u32; 16], a: usize, b: usize, c: usize, d: usize) {
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(16);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(12);
    s[a] = s[a].wrapping_add(s[b]);
    s[d] = (s[d] ^ s[a]).rotate_left(8);
    s[c] = s[c].wrapping_add(s[d]);
    s[b] = (s[b] ^ s[c]).rotate_left(7);
}

fn block<const DOUBLE_ROUNDS: usize>(key: &[u32; 8], counter: u64, stream: u64, out: &mut [u32]) {
    let mut input = [0u32; 16];
    input[0] = 0x6170_7865;
    input[1] = 0x3320_646e;
    input[2] = 0x7962_2d32;
    input[3] = 0x6b20_6574;
    input[4..12].copy_from_slice(key);
    input[12] = counter as u32;
    input[13] = (counter >> 32) as u32;
    input[14] = stream as u32;
    input[15] = (stream >> 32) as u32;
    let mut s = input;
    for _ in 0..DOUBLE_ROUNDS {
        quarter(&mut s, 0, 4, 8, 12);
        quarter(&mut s, 1, 5, 9, 13);
        quarter(&mut s, 2, 6, 10, 14);
        quarter(&mut s, 3, 7, 11, 15);
        quarter(&mut s, 0, 5, 10, 15);
        quarter(&mut s, 1, 6, 11, 12);
        quarter(&mut s, 2, 7, 8, 13);
        quarter(&mut s, 3, 4, 9, 14);
    }
    for (o, (a, b)) in out.iter_mut().zip(s.iter().zip(input.iter())) {
        *o = a.wrapping_add(*b);
    }
}

impl<const DOUBLE_ROUNDS: usize> Core<DOUBLE_ROUNDS> {
    fn new(seed: [u8; 32]) -> Self {
        let mut key = [0u32; 8];
        for (k, chunk) in key.iter_mut().zip(seed.chunks_exact(4)) {
            *k = u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        }
        Core {
            key,
            counter: 0,
            stream: 0,
            buf: [0; BUF_WORDS],
            index: BUF_WORDS,
        }
    }

    fn refill(&mut self) {
        for chunk in self.buf.chunks_exact_mut(16) {
            block::<DOUBLE_ROUNDS>(&self.key, self.counter, self.stream, chunk);
            self.counter = self.counter.wrapping_add(1);
        }
        self.index = 0;
    }

    #[inline]
    fn next_u32(&mut self) -> u32 {
        if self.index >= BUF_WORDS {
            self.refill();
        }
        let v = self.buf[self.index];
        self.index += 1;
        v
    }

    #[inline]
    fn next_u64(&mut self) -> u64 {
        // BlockRng's rule: two adjacent words, low first; a value that
        // would straddle a refill takes the last old and first new word.
        if self.index < BUF_WORDS - 1 {
            let v = u64::from(self.buf[self.index]) | (u64::from(self.buf[self.index + 1]) << 32);
            self.index += 2;
            v
        } else if self.index >= BUF_WORDS {
            self.refill();
            self.index = 2;
            u64::from(self.buf[0]) | (u64::from(self.buf[1]) << 32)
        } else {
            let lo = u64::from(self.buf[BUF_WORDS - 1]);
            self.refill();
            self.index = 1;
            lo | (u64::from(self.buf[0]) << 32)
        }
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        for chunk in dest.chunks_mut(4) {
            let bytes = self.next_u32().to_le_bytes();
            chunk.copy_from_slice(&bytes[..chunk.len()]);
        }
    }
}

macro_rules! chacha_rng {
    ($name:ident, $double_rounds:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Clone)]
        pub struct $name(Core<$double_rounds>);

        impl SeedableRng for $name {
            type Seed = [u8; 32];
            fn from_seed(seed: [u8; 32]) -> Self {
                $name(Core::new(seed))
            }
        }

        impl RngCore for $name {
            #[inline]
            fn next_u32(&mut self) -> u32 {
                self.0.next_u32()
            }
            #[inline]
            fn next_u64(&mut self) -> u64 {
                self.0.next_u64()
            }
            fn fill_bytes(&mut self, dest: &mut [u8]) {
                self.0.fill_bytes(dest)
            }
        }

        impl std::fmt::Debug for $name {
            fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
                write!(f, concat!(stringify!($name), " {{ .. }}"))
            }
        }
    };
}

chacha_rng!(ChaCha8Rng, 4, "ChaCha with 8 rounds.");

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn chacha20_block_matches_rfc7539_key_stream_structure() {
        // RFC 7539 §2.3.2 uses a 32-bit counter and 96-bit nonce; with
        // counter = 1 and the nonce's first word zero, the state is
        // expressible here: counter word 12 = 1, word 13 = nonce[0] = 0,
        // stream = nonce[1..3].
        let mut key = [0u32; 8];
        for (i, k) in key.iter_mut().enumerate() {
            let b = (i * 4) as u32;
            *k = b | ((b + 1) << 8) | ((b + 2) << 16) | ((b + 3) << 24);
        }
        // nonce = 00 00 00 09 | 00 00 00 4a | 00 00 00 00 → word13 = 0x09000000.
        let counter = 1u64 | (0x0900_0000u64 << 32);
        let stream = 0x4a00_0000u64;
        let mut out = [0u32; 16];
        block::<10>(&key, counter, stream, &mut out);
        assert_eq!(out[0], 0xe4e7_f110);
        assert_eq!(out[1], 0x1559_3bd1);
        assert_eq!(out[15], 0x4e3c_50a2);
    }

    #[test]
    fn same_seed_same_stream_and_u64_straddles_refills() {
        let mut a = ChaCha8Rng::seed_from_u64(7);
        let mut b = ChaCha8Rng::seed_from_u64(7);
        let mut c = ChaCha8Rng::seed_from_u64(8);
        let xs: Vec<u64> = (0..200).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..200).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..200).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys);
        assert_ne!(xs, zs);
        // Odd alignment: one u32 first, then u64s across the 64-word edge.
        let mut d = ChaCha8Rng::seed_from_u64(7);
        let mut e = ChaCha8Rng::seed_from_u64(7);
        let first = d.next_u32();
        assert_eq!(first, e.next_u32());
        for _ in 0..40 {
            let lo = u64::from(e.next_u32());
            let hi = u64::from(e.next_u32());
            assert_eq!(d.next_u64(), lo | (hi << 32));
        }
        let v: u64 = d.gen_range(10..20);
        assert!((10..20).contains(&v));
    }
}
