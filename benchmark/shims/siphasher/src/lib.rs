//! Offline stand-in for `siphasher` 1.x: `sip::SipHasher24` with `new_with_key(&[u8; 16])`/`new_with_keys`,
//! implementing `std::hash::Hasher` (checked against the reference
//! implementation's test vectors).

pub mod sip {
    use std::hash::Hasher;

    #[derive(Clone, Copy, Debug)]
    struct State<const C: usize, const D: usize> {
        v0: u64,
        v1: u64,
        v2: u64,
        v3: u64,
        /// Bytes not yet forming a full word, little-endian in the low bits.
        tail: u64,
        ntail: usize,
        length: usize,
    }

    impl<const C: usize, const D: usize> State<C, D> {
        fn new(k0: u64, k1: u64) -> Self {
            State {
                v0: k0 ^ 0x736f_6d65_7073_6575,
                v1: k1 ^ 0x646f_7261_6e64_6f6d,
                v2: k0 ^ 0x6c79_6765_6e65_7261,
                v3: k1 ^ 0x7465_6462_7974_6573,
                tail: 0,
                ntail: 0,
                length: 0,
            }
        }

        #[inline(always)]
        fn round(&mut self) {
            self.v0 = self.v0.wrapping_add(self.v1);
            self.v1 = self.v1.rotate_left(13);
            self.v1 ^= self.v0;
            self.v0 = self.v0.rotate_left(32);
            self.v2 = self.v2.wrapping_add(self.v3);
            self.v3 = self.v3.rotate_left(16);
            self.v3 ^= self.v2;
            self.v0 = self.v0.wrapping_add(self.v3);
            self.v3 = self.v3.rotate_left(21);
            self.v3 ^= self.v0;
            self.v2 = self.v2.wrapping_add(self.v1);
            self.v1 = self.v1.rotate_left(17);
            self.v1 ^= self.v2;
            self.v2 = self.v2.rotate_left(32);
        }

        #[inline(always)]
        fn word(&mut self, m: u64) {
            self.v3 ^= m;
            for _ in 0..C {
                self.round();
            }
            self.v0 ^= m;
        }

        #[inline]
        fn write(&mut self, mut msg: &[u8]) {
            self.length += msg.len();
            if self.ntail > 0 {
                let take = (8 - self.ntail).min(msg.len());
                for (i, b) in msg[..take].iter().enumerate() {
                    self.tail |= u64::from(*b) << (8 * (self.ntail + i));
                }
                self.ntail += take;
                msg = &msg[take..];
                if self.ntail < 8 {
                    return;
                }
                let m = self.tail;
                self.word(m);
                self.tail = 0;
                self.ntail = 0;
            }
            let mut chunks = msg.chunks_exact(8);
            for chunk in &mut chunks {
                self.word(u64::from_le_bytes(chunk.try_into().expect("8-byte chunk")));
            }
            for (i, b) in chunks.remainder().iter().enumerate() {
                self.tail |= u64::from(*b) << (8 * i);
            }
            self.ntail = chunks.remainder().len();
        }

        #[inline]
        fn finish(&self) -> u64 {
            let mut s = *self;
            let b = ((s.length as u64 & 0xff) << 56) | s.tail;
            s.word(b);
            s.v2 ^= 0xff;
            for _ in 0..D {
                s.round();
            }
            s.v0 ^ s.v1 ^ s.v2 ^ s.v3
        }
    }

    macro_rules! sip_hasher {
        ($name:ident, $c:expr, $d:expr, $doc:expr) => {
            #[doc = $doc]
            #[derive(Clone, Copy, Debug)]
            pub struct $name(State<$c, $d>);

            impl $name {
                /// Zero key.
                pub fn new() -> Self {
                    Self::new_with_keys(0, 0)
                }
                /// Key as two little-endian words.
                pub fn new_with_keys(k0: u64, k1: u64) -> Self {
                    $name(State::new(k0, k1))
                }
                /// Key as 16 bytes.
                pub fn new_with_key(key: &[u8; 16]) -> Self {
                    let (a, b) = key.split_at(8);
                    Self::new_with_keys(
                        u64::from_le_bytes(a.try_into().expect("8 bytes")),
                        u64::from_le_bytes(b.try_into().expect("8 bytes")),
                    )
                }
            }

            impl Default for $name {
                fn default() -> Self {
                    Self::new()
                }
            }

            impl Hasher for $name {
                #[inline]
                fn write(&mut self, msg: &[u8]) {
                    self.0.write(msg)
                }
                #[inline]
                fn finish(&self) -> u64 {
                    self.0.finish()
                }
            }
        };
    }

    sip_hasher!(SipHasher24, 2, 4, "SipHash-2-4.");

    #[cfg(test)]
    mod tests {
        use super::*;

        /// First rows of the reference `vectors_sip64`: key 00..0f, message
        /// 00..len-1, output little-endian.
        const VECTORS: [[u8; 8]; 16] = [
            [0x31, 0x0e, 0x0e, 0xdd, 0x47, 0xdb, 0x6f, 0x72],
            [0xfd, 0x67, 0xdc, 0x93, 0xc5, 0x39, 0xf8, 0x74],
            [0x5a, 0x4f, 0xa9, 0xd9, 0x09, 0x80, 0x6c, 0x0d],
            [0x2d, 0x7e, 0xfb, 0xd7, 0x96, 0x66, 0x67, 0x85],
            [0xb7, 0x87, 0x71, 0x27, 0xe0, 0x94, 0x27, 0xcf],
            [0x8d, 0xa6, 0x99, 0xcd, 0x64, 0x55, 0x76, 0x18],
            [0xce, 0xe3, 0xfe, 0x58, 0x6e, 0x46, 0xc9, 0xcb],
            [0x37, 0xd1, 0x01, 0x8b, 0xf5, 0x00, 0x02, 0xab],
            [0x62, 0x24, 0x93, 0x9a, 0x79, 0xf5, 0xf5, 0x93],
            [0xb0, 0xe4, 0xa9, 0x0b, 0xdf, 0x82, 0x00, 0x9e],
            [0xf3, 0xb9, 0xdd, 0x94, 0xc5, 0xbb, 0x5d, 0x7a],
            [0xa7, 0xad, 0x6b, 0x22, 0x46, 0x2f, 0xb3, 0xf4],
            [0xfb, 0xe5, 0x0e, 0x86, 0xbc, 0x8f, 0x1e, 0x75],
            [0x90, 0x3d, 0x84, 0xc0, 0x27, 0x56, 0xea, 0x14],
            [0xee, 0xf2, 0x7a, 0x8e, 0x90, 0xca, 0x23, 0xf7],
            [0xe5, 0x45, 0xbe, 0x49, 0x61, 0xca, 0x29, 0xa1],
        ];

        #[test]
        fn siphash24_reference_vectors() {
            let key: [u8; 16] = std::array::from_fn(|i| i as u8);
            for (len, want) in VECTORS.iter().enumerate() {
                let msg: Vec<u8> = (0..len as u8).collect();
                let mut h = SipHasher24::new_with_key(&key);
                h.write(&msg);
                assert_eq!(h.finish().to_le_bytes(), *want, "len {len}");
                // Byte-at-a-time writes hash the same stream.
                let mut split = SipHasher24::new_with_key(&key);
                for b in &msg {
                    split.write(&[*b]);
                }
                assert_eq!(split.finish(), h.finish(), "split len {len}");
            }
        }
    }
}
