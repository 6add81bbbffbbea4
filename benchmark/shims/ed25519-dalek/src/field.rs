//! Arithmetic modulo p = 2^255 − 19 on five 51-bit limbs (the layout of
//! curve25519-dalek's 64-bit backend).

/// A field element. Limbs may exceed 51 bits between operations; every
/// operation accepts limbs below 2^54 and `mul`/`square`/`sub` return
/// limbs below 2^52.
#[derive(Clone, Copy, Debug)]
pub struct Fe(pub [u64; 5]);

const MASK: u64 = (1 << 51) - 1;

impl Fe {
    pub const ZERO: Fe = Fe([0, 0, 0, 0, 0]);
    pub const ONE: Fe = Fe([1, 0, 0, 0, 0]);

    /// Carry each limb's excess into the next (weak reduction).
    #[inline(always)]
    fn carry(mut l: [u64; 5]) -> Fe {
        let c0 = l[0] >> 51;
        let c1 = l[1] >> 51;
        let c2 = l[2] >> 51;
        let c3 = l[3] >> 51;
        let c4 = l[4] >> 51;
        l[0] &= MASK;
        l[1] &= MASK;
        l[2] &= MASK;
        l[3] &= MASK;
        l[4] &= MASK;
        l[0] += c4 * 19;
        l[1] += c0;
        l[2] += c1;
        l[3] += c2;
        l[4] += c3;
        Fe(l)
    }

    #[inline(always)]
    pub fn add(&self, o: &Fe) -> Fe {
        let (a, b) = (&self.0, &o.0);
        Fe([a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], a[4] + b[4]])
    }

    /// `self − o`, computed as `self + 16p − o` so no limb underflows.
    #[inline(always)]
    pub fn sub(&self, o: &Fe) -> Fe {
        let (a, b) = (&self.0, &o.0);
        Fe::carry([
            (a[0] + 36_028_797_018_963_664) - b[0],
            (a[1] + 36_028_797_018_963_952) - b[1],
            (a[2] + 36_028_797_018_963_952) - b[2],
            (a[3] + 36_028_797_018_963_952) - b[3],
            (a[4] + 36_028_797_018_963_952) - b[4],
        ])
    }

    #[inline(always)]
    pub fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    /// Propagate five 128-bit column sums into 51-bit limbs.
    #[inline(always)]
    fn fold(c0: u128, mut c1: u128, mut c2: u128, mut c3: u128, mut c4: u128) -> Fe {
        let mut out = [0u64; 5];
        c1 += c0 >> 51;
        out[0] = (c0 as u64) & MASK;
        c2 += c1 >> 51;
        out[1] = (c1 as u64) & MASK;
        c3 += c2 >> 51;
        out[2] = (c2 as u64) & MASK;
        c4 += c3 >> 51;
        out[3] = (c3 as u64) & MASK;
        let carry = (c4 >> 51) as u64;
        out[4] = (c4 as u64) & MASK;
        out[0] += carry * 19;
        out[1] += out[0] >> 51;
        out[0] &= MASK;
        Fe(out)
    }

    #[inline(always)]
    pub fn mul(&self, o: &Fe) -> Fe {
        #[inline(always)]
        fn m(x: u64, y: u64) -> u128 {
            u128::from(x) * u128::from(y)
        }
        let (a, b) = (&self.0, &o.0);
        let b1_19 = b[1] * 19;
        let b2_19 = b[2] * 19;
        let b3_19 = b[3] * 19;
        let b4_19 = b[4] * 19;
        let c0 = m(a[0], b[0]) + m(a[4], b1_19) + m(a[3], b2_19) + m(a[2], b3_19) + m(a[1], b4_19);
        let c1 = m(a[1], b[0]) + m(a[0], b[1]) + m(a[4], b2_19) + m(a[3], b3_19) + m(a[2], b4_19);
        let c2 = m(a[2], b[0]) + m(a[1], b[1]) + m(a[0], b[2]) + m(a[4], b3_19) + m(a[3], b4_19);
        let c3 = m(a[3], b[0]) + m(a[2], b[1]) + m(a[1], b[2]) + m(a[0], b[3]) + m(a[4], b4_19);
        let c4 = m(a[4], b[0]) + m(a[3], b[1]) + m(a[2], b[2]) + m(a[1], b[3]) + m(a[0], b[4]);
        Fe::fold(c0, c1, c2, c3, c4)
    }

    #[inline(always)]
    pub fn square(&self) -> Fe {
        #[inline(always)]
        fn m(x: u64, y: u64) -> u128 {
            u128::from(x) * u128::from(y)
        }
        let a = &self.0;
        let a3_19 = a[3] * 19;
        let a4_19 = a[4] * 19;
        let c0 = m(a[0], a[0]) + 2 * (m(a[1], a4_19) + m(a[2], a3_19));
        let c1 = m(a[3], a3_19) + 2 * (m(a[0], a[1]) + m(a[2], a4_19));
        let c2 = m(a[1], a[1]) + 2 * (m(a[0], a[2]) + m(a[4], a3_19));
        let c3 = m(a[4], a4_19) + 2 * (m(a[0], a[3]) + m(a[1], a[2]));
        let c4 = m(a[2], a[2]) + 2 * (m(a[0], a[4]) + m(a[1], a[3]));
        Fe::fold(c0, c1, c2, c3, c4)
    }

    /// `self^(2^k)`.
    pub fn pow2k(&self, k: u32) -> Fe {
        let mut x = *self;
        for _ in 0..k {
            x = x.square();
        }
        x
    }

    /// `(self^(2^250 − 1), self^11)`: the shared prefix of the inversion
    /// and square-root exponent chains.
    fn pow22501(&self) -> (Fe, Fe) {
        let t0 = self.square(); // 2
        let t1 = t0.pow2k(2); // 8
        let t2 = self.mul(&t1); // 9
        let t3 = t0.mul(&t2); // 11
        let t4 = t3.square(); // 22
        let t5 = t2.mul(&t4); // 2^5 − 1
        let t7 = t5.pow2k(5).mul(&t5); // 2^10 − 1
        let t9 = t7.pow2k(10).mul(&t7); // 2^20 − 1
        let t11 = t9.pow2k(20).mul(&t9); // 2^40 − 1
        let t13 = t11.pow2k(10).mul(&t7); // 2^50 − 1
        let t15 = t13.pow2k(50).mul(&t13); // 2^100 − 1
        let t17 = t15.pow2k(100).mul(&t15); // 2^200 − 1
        let t19 = t17.pow2k(50).mul(&t13); // 2^250 − 1
        (t19, t3)
    }

    /// `self^(p − 2)`: the inverse, or zero for zero.
    pub fn invert(&self) -> Fe {
        let (t19, t3) = self.pow22501();
        t19.pow2k(5).mul(&t3) // 2^255 − 21
    }

    /// `self^((p − 5) / 8)`.
    fn pow_p58(&self) -> Fe {
        let (t19, _) = self.pow22501();
        t19.pow2k(2).mul(self) // 2^252 − 3
    }

    /// Canonical little-endian encoding.
    pub fn to_bytes(&self) -> [u8; 32] {
        let mut l = Fe::carry(self.0).0;
        // q = 1 iff the value is >= p; then subtract q·p by adding 19q and
        // dropping bit 255.
        let mut q = (l[0] + 19) >> 51;
        q = (l[1] + q) >> 51;
        q = (l[2] + q) >> 51;
        q = (l[3] + q) >> 51;
        q = (l[4] + q) >> 51;
        l[0] += 19 * q;
        l[1] += l[0] >> 51;
        l[0] &= MASK;
        l[2] += l[1] >> 51;
        l[1] &= MASK;
        l[3] += l[2] >> 51;
        l[2] &= MASK;
        l[4] += l[3] >> 51;
        l[3] &= MASK;
        l[4] &= MASK;
        let words = [
            l[0] | (l[1] << 51),
            (l[1] >> 13) | (l[2] << 38),
            (l[2] >> 26) | (l[3] << 25),
            (l[3] >> 39) | (l[4] << 12),
        ];
        let mut out = [0u8; 32];
        for (chunk, w) in out.chunks_exact_mut(8).zip(words) {
            chunk.copy_from_slice(&w.to_le_bytes());
        }
        out
    }

    /// Decode 255 bits little-endian; bit 255 is ignored.
    pub fn from_bytes(bytes: &[u8; 32]) -> Fe {
        let mut w = [0u64; 4];
        for (word, chunk) in w.iter_mut().zip(bytes.chunks_exact(8)) {
            *word = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
        }
        Fe([
            w[0] & MASK,
            ((w[0] >> 51) | (w[1] << 13)) & MASK,
            ((w[1] >> 38) | (w[2] << 26)) & MASK,
            ((w[2] >> 25) | (w[3] << 39)) & MASK,
            (w[3] >> 12) & MASK,
        ])
    }

    /// The encoding's least significant bit (the "sign" of x-coordinates).
    pub fn is_negative(&self) -> bool {
        self.to_bytes()[0] & 1 == 1
    }

    #[cfg(test)]
    pub fn is_zero(&self) -> bool {
        self.to_bytes() == [0u8; 32]
    }

    pub fn equals(&self, o: &Fe) -> bool {
        self.to_bytes() == o.to_bytes()
    }

    /// `(true, +sqrt(u/v))` if `u/v` is a square, else `(false, _)`.
    pub fn sqrt_ratio(u: &Fe, v: &Fe) -> (bool, Fe) {
        let v3 = v.square().mul(v);
        let v7 = v3.square().mul(v);
        let mut r = u.mul(&v3).mul(&u.mul(&v7).pow_p58());
        let check = v.mul(&r.square());
        let neg_u = u.neg();
        let correct = check.equals(u);
        let flipped = check.equals(&neg_u);
        let flipped_i = check.equals(&neg_u.mul(&SQRT_M1));
        if flipped || flipped_i {
            r = r.mul(&SQRT_M1);
        }
        if r.is_negative() {
            r = r.neg();
        }
        (correct || flipped, r)
    }
}

/// sqrt(−1) mod p.
pub const SQRT_M1: Fe = Fe([
    0x61b274a0ea0b0,
    0x0d5a5fc8f189d,
    0x7ef5e9cbd0c60,
    0x78595a6804c9e,
    0x2b8324804fc1d,
]);

/// The curve constant d = −121665/121666.
pub const D: Fe = Fe([
    0x34dca135978a3,
    0x1a8283b156ebd,
    0x5e7a26001c029,
    0x739c663a03cbb,
    0x52036cee2b6ff,
]);

/// 2d.
pub const D2: Fe = Fe([
    0x69b9426b2f159,
    0x35050762add7a,
    0x3cf44c0038052,
    0x6738cc7407977,
    0x2406d9dc56dff,
]);

#[cfg(test)]
mod tests {
    use super::*;

    fn fe(n: u64) -> Fe {
        Fe([n & MASK, n >> 51, 0, 0, 0])
    }

    #[test]
    fn inverse_and_encoding_round_trip() {
        for n in [1u64, 2, 19, 121_666, u64::MAX] {
            let x = fe(n);
            assert!(x.mul(&x.invert()).equals(&Fe::ONE), "{n}");
            assert!(Fe::from_bytes(&x.to_bytes()).equals(&x));
        }
        // p encodes as zero, p − 1 as −1.
        let p_minus_1 = Fe::ZERO.sub(&Fe::ONE);
        let mut want = [0xffu8; 32];
        want[0] = 0xec;
        want[31] = 0x7f;
        assert_eq!(p_minus_1.to_bytes(), want);
        assert!(p_minus_1.add(&Fe::ONE).is_zero());
    }

    #[test]
    fn constants_satisfy_their_definitions() {
        assert!(SQRT_M1.square().equals(&Fe::ONE.neg()));
        assert!(D.mul(&fe(121_666)).equals(&fe(121_665).neg()));
        assert!(D.add(&D).equals(&D2));
    }

    #[test]
    fn sqrt_ratio_finds_roots_and_rejects_non_squares() {
        let four = fe(4);
        let (ok, r) = Fe::sqrt_ratio(&four, &Fe::ONE);
        assert!(ok && r.square().equals(&four) && !r.is_negative());
        // 2 is a non-residue mod p.
        assert!(!Fe::sqrt_ratio(&fe(2), &Fe::ONE).0);
    }
}
