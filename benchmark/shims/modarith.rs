//! 256-bit modular arithmetic by Barrett reduction, shared (through
//! `#[path]`) by the `ed25519-dalek` and `k256` stand-ins for their scalar
//! fields. Values are four little-endian `u64` limbs. Variable time: fine
//! for a benchmark stand-in, not for guarding real keys. Each includer uses
//! a subset, hence the blanket `dead_code` allowance.

#![allow(dead_code)]

/// A 256-bit value, least significant limb first.
pub type U256 = [u64; 4];

/// `a >= b`.
pub fn ge(a: &[u64], b: &[u64]) -> bool {
    debug_assert_eq!(a.len(), b.len());
    for i in (0..a.len()).rev() {
        if a[i] != b[i] {
            return a[i] > b[i];
        }
    }
    true
}

pub fn is_zero(a: &[u64]) -> bool {
    a.iter().all(|&l| l == 0)
}

/// `a -= b`, returning the borrow.
pub fn sub_assign(a: &mut [u64], b: &[u64]) -> bool {
    let mut borrow = false;
    for (x, y) in a.iter_mut().zip(b) {
        let (d, b1) = x.overflowing_sub(*y);
        let (d, b2) = d.overflowing_sub(u64::from(borrow));
        *x = d;
        borrow = b1 | b2;
    }
    borrow
}

/// `a += b`, returning the carry.
pub fn add_assign(a: &mut [u64], b: &[u64]) -> bool {
    let mut carry = false;
    for (x, y) in a.iter_mut().zip(b) {
        let (s, c1) = x.overflowing_add(*y);
        let (s, c2) = s.overflowing_add(u64::from(carry));
        *x = s;
        carry = c1 | c2;
    }
    carry
}

/// Schoolbook product; `out.len() == a.len() + b.len()`.
pub fn mul_into(a: &[u64], b: &[u64], out: &mut [u64]) {
    debug_assert_eq!(out.len(), a.len() + b.len());
    out.fill(0);
    for (i, &x) in a.iter().enumerate() {
        let mut carry = 0u128;
        for (j, &y) in b.iter().enumerate() {
            let t = u128::from(x) * u128::from(y) + u128::from(out[i + j]) + carry;
            out[i + j] = t as u64;
            carry = t >> 64;
        }
        out[i + b.len()] = carry as u64;
    }
}

/// The full 512-bit product.
pub fn mul_wide(a: &U256, b: &U256) -> [u64; 8] {
    let mut out = [0u64; 8];
    mul_into(a, b, &mut out);
    out
}

/// Big-endian bytes → limbs.
pub fn from_be_bytes(bytes: &[u8; 32]) -> U256 {
    let mut out = [0u64; 4];
    for (limb, chunk) in out.iter_mut().rev().zip(bytes.chunks_exact(8)) {
        *limb = u64::from_be_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    out
}

/// Limbs → big-endian bytes.
pub fn to_be_bytes(v: &U256) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (limb, chunk) in v.iter().rev().zip(out.chunks_exact_mut(8)) {
        chunk.copy_from_slice(&limb.to_be_bytes());
    }
    out
}

/// Little-endian bytes → limbs.
pub fn from_le_bytes(bytes: &[u8; 32]) -> U256 {
    let mut out = [0u64; 4];
    for (limb, chunk) in out.iter_mut().zip(bytes.chunks_exact(8)) {
        *limb = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    out
}

/// Limbs → little-endian bytes.
pub fn to_le_bytes(v: &U256) -> [u8; 32] {
    let mut out = [0u8; 32];
    for (limb, chunk) in v.iter().zip(out.chunks_exact_mut(8)) {
        chunk.copy_from_slice(&limb.to_le_bytes());
    }
    out
}

/// A modulus `m` of four limbs with a non-zero top limb, and
/// `mu = ⌊2^512 / m⌋`.
pub struct Modulus {
    pub m: U256,
    pub mu: [u64; 5],
}

impl Modulus {
    /// `x mod m` for any 512-bit `x` (HAC algorithm 14.42 with b = 2^64,
    /// k = 4).
    pub fn reduce_wide(&self, x: &[u64; 8]) -> U256 {
        // q3 = ⌊⌊x / b^3⌋ · mu / b^5⌋
        let mut q2 = [0u64; 10];
        mul_into(&x[3..], &self.mu, &mut q2);
        let q3 = &q2[5..];
        // r = (x mod b^5) − (q3 · m mod b^5), mod b^5.
        let mut qm = [0u64; 9];
        mul_into(q3, &self.m, &mut qm);
        let mut r = [0u64; 5];
        r.copy_from_slice(&x[..5]);
        sub_assign(&mut r, &qm[..5]);
        // 0 <= r < 3m: at most two corrections.
        let m5 = [self.m[0], self.m[1], self.m[2], self.m[3], 0];
        while ge(&r, &m5) {
            sub_assign(&mut r, &m5);
        }
        [r[0], r[1], r[2], r[3]]
    }

    /// `x mod m` for a 256-bit `x`.
    pub fn reduce(&self, x: &U256) -> U256 {
        let mut r = *x;
        while ge(&r, &self.m) {
            sub_assign(&mut r, &self.m);
        }
        r
    }

    /// `a · b mod m`.
    pub fn mul(&self, a: &U256, b: &U256) -> U256 {
        self.reduce_wide(&mul_wide(a, b))
    }

    /// `a + b mod m` for reduced `a`, `b`.
    pub fn add(&self, a: &U256, b: &U256) -> U256 {
        let mut r = *a;
        let carry = add_assign(&mut r, b);
        if carry || ge(&r, &self.m) {
            sub_assign(&mut r, &self.m);
        }
        r
    }

    /// `a − b mod m` for reduced `a`, `b`.
    pub fn sub(&self, a: &U256, b: &U256) -> U256 {
        let mut r = *a;
        if sub_assign(&mut r, b) {
            add_assign(&mut r, &self.m);
        }
        r
    }

    /// `−a mod m` for reduced `a`.
    pub fn neg(&self, a: &U256) -> U256 {
        self.sub(&[0; 4], a)
    }

    /// `a^e mod m`, square-and-multiply from the top bit.
    pub fn pow(&self, a: &U256, e: &U256) -> U256 {
        let mut acc: U256 = [1, 0, 0, 0];
        for i in (0..256).rev() {
            acc = self.mul(&acc, &acc);
            if (e[i / 64] >> (i % 64)) & 1 == 1 {
                acc = self.mul(&acc, a);
            }
        }
        acc
    }

    /// `a^-1 mod m` for prime `m` and `a != 0`, by Fermat.
    pub fn invert(&self, a: &U256) -> U256 {
        let mut e = self.m;
        sub_assign(&mut e, &[2, 0, 0, 0]);
        self.pow(a, &e)
    }
}
