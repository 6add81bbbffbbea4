//! Arithmetic modulo p = 2^256 − 2^32 − 977 on four 64-bit limbs. Every
//! value is kept fully reduced.

use crate::modarith::{self, U256};

/// 2^256 mod p.
const C: u64 = 0x1_0000_03d1;

pub const P: U256 = [
    0xffff_fffe_ffff_fc2f,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
    0xffff_ffff_ffff_ffff,
];

/// A field element, reduced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fe(pub U256);

impl Fe {
    pub const ZERO: Fe = Fe([0, 0, 0, 0]);
    pub const ONE: Fe = Fe([1, 0, 0, 0]);

    /// `None` if `v >= p`.
    pub fn from_canonical(v: U256) -> Option<Fe> {
        (!modarith::ge(&v, &P)).then_some(Fe(v))
    }

    pub fn is_zero(&self) -> bool {
        modarith::is_zero(&self.0)
    }

    pub fn is_odd(&self) -> bool {
        self.0[0] & 1 == 1
    }

    /// Fold a value `r + carry·2^256` (carry 0 or 1) into `[0, p)`.
    #[inline]
    fn finish(mut r: U256, carry: bool) -> Fe {
        if carry {
            // 2^256 ≡ C; the sum cannot carry again because r wrapped.
            modarith::add_assign(&mut r, &[C, 0, 0, 0]);
        }
        if modarith::ge(&r, &P) {
            modarith::sub_assign(&mut r, &P);
        }
        Fe(r)
    }

    #[inline]
    pub fn add(&self, o: &Fe) -> Fe {
        let mut r = self.0;
        let carry = modarith::add_assign(&mut r, &o.0);
        Fe::finish(r, carry)
    }

    #[inline]
    pub fn sub(&self, o: &Fe) -> Fe {
        let mut r = self.0;
        if modarith::sub_assign(&mut r, &o.0) {
            modarith::add_assign(&mut r, &P);
        }
        Fe(r)
    }

    pub fn neg(&self) -> Fe {
        Fe::ZERO.sub(self)
    }

    pub fn double(&self) -> Fe {
        self.add(self)
    }

    #[inline]
    pub fn mul(&self, o: &Fe) -> Fe {
        let w = modarith::mul_wide(&self.0, &o.0);
        // hi·2^256 + lo ≡ hi·C + lo.
        let mut r = [0u64; 4];
        let mut carry = 0u128;
        for i in 0..4 {
            let t = u128::from(w[i]) + u128::from(w[i + 4]) * u128::from(C) + carry;
            r[i] = t as u64;
            carry = t >> 64;
        }
        // carry < 2^34: fold once more.
        let mut t = u128::from(r[0]) + carry * u128::from(C);
        r[0] = t as u64;
        for limb in r.iter_mut().skip(1) {
            t = u128::from(*limb) + (t >> 64);
            *limb = t as u64;
        }
        Fe::finish(r, (t >> 64) != 0)
    }

    #[inline]
    pub fn square(&self) -> Fe {
        self.mul(self)
    }

    /// `self^e`, square-and-multiply from the top bit.
    pub fn pow(&self, e: &U256) -> Fe {
        let mut acc = Fe::ONE;
        for i in (0..256).rev() {
            acc = acc.square();
            if (e[i / 64] >> (i % 64)) & 1 == 1 {
                acc = acc.mul(self);
            }
        }
        acc
    }

    /// `self^(p − 2)`.
    pub fn invert(&self) -> Fe {
        self.pow(&[
            0xffff_fffe_ffff_fc2d,
            0xffff_ffff_ffff_ffff,
            0xffff_ffff_ffff_ffff,
            0xffff_ffff_ffff_ffff,
        ])
    }

    /// A square root if one exists (p ≡ 3 mod 4: `self^((p + 1) / 4)`).
    pub fn sqrt(&self) -> Option<Fe> {
        let r = self.pow(&[
            0xffff_ffff_bfff_ff0c,
            0xffff_ffff_ffff_ffff,
            0xffff_ffff_ffff_ffff,
            0x3fff_ffff_ffff_ffff,
        ]);
        (r.square() == *self).then_some(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wraparound_and_inverse() {
        let p_minus_1 = Fe::ZERO.sub(&Fe::ONE);
        assert_eq!(p_minus_1.add(&Fe::ONE), Fe::ZERO);
        assert_eq!(p_minus_1.mul(&p_minus_1), Fe::ONE);
        assert_eq!(p_minus_1.add(&p_minus_1), Fe::ZERO.sub(&Fe([2, 0, 0, 0])));
        for n in [2u64, 3, 977, u64::MAX] {
            let x = Fe([n, n ^ 0x55, 7, n >> 3]);
            assert_eq!(x.mul(&x.invert()), Fe::ONE);
            let sq = x.square();
            let root = sq.sqrt().unwrap();
            assert!(root == x || root == x.neg());
        }
        assert!(Fe::from_canonical(P).is_none());
    }
}
