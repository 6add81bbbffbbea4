//! The twisted Edwards curve −x² + y² = 1 + d·x²y² in extended
//! coordinates, with the two scalar multiplications Ed25519 needs.

use crate::field::{Fe, D, D2};
use std::sync::OnceLock;

/// A point (X : Y : Z : T) with x = X/Z, y = Y/Z, T = XY/Z.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
    t: Fe,
}

/// A point prepared as the second operand of an addition:
/// (Y+X, Y−X, Z, 2d·T).
#[derive(Clone, Copy, Debug)]
pub struct Cached {
    ypx: Fe,
    ymx: Fe,
    z: Fe,
    t2d: Fe,
}

impl Point {
    pub const IDENTITY: Point = Point {
        x: Fe::ZERO,
        y: Fe::ONE,
        z: Fe::ONE,
        t: Fe::ZERO,
    };

    /// The standard base point (x even, y = 4/5).
    pub fn base() -> Point {
        let x = Fe([
            0x62d608f25d51a,
            0x412a4b4f6592a,
            0x75b7171a4b31d,
            0x1ff60527118fe,
            0x216936d3cd6e5,
        ]);
        let y = Fe([
            0x6666666666658,
            0x4cccccccccccc,
            0x1999999999999,
            0x3333333333333,
            0x6666666666666,
        ]);
        Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(&y),
        }
    }

    pub fn to_cached(&self) -> Cached {
        Cached {
            ypx: self.y.add(&self.x),
            ymx: self.y.sub(&self.x),
            z: self.z,
            t2d: self.t.mul(&D2),
        }
    }

    pub fn neg(&self) -> Point {
        Point {
            x: self.x.neg(),
            y: self.y,
            z: self.z,
            t: self.t.neg(),
        }
    }

    /// add-2008-hwcd-3 (a = −1).
    #[inline]
    pub fn add_cached(&self, o: &Cached) -> Point {
        let a = self.y.sub(&self.x).mul(&o.ymx);
        let b = self.y.add(&self.x).mul(&o.ypx);
        let c = self.t.mul(&o.t2d);
        let d = self.z.add(&self.z).mul(&o.z);
        let e = b.sub(&a);
        let f = d.sub(&c);
        let g = d.add(&c);
        let h = b.add(&a);
        Point {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    pub fn add(&self, o: &Point) -> Point {
        self.add_cached(&o.to_cached())
    }

    /// dbl-2008-hwcd (a = −1).
    #[inline]
    pub fn double(&self) -> Point {
        let a = self.x.square();
        let b = self.y.square();
        let zz = self.z.square();
        let c = zz.add(&zz);
        let e = self.x.add(&self.y).square().sub(&a).sub(&b);
        let g = b.sub(&a);
        let f = g.sub(&c);
        let h = a.add(&b).neg();
        Point {
            x: e.mul(&f),
            y: g.mul(&h),
            z: f.mul(&g),
            t: e.mul(&h),
        }
    }

    /// The 32-byte encoding: y with the sign of x in the top bit.
    pub fn compress(&self) -> [u8; 32] {
        let zinv = self.z.invert();
        let x = self.x.mul(&zinv);
        let y = self.y.mul(&zinv);
        let mut out = y.to_bytes();
        out[31] ^= u8::from(x.is_negative()) << 7;
        out
    }

    /// Decode an encoding; `None` if no curve point has that y.
    pub fn decompress(bytes: &[u8; 32]) -> Option<Point> {
        let y = Fe::from_bytes(bytes);
        let yy = y.square();
        let u = yy.sub(&Fe::ONE);
        let v = yy.mul(&D).add(&Fe::ONE);
        let (ok, mut x) = Fe::sqrt_ratio(&u, &v);
        if !ok {
            return None;
        }
        if x.is_negative() != (bytes[31] >> 7 == 1) {
            x = x.neg();
        }
        Some(Point {
            x,
            y,
            z: Fe::ONE,
            t: x.mul(&y),
        })
    }

    /// `[scalar]self` for a 256-bit little-endian scalar: fixed 4-bit
    /// windows over a table of 0·P … 15·P. Variable time.
    pub fn mul(&self, scalar: &[u8; 32]) -> Point {
        let mut table = [Point::IDENTITY.to_cached(); 16];
        let own = self.to_cached();
        let mut multiple = *self;
        table[1] = own;
        for entry in table.iter_mut().skip(2) {
            multiple = multiple.add_cached(&own);
            *entry = multiple.to_cached();
        }
        let mut acc = Point::IDENTITY;
        for i in (0..64).rev() {
            if i != 63 {
                acc = acc.double().double().double().double();
            }
            let nibble = nibble(scalar, i);
            if nibble != 0 {
                acc = acc.add_cached(&table[nibble]);
            }
        }
        acc
    }

    /// `[scalar]B` from a precomputed table of j·16^i·B: 64 additions at
    /// most, no doublings.
    pub fn mul_base(scalar: &[u8; 32]) -> Point {
        let table = base_table();
        let mut acc = Point::IDENTITY;
        for (i, row) in table.iter().enumerate() {
            let nibble = nibble(scalar, i);
            if nibble != 0 {
                acc = acc.add_cached(&row[nibble - 1]);
            }
        }
        acc
    }

    /// `[s]B − [k]A`, the right-hand side of the verification equation.
    pub fn verification_point(s: &[u8; 32], k: &[u8; 32], minus_a: &Point) -> Point {
        Point::mul_base(s).add(&minus_a.mul(k))
    }
}

#[inline]
fn nibble(scalar: &[u8; 32], i: usize) -> usize {
    usize::from((scalar[i / 2] >> (4 * (i % 2))) & 15)
}

/// `table[i][j − 1] = j·16^i·B` for i in 0..64, j in 1..=15.
fn base_table() -> &'static [[Cached; 15]] {
    static TABLE: OnceLock<Vec<[Cached; 15]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut rows = Vec::with_capacity(64);
        let mut power = Point::base();
        for _ in 0..64 {
            let own = power.to_cached();
            let mut row = [own; 15];
            let mut multiple = power;
            for entry in row.iter_mut().skip(1) {
                multiple = multiple.add_cached(&own);
                *entry = multiple.to_cached();
            }
            // 16·power = 15·power + power.
            power = multiple.add_cached(&own);
            rows.push(row);
        }
        rows
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scalar(n: u64) -> [u8; 32] {
        let mut s = [0u8; 32];
        s[..8].copy_from_slice(&n.to_le_bytes());
        s
    }

    #[test]
    fn base_point_encodes_to_the_rfc_value_and_decodes_back() {
        let b = Point::base();
        let mut want = [0x66u8; 32];
        want[0] = 0x58;
        assert_eq!(b.compress(), want);
        let back = Point::decompress(&want).unwrap();
        assert_eq!(back.compress(), want);
        assert_eq!(b.neg().compress()[31], 0x66 | 0x80);
    }

    #[test]
    fn the_three_multiplications_agree() {
        let b = Point::base();
        let mut naive = Point::IDENTITY;
        for n in 0..40u64 {
            assert_eq!(Point::mul_base(&scalar(n)).compress(), naive.compress(), "{n}");
            assert_eq!(b.mul(&scalar(n)).compress(), naive.compress(), "{n}");
            naive = naive.add(&b);
        }
        let big = [0xa7u8; 32];
        assert_eq!(Point::mul_base(&big).compress(), b.mul(&big).compress());
        assert_eq!(b.double().compress(), b.add(&b).compress());
    }

    #[test]
    fn group_order_annihilates_the_base_point() {
        // L = 2^252 + 27742317777372353535851937790883648493, little-endian.
        let l: [u8; 32] = [
            0xed, 0xd3, 0xf5, 0x5c, 0x1a, 0x63, 0x12, 0x58, 0xd6, 0x9c, 0xf7, 0xa2, 0xde, 0xf9, 0xde, 0x14, 0, 0, 0, 0,
            0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x10,
        ];
        assert_eq!(Point::mul_base(&l).compress(), Point::IDENTITY.compress());
    }

    #[test]
    fn off_curve_encodings_are_rejected() {
        // y = 2: (y² − 1)/(d·y² + 1) is not a square.
        let mut bytes = [0u8; 32];
        bytes[0] = 2;
        assert!(Point::decompress(&bytes).is_none());
    }
}
