//! secp256k1 (y² = x³ + 7) in Jacobian coordinates.

use crate::field::Fe;
use crate::modarith::U256;
use std::sync::OnceLock;

/// (X : Y : Z) with x = X/Z², y = Y/Z³; Z = 0 is the point at infinity.
#[derive(Clone, Copy, Debug)]
pub struct Point {
    x: Fe,
    y: Fe,
    z: Fe,
}

const GX: U256 = [
    0x59f2_815b_16f8_1798,
    0x029b_fcdb_2dce_28d9,
    0x55a0_6295_ce87_0b07,
    0x79be_667e_f9dc_bbac,
];
const GY: U256 = [
    0x9c47_d08f_fb10_d4b8,
    0xfd17_b448_a685_5419,
    0x5da4_fbfc_0e11_08a8,
    0x483a_da77_26a3_c465,
];

impl Point {
    pub const INFINITY: Point = Point {
        x: Fe::ONE,
        y: Fe::ONE,
        z: Fe::ZERO,
    };

    pub fn generator() -> Point {
        Point::from_affine(Fe(GX), Fe(GY))
    }

    pub fn from_affine(x: Fe, y: Fe) -> Point {
        Point { x, y, z: Fe::ONE }
    }

    /// The point with this x and the given parity of y, if x is on the curve.
    pub fn from_x(x: Fe, y_is_odd: bool) -> Option<Point> {
        let y = x.square().mul(&x).add(&Fe([7, 0, 0, 0])).sqrt()?;
        let y = if y.is_odd() == y_is_odd { y } else { y.neg() };
        Some(Point::from_affine(x, y))
    }

    pub fn is_on_curve(x: &Fe, y: &Fe) -> bool {
        y.square() == x.square().mul(x).add(&Fe([7, 0, 0, 0]))
    }

    pub fn is_infinity(&self) -> bool {
        self.z.is_zero()
    }

    /// Affine coordinates; `None` at infinity.
    pub fn to_affine(&self) -> Option<(Fe, Fe)> {
        if self.is_infinity() {
            return None;
        }
        let zinv = self.z.invert();
        let zinv2 = zinv.square();
        Some((self.x.mul(&zinv2), self.y.mul(&zinv2).mul(&zinv)))
    }

    /// dbl-2009-l (a = 0).
    pub fn double(&self) -> Point {
        if self.is_infinity() {
            return *self;
        }
        let a = self.x.square();
        let b = self.y.square();
        let c = b.square();
        let d = self.x.add(&b).square().sub(&a).sub(&c).double();
        let e = a.double().add(&a);
        let f = e.square();
        let x3 = f.sub(&d.double());
        let y3 = e.mul(&d.sub(&x3)).sub(&c.double().double().double());
        let z3 = self.y.mul(&self.z).double();
        Point { x: x3, y: y3, z: z3 }
    }

    /// add-2007-bl, with the doubling and cancelling cases handled.
    pub fn add(&self, o: &Point) -> Point {
        if self.is_infinity() {
            return *o;
        }
        if o.is_infinity() {
            return *self;
        }
        let z1z1 = self.z.square();
        let z2z2 = o.z.square();
        let u1 = self.x.mul(&z2z2);
        let u2 = o.x.mul(&z1z1);
        let s1 = self.y.mul(&o.z).mul(&z2z2);
        let s2 = o.y.mul(&self.z).mul(&z1z1);
        let h = u2.sub(&u1);
        let r = s2.sub(&s1).double();
        if h.is_zero() {
            return if r.is_zero() { self.double() } else { Point::INFINITY };
        }
        let i = h.double().square();
        let j = h.mul(&i);
        let v = u1.mul(&i);
        let x3 = r.square().sub(&j).sub(&v.double());
        let y3 = r.mul(&v.sub(&x3)).sub(&s1.mul(&j).double());
        let z3 = self.z.add(&o.z).square().sub(&z1z1).sub(&z2z2).mul(&h);
        Point { x: x3, y: y3, z: z3 }
    }

    /// `[scalar]self` by fixed 4-bit windows. Variable time.
    pub fn mul(&self, scalar: &U256) -> Point {
        let mut table = [Point::INFINITY; 16];
        for i in 1..16 {
            table[i] = table[i - 1].add(self);
        }
        let mut acc = Point::INFINITY;
        for i in (0..64).rev() {
            acc = acc.double().double().double().double();
            acc = acc.add(&table[nibble(scalar, i)]);
        }
        acc
    }

    /// `[scalar]G` from a precomputed table of j·16^i·G.
    pub fn mul_generator(scalar: &U256) -> Point {
        static TABLE: OnceLock<Vec<[Point; 15]>> = OnceLock::new();
        let table = TABLE.get_or_init(|| {
            let mut rows = Vec::with_capacity(64);
            let mut power = Point::generator();
            for _ in 0..64 {
                let mut row = [power; 15];
                for j in 1..15 {
                    row[j] = row[j - 1].add(&power);
                }
                power = row[14].add(&power);
                rows.push(row);
            }
            rows
        });
        let mut acc = Point::INFINITY;
        for (i, row) in table.iter().enumerate() {
            let n = nibble(scalar, i);
            if n != 0 {
                acc = acc.add(&row[n - 1]);
            }
        }
        acc
    }
}

#[inline]
fn nibble(scalar: &U256, i: usize) -> usize {
    ((scalar[i / 16] >> (4 * (i % 16))) & 15) as usize
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modarith;

    #[test]
    fn small_multiples_match_known_points() {
        let g = Point::generator();
        assert!(Point::is_on_curve(&Fe(GX), &Fe(GY)));
        let (x2, _) = g.double().to_affine().unwrap();
        assert_eq!(
            modarith::to_be_bytes(&x2.0)[..8],
            [0xc6, 0x04, 0x7f, 0x94, 0x41, 0xed, 0x7d, 0x6d]
        );
        let mut naive = Point::INFINITY;
        for n in 0..40u64 {
            let s = [n, 0, 0, 0];
            assert_eq!(g.mul(&s).to_affine(), naive.to_affine(), "{n}");
            assert_eq!(Point::mul_generator(&s).to_affine(), naive.to_affine(), "{n}");
            naive = naive.add(&g);
        }
        let big = [0x1234_5678_9abc_def0, 7, u64::MAX, 0x0fff_ffff_ffff_ffff];
        assert_eq!(g.mul(&big).to_affine(), Point::mul_generator(&big).to_affine());
    }

    #[test]
    fn order_and_cancellation() {
        let n: U256 = [
            0xbfd2_5e8c_d036_4141,
            0xbaae_dce6_af48_a03b,
            0xffff_ffff_ffff_fffe,
            0xffff_ffff_ffff_ffff,
        ];
        assert!(Point::mul_generator(&n).is_infinity());
        let g = Point::generator();
        let (x, y) = g.to_affine().unwrap();
        let minus_g = Point::from_affine(x, y.neg());
        assert!(g.add(&minus_g).is_infinity());
        assert_eq!(Point::from_x(x, y.is_odd()).unwrap().to_affine(), Some((x, y)));
    }
}
