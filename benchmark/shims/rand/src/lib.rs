//! Offline stand-in for `rand` 0.8: the `RngCore`/`Rng`/`SeedableRng`
//! traits with the methods this workspace calls. Generators live in the
//! `rand_chacha` stand-in; there is deliberately no ambient
//! `thread_rng` — every consumer here seeds explicitly.

use std::ops::{Range, RangeInclusive};

/// A source of random words.
pub trait RngCore {
    fn next_u32(&mut self) -> u32;
    fn next_u64(&mut self) -> u64;
    fn fill_bytes(&mut self, dest: &mut [u8]);
}

impl<R: RngCore + ?Sized> RngCore for &mut R {
    fn next_u32(&mut self) -> u32 {
        (**self).next_u32()
    }
    fn next_u64(&mut self) -> u64 {
        (**self).next_u64()
    }
    fn fill_bytes(&mut self, dest: &mut [u8]) {
        (**self).fill_bytes(dest)
    }
}

/// A generator that can be built from a seed.
pub trait SeedableRng: Sized {
    type Seed: Sized + Default + AsMut<[u8]>;

    fn from_seed(seed: Self::Seed) -> Self;

    /// Expand a `u64` into a full seed with PCG32, as rand_core 0.6 does,
    /// so a given `u64` names the same stream as with the real crate.
    fn seed_from_u64(mut state: u64) -> Self {
        const MUL: u64 = 6364136223846793005;
        const INC: u64 = 11634580027462260723;
        let mut seed = Self::Seed::default();
        for chunk in seed.as_mut().chunks_mut(4) {
            state = state.wrapping_mul(MUL).wrapping_add(INC);
            let xorshifted = (((state >> 18) ^ state) >> 27) as u32;
            let rot = (state >> 59) as u32;
            let x = xorshifted.rotate_right(rot);
            chunk.copy_from_slice(&x.to_le_bytes()[..chunk.len()]);
        }
        Self::from_seed(seed)
    }
}

/// A type `Rng::gen` can produce.
pub trait Standard: Sized {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

macro_rules! standard_int {
    ($($t:ty => $via:ident),*) => {$(
        impl Standard for $t {
            #[inline]
            fn generate<R: RngCore + ?Sized>(rng: &mut R) -> $t {
                rng.$via() as $t
            }
        }
    )*};
}

standard_int!(u8 => next_u32, u16 => next_u32, u32 => next_u32, u64 => next_u64,
              usize => next_u64, i8 => next_u32, i16 => next_u32, i32 => next_u32,
              i64 => next_u64, isize => next_u64);

impl Standard for u128 {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> u128 {
        let lo = u128::from(rng.next_u64());
        let hi = u128::from(rng.next_u64());
        (hi << 64) | lo
    }
}

impl Standard for bool {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> bool {
        (rng.next_u32() as i32) < 0
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

impl Standard for f32 {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> f32 {
        (rng.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }
}

impl<const N: usize> Standard for [u8; N] {
    fn generate<R: RngCore + ?Sized>(rng: &mut R) -> [u8; N] {
        let mut out = [0u8; N];
        rng.fill_bytes(&mut out);
        out
    }
}

/// A range `Rng::gen_range` can sample from.
pub trait SampleRange<T> {
    fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> T;
}

/// Uniform in `[0, span)` by widening multiply with rejection (unbiased).
#[inline]
fn below<R: RngCore + ?Sized>(rng: &mut R, span: u64) -> u64 {
    debug_assert!(span > 0);
    let zone = (span << span.leading_zeros()).wrapping_sub(1);
    loop {
        let wide = u128::from(rng.next_u64()) * u128::from(span);
        if (wide as u64) <= zone {
            return (wide >> 64) as u64;
        }
    }
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            #[inline]
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                let span = (self.end as i128 - self.start as i128) as u64;
                (self.start as i128 + below(rng, span) as i128) as $t
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            #[inline]
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = self.into_inner();
                assert!(start <= end, "cannot sample empty range");
                let span = (end as i128 - start as i128 + 1) as u128;
                if span > u128::from(u64::MAX) {
                    return rng.next_u64() as $t;
                }
                (start as i128 + below(rng, span as u64) as i128) as $t
            }
        }
    )*};
}

range_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

macro_rules! range_float {
    ($($t:ty),*) => {$(
        impl SampleRange<$t> for Range<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "cannot sample empty range");
                loop {
                    let v = self.start + (self.end - self.start) * <$t as Standard>::generate(rng);
                    if v < self.end {
                        return v;
                    }
                }
            }
        }
        impl SampleRange<$t> for RangeInclusive<$t> {
            fn sample<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                let (start, end) = self.into_inner();
                assert!(start <= end, "cannot sample empty range");
                start + (end - start) * <$t as Standard>::generate(rng)
            }
        }
    )*};
}

range_float!(f32, f64);

/// A buffer `Rng::fill` can fill.
pub trait Fill {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R);
}

impl Fill for [u8] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self);
    }
}

impl<const N: usize> Fill for [u8; N] {
    fn fill_from<R: RngCore + ?Sized>(&mut self, rng: &mut R) {
        rng.fill_bytes(self);
    }
}

/// Convenience methods on every [`RngCore`].
pub trait Rng: RngCore {
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::generate(self)
    }

    #[inline]
    fn gen_range<T, S: SampleRange<T>>(&mut self, range: S) -> T {
        range.sample(self)
    }

    /// `true` with probability `p` (a 64-bit Bernoulli threshold, like rand's).
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "probability {p} outside [0, 1]");
        if p == 1.0 {
            return true;
        }
        let threshold = (p * (1u128 << 64) as f64) as u64;
        self.next_u64() < threshold
    }

    #[inline]
    fn fill<T: Fill + ?Sized>(&mut self, dest: &mut T) {
        dest.fill_from(self);
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

#[cfg(test)]
mod tests {
    use super::*;

    /// SplitMix64: enough of a generator to exercise the adaptors.
    struct Mix(u64);

    impl RngCore for Mix {
        fn next_u32(&mut self) -> u32 {
            (self.next_u64() >> 32) as u32
        }
        fn next_u64(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
        fn fill_bytes(&mut self, dest: &mut [u8]) {
            for chunk in dest.chunks_mut(8) {
                let bytes = self.next_u64().to_le_bytes();
                chunk.copy_from_slice(&bytes[..chunk.len()]);
            }
        }
    }

    #[test]
    fn ranges_stay_in_bounds_and_cover_them() {
        let mut rng = Mix(1);
        let mut seen = [false; 5];
        for _ in 0..1000 {
            let v = rng.gen_range(2..=6u32);
            assert!((2..=6).contains(&v));
            seen[(v - 2) as usize] = true;
            let w = rng.gen_range(-3..3i64);
            assert!((-3..3).contains(&w));
            let f = rng.gen_range(f64::EPSILON..1.0);
            assert!((f64::EPSILON..1.0).contains(&f));
            let u = rng.gen_range(0..7usize);
            assert!(u < 7);
        }
        assert!(seen.iter().all(|&s| s));
        assert_eq!(rng.gen_range(5..=5u8), 5);
        let _: u64 = rng.gen_range(0..=u64::MAX);
    }

    #[test]
    fn gen_bool_tracks_its_probability() {
        let mut rng = Mix(2);
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
        assert!((0..100).all(|_| !rng.gen_bool(0.0)));
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.25)).count();
        assert!((24_000..26_000).contains(&hits), "{hits}");
    }

    #[test]
    fn fill_and_gen_produce_varied_output() {
        let mut rng = Mix(3);
        let mut buf = [0u8; 37];
        rng.fill(&mut buf[..]);
        assert!(buf.iter().any(|&b| b != 0));
        let a: u64 = rng.gen();
        let b: u64 = rng.gen();
        assert_ne!(a, b);
        let f: f64 = rng.gen();
        assert!((0.0..1.0).contains(&f));
    }
}
