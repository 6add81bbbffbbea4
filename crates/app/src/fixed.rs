//! Q32.32 fixed-point arithmetic for deterministic workload math.
//!
//! R4 (`clippy.toml`) bans floats in replicated/deterministic state: float
//! rounding is not portably bit-identical across platforms and
//! toolchains, and the YCSB generator's zipfian tables feed the
//! request stream every replica must agree on. Everything here is
//! integer-only — including the constants: the `exp2` table is built
//! in a `const fn` by repeated integer square roots, so no value in
//! this module ever passes through a float.
//!
//! Representation: `u64` with 32 fractional bits (`ONE == 1 << 32`);
//! logarithms/exponents use `i64` with the same scale so they can go
//! negative. Precision is ~2.3e-10 per operation — far beyond what a
//! workload sampler needs.

/// Number of fractional bits.
pub const FRAC: u32 = 32;

/// 1.0 in Q32.32.
pub const ONE: u64 = 1 << FRAC;

/// `num / den` as Q32.32, usable in `const` contexts
/// (e.g. `fp_ratio(99, 100)` for 0.99).
pub const fn fp_ratio(num: u64, den: u64) -> u64 {
    (((num as u128) << FRAC) / den as u128) as u64
}

/// Fixed-point multiply.
pub fn fp_mul(a: u64, b: u64) -> u64 {
    ((a as u128 * b as u128) >> FRAC) as u64
}

/// Fixed-point divide (`b` must be nonzero).
pub fn fp_div(a: u64, b: u64) -> u64 {
    (((a as u128) << FRAC) / b as u128) as u64
}

/// Integer square root (Newton's method); `const` so the exp2 table
/// below can be built at compile time.
const fn isqrt_u128(v: u128) -> u128 {
    if v < 2 {
        return v;
    }
    let mut x = 1u128 << ((128 - v.leading_zeros()) / 2 + 1);
    loop {
        let y = (x + v / x) / 2;
        if y >= x {
            return x;
        }
        x = y;
    }
}

/// Fixed-point square root: `sqrt(x)` in Q32.32.
const fn fp_sqrt(x: u64) -> u64 {
    isqrt_u128((x as u128) << FRAC) as u64
}

/// `EXP2_TAB[k] = 2^(2^-(k+1))` in Q32.32: sqrt(2), sqrt(sqrt(2)), …
/// Built by repeated integer square roots of 2.0 — no float constants.
const EXP2_TAB: [u64; FRAC as usize] = {
    let mut t = [0u64; FRAC as usize];
    let mut prev = 2 * ONE;
    let mut k = 0;
    while k < FRAC as usize {
        prev = fp_sqrt(prev);
        t[k] = prev;
        k += 1;
    }
    t
};

/// `log2(x)` for `x > 0`, as signed Q.32 (negative for `x < 1.0`).
/// `x == 0` is clamped to the smallest positive value.
pub fn fp_log2(x: u64) -> i64 {
    let x = x.max(1);
    let msb = 63 - x.leading_zeros() as i64;
    let int_part = msb - FRAC as i64;
    // Normalize the mantissa to [1, 2) in Q32.32.
    let m = if msb >= FRAC as i64 {
        x >> (msb - FRAC as i64)
    } else {
        x << (FRAC as i64 - msb)
    };
    // Fractional bits by repeated squaring: square the mantissa; if it
    // reaches [2, 4) the next fraction bit is 1 and we renormalize.
    let mut m = m as u128;
    let mut frac: i64 = 0;
    let two = (2u128) << FRAC;
    for _ in 0..FRAC {
        m = (m * m) >> FRAC;
        frac <<= 1;
        if m >= two {
            frac |= 1;
            m >>= 1;
        }
    }
    (int_part << FRAC) + frac
}

/// `2^y` for signed Q.32 `y`, as Q32.32. Saturates at the type's range.
pub fn fp_exp2(y: i64) -> u64 {
    let int = y >> FRAC; // floor
    let frac = (y - (int << FRAC)) as u64; // in [0, ONE)
    if int >= 31 {
        return u64::MAX;
    }
    if int < -(FRAC as i64) {
        return 0;
    }
    // 2^frac: multiply in the table entry for each set fraction bit.
    let mut r: u128 = ONE as u128;
    for (k, &t) in EXP2_TAB.iter().enumerate() {
        if (frac >> (FRAC as usize - 1 - k)) & 1 == 1 {
            r = (r * t as u128) >> FRAC;
        }
    }
    if int >= 0 {
        (r << int).min(u64::MAX as u128) as u64
    } else {
        (r >> -int) as u64
    }
}

/// `x^y` for `x > 0` and non-negative exponent `y`, both Q32.32:
/// `exp2(y * log2(x))`. Handles `x < 1.0` (negative log) exactly the
/// way the zipfian rejection step needs.
pub fn fp_pow(x: u64, y: u64) -> u64 {
    let l = fp_log2(x) as i128;
    fp_exp2(((l * y as i128) >> FRAC) as i64)
}

// The float ban (clippy `disallowed_types`, this crate's `clippy.toml`)
// is lifted for the tests: they pin the integer implementation against
// libm and never run on a replica.
#[cfg(test)]
#[allow(clippy::disallowed_types)]
mod tests {
    use super::*;

    fn close(fp: u64, f: f64, tol: f64) {
        let got = fp as f64 / ONE as f64;
        assert!(
            (got - f).abs() <= tol,
            "fixed-point {got} vs float {f} (tol {tol})"
        );
    }

    #[test]
    fn ratio_mul_div_roundtrip() {
        assert_eq!(fp_ratio(1, 2), ONE / 2);
        assert_eq!(fp_mul(fp_ratio(3, 2), 2 * ONE), 3 * ONE);
        assert_eq!(fp_div(3 * ONE, 2 * ONE), fp_ratio(3, 2));
    }

    #[test]
    fn exp2_table_is_exact_roots_of_two() {
        close(EXP2_TAB[0], 2f64.sqrt(), 1e-9);
        close(EXP2_TAB[1], 2f64.sqrt().sqrt(), 1e-9);
        close(EXP2_TAB[31], 1.0, 1e-9);
    }

    #[test]
    fn log2_matches_float() {
        for &(num, den) in &[(8u64, 1u64), (3, 1), (1, 1), (1, 4), (99, 100)] {
            let x = fp_ratio(num, den);
            let want = (num as f64 / den as f64).log2();
            let got = fp_log2(x) as f64 / ONE as f64;
            assert!(
                (got - want).abs() < 1e-8,
                "log2({num}/{den}): {got} vs {want}"
            );
        }
    }

    #[test]
    fn exp2_matches_float() {
        for &(num, den, sign) in &[(1u64, 2u64, 1i64), (3, 4, -1), (5, 1, 1), (17, 10, -1)] {
            let y = sign * fp_ratio(num, den) as i64;
            let want = 2f64.powf(sign as f64 * num as f64 / den as f64);
            close(fp_exp2(y), want, want * 1e-8 + 1e-8);
        }
    }

    #[test]
    fn pow_matches_float_in_zipfian_range() {
        // The shapes the YCSB sampler needs: x in (0, 1], big and small
        // exponents, including alpha = 100 at theta = 0.99.
        for &(xn, xd, yn, yd) in &[
            (9u64, 10u64, 100u64, 1u64),
            (999, 1000, 100, 1),
            (1, 2, 99, 100),
            (1, 50_000, 1, 100),
            (7, 8, 1, 1),
        ] {
            let want = (xn as f64 / xd as f64).powf(yn as f64 / yd as f64);
            let got = fp_pow(fp_ratio(xn, xd), fp_ratio(yn, yd));
            close(got, want, want * 1e-6 + 1e-7);
        }
    }

    #[test]
    fn exp2_saturates() {
        assert_eq!(fp_exp2(40 * ONE as i64), u64::MAX);
        assert_eq!(fp_exp2(-70 * (ONE as i64)), 0);
    }
}
