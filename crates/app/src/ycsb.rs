//! YCSB workload generation (§6.5: "YCSB workload A with 100K records and
//! 128-bytes fields").
//!
//! Workload A is 50% reads / 50% updates over a zipfian key-popularity
//! distribution. The zipfian sampler is the standard Gray et al. rejection
//! method used by the YCSB reference implementation, computed in Q32.32
//! fixed point ([`crate::fixed`]) so the generator carries no floats
//! (R4, `clippy.toml`) and the op stream is bit-identical on every platform.

use crate::fixed::{fp_div, fp_exp2, fp_log2, fp_mul, fp_pow, fp_ratio, FRAC, ONE};
use crate::kv::KvOp;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Workload parameters. Fractions are Q32.32 fixed point (`fixed::ONE`
/// is 1.0); build them with [`crate::fixed::fp_ratio`].
#[derive(Clone, Copy, Debug, Serialize, Deserialize, PartialEq)]
pub struct YcsbConfig {
    /// Records in the table.
    pub record_count: usize,
    /// Value size in bytes.
    pub field_len: usize,
    /// Fraction of reads (the rest are updates), Q32.32. Workload A = 0.5.
    pub read_proportion: u64,
    /// Zipfian skew constant θ, Q32.32, must be < 1.0 (YCSB default 0.99).
    pub theta: u64,
}

impl YcsbConfig {
    /// YCSB workload A at the paper's scale.
    pub const WORKLOAD_A: YcsbConfig = YcsbConfig {
        record_count: 100_000,
        field_len: 128,
        read_proportion: fp_ratio(1, 2),
        theta: fp_ratio(99, 100),
    };

    /// Workload B (95% reads) for extension experiments.
    pub const WORKLOAD_B: YcsbConfig = YcsbConfig {
        record_count: 100_000,
        field_len: 128,
        read_proportion: fp_ratio(95, 100),
        theta: fp_ratio(99, 100),
    };
}

/// Deterministic YCSB operation stream.
pub struct YcsbGenerator {
    cfg: YcsbConfig,
    rng: ChaCha8Rng,
    // Zipfian sampler state (Gray's method), Q32.32.
    zeta_n: u64,
    alpha: u64,
    eta: u64,
    zeta2: u64,
}

/// Partial zeta sum `Σ_{i=1..n} 1/i^θ` in Q32.32.
fn zeta(n: usize, theta: u64) -> u64 {
    let mut sum = 0u64;
    for i in 1..=n {
        // 1/i^θ = 2^(−θ·log2 i)
        let l = fp_log2((i as u64) << FRAC) as i128;
        sum += fp_exp2((-(l * theta as i128) >> FRAC) as i64);
    }
    sum
}

impl YcsbGenerator {
    /// A generator with the given seed (same seed → same op stream).
    pub fn new(cfg: YcsbConfig, seed: u64) -> Self {
        assert!(cfg.theta < ONE, "zipfian θ must be < 1.0");
        let zeta_n = zeta(cfg.record_count, cfg.theta);
        let zeta2 = zeta(2, cfg.theta);
        let alpha = fp_div(ONE, ONE - cfg.theta);
        let num = ONE - fp_pow(fp_ratio(2, cfg.record_count as u64), ONE - cfg.theta);
        let den = ONE - fp_div(zeta2, zeta_n);
        let eta = fp_div(num, den);
        YcsbGenerator {
            cfg,
            rng: ChaCha8Rng::seed_from_u64(seed),
            zeta_n,
            alpha,
            eta,
            zeta2,
        }
    }

    /// The configuration driving this generator.
    pub fn config(&self) -> YcsbConfig {
        self.cfg
    }

    /// A uniform Q32.32 draw in [0, 1.0). One u64 from the RNG, same
    /// draw count as the old `gen::<f64>()` — seeds keep their streams.
    fn uniform(&mut self) -> u64 {
        self.rng.gen::<u64>() >> FRAC
    }

    /// Draw a zipfian-distributed record index in `[0, record_count)`.
    pub fn next_key_index(&mut self) -> usize {
        let u = self.uniform();
        let uz = fp_mul(u, self.zeta_n);
        if uz < ONE {
            return 0;
        }
        // zeta2 = 1 + 2^−θ, so this is the textbook `uz < 1 + 0.5^θ`.
        if uz < self.zeta2 {
            return 1;
        }
        // idx = n · (η·u − η + 1)^α; the base is in (0, 1], clamped away
        // from zero so log2 stays defined.
        let base = (ONE + fp_mul(self.eta, u)).saturating_sub(self.eta).max(1);
        let idx =
            ((self.cfg.record_count as u128 * fp_pow(base, self.alpha) as u128) >> FRAC) as usize;
        idx.min(self.cfg.record_count - 1)
    }

    /// Draw the next operation.
    pub fn next_op(&mut self) -> KvOp {
        let key = format!("user{}", self.next_key_index());
        if self.uniform() < self.cfg.read_proportion {
            KvOp::Get { key }
        } else {
            let mut value = vec![0u8; self.cfg.field_len];
            self.rng.fill(&mut value[..]);
            KvOp::Put { key, value }
        }
    }

    /// Draw the next operation as request-payload bytes.
    pub fn next_payload(&mut self) -> Vec<u8> {
        self.next_op().to_bytes()
    }

    /// Zeta(2, θ) in Q32.32 — exposed for the distribution tests.
    pub fn zeta2(&self) -> u64 {
        self.zeta2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> YcsbConfig {
        YcsbConfig {
            record_count: 1000,
            field_len: 16,
            read_proportion: fp_ratio(1, 2),
            theta: fp_ratio(99, 100),
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let ops1: Vec<_> = {
            let mut g = YcsbGenerator::new(small(), 42);
            (0..100).map(|_| g.next_payload()).collect()
        };
        let ops2: Vec<_> = {
            let mut g = YcsbGenerator::new(small(), 42);
            (0..100).map(|_| g.next_payload()).collect()
        };
        assert_eq!(ops1, ops2);
        let ops3: Vec<_> = {
            let mut g = YcsbGenerator::new(small(), 43);
            (0..100).map(|_| g.next_payload()).collect()
        };
        assert_ne!(ops1, ops3);
    }

    #[test]
    #[allow(clippy::disallowed_types)] // the f64 reference, test-only
    fn zipfian_tables_match_float_reference() {
        // The fixed-point sampler state vs the f64 math it replaced.
        let g = YcsbGenerator::new(small(), 1);
        let theta = 0.99f64;
        let zeta_n: f64 = (1..=1000).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2 = 1.0 + 0.5f64.powf(theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0f64 / 1000.0).powf(1.0 - theta)) / (1.0 - zeta2 / zeta_n);
        let as_f = |x: u64| x as f64 / ONE as f64;
        assert!((as_f(g.zeta_n) - zeta_n).abs() < 1e-4);
        assert!((as_f(g.zeta2) - zeta2).abs() < 1e-6);
        assert!((as_f(g.alpha) - alpha).abs() < 1e-4);
        assert!((as_f(g.eta) - eta).abs() < 1e-4);
    }

    #[test]
    fn read_write_mix_matches_proportion() {
        let mut g = YcsbGenerator::new(small(), 1);
        let n = 10_000;
        let reads = (0..n)
            .filter(|_| matches!(g.next_op(), KvOp::Get { .. }))
            .count();
        assert!((4_700..5_300).contains(&reads), "≈50% reads, got {reads}");
    }

    #[test]
    fn workload_b_is_read_heavy() {
        let mut g = YcsbGenerator::new(
            YcsbConfig {
                record_count: 1000,
                ..YcsbConfig::WORKLOAD_B
            },
            1,
        );
        let n = 10_000;
        let reads = (0..n)
            .filter(|_| matches!(g.next_op(), KvOp::Get { .. }))
            .count();
        assert!(reads > 9_200, "≥92% of {n} reads, got {reads}");
    }

    #[test]
    fn keys_are_zipfian_skewed() {
        let mut g = YcsbGenerator::new(small(), 7);
        let n = 50_000;
        let mut counts = vec![0u32; 1000];
        for _ in 0..n {
            counts[g.next_key_index()] += 1;
        }
        // The most popular key should dwarf the median key.
        let hottest = *counts.iter().max().unwrap();
        let mut sorted = counts.clone();
        sorted.sort_unstable();
        let median = sorted[500];
        assert!(
            hottest > median.max(1) * 20,
            "zipfian skew: hottest {hottest} vs median {median}"
        );
        // But every index stays in range (no panic already proves ≤ 999).
        assert!(counts.iter().sum::<u32>() == n);
    }

    #[test]
    fn keys_reference_loaded_records() {
        let mut g = YcsbGenerator::new(small(), 3);
        for _ in 0..1000 {
            match g.next_op() {
                KvOp::Get { key } | KvOp::Put { key, .. } => {
                    let idx: usize = key.strip_prefix("user").unwrap().parse().unwrap();
                    assert!(idx < 1000);
                }
                other => panic!("workload A only reads/updates, got {other:?}"),
            }
        }
    }

    #[test]
    fn update_values_have_configured_length() {
        let mut g = YcsbGenerator::new(small(), 5);
        for _ in 0..100 {
            if let KvOp::Put { value, .. } = g.next_op() {
                assert_eq!(value.len(), 16);
                return;
            }
        }
        panic!("no update drawn in 100 ops");
    }
}
