//! The arithmetic behind the reported numbers: percentiles, the
//! slice-median tail estimator, quartiles and failure accounting.

/// The `q`-quantile (0 ≤ q ≤ 1) of `sorted` by the nearest-rank rule:
/// the smallest sample with at least `q·n` samples at or below it.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]));
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// [`percentile`] of unsorted floats.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median of floats (mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// First and third quartile by the exclusive method, which is what
/// Python's `statistics.quantiles(values, n=4)` computes by default.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.total_cmp(b));
    let n = v.len();
    let at = |k: usize| {
        // Cut point k of 4 sits at position k(n+1)/4, 1-based, clamped
        // to the sample range, with linear interpolation between
        // neighbours.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    (at(1), at(3))
}

/// One completed operation as the measurement sees it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sample {
    /// Completion time, ns, in the clock the window is expressed in.
    pub completed_at: u64,
    pub latency_ns: u64,
}

/// The tail estimate of a measured window.
#[derive(Clone, Debug, PartialEq)]
pub struct SliceTail {
    /// Median of the per-slice 99th percentiles, ns.
    pub p99_ns: u64,
    /// Samples in the emptiest slice.
    pub min_slice_samples: usize,
    pub slices: usize,
}

/// Cut `[start, end)` into `slices` equal parts, take the 99th percentile
/// of the samples completing in each, and report the median of those: a
/// tail figure that one scheduling hiccup (which lands in one slice)
/// cannot move. `None` if some slice is empty.
pub fn slice_median_p99(samples: &[Sample], start: u64, end: u64, slices: usize) -> Option<SliceTail> {
    assert!(slices > 0 && end > start);
    let width = (end - start).div_ceil(slices as u64);
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); slices];
    for s in samples {
        if s.completed_at >= start && s.completed_at < end {
            let i = ((s.completed_at - start) / width) as usize;
            buckets[i.min(slices - 1)].push(s.latency_ns);
        }
    }
    let min_slice_samples = buckets.iter().map(Vec::len).min().unwrap_or(0);
    if min_slice_samples == 0 {
        return None;
    }
    let mut tails: Vec<u64> = buckets
        .iter_mut()
        .map(|b| {
            b.sort_unstable();
            percentile(b, 0.99)
        })
        .collect();
    tails.sort_unstable();
    Some(SliceTail {
        p99_ns: percentile(&tails, 0.5),
        min_slice_samples,
        slices,
    })
}

/// What one client contributed to the failure count.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ClientOutcome {
    /// Completions in the measured window.
    pub completed: u64,
    /// Of those, rejected by `Workload::check`.
    pub rejected: u64,
    /// Operations issued and not completed when the run stopped.
    pub outstanding: u64,
    /// The client completed nothing in the final second of the window.
    pub stalled: bool,
}

/// Attempted and failed operations of a run.
///
/// attempted = completed + outstanding at stop. failed = completions the
/// workload's check rejected + operations outstanding on a *stalled*
/// client. (A healthy closed-loop client always has a batch in flight at
/// the instant it is stopped; that is not a failure.)
pub fn failure_account(clients: &[ClientOutcome]) -> (u64, u64) {
    let mut attempted = 0;
    let mut failed = 0;
    for c in clients {
        attempted += c.completed + c.outstanding;
        failed += c.rejected;
        if c.stalled {
            failed += c.outstanding;
        }
    }
    (attempted, failed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(percentile(&[1, 2, 3], 0.5), 2);
        assert_eq!(percentile(&[1, 2, 3, 4], 0.5), 2);
        // Of ten values: the third smallest and the third largest.
        let v: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!((quantile(&v, 0.25), quantile(&v, 0.75)), (3.0, 8.0));
        assert_eq!((quantile(&[5.0, 2.0], 0.25), quantile(&[5.0, 2.0], 0.75)), (2.0, 5.0));
        assert_eq!(quantile(&[7.0], 0.75), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 2.75).abs() < 1e-12 && (q3 - 8.25).abs() < 1e-12, "{q1} {q3}");
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        assert_eq!(quartiles(&[10.0, 20.0]), (7.5, 22.5));
    }

    #[test]
    fn slice_median_ignores_one_bad_slice() {
        // Ten slices of 100 samples at 10 µs; slice 3 has a stall that
        // pushes its whole tail to 5 ms.
        let mut samples = Vec::new();
        for slice in 0..10u64 {
            for i in 0..100u64 {
                let slow = slice == 3 && i >= 50;
                samples.push(Sample {
                    completed_at: 1_000 + slice * 100 + i,
                    latency_ns: if slow { 5_000_000 } else { 10_000 },
                });
            }
        }
        let tail = slice_median_p99(&samples, 1_000, 2_000, 10).unwrap();
        assert_eq!(tail.p99_ns, 10_000);
        assert_eq!(tail.min_slice_samples, 100);
        // Samples outside the window are not counted; an empty slice voids
        // the estimate.
        assert!(slice_median_p99(&samples, 1_000, 3_000, 10).is_none());
        let one = [Sample {
            completed_at: 5,
            latency_ns: 9,
        }];
        assert_eq!(slice_median_p99(&one, 0, 10, 1).unwrap().p99_ns, 9);
    }

    #[test]
    fn failures_count_rejections_and_stalled_clients_only() {
        let healthy = ClientOutcome {
            completed: 1000,
            rejected: 0,
            outstanding: 1,
            stalled: false,
        };
        let corrupt = ClientOutcome {
            completed: 500,
            rejected: 3,
            outstanding: 1,
            stalled: false,
        };
        let stalled = ClientOutcome {
            completed: 200,
            rejected: 0,
            outstanding: 16,
            stalled: true,
        };
        assert_eq!(failure_account(&[healthy]), (1001, 0));
        assert_eq!(failure_account(&[healthy, corrupt]), (1502, 3));
        assert_eq!(failure_account(&[healthy, corrupt, stalled]), (1718, 19));
        assert_eq!(failure_account(&[]), (0, 0));
    }
}
