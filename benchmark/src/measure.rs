//! From completions and slice edges to the end-to-end metrics, the same
//! way for both executors.
//!
//! The measured window is cut into [`SLICES`] equal slices. Throughput,
//! CPU per operation and median latency are computed per slice and the
//! *best-quartile slice* is reported: of ten slices, the third best.
//! Whatever disturbs a slice on a shared machine (a neighbour's burst on a
//! core, a slow `fdatasync`) only ever makes it slower, so the better
//! slices are the steadier estimate of what the code can do, while a change
//! that holds for the whole run moves every slice. Over ten runs it spreads
//! about half as much as the median slice, and on the simulator a quarter
//! as much: there a seed's handful of gap agreements (each most of a second
//! of wall time at n = 100) falls into one to five of the ten slices.

use crate::outputs::Completions;
use crate::procfs;
use crate::report::RunReport;
use crate::stats::{self, Sample, SliceTail};
use std::time::Instant;

/// Slices per measured window. Not more: on the simulator a slice of the
/// default 20 s window is 8 ms of simulated time, two sync intervals of 128
/// slots, and a slice that holds less than one alternates between a third
/// and the whole of its neighbours' rate.
pub const SLICES: usize = 10;

/// One boundary between slices.
#[derive(Clone, Copy, Debug)]
pub struct Edge {
    /// The boundary in the clock the samples are stamped with (client
    /// clock on UDP, virtual time on the simulator).
    pub clock_ns: u64,
    pub wall: Instant,
    /// Process CPU time so far.
    pub cpu_ns: u64,
    /// Resident set size now.
    pub rss_bytes: u64,
}

impl Edge {
    pub fn now(clock_ns: u64) -> Edge {
        Edge {
            clock_ns,
            wall: Instant::now(),
            cpu_ns: procfs::process_cpu_ns(),
            rss_bytes: procfs::rss_bytes(),
        }
    }
}

/// The per-slice figures behind the reported quartiles.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub ops: u64,
    pub ops_per_s: f64,
    pub latency_p50_ns: f64,
    pub cpu_ns_per_op: f64,
    /// Growth of the resident set over the whole window ÷ operations.
    pub mem_bytes_per_op: f64,
    pub slice_ops_per_s: Vec<f64>,
}

/// A slice that completed nothing counts as a rate of 0 and has no latency
/// or CPU figure. `None` if the whole window completed nothing.
pub fn summarize(samples: &[Sample], edges: &[Edge]) -> Option<Summary> {
    let mut rates = Vec::new();
    let mut medians = Vec::new();
    let mut cpu = Vec::new();
    let mut ops = 0;
    for pair in edges.windows(2) {
        let (from, to) = (&pair[0], &pair[1]);
        let mut latencies: Vec<u64> = samples
            .iter()
            .filter(|s| s.completed_at >= from.clock_ns && s.completed_at < to.clock_ns)
            .map(|s| s.latency_ns)
            .collect();
        let n = latencies.len() as f64;
        rates.push(n / (to.wall - from.wall).as_secs_f64());
        if latencies.is_empty() {
            continue;
        }
        latencies.sort_unstable();
        ops += latencies.len() as u64;
        medians.push(stats::percentile(&latencies, 0.5) as f64);
        cpu.push((to.cpu_ns - from.cpu_ns) as f64 / n);
    }
    if ops == 0 {
        return None;
    }
    Some(Summary {
        ops,
        ops_per_s: stats::quantile(&rates, 0.75),
        latency_p50_ns: stats::quantile(&medians, 0.25),
        cpu_ns_per_op: stats::quantile(&cpu, 0.25),
        mem_bytes_per_op: edges[edges.len() - 1].rss_bytes.saturating_sub(edges[0].rss_bytes) as f64 / ops as f64,
        slice_ops_per_s: rates,
    })
}

/// The tail of the window: the median of per-slice 99th percentiles. A
/// slice needs a thousand samples to have ten beyond its 99th percentile,
/// so there are fewer, wider slices when operations are few. Reported by
/// the traced run as `neobft.client_latency_p99_us` and printed by every
/// run; not an end-to-end metric because on a shared machine its
/// run-to-run spread exceeds any bound the driver allows (README).
pub fn tail_p99(samples: &[Sample], edges: &[Edge]) -> Option<SliceTail> {
    let (from, to) = (edges[0].clock_ns, edges[edges.len() - 1].clock_ns);
    let in_window = samples
        .iter()
        .filter(|s| s.completed_at >= from && s.completed_at < to)
        .count();
    stats::slice_median_p99(samples, from, to, (in_window / 1000).clamp(1, SLICES))
}

/// Set the four end-to-end metrics, the failure counts and the notes that
/// explain them.
pub fn end_to_end(report: &mut RunReport, done: &Completions, edges: &[Edge], setups_s: &[f64]) {
    let samples = &done.samples;
    let (attempted, failed) = stats::failure_account(&done.outcomes);
    report.attempted = attempted;
    report.failed = failed;
    let Some(summary) = summarize(samples, edges) else {
        report.check("operations_committed", false, "the window completed nothing");
        return;
    };
    let Some(tail) = tail_p99(&done.samples, edges) else {
        report.check(
            "operations_committed",
            false,
            "a tail slice of the window completed nothing",
        );
        return;
    };
    report.set("ops_per_s", summary.ops_per_s, "ops/s");
    report.set("latency_p50_us", summary.latency_p50_ns / 1e3, "us");
    report.set("mem_bytes_per_op", summary.mem_bytes_per_op, "B/op");
    report.set("setup_s", stats::median(setups_s), "s");
    let wall_s = (edges[edges.len() - 1].wall - edges[0].wall).as_secs_f64();
    report.notes.push(format!(
        "{} operations in {wall_s:.3} s wall; peak RSS {:.1} MiB; best quartiles of {} slices (slice ops/s {:?})",
        summary.ops,
        procfs::peak_rss_mib(),
        edges.len() - 1,
        summary
            .slice_ops_per_s
            .iter()
            .map(|r| r.round() as u64)
            .collect::<Vec<_>>(),
    ));
    report.notes.push(format!(
        "latency p99 {:.1} us (median of {} slices of at least {} samples) and CPU {:.1} us/op (best-quartile \
         slice): per-layer metrics, not held to a bound",
        tail.p99_ns as f64 / 1e3,
        tail.slices,
        tail.min_slice_samples,
        summary.cpu_ns_per_op / 1e3,
    ));
    report.notes.push(format!(
        "failed_share {:.6} ({failed} of {attempted}); set-ups {:?} s",
        report.failed_share(),
        setups_s.iter().map(|s| format!("{s:.4}")).collect::<Vec<_>>()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::ClientOutcome;
    use std::time::Duration;

    /// Edges one second of wall time and 1000 clock ns apart, 1 ms of CPU
    /// and 4 KiB of memory per slice.
    fn edges(n: usize) -> Vec<Edge> {
        let t0 = Instant::now();
        (0..=n)
            .map(|i| Edge {
                clock_ns: 1000 * i as u64,
                wall: t0 + Duration::from_secs(i as u64),
                cpu_ns: 1_000_000 * i as u64,
                rss_bytes: 4096 * i as u64,
            })
            .collect()
    }

    #[test]
    fn the_third_best_of_ten_slices_is_reported() {
        // Three slices complete 100 operations each at 50 ns; the other
        // seven are disturbed: 10 operations at 900 ns.
        let mut samples = Vec::new();
        for slice in 0..10u64 {
            let (n, latency) = if slice % 4 == 1 { (100, 50) } else { (10, 900) };
            for i in 0..n {
                samples.push(Sample {
                    completed_at: slice * 1000 + i,
                    latency_ns: latency,
                });
            }
        }
        let s = summarize(&samples, &edges(10)).unwrap();
        assert_eq!(s.ops, 370);
        assert_eq!(s.ops_per_s, 100.0);
        assert_eq!(s.latency_p50_ns, 50.0);
        assert_eq!(s.cpu_ns_per_op, 10_000.0);
        assert_eq!(s.mem_bytes_per_op, 40_960.0 / 370.0);
        assert_eq!(s.slice_ops_per_s[4], 10.0);
        // With one good slice fewer the third best is a disturbed one.
        samples.retain(|s| s.completed_at / 1000 != 9);
        assert_eq!(summarize(&samples, &edges(10)).unwrap().ops_per_s, 10.0);
        // An empty slice is a rate of 0; an empty window has no summary.
        let s = summarize(&samples, &edges(10)).unwrap();
        assert_eq!((s.ops, s.slice_ops_per_s[9], s.latency_p50_ns), (270, 0.0, 900.0));
        assert!(summarize(&[], &edges(10)).is_none());
    }

    #[test]
    fn metrics_and_failure_counts_land_in_the_report() {
        let samples: Vec<Sample> = (0..2000u64)
            .map(|i| Sample {
                completed_at: i,
                latency_ns: 40 + i % 7,
            })
            .collect();
        let outcomes = [ClientOutcome {
            completed: 2000,
            rejected: 2,
            outstanding: 1,
            stalled: false,
        }];
        let mut report = RunReport {
            workload: "t".into(),
            seed: 0,
            seconds: 2,
            traced: false,
            attempted: 0,
            failed: 0,
            metrics: Default::default(),
            checks: Vec::new(),
            notes: Vec::new(),
        };
        let done = Completions {
            samples,
            outcomes: outcomes.to_vec(),
            total_completed: 2000,
            total_retries: 0,
        };
        end_to_end(&mut report, &done, &edges(2), &[0.3, 0.1, 0.2]);
        assert_eq!((report.attempted, report.failed), (2001, 2));
        assert_eq!(report.metrics["ops_per_s"].value, 1000.0);
        assert_eq!(report.metrics["setup_s"].value, 0.2);
        assert_eq!(report.metrics["mem_bytes_per_op"].value, 8192.0 / 2000.0);
        assert_eq!(report.metrics.len(), 4);
        assert!(report.correct());
    }
}
