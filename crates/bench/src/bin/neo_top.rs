//! `neo-top` — live operator console over the telemetry plane.
//!
//! Two sources, one input type — a list of [`NodeReport`]s per sample:
//!
//! - `neo-top --addr 127.0.0.1:9464` — poll `GET /reports` on a node's
//!   (or the chaos bin's) `--telemetry-addr` endpoint. Refreshes every
//!   `--interval-ms` (default 1000), clearing the screen between
//!   frames. With `--once`, takes exactly two samples one interval
//!   apart, prints one frame, and exits (rates need a delta).
//! - `neo-top --replay obs.jsonl` — offline: summarize an
//!   `--obs-out` JSONL stream (a `NodeReport` per node per slice),
//!   rendering the same frame from the first→last report window.
//!
//! Per node the frame shows commit/exec rates (event-count deltas over
//! the sample window), client-latency p50/p99 recomputed from histogram
//! *bucket deltas* (so the quantiles describe the window, not the whole
//! run), fsync p99, gap activity, view-change counts, and the health the
//! node reported. Nodes mid-recovery get a banner above the table.

use neo_bench::report::{fmt_us, Table};
use neo_sim::obs::{bucket_floor, EventKind, HistogramSnapshot, NodeReport};
use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// One poll (or one replay window edge).
#[derive(Clone, Debug, Default)]
struct Sample {
    /// Sample time in seconds (monotonic for live, stream time for replay).
    at_s: f64,
    reports: Vec<NodeReport>,
}

fn usage() -> ! {
    eprintln!(
        "usage: neo-top --addr <host:port> [--interval-ms N] [--once]\n\
         \u{20}      neo-top --replay <obs.jsonl>\n\
         \n\
         --addr A         poll A/reports (a --telemetry-addr endpoint)\n\
         --interval-ms N  refresh period (default 1000)\n\
         --once           two samples, one frame, exit\n\
         --replay F       summarize an --obs-out JSONL stream instead of polling"
    );
    std::process::exit(2);
}

fn get<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a.as_str() == flag)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let once = args.iter().any(|a| a == "--once");
    if let Some(path) = get(&args, "--replay") {
        std::process::exit(replay(path));
    }
    let Some(addr) = get(&args, "--addr") else {
        usage();
    };
    let interval = Duration::from_millis(
        get(&args, "--interval-ms")
            .map(|v| {
                v.parse()
                    .unwrap_or_else(|_| panic!("bad --interval-ms: {v}"))
            })
            .unwrap_or(1000),
    );
    std::process::exit(live(addr, interval, once));
}

// ---------------------------------------------------------------- live

fn live(addr: &str, interval: Duration, once: bool) -> i32 {
    let start = Instant::now();
    let mut prev: Option<Sample> = None;
    let mut frames = 0u64;
    loop {
        match scrape(addr, start) {
            Ok(cur) => {
                // First sample only seeds the delta window.
                if prev.is_some() || !once {
                    print_frame(prev.as_ref(), &cur, !once && frames > 0);
                    frames += 1;
                    if once {
                        return 0;
                    }
                }
                prev = Some(cur);
            }
            Err(e) => {
                eprintln!("neo-top: {e}");
                if once {
                    return 1;
                }
            }
        }
        std::thread::sleep(interval);
    }
}

fn scrape(addr: &str, start: Instant) -> Result<Sample, String> {
    let body = http_get(addr, "/reports")?;
    Ok(Sample {
        at_s: start.elapsed().as_secs_f64(),
        reports: serde_json::from_str(&body)
            .map_err(|e| format!("bad /reports JSON from {addr}: {e}"))?,
    })
}

/// Minimal HTTP/1.1 GET over a std TcpStream (the server closes after
/// one response, so read-to-end delimits the body).
fn http_get(addr: &str, path: &str) -> Result<String, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| format!("{addr}: {e}"))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| format!("send to {addr}: {e}"))?;
    let mut raw = String::new();
    stream
        .read_to_string(&mut raw)
        .map_err(|e| format!("read from {addr}: {e}"))?;
    let (head, body) = raw
        .split_once("\r\n\r\n")
        .ok_or_else(|| format!("{addr}{path}: malformed response"))?;
    let status = head.lines().next().unwrap_or_default();
    if !status.contains(" 200 ") {
        return Err(format!("{addr}{path}: {status}"));
    }
    Ok(body.to_string())
}

// -------------------------------------------------------------- replay

fn replay(path: &str) -> i32 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("neo-top: cannot read {path}: {e}");
            return 2;
        }
    };
    let mut first: BTreeMap<neo_wire::Addr, NodeReport> = BTreeMap::new();
    let mut last: BTreeMap<neo_wire::Addr, NodeReport> = BTreeMap::new();
    let mut lines = 0u64;
    for raw in text.lines().filter(|l| !l.trim().is_empty()) {
        let Ok(report) = serde_json::from_str::<NodeReport>(raw) else {
            eprintln!("neo-top: skipping malformed line in {path}");
            continue;
        };
        lines += 1;
        first.entry(report.node).or_insert_with(|| report.clone());
        last.insert(report.node, report);
    }
    if last.is_empty() {
        eprintln!("neo-top: no NodeReport records in {path}");
        return 2;
    }
    let edge = |reports: BTreeMap<neo_wire::Addr, NodeReport>| {
        let reports: Vec<NodeReport> = reports.into_values().collect();
        let at = reports.iter().map(|r| r.at).max().unwrap_or(0);
        Sample {
            at_s: at as f64 / 1e9,
            reports,
        }
    };
    let (prev, cur) = (edge(first), edge(last));
    println!(
        "replaying {path}: {lines} lines, {} node(s), {:.2}s window",
        cur.reports.len(),
        cur.at_s - prev.at_s
    );
    print_frame(Some(&prev), &cur, false);
    0
}

// ------------------------------------------------------------ deriving

/// `node`'s report in the previous sample, if it was there.
fn earlier<'a>(prev: Option<&'a Sample>, node: &NodeReport) -> Option<&'a NodeReport> {
    prev?.reports.iter().find(|r| r.node == node.node)
}

/// Per-second rate of the events of `kinds` at `node` over the sample
/// window.
fn rate(prev: Option<&Sample>, cur: &Sample, node: &NodeReport, kinds: &[EventKind]) -> f64 {
    let Some(p) = prev else { return 0.0 };
    let dt = cur.at_s - p.at_s;
    if dt <= 0.0 {
        return 0.0;
    }
    let count = |r: &NodeReport| kinds.iter().map(|k| r.snapshot.event(*k)).sum::<u64>();
    let before = earlier(prev, node).map_or(0, count);
    count(node).saturating_sub(before) as f64 / dt
}

/// The node's client-latency histogram, if it recorded one.
fn latency(node: &NodeReport) -> Option<&HistogramSnapshot> {
    node.snapshot.histograms.get("client.latency_ns")
}

/// Quantile of the values recorded *during the window*: subtract the
/// previous snapshot's bucket counts from the current ones, then walk the
/// delta histogram. The value is the floor of the bucket it falls in,
/// like every quantile of a [`HistogramSnapshot`]; `None` when nothing
/// was recorded.
fn window_quantile(
    prev: Option<&HistogramSnapshot>,
    cur: &HistogramSnapshot,
    q: f64,
) -> Option<u64> {
    let before: BTreeMap<u32, u64> = prev
        .map(|p| p.buckets.iter().copied().collect())
        .unwrap_or_default();
    let deltas: Vec<(u32, u64)> = cur
        .buckets
        .iter()
        .map(|(i, c)| (*i, c.saturating_sub(before.get(i).copied().unwrap_or(0))))
        .collect();
    let total: u64 = deltas.iter().map(|(_, c)| c).sum();
    if total == 0 {
        return None;
    }
    let target = ((total as f64) * q).ceil() as u64;
    let mut acc = 0;
    for (i, c) in &deltas {
        acc += c;
        if acc >= target {
            return Some(bucket_floor(*i));
        }
    }
    None
}

fn fmt_rate(r: f64) -> String {
    if r >= 1e6 {
        format!("{:.2}M", r / 1e6)
    } else if r >= 1e3 {
        format!("{:.1}K", r / 1e3)
    } else {
        format!("{r:.1}")
    }
}

fn fmt_quantile(q: Option<u64>) -> String {
    q.map_or_else(|| "-".to_string(), fmt_us)
}

// ----------------------------------------------------------- rendering

fn print_frame(prev: Option<&Sample>, cur: &Sample, clear: bool) {
    use EventKind::*;
    if clear {
        print!("\x1b[2J\x1b[H");
    }
    for h in cur.reports.iter().filter_map(|r| r.health.as_ref()) {
        if h.verify_poisoned {
            println!("** {}: VERIFY POOL POISONED **", h.node);
        }
        if let Some(p) = &h.protocol {
            if let Some(phase) = p.recovery_phase.as_deref() {
                if phase != "active" {
                    match p.recovery_base {
                        Some(base) => {
                            println!("** RECOVERY: {} is {} (base slot {base}) **", h.node, phase)
                        }
                        None => println!("** RECOVERY: {} is {} **", h.node, phase),
                    }
                }
            }
        }
    }
    let mut table = Table::new(
        "neo-top",
        &[
            "Node",
            "Role",
            "Ep/View",
            "Phase",
            "Commit/s",
            "Exec/s",
            "lat p50",
            "lat p99",
            "fsync p99",
            "Gap/s",
            "VC",
            "Healthy",
        ],
    );
    let mut total_commit = 0.0;
    let mut unhealthy = 0;
    for r in &cur.reports {
        let commit = rate(prev, cur, r, &[Commit, ClientCommit]);
        total_commit += rate(prev, cur, r, &[Commit]);
        let exec = rate(prev, cur, r, &[SpeculativeExecute]);
        let gaps = rate(prev, cur, r, &[GapFind, GapCommit]);
        let vc = r.snapshot.event(ViewChange) + r.snapshot.event(EpochChange);
        let prev_lat = earlier(prev, r).and_then(latency);
        let p50 = latency(r).and_then(|h| window_quantile(prev_lat, h, 0.50));
        let p99 = latency(r).and_then(|h| window_quantile(prev_lat, h, 0.99));
        let protocol = r.health.as_ref().and_then(|h| h.protocol.as_ref());
        let (role, ep_view, phase) = match protocol {
            Some(p) => (
                p.role.clone(),
                format!("{}/{}", p.epoch, p.view),
                p.recovery_phase.clone().unwrap_or_else(|| "-".to_string()),
            ),
            None => ("?".to_string(), "-".to_string(), "-".to_string()),
        };
        // An artifact that predates the health document says nothing
        // either way: it is not counted unhealthy, and shows "-".
        let healthy = r.health.as_ref().map(|h| h.healthy);
        if healthy == Some(false) {
            unhealthy += 1;
        }
        let fsync_p99 = r
            .snapshot
            .histograms
            .get("store.fsync_ns")
            .map_or(0, |h| h.p99);
        table.row(vec![
            r.node.to_string(),
            role,
            ep_view,
            phase,
            fmt_rate(commit),
            fmt_rate(exec),
            fmt_quantile(p50),
            fmt_quantile(p99),
            if fsync_p99 > 0 {
                fmt_us(fsync_p99)
            } else {
                "-".to_string()
            },
            format!("{gaps:.1}"),
            vc.to_string(),
            match healthy {
                Some(true) => "yes",
                Some(false) => "NO",
                None => "-",
            }
            .to_string(),
        ]);
    }
    table.print();
    println!(
        "cluster: {} node(s), {} unhealthy, replica commit rate {}/s",
        cur.reports.len(),
        unhealthy,
        fmt_rate(total_commit)
    );
}

// --------------------------------------------------------------- tests

#[cfg(test)]
mod tests {
    use super::*;
    use neo_sim::obs::{Event, ExecSignals, Metrics, ObsConfig, TraceRead};
    use neo_wire::{Addr, ReplicaId};

    const R0: Addr = Addr::Replica(ReplicaId(0));

    /// A sample at `at_s` holding `m`'s report as node `r0`.
    fn sample(at_s: f64, m: &Metrics) -> Sample {
        let report = NodeReport::build(0, R0, m, None, ExecSignals::default(), TraceRead::Copy);
        Sample {
            at_s,
            reports: vec![report],
        }
    }

    #[test]
    fn rates_are_deltas_over_the_window() {
        let m = Metrics::new(ObsConfig::default());
        let commit = |slot| Event::Commit {
            slot,
            client: 0,
            request: slot + 1,
        };
        for slot in 0..1000 {
            m.record_event(slot, R0, commit(slot));
        }
        let prev = sample(10.0, &m);
        for slot in 1000..1500 {
            m.record_event(slot, R0, commit(slot));
        }
        let cur = sample(12.0, &m);
        let r0 = &cur.reports[0];
        assert_eq!(rate(Some(&prev), &cur, r0, &[EventKind::Commit]), 250.0);
        assert_eq!(rate(Some(&prev), &cur, r0, &[EventKind::GapFind]), 0.0);
        // No previous sample: no rate.
        assert_eq!(rate(None, &cur, r0, &[EventKind::Commit]), 0.0);
        // A node that was not in the previous sample counts from zero.
        let empty = Sample {
            at_s: 10.0,
            reports: Vec::new(),
        };
        assert_eq!(rate(Some(&empty), &cur, r0, &[EventKind::Commit]), 750.0);
    }

    #[test]
    fn quantiles_come_from_bucket_deltas() {
        // Window: prev has 10 observations of 100; cur adds 90 of 1 000.
        let m = Metrics::new(ObsConfig::default());
        for _ in 0..10 {
            m.observe("client.latency_ns", 100);
        }
        let prev = m.snapshot().histograms["client.latency_ns"].clone();
        for _ in 0..90 {
            m.observe("client.latency_ns", 1_000);
        }
        let cur = m.snapshot().histograms["client.latency_ns"].clone();
        // All 90 new observations land in the bucket that holds 1 000
        // ([992, 1 007], reported as its floor): both quantiles.
        assert_eq!(window_quantile(Some(&prev), &cur, 0.50), Some(992));
        assert_eq!(window_quantile(Some(&prev), &cur, 0.99), Some(992));
        // Without the baseline, the old 10 fast observations drag p5 down.
        assert_eq!(window_quantile(None, &cur, 0.05), Some(100));
        // Empty window: no quantile.
        assert_eq!(window_quantile(Some(&cur), &cur, 0.50), None);
        assert_eq!(fmt_quantile(None), "-");
    }
}
