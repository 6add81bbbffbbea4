//! Running one loopback-UDP workload: repeated set-ups, warm-up, the
//! measured window, shutdown, and the output checks.

use crate::cluster::{self, Cluster, ClusterSpec, Stopped, TraceSinks};
use crate::measure;
use crate::outputs::{self, Completions};
use crate::procfs::{self, ThreadSched};
use crate::report::RunReport;
use crate::stats;
use crate::trace;
use neobft::core::{Client, Replica};
use neobft::sim::obs::MetricsSnapshot;
use neobft::sim::Store as _;
use neobft::store::FileStore;
use neobft::wire::{Addr, PayloadStats};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Set-ups per run; the reported `setup_s` is their median.
pub const SETUPS: usize = 25;

/// Warm-up and measured window for a `--seconds` value: the issue's
/// 5 s + 30 s, scaled.
pub fn window(seconds: u64) -> (Duration, Duration) {
    let measure = Duration::from_secs(seconds.max(1));
    (measure / 6, measure)
}

/// Counters read at both ends of the measured window.
pub struct WindowEnd {
    pub threads: BTreeMap<String, ThreadSched>,
    pub payload: PayloadStats,
    /// Per-node registry snapshots; traced runs only.
    pub metrics: Vec<(Addr, MetricsSnapshot)>,
}

impl WindowEnd {
    fn take(cluster: &Cluster, with_metrics: bool) -> WindowEnd {
        WindowEnd {
            threads: procfs::threads(),
            payload: PayloadStats::snapshot(),
            metrics: if with_metrics {
                cluster.handles().map(|h| (h.addr, h.metrics_snapshot())).collect()
            } else {
                Vec::new()
            },
        }
    }
}

/// Everything a finished UDP run leaves behind.
pub struct UdpRun {
    pub spec: ClusterSpec,
    pub setups_s: Vec<f64>,
    /// Slice boundaries of the measured window; `clock_ns` is the clients'
    /// clock (ns since they were spawned).
    pub edges: Vec<measure::Edge>,
    pub start: WindowEnd,
    pub end: WindowEnd,
    pub stopped: Stopped,
    pub sinks: TraceSinks,
    pub completions: Completions,
}

impl UdpRun {
    pub fn window_seconds(&self) -> f64 {
        (self.edges[self.edges.len() - 1].wall - self.edges[0].wall).as_secs_f64()
    }

    /// The measured window in the clients' clock.
    pub fn window_ns(&self) -> (u64, u64) {
        (self.edges[0].clock_ns, self.edges[self.edges.len() - 1].clock_ns)
    }

    pub fn ops(&self) -> u64 {
        self.completions.samples.len() as u64
    }

    pub fn replicas(&self) -> impl Iterator<Item = &Replica> {
        self.stopped
            .replicas
            .iter()
            .filter_map(|n| n.as_any().downcast_ref::<Replica>())
    }

    pub fn clients(&self) -> impl Iterator<Item = &Client> {
        self.stopped
            .clients
            .iter()
            .filter_map(|n| n.as_any().downcast_ref::<Client>())
    }
}

fn store_root(scratch: &Path, attempt: usize) -> PathBuf {
    scratch.join(format!("store-{}-{attempt}", std::process::id()))
}

/// Start the deployment and wait for its first committed operation.
fn set_up(spec: &ClusterSpec, seed: u64, traced: bool) -> Result<(Cluster, f64), String> {
    let t0 = Instant::now();
    let cluster = Cluster::start(spec, seed, traced)?;
    cluster.wait_first_commit(Duration::from_secs(20))?;
    Ok((cluster, t0.elapsed().as_secs_f64()))
}

/// Run the workload, check its outputs and collect what it left behind.
/// Store directories live under `scratch` and are removed before returning.
pub fn run(
    spec: &ClusterSpec,
    seed: u64,
    seconds: u64,
    traced: bool,
    scratch: &Path,
    report: &mut RunReport,
) -> Result<UdpRun, String> {
    let (warmup, measure) = window(seconds);
    let with_store = matches!(spec.app, cluster::AppSpec::Kv(_));
    let mut setups_s = Vec::new();
    let mut kept = None;
    for attempt in 0..SETUPS {
        let mut spec = spec.clone();
        let root = store_root(scratch, attempt);
        if with_store {
            spec.store_root = Some(root.clone());
        }
        let (cluster, took) = set_up(&spec, seed, traced)?;
        setups_s.push(took);
        if attempt + 1 < SETUPS {
            cluster.stop()?;
            let _ = std::fs::remove_dir_all(&root);
        } else {
            kept = Some((cluster, spec, root));
        }
    }
    let (cluster, spec, root) = kept.expect("the last set-up is kept");

    let origin = cluster.clients_spawned_at;
    let sleep_until = |t: Instant| std::thread::sleep(t.saturating_duration_since(Instant::now()));
    let edge = || measure::Edge::now(origin.elapsed().as_nanos() as u64);
    sleep_until(origin + warmup);
    let start = WindowEnd::take(&cluster, traced);
    trace::set_measuring(traced);
    let mut edges = vec![edge()];
    for slice in 1..=measure::SLICES as u32 {
        sleep_until(edges[0].wall + measure * slice / measure::SLICES as u32);
        edges.push(edge());
    }
    trace::set_measuring(false);
    let end = WindowEnd::take(&cluster, traced);

    let sinks = cluster.sinks.clone();
    let stopped = cluster.stop()?;
    let mut run = UdpRun {
        spec,
        setups_s,
        edges,
        start,
        end,
        stopped,
        sinks,
        completions: Completions::default(),
    };

    // The output checks: every completion is what the workload expects, no
    // client stalled, replicas executed the same operations in the same
    // order and none twice, and a durable log survives a reopen.
    let streams = (0..).map(|index| run.spec.app.workload(cluster::client_salt(seed, index)));
    run.completions = outputs::check_clients(run.clients().zip(streams), run.window_ns(), report);
    outputs::check_replicas(run.replicas(), run.spec.replicas(), report);
    if with_store {
        report.notes.push(format!(
            "store directory {} on {}",
            root.display(),
            procfs::fs_type(&root)
        ));
        let empty: Vec<usize> = (0..run.spec.replicas())
            .filter(|&r| {
                let store = FileStore::open(cluster::store_dir(&root, r));
                store.log_records().is_empty() && store.checkpoint().is_none()
            })
            .collect();
        report.check(
            "durable_state_survives_reopen",
            empty.is_empty(),
            if empty.is_empty() {
                format!("{} reopened stores hold a log or a checkpoint", run.spec.replicas())
            } else {
                format!("replicas {empty:?} reopened empty")
            },
        );
        let _ = std::fs::remove_dir_all(&root);
    }
    if !report.correct() {
        // Something went wrong: leave what the replicas counted.
        for r in run.replicas() {
            report
                .notes
                .push(format!("replica {}: {:?} {:?}", r.id(), r.stats, r.aom_stats()));
        }
    }
    Ok(run)
}

/// The end-to-end metrics of a finished run.
pub fn end_to_end(run: &UdpRun, report: &mut RunReport) {
    let done = &run.completions;
    measure::end_to_end(report, done, &run.edges, &run.setups_s);
    let view_changes: u64 = run.replicas().map(|r| r.stats.view_changes).sum();
    let gaps: u64 = run
        .replicas()
        .map(|r| r.stats.gaps_recovered + r.stats.noops_committed)
        .sum();
    let drops: u64 = run.replicas().map(|r| r.aom_stats().drops_declared).sum();
    report.notes.push(format!(
        "over the whole run: {} operations rode a retransmitted batch; replicas saw {view_changes} view changes, \
         {gaps} gap recoveries and {drops} declared drops",
        done.total_retries
    ));
}

/// Median round trip of the unreplicated echo baseline over the same
/// runtime: one client, one server, two hops and no protocol — the floor
/// under every UDP workload's latency on this machine.
pub fn unreplicated_rtt_us(seed: u64, duration: Duration) -> Result<f64, String> {
    use neobft::app::{EchoApp, EchoWorkload};
    use neobft::baselines::{UnreplicatedClient, UnreplicatedServer};
    use neobft::runtime::AddressBook;
    use neobft::wire::{ClientId, ReplicaId};

    let base = crate::ports::free_range(4).map_err(|e| format!("no free ports: {e}"))?;
    let dep = AddressBook::builder()
        .replicas(1)
        .clients(1)
        .base_port(base)
        .build()
        .map_err(|e| e.to_string())?;
    let server = UnreplicatedServer::new(Box::new(EchoApp::new()));
    let workload = EchoWorkload::new(crate::defs::ECHO_BYTES, cluster::client_salt(seed, 0));
    let client = UnreplicatedClient::new(ClientId(0), ReplicaId(0), Box::new(workload), 50_000_000);
    let server = dep.spawn(Box::new(server), dep.replica(0)).map_err(|e| e.to_string())?;
    let client = match dep.spawn(Box::new(client), dep.client(0)) {
        Ok(h) => h,
        Err(e) => {
            let _ = server.try_shutdown();
            return Err(e.to_string());
        }
    };
    std::thread::sleep(duration);
    let client = client.try_shutdown().map_err(|e| e.to_string());
    server.try_shutdown().map_err(|e| e.to_string())?;
    let client = client?;
    let client = client
        .as_any()
        .downcast_ref::<UnreplicatedClient>()
        .ok_or("the baseline client is not an UnreplicatedClient")?;
    // Skip the first tenth: sockets and caches warm up there.
    let done = &client.core.completed;
    let mut latencies: Vec<u64> = done[done.len() / 10..].iter().map(|op| op.latency_ns()).collect();
    if latencies.is_empty() {
        return Err("the unreplicated baseline completed nothing".to_string());
    }
    latencies.sort_unstable();
    Ok(stats::percentile(&latencies, 0.5) as f64 / 1e3)
}
