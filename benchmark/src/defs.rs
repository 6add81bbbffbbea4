//! The benchmark's fixed vocabulary: workload names, end-to-end metrics
//! with their bounds, and per-layer metrics. `BENCHMARK.json` at the
//! repository root states the same lists for the driver; a test keeps
//! the two in step.

use crate::cluster::{AppSpec, ClusterSpec};
use neobft::app::YcsbConfig;
use neobft::core::BatchPolicy;

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric a user of the system would see, reported for every workload.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline's median by which it may worsen.
    pub bound: f64,
    /// In the metric's unit: a difference below this is no regression
    /// whatever share of the median it is. (`agree` applies it; the
    /// driver's `BENCHMARK.json` has no place for it.)
    pub floor: f64,
}

impl EndToEnd {
    /// How far from `median` a value may be before it counts as different.
    pub fn tolerance(&self, median: f64) -> f64 {
        (self.bound * median.abs()).max(self.floor)
    }
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64, floor: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
        floor,
    }
}

/// Each bound is three times the widest interquartile spread any workload
/// showed over ten runs (README, "How the bounds were chosen"), which is what
/// the driver asks for, and at most the 25 % it allows.
pub const END_TO_END: [EndToEnd; 4] = [
    e2e("ops_per_s", "ops/s", Better::Higher, 0.25, 0.0),
    e2e("latency_p50_us", "us", Better::Lower, 0.25, 0.0),
    // Memory the run retains per committed operation. The peak alone grows
    // with every operation (logs are never trimmed), so it would read a
    // gain in throughput as a regression.
    e2e("mem_bytes_per_op", "B/op", Better::Lower, 0.15, 0.0),
    // Milliseconds of thread spawning on the UDP workloads: a quarter of a
    // second is the least that counts.
    e2e("setup_s", "s", Better::Lower, 0.25, 0.25),
];

/// A metric of one layer, from the traced run. `0` on a workload whose
/// path does not include the layer.
#[derive(Clone, Copy, Debug)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lo(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn hi(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer {
        name,
        unit,
        better: Better::Higher,
    }
}

pub const PER_LAYER: &[PerLayer] = &[
    // runtime: threads, sockets, wakeups.
    lo("runtime.replica_cpu_us_per_op", "us/op"),
    lo("runtime.replica_overhead_us_per_op", "us/op"),
    lo("runtime.sequencer_cpu_us_per_op", "us/op"),
    lo("runtime.client_cpu_us_per_op", "us/op"),
    lo("runtime.runq_wait_us_per_op", "us/op"),
    lo("runtime.wakeups_per_op", "1/op"),
    hi("runtime.batch_events_mean", "count"),
    lo("runtime.pkts_in_per_op", "1/op"),
    lo("runtime.pkts_out_per_op", "1/op"),
    lo("runtime.bytes_out_per_op", "B/op"),
    lo("runtime.hop_us_p50", "us"),
    lo("runtime.unreplicated_rtt_us_p50", "us"),
    lo("runtime.send_failed", "count"),
    // wire: codec and payload buffers.
    lo("wire.encode_ns", "ns"),
    lo("wire.decode_ns", "ns"),
    lo("wire.payload_allocs_per_op", "1/op"),
    lo("wire.payload_bytes_per_op", "B/op"),
    lo("wire.payload_clones_per_op", "1/op"),
    // crypto: the ladder of direct calls, and confirms counted.
    lo("crypto.hmac_tag_ns", "ns"),
    lo("crypto.hmac_vector4_ns", "ns"),
    lo("crypto.hmac_vector100_ns", "ns"),
    lo("crypto.ed25519_sign_ns", "ns"),
    lo("crypto.ed25519_verify_ns", "ns"),
    lo("crypto.verify_batch16_ns_per_sig", "ns"),
    lo("crypto.k256_sign_ns", "ns"),
    lo("crypto.k256_verify_ns", "ns"),
    lo("crypto.sha256_64b_ns", "ns"),
    lo("crypto.confirms_per_op", "1/op"),
    // aom: sequencer and receivers.
    lo("aom.sequencer_handler_us_per_pkt", "us"),
    lo("aom.sequencer_pkts_per_op", "1/op"),
    hi("aom.delivered", "count"),
    lo("aom.drops_declared", "count"),
    lo("aom.stale_rejected", "count"),
    lo("aom.auth_rejected", "count"),
    lo("aom.confirms_generated", "count"),
    // neobft: replica and client state machines.
    lo("neobft.replica_handler_us_per_op", "us/op"),
    lo("neobft.replica_self_us_per_op", "us/op"),
    lo("neobft.replica_on_message_us_p50", "us"),
    lo("neobft.replica_on_message_us_p99", "us"),
    lo("neobft.client_handler_us_per_op", "us/op"),
    lo("neobft.msgs_in_per_op", "1/op"),
    hi("neobft.ops_per_batch", "count"),
    hi("neobft.fast_path_share", "ratio"),
    lo("neobft.gap_find", "count"),
    lo("neobft.query", "count"),
    lo("neobft.gaps_recovered", "count"),
    lo("neobft.noops_committed", "count"),
    lo("neobft.view_changes", "count"),
    lo("neobft.rollbacks", "count"),
    lo("neobft.sync_points", "count"),
    lo("neobft.client_retries_per_kop", "1/kop"),
    lo("neobft.protocol_errors", "count"),
    lo("neobft.client_latency_p99_us", "us"),
    lo("neobft.client_latency_p999_us", "us"),
    // store: write-ahead log and checkpoints.
    lo("store.append_us_per_op", "us/op"),
    lo("store.flush_us_p50", "us"),
    lo("store.flush_us_p99", "us"),
    lo("store.flushes_per_op", "1/op"),
    lo("store.flushed_bytes_per_op", "B/op"),
    lo("store.checkpoint_ms_p50", "ms"),
    lo("store.checkpoints", "count"),
    lo("store.reset_log_ms_p50", "ms"),
    lo("store.file_append_flush_us", "us"),
    lo("store.fsync_dev_us", "us"),
    // app: the replicated state machine.
    lo("app.execute_us_per_op", "us/op"),
    lo("app.snapshot_ms_p50", "ms"),
    lo("app.undo_count", "count"),
    lo("app.kv_read_ns", "ns"),
    lo("app.kv_update_ns", "ns"),
    // sim: the discrete-event executor.
    lo("sim.events", "count"),
    lo("sim.wall_ns_per_event", "ns"),
    lo("sim.dispatch_ns_per_event", "ns"),
    lo("sim.events_per_op", "1/op"),
    lo("sim.net_dropped", "count"),
    // The traced run's own end-to-end figures: beside the untraced run's
    // they are the tracing overhead.
    hi("trace.ops_per_s", "ops/s"),
    lo("trace.latency_p50_us", "us"),
    lo("trace.cpu_us_per_op", "us/op"),
    lo("trace.waterfall_sum_us", "us"),
];

/// What a workload runs on.
#[derive(Clone, Debug)]
pub enum Executor {
    /// Loopback UDP through `neobft::runtime`.
    Udp(ClusterSpec),
    /// The calibrated discrete-event simulator through `bench::harness`.
    Sim { f: usize, clients: usize, drop_rate: f64 },
}

#[derive(Clone, Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub executor: Executor,
}

/// Closed-loop client nodes per UDP workload: `nproc` is 2 here.
pub const UDP_CLIENTS: usize = 2;
/// Echo payload size, as in the paper's §6.2.
pub const ECHO_BYTES: usize = 64;

fn echo(byzantine_network: bool) -> Executor {
    Executor::Udp(ClusterSpec {
        byzantine_network,
        batch: BatchPolicy::SINGLE,
        app: AppSpec::Echo { size: ECHO_BYTES },
        clients: UDP_CLIENTS,
        store_root: None,
    })
}

/// YCSB-A at a size that loads in milliseconds: 10 000 records of 128 B.
pub const KV_MIX: YcsbConfig = YcsbConfig {
    record_count: 10_000,
    ..YcsbConfig::WORKLOAD_A
};

/// The four workloads, in the order they run. `store_root` of `udp-kv-wal`
/// is filled in by the runner (a fresh directory per set-up).
pub fn workloads() -> Vec<Workload> {
    vec![
        Workload {
            name: "udp-echo",
            why: "64 B echo, one op per packet, trusted network: per-packet cost dominates (runtime \
                  syscalls and wakeups, wire codec, HMAC, replica fast path); no signatures, \
                  batching, store or app",
            executor: echo(false),
        },
        Workload {
            name: "udp-echo-bn",
            why: "the same packets under the Byzantine-network model: replicas sign and verify \
                  confirms on the blocking path, so crypto does most of the work and runtime little",
            executor: echo(true),
        },
        Workload {
            name: "udp-kv-wal",
            why: "YCSB-A on the KV store in batches of 16, a FileStore per replica: one packet, \
                  authenticator and reply per 16 ops; WAL appends, batched fdatasync, checkpoints \
                  and the app on the path",
            executor: Executor::Udp(ClusterSpec {
                byzantine_network: false,
                batch: BatchPolicy::fixed(16),
                app: AppSpec::Kv(KV_MIX),
                clients: UDP_CLIENTS,
                store_root: None,
            }),
        },
        Workload {
            name: "sim-hm-n100",
            why: "simulator, 100 replicas, 48 clients, 0.1 % loss: the protocol stack plus event \
                  dispatch, one thread, no sockets; queries and gap agreement leave the fast path; \
                  counts repeat exactly for a seed",
            executor: Executor::Sim {
                f: 33,
                clients: 48,
                drop_rate: 0.001,
            },
        },
    ]
}

/// The text of `BENCHMARK.json`: what the driver is told, generated from
/// the tables above so the two cannot drift.
pub fn manifest(run_seconds: u64) -> String {
    use serde_json::{json, Value};
    let workloads: Vec<Value> = workloads()
        .iter()
        .map(|w| json!({"name": w.name, "why": w.why}))
        .collect();
    let end_to_end: Vec<Value> = END_TO_END
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.as_str(), "bound": m.bound}))
        .collect();
    let per_layer: Vec<Value> = PER_LAYER
        .iter()
        .map(|m| json!({"name": m.name, "unit": m.unit, "better": m.better.as_str()}))
        .collect();
    let doc = json!({
        "command": ["python3", "benchmark/run.py"],
        "paths": ["benchmark"],
        "run_seconds": run_seconds,
        "workloads": workloads,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    });
    let mut text = serde_json::to_string_pretty(&doc).expect("a JSON tree serializes");
    text.push('\n');
    text
}

pub fn workload(name: &str) -> Option<Workload> {
    workloads().into_iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    #[test]
    fn benchmark_json_is_the_generated_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory");
        let committed: Value = serde_json::from_str(&on_disk).expect("BENCHMARK.json parses");
        let run_seconds = committed["run_seconds"].as_u64().expect("run_seconds");
        assert!((1..=60).contains(&run_seconds));
        assert!(
            on_disk == manifest(run_seconds),
            "regenerate with: python3 benchmark/run.py manifest > BENCHMARK.json"
        );
        assert!(on_disk.len() < 64 * 1024);
        let keys: Vec<&String> = committed.as_object().unwrap().keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        for w in workloads() {
            assert!(
                !w.why.is_empty() && w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn names_and_units_fit_the_contract() {
        let name_ok = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let unit_ok = |s: &str| {
            !s.is_empty() && s.len() <= 16 && s.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for w in workloads() {
            assert!(name_ok(w.name) && seen.insert(w.name), "{}", w.name);
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name), "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit) && seen.insert(m.name), "{}", m.name);
        }
    }
}
