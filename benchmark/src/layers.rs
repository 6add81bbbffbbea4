//! The per-layer metrics of a traced run, layer by layer. Every name in
//! `defs::PER_LAYER` is set on every workload; a layer that is not on a
//! workload's path reads 0 there.

use crate::analysis::{Trace, Waterfall};
use crate::defs::PER_LAYER;
use crate::ladder::Ladder;
use crate::measure::{self, Edge};
use crate::outputs::Completions;
use crate::procfs;
use crate::report::RunReport;
use crate::simrun::SimRun;
use crate::stats;
use crate::trace::{lock, NodeSinks, NodeTrace, Span, Totals};
use crate::udp::UdpRun;
use neobft::core::Replica;
use neobft::sim::obs::{EventKind, Histogram, HistogramSnapshot, MetricsSnapshot};
use neobft::wire::Addr;
use std::sync::{Arc, Mutex, MutexGuard};

fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

fn per(total: f64, ops: u64) -> f64 {
    if ops == 0 {
        0.0
    } else {
        total / ops as f64
    }
}

/// The duration distribution of one boundary across several wrappers.
fn merged<'a>(totals: impl Iterator<Item = &'a Totals>) -> HistogramSnapshot {
    let mut all = Histogram::default().snapshot();
    for t in totals {
        all.merge(&t.hist.snapshot());
    }
    all
}

/// Writes per-layer metrics with their declared units.
struct Out<'a>(&'a mut RunReport);

impl Out<'_> {
    fn set(&mut self, name: &str, value: f64) {
        let unit = PER_LAYER
            .iter()
            .find(|m| m.name == name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"))
            .unit;
        self.0.set(name, if value.is_finite() { value } else { 0.0 }, unit);
    }
}

/// Start every per-layer metric at 0 with its declared unit.
pub fn zero_all(report: &mut RunReport) {
    for m in PER_LAYER {
        report.set(m.name, 0.0, m.unit);
    }
}

/// The ladder's rungs: the same on every workload but for the codec's
/// operation size.
pub fn ladder(l: &Ladder, fsync_dev_us: f64, report: &mut RunReport) {
    let mut out = Out(report);
    out.set("wire.encode_ns", l.wire_encode_ns);
    out.set("wire.decode_ns", l.wire_decode_ns);
    out.set("crypto.hmac_tag_ns", l.hmac_tag_ns);
    out.set("crypto.hmac_vector4_ns", l.hmac_vector4_ns);
    out.set("crypto.hmac_vector100_ns", l.hmac_vector100_ns);
    out.set("crypto.ed25519_sign_ns", l.ed25519_sign_ns);
    out.set("crypto.ed25519_verify_ns", l.ed25519_verify_ns);
    out.set("crypto.verify_batch16_ns_per_sig", l.verify_batch16_ns_per_sig);
    out.set("crypto.k256_sign_ns", l.k256_sign_ns);
    out.set("crypto.k256_verify_ns", l.k256_verify_ns);
    out.set("crypto.sha256_64b_ns", l.sha256_64b_ns);
    out.set("store.file_append_flush_us", l.file_append_flush_us);
    out.set("store.fsync_dev_us", fsync_dev_us);
    out.set("app.kv_read_ns", l.kv_read_ns);
    out.set("app.kv_update_ns", l.kv_update_ns);
}

/// Handler totals of the traced nodes, by role.
struct Handlers {
    replica_ns: u64,
    client_ns: u64,
    sequencer: Totals,
    packets_in: u64,
    packets_out: u64,
    bytes_out: u64,
    replica_on_message: HistogramSnapshot,
}

fn handlers(sinks: &NodeSinks) -> Handlers {
    let guards: Vec<(Addr, MutexGuard<'_, NodeTrace>)> = sinks.iter().map(|(a, s)| (*a, lock(s))).collect();
    let busy = |t: &NodeTrace| t.on_message.ns + t.on_timer.ns + t.on_async.ns;
    let of = |want: fn(&Addr) -> bool| guards.iter().filter(move |(a, _)| want(a)).map(|(_, t)| &**t);
    let is_replica = |a: &Addr| matches!(a, Addr::Replica(_));
    let is_client = |a: &Addr| matches!(a, Addr::Client(_));
    let is_sequencer = |a: &Addr| matches!(a, Addr::Sequencer(_));
    let mut sequencer = Totals::default();
    for t in of(is_sequencer) {
        sequencer.calls += t.on_message.calls;
        sequencer.ns += t.on_message.ns;
    }
    Handlers {
        replica_ns: of(is_replica).map(busy).sum(),
        client_ns: of(is_client).map(busy).sum(),
        sequencer,
        packets_in: guards.iter().map(|(_, t)| t.on_message.calls).sum(),
        packets_out: guards.iter().map(|(_, t)| t.sent_packets).sum(),
        bytes_out: guards.iter().map(|(_, t)| t.sent_bytes).sum(),
        replica_on_message: merged(of(is_replica).map(|t| &t.on_message)),
    }
}

/// Protocol event counts of a run, from the nodes' registries.
struct Events {
    /// `Commit` events summed over the replicas.
    replica_commits: u64,
    gap_find: u64,
    query: u64,
    drops: u64,
    confirms: u64,
    /// Batches the clients committed.
    batches: u64,
}

impl Events {
    /// Counts between two sets of per-node snapshots.
    fn between(earlier: &[(Addr, MetricsSnapshot)], later: &[(Addr, MetricsSnapshot)]) -> Events {
        let count = |kind: EventKind, replicas_only: bool| -> u64 {
            let total = |edge: &[(Addr, MetricsSnapshot)]| -> u64 {
                edge.iter()
                    .filter(|(a, _)| !replicas_only || matches!(a, Addr::Replica(_)))
                    .map(|(_, m)| m.event(kind))
                    .sum()
            };
            total(later).saturating_sub(total(earlier))
        };
        Events {
            replica_commits: count(EventKind::Commit, true),
            gap_find: count(EventKind::GapFind, false),
            query: count(EventKind::Query, false),
            drops: count(EventKind::DropNotification, false),
            confirms: count(EventKind::Confirm, false) + count(EventKind::ConfirmBatch, false),
            batches: count(EventKind::ClientCommit, false),
        }
    }
}

/// What the two executors have in common.
struct Common<'a> {
    handlers: Handlers,
    /// Operations of the measured window and the wall time it took.
    ops: u64,
    wall_seconds: f64,
    done: &'a Completions,
    /// Slice boundaries of the measured window.
    edges: &'a [Edge],
    replicas: Vec<&'a Replica>,
    /// App and store time spent inside replica handlers.
    in_handler_ns: u64,
    events: Events,
    /// Operations the event counts cover (the window on UDP, the whole run
    /// on the simulator).
    event_ops: u64,
}

/// The aom, neobft and message rows, and the traced run's own end-to-end
/// figures.
fn protocol(out: &mut Out<'_>, c: &Common<'_>) {
    let (h, ops) = (&c.handlers, c.ops);
    out.set(
        "aom.sequencer_handler_us_per_pkt",
        per(us(h.sequencer.ns), h.sequencer.calls),
    );
    out.set("aom.sequencer_pkts_per_op", per(h.sequencer.calls as f64, ops));
    out.set("runtime.pkts_in_per_op", per(h.packets_in as f64, ops));
    out.set("runtime.pkts_out_per_op", per(h.packets_out as f64, ops));
    out.set("runtime.bytes_out_per_op", per(h.bytes_out as f64, ops));
    out.set("neobft.replica_handler_us_per_op", per(us(h.replica_ns), ops));
    out.set(
        "neobft.replica_self_us_per_op",
        per(us(h.replica_ns.saturating_sub(c.in_handler_ns)), ops),
    );
    out.set("neobft.replica_on_message_us_p50", us(h.replica_on_message.p50));
    out.set("neobft.replica_on_message_us_p99", us(h.replica_on_message.p99));
    out.set("neobft.client_handler_us_per_op", per(us(h.client_ns), ops));

    // Counters the replicas keep over their whole life, summed; messages
    // per operation over whole-run operations (every replica executes every
    // operation once).
    let n = c.replicas.len().max(1) as u64;
    let sum = |f: fn(&Replica) -> u64| c.replicas.iter().map(|r| f(r)).sum::<u64>();
    out.set("aom.delivered", sum(|r| r.aom_stats().delivered) as f64);
    out.set("aom.drops_declared", sum(|r| r.aom_stats().drops_declared) as f64);
    out.set("aom.stale_rejected", sum(|r| r.aom_stats().stale_rejected) as f64);
    out.set("aom.auth_rejected", sum(|r| r.aom_stats().auth_rejected) as f64);
    out.set(
        "aom.confirms_generated",
        sum(|r| r.aom_stats().confirms_generated) as f64,
    );
    out.set("neobft.gaps_recovered", sum(|r| r.stats.gaps_recovered) as f64);
    out.set("neobft.noops_committed", sum(|r| r.stats.noops_committed) as f64);
    out.set("neobft.view_changes", sum(|r| r.stats.view_changes) as f64);
    out.set("neobft.rollbacks", sum(|r| r.stats.rollbacks) as f64);
    out.set("neobft.sync_points", sum(|r| r.stats.sync_points) as f64);
    out.set("neobft.protocol_errors", sum(|r| r.stats.protocol_errors) as f64);
    out.set(
        "neobft.msgs_in_per_op",
        per(sum(|r| r.stats.messages_in) as f64, sum(|r| r.stats.executed) / n),
    );

    let e = &c.events;
    let slots = e.replica_commits / n;
    let slow = (e.gap_find + e.query + e.drops).min(slots);
    out.set("neobft.fast_path_share", per((slots - slow) as f64, slots));
    out.set("neobft.gap_find", e.gap_find as f64);
    out.set("neobft.query", e.query as f64);
    out.set("neobft.ops_per_batch", per(c.event_ops as f64, e.batches));
    out.set("crypto.confirms_per_op", per(e.confirms as f64, c.event_ops));
    out.set(
        "neobft.client_retries_per_kop",
        per(c.done.total_retries as f64 * 1e3, c.done.total_completed),
    );

    if let Some(tail) = measure::tail_p99(&c.done.samples, c.edges) {
        out.set("neobft.client_latency_p99_us", us(tail.p99_ns));
    }
    let mut latencies: Vec<u64> = c.done.samples.iter().map(|s| s.latency_ns).collect();
    latencies.sort_unstable();
    if !latencies.is_empty() {
        out.set(
            "neobft.client_latency_p999_us",
            us(stats::percentile(&latencies, 0.999)),
        );
        out.set("trace.latency_p50_us", us(stats::percentile(&latencies, 0.5)));
    }
    out.set("trace.ops_per_s", ops as f64 / c.wall_seconds);
    let cpu_ns = c.edges[c.edges.len() - 1].cpu_ns - c.edges[0].cpu_ns;
    out.set("trace.cpu_us_per_op", per(us(cpu_ns), ops));
}

fn spans_of<T>(sinks: &[(Addr, Arc<Mutex<T>>)], spans: fn(&T) -> &Vec<Span>) -> Vec<Span> {
    sinks.iter().flat_map(|(_, s)| spans(&lock(s)).clone()).collect()
}

/// Per-layer metrics of a traced UDP run. Returns the spans and the
/// waterfall for printing.
pub fn udp(run: &UdpRun, unreplicated_rtt_us: f64, report: &mut RunReport) -> (Trace, Waterfall) {
    let mut out = Out(report);
    let ops = run.ops();
    let h = handlers(&run.sinks.nodes);
    let stores: Vec<_> = run.sinks.stores.iter().map(|(_, s)| lock(s)).collect();
    let apps: Vec<_> = run.sinks.apps.iter().map(|(_, s)| lock(s)).collect();

    // runtime: thread CPU and run-queue wait from /proc (threads are named
    // by address), batches from the executor's own histogram.
    let (mut replica_cpu, mut client_cpu, mut sequencer_cpu, mut runq_wait) = (0, 0, 0, 0);
    for (addr, _) in &run.sinks.nodes {
        let name = procfs::comm_of(&addr.to_string());
        let at_end = run.end.threads.get(&name).copied().unwrap_or_default();
        let s = at_end.since(&run.start.threads.get(&name).copied().unwrap_or_default());
        runq_wait += s.wait_ns;
        match addr {
            Addr::Replica(_) => replica_cpu += s.run_ns,
            Addr::Client(_) => client_cpu += s.run_ns,
            Addr::Sequencer(_) => sequencer_cpu += s.run_ns,
            _ => {}
        }
    }
    let flush_ns: u64 = stores.iter().map(|s| s.flush.ns).sum();
    out.set("runtime.replica_cpu_us_per_op", per(us(replica_cpu), ops));
    out.set(
        "runtime.replica_overhead_us_per_op",
        per(us(replica_cpu.saturating_sub(h.replica_ns + flush_ns)), ops),
    );
    out.set("runtime.sequencer_cpu_us_per_op", per(us(sequencer_cpu), ops));
    out.set("runtime.client_cpu_us_per_op", per(us(client_cpu), ops));
    out.set("runtime.runq_wait_us_per_op", per(us(runq_wait), ops));
    let batches = |edge: &[(Addr, MetricsSnapshot)]| -> (u64, u64) {
        edge.iter()
            .filter_map(|(_, m)| m.histograms.get("runtime.batch_events"))
            .fold((0, 0), |(c, s), hist| (c + hist.count, s + hist.sum))
    };
    let (c0, s0) = batches(&run.start.metrics);
    let (c1, s1) = batches(&run.end.metrics);
    out.set("runtime.wakeups_per_op", per((c1 - c0) as f64, ops));
    out.set("runtime.batch_events_mean", per((s1 - s0) as f64, c1 - c0));
    out.set("runtime.unreplicated_rtt_us_p50", unreplicated_rtt_us);
    let send_failed = |edge: &[(Addr, MetricsSnapshot)]| -> u64 {
        edge.iter()
            .filter_map(|(_, m)| m.counters.get("runtime_send_failed"))
            .sum()
    };
    let failed = send_failed(&run.end.metrics).saturating_sub(send_failed(&run.start.metrics));
    out.set("runtime.send_failed", failed as f64);

    // wire: the process-wide payload counters over the window.
    let payload = run.end.payload.since(&run.start.payload);
    out.set("wire.payload_allocs_per_op", per(payload.allocations as f64, ops));
    out.set("wire.payload_bytes_per_op", per(payload.allocated_bytes as f64, ops));
    out.set("wire.payload_clones_per_op", per(payload.clones as f64, ops));

    // store.
    let flush = merged(stores.iter().map(|s| &s.flush));
    let checkpoint = merged(stores.iter().map(|s| &s.put_checkpoint));
    let flushed_bytes: u64 = stores.iter().map(|s| s.flushed_bytes).sum();
    out.set(
        "store.append_us_per_op",
        per(us(stores.iter().map(|s| s.append.ns).sum()), ops),
    );
    out.set("store.flush_us_p50", us(flush.p50));
    out.set("store.flush_us_p99", us(flush.p99));
    out.set("store.flushes_per_op", per(flush.count as f64, ops));
    out.set("store.flushed_bytes_per_op", per(flushed_bytes as f64, ops));
    out.set("store.checkpoint_ms_p50", us(checkpoint.p50) / 1e3);
    out.set("store.checkpoints", checkpoint.count as f64);
    out.set(
        "store.reset_log_ms_p50",
        us(merged(stores.iter().map(|s| &s.reset_log)).p50) / 1e3,
    );

    // app.
    out.set(
        "app.execute_us_per_op",
        per(us(apps.iter().map(|a| a.execute.ns).sum()), ops),
    );
    out.set(
        "app.snapshot_ms_p50",
        us(merged(apps.iter().map(|a| &a.snapshot)).p50) / 1e3,
    );
    out.set("app.undo_count", apps.iter().map(|a| a.undo).sum::<u64>() as f64);

    // aom, neobft.
    let app_ns: u64 = apps.iter().map(|a| a.execute.ns + a.snapshot.ns).sum();
    let store_ns: u64 = stores
        .iter()
        .map(|s| s.append.ns + s.put_checkpoint.ns + s.reset_log.ns)
        .sum();
    drop((stores, apps));
    protocol(
        &mut out,
        &Common {
            handlers: h,
            ops,
            wall_seconds: run.window_seconds(),
            done: &run.completions,
            edges: &run.edges,
            replicas: run.replicas().collect(),
            in_handler_ns: app_ns + store_ns,
            events: Events::between(&run.start.metrics, &run.end.metrics),
            event_ops: ops,
        },
    );

    // The spans: hops and the waterfall.
    let mut spans = spans_of(&run.sinks.nodes, |t| &t.spans);
    spans.extend(spans_of(&run.sinks.stores, |t| &t.spans));
    spans.extend(spans_of(&run.sinks.apps, |t| &t.spans));
    let trace = Trace::new(spans);
    let mut hops = trace.hops();
    hops.sort_unstable();
    if !hops.is_empty() {
        out.set("runtime.hop_us_p50", us(stats::percentile(&hops, 0.5)));
    }
    let waterfall = trace.waterfall();
    out.set("trace.waterfall_sum_us", waterfall.sum_us);
    (trace, waterfall)
}

/// Per-layer metrics of a traced simulator run. Returns the spans.
pub fn sim(run: &SimRun, dispatch_ns_per_event: f64, report: &mut RunReport) -> Trace {
    let mut out = Out(report);
    let ops = run.ops();
    out.set("sim.events", run.events as f64);
    out.set("sim.wall_ns_per_event", per(run.wall().as_nanos() as f64, run.events));
    out.set("sim.dispatch_ns_per_event", dispatch_ns_per_event);
    out.set("sim.events_per_op", per(run.events as f64, ops));
    out.set("sim.net_dropped", run.net.dropped() as f64);

    // Event counts cover the whole simulated run (windowing them would mean
    // snapshotting 150 registries mid-run). Applications are built inside
    // the harness and cannot be wrapped: the replicas' self time includes
    // the echo app here.
    let replicas: Vec<&Replica> = run.replicas().collect();
    let whole_run: Vec<(Addr, MetricsSnapshot)> = (0..replicas.len() as u32)
        .map(|r| Addr::Replica(neobft::wire::ReplicaId(r)))
        .chain((0..run.params.n_clients as u64).map(|c| Addr::Client(neobft::wire::ClientId(c))))
        .filter_map(|a| Some((a, run.sim.metrics_snapshot(a)?)))
        .collect();
    protocol(
        &mut out,
        &Common {
            handlers: handlers(&run.sinks),
            ops,
            wall_seconds: run.wall().as_secs_f64(),
            done: &run.completions,
            edges: &run.edges,
            replicas,
            in_handler_ns: 0,
            events: Events::between(&[], &whole_run),
            event_ops: run.completions.total_completed,
        },
    );
    Trace::new(spans_of(&run.sinks, |t| &t.spans))
}
