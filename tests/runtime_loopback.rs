//! Loopback UDP integration tests for the batched tokio runtime: a real
//! 4-replica NeoBFT group committing requests over 127.0.0.1 sockets,
//! a verify-stage saturation test (serial vs pooled verification must be
//! observably identical, and worker panics must surface as typed
//! errors), plus a direct probe of the executor's event-ordering
//! contract (timers beat delayed sends at equal deadlines, as in the
//! simulator).

use neobft::aom::{AuthMode, ConfigService, SequencerHw, SequencerNode};
use neobft::app::{EchoApp, EchoWorkload};
use neobft::core::{Client, NeoConfig, Replica};
use neobft::crypto::{CostModel, SystemKeys, VerifyPool, VerifyTask};
use neobft::runtime::{AddressBook, RuntimeError};
use neobft::sim::{Context, Node, TimerId};
use neobft::wire::{Addr, ClientId, GroupId, Payload, ReplicaId};
use std::any::Any;
use std::sync::Arc;
use std::time::{Duration, Instant};

const GROUP: GroupId = GroupId(0);

#[test]
fn loopback_group_commits_requests() {
    // Full stack over loopback UDP: config service, software sequencer,
    // f = 1 replica group, one closed-loop client with a fixed op budget.
    let n = 4;
    let ops = 20usize;
    let keys = SystemKeys::new(11, n, 1);
    let cfg = NeoConfig::new(1);
    let dep = AddressBook::builder()
        .replicas(n)
        .clients(1)
        .group(GROUP)
        .base_port(46900)
        .build()
        .expect("deployment fits the port space");

    let mut config = ConfigService::new();
    config.register_group(GROUP, dep.replica_ids(), 1);
    let config_h = dep
        .spawn(Box::new(config), dep.config_service())
        .expect("config service spawns");
    let seq = SequencerNode::new(
        GROUP,
        dep.replica_ids(),
        AuthMode::HmacVector,
        SequencerHw::Software(CostModel::FREE),
        &keys,
    );
    let seq_h = dep
        .spawn(Box::new(seq), dep.sequencer())
        .expect("sequencer spawns");
    let replica_hs: Vec<_> = (0..n as u32)
        .map(|r| {
            let replica = Replica::new(
                ReplicaId(r),
                cfg.clone(),
                &keys,
                CostModel::FREE,
                Box::new(EchoApp::new()),
            );
            dep.spawn(Box::new(replica), dep.replica(r as usize))
                .expect("replica spawns")
        })
        .collect();
    let mut client = Client::new(
        ClientId(0),
        cfg,
        &keys,
        CostModel::FREE,
        Box::new(EchoWorkload::new(32, 7)),
    );
    client.max_ops = Some(ops as u64);
    let client_h = dep
        .spawn(Box::new(client), dep.client(0))
        .expect("client spawns");

    // Poll replica 0's commit events until the op budget is executed
    // (bounded by a generous wall-clock deadline).
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let commits = replica_hs[0]
            .metrics_snapshot()
            .event(neobft::sim::obs::EventKind::Commit);
        if commits >= ops as u64 || Instant::now() > deadline {
            break;
        }
    }
    // Let the last replies reach the client before stopping it.
    std::thread::sleep(Duration::from_millis(200));
    let node = client_h.try_shutdown().expect("client joins");
    let client = node.as_any().downcast_ref::<Client>().unwrap();
    assert_eq!(client.completed.len(), ops, "all loopback ops commit");

    for h in replica_hs {
        // The batched loop dispatched at least one multi-event wakeup's
        // worth of work; the histogram proves the metric is recorded.
        let snap = h.metrics_snapshot();
        let batches = snap
            .histograms
            .get("runtime.batch_events")
            .expect("batch-size histogram recorded");
        assert!(batches.count > 0, "replica recorded batch sizes");
        let node = h.try_shutdown().expect("replica joins");
        let replica = node.as_any().downcast_ref::<Replica>().unwrap();
        assert_eq!(replica.stats.executed, ops as u64);
    }
    seq_h.try_shutdown().expect("sequencer joins");
    config_h.try_shutdown().expect("config service joins");
}

/// One full loopback run: Byzantine-network group (so replica confirm
/// signatures — the work the verify pool parallelizes — are on the
/// critical path) committing `ops` closed-loop client ops, with
/// `verify_workers` pool threads per replica (0 = serial inline).
/// Returns the client's per-request results and every replica's
/// execution digests.
fn run_verify_group(
    base_port: u16,
    verify_workers: usize,
    ops: usize,
) -> (Vec<(u64, Vec<u8>)>, Vec<Vec<Option<u64>>>) {
    let n = 4;
    let keys = SystemKeys::new(11, n, 1);
    let mut cfg = NeoConfig::new(1)
        .with_byzantine_network()
        .with_verify_workers(verify_workers);
    // This test is about verify-lane equivalence, not failover: a node
    // off-CPU past the default 20 ms watchdog starts a sequencer failover,
    // and over UDP the group can lose its progress to it — the run then
    // ends at the deadline below with fewer commits than the serial one
    // (benchmark/README.md B3; EXPERIMENTS.md "Test status").
    cfg.unicast_watchdog_ns = 600 * neobft::sim::SECS;
    let dep = AddressBook::builder()
        .replicas(n)
        .clients(1)
        .group(GROUP)
        .base_port(base_port)
        .build()
        .expect("deployment fits the port space");

    let mut config = ConfigService::new();
    config.register_group(GROUP, dep.replica_ids(), 1);
    let config_h = dep
        .spawn(Box::new(config), dep.config_service())
        .expect("config service spawns");
    let seq = SequencerNode::new(
        GROUP,
        dep.replica_ids(),
        AuthMode::HmacVector,
        SequencerHw::Software(CostModel::FREE),
        &keys,
    );
    let seq_h = dep
        .spawn(Box::new(seq), dep.sequencer())
        .expect("sequencer spawns");
    let replica_hs: Vec<_> = (0..n as u32)
        .map(|r| {
            let replica = Replica::new(
                ReplicaId(r),
                cfg.clone(),
                &keys,
                CostModel::FREE,
                Box::new(EchoApp::new()),
            );
            dep.spawn(Box::new(replica), dep.replica(r as usize))
                .expect("replica spawns")
        })
        .collect();
    let mut client = Client::new(
        ClientId(0),
        cfg,
        &keys,
        CostModel::FREE,
        Box::new(EchoWorkload::new(32, 7)),
    );
    client.max_ops = Some(ops as u64);
    let client_h = dep
        .spawn(Box::new(client), dep.client(0))
        .expect("client spawns");

    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let commits = replica_hs[0]
            .metrics_snapshot()
            .event(neobft::sim::obs::EventKind::Commit);
        if commits >= ops as u64 || Instant::now() > deadline {
            break;
        }
    }
    std::thread::sleep(Duration::from_millis(200));
    let node = client_h.try_shutdown().expect("client joins");
    let client = node.as_any().downcast_ref::<Client>().unwrap();
    let completed: Vec<(u64, Vec<u8>)> = client
        .completed
        .iter()
        .map(|op| (op.request_id.0, op.result.clone().to_vec()))
        .collect();
    let mut digests = Vec::new();
    for h in replica_hs {
        let node = h.try_shutdown().expect("replica joins");
        let replica = node.as_any().downcast_ref::<Replica>().unwrap();
        digests.push(replica.exec_digests().to_vec());
    }
    seq_h.try_shutdown().expect("sequencer joins");
    config_h.try_shutdown().expect("config service joins");
    (completed, digests)
}

#[test]
fn verify_pool_matches_serial_under_saturation() {
    // The same closed-loop workload, three ways: serial inline
    // verification, a 1-worker pool, a 4-worker pool. The pipeline may
    // only change *where* verification runs — commit ordering and every
    // (client, request) → result binding must be identical.
    let ops = 30usize;
    let (serial, serial_digests) = run_verify_group(47200, 0, ops);
    let (pooled1, pooled1_digests) = run_verify_group(47230, 1, ops);
    let (pooled4, pooled4_digests) = run_verify_group(47260, 4, ops);

    assert_eq!(serial.len(), ops, "serial run commits the full budget");
    assert_eq!(
        serial, pooled1,
        "1-worker pool must match serial results exactly"
    );
    assert_eq!(
        serial, pooled4,
        "4-worker pool must match serial results exactly"
    );

    // Safety within each run: every replica that executed a slot agrees
    // on its digest (commit ordering is identical across replicas).
    for digests in [&serial_digests, &pooled1_digests, &pooled4_digests] {
        let r0 = &digests[0];
        for (r, other) in digests.iter().enumerate().skip(1) {
            for (slot, (a, b)) in r0.iter().zip(other.iter()).enumerate() {
                if let (Some(a), Some(b)) = (a, b) {
                    assert_eq!(a, b, "replica {r} diverges at slot {slot}");
                }
            }
        }
    }
    // And across runs: replica 0's executed prefix is the same ordering
    // regardless of verification mode.
    let executed: Vec<Vec<u64>> = [&serial_digests, &pooled1_digests, &pooled4_digests]
        .iter()
        .map(|d| d[0].iter().flatten().copied().collect())
        .collect();
    assert_eq!(executed[0], executed[1], "1-worker ordering matches serial");
    assert_eq!(executed[0], executed[2], "4-worker ordering matches serial");
}

/// A verify task that kills its worker.
struct PanickingTask;
impl VerifyTask for PanickingTask {
    fn run(&mut self) {
        panic!("injected verify-worker panic");
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// A node that submits a panicking task to its pool on INIT.
struct PoisonNode {
    pool: Arc<VerifyPool>,
}

impl Node for PoisonNode {
    fn on_message(&mut self, _from: Addr, _payload: &[u8], _ctx: &mut dyn Context) {}
    fn on_timer(&mut self, _id: TimerId, kind: u32, _ctx: &mut dyn Context) {
        if kind == neobft::sim::sim::INIT_TIMER_KIND {
            self.pool.submit(0, Box::new(PanickingTask));
        }
    }
    fn verify_pool(&self) -> Option<Arc<VerifyPool>> {
        Some(self.pool.clone())
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn poisoned_verify_pool_surfaces_as_typed_error() {
    let dep = AddressBook::builder()
        .replicas(1)
        .clients(0)
        .group(GROUP)
        .base_port(47290)
        .build()
        .expect("deployment fits the port space");
    let node = PoisonNode {
        pool: Arc::new(VerifyPool::new(2)),
    };
    let h = dep
        .spawn(Box::new(node), dep.replica(0))
        .expect("node spawns");

    // The worker panic must stop the node loop promptly — no hang.
    let deadline = Instant::now() + Duration::from_secs(5);
    while !h.verify_poisoned() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(h.verify_poisoned(), "poisoning is observable on the handle");
    let Err(err) = h.try_shutdown() else {
        panic!("shutdown reports the poisoning");
    };
    assert!(
        matches!(err, RuntimeError::VerifyPoolPoisoned(addr) if addr == dep.replica(0)),
        "typed error names the node: {err}"
    );
}

/// On INIT, schedules payload `A` with `send_after(delay)` and a timer at
/// the *same* delay whose handler sends `B` immediately. The executor's
/// tie-break (timers before delayed sends at equal deadlines) means the
/// peer must observe `B` before `A`.
struct TieBreakSender {
    peer: Addr,
}

impl Node for TieBreakSender {
    fn on_message(&mut self, _from: Addr, _payload: &[u8], _ctx: &mut dyn Context) {}
    fn on_timer(&mut self, _id: TimerId, kind: u32, ctx: &mut dyn Context) {
        const DELAY_NS: u64 = 50_000_000; // 50 ms
        if kind == neobft::sim::sim::INIT_TIMER_KIND {
            ctx.send_after(self.peer, Payload::copy_from_slice(b"A"), DELAY_NS);
            ctx.set_timer(DELAY_NS, 7);
        } else {
            ctx.send(self.peer, Payload::copy_from_slice(b"B"));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Records the first byte of every datagram it receives, in order.
struct Recorder {
    order: Vec<u8>,
}

impl Node for Recorder {
    fn on_message(&mut self, _from: Addr, payload: &[u8], _ctx: &mut dyn Context) {
        if let Some(b) = payload.first() {
            self.order.push(*b);
        }
    }
    fn on_timer(&mut self, _id: TimerId, _kind: u32, _ctx: &mut dyn Context) {}
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// On INIT, sends `X` twice to an address missing from the book (both
/// sends fail) and `Y` once to its peer.
struct FlakySender {
    peer: Addr,
    missing: Addr,
}

impl Node for FlakySender {
    fn on_message(&mut self, _from: Addr, _payload: &[u8], _ctx: &mut dyn Context) {}
    fn on_timer(&mut self, _id: TimerId, kind: u32, ctx: &mut dyn Context) {
        if kind == neobft::sim::sim::INIT_TIMER_KIND {
            ctx.send(self.missing, Payload::copy_from_slice(b"X"));
            ctx.send(self.missing, Payload::copy_from_slice(b"X"));
            ctx.send(self.peer, Payload::copy_from_slice(b"Y"));
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn send_failures_are_labeled_and_flight_recorder_captures_packets() {
    use neobft::runtime::{try_spawn_node_with_obs, ObsExporter};
    use neobft::sim::obs::ObsConfig;

    let dep = AddressBook::builder()
        .replicas(2)
        .clients(0)
        .group(GROUP)
        .base_port(46930)
        .build()
        .expect("deployment fits the port space");
    let missing = Addr::Client(ClientId(9));
    let obs = ObsConfig::flight_recorder();
    let recorder_h = try_spawn_node_with_obs(
        Box::new(Recorder { order: Vec::new() }),
        dep.replica(1),
        dep.book().clone(),
        obs,
    )
    .expect("recorder spawns");
    let sender_h = try_spawn_node_with_obs(
        Box::new(FlakySender {
            peer: dep.replica(1),
            missing,
        }),
        dep.replica(0),
        dep.book().clone(),
        obs,
    )
    .expect("sender spawns");

    let stream_path = std::env::temp_dir().join(format!("obs-stream-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&stream_path);
    let exporter = ObsExporter::start(
        vec![recorder_h.reporter(), sender_h.reporter()],
        &stream_path,
        Duration::from_millis(25),
    )
    .expect("exporter starts");

    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let delivered = !recorder_h.report().packets.is_empty();
        let failed = sender_h.metrics().counter("runtime_send_failed") >= 2;
        if (delivered && failed) || Instant::now() > deadline {
            break;
        }
    }

    // The global total and the per-destination label agree, and the
    // label names the unreachable peer.
    let snap = sender_h.metrics_snapshot();
    assert_eq!(snap.counters.get("runtime_send_failed"), Some(&2));
    assert_eq!(snap.counters.get("runtime.send_failed.c9"), Some(&2));
    assert!(!snap.counters.contains_key("runtime.send_failed.r1"));

    // The receive path digested the delivered datagram.
    let report = recorder_h.report();
    let pkt = report.packets.last().expect("packet digested");
    assert_eq!(
        (pkt.from, pkt.to, pkt.len),
        (dep.replica(0), dep.replica(1), 1)
    );
    assert_eq!(pkt.digest, neobft::sim::obs::fnv1a(b"Y"));

    // Stopping the exporter flushes a final batch; the stream parses as
    // one NodeReport per node per tick.
    exporter.stop();
    let text = std::fs::read_to_string(&stream_path).expect("stream written");
    let lines: Vec<neobft::sim::obs::NodeReport> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("valid JSONL"))
        .collect();
    assert!(lines.len() >= 2, "at least one tick per node");
    assert!(lines
        .iter()
        .any(|l| l.node == dep.replica(0)
            && l.snapshot.counters.get("runtime_send_failed") == Some(&2)));
    let _ = std::fs::remove_file(&stream_path);

    recorder_h.try_shutdown().expect("recorder joins");
    sender_h.try_shutdown().expect("sender joins");
}

/// Minimal HTTP/1.1 GET against a `TelemetryServer` (it closes the
/// connection after one response, so read-to-end delimits the body).
fn http_get(addr: std::net::SocketAddr, path: &str) -> (String, String) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect telemetry");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout");
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\n\r\n"
    )
    .expect("send request");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("read response");
    let (head, body) = raw.split_once("\r\n\r\n").expect("well-formed response");
    (head.to_string(), body.to_string())
}

/// Pull `neobft_events_total{node="<node>",kind="commit"} N` out of a
/// Prometheus exposition body.
fn scraped_commits(body: &str, node: &str) -> u64 {
    let needle = format!("neobft_events_total{{node=\"{node}\",kind=\"commit\"}} ");
    body.lines()
        .find_map(|l| l.strip_prefix(needle.as_str()))
        .map_or(0, |v| v.parse().expect("integer sample"))
}

#[test]
fn telemetry_endpoint_serves_live_scrapes_and_health() {
    use neobft::sim::obs::NodeReport;
    use neobft::sim::TelemetryServer;

    // Same full loopback stack as `loopback_group_commits_requests`,
    // plus a scrape endpoint over every handle.
    let n = 4;
    let ops = 20usize;
    let keys = SystemKeys::new(11, n, 1);
    let cfg = NeoConfig::new(1);
    let dep = AddressBook::builder()
        .replicas(n)
        .clients(1)
        .group(GROUP)
        .base_port(47350)
        .build()
        .expect("deployment fits the port space");

    let mut config = ConfigService::new();
    config.register_group(GROUP, dep.replica_ids(), 1);
    let config_h = dep
        .spawn(Box::new(config), dep.config_service())
        .expect("config service spawns");
    let seq = SequencerNode::new(
        GROUP,
        dep.replica_ids(),
        AuthMode::HmacVector,
        SequencerHw::Software(CostModel::FREE),
        &keys,
    );
    let seq_h = dep
        .spawn(Box::new(seq), dep.sequencer())
        .expect("sequencer spawns");
    let replica_hs: Vec<_> = (0..n as u32)
        .map(|r| {
            let replica = Replica::new(
                ReplicaId(r),
                cfg.clone(),
                &keys,
                CostModel::FREE,
                Box::new(EchoApp::new()),
            );
            dep.spawn(Box::new(replica), dep.replica(r as usize))
                .expect("replica spawns")
        })
        .collect();
    let mut client = Client::new(
        ClientId(0),
        cfg,
        &keys,
        CostModel::FREE,
        Box::new(EchoWorkload::new(32, 7)),
    );
    client.max_ops = Some(ops as u64);
    let client_h = dep
        .spawn(Box::new(client), dep.client(0))
        .expect("client spawns");

    let source: Vec<_> = replica_hs
        .iter()
        .chain([&seq_h, &config_h, &client_h])
        .map(|h| h.reporter())
        .collect();
    // Port 0: the OS picks a free port, so this test cannot collide
    // with the fixed loopback port ranges used elsewhere in this file.
    let server = TelemetryServer::start("127.0.0.1:0", Arc::new(source)).expect("telemetry binds");
    let addr = server.local_addr();

    // First scrape as soon as anything commits; second after the full
    // op budget — the counter must advance between live scrapes.
    let deadline = Instant::now() + Duration::from_secs(10);
    let early = loop {
        std::thread::sleep(Duration::from_millis(50));
        let (head, body) = http_get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "scrape ok: {head}");
        if scraped_commits(&body, "r0") > 0 || Instant::now() > deadline {
            break scraped_commits(&body, "r0");
        }
    };
    assert!(early > 0, "a commit was scraped before the deadline");
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let commits = replica_hs[0]
            .metrics_snapshot()
            .event(neobft::sim::obs::EventKind::Commit);
        if commits >= ops as u64 || Instant::now() > deadline {
            break;
        }
    }
    let (head, body) = http_get(addr, "/metrics");
    assert!(head.starts_with("HTTP/1.1 200"), "scrape ok: {head}");
    let late = scraped_commits(&body, "r0");
    assert!(
        late >= ops as u64 && late >= early,
        "commit counter advances across scrapes ({early} -> {late})"
    );
    // Exposition shape: typed families, per-node samples.
    assert!(body.contains("# TYPE neobft_events_total counter"));
    assert!(body.contains("# TYPE neobft_replica_messages_in_total counter"));
    assert!(body.contains("node=\"c0\""), "client registry is scraped");

    // Health: every node reports; replicas carry a protocol document
    // published by the node loop itself.
    std::thread::sleep(Duration::from_millis(300)); // one HEALTH_REFRESH past the last commit
    let (head, body) = http_get(addr, "/health");
    assert!(head.starts_with("HTTP/1.1 200"), "health ok: {head}");
    let docs: Vec<serde_json::Value> = serde_json::from_str(&body).expect("health is JSON");
    assert_eq!(docs.len(), n + 3, "one document per registered handle");
    let r0 = docs
        .iter()
        .find(|d| d["node"].as_str() == Some("r0"))
        .expect("replica 0 reports");
    assert_eq!(r0["healthy"].as_bool(), Some(true));
    assert!(r0["committed"].as_u64().expect("committed count") >= ops as u64);
    assert_eq!(
        r0["protocol"]["role"].as_str(),
        Some("replica"),
        "protocol doc: {r0}"
    );

    // The JSON route serves the same reports the other two render: with
    // the client done, replica 0's commit count reads the same on all.
    let (head, body) = http_get(addr, "/reports");
    assert!(head.starts_with("HTTP/1.1 200"), "reports ok: {head}");
    let reports: Vec<NodeReport> = serde_json::from_str(&body).expect("reports are JSON");
    assert_eq!(reports.len(), n + 3);
    let r0_report = reports
        .iter()
        .find(|r| r.node == dep.replica(0))
        .expect("replica 0 reports");
    let (_, metrics) = http_get(addr, "/metrics");
    assert_eq!(
        r0_report
            .snapshot
            .event(neobft::sim::obs::EventKind::Commit),
        scraped_commits(&metrics, "r0"),
        "/reports and /metrics agree"
    );
    assert_eq!(
        r0_report.health.as_ref().map(|h| h.committed),
        r0["committed"].as_u64(),
        "/reports and /health agree"
    );

    drop(server);
    for h in replica_hs {
        h.try_shutdown().expect("replica joins");
    }
    client_h.try_shutdown().expect("client joins");
    seq_h.try_shutdown().expect("sequencer joins");
    config_h.try_shutdown().expect("config service joins");
}

/// On INIT, sends one datagram to each of 16 distinct missing clients —
/// twice the send-failure label cap.
struct ScatterSender;

impl Node for ScatterSender {
    fn on_message(&mut self, _from: Addr, _payload: &[u8], _ctx: &mut dyn Context) {}
    fn on_timer(&mut self, _id: TimerId, kind: u32, ctx: &mut dyn Context) {
        if kind == neobft::sim::sim::INIT_TIMER_KIND {
            for c in 20..36 {
                ctx.send(Addr::Client(ClientId(c)), Payload::copy_from_slice(b"X"));
            }
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn send_failure_labels_are_cardinality_bounded() {
    use neobft::runtime::try_spawn_node_with_obs;
    use neobft::sim::obs::ObsConfig;

    let dep = AddressBook::builder()
        .replicas(1)
        .clients(0)
        .group(GROUP)
        .base_port(47380)
        .build()
        .expect("deployment fits the port space");
    let h = try_spawn_node_with_obs(
        Box::new(ScatterSender),
        dep.replica(0),
        dep.book().clone(),
        ObsConfig::default(),
    )
    .expect("sender spawns");

    let deadline = Instant::now() + Duration::from_secs(5);
    while h.metrics().counter("runtime_send_failed") < 16 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
    }
    let snap = h.metrics_snapshot();
    assert_eq!(snap.counters.get("runtime_send_failed"), Some(&16));
    // The first 8 distinct destinations own labels; the other 8 share
    // the overflow bucket, so the family cannot grow with the address
    // space an adversarial roster names.
    let labeled: Vec<&String> = snap
        .counters
        .keys()
        .filter(|k| k.starts_with("runtime.send_failed.") && !k.ends_with(".other"))
        .collect();
    assert_eq!(labeled.len(), 8, "label cap holds: {labeled:?}");
    assert_eq!(snap.counters.get("runtime.send_failed.other"), Some(&8));

    h.try_shutdown().expect("sender joins");
}

#[test]
fn timer_beats_delayed_send_at_equal_deadline() {
    let dep = AddressBook::builder()
        .replicas(2)
        .clients(0)
        .group(GROUP)
        .base_port(46960)
        .build()
        .expect("deployment fits the port space");
    let recorder_addr = dep.replica(1);
    let sender = TieBreakSender {
        peer: recorder_addr,
    };
    let recorder_h = dep
        .spawn(Box::new(Recorder { order: Vec::new() }), recorder_addr)
        .expect("recorder spawns");
    let sender_h = dep
        .spawn(Box::new(sender), dep.replica(0))
        .expect("sender spawns");

    // Both deliveries are due 50 ms after INIT. The recorder's batch
    // histogram sums dispatched events (its own INIT plus the two
    // datagrams), so poll it instead of sleeping a fixed budget.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        std::thread::sleep(Duration::from_millis(50));
        let events_dispatched = recorder_h
            .metrics_snapshot()
            .histograms
            .get("runtime.batch_events")
            .map(|h| h.sum)
            .unwrap_or(0);
        if events_dispatched >= 3 || Instant::now() > deadline {
            break;
        }
    }
    let node = recorder_h.try_shutdown().expect("recorder joins");
    let recorder = node.as_any().downcast_ref::<Recorder>().unwrap();
    assert_eq!(
        recorder.order,
        vec![b'B', b'A'],
        "timer-driven send must be flushed before the delayed send due at \
         the same deadline"
    );
    sender_h.try_shutdown().expect("sender joins");
}
