//! Real transport: the same sans-IO nodes that run under the simulator,
//! driven by tokio over UDP sockets.
//!
//! Each node gets its own OS thread running a single-threaded tokio
//! runtime (so nodes never migrate threads and need no internal
//! locking, mirroring the paper's one-dispatch-thread replica design).
//! An [`AddressBook`] maps logical [`Addr`]esses to socket addresses;
//! `Addr::Multicast(g)` maps to the group's sequencer socket, exactly
//! like the BGP-advertised group address of §4.1.
//!
//! Deployments are described with [`AddressBook::builder`], which lays
//! out a cluster without hand-rolled port arithmetic, and nodes are
//! spawned with the fallible [`try_spawn_node`] — lookup and bind
//! failures come back as a [`RuntimeError`] instead of a panic.
//!
//! The node loop is *batched*: each turn handles every due timer and
//! delayed send, then up to `RECV_BURST` ready packets, through one
//! reused [`RtCtx`] (its effect buffers are cleared between events, never
//! reallocated). An event's sends leave the socket as soon as its handler
//! returns — unless the node's durable store is dirty: then they queue
//! until the turn's durability point, where one batched fsync (timed into
//! `store.fsync_ns`) covers every event of the turn before any of their
//! sends is released, so no acknowledgment outruns the write-ahead log.
//! Payloads are
//! [`neo_wire::Payload`]s end to end, so a broadcast that fans out to
//! the whole group costs one encode regardless of group size. Batch
//! sizes and send failures are recorded in the node's metrics registry
//! (`runtime.batch_events`; `runtime_send_failed` totals across all
//! destinations, `runtime.send_failed.<addr>` counts per destination so
//! a single unreachable peer is attributable from the counters alone —
//! bounded at `SEND_FAIL_LABEL_CAP` distinct destinations, with the
//! overflow sharing `runtime.send_failed.other`).
//!
//! Observability: spawn with [`try_spawn_node_with_obs`] and
//! [`ObsConfig::flight_recorder`] to keep per-node event/packet rings.
//! Every view of a running node is its [`NodeReport`]
//! ([`NodeHandle::report`]); a [`NodeReporter`] is the reading half of a
//! handle and a [`ReportSource`], as is a `Vec` of them — hand that
//! to a [`TelemetryServer`](neo_sim::telemetry::TelemetryServer) for live
//! scraping, or to an [`ObsExporter`] to stream periodic JSONL. A report
//! snapshots the registry when it is asked for; what only the node loop
//! can see (the protocol's own health, the verify stage) it publishes
//! every `HEALTH_REFRESH`.

use neo_sim::obs::{
    write_jsonl, ExecSignals, Metrics, MetricsSnapshot, NodeHealth, NodeReport, ObsConfig,
    ReportSource, TraceRead,
};
use neo_sim::{Context, Node, TimerId};
use neo_wire::{Addr, ClientId, GroupId, Payload, ReplicaId};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::net::{IpAddr, SocketAddr};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use tokio::net::UdpSocket;

/// Errors surfaced by the deployment and spawn APIs.
#[derive(Debug, thiserror::Error)]
pub enum RuntimeError {
    /// The logical address is not registered in the [`AddressBook`].
    #[error("no socket address registered for {0}")]
    UnknownAddress(Addr),
    /// The node's UDP socket could not be bound or configured.
    #[error("failed to bind UDP socket for {addr}")]
    Bind {
        addr: Addr,
        #[source]
        source: std::io::Error,
    },
    /// The per-node OS thread could not be spawned.
    #[error("failed to spawn node thread")]
    Spawn(#[source] std::io::Error),
    /// The node's thread panicked before or during shutdown.
    #[error("node thread for {0} panicked")]
    NodePanicked(Addr),
    /// A verify-pool worker panicked. The node loop stops as soon as it
    /// notices (the pool keeps absorbing submissions inline so nothing
    /// hangs), and the poisoning surfaces here instead of as a wedged
    /// deployment.
    #[error("verify pool for {0} was poisoned by a panicked worker")]
    VerifyPoolPoisoned(Addr),
    /// The handle was already shut down.
    #[error("node {0} already shut down")]
    AlreadyJoined(Addr),
    /// The deployment does not fit in the port range above `base_port`.
    #[error(
        "deployment needs {needed} ports but only {available} are available above {base_port}"
    )]
    PortSpace {
        base_port: u16,
        needed: usize,
        available: usize,
    },
}

/// Logical address ↔ socket address mapping for a deployment.
#[derive(Clone, Debug, Default)]
pub struct AddressBook {
    forward: HashMap<Addr, SocketAddr>,
    reverse: HashMap<SocketAddr, Addr>,
}

impl AddressBook {
    /// An empty book.
    pub fn new() -> Self {
        Self::default()
    }

    /// Describe a deployment without hand-rolling port arithmetic:
    /// `AddressBook::builder().replicas(4).clients(2).build()?`.
    pub fn builder() -> DeploymentBuilder {
        DeploymentBuilder::default()
    }

    /// Register a node.
    pub fn insert(&mut self, addr: Addr, sock: SocketAddr) {
        self.forward.insert(addr, sock);
        self.reverse.insert(sock, addr);
    }

    /// A localhost deployment: `n` replicas, `clients` clients, one
    /// sequencer and the config service, on consecutive ports starting
    /// at `base_port`.
    pub fn localhost(n: usize, clients: usize, group: GroupId, base_port: u16) -> Self {
        Self::builder()
            .replicas(n)
            .clients(clients)
            .group(group)
            .base_port(base_port)
            .build()
            .expect("deployment fits the port space")
            .into_book()
    }

    /// Socket address of a logical node.
    pub fn lookup(&self, addr: Addr) -> Option<SocketAddr> {
        self.forward.get(&addr).copied()
    }

    /// Logical address of a socket.
    pub fn resolve(&self, sock: SocketAddr) -> Option<Addr> {
        self.reverse.get(&sock).copied()
    }
}

/// Builder for a [`Deployment`]: replicas, clients, one sequencer, and
/// the config service on consecutive ports.
#[derive(Clone, Debug)]
pub struct DeploymentBuilder {
    replicas: usize,
    clients: usize,
    group: GroupId,
    base_port: u16,
    host: IpAddr,
}

impl Default for DeploymentBuilder {
    fn default() -> Self {
        DeploymentBuilder {
            replicas: 4,
            clients: 1,
            group: GroupId(0),
            base_port: 47000,
            host: IpAddr::from([127, 0, 0, 1]),
        }
    }
}

impl DeploymentBuilder {
    /// Number of replicas (default 4, the paper's f = 1 group).
    pub fn replicas(mut self, n: usize) -> Self {
        self.replicas = n;
        self
    }

    /// Number of client processes (default 1).
    pub fn clients(mut self, n: usize) -> Self {
        self.clients = n;
        self
    }

    /// The aom group id (default 0).
    pub fn group(mut self, group: GroupId) -> Self {
        self.group = group;
        self
    }

    /// First port of the consecutive range (default 47000).
    pub fn base_port(mut self, port: u16) -> Self {
        self.base_port = port;
        self
    }

    /// Host every node binds on (default 127.0.0.1).
    pub fn host(mut self, host: IpAddr) -> Self {
        self.host = host;
        self
    }

    /// Lay out the address book. Fails with [`RuntimeError::PortSpace`]
    /// if the cluster does not fit above `base_port`.
    pub fn build(self) -> Result<Deployment, RuntimeError> {
        let needed = self.replicas + self.clients + 2;
        let available = usize::from(u16::MAX - self.base_port) + 1;
        if needed > available {
            return Err(RuntimeError::PortSpace {
                base_port: self.base_port,
                needed,
                available,
            });
        }
        let mut book = AddressBook::new();
        let mut port = self.base_port;
        let mut next = |a: Addr, book: &mut AddressBook| {
            book.insert(a, SocketAddr::new(self.host, port));
            port += 1;
        };
        for r in 0..self.replicas as u32 {
            next(Addr::Replica(ReplicaId(r)), &mut book);
        }
        for c in 0..self.clients as u64 {
            next(Addr::Client(ClientId(c)), &mut book);
        }
        next(Addr::Sequencer(self.group), &mut book);
        next(Addr::Config, &mut book);
        // The multicast group address routes to the sequencer (§3.2).
        let seq = book.forward[&Addr::Sequencer(self.group)];
        book.forward.insert(Addr::Multicast(self.group), seq);
        Ok(Deployment {
            book,
            group: self.group,
            replicas: self.replicas,
            clients: self.clients,
        })
    }
}

/// A laid-out deployment: the address book plus the logical roster, with
/// helpers for naming nodes and spawning them.
#[derive(Clone, Debug)]
pub struct Deployment {
    book: AddressBook,
    group: GroupId,
    replicas: usize,
    clients: usize,
}

impl Deployment {
    /// The address book (cloned into each spawned node).
    pub fn book(&self) -> &AddressBook {
        &self.book
    }

    /// Consume the deployment, keeping only the book.
    pub fn into_book(self) -> AddressBook {
        self.book
    }

    /// Number of replicas in the roster.
    pub fn replicas(&self) -> usize {
        self.replicas
    }

    /// Number of clients in the roster.
    pub fn clients(&self) -> usize {
        self.clients
    }

    /// The aom group id.
    pub fn group(&self) -> GroupId {
        self.group
    }

    /// All replica ids, in order (the membership list protocol nodes are
    /// configured with).
    pub fn replica_ids(&self) -> Vec<ReplicaId> {
        (0..self.replicas as u32).map(ReplicaId).collect()
    }

    /// Logical address of replica `i`.
    pub fn replica(&self, i: usize) -> Addr {
        Addr::Replica(ReplicaId(i as u32))
    }

    /// Logical address of client `i`.
    pub fn client(&self, i: usize) -> Addr {
        Addr::Client(ClientId(i as u64))
    }

    /// Logical address of the group's sequencer.
    pub fn sequencer(&self) -> Addr {
        Addr::Sequencer(self.group)
    }

    /// Logical address of the configuration service.
    pub fn config_service(&self) -> Addr {
        Addr::Config
    }

    /// Spawn `node` under `addr` with this deployment's book.
    pub fn spawn(&self, node: Box<dyn Node>, addr: Addr) -> Result<NodeHandle, RuntimeError> {
        try_spawn_node(node, addr, self.book.clone())
    }
}

/// What a node loop publishes for its reports: the state only it can see.
type Published = Mutex<(Option<NodeHealth>, ExecSignals)>;

/// The reading half of a [`NodeHandle`]: builds the node's [`NodeReport`]
/// on request, is cheap to clone, and stays valid after the handle shut
/// down (the last published state keeps being served).
#[derive(Clone)]
pub struct NodeReporter {
    addr: Addr,
    start: Instant,
    metrics: Arc<Metrics>,
    published: Arc<Published>,
}

impl NodeReporter {
    /// The node's report now, on the clock its events carry (nanoseconds
    /// since the node started): the registry is snapshotted here, the
    /// protocol and verify-stage health are what the loop last published.
    pub fn report(&self, trace: TraceRead) -> NodeReport {
        let (protocol, exec) = match self.published.lock() {
            Ok(g) => g.clone(),
            Err(p) => p.into_inner().clone(),
        };
        let at = self.start.elapsed().as_nanos() as u64;
        NodeReport::build(at, self.addr, &self.metrics, protocol, exec, trace)
    }
}

impl ReportSource for NodeReporter {
    fn reports(&self) -> Vec<NodeReport> {
        vec![self.report(TraceRead::Copy)]
    }
}

/// Handle to a spawned node; dropping does not stop it — call
/// [`NodeHandle::try_shutdown`].
pub struct NodeHandle {
    stop: Arc<AtomicBool>,
    poisoned: Arc<AtomicBool>,
    join: Option<std::thread::JoinHandle<Box<dyn Node>>>,
    reporter: NodeReporter,
    /// The node's logical address.
    pub addr: Addr,
}

impl NodeHandle {
    /// Signal the node loop to stop and wait for it, returning the node
    /// (so callers can inspect final state, e.g. client completions).
    /// A node whose verify pool was poisoned by a panicking worker joins
    /// cleanly but surfaces [`RuntimeError::VerifyPoolPoisoned`].
    pub fn try_shutdown(mut self) -> Result<Box<dyn Node>, RuntimeError> {
        self.stop.store(true, Ordering::SeqCst);
        let join = self
            .join
            .take()
            .ok_or(RuntimeError::AlreadyJoined(self.addr))?;
        let node = join
            .join()
            .map_err(|_| RuntimeError::NodePanicked(self.addr))?;
        if self.poisoned.load(Ordering::SeqCst) {
            return Err(RuntimeError::VerifyPoolPoisoned(self.addr));
        }
        Ok(node)
    }

    /// Whether the node's verify pool has been poisoned (readable while
    /// the node runs — the loop stops itself shortly after this flips).
    pub fn verify_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::SeqCst)
    }

    /// The node's live metrics registry (readable while the node runs).
    pub fn metrics(&self) -> &Metrics {
        &self.reporter.metrics
    }

    /// Snapshot the node's metrics.
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.reporter.metrics.snapshot()
    }

    /// The node's report now, rings copied — readable while the node runs.
    pub fn report(&self) -> NodeReport {
        self.reporter.report(TraceRead::Copy)
    }

    /// The reading half of this handle, for a [`ReportSource`] or an
    /// [`ObsExporter`].
    pub fn reporter(&self) -> NodeReporter {
        self.reporter.clone()
    }
}

/// Live metrics exporter: a background thread that appends one
/// [`NodeReport`] JSON line per node per period to a file. Each line
/// drains that node's trace ring, so the stream's lines concatenate
/// into a complete bounded-loss event log of the run.
pub struct ObsExporter {
    stop: std::sync::mpsc::Sender<()>,
    join: Option<std::thread::JoinHandle<()>>,
}

impl ObsExporter {
    /// Start exporting `nodes` to `path` (created or appended) every
    /// `period`. File-open errors surface here; later write errors stop
    /// the stream without disturbing the nodes.
    pub fn start(
        nodes: Vec<NodeReporter>,
        path: &std::path::Path,
        period: Duration,
    ) -> std::io::Result<ObsExporter> {
        let file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)?;
        let (stop, rx) = std::sync::mpsc::channel::<()>();
        let join = std::thread::Builder::new()
            .name("obs-exporter".into())
            .spawn(move || {
                let mut w = std::io::BufWriter::new(file);
                loop {
                    // recv_timeout is the ticker *and* the stop signal:
                    // a stop request flushes one final snapshot batch
                    // instead of losing the tail.
                    let stopping = !matches!(
                        rx.recv_timeout(period),
                        Err(std::sync::mpsc::RecvTimeoutError::Timeout)
                    );
                    let reports: Vec<NodeReport> =
                        nodes.iter().map(|n| n.report(TraceRead::Drain)).collect();
                    if write_jsonl(&mut w, &reports).is_err() || stopping {
                        return;
                    }
                }
            })?;
        Ok(ObsExporter {
            stop,
            join: Some(join),
        })
    }

    /// Stop the exporter after one final snapshot batch and wait for it.
    pub fn stop(mut self) {
        let _ = self.stop.send(());
        if let Some(join) = self.join.take() {
            let _ = join.join();
        }
    }
}

/// The executor-side [`Context`]: one instance lives for the whole node
/// loop and is reused across events — `clear_effects` empties the
/// buffers but keeps their allocations, so a steady-state node dispatches
/// without allocating effect storage.
struct RtCtx {
    start: Instant,
    me: Addr,
    sends: Vec<(Addr, Payload, u64)>,
    timers: Vec<(u64, u32, TimerId)>,
    cancels: Vec<TimerId>,
    next_timer: u64,
    metrics: Arc<Metrics>,
}

impl RtCtx {
    /// Drop accumulated effects, retaining buffer capacity for reuse.
    fn clear_effects(&mut self) {
        self.sends.clear();
        self.timers.clear();
        self.cancels.clear();
    }
}

impl Context for RtCtx {
    fn now(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
    fn me(&self) -> Addr {
        self.me
    }
    fn send_after(&mut self, to: Addr, payload: Payload, extra_delay: u64) {
        self.sends.push((to, payload, extra_delay));
    }
    fn set_timer(&mut self, delay: u64, kind: u32) -> TimerId {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        self.timers.push((delay, kind, id));
        id
    }
    fn cancel_timer(&mut self, timer: TimerId) {
        self.cancels.push(timer);
    }
    fn charge(&mut self, _ns: u64) {
        // Real time: work costs what it costs.
    }
    fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

/// Spawn `node` under `me`, bound to its socket from the book, with
/// metrics on and the event trace off.
///
/// The socket is bound *before* the thread starts, so address-lookup and
/// bind failures surface here instead of panicking the node thread.
pub fn try_spawn_node(
    node: Box<dyn Node>,
    me: Addr,
    book: AddressBook,
) -> Result<NodeHandle, RuntimeError> {
    try_spawn_node_with_obs(node, me, book, ObsConfig::default())
}

/// [`try_spawn_node`] with explicit observability configuration.
pub fn try_spawn_node_with_obs(
    node: Box<dyn Node>,
    me: Addr,
    book: AddressBook,
    obs: ObsConfig,
) -> Result<NodeHandle, RuntimeError> {
    let bind = book.lookup(me).ok_or(RuntimeError::UnknownAddress(me))?;
    let sock = std::net::UdpSocket::bind(bind)
        .map_err(|source| RuntimeError::Bind { addr: me, source })?;
    sock.set_nonblocking(true)
        .map_err(|source| RuntimeError::Bind { addr: me, source })?;
    let stop = Arc::new(AtomicBool::new(false));
    let poisoned = Arc::new(AtomicBool::new(false));
    let reporter = NodeReporter {
        addr: me,
        start: Instant::now(),
        metrics: Arc::new(Metrics::new(obs)),
        published: Arc::default(),
    };
    let stop2 = stop.clone();
    let poisoned2 = poisoned.clone();
    let reporter2 = reporter.clone();
    let join = std::thread::Builder::new()
        .name(format!("{me}"))
        .spawn(move || run_node(node, book, sock, stop2, poisoned2, reporter2))
        .map_err(RuntimeError::Spawn)?;
    Ok(NodeHandle {
        stop,
        poisoned,
        join: Some(join),
        reporter,
        addr: me,
    })
}

/// Pending timers: `(deadline_ns, seq, timer_id, kind)`; seq breaks ties
/// FIFO.
type TimerHeap = BinaryHeap<Reverse<(u64, u64, u64, u32)>>;

/// Delayed sends (`send_after` with a positive delay):
/// `(due_ns, tiebreak, destination, payload)`.
type DelayedHeap = BinaryHeap<Reverse<(u64, u64, Addr, Payload)>>;

/// Move one event's effects out of the reused `ctx` into the loop's
/// queues: cancels into the tombstone set, new timers onto the timer
/// heap, immediate sends onto the `out` queue (see [`Outbox::release`]),
/// and delayed sends onto the delayed heap. Clears `ctx`'s buffers
/// keeping their capacity.
fn drain_effects(
    ctx: &mut RtCtx,
    timers: &mut TimerHeap,
    delayed: &mut DelayedHeap,
    cancelled: &mut HashSet<TimerId>,
    out: &mut Vec<(Addr, Payload)>,
    timer_seq: &mut u64,
) {
    let now_ns = ctx.start.elapsed().as_nanos() as u64;
    for id in ctx.cancels.drain(..) {
        cancelled.insert(id);
    }
    for (delay, kind, id) in ctx.timers.drain(..) {
        *timer_seq += 1;
        timers.push(Reverse((now_ns + delay, *timer_seq, id.0, kind)));
    }
    for (to, payload, extra) in ctx.sends.drain(..) {
        if extra == 0 {
            out.push((to, payload));
        } else {
            *timer_seq += 1;
            delayed.push(Reverse((now_ns + extra, *timer_seq, to, payload)));
        }
    }
    ctx.clear_effects();
}

/// How often the node loop refreshes what it publishes for its reports
/// (scrape cadence is seconds; the refresh asks the node for its health,
/// so it runs at a coarse cadence instead of per batch).
const HEALTH_REFRESH: Duration = Duration::from_millis(200);

/// Cardinality bound for `runtime.send_failed.<addr>`: the first few
/// failing destinations get their own per-destination counter; every
/// further destination shares `runtime.send_failed.other`, so the metric
/// family cannot grow with the address space a misconfigured book (or an
/// adversarial roster) names.
const SEND_FAIL_LABEL_CAP: usize = 8;

/// Datagrams handled per loop turn. Sustained input must not starve what
/// follows the receive phase — due timers (a zero-delay timer means
/// "when the ready input is drained"), verify completions, the store
/// flush, held sends, the stop flag — so the phase ends after this many
/// and the loop comes back for the rest on its next turn.
const RECV_BURST: usize = 64;

/// The node loop's sending half: the sends that await release, and the
/// failure accounting every release shares.
struct Outbox<'a> {
    me: Addr,
    sock: &'a UdpSocket,
    book: &'a AddressBook,
    metrics: &'a Metrics,
    /// Immediate sends, in the order events produced them.
    queue: Vec<(Addr, Payload)>,
    /// Destinations whose send failures were already logged; failures
    /// stay *counted* per packet in `runtime_send_failed`.
    fail_logged: HashSet<Addr>,
    /// Destinations that own a `runtime.send_failed.<addr>` label
    /// (bounded at SEND_FAIL_LABEL_CAP; the overflow shares one
    /// `runtime.send_failed.other` counter).
    fail_labeled: HashSet<Addr>,
}

impl Outbox<'_> {
    /// Put the queued sends on the wire, in order — unless `node`'s store
    /// holds appends that are not yet durable. Then they stay queued, and
    /// the loop's durability point flushes the store before it releases
    /// them: no acknowledgment outruns the write-ahead log, and one fsync
    /// covers the whole turn.
    async fn release(&mut self, node: &mut dyn Node) {
        if node.store().is_some_and(|store| store.dirty()) {
            return;
        }
        for (to, payload) in self.queue.drain(..) {
            let err = match self.book.lookup(to) {
                Some(dst) => self.sock.send_to(&payload, dst).await.err(),
                None => Some(std::io::Error::other("destination not in address book")),
            };
            let Some(e) = err else { continue };
            // Global total plus a per-destination label: one unreachable
            // peer is attributable from the counters, not just the
            // first-failure log line. Labels are cardinality-bounded —
            // after SEND_FAIL_LABEL_CAP distinct destinations, further
            // ones share the `other` bucket.
            self.metrics.incr("runtime_send_failed");
            if self.fail_labeled.contains(&to) || self.fail_labeled.len() < SEND_FAIL_LABEL_CAP {
                self.fail_labeled.insert(to);
                self.metrics.incr(&format!("runtime.send_failed.{to}"));
            } else {
                self.metrics.incr("runtime.send_failed.other");
            }
            if self.fail_logged.insert(to) {
                eprintln!(
                    "node {}: send to {to} failed: {e} \
                     (further failures to this destination are counted, not logged)",
                    self.me
                );
            }
        }
    }
}

/// Refresh what the node's reports say of its protocol state and its
/// verify stage.
fn publish(
    node: &dyn Node,
    verify_pool: Option<&Arc<neo_crypto::VerifyPool>>,
    verify_poisoned: bool,
    published: &Published,
) {
    let exec = ExecSignals {
        verify_queue_depth: verify_pool.map_or(0, |p| p.queue_depth() as u64),
        verify_in_flight: verify_pool.map_or(0, |p| p.in_flight() as u64),
        verify_poisoned,
    };
    *match published.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    } = (node.health(), exec);
}

fn run_node(
    mut node: Box<dyn Node>,
    book: AddressBook,
    sock: std::net::UdpSocket,
    stop: Arc<AtomicBool>,
    poisoned: Arc<AtomicBool>,
    reporter: NodeReporter,
) -> Box<dyn Node> {
    let NodeReporter {
        addr: me,
        start,
        metrics,
        published,
    } = reporter;
    let rt = tokio::runtime::Builder::new_current_thread()
        .enable_all()
        .build()
        .expect("tokio runtime");
    rt.block_on(async move {
        let sock = match UdpSocket::from_std(sock) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("node {me}: failed to register socket with tokio: {e}");
                return node;
            }
        };
        let mut timers = TimerHeap::new();
        let mut timer_seq = 0u64;
        let mut cancelled: HashSet<TimerId> = HashSet::new();
        let mut delayed = DelayedHeap::new();
        // Reused receive buffer; payloads are copied out only when the
        // node keeps them (decode borrows `&buf[..len]`).
        let mut buf = vec![0u8; 65_536];
        let mut out = Outbox {
            me,
            sock: &sock,
            book: &book,
            metrics: &metrics,
            queue: Vec::new(),
            fail_logged: HashSet::new(),
            fail_labeled: HashSet::new(),
        };
        // Last health publication (None = not yet published).
        let mut last_health: Option<Instant> = None;
        // One context for the node's lifetime; effect buffers are
        // cleared between events, never reallocated.
        let mut ctx = RtCtx {
            start,
            me,
            sends: Vec::new(),
            timers: Vec::new(),
            cancels: Vec::new(),
            next_timer: 1,
            metrics: metrics.clone(),
        };

        // Bootstrap timer, mirroring the simulator convention.
        timers.push(Reverse((0, 0, 0, neo_sim::sim::INIT_TIMER_KIND)));

        // Verify stage: if the node dispatches verification to a worker
        // pool, wire the pool's completion hook to a tokio wakeup so the
        // idle wait breaks as soon as a verdict is ready.
        let verify_pool = node.verify_pool();
        let verify_wake = Arc::new(tokio::sync::Notify::new());
        if let Some(pool) = &verify_pool {
            let wake = verify_wake.clone();
            pool.set_wake_hook(Arc::new(move || wake.notify_one()));
        }

        loop {
            if stop.load(Ordering::SeqCst) {
                break;
            }
            // A panicked verify worker poisons the pool: surface it as a
            // typed shutdown instead of processing with a broken stage.
            if let Some(pool) = &verify_pool {
                if pool.poisoned() {
                    poisoned.store(true, Ordering::SeqCst);
                    metrics.incr("runtime.verify_poisoned");
                    eprintln!("node {me}: verify pool poisoned by a panicked worker; stopping");
                    break;
                }
            }

            // Batch phase 1: drain every due timer and delayed send.
            // Timers win ties with delayed sends at the same deadline,
            // matching the simulator's ordering. Each event's sends are
            // released as soon as its handler returns (`Outbox::release`).
            let mut events = 0u64;
            loop {
                let now_ns = start.elapsed().as_nanos() as u64;
                let timer_at = timers.peek().map(|Reverse((d, ..))| *d).unwrap_or(u64::MAX);
                let send_at = delayed
                    .peek()
                    .map(|Reverse((d, ..))| *d)
                    .unwrap_or(u64::MAX);
                if timer_at <= now_ns && timer_at <= send_at {
                    let Reverse((_, _, id, kind)) = timers.pop().expect("peeked");
                    if !cancelled.remove(&TimerId(id)) {
                        node.on_timer(TimerId(id), kind, &mut ctx);
                        drain_effects(
                            &mut ctx,
                            &mut timers,
                            &mut delayed,
                            &mut cancelled,
                            &mut out.queue,
                            &mut timer_seq,
                        );
                        out.release(node.as_mut()).await;
                        events += 1;
                    }
                } else if send_at <= now_ns {
                    let Reverse((_, _, to, payload)) = delayed.pop().expect("peeked");
                    out.queue.push((to, payload));
                    out.release(node.as_mut()).await;
                } else {
                    break;
                }
            }

            // Batch phase 2: handle the ready packets without blocking,
            // RECV_BURST at most. Timers that came due meanwhile fire on
            // the next loop iteration, before the idle wait.
            for _ in 0..RECV_BURST {
                let Ok((len, src)) = sock.try_recv_from(&mut buf) else {
                    break;
                };
                if let Some(from) = book.resolve(src) {
                    // Digest before dispatch: the flight recorder shows
                    // the packet even if the handler panics on it.
                    metrics.record_packet(start.elapsed().as_nanos() as u64, from, me, &buf[..len]);
                    node.on_message(from, &buf[..len], &mut ctx);
                    drain_effects(
                        &mut ctx,
                        &mut timers,
                        &mut delayed,
                        &mut cancelled,
                        &mut out.queue,
                        &mut timer_seq,
                    );
                    out.release(node.as_mut()).await;
                    events += 1;
                }
            }

            // Batch phase 3: collect asynchronous verification
            // completions. The node's reorder buffer re-injects them in
            // dispatch order, so this stage matches the simulator's
            // inline ordering tie-break (verify results apply exactly
            // where the inline call would have applied them, after the
            // timers and packets of the batch that dispatched them).
            if verify_pool.is_some() {
                let collected = node.on_async(&mut ctx);
                if collected > 0 {
                    drain_effects(
                        &mut ctx,
                        &mut timers,
                        &mut delayed,
                        &mut cancelled,
                        &mut out.queue,
                        &mut timer_seq,
                    );
                    events += collected;
                }
            }

            // Durability point: make the turn's WAL appends durable,
            // then release the sends that waited for them (one batched
            // fsync covers every event of the turn). Wall-clock cost
            // lands in the `store.fsync_ns` histogram — the recovery
            // drill reads it.
            if let Some(store) = node.store() {
                if store.dirty() {
                    let t0 = Instant::now();
                    let bytes = store.flush();
                    metrics.observe("store.fsync_ns", t0.elapsed().as_nanos() as u64);
                    metrics.add("store.flushed_bytes", bytes);
                    metrics.incr("store.flushes");
                }
            }
            out.release(node.as_mut()).await;

            // Telemetry: refresh the published health at a coarse
            // cadence (before the busy-path `continue`, so a saturated
            // node still reports).
            if last_health.is_none_or(|t| t.elapsed() >= HEALTH_REFRESH) {
                last_health = Some(Instant::now());
                publish(
                    node.as_ref(),
                    verify_pool.as_ref(),
                    poisoned.load(Ordering::SeqCst),
                    &published,
                );
            }

            if events > 0 {
                metrics.observe("runtime.batch_events", events);
                continue;
            }

            // Idle: wait for a packet, the next deadline, or a stop poll.
            let now_ns = start.elapsed().as_nanos() as u64;
            let next_deadline = [
                timers.peek().map(|Reverse((d, ..))| *d),
                delayed.peek().map(|Reverse((d, ..))| *d),
            ]
            .into_iter()
            .flatten()
            .min();
            let wait = next_deadline
                .map(|d| Duration::from_nanos(d.saturating_sub(now_ns)))
                .unwrap_or(Duration::from_millis(50))
                .min(Duration::from_millis(50));
            tokio::select! {
                _ = sock.readable() => {}
                _ = verify_wake.notified(), if verify_pool.is_some() => {}
                _ = tokio::time::sleep(wait) => {}
            }
        }
        // Final publication: a scrape after shutdown sees the node's
        // last state, not a 200ms-stale one.
        publish(
            node.as_ref(),
            verify_pool.as_ref(),
            poisoned.load(Ordering::SeqCst),
            &published,
        );
        node
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::Any;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn address_book_localhost_layout() {
        let book = AddressBook::localhost(4, 2, GroupId(0), 47000);
        assert_eq!(
            book.lookup(Addr::Replica(ReplicaId(0))),
            Some(SocketAddr::from(([127, 0, 0, 1], 47000)))
        );
        assert_eq!(
            book.lookup(Addr::Client(ClientId(1))),
            Some(SocketAddr::from(([127, 0, 0, 1], 47005)))
        );
        // Multicast resolves to the sequencer socket.
        assert_eq!(
            book.lookup(Addr::Multicast(GroupId(0))),
            book.lookup(Addr::Sequencer(GroupId(0)))
        );
        // Reverse resolution names the sequencer (registered first).
        let seq_sock = book.lookup(Addr::Sequencer(GroupId(0))).unwrap();
        assert_eq!(book.resolve(seq_sock), Some(Addr::Sequencer(GroupId(0))));
    }

    #[test]
    fn builder_matches_localhost_layout() {
        let dep = AddressBook::builder()
            .replicas(4)
            .clients(2)
            .group(GroupId(0))
            .base_port(47100)
            .build()
            .unwrap();
        assert_eq!(dep.replicas(), 4);
        assert_eq!(dep.clients(), 2);
        assert_eq!(
            dep.replica_ids(),
            vec![ReplicaId(0), ReplicaId(1), ReplicaId(2), ReplicaId(3)]
        );
        assert_eq!(dep.replica(0), Addr::Replica(ReplicaId(0)));
        assert_eq!(dep.client(1), Addr::Client(ClientId(1)));
        assert_eq!(dep.sequencer(), Addr::Sequencer(GroupId(0)));
        let legacy = AddressBook::localhost(4, 2, GroupId(0), 47100);
        for addr in [
            dep.replica(0),
            dep.replica(3),
            dep.client(0),
            dep.client(1),
            dep.sequencer(),
            dep.config_service(),
            Addr::Multicast(GroupId(0)),
        ] {
            assert_eq!(dep.book().lookup(addr), legacy.lookup(addr), "{addr}");
        }
    }

    #[test]
    fn builder_rejects_exhausted_port_space() {
        let err = AddressBook::builder()
            .replicas(10)
            .clients(10)
            .base_port(u16::MAX - 3)
            .build()
            .unwrap_err();
        assert!(
            matches!(err, RuntimeError::PortSpace { needed: 22, .. }),
            "{err}"
        );
    }

    /// What the loop handed a [`Probe`].
    enum Input<'a> {
        Message(Addr, &'a [u8]),
        Timer(u32),
    }

    /// A node that is one closure, plus the store the loop should see.
    struct Probe<F> {
        handler: F,
        store: Option<GatedStore>,
    }

    impl<F: FnMut(Input<'_>, &mut dyn Context) + Send + 'static> Probe<F> {
        fn boxed(handler: F) -> Box<dyn Node> {
            Box::new(Probe {
                handler,
                store: None,
            })
        }
    }

    impl<F: FnMut(Input<'_>, &mut dyn Context) + Send + 'static> Node for Probe<F> {
        fn on_message(&mut self, from: Addr, payload: &[u8], ctx: &mut dyn Context) {
            (self.handler)(Input::Message(from, payload), ctx);
        }
        fn on_timer(&mut self, _: TimerId, kind: u32, ctx: &mut dyn Context) {
            (self.handler)(Input::Timer(kind), ctx);
        }
        fn store(&mut self) -> Option<&mut dyn neo_sim::store::Store> {
            self.store
                .as_mut()
                .map(|s| s as &mut dyn neo_sim::store::Store)
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A store whose `flush` announces itself and then waits to be let
    /// through, so a test can look at the wire while the loop is inside
    /// the durability point.
    struct GatedStore {
        dirty: Arc<AtomicBool>,
        entered: mpsc::Sender<()>,
        gate: mpsc::Receiver<()>,
    }

    impl neo_sim::store::Store for GatedStore {
        fn append(&mut self, _: &[u8]) {}
        fn dirty(&self) -> bool {
            self.dirty.load(Ordering::SeqCst)
        }
        fn flush(&mut self) -> u64 {
            let _ = self.entered.send(());
            let _ = self.gate.recv();
            self.dirty.store(false, Ordering::SeqCst);
            0
        }
        fn put_checkpoint(&mut self, _: &[u8]) {}
        fn checkpoint(&self) -> Option<Vec<u8>> {
            None
        }
        fn log_records(&self) -> Vec<Vec<u8>> {
            Vec::new()
        }
        fn reset_log(&mut self, _: &[Vec<u8>]) {}
    }

    const WAIT: Duration = Duration::from_secs(5);

    /// A two-address deployment: the node under test is `replica(0)`; the
    /// test itself holds a plain socket bound where `replica(1)` lives,
    /// so its datagrams resolve and it sees what the node sends.
    fn node_and_peer(base_port: u16) -> (Deployment, std::net::UdpSocket, SocketAddr) {
        let dep = AddressBook::builder()
            .replicas(2)
            .clients(0)
            .base_port(base_port)
            .build()
            .unwrap();
        let peer = std::net::UdpSocket::bind(dep.book().lookup(dep.replica(1)).unwrap()).unwrap();
        let node_at = dep.book().lookup(dep.replica(0)).unwrap();
        (dep, peer, node_at)
    }

    /// The first byte waiting in `peer`'s receive buffer right now, if any.
    fn on_the_wire(peer: &std::net::UdpSocket) -> Option<u8> {
        peer.set_nonblocking(true).unwrap();
        let mut buf = [0u8; 8];
        let got = peer.recv_from(&mut buf).ok().map(|_| buf[0]);
        peer.set_nonblocking(false).unwrap();
        got
    }

    /// Block (bounded) for the next datagram's first byte.
    fn next_datagram(peer: &std::net::UdpSocket) -> u8 {
        peer.set_read_timeout(Some(WAIT)).unwrap();
        let mut buf = [0u8; 8];
        peer.recv_from(&mut buf).expect("a datagram arrives");
        buf[0]
    }

    #[test]
    fn the_hub_and_the_handles_report_one_registry_alike() {
        // Both sources, fed the same registry and the same protocol
        // health, yield the same report: there is one constructor, and
        // neither executor adds a definition of `healthy` of its own.
        let me = Addr::Replica(ReplicaId(2));
        let metrics = Arc::new(Metrics::new(ObsConfig::flight_recorder()));
        metrics.add("replica.messages_in", 3);
        metrics.observe("store.fsync_ns", 40);
        let commit = neo_sim::obs::Event::Commit {
            slot: 4,
            client: 1,
            request: 9,
        };
        metrics.record_event(50, me, commit);
        metrics.record_packet(40, Addr::Config, me, b"cfg");
        let protocol = Some(NodeHealth {
            role: "replica".into(),
            recovery_phase: Some("replaying".into()),
            last_exec: 5,
            ..NodeHealth::default()
        });
        let exec = ExecSignals::default();

        let hub = neo_sim::TelemetryHub::default();
        hub.publish(vec![NodeReport::build(
            77,
            me,
            &metrics,
            protocol.clone(),
            exec,
            TraceRead::Copy,
        )]);
        let handles = vec![NodeReporter {
            addr: me,
            start: Instant::now(),
            metrics,
            published: Arc::new(Mutex::new((protocol, exec))),
        }];

        let from_hub = hub.reports();
        let mut from_handles = handles.reports();
        assert_eq!((from_hub.len(), from_handles.len()), (1, 1));
        assert_ne!(from_handles[0].at, 77, "a handle reports on its own clock");
        from_handles[0].at = 77;
        assert_eq!(from_hub, from_handles);
        let health = from_hub[0].health.as_ref().expect("health built");
        assert!(!health.healthy, "mid-recovery on both sides");
        assert_eq!((health.committed, health.fsync_p99_ns), (1, 40));
        assert_eq!(from_hub[0].events.len(), 1);
        assert_eq!(from_hub[0].packets.len(), 1);
    }

    #[test]
    fn spawn_of_unregistered_address_fails() {
        let nop = Probe::boxed(|_, _| {});
        let Err(err) = try_spawn_node(nop, Addr::Config, AddressBook::new()) else {
            panic!("spawning an unregistered address must fail");
        };
        assert!(
            matches!(err, RuntimeError::UnknownAddress(Addr::Config)),
            "{err}"
        );
    }

    #[test]
    fn sustained_input_starves_neither_timers_nor_shutdown() {
        let (dep, flood, node_at) = node_and_peer(46800);
        // Flood from before the node exists (early datagrams bounce) until
        // the verdict is in. Each datagram costs the node 50 us, far more
        // than a send costs the flooder, so its socket never runs empty.
        let flooding = Arc::new(AtomicBool::new(true));
        let flooder = {
            let flooding = flooding.clone();
            std::thread::spawn(move || {
                while flooding.load(Ordering::SeqCst) {
                    let _ = flood.send_to(b"x", node_at);
                }
            })
        };
        let (fired_tx, fired_rx) = mpsc::channel();
        let handled = Arc::new(AtomicUsize::new(0));
        let counted = handled.clone();
        let node = Probe::boxed(move |input, ctx| match input {
            Input::Timer(neo_sim::sim::INIT_TIMER_KIND) => {
                ctx.set_timer(20 * neo_sim::MILLIS, 7);
            }
            Input::Timer(_) => {
                let _ = fired_tx.send(());
            }
            Input::Message(..) => {
                counted.fetch_add(1, Ordering::Relaxed);
                let t0 = Instant::now();
                while t0.elapsed() < Duration::from_micros(50) {
                    std::hint::spin_loop();
                }
            }
        });
        let handle = dep.spawn(node, dep.replica(0)).unwrap();
        let fired = fired_rx.recv_timeout(WAIT).is_ok();
        let (joined_tx, joined_rx) = mpsc::channel();
        let joiner = std::thread::spawn(move || {
            let _ = joined_tx.send(handle.try_shutdown().is_ok());
        });
        let joined = joined_rx.recv_timeout(WAIT);
        flooding.store(false, Ordering::SeqCst);
        flooder.join().unwrap();
        joiner.join().unwrap();
        assert!(
            handled.load(Ordering::Relaxed) > RECV_BURST,
            "the flood outlasted one receive burst"
        );
        assert!(fired, "a due timer fires while datagrams keep arriving");
        assert_eq!(
            joined,
            Ok(true),
            "try_shutdown returns while datagrams keep arriving"
        );
    }

    #[test]
    fn sends_of_a_dirty_store_wait_for_the_flush() {
        let (dep, peer, node_at) = node_and_peer(46820);
        let dirty = Arc::new(AtomicBool::new(false));
        let (entered_tx, entered_rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel();
        let appended = dirty.clone();
        let node = Box::new(Probe {
            // Every request appends to the WAL and is acknowledged.
            handler: move |input: Input<'_>, ctx: &mut dyn Context| {
                if let Input::Message(from, payload) = input {
                    appended.store(true, Ordering::SeqCst);
                    ctx.send(from, Payload::copy_from_slice(payload));
                }
            },
            store: Some(GatedStore {
                dirty,
                entered: entered_tx,
                gate: gate_rx,
            }),
        });
        let handle = dep.spawn(node, dep.replica(0)).unwrap();
        peer.send_to(b"q", node_at).unwrap();
        entered_rx
            .recv_timeout(WAIT)
            .expect("the loop reaches flush");
        // Loopback delivery is synchronous: had the acknowledgment been
        // sent before the flush, it would be in the buffer now.
        assert_eq!(on_the_wire(&peer), None, "acknowledged before the flush");
        gate_tx.send(()).unwrap();
        assert_eq!(next_datagram(&peer), b'q');
        handle.try_shutdown().unwrap();
    }

    #[test]
    fn sends_of_one_event_leave_before_the_next_handler_starts() {
        let (dep, peer, node_at) = node_and_peer(46840);
        let (entered_tx, entered_rx) = mpsc::channel();
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        // Each handler announces its datagram, waits to be let through,
        // then echoes it.
        let node = Probe::boxed(move |input, ctx| {
            if let Input::Message(from, payload) = input {
                let _ = entered_tx.send(payload[0]);
                let _ = gate_rx.recv();
                ctx.send(from, Payload::copy_from_slice(payload));
            }
        });
        let handle = dep.spawn(node, dep.replica(0)).unwrap();
        peer.send_to(b"a", node_at).unwrap();
        assert_eq!(entered_rx.recv_timeout(WAIT), Ok(b'a'));
        // `b` is in the node's socket before `a`'s handler returns, so
        // both belong to one loop turn.
        peer.send_to(b"b", node_at).unwrap();
        gate_tx.send(()).unwrap();
        assert_eq!(entered_rx.recv_timeout(WAIT), Ok(b'b'));
        assert_eq!(
            on_the_wire(&peer),
            Some(b'a'),
            "event a's echo is held behind event b's handler"
        );
        gate_tx.send(()).unwrap();
        assert_eq!(next_datagram(&peer), b'b');
        handle.try_shutdown().unwrap();
    }
}
