//! Tracing from outside: benchmark-owned wrappers around the three trait
//! objects the system is assembled from — [`Node`], [`Store`], [`App`] —
//! and around the [`Context`] handed to each handler. Every wrapper
//! forwards every trait method and records what crossed the boundary:
//!
//! * always (while [`measuring`]): call counts, time totals and a duration
//!   histogram per boundary, packets and bytes sent;
//! * up to a per-node cap: [`Span`]s `{id, cause, node, name, start, end}`
//!   against one process-wide clock, with the protocol events the handler
//!   emitted, kept in memory and written out when the run ends.
//!
//! Nothing inside the program under test is touched; the traced run is a
//! separate run, and its throughput beside the untraced run's is the
//! tracing overhead.

use neobft::app::App;
use neobft::crypto::{Meter, VerifyPool};
use neobft::sim::obs::{Event, Histogram, Metrics, NodeHealth};
use neobft::sim::{Context, Node, Store, TimerId};
use neobft::wire::{Addr, Payload, ReplicaId};
use serde::Serialize;
use std::any::Any;
use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};
use std::time::Instant;

/// Nanoseconds since the first call in this process: the one clock every
/// span is stamped with.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

static MEASURING: AtomicBool = AtomicBool::new(false);
/// `now_ns()` when the measured window opened.
static WINDOW_START: AtomicU64 = AtomicU64::new(0);
static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

/// Spans are kept in bursts spread over the window — the first
/// `BURST_NS` of every `PERIOD_NS` — so the waterfall samples the whole
/// run at a few per cent of the memory. Totals count every call.
const PERIOD_NS: u64 = 500_000_000;
const BURST_NS: u64 = 10_000_000;

thread_local! {
    /// The handler span this thread is inside (0 = none).
    static CURRENT: Cell<u64> = const { Cell::new(0) };
    /// The last handler span this thread finished: the cause of work the
    /// executor does between handlers (the store flush).
    static LAST: Cell<u64> = const { Cell::new(0) };
}

/// Open or close the measured window: wrappers record only inside it.
pub fn set_measuring(on: bool) {
    if on {
        WINDOW_START.store(now_ns(), Ordering::SeqCst);
    }
    MEASURING.store(on, Ordering::SeqCst);
}

pub fn measuring() -> bool {
    MEASURING.load(Ordering::Relaxed)
}

fn next_span_id() -> u64 {
    NEXT_SPAN.fetch_add(1, Ordering::Relaxed)
}

/// Lock a sink; a panicked writer does not make its data unreadable.
pub fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// One interval at a layer boundary.
#[derive(Clone, Debug, Serialize)]
pub struct Span {
    pub id: u64,
    /// The span that caused this one: the enclosing handler for app and
    /// store calls, the handler that armed the timer for `on_timer`, and
    /// for `on_message` the sending handler (filled in after the run, see
    /// `analysis::link_causes`); 0 if unknown.
    pub cause: u64,
    pub node: Addr,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// `on_message` only: who the message came from, and its digest.
    pub from: Option<(Addr, u64)>,
    /// Messages the handler sent: destination, payload bytes and digest.
    pub sends: Vec<(Addr, u32, u64)>,
    /// Protocol events the handler emitted: kind and time.
    pub events: Vec<(&'static str, u64)>,
}

/// Calls, total time and duration distribution of one boundary.
#[derive(Clone, Debug, Default)]
pub struct Totals {
    pub calls: u64,
    pub ns: u64,
    pub hist: Histogram,
}

impl Totals {
    fn record(&mut self, ns: u64) {
        self.calls += 1;
        self.ns += ns;
        self.hist.observe(ns);
    }
}

/// What one wrapped node did inside the measured window.
#[derive(Debug, Default)]
pub struct NodeTrace {
    pub on_message: Totals,
    pub on_timer: Totals,
    pub on_async: Totals,
    pub sent_packets: u64,
    pub sent_bytes: u64,
    pub spans: Vec<Span>,
    /// Spans kept; totals keep counting past it.
    pub span_cap: usize,
}

/// The recordings of several wrapped nodes, by address.
pub type NodeSinks = Vec<(Addr, Arc<Mutex<NodeTrace>>)>;

/// What one wrapped store did inside the measured window.
#[derive(Debug, Default)]
pub struct StoreTrace {
    pub append: Totals,
    pub appended_bytes: u64,
    pub flush: Totals,
    pub flushed_bytes: u64,
    pub put_checkpoint: Totals,
    pub reset_log: Totals,
    pub spans: Vec<Span>,
}

/// What one wrapped application did inside the measured window.
#[derive(Debug, Default)]
pub struct AppTrace {
    pub execute: Totals,
    pub undo: u64,
    pub snapshot: Totals,
    pub spans: Vec<Span>,
}

/// Spans kept per wrapper unless it is given another cap: a safety net
/// under the burst sampling.
pub const SPAN_CAP: usize = 20_000;

fn keep_span(spans: &mut Vec<Span>, cap: usize, span: Span) {
    let into_window = span.start.saturating_sub(WINDOW_START.load(Ordering::Relaxed));
    if into_window % PERIOD_NS < BURST_NS && spans.len() < cap {
        spans.push(span);
    }
}

/// A cheap 64-bit digest of a payload: what ties a received message to the
/// send that produced it. Eight bytes at a time, multiply–rotate mixing;
/// not collision-resistant, and it need not be.
pub fn payload_digest(bytes: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = (bytes.len() as u64).wrapping_mul(K);
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let w = u64::from_le_bytes(c.try_into().expect("8-byte chunk"));
        h = (h ^ w).wrapping_mul(K).rotate_left(29);
    }
    for (i, b) in chunks.remainder().iter().enumerate() {
        h ^= u64::from(*b) << (8 * i);
    }
    h.wrapping_mul(K) ^ (h >> 32)
}

fn leaf_span(node: Addr, name: &'static str, start: u64, end: u64) -> Span {
    let enclosing = CURRENT.get();
    Span {
        id: next_span_id(),
        cause: if enclosing != 0 { enclosing } else { LAST.get() },
        node,
        name,
        start,
        end,
        from: None,
        sends: Vec::new(),
        events: Vec::new(),
    }
}

/// The [`Context`] a traced handler sees: forwards everything, notes sends,
/// timers and events.
struct TracedCtx<'a> {
    inner: &'a mut dyn Context,
    sends: Vec<(Addr, u32, u64)>,
    events: Vec<(&'static str, u64)>,
    timers: Vec<TimerId>,
}

impl Context for TracedCtx<'_> {
    fn now(&self) -> u64 {
        self.inner.now()
    }
    fn me(&self) -> Addr {
        self.inner.me()
    }
    fn send(&mut self, to: Addr, payload: Payload) {
        self.sends.push((to, payload.len() as u32, payload_digest(&payload)));
        self.inner.send(to, payload);
    }
    fn send_after(&mut self, to: Addr, payload: Payload, extra_delay: u64) {
        self.sends.push((to, payload.len() as u32, payload_digest(&payload)));
        self.inner.send_after(to, payload, extra_delay);
    }
    fn broadcast(&mut self, to: &[ReplicaId], payload: Payload) {
        let (len, digest) = (payload.len() as u32, payload_digest(&payload));
        self.sends.extend(to.iter().map(|r| (Addr::Replica(*r), len, digest)));
        self.inner.broadcast(to, payload);
    }
    fn set_timer(&mut self, delay: u64, kind: u32) -> TimerId {
        let id = self.inner.set_timer(delay, kind);
        self.timers.push(id);
        id
    }
    fn cancel_timer(&mut self, timer: TimerId) {
        self.inner.cancel_timer(timer);
    }
    fn charge(&mut self, ns: u64) {
        self.inner.charge(ns);
    }
    fn metrics(&self) -> &Metrics {
        self.inner.metrics()
    }
    fn emit(&mut self, ev: Event) {
        self.events.push((ev.kind().name(), now_ns()));
        self.inner.emit(ev);
    }
}

/// A [`Node`] that times its inner node's handlers.
pub struct Traced {
    inner: Box<dyn Node>,
    addr: Addr,
    sink: Arc<Mutex<NodeTrace>>,
    /// Which handler span armed each pending timer.
    timer_cause: HashMap<TimerId, u64>,
}

impl Traced {
    /// Wrap `inner`, which will run under `addr`; the returned handle reads
    /// what was recorded.
    pub fn wrap(inner: Box<dyn Node>, addr: Addr) -> (Box<dyn Node>, Arc<Mutex<NodeTrace>>) {
        Traced::wrap_with_cap(inner, addr, SPAN_CAP)
    }

    /// As [`Traced::wrap`], keeping at most `span_cap` spans.
    pub fn wrap_with_cap(inner: Box<dyn Node>, addr: Addr, span_cap: usize) -> (Box<dyn Node>, Arc<Mutex<NodeTrace>>) {
        let sink = Arc::new(Mutex::new(NodeTrace {
            span_cap,
            ..NodeTrace::default()
        }));
        let node = Traced {
            inner,
            addr,
            sink: sink.clone(),
            timer_cause: HashMap::new(),
        };
        (Box::new(node), sink)
    }

    /// Run one handler under a span.
    fn handle(
        &mut self,
        name: &'static str,
        from: Option<(Addr, u64)>,
        cause: u64,
        ctx: &mut dyn Context,
        call: impl FnOnce(&mut dyn Node, &mut dyn Context),
    ) {
        let id = next_span_id();
        let mut tctx = TracedCtx {
            inner: ctx,
            sends: Vec::new(),
            events: Vec::new(),
            timers: Vec::new(),
        };
        let outer = CURRENT.replace(id);
        let start = now_ns();
        call(self.inner.as_mut(), &mut tctx);
        let end = now_ns();
        CURRENT.set(outer);
        LAST.set(id);
        for t in tctx.timers.drain(..) {
            self.timer_cause.insert(t, id);
        }
        let mut sink = lock(&self.sink);
        let totals = match name {
            "node.on_message" => &mut sink.on_message,
            "node.on_timer" => &mut sink.on_timer,
            _ => &mut sink.on_async,
        };
        totals.record(end - start);
        sink.sent_packets += tctx.sends.len() as u64;
        sink.sent_bytes += tctx.sends.iter().map(|(_, len, _)| u64::from(*len)).sum::<u64>();
        let span = Span {
            id,
            cause,
            node: self.addr,
            name,
            start,
            end,
            from,
            sends: tctx.sends,
            events: tctx.events,
        };
        let cap = sink.span_cap;
        keep_span(&mut sink.spans, cap, span);
    }
}

impl Node for Traced {
    fn on_message(&mut self, from: Addr, payload: &[u8], ctx: &mut dyn Context) {
        if !measuring() {
            return self.inner.on_message(from, payload, ctx);
        }
        let arrived = Some((from, payload_digest(payload)));
        self.handle("node.on_message", arrived, 0, ctx, |node, ctx| {
            node.on_message(from, payload, ctx)
        });
    }

    fn on_timer(&mut self, timer: TimerId, kind: u32, ctx: &mut dyn Context) {
        let cause = self.timer_cause.remove(&timer).unwrap_or(0);
        if !measuring() {
            return self.inner.on_timer(timer, kind, ctx);
        }
        self.handle("node.on_timer", None, cause, ctx, |node, ctx| {
            node.on_timer(timer, kind, ctx)
        });
    }

    fn meter(&self) -> Option<&Meter> {
        self.inner.meter()
    }

    fn on_async(&mut self, ctx: &mut dyn Context) -> u64 {
        if !measuring() {
            return self.inner.on_async(ctx);
        }
        let mut collected = 0;
        self.handle("node.on_async", None, 0, ctx, |node, ctx| {
            collected = node.on_async(ctx);
        });
        collected
    }

    fn verify_pool(&self) -> Option<Arc<VerifyPool>> {
        self.inner.verify_pool()
    }

    fn store(&mut self) -> Option<&mut dyn Store> {
        self.inner.store()
    }

    fn health(&self) -> Option<NodeHealth> {
        self.inner.health()
    }

    /// The *inner* node: `downcast_ref::<Replica>()` on a traced node
    /// reaches the replica, as the harness and the checks expect.
    fn as_any(&self) -> &dyn Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self.inner.as_any_mut()
    }
}

/// A [`Store`] that times its inner store.
pub struct TracedStore {
    inner: Box<dyn Store>,
    addr: Addr,
    sink: Arc<Mutex<StoreTrace>>,
}

impl TracedStore {
    pub fn wrap(inner: Box<dyn Store>, addr: Addr) -> (Box<dyn Store>, Arc<Mutex<StoreTrace>>) {
        let sink = Arc::new(Mutex::new(StoreTrace::default()));
        let store = TracedStore {
            inner,
            addr,
            sink: sink.clone(),
        };
        (Box::new(store), sink)
    }
}

impl Store for TracedStore {
    fn append(&mut self, record: &[u8]) {
        if !measuring() {
            return self.inner.append(record);
        }
        let start = now_ns();
        self.inner.append(record);
        let end = now_ns();
        let mut sink = lock(&self.sink);
        sink.append.record(end - start);
        sink.appended_bytes += record.len() as u64;
        keep_span(
            &mut sink.spans,
            SPAN_CAP,
            leaf_span(self.addr, "store.append", start, end),
        );
    }

    fn dirty(&self) -> bool {
        self.inner.dirty()
    }

    fn flush(&mut self) -> u64 {
        if !measuring() {
            return self.inner.flush();
        }
        let start = now_ns();
        let bytes = self.inner.flush();
        let end = now_ns();
        let mut sink = lock(&self.sink);
        sink.flush.record(end - start);
        sink.flushed_bytes += bytes;
        keep_span(
            &mut sink.spans,
            SPAN_CAP,
            leaf_span(self.addr, "store.flush", start, end),
        );
        bytes
    }

    fn put_checkpoint(&mut self, blob: &[u8]) {
        if !measuring() {
            return self.inner.put_checkpoint(blob);
        }
        let start = now_ns();
        self.inner.put_checkpoint(blob);
        let end = now_ns();
        let mut sink = lock(&self.sink);
        sink.put_checkpoint.record(end - start);
        keep_span(
            &mut sink.spans,
            SPAN_CAP,
            leaf_span(self.addr, "store.put_checkpoint", start, end),
        );
    }

    fn checkpoint(&self) -> Option<Vec<u8>> {
        self.inner.checkpoint()
    }

    fn log_records(&self) -> Vec<Vec<u8>> {
        self.inner.log_records()
    }

    fn reset_log(&mut self, records: &[Vec<u8>]) {
        if !measuring() {
            return self.inner.reset_log(records);
        }
        let start = now_ns();
        self.inner.reset_log(records);
        let end = now_ns();
        let mut sink = lock(&self.sink);
        sink.reset_log.record(end - start);
        keep_span(
            &mut sink.spans,
            SPAN_CAP,
            leaf_span(self.addr, "store.reset_log", start, end),
        );
    }

    fn fsync_model_ns(&self) -> u64 {
        self.inner.fsync_model_ns()
    }
}

/// An [`App`] that times its inner application.
pub struct TracedApp {
    inner: Box<dyn App>,
    addr: Addr,
    sink: Arc<Mutex<AppTrace>>,
}

impl TracedApp {
    pub fn wrap(inner: Box<dyn App>, addr: Addr) -> (Box<dyn App>, Arc<Mutex<AppTrace>>) {
        let sink = Arc::new(Mutex::new(AppTrace::default()));
        let app = TracedApp {
            inner,
            addr,
            sink: sink.clone(),
        };
        (Box::new(app), sink)
    }
}

impl App for TracedApp {
    fn execute(&mut self, op: &[u8]) -> Vec<u8> {
        if !measuring() {
            return self.inner.execute(op);
        }
        let start = now_ns();
        let result = self.inner.execute(op);
        let end = now_ns();
        let mut sink = lock(&self.sink);
        sink.execute.record(end - start);
        keep_span(
            &mut sink.spans,
            SPAN_CAP,
            leaf_span(self.addr, "app.execute", start, end),
        );
        result
    }

    fn undo(&mut self) {
        if measuring() {
            lock(&self.sink).undo += 1;
        }
        self.inner.undo();
    }

    fn executed(&self) -> u64 {
        self.inner.executed()
    }

    fn compact(&mut self, keep_last: u64) {
        self.inner.compact(keep_last);
    }

    fn snapshot(&self) -> Option<Vec<u8>> {
        if !measuring() {
            return self.inner.snapshot();
        }
        let start = now_ns();
        let blob = self.inner.snapshot();
        let end = now_ns();
        let mut sink = lock(&self.sink);
        sink.snapshot.record(end - start);
        keep_span(
            &mut sink.spans,
            SPAN_CAP,
            leaf_span(self.addr, "app.snapshot", start, end),
        );
        blob
    }

    fn restore(&mut self, blob: &[u8]) -> bool {
        self.inner.restore(blob)
    }

    fn as_any_ref(&self) -> &dyn Any {
        self.inner.as_any_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neobft::aom::{AuthMode, SequencerHw, SequencerNode};
    use neobft::app::{EchoApp, EchoWorkload, KvApp};
    use neobft::core::{Client, NeoConfig, Replica};
    use neobft::crypto::{CostModel, SystemKeys};
    use neobft::store::{MemDisk, MemStore};
    use neobft::wire::{ClientId, GroupId};

    /// The wrappers share process-wide state (`MEASURING`); tests that flip
    /// it take this lock.
    pub(crate) static WINDOW: Mutex<()> = Mutex::new(());

    struct Ctx {
        sent: Vec<Addr>,
        timers: u64,
    }

    impl Context for Ctx {
        fn now(&self) -> u64 {
            7
        }
        fn me(&self) -> Addr {
            Addr::Config
        }
        fn send_after(&mut self, to: Addr, _payload: Payload, _extra: u64) {
            self.sent.push(to);
        }
        fn set_timer(&mut self, _delay: u64, _kind: u32) -> TimerId {
            self.timers += 1;
            TimerId(self.timers)
        }
        fn cancel_timer(&mut self, _timer: TimerId) {}
        fn charge(&mut self, _ns: u64) {}
    }

    /// A node that overrides every optional surface of the trait.
    struct Full {
        meter: Meter,
        pool: Arc<VerifyPool>,
        store: MemStore,
    }

    impl Node for Full {
        fn on_message(&mut self, _: Addr, _: &[u8], _: &mut dyn Context) {}
        fn on_timer(&mut self, _: TimerId, _: u32, _: &mut dyn Context) {}
        fn meter(&self) -> Option<&Meter> {
            Some(&self.meter)
        }
        fn on_async(&mut self, _: &mut dyn Context) -> u64 {
            5
        }
        fn verify_pool(&self) -> Option<Arc<VerifyPool>> {
            Some(self.pool.clone())
        }
        fn store(&mut self) -> Option<&mut dyn Store> {
            Some(&mut self.store)
        }
        fn health(&self) -> Option<NodeHealth> {
            Some(NodeHealth {
                role: "full".to_string(),
                ..NodeHealth::default()
            })
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn downcasts_reach_the_inner_replica_and_client() {
        let keys = SystemKeys::new(1, 4, 1);
        let cfg = NeoConfig::new(1);
        let replica = Replica::new(
            ReplicaId(2),
            cfg.clone(),
            &keys,
            CostModel::FREE,
            Box::new(EchoApp::new()),
        );
        let (mut node, _) = Traced::wrap(Box::new(replica), Addr::Replica(ReplicaId(2)));
        assert_eq!(node.as_any().downcast_ref::<Replica>().unwrap().id(), ReplicaId(2));
        assert!(node.as_any_mut().downcast_mut::<Replica>().is_some());
        assert!(node.as_any().downcast_ref::<Traced>().is_none());
        // What the replica answers, the wrapper answers.
        assert!(node.meter().is_some());
        assert!(node.verify_pool().is_none());
        assert!(node.store().is_none());

        let client = Client::new(
            ClientId(0),
            cfg,
            &keys,
            CostModel::FREE,
            Box::new(EchoWorkload::new(8, 1)),
        );
        let (node, _) = Traced::wrap(Box::new(client), Addr::Client(ClientId(0)));
        assert_eq!(node.as_any().downcast_ref::<Client>().unwrap().id(), ClientId(0));
    }

    #[test]
    fn every_optional_surface_passes_through() {
        let full = Full {
            meter: Meter::new(),
            pool: Arc::new(VerifyPool::new(1)),
            store: MemStore::open(MemDisk::new(), 0),
        };
        let pool = full.pool.clone();
        let (mut node, _) = Traced::wrap(Box::new(full), Addr::Config);
        assert!(node.meter().is_some());
        assert!(Arc::ptr_eq(&node.verify_pool().unwrap(), &pool));
        assert_eq!(node.health().unwrap().role, "full");
        let mut ctx = Ctx {
            sent: Vec::new(),
            timers: 0,
        };
        assert_eq!(node.on_async(&mut ctx), 5);
        let store = node.store().unwrap();
        store.append(b"x");
        assert!(store.dirty());
    }

    #[test]
    fn a_store_behind_a_traced_replica_is_the_traced_store() {
        let keys = SystemKeys::new(1, 4, 1);
        let (store, store_sink) =
            TracedStore::wrap(Box::new(MemStore::open(MemDisk::new(), 0)), Addr::Replica(ReplicaId(0)));
        let replica = Replica::with_store(
            ReplicaId(0),
            NeoConfig::new(1),
            &keys,
            CostModel::FREE,
            Box::new(EchoApp::new()),
            store,
        );
        let (mut node, _) = Traced::wrap(Box::new(replica), Addr::Replica(ReplicaId(0)));
        let _window = lock(&WINDOW);
        set_measuring(true);
        let store = node.store().expect("store passes through the node wrapper");
        store.append(b"record");
        assert!(store.dirty());
        assert!(store.flush() > 0);
        set_measuring(false);
        store.append(b"outside the window");
        let sink = lock(&store_sink);
        assert_eq!((sink.append.calls, sink.appended_bytes, sink.flush.calls), (1, 6, 1));
        assert_eq!(
            sink.spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["store.append", "store.flush"]
        );
    }

    #[test]
    fn handler_spans_carry_sends_events_and_nested_causes() {
        let keys = SystemKeys::new(1, 4, 1);
        // A sequencer forwards one packet per receiver: a handler with sends.
        let seq = SequencerNode::new(
            GroupId(0),
            (0..4).map(ReplicaId).collect(),
            AuthMode::HmacVector,
            SequencerHw::Software(CostModel::FREE),
            &keys,
        );
        let (mut seq, seq_sink) = Traced::wrap(Box::new(seq), Addr::Sequencer(GroupId(0)));
        // A client's bootstrap timer sends its first request and arms a retry.
        let client = Client::new(
            ClientId(0),
            NeoConfig::new(1),
            &keys,
            CostModel::FREE,
            Box::new(EchoWorkload::new(8, 1)),
        );
        let (mut client, client_sink) = Traced::wrap(Box::new(client), Addr::Client(ClientId(0)));

        let _window = lock(&WINDOW);
        set_measuring(true);
        let mut ctx = Ctx {
            sent: Vec::new(),
            timers: 0,
        };
        client.on_timer(TimerId(0), neobft::sim::sim::INIT_TIMER_KIND, &mut ctx);
        assert_eq!(ctx.sent, [Addr::Multicast(GroupId(0))]);
        // Garbage to the sequencer: handled (and timed) without a send.
        seq.on_message(Addr::Client(ClientId(0)), b"garbage", &mut ctx);
        // The retry timer the client armed is caused by the bootstrap span.
        client.on_timer(TimerId(1), 2, &mut ctx);
        set_measuring(false);
        client.on_timer(TimerId(99), 77, &mut ctx);

        let c = lock(&client_sink);
        assert_eq!(c.on_timer.calls, 2);
        assert_eq!(c.spans.len(), 2);
        assert_eq!(c.spans[0].sends.len(), 1);
        assert_eq!(c.spans[0].sends[0].0, Addr::Multicast(GroupId(0)));
        assert!(c.spans[0].events.iter().any(|(k, _)| *k == "client_send"));
        assert_eq!(c.spans[1].cause, c.spans[0].id);
        assert!(c.sent_packets >= 1 && c.sent_bytes > 0);
        let s = lock(&seq_sink);
        assert_eq!((s.on_message.calls, s.sent_packets), (1, 0));
        assert_eq!(
            s.spans[0].from,
            Some((Addr::Client(ClientId(0)), payload_digest(b"garbage")))
        );
    }

    #[test]
    fn app_calls_inside_a_handler_point_at_it() {
        let (mut app, sink) = TracedApp::wrap(Box::new(KvApp::loaded(4, 8)), Addr::Replica(ReplicaId(1)));
        let _window = lock(&WINDOW);
        set_measuring(true);
        CURRENT.set(41);
        app.execute(b"not a kv op");
        CURRENT.set(0);
        assert!(app.snapshot().is_some());
        set_measuring(false);
        assert_eq!(app.as_any_ref().downcast_ref::<KvApp>().unwrap().len(), 4);
        let sink = lock(&sink);
        assert_eq!((sink.execute.calls, sink.snapshot.calls, sink.undo), (1, 1, 0));
        assert_eq!(sink.spans[0].cause, 41);
    }
}
