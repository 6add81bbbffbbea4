//! Protocol observability: metrics registries and structured event traces.
//!
//! Every figure in the paper is a claim about *where time goes* inside a
//! protocol — how many slots committed on the fast path versus through gap
//! agreement, how large confirm batches grew, how deep the aom reorder
//! buffer ran. [`crate::stats::NetStats`] counts only fabric-level traffic;
//! this module gives protocol code a per-node registry of monotonic
//! counters, gauges, and streaming histograms, plus a structured
//! [`Event`] trace, reachable from any handler through
//! [`crate::Context::metrics`] and [`crate::Context::emit`].
//!
//! ## Zero cost when disabled
//!
//! A registry built from [`ObsConfig::disabled`] short-circuits every
//! operation before touching its lock, and the default
//! [`crate::Context::metrics`] implementation returns a process-wide
//! disabled registry — so `Context` implementations that predate this
//! module (test probes, the switch models) compile unchanged and pay
//! nothing.
//!
//! ## Registry sharing
//!
//! All mutation goes through `&self` (a mutex guards the interior), so an
//! executor can hand the same registry to its event loop and to whoever is
//! reading snapshots — the simulator keeps one `Arc<Metrics>` per node
//! slot, the tokio runtime one per node thread. Snapshots are plain
//! serde-serializable values; [`MetricsSnapshot::merge`] folds the
//! per-node views into cluster aggregates for bench reports.
//!
//! ## One record, many sinks
//!
//! What a node looks like at one instant is a [`NodeReport`], built in one
//! place ([`NodeReport::build`]) from the registry, the node's own
//! [`NodeHealth`] and the executor's [`ExecSignals`]. A [`ReportSource`]
//! hands out the current reports of a deployment; every view of a running
//! node is a plain function of `&[NodeReport]`: the JSONL stream
//! ([`write_jsonl`]), `/metrics` ([`render_prometheus`]), `/health`
//! ([`health_body`]), the flight artifact ([`FlightDump`],
//! [`write_flight`]), and — in `neo-bench` — `neo-top`'s frame and the
//! request-trace assembler behind `neo-trace`.

use crate::time::Time;
use neo_wire::Addr;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// Per-node observability configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ObsConfig {
    /// Record counters, gauges, histograms, and event counts.
    pub metrics: bool,
    /// Keep the most recent `trace_capacity` [`EventRecord`]s per node in
    /// a ring; 0 disables the trace (event *counts* are still kept).
    /// Evicted records are tallied in [`MetricsSnapshot::trace_dropped`].
    pub trace_capacity: usize,
    /// Keep the most recent `packet_capacity` [`PacketRecord`]s per node
    /// (the flight recorder's packet-digest ring); 0 disables it.
    pub packet_capacity: usize,
}

impl Default for ObsConfig {
    fn default() -> Self {
        ObsConfig {
            metrics: true,
            trace_capacity: 0,
            packet_capacity: 0,
        }
    }
}

impl ObsConfig {
    /// Everything off: every registry operation is a no-op.
    pub fn disabled() -> Self {
        ObsConfig {
            metrics: false,
            trace_capacity: 0,
            packet_capacity: 0,
        }
    }

    /// Enable the bounded (most-recent) event trace with the given
    /// capacity.
    pub fn with_trace(mut self, capacity: usize) -> Self {
        self.trace_capacity = capacity;
        self
    }

    /// Enable the packet-digest ring with the given capacity.
    pub fn with_packets(mut self, capacity: usize) -> Self {
        self.packet_capacity = capacity;
        self
    }

    /// The flight-recorder preset: metrics plus bounded event and packet
    /// rings sized so a dump tells a causal story without unbounded
    /// memory (used by the chaos explorer and the runtime exporter).
    pub fn flight_recorder() -> Self {
        ObsConfig::default().with_trace(4096).with_packets(512)
    }
}

/// A structured protocol event. Variants carry only the identifiers needed
/// to correlate a trace with a request, log slot, or view — payloads stay
/// out. Request-lifecycle events carry enough to be stitched into
/// per-request timelines by the span assembler (`neo-bench`): the client
/// side is keyed by `(client, request)`, the replica side by `slot`,
/// `Commit` carries all three so the assembler can join them, and the
/// sequencer's stamp joins a slot by the aom header's `(epoch, seq)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum Event {
    /// A client issued a new request (span start).
    ClientSend { client: u64, request: u64 },
    /// A client collected its 2f+1 matching-reply quorum (span end).
    ClientCommit { client: u64, request: u64 },
    /// The sequencer stamped `(epoch, seq)` onto an aom packet.
    SequencerStamp {
        #[serde(default)]
        epoch: u64,
        seq: u64,
    },
    /// A client request reached the node's protocol layer. For NeoBFT
    /// replicas this is the aom delivery into `slot` of the packet stamped
    /// `(epoch, seq)`; protocols that receive requests before assigning an
    /// order report `slot: None`, and `seq` 0 (sequence numbers start at
    /// 1) says the request carried no stamp.
    RequestReceived {
        slot: Option<u64>,
        #[serde(default)]
        epoch: u64,
        #[serde(default)]
        seq: u64,
    },
    /// A slot was executed speculatively, ahead of the stable sync point.
    SpeculativeExecute { slot: u64 },
    /// An operation was executed and its reply issued (fast-path commit
    /// for NeoBFT, quorum commit for the baselines). `client`/`request`
    /// tie the slot back to the request for span assembly.
    Commit {
        slot: u64,
        client: u64,
        request: u64,
    },
    /// Gap agreement started for a missing slot.
    GapFind { slot: u64 },
    /// Gap agreement decided a slot (`noop` = the slot was voided).
    GapCommit { slot: u64, noop: bool },
    /// The node moved to a new view.
    ViewChange { view: u64 },
    /// The node installed a new sequencing epoch.
    EpochChange { epoch: u64 },
    /// A single aom confirm was produced for `seq` (Byzantine-network
    /// mode, §4.2).
    Confirm { seq: u64 },
    /// A batch of aom confirms was flushed to the group.
    ConfirmBatch { size: u32 },
    /// The aom layer declared a sequence number dropped.
    DropNotification { seq: u64 },
    /// The stable sync point advanced to `slot` (§B.2).
    SyncPoint { slot: u64 },
    /// The node queried the leader for a missing slot's certificate.
    Query { slot: u64 },
    /// The node answered a slot query with its ordering certificate.
    QueryReply { slot: u64 },
    /// A client flushed a multi-op batch envelope (`request` is the
    /// batch's first request id — the same id `ClientSend` carries).
    /// Only emitted for batches of more than one op, so unbatched runs
    /// produce exactly the pre-batching event stream.
    BatchFlush {
        client: u64,
        request: u64,
        size: u64,
    },
    /// A replica executed a multi-op batch occupying one slot.
    BatchExecute { slot: u64, size: u64 },
}

/// Discriminant-only view of [`Event`], used to index the per-kind counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    ClientSend,
    ClientCommit,
    SequencerStamp,
    RequestReceived,
    SpeculativeExecute,
    Commit,
    GapFind,
    GapCommit,
    ViewChange,
    EpochChange,
    Confirm,
    ConfirmBatch,
    DropNotification,
    SyncPoint,
    Query,
    QueryReply,
    BatchFlush,
    BatchExecute,
}

/// Number of [`EventKind`] variants.
pub const EVENT_KIND_COUNT: usize = 18;

impl EventKind {
    /// All kinds, in discriminant order.
    pub const ALL: [EventKind; EVENT_KIND_COUNT] = [
        EventKind::ClientSend,
        EventKind::ClientCommit,
        EventKind::SequencerStamp,
        EventKind::RequestReceived,
        EventKind::SpeculativeExecute,
        EventKind::Commit,
        EventKind::GapFind,
        EventKind::GapCommit,
        EventKind::ViewChange,
        EventKind::EpochChange,
        EventKind::Confirm,
        EventKind::ConfirmBatch,
        EventKind::DropNotification,
        EventKind::SyncPoint,
        EventKind::Query,
        EventKind::QueryReply,
        EventKind::BatchFlush,
        EventKind::BatchExecute,
    ];

    /// Stable snake_case name used as the key in snapshots and JSON.
    pub fn name(self) -> &'static str {
        match self {
            EventKind::ClientSend => "client_send",
            EventKind::ClientCommit => "client_commit",
            EventKind::SequencerStamp => "sequencer_stamp",
            EventKind::RequestReceived => "request_received",
            EventKind::SpeculativeExecute => "speculative_execute",
            EventKind::Commit => "commit",
            EventKind::GapFind => "gap_find",
            EventKind::GapCommit => "gap_commit",
            EventKind::ViewChange => "view_change",
            EventKind::EpochChange => "epoch_change",
            EventKind::Confirm => "confirm",
            EventKind::ConfirmBatch => "confirm_batch",
            EventKind::DropNotification => "drop_notification",
            EventKind::SyncPoint => "sync_point",
            EventKind::Query => "query",
            EventKind::QueryReply => "query_reply",
            EventKind::BatchFlush => "batch_flush",
            EventKind::BatchExecute => "batch_execute",
        }
    }
}

impl Event {
    /// The kind discriminant of this event.
    pub fn kind(self) -> EventKind {
        match self {
            Event::ClientSend { .. } => EventKind::ClientSend,
            Event::ClientCommit { .. } => EventKind::ClientCommit,
            Event::SequencerStamp { .. } => EventKind::SequencerStamp,
            Event::RequestReceived { .. } => EventKind::RequestReceived,
            Event::SpeculativeExecute { .. } => EventKind::SpeculativeExecute,
            Event::Commit { .. } => EventKind::Commit,
            Event::GapFind { .. } => EventKind::GapFind,
            Event::GapCommit { .. } => EventKind::GapCommit,
            Event::ViewChange { .. } => EventKind::ViewChange,
            Event::EpochChange { .. } => EventKind::EpochChange,
            Event::Confirm { .. } => EventKind::Confirm,
            Event::ConfirmBatch { .. } => EventKind::ConfirmBatch,
            Event::DropNotification { .. } => EventKind::DropNotification,
            Event::SyncPoint { .. } => EventKind::SyncPoint,
            Event::Query { .. } => EventKind::Query,
            Event::QueryReply { .. } => EventKind::QueryReply,
            Event::BatchFlush { .. } => EventKind::BatchFlush,
            Event::BatchExecute { .. } => EventKind::BatchExecute,
        }
    }
}

/// One entry of the bounded per-node event trace.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EventRecord {
    /// Virtual (or wall) time the event was emitted, nanoseconds.
    pub at: Time,
    /// The emitting node.
    pub node: Addr,
    /// The event itself.
    pub event: Event,
}

/// One entry of the flight recorder's packet-digest ring: enough to see
/// what a node received around a failure without storing payloads.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PacketRecord {
    /// Virtual (or wall) time the packet was delivered, nanoseconds.
    pub at: Time,
    /// Sender.
    pub from: Addr,
    /// Receiver (the node whose ring this is).
    pub to: Addr,
    /// Payload length in bytes.
    pub len: u64,
    /// FNV-1a digest of the payload bytes — cheap, deterministic, and
    /// good enough to tell retransmissions from distinct messages.
    pub digest: u64,
}

/// 64-bit FNV-1a over `bytes` (the packet-digest hash; not
/// collision-resistant, purely diagnostic).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// Histogram bucket layout: exact buckets for values < 64, then 32
// logarithmically-spaced sub-buckets per power of two (relative error
// bounded by 1/32 ≈ 3%). Covers the full u64 range in 1920 buckets.
const LINEAR_BUCKETS: usize = 64;
const SUB_BUCKETS: u64 = 32;
const N_BUCKETS: usize = LINEAR_BUCKETS + (64 - 6) * SUB_BUCKETS as usize;

fn bucket_index(v: u64) -> usize {
    if v < LINEAR_BUCKETS as u64 {
        return v as usize;
    }
    let e = 63 - u64::from(v.leading_zeros());
    let sub = (v >> (e - 5)) & (SUB_BUCKETS - 1);
    (64 + (e - 6) * SUB_BUCKETS + sub) as usize
}

/// Lower bound of the values mapped to bucket `i` (the value reported for
/// quantiles landing in that bucket).
pub fn bucket_floor(i: u32) -> u64 {
    let i = u64::from(i);
    if i < LINEAR_BUCKETS as u64 {
        return i;
    }
    let e = 6 + (i - 64) / SUB_BUCKETS;
    let sub = (i - 64) % SUB_BUCKETS;
    (1u64 << e) + (sub << (e - 5))
}

/// A streaming histogram with bounded relative error (~3% above 64).
#[derive(Clone, Debug)]
pub struct Histogram {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; N_BUCKETS],
        }
    }
}

impl Histogram {
    /// Record one value.
    pub fn observe(&mut self, v: u64) {
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        self.buckets[bucket_index(v)] += 1;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// The value at quantile `q` in `[0, 1]` (lower bound of its bucket;
    /// 0 for an empty histogram).
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut acc = 0u64;
        for (i, c) in self.buckets.iter().enumerate() {
            acc += c;
            if acc >= target {
                return bucket_floor(i as u32);
            }
        }
        self.max
    }

    /// Freeze into a serializable, mergeable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0 } else { self.min },
            max: self.max,
            p50: self.quantile(0.50),
            p90: self.quantile(0.90),
            p99: self.quantile(0.99),
            buckets: self
                .buckets
                .iter()
                .enumerate()
                .filter(|(_, c)| **c > 0)
                .map(|(i, c)| (i as u32, *c))
                .collect(),
        }
    }
}

/// Serializable summary of one [`Histogram`].
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub count: u64,
    pub sum: u64,
    pub min: u64,
    pub max: u64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    /// Sparse `(bucket index, count)` pairs — enough to merge snapshots
    /// across nodes without losing quantile accuracy.
    pub buckets: Vec<(u32, u64)>,
}

impl HistogramSnapshot {
    /// Mean of the recorded values (0 if empty).
    pub fn mean(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.sum / self.count
        }
    }

    /// Fold `other` into `self`, recomputing the quantiles from the merged
    /// sparse buckets.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        let mut merged: BTreeMap<u32, u64> = self.buckets.iter().copied().collect();
        for (i, c) in &other.buckets {
            *merged.entry(*i).or_default() += c;
        }
        self.buckets = merged.into_iter().collect();
        self.p50 = quantile_from_buckets(&self.buckets, self.count, 0.50);
        self.p90 = quantile_from_buckets(&self.buckets, self.count, 0.90);
        self.p99 = quantile_from_buckets(&self.buckets, self.count, 0.99);
    }
}

fn quantile_from_buckets(buckets: &[(u32, u64)], count: u64, q: f64) -> u64 {
    let target = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut acc = 0u64;
    for (i, c) in buckets {
        acc += c;
        if acc >= target {
            return bucket_floor(*i);
        }
    }
    buckets.last().map(|(i, _)| bucket_floor(*i)).unwrap_or(0)
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, i64>,
    histograms: BTreeMap<String, Histogram>,
    events: [u64; EVENT_KIND_COUNT],
    trace: VecDeque<EventRecord>,
    trace_dropped: u64,
    packets: VecDeque<PacketRecord>,
    packets_dropped: u64,
}

/// A per-node metrics registry.
///
/// All operations take `&self` (the interior is mutex-guarded) so one
/// registry can be shared between an executor's event loop and snapshot
/// readers via `Arc`. Every operation checks the enabled flag before
/// touching the lock, so a disabled registry costs one branch.
pub struct Metrics {
    enabled: bool,
    trace_capacity: usize,
    packet_capacity: usize,
    inner: Mutex<Inner>,
}

impl Default for Metrics {
    fn default() -> Self {
        Metrics::new(ObsConfig::default())
    }
}

impl std::fmt::Debug for Metrics {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Metrics")
            .field("enabled", &self.enabled)
            .field("trace_capacity", &self.trace_capacity)
            .finish_non_exhaustive()
    }
}

impl Metrics {
    /// Build a registry from `cfg`.
    pub fn new(cfg: ObsConfig) -> Self {
        Metrics {
            enabled: cfg.metrics,
            trace_capacity: cfg.trace_capacity,
            packet_capacity: cfg.packet_capacity,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The process-wide disabled registry, used by the default
    /// [`crate::Context::metrics`] implementation.
    pub fn disabled() -> &'static Metrics {
        static DISABLED: OnceLock<Metrics> = OnceLock::new();
        DISABLED.get_or_init(|| Metrics::new(ObsConfig::disabled()))
    }

    /// Whether this registry records anything. Instrumentation that does
    /// non-trivial work to *compute* a metric should guard on this.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Increment the monotonic counter `name` by 1.
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Increment the monotonic counter `name` by `v`.
    pub fn add(&self, name: &str, v: u64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.lock();
        if let Some(c) = inner.counters.get_mut(name) {
            *c += v;
        } else {
            inner.counters.insert(name.to_string(), v);
        }
    }

    /// Set the gauge `name` to `v` (a point-in-time level, e.g. a buffer
    /// depth).
    pub fn set_gauge(&self, name: &str, v: i64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.lock();
        if let Some(g) = inner.gauges.get_mut(name) {
            *g = v;
        } else {
            inner.gauges.insert(name.to_string(), v);
        }
    }

    /// Record `v` into the streaming histogram `name`.
    pub fn observe(&self, name: &str, v: u64) {
        if !self.enabled {
            return;
        }
        let mut inner = self.lock();
        if let Some(h) = inner.histograms.get_mut(name) {
            h.observe(v);
        } else {
            let mut h = Histogram::default();
            h.observe(v);
            inner.histograms.insert(name.to_string(), h);
        }
    }

    /// Count `ev` and, when tracing is enabled, append a record to the
    /// most-recent ring (the oldest record is evicted and tallied in
    /// `trace_dropped` once the ring is full). Called by the default
    /// [`crate::Context::emit`].
    pub fn record_event(&self, at: Time, node: Addr, ev: Event) {
        if !self.enabled {
            return;
        }
        let mut inner = self.lock();
        inner.events[event_slot(ev.kind())] += 1;
        if self.trace_capacity > 0 {
            if inner.trace.len() == self.trace_capacity {
                inner.trace.pop_front();
                inner.trace_dropped += 1;
            }
            inner.trace.push_back(EventRecord {
                at,
                node,
                event: ev,
            });
        }
    }

    /// Record a delivered packet's digest into the flight recorder's ring
    /// (the oldest record is evicted once the ring is full). A no-op
    /// unless [`ObsConfig::packet_capacity`] is set.
    pub fn record_packet(&self, at: Time, from: Addr, to: Addr, payload: &[u8]) {
        if !self.enabled || self.packet_capacity == 0 {
            return;
        }
        let rec = PacketRecord {
            at,
            from,
            to,
            len: payload.len() as u64,
            digest: fnv1a(payload),
        };
        let mut inner = self.lock();
        if inner.packets.len() == self.packet_capacity {
            inner.packets.pop_front();
            inner.packets_dropped += 1;
        }
        inner.packets.push_back(rec);
    }

    /// Whether this registry keeps a packet-digest ring (instrumentation
    /// that must *hash* a payload should guard on this).
    pub fn records_packets(&self) -> bool {
        self.enabled && self.packet_capacity > 0
    }

    /// Current value of counter `name` (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.lock().counters.get(name).copied().unwrap_or(0)
    }

    /// Number of events of `kind` recorded so far.
    pub fn event_count(&self, kind: EventKind) -> u64 {
        if !self.enabled {
            return 0;
        }
        self.lock().events[event_slot(kind)]
    }

    /// Drain the bounded event trace, leaving it empty.
    pub fn take_trace(&self) -> Vec<EventRecord> {
        if !self.enabled {
            return Vec::new();
        }
        std::mem::take(&mut self.lock().trace).into()
    }

    /// Copy the bounded event trace without draining it (flight-recorder
    /// dumps must not perturb a still-running node).
    pub fn trace_snapshot(&self) -> Vec<EventRecord> {
        if !self.enabled {
            return Vec::new();
        }
        self.lock().trace.iter().copied().collect()
    }

    /// Copy the packet-digest ring without draining it.
    pub fn packet_snapshot(&self) -> Vec<PacketRecord> {
        if !self.enabled {
            return Vec::new();
        }
        self.lock().packets.iter().copied().collect()
    }

    /// Freeze the registry into a serializable snapshot. Disabled
    /// registries snapshot to the empty default.
    pub fn snapshot(&self) -> MetricsSnapshot {
        if !self.enabled {
            return MetricsSnapshot::default();
        }
        let inner = self.lock();
        let mut events = BTreeMap::new();
        for kind in EventKind::ALL {
            let n = inner.events[event_slot(kind)];
            if n > 0 {
                events.insert(kind.name().to_string(), n);
            }
        }
        MetricsSnapshot {
            counters: inner.counters.clone(),
            gauges: inner.gauges.clone(),
            events,
            histograms: inner
                .histograms
                .iter()
                .map(|(k, h)| (k.clone(), h.snapshot()))
                .collect(),
            trace_dropped: inner.trace_dropped,
            packets_dropped: inner.packets_dropped,
        }
    }
}

fn event_slot(kind: EventKind) -> usize {
    EventKind::ALL
        .iter()
        .position(|k| *k == kind)
        .expect("kind listed in ALL")
}

/// Serializable point-in-time view of one registry (or, after
/// [`merge`](MetricsSnapshot::merge), of many).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Monotonic counters. Summed on merge.
    pub counters: BTreeMap<String, u64>,
    /// Gauges (levels). Summed on merge, so a merged gauge reads as a
    /// cluster-wide total (e.g. total buffered envelopes).
    pub gauges: BTreeMap<String, i64>,
    /// Per-kind event counts, keyed by [`EventKind::name`]. Only nonzero
    /// kinds appear. Summed on merge.
    pub events: BTreeMap<String, u64>,
    /// Histograms, merged bucket-wise.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
    /// Trace records evicted because the per-node ring was full.
    #[serde(default)]
    pub trace_dropped: u64,
    /// Packet records evicted because the per-node ring was full.
    #[serde(default)]
    pub packets_dropped: u64,
}

impl MetricsSnapshot {
    /// Count of events of `kind` (0 if absent).
    pub fn event(&self, kind: EventKind) -> u64 {
        self.events.get(kind.name()).copied().unwrap_or(0)
    }

    /// Fold `other` into `self`: counters/gauges/events sum, histograms
    /// merge bucket-wise with quantiles recomputed.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (k, v) in &other.counters {
            *self.counters.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.gauges {
            *self.gauges.entry(k.clone()).or_default() += v;
        }
        for (k, v) in &other.events {
            *self.events.entry(k.clone()).or_default() += v;
        }
        for (k, h) in &other.histograms {
            self.histograms.entry(k.clone()).or_default().merge(h);
        }
        self.trace_dropped += other.trace_dropped;
        self.packets_dropped += other.packets_dropped;
    }
}

/// Whether a report copies the event ring or empties it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceRead {
    /// Leave the ring as it is: a flight dump or a scrape must not perturb
    /// a node that keeps running.
    Copy,
    /// Take the records out, so successive reports of one node concatenate
    /// into a complete bounded-loss event log (the JSONL stream).
    Drain,
}

/// What only the executor can see of a node: the state of its verify
/// stage. The simulator verifies inline and reports the default.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExecSignals {
    /// Verification tasks queued behind the worker pool.
    pub verify_queue_depth: u64,
    /// Verification tasks currently on worker threads.
    pub verify_in_flight: u64,
    /// A verify worker panicked; the node is stopping.
    pub verify_poisoned: bool,
}

/// One node at one instant: the single record every sink reads. A line of
/// the JSONL stream, a node of a [`FlightDump`] and an element of the
/// telemetry server's `/reports` body are all this type. Artifacts written
/// before it existed (a bare snapshot plus rings, or a stream line without
/// packets) still parse: what they lack takes its default.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct NodeReport {
    /// Time of the report on the clock its events carry: virtual time
    /// under the simulator, nanoseconds since the node started on the
    /// runtime.
    #[serde(default)]
    pub at: Time,
    /// The reporting node.
    pub node: Addr,
    /// Its metrics at that moment.
    pub snapshot: MetricsSnapshot,
    /// Its `/health` document (`None` only in artifacts that predate it).
    #[serde(default)]
    pub health: Option<HealthReport>,
    /// The event ring's contents (see [`TraceRead`]).
    #[serde(default)]
    pub events: Vec<EventRecord>,
    /// The most recent packet digests.
    #[serde(default)]
    pub packets: Vec<PacketRecord>,
}

impl NodeReport {
    /// The one place a report — and the [`HealthReport`] inside it — is
    /// built: `metrics` is the node's registry, `protocol` what the node
    /// says of itself ([`crate::Node::health`]), `exec` what its executor
    /// sees. Healthy means the verify stage is intact and the protocol
    /// layer, if it reports a recovery phase, is `active`.
    pub fn build(
        at: Time,
        node: Addr,
        metrics: &Metrics,
        protocol: Option<NodeHealth>,
        exec: ExecSignals,
        trace: TraceRead,
    ) -> NodeReport {
        let snapshot = metrics.snapshot();
        let healthy = !exec.verify_poisoned
            && protocol
                .as_ref()
                .and_then(|p| p.recovery_phase.as_deref())
                .is_none_or(|phase| phase == "active");
        let health = HealthReport {
            node: node.to_string(),
            healthy,
            committed: snapshot.event(EventKind::Commit),
            verify_queue_depth: exec.verify_queue_depth,
            verify_in_flight: exec.verify_in_flight,
            verify_poisoned: exec.verify_poisoned,
            fsync_p99_ns: snapshot
                .histograms
                .get("store.fsync_ns")
                .map_or(0, |h| h.p99),
            protocol,
        };
        NodeReport {
            at,
            node,
            snapshot,
            health: Some(health),
            events: match trace {
                TraceRead::Copy => metrics.trace_snapshot(),
                TraceRead::Drain => metrics.take_trace(),
            },
            packets: metrics.packet_snapshot(),
        }
    }
}

/// Where reports come from: the hub the single-threaded simulator
/// publishes into ([`crate::telemetry::TelemetryHub`]), or the handles of
/// the runtime's node threads.
pub trait ReportSource: Send + Sync {
    /// The current report of every node, event rings copied.
    fn reports(&self) -> Vec<NodeReport>;
}

/// Several sources are one source: a deployment is the `Vec` of its nodes'
/// handles.
impl<S: ReportSource> ReportSource for Vec<S> {
    fn reports(&self) -> Vec<NodeReport> {
        self.iter().flat_map(|s| s.reports()).collect()
    }
}

/// All reports' events merged into one timeline, sorted by time (ties
/// keep report order — each ring is already chronological).
pub fn merged_events(reports: &[NodeReport]) -> Vec<EventRecord> {
    let mut all: Vec<EventRecord> = reports
        .iter()
        .flat_map(|n| n.events.iter().copied())
        .collect();
    all.sort_by_key(|r| r.at);
    all
}

/// The JSONL sink (`--obs-out`): one line per report, then a flush.
pub fn write_jsonl(w: &mut dyn Write, reports: &[NodeReport]) -> std::io::Result<()> {
    for report in reports {
        serde_json::to_writer(&mut *w, report)?;
        w.write_all(b"\n")?;
    }
    w.flush()
}

/// The `/health` body: a JSON array of the reports' [`HealthReport`]s.
pub fn health_body(reports: &[NodeReport]) -> String {
    let docs: Vec<&HealthReport> = reports.iter().filter_map(|r| r.health.as_ref()).collect();
    serde_json::to_string_pretty(&docs).unwrap_or_else(|_| "[]".to_string())
}

/// A flight-recorder dump: every node's recent events, packet digests,
/// and metrics, frozen at the moment something went wrong. Serialized to
/// a JSON artifact on an invariant violation, a failed chaos sweep, or
/// SIGINT — the failure's black box, rendered by `neo-trace`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlightDump {
    /// Why the dump was taken (`"invariant_violation"`, `"sigint"`, ...).
    pub reason: String,
    /// Virtual (or wall) time of the dump, nanoseconds.
    pub at: Time,
    /// Rendered safety violations, if any.
    #[serde(default)]
    pub violations: Vec<String>,
    /// Free-form context: chaos seed, serialized plan, run parameters.
    #[serde(default)]
    pub context: BTreeMap<String, String>,
    /// Per-node recent history.
    pub nodes: Vec<NodeReport>,
}

/// Where flight artifacts go: `flag` if given, then `$NEO_FLIGHT_DIR`,
/// then `target/flight`.
pub fn flight_dir(flag: Option<&str>) -> PathBuf {
    flag.map(PathBuf::from)
        .or_else(|| std::env::var_os("NEO_FLIGHT_DIR").map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("target/flight"))
}

/// The flight sink: write `dump` as pretty JSON to `dir/file_name`
/// (creating `dir`) and say on stderr, as `who`, where it went or why not.
pub fn write_flight(who: &str, dir: &Path, file_name: &str, dump: &FlightDump) {
    let path = dir.join(file_name);
    let written = std::fs::create_dir_all(dir).and_then(|()| {
        let json = serde_json::to_vec_pretty(dump)?;
        std::fs::write(&path, json)
    });
    match written {
        Ok(()) => eprintln!("{who}: flight recorder written to {}", path.display()),
        Err(e) => eprintln!("{who}: cannot write {}: {e}", path.display()),
    }
}

/// A node's self-reported protocol health: the sans-IO half of the
/// `/health` document. Implementations of [`crate::Node::health`] fill
/// this from their own state machine; [`NodeReport::build`] wraps it in a
/// [`HealthReport`] with the signals only the executor can see.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct NodeHealth {
    /// `"replica"`, `"client"`, `"sequencer"`, `"config"`, ...
    pub role: String,
    /// Installed sequencing epoch.
    pub epoch: u64,
    /// Current view's leader number within the epoch.
    pub view: u64,
    /// Recovery phase name (`None` if the node never ran recovery; a
    /// restarted replica reports `recovering` → `fetching_checkpoint` →
    /// `replaying` → `active`).
    pub recovery_phase: Option<String>,
    /// Slot the node resumed from after a restart.
    pub recovery_base: Option<u64>,
    /// Next slot to execute (the speculative execution cursor).
    pub last_exec: u64,
    /// Current log length in slots.
    pub log_len: u64,
    /// First slot the log still holds: everything below was let go of
    /// under a certified checkpoint, so `log_len - log_base` is what the
    /// node keeps in memory.
    #[serde(default)]
    pub log_base: u64,
    /// Stable sync point (§B.2).
    pub sync_point: u64,
    /// Sync-point slot of the newest certified checkpoint.
    pub stable_checkpoint: Option<u64>,
}

/// The full `/health` document for one node: protocol health plus
/// executor-side signals. Built only by [`NodeReport::build`]; serialized
/// as JSON by the telemetry server and read by `neo-top` from the report
/// that carries it.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// The node's address label (e.g. `"r0"`).
    pub node: String,
    /// False once the verify pool poisons or the node thread stops.
    pub healthy: bool,
    /// Committed operations so far ([`EventKind::Commit`] count).
    pub committed: u64,
    /// Verification tasks queued behind the worker pool.
    pub verify_queue_depth: u64,
    /// Verification tasks currently on worker threads.
    pub verify_in_flight: u64,
    /// A verify worker panicked; the node is stopping.
    pub verify_poisoned: bool,
    /// p99 of the durable store's fsync latency, nanoseconds (0 when the
    /// node has no store or has not flushed yet).
    pub fsync_p99_ns: u64,
    /// The state machine's own view of itself, if it reports one.
    #[serde(default)]
    pub protocol: Option<NodeHealth>,
}

/// Sanitize a metric name into the Prometheus charset
/// `[a-zA-Z_:][a-zA-Z0-9_:]*` — our dotted names (`store.fsync_ns`)
/// become underscored (`store_fsync_ns`).
pub fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len());
    for (i, c) in name.chars().enumerate() {
        let ok = c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit());
        out.push(if ok { c } else { '_' });
    }
    if out.is_empty() {
        out.push('_');
    }
    out
}

/// Escape a Prometheus label value: backslash, double quote, newline.
fn prom_label_escape(v: &str) -> String {
    let mut out = String::with_capacity(v.len());
    for c in v.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

/// Inclusive upper bound of the values mapped to bucket `i`, or `None`
/// for the final bucket (rendered as `+Inf` only).
fn bucket_upper(i: u32) -> Option<u64> {
    if (i as usize) + 1 >= N_BUCKETS {
        None
    } else {
        Some(bucket_floor(i + 1) - 1)
    }
}

/// Render the reports' metrics snapshots as Prometheus text exposition
/// (version 0.0.4): counters and per-kind event counts as `_total`
/// counter families, gauges as gauges, histograms as cumulative-bucket
/// histogram families with `le` bounds derived from the log-linear
/// bucket layout. Every sample carries a `node` label; families are
/// grouped so each `# TYPE` line appears exactly once per scrape.
pub fn render_prometheus(reports: &[NodeReport]) -> String {
    let mut out = String::new();

    // family name -> [(node, rendered value)]
    let mut counters: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    let mut gauges: BTreeMap<String, Vec<(String, String)>> = BTreeMap::new();
    let mut events: Vec<(String, String, u64)> = Vec::new(); // (node, kind, count)
    let mut hists: BTreeMap<String, Vec<(String, HistogramSnapshot)>> = BTreeMap::new();

    for report in reports {
        let node = prom_label_escape(&report.node.to_string());
        let snap = &report.snapshot;
        for (k, v) in &snap.counters {
            counters
                .entry(format!("neobft_{}_total", prom_name(k)))
                .or_default()
                .push((node.clone(), v.to_string()));
        }
        for (k, v) in &snap.gauges {
            gauges
                .entry(format!("neobft_{}", prom_name(k)))
                .or_default()
                .push((node.clone(), v.to_string()));
        }
        for (k, v) in &snap.events {
            events.push((node.clone(), prom_label_escape(k), *v));
        }
        for (k, h) in &snap.histograms {
            hists
                .entry(format!("neobft_{}", prom_name(k)))
                .or_default()
                .push((node.clone(), h.clone()));
        }
    }

    for (family, samples) in &counters {
        out.push_str(&format!("# TYPE {family} counter\n"));
        for (node, v) in samples {
            out.push_str(&format!("{family}{{node=\"{node}\"}} {v}\n"));
        }
    }
    for (family, samples) in &gauges {
        out.push_str(&format!("# TYPE {family} gauge\n"));
        for (node, v) in samples {
            out.push_str(&format!("{family}{{node=\"{node}\"}} {v}\n"));
        }
    }
    if !events.is_empty() {
        out.push_str("# TYPE neobft_events_total counter\n");
        for (node, kind, v) in &events {
            out.push_str(&format!(
                "neobft_events_total{{node=\"{node}\",kind=\"{kind}\"}} {v}\n"
            ));
        }
    }
    for (family, samples) in &hists {
        out.push_str(&format!("# TYPE {family} histogram\n"));
        for (node, h) in samples {
            let mut cum = 0u64;
            for (i, c) in &h.buckets {
                cum += c;
                if let Some(le) = bucket_upper(*i) {
                    out.push_str(&format!(
                        "{family}_bucket{{node=\"{node}\",le=\"{le}\"}} {cum}\n"
                    ));
                }
            }
            out.push_str(&format!(
                "{family}_bucket{{node=\"{node}\",le=\"+Inf\"}} {}\n",
                h.count
            ));
            out.push_str(&format!("{family}_sum{{node=\"{node}\"}} {}\n", h.sum));
            out.push_str(&format!("{family}_count{{node=\"{node}\"}} {}\n", h.count));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_wire::ReplicaId;

    const R0: Addr = Addr::Replica(ReplicaId(0));

    /// `node`'s report over `m`, nothing said by protocol or executor.
    fn report(node: Addr, m: &Metrics) -> NodeReport {
        NodeReport::build(0, node, m, None, ExecSignals::default(), TraceRead::Copy)
    }

    #[test]
    fn bucket_mapping_roundtrips() {
        for v in [0, 1, 63, 64, 65, 127, 128, 1000, 1 << 20, u64::MAX] {
            let i = bucket_index(v);
            let floor = bucket_floor(i as u32);
            assert!(floor <= v, "floor {floor} > value {v}");
            // Relative error is bounded by one sub-bucket width.
            if v >= 64 {
                assert!(v - floor <= v / 32, "bucket too wide at {v}");
            } else {
                assert_eq!(floor, v);
            }
        }
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let mut h = Histogram::default();
        for v in 1..=1000u64 {
            h.observe(v);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.50);
        let p90 = h.quantile(0.90);
        let p99 = h.quantile(0.99);
        assert!((480..=500).contains(&p50), "p50 = {p50}");
        assert!((870..=900).contains(&p90), "p90 = {p90}");
        assert!((955..=990).contains(&p99), "p99 = {p99}");
        let snap = h.snapshot();
        assert_eq!(snap.min, 1);
        assert_eq!(snap.max, 1000);
        assert_eq!(snap.sum, 500_500);
        assert_eq!(snap.mean(), 500);
    }

    #[test]
    fn small_histograms_are_exact() {
        let mut h = Histogram::default();
        for v in [3u64, 5, 5, 7] {
            h.observe(v);
        }
        assert_eq!(h.quantile(0.0), 3);
        assert_eq!(h.quantile(0.5), 5);
        assert_eq!(h.quantile(1.0), 7);
    }

    #[test]
    fn counters_merge_across_nodes() {
        let a = Metrics::new(ObsConfig::default());
        let b = Metrics::new(ObsConfig::default());
        a.incr("commits");
        a.add("commits", 4);
        a.set_gauge("buffered", 3);
        b.add("commits", 10);
        b.incr("gaps");
        b.set_gauge("buffered", 2);
        let mut agg = a.snapshot();
        agg.merge(&b.snapshot());
        assert_eq!(agg.counters["commits"], 15);
        assert_eq!(agg.counters["gaps"], 1);
        assert_eq!(agg.gauges["buffered"], 5);
    }

    #[test]
    fn histograms_merge_with_recomputed_quantiles() {
        let a = Metrics::new(ObsConfig::default());
        let b = Metrics::new(ObsConfig::default());
        for v in 1..=500u64 {
            a.observe("lat", v);
        }
        for v in 501..=1000u64 {
            b.observe("lat", v);
        }
        let mut agg = a.snapshot();
        agg.merge(&b.snapshot());
        let h = &agg.histograms["lat"];
        assert_eq!(h.count, 1000);
        assert_eq!(h.min, 1);
        assert_eq!(h.max, 1000);
        assert!((480..=500).contains(&h.p50), "merged p50 = {}", h.p50);
        assert!((955..=990).contains(&h.p99), "merged p99 = {}", h.p99);
    }

    fn commit(slot: u64) -> Event {
        Event::Commit {
            slot,
            client: 0,
            request: slot + 1,
        }
    }

    #[test]
    fn events_count_per_kind() {
        let m = Metrics::new(ObsConfig::default());
        let node = Addr::Replica(ReplicaId(0));
        m.record_event(10, node, commit(1));
        m.record_event(20, node, commit(2));
        m.record_event(30, node, Event::GapFind { slot: 3 });
        assert_eq!(m.event_count(EventKind::Commit), 2);
        assert_eq!(m.event_count(EventKind::GapFind), 1);
        assert_eq!(m.event_count(EventKind::GapCommit), 0);
        let snap = m.snapshot();
        assert_eq!(snap.event(EventKind::Commit), 2);
        assert_eq!(snap.event(EventKind::GapCommit), 0);
        assert!(!snap.events.contains_key("gap_commit"));
    }

    #[test]
    fn trace_ring_keeps_most_recent() {
        let m = Metrics::new(ObsConfig::default().with_trace(2));
        let node = Addr::Replica(ReplicaId(1));
        for slot in 0..5u64 {
            m.record_event(slot, node, commit(slot));
        }
        // Ring semantics: the *oldest* records are evicted, so a dump
        // shows what happened just before a failure.
        assert_eq!(
            m.trace_snapshot().iter().map(|r| r.at).collect::<Vec<_>>(),
            vec![3, 4]
        );
        let trace = m.take_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace[0].event, commit(3));
        assert_eq!(trace[1].event, commit(4));
        assert_eq!(m.snapshot().trace_dropped, 3);
        // Event counts are unaffected by the trace cap.
        assert_eq!(m.event_count(EventKind::Commit), 5);
        // take_trace drained the ring; the snapshot copy did not.
        assert!(m.take_trace().is_empty());
    }

    #[test]
    fn packet_ring_records_digests() {
        let m = Metrics::new(ObsConfig::default().with_packets(2));
        assert!(m.records_packets());
        let a = Addr::Replica(ReplicaId(0));
        let b = Addr::Replica(ReplicaId(1));
        m.record_packet(1, a, b, b"one");
        m.record_packet(2, a, b, b"two");
        m.record_packet(3, a, b, b"three");
        let packets = m.packet_snapshot();
        assert_eq!(packets.len(), 2);
        assert_eq!(packets[0].at, 2);
        assert_eq!(packets[1].at, 3);
        assert_eq!(packets[1].len, 5);
        assert_eq!(packets[1].digest, fnv1a(b"three"));
        assert_ne!(packets[0].digest, packets[1].digest);
        assert_eq!(m.snapshot().packets_dropped, 1);
        // Without packet capacity, recording is a no-op.
        let off = Metrics::new(ObsConfig::default());
        assert!(!off.records_packets());
        off.record_packet(1, a, b, b"x");
        assert!(off.packet_snapshot().is_empty());
    }

    #[test]
    fn disabled_registry_is_inert() {
        let m = Metrics::new(ObsConfig::disabled());
        assert!(!m.enabled());
        m.incr("x");
        m.observe("h", 42);
        m.set_gauge("g", 7);
        m.record_event(
            0,
            Addr::Config,
            Event::RequestReceived {
                slot: None,
                epoch: 0,
                seq: 0,
            },
        );
        m.record_packet(0, Addr::Config, Addr::Config, b"ignored");
        assert_eq!(m.counter("x"), 0);
        assert_eq!(m.event_count(EventKind::RequestReceived), 0);
        assert_eq!(m.snapshot(), MetricsSnapshot::default());
        assert!(m.take_trace().is_empty());
        assert!(m.packet_snapshot().is_empty());
    }

    #[test]
    fn snapshots_serialize_to_json() {
        let m = Metrics::new(ObsConfig::default());
        m.incr("replica.messages_in");
        m.observe("client.latency_ns", 1500);
        m.record_event(5, Addr::Replica(ReplicaId(2)), commit(9));
        let json = serde_json::to_string(&m.snapshot()).expect("serialize");
        assert!(json.contains("replica.messages_in"));
        assert!(json.contains("\"commit\":1"));
        let back: MetricsSnapshot = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, m.snapshot());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let m = Metrics::new(ObsConfig::default());
        m.incr("c");
        m.observe("h", 9);
        m.record_event(1, Addr::Config, Event::GapFind { slot: 0 });
        let base = m.snapshot();

        // empty.merge(full) == full.
        let mut empty = MetricsSnapshot::default();
        empty.merge(&base);
        assert_eq!(empty, base);
        // full.merge(empty) == full.
        let mut full = base.clone();
        full.merge(&MetricsSnapshot::default());
        assert_eq!(full, base);
        // empty.merge(empty) == empty.
        let mut e = MetricsSnapshot::default();
        e.merge(&MetricsSnapshot::default());
        assert_eq!(e, MetricsSnapshot::default());
    }

    #[test]
    fn merge_is_associative_across_three_nodes() {
        let nodes: Vec<MetricsSnapshot> = (0..3u64)
            .map(|i| {
                let m = Metrics::new(ObsConfig::default().with_trace(4));
                m.add("ops", i + 1);
                m.set_gauge("depth", i as i64);
                for v in [i + 1, 10 * (i + 1), 1000 * (i + 1)] {
                    m.observe("lat", v);
                }
                m.record_event(i, Addr::Replica(ReplicaId(i as u32)), commit(i));
                m.snapshot()
            })
            .collect();
        // (a ⊕ b) ⊕ c
        let mut left = nodes[0].clone();
        left.merge(&nodes[1]);
        left.merge(&nodes[2]);
        // a ⊕ (b ⊕ c)
        let mut bc = nodes[1].clone();
        bc.merge(&nodes[2]);
        let mut right = nodes[0].clone();
        right.merge(&bc);
        assert_eq!(left, right);
        assert_eq!(left.counters["ops"], 6);
        assert_eq!(left.gauges["depth"], 3);
        assert_eq!(left.histograms["lat"].count, 9);
        assert_eq!(left.event(EventKind::Commit), 3);
    }

    #[test]
    fn histogram_sum_saturates_instead_of_wrapping() {
        let mut h = Histogram::default();
        h.observe(u64::MAX);
        h.observe(u64::MAX);
        h.observe(1);
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.sum, u64::MAX, "sum saturates");
        assert_eq!(snap.max, u64::MAX);
        assert_eq!(snap.min, 1);
        // Merging two saturated snapshots stays saturated.
        let mut a = snap.clone();
        a.merge(&snap);
        assert_eq!(a.sum, u64::MAX);
        assert_eq!(a.count, 6);
        assert_eq!(a.p99, bucket_floor(bucket_index(u64::MAX) as u32));
    }

    #[test]
    fn flight_dump_round_trips_and_merges_events() {
        let m = Metrics::new(ObsConfig::flight_recorder());
        let a = R0;
        let b = Addr::Client(neo_wire::ClientId(1));
        m.record_event(20, a, commit(0));
        m.record_packet(5, b, a, b"payload");
        let mb = Metrics::new(ObsConfig::flight_recorder());
        mb.record_event(
            10,
            b,
            Event::ClientSend {
                client: 1,
                request: 1,
            },
        );
        let dump = FlightDump {
            reason: "test".into(),
            at: 30,
            violations: vec!["prefix divergence".into()],
            context: BTreeMap::new(),
            nodes: vec![report(a, &m), report(b, &mb)],
        };
        assert_eq!(dump.nodes[0].packets.len(), 1);
        let json = serde_json::to_string_pretty(&dump).expect("serialize");
        let back: FlightDump = serde_json::from_str(&json).expect("deserialize");
        assert_eq!(back, dump);
        // Merged timeline is time-sorted across nodes.
        let merged = merged_events(&back.nodes);
        assert_eq!(merged.len(), 2);
        assert_eq!(merged[0].at, 10);
        assert_eq!(merged[0].node, b);
        assert_eq!(merged[1].at, 20);
    }

    #[test]
    fn a_drained_report_leaves_the_ring_empty_and_a_copied_one_does_not() {
        let m = Metrics::new(ObsConfig::flight_recorder());
        m.record_event(1, R0, commit(0));
        assert_eq!(report(R0, &m).events.len(), 1);
        assert_eq!(
            report(R0, &m).events.len(),
            1,
            "copying twice sees it twice"
        );
        let drained = NodeReport::build(2, R0, &m, None, ExecSignals::default(), TraceRead::Drain);
        assert_eq!(drained.events.len(), 1);
        assert!(report(R0, &m).events.is_empty());
        // Counts are not the ring: the snapshot still says one commit.
        assert_eq!(report(R0, &m).snapshot.event(EventKind::Commit), 1);
    }

    #[test]
    fn healthy_means_verify_stage_intact_and_not_mid_recovery() {
        let phase = |p: Option<&str>| {
            Some(NodeHealth {
                role: "replica".into(),
                recovery_phase: p.map(str::to_string),
                ..NodeHealth::default()
            })
        };
        let poisoned = ExecSignals {
            verify_poisoned: true,
            ..ExecSignals::default()
        };
        let ok = ExecSignals::default();
        for (protocol, exec, healthy) in [
            (phase(Some("active")), ok, true),
            (phase(None), ok, true), // never ran recovery
            (phase(Some("fetching_checkpoint")), ok, false),
            (phase(Some("active")), poisoned, false),
            (None, ok, true), // a node that reports no protocol health
            (None, poisoned, false),
        ] {
            let m = Metrics::default();
            m.record_event(1, R0, commit(0));
            m.observe("store.fsync_ns", 40);
            let r = NodeReport::build(9, R0, &m, protocol.clone(), exec, TraceRead::Copy);
            let h = r.health.expect("a built report carries its health");
            assert_eq!(h.healthy, healthy, "{protocol:?} {exec:?}");
            assert_eq!(
                (h.node.as_str(), h.committed, h.fsync_p99_ns),
                ("r0", 1, 40)
            );
            assert_eq!(h.verify_poisoned, exec.verify_poisoned);
            assert_eq!(h.protocol, protocol);
        }
    }

    #[test]
    fn prometheus_rendering_matches_golden() {
        let m = Metrics::new(ObsConfig::default());
        m.add("replica.messages_in", 7);
        m.set_gauge("verify.queue_depth", 3);
        m.record_event(1, Addr::Replica(ReplicaId(0)), commit(0));
        m.record_event(2, Addr::Replica(ReplicaId(0)), commit(1));
        for v in [3u64, 5, 70] {
            m.observe("store.fsync_ns", v);
        }
        let text = render_prometheus(&[report(R0, &m)]);
        // Values 3 and 5 land in exact linear buckets (le = value); 70
        // lands in the [70, 71] log-linear bucket (le = 71).
        let golden = "\
# TYPE neobft_replica_messages_in_total counter
neobft_replica_messages_in_total{node=\"r0\"} 7
# TYPE neobft_verify_queue_depth gauge
neobft_verify_queue_depth{node=\"r0\"} 3
# TYPE neobft_events_total counter
neobft_events_total{node=\"r0\",kind=\"commit\"} 2
# TYPE neobft_store_fsync_ns histogram
neobft_store_fsync_ns_bucket{node=\"r0\",le=\"3\"} 1
neobft_store_fsync_ns_bucket{node=\"r0\",le=\"5\"} 2
neobft_store_fsync_ns_bucket{node=\"r0\",le=\"71\"} 3
neobft_store_fsync_ns_bucket{node=\"r0\",le=\"+Inf\"} 3
neobft_store_fsync_ns_sum{node=\"r0\"} 78
neobft_store_fsync_ns_count{node=\"r0\"} 3
";
        assert_eq!(text, golden);
    }

    #[test]
    fn prometheus_escapes_names_and_labels() {
        assert_eq!(prom_name("store.fsync_ns"), "store_fsync_ns");
        assert_eq!(
            prom_name("runtime.send_failed.c9"),
            "runtime_send_failed_c9"
        );
        assert_eq!(prom_name("9lives"), "_lives");
        assert_eq!(prom_name(""), "_");
        assert_eq!(prom_label_escape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
    }

    #[test]
    fn prometheus_type_lines_are_unique_across_nodes() {
        let a = Metrics::new(ObsConfig::default());
        let b = Metrics::new(ObsConfig::default());
        a.incr("ops");
        b.add("ops", 2);
        a.observe("lat", 10);
        b.observe("lat", 20);
        let text = render_prometheus(&[report(R0, &a), report(Addr::Replica(ReplicaId(1)), &b)]);
        assert_eq!(text.matches("# TYPE neobft_ops_total counter").count(), 1);
        assert_eq!(text.matches("# TYPE neobft_lat histogram").count(), 1);
        assert!(text.contains("neobft_ops_total{node=\"r0\"} 1"));
        assert!(text.contains("neobft_ops_total{node=\"r1\"} 2"));
    }

    #[test]
    fn prometheus_histogram_buckets_are_cumulative_and_monotonic() {
        let m = Metrics::new(ObsConfig::default());
        for v in [1u64, 1, 50, 900, 70_000, 5_000_000, u64::MAX] {
            m.observe("lat_ns", v);
        }
        let text = render_prometheus(&[report(R0, &m)]);
        let mut last = 0u64;
        let mut bucket_lines = 0;
        for line in text.lines() {
            if !line.starts_with("neobft_lat_ns_bucket") {
                continue;
            }
            bucket_lines += 1;
            let count: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(count >= last, "non-monotonic cumulative bucket: {line}");
            last = count;
        }
        assert!(bucket_lines >= 6, "expected per-value buckets plus +Inf");
        assert!(text.ends_with("neobft_lat_ns_count{node=\"r0\"} 7\n"));
        assert!(text.contains("le=\"+Inf\"} 7"));
    }

    #[test]
    fn prometheus_zero_histogram_renders_inf_only() {
        // A merged snapshot can carry a histogram entry with no samples.
        let mut snap = MetricsSnapshot::default();
        snap.histograms
            .insert("empty_ns".into(), HistogramSnapshot::default());
        let text = render_prometheus(&[NodeReport {
            snapshot: snap,
            ..report(R0, &Metrics::default())
        }]);
        let golden = "\
# TYPE neobft_empty_ns histogram
neobft_empty_ns_bucket{node=\"r0\",le=\"+Inf\"} 0
neobft_empty_ns_sum{node=\"r0\"} 0
neobft_empty_ns_count{node=\"r0\"} 0
";
        assert_eq!(text, golden);
    }
}
