//! Request-lifecycle span assembly and waterfall rendering.
//!
//! The obs layer gives us per-node [`NodeReport`]s; this module stitches
//! their events into per-request timelines so a run can answer *where a request
//! spent its time*: client multicast → sequencer stamp → replica delivery
//! → speculative execution → reply → 2f+1 quorum at the client. Gap
//! agreement and view changes show up as tagged detours, matching the
//! paper's framing of the fast path versus its fallbacks.
//!
//! ## Span assembly rules
//!
//! * The client side of a span is keyed by `(client, request)`:
//!   [`Event::ClientSend`] opens it, [`Event::ClientCommit`] closes it.
//! * The replica side is keyed by log slot: `RequestReceived { slot }`,
//!   `SpeculativeExecute { slot }`. The join between the two sides is
//!   [`Event::Commit`], which carries `(slot, client, request)`.
//! * The sequencer stamp is keyed by the aom header's `(epoch, seq)`, the
//!   causal identity the packet already carries: `SequencerStamp` records
//!   it at the sequencer, `RequestReceived` at the replica that delivers
//!   the packet into a slot. Artifacts written before the events carried
//!   the key (`seq` 0) assemble without a stamp milestone.
//! * Only the window every ring still covers is reported. A report whose
//!   ring evicted records since the node's previous report holds nothing
//!   older than its first record; spans that start before the latest such
//!   record are left out and counted ([`Assembled::cut`]) rather than
//!   shown with holes.
//! * Replica-side milestones take the *earliest* observation across
//!   replicas: the waterfall shows the fastest replica's path, and the
//!   `reply → commit` phase absorbs the wait for the 2f+1 quorum.
//!
//! Under the deterministic simulator every event a handler emits shares
//! the handler's start time, so intra-handler phases (deliver → exec →
//! reply) can legitimately render as 0ns; the real runtime shows nonzero
//! durations there.

use neo_sim::obs::{merged_events, Event, Histogram, HistogramSnapshot, NodeReport};
use neo_sim::Time;
use neo_wire::Addr;
use std::collections::BTreeMap;

/// Phase names, in request-lifecycle order. These are the keys of
/// [`TraceReport::phases`] and the rows of the waterfall.
pub const PHASES: [&str; 6] = [
    "send_to_stamp",
    "stamp_to_deliver",
    "deliver_to_exec",
    "exec_to_reply",
    "reply_to_commit",
    "total",
];

/// One request's assembled timeline. All times are virtual (or wall)
/// nanoseconds; a `None` milestone was not observed (evicted from a ring,
/// or the request never reached that stage).
#[derive(Clone, Debug, PartialEq, Eq, serde::Serialize)]
pub struct RequestTimeline {
    /// Issuing client.
    pub client: u64,
    /// Request number within the client.
    pub request: u64,
    /// Log slot the request committed into, if a replica reported one.
    pub slot: Option<u64>,
    /// Client issued the request (aom multicast).
    pub send: Option<Time>,
    /// Sequencer stamped the request's aom packet.
    pub stamp: Option<Time>,
    /// Earliest replica aom delivery into the slot.
    pub deliver: Option<Time>,
    /// Earliest speculative execution of the slot.
    pub exec: Option<Time>,
    /// Earliest reply issued for the request.
    pub reply: Option<Time>,
    /// Client collected its 2f+1 matching-reply quorum.
    pub commit: Option<Time>,
    /// The slot went through gap agreement (§5.4 detour).
    pub gap: bool,
    /// A view change overlapped the span.
    pub view_change: bool,
}

impl RequestTimeline {
    fn new(client: u64, request: u64) -> Self {
        RequestTimeline {
            client,
            request,
            slot: None,
            send: None,
            stamp: None,
            deliver: None,
            exec: None,
            reply: None,
            commit: None,
            gap: false,
            view_change: false,
        }
    }

    /// When the span starts: its first observed milestone.
    fn start(&self) -> Option<Time> {
        self.milestones().iter().find_map(|(_, t)| *t)
    }

    /// The lifecycle milestones in order, with display labels.
    pub fn milestones(&self) -> [(&'static str, Option<Time>); 6] {
        [
            ("client_send", self.send),
            ("sequencer_stamp", self.stamp),
            ("replica_deliver", self.deliver),
            ("speculative_exec", self.exec),
            ("reply_sent", self.reply),
            ("client_commit", self.commit),
        ]
    }

    /// Per-phase durations (ns), `None` where either endpoint is missing
    /// or the clock ran backwards (cross-node observation skew).
    pub fn phases(&self) -> [(&'static str, Option<u64>); 6] {
        let span = |a: Option<Time>, b: Option<Time>| match (a, b) {
            (Some(a), Some(b)) if b >= a => Some(b - a),
            _ => None,
        };
        [
            ("send_to_stamp", span(self.send, self.stamp)),
            ("stamp_to_deliver", span(self.stamp, self.deliver)),
            ("deliver_to_exec", span(self.deliver, self.exec)),
            ("exec_to_reply", span(self.exec, self.reply)),
            ("reply_to_commit", span(self.reply, self.commit)),
            ("total", span(self.send, self.commit)),
        ]
    }

    /// True when the span has both endpoints of the client lifecycle.
    pub fn committed(&self) -> bool {
        self.send.is_some() && self.commit.is_some()
    }
}

/// What [`assemble`] made of a set of reports.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Assembled {
    /// The spans that start inside the covered window, ordered by
    /// `(client, request)`.
    pub spans: Vec<RequestTimeline>,
    /// Start of the window every ring still covers (0: nothing evicted).
    pub covered_from: Time,
    /// Spans left out because they start before `covered_from`.
    pub cut: u64,
}

/// Start of the window every ring still covers: a report whose ring
/// evicted records since its node's previous report (`trace_dropped`
/// grew) holds nothing older than its first record.
fn coverage_start(reports: &[NodeReport]) -> Time {
    let mut dropped: BTreeMap<Addr, u64> = BTreeMap::new();
    let mut from = 0;
    for r in reports {
        let before = dropped.insert(r.node, r.snapshot.trace_dropped);
        if r.snapshot.trace_dropped > before.unwrap_or(0) {
            from = from.max(r.events.first().map_or(r.at, |e| e.at));
        }
    }
    from
}

/// Stitch the reports' events into per-request timelines. Spans are
/// opened by either side: a `ClientSend` with no replica events still
/// appears (uncommitted), and a replica `Commit` whose `ClientSend` was
/// never recorded appears with `send: None`.
pub fn assemble(reports: &[NodeReport]) -> Assembled {
    let events = merged_events(reports);
    // Pass 1: join keys. slot → (client, request) from replica Commits;
    // first Commit wins (replicas execute identical logs, so later ones
    // agree).
    let mut slot_req: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    for r in &events {
        if let Event::Commit {
            slot,
            client,
            request,
        } = r.event
        {
            slot_req.entry(slot).or_insert((client, request));
        }
    }

    // Pass 2: earliest observation per milestone.
    #[derive(Default)]
    struct SlotTimes {
        stamp_key: Option<(u64, u64)>,
        deliver: Option<Time>,
        exec: Option<Time>,
        reply: Option<Time>,
        gap: bool,
    }
    let mut slots: BTreeMap<u64, SlotTimes> = BTreeMap::new();
    let mut stamps: BTreeMap<(u64, u64), Time> = BTreeMap::new();
    let mut spans: BTreeMap<(u64, u64), RequestTimeline> = BTreeMap::new();
    let mut view_changes: Vec<Time> = Vec::new();
    let earliest = |cur: &mut Option<Time>, t: Time| {
        if cur.map(|c| t < c).unwrap_or(true) {
            *cur = Some(t);
        }
    };
    for r in &events {
        match r.event {
            Event::ClientSend { client, request } => {
                let span = spans
                    .entry((client, request))
                    .or_insert_with(|| RequestTimeline::new(client, request));
                earliest(&mut span.send, r.at);
            }
            Event::ClientCommit { client, request } => {
                let span = spans
                    .entry((client, request))
                    .or_insert_with(|| RequestTimeline::new(client, request));
                earliest(&mut span.commit, r.at);
            }
            Event::SequencerStamp { epoch, seq } => {
                stamps.entry((epoch, seq)).or_insert(r.at);
            }
            Event::RequestReceived {
                slot: Some(slot),
                epoch,
                seq,
            } => {
                let st = slots.entry(slot).or_default();
                earliest(&mut st.deliver, r.at);
                if seq != 0 {
                    st.stamp_key.get_or_insert((epoch, seq));
                }
            }
            Event::SpeculativeExecute { slot } => {
                earliest(&mut slots.entry(slot).or_default().exec, r.at);
            }
            Event::Commit { slot, .. } => {
                earliest(&mut slots.entry(slot).or_default().reply, r.at);
            }
            Event::GapFind { slot } | Event::GapCommit { slot, .. } => {
                slots.entry(slot).or_default().gap = true;
            }
            Event::ViewChange { .. } => view_changes.push(r.at),
            _ => {}
        }
    }

    // Pass 3: join replica-side slots into the client-side spans.
    for (slot, (client, request)) in &slot_req {
        let span = spans
            .entry((*client, *request))
            .or_insert_with(|| RequestTimeline::new(*client, *request));
        // First (lowest) slot wins for a re-executed request.
        if span.slot.is_some() {
            continue;
        }
        span.slot = Some(*slot);
        if let Some(st) = slots.get(slot) {
            span.stamp = st.stamp_key.and_then(|key| stamps.get(&key).copied());
            span.deliver = st.deliver;
            span.exec = st.exec;
            span.reply = st.reply;
            span.gap = st.gap;
        }
    }
    for span in spans.values_mut() {
        let start = span.send.or(span.deliver);
        let end = span.commit;
        span.view_change |= view_changes.iter().any(|vc| {
            start.map(|s| *vc >= s).unwrap_or(false) && end.map(|e| *vc <= e).unwrap_or(true)
        });
    }

    let covered_from = coverage_start(reports);
    let all = spans.len();
    let spans: Vec<RequestTimeline> = spans
        .into_values()
        .filter(|s| s.start().is_some_and(|t| t >= covered_from))
        .collect();
    Assembled {
        cut: (all - spans.len()) as u64,
        spans,
        covered_from,
    }
}

/// Per-phase latency tables assembled from a run's reports, carried
/// in `RunResult` (and its JSON view) next to the end-to-end numbers.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize)]
pub struct TraceReport {
    /// Requests observed inside the covered window (either side of the
    /// span).
    pub requests: u64,
    /// Requests with a complete client lifecycle (send and commit).
    pub committed: u64,
    /// Requests whose slot went through gap agreement.
    pub gap_detours: u64,
    /// Requests overlapped by a view change.
    pub view_change_detours: u64,
    /// Start of the window every ring still covers ([`Assembled`]).
    pub covered_from: Time,
    /// Requests left out because they start before `covered_from`.
    pub cut: u64,
    /// Per-phase latency histograms (p50/p90/p99 and sparse buckets),
    /// keyed by [`PHASES`] names. Only observed phases appear.
    pub phases: BTreeMap<String, HistogramSnapshot>,
}

impl TraceReport {
    /// Assemble spans from `reports` and fold their phases into
    /// histograms.
    pub fn from_reports(reports: &[NodeReport]) -> TraceReport {
        let Assembled {
            spans,
            covered_from,
            cut,
        } = assemble(reports);
        let mut phases: BTreeMap<&'static str, Histogram> = BTreeMap::new();
        for span in &spans {
            for (name, dur) in span.phases() {
                if let Some(d) = dur {
                    phases.entry(name).or_default().observe(d);
                }
            }
        }
        TraceReport {
            requests: spans.len() as u64,
            committed: spans.iter().filter(|s| s.committed()).count() as u64,
            gap_detours: spans.iter().filter(|s| s.gap).count() as u64,
            view_change_detours: spans.iter().filter(|s| s.view_change).count() as u64,
            covered_from,
            cut,
            phases: phases
                .into_iter()
                .map(|(k, h)| (k.to_string(), h.snapshot()))
                .collect(),
        }
    }
}

/// Format nanoseconds for humans: `850ns`, `12.3µs`, `4.56ms`, `1.20s`.
pub fn fmt_ns(ns: u64) -> String {
    if ns < 1_000 {
        format!("{ns}ns")
    } else if ns < 1_000_000 {
        format!("{:.1}µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else {
        format!("{:.2}s", ns as f64 / 1e9)
    }
}

/// Render one request's timeline as a text waterfall. Each milestone row
/// shows the offset from the span start, the duration of the phase that
/// led to it, and a proportional bar; detours are tagged at the bottom.
pub fn render_waterfall(span: &RequestTimeline) -> String {
    let mut out = String::new();
    let slot = span
        .slot
        .map(|s| format!(" (slot {s})"))
        .unwrap_or_default();
    out.push_str(&format!(
        "request {}:{}{}\n",
        span.client, span.request, slot
    ));
    let observed: Vec<(&'static str, Time)> = span
        .milestones()
        .iter()
        .filter_map(|(name, t)| t.map(|t| (*name, t)))
        .collect();
    if observed.is_empty() {
        out.push_str("  (no milestones observed)\n");
        return out;
    }
    let start = observed[0].1;
    let end = observed[observed.len() - 1].1;
    let total = end - start;
    const BAR: u64 = 40;
    let mut prev: Option<Time> = None;
    for (name, t) in &observed {
        let offset = t - start;
        let phase = prev.map(|p| t.saturating_sub(p));
        let bar_len = if total == 0 {
            0
        } else {
            (phase.unwrap_or(0).saturating_mul(BAR) / total).min(BAR)
        };
        let phase_str = phase.map(|p| format!("+{}", fmt_ns(p))).unwrap_or_default();
        out.push_str(&format!(
            "  {:>10}  {:10}  {:18}{}\n",
            fmt_ns(offset),
            phase_str,
            name,
            "#".repeat(bar_len as usize),
        ));
        prev = Some(*t);
    }
    out.push_str(&format!("  total {}", fmt_ns(total)));
    if span.gap {
        out.push_str("  [gap agreement]");
    }
    if span.view_change {
        out.push_str("  [view change]");
    }
    if !span.committed() {
        out.push_str("  [incomplete]");
    }
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_sim::obs::{EventRecord, ExecSignals, Metrics, ObsConfig, TraceRead};
    use neo_wire::{ClientId, GroupId, ReplicaId};

    fn rec(at: Time, node: Addr, event: Event) -> EventRecord {
        EventRecord { at, node, event }
    }

    /// One report per node, each holding that node's records: what a
    /// flight dump of rings that never overflowed looks like.
    fn reports_of(events: &[EventRecord]) -> Vec<NodeReport> {
        let mut rings: BTreeMap<Addr, Metrics> = BTreeMap::new();
        for r in events {
            rings
                .entry(r.node)
                .or_insert_with(|| Metrics::new(ObsConfig::default().with_trace(1024)))
                .record_event(r.at, r.node, r.event);
        }
        rings
            .iter()
            .map(|(node, m)| {
                NodeReport::build(0, *node, m, None, ExecSignals::default(), TraceRead::Copy)
            })
            .collect()
    }

    fn spans_of(events: &[EventRecord]) -> Vec<RequestTimeline> {
        assemble(&reports_of(events)).spans
    }

    fn fast_path_events() -> Vec<EventRecord> {
        let client = Addr::Client(ClientId(3));
        let seq = Addr::Sequencer(neo_wire::GroupId(0));
        let r0 = Addr::Replica(ReplicaId(0));
        let r1 = Addr::Replica(ReplicaId(1));
        vec![
            rec(
                100,
                client,
                Event::ClientSend {
                    client: 3,
                    request: 7,
                },
            ),
            rec(200, seq, Event::SequencerStamp { epoch: 0, seq: 5 }),
            rec(
                300,
                r0,
                Event::RequestReceived {
                    slot: Some(4),
                    epoch: 0,
                    seq: 5,
                },
            ),
            rec(
                310,
                r1,
                Event::RequestReceived {
                    slot: Some(4),
                    epoch: 0,
                    seq: 5,
                },
            ),
            rec(400, r0, Event::SpeculativeExecute { slot: 4 }),
            rec(
                500,
                r0,
                Event::Commit {
                    slot: 4,
                    client: 3,
                    request: 7,
                },
            ),
            rec(
                520,
                r1,
                Event::Commit {
                    slot: 4,
                    client: 3,
                    request: 7,
                },
            ),
            rec(
                800,
                client,
                Event::ClientCommit {
                    client: 3,
                    request: 7,
                },
            ),
        ]
    }

    #[test]
    fn fast_path_span_assembles_every_phase() {
        let spans = spans_of(&fast_path_events());
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!((s.client, s.request, s.slot), (3, 7, Some(4)));
        assert_eq!(s.send, Some(100));
        assert_eq!(s.stamp, Some(200), "stamp joined by (epoch, seq)");
        assert_eq!(s.deliver, Some(300), "earliest replica wins");
        assert_eq!(s.exec, Some(400));
        assert_eq!(s.reply, Some(500), "earliest reply wins");
        assert_eq!(s.commit, Some(800));
        assert!(s.committed());
        assert!(!s.gap && !s.view_change);
        let phases: BTreeMap<_, _> = s.phases().into_iter().collect();
        assert_eq!(phases["send_to_stamp"], Some(100));
        assert_eq!(phases["stamp_to_deliver"], Some(100));
        assert_eq!(phases["deliver_to_exec"], Some(100));
        assert_eq!(phases["exec_to_reply"], Some(100));
        assert_eq!(phases["reply_to_commit"], Some(300));
        assert_eq!(phases["total"], Some(700));
    }

    #[test]
    fn gap_and_view_change_are_tagged_detours() {
        let mut events = fast_path_events();
        events.push(rec(
            350,
            Addr::Replica(ReplicaId(2)),
            Event::GapFind { slot: 4 },
        ));
        events.push(rec(
            600,
            Addr::Replica(ReplicaId(2)),
            Event::ViewChange { view: 1 },
        ));
        let spans = spans_of(&events);
        assert!(spans[0].gap);
        assert!(spans[0].view_change);
        let report = TraceReport::from_reports(&reports_of(&events));
        assert_eq!(report.gap_detours, 1);
        assert_eq!(report.view_change_detours, 1);
    }

    /// The lifecycle of request `request` of client 0, which the
    /// sequencer stamps `(epoch, seq)` at `base + 10` and replica 0
    /// delivers into `slot`; the client commits at `base + 100`.
    fn lifecycle(base: Time, request: u64, slot: u64, epoch: u64, seq: u64) -> Vec<EventRecord> {
        let client = Addr::Client(ClientId(0));
        let r0 = Addr::Replica(ReplicaId(0));
        let (c, s) = (0, Some(slot));
        vec![
            rec(base, client, Event::ClientSend { client: c, request }),
            rec(
                base + 10,
                Addr::Sequencer(GroupId(0)),
                Event::SequencerStamp { epoch, seq },
            ),
            rec(
                base + 20,
                r0,
                Event::RequestReceived {
                    slot: s,
                    epoch,
                    seq,
                },
            ),
            rec(base + 30, r0, Event::SpeculativeExecute { slot }),
            rec(
                base + 40,
                r0,
                Event::Commit {
                    slot,
                    client: c,
                    request,
                },
            ),
            rec(
                base + 100,
                client,
                Event::ClientCommit { client: c, request },
            ),
        ]
    }

    #[test]
    fn stamps_join_on_both_sides_of_an_epoch_change() {
        // Slot 4 is (epoch 0, seq 5); the sequencer fails over and slot 5
        // is the new epoch's first stamp, (epoch 1, seq 1): "seq = slot +
        // 1" holds for neither trace-wide, the key the events carry does.
        let mut events = lifecycle(1_000, 7, 4, 0, 5);
        events.push(rec(
            1_500,
            Addr::Replica(ReplicaId(0)),
            Event::EpochChange { epoch: 1 },
        ));
        events.extend(lifecycle(2_000, 8, 5, 1, 1));
        let spans = spans_of(&events);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].stamp, Some(1_010));
        assert_eq!(spans[1].stamp, Some(2_010));
        assert!(spans
            .iter()
            .all(|s| s.phases().iter().all(|(_, d)| d.is_some())));
    }

    #[test]
    fn a_record_without_the_key_joins_no_stamp() {
        // What an artifact written before the events carried (epoch, seq)
        // parses to: seq 0. No stamp milestone, the other phases intact.
        let mut events = fast_path_events();
        for r in &mut events {
            if let Event::RequestReceived { seq, .. } = &mut r.event {
                *seq = 0;
            }
        }
        let spans = spans_of(&events);
        assert_eq!(spans[0].stamp, None);
        assert_eq!(spans[0].deliver, Some(300), "other phases unaffected");
    }

    #[test]
    fn an_overflowed_ring_cuts_the_window_instead_of_leaving_holes() {
        // Four requests, three replica events each, into a replica ring of
        // six: the ring holds requests 3 and 4 only. The client's and the
        // sequencer's rings hold everything.
        let events: Vec<EventRecord> = (0..4u64)
            .flat_map(|i| lifecycle(1_000 * (i + 1), i + 1, i, 0, i + 1))
            .collect();
        let replica = Addr::Replica(ReplicaId(0));
        let small = Metrics::new(ObsConfig::default().with_trace(6));
        for r in events.iter().filter(|r| r.node == replica) {
            small.record_event(r.at, r.node, r.event);
        }
        let others: Vec<EventRecord> = events
            .iter()
            .filter(|r| r.node != replica)
            .copied()
            .collect();
        let mut reports = reports_of(&others);
        reports.push(NodeReport::build(
            5_000,
            replica,
            &small,
            None,
            ExecSignals::default(),
            TraceRead::Copy,
        ));
        assert_eq!(reports.last().unwrap().snapshot.trace_dropped, 6);

        let assembled = assemble(&reports);
        assert_eq!(assembled.covered_from, 3_020, "the ring's oldest record");
        assert_eq!(assembled.cut, 3, "requests 1 to 3 start before it");
        let report = TraceReport::from_reports(&reports);
        assert_eq!((report.requests, report.committed, report.cut), (1, 1, 3));
        for phase in PHASES {
            assert_eq!(report.phases[phase].count, 1, "{phase} has no hole");
        }
        // A stream reports the same node again and again: only a report
        // whose ring dropped records since the previous one moves the cut.
        let mut later = reports.last().unwrap().clone();
        later.events = lifecycle(9_000, 9, 9, 0, 10)
            .into_iter()
            .filter(|r| r.node == replica)
            .collect();
        reports.push(later);
        assert_eq!(assemble(&reports).covered_from, 3_020);
    }

    #[test]
    fn orphan_sides_still_produce_spans() {
        // A replica Commit whose ClientSend was evicted from the ring, and
        // a ClientSend that never committed.
        let events = vec![
            rec(
                10,
                Addr::Replica(ReplicaId(0)),
                Event::Commit {
                    slot: 0,
                    client: 1,
                    request: 1,
                },
            ),
            rec(
                20,
                Addr::Client(ClientId(2)),
                Event::ClientSend {
                    client: 2,
                    request: 9,
                },
            ),
        ];
        let spans = spans_of(&events);
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].send, None);
        assert_eq!(spans[0].reply, Some(10));
        assert!(!spans[0].committed());
        assert_eq!(spans[1].send, Some(20));
        assert_eq!(spans[1].slot, None);
    }

    #[test]
    fn report_histograms_cover_committed_requests() {
        let mut events = Vec::new();
        for i in 0..10u64 {
            let base = i * 10_000;
            events.push(rec(
                base,
                Addr::Client(ClientId(0)),
                Event::ClientSend {
                    client: 0,
                    request: i + 1,
                },
            ));
            events.push(rec(
                base + 100,
                Addr::Replica(ReplicaId(0)),
                Event::RequestReceived {
                    slot: Some(i),
                    epoch: 0,
                    seq: 0,
                },
            ));
            events.push(rec(
                base + 200,
                Addr::Replica(ReplicaId(0)),
                Event::Commit {
                    slot: i,
                    client: 0,
                    request: i + 1,
                },
            ));
            events.push(rec(
                base + 1_000,
                Addr::Client(ClientId(0)),
                Event::ClientCommit {
                    client: 0,
                    request: i + 1,
                },
            ));
        }
        let report = TraceReport::from_reports(&reports_of(&events));
        assert_eq!(report.requests, 10);
        assert_eq!((report.covered_from, report.cut), (0, 0));
        assert_eq!(report.committed, 10);
        let total = &report.phases["total"];
        assert_eq!(total.count, 10);
        assert_eq!(total.min, 1_000);
        assert!(report.phases["reply_to_commit"].count == 10);
        assert!(
            !report.phases.contains_key("send_to_stamp"),
            "unobserved phases stay absent"
        );
    }

    #[test]
    fn waterfall_renders_phases_and_tags() {
        let spans = spans_of(&fast_path_events());
        let text = render_waterfall(&spans[0]);
        assert!(text.contains("request 3:7 (slot 4)"));
        assert!(text.contains("client_send"));
        assert!(text.contains("sequencer_stamp"));
        assert!(text.contains("replica_deliver"));
        assert!(text.contains("speculative_exec"));
        assert!(text.contains("reply_sent"));
        assert!(text.contains("client_commit"));
        assert!(text.contains("total 700ns"));
        assert!(!text.contains("[incomplete]"));
    }

    #[test]
    fn fmt_ns_scales_units() {
        assert_eq!(fmt_ns(850), "850ns");
        assert_eq!(fmt_ns(12_300), "12.3µs");
        assert_eq!(fmt_ns(4_560_000), "4.56ms");
        assert_eq!(fmt_ns(1_200_000_000), "1.20s");
    }
}
