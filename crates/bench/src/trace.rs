//! Request-lifecycle span assembly and waterfall rendering.
//!
//! The obs layer gives us per-node [`EventRecord`]s; this module stitches
//! them into per-request timelines so a run can answer *where a request
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
//! * The sequencer stamp is keyed by aom sequence number. In the initial
//!   epoch `seq = slot + 1` (slots are 0-based, sequence numbers 1-based),
//!   which is how the assembler attributes stamps to slots. After an
//!   [`Event::EpochChange`] the per-epoch counter restarts and the rule no
//!   longer holds, so stamp attribution is disabled for the whole trace —
//!   the remaining phases stay correct.
//! * Replica-side milestones take the *earliest* observation across
//!   replicas: the waterfall shows the fastest replica's path, and the
//!   `reply → commit` phase absorbs the wait for the 2f+1 quorum.
//!
//! Under the deterministic simulator every event a handler emits shares
//! the handler's start time, so intra-handler phases (deliver → exec →
//! reply) can legitimately render as 0ns; the real runtime shows nonzero
//! durations there.

use neo_sim::obs::{Event, EventRecord, Histogram, HistogramSnapshot};
use neo_sim::Time;
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

/// Stitch a merged, time-sorted event stream into per-request timelines,
/// ordered by `(client, request)`. Spans are opened by either side: a
/// `ClientSend` with no replica events still appears (uncommitted), and a
/// replica `Commit` whose `ClientSend` was evicted from the ring appears
/// with `send: None`.
pub fn assemble(events: &[EventRecord]) -> Vec<RequestTimeline> {
    // Pass 1: join keys. slot → (client, request) from replica Commits;
    // first Commit wins (replicas execute identical logs, so later ones
    // agree).
    let mut slot_req: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
    let mut epoch_changed = false;
    for r in events {
        match r.event {
            Event::Commit {
                slot,
                client,
                request,
            } => {
                slot_req.entry(slot).or_insert((client, request));
            }
            Event::EpochChange { .. } => epoch_changed = true,
            _ => {}
        }
    }

    // Pass 2: earliest observation per milestone.
    #[derive(Default)]
    struct SlotTimes {
        deliver: Option<Time>,
        exec: Option<Time>,
        reply: Option<Time>,
        gap: bool,
    }
    let mut slots: BTreeMap<u64, SlotTimes> = BTreeMap::new();
    let mut stamps: BTreeMap<u64, Time> = BTreeMap::new();
    let mut spans: BTreeMap<(u64, u64), RequestTimeline> = BTreeMap::new();
    let mut view_changes: Vec<Time> = Vec::new();
    let earliest = |cur: &mut Option<Time>, t: Time| {
        if cur.map(|c| t < c).unwrap_or(true) {
            *cur = Some(t);
        }
    };
    for r in events {
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
            Event::SequencerStamp { seq } => {
                stamps.entry(seq).or_insert(r.at);
            }
            Event::RequestReceived { slot: Some(slot) } => {
                earliest(&mut slots.entry(slot).or_default().deliver, r.at);
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
            span.deliver = st.deliver;
            span.exec = st.exec;
            span.reply = st.reply;
            span.gap = st.gap;
        }
        if !epoch_changed {
            span.stamp = stamps.get(&(slot + 1)).copied();
        }
    }
    for span in spans.values_mut() {
        let start = span.send.or(span.deliver);
        let end = span.commit;
        span.view_change |= view_changes.iter().any(|vc| {
            start.map(|s| *vc >= s).unwrap_or(false) && end.map(|e| *vc <= e).unwrap_or(true)
        });
    }
    spans.into_values().collect()
}

/// Per-phase latency tables assembled from a run's event trace, reported
/// in `RunResult` (and its JSON view) next to the end-to-end numbers.
#[derive(Clone, Debug, Default, PartialEq, serde::Serialize)]
pub struct TraceReport {
    /// Requests observed in the trace (either side of the span).
    pub requests: u64,
    /// Requests with a complete client lifecycle (send and commit).
    pub committed: u64,
    /// Requests whose slot went through gap agreement.
    pub gap_detours: u64,
    /// Requests overlapped by a view change.
    pub view_change_detours: u64,
    /// Per-phase latency histograms (p50/p90/p99 and sparse buckets),
    /// keyed by [`PHASES`] names. Only observed phases appear.
    pub phases: BTreeMap<String, HistogramSnapshot>,
}

impl TraceReport {
    /// Assemble spans from `events` and fold their phases into
    /// histograms.
    pub fn from_events(events: &[EventRecord]) -> TraceReport {
        let spans = assemble(events);
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
    use neo_wire::{Addr, ClientId, ReplicaId};

    fn rec(at: Time, node: Addr, event: Event) -> EventRecord {
        EventRecord { at, node, event }
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
            rec(200, seq, Event::SequencerStamp { seq: 5 }),
            rec(300, r0, Event::RequestReceived { slot: Some(4) }),
            rec(310, r1, Event::RequestReceived { slot: Some(4) }),
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
        let spans = assemble(&fast_path_events());
        assert_eq!(spans.len(), 1);
        let s = &spans[0];
        assert_eq!((s.client, s.request, s.slot), (3, 7, Some(4)));
        assert_eq!(s.send, Some(100));
        assert_eq!(s.stamp, Some(200), "stamp joined via seq = slot + 1");
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
        let spans = assemble(&events);
        assert!(spans[0].gap);
        assert!(spans[0].view_change);
        let report = TraceReport::from_events(&events);
        assert_eq!(report.gap_detours, 1);
        assert_eq!(report.view_change_detours, 1);
    }

    #[test]
    fn epoch_change_disables_stamp_attribution() {
        let mut events = fast_path_events();
        events.push(rec(
            50,
            Addr::Replica(ReplicaId(0)),
            Event::EpochChange { epoch: 1 },
        ));
        let spans = assemble(&events);
        assert_eq!(spans[0].stamp, None, "seq = slot + 1 no longer holds");
        assert_eq!(spans[0].deliver, Some(300), "other phases unaffected");
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
        let spans = assemble(&events);
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
                Event::RequestReceived { slot: Some(i) },
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
        let report = TraceReport::from_events(&events);
        assert_eq!(report.requests, 10);
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
        let spans = assemble(&fast_path_events());
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
