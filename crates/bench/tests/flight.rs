//! End-to-end flight-recorder pipeline: an injected safety violation in
//! a chaos run must produce a self-contained flight dump whose events
//! assemble into request waterfalls — the acceptance path a human takes
//! from "CI says VIOLATION" to "here is where the request's time went".
//! And the agreement of the sinks: every view of a node is a function of
//! the same `NodeReport`s, so they cannot tell different stories.

use neo_bench::chaos::{generate_plan, run_neo_with, violation_report, RunHooks};
use neo_bench::trace::{assemble, render_waterfall, TraceReport};
use neo_core::Replica;
use neo_sim::obs::{
    health_body, merged_events, write_jsonl, Event, EventKind, ExecSignals, HealthReport, Metrics,
    ObsConfig,
};
use neo_sim::{
    render_prometheus, FlightDump, NodeHealth, NodeReport, ReportSource, TelemetryHub, TraceRead,
};
use neo_wire::{Addr, ClientId, ReplicaId};

#[test]
fn injected_violation_produces_dump_and_waterfall() {
    // Seed 0 is a clean scenario (no Byzantine adapter); the injected
    // double-execution count is the only corruption.
    let plan = generate_plan(0);
    let mut inject = |sim: &mut neo_sim::Simulator, slice: u64| {
        if slice == 6 {
            sim.node_mut::<Replica>(Addr::Replica(ReplicaId(0)))
                .expect("replica 0 is not Byzantine-wrapped at seed 0")
                .stats
                .double_executions = 1;
        }
    };
    let mut hooks = RunHooks {
        inject: Some(&mut inject),
        ..RunHooks::default()
    };
    let outcome = run_neo_with(&plan, &mut hooks);

    assert!(
        outcome
            .violations
            .iter()
            .any(|v| v.contains("double execution")),
        "injected violation detected: {:?}",
        outcome.violations
    );
    let flight = outcome.flight.as_ref().expect("violation attaches a dump");
    assert_eq!(flight.reason, "invariant_violation");
    assert_eq!(flight.context["seed"], "0");
    assert!(flight.context["plan"].contains("\"seed\":0"));
    assert_eq!(flight.violations, outcome.violations);
    assert!(
        flight.nodes.iter().any(|n| !n.packets.is_empty()),
        "packet digests captured"
    );

    // The artifact round-trips the way `neo-trace` reads it: JSON on
    // disk, parsed back, spans assembled from its reports.
    let json = serde_json::to_string_pretty(flight).expect("dump serializes");
    let parsed: FlightDump = serde_json::from_str(&json).expect("dump parses");
    assert_eq!(&parsed, flight);
    let assembled = assemble(&parsed.nodes);
    // Seed 0 commits a few hundred requests: no 4 096-record ring has
    // turned over six slices in, so nothing is cut from the window.
    assert_eq!((assembled.cut, assembled.covered_from), (0, 0));
    let spans = assembled.spans;
    let full = spans
        .iter()
        .find(|s| {
            s.deliver.is_some() && s.exec.is_some() && s.reply.is_some() && s.commit.is_some()
        })
        .expect("at least one request shows deliver → exec → reply → commit");

    let waterfall = render_waterfall(full);
    for milestone in [
        "replica_deliver",
        "speculative_exec",
        "reply_sent",
        "client_commit",
    ] {
        assert!(waterfall.contains(milestone), "waterfall: {waterfall}");
    }
    assert!(waterfall.contains("total "), "per-phase durations rendered");

    // The rendered report embeds the event tail for triage without the
    // artifact in hand.
    let report = violation_report(&outcome);
    assert!(report.contains("SAFETY VIOLATION at seed 0"));
    assert!(report.contains("recorded events"));
    assert!(report.contains("Commit"));

    // And the same reports feed the per-phase latency tables.
    let tr = TraceReport::from_reports(&parsed.nodes);
    assert!(tr.requests > 0);
    assert!(tr.phases.contains_key("deliver_to_exec") || tr.phases.contains_key("total"));
}

#[test]
fn committed_fixture_matches_the_artifact_format() {
    // The fixture CI feeds to `neo-trace --check`; parsing and assembly
    // must keep working as the formats evolve.
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/tests/fixtures/flight-fixture.json"
    );
    let text = std::fs::read_to_string(path).expect("fixture readable");
    let dump: FlightDump = serde_json::from_str(&text).expect("fixture parses");
    assert_eq!(dump.reason, "invariant_violation");
    // The fixture predates `NodeReport`: its nodes carry no `at` and no
    // health, its events no (epoch, seq) key. It reads as what it has.
    assert!(dump.nodes.iter().all(|n| n.at == 0 && n.health.is_none()));
    assert_eq!(merged_events(&dump.nodes).len(), 6);
    let spans = assemble(&dump.nodes).spans;
    assert_eq!(spans.len(), 1);
    let s = &spans[0];
    assert_eq!((s.client, s.request, s.slot), (3, 7, Some(4)));
    assert_eq!(s.stamp, None, "no key on the record, no stamp joined");
    assert_eq!(
        (s.deliver, s.exec, s.reply),
        (Some(200_000), Some(210_000), Some(220_000))
    );
    assert!(s.committed());
    let w = render_waterfall(s);
    assert!(w.contains("request 3:7 (slot 4)"));
    assert!(w.contains("replica_deliver"));
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
fn every_sink_tells_the_story_of_the_same_reports() {
    // One hand-built deployment: a replica mid-recovery with 3 commits and
    // a full ring, and a client with nothing to say about its protocol.
    let r0 = Addr::Replica(ReplicaId(0));
    let c1 = Addr::Client(ClientId(1));
    let replica = Metrics::new(ObsConfig::flight_recorder());
    for slot in 0..3 {
        let commit = Event::Commit {
            slot,
            client: 1,
            request: slot + 1,
        };
        replica.record_event(100 + slot, r0, commit);
    }
    replica.record_packet(90, c1, r0, b"request");
    replica.observe("store.fsync_ns", 40);
    let client = Metrics::new(ObsConfig::flight_recorder());
    let send = Event::ClientSend {
        client: 1,
        request: 1,
    };
    client.record_event(80, c1, send);
    let recovering = NodeHealth {
        role: "replica".into(),
        recovery_phase: Some("replaying".into()),
        last_exec: 3,
        ..NodeHealth::default()
    };
    let build = |node, m: &Metrics, protocol| {
        NodeReport::build(
            500,
            node,
            m,
            protocol,
            ExecSignals::default(),
            TraceRead::Copy,
        )
    };
    let reports = vec![
        build(r0, &replica, Some(recovering)),
        build(c1, &client, None),
    ];
    let commits = reports[0].snapshot.event(EventKind::Commit);
    assert_eq!(commits, 3);

    // The JSONL stream: one line per report, each parsing back to itself.
    let mut stream = Vec::new();
    write_jsonl(&mut stream, &reports).expect("stream written");
    let text = String::from_utf8(stream).expect("utf8");
    let lines: Vec<NodeReport> = text
        .lines()
        .map(|l| serde_json::from_str(l).expect("valid JSONL"))
        .collect();
    assert_eq!(lines, reports);

    // `/health`, `/metrics` and `/reports` as the functions they are: the
    // same commit count, the health the node reported.
    let health: Vec<HealthReport> = serde_json::from_str(&health_body(&reports)).expect("health");
    assert_eq!(health.len(), 2);
    assert_eq!(
        (health[0].node.as_str(), health[0].committed),
        ("r0", commits)
    );
    assert!(!health[0].healthy, "mid-recovery");
    assert!(health[1].healthy && health[1].protocol.is_none());
    assert_eq!(scraped_commits(&render_prometheus(&reports), "r0"), commits);
    let body = serde_json::to_string(&reports).expect("reports serialize");
    let routed: Vec<NodeReport> = serde_json::from_str(&body).expect("reports parse");
    assert_eq!(routed[0].snapshot.event(EventKind::Commit), commits);

    // The hub hands out what was published (the server's `/reports` body
    // is these, serialized: `neo_sim::telemetry`'s tests fetch all three
    // routes), in address order: replicas first.
    let hub = TelemetryHub::default();
    hub.publish(reports.clone());
    assert_eq!(hub.reports(), reports);

    // A flight dump carries the reports unchanged.
    let dump = FlightDump {
        reason: "test".into(),
        at: 500,
        violations: Vec::new(),
        context: Default::default(),
        nodes: reports.clone(),
    };
    let json = serde_json::to_string(&dump).expect("dump serializes");
    let back: FlightDump = serde_json::from_str(&json).expect("dump parses");
    assert_eq!(back.nodes, reports);

    // A stream line as PR 18 wrote it (no health, no packets, a stamp
    // without its epoch) still parses, to what it has.
    let old = r#"{"at":2000000,"node":{"Sequencer":0},"snapshot":{"counters":{},"gauges":{},"events":{"sequencer_stamp":1},"histograms":{},"trace_dropped":0,"packets_dropped":0},"events":[{"at":150000,"node":{"Sequencer":0},"event":{"SequencerStamp":{"seq":5}}}]}"#;
    let line: NodeReport = serde_json::from_str(old).expect("old stream line parses");
    assert_eq!(line.at, 2_000_000);
    assert!(line.health.is_none() && line.packets.is_empty());
    assert_eq!(
        line.events[0].event,
        Event::SequencerStamp { epoch: 0, seq: 5 }
    );
}
