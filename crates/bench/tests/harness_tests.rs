//! Harness smoke tests: every protocol commits operations under the
//! calibrated cost model, and headline orderings from the paper hold.

use neo_bench::harness::{
    build, collect, run_experiment, run_experiment_with, Protocol, RunParams,
};
use neo_bench::trace::render_waterfall;
use neo_core::{BatchPolicy, Replica};
use neo_crypto::CostModel;
use neo_sim::obs::Event;
use neo_sim::{CpuConfig, MILLIS};
use neo_wire::{Addr, ReplicaId};

/// Paper-testbed defaults with tiny windows.
fn smoke(protocol: Protocol, n_clients: usize) -> RunParams {
    let mut p = RunParams::new(protocol, n_clients);
    p.warmup = 20 * MILLIS;
    p.measure = 80 * MILLIS;
    p
}

fn smoke_batched(protocol: Protocol, n_clients: usize, batch: usize) -> RunParams {
    let mut p = smoke(protocol, n_clients);
    p.batch = BatchPolicy::fixed(batch);
    p
}

fn result(p: Protocol) -> neo_bench::RunResult {
    run_experiment(&smoke(p, 4))
}

#[test]
fn every_protocol_commits_under_real_costs() {
    for p in Protocol::comparison_set() {
        let r = result(*p);
        assert!(
            r.committed > 50,
            "{} committed only {} ops",
            p.label(),
            r.committed
        );
    }
}

#[test]
fn neo_beats_baselines_on_latency() {
    let neo = result(Protocol::NeoHm);
    for p in [
        Protocol::Pbft,
        Protocol::Zyzzyva,
        Protocol::HotStuff,
        Protocol::MinBft,
    ] {
        let other = result(p);
        assert!(
            neo.p50_latency_ns < other.p50_latency_ns,
            "Neo-HM p50 {} must beat {} p50 {}",
            neo.p50_latency_ns,
            p.label(),
            other.p50_latency_ns
        );
    }
}

#[test]
fn software_sequencer_variants_commit() {
    for p in [Protocol::NeoHmSoftware, Protocol::NeoPkSoftware] {
        let r = result(p);
        assert!(r.committed > 50, "{}: {}", p.label(), r.committed);
    }
}

#[test]
fn scaling_clients_scales_throughput_until_saturation() {
    let low = run_experiment(&smoke(Protocol::NeoHm, 1));
    let high = run_experiment(&smoke(Protocol::NeoHm, 16));
    assert!(
        high.throughput > 4.0 * low.throughput,
        "closed-loop scaling: {} vs {}",
        high.throughput,
        low.throughput
    );
}

#[test]
fn results_are_deterministic() {
    let p = smoke(Protocol::Pbft, 4);
    let a = run_experiment(&p);
    let b = run_experiment(&p);
    assert_eq!(a.committed, b.committed);
    assert_eq!(a.latencies_ns, b.latencies_ns);
}

#[test]
fn clean_run_reports_per_phase_latency_tables() {
    // Four closed-loop clients commit some 12 500 requests; a replica
    // emits three events per request into a 32 768-record ring, so the
    // oldest eighth of the run is no longer held when the trace is
    // assembled. The report covers the window every ring still holds —
    // it says where that starts and how much it left out — and inside it
    // what is true of a closed loop holds exactly.
    let p = smoke(Protocol::NeoHm, 4);
    let mut sim = build(&p);
    sim.run_until(p.warmup + p.measure);
    let r = collect(&sim, &p);
    let trace = r.trace.as_ref().expect("tracing is on by default");
    assert!(trace.committed > 50, "spans assembled: {}", trace.committed);
    assert_eq!(trace.gap_detours, 0, "clean run takes the fast path");
    assert!(
        trace.cut > 0 && trace.covered_from > 0,
        "the replica rings turned over: {} span(s) cut before {} ns",
        trace.cut,
        trace.covered_from
    );
    // Every committed span has all six phases; a span in flight at the
    // horizon — at most one per client — has only its first few.
    let in_flight = trace.requests - trace.committed;
    assert!(in_flight <= p.n_clients as u64, "{in_flight} in flight");
    for phase in neo_bench::trace::PHASES {
        let h = trace
            .phases
            .get(phase)
            .unwrap_or_else(|| panic!("phase {phase} observed"));
        assert!(
            trace.committed <= h.count && h.count <= trace.requests,
            "{phase} covers every committed span: {} of {}",
            h.count,
            trace.committed
        );
        assert!(h.p50 <= h.p99, "{phase} quantiles ordered");
    }
    for phase in ["reply_to_commit", "total"] {
        assert_eq!(trace.phases[phase].count, trace.committed, "{phase}");
    }
    assert!(
        trace.phases["total"].p50 >= trace.phases["reply_to_commit"].p50,
        "total dominates any single phase"
    );
    // Span by span, from the same run's reports: committed means whole,
    // and the spans that are not committed are in flight, not holed.
    let assembled = neo_bench::trace::assemble(&sim.reports(neo_sim::TraceRead::Copy));
    assert_eq!(
        (assembled.cut, assembled.covered_from),
        (trace.cut, trace.covered_from)
    );
    for span in &assembled.spans {
        let phases = span.phases();
        if span.committed() {
            assert!(phases.iter().all(|(_, d)| d.is_some()), "{span:?}");
        } else {
            assert!(span.send.is_some() && span.commit.is_none(), "{span:?}");
            assert!(render_waterfall(span).contains("[incomplete]"));
        }
    }
    // The JSON view carries the tables.
    let json = serde_json::to_value(&r).expect("serialize");
    assert!(json["trace"]["phases"]["total"]["p99"].as_u64().is_some());
    assert_eq!(json["trace"]["cut"].as_u64(), Some(trace.cut));

    // Tracing off → no trace report, numbers unchanged.
    let mut p = smoke(Protocol::NeoHm, 4);
    p.obs = p.obs.with_trace(0);
    let untraced = run_experiment(&p);
    assert!(untraced.trace.is_none());
    assert_eq!(untraced.committed, r.committed, "tracing never perturbs");
}

#[test]
fn sync_rounds_verify_at_most_2f_votes_per_replica_at_n16() {
    // All-to-all sync voting delivers n - 1 = 15 signed votes per round
    // to every replica, but the round settles at 2f = 10 (§B.2): the
    // votes behind the quorum must not cost an Ed25519 check (DESIGN.md
    // §16). On a clean trusted-network run the sync round is a
    // replica's only signature traffic — one vote signed, votes verified
    // — so its parallel-lane CPU time bounds the verify count exactly.
    let mut p = smoke(Protocol::NeoHm, 8);
    p.f = 5;
    (p.warmup, p.measure) = (5 * MILLIS, 5 * MILLIS); // a dozen sync rounds
    let mut sim = build(&p);
    sim.run_until(p.warmup + p.measure);
    let per_round = p.costs.ed25519_sign + 2 * p.f as u64 * p.costs.ed25519_verify;
    for r in 0..p.n_replicas() as u32 {
        let addr = Addr::Replica(ReplicaId(r));
        let rounds = sim
            .node_ref::<Replica>(addr)
            .expect("replica present")
            .stats
            .sync_points;
        assert!(rounds >= 4, "replica {r} settled only {rounds} sync rounds");
        let (_, parallel_ns) = sim.cpu_busy(addr).expect("replica has a CPU model");
        // + 1: a round may be under way when the run ends.
        assert!(
            parallel_ns <= (rounds + 1) * per_round,
            "replica {r}: {parallel_ns} ns of signature work over {rounds} sync rounds \
             exceeds 2f verifies + 1 sign per round ({per_round} ns)"
        );
    }
}

#[test]
fn batching_multiplies_neo_throughput_under_load() {
    let single = run_experiment(&smoke(Protocol::NeoHm, 16));
    let batched = run_experiment(&smoke_batched(Protocol::NeoHm, 16, 16));
    assert!(batched.committed > 100, "batched run commits");
    assert!(
        batched.throughput > 2.0 * single.throughput,
        "batch=16 must clearly beat batch=1 at saturation: {} vs {}",
        batched.throughput,
        single.throughput
    );
}

#[test]
fn verify_workers_multiply_neo_bn_throughput_at_batch_16() {
    // Neo-BN's per-slot confirm signatures make replica-side verification
    // the dominant dispatch cost; 64 closed-loop clients keep the serial
    // lane's dispatch core saturated, so the ratio measures verification
    // capacity rather than offered load.
    let lane = |workers| {
        let mut p = smoke_batched(Protocol::NeoBn, 64, 16);
        p.verify_lane = Some(workers);
        run_experiment(&p)
    };
    let serial = lane(0);
    let pooled = lane(4);
    assert!(serial.committed > 100, "serial lane commits");
    assert!(
        pooled.throughput >= 2.0 * serial.throughput,
        "4 modeled verify workers must at least double the serial lane at batch 16: {} vs {}",
        pooled.throughput,
        serial.throughput
    );
}

#[test]
fn confirms_leave_in_the_virtual_instant_they_are_signed_when_nothing_else_is_ready() {
    // The Byzantine-network confirm flush is "this node has run out of
    // ready input", never a timed wait: on a group with nothing queued,
    // every confirm's envelope is emitted in the instant of the aom
    // handler that signed it. One closed-loop client under the calibrated
    // costs exercises the head-of-line rule (each packet is the one the
    // receiver delivers next). Two clients on a zero-cost CPU exercise the
    // deferred flush: the second packet of each pair is not head of line,
    // and a zero-delay timer armed by a handler that takes no virtual time
    // fires in that handler's instant.
    for (clients, zero_cost) in [(1, false), (2, true)] {
        let mut p = smoke(Protocol::NeoBn, clients);
        p.warmup = 0;
        p.measure = 5 * MILLIS;
        if zero_cost {
            p.costs = CostModel::FREE;
            p.server_cpu = CpuConfig::IDEAL;
        }
        let mut sim = build(&p);
        sim.run_until(p.measure);
        for r in 0..p.n_replicas() as u32 {
            let trace = sim
                .metrics(Addr::Replica(ReplicaId(r)))
                .expect("replica registered")
                .trace_snapshot();
            let mut signed_at = std::collections::VecDeque::new();
            let mut flushed = 0usize;
            for rec in trace {
                match rec.event {
                    Event::Confirm { .. } => signed_at.push_back(rec.at),
                    Event::ConfirmBatch { size } => {
                        for at in signed_at.drain(..size as usize) {
                            assert_eq!(
                                rec.at, at,
                                "{clients} client(s), replica {r}: confirm signed at {at} ns left at {} ns",
                                rec.at
                            );
                            flushed += 1;
                        }
                    }
                    _ => {}
                }
            }
            assert!(flushed > 20, "replica {r} flushed {flushed} confirms");
            assert!(signed_at.is_empty(), "replica {r} ended holding confirms");
        }
    }
}

#[test]
fn confirm_batching_survives_saturation() {
    // The `ablations` bench's confirm-batching pair as a shape: with no
    // timed wait, a batch is whatever accumulates while the replica is
    // busy, and at 64 closed-loop clients that must still be worth more
    // than 2x over one envelope per confirm (§6.2).
    let mut p = RunParams::new(Protocol::NeoBn, 64);
    p.warmup = 10 * MILLIS;
    p.measure = 20 * MILLIS;
    let batched = run_experiment_with(&p, &|c| c.batch_confirms = true);
    let per_packet = run_experiment_with(&p, &|c| c.batch_confirms = false);
    assert!(per_packet.committed > 100, "per-packet run commits");
    assert!(
        batched.throughput >= 2.0 * per_packet.throughput,
        "batched confirms must at least double per-packet at saturation: {} vs {}",
        batched.throughput,
        per_packet.throughput
    );
    let sizes = &batched.obs.aggregate.histograms["replica.confirm_batch_size"];
    assert!(
        sizes.sum > sizes.count,
        "mean confirm batch size must exceed 1: {} confirms in {} envelopes",
        sizes.sum,
        sizes.count
    );
}

#[test]
fn batched_runs_keep_per_op_accounting_and_spans() {
    // Per-(client, request) accounting survives batching: completed ids
    // stay unique and strictly increasing per client, so neo-trace's
    // span joins keep working.
    let r = run_experiment(&smoke_batched(Protocol::NeoHm, 2, 8));
    assert!(r.committed > 100, "batched run commits: {}", r.committed);
    let trace = r.trace.as_ref().expect("tracing on by default");
    assert!(trace.committed > 0, "spans assembled under batching");
    assert!(r.p50_latency_ns > 0 && r.p50_latency_ns <= r.p99_latency_ns);
}

#[test]
fn batched_pbft_control_uses_the_policy_batch() {
    // The baseline control adopts the policy's batch size so comparisons
    // stay like-for-like; it must still commit.
    let r = run_experiment(&smoke_batched(Protocol::Pbft, 8, 32));
    assert!(r.committed > 50, "batched PBFT commits: {}", r.committed);
}

#[test]
fn ycsb_workload_runs_on_kv_store() {
    use neo_app::YcsbConfig;
    use neo_bench::harness::AppKind;
    let mut p = smoke(Protocol::NeoHm, 4);
    p.app = AppKind::Ycsb(YcsbConfig {
        record_count: 1_000, // small table keeps the smoke test fast
        ..YcsbConfig::WORKLOAD_A
    });
    let r = run_experiment(&p);
    assert!(r.committed > 50, "YCSB commits: {}", r.committed);
}
