//! neo-chaos: deterministic adversarial exploration.
//!
//! Every scenario is derived from a single `u64` seed: the fault plan
//! (duplication, delay spikes, tampering, partitions), the optional
//! Byzantine transport adapter, and the simulator's RNG all come from
//! it. A seed therefore *is* a reproduction: the sweep prints the seed
//! and the serialized plan on any safety violation, and re-running that
//! seed replays the run byte-for-byte.
//!
//! The runner drives a NeoBFT cluster in slices and checks the global
//! safety invariants ([`neo_core::invariants`]) at every slice boundary
//! and again after a drain period — transient violations that healing
//! would mask still get caught. A PBFT control runs the same fault plan
//! through a classical protocol, both as a harness sanity check and to
//! confirm the plan generator produces survivable scenarios.
//!
//! Every correct replica runs on a durable [`MemStore`]: checkpoints are
//! certified and WAL records flushed under chaos on every seed, and
//! `CrashRestart` plans (every third seed) additionally remove a
//! replica's node object mid-run — its unflushed buffer dies with it —
//! then rebuild a fresh replica over the surviving [`MemDisk`], whose
//! recovery handshake must rejoin it via certified state transfer.

use crate::harness::{build, Protocol, RunParams, GROUP};
use neo_aom::{AuthMode, ConfigService, SequencerHw, SequencerNode};
use neo_app::{EchoApp, EchoWorkload};
use neo_baselines::PbftClient;
use neo_core::invariants::InvariantChecker;
use neo_core::{BatchPolicy, Client, NeoConfig, Replica};
use neo_crypto::{CostModel, SystemKeys};
use neo_sim::obs::{merged_events, write_jsonl};
use neo_sim::{
    ByzStrategy, ByzantineNode, CpuConfig, FaultPlan, FlightDump, NetConfig, NetStats, ObsConfig,
    SimConfig, Simulator, TraceRead, MICROS, MILLIS,
};
use neo_store::{MemDisk, MemStore};
use neo_wire::{Addr, ClientId, ReplicaId};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Replica count of every chaos cluster (f = 1).
pub const N: usize = 4;
/// Fault bound.
pub const F: usize = 1;
/// Virtual-time horizon of one chaos run.
pub const HORIZON: u64 = 20 * MILLIS;
/// Invariants are checked this many times during a run (plus once after
/// the drain).
const SLICES: u64 = 10;
/// Modeled fsync latency the simulator charges per store flush. Chaos
/// replicas are durable, so the WAL's latency contribution is simulated
/// rather than hidden behind free I/O.
const FSYNC_MODEL_NS: u64 = 5 * MICROS;

/// Which replica runs behind a Byzantine transport adapter, and how it
/// misbehaves.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ByzAssignment {
    /// The wrapped replica.
    pub replica: u32,
    /// Its misbehaviour.
    pub strategy: ByzStrategy,
}

/// A fully serialized chaos scenario. `generate_plan(seed)` is a pure
/// function, so the seed alone reproduces the plan; the plan is still
/// embedded in violation reports so a report is self-contained even if
/// the generator changes later.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ChaosPlan {
    /// Master seed: drives plan generation and the simulator RNG.
    pub seed: u64,
    /// Virtual run length in nanoseconds (faults all heal before it).
    pub horizon_ns: u64,
    /// Closed-loop clients.
    pub n_clients: usize,
    /// NeoBFT sync interval (small, so runs cross many sync points).
    pub sync_interval: u64,
    /// Network fault rules.
    pub faults: FaultPlan,
    /// Optional Byzantine replica.
    pub byz: Option<ByzAssignment>,
    /// Client batch size (1 = the pre-batching closed loop). Cycles
    /// through {1, 4, 16} with the seed so every sweep of three or more
    /// consecutive seeds exercises batched and unbatched paths alike.
    /// Defaults to 1 when decoding plans serialized before batching.
    #[serde(default = "default_plan_batch")]
    pub batch: usize,
}

fn default_plan_batch() -> usize {
    1
}

/// Outcome of one chaos run.
#[derive(Clone, Debug, PartialEq)]
pub struct ChaosOutcome {
    /// The scenario that ran.
    pub plan: ChaosPlan,
    /// Rendered safety violations — empty on a correct run.
    pub violations: Vec<String>,
    /// Client operations that completed.
    pub committed: u64,
    /// Network counters (shows the faults actually fired).
    pub net: NetStats,
    /// Sends the Byzantine adapter perturbed (0 without one).
    pub byz_perturbed: u64,
    /// For each crash-restart fault, the slot the replica resumed from
    /// after its restart. A non-zero base proves it rejoined from a
    /// certified checkpoint instead of replaying from slot 0.
    pub recovered_bases: Vec<u64>,
    /// Checkpoints certified across the correct replicas — evidence the
    /// durable pipeline (capture → 2f+1 sync votes → stable) ran.
    pub checkpoints_certified: u64,
    /// State-transfer replies served to recovering peers.
    pub state_replies_served: u64,
    /// Flight-recorder dump captured at the moment the invariant checker
    /// tripped — `None` on a correct run. Self-contained: carries the
    /// seed and serialized plan in its context plus every node's recent
    /// events and packet digests.
    pub flight: Option<FlightDump>,
}

/// Derive the full scenario from a seed.
///
/// The first rule's kind is pinned to `seed % 4`, so any sweep of four
/// or more consecutive seeds provably covers all four fault kinds;
/// odd seeds carry a Byzantine adapter, and every third seed crashes a
/// correct replica mid-run and restarts it over its durable disk.
/// Everything else is drawn from a ChaCha8 stream seeded by `seed`.
pub fn generate_plan(seed: u64) -> ChaosPlan {
    let mut rng = ChaCha8Rng::seed_from_u64(seed ^ 0x6e65_6f5f_6368_616f); // "neo_chao"
    let h = HORIZON;
    let mut faults = FaultPlan::none();
    let n_rules = rng.gen_range(2..=4u32);
    for i in 0..n_rules {
        // Fault windows sit inside [h/5, 7h/10]: everything heals with
        // enough horizon left for recovery machinery to run.
        let from = rng.gen_range(h / 5..h / 2);
        let until = rng.gen_range(from + h / 20..=7 * h / 10);
        let src = if rng.gen_bool(0.5) {
            Addr::Sequencer(GROUP)
        } else {
            Addr::Replica(ReplicaId(rng.gen_range(0..N as u32)))
        };
        let kind = if i == 0 {
            (seed % 4) as u32
        } else {
            rng.gen_range(0..4u32)
        };
        faults = match kind {
            0 => faults.duplicate(src, rng.gen_range(2..=4), from, until),
            1 => faults.delay_spike(src, rng.gen_range(50 * MICROS..=2 * MILLIS), from, until),
            2 => faults.tamper(src, from, until),
            _ => {
                let island: Vec<Addr> = match rng.gen_range(0..4u32) {
                    0 => vec![Addr::Replica(ReplicaId(rng.gen_range(0..N as u32)))],
                    1 => vec![Addr::Sequencer(GROUP)],
                    2 => vec![Addr::Replica(ReplicaId(0)), Addr::Replica(ReplicaId(1))],
                    _ => vec![
                        Addr::Sequencer(GROUP),
                        Addr::Replica(ReplicaId(0)),
                        Addr::Replica(ReplicaId(1)),
                    ],
                };
                faults.partition(island, from, until)
            }
        };
    }
    let byz = (seed % 2 == 1).then(|| ByzAssignment {
        replica: rng.gen_range(0..N as u32),
        strategy: match rng.gen_range(0..3u32) {
            0 => ByzStrategy::Equivocate,
            1 => ByzStrategy::ReplayStale {
                every: rng.gen_range(2..=6),
            },
            _ => ByzStrategy::SilenceTowards(vec![Addr::Replica(ReplicaId(
                rng.gen_range(0..N as u32),
            ))]),
        },
    });
    // Every third seed crashes one correct replica and brings it back
    // before the horizon: the fabric drops its packets while down, and
    // the runner swaps the node object around the window. Drawn last so
    // plans from earlier generator versions keep their exact streams.
    if seed % 3 == 2 {
        let victim = loop {
            let v = rng.gen_range(0..N as u32);
            if byz.as_ref().is_none_or(|b| b.replica != v) {
                break v;
            }
        };
        let crash_at = rng.gen_range(h / 5..h / 2);
        let restart_at = rng.gen_range(crash_at + h / 10..=7 * h / 10);
        faults = faults.crash_restart(Addr::Replica(ReplicaId(victim)), crash_at, restart_at);
    }
    ChaosPlan {
        seed,
        horizon_ns: h,
        n_clients: 2,
        sync_interval: 8,
        faults,
        byz,
        batch: [1, 4, 16][(seed % 3) as usize],
    }
}

/// Build the NeoBFT cluster for a plan: software sequencer, free crypto
/// and ideal CPUs (chaos exercises protocol logic, not queueing), the
/// plan's fault rules installed in the fabric, and at most one replica
/// wrapped in a [`ByzantineNode`].
pub fn build_cluster(plan: &ChaosPlan) -> Simulator {
    build_cluster_durable(plan).0
}

/// The replica-side NeoBFT config a plan implies.
fn replica_config(plan: &ChaosPlan) -> NeoConfig {
    let mut cfg = NeoConfig::new(F);
    cfg.sync_interval = plan.sync_interval;
    if plan.batch > 1 {
        cfg = cfg.with_batch(BatchPolicy::fixed(plan.batch));
    }
    cfg
}

/// A correct replica opened over `disk` — used both at cluster build
/// time and when the crash-restart runner rebuilds a crashed replica
/// over its surviving disk ([`SystemKeys`] generation is deterministic,
/// so the rebuilt replica is keyed identically to its first life).
fn durable_replica(plan: &ChaosPlan, r: u32, disk: MemDisk) -> Replica {
    let keys = SystemKeys::new(plan.seed, N, plan.n_clients);
    Replica::with_store(
        ReplicaId(r),
        replica_config(plan),
        &keys,
        CostModel::FREE,
        Box::new(EchoApp::new()),
        Box::new(MemStore::open(disk, FSYNC_MODEL_NS)),
    )
}

/// [`build_cluster`], also returning the per-replica durable disks the
/// crash-restart runner re-opens when it rebuilds a crashed replica.
/// Every correct replica runs on a [`MemStore`]; the Byzantine slot (if
/// any) is `None` — the adapter owns the node box, never restarts, and
/// its state is allowed to be arbitrary anyway.
pub fn build_cluster_durable(plan: &ChaosPlan) -> (Simulator, Vec<Option<MemDisk>>) {
    let keys = SystemKeys::new(plan.seed, N, plan.n_clients);
    let mut sim = Simulator::new(SimConfig {
        net: NetConfig::DATACENTER,
        default_cpu: CpuConfig::IDEAL,
        seed: plan.seed,
        faults: plan.faults.clone(),
    });
    // Chaos always flies with the recorder on: when an invariant trips,
    // the bounded per-node event/packet rings become the post-mortem.
    // Must precede add_node so every node gets a recording registry.
    sim.set_obs(ObsConfig::flight_recorder());
    let cfg = replica_config(plan);

    let mut config = ConfigService::new();
    config.register_group(GROUP, (0..N as u32).map(ReplicaId).collect(), F);
    sim.add_node(Addr::Config, Box::new(config));

    let sequencer = SequencerNode::new(
        GROUP,
        (0..N as u32).map(ReplicaId).collect(),
        AuthMode::HmacVector,
        SequencerHw::Software(CostModel::FREE),
        &keys,
    );
    sim.add_node(Addr::Sequencer(GROUP), Box::new(sequencer));

    let mut disks: Vec<Option<MemDisk>> = Vec::with_capacity(N);
    for r in 0..N as u32 {
        let node: Box<dyn neo_sim::Node> = match &plan.byz {
            Some(b) if b.replica == r => {
                disks.push(None);
                let replica = Replica::new(
                    ReplicaId(r),
                    cfg.clone(),
                    &keys,
                    CostModel::FREE,
                    Box::new(EchoApp::new()),
                );
                Box::new(ByzantineNode::new(Box::new(replica), b.strategy.clone()))
            }
            _ => {
                let disk = MemDisk::new();
                disks.push(Some(disk.clone()));
                Box::new(durable_replica(plan, r, disk))
            }
        };
        sim.add_node(Addr::Replica(ReplicaId(r)), node);
    }
    for c in 0..plan.n_clients as u64 {
        let client = Client::new(
            ClientId(c),
            cfg.clone(),
            &keys,
            CostModel::FREE,
            Box::new(EchoWorkload::new(64, c + 1)),
        );
        sim.add_node(Addr::Client(ClientId(c)), Box::new(client));
    }
    (sim, disks)
}

/// Advance the simulator to `to`, executing any crash/restart runner
/// boundaries on the way: at a crash the node object is removed — its
/// unflushed store buffer dies with it — and at a restart a fresh
/// replica is rebuilt over the same disk, whose bootstrap timer kicks
/// off the recovery handshake against the live peers.
fn advance(
    sim: &mut Simulator,
    plan: &ChaosPlan,
    disks: &[Option<MemDisk>],
    boundaries: &[(u64, Addr, bool)],
    next: &mut usize,
    to: u64,
) {
    while *next < boundaries.len() && boundaries[*next].0 <= to {
        let (at, addr, restart) = boundaries[*next];
        *next += 1;
        sim.run_until(at);
        if !restart {
            sim.remove_node(addr);
            continue;
        }
        let Addr::Replica(ReplicaId(r)) = addr else {
            continue;
        };
        if let Some(disk) = disks.get(r as usize).cloned().flatten() {
            sim.add_node(addr, Box::new(durable_replica(plan, r, disk)));
        }
    }
    sim.run_until(to);
}

/// The *correct* replicas of a run: a Byzantine-wrapped replica is
/// excluded (its `node_ref::<Replica>` downcast also fails, so the
/// filter is structural, not just policy).
fn correct_replicas<'a>(sim: &'a Simulator, plan: &ChaosPlan) -> Vec<&'a Replica> {
    (0..N as u32)
        .filter(|r| plan.byz.as_ref().is_none_or(|b| b.replica != *r))
        .filter_map(|r| sim.node_ref::<Replica>(Addr::Replica(ReplicaId(r))))
        .collect()
}

/// Side-channels for a chaos run, all optional. `run_neo` uses the
/// defaults; the `chaos` bin wires SIGINT and `--obs-out` through here.
#[derive(Default)]
pub struct RunHooks<'a> {
    /// Checked at every slice boundary: when set, the run stops early
    /// and the outcome carries a `"sigint"` flight dump of whatever the
    /// rings held at that moment.
    pub stop: Option<&'a std::sync::atomic::AtomicBool>,
    /// Live exporter: one [`neo_sim::NodeReport`] JSON line per node
    /// is appended at every slice boundary. Draining the trace rings
    /// into the stream means the stream (not the flight dump) is the
    /// complete event log when this is active.
    pub obs_out: Option<&'a mut dyn std::io::Write>,
    /// Fault-injection hook: called after each slice runs, before its
    /// invariant check, with the simulator and the 1-based slice index.
    /// Tests use it to corrupt replica state and exercise the
    /// violation → flight-dump path end to end.
    pub inject: Option<&'a mut dyn FnMut(&mut Simulator, u64)>,
    /// Live scrape plane: when set, every node's report is published
    /// into the hub at every slice boundary, so a
    /// [`neo_sim::TelemetryServer`] over the hub serves the run as it
    /// advances.
    pub telemetry: Option<&'a neo_sim::TelemetryHub>,
}

/// Run the NeoBFT side of a scenario, checking invariants at every
/// slice boundary and after a post-horizon drain.
pub fn run_neo(plan: &ChaosPlan) -> ChaosOutcome {
    run_neo_with(plan, &mut RunHooks::default())
}

/// [`run_neo`] with interruption and live-export hooks.
pub fn run_neo_with(plan: &ChaosPlan, hooks: &mut RunHooks) -> ChaosOutcome {
    let (mut sim, disks) = build_cluster_durable(plan);
    // The runner half of `CrashRestart` (the fabric half drops the down
    // node's packets): `(time, addr, is_restart)` boundaries, in order.
    let mut boundaries: Vec<(u64, Addr, bool)> = Vec::new();
    for (addr, crash_at, restart_at) in plan.faults.crash_restarts() {
        boundaries.push((crash_at, addr, false));
        boundaries.push((restart_at, addr, true));
    }
    boundaries.sort_by_key(|b| b.0);
    let mut next_boundary = 0usize;
    let mut checker = InvariantChecker::new();
    let mut flight: Option<FlightDump> = None;
    // Snapshot the rings at the first slice boundary where the checker
    // trips — later boundaries would have evicted the interesting tail.
    let snap = |sim: &Simulator, checker: &InvariantChecker, flight: &mut Option<FlightDump>| {
        if flight.is_some() || checker.violations().is_empty() {
            return;
        }
        *flight = Some(flight_snapshot(sim, plan, checker, "invariant_violation"));
    };
    let slice = (plan.horizon_ns / SLICES).max(1);
    let mut interrupted = false;
    for i in 1..=SLICES {
        advance(
            &mut sim,
            plan,
            &disks,
            &boundaries,
            &mut next_boundary,
            i * slice,
        );
        if let Some(f) = hooks.inject.as_mut() {
            f(&mut sim, i);
        }
        checker.check(&correct_replicas(&sim, plan));
        snap(&sim, &checker, &mut flight);
        export(&sim, hooks);
        if hooks
            .stop
            .map(|s| s.load(std::sync::atomic::Ordering::Relaxed))
            .unwrap_or(false)
        {
            if flight.is_none() {
                flight = Some(flight_snapshot(&sim, plan, &checker, "sigint"));
            }
            interrupted = true;
            break;
        }
    }
    if !interrupted {
        // Drain: faults have healed; give recovery machinery (gap
        // agreement, view changes, state sync) time to settle, then
        // check once more.
        advance(
            &mut sim,
            plan,
            &disks,
            &boundaries,
            &mut next_boundary,
            plan.horizon_ns + plan.horizon_ns / 2,
        );
        checker.check(&correct_replicas(&sim, plan));
        snap(&sim, &checker, &mut flight);
        export(&sim, hooks);
    }

    let committed = (0..plan.n_clients as u64)
        .filter_map(|c| sim.node_ref::<Client>(Addr::Client(ClientId(c))))
        .map(|cl| cl.completed.len() as u64)
        .sum();
    let byz_perturbed = plan
        .byz
        .as_ref()
        .and_then(|b| sim.node_ref::<ByzantineNode>(Addr::Replica(ReplicaId(b.replica))))
        .map(|bn| {
            let s = bn.stats();
            s.mutated + s.replayed + s.suppressed
        })
        .unwrap_or(0);
    let recovered_bases: Vec<u64> = plan
        .faults
        .crash_restarts()
        .into_iter()
        .filter_map(|(addr, ..)| sim.node_ref::<Replica>(addr))
        .filter_map(|r| r.recovery_base())
        .map(|s| s.0)
        .collect();
    let (checkpoints_certified, state_replies_served) =
        correct_replicas(&sim, plan).iter().fold((0, 0), |acc, r| {
            (
                acc.0 + r.stats.checkpoints_certified,
                acc.1 + r.stats.state_replies_served,
            )
        });
    ChaosOutcome {
        plan: plan.clone(),
        violations: checker.violations().iter().map(|v| v.to_string()).collect(),
        committed,
        net: sim.stats(),
        byz_perturbed,
        recovered_bases,
        checkpoints_certified,
        state_replies_served,
        flight,
    }
}

/// Hand the cluster's reports to the live sinks the hooks name. The
/// stream drains each node's trace ring into its line; its write errors
/// are swallowed: a full disk must not abort the safety check itself.
fn export(sim: &Simulator, hooks: &mut RunHooks) {
    if hooks.obs_out.is_none() && hooks.telemetry.is_none() {
        return;
    }
    let trace = if hooks.obs_out.is_some() {
        TraceRead::Drain
    } else {
        TraceRead::Copy
    };
    let reports = sim.reports(trace);
    if let Some(w) = hooks.obs_out.as_deref_mut() {
        let _ = write_jsonl(w, &reports);
    }
    if let Some(hub) = hooks.telemetry {
        hub.publish(reports);
    }
}

/// Freeze the cluster's flight-recorder rings (without draining them —
/// the run can continue) into a self-contained dump: violations rendered,
/// seed and serialized plan embedded so the artifact reproduces the run
/// even detached from sweep output.
fn flight_snapshot(
    sim: &Simulator,
    plan: &ChaosPlan,
    checker: &InvariantChecker,
    reason: &str,
) -> FlightDump {
    let plan_json = serde_json::to_string(plan).unwrap_or_else(|_| "<unserializable>".into());
    FlightDump {
        reason: reason.to_string(),
        at: sim.now(),
        violations: checker.violations().iter().map(|v| v.to_string()).collect(),
        context: [
            ("seed".to_string(), plan.seed.to_string()),
            ("plan".to_string(), plan_json),
        ]
        .into(),
        nodes: sim.reports(TraceRead::Copy),
    }
}

/// Run the same fault plan through PBFT as a control. Returns the
/// committed-op count plus any control-level anomalies (a closed-loop
/// client completing request ids out of order would mean the *harness*
/// is broken, not the protocol).
pub fn run_pbft_control(plan: &ChaosPlan) -> (u64, Vec<String>) {
    let mut params = RunParams::new(Protocol::Pbft, plan.n_clients);
    params.seed = plan.seed;
    params.costs = CostModel::FREE;
    params.server_cpu = CpuConfig::IDEAL;
    params.client_cpu = CpuConfig::IDEAL;
    params.faults = plan.faults.clone();
    let mut sim = build(&params);
    sim.run_until(plan.horizon_ns + plan.horizon_ns / 2);
    let mut committed = 0u64;
    let mut anomalies = Vec::new();
    for c in 0..plan.n_clients as u64 {
        let Some(client) = sim.node_ref::<PbftClient>(Addr::Client(ClientId(c))) else {
            continue;
        };
        let ids: Vec<u64> = client
            .core
            .completed
            .iter()
            .map(|o| o.request_id.0)
            .collect();
        for w in ids.windows(2) {
            if w[1] <= w[0] {
                anomalies.push(format!(
                    "pbft control: client {c} completed request {} after {}",
                    w[1], w[0]
                ));
            }
        }
        committed += ids.len() as u64;
    }
    (committed, anomalies)
}

/// Render a violation as a self-contained, reproducible report.
pub fn violation_report(outcome: &ChaosOutcome) -> String {
    let plan_json =
        serde_json::to_string(&outcome.plan).unwrap_or_else(|_| "<unserializable>".into());
    let mut s = format!(
        "chaos: SAFETY VIOLATION at seed {}\n\
         reproduce: cargo run -p neo-bench --bin chaos -- --seed {}\n\
         plan: {plan_json}\n",
        outcome.plan.seed, outcome.plan.seed
    );
    for v in &outcome.violations {
        s.push_str("  violation: ");
        s.push_str(v);
        s.push('\n');
    }
    // The tail of the merged event timeline: what the cluster was doing
    // right before the checker tripped.
    if let Some(flight) = &outcome.flight {
        const TAIL: usize = 40;
        let merged = merged_events(&flight.nodes);
        let skipped = merged.len().saturating_sub(TAIL);
        if skipped > 0 {
            s.push_str(&format!(
                "  last {TAIL} of {} recorded events (full rings in the flight dump):\n",
                merged.len()
            ));
        } else {
            s.push_str(&format!("  last {} recorded events:\n", merged.len()));
        }
        for r in &merged[skipped..] {
            s.push_str(&format!(
                "    {:>12}ns  {:?}  {:?}\n",
                r.at, r.node, r.event
            ));
        }
    }
    s
}

/// One-line summary for sweep output.
pub fn summary_line(outcome: &ChaosOutcome) -> String {
    let recovered = if outcome.recovered_bases.is_empty() {
        String::new()
    } else {
        format!("  recovered@{:?}", outcome.recovered_bases)
    };
    format!(
        "seed {:>4}  batch {:>2}  committed {:>4}  dup {:>3}  tampered {:>3}  spiked {:>3}  \
         dropped {:>4}  byz {:>3}  ckpt {:>3}{recovered}  {}",
        outcome.plan.seed,
        outcome.plan.batch,
        outcome.committed,
        outcome.net.duplicated,
        outcome.net.tampered,
        outcome.net.delay_spiked,
        outcome.net.dropped(),
        outcome.byz_perturbed,
        outcome.checkpoints_certified,
        if outcome.violations.is_empty() {
            "ok"
        } else {
            "VIOLATION"
        }
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_pure_functions_of_the_seed() {
        for seed in 0..16 {
            assert_eq!(generate_plan(seed), generate_plan(seed));
        }
        assert_ne!(generate_plan(1), generate_plan(2));
    }

    #[test]
    fn plans_round_trip_through_json() {
        for seed in 0..8 {
            let plan = generate_plan(seed);
            let json = serde_json::to_string(&plan).expect("serialize");
            let back: ChaosPlan = serde_json::from_str(&json).expect("deserialize");
            assert_eq!(plan, back);
        }
    }

    #[test]
    fn first_rule_kind_cycles_through_all_four_faults() {
        // seed % 4 pins the first rule's kind: 0 = duplicate,
        // 1 = delay spike, 2 = tamper, 3 = partition.
        use neo_sim::FaultRule;
        let kinds: Vec<u32> = (0..4)
            .map(|seed| match generate_plan(seed).faults.rules()[0] {
                FaultRule::Duplicate { .. } => 0,
                FaultRule::DelaySpike { .. } => 1,
                FaultRule::Tamper { .. } => 2,
                FaultRule::Partition { .. } => 3,
                _ => 99,
            })
            .collect();
        assert_eq!(kinds, vec![0, 1, 2, 3]);
    }

    #[test]
    fn chaos_clusters_fly_with_the_recorder_on() {
        // The recorder must capture events even though chaos never
        // enables full tracing elsewhere — and a clean run attaches no
        // flight dump to its outcome.
        let plan = generate_plan(0);
        let mut sim = build_cluster(&plan);
        sim.run_until(2 * MILLIS);
        let nodes = sim.reports(TraceRead::Copy);
        assert!(
            nodes.iter().any(|n| !n.events.is_empty()),
            "event rings recording"
        );
        assert!(
            nodes.iter().any(|n| !n.packets.is_empty()),
            "packet rings recording"
        );
        let outcome = run_neo(&plan);
        assert!(outcome.violations.is_empty(), "seed 0 is a clean scenario");
        assert!(outcome.flight.is_none(), "no dump without a violation");
    }

    #[test]
    fn stop_hook_interrupts_with_a_sigint_dump() {
        let stop = std::sync::atomic::AtomicBool::new(true);
        let mut sink: Vec<u8> = Vec::new();
        let mut hooks = RunHooks {
            stop: Some(&stop),
            obs_out: Some(&mut sink),
            ..RunHooks::default()
        };
        let plan = generate_plan(0);
        let outcome = run_neo_with(&plan, &mut hooks);
        let flight = outcome.flight.expect("interrupted run dumps");
        assert_eq!(flight.reason, "sigint");
        assert_eq!(flight.context["seed"], "0");
        // One slice ran before the flag was seen: the stream holds one
        // valid report per node.
        let lines: Vec<neo_sim::NodeReport> = String::from_utf8(sink)
            .expect("utf8")
            .lines()
            .map(|l| serde_json::from_str(l).expect("valid JSONL"))
            .collect();
        assert_eq!(lines.len(), N + plan.n_clients + 2, "nodes per slice");
        assert!(lines.iter().any(|l| !l.events.is_empty()));
    }

    #[test]
    fn telemetry_hook_publishes_every_node() {
        use neo_sim::ReportSource;
        let hub = neo_sim::TelemetryHub::default();
        let mut hooks = RunHooks {
            telemetry: Some(&hub),
            ..RunHooks::default()
        };
        let plan = generate_plan(0);
        let outcome = run_neo_with(&plan, &mut hooks);
        assert!(outcome.violations.is_empty(), "seed 0 is clean");
        let published = hub.reports();
        assert_eq!(published.len(), N + plan.n_clients + 2, "one per node");
        let reports: Vec<_> = published.iter().filter_map(|r| r.health.as_ref()).collect();
        let replicas: Vec<_> = reports.iter().filter(|r| r.protocol.is_some()).collect();
        assert_eq!(replicas.len(), N, "every replica reports protocol health");
        assert!(replicas.iter().all(|r| r.healthy), "{reports:?}");
        assert!(
            replicas.iter().map(|r| r.committed).sum::<u64>() > 0,
            "commit events surface in the health docs"
        );
        // The scrape side renders the same publications.
        let body = neo_sim::render_prometheus(&published);
        assert!(body.contains("neobft_replica_messages_in_total"), "{body}");
    }

    #[test]
    fn batch_size_cycles_with_the_seed() {
        assert_eq!(generate_plan(0).batch, 1);
        assert_eq!(generate_plan(1).batch, 4);
        assert_eq!(generate_plan(2).batch, 16);
        assert_eq!(generate_plan(3).batch, 1);
    }

    #[test]
    fn batched_scenarios_uphold_every_safety_invariant() {
        // Seeds 0..6 cover batch sizes 1, 4 and 16 twice each (and, via
        // seed % 4, all four fault kinds). The checker runs all five
        // invariants — committed-prefix agreement, monotone delivery,
        // execution agreement, sync ≤ commit, and no double execution —
        // at every slice boundary.
        for seed in 0..6 {
            let plan = generate_plan(seed);
            let outcome = run_neo(&plan);
            assert!(
                outcome.violations.is_empty(),
                "seed {seed} (batch {}): {:?}",
                plan.batch,
                outcome.violations
            );
            assert!(
                outcome.committed > 0,
                "seed {seed} (batch {}) commits nothing",
                plan.batch
            );
        }
    }

    #[test]
    fn pre_batching_plans_still_decode() {
        // Plans serialized before the batch field default to batch = 1.
        let mut v = serde_json::to_value(generate_plan(0)).expect("serialize");
        v.as_object_mut().expect("object").remove("batch");
        let plan: ChaosPlan = serde_json::from_value(v).expect("decode without batch");
        assert_eq!(plan.batch, 1);
    }

    #[test]
    fn odd_seeds_carry_a_byzantine_adapter() {
        assert!(generate_plan(0).byz.is_none());
        assert!(generate_plan(1).byz.is_some());
        assert!(generate_plan(2).byz.is_none());
        assert!(generate_plan(3).byz.is_some());
    }

    #[test]
    fn every_third_seed_crashes_and_restarts_a_correct_replica() {
        for seed in 0..12u64 {
            let plan = generate_plan(seed);
            let crashes = plan.faults.crash_restarts();
            if seed % 3 != 2 {
                assert!(crashes.is_empty(), "seed {seed} must not crash");
                continue;
            }
            assert_eq!(crashes.len(), 1, "seed {seed} carries one crash");
            let (addr, crash_at, restart_at) = crashes[0];
            // The victim is a correct replica: the Byzantine slot never
            // gets a disk, so it could not come back.
            if let Some(b) = &plan.byz {
                assert_ne!(addr, Addr::Replica(ReplicaId(b.replica)));
            }
            // The window heals with horizon to spare for recovery.
            assert!(crash_at >= HORIZON / 5 && crash_at < HORIZON / 2);
            assert!(restart_at > crash_at && restart_at <= 7 * HORIZON / 10);
        }
    }

    #[test]
    fn crash_restart_scenarios_recover_from_certified_checkpoints() {
        // Seed 2: a crash-restart plan over a durable cluster. The run
        // must stay safe, the crashed replica must rejoin through the
        // recovery handshake, and the evidence must be externally
        // visible: a non-zero recovery base (certified checkpoint, not
        // slot-0 replay), checkpoints certified, state replies served.
        let plan = generate_plan(2);
        let outcome = run_neo(&plan);
        assert!(
            outcome.violations.is_empty(),
            "{}",
            violation_report(&outcome)
        );
        assert!(outcome.committed > 0, "clients must make progress");
        assert_eq!(outcome.recovered_bases.len(), 1, "one restart, one base");
        assert!(
            outcome.recovered_bases[0] > 0,
            "restart must resume from a certified checkpoint, not slot 0"
        );
        assert!(outcome.checkpoints_certified > 0);
        assert!(outcome.state_replies_served > 0);
        let line = summary_line(&outcome);
        assert!(
            line.contains("recovered@"),
            "summary reports recovery: {line}"
        );
    }

    #[test]
    fn durable_seeds_without_crashes_still_certify_checkpoints() {
        // Every chaos replica is durable, so even crash-free seeds
        // exercise the capture → certify pipeline under faults.
        let outcome = run_neo(&generate_plan(0));
        assert!(outcome.violations.is_empty());
        assert!(outcome.checkpoints_certified > 0);
        assert!(outcome.recovered_bases.is_empty(), "seed 0 never crashes");
    }
}
