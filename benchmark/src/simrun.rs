//! Running the simulator workload: `bench::harness::build` assembles the
//! deployment, `Simulator::run_until` runs a fixed simulated window, and
//! wall-clock time is what varies.

use crate::measure;
use crate::outputs::{self, Completions};
use crate::report::RunReport;
use crate::trace::{self, NodeSinks, Traced};
use neobft::app::{EchoWorkload, Workload};
use neobft::bench::harness::{self, AppKind, Protocol, RunParams};
use neobft::core::{Client, Replica};
use neobft::sim::obs::ObsConfig;
use neobft::sim::{Context, CpuConfig, NetStats, Node, SimConfig, Simulator, TimerId, MICROS};
use neobft::wire::{Addr, ClientId, GroupId, Payload, ReplicaId};
use std::any::Any;
use std::time::{Duration, Instant};

/// Simulated nanoseconds per requested second of measurement, sized on the
/// 2-core machine this benchmark was defined on so that the measured part
/// of the run takes roughly `--seconds` of wall time there. It is a
/// constant: a given `--seconds` is a fixed amount of simulated work on
/// any machine, which is what makes the counts repeat.
pub const VIRTUAL_NS_PER_SECOND: u64 = 4_000_000;
/// Simulated warm-up, discarded: long enough for every client to have
/// committed at this group size.
pub const WARMUP_VIRTUAL_NS: u64 = 3_000_000;
/// Simulated time each determinism probe runs to.
const PROBE_VIRTUAL_NS: u64 = 2_500_000;
/// Set-ups per run (each builds the 100-replica deployment): the first two
/// double as the determinism probes.
pub const SETUPS: usize = 5;
pub const ECHO_BYTES: usize = 64;
/// Spans kept per node in a traced run (there are 150 nodes).
const SIM_SPAN_CAP: usize = 300;

pub fn params(seed: u64, f: usize, clients: usize, drop_rate: f64, seconds: u64) -> RunParams {
    let mut p = RunParams::new(Protocol::NeoHmSoftware, clients);
    p.f = f;
    p.app = AppKind::Echo { size: ECHO_BYTES };
    p.net = p.net.with_drop_rate(drop_rate);
    p.seed = seed;
    // Metrics on, event trace off: the harness default keeps a 32 Ki-record
    // trace ring per node for its own span assembler.
    p.obs = ObsConfig::default();
    p.warmup = WARMUP_VIRTUAL_NS;
    p.measure = seconds.max(1) * VIRTUAL_NS_PER_SECOND;
    p
}

fn completed(sim: &Simulator, clients: usize) -> u64 {
    (0..clients as u64)
        .filter_map(|c| sim.metrics(Addr::Client(ClientId(c))))
        .map(|m| m.counter("client.ops_completed"))
        .sum()
}

/// Re-register every node behind a tracing wrapper. The simulator queues a
/// second bootstrap timer for each re-added node; replicas, clients and the
/// sequencer all treat a repeated bootstrap as a no-op.
fn wrap_nodes(sim: &mut Simulator, p: &RunParams) -> NodeSinks {
    let sequencer_cpu = CpuConfig {
        dispatch_ns: 0,
        send_ns: 5,
        ns_per_kb: 0,
        cores: 1,
    };
    let mut roster: Vec<(Addr, CpuConfig)> = vec![
        (Addr::Config, CpuConfig::IDEAL),
        (Addr::Sequencer(GroupId(0)), sequencer_cpu),
    ];
    roster.extend((0..p.n_replicas() as u32).map(|r| (Addr::Replica(ReplicaId(r)), p.server_cpu)));
    roster.extend((0..p.n_clients as u64).map(|c| (Addr::Client(ClientId(c)), p.client_cpu)));
    let mut sinks = Vec::new();
    for (addr, cpu) in roster {
        if let Some(node) = sim.remove_node(addr) {
            let (wrapped, sink) = Traced::wrap_with_cap(node, addr, SIM_SPAN_CAP);
            sim.add_node_with_cpu(addr, wrapped, cpu);
            sinks.push((addr, sink));
        }
    }
    sinks
}

/// Build the deployment and run it to its first committed operation.
fn set_up(p: &RunParams, traced: bool) -> Result<(Simulator, NodeSinks, f64), String> {
    let t0 = Instant::now();
    let mut sim = harness::build(p);
    let sinks = if traced { wrap_nodes(&mut sim, p) } else { Vec::new() };
    let mut until = 0;
    while completed(&sim, p.n_clients) == 0 {
        until += 50 * MICROS;
        if until > p.warmup {
            return Err(format!("no operation committed in {} simulated ns", p.warmup));
        }
        sim.run_until(until);
    }
    Ok((sim, sinks, t0.elapsed().as_secs_f64()))
}

/// What a determinism probe compares.
#[derive(Debug, PartialEq, Eq)]
struct Probe {
    events: u64,
    committed: u64,
    latency_p50_ns: u64,
}

fn probe(mut sim: Simulator, p: &RunParams) -> Probe {
    let events = sim.run_until(PROBE_VIRTUAL_NS);
    let mut probe_window = p.clone();
    probe_window.warmup = 0;
    probe_window.measure = PROBE_VIRTUAL_NS;
    let r = harness::collect(&sim, &probe_window);
    Probe {
        events,
        committed: r.committed,
        latency_p50_ns: r.p50_latency_ns,
    }
}

/// Everything a finished simulator run leaves behind.
pub struct SimRun {
    pub params: RunParams,
    pub setups_s: Vec<f64>,
    pub events: u64,
    /// Slice boundaries of the measured window, in virtual time.
    pub edges: Vec<measure::Edge>,
    pub sim: Simulator,
    pub sinks: NodeSinks,
    /// Completions inside the simulated window, in virtual time.
    pub completions: Completions,
    pub net: NetStats,
}

impl SimRun {
    pub fn ops(&self) -> u64 {
        self.completions.samples.len() as u64
    }

    /// Wall time the measured window took.
    pub fn wall(&self) -> Duration {
        self.edges[self.edges.len() - 1].wall - self.edges[0].wall
    }

    pub fn replicas(&self) -> impl Iterator<Item = &Replica> {
        (0..self.params.n_replicas() as u32).filter_map(|r| self.sim.node_ref::<Replica>(Addr::Replica(ReplicaId(r))))
    }

    pub fn clients(&self) -> impl Iterator<Item = &Client> {
        (0..self.params.n_clients as u64).filter_map(|c| self.sim.node_ref::<Client>(Addr::Client(ClientId(c))))
    }
}

pub fn run(p: &RunParams, traced: bool, report: &mut RunReport) -> Result<SimRun, String> {
    let mut setups_s = Vec::new();
    let mut probes = Vec::new();
    let mut kept = None;
    for attempt in 0..SETUPS {
        let (sim, sinks, took) = set_up(p, traced && attempt + 1 == SETUPS)?;
        setups_s.push(took);
        if attempt < 2 {
            probes.push(probe(sim, p));
        } else if attempt + 1 == SETUPS {
            kept = Some((sim, sinks));
        }
    }
    report.check(
        "simulator_repeats_exactly",
        probes.windows(2).all(|w| w[0] == w[1]) && probes[0].committed > 0,
        format!("two runs of one seed to {PROBE_VIRTUAL_NS} simulated ns: {:?}", probes),
    );
    let (mut sim, sinks) = kept.expect("the last set-up is kept");

    sim.run_until(p.warmup);
    trace::set_measuring(traced);
    let mut edges = vec![measure::Edge::now(p.warmup)];
    let mut events = 0;
    for slice in 1..=measure::SLICES as u64 {
        let until = p.warmup + p.measure * slice / measure::SLICES as u64;
        events += sim.run_until(until);
        edges.push(measure::Edge::now(until));
    }
    trace::set_measuring(false);

    let net = sim.stats();
    let mut run = SimRun {
        params: p.clone(),
        setups_s,
        events,
        edges,
        sim,
        sinks,
        completions: Completions::default(),
        net,
    };
    // The harness salts client c's echo workload with c + 1.
    let streams = (1..).map(|salt| Box::new(EchoWorkload::new(ECHO_BYTES, salt)) as Box<dyn Workload>);
    let window = (p.warmup, p.warmup + p.measure);
    run.completions = outputs::check_clients(run.clients().zip(streams), window, report);
    outputs::check_replicas(run.replicas(), p.n_replicas(), report);
    Ok(run)
}

/// The end-to-end metrics of a finished simulator run.
pub fn end_to_end(run: &SimRun, report: &mut RunReport) {
    let done = &run.completions;
    measure::end_to_end(report, done, &run.edges, &run.setups_s);
    report.notes.push(format!(
        "{} events in {} simulated ns; latencies are virtual time, rates are per wall second; \
         {} operations rode a retransmitted request; {} packets dropped",
        run.events,
        run.params.measure,
        done.total_retries,
        run.net.dropped(),
    ));
}

/// A node that does nothing but keep the event queue busy: it answers
/// every message with one message to the next node of a ring.
struct Relay {
    next: Addr,
}

impl Node for Relay {
    fn on_message(&mut self, _from: Addr, payload: &[u8], ctx: &mut dyn Context) {
        ctx.send(self.next, Payload::copy_from_slice(payload));
    }
    fn on_timer(&mut self, _timer: TimerId, _kind: u32, ctx: &mut dyn Context) {
        ctx.send(self.next, Payload::copy_from_slice(&[0u8; ECHO_BYTES]));
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Wall nanoseconds per event of the simulator's own machinery: `events`
/// events through a ring of as many do-nothing nodes as the workload has,
/// under the same latency and CPU models.
pub fn dispatch_ns_per_event(p: &RunParams, events: u64) -> f64 {
    let nodes = p.n_replicas() + p.n_clients + 2;
    let mut sim = Simulator::new(SimConfig {
        // No loss here: a lost message would thin the ring out.
        net: p.net.with_drop_rate(0.0),
        default_cpu: p.server_cpu,
        seed: p.seed,
        faults: p.faults.clone(),
    });
    sim.set_obs(p.obs);
    for i in 0..nodes {
        let next = Addr::Replica(ReplicaId(((i + 1) % nodes) as u32));
        sim.add_node(Addr::Replica(ReplicaId(i as u32)), Box::new(Relay { next }));
    }
    let t0 = Instant::now();
    let mut done = 0;
    while done < events && sim.step() {
        done += 1;
    }
    t0.elapsed().as_nanos() as f64 / done.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relay_ring_sustains_the_requested_event_count() {
        let p = params(1, 1, 2, 0.001, 1);
        let ns = dispatch_ns_per_event(&p, 5_000);
        assert!(ns > 0.0 && ns.is_finite());
    }

    #[test]
    fn params_scale_the_simulated_window_with_seconds() {
        let p = params(9, 33, 48, 0.001, 10);
        assert_eq!(p.n_replicas(), 100);
        assert_eq!(p.measure, 10 * VIRTUAL_NS_PER_SECOND);
        assert_eq!((p.seed, p.net.drop_rate), (9, 0.001));
        assert_eq!(p.obs.trace_capacity, 0);
    }
}
