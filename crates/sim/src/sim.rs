//! The discrete-event simulation engine.

use crate::cpu::{CpuConfig, CpuState};
use crate::fault::FaultPlan;
use crate::net::NetConfig;
use crate::node::{Context, Node, TimerId};
use crate::obs::{ExecSignals, Metrics, MetricsSnapshot, NodeReport, ObsConfig, TraceRead};
use crate::stats::NetStats;
use crate::time::{Duration, Time};
use neo_wire::{Addr, Payload};
use rand::{Rng, RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::sync::Arc;

/// Timer kind every node receives once at t = 0 (bootstrap convention:
/// nodes use it to arm their own timers or send their first messages).
pub const INIT_TIMER_KIND: u32 = 0;

/// Top-level simulation parameters.
#[derive(Clone, Debug, Default)]
pub struct SimConfig {
    /// Fabric model.
    pub net: NetConfig,
    /// CPU model applied to nodes added without an explicit override.
    pub default_cpu: CpuConfig,
    /// RNG seed: same seed → identical run.
    pub seed: u64,
    /// Targeted fault rules.
    pub faults: FaultPlan,
}

#[derive(Debug)]
enum Event {
    Deliver {
        to: Addr,
        from: Addr,
        payload: Payload,
    },
    Timer {
        node: Addr,
        id: TimerId,
        kind: u32,
    },
}

/// The simulator: owns the nodes, the clock, and the event queue.
pub struct Simulator {
    cfg: SimConfig,
    obs: ObsConfig,
    nodes: HashMap<Addr, Slot>,
    queue: BinaryHeap<Reverse<(Time, u64)>>,
    events: HashMap<u64, Event>,
    next_seq: u64,
    next_timer: u64,
    cancelled: HashSet<TimerId>,
    rng: ChaCha8Rng,
    stats: NetStats,
    now: Time,
}

struct Slot {
    node: Box<dyn Node>,
    cpu: CpuState,
    metrics: Arc<Metrics>,
}

struct SimCtx {
    now: Time,
    me: Addr,
    sends: Vec<(Addr, Payload, Duration)>,
    timers: Vec<(Duration, u32, TimerId)>,
    cancels: Vec<TimerId>,
    charge: u64,
    next_timer: u64,
    metrics: Arc<Metrics>,
}

impl Context for SimCtx {
    fn now(&self) -> Time {
        self.now
    }
    fn me(&self) -> Addr {
        self.me
    }
    fn send_after(&mut self, to: Addr, payload: Payload, extra_delay: Duration) {
        self.sends.push((to, payload, extra_delay));
    }
    fn set_timer(&mut self, delay: Duration, kind: u32) -> TimerId {
        let id = TimerId(self.next_timer);
        self.next_timer += 1;
        self.timers.push((delay, kind, id));
        id
    }
    fn cancel_timer(&mut self, timer: TimerId) {
        self.cancels.push(timer);
    }
    fn charge(&mut self, ns: u64) {
        self.charge += ns;
    }
    fn metrics(&self) -> &Metrics {
        &self.metrics
    }
}

impl Simulator {
    /// Build an empty simulation.
    pub fn new(cfg: SimConfig) -> Self {
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        Simulator {
            cfg,
            obs: ObsConfig::default(),
            nodes: HashMap::new(),
            queue: BinaryHeap::new(),
            events: HashMap::new(),
            next_seq: 0,
            next_timer: 1, // 0 is reserved for the bootstrap timer
            cancelled: HashSet::new(),
            rng,
            stats: NetStats::default(),
            now: 0,
        }
    }

    /// Register a node under `addr` with the default CPU model and
    /// schedule its bootstrap timer at t = 0.
    pub fn add_node(&mut self, addr: Addr, node: Box<dyn Node>) {
        self.add_node_with_cpu(addr, node, self.cfg.default_cpu);
    }

    /// Observability configuration applied to nodes added *after* this
    /// call (each node's registry is created at registration time).
    /// Defaults to metrics on, trace off.
    pub fn set_obs(&mut self, obs: ObsConfig) {
        self.obs = obs;
    }

    /// Register a node with an explicit CPU model.
    pub fn add_node_with_cpu(&mut self, addr: Addr, node: Box<dyn Node>, cpu: CpuConfig) {
        self.nodes.insert(
            addr,
            Slot {
                node,
                cpu: CpuState::new(cpu),
                metrics: Arc::new(Metrics::new(self.obs)),
            },
        );
        self.push_event(
            self.now,
            Event::Timer {
                node: addr,
                id: TimerId(0),
                kind: INIT_TIMER_KIND,
            },
        );
    }

    /// Remove a node (e.g. permanently crash it). Queued events to it are
    /// dropped on delivery.
    pub fn remove_node(&mut self, addr: Addr) -> Option<Box<dyn Node>> {
        self.nodes.remove(&addr).map(|s| s.node)
    }

    /// Inject a message from outside the simulation (the harness plays an
    /// unmodelled actor, e.g. an operator console). The message traverses
    /// the network like any other: it experiences latency and loss.
    pub fn post(&mut self, from: Addr, to: Addr, payload: impl Into<Payload>, at: Time) {
        self.transmit(from, to, payload.into(), at.max(self.now));
    }

    /// Current virtual time.
    pub fn now(&self) -> Time {
        self.now
    }

    /// Network counters.
    pub fn stats(&self) -> NetStats {
        self.stats
    }

    /// The live fault plan (mutable so experiments can add rules mid-run).
    pub fn faults_mut(&mut self) -> &mut FaultPlan {
        &mut self.cfg.faults
    }

    /// Immutable view of a node's concrete state.
    pub fn node_ref<T: 'static>(&self, addr: Addr) -> Option<&T> {
        self.nodes
            .get(&addr)
            .and_then(|s| s.node.as_any().downcast_ref::<T>())
    }

    /// Mutable view of a node's concrete state.
    pub fn node_mut<T: 'static>(&mut self, addr: Addr) -> Option<&mut T> {
        self.nodes
            .get_mut(&addr)
            .and_then(|s| s.node.as_any_mut().downcast_mut::<T>())
    }

    /// A node's live metrics registry (counters keep moving as the
    /// simulation runs).
    pub fn metrics(&self, addr: Addr) -> Option<&Metrics> {
        self.nodes.get(&addr).map(|s| &*s.metrics)
    }

    /// Snapshot one node's metrics.
    pub fn metrics_snapshot(&self, addr: Addr) -> Option<MetricsSnapshot> {
        self.nodes.get(&addr).map(|s| s.metrics.snapshot())
    }

    /// Merge every node's metrics into one cluster-wide snapshot.
    pub fn aggregate_metrics(&self) -> MetricsSnapshot {
        let mut agg = MetricsSnapshot::default();
        for slot in self.nodes.values() {
            agg.merge(&slot.metrics.snapshot());
        }
        agg
    }

    /// Every node's [`NodeReport`] at the current virtual time, sorted by
    /// address so streams and artifacts are deterministic. Verification is
    /// inline under the simulator, so the executor signals are the default.
    /// Slice-driven harnesses call this at slice boundaries and hand the
    /// reports to their sinks: the JSONL stream (with [`TraceRead::Drain`],
    /// so successive lines concatenate into one event log), a
    /// [`TelemetryHub`](crate::telemetry::TelemetryHub), a flight dump.
    pub fn reports(&self, trace: TraceRead) -> Vec<NodeReport> {
        let mut reports: Vec<NodeReport> = self
            .nodes
            .iter()
            .map(|(addr, slot)| {
                let (health, exec) = (slot.node.health(), ExecSignals::default());
                NodeReport::build(self.now, *addr, &slot.metrics, health, exec, trace)
            })
            .collect();
        reports.sort_by_key(|r| r.node);
        reports
    }

    /// Serial CPU busy time of a node so far (utilization reporting).
    pub fn cpu_busy(&self, addr: Addr) -> Option<(u64, u64)> {
        self.nodes
            .get(&addr)
            .map(|s| (s.cpu.busy_serial(), s.cpu.busy_parallel()))
    }

    /// Process events until the queue is empty or `deadline` is passed.
    /// Returns the number of events processed.
    pub fn run_until(&mut self, deadline: Time) -> u64 {
        let mut n = 0;
        while let Some(&Reverse((t, _))) = self.queue.peek() {
            if t > deadline {
                break;
            }
            self.step();
            n += 1;
        }
        self.now = self.now.max(deadline);
        n
    }

    /// Process a single event. Returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        let Some(Reverse((t, seq))) = self.queue.pop() else {
            return false;
        };
        self.now = self.now.max(t);
        let event = self.events.remove(&seq).expect("event body");
        match event {
            Event::Deliver { to, from, payload } => self.handle_deliver(t, to, from, payload),
            Event::Timer { node, id, kind } => self.handle_timer(t, node, id, kind),
        }
        true
    }

    fn handle_deliver(&mut self, t: Time, to: Addr, from: Addr, payload: Payload) {
        let Some(slot) = self.nodes.get_mut(&to) else {
            self.stats.dropped_unroutable += 1;
            return;
        };
        self.stats.delivered += 1;
        self.stats.bytes_delivered += payload.len() as u64;
        // Flight recorder: digest the payload as delivered (i.e. after
        // any in-flight tampering), so a dump shows what the node saw.
        slot.metrics.record_packet(t, from, to, &payload);
        let recv_bytes = payload.len() as u64;
        let start = slot_start(slot, t);
        let mut ctx = SimCtx {
            now: start,
            me: to,
            sends: Vec::new(),
            timers: Vec::new(),
            cancels: Vec::new(),
            charge: 0,
            next_timer: self.next_timer,
            metrics: slot.metrics.clone(),
        };
        slot.node.on_message(from, &payload, &mut ctx);
        self.finish_handler(to, t, false, recv_bytes, ctx);
    }

    fn handle_timer(&mut self, t: Time, node: Addr, id: TimerId, kind: u32) {
        if self.cancelled.remove(&id) {
            return;
        }
        let Some(slot) = self.nodes.get_mut(&node) else {
            return;
        };
        let start = slot_start(slot, t);
        let mut ctx = SimCtx {
            now: start,
            me: node,
            sends: Vec::new(),
            timers: Vec::new(),
            cancels: Vec::new(),
            charge: 0,
            next_timer: self.next_timer,
            metrics: slot.metrics.clone(),
        };
        slot.node.on_timer(id, kind, &mut ctx);
        self.finish_handler(node, t, true, 0, ctx);
    }

    fn finish_handler(
        &mut self,
        addr: Addr,
        arrival: Time,
        is_timer: bool,
        recv_bytes: u64,
        ctx: SimCtx,
    ) {
        self.next_timer = ctx.next_timer;
        let slot = self.nodes.get_mut(&addr).expect("node present");
        let (serial_m, parallel_tasks) = slot
            .node
            .meter()
            .map(|m| m.drain())
            .unwrap_or((0, Vec::new()));
        let send_bytes: u64 = ctx.sends.iter().map(|(_, p, _)| p.len() as u64).sum();
        // Durability: flush the node's write-ahead buffer before its sends
        // depart. The modeled fsync is charged to the serial core, so the
        // replies this handler produced are timestamped *after* the flush —
        // the write-ahead-of-acknowledgment ordering the tokio runtime
        // enforces with a real fsync.
        let mut fsync_ns = 0u64;
        if let Some(store) = slot.node.store() {
            if store.dirty() {
                let bytes = store.flush();
                fsync_ns = store.fsync_model_ns();
                if slot.metrics.enabled() {
                    slot.metrics.observe("store.fsync_ns", fsync_ns);
                    slot.metrics.add("store.flushed_bytes", bytes);
                    slot.metrics.incr("store.flushes");
                }
            }
        }
        let (start, ready) = slot.cpu.admit(
            arrival,
            serial_m + ctx.charge + fsync_ns,
            &parallel_tasks,
            ctx.sends.len(),
            recv_bytes + send_bytes,
            is_timer,
        );
        for id in ctx.cancels {
            self.cancelled.insert(id);
        }
        for (delay, kind, id) in ctx.timers {
            self.push_event(
                start + delay,
                Event::Timer {
                    node: addr,
                    id,
                    kind,
                },
            );
        }
        for (to, payload, extra) in ctx.sends {
            self.transmit(addr, to, payload, ready + extra);
        }
    }

    fn transmit(&mut self, from: Addr, to: Addr, payload: Payload, departure: Time) {
        self.stats.sent += 1;
        // Multicast group addresses route to the group's sequencer — the
        // sender never learns receiver identities (§3.2).
        let resolved = match to {
            Addr::Multicast(g) => Addr::Sequencer(g),
            other => other,
        };
        let fate = self.cfg.faults.fate(from, resolved, departure);
        if fate.drop {
            self.stats.dropped_fault += 1;
            return;
        }
        if self.cfg.net.drop_rate > 0.0 && self.rng.gen_bool(self.cfg.net.drop_rate) {
            self.stats.dropped_random += 1;
            return;
        }
        let payload = if fate.tamper {
            self.stats.tampered += 1;
            self.tamper(payload)
        } else {
            payload
        };
        if fate.copies > 1 {
            // Extra copies count as sent too, so conservation
            // (delivered + dropped == sent) keeps holding.
            let extra = u64::from(fate.copies) - 1;
            self.stats.sent += extra;
            self.stats.duplicated += extra;
        }
        if fate.extra_delay_ns > 0 {
            self.stats.delay_spiked += 1;
        }
        for _ in 0..fate.copies {
            let jitter = if self.cfg.net.jitter_ns > 0 {
                self.rng.next_u64() % self.cfg.net.jitter_ns
            } else {
                0
            };
            let arrival = departure
                .saturating_add(fate.extra_delay_ns)
                .saturating_add(self.cfg.net.delay(payload.len(), jitter));
            self.push_event(
                arrival,
                Event::Deliver {
                    to: resolved,
                    from,
                    payload: payload.clone(),
                },
            );
        }
    }

    /// Flip one deterministic-random byte of the payload (in-flight
    /// corruption). Empty payloads pass through untouched.
    fn tamper(&mut self, payload: Payload) -> Payload {
        if payload.is_empty() {
            return payload;
        }
        let mut bytes = payload.to_vec();
        let idx = (self.rng.next_u64() as usize) % bytes.len();
        let bit = 1u8 << (self.rng.next_u64() % 8);
        bytes[idx] ^= bit;
        Payload::from(bytes)
    }

    fn push_event(&mut self, t: Time, e: Event) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push(Reverse((t, seq)));
        self.events.insert(seq, e);
    }
}

fn slot_start(slot: &Slot, arrival: Time) -> Time {
    // Mirrors CpuState::admit's start computation so the handler observes
    // the same `now` that admit will charge from.
    slot.cpu.next_start(arrival)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_wire::ReplicaId;
    use std::any::Any;

    /// Echoes every message back to its sender after doubling the byte.
    struct Echo {
        got: Vec<(Addr, Vec<u8>)>,
    }
    impl Node for Echo {
        fn on_message(&mut self, from: Addr, payload: &[u8], ctx: &mut dyn Context) {
            self.got.push((from, payload.to_vec()));
            ctx.send(
                from,
                payload
                    .iter()
                    .map(|b| b.wrapping_mul(2))
                    .collect::<Vec<u8>>()
                    .into(),
            );
        }
        fn on_timer(&mut self, _: TimerId, _: u32, _: &mut dyn Context) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Sends a message to the echo node at bootstrap and records replies.
    struct Pinger {
        peer: Addr,
        replies: Vec<(Time, Vec<u8>)>,
    }
    impl Node for Pinger {
        fn on_message(&mut self, _: Addr, payload: &[u8], ctx: &mut dyn Context) {
            self.replies.push((ctx.now(), payload.to_vec()));
        }
        fn on_timer(&mut self, _: TimerId, kind: u32, ctx: &mut dyn Context) {
            if kind == INIT_TIMER_KIND {
                ctx.send(self.peer, vec![21].into());
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    const A: Addr = Addr::Replica(ReplicaId(0));
    const B: Addr = Addr::Replica(ReplicaId(1));

    fn ideal_sim(seed: u64) -> Simulator {
        Simulator::new(SimConfig {
            net: NetConfig {
                one_way_latency_ns: 1_000,
                jitter_ns: 0,
                ns_per_128_bytes: 0,
                drop_rate: 0.0,
            },
            default_cpu: CpuConfig::IDEAL,
            seed,
            faults: FaultPlan::none(),
        })
    }

    #[test]
    fn ping_pong_round_trip() {
        let mut sim = ideal_sim(1);
        sim.add_node(
            A,
            Box::new(Pinger {
                peer: B,
                replies: vec![],
            }),
        );
        sim.add_node(B, Box::new(Echo { got: vec![] }));
        sim.run_until(10_000);
        let pinger = sim.node_ref::<Pinger>(A).unwrap();
        assert_eq!(pinger.replies.len(), 1);
        let (t, bytes) = &pinger.replies[0];
        assert_eq!(bytes, &vec![42]);
        assert_eq!(*t, 2_000, "two one-way hops at 1µs each");
    }

    #[test]
    fn runs_are_deterministic() {
        let run = |seed| {
            let mut sim = Simulator::new(SimConfig {
                net: NetConfig {
                    one_way_latency_ns: 1_000,
                    jitter_ns: 500,
                    ns_per_128_bytes: 0,
                    drop_rate: 0.2,
                },
                default_cpu: CpuConfig::IDEAL,
                seed,
                faults: FaultPlan::none(),
            });
            sim.add_node(B, Box::new(Echo { got: vec![] }));
            for i in 0..100u8 {
                sim.post(A, B, vec![i], i as u64 * 10);
            }
            sim.run_until(100_000);
            let echo = sim.node_ref::<Echo>(B).unwrap();
            (echo.got.clone(), sim.stats())
        };
        assert_eq!(run(7), run(7), "same seed, same trace");
        let (a, _) = run(7);
        let (b, _) = run(8);
        assert_ne!(a, b, "different seeds see different losses");
    }

    #[test]
    fn drop_rate_loses_packets() {
        let mut sim = Simulator::new(SimConfig {
            net: NetConfig {
                one_way_latency_ns: 0,
                jitter_ns: 0,
                ns_per_128_bytes: 0,
                drop_rate: 0.5,
            },
            default_cpu: CpuConfig::IDEAL,
            seed: 3,
            faults: FaultPlan::none(),
        });
        sim.add_node(B, Box::new(Echo { got: vec![] }));
        for i in 0..1000u64 {
            sim.post(A, B, vec![0], i);
        }
        sim.run_until(1_000_000);
        let got = sim.node_ref::<Echo>(B).unwrap().got.len();
        assert!(got > 350 && got < 650, "~half delivered, got {got}");
        let s = sim.stats();
        assert_eq!(
            s.sent,
            1000 + got as u64,
            "posts plus one echo per delivery"
        );
        // Replies go to the unregistered address A: they are either
        // randomly dropped or counted unroutable. Conservation holds.
        assert_eq!(s.dropped() + s.delivered, s.sent, "conservation");
    }

    #[test]
    fn fault_plan_silences_a_node() {
        let mut sim = ideal_sim(1);
        *sim.faults_mut() = FaultPlan::none().crash(B, 0);
        sim.add_node(
            A,
            Box::new(Pinger {
                peer: B,
                replies: vec![],
            }),
        );
        sim.add_node(B, Box::new(Echo { got: vec![] }));
        sim.run_until(10_000);
        assert!(sim.node_ref::<Pinger>(A).unwrap().replies.is_empty());
        assert_eq!(sim.stats().dropped_fault, 1);
    }

    #[test]
    fn duplicate_fault_delivers_extra_copies() {
        let mut sim = ideal_sim(1);
        *sim.faults_mut() = FaultPlan::none().duplicate(A, 3, 0, u64::MAX);
        sim.add_node(B, Box::new(Echo { got: vec![] }));
        sim.post(A, B, vec![7], 0);
        sim.run_until(10_000);
        assert_eq!(sim.node_ref::<Echo>(B).unwrap().got.len(), 3);
        let s = sim.stats();
        assert_eq!(s.duplicated, 2);
        assert_eq!(s.dropped() + s.delivered, s.sent, "conservation");
    }

    #[test]
    fn delay_spike_reorders_past_later_packets() {
        const C: Addr = Addr::Replica(ReplicaId(2));
        let mut sim = ideal_sim(1);
        // A's packet is held 5µs; C's packet sent 2µs later overtakes it.
        *sim.faults_mut() = FaultPlan::none().delay_spike(A, 5_000, 0, u64::MAX);
        sim.add_node(B, Box::new(Echo { got: vec![] }));
        sim.post(A, B, vec![1], 0);
        sim.post(C, B, vec![2], 2_000);
        sim.run_until(10_000);
        let got: Vec<Addr> = sim
            .node_ref::<Echo>(B)
            .unwrap()
            .got
            .iter()
            .map(|(from, _)| *from)
            .collect();
        assert_eq!(got, vec![C, A], "spiked packet arrives last");
        assert_eq!(sim.stats().delay_spiked, 1);
    }

    #[test]
    fn tamper_flips_exactly_one_bit() {
        let mut sim = ideal_sim(1);
        *sim.faults_mut() = FaultPlan::none().tamper(A, 0, u64::MAX);
        sim.add_node(B, Box::new(Echo { got: vec![] }));
        sim.post(A, B, vec![0xAA, 0xBB], 0);
        sim.run_until(10_000);
        let echo = sim.node_ref::<Echo>(B).unwrap();
        assert_eq!(echo.got.len(), 1);
        let (_, bytes) = &echo.got[0];
        assert_eq!(bytes.len(), 2, "length preserved");
        let diff = (bytes[0] ^ 0xAA).count_ones() + (bytes[1] ^ 0xBB).count_ones();
        assert_eq!(diff, 1, "exactly one bit flipped");
        assert_eq!(sim.stats().tampered, 1);
    }

    #[test]
    fn partition_heals_and_traffic_resumes() {
        let mut sim = ideal_sim(1);
        *sim.faults_mut() = FaultPlan::none().partition(vec![A], 0, 5_000);
        sim.add_node(B, Box::new(Echo { got: vec![] }));
        sim.post(A, B, vec![1], 100);
        sim.post(A, B, vec![2], 6_000);
        sim.run_until(20_000);
        assert_eq!(sim.node_ref::<Echo>(B).unwrap().got.len(), 1);
        assert_eq!(sim.stats().dropped_fault, 1);
    }

    #[test]
    fn unroutable_messages_are_counted() {
        let mut sim = ideal_sim(1);
        sim.post(A, B, vec![1], 0);
        sim.run_until(1_000);
        assert_eq!(sim.stats().dropped_unroutable, 1);
    }

    #[test]
    fn cpu_queueing_delays_replies() {
        let mut sim = Simulator::new(SimConfig {
            net: NetConfig::IDEAL,
            default_cpu: CpuConfig {
                dispatch_ns: 1_000,
                send_ns: 0,
                ns_per_kb: 0,
                cores: 1,
            },
            seed: 1,
            faults: FaultPlan::none(),
        });
        sim.add_node(B, Box::new(Echo { got: vec![] }));
        // Two messages arriving at once: the second is processed 1µs later.
        sim.post(A, B, vec![1], 0);
        sim.post(A, B, vec![2], 0);
        sim.run_until(10_000);
        let (busy, _) = sim.cpu_busy(B).unwrap();
        assert_eq!(busy, 2_000);
    }

    #[test]
    fn timers_fire_in_order_and_cancel() {
        struct T {
            fired: Vec<u32>,
            cancel_me: Option<TimerId>,
        }
        impl Node for T {
            fn on_message(&mut self, _: Addr, _: &[u8], _: &mut dyn Context) {}
            fn on_timer(&mut self, _: TimerId, kind: u32, ctx: &mut dyn Context) {
                if kind == INIT_TIMER_KIND {
                    ctx.set_timer(100, 1);
                    let c = ctx.set_timer(200, 2);
                    ctx.set_timer(300, 3);
                    self.cancel_me = Some(c);
                } else {
                    self.fired.push(kind);
                    if kind == 1 {
                        ctx.cancel_timer(self.cancel_me.unwrap());
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
        let mut sim = ideal_sim(1);
        sim.add_node(
            A,
            Box::new(T {
                fired: vec![],
                cancel_me: None,
            }),
        );
        sim.run_until(1_000);
        assert_eq!(sim.node_ref::<T>(A).unwrap().fired, vec![1, 3]);
    }

    #[test]
    fn multicast_routes_to_sequencer() {
        use neo_wire::GroupId;
        let mut sim = ideal_sim(1);
        let seq_addr = Addr::Sequencer(GroupId(9));
        sim.add_node(seq_addr, Box::new(Echo { got: vec![] }));
        sim.post(A, Addr::Multicast(GroupId(9)), vec![5], 0);
        sim.run_until(10_000);
        assert_eq!(sim.node_ref::<Echo>(seq_addr).unwrap().got.len(), 1);
    }

    #[test]
    fn per_node_metrics_are_recorded_and_aggregated() {
        use crate::obs::EventKind;

        /// Counts deliveries into its registry and emits a Commit event.
        struct Metered;
        impl Node for Metered {
            fn on_message(&mut self, _: Addr, payload: &[u8], ctx: &mut dyn Context) {
                ctx.metrics().incr("test.delivered");
                ctx.metrics().observe("test.len", payload.len() as u64);
                ctx.emit(crate::obs::Event::Commit {
                    slot: 1,
                    client: 0,
                    request: 1,
                });
            }
            fn on_timer(&mut self, _: TimerId, _: u32, _: &mut dyn Context) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }

        let mut sim = ideal_sim(1);
        sim.add_node(A, Box::new(Metered));
        sim.add_node(B, Box::new(Metered));
        sim.post(Addr::Config, A, vec![1, 2], 0);
        sim.post(Addr::Config, A, vec![3], 0);
        sim.post(Addr::Config, B, vec![4], 0);
        sim.run_until(10_000);

        let a = sim.metrics_snapshot(A).unwrap();
        assert_eq!(a.counters["test.delivered"], 2);
        assert_eq!(a.event(EventKind::Commit), 2);
        assert_eq!(a.histograms["test.len"].count, 2);
        let agg = sim.aggregate_metrics();
        assert_eq!(agg.counters["test.delivered"], 3);
        assert_eq!(agg.event(EventKind::Commit), 3);
        assert_eq!(agg.histograms["test.len"].count, 3);
    }

    #[test]
    fn disabled_obs_records_nothing() {
        struct M;
        impl Node for M {
            fn on_message(&mut self, _: Addr, _: &[u8], ctx: &mut dyn Context) {
                ctx.metrics().incr("test.delivered");
            }
            fn on_timer(&mut self, _: TimerId, _: u32, _: &mut dyn Context) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = ideal_sim(1);
        sim.set_obs(ObsConfig::disabled());
        sim.add_node(A, Box::new(M));
        sim.post(B, A, vec![1], 0);
        sim.run_until(10_000);
        assert_eq!(sim.metrics_snapshot(A).unwrap(), MetricsSnapshot::default());
    }

    #[test]
    fn reports_carry_packets_and_are_sorted_by_address() {
        let mut sim = ideal_sim(1);
        sim.set_obs(ObsConfig::flight_recorder());
        sim.add_node(
            A,
            Box::new(Pinger {
                peer: B,
                replies: vec![],
            }),
        );
        sim.add_node(B, Box::new(Echo { got: vec![] }));
        sim.run_until(10_000);
        let reports = sim.reports(TraceRead::Copy);
        assert_eq!(reports.len(), 2);
        assert!(reports.iter().all(|r| r.at == 10_000));
        assert!(
            reports.windows(2).all(|w| w[0].node < w[1].node),
            "nodes sorted by address"
        );
        // B received the ping, A received the echo; digests are recorded
        // at delivery.
        let b = reports.iter().find(|n| n.node == B).unwrap();
        assert_eq!(b.packets.len(), 1);
        assert_eq!(b.packets[0].from, A);
        assert_eq!(b.packets[0].len, 1);
        assert_eq!(b.packets[0].digest, crate::obs::fnv1a(&[21]));
        let a = reports.iter().find(|n| n.node == A).unwrap();
        assert_eq!(a.packets.len(), 1);
        assert_eq!(a.packets[0].digest, crate::obs::fnv1a(&[42]));
    }

    #[test]
    fn drained_reports_hand_each_event_out_once() {
        use crate::obs::{merged_events, Event};

        struct Emitter;
        impl Node for Emitter {
            fn on_message(&mut self, _: Addr, payload: &[u8], ctx: &mut dyn Context) {
                ctx.emit(Event::SpeculativeExecute {
                    slot: payload[0] as u64,
                });
            }
            fn on_timer(&mut self, _: TimerId, _: u32, _: &mut dyn Context) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut sim = ideal_sim(1);
        sim.set_obs(ObsConfig::default().with_trace(16));
        sim.add_node(A, Box::new(Emitter));
        sim.add_node(B, Box::new(Emitter));
        sim.post(Addr::Config, A, vec![1], 0);
        sim.post(Addr::Config, B, vec![2], 0);
        sim.post(Addr::Config, A, vec![3], 500);
        sim.run_until(10_000);
        assert_eq!(merged_events(&sim.reports(TraceRead::Copy)).len(), 3);
        let trace = merged_events(&sim.reports(TraceRead::Drain));
        assert_eq!(trace.len(), 3);
        assert!(
            trace.windows(2).all(|w| w[0].at <= w[1].at),
            "merged trace is time-sorted"
        );
        let after = sim.reports(TraceRead::Drain);
        assert!(merged_events(&after).is_empty(), "draining");
        assert_eq!(
            after[0]
                .snapshot
                .event(crate::obs::EventKind::SpeculativeExecute),
            2,
            "counts are not the ring"
        );
    }

    #[test]
    fn remove_node_stops_delivery() {
        let mut sim = ideal_sim(1);
        sim.add_node(B, Box::new(Echo { got: vec![] }));
        sim.remove_node(B);
        sim.post(A, B, vec![1], 0);
        sim.run_until(1_000);
        assert_eq!(sim.stats().dropped_unroutable, 1);
    }
}
