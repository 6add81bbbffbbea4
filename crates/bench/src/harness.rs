//! Protocol-generic experiment runner.
//!
//! Builds a full deployment (replicas, clients, and for NeoBFT the
//! config service + sequencer) in the deterministic simulator, runs it
//! with closed-loop clients for a warm-up plus a measurement window, and
//! reports throughput and latency over the window — the methodology of
//! §6.2 ("an increasing number of closed-loop clients").

use neo_aom::{AuthMode, ConfigService, SequencerHw, SequencerNode};
use neo_app::{App, EchoApp, EchoWorkload, KvApp, Workload, YcsbConfig, YcsbGenerator};
use neo_baselines::zyzzyva::ZyzzyvaBehavior;
use neo_baselines::{
    BaselineConfig, HotStuffClient, HotStuffReplica, MinBftClient, MinBftReplica, PbftClient,
    PbftReplica, UnreplicatedClient, UnreplicatedServer, ZyzzyvaClient, ZyzzyvaReplica,
};
use neo_core::{BatchPolicy, Client, CompletedOp, NeoConfig, Replica};
use neo_crypto::{CostModel, SystemKeys};
use neo_sim::obs::{MetricsSnapshot, ObsConfig};
use neo_sim::{CpuConfig, FaultPlan, NetConfig, SimConfig, Simulator, MILLIS};
use neo_switch::{FpgaModel, TofinoModel};
use neo_wire::{Addr, ClientId, GroupId, ReplicaId};

/// The aom group used by all NeoBFT experiments.
pub const GROUP: GroupId = GroupId(0);

/// Protocols under test.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Protocol {
    /// NeoBFT over aom-hm (Tofino switch model).
    NeoHm,
    /// NeoBFT over aom-pk (FPGA coprocessor model).
    NeoPk,
    /// NeoBFT over aom-hm tolerating a Byzantine network (confirms).
    NeoBn,
    /// NeoBFT over a software sequencer (the §6.3 EC2 deployment).
    NeoHmSoftware,
    /// NeoBFT aom-pk over a software sequencer.
    NeoPkSoftware,
    /// PBFT.
    Pbft,
    /// Zyzzyva, all replicas correct (fast path).
    Zyzzyva,
    /// Zyzzyva with one non-responsive Byzantine replica (slow path).
    ZyzzyvaF,
    /// Chained HotStuff.
    HotStuff,
    /// MinBFT (2f+1 replicas, USIG).
    MinBft,
    /// Unreplicated single server.
    Unreplicated,
}

impl Protocol {
    /// Display label matching the paper's figures.
    pub fn label(&self) -> &'static str {
        match self {
            Protocol::NeoHm => "Neo-HM",
            Protocol::NeoPk => "Neo-PK",
            Protocol::NeoBn => "Neo-BN",
            Protocol::NeoHmSoftware => "Neo-HM(sw)",
            Protocol::NeoPkSoftware => "Neo-PK(sw)",
            Protocol::Pbft => "PBFT",
            Protocol::Zyzzyva => "Zyzzyva",
            Protocol::ZyzzyvaF => "Zyzzyva-F",
            Protocol::HotStuff => "HotStuff",
            Protocol::MinBft => "MinBFT",
            Protocol::Unreplicated => "Unreplicated",
        }
    }

    /// Every protocol compared in Figure 7 / Figure 10.
    pub fn comparison_set() -> &'static [Protocol] {
        &[
            Protocol::Unreplicated,
            Protocol::NeoHm,
            Protocol::NeoPk,
            Protocol::NeoBn,
            Protocol::Zyzzyva,
            Protocol::ZyzzyvaF,
            Protocol::Pbft,
            Protocol::HotStuff,
            Protocol::MinBft,
        ]
    }
}

/// Which application/workload drives the run.
#[derive(Clone, Copy, Debug)]
pub enum AppKind {
    /// Echo RPC with fixed-size random payloads (§6.2).
    Echo {
        /// Payload size in bytes.
        size: usize,
    },
    /// YCSB over the B-Tree KV store (§6.5).
    Ycsb(YcsbConfig),
}

impl AppKind {
    fn build_app(&self) -> Box<dyn App> {
        match self {
            AppKind::Echo { .. } => Box::new(EchoApp::new()),
            AppKind::Ycsb(cfg) => Box::new(KvApp::loaded(cfg.record_count, cfg.field_len)),
        }
    }

    fn build_workload(&self, salt: u64) -> Box<dyn Workload> {
        match self {
            AppKind::Echo { size } => Box::new(EchoWorkload::new(*size, salt)),
            AppKind::Ycsb(cfg) => Box::new(YcsbGenerator::new(*cfg, salt)),
        }
    }
}

/// Default per-node event-trace ring size for harness runs: deep enough
/// that a measurement window's requests survive to span assembly (each
/// request emits a handful of events per node), shallow enough to keep a
/// sweep's memory bounded. Rings keep the most recent records, so on
/// overflow the report covers the tail of the run every ring still
/// holds ([`crate::trace::TraceReport::covered_from`]).
const DEFAULT_TRACE_CAPACITY: usize = 32_768;

/// Parameters of one experiment run.
#[derive(Clone, Debug)]
pub struct RunParams {
    /// Protocol under test.
    pub protocol: Protocol,
    /// Fault bound (replica count follows the protocol's rule).
    pub f: usize,
    /// Closed-loop clients.
    pub n_clients: usize,
    /// Application + workload.
    pub app: AppKind,
    /// Warm-up window excluded from measurement.
    pub warmup: u64,
    /// Measurement window.
    pub measure: u64,
    /// Network model.
    pub net: NetConfig,
    /// Crypto cost model.
    pub costs: CostModel,
    /// Replica CPU model.
    pub server_cpu: CpuConfig,
    /// Client CPU model.
    pub client_cpu: CpuConfig,
    /// RNG seed.
    pub seed: u64,
    /// Targeted fault plan.
    pub faults: FaultPlan,
    /// Override HotStuff's pacemaker interval (Table 1 measures pure
    /// message delays with a near-zero batching window).
    pub hotstuff_interval_ns: Option<u64>,
    /// Per-node observability configuration (metrics on by default; the
    /// numbers reported by the harness are virtual-time and unaffected).
    pub obs: ObsConfig,
    /// Client-side request batching. For NeoBFT the policy configures
    /// the [`neo_core::ClientDriver`] (and enables pipelined speculative
    /// verification on the replicas); for the baselines a multi-op
    /// policy raises their `batch_max` so the control stays comparable.
    pub batch: BatchPolicy,
    /// Verify-stage lane override (NeoBFT only). `None` follows the
    /// batch policy's default; `Some(0)` forces the serial lane;
    /// `Some(w)` forces the pipelined lane with `w` modeled verify
    /// workers (the replica CPU's worker-core count is set to `w`). The
    /// simulator models the pool with the meter —
    /// `NeoConfig::verify_workers` stays 0 so runs remain deterministic.
    pub verify_lane: Option<usize>,
}

impl RunParams {
    /// Defaults mirroring the paper's testbed: f = 1, echo RPC, 64-byte
    /// requests, calibrated costs, server/client CPU models.
    pub fn new(protocol: Protocol, n_clients: usize) -> Self {
        RunParams {
            protocol,
            f: 1,
            n_clients,
            app: AppKind::Echo { size: 64 },
            warmup: 100 * MILLIS,
            measure: 400 * MILLIS,
            net: NetConfig::DATACENTER,
            costs: CostModel::CALIBRATED,
            server_cpu: CpuConfig::SERVER,
            client_cpu: CpuConfig::CLIENT,
            seed: 42,
            faults: FaultPlan::none(),
            hotstuff_interval_ns: None,
            obs: ObsConfig::default().with_trace(DEFAULT_TRACE_CAPACITY),
            batch: BatchPolicy::SINGLE,
            verify_lane: None,
        }
    }

    /// Replica count for this protocol and f.
    pub fn n_replicas(&self) -> usize {
        match self.protocol {
            Protocol::MinBft => 2 * self.f + 1,
            Protocol::Unreplicated => 1,
            _ => 3 * self.f + 1,
        }
    }
}

/// Per-phase observability snapshots gathered from a run, serialized
/// into the JSON reports next to the latency/throughput numbers.
#[derive(Clone, Debug, Default, serde::Serialize)]
pub struct ObsReport {
    /// Merge of every node's metrics (replicas, clients, services).
    pub aggregate: MetricsSnapshot,
    /// Per-replica snapshots, indexed by replica id.
    pub replicas: Vec<MetricsSnapshot>,
}

/// Measured outcome of one run.
#[derive(Clone, Debug, serde::Serialize)]
pub struct RunResult {
    /// Ops committed inside the measurement window.
    pub committed: u64,
    /// Throughput over the window (ops/sec).
    pub throughput: f64,
    /// Mean end-to-end latency (ns) over the window.
    pub mean_latency_ns: u64,
    /// Median latency (ns).
    pub p50_latency_ns: u64,
    /// 99th percentile latency (ns).
    pub p99_latency_ns: u64,
    /// All measured latencies (for CDFs).
    #[serde(skip)]
    pub latencies_ns: Vec<u64>,
    /// Phase breakdown: event counters, named counters, and latency
    /// histograms, per replica and aggregated.
    pub obs: ObsReport,
    /// Per-request lifecycle spans assembled from the event trace:
    /// per-phase latency histograms (send → stamp → deliver → exec →
    /// reply → commit). `None` when tracing was disabled for the run.
    #[serde(skip_serializing_if = "Option::is_none")]
    pub trace: Option<crate::trace::TraceReport>,
}

impl RunResult {
    fn from_ops(ops: &[CompletedOp], window_start: u64, window_end: u64) -> RunResult {
        let mut lats: Vec<u64> = ops
            .iter()
            .filter(|o| o.completed_at >= window_start && o.completed_at < window_end)
            .map(|o| o.latency_ns())
            .collect();
        lats.sort_unstable();
        let committed = lats.len() as u64;
        let dur_s = (window_end - window_start) as f64 / 1e9;
        let pct = |p: f64| -> u64 {
            if lats.is_empty() {
                0
            } else {
                lats[((p * (lats.len() - 1) as f64) as usize).min(lats.len() - 1)]
            }
        };
        RunResult {
            committed,
            throughput: committed as f64 / dur_s,
            mean_latency_ns: if lats.is_empty() {
                0
            } else {
                lats.iter().sum::<u64>() / lats.len() as u64
            },
            p50_latency_ns: pct(0.5),
            p99_latency_ns: pct(0.99),
            latencies_ns: lats,
            obs: ObsReport::default(),
            trace: None,
        }
    }
}

/// Execute one experiment.
pub fn run_experiment(params: &RunParams) -> RunResult {
    run_experiment_with(params, &|_| {})
}

/// Execute one experiment with `tweak` applied to the [`NeoConfig`] the
/// protocol's replicas and clients are built from, after `params` has
/// shaped it — ablations flip one knob that has no `RunParams` field.
/// Baseline protocols have no `NeoConfig` and ignore it.
pub fn run_experiment_with(params: &RunParams, tweak: &dyn Fn(&mut NeoConfig)) -> RunResult {
    let mut sim = build_with(params, tweak);
    sim.run_until(params.warmup + params.measure);
    collect(&sim, params)
}

/// Build the simulator for an experiment without running it (failover
/// experiments drive it in phases).
pub fn build(params: &RunParams) -> Simulator {
    build_with(params, &|_| {})
}

fn build_with(params: &RunParams, tweak: &dyn Fn(&mut NeoConfig)) -> Simulator {
    let n = params.n_replicas();
    let keys = SystemKeys::new(params.seed, n, params.n_clients);
    let mut sim = Simulator::new(SimConfig {
        net: params.net,
        default_cpu: params.server_cpu,
        seed: params.seed,
        faults: params.faults.clone(),
    });
    sim.set_obs(params.obs);

    match params.protocol {
        Protocol::NeoHm
        | Protocol::NeoPk
        | Protocol::NeoBn
        | Protocol::NeoHmSoftware
        | Protocol::NeoPkSoftware => {
            let mut cfg = neo_config(params);
            tweak(&mut cfg);
            build_neo(params, cfg, n, &keys, &mut sim)
        }
        Protocol::Pbft => build_baseline(params, n, &keys, &mut sim, BaselineKind::Pbft),
        Protocol::Zyzzyva => build_baseline(
            params,
            n,
            &keys,
            &mut sim,
            BaselineKind::Zyzzyva { mute: false },
        ),
        Protocol::ZyzzyvaF => build_baseline(
            params,
            n,
            &keys,
            &mut sim,
            BaselineKind::Zyzzyva { mute: true },
        ),
        Protocol::HotStuff => build_baseline(params, n, &keys, &mut sim, BaselineKind::HotStuff),
        Protocol::MinBft => build_baseline(params, n, &keys, &mut sim, BaselineKind::MinBft),
        Protocol::Unreplicated => {
            sim.add_node(
                Addr::Replica(ReplicaId(0)),
                Box::new(UnreplicatedServer::new(params.app.build_app())),
            );
            for c in 0..params.n_clients as u64 {
                let client = UnreplicatedClient::new(
                    ClientId(c),
                    ReplicaId(0),
                    params.app.build_workload(c + 1),
                    50 * MILLIS,
                );
                sim.add_node_with_cpu(
                    Addr::Client(ClientId(c)),
                    Box::new(client),
                    params.client_cpu,
                );
            }
        }
    }
    sim
}

fn neo_config(params: &RunParams) -> NeoConfig {
    let mut cfg = NeoConfig::new(params.f);
    match params.protocol {
        Protocol::NeoPk | Protocol::NeoPkSoftware => {
            cfg = cfg.with_pk();
        }
        Protocol::NeoBn => {
            cfg = cfg.with_byzantine_network();
        }
        _ => {}
    }
    if matches!(
        params.protocol,
        Protocol::NeoHmSoftware | Protocol::NeoPkSoftware
    ) {
        // §6.3: with the software sequencer replicas process one packet
        // per subgroup per request.
        cfg.emulate_hm_subgroups = matches!(params.protocol, Protocol::NeoHmSoftware);
    }
    cfg = cfg.with_batch(params.batch);
    match params.verify_lane {
        None => {}
        Some(0) => cfg.pipeline_verify = false,
        Some(_) => cfg.pipeline_verify = true,
    }
    cfg
}

/// Replica CPU for a run: the verify-lane override pins the worker-core
/// count to the requested worker count so `charge_parallel` tasks spread
/// over exactly `w` modeled verify workers.
fn replica_cpu(params: &RunParams) -> CpuConfig {
    match params.verify_lane {
        Some(w) => CpuConfig {
            cores: w.max(1),
            ..params.server_cpu
        },
        None => params.server_cpu,
    }
}

fn build_neo(params: &RunParams, cfg: NeoConfig, n: usize, keys: &SystemKeys, sim: &mut Simulator) {
    let mut config = ConfigService::new();
    config.register_group(GROUP, (0..n as u32).map(ReplicaId).collect(), params.f);
    sim.add_node_with_cpu(Addr::Config, Box::new(config), CpuConfig::IDEAL);

    let (auth_mode, hw) = match params.protocol {
        Protocol::NeoHm | Protocol::NeoBn => (
            AuthMode::HmacVector,
            SequencerHw::Tofino(TofinoModel::PAPER),
        ),
        Protocol::NeoPk => (
            AuthMode::PublicKey,
            SequencerHw::Fpga(
                FpgaModel::PAPER,
                neo_switch::fpga::SigningRatioController::new(FpgaModel::PAPER),
            ),
        ),
        Protocol::NeoHmSoftware => (AuthMode::HmacVector, SequencerHw::Software(params.costs)),
        Protocol::NeoPkSoftware => {
            // Software sequencer signing in software: model it as a
            // "coprocessor" whose rates reflect one CPU core with
            // precomputed-table signing, plus the hash-chain skip path.
            // Signing is pipelined off the dispatch path (a dedicated
            // signer thread); its *rate* is bounded by the signing-ratio
            // controller, and skipped packets ride the hash chain.
            let model = FpgaModel {
                io_latency_ns: 0,
                hash_latency_ns: 300,
                sign_latency_ns: params.costs.ecdsa_sign,
                sign_service_ns: 600,
                precompute_rate_per_sec: 1_000_000_000 / params.costs.ecdsa_sign.max(1),
                table_capacity: 1024,
                skip_threshold: 64,
            };
            (
                AuthMode::PublicKey,
                SequencerHw::Fpga(model, neo_switch::fpga::SigningRatioController::new(model)),
            )
        }
        _ => unreachable!("neo build called for a baseline"),
    };
    let sequencer = SequencerNode::new(
        GROUP,
        (0..n as u32).map(ReplicaId).collect(),
        auth_mode,
        hw,
        keys,
    );
    // The sequencer is a switch (or a dedicated multicast service in the
    // software deployment): its occupancy is charged via the hardware
    // model, not a server CPU.
    let seq_cpu = CpuConfig {
        dispatch_ns: 0,
        send_ns: 5, // per-copy replication-engine cost (drives the
        // gentle large-group decline in Figure 8)
        ns_per_kb: 0,
        cores: 1,
    };
    sim.add_node_with_cpu(Addr::Sequencer(GROUP), Box::new(sequencer), seq_cpu);

    for r in 0..n as u32 {
        let replica = Replica::new(
            ReplicaId(r),
            cfg.clone(),
            keys,
            params.costs,
            params.app.build_app(),
        );
        sim.add_node_with_cpu(
            Addr::Replica(ReplicaId(r)),
            Box::new(replica),
            replica_cpu(params),
        );
    }
    for c in 0..params.n_clients as u64 {
        let client = Client::new(
            ClientId(c),
            cfg.clone(),
            keys,
            params.costs,
            params.app.build_workload(c + 1),
        );
        sim.add_node_with_cpu(
            Addr::Client(ClientId(c)),
            Box::new(client),
            params.client_cpu,
        );
    }
}

enum BaselineKind {
    Pbft,
    Zyzzyva { mute: bool },
    HotStuff,
    MinBft,
}

fn build_baseline(
    params: &RunParams,
    n: usize,
    keys: &SystemKeys,
    sim: &mut Simulator,
    kind: BaselineKind,
) {
    // Batching follows each protocol's original tuning (§6: "following
    // the batching techniques proposed in their original work"): PBFT
    // opens small adaptive batches; MinBFT batches per USIG-paced
    // prepare; HotStuff fills large blocks paced by its pacemaker.
    let mut cfg = match kind {
        BaselineKind::MinBft => BaselineConfig::new_2f1(params.f),
        _ => BaselineConfig::new_3f1(params.f),
    };
    match kind {
        BaselineKind::Pbft => {
            cfg.batch_max = 8;
        }
        BaselineKind::MinBft => {
            cfg.batch_max = 8;
            cfg.usig_cost_ns = 30_000;
        }
        BaselineKind::HotStuff => {
            cfg.batch_max = 48;
            cfg.pipeline_depth = 2;
            cfg.proposal_interval_ns = params.hotstuff_interval_ns.unwrap_or(500 * neo_sim::MICROS);
        }
        BaselineKind::Zyzzyva { .. } => {
            cfg.batch_max = 16;
        }
    }
    // An explicit batch policy overrides each protocol's default tuning,
    // so a batch-size sweep compares like against like.
    if params.batch.max_batch > 1 {
        cfg.batch_max = params.batch.max_batch;
    }
    // Pure-logic runs (free crypto) also zero the trusted-component cost.
    if params.costs == CostModel::FREE {
        cfg.usig_cost_ns = 0;
    }
    for r in 0..n as u32 {
        let id = ReplicaId(r);
        let app = params.app.build_app();
        let node: Box<dyn neo_sim::Node> = match kind {
            BaselineKind::Pbft => {
                Box::new(PbftReplica::new(id, cfg.clone(), keys, params.costs, app))
            }
            BaselineKind::Zyzzyva { mute } => {
                let mut z = ZyzzyvaReplica::new(id, cfg.clone(), keys, params.costs, app);
                if mute && r == n as u32 - 1 {
                    z.behavior = ZyzzyvaBehavior::Mute;
                }
                Box::new(z)
            }
            BaselineKind::HotStuff => Box::new(HotStuffReplica::new(
                id,
                cfg.clone(),
                keys,
                params.costs,
                app,
            )),
            BaselineKind::MinBft => {
                Box::new(MinBftReplica::new(id, cfg.clone(), keys, params.costs, app))
            }
        };
        sim.add_node_with_cpu(Addr::Replica(id), node, params.server_cpu);
    }
    for c in 0..params.n_clients as u64 {
        let id = ClientId(c);
        let w = params.app.build_workload(c + 1);
        let node: Box<dyn neo_sim::Node> = match kind {
            BaselineKind::Pbft => Box::new(PbftClient::new(id, cfg.clone(), keys, params.costs, w)),
            BaselineKind::Zyzzyva { .. } => {
                Box::new(ZyzzyvaClient::new(id, cfg.clone(), keys, params.costs, w))
            }
            BaselineKind::HotStuff => {
                Box::new(HotStuffClient::new(id, cfg.clone(), keys, params.costs, w))
            }
            BaselineKind::MinBft => {
                Box::new(MinBftClient::new(id, cfg.clone(), keys, params.costs, w))
            }
        };
        sim.add_node_with_cpu(Addr::Client(id), node, params.client_cpu);
    }
}

/// Gather results from all clients over the measurement window.
pub fn collect(sim: &Simulator, params: &RunParams) -> RunResult {
    let mut ops: Vec<CompletedOp> = Vec::new();
    for c in 0..params.n_clients as u64 {
        let addr = Addr::Client(ClientId(c));
        let completed: &[CompletedOp] = match params.protocol {
            Protocol::NeoHm
            | Protocol::NeoPk
            | Protocol::NeoBn
            | Protocol::NeoHmSoftware
            | Protocol::NeoPkSoftware => &sim.node_ref::<Client>(addr).expect("client").completed,
            Protocol::Pbft => {
                &sim.node_ref::<PbftClient>(addr)
                    .expect("client")
                    .core
                    .completed
            }
            Protocol::Zyzzyva | Protocol::ZyzzyvaF => {
                &sim.node_ref::<ZyzzyvaClient>(addr)
                    .expect("client")
                    .core
                    .completed
            }
            Protocol::HotStuff => {
                &sim.node_ref::<HotStuffClient>(addr)
                    .expect("client")
                    .core
                    .completed
            }
            Protocol::MinBft => {
                &sim.node_ref::<MinBftClient>(addr)
                    .expect("client")
                    .core
                    .completed
            }
            Protocol::Unreplicated => {
                &sim.node_ref::<UnreplicatedClient>(addr)
                    .expect("client")
                    .core
                    .completed
            }
        };
        ops.extend_from_slice(completed);
    }
    let mut result = RunResult::from_ops(&ops, params.warmup, params.warmup + params.measure);
    result.obs = ObsReport {
        aggregate: sim.aggregate_metrics(),
        replicas: (0..params.n_replicas())
            .map(|r| {
                sim.metrics_snapshot(Addr::Replica(ReplicaId(r as u32)))
                    .unwrap_or_default()
            })
            .collect(),
    };
    if params.obs.trace_capacity > 0 {
        let reports = sim.reports(neo_sim::TraceRead::Copy);
        result.trace = Some(crate::trace::TraceReport::from_reports(&reports));
    }
    result
}

/// Messages processed by replica `r` (Table 1's bottleneck-complexity
/// instrumentation).
pub fn replica_messages(sim: &Simulator, params: &RunParams, r: u32) -> u64 {
    let addr = Addr::Replica(ReplicaId(r));
    match params.protocol {
        Protocol::NeoHm
        | Protocol::NeoPk
        | Protocol::NeoBn
        | Protocol::NeoHmSoftware
        | Protocol::NeoPkSoftware => sim
            .node_ref::<Replica>(addr)
            .map(|n| n.stats.messages_in)
            .unwrap_or(0),
        Protocol::Pbft => sim
            .node_ref::<PbftReplica>(addr)
            .map(|n| n.messages_in)
            .unwrap_or(0),
        Protocol::Zyzzyva | Protocol::ZyzzyvaF => sim
            .node_ref::<ZyzzyvaReplica>(addr)
            .map(|n| n.messages_in)
            .unwrap_or(0),
        Protocol::HotStuff => sim
            .node_ref::<HotStuffReplica>(addr)
            .map(|n| n.messages_in)
            .unwrap_or(0),
        Protocol::MinBft => sim
            .node_ref::<MinBftReplica>(addr)
            .map(|n| n.messages_in)
            .unwrap_or(0),
        Protocol::Unreplicated => sim
            .node_ref::<UnreplicatedServer>(addr)
            .map(|n| n.executed)
            .unwrap_or(0),
    }
}
