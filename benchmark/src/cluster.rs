//! A NeoBFT deployment over loopback UDP inside this process: config
//! service, software sequencer, `3f + 1` replicas and closed-loop clients,
//! each on its own `neobft::runtime` thread, exactly as
//! `tests/runtime_loopback.rs` assembles them.

use crate::ports;
use crate::trace::{AppTrace, NodeSinks, StoreTrace, Traced, TracedApp, TracedStore};
use neobft::aom::{AuthMode, ConfigService, SequencerHw, SequencerNode};
use neobft::app::{App, EchoApp, EchoWorkload, KvApp, Workload, YcsbConfig, YcsbGenerator};
use neobft::core::{BatchPolicy, Client, NeoConfig, Replica};
use neobft::crypto::{CostModel, SystemKeys};
use neobft::runtime::{AddressBook, NodeHandle, RuntimeError};
use neobft::sim::{Node, Store};
use neobft::store::FileStore;
use neobft::wire::{Addr, ClientId, GroupId, ReplicaId};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

pub const GROUP: GroupId = GroupId(0);
/// Fault bound of every UDP workload: n = 4.
pub const F: usize = 1;

/// The replicated application and the operations clients issue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum AppSpec {
    /// Echo RPC with payloads of this many bytes.
    Echo { size: usize },
    /// The B-tree key-value store, pre-loaded, under a YCSB mix.
    Kv(YcsbConfig),
}

impl AppSpec {
    pub fn app(&self) -> Box<dyn App> {
        match self {
            AppSpec::Echo { .. } => Box::new(EchoApp::new()),
            AppSpec::Kv(cfg) => Box::new(KvApp::loaded(cfg.record_count, cfg.field_len)),
        }
    }

    /// The operation stream of the client with this salt. The same salt
    /// gives the same stream, which is how completions are checked after
    /// the run.
    pub fn workload(&self, salt: u64) -> Box<dyn Workload> {
        match self {
            AppSpec::Echo { size } => Box::new(EchoWorkload::new(*size, salt)),
            AppSpec::Kv(cfg) => Box::new(YcsbGenerator::new(*cfg, salt)),
        }
    }
}

/// One UDP workload's configuration.
#[derive(Clone, Debug)]
pub struct ClusterSpec {
    pub byzantine_network: bool,
    pub batch: BatchPolicy,
    pub app: AppSpec,
    pub clients: usize,
    /// Give every replica a `FileStore` under this directory.
    pub store_root: Option<PathBuf>,
}

/// How long the group may stall before a replica suspects the sequencer
/// or the leader. The defaults (20 ms and 10 ms) are data-centre values; on
/// a shared 2-core machine the whole process is sometimes off-CPU for
/// longer, the suspicion starts a view change, and a view change over UDP
/// wedges the group for good once the log no longer fits one datagram
/// (README, "Blockers"). Longer than any run, so it cannot fire.
pub const STALL_TOLERANCE_NS: u64 = 600 * neobft::sim::SECS;

/// Client retransmission interval. At the default 5 ms a replica stalled
/// in a checkpoint `fsync` (tens of milliseconds on a shared disk, now and
/// then) is sent two batches per client every 5 ms until its socket buffer
/// overflows; the lost packets become declared drops, and gap agreement
/// does not recover from them here (README, "Blockers").
pub const CLIENT_RETRY_NS: u64 = neobft::sim::SECS;

impl ClusterSpec {
    pub fn config(&self) -> NeoConfig {
        let mut cfg = NeoConfig::new(F);
        if self.byzantine_network {
            cfg = cfg.with_byzantine_network();
        }
        cfg.unicast_watchdog_ns = STALL_TOLERANCE_NS;
        cfg.gap_agreement_timeout_ns = STALL_TOLERANCE_NS;
        cfg.client_retry_ns = CLIENT_RETRY_NS;
        // Two cores cannot host verify pools: serial verification.
        cfg.with_batch(self.batch).with_verify_workers(0)
    }

    pub fn replicas(&self) -> usize {
        3 * F + 1
    }
}

/// Salt of client `index`'s workload under `seed`: distinct per client,
/// never 0, a pure function of its inputs.
pub fn client_salt(seed: u64, index: usize) -> u64 {
    // SplitMix64 of the seed, offset by the client index.
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    ((z ^ (z >> 31)) | 1).wrapping_add(2 * index as u64)
}

/// What the tracing wrappers recorded, per node.
#[derive(Clone, Default)]
pub struct TraceSinks {
    pub nodes: NodeSinks,
    pub stores: Vec<(Addr, Arc<Mutex<StoreTrace>>)>,
    pub apps: Vec<(Addr, Arc<Mutex<AppTrace>>)>,
}

/// A running deployment.
pub struct Cluster {
    pub config: NodeHandle,
    pub sequencer: NodeHandle,
    pub replicas: Vec<NodeHandle>,
    pub clients: Vec<NodeHandle>,
    /// Just before the first client thread was spawned: client clocks
    /// (`CompletedOp` times) start within a thread-spawn of this instant.
    pub clients_spawned_at: Instant,
    pub sinks: TraceSinks,
}

/// The nodes of a stopped deployment, for inspection.
pub struct Stopped {
    pub replicas: Vec<Box<dyn Node>>,
    pub clients: Vec<Box<dyn Node>>,
}

pub fn store_dir(root: &Path, replica: usize) -> PathBuf {
    root.join(format!("r{replica}"))
}

impl Cluster {
    /// Lay the deployment out on a free port range and spawn it; a bind
    /// that loses a race for a port retries on a fresh range.
    pub fn start(spec: &ClusterSpec, seed: u64, traced: bool) -> Result<Cluster, String> {
        let ports_needed = spec.replicas() + spec.clients + 2;
        let mut last = String::new();
        for _ in 0..8 {
            let base = ports::free_range(ports_needed).map_err(|e| format!("no free ports: {e}"))?;
            match Cluster::start_at(spec, seed, traced, base) {
                Ok(c) => return Ok(c),
                Err(RuntimeError::Bind { addr, source }) => {
                    last = format!("bind failed for {addr} at base port {base}: {source}");
                }
                Err(e) => return Err(e.to_string()),
            }
        }
        Err(last)
    }

    fn start_at(spec: &ClusterSpec, seed: u64, traced: bool, base_port: u16) -> Result<Cluster, RuntimeError> {
        let n = spec.replicas();
        let keys = SystemKeys::new(seed, n, spec.clients);
        let cfg = spec.config();
        let dep = AddressBook::builder()
            .replicas(n)
            .clients(spec.clients)
            .group(GROUP)
            .base_port(base_port)
            .build()?;
        let mut sinks = TraceSinks::default();

        // Build every node first: config service, sequencer, replicas,
        // then clients — the order they are spawned in.
        let mut nodes: Vec<(Addr, Box<dyn Node>)> = Vec::new();
        let mut config = ConfigService::new();
        config.register_group(GROUP, dep.replica_ids(), F);
        nodes.push((dep.config_service(), Box::new(config)));
        let sequencer = SequencerNode::new(
            GROUP,
            dep.replica_ids(),
            AuthMode::HmacVector,
            SequencerHw::Software(CostModel::FREE),
            &keys,
        );
        nodes.push((dep.sequencer(), Box::new(sequencer)));
        for r in 0..n {
            let addr = dep.replica(r);
            let id = ReplicaId(r as u32);
            let mut app = spec.app.app();
            if traced {
                let (wrapped, sink) = TracedApp::wrap(app, addr);
                sinks.apps.push((addr, sink));
                app = wrapped;
            }
            let replica = match &spec.store_root {
                None => Replica::new(id, cfg.clone(), &keys, CostModel::FREE, app),
                Some(root) => {
                    let mut store: Box<dyn Store> = Box::new(FileStore::open(store_dir(root, r)));
                    if traced {
                        let (wrapped, sink) = TracedStore::wrap(store, addr);
                        sinks.stores.push((addr, sink));
                        store = wrapped;
                    }
                    Replica::with_store(id, cfg.clone(), &keys, CostModel::FREE, app, store)
                }
            };
            nodes.push((addr, Box::new(replica)));
        }
        for c in 0..spec.clients {
            let workload = spec.app.workload(client_salt(seed, c));
            let client = Client::new(ClientId(c as u64), cfg.clone(), &keys, CostModel::FREE, workload);
            nodes.push((dep.client(c), Box::new(client)));
        }

        let first_client = 2 + n;
        let mut handles: Vec<NodeHandle> = Vec::new();
        let mut clients_spawned_at = Instant::now();
        for (i, (addr, mut node)) in nodes.into_iter().enumerate() {
            if traced {
                let (wrapped, sink) = Traced::wrap(node, addr);
                sinks.nodes.push((addr, sink));
                node = wrapped;
            }
            if i == first_client {
                clients_spawned_at = Instant::now();
            }
            match dep.spawn(node, addr) {
                Ok(h) => handles.push(h),
                Err(e) => {
                    // Join what is already running before reporting.
                    join_all(handles);
                    return Err(e);
                }
            }
        }
        let clients = handles.split_off(first_client);
        let replicas = handles.split_off(2);
        let sequencer = handles.pop().expect("sequencer was spawned");
        let config = handles.pop().expect("config service was spawned");
        Ok(Cluster {
            config,
            sequencer,
            replicas,
            clients,
            clients_spawned_at,
            sinks,
        })
    }

    /// Operations the clients have completed so far (live counter).
    pub fn completed(&self) -> u64 {
        self.clients
            .iter()
            .map(|h| h.metrics().counter("client.ops_completed"))
            .sum()
    }

    /// Block until some client has a committed operation.
    pub fn wait_first_commit(&self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        while self.completed() == 0 {
            if Instant::now() > deadline {
                return Err(format!("no operation committed within {timeout:?}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(())
    }

    /// Every handle, for per-node metric snapshots.
    pub fn handles(&self) -> impl Iterator<Item = &NodeHandle> {
        [&self.config, &self.sequencer]
            .into_iter()
            .chain(&self.replicas)
            .chain(&self.clients)
    }

    /// Stop every node (in parallel: an idle node loop notices the stop
    /// flag within 50 ms) and hand the nodes back.
    pub fn stop(self) -> Result<Stopped, String> {
        let clients = join_all(self.clients);
        let replicas = join_all(self.replicas);
        for joined in join_all(vec![self.sequencer, self.config]) {
            joined?;
        }
        Ok(Stopped {
            replicas: replicas.into_iter().collect::<Result<_, _>>()?,
            clients: clients.into_iter().collect::<Result<_, _>>()?,
        })
    }
}

/// `try_shutdown` every handle concurrently.
fn join_all(handles: Vec<NodeHandle>) -> Vec<Result<Box<dyn Node>, String>> {
    let joins: Vec<_> = handles
        .into_iter()
        .map(|h| std::thread::spawn(move || h.try_shutdown().map_err(|e| e.to_string())))
        .collect();
    joins
        .into_iter()
        .map(|j| j.join().unwrap_or_else(|_| Err("shutdown thread panicked".to_string())))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn salts_are_distinct_nonzero_and_repeatable() {
        let a: Vec<u64> = (0..4).map(|i| client_salt(7, i)).collect();
        let b: Vec<u64> = (0..4).map(|i| client_salt(7, i)).collect();
        assert_eq!(a, b);
        let mut all = a.clone();
        all.extend((0..4).map(|i| client_salt(8, i)));
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8);
        assert!(all.iter().all(|s| *s != 0));
    }
}
