//! `neobft-node` — run NeoBFT nodes over real UDP sockets.
//!
//! Each role runs as its own process (or use `all` to launch a whole
//! deployment in one process for local evaluation):
//!
//! ```bash
//! # terminal 1..4: replicas
//! neobft-node replica 0 --n 4 --clients 2 --base-port 47000
//! neobft-node replica 1 --n 4 --clients 2 --base-port 47000
//! neobft-node replica 2 --n 4 --clients 2 --base-port 47000
//! neobft-node replica 3 --n 4 --clients 2 --base-port 47000
//! # terminal 5: sequencer + config service
//! neobft-node sequencer --n 4 --clients 2 --base-port 47000
//! # terminal 6: a client
//! neobft-node client 0 --n 4 --clients 2 --base-port 47000 --ops 1000
//!
//! # or everything at once:
//! neobft-node all --n 4 --clients 2 --ops 1000 --app kv
//! ```
//!
//! All processes must agree on `--n`, `--clients`, `--seed`, and
//! `--base-port` (the address book and key material derive from them —
//! a stand-in for the configuration service's deployment manifest).

use neobft::aom::{AuthMode, ConfigService, ReceiverAuth, SequencerHw, SequencerNode};
use neobft::app::{App, EchoApp, EchoWorkload, KvApp, Workload, YcsbConfig, YcsbGenerator};
use neobft::core::{Client, NeoConfig, Replica};
use neobft::crypto::{CostModel, SystemKeys};
use neobft::runtime::{
    try_spawn_node_with_obs, AddressBook, NodeHandle, NodeReporter, ObsExporter,
};
use neobft::sim::obs::{flight_dir, write_flight, FlightDump, ObsConfig, ReportSource};
use neobft::sim::TelemetryServer;
use neobft::wire::{Addr, ClientId, GroupId, ReplicaId};
use std::path::PathBuf;
use std::sync::{mpsc, Arc};
use std::time::Duration;

#[derive(Clone, Debug)]
struct Opts {
    n: usize,
    clients: usize,
    base_port: u16,
    seed: u64,
    ops: u64,
    auth: ReceiverAuth,
    app: AppChoice,
    run_secs: u64,
    obs_out: Option<PathBuf>,
    telemetry_addr: Option<String>,
}

#[derive(Clone, Copy, Debug)]
enum AppChoice {
    Echo,
    Kv,
}

const GROUP: GroupId = GroupId(0);

fn usage() -> ! {
    eprintln!(
        "usage: neobft-node <replica ID | sequencer | client ID | all> [options]\n\
         options:\n\
           --n N            replicas (default 4; must be 3f+1)\n\
           --clients N      clients in the deployment (default 1)\n\
           --base-port P    first UDP port (default 47000)\n\
           --seed S         deployment key seed (default 2024)\n\
           --ops N          operations per client (default 100)\n\
           --auth hm|pk     aom authenticator (default hm)\n\
           --app echo|kv    application (default echo)\n\
           --run-secs S     how long to keep serving (default 30)\n\
           --obs-out PATH   stream live per-node metrics JSONL to PATH\n\
           --telemetry-addr A\n\
                            serve GET /metrics (Prometheus), /health and\n\
                            /reports (JSON) on A, e.g. 127.0.0.1:9464\n\
         SIGINT dumps the flight recorder to $NEO_FLIGHT_DIR (default\n\
         target/flight) before exiting."
    );
    std::process::exit(2);
}

fn parse(args: &[String]) -> (String, Option<u64>, Opts) {
    if args.is_empty() {
        usage();
    }
    let role = args[0].clone();
    let mut idx = 1;
    let id = if matches!(role.as_str(), "replica" | "client") {
        let id = args
            .get(1)
            .and_then(|s| s.parse().ok())
            .unwrap_or_else(|| usage());
        idx = 2;
        Some(id)
    } else {
        None
    };
    let mut opts = Opts {
        n: 4,
        clients: 1,
        base_port: 47000,
        seed: 2024,
        ops: 100,
        auth: ReceiverAuth::Hmac,
        app: AppChoice::Echo,
        run_secs: 30,
        obs_out: None,
        telemetry_addr: None,
    };
    let mut i = idx;
    while i < args.len() {
        let val = || args.get(i + 1).cloned().unwrap_or_else(|| usage());
        match args[i].as_str() {
            "--n" => opts.n = val().parse().unwrap_or_else(|_| usage()),
            "--clients" => opts.clients = val().parse().unwrap_or_else(|_| usage()),
            "--base-port" => opts.base_port = val().parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = val().parse().unwrap_or_else(|_| usage()),
            "--ops" => opts.ops = val().parse().unwrap_or_else(|_| usage()),
            "--run-secs" => opts.run_secs = val().parse().unwrap_or_else(|_| usage()),
            "--obs-out" => opts.obs_out = Some(PathBuf::from(val())),
            "--telemetry-addr" => opts.telemetry_addr = Some(val()),
            "--auth" => {
                opts.auth = match val().as_str() {
                    "hm" => ReceiverAuth::Hmac,
                    "pk" => ReceiverAuth::PublicKey,
                    _ => usage(),
                }
            }
            "--app" => {
                opts.app = match val().as_str() {
                    "echo" => AppChoice::Echo,
                    "kv" => AppChoice::Kv,
                    _ => usage(),
                }
            }
            _ => usage(),
        }
        i += 2;
    }
    if !(opts.n - 1).is_multiple_of(3) {
        eprintln!("--n must be 3f+1");
        std::process::exit(2);
    }
    (role, id, opts)
}

fn build_app(choice: AppChoice) -> Box<dyn App> {
    match choice {
        AppChoice::Echo => Box::new(EchoApp::new()),
        AppChoice::Kv => Box::new(KvApp::loaded(10_000, 128)),
    }
}

fn build_workload(choice: AppChoice, salt: u64) -> Box<dyn Workload> {
    match choice {
        AppChoice::Echo => Box::new(EchoWorkload::new(64, salt)),
        AppChoice::Kv => Box::new(YcsbGenerator::new(
            YcsbConfig {
                record_count: 10_000,
                ..YcsbConfig::WORKLOAD_A
            },
            salt,
        )),
    }
}

fn neo_config(opts: &Opts) -> NeoConfig {
    let f = (opts.n - 1) / 3;
    let mut cfg = NeoConfig::new(f);
    cfg.auth = opts.auth.clone();
    cfg
}

fn spawn_replica(id: u32, opts: &Opts, book: &AddressBook, keys: &SystemKeys) -> NodeHandle {
    let replica = Replica::new(
        ReplicaId(id),
        neo_config(opts),
        keys,
        CostModel::FREE,
        build_app(opts.app),
    );
    println!(
        "replica {id} listening on {:?}",
        book.lookup(Addr::Replica(ReplicaId(id)))
    );
    try_spawn_node_with_obs(
        Box::new(replica),
        Addr::Replica(ReplicaId(id)),
        book.clone(),
        ObsConfig::flight_recorder(),
    )
    .expect("replica spawns")
}

fn spawn_sequencer(opts: &Opts, book: &AddressBook, keys: &SystemKeys) -> (NodeHandle, NodeHandle) {
    let mut config = ConfigService::new();
    config.register_group(
        GROUP,
        (0..opts.n as u32).map(ReplicaId).collect(),
        (opts.n - 1) / 3,
    );
    let config_h = try_spawn_node_with_obs(
        Box::new(config),
        Addr::Config,
        book.clone(),
        ObsConfig::flight_recorder(),
    )
    .expect("config service spawns");
    let mode = match opts.auth {
        ReceiverAuth::Hmac => AuthMode::HmacVector,
        ReceiverAuth::PublicKey => AuthMode::PublicKey,
    };
    let sequencer = SequencerNode::new(
        GROUP,
        (0..opts.n as u32).map(ReplicaId).collect(),
        mode,
        SequencerHw::Software(CostModel::FREE),
        keys,
    );
    println!(
        "sequencer listening on {:?} (group address)",
        book.lookup(Addr::Sequencer(GROUP))
    );
    let seq_h = try_spawn_node_with_obs(
        Box::new(sequencer),
        Addr::Sequencer(GROUP),
        book.clone(),
        ObsConfig::flight_recorder(),
    )
    .expect("sequencer spawns");
    (config_h, seq_h)
}

fn spawn_client(id: u64, opts: &Opts, book: &AddressBook, keys: &SystemKeys) -> NodeHandle {
    let mut client = Client::new(
        ClientId(id),
        neo_config(opts),
        keys,
        CostModel::FREE,
        build_workload(opts.app, id + 1),
    );
    client.max_ops = Some(opts.ops);
    println!("client {id} issuing {} ops", opts.ops);
    try_spawn_node_with_obs(
        Box::new(client),
        Addr::Client(ClientId(id)),
        book.clone(),
        ObsConfig::flight_recorder(),
    )
    .expect("client spawns")
}

/// Watch for the first SIGINT on a side thread; the main thread observes
/// it through the returned channel (`recv_timeout` doubles as the serve
/// sleep). A second SIGINT terminates the process immediately.
fn arm_sigint() -> mpsc::Receiver<()> {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let rt = match tokio::runtime::Builder::new_current_thread()
            .enable_all()
            .build()
        {
            Ok(rt) => rt,
            Err(_) => return, // ctrl-C keeps its default meaning
        };
        rt.block_on(async {
            if tokio::signal::ctrl_c().await.is_ok() {
                eprintln!("neobft-node: interrupt — dumping flight recorder");
                let _ = tx.send(());
            }
            if tokio::signal::ctrl_c().await.is_ok() {
                std::process::exit(130);
            }
        });
    });
    rx
}

/// Wait for `secs`, or less if SIGINT arrives. Returns true on
/// interrupt.
fn interrupted(rx: &mpsc::Receiver<()>, secs: u64) -> bool {
    match rx.recv_timeout(Duration::from_secs(secs)) {
        Ok(()) => true,
        Err(mpsc::RecvTimeoutError::Timeout) => false,
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            // The watcher could not start; fall back to a plain sleep.
            std::thread::sleep(Duration::from_secs(secs));
            false
        }
    }
}

/// Serve for `secs` with the sinks the flags ask for over `handles`: the
/// JSONL stream (`--obs-out`), the scrape endpoint (`--telemetry-addr`),
/// and, on SIGINT, the flight artifact under `$NEO_FLIGHT_DIR` (default
/// `target/flight`).
fn serve(opts: &Opts, sigint: &mpsc::Receiver<()>, secs: u64, handles: &[&NodeHandle]) {
    let nodes: Vec<NodeReporter> = handles.iter().map(|h| h.reporter()).collect();
    let exporter = opts.obs_out.as_deref().and_then(|path| {
        ObsExporter::start(nodes.clone(), path, Duration::from_millis(250))
            .inspect_err(|e| {
                eprintln!("neobft-node: cannot open --obs-out {}: {e}", path.display())
            })
            .ok()
    });
    let telemetry = opts.telemetry_addr.as_deref().and_then(|addr| {
        TelemetryServer::start(addr, Arc::new(nodes.clone()))
            .inspect_err(|e| eprintln!("neobft-node: cannot bind --telemetry-addr {addr}: {e}"))
            .ok()
    });
    if let Some(server) = &telemetry {
        println!(
            "telemetry on http://{}/metrics, /health and /reports",
            server.local_addr()
        );
    }
    if interrupted(sigint, secs) {
        let at = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        let dump = FlightDump {
            reason: "sigint".to_string(),
            at,
            violations: Vec::new(),
            context: [("source".to_string(), "neobft-node".to_string())].into(),
            nodes: nodes.reports(),
        };
        let name = format!("flight-node-{}.json", std::process::id());
        write_flight("neobft-node", &flight_dir(None), &name, &dump);
    }
    if let Some(e) = exporter {
        e.stop();
    }
    drop(telemetry);
}

fn report_client(node: Box<dyn neobft::sim::Node>) {
    let client = node.as_any().downcast_ref::<Client>().expect("client node");
    let done = client.completed.len();
    println!("client {}: committed {done} ops", client.id());
    if done > 0 {
        let mut lats: Vec<u64> = client.completed.iter().map(|o| o.latency_ns()).collect();
        lats.sort_unstable();
        println!(
            "  p50 {:.0}µs  p99 {:.0}µs  retries {}",
            lats[done / 2] as f64 / 1e3,
            lats[(done * 99 / 100).min(done - 1)] as f64 / 1e3,
            client.completed.iter().map(|o| o.retries).sum::<u32>()
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (role, id, opts) = parse(&args);
    let keys = SystemKeys::new(opts.seed, opts.n, opts.clients);
    let book = AddressBook::localhost(opts.n, opts.clients, GROUP, opts.base_port);

    let sigint = arm_sigint();
    match role.as_str() {
        "replica" => {
            let h = spawn_replica(id.unwrap() as u32, &opts, &book, &keys);
            serve(&opts, &sigint, opts.run_secs, &[&h]);
            let node = h.try_shutdown().expect("node joins");
            let replica = node.as_any().downcast_ref::<Replica>().expect("replica");
            println!(
                "replica {}: executed {}, log {}, view {}",
                replica.id(),
                replica.stats.executed,
                replica.log_len(),
                replica.view()
            );
        }
        "sequencer" => {
            let (config_h, seq_h) = spawn_sequencer(&opts, &book, &keys);
            serve(&opts, &sigint, opts.run_secs, &[&config_h, &seq_h]);
            seq_h.try_shutdown().expect("sequencer joins");
            config_h.try_shutdown().expect("config service joins");
        }
        "client" => {
            let h = spawn_client(id.unwrap(), &opts, &book, &keys);
            serve(
                &opts,
                &sigint,
                opts.run_secs.min(opts.ops / 100 + 10),
                &[&h],
            );
            report_client(h.try_shutdown().expect("client joins"));
        }
        "all" => {
            let (config_h, seq_h) = spawn_sequencer(&opts, &book, &keys);
            let replica_hs: Vec<_> = (0..opts.n as u32)
                .map(|r| spawn_replica(r, &opts, &book, &keys))
                .collect();
            let client_hs: Vec<_> = (0..opts.clients as u64)
                .map(|c| spawn_client(c, &opts, &book, &keys))
                .collect();
            let handles: Vec<&NodeHandle> = std::iter::once(&config_h)
                .chain(std::iter::once(&seq_h))
                .chain(replica_hs.iter())
                .chain(client_hs.iter())
                .collect();
            let secs = (opts.ops / 1000 + 3).min(opts.run_secs);
            serve(&opts, &sigint, secs, &handles);
            drop(handles);
            for h in client_hs {
                report_client(h.try_shutdown().expect("client joins"));
            }
            for h in replica_hs {
                let node = h.try_shutdown().expect("node joins");
                let replica = node.as_any().downcast_ref::<Replica>().expect("replica");
                println!(
                    "replica {}: executed {}, log {}",
                    replica.id(),
                    replica.stats.executed,
                    replica.log_len()
                );
            }
            seq_h.try_shutdown().expect("sequencer joins");
            config_h.try_shutdown().expect("config service joins");
        }
        _ => usage(),
    }
}
