//! Seed-sweeping chaos explorer.
//!
//! - `chaos` — sweep the default 50 seeds (0..50).
//! - `chaos --seeds N [--start S]` — sweep N seeds from S.
//! - `chaos --seed X` — one seed, verbose (prints the full plan and the
//!   PBFT control), for reproducing a reported violation.
//! - `chaos --plan '<json>'` — re-run an exact serialized plan from a
//!   violation report, bypassing the generator.
//! - `--obs-out <path>` — append live `NodeReport` JSONL (one line
//!   per node per slice boundary) to `path`.
//! - `--telemetry-addr <addr>` — serve `GET /metrics` (Prometheus),
//!   `GET /health` and `GET /reports` (JSON) on `addr` (e.g.
//!   `127.0.0.1:9464`), refreshed at every slice boundary while the
//!   sweep runs.
//! - `--flight-dir <dir>` — where flight-recorder dumps are written
//!   (default `$NEO_FLIGHT_DIR`, falling back to `target/flight`).
//!
//! A safety violation or a SIGINT mid-run writes the cluster's flight
//! recorder to `<flight-dir>/flight-seed-<seed>.json`; `neo-trace`
//! renders it. Exit status is non-zero iff any run violated a safety
//! invariant (130 on interrupt).

use neo_bench::chaos::{
    generate_plan, run_neo_with, run_pbft_control, summary_line, violation_report, ChaosOutcome,
    ChaosPlan, RunHooks,
};
use neo_sim::obs::{flight_dir, write_flight};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn get<'a>(args: &'a [String], flag: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a.as_str() == flag)
        .and_then(|i| args.get(i + 1))
        .map(|s| s.as_str())
}

fn parse(args: &[String], flag: &str, default: u64) -> u64 {
    match get(args, flag) {
        Some(v) => v.parse().unwrap_or_else(|_| panic!("bad {flag}: {v}")),
        None => default,
    }
}

/// Write the outcome's flight dump (if any) as a JSON artifact.
fn dump_flight(dir: &Path, outcome: &ChaosOutcome) {
    if let Some(flight) = &outcome.flight {
        let name = format!("flight-seed-{}.json", outcome.plan.seed);
        write_flight("chaos", dir, &name, flight);
    }
}

/// Arm a process-wide SIGINT watcher: the first ctrl-C sets the flag so
/// runs can stop at a slice boundary and dump their rings; a second
/// ctrl-C kills the process the default way.
fn arm_sigint() -> Arc<AtomicBool> {
    let flag = Arc::new(AtomicBool::new(false));
    let seen = flag.clone();
    std::thread::spawn(move || {
        let rt = match tokio::runtime::Builder::new_current_thread()
            .enable_all()
            .build()
        {
            Ok(rt) => rt,
            Err(_) => return, // no watcher: ctrl-C keeps its default meaning
        };
        rt.block_on(async {
            if tokio::signal::ctrl_c().await.is_ok() {
                seen.store(true, Ordering::Relaxed);
                eprintln!("chaos: interrupt — dumping flight recorder at next slice boundary");
            }
            // Second ctrl-C: restore immediate termination.
            if tokio::signal::ctrl_c().await.is_ok() {
                std::process::exit(130);
            }
        });
    });
    flag
}

/// Start the scrape endpoint if `--telemetry-addr` was given. Returns
/// the hub (publish target) and the server handle keeping it served.
fn telemetry(args: &[String]) -> Option<(Arc<neo_sim::TelemetryHub>, neo_sim::TelemetryServer)> {
    let addr = get(args, "--telemetry-addr")?;
    let hub = Arc::new(neo_sim::TelemetryHub::default());
    match neo_sim::TelemetryServer::start(addr, hub.clone()) {
        Ok(server) => {
            eprintln!(
                "chaos: telemetry on http://{}/metrics, /health and /reports",
                server.local_addr()
            );
            Some((hub, server))
        }
        Err(e) => {
            eprintln!("chaos: cannot bind --telemetry-addr {addr}: {e}");
            None
        }
    }
}

fn obs_writer(args: &[String]) -> Option<std::io::BufWriter<std::fs::File>> {
    let path = get(args, "--obs-out")?;
    match std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
    {
        Ok(f) => Some(std::io::BufWriter::new(f)),
        Err(e) => {
            eprintln!("chaos: cannot open --obs-out {path}: {e}");
            None
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let stop = arm_sigint();
    let dir = flight_dir(get(&args, "--flight-dir"));
    let mut obs = obs_writer(&args);
    let telemetry = telemetry(&args);
    let hub = telemetry.as_ref().map(|(h, _)| h.as_ref());

    if let Some(json) = get(&args, "--plan") {
        let plan: ChaosPlan = serde_json::from_str(json).expect("invalid plan JSON");
        std::process::exit(run_one(&plan, &dir, &stop, &mut obs, hub));
    }
    if get(&args, "--seed").is_some() {
        let plan = generate_plan(parse(&args, "--seed", 0));
        std::process::exit(run_one(&plan, &dir, &stop, &mut obs, hub));
    }

    let start = parse(&args, "--start", 0);
    let count = parse(&args, "--seeds", 50);
    let mut failed = 0;
    let mut swept = 0;
    for seed in start..start + count {
        let plan = generate_plan(seed);
        let mut hooks = RunHooks {
            stop: Some(&stop),
            obs_out: obs.as_mut().map(|w| w as &mut dyn Write),
            telemetry: hub,
            ..RunHooks::default()
        };
        let outcome = run_neo_with(&plan, &mut hooks);
        println!("{}", summary_line(&outcome));
        swept += 1;
        if !outcome.violations.is_empty() {
            eprint!("{}", violation_report(&outcome));
            failed += 1;
        }
        dump_flight(&dir, &outcome);
        if stop.load(Ordering::Relaxed) {
            eprintln!("chaos: interrupted after {swept} seed(s)");
            std::process::exit(130);
        }
    }
    println!("chaos: {swept} seeds swept, {failed} violation(s)");
    std::process::exit(if failed == 0 { 0 } else { 1 });
}

/// Run one scenario verbosely: print the plan, the NeoBFT outcome, and
/// the PBFT control. Returns the process exit code.
fn run_one(
    plan: &ChaosPlan,
    dir: &Path,
    stop: &AtomicBool,
    obs: &mut Option<std::io::BufWriter<std::fs::File>>,
    hub: Option<&neo_sim::TelemetryHub>,
) -> i32 {
    println!(
        "plan: {}",
        serde_json::to_string_pretty(plan).expect("plan serializes")
    );
    let mut hooks = RunHooks {
        stop: Some(stop),
        obs_out: obs.as_mut().map(|w| w as &mut dyn Write),
        telemetry: hub,
        ..RunHooks::default()
    };
    let outcome = run_neo_with(plan, &mut hooks);
    println!("{}", summary_line(&outcome));
    dump_flight(dir, &outcome);
    if stop.load(Ordering::Relaxed) {
        return 130;
    }
    let (control_committed, control_anomalies) = run_pbft_control(plan);
    println!("pbft control: committed {control_committed}");
    for a in &control_anomalies {
        eprintln!("  {a}");
    }
    if outcome.violations.is_empty() && control_anomalies.is_empty() {
        0
    } else {
        eprint!("{}", violation_report(&outcome));
        1
    }
}
