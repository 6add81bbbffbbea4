//! The repository benchmark. See `benchmark/README.md`.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one workload, one process
//! benchmark run   [--seed n] [--seconds s]                            every workload, tracing off
//! benchmark trace [--seed n] [--seconds s]                            every workload, traced
//! benchmark agree <a> <b>                                             compare two result sets
//! benchmark manifest                                                  print BENCHMARK.json
//! ```

mod agree;
mod analysis;
mod cluster;
mod defs;
mod ladder;
mod layers;
mod measure;
mod outputs;
mod ports;
mod procfs;
mod report;
mod simrun;
mod stats;
mod trace;
mod udp;

use defs::{Executor, Workload, END_TO_END, PER_LAYER};
use report::{Machine, ResultSet, RunReport};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

/// Default measured seconds per workload (`run_seconds` of BENCHMARK.json).
const DEFAULT_SECONDS: u64 = 20;

/// Everything the benchmark writes goes under this directory of the
/// checkout it is run from.
fn output_dir() -> PathBuf {
    let dir = PathBuf::from("benchmark/target");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    dir
}

fn scratch_dir() -> PathBuf {
    let dir = output_dir().join("scratch");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("cannot create {}: {e}", dir.display()));
    dir
}

/// `--name value` options and bare words of a command line.
struct Args {
    options: BTreeMap<String, String>,
    words: Vec<String>,
}

impl Args {
    fn parse(mut raw: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            options: BTreeMap::new(),
            words: Vec::new(),
        };
        while let Some(a) = raw.next() {
            match a.strip_prefix("--") {
                Some(name) => {
                    let value = raw.next().ok_or_else(|| format!("--{name} needs a value"))?;
                    args.options.insert(name.to_string(), value);
                }
                None => args.words.push(a),
            }
        }
        Ok(args)
    }

    fn number(&self, name: &str, default: u64) -> Result<u64, String> {
        match self.options.get(name) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{name} {v}: not a whole number")),
        }
    }
}

fn machine() -> Machine {
    let capture = |program: &str, args: &[&str]| -> String {
        Command::new(program)
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".to_string())
    };
    Machine {
        nproc: std::thread::available_parallelism().map_or(0, usize::from),
        network: "127.0.0.1 loopback UDP (link latency is not measured)".to_string(),
        store_fs: procfs::fs_type(&output_dir()),
        rustc: capture("rustc", &["--version"]),
        commit: capture("git", &["rev-parse", "HEAD"]),
        build: build_note(),
    }
}

/// What `run.py` built this program from: the real crates or the
/// stand-ins, the sources as they stand or with compile fix-ups.
fn build_note() -> String {
    std::env::var("NEO_BENCHMARK_BUILD").unwrap_or_else(|_| "built without run.py".to_string())
}

/// Run one workload in this process.
fn run_workload(w: &Workload, seed: u64, seconds: u64, traced: bool) -> Result<RunReport, String> {
    let mut report = RunReport {
        workload: w.name.to_string(),
        seed,
        seconds,
        traced,
        attempted: 0,
        failed: 0,
        metrics: BTreeMap::new(),
        checks: Vec::new(),
        notes: Vec::new(),
    };
    let scratch = scratch_dir();
    let ladder_budget = Duration::from_millis(1400);
    match &w.executor {
        Executor::Udp(spec) => {
            let run = udp::run(spec, seed, seconds, traced, &scratch, &mut report)?;
            udp::end_to_end(&run, &mut report);
            if !traced {
                return Ok(report);
            }
            // The traced run reports per-layer metrics only: keep the
            // counts and notes of its end-to-end figures, drop the values.
            report.metrics.clear();
            layers::zero_all(&mut report);
            let rtt = udp::unreplicated_rtt_us(seed, Duration::from_secs((seconds / 2).clamp(1, 5)))?;
            let (trace, waterfall) = layers::udp(&run, rtt, &mut report);
            let rungs = ladder::run(seed, &spec.app, spec.batch.max_batch, &scratch, ladder_budget);
            layers::ladder(
                &rungs,
                ladder::fsync_dev_us(&scratch, Duration::from_millis(100)),
                &mut report,
            );
            report.notes.push(waterfall.render());
            write_spans(w.name, &trace, &mut report);
        }
        Executor::Sim { f, clients, drop_rate } => {
            let p = simrun::params(seed, *f, *clients, *drop_rate, seconds);
            let run = simrun::run(&p, traced, &mut report)?;
            simrun::end_to_end(&run, &mut report);
            if !traced {
                return Ok(report);
            }
            report.metrics.clear();
            layers::zero_all(&mut report);
            let dispatch = simrun::dispatch_ns_per_event(&p, run.events);
            let trace = layers::sim(&run, dispatch, &mut report);
            let app = cluster::AppSpec::Echo {
                size: simrun::ECHO_BYTES,
            };
            let rungs = ladder::run(seed, &app, 1, &scratch, ladder_budget);
            layers::ladder(
                &rungs,
                ladder::fsync_dev_us(&scratch, Duration::from_millis(100)),
                &mut report,
            );
            write_spans(w.name, &trace, &mut report);
        }
    }
    Ok(report)
}

/// Write the captured spans where the README says they are.
fn write_spans(workload: &str, trace: &analysis::Trace, report: &mut RunReport) {
    let path = output_dir().join(format!("trace-{workload}.json"));
    let written = serde_json::to_vec(&trace.spans)
        .map_err(|e| e.to_string())
        .and_then(|bytes| std::fs::write(&path, bytes).map_err(|e| e.to_string()));
    report.check(
        "spans_written",
        written.is_ok() && !trace.spans.is_empty(),
        match written {
            Ok(()) => format!("{} spans in {}", trace.spans.len(), path.display()),
            Err(e) => format!("{}: {e}", path.display()),
        },
    );
}

/// The contract's entry point: one workload, a JSON object on the last line.
fn contract(args: &Args) -> Result<ExitCode, String> {
    let name = args.options.get("workload").expect("checked by the caller");
    let w = defs::workload(name).ok_or_else(|| {
        let known: Vec<&str> = defs::workloads().iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    let seed = args.number("seed", 1)?;
    let seconds = args.number("seconds", DEFAULT_SECONDS)?;
    let traced = match args.options.get("trace").map(String::as_str) {
        None | Some("0") => false,
        Some("1") => true,
        Some(other) => return Err(format!("--trace {other}: expected 0 or 1")),
    };
    let report = run_workload(&w, seed, seconds, traced)?;
    let expected: Vec<&str> = if traced {
        PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        END_TO_END.iter().map(|m| m.name).collect()
    };
    if let Some(missing) = expected.iter().find(|m| !report.metrics.contains_key(**m)) {
        // No result line: say on stderr what is known about the run.
        for note in &report.notes {
            eprintln!("note: {note}");
        }
        for c in report.checks.iter().filter(|c| !c.ok) {
            eprintln!("check {} failed: {}", c.name, c.detail);
        }
        return Err(format!("metric {missing} could not be measured"));
    }
    println!("# {}", build_note());
    for note in &report.notes {
        println!("# {}", note.trim_end().replace('\n', "\n# "));
    }
    for c in &report.checks {
        println!(
            "# check {:<28} {}  {}",
            c.name,
            if c.ok { "ok  " } else { "FAIL" },
            c.detail
        );
    }
    println!("report {}", serde_json::to_string(&report).map_err(|e| e.to_string())?);
    println!("{}", report.contract_line());
    Ok(ExitCode::SUCCESS)
}

/// Run one workload in a child process and read its report back.
fn child(w: &Workload, seed: u64, seconds: u64, traced: bool) -> Result<RunReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this program: {e}"))?;
    let out = Command::new(exe)
        .args(["--workload", w.name])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the {} run: {e}", w.name))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    for line in stdout.lines().filter(|l| l.starts_with('#')) {
        println!("  {}", &line[1..].trim_start());
    }
    if !out.status.success() {
        return Err(format!("the {} run exited with {}", w.name, out.status));
    }
    let line = stdout
        .lines()
        .find_map(|l| l.strip_prefix("report "))
        .ok_or_else(|| format!("the {} run printed no report", w.name))?;
    serde_json::from_str(line).map_err(|e| format!("the {} run's report does not parse: {e}", w.name))
}

/// `run` and `trace`: every workload, each in its own process.
fn run_all(args: &Args, traced: bool) -> Result<ExitCode, String> {
    let seed = args.number("seed", 1)?;
    let seconds = args.number("seconds", DEFAULT_SECONDS)?;
    let machine = machine();
    println!(
        "machine: nproc {}, {}, output on {}, {}, commit {}; {}",
        machine.nproc, machine.network, machine.store_fs, machine.rustc, machine.commit, machine.build
    );
    let mut set = ResultSet {
        machine,
        seed,
        seconds,
        traced,
        runs: Vec::new(),
    };
    let mut ok = true;
    for w in defs::workloads() {
        println!(
            "\n== {} (seed {seed}, {seconds} s, tracing {})",
            w.name,
            if traced { "on" } else { "off" }
        );
        println!("  why: {}", w.why);
        let report = child(&w, seed, seconds, traced)?;
        let names: Vec<(&str, &str)> = if traced {
            PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
        } else {
            END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
        };
        for (name, unit) in names {
            match report.metrics.get(name) {
                Some(m) => println!("  {name:<36} {:>16.4} {unit}", m.value),
                None => println!("  {name:<36} {:>16} {unit}", "missing"),
            }
        }
        if !traced {
            println!(
                "  {:<36} {:>16.6} ratio ({} of {})",
                "failed_share",
                report.failed_share(),
                report.failed,
                report.attempted
            );
        }
        if traced {
            // Tracing overhead: the same workload and seed with tracing off.
            let plain = child(&w, seed, seconds, false)?;
            if let (Some(t), Some(u)) = (report.metrics.get("trace.ops_per_s"), plain.metrics.get("ops_per_s")) {
                println!(
                    "  tracing overhead: traced {:.1} ops/s over untraced {:.1} ops/s = {:.3}",
                    t.value,
                    u.value,
                    t.value / u.value
                );
            }
            ok &= plain.correct();
            set.runs.push(plain);
        }
        ok &= report.correct() && report.failed == 0;
        set.runs.push(report);
    }
    let out = output_dir().join(format!("{}-seed{seed}.json", if traced { "trace" } else { "results" }));
    let text = serde_json::to_string_pretty(&set).map_err(|e| e.to_string())?;
    std::fs::write(&out, text).map_err(|e| format!("{}: {e}", out.display()))?;
    println!("\nresults written to {}", out.display());
    if ok {
        Ok(ExitCode::SUCCESS)
    } else {
        eprintln!("some output checks failed");
        Ok(ExitCode::FAILURE)
    }
}

fn agree_command(args: &Args) -> Result<ExitCode, String> {
    let [_, a, b] = args.words.as_slice() else {
        return Err("usage: benchmark agree <a.json|dir> <b.json|dir>".to_string());
    };
    let pairs = agree::compare(&agree::load(Path::new(a))?, &agree::load(Path::new(b))?);
    print!("{}", agree::render(&pairs));
    if pairs.is_empty() {
        return Err("the two result sets share no (workload, metric) pair".to_string());
    }
    let bad = pairs.iter().filter(|p| p.verdict != agree::Verdict::Agree).count();
    Ok(if bad == 0 { ExitCode::SUCCESS } else { ExitCode::FAILURE })
}

fn main() -> ExitCode {
    let outcome = Args::parse(std::env::args().skip(1)).and_then(|args| {
        if args.options.contains_key("workload") {
            return contract(&args);
        }
        match args.words.first().map(String::as_str) {
            Some("run") => run_all(&args, false),
            Some("trace") => run_all(&args, true),
            Some("agree") => agree_command(&args),
            Some("manifest") => {
                print!("{}", defs::manifest(DEFAULT_SECONDS));
                Ok(ExitCode::SUCCESS)
            }
            _ => Err(
                "usage: benchmark run|trace [--seed n] [--seconds s] | agree <a> <b> | manifest | \
                      --workload <name> --seed <n> --seconds <s> --trace <0|1>"
                    .to_string(),
            ),
        }
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
