//! `neo-trace` — render request waterfalls from observability artifacts.
//!
//! Reads either a flight-recorder dump (a single `FlightDump` JSON
//! object, as written by the chaos explorer or `neobft-node` on SIGINT)
//! or a live-exporter stream (`NodeReport` JSONL, one object per
//! line); the format is sniffed from the content. Either way the input
//! is a list of reports, and only the window every ring still covers is
//! assembled.
//!
//! ```bash
//! neo-trace target/flight/flight-seed-17.json            # dump header,
//! neo-trace --list run.jsonl                             # spans table,
//! neo-trace --request 3:7 run.jsonl                      # one waterfall,
//! neo-trace --all target/flight/flight-seed-17.json      # every waterfall,
//! neo-trace --check crates/bench/tests/fixtures/flight-fixture.json
//! ```
//!
//! `--check` parses the artifact, assembles spans, and renders every
//! waterfall, exiting non-zero if the artifact is unreadable or contains
//! no assemblable span — the CI self-test for the artifact format.

use neo_bench::trace::{assemble, fmt_ns, render_waterfall, RequestTimeline};
use neo_sim::obs::merged_events;
use neo_sim::{FlightDump, NodeReport};

fn fail(msg: &str) -> ! {
    eprintln!("neo-trace: {msg}");
    std::process::exit(1);
}

/// Parse the artifact into its reports plus, for a flight dump, the dump
/// they were taken out of (its header).
fn load(path: &str) -> (Vec<NodeReport>, Option<FlightDump>) {
    let text =
        std::fs::read_to_string(path).unwrap_or_else(|e| fail(&format!("cannot read {path}: {e}")));
    // A flight dump is one JSON object; a stream is JSONL. Try the dump
    // first — a dump never parses as a one-line stream and vice versa.
    if let Ok(mut dump) = serde_json::from_str::<FlightDump>(&text) {
        return (std::mem::take(&mut dump.nodes), Some(dump));
    }
    let reports = text
        .lines()
        .enumerate()
        .filter(|(_, line)| !line.trim().is_empty())
        .map(|(i, line)| {
            serde_json::from_str(line).unwrap_or_else(|e| {
                fail(&format!(
                    "{path}:{}: not a FlightDump or NodeReport: {e}",
                    i + 1
                ))
            })
        })
        .collect();
    (reports, None)
}

fn print_header(dump: &FlightDump, nodes: &[NodeReport]) {
    println!("flight dump: reason {:?} at {}ns", dump.reason, dump.at);
    for (k, v) in &dump.context {
        println!("  {k}: {v}");
    }
    for v in &dump.violations {
        println!("  violation: {v}");
    }
    let packets: usize = nodes.iter().map(|n| n.packets.len()).sum();
    println!(
        "  {} node(s), {} event(s), {} packet digest(s)",
        nodes.len(),
        merged_events(nodes).len(),
        packets
    );
}

fn list(spans: &[RequestTimeline]) {
    println!(
        "{:>8} {:>8} {:>6}  {}",
        "client", "request", "slot", "milestones"
    );
    for s in spans {
        let slot = s.slot.map(|v| v.to_string()).unwrap_or_else(|| "-".into());
        let milestones: Vec<&str> = s
            .milestones()
            .iter()
            .filter(|(_, t)| t.is_some())
            .map(|(name, _)| *name)
            .collect();
        println!(
            "{:>8} {:>8} {:>6}  {}{}{}",
            s.client,
            s.request,
            slot,
            milestones.join(" → "),
            if s.gap { "  [gap]" } else { "" },
            if s.view_change { "  [view change]" } else { "" },
        );
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flag = |name: &str| args.iter().any(|a| a == name);
    let value = |name: &str| {
        args.iter()
            .position(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    // The input path is the first argument that is neither a flag nor
    // the value of the one value-taking flag (--request).
    let mut path: Option<&str> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--request" => i += 2,
            s if s.starts_with("--") => i += 1,
            s => {
                path = Some(s);
                i += 1;
            }
        }
    }
    let Some(path) = path else {
        fail("usage: neo-trace [--list | --all | --request C:R | --check] <dump.json | stream.jsonl>");
    };

    let (reports, dump) = load(path);
    let assembled = assemble(&reports);
    if assembled.cut > 0 {
        println!(
            "{} span(s) starting before {} left out: a ring had evicted records there",
            assembled.cut,
            fmt_ns(assembled.covered_from)
        );
    }
    let spans = assembled.spans;

    if flag("--check") {
        if spans.is_empty() {
            fail(&format!("{path}: no request spans assembled"));
        }
        let mut rendered = 0;
        for s in &spans {
            print!("{}", render_waterfall(s));
            rendered += 1;
        }
        println!("neo-trace: ok — {} span(s) rendered from {path}", rendered);
        return;
    }

    if let Some(dump) = &dump {
        print_header(dump, &reports);
    }
    if let Some(req) = value("--request") {
        let (c, r) = req
            .split_once(':')
            .and_then(|(c, r)| Some((c.parse::<u64>().ok()?, r.parse::<u64>().ok()?)))
            .unwrap_or_else(|| fail(&format!("bad --request {req}: expected <client>:<request>")));
        let span = spans
            .iter()
            .find(|s| s.client == c && s.request == r)
            .unwrap_or_else(|| {
                fail(&format!(
                    "request {c}:{r} not found ({} spans)",
                    spans.len()
                ))
            });
        print!("{}", render_waterfall(span));
    } else if flag("--all") {
        for s in &spans {
            print!("{}", render_waterfall(s));
        }
    } else {
        // Default (and --list): the spans table after any dump header.
        list(&spans);
    }
}
