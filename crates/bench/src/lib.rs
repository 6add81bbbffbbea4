//! # neo-bench
//!
//! The experiment harness that regenerates every table and figure of the
//! paper's evaluation (§6). The `benches/` directory contains one target
//! per table/figure; each builds on [`harness`] — a protocol-generic
//! cluster runner over the deterministic simulator — and prints the same
//! rows/series the paper reports.
//!
//! Run all of them with `cargo bench -p neo-bench`, or a single one with
//! e.g. `cargo bench -p neo-bench --bench fig7`.
//!
//! [`trace`] assembles request timelines from `neo_sim::NodeReport`s — the
//! one record a run's reports, a flight dump and an `--obs-out` stream all
//! consist of; the `neo-trace` and `neo-top` bins are its two readers.

pub mod chaos;
pub mod harness;
pub mod report;
pub mod trace;

pub use chaos::{ByzAssignment, ChaosOutcome, ChaosPlan, RunHooks};
pub use harness::{AppKind, ObsReport, Protocol, RunParams, RunResult};
pub use report::{fmt_ops, fmt_us, phase_breakdown, Table};
pub use trace::{assemble, render_waterfall, RequestTimeline, TraceReport};
