//! # neo-sim
//!
//! A deterministic discrete-event network simulator that drives sans-IO
//! protocol nodes. It stands in for the paper's hardware testbed: nodes
//! are [`node::Node`] state machines; the simulator provides virtual time,
//! message delivery with configurable latency/jitter/loss, per-node CPU
//! models (a serial dispatch core plus a worker-core pool for
//! cryptography), timers, and fault injection.
//!
//! Everything is seeded: the same scenario replays byte-for-byte, which is
//! what makes the paper's figures regenerable as `cargo bench` targets.
//!
//! ## Model
//!
//! * **Links.** Every unicast message experiences
//!   `one_way_latency + U[0, jitter) + len × per_byte` of delay and is
//!   dropped with probability `drop_rate` (plus any targeted
//!   [`fault::FaultPlan`] rules).
//! * **CPU.** Each node has one dispatch core that serially pays
//!   `dispatch_ns` per received message, `send_ns` per sent message, and
//!   any serially-metered crypto; bulk crypto is charged to a pool of
//!   `cores` workers (multi-server queue). This reproduces the queueing
//!   behaviour that determines each protocol's saturation throughput.
//! * **Routing.** Logical [`Addr`]esses map to registered nodes;
//!   `Addr::Multicast(g)` routes to the node registered as
//!   `Addr::Sequencer(g)` — exactly the paper's "senders only specify the
//!   group address" (§3.2).

pub mod byz;
pub mod cpu;
pub mod fault;
pub mod net;
pub mod node;
pub mod obs;
pub mod sim;
pub mod stats;
pub mod store;
pub mod telemetry;
pub mod time;

pub use byz::{ByzStats, ByzStrategy, ByzantineNode};
pub use cpu::CpuConfig;
pub use fault::{FaultPlan, FaultRule, PacketFate, FOREVER};
pub use net::NetConfig;
pub use node::{Context, Node, RecordingContext, TimerId};
pub use obs::{
    render_prometheus, Event, EventKind, EventRecord, ExecSignals, FlightDump, HealthReport,
    Metrics, MetricsSnapshot, NodeHealth, NodeReport, ObsConfig, PacketRecord, ReportSource,
    TraceRead,
};
pub use sim::{SimConfig, Simulator};
pub use stats::NetStats;
pub use store::Store;
pub use telemetry::{TelemetryHub, TelemetryServer};
pub use time::{Duration, Time, MICROS, MILLIS, SECS};
