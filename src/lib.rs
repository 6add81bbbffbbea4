//! # neobft
//!
//! A full reproduction of **"NeoBFT: Accelerating Byzantine Fault
//! Tolerance Using Authenticated In-Network Ordering"** (SIGCOMM 2023):
//! the aom authenticated ordered multicast primitive, the NeoBFT
//! protocol, the comparison baselines (PBFT, Zyzzyva, HotStuff, MinBFT),
//! switch/FPGA hardware models, a deterministic network simulator, and a
//! real tokio/UDP transport.
//!
//! This façade crate re-exports the workspace crates under stable paths
//! and hosts the runnable examples:
//!
//! ```bash
//! cargo run --release --example quickstart
//! cargo run --release --example kv_store
//! cargo run --release --example trading_gateway
//! cargo run --release --example fault_drill
//! ```
//!
//! ## Crate map
//!
//! | Module | Source crate | Contents |
//! |---|---|---|
//! | [`wire`] | `neo-wire` | identifiers, aom header, framing |
//! | [`crypto`] | `neo-crypto` | digests, MACs, Ed25519/secp256k1, cost meter |
//! | [`sim`] | `neo-sim` | deterministic discrete-event simulator; the per-node registry and the `NodeReport` every view of a node is a function of |
//! | [`switch`] | `neo-switch` | Tofino + FPGA models, resource tables |
//! | [`aom`] | `neo-aom` | sequencer, receiver library, config service |
//! | [`core`] | `neo-core` | the NeoBFT replica and client |
//! | [`baselines`] | `neo-baselines` | PBFT, Zyzzyva, HotStuff, MinBFT |
//! | [`app`] | `neo-app` | echo/KV applications, YCSB workloads |
//! | [`store`] | `neo-store` | durable WAL + checkpoint backends (file, mem) |
//! | [`bench`] | `neo-bench` | the experiment harness behind every figure, the request-trace assembler, `neo-top` and `neo-trace` |
//! | [`runtime`] | this crate | tokio/UDP transport for real deployments; node handles are its source of reports |

pub use neo_aom as aom;
pub use neo_app as app;
pub use neo_baselines as baselines;
pub use neo_bench as bench;
pub use neo_core as core;
pub use neo_crypto as crypto;
pub use neo_sim as sim;
pub use neo_store as store;
pub use neo_switch as switch;
pub use neo_wire as wire;

pub mod runtime;
