#![allow(clippy::int_plus_one)] // quorum arithmetic stays literal: `count >= f + 1`
#![cfg_attr(test, allow(clippy::unwrap_used, clippy::expect_used))]

//! # neo-core — the NeoBFT protocol (§5)
//!
//! NeoBFT is a Byzantine fault-tolerant state machine replication protocol
//! co-designed with the aom network primitive. With n = 3f+1 replicas it
//! tolerates f Byzantine replicas and commits client operations in a
//! single round trip in the common case:
//!
//! 1. the client aom-multicasts a signed request (§5.3);
//! 2. the sequencer stamps and authenticates it; every replica delivers
//!    it in the same order, speculatively executes, and sends a signed
//!    reply;
//! 3. the client accepts on 2f+1 matching replies.
//!
//! No replica-to-replica communication or signature verification happens
//! on this path — the ordering certificate from aom replaces both.
//!
//! The crate also implements the full exceptional-case machinery:
//!
//! * [`replica`] — the replica: the shared core (log, view, timers) and
//!   one child module per concern, each owning its state — ordering and
//!   the verify stage, speculative execution with rollback and the
//!   client table (at-most-once, replies with the O(1) hash-chained log
//!   hash), and the four below;
//! * gap agreement (§5.4) — `query`/`query-reply` recovery from the
//!   leader, and the leader-driven binary consensus (`gap-find` /
//!   `gap-recv` / `gap-drop` / `gap-decision` / `gap-prepare` /
//!   `gap-commit`) that commits a slot as a request or a no-op;
//! * view changes (§5.5, §B.1) — leader replacement and sequencer
//!   failover with epoch certificates and log merging;
//! * state synchronization (§B.2) — periodic sync-points that finalize
//!   speculative execution and propagate gap certificates;
//! * crash recovery — certified checkpoints, WAL replay and state
//!   transfer ([`recovery`] has the durable types);
//! * [`client`] — the windowed [`ClientDriver`]: ops are submitted (or
//!   pulled from a workload), packed into batch envelopes — many ops,
//!   one MAC vector, one aom slot — multicast, matched against the
//!   2f+1 reply quorum, and fanned back out per op; includes the
//!   unicast fallback path;
//! * [`batch`] — the batching policy and the load-adaptive batch-size
//!   controller (modeled on the FPGA signing-ratio controller);
//! * [`verify`] — the verify stage: authenticator verification runs
//!   inline (simulator) or on a real [`neo_crypto::VerifyPool`] (tokio
//!   runtime, `verify_workers > 0`), with completions re-injected in
//!   dispatch order.

pub mod batch;
pub mod client;
pub mod config;
pub mod error;
pub mod invariants;
pub mod log;
pub mod messages;
pub mod recovery;
pub mod replica;
pub mod verify;

pub use batch::{AdaptiveBatcher, BatchPolicy};
pub use client::{Client, ClientDriver, CompletedOp, OpHandle};
pub use config::NeoConfig;
pub use error::ProtocolError;
pub use invariants::{InvariantChecker, Violation};
pub use log::{Log, LogEntry};
pub use messages::{BatchRequest, GapCert, NeoMsg, Reply, SignedBatch};
pub use recovery::{CheckpointData, WalRecord, WireCheckpoint};
pub use replica::{RecoveryPhase, Replica};
pub use verify::{PoolVerifyTask, VerifyWork};
