//! # neo-app
//!
//! Replicated applications and workloads:
//!
//! * [`App`] — the state-machine interface NeoBFT and the baselines
//!   replicate. Because NeoBFT executes *speculatively* (§5.3) and may
//!   have to roll back when a speculatively executed slot is later
//!   committed as a no-op (§5.4), the interface includes `undo`: every
//!   `execute` pushes an undo record; the replica unwinds and re-executes
//!   the log suffix after a rollback.
//! * [`echo`] — the echo-RPC application used for the §6.2 latency/
//!   throughput comparison.
//! * [`kv`] — the in-memory B-Tree key-value store of §6.5.
//! * [`ycsb`] — a YCSB workload generator (workload A: 50/50 read/update
//!   over a zipfian key distribution, 100 K records, 128-byte fields).
//! * [`fixed`] — Q32.32 fixed-point arithmetic backing the zipfian
//!   tables, so workload state carries no floats (R4, `clippy.toml`).

pub mod echo;
pub mod fixed;
pub mod kv;
pub mod workload;
pub mod ycsb;

pub use echo::EchoApp;
pub use kv::{KvApp, KvOp, KvResult};
pub use workload::{EchoWorkload, Workload};
pub use ycsb::{YcsbConfig, YcsbGenerator};

/// A deterministic replicated state machine with undo support.
pub trait App: Send {
    /// Execute one operation and return its result. Implementations must
    /// be deterministic: same state + same op ⇒ same result and state.
    fn execute(&mut self, op: &[u8]) -> Vec<u8>;

    /// Undo the most recently executed (not yet compacted) operation.
    ///
    /// # Panics
    /// Panics if there is nothing to undo — the replica only rolls back
    /// operations it has executed and not yet finalized.
    fn undo(&mut self);

    /// Number of operations executed and not yet undone.
    fn executed(&self) -> u64;

    /// Drop undo records for everything up to and including the
    /// `finalized` most recent... i.e. keep only the ability to undo
    /// operations executed after the sync-point (§B.2). A no-op for apps
    /// that keep unbounded undo history.
    fn compact(&mut self, keep_last: u64);

    /// Serialize the complete application state for a checkpoint.
    ///
    /// `None` means the app does not support snapshots; replicas then
    /// skip checkpoint certification and recover by full log replay.
    /// Must be deterministic: equal state ⇒ byte-equal snapshot, since
    /// checkpoint digests are compared across replicas (§B.2).
    fn snapshot(&self) -> Option<Vec<u8>> {
        None
    }

    /// Replace all state from a snapshot blob. Returns `false` on a
    /// malformed blob and leaves the state untouched — blobs arrive from
    /// disk or from peers, never panic on them. The undo history does
    /// not survive a restore: a checkpoint only covers finalized slots,
    /// which are never rolled back.
    fn restore(&mut self, _blob: &[u8]) -> bool {
        false
    }

    /// Downcast support so hosts can inspect concrete application state.
    fn as_any_ref(&self) -> &dyn std::any::Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn echo_app_is_an_app() {
        // Object safety: protocols hold `Box<dyn App>`.
        let mut app: Box<dyn App> = Box::new(EchoApp::new());
        let r = app.execute(b"ping");
        assert_eq!(r, b"ping");
        assert_eq!(app.executed(), 1);
    }
}
