//! The sans-IO node abstraction.
//!
//! Every protocol participant — NeoBFT replicas and clients, baseline
//! protocol nodes, the software aom sequencer, the configuration service —
//! implements [`Node`]. A node reacts to exactly two stimuli (a message or
//! a timer) and expresses all side effects through the [`Context`]. The
//! same state machines run unchanged under the simulator and under the
//! real tokio/UDP transport.

use neo_wire::{Addr, Payload, ReplicaId};
use std::any::Any;

/// Handle for a pending timer, scoped to the node that set it.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TimerId(pub u64);

/// The effect interface a node drives.
pub trait Context {
    /// Current virtual (or real) time in nanoseconds.
    fn now(&self) -> crate::time::Time;

    /// The address this node is registered under.
    fn me(&self) -> Addr;

    /// Send `payload` to a logical destination. Multicast addresses route
    /// to the group's sequencer.
    ///
    /// Payloads are shared buffers ([`Payload`]): sending the same
    /// message to many destinations clones a refcount, never the bytes.
    fn send(&mut self, to: Addr, payload: Payload) {
        self.send_after(to, payload, 0);
    }

    /// Send `payload` after an extra fixed delay beyond normal processing
    /// — used by the switch models to represent pipeline latency that does
    /// not occupy the node's CPU.
    fn send_after(&mut self, to: Addr, payload: Payload, extra_delay: crate::time::Duration);

    /// Send one payload to every replica in `to`: the single-encode
    /// broadcast invariant. Each destination costs one refcount bump;
    /// the message bytes are encoded (and allocated) exactly once by the
    /// caller, regardless of fan-out.
    fn broadcast(&mut self, to: &[ReplicaId], payload: Payload) {
        let Some((last, rest)) = to.split_last() else {
            return;
        };
        for r in rest {
            self.send(Addr::Replica(*r), payload.clone());
        }
        // The final destination consumes the caller's reference.
        self.send(Addr::Replica(*last), payload);
    }

    /// Arm a timer that fires after `delay` with the caller-chosen `kind`
    /// discriminant.
    fn set_timer(&mut self, delay: crate::time::Duration, kind: u32) -> TimerId;

    /// Cancel a previously armed timer. Cancelling an already-fired or
    /// unknown timer is a no-op.
    fn cancel_timer(&mut self, timer: TimerId);

    /// Charge extra serial CPU time beyond what the crypto meter records
    /// (e.g. MinBFT's USIG round trip into the trusted component).
    fn charge(&mut self, ns: u64);

    /// This node's metrics registry. Executors that carry per-node
    /// registries (the simulator, the tokio runtime) override this; the
    /// default returns a process-wide disabled registry whose operations
    /// are no-ops, so `Context` impls that predate observability compile
    /// unchanged and pay nothing.
    fn metrics(&self) -> &crate::obs::Metrics {
        crate::obs::Metrics::disabled()
    }

    /// Emit a structured protocol event: counted per
    /// [`crate::obs::EventKind`], and appended to the bounded trace when
    /// tracing is enabled.
    fn emit(&mut self, ev: crate::obs::Event) {
        let at = self.now();
        let me = self.me();
        self.metrics().record_event(at, me, ev);
    }
}

/// A [`Context`] that only records, for driving one node by hand in a
/// test — no simulator, no clock: sends, timers set and timers cancelled
/// are kept in call order, and `now` is whatever the test sets it to.
/// Every timer gets an id of its own, distinct across all recordings of
/// the process, so a test may hand a node a fresh recording per event.
#[derive(Debug)]
pub struct RecordingContext {
    /// What [`Context::now`] returns.
    pub now: crate::time::Time,
    /// What [`Context::me`] returns.
    pub me: Addr,
    /// Every send: destination and payload (the extra delay is dropped).
    pub sends: Vec<(Addr, Payload)>,
    /// Every timer armed: the id it was given, its delay and its kind.
    pub timers_set: Vec<(TimerId, crate::time::Duration, u32)>,
    /// Every timer cancelled.
    pub timers_cancelled: Vec<TimerId>,
}

impl RecordingContext {
    /// An empty recording at time zero for the node registered as `me`.
    pub fn new(me: Addr) -> Self {
        RecordingContext {
            now: 0,
            me,
            sends: Vec::new(),
            timers_set: Vec::new(),
            timers_cancelled: Vec::new(),
        }
    }
}

impl Context for RecordingContext {
    fn now(&self) -> crate::time::Time {
        self.now
    }
    fn me(&self) -> Addr {
        self.me
    }
    fn send_after(&mut self, to: Addr, payload: Payload, _: crate::time::Duration) {
        self.sends.push((to, payload));
    }
    fn set_timer(&mut self, delay: crate::time::Duration, kind: u32) -> TimerId {
        static NEXT_ID: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(1);
        let id = TimerId(NEXT_ID.fetch_add(1, std::sync::atomic::Ordering::Relaxed));
        self.timers_set.push((id, delay, kind));
        id
    }
    fn cancel_timer(&mut self, timer: TimerId) {
        self.timers_cancelled.push(timer);
    }
    fn charge(&mut self, _: u64) {}
}

/// A protocol state machine.
///
/// `Send` so the same node can be moved onto a dedicated thread by the
/// real (tokio/UDP) transport.
pub trait Node: Any + Send {
    /// A message arrived from `from`.
    fn on_message(&mut self, from: Addr, payload: &[u8], ctx: &mut dyn Context);

    /// A timer armed with `kind` fired.
    fn on_timer(&mut self, timer: TimerId, kind: u32, ctx: &mut dyn Context);

    /// The crypto meter the simulator drains after each handler, if this
    /// node performs metered cryptography.
    fn meter(&self) -> Option<&neo_crypto::Meter> {
        None
    }

    /// Collect asynchronous completions (e.g. pooled verification): the
    /// real runtime calls this whenever the node's [`Self::verify_pool`]
    /// signals finished work, and the node re-injects completions into
    /// its protocol state. Returns the number of completions processed
    /// (so the executor can count them as batch events). The simulator
    /// never calls this — sim nodes verify inline, keeping virtual time
    /// deterministic.
    fn on_async(&mut self, _ctx: &mut dyn Context) -> u64 {
        0
    }

    /// The verify pool whose completions [`Self::on_async`] collects, if
    /// this node dispatches verification to worker threads. The executor
    /// installs its wake hook here and watches for poisoning.
    fn verify_pool(&self) -> Option<std::sync::Arc<neo_crypto::VerifyPool>> {
        None
    }

    /// The node's durability device, if it owns one. The executor flushes
    /// it after each handler (simulator, charging the store's modeled
    /// fsync to virtual time) or before releasing buffered sends (tokio
    /// runtime, a real fsync) — so acknowledgments never outrun the
    /// write-ahead log. Stateless nodes keep the default.
    fn store(&mut self) -> Option<&mut dyn crate::store::Store> {
        None
    }

    /// The node's self-reported protocol health, published by the
    /// executors through the telemetry plane's `/health` endpoint.
    /// Stateless nodes keep the default.
    fn health(&self) -> Option<crate::obs::NodeHealth> {
        None
    }

    /// Downcast support (the experiment harness inspects node state, e.g.
    /// to read a client's completed-operation records).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Probe(u32);
    impl Node for Probe {
        fn on_message(&mut self, _: Addr, _: &[u8], _: &mut dyn Context) {
            self.0 += 1;
        }
        fn on_timer(&mut self, _: TimerId, _: u32, _: &mut dyn Context) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// A Context that overrides nothing observability-related: the default
    /// `metrics`/`emit` must compile and stay inert.
    struct BareCtx;
    impl Context for BareCtx {
        fn now(&self) -> crate::time::Time {
            42
        }
        fn me(&self) -> Addr {
            Addr::Config
        }
        fn send_after(&mut self, _: Addr, _: Payload, _: crate::time::Duration) {}
        fn set_timer(&mut self, _: crate::time::Duration, _: u32) -> TimerId {
            TimerId(0)
        }
        fn cancel_timer(&mut self, _: TimerId) {}
        fn charge(&mut self, _: u64) {}
    }

    #[test]
    fn default_observability_is_inert() {
        let mut ctx = BareCtx;
        assert!(!ctx.metrics().enabled());
        ctx.emit(crate::obs::Event::RequestReceived {
            slot: None,
            epoch: 0,
            seq: 0,
        });
        ctx.metrics().incr("ignored");
        assert_eq!(ctx.metrics().counter("ignored"), 0);
        assert_eq!(
            ctx.metrics()
                .event_count(crate::obs::EventKind::RequestReceived),
            0
        );
    }

    #[test]
    fn downcasting_reaches_concrete_state() {
        let mut n: Box<dyn Node> = Box::new(Probe(7));
        assert_eq!(n.as_any().downcast_ref::<Probe>().unwrap().0, 7);
        n.as_any_mut().downcast_mut::<Probe>().unwrap().0 = 9;
        assert_eq!(n.as_any().downcast_ref::<Probe>().unwrap().0, 9);
    }
}
