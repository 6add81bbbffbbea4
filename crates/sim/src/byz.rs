//! Byzantine node adapters.
//!
//! A [`ByzantineNode`] wraps any [`Node`] and perturbs its *outgoing*
//! traffic at the transport boundary — the inner state machine runs
//! unmodified, but what the network sees is adversarial. This models a
//! compromised host whose protocol stack is intact but whose NIC-level
//! output is controlled by the attacker; it composes with any protocol
//! node without protocol-specific knowledge.
//!
//! Strategies (all counter-based, so runs stay deterministic):
//!
//! * [`ByzStrategy::Equivocate`] — flip a byte in every second send, so a
//!   broadcast delivers *different* payloads to different destinations
//!   (the classic equivocation shape; correct receivers must treat the
//!   corrupted variant as absent or invalid).
//! * [`ByzStrategy::ReplayStale`] — remember a bounded history of past
//!   sends and periodically re-send a stale payload to the current
//!   destination (at-most-once and idempotency machinery must absorb it).
//! * [`ByzStrategy::SilenceTowards`] — suppress every send to a chosen
//!   destination set (selective silence: the node looks alive to some
//!   peers and crashed to others).

use crate::node::{Context, Node, TimerId};
use crate::time::{Duration, Time};
use neo_wire::{Addr, Payload};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::VecDeque;

/// Maximum number of past sends [`ByzStrategy::ReplayStale`] remembers.
const REPLAY_HISTORY: usize = 64;

/// How a [`ByzantineNode`] perturbs its wrapped node's output.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum ByzStrategy {
    /// Flip one byte of every second outgoing payload: broadcasts become
    /// equivocations (different destinations see different bytes).
    Equivocate,
    /// Every `every`-th send additionally re-sends a stale payload from
    /// the node's own past output to the same destination.
    ReplayStale {
        /// Replay period in sends (0 is treated as 1).
        every: u64,
    },
    /// Suppress all sends to these destinations.
    SilenceTowards(Vec<Addr>),
}

/// Counters describing what the adapter actually did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ByzStats {
    /// Payloads mutated before sending (equivocation).
    pub mutated: u64,
    /// Stale payloads re-sent.
    pub replayed: u64,
    /// Sends suppressed (selective silence).
    pub suppressed: u64,
}

/// A wrapper that makes any [`Node`] Byzantine at the transport boundary.
pub struct ByzantineNode {
    inner: Box<dyn Node>,
    strategy: ByzStrategy,
    sends_seen: u64,
    history: VecDeque<(Addr, Payload)>,
    stats: ByzStats,
}

impl ByzantineNode {
    /// Wrap `inner` with the given misbehaviour strategy.
    pub fn new(inner: Box<dyn Node>, strategy: ByzStrategy) -> Self {
        ByzantineNode {
            inner,
            strategy,
            sends_seen: 0,
            history: VecDeque::new(),
            stats: ByzStats::default(),
        }
    }

    /// What the adapter has done so far.
    pub fn stats(&self) -> ByzStats {
        self.stats
    }

    /// Immutable view of the wrapped node's concrete state.
    pub fn inner_ref<T: 'static>(&self) -> Option<&T> {
        self.inner.as_any().downcast_ref::<T>()
    }

    /// Mutable view of the wrapped node's concrete state.
    pub fn inner_mut<T: 'static>(&mut self) -> Option<&mut T> {
        self.inner.as_any_mut().downcast_mut::<T>()
    }
}

/// Context wrapper that applies the strategy to outgoing sends and
/// forwards everything else to the real executor context.
struct ByzCtx<'a> {
    inner: &'a mut dyn Context,
    strategy: &'a ByzStrategy,
    sends_seen: &'a mut u64,
    history: &'a mut VecDeque<(Addr, Payload)>,
    stats: &'a mut ByzStats,
}

impl Context for ByzCtx<'_> {
    fn now(&self) -> Time {
        self.inner.now()
    }
    fn me(&self) -> Addr {
        self.inner.me()
    }
    fn send_after(&mut self, to: Addr, payload: Payload, extra_delay: Duration) {
        *self.sends_seen += 1;
        match self.strategy {
            ByzStrategy::Equivocate => {
                let payload = if *self.sends_seen % 2 == 0 && !payload.is_empty() {
                    self.stats.mutated += 1;
                    let mut bytes = payload.to_vec();
                    let mid = bytes.len() / 2;
                    bytes[mid] ^= 0x01;
                    Payload::from(bytes)
                } else {
                    payload
                };
                self.inner.send_after(to, payload, extra_delay);
            }
            ByzStrategy::ReplayStale { every } => {
                let every = (*every).max(1);
                if self.history.len() == REPLAY_HISTORY {
                    self.history.pop_front();
                }
                self.history.push_back((to, payload.clone()));
                self.inner.send_after(to, payload, extra_delay);
                if *self.sends_seen % every == 0 && !self.history.is_empty() {
                    let idx = (*self.sends_seen as usize) % self.history.len();
                    if let Some((_, stale)) = self.history.get(idx) {
                        self.stats.replayed += 1;
                        self.inner.send_after(to, stale.clone(), extra_delay);
                    }
                }
            }
            ByzStrategy::SilenceTowards(silenced) => {
                if silenced.contains(&to) {
                    self.stats.suppressed += 1;
                } else {
                    self.inner.send_after(to, payload, extra_delay);
                }
            }
        }
    }
    fn set_timer(&mut self, delay: Duration, kind: u32) -> TimerId {
        self.inner.set_timer(delay, kind)
    }
    fn cancel_timer(&mut self, timer: TimerId) {
        self.inner.cancel_timer(timer)
    }
    fn charge(&mut self, ns: u64) {
        self.inner.charge(ns)
    }
    fn metrics(&self) -> &crate::obs::Metrics {
        self.inner.metrics()
    }
}

impl Node for ByzantineNode {
    fn on_message(&mut self, from: Addr, payload: &[u8], ctx: &mut dyn Context) {
        let ByzantineNode {
            inner,
            strategy,
            sends_seen,
            history,
            stats,
        } = self;
        let mut bctx = ByzCtx {
            inner: ctx,
            strategy,
            sends_seen,
            history,
            stats,
        };
        inner.on_message(from, payload, &mut bctx);
    }

    fn on_timer(&mut self, timer: TimerId, kind: u32, ctx: &mut dyn Context) {
        let ByzantineNode {
            inner,
            strategy,
            sends_seen,
            history,
            stats,
        } = self;
        let mut bctx = ByzCtx {
            inner: ctx,
            strategy,
            sends_seen,
            history,
            stats,
        };
        inner.on_timer(timer, kind, &mut bctx);
    }

    fn meter(&self) -> Option<&neo_crypto::Meter> {
        self.inner.meter()
    }

    fn health(&self) -> Option<crate::obs::NodeHealth> {
        self.inner.health()
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_wire::ReplicaId;

    const PEERS: [ReplicaId; 3] = [ReplicaId(1), ReplicaId(2), ReplicaId(3)];

    /// Broadcasts a fixed payload to its peers on every message.
    struct Chatter;
    impl Node for Chatter {
        fn on_message(&mut self, _: Addr, payload: &[u8], ctx: &mut dyn Context) {
            ctx.broadcast(&PEERS, Payload::copy_from_slice(payload));
        }
        fn on_timer(&mut self, _: TimerId, _: u32, _: &mut dyn Context) {}
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Records outgoing sends.
    struct Capture {
        sends: Vec<(Addr, Vec<u8>)>,
    }
    impl Context for Capture {
        fn now(&self) -> Time {
            0
        }
        fn me(&self) -> Addr {
            Addr::Replica(ReplicaId(0))
        }
        fn send_after(&mut self, to: Addr, payload: Payload, _: Duration) {
            self.sends.push((to, payload.to_vec()));
        }
        fn set_timer(&mut self, _: Duration, _: u32) -> TimerId {
            TimerId(0)
        }
        fn cancel_timer(&mut self, _: TimerId) {}
        fn charge(&mut self, _: u64) {}
    }

    fn drive(node: &mut ByzantineNode, rounds: usize) -> Capture {
        let mut cap = Capture { sends: vec![] };
        for _ in 0..rounds {
            node.on_message(Addr::Config, &[9, 9, 9], &mut cap);
        }
        cap
    }

    #[test]
    fn equivocate_sends_different_payloads_to_different_destinations() {
        let mut byz = ByzantineNode::new(Box::new(Chatter), ByzStrategy::Equivocate);
        let cap = drive(&mut byz, 1);
        assert_eq!(cap.sends.len(), 3);
        let payloads: Vec<&Vec<u8>> = cap.sends.iter().map(|(_, p)| p).collect();
        assert_ne!(payloads[0], payloads[1], "equivocation across peers");
        assert_eq!(payloads[0], payloads[2]);
        assert_eq!(byz.stats().mutated, 1);
    }

    #[test]
    fn replay_resends_stale_payloads() {
        let mut byz = ByzantineNode::new(Box::new(Chatter), ByzStrategy::ReplayStale { every: 3 });
        let cap = drive(&mut byz, 2);
        // 6 genuine sends plus replays at sends 3 and 6.
        assert_eq!(byz.stats().replayed, 2);
        assert_eq!(cap.sends.len(), 8);
    }

    #[test]
    fn silence_towards_suppresses_selected_destinations_only() {
        let silenced = vec![Addr::Replica(ReplicaId(2))];
        let mut byz = ByzantineNode::new(Box::new(Chatter), ByzStrategy::SilenceTowards(silenced));
        let cap = drive(&mut byz, 2);
        assert_eq!(cap.sends.len(), 4, "one of three peers silenced");
        assert!(cap
            .sends
            .iter()
            .all(|(to, _)| *to != Addr::Replica(ReplicaId(2))));
        assert_eq!(byz.stats().suppressed, 2);
    }

    #[test]
    fn inner_state_stays_reachable_through_the_wrapper() {
        struct Counting(u64);
        impl Node for Counting {
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
        let mut byz = ByzantineNode::new(Box::new(Counting(0)), ByzStrategy::Equivocate);
        let mut cap = Capture { sends: vec![] };
        byz.on_message(Addr::Config, &[1], &mut cap);
        assert_eq!(byz.inner_ref::<Counting>().unwrap().0, 1);
        byz.inner_mut::<Counting>().unwrap().0 = 7;
        assert_eq!(byz.inner_ref::<Counting>().unwrap().0, 7);
    }
}
