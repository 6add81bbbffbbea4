//! The aom sequencer as a sans-IO node (§4.2–§4.4).
//!
//! The sequencer receives unstamped aom packets addressed to its group,
//! stamps a monotonically increasing sequence number and the current
//! epoch, generates the authenticator, and multicasts to every receiver.
//!
//! Three deployment flavours share this state machine:
//!
//! * **Hardware aom-hm** — timing from [`neo_switch::TofinoModel`];
//!   authenticator = SipHash vector, one tag per receiver.
//! * **Hardware aom-pk** — timing from [`neo_switch::FpgaModel`];
//!   authenticator = secp256k1 signature over digest ‖ seq ‖ epoch, with
//!   hash chaining and the signing-ratio controller deciding which
//!   packets carry a signature.
//! * **Software sequencer** — the flavour the paper uses on EC2 for the
//!   100-replica scalability run (§6.3): same logic, costs charged to the
//!   node's CPU model instead of switch pipelines.
//!
//! Byzantine sequencer behaviours ([`Behavior`]) are implemented for
//! fault-injection: muting, selective drops, and equivocation (assigning
//! the same sequence number to different messages for different halves of
//! the group).

use crate::{AomPacket, ConfigMsg, Envelope};
use neo_crypto::{chain, CostModel, Digest, HmacKey, SequencerKeyPair, SystemKeys};
use neo_sim::{Context, Event, Node, TimerId};
use neo_switch::fpga::SigningRatioController;
use neo_switch::{FpgaModel, SequencerTiming, TofinoModel};
use neo_wire::{Addr, Authenticator, EpochNum, GroupId, ReplicaId, SeqNum};
use std::any::Any;

/// Which authenticator the sequencer generates.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum AuthMode {
    /// aom-hm: SipHash vector, one entry per receiver (§4.3).
    HmacVector,
    /// aom-pk: one secp256k1 signature + hash chain (§4.4).
    PublicKey,
}

/// Hardware model the sequencer runs on.
pub enum SequencerHw {
    /// Software sequencer: crypto cost charged to the node CPU.
    Software(CostModel),
    /// Tofino folded-pipeline prototype.
    Tofino(TofinoModel),
    /// FPGA coprocessor prototype (with its live signing-ratio state).
    Fpga(FpgaModel, SigningRatioController),
}

/// Fault behaviour for tests and experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Behavior {
    /// Follow the protocol.
    Correct,
    /// Stop emitting anything (crashed / partitioned switch).
    Mute,
    /// Drop every `n`-th stamped message entirely (all receivers miss it:
    /// exercises the gap-agreement *drop* path).
    DropEvery(u64),
    /// Drop every `n`-th stamped message for all but one receiver
    /// (exercises the gap-agreement *recover-from-peer* path).
    DropEveryAtAllButOne(u64),
    /// Byzantine equivocation: give the same sequence number to two
    /// different messages, each half of the group seeing a different one.
    Equivocate,
}

/// The sequencer node.
pub struct SequencerNode {
    group: GroupId,
    epoch: EpochNum,
    next: SeqNum,
    receivers: Vec<ReplicaId>,
    mode: AuthMode,
    hw: SequencerHw,
    keys: SystemKeys,
    hmac_keys: Vec<HmacKey>,
    pk_key: SequencerKeyPair,
    prev_hash: Digest,
    behavior: Behavior,
    /// Packets stamped so far (stats).
    pub stamped: u64,
    /// Pending equivocation partner: the previous packet waiting to share
    /// a sequence number with the next one.
    equiv_pending: Option<AomPacket>,
}

impl SequencerNode {
    /// Build a sequencer for `group` with the given receivers.
    pub fn new(
        group: GroupId,
        receivers: Vec<ReplicaId>,
        mode: AuthMode,
        hw: SequencerHw,
        keys: &SystemKeys,
    ) -> Self {
        let mut node = SequencerNode {
            group,
            epoch: EpochNum::INITIAL,
            next: SeqNum::FIRST,
            receivers,
            mode,
            hw,
            keys: keys.clone(),
            hmac_keys: Vec::new(),
            pk_key: keys.sequencer_key(group, EpochNum::INITIAL),
            prev_hash: Digest::ZERO,
            behavior: Behavior::Correct,
            stamped: 0,
            equiv_pending: None,
        };
        node.derive_epoch_keys();
        node
    }

    /// Install (or re-install) the sequencer for `epoch`: fresh counter,
    /// fresh keys, correct behaviour — the new switch the config service
    /// selected (§4.2 "Sequencer switch failover").
    pub fn install_epoch(&mut self, epoch: EpochNum) {
        self.epoch = epoch;
        self.next = SeqNum::FIRST;
        self.prev_hash = Digest::ZERO;
        self.pk_key = self.keys.sequencer_key(self.group, epoch);
        self.behavior = Behavior::Correct;
        self.equiv_pending = None;
        self.derive_epoch_keys();
    }

    /// Set the fault behaviour (experiments flip this mid-run).
    pub fn set_behavior(&mut self, b: Behavior) {
        self.behavior = b;
    }

    /// Current epoch.
    pub fn epoch(&self) -> EpochNum {
        self.epoch
    }

    /// Next sequence number to be stamped.
    pub fn next_seq(&self) -> SeqNum {
        self.next
    }

    fn derive_epoch_keys(&mut self) {
        self.hmac_keys = self
            .receivers
            .iter()
            .map(|r| self.keys.sequencer_hmac_key(self.group, self.epoch, *r))
            .collect();
    }

    /// Stamp one packet: sequence number, epoch, authenticator. Returns
    /// the pipeline latency to apply and whether the packet was signed
    /// (pk mode only; HMAC packets always count as signed).
    fn stamp(&mut self, pkt: &mut AomPacket, now: u64, ctx: &mut dyn Context) -> u64 {
        pkt.header.epoch = self.epoch;
        pkt.header.seq = self.next;
        self.next = self.next.next();
        self.stamped += 1;
        ctx.emit(Event::SequencerStamp {
            epoch: pkt.header.epoch.0,
            seq: pkt.header.seq.0,
        });

        let auth_input = pkt.header.auth_input();
        let mut signed = true;
        match self.mode {
            AuthMode::HmacVector => {
                let tags = neo_crypto::mac::hmac_vector(&self.hmac_keys, &auth_input);
                pkt.header.auth = Authenticator::HmacVector(tags);
            }
            AuthMode::PublicKey => {
                signed = match &mut self.hw {
                    SequencerHw::Fpga(_, ctl) => ctl.on_packet(now),
                    _ => true,
                };
                let sig = if signed {
                    Some(self.pk_key.sign(&auth_input).0)
                } else {
                    None
                };
                pkt.header.auth = Authenticator::Signature {
                    sig,
                    prev_hash: self.prev_hash.0,
                };
                // Chain over the packet identity (digest ‖ seq ‖ epoch).
                self.prev_hash = chain(Digest::ZERO, &auth_input);
            }
        }

        // Charge occupancy + compute propagation latency.
        let group_size = self.receivers.len();
        match &self.hw {
            SequencerHw::Software(costs) => {
                let cost = match self.mode {
                    AuthMode::HmacVector => costs.siphash * group_size as u64,
                    AuthMode::PublicKey => costs.ecdsa_sign,
                };
                ctx.charge(cost);
                0
            }
            SequencerHw::Tofino(m) => {
                ctx.charge(m.service_ns(group_size));
                m.pipeline_latency_ns(group_size)
            }
            SequencerHw::Fpga(m, _) => {
                // The signer is only occupied for packets it signs;
                // hash-chained skips cost one SHA-256 pipeline slot
                // (§4.4's signing-ratio mechanism).
                if signed {
                    ctx.charge(m.service_ns(group_size));
                } else {
                    ctx.charge(m.hash_latency_ns);
                }
                m.pipeline_latency_ns(group_size)
            }
        }
    }

    fn multicast(&self, pkt: &AomPacket, latency: u64, skip_set: &[usize], ctx: &mut dyn Context) {
        // Encode once; each receiver costs a refcount bump, not a copy.
        let payload = Envelope::Aom(pkt.clone()).to_payload();
        for (i, r) in self.receivers.iter().enumerate() {
            if skip_set.contains(&i) {
                continue;
            }
            ctx.send_after(Addr::Replica(*r), payload.clone(), latency);
        }
    }

    fn handle_packet(&mut self, mut pkt: AomPacket, ctx: &mut dyn Context) {
        if pkt.header.group != self.group || pkt.header.is_stamped() {
            return; // not ours, or replayed post-stamp traffic
        }
        match self.behavior {
            Behavior::Mute => {}
            Behavior::Correct => {
                let latency = self.stamp(&mut pkt, ctx.now(), ctx);
                self.multicast(&pkt, latency, &[], ctx);
            }
            Behavior::DropEvery(n) => {
                let latency = self.stamp(&mut pkt, ctx.now(), ctx);
                // Drop messages whose seq ≡ 0 (mod n): stamped but never
                // delivered — receivers observe a gap.
                if pkt.header.seq.0 % n != 0 {
                    self.multicast(&pkt, latency, &[], ctx);
                }
            }
            Behavior::DropEveryAtAllButOne(n) => {
                let latency = self.stamp(&mut pkt, ctx.now(), ctx);
                if pkt.header.seq.0 % n != 0 {
                    self.multicast(&pkt, latency, &[], ctx);
                } else {
                    // Only receiver 0 gets it; everyone else sees a gap
                    // and must recover the ordering certificate.
                    let skip: Vec<usize> = (1..self.receivers.len()).collect();
                    self.multicast(&pkt, latency, &skip, ctx);
                }
            }
            Behavior::Equivocate => {
                // Pair up consecutive messages under one sequence number.
                match self.equiv_pending.take() {
                    None => {
                        self.equiv_pending = Some(pkt);
                    }
                    Some(mut first) => {
                        let latency = self.stamp(&mut first, ctx.now(), ctx);
                        // Give the *same* seq to the second message.
                        pkt.header.epoch = self.epoch;
                        pkt.header.seq = first.header.seq;
                        let auth_input = pkt.header.auth_input();
                        match self.mode {
                            AuthMode::HmacVector => {
                                let tags =
                                    neo_crypto::mac::hmac_vector(&self.hmac_keys, &auth_input);
                                pkt.header.auth = Authenticator::HmacVector(tags);
                            }
                            AuthMode::PublicKey => {
                                pkt.header.auth = Authenticator::Signature {
                                    sig: Some(self.pk_key.sign(&auth_input).0),
                                    prev_hash: Digest::ZERO.0,
                                };
                            }
                        }
                        let half = self.receivers.len() / 2;
                        let first_half: Vec<usize> = (0..half).collect();
                        let second_half: Vec<usize> = (half..self.receivers.len()).collect();
                        self.multicast(&first, latency, &second_half, ctx);
                        self.multicast(&pkt, latency, &first_half, ctx);
                    }
                }
            }
        }
    }
}

impl Node for SequencerNode {
    fn on_message(&mut self, _from: Addr, payload: &[u8], ctx: &mut dyn Context) {
        match Envelope::from_bytes(payload) {
            Ok(Envelope::Aom(pkt)) => self.handle_packet(pkt, ctx),
            Ok(Envelope::Config(ConfigMsg::InstallSequencer { group, epoch }))
                if group == self.group && epoch > self.epoch =>
            {
                self.install_epoch(epoch);
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, _timer: TimerId, _kind: u32, _ctx: &mut dyn Context) {}

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
    use neo_sim::Duration;
    use neo_wire::Payload;

    struct Collect {
        now: u64,
        sends: Vec<(Addr, Payload, u64)>,
        charged: u64,
    }
    impl Collect {
        fn new() -> Self {
            Collect {
                now: 0,
                sends: vec![],
                charged: 0,
            }
        }
        fn packets(&self) -> Vec<(Addr, AomPacket, u64)> {
            self.sends
                .iter()
                .filter_map(|(a, b, d)| match Envelope::from_bytes(b) {
                    Ok(Envelope::Aom(p)) => Some((*a, p, *d)),
                    _ => None,
                })
                .collect()
        }
    }
    impl Context for Collect {
        fn now(&self) -> u64 {
            self.now
        }
        fn me(&self) -> Addr {
            Addr::Sequencer(GroupId(0))
        }
        fn send_after(&mut self, to: Addr, payload: Payload, d: Duration) {
            self.sends.push((to, payload, d));
        }
        fn set_timer(&mut self, _delay: Duration, _kind: u32) -> TimerId {
            TimerId(0)
        }
        fn cancel_timer(&mut self, _t: TimerId) {}
        fn charge(&mut self, ns: u64) {
            self.charged += ns;
        }
    }

    const G: GroupId = GroupId(0);

    fn keys() -> SystemKeys {
        SystemKeys::new(5, 4, 1)
    }

    fn unstamped(payload: &[u8]) -> Vec<u8> {
        let digest = neo_crypto::sha256(payload);
        Envelope::Aom(AomPacket {
            header: neo_wire::AomHeader::unstamped(G, digest.0),
            payload: payload.to_vec(),
        })
        .to_bytes()
    }

    fn hm_sequencer() -> SequencerNode {
        SequencerNode::new(
            G,
            (0..4).map(ReplicaId).collect(),
            AuthMode::HmacVector,
            SequencerHw::Software(CostModel::FREE),
            &keys(),
        )
    }

    #[test]
    fn stamps_sequential_numbers_and_multicasts() {
        let mut seq = hm_sequencer();
        let mut ctx = Collect::new();
        seq.on_message(
            Addr::Client(neo_wire::ClientId(0)),
            &unstamped(b"a"),
            &mut ctx,
        );
        seq.on_message(
            Addr::Client(neo_wire::ClientId(0)),
            &unstamped(b"b"),
            &mut ctx,
        );
        let pkts = ctx.packets();
        assert_eq!(pkts.len(), 8, "2 messages × 4 receivers");
        // First four all have seq 1, next four seq 2.
        assert!(pkts[..4].iter().all(|(_, p, _)| p.header.seq == SeqNum(1)));
        assert!(pkts[4..].iter().all(|(_, p, _)| p.header.seq == SeqNum(2)));
        assert!(pkts.iter().all(|(_, p, _)| p.header.is_stamped()));
    }

    #[test]
    fn hmac_vector_has_one_entry_per_receiver_and_verifies() {
        let mut seq = hm_sequencer();
        let mut ctx = Collect::new();
        seq.on_message(
            Addr::Client(neo_wire::ClientId(0)),
            &unstamped(b"a"),
            &mut ctx,
        );
        let (_, pkt, _) = &ctx.packets()[0];
        let Authenticator::HmacVector(tags) = &pkt.header.auth else {
            panic!("expected hmac vector");
        };
        assert_eq!(tags.len(), 4);
        // Receiver 2 verifies its entry with its per-epoch key.
        let k = keys().sequencer_hmac_key(G, EpochNum(0), ReplicaId(2));
        assert!(k.verify(&pkt.header.auth_input(), &tags[2]).is_ok());
        // And cannot pass with a different receiver's entry.
        assert!(k.verify(&pkt.header.auth_input(), &tags[1]).is_err());
    }

    #[test]
    fn pk_mode_signs_and_chains() {
        let mut seq = SequencerNode::new(
            G,
            (0..4).map(ReplicaId).collect(),
            AuthMode::PublicKey,
            SequencerHw::Software(CostModel::FREE),
            &keys(),
        );
        let mut ctx = Collect::new();
        seq.on_message(
            Addr::Client(neo_wire::ClientId(0)),
            &unstamped(b"a"),
            &mut ctx,
        );
        seq.on_message(
            Addr::Client(neo_wire::ClientId(0)),
            &unstamped(b"b"),
            &mut ctx,
        );
        let pkts = ctx.packets();
        let (_, p1, _) = &pkts[0];
        let (_, p2, _) = &pkts[4];
        let Authenticator::Signature { sig, prev_hash } = &p1.header.auth else {
            panic!()
        };
        assert!(sig.is_some());
        assert_eq!(*prev_hash, Digest::ZERO.0, "first packet roots the chain");
        let vk = keys().sequencer_key(G, EpochNum(0)).verify_key();
        assert!(vk
            .verify(
                &p1.header.auth_input(),
                &neo_crypto::Signature(sig.clone().unwrap())
            )
            .is_ok());
        let Authenticator::Signature { prev_hash: ph2, .. } = &p2.header.auth else {
            panic!()
        };
        let expect = chain(Digest::ZERO, &p1.header.auth_input());
        assert_eq!(*ph2, expect.0, "second packet chains to the first");
    }

    #[test]
    fn mute_behavior_emits_nothing() {
        let mut seq = hm_sequencer();
        seq.set_behavior(Behavior::Mute);
        let mut ctx = Collect::new();
        seq.on_message(
            Addr::Client(neo_wire::ClientId(0)),
            &unstamped(b"a"),
            &mut ctx,
        );
        assert!(ctx.sends.is_empty());
    }

    #[test]
    fn drop_every_creates_gaps_for_all() {
        let mut seq = hm_sequencer();
        seq.set_behavior(Behavior::DropEvery(3));
        let mut ctx = Collect::new();
        for i in 0..6u8 {
            seq.on_message(
                Addr::Client(neo_wire::ClientId(0)),
                &unstamped(&[i]),
                &mut ctx,
            );
        }
        let pkts = ctx.packets();
        let seqs: std::collections::BTreeSet<u64> =
            pkts.iter().map(|(_, p, _)| p.header.seq.0).collect();
        assert_eq!(
            seqs,
            [1u64, 2, 4, 5].into_iter().collect(),
            "3 and 6 dropped"
        );
    }

    #[test]
    fn drop_at_all_but_one_reaches_exactly_one_receiver() {
        let mut seq = hm_sequencer();
        seq.set_behavior(Behavior::DropEveryAtAllButOne(2));
        let mut ctx = Collect::new();
        seq.on_message(
            Addr::Client(neo_wire::ClientId(0)),
            &unstamped(b"a"),
            &mut ctx,
        );
        seq.on_message(
            Addr::Client(neo_wire::ClientId(0)),
            &unstamped(b"b"),
            &mut ctx,
        );
        let pkts = ctx.packets();
        let seq2: Vec<_> = pkts
            .iter()
            .filter(|(_, p, _)| p.header.seq == SeqNum(2))
            .collect();
        assert_eq!(seq2.len(), 1);
        assert_eq!(seq2[0].0, Addr::Replica(ReplicaId(0)));
    }

    #[test]
    fn equivocate_assigns_one_seq_to_two_messages() {
        let mut seq = hm_sequencer();
        seq.set_behavior(Behavior::Equivocate);
        let mut ctx = Collect::new();
        seq.on_message(
            Addr::Client(neo_wire::ClientId(0)),
            &unstamped(b"a"),
            &mut ctx,
        );
        assert!(ctx.packets().is_empty(), "first message held back");
        seq.on_message(
            Addr::Client(neo_wire::ClientId(0)),
            &unstamped(b"b"),
            &mut ctx,
        );
        let pkts = ctx.packets();
        assert_eq!(pkts.len(), 4);
        assert!(pkts.iter().all(|(_, p, _)| p.header.seq == SeqNum(1)));
        let payloads: std::collections::BTreeSet<Vec<u8>> =
            pkts.iter().map(|(_, p, _)| p.payload.clone()).collect();
        assert_eq!(payloads.len(), 2, "two different messages share seq 1");
        // Each half of the group sees a consistent single message.
        let by_receiver: Vec<_> = pkts
            .iter()
            .map(|(a, p, _)| (*a, p.payload.clone()))
            .collect();
        assert_eq!(by_receiver[0].1, by_receiver[1].1);
        assert_eq!(by_receiver[2].1, by_receiver[3].1);
        assert_ne!(by_receiver[0].1, by_receiver[2].1);
    }

    #[test]
    fn tofino_hw_adds_pipeline_latency_and_occupancy() {
        let mut seq = SequencerNode::new(
            G,
            (0..4).map(ReplicaId).collect(),
            AuthMode::HmacVector,
            SequencerHw::Tofino(TofinoModel::PAPER),
            &keys(),
        );
        let mut ctx = Collect::new();
        seq.on_message(
            Addr::Client(neo_wire::ClientId(0)),
            &unstamped(b"a"),
            &mut ctx,
        );
        let (_, _, delay) = ctx.packets()[0];
        assert_eq!(delay, TofinoModel::PAPER.pipeline_latency_ns(4));
        assert_eq!(ctx.charged, TofinoModel::PAPER.service_ns(4));
    }

    #[test]
    fn install_epoch_resets_counter_and_rotates_keys() {
        let mut seq = hm_sequencer();
        let mut ctx = Collect::new();
        seq.on_message(
            Addr::Client(neo_wire::ClientId(0)),
            &unstamped(b"a"),
            &mut ctx,
        );
        assert_eq!(seq.next_seq(), SeqNum(2));
        seq.install_epoch(EpochNum(1));
        assert_eq!(seq.epoch(), EpochNum(1));
        assert_eq!(seq.next_seq(), SeqNum::FIRST);
        let mut ctx2 = Collect::new();
        seq.on_message(
            Addr::Client(neo_wire::ClientId(0)),
            &unstamped(b"b"),
            &mut ctx2,
        );
        let (_, pkt, _) = &ctx2.packets()[0];
        assert_eq!(pkt.header.epoch, EpochNum(1));
        // Epoch-1 packets verify under epoch-1 keys, not epoch-0 keys.
        let Authenticator::HmacVector(tags) = &pkt.header.auth else {
            panic!()
        };
        let k1 = keys().sequencer_hmac_key(G, EpochNum(1), ReplicaId(0));
        let k0 = keys().sequencer_hmac_key(G, EpochNum(0), ReplicaId(0));
        assert!(k1.verify(&pkt.header.auth_input(), &tags[0]).is_ok());
        assert!(k0.verify(&pkt.header.auth_input(), &tags[0]).is_err());
    }

    #[test]
    fn stale_install_is_ignored() {
        let mut seq = hm_sequencer();
        seq.install_epoch(EpochNum(2));
        let mut ctx = Collect::new();
        let stale = Envelope::Config(ConfigMsg::InstallSequencer {
            group: G,
            epoch: EpochNum(1),
        });
        seq.on_message(Addr::Config, &stale.to_bytes(), &mut ctx);
        assert_eq!(seq.epoch(), EpochNum(2));
    }

    #[test]
    fn already_stamped_packets_are_ignored() {
        let mut seq = hm_sequencer();
        let mut ctx = Collect::new();
        seq.on_message(
            Addr::Client(neo_wire::ClientId(0)),
            &unstamped(b"a"),
            &mut ctx,
        );
        let replay = ctx.sends[0].1.clone();
        let before = seq.stamped;
        seq.on_message(Addr::Replica(ReplicaId(3)), &replay, &mut ctx);
        assert_eq!(
            seq.stamped, before,
            "replayed stamped packet not re-stamped"
        );
    }
}
