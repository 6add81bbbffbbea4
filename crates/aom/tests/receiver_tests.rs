#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

//! Receiver-library tests: every aom guarantee from §3.2, exercised
//! through the public API with a real sequencer state machine on the
//! other end.

use neo_aom::{
    AomError, AomPacket, AomReceiver, AuthMode, Behavior, Delivery, Envelope, NetworkTrust,
    ReceiverAuth, SequencerHw, SequencerNode,
};
use neo_crypto::{CostModel, NodeCrypto, Principal, SystemKeys};
use neo_sim::{Context, TimerId};
use neo_wire::{Addr, AomHeader, ClientId, EpochNum, GroupId, Payload, ReplicaId, SeqNum};

const G: GroupId = GroupId(0);
const N: usize = 4;
const F: usize = 1;

fn keys() -> SystemKeys {
    SystemKeys::new(99, N, 2)
}

fn crypto_for(r: u32) -> NodeCrypto {
    NodeCrypto::new(Principal::Replica(ReplicaId(r)), &keys(), CostModel::FREE)
}

/// Collects sequencer output without a full simulator.
struct Collect {
    sends: Vec<(Addr, Payload)>,
}
impl Collect {
    fn new() -> Self {
        Collect { sends: vec![] }
    }
    /// Stamped packets destined for replica `r`.
    fn packets_for(&self, r: u32) -> Vec<AomPacket> {
        self.sends
            .iter()
            .filter(|(a, _)| *a == Addr::Replica(ReplicaId(r)))
            .filter_map(|(_, b)| match Envelope::from_bytes(b) {
                Ok(Envelope::Aom(p)) => Some(p),
                _ => None,
            })
            .collect()
    }
}
impl Context for Collect {
    fn now(&self) -> u64 {
        0
    }
    fn me(&self) -> Addr {
        Addr::Sequencer(G)
    }
    fn send_after(&mut self, to: Addr, payload: Payload, _d: u64) {
        self.sends.push((to, payload));
    }
    fn set_timer(&mut self, _delay: u64, _kind: u32) -> TimerId {
        TimerId(0)
    }
    fn cancel_timer(&mut self, _t: TimerId) {}
    fn charge(&mut self, _ns: u64) {}
}

fn sequencer(mode: AuthMode) -> SequencerNode {
    SequencerNode::new(
        G,
        (0..N as u32).map(ReplicaId).collect(),
        mode,
        SequencerHw::Software(CostModel::FREE),
        &keys(),
    )
}

fn stamp_many(seq: &mut SequencerNode, payloads: &[&[u8]]) -> Collect {
    let mut ctx = Collect::new();
    for p in payloads {
        let digest = neo_crypto::sha256(p);
        let pkt = Envelope::Aom(AomPacket {
            header: AomHeader::unstamped(G, digest.0),
            payload: p.to_vec(),
        });
        use neo_sim::Node as _;
        seq.on_message(Addr::Client(ClientId(0)), &pkt.to_bytes(), &mut ctx);
    }
    ctx
}

fn receiver(r: u32, auth: ReceiverAuth, trust: NetworkTrust) -> AomReceiver {
    AomReceiver::new(G, ReplicaId(r), r as usize, F, auth, trust, &keys())
}

fn deliveries(rcv: &mut AomReceiver) -> Vec<Delivery> {
    let mut out = vec![];
    while let Some(d) = rcv.poll() {
        out.push(d);
    }
    out
}

#[test]
fn hm_in_order_delivery() {
    let mut seq = sequencer(AuthMode::HmacVector);
    let ctx = stamp_many(&mut seq, &[b"a", b"b", b"c"]);
    let crypto = crypto_for(1);
    let mut rcv = receiver(1, ReceiverAuth::Hmac, NetworkTrust::Trusted);
    for pkt in ctx.packets_for(1) {
        rcv.on_packet(pkt, &crypto).unwrap();
    }
    let ds = deliveries(&mut rcv);
    assert_eq!(ds.len(), 3);
    let payloads: Vec<_> = ds
        .iter()
        .map(|d| match d {
            Delivery::Message(c) => c.packet.payload.clone(),
            other => panic!("unexpected {other:?}"),
        })
        .collect();
    assert_eq!(payloads, vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()]);
}

#[test]
fn out_of_order_packets_are_reordered() {
    let mut seq = sequencer(AuthMode::HmacVector);
    let ctx = stamp_many(&mut seq, &[b"a", b"b", b"c"]);
    let crypto = crypto_for(0);
    let mut rcv = receiver(0, ReceiverAuth::Hmac, NetworkTrust::Trusted);
    let pkts = ctx.packets_for(0);
    // Deliver 3, 1, 2.
    rcv.on_packet(pkts[2].clone(), &crypto).unwrap();
    assert!(deliveries(&mut rcv).is_empty(), "nothing until 1 arrives");
    assert_eq!(rcv.gap_pending(), Some(SeqNum(1)));
    rcv.on_packet(pkts[0].clone(), &crypto).unwrap();
    rcv.on_packet(pkts[1].clone(), &crypto).unwrap();
    let ds = deliveries(&mut rcv);
    assert_eq!(ds.len(), 3);
    assert_eq!(rcv.gap_pending(), None);
}

#[test]
fn forged_hmac_is_rejected() {
    let mut seq = sequencer(AuthMode::HmacVector);
    let ctx = stamp_many(&mut seq, &[b"a"]);
    let crypto = crypto_for(0);
    let mut rcv = receiver(0, ReceiverAuth::Hmac, NetworkTrust::Trusted);
    let mut pkt = ctx.packets_for(0)[0].clone();
    // A Byzantine relay tampers with the payload digest binding: change
    // the sequence number (reordering attack).
    pkt.header.seq = SeqNum(5);
    assert_eq!(rcv.on_packet(pkt, &crypto), Err(AomError::BadAuth));
    // And a fully forged authenticator also fails.
    let mut pkt2 = ctx.packets_for(0)[0].clone();
    if let neo_wire::Authenticator::HmacVector(tags) = &mut pkt2.header.auth {
        tags[0][0] ^= 0xFF;
    }
    assert_eq!(rcv.on_packet(pkt2, &crypto), Err(AomError::BadAuth));
}

#[test]
fn wrong_group_and_epoch_are_rejected() {
    let mut seq = sequencer(AuthMode::HmacVector);
    let ctx = stamp_many(&mut seq, &[b"a"]);
    let crypto = crypto_for(0);
    let mut rcv = receiver(0, ReceiverAuth::Hmac, NetworkTrust::Trusted);
    let mut pkt = ctx.packets_for(0)[0].clone();
    pkt.header.group = GroupId(9);
    assert_eq!(rcv.on_packet(pkt, &crypto), Err(AomError::WrongGroup));
    let mut pkt2 = ctx.packets_for(0)[0].clone();
    pkt2.header.epoch = EpochNum(3);
    assert!(matches!(
        rcv.on_packet(pkt2, &crypto),
        Err(AomError::WrongEpoch { .. })
    ));
}

#[test]
fn drop_detection_declares_gap_then_resumes() {
    let mut seq = sequencer(AuthMode::HmacVector);
    let ctx = stamp_many(&mut seq, &[b"a", b"b", b"c"]);
    let crypto = crypto_for(0);
    let mut rcv = receiver(0, ReceiverAuth::Hmac, NetworkTrust::Trusted);
    let pkts = ctx.packets_for(0);
    // Packet 2 lost in the network.
    rcv.on_packet(pkts[0].clone(), &crypto).unwrap();
    rcv.on_packet(pkts[2].clone(), &crypto).unwrap();
    let ds = deliveries(&mut rcv);
    assert_eq!(ds.len(), 1, "only 'a' so far");
    assert_eq!(rcv.gap_pending(), Some(SeqNum(2)));
    // Host timer fires:
    assert_eq!(rcv.declare_drop(), SeqNum(2));
    let ds = deliveries(&mut rcv);
    assert_eq!(ds.len(), 2);
    assert!(matches!(ds[0], Delivery::Drop(SeqNum(2))));
    match &ds[1] {
        Delivery::Message(c) => assert_eq!(c.packet.payload, b"c"),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(rcv.drops_declared, 1);
}

#[test]
fn late_arrival_after_drop_declaration_is_stale() {
    let mut seq = sequencer(AuthMode::HmacVector);
    let ctx = stamp_many(&mut seq, &[b"a", b"b"]);
    let crypto = crypto_for(0);
    let mut rcv = receiver(0, ReceiverAuth::Hmac, NetworkTrust::Trusted);
    let pkts = ctx.packets_for(0);
    rcv.on_packet(pkts[1].clone(), &crypto).unwrap();
    rcv.declare_drop(); // give up on seq 1
    assert_eq!(
        rcv.on_packet(pkts[0].clone(), &crypto),
        Err(AomError::Stale)
    );
}

#[test]
fn pk_signed_packets_verify_and_deliver() {
    let mut seq = sequencer(AuthMode::PublicKey);
    let ctx = stamp_many(&mut seq, &[b"a", b"b"]);
    let crypto = crypto_for(0);
    let mut rcv = receiver(0, ReceiverAuth::PublicKey, NetworkTrust::Trusted);
    for pkt in ctx.packets_for(0) {
        rcv.on_packet(pkt, &crypto).unwrap();
    }
    assert_eq!(deliveries(&mut rcv).len(), 2);
}

#[test]
fn pk_hash_chain_batch_verification() {
    // Force signature skipping with an FPGA controller whose table is
    // nearly empty: the first packets sign, then skipping starts, and a
    // later signed packet vouches for the skipped ones.
    use neo_switch::fpga::SigningRatioController;
    use neo_switch::FpgaModel;
    let model = FpgaModel {
        table_capacity: 260,
        skip_threshold: 256,
        precompute_rate_per_sec: 1, // effectively no refill during test
        ..FpgaModel::PAPER
    };
    let mut seq = SequencerNode::new(
        G,
        (0..N as u32).map(ReplicaId).collect(),
        AuthMode::PublicKey,
        SequencerHw::Fpga(model, SigningRatioController::new(model)),
        &keys(),
    );
    // 4 signed (stock 260 → 256), then skipped; nothing refills.
    let ctx = stamp_many(&mut seq, &[b"p1", b"p2", b"p3", b"p4", b"p5", b"p6"]);
    let pkts = ctx.packets_for(0);
    let signed: Vec<bool> = pkts
        .iter()
        .map(|p| match &p.header.auth {
            neo_wire::Authenticator::Signature { sig, .. } => sig.is_some(),
            _ => unreachable!(),
        })
        .collect();
    assert_eq!(signed, vec![true, true, true, true, false, false]);

    // Receiver sees them all; the last two stay parked (no signed
    // successor exists), the first four deliver.
    let crypto = crypto_for(0);
    let mut rcv = receiver(0, ReceiverAuth::PublicKey, NetworkTrust::Trusted);
    for p in &pkts {
        rcv.on_packet(p.clone(), &crypto).unwrap();
    }
    assert_eq!(deliveries(&mut rcv).len(), 4);

    assert_eq!(rcv.next_seq(), SeqNum(5), "5 and 6 are parked, unverified");

    // Now the pre-computer catches up and the sequencer signs packet 7.
    // Build it exactly as the switch would: prev_hash chains to packet 6.
    let p6 = &pkts[5];
    let mut h7 = AomHeader::unstamped(G, neo_crypto::sha256(b"p7").0);
    h7.epoch = EpochNum(0);
    h7.seq = SeqNum(7);
    let prev = neo_crypto::chain(neo_crypto::Digest::ZERO, &p6.header.auth_input());
    let sig = keys().sequencer_key(G, EpochNum(0)).sign(&h7.auth_input());
    h7.auth = neo_wire::Authenticator::Signature {
        sig: Some(sig.0),
        prev_hash: prev.0,
    };
    let p7 = AomPacket {
        header: h7,
        payload: b"p7".to_vec(),
    };
    rcv.on_packet(p7, &crypto).unwrap();
    // The signed packet vouches, through the hash chain, for the two
    // parked signature-less packets: all three deliver in order.
    assert_eq!(deliveries(&mut rcv).len(), 3);
    assert_eq!(rcv.next_seq(), SeqNum(8));
}

#[test]
fn byzantine_mode_requires_confirm_quorum() {
    let mut seq = sequencer(AuthMode::HmacVector);
    let ctx = stamp_many(&mut seq, &[b"a"]);
    let cryptos: Vec<NodeCrypto> = (0..N as u32).map(crypto_for).collect();
    let mut rcvs: Vec<AomReceiver> = (0..N as u32)
        .map(|r| receiver(r, ReceiverAuth::Hmac, NetworkTrust::Byzantine))
        .collect();
    // All four receivers get the packet and produce confirms.
    let mut all_confirms = vec![];
    for r in 0..N {
        let pkt = ctx.packets_for(r as u32)[0].clone();
        rcvs[r].on_packet(pkt, &cryptos[r]).unwrap();
        assert!(
            deliveries(&mut rcvs[r]).is_empty(),
            "no delivery before quorum"
        );
        all_confirms.extend(rcvs[r].take_outgoing_confirms());
    }
    assert_eq!(all_confirms.len(), N);
    // Receiver 0 needs 2f+1 = 3 matching confirms (it has its own).
    rcvs[0]
        .on_confirm(all_confirms[1].clone(), &cryptos[0])
        .unwrap();
    assert!(deliveries(&mut rcvs[0]).is_empty(), "2 of 3 so far");
    rcvs[0]
        .on_confirm(all_confirms[2].clone(), &cryptos[0])
        .unwrap();
    let ds = deliveries(&mut rcvs[0]);
    assert_eq!(ds.len(), 1);
    match &ds[0] {
        Delivery::Message(cert) => {
            assert_eq!(cert.confirms.len(), 3, "certificate carries the quorum");
            // Transferable: replica 3 can verify the full certificate.
            assert!(rcvs[3].verify_cert(cert, &cryptos[3]));
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn byzantine_mode_defeats_equivocation() {
    let mut seq = sequencer(AuthMode::HmacVector);
    seq.set_behavior(Behavior::Equivocate);
    let ctx = stamp_many(&mut seq, &[b"msg-A", b"msg-B"]);
    let cryptos: Vec<NodeCrypto> = (0..N as u32).map(crypto_for).collect();
    let mut rcvs: Vec<AomReceiver> = (0..N as u32)
        .map(|r| receiver(r, ReceiverAuth::Hmac, NetworkTrust::Byzantine))
        .collect();
    // Each half of the group sees a different message for seq 1.
    let mut confirms = vec![];
    for r in 0..N {
        let pkt = ctx.packets_for(r as u32)[0].clone();
        rcvs[r].on_packet(pkt, &cryptos[r]).unwrap();
        confirms.extend(rcvs[r].take_outgoing_confirms());
    }
    // Exchange all confirms among all receivers.
    for r in 0..N {
        for c in &confirms {
            if c.body.replica != ReplicaId(r as u32) {
                let _ = rcvs[r].on_confirm(c.clone(), &cryptos[r]);
            }
        }
    }
    // 2-2 split: nobody reaches 2f+1 = 3 matching confirms; no correct
    // receiver delivers a message for the equivocated sequence number.
    for (r, rcv) in rcvs.iter_mut().enumerate() {
        assert!(
            deliveries(rcv).is_empty(),
            "receiver {r} must not deliver on a 2-2 equivocation split"
        );
    }
}

#[test]
fn forged_confirms_do_not_count_toward_quorum() {
    let mut seq = sequencer(AuthMode::HmacVector);
    let ctx = stamp_many(&mut seq, &[b"a"]);
    let crypto = crypto_for(0);
    let mut rcv = receiver(0, ReceiverAuth::Hmac, NetworkTrust::Byzantine);
    rcv.on_packet(ctx.packets_for(0)[0].clone(), &crypto)
        .unwrap();
    let own = rcv.take_outgoing_confirms().pop().unwrap();
    // Forge confirms claiming to be replicas 1 and 2, signed wrongly.
    for forged_id in [1u32, 2] {
        let mut forged = own.clone();
        forged.body.replica = ReplicaId(forged_id);
        assert_eq!(
            rcv.on_confirm(forged, &crypto),
            Err(AomError::BadAuth),
            "signature does not match claimed replica"
        );
    }
    assert!(deliveries(&mut rcv).is_empty());
}

#[test]
fn confirms_that_cannot_matter_are_refused_before_verification() {
    let mut seq = sequencer(AuthMode::HmacVector);
    let ctx = stamp_many(&mut seq, &[b"a", b"b"]);
    let cryptos: Vec<NodeCrypto> = (0..N as u32).map(crypto_for).collect();
    let mut rcvs: Vec<AomReceiver> = (0..N as u32)
        .map(|r| receiver(r, ReceiverAuth::Hmac, NetworkTrust::Byzantine))
        .collect();
    // Receivers 1..3 see both packets; receiver 0 misses the first, so
    // its delivery of the second waits however many confirms arrive.
    let mut confirms = vec![];
    for r in 1..N {
        for pkt in ctx.packets_for(r as u32) {
            rcvs[r].on_packet(pkt, &cryptos[r]).unwrap();
        }
        confirms.extend(rcvs[r].take_outgoing_confirms());
    }
    let for_seq = |s: u64| confirms.iter().filter(move |c| c.body.seq == SeqNum(s));
    let metered = NodeCrypto::new(
        Principal::Replica(ReplicaId(0)),
        &keys(),
        CostModel::CALIBRATED,
    );
    let verifies = |c: &NodeCrypto| c.meter().drain().1.len();
    rcvs[0]
        .on_packet(ctx.packets_for(0)[1].clone(), &metered)
        .unwrap();
    verifies(&metered); // discard the confirm's signing charge
    let second: Vec<_> = for_seq(2).cloned().collect();
    // Own confirm + two peers = 2f+1 held; each peer is verified once.
    for sc in &second[..2] {
        rcvs[0].on_confirm(sc.clone(), &metered).unwrap();
        rcvs[0].on_confirm(sc.clone(), &metered).unwrap(); // repeat
    }
    assert_eq!(verifies(&metered), 2, "a held sender is not verified again");
    // The quorum is complete (delivery waits on seq 1, not on confirms):
    // the third peer's confirm is refused without a signature check.
    rcvs[0].on_confirm(second[2].clone(), &metered).unwrap();
    assert_eq!(verifies(&metered), 0);
    assert!(deliveries(&mut rcvs[0]).is_empty());
    // Once the gap fills, both deliver, each with exactly its quorum.
    rcvs[0]
        .on_packet(ctx.packets_for(0)[0].clone(), &metered)
        .unwrap();
    for sc in for_seq(1) {
        let _ = rcvs[0].on_confirm(sc.clone(), &metered); // the last is stale
    }
    let ds = deliveries(&mut rcvs[0]);
    assert_eq!(ds.len(), 2);
    for d in &ds {
        match d {
            Delivery::Message(cert) => {
                assert_eq!(cert.confirms.len(), 2 * F + 1);
                assert!(rcvs[3].verify_cert(cert, &cryptos[3]));
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}

#[test]
fn install_epoch_resets_receiver_state() {
    let mut seq = sequencer(AuthMode::HmacVector);
    let ctx = stamp_many(&mut seq, &[b"a", b"b"]);
    let crypto = crypto_for(0);
    let mut rcv = receiver(0, ReceiverAuth::Hmac, NetworkTrust::Trusted);
    for p in ctx.packets_for(0) {
        rcv.on_packet(p, &crypto).unwrap();
    }
    assert_eq!(deliveries(&mut rcv).len(), 2);
    rcv.install_epoch(EpochNum(1));
    assert_eq!(rcv.next_seq(), SeqNum::FIRST);
    // Old-epoch packets are now rejected…
    let old = {
        let ctx = stamp_many(&mut seq, &[b"c"]);
        ctx.packets_for(0)[0].clone()
    };
    assert!(matches!(
        rcv.on_packet(old, &crypto),
        Err(AomError::WrongEpoch { .. })
    ));
    // …and new-epoch packets (from the reinstalled sequencer) verify.
    seq.install_epoch(EpochNum(1));
    let ctx = stamp_many(&mut seq, &[b"d"]);
    rcv.on_packet(ctx.packets_for(0)[0].clone(), &crypto)
        .unwrap();
    assert_eq!(deliveries(&mut rcv).len(), 1);
}

#[test]
fn cert_transfer_between_receivers() {
    // Transferable authentication (§3.2): receiver 0 forwards its
    // delivered certificate; receiver 2 verifies it independently even
    // though it never saw the original packet.
    let mut seq = sequencer(AuthMode::HmacVector);
    let ctx = stamp_many(&mut seq, &[b"a"]);
    let c0 = crypto_for(0);
    let c2 = crypto_for(2);
    let mut r0 = receiver(0, ReceiverAuth::Hmac, NetworkTrust::Trusted);
    let r2 = receiver(2, ReceiverAuth::Hmac, NetworkTrust::Trusted);
    r0.on_packet(ctx.packets_for(0)[0].clone(), &c0).unwrap();
    let Delivery::Message(cert) = r0.poll().unwrap() else {
        panic!()
    };
    assert!(r2.verify_cert(&cert, &c2));
    // Tampered certificates fail.
    let mut bad = cert.clone();
    bad.packet.header.seq = SeqNum(9);
    assert!(!r2.verify_cert(&bad, &c2));
}

#[test]
fn tampered_hmac_bumps_auth_rejected_counter() {
    // A single bit flipped in flight — exactly what the simulator's
    // `Tamper` fault does — must surface as BadAuth and be visible in
    // the receiver's observability counters (aom-hm path).
    let mut seq = sequencer(AuthMode::HmacVector);
    let ctx = stamp_many(&mut seq, &[b"a"]);
    let crypto = crypto_for(0);
    let mut rcv = receiver(0, ReceiverAuth::Hmac, NetworkTrust::Trusted);
    assert_eq!(rcv.stats().auth_rejected, 0);
    let mut pkt = ctx.packets_for(0)[0].clone();
    if let neo_wire::Authenticator::HmacVector(tags) = &mut pkt.header.auth {
        tags[0][3] ^= 0x01;
    }
    assert_eq!(rcv.on_packet(pkt, &crypto), Err(AomError::BadAuth));
    assert_eq!(rcv.stats().auth_rejected, 1);
    // A payload flip under an intact stamp breaks the digest binding.
    let mut pkt = ctx.packets_for(0)[0].clone();
    pkt.payload[0] ^= 0x01;
    assert_eq!(rcv.on_packet(pkt, &crypto), Err(AomError::BadAuth));
    assert_eq!(rcv.stats().auth_rejected, 2);
    // The pristine copy still verifies; the counter stays put.
    rcv.on_packet(ctx.packets_for(0)[0].clone(), &crypto)
        .unwrap();
    assert_eq!(deliveries(&mut rcv).len(), 1);
    assert_eq!(rcv.stats().auth_rejected, 2);
}

#[test]
fn tampered_signature_bumps_auth_rejected_counter() {
    // Same single-bit corruption on the aom-pk path: a flipped byte in
    // the sequencer signature must fail verification and be counted.
    let mut seq = sequencer(AuthMode::PublicKey);
    let ctx = stamp_many(&mut seq, &[b"a"]);
    let crypto = crypto_for(0);
    let mut rcv = receiver(0, ReceiverAuth::PublicKey, NetworkTrust::Trusted);
    let mut pkt = ctx.packets_for(0)[0].clone();
    match &mut pkt.header.auth {
        neo_wire::Authenticator::Signature {
            sig: Some(bytes), ..
        } => bytes[0] ^= 0x01,
        other => panic!("expected a signed packet, got {other:?}"),
    }
    assert_eq!(rcv.on_packet(pkt, &crypto), Err(AomError::BadAuth));
    assert_eq!(rcv.stats().auth_rejected, 1);
    rcv.on_packet(ctx.packets_for(0)[0].clone(), &crypto)
        .unwrap();
    assert_eq!(deliveries(&mut rcv).len(), 1);
    assert_eq!(rcv.stats().auth_rejected, 1);
}

#[test]
fn auth_scheme_confusion_and_forged_confirms_are_counted() {
    // Type confusion: an hm receiver handed a pk-authenticated packet.
    let mut pk_seq = sequencer(AuthMode::PublicKey);
    let ctx = stamp_many(&mut pk_seq, &[b"a"]);
    let crypto = crypto_for(0);
    let mut rcv = receiver(0, ReceiverAuth::Hmac, NetworkTrust::Trusted);
    let pkt = ctx.packets_for(0)[0].clone();
    assert_eq!(rcv.on_packet(pkt, &crypto), Err(AomError::BadAuth));
    assert_eq!(rcv.stats().auth_rejected, 1);

    // Forged confirm signatures count on the Byzantine-network path too.
    let mut seq = sequencer(AuthMode::HmacVector);
    let ctx = stamp_many(&mut seq, &[b"a"]);
    let mut rcv = receiver(0, ReceiverAuth::Hmac, NetworkTrust::Byzantine);
    rcv.on_packet(ctx.packets_for(0)[0].clone(), &crypto)
        .unwrap();
    let mut forged = rcv.take_outgoing_confirms().pop().unwrap();
    forged.body.replica = ReplicaId(2);
    assert_eq!(rcv.on_confirm(forged, &crypto), Err(AomError::BadAuth));
    assert_eq!(rcv.stats().auth_rejected, 1);
}

#[test]
fn tampering_one_op_inside_a_batch_is_rejected() {
    // Regression for the batch digest binding: the aom header digest is
    // computed over the *encoded batch body*, so flipping one bit in any
    // single op of a multi-op batch must fail the payload-digest check —
    // a relay cannot swap an op inside an otherwise-valid batch.
    use neo_aom::AomBatch;
    let batch = AomBatch {
        ops: vec![
            b"op-alpha".to_vec(),
            b"op-beta".to_vec(),
            b"op-gamma".to_vec(),
        ],
    };
    let body = batch.to_bytes();
    let mut seq = sequencer(AuthMode::HmacVector);
    let ctx = stamp_many(&mut seq, &[&body]);
    let crypto = crypto_for(0);
    let mut rcv = receiver(0, ReceiverAuth::Hmac, NetworkTrust::Trusted);

    // Tamper with exactly one op in the middle of the batch (the encoded
    // body embeds each op verbatim, so locate op two and flip one bit).
    let mut pkt = ctx.packets_for(0)[0].clone();
    let pos = pkt
        .payload
        .windows(b"op-beta".len())
        .position(|w| w == b"op-beta")
        .expect("op embedded in encoded batch");
    pkt.payload[pos] ^= 0x01;
    let decoded = AomBatch::from_bytes(&pkt.payload).expect("still a well-formed batch");
    assert_eq!(decoded.len(), 3, "framing intact; only op content changed");
    assert_eq!(rcv.on_packet(pkt, &crypto), Err(AomError::BadAuth));
    assert_eq!(rcv.stats().auth_rejected, 1);

    // The pristine batch still verifies and delivers all ops intact.
    rcv.on_packet(ctx.packets_for(0)[0].clone(), &crypto)
        .unwrap();
    let ds = deliveries(&mut rcv);
    assert_eq!(ds.len(), 1);
    match &ds[0] {
        Delivery::Message(cert) => {
            let got = AomBatch::from_bytes(&cert.packet.payload).unwrap();
            assert_eq!(got, batch);
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn pipelined_verification_accepts_and_rejects_identically() {
    // Pipelining only moves verification cost to the parallel lane; the
    // accept/reject behaviour must be bit-identical. This is the path a
    // replica drives: submit, verify on the parallel lane, complete.
    let mut seq = sequencer(AuthMode::HmacVector);
    let ctx = stamp_many(&mut seq, &[b"a", b"b"]);
    let crypto = crypto_for(0);
    let mut rcv = receiver(0, ReceiverAuth::Hmac, NetworkTrust::Trusted);
    let mut pipelined = |pkt: AomPacket| {
        let mut job = rcv.submit_verify(pkt)?;
        job.verify(&crypto, true);
        rcv.complete_verify(job, &crypto)
    };
    let mut tampered = ctx.packets_for(0)[0].clone();
    tampered.payload[0] ^= 0x01;
    assert_eq!(pipelined(tampered), Err(AomError::BadAuth));
    for p in ctx.packets_for(0) {
        pipelined(p).unwrap();
    }
    assert_eq!(deliveries(&mut rcv).len(), 2);
}

#[test]
fn unstamped_packets_are_rejected() {
    let crypto = crypto_for(0);
    let mut rcv = receiver(0, ReceiverAuth::Hmac, NetworkTrust::Trusted);
    let pkt = AomPacket {
        header: AomHeader::unstamped(G, [0u8; 32]),
        payload: b"x".to_vec(),
    };
    assert_eq!(rcv.on_packet(pkt, &crypto), Err(AomError::Unstamped));
}

#[test]
fn fast_forward_skips_recovered_prefix() {
    // A restarted replica recovers seqs 1..=2 from its own disk, then
    // fast-forwards the receiver: 1 and 2 must never be redelivered,
    // and 3 flows normally.
    let mut seq = sequencer(AuthMode::HmacVector);
    let ctx = stamp_many(&mut seq, &[b"a", b"b", b"c"]);
    let crypto = crypto_for(1);
    let mut rcv = receiver(1, ReceiverAuth::Hmac, NetworkTrust::Trusted);
    rcv.fast_forward(SeqNum(3));
    assert_eq!(rcv.next_seq(), SeqNum(3));
    let pkts = ctx.packets_for(1);
    assert_eq!(
        rcv.on_packet(pkts[0].clone(), &crypto),
        Err(AomError::Stale)
    );
    rcv.on_packet(pkts[2].clone(), &crypto).unwrap();
    let ds = deliveries(&mut rcv);
    assert_eq!(ds.len(), 1);
    match &ds[0] {
        Delivery::Message(c) => assert_eq!(c.packet.payload, b"c".to_vec()),
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn fast_forward_discards_buffered_prefix_and_releases_contiguous_tail() {
    // Seq 1 missing, 2 and 3 buffered: fast-forwarding to 2 discards
    // nothing relevant, delivers 2 and 3 immediately; a later attempt
    // to rewind the frontier is refused.
    let mut seq = sequencer(AuthMode::HmacVector);
    let ctx = stamp_many(&mut seq, &[b"a", b"b", b"c"]);
    let crypto = crypto_for(1);
    let mut rcv = receiver(1, ReceiverAuth::Hmac, NetworkTrust::Trusted);
    let pkts = ctx.packets_for(1);
    rcv.on_packet(pkts[1].clone(), &crypto).unwrap();
    rcv.on_packet(pkts[2].clone(), &crypto).unwrap();
    assert!(deliveries(&mut rcv).is_empty(), "gap at seq 1 blocks");
    rcv.fast_forward(SeqNum(2));
    assert_eq!(deliveries(&mut rcv).len(), 2);
    rcv.fast_forward(SeqNum(1)); // backwards: ignored
    assert_eq!(rcv.next_seq(), SeqNum(4));
}
