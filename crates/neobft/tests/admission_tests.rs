#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

//! Admission before authentication (DESIGN.md §16): a signed
//! replica-to-replica message pays for its Ed25519 check only while the
//! verdict can still change state. These tests count the meter's
//! parallel-lane verify charges instead of timing anything — the meter
//! repeats exactly.

use neo_aom::Envelope;
use neo_app::EchoApp;
use neo_core::messages::{
    gap_decision_digest, sign_body, GapDecisionBody, GapDropBody, GapVoteBody, SyncBody,
};
use neo_core::{LogEntry, NeoConfig, NeoMsg, Replica};
use neo_crypto::{CostModel, Digest, NodeCrypto, Principal, Signature, SystemKeys};
use neo_sim::{Node, RecordingContext};
use neo_wire::{Addr, Payload, ReplicaId, SlotNum, ViewId};

const F: usize = 2;
const N: u32 = 3 * F as u32 + 1;
const QUORUM: usize = 2 * F + 1;
const COSTS: CostModel = CostModel::CALIBRATED;

fn keys() -> SystemKeys {
    SystemKeys::new(3, N as usize, 1)
}

/// The replica under test: replica 1, a non-leader in the initial view.
fn replica() -> Replica {
    replica_with(NeoConfig::new(F))
}

fn replica_with(cfg: NeoConfig) -> Replica {
    Replica::new(ReplicaId(1), cfg, &keys(), COSTS, Box::new(EchoApp::new()))
}

fn signer(r: u32) -> NodeCrypto {
    NodeCrypto::new(Principal::Replica(ReplicaId(r)), &keys(), CostModel::FREE)
}

/// Hand `msg` to the replica; returns the protocol messages it sent in
/// response (one per destination).
fn deliver(r: &mut Replica, from: u32, msg: NeoMsg) -> Vec<NeoMsg> {
    let mut out = RecordingContext::new(Addr::Replica(ReplicaId(1)));
    r.on_message(
        Addr::Replica(ReplicaId(from)),
        &msg.to_app_bytes(),
        &mut out,
    );
    let decode = |p: &Payload| match Envelope::from_bytes(p.as_slice()) {
        Ok(Envelope::App(bytes)) => NeoMsg::from_app_bytes(&bytes),
        _ => None,
    };
    out.sends.iter().filter_map(|(_, p)| decode(p)).collect()
}

/// Run a whole drop agreement for `slot` past the replica: the decision,
/// then prepares and commits from enough others. Returns everything the
/// replica sent on the way.
fn commit_noop(r: &mut Replica, slot: u64) -> Vec<NeoMsg> {
    let mut sent = deliver(r, 0, drop_decision(slot, &[0, 2, 3, 4, 5]));
    for from in [0, 2, 3] {
        let (body, sig) = gap_vote(from, slot, false);
        sent.extend(deliver(r, from, NeoMsg::GapPrepare(body, sig)));
    }
    for from in [0, 2, 3, 4] {
        let (body, sig) = gap_vote(from, slot, false);
        sent.extend(deliver(r, from, NeoMsg::GapCommit(body, sig)));
    }
    sent
}

fn settle_sync_round(r: &mut Replica, slot: u64) {
    for from in [0, 2, 3, 4] {
        let (body, sig) = sync_vote(from, slot);
        deliver(r, from, NeoMsg::Sync(body, sig));
    }
    assert_eq!(r.sync_point(), SlotNum(slot));
}

/// Ed25519 verifies charged to the parallel lane since the last call.
fn verifies(r: &Replica) -> usize {
    let (_, parallel) = r.meter().expect("replicas are metered").drain();
    parallel
        .iter()
        .filter(|ns| **ns == COSTS.ed25519_verify)
        .count()
}

fn sync_vote(from: u32, slot: u64) -> (SyncBody, Signature) {
    let body = SyncBody {
        view: ViewId::INITIAL,
        replica: ReplicaId(from),
        slot: SlotNum(slot),
        drops: vec![],
        state_digest: Digest::ZERO,
    };
    let sig = sign_body(&body, &signer(from));
    (body, sig)
}

fn gap_vote(from: u32, slot: u64, recv: bool) -> (GapVoteBody, Signature) {
    let body = GapVoteBody {
        view: ViewId::INITIAL,
        replica: ReplicaId(from),
        slot: SlotNum(slot),
        recv,
    };
    let sig = sign_body(&body, &signer(from));
    (body, sig)
}

/// The leader's drop decision for `slot`, carrying one gap-drop from
/// each of `droppers`.
fn drop_decision(slot: u64, droppers: &[u32]) -> NeoMsg {
    let drops = droppers
        .iter()
        .map(|&r| {
            let body = GapDropBody {
                view: ViewId::INITIAL,
                replica: ReplicaId(r),
                slot: SlotNum(slot),
            };
            let sig = sign_body(&body, &signer(r));
            (body, sig)
        })
        .collect();
    let decision = GapDecisionBody::Drop(drops);
    let sig = signer(0).sign(&gap_decision_digest(
        ViewId::INITIAL,
        SlotNum(slot),
        &decision,
    ));
    NeoMsg::GapDecision {
        view: ViewId::INITIAL,
        slot: SlotNum(slot),
        decision,
        sig,
    }
}

#[test]
fn sync_votes_are_verified_only_up_to_the_quorum() {
    let mut r = replica();
    verifies(&r);
    // 2f votes from others settle the round (§B.2) ...
    for from in [0, 2, 3, 4] {
        let (body, sig) = sync_vote(from, 128);
        deliver(&mut r, from, NeoMsg::Sync(body, sig));
    }
    assert_eq!(r.sync_point(), SlotNum(128));
    assert_eq!(verifies(&r), 2 * F);
    // ... and the votes behind the quorum cost no signature check.
    for from in [5, 6] {
        let (body, sig) = sync_vote(from, 128);
        deliver(&mut r, from, NeoMsg::Sync(body, sig));
    }
    assert_eq!(verifies(&r), 0);
    assert_eq!(r.stats.sync_points, 1);
}

#[test]
fn a_second_sync_vote_from_one_sender_is_not_verified() {
    let mut r = replica();
    let (body, sig) = sync_vote(0, 128);
    deliver(&mut r, 0, NeoMsg::Sync(body.clone(), sig.clone()));
    assert_eq!(verifies(&r), 1);
    deliver(&mut r, 0, NeoMsg::Sync(body, sig));
    assert_eq!(verifies(&r), 0);
    assert_eq!(r.sync_point(), SlotNum(0), "one sender is one vote");
}

#[test]
fn a_forged_sync_vote_before_the_quorum_is_verified_rejected_and_not_counted() {
    let mut r = replica();
    // Replica 2's vote under replica 3's signature.
    let (body, _) = sync_vote(2, 128);
    let (_, wrong_sig) = sync_vote(3, 128);
    deliver(&mut r, 2, NeoMsg::Sync(body, wrong_sig));
    assert_eq!(verifies(&r), 1, "before the quorum every vote is checked");
    for from in [0, 3, 4] {
        let (body, sig) = sync_vote(from, 128);
        deliver(&mut r, from, NeoMsg::Sync(body, sig));
    }
    assert_eq!(
        r.sync_point(),
        SlotNum(0),
        "2f - 1 valid votes and a forgery are not a quorum"
    );
    // The forgery did not occupy replica 2's place: its real vote counts.
    let (body, sig) = sync_vote(2, 128);
    deliver(&mut r, 2, NeoMsg::Sync(body, sig));
    assert_eq!(r.sync_point(), SlotNum(128));
    assert_eq!(verifies(&r), 4);
}

#[test]
fn a_gap_round_verifies_each_phase_only_up_to_its_threshold() {
    let mut r = replica();
    verifies(&r);
    // The decision: the leader's signature plus 2f+1 of the seven drops
    // it carries.
    deliver(&mut r, 0, drop_decision(0, &[0, 1, 2, 3, 4, 5, 6]));
    assert_eq!(verifies(&r), 1 + QUORUM);
    // A second copy of a decision the round already holds: nothing.
    deliver(&mut r, 0, drop_decision(0, &[0, 1, 2, 3, 4, 5, 6]));
    assert_eq!(verifies(&r), 0);

    // Prepares: our own is held, so 2f - 1 more reach the threshold; the
    // replica commits and the other prepares no longer matter.
    for from in [0, 2, 3, 4, 5, 6] {
        let (body, sig) = gap_vote(from, 0, false);
        deliver(&mut r, from, NeoMsg::GapPrepare(body, sig));
    }
    assert_eq!(verifies(&r), 2 * F - 1);

    // Commits: our own plus 2f resolve the slot as a no-op.
    for from in [0, 2, 3, 4, 5, 6] {
        let (body, sig) = gap_vote(from, 0, false);
        deliver(&mut r, from, NeoMsg::GapCommit(body, sig));
    }
    assert_eq!(verifies(&r), 2 * F);
    assert!(matches!(
        r.log().entry(SlotNum(0)),
        Some(LogEntry::NoOp(Some(cert))) if cert.len() == QUORUM
    ));
    assert_eq!(r.stats.noops_committed, 1);
}

#[test]
fn gap_votes_buffered_before_the_decision_are_bounded_and_deduplicated() {
    let mut r = replica();
    verifies(&r);
    for from in [0, 2, 3, 4, 5, 6] {
        let (body, sig) = gap_vote(from, 0, false);
        deliver(&mut r, from, NeoMsg::GapPrepare(body, sig.clone()));
        deliver(&mut r, from, NeoMsg::GapPrepare(body, sig)); // repeat
    }
    assert_eq!(verifies(&r), 2 * F, "2f prepares for one outcome suffice");
    for from in [0, 2, 3, 4, 5, 6] {
        let (body, sig) = gap_vote(from, 0, false);
        deliver(&mut r, from, NeoMsg::GapCommit(body, sig.clone()));
        deliver(&mut r, from, NeoMsg::GapCommit(body, sig));
    }
    assert_eq!(verifies(&r), QUORUM, "2f+1 commits for one outcome suffice");
    // The buffered votes are real: the decision alone completes the round.
    deliver(&mut r, 0, drop_decision(0, &[0, 2, 3, 4, 5]));
    assert_eq!(r.stats.noops_committed, 1);
}

#[test]
fn a_forged_gap_vote_is_rejected_and_leaves_room_for_the_real_one() {
    let mut r = replica();
    deliver(&mut r, 0, drop_decision(0, &[0, 2, 3, 4, 5]));
    verifies(&r);
    // Replica 2's prepare under replica 3's signature, then a vote for
    // the outcome the decision ruled out.
    let (body, _) = gap_vote(2, 0, false);
    let (_, wrong_sig) = gap_vote(3, 0, false);
    deliver(&mut r, 2, NeoMsg::GapPrepare(body, wrong_sig));
    assert_eq!(verifies(&r), 1);
    let (body, sig) = gap_vote(4, 0, true);
    deliver(&mut r, 4, NeoMsg::GapPrepare(body, sig));
    assert_eq!(verifies(&r), 0, "a vote against the decision cannot count");
    // Own prepare + replicas 0 and 3: one short of 2f, so the forgery
    // must not have counted ...
    for from in [0, 3] {
        let (body, sig) = gap_vote(from, 0, false);
        deliver(&mut r, from, NeoMsg::GapPrepare(body, sig));
    }
    // ... which the commit phase shows: with 2f commits from others the
    // slot resolves only once this replica's own commit joins them, and
    // that needs the prepare threshold.
    for from in [0, 3, 4, 5] {
        let (body, sig) = gap_vote(from, 0, false);
        deliver(&mut r, from, NeoMsg::GapCommit(body, sig));
    }
    assert_eq!(r.stats.noops_committed, 0);
    // Replica 2's real prepare still gets in and tips the round over.
    let (body, sig) = gap_vote(2, 0, false);
    deliver(&mut r, 2, NeoMsg::GapPrepare(body, sig));
    assert_eq!(r.stats.noops_committed, 1);
}

#[test]
fn finished_gap_rounds_give_up_their_votes_at_the_sync_point_and_cannot_be_replayed() {
    let mut r = replica();
    commit_noop(&mut r, 0);
    assert_eq!(r.stats.noops_committed, 1);
    // 2f prepares and 2f+1 commits, held until the sync point passes.
    assert_eq!(r.gap_votes_held(), 2 * F + QUORUM);
    settle_sync_round(&mut r, 128);
    assert_eq!(r.gap_votes_held(), 0);

    // The whole round again, as a replaying network would deliver it: the
    // slot is final, so nothing is verified, sent, committed or rolled
    // back, and no round comes back.
    verifies(&r);
    let rollbacks = r.stats.rollbacks;
    let sent = commit_noop(&mut r, 0);
    for from in [5, 6] {
        let (body, sig) = gap_vote(from, 0, false);
        deliver(&mut r, from, NeoMsg::GapPrepare(body, sig.clone()));
        deliver(&mut r, from, NeoMsg::GapCommit(body, sig));
    }
    assert_eq!(verifies(&r), 0);
    assert!(sent.is_empty(), "no prepare, no commit");
    assert_eq!(r.stats.noops_committed, 1);
    assert_eq!(r.stats.rollbacks, rollbacks);
    assert_eq!(r.gap_votes_held(), 0);
    assert!(matches!(
        r.log().entry(SlotNum(0)),
        Some(LogEntry::NoOp(Some(cert))) if cert.len() == QUORUM
    ));
}

#[test]
fn sync_votes_keep_carrying_a_noop_certificate_past_its_sync_point() {
    // A peer that missed the agreement on slot 0 *and* the sync round
    // that finalized it must still find the certificate in the next vote.
    let mut cfg = NeoConfig::new(F);
    cfg.sync_interval = 1;
    let mut r = replica_with(cfg);
    let carried = |sent: &[NeoMsg], at: u64| -> Vec<u64> {
        let vote = sent.iter().find_map(|m| match m {
            NeoMsg::Sync(body, _) if body.slot == SlotNum(at) => Some(body),
            _ => None,
        });
        let vote = vote.expect("the replica voted in this sync round");
        vote.drops.iter().map(|(slot, _)| slot.0).collect()
    };
    let sent = commit_noop(&mut r, 0);
    assert_eq!(carried(&sent, 1), vec![0]);
    settle_sync_round(&mut r, 1);
    assert_eq!(
        r.gap_votes_held(),
        0,
        "slot 0's round is down to its marker"
    );
    let sent = commit_noop(&mut r, 1);
    assert_eq!(carried(&sent, 2), vec![0, 1]);
}
