#![allow(clippy::unwrap_used, clippy::expect_used)] // test code may panic freely

//! Randomized tests of the replica log's hash-chain invariants, as
//! seeded loops on the in-tree `rand`: every case is a function of its
//! number, so a failure names the case that reproduces it.

use neo_aom::{AomPacket, OrderingCert};
use neo_core::{Log, LogEntry};
use neo_wire::{AomHeader, GroupId, SeqNum, SlotNum};
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Cases per property.
const CASES: u64 = 256;

fn case_rng(property: u64, case: u64) -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(property << 32 | case)
}

fn oc(seq: u64, payload: u8) -> OrderingCert {
    let mut header = AomHeader::unstamped(GroupId(0), neo_crypto::sha256(&[payload]).0);
    header.seq = SeqNum(seq);
    header.auth = neo_wire::Authenticator::HmacVector(vec![[0u8; 8]; 4]);
    OrderingCert {
        packet: AomPacket {
            header,
            payload: vec![payload],
        },
        confirms: vec![],
    }
}

/// A build step for a log.
#[derive(Clone, Debug)]
enum Step {
    AppendRequest(u8),
    AppendPending,
    /// Resolve the oldest pending slot (if any) as a request / no-op.
    ResolveOldest(bool, u8),
    /// Cut the held slots down to this share (in 256ths) of them.
    Truncate(u8),
    /// Adopt a checkpoint at the resolved prefix: a fresh log
    /// `with_base` there, seeded with the chain hash.
    Rebase,
    /// Let go of this share (in 256ths) of the held resolved prefix, in
    /// place — what a live replica does below its stable checkpoint.
    Cut(u8),
}

fn random_steps(rng: &mut ChaCha8Rng) -> Vec<Step> {
    let n = rng.gen_range(0..60);
    (0..n)
        .map(|_| match rng.gen_range(0..14) {
            0..=4 => Step::AppendRequest(rng.gen()),
            5..=6 => Step::AppendPending,
            7..=9 => Step::ResolveOldest(rng.gen(), rng.gen()),
            10 => Step::Truncate(rng.gen()),
            11 => Step::Rebase,
            _ => Step::Cut(rng.gen()),
        })
        .collect()
}

/// Apply steps to an empty log. After every step the exec records are
/// exactly as long as the log.
fn build(steps: &[Step]) -> Log {
    build_with_reference(steps).0
}

/// [`build`], and beside it the reference: the same slots in a log that
/// grew from genesis and never let go of anything.
fn build_with_reference(steps: &[Step]) -> (Log, Log) {
    let mut log = Log::new();
    let mut reference = Log::new();
    let mut seq = 1u64;
    for step in steps {
        match step {
            Step::AppendRequest(p) => {
                log.append_request(oc(seq, *p));
                reference.append_request(oc(seq, *p));
                seq += 1;
            }
            Step::AppendPending => {
                log.append_pending();
                reference.append_pending();
                seq += 1;
            }
            Step::ResolveOldest(as_request, p) => {
                if let Some(slot) = log.first_pending() {
                    let entry = if *as_request {
                        LogEntry::Request(oc(slot.0 + 1, *p))
                    } else {
                        LogEntry::NoOp(None)
                    };
                    log.fill(slot, entry.clone()).unwrap();
                    reference.fill(slot, entry).unwrap();
                }
            }
            Step::Truncate(share) => {
                let held = log.len().0 - log.base().0;
                let len = SlotNum(log.base().0 + held * *share as u64 / 256);
                log.truncate(len);
                reference.truncate(len);
            }
            Step::Rebase => {
                let prefix = log.resolved_prefix_len();
                if prefix.0 > 0 {
                    let seed = log.hash_at(SlotNum(prefix.0 - 1)).unwrap();
                    log = Log::with_base(prefix, seed);
                    reference.truncate(prefix);
                }
            }
            Step::Cut(share) => {
                let held = log.resolved_prefix_len().0 - log.base().0;
                let cut = SlotNum(log.base().0 + held * *share as u64 / 256);
                if cut.0 > 0 {
                    let seed = log.hash_at(SlotNum(cut.0 - 1)).unwrap();
                    let old_base = log.base();
                    let dropped = log.rebase(cut, seed);
                    assert_eq!(log.base(), cut, "{steps:?}");
                    assert_eq!(dropped, cut.0 - old_base.0, "{steps:?}");
                }
            }
        }
        assert_eq!(
            log.exec_digests().len() as u64,
            log.len().0,
            "exec records out of step with the log after {step:?} of {steps:?}"
        );
        assert_eq!(log.len(), reference.len(), "after {step:?} of {steps:?}");
    }
    (log, reference)
}

/// Hashes exist exactly for the resolved prefix the log still holds (and
/// for the slot just below a base), and the watermark equals the first
/// pending slot (or the tail).
#[test]
fn watermark_matches_first_pending() {
    for case in 0..CASES {
        let steps = random_steps(&mut case_rng(1, case));
        let log = build(&steps);
        let prefix = log.resolved_prefix_len();
        match log.first_pending() {
            Some(p) => assert_eq!(prefix, p, "case {case}: {steps:?}"),
            None => assert_eq!(prefix, log.len(), "case {case}: {steps:?}"),
        }
        for i in 0..log.len().0 {
            let slot = SlotNum(i);
            let hashed = log.hash_at(slot).is_some();
            let held = log.entry(slot).is_some();
            let expect_hash = i + 1 >= log.base().0 && i < prefix.0;
            let expect_entry = i >= log.base().0 && i < prefix.0;
            assert_eq!(hashed, expect_hash, "case {case}, slot {i}: {steps:?}");
            assert!(held || !expect_entry, "case {case}, slot {i}: {steps:?}");
        }
    }
}

/// Letting go of a prefix changes nothing above it: every hash at or
/// above the base — and the seed just below it — is the one a log that
/// grew from genesis holds there, and so is every entry and every
/// pending slot.
#[test]
fn a_cut_log_is_the_suffix_of_the_genesis_grown_one() {
    for case in 0..CASES {
        let steps = random_steps(&mut case_rng(5, case));
        let (log, reference) = build_with_reference(&steps);
        assert_eq!(
            log.resolved_prefix_len(),
            reference.resolved_prefix_len(),
            "case {case}: {steps:?}"
        );
        let base = log.base().0;
        for i in base.saturating_sub(1)..log.len().0 {
            let slot = SlotNum(i);
            assert_eq!(
                log.hash_at(slot),
                reference.hash_at(slot),
                "case {case}, slot {i}: {steps:?}"
            );
        }
        for i in base..log.len().0 {
            let slot = SlotNum(i);
            assert_eq!(
                log.entry(slot),
                reference.entry(slot),
                "case {case}, slot {i}"
            );
            assert_eq!(
                log.is_pending(slot),
                reference.is_pending(slot),
                "case {case}"
            );
        }
        for i in 0..base.saturating_sub(1) {
            assert_eq!(log.hash_at(SlotNum(i)), None, "case {case}, slot {i}");
            assert_eq!(log.entry(SlotNum(i)), None, "case {case}, slot {i}");
        }
        assert_eq!(log.exec_digests().len() as u64, log.len().0, "case {case}");
    }
}

/// Two logs whose resolved prefixes contain identical entries have
/// identical hashes there — regardless of how the entries arrived
/// (straight appends vs. gaps resolved later).
#[test]
fn hash_depends_only_on_content() {
    for case in 0..CASES {
        let mut rng = case_rng(2, case);
        let entries: Vec<u8> = (0..rng.gen_range(1..30)).map(|_| rng.gen()).collect();
        // Log A: straight-line appends.
        let mut a = Log::new();
        for (i, p) in entries.iter().enumerate() {
            a.append_request(oc(i as u64 + 1, *p));
        }
        // Log B: every slot starts pending, filled in reverse order.
        let mut b = Log::new();
        for _ in &entries {
            b.append_pending();
        }
        for (i, p) in entries.iter().enumerate().rev() {
            b.fill(SlotNum(i as u64), LogEntry::Request(oc(i as u64 + 1, *p)))
                .unwrap();
        }
        assert_eq!(a.len(), b.len());
        for i in 0..entries.len() as u64 {
            assert_eq!(
                a.hash_at(SlotNum(i)),
                b.hash_at(SlotNum(i)),
                "case {case}, slot {i}: {entries:?}"
            );
        }
    }
}

/// Truncation is exact: the prefix keeps its hashes, the tail is gone.
#[test]
fn truncate_preserves_prefix() {
    for case in 0..CASES {
        let mut rng = case_rng(3, case);
        let entries: Vec<u8> = (0..rng.gen_range(1..30)).map(|_| rng.gen()).collect();
        let mut log = Log::new();
        for (i, p) in entries.iter().enumerate() {
            log.append_request(oc(i as u64 + 1, *p));
        }
        let cut = SlotNum(rng.gen_range(0..entries.len() as u64));
        let expect: Vec<_> = (0..cut.0).map(|i| log.hash_at(SlotNum(i))).collect();
        log.truncate(cut);
        assert_eq!(log.len(), cut, "case {case}");
        assert_eq!(log.exec_digests().len() as u64, cut.0, "case {case}");
        for i in 0..cut.0 {
            assert_eq!(log.hash_at(SlotNum(i)), expect[i as usize], "case {case}");
        }
    }
}

/// Wire form always equals the resolved prefix the log holds.
#[test]
fn wire_form_is_the_resolved_prefix() {
    for case in 0..CASES {
        let steps = random_steps(&mut case_rng(4, case));
        let log = build(&steps);
        let wire = log.to_wire();
        assert_eq!(
            wire.len() as u64,
            log.resolved_prefix_len().0 - log.base().0,
            "case {case}: {steps:?}"
        );
    }
}
