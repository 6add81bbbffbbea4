//! The replica log.
//!
//! Slots are filled with ordering certificates (requests) or no-ops (gap
//! agreement outcomes). A hash chain over the entries provides the O(1)
//! `log-hash` replicas put in replies (§5.3): two replicas with the same
//! log-hash at a slot agree on the entire prefix.

use crate::messages::{GapCert, WireLogEntry};
use neo_aom::OrderingCert;
use neo_crypto::{chain, Digest};
use neo_wire::{EpochNum, SlotNum};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One resolved log entry.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum LogEntry {
    /// A client request with its ordering certificate.
    Request(OrderingCert),
    /// A slot committed as a no-op. The gap certificate is attached once
    /// known (it is absent while the entry comes from a merged view-change
    /// log whose certificate lived in another entry's proof).
    NoOp(Option<GapCert>),
}

impl LogEntry {
    /// The bytes folded into the log hash chain for this entry.
    fn chain_input(&self) -> Vec<u8> {
        match self {
            LogEntry::Request(oc) => {
                let mut v = b"req".to_vec();
                v.extend_from_slice(&oc.packet.header.auth_input());
                v
            }
            LogEntry::NoOp(_) => b"noop".to_vec(),
        }
    }

    /// View-change wire form.
    pub fn to_wire(&self) -> WireLogEntry {
        match self {
            LogEntry::Request(oc) => WireLogEntry::Request(oc.clone()),
            LogEntry::NoOp(cert) => WireLogEntry::NoOp(cert.clone().unwrap_or_default()),
        }
    }
}

/// A slot: unresolved (awaiting gap agreement) or filled.
#[derive(Clone, PartialEq, Debug)]
enum Slot {
    /// A drop-notification was delivered; agreement pending.
    Pending,
    /// Resolved entry with the chained log hash up to it (valid only for
    /// slots below the chain watermark).
    Filled(LogEntry, Digest),
}

/// The log.
///
/// A log starts at a **base**: slots below it were finalized by a
/// certified checkpoint and let go of ([`Log::rebase`]) — every replica
/// does that as it runs, one slot window below its stable checkpoint
/// (DESIGN.md §17). The chain hash at `base - 1` is retained so the hash
/// chain (and therefore prefix comparison) stays seamless across the
/// cut. Slot numbers everywhere in the API remain absolute.
#[derive(Clone, Debug, Default)]
pub struct Log {
    /// First slot actually held; everything below is covered by a
    /// certified checkpoint. Zero until the first cut.
    base: u64,
    /// Chain hash at `base - 1` (meaningless when `base == 0`): the seed
    /// the chain continues from.
    base_hash: Digest,
    /// The held slots, oldest first. A ring: a cut drops from the front
    /// at a cost in proportion to what it drops, not to what stays.
    slots: VecDeque<Slot>,
    /// Chain watermark, *relative to `base`*: hashes are valid for
    /// relative slots `< chained`; every slot below it is filled.
    /// Entries appended past a pending slot get their hash once the gap
    /// resolves.
    chained: usize,
    /// Start slot of each epoch (epoch 0 starts at 0 implicitly).
    epoch_starts: Vec<(EpochNum, SlotNum)>,
    /// What executing each slot left, indexed by *absolute* slot and
    /// always exactly `len()` long ([`Self::resize_exec_records`]): ops
    /// applied to the app (for rollback accounting; 0 = not executed /
    /// no-op / pending) ...
    executed_ops: Vec<u32>,
    /// ... and a digest of (client, request id, result) for executed
    /// request slots; `None` for no-ops, pending, rolled-back and
    /// checkpointed slots. Two correct replicas that both executed slot
    /// `s` must agree here.
    exec_digests: Vec<Option<u64>>,
}

impl Log {
    /// Empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// A log resuming from a certified checkpoint: slots `< base` are
    /// gone, the chain continues from `base_hash` (the log hash at slot
    /// `base - 1`, as certified by the checkpoint).
    pub fn with_base(base: SlotNum, base_hash: Digest) -> Self {
        let mut log = Log::new();
        log.rebase(base, base_hash);
        log
    }

    /// First slot this log actually holds: 0 until a certified
    /// checkpoint lets it cut ([`Log::rebase`]), on a live replica as on
    /// a restarted one.
    pub fn base(&self) -> SlotNum {
        SlotNum(self.base)
    }

    /// Relative index of an absolute slot, if it is at or above the base.
    fn rel(&self, slot: SlotNum) -> Option<usize> {
        slot.0.checked_sub(self.base).map(|r| r as usize)
    }

    /// Number of slots (filled or pending), counting the compacted
    /// prefix below the base.
    pub fn len(&self) -> SlotNum {
        SlotNum(self.base + self.slots.len() as u64)
    }

    /// True if no slots exist (including none below the base).
    pub fn is_empty(&self) -> bool {
        self.base == 0 && self.slots.is_empty()
    }

    /// The log hash after `slot` (the value carried in replies). Only
    /// available once every earlier slot is resolved. For a based log
    /// the hash at `base - 1` is the checkpoint's certified chain hash;
    /// anything below that is compacted away.
    pub fn hash_at(&self, slot: SlotNum) -> Option<Digest> {
        if self.base > 0 && slot.0 == self.base - 1 {
            return Some(self.base_hash);
        }
        let rel = self.rel(slot)?;
        if rel >= self.chained {
            return None;
        }
        match self.slots.get(rel) {
            Some(Slot::Filled(_, h)) => Some(*h),
            _ => None,
        }
    }

    /// The entry at `slot`, if resolved and not compacted.
    pub fn entry(&self, slot: SlotNum) -> Option<&LogEntry> {
        match self.rel(slot).and_then(|r| self.slots.get(r)) {
            Some(Slot::Filled(e, _)) => Some(e),
            _ => None,
        }
    }

    /// True if `slot` exists but is awaiting gap agreement.
    pub fn is_pending(&self, slot: SlotNum) -> bool {
        matches!(
            self.rel(slot).and_then(|r| self.slots.get(r)),
            Some(Slot::Pending)
        )
    }

    /// Append a request certificate at the tail.
    pub fn append_request(&mut self, oc: OrderingCert) -> SlotNum {
        let slot = self.len();
        self.push_slot(Slot::Filled(LogEntry::Request(oc), Digest::ZERO));
        self.advance_chain();
        slot
    }

    /// Append a pending slot (drop-notification delivered, fate unknown).
    pub fn append_pending(&mut self) -> SlotNum {
        let slot = self.len();
        self.push_slot(Slot::Pending);
        slot
    }

    /// Resolve a slot (pending, overwrite, or tail + 1) with an entry and
    /// recompute the hash chain as far as it now reaches.
    pub fn fill(&mut self, slot: SlotNum, entry: LogEntry) -> Result<(), FillError> {
        let Some(rel) = self.rel(slot) else {
            return Err(FillError::Compacted);
        };
        if rel > self.slots.len() {
            return Err(FillError::BeyondTail);
        }
        if rel == self.slots.len() {
            self.push_slot(Slot::Pending);
        }
        self.slots[rel] = Slot::Filled(entry, Digest::ZERO);
        // An overwrite below the watermark invalidates the chain suffix.
        self.chained = self.chained.min(rel);
        self.advance_chain();
        Ok(())
    }

    /// Extend the chain watermark over every consecutively filled slot.
    fn advance_chain(&mut self) {
        let mut h = if self.chained == 0 {
            // Genesis seed, or the checkpoint's certified chain hash for
            // a based log (Digest::ZERO there too when base == 0).
            self.base_hash
        } else {
            match &self.slots[self.chained - 1] {
                Slot::Filled(_, h) => *h,
                Slot::Pending => unreachable!("watermark only covers filled slots"),
            }
        };
        while self.chained < self.slots.len() {
            match &mut self.slots[self.chained] {
                Slot::Filled(e, hash) => {
                    h = chain(h, &e.chain_input());
                    *hash = h;
                    self.chained += 1;
                }
                Slot::Pending => break,
            }
        }
    }

    /// Attach a gap certificate to a no-op slot.
    pub fn attach_gap_cert(&mut self, slot: SlotNum, cert: GapCert) {
        let Some(rel) = self.rel(slot) else { return };
        if let Some(Slot::Filled(LogEntry::NoOp(c), _)) = self.slots.get_mut(rel) {
            *c = Some(cert);
        }
    }

    /// Record that `epoch` starts at `slot`.
    pub fn record_epoch_start(&mut self, epoch: EpochNum, slot: SlotNum) {
        if !self.epoch_starts.iter().any(|(e, _)| *e == epoch) {
            self.epoch_starts.push((epoch, slot));
            self.epoch_starts.sort();
        }
    }

    /// Start slot of an epoch (0 for the initial epoch).
    pub fn epoch_start(&self, epoch: EpochNum) -> Option<SlotNum> {
        if epoch == EpochNum::INITIAL {
            return Some(SlotNum(0));
        }
        self.epoch_starts
            .iter()
            .find(|(e, _)| *e == epoch)
            .map(|(_, s)| *s)
    }

    /// All recorded epoch starts.
    pub fn epoch_starts(&self) -> &[(EpochNum, SlotNum)] {
        &self.epoch_starts
    }

    /// First unresolved (pending) slot, if any (absolute).
    pub fn first_pending(&self) -> Option<SlotNum> {
        self.slots
            .iter()
            .position(|s| matches!(s, Slot::Pending))
            .map(|i| SlotNum(self.base + i as u64))
    }

    /// Wire form of the held log for view changes, starting at the base
    /// (see `ViewChangeBody::log_base`).
    pub fn to_wire(&self) -> Vec<WireLogEntry> {
        // Wire logs are positional (index = log_base + i), so the log is
        // truncated at the first pending slot: everything after it would
        // otherwise shift positions.
        self.slots
            .iter()
            .map_while(|s| match s {
                Slot::Filled(e, _) => Some(e.to_wire()),
                Slot::Pending => None,
            })
            .collect()
    }

    /// Up to `max` consecutive resolved entries starting at `from`, for
    /// state-transfer replies. Returns the (possibly clamped) start slot
    /// and the entries; stops at the first pending slot. The start is
    /// clamped up to the base — anything below it must come from the
    /// checkpoint instead.
    pub fn wire_range(&self, from: SlotNum, max: usize) -> (SlotNum, Vec<WireLogEntry>) {
        let start = from.0.max(self.base);
        let rel = (start - self.base) as usize;
        let entries = self
            .slots
            .iter()
            .skip(rel)
            .take(max)
            .map_while(|s| match s {
                Slot::Filled(e, _) => Some(e.to_wire()),
                Slot::Pending => None,
            })
            .collect();
        (SlotNum(start), entries)
    }

    /// Length of the resolved prefix (slots filled with no pending gap
    /// before them), counting the checkpointed prefix below the base.
    /// O(1): this is exactly the hash-chain watermark.
    pub fn resolved_prefix_len(&self) -> SlotNum {
        SlotNum(self.base + self.chained as u64)
    }

    /// Drop every slot at or beyond `len` (uncommitted speculative tail
    /// discarded when an epoch-switching view change adopts the merged
    /// log, §B.1). Clamped at the base: checkpointed slots are finalized
    /// and can never be un-resolved.
    pub fn truncate(&mut self, len: SlotNum) {
        let rel = (len.0.max(self.base) - self.base) as usize;
        self.slots.truncate(rel);
        self.resize_exec_records();
        self.chained = self.chained.min(rel);
        self.advance_chain();
    }

    /// Rebase the held log to `slot`, in place: every slot below it is
    /// dropped, the base becomes `slot` and the chain continues from
    /// `hash_below`, the certified chain hash at `slot - 1`. Everything
    /// at or above `slot` — filled or pending — stays where it is, and
    /// so do the exec records (absolute-indexed, full-length). Where
    /// `hash_below` is this log's own hash there (a cut below the stable
    /// checkpoint) the hashes above keep their values; otherwise (a
    /// checkpoint adopted over a hole, or past the tail, which leaves an
    /// empty log at `slot`) the kept suffix is chained again from the new
    /// seed. A `slot` at or below the base changes nothing. Returns how
    /// many held slots were dropped; the cost is in proportion to that.
    pub fn rebase(&mut self, slot: SlotNum, hash_below: Digest) -> u64 {
        let Some(cut) = self.rel(slot).filter(|cut| *cut > 0) else {
            return 0;
        };
        let seamless = self.hash_at(SlotNum(slot.0 - 1)) == Some(hash_below);
        let dropped = cut.min(self.slots.len());
        self.slots.drain(..dropped);
        self.base = slot.0;
        self.base_hash = hash_below;
        // Seamless means `slot - 1` was under the watermark: cut <= chained.
        self.chained = if seamless { self.chained - cut } else { 0 };
        self.resize_exec_records();
        self.advance_chain();
        dropped as u64
    }

    fn push_slot(&mut self, slot: Slot) {
        self.slots.push_back(slot);
        self.resize_exec_records();
    }

    /// The one place the exec records change length — after a push, a
    /// truncation or a rebase — so they grow, truncate and rebase with
    /// the log.
    fn resize_exec_records(&mut self) {
        let len = self.len().index();
        self.executed_ops.resize(len, 0);
        self.exec_digests.resize(len, None);
    }

    /// Per-slot execution digests, indexed by absolute slot (`None` =
    /// no-op / pending / undone / below the base).
    pub fn exec_digests(&self) -> &[Option<u64>] {
        &self.exec_digests
    }

    /// Record that `slot` executed `ops` operations with outcome
    /// `digest`. Returns whether the slot was already marked executed —
    /// executing twice without a rollback in between corrupts the
    /// application state.
    pub(crate) fn record_execution(&mut self, slot: SlotNum, ops: u32, digest: u64) -> bool {
        let (Some(n), Some(d)) = (
            self.executed_ops.get_mut(slot.index()),
            self.exec_digests.get_mut(slot.index()),
        ) else {
            return false;
        };
        let again = *n > 0;
        *n = ops;
        *d = Some(digest);
        again
    }

    /// Forget `slot`'s execution (it is being rolled back); returns how
    /// many ops it had applied.
    pub(crate) fn clear_execution(&mut self, slot: SlotNum) -> u32 {
        if let Some(d) = self.exec_digests.get_mut(slot.index()) {
            *d = None;
        }
        let ops = self.executed_ops.get_mut(slot.index());
        ops.map_or(0, std::mem::take)
    }

    /// Ops executed at or after `slot` — the undo history the app must
    /// keep once everything before `slot` is final.
    pub(crate) fn executed_ops_from(&self, slot: SlotNum) -> u64 {
        self.executed_ops
            .iter()
            .skip(slot.index())
            .map(|n| *n as u64)
            .sum()
    }
}

/// Log fill violation.
#[derive(Debug, PartialEq, Eq, thiserror::Error)]
pub enum FillError {
    /// Attempted to fill past the tail + 1.
    #[error("slot is beyond the log tail")]
    BeyondTail,
    /// Attempted to fill a slot below the checkpointed base.
    #[error("slot is below the compacted checkpoint base")]
    Compacted,
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_aom::AomPacket;
    use neo_wire::{AomHeader, GroupId, SeqNum};

    fn oc(seq: u64, payload: &[u8]) -> OrderingCert {
        let mut header = AomHeader::unstamped(GroupId(0), neo_crypto::sha256(payload).0);
        header.seq = SeqNum(seq);
        header.auth = neo_wire::Authenticator::HmacVector(vec![[0u8; 8]; 4]);
        OrderingCert {
            packet: AomPacket {
                header,
                payload: payload.to_vec(),
            },
            confirms: vec![],
        }
    }

    #[test]
    fn appends_chain_hashes() {
        let mut log = Log::new();
        let s0 = log.append_request(oc(1, b"a"));
        let s1 = log.append_request(oc(2, b"b"));
        assert_eq!(s0, SlotNum(0));
        assert_eq!(s1, SlotNum(1));
        let h0 = log.hash_at(s0).unwrap();
        let h1 = log.hash_at(s1).unwrap();
        assert_ne!(h0, h1);
        // Same entries in another log produce the same chain.
        let mut log2 = Log::new();
        log2.append_request(oc(1, b"a"));
        log2.append_request(oc(2, b"b"));
        assert_eq!(log2.hash_at(SlotNum(1)), Some(h1));
    }

    #[test]
    fn different_order_different_hash() {
        let mut a = Log::new();
        a.append_request(oc(1, b"x"));
        a.append_request(oc(2, b"y"));
        let mut b = Log::new();
        b.append_request(oc(1, b"y"));
        b.append_request(oc(2, b"x"));
        assert_ne!(a.hash_at(SlotNum(1)), b.hash_at(SlotNum(1)));
    }

    #[test]
    fn pending_slots_block_hashes_downstream() {
        let mut log = Log::new();
        log.append_request(oc(1, b"a"));
        let gap = log.append_pending();
        assert!(log.is_pending(gap));
        assert_eq!(log.hash_at(gap), None);
        assert_eq!(log.first_pending(), Some(gap));
        assert_eq!(log.resolved_prefix_len(), SlotNum(1));
    }

    #[test]
    fn filling_a_pending_slot_rechains_suffix() {
        let mut log = Log::new();
        log.append_request(oc(1, b"a"));
        let gap = log.append_pending();
        log.fill(gap, LogEntry::Request(oc(2, b"b"))).unwrap();
        let suffix = log.append_request(oc(3, b"c"));
        // Reference: straight-through log.
        let mut reference = Log::new();
        reference.append_request(oc(1, b"a"));
        reference.append_request(oc(2, b"b"));
        reference.append_request(oc(3, b"c"));
        assert_eq!(log.hash_at(suffix), reference.hash_at(SlotNum(2)));
    }

    #[test]
    fn noop_fill_changes_hash_vs_request() {
        let mut a = Log::new();
        a.append_request(oc(1, b"a"));
        a.append_request(oc(2, b"b"));
        let mut b = Log::new();
        b.append_request(oc(1, b"a"));
        let gap = b.append_pending();
        b.fill(gap, LogEntry::NoOp(None)).unwrap();
        assert_ne!(a.hash_at(SlotNum(1)), b.hash_at(SlotNum(1)));
    }

    #[test]
    fn out_of_order_fill_defers_hashes() {
        let mut log = Log::new();
        log.append_pending();
        log.append_pending();
        // The second gap resolves first: allowed, but no hash yet.
        log.fill(SlotNum(1), LogEntry::NoOp(None)).unwrap();
        assert_eq!(log.hash_at(SlotNum(1)), None, "prefix still pending");
        log.fill(SlotNum(0), LogEntry::NoOp(None)).unwrap();
        assert!(log.hash_at(SlotNum(1)).is_some(), "chain caught up");
        assert_eq!(
            log.fill(SlotNum(5), LogEntry::NoOp(None)),
            Err(FillError::BeyondTail)
        );
    }

    #[test]
    fn appends_after_pending_get_hashes_on_resolution() {
        let mut log = Log::new();
        log.append_request(oc(1, b"a"));
        let gap = log.append_pending();
        let tail = log.append_request(oc(3, b"c"));
        assert_eq!(log.hash_at(tail), None, "blocked behind the gap");
        log.fill(gap, LogEntry::NoOp(None)).unwrap();
        assert!(log.hash_at(tail).is_some());
    }

    #[test]
    fn overwrite_request_with_noop_rechains() {
        // State-sync can overwrite a speculative request with a certified
        // no-op (§B.2 "possibly overwriting existing request").
        let mut log = Log::new();
        log.append_request(oc(1, b"a"));
        log.append_request(oc(2, b"b"));
        let before = log.hash_at(SlotNum(1)).unwrap();
        log.fill(SlotNum(0), LogEntry::NoOp(None)).unwrap();
        let after = log.hash_at(SlotNum(1)).unwrap();
        assert_ne!(before, after);
    }

    #[test]
    fn epoch_starts_are_recorded_once_and_sorted() {
        let mut log = Log::new();
        log.record_epoch_start(EpochNum(2), SlotNum(20));
        log.record_epoch_start(EpochNum(1), SlotNum(10));
        log.record_epoch_start(EpochNum(1), SlotNum(99)); // duplicate ignored
        assert_eq!(log.epoch_start(EpochNum(0)), Some(SlotNum(0)));
        assert_eq!(log.epoch_start(EpochNum(1)), Some(SlotNum(10)));
        assert_eq!(log.epoch_start(EpochNum(2)), Some(SlotNum(20)));
        assert_eq!(log.epoch_start(EpochNum(3)), None);
        assert_eq!(
            log.epoch_starts(),
            &[(EpochNum(1), SlotNum(10)), (EpochNum(2), SlotNum(20))]
        );
    }

    #[test]
    fn wire_form_truncates_at_first_pending() {
        let mut log = Log::new();
        log.append_request(oc(1, b"a"));
        log.append_pending();
        log.append_request(oc(3, b"c"));
        let wire = log.to_wire();
        assert_eq!(wire.len(), 1, "truncated at the first pending slot");
    }

    #[test]
    fn based_log_continues_the_chain_seamlessly() {
        // A log restored from a checkpoint at slot 2 must produce the
        // same hashes as one that grew from genesis.
        let mut genesis = Log::new();
        genesis.append_request(oc(1, b"a"));
        genesis.append_request(oc(2, b"b"));
        let h1 = genesis.hash_at(SlotNum(1)).unwrap();
        genesis.append_request(oc(3, b"c"));

        let mut based = Log::with_base(SlotNum(2), h1);
        assert_eq!(based.base(), SlotNum(2));
        assert_eq!(based.len(), SlotNum(2));
        assert_eq!(based.resolved_prefix_len(), SlotNum(2));
        assert_eq!(based.hash_at(SlotNum(1)), Some(h1), "certified seed");
        assert_eq!(based.hash_at(SlotNum(0)), None, "compacted away");
        let s = based.append_request(oc(3, b"c"));
        assert_eq!(s, SlotNum(2), "appends continue at absolute slots");
        assert_eq!(based.hash_at(SlotNum(2)), genesis.hash_at(SlotNum(2)));
    }

    #[test]
    fn based_log_rejects_fills_below_base() {
        let mut log = Log::with_base(SlotNum(3), Digest::ZERO);
        assert_eq!(
            log.fill(SlotNum(1), LogEntry::NoOp(None)),
            Err(FillError::Compacted)
        );
        assert_eq!(log.entry(SlotNum(1)), None);
        assert!(!log.is_pending(SlotNum(1)));
        // Truncation clamps at the base: finalized slots stay finalized.
        log.append_request(oc(4, b"x"));
        log.truncate(SlotNum(0));
        assert_eq!(log.len(), SlotNum(3));
        assert_eq!(log.resolved_prefix_len(), SlotNum(3));
    }

    #[test]
    fn rebase_drops_the_prefix_and_nothing_else() {
        // Slots 0..=5, slot 4 still pending; two slots executed.
        let mut log = Log::new();
        for seq in 1..=4 {
            log.append_request(oc(seq, &[seq as u8]));
        }
        log.append_pending();
        log.append_request(oc(6, b"f"));
        log.record_execution(SlotNum(0), 1, 10);
        log.record_execution(SlotNum(3), 1, 13);
        let hashes: Vec<_> = (0..4).map(|s| log.hash_at(SlotNum(s)).unwrap()).collect();

        // A cut at its own hash: base and seed move, the rest stays put.
        assert_eq!(log.rebase(SlotNum(2), hashes[1]), 2);
        assert_eq!((log.base(), log.len()), (SlotNum(2), SlotNum(6)));
        assert_eq!(log.resolved_prefix_len(), SlotNum(4));
        assert_eq!(log.hash_at(SlotNum(0)), None, "let go of");
        assert_eq!(log.entry(SlotNum(1)), None, "let go of");
        for s in 1..4 {
            assert_eq!(log.hash_at(SlotNum(s)), Some(hashes[s as usize]));
        }
        assert!(log.is_pending(SlotNum(4)));
        assert!(log.entry(SlotNum(5)).is_some());
        // Exec records stay absolute-indexed and full-length.
        assert_eq!(log.exec_digests().len(), 6);
        assert_eq!(log.exec_digests()[0], Some(10));
        assert_eq!(log.exec_digests()[3], Some(13));
        // At or below the base: nothing to do.
        assert_eq!(log.rebase(SlotNum(2), Digest::ZERO), 0);
        assert_eq!(log.rebase(SlotNum(1), Digest::ZERO), 0);
        assert_eq!(log.hash_at(SlotNum(1)), Some(hashes[1]));

        // The gap resolves: the chain continues as if never cut.
        let mut reference = Log::new();
        for seq in 1..=6 {
            reference.append_request(oc(seq, &[seq as u8]));
        }
        log.fill(SlotNum(4), LogEntry::Request(oc(5, &[5])))
            .unwrap();
        log.fill(SlotNum(5), LogEntry::Request(oc(6, &[6])))
            .unwrap();
        assert_eq!(log.hash_at(SlotNum(5)), reference.hash_at(SlotNum(5)));
    }

    #[test]
    fn exec_records_survive_any_cut() {
        use rand::{Rng, SeedableRng};
        for case in 0..64u64 {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(case);
            let mut log = Log::new();
            let n = rng.gen_range(1..40u64);
            for seq in 1..=n {
                let slot = log.append_request(oc(seq, &[seq as u8]));
                if rng.gen() {
                    log.record_execution(slot, rng.gen_range(1..4), rng.gen());
                }
            }
            let before = (log.exec_digests().to_vec(), log.executed_ops.clone());
            let cut = SlotNum(rng.gen_range(1..=n));
            log.rebase(cut, log.hash_at(SlotNum(cut.0 - 1)).unwrap());
            let after = (log.exec_digests().to_vec(), log.executed_ops.clone());
            assert_eq!(before, after, "case {case}: cut at {cut}");
        }
    }

    #[test]
    fn rebase_over_a_hole_or_past_the_tail_rechains_from_the_new_seed() {
        // A checkpoint at slot 3 adopted by a log stuck on pending slot
        // 1: the kept entries chain from the checkpoint's hash.
        let mut reference = Log::new();
        for seq in 1..=5 {
            reference.append_request(oc(seq, &[seq as u8]));
        }
        let seed = reference.hash_at(SlotNum(2)).unwrap();
        let mut log = Log::new();
        log.append_request(oc(1, &[1]));
        log.append_pending();
        for seq in 3..=5 {
            log.append_request(oc(seq, &[seq as u8]));
        }
        assert_eq!(log.hash_at(SlotNum(4)), None, "blocked behind the gap");
        assert_eq!(log.rebase(SlotNum(3), seed), 3);
        assert_eq!(log.first_pending(), None);
        assert_eq!(log.resolved_prefix_len(), SlotNum(5));
        assert_eq!(log.hash_at(SlotNum(2)), Some(seed));
        assert_eq!(log.hash_at(SlotNum(4)), reference.hash_at(SlotNum(4)));

        // Past the tail: an empty log at the slot, as `with_base` builds.
        assert_eq!(log.rebase(SlotNum(9), seed), 2);
        assert_eq!((log.base(), log.len()), (SlotNum(9), SlotNum(9)));
        assert_eq!(log.exec_digests().len(), 9);
        assert_eq!(log.append_request(oc(10, b"j")), SlotNum(9));
        let mut based = Log::with_base(SlotNum(9), seed);
        based.append_request(oc(10, b"j"));
        assert_eq!(log.hash_at(SlotNum(9)), based.hash_at(SlotNum(9)));
    }

    #[test]
    fn wire_range_serves_suffixes() {
        let mut log = Log::new();
        log.append_request(oc(1, b"a"));
        log.append_request(oc(2, b"b"));
        log.append_request(oc(3, b"c"));
        let (start, entries) = log.wire_range(SlotNum(1), 10);
        assert_eq!(start, SlotNum(1));
        assert_eq!(entries.len(), 2);
        let (start, entries) = log.wire_range(SlotNum(1), 1);
        assert_eq!(start, SlotNum(1));
        assert_eq!(entries.len(), 1, "cap respected");
        // Pending slots stop the range.
        log.append_pending();
        log.append_request(oc(5, b"e"));
        let (_, entries) = log.wire_range(SlotNum(0), 10);
        assert_eq!(entries.len(), 3, "stops at the pending slot");
        // Requests below the base are clamped up to it.
        let based = Log::with_base(SlotNum(2), Digest::ZERO);
        let (start, entries) = based.wire_range(SlotNum(0), 10);
        assert_eq!(start, SlotNum(2));
        assert!(entries.is_empty());
    }

    #[test]
    fn first_pending_is_absolute_on_based_logs() {
        let mut log = Log::with_base(SlotNum(5), Digest::ZERO);
        log.append_request(oc(6, b"a"));
        log.append_pending();
        assert_eq!(log.first_pending(), Some(SlotNum(6)));
    }
}
