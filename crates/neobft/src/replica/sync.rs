//! State synchronization (§B.2) and what rides on it: every
//! `sync_interval` resolved slots the replicas exchange signed sync
//! votes; 2f votes from others move the sync point, finalize speculative
//! execution below it and spread gap certificates. A checkpoint captured
//! at the same boundary is certified by the same votes (DESIGN.md §17),
//! persisted, and the WAL compacted below it.

use super::{Replica, Status};
use crate::log::LogEntry;
use crate::messages::{sign_body, verify_body, GapCert, NeoMsg, SyncBody};
use crate::recovery::{CheckpointData, WalRecord, WireCheckpoint};
use neo_crypto::{Digest, Principal, Signature};
use neo_sim::obs::Event;
use neo_sim::Context;
use neo_wire::{EpochNum, ReplicaId, SlotNum};
use std::collections::BTreeMap;

/// Sync-point and checkpoint state.
#[derive(Default)]
pub(super) struct StateSync {
    /// State-sync votes per slot, with their signatures (matching
    /// signatures become the checkpoint certificate). BTreeMaps:
    /// `check_sync` iterates both levels when applying certified no-ops.
    sync_votes: BTreeMap<SlotNum, BTreeMap<ReplicaId, (SyncBody, Signature)>>,
    sync_point: SlotNum,
    last_sync_slot: SlotNum,
    /// Checkpoints captured at sync-interval boundaries with their
    /// digests, awaiting certification by 2f+1 matching sync votes.
    /// Invalidated by rollbacks past their slot; size-capped.
    pending_checkpoints: BTreeMap<SlotNum, (CheckpointData, Digest)>,
    /// The newest certified checkpoint — persisted to the store and
    /// served to recovering peers.
    stable_checkpoint: Option<WireCheckpoint>,
}

impl StateSync {
    /// The newest certified checkpoint, if any.
    pub(super) fn stable_checkpoint(&self) -> Option<&WireCheckpoint> {
        self.stable_checkpoint.as_ref()
    }

    /// A *verified* checkpoint became this replica's state: everything
    /// below its slot is settled, and it is the one to serve from now on.
    pub(super) fn adopt_checkpoint(&mut self, wire: &WireCheckpoint) {
        self.raise_to(wire.data.slot);
        self.stable_checkpoint = Some(wire.clone());
        self.pending_checkpoints.retain(|s, _| *s > wire.data.slot);
    }

    /// Treat everything below `slot` as synchronized.
    pub(super) fn raise_to(&mut self, slot: SlotNum) {
        self.sync_point = self.sync_point.max(slot);
        self.last_sync_slot = self.last_sync_slot.max(slot);
    }
}

impl Replica {
    /// Current sync point (§B.2).
    pub fn sync_point(&self) -> SlotNum {
        self.sync.sync_point
    }

    /// Sync-point slot of the newest certified checkpoint, if any.
    pub fn stable_checkpoint_slot(&self) -> Option<SlotNum> {
        self.sync.stable_checkpoint.as_ref().map(|cp| cp.data.slot)
    }

    /// Uncertified checkpoints kept at once (oldest dropped; neo-lint R5
    /// growth bound for the recovery buffers).
    const PENDING_CHECKPOINT_CAP: usize = 16;

    pub(super) fn maybe_sync(&mut self, ctx: &mut dyn Context) {
        if self.cfg.sync_interval == 0 || self.status != Status::Normal {
            return;
        }
        let len = self.log.resolved_prefix_len();
        let interval = self.cfg.sync_interval;
        let latest_multiple = SlotNum(len.0 - len.0 % interval);
        if latest_multiple.0 == 0 || latest_multiple <= self.sync.last_sync_slot {
            return;
        }
        self.sync.last_sync_slot = latest_multiple;
        // Gap certificates for slots committed as no-op in this view
        // (§B.2) — a peer that missed an agreement and the sync round
        // after it still learns the no-op from the next vote. A marker
        // per finished round outlives its sync point, see `check_sync`.
        let mut drops = Vec::new();
        for slot in self.gap.slots_below(latest_multiple) {
            if let Some(LogEntry::NoOp(Some(cert))) = self.log.entry(slot) {
                drops.push((slot, cert.clone()));
            }
        }
        let body = SyncBody {
            view: self.view,
            replica: self.id,
            slot: latest_multiple,
            drops,
            // Piggyback our checkpoint digest at this boundary: 2f+1
            // matching digests turn the sync round into a checkpoint
            // certificate (ZERO = no claim, e.g. snapshot-less app).
            state_digest: self
                .sync
                .pending_checkpoints
                .get(&latest_multiple)
                .map(|(_, d)| *d)
                .unwrap_or(Digest::ZERO),
        };
        let sig = sign_body(&body, &self.crypto);
        self.sync
            .sync_votes
            .entry(latest_multiple)
            .or_default()
            .insert(self.id, (body.clone(), sig.clone()));
        self.broadcast(&NeoMsg::Sync(body, sig), ctx);
        self.check_sync(latest_multiple, ctx);
    }

    pub(super) fn on_sync(&mut self, body: SyncBody, sig: Signature, ctx: &mut dyn Context) {
        if body.view != self.view || self.status != Status::Normal {
            return;
        }
        let slot = body.slot;
        if slot <= self.sync.sync_point || !self.slot_in_window(slot, ctx) {
            return; // settled or far-future: nothing to collect
        }
        // The round settles the moment 2f votes from others are held, so
        // the votes behind the quorum stop at the check above; a second
        // vote from one sender stops here.
        if self
            .sync
            .sync_votes
            .get(&slot)
            .is_some_and(|votes| votes.contains_key(&body.replica))
        {
            return;
        }
        if !verify_body(&body, &sig, Principal::Replica(body.replica), &self.crypto) {
            return;
        }
        // neo-lint: allow(R5, slot_in_window-bounded above and pruned in check_sync)
        let votes = self.sync.sync_votes.entry(slot).or_default();
        votes.insert(body.replica, (body, sig));
        self.check_sync(slot, ctx);
    }

    fn check_sync(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        let f2 = 2 * self.cfg.f;
        let Some(votes) = self.sync.sync_votes.get(&slot) else {
            return;
        };
        // 2f sync messages from *other* replicas (§B.2), i.e. 2f+1 total
        // with our own when we sent one.
        let others = votes.keys().filter(|r| **r != self.id).count();
        if others < f2 || slot <= self.sync.sync_point {
            return;
        }
        // Apply certified no-ops from any vote. Every vote of the round
        // carries the same slots, so a slot's certificate is verified
        // once — the first valid one wins — and not at all where it
        // cannot change the log: the slot already holds a certified
        // no-op, or lies past the log tail.
        let mut to_apply: BTreeMap<SlotNum, GapCert> = BTreeMap::new();
        for (body, _) in votes.values() {
            for (s, cert) in &body.drops {
                let settled = *s >= self.log.len()
                    || matches!(self.log.entry(*s), Some(LogEntry::NoOp(Some(_))));
                if !settled && !to_apply.contains_key(s) && self.verify_gap_cert(*s, cert) {
                    to_apply.insert(*s, cert.clone());
                }
            }
        }
        for (s, cert) in to_apply {
            match self.log.entry(s) {
                Some(LogEntry::NoOp(_)) => {
                    self.log.attach_gap_cert(s, cert);
                }
                _ => {
                    if s < self.log.len() {
                        self.fill_slot(s, LogEntry::NoOp(Some(cert)), ctx);
                        // The certificate is the outcome of the slot's
                        // agreement: a round still open here has nothing
                        // left to decide, and its `GapAgreement` timer
                        // must not depose the leader over it.
                        self.close_gap_round(s, ctx);
                    }
                }
            }
        }
        self.sync.sync_point = slot;
        ctx.emit(Event::SyncPoint { slot: slot.0 });
        // Checkpoint certification rides the same quorum: if 2f+1 sync
        // votes carried our pending checkpoint's digest, the votes ARE
        // its certificate. Must happen before the prune below discards
        // this round's signatures.
        self.maybe_certify_checkpoint(slot, ctx);
        // Settled rounds can never reach quorum again: prune them so the
        // vote map stays bounded (neo-lint R5); finished gap rounds
        // below the sync point shed their votes the same way.
        self.sync.sync_votes = self.sync.sync_votes.split_off(&SlotNum(slot.0 + 1));
        self.gap.shed_votes_below(slot);
        self.stats.sync_points += 1;
        ctx.metrics().incr("replica.sync_points");
        // Finalized: drop undo history for everything at or before the
        // sync point.
        // Count *ops*, not slots: a batch slot holds one undo record per
        // op, and the app must keep exactly that many.
        let still_speculative = self.log.executed_ops_from(slot);
        self.exec.compact_undo_history(still_speculative);
        self.try_execute(ctx);
    }

    // ------------------------------------------------------------------
    // Durability: checkpoint capture and certification, WAL compaction
    // ------------------------------------------------------------------

    /// Capture a checkpoint when the execution cursor sits on a
    /// sync-interval boundary `S`: the app state, chain hash, and client
    /// table then cover exactly slots `< S` on every replica that
    /// reached `S`, so the digests are comparable across the cluster.
    pub(super) fn maybe_capture_checkpoint(&mut self) {
        let interval = self.cfg.sync_interval;
        if interval == 0 || self.store.is_none() {
            return;
        }
        let s = self.exec_cursor();
        if s.0 == 0 || s.0 % interval != 0 || self.sync.pending_checkpoints.contains_key(&s) {
            return;
        }
        if self
            .sync
            .stable_checkpoint
            .as_ref()
            .is_some_and(|cp| cp.data.slot >= s)
        {
            return;
        }
        let Some((app, clients)) = self.exec.checkpoint_at(s) else {
            return; // snapshot-less app: recovery falls back to full replay
        };
        let Some(chain_hash) = self.log.hash_at(SlotNum(s.0 - 1)) else {
            return;
        };
        let epoch_starts: Vec<(EpochNum, SlotNum)> = self
            .log
            .epoch_starts()
            .iter()
            .filter(|(_, start)| *start <= s)
            .copied()
            .collect();
        let data = CheckpointData {
            slot: s,
            chain_hash,
            app,
            clients,
            epoch_starts,
        };
        let digest = data.digest();
        if self.sync.pending_checkpoints.len() >= Self::PENDING_CHECKPOINT_CAP {
            self.sync.pending_checkpoints.pop_first();
        }
        // neo-lint: allow(R5, capped at PENDING_CHECKPOINT_CAP with oldest-dropped eviction above)
        self.sync.pending_checkpoints.insert(s, (data, digest));
    }

    /// A checkpoint at S describes state after executing slots < S;
    /// rolling back past S invalidates it.
    pub(super) fn forget_checkpoints_above(&mut self, slot: SlotNum) {
        self.sync.pending_checkpoints.retain(|s, _| *s <= slot);
    }

    /// If the sync round at `slot` gathered 2f+1 votes matching our
    /// pending checkpoint's digest, promote it to the stable checkpoint:
    /// persist it, compact the WAL below it, and start serving it to
    /// recovering peers.
    fn maybe_certify_checkpoint(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        let Some((_, digest)) = self.sync.pending_checkpoints.get(&slot) else {
            return;
        };
        let digest = *digest;
        let Some(votes) = self.sync.sync_votes.get(&slot) else {
            return;
        };
        let cert: Vec<(SyncBody, Signature)> = votes
            .values()
            .filter(|(b, _)| b.slot == slot && b.state_digest == digest)
            .cloned()
            .collect();
        let distinct = cert
            .iter()
            .map(|(b, _)| b.replica)
            .collect::<std::collections::BTreeSet<_>>()
            .len();
        if distinct < self.cfg.quorum() {
            return;
        }
        let Some((data, _)) = self.sync.pending_checkpoints.remove(&slot) else {
            return;
        };
        let wire = WireCheckpoint { data, cert };
        if let Some(store) = &mut self.store {
            store.put_checkpoint(&wire.to_bytes());
        }
        self.compact_wal(slot, ctx);
        self.sync.stable_checkpoint = Some(wire);
        self.sync.pending_checkpoints.retain(|s, _| *s > slot);
        self.stats.checkpoints_certified += 1;
        ctx.metrics().incr("replica.checkpoints_certified");
    }

    /// Validate a checkpoint certificate: 2f+1 distinct replicas signed
    /// sync votes at the checkpoint's slot carrying its exact digest.
    /// Used identically for peer-served checkpoints and our own disk.
    pub(super) fn verify_checkpoint(&self, wire: &WireCheckpoint) -> bool {
        let digest = wire.data.digest();
        self.has_signed_quorum(
            wire.cert
                .iter()
                .filter(|(b, _)| b.slot == wire.data.slot && b.state_digest == digest)
                .map(|(b, sig)| (b.replica, b, sig)),
        )
    }

    /// Compact the durable WAL below a certified checkpoint: rewrite it
    /// to just the records for slots `>= slot` (plus epoch certificates
    /// still above the cut). The in-memory log keeps its base — absolute
    /// slot indexing for live replicas never shifts; only restarted
    /// replicas run with a non-zero base.
    fn compact_wal(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        if self.store.is_none() {
            return;
        }
        let mut records: Vec<Vec<u8>> = Vec::new();
        for s in slot.0..self.log.len().0 {
            if let Some(entry) = self.log.entry(SlotNum(s)) {
                records.push(
                    WalRecord::Slot {
                        slot: SlotNum(s),
                        entry: entry.to_wire(),
                    }
                    .to_bytes(),
                );
            }
        }
        for (epoch, start, cert) in self.vc.epoch_certs() {
            if *start >= slot {
                records.push(
                    WalRecord::Epoch {
                        epoch: *epoch,
                        start_slot: *start,
                        cert: cert.clone(),
                    }
                    .to_bytes(),
                );
            }
        }
        if let Some(store) = &mut self.store {
            store.reset_log(&records);
        }
        ctx.metrics().incr("store.compactions");
    }
}

#[cfg(test)]
mod tests {
    use super::super::testing::{ctx, replica, signer, timer_ids};
    use super::*;
    use crate::config::NeoConfig;
    use crate::messages::GapVoteBody;
    use neo_sim::Node;

    #[test]
    fn a_slot_filled_from_a_sync_vote_closes_its_gap_round() {
        // Replica 1 of 4 missed slot 0: the round is open, its query and
        // agreement timers armed.
        let mut cfg = NeoConfig::new(1);
        cfg.sync_interval = 1;
        let mut r = replica(1, cfg);
        let mut ctx = ctx(1);
        r.log.append_pending();
        r.start_gap(SlotNum(0), &mut ctx);
        let round = timer_ids(&ctx);
        assert_eq!(round.len(), 2, "QueryRetry and GapAgreement");

        // The others agreed on a no-op without it; 2f sync votes bring
        // the certificate.
        let view = r.view;
        let vote = |from, slot| {
            let body = GapVoteBody {
                view,
                replica: ReplicaId(from),
                slot,
                recv: false,
            };
            (body, sign_body(&body, &signer(from)))
        };
        let cert: GapCert = [0, 2, 3].map(|from| vote(from, SlotNum(0))).to_vec();
        for from in [0, 2] {
            let body = SyncBody {
                view,
                replica: ReplicaId(from),
                slot: SlotNum(1),
                drops: vec![(SlotNum(0), cert.clone())],
                state_digest: Digest::ZERO,
            };
            let sig = sign_body(&body, &signer(from));
            r.on_sync(body, sig, &mut ctx);
        }
        assert!(matches!(
            r.log.entry(SlotNum(0)),
            Some(LogEntry::NoOp(Some(_)))
        ));
        assert_eq!(r.sync_point(), SlotNum(1));

        // The round is closed: both timers cancelled, and an executor
        // that fires them anyway starts no view change against a leader
        // that did nothing wrong.
        for id in &round {
            assert!(ctx.timers_cancelled.contains(id), "{id:?} not cancelled");
        }
        let sent = ctx.sends.len();
        for id in round {
            r.on_timer(id, 1, &mut ctx);
        }
        assert_eq!(r.stats.view_changes, 0);
        assert_eq!(ctx.sends.len(), sent, "nothing leaves, no ViewChange");
        // Late votes for the closed round stop at admission.
        let (body, sig) = vote(3, SlotNum(0));
        r.on_gap_prepare(body, sig.clone(), &mut ctx);
        r.on_gap_commit(body, sig, &mut ctx);
        assert_eq!(r.gap_votes_held(), 0);
    }
}
