//! State synchronization (§B.2) and what rides on it: every
//! `sync_interval` resolved slots the replicas exchange signed sync
//! votes; 2f votes from others move the sync point, finalize speculative
//! execution below it and spread gap certificates. A checkpoint captured
//! at the same boundary is certified by the same votes (DESIGN.md §17)
//! — on every replica, with or without a store — and once it is, the
//! log lets go of what lies more than a slot window below it; a store
//! additionally persists it and has its WAL compacted.

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
        self.set_stable(wire.clone());
    }

    /// `wire` is certified and newer than what was held: keep it, and
    /// drop the captures it supersedes.
    fn set_stable(&mut self, wire: WireCheckpoint) {
        self.pending_checkpoints.retain(|s, _| *s > wire.data.slot);
        self.stable_checkpoint = Some(wire);
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
        // per finished round outlives its sync point, see `check_sync`,
        // for as long as the log holds the slot: a vote carries the
        // certificates of at most a slot window.
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
        // The round settles the moment 2f votes from others are held, and
        // a vote for a settled or far-future round stops here — unless it
        // can still sign this replica's own checkpoint: certification
        // must not hinge on which 2f votes happened to come first, so
        // while the checkpoint captured at the newest boundary is
        // uncertified, that round's votes with *its* digest are still
        // taken (at most one per replica, and a later round ends it).
        let open = slot > self.sync.sync_point && self.slot_in_window(slot, ctx);
        let signs_own_checkpoint = slot == self.sync.sync_point
            && self
                .sync
                .pending_checkpoints
                .get(&slot)
                .is_some_and(|(_, digest)| *digest == body.state_digest);
        if !open && !signs_own_checkpoint {
            return;
        }
        // A second vote from one sender stops here.
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
        // neo-lint: allow(R5, slot_in_window-bounded or the one settled round above, and pruned in check_sync)
        let votes = self.sync.sync_votes.entry(slot).or_default();
        votes.insert(body.replica, (body, sig));
        self.check_sync(slot, ctx);
    }

    fn check_sync(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        if slot <= self.sync.sync_point {
            // Settled: all a vote can still do is complete the
            // certificate of the checkpoint captured there.
            self.maybe_certify_checkpoint(slot, ctx);
            return;
        }
        let f2 = 2 * self.cfg.f;
        let Some(votes) = self.sync.sync_votes.get(&slot) else {
            return;
        };
        // 2f sync messages from *other* replicas (§B.2), i.e. 2f+1 total
        // with our own when we sent one.
        let others = votes.keys().filter(|r| **r != self.id).count();
        if others < f2 {
            return;
        }
        // Apply certified no-ops from any vote. Every vote of the round
        // carries the same slots, so a slot's certificate is verified
        // once — the first valid one wins — and not at all where it
        // cannot change the log: the slot already holds a certified
        // no-op, lies past the log tail, or lies below the base (final,
        // and gone).
        let mut to_apply: BTreeMap<SlotNum, GapCert> = BTreeMap::new();
        for (body, _) in votes.values() {
            for (s, cert) in &body.drops {
                let settled = *s < self.log.base()
                    || *s >= self.log.len()
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
        // its certificate (and the round's votes go with it).
        self.maybe_certify_checkpoint(slot, ctx);
        // Earlier rounds can never reach quorum again: prune them so the
        // vote map stays bounded (neo-lint R5). This round's votes stay
        // until its checkpoint is certified or the next round settles —
        // this replica may capture it only later (it lags), or need the
        // votes still on their way (`on_sync`). Finished gap rounds
        // below the sync point shed their votes.
        self.sync.sync_votes = self.sync.sync_votes.split_off(&slot);
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
    // Checkpoints: capture, certification, the log cut, WAL compaction
    // ------------------------------------------------------------------

    /// Capture a checkpoint when the execution cursor sits on a
    /// sync-interval boundary `S`: the app state, chain hash, and client
    /// table then cover exactly slots `< S` on every replica that
    /// reached `S`, so the digests are comparable across the cluster.
    /// Every replica does, store or not: the certified checkpoint is
    /// what lets the log stop growing, not only what a restart resumes
    /// from.
    pub(super) fn maybe_capture_checkpoint(&mut self) {
        let interval = self.cfg.sync_interval;
        if interval == 0 {
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
            // Snapshot-less app: nothing is certified, so nothing is
            // trimmed and recovery falls back to full replay.
            return;
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

    /// If the sync round at `slot` holds 2f+1 votes matching our
    /// pending checkpoint's digest, promote it to the stable checkpoint:
    /// it is what peers that fall behind are served, the log is cut a
    /// slot window below it, and a store persists it and has its WAL
    /// compacted.
    fn maybe_certify_checkpoint(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        let Some((_, digest)) = self.sync.pending_checkpoints.get(&slot) else {
            return;
        };
        let Some(votes) = self.sync.sync_votes.get(&slot) else {
            return;
        };
        // One vote per replica: the map is keyed by the signer.
        let matching = |(b, _): &&(SyncBody, Signature)| b.state_digest == *digest;
        if votes.values().filter(matching).count() < self.cfg.quorum() {
            return;
        }
        let cert = votes.values().filter(matching).cloned().collect();
        let Some((data, _)) = self.sync.pending_checkpoints.remove(&slot) else {
            return;
        };
        self.sync.sync_votes.remove(&slot);
        let wire = WireCheckpoint { data, cert };
        if let Some(store) = &mut self.store {
            store.put_checkpoint(&wire.to_bytes());
        }
        self.compact_wal(slot, ctx);
        self.sync.set_stable(wire);
        self.stats.checkpoints_certified += 1;
        ctx.metrics().incr("replica.checkpoints_certified");
        self.trim_log(ctx);
    }

    /// Let go of the log below the stable checkpoint `S`, keeping one
    /// slot window: the cut is at `S − SLOT_WINDOW`. The window is the
    /// protocol's own bound on how far apart two correct replicas' gap
    /// rounds may be (`slot_in_window` refuses anything further) — a
    /// leader hundreds of slots behind the sync point is normal at
    /// n = 100 and must still find its slots here — and a request about
    /// anything older is answered with `S` itself
    /// (`answer_trimmed_slot`). Gap rounds below the cut go with it.
    fn trim_log(&mut self, ctx: &mut dyn Context) {
        let Some(stable) = self.stable_checkpoint_slot() else {
            return;
        };
        let cut = SlotNum(stable.0.saturating_sub(Self::SLOT_WINDOW));
        if cut <= self.log.base() {
            return;
        }
        let Some(hash_below) = self.log.hash_at(SlotNum(cut.0 - 1)) else {
            return;
        };
        self.stats.slots_trimmed += self.log.rebase(cut, hash_below);
        self.close_gap_rounds_below(cut, ctx);
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

    /// Compact the durable WAL below a certified checkpoint at `slot`
    /// (no-op without a store): rewrite it to just the records for slots
    /// `>= slot` (plus epoch certificates still above the cut). The WAL
    /// is cut at the checkpoint itself; the in-memory log keeps a slot
    /// window more (`trim_log`), and slot numbers stay absolute in both.
    pub(super) fn compact_wal(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        let Some(store) = &mut self.store else {
            return;
        };
        let mut records: Vec<Vec<u8>> = Vec::new();
        for s in slot.0..self.log.len().0 {
            if let Some(entry) = self.log.entry(SlotNum(s)) {
                records.push(WalRecord::slot_bytes(SlotNum(s), entry));
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
        store.reset_log(&records);
        ctx.metrics().incr("store.compactions");
    }
}

#[cfg(test)]
mod tests {
    use super::super::testing::{ctx, keys, oc, replica, signer, timer_ids};
    use super::*;
    use crate::config::NeoConfig;
    use crate::log::Log;
    use crate::messages::GapVoteBody;
    use neo_aom::Envelope;
    use neo_crypto::CostModel;
    use neo_sim::{Node, RecordingContext};

    /// Append `n` requests at the tail the way aom deliveries do, then
    /// execute and vote.
    fn deliver(r: &mut Replica, n: u64, ctx: &mut RecordingContext) {
        for _ in 0..n {
            let seq = r.log.len().0 + 1;
            r.log.append_request(oc(seq, seq as u8));
        }
        r.try_execute(ctx);
        r.maybe_sync(ctx);
    }

    /// The last sync vote the replica broadcast.
    fn own_vote(ctx: &RecordingContext) -> (SyncBody, Signature) {
        let decode = |p: &neo_wire::Payload| match Envelope::from_bytes(p.as_slice()) {
            Ok(Envelope::App(bytes)) => NeoMsg::from_app_bytes(&bytes),
            _ => None,
        };
        let votes = ctx.sends.iter().rev().filter_map(|(_, p)| decode(p));
        votes
            .filter_map(|msg| match msg {
                NeoMsg::Sync(body, sig) => Some((body, sig)),
                _ => None,
            })
            .next()
            .expect("a sync vote was broadcast")
    }

    /// Replica `from`'s vote at `slot` in the initial view.
    fn sync_vote(
        from: u32,
        slot: SlotNum,
        state_digest: Digest,
        drops: Vec<(SlotNum, GapCert)>,
    ) -> (SyncBody, Signature) {
        let body = SyncBody {
            view: neo_wire::ViewId::INITIAL,
            replica: ReplicaId(from),
            slot,
            drops,
            state_digest,
        };
        let sig = sign_body(&body, &signer(from));
        (body, sig)
    }

    #[test]
    fn certification_does_not_hinge_on_the_first_2f_votes() {
        // Replica 1 of 4, no store. Replica 3 is Byzantine: at every
        // boundary it votes first, with a digest of its own, so the 2f
        // votes that settle the round leave only 2f matching ones.
        const INTERVAL: u64 = 64;
        let mut cfg = NeoConfig::new(1);
        cfg.sync_interval = INTERVAL;
        let mut r = replica(1, cfg);
        let wrong = neo_crypto::sha256(b"not this state");
        let rounds = (Replica::SLOT_WINDOW + 4 * INTERVAL) / INTERVAL;
        for round in 1..=rounds {
            let boundary = SlotNum(round * INTERVAL);
            let mut ctx = ctx(1);
            deliver(&mut r, INTERVAL, &mut ctx);
            let (own, _) = own_vote(&ctx);
            assert_eq!(own.slot, boundary);
            assert_ne!(own.state_digest, Digest::ZERO, "captured without a store");

            let (body, sig) = sync_vote(3, boundary, wrong, vec![]);
            r.on_sync(body, sig, &mut ctx);
            let (body, sig) = sync_vote(2, boundary, own.state_digest, vec![]);
            r.on_sync(body, sig, &mut ctx);
            assert_eq!(r.sync_point(), boundary, "2f votes from others settle it");
            assert_ne!(r.stable_checkpoint_slot(), Some(boundary), "2f matching");

            // The round is settled, and still takes what can sign this
            // replica's checkpoint — nothing else.
            let (body, sig) = sync_vote(0, boundary, wrong, vec![]);
            r.on_sync(body, sig, &mut ctx);
            assert_ne!(r.stable_checkpoint_slot(), Some(boundary));
            let (body, sig) = sync_vote(0, boundary, own.state_digest, vec![]);
            r.on_sync(body.clone(), sig.clone(), &mut ctx);
            assert_eq!(r.stable_checkpoint_slot(), Some(boundary), "2f+1 matching");
            r.on_sync(body, sig, &mut ctx);
            assert!(r.sync.sync_votes.is_empty(), "the round is over");
        }
        assert_eq!(r.stats.checkpoints_certified, rounds);
        // So the log is cut, and stays one window below the checkpoint.
        let stable = rounds * INTERVAL;
        assert_eq!(r.log.base(), SlotNum(stable - Replica::SLOT_WINDOW));
        assert_eq!(r.stats.slots_trimmed, stable - Replica::SLOT_WINDOW);
        assert_eq!(
            r.exec_digests().len() as u64,
            stable,
            "absolute, full-length"
        );
    }

    #[test]
    fn a_checkpoint_captured_after_its_round_settled_is_certified_by_the_votes_held() {
        // Replica 2 reaches the boundary first; its vote carries the
        // digest every correct replica will compute there.
        let mut cfg = NeoConfig::new(1);
        cfg.sync_interval = 4;
        let mut ahead = replica(2, cfg.clone());
        let mut ctx2 = ctx(2);
        deliver(&mut ahead, 4, &mut ctx2);
        let (body2, sig2) = own_vote(&ctx2);

        // Replica 1 lags: the votes of 2 and 3 settle the round before
        // it has executed — or captured — anything.
        let mut r = replica(1, cfg);
        let mut ctx = ctx(1);
        let (body3, sig3) = sync_vote(3, SlotNum(4), body2.state_digest, vec![]);
        r.on_sync(body2, sig2, &mut ctx);
        r.on_sync(body3, sig3, &mut ctx);
        assert_eq!(r.sync_point(), SlotNum(4));
        assert_eq!(r.stable_checkpoint_slot(), None);

        // When it gets there, the votes it kept and its own certify.
        deliver(&mut r, 4, &mut ctx);
        assert_eq!(r.stable_checkpoint_slot(), Some(SlotNum(4)));
    }

    #[test]
    fn a_no_op_certificate_below_the_base_is_settled() {
        // Replica 1 of 4 holds its log from slot 8 on and has executed
        // up to 16.
        let mut cfg = NeoConfig::new(1);
        cfg.sync_interval = 8;
        let app = Box::new(neo_app::EchoApp::new());
        let costs = CostModel::CALIBRATED;
        let mut r = Replica::new(ReplicaId(1), cfg, &keys(), costs, app);
        let mut ctx = ctx(1);
        r.set_log_for_tests(Log::with_base(SlotNum(8), Digest::ZERO));
        deliver(&mut r, 8, &mut ctx);
        assert_eq!(r.exec_cursor(), SlotNum(16));

        // The round at 16: both votes carry a (valid) gap certificate
        // for slot 3, a no-op of this view the senders still hold.
        let view = r.view;
        let commit = |from| {
            let body = GapVoteBody {
                view,
                replica: ReplicaId(from),
                slot: SlotNum(3),
                recv: false,
            };
            (body, sign_body(&body, &signer(from)))
        };
        let cert: GapCert = [0, 2, 3].map(commit).to_vec();
        let _ = r.crypto.meter().drain();
        for from in [0, 2] {
            let drops = vec![(SlotNum(3), cert.clone())];
            let (body, sig) = sync_vote(from, SlotNum(16), Digest::ZERO, drops);
            r.on_sync(body, sig, &mut ctx);
        }
        assert_eq!(r.sync_point(), SlotNum(16));

        // Below the base the slot is final: the certificate is not even
        // verified (two checks: the two votes), nothing is filled, and
        // nothing is rolled back towards it.
        let (_, parallel) = r.crypto.meter().drain();
        let verifies = parallel.iter().filter(|ns| **ns == costs.ed25519_verify);
        assert_eq!(verifies.count(), 2);
        assert_eq!((r.stats.rollbacks, r.stats.protocol_errors), (0, 0));
        assert_eq!(r.exec_cursor(), SlotNum(16));
    }

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
            let drops = vec![(SlotNum(0), cert.clone())];
            let (body, sig) = sync_vote(from, SlotNum(1), Digest::ZERO, drops);
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
