//! Crash recovery and state transfer (DESIGN.md §17): restoring from
//! the durable store at construction, asking peers for a newer certified
//! checkpoint and the log suffix, serving such requests, offering the
//! stable checkpoint to a live peer that names a slot this log let go
//! of, and adopting a verified checkpoint — the one routine a disk
//! checkpoint, a fetched one and an offered one all go through.

use super::timers::TimerPayload;
use super::{Replica, Status};
use crate::log::LogEntry;
use crate::messages::{sign_body, verify_body, NeoMsg, StateQueryBody, WireLogEntry};
use crate::recovery::{WalRecord, WireCheckpoint};
use neo_crypto::{Principal, Signature};
use neo_sim::Context;
use neo_wire::{Addr, EpochNum, ReplicaId, SlotNum};
use std::collections::BTreeSet;

/// Phases of the crash-recovery state machine (DESIGN.md §17).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RecoveryPhase {
    /// Constructed from disk state; local WAL replay not yet executed.
    Recovering,
    /// Local replay done; state query broadcast, awaiting peer replies.
    FetchingCheckpoint,
    /// Installing a fetched checkpoint and log suffix.
    Replaying,
    /// Fully rejoined the cluster.
    Active,
}

/// Recovery bookkeeping: exists only on a replica constructed via
/// [`Replica::with_store`] or kicked into recovery by a merged
/// view-change log starting past its tail.
pub(super) struct RecoveryState {
    phase: RecoveryPhase,
    /// Slot the replica resumed from: its durable checkpoint's sync
    /// point, or 0 when it restarted without one. Raised if a newer
    /// checkpoint is installed from a peer during recovery.
    base: SlotNum,
    /// Virtual time the state transfer started (for `recovery_ns`).
    started_at: Option<u64>,
}

/// Checkpoint offers between live replicas, each bounded to one per
/// peer: those sent for the current stable checkpoint, and those tried
/// for the pending slot this replica is currently stuck at.
#[derive(Default)]
pub(super) struct Offers {
    sent: OncePerPeer,
    tried: OncePerPeer,
}

/// The peers something has happened with about one slot; a new slot
/// starts over.
#[derive(Default)]
struct OncePerPeer {
    about: SlotNum,
    peers: BTreeSet<ReplicaId>,
}

impl OncePerPeer {
    /// Whether this is the first time for `peer` about `slot` (and note
    /// that it has now happened).
    fn first(&mut self, peer: ReplicaId, slot: SlotNum) -> bool {
        if self.about != slot {
            self.about = slot;
            self.peers.clear();
        }
        self.peers.insert(peer)
    }
}

impl Replica {
    /// Log entries served per state-transfer reply (a recovering replica
    /// re-queries for more; bounds reply size and serve cost).
    const STATE_SUFFIX_MAX: usize = 1024;

    /// The slot this replica resumed from after a restart (`None` if it
    /// never ran recovery, `Some(SlotNum(0))` for an empty-disk restart).
    /// A non-zero base proves the replica rejoined from a certified
    /// checkpoint instead of replaying from slot 0.
    pub fn recovery_base(&self) -> Option<SlotNum> {
        self.recovery.as_ref().map(|r| r.base)
    }

    /// Current recovery phase (`None` if this replica never recovered).
    pub fn recovery_phase(&self) -> Option<RecoveryPhase> {
        self.recovery.as_ref().map(|r| r.phase)
    }

    /// (Re-)enter the `Recovering` phase; the next event kicks the
    /// handshake. A recovery already under way is left alone.
    fn begin_recovery(&mut self, base: SlotNum) {
        match &mut self.recovery {
            None => {
                self.recovery = Some(RecoveryState {
                    phase: RecoveryPhase::Recovering,
                    base,
                    started_at: None,
                })
            }
            Some(rec) if rec.phase == RecoveryPhase::Active => {
                rec.phase = RecoveryPhase::Recovering;
            }
            Some(_) => {}
        }
    }

    /// Resume from whatever `store` holds: the certified checkpoint
    /// (verified exactly like one fetched from a peer) is adopted, the
    /// WAL suffix is replayed into the log, the ordering layer is moved
    /// past all of it, and the recovery state machine is armed.
    pub(super) fn restore_from_store(&mut self, store: &dyn neo_sim::Store) {
        let mut base = SlotNum(0);
        // A disk checkpoint gets no more trust than a remote one: the
        // 2f+1 sync-vote certificate must verify and the app must accept
        // the snapshot, or we fall back to plain WAL replay from slot 0.
        let checkpoint = store
            .checkpoint()
            .and_then(|blob| WireCheckpoint::from_bytes(&blob))
            .filter(|wire| self.verify_checkpoint(wire));
        if let Some(wire) = checkpoint {
            if self.adopt_checkpoint(&wire) {
                base = wire.data.slot;
                if let Some((body, _)) = wire.cert.first() {
                    self.view = body.view;
                }
            }
        }
        self.replay_wal_records(&store.log_records(), base);
        self.realign_aom_to_log();
        self.begin_recovery(base);
    }

    /// Replay durable WAL records into the in-memory log (records below
    /// the checkpoint base were superseded by the checkpoint and are
    /// skipped). Uses the raw log fill — no context is available during
    /// construction, and no rollback can occur while the cursor sits at
    /// the base.
    // neo-lint: verified(records come from this replica's own checksummed WAL — written by itself pre-crash, torn tails healed by neo-store framing)
    fn replay_wal_records(&mut self, records: &[Vec<u8>], base: SlotNum) {
        for raw in records {
            match WalRecord::from_bytes(raw) {
                Some(WalRecord::Slot { slot, entry }) => {
                    if slot < base {
                        continue;
                    }
                    while self.log.len() <= slot {
                        self.log.append_pending();
                    }
                    let e = match entry {
                        WireLogEntry::Request(oc) => LogEntry::Request(oc),
                        WireLogEntry::NoOp(cert) if cert.is_empty() => LogEntry::NoOp(None),
                        WireLogEntry::NoOp(cert) => LogEntry::NoOp(Some(cert)),
                    };
                    let _ = self.log.fill(slot, e);
                }
                Some(WalRecord::Epoch {
                    epoch,
                    start_slot,
                    cert,
                }) => {
                    self.log.record_epoch_start(epoch, start_slot);
                    self.vc.restore_epoch_cert(epoch, start_slot, cert);
                }
                None => {} // unreadable record: healed tail artifact, skip
            }
        }
    }

    /// The merged view-change log starts past this replica's tail: go
    /// (back) into recovery and fetch what is missing.
    pub(super) fn restart_recovery(&mut self, ctx: &mut dyn Context) {
        self.begin_recovery(self.log.base());
        self.maybe_kick_recovery(ctx);
    }

    /// If this replica was constructed from a store and has not yet run
    /// the recovery handshake, run it now: execute whatever the local
    /// WAL replay resolved, then ask every peer for a newer certified
    /// checkpoint and the log suffix. Called at the top of every event
    /// entry point, so the first event after a restart (typically the
    /// INIT timer) kicks recovery before anything else is processed.
    pub(super) fn maybe_kick_recovery(&mut self, ctx: &mut dyn Context) {
        if self.recovery_phase() != Some(RecoveryPhase::Recovering) {
            return;
        }
        // Local replay execution: re-derive app state and replies for
        // everything the WAL already resolved.
        self.try_execute(ctx);
        self.send_state_query(ctx);
        let now = ctx.now();
        if let Some(rec) = &mut self.recovery {
            rec.phase = RecoveryPhase::FetchingCheckpoint;
            rec.started_at = Some(now);
        }
    }

    /// Ask every peer for a newer certified checkpoint and the log
    /// suffix, and again after `query_retry_ns` while still fetching.
    fn send_state_query(&mut self, ctx: &mut dyn Context) {
        // What is held is the resolved prefix, not the tail: a slot
        // still pending below the tail is as missing as one past it, for
        // a restarted replica and a live laggard alike.
        let body = StateQueryBody {
            replica: self.id,
            have: self.log.resolved_prefix_len(),
        };
        let sig = sign_body(&body, &self.crypto);
        self.broadcast(&NeoMsg::StateQuery(body, sig), ctx);
        self.timers.arm(
            TimerPayload::StateTransferRetry,
            self.cfg.query_retry_ns,
            ctx,
        );
    }

    /// The `StateTransferRetry` timer fired.
    // neo-lint: verified(timer payloads are armed locally by this replica, never attacker input)
    pub(super) fn on_state_transfer_retry(&mut self, ctx: &mut dyn Context) {
        if self.recovery_phase() == Some(RecoveryPhase::FetchingCheckpoint) {
            self.send_state_query(ctx);
        }
    }

    /// Serve a recovering peer: our stable checkpoint if it is newer
    /// than what the peer holds, plus a resolved log suffix. The reply
    /// is unsigned — the checkpoint certificate and per-entry
    /// ordering/gap certificates authenticate themselves, and the peer
    /// verifies all of them before installing anything.
    pub(super) fn on_state_query(
        &mut self,
        body: StateQueryBody,
        sig: Signature,
        ctx: &mut dyn Context,
    ) {
        if body.replica == self.id {
            return;
        }
        if !verify_body(&body, &sig, Principal::Replica(body.replica), &self.crypto) {
            return;
        }
        let checkpoint = self
            .sync
            .stable_checkpoint()
            .filter(|cp| cp.data.slot > body.have)
            .cloned();
        let from = checkpoint
            .as_ref()
            .map(|cp| cp.data.slot)
            .unwrap_or(body.have);
        let (suffix_start, suffix) = self.log.wire_range(from, Self::STATE_SUFFIX_MAX);
        self.send_to(
            body.replica,
            &NeoMsg::StateReply {
                checkpoint,
                suffix_start,
                suffix,
            },
            ctx,
        );
        self.stats.state_replies_served += 1;
        ctx.metrics().incr("replica.state_replies_served");
    }

    /// A peer named a slot this log has let go of: send it what covers
    /// that slot — the stable checkpoint, as a `StateReply` with an
    /// empty suffix — at most once per peer per stable checkpoint, so
    /// the (unauthenticated) request cannot be turned into a stream of
    /// snapshots.
    pub(super) fn offer_checkpoint(&mut self, to: ReplicaId, ctx: &mut dyn Context) {
        let Some(stable) = self.sync.stable_checkpoint() else {
            return;
        };
        let slot = stable.data.slot;
        if to == self.id || to.index() >= self.cfg.n || !self.offers.sent.first(to, slot) {
            return;
        }
        let offer = NeoMsg::StateReply {
            checkpoint: Some(stable.clone()),
            suffix_start: slot,
            suffix: Vec::new(),
        };
        self.send_to(to, &offer, ctx);
        self.stats.checkpoints_offered += 1;
        ctx.metrics().incr("replica.checkpoints_offered");
    }

    /// Count a rejected state-transfer payload and return to the
    /// fetching phase so the retry timer keeps asking other peers.
    fn reject_state_transfer(&mut self, ctx: &mut dyn Context) {
        self.stats.state_transfer_rejected += 1;
        ctx.metrics().incr("replica.state_transfer_rejected");
        if let Some(rec) = &mut self.recovery {
            if rec.phase == RecoveryPhase::Replaying {
                rec.phase = RecoveryPhase::FetchingCheckpoint;
            }
        }
    }

    /// Make a *verified* checkpoint this replica's state — from its own
    /// disk at construction, fetched during recovery, or offered to a
    /// live laggard alike. The app takes the snapshot, the cursor and
    /// the sync point move to the checkpoint's slot, and the log is
    /// rebased there in place: it keeps its own entries at and above the
    /// slot (they came authenticated from aom, and none was executed —
    /// the cursor stood below), and a log whose tail is below the slot
    /// is left empty at it. Returns false, with nothing changed, if the
    /// app refuses the snapshot.
    // neo-lint: verified(every caller — restore_from_store, and install_checkpoint's callers on_state_reply and on_checkpoint_offer — runs verify_checkpoint on the 2f+1 sync-vote certificate first)
    fn adopt_checkpoint(&mut self, wire: &WireCheckpoint) -> bool {
        if !self.exec.install_checkpoint(&wire.data) {
            return false;
        }
        let slot = wire.data.slot;
        // ... unless the checkpoint starts an epoch this log has not
        // seen: its tail was then stamped by a sequencer the group has
        // left behind, and goes too.
        let unseen = |(e, _): &(EpochNum, SlotNum)| self.log.epoch_start(*e).is_none();
        if wire.data.epoch_starts.iter().any(unseen) {
            self.log.truncate(slot);
        }
        self.stats.slots_trimmed += self.log.rebase(slot, wire.data.chain_hash);
        for (e, s) in &wire.data.epoch_starts {
            self.log.record_epoch_start(*e, *s);
        }
        self.sync.adopt_checkpoint(wire);
        if let Some(rec) = &mut self.recovery {
            rec.base = rec.base.max(slot);
        }
        true
    }

    /// Install a *verified* checkpoint from a peer, on a running
    /// replica: adopt it, close the gap rounds below it, persist it, and
    /// let the ordering layer follow the log (which moves the receiver
    /// only if the checkpoint lay past the tail).
    // neo-lint: verified(both callers, on_state_reply and on_checkpoint_offer, run verify_checkpoint on the 2f+1 sync-vote certificate before installing)
    fn install_checkpoint(&mut self, wire: &WireCheckpoint, ctx: &mut dyn Context) -> bool {
        if !self.adopt_checkpoint(wire) {
            return false;
        }
        self.close_gap_rounds_below(wire.data.slot, ctx);
        // Persist: the checkpoint supersedes every WAL record below it.
        if let Some(store) = &mut self.store {
            store.put_checkpoint(&wire.to_bytes());
        }
        self.compact_wal(wire.data.slot, ctx);
        self.realign_aom_to_log();
        true
    }

    /// An unsolicited `StateReply`: a peer's answer to a message of ours
    /// that named a slot it no longer holds (`answer_trimmed_slot`).
    /// Admission before authentication (DESIGN.md §16) — this replica is
    /// live and stuck on a pending slot the checkpoint covers, the
    /// checkpoint is newer than its own, and the sender has not been
    /// tried for this pending slot — then the same `verify_checkpoint`
    /// and the same adoption as any other checkpoint.
    fn on_checkpoint_offer(&mut self, from: Addr, wire: &WireCheckpoint, ctx: &mut dyn Context) {
        let Addr::Replica(from) = from else {
            return;
        };
        let stuck_at = self.log.resolved_prefix_len();
        let stuck = self.status == Status::Normal
            && self.log.is_pending(stuck_at)
            && stuck_at < wire.data.slot;
        let newer = self.stable_checkpoint_slot() < Some(wire.data.slot);
        // Within this replica's epoch only: following the group into a
        // new one takes the view change, not a snapshot.
        let starts = &wire.data.epoch_starts;
        let same_epoch = starts.iter().all(|(e, _)| *e <= self.ordering.epoch());
        let admissible = stuck && newer && same_epoch && from.index() < self.cfg.n;
        if !admissible || !self.offers.tried.first(from, stuck_at) {
            return;
        }
        if !self.verify_checkpoint(wire) || !self.install_checkpoint(wire, ctx) {
            self.reject_state_transfer(ctx);
            return;
        }
        self.stats.checkpoints_adopted_live += 1;
        ctx.metrics().incr("replica.checkpoints_adopted_live");
        self.try_execute(ctx);
        self.maybe_sync(ctx);
        self.pump_aom(ctx);
    }

    /// Handle a state-transfer reply: verify the checkpoint certificate
    /// and every suffix entry's ordering/gap certificate, install what
    /// verifies, and rejoin. Any failed check rejects the whole reply —
    /// a Byzantine peer cannot smuggle a tampered snapshot or an
    /// uncertified entry past this point. Outside recovery a reply can
    /// only be a checkpoint offer.
    pub(super) fn on_state_reply(
        &mut self,
        from: Addr,
        checkpoint: Option<WireCheckpoint>,
        suffix_start: SlotNum,
        suffix: Vec<WireLogEntry>,
        ctx: &mut dyn Context,
    ) {
        if self.recovery_phase() != Some(RecoveryPhase::FetchingCheckpoint) {
            if let Some(wire) = &checkpoint {
                self.on_checkpoint_offer(from, wire, ctx);
            }
            return;
        }
        if let Some(rec) = &mut self.recovery {
            rec.phase = RecoveryPhase::Replaying;
        }
        if let Some(wire) = &checkpoint {
            if !self.verify_checkpoint(wire) {
                self.reject_state_transfer(ctx);
                return;
            }
            // Only a checkpoint that covers something this log is
            // missing: one below the resolved prefix has nothing to add.
            if wire.data.slot > self.log.resolved_prefix_len()
                && !self.install_checkpoint(wire, ctx)
            {
                self.reject_state_transfer(ctx);
                return;
            }
        }
        // Verify every suffix entry against its slot position before
        // touching the log: reject-all-or-install-all.
        let mut verified: Vec<(SlotNum, LogEntry)> = Vec::with_capacity(suffix.len());
        for (i, entry) in suffix.iter().enumerate() {
            let slot = SlotNum(suffix_start.0 + i as u64);
            if slot < self.log.base() {
                continue; // covered by the checkpoint just installed
            }
            match entry {
                // The suffix starts at the resolved prefix: a slot the
                // log already holds above it has this request, or the
                // certified no-op that replaced it.
                WireLogEntry::Request(_) if self.log.entry(slot).is_some() => {}
                WireLogEntry::Request(oc) => {
                    let (epoch, seq) = self.epoch_and_seq_of(slot);
                    if oc.packet.header.seq != seq || !self.verify_cert_in_epoch(oc, epoch) {
                        self.reject_state_transfer(ctx);
                        return;
                    }
                    verified.push((slot, LogEntry::Request(oc.clone())));
                }
                WireLogEntry::NoOp(cert) => {
                    if !self.verify_gap_cert(slot, cert) {
                        self.reject_state_transfer(ctx);
                        return;
                    }
                    verified.push((slot, LogEntry::NoOp(Some(cert.clone()))));
                }
            }
        }
        for (slot, entry) in verified {
            self.fill_slot(slot, entry, ctx);
        }
        // Re-align the ordering layer with the (possibly longer) log.
        self.realign_aom_to_log();
        // Rejoined: the first valid reply completes recovery (an empty
        // reply counts — the gap machinery covers any straggler slots).
        self.timers.cancel(TimerPayload::StateTransferRetry, ctx);
        let started = self.recovery.as_mut().and_then(|rec| {
            rec.phase = RecoveryPhase::Active;
            rec.started_at.take()
        });
        if let Some(t0) = started {
            ctx.metrics()
                .observe("replica.recovery_ns", ctx.now().saturating_sub(t0));
        }
        self.try_execute(ctx);
        self.maybe_sync(ctx);
        self.pump_aom(ctx);
    }
}
