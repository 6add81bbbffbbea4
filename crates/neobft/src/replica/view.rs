//! View changes (§5.5) and epoch changes (§B.1): replacing a leader
//! that stalls a gap agreement, and following a sequencer failover into
//! a new epoch. 2f+1 view-change messages carry their senders' logs;
//! the new leader's view-start makes everyone adopt the merge
//! ([`merge_logs`]); an epoch switch additionally certifies where the
//! new epoch starts before the view is entered. Leaving a view closes
//! every gap round of it.

use super::timers::TimerPayload;
use super::{Replica, Status};
use crate::log::LogEntry;
use crate::messages::{
    sign_body, verify_body, EpochCert, EpochStartBody, NeoMsg, ViewChangeBody, WireLogEntry,
};
use crate::recovery::WalRecord;
use neo_crypto::{Principal, Signature};
use neo_sim::obs::Event;
use neo_sim::Context;
use neo_wire::{EpochNum, ReplicaId, SlotNum, ViewId};
use std::collections::BTreeMap;

/// View-change collection state.
#[derive(Default)]
pub(super) struct ViewChangeState {
    /// Valid view-change messages per proposed view. Both levels are
    /// BTreeMaps: the quorum selected in `maybe_start_view` goes on the
    /// wire, so the pick must be order-stable (R1, `clippy.toml`).
    msgs: BTreeMap<ViewId, BTreeMap<ReplicaId, (ViewChangeBody, Signature)>>,
    /// My own view-change message for the view I am proposing.
    own: Option<(ViewChangeBody, Signature)>,
    /// view-start already processed for this view.
    started: bool,
    /// Epoch-start votes: (epoch, slot) → replica → signed body.
    /// BTreeMaps: the votes become the broadcast epoch certificate.
    epoch_votes: BTreeMap<(EpochNum, SlotNum), BTreeMap<ReplicaId, (EpochStartBody, Signature)>>,
    /// My pending epoch entry after a merge, awaiting the certificate.
    awaiting_epoch: Option<(EpochNum, SlotNum)>,
    /// Epoch certificates I have collected (for my view-change messages).
    epoch_certs: Vec<(EpochNum, SlotNum, EpochCert)>,
}

impl ViewChangeState {
    /// Epoch certificates collected so far.
    pub(super) fn epoch_certs(&self) -> &[(EpochNum, SlotNum, EpochCert)] {
        &self.epoch_certs
    }

    /// Take back an epoch certificate this replica wrote to its own WAL
    /// before a restart.
    pub(super) fn restore_epoch_cert(&mut self, epoch: EpochNum, start: SlotNum, cert: EpochCert) {
        if !self.epoch_certs.iter().any(|(e, _, _)| *e == epoch) {
            self.epoch_certs.push((epoch, start, cert));
        }
    }
}

impl Replica {
    /// Distinct proposed views / epoch positions buffered during view
    /// changes.
    const VC_BUFFER_MAX: usize = 64;

    /// Enter a view change toward `new_view`.
    pub fn start_view_change(&mut self, new_view: ViewId, ctx: &mut dyn Context) {
        if new_view <= self.view && self.status == Status::Normal {
            return;
        }
        if self.status == Status::ViewChange
            && self
                .vc
                .own
                .as_ref()
                .is_some_and(|(b, _)| b.new_view >= new_view)
        {
            return;
        }
        self.status = Status::ViewChange;
        self.view = new_view;
        self.stats.view_changes += 1;
        ctx.emit(Event::ViewChange {
            view: new_view.leader_num,
        });
        // The old view's gap rounds can no longer complete.
        self.close_all_gap_rounds(ctx);
        let body = ViewChangeBody {
            new_view,
            replica: self.id,
            epoch_certs: self.vc.epoch_certs.clone(),
            log_base: self.log.base(),
            log: self.log.to_wire(),
        };
        let sig = sign_body(&body, &self.crypto);
        self.vc.own = Some((body.clone(), sig.clone()));
        self.vc.started = false;
        self.vc
            .msgs
            .entry(new_view)
            .or_default()
            .insert(self.id, (body.clone(), sig.clone()));
        self.broadcast(&NeoMsg::ViewChange(body, sig), ctx);
        self.timers.arm(
            TimerPayload::ViewChangeResend,
            self.cfg.view_change_resend_ns,
            ctx,
        );
        self.maybe_start_view(new_view, ctx);
    }

    /// The `ViewChangeResend` timer fired.
    // neo-lint: verified(timer payloads are armed locally by this replica, never attacker input)
    pub(super) fn on_view_change_resend(&mut self, ctx: &mut dyn Context) {
        if self.status == Status::ViewChange {
            if let Some((body, sig)) = self.vc.own.clone() {
                self.broadcast(&NeoMsg::ViewChange(body, sig), ctx);
            }
            self.timers.arm(
                TimerPayload::ViewChangeResend,
                self.cfg.view_change_resend_ns,
                ctx,
            );
        }
    }

    pub(super) fn on_view_change(
        &mut self,
        body: ViewChangeBody,
        sig: Signature,
        ctx: &mut dyn Context,
    ) {
        if !verify_body(&body, &sig, Principal::Replica(body.replica), &self.crypto) {
            return;
        }
        if body.new_view < self.view {
            return;
        }
        if !self.validate_wire_log(&body) {
            return;
        }
        let new_view = body.new_view;
        // R5 bound: cap distinct proposed views; reclaim room from views
        // below the current one before rejecting.
        if !self.vc.msgs.contains_key(&new_view) && self.vc.msgs.len() >= Self::VC_BUFFER_MAX {
            let cur = self.view;
            self.vc.msgs.retain(|v, _| *v >= cur);
            if self.vc.msgs.len() >= Self::VC_BUFFER_MAX {
                ctx.metrics().incr("replica.bounded_rejects");
                return;
            }
        }
        // neo-lint: allow(R5, size-capped with pruning above)
        let per_view = self.vc.msgs.entry(new_view).or_default();
        per_view.insert(body.replica, (body, sig));
        // Join rule: f+1 replicas moving to a higher view means at least
        // one correct replica did — follow them.
        let count = self.vc.msgs.get(&new_view).map(|m| m.len()).unwrap_or(0);
        if new_view > self.view && count >= self.cfg.f + 1 {
            self.start_view_change(new_view, ctx);
            return;
        }
        self.maybe_start_view(new_view, ctx);
    }

    /// Validate a view-change message's log (§5.5 log validity): every
    /// entry carries a valid certificate, and epoch starts are certified.
    fn validate_wire_log(&self, body: &ViewChangeBody) -> bool {
        // Epoch certs: 2f+1 distinct valid epoch-starts each.
        for (epoch, slot, cert) in &body.epoch_certs {
            if !self.verify_epoch_cert(*epoch, *slot, cert) {
                return false;
            }
        }
        let epoch_of_slot = |s: SlotNum| -> EpochNum {
            let mut e = EpochNum::INITIAL;
            for (epoch, start, _) in &body.epoch_certs {
                if *start <= s {
                    e = e.max(*epoch);
                }
            }
            e
        };
        for (i, entry) in body.log.iter().enumerate() {
            let slot = SlotNum(body.log_base.0 + i as u64);
            match entry {
                WireLogEntry::Request(oc) => {
                    let epoch = epoch_of_slot(slot);
                    if !self.verify_cert_in_epoch(oc, epoch) {
                        return false;
                    }
                }
                WireLogEntry::NoOp(cert) => {
                    if !self.verify_gap_cert(slot, cert) {
                        return false;
                    }
                }
            }
        }
        true
    }

    fn verify_epoch_cert(&self, epoch: EpochNum, slot: SlotNum, cert: &EpochCert) -> bool {
        self.has_signed_quorum(
            cert.iter()
                .filter(|(b, _)| b.epoch == epoch && b.start_slot == slot)
                .map(|(b, sig)| (b.replica, b, sig)),
        )
    }

    fn maybe_start_view(&mut self, new_view: ViewId, ctx: &mut dyn Context) {
        if self.status != Status::ViewChange || new_view != self.view {
            return;
        }
        if new_view.leader(self.cfg.n) != self.id || self.vc.started {
            return;
        }
        let Some(msgs) = self.vc.msgs.get(&new_view) else {
            return;
        };
        if msgs.len() < self.cfg.quorum() {
            return;
        }
        let view_changes: Vec<(ViewChangeBody, Signature)> =
            msgs.values().take(self.cfg.quorum()).cloned().collect();
        let sig = sign_body(&(new_view, view_changes.len() as u64), &self.crypto);
        let msg = NeoMsg::ViewStart {
            new_view,
            view_changes: view_changes.clone(),
            sig,
        };
        self.broadcast(&msg, ctx);
        self.vc.started = true;
        self.apply_view_start(new_view, &view_changes, ctx);
    }

    pub(super) fn on_view_start(
        &mut self,
        new_view: ViewId,
        view_changes: Vec<(ViewChangeBody, Signature)>,
        sig: Signature,
        ctx: &mut dyn Context,
    ) {
        if new_view < self.view {
            return;
        }
        let leader = new_view.leader(self.cfg.n);
        if !verify_body(
            &(new_view, view_changes.len() as u64),
            &sig,
            Principal::Replica(leader),
            &self.crypto,
        ) {
            return;
        }
        // Validate: 2f+1 distinct properly signed view-changes for this
        // view with valid logs.
        let mut seen = std::collections::BTreeSet::new();
        for (body, vc_sig) in &view_changes {
            if body.new_view != new_view {
                return;
            }
            if !verify_body(body, vc_sig, Principal::Replica(body.replica), &self.crypto) {
                return;
            }
            if !self.validate_wire_log(body) {
                return;
            }
            seen.insert(body.replica);
        }
        if seen.len() < self.cfg.quorum() {
            return;
        }
        self.view = new_view;
        self.status = Status::ViewChange;
        self.apply_view_start(new_view, &view_changes, ctx);
    }

    /// Merge the 2f+1 logs (§B.1) and enter the view (directly, or after
    /// the epoch-start exchange when the epoch advanced).
    fn apply_view_start(
        &mut self,
        new_view: ViewId,
        view_changes: &[(ViewChangeBody, Signature)],
        ctx: &mut dyn Context,
    ) {
        let (mbase, merged) = merge_logs(view_changes);
        let mend = mbase.0 + merged.len() as u64;
        let epoch_switch = new_view.epoch > self.epoch_of_log();
        if mbase > self.log.len() {
            // The entire merge quorum compacted below its checkpoint and
            // the merged log starts past our tail: we cannot adopt it
            // without the slots in between. Kick state transfer to fetch
            // the certified checkpoint, but still follow the view/epoch
            // bookkeeping below so we land in the new view.
            self.restart_recovery(ctx);
        } else {
            // Roll back to the first slot where the merged log diverges
            // from ours, then adopt the merged entries. Slots below both
            // bases are checkpoint-finalized (quorum intersection: a
            // certified checkpoint and the merge quorum share a correct
            // replica), so the scan starts at the higher base.
            let scan_from = mbase.0.max(self.log.base().0);
            let mut divergence = None;
            for s in scan_from..mend {
                let slot = SlotNum(s);
                let entry = &merged[(s - mbase.0) as usize];
                let differs = match (self.log.entry(slot), entry) {
                    (Some(LogEntry::Request(a)), WireLogEntry::Request(b)) => {
                        a.packet.header.auth_input() != b.packet.header.auth_input()
                    }
                    (Some(LogEntry::NoOp(_)), WireLogEntry::NoOp(_)) => false,
                    (None, _) => true,
                    _ => true,
                };
                if differs {
                    divergence = Some(slot);
                    break;
                }
            }
            if let Some(slot) = divergence {
                self.rollback_to(slot, ctx);
                for s in slot.0..mend {
                    let entry = &merged[(s - mbase.0) as usize];
                    let e = match entry {
                        WireLogEntry::Request(oc) => LogEntry::Request(oc.clone()),
                        WireLogEntry::NoOp(cert) => LogEntry::NoOp(Some(cert.clone())),
                    };
                    self.fill_slot(SlotNum(s), e, ctx);
                }
            }
            if epoch_switch && self.log.len().0 > mend {
                // §B.1: the new epoch begins right after the *merged* log.
                // Our speculative tail beyond it was not seen by the merge
                // quorum and cannot commit in the dead epoch — roll it back
                // and discard. Clients re-submit through the new sequencer;
                // the client table deduplicates. Same-epoch (leader-only)
                // view changes keep the tail: its slots still map to live
                // aom sequence numbers. (Clamped at our base: checkpointed
                // slots are finalized.)
                let cut = SlotNum(mend.max(self.log.base().0));
                self.rollback_to(cut, ctx);
                self.log.truncate(cut);
            }
        }
        // Epoch bookkeeping.
        if epoch_switch {
            // Epoch switch: certify the starting position (§B.1) — all
            // replicas adopted exactly the merged log, so this matches.
            // A replica still fetching the merged prefix votes at the
            // merged end too, so the quorum's positions agree.
            let start_slot = self.log.len().max(SlotNum(mend));
            let body = EpochStartBody {
                epoch: new_view.epoch,
                start_slot,
                replica: self.id,
            };
            let sig = sign_body(&body, &self.crypto);
            self.vc.awaiting_epoch = Some((new_view.epoch, start_slot));
            self.vc
                .epoch_votes
                .entry((new_view.epoch, start_slot))
                .or_default()
                .insert(self.id, (body, sig.clone()));
            self.broadcast(&NeoMsg::EpochStart(body, sig), ctx);
            self.check_epoch_start(new_view.epoch, start_slot, ctx);
        } else {
            self.enter_view(ctx);
        }
    }

    fn epoch_of_log(&self) -> EpochNum {
        self.log
            .epoch_starts()
            .last()
            .map(|(e, _)| *e)
            .unwrap_or(EpochNum::INITIAL)
    }

    pub(super) fn on_epoch_start(
        &mut self,
        body: EpochStartBody,
        sig: Signature,
        ctx: &mut dyn Context,
    ) {
        if !verify_body(&body, &sig, Principal::Replica(body.replica), &self.crypto) {
            return;
        }
        // R5 bounds: reject epochs far past the installed one, and cap
        // the distinct (epoch, slot) positions buffered (pruning
        // positions below the installed epoch first).
        if body.epoch.0 > self.ordering.epoch().0 + Self::FUTURE_EPOCH_WINDOW {
            ctx.metrics().incr("replica.bounded_rejects");
            return;
        }
        let key = (body.epoch, body.start_slot);
        if !self.vc.epoch_votes.contains_key(&key)
            && self.vc.epoch_votes.len() >= Self::VC_BUFFER_MAX
        {
            let cur = self.ordering.epoch();
            self.vc.epoch_votes.retain(|(e, _), _| *e >= cur);
            if self.vc.epoch_votes.len() >= Self::VC_BUFFER_MAX {
                ctx.metrics().incr("replica.bounded_rejects");
                return;
            }
        }
        // neo-lint: allow(R5, epoch-windowed and size-capped above)
        let votes = self.vc.epoch_votes.entry(key).or_default();
        votes.insert(body.replica, (body, sig));
        self.check_epoch_start(key.0, key.1, ctx);
    }

    fn check_epoch_start(&mut self, epoch: EpochNum, slot: SlotNum, ctx: &mut dyn Context) {
        let Some((await_e, await_s)) = self.vc.awaiting_epoch else {
            return;
        };
        if await_e != epoch || await_s != slot {
            return;
        }
        let Some(votes) = self.vc.epoch_votes.get(&(epoch, slot)) else {
            return;
        };
        if votes.len() < self.cfg.quorum() {
            return;
        }
        let cert: EpochCert = votes.values().cloned().collect();
        self.wal_append(&WalRecord::Epoch {
            epoch,
            start_slot: slot,
            cert: cert.clone(),
        });
        self.vc.epoch_certs.push((epoch, slot, cert));
        self.log.record_epoch_start(epoch, slot);
        self.enter_epoch(epoch, slot, ctx);
        self.vc.awaiting_epoch = None;
        // Votes at or below the installed epoch are settled: prune them
        // so the buffer stays bounded (neo-lint R5).
        self.vc.epoch_votes.retain(|(e, _), _| *e > epoch);
        self.enter_view(ctx);
    }

    fn enter_view(&mut self, ctx: &mut dyn Context) {
        self.status = Status::Normal;
        self.timers.cancel(TimerPayload::ViewChangeResend, ctx);
        // Abandon stale per-slot agreement state from the old view.
        self.close_all_gap_rounds(ctx);
        self.vc.started = false;
        // Unresolved pending slots at the tail carry into the new view's
        // gap agreement.
        if let Some(slot) = self.log.first_pending() {
            self.start_gap(slot, ctx);
        }
        self.try_execute(ctx);
        // Drain deliveries (and confirms) that accumulated while the view
        // change was in flight.
        self.pump_aom(ctx);
    }
}

/// Merge 2f+1 view-change logs per §B.1. Returns the absolute slot of
/// the merged log's first entry (non-zero when the chosen candidate had
/// compacted below a certified checkpoint) and the entries.
fn merge_logs(view_changes: &[(ViewChangeBody, Signature)]) -> (SlotNum, Vec<WireLogEntry>) {
    // (1) Largest certified epoch across the messages.
    let mut best_epoch = EpochNum::INITIAL;
    let mut best_start = SlotNum(0);
    for (body, _) in view_changes {
        for (e, s, _) in &body.epoch_certs {
            if *e > best_epoch {
                best_epoch = *e;
                best_start = *s;
            }
        }
    }
    // (2)+(3) From logs that started `best_epoch` (all of them, for the
    // initial epoch), take the one reaching the highest absolute slot;
    // copy its prefix and its requests.
    let candidates: Vec<&ViewChangeBody> = view_changes
        .iter()
        .map(|(b, _)| b)
        .filter(|b| {
            best_epoch == EpochNum::INITIAL
                || b.epoch_certs.iter().any(|(e, _, _)| *e == best_epoch)
        })
        .collect();
    let longest = candidates
        .iter()
        .max_by_key(|b| b.log_base.0 + b.log.len() as u64);
    let (base, mut merged) = match longest {
        Some(b) => (b.log_base, b.log.clone()),
        None => (SlotNum(0), Vec::new()),
    };
    // (4) Overlay no-ops from every candidate log within the epoch,
    // matched by absolute slot.
    for body in &candidates {
        for (i, entry) in body.log.iter().enumerate() {
            let s = SlotNum(body.log_base.0 + i as u64);
            if s < best_start || s < base {
                continue;
            }
            if let WireLogEntry::NoOp(cert) = entry {
                let idx = (s.0 - base.0) as usize;
                if idx < merged.len() {
                    merged[idx] = WireLogEntry::NoOp(cert.clone());
                }
            }
        }
    }
    (base, merged)
}

#[cfg(test)]
mod tests {
    use super::super::testing::{ctx, oc, replica, signer, timer_ids};
    use super::*;
    use crate::config::NeoConfig;
    use neo_sim::Node;

    #[test]
    fn a_gap_timer_of_the_old_view_cannot_fire_into_the_new_one() {
        // Replica 1 of 4 misses slot 0 in view 0: it queries the leader
        // and arms the round's two timers.
        let mut r = replica(1, NeoConfig::new(1));
        let mut ctx = ctx(1);
        r.log.append_pending();
        r.start_gap(SlotNum(0), &mut ctx);
        let old = timer_ids(&ctx);
        assert_eq!(old.len(), 2, "QueryRetry and GapAgreement");

        // View 1, which replica 1 leads: its own view-change message plus
        // two others' make the quorum, and the view starts.
        let v1 = ViewId::INITIAL.next_leader();
        r.start_view_change(v1, &mut ctx);
        for from in [2, 3] {
            let body = ViewChangeBody {
                new_view: v1,
                replica: ReplicaId(from),
                epoch_certs: vec![],
                log_base: SlotNum(0),
                log: vec![],
            };
            let sig = sign_body(&body, &signer(from));
            r.on_view_change(body, sig, &mut ctx);
        }
        assert_eq!((r.view, r.status), (v1, Status::Normal));
        assert!(r.log.is_pending(SlotNum(0)), "carried into view 1's round");

        // Leaving view 0 cancelled its round's timers, and an executor
        // that fires them anyway finds them meaningless: no view change
        // against view 1's leader, no second query chain.
        for id in &old {
            assert!(ctx.timers_cancelled.contains(id), "{id:?} not cancelled");
        }
        let sent = ctx.sends.len();
        for id in old {
            r.on_timer(id, 1, &mut ctx);
        }
        assert_eq!((r.view, r.stats.view_changes), (v1, 1));
        assert_eq!(ctx.sends.len(), sent, "nothing leaves, no ViewChange");
    }

    fn vc(replica: u32, entries: &[WireLogEntry]) -> (ViewChangeBody, Signature) {
        vc_based(replica, 0, entries)
    }

    fn vc_based(
        replica: u32,
        log_base: u64,
        entries: &[WireLogEntry],
    ) -> (ViewChangeBody, Signature) {
        (
            ViewChangeBody {
                new_view: ViewId::new(EpochNum(0), 1),
                replica: ReplicaId(replica),
                epoch_certs: vec![],
                log_base: SlotNum(log_base),
                log: entries.to_vec(),
            },
            Signature::empty(),
        )
    }

    fn req(seq: u64, p: u8) -> WireLogEntry {
        WireLogEntry::Request(oc(seq, p))
    }

    fn payload_of(e: &WireLogEntry) -> Option<u8> {
        match e {
            WireLogEntry::Request(oc) => Some(oc.packet.payload[0]),
            WireLogEntry::NoOp(_) => None,
        }
    }

    #[test]
    fn merge_takes_the_longest_log() {
        let msgs = vec![
            vc(0, &[req(1, 10)]),
            vc(1, &[req(1, 10), req(2, 20)]),
            vc(2, &[req(1, 10), req(2, 20), req(3, 30)]),
        ];
        let (base, merged) = merge_logs(&msgs);
        assert_eq!(base, SlotNum(0));
        assert_eq!(merged.len(), 3);
        assert_eq!(
            merged.iter().map(payload_of).collect::<Vec<_>>(),
            vec![Some(10), Some(20), Some(30)]
        );
    }

    #[test]
    fn merge_overlays_noops_from_any_log() {
        // Replica 2 committed slot 1 as a no-op (with a gap certificate);
        // the merge must carry the no-op even though a longer log holds a
        // request there (§B.1 step 4: no-ops overwrite).
        let msgs = vec![
            vc(0, &[req(1, 10), req(2, 20), req(3, 30)]),
            vc(1, &[req(1, 10), WireLogEntry::NoOp(vec![])]),
            vc(2, &[req(1, 10)]),
        ];
        let (_, merged) = merge_logs(&msgs);
        assert_eq!(merged.len(), 3);
        assert_eq!(payload_of(&merged[0]), Some(10));
        assert!(matches!(merged[1], WireLogEntry::NoOp(_)));
        assert_eq!(payload_of(&merged[2]), Some(30));
    }

    #[test]
    fn merge_of_empty_logs_is_empty() {
        let msgs = vec![vc(0, &[]), vc(1, &[]), vc(2, &[])];
        let (base, merged) = merge_logs(&msgs);
        assert_eq!(base, SlotNum(0));
        assert!(merged.is_empty());
    }

    #[test]
    fn merge_is_deterministic_across_orderings() {
        let a = vec![
            vc(0, &[req(1, 1)]),
            vc(1, &[req(1, 1), req(2, 2)]),
            vc(2, &[req(1, 1), WireLogEntry::NoOp(vec![])]),
        ];
        let mut b = a.clone();
        b.reverse();
        let (_, ma) = merge_logs(&a);
        let (_, mb) = merge_logs(&b);
        assert_eq!(ma.len(), mb.len());
        for (x, y) in ma.iter().zip(mb.iter()) {
            assert_eq!(payload_of(x), payload_of(y));
        }
    }

    #[test]
    fn merge_respects_candidate_log_bases() {
        // A compacted candidate (base 2, holding slots 2..=3) reaches the
        // highest absolute slot even though its vector is shorter; the
        // merge adopts its base, and a no-op from an un-compacted peer is
        // overlaid at the matching *absolute* slot.
        let msgs = vec![
            vc_based(0, 2, &[req(3, 30), req(4, 40)]),
            vc(1, &[req(1, 10), req(2, 20), WireLogEntry::NoOp(vec![])]),
            vc(2, &[req(1, 10)]),
        ];
        let (base, merged) = merge_logs(&msgs);
        assert_eq!(base, SlotNum(2));
        assert_eq!(merged.len(), 2);
        assert!(
            matches!(merged[0], WireLogEntry::NoOp(_)),
            "absolute slot 2 no-op overlays the compacted candidate's entry"
        );
        assert_eq!(payload_of(&merged[1]), Some(40));
    }
}
