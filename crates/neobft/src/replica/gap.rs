//! Gap agreement (§5.4): what happens to a slot whose aom message this
//! replica (or the leader) did not receive — query / query-reply from
//! the leader first, then the leader-driven binary agreement
//! (gap-find → gap-recv / gap-drop → gap-decision → gap-prepare →
//! gap-commit) that commits the slot as the request or as a no-op. One
//! round per slot per view; a round's timers are `QueryRetry(slot)` and
//! `GapAgreement(slot)`, cancelled when the round closes.

use super::timers::TimerPayload;
use super::{Replica, Status};
use crate::error::ProtocolError;
use crate::log::LogEntry;
use crate::messages::{
    gap_decision_digest, sign_body, verify_body, GapCert, GapDecisionBody, GapDropBody,
    GapVoteBody, NeoMsg,
};
use neo_aom::OrderingCert;
use neo_crypto::{Principal, Signature};
use neo_sim::obs::Event;
use neo_sim::Context;
use neo_wire::{Addr, ReplicaId, SlotNum, ViewId};
use std::collections::BTreeMap;

/// Per-slot gap-agreement state.
#[derive(Default)]
struct GapState {
    /// Leader: the first valid ordering certificate received.
    recv: Option<OrderingCert>,
    /// Leader: gap-drop votes. BTreeMap: vote sets end up inside signed
    /// decisions and certificates, so their order is wire-visible and
    /// must not depend on hash seeds (R1, `clippy.toml`).
    drops: BTreeMap<ReplicaId, (GapDropBody, Signature)>,
    /// Leader: decision already broadcast.
    decision_sent: bool,
    /// All: validated decision from the leader (`true` = recv).
    decision: Option<(bool, Option<OrderingCert>, GapDecisionBody)>,
    /// All: prepare votes.
    prepares: BTreeMap<ReplicaId, (GapVoteBody, Signature)>,
    /// All: commit votes.
    commits: BTreeMap<ReplicaId, (GapVoteBody, Signature)>,
    /// All: my prepare / commit already sent.
    prepared: bool,
    committed: bool,
    /// I answered a gap-find with gap-drop: must ignore query-replies and
    /// wait for the agreement outcome (§5.4).
    voted_drop: bool,
    /// The leader asked about this slot before I reached it.
    find_pending: bool,
    /// Resolved: slot filled and unblocked.
    resolved: bool,
}

impl GapState {
    /// Whether one more prepare / commit could still change this round:
    /// not when its sender's vote is already among `held`, when the
    /// decision went the other way, or when `needed` votes for the same
    /// outcome are held — such a vote is dropped before its signature is
    /// looked at (DESIGN.md §16).
    fn vote_can_count(
        &self,
        held: &BTreeMap<ReplicaId, (GapVoteBody, Signature)>,
        vote: &GapVoteBody,
        needed: usize,
    ) -> bool {
        !held.contains_key(&vote.replica)
            && !matches!(&self.decision, Some((recv, ..)) if *recv != vote.recv)
            && held.values().filter(|(b, _)| b.recv == vote.recv).count() < needed
    }
}

/// Gap-agreement state: the rounds of the current view.
#[derive(Default)]
pub(super) struct GapAgreement {
    /// BTreeMap: `slots_below` walks this map and what it finds is
    /// signed into a sync vote.
    gaps: BTreeMap<SlotNum, GapState>,
}

impl GapAgreement {
    /// Slots below `end` that had a round in this view — where a sync
    /// vote looks for no-ops to carry (§B.2). A marker per finished
    /// round survives the sync point, see `shed_votes_below`, and goes
    /// with its slot when the log lets go of it.
    pub(super) fn slots_below(&self, end: SlotNum) -> impl Iterator<Item = SlotNum> + '_ {
        self.gaps.range(..end).map(|(slot, _)| *slot)
    }

    /// The gap rounds resolved below the sync point give up their ≈ 2n
    /// signed votes each and keep only the `resolved` marker, which is
    /// what turns away a replayed decision while the log still holds the
    /// slot (below the base, `answer_trimmed_slot` does); one still open
    /// here (this replica lags) stays whole.
    pub(super) fn shed_votes_below(&mut self, sync_point: SlotNum) {
        for (_, gap) in self
            .gaps
            .range_mut(..sync_point)
            .filter(|(_, g)| g.resolved)
        {
            *gap = GapState {
                resolved: true,
                ..GapState::default()
            };
        }
    }
}

impl Replica {
    /// Signed gap-agreement votes (drops, prepares, commits) currently
    /// held: those of open rounds, plus those of rounds resolved since the
    /// last sync point. For the tests of that bound.
    #[doc(hidden)]
    pub fn gap_votes_held(&self) -> usize {
        let votes = |g: &GapState| g.drops.len() + g.prepares.len() + g.commits.len();
        self.gap.gaps.values().map(votes).sum()
    }

    /// Abandon every round: per-slot agreement state belongs to one
    /// view, so leaving the view discards it — state and timers both, or
    /// a timer armed for the old round fires into the new one.
    pub(super) fn close_all_gap_rounds(&mut self, ctx: &mut dyn Context) {
        self.close_gap_rounds_below(SlotNum(u64::MAX), ctx);
    }

    /// Abandon the rounds of slots below `end` — open ones, and the
    /// markers of finished ones — with their timers: the log no longer
    /// holds those slots (`end` is its new base), and whatever still
    /// arrives about them stops at `answer_trimmed_slot`.
    pub(super) fn close_gap_rounds_below(&mut self, end: SlotNum, ctx: &mut dyn Context) {
        self.timers.cancel_gap_rounds_below(end, ctx);
        self.gap.gaps = self.gap.gaps.split_off(&end);
    }

    /// The one rule for a message about a slot this log has let go of
    /// (DESIGN.md §17), applied before any per-message handler: it
    /// creates no round and no map entry, whatever its view. A `Query`,
    /// `GapFind` or `GapDecision` comes from a replica that is stuck on
    /// that slot, and what unsticks it is the checkpoint that covers it,
    /// so its sender is offered this replica's stable one; the votes and
    /// answers of a round (`GapRecv`, `GapDrop`, `GapPrepare`,
    /// `GapCommit`, `QueryReply`) are dropped. (`StateQuery` names a
    /// slot too, and `on_state_query` already answers one below the base
    /// with the checkpoint.) Returns whether the message stops here.
    pub(super) fn answer_trimmed_slot(
        &mut self,
        from: Addr,
        msg: &NeoMsg,
        ctx: &mut dyn Context,
    ) -> bool {
        let (slot, stuck_sender) = match msg {
            NeoMsg::Query { slot, .. }
            | NeoMsg::GapFind { slot, .. }
            | NeoMsg::GapDecision { slot, .. } => (*slot, true),
            NeoMsg::QueryReply { slot, .. } | NeoMsg::GapRecv { slot, .. } => (*slot, false),
            NeoMsg::GapDrop(body, _) => (body.slot, false),
            NeoMsg::GapPrepare(body, _) | NeoMsg::GapCommit(body, _) => (body.slot, false),
            _ => return false,
        };
        if slot >= self.log.base() {
            return false;
        }
        if let (true, Addr::Replica(sender)) = (stuck_sender, from) {
            self.offer_checkpoint(sender, ctx);
        }
        true
    }

    /// The slot has its final entry: no vote or timer of its round
    /// matters any more. The `resolved` marker stops late votes at
    /// admission.
    pub(super) fn close_gap_round(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        self.timers.cancel_slot(slot, ctx);
        if let Some(gap) = self.gap.gaps.get_mut(&slot) {
            gap.resolved = true;
        }
    }

    /// Admission for a gap-agreement vote (gap-drop, prepare, commit):
    /// the slot is in the window, and a final slot is served only through
    /// a round this replica holds — a late or replayed vote never opens
    /// one.
    fn gap_vote_admissible(&self, slot: SlotNum, ctx: &mut dyn Context) -> bool {
        (self.gap.gaps.contains_key(&slot) || !self.slot_is_final(slot))
            && self.slot_in_window(slot, ctx)
    }

    pub(super) fn start_gap(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        if self.status != Status::Normal {
            return;
        }
        if !self.gap.gaps.contains_key(&slot) {
            ctx.emit(Event::GapFind { slot: slot.0 });
        }
        let view = self.view;
        let is_leader = self.is_leader();
        let gap = self.gap.gaps.entry(slot).or_default();
        if gap.resolved {
            return;
        }
        if is_leader {
            if !gap.decision_sent {
                let sig = sign_body(&(view, slot), &self.crypto);
                let find = NeoMsg::GapFind { view, slot, sig };
                // The leader counts itself as one gap-drop vote.
                let body = GapDropBody {
                    view,
                    replica: self.id,
                    slot,
                };
                let dsig = sign_body(&body, &self.crypto);
                gap.drops.insert(self.id, (body, dsig));
                self.broadcast(&find, ctx);
            }
        } else {
            self.send_query(slot, ctx);
        }
        self.timers.arm(
            TimerPayload::GapAgreement(slot),
            self.cfg.gap_agreement_timeout_ns,
            ctx,
        );
    }

    /// Ask the leader for `slot`'s request, and again after
    /// `query_retry_ns` while the slot stays unresolved.
    fn send_query(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        ctx.emit(Event::Query { slot: slot.0 });
        let q = NeoMsg::Query {
            view: self.view,
            slot,
        };
        self.send_to(self.leader(), &q, ctx);
        self.timers
            .arm(TimerPayload::QueryRetry(slot), self.cfg.query_retry_ns, ctx);
    }

    /// The `QueryRetry` timer fired.
    // neo-lint: verified(timer payloads are armed locally by this replica, never attacker input)
    pub(super) fn on_query_retry(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        if self.status != Status::Normal {
            return;
        }
        let unresolved = self
            .gap
            .gaps
            .get(&slot)
            .map(|g| !g.resolved && !g.voted_drop)
            .unwrap_or(false);
        if unresolved && self.log.is_pending(slot) {
            self.send_query(slot, ctx);
        }
    }

    /// The `GapAgreement` timer fired.
    // neo-lint: verified(timer payloads are armed locally by this replica, never attacker input)
    pub(super) fn on_gap_agreement_timeout(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        let unresolved = self
            .gap
            .gaps
            .get(&slot)
            .map(|g| !g.resolved)
            .unwrap_or(false);
        if unresolved && self.status == Status::Normal {
            // The leader failed to drive the agreement: view
            // change (§5.5).
            let next = self.view.next_leader();
            self.start_view_change(next, ctx);
        }
    }

    /// A slot just materialized; if the leader asked about it earlier,
    /// answer now.
    pub(super) fn answer_pending_find(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        let Some(gap) = self.gap.gaps.get_mut(&slot) else {
            return;
        };
        if !gap.find_pending || gap.resolved {
            return;
        }
        gap.find_pending = false;
        self.answer_find(slot, ctx);
    }

    /// Answer the leader's gap-find for a slot this log has reached:
    /// gap-recv with the certificate if it holds the request, gap-drop
    /// if the slot is pending; nothing for a no-op (already committed in
    /// a previous round — the leader will learn via view change or
    /// sync). Returns whether the log has reached the slot at all.
    fn answer_find(&mut self, slot: SlotNum, ctx: &mut dyn Context) -> bool {
        match self.log.entry(slot) {
            Some(LogEntry::Request(oc)) => {
                let msg = NeoMsg::GapRecv {
                    view: self.view,
                    slot,
                    oc: oc.clone(),
                };
                self.send_to(self.leader(), &msg, ctx);
            }
            Some(LogEntry::NoOp(_)) => {}
            None if self.log.is_pending(slot) => self.send_gap_drop(slot, ctx),
            None => return false,
        }
        true
    }

    fn send_gap_drop(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        let body = GapDropBody {
            view: self.view,
            replica: self.id,
            slot,
        };
        let sig = sign_body(&body, &self.crypto);
        let leader = self.leader();
        self.send_to(leader, &NeoMsg::GapDrop(body, sig), ctx);
        self.gap.gaps.entry(slot).or_default().voted_drop = true;
    }

    pub(super) fn on_query(
        &mut self,
        from: Addr,
        view: ViewId,
        slot: SlotNum,
        ctx: &mut dyn Context,
    ) {
        if view != self.view || self.status != Status::Normal {
            return;
        }
        let Some(Addr::Replica(_)) = Some(from) else {
            return;
        };
        if let Some(LogEntry::Request(oc)) = self.log.entry(slot) {
            let reply = NeoMsg::QueryReply {
                view,
                slot,
                oc: oc.clone(),
            };
            if let Addr::Replica(r) = from {
                ctx.emit(Event::QueryReply { slot: slot.0 });
                self.send_to(r, &reply, ctx);
            }
        }
        // If the leader itself is missing the slot, its own gap-find is
        // already in flight; nothing else to do.
    }

    pub(super) fn on_query_reply(
        &mut self,
        view: ViewId,
        slot: SlotNum,
        oc: OrderingCert,
        ctx: &mut dyn Context,
    ) {
        if view != self.view || self.status != Status::Normal {
            return;
        }
        let gap_voted_drop = self
            .gap
            .gaps
            .get(&slot)
            .map(|g| g.voted_drop || g.resolved)
            .unwrap_or(false);
        if gap_voted_drop {
            return; // §5.4: blocked on the agreement decision
        }
        if !self.log.is_pending(slot) {
            return;
        }
        if !self.verify_oc_for_slot(&oc, slot) {
            return;
        }
        self.fill_slot(slot, LogEntry::Request(oc), ctx);
        self.resolve_gap(slot, ctx);
        self.stats.gaps_recovered += 1;
        ctx.metrics().incr("replica.gap_recovered_by_query");
    }

    pub(super) fn on_gap_find(
        &mut self,
        view: ViewId,
        slot: SlotNum,
        sig: Signature,
        ctx: &mut dyn Context,
    ) {
        if view != self.view || self.status != Status::Normal {
            return;
        }
        let leader = self.leader();
        if !verify_body(
            &(view, slot),
            &sig,
            Principal::Replica(leader),
            &self.crypto,
        ) {
            return;
        }
        if !self.answer_find(slot, ctx) && self.slot_in_window(slot, ctx) {
            // The slot is beyond my log: answer when it arrives.
            // neo-lint: allow(R5, slot_in_window-bounded above)
            self.gap.gaps.entry(slot).or_default().find_pending = true;
        }
    }

    pub(super) fn on_gap_recv(
        &mut self,
        view: ViewId,
        slot: SlotNum,
        oc: OrderingCert,
        ctx: &mut dyn Context,
    ) {
        if view != self.view || !self.is_leader() || self.status != Status::Normal {
            return;
        }
        // The leader asks only about a slot it is missing: a final slot,
        // or a round already decided or resolved, takes no certificate.
        if self.slot_is_final(slot)
            || self
                .gap
                .gaps
                .get(&slot)
                .is_some_and(|g| g.decision_sent || g.resolved)
        {
            return;
        }
        if !self.verify_oc_for_slot(&oc, slot) || !self.slot_in_window(slot, ctx) {
            return;
        }
        // neo-lint: allow(R5, slot_in_window-bounded above)
        let gap = self.gap.gaps.entry(slot).or_default();
        gap.recv = Some(oc.clone());
        self.send_gap_decision(slot, GapDecisionBody::Recv(oc), ctx);
    }

    pub(super) fn on_gap_drop(&mut self, body: GapDropBody, sig: Signature, ctx: &mut dyn Context) {
        if body.view != self.view || !self.is_leader() || self.status != Status::Normal {
            return;
        }
        let quorum = self.cfg.quorum();
        let slot = body.slot;
        if !self.gap_vote_admissible(slot, ctx) {
            return;
        }
        // Decided rounds and repeated senders drop out unverified (the
        // decision goes out the moment the 2f+1-th drop is held).
        if self
            .gap
            .gaps
            .get(&slot)
            .is_some_and(|g| g.decision_sent || g.resolved || g.drops.contains_key(&body.replica))
        {
            return;
        }
        if !verify_body(&body, &sig, Principal::Replica(body.replica), &self.crypto) {
            return;
        }
        // neo-lint: allow(R5, slot_in_window-bounded above)
        let gap = self.gap.gaps.entry(slot).or_default();
        gap.drops.insert(body.replica, (body, sig));
        if gap.drops.len() >= quorum {
            let drops: Vec<_> = gap.drops.values().cloned().collect();
            self.send_gap_decision(slot, GapDecisionBody::Drop(drops), ctx);
        }
    }

    fn send_gap_decision(
        &mut self,
        slot: SlotNum,
        decision: GapDecisionBody,
        ctx: &mut dyn Context,
    ) {
        let view = self.view;
        let digest = gap_decision_digest(view, slot, &decision);
        let sig = self.crypto.sign(&digest);
        let msg = NeoMsg::GapDecision {
            view,
            slot,
            decision: decision.clone(),
            sig,
        };
        self.broadcast(&msg, ctx);
        self.gap.gaps.entry(slot).or_default().decision_sent = true;
        // The leader proceeds through the agreement like everyone else.
        // Its decision needs no second validation: the ordering
        // certificate was verified in `on_gap_recv` and every drop in
        // `on_gap_drop` before it was held.
        self.adopt_decision(view, slot, decision, ctx);
    }

    pub(super) fn on_gap_decision(
        &mut self,
        view: ViewId,
        slot: SlotNum,
        decision: GapDecisionBody,
        sig: Signature,
        ctx: &mut dyn Context,
    ) {
        if view != self.view || self.status != Status::Normal {
            return;
        }
        // A round that already holds a decision, or is resolved (the
        // marker outlives the sync point), cannot take another: skip the
        // leader signature and the up-to-2f+1 signatures inside.
        if !self.slot_in_window(slot, ctx)
            || self
                .gap
                .gaps
                .get(&slot)
                .is_some_and(|g| g.resolved || g.decision.is_some())
        {
            return;
        }
        // A final slot with no round here: a leader that lags behind the
        // sync point can finish its round only if the others still vote,
        // so a decision that restates the log is served, once. One that
        // contradicts the log is not.
        let restates_log = matches!(
            (self.log.entry(slot), &decision),
            (Some(LogEntry::Request(_)), GapDecisionBody::Recv(_))
                | (Some(LogEntry::NoOp(_)), GapDecisionBody::Drop(_))
        );
        if self.slot_is_final(slot) && !restates_log {
            return;
        }
        let digest = gap_decision_digest(view, slot, &decision);
        if self
            .crypto
            .verify(Principal::Replica(self.leader()), &digest, &sig)
            .is_err()
        {
            return;
        }
        // Validate decision contents (§5.4).
        let valid = match &decision {
            GapDecisionBody::Recv(oc) => self.verify_oc_for_slot(oc, slot),
            GapDecisionBody::Drop(drops) => self.has_signed_quorum(
                drops
                    .iter()
                    .filter(|(b, _)| b.slot == slot && b.view == view)
                    .map(|(b, sig)| (b.replica, b, sig)),
            ),
        };
        if valid {
            self.adopt_decision(view, slot, decision, ctx);
        }
    }

    /// Take a *validated* decision into the slot's round and cast the
    /// prepare vote.
    // neo-lint: verified(callers validate first: on_gap_decision checks the leader signature and the contents; send_gap_decision builds the decision from inputs on_gap_recv / on_gap_drop verified)
    fn adopt_decision(
        &mut self,
        view: ViewId,
        slot: SlotNum,
        decision: GapDecisionBody,
        ctx: &mut dyn Context,
    ) {
        let recv = matches!(decision, GapDecisionBody::Recv(_));
        let gap = self.gap.gaps.entry(slot).or_default();
        if gap.resolved || gap.decision.is_some() {
            return;
        }
        let oc = match &decision {
            GapDecisionBody::Recv(oc) => Some(oc.clone()),
            GapDecisionBody::Drop(_) => None,
        };
        gap.decision = Some((recv, oc, decision));
        // Broadcast my prepare vote.
        let body = GapVoteBody {
            view,
            replica: self.id,
            slot,
            recv,
        };
        let sig = sign_body(&body, &self.crypto);
        gap.prepares.insert(self.id, (body, sig.clone()));
        gap.prepared = true;
        self.broadcast(&NeoMsg::GapPrepare(body, sig), ctx);
        self.check_gap_progress(slot, ctx);
    }

    pub(super) fn on_gap_prepare(
        &mut self,
        body: GapVoteBody,
        sig: Signature,
        ctx: &mut dyn Context,
    ) {
        if body.view != self.view || self.status != Status::Normal {
            return;
        }
        if !self.gap_vote_admissible(body.slot, ctx) {
            return;
        }
        // Prepares only move a round from phase 1 to phase 2: once this
        // replica has committed (or resolved), or 2f prepares for this
        // outcome are held, one more cannot change state.
        let f2 = 2 * self.cfg.f;
        if self
            .gap
            .gaps
            .get(&body.slot)
            .is_some_and(|g| g.resolved || g.committed || !g.vote_can_count(&g.prepares, &body, f2))
        {
            return;
        }
        if !verify_body(&body, &sig, Principal::Replica(body.replica), &self.crypto) {
            return;
        }
        // neo-lint: allow(R5, slot_in_window-bounded above)
        let gap = self.gap.gaps.entry(body.slot).or_default();
        gap.prepares.insert(body.replica, (body, sig));
        self.check_gap_progress(body.slot, ctx);
    }

    pub(super) fn on_gap_commit(
        &mut self,
        body: GapVoteBody,
        sig: Signature,
        ctx: &mut dyn Context,
    ) {
        if body.view != self.view || self.status != Status::Normal {
            return;
        }
        if !self.gap_vote_admissible(body.slot, ctx) {
            return;
        }
        let quorum = self.cfg.quorum();
        if self
            .gap
            .gaps
            .get(&body.slot)
            .is_some_and(|g| g.resolved || !g.vote_can_count(&g.commits, &body, quorum))
        {
            return;
        }
        if !verify_body(&body, &sig, Principal::Replica(body.replica), &self.crypto) {
            return;
        }
        // neo-lint: allow(R5, slot_in_window-bounded above)
        let gap = self.gap.gaps.entry(body.slot).or_default();
        gap.commits.insert(body.replica, (body, sig));
        self.check_gap_progress(body.slot, ctx);
    }

    fn check_gap_progress(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        let quorum = self.cfg.quorum();
        let f2 = 2 * self.cfg.f;
        let Some(gap) = self.gap.gaps.get_mut(&slot) else {
            return;
        };
        let Some((recv, oc, _)) = gap.decision.clone() else {
            return;
        };
        // Phase 1 → 2: 2f matching prepares from distinct replicas
        // (possibly including self) plus the validated decision.
        let matching_prepares = gap
            .prepares
            .values()
            .filter(|(b, _)| b.recv == recv)
            .count();
        if !gap.committed && matching_prepares >= f2 {
            gap.committed = true;
            let body = GapVoteBody {
                view: self.view,
                replica: self.id,
                slot,
                recv,
            };
            let sig = sign_body(&body, &self.crypto);
            gap.commits.insert(self.id, (body, sig.clone()));
            self.broadcast(&NeoMsg::GapCommit(body, sig), ctx);
        }
        let Some(gap) = self.gap.gaps.get_mut(&slot) else {
            return;
        };
        // Phase 2 → commit: 2f+1 matching commits.
        let matching_commits: Vec<(GapVoteBody, Signature)> = gap
            .commits
            .values()
            .filter(|(b, _)| b.recv == recv)
            .cloned()
            .collect();
        if gap.resolved || matching_commits.len() < quorum {
            return;
        }
        // Commit the slot.
        if recv {
            let Some(oc) = oc else {
                // adopt_decision validated the decision, so this cannot
                // happen; degrade to a counted error rather than a panic.
                self.note_error(ProtocolError::MissingCertificate(slot), ctx);
                return;
            };
            if self.log.is_pending(slot) || slot == self.log.len() {
                self.fill_slot(slot, LogEntry::Request(oc), ctx);
            }
            self.stats.gaps_recovered += 1;
        } else if !self.slot_is_final(slot) {
            // No-op: roll back if we speculatively executed this slot. (A
            // final slot holds its no-op already and has no undo history
            // left: that round was only joined to serve a lagging peer.)
            self.rollback_to(slot, ctx);
            self.fill_slot(slot, LogEntry::NoOp(Some(matching_commits)), ctx);
            self.stats.noops_committed += 1;
        }
        ctx.emit(Event::GapCommit {
            slot: slot.0,
            noop: !recv,
        });
        self.resolve_gap(slot, ctx);
    }

    /// The slot is filled: close its round and let execution and the
    /// sync point move past it.
    fn resolve_gap(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        if !self.gap.gaps.contains_key(&slot) {
            return;
        }
        self.close_gap_round(slot, ctx);
        self.try_execute(ctx);
        self.maybe_sync(ctx);
    }

    /// Validate a gap certificate: 2f+1 distinct valid drop commits.
    pub(super) fn verify_gap_cert(&self, slot: SlotNum, cert: &GapCert) -> bool {
        self.has_signed_quorum(
            cert.iter()
                .filter(|(b, _)| b.slot == slot && !b.recv)
                .map(|(b, sig)| (b.replica, b, sig)),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::super::testing::{ctx, oc, replica, signer};
    use super::*;
    use crate::config::NeoConfig;
    use crate::log::Log;
    use neo_crypto::Digest;

    #[test]
    fn a_message_about_a_slot_below_the_base_opens_nothing() {
        // Replica 1 of 4 holds its log from slot 8 on.
        let mut r = replica(1, NeoConfig::new(1));
        let mut ctx = ctx(1);
        r.set_log_for_tests(Log::with_base(SlotNum(8), Digest::ZERO));
        let view = r.view;
        let leader = Addr::Replica(ReplicaId(0));

        // The leader's gap-find for slot 3 is not "beyond my log, answer
        // when it arrives": nothing is parked, now or for ever.
        let slot = SlotNum(3);
        let sig = sign_body(&(view, slot), &signer(0));
        r.on_neo_msg(leader, NeoMsg::GapFind { view, slot, sig }, &mut ctx);
        assert!(r.gap.gaps.is_empty(), "no find_pending entry");

        // Nor do a decision and the votes of its round open one.
        let decision = GapDecisionBody::Recv(oc(4, 7));
        let sig = signer(0).sign(&gap_decision_digest(view, slot, &decision));
        let msg = NeoMsg::GapDecision {
            view,
            slot,
            decision,
            sig,
        };
        r.on_neo_msg(leader, msg, &mut ctx);
        let replica = ReplicaId(2);
        let body = GapVoteBody {
            view,
            replica,
            slot,
            recv: true,
        };
        let sig = sign_body(&body, &signer(2));
        r.on_neo_msg(leader, NeoMsg::GapPrepare(body, sig.clone()), &mut ctx);
        r.on_neo_msg(leader, NeoMsg::GapCommit(body, sig), &mut ctx);
        let body = GapDropBody {
            view,
            replica,
            slot,
        };
        let sig = sign_body(&body, &signer(2));
        r.on_neo_msg(leader, NeoMsg::GapDrop(body, sig), &mut ctx);
        assert!(r.gap.gaps.is_empty());
        assert!(ctx.sends.is_empty(), "no checkpoint held, nothing to offer");
        assert!(ctx.timers_set.is_empty());

        // The base itself is held: a gap-find for it is answered as ever.
        let slot = SlotNum(8);
        let sig = sign_body(&(view, slot), &signer(0));
        r.on_neo_msg(leader, NeoMsg::GapFind { view, slot, sig }, &mut ctx);
        assert!(r.gap.gaps.get(&slot).is_some_and(|g| g.find_pending));
    }

    #[test]
    fn a_final_slot_is_never_touched_by_a_gap_round() {
        // Replica 1 of 4 has executed a no-op at slot 0 and a request at
        // slot 1, both below its sync point, and holds no round (not even
        // a marker) for either — the state a replayed or equivocating
        // decision finds on a replica that never missed the message.
        let mut r = replica(1, NeoConfig::new(1));
        let mut ctx = ctx(1);
        let mut log = Log::new();
        log.fill(SlotNum(0), LogEntry::NoOp(None)).unwrap();
        log.fill(SlotNum(1), LogEntry::Request(oc(2, 7))).unwrap();
        r.set_log_for_tests(log);
        r.sync.raise_to(SlotNum(2));
        r.exec.skip_to(SlotNum(2));

        let view = r.view;
        let drop_decision = |slot| {
            let drops = [0, 2, 3].map(|from| {
                let replica = ReplicaId(from);
                let body = GapDropBody {
                    view,
                    replica,
                    slot,
                };
                let sig = sign_body(&body, &signer(from));
                (body, sig)
            });
            let decision = GapDecisionBody::Drop(drops.to_vec());
            let sig = signer(0).sign(&gap_decision_digest(view, slot, &decision));
            (decision, sig)
        };
        // A drop decision against the request the log holds: refused.
        let (decision, sig) = drop_decision(SlotNum(1));
        r.on_gap_decision(view, SlotNum(1), decision, sig, &mut ctx);
        assert!(
            r.gap.gaps.is_empty(),
            "no round for a decision the log rules out"
        );

        // One that restates the log is served (a leader that lags behind
        // the sync point needs the votes) and leaves the log alone: a
        // rollback here would reach below the sync point, where the app
        // has no undo history left.
        let (decision, sig) = drop_decision(SlotNum(0));
        r.on_gap_decision(view, SlotNum(0), decision, sig, &mut ctx);
        for from in [0, 2, 3] {
            let (replica, slot) = (ReplicaId(from), SlotNum(0));
            let body = GapVoteBody {
                view,
                replica,
                slot,
                recv: false,
            };
            let sig = sign_body(&body, &signer(from));
            r.on_gap_prepare(body, sig.clone(), &mut ctx);
            r.on_gap_commit(body, sig, &mut ctx);
        }
        assert!(r.gap.gaps.get(&SlotNum(0)).is_some_and(|g| g.resolved));
        assert_eq!((r.stats.noops_committed, r.stats.rollbacks), (0, 0));
        assert!(matches!(
            r.log.entry(SlotNum(0)),
            Some(LogEntry::NoOp(None))
        ));
        assert_eq!(r.exec_cursor(), SlotNum(2));
    }
}
