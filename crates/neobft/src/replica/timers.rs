//! The replica's one timer table.
//!
//! A timer is known by what it *means* ([`TimerPayload`]), and at most
//! one is live per meaning: arming a meaning again replaces the timer
//! it had. The executor's [`TimerId`]s stay in here — the protocol code
//! arms, cancels and asks by meaning, so no handler keeps an id that it
//! must remember to clear, and leaving a view or closing a gap round
//! cancels by slot.

use neo_sim::{Context, TimerId};
use neo_wire::{ClientId, RequestId, SeqNum, SlotNum};
use std::collections::{BTreeMap, HashMap};

/// Pending timer meanings.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub(super) enum TimerPayload {
    /// aom gap: declare a drop for the missing seq if still missing.
    AomGap(SeqNum),
    /// Resend a query for a missing slot.
    QueryRetry(SlotNum),
    /// Gap agreement for this slot is stuck; suspect the leader.
    GapAgreement(SlotNum),
    /// Resend the current view-change message.
    ViewChangeResend,
    /// A unicast-fallback request never arrived via aom; suspect the
    /// sequencer.
    UnicastWatchdog(ClientId, RequestId),
    /// Flush the accumulated confirm batch (Byzantine-network mode);
    /// armed with zero delay, so it means "ready input drained".
    ConfirmFlush,
    /// Re-broadcast the state-transfer query while still recovering.
    StateTransferRetry,
}

/// Live timers, by meaning and by executor id.
#[derive(Default)]
pub(super) struct Timers {
    /// BTreeMap: the group cancels walk it, and the order of the
    /// resulting `cancel_timer` calls must not depend on hash seeds.
    by_meaning: BTreeMap<TimerPayload, TimerId>,
    by_id: HashMap<TimerId, TimerPayload>,
    /// Live `UnicastWatchdog` timers — clients mint these, so their
    /// number is capped where they are armed (neo-lint R5).
    unicast_watchdogs: usize,
}

impl Timers {
    /// Arm `payload` to fire after `delay`, replacing the timer it had.
    pub(super) fn arm(&mut self, payload: TimerPayload, delay: u64, ctx: &mut dyn Context) {
        self.cancel(payload, ctx);
        // The timer kind discriminates in on_timer via this table; the
        // u32 kind itself is unused (always 1 = "protocol timer").
        let id = ctx.set_timer(delay, 1);
        self.by_meaning.insert(payload, id);
        self.by_id.insert(id, payload);
        if matches!(payload, TimerPayload::UnicastWatchdog(..)) {
            self.unicast_watchdogs += 1;
        }
    }

    /// Cancel `payload`'s timer, if one is live.
    pub(super) fn cancel(&mut self, payload: TimerPayload, ctx: &mut dyn Context) {
        if let Some(id) = self.by_meaning.get(&payload).copied() {
            self.fired(id); // forgotten exactly as if it had fired
            ctx.cancel_timer(id);
        }
    }

    /// Cancel the timers of one gap round.
    pub(super) fn cancel_slot(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        self.cancel(TimerPayload::QueryRetry(slot), ctx);
        self.cancel(TimerPayload::GapAgreement(slot), ctx);
    }

    /// Cancel the timers of every gap round for a slot below `end`.
    pub(super) fn cancel_gap_rounds_below(&mut self, end: SlotNum, ctx: &mut dyn Context) {
        self.cancel_where(ctx, |p| {
            matches!(
                p,
                TimerPayload::QueryRetry(slot) | TimerPayload::GapAgreement(slot) if *slot < end
            )
        });
    }

    /// Cancel the aom gap timer, whichever sequence number it is for.
    pub(super) fn cancel_aom_gap(&mut self, ctx: &mut dyn Context) {
        self.cancel_where(ctx, |p| matches!(p, TimerPayload::AomGap(_)));
    }

    fn cancel_where(&mut self, ctx: &mut dyn Context, which: impl Fn(&TimerPayload) -> bool) {
        let doomed: Vec<TimerPayload> = self
            .by_meaning
            .keys()
            .filter(|p| which(p))
            .copied()
            .collect();
        for payload in doomed {
            self.cancel(payload, ctx);
        }
    }

    /// The executor fired `id`: what it meant, if it was still live (a
    /// cancelled or replaced timer means nothing). The table forgets it.
    pub(super) fn fired(&mut self, id: TimerId) -> Option<TimerPayload> {
        let payload = self.by_id.remove(&id)?;
        self.by_meaning.remove(&payload);
        if matches!(payload, TimerPayload::UnicastWatchdog(..)) {
            self.unicast_watchdogs -= 1;
        }
        Some(payload)
    }

    /// Whether `payload` has a live timer.
    pub(super) fn is_armed(&self, payload: TimerPayload) -> bool {
        self.by_meaning.contains_key(&payload)
    }

    /// Live unicast-fallback watchdogs.
    pub(super) fn unicast_watchdogs(&self) -> usize {
        self.unicast_watchdogs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_sim::RecordingContext;
    use neo_wire::{Addr, ReplicaId};

    fn ctx() -> RecordingContext {
        RecordingContext::new(Addr::Replica(ReplicaId(0)))
    }

    #[test]
    fn arming_a_meaning_again_replaces_its_timer() {
        let (mut t, mut ctx) = (Timers::default(), ctx());
        t.arm(TimerPayload::ViewChangeResend, 5, &mut ctx);
        t.arm(TimerPayload::ViewChangeResend, 7, &mut ctx);
        let (first, second) = (ctx.timers_set[0].0, ctx.timers_set[1].0);
        assert_ne!(first, second);
        assert_eq!(ctx.timers_cancelled, vec![first]);
        assert_eq!(t.fired(first), None, "the replaced timer means nothing");
        assert_eq!(t.fired(second), Some(TimerPayload::ViewChangeResend));
    }

    #[test]
    fn fired_forgets_the_id_and_the_meaning() {
        let (mut t, mut ctx) = (Timers::default(), ctx());
        t.arm(TimerPayload::ConfirmFlush, 0, &mut ctx);
        let id = ctx.timers_set[0].0;
        assert!(t.is_armed(TimerPayload::ConfirmFlush));
        assert_eq!(t.fired(id), Some(TimerPayload::ConfirmFlush));
        assert!(!t.is_armed(TimerPayload::ConfirmFlush));
        assert_eq!(t.fired(id), None);
        // Cancelling what already fired reaches no executor.
        t.cancel(TimerPayload::ConfirmFlush, &mut ctx);
        assert!(ctx.timers_cancelled.is_empty());
    }

    #[test]
    fn cancel_by_slot_takes_both_timers_of_that_round_only() {
        let (mut t, mut ctx) = (Timers::default(), ctx());
        for slot in [SlotNum(3), SlotNum(4)] {
            t.arm(TimerPayload::QueryRetry(slot), 1, &mut ctx);
            t.arm(TimerPayload::GapAgreement(slot), 9, &mut ctx);
        }
        t.arm(TimerPayload::AomGap(SeqNum(5)), 1, &mut ctx);
        t.cancel_slot(SlotNum(3), &mut ctx);
        assert_eq!(
            ctx.timers_cancelled,
            vec![ctx.timers_set[0].0, ctx.timers_set[1].0]
        );
        assert!(t.is_armed(TimerPayload::QueryRetry(SlotNum(4))));
        t.cancel_gap_rounds_below(SlotNum(4), &mut ctx);
        assert_eq!(ctx.timers_cancelled.len(), 2, "slot 4 is not below 4");
        t.cancel_gap_rounds_below(SlotNum(u64::MAX), &mut ctx);
        assert_eq!(ctx.timers_cancelled.len(), 4);
        assert!(!t.is_armed(TimerPayload::GapAgreement(SlotNum(4))));
        assert!(t.is_armed(TimerPayload::AomGap(SeqNum(5))));
        t.cancel_aom_gap(&mut ctx);
        assert!(!t.is_armed(TimerPayload::AomGap(SeqNum(5))));
    }

    #[test]
    fn unicast_watchdogs_are_counted_through_arm_cancel_and_fire() {
        let (mut t, mut ctx) = (Timers::default(), ctx());
        let dog = |r| TimerPayload::UnicastWatchdog(ClientId(1), RequestId(r));
        t.arm(dog(1), 20, &mut ctx);
        t.arm(dog(2), 20, &mut ctx);
        t.arm(dog(2), 20, &mut ctx); // replaced, not added
        t.arm(TimerPayload::ConfirmFlush, 0, &mut ctx);
        assert_eq!(t.unicast_watchdogs(), 2);
        t.cancel(dog(1), &mut ctx);
        assert_eq!(t.unicast_watchdogs(), 1);
        let live = ctx.timers_set[2].0;
        assert_eq!(t.fired(live), Some(dog(2)));
        assert_eq!(t.unicast_watchdogs(), 0);
    }
}
