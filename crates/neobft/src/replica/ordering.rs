//! The ordering layer (§5.3): the aom receiver and everything between
//! the wire and an ordered delivery — the verify stage's dispatch and
//! in-order absorb (DESIGN.md §16), own confirms and their batched
//! flush (§6.2), packets parked for an epoch not yet installed, the aom
//! gap timer, and the delivery-order check. Deliveries leave here as log
//! appends; what happens to a slot after that belongs to the others.

use super::timers::TimerPayload;
use super::{Replica, ReplicaBehavior, Status};
use crate::messages::SignedBatch;
use crate::verify::{PoolVerifyTask, VerifyWork};
use neo_aom::{AomPacket, AomReceiver, ConfigMsg, Delivery, Envelope, OrderingCert, SignedConfirm};
use neo_crypto::{ReorderBuffer, VerifyPool};
use neo_sim::obs::Event;
use neo_sim::Context;
use neo_wire::{Addr, EpochNum, SeqNum, SlotNum};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Ordering-layer state.
pub(super) struct Ordering {
    aom: AomReceiver,
    /// The real worker pool authenticator verification is submitted to
    /// (tokio runtime, `verify_workers > 0`); `None` verifies inline on
    /// the dispatch path.
    pool: Option<Arc<VerifyPool>>,
    /// Re-injects verify completions in strict dispatch order — the
    /// in-order invariant that makes pooled verification observably
    /// equivalent to inline verification.
    verify_reorder: ReorderBuffer<VerifyWork>,
    /// Pool-precomputed client batch-MAC verdicts awaiting
    /// `execute_slot`, keyed by aom header digest; consumed on first
    /// lookup and capped at [`Replica::PREVERIFIED_CAP`].
    preverified_auth: HashMap<[u8; 32], bool>,
    /// Byzantine-network mode: confirms awaiting a batched flush (§6.2).
    pending_confirms: Vec<SignedConfirm>,
    /// Packets stamped in a future epoch, buffered until this replica
    /// finishes the epoch-switching view change and installs that epoch
    /// (without this, replicas that enter the new epoch late would miss
    /// its first sequence numbers and immediately re-enter gap agreement).
    future_epoch: BTreeMap<EpochNum, Vec<AomPacket>>,
    /// Last virtual time an aom delivery reached the application —
    /// sustained silence here (not one lost packet) is what implicates
    /// the sequencer (§4.2).
    last_aom_delivery: u64,
    /// How many deliveries the aom layer made (messages and drop
    /// notifications alike), and the `(epoch, seq)` the next one has to
    /// follow: the last one made, or where the receiver was moved to
    /// (`realign_aom_to_log`).
    deliveries: usize,
    last_delivery: (u64, u64),
    /// The first delivery that did not follow its predecessor (a later
    /// epoch, or the next sequence number of the same one); the chaos
    /// harness's monotone-delivery invariant reads it.
    delivery_break: Option<DeliveryBreak>,
}

/// An aom delivery that did not follow the one before it; deliveries
/// are `(epoch, seq)`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct DeliveryBreak {
    /// Which delivery (counting from 0) broke the order.
    pub(crate) index: usize,
    /// The delivery before it (or where the receiver was moved to).
    pub(crate) prev: (u64, u64),
    /// The offending delivery.
    pub(crate) next: (u64, u64),
}

impl Ordering {
    pub(super) fn new(aom: AomReceiver, verify_workers: usize) -> Self {
        Ordering {
            aom,
            pool: (verify_workers > 0).then(|| Arc::new(VerifyPool::new(verify_workers))),
            verify_reorder: ReorderBuffer::new(),
            preverified_auth: HashMap::new(),
            pending_confirms: Vec::new(),
            future_epoch: BTreeMap::new(),
            last_aom_delivery: 0,
            deliveries: 0,
            last_delivery: (0, 0),
            delivery_break: None,
        }
    }

    /// The epoch the receiver has installed.
    pub(super) fn epoch(&self) -> EpochNum {
        self.aom.epoch()
    }

    pub(super) fn pool(&self) -> Option<&Arc<VerifyPool>> {
        self.pool.as_ref()
    }

    /// Check one aom delivery against the one before it, and remember
    /// the first that breaks the order.
    fn record_delivery(&mut self, epoch: u64, seq: u64) {
        let (prev, next) = (self.last_delivery, (epoch, seq));
        let follows = epoch > prev.0 || (epoch == prev.0 && seq == prev.1 + 1);
        if !follows && self.delivery_break.is_none() {
            let index = self.deliveries;
            self.delivery_break = Some(DeliveryBreak { index, prev, next });
        }
        self.deliveries += 1;
        self.last_delivery = next;
    }
}

impl Replica {
    /// The first aom delivery that did not follow its predecessor.
    pub(crate) fn delivery_break(&self) -> Option<DeliveryBreak> {
        self.ordering.delivery_break
    }

    /// The aom receiver's counters (invariant checking and tests).
    pub fn aom_stats(&self) -> neo_aom::AomReceiverStats {
        self.ordering.aom.stats()
    }

    /// Confirms per envelope (§6.2 batching). A smaller batch is flushed
    /// as soon as this node has run out of ready input — never after a
    /// wall-clock wait.
    const CONFIRM_BATCH: usize = 8;
    /// Pool-preverified client-MAC verdicts kept at once (one per
    /// in-flight packet; neo-lint R5 growth bound).
    const PREVERIFIED_CAP: usize = 4096;

    // ------------------------------------------------------------------
    // Verify stage (DESIGN.md §16): dispatch / absorb
    // ------------------------------------------------------------------

    /// An aom packet off the wire: parked when it belongs to an epoch
    /// not yet installed, otherwise handed to the verify stage.
    pub(super) fn on_aom_packet(&mut self, pkt: AomPacket, ctx: &mut dyn Context) {
        // aom-hm subgroup emulation (§4.3): account for the
        // ⌈n/4⌉−1 additional partial-vector packets per message
        // that a large group's receivers process.
        if self.cfg.emulate_hm_subgroups {
            let subgroups = self.cfg.n.div_ceil(4) as u64;
            if subgroups > 1 {
                ctx.charge((subgroups - 1) * self.cfg.subgroup_packet_cost_ns);
            }
        }
        let epoch = pkt.header.epoch;
        if epoch > self.ordering.aom.epoch() {
            // Stamped by a newer sequencer than we have installed:
            // park it until the epoch-switching view change lands.
            // R5 bounds: a small window of future epochs, 64k
            // packets each.
            if epoch.0 > self.ordering.aom.epoch().0 + Self::FUTURE_EPOCH_WINDOW {
                ctx.metrics().incr("replica.bounded_rejects");
            } else {
                // neo-lint: allow(R5, epoch-windowed and size-capped above) neo-lint: allow(R6, pre-verification parking is deliberate — bounded window + 64k cap, MAC-verified on drain once the epoch installs)
                let buf = self.ordering.future_epoch.entry(epoch).or_default();
                if buf.len() < 65_536 {
                    buf.push(pkt);
                }
            }
        } else {
            // Feed the verify stage even mid-view-change (the
            // receiver only buffers); deliveries are pumped in
            // normal status.
            self.dispatch_packet_verify(pkt, ctx);
        }
        self.pump_if_normal(ctx);
    }

    /// Confirms off the wire (Byzantine-network mode).
    pub(super) fn on_confirms(&mut self, confirms: Vec<SignedConfirm>, ctx: &mut dyn Context) {
        self.dispatch_confirm_verify(confirms, ctx);
        self.pump_if_normal(ctx);
    }

    /// Deliveries are pumped in normal status only; mid-view-change the
    /// receiver just buffers what the verify stage hands it.
    fn pump_if_normal(&mut self, ctx: &mut dyn Context) {
        if self.status == Status::Normal {
            self.pump_aom(ctx);
        }
    }

    /// Dispatch an aom packet's authenticator check to the verify stage.
    /// Admission (group/epoch/window/staleness) happens here, on the
    /// dispatch path; the crypto runs inline or on the pool.
    fn dispatch_packet_verify(&mut self, pkt: AomPacket, ctx: &mut dyn Context) {
        match self.ordering.aom.submit_verify(pkt) {
            Ok(job) => self.dispatch_verify(VerifyWork::Packet(job), ctx),
            Err(_) => {} // admission failures are counted by the receiver
        }
    }

    /// Dispatch a batch of confirm signatures as one verify unit: the
    /// whole batch verifies under a single reorder ticket through
    /// `NodeCrypto::verify_batch`.
    fn dispatch_confirm_verify(&mut self, confirms: Vec<SignedConfirm>, ctx: &mut dyn Context) {
        let mut jobs = Vec::with_capacity(confirms.len());
        for sc in confirms {
            match self.ordering.aom.submit_confirm(sc) {
                Ok(Some(job)) => jobs.push(job),
                Ok(None) | Err(_) => {} // trusted network / counted rejects
            }
        }
        if jobs.is_empty() {
            return;
        }
        self.dispatch_verify(VerifyWork::Confirms(jobs), ctx);
    }

    /// Route one verify unit. Without a pool the unit runs synchronously
    /// and completes immediately; with one it is submitted and its
    /// completion returns through [`neo_sim::Node::on_async`]. Both flow
    /// through the same reorder buffer, so ordering is identical.
    fn dispatch_verify(&mut self, mut work: VerifyWork, ctx: &mut dyn Context) {
        {
            let m = ctx.metrics();
            if m.enabled() {
                m.observe("verify.batch_size", work.len() as u64);
            }
        }
        let ticket = self.ordering.verify_reorder.issue();
        match self.ordering.pool.clone() {
            Some(pool) => {
                let task = PoolVerifyTask::new(work, self.crypto.clone(), self.id.index());
                pool.submit(ticket, Box::new(task));
                let m = ctx.metrics();
                if m.enabled() {
                    m.set_gauge("verify.queue_depth", pool.queue_depth() as i64);
                }
            }
            None => {
                // `pipeline_verify` charges the meter's parallel lane:
                // the simulator's model of a worker pool.
                work.verify(&self.crypto, self.cfg.pipeline_verify);
                self.absorb_work(ticket, work, ctx);
            }
        }
    }

    /// Absorb one finished verify unit: release completed units through
    /// the reorder buffer in strict ticket (dispatch) order and apply
    /// their verdicts to the aom receiver. This is the in-order
    /// re-injection invariant: a unit completes into the protocol exactly
    /// where inline verification would have put it.
    // neo-lint: verified(every unit absorbed here already ran its authenticator checks in VerifyWork::verify before its verdict is applied)
    fn absorb_work(&mut self, ticket: u64, work: VerifyWork, ctx: &mut dyn Context) {
        self.ordering.verify_reorder.accept(ticket, work, ctx.now());
        while let Some((work, stall)) = self.ordering.verify_reorder.pop_ready(ctx.now()) {
            {
                let m = ctx.metrics();
                if m.enabled() {
                    m.observe("verify.reorder_stall_ns", stall);
                }
            }
            match work {
                VerifyWork::Packet(job) => {
                    let _ = self.ordering.aom.complete_verify(job, &self.crypto);
                }
                VerifyWork::Confirms(jobs) => {
                    for job in jobs {
                        let _ = self.ordering.aom.complete_confirm(job);
                    }
                }
            }
        }
    }

    /// Record a pool-verified client-MAC verdict (bounded).
    fn cache_request_auth(&mut self, digest: [u8; 32], ok: bool, ctx: &mut dyn Context) {
        if self.ordering.preverified_auth.len() >= Self::PREVERIFIED_CAP {
            ctx.metrics().incr("replica.bounded_rejects");
            return;
        }
        // neo-lint: allow(R5, size-capped above; entries are consumed by execute_slot)
        self.ordering.preverified_auth.insert(digest, ok);
    }

    /// Client authentication with the verify stage's help: consume the
    /// pool's pre-verified verdict when the pipeline already checked
    /// this batch's MAC (keyed by aom header digest), falling back to an
    /// inline check — inline dispatch and every recovery path land
    /// here, so the authoritative check is one shared code path.
    pub(super) fn check_request_auth(&mut self, digest: &[u8; 32], signed: &SignedBatch) -> bool {
        if let Some(ok) = self.ordering.preverified_auth.remove(digest) {
            return ok;
        }
        self.verify_request_auth(signed)
    }

    pub(super) fn verify_request_auth(&self, signed: &SignedBatch) -> bool {
        crate::verify::request_auth_ok(signed, &self.crypto, self.id.index())
    }

    /// Collect pooled verification completions (tokio runtime only;
    /// without a pool units complete inline). Tasks re-enter the protocol
    /// in dispatch order via the reorder buffer, then deliveries pump as
    /// if the packets had verified inline.
    // neo-lint: verified(absorbed tasks carry verdicts computed by PoolVerifyTask::run on the worker threads)
    pub(super) fn on_verify_completions(&mut self, ctx: &mut dyn Context) -> u64 {
        let Some(pool) = self.ordering.pool.clone() else {
            return 0;
        };
        let mut done = Vec::new();
        pool.drain_completed(&mut done);
        if done.is_empty() {
            return 0;
        }
        let n = done.len() as u64;
        for d in done {
            // A panicked task still flows through: its job carries no
            // verdict, so the receiver rejects it (and the executor
            // notices `pool.poisoned()` and stops the node).
            let Ok(task) = d.task.into_any().downcast::<PoolVerifyTask>() else {
                continue;
            };
            let PoolVerifyTask {
                work, request_auth, ..
            } = *task;
            // Stash the piggybacked request-auth verdict before the
            // packet it belongs to can reach `execute_slot`.
            if let Some((digest, ok)) = request_auth {
                self.cache_request_auth(digest, ok, ctx);
            }
            self.absorb_work(d.ticket, work, ctx);
        }
        {
            let m = ctx.metrics();
            if m.enabled() {
                m.set_gauge("verify.queue_depth", pool.queue_depth() as i64);
            }
        }
        self.pump_if_normal(ctx);
        n
    }

    // ------------------------------------------------------------------
    // aom delivery path (§5.3)
    // ------------------------------------------------------------------

    pub(super) fn pump_aom(&mut self, ctx: &mut dyn Context) {
        // Queue confirms the receiver produced (Byzantine-network mode)
        // and flush in batches (§6.2: "By batch processing confirm
        // messages, NeoBFT minimizes the impact of the additional
        // message exchanges").
        let outgoing = self.ordering.aom.take_outgoing_confirms();
        if !outgoing.is_empty() && self.behavior != ReplicaBehavior::Mute {
            for sc in &outgoing {
                ctx.emit(Event::Confirm { seq: sc.body.seq.0 });
            }
            if self.cfg.batch_confirms {
                self.ordering.pending_confirms.extend(outgoing);
                // The confirm for the sequence number the receiver
                // delivers next is never held: every peer's pipeline
                // waits on it, and with no backlog in front of it there
                // is nothing to batch it with. Confirms for later
                // sequence numbers batch behind the slot in front.
                let head = self.ordering.aom.next_seq();
                let pending = &self.ordering.pending_confirms;
                if pending.len() >= Self::CONFIRM_BATCH
                    || pending.iter().any(|c| c.body.seq == head)
                {
                    self.flush_confirms(ctx);
                } else if !self.timers.is_armed(TimerPayload::ConfirmFlush) {
                    // Zero-delay deferral: the flush runs once the input
                    // that was ready when this handler started has been
                    // handled (the UDP loop's next turn after draining
                    // the socket; in the simulator, after the events
                    // already queued behind a busy node), so a batch is
                    // whatever accumulated while the node was busy.
                    self.timers.arm(TimerPayload::ConfirmFlush, 0, ctx);
                }
            } else {
                for sc in outgoing {
                    ctx.broadcast(&self.peers, Envelope::Confirm(sc).to_payload());
                }
            }
        }
        // Drain ordered deliveries.
        let mut any = false;
        while let Some(d) = self.ordering.aom.poll() {
            any = true;
            match d {
                Delivery::Message(cert) => {
                    let header = &cert.packet.header;
                    self.ordering.record_delivery(header.epoch.0, header.seq.0);
                    self.on_aom_message(cert, ctx);
                }
                Delivery::Drop(seq) => {
                    let epoch = self.ordering.aom.epoch();
                    self.ordering.record_delivery(epoch.0, seq.0);
                    self.on_drop_notification(seq, ctx);
                }
            }
        }
        if any {
            self.ordering.last_aom_delivery = ctx.now();
        }
        // Mirror the receiver's ordering-buffer state into the registry
        // (point-in-time levels: `set`, not `add`, so re-pumping is
        // idempotent).
        {
            let m = ctx.metrics();
            if m.enabled() {
                let s = self.ordering.aom.stats();
                m.set_gauge("aom.reorder_buffered", s.buffered as i64);
                m.set_gauge("aom.pending_chain", s.pending_chain as i64);
                m.set_gauge("aom.locked", s.locked as i64);
                m.set_gauge("aom.delivered", s.delivered as i64);
                m.set_gauge("aom.drops_declared", s.drops_declared as i64);
                m.set_gauge("aom.stale_rejected", s.stale_rejected as i64);
                m.set_gauge(
                    "aom.equivocations_rejected",
                    s.equivocations_rejected as i64,
                );
                m.set_gauge("aom.chain_promoted", s.chain_promoted as i64);
                m.set_gauge("aom.confirms_generated", s.confirms_generated as i64);
                m.set_gauge("aom.window_rejected", s.window_rejected as i64);
                m.set_gauge("aom.internal_errors", s.internal_errors as i64);
                m.set_gauge("aom.auth_rejected", s.auth_rejected as i64);
            }
        }
        self.update_gap_timer(ctx);
    }

    /// Send the pending confirms as one envelope — at `CONFIRM_BATCH`,
    /// for a head-of-line confirm, or when the zero-delay `ConfirmFlush`
    /// timer says the ready input is drained.
    pub(super) fn flush_confirms(&mut self, ctx: &mut dyn Context) {
        self.timers.cancel(TimerPayload::ConfirmFlush, ctx);
        if self.ordering.pending_confirms.is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.ordering.pending_confirms);
        ctx.emit(Event::ConfirmBatch {
            size: batch.len() as u32,
        });
        ctx.metrics()
            .observe("replica.confirm_batch_size", batch.len() as u64);
        let env = if batch.len() == 1 {
            match batch.pop() {
                Some(sc) => Envelope::Confirm(sc),
                None => return,
            }
        } else {
            Envelope::ConfirmBatch(batch)
        };
        ctx.broadcast(&self.peers, env.to_payload());
    }

    /// Keep exactly one `AomGap` timer, for the sequence number the
    /// receiver is missing now (none when it is missing nothing).
    fn update_gap_timer(&mut self, ctx: &mut dyn Context) {
        match self.ordering.aom.gap_pending() {
            Some(missing) if self.timers.is_armed(TimerPayload::AomGap(missing)) => {}
            Some(missing) => {
                self.timers.cancel_aom_gap(ctx);
                self.timers.arm(
                    TimerPayload::AomGap(missing),
                    self.cfg.aom_gap_timeout_ns,
                    ctx,
                );
            }
            None => self.timers.cancel_aom_gap(ctx),
        }
    }

    /// The `AomGap` timer fired: declare the drop if `seq` is still the
    /// one missing.
    // neo-lint: verified(timer payloads are armed locally by this replica, never attacker input)
    pub(super) fn on_aom_gap_timeout(&mut self, seq: SeqNum, ctx: &mut dyn Context) {
        if self.ordering.aom.gap_pending() == Some(seq) && self.status == Status::Normal {
            self.ordering.aom.declare_drop();
            self.pump_aom(ctx);
        }
    }

    /// A unicast-fallback request is still waiting for its aom delivery:
    /// ask the configuration service for a sequencer failover — but only
    /// on *sustained* aom silence: a single lost packet with deliveries
    /// still flowing is the client's retransmission to fix, not grounds
    /// for an epoch change (§4.2).
    pub(super) fn suspect_sequencer(&self, ctx: &mut dyn Context) {
        let silent = ctx.now().saturating_sub(self.ordering.last_aom_delivery);
        if silent >= self.cfg.unicast_watchdog_ns {
            let msg = Envelope::Config(ConfigMsg::FailoverRequest {
                group: self.cfg.group,
                epoch: self.ordering.aom.epoch(),
                requester: self.id,
            });
            ctx.send(Addr::Config, msg.to_payload());
        }
    }

    fn slot_of_seq(&self, seq: SeqNum) -> SlotNum {
        SlotNum(self.epoch_base.0 + seq.0 - 1)
    }

    fn seq_of_slot(&self, slot: SlotNum) -> SeqNum {
        SeqNum(slot.0 - self.epoch_base.0 + 1)
    }

    /// Validate an ordering certificate stamped in `epoch` (log entries
    /// arriving in view-change and state-transfer messages).
    pub(super) fn verify_cert_in_epoch(&self, oc: &OrderingCert, epoch: EpochNum) -> bool {
        let aom = &self.ordering.aom;
        aom.verify_cert_in_epoch(oc, epoch, &self.crypto)
    }

    /// Validate that an ordering certificate authenticates and matches
    /// the slot position (§5.4: "ensures the enclosed aom message is the
    /// missing message by checking the internal sequence number").
    pub(super) fn verify_oc_for_slot(&self, oc: &OrderingCert, slot: SlotNum) -> bool {
        oc.packet.header.seq == self.seq_of_slot(slot)
            && oc.packet.header.epoch == self.view.epoch
            && self.ordering.aom.verify_cert(oc, &self.crypto)
    }

    // neo-lint: verified(certs arrive from the aom receiver's authenticated delivery queue; verify_vector_entry ran in on_packet)
    fn on_aom_message(&mut self, cert: OrderingCert, ctx: &mut dyn Context) {
        let slot = self.slot_of_seq(cert.packet.header.seq);
        if slot < self.log.len() {
            return; // already have it (e.g. via view-change merge)
        }
        debug_assert_eq!(slot, self.log.len(), "aom delivers densely");
        ctx.emit(Event::RequestReceived {
            slot: Some(slot.0),
            epoch: cert.packet.header.epoch.0,
            seq: cert.packet.header.seq.0,
        });
        // Write-ahead: the slot record is on the WAL buffer before the
        // reply below can leave (the executor fsyncs between them).
        self.log.append_request(cert);
        self.wal_append_slot(slot);
        self.answer_pending_find(slot, ctx);
        self.try_execute(ctx);
        self.maybe_sync(ctx);
    }

    // neo-lint: verified(drop notifications only surface from the aom receiver's authenticated delivery queue)
    fn on_drop_notification(&mut self, seq: SeqNum, ctx: &mut dyn Context) {
        let slot = self.slot_of_seq(seq);
        if slot < self.log.len() {
            return;
        }
        ctx.emit(Event::DropNotification { seq: seq.0 });
        self.log.append_pending();
        self.start_gap(slot, ctx);
    }

    // ------------------------------------------------------------------
    // Epochs: the receiver follows the log
    // ------------------------------------------------------------------

    /// Fast-forward the ordering layer past everything the log holds:
    /// the aom receiver must not wait for (or gap-declare) sequence
    /// numbers the log already has — after a restore from disk and after
    /// a state transfer alike.
    pub(super) fn realign_aom_to_log(&mut self) {
        let (epoch, next_seq) = self.epoch_and_seq_of(self.log.len());
        if epoch > self.ordering.aom.epoch() {
            self.ordering.aom.install_epoch(epoch);
        }
        self.epoch_base = SlotNum(self.log.len().0 + 1 - next_seq.0);
        if next_seq > self.ordering.aom.next_seq() {
            // What is skipped came from the checkpoint, the WAL or a
            // peer: the next delivery follows the log, not the last one.
            self.ordering.last_delivery = (self.ordering.aom.epoch().0, next_seq.0 - 1);
        }
        self.ordering.aom.fast_forward(next_seq);
    }

    /// Move the receiver into `epoch`, which starts at `start_slot`, and
    /// replay the packets that raced ahead of the epoch switch — through
    /// the verify stage, like any fresh arrival.
    pub(super) fn enter_epoch(
        &mut self,
        epoch: EpochNum,
        start_slot: SlotNum,
        ctx: &mut dyn Context,
    ) {
        self.epoch_base = start_slot;
        self.ordering.aom.install_epoch(epoch);
        ctx.emit(Event::EpochChange { epoch: epoch.0 });
        let buffered = self
            .ordering
            .future_epoch
            .remove(&epoch)
            .unwrap_or_default();
        self.ordering.future_epoch.retain(|e, _| *e > epoch);
        for pkt in buffered {
            self.dispatch_packet_verify(pkt, ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testing::replica;
    use crate::config::NeoConfig;
    use crate::log::Log;
    use neo_crypto::Digest;
    use neo_wire::SlotNum;

    #[test]
    fn the_first_delivery_out_of_order_is_remembered() {
        let mut r = replica(1, NeoConfig::new(1));
        for seq in 1..=3 {
            r.ordering.record_delivery(0, seq);
        }
        r.ordering.record_delivery(1, 1); // an epoch change starts over
        assert!(r.delivery_break().is_none());
        r.ordering.record_delivery(1, 3); // 2 never came
        r.ordering.record_delivery(1, 9);
        let broken = r.delivery_break().expect("a break");
        assert_eq!(
            (broken.index, broken.prev, broken.next),
            (4, (1, 1), (1, 3))
        );
    }

    #[test]
    fn a_realigned_receiver_continues_from_the_log() {
        // Delivered 1 and 2; a checkpoint at slot 8 then moves the
        // receiver to sequence number 9, which is what has to come next.
        let mut r = replica(1, NeoConfig::new(1));
        r.ordering.record_delivery(0, 1);
        r.ordering.record_delivery(0, 2);
        r.set_log_for_tests(Log::with_base(SlotNum(8), Digest::ZERO));
        r.realign_aom_to_log();
        r.ordering.record_delivery(0, 9);
        assert!(r.delivery_break().is_none());
        // Realigning again moves nothing and forgives nothing.
        r.realign_aom_to_log();
        r.ordering.record_delivery(0, 11);
        assert!(r.delivery_break().is_some());
    }
}
