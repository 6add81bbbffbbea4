//! Speculative execution (§5.3): the application, the execution cursor
//! and the client table. Slots execute as soon as the log resolves
//! them, ahead of the sync point; a fill below the cursor rolls the
//! application back first. Also the client-facing side that needs the
//! client table: replies, at-most-once, the unicast fallback (§5.5).

use super::timers::TimerPayload;
use super::{Replica, ReplicaBehavior};
use crate::error::ProtocolError;
use crate::log::LogEntry;
use crate::messages::{NeoMsg, Reply, SignedBatch};
use crate::recovery::CheckpointData;
use neo_app::App;
use neo_crypto::Principal;
use neo_sim::obs::Event;
use neo_sim::Context;
use neo_wire::{Addr, ClientId, RequestId, SlotNum};
use std::collections::BTreeMap;

/// Client-table entry for at-most-once semantics and reply caching.
///
/// One entry per client suffices even with batching: the client drives
/// at most one batch at a time (depth-1 pipelining), so batches arrive
/// in `first_request` order and the entry always describes the latest.
struct ClientEntry {
    /// First request id of the last executed batch.
    first_request: RequestId,
    /// Last request id of the last executed batch.
    last_request: RequestId,
    /// Shared buffer: re-sending a cached reply is a refcount bump.
    cached_reply: Option<neo_wire::Payload>,
    slot: SlotNum,
}

/// Execution state.
pub(super) struct Exec {
    app: Box<dyn App>,
    /// Next slot to execute.
    cursor: SlotNum,
    /// BTreeMap: checkpoint capture walks this map into the certified
    /// snapshot, so iteration order must match across replicas.
    client_table: BTreeMap<ClientId, ClientEntry>,
    /// High-water mark of the resolved log prefix (monotone even across
    /// epoch-switch truncation, unlike `log.resolved_prefix_len()`).
    resolved_watermark: SlotNum,
}

impl Exec {
    pub(super) fn new(app: Box<dyn App>) -> Self {
        Exec {
            app,
            cursor: SlotNum(0),
            client_table: BTreeMap::new(),
            resolved_watermark: SlotNum(0),
        }
    }

    /// Test-only: treat everything below `slot` as executed.
    #[cfg(test)]
    pub(super) fn skip_to(&mut self, slot: SlotNum) {
        self.cursor = self.cursor.max(slot);
        self.resolved_watermark = self.resolved_watermark.max(slot);
    }

    /// The executing half of a checkpoint taken with the cursor at `s`:
    /// the app snapshot and the client-table rows of slots `< s`. `None`
    /// for a snapshot-less app (recovery falls back to full replay).
    pub(super) fn checkpoint_at(
        &self,
        s: SlotNum,
    ) -> Option<(Vec<u8>, Vec<(ClientId, RequestId, RequestId, SlotNum)>)> {
        let app = self.app.snapshot()?;
        // BTreeMap iteration: already sorted by client id, as the
        // checkpoint digest requires.
        let clients = self
            .client_table
            .iter()
            .filter(|(_, e)| e.slot < s)
            .map(|(c, e)| (*c, e.first_request, e.last_request, e.slot))
            .collect();
        Some((app, clients))
    }

    /// Resume execution from a *verified* checkpoint: the app takes the
    /// snapshot, the cursor moves to its slot and the client table is
    /// the certified one. Returns false, with nothing changed, if the
    /// app refuses the snapshot.
    // neo-lint: verified(the checkpoint's 2f+1 sync-vote certificate passed verify_checkpoint before Replica::adopt_checkpoint hands it here — disk and peer checkpoints alike)
    pub(super) fn install_checkpoint(&mut self, data: &CheckpointData) -> bool {
        if !self.app.restore(&data.app) {
            return false;
        }
        self.cursor = data.slot;
        self.resolved_watermark = self.resolved_watermark.max(data.slot);
        self.client_table.clear();
        for (c, first, last, slot) in &data.clients {
            // neo-lint: allow(R5, rebuilt from the certified checkpoint after the clear() above — size is the 2f+1-certified client table, not attacker growth)
            self.client_table.insert(
                *c,
                ClientEntry {
                    first_request: *first,
                    last_request: *last,
                    // Reply bytes are not checkpointed (they embed the
                    // executing view); at-most-once survives, the
                    // re-send optimization does not.
                    cached_reply: None,
                    slot: *slot,
                },
            );
        }
        true
    }

    /// Everything before the sync point is final: the app keeps undo
    /// history for `still_speculative` ops only.
    pub(super) fn compact_undo_history(&mut self, still_speculative: u64) {
        self.app.compact(still_speculative);
    }
}

impl Replica {
    /// The application (downcast by tests to inspect state).
    pub fn app(&self) -> &dyn App {
        self.exec.app.as_ref()
    }

    /// Next slot to execute (the speculative execution cursor).
    pub fn exec_cursor(&self) -> SlotNum {
        self.exec.cursor
    }

    /// Highest resolved-prefix length this replica has ever observed.
    pub fn resolved_watermark(&self) -> SlotNum {
        self.exec.resolved_watermark
    }

    /// Concurrent unicast-fallback watchdog cap.
    const UNICAST_WATCH_MAX: usize = 4096;

    /// Digest binding a slot's execution outcome to the request identity,
    /// for cross-replica comparison.
    fn exec_digest(client: ClientId, request_id: RequestId, result: &[u8]) -> u64 {
        let mut buf = Vec::with_capacity(16 + result.len());
        buf.extend_from_slice(&client.0.to_le_bytes());
        buf.extend_from_slice(&request_id.0.to_le_bytes());
        buf.extend_from_slice(result);
        let d = neo_crypto::sha256(&buf);
        let mut first = [0u8; 8];
        first.copy_from_slice(&d.0[..8]);
        u64::from_le_bytes(first)
    }

    /// Execute every resolved request slot at the execution cursor,
    /// replying to clients.
    pub(super) fn try_execute(&mut self, ctx: &mut dyn Context) {
        while self.exec.cursor < self.log.len() {
            // Checkpoint *before* executing: at cursor S the captured
            // state covers exactly slots < S.
            self.maybe_capture_checkpoint();
            let slot = self.exec.cursor;
            // Decode from the log's own entry: what execution needs of a
            // certificate is its digest and the batch inside, not a copy
            // of header, authenticator vector, payload and confirms.
            let request = match self.log.entry(slot) {
                None => break, // pending gap: execution blocks here (§5.4)
                Some(LogEntry::NoOp(_)) => None,
                Some(LogEntry::Request(oc)) => SignedBatch::from_bytes(&oc.packet.payload)
                    .map(|signed| (oc.packet.header.digest, signed)),
            };
            // A malformed batch is a consistent no-op everywhere.
            if let Some((digest, signed)) = request {
                if let Err(e) = self.execute_slot(slot, &digest, &signed, ctx) {
                    self.note_error(e, ctx);
                }
            }
            self.exec.cursor = self.exec.cursor.next();
        }
        // The cursor may have stopped exactly on a boundary.
        self.maybe_capture_checkpoint();
        let resolved = self.log.resolved_prefix_len();
        if resolved > self.exec.resolved_watermark {
            self.exec.resolved_watermark = resolved;
        }
    }

    fn execute_slot(
        &mut self,
        slot: SlotNum,
        digest: &[u8; 32],
        signed: &SignedBatch,
        ctx: &mut dyn Context,
    ) -> Result<(), ProtocolError> {
        let batch = &signed.batch;
        if batch.is_empty() {
            return Ok(()); // empty batch: consistent no-op everywhere
        }
        // Client authentication: verify my entry of the batch's MAC
        // vector. The MAC covers the whole encoded envelope, so a batch
        // with even one forged op must not be executed (it would still
        // occupy the slot).
        if !self.check_request_auth(digest, signed) {
            return Ok(());
        }
        let client = batch.client;
        let first = batch.first_request_id;
        let last = batch.last_request_id();
        // At-most-once (§C.1), per batch: the client drives one batch at
        // a time, so batches arrive in id order and a single table entry
        // covers the whole prefix. Re-execution of the latest batch only
        // re-sends the cached reply; any other overlap with executed ids
        // is skipped deterministically (all correct replicas see the
        // same bytes in the same slot, so all skip alike).
        if let Some(entry) = self.exec.client_table.get(&client) {
            if last < entry.last_request {
                return Ok(());
            }
            if last == entry.last_request {
                if first == entry.first_request {
                    if let Some(cached) = entry.cached_reply.clone() {
                        if self.behavior != ReplicaBehavior::Mute {
                            ctx.send(Addr::Client(client), cached);
                        }
                    }
                }
                return Ok(());
            }
            if first <= entry.last_request {
                return Ok(());
            }
        }
        // Resolve the log hash before mutating anything: a missing hash
        // is an internal invariant breach, not a reason to crash.
        let Some(log_hash) = self.log.hash_at(slot) else {
            return Err(ProtocolError::MissingLogHash(slot));
        };
        let mut results = Vec::with_capacity(batch.len());
        for op in &batch.ops.ops {
            results.push(self.exec.app.execute(op));
        }
        self.stats.executed += batch.len() as u64;
        // Execution here is ahead of the stable sync point — the paper's
        // speculative fast path (§5.3).
        ctx.emit(Event::SpeculativeExecute { slot: slot.0 });
        if batch.len() > 1 {
            ctx.emit(Event::BatchExecute {
                slot: slot.0,
                size: batch.len() as u64,
            });
            ctx.metrics()
                .observe("replica.exec_batch_size", batch.len() as u64);
        }
        // Order-sensitive fold of the per-op digests: two correct
        // replicas executing the same batch in the same slot agree.
        let mut acc = 0u64;
        for (k, result) in results.iter().enumerate() {
            let id = RequestId(first.0.saturating_add(k as u64));
            acc = acc
                .rotate_left(1)
                .wrapping_add(Self::exec_digest(client, id, result));
        }
        if self.log.record_execution(slot, batch.len() as u32, acc) {
            // Executing a slot twice without an intervening rollback
            // corrupts application state; count it for the checker.
            self.stats.double_executions += 1;
        }
        let reply = Reply {
            view: self.view,
            replica: self.id,
            slot,
            log_hash,
            request_id: first,
            results,
        };
        let Ok(bytes) = neo_wire::encode(&reply) else {
            return Err(ProtocolError::Encode("reply"));
        };
        let tag = self.crypto.mac_for(Principal::Client(client), &bytes);
        let msg = NeoMsg::Reply(reply, tag).to_payload();
        self.exec.client_table.insert(
            client,
            ClientEntry {
                first_request: first,
                last_request: last,
                cached_reply: Some(msg.clone()),
                slot,
            },
        );
        // The batch arrived: cancel any unicast watchdogs for its ids.
        for k in 0..batch.len() as u64 {
            let id = RequestId(first.0.saturating_add(k));
            self.timers
                .cancel(TimerPayload::UnicastWatchdog(client, id), ctx);
        }
        if self.behavior != ReplicaBehavior::Mute {
            ctx.send(Addr::Client(client), msg);
        }
        self.stats.replies_sent += 1;
        // Commit carries (slot, client, request) so the span assembler can
        // join replica-side slot events to the client-side request span;
        // `request` is the batch's first id.
        ctx.emit(Event::Commit {
            slot: slot.0,
            client: client.0,
            request: first.0,
        });
        Ok(())
    }

    /// Roll the application back so that `slot` is the next to execute.
    pub(super) fn rollback_to(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        if self.exec.cursor <= slot {
            return;
        }
        self.stats.rollbacks += 1;
        ctx.metrics().incr("replica.rollbacks");
        let mut cur = self.exec.cursor;
        while cur > slot {
            cur = SlotNum(cur.0 - 1);
            // One undo per op: a batch slot unwinds in reverse op
            // order before the cursor moves past it.
            for _ in 0..self.log.clear_execution(cur) {
                self.exec.app.undo();
            }
        }
        // Invalidate cached replies for rolled-back slots: re-execution
        // will regenerate them against the new log hashes.
        self.exec.client_table.retain(|_, e| e.slot < slot);
        // A checkpoint at S describes state after executing slots < S;
        // rolling back past S invalidates it.
        self.forget_checkpoints_above(slot);
        self.exec.cursor = slot;
    }

    pub(super) fn fill_slot(&mut self, slot: SlotNum, entry: LogEntry, ctx: &mut dyn Context) {
        // A slot below the base is final and gone: refuse it before
        // anything is touched — a rollback towards it would leave the
        // cursor below the base, where `try_execute` finds no entry and
        // never moves again.
        if slot < self.log.base() {
            self.note_error(ProtocolError::FillRejected(slot), ctx);
            return;
        }
        // A fill may rewrite an executed suffix: roll back first so
        // re-execution sees consistent hashes.
        if self.exec.cursor > slot {
            self.rollback_to(slot, ctx);
        }
        while self.log.len() <= slot {
            self.log.append_pending();
        }
        if self.log.fill(slot, entry).is_err() {
            self.note_error(ProtocolError::FillRejected(slot), ctx);
            return;
        }
        self.wal_append_slot(slot);
    }

    // ------------------------------------------------------------------
    // Client unicast fallback (§5.3 / §5.5)
    // ------------------------------------------------------------------

    pub(super) fn on_request_unicast(&mut self, signed: SignedBatch, ctx: &mut dyn Context) {
        if !self.verify_request_auth(&signed) {
            return;
        }
        let batch = &signed.batch;
        if batch.is_empty() {
            return;
        }
        let client = batch.client;
        let last = batch.last_request_id();
        if let Some(entry) = self.exec.client_table.get(&client) {
            if last <= entry.last_request {
                // Already executed: re-send the cached reply.
                if let Some(cached) = entry.cached_reply.clone() {
                    if last == entry.last_request && self.behavior != ReplicaBehavior::Mute {
                        ctx.send(Addr::Client(client), cached);
                    }
                }
                return;
            }
        }
        // Not yet delivered by aom: arm the sequencer-suspicion watchdog,
        // keyed on the batch's last id (one watchdog per batch; execution
        // cancels every id in the batch, including this one).
        let watchdog = TimerPayload::UnicastWatchdog(client, last);
        if !self.timers.is_armed(watchdog) {
            // R5 bound: an overflow denies the fallback path (clients
            // retry through aom), never memory.
            if self.timers.unicast_watchdogs() >= Self::UNICAST_WATCH_MAX {
                ctx.metrics().incr("replica.bounded_rejects");
                return;
            }
            self.timers.arm(watchdog, self.cfg.unicast_watchdog_ns, ctx);
        }
    }

    /// A unicast-fallback request's watchdog fired.
    // neo-lint: verified(timer payloads are armed locally by this replica, never attacker input)
    pub(super) fn on_unicast_watchdog(
        &mut self,
        client: ClientId,
        request_id: RequestId,
        ctx: &mut dyn Context,
    ) {
        let entry = self.exec.client_table.get(&client);
        if entry.is_some_and(|e| e.last_request >= request_id) {
            return; // executed
        }
        self.suspect_sequencer(ctx);
        // Re-arm: keep escalating until the request commits
        // or the epoch changes.
        self.timers.arm(
            TimerPayload::UnicastWatchdog(client, request_id),
            self.cfg.unicast_watchdog_ns,
            ctx,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::super::testing::{ctx, oc, replica};
    use super::*;
    use crate::config::NeoConfig;
    use crate::log::Log;
    use neo_crypto::Digest;

    #[test]
    fn a_fill_below_the_base_touches_nothing() {
        // Replica 1 of 4 resumed from a checkpoint at slot 8 and has
        // executed slots 8 and 9 since.
        let mut r = replica(1, NeoConfig::new(1));
        let mut ctx = ctx(1);
        let mut log = Log::with_base(SlotNum(8), Digest::ZERO);
        log.append_request(oc(9, 1));
        log.append_request(oc(10, 2));
        r.set_log_for_tests(log);
        r.try_execute(&mut ctx);
        assert_eq!(r.exec_cursor(), SlotNum(10));

        // A fill for slot 3 — from a sync vote's certificate, a merged
        // view-change log, a state-transfer suffix — is refused whole:
        // no rollback towards a slot the log no longer holds, which
        // would strand the cursor below the base for good.
        r.fill_slot(SlotNum(3), LogEntry::NoOp(None), &mut ctx);
        assert_eq!(r.exec_cursor(), SlotNum(10));
        assert_eq!(r.stats.rollbacks, 0);
        assert_eq!(r.stats.protocol_errors, 1, "counted, not applied");
        assert_eq!(r.log.len(), SlotNum(10));
    }
}
