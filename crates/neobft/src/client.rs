//! The NeoBFT client driver (§5.3, generalized to batches).
//!
//! [`ClientDriver`] replaces the original closed-loop one-op-at-a-time
//! client with a windowed, batch-first API:
//!
//! * ops enter a FIFO queue — either pulled from a [`Workload`] to keep
//!   the window full, or pushed explicitly via [`ClientDriver::submit`],
//!   which returns a per-op [`OpHandle`];
//! * queued ops are packed into a batch envelope (many ops, one MAC
//!   vector, one aom slot) and multicast; one batch is in flight at a
//!   time, so per-client FIFO order and at-most-once semantics are
//!   preserved exactly as in the closed-loop design;
//! * the flush point is driven by the [`AdaptiveBatcher`]: batches fill
//!   to the load-adaptive target size, or flush on a timeout so an idle
//!   client never trades unbounded latency for throughput;
//! * the 2f+1 reply quorum matches on (view-id, log-slot-num, log-hash,
//!   results) and fans per-op [`CompletedOp`] records back out.
//!
//! With [`crate::BatchPolicy::SINGLE`] (the default) this is bit-for-bit the
//! original closed-loop client: one op per slot, one outstanding op,
//! identical request-id sequence, identical retry behaviour.

use crate::batch::AdaptiveBatcher;
use crate::config::NeoConfig;
use crate::messages::{BatchRequest, NeoMsg, Reply, SignedBatch};
use neo_aom::{AomBatch, AomSender, Envelope};
use neo_app::Workload;
use neo_crypto::{CostModel, NodeCrypto, Principal, SystemKeys};
use neo_sim::obs::Event;
use neo_sim::{Context, Node, TimerId};
use neo_wire::{Addr, ClientId, ReplicaId, RequestId};
use std::any::Any;
use std::collections::{BTreeMap, VecDeque};

/// Retry (unicast-fallback) timer kind.
const RETRY_TIMER: u32 = 2;
/// Partial-batch flush timer kind.
const FLUSH_TIMER: u32 = 3;
/// Manual-mode pump tick (no workload to pull from; poll the queue).
const PUMP_TIMER: u32 = 4;

/// A completed operation record for the experiment harness.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompletedOp {
    /// The request id.
    pub request_id: RequestId,
    /// Virtual time the op entered the driver (queue time; for a
    /// closed-loop client this is the issue time).
    pub issued_at: u64,
    /// Virtual time the reply quorum completed.
    pub completed_at: u64,
    /// The agreed result.
    pub result: Vec<u8>,
    /// Batch retransmissions needed (0 = first transmission succeeded).
    pub retries: u32,
}

impl CompletedOp {
    /// End-to-end latency in nanoseconds.
    pub fn latency_ns(&self) -> u64 {
        self.completed_at - self.issued_at
    }
}

/// Identifies an op submitted to a [`ClientDriver`]; resolves to its
/// [`CompletedOp`] once the reply quorum arrives.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub struct OpHandle(pub RequestId);

/// An op waiting to be packed into a batch.
struct QueuedOp {
    request_id: RequestId,
    op: Vec<u8>,
    /// Queue time; `None` for ops submitted outside the event loop,
    /// stamped when the batch is flushed.
    queued_at: Option<u64>,
}

/// The batch currently in flight (at most one — depth-1 pipelining keeps
/// the client table's at-most-once bookkeeping exact).
struct Inflight {
    first_request_id: RequestId,
    ops: Vec<(RequestId, Vec<u8>, u64)>,
    retries: u32,
    /// Each replica's latest reply (a replica that re-executes after a
    /// rollback replies again). BTreeMap so the count below iterates
    /// deterministically (R1, `clippy.toml`).
    replies: BTreeMap<ReplicaId, Reply>,
    retry_timer: TimerId,
}

impl Inflight {
    /// Take `reply` as its sender's latest answer. Returns the per-op
    /// results once `quorum` replicas' latest answers match it on (view,
    /// slot, log_hash, results) — counted in place, nothing is cloned.
    fn count_reply(&mut self, reply: Reply, quorum: usize) -> Option<Vec<Vec<u8>>> {
        let same = |r: &Reply| {
            r.view == reply.view
                && r.slot == reply.slot
                && r.log_hash == reply.log_hash
                && r.results == reply.results
        };
        // The sender's earlier answer, if any, is replaced, not counted.
        let others = self
            .replies
            .values()
            .filter(|r| r.replica != reply.replica && same(r))
            .count();
        if others + 1 >= quorum {
            return Some(reply.results);
        }
        self.replies.insert(reply.replica, reply);
        None
    }
}

/// The windowed, batching NeoBFT client node.
pub struct ClientDriver {
    id: ClientId,
    cfg: NeoConfig,
    crypto: NodeCrypto,
    sender: AomSender,
    /// Op source (`None` = manual mode, ops arrive only via `submit`).
    workload: Option<Box<dyn Workload>>,
    batcher: AdaptiveBatcher,
    next_request: u64,
    /// Ops pulled from the workload so far (bounded by `max_ops`).
    pulled: u64,
    queue: VecDeque<QueuedOp>,
    inflight: Option<Inflight>,
    flush_timer: Option<TimerId>,
    /// Completed operations, in request-id order.
    pub completed: Vec<CompletedOp>,
    /// Stop pulling from the workload after this many operations
    /// (None = run forever). Does not limit explicit `submit`s.
    pub max_ops: Option<u64>,
}

/// The original name: a [`ClientDriver`] with the policy taken from
/// [`NeoConfig::batch`] (default [`crate::BatchPolicy::SINGLE`], the exact
/// closed-loop behaviour every pre-batching test expects).
pub type Client = ClientDriver;

impl ClientDriver {
    /// Build client `id` issuing operations from `workload` under the
    /// batch policy in `cfg.batch`.
    pub fn new(
        id: ClientId,
        cfg: NeoConfig,
        keys: &SystemKeys,
        costs: CostModel,
        workload: Box<dyn Workload>,
    ) -> Self {
        Self::build(id, cfg, keys, costs, Some(workload))
    }

    /// Build a manual-mode driver: no workload, ops arrive only through
    /// [`ClientDriver::submit`] / [`ClientDriver::try_submit`].
    pub fn manual(id: ClientId, cfg: NeoConfig, keys: &SystemKeys, costs: CostModel) -> Self {
        Self::build(id, cfg, keys, costs, None)
    }

    fn build(
        id: ClientId,
        cfg: NeoConfig,
        keys: &SystemKeys,
        costs: CostModel,
        workload: Option<Box<dyn Workload>>,
    ) -> Self {
        let crypto = NodeCrypto::new(Principal::Client(id), keys, costs);
        let sender = AomSender::new(cfg.group);
        let batcher = AdaptiveBatcher::new(cfg.batch);
        ClientDriver {
            id,
            cfg,
            crypto,
            sender,
            workload,
            batcher,
            next_request: 1,
            pulled: 0,
            queue: VecDeque::new(),
            inflight: None,
            flush_timer: None,
            completed: Vec::new(),
            max_ops: None,
        }
    }

    /// This client's id.
    pub fn id(&self) -> ClientId {
        self.id
    }

    /// True if a batch is in flight or ops are queued.
    pub fn busy(&self) -> bool {
        self.inflight.is_some() || !self.queue.is_empty()
    }

    /// Ops outstanding (queued + in flight).
    pub fn outstanding(&self) -> usize {
        self.queue.len() + self.inflight.as_ref().map(|i| i.ops.len()).unwrap_or(0)
    }

    /// Submit an op for replicated execution. Always accepts (explicit
    /// submissions may exceed the window); the returned handle resolves
    /// via [`ClientDriver::result_of`] once the op commits.
    pub fn submit(&mut self, op: Vec<u8>) -> OpHandle {
        let request_id = RequestId(self.next_request);
        self.next_request += 1;
        self.queue.push_back(QueuedOp {
            request_id,
            op,
            queued_at: None,
        });
        OpHandle(request_id)
    }

    /// Windowed submit: refuses (returning `None`) while the policy's
    /// window of outstanding ops is full — the backpressure surface for
    /// open-loop load generators.
    pub fn try_submit(&mut self, op: Vec<u8>) -> Option<OpHandle> {
        if self.outstanding() >= self.cfg.batch.window {
            return None;
        }
        Some(self.submit(op))
    }

    /// The completion record for a submitted op, if it has committed.
    /// Ops complete in request-id order, so this is a binary search.
    pub fn result_of(&self, handle: OpHandle) -> Option<&CompletedOp> {
        self.completed
            .binary_search_by_key(&handle.0, |c| c.request_id)
            .ok()
            .and_then(|i| self.completed.get(i))
    }

    /// Pull ops from the workload to fill the window, then flush a batch
    /// if the policy says so. The single driver of all progress.
    fn pump(&mut self, ctx: &mut dyn Context) {
        self.refill(ctx);
        self.maybe_flush(ctx, false);
    }

    /// Top the queue up from the workload (if any) to the window size.
    fn refill(&mut self, ctx: &mut dyn Context) {
        if self.workload.is_none() {
            return;
        }
        let window = self.cfg.batch.window.max(1);
        let room = window.saturating_sub(self.queue.len() + self.inflight_len());
        let budget = match self.max_ops {
            Some(max) => (max.saturating_sub(self.pulled)).min(room as u64) as usize,
            None => room,
        };
        if budget == 0 {
            // Only signal idleness when there is truly nothing going on;
            // a full window under backpressure is load, not idleness.
            if self.queue.is_empty() && self.inflight.is_none() {
                self.batcher.on_ops(0, ctx.now());
            }
            return;
        }
        let Some(workload) = self.workload.as_mut() else {
            return;
        };
        let ops = workload.next_ops(budget);
        let n = ops.len() as u64;
        self.pulled += n;
        let now = ctx.now();
        for op in ops {
            let request_id = RequestId(self.next_request);
            self.next_request += 1;
            self.queue.push_back(QueuedOp {
                request_id,
                op,
                queued_at: Some(now),
            });
        }
        self.batcher.on_ops(n, now);
    }

    fn inflight_len(&self) -> usize {
        self.inflight.as_ref().map(|i| i.ops.len()).unwrap_or(0)
    }

    /// Flush a batch if one is due: the queue reached the target size,
    /// the policy never waits (zero flush timeout), or the flush timer
    /// fired (`timed_out`).
    fn maybe_flush(&mut self, ctx: &mut dyn Context, timed_out: bool) {
        if self.inflight.is_some() || self.queue.is_empty() {
            return;
        }
        let target = self
            .batcher
            .target()
            .clamp(1, self.cfg.batch.max_batch.max(1));
        let due = timed_out || self.queue.len() >= target || self.cfg.batch.flush_timeout_ns == 0;
        if !due {
            if self.flush_timer.is_none() {
                self.flush_timer =
                    Some(ctx.set_timer(self.cfg.batch.flush_timeout_ns, FLUSH_TIMER));
            }
            return;
        }
        if let Some(t) = self.flush_timer.take() {
            ctx.cancel_timer(t);
        }
        let now = ctx.now();
        let take = self.queue.len().min(self.cfg.batch.max_batch.max(1));
        let mut ops = Vec::with_capacity(take);
        for _ in 0..take {
            let Some(q) = self.queue.pop_front() else {
                break;
            };
            ops.push((q.request_id, q.op, q.queued_at.unwrap_or(now)));
        }
        let Some(first) = ops.first().map(|(id, _, _)| *id) else {
            return;
        };
        let retry_timer = ctx.set_timer(self.cfg.client_retry_ns, RETRY_TIMER);
        self.inflight = Some(Inflight {
            first_request_id: first,
            ops,
            retries: 0,
            replies: BTreeMap::new(),
            retry_timer,
        });
        if take > 1 {
            ctx.emit(Event::BatchFlush {
                client: self.id.0,
                request: first.0,
                size: take as u64,
            });
        }
        // Span start: everything downstream correlates back to this
        // (client, first-request) pair.
        ctx.emit(Event::ClientSend {
            client: self.id.0,
            request: first.0,
        });
        self.send_batch(ctx);
    }

    fn signed_batch(&self) -> Option<SignedBatch> {
        let infl = self.inflight.as_ref()?;
        let batch = BatchRequest {
            ops: AomBatch {
                ops: infl.ops.iter().map(|(_, op, _)| op.clone()).collect(),
            },
            first_request_id: infl.first_request_id,
            client: self.id,
        };
        let bytes = neo_wire::encode(&batch).ok()?;
        let peers: Vec<neo_crypto::Principal> = (0..self.cfg.n as u32)
            .map(|r| neo_crypto::Principal::Replica(ReplicaId(r)))
            .collect();
        let auth = self.crypto.mac_vector(&peers, &bytes);
        Some(SignedBatch { batch, auth })
    }

    fn send_batch(&mut self, ctx: &mut dyn Context) {
        let Some(signed) = self.signed_batch() else {
            return;
        };
        let payload = self.sender.wrap(signed.to_bytes(), &self.crypto);
        ctx.send(self.sender.dest(), payload);
    }

    fn retransmit(&mut self, ctx: &mut dyn Context) {
        // Keep multicasting via aom *and* unicast to every replica
        // (§5.3).
        self.send_batch(ctx);
        let Some(signed) = self.signed_batch() else {
            return;
        };
        // Encode the unicast fallback once; fan-out is refcount bumps.
        let all: Vec<ReplicaId> = (0..self.cfg.n as u32).map(ReplicaId).collect();
        ctx.broadcast(&all, NeoMsg::RequestUnicast(signed).to_payload());
        if let Some(infl) = self.inflight.as_mut() {
            infl.retries += 1;
            infl.retry_timer = ctx.set_timer(self.cfg.client_retry_ns, RETRY_TIMER);
        }
    }

    fn on_reply(&mut self, reply: Reply, tag: neo_wire::HmacTag, ctx: &mut dyn Context) {
        let Some(infl) = self.inflight.as_mut() else {
            return;
        };
        if reply.request_id != infl.first_request_id {
            return;
        }
        if reply.results.len() != infl.ops.len() {
            return;
        }
        if reply.replica.index() >= self.cfg.n {
            return;
        }
        let Ok(bytes) = neo_wire::encode(&reply) else {
            return;
        };
        if self
            .crypto
            .verify_mac_from(Principal::Replica(reply.replica), &bytes, &tag)
            .is_err()
        {
            return;
        }
        // Quorum: 2f+1 replies matching on (view, slot, log_hash, results).
        let Some(results) = infl.count_reply(reply, self.cfg.quorum()) else {
            return;
        };
        let Some(infl) = self.inflight.take() else {
            return;
        };
        ctx.cancel_timer(infl.retry_timer);
        let completed_at = ctx.now();
        // Span end: the 2f+1 matching-reply quorum completed.
        ctx.emit(Event::ClientCommit {
            client: self.id.0,
            request: infl.first_request_id.0,
        });
        {
            let m = ctx.metrics();
            for (_, _, queued_at) in &infl.ops {
                m.observe("client.latency_ns", completed_at.saturating_sub(*queued_at));
                m.incr("client.ops_completed");
            }
            if infl.retries > 0 {
                m.add("client.retries", infl.retries as u64);
            }
        }
        // Fan the per-op results back out, in request-id order.
        for ((request_id, _, queued_at), result) in infl.ops.into_iter().zip(results) {
            self.completed.push(CompletedOp {
                request_id,
                issued_at: queued_at,
                completed_at,
                result,
                retries: infl.retries,
            });
        }
        self.pump(ctx);
    }
}

impl Node for ClientDriver {
    fn on_message(&mut self, _from: Addr, payload: &[u8], ctx: &mut dyn Context) {
        let Ok(Envelope::App(bytes)) = Envelope::from_bytes(payload) else {
            return;
        };
        if let Some(NeoMsg::Reply(reply, tag)) = NeoMsg::from_app_bytes(&bytes) {
            self.on_reply(reply, tag, ctx);
        }
    }

    fn on_timer(&mut self, timer: TimerId, kind: u32, ctx: &mut dyn Context) {
        match kind {
            neo_sim::sim::INIT_TIMER_KIND => {
                if self.workload.is_none() {
                    // Manual mode: poll for submitted ops. The interval
                    // trades submit-to-wire latency against timer churn.
                    let tick = self.cfg.batch.flush_timeout_ns.max(100_000);
                    ctx.set_timer(tick, PUMP_TIMER);
                }
                self.pump(ctx);
            }
            RETRY_TIMER => {
                let active = self
                    .inflight
                    .as_ref()
                    .map(|i| i.retry_timer == timer)
                    .unwrap_or(false);
                if active {
                    self.retransmit(ctx);
                }
            }
            FLUSH_TIMER => {
                let active = self.flush_timer.map(|t| t == timer).unwrap_or(false);
                if active {
                    self.flush_timer = None;
                    self.maybe_flush(ctx, true);
                }
            }
            PUMP_TIMER => {
                let tick = self.cfg.batch.flush_timeout_ns.max(100_000);
                ctx.set_timer(tick, PUMP_TIMER);
                self.pump(ctx);
            }
            _ => {}
        }
    }

    fn meter(&self) -> Option<&neo_crypto::Meter> {
        Some(self.crypto.meter())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_wire::{SlotNum, ViewId};

    fn inflight() -> Inflight {
        Inflight {
            first_request_id: RequestId(1),
            ops: Vec::new(),
            retries: 0,
            replies: BTreeMap::new(),
            retry_timer: TimerId(0),
        }
    }

    fn reply(replica: u32, slot: u64, result: &[u8]) -> Reply {
        Reply {
            view: ViewId::INITIAL,
            replica: ReplicaId(replica),
            slot: SlotNum(slot),
            log_hash: neo_crypto::sha256(&slot.to_le_bytes()),
            request_id: RequestId(1),
            results: vec![result.to_vec()],
        }
    }

    #[test]
    fn quorum_of_matching_replies_commits_with_their_results() {
        let mut infl = inflight();
        assert_eq!(infl.count_reply(reply(0, 5, b"r"), 3), None);
        assert_eq!(infl.count_reply(reply(1, 5, b"r"), 3), None);
        assert_eq!(infl.count_reply(reply(1, 5, b"r"), 3), None, "a repeat");
        assert_eq!(infl.count_reply(reply(2, 6, b"r"), 3), None, "other slot");
        assert_eq!(infl.count_reply(reply(3, 5, b"x"), 3), None, "other result");
        assert_eq!(
            infl.count_reply(reply(4, 5, b"r"), 3),
            Some(vec![b"r".to_vec()])
        );
    }

    #[test]
    fn a_replica_that_re_executes_moves_its_vote() {
        let mut infl = inflight();
        // Replicas 0 and 1 answer from slot 5, then roll back and answer
        // again from slot 6, where replica 2 also executed the request.
        for r in [0, 1] {
            assert_eq!(infl.count_reply(reply(r, 5, b"r"), 3), None);
        }
        assert_eq!(infl.count_reply(reply(2, 6, b"r"), 3), None);
        assert_eq!(infl.count_reply(reply(0, 6, b"r"), 3), None);
        assert_eq!(
            infl.count_reply(reply(1, 6, b"r"), 3),
            Some(vec![b"r".to_vec()]),
            "the latest answers agree; the superseded ones no longer count"
        );
    }
}
