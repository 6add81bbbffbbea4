//! The NeoBFT replica (§5).
//!
//! One state machine implements normal operation (§5.3), gap agreement
//! (§5.4), view changes with epoch certificates (§5.5, §B.1), and state
//! synchronization (§B.2). All network effects flow through the sans-IO
//! [`Context`], so the same replica runs under the simulator and the
//! tokio transport.

use crate::config::NeoConfig;
use crate::error::ProtocolError;
use crate::log::{Log, LogEntry};
use crate::messages::{
    gap_decision_digest, sign_body, verify_body, EpochCert, EpochStartBody, GapDecisionBody,
    GapDropBody, GapVoteBody, NeoMsg, Reply, SignedBatch, StateQueryBody, SyncBody,
    ViewChangeBody, WireLogEntry,
};
use crate::recovery::{CheckpointData, WalRecord, WireCheckpoint};
use crate::verify::{PoolVerifyTask, VerifyLane, VerifyWork};
use neo_aom::{AomReceiver, ConfigMsg, Delivery, Envelope, OrderingCert, SignedConfirm};
use neo_app::App;
use neo_crypto::{
    CostModel, Digest, NodeCrypto, Principal, ReorderBuffer, Signature, SystemKeys, VerifyPool,
};
use neo_sim::obs::Event;
use neo_sim::{Context, Node, TimerId};
use neo_wire::{Addr, ClientId, EpochNum, ReplicaId, RequestId, SeqNum, SlotNum, ViewId};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Replica fault behaviour for experiments.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ReplicaBehavior {
    /// Follow the protocol.
    Correct,
    /// Byzantine-silent: receive everything, send nothing (the
    /// "non-responding Byzantine replica" of the Zyzzyva-F experiment —
    /// NeoBFT is expected to shrug it off).
    Mute,
}

/// Counters exported to the experiment harness.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReplicaStats {
    /// Operations executed (including re-executions).
    pub executed: u64,
    /// Replies sent to clients.
    pub replies_sent: u64,
    /// Gap slots committed as no-op.
    pub noops_committed: u64,
    /// Gap slots recovered with a certificate (query or agreement).
    pub gaps_recovered: u64,
    /// Application rollbacks performed.
    pub rollbacks: u64,
    /// View changes entered.
    pub view_changes: u64,
    /// Messages processed.
    pub messages_in: u64,
    /// Sync points advanced.
    pub sync_points: u64,
    /// Recoverable protocol errors (dropped instead of panicking).
    pub protocol_errors: u64,
    /// Slots executed while already marked executed — must stay zero
    /// (the chaos harness treats any increment as a safety violation).
    pub double_executions: u64,
    /// State-transfer payloads rejected: tampered snapshots, uncertified
    /// checkpoints, or suffix entries whose certificates fail.
    pub state_transfer_rejected: u64,
    /// Checkpoints this replica certified (2f+1 matching sync digests).
    pub checkpoints_certified: u64,
    /// State-transfer replies served to recovering peers.
    pub state_replies_served: u64,
}

/// Pending timer meanings.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum TimerPayload {
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

/// Recovery bookkeeping for a replica constructed from a store.
struct RecoveryState {
    phase: RecoveryPhase,
    /// Slot the replica resumed from: its durable checkpoint's sync
    /// point, or 0 when it restarted without one. Raised if a newer
    /// checkpoint is installed from a peer during recovery.
    base: SlotNum,
    /// Virtual time the state transfer started (for `recovery_ns`).
    started_at: Option<u64>,
    retry_timer: Option<TimerId>,
}

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
    /// Timers.
    query_timer: Option<TimerId>,
    agreement_timer: Option<TimerId>,
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

/// View-change collection state.
#[derive(Default)]
struct ViewChangeState {
    /// Valid view-change messages per proposed view. Both levels are
    /// BTreeMaps: the quorum selected in `maybe_start_view` goes on the
    /// wire, so the pick must be order-stable (R1, `clippy.toml`).
    msgs: BTreeMap<ViewId, BTreeMap<ReplicaId, (ViewChangeBody, Signature)>>,
    /// My own view-change message for the view I am proposing.
    own: Option<(ViewChangeBody, Signature)>,
    resend_timer: Option<TimerId>,
    /// view-start already processed for this view.
    started: bool,
    /// Epoch-start votes: (epoch, slot) → replica → signed body.
    /// BTreeMaps: the votes become the broadcast epoch certificate.
    epoch_votes: BTreeMap<(EpochNum, SlotNum), BTreeMap<ReplicaId, (EpochStartBody, Signature)>>,
    /// My pending epoch entry after a merge, awaiting the certificate.
    awaiting_epoch: Option<(EpochNum, SlotNum)>,
}

/// Protocol status.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Status {
    Normal,
    ViewChange,
}

/// The NeoBFT replica node.
pub struct Replica {
    cfg: NeoConfig,
    id: ReplicaId,
    /// Every replica except this one, in id order — the broadcast
    /// destination set, computed once (membership is static per config).
    peers: Vec<ReplicaId>,
    crypto: NodeCrypto,
    aom: AomReceiver,
    app: Box<dyn App>,
    log: Log,
    view: ViewId,
    status: Status,
    /// First log slot of the current epoch.
    epoch_base: SlotNum,
    /// Next slot to execute.
    exec_cursor: SlotNum,
    /// Ops executed per slot (for rollback accounting): slot → number of
    /// batch ops applied to the app (0 = not executed / no-op / pending).
    executed_ops: Vec<u32>,
    /// BTreeMap: checkpoint capture walks this map into the certified
    /// snapshot, so iteration order must match across replicas.
    client_table: BTreeMap<ClientId, ClientEntry>,
    /// BTreeMap: `maybe_sync` walks this map and the result is signed.
    gaps: BTreeMap<SlotNum, GapState>,
    timers: HashMap<TimerId, TimerPayload>,
    aom_gap_timer: Option<(SeqNum, TimerId)>,
    vc: ViewChangeState,
    /// Epoch certificates I have collected (for my view-change messages).
    epoch_certs: Vec<(EpochNum, SlotNum, EpochCert)>,
    /// Unicast-fallback requests awaiting aom delivery (point lookups
    /// only; size-capped in `on_request_unicast`).
    unicast_watch: HashMap<(ClientId, RequestId), TimerId>,
    /// State-sync votes per slot, with their signatures (matching
    /// signatures become the checkpoint certificate). BTreeMaps:
    /// `check_sync` iterates both levels when applying certified no-ops.
    sync_votes: BTreeMap<SlotNum, BTreeMap<ReplicaId, (SyncBody, Signature)>>,
    sync_point: SlotNum,
    last_sync_slot: SlotNum,
    /// Durable WAL + checkpoint device (None = no durability, as in the
    /// pure-protocol unit tests). Appends buffer here; the executor
    /// flushes after each handler, write-ahead of the outgoing sends.
    store: Option<Box<dyn neo_sim::Store>>,
    /// Checkpoints captured at sync-interval boundaries with their
    /// digests, awaiting certification by 2f+1 matching sync votes.
    /// Invalidated by rollbacks past their slot; size-capped.
    pending_checkpoints: BTreeMap<SlotNum, (CheckpointData, Digest)>,
    /// The newest certified checkpoint — persisted to the store and
    /// served to recovering peers.
    stable_checkpoint: Option<WireCheckpoint>,
    /// Crash-recovery state machine; `Some` only on replicas constructed
    /// via [`Replica::with_store`] (or kicked into recovery by a merged
    /// view-change log starting past their tail).
    recovery: Option<RecoveryState>,
    /// Packets stamped in a future epoch, buffered until this replica
    /// finishes the epoch-switching view change and installs that epoch
    /// (without this, replicas that enter the new epoch late would miss
    /// its first sequence numbers and immediately re-enter gap agreement).
    future_epoch: std::collections::BTreeMap<EpochNum, Vec<neo_aom::AomPacket>>,
    /// Byzantine-network mode: confirms awaiting a batched flush (§6.2).
    pending_confirms: Vec<neo_aom::SignedConfirm>,
    confirm_flush_timer: Option<TimerId>,
    /// Last virtual time an aom delivery reached the application —
    /// sustained silence here (not one lost packet) is what implicates
    /// the sequencer (§4.2).
    last_aom_delivery: u64,
    /// Every `(epoch, seq)` the aom layer delivered (messages and drop
    /// notifications alike), in delivery order. The chaos harness checks
    /// this trace for monotonicity; bounded by [`Self::TRACE_CAP`].
    delivery_trace: Vec<(u64, u64)>,
    /// The trace hit its cap and stopped recording (checkers must then
    /// skip trace-based invariants rather than report false gaps).
    trace_saturated: bool,
    /// Per-slot digest of (client, request id, result) for executed
    /// request slots; `None` for no-ops, pending and rolled-back slots.
    /// Two correct replicas that both executed slot `s` must agree here.
    exec_digests: Vec<Option<u64>>,
    /// High-water mark of the resolved log prefix (monotone even across
    /// epoch-switch truncation, unlike `log.resolved_prefix_len()`).
    resolved_watermark: SlotNum,
    /// Where authenticator verification runs (DESIGN.md §16): inline on
    /// the dispatch path, inline with parallel-lane charges (the sim's
    /// pool model), or on a real worker pool.
    lane: VerifyLane,
    /// Re-injects verify completions in strict dispatch order — the
    /// in-order invariant that makes the pooled lane observably
    /// equivalent to inline verification.
    verify_reorder: ReorderBuffer<VerifyWork>,
    /// Pool-precomputed client batch-MAC verdicts awaiting
    /// `execute_slot`, keyed by aom header digest; consumed on first
    /// lookup and capped at [`Self::PREVERIFIED_CAP`].
    preverified_auth: HashMap<[u8; 32], bool>,
    /// Fault behaviour.
    pub behavior: ReplicaBehavior,
    /// Counters.
    pub stats: ReplicaStats,
}

impl Replica {
    /// Build replica `id` with its application instance.
    pub fn new(
        id: ReplicaId,
        cfg: NeoConfig,
        keys: &SystemKeys,
        costs: CostModel,
        app: Box<dyn App>,
    ) -> Self {
        let crypto = NodeCrypto::new(Principal::Replica(id), keys, costs);
        let aom = AomReceiver::new(
            cfg.group,
            id,
            id.index(),
            cfg.f,
            cfg.auth.clone(),
            cfg.trust,
            keys,
        );
        // Lane selection: a per-replica pool in the real runtime
        // (verify_workers > 0), the meter's parallel lane in the sim.
        let lane = if cfg.verify_workers > 0 {
            VerifyLane::Pool(Arc::new(VerifyPool::new(cfg.verify_workers)))
        } else if cfg.pipeline_verify {
            VerifyLane::SimParallel
        } else {
            VerifyLane::Serial
        };
        let peers = (0..cfg.n as u32)
            .map(ReplicaId)
            .filter(|r| *r != id)
            .collect();
        Replica {
            cfg,
            id,
            peers,
            crypto,
            aom,
            app,
            log: Log::new(),
            view: ViewId::INITIAL,
            status: Status::Normal,
            epoch_base: SlotNum(0),
            exec_cursor: SlotNum(0),
            executed_ops: Vec::new(),
            client_table: BTreeMap::new(),
            gaps: BTreeMap::new(),
            timers: HashMap::new(),
            aom_gap_timer: None,
            vc: ViewChangeState::default(),
            epoch_certs: Vec::new(),
            unicast_watch: HashMap::new(),
            sync_votes: BTreeMap::new(),
            sync_point: SlotNum(0),
            last_sync_slot: SlotNum(0),
            store: None,
            pending_checkpoints: BTreeMap::new(),
            stable_checkpoint: None,
            recovery: None,
            future_epoch: std::collections::BTreeMap::new(),
            pending_confirms: Vec::new(),
            confirm_flush_timer: None,
            last_aom_delivery: 0,
            delivery_trace: Vec::new(),
            trace_saturated: false,
            exec_digests: Vec::new(),
            resolved_watermark: SlotNum(0),
            lane,
            verify_reorder: ReorderBuffer::new(),
            preverified_auth: HashMap::new(),
            behavior: ReplicaBehavior::Correct,
            stats: ReplicaStats::default(),
        }
    }

    /// Build replica `id` on top of a durable store, resuming from
    /// whatever the store holds: the certified checkpoint (verified
    /// exactly like one fetched from a peer) is installed, the WAL
    /// suffix is replayed into the log, and the recovery state machine
    /// is armed — the first event the replica handles broadcasts a
    /// `StateQuery` so peers can fill in everything newer. An empty
    /// store yields a fresh replica that still runs the (trivially
    /// short) recovery handshake, so far-behind restarts and genesis
    /// starts share one code path.
    pub fn with_store(
        id: ReplicaId,
        cfg: NeoConfig,
        keys: &SystemKeys,
        costs: CostModel,
        app: Box<dyn App>,
        store: Box<dyn neo_sim::Store>,
    ) -> Self {
        let mut r = Self::new(id, cfg, keys, costs, app);
        let mut base = SlotNum(0);
        if let Some(blob) = store.checkpoint() {
            if let Some(wire) = WireCheckpoint::from_bytes(&blob) {
                // A disk checkpoint gets no more trust than a remote one:
                // the 2f+1 sync-vote certificate must verify and the app
                // must accept the snapshot, or we fall back to plain WAL
                // replay from slot 0.
                if r.verify_checkpoint(&wire) && r.app.restore(&wire.data.app) {
                    base = wire.data.slot;
                    r.log = Log::with_base(base, wire.data.chain_hash);
                    for (e, s) in &wire.data.epoch_starts {
                        r.log.record_epoch_start(*e, *s);
                    }
                    r.exec_cursor = base;
                    r.sync_point = base;
                    r.last_sync_slot = base;
                    r.resolved_watermark = base;
                    r.executed_ops = vec![0; base.index()];
                    r.exec_digests = vec![None; base.index()];
                    for (c, first, last, slot) in &wire.data.clients {
                        r.client_table.insert(
                            *c,
                            ClientEntry {
                                first_request: *first,
                                last_request: *last,
                                // Reply bytes are not checkpointed (they
                                // embed the executing view); at-most-once
                                // survives, the re-send optimization does
                                // not.
                                cached_reply: None,
                                slot: *slot,
                            },
                        );
                    }
                    if let Some((body, _)) = wire.cert.first() {
                        r.view = body.view;
                    }
                    r.stable_checkpoint = Some(wire);
                }
            }
        }
        r.replay_wal_records(&store.log_records(), base);
        // Fast-forward the ordering layer past everything restored: the
        // aom receiver must not wait for (or gap-declare) sequence
        // numbers the log already holds.
        let (epoch, next_seq) = r.epoch_and_seq_of(r.log.len());
        if epoch > r.aom.epoch() {
            r.aom.install_epoch(epoch);
        }
        r.epoch_base = SlotNum(r.log.len().0 + 1 - next_seq.0);
        r.aom.fast_forward(next_seq);
        r.store = Some(store);
        r.recovery = Some(RecoveryState {
            phase: RecoveryPhase::Recovering,
            base,
            started_at: None,
            retry_timer: None,
        });
        r
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
                        self.executed_ops.push(0);
                        self.exec_digests.push(None);
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
                    if !self.epoch_certs.iter().any(|(e, _, _)| *e == epoch) {
                        self.epoch_certs.push((epoch, start_slot, cert));
                    }
                }
                None => {} // unreadable record: healed tail artifact, skip
            }
        }
        if self.executed_ops.len() < self.log.len().index() {
            self.executed_ops.resize(self.log.len().index(), 0);
        }
        if self.exec_digests.len() < self.log.len().index() {
            self.exec_digests.resize(self.log.len().index(), None);
        }
    }

    /// The epoch governing `slot` and the aom sequence number it maps
    /// to, derived from recorded epoch starts.
    fn epoch_and_seq_of(&self, slot: SlotNum) -> (EpochNum, SeqNum) {
        let mut epoch = EpochNum::INITIAL;
        let mut start = SlotNum(0);
        for (e, s) in self.log.epoch_starts() {
            if *s <= slot && *e >= epoch {
                epoch = *e;
                start = *s;
            }
        }
        (epoch, SeqNum(slot.0 - start.0 + 1))
    }

    /// This replica's id.
    pub fn id(&self) -> ReplicaId {
        self.id
    }

    /// Current view.
    pub fn view(&self) -> ViewId {
        self.view
    }

    /// Current log length.
    pub fn log_len(&self) -> SlotNum {
        self.log.len()
    }

    /// Read-only access to the log (tests and harness).
    pub fn log(&self) -> &Log {
        &self.log
    }

    /// Current sync point (§B.2).
    pub fn sync_point(&self) -> SlotNum {
        self.sync_point
    }

    /// The application (downcast by tests to inspect state).
    pub fn app(&self) -> &dyn App {
        self.app.as_ref()
    }

    /// Next slot to execute (the speculative execution cursor).
    pub fn exec_cursor(&self) -> SlotNum {
        self.exec_cursor
    }

    /// `(epoch, seq)` of every aom delivery, in delivery order.
    pub fn delivery_trace(&self) -> &[(u64, u64)] {
        &self.delivery_trace
    }

    /// Whether the delivery trace hit its cap and stopped recording.
    pub fn delivery_trace_saturated(&self) -> bool {
        self.trace_saturated
    }

    /// Per-slot execution digests (`None` = no-op / pending / undone).
    pub fn exec_digests(&self) -> &[Option<u64>] {
        &self.exec_digests
    }

    /// Highest resolved-prefix length this replica has ever observed.
    pub fn resolved_watermark(&self) -> SlotNum {
        self.resolved_watermark
    }

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

    /// Sync-point slot of the newest certified checkpoint, if any.
    pub fn stable_checkpoint_slot(&self) -> Option<SlotNum> {
        self.stable_checkpoint.as_ref().map(|cp| cp.data.slot)
    }

    /// Signed gap-agreement votes (drops, prepares, commits) currently
    /// held: those of open rounds, plus those of rounds resolved since the
    /// last sync point. For the tests of that bound.
    #[doc(hidden)]
    pub fn gap_votes_held(&self) -> usize {
        let votes = |g: &GapState| g.drops.len() + g.prepares.len() + g.commits.len();
        self.gaps.values().map(votes).sum()
    }

    /// The aom receiver's counters (invariant checking and tests).
    pub fn aom_stats(&self) -> neo_aom::AomReceiverStats {
        self.aom.stats()
    }

    /// Test-only: replace the log wholesale (recovery invariant tests
    /// build based logs directly), aligning the sync point and resolved
    /// watermark with the base the way checkpoint installation does.
    #[cfg(test)]
    pub(crate) fn set_log_for_tests(&mut self, log: Log) {
        self.sync_point = self.sync_point.max(log.base());
        self.last_sync_slot = self.last_sync_slot.max(log.base());
        self.resolved_watermark = self.resolved_watermark.max(log.base());
        self.exec_cursor = self.exec_cursor.max(log.base());
        self.log = log;
    }

    fn leader(&self) -> ReplicaId {
        self.view.leader(self.cfg.n)
    }

    fn is_leader(&self) -> bool {
        self.leader() == self.id
    }

    fn broadcast(&self, msg: &NeoMsg, ctx: &mut dyn Context) {
        if self.behavior == ReplicaBehavior::Mute {
            return;
        }
        // Single-encode invariant: one allocation, N refcount bumps.
        ctx.broadcast(&self.peers, msg.to_payload());
    }

    fn send_to(&self, r: ReplicaId, msg: &NeoMsg, ctx: &mut dyn Context) {
        if self.behavior == ReplicaBehavior::Mute {
            return;
        }
        ctx.send(Addr::Replica(r), msg.to_payload());
    }

    /// Record a recoverable protocol error: count it, never panic.
    fn note_error(&mut self, err: ProtocolError, ctx: &mut dyn Context) {
        self.stats.protocol_errors += 1;
        ctx.metrics().incr("replica.protocol_errors");
        let _ = err;
    }

    fn arm(&mut self, delay: u64, payload: TimerPayload, ctx: &mut dyn Context) -> TimerId {
        // The timer kind discriminates in on_timer via the payload map;
        // the u32 kind itself is unused (always 1 = "protocol timer").
        let id = ctx.set_timer(delay, 1);
        self.timers.insert(id, payload);
        id
    }

    fn disarm(&mut self, id: TimerId, ctx: &mut dyn Context) {
        self.timers.remove(&id);
        ctx.cancel_timer(id);
    }

    // ------------------------------------------------------------------
    // aom delivery path (§5.3)
    // ------------------------------------------------------------------

    /// Confirms per envelope (§6.2 batching). A smaller batch is flushed
    /// as soon as this node has run out of ready input — never after a
    /// wall-clock wait.
    const CONFIRM_BATCH: usize = 8;
    /// How far past the log tail remote messages may create per-slot
    /// agreement/sync state (neo-lint R5: Byzantine peers naming
    /// far-future slots must not grow maps at will).
    const SLOT_WINDOW: u64 = 4096;
    /// How many epochs past the installed one packets and votes are
    /// buffered.
    const FUTURE_EPOCH_WINDOW: u64 = 4;
    /// Concurrent unicast-fallback watchdog cap.
    const UNICAST_WATCH_MAX: usize = 4096;
    /// Distinct proposed views / epoch positions buffered during view
    /// changes.
    const VC_BUFFER_MAX: usize = 64;
    /// Delivery-trace entries kept before recording stops.
    const TRACE_CAP: usize = 1 << 20;
    /// Pool-preverified client-MAC verdicts kept at once (one per
    /// in-flight packet; neo-lint R5 growth bound).
    const PREVERIFIED_CAP: usize = 4096;
    /// Log entries served per state-transfer reply (a recovering replica
    /// re-queries for more; bounds reply size and serve cost).
    const STATE_SUFFIX_MAX: usize = 1024;
    /// Uncertified checkpoints kept at once (oldest dropped; neo-lint R5
    /// growth bound for the recovery buffers).
    const PENDING_CHECKPOINT_CAP: usize = 16;

    /// Record one aom delivery in the trace (bounded).
    fn record_delivery(&mut self, epoch: u64, seq: u64) {
        if self.delivery_trace.len() >= Self::TRACE_CAP {
            self.trace_saturated = true;
            return;
        }
        self.delivery_trace.push((epoch, seq));
    }

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

    /// R5 growth bound shared by the gap and sync handlers; a rejected
    /// slot is counted, not processed.
    fn slot_in_window(&self, slot: SlotNum, ctx: &mut dyn Context) -> bool {
        if slot.0 > self.log.len().0 + Self::SLOT_WINDOW {
            ctx.metrics().incr("replica.bounded_rejects");
            return false;
        }
        true
    }

    /// A slot below the sync point that this log has resolved (or
    /// compacted) is final: 2f+1 replicas hold the same entry, the undo
    /// history behind it is gone, and no gap agreement may touch it again.
    fn slot_is_final(&self, slot: SlotNum) -> bool {
        slot < self.sync_point && slot < self.log.len() && !self.log.is_pending(slot)
    }

    /// Admission for a gap-agreement vote (gap-drop, prepare, commit):
    /// the slot is in the window, and a final slot is served only through
    /// a round this replica holds — a late or replayed vote never opens
    /// one.
    fn gap_vote_admissible(&self, slot: SlotNum, ctx: &mut dyn Context) -> bool {
        (self.gaps.contains_key(&slot) || !self.slot_is_final(slot))
            && self.slot_in_window(slot, ctx)
    }

    /// Whether `votes` holds 2f+1 distinct valid signers. Admission
    /// before authentication, quorum-bounded (DESIGN.md §16): a repeated
    /// signer is skipped unverified, and verification stops at the
    /// quorum — signatures past it cannot change the verdict.
    fn has_signed_quorum<'a, B>(
        &self,
        votes: impl Iterator<Item = (ReplicaId, &'a B, &'a Signature)>,
    ) -> bool
    where
        B: serde::Serialize + serde::de::DeserializeOwned + 'a,
    {
        let quorum = self.cfg.quorum();
        let mut seen = std::collections::BTreeSet::new();
        for (replica, body, sig) in votes {
            if seen.len() >= quorum {
                break;
            }
            if !seen.contains(&replica)
                && verify_body(body, sig, Principal::Replica(replica), &self.crypto)
            {
                seen.insert(replica);
            }
        }
        seen.len() >= quorum
    }

    // ------------------------------------------------------------------
    // Durability: WAL appends, checkpoint capture and certification
    // ------------------------------------------------------------------

    /// Buffer one record on the durable WAL (no-op without a store). The
    /// executor flushes the buffer after this handler completes, before
    /// any of the handler's sends depart — write-ahead of the ack.
    fn wal_append(&mut self, record: &WalRecord) {
        if let Some(store) = &mut self.store {
            store.append(&record.to_bytes());
        }
    }

    /// Capture a checkpoint when the execution cursor sits on a
    /// sync-interval boundary `S`: the app state, chain hash, and client
    /// table then cover exactly slots `< S` on every replica that
    /// reached `S`, so the digests are comparable across the cluster.
    fn maybe_capture_checkpoint(&mut self) {
        let interval = self.cfg.sync_interval;
        if interval == 0 || self.store.is_none() {
            return;
        }
        let s = self.exec_cursor;
        if s.0 == 0 || s.0 % interval != 0 || self.pending_checkpoints.contains_key(&s) {
            return;
        }
        if self
            .stable_checkpoint
            .as_ref()
            .is_some_and(|cp| cp.data.slot >= s)
        {
            return;
        }
        let Some(app) = self.app.snapshot() else {
            return; // snapshot-less app: recovery falls back to full replay
        };
        let Some(chain_hash) = self.log.hash_at(SlotNum(s.0 - 1)) else {
            return;
        };
        // BTreeMap iteration: already sorted by client id, as the
        // checkpoint digest requires.
        let clients: Vec<(ClientId, RequestId, RequestId, SlotNum)> = self
            .client_table
            .iter()
            .filter(|(_, e)| e.slot < s)
            .map(|(c, e)| (*c, e.first_request, e.last_request, e.slot))
            .collect();
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
        if self.pending_checkpoints.len() >= Self::PENDING_CHECKPOINT_CAP {
            self.pending_checkpoints.pop_first();
        }
        // neo-lint: allow(R5, capped at PENDING_CHECKPOINT_CAP with oldest-dropped eviction above)
        self.pending_checkpoints.insert(s, (data, digest));
    }

    /// Validate a checkpoint certificate: 2f+1 distinct replicas signed
    /// sync votes at the checkpoint's slot carrying its exact digest.
    /// Used identically for peer-served checkpoints and our own disk.
    fn verify_checkpoint(&self, wire: &WireCheckpoint) -> bool {
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
        for (epoch, start, cert) in &self.epoch_certs {
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

    // ------------------------------------------------------------------
    // Crash recovery: state transfer (DESIGN.md §17)
    // ------------------------------------------------------------------

    /// If this replica was constructed from a store and has not yet run
    /// the recovery handshake, run it now: execute whatever the local
    /// WAL replay resolved, then ask every peer for a newer certified
    /// checkpoint and the log suffix. Called at the top of every event
    /// entry point, so the first event after a restart (typically the
    /// INIT timer) kicks recovery before anything else is processed.
    fn maybe_kick_recovery(&mut self, ctx: &mut dyn Context) {
        if !matches!(
            self.recovery.as_ref().map(|r| r.phase),
            Some(RecoveryPhase::Recovering)
        ) {
            return;
        }
        // Local replay execution: re-derive app state and replies for
        // everything the WAL already resolved.
        self.try_execute(ctx);
        let body = StateQueryBody {
            replica: self.id,
            have: self.log.len(),
        };
        let sig = sign_body(&body, &self.crypto);
        self.broadcast(&NeoMsg::StateQuery(body, sig), ctx);
        let t = self.arm(self.cfg.query_retry_ns, TimerPayload::StateTransferRetry, ctx);
        let now = ctx.now();
        if let Some(rec) = &mut self.recovery {
            rec.phase = RecoveryPhase::FetchingCheckpoint;
            rec.started_at = Some(now);
            rec.retry_timer = Some(t);
        }
    }

    /// Serve a recovering peer: our stable checkpoint if it is newer
    /// than what the peer holds, plus a resolved log suffix. The reply
    /// is unsigned — the checkpoint certificate and per-entry
    /// ordering/gap certificates authenticate themselves, and the peer
    /// verifies all of them before installing anything.
    fn on_state_query(&mut self, body: StateQueryBody, sig: Signature, ctx: &mut dyn Context) {
        if body.replica == self.id {
            return;
        }
        if !verify_body(&body, &sig, Principal::Replica(body.replica), &self.crypto) {
            return;
        }
        let checkpoint = self
            .stable_checkpoint
            .as_ref()
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

    /// Install a *verified* checkpoint fetched from a peer, replacing
    /// all local state below its slot. Returns false (leaving state
    /// untouched where possible) if the app refuses the snapshot.
    // neo-lint: verified(both callers — with_store and on_state_reply — run verify_checkpoint on the 2f+1 sync-vote certificate before installing)
    fn install_checkpoint(&mut self, wire: &WireCheckpoint, ctx: &mut dyn Context) -> bool {
        if !self.app.restore(&wire.data.app) {
            return false;
        }
        let slot = wire.data.slot;
        // Per-slot agreement state below the new base is obsolete.
        let gap_timers: Vec<TimerId> = self
            .gaps
            .values_mut()
            .flat_map(|g| g.query_timer.take().into_iter().chain(g.agreement_timer.take()))
            .collect();
        for t in gap_timers {
            self.disarm(t, ctx);
        }
        self.gaps.clear();
        self.log = Log::with_base(slot, wire.data.chain_hash);
        for (e, s) in &wire.data.epoch_starts {
            self.log.record_epoch_start(*e, *s);
        }
        self.executed_ops = vec![0; slot.index()];
        self.exec_digests = vec![None; slot.index()];
        self.exec_cursor = slot;
        self.client_table.clear();
        for (c, first, last, cslot) in &wire.data.clients {
            // neo-lint: allow(R5, rebuilt from the certified checkpoint after the clear() above — size is the 2f+1-certified client table, not attacker growth)
            self.client_table.insert(
                *c,
                ClientEntry {
                    first_request: *first,
                    last_request: *last,
                    cached_reply: None,
                    slot: *cslot,
                },
            );
        }
        self.sync_point = self.sync_point.max(slot);
        self.last_sync_slot = self.last_sync_slot.max(slot);
        self.resolved_watermark = self.resolved_watermark.max(slot);
        if let Some(rec) = &mut self.recovery {
            rec.base = rec.base.max(slot);
        }
        // Persist: the checkpoint supersedes every WAL record below it.
        if let Some(store) = &mut self.store {
            store.put_checkpoint(&wire.to_bytes());
            store.reset_log(&[]);
        }
        self.stable_checkpoint = Some(wire.clone());
        self.pending_checkpoints.retain(|s, _| *s > slot);
        true
    }

    /// Handle a state-transfer reply: verify the checkpoint certificate
    /// and every suffix entry's ordering/gap certificate, install what
    /// verifies, and rejoin. Any failed check rejects the whole reply —
    /// a Byzantine peer cannot smuggle a tampered snapshot or an
    /// uncertified entry past this point.
    fn on_state_reply(
        &mut self,
        checkpoint: Option<WireCheckpoint>,
        suffix_start: SlotNum,
        suffix: Vec<WireLogEntry>,
        ctx: &mut dyn Context,
    ) {
        if !matches!(
            self.recovery.as_ref().map(|r| r.phase),
            Some(RecoveryPhase::FetchingCheckpoint)
        ) {
            return; // not recovering (or already past this phase)
        }
        if let Some(rec) = &mut self.recovery {
            rec.phase = RecoveryPhase::Replaying;
        }
        if let Some(wire) = &checkpoint {
            if !self.verify_checkpoint(wire) {
                self.reject_state_transfer(ctx);
                return;
            }
            if wire.data.slot > self.log.len() && !self.install_checkpoint(wire, ctx) {
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
                WireLogEntry::Request(oc) => {
                    let (epoch, seq) = self.epoch_and_seq_of(slot);
                    if oc.packet.header.seq != seq
                        || !self.aom.verify_cert_in_epoch(oc, epoch, &self.crypto)
                    {
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
        let (epoch, next_seq) = self.epoch_and_seq_of(self.log.len());
        if epoch > self.aom.epoch() {
            self.aom.install_epoch(epoch);
        }
        self.epoch_base = SlotNum(self.log.len().0 + 1 - next_seq.0);
        self.aom.fast_forward(next_seq);
        // Rejoined: the first valid reply completes recovery (an empty
        // reply counts — the gap machinery covers any straggler slots).
        let (started, retry) = match &mut self.recovery {
            Some(rec) => {
                rec.phase = RecoveryPhase::Active;
                (rec.started_at.take(), rec.retry_timer.take())
            }
            None => (None, None),
        };
        if let Some(t) = retry {
            self.disarm(t, ctx);
        }
        if let Some(t0) = started {
            ctx.metrics()
                .observe("replica.recovery_ns", ctx.now().saturating_sub(t0));
        }
        self.try_execute(ctx);
        self.maybe_sync(ctx);
        self.pump_aom(ctx);
    }

    // ------------------------------------------------------------------
    // Verify stage (DESIGN.md §16): dispatch / absorb
    // ------------------------------------------------------------------

    /// Dispatch an aom packet's authenticator check to the verify stage.
    /// Admission (group/epoch/window/staleness) happens here, on the
    /// dispatch path; the crypto runs wherever the lane says.
    fn dispatch_packet_verify(&mut self, pkt: neo_aom::AomPacket, ctx: &mut dyn Context) {
        match self.aom.submit_verify(pkt) {
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
            match self.aom.submit_confirm(sc) {
                Ok(Some(job)) => jobs.push(job),
                Ok(None) | Err(_) => {} // trusted network / counted rejects
            }
        }
        if jobs.is_empty() {
            return;
        }
        self.dispatch_verify(VerifyWork::Confirms(jobs), ctx);
    }

    /// Route one verify unit through the lane. Inline lanes run the task
    /// synchronously and complete it immediately; the pool lane submits
    /// and completions return through [`Node::on_async`]. Both flow
    /// through the same reorder buffer, so ordering is identical.
    fn dispatch_verify(&mut self, mut work: VerifyWork, ctx: &mut dyn Context) {
        {
            let m = ctx.metrics();
            if m.enabled() {
                m.observe("verify.batch_size", work.len() as u64);
            }
        }
        let ticket = self.verify_reorder.issue();
        match self.lane.pool().cloned() {
            Some(pool) => {
                let task = PoolVerifyTask::new(work, self.crypto.clone(), self.id.index());
                pool.submit(ticket, Box::new(task));
                let m = ctx.metrics();
                if m.enabled() {
                    m.set_gauge("verify.queue_depth", pool.queue_depth() as i64);
                }
            }
            None => {
                work.verify(&self.crypto, self.lane.parallel());
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
        self.verify_reorder.accept(ticket, work, ctx.now());
        while let Some((work, stall)) = self.verify_reorder.pop_ready(ctx.now()) {
            {
                let m = ctx.metrics();
                if m.enabled() {
                    m.observe("verify.reorder_stall_ns", stall);
                }
            }
            match work {
                VerifyWork::Packet(job) => {
                    let _ = self.aom.complete_verify(job, &self.crypto);
                }
                VerifyWork::Confirms(jobs) => {
                    for job in jobs {
                        let _ = self.aom.complete_confirm(job);
                    }
                }
            }
        }
    }

    /// Record a pool-verified client-MAC verdict (bounded).
    fn cache_request_auth(&mut self, digest: [u8; 32], ok: bool, ctx: &mut dyn Context) {
        if self.preverified_auth.len() >= Self::PREVERIFIED_CAP {
            ctx.metrics().incr("replica.bounded_rejects");
            return;
        }
        // neo-lint: allow(R5, size-capped above; entries are consumed by execute_slot)
        self.preverified_auth.insert(digest, ok);
    }

    fn pump_aom(&mut self, ctx: &mut dyn Context) {
        // Queue confirms the receiver produced (Byzantine-network mode)
        // and flush in batches (§6.2: "By batch processing confirm
        // messages, NeoBFT minimizes the impact of the additional
        // message exchanges").
        let outgoing = self.aom.take_outgoing_confirms();
        if !outgoing.is_empty() && self.behavior != ReplicaBehavior::Mute {
            for sc in &outgoing {
                ctx.emit(Event::Confirm { seq: sc.body.seq.0 });
            }
            if self.cfg.batch_confirms {
                self.pending_confirms.extend(outgoing);
                // The confirm for the sequence number the receiver
                // delivers next is never held: every peer's pipeline
                // waits on it, and with no backlog in front of it there
                // is nothing to batch it with. Confirms for later
                // sequence numbers batch behind the slot in front.
                let head = self.aom.next_seq();
                if self.pending_confirms.len() >= Self::CONFIRM_BATCH
                    || self.pending_confirms.iter().any(|c| c.body.seq == head)
                {
                    self.flush_confirms(ctx);
                } else if self.confirm_flush_timer.is_none() {
                    // Zero-delay deferral: the flush runs once the input
                    // that was ready when this handler started has been
                    // handled (the UDP loop's next turn after draining
                    // the socket; in the simulator, after the events
                    // already queued behind a busy node), so a batch is
                    // whatever accumulated while the node was busy.
                    let t = self.arm(0, TimerPayload::ConfirmFlush, ctx);
                    self.confirm_flush_timer = Some(t);
                }
            } else {
                for sc in outgoing {
                    ctx.broadcast(&self.peers, Envelope::Confirm(sc).to_payload());
                }
            }
        }
        // Drain ordered deliveries.
        let mut any = false;
        while let Some(d) = self.aom.poll() {
            any = true;
            match d {
                Delivery::Message(cert) => {
                    self.record_delivery(cert.packet.header.epoch.0, cert.packet.header.seq.0);
                    self.on_aom_message(cert, ctx);
                }
                Delivery::Drop(seq) => {
                    self.record_delivery(self.aom.epoch().0, seq.0);
                    self.on_drop_notification(seq, ctx);
                }
            }
        }
        if any {
            self.last_aom_delivery = ctx.now();
        }
        // Mirror the receiver's ordering-buffer state into the registry
        // (point-in-time levels: `set`, not `add`, so re-pumping is
        // idempotent).
        {
            let m = ctx.metrics();
            if m.enabled() {
                let s = self.aom.stats();
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

    fn flush_confirms(&mut self, ctx: &mut dyn Context) {
        if let Some(t) = self.confirm_flush_timer.take() {
            self.disarm(t, ctx);
        }
        if self.pending_confirms.is_empty() {
            return;
        }
        let mut batch = std::mem::take(&mut self.pending_confirms);
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

    fn update_gap_timer(&mut self, ctx: &mut dyn Context) {
        match self.aom.gap_pending() {
            Some(missing) => {
                let rearm = match self.aom_gap_timer {
                    Some((seq, _)) => seq != missing,
                    None => true,
                };
                if rearm {
                    if let Some((_, t)) = self.aom_gap_timer.take() {
                        self.disarm(t, ctx);
                    }
                    let t = self.arm(
                        self.cfg.aom_gap_timeout_ns,
                        TimerPayload::AomGap(missing),
                        ctx,
                    );
                    self.aom_gap_timer = Some((missing, t));
                }
            }
            None => {
                if let Some((_, t)) = self.aom_gap_timer.take() {
                    self.disarm(t, ctx);
                }
            }
        }
    }

    fn slot_of_seq(&self, seq: SeqNum) -> SlotNum {
        SlotNum(self.epoch_base.0 + seq.0 - 1)
    }

    fn seq_of_slot(&self, slot: SlotNum) -> SeqNum {
        SeqNum(slot.0 - self.epoch_base.0 + 1)
    }

    // neo-lint: verified(certs arrive from the aom receiver's authenticated delivery queue; verify_vector_entry ran in on_packet)
    fn on_aom_message(&mut self, cert: OrderingCert, ctx: &mut dyn Context) {
        let slot = self.slot_of_seq(cert.packet.header.seq);
        if slot < self.log.len() {
            return; // already have it (e.g. via view-change merge)
        }
        debug_assert_eq!(slot, self.log.len(), "aom delivers densely");
        ctx.emit(Event::RequestReceived { slot: Some(slot.0) });
        // Write-ahead: the slot record is on the WAL buffer before the
        // reply below can leave (the executor fsyncs between them).
        let wal = self.store.is_some().then(|| WalRecord::Slot {
            slot,
            entry: WireLogEntry::Request(cert.clone()),
        });
        self.log.append_request(cert);
        if let Some(rec) = wal {
            self.wal_append(&rec);
        }
        self.executed_ops.push(0);
        self.exec_digests.push(None);
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
        self.executed_ops.push(0);
        self.exec_digests.push(None);
        self.start_gap(slot, ctx);
    }

    /// Execute every resolved request slot at the execution cursor,
    /// replying to clients.
    fn try_execute(&mut self, ctx: &mut dyn Context) {
        while self.exec_cursor < self.log.len() {
            // Checkpoint *before* executing: at cursor S the captured
            // state covers exactly slots < S.
            self.maybe_capture_checkpoint();
            let slot = self.exec_cursor;
            let Some(entry) = self.log.entry(slot) else {
                break; // pending gap: execution blocks here (§5.4)
            };
            match entry.clone() {
                LogEntry::NoOp(_) => {
                    self.exec_cursor = self.exec_cursor.next();
                }
                LogEntry::Request(oc) => {
                    if let Err(e) = self.execute_slot(slot, &oc, ctx) {
                        self.note_error(e, ctx);
                    }
                    self.exec_cursor = self.exec_cursor.next();
                }
            }
        }
        // The cursor may have stopped exactly on a boundary.
        self.maybe_capture_checkpoint();
        let resolved = self.log.resolved_prefix_len();
        if resolved > self.resolved_watermark {
            self.resolved_watermark = resolved;
        }
    }

    fn execute_slot(
        &mut self,
        slot: SlotNum,
        oc: &OrderingCert,
        ctx: &mut dyn Context,
    ) -> Result<(), ProtocolError> {
        let Some(signed) = SignedBatch::from_bytes(&oc.packet.payload) else {
            return Ok(()); // malformed batch: consistent no-op everywhere
        };
        let batch = &signed.batch;
        if batch.is_empty() {
            return Ok(()); // empty batch: consistent no-op everywhere
        }
        // Client authentication: verify my entry of the batch's MAC
        // vector. The MAC covers the whole encoded envelope, so a batch
        // with even one forged op must not be executed (it would still
        // occupy the slot).
        if !self.check_request_auth(&oc.packet.header.digest, &signed) {
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
        if let Some(entry) = self.client_table.get(&client) {
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
            results.push(self.app.execute(op));
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
        if slot.index() < self.executed_ops.len() {
            if self.executed_ops[slot.index()] > 0 {
                // Executing a slot twice without an intervening rollback
                // corrupts application state; count it for the checker.
                self.stats.double_executions += 1;
            }
            self.executed_ops[slot.index()] = batch.len() as u32;
        }
        if slot.index() < self.exec_digests.len() {
            // Order-sensitive fold of the per-op digests: two correct
            // replicas executing the same batch in the same slot agree.
            let mut acc = 0u64;
            for (k, result) in results.iter().enumerate() {
                let id = RequestId(first.0.saturating_add(k as u64));
                acc = acc
                    .rotate_left(1)
                    .wrapping_add(Self::exec_digest(client, id, result));
            }
            self.exec_digests[slot.index()] = Some(acc);
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
        self.client_table.insert(
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
            if let Some(t) = self.unicast_watch.remove(&(client, id)) {
                self.disarm(t, ctx);
            }
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
    fn rollback_to(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        if self.exec_cursor <= slot {
            return;
        }
        self.stats.rollbacks += 1;
        ctx.metrics().incr("replica.rollbacks");
        let mut cur = self.exec_cursor;
        while cur > slot {
            cur = SlotNum(cur.0 - 1);
            let n = self.executed_ops.get(cur.index()).copied().unwrap_or(0);
            if n > 0 {
                // One undo per op: a batch slot unwinds in reverse op
                // order before the cursor moves past it.
                for _ in 0..n {
                    self.app.undo();
                }
                self.executed_ops[cur.index()] = 0;
                if cur.index() < self.exec_digests.len() {
                    self.exec_digests[cur.index()] = None;
                }
            }
        }
        // Invalidate cached replies for rolled-back slots: re-execution
        // will regenerate them against the new log hashes.
        self.client_table.retain(|_, e| e.slot < slot);
        // A checkpoint at S describes state after executing slots < S;
        // rolling back past S invalidates it.
        self.pending_checkpoints.retain(|s, _| *s <= slot);
        self.exec_cursor = slot;
    }

    // ------------------------------------------------------------------
    // Gap agreement (§5.4)
    // ------------------------------------------------------------------

    fn start_gap(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        if self.status != Status::Normal {
            return;
        }
        if !self.gaps.contains_key(&slot) {
            ctx.emit(Event::GapFind { slot: slot.0 });
        }
        let view = self.view;
        let leader = self.leader();
        let is_leader = self.is_leader();
        let gap = self.gaps.entry(slot).or_default();
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
                self.gaps
                    .entry(slot)
                    .or_default()
                    .drops
                    .insert(self.id, (body, dsig));
                self.broadcast(&find, ctx);
            }
        } else {
            ctx.emit(Event::Query { slot: slot.0 });
            let q = NeoMsg::Query { view, slot };
            self.send_to(leader, &q, ctx);
            let t = self.arm(self.cfg.query_retry_ns, TimerPayload::QueryRetry(slot), ctx);
            self.gaps.entry(slot).or_default().query_timer = Some(t);
        }
        let t = self.arm(
            self.cfg.gap_agreement_timeout_ns,
            TimerPayload::GapAgreement(slot),
            ctx,
        );
        self.gaps.entry(slot).or_default().agreement_timer = Some(t);
    }

    /// A slot just materialized; if the leader asked about it earlier,
    /// answer now.
    fn answer_pending_find(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        let Some(gap) = self.gaps.get_mut(&slot) else {
            return;
        };
        if !gap.find_pending || gap.resolved {
            return;
        }
        gap.find_pending = false;
        let view = self.view;
        let leader = self.leader();
        match self.log.entry(slot) {
            Some(LogEntry::Request(oc)) => {
                let msg = NeoMsg::GapRecv {
                    view,
                    slot,
                    oc: oc.clone(),
                };
                self.send_to(leader, &msg, ctx);
            }
            _ => {
                if self.log.is_pending(slot) {
                    self.send_gap_drop(slot, ctx);
                }
            }
        }
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
        self.gaps.entry(slot).or_default().voted_drop = true;
    }

    fn on_query(&mut self, from: Addr, view: ViewId, slot: SlotNum, ctx: &mut dyn Context) {
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

    fn on_query_reply(
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
        self.resolve_gap(slot, false, ctx);
        self.stats.gaps_recovered += 1;
        ctx.metrics().incr("replica.gap_recovered_by_query");
    }

    /// Validate that an ordering certificate authenticates and matches
    /// the slot position (§5.4: "ensures the enclosed aom message is the
    /// missing message by checking the internal sequence number").
    fn verify_oc_for_slot(&self, oc: &OrderingCert, slot: SlotNum) -> bool {
        oc.packet.header.seq == self.seq_of_slot(slot)
            && oc.packet.header.epoch == self.view.epoch
            && self.aom.verify_cert(oc, &self.crypto)
    }

    /// Verify my entry of a batch's client MAC vector. The vector is
    /// computed over the encoded [`crate::messages::BatchRequest`], so
    /// one tag covers every op in the envelope — tampering with any
    /// single op invalidates the whole batch.
    /// Client authentication with the verify stage's help: consume the
    /// pool's pre-verified verdict when the pipeline already checked
    /// this batch's MAC (keyed by aom header digest), falling back to an
    /// inline check — the inline lanes and every recovery path land
    /// here, so the authoritative check is one shared code path.
    fn check_request_auth(&mut self, digest: &[u8; 32], signed: &SignedBatch) -> bool {
        if let Some(ok) = self.preverified_auth.remove(digest) {
            return ok;
        }
        self.verify_request_auth(signed)
    }

    fn verify_request_auth(&self, signed: &SignedBatch) -> bool {
        let Some(tag) = signed.auth.get(self.id.index()) else {
            return false;
        };
        let Ok(bytes) = neo_wire::encode(&signed.batch) else {
            return false; // unencodable batch: drop, never panic
        };
        self.crypto
            .verify_mac_from(Principal::Client(signed.batch.client), &bytes, tag)
            .is_ok()
    }

    fn on_gap_find(&mut self, view: ViewId, slot: SlotNum, sig: Signature, ctx: &mut dyn Context) {
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
        match self.log.entry(slot) {
            Some(LogEntry::Request(oc)) => {
                let msg = NeoMsg::GapRecv {
                    view,
                    slot,
                    oc: oc.clone(),
                };
                self.send_to(leader, &msg, ctx);
            }
            Some(LogEntry::NoOp(_)) => {
                // Already committed as no-op in a previous round; the
                // leader will learn via view change or sync.
            }
            None => {
                if self.log.is_pending(slot) {
                    self.send_gap_drop(slot, ctx);
                } else if self.slot_in_window(slot, ctx) {
                    // The slot is beyond my log: answer when it arrives.
                    // neo-lint: allow(R5, slot_in_window-bounded above)
                    self.gaps.entry(slot).or_default().find_pending = true;
                }
            }
        }
    }

    fn on_gap_recv(
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
        let gap = self.gaps.entry(slot).or_default();
        gap.recv = Some(oc.clone());
        self.send_gap_decision(slot, GapDecisionBody::Recv(oc), ctx);
    }

    fn on_gap_drop(&mut self, body: GapDropBody, sig: Signature, ctx: &mut dyn Context) {
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
        let gap = self.gaps.entry(slot).or_default();
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
        self.gaps.entry(slot).or_default().decision_sent = true;
        // The leader proceeds through the agreement like everyone else.
        // Its decision needs no second validation: the ordering
        // certificate was verified in `on_gap_recv` and every drop in
        // `on_gap_drop` before it was held.
        self.adopt_decision(view, slot, decision, ctx);
    }

    fn on_gap_decision(
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
        let gap = self.gaps.entry(slot).or_default();
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

    fn on_gap_prepare(&mut self, body: GapVoteBody, sig: Signature, ctx: &mut dyn Context) {
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
        let gap = self.gaps.entry(body.slot).or_default();
        gap.prepares.insert(body.replica, (body, sig));
        self.check_gap_progress(body.slot, ctx);
    }

    fn on_gap_commit(&mut self, body: GapVoteBody, sig: Signature, ctx: &mut dyn Context) {
        if body.view != self.view || self.status != Status::Normal {
            return;
        }
        if !self.gap_vote_admissible(body.slot, ctx) {
            return;
        }
        let quorum = self.cfg.quorum();
        if self
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
        let gap = self.gaps.entry(body.slot).or_default();
        gap.commits.insert(body.replica, (body, sig));
        self.check_gap_progress(body.slot, ctx);
    }

    fn check_gap_progress(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        let quorum = self.cfg.quorum();
        let f2 = 2 * self.cfg.f;
        let Some(gap) = self.gaps.get_mut(&slot) else {
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
        let Some(gap) = self.gaps.get_mut(&slot) else {
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
            if self.exec_cursor > slot {
                self.rollback_to(slot, ctx);
            }
            self.fill_slot(slot, LogEntry::NoOp(Some(matching_commits)), ctx);
            self.stats.noops_committed += 1;
        }
        ctx.emit(Event::GapCommit {
            slot: slot.0,
            noop: !recv,
        });
        self.resolve_gap(slot, true, ctx);
    }

    fn fill_slot(&mut self, slot: SlotNum, entry: LogEntry, ctx: &mut dyn Context) {
        // A fill may rewrite an executed suffix: roll back first so
        // re-execution sees consistent hashes.
        if self.exec_cursor > slot {
            self.rollback_to(slot, ctx);
        }
        while self.log.len() <= slot {
            self.log.append_pending();
            self.executed_ops.push(0);
            self.exec_digests.push(None);
        }
        let wal = self.store.is_some().then(|| WalRecord::Slot {
            slot,
            entry: entry.to_wire(),
        });
        if self.log.fill(slot, entry).is_err() {
            self.note_error(ProtocolError::FillRejected(slot), ctx);
            return;
        }
        if let Some(rec) = wal {
            self.wal_append(&rec);
        }
        if self.executed_ops.len() < self.log.len().index() {
            self.executed_ops.resize(self.log.len().index(), 0);
        }
        if self.exec_digests.len() < self.log.len().index() {
            self.exec_digests.resize(self.log.len().index(), None);
        }
    }

    fn resolve_gap(&mut self, slot: SlotNum, _committed: bool, ctx: &mut dyn Context) {
        let to_disarm: Vec<TimerId> = {
            let Some(gap) = self.gaps.get_mut(&slot) else {
                return;
            };
            gap.resolved = true;
            gap.query_timer
                .take()
                .into_iter()
                .chain(gap.agreement_timer.take())
                .collect()
        };
        for t in to_disarm {
            self.disarm(t, ctx);
        }
        self.try_execute(ctx);
        self.maybe_sync(ctx);
    }

    // ------------------------------------------------------------------
    // State synchronization (§B.2)
    // ------------------------------------------------------------------

    fn maybe_sync(&mut self, ctx: &mut dyn Context) {
        if self.cfg.sync_interval == 0 || self.status != Status::Normal {
            return;
        }
        let len = self.log.resolved_prefix_len();
        let interval = self.cfg.sync_interval;
        let latest_multiple = SlotNum(len.0 - len.0 % interval);
        if latest_multiple.0 == 0 || latest_multiple <= self.last_sync_slot {
            return;
        }
        self.last_sync_slot = latest_multiple;
        // Gap certificates for slots committed as no-op in this view
        // (§B.2) — a peer that missed an agreement and the sync round
        // after it still learns the no-op from the next vote. `gaps`
        // keeps a marker per finished round, see `check_sync`.
        let mut drops = Vec::new();
        for slot in self.gaps.range(..latest_multiple).map(|(slot, _)| *slot) {
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
                .pending_checkpoints
                .get(&latest_multiple)
                .map(|(_, d)| *d)
                .unwrap_or(Digest::ZERO),
        };
        let sig = sign_body(&body, &self.crypto);
        self.sync_votes
            .entry(latest_multiple)
            .or_default()
            .insert(self.id, (body.clone(), sig.clone()));
        self.broadcast(&NeoMsg::Sync(body, sig), ctx);
        self.check_sync(latest_multiple, ctx);
    }

    fn on_sync(&mut self, body: SyncBody, sig: Signature, ctx: &mut dyn Context) {
        if body.view != self.view || self.status != Status::Normal {
            return;
        }
        let slot = body.slot;
        if slot <= self.sync_point || !self.slot_in_window(slot, ctx) {
            return; // settled or far-future: nothing to collect
        }
        // The round settles the moment 2f votes from others are held, so
        // the votes behind the quorum stop at the check above; a second
        // vote from one sender stops here.
        if self
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
        self.sync_votes
            .entry(slot)
            .or_default()
            .insert(body.replica, (body, sig));
        self.check_sync(slot, ctx);
    }

    fn check_sync(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        let f2 = 2 * self.cfg.f;
        let Some(votes) = self.sync_votes.get(&slot) else {
            return;
        };
        // 2f sync messages from *other* replicas (§B.2), i.e. 2f+1 total
        // with our own when we sent one.
        let others = votes.keys().filter(|r| **r != self.id).count();
        if others < f2 || slot <= self.sync_point {
            return;
        }
        // Apply certified no-ops from any vote. Every vote of the round
        // carries the same slots, so a slot's certificate is verified
        // once — the first valid one wins — and not at all where it
        // cannot change the log: the slot already holds a certified
        // no-op, or lies past the log tail.
        let mut to_apply: BTreeMap<SlotNum, crate::messages::GapCert> = BTreeMap::new();
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
                    }
                }
            }
        }
        self.sync_point = slot;
        ctx.emit(Event::SyncPoint { slot: slot.0 });
        // Checkpoint certification rides the same quorum: if 2f+1 sync
        // votes carried our pending checkpoint's digest, the votes ARE
        // its certificate. Must happen before the prune below discards
        // this round's signatures.
        self.maybe_certify_checkpoint(slot, ctx);
        // Settled rounds can never reach quorum again: prune them so the
        // vote map stays bounded (neo-lint R5). The gap rounds resolved
        // below the sync point give up their ≈ 2n signed votes each and
        // keep only the `resolved` marker, which is what turns away a
        // replayed decision for the rest of the view; one still open
        // here (this replica lags) stays whole.
        self.sync_votes = self.sync_votes.split_off(&SlotNum(slot.0 + 1));
        for (_, gap) in self.gaps.range_mut(..slot).filter(|(_, g)| g.resolved) {
            *gap = GapState {
                resolved: true,
                ..GapState::default()
            };
        }
        self.stats.sync_points += 1;
        ctx.metrics().incr("replica.sync_points");
        // Finalized: drop undo history for everything at or before the
        // sync point.
        // Count *ops*, not slots: a batch slot holds one undo record per
        // op, and the app must keep exactly that many.
        let still_speculative = self
            .executed_ops
            .iter()
            .skip(slot.index())
            .map(|n| *n as u64)
            .sum::<u64>();
        self.app.compact(still_speculative);
        self.try_execute(ctx);
    }

    /// If the sync round at `slot` gathered 2f+1 votes matching our
    /// pending checkpoint's digest, promote it to the stable checkpoint:
    /// persist it, compact the WAL below it, and start serving it to
    /// recovering peers.
    fn maybe_certify_checkpoint(&mut self, slot: SlotNum, ctx: &mut dyn Context) {
        let Some((_, digest)) = self.pending_checkpoints.get(&slot) else {
            return;
        };
        let digest = *digest;
        let Some(votes) = self.sync_votes.get(&slot) else {
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
        let Some((data, _)) = self.pending_checkpoints.remove(&slot) else {
            return;
        };
        let wire = WireCheckpoint { data, cert };
        if let Some(store) = &mut self.store {
            store.put_checkpoint(&wire.to_bytes());
        }
        self.compact_wal(slot, ctx);
        self.stable_checkpoint = Some(wire);
        self.pending_checkpoints.retain(|s, _| *s > slot);
        self.stats.checkpoints_certified += 1;
        ctx.metrics().incr("replica.checkpoints_certified");
    }

    /// Validate a gap certificate: 2f+1 distinct valid drop commits.
    fn verify_gap_cert(&self, slot: SlotNum, cert: &crate::messages::GapCert) -> bool {
        self.has_signed_quorum(
            cert.iter()
                .filter(|(b, _)| b.slot == slot && !b.recv)
                .map(|(b, sig)| (b.replica, b, sig)),
        )
    }

    // ------------------------------------------------------------------
    // View changes (§5.5, §B.1)
    // ------------------------------------------------------------------

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
        let body = ViewChangeBody {
            new_view,
            replica: self.id,
            epoch_certs: self.epoch_certs.clone(),
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
        if let Some(t) = self.vc.resend_timer.take() {
            self.disarm(t, ctx);
        }
        let t = self.arm(
            self.cfg.view_change_resend_ns,
            TimerPayload::ViewChangeResend,
            ctx,
        );
        self.vc.resend_timer = Some(t);
        self.maybe_start_view(new_view, ctx);
    }

    fn on_view_change(&mut self, body: ViewChangeBody, sig: Signature, ctx: &mut dyn Context) {
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
                    if !self.aom.verify_cert_in_epoch(oc, epoch, &self.crypto) {
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

    fn on_view_start(
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
            if self.recovery.is_none() {
                self.recovery = Some(RecoveryState {
                    phase: RecoveryPhase::Recovering,
                    base: self.log.base(),
                    started_at: None,
                    retry_timer: None,
                });
            } else if let Some(rec) = &mut self.recovery {
                if rec.phase == RecoveryPhase::Active {
                    rec.phase = RecoveryPhase::Recovering;
                }
            }
            self.maybe_kick_recovery(ctx);
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
                self.executed_ops.truncate(cut.index());
                self.exec_digests.truncate(cut.index());
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

    fn on_epoch_start(&mut self, body: EpochStartBody, sig: Signature, ctx: &mut dyn Context) {
        if !verify_body(&body, &sig, Principal::Replica(body.replica), &self.crypto) {
            return;
        }
        // R5 bounds: reject epochs far past the installed one, and cap
        // the distinct (epoch, slot) positions buffered (pruning
        // positions below the installed epoch first).
        if body.epoch.0 > self.aom.epoch().0 + Self::FUTURE_EPOCH_WINDOW {
            ctx.metrics().incr("replica.bounded_rejects");
            return;
        }
        let key = (body.epoch, body.start_slot);
        if !self.vc.epoch_votes.contains_key(&key)
            && self.vc.epoch_votes.len() >= Self::VC_BUFFER_MAX
        {
            let cur = self.aom.epoch();
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
        self.epoch_certs.push((epoch, slot, cert));
        self.log.record_epoch_start(epoch, slot);
        self.epoch_base = slot;
        self.aom.install_epoch(epoch);
        ctx.emit(Event::EpochChange { epoch: epoch.0 });
        // Replay packets that raced ahead of the epoch switch, through
        // the verify stage like any fresh arrival.
        let buffered = self.future_epoch.remove(&epoch).unwrap_or_default();
        self.future_epoch.retain(|e, _| *e > epoch);
        for pkt in buffered {
            self.dispatch_packet_verify(pkt, ctx);
        }
        self.vc.awaiting_epoch = None;
        // Votes at or below the installed epoch are settled: prune them
        // so the buffer stays bounded (neo-lint R5).
        self.vc.epoch_votes.retain(|(e, _), _| *e > epoch);
        self.enter_view(ctx);
    }

    fn enter_view(&mut self, ctx: &mut dyn Context) {
        self.status = Status::Normal;
        if let Some(t) = self.vc.resend_timer.take() {
            self.disarm(t, ctx);
        }
        // Abandon stale per-slot agreement state from the old view.
        self.gaps.clear();
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

    // ------------------------------------------------------------------
    // Client unicast fallback (§5.3 / §5.5)
    // ------------------------------------------------------------------

    fn on_request_unicast(&mut self, signed: SignedBatch, ctx: &mut dyn Context) {
        if !self.verify_request_auth(&signed) {
            return;
        }
        let batch = &signed.batch;
        if batch.is_empty() {
            return;
        }
        let client = batch.client;
        let last = batch.last_request_id();
        if let Some(entry) = self.client_table.get(&client) {
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
        let key = (client, last);
        if !self.unicast_watch.contains_key(&key) {
            // R5 bound: an overflow denies the fallback path (clients
            // retry through aom), never memory.
            if self.unicast_watch.len() >= Self::UNICAST_WATCH_MAX {
                ctx.metrics().incr("replica.bounded_rejects");
                return;
            }
            let t = self.arm(
                self.cfg.unicast_watchdog_ns,
                TimerPayload::UnicastWatchdog(key.0, key.1),
                ctx,
            );
            // neo-lint: allow(R5, size-capped above)
            self.unicast_watch.insert(key, t);
        }
    }

    // neo-lint: verified(timer payloads are armed locally by this replica, never attacker input)
    fn on_timer_payload(&mut self, payload: TimerPayload, ctx: &mut dyn Context) {
        match payload {
            TimerPayload::AomGap(seq) => {
                self.aom_gap_timer = None;
                if self.aom.gap_pending() == Some(seq) && self.status == Status::Normal {
                    self.aom.declare_drop();
                    self.pump_aom(ctx);
                }
            }
            TimerPayload::QueryRetry(slot) => {
                if self.status != Status::Normal {
                    return;
                }
                let unresolved = self
                    .gaps
                    .get(&slot)
                    .map(|g| !g.resolved && !g.voted_drop)
                    .unwrap_or(false);
                if unresolved && self.log.is_pending(slot) {
                    ctx.emit(Event::Query { slot: slot.0 });
                    let q = NeoMsg::Query {
                        view: self.view,
                        slot,
                    };
                    let leader = self.leader();
                    self.send_to(leader, &q, ctx);
                    let t = self.arm(self.cfg.query_retry_ns, TimerPayload::QueryRetry(slot), ctx);
                    if let Some(g) = self.gaps.get_mut(&slot) {
                        g.query_timer = Some(t);
                    }
                }
            }
            TimerPayload::GapAgreement(slot) => {
                let unresolved = self.gaps.get(&slot).map(|g| !g.resolved).unwrap_or(false);
                if unresolved && self.status == Status::Normal {
                    // The leader failed to drive the agreement: view
                    // change (§5.5).
                    let next = self.view.next_leader();
                    self.start_view_change(next, ctx);
                }
            }
            TimerPayload::ViewChangeResend => {
                if self.status == Status::ViewChange {
                    if let Some((body, sig)) = self.vc.own.clone() {
                        self.broadcast(&NeoMsg::ViewChange(body, sig), ctx);
                    }
                    let t = self.arm(
                        self.cfg.view_change_resend_ns,
                        TimerPayload::ViewChangeResend,
                        ctx,
                    );
                    self.vc.resend_timer = Some(t);
                }
            }
            TimerPayload::ConfirmFlush => {
                self.confirm_flush_timer = None;
                self.flush_confirms(ctx);
            }
            TimerPayload::StateTransferRetry => {
                if !matches!(
                    self.recovery.as_ref().map(|r| r.phase),
                    Some(RecoveryPhase::FetchingCheckpoint)
                ) {
                    return;
                }
                let body = StateQueryBody {
                    replica: self.id,
                    have: self.log.len(),
                };
                let sig = sign_body(&body, &self.crypto);
                self.broadcast(&NeoMsg::StateQuery(body, sig), ctx);
                let t = self.arm(self.cfg.query_retry_ns, TimerPayload::StateTransferRetry, ctx);
                if let Some(rec) = &mut self.recovery {
                    rec.retry_timer = Some(t);
                }
            }
            TimerPayload::UnicastWatchdog(client, request_id) => {
                self.unicast_watch.remove(&(client, request_id));
                let executed = self
                    .client_table
                    .get(&client)
                    .map(|e| e.last_request >= request_id)
                    .unwrap_or(false);
                if !executed {
                    // Only implicate the sequencer on *sustained* aom
                    // silence: a single lost packet with deliveries still
                    // flowing is the client's retransmission to fix, not
                    // grounds for an epoch change (§4.2).
                    let silent = ctx.now().saturating_sub(self.last_aom_delivery)
                        >= self.cfg.unicast_watchdog_ns;
                    if silent {
                        let msg = Envelope::Config(ConfigMsg::FailoverRequest {
                            group: self.cfg.group,
                            epoch: self.aom.epoch(),
                            requester: self.id,
                        });
                        ctx.send(Addr::Config, msg.to_payload());
                    }
                    // Re-arm: keep escalating until the request commits
                    // or the epoch changes.
                    let t = self.arm(
                        self.cfg.unicast_watchdog_ns,
                        TimerPayload::UnicastWatchdog(client, request_id),
                        ctx,
                    );
                    // neo-lint: allow(R5, re-arms the key removed at handler entry; no net growth)
                    self.unicast_watch.insert((client, request_id), t);
                }
            }
        }
    }

    fn on_neo_msg(&mut self, from: Addr, msg: NeoMsg, ctx: &mut dyn Context) {
        match msg {
            NeoMsg::Reply(..) => {} // replicas ignore stray replies
            NeoMsg::RequestUnicast(signed) => self.on_request_unicast(signed, ctx),
            NeoMsg::Query { view, slot } => self.on_query(from, view, slot, ctx),
            NeoMsg::QueryReply { view, slot, oc } => self.on_query_reply(view, slot, oc, ctx),
            NeoMsg::GapFind { view, slot, sig } => self.on_gap_find(view, slot, sig, ctx),
            NeoMsg::GapRecv { view, slot, oc } => self.on_gap_recv(view, slot, oc, ctx),
            NeoMsg::GapDrop(body, sig) => self.on_gap_drop(body, sig, ctx),
            NeoMsg::GapDecision {
                view,
                slot,
                decision,
                sig,
            } => self.on_gap_decision(view, slot, decision, sig, ctx),
            NeoMsg::GapPrepare(body, sig) => self.on_gap_prepare(body, sig, ctx),
            NeoMsg::GapCommit(body, sig) => self.on_gap_commit(body, sig, ctx),
            NeoMsg::ViewChange(body, sig) => self.on_view_change(body, sig, ctx),
            NeoMsg::ViewStart {
                new_view,
                view_changes,
                sig,
            } => self.on_view_start(new_view, view_changes, sig, ctx),
            NeoMsg::EpochStart(body, sig) => self.on_epoch_start(body, sig, ctx),
            NeoMsg::Sync(body, sig) => self.on_sync(body, sig, ctx),
            NeoMsg::StateQuery(body, sig) => self.on_state_query(body, sig, ctx),
            NeoMsg::StateReply {
                checkpoint,
                suffix_start,
                suffix,
            } => self.on_state_reply(checkpoint, suffix_start, suffix, ctx),
        }
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

impl Node for Replica {
    fn on_message(&mut self, from: Addr, payload: &[u8], ctx: &mut dyn Context) {
        self.maybe_kick_recovery(ctx);
        self.stats.messages_in += 1;
        ctx.metrics().incr("replica.messages_in");
        let Ok(env) = Envelope::from_bytes(payload) else {
            return;
        };
        match env {
            Envelope::Aom(pkt) => {
                // aom-hm subgroup emulation (§4.3): account for the
                // ⌈n/4⌉−1 additional partial-vector packets per message
                // that a large group's receivers process.
                if self.cfg.emulate_hm_subgroups {
                    let subgroups = self.cfg.n.div_ceil(4) as u64;
                    if subgroups > 1 {
                        ctx.charge((subgroups - 1) * self.cfg.subgroup_packet_cost_ns);
                    }
                }
                if pkt.header.epoch > self.aom.epoch() {
                    // Stamped by a newer sequencer than we have installed:
                    // park it until the epoch-switching view change lands.
                    // R5 bounds: a small window of future epochs, 64k
                    // packets each.
                    if pkt.header.epoch.0 > self.aom.epoch().0 + Self::FUTURE_EPOCH_WINDOW {
                        ctx.metrics().incr("replica.bounded_rejects");
                    } else {
                        // neo-lint: allow(R5, epoch-windowed and size-capped above) neo-lint: allow(R6, pre-verification parking is deliberate — bounded window + 64k cap, MAC-verified on drain once the epoch installs)
                        let buf = self.future_epoch.entry(pkt.header.epoch).or_default();
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
                if self.status == Status::Normal {
                    self.pump_aom(ctx);
                }
            }
            Envelope::Confirm(sc) => {
                self.dispatch_confirm_verify(vec![sc], ctx);
                if self.status == Status::Normal {
                    self.pump_aom(ctx);
                }
            }
            Envelope::ConfirmBatch(batch) => {
                self.dispatch_confirm_verify(batch, ctx);
                if self.status == Status::Normal {
                    self.pump_aom(ctx);
                }
            }
            Envelope::Config(ConfigMsg::NewEpoch { group, epoch }) => {
                if group == self.cfg.group && epoch > self.aom.epoch() {
                    let new_view = ViewId::new(epoch, self.view.leader_num + 1);
                    self.start_view_change(new_view, ctx);
                }
            }
            Envelope::Config(_) => {}
            Envelope::App(bytes) => {
                if let Some(msg) = NeoMsg::from_app_bytes(&bytes) {
                    self.on_neo_msg(from, msg, ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, timer: TimerId, _kind: u32, ctx: &mut dyn Context) {
        self.maybe_kick_recovery(ctx);
        if let Some(payload) = self.timers.remove(&timer) {
            self.on_timer_payload(payload, ctx);
        }
    }

    fn meter(&self) -> Option<&neo_crypto::Meter> {
        Some(self.crypto.meter())
    }

    fn store(&mut self) -> Option<&mut dyn neo_sim::Store> {
        match self.store {
            Some(ref mut s) => Some(s.as_mut()),
            None => None,
        }
    }

    /// Collect pooled verification completions (tokio runtime only; the
    /// simulator's lanes complete inline). Tasks re-enter the protocol
    /// in dispatch order via the reorder buffer, then deliveries pump as
    /// if the packets had verified inline.
    // neo-lint: verified(absorbed tasks carry verdicts computed by PoolVerifyTask::run on the worker threads)
    fn on_async(&mut self, ctx: &mut dyn Context) -> u64 {
        self.maybe_kick_recovery(ctx);
        let Some(pool) = self.lane.pool().cloned() else {
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
        if self.status == Status::Normal {
            self.pump_aom(ctx);
        }
        n
    }

    fn verify_pool(&self) -> Option<Arc<VerifyPool>> {
        self.lane.pool().cloned()
    }

    fn health(&self) -> Option<neo_sim::NodeHealth> {
        let phase = self.recovery_phase().map(|p| match p {
            RecoveryPhase::Recovering => "recovering",
            RecoveryPhase::FetchingCheckpoint => "fetching_checkpoint",
            RecoveryPhase::Replaying => "replaying",
            RecoveryPhase::Active => "active",
        });
        Some(neo_sim::NodeHealth {
            role: "replica".into(),
            epoch: self.aom.epoch().0,
            view: self.view().leader_num,
            recovery_phase: phase.map(str::to_string),
            recovery_base: self.recovery_base().map(|s| s.0),
            last_exec: self.exec_cursor().0,
            log_len: self.log_len().0,
            sync_point: self.sync_point().0,
            stable_checkpoint: self.stable_checkpoint_slot().map(|s| s.0),
        })
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
    use neo_aom::{AomPacket, OrderingCert};
    use neo_wire::{AomHeader, GroupId, SeqNum};

    fn oc(seq: u64, payload: u8) -> OrderingCert {
        let mut header = AomHeader::unstamped(GroupId(0), neo_crypto::sha256(&[payload]).0);
        header.seq = SeqNum(seq);
        header.auth = neo_wire::Authenticator::HmacVector(vec![[0u8; 8]; 4]);
        OrderingCert {
            packet: AomPacket {
                header,
                payload: vec![payload],
            },
            confirms: vec![],
        }
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

    /// Inert context for driving handlers directly.
    struct NullCtx;

    impl Context for NullCtx {
        fn now(&self) -> u64 {
            0
        }
        fn me(&self) -> Addr {
            Addr::Replica(ReplicaId(1))
        }
        fn send_after(&mut self, _: Addr, _: neo_wire::Payload, _: u64) {}
        fn set_timer(&mut self, _: u64, _: u32) -> TimerId {
            TimerId(0)
        }
        fn cancel_timer(&mut self, _: TimerId) {}
        fn charge(&mut self, _: u64) {}
    }

    #[test]
    fn a_final_slot_is_never_touched_by_a_gap_round() {
        // Replica 1 of 4 has executed a no-op at slot 0 and a request at
        // slot 1, both below its sync point, and holds no round (not even
        // a marker) for either — the state a replayed or equivocating
        // decision finds on a replica that never missed the message.
        let keys = SystemKeys::new(3, 4, 0);
        let signer = |r| NodeCrypto::new(Principal::Replica(ReplicaId(r)), &keys, CostModel::FREE);
        let app = Box::new(neo_app::EchoApp::new());
        let mut r = Replica::new(ReplicaId(1), NeoConfig::new(1), &keys, CostModel::FREE, app);
        let mut log = Log::new();
        log.fill(SlotNum(0), LogEntry::NoOp(None)).unwrap();
        log.fill(SlotNum(1), LogEntry::Request(oc(2, 7))).unwrap();
        r.set_log_for_tests(log);
        (r.sync_point, r.exec_cursor) = (SlotNum(2), SlotNum(2));

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
        r.on_gap_decision(view, SlotNum(1), decision, sig, &mut NullCtx);
        assert!(
            r.gaps.is_empty(),
            "no round for a decision the log rules out"
        );

        // One that restates the log is served (a leader that lags behind
        // the sync point needs the votes) and leaves the log alone: a
        // rollback here would reach below the sync point, where the app
        // has no undo history left.
        let (decision, sig) = drop_decision(SlotNum(0));
        r.on_gap_decision(view, SlotNum(0), decision, sig, &mut NullCtx);
        for from in [0, 2, 3] {
            let (replica, slot) = (ReplicaId(from), SlotNum(0));
            let body = GapVoteBody {
                view,
                replica,
                slot,
                recv: false,
            };
            let sig = sign_body(&body, &signer(from));
            r.on_gap_prepare(body, sig.clone(), &mut NullCtx);
            r.on_gap_commit(body, sig, &mut NullCtx);
        }
        assert!(r.gaps.get(&SlotNum(0)).is_some_and(|g| g.resolved));
        assert_eq!((r.stats.noops_committed, r.stats.rollbacks), (0, 0));
        assert!(matches!(
            r.log.entry(SlotNum(0)),
            Some(LogEntry::NoOp(None))
        ));
        assert_eq!(r.exec_cursor, SlotNum(2));
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
