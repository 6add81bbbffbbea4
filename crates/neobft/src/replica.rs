//! The NeoBFT replica (§5).
//!
//! The paper's four sub-protocols share only the log and the view, and
//! so do the files here: each child module declares the state of one
//! concern, private to it, next to the `impl Replica` block that handles
//! that concern's messages and timers; what another concern needs of it
//! is a named `pub(super)` method. This file keeps the shared core, the
//! constructors and accessors, and the routing. DESIGN.md "The replica:
//! state and owners" has the table.
//!
//! * [`ordering`] — aom receiver, verify stage, confirms (§5.3, §6.2);
//! * [`exec`] — application, execution cursor, client table (§5.3);
//! * [`gap`] — gap agreement (§5.4);
//! * [`sync`] — sync points and checkpoints (§B.2);
//! * [`view`] — view and epoch changes (§5.5, §B.1);
//! * [`state_transfer`] — crash recovery and checkpoint adoption;
//! * [`timers`] — the one timer table.
//!
//! All network effects flow through the sans-IO [`Context`], so the same
//! replica runs under the simulator and the tokio transport.

mod exec;
mod gap;
mod ordering;
mod state_transfer;
mod sync;
mod timers;
mod view;

pub use state_transfer::RecoveryPhase;

use crate::config::NeoConfig;
use crate::error::ProtocolError;
use crate::log::Log;
use crate::messages::{verify_body, NeoMsg};
use crate::recovery::WalRecord;
use neo_aom::{AomReceiver, ConfigMsg, Envelope};
use neo_app::App;
use neo_crypto::{CostModel, NodeCrypto, Principal, Signature, SystemKeys, VerifyPool};
use neo_sim::{Context, Node, TimerId};
use neo_wire::{Addr, EpochNum, ReplicaId, SeqNum, SlotNum, ViewId};
use std::any::Any;
use std::sync::Arc;
use timers::{TimerPayload, Timers};

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
    /// Log slots let go of below a certified checkpoint.
    pub slots_trimmed: u64,
    /// Stable checkpoints sent to a peer that named a trimmed slot.
    pub checkpoints_offered: u64,
    /// Checkpoints adopted in place by this replica while it was live
    /// and stuck below them (not during crash recovery).
    pub checkpoints_adopted_live: u64,
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
    /// The log, with what executing each slot left (exec records).
    log: Log,
    view: ViewId,
    status: Status,
    /// First log slot of the current epoch.
    epoch_base: SlotNum,
    /// Durable WAL + checkpoint device (None = no durability, as in the
    /// pure-protocol unit tests). Appends buffer here; the executor
    /// flushes after each handler, write-ahead of the outgoing sends.
    store: Option<Box<dyn neo_sim::Store>>,
    /// Every live timer, by meaning.
    timers: Timers,
    ordering: ordering::Ordering,
    exec: exec::Exec,
    gap: gap::GapAgreement,
    sync: sync::StateSync,
    vc: view::ViewChangeState,
    recovery: Option<state_transfer::RecoveryState>,
    offers: state_transfer::Offers,
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
        let peers = (0..cfg.n as u32)
            .map(ReplicaId)
            .filter(|r| *r != id)
            .collect();
        let ordering = ordering::Ordering::new(aom, cfg.verify_workers);
        Replica {
            cfg,
            id,
            peers,
            crypto,
            log: Log::new(),
            view: ViewId::INITIAL,
            status: Status::Normal,
            epoch_base: SlotNum(0),
            store: None,
            timers: Timers::default(),
            ordering,
            exec: exec::Exec::new(app),
            gap: gap::GapAgreement::default(),
            sync: sync::StateSync::default(),
            vc: view::ViewChangeState::default(),
            recovery: None,
            offers: state_transfer::Offers::default(),
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
        r.restore_from_store(store.as_ref());
        r.store = Some(store);
        r
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

    /// Per-slot execution digests (`None` = no-op / pending / undone).
    pub fn exec_digests(&self) -> &[Option<u64>] {
        self.log.exec_digests()
    }

    /// Test-only: replace the log wholesale (recovery invariant tests
    /// build based logs directly), aligning the sync point, the
    /// execution cursor and the resolved watermark with the base the way
    /// checkpoint installation does.
    #[cfg(test)]
    pub(crate) fn set_log_for_tests(&mut self, log: Log) {
        self.sync.raise_to(log.base());
        self.exec.skip_to(log.base());
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

    /// How far past the log tail remote messages may create per-slot
    /// agreement/sync state (neo-lint R5: Byzantine peers naming
    /// far-future slots must not grow maps at will) — and, the same
    /// distance the other way, how far below its stable checkpoint a
    /// replica keeps its log (`trim_log`): what the gap machinery may
    /// still be asked about, and nothing else.
    const SLOT_WINDOW: u64 = 4096;
    /// How many epochs past the installed one packets and votes are
    /// buffered.
    const FUTURE_EPOCH_WINDOW: u64 = 4;

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
        slot < self.sync_point() && slot < self.log.len() && !self.log.is_pending(slot)
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

    /// Buffer one record on the durable WAL (no-op without a store). The
    /// executor flushes the buffer after this handler completes, before
    /// any of the handler's sends depart — write-ahead of the ack.
    fn wal_append(&mut self, record: &WalRecord) {
        if let Some(store) = &mut self.store {
            store.append(&record.to_bytes());
        }
    }

    /// Buffer the record of the entry `slot` now holds, encoded from the
    /// log's own copy.
    fn wal_append_slot(&mut self, slot: SlotNum) {
        if let (Some(store), Some(entry)) = (&mut self.store, self.log.entry(slot)) {
            store.append(&WalRecord::slot_bytes(slot, entry));
        }
    }

    // neo-lint: verified(timer payloads are armed locally by this replica, never attacker input)
    fn on_timer_payload(&mut self, payload: TimerPayload, ctx: &mut dyn Context) {
        match payload {
            TimerPayload::AomGap(seq) => self.on_aom_gap_timeout(seq, ctx),
            TimerPayload::QueryRetry(slot) => self.on_query_retry(slot, ctx),
            TimerPayload::GapAgreement(slot) => self.on_gap_agreement_timeout(slot, ctx),
            TimerPayload::ViewChangeResend => self.on_view_change_resend(ctx),
            TimerPayload::ConfirmFlush => self.flush_confirms(ctx),
            TimerPayload::StateTransferRetry => self.on_state_transfer_retry(ctx),
            TimerPayload::UnicastWatchdog(client, request_id) => {
                self.on_unicast_watchdog(client, request_id, ctx)
            }
        }
    }

    fn on_neo_msg(&mut self, from: Addr, msg: NeoMsg, ctx: &mut dyn Context) {
        if self.answer_trimmed_slot(from, &msg, ctx) {
            return;
        }
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
            } => self.on_state_reply(from, checkpoint, suffix_start, suffix, ctx),
        }
    }
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
            Envelope::Aom(pkt) => self.on_aom_packet(pkt, ctx),
            Envelope::Confirm(sc) => self.on_confirms(vec![sc], ctx),
            Envelope::ConfirmBatch(batch) => self.on_confirms(batch, ctx),
            Envelope::Config(ConfigMsg::NewEpoch { group, epoch }) => {
                if group == self.cfg.group && epoch > self.ordering.epoch() {
                    let new_view = ViewId::new(epoch, self.view.leader_num + 1);
                    // neo-lint: allow(R6, NewEpoch is the configuration service's announcement and that service is trusted (§4.2); the view change it starts records and sends only this replica's own signed log)
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
        if let Some(payload) = self.timers.fired(timer) {
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

    fn on_async(&mut self, ctx: &mut dyn Context) -> u64 {
        self.maybe_kick_recovery(ctx);
        self.on_verify_completions(ctx)
    }

    fn verify_pool(&self) -> Option<Arc<VerifyPool>> {
        self.ordering.pool().cloned()
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
            epoch: self.ordering.epoch().0,
            view: self.view().leader_num,
            recovery_phase: phase.map(str::to_string),
            recovery_base: self.recovery_base().map(|s| s.0),
            last_exec: self.exec_cursor().0,
            log_len: self.log_len().0,
            log_base: self.log.base().0,
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

/// What the child modules' tests share: a replica to drive by hand
/// through a [`neo_sim::RecordingContext`], its peers' signing keys, and
/// a certificate-shaped log entry.
#[cfg(test)]
mod testing {
    use super::*;
    use neo_aom::{AomPacket, OrderingCert};
    use neo_wire::{AomHeader, GroupId};

    pub(super) fn keys() -> SystemKeys {
        SystemKeys::new(3, 4, 0)
    }

    /// Replica `id` of four (f = 1), on the echo app.
    pub(super) fn replica(id: u32, cfg: NeoConfig) -> Replica {
        let app = Box::new(neo_app::EchoApp::new());
        Replica::new(ReplicaId(id), cfg, &keys(), CostModel::FREE, app)
    }

    pub(super) fn signer(r: u32) -> NodeCrypto {
        NodeCrypto::new(Principal::Replica(ReplicaId(r)), &keys(), CostModel::FREE)
    }

    pub(super) fn ctx(id: u32) -> neo_sim::RecordingContext {
        neo_sim::RecordingContext::new(Addr::Replica(ReplicaId(id)))
    }

    /// The ids of every timer armed so far.
    pub(super) fn timer_ids(ctx: &neo_sim::RecordingContext) -> Vec<TimerId> {
        ctx.timers_set.iter().map(|(id, ..)| *id).collect()
    }

    pub(super) fn oc(seq: u64, payload: u8) -> OrderingCert {
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
}
