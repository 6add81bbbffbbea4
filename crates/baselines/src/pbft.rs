//! PBFT (Castro & Liskov, OSDI '99) — normal-case protocol with MAC
//! authenticators and request batching.
//!
//! Five message delays: request → pre-prepare → prepare → commit →
//! reply. Every replica broadcast carries one MAC per destination, so
//! each replica processes O(N) messages per batch and the system spends
//! O(N²) authenticator operations per batch (Table 1).

use crate::common::{BaseRequest, BaselineConfig, BatchQueue, ClientCore};
use neo_aom::Envelope;
use neo_app::{App, Workload};
use neo_crypto::{sha256, CostModel, Digest, NodeCrypto, Principal, Signature, SystemKeys};
use neo_sim::obs::Event;
use neo_sim::{Context, Node, TimerId};
use neo_wire::{decode, encode, Addr, ClientId, HmacTag, ReplicaId, RequestId};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};

/// PBFT wire messages.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
enum Msg {
    /// Client → primary (signed by the client).
    Request(BaseRequest, Signature),
    /// Primary → backup. MAC is per-destination.
    PrePrepare {
        view: u64,
        seq: u64,
        batch: Vec<(BaseRequest, Signature)>,
        mac: HmacTag,
    },
    /// Backup → all.
    Prepare {
        view: u64,
        seq: u64,
        digest: Digest,
        replica: ReplicaId,
        mac: HmacTag,
    },
    /// All → all.
    Commit {
        view: u64,
        seq: u64,
        digest: Digest,
        replica: ReplicaId,
        mac: HmacTag,
    },
    /// Replica → client.
    Reply {
        replica: ReplicaId,
        request_id: RequestId,
        result: Vec<u8>,
        mac: HmacTag,
    },
}

fn wrap(msg: &Msg) -> neo_wire::Payload {
    Envelope::App(encode(msg).unwrap_or_default()).to_payload()
}

fn unwrap(bytes: &[u8]) -> Option<Msg> {
    match Envelope::from_bytes(bytes).ok()? {
        Envelope::App(inner) => decode(&inner).ok(),
        _ => None,
    }
}

/// MAC input for a phase message.
fn phase_mac_input(tag: u8, view: u64, seq: u64, digest: &Digest) -> Vec<u8> {
    let mut v = vec![tag];
    v.extend_from_slice(&view.to_le_bytes());
    v.extend_from_slice(&seq.to_le_bytes());
    v.extend_from_slice(digest.as_bytes());
    v
}

#[derive(Default)]
struct Instance {
    batch: Option<Vec<(BaseRequest, Signature)>>,
    digest: Option<Digest>,
    // BTreeMap: quorum counting iterates these, and iteration order must
    // be deterministic across replicas (R1, `clippy.toml`).
    prepares: BTreeMap<ReplicaId, Digest>,
    commits: BTreeMap<ReplicaId, Digest>,
    prepare_sent: bool,
    commit_sent: bool,
    executed: bool,
}

/// A PBFT replica.
pub struct PbftReplica {
    cfg: BaselineConfig,
    id: ReplicaId,
    crypto: NodeCrypto,
    app: Box<dyn App>,
    view: u64,
    next_seq: u64,
    exec_next: u64,
    queue: BatchQueue,
    instances: BTreeMap<u64, Instance>,
    table: HashMap<ClientId, (RequestId, Msg)>,
    /// Verified client signatures awaiting batching (primary only).
    sig_cache: HashMap<(ClientId, RequestId), Signature>,
    /// Operations executed.
    pub executed: u64,
    /// Messages processed (Table 1 instrumentation).
    pub messages_in: u64,
}

/// How far past the execution frontier a sequence number may land and
/// still open a protocol instance (neo-lint R5 bound).
const SEQ_WINDOW: u64 = 4096;
/// Cap on verified-but-unbatched client signatures buffered at the
/// primary (neo-lint R5 bound).
const SIG_CACHE_MAX: usize = 4096;

impl PbftReplica {
    /// Build replica `id`.
    pub fn new(
        id: ReplicaId,
        cfg: BaselineConfig,
        keys: &SystemKeys,
        costs: CostModel,
        app: Box<dyn App>,
    ) -> Self {
        PbftReplica {
            cfg,
            id,
            crypto: NodeCrypto::new(Principal::Replica(id), keys, costs),
            app,
            view: 0,
            next_seq: 1,
            exec_next: 1,
            queue: BatchQueue::default(),
            instances: BTreeMap::new(),
            table: HashMap::new(),
            sig_cache: HashMap::new(),
            executed: 0,
            messages_in: 0,
        }
    }

    fn is_primary(&self) -> bool {
        self.id == self.cfg.primary()
    }

    fn others(&self) -> impl Iterator<Item = ReplicaId> + '_ {
        (0..self.cfg.n as u32)
            .map(ReplicaId)
            .filter(move |r| *r != self.id)
    }

    /// Broadcast with per-destination MACs (the O(N) authenticator).
    fn broadcast_mac(
        &self,
        ctx: &mut dyn Context,
        mac_input: &[u8],
        build: impl Fn(HmacTag) -> Msg,
    ) {
        for r in self.others() {
            let mac = self.crypto.mac_for(Principal::Replica(r), mac_input);
            ctx.send(Addr::Replica(r), wrap(&build(mac)));
        }
    }

    fn try_open_batches(&mut self, ctx: &mut dyn Context) {
        while let Some(batch) = self
            .queue
            .next_batch(self.cfg.batch_max, self.cfg.pipeline_depth)
        {
            let seq = self.next_seq;
            self.next_seq += 1;
            let signed: Vec<(BaseRequest, Signature)> = batch
                .into_iter()
                .map(|r| {
                    // The primary re-wraps requests with the client
                    // signature it verified on arrival; signatures travel
                    // in the pre-prepare so backups can check them.
                    let sig = self.sig_cache.remove(&(r.client, r.request_id));
                    (r, sig.unwrap_or_else(Signature::empty))
                })
                .collect();
            let digest = batch_digest(&signed);
            ctx.metrics()
                .observe("replica.batch_size", signed.len() as u64);
            let inst = self.instances.entry(seq).or_default();
            inst.batch = Some(signed.clone());
            inst.digest = Some(digest);
            let input = phase_mac_input(1, self.view, seq, &digest);
            let view = self.view;
            self.broadcast_mac(ctx, &input, |mac| Msg::PrePrepare {
                view,
                seq,
                batch: signed.clone(),
                mac,
            });
            // The primary's own prepare is implicit in the pre-prepare.
            let inst = self.instances.entry(seq).or_default();
            inst.prepares.insert(self.id, digest);
            inst.prepare_sent = true;
        }
    }

    fn on_request(&mut self, req: BaseRequest, sig: Signature, ctx: &mut dyn Context) {
        if !self.is_primary() {
            return; // stable-primary normal case
        }
        // Deduplicate.
        if let Some((last, cached)) = self.table.get(&req.client) {
            if req.request_id < *last {
                return;
            }
            if req.request_id == *last {
                ctx.send(Addr::Client(req.client), wrap(&cached.clone()));
                return;
            }
        }
        let Ok(req_bytes) = encode(&req) else {
            return;
        };
        if self
            .crypto
            .verify(Principal::Client(req.client), &req_bytes, &sig)
            .is_err()
        {
            return;
        }
        // Avoid double-queuing retransmissions of an in-flight request.
        if self.sig_cache.contains_key(&(req.client, req.request_id)) {
            return;
        }
        if self.sig_cache.len() >= SIG_CACHE_MAX {
            ctx.metrics().incr("replica.bounded_rejects");
            return;
        }
        // PBFT assigns the order later (at pre-prepare), so no slot yet
        // (and there is no aom stamp: `seq` 0).
        ctx.emit(Event::RequestReceived {
            slot: None,
            epoch: 0,
            seq: 0,
        });
        // neo-lint: allow(R5, size-capped at SIG_CACHE_MAX above)
        self.sig_cache.insert((req.client, req.request_id), sig);
        self.queue.push(req);
        self.try_open_batches(ctx);
    }

    fn on_pre_prepare(
        &mut self,
        view: u64,
        seq: u64,
        batch: Vec<(BaseRequest, Signature)>,
        mac: HmacTag,
        ctx: &mut dyn Context,
    ) {
        if view != self.view || self.is_primary() {
            return;
        }
        let digest = batch_digest(&batch);
        let input = phase_mac_input(1, view, seq, &digest);
        let primary = self.cfg.primary();
        if self
            .crypto
            .verify_mac_from(Principal::Replica(primary), &input, &mac)
            .is_err()
        {
            return;
        }
        // Verify client signatures in the batch.
        for (req, sig) in &batch {
            let Ok(req_bytes) = encode(req) else {
                return;
            };
            if self
                .crypto
                .verify(Principal::Client(req.client), &req_bytes, sig)
                .is_err()
            {
                return;
            }
        }
        if seq > self.exec_next + SEQ_WINDOW {
            ctx.metrics().incr("replica.bounded_rejects");
            return;
        }
        // neo-lint: allow(R5, seq bounded to SEQ_WINDOW above)
        let inst = self.instances.entry(seq).or_default();
        if inst.batch.is_some() {
            return; // duplicate pre-prepare
        }
        inst.batch = Some(batch);
        inst.digest = Some(digest);
        inst.prepares.insert(primary, digest);
        if !inst.prepare_sent {
            inst.prepare_sent = true;
            inst.prepares.insert(self.id, digest);
            let input = phase_mac_input(2, view, seq, &digest);
            let me = self.id;
            self.broadcast_mac(ctx, &input, |mac| Msg::Prepare {
                view,
                seq,
                digest,
                replica: me,
                mac,
            });
        }
        self.check_progress(seq, ctx);
    }

    #[allow(clippy::too_many_arguments)] // one parameter per wire field
    fn on_phase(
        &mut self,
        tag: u8,
        view: u64,
        seq: u64,
        digest: Digest,
        replica: ReplicaId,
        mac: HmacTag,
        ctx: &mut dyn Context,
    ) {
        if view != self.view {
            return;
        }
        let input = phase_mac_input(tag, view, seq, &digest);
        if self
            .crypto
            .verify_mac_from(Principal::Replica(replica), &input, &mac)
            .is_err()
        {
            return;
        }
        if seq > self.exec_next + SEQ_WINDOW {
            ctx.metrics().incr("replica.bounded_rejects");
            return;
        }
        // neo-lint: allow(R5, seq bounded to SEQ_WINDOW above)
        let inst = self.instances.entry(seq).or_default();
        match tag {
            2 => {
                inst.prepares.insert(replica, digest);
                ctx.metrics().incr("pbft.prepares_in");
            }
            3 => {
                inst.commits.insert(replica, digest);
                ctx.metrics().incr("pbft.commits_in");
            }
            _ => return,
        }
        self.check_progress(seq, ctx);
    }

    fn check_progress(&mut self, seq: u64, ctx: &mut dyn Context) {
        let quorum = self.cfg.quorum();
        let view = self.view;
        let me = self.id;
        let Some(inst) = self.instances.get_mut(&seq) else {
            return;
        };
        let Some(digest) = inst.digest else {
            return;
        };
        // Prepared: 2f+1 matching prepares (pre-prepare counts as the
        // primary's) → broadcast commit.
        let prepared = inst.prepares.values().filter(|d| **d == digest).count() >= quorum;
        if prepared && !inst.commit_sent {
            inst.commit_sent = true;
            inst.commits.insert(me, digest);
            let input = phase_mac_input(3, view, seq, &digest);
            self.broadcast_mac(ctx, &input, |mac| Msg::Commit {
                view,
                seq,
                digest,
                replica: me,
                mac,
            });
        }
        self.try_execute(ctx);
    }

    fn try_execute(&mut self, ctx: &mut dyn Context) {
        let quorum = self.cfg.quorum();
        loop {
            let seq = self.exec_next;
            let Some(inst) = self.instances.get(&seq) else {
                return;
            };
            let Some(digest) = inst.digest else {
                return;
            };
            let committed = inst.commits.values().filter(|d| **d == digest).count() >= quorum;
            if !committed || inst.batch.is_none() || inst.executed {
                return;
            }
            let batch = inst.batch.clone().expect("checked");
            for (req, _) in &batch {
                let dup = self
                    .table
                    .get(&req.client)
                    .map(|(last, _)| req.request_id <= *last)
                    .unwrap_or(false);
                if dup {
                    continue;
                }
                let result = self.app.execute(&req.op);
                self.executed += 1;
                ctx.emit(Event::Commit {
                    slot: seq,
                    client: req.client.0,
                    request: req.request_id.0,
                });
                let input = reply_mac_input(req.request_id, &result);
                let mac = self.crypto.mac_for(Principal::Client(req.client), &input);
                let reply = Msg::Reply {
                    replica: self.id,
                    request_id: req.request_id,
                    result,
                    mac,
                };
                self.table
                    .insert(req.client, (req.request_id, reply.clone()));
                ctx.send(Addr::Client(req.client), wrap(&reply));
            }
            if let Some(inst) = self.instances.get_mut(&seq) {
                inst.executed = true;
            }
            self.exec_next += 1;
            if self.is_primary() {
                self.queue.batch_done();
                self.try_open_batches(ctx);
            }
        }
    }
}

fn batch_digest(batch: &[(BaseRequest, Signature)]) -> Digest {
    sha256(&encode(&batch.iter().map(|(r, _)| r).collect::<Vec<_>>()).unwrap_or_default())
}

fn reply_mac_input(request_id: RequestId, result: &[u8]) -> Vec<u8> {
    let mut v = request_id.0.to_le_bytes().to_vec();
    v.extend_from_slice(result);
    v
}

impl Node for PbftReplica {
    fn on_message(&mut self, _from: Addr, payload: &[u8], ctx: &mut dyn Context) {
        self.messages_in += 1;
        ctx.metrics().incr("replica.messages_in");
        let Some(msg) = unwrap(payload) else {
            return;
        };
        match msg {
            Msg::Request(req, sig) => self.on_request(req, sig, ctx),
            Msg::PrePrepare {
                view,
                seq,
                batch,
                mac,
            } => self.on_pre_prepare(view, seq, batch, mac, ctx),
            Msg::Prepare {
                view,
                seq,
                digest,
                replica,
                mac,
            } => self.on_phase(2, view, seq, digest, replica, mac, ctx),
            Msg::Commit {
                view,
                seq,
                digest,
                replica,
                mac,
            } => self.on_phase(3, view, seq, digest, replica, mac, ctx),
            Msg::Reply { .. } => {}
        }
    }

    fn on_timer(&mut self, _: TimerId, _: u32, _: &mut dyn Context) {}

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

/// The PBFT client: signs requests, sends to the primary, accepts f+1
/// matching replies with valid MACs.
pub struct PbftClient {
    /// Shared closed-loop core.
    pub core: ClientCore,
    cfg: BaselineConfig,
    crypto: NodeCrypto,
    // BTreeMap: the reply-matching scan iterates this (R1, `clippy.toml`).
    replies: BTreeMap<ReplicaId, (RequestId, Vec<u8>)>,
}

impl PbftClient {
    /// Build the client.
    pub fn new(
        id: ClientId,
        cfg: BaselineConfig,
        keys: &SystemKeys,
        costs: CostModel,
        workload: Box<dyn Workload>,
    ) -> Self {
        let retry = cfg.client_retry_ns;
        PbftClient {
            core: ClientCore::new(id, workload, retry),
            cfg,
            crypto: NodeCrypto::new(Principal::Client(id), keys, costs),
            replies: BTreeMap::new(),
        }
    }

    fn transmit(&mut self, req: BaseRequest, all: bool, ctx: &mut dyn Context) {
        let sig = self.crypto.sign(&encode(&req).unwrap_or_default());
        let msg = wrap(&Msg::Request(req, sig));
        if all {
            // One encode; the whole-group retransmit is refcount bumps.
            let dests: Vec<ReplicaId> = (0..self.cfg.n as u32).map(ReplicaId).collect();
            ctx.broadcast(&dests, msg);
        } else {
            ctx.send(Addr::Replica(self.cfg.primary()), msg);
        }
    }

    fn start_next(&mut self, ctx: &mut dyn Context) {
        self.replies.clear();
        if let Some(req) = self.core.issue(ctx) {
            self.transmit(req, false, ctx);
        }
    }
}

impl Node for PbftClient {
    fn on_message(&mut self, _from: Addr, payload: &[u8], ctx: &mut dyn Context) {
        let Some(Msg::Reply {
            replica,
            request_id,
            result,
            mac,
        }) = unwrap(payload)
        else {
            return;
        };
        let Some(p) = self.core.pending.as_ref() else {
            return;
        };
        if request_id != p.request_id || replica.index() >= self.cfg.n {
            return;
        }
        let input = reply_mac_input(request_id, &result);
        if self
            .crypto
            .verify_mac_from(Principal::Replica(replica), &input, &mac)
            .is_err()
        {
            return;
        }
        self.replies.insert(replica, (request_id, result.clone()));
        let matching = self
            .replies
            .values()
            .filter(|(id, r)| *id == request_id && *r == result)
            .count();
        if matching >= self.cfg.f + 1 {
            self.core.complete(result, ctx);
            self.start_next(ctx);
        }
    }

    fn on_timer(&mut self, timer: TimerId, kind: u32, ctx: &mut dyn Context) {
        if kind == neo_sim::sim::INIT_TIMER_KIND {
            self.start_next(ctx);
        } else if self.core.is_retry_timer(timer) {
            if let Some(req) = self.core.retransmit(ctx) {
                self.transmit(req, true, ctx);
            }
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
