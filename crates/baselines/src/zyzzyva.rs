//! Zyzzyva (SOSP '07) — speculative BFT.
//!
//! Fast path (3 delays): the primary orders and broadcasts, replicas
//! execute speculatively and respond directly to the client, who commits
//! on **3f+1** matching spec-responses. If only 2f+1..3f match within a
//! timeout, the client assembles a commit certificate from 2f+1
//! responses and runs one more round (5 delays). A single
//! non-responsive replica therefore pushes *every* request onto the slow
//! path — the Zyzzyva-F configuration whose throughput collapses in
//! Figure 7.

use crate::common::{BaseRequest, BaselineConfig, BatchQueue, ClientCore};
use neo_aom::Envelope;
use neo_app::{App, Workload};
use neo_crypto::{chain, sha256, CostModel, Digest, NodeCrypto, Principal, Signature, SystemKeys};
use neo_sim::{Context, Node, TimerId};
use neo_wire::{decode, encode, Addr, ClientId, HmacTag, ReplicaId, RequestId};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};

/// Body of a spec-response, signed by the replica (signatures make the
/// client's commit certificate transferable).
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct SpecBody {
    view: u64,
    seq: u64,
    /// History digest: hash chain over all batches up to `seq`.
    history: Digest,
    replica: ReplicaId,
    request_id: RequestId,
    result_digest: Digest,
}

/// Zyzzyva wire messages.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
enum Msg {
    Request(BaseRequest, Signature),
    /// Primary → replicas (per-destination MAC).
    OrderReq {
        view: u64,
        seq: u64,
        batch: Vec<(BaseRequest, Signature)>,
        history: Digest,
        mac: HmacTag,
    },
    /// Replica → client (signed).
    SpecResponse {
        body: SpecBody,
        result: Vec<u8>,
        sig: Signature,
    },
    /// Client → replicas: commit certificate of 2f+1 matching responses.
    Commit {
        client: ClientId,
        cert: Vec<(SpecBody, Signature)>,
    },
    /// Replica → client (per-client MAC).
    LocalCommit {
        view: u64,
        replica: ReplicaId,
        request_id: RequestId,
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

/// Fault behaviour for the Zyzzyva-F experiment.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ZyzzyvaBehavior {
    /// Follow the protocol.
    Correct,
    /// Never respond (the faulty replica of §6.2's Zyzzyva-F).
    Mute,
}

/// A Zyzzyva replica.
pub struct ZyzzyvaReplica {
    cfg: BaselineConfig,
    id: ReplicaId,
    crypto: NodeCrypto,
    app: Box<dyn App>,
    view: u64,
    next_seq: u64,
    exec_next: u64,
    history: Digest,
    queue: BatchQueue,
    pending_order: BTreeMap<u64, (Vec<(BaseRequest, Signature)>, Digest)>,
    table: HashMap<ClientId, (RequestId, Msg)>,
    sig_cache: HashMap<(ClientId, RequestId), Signature>,
    /// Fault injection.
    pub behavior: ZyzzyvaBehavior,
    /// Operations executed.
    pub executed: u64,
    /// Messages processed.
    pub messages_in: u64,
}

/// Cap on verified-but-unbatched client signatures buffered at the
/// primary (neo-lint R5 bound).
const SIG_CACHE_MAX: usize = 4096;

impl ZyzzyvaReplica {
    /// Build replica `id`.
    pub fn new(
        id: ReplicaId,
        cfg: BaselineConfig,
        keys: &SystemKeys,
        costs: CostModel,
        app: Box<dyn App>,
    ) -> Self {
        ZyzzyvaReplica {
            cfg,
            id,
            crypto: NodeCrypto::new(Principal::Replica(id), keys, costs),
            app,
            view: 0,
            next_seq: 1,
            exec_next: 1,
            history: Digest::ZERO,
            queue: BatchQueue::default(),
            pending_order: BTreeMap::new(),
            table: HashMap::new(),
            sig_cache: HashMap::new(),
            behavior: ZyzzyvaBehavior::Correct,
            executed: 0,
            messages_in: 0,
        }
    }

    fn is_primary(&self) -> bool {
        self.id == self.cfg.primary()
    }

    fn on_request(&mut self, req: BaseRequest, sig: Signature, ctx: &mut dyn Context) {
        if !self.is_primary() {
            return;
        }
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
        if self.sig_cache.contains_key(&(req.client, req.request_id)) {
            return;
        }
        if self.sig_cache.len() >= SIG_CACHE_MAX {
            ctx.metrics().incr("replica.bounded_rejects");
            return;
        }
        // neo-lint: allow(R5, size-capped at SIG_CACHE_MAX above)
        self.sig_cache.insert((req.client, req.request_id), sig);
        self.queue.push(req);
        self.try_order(ctx);
    }

    fn try_order(&mut self, ctx: &mut dyn Context) {
        while let Some(batch) = self
            .queue
            .next_batch(self.cfg.batch_max, self.cfg.pipeline_depth)
        {
            let seq = self.next_seq;
            self.next_seq += 1;
            let signed: Vec<(BaseRequest, Signature)> = batch
                .into_iter()
                .map(|r| {
                    let sig = self
                        .sig_cache
                        .remove(&(r.client, r.request_id))
                        .unwrap_or_else(Signature::empty);
                    (r, sig)
                })
                .collect();
            let bdigest = sha256(&encode(&signed).unwrap_or_default());
            let history = chain(self.history, bdigest.as_bytes());
            if self.behavior != ZyzzyvaBehavior::Mute {
                for r in (0..self.cfg.n as u32)
                    .map(ReplicaId)
                    .filter(|r| *r != self.id)
                {
                    let mut input = seq.to_le_bytes().to_vec();
                    input.extend_from_slice(history.as_bytes());
                    let mac = self.crypto.mac_for(Principal::Replica(r), &input);
                    ctx.send(
                        Addr::Replica(r),
                        wrap(&Msg::OrderReq {
                            view: self.view,
                            seq,
                            batch: signed.clone(),
                            history,
                            mac,
                        }),
                    );
                }
            }
            self.accept_order(seq, signed, history, ctx);
        }
    }

    fn on_order_req(
        &mut self,
        view: u64,
        seq: u64,
        batch: Vec<(BaseRequest, Signature)>,
        history: Digest,
        mac: HmacTag,
        ctx: &mut dyn Context,
    ) {
        if view != self.view || self.is_primary() {
            return;
        }
        let mut input = seq.to_le_bytes().to_vec();
        input.extend_from_slice(history.as_bytes());
        if self
            .crypto
            .verify_mac_from(Principal::Replica(self.cfg.primary()), &input, &mac)
            .is_err()
        {
            return;
        }
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
        self.accept_order(seq, batch, history, ctx);
    }

    /// Queue an ordered batch and execute in sequence order.
    fn accept_order(
        &mut self,
        seq: u64,
        batch: Vec<(BaseRequest, Signature)>,
        history: Digest,
        ctx: &mut dyn Context,
    ) {
        self.pending_order.entry(seq).or_insert((batch, history));
        while let Some((batch, history)) = self.pending_order.remove(&self.exec_next) {
            let seq = self.exec_next;
            self.exec_next += 1;
            // Verify the primary's history chain.
            let bdigest = sha256(&encode(&batch).unwrap_or_default());
            let expect = chain(self.history, bdigest.as_bytes());
            if expect != history {
                return; // equivocating primary: would trigger view change
            }
            self.history = history;
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
                let body = SpecBody {
                    view: self.view,
                    seq,
                    history,
                    replica: self.id,
                    request_id: req.request_id,
                    result_digest: sha256(&result),
                };
                let sig = self.crypto.sign(&encode(&body).unwrap_or_default());
                let msg = Msg::SpecResponse { body, result, sig };
                self.table.insert(req.client, (req.request_id, msg.clone()));
                if self.behavior != ZyzzyvaBehavior::Mute {
                    ctx.send(Addr::Client(req.client), wrap(&msg));
                }
            }
            if self.is_primary() {
                self.queue.batch_done();
            }
        }
        if self.is_primary() {
            self.try_order(ctx);
        }
        let _ = seq;
    }

    fn on_commit(
        &mut self,
        cert: Vec<(SpecBody, Signature)>,
        client: ClientId,
        ctx: &mut dyn Context,
    ) {
        if self.behavior == ZyzzyvaBehavior::Mute {
            return;
        }
        // Validate 2f+1 matching signed spec-responses.
        let quorum = self.cfg.quorum();
        let mut seen = std::collections::BTreeSet::new();
        let Some((first, _)) = cert.first() else {
            return;
        };
        for (body, sig) in &cert {
            if (body.seq, body.history, body.request_id, body.result_digest)
                != (
                    first.seq,
                    first.history,
                    first.request_id,
                    first.result_digest,
                )
            {
                continue;
            }
            let Ok(body_bytes) = encode(body) else {
                continue;
            };
            if self
                .crypto
                .verify(Principal::Replica(body.replica), &body_bytes, sig)
                .is_ok()
            {
                seen.insert(body.replica);
            }
        }
        if seen.len() < quorum {
            return;
        }
        let mut input = first.request_id.0.to_le_bytes().to_vec();
        input.extend_from_slice(first.history.as_bytes());
        let mac = self.crypto.mac_for(Principal::Client(client), &input);
        ctx.send(
            Addr::Client(client),
            wrap(&Msg::LocalCommit {
                view: self.view,
                replica: self.id,
                request_id: first.request_id,
                mac,
            }),
        );
    }
}

impl Node for ZyzzyvaReplica {
    fn on_message(&mut self, _from: Addr, payload: &[u8], ctx: &mut dyn Context) {
        self.messages_in += 1;
        let Some(msg) = unwrap(payload) else {
            return;
        };
        match msg {
            Msg::Request(req, sig) => self.on_request(req, sig, ctx),
            Msg::OrderReq {
                view,
                seq,
                batch,
                history,
                mac,
            } => self.on_order_req(view, seq, batch, history, mac, ctx),
            Msg::Commit { client, cert } => self.on_commit(cert, client, ctx),
            Msg::SpecResponse { .. } | Msg::LocalCommit { .. } => {}
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

/// The Zyzzyva client: fast path on 3f+1 matching spec-responses, slow
/// path with a commit certificate on 2f+1.
pub struct ZyzzyvaClient {
    /// Shared closed-loop core.
    pub core: ClientCore,
    cfg: BaselineConfig,
    crypto: NodeCrypto,
    // BTreeMap: `matching_set` iterates this, and the chosen maximal
    // group must be the same on every run (R1, `clippy.toml`).
    spec: BTreeMap<ReplicaId, (SpecBody, Vec<u8>, Signature)>,
    local_commits: HashMap<ReplicaId, RequestId>,
    fast_timer: Option<TimerId>,
    committing: bool,
    /// Fast-path completions (stats).
    pub fast_commits: u64,
    /// Slow-path completions (stats).
    pub slow_commits: u64,
}

impl ZyzzyvaClient {
    /// Build the client.
    pub fn new(
        id: ClientId,
        cfg: BaselineConfig,
        keys: &SystemKeys,
        costs: CostModel,
        workload: Box<dyn Workload>,
    ) -> Self {
        let retry = cfg.client_retry_ns;
        ZyzzyvaClient {
            core: ClientCore::new(id, workload, retry),
            cfg,
            crypto: NodeCrypto::new(Principal::Client(id), keys, costs),
            spec: BTreeMap::new(),
            local_commits: HashMap::new(),
            fast_timer: None,
            committing: false,
            fast_commits: 0,
            slow_commits: 0,
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
        self.spec.clear();
        self.local_commits.clear();
        self.committing = false;
        if let Some(t) = self.fast_timer.take() {
            ctx.cancel_timer(t);
        }
        if let Some(req) = self.core.issue(ctx) {
            self.transmit(req, false, ctx);
        }
    }

    /// The largest set of mutually matching spec-responses.
    fn matching_set(&self) -> Vec<(SpecBody, Signature)> {
        let mut groups: BTreeMap<(u64, Digest, Digest), Vec<(SpecBody, Signature)>> =
            BTreeMap::new();
        for (body, _, sig) in self.spec.values() {
            groups
                .entry((body.seq, body.history, body.result_digest))
                .or_default()
                .push((body.clone(), sig.clone()));
        }
        groups
            .into_values()
            .max_by_key(|v| v.len())
            .unwrap_or_default()
    }

    fn on_spec_response(
        &mut self,
        body: SpecBody,
        result: Vec<u8>,
        sig: Signature,
        ctx: &mut dyn Context,
    ) {
        let Some(p) = self.core.pending.as_ref() else {
            return;
        };
        if body.request_id != p.request_id || self.committing {
            return;
        }
        let Ok(body_bytes) = encode(&body) else {
            return;
        };
        if self
            .crypto
            .verify(Principal::Replica(body.replica), &body_bytes, &sig)
            .is_err()
        {
            return;
        }
        if sha256(&result) != body.result_digest {
            return;
        }
        self.spec.insert(body.replica, (body, result, sig));
        let best = self.matching_set();
        if best.len() == self.cfg.n {
            // Fast path: all 3f+1 match.
            let Some(result) = best
                .first()
                .and_then(|(b, _)| self.spec.get(&b.replica))
                .map(|(_, r, _)| r.clone())
            else {
                return;
            };
            self.fast_commits += 1;
            self.core.complete(result, ctx);
            self.start_next(ctx);
        } else if best.len() >= self.cfg.quorum() && self.fast_timer.is_none() {
            // Start the fast-path grace timer.
            self.fast_timer = Some(ctx.set_timer(self.cfg.fast_path_wait_ns, 3));
        }
    }

    fn start_commit_phase(&mut self, ctx: &mut dyn Context) {
        let best = self.matching_set();
        if best.len() < self.cfg.quorum() {
            return; // keep waiting; retransmission will kick in
        }
        self.committing = true;
        let cert: Vec<(SpecBody, Signature)> = best.into_iter().take(self.cfg.quorum()).collect();
        let msg = wrap(&Msg::Commit {
            client: self.core.id,
            cert,
        });
        let dests: Vec<ReplicaId> = (0..self.cfg.n as u32).map(ReplicaId).collect();
        ctx.broadcast(&dests, msg);
    }

    fn on_local_commit(
        &mut self,
        replica: ReplicaId,
        request_id: RequestId,
        mac: HmacTag,
        ctx: &mut dyn Context,
    ) {
        let Some(p) = self.core.pending.as_ref() else {
            return;
        };
        if request_id != p.request_id || !self.committing {
            return;
        }
        let best = self.matching_set();
        let Some((first, _)) = best.first() else {
            return;
        };
        let mut input = request_id.0.to_le_bytes().to_vec();
        input.extend_from_slice(first.history.as_bytes());
        if self
            .crypto
            .verify_mac_from(Principal::Replica(replica), &input, &mac)
            .is_err()
        {
            return;
        }
        self.local_commits.insert(replica, request_id);
        if self.local_commits.len() >= self.cfg.quorum() {
            let result = self
                .spec
                .get(&first.replica)
                .map(|(_, r, _)| r.clone())
                .unwrap_or_default();
            self.slow_commits += 1;
            self.core.complete(result, ctx);
            self.start_next(ctx);
        }
    }
}

impl Node for ZyzzyvaClient {
    fn on_message(&mut self, _from: Addr, payload: &[u8], ctx: &mut dyn Context) {
        match unwrap(payload) {
            Some(Msg::SpecResponse { body, result, sig }) => {
                self.on_spec_response(body, result, sig, ctx)
            }
            Some(Msg::LocalCommit {
                replica,
                request_id,
                mac,
                ..
            }) => self.on_local_commit(replica, request_id, mac, ctx),
            _ => {}
        }
    }

    fn on_timer(&mut self, timer: TimerId, kind: u32, ctx: &mut dyn Context) {
        match kind {
            neo_sim::sim::INIT_TIMER_KIND => self.start_next(ctx),
            3 => {
                if self.fast_timer == Some(timer) {
                    self.fast_timer = None;
                    if !self.committing && self.core.pending.is_some() {
                        self.start_commit_phase(ctx);
                    }
                }
            }
            _ => {
                if self.core.is_retry_timer(timer) {
                    if let Some(req) = self.core.retransmit(ctx) {
                        self.transmit(req, true, ctx);
                    }
                }
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
