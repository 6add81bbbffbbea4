//! MinBFT (Veronese et al.) — BFT with a trusted monotonic counter.
//!
//! Each replica owns a **USIG** (Unique Sequential Identifier Generator)
//! living in a trusted component (Intel SGX in the paper's testbed; an
//! in-process module here — the interface, not the isolation, is what
//! the protocol depends on). The USIG binds every outgoing message to a
//! monotonically increasing counter with an attested MAC, which removes
//! equivocation and cuts the replication factor to 2f+1.
//!
//! Normal case (4 delays): request → prepare (primary, with UI) →
//! commit (all, with UI) → reply. Every USIG operation serializes
//! through the trusted component, which is the throughput bottleneck —
//! exactly why MinBFT trails in Figure 7 despite fewer replicas.

use crate::common::{BaseRequest, BaselineConfig, BatchQueue, ClientCore};
use neo_aom::Envelope;
use neo_app::{App, Workload};
use neo_crypto::{
    sha256, CostModel, Digest, HmacKey, NodeCrypto, Principal, Signature, SystemKeys,
};
use neo_sim::{Context, Node, TimerId};
use neo_wire::{decode, encode, Addr, ClientId, HmacTag, ReplicaId, RequestId};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};

/// An attested unique identifier: (counter, MAC over digest ‖ counter).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct UsigCert {
    /// The monotonic counter value.
    pub counter: u64,
    /// Attestation MAC from the trusted component.
    pub mac: HmacTag,
}

/// The trusted USIG component of one replica.
///
/// `create_ui` is the only operation that advances the counter; the
/// serialized-call cost (`usig_cost_ns`) models the enclave transition +
/// in-enclave HMAC of the SGX implementation.
pub struct Usig {
    key: HmacKey,
    counter: u64,
    cost_ns: u64,
}

fn usig_key(keys: &SystemKeys, owner: ReplicaId) -> HmacKey {
    // The USIG attestation key, provisioned to the trusted components at
    // deployment time (remote attestation in the SGX deployment).
    keys.pairwise_hmac_key(Principal::Replica(owner), Principal::Replica(owner))
}

impl Usig {
    /// The USIG of replica `owner`.
    pub fn new(owner: ReplicaId, keys: &SystemKeys, cost_ns: u64) -> Self {
        Usig {
            key: usig_key(keys, owner),
            counter: 0,
            cost_ns,
        }
    }

    /// Current counter value.
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// Assign the next identifier to `digest`. Charges the trusted-call
    /// cost to the caller's serial budget.
    pub fn create_ui(&mut self, digest: &Digest, ctx: &mut dyn Context) -> UsigCert {
        ctx.charge(self.cost_ns);
        self.counter += 1;
        UsigCert {
            counter: self.counter,
            mac: self.attest(digest, self.counter),
        }
    }

    fn attest(&self, digest: &Digest, counter: u64) -> HmacTag {
        let mut input = digest.as_bytes().to_vec();
        input.extend_from_slice(&counter.to_le_bytes());
        self.key.tag(&input)
    }

    /// Verify another replica's UI through the trusted component (which
    /// holds the shared attestation keys).
    pub fn verify_ui(
        owner: ReplicaId,
        keys: &SystemKeys,
        digest: &Digest,
        cert: &UsigCert,
        cost_ns: u64,
        ctx: &mut dyn Context,
    ) -> bool {
        ctx.charge(cost_ns / 2);
        let key = usig_key(keys, owner);
        let mut input = digest.as_bytes().to_vec();
        input.extend_from_slice(&cert.counter.to_le_bytes());
        key.verify(&input, &cert.mac).is_ok()
    }
}

/// MinBFT wire messages.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
enum Msg {
    Request(BaseRequest, Signature),
    /// Primary → all.
    Prepare {
        view: u64,
        batch: Vec<(BaseRequest, Signature)>,
        ui: UsigCert,
    },
    /// All → all: commitment to the primary's prepare.
    Commit {
        view: u64,
        prepare_digest: Digest,
        prepare_counter: u64,
        replica: ReplicaId,
        ui: UsigCert,
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

#[derive(Default)]
struct Instance {
    batch: Option<Vec<(BaseRequest, Signature)>>,
    digest: Option<Digest>,
    commits: HashMap<ReplicaId, u64>,
    commit_sent: bool,
    executed: bool,
}

/// A MinBFT replica (n = 2f+1).
pub struct MinBftReplica {
    cfg: BaselineConfig,
    id: ReplicaId,
    crypto: NodeCrypto,
    keys: SystemKeys,
    usig: Usig,
    app: Box<dyn App>,
    view: u64,
    /// Last accepted USIG counter per replica (monotonicity check).
    last_counter: HashMap<ReplicaId, u64>,
    /// Instances keyed by the primary's prepare counter.
    instances: BTreeMap<u64, Instance>,
    exec_next: u64,
    queue: BatchQueue,
    table: HashMap<ClientId, (RequestId, Msg)>,
    sig_cache: HashMap<(ClientId, RequestId), Signature>,
    /// Operations executed.
    pub executed: u64,
    /// Messages processed.
    pub messages_in: u64,
}

/// How far past the execution frontier a USIG counter may land and
/// still open a protocol instance (neo-lint R5 bound).
const SEQ_WINDOW: u64 = 4096;
/// Cap on verified-but-unbatched client signatures buffered at the
/// primary (neo-lint R5 bound).
const SIG_CACHE_MAX: usize = 4096;

impl MinBftReplica {
    /// Build replica `id`.
    pub fn new(
        id: ReplicaId,
        cfg: BaselineConfig,
        keys: &SystemKeys,
        costs: CostModel,
        app: Box<dyn App>,
    ) -> Self {
        let usig = Usig::new(id, keys, cfg.usig_cost_ns);
        MinBftReplica {
            cfg,
            id,
            crypto: NodeCrypto::new(Principal::Replica(id), keys, costs),
            keys: keys.clone(),
            usig,
            app,
            view: 0,
            last_counter: HashMap::new(),
            instances: BTreeMap::new(),
            exec_next: 0,
            queue: BatchQueue::default(),
            table: HashMap::new(),
            sig_cache: HashMap::new(),
            executed: 0,
            messages_in: 0,
        }
    }

    fn is_primary(&self) -> bool {
        self.id == self.cfg.primary()
    }

    fn monotonic_ok(&mut self, owner: ReplicaId, counter: u64) -> bool {
        let last = self.last_counter.entry(owner).or_insert(0);
        if counter > *last {
            *last = counter;
            true
        } else {
            false
        }
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
        self.try_prepare(ctx);
    }

    fn try_prepare(&mut self, ctx: &mut dyn Context) {
        while let Some(batch) = self
            .queue
            .next_batch(self.cfg.batch_max, self.cfg.pipeline_depth)
        {
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
            let digest = sha256(&encode(&signed).unwrap_or_default());
            let ui = self.usig.create_ui(&digest, ctx);
            let prepare = Msg::Prepare {
                view: self.view,
                batch: signed.clone(),
                ui,
            };
            let peers: Vec<ReplicaId> = (0..self.cfg.n as u32)
                .map(ReplicaId)
                .filter(|r| *r != self.id)
                .collect();
            ctx.broadcast(&peers, wrap(&prepare));
            self.accept_prepare(self.cfg.primary(), signed, digest, ui, ctx);
        }
    }

    fn accept_prepare(
        &mut self,
        primary: ReplicaId,
        batch: Vec<(BaseRequest, Signature)>,
        digest: Digest,
        ui: UsigCert,
        ctx: &mut dyn Context,
    ) {
        let inst = self.instances.entry(ui.counter).or_default();
        if inst.batch.is_some() {
            return;
        }
        inst.batch = Some(batch);
        inst.digest = Some(digest);
        // The prepare carries the primary's UI and doubles as its commit
        // (the primary's USIG counter stream therefore stays dense over
        // prepares: 1, 2, 3, …, which is what execution order follows).
        inst.commits.insert(primary, ui.counter);
        if self.exec_next == 0 {
            self.exec_next = 1; // first prepare counter observed
        }
        // Backups broadcast a commit attested by their own USIG.
        let Some(inst) = self.instances.get_mut(&ui.counter) else {
            return;
        };
        if !inst.commit_sent && self.id != primary {
            inst.commit_sent = true;
            let mut input = digest.as_bytes().to_vec();
            input.extend_from_slice(&ui.counter.to_le_bytes());
            let commit_digest = sha256(&input);
            let my_ui = self.usig.create_ui(&commit_digest, ctx);
            let msg = Msg::Commit {
                view: self.view,
                prepare_digest: digest,
                prepare_counter: ui.counter,
                replica: self.id,
                ui: my_ui,
            };
            let peers: Vec<ReplicaId> = (0..self.cfg.n as u32)
                .map(ReplicaId)
                .filter(|r| *r != self.id)
                .collect();
            ctx.broadcast(&peers, wrap(&msg));
        }
        self.try_execute(ctx);
    }

    fn on_prepare(
        &mut self,
        view: u64,
        batch: Vec<(BaseRequest, Signature)>,
        ui: UsigCert,
        ctx: &mut dyn Context,
    ) {
        if view != self.view || self.is_primary() {
            return;
        }
        let Ok(batch_bytes) = encode(&batch) else {
            return;
        };
        let digest = sha256(&batch_bytes);
        let primary = self.cfg.primary();
        if !Usig::verify_ui(
            primary,
            &self.keys,
            &digest,
            &ui,
            self.cfg.usig_cost_ns,
            ctx,
        ) {
            return;
        }
        if !self.monotonic_ok(primary, ui.counter) {
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
        self.accept_prepare(primary, batch, digest, ui, ctx);
    }

    fn on_commit(
        &mut self,
        view: u64,
        prepare_digest: Digest,
        prepare_counter: u64,
        replica: ReplicaId,
        ui: UsigCert,
        ctx: &mut dyn Context,
    ) {
        if view != self.view {
            return;
        }
        let mut input = prepare_digest.as_bytes().to_vec();
        input.extend_from_slice(&prepare_counter.to_le_bytes());
        let commit_digest = sha256(&input);
        if !Usig::verify_ui(
            replica,
            &self.keys,
            &commit_digest,
            &ui,
            self.cfg.usig_cost_ns,
            ctx,
        ) {
            return;
        }
        if !self.monotonic_ok(replica, ui.counter) {
            return;
        }
        if prepare_counter > self.exec_next + SEQ_WINDOW {
            ctx.metrics().incr("replica.bounded_rejects");
            return;
        }
        // neo-lint: allow(R5, counter bounded to SEQ_WINDOW above)
        let inst = self.instances.entry(prepare_counter).or_default();
        if inst.digest.is_some() && inst.digest != Some(prepare_digest) {
            return;
        }
        inst.commits.insert(replica, ui.counter);
        self.try_execute(ctx);
    }

    fn try_execute(&mut self, ctx: &mut dyn Context) {
        loop {
            let counter = self.exec_next;
            if counter == 0 {
                return;
            }
            let Some(inst) = self.instances.get(&counter) else {
                return;
            };
            // f+1 commits (majority of 2f+1), including our own.
            if inst.executed || inst.batch.is_none() || inst.commits.len() < self.cfg.f + 1 {
                return;
            }
            let Some(batch) = inst.batch.clone() else {
                return;
            };
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
                let mut input = req.request_id.0.to_le_bytes().to_vec();
                input.extend_from_slice(&result);
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
            if let Some(inst) = self.instances.get_mut(&counter) {
                inst.executed = true;
            }
            self.exec_next += 1;
            if self.is_primary() {
                self.queue.batch_done();
                self.try_prepare(ctx);
            }
        }
    }
}

impl Node for MinBftReplica {
    fn on_message(&mut self, _from: Addr, payload: &[u8], ctx: &mut dyn Context) {
        self.messages_in += 1;
        let Some(msg) = unwrap(payload) else {
            return;
        };
        match msg {
            Msg::Request(req, sig) => self.on_request(req, sig, ctx),
            Msg::Prepare { view, batch, ui } => self.on_prepare(view, batch, ui, ctx),
            Msg::Commit {
                view,
                prepare_digest,
                prepare_counter,
                replica,
                ui,
            } => self.on_commit(view, prepare_digest, prepare_counter, replica, ui, ctx),
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

/// The MinBFT client: f+1 matching replies.
pub struct MinBftClient {
    /// Shared closed-loop core.
    pub core: ClientCore,
    cfg: BaselineConfig,
    crypto: NodeCrypto,
    // BTreeMap: the reply-matching scan iterates this (R1, `clippy.toml`).
    replies: BTreeMap<ReplicaId, (RequestId, Vec<u8>)>,
}

impl MinBftClient {
    /// Build the client.
    pub fn new(
        id: ClientId,
        cfg: BaselineConfig,
        keys: &SystemKeys,
        costs: CostModel,
        workload: Box<dyn Workload>,
    ) -> Self {
        let retry = cfg.client_retry_ns;
        MinBftClient {
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

impl Node for MinBftClient {
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
        let mut input = request_id.0.to_le_bytes().to_vec();
        input.extend_from_slice(&result);
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

#[cfg(test)]
mod tests {
    use super::*;

    struct Ctx {
        charged: u64,
    }
    impl Context for Ctx {
        fn now(&self) -> u64 {
            0
        }
        fn me(&self) -> Addr {
            Addr::Replica(ReplicaId(0))
        }
        fn send_after(&mut self, _: Addr, _: neo_wire::Payload, _: u64) {}
        fn set_timer(&mut self, _: u64, _: u32) -> TimerId {
            TimerId(0)
        }
        fn cancel_timer(&mut self, _: TimerId) {}
        fn charge(&mut self, ns: u64) {
            self.charged += ns;
        }
    }

    #[test]
    fn usig_counters_are_sequential_and_attested() {
        let keys = SystemKeys::new(1, 3, 0);
        let mut usig = Usig::new(ReplicaId(0), &keys, 1000);
        let mut ctx = Ctx { charged: 0 };
        let d = sha256(b"m");
        let u1 = usig.create_ui(&d, &mut ctx);
        let u2 = usig.create_ui(&d, &mut ctx);
        assert_eq!(u1.counter, 1);
        assert_eq!(u2.counter, 2);
        assert_eq!(ctx.charged, 2000, "trusted calls charged serially");
        assert!(Usig::verify_ui(
            ReplicaId(0),
            &keys,
            &d,
            &u1,
            1000,
            &mut ctx
        ));
        assert!(
            !Usig::verify_ui(ReplicaId(1), &keys, &d, &u1, 1000, &mut ctx),
            "UI is bound to its owner"
        );
        assert!(
            !Usig::verify_ui(ReplicaId(0), &keys, &sha256(b"other"), &u1, 1000, &mut ctx),
            "UI is bound to the message"
        );
    }

    #[test]
    fn forged_counter_does_not_verify() {
        let keys = SystemKeys::new(1, 3, 0);
        let mut usig = Usig::new(ReplicaId(0), &keys, 0);
        let mut ctx = Ctx { charged: 0 };
        let d = sha256(b"m");
        let mut ui = usig.create_ui(&d, &mut ctx);
        ui.counter += 1; // replay at a higher counter
        assert!(!Usig::verify_ui(ReplicaId(0), &keys, &d, &ui, 0, &mut ctx));
    }
}
