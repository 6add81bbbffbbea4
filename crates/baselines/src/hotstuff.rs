//! Chained HotStuff (PODC '19) — linear BFT with quorum certificates.
//!
//! A stable leader proposes a chain of blocks; replicas vote with
//! signatures; 2f+1 votes form a quorum certificate (QC) that justifies
//! the next proposal. A block commits once it heads a **three-chain**
//! (its QC's QC's QC exists with consecutive heights). Authenticator
//! complexity is O(N) per block, but every request waits for three chain
//! extensions plus batching — HotStuff's throughput-over-latency
//! trade-off in Figure 7 (and the >10 ms latency the paper observes at
//! aggressive batching).

use crate::common::{BaseRequest, BaselineConfig, BatchQueue, ClientCore};
use neo_aom::Envelope;
use neo_app::{App, Workload};
use neo_crypto::{sha256, CostModel, Digest, NodeCrypto, Principal, Signature, SystemKeys};
use neo_sim::{Context, Node, TimerId};
use neo_wire::{decode, encode, Addr, ClientId, HmacTag, ReplicaId, RequestId};
use serde::{Deserialize, Serialize};
use std::any::Any;
use std::collections::{BTreeMap, HashMap};

/// A proposed block.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct Block {
    height: u64,
    parent: Digest,
    batch: Vec<(BaseRequest, Signature)>,
}

impl Block {
    fn digest(&self) -> Digest {
        sha256(&encode(self).unwrap_or_default())
    }
}

/// A quorum certificate: 2f+1 signatures over (height, block digest).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize, Default)]
pub struct Qc {
    height: u64,
    digest: Digest,
    sigs: Vec<(ReplicaId, Signature)>,
}

fn vote_input(height: u64, digest: &Digest) -> Vec<u8> {
    let mut v = height.to_le_bytes().to_vec();
    v.extend_from_slice(digest.as_bytes());
    v
}

/// HotStuff wire messages.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
enum Msg {
    Request(BaseRequest, Signature),
    /// Leader → all: a block justified by the QC for its parent.
    Proposal {
        block: Block,
        justify: Qc,
        sig: Signature,
    },
    /// Replica → leader.
    Vote {
        height: u64,
        digest: Digest,
        replica: ReplicaId,
        sig: Signature,
    },
    /// Replica → client after commit.
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

/// A HotStuff replica.
pub struct HotStuffReplica {
    cfg: BaselineConfig,
    id: ReplicaId,
    crypto: NodeCrypto,
    app: Box<dyn App>,
    /// Blocks by height (the chain; stable leader ⇒ no forks).
    blocks: BTreeMap<u64, Block>,
    /// QCs by height.
    qcs: BTreeMap<u64, Qc>,
    /// Leader: votes for the block at each height. BTreeMap so QC
    /// signature lists assemble in deterministic order (R1, `clippy.toml`).
    votes: BTreeMap<u64, BTreeMap<ReplicaId, Signature>>,
    /// Leader: request queue.
    queue: BatchQueue,
    /// Heights executed (committed via three-chain).
    exec_next: u64,
    /// Leader: height of the next proposal.
    next_height: u64,
    /// Leader: highest QC formed.
    high_qc: Qc,
    table: HashMap<ClientId, (RequestId, Msg)>,
    sig_cache: HashMap<(ClientId, RequestId), Signature>,
    proposal_timer_armed: bool,
    /// Highest height carrying client requests (empty chain-extension
    /// blocks stop once everything up to here is committed).
    last_payload_height: u64,
    /// Operations executed.
    pub executed: u64,
    /// Messages processed.
    pub messages_in: u64,
}

/// How far past the execution frontier a block height may land and
/// still open leader vote-collection state (neo-lint R5 bound).
const SEQ_WINDOW: u64 = 4096;
/// Cap on verified-but-unbatched client signatures buffered at the
/// leader (neo-lint R5 bound).
const SIG_CACHE_MAX: usize = 4096;

impl HotStuffReplica {
    /// Build replica `id`.
    pub fn new(
        id: ReplicaId,
        cfg: BaselineConfig,
        keys: &SystemKeys,
        costs: CostModel,
        app: Box<dyn App>,
    ) -> Self {
        HotStuffReplica {
            cfg,
            id,
            crypto: NodeCrypto::new(Principal::Replica(id), keys, costs),
            app,
            blocks: BTreeMap::new(),
            qcs: BTreeMap::new(),
            votes: BTreeMap::new(),
            queue: BatchQueue::default(),
            exec_next: 1,
            next_height: 1,
            high_qc: Qc::default(),
            table: HashMap::new(),
            sig_cache: HashMap::new(),
            proposal_timer_armed: false,
            last_payload_height: 0,
            executed: 0,
            messages_in: 0,
        }
    }

    fn is_leader(&self) -> bool {
        self.id == self.cfg.primary()
    }

    fn on_request(&mut self, req: BaseRequest, sig: Signature, ctx: &mut dyn Context) {
        if !self.is_leader() {
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
        if !self.proposal_timer_armed {
            // Batch accumulation window before the first/next proposal.
            self.proposal_timer_armed = true;
            ctx.set_timer(self.cfg.proposal_interval_ns, 4);
        }
    }

    /// Leader: propose the next block, extending the highest QC.
    fn propose(&mut self, ctx: &mut dyn Context) {
        if !self.is_leader() {
            return;
        }
        // The chain must stay justified: block h needs QC(h-1).
        if self.next_height > 1 && self.high_qc.height + 1 != self.next_height {
            return; // previous proposal still collecting votes
        }
        let batch = self
            .queue
            .next_batch(self.cfg.batch_max, self.cfg.pipeline_depth)
            .map(|reqs| {
                reqs.into_iter()
                    .map(|r| {
                        let sig = self
                            .sig_cache
                            .remove(&(r.client, r.request_id))
                            .unwrap_or_else(Signature::empty);
                        (r, sig)
                    })
                    .collect::<Vec<_>>()
            })
            .unwrap_or_default();
        // Empty blocks keep the three-chain moving until the last
        // payload block has committed *everywhere*: a payload block at
        // height h needs QCs for h, h+1, h+2, and backups learn QC(h+2)
        // from the justify of block h+3.
        let pending_commits = self.next_height <= self.last_payload_height + 3;
        if batch.is_empty() && !pending_commits {
            return;
        }
        if !batch.is_empty() {
            self.last_payload_height = self.next_height;
        }
        let parent = self
            .blocks
            .get(&(self.next_height - 1))
            .map(|b| b.digest())
            .unwrap_or(Digest::ZERO);
        let block = Block {
            height: self.next_height,
            parent,
            batch,
        };
        let digest = block.digest();
        let sig = self.crypto.sign(&vote_input(block.height, &digest));
        let justify = self.high_qc.clone();
        let msg = Msg::Proposal {
            block: block.clone(),
            justify,
            sig,
        };
        let peers: Vec<ReplicaId> = (0..self.cfg.n as u32)
            .map(ReplicaId)
            .filter(|r| *r != self.id)
            .collect();
        ctx.broadcast(&peers, wrap(&msg));
        self.next_height += 1;
        self.accept_block(block, ctx);
    }

    fn verify_qc(&self, qc: &Qc) -> bool {
        if qc.height == 0 {
            return true; // genesis
        }
        let quorum = self.cfg.quorum();
        let input = vote_input(qc.height, &qc.digest);
        let mut seen = std::collections::BTreeSet::new();
        for (r, sig) in &qc.sigs {
            if self
                .crypto
                .verify(Principal::Replica(*r), &input, sig)
                .is_ok()
            {
                seen.insert(*r);
            }
        }
        seen.len() >= quorum
    }

    fn on_proposal(&mut self, block: Block, justify: Qc, sig: Signature, ctx: &mut dyn Context) {
        if self.is_leader() {
            return;
        }
        let digest = block.digest();
        if self
            .crypto
            .verify(
                Principal::Replica(self.cfg.primary()),
                &vote_input(block.height, &digest),
                &sig,
            )
            .is_err()
        {
            return;
        }
        if !self.verify_qc(&justify) {
            return;
        }
        if justify.height > 0 {
            // neo-lint: allow(R5, justify is quorum-signed — verify_qc above — so at most one QC can form per height)
            self.qcs.insert(justify.height, justify);
        }
        // Vote.
        let vote_sig = self.crypto.sign(&vote_input(block.height, &digest));
        let vote = Msg::Vote {
            height: block.height,
            digest,
            replica: self.id,
            sig: vote_sig,
        };
        ctx.send(Addr::Replica(self.cfg.primary()), wrap(&vote));
        self.accept_block(block, ctx);
    }

    fn accept_block(&mut self, block: Block, ctx: &mut dyn Context) {
        self.blocks.entry(block.height).or_insert(block);
        self.try_commit(ctx);
    }

    fn on_vote(
        &mut self,
        height: u64,
        digest: Digest,
        replica: ReplicaId,
        sig: Signature,
        ctx: &mut dyn Context,
    ) {
        if !self.is_leader() {
            return;
        }
        if self
            .crypto
            .verify(
                Principal::Replica(replica),
                &vote_input(height, &digest),
                &sig,
            )
            .is_err()
        {
            return;
        }
        if height > self.exec_next + SEQ_WINDOW {
            ctx.metrics().incr("replica.bounded_rejects");
            return;
        }
        // neo-lint: allow(R5, height bounded to SEQ_WINDOW above)
        let height_votes = self.votes.entry(height).or_default();
        height_votes.insert(replica, sig);
        // The leader votes implicitly.
        if let std::collections::btree_map::Entry::Vacant(e) = height_votes.entry(self.id) {
            let my_sig = self.crypto.sign(&vote_input(height, &digest));
            e.insert(my_sig);
        }
        let quorum_reached = height_votes.len() >= self.cfg.quorum();
        let sigs: Vec<(ReplicaId, Signature)> = if quorum_reached {
            height_votes.iter().map(|(r, s)| (*r, s.clone())).collect()
        } else {
            Vec::new()
        };
        if quorum_reached && self.high_qc.height < height {
            self.high_qc = Qc {
                height,
                digest,
                sigs,
            };
            // neo-lint: allow(R5, height bounded to SEQ_WINDOW above)
            self.qcs.insert(height, self.high_qc.clone());
            self.try_commit(ctx);
            // Chain the next proposal immediately.
            self.propose(ctx);
        }
    }

    /// Commit rule: block at height h commits once QCs exist for h, h+1,
    /// h+2 (the three-chain with consecutive heights).
    fn try_commit(&mut self, ctx: &mut dyn Context) {
        loop {
            let h = self.exec_next;
            let ready = self.qcs.contains_key(&h)
                && self.qcs.contains_key(&(h + 1))
                && self.qcs.contains_key(&(h + 2))
                && self.blocks.contains_key(&h);
            if !ready {
                return;
            }
            let Some(block) = self.blocks.get(&h).cloned() else {
                return;
            };
            for (req, _) in &block.batch {
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
            if self.is_leader() && !block.batch.is_empty() {
                self.queue.batch_done();
            }
            self.exec_next += 1;
        }
    }
}

impl Node for HotStuffReplica {
    fn on_message(&mut self, _from: Addr, payload: &[u8], ctx: &mut dyn Context) {
        self.messages_in += 1;
        let Some(msg) = unwrap(payload) else {
            return;
        };
        match msg {
            Msg::Request(req, sig) => self.on_request(req, sig, ctx),
            Msg::Proposal {
                block,
                justify,
                sig,
            } => self.on_proposal(block, justify, sig, ctx),
            Msg::Vote {
                height,
                digest,
                replica,
                sig,
            } => self.on_vote(height, digest, replica, sig, ctx),
            Msg::Reply { .. } => {}
        }
    }

    fn on_timer(&mut self, _timer: TimerId, kind: u32, ctx: &mut dyn Context) {
        if kind == 4 && self.is_leader() {
            self.proposal_timer_armed = false;
            self.propose(ctx);
            // Keep the pacemaker running while work remains.
            if self.queue.backlog() > 0 || self.next_height <= self.last_payload_height + 3 {
                self.proposal_timer_armed = true;
                ctx.set_timer(self.cfg.proposal_interval_ns, 4);
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

/// The HotStuff client: f+1 matching replies.
pub struct HotStuffClient {
    /// Shared closed-loop core.
    pub core: ClientCore,
    cfg: BaselineConfig,
    crypto: NodeCrypto,
    // BTreeMap: the reply-matching scan iterates this (R1, `clippy.toml`).
    replies: BTreeMap<ReplicaId, (RequestId, Vec<u8>)>,
}

impl HotStuffClient {
    /// Build the client.
    pub fn new(
        id: ClientId,
        cfg: BaselineConfig,
        keys: &SystemKeys,
        costs: CostModel,
        workload: Box<dyn Workload>,
    ) -> Self {
        let retry = cfg.client_retry_ns;
        HotStuffClient {
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

impl Node for HotStuffClient {
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
