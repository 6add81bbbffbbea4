//! The verify stage shared by both executors (DESIGN.md §16).
//!
//! Authenticator and signature verification is an explicit pipeline
//! stage, not an inline call: the replica *dispatches* a
//! [`PoolVerifyTask`] for every aom packet or confirm batch it receives
//! and *completes* the verified job back into the [`neo_aom`] receiver
//! in strict dispatch order. [`VerifyLane`] picks where the task runs:
//!
//! * [`VerifyLane::Serial`] — inline on the dispatch path, costs charged
//!   to the meter's serial lane (the pre-batching behaviour);
//! * [`VerifyLane::SimParallel`] — inline, but charged to the meter's
//!   parallel lane: the simulator's model of a worker pool
//!   (`pipeline_verify` in [`crate::NeoConfig`]);
//! * [`VerifyLane::Pool`] — a real [`VerifyPool`]: submitted on
//!   dispatch, collected asynchronously by the tokio runtime through
//!   [`neo_sim::Node::on_async`].
//!
//! One code path, two executors: the inline lanes run the *same*
//! [`PoolVerifyTask::run`] and flow through the *same* reorder buffer as
//! the pooled lane — only the thread that executes `run` differs.

use crate::messages::SignedBatch;
use neo_aom::{ConfirmJob, VerifyJob};
use neo_crypto::{NodeCrypto, Principal, Signature, VerifyPool, VerifyTask};
use std::any::Any;
use std::sync::Arc;

/// Where a replica's authenticator verification runs.
#[derive(Clone)]
pub enum VerifyLane {
    /// Inline on the dispatch core, serial-lane charges.
    Serial,
    /// Inline, parallel-lane charges — the simulator's pool model.
    SimParallel,
    /// A real worker pool (tokio runtime only; never the simulator).
    Pool(Arc<VerifyPool>),
}

impl VerifyLane {
    /// Whether verification costs charge the meter's parallel lane.
    pub fn parallel(&self) -> bool {
        !matches!(self, VerifyLane::Serial)
    }

    /// The worker pool, when this lane dispatches asynchronously.
    pub fn pool(&self) -> Option<&Arc<VerifyPool>> {
        match self {
            VerifyLane::Pool(p) => Some(p),
            _ => None,
        }
    }
}

impl std::fmt::Debug for VerifyLane {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyLane::Serial => f.write_str("Serial"),
            VerifyLane::SimParallel => f.write_str("SimParallel"),
            VerifyLane::Pool(p) => write!(f, "Pool({} workers)", p.workers()),
        }
    }
}

/// One unit of dispatched verification work. A whole confirm batch is
/// one unit: it verifies through [`NodeCrypto::verify_batch`] under a
/// single reorder ticket, so batching survives the pipeline.
pub enum VerifyWork {
    /// An aom packet's authenticator ([`neo_aom::AomReceiver::submit_verify`]).
    Packet(VerifyJob),
    /// A batch of replica confirm signatures
    /// ([`neo_aom::AomReceiver::submit_confirm`]).
    Confirms(Vec<ConfirmJob>),
}

impl VerifyWork {
    /// Individual items verified by this unit.
    pub fn len(&self) -> usize {
        match self {
            VerifyWork::Packet(_) => 1,
            VerifyWork::Confirms(jobs) => jobs.len(),
        }
    }

    /// Whether the unit carries no items.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Run the unit's authenticator checks through `crypto`, recording
    /// each verdict in its job. The inline lanes call this with the
    /// replica's own façade (no clone); the pool lane calls it from
    /// [`PoolVerifyTask::run`] on a worker thread.
    pub fn verify(&mut self, crypto: &NodeCrypto, parallel: bool) {
        match self {
            VerifyWork::Packet(job) => job.verify(crypto, parallel),
            VerifyWork::Confirms(jobs) => {
                let items: Vec<(Principal, &[u8], &Signature)> = jobs
                    .iter()
                    .map(|j| {
                        let (replica, msg, sig) = j.batch_item();
                        (Principal::Replica(replica), msg, sig)
                    })
                    .collect();
                let results = crypto.verify_batch(&items);
                for (job, res) in jobs.iter_mut().zip(results) {
                    job.set_verified(res.is_ok());
                }
            }
        }
    }
}

/// The task shipped to the pool lane: the work plus a [`NodeCrypto`]
/// clone (a refcount bump). Clones share the meter, so worker-side
/// charges land on the owning node's meter exactly as inline charges
/// would — the simulator's cost accounting and the pool see the same
/// numbers.
pub struct PoolVerifyTask {
    /// The verification unit; outcomes are recorded in the jobs.
    pub work: VerifyWork,
    /// Piggybacked client batch-MAC verdict for packet work: the pool
    /// pre-verifies the §5.3 request authenticator so `execute_slot`
    /// finds it ready, keyed by the packet's header digest. (Inline
    /// lanes keep that check in `execute_slot`, so simulator charges
    /// stay where they were.)
    pub request_auth: Option<([u8; 32], bool)>,
    crypto: NodeCrypto,
    my_index: usize,
}

impl PoolVerifyTask {
    /// Package `work` for a worker thread.
    pub fn new(work: VerifyWork, crypto: NodeCrypto, my_index: usize) -> Self {
        PoolVerifyTask {
            work,
            request_auth: None,
            crypto,
            my_index,
        }
    }
}

impl VerifyTask for PoolVerifyTask {
    fn run(&mut self) {
        self.work.verify(&self.crypto, true);
        if let VerifyWork::Packet(job) = &self.work {
            if job.ok() {
                self.request_auth =
                    precheck_request_auth(job.digest(), job.payload(), &self.crypto, self.my_index);
            }
        }
    }

    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
}

/// Pre-verify my entry of the batch's client MAC vector, mirroring
/// `Replica::verify_request_auth`: a missing tag or unencodable batch is
/// a definitive `false`; a payload that is not a batch yields no verdict
/// (execute_slot treats it as a no-op before any auth check).
fn precheck_request_auth(
    digest: [u8; 32],
    payload: &[u8],
    crypto: &NodeCrypto,
    my_index: usize,
) -> Option<([u8; 32], bool)> {
    let signed = SignedBatch::from_bytes(payload)?;
    if signed.batch.is_empty() {
        return None;
    }
    let Some(tag) = signed.auth.get(my_index) else {
        return Some((digest, false));
    };
    let Ok(bytes) = neo_wire::encode(&signed.batch) else {
        return Some((digest, false));
    };
    let ok = crypto
        .verify_mac_from(Principal::Client(signed.batch.client), &bytes, tag)
        .is_ok();
    Some((digest, ok))
}
