//! The verify stage shared by both executors (DESIGN.md §16).
//!
//! Authenticator and signature verification is an explicit pipeline
//! stage, not an inline call: the replica *dispatches* a [`VerifyWork`]
//! unit for every aom packet or confirm batch it receives and
//! *completes* the verified job back into the [`neo_aom`] receiver in
//! strict dispatch order. Where the unit runs is read off the config
//! once: with `verify_workers > 0` the replica owns a real
//! [`neo_crypto::VerifyPool`] — units are submitted as
//! [`PoolVerifyTask`]s and collected asynchronously by the tokio runtime
//! through [`neo_sim::Node::on_async`] — otherwise they run inline on
//! the dispatch path, charged to the meter's parallel lane when
//! `pipeline_verify` is set (the simulator's model of a worker pool) and
//! to its serial lane when not.
//!
//! One code path, two executors: inline and pooled units run the *same*
//! [`VerifyWork::verify`] and flow through the *same* reorder buffer —
//! only the thread that executes it differs.

use crate::messages::SignedBatch;
use neo_aom::{ConfirmJob, VerifyJob};
use neo_crypto::{NodeCrypto, Principal, Signature, VerifyTask};
use std::any::Any;

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
    /// each verdict in its job. Inline dispatch calls this with the
    /// replica's own façade (no clone); the pool calls it from
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

/// The task shipped to the pool: the work plus a [`NodeCrypto`]
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
    /// dispatch keeps that check in `execute_slot`, so simulator charges
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

/// Pre-verify my entry of the batch's client MAC vector: a payload
/// that is not a batch yields no verdict (execute_slot treats it as a
/// no-op before any auth check).
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
    Some((digest, request_auth_ok(&signed, crypto, my_index)))
}

/// The client-MAC check (§5.3): replica `my_index`'s entry of a batch's
/// MAC vector. The vector is computed over the encoded
/// [`crate::messages::BatchRequest`], so one tag covers every op in the
/// envelope — tampering with any single op invalidates the whole batch.
/// A missing tag or unencodable batch is a definitive `false`. Called
/// from the pool's worker task and from the replica's inline check, so
/// the two cannot drift.
pub(crate) fn request_auth_ok(signed: &SignedBatch, crypto: &NodeCrypto, my_index: usize) -> bool {
    let Some(tag) = signed.auth.get(my_index) else {
        return false;
    };
    let Ok(bytes) = neo_wire::encode(&signed.batch) else {
        return false; // unencodable batch: drop, never panic
    };
    crypto
        .verify_mac_from(Principal::Client(signed.batch.client), &bytes, tag)
        .is_ok()
}
