//! The receiver-side aom library (§4.1–§4.2).
//!
//! Embedded in every replica, this state machine turns raw sequencer
//! output into an ordered stream of [`Delivery`] events:
//!
//! * verifies the authenticator — its own HMAC-vector entry (aom-hm) or
//!   the sequencer's secp256k1 signature (aom-pk), with signature-less
//!   hash-chained packets batch-verified once the next signed packet
//!   arrives (§4.4);
//! * delivers authenticated messages strictly in sequence-number order;
//! * detects gaps: when a later packet is authenticated but an earlier
//!   sequence number is missing, the host arms a timer and, on expiry,
//!   [`AomReceiver::declare_drop`]s the missing number, producing the
//!   `drop-notification` delivery (§3.2 drop detection);
//! * in **Byzantine-network** mode, locks the first message seen per
//!   sequence number, broadcasts a signed `⟨confirm, s, h⟩` and delivers
//!   only after 2f+1 matching confirms (§4.2), making sequencer
//!   equivocation harmless;
//! * produces [`OrderingCert`]s — transferably-authenticated proof that a
//!   message was ordered by the network, which NeoBFT's gap agreement
//!   forwards between replicas.

use crate::{AomPacket, Envelope};
use neo_crypto::{Digest, HmacKey, NodeCrypto, SequencerVerifyKey, Signature, SystemKeys};
use neo_wire::{encode, Authenticator, EpochNum, GroupId, ReplicaId, SeqNum};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, VecDeque};
use thiserror::Error;

/// Receiver-side failure when processing a packet.
#[derive(Debug, Error, PartialEq, Eq)]
pub enum AomError {
    /// Packet addressed to a different group.
    #[error("packet for a different group")]
    WrongGroup,
    /// Packet stamped in a different epoch than the receiver is in.
    #[error("packet from epoch {got}, receiver in {current}")]
    WrongEpoch {
        /// Epoch in the packet.
        got: EpochNum,
        /// Receiver's current epoch.
        current: EpochNum,
    },
    /// The sequencer never stamped this packet.
    #[error("unstamped packet")]
    Unstamped,
    /// Authenticator verification failed: forged or corrupted.
    #[error("authentication failed")]
    BadAuth,
    /// Sequence number already delivered or declared dropped.
    #[error("stale sequence number")]
    Stale,
    /// Sequence number too far beyond the delivery frontier; buffering
    /// it would let a Byzantine sender grow memory without bound
    /// (neo-lint R5).
    #[error("sequence number beyond the receive window")]
    OutOfWindow,
    /// Another message was already locked for this sequence number
    /// (Byzantine-network mode observed an equivocation attempt).
    #[error("conflicting message for locked sequence number")]
    Equivocation,
}

/// How the receiver authenticates sequencer output.
#[derive(Clone, Debug)]
pub enum ReceiverAuth {
    /// aom-hm: verify my entry of the HMAC vector.
    Hmac,
    /// aom-pk: verify the sequencer signature / hash chain.
    PublicKey,
}

/// Trust placed in the network infrastructure (§3.1's dual fault model).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum NetworkTrust {
    /// Hybrid model: network is at worst crash/omission faulty. A single
    /// authenticated aom message is its own ordering certificate.
    Trusted,
    /// Byzantine network: deliver only on 2f+1 matching confirms.
    Byzantine,
}

/// The confirm body (§4.2): ⟨confirm, s, h⟩ signed by the receiver.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Confirm {
    /// Group the packet belongs to.
    pub group: GroupId,
    /// Epoch of the packet.
    pub epoch: EpochNum,
    /// Sequence number being confirmed.
    pub seq: SeqNum,
    /// Identity hash of the packet (digest ‖ seq ‖ epoch).
    pub hash: Digest,
    /// Confirming replica.
    pub replica: ReplicaId,
}

/// A signed confirm.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct SignedConfirm {
    /// The confirm body.
    pub body: Confirm,
    /// The replica's Ed25519 signature over the encoded body.
    pub sig: Signature,
}

/// Transferably-authenticated proof that `packet` was ordered by aom.
/// "The entire message set, including the aom message and the matching
/// confirms, is delivered to the application and serves as an ordering
/// certificate" (§4.2).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct OrderingCert {
    /// The stamped, authenticated packet.
    pub packet: AomPacket,
    /// 2f+1 matching confirms (empty under the trusted-network model,
    /// where the authenticator alone is the certificate).
    pub confirms: Vec<SignedConfirm>,
}

/// One in-order delivery to the application.
#[derive(Clone, PartialEq, Debug)]
pub enum Delivery {
    /// An authenticated message with its ordering certificate.
    Message(OrderingCert),
    /// A drop-notification for a missing sequence number.
    Drop(SeqNum),
}

/// Point-in-time counters and buffer depths describing the receiver's
/// ordering buffer and drop detection. Hosts mirror these into their
/// observability registry (see `neo-sim`'s `obs` module).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AomReceiverStats {
    /// Messages delivered in order.
    pub delivered: u64,
    /// Drop-notifications emitted.
    pub drops_declared: u64,
    /// Authenticated packets buffered awaiting in-order delivery (or a
    /// confirm quorum, in Byzantine mode).
    pub buffered: u64,
    /// Signature-less packets parked awaiting hash-chain validation.
    pub pending_chain: u64,
    /// Sequence numbers locked awaiting confirms (Byzantine mode).
    pub locked: u64,
    /// Packets rejected as stale (sequence number already passed).
    pub stale_rejected: u64,
    /// Equivocation attempts ignored (conflicting message for a locked
    /// sequence number, Byzantine mode).
    pub equivocations_rejected: u64,
    /// Parked packets promoted by backwards hash-chain validation.
    pub chain_promoted: u64,
    /// Confirms this receiver generated for broadcast.
    pub confirms_generated: u64,
    /// Packets/confirms rejected for landing beyond the receive window.
    pub window_rejected: u64,
    /// Packets/confirms whose authenticator failed verification (forged,
    /// tampered, or scheme-confused): every [`AomError::BadAuth`].
    pub auth_rejected: u64,
    /// Internal failures (e.g. encoding our own wire types) survived
    /// without panicking.
    pub internal_errors: u64,
}

/// What an authenticated packet should do when its job completes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Accepted {
    /// Fully authenticated: enter ordering; signed packets additionally
    /// vouch, through the hash chain, for parked predecessors.
    Deliver {
        /// The authenticator was the sequencer's ECDSA signature.
        signed: bool,
    },
    /// aom-pk packet whose signature was skipped by the ratio
    /// controller: park it until a signed successor arrives (§4.4).
    Park,
}

/// The crypto half of packet ingestion, split out of
/// [`AomReceiver::on_packet`] so an executor can run it anywhere —
/// inline (the simulator's lane model) or on a `VerifyPool` worker
/// thread (the tokio runtime). Produced by
/// [`AomReceiver::submit_verify`]; run [`VerifyJob::verify`] on any
/// thread, then re-inject through [`AomReceiver::complete_verify`].
pub struct VerifyJob {
    pkt: AomPacket,
    epoch: EpochNum,
    auth: ReceiverAuth,
    hmac_key: HmacKey,
    my_index: usize,
    seq_vk: SequencerVerifyKey,
    outcome: Option<Result<Accepted, AomError>>,
}

impl VerifyJob {
    /// Sequence number of the packet under verification.
    pub fn seq(&self) -> SeqNum {
        self.pkt.header.seq
    }

    /// The packet's payload digest from its header — a stable key for
    /// caching verdicts derived from the payload (e.g. a host
    /// pre-verifying the client batch MAC alongside the authenticator).
    pub fn digest(&self) -> [u8; 32] {
        self.pkt.header.digest
    }

    /// The packet payload (hosts piggyback payload-level checks on the
    /// same worker dispatch).
    pub fn payload(&self) -> &[u8] {
        &self.pkt.payload
    }

    /// True once [`VerifyJob::verify`] ran and the authenticator checked
    /// out.
    pub fn ok(&self) -> bool {
        matches!(self.outcome, Some(Ok(_)))
    }

    /// Run the crypto: payload–digest binding, scheme-confusion check,
    /// and the authenticator itself. Pure with respect to the receiver,
    /// so it is safe on any thread. `parallel` picks the meter lane for
    /// the digest/MAC work; the aom-pk path keeps its split charge —
    /// chain bookkeeping inline, ECDSA to the worker lane.
    pub fn verify(&mut self, crypto: &NodeCrypto, parallel: bool) {
        self.outcome = Some(self.check(crypto, parallel));
    }

    fn check(&self, crypto: &NodeCrypto, parallel: bool) -> Result<Accepted, AomError> {
        let pkt = &self.pkt;
        // The authenticator covers digest ‖ seq ‖ epoch — the payload is
        // bound only through the digest, so the binding must be checked
        // here or a relay could swap the payload under a valid stamp
        // (§3.2 transferable authentication is over the whole message).
        let digest_cost = crypto.costs().sha256(pkt.payload.len());
        if parallel {
            crypto.meter().charge_parallel(digest_cost);
        } else {
            crypto.meter().charge_serial(digest_cost);
        }
        if neo_crypto::sha256(&pkt.payload).0 != pkt.header.digest {
            return Err(AomError::BadAuth);
        }
        // Reject authenticator-type confusion: a receiver configured for
        // one scheme must not accept the other (the sequencer never
        // mixes schemes within an epoch).
        match (&self.auth, &pkt.header.auth) {
            (ReceiverAuth::Hmac, Authenticator::HmacVector(_))
            | (ReceiverAuth::PublicKey, Authenticator::Signature { .. })
            | (_, Authenticator::Unstamped) => {}
            _ => return Err(AomError::BadAuth),
        }
        match &pkt.header.auth {
            Authenticator::Unstamped => Err(AomError::Unstamped),
            Authenticator::HmacVector(tags) => {
                if parallel {
                    crypto.meter().charge_parallel(crypto.costs().siphash);
                } else {
                    crypto.meter().charge_serial(crypto.costs().siphash);
                }
                neo_crypto::mac::verify_vector_entry(
                    &self.hmac_key,
                    self.my_index,
                    tags,
                    &pkt.header.auth_input(),
                )
                .map_err(|_| AomError::BadAuth)?;
                Ok(Accepted::Deliver { signed: false })
            }
            Authenticator::Signature { sig, .. } => match sig {
                Some(bytes) => {
                    // Chain bookkeeping (hash of the packet identity for
                    // future linkage checks) plus reorder-buffer admin
                    // runs inline with dispatch; the ECDSA verification
                    // itself goes to the worker pool.
                    crypto
                        .meter()
                        .charge_serial(crypto.costs().sha256(pkt.header.auth_input().len()) + 500);
                    crypto.meter().charge_parallel(crypto.costs().ecdsa_verify);
                    self.seq_vk
                        .verify(&pkt.header.auth_input(), &Signature(bytes.clone()))
                        .map_err(|_| AomError::BadAuth)?;
                    Ok(Accepted::Deliver { signed: true })
                }
                None => Ok(Accepted::Park),
            },
        }
    }
}

/// The signature half of confirm ingestion (Byzantine-network mode),
/// split out of [`AomReceiver::on_confirm`] the same way [`VerifyJob`]
/// splits packet ingestion. Confirm signatures dominate verification
/// volume in Byzantine mode (2f+1 Ed25519 checks per slot), so hosts
/// batch them onto the worker pool via `NodeCrypto::verify_batch`.
pub struct ConfirmJob {
    sc: SignedConfirm,
    epoch: EpochNum,
    bytes: Vec<u8>,
    outcome: Option<Result<(), AomError>>,
}

impl ConfirmJob {
    /// Sequence number the confirm vouches for.
    pub fn seq(&self) -> SeqNum {
        self.sc.body.seq
    }

    /// The encoded confirm body and its claimed signer, for hosts that
    /// verify a whole batch in one `NodeCrypto::verify_batch` call.
    pub fn batch_item(&self) -> (ReplicaId, &[u8], &Signature) {
        (self.sc.body.replica, &self.bytes, &self.sc.sig)
    }

    /// Record a verdict computed externally (e.g. by `verify_batch`).
    pub fn set_verified(&mut self, ok: bool) {
        self.outcome = Some(if ok { Ok(()) } else { Err(AomError::BadAuth) });
    }

    /// Verify the peer's Ed25519 signature over the encoded body.
    /// Routed through the self-charging `NodeCrypto` façade; safe on any
    /// thread.
    pub fn verify(&mut self, crypto: &NodeCrypto) {
        self.outcome = Some(
            crypto
                .verify(
                    neo_crypto::Principal::Replica(self.sc.body.replica),
                    &self.bytes,
                    &self.sc.sig,
                )
                .map_err(|_| AomError::BadAuth),
        );
    }
}

/// The receiver state machine.
pub struct AomReceiver {
    group: GroupId,
    me: ReplicaId,
    my_index: usize,
    epoch: EpochNum,
    f: usize,
    auth: ReceiverAuth,
    trust: NetworkTrust,
    keys: SystemKeys,
    hmac_key: HmacKey,
    seq_vk: SequencerVerifyKey,
    next: SeqNum,
    /// Fully authenticated packets awaiting in-order delivery (trusted
    /// mode) or their confirm quorum (Byzantine mode: entry exists but
    /// delivery waits).
    ready: BTreeMap<SeqNum, AomPacket>,
    /// aom-pk: signature-less packets awaiting hash-chain validation.
    pending_chain: BTreeMap<SeqNum, AomPacket>,
    /// Byzantine mode: hash locked per sequence number (first message
    /// wins; conflicting ones are equivocation attempts).
    locked: BTreeMap<SeqNum, Digest>,
    /// Byzantine mode: confirms collected per sequence number.
    confirms: BTreeMap<SeqNum, BTreeMap<ReplicaId, SignedConfirm>>,
    /// Confirms this receiver generated but the host has not yet sent.
    outgoing: Vec<SignedConfirm>,
    out: VecDeque<Delivery>,
    /// Messages delivered (stats).
    pub delivered: u64,
    /// Drop-notifications delivered (stats).
    pub drops_declared: u64,
    stale_rejected: u64,
    equivocations_rejected: u64,
    chain_promoted: u64,
    confirms_generated: u64,
    window_rejected: u64,
    auth_rejected: u64,
    internal_errors: u64,
}

impl AomReceiver {
    /// How far past the delivery frontier (`next`) a sequence number may
    /// land and still be buffered. Packets and confirms beyond the
    /// window are rejected so a Byzantine sequencer or peer cannot grow
    /// `pending_chain`/`confirms` without bound (neo-lint R5).
    pub const SEQ_WINDOW: u64 = 4096;

    /// Build the receiver for replica `me` (at position `my_index` in the
    /// group membership) in a group tolerating `f` faulty receivers.
    pub fn new(
        group: GroupId,
        me: ReplicaId,
        my_index: usize,
        f: usize,
        auth: ReceiverAuth,
        trust: NetworkTrust,
        keys: &SystemKeys,
    ) -> Self {
        let epoch = EpochNum::INITIAL;
        AomReceiver {
            group,
            me,
            my_index,
            epoch,
            f,
            auth,
            trust,
            keys: keys.clone(),
            hmac_key: keys.sequencer_hmac_key(group, epoch, me),
            seq_vk: keys.sequencer_key(group, epoch).verify_key(),
            next: SeqNum::FIRST,
            ready: BTreeMap::new(),
            pending_chain: BTreeMap::new(),
            locked: BTreeMap::new(),
            confirms: BTreeMap::new(),
            outgoing: Vec::new(),
            out: VecDeque::new(),
            delivered: 0,
            drops_declared: 0,
            stale_rejected: 0,
            equivocations_rejected: 0,
            chain_promoted: 0,
            confirms_generated: 0,
            window_rejected: 0,
            auth_rejected: 0,
            internal_errors: 0,
        }
    }

    /// Counters and buffer depths for observability.
    pub fn stats(&self) -> AomReceiverStats {
        AomReceiverStats {
            delivered: self.delivered,
            drops_declared: self.drops_declared,
            buffered: self.ready.len() as u64,
            pending_chain: self.pending_chain.len() as u64,
            locked: self.locked.len() as u64,
            stale_rejected: self.stale_rejected,
            equivocations_rejected: self.equivocations_rejected,
            chain_promoted: self.chain_promoted,
            confirms_generated: self.confirms_generated,
            window_rejected: self.window_rejected,
            auth_rejected: self.auth_rejected,
            internal_errors: self.internal_errors,
        }
    }

    /// Current epoch.
    pub fn epoch(&self) -> EpochNum {
        self.epoch
    }

    /// Next sequence number expected.
    pub fn next_seq(&self) -> SeqNum {
        self.next
    }

    /// Enter a new epoch: fresh sequence space, fresh sequencer keys,
    /// cleared buffers (§4.2: "start delivering authenticated aom
    /// messages from the new sequencer switch and ignore messages from
    /// the old one").
    pub fn install_epoch(&mut self, epoch: EpochNum) {
        self.epoch = epoch;
        self.hmac_key = self.keys.sequencer_hmac_key(self.group, epoch, self.me);
        self.seq_vk = self.keys.sequencer_key(self.group, epoch).verify_key();
        self.next = SeqNum::FIRST;
        self.ready.clear();
        self.pending_chain.clear();
        self.locked.clear();
        self.confirms.clear();
    }

    /// Process one stamped aom packet from the wire: the inline
    /// composition of [`AomReceiver::submit_verify`],
    /// [`VerifyJob::verify`] (on the serial lane) and
    /// [`AomReceiver::complete_verify`]. Executors that pick a lane or a
    /// worker thread for the middle step call the halves themselves.
    pub fn on_packet(&mut self, pkt: AomPacket, crypto: &NodeCrypto) -> Result<(), AomError> {
        let mut job = self.submit_verify(pkt)?;
        job.verify(crypto, false);
        self.complete_verify(job, crypto)
    }

    /// Admission half of packet ingestion: group, epoch, stamp,
    /// staleness and window checks — everything that needs `&mut self`
    /// but no crypto. On success returns the self-contained
    /// [`VerifyJob`]; run it on any thread and feed it back through
    /// [`AomReceiver::complete_verify`].
    pub fn submit_verify(&mut self, pkt: AomPacket) -> Result<VerifyJob, AomError> {
        if pkt.header.group != self.group {
            return Err(AomError::WrongGroup);
        }
        if pkt.header.epoch != self.epoch {
            return Err(AomError::WrongEpoch {
                got: pkt.header.epoch,
                current: self.epoch,
            });
        }
        if !pkt.header.is_stamped() && !matches!(pkt.header.auth, Authenticator::Signature { .. }) {
            return Err(AomError::Unstamped);
        }
        let seq = pkt.header.seq;
        if seq < self.next {
            self.stale_rejected += 1;
            return Err(AomError::Stale);
        }
        if seq.0 > self.next.0 + Self::SEQ_WINDOW {
            self.window_rejected += 1;
            return Err(AomError::OutOfWindow);
        }
        Ok(VerifyJob {
            epoch: self.epoch,
            auth: self.auth.clone(),
            hmac_key: self.hmac_key,
            my_index: self.my_index,
            seq_vk: self.seq_vk.clone(),
            pkt,
            outcome: None,
        })
    }

    /// Re-injection half: apply a completed [`VerifyJob`]'s verdict.
    /// Admission is re-checked — between submit and complete the
    /// receiver may have advanced past the sequence number or switched
    /// epochs (pooled executors complete asynchronously). A job whose
    /// verdict was never recorded (e.g. its worker panicked) is counted
    /// and rejected as unauthenticated.
    pub fn complete_verify(&mut self, job: VerifyJob, crypto: &NodeCrypto) -> Result<(), AomError> {
        if job.epoch != self.epoch {
            return Err(AomError::WrongEpoch {
                got: job.epoch,
                current: self.epoch,
            });
        }
        let seq = job.pkt.header.seq;
        if seq < self.next {
            self.stale_rejected += 1;
            return Err(AomError::Stale);
        }
        let verdict = match job.outcome {
            Some(v) => v,
            None => {
                self.internal_errors += 1;
                Err(AomError::BadAuth)
            }
        };
        match verdict {
            Err(e) => {
                if e == AomError::BadAuth {
                    self.auth_rejected += 1;
                }
                Err(e)
            }
            Ok(Accepted::Park) => {
                // Signature skipped by the ratio controller: park it
                // until a signed successor arrives (§4.4).
                // neo-lint: allow(R5, seq bounded to SEQ_WINDOW at submit)
                self.pending_chain.insert(seq, job.pkt);
                Ok(())
            }
            Ok(Accepted::Deliver { signed }) => {
                if signed {
                    // A signed packet also vouches, through the hash
                    // chain, for buffered signature-less predecessors.
                    self.accept(job.pkt.clone(), crypto);
                    self.validate_chain_backwards(&job.pkt, crypto);
                } else {
                    self.accept(job.pkt, crypto);
                }
                Ok(())
            }
        }
    }

    /// Walk the hash chain backwards from a verified packet, promoting
    /// parked signature-less packets whose linkage checks out. The
    /// contiguous run of parked predecessors is collected first, then
    /// the linkage hashes are verified as one amortized batch
    /// (`NodeCrypto::verify_chain_links` — the SHA-256 base cost is paid
    /// once per batch, not per packet, §4.4). Packets past the first
    /// broken link are re-parked exactly where the incremental walk
    /// would have left them; the broken one stays discarded.
    fn validate_chain_backwards(&mut self, verified: &AomPacket, crypto: &NodeCrypto) {
        let mut run: Vec<AomPacket> = Vec::new();
        let mut expected: Vec<Digest> = Vec::new();
        let mut successor = verified.clone();
        loop {
            let Authenticator::Signature { prev_hash, .. } = &successor.header.auth else {
                break;
            };
            let prev_seq = successor.header.seq.prev();
            if prev_seq == SeqNum(0) {
                break;
            }
            let Some(candidate) = self.pending_chain.remove(&prev_seq) else {
                break;
            };
            expected.push(Digest(*prev_hash));
            successor = candidate.clone();
            run.push(candidate);
        }
        if run.is_empty() {
            return;
        }
        let inputs: Vec<Vec<u8>> = run.iter().map(|p| p.header.auth_input()).collect();
        let links: Vec<(Digest, &[u8])> = expected
            .iter()
            .copied()
            .zip(inputs.iter().map(|i| i.as_slice()))
            .collect();
        let ok = crypto.verify_chain_links(&links);
        for reparked in run.drain(ok.min(run.len())..).skip(1) {
            self.pending_chain.insert(reparked.header.seq, reparked);
        }
        for promoted in run {
            self.chain_promoted += 1;
            self.accept(promoted, crypto);
        }
    }

    /// An authenticated packet enters ordering (and, in Byzantine mode,
    /// the confirm exchange).
    fn accept(&mut self, pkt: AomPacket, crypto: &NodeCrypto) {
        let seq = pkt.header.seq;
        if seq < self.next || self.ready.contains_key(&seq) {
            return;
        }
        match self.trust {
            NetworkTrust::Trusted => {
                self.ready.insert(seq, pkt);
                self.drain();
            }
            NetworkTrust::Byzantine => {
                let hash = pkt.identity_hash();
                if let Some(locked) = self.locked.get(&seq) {
                    if *locked != hash {
                        // Equivocation attempt: ignore (§4.2 "ignores
                        // subsequent aom messages with the same sequence
                        // number").
                        self.equivocations_rejected += 1;
                        return;
                    }
                    self.ready.entry(seq).or_insert(pkt);
                } else {
                    self.locked.insert(seq, hash);
                    self.ready.insert(seq, pkt);
                    // Broadcast my confirm.
                    let body = Confirm {
                        group: self.group,
                        epoch: self.epoch,
                        seq,
                        hash,
                        replica: self.me,
                    };
                    let Ok(body_bytes) = encode(&body) else {
                        // Cannot even encode our own confirm: count it
                        // and skip the broadcast rather than panic.
                        self.internal_errors += 1;
                        return;
                    };
                    let sig = crypto.sign(&body_bytes);
                    let sc = SignedConfirm {
                        body: body.clone(),
                        sig,
                    };
                    self.confirms
                        .entry(seq)
                        .or_default()
                        .insert(self.me, sc.clone());
                    self.outgoing.push(sc);
                    self.confirms_generated += 1;
                }
                self.drain();
            }
        }
    }

    /// Process a confirm from a peer receiver (Byzantine-network mode):
    /// the inline composition of [`AomReceiver::submit_confirm`],
    /// [`ConfirmJob::verify`] and [`AomReceiver::complete_confirm`].
    pub fn on_confirm(&mut self, sc: SignedConfirm, crypto: &NodeCrypto) -> Result<(), AomError> {
        let Some(mut job) = self.submit_confirm(sc)? else {
            return Ok(()); // ignore stray confirms in trusted mode
        };
        job.verify(crypto);
        self.complete_confirm(job)
    }

    /// Admission half of confirm ingestion: group, epoch, staleness and
    /// window checks, then "can this confirm still matter?", then body
    /// encoding. `Ok(None)` means the confirm is irrelevant: trusted-
    /// network mode ignores strays, and in Byzantine mode a confirm whose
    /// sender is already held for this sequence number, or whose hash
    /// already has its 2f+1, cannot change what gets delivered — it is
    /// dropped before a signature is spent on it.
    pub fn submit_confirm(&mut self, sc: SignedConfirm) -> Result<Option<ConfirmJob>, AomError> {
        if self.trust != NetworkTrust::Byzantine {
            return Ok(None);
        }
        if sc.body.group != self.group {
            return Err(AomError::WrongGroup);
        }
        if sc.body.epoch != self.epoch {
            return Err(AomError::WrongEpoch {
                got: sc.body.epoch,
                current: self.epoch,
            });
        }
        if sc.body.seq < self.next {
            self.stale_rejected += 1;
            return Err(AomError::Stale);
        }
        if sc.body.seq.0 > self.next.0 + Self::SEQ_WINDOW {
            self.window_rejected += 1;
            return Err(AomError::OutOfWindow);
        }
        let held_from_sender = self
            .confirms
            .get(&sc.body.seq)
            .is_some_and(|held| held.contains_key(&sc.body.replica));
        if held_from_sender || self.has_confirm_quorum(sc.body.seq, sc.body.hash) {
            return Ok(None);
        }
        let Ok(bytes) = encode(&sc.body) else {
            self.internal_errors += 1;
            return Err(AomError::BadAuth);
        };
        Ok(Some(ConfirmJob {
            epoch: self.epoch,
            sc,
            bytes,
            outcome: None,
        }))
    }

    /// Re-injection half: apply a completed [`ConfirmJob`]'s verdict,
    /// re-checking admission (the receiver may have moved on while the
    /// signature was on a worker thread).
    pub fn complete_confirm(&mut self, job: ConfirmJob) -> Result<(), AomError> {
        if job.epoch != self.epoch {
            return Err(AomError::WrongEpoch {
                got: job.epoch,
                current: self.epoch,
            });
        }
        let seq = job.sc.body.seq;
        if seq < self.next {
            self.stale_rejected += 1;
            return Err(AomError::Stale);
        }
        match job.outcome {
            Some(Ok(())) => {}
            Some(Err(e)) => {
                if e == AomError::BadAuth {
                    self.auth_rejected += 1;
                }
                return Err(e);
            }
            None => {
                self.internal_errors += 1;
                self.auth_rejected += 1;
                return Err(AomError::BadAuth);
            }
        }
        // neo-lint: allow(R5, seq bounded to SEQ_WINDOW at submit)
        let slot_confirms = self.confirms.entry(seq).or_default();
        // First valid confirm per sender wins, as at submit (two from
        // one sender can both be in flight on the verify pool).
        slot_confirms.entry(job.sc.body.replica).or_insert(job.sc);
        self.drain();
        Ok(())
    }

    /// Confirms this receiver needs broadcast to the group; the host node
    /// drains and sends them (optionally batched).
    pub fn take_outgoing_confirms(&mut self) -> Vec<SignedConfirm> {
        std::mem::take(&mut self.outgoing)
    }

    /// Byzantine mode: the confirms held for `seq` that carry `hash`
    /// number 2f+1 — the one quorum check, shared by confirm admission (a
    /// full slot needs no further signature spent on it) and delivery
    /// (where `hash` is the locked one).
    fn has_confirm_quorum(&self, seq: SeqNum, hash: Digest) -> bool {
        self.confirms
            .get(&seq)
            .is_some_and(|held| held.values().filter(|c| c.body.hash == hash).count() > 2 * self.f)
    }

    /// Deliver everything in order that is deliverable.
    fn drain(&mut self) {
        loop {
            let seq = self.next;
            if !self.ready.contains_key(&seq) {
                return;
            }
            let hash = self.locked.get(&seq).copied();
            if self.trust == NetworkTrust::Byzantine
                && !hash.is_some_and(|h| self.has_confirm_quorum(seq, h))
            {
                return;
            }
            // The slot leaves the receiver: its packet and the confirms
            // for the locked hash move into the certificate.
            let Some(packet) = self.ready.remove(&seq) else {
                return;
            };
            self.locked.remove(&seq);
            let confirms = self
                .confirms
                .remove(&seq)
                .unwrap_or_default()
                .into_values()
                .filter(|c| Some(c.body.hash) == hash)
                .collect();
            self.out
                .push_back(Delivery::Message(OrderingCert { packet, confirms }));
            self.delivered += 1;
            self.next = self.next.next();
        }
    }

    /// Pull the next in-order delivery, if any.
    pub fn poll(&mut self) -> Option<Delivery> {
        self.out.pop_front()
    }

    /// If a later packet is waiting while `next` is missing, the network
    /// dropped (or delayed) a message: returns the missing sequence
    /// number so the host can arm its gap timer.
    pub fn gap_pending(&self) -> Option<SeqNum> {
        let oldest_waiting = [
            self.ready.keys().next(),
            self.pending_chain.keys().next(),
            self.locked.keys().next(),
        ]
        .into_iter()
        .flatten()
        .min()?;
        (*oldest_waiting > self.next).then_some(self.next)
    }

    /// The host's gap timer fired: emit a drop-notification for the
    /// missing sequence number and move on.
    pub fn declare_drop(&mut self) -> SeqNum {
        let seq = self.next;
        self.out.push_back(Delivery::Drop(seq));
        self.drops_declared += 1;
        self.next = self.next.next();
        self.drain();
        seq
    }

    /// Advance the delivery frontier to `next` without delivering the
    /// skipped sequence numbers. A replica that recovered slots
    /// `1..next-1` from a checkpoint and its write-ahead log must not
    /// see them delivered again; everything buffered below the new
    /// frontier (including queued deliveries) is discarded. Moving the
    /// frontier backwards is refused — that would re-open delivered
    /// sequence numbers.
    pub fn fast_forward(&mut self, next: SeqNum) {
        if next <= self.next {
            return;
        }
        self.next = next;
        self.ready = self.ready.split_off(&next);
        self.pending_chain = self.pending_chain.split_off(&next);
        self.locked = self.locked.split_off(&next);
        self.confirms = self.confirms.split_off(&next);
        self.out.retain(|d| match d {
            Delivery::Message(cert) => cert.packet.header.seq >= next,
            Delivery::Drop(seq) => *seq >= next,
        });
        // Anything newly contiguous behind the frontier can now flow.
        self.drain();
    }

    /// Transferable authentication: verify an ordering certificate
    /// received from *another* replica (e.g. in a qery-reply or
    /// gap-decision, §5.4). Checks my own HMAC entry or the sequencer
    /// signature, and in Byzantine mode the 2f+1 matching confirms.
    pub fn verify_cert(&self, cert: &OrderingCert, crypto: &NodeCrypto) -> bool {
        self.verify_cert_in_epoch(cert, self.epoch, crypto)
    }

    /// Like [`Self::verify_cert`], but against an explicit epoch's keys —
    /// view changes must validate certificates from earlier epochs
    /// (§B.1's log-validity rule).
    pub fn verify_cert_in_epoch(
        &self,
        cert: &OrderingCert,
        epoch: EpochNum,
        crypto: &NodeCrypto,
    ) -> bool {
        let pkt = &cert.packet;
        if pkt.header.group != self.group || pkt.header.epoch != epoch {
            return false;
        }
        let (hmac_key, seq_vk) = if epoch == self.epoch {
            (self.hmac_key, self.seq_vk.clone())
        } else {
            (
                self.keys.sequencer_hmac_key(self.group, epoch, self.me),
                self.keys.sequencer_key(self.group, epoch).verify_key(),
            )
        };
        let auth_ok = match &pkt.header.auth {
            Authenticator::Unstamped => false,
            Authenticator::HmacVector(tags) => {
                crypto.meter().charge_serial(crypto.costs().siphash);
                neo_crypto::mac::verify_vector_entry(
                    &hmac_key,
                    self.my_index,
                    tags,
                    &pkt.header.auth_input(),
                )
                .is_ok()
            }
            Authenticator::Signature { sig, .. } => match sig {
                Some(bytes) => {
                    crypto.meter().charge_parallel(crypto.costs().ecdsa_verify);
                    seq_vk
                        .verify(&pkt.header.auth_input(), &Signature(bytes.clone()))
                        .is_ok()
                }
                // A forwarded certificate must carry a signed packet; a
                // chain-only packet cannot stand alone.
                None => false,
            },
        };
        if !auth_ok {
            return false;
        }
        if self.trust == NetworkTrust::Byzantine {
            let hash = pkt.identity_hash();
            let quorum = 2 * self.f + 1;
            let mut seen = std::collections::BTreeSet::new();
            for sc in &cert.confirms {
                if sc.body.hash != hash
                    || sc.body.seq != pkt.header.seq
                    || sc.body.epoch != pkt.header.epoch
                    || sc.body.group != pkt.header.group
                {
                    continue;
                }
                let Ok(bytes) = encode(&sc.body) else {
                    continue;
                };
                if crypto
                    .verify(
                        neo_crypto::Principal::Replica(sc.body.replica),
                        &bytes,
                        &sc.sig,
                    )
                    .is_ok()
                {
                    seen.insert(sc.body.replica);
                }
            }
            if seen.len() < quorum {
                return false;
            }
        }
        true
    }

    /// Helper for hosts: decode an [`Envelope`] payload and feed whatever
    /// aom-relevant content it carries. Returns `true` if the envelope
    /// was consumed by the aom layer.
    pub fn on_envelope(&mut self, env: &Envelope, crypto: &NodeCrypto) -> bool {
        match env {
            Envelope::Aom(pkt) => {
                let _ = self.on_packet(pkt.clone(), crypto);
                true
            }
            Envelope::Confirm(sc) => {
                let _ = self.on_confirm(sc.clone(), crypto);
                true
            }
            Envelope::ConfirmBatch(batch) => {
                for sc in batch {
                    let _ = self.on_confirm(sc.clone(), crypto);
                }
                true
            }
            _ => false,
        }
    }
}
