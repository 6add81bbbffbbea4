//! NeoBFT wire messages (§5.3–§5.5, §B).
//!
//! Signed messages carry `(body, signature)` where the signature covers
//! the bincode encoding of the body. Messages the paper marks as
//! unsigned (`query`, `query-reply`, `gap-recv-message`) are unsigned
//! here too — their validity rests on the transferable authentication of
//! the enclosed ordering certificates.

use neo_aom::{AomBatch, OrderingCert};
use neo_crypto::{Digest, NodeCrypto, Principal, Signature};
use neo_wire::{encode, ClientId, EpochNum, ReplicaId, RequestId, SlotNum, ViewId};
use serde::{de::DeserializeOwned, Deserialize, Serialize};

/// Sign a message body as this node.
///
/// Encoding our own wire types cannot fail in practice; if it ever
/// does, the fallback is an empty signature that never verifies —
/// peers drop the message instead of this node panicking mid-protocol.
pub fn sign_body<T: Serialize>(body: &T, crypto: &NodeCrypto) -> Signature {
    match encode(body) {
        Ok(bytes) => crypto.sign(&bytes),
        Err(_) => Signature::empty(),
    }
}

/// Verify a message body's signature against a principal.
pub fn verify_body<T: Serialize + DeserializeOwned>(
    body: &T,
    sig: &Signature,
    signer: Principal,
    crypto: &NodeCrypto,
) -> bool {
    let Ok(bytes) = encode(body) else {
        return false;
    };
    crypto.verify(signer, &bytes, sig).is_ok()
}

/// A client batch request (§5.3 generalized): ⟨request, ops,
/// first-request-id⟩σc — many ops, one authenticator, one aom slot.
///
/// The ops occupy consecutive request ids `first_request_id ..=
/// last_request_id()`, strictly increasing per client. A batch of one is
/// the paper's original single-request fast path; there is exactly one
/// payload format on the wire either way.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct BatchRequest {
    /// The batched operations, in request-id order.
    pub ops: AomBatch,
    /// Request id of `ops[0]`; op `k` has id `first_request_id + k`.
    pub first_request_id: RequestId,
    /// The issuing client.
    pub client: ClientId,
}

impl BatchRequest {
    /// A batch of one — the original closed-loop request shape.
    pub fn single(op: Vec<u8>, request_id: RequestId, client: ClientId) -> Self {
        BatchRequest {
            ops: AomBatch::single(op),
            first_request_id: request_id,
            client,
        }
    }

    /// Number of ops in the batch.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True if the batch carries no ops (never sent by correct clients).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Request id of the last op in the batch.
    pub fn last_request_id(&self) -> RequestId {
        RequestId(
            self.first_request_id
                .0
                .saturating_add(self.ops.len().saturating_sub(1) as u64),
        )
    }
}

/// An authenticated batch — the aom payload.
///
/// Batches carry a MAC *vector* (one entry per replica) rather than a
/// signature: integrity and ordering are already covered by the aom
/// authenticator, so the client authenticator only proves the client's
/// identity to each replica — exactly the cheap per-request
/// authentication the single-round-trip fast path needs. Signatures are
/// reserved for the rare-path protocol messages (gap agreement, view
/// changes) where transferability matters. The MAC covers the encoded
/// [`BatchRequest`], i.e. every op in the batch at once.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct SignedBatch {
    /// The batch body.
    pub batch: BatchRequest,
    /// Client MAC vector: entry `i` authenticates the batch to
    /// replica `i`.
    pub auth: Vec<neo_wire::HmacTag>,
}

impl SignedBatch {
    /// Encode to aom payload bytes. Falls back to an empty payload
    /// (which no replica accepts) if encoding fails.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode(self).unwrap_or_default()
    }

    /// Decode from aom payload bytes.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        neo_wire::decode(bytes).ok()
    }
}

/// A replica's reply (§5.3 generalized to batches): ⟨reply, view-id, i,
/// log-slot-num, log-hash, first-request-id, results⟩σi. One reply and
/// one MAC per *batch*; per-op results ride inside, in request-id order.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct Reply {
    /// View in which the replica executed the batch.
    pub view: ViewId,
    /// The replying replica.
    pub replica: ReplicaId,
    /// Log slot the batch occupies.
    pub slot: SlotNum,
    /// Hash chain over the log up to and including `slot` (O(1) to
    /// maintain, §5.3).
    pub log_hash: Digest,
    /// Echo of the batch's first request id; result `k` answers request
    /// `request_id + k`.
    pub request_id: RequestId,
    /// Per-op execution results, in request-id order.
    pub results: Vec<Vec<u8>>,
}

/// Body of a gap-drop message (§5.4), signed.
#[derive(Clone, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct GapDropBody {
    /// View of the agreement.
    pub view: ViewId,
    /// The replica reporting the drop.
    pub replica: ReplicaId,
    /// Slot under agreement.
    pub slot: SlotNum,
}

/// Leader's decision for a gap slot.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum GapDecisionBody {
    /// The message exists: here is its ordering certificate.
    Recv(OrderingCert),
    /// 2f+1 replicas report it dropped: commit a no-op.
    Drop(Vec<(GapDropBody, Signature)>),
}

/// Body of a gap-prepare / gap-commit, signed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct GapVoteBody {
    /// View of the agreement.
    pub view: ViewId,
    /// Voting replica.
    pub replica: ReplicaId,
    /// Slot under agreement.
    pub slot: SlotNum,
    /// `true` = recv, `false` = drop.
    pub recv: bool,
}

/// A gap certificate: 2f+1 gap-commits proving a slot was committed as a
/// no-op (or as a recv) — consumed by state sync and view changes.
pub type GapCert = Vec<(GapVoteBody, Signature)>;

/// One serialized log entry inside a view-change message.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum WireLogEntry {
    /// A request slot, proven by its ordering certificate.
    Request(OrderingCert),
    /// A no-op slot, proven by a gap certificate.
    NoOp(GapCert),
}

/// An epoch certificate: 2f+1 epoch-start messages with matching epoch
/// and starting slot (§5.5).
pub type EpochCert = Vec<(EpochStartBody, Signature)>;

/// Body of an epoch-start message, signed.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct EpochStartBody {
    /// The epoch being started.
    pub epoch: EpochNum,
    /// First log slot of the epoch.
    pub start_slot: SlotNum,
    /// Signing replica.
    pub replica: ReplicaId,
}

/// Body of a view-change message (§B.1), signed.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct ViewChangeBody {
    /// The new view being proposed.
    pub new_view: ViewId,
    /// Sender.
    pub replica: ReplicaId,
    /// Epoch certificates for every epoch the sender's log has started
    /// (beyond the initial epoch, which needs none).
    pub epoch_certs: Vec<(EpochNum, SlotNum, EpochCert)>,
    /// Absolute slot of `log[0]`. Zero unless the sender compacted its
    /// log below a certified checkpoint; entry `i` occupies slot
    /// `log_base + i`.
    pub log_base: SlotNum,
    /// The sender's held log (everything at or above `log_base`).
    pub log: Vec<WireLogEntry>,
}

/// Body of a state-sync message (§B.2), signed.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct SyncBody {
    /// Current view.
    pub view: ViewId,
    /// Sender.
    pub replica: ReplicaId,
    /// Latest log index that is a multiple of the sync interval.
    pub slot: SlotNum,
    /// Gap certificates for slots committed as no-op in this view.
    pub drops: Vec<(SlotNum, GapCert)>,
    /// Digest of the sender's checkpoint at `slot` (the full recovery
    /// state: chain hash, app snapshot, client table — see
    /// `recovery::CheckpointData`). `Digest::ZERO` when the sender makes
    /// no checkpoint claim (snapshot-less app); 2f+1 matching non-zero
    /// digests certify the checkpoint — what the log is trimmed below,
    /// laggards are served, and a restart resumes from.
    pub state_digest: Digest,
}

/// Body of a state-transfer query, signed (peers do real work to
/// answer — snapshot serialization and log suffixes — so the asker must
/// prove it is a replica).
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct StateQueryBody {
    /// The recovering replica.
    pub replica: ReplicaId,
    /// The asker's resolved prefix: every slot below this one is held
    /// locally and resolved (a slot still pending below the tail is as
    /// missing as one past it). Peers send a checkpoint only if theirs
    /// is newer, plus the log suffix from `max(have, checkpoint slot)`.
    pub have: SlotNum,
}

/// All NeoBFT protocol messages (transported as `Envelope::App` bytes).
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum NeoMsg {
    /// Replica → client, authenticated with a per-client MAC.
    Reply(Reply, neo_wire::HmacTag),
    /// Client → replicas: unicast fallback when aom stalls (§5.3).
    RequestUnicast(SignedBatch),
    /// Non-leader → leader: recover a missing slot (§5.4). Unsigned.
    Query {
        /// Current view.
        view: ViewId,
        /// Missing slot.
        slot: SlotNum,
    },
    /// Leader → replica: the ordering certificate for a queried slot.
    /// Unsigned — the certificate authenticates itself.
    QueryReply {
        /// View of the query.
        view: ViewId,
        /// Slot recovered.
        slot: SlotNum,
        /// The certificate.
        oc: OrderingCert,
    },
    /// Leader → all: the leader itself is missing a slot.
    GapFind {
        /// View.
        view: ViewId,
        /// Slot the leader is missing.
        slot: SlotNum,
        /// Leader signature over (view, slot).
        sig: Signature,
    },
    /// Replica → leader: I have the certificate. Unsigned.
    GapRecv {
        /// View.
        view: ViewId,
        /// Slot.
        slot: SlotNum,
        /// The certificate.
        oc: OrderingCert,
    },
    /// Replica → leader: I also saw a drop-notification. Signed.
    GapDrop(GapDropBody, Signature),
    /// Leader → all: the agreement decision. Signed.
    GapDecision {
        /// View.
        view: ViewId,
        /// Slot.
        slot: SlotNum,
        /// Recv with a certificate, or Drop with 2f+1 gap-drops.
        decision: GapDecisionBody,
        /// Leader signature over (view, slot, decision digest).
        sig: Signature,
    },
    /// Replica → all: first agreement phase vote. Signed.
    GapPrepare(GapVoteBody, Signature),
    /// Replica → all: second agreement phase vote. Signed.
    GapCommit(GapVoteBody, Signature),
    /// Replica → all: view change (§B.1). Signed.
    ViewChange(ViewChangeBody, Signature),
    /// New leader → all: the merged log starting the view. Signed.
    ViewStart {
        /// The view being started.
        new_view: ViewId,
        /// The 2f+1 view-change messages justifying the merge.
        view_changes: Vec<(ViewChangeBody, Signature)>,
        /// Leader signature.
        sig: Signature,
    },
    /// Replica → all: ready to start an epoch at a slot (§B.1). Signed.
    EpochStart(EpochStartBody, Signature),
    /// Replica → all: periodic state synchronization (§B.2). Signed.
    Sync(SyncBody, Signature),
    /// Recovering replica → all: request a certified checkpoint and log
    /// suffix. Signed.
    StateQuery(StateQueryBody, Signature),
    /// Replica → recovering replica: checkpoint + suffix. Also, with an
    /// empty suffix, replica → a live peer that named a slot the sender
    /// has let go of: the stable checkpoint that covers it. Unsigned —
    /// the checkpoint certificate and the per-entry ordering/gap
    /// certificates authenticate themselves.
    StateReply {
        /// A certified checkpoint newer than the asker's `have`, if the
        /// sender holds one.
        checkpoint: Option<crate::recovery::WireCheckpoint>,
        /// Absolute slot of `suffix[0]`.
        suffix_start: SlotNum,
        /// Resolved log entries from `suffix_start` on.
        suffix: Vec<WireLogEntry>,
    },
}

impl NeoMsg {
    /// Encode as `Envelope::App` payload bytes. Falls back to an empty
    /// payload (which no peer decodes) if encoding fails.
    pub fn to_app_bytes(&self) -> Vec<u8> {
        neo_aom::Envelope::App(encode(self).unwrap_or_default()).to_bytes()
    }

    /// Encode as a shared [`neo_wire::Payload`]: the single-encode form
    /// `Context::send`/`broadcast` consume. One allocation per message,
    /// regardless of fan-out.
    pub fn to_payload(&self) -> neo_wire::Payload {
        neo_aom::Envelope::App(encode(self).unwrap_or_default()).to_payload()
    }

    /// Decode from the inner bytes of an `Envelope::App`.
    pub fn from_app_bytes(bytes: &[u8]) -> Option<Self> {
        neo_wire::decode(bytes).ok()
    }
}

/// The digest a leader signs for a gap decision: binds view, slot, and
/// the decision content without re-serializing certificates twice.
pub fn gap_decision_digest(view: ViewId, slot: SlotNum, decision: &GapDecisionBody) -> Vec<u8> {
    let mut bytes = encode(&(view, slot)).unwrap_or_default();
    bytes.extend_from_slice(neo_crypto::sha256(&encode(decision).unwrap_or_default()).as_bytes());
    bytes
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_crypto::{CostModel, SystemKeys};

    fn crypto(r: u32) -> NodeCrypto {
        NodeCrypto::new(
            Principal::Replica(ReplicaId(r)),
            &SystemKeys::new(1, 4, 2),
            CostModel::FREE,
        )
    }

    #[test]
    fn sign_verify_roundtrip() {
        let c0 = crypto(0);
        let c1 = crypto(1);
        let body = GapDropBody {
            view: ViewId::INITIAL,
            replica: ReplicaId(0),
            slot: SlotNum(3),
        };
        let sig = sign_body(&body, &c0);
        assert!(verify_body(
            &body,
            &sig,
            Principal::Replica(ReplicaId(0)),
            &c1
        ));
        assert!(!verify_body(
            &body,
            &sig,
            Principal::Replica(ReplicaId(1)),
            &c1
        ));
        let mut tampered = body;
        tampered.slot = SlotNum(4);
        assert!(!verify_body(
            &tampered,
            &sig,
            Principal::Replica(ReplicaId(0)),
            &c1
        ));
    }

    #[test]
    fn neomsg_roundtrip_via_envelope() {
        let msg = NeoMsg::Query {
            view: ViewId::INITIAL,
            slot: SlotNum(7),
        };
        let bytes = msg.to_app_bytes();
        let env = neo_aom::Envelope::from_bytes(&bytes).unwrap();
        let neo_aom::Envelope::App(inner) = env else {
            panic!()
        };
        assert_eq!(NeoMsg::from_app_bytes(&inner).unwrap(), msg);
    }

    #[test]
    fn batch_payload_roundtrip() {
        let c = NodeCrypto::new(
            Principal::Client(ClientId(1)),
            &SystemKeys::new(1, 4, 2),
            CostModel::FREE,
        );
        let batch = BatchRequest {
            ops: AomBatch {
                ops: vec![b"op5".to_vec(), b"op6".to_vec(), b"op7".to_vec()],
            },
            first_request_id: RequestId(5),
            client: ClientId(1),
        };
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.last_request_id(), RequestId(7));
        let bytes = encode(&batch).expect("encodes");
        let peers: Vec<Principal> = (0..4).map(|r| Principal::Replica(ReplicaId(r))).collect();
        let signed = SignedBatch {
            auth: c.mac_vector(&peers, &bytes),
            batch,
        };
        let decoded = SignedBatch::from_bytes(&signed.to_bytes()).unwrap();
        assert_eq!(decoded, signed);
        // Replica 2 verifies its MAC-vector entry.
        let r2 = NodeCrypto::new(
            Principal::Replica(ReplicaId(2)),
            &SystemKeys::new(1, 4, 2),
            CostModel::FREE,
        );
        assert!(r2
            .verify_mac_from(Principal::Client(ClientId(1)), &bytes, &decoded.auth[2])
            .is_ok());
        assert!(
            r2.verify_mac_from(Principal::Client(ClientId(1)), &bytes, &decoded.auth[1])
                .is_err(),
            "entries are replica-specific"
        );
    }

    #[test]
    fn client_mac_covers_every_op_in_the_batch() {
        // The client MAC vector is computed over the encoded batch body,
        // so tampering with any single op breaks every replica's entry.
        let c = NodeCrypto::new(
            Principal::Client(ClientId(1)),
            &SystemKeys::new(1, 4, 2),
            CostModel::FREE,
        );
        let batch = BatchRequest {
            ops: AomBatch {
                ops: vec![b"aa".to_vec(), b"bb".to_vec()],
            },
            first_request_id: RequestId(1),
            client: ClientId(1),
        };
        let bytes = encode(&batch).expect("encodes");
        let peers: Vec<Principal> = (0..4).map(|r| Principal::Replica(ReplicaId(r))).collect();
        let auth = c.mac_vector(&peers, &bytes);
        let mut tampered = batch;
        tampered.ops.ops[1] = b"bX".to_vec();
        let tampered_bytes = encode(&tampered).expect("encodes");
        let r0 = NodeCrypto::new(
            Principal::Replica(ReplicaId(0)),
            &SystemKeys::new(1, 4, 2),
            CostModel::FREE,
        );
        assert!(r0
            .verify_mac_from(Principal::Client(ClientId(1)), &bytes, &auth[0])
            .is_ok());
        assert!(r0
            .verify_mac_from(Principal::Client(ClientId(1)), &tampered_bytes, &auth[0])
            .is_err());
    }

    #[test]
    fn single_batch_is_the_degenerate_request() {
        let b = BatchRequest::single(b"op".to_vec(), RequestId(9), ClientId(3));
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
        assert_eq!(b.first_request_id, RequestId(9));
        assert_eq!(b.last_request_id(), RequestId(9));
    }

    #[test]
    fn gap_decision_digest_binds_decision() {
        let d1 = GapDecisionBody::Drop(vec![]);
        let d2 = GapDecisionBody::Drop(vec![(
            GapDropBody {
                view: ViewId::INITIAL,
                replica: ReplicaId(1),
                slot: SlotNum(0),
            },
            Signature::empty(),
        )]);
        let a = gap_decision_digest(ViewId::INITIAL, SlotNum(0), &d1);
        let b = gap_decision_digest(ViewId::INITIAL, SlotNum(0), &d2);
        assert_ne!(a, b);
        let c = gap_decision_digest(ViewId::INITIAL, SlotNum(1), &d1);
        assert_ne!(a, c);
    }
}
