//! Durability and crash-recovery types.
//!
//! Two on-disk artifacts back a replica (stored through the sans-IO
//! [`neo_sim::Store`] boundary):
//!
//! * **The write-ahead log** — one [`WalRecord`] per resolved slot (and
//!   per epoch start), appended *before* the reply that acknowledges the
//!   slot leaves the replica. Framing, checksumming, and torn-tail
//!   healing live in `neo-store`; this module only defines the record
//!   payloads.
//! * **The checkpoint** — a [`CheckpointData`] snapshot of everything a
//!   replica needs to resume from a sync-point (§B.2), certified by the
//!   2f+1 sync votes that carried its digest ([`WireCheckpoint`]). Every
//!   replica certifies one per sync interval, store or not: it is also
//!   what the in-memory log is trimmed below and what a live laggard is
//!   served (DESIGN.md §17); a store persists it.
//!
//! A restarting replica loads its checkpoint, replays the WAL suffix,
//! and then asks peers for anything newer (`NeoMsg::StateQuery` /
//! `StateReply`). A far-behind replica with no disk state takes the same
//! path with an empty starting point. Either way the recovery state
//! machine runs `Recovering → FetchingCheckpoint → Replaying → Active`
//! (tracked in `replica/state_transfer.rs`).

use crate::log::LogEntry;
use crate::messages::{EpochCert, GapVoteBody, SyncBody, WireLogEntry};
use neo_aom::OrderingCert;
use neo_crypto::{sha256, Digest, Signature};
use neo_wire::{encode, ClientId, EpochNum, RequestId, SlotNum};
use serde::{Deserialize, Serialize};

/// One record in the durable consensus log.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub enum WalRecord {
    /// A resolved slot: the entry plus the certificate that proves it
    /// (ordering certificate for requests, gap certificate for no-ops).
    /// Replay re-fills the in-memory log without re-running agreement.
    Slot {
        /// Absolute slot number.
        slot: SlotNum,
        /// The resolved entry.
        entry: WireLogEntry,
    },
    /// An epoch started at a slot, with the 2f+1 epoch-start votes that
    /// certify it — the restarted replica needs the certificate (not
    /// just the position) to carry the epoch into future view-change
    /// messages.
    Epoch {
        /// The epoch.
        epoch: EpochNum,
        /// Its first slot.
        start_slot: SlotNum,
        /// The certifying epoch-start votes.
        cert: EpochCert,
    },
}

/// [`WalRecord::Slot`] over a borrowed log entry: the same variant
/// order and field order, so the same bytes, without first copying the
/// entry's certificate into a [`WireLogEntry`].
#[derive(Serialize)]
enum SlotRecordRef<'a> {
    Slot {
        slot: SlotNum,
        entry: WireLogEntryRef<'a>,
    },
}

/// [`WireLogEntry`], borrowed.
#[derive(Serialize)]
enum WireLogEntryRef<'a> {
    Request(&'a OrderingCert),
    NoOp(&'a [(GapVoteBody, Signature)]),
}

impl WalRecord {
    /// Encode for appending to the store. Falls back to an empty record
    /// (healed away as torn tail on replay) if encoding fails — our own
    /// wire types do not fail to encode in practice.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode(self).unwrap_or_default()
    }

    /// The bytes of `WalRecord::Slot { slot, entry: entry.to_wire() }`,
    /// encoded straight from the log's own entry.
    pub(crate) fn slot_bytes(slot: SlotNum, entry: &LogEntry) -> Vec<u8> {
        let entry = match entry {
            LogEntry::Request(oc) => WireLogEntryRef::Request(oc),
            LogEntry::NoOp(cert) => WireLogEntryRef::NoOp(cert.as_deref().unwrap_or_default()),
        };
        encode(&SlotRecordRef::Slot { slot, entry }).unwrap_or_default()
    }

    /// Decode a record read back from the store.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        neo_wire::decode(bytes).ok()
    }
}

/// Everything a replica needs to resume execution from a sync-point,
/// serialized deterministically so equal state ⇒ equal digest across
/// replicas.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct CheckpointData {
    /// The sync-point slot: every slot `< slot` is finalized and covered
    /// by this checkpoint.
    pub slot: SlotNum,
    /// Hash-chained log hash at `slot - 1` — the seed a based log
    /// continues the chain from.
    pub chain_hash: Digest,
    /// Application snapshot ([`neo_app::App::snapshot`]).
    pub app: Vec<u8>,
    /// Client table rows `(client, first_request, last_request, slot)`,
    /// sorted by client id for determinism. Cached reply bytes are
    /// deliberately excluded: `Reply.view` differs across replicas that
    /// executed the same slot in different views, and the re-send
    /// optimization is not worth a digest mismatch.
    pub clients: Vec<(ClientId, RequestId, RequestId, SlotNum)>,
    /// Epoch starts at or below the checkpoint slot.
    pub epoch_starts: Vec<(EpochNum, SlotNum)>,
}

impl CheckpointData {
    /// The digest carried in `SyncBody::state_digest`: a hash over the
    /// full deterministic encoding, so 2f+1 matching digests certify the
    /// chain hash, the app state, *and* the client table at once.
    pub fn digest(&self) -> Digest {
        sha256(&encode(self).unwrap_or_default())
    }
}

/// A checkpoint plus the sync votes that certify it: at least 2f+1
/// `SyncBody` signatures from distinct replicas, each carrying
/// `slot == data.slot` and `state_digest == data.digest()`.
///
/// This is both the unit persisted to the store's checkpoint area and
/// the unit served to recovering peers in `NeoMsg::StateReply` — a
/// restarting replica verifies its *own* disk checkpoint exactly as it
/// would a peer's.
#[derive(Clone, PartialEq, Debug, Serialize, Deserialize)]
pub struct WireCheckpoint {
    /// The checkpointed state.
    pub data: CheckpointData,
    /// Certifying sync votes.
    pub cert: Vec<(SyncBody, Signature)>,
}

impl WireCheckpoint {
    /// Encode for the store's checkpoint area.
    pub fn to_bytes(&self) -> Vec<u8> {
        encode(self).unwrap_or_default()
    }

    /// Decode a checkpoint read from disk or a peer.
    pub fn from_bytes(bytes: &[u8]) -> Option<Self> {
        neo_wire::decode(bytes).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_wire::ViewId;

    fn data() -> CheckpointData {
        CheckpointData {
            slot: SlotNum(8),
            chain_hash: sha256(b"chain"),
            app: b"app-state".to_vec(),
            clients: vec![(ClientId(1), RequestId(1), RequestId(4), SlotNum(6))],
            epoch_starts: vec![(EpochNum(1), SlotNum(4))],
        }
    }

    #[test]
    fn digest_is_deterministic_and_binds_every_field() {
        let d = data();
        assert_eq!(d.digest(), d.digest());
        assert_eq!(d.digest(), d.clone().digest());

        let mut m = data();
        m.slot = SlotNum(9);
        assert_ne!(m.digest(), d.digest(), "slot is bound");
        let mut m = data();
        m.chain_hash = sha256(b"other");
        assert_ne!(m.digest(), d.digest(), "chain hash is bound");
        let mut m = data();
        m.app[0] ^= 1;
        assert_ne!(m.digest(), d.digest(), "app snapshot is bound");
        let mut m = data();
        m.clients[0].3 = SlotNum(7);
        assert_ne!(m.digest(), d.digest(), "client table is bound");
        let mut m = data();
        m.epoch_starts.clear();
        assert_ne!(m.digest(), d.digest(), "epoch starts are bound");
    }

    #[test]
    fn wal_record_roundtrip() {
        let rec = WalRecord::Epoch {
            epoch: EpochNum(2),
            start_slot: SlotNum(12),
            cert: vec![],
        };
        assert_eq!(WalRecord::from_bytes(&rec.to_bytes()), Some(rec));
        assert_eq!(WalRecord::from_bytes(&[0xFF; 3]), None);
    }

    #[test]
    fn borrowed_slot_records_are_the_owned_bytes() {
        use neo_aom::AomPacket;
        use neo_wire::{AomHeader, GroupId, ReplicaId, SeqNum, ViewId};
        let mut header = AomHeader::unstamped(GroupId(0), sha256(b"p").0);
        header.seq = SeqNum(9);
        header.auth = neo_wire::Authenticator::HmacVector(vec![[7u8; 8]; 4]);
        let oc = OrderingCert {
            packet: AomPacket {
                header,
                payload: b"payload".to_vec(),
            },
            confirms: vec![],
        };
        let vote = GapVoteBody {
            view: ViewId::INITIAL,
            replica: ReplicaId(2),
            slot: SlotNum(8),
            recv: false,
        };
        for entry in [
            LogEntry::Request(oc),
            LogEntry::NoOp(None),
            LogEntry::NoOp(Some(vec![(vote, Signature::empty())])),
        ] {
            let owned = WalRecord::Slot {
                slot: SlotNum(8),
                entry: entry.to_wire(),
            };
            assert_eq!(WalRecord::slot_bytes(SlotNum(8), &entry), owned.to_bytes());
        }
    }

    #[test]
    fn wire_checkpoint_roundtrip() {
        let cp = WireCheckpoint {
            data: data(),
            cert: vec![(
                SyncBody {
                    view: ViewId::INITIAL,
                    replica: neo_wire::ReplicaId(0),
                    slot: SlotNum(8),
                    drops: vec![],
                    state_digest: data().digest(),
                },
                Signature::empty(),
            )],
        };
        assert_eq!(WireCheckpoint::from_bytes(&cp.to_bytes()), Some(cp));
        assert_eq!(WireCheckpoint::from_bytes(b"junk"), None);
    }
}
