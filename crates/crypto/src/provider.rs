//! Per-node metered crypto façade.
//!
//! Protocol state machines never touch raw keys: they hold a
//! [`NodeCrypto`], which performs the real operation *and* charges the
//! node's [`Meter`] the calibrated virtual-time cost. This is the one
//! place where the paper's "authenticator complexity" becomes measurable
//! simulation time.

use crate::digest::{chain, sha256, Digest};
use crate::keys::{Principal, SystemKeys};
use crate::mac::{HmacKey, MacError};
use crate::meter::{CostModel, Meter};
use crate::sign::{SigError, SignKeyPair, Signature};
use neo_wire::HmacTag;
use std::sync::Arc;

/// A node's metered view of the system's cryptography.
///
/// Cloning is a few refcount bumps: the key material sits behind one
/// `Arc` and clones share the meter, so a verify task shipped to a worker
/// thread charges the owning node exactly as an inline call would.
#[derive(Clone, Debug)]
pub struct NodeCrypto {
    keys: Arc<NodeKeys>,
    costs: CostModel,
    meter: Meter,
}

/// The immutable key view of one node.
#[derive(Debug)]
struct NodeKeys {
    me: Principal,
    sign_key: SignKeyPair,
    /// Holds the deployment's shared public-key directory.
    system: SystemKeys,
    /// This node's pairwise MAC key with every principal of the
    /// deployment, in [`SystemKeys::principals`] order: the KDF runs once
    /// per peer here, not once per tag.
    pairwise: Vec<HmacKey>,
}

impl NodeCrypto {
    /// Build the crypto view for `me` out of the deployment key material.
    pub fn new(me: Principal, system: &SystemKeys, costs: CostModel) -> Self {
        system.key_store(); // derive the shared directory now, at set-up
        NodeCrypto {
            keys: Arc::new(NodeKeys {
                me,
                sign_key: system.sign_key(me),
                system: system.clone(),
                pairwise: system
                    .principals()
                    .map(|peer| system.pairwise_hmac_key(me, peer))
                    .collect(),
            }),
            costs,
            meter: Meter::new(),
        }
    }

    /// The principal this provider signs as.
    pub fn me(&self) -> Principal {
        self.keys.me
    }

    /// The meter the simulator drains.
    pub fn meter(&self) -> &Meter {
        &self.meter
    }

    /// The cost model in force (exported so experiment reports can record
    /// their inputs).
    pub fn costs(&self) -> &CostModel {
        &self.costs
    }

    /// SHA-256 digest, charged serially (hashing happens inline with
    /// packet processing).
    pub fn digest(&self, bytes: &[u8]) -> Digest {
        self.meter.charge_serial(self.costs.sha256(bytes.len()));
        sha256(bytes)
    }

    /// Ed25519-sign a message (charged to the worker pool).
    pub fn sign(&self, msg: &[u8]) -> Signature {
        self.meter.charge_parallel(self.costs.ed25519_sign);
        self.keys.sign_key.sign(msg)
    }

    /// Verify `signer`'s Ed25519 signature (charged to the worker pool).
    /// Unknown principals fail closed.
    pub fn verify(&self, signer: Principal, msg: &[u8], sig: &Signature) -> Result<(), SigError> {
        self.meter.charge_parallel(self.costs.ed25519_verify);
        match self.keys.system.key_store().verify_key(signer) {
            Some(vk) => vk.verify(msg, sig),
            None => Err(SigError::Invalid),
        }
    }

    /// Verify a batch of Ed25519 signatures in one call, charging the
    /// parallel lane per item. This is the API seam the [`crate::pool`]
    /// verification stage feeds whole confirm batches through: one task
    /// dispatch covers the batch, and a future switch to multi-scalar
    /// batch verification (ed25519-dalek's `batch` feature) changes only
    /// this method. Per-item results, in input order; unknown principals
    /// fail closed.
    pub fn verify_batch(
        &self,
        items: &[(Principal, &[u8], &Signature)],
    ) -> Vec<Result<(), SigError>> {
        let mut out = Vec::with_capacity(items.len());
        for (signer, msg, sig) in items {
            self.meter.charge_parallel(self.costs.ed25519_verify);
            out.push(match self.keys.system.key_store().verify_key(*signer) {
                Some(vk) => vk.verify(msg, sig),
                None => Err(SigError::Invalid),
            });
        }
        out
    }

    /// Amortized aom-pk hash-chain check across a batch of parked
    /// packets (§4.4: receivers "verify the entire batch by validating
    /// the hash chain"). `links` pairs each packet's expected head (the
    /// successor's `prev_hash`) with that packet's chaining input, in
    /// walk order; returns how many leading links verify. One serial
    /// charge covers the whole walk — the SHA-256 call base is paid once
    /// per batch instead of once per packet.
    pub fn verify_chain_links(&self, links: &[(Digest, &[u8])]) -> usize {
        if links.is_empty() {
            return 0;
        }
        let blocks: u64 = links
            .iter()
            .map(|(_, input)| input.len() as u64 / 64 + 1)
            .sum();
        self.meter
            .charge_serial(self.costs.sha256_base + self.costs.sha256_per_block * blocks);
        let mut ok = 0;
        for (expected, input) in links {
            if chain(Digest::ZERO, input) == *expected {
                ok += 1;
            } else {
                break;
            }
        }
        ok
    }

    /// Compute the pairwise MAC authenticating `msg` from `self` to `peer`
    /// (charged serially — MACs are cheap enough to run on the dispatch
    /// core, exactly why PBFT prefers them).
    pub fn mac_for(&self, peer: Principal, msg: &[u8]) -> HmacTag {
        self.meter.charge_serial(self.costs.siphash);
        self.pairwise(peer).tag(msg)
    }

    /// Verify a pairwise MAC sent by `peer`.
    pub fn verify_mac_from(
        &self,
        peer: Principal,
        msg: &[u8],
        tag: &HmacTag,
    ) -> Result<(), MacError> {
        self.meter.charge_serial(self.costs.siphash);
        self.pairwise(peer).verify(msg, tag)
    }

    /// Compute a full authenticator vector: one MAC per peer in `peers`,
    /// in order. This is PBFT's O(N) per-message authenticator.
    pub fn mac_vector(&self, peers: &[Principal], msg: &[u8]) -> Vec<HmacTag> {
        self.meter
            .charge_serial(self.costs.siphash * peers.len() as u64);
        peers.iter().map(|p| self.pairwise(*p).tag(msg)).collect()
    }

    /// The key shared with `peer`: cached for a principal of the
    /// deployment, derived on the spot for any other.
    fn pairwise(&self, peer: Principal) -> HmacKey {
        let keys = &self.keys;
        let cached = keys
            .system
            .index_of(peer)
            .and_then(|i| keys.pairwise.get(i));
        match cached {
            Some(key) => *key,
            None => keys.system.pairwise_hmac_key(keys.me, peer),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neo_wire::{ClientId, ReplicaId};

    fn setup() -> (NodeCrypto, NodeCrypto) {
        let sys = SystemKeys::new(11, 4, 2);
        let a = NodeCrypto::new(
            Principal::Replica(ReplicaId(0)),
            &sys,
            CostModel::CALIBRATED,
        );
        let b = NodeCrypto::new(Principal::Client(ClientId(1)), &sys, CostModel::CALIBRATED);
        (a, b)
    }

    #[test]
    fn cross_node_signature_verifies() {
        let (a, b) = setup();
        let sig = a.sign(b"msg");
        assert!(b.verify(a.me(), b"msg", &sig).is_ok());
        assert!(b.verify(b.me(), b"msg", &sig).is_err(), "wrong signer");
    }

    #[test]
    fn unknown_principal_fails_closed() {
        let (a, _) = setup();
        let sig = a.sign(b"m");
        assert_eq!(
            a.verify(Principal::Replica(ReplicaId(99)), b"m", &sig),
            Err(SigError::Invalid)
        );
    }

    #[test]
    fn clones_and_nodes_share_one_key_directory() {
        let sys = SystemKeys::new(11, 4, 2);
        let (a, b) = (
            NodeCrypto::new(Principal::Replica(ReplicaId(0)), &sys, CostModel::FREE),
            NodeCrypto::new(Principal::Client(ClientId(1)), &sys, CostModel::FREE),
        );
        let directory = sys.key_store() as *const _;
        assert_eq!(a.keys.system.key_store() as *const _, directory);
        assert_eq!(b.keys.system.key_store() as *const _, directory);
        let c = a.clone();
        assert!(Arc::ptr_eq(&a.keys, &c.keys), "clone is a refcount bump");
        c.meter().charge_serial(3);
        assert_eq!(a.meter().peek(), (3, 0), "clones charge one meter");
    }

    #[test]
    fn cached_pairwise_keys_match_the_kdf_in_both_directions() {
        let sys = SystemKeys::new(5, 4, 3);
        let nodes: Vec<NodeCrypto> = sys
            .principals()
            .map(|p| NodeCrypto::new(p, &sys, CostModel::FREE))
            .collect();
        for a in &nodes {
            for b in &nodes {
                let derived = sys.pairwise_hmac_key(a.me(), b.me());
                assert_eq!(a.pairwise(b.me()), derived);
                assert_eq!(b.pairwise(a.me()), derived);
            }
        }
    }

    #[test]
    fn a_principal_outside_the_deployment_gets_the_derived_key() {
        let sys = SystemKeys::new(11, 4, 2);
        let (a, _) = setup();
        for stranger in [
            Principal::Replica(ReplicaId(4)),
            Principal::Client(ClientId(u64::MAX)),
        ] {
            let key = sys.pairwise_hmac_key(a.me(), stranger);
            assert_eq!(a.pairwise(stranger), key, "not cached, same key");
            assert_eq!(a.mac_for(stranger, b"m"), key.tag(b"m"));
        }
    }

    #[test]
    fn pairwise_macs_agree_between_the_two_parties() {
        let (a, b) = setup();
        let tag = a.mac_for(b.me(), b"hello");
        assert!(b.verify_mac_from(a.me(), b"hello", &tag).is_ok());
        assert!(b.verify_mac_from(a.me(), b"other", &tag).is_err());
    }

    #[test]
    fn mac_vector_entries_verify_per_peer() {
        let sys = SystemKeys::new(3, 4, 0);
        let sender = NodeCrypto::new(Principal::Replica(ReplicaId(0)), &sys, CostModel::FREE);
        let peers: Vec<Principal> = (1..4).map(|i| Principal::Replica(ReplicaId(i))).collect();
        let v = sender.mac_vector(&peers, b"broadcast");
        for (i, p) in peers.iter().enumerate() {
            let peer = NodeCrypto::new(*p, &sys, CostModel::FREE);
            assert!(peer
                .verify_mac_from(sender.me(), b"broadcast", &v[i])
                .is_ok());
        }
    }

    #[test]
    fn meter_charges_costs() {
        let (a, _) = setup();
        a.meter().drain();
        let _ = a.sign(b"x");
        let (s, p) = a.meter().drain();
        assert_eq!(s, 0);
        assert_eq!(p, vec![CostModel::CALIBRATED.ed25519_sign]);
        let _ = a.digest(b"payload");
        let (s, _) = a.meter().drain();
        assert!(s > 0, "digest is charged serially");
    }

    #[test]
    fn verify_batch_matches_per_item_verify_and_charges_per_item() {
        let (a, b) = setup();
        let sig0 = a.sign(b"zero");
        let sig1 = a.sign(b"one");
        a.meter().drain();
        let items: Vec<(Principal, &[u8], &Signature)> = vec![
            (a.me(), b"zero", &sig0),
            (a.me(), b"one", &sig1),
            (b.me(), b"zero", &sig0),                         // wrong signer
            (Principal::Replica(ReplicaId(99)), b"x", &sig0), // unknown: fails closed
        ];
        let res = a.verify_batch(&items);
        assert!(res[0].is_ok() && res[1].is_ok());
        assert!(res[2].is_err() && res[3].is_err());
        let (_, p) = a.meter().drain();
        assert_eq!(
            p,
            vec![CostModel::CALIBRATED.ed25519_verify; 4],
            "every item is charged to the parallel lane"
        );
    }

    #[test]
    fn verify_chain_links_counts_leading_valid_links_with_one_base_charge() {
        let (a, _) = setup();
        let good1 = crate::chain(Digest::ZERO, b"pkt1");
        let good2 = crate::chain(Digest::ZERO, b"pkt2");
        a.meter().drain();
        let links: Vec<(Digest, &[u8])> = vec![
            (good1, b"pkt1"),
            (good2, b"pkt2"),
            (good1, b"tampered"), // broken link stops the walk
            (good2, b"pkt2"),     // never reached
        ];
        assert_eq!(a.verify_chain_links(&links), 2);
        let (s, _) = a.meter().drain();
        let blocks: u64 = links.iter().map(|(_, i)| i.len() as u64 / 64 + 1).sum();
        assert_eq!(
            s,
            CostModel::CALIBRATED.sha256_base + CostModel::CALIBRATED.sha256_per_block * blocks,
            "one amortized serial charge for the whole batch"
        );
        assert_eq!(a.verify_chain_links(&[]), 0);
    }

    #[test]
    fn mac_vector_charges_linear_cost() {
        let sys = SystemKeys::new(3, 8, 0);
        let a = NodeCrypto::new(
            Principal::Replica(ReplicaId(0)),
            &sys,
            CostModel::CALIBRATED,
        );
        let peers: Vec<Principal> = (1..8).map(|i| Principal::Replica(ReplicaId(i))).collect();
        a.meter().drain();
        let _ = a.mac_vector(&peers, b"m");
        let (s, _) = a.meter().drain();
        assert_eq!(s, CostModel::CALIBRATED.siphash * 7);
    }
}
