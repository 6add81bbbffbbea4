//! Deployment key material.
//!
//! In a real deployment the configuration service distributes keys over
//! TLS (§4.1); here [`SystemKeys`] plays that role: it derives every key in
//! the system deterministically from a seed, so a simulation (or a test)
//! can hand each node exactly the key view the config service would give
//! it. The derivation uses SHA-256 as a KDF over (seed, role, index),
//! which keeps all key material reproducible and independent.

use crate::digest::sha256;
use crate::mac::HmacKey;
use crate::sign::{SequencerKeyPair, SignKeyPair, VerifyKey};
use neo_wire::{ClientId, EpochNum, GroupId, ReplicaId};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A signing identity in the system.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize, PartialOrd, Ord)]
pub enum Principal {
    /// A replica.
    Replica(ReplicaId),
    /// A client.
    Client(ClientId),
}

impl fmt::Display for Principal {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Principal::Replica(r) => write!(f, "{r}"),
            Principal::Client(c) => write!(f, "{c}"),
        }
    }
}

fn derive_seed(root: &[u8; 32], tag: &str, a: u64, b: u64) -> [u8; 32] {
    let mut input = Vec::with_capacity(32 + tag.len() + 16);
    input.extend_from_slice(root);
    input.extend_from_slice(tag.as_bytes());
    input.extend_from_slice(&a.to_le_bytes());
    input.extend_from_slice(&b.to_le_bytes());
    sha256(&input).0
}

/// All key material for one deployment, derived from a root seed.
#[derive(Clone, Debug)]
pub struct SystemKeys {
    root: [u8; 32],
    n_replicas: usize,
    n_clients: usize,
    /// The public-key directory, derived on first use and shared by every
    /// clone: a deployment of N nodes derives its N key pairs once, not
    /// once per node.
    directory: Arc<OnceLock<KeyStore>>,
}

impl SystemKeys {
    /// Derive keys for `n_replicas` replicas and `n_clients` clients.
    pub fn new(root_seed: u64, n_replicas: usize, n_clients: usize) -> Self {
        let mut root = [0u8; 32];
        root[..8].copy_from_slice(&root_seed.to_le_bytes());
        SystemKeys {
            root,
            n_replicas,
            n_clients,
            directory: Arc::new(OnceLock::new()),
        }
    }

    /// Every principal of the deployment: replicas in id order, then
    /// clients in id order.
    pub fn principals(&self) -> impl Iterator<Item = Principal> {
        let replicas = (0..self.n_replicas).map(|r| Principal::Replica(ReplicaId(r as u32)));
        let clients = (0..self.n_clients).map(|c| Principal::Client(ClientId(c as u64)));
        replicas.chain(clients)
    }

    /// Position of `p` in [`SystemKeys::principals`]; `None` for a
    /// principal outside the deployment.
    pub fn index_of(&self, p: Principal) -> Option<usize> {
        match p {
            Principal::Replica(r) => Some(r.0 as usize).filter(|i| *i < self.n_replicas),
            Principal::Client(c) => usize::try_from(c.0)
                .ok()
                .filter(|i| *i < self.n_clients)
                .map(|i| self.n_replicas + i),
        }
    }

    /// Number of replicas this deployment was derived for.
    pub fn n_replicas(&self) -> usize {
        self.n_replicas
    }

    /// Number of clients this deployment was derived for.
    pub fn n_clients(&self) -> usize {
        self.n_clients
    }

    /// Ed25519 key pair of a principal.
    pub fn sign_key(&self, p: Principal) -> SignKeyPair {
        let seed = match p {
            Principal::Replica(r) => derive_seed(&self.root, "ed/replica", r.0 as u64, 0),
            Principal::Client(c) => derive_seed(&self.root, "ed/client", c.0, 0),
        };
        SignKeyPair::from_seed(seed)
    }

    /// The sequencer's secp256k1 key pair for a given epoch (a failover
    /// installs a new switch and thus a new key, §4.2).
    pub fn sequencer_key(&self, group: GroupId, epoch: EpochNum) -> SequencerKeyPair {
        SequencerKeyPair::from_seed(derive_seed(
            &self.root,
            "ecdsa/sequencer",
            group.0 as u64,
            epoch.0,
        ))
    }

    /// Pairwise SipHash key between the sequencer (group, epoch) and one
    /// receiver — the §4.3 key-exchange outcome.
    pub fn sequencer_hmac_key(
        &self,
        group: GroupId,
        epoch: EpochNum,
        receiver: ReplicaId,
    ) -> HmacKey {
        let d = derive_seed(
            &self.root,
            "hmac/seq",
            (group.0 as u64) << 32 | receiver.0 as u64,
            epoch.0,
        );
        let mut k = [0u8; 16];
        k.copy_from_slice(&d[..16]);
        HmacKey(k)
    }

    /// Pairwise SipHash key between two principals (used by the MAC-based
    /// baselines, e.g. PBFT's authenticators). Symmetric in its arguments.
    pub fn pairwise_hmac_key(&self, a: Principal, b: Principal) -> HmacKey {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let ab = principal_code(lo);
        let bb = principal_code(hi);
        let d = derive_seed(&self.root, "hmac/pair", ab, bb);
        let mut k = [0u8; 16];
        k.copy_from_slice(&d[..16]);
        HmacKey(k)
    }

    /// The verification-key view a node needs: every principal's Ed25519
    /// verify key. Built by the first caller, shared with every clone of
    /// this `SystemKeys`.
    pub fn key_store(&self) -> &KeyStore {
        self.directory.get_or_init(|| KeyStore {
            verify: self
                .principals()
                .map(|p| (p, self.sign_key(p).verify_key()))
                .collect(),
        })
    }
}

fn principal_code(p: Principal) -> u64 {
    match p {
        Principal::Replica(r) => r.0 as u64,
        Principal::Client(c) => (1u64 << 48) | c.0,
    }
}

/// Public-key directory distributed by the configuration service.
#[derive(Clone, Debug, Default)]
pub struct KeyStore {
    verify: HashMap<Principal, VerifyKey>,
}

impl KeyStore {
    /// Look up a principal's Ed25519 verification key.
    pub fn verify_key(&self, p: Principal) -> Option<&VerifyKey> {
        self.verify.get(&p)
    }

    /// Number of registered principals.
    pub fn len(&self) -> usize {
        self.verify.len()
    }

    /// True if the directory is empty.
    pub fn is_empty(&self) -> bool {
        self.verify.is_empty()
    }

    /// Register a principal (used by tests that add ad-hoc identities).
    pub fn insert(&mut self, p: Principal, k: VerifyKey) {
        self.verify.insert(p, k);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derivation_is_deterministic() {
        let a = SystemKeys::new(42, 4, 2);
        let b = SystemKeys::new(42, 4, 2);
        let p = Principal::Replica(ReplicaId(1));
        assert_eq!(
            a.sign_key(p).verify_key().to_bytes(),
            b.sign_key(p).verify_key().to_bytes()
        );
    }

    #[test]
    fn distinct_principals_get_distinct_keys() {
        let k = SystemKeys::new(1, 4, 4);
        let r0 = k.sign_key(Principal::Replica(ReplicaId(0)));
        let r1 = k.sign_key(Principal::Replica(ReplicaId(1)));
        let c0 = k.sign_key(Principal::Client(ClientId(0)));
        assert_ne!(r0.verify_key().to_bytes(), r1.verify_key().to_bytes());
        assert_ne!(r0.verify_key().to_bytes(), c0.verify_key().to_bytes());
    }

    #[test]
    fn sequencer_key_changes_across_epochs() {
        let k = SystemKeys::new(1, 4, 0);
        let e0 = k.sequencer_key(GroupId(0), EpochNum(0));
        let e1 = k.sequencer_key(GroupId(0), EpochNum(1));
        assert_ne!(e0.verify_key().to_bytes(), e1.verify_key().to_bytes());
    }

    #[test]
    fn pairwise_key_is_symmetric() {
        let k = SystemKeys::new(1, 4, 4);
        let a = Principal::Replica(ReplicaId(0));
        let b = Principal::Client(ClientId(3));
        assert_eq!(k.pairwise_hmac_key(a, b), k.pairwise_hmac_key(b, a));
        assert_ne!(
            k.pairwise_hmac_key(a, b),
            k.pairwise_hmac_key(a, Principal::Client(ClientId(4)))
        );
    }

    #[test]
    fn key_store_covers_everyone() {
        let k = SystemKeys::new(7, 4, 3);
        let store = k.key_store();
        assert_eq!(store.len(), 7);
        let p = Principal::Replica(ReplicaId(2));
        let sig = k.sign_key(p).sign(b"m");
        assert!(store.verify_key(p).unwrap().verify(b"m", &sig).is_ok());
        assert!(store.verify_key(Principal::Replica(ReplicaId(9))).is_none());
    }

    #[test]
    fn sequencer_hmac_keys_differ_per_receiver() {
        let k = SystemKeys::new(1, 4, 0);
        let k0 = k.sequencer_hmac_key(GroupId(0), EpochNum(0), ReplicaId(0));
        let k1 = k.sequencer_hmac_key(GroupId(0), EpochNum(0), ReplicaId(1));
        assert_ne!(k0, k1);
    }
}
