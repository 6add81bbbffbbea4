//! Offline stand-in for `ed25519-dalek` 2.x: RFC 8032 Ed25519 with the
//! crate's type names and method signatures (`SigningKey::from_bytes`,
//! `verifying_key`, `Signer::sign`, `Verifier::verify`,
//! `VerifyingKey::{from_bytes, to_bytes}`, `Signature::{from_bytes,
//! to_bytes}`), checked against the RFC's test vectors.
//!
//! Portable and **variable-time**: it exists so the benchmark exercises
//! real curve arithmetic of the right shape and cost order, not to guard
//! real keys. Expect roughly 2–3× the latency of curve25519-dalek's
//! tuned backends.

mod edwards;
mod field;
#[path = "../../modarith.rs"]
mod modarith;

use edwards::Point;
use modarith::{Modulus, U256};
use sha2::{Digest, Sha512};

pub use signature::{Error as SignatureError, Signer, Verifier};

pub const SECRET_KEY_LENGTH: usize = 32;
pub const PUBLIC_KEY_LENGTH: usize = 32;
pub const SIGNATURE_LENGTH: usize = 64;

/// A 32-byte seed.
pub type SecretKey = [u8; SECRET_KEY_LENGTH];

/// The group order L = 2^252 + 27742317777372353535851937790883648493.
const ORDER: Modulus = Modulus {
    m: [0x5812631a5cf5d3ed, 0x14def9dea2f79cd6, 0, 0x1000000000000000],
    mu: [
        0xed9ce5a30a2c131b,
        0x2106215d086329a7,
        0xffffffffffffffeb,
        0xffffffffffffffff,
        0xf,
    ],
};

/// A 64-byte hash as an integer mod L.
fn scalar_from_hash(hash: [u8; 64]) -> U256 {
    let mut wide = [0u64; 8];
    for (limb, chunk) in wide.iter_mut().zip(hash.chunks_exact(8)) {
        *limb = u64::from_le_bytes(chunk.try_into().expect("8-byte chunk"));
    }
    ORDER.reduce_wide(&wide)
}

/// An Ed25519 signature: R ‖ S.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Signature([u8; SIGNATURE_LENGTH]);

impl Signature {
    pub fn from_bytes(bytes: &[u8; SIGNATURE_LENGTH]) -> Signature {
        Signature(*bytes)
    }
    pub fn from_slice(bytes: &[u8]) -> Result<Signature, SignatureError> {
        bytes.try_into().map(Signature).map_err(|_| SignatureError::new())
    }
    pub fn to_bytes(&self) -> [u8; SIGNATURE_LENGTH] {
        self.0
    }
    pub fn r_bytes(&self) -> &[u8; 32] {
        self.0[..32].try_into().expect("32 bytes")
    }
    pub fn s_bytes(&self) -> &[u8; 32] {
        self.0[32..].try_into().expect("32 bytes")
    }
}

impl std::fmt::Debug for Signature {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Signature(")?;
        for b in &self.0 {
            write!(f, "{b:02x}")?;
        }
        write!(f, ")")
    }
}

/// A public key: the encoded point A, kept with −A decoded for verifying.
#[derive(Clone, Copy)]
pub struct VerifyingKey {
    bytes: [u8; PUBLIC_KEY_LENGTH],
    minus_a: Point,
}

impl VerifyingKey {
    /// Decode a public key; fails if the bytes name no curve point.
    pub fn from_bytes(bytes: &[u8; PUBLIC_KEY_LENGTH]) -> Result<VerifyingKey, SignatureError> {
        let a = Point::decompress(bytes).ok_or_else(SignatureError::new)?;
        Ok(VerifyingKey {
            bytes: *bytes,
            minus_a: a.neg(),
        })
    }
    pub fn to_bytes(&self) -> [u8; PUBLIC_KEY_LENGTH] {
        self.bytes
    }
    pub fn as_bytes(&self) -> &[u8; PUBLIC_KEY_LENGTH] {
        &self.bytes
    }

    /// Cofactorless verification, as dalek's `verify`: recompute
    /// R' = [S]B − [k]A and compare encodings.
    fn verify_bytes(&self, msg: &[u8], sig: &Signature) -> Result<(), SignatureError> {
        let s = modarith::from_le_bytes(sig.s_bytes());
        if modarith::ge(&s, &ORDER.m) {
            return Err(SignatureError::new());
        }
        let mut h = Sha512::new();
        h.update(sig.r_bytes());
        h.update(self.bytes);
        h.update(msg);
        let k = scalar_from_hash(h.finalize().into());
        let r = Point::verification_point(sig.s_bytes(), &modarith::to_le_bytes(&k), &self.minus_a);
        if r.compress() == *sig.r_bytes() {
            Ok(())
        } else {
            Err(SignatureError::new())
        }
    }
}

impl Verifier<Signature> for VerifyingKey {
    fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), SignatureError> {
        self.verify_bytes(msg, sig)
    }
}

impl PartialEq for VerifyingKey {
    fn eq(&self, other: &VerifyingKey) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for VerifyingKey {}

impl std::hash::Hash for VerifyingKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bytes.hash(state);
    }
}

impl std::fmt::Debug for VerifyingKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "VerifyingKey({:?})", self.bytes)
    }
}

/// A signing key: the seed and what RFC 8032 derives from it.
#[derive(Clone)]
pub struct SigningKey {
    seed: SecretKey,
    /// The clamped secret scalar, reduced mod L.
    scalar: U256,
    /// The second half of SHA-512(seed), mixed into every nonce.
    prefix: [u8; 32],
    verifying_key: VerifyingKey,
}

impl SigningKey {
    pub fn from_bytes(seed: &SecretKey) -> SigningKey {
        let hash: [u8; 64] = Sha512::digest(seed).into();
        let mut clamped: [u8; 32] = hash[..32].try_into().expect("32 bytes");
        clamped[0] &= 248;
        clamped[31] &= 127;
        clamped[31] |= 64;
        let a = Point::mul_base(&clamped);
        SigningKey {
            seed: *seed,
            scalar: ORDER.reduce(&modarith::from_le_bytes(&clamped)),
            prefix: hash[32..].try_into().expect("32 bytes"),
            verifying_key: VerifyingKey {
                bytes: a.compress(),
                minus_a: a.neg(),
            },
        }
    }
    pub fn to_bytes(&self) -> SecretKey {
        self.seed
    }
    pub fn verifying_key(&self) -> VerifyingKey {
        self.verifying_key
    }
}

impl Signer<Signature> for SigningKey {
    fn try_sign(&self, msg: &[u8]) -> Result<Signature, SignatureError> {
        let mut h = Sha512::new();
        h.update(self.prefix);
        h.update(msg);
        let r = scalar_from_hash(h.finalize().into());
        let r_point = Point::mul_base(&modarith::to_le_bytes(&r)).compress();
        let mut h = Sha512::new();
        h.update(r_point);
        h.update(self.verifying_key.bytes);
        h.update(msg);
        let k = scalar_from_hash(h.finalize().into());
        let s = ORDER.add(&ORDER.mul(&k, &self.scalar), &r);
        let mut out = [0u8; SIGNATURE_LENGTH];
        out[..32].copy_from_slice(&r_point);
        out[32..].copy_from_slice(&modarith::to_le_bytes(&s));
        Ok(Signature(out))
    }
}

impl std::fmt::Debug for SigningKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SigningKey(..)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unhex<const N: usize>(s: &str) -> [u8; N] {
        let mut out = [0u8; N];
        for (o, pair) in out.iter_mut().zip(s.as_bytes().chunks_exact(2)) {
            *o = u8::from_str_radix(std::str::from_utf8(pair).unwrap(), 16).unwrap();
        }
        out
    }

    /// RFC 8032 §7.1, tests 1–3: (seed, public key, message, signature).
    const VECTORS: [(&str, &str, &str, &str); 3] = [
        (
            "9d61b19deffd5a60ba844af492ec2cc44449c5697b326919703bac031cae7f60",
            "d75a980182b10ab7d54bfed3c964073a0ee172f3daa62325af021a68f707511a",
            "",
            "e5564300c360ac729086e2cc806e828a84877f1eb8e5d974d873e06522490155\
             5fb8821590a33bacc61e39701cf9b46bd25bf5f0595bbe24655141438e7a100b",
        ),
        (
            "4ccd089b28ff96da9db6c346ec114e0f5b8a319f35aba624da8cf6ed4fb8a6fb",
            "3d4017c3e843895a92b70aa74d1b7ebc9c982ccf2ec4968cc0cd55f12af4660c",
            "72",
            "92a009a9f0d4cab8720e820b5f642540a2b27b5416503f8fb3762223ebdb69da\
             085ac1e43e15996e458f3613d0f11d8c387b2eaeb4302aeeb00d291612bb0c00",
        ),
        (
            "c5aa8df43f9f837bedb7442f31dcb7b166d38535076f094b85ce3a2e0b4458f7",
            "fc51cd8e6218a1a38da47ed00230f0580816ed13ba3303ac5deb911548908025",
            "af82",
            "6291d657deec24024827e69c3abe01a30ce548a284743a445e3680d7db5ac3ac\
             18ff9b538d16f290ae67f760984dc6594a7c15e9716ed28dc027beceea1ec40a",
        ),
    ];

    #[test]
    fn rfc8032_vectors_sign_and_verify() {
        for (seed, public, msg, sig) in VECTORS {
            let sig: String = sig.split_whitespace().collect();
            let key = SigningKey::from_bytes(&unhex::<32>(seed));
            assert_eq!(key.verifying_key().to_bytes(), unhex::<32>(public));
            let msg: Vec<u8> = (0..msg.len() / 2)
                .map(|i| u8::from_str_radix(&msg[2 * i..2 * i + 2], 16).unwrap())
                .collect();
            let signature = key.sign(&msg);
            assert_eq!(signature.to_bytes(), unhex::<64>(&sig));
            let vk = VerifyingKey::from_bytes(&unhex::<32>(public)).unwrap();
            assert!(vk.verify(&msg, &signature).is_ok());
        }
    }

    #[test]
    fn tampering_and_wrong_keys_are_rejected() {
        let key = SigningKey::from_bytes(&[7u8; 32]);
        let other = SigningKey::from_bytes(&[8u8; 32]);
        let sig = key.sign(b"hello");
        let vk = key.verifying_key();
        assert!(vk.verify(b"hello", &sig).is_ok());
        assert!(vk.verify(b"hellp", &sig).is_err());
        assert!(other.verifying_key().verify(b"hello", &sig).is_err());
        for i in [0usize, 31, 32, 63] {
            let mut bytes = sig.to_bytes();
            bytes[i] ^= 1;
            assert!(vk.verify(b"hello", &Signature::from_bytes(&bytes)).is_err(), "byte {i}");
        }
        // S + L is the same residue but not canonical.
        let mut bytes = sig.to_bytes();
        let mut s = modarith::from_le_bytes(sig.s_bytes());
        assert!(!modarith::add_assign(&mut s, &ORDER.m));
        bytes[32..].copy_from_slice(&modarith::to_le_bytes(&s));
        assert!(vk.verify(b"hello", &Signature::from_bytes(&bytes)).is_err());
    }

    #[test]
    fn keys_round_trip_and_garbage_keys_fail() {
        let vk = SigningKey::from_bytes(&[9u8; 32]).verifying_key();
        assert_eq!(VerifyingKey::from_bytes(&vk.to_bytes()).unwrap(), vk);
        let mut off_curve = [0u8; 32];
        off_curve[0] = 2;
        assert!(VerifyingKey::from_bytes(&off_curve).is_err());
        assert!(Signature::from_slice(&[0u8; 63]).is_err());
    }
}
