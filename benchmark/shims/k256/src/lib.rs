//! Offline stand-in for `k256` 0.13's `ecdsa` module: secp256k1 ECDSA
//! over SHA-256 with RFC 6979 nonces and low-S signatures, under k256's
//! names (`ecdsa::{SigningKey, VerifyingKey, Signature}`,
//! `ecdsa::signature::{Signer, Verifier}`).
//!
//! Portable and **variable-time**: a benchmark stand-in, not a library to
//! guard real keys with. Roughly 3–4× slower than k256.

mod field;
#[path = "../../modarith.rs"]
mod modarith;
mod point;

/// `k256::FieldBytes` for `SigningKey::from_bytes((&seed).into())`: here a
/// plain 32-byte array, so the reflexive `Into` does the conversion.
pub type FieldBytes = [u8; 32];

pub mod ecdsa {
    use crate::field::Fe;
    use crate::modarith::{self, Modulus, U256};
    use crate::point::Point;
    use crate::FieldBytes;
    use sha2::{Digest, Sha256};

    pub use signature::Error;

    /// `k256::ecdsa::signature`: the shared `Signer`/`Verifier` traits.
    pub mod signature {
        pub use ::signature::{Error, Signer, Verifier};
    }

    /// The group order n.
    const ORDER: Modulus = Modulus {
        m: [
            0xbfd2_5e8c_d036_4141,
            0xbaae_dce6_af48_a03b,
            0xffff_ffff_ffff_fffe,
            0xffff_ffff_ffff_ffff,
        ],
        mu: [0x402d_a173_2fc9_bec0, 0x4551_2319_50b7_5fc4, 1, 0, 1],
    };

    /// ⌊n / 2⌋: an `s` above this is "high".
    const HALF_ORDER: U256 = [
        0xdfe9_2f46_681b_20a0,
        0x5d57_6e73_57a4_501d,
        0xffff_ffff_ffff_ffff,
        0x7fff_ffff_ffff_ffff,
    ];

    /// `v` as a scalar, if 1 <= v < n.
    fn nonzero_scalar(v: U256) -> Option<U256> {
        (!modarith::is_zero(&v) && !modarith::ge(&v, &ORDER.m)).then_some(v)
    }

    fn hmac_sha256(key: &[u8; 32], parts: &[&[u8]]) -> [u8; 32] {
        let mut ipad = [0x36u8; 64];
        let mut opad = [0x5cu8; 64];
        for i in 0..32 {
            ipad[i] ^= key[i];
            opad[i] ^= key[i];
        }
        let mut inner = Sha256::new();
        inner.update(ipad);
        for p in parts {
            inner.update(p);
        }
        let mut outer = Sha256::new();
        outer.update(opad);
        outer.update(inner.finalize());
        outer.finalize().into()
    }

    /// RFC 6979 §3.2 with HMAC-SHA256: the nonce for key `x`, digest `h1`.
    fn rfc6979_nonce(x: &U256, h1: &[u8; 32]) -> U256 {
        let x_bytes = modarith::to_be_bytes(x);
        let h_bytes = modarith::to_be_bytes(&ORDER.reduce(&modarith::from_be_bytes(h1)));
        let mut v = [1u8; 32];
        let mut k = [0u8; 32];
        k = hmac_sha256(&k, &[&v, &[0], &x_bytes, &h_bytes]);
        v = hmac_sha256(&k, &[&v]);
        k = hmac_sha256(&k, &[&v, &[1], &x_bytes, &h_bytes]);
        v = hmac_sha256(&k, &[&v]);
        loop {
            v = hmac_sha256(&k, &[&v]);
            if let Some(nonce) = nonzero_scalar(modarith::from_be_bytes(&v)) {
                return nonce;
            }
            k = hmac_sha256(&k, &[&v, &[0]]);
            v = hmac_sha256(&k, &[&v]);
        }
    }

    /// An ECDSA signature (r, s), both in [1, n).
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct Signature {
        r: U256,
        s: U256,
    }

    impl Signature {
        /// Parse the fixed 64-byte big-endian r ‖ s encoding.
        pub fn from_slice(bytes: &[u8]) -> Result<Signature, Error> {
            let bytes: &[u8; 64] = bytes.try_into().map_err(|_| Error::new())?;
            let r = nonzero_scalar(modarith::from_be_bytes(bytes[..32].try_into().expect("32")));
            let s = nonzero_scalar(modarith::from_be_bytes(bytes[32..].try_into().expect("32")));
            match (r, s) {
                (Some(r), Some(s)) => Ok(Signature { r, s }),
                _ => Err(Error::new()),
            }
        }

        /// The fixed 64-byte encoding.
        pub fn to_bytes(&self) -> [u8; 64] {
            let mut out = [0u8; 64];
            out[..32].copy_from_slice(&modarith::to_be_bytes(&self.r));
            out[32..].copy_from_slice(&modarith::to_be_bytes(&self.s));
            out
        }

        /// The equivalent low-S signature, if `s` is high.
        pub fn normalize_s(&self) -> Option<Signature> {
            (!modarith::ge(&HALF_ORDER, &self.s)).then(|| Signature {
                r: self.r,
                s: ORDER.neg(&self.s),
            })
        }
    }

    /// A public key: an affine curve point.
    #[derive(Clone, Copy, Debug, PartialEq, Eq)]
    pub struct VerifyingKey {
        x: Fe,
        y: Fe,
    }

    impl VerifyingKey {
        /// Parse a SEC1 point: compressed (33 bytes) or uncompressed (65).
        pub fn from_sec1_bytes(bytes: &[u8]) -> Result<VerifyingKey, Error> {
            let coordinate = |b: &[u8]| {
                let b: &[u8; 32] = b.try_into().ok()?;
                Fe::from_canonical(modarith::from_be_bytes(b))
            };
            let point = match (bytes.first(), bytes.len()) {
                (Some(tag @ (2 | 3)), 33) => {
                    let x = coordinate(&bytes[1..]).ok_or_else(Error::new)?;
                    Point::from_x(x, *tag == 3).ok_or_else(Error::new)?
                }
                (Some(4), 65) => {
                    let x = coordinate(&bytes[1..33]).ok_or_else(Error::new)?;
                    let y = coordinate(&bytes[33..]).ok_or_else(Error::new)?;
                    if !Point::is_on_curve(&x, &y) {
                        return Err(Error::new());
                    }
                    Point::from_affine(x, y)
                }
                _ => return Err(Error::new()),
            };
            let (x, y) = point.to_affine().ok_or_else(Error::new)?;
            Ok(VerifyingKey { x, y })
        }

        /// The compressed SEC1 encoding.
        pub fn to_sec1_bytes(&self) -> Box<[u8]> {
            let mut out = Vec::with_capacity(33);
            out.push(if self.y.is_odd() { 3 } else { 2 });
            out.extend_from_slice(&modarith::to_be_bytes(&self.x.0));
            out.into_boxed_slice()
        }
    }

    impl signature::Verifier<Signature> for VerifyingKey {
        fn verify(&self, msg: &[u8], sig: &Signature) -> Result<(), Error> {
            // k256 refuses high-S signatures outright.
            if sig.normalize_s().is_some() {
                return Err(Error::new());
            }
            let digest: [u8; 32] = Sha256::digest(msg).into();
            let z = ORDER.reduce(&modarith::from_be_bytes(&digest));
            let w = ORDER.invert(&sig.s);
            let u1 = ORDER.mul(&z, &w);
            let u2 = ORDER.mul(&sig.r, &w);
            let q = Point::from_affine(self.x, self.y);
            let (x, _) = Point::mul_generator(&u1)
                .add(&q.mul(&u2))
                .to_affine()
                .ok_or_else(Error::new)?;
            if ORDER.reduce(&x.0) == sig.r {
                Ok(())
            } else {
                Err(Error::new())
            }
        }
    }

    /// A private key d in [1, n) with its public key.
    #[derive(Clone)]
    pub struct SigningKey {
        d: U256,
        verifying_key: VerifyingKey,
    }

    impl SigningKey {
        /// Fails if the bytes are zero or not below the group order.
        pub fn from_bytes(bytes: &FieldBytes) -> Result<SigningKey, Error> {
            let d = nonzero_scalar(modarith::from_be_bytes(bytes)).ok_or_else(Error::new)?;
            let (x, y) = Point::mul_generator(&d).to_affine().ok_or_else(Error::new)?;
            Ok(SigningKey {
                d,
                verifying_key: VerifyingKey { x, y },
            })
        }

        pub fn verifying_key(&self) -> &VerifyingKey {
            &self.verifying_key
        }
    }

    impl signature::Signer<Signature> for SigningKey {
        fn try_sign(&self, msg: &[u8]) -> Result<Signature, Error> {
            let digest: [u8; 32] = Sha256::digest(msg).into();
            let z = ORDER.reduce(&modarith::from_be_bytes(&digest));
            let k = rfc6979_nonce(&self.d, &digest);
            let (x, _) = Point::mul_generator(&k).to_affine().ok_or_else(Error::new)?;
            let r = nonzero_scalar(ORDER.reduce(&x.0)).ok_or_else(Error::new)?;
            let s = ORDER.mul(&ORDER.invert(&k), &ORDER.add(&z, &ORDER.mul(&r, &self.d)));
            let s = nonzero_scalar(s).ok_or_else(Error::new)?;
            let sig = Signature { r, s };
            Ok(sig.normalize_s().unwrap_or(sig))
        }
    }

    impl std::fmt::Debug for SigningKey {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            write!(f, "SigningKey(..)")
        }
    }

    #[cfg(test)]
    mod tests {
        use super::signature::{Signer, Verifier};
        use super::*;

        fn hex(bytes: &[u8]) -> String {
            bytes.iter().map(|b| format!("{b:02x}")).collect()
        }

        #[test]
        fn rfc6979_known_answer_for_key_one() {
            let mut one = [0u8; 32];
            one[31] = 1;
            let key = SigningKey::from_bytes(&one).unwrap();
            assert_eq!(
                hex(&key.verifying_key().to_sec1_bytes()),
                "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"
            );
            let sig: Signature = key.sign(b"Satoshi Nakamoto");
            assert_eq!(
                hex(&sig.to_bytes()),
                "934b1ea10a4b3c1757e2b0c017d0b6143ce3c9a7e6a4a49860d7a6ab210ee3d8\
                 2442ce9d2b916064108014783e923ec36b49743e2ffa1c4496f01a512aafd9e5"
            );
            assert!(key.verifying_key().verify(b"Satoshi Nakamoto", &sig).is_ok());
        }

        #[test]
        fn round_trips_and_rejections() {
            let key = SigningKey::from_bytes(&[3u8; 32]).unwrap();
            let vk = *key.verifying_key();
            let sig: Signature = key.sign(b"aom packet");
            assert!(vk.verify(b"aom packet", &sig).is_ok());
            assert!(vk.verify(b"aom packe!", &sig).is_err());
            let other = SigningKey::from_bytes(&[4u8; 32]).unwrap();
            assert!(other.verifying_key().verify(b"aom packet", &sig).is_err());

            let parsed = Signature::from_slice(&sig.to_bytes()).unwrap();
            assert_eq!(parsed, sig);
            assert!(Signature::from_slice(&[0u8; 64]).is_err());
            assert!(Signature::from_slice(&[1u8; 63]).is_err());
            // The high-S twin is a valid ECDSA signature that k256 rejects.
            let high = Signature {
                r: sig.r,
                s: ORDER.neg(&sig.s),
            };
            assert!(high.normalize_s().is_some());
            assert!(vk.verify(b"aom packet", &high).is_err());

            let compressed = vk.to_sec1_bytes();
            assert_eq!(VerifyingKey::from_sec1_bytes(&compressed).unwrap(), vk);
            let mut uncompressed = vec![4u8];
            uncompressed.extend_from_slice(&modarith::to_be_bytes(&vk.x.0));
            uncompressed.extend_from_slice(&modarith::to_be_bytes(&vk.y.0));
            assert_eq!(VerifyingKey::from_sec1_bytes(&uncompressed).unwrap(), vk);
            assert!(VerifyingKey::from_sec1_bytes(&[1, 2, 3]).is_err());
            assert!(SigningKey::from_bytes(&[0u8; 32]).is_err());
            assert!(SigningKey::from_bytes(&[0xffu8; 32]).is_err());
        }
    }
}
