//! Offline stand-in for `signature` 2.x: the `Signer`/`Verifier` traits
//! and the opaque `Error`, shared by the `ed25519-dalek` and `k256`
//! stand-ins exactly as the real crates share the real one (so importing
//! the traits from either brings both key types' methods into scope).

/// A signature could not be produced, parsed or verified. Carries no
/// detail, like the real type.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Error;

impl Error {
    pub fn new() -> Error {
        Error
    }
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("signature error")
    }
}

impl std::error::Error for Error {}

/// Sign messages, producing `S`.
pub trait Signer<S> {
    /// Sign, panicking if signing fails (it cannot, for these schemes).
    fn sign(&self, msg: &[u8]) -> S {
        self.try_sign(msg).expect("signature operation failed")
    }
    fn try_sign(&self, msg: &[u8]) -> Result<S, Error>;
}

/// Verify signatures of type `S`.
pub trait Verifier<S> {
    fn verify(&self, msg: &[u8], signature: &S) -> Result<(), Error>;
}
