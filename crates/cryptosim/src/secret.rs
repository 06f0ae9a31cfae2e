//! Secrets, hashlocks and nonces.

use std::fmt;
use std::sync::{Arc, OnceLock};

use serde::{Deserialize, Serialize};

use crate::digest::{sha256_concat, Digest};

/// A hashlock preimage: the secret `s` such that `h = H(s)`.
///
/// In the two-party swap Alice generates a secret, publishes its
/// [`Hashlock`] on both escrow contracts, and later reveals the secret to
/// redeem Bob's principal. Secrets are 32 bytes derived deterministically
/// from a seed so that simulations are reproducible.
///
/// # Examples
///
/// ```
/// use cryptosim::Secret;
///
/// let s = Secret::from_seed(1);
/// let h = s.hashlock();
/// assert!(h.matches(&s));
/// assert!(!h.matches(&Secret::from_seed(2)));
/// ```
#[derive(Clone, Serialize, Deserialize)]
pub struct Secret {
    /// Shared bytes: secrets are cloned into every redeem message and
    /// revealed-secret table of a run, so clones must be allocation-free.
    bytes: Arc<[u8]>,
    /// Lazily computed hashlock, shared across clones. Hashlock checks run
    /// on every redeem and hashkey presentation of a simulation, so the
    /// hash is computed once per secret instead of once per check.
    hashlock: Arc<OnceLock<Hashlock>>,
}

impl Secret {
    /// Creates a secret from arbitrary bytes.
    pub fn from_bytes(bytes: impl Into<Vec<u8>>) -> Self {
        Secret { bytes: bytes.into().into(), hashlock: Arc::new(OnceLock::new()) }
    }

    /// Derives a 32-byte secret deterministically from a numeric seed.
    ///
    /// Distinct seeds yield distinct secrets with overwhelming probability.
    pub fn from_seed(seed: u64) -> Self {
        let digest = sha256_concat(&[b"cryptosim/secret", &seed.to_be_bytes()]);
        Secret::from_bytes(digest.as_bytes().to_vec())
    }

    /// Returns the raw secret bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Computes the hashlock `H(s)` for this secret (cached after the first
    /// call; clones share the cache).
    pub fn hashlock(&self) -> Hashlock {
        *self
            .hashlock
            .get_or_init(|| Hashlock(sha256_concat(&[b"cryptosim/hashlock", &self.bytes])))
    }
}

impl PartialEq for Secret {
    fn eq(&self, other: &Self) -> bool {
        self.bytes == other.bytes
    }
}

impl Eq for Secret {}

impl std::hash::Hash for Secret {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.bytes.hash(state);
    }
}

impl fmt::Debug for Secret {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Do not print secret material in debug logs; print its hashlock.
        write!(f, "Secret(h={})", self.hashlock().digest().short_hex())
    }
}

/// A hashlock value `h = H(s)` that guards an escrow contract.
///
/// A contract initialised with a hashlock releases its asset only when shown
/// a [`Secret`] whose hash matches.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Hashlock(Digest);

impl Hashlock {
    /// Returns the underlying digest.
    pub fn digest(&self) -> Digest {
        self.0
    }

    /// Returns `true` if `secret` is a preimage of this hashlock.
    pub fn matches(&self, secret: &Secret) -> bool {
        secret.hashlock() == *self
    }
}

impl fmt::Debug for Hashlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Hashlock({})", self.0.short_hex())
    }
}

impl fmt::Display for Hashlock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<Secret> for Hashlock {
    fn from(secret: Secret) -> Self {
        secret.hashlock()
    }
}

/// A single-use label attached to signed messages to prevent replay.
///
/// The threat model (§3.2 of the paper) assumes messages carry nonces so
/// they cannot be replayed; the simulator threads nonces through signed
/// payloads.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Nonce(pub u64);

impl Nonce {
    /// Returns the next nonce in sequence.
    #[must_use]
    pub fn next(self) -> Nonce {
        Nonce(self.0.wrapping_add(1))
    }
}

impl fmt::Display for Nonce {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "nonce#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn secret_hashlock_roundtrip() {
        let s = Secret::from_seed(99);
        assert!(s.hashlock().matches(&s));
    }

    #[test]
    fn wrong_secret_does_not_match() {
        let s = Secret::from_seed(1);
        let other = Secret::from_seed(2);
        assert!(!s.hashlock().matches(&other));
    }

    #[test]
    fn seeds_are_deterministic_and_distinct() {
        assert_eq!(Secret::from_seed(5), Secret::from_seed(5));
        assert_ne!(Secret::from_seed(5), Secret::from_seed(6));
    }

    #[test]
    fn secret_debug_does_not_leak_bytes() {
        let s = Secret::from_bytes(b"super-secret".to_vec());
        let debug = format!("{s:?}");
        assert!(!debug.contains("super-secret"));
        assert!(debug.starts_with("Secret(h="));
    }

    #[test]
    fn hashlock_from_secret_conversion() {
        let s = Secret::from_seed(3);
        let h: Hashlock = s.clone().into();
        assert!(h.matches(&s));
    }

    #[test]
    fn hashlock_is_not_raw_sha_of_secret() {
        // Domain separation: the hashlock uses a tagged hash, so it differs
        // from a plain SHA-256 of the secret bytes.
        let s = Secret::from_seed(8);
        assert_ne!(s.hashlock().digest(), crate::sha256(s.as_bytes()));
    }

    #[test]
    fn nonce_sequence_and_display() {
        let n = Nonce(7);
        assert_eq!(n.next(), Nonce(8));
        assert_eq!(format!("{n}"), "nonce#7");
        assert_eq!(Nonce(u64::MAX).next(), Nonce(0));
    }
}
