//! Key pairs and the key-registry signature scheme.
//!
//! ## The substitution, precisely
//!
//! Production RPKI uses RSA. The simulator replaces it with a scheme
//! whose security argument is *capability-based*: a [`KeyPair`] holds a
//! 32-byte secret; its [`PublicKey`] carries `key_id = SHA-256(secret)`.
//! A signature over message `m` is the tag `SHA-256(secret ‖ m)` plus
//! the signer's key id. Verifying requires recomputing the tag, which
//! requires the secret — so [`PublicKey::verify`] consults a process-wide
//! **key registry** mapping `key_id → secret`, populated at key
//! generation.
//!
//! Within the simulation this gives exactly RSA's interface guarantees:
//!
//! - No code path can mint a valid `(key_id, tag)` pair without having
//!   held the `KeyPair` (secrets are never exposed; `KeyPair` is not
//!   `Clone`-able into attacker hands except by explicitly moving it —
//!   which *is* the paper's "compromised authority" threat model).
//! - Tampering with a signed message invalidates the tag (SHA-256).
//! - Two distinct keys collide with probability 2^-256.
//!
//! What it deliberately does not give: security against an adversary
//! outside the process inspecting registry memory. That adversary is
//! outside every threat model this workspace simulates.
//!
//! Key generation is deterministic from a caller-supplied seed so that
//! every experiment is reproducible (DESIGN.md invariant 8).

use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{OnceLock, RwLock};

use serde::{Deserialize, Serialize};

use crate::sha256::{sha256, Digest, Sha256};

/// Identifies a key: the SHA-256 of its secret (analogous to an SKI —
/// Subject Key Identifier — in X.509).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct KeyId(pub Digest);

impl KeyId {
    /// Short hex form for logs.
    pub fn short(&self) -> String {
        self.0.short()
    }
}

impl fmt::Display for KeyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "key:{}", self.0.short())
    }
}

impl fmt::Debug for KeyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "KeyId({})", self.0.short())
    }
}

/// The public half of a key pair. Freely copyable; embedded in
/// certificates.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PublicKey {
    id: KeyId,
}

impl PublicKey {
    /// Rebuilds a public key from its identifier. Public keys carry no
    /// secret material, so this is safe: verification still requires the
    /// registry to know the secret behind `id`.
    #[inline]
    pub const fn from_id(id: KeyId) -> Self {
        PublicKey { id }
    }

    /// The key identifier.
    #[inline]
    pub const fn id(&self) -> KeyId {
        self.id
    }

    /// Verifies `sig` over `message` under this key.
    pub fn verify(&self, message: &[u8], sig: &Signature) -> Result<(), SignatureError> {
        if sig.key != self.id {
            return Err(SignatureError::WrongKey { expected: self.id, got: sig.key });
        }
        let secret = registry_lookup(self.id).ok_or(SignatureError::UnknownKey(self.id))?;
        if tag(&secret, message) != sig.tag {
            return Err(SignatureError::BadSignature);
        }
        Ok(())
    }
}

impl fmt::Debug for PublicKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PublicKey({})", self.id.short())
    }
}

/// A private signing capability. Holding a `KeyPair` *is* holding the
/// authority — handing one to attack code models a compromised or
/// coerced authority, the paper's flipped threat model.
pub struct KeyPair {
    public: PublicKey,
    secret: [u8; 32],
}

impl fmt::Debug for KeyPair {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Never print the secret.
        write!(f, "KeyPair({})", self.public.id.short())
    }
}

/// Global counter mixed into seeds so `KeyPair::generate` (the
/// convenience constructor) never repeats within a process.
static GEN_COUNTER: AtomicU64 = AtomicU64::new(0);

impl KeyPair {
    /// Deterministically derives a key pair from a seed string.
    ///
    /// Experiments derive all keys from stable names ("ARIN", "Sprint",
    /// "attacker-0") so reruns are byte-identical.
    pub fn from_seed(seed: &str) -> Self {
        let mut h = Sha256::new();
        h.update(b"rpkisim-key-v1:");
        h.update(seed.as_bytes());
        let secret = h.finalize().0;
        Self::from_secret(secret)
    }

    /// A fresh key pair with a process-unique (but run-deterministic)
    /// seed. Prefer [`KeyPair::from_seed`] in experiments.
    pub fn generate() -> Self {
        let n = GEN_COUNTER.fetch_add(1, Ordering::Relaxed);
        Self::from_seed(&format!("anonymous-{n}"))
    }

    fn from_secret(secret: [u8; 32]) -> Self {
        let id = KeyId(sha256(&secret));
        registry_insert(id, secret);
        KeyPair { public: PublicKey { id }, secret }
    }

    /// The public half.
    #[inline]
    pub const fn public(&self) -> PublicKey {
        self.public
    }

    /// The key identifier.
    #[inline]
    pub const fn id(&self) -> KeyId {
        self.public.id
    }

    /// Signs `message`.
    pub fn sign(&self, message: &[u8]) -> Signature {
        Signature { key: self.public.id, tag: tag(&self.secret, message) }
    }
}

/// A signature: the signing key's id plus the authentication tag.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Signature {
    key: KeyId,
    tag: Digest,
}

impl Signature {
    /// The id of the key that produced this signature.
    #[inline]
    pub const fn key(&self) -> KeyId {
        self.key
    }

    /// Splits into `(key id, tag)` for wire encoding.
    #[inline]
    pub const fn to_parts(&self) -> (KeyId, Digest) {
        (self.key, self.tag)
    }

    /// Rebuilds a signature from wire parts. Cannot be used to forge:
    /// verification recomputes the tag from the registry secret, so an
    /// invented tag simply fails [`PublicKey::verify`].
    #[inline]
    pub const fn from_parts(key: KeyId, tag: Digest) -> Self {
        Signature { key, tag }
    }

    /// A deliberately corrupted copy of this signature (flips one tag
    /// bit). Used by fault-injection tests and the Side Effect 6/7
    /// experiments.
    pub fn corrupted(&self) -> Signature {
        let mut tag = self.tag;
        tag.0[0] ^= 0x01;
        Signature { key: self.key, tag }
    }
}

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signature({} tag:{})", self.key.short(), self.tag.short())
    }
}

/// Why a signature failed to verify.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SignatureError {
    /// The signature names a different key than the verifying one.
    WrongKey {
        /// The verifying public key's id.
        expected: KeyId,
        /// The key id the signature names.
        got: KeyId,
    },
    /// The key id is not in the registry (never generated in this
    /// process — a forged or garbage key id).
    UnknownKey(KeyId),
    /// The tag did not match: message tampered or tag forged.
    BadSignature,
}

impl fmt::Display for SignatureError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SignatureError::WrongKey { expected, got } => {
                write!(f, "signature by {got}, expected {expected}")
            }
            SignatureError::UnknownKey(id) => write!(f, "unknown key {id}"),
            SignatureError::BadSignature => f.write_str("bad signature"),
        }
    }
}

impl std::error::Error for SignatureError {}

fn tag(secret: &[u8; 32], message: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(b"rpkisim-sig-v1:");
    h.update(secret);
    h.update(message);
    h.finalize()
}

/// Written when a `KeyPair` is created, read on every `verify`. A
/// process-wide static, so it needs a lock however many threads the
/// caller has (`cargo test` runs its tests on several); an `RwLock`
/// because the reads outnumber the writes and need not wait for each
/// other.
fn registry() -> &'static RwLock<HashMap<KeyId, [u8; 32]>> {
    static REGISTRY: OnceLock<RwLock<HashMap<KeyId, [u8; 32]>>> = OnceLock::new();
    REGISTRY.get_or_init(|| RwLock::new(HashMap::new()))
}

fn registry_insert(id: KeyId, secret: [u8; 32]) {
    registry().write().expect("key registry poisoned").insert(id, secret);
}

fn registry_lookup(id: KeyId) -> Option<[u8; 32]> {
    registry().read().expect("key registry poisoned").get(&id).copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sign_verify_round_trip() {
        let kp = KeyPair::from_seed("sprint");
        let sig = kp.sign(b"authorize AS1239 for 63.160.0.0/12");
        assert_eq!(kp.public().verify(b"authorize AS1239 for 63.160.0.0/12", &sig), Ok(()));
    }

    #[test]
    fn tampered_message_rejected() {
        let kp = KeyPair::from_seed("sprint");
        let sig = kp.sign(b"maxlen 24");
        assert_eq!(kp.public().verify(b"maxlen 25", &sig), Err(SignatureError::BadSignature));
    }

    #[test]
    fn corrupted_signature_rejected() {
        let kp = KeyPair::from_seed("sprint");
        let sig = kp.sign(b"payload").corrupted();
        assert_eq!(kp.public().verify(b"payload", &sig), Err(SignatureError::BadSignature));
    }

    #[test]
    fn cross_key_verification_rejected() {
        let a = KeyPair::from_seed("arin");
        let b = KeyPair::from_seed("ripe");
        let sig = a.sign(b"payload");
        assert!(matches!(
            b.public().verify(b"payload", &sig),
            Err(SignatureError::WrongKey { .. })
        ));
    }

    #[test]
    fn deterministic_from_seed() {
        let a = KeyPair::from_seed("etb");
        let b = KeyPair::from_seed("etb");
        assert_eq!(a.id(), b.id());
        // Identical keys produce identical signatures (the scheme is
        // deterministic, which experiments rely on).
        assert_eq!(a.sign(b"m"), b.sign(b"m"));
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        assert_ne!(KeyPair::from_seed("a").id(), KeyPair::from_seed("b").id());
    }

    #[test]
    fn generate_never_repeats() {
        let a = KeyPair::generate();
        let b = KeyPair::generate();
        assert_ne!(a.id(), b.id());
    }

    #[test]
    fn signature_binds_key_identity() {
        let kp = KeyPair::from_seed("continental");
        let sig = kp.sign(b"m");
        assert_eq!(sig.key(), kp.id());
    }

    #[test]
    fn debug_never_leaks_secret() {
        let kp = KeyPair::from_seed("secret-holder");
        let shown = format!("{kp:?}");
        assert!(shown.starts_with("KeyPair("));
        assert_eq!(shown.len(), "KeyPair(".len() + 8 + 1);
    }
}
