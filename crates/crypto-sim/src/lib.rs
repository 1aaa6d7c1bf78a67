//! Deterministic crypto substrate for the `rpki-risk` simulator.
//!
//! The HotNets '13 attacks are *authorization-semantics* attacks: a
//! manipulator never breaks a cipher, it (ab)uses powers the RPKI design
//! legitimately grants to authorities. What the rest of the workspace
//! needs from "crypto" is therefore exactly three properties:
//!
//! 1. **Integrity** — any bit-flip in a published object is detected
//!    (Side Effect 6/7 hinge on corrupted or missing objects).
//! 2. **Unforgeability within the simulation** — only the holder of a
//!    private key handle can produce a signature that verifies under the
//!    corresponding public key.
//! 3. **Key identity & rollover** — certificates name keys; RFC 6489
//!    rollover replaces a CA's key pair without renaming its objects.
//!
//! Module layout:
//!
//! - [`mod@sha256`] — a real, test-vectored SHA-256 (FIPS 180-4). Digests
//!   are real so corruption detection behaves exactly like production.
//!   Its compression function runs on the x86 SHA extensions where the
//!   CPU reports them and on a portable loop elsewhere, chosen at run
//!   time; the call that crosses into the `#[target_feature]` kernel is
//!   the workspace's only `unsafe` (hence `deny` below, not `forbid`).
//! - [`keys`] — key pairs, key identifiers, and the signing API. The
//!   signature scheme is a *key-registry MAC*: `sig = SHA-256(secret ‖
//!   message)`, verifiable because the public key commits to the secret
//!   via `key_id = SHA-256(secret)` and verification recomputes the tag
//!   through the registry. This substitution (documented in DESIGN.md)
//!   preserves the trust/delegation semantics the paper analyses while
//!   keeping the workspace free of external crypto dependencies.

#![deny(unsafe_code)]
#![deny(clippy::undocumented_unsafe_blocks)]
#![warn(missing_docs)]

pub mod keys;
pub mod sha256;

pub use keys::{KeyId, KeyPair, PublicKey, Signature, SignatureError};
pub use sha256::{sha256, Digest};

/// SplitMix64's increment: what its stream adds to the state per draw.
pub const SPLITMIX64_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64 — the workspace's seeded stateless mixer: one
/// deterministic, well-mixed u64 per input. The stream seeded at `s` is
/// `splitmix64(s)`, `splitmix64(s + SPLITMIX64_GAMMA)`, and so on.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
