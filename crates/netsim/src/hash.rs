//! The hasher behind the per-link maps.
//!
//! Every message looks up its link's latency on send and advances its
//! link's fault counter on delivery. The keys are pairs of dense `u32`
//! node ids chosen by the simulation itself, so SipHash's defence
//! against chosen keys buys nothing there and costs most of the lookup.
//! [`LinkHasher`] is the multiply-rotate word hash (the one rustc's
//! `FxHasher` uses): one rotate, xor and multiply per word.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// A map keyed by node ids or pairs of them.
pub(crate) type LinkMap<K, V> = HashMap<K, V, BuildHasherDefault<LinkHasher>>;

/// A set of node ids or pairs of them.
pub(crate) type LinkSet<K> = HashSet<K, BuildHasherDefault<LinkHasher>>;

/// Multiply-rotate hasher for small integer keys. Not collision
/// resistant: use it only for keys the simulation assigns.
#[derive(Debug, Default, Clone, Copy)]
pub(crate) struct LinkHasher(u64);

const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl LinkHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for LinkHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NodeId;
    use std::hash::{BuildHasher, Hash};

    fn hash<T: Hash>(value: &T) -> u64 {
        BuildHasherDefault::<LinkHasher>::default().hash_one(value)
    }

    #[test]
    fn directed_links_hash_apart_and_deterministically() {
        let (a, b) = (NodeId(3), NodeId(7));
        assert_eq!(hash(&(a, b)), hash(&(a, b)));
        assert_ne!(hash(&(a, b)), hash(&(b, a)), "direction is part of the key");
        // Dense ids spread over hashbrown's 7-bit control tags too.
        let tags: HashSet<u64> =
            (0..64u32).map(|i| hash(&(NodeId(i), NodeId(i + 1))) >> 57).collect();
        assert!(tags.len() > 32, "only {} distinct top-7-bit tags", tags.len());
    }
}
