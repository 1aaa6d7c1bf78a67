//! Adversarial objects through the differential harness ([`harness`]).
//!
//! Every corpus family ([`rpki_attacks::corpus`]) is published at a
//! mid-tree point through the ordinary publication log — so rsync
//! listings, RRDP deltas and snapshots carry the same poison — after
//! the warm-up, so a memo meets it as a change; a renewal then heals
//! it. The parties' chains take, between them, every value of every
//! option axis. The harness's contract is what a crafted object must
//! not break: no panic (a crash is a denial-of-service primitive
//! cheaper than any whack), every chain's run equal to the cold walk,
//! and the poison confined to its own subtree.

mod common;
mod harness;

use common::Op;
use harness::{Chain, Step, Transport};
use rpki_attacks::CorpusKind;
use rpki_risk::RrdpMode;
use rpki_rp::RevalidationMode;

/// Chains that between them take every value of every axis.
const COVER: [Chain; 4] = [
    Chain::bare(Transport::Once),
    Chain {
        fetch: Transport::Retry,
        memo: Some(RevalidationMode::Full),
        scheduled: true,
        stale: true,
    },
    Chain {
        fetch: Transport::Rrdp(RrdpMode::Verified),
        memo: Some(RevalidationMode::Probe),
        scheduled: false,
        stale: true,
    },
    Chain {
        fetch: Transport::Rrdp(RrdpMode::Trusting),
        memo: Some(RevalidationMode::Probe),
        scheduled: true,
        stale: false,
    },
];

/// Every corpus family at one seed, which varies the world and the
/// corpus mutation (offsets, bit positions, serials).
fn every_kind_at(seed: u64) {
    for kind in CorpusKind::ALL {
        let steps = [Step::Poison { ca: 1, kind, seed }, Step::World(Op::Renew(1))];
        if let Err(e) = harness::play(2013 + seed, &COVER, &steps) {
            panic!("{kind:?} at seed {seed}: {e}");
        }
    }
}

#[test]
fn every_corpus_kind_is_panic_free_and_tier_identical() {
    every_kind_at(0);
}

/// The nightly soak: every family at 32 seeds, so 32 distinct
/// poisoned worlds and corpus mutations per family.
#[test]
#[ignore = "nightly adversarial soak; run with --ignored"]
fn adversarial_soak_32_seeds() {
    for seed in 0..32 {
        every_kind_at(seed);
    }
}
