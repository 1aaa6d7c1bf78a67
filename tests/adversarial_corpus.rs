//! The adversarial-object differential suite.
//!
//! Every corpus family ([`rpki_attacks::corpus`]) is published into
//! the model world through the ordinary publication log — so rsync
//! listings, RRDP deltas, and snapshots all carry the same poison —
//! and then every relying-party tier validates the same poisoned
//! world:
//!
//! - the cold full walk,
//! - the incremental engine (warmed on the healthy world, so the
//!   poison arrives as a delta),
//! - the trusting RRDP client (no freshness cross-check),
//! - the verified RRDP client.
//!
//! Three invariants, for every family × tier:
//!
//! 1. **No panics.** Each tier runs under `catch_unwind`; a crafted
//!    object that can kill a relying party is a denial-of-service
//!    primitive strictly cheaper than any whack.
//! 2. **Byte-identical divergence reports.** All tiers produce the
//!    same [`ValidationRun`] — VRPs, diagnostics, rejected CAs,
//!    freshness, everything. A tier that reads poison differently
//!    from the cold walk is a tier whose operators see a different
//!    RPKI.
//! 3. **Per-subtree degradation.** Poisoning Continental's
//!    publication point must never take down Sprint's or Etb's VRPs:
//!    the blast radius of a malformed object is its own subtree.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rpki_attacks::CorpusKind;
use rpki_objects::Moment;
use rpki_repo::RrdpClientState;
use rpki_risk::{ModelRpki, RrdpMode, ValidationOptions};
use rpki_rp::{ValidationRun, ValidationState};

const POISONED_HOST: &str = "rpki.continental.example";

/// VRPs that live outside the poisoned subtree and must survive every
/// corpus family: Sprint's two ROAs and Etb's one.
const SIBLING_PREFIXES: [&str; 3] = ["63.160.64.0/20", "208.24.0.0/16", "63.166.0.0/16"];

/// One tier: build a fresh world, warm any tier state on the healthy
/// world, poison Continental, revalidate. Deterministic per
/// `(kind, seed)`, so every tier sees byte-identical repositories.
fn run_tier(tier: &str, kind: CorpusKind, seed: u64) -> ValidationRun {
    let mut w = ModelRpki::build_seeded(2013 + seed);
    let warm = Moment(2);
    let at = Moment(4);
    match tier {
        "cold" => {
            w.poison_host(POISONED_HOST, kind, seed, Moment(3)).expect("host exists");
            w.validate_with(ValidationOptions::at(at))
        }
        "incremental" => {
            let mut state = ValidationState::full();
            w.validate_with(ValidationOptions::at(warm).incremental(&mut state));
            w.poison_host(POISONED_HOST, kind, seed, Moment(3)).expect("host exists");
            w.validate_with(ValidationOptions::at(at).incremental(&mut state))
        }
        "rrdp-probe" => {
            let mut state = RrdpClientState::new();
            w.validate_with(ValidationOptions::at(warm).rrdp(&mut state, RrdpMode::Trusting));
            w.poison_host(POISONED_HOST, kind, seed, Moment(3)).expect("host exists");
            w.validate_with(ValidationOptions::at(at).rrdp(&mut state, RrdpMode::Trusting))
        }
        "rrdp-verified" => {
            let mut state = RrdpClientState::new();
            w.validate_with(ValidationOptions::at(warm).rrdp(&mut state, RrdpMode::Verified));
            w.poison_host(POISONED_HOST, kind, seed, Moment(3)).expect("host exists");
            w.validate_with(ValidationOptions::at(at).rrdp(&mut state, RrdpMode::Verified))
        }
        other => panic!("unknown tier {other}"),
    }
}

const TIERS: [&str; 4] = ["cold", "incremental", "rrdp-probe", "rrdp-verified"];

/// The full differential matrix at one seed: no tier panics, all
/// tiers agree byte-for-byte, siblings survive.
fn differential_at(seed: u64) {
    for kind in CorpusKind::ALL {
        let mut runs: Vec<(&str, ValidationRun)> = Vec::new();
        for tier in TIERS {
            let run = catch_unwind(AssertUnwindSafe(|| run_tier(tier, kind, seed))).unwrap_or_else(
                |_| panic!("tier {tier} panicked on corpus kind {:?} seed {seed}", kind),
            );
            runs.push((tier, run));
        }
        let (_, reference) = &runs[0];
        for (tier, run) in &runs[1..] {
            assert_eq!(
                run, reference,
                "tier {tier} diverged from the cold walk on {:?} seed {seed}",
                kind
            );
        }
        // Blast-radius check: the poisoned subtree never takes down
        // its siblings.
        for prefix in SIBLING_PREFIXES {
            let p = prefix.parse().expect("literal prefix");
            assert!(
                reference.vrps.iter().any(|v| v.prefix == p),
                "sibling VRP {prefix} lost under {:?} seed {seed}: {:?}",
                kind,
                reference.vrps
            );
        }
    }
}

#[test]
fn every_corpus_kind_is_panic_free_and_tier_identical() {
    differential_at(0);
}

/// The nightly soak: the same matrix across 32 seeds. Each seed
/// varies the corpus mutations (offsets, bit positions, serials) and
/// the world seed, so the matrix covers 32 distinct poisoned worlds
/// per family.
#[test]
#[ignore = "nightly adversarial soak; run with --ignored"]
fn adversarial_soak_32_seeds() {
    for seed in 0..32 {
        differential_at(seed);
    }
}
