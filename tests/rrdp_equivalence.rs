//! RRDP equivalence: the delta protocol must be invisible in output.
//!
//! The RRDP subsystem's contract has three layers. The first two are
//! clauses of the differential harness's contract ([`harness`]),
//! played here with RRDP parties under random authority-side
//! mutations:
//!
//! - **transport** — whatever a repository did, a client applying the
//!   delta chain holds byte-identical directory content to a client
//!   fetching the latest snapshot, and both equal a complete rsync
//!   sync of the same directory (including at-rest corruption: the
//!   snapshot-equals-current-files invariant means rot travels
//!   through deltas too);
//! - **validation** — an RRDP-sourced validation run is byte-identical
//!   to the cold walk of the same world, diagnostics and all;
//! - **campaigns** — across every standard fault campaign, the rrdp
//!   tier's per-round VRP counts equal the retrying-stale tier's: the
//!   transports differ, the relying party's view must not.
//!
//! The RTR test closes the session pipeline: an authority-side RRDP
//! session reset surfaces to routers as a `CacheReset`, never as a
//! silent serial bump over changed data.

mod common;
mod harness;

use harness::{arb_pubd, arb_steps, must_play, play, Chain, Fault, Step, Transport, WORLD};
use proptest::prelude::*;
use rpki_obs::Recorder;
use rpki_risk::{standard_campaigns, Campaign, RpTier, RrdpMode, Walk};

const VERIFIED: Chain = Chain::bare(Transport::Rrdp(RrdpMode::Verified));

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Transport equivalence, synced after every mutation: the
    /// harness's chained client advances by delta chains (or the
    /// occasional forced snapshot) and must match both a from-scratch
    /// snapshot client and a complete rsync sync at every step.
    #[test]
    fn delta_chain_equals_snapshot_equals_rsync_stepwise(steps in arb_steps(WORLD, 1..13)) {
        play(3, &[VERIFIED], &steps)?;
    }

    /// Transport equivalence, synced once at the end: the RRDP feed is
    /// offline while the mutations land, under a random compaction and
    /// retention policy, so the catch-up drives both the deep-chain
    /// path and the gap-forced snapshot fallback.
    #[test]
    fn delta_chain_equals_snapshot_after_a_batch(
        pubd in arb_pubd(),
        ops in arb_steps(WORLD, 1..20),
    ) {
        let offline = Step::Fault { fault: Fault::RrdpOffline, steps: ops.len() as u8 };
        let steps: Vec<Step> = [pubd, offline].into_iter().chain(ops).collect();
        play(4, &[VERIFIED], &steps)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Validation equivalence: after every authority-side mutation, an
    /// RRDP-sourced run (persistent client state, verified mode)
    /// reproduces the cold walk byte for byte.
    #[test]
    fn rrdp_validation_matches_cold_after_random_mutations(steps in arb_steps(0..4, 1..8)) {
        let rps = play(6, &[VERIFIED], &steps)?;
        // An honest world never trips the freshness cross-check, and
        // its only snapshot fallbacks are the initial cold syncs.
        let stats = rps[0].rrdp.stats();
        prop_assert_eq!(stats.pinned_detected, 0);
        prop_assert_eq!(stats.downgrades, 0);
        prop_assert_eq!(stats.fallback_session_reset, 0);
        harness::causes_partition(&rps[0].rrdp)?;
    }
}

/// Campaign equivalence: under every standard campaign, the rrdp tier
/// and the retrying-stale tier run the same resilient stack over
/// different transports — their per-round VRP counts must agree, fault
/// windows and all (the verified RRDP client sees through pins and
/// downgrades around outages, so transport choice never shows in the
/// relying party's view).
#[test]
fn rrdp_tier_matches_rsync_tier_on_every_standard_campaign() {
    for spec in standard_campaigns() {
        let out = Campaign::Private(Walk::Incremental).run(&spec, 2013, &Recorder::disabled());
        let rrdp: Vec<usize> = out.tier(RpTier::Rrdp).rounds.iter().map(|m| m.vrps).collect();
        let stale: Vec<usize> =
            out.tier(RpTier::RetryingStale).rounds.iter().map(|m| m.vrps).collect();
        assert_eq!(rrdp, stale, "campaign {}: transports disagreed on VRP counts", spec.name);
    }
}

/// The session pipeline end to end: every publication point resets its
/// RRDP session (key rollover, database loss — RFC 8182's restart
/// case), which bumps the client's epoch. The harness wires the epoch
/// into the RTR server, so the router must be sent a `CacheReset` and
/// reconverge on the run's set.
#[test]
fn rrdp_session_reset_propagates_as_rtr_cache_reset() {
    let rps = must_play(13, &[VERIFIED], &[Step::SessionReset]);
    assert!(rps[0].rrdp.epoch() > 0, "session resets must bump the client epoch");
    assert_eq!(rps[0].resets, 1, "the new RTR session reached the router as one CacheReset");
}
