//! Publication-server equivalence: compaction and retention are
//! server-side *layout* policies — they may move clients between the
//! delta path and the snapshot-fallback path, but they must never
//! change a byte of what a relying party concludes.
//!
//! Played through the differential harness ([`harness`]): for any
//! seeded churn schedule × compaction interval × retention budget, an
//! RRDP client of the policied server holds a validation output
//! byte-identical to the cold walk at every poll, and the
//! fallback-cause counters partition its snapshot syncs.
//!
//! The `--ignored` soak widens the sweep: 32 seeds × a full
//! steady-state churn mix (renew/add/withdraw/refresh/re-sign) with a
//! mid-run session reset, so every fallback cause fires somewhere in
//! the population.

mod common;
mod harness;

use harness::{arb_pubd, must_play, play, Chain, Rp, Step, Transport};
use proptest::prelude::*;
use rpki_repo::RetentionPolicy;
use rpki_risk::RrdpMode;
use rpki_rp::RevalidationMode;

/// An RRDP-transported incremental party (trusting: the subject under
/// test is the serve path, not the rsync cross-check).
const POLLER: Chain = Chain {
    memo: Some(RevalidationMode::Probe),
    ..Chain::bare(Transport::Rrdp(RrdpMode::Trusting))
};

/// Layout policies never surface as client-visible errors.
fn no_client_errors(rps: &[Rp]) -> Result<(), TestCaseError> {
    for rp in rps {
        prop_assert_eq!(rp.rrdp.stats().downgrades, 0);
        harness::causes_partition(&rp.rrdp)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any churn schedule × compaction interval × retention budget,
    /// the policied server's client and the unbounded rebuild-on-demand
    /// server's client both produce the cold walk's validation run at
    /// every poll.
    #[test]
    fn any_policy_is_byte_identical_to_the_unbounded_server(
        pubd in arb_pubd(),
        churn_seed in 0u64..1_000,
        churn in 4usize..=12,
    ) {
        let under = |policy| {
            let steps: Vec<Step> =
                std::iter::once(policy).chain(std::iter::repeat_n(Step::Churn, churn)).collect();
            play(churn_seed, &[POLLER], &steps)
        };
        no_client_errors(&under(pubd)?)?;
        let reference = under(Step::Pubd { interval: 1, retention: RetentionPolicy::Unbounded })?;
        no_client_errors(&reference)?;
        // The reference server never evicts and never compacts, so its
        // client can only have fallen back at the initial sync.
        let stats = reference[0].rrdp.stats();
        prop_assert_eq!(stats.fallback_evicted, 0);
        prop_assert_eq!(stats.snapshot_syncs, stats.fallback_initial);
    }
}

/// The 32-seed churn soak: a full production mix (renews, adds,
/// withdraws, manifest refreshes, bulk re-signs) against a compacted
/// budgeted server, with a mid-run session reset. Run with
/// `cargo test -- --ignored`.
#[test]
#[ignore = "soak: 32 seeds x 24 churn steps; run explicitly"]
fn churn_soak_holds_equivalence_across_32_seeds() {
    for seed in 0..32u64 {
        let retention = match seed % 3 {
            0 => RetentionPolicy::Count { max_deltas: 1 + (seed as usize % 8) },
            1 => RetentionPolicy::Bytes { max_bytes: 512 + seed * 97 },
            _ => RetentionPolicy::Unbounded,
        };
        let mut steps = vec![Step::Pubd { interval: 1 + seed % 8, retention }];
        steps.extend([Step::Churn; 12]);
        // RFC 8182's restart case, mid-churn: every point's session
        // resets, so the client must re-snapshot.
        steps.push(Step::SessionReset);
        steps.extend([Step::Churn; 12]);
        let rps = must_play(seed, &[POLLER], &steps);
        no_client_errors(&rps).unwrap_or_else(|e| panic!("seed {seed}: {e}"));
        assert!(
            rps[0].rrdp.stats().fallback_session_reset > 0,
            "seed {seed}: the mid-run reset must register as a session-reset fallback"
        );
    }
}
