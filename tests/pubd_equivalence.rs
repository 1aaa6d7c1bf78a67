//! Publication-server equivalence: compaction and retention are
//! server-side *layout* policies — they may move clients between the
//! delta path and the snapshot-fallback path, but they must never
//! change a byte of what a relying party concludes.
//!
//! The property pinned here (the `tests/rrdp_equivalence.rs` pattern,
//! one policy knob deeper): for any seeded churn schedule × compaction
//! interval × retention budget, a client of the policied server holds a
//! validation output byte-identical to a client of the uncompacted,
//! unbounded server over the same world — and both equal the rsync
//! cold walk. The fallback-cause counters must always partition the
//! snapshot syncs.
//!
//! The `--ignored` soak widens the sweep: 32 seeds × a full
//! steady-state churn mix (renew/add/withdraw/refresh/re-sign) with a
//! mid-run session reset, so every fallback cause fires somewhere in
//! the population.

use proptest::prelude::*;
use rpki_ca::{ChurnConfig, ChurnEngine};
use rpki_objects::Moment;
use rpki_repo::{PubdPolicy, RetentionPolicy, RrdpClientState, RrdpStats};
use rpki_risk::{RrdpMode, SyntheticRpki, ValidationOptions};
use rpki_rp::{ValidationRun, ValidationState};

/// One RRDP-transported incremental revalidation (trusting: the
/// subject under test is the serve path, not the rsync cross-check).
fn poll(
    w: &mut SyntheticRpki,
    now: Moment,
    rrdp: &mut RrdpClientState,
    state: &mut ValidationState,
) -> ValidationRun {
    w.validate_with(ValidationOptions::at(now).rrdp(rrdp, RrdpMode::Trusting).incremental(state))
}

/// Every snapshot sync has exactly one recorded cause.
fn assert_causes_partition(stats: &RrdpStats) {
    assert_eq!(
        stats.fallback_initial
            + stats.fallback_evicted
            + stats.fallback_session_reset
            + stats.fallback_chain_gap,
        stats.snapshot_syncs,
        "fallback causes must partition the snapshot syncs: {stats:?}"
    );
}

fn arb_retention() -> impl Strategy<Value = RetentionPolicy> {
    (0u8..3, 1usize..=32, 64u64..65_536).prop_map(|(kind, max_deltas, max_bytes)| match kind {
        0 => RetentionPolicy::Count { max_deltas },
        1 => RetentionPolicy::Bytes { max_bytes },
        _ => RetentionPolicy::Unbounded,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// For any churn schedule × compaction interval × retention budget,
    /// the policied server's client and the unbounded rebuild-on-demand
    /// server's client produce byte-identical validation runs at every
    /// poll, and both match the cold walk.
    #[test]
    fn any_policy_is_byte_identical_to_the_unbounded_server(
        interval in 1u64..=12,
        retention in arb_retention(),
        churn_seed in 0u64..1_000,
        steps in 4u64..=12,
    ) {
        // depth 2 / branching 3: 13 publication points, 3 ROAs each.
        let mut subject = SyntheticRpki::build_seeded(6, 2, 3, 3);
        let mut reference = SyntheticRpki::build_seeded(6, 2, 3, 3);
        subject
            .repos
            .by_host_mut("rpki.bench.example")
            .expect("bench host")
            .set_pubd_policy(PubdPolicy::compacted(interval).with_retention(retention));
        reference
            .repos
            .by_host_mut("rpki.bench.example")
            .expect("bench host")
            .set_pubd_policy(PubdPolicy::rebuild_on_demand().with_retention(
                RetentionPolicy::Unbounded,
            ));

        let mut subject_rrdp = RrdpClientState::new();
        let mut subject_val = ValidationState::probe();
        let mut reference_rrdp = RrdpClientState::new();
        let mut reference_val = ValidationState::probe();
        poll(&mut subject, Moment(2), &mut subject_rrdp, &mut subject_val);
        poll(&mut reference, Moment(2), &mut reference_rrdp, &mut reference_val);

        // Identically seeded engines drive both worlds through the
        // same schedule; the subject client polls only every other
        // step, so multi-serial catch-ups exercise eviction-forced
        // fallbacks under tight budgets.
        let mut subject_engine = ChurnEngine::new(churn_seed, ChurnConfig::steady());
        let mut reference_engine = ChurnEngine::new(churn_seed, ChurnConfig::steady());
        for step in 0..steps {
            let at = Moment(10 + step * 60);
            let sr = subject.run_churn(&mut subject_engine, at);
            let rr = reference.run_churn(&mut reference_engine, at);
            prop_assert_eq!(&sr, &rr, "identically seeded engines diverged");

            if step % 2 == 1 || step == steps - 1 {
                let measure = Moment(at.0 + 30);
                let s = poll(&mut subject, measure, &mut subject_rrdp, &mut subject_val);
                let r = poll(&mut reference, measure, &mut reference_rrdp, &mut reference_val);
                prop_assert_eq!(
                    &s, &r,
                    "policy (interval {}, {}) changed the client's conclusions at step {}",
                    interval, retention.label(), step
                );
                let cold = subject.validate_with(ValidationOptions::at(Moment(measure.0 + 1)));
                prop_assert_eq!(&s, &cold, "policied client diverged from the cold walk");
            }
        }

        // Layout policies never surface as client-visible errors.
        for stats in [subject_rrdp.stats(), reference_rrdp.stats()] {
            prop_assert_eq!(stats.failures, 0);
            prop_assert_eq!(stats.downgrades, 0);
            assert_causes_partition(&stats);
        }
        // The reference server never evicts and never compacts, so its
        // client can only have fallen back at the initial sync.
        prop_assert_eq!(reference_rrdp.stats().fallback_evicted, 0);
        prop_assert_eq!(reference_rrdp.stats().snapshot_syncs,
            reference_rrdp.stats().fallback_initial);
    }
}

/// The 32-seed churn soak: a full production mix (renews, adds,
/// withdraws, manifest refreshes, bulk re-signs) against a compacted
/// byte-budgeted server, with a mid-run session reset, polled by a
/// steady and a lagging client. Run with `cargo test -- --ignored`.
#[test]
#[ignore = "soak: 32 seeds x 24 churn steps; run explicitly"]
fn churn_soak_holds_equivalence_across_32_seeds() {
    for seed in 0..32u64 {
        let mut w = SyntheticRpki::build_seeded(6, 2, 3, 3);
        let interval = 1 + seed % 8;
        let retention = match seed % 3 {
            0 => RetentionPolicy::Count { max_deltas: 1 + (seed as usize % 8) },
            1 => RetentionPolicy::Bytes { max_bytes: 512 + seed * 97 },
            _ => RetentionPolicy::Unbounded,
        };
        w.repos
            .by_host_mut("rpki.bench.example")
            .expect("bench host")
            .set_pubd_policy(PubdPolicy::compacted(interval).with_retention(retention));

        let mut steady_rrdp = RrdpClientState::new();
        let mut steady_val = ValidationState::probe();
        let mut lag_rrdp = RrdpClientState::new();
        let mut lag_val = ValidationState::probe();
        poll(&mut w, Moment(2), &mut steady_rrdp, &mut steady_val);
        poll(&mut w, Moment(3), &mut lag_rrdp, &mut lag_val);

        let mut engine = ChurnEngine::new(seed, ChurnConfig::steady());
        for step in 0..24u64 {
            let at = Moment(10 + step * 60);
            w.run_churn(&mut engine, at);
            if step == 12 {
                // RFC 8182's restart case, mid-churn: every point's
                // session resets, so both clients must re-snapshot.
                w.repos
                    .by_host_mut("rpki.bench.example")
                    .expect("bench host")
                    .rrdp_reset_sessions();
            }
            let measure = Moment(at.0 + 30);
            let run = poll(&mut w, measure, &mut steady_rrdp, &mut steady_val);
            if step % 7 == 6 {
                poll(&mut w, measure, &mut lag_rrdp, &mut lag_val);
            }
            let cold = w.validate_with(ValidationOptions::at(Moment(measure.0 + 1)));
            assert_eq!(
                run, cold,
                "seed {seed}: steady client diverged from the cold walk at step {step}"
            );
        }

        for stats in [steady_rrdp.stats(), lag_rrdp.stats()] {
            assert_eq!(stats.failures, 0, "seed {seed}: {stats:?}");
            assert_causes_partition(&stats);
        }
        assert!(
            steady_rrdp.stats().fallback_session_reset > 0,
            "seed {seed}: the mid-run reset must register as a session-reset fallback"
        );
    }
}
