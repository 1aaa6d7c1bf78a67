//! Degenerate-schedule byte-identity, played through the differential
//! harness ([`harness`]).
//!
//! The fetch scheduler's correctness anchor is
//! [`SchedulePlan::degenerate`](rpki_rp::SchedulePlan::degenerate):
//! with zero cadence, unlimited budgets, no jitter, and no backoff, the
//! scheduled stack must be byte-identical to the unscheduled walk —
//! same `ValidationRun`, same JSONL trace, same VRP set — whatever the
//! world did in between, and it must delegate every visit, so it costs
//! the wire what the bare stack costs. Everything the real schedule
//! saves must come from policy, never from silently changing what a
//! delegated fetch returns. A cold and an incremental party, both
//! under the degenerate plan, keep their schedules across random
//! mutations; on the relying-party benchmark's epoch timeline the
//! degenerate plan also sends exactly the frames the sweep sends.
//!
//! The slow-serve soak over the schedule-gaming campaign lives in
//! `tests/resilience_campaign.rs`.

mod common;
mod harness;

use harness::{arb_steps, play, Chain, Transport, WORLD};
use proptest::prelude::*;
use rpki_objects::{Moment, Span};
use rpki_repo::RrdpClientState;
use rpki_risk::{Fetch, RrdpMode, ValidationOptions, World};
use rpki_rp::{RevalidationMode, SchedulePlan, SchedulerState, ValidationState};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// After every mutation, the degenerate schedule reproduces the
    /// cold walk byte for byte on the cold and the incremental tier,
    /// and delegates every visit.
    #[test]
    fn degenerate_schedule_is_byte_identical_on_every_tier(steps in arb_steps(WORLD, 1..8)) {
        let cold = Chain { scheduled: true, ..Chain::bare(Transport::Once) };
        let incremental = Chain { memo: Some(RevalidationMode::Probe), ..cold };
        play(17, &[cold, incremental], &steps)?;
    }
}

/// The degenerate plan on the relying-party benchmark's epoch timeline
/// (150 000 s between rounds, manifests stretched to a year): over
/// three rounds at 10 % churn on the 156-point tree, trusting RRDP
/// under the probe memo returns the same run and sends the same frames
/// with the scheduler in front as without it.
#[test]
fn degenerate_plan_matches_the_sweep_on_the_wire() {
    let world = || {
        let mut w = World::tree(11, 3, 5, 4);
        for ca in &mut w.cas {
            ca.set_refresh_interval(Span::days(365));
        }
        w.publish_all(Moment(w.net.now()));
        w
    };
    let (mut sweep, mut degenerate) = (world(), world());
    let (mut rrdp_s, mut rrdp_d) = (RrdpClientState::new(), RrdpClientState::new());
    let (mut memo_s, mut memo_d) = (ValidationState::probe(), ValidationState::probe());
    let mut sched = SchedulerState::new();
    for round in 0..3 {
        let t = sweep.net.now() + 150_000;
        for w in [&mut sweep, &mut degenerate] {
            w.net.advance_to(t);
            w.churn(10, Moment(w.net.now()));
        }
        let a = sweep.validate_with(
            ValidationOptions::at(Moment(sweep.net.now()))
                .fetch(Fetch::Rrdp(&mut rrdp_s, RrdpMode::Trusting))
                .incremental(&mut memo_s),
        );
        let b = degenerate.validate_with(
            ValidationOptions::at(Moment(degenerate.net.now()))
                .fetch(Fetch::Rrdp(&mut rrdp_d, RrdpMode::Trusting))
                .incremental(&mut memo_d)
                .scheduled(SchedulePlan::degenerate(), &mut sched),
        );
        assert_eq!(a, b, "round {round}: output diverged from the sweep");
        assert_eq!(
            sweep.net.stats().sent,
            degenerate.net.stats().sent,
            "round {round}: wire traffic diverged from the sweep"
        );
    }
}
