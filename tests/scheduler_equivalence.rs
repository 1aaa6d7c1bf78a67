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
//! mutations.
//!
//! The slow-serve soak over the schedule-gaming campaign lives in
//! `tests/resilience_campaign.rs`.

mod common;
mod harness;

use harness::{arb_steps, play, Chain, Transport, WORLD};
use proptest::prelude::*;
use rpki_rp::RevalidationMode;

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
