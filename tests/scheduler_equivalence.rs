//! Degenerate-schedule byte-identity and slow-serve soak.
//!
//! The fetch scheduler's correctness anchor is
//! [`SchedulePlan::degenerate`]: with zero cadence, unlimited budgets,
//! no jitter, and no backoff, the scheduled stack must be
//! byte-identical to the unscheduled walk — same [`ValidationRun`],
//! same JSONL trace, same VRP set, same wire traffic — whatever the
//! world did in between. Everything the real schedule saves must come
//! from policy, never from silently changing what a delegated fetch
//! returns. These properties drive the `tests/incremental.rs` mutation
//! vocabulary through the cold and incremental validation tiers.
//!
//! The ignored soak replays the schedule-gaming campaign — an
//! authority that answers everything, slowly, to burn the per-run time
//! budget — across 32 seeds, pinning its shape: starvation stays
//! inside the slow-serve window, costs freshness rather than
//! availability, and never trips a breaker.

mod common;

use std::collections::BTreeSet;

use common::{apply, Op};
use proptest::prelude::*;
use rpki_objects::Moment;
use rpki_obs::Recorder;
use rpki_risk::campaign::ROUND_SECS;
use rpki_risk::{
    gaming_schedule_plan, schedule_gaming_campaign, Campaign, SyntheticRpki, ValidationOptions,
};
use rpki_rp::{SchedulePlan, SchedulerState, ValidationRun, ValidationState, Vrp};

fn arb_op(cas: usize) -> impl Strategy<Value = Op> {
    (0u8..5, 0usize..cas, 0u8..8).prop_map(|(kind, ca, slot)| match kind {
        0 => Op::Renew(ca),
        1 => Op::Add(ca, slot),
        2 => Op::Withdraw(ca),
        3 => Op::Takedown(ca),
        _ => Op::Corrupt(ca),
    })
}

/// The run's canonical byte form: its JSONL trace emitted into a
/// fresh recorder at a fixed timestamp.
fn run_jsonl(run: &ValidationRun) -> String {
    let rec = Recorder::new();
    run.emit(&rec, 0);
    rec.trace_jsonl()
}

/// The two relying-party tiers the scheduler composes with.
#[derive(Debug, Clone, Copy)]
enum Tier {
    Cold,
    Incremental,
}

const TIERS: [Tier; 2] = [Tier::Cold, Tier::Incremental];

/// One walk over the network — incremental when the tier brings its
/// memo state — optionally under the degenerate schedule. Returns the
/// run and the wire frames it cost.
fn run_tier(
    w: &mut SyntheticRpki,
    at: Moment,
    inc: Option<&mut ValidationState>,
    sched: Option<&mut SchedulerState>,
) -> (ValidationRun, u64) {
    let sent = w.net.stats().sent;
    let mut opts = ValidationOptions::at(at);
    if let Some(state) = inc {
        opts = opts.incremental(state);
    }
    if let Some(state) = sched {
        opts = opts.scheduled(SchedulePlan::degenerate(), state);
    }
    let run = w.validate_with(opts);
    (run, w.net.stats().sent - sent)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// After every mutation, the degenerate schedule reproduces the
    /// unscheduled walk byte for byte on every tier: equal runs, equal
    /// JSONL traces, equal VRP sets, equal wire traffic.
    #[test]
    fn degenerate_schedule_is_byte_identical_on_every_tier(
        ops in proptest::collection::vec(arb_op(13), 1..8),
    ) {
        // depth 2 / branching 3: 13 publication points, 3 ROAs each.
        let mut w = SyntheticRpki::build_seeded(17, 2, 3, 3);
        // Persistent per-tier state: the schedule survives across runs
        // (so does the memo cache), which is exactly the situation the
        // identity must hold in.
        let mut sched: Vec<SchedulerState> =
            TIERS.iter().map(|_| SchedulerState::new()).collect();
        let mut inc_plain = ValidationState::probe();
        let mut inc_sched = ValidationState::probe();
        let mut t = 60u64;
        for op in ops {
            apply(&mut w, op, Moment(t));
            let at = Moment(t + 30);
            for (i, tier) in TIERS.iter().enumerate() {
                let (plain, plain_frames) = run_tier(
                    &mut w,
                    at,
                    Some(&mut inc_plain).filter(|_| matches!(tier, Tier::Incremental)),
                    None,
                );
                let (scheduled, sched_frames) = run_tier(
                    &mut w,
                    at,
                    Some(&mut inc_sched).filter(|_| matches!(tier, Tier::Incremental)),
                    Some(&mut sched[i]),
                );
                prop_assert_eq!(
                    &scheduled, &plain,
                    "{:?}: degenerate schedule diverged after {:?}", tier, op
                );
                prop_assert_eq!(
                    &run_jsonl(&scheduled), &run_jsonl(&plain),
                    "{:?}: JSONL trace not byte-identical after {:?}", tier, op
                );
                let a: BTreeSet<Vrp> = scheduled.vrps.iter().copied().collect();
                let b: BTreeSet<Vrp> = plain.vrps.iter().copied().collect();
                prop_assert_eq!(&a, &b);
                prop_assert_eq!(
                    sched_frames, plain_frames,
                    "{:?}: wire traffic diverged after {:?}", tier, op
                );
            }
            t += 60;
        }
    }
}

/// 32-seed soak of the schedule-gaming campaign: a slow-serving
/// authority must starve only inside its window, cost freshness rather
/// than availability, and never trip a breaker — on every seed.
#[test]
#[ignore = "32-seed soak; run explicitly with --ignored"]
fn slow_serve_starvation_soak_over_seeds() {
    let spec = schedule_gaming_campaign();
    let campaign = Campaign::Scheduled(gaming_schedule_plan());
    let window = &spec.windows[0];
    let window_len = window.to - window.from + 1;
    for seed in 0..32 {
        let out = campaign.run(&spec, seed, &Recorder::disabled());
        for r in &out.schedule {
            let in_window = window.from <= r.round && r.round <= window.to;
            assert!(
                in_window || r.deferred == 0,
                "seed {seed} round {}: deferral outside the slow-serve window ({r:?})",
                r.round
            );
        }
        let starved = out.schedule.iter().filter(|r| r.deferred > 0).count();
        assert!(
            starved >= window_len / 2,
            "seed {seed}: starved only {starved} of {window_len} window rounds: {out:?}"
        );
        assert!(
            out.schedule.iter().all(|r| r.vrps == 8),
            "seed {seed}: availability must hold ({out:?})"
        );
        assert!(
            out.schedule.iter().any(|r| r.max_served_age >= ROUND_SECS),
            "seed {seed}: victims must be served stale past a round ({out:?})"
        );
        let last = out.schedule.last().expect("campaign has rounds");
        assert_eq!(last.deferred, 0, "seed {seed}: recovery after the window ({last:?})");
        assert_eq!(last.backoff_skips, 0, "seed {seed}: slow is not down ({last:?})");
    }
}
