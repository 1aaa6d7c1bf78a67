//! Incremental-validation equivalence, played through the differential
//! harness ([`harness`]).
//!
//! The memo cache's whole contract is: whatever the world did between
//! two runs, `run_incremental` produces byte-identical output to a
//! cold walk of the same world. A Full-mode and a Probe-mode party keep
//! their memos across random authority-side mutations — ROA renewals,
//! issuance, withdrawal, child-certificate revocation, at-rest
//! takedowns and corruption — and the harness compares both with the
//! cold walk after every step. The RTR test closes the delta pipeline:
//! each run's [`VrpDelta`](rpki_rp::VrpDelta), published to an RTR
//! server, bumps its serial exactly when it is not empty and brings a
//! syncing router to the next run's set.

mod common;
mod harness;

use common::{apply, Op};
use harness::{arb_steps, must_play, play, Chain, Step, Transport, RTR_START_SERIAL, WORLD};
use proptest::prelude::*;
use rpki_objects::Moment;
use rpki_risk::World;
use rpki_rp::RevalidationMode;

fn memo(mode: RevalidationMode) -> Chain {
    Chain { memo: Some(mode), ..Chain::bare(Transport::Once) }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// After every mutation, both incremental modes reproduce the cold
    /// walk byte for byte — VRPs, diagnostics, freshness, CA list, the
    /// lot — while their memo caches persist across all steps.
    #[test]
    fn incremental_matches_cold_after_random_mutation_sequences(
        steps in arb_steps(WORLD, 1..10),
    ) {
        play(5, &[memo(RevalidationMode::Full), memo(RevalidationMode::Probe)], &steps)?;
    }
}

/// The delta feed end to end: four of the six mutations change the
/// VRP set, and each of those moves the serial by exactly one (across
/// the wrap: the harness starts every server three bumps short of it).
#[test]
fn vrp_deltas_reconstruct_rtr_serials() {
    let ops = [
        Op::Renew(0),
        Op::Add(1, 1),
        Op::Withdraw(1),
        Op::Renew(3),
        Op::Add(4, 1),
        Op::Withdraw(4),
    ];
    let rps = must_play(9, &[memo(RevalidationMode::Probe)], &ops.map(Step::World));
    assert_eq!(
        rps[0].server.serial(),
        RTR_START_SERIAL.wrapping_add(1 + 4),
        "the warm-up's snapshot, then four deltas"
    );
}

/// A world's ROA count is derived, not kept: after every mutation that
/// changes the ROA population (and one that does not), it equals the
/// VRP count of a cold walk.
#[test]
fn roa_count_follows_every_mutation() {
    let mut w = World::tree(3, 2, 3, 2);
    for (t, op) in
        [Op::Add(4, 1), Op::Add(7, 2), Op::Withdraw(4), Op::Renew(7)].into_iter().enumerate()
    {
        let now = Moment(60 * (1 + t as u64));
        apply(&mut w, op, now);
        assert_eq!(w.roa_count(), w.validate_direct(now).vrps.len(), "after {op:?}");
    }
}
