//! Incremental-validation equivalence under random mutation sequences.
//!
//! The memo cache's whole contract is: whatever the world did between
//! two runs, `run_incremental` produces byte-identical output to a
//! cold walk of the same world. These properties drive random seeded
//! sequences of authority-side mutations — ROA renewals, issuance,
//! withdrawal, child-certificate revocation, at-rest takedowns and
//! corruption — and after every step compare a persistent Full-mode
//! state, a persistent Probe-mode state, and a cold walk. The RTR test
//! closes the delta pipeline: each run's [`VrpDelta`] applied to the
//! previous serial's data set must reconstruct the next one exactly.

mod common;

use std::collections::BTreeSet;

use common::{apply, Op};
use proptest::prelude::*;
use rpki_objects::Moment;
use rpki_risk::{SyntheticRpki, ValidationOptions};
use rpki_rp::{RtrServer, ValidationState, Vrp, VrpDelta, VrpUpdate};

fn arb_op(cas: usize) -> impl Strategy<Value = Op> {
    (0u8..6, 0usize..cas, 0u8..8).prop_map(|(kind, ca, slot)| match kind {
        0 => Op::Renew(ca),
        1 => Op::Add(ca, slot),
        2 => Op::Withdraw(ca),
        3 => Op::Revoke(ca),
        4 => Op::Takedown(ca),
        _ => Op::Corrupt(ca),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// After every mutation, both incremental modes reproduce the cold
    /// walk byte for byte — VRPs, diagnostics, freshness, CA list, the
    /// lot — while their memo caches persist across all steps.
    #[test]
    fn incremental_matches_cold_after_random_mutation_sequences(
        ops in proptest::collection::vec(arb_op(13), 1..10),
    ) {
        // depth 2 / branching 3: 13 publication points, 3 ROAs each.
        let mut w = SyntheticRpki::build_seeded(5, 2, 3, 3);
        let mut full = ValidationState::full();
        let mut probe = ValidationState::probe();
        w.validate_with(ValidationOptions::at(Moment(2)).incremental(&mut full));
        w.validate_with(ValidationOptions::at(Moment(3)).incremental(&mut probe));

        let mut t = 60u64;
        for op in ops {
            apply(&mut w, op, Moment(t));
            let at = Moment(t + 30);
            let cold = w.validate_with(ValidationOptions::at(at));
            let warm_full = w.validate_with(ValidationOptions::at(at).incremental(&mut full));
            prop_assert_eq!(
                &warm_full, &cold,
                "Full-mode incremental diverged from the cold walk after {:?}", op
            );
            let warm_probe = w.validate_with(ValidationOptions::at(at).incremental(&mut probe));
            prop_assert_eq!(
                &warm_probe, &cold,
                "Probe-mode incremental diverged from the cold walk after {:?}", op
            );
            t += 60;
        }
    }
}

/// The delta feed end to end: every run's announce/withdraw set,
/// published via [`RtrServer::publish`], keeps the server's data set
/// equal to the run's VRPs, bumps the serial exactly when something
/// changed, and reconstructs serial N+1's set from serial N's.
#[test]
fn vrp_deltas_reconstruct_rtr_serials() {
    let mut w = SyntheticRpki::build_seeded(9, 2, 3, 3);
    let mut state = ValidationState::probe();
    let mut server = RtrServer::new(1, 8);

    let run0 = w.validate_with(ValidationOptions::at(Moment(2)).incremental(&mut state));
    assert!(!run0.vrps.is_empty());
    server.publish(VrpUpdate::Delta(state.last_delta()));
    assert_eq!(server.vrps(), run0.vrps, "first delta announces the whole set");

    let mut reconstructed: BTreeSet<Vrp> = run0.vrps.iter().copied().collect();
    let mut t = 60u64;
    for round in 0..6usize {
        let op = match round % 3 {
            0 => Op::Renew(round % 13),
            1 => Op::Add(round % 13, 1),
            _ => Op::Withdraw((round - 2) % 13),
        };
        apply(&mut w, op, Moment(t));
        let run = w.validate_with(ValidationOptions::at(Moment(t + 30)).incremental(&mut state));
        let delta: VrpDelta = state.last_delta().clone();

        let serial_before = server.serial();
        let pdu = server.publish(VrpUpdate::Delta(&delta));
        if delta.is_empty() {
            assert!(pdu.is_none(), "a no-op delta must not bump the serial ({op:?})");
            assert_eq!(server.serial(), serial_before);
        } else {
            assert!(pdu.is_some(), "a real delta must notify ({op:?})");
            assert_eq!(server.serial(), serial_before + 1);
        }
        assert_eq!(server.vrps(), run.vrps, "server data set out of step after {op:?}");

        delta.apply(&mut reconstructed);
        assert_eq!(
            reconstructed.iter().copied().collect::<Vec<_>>(),
            run.vrps,
            "delta application must reconstruct the next serial's set ({op:?})"
        );
        t += 60;
    }
}
