//! The relying party's contract ([`harness`]) over random cases: one
//! to four parties on random option chains, one to ten steps of every
//! kind — mutations, churn, corpus poison, fault windows, RRDP session
//! resets, publication-server policies, clock jumps, restarts, router
//! cut-offs. A failing case shrinks — the step list halved, then every
//! integer lowered — and prints the minimal case with the test's seed.
//! The `--ignored` soak plays 256 more cases.

mod common;
mod harness;

use harness::{arb_chain, arb_steps, play, EVERY_STEP};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The contract, over random parties and steps.
    #[test]
    fn every_chain_meets_the_contract(
        seed in 0u64..1_000,
        chains in proptest::collection::vec(arb_chain(), 1..=4),
        steps in arb_steps(EVERY_STEP, 1..11),
    ) {
        play(seed, &chains, &steps)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The contract over 256 more cases.
    #[test]
    #[ignore = "differential soak, 256 cases; run with --ignored"]
    fn differential_soak(
        seed in 0u64..1_000,
        chains in proptest::collection::vec(arb_chain(), 1..=4),
        steps in arb_steps(EVERY_STEP, 1..11),
    ) {
        play(seed, &chains, &steps)?;
    }
}
