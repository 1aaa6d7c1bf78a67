//! Shard-count invariance of the sharded validation walk.
//!
//! The scheduler's whole contract is: for any [`ShardPlan`], the
//! sharded walk's output is byte-identical to the sequential walk of
//! the same world — same `ValidationRun`, same JSONL trace, same VRP
//! set — and the plan changes only how the CPU work was distributed.
//! These properties drive random seeded mutation sequences (the same
//! op vocabulary as `tests/incremental.rs`) and compare 1, 2, 4, and
//! 8 shards against the sequential walk after every step. The sharded
//! walk is cold only: the memo cache belongs to the sequential walk
//! (`tests/incremental.rs`).

use std::collections::BTreeSet;

use ipres::Asn;
use proptest::prelude::*;
use rpki_objects::{Moment, RoaPrefix};
use rpki_obs::Recorder;
use rpki_risk::SyntheticRpki;
use rpki_rp::{ShardPlan, ValidationRun, Vrp};

const HOST: &str = "rpki.bench.example";
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// One authority- or repository-side mutation against the synthetic
/// world (the `tests/incremental.rs` vocabulary).
#[derive(Debug, Clone, Copy)]
enum Op {
    /// Renew the CA's first ROA (churn without semantic change).
    Renew(usize),
    /// Issue a new ROA in the CA's own /24 (a real announce).
    Add(usize, u8),
    /// Withdraw the CA's most recently issued extra ROA, if any.
    Withdraw(usize),
    /// Delete one file at rest without republishing (a whack).
    Takedown(usize),
    /// Flip a byte of one stored file at rest (filesystem rot).
    Corrupt(usize),
}

fn arb_op(cas: usize) -> impl Strategy<Value = Op> {
    (0u8..5, 0usize..cas, 0u8..8).prop_map(|(kind, ca, slot)| match kind {
        0 => Op::Renew(ca),
        1 => Op::Add(ca, slot),
        2 => Op::Withdraw(ca),
        3 => Op::Takedown(ca),
        _ => Op::Corrupt(ca),
    })
}

/// Republishes CA `idx`'s complete snapshot (fresh manifest and CRL).
fn republish(w: &mut SyntheticRpki, idx: usize, now: Moment) {
    let sia = w.cas[idx].sia().clone();
    let snap = w.cas[idx].publication_snapshot(now);
    w.repos.by_host_mut(HOST).expect("exists").publish_snapshot(&sia, &snap);
}

fn apply(w: &mut SyntheticRpki, op: Op, now: Moment) {
    match op {
        Op::Renew(ca) => {
            let file =
                w.cas[ca].issued_roas().next().expect("every CA keeps its first ROA").file_name();
            w.cas[ca].renew_roa(&file, now).expect("renewable");
            republish(w, ca, now);
        }
        Op::Add(ca, slot) => {
            let prefix = format!("10.0.{ca}.{}/32", 100 + usize::from(slot));
            w.cas[ca]
                .issue_roa(
                    Asn(64_000 + ca as u32),
                    vec![RoaPrefix::exact(prefix.parse().expect("literal"))],
                    now,
                )
                .expect("inside the CA's own /24");
            republish(w, ca, now);
        }
        Op::Withdraw(ca) => {
            // Keep the first ROA so Renew always has a target.
            let extra: Option<String> =
                w.cas[ca].issued_roas().skip(1).last().map(|r| r.file_name());
            if let Some(file) = extra {
                w.cas[ca].withdraw(&file).expect("present");
                republish(w, ca, now);
            }
        }
        Op::Takedown(ca) => {
            let dir = w.cas[ca].sia().clone();
            let repo = w.repos.by_host_mut(HOST).expect("exists");
            if let Some((name, _)) = repo.list(&dir).first().cloned() {
                repo.delete(&dir, &name);
            }
        }
        Op::Corrupt(ca) => {
            let dir = w.cas[ca].sia().clone();
            let repo = w.repos.by_host_mut(HOST).expect("exists");
            if let Some((name, _)) = repo.list(&dir).last().cloned() {
                repo.corrupt_at_rest(&dir, &name);
            }
        }
    }
}

/// The run's canonical byte form: its JSONL trace emitted into a
/// fresh recorder at a fixed timestamp.
fn run_jsonl(run: &ValidationRun) -> String {
    let rec = Recorder::new();
    run.emit(&rec, 0);
    rec.trace_jsonl()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// After every mutation, every shard count reproduces the
    /// sequential cold walk byte for byte: equal runs, equal JSONL
    /// traces, equal VRP sets, and a plan-determined item count.
    #[test]
    fn cold_sharded_walk_is_shard_count_invariant(
        ops in proptest::collection::vec(arb_op(13), 1..8),
    ) {
        // depth 2 / branching 3: 13 publication points, 3 ROAs each.
        let mut w = SyntheticRpki::build_seeded(11, 2, 3, 3);
        let mut t = 60u64;
        for op in ops {
            apply(&mut w, op, Moment(t));
            let at = Moment(t + 30);
            let seq = w.validate_cold(at);
            let seq_trace = run_jsonl(&seq);
            let seq_vrps: BTreeSet<Vrp> = seq.vrps.iter().copied().collect();
            for shards in SHARD_COUNTS {
                let (run, stats) = w.validate_cold_sharded(at, ShardPlan::new(shards));
                prop_assert_eq!(
                    &run, &seq,
                    "{} shards diverged from the sequential walk after {:?}", shards, op
                );
                prop_assert_eq!(
                    &run_jsonl(&run), &seq_trace,
                    "{} shards: JSONL trace not byte-identical after {:?}", shards, op
                );
                let vrps: BTreeSet<Vrp> = run.vrps.iter().copied().collect();
                prop_assert_eq!(&vrps, &seq_vrps);
                prop_assert_eq!(stats.shards, shards.max(1));
                prop_assert_eq!(stats.items, stats.assigned.iter().sum::<u64>());
            }
            t += 60;
        }
    }
}

/// A degenerate zero-shard plan clamps to one shard, whether it came
/// through the constructor or as a literal, and walks like any other.
#[test]
fn degenerate_plans_do_not_change_output() {
    let mut w = SyntheticRpki::build_seeded(3, 2, 4, 2);
    let seq = w.validate_cold(Moment(5));
    for plan in [ShardPlan::new(0), ShardPlan { shards: 0 }] {
        let (run, stats) = w.validate_cold_sharded(Moment(5), plan);
        assert_eq!(run, seq, "{plan:?}");
        assert_eq!(run_jsonl(&run), run_jsonl(&seq), "{plan:?}");
        assert_eq!(stats.shards, 1, "{plan:?}");
    }
}
