//! Ablation: the unsafe-VRP policy, stance by stance.
//!
//! An *unsafe VRP* (the term borrowed from routinator's
//! `--unsafe-vrps` option) is a validated payload whose prefix
//! overlaps the resources of a CA the walk rejected. The danger runs
//! both ways: under `accept` a manipulator who gets a victim's CA
//! rejected leaves covering ROAs free to invalidate the victim's
//! announcements, while under `reject` the same manipulator can
//! *suppress* legitimate surviving VRPs just by publishing a rejected
//! over-claimer that overlaps them.
//!
//! The experiment runs the `adversarial-overclaim` campaign — the
//! authority publishes a self-signed child certificate claiming
//! `0.0.0.0/0`, which strict validation rejects — under all three
//! policies and all five relying-party tiers, then folds the final
//! round's rejection evidence into the per-host misbehaviour dossier.
//! Expected ordering, per tier: `accept` and `warn` keep identical VRP
//! availability (warn only annotates), `reject` can only lose VRPs —
//! and during the fault window it loses *everything* the over-claimer
//! overlaps, which for `0.0.0.0/0` is the whole validated set.

use rpki_attacks::{CorpusKind, MisbehaviorReport};
use rpki_objects::Moment;
use rpki_risk::{Campaign, CampaignSpec, FaultKind, FaultWindow, RpTier, Walk, World, MODEL_SEED};
use rpki_risk_bench::{export, seed_arg, Recorder, RunStamp, Summary, SummaryTable};
use rpki_rp::UnsafeVrpPolicy;
use serde::Serialize;

/// One (policy, tier) row of the export.
#[derive(Debug, Serialize)]
struct Record {
    policy: String,
    tier: String,
    vrp_round_sum: usize,
    min_vrps: usize,
    unsafe_vrp_rounds: usize,
    rejected_ca_rounds: usize,
    invalid_flips: usize,
    unknown_flips: usize,
}

fn policy_label(policy: UnsafeVrpPolicy) -> &'static str {
    match policy {
        UnsafeVrpPolicy::Accept => "accept",
        UnsafeVrpPolicy::Warn => "warn",
        UnsafeVrpPolicy::Reject => "reject",
    }
}

/// The campaign: Continental publishes a rejected over-claimer for
/// rounds 3..7, healing with an honest snapshot afterwards.
fn overclaim_campaign() -> CampaignSpec {
    CampaignSpec {
        name: "adversarial-overclaim".to_owned(),
        unsafe_vrps: UnsafeVrpPolicy::Accept,
        churn: None,
        rounds: 10,
        windows: vec![FaultWindow {
            host: "rpki.continental.example".to_owned(),
            kind: FaultKind::AdversarialPublish { kind: CorpusKind::ResourceOverclaim },
            from: 3,
            to: 7,
        }],
    }
}

fn main() {
    let seed = seed_arg();
    let stamp = RunStamp::capture();
    let mut report = Summary::new(&format!("Unsafe-VRP policy ablation — seed {seed}"));
    let policies = [UnsafeVrpPolicy::Accept, UnsafeVrpPolicy::Warn, UnsafeVrpPolicy::Reject];

    let mut records: Vec<Record> = Vec::new();
    let mut table = SummaryTable::new(&[
        "policy",
        "tier",
        "VRP-rounds",
        "min VRPs",
        "unsafe-VRP rounds",
        "rejected-CA rounds",
        "invalid flips",
        "unknown flips",
    ]);
    for policy in policies {
        let spec = overclaim_campaign().with_unsafe_policy(policy);
        let outcome = Campaign::Private(Walk::Incremental).run(&spec, seed, &Recorder::disabled());
        for t in &outcome.tiers {
            table.row(&[
                policy_label(policy).to_owned(),
                t.tier.label().to_owned(),
                t.totals.vrp_round_sum.to_string(),
                t.totals.min_vrps.to_string(),
                t.totals.unsafe_vrp_rounds.to_string(),
                t.totals.rejected_ca_rounds.to_string(),
                t.totals.invalid_flips.to_string(),
                t.totals.unknown_flips.to_string(),
            ]);
            records.push(Record {
                policy: policy_label(policy).to_owned(),
                tier: t.tier.label().to_owned(),
                vrp_round_sum: t.totals.vrp_round_sum,
                min_vrps: t.totals.min_vrps,
                unsafe_vrp_rounds: t.totals.unsafe_vrp_rounds,
                rejected_ca_rounds: t.totals.rejected_ca_rounds,
                invalid_flips: t.totals.invalid_flips,
                unknown_flips: t.totals.unknown_flips,
            });
        }
    }
    report.table("adversarial-overclaim campaign, policy x tier", table);

    // The separations the experiment exists to show, per tier.
    for tier in RpTier::ALL {
        let of = |policy: UnsafeVrpPolicy| {
            records
                .iter()
                .find(|r| r.policy == policy_label(policy) && r.tier == tier.label())
                .expect("record exists")
        };
        let (accept, warn, reject) =
            (of(UnsafeVrpPolicy::Accept), of(UnsafeVrpPolicy::Warn), of(UnsafeVrpPolicy::Reject));
        assert_eq!(
            accept.vrp_round_sum,
            warn.vrp_round_sum,
            "{}: warn only annotates, availability must match accept",
            tier.label()
        );
        assert!(
            reject.vrp_round_sum <= warn.vrp_round_sum,
            "{}: reject can only lose VRPs",
            tier.label()
        );
        assert_eq!(accept.unsafe_vrp_rounds, 0, "accept skips the analysis");
        assert!(warn.unsafe_vrp_rounds > 0, "{}: warn must flag the overlap", tier.label());
        assert!(warn.rejected_ca_rounds > 0, "{}: the over-claimer is rejected", tier.label());
    }
    // The suppression story needs at least one tier actually starved
    // under reject while warn kept everything.
    let starved = RpTier::ALL.iter().any(|tier| {
        let reject = records
            .iter()
            .find(|r| r.policy == "reject" && r.tier == tier.label())
            .expect("record exists");
        reject.min_vrps == 0
    });
    assert!(starved, "reject under a 0.0.0.0/0 over-claimer must empty some tier's round");

    // The per-host dossier: one direct poisoned run, rejection evidence
    // folded in next to the (empty) object/transport evidence.
    let mut world = World::model(MODEL_SEED);
    let now = Moment(world.net.now() + 1);
    world.poison_host("rpki.continental.example", CorpusKind::ResourceOverclaim, seed, now);
    let run = world
        .validate_with(rpki_risk::ValidationOptions::at(now).unsafe_vrps(UnsafeVrpPolicy::Warn));
    let mut dossier = MisbehaviorReport::build(&[], &[]);
    dossier.attach_validation(&run);
    let accused =
        dossier.host("rpki.continental.example").expect("the dossier names the poisoned host");
    assert!(!accused.rejected_cas.is_empty(), "the dossier carries the rejected over-claimer");
    assert!(!accused.unsafe_vrps.is_empty(), "the dossier lists the overlapped VRPs");
    let mut table = SummaryTable::new(&["host", "rejected CAs", "unsafe VRPs", "summary"]);
    for h in &dossier.hosts {
        table.row(&[
            h.host.clone(),
            h.rejected_cas.len().to_string(),
            h.unsafe_vrps.len().to_string(),
            h.summary_line(),
        ]);
    }
    report.table("misbehaviour dossier (validation evidence attached)", table);

    report.note(
        "OK: warn matches accept's availability while naming every overlapped\n\
         VRP; reject lets the rejected over-claimer suppress the entire\n\
         surviving set — the parent-driven suppression the policy ablation\n\
         exists to expose.",
    );
    report.print();

    export("unsafe_vrp", &stamp, &records, &Recorder::disabled());
}
