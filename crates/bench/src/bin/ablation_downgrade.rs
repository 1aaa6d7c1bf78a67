//! Ablation: the Stalloris RRDP downgrade, stance by stance.
//!
//! Runs the seeded Stalloris scenario — a stealthy covering-ROA
//! withdrawal executed behind a pinned RRDP feed — and reports, round
//! by round, what a trusting RRDP relying party believes versus what a
//! freshness-verifying one recovers versus the at-rest truth. The
//! headline numbers are the stale-round totals: the trusting stance is
//! captive for the whole pin window, the verified stance for none of
//! it, and the gap is exactly what the freshness cross-check buys.
//!
//! Also replays the `stalloris-downgrade` standard campaign so the
//! same attack is visible through the five-tier campaign harness
//! (the rrdp tier downgrades and stays whole; the rsync tiers never
//! see the feed at all).

use rpki_attacks::MisbehaviorReport;
use rpki_risk::{stalloris_campaign, standard_campaigns, Campaign, DowngradeRecord, RpTier, Walk};
use rpki_risk_bench::{
    emit_json, seed_arg, trace_recorder, write_trace, Recorder, Summary, SummaryTable,
};
use serde::Serialize;

/// The experiment's JSON export: the scenario, the merged
/// misbehaviour dossier, and the campaign view.
#[derive(Debug, Serialize)]
struct Export {
    scenario: DowngradeRecord,
    misbehavior: MisbehaviorReport,
    campaign_rrdp_downgrades: usize,
    campaign_rrdp_min_vrps: usize,
}

fn main() {
    let seed = seed_arg();
    let recorder = trace_recorder();
    let mut report = Summary::new(&format!("Stalloris downgrade ablation — seed {seed}"));

    // The scenario's rp-layer events feed the misbehaviour dossier, so
    // record them even when no --trace destination was given.
    let evidence = if recorder.is_enabled() { recorder.clone() } else { Recorder::new() };
    let scenario = Campaign::Stalloris
        .run(&stalloris_campaign(), seed, &evidence)
        .downgrade
        .expect("a Stalloris run records the scenario");
    let mut table = SummaryTable::new(&[
        "round",
        "truth",
        "trusting",
        "verified",
        "trusting stale",
        "downgrades",
        "pin detected",
    ]);
    for m in &scenario.rounds {
        table.row(&[
            m.round.to_string(),
            m.truth_vrps.to_string(),
            m.trusting_vrps.to_string(),
            m.verified_vrps.to_string(),
            if m.trusting_stale { "YES".into() } else { "-".to_string() },
            m.verified_downgrades.to_string(),
            m.pinned_detected.to_string(),
        ]);
    }
    let s = scenario.schedule;
    report.table(
        &format!(
            "scenario: pin @{}, whack @{}, restore @{} ({} rounds, host {})",
            s.pin_round, s.whack_round, s.restore_round, s.rounds, scenario.host
        ),
        table,
    );
    report.key_vals(
        "stale rounds (VRP set differs from at-rest truth)",
        &[
            ("trusting RRDP".to_string(), scenario.trusting_stale_rounds.to_string()),
            ("verified RRDP".to_string(), scenario.verified_stale_rounds.to_string()),
        ],
    );

    // The separations the scenario exists to show.
    assert_eq!(
        scenario.trusting_stale_rounds,
        s.restore_round - s.whack_round,
        "the trusting stance must be captive for the whole pin window"
    );
    assert_eq!(scenario.verified_stale_rounds, 0, "the verified stance must track truth");
    assert!(
        scenario.rounds.iter().any(|m| m.pinned_detected > 0),
        "the verified stance must detect the pin"
    );

    // The misbehaviour dossier: one artifact naming the host, with the
    // at-rest monitor verdicts and the transport detections side by
    // side.
    let misbehavior = MisbehaviorReport::build(&scenario.monitor_events, &evidence.events());
    let mut table = SummaryTable::new(&["host", "object alarms", "pinned", "downgrades"]);
    for h in &misbehavior.hosts {
        table.row(&[
            h.host.clone(),
            h.object_alarms.len().to_string(),
            h.pinned_detections.to_string(),
            h.downgrades.to_string(),
        ]);
    }
    report.table("misbehaviour dossier (object + transport evidence)", table);
    let accused = misbehavior.host(&scenario.host).expect("the dossier names the target host");
    assert!(accused.pinned_detections > 0, "the dossier must carry the pin detections");
    assert!(!accused.object_alarms.is_empty(), "the dossier must carry the stealthy withdrawal");

    // The same attack through the campaign harness: the rrdp tier
    // downgrades through the pin and loses no availability beyond the
    // whack itself.
    let spec = standard_campaigns()
        .into_iter()
        .find(|s| s.name == "stalloris-downgrade")
        .expect("standard campaign exists");
    let campaign = Campaign::Private(Walk::Incremental).run(&spec, seed, &recorder);
    let mut table = SummaryTable::new(&["tier", "VRP-rounds", "min VRPs", "rrdp downgrades"]);
    for t in &campaign.tiers {
        table.row(&[
            t.tier.label().to_owned(),
            t.totals.vrp_round_sum.to_string(),
            t.totals.min_vrps.to_string(),
            t.totals.rrdp_downgrades.to_string(),
        ]);
    }
    report.table(&format!("campaign: {} ({} rounds)", campaign.name, campaign.rounds), table);
    let rrdp = campaign.tier(RpTier::Rrdp);
    assert!(rrdp.totals.rrdp_downgrades > 0, "the rrdp tier must downgrade through the pin");

    report.note(
        "OK: trusting RRDP stays pinned on the pre-whack world for the whole\n\
         window; the freshness cross-check detects the pin, downgrades to\n\
         rsync, and tracks the at-rest truth every round.",
    );
    if recorder.is_enabled() {
        report.metrics(&recorder.metrics());
    }
    report.print();
    if let Some(path) = write_trace(&recorder) {
        println!("\nwrote {} trace events to {path}", recorder.event_count());
    }

    emit_json(
        "ablation_downgrade",
        &Export {
            scenario,
            misbehavior,
            campaign_rrdp_downgrades: rrdp.totals.rrdp_downgrades,
            campaign_rrdp_min_vrps: rrdp.totals.min_vrps,
        },
    );
}
