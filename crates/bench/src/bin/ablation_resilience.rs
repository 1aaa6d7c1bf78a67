//! Ablation: what each layer of relying-party resilience buys.
//!
//! Replays the standard seeded fault campaigns (corruption bursts,
//! flapping partitions, takedowns, Stalloris slow serves, a stealthy
//! withdrawal) against four relying-party configurations — bare,
//! retrying, retrying + stale cache, and the full stack with the
//! Suspenders hold-down — and reports VRP availability and
//! valid→invalid/unknown flips per tier.
//!
//! The paper's Section 6 message is that the RPKI's failure modes
//! punish a naive fetch pipeline; this experiment quantifies how much
//! of that punishment each standard defense absorbs, and which faults
//! each one *cannot* absorb (timeouts lose slow-served rounds the bare
//! RP eventually gets; the stale cache refuses to bridge authority-side
//! withdrawals — that separation is Suspenders' niche).

use rpki_risk::{standard_campaigns, Campaign, CampaignOutcome, RpTier, Walk};
use rpki_risk_bench::{emit_json, seed_arg, trace_recorder, write_trace, Summary, SummaryTable};

fn main() {
    let seed = seed_arg();
    let recorder = trace_recorder();
    let mut report =
        Summary::new(&format!("Resilience ablation — seeded fault campaigns, seed {seed}"));

    let mut outcomes: Vec<CampaignOutcome> = Vec::new();
    for spec in standard_campaigns() {
        let out = Campaign::Private(Walk::Incremental).run(&spec, seed, &recorder);
        let mut table = SummaryTable::new(&[
            "tier",
            "VRP-rounds",
            "min VRPs",
            "valid-rounds",
            "flips->invalid",
            "flips->unknown",
            "stale dir-rounds",
        ]);
        for t in &out.tiers {
            table.row(&[
                t.tier.label().to_owned(),
                t.totals.vrp_round_sum.to_string(),
                t.totals.min_vrps.to_string(),
                t.totals.valid_round_sum.to_string(),
                t.totals.invalid_flips.to_string(),
                t.totals.unknown_flips.to_string(),
                t.totals.stale_dir_rounds.to_string(),
            ]);
        }
        report.table(&format!("campaign: {} ({} rounds)", out.name, out.rounds), table);
        outcomes.push(out);
    }

    // The headline separations the campaigns exist to show.
    let avail = |o: &CampaignOutcome, t: RpTier| o.tier(t).totals.vrp_round_sum;
    let by_name = |n: &str| outcomes.iter().find(|o| o.name == n).expect("standard campaign");

    let burst = by_name("corruption-burst");
    assert!(
        avail(burst, RpTier::Bare) < avail(burst, RpTier::Retrying)
            && avail(burst, RpTier::Retrying) < avail(burst, RpTier::RetryingStale),
        "corruption burst must separate bare < retrying < retrying+stale"
    );
    let takedown = by_name("takedown");
    assert!(
        avail(takedown, RpTier::Retrying) < avail(takedown, RpTier::RetryingStale),
        "a hard outage defeats retries; only the stale cache bridges it"
    );
    let mixed = by_name("mixed");
    assert!(
        avail(mixed, RpTier::RetryingStale) < avail(mixed, RpTier::Suspenders),
        "the withdrawal window separates Suspenders from the stale cache"
    );

    report.note(
        "OK: bare < retrying < retrying+stale under corruption; stale cache\n\
         bridges the takedown; only Suspenders bridges the withdrawal.",
    );
    if recorder.is_enabled() {
        report.metrics(&recorder.metrics());
    }
    report.print();
    if let Some(path) = write_trace(&recorder) {
        println!("\nwrote {} trace events to {path}", recorder.event_count());
    }

    emit_json("ablation_resilience", &outcomes);
}
