//! The Stalloris scenario: an RRDP downgrade hiding a whack.
//!
//! [`campaign`](crate::campaign) measures relying-party tiers under
//! *random* transport faults. This module runs the *deliberate* one:
//! the paper's stealthy withdrawal (Side Effect 2) executed behind a
//! Stalloris-style RRDP pin, so the publication point keeps replaying
//! its pre-whack feed while the at-rest truth has moved on.
//!
//! The scenario is a campaign: two private-world campaign engines, one
//! per transported stance, stepped in lock-step through one fault
//! schedule — an [`RrdpPin`](FaultKind::RrdpPin) window with a
//! [`Withdraw`](FaultKind::Withdraw) window opening behind it. What
//! this module adds is the comparison: the at-rest truth read, the
//! at-rest [`Monitor`], and the per-round row that sets the stances
//! side by side.
//!
//! Three relying-party stances watch the same worlds in lock-step:
//!
//! - **truth** — direct at-rest validation, no transport: what a
//!   relying party *should* see each round;
//! - **trusting** — prefers RRDP and believes it
//!   ([`ValidationOptions::rrdp_trusting`](crate::ValidationOptions::rrdp_trusting)):
//!   the stance Stalloris exploits;
//! - **verified** — prefers RRDP but cross-checks freshness against an
//!   rsync digest probe and downgrades on disagreement
//!   ([`ValidationOptions::rrdp`](crate::ValidationOptions::rrdp)): the
//!   hardening this repo argues for.
//!
//! The outcome quantifies the attack as *stale rounds*: rounds where a
//! stance's VRP set differs from truth. The Stalloris effect is the
//! gap — the trusting stance stays stale for the whole pin window, the
//! verified stance for none of it. Every count is an integer and the
//! schedule is fixed, so a seed replays byte-identically; the
//! `ablation_downgrade` binary serialises [`DowngradeOutcome`] as the
//! experiment artifact.

use rpki_attacks::{Monitor, MonitorEvent, MonitorSnapshot};
use rpki_objects::Moment;
use rpki_obs::Recorder;
use serde::Serialize;

use crate::campaign::{CampaignSpec, Engine, FaultKind, FaultWindow, Stack, Walk};

/// The misbehaving publication point (it hosts the whacked ROA).
const TARGET_HOST: &str = "rpki.continental.example";

/// The fixed schedule: what happens at which round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DowngradeSchedule {
    /// Total rounds.
    pub rounds: usize,
    /// Round at which the feed is pinned.
    pub pin_round: usize,
    /// Round at which the covering ROA is stealthily withdrawn.
    pub whack_round: usize,
    /// Round at which the host restores itself (lifts the pin).
    pub restore_round: usize,
}

impl Default for DowngradeSchedule {
    fn default() -> Self {
        DowngradeSchedule { rounds: 12, pin_round: 3, whack_round: 4, restore_round: 9 }
    }
}

/// One round of the scenario, all three stances side by side.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct DowngradeRound {
    /// Round number (1-based).
    pub round: usize,
    /// VRPs under direct at-rest validation (ground truth).
    pub truth_vrps: usize,
    /// VRPs the trusting RRDP stance holds.
    pub trusting_vrps: usize,
    /// VRPs the verified RRDP stance holds.
    pub verified_vrps: usize,
    /// Did the trusting stance diverge from truth this round?
    pub trusting_stale: bool,
    /// Did the verified stance diverge from truth this round?
    pub verified_stale: bool,
    /// Rsync downgrades the verified stance performed this round.
    pub verified_downgrades: usize,
    /// Pinned-feed detections the verified stance raised this round.
    pub pinned_detected: usize,
}

/// The full scenario record: schedule, per-round data, and the stale
/// totals the Stalloris claim rests on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DowngradeOutcome {
    /// Network seed the scenario ran under.
    pub seed: u64,
    /// The attacked host.
    pub host: String,
    /// The applied schedule.
    pub schedule: DowngradeSchedule,
    /// Per-round measurements.
    pub rounds: Vec<DowngradeRound>,
    /// Rounds the trusting stance spent diverged from truth.
    pub trusting_stale_rounds: usize,
    /// Rounds the verified stance spent diverged from truth.
    pub verified_stale_rounds: usize,
    /// The at-rest monitor's classified diff, round by round: the
    /// object-layer half of the evidence (the stealthy withdrawal
    /// shows up here even while the pinned feed hides it).
    pub monitor_events: Vec<MonitorEvent>,
}

/// Runs the Stalloris scenario at `seed` with `recorder` installed on
/// the verified world, so the relying party's `rrdp_pinned` and
/// `rrdp_downgrade` events land in the trace — the transport half of
/// the evidence a [`rpki_attacks::MisbehaviorReport`] merges with the
/// outcome's `monitor_events` (pass [`Recorder::disabled`] for the
/// outcome alone).
///
/// Two engines are built from the same seed — one per transported
/// stance — and run the same spec, so their worlds are mutated
/// identically: the pin holds over `pin_round..restore_round` and the
/// whack lands inside it at `whack_round`, invisible to anyone still
/// watching the pinned feed, and is never reissued. Truth is read at
/// rest, so a third world is unnecessary. An at-rest [`Monitor`]
/// snapshots the verified world every round; its classified diff rides
/// along in the outcome.
pub fn run_downgrade_traced(seed: u64, recorder: &Recorder) -> DowngradeOutcome {
    let schedule = DowngradeSchedule::default();
    let window = |kind, from, to| FaultWindow::new(TARGET_HOST, kind, from, to);
    let windows = vec![
        window(FaultKind::RrdpPin, schedule.pin_round, schedule.restore_round - 1),
        window(FaultKind::Withdraw, schedule.whack_round, schedule.rounds),
    ];
    let spec = CampaignSpec::new("stalloris", schedule.rounds, windows);
    let stance = |verify, recorder: &Recorder| {
        Engine::private(&spec, seed, recorder, Stack::Rrdp { verify }, Walk::Cold)
    };
    let mut trusting = stance(false, &Recorder::disabled());
    let mut verified = stance(true, recorder);
    let mut monitor = Monitor::new();
    let mut monitor_events: Vec<MonitorEvent> = Vec::new();
    monitor.observe(MonitorSnapshot::capture(&verified.w.repos, Moment(verified.w.net.now())));

    // Warm-up: both stances converge on the healthy world.
    trusting.warm_up();
    verified.warm_up();
    let mut before = verified.rps[0].rrdp.stats();

    let mut rounds = Vec::with_capacity(schedule.rounds);
    for round in 1..=schedule.rounds {
        trusting.begin_round(round);
        verified.begin_round(round);
        let moment = Moment(trusting.w.net.now());

        // The at-rest monitor diffs the verified world's repositories:
        // the pin is transport-only, so the whack is in plain sight
        // here even while the feed replays the pre-whack view.
        monitor_events.extend(monitor.observe(MonitorSnapshot::capture(&verified.w.repos, moment)));

        // Truth reads either world at rest: the pin is transport-only,
        // so the trusting world's files are already the real state.
        let truth = trusting.w.validate_direct(moment);
        let t = trusting.validate_round(round).pop().expect("one relying party");
        let v = verified.validate_round(round).pop().expect("one relying party");

        let stats = verified.rps[0].rrdp.stats();
        let m = DowngradeRound {
            round,
            truth_vrps: truth.vrps.len(),
            trusting_vrps: t.vrps.len(),
            verified_vrps: v.vrps.len(),
            trusting_stale: t.vrps != truth.vrps,
            verified_stale: v.vrps != truth.vrps,
            verified_downgrades: (stats.downgrades - before.downgrades) as usize,
            pinned_detected: (stats.pinned_detected - before.pinned_detected) as usize,
        };
        before = stats;
        recorder.count("downgrade.rounds", 1);
        recorder.count("downgrade.trusting_stale_rounds", m.trusting_stale as u64);
        recorder.count("downgrade.verified_stale_rounds", m.verified_stale as u64);
        recorder
            .event(moment.0, "downgrade", "round")
            .u64("round", round as u64)
            .u64("truth_vrps", m.truth_vrps as u64)
            .u64("trusting_vrps", m.trusting_vrps as u64)
            .u64("verified_vrps", m.verified_vrps as u64)
            .bool("trusting_stale", m.trusting_stale)
            .bool("verified_stale", m.verified_stale)
            .u64("verified_downgrades", m.verified_downgrades as u64)
            .u64("pinned_detected", m.pinned_detected as u64)
            .emit();
        rounds.push(m);
    }

    let outcome = DowngradeOutcome {
        seed,
        host: TARGET_HOST.to_owned(),
        schedule,
        trusting_stale_rounds: rounds.iter().filter(|m| m.trusting_stale).count(),
        verified_stale_rounds: rounds.iter().filter(|m| m.verified_stale).count(),
        rounds,
        monitor_events,
    };
    recorder
        .event(verified.w.net.now(), "downgrade", "outcome")
        .str("host", &outcome.host)
        .u64("trusting_stale_rounds", outcome.trusting_stale_rounds as u64)
        .u64("verified_stale_rounds", outcome.verified_stale_rounds as u64)
        .emit();
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stalloris_effect_holds_under_default_schedule() {
        let out = run_downgrade_traced(41, &Recorder::disabled());
        let s = out.schedule;
        for m in &out.rounds {
            // Healthy world is 8 VRPs; the whack takes truth to 7.
            let expected_truth = if m.round >= s.whack_round { 7 } else { 8 };
            assert_eq!(m.truth_vrps, expected_truth, "round {}", m.round);
            // The verified stance tracks truth every single round.
            assert!(!m.verified_stale, "verified diverged at round {}", m.round);
            assert_eq!(m.verified_vrps, expected_truth, "round {}", m.round);
            // The trusting stance is captive exactly while pinned over
            // a whacked world, and recovers once the host restores.
            let captive = (s.whack_round..s.restore_round).contains(&m.round);
            assert_eq!(m.trusting_stale, captive, "round {}", m.round);
            if captive {
                assert_eq!(m.trusting_vrps, 8, "the pin replays the pre-whack world");
            }
        }
        assert_eq!(out.trusting_stale_rounds, s.restore_round - s.whack_round);
        assert_eq!(out.verified_stale_rounds, 0);
        // The verified stance noticed: it flagged the pin and
        // downgraded to rsync while the feed was lying.
        let detections: usize = out.rounds.iter().map(|m| m.pinned_detected).sum();
        assert!(detections > 0, "the verified stance must detect the pin");
        let tail = out.rounds.last().unwrap();
        assert_eq!(tail.verified_downgrades, 0, "after restore, RRDP serves again");
    }

    #[test]
    fn scenario_replays_byte_identically() {
        let a = run_downgrade_traced(17, &Recorder::disabled());
        let b = run_downgrade_traced(17, &Recorder::disabled());
        assert_eq!(a, b);
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }

    #[test]
    fn traced_run_yields_a_misbehavior_report_naming_the_host() {
        use rpki_attacks::{Classification, MisbehaviorReport};

        let rec = Recorder::new();
        let out = run_downgrade_traced(23, &rec);
        // Object layer: the covering-ROA withdrawal is a stealthy
        // removal in the host's own directory.
        assert!(out
            .monitor_events
            .iter()
            .any(|e| e.classification == Classification::StealthyRemoval
                && e.dir.contains(&out.host)));
        // Transport layer: the verified stance flagged the pin.
        let report = MisbehaviorReport::build(&out.monitor_events, &rec.events());
        let accused = report.host(&out.host).expect("the target host is accused");
        assert!(accused.pinned_detections > 0, "{accused:?}");
        assert!(accused.downgrades > 0, "{accused:?}");
        assert!(!accused.object_alarms.is_empty(), "{accused:?}");
        assert!(accused.transport.iter().any(|t| t.reason.as_deref() == Some("pinned")));
    }

    #[test]
    fn session_reset_rounds_register_as_session_reset_fallbacks() {
        use crate::fixtures::ModelRpki;
        use crate::validate::ValidationOptions;
        use rpki_repo::{RrdpClientState, SyncPolicy};

        let mut w = ModelRpki::build_seeded(41);
        let mut client = RrdpClientState::new();
        let policy = SyncPolicy::default();
        w.validate_with(ValidationOptions::at(Moment(2)).retry(policy).rrdp(&mut client));
        // Cold syncs are initial-cause snapshot fetches, nothing else.
        let stats = client.stats();
        assert_eq!(stats.fallback_initial, stats.snapshot_syncs, "{stats:?}");
        assert_eq!(stats.fallback_session_reset, 0);

        // The session-reset misbehaviour: fresh session ids, history
        // gone — every Continental directory forces a re-snapshot, and
        // the cause ledger must say *why*.
        w.repos.by_host_mut(TARGET_HOST).expect("model host").rrdp_reset_sessions();
        w.validate_with(ValidationOptions::at(Moment(3)).retry(policy).rrdp(&mut client));
        let stats = client.stats();
        assert!(stats.fallback_session_reset > 0, "{stats:?}");
        assert_eq!(stats.fallback_evicted, 0, "no history was outrun: {stats:?}");
        assert_eq!(
            stats.fallback_initial
                + stats.fallback_evicted
                + stats.fallback_session_reset
                + stats.fallback_chain_gap,
            stats.snapshot_syncs,
            "fallback causes must partition the snapshot syncs: {stats:?}"
        );
    }
}
