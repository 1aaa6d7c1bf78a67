//! The Stalloris scenario: an RRDP downgrade hiding a whack.
//!
//! [`campaign`](crate::campaign) measures relying-party tiers under
//! *random* transport faults. This module supplies the *deliberate*
//! one: the paper's stealthy withdrawal (Side Effect 2) executed behind
//! a Stalloris-style RRDP pin, so the publication point keeps replaying
//! its pre-whack feed while the at-rest truth has moved on.
//!
//! The scenario is a campaign, [`stalloris_campaign`] played through
//! [`Campaign::Stalloris`](crate::Campaign::Stalloris): an
//! [`RrdpPin`](FaultKind::RrdpPin) window with a
//! [`Withdraw`](FaultKind::Withdraw) window opening behind it. This
//! module is that campaign's observer, setting three stances side by
//! side each round: the at-rest **truth**; a **trusting** RRDP relying
//! party ([`RrdpMode::Trusting`]), the stance Stalloris exploits; and a
//! **verified** one ([`RrdpMode::Verified`]), which cross-checks
//! freshness against rsync and downgrades — the hardening this repo
//! argues for. The trusting stance's world runs first, silent, and the
//! truth is read from it (the pin is transport-only, so its files are
//! the real state); the verified world runs second, traced, under the
//! at-rest [`Monitor`].
//!
//! The record counts *stale rounds*, where a stance's VRP set differs
//! from truth: the Stalloris effect is the gap — the trusting stance is
//! stale for the whole pin window, the verified one never. The
//! `ablation_downgrade` binary exports [`DowngradeRecord`].

use rpki_attacks::{Monitor, MonitorEvent, MonitorSnapshot};
use rpki_objects::Moment;
use rpki_rp::Vrp;
use serde::Serialize;

use crate::campaign::{
    CampaignOutcome, CampaignSpec, Engine, FaultKind, FaultWindow, Stack, Step, CONTINENTAL_HOST,
};
use crate::validate::RrdpMode;

/// The schedule a Stalloris campaign plays: what happens at which round.
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

impl DowngradeSchedule {
    /// The schedule of `spec`'s first `RrdpPin` and first `Withdraw`
    /// windows (a round is 0 where the spec has no such window).
    fn of(spec: &CampaignSpec) -> Self {
        let span = |kind| {
            spec.windows.iter().find(|w| w.kind == kind).map_or((0, 0), |w| (w.from, w.to + 1))
        };
        let ((pin_round, restore_round), (whack_round, _)) =
            (span(FaultKind::RrdpPin), span(FaultKind::Withdraw));
        DowngradeSchedule { rounds: spec.rounds, pin_round, whack_round, restore_round }
    }
}

/// The Stalloris scenario: Continental pins its feed over rounds 3–8
/// and restores it at round 9; the whack lands inside the pin at round
/// 4, invisible to anyone still watching the pinned feed, and is never
/// reissued within the 12 rounds.
pub fn stalloris_campaign() -> CampaignSpec {
    let window = |kind, from, to| FaultWindow::new(CONTINENTAL_HOST, kind, from, to);
    let windows = vec![window(FaultKind::RrdpPin, 3, 8), window(FaultKind::Withdraw, 4, 12)];
    CampaignSpec::new("stalloris", 12, windows)
}

/// One round of the scenario, all three stances side by side.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
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

/// The scenario record a [`Campaign::Stalloris`](crate::Campaign::Stalloris)
/// run files as [`CampaignOutcome::downgrade`]: schedule, per-round data,
/// and the stale totals the Stalloris claim rests on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct DowngradeRecord {
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
    /// object-layer evidence, which a [`rpki_attacks::MisbehaviorReport`]
    /// merges with the trace's transport events.
    pub monitor_events: Vec<MonitorEvent>,
}

/// The Stalloris observer. The trusting world fills each round's truth
/// and trusting columns; the verified world fills the rest, emits the
/// row, and files the record.
#[derive(Debug, Default)]
pub(crate) struct Stalloris {
    /// Each round's moment and at-rest truth, read in the silent trusting
    /// world (on the traced one `validate_direct` would emit a `run`).
    truth: Vec<(Moment, Vec<Vrp>)>,
    rounds: Vec<DowngradeRound>,
    /// The at-rest monitor over the verified world: the pin is
    /// transport-only, so the whack is in plain sight here.
    monitor: Monitor,
    monitor_events: Vec<MonitorEvent>,
}

impl Stalloris {
    pub(crate) fn observe(&mut self, e: &Engine<'_>, step: Step<'_>, out: &mut CampaignOutcome) {
        let trusting = matches!(e.rps[0].stack, Stack::Rrdp(RrdpMode::Trusting));
        let (now, recorder) = (Moment(e.w.net.now()), e.w.net.recorder());
        match (trusting, step) {
            (true, Step::Before(_)) => self.truth.push((now, e.w.validate_direct(now).vrps)),
            (true, Step::After(round, runs)) if round > 0 => {
                let (vrps, truth) = (&runs[0].vrps, &self.truth[round - 1].1);
                self.rounds.push(DowngradeRound {
                    round,
                    truth_vrps: truth.len(),
                    trusting_vrps: vrps.len(),
                    trusting_stale: vrps != truth,
                    ..DowngradeRound::default()
                });
            }
            // The monitor's baseline: the verified world after warm-up.
            (false, Step::After(0, _)) => {
                self.monitor.observe(MonitorSnapshot::capture(&e.w.repos, now));
            }
            (false, Step::Before(round)) => {
                let snapshot = MonitorSnapshot::capture(&e.w.repos, self.truth[round - 1].0);
                self.monitor_events.extend(self.monitor.observe(snapshot));
            }
            (false, Step::After(round, runs)) => {
                let (moment, truth) = &self.truth[round - 1];
                let (rp, m) = (&e.rps[0], &mut self.rounds[round - 1]);
                let (before, stats) = (rp.rrdp_before, rp.rrdp.stats());
                m.verified_vrps = runs[0].vrps.len();
                m.verified_stale = runs[0].vrps != *truth;
                m.verified_downgrades = (stats.downgrades - before.downgrades) as usize;
                m.pinned_detected = (stats.pinned_detected - before.pinned_detected) as usize;
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
            }
            (false, Step::End) => {
                let rounds = std::mem::take(&mut self.rounds);
                let record = DowngradeRecord {
                    seed: out.seed,
                    host: CONTINENTAL_HOST.to_owned(),
                    schedule: DowngradeSchedule::of(e.spec),
                    trusting_stale_rounds: rounds.iter().filter(|m| m.trusting_stale).count(),
                    verified_stale_rounds: rounds.iter().filter(|m| m.verified_stale).count(),
                    rounds,
                    monitor_events: std::mem::take(&mut self.monitor_events),
                };
                recorder
                    .event(now.0, "downgrade", "outcome")
                    .str("host", &record.host)
                    .u64("trusting_stale_rounds", record.trusting_stale_rounds as u64)
                    .u64("verified_stale_rounds", record.verified_stale_rounds as u64)
                    .emit();
                out.downgrade = Some(record);
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::Campaign;
    use rpki_obs::Recorder;

    /// The scenario at `seed`, traced into `recorder`.
    fn scenario(seed: u64, recorder: &Recorder) -> DowngradeRecord {
        let out = Campaign::Stalloris.run(&stalloris_campaign(), seed, recorder);
        out.downgrade.expect("a Stalloris run records the scenario")
    }

    #[test]
    fn stalloris_effect_holds_under_default_schedule() {
        let out = scenario(41, &Recorder::disabled());
        let s = out.schedule;
        assert_eq!((s.rounds, s.pin_round, s.whack_round, s.restore_round), (12, 3, 4, 9));
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
        let a = scenario(17, &Recorder::disabled());
        let b = scenario(17, &Recorder::disabled());
        assert_eq!(a, b);
        assert_eq!(serde_json::to_string(&a).unwrap(), serde_json::to_string(&b).unwrap());
    }

    #[test]
    fn traced_run_yields_a_misbehavior_report_naming_the_host() {
        use rpki_attacks::{Classification, MisbehaviorReport};

        let rec = Recorder::new();
        let out = scenario(23, &rec);
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
        use crate::fixtures::World;
        use crate::validate::{Fetch, ValidationOptions};
        use rpki_repo::RrdpClientState;

        let mut w = World::model(41);
        let mut client = RrdpClientState::new();
        let verified = RrdpMode::Verified;
        w.validate_with(ValidationOptions::at(Moment(2)).fetch(Fetch::Rrdp(&mut client, verified)));
        // Cold syncs are initial-cause snapshot fetches, nothing else.
        let stats = client.stats();
        assert_eq!(stats.fallback_initial, stats.snapshot_syncs, "{stats:?}");
        assert_eq!(stats.fallback_session_reset, 0);

        // The session-reset misbehaviour: fresh session ids, history
        // gone — every Continental directory forces a re-snapshot, and
        // the cause ledger must say *why*.
        w.repos.by_host_mut(CONTINENTAL_HOST).expect("model host").rrdp_reset_sessions();
        w.validate_with(ValidationOptions::at(Moment(3)).fetch(Fetch::Rrdp(&mut client, verified)));
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
