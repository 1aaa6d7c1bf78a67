//! Last-good snapshot fallback and repository health tracking.
//!
//! Production relying parties survive transient repository failures by
//! serving the last successfully validated copy of a publication point
//! (routinator's "fallback to cached data", within limits). That is a
//! *transport* defense: it bridges unreachability and corruption, but
//! deliberately does **not** bridge authority-side removals — a sync
//! that completes and simply lacks a file updates the snapshot, so a
//! stealthy withdrawal propagates immediately. Detecting *that* is
//! Suspenders' job (`rpki-core`'s hold-down layer); the two defenses
//! compose, and keeping them distinct is the point of the
//! `ablation_resilience` experiment.
//!
//! [`ResilientSource`] wraps any [`ObjectSource`]:
//!
//! - a **complete, digest-intact** sync refreshes the per-directory
//!   snapshot and closes the host's circuit breaker;
//! - an **incomplete** sync (unreachable, missing or corrupted files)
//!   falls back to the snapshot while it is younger than
//!   [`ResilienceConfig::max_stale`], marking the outcome
//!   [`Freshness::Stale`];
//! - three fully failed sessions in a row open the host's circuit
//!   breaker: for [`ResilienceConfig::cooldown`] seconds the wrapped
//!   source is not consulted at all, so a dead repository stops burning
//!   retry budget every validation run (the Stalloris scenario: each
//!   stalled session costs its full deadline). Once the cool-down ends,
//!   one failed probe session re-opens it for another.
//!
//! All ages and cool-downs are measured on the simulated clock exposed
//! by [`ObjectSource::now`]; state lives outside the source so it
//! persists across validation runs (sources borrow the network and are
//! rebuilt every run).

use std::collections::BTreeMap;

use rpki_objects::RepoUri;
use rpki_obs::Recorder;
use rpki_repo::{DirProbe, Freshness, SyncOutcome};
use serde::Serialize;

use crate::source::{host_entry, Breaker, BreakerRule, LastGood, ObjectSource};

/// Knobs of the resilience layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct ResilienceConfig {
    /// Maximum snapshot age (seconds) still served on fallback. Past
    /// this budget the relying party prefers "no data" over data old
    /// enough to hide a legitimate change — the same trade-off as a
    /// manifest's `next_update`.
    pub max_stale: u64,
    /// Seconds the circuit stays open once three sessions in a row have
    /// failed; while open, the wrapped source is not consulted for that
    /// host.
    pub cooldown: u64,
}

impl Default for ResilienceConfig {
    fn default() -> Self {
        ResilienceConfig { max_stale: 86_400, cooldown: 3_600 }
    }
}

/// Persistent state of the resilience layer: the last-good snapshot per
/// directory, keyed by its content digest so a LIST-only probe can
/// re-confirm it without a transfer, and a circuit breaker per host.
/// Owned by the experiment/relying party and lent to a fresh
/// [`ResilientSource`] each validation run.
#[derive(Debug, Default)]
pub struct ResilientState {
    config: ResilienceConfig,
    snapshots: BTreeMap<RepoUri, LastGood>,
    health: BTreeMap<String, Breaker>,
    recorder: Recorder,
}

impl ResilientState {
    /// Fresh state under `config`.
    pub fn new(config: ResilienceConfig) -> Self {
        ResilientState { config, ..ResilientState::default() }
    }

    /// Installs an observability recorder; circuit-breaker transitions
    /// and stale-serve decisions are emitted into it. Disabled by
    /// default.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Age of the stored snapshot for `dir` at time `now`, if one
    /// exists.
    pub fn snapshot_age(&self, dir: &RepoUri, now: u64) -> Option<u64> {
        self.snapshots.get(dir).map(|s| s.age(now))
    }

    /// Number of directories with a stored snapshot.
    pub fn snapshot_count(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether `host`'s circuit blocks traffic at `now`. A cool-down
    /// that has expired leaves the breaker half-open (emitted as an obs
    /// event) rather than resetting it: the next session is the probe,
    /// which re-closes the circuit or, by one more failure, re-opens it.
    fn circuit_open(&mut self, host: &str, now: u64) -> bool {
        let Some(breaker) = self.health.get_mut(host) else { return false };
        if breaker.is_open(now) {
            return true;
        }
        if breaker.until.take().is_some() && self.recorder.is_enabled() {
            self.recorder.count("rp.circuit_half_open", 1);
            self.recorder.event(now, "rp", "circuit_half_open").str("host", host).emit();
        }
        false
    }

    fn record_session(&mut self, host: &str, listed: bool, now: u64) {
        let breaker = host_entry(&mut self.health, host);
        if listed {
            if breaker.succeed() && self.recorder.is_enabled() {
                self.recorder.count("rp.circuit_closed", 1);
                self.recorder.event(now, "rp", "circuit_close").str("host", host).emit();
            }
            return;
        }
        // A fixed cool-down, re-armed by the half-open probe's failure.
        let rule = BreakerRule { base: self.config.cooldown, cap: self.config.cooldown, rearm: 1 };
        let reopen = breaker.trips > 0;
        if let Some(until) = breaker.fail(now, rule) {
            if self.recorder.is_enabled() {
                let (counter, kind) = if reopen {
                    ("rp.circuit_reopened", "circuit_reopen")
                } else {
                    ("rp.circuit_opened", "circuit_open")
                };
                self.recorder.count(counter, 1);
                self.recorder
                    .event(now, "rp", kind)
                    .str("host", host)
                    .u64("failures", u64::from(breaker.failures))
                    .u64("until", until)
                    .emit();
            }
        }
    }
}

/// An [`ObjectSource`] adapter adding snapshot fallback and circuit
/// breaking around `inner`. See the module docs for semantics.
pub struct ResilientSource<'s, S> {
    inner: S,
    state: &'s mut ResilientState,
}

impl<'s, S: ObjectSource> ResilientSource<'s, S> {
    /// Wraps `inner`, reading and updating `state`.
    pub fn new(inner: S, state: &'s mut ResilientState) -> Self {
        ResilientSource { inner, state }
    }
}

impl<S: ObjectSource> ObjectSource for ResilientSource<'_, S> {
    fn load_dir(&mut self, dir: &RepoUri) -> SyncOutcome {
        let now = self.inner.now();
        let host = dir.host();
        let outcome = if self.state.circuit_open(host, now) {
            // Open circuit: don't touch the network at all.
            if self.state.recorder.is_enabled() {
                self.state.recorder.count("rp.circuit_skips", 1);
                self.state.recorder.event(now, "rp", "circuit_skip").str("host", host).emit();
            }
            SyncOutcome::unreachable(dir.clone())
        } else {
            let outcome = self.inner.load_dir(dir);
            self.state.record_session(host, outcome.listed, now);
            outcome
        };

        if outcome.is_complete() {
            self.state.recorder.count("rp.snapshot_refreshes", 1);
            self.state.snapshots.insert(dir.clone(), LastGood::of(&outcome, now));
            return outcome;
        }

        // Incomplete: serve the last good copy while within budget.
        if let Some(snapshot) = self.state.snapshots.get(dir) {
            let age = snapshot.age(now);
            if age <= self.state.config.max_stale {
                if self.state.recorder.is_enabled() {
                    self.state.recorder.count("rp.stale_served", 1);
                    self.state.recorder.observe("rp.stale_age", age);
                    self.state
                        .recorder
                        .event(now, "rp", "stale_served")
                        .str("host", host)
                        .u64("age", age)
                        .u64("files", snapshot.files.len() as u64)
                        .emit();
                }
                return snapshot.outcome(dir.clone(), Freshness::Stale { age });
            }
        }
        outcome
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn wire_frames(&self) -> Option<u64> {
        self.inner.wire_frames()
    }

    /// Probes through the wrapped source. An open circuit yields `None`
    /// (the caller's fallback [`ObjectSource::load_dir`] then takes the
    /// circuit-skip path). A listed probe counts as a healthy session;
    /// when its digest matches the stored snapshot, the snapshot's age
    /// resets — unchanged content re-confirmed over the wire is as good
    /// as a fresh transfer. A failed probe records nothing: the full
    /// sync the caller falls back to accounts for the failure exactly
    /// once.
    fn probe_dir(&mut self, dir: &RepoUri) -> Option<DirProbe> {
        let now = self.inner.now();
        let host = dir.host();
        if self.state.circuit_open(host, now) {
            return None;
        }
        let probe = self.inner.probe_dir(dir)?;
        if !probe.listed {
            return None;
        }
        self.state.record_session(host, true, now);
        if let Some(snapshot) = self.state.snapshots.get_mut(dir) {
            if probe.content_digest() == Some(snapshot.digest) {
                snapshot.at = now;
                if self.state.recorder.is_enabled() {
                    self.state.recorder.count("rp.probe_confirms", 1);
                    self.state.recorder.event(now, "rp", "probe_confirm").str("host", host).emit();
                }
            }
        }
        Some(probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpki_repo::Freshness;

    /// A scriptable source: serves `files` when `up`, tracks calls.
    struct FakeSource {
        now: u64,
        up: bool,
        files: BTreeMap<String, Vec<u8>>,
        calls: std::rc::Rc<std::cell::Cell<u32>>,
    }

    impl FakeSource {
        fn new(now: u64, up: bool) -> (Self, std::rc::Rc<std::cell::Cell<u32>>) {
            let calls = std::rc::Rc::new(std::cell::Cell::new(0));
            let mut files = BTreeMap::new();
            files.insert("a.roa".to_owned(), vec![1, 2, 3]);
            (FakeSource { now, up, files, calls: calls.clone() }, calls)
        }
    }

    impl ObjectSource for FakeSource {
        fn load_dir(&mut self, dir: &RepoUri) -> SyncOutcome {
            self.calls.set(self.calls.get() + 1);
            if self.up {
                SyncOutcome {
                    files: self.files.clone(),
                    listed: true,
                    freshness: Freshness::Fresh,
                    ..SyncOutcome::unreachable(dir.clone())
                }
            } else {
                SyncOutcome::unreachable(dir.clone())
            }
        }

        fn now(&self) -> u64 {
            self.now
        }

        fn probe_dir(&mut self, dir: &RepoUri) -> Option<DirProbe> {
            if !self.up {
                return None;
            }
            // A real server reports the digest a complete sync would
            // key to; derive it from the same files load_dir serves.
            let digest = SyncOutcome::fresh(dir.clone(), self.files.clone()).content_digest();
            Some(DirProbe { dir: dir.clone(), listed: true, digest })
        }
    }

    fn dir() -> RepoUri {
        RepoUri::new("h", &["repo"])
    }

    #[test]
    fn complete_sync_refreshes_snapshot_and_health() {
        let mut state = ResilientState::default();
        let (inner, _) = FakeSource::new(100, true);
        let mut src = ResilientSource::new(inner, &mut state);
        let out = src.load_dir(&dir());
        assert!(out.is_complete());
        assert_eq!(out.freshness, Freshness::Fresh);
        assert_eq!(state.snapshot_count(), 1);
        assert_eq!(state.snapshot_age(&dir(), 150), Some(50));
        assert_eq!(state.health["h"], Breaker::default());
    }

    #[test]
    fn fallback_serves_stale_within_budget() {
        let mut state = ResilientState::new(ResilienceConfig {
            max_stale: 1_000,
            ..ResilienceConfig::default()
        });
        let (good, _) = FakeSource::new(100, true);
        ResilientSource::new(good, &mut state).load_dir(&dir());
        // Repository dies; 500 s later the snapshot still serves.
        let (bad, _) = FakeSource::new(600, false);
        let out = ResilientSource::new(bad, &mut state).load_dir(&dir());
        assert!(out.listed);
        assert_eq!(out.files["a.roa"], vec![1, 2, 3]);
        assert_eq!(out.freshness, Freshness::Stale { age: 500 });
    }

    #[test]
    fn a_stale_serve_carries_its_snapshots_digest() {
        let mut state = ResilientState::default();
        let (good, _) = FakeSource::new(100, true);
        let fresh = ResilientSource::new(good, &mut state).load_dir(&dir());
        let (bad, _) = FakeSource::new(600, false);
        let out = ResilientSource::new(bad, &mut state).load_dir(&dir());
        assert_eq!(out.freshness, Freshness::Stale { age: 500 });
        // Keyed by the snapshot's digest, not re-hashed file by file.
        assert!(out.content.is_some());
        assert_eq!(out.content, fresh.content_digest());
    }

    #[test]
    fn fallback_expires_past_the_staleness_budget() {
        let mut state = ResilientState::new(ResilienceConfig {
            max_stale: 1_000,
            ..ResilienceConfig::default()
        });
        let (good, _) = FakeSource::new(100, true);
        ResilientSource::new(good, &mut state).load_dir(&dir());
        let (bad, _) = FakeSource::new(2_000, false);
        let out = ResilientSource::new(bad, &mut state).load_dir(&dir());
        assert!(!out.listed);
        assert_eq!(out.freshness, Freshness::Absent);
    }

    #[test]
    fn the_staleness_budget_includes_its_last_second() {
        for (age, served) in [(999, true), (1_000, true), (1_001, false)] {
            let mut state = ResilientState::new(ResilienceConfig {
                max_stale: 1_000,
                ..ResilienceConfig::default()
            });
            let (good, _) = FakeSource::new(100, true);
            ResilientSource::new(good, &mut state).load_dir(&dir());
            let (bad, _) = FakeSource::new(100 + age, false);
            let out = ResilientSource::new(bad, &mut state).load_dir(&dir());
            assert_eq!(out.listed, served, "at age {age}");
        }
    }

    /// Fails a session to `dir()` at each of `times`; each returns how
    /// often the inner source was consulted.
    fn fail_at(state: &mut ResilientState, times: &[u64]) -> Vec<u32> {
        let mut consulted = Vec::new();
        for &t in times {
            let (bad, calls) = FakeSource::new(t, false);
            ResilientSource::new(bad, state).load_dir(&dir());
            consulted.push(calls.get());
        }
        consulted
    }

    #[test]
    fn circuit_opens_after_threshold_and_skips_inner() {
        let mut state = ResilientState::new(ResilienceConfig {
            cooldown: 1_000,
            ..ResilienceConfig::default()
        });
        assert_eq!(fail_at(&mut state, &[0, 10, 20]), [1, 1, 1]);
        assert_eq!(state.health["h"].failures, 3);
        assert_eq!(state.health["h"].until, Some(1_020));
        // While cooling, the inner source must not be consulted.
        assert_eq!(fail_at(&mut state, &[500]), [0]);
        // After cool-down the breaker goes half-open: the next session
        // is the probe, and a recovered repository re-closes it fully.
        let (good, calls) = FakeSource::new(1_500, true);
        let out = ResilientSource::new(good, &mut state).load_dir(&dir());
        assert_eq!(calls.get(), 1);
        assert!(out.is_complete());
        assert_eq!(state.health["h"], Breaker::default());
    }

    #[test]
    fn half_open_probe_reopens_on_failure() {
        let mut state = ResilientState::new(ResilienceConfig {
            cooldown: 1_000,
            ..ResilienceConfig::default()
        });
        fail_at(&mut state, &[0, 10, 20]);
        assert_eq!(state.health["h"].until, Some(1_020));
        // Cool-down expired: exactly one probe goes through, fails, and
        // the breaker re-opens for a fresh cool-down of the same length
        // — expiry alone never resets health.
        assert_eq!(fail_at(&mut state, &[1_500]), [1]);
        let health = state.health["h"];
        assert_eq!(health.trips, 2, "the failed probe resolved the half-open state");
        assert_eq!(health.until, Some(2_500));
        assert_eq!(health.failures, 4);
        // Re-opened: the next session inside the new cool-down skips.
        assert_eq!(fail_at(&mut state, &[2_000]), [0]);
    }

    #[test]
    fn half_open_transition_emits_event_once() {
        let mut state =
            ResilientState::new(ResilienceConfig { cooldown: 100, ..ResilienceConfig::default() });
        let recorder = Recorder::new();
        state.set_recorder(recorder.clone());
        fail_at(&mut state, &[0, 1, 2, 200]);
        let log = recorder.events();
        let half_opens = log.iter().filter(|e| e.kind == "circuit_half_open").count();
        let reopens = log.iter().filter(|e| e.kind == "circuit_reopen").count();
        assert_eq!(half_opens, 1);
        assert_eq!(reopens, 1);
    }

    #[test]
    fn the_circuit_opens_until_its_cool_down_ends_exclusive() {
        // Tripped at 20 for 1 000 s: open at 1 019, closed at 1 020 and
        // 1 021.
        for (t, consulted) in [(1_019, 0), (1_020, 1), (1_021, 1)] {
            let mut state = ResilientState::new(ResilienceConfig {
                cooldown: 1_000,
                ..ResilienceConfig::default()
            });
            fail_at(&mut state, &[0, 10, 20]);
            assert_eq!(fail_at(&mut state, &[t]), [consulted], "at {t}");
        }
    }

    #[test]
    fn an_endless_cool_down_saturates_at_the_end_of_time() {
        let mut state = ResilientState::new(ResilienceConfig {
            cooldown: u64::MAX,
            ..ResilienceConfig::default()
        });
        assert_eq!(fail_at(&mut state, &[1, 2, 3, 4, u64::MAX - 1]), [1, 1, 1, 0, 0]);
    }

    #[test]
    fn matching_probe_renews_snapshot_age() {
        let mut state = ResilientState::default();
        let (good, _) = FakeSource::new(100, true);
        ResilientSource::new(good, &mut state).load_dir(&dir());
        assert_eq!(state.snapshot_age(&dir(), 600), Some(500));
        // A probe whose digest matches the snapshot resets its age.
        let (good, calls) = FakeSource::new(600, true);
        let probe = ResilientSource::new(good, &mut state).probe_dir(&dir());
        assert!(probe.is_some_and(|p| p.listed));
        assert_eq!(calls.get(), 0, "a probe must not trigger a full sync");
        assert_eq!(state.snapshot_age(&dir(), 600), Some(0));
    }

    #[test]
    fn probe_respects_open_circuit_and_failed_probe_records_nothing() {
        let mut state = ResilientState::new(ResilienceConfig {
            cooldown: 1_000,
            ..ResilienceConfig::default()
        });
        // A failed probe is invisible to health tracking.
        let (bad, _) = FakeSource::new(0, false);
        assert!(ResilientSource::new(bad, &mut state).probe_dir(&dir()).is_none());
        assert_eq!(state.health.get("h"), None);
        // Three failed syncs trip the breaker; the probe then
        // short-circuits.
        fail_at(&mut state, &[10, 11, 12]);
        let (good, calls) = FakeSource::new(500, true);
        assert!(ResilientSource::new(good, &mut state).probe_dir(&dir()).is_none());
        assert_eq!(calls.get(), 0);
    }

    #[test]
    fn completed_sync_with_deletion_updates_snapshot() {
        // A complete listing that lacks a previously seen file is an
        // authority-side change, not a transport fault: the snapshot
        // follows it. Bridging such removals is Suspenders' job.
        let mut state = ResilientState::default();
        let (good, _) = FakeSource::new(0, true);
        ResilientSource::new(good, &mut state).load_dir(&dir());
        let (mut fewer, _) = FakeSource::new(10, true);
        fewer.files.clear();
        let out = ResilientSource::new(fewer, &mut state).load_dir(&dir());
        assert!(out.is_complete());
        assert!(out.files.is_empty());
        // The snapshot now reflects the deletion.
        let (bad, _) = FakeSource::new(20, false);
        let out = ResilientSource::new(bad, &mut state).load_dir(&dir());
        assert!(out.listed);
        assert!(out.files.is_empty(), "stale cache must not resurrect deleted files");
    }

    #[test]
    fn partial_listed_outcome_prefers_complete_snapshot() {
        let mut state = ResilientState::default();
        let (good, _) = FakeSource::new(0, true);
        ResilientSource::new(good, &mut state).load_dir(&dir());
        // Listed but incomplete (a file went missing in flight).
        struct Partial;
        impl ObjectSource for Partial {
            fn load_dir(&mut self, dir: &RepoUri) -> SyncOutcome {
                SyncOutcome {
                    missing: vec!["a.roa".to_owned()],
                    listed: true,
                    freshness: Freshness::Fresh,
                    ..SyncOutcome::unreachable(dir.clone())
                }
            }
            fn now(&self) -> u64 {
                50
            }
        }
        let out = ResilientSource::new(Partial, &mut state).load_dir(&dir());
        assert_eq!(out.freshness, Freshness::Stale { age: 50 });
        assert_eq!(out.files["a.roa"], vec![1, 2, 3]);
        // A listed (even partial) session keeps the circuit closed.
        assert_eq!(state.health["h"], Breaker::default());
    }
}
