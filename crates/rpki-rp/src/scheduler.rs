//! The notification-cadence fetch scheduler.
//!
//! Production relying parties do not sweep every publication point on
//! every validation run: routinator schedules each point by its own
//! update cadence and re-polls it when its refresh interval expires.
//! [`ScheduledSource`] brings that discipline to the simulated relying
//! party. It wraps any [`ObjectSource`] and, per publication point:
//!
//! - tracks an **EWMA of observed inter-change times** (the RRDP
//!   notification cadence, as seen through content-digest changes) and
//!   derives the next refresh deadline from it, clamped to
//!   [`SchedulePlan::min_refresh`]/[`SchedulePlan::max_refresh`];
//!   points that keep confirming unchanged decay geometrically toward
//!   `max_refresh`, points that churn converge onto their real cadence;
//! - adds **seeded deterministic jitter** so deadlines de-synchronize
//!   instead of thundering in lockstep;
//! - charges every delegated fetch against a per-run **time budget**;
//!   once it is spent, still-due points are deferred to the next run
//!   and served from the scheduler's last-good snapshot (the starvation
//!   surface the slow-serve campaign games);
//! - puts failing hosts on **exponential backoff**: after three
//!   failed contacts in a row the whole host is skipped for
//!   [`SchedulePlan::backoff_base`] seconds instead of being re-polled
//!   every run, and each three further failures trip it again for twice
//!   as long — the same per-host `Breaker` as the stale cache's
//!   circuit, under a doubling rule.
//!
//! A visit the scheduler **holds** — not due, backed off, or deferred —
//! costs zero frames: `probe_dir` answers with the digest of the
//! point's last complete fetch (so an incremental validator replays the
//! memoized subtree without touching the wire) and `load_dir` serves
//! that fetch's files.
//!
//! The **degenerate plan** ([`SchedulePlan::degenerate`]) — zero
//! cadence, infinite budget, no jitter, no backoff — delegates every
//! call 1:1, which makes the scheduled stack byte-identical to the
//! full-sweep baseline. That equivalence is the correctness anchor
//! (proptested in `tests/scheduler_equivalence.rs`); everything the
//! scheduler saves must come from schedule policy, never from silently
//! changing what a delegated fetch returns.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::fmt::{self, Write};
use std::hash::BuildHasherDefault;

use rpki_objects::RepoUri;
use rpki_obs::Recorder;
use rpki_repo::{DirProbe, Freshness, SyncOutcome};
use rpkisim_crypto::splitmix64;
use serde::Serialize;

use crate::source::{host_entry, Breaker, BreakerRule, LastGood, ObjectSource};

/// Ceiling on a host's doubling backoff cool-down, unless
/// [`SchedulePlan::backoff_base`] is longer still.
const BACKOFF_CAP: u64 = 14_400;

/// The schedule policy: cadence clamps, jitter, budgets, backoff.
///
/// All durations are simulated seconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct SchedulePlan {
    /// Shortest refresh interval a point can earn, however fast its
    /// observed cadence.
    pub min_refresh: u64,
    /// Longest refresh interval a quiet point decays to.
    pub max_refresh: u64,
    /// Deadlines get a deterministic per-point offset in
    /// `[0, jitter)`, derived from [`SchedulePlan::seed`], so points
    /// sharing a cadence do not all come due on the same run.
    pub jitter: u64,
    /// Seed for the jitter hash.
    pub seed: u64,
    /// Simulated seconds one run may spend inside delegated fetches
    /// before the rest of the due set is deferred; `None` is
    /// unlimited. This is the budget a slow-serving authority burns.
    pub time_budget: Option<u64>,
    /// First backoff cool-down; doubles per consecutive trip, up to
    /// four hours. Zero turns backoff off.
    pub backoff_base: u64,
    /// Wired into [`RrdpSource::fallback_after`](crate::RrdpSource):
    /// how long an RRDP notification must stay unreachable before the
    /// rsync fallback fires. `None` falls back on the first failure.
    pub rrdp_fallback_time: Option<u64>,
}

impl Default for SchedulePlan {
    /// Routinator-flavoured defaults: 10-minute floor, daily ceiling,
    /// 10-minute jitter, hour-long RRDP fallback window, unlimited
    /// budgets (callers opt into scarcity explicitly).
    fn default() -> Self {
        SchedulePlan {
            min_refresh: 600,
            max_refresh: 86_400,
            jitter: 600,
            seed: 0x5c4e_d01e,
            time_budget: None,
            backoff_base: 600,
            rrdp_fallback_time: Some(3_600),
        }
    }
}

impl SchedulePlan {
    /// The identity schedule: every point is due on every run, budgets
    /// are unlimited, jitter and backoff are off, and RRDP falls back
    /// immediately. A stack under this plan is byte-identical to the
    /// unscheduled full sweep.
    pub fn degenerate() -> Self {
        SchedulePlan {
            min_refresh: 0,
            max_refresh: 0,
            jitter: 0,
            seed: 0,
            time_budget: None,
            backoff_base: 0,
            rrdp_fallback_time: None,
        }
    }

    fn clamp_interval(&self, interval: u64) -> u64 {
        interval.clamp(self.min_refresh, self.max_refresh)
    }

    /// `dir`'s offset in `[0, jitter)`: FNV-1a over its display form,
    /// streamed as it is formatted, mixed with the seed.
    fn jitter_for(&self, dir: &RepoUri) -> u64 {
        if self.jitter == 0 {
            return 0;
        }
        let mut fnv = Fnv1a(0xcbf2_9ce4_8422_2325);
        write!(fnv, "{dir}").expect("hashing never fails");
        splitmix64(self.seed ^ fnv.0) % self.jitter
    }
}

/// `interval` and then `jitter` seconds after `done`, pinned at
/// `u64::MAX` instead of wrapping: a plan's durations can be anything.
fn deadline(done: u64, interval: u64, jitter: u64) -> u64 {
    done.saturating_add(interval).saturating_add(jitter)
}

/// The FNV-1a state over everything written into it.
struct Fnv1a(u64);

impl Write for Fnv1a {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        for &b in s.as_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x100_0000_01b3);
        }
        Ok(())
    }
}

/// One publication point's schedule entry, created by its first
/// complete fetch.
#[derive(Debug, Clone)]
struct DirSchedule {
    /// Simulated time this point next owes a wire contact.
    next_due: u64,
    /// Current refresh interval (already clamped).
    interval: u64,
    /// EWMA of observed inter-change times; 0 until two changes have
    /// been observed.
    ewma: u64,
    /// When the last content change was observed.
    last_changed_at: u64,
    /// The last complete fetch, served while the point is held, and
    /// when a load or confirming poll last succeeded.
    last: LastGood,
}

/// Cumulative scheduler counters; all plain integers so campaign
/// metrics built on them replay byte-identically.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SchedulerStats {
    /// Validation runs the scheduler has fronted.
    pub runs: u64,
    /// Directory visits that were due (delegated, or deferred on
    /// budget).
    pub due: u64,
    /// Directory visits answered from schedule state at zero frames.
    pub not_due: u64,
    /// Full fetches delegated to the wrapped source.
    pub fetched: u64,
    /// Digest polls delegated to the wrapped source.
    pub polled: u64,
    /// Due visits deferred because a budget was spent.
    pub deferred: u64,
    /// Visits skipped because the host was in backoff.
    pub backoff_skips: u64,
    /// Hosts tripped into backoff.
    pub backoff_trips: u64,
    /// Content changes observed (fetches whose digest moved).
    pub changes_observed: u64,
    /// Polls that confirmed an unchanged point.
    pub unchanged_polls: u64,
    /// Frames charged against run budgets, cumulative.
    pub frames_charged: u64,
    /// Simulated seconds charged against run budgets, cumulative.
    pub time_charged: u64,
}

/// Counters of a single run (reset when a [`ScheduledSource`] begins
/// its run).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct RunStats {
    /// Sim time the run started.
    pub started_at: u64,
    /// Due visits this run.
    pub due: u64,
    /// Zero-frame visits this run.
    pub not_due: u64,
    /// Delegated full fetches this run.
    pub fetched: u64,
    /// Delegated digest polls this run.
    pub polled: u64,
    /// Budget deferrals this run.
    pub deferred: u64,
    /// Backoff skips this run.
    pub backoff_skips: u64,
    /// Frames spent on delegated work this run.
    pub frames_used: u64,
    /// Simulated seconds spent inside delegated work this run.
    pub time_used: u64,
    /// Oldest `now - last_success` over points this run deferred or
    /// served not-due — the staleness a starved schedule accrues.
    pub max_served_age: u64,
}

impl RunStats {
    /// Books a visit of `dir` that `held` kept off the wire, and the
    /// age at `now` of the record it serves (`None` for an untracked
    /// point).
    fn serve(
        &mut self,
        dir: &RepoUri,
        now: u64,
        held: Held,
        last: Option<&LastGood>,
        recorder: &Recorder,
    ) {
        match held {
            Held::NotDue => self.not_due += 1,
            Held::BackedOff => self.backoff_skips += 1,
            Held::Deferred => {
                self.due += 1;
                self.deferred += 1;
                if recorder.is_enabled() {
                    recorder.count("rp.schedule_deferrals", 1);
                    recorder
                        .event(now, "rp", "schedule_defer")
                        .str("host", dir.host())
                        .u64("frames_used", self.frames_used)
                        .u64("time_used", self.time_used)
                        .emit();
                }
            }
        }
        if let Some(last) = last {
            self.max_served_age = self.max_served_age.max(last.age(now));
        }
    }
}

/// Persistent scheduler state: per-point schedules, per-host backoff,
/// cumulative stats. Owned by the experiment/relying party and lent to
/// a fresh [`ScheduledSource`] each run, like
/// [`ResilientState`](crate::resilience::ResilientState).
#[derive(Debug, Default)]
pub struct SchedulerState {
    /// Looked up once per visit and never iterated. The hasher is fixed,
    /// not `RandomState`, so the `Debug` output is the same every run.
    dirs: HashMap<RepoUri, DirSchedule, BuildHasherDefault<DefaultHasher>>,
    hosts: BTreeMap<String, Breaker>,
    /// The finished runs' counters, and the counters no run keeps.
    stats: SchedulerStats,
    run: RunStats,
    recorder: Recorder,
}

impl SchedulerState {
    /// Fresh state: every point starts unknown, so the first run is a
    /// full sweep by construction.
    pub fn new() -> Self {
        SchedulerState::default()
    }

    /// Installs an observability recorder; deferrals and backoff
    /// transitions are emitted into it. Disabled by default.
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// Cumulative counters: the finished runs' plus the current run's.
    pub fn stats(&self) -> SchedulerStats {
        let (s, r) = (self.stats, self.run);
        SchedulerStats {
            due: s.due + r.due,
            not_due: s.not_due + r.not_due,
            fetched: s.fetched + r.fetched,
            polled: s.polled + r.polled,
            deferred: s.deferred + r.deferred,
            backoff_skips: s.backoff_skips + r.backoff_skips,
            frames_charged: s.frames_charged + r.frames_used,
            time_charged: s.time_charged + r.time_used,
            ..s
        }
    }

    /// Counters of the current (or just-finished) run.
    pub fn last_run(&self) -> RunStats {
        self.run
    }

    /// When `dir` next owes a wire contact, if it is tracked.
    pub fn next_due(&self, dir: &RepoUri) -> Option<u64> {
        self.dirs.get(dir).map(|d| d.next_due)
    }

    /// The refresh interval `dir` has currently earned, if tracked.
    pub fn interval(&self, dir: &RepoUri) -> Option<u64> {
        self.dirs.get(dir).map(|d| d.interval)
    }

    /// Whether `host` is currently in backoff at `now`.
    fn host_backing_off(&self, host: &str, now: u64) -> bool {
        self.hosts.get(host).is_some_and(|breaker| breaker.is_open(now))
    }

    /// Folds the finished run into the totals and starts a new run's
    /// budget window.
    fn begin_run(&mut self, now: u64) {
        self.stats = self.stats();
        self.stats.runs += 1;
        self.run = RunStats { started_at: now, ..RunStats::default() };
    }

    fn record_success(&mut self, host: &str) {
        host_entry(&mut self.hosts, host).succeed();
    }

    fn record_failure(&mut self, host: &str, now: u64, plan: &SchedulePlan) {
        if plan.backoff_base == 0 {
            return;
        }
        // Trip `k` holds the host off for `base · 2^(k − 1)`, capped,
        // and three more failures trip it again.
        let cap = BACKOFF_CAP.max(plan.backoff_base);
        let rule = BreakerRule { base: plan.backoff_base, cap, rearm: 3 };
        let breaker = host_entry(&mut self.hosts, host);
        let Some(until) = breaker.fail(now, rule) else { return };
        self.stats.backoff_trips += 1;
        if self.recorder.is_enabled() {
            self.recorder.count("rp.schedule_backoffs", 1);
            self.recorder
                .event(now, "rp", "schedule_backoff")
                .str("host", host)
                .u64("trips", u64::from(breaker.trips))
                .u64("until", until)
                .emit();
        }
    }
}

/// An [`ObjectSource`] adapter that only lets due publication points
/// reach the wrapped source. See the module docs for the policy.
pub struct ScheduledSource<'s, S> {
    inner: S,
    state: &'s mut SchedulerState,
    plan: SchedulePlan,
}

/// Why a visit is answered from the last-good record instead of the
/// wire.
#[derive(Clone, Copy)]
enum Held {
    /// The point's refresh deadline has not come.
    NotDue,
    /// The point's host is in backoff.
    BackedOff,
    /// The point is due, but the run's time budget is spent.
    Deferred,
}

impl<'s, S: ObjectSource> ScheduledSource<'s, S> {
    /// Wraps `inner` under `plan`, starting a fresh run budget.
    pub fn new(inner: S, state: &'s mut SchedulerState, plan: SchedulePlan) -> Self {
        let now = inner.now();
        state.begin_run(now);
        ScheduledSource { inner, state, plan }
    }

    /// Whether the visit of `dir` (schedule `entry`, if tracked) at
    /// `now` stays off the wire, and why. Backed-off hosts are never
    /// contacted and untracked points are otherwise always due: a spent
    /// budget defers only a point with a record to serve, so deferral
    /// never blanks out a subtree the validator has never seen.
    fn held(&self, dir: &RepoUri, entry: Option<&DirSchedule>, now: u64) -> Option<Held> {
        let budget_spent = self.plan.time_budget.is_some_and(|b| self.state.run.time_used >= b);
        if self.state.host_backing_off(dir.host(), now) {
            Some(Held::BackedOff)
        } else if entry.is_some_and(|e| e.next_due > now) {
            Some(Held::NotDue)
        } else if entry.is_some() && budget_spent {
            Some(Held::Deferred)
        } else {
            None
        }
    }

    /// Charges one delegated exchange against the run budget.
    fn charge(&mut self, frames_before: Option<u64>, t0: u64) {
        let frames = self
            .inner
            .wire_frames()
            .zip(frames_before)
            .map_or(0, |(after, before)| after.saturating_sub(before));
        self.state.run.frames_used += frames;
        self.state.run.time_used += self.inner.now().saturating_sub(t0);
    }

    /// Folds a complete fetch into the schedule: changed content feeds
    /// the cadence EWMA, unchanged content decays the interval
    /// geometrically toward `max_refresh`.
    fn reschedule_after_fetch(&mut self, dir: &RepoUri, outcome: &SyncOutcome) {
        let done = self.inner.now();
        let last = LastGood::of(outcome, done);
        let plan = self.plan;
        let Some(entry) = self.state.dirs.get_mut(dir) else {
            // First contact: start attentive and let decay or the EWMA
            // move the interval from here.
            self.state.stats.changes_observed += 1;
            let interval = plan.min_refresh;
            let entry = DirSchedule {
                next_due: deadline(done, interval, plan.jitter_for(dir)),
                interval,
                ewma: 0,
                last_changed_at: done,
                last,
            };
            self.state.dirs.insert(dir.clone(), entry);
            return;
        };
        if entry.last.digest != last.digest {
            // A later observed change: a cadence sample.
            let sample = done.saturating_sub(entry.last_changed_at).max(1);
            entry.ewma = if entry.ewma == 0 { sample } else { (3 * entry.ewma + sample) / 4 };
            entry.interval = plan.clamp_interval(entry.ewma);
            entry.last_changed_at = done;
            self.state.stats.changes_observed += 1;
        } else {
            // Confirmed unchanged: decay geometrically toward the
            // ceiling. `max(1)` keeps a zero interval (the degenerate
            // plan) moving through the clamp instead of sticking at 0
            // by accident — the clamp pins it back to the plan's range.
            entry.interval = plan.clamp_interval(entry.interval.saturating_mul(2).max(1));
        }
        entry.last = last;
        entry.next_due = deadline(done, entry.interval, plan.jitter_for(dir));
    }

    /// Reschedules a confirming (unchanged) digest poll.
    fn reschedule_after_poll(&mut self, dir: &RepoUri) {
        let done = self.inner.now();
        let plan = self.plan;
        if let Some(entry) = self.state.dirs.get_mut(dir) {
            entry.interval = plan.clamp_interval(entry.interval.saturating_mul(2).max(1));
            entry.last.at = done;
            entry.next_due = deadline(done, entry.interval, plan.jitter_for(dir));
        }
        self.state.stats.unchanged_polls += 1;
    }

    /// Reschedules after a failed contact: per-point retry pacing on
    /// top of the host-level backoff [`SchedulerState::record_failure`]
    /// may have armed.
    fn reschedule_after_failure(&mut self, dir: &RepoUri) {
        let done = self.inner.now();
        let retry = self.plan.backoff_base.max(self.plan.min_refresh);
        if let Some(entry) = self.state.dirs.get_mut(dir) {
            entry.next_due = deadline(done, retry, 0);
        }
    }
}

impl<S: ObjectSource> ObjectSource for ScheduledSource<'_, S> {
    fn load_dir(&mut self, dir: &RepoUri) -> SyncOutcome {
        let now = self.inner.now();
        let entry = self.state.dirs.get(dir);
        if let Some(held) = self.held(dir, entry, now) {
            let last = entry.map(|e| &e.last);
            self.state.run.serve(dir, now, held, last, &self.state.recorder);
            return last.map_or_else(
                || SyncOutcome::unreachable(dir.clone()),
                |last| last.outcome(dir.clone(), Freshness::Fresh),
            );
        }
        let frames_before = self.inner.wire_frames();
        let outcome = self.inner.load_dir(dir);
        self.charge(frames_before, now);
        self.state.run.due += 1;
        self.state.run.fetched += 1;
        // A stale outcome means a resilience layer below already
        // bridged a failed contact; schedule-wise that is a failure.
        // So is a fetch with missing or corrupted files: the last-good
        // record holds the last *complete* fetch, and the caller still
        // gets this outcome with its holes listed.
        let contact_ok = outcome.is_complete() && outcome.freshness == Freshness::Fresh;
        if contact_ok {
            self.state.record_success(dir.host());
            self.reschedule_after_fetch(dir, &outcome);
        } else {
            let done = self.inner.now();
            self.state.record_failure(dir.host(), done, &self.plan);
            self.reschedule_after_failure(dir);
        }
        outcome
    }

    fn now(&self) -> u64 {
        self.inner.now()
    }

    fn wire_frames(&self) -> Option<u64> {
        self.inner.wire_frames()
    }

    fn probe_dir(&mut self, dir: &RepoUri) -> Option<DirProbe> {
        let now = self.inner.now();
        let entry = self.state.dirs.get(dir);
        let marker = entry.map(|e| e.last.digest);
        if let Some(held) = self.held(dir, entry, now) {
            // Zero-frame answer from the recorded digest: a matching
            // incremental memo replays without any wire traffic at all.
            // An untracked (backed-off) point is left to the `load_dir`
            // that follows, which books it.
            let last = &entry?.last;
            self.state.run.serve(dir, now, held, Some(last), &self.state.recorder);
            return Some(DirProbe { dir: dir.clone(), listed: true, digest: Some(last.digest) });
        }
        let frames_before = self.inner.wire_frames();
        let probe = self.inner.probe_dir(dir)?;
        self.charge(frames_before, now);
        self.state.run.polled += 1;
        // A digest mismatch leaves the entry due: the follow-up
        // load_dir performs the real fetch and reschedules there.
        if probe.listed && marker.is_some_and(|m| probe.digest == Some(m)) {
            // Confirmed unchanged: this poll settles the visit, so it
            // counts as the due contact and reschedules.
            self.state.run.due += 1;
            self.state.record_success(dir.host());
            self.reschedule_after_poll(dir);
        }
        Some(probe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A scriptable inner source with a settable clock and content
    /// version, counting wire activity.
    struct FakeSource {
        now: u64,
        up: bool,
        /// The GET reply carrying `b.roa` is lost.
        lossy: bool,
        version: u8,
        /// Simulated seconds one `load_dir` takes.
        load_secs: u64,
        frames: u64,
        loads: u64,
        probes: u64,
    }

    impl FakeSource {
        fn new(now: u64) -> Self {
            FakeSource {
                now,
                up: true,
                lossy: false,
                version: 1,
                load_secs: 0,
                frames: 0,
                loads: 0,
                probes: 0,
            }
        }

        fn outcome(&self, dir: &RepoUri) -> SyncOutcome {
            let mut files = BTreeMap::new();
            files.insert("a.roa".to_owned(), vec![self.version]);
            files.insert("b.roa".to_owned(), vec![self.version]);
            let mut out = SyncOutcome::fresh(dir.clone(), files);
            if self.lossy {
                out.files.remove("b.roa");
                out.missing.push("b.roa".to_owned());
            }
            out.content = out.content_digest();
            out
        }
    }

    impl ObjectSource for FakeSource {
        fn load_dir(&mut self, dir: &RepoUri) -> SyncOutcome {
            self.loads += 1;
            self.frames += 4;
            self.now += self.load_secs;
            if self.up {
                self.outcome(dir)
            } else {
                SyncOutcome::unreachable(dir.clone())
            }
        }

        fn now(&self) -> u64 {
            self.now
        }

        fn probe_dir(&mut self, dir: &RepoUri) -> Option<DirProbe> {
            self.probes += 1;
            self.frames += 1;
            if self.up {
                let digest = self.outcome(dir).content_digest();
                Some(DirProbe { dir: dir.clone(), listed: true, digest })
            } else {
                None
            }
        }

        fn wire_frames(&self) -> Option<u64> {
            Some(self.frames)
        }
    }

    fn dir(n: u32) -> RepoUri {
        RepoUri::new("h", &["repo", &format!("ca{n}")])
    }

    fn plan() -> SchedulePlan {
        SchedulePlan { min_refresh: 100, max_refresh: 1_600, jitter: 0, ..SchedulePlan::default() }
    }

    #[test]
    fn first_contact_fetches_then_not_due_serves_snapshot() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        {
            let mut src = ScheduledSource::new(&mut inner, &mut state, plan());
            let out = src.load_dir(&dir(0));
            assert!(out.is_complete());
        }
        assert_eq!(inner.loads, 1);
        assert_eq!(state.next_due(&dir(0)), Some(100));
        // Second run before the deadline: zero wire activity, same
        // bytes.
        inner.now = 50;
        {
            let mut src = ScheduledSource::new(&mut inner, &mut state, plan());
            let out = src.load_dir(&dir(0));
            assert!(out.is_complete());
            assert_eq!(out.files["a.roa"], vec![1]);
        }
        assert_eq!(inner.loads, 1, "a not-due point must not touch the wire");
        assert_eq!(state.stats().not_due, 1);
    }

    #[test]
    fn a_point_comes_due_at_its_deadline() {
        // First fetched at 0 under a 100 s floor: held at 99, fetched
        // at 100 and 101.
        for (t, held) in [(99, true), (100, false), (101, false)] {
            let mut state = SchedulerState::new();
            let mut inner = FakeSource::new(0);
            ScheduledSource::new(&mut inner, &mut state, plan()).load_dir(&dir(0));
            assert_eq!(state.next_due(&dir(0)), Some(100));
            inner.now = t;
            ScheduledSource::new(&mut inner, &mut state, plan()).load_dir(&dir(0));
            assert_eq!(inner.loads, if held { 1 } else { 2 }, "at {t}");
            assert_eq!(state.stats().not_due, u64::from(held), "at {t}");
        }
    }

    #[test]
    fn partial_fetch_is_a_failed_contact_not_a_snapshot() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        // First contact loses a file: the caller sees the hole, and
        // with no good snapshot to fall back on the next run refetches.
        inner.lossy = true;
        let out = ScheduledSource::new(&mut inner, &mut state, plan()).load_dir(&dir(0));
        assert_eq!(out.missing, ["b.roa"]);
        inner.lossy = false;
        inner.now = 50;
        let out = ScheduledSource::new(&mut inner, &mut state, plan()).load_dir(&dir(0));
        assert_eq!(inner.loads, 2, "a partial first contact leaves the point due");
        assert!(out.is_complete());
        assert_eq!(out.files.len(), 2);

        // A later partial fetch of new content: the good snapshot
        // survives it and is what a not-due visit serves.
        inner.now = state.next_due(&dir(0)).unwrap();
        inner.version = 2;
        inner.lossy = true;
        let out = ScheduledSource::new(&mut inner, &mut state, plan()).load_dir(&dir(0));
        assert_eq!(out.missing, ["b.roa"]);
        inner.lossy = false;
        inner.now += 50;
        let out = ScheduledSource::new(&mut inner, &mut state, plan()).load_dir(&dir(0));
        assert_eq!(inner.loads, 3, "retry pacing: not due yet");
        assert!(out.is_complete());
        assert_eq!(out.files["a.roa"], vec![1]);
        assert_eq!(out.files["b.roa"], vec![1]);
        assert_eq!(state.stats().changes_observed, 1, "a hole in a fetch is not a content change");
    }

    #[test]
    fn dropped_get_reply_is_not_frozen_as_a_fresh_snapshot() {
        let mut net = netsim::Network::new(0);
        let rp = net.add_node("rp");
        let mut repos = rpki_repo::RepoRegistry::new();
        let server = repos.create(&mut net, "h");
        let repo = repos.get_mut(server).unwrap();
        repo.publish_raw(&dir(0), "a.roa", vec![1]);
        repo.publish_raw(&dir(0), "b.roa", vec![2]);
        let mut state = SchedulerState::new();
        // The listing gets through, the first file does not.
        net.faults.drop_nth(server, rp, 2);
        let inner = crate::NetworkSource::new(&mut net, &repos, rp);
        let out = ScheduledSource::new(inner, &mut state, plan()).load_dir(&dir(0));
        assert!(out.listed && !out.is_complete());

        // The loss was one frame; 50 s later the link is fine, and the
        // relying party must end up with both files.
        net.advance_to(net.now() + 50);
        let inner = crate::NetworkSource::new(&mut net, &repos, rp);
        let out = ScheduledSource::new(inner, &mut state, plan()).load_dir(&dir(0));
        assert!(out.is_complete());
        assert_eq!(out.files.keys().collect::<Vec<_>>(), ["a.roa", "b.roa"]);
    }

    #[test]
    fn unchanged_confirmations_decay_toward_max_refresh() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        let p = plan();
        let mut expected = p.min_refresh;
        ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
        for _ in 0..6 {
            inner.now = state.next_due(&dir(0)).unwrap();
            ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
            expected = (expected * 2).min(p.max_refresh);
            assert_eq!(state.interval(&dir(0)), Some(expected));
        }
        assert_eq!(state.interval(&dir(0)), Some(p.max_refresh));
    }

    #[test]
    fn cadence_ewma_converges_onto_change_rate() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        let p = plan();
        ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
        // The point changes every 400 s, and we poll it when due.
        for round in 1..=8u64 {
            inner.now = round * 400;
            inner.version = inner.version.wrapping_add(1);
            ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
        }
        let interval = state.interval(&dir(0)).unwrap();
        assert!(
            (300..=500).contains(&interval),
            "EWMA should track the 400 s cadence, got {interval}"
        );
    }

    #[test]
    fn a_burst_of_changes_pulls_a_decayed_interval_back_down() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        let p = plan();
        ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
        // A change one refresh later seeds the cadence EWMA at the floor.
        inner.now = state.next_due(&dir(0)).unwrap();
        inner.version = 2;
        ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
        assert_eq!(state.interval(&dir(0)), Some(p.min_refresh));
        // A quiet spell decays the interval to the ceiling.
        while state.interval(&dir(0)) < Some(p.max_refresh) {
            inner.now = state.next_due(&dir(0)).unwrap();
            ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
        }
        // Then every visit finds a change: the EWMA pulls the interval
        // back under the ceiling.
        for _ in 0..4 {
            inner.now = state.next_due(&dir(0)).unwrap();
            inner.version += 1;
            ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
        }
        let interval = state.interval(&dir(0)).unwrap();
        assert!(interval < p.max_refresh, "churn must shorten a decayed interval, got {interval}");
    }

    #[test]
    fn time_budget_defers_and_first_contact_overrides() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        inner.load_secs = 4;
        let p = SchedulePlan { time_budget: Some(4), ..plan() };
        {
            let mut src = ScheduledSource::new(&mut inner, &mut state, p);
            // First contact always fetches, even with the budget gone
            // after the first load (4 s ≥ budget 4).
            assert!(src.load_dir(&dir(0)).is_complete());
            assert!(src.load_dir(&dir(1)).is_complete(), "no snapshot yet: must fetch");
        }
        assert_eq!(inner.loads, 2);
        // Next run: both due again (make them due), budget allows one.
        inner.now = 10_000;
        inner.version = 7;
        {
            let mut src = ScheduledSource::new(&mut inner, &mut state, p);
            assert!(src.load_dir(&dir(0)).is_complete());
            let out = src.load_dir(&dir(1));
            assert!(out.is_complete(), "deferred point serves its snapshot");
            assert_eq!(out.files["a.roa"], vec![1], "snapshot bytes, not the new version");
        }
        assert_eq!(inner.loads, 3, "the second point was deferred, not fetched");
        assert_eq!(state.stats().deferred, 1);
        assert!(state.last_run().max_served_age > 0);
    }

    #[test]
    fn the_run_budget_is_spent_once_used_up_to_the_second() {
        // A 4 s budget: a first load of 3 s leaves room for the second
        // point; one of 4 or 5 s spends it, and the second is deferred.
        for (secs, deferred) in [(3, false), (4, true), (5, true)] {
            let mut state = SchedulerState::new();
            let mut inner = FakeSource::new(0);
            let p = SchedulePlan { time_budget: Some(4), ..plan() };
            {
                let mut src = ScheduledSource::new(&mut inner, &mut state, p);
                src.load_dir(&dir(0));
                src.load_dir(&dir(1));
            }
            inner.now = 10_000;
            inner.load_secs = secs;
            {
                let mut src = ScheduledSource::new(&mut inner, &mut state, p);
                src.load_dir(&dir(0));
                src.load_dir(&dir(1));
            }
            assert_eq!(inner.loads, if deferred { 3 } else { 4 }, "after {secs} s");
            assert_eq!(state.last_run().deferred, u64::from(deferred), "after {secs} s");
        }
    }

    #[test]
    fn a_budget_deferred_probe_books_its_served_age() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        inner.load_secs = 4;
        let p = SchedulePlan { time_budget: Some(4), ..plan() };
        {
            let mut src = ScheduledSource::new(&mut inner, &mut state, p);
            assert!(src.load_dir(&dir(0)).is_complete());
            assert!(src.load_dir(&dir(1)).is_complete());
        }
        // Next run: both due, and the first load spends the budget, so
        // the probe of the second is answered from its marker.
        inner.now = 10_000;
        {
            let mut src = ScheduledSource::new(&mut inner, &mut state, p);
            assert!(src.load_dir(&dir(0)).is_complete());
            let probe = src.probe_dir(&dir(1)).expect("a deferred probe answers");
            assert!(probe.listed && probe.digest.is_some());
        }
        assert_eq!(inner.probes, 0, "the deferred probe stayed off the wire");
        assert_eq!(state.last_run().deferred, 1);
        assert!(state.last_run().max_served_age > 0, "{:?}", state.last_run());
    }

    /// Runs one visit of `dir(0)` at each of `times` with the host down.
    fn fail_at(inner: &mut FakeSource, state: &mut SchedulerState, p: SchedulePlan, times: &[u64]) {
        inner.up = false;
        for &t in times {
            inner.now = t;
            ScheduledSource::new(&mut *inner, state, p).load_dir(&dir(0));
        }
    }

    #[test]
    fn failing_host_trips_into_exponential_backoff() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        let p = SchedulePlan { backoff_base: 200, ..plan() };
        ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
        fail_at(&mut inner, &mut state, p, &[1_000, 1_500, 2_000]);
        assert!(state.host_backing_off("h", 2_100));
        assert_eq!(state.stats().backoff_trips, 1);
        // While backing off, the snapshot serves and the wire stays
        // quiet.
        let loads_before = inner.loads;
        inner.now = 2_100;
        {
            let mut src = ScheduledSource::new(&mut inner, &mut state, p);
            let out = src.load_dir(&dir(0));
            assert!(out.is_complete());
        }
        assert_eq!(inner.loads, loads_before);
        assert_eq!(state.stats().backoff_skips, 1);
    }

    #[test]
    fn each_trip_doubles_the_cool_down_up_to_four_hours() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        let p = SchedulePlan { backoff_base: 1_000, ..plan() };
        // Three failures trip the host; once its cool-down is over, three
        // more trip it again for twice as long, up to 14 400 s.
        let mut now = 0;
        for cool_down in [1_000, 2_000, 4_000, 8_000, 14_400, 14_400] {
            fail_at(&mut inner, &mut state, p, &[now, now + 1, now + 2]);
            assert_eq!(state.hosts["h"].until, Some(now + 2 + cool_down));
            now += 2 + cool_down;
        }
        assert_eq!(state.stats().backoff_trips, 6);
        // One good contact forgets every trip.
        inner.up = true;
        inner.now = now;
        ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
        assert_eq!(state.hosts["h"], Breaker::default());
    }

    #[test]
    fn backoff_cool_downs_saturate() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        let base = 1 << 60;
        let p = SchedulePlan { backoff_base: base, ..SchedulePlan::default() };
        // Trips two on are capped at the base itself; none wraps to a
        // zero-second cool-down.
        for trip in 0..5 {
            let now = trip * base;
            fail_at(&mut inner, &mut state, p, &[now, now, now]);
            assert!(state.host_backing_off("h", now), "trip {}", trip + 1);
            assert_eq!(state.stats().backoff_trips, trip + 1);
        }
    }

    #[test]
    fn a_failed_points_retry_pacing_saturates() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        let p = SchedulePlan { backoff_base: u64::MAX, ..SchedulePlan::default() };
        ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
        fail_at(&mut inner, &mut state, p, &[1_000]);
        assert_eq!(state.next_due(&dir(0)), Some(u64::MAX));
    }

    /// A plan whose refresh interval is never cut short.
    fn unbounded(min_refresh: u64) -> SchedulePlan {
        SchedulePlan { min_refresh, max_refresh: u64::MAX, jitter: 0, ..plan() }
    }

    #[test]
    fn first_contact_deadline_saturates() {
        // The deadline pins at the end of time, so the point is held on
        // the next run instead of fetched again.
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(10);
        let p = unbounded(u64::MAX - 5);
        ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
        assert_eq!(state.next_due(&dir(0)), Some(u64::MAX));
        inner.now = 11;
        ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
        assert_eq!((inner.loads, state.stats().not_due), (1, 1));
    }

    #[test]
    fn late_fetch_and_poll_deadlines_saturate() {
        // Late in time, the doubled interval runs past the end.
        for poll in [false, true] {
            let mut state = SchedulerState::new();
            let mut inner = FakeSource::new(0);
            let p = unbounded(1_000);
            ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
            inner.now = u64::MAX - 100;
            let mut source = ScheduledSource::new(&mut inner, &mut state, p);
            if poll {
                source.probe_dir(&dir(0));
            } else {
                source.load_dir(&dir(0));
            }
            assert_eq!(state.interval(&dir(0)), Some(2_000), "poll {poll}");
            assert_eq!(state.next_due(&dir(0)), Some(u64::MAX), "poll {poll}");
        }
    }

    #[test]
    fn a_backed_off_host_returns_to_the_wire_when_its_cool_down_ends() {
        // Tripped at 2 000 for 200 s: held at 2 199, contacted at 2 200
        // and 2 201.
        for (t, held) in [(2_199, true), (2_200, false), (2_201, false)] {
            let mut state = SchedulerState::new();
            let mut inner = FakeSource::new(0);
            let p = SchedulePlan { backoff_base: 200, ..plan() };
            fail_at(&mut inner, &mut state, p, &[1_000, 1_500, 2_000]);
            let loads_before = inner.loads;
            fail_at(&mut inner, &mut state, p, &[t]);
            assert_eq!(inner.loads == loads_before, held, "at {t}");
            assert_eq!(state.stats().backoff_skips, u64::from(held), "at {t}");
        }
    }

    #[test]
    fn backed_off_probe_counts_a_backoff_skip_not_a_not_due() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        let p = SchedulePlan { backoff_base: 200, ..plan() };
        ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
        fail_at(&mut inner, &mut state, p, &[1_000, 1_500, 2_000]);
        assert!(state.host_backing_off("h", 2_100));
        // A probe-mode walk asks for the marker first: the tripped
        // breaker answers it from the snapshot, off the wire, and books
        // the visit as a backoff skip.
        let (probes_before, not_due_before) = (inner.probes, state.stats().not_due);
        inner.now = 2_100;
        let probe = ScheduledSource::new(&mut inner, &mut state, p).probe_dir(&dir(0));
        assert!(probe.is_some_and(|probe| probe.listed && probe.digest.is_some()));
        assert_eq!(inner.probes, probes_before);
        assert_eq!(state.stats().backoff_skips, 1);
        assert_eq!(state.last_run().backoff_skips, 1);
        assert_eq!(state.stats().not_due, not_due_before);
    }

    #[test]
    fn cumulative_stats_are_the_sum_of_the_runs() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        inner.load_secs = 4;
        let p = SchedulePlan { time_budget: Some(4), backoff_base: 200, ..plan() };
        // (now, up, version, points): first contacts, not-due visits,
        // confirming polls, a change whose fetch spends the budget and
        // defers the rest, three failures (one a run, the budget defers
        // the rest) that trip backoff, and backoff skips that meet an
        // untracked point.
        let runs = [
            (0, true, 1, 3),
            (50, true, 1, 3),
            (5_000, true, 1, 3),
            (10_000, true, 2, 3),
            (20_000, false, 2, 3),
            (20_300, false, 2, 3),
            (20_600, false, 2, 3),
            (20_700, false, 2, 4),
        ];
        let mut sum = SchedulerStats::default();
        for (now, up, version, points) in runs {
            (inner.now, inner.up, inner.version) = (now, up, version);
            let mut src = ScheduledSource::new(&mut inner, &mut state, p);
            for n in 0..points {
                src.probe_dir(&dir(n));
                src.load_dir(&dir(n));
            }
            let run = state.last_run();
            sum.due += run.due;
            sum.not_due += run.not_due;
            sum.fetched += run.fetched;
            sum.polled += run.polled;
            sum.deferred += run.deferred;
            sum.backoff_skips += run.backoff_skips;
            sum.frames_charged += run.frames_used;
            sum.time_charged += run.time_used;
        }
        for (what, count) in [
            ("fetched", sum.fetched),
            ("polled", sum.polled),
            ("not due", sum.not_due),
            ("deferred", sum.deferred),
            ("backoff skips", sum.backoff_skips),
        ] {
            assert!(count > 0, "no {what} visits: {sum:?}");
        }
        // The counters no run keeps are the state's own.
        let total = state.stats();
        let expected = SchedulerStats {
            runs: runs.len() as u64,
            backoff_trips: total.backoff_trips,
            changes_observed: total.changes_observed,
            unchanged_polls: total.unchanged_polls,
            ..sum
        };
        assert_eq!(total, expected);
    }

    #[test]
    fn degenerate_plan_delegates_everything() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        let p = SchedulePlan::degenerate();
        for run in 0..5u64 {
            inner.now = run * 7;
            let mut src = ScheduledSource::new(&mut inner, &mut state, p);
            src.probe_dir(&dir(0));
            src.load_dir(&dir(0));
        }
        assert_eq!(inner.loads, 5, "every run must reach the wire");
        assert_eq!(inner.probes, 5);
        assert_eq!(state.stats().not_due, 0);
        assert_eq!(state.stats().deferred, 0);
    }

    #[test]
    fn not_due_probe_replays_marker_digest() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        let p = plan();
        let marker = {
            let mut src = ScheduledSource::new(&mut inner, &mut state, p);
            src.load_dir(&dir(0)).content_digest()
        };
        inner.now = 10;
        let probes_before = inner.probes;
        let probe = {
            let mut src = ScheduledSource::new(&mut inner, &mut state, p);
            src.probe_dir(&dir(0)).unwrap()
        };
        assert_eq!(inner.probes, probes_before, "not-due probe is answered locally");
        assert!(probe.listed);
        assert_eq!(probe.digest, marker);
    }

    #[test]
    fn due_probe_confirming_unchanged_reschedules() {
        let mut state = SchedulerState::new();
        let mut inner = FakeSource::new(0);
        let p = plan();
        ScheduledSource::new(&mut inner, &mut state, p).load_dir(&dir(0));
        inner.now = state.next_due(&dir(0)).unwrap();
        {
            let mut src = ScheduledSource::new(&mut inner, &mut state, p);
            let probe = src.probe_dir(&dir(0)).unwrap();
            assert!(probe.listed);
        }
        assert_eq!(state.stats().unchanged_polls, 1);
        assert!(state.next_due(&dir(0)).unwrap() > inner.now, "the poll rescheduled the point");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = SchedulePlan { jitter: 300, ..SchedulePlan::default() };
        let a = p.jitter_for(&dir(1));
        let b = p.jitter_for(&dir(2));
        assert!(a < 300 && b < 300);
        assert_eq!(a, p.jitter_for(&dir(1)), "same seed, same point, same offset");
        let other = SchedulePlan { seed: 99, ..p };
        // Different seeds de-correlate (overwhelmingly likely to
        // differ for at least one of two points).
        assert!(a != other.jitter_for(&dir(1)) || b != other.jitter_for(&dir(2)));
    }

    /// FNV-1a over a byte string: the oracle for the streamed hash.
    fn fnv1a(bytes: &[u8]) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x100_0000_01b3);
        }
        hash
    }

    fn arb_name() -> impl Strategy<Value = String> {
        const CHARS: &[u8] = b"az-.09_";
        proptest::collection::vec(0..CHARS.len(), 1..12)
            .prop_map(|ix| ix.into_iter().map(|i| char::from(CHARS[i])).collect())
    }

    proptest! {
        /// The jitter hashes a point's display form as it is formatted,
        /// to the same offset as hashing the formatted string.
        #[test]
        fn jitter_is_the_hash_of_the_display_form(
            host in arb_name(),
            path in proptest::collection::vec(arb_name(), 0..5),
            seed in any::<u64>(),
            jitter in 1u64..100_000,
        ) {
            let path: Vec<&str> = path.iter().map(String::as_str).collect();
            let dir = RepoUri::new(&host, &path);
            let plan = SchedulePlan { seed, jitter, ..SchedulePlan::default() };
            let oracle = splitmix64(seed ^ fnv1a(dir.to_string().as_bytes())) % jitter;
            prop_assert_eq!(plan.jitter_for(&dir), oracle);
        }
    }
}
