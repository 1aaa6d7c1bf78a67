//! One entry point for every relying-party configuration.
//!
//! Each relying-party layer the suite models — retries, the stale
//! cache, Suspenders, incremental revalidation, tracing — would widen
//! a positional signature; [`ValidationOptions`] names them instead:
//! callers list the layers they want and [`ValidationOptions::run`]
//! assembles the source stack at a [`VantagePoint`], runs the
//! validator (cold, or incrementally against a persistent
//! [`ValidationState`]), and reports the run (and any Suspenders
//! transitions) through the network's observability recorder.
//! [`World::validate_with`] is that call from the world's own relying
//! party's vantage point, for the Figure 2 model and a synthetic tree
//! alike.
//!
//! ```
//! use rpki_objects::Moment;
//! use rpki_rp::ResilientState;
//! use rpki_risk::{Fetch, ValidationOptions, World, MODEL_SEED};
//!
//! let mut w = World::model(MODEL_SEED);
//! // The bare networked relying party:
//! let bare = w.validate_with(ValidationOptions::at(Moment(2)));
//! // The full resilience stack:
//! let mut state = ResilientState::default();
//! let run = w.validate_with(
//!     ValidationOptions::at(Moment(3))
//!         .fetch(Fetch::Retry)
//!         .stale_cache(&mut state),
//! );
//! assert_eq!(bare.vrps, run.vrps);
//! ```
//!
//! [`World::validate_direct`] (a perfect-transport probe, `&self`)
//! remains as the one standalone convenience.

use netsim::{Network, NodeId};
use rpki_objects::{Moment, TrustAnchorLocator};
use rpki_repo::{RepoRegistry, RrdpClientState, SyncPolicy};
use rpki_rp::{
    NetworkSource, ObjectSource, ResilientSource, ResilientState, RrdpSource, SchedulePlan,
    ScheduledSource, SchedulerState, UnsafeVrpPolicy, ValidationConfig, ValidationRun,
    ValidationState, Validator,
};

use crate::fixtures::World;
use crate::suspenders::SuspendersState;

/// Where a relying party stands when it validates: the network it
/// fetches over, the repositories reachable on it, its own node, and
/// the trust anchors it starts from.
#[derive(Debug)]
pub struct VantagePoint<'w> {
    /// The simulated network.
    pub net: &'w mut Network,
    /// The repositories serving on it.
    pub repos: &'w RepoRegistry,
    /// The relying party's node.
    pub node: NodeId,
    /// The trust anchors.
    pub tals: &'w [TrustAnchorLocator],
}

/// How an RRDP-preferring relying party treats what the feed confirms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RrdpMode {
    /// Every successful RRDP sync is cross-checked against an rsync
    /// digest probe, so a publication point replaying a frozen stale
    /// view is detected ([`RrdpClientState::note_pinned`]) and
    /// bypassed.
    Verified,
    /// No freshness cross-check: the relying party believes whatever
    /// the feed confirms — the Stalloris-vulnerable stance the
    /// downgrade scenario measures.
    Trusting,
}

/// How a relying party fetches a publication point: one value holds
/// the transport and its retry behaviour. Every retrying path, RRDP's
/// rsync fallback included, retries under [`SyncPolicy::default`].
#[derive(Debug)]
pub enum Fetch<'a> {
    /// One rsync session per directory, no retries (the default).
    Once,
    /// rsync sessions retried under [`SyncPolicy::default`]: deadlines,
    /// exponential backoff, digest-checked re-fetches.
    Retry,
    /// RRDP first (notification poll, delta chains, snapshot fallback),
    /// keeping per-directory session state in the client state across
    /// runs, with the retrying rsync path as the downgrade target; the
    /// mode says whether the feed's freshness is cross-checked.
    Rrdp(&'a mut RrdpClientState, RrdpMode),
}

/// Which relying-party layers a validation run assembles, built
/// fluently and consumed by [`run`](ValidationOptions::run).
///
/// Defaults to the bare networked relying party: one sync per
/// directory over the simulated (faultable) network, no retries, no
/// cache, no hold-down.
#[derive(Debug)]
pub struct ValidationOptions<'a> {
    now: Moment,
    fetch: Fetch<'a>,
    stale_cache: Option<&'a mut ResilientState>,
    suspenders: Option<&'a mut SuspendersState>,
    incremental: Option<&'a mut ValidationState>,
    unsafe_vrps: UnsafeVrpPolicy,
    scheduled: Option<(SchedulePlan, &'a mut SchedulerState)>,
}

impl<'a> ValidationOptions<'a> {
    /// Options for a run at `now` over the simulated network with no
    /// extra layers.
    pub fn at(now: Moment) -> Self {
        ValidationOptions {
            now,
            fetch: Fetch::Once,
            stale_cache: None,
            suspenders: None,
            incremental: None,
            unsafe_vrps: UnsafeVrpPolicy::default(),
            scheduled: None,
        }
    }

    /// Fetches over `fetch` ([`Fetch`]) instead of one bare rsync
    /// session per directory; a later call replaces an earlier one.
    pub fn fetch(mut self, fetch: Fetch<'a>) -> Self {
        self.fetch = fetch;
        self
    }

    /// Fall back to `state`'s last-good snapshots when a directory
    /// cannot be fetched, with circuit breaking; `state` persists
    /// across runs and accumulates snapshots.
    pub fn stale_cache(mut self, state: &'a mut ResilientState) -> Self {
        self.stale_cache = Some(state);
        self
    }

    /// Feed the run through `state`'s Suspenders hold-down after
    /// validation: VRPs that vanish without evidence stay effective
    /// and raise alarms. Transitions are reported through the world's
    /// recorder; read the effective cache from `state` afterwards.
    pub fn suspenders(mut self, state: &'a mut SuspendersState) -> Self {
        self.suspenders = Some(state);
        self
    }

    /// Revalidate incrementally against `state`'s per-CA memo cache:
    /// unchanged publication points replay their cached subtree instead
    /// of being re-walked, the output stays byte-identical to a cold
    /// run, and `state` carries the VRP delta against the previous run
    /// (feed it to an RTR server via
    /// [`RtrServer::publish`](rpki_rp::RtrServer::publish)).
    /// `state` persists across runs; its
    /// [stats](ValidationState::stats) are emitted through the world's
    /// recorder after each run.
    pub fn incremental(mut self, state: &'a mut ValidationState) -> Self {
        self.incremental = Some(state);
        self
    }

    /// What to do with *unsafe* VRPs — payloads whose prefix overlaps
    /// the resources of a CA the walk rejected. The default
    /// ([`UnsafeVrpPolicy::Accept`]) skips the analysis;
    /// [`Warn`](UnsafeVrpPolicy::Warn) flags them in
    /// [`ValidationRun::unsafe_vrps`](rpki_rp::ValidationRun), and
    /// [`Reject`](UnsafeVrpPolicy::Reject) additionally drops them
    /// from the validated set.
    pub fn unsafe_vrps(mut self, policy: UnsafeVrpPolicy) -> Self {
        self.unsafe_vrps = policy;
        self
    }

    /// Drive fetching through `plan`'s notification-cadence scheduler:
    /// publication points whose refresh deadline has not arrived replay
    /// their scheduled snapshot instead of being re-fetched, hosts in
    /// breaker cooldown inherit exponential backoff, and a per-run
    /// time budget defers the remainder of the sweep. `state`
    /// persists cadence estimates and snapshots across runs; a
    /// [`SchedulePlan::degenerate`] plan makes the run byte-identical
    /// to the unscheduled sweep. When combined with
    /// [`Fetch::Rrdp`], the plan's
    /// [`rrdp_fallback_time`](SchedulePlan::rrdp_fallback_time) gates
    /// the rsync downgrade on unreachability (routinator-style timed
    /// fallback). The scheduler stacks *outside* the stale cache, so
    /// cooldown and snapshot fallback still apply to the fetches it
    /// does admit.
    pub fn scheduled(mut self, plan: SchedulePlan, state: &'a mut SchedulerState) -> Self {
        self.scheduled = Some((plan, state));
        self
    }

    /// Runs one validation from `at` with the selected layers, emitting
    /// the run summary (and any Suspenders transitions) through the
    /// network's recorder.
    pub fn run(self, at: VantagePoint<'_>) -> ValidationRun {
        let VantagePoint { net, repos, node, tals } = at;
        let ValidationOptions {
            now,
            fetch,
            stale_cache,
            suspenders,
            mut incremental,
            unsafe_vrps,
            scheduled,
        } = self;
        let rec = net.recorder();

        // The source stack, innermost layer first. Each layer wraps
        // the one before it, so the order below is the nesting order.
        let (mut network, mut rrdp_source, mut resilient, mut schedule);
        let mut source: &mut dyn ObjectSource = match fetch {
            Fetch::Rrdp(state, mode) => {
                let mut s = RrdpSource::new(net, repos, node, state, SyncPolicy::default());
                if mode == RrdpMode::Trusting {
                    s = s.trusting();
                }
                if let Some(window) = scheduled.as_ref().and_then(|(p, _)| p.rrdp_fallback_time) {
                    s = s.fallback_after(window);
                }
                rrdp_source = s;
                &mut rrdp_source
            }
            Fetch::Once => {
                network = NetworkSource::new(net, repos, node);
                &mut network
            }
            Fetch::Retry => {
                network = NetworkSource::retrying(net, repos, node);
                &mut network
            }
        };
        if let Some(state) = stale_cache {
            state.set_recorder(rec.clone());
            resilient = ResilientSource::new(source, state);
            source = &mut resilient;
        }
        // The scheduler wraps *outermost*: a not-due directory is
        // answered from the schedule snapshot before the stale cache or
        // transport is consulted, and a fetch it admits still enjoys
        // the full resilience stack underneath.
        if let Some((plan, state)) = scheduled {
            state.set_recorder(rec.clone());
            schedule = ScheduledSource::new(source, state, plan);
            source = &mut schedule;
        }

        let validator = Validator::new(ValidationConfig::at(now).with_unsafe_policy(unsafe_vrps));
        let run = match incremental.as_deref_mut() {
            Some(inc) => validator.run_incremental(source, tals, inc),
            None => validator.run(source, tals),
        };
        run.emit(&rec, now.0);
        if let Some(state) = incremental {
            state.stats().emit(&rec, now.0);
        }
        if let Some(susp) = suspenders {
            let events = susp.ingest(&run, now);
            if rec.is_enabled() {
                for event in &events {
                    rec.count(&format!("suspenders.{}", event.label()), 1);
                    rec.event(now.0, "suspenders", event.label())
                        .str("vrp", &event.vrp().to_string())
                        .emit();
                }
            }
        }
        run
    }
}

impl World {
    /// Runs one validation from the world's relying party with the
    /// layers selected in `opts` ([`ValidationOptions::run`]).
    pub fn validate_with(&mut self, opts: ValidationOptions<'_>) -> ValidationRun {
        opts.run(VantagePoint {
            net: &mut self.net,
            repos: &self.repos,
            node: self.rp_node,
            tals: std::slice::from_ref(&self.tal),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{ca, MODEL_SEED};
    use crate::suspenders::SuspendersConfig;
    use rpki_obs::Recorder;

    #[test]
    fn incremental_network_run_matches_cold_run() {
        // Same seed, one cold world and one incremental world: the
        // first incremental run (all misses) must be byte-identical to
        // the cold run — same network traffic, same output.
        let mut cold = World::model(5);
        let mut warm = World::model(5);
        let mut state = ValidationState::full();
        let a = cold.validate_with(ValidationOptions::at(Moment(2)));
        let b = warm.validate_with(ValidationOptions::at(Moment(2)).incremental(&mut state));
        assert_eq!(a, b);
        assert_eq!(state.stats().subtrees_rewalked, 4);
        assert_eq!(state.stats().subtrees_reused, 0);
        // Everything announced, nothing withdrawn on the first run.
        assert_eq!(state.last_delta().announce.len(), 8);
        assert!(state.last_delta().withdraw.is_empty());
    }

    #[test]
    fn incremental_rerun_reuses_subtrees_and_yields_delta() {
        let mut w = World::model(5);
        let mut state = ValidationState::full();
        let first = w.validate_with(ValidationOptions::at(Moment(2)).incremental(&mut state));
        // Nothing republished: every subtree replays from the cache and
        // the delta is empty.
        let quiet = w.validate_with(ValidationOptions::at(Moment(3)).incremental(&mut state));
        assert_eq!(first.vrps, quiet.vrps);
        assert_eq!(state.stats().subtrees_reused, 4);
        assert_eq!(state.stats().subtrees_rewalked, 0);
        assert!(state.last_delta().is_empty());
        // A stealthy withdrawal plus republish dirties the content
        // digests (fresh manifests everywhere), so the walk repeats and
        // the delta carries exactly the vanished VRP.
        let file = w.covering_roa_file();
        w.cas[ca::CONTINENTAL].withdraw(&file).unwrap();
        w.publish_all(Moment(4));
        let rerun = w.validate_with(ValidationOptions::at(Moment(5)).incremental(&mut state));
        assert_eq!(rerun.vrps.len(), 7);
        assert!(state.last_delta().announce.is_empty());
        assert_eq!(state.last_delta().withdraw.len(), 1);
    }

    #[test]
    fn incremental_composes_with_retry_and_stale_cache() {
        let mut a = World::model(5);
        let mut b = World::model(5);
        let mut resilient = ResilientState::default();
        let mut state = ValidationState::full();
        let cold = a.validate_with(
            ValidationOptions::at(Moment(2)).fetch(Fetch::Retry).stale_cache(&mut resilient),
        );
        let mut resilient_b = ResilientState::default();
        let warm = b.validate_with(
            ValidationOptions::at(Moment(2))
                .fetch(Fetch::Retry)
                .stale_cache(&mut resilient_b)
                .incremental(&mut state),
        );
        assert_eq!(cold, warm);
        assert_eq!(resilient.snapshot_count(), resilient_b.snapshot_count());
    }

    #[test]
    fn suspenders_layer_ingests_and_traces() {
        let mut w = World::model(MODEL_SEED);
        let rec = Recorder::new();
        w.net.set_recorder(rec.clone());
        let mut susp = SuspendersState::new(SuspendersConfig::default());
        w.validate_with(ValidationOptions::at(Moment(2)).suspenders(&mut susp));
        assert_eq!(susp.len(), 8);
        // Stealthy withdrawal: the hold-down keeps the VRP effective
        // and the transition lands in the trace.
        let file = w.covering_roa_file();
        w.cas[ca::CONTINENTAL].withdraw(&file).unwrap();
        w.publish_all(Moment(3));
        w.validate_with(ValidationOptions::at(Moment(4)).suspenders(&mut susp));
        assert_eq!(susp.len(), 8);
        assert_eq!(susp.held().len(), 1);
        assert_eq!(rec.metrics().counter("suspenders.held_suspicious"), 1);
        assert!(rec
            .events()
            .iter()
            .any(|e| e.layer == "suspenders" && e.kind == "held_suspicious" && e.at == 4));
    }

    #[test]
    fn rrdp_run_matches_cold_network_run() {
        let mut cold = World::model(5);
        let mut warm = World::model(5);
        let mut state = RrdpClientState::new();
        let a = cold.validate_with(ValidationOptions::at(Moment(2)));
        let b = warm.validate_with(
            ValidationOptions::at(Moment(2)).fetch(Fetch::Rrdp(&mut state, RrdpMode::Verified)),
        );
        assert_eq!(a, b, "RRDP-sourced output must equal the rsync cold walk");
        assert_eq!(state.stats().snapshot_syncs, 5, "first contact snapshots every pub point");
        assert_eq!(state.stats().downgrades, 0);
        // A quiet re-run is all fast-path confirmations, same output.
        let c = warm.validate_with(
            ValidationOptions::at(Moment(3)).fetch(Fetch::Rrdp(&mut state, RrdpMode::Verified)),
        );
        assert_eq!(a.vrps, c.vrps);
        assert_eq!(state.stats().unchanged, 5);
    }

    #[test]
    fn rrdp_run_survives_an_offline_rrdp_endpoint() {
        let mut w = World::model(5);
        let baseline = w.validate_with(ValidationOptions::at(Moment(2)));
        for host in ["rpki.arin.example", "rpki.sprint.example", "rpki.continental.example"] {
            if let Some(repo) = w.repos.by_host_mut(host) {
                repo.set_rrdp_offline(true);
            }
        }
        let mut state = RrdpClientState::new();
        let run = w.validate_with(
            ValidationOptions::at(Moment(3)).fetch(Fetch::Rrdp(&mut state, RrdpMode::Verified)),
        );
        assert_eq!(run.vrps, baseline.vrps, "the rsync fallback must keep the RP whole");
        assert!(state.stats().downgrades > 0);
    }

    #[test]
    fn trusting_rrdp_stays_pinned_while_verified_recovers() {
        let mut trusting_world = World::model(9);
        let mut verified_world = World::model(9);
        let mut trusting = RrdpClientState::new();
        let mut verified = RrdpClientState::new();
        trusting_world.validate_with(
            ValidationOptions::at(Moment(2)).fetch(Fetch::Rrdp(&mut trusting, RrdpMode::Trusting)),
        );
        verified_world.validate_with(
            ValidationOptions::at(Moment(2)).fetch(Fetch::Rrdp(&mut verified, RrdpMode::Verified)),
        );
        // The CONTINENTAL host pins its feed, then whacks the covering
        // ROA (the paper's stealthy delete).
        for w in [&mut trusting_world, &mut verified_world] {
            w.repos.by_host_mut("rpki.continental.example").unwrap().rrdp_pin();
            let file = w.covering_roa_file();
            w.cas[ca::CONTINENTAL].withdraw(&file).unwrap();
            w.publish_all(Moment(3));
        }
        let t = trusting_world.validate_with(
            ValidationOptions::at(Moment(4)).fetch(Fetch::Rrdp(&mut trusting, RrdpMode::Trusting)),
        );
        let v = verified_world.validate_with(
            ValidationOptions::at(Moment(4)).fetch(Fetch::Rrdp(&mut verified, RrdpMode::Verified)),
        );
        assert_eq!(t.vrps.len(), 8, "the trusting RP still sees the whacked ROA");
        assert_eq!(v.vrps.len(), 7, "the verified RP sees the truth via the downgrade");
        assert!(verified.stats().pinned_detected > 0);
        assert_eq!(trusting.stats().pinned_detected, 0);
    }

    #[test]
    fn scheduled_degenerate_matches_sweep_and_rerun_is_zero_frames() {
        let mut plain = World::model(5);
        let mut degen = World::model(5);
        let mut sched = World::model(5);
        let a = plain.validate_with(ValidationOptions::at(Moment(2)));
        // Degenerate plan: byte-identical output, identical traffic.
        let mut dstate = SchedulerState::new();
        let d = degen.validate_with(
            ValidationOptions::at(Moment(2)).scheduled(SchedulePlan::degenerate(), &mut dstate),
        );
        assert_eq!(a, d);
        assert_eq!(plain.net.stats().sent, degen.net.stats().sent);
        // A real plan: the first run fetches every point; an immediate
        // re-run finds nothing due and costs zero frames.
        let mut state = SchedulerState::new();
        let plan = SchedulePlan::default();
        let first =
            sched.validate_with(ValidationOptions::at(Moment(2)).scheduled(plan, &mut state));
        assert_eq!(first.vrps, a.vrps);
        let before = sched.net.stats().sent;
        let again =
            sched.validate_with(ValidationOptions::at(Moment(3)).scheduled(plan, &mut state));
        assert_eq!(again.vrps, a.vrps);
        assert_eq!(sched.net.stats().sent, before, "not-due points must cost zero frames");
        assert_eq!(state.last_run().fetched, 0);
        assert!(state.last_run().not_due > 0);
    }

    /// The builder serves every world, not one: the same four-layer
    /// chain yields what the bare relying party sees, on the model and
    /// on a synthetic tree alike, first contact and quiet re-run both.
    #[test]
    fn one_chain_matches_the_bare_walk_on_every_world() {
        fn chain<'a>(
            now: Moment,
            (rrdp, sched, inc): &'a mut (RrdpClientState, SchedulerState, ValidationState),
        ) -> ValidationOptions<'a> {
            ValidationOptions::at(now)
                .fetch(Fetch::Rrdp(rrdp, RrdpMode::Verified))
                .scheduled(SchedulePlan::degenerate(), sched)
                .incremental(inc)
        }
        let fresh = || (RrdpClientState::new(), SchedulerState::new(), ValidationState::probe());

        let mut model = World::model(7);
        let mut state = fresh();
        for t in [2, 3] {
            let direct = model.validate_direct(Moment(t));
            assert_eq!(model.validate_with(chain(Moment(t), &mut state)), direct);
        }
        assert_eq!(state.2.stats().subtrees_reused, 4, "the quiet re-run replays the memo");

        let mut tree = World::tree(7, 2, 3, 2);
        let mut state = fresh();
        for t in [2, 3] {
            let bare = tree.validate_with(ValidationOptions::at(Moment(t)));
            assert_eq!(bare.vrps.len(), tree.roa_count());
            assert_eq!(tree.validate_with(chain(Moment(t), &mut state)), bare);
        }
        assert_eq!(state.2.stats().subtrees_reused as usize, tree.publication_points());
    }

    #[test]
    fn scheduled_composes_with_rrdp_and_gates_fallback() {
        let mut w = World::model(5);
        let baseline = w.validate_with(ValidationOptions::at(Moment(2)));
        w.repos.by_host_mut("rpki.continental.example").unwrap().set_rrdp_offline(true);
        let mut rrdp = RrdpClientState::new();
        let mut state = SchedulerState::new();
        let plan = SchedulePlan { min_refresh: 0, max_refresh: 0, jitter: 0, ..Default::default() };
        // Inside the fallback window the RP defers the rsync downgrade
        // and reports the point unreachable rather than silently
        // switching transports.
        let run = w.validate_with(
            ValidationOptions::at(Moment(3))
                .fetch(Fetch::Rrdp(&mut rrdp, RrdpMode::Verified))
                .scheduled(plan, &mut state),
        );
        assert!(run.vrps.len() < baseline.vrps.len());
        assert!(rrdp.stats().fallback_deferrals > 0);
        assert_eq!(rrdp.stats().downgrades, 0);
        // Past the window the deferred point downgrades to rsync and
        // the RP is whole again.
        w.net.advance_to(w.net.now() + 4_000);
        let run = w.validate_with(
            ValidationOptions::at(Moment(4))
                .fetch(Fetch::Rrdp(&mut rrdp, RrdpMode::Verified))
                .scheduled(plan, &mut state),
        );
        assert_eq!(run.vrps, baseline.vrps);
        assert!(rrdp.stats().fallback_switches > 0);
        assert!(rrdp.stats().downgrades > 0);
    }
}
