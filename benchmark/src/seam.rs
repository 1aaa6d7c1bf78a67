//! The seam: every call the benchmark makes into the repo's crates.
//!
//! No other file of the benchmark names a foreign type or function.
//! The list below is therefore the compatibility contract the
//! ROADMAP's refactor items (one `Campaign`, one source stack,
//! `RtrFabric` → `RtrServer`) must keep compiling — by re-export if
//! need be — until a later `benchmark` issue migrates this file.
//!
//! Foreign symbols used:
//!
//! - `topogen`: `Config::planet`, `SyntheticInternet::{generate,
//!   materialize}` and its fields `cas`, `orgs`, `topology`,
//!   `announcements`; `Org` fields `kind`, `asn`, `prefixes`, `parent`,
//!   `ca`, `adopted_roa`; `OrgKind::Stub`; `ParentRef::Org`.
//! - `rpki-ca`: `ChurnConfig` (all five fields), `ChurnEngine::{new,
//!   step_with}`, `ChurnReport` field `touched`; `CertAuthority::{set_refresh_interval, sia,
//!   public_key, issued_roas, issue_roa, withdraw,
//!   publication_snapshot}`; `PublicationSnapshot`.
//! - `rpki-objects`: `Moment`, `Span::days`, `RoaPrefix::{exact,
//!   effective_max_len}` and field `prefix`, `Roa::{data, file_name}`,
//!   `RoaData` fields `asn`, `prefixes`, `RepoUri::host`,
//!   `TrustAnchorLocator`, `RpkiObject`, `Encode::to_bytes`,
//!   `Decode::from_bytes`.
//! - `rpki-repo`: `RepoRegistry::{new, by_host, by_host_mut, iter}`,
//!   `Repository::{publish_snapshot, set_pubd_policy, pubd_work_total,
//!   served_total, directories, list, fetch, node}`, `PubdPolicy::{compacted,
//!   with_retention}`, `RetentionPolicy::Count`, `PubdWork` fields
//!   `snapshot_builds`, `snapshot_bytes_built`, `deltas_evicted`;
//!   `DirLoad` fields `frames`, `bytes`; `RrdpClientState::{new,
//!   stats}`, `RrdpStats` fields `delta_syncs`, `snapshot_syncs`,
//!   `failures`; `SyncPolicy::default`.
//! - `rpki-rp`: `Validator::{new, run, run_incremental, run_sharded}`,
//!   `ValidationConfig::at`, `ValidationRun` field `vrps`,
//!   `ValidationState::{probe, stats, last_delta}`, `RevalidationStats`
//!   fields `subtrees_reused`, `subtrees_rewalked`; `VrpDelta::between`
//!   and fields `announce`, `withdraw`; `NetworkSource::new`,
//!   `DirectSource::new`, `RrdpSource::{new, trusting}`,
//!   `ScheduledSource::new`, `SchedulePlan` (fields `min_refresh`,
//!   `max_refresh`, `jitter`, `Default`), `SchedulerState::{new,
//!   stats}`, `SchedulerStats` fields `due`, `not_due`, `fetched`;
//!   `ShardPlan::new`, `ShardStats::model_speedup` and fields `steals`,
//!   `critical_path_ns`; `RtrFabric::{new, attach, publish, server,
//!   stats}`, `RtrServer::{vrps, serial}`, `FabricStats` fields
//!   `queries_handled`, `resets_served`, `frames_rejected`, `Relay::{new, add_feed, attach, republish, target}`,
//!   `MergePolicy::Union`, `SlurmFile::empty`, `RtrRouter::{new, poll,
//!   client, vrps}`, `RtrClient::{serial, cache}`, `RtrEndpoint`,
//!   `pump_until`, `VrpUpdate::{Snapshot, Delta}`, `Vrp` (fields and
//!   `new`), `VrpCache::{classify, covering_for_each, len}`, `Route::new`,
//!   `RouteValidity`.
//! - `bgp-sim`: `propagate_with_stats`, `Announcement`, `RpkiPolicy::
//!   DropInvalid`, `RoutingState::best_route`, `ConvergenceStats` fields
//!   `route_updates`, `memo_hits`, `memo_misses`, `peak_worklist`;
//!   `Topology::{ases, providers}`.
//! - `netsim`: `Network::{new, add_node, now, advance_to,
//!   set_default_latency, set_link_latency, stats, send, step,
//!   set_recorder}`, `Stats`
//!   fields `sent`, `dropped`; `NodeId`, `Delivery`.
//! - `rpki-obs`: `Recorder::{new, disabled, events}`, `TraceEvent`
//!   fields `layer`, `kind`, `fields`; `FieldValue::U64` (frame-size
//!   probe only).
//! - `crypto-sim`: `sha256`, `KeyPair::{from_seed, sign, public}`,
//!   `PublicKey::verify`.
//! - `ipres`: `Asn`, `Prefix` (through `Vrp` and `Announcement`).

use std::collections::{BTreeMap, BTreeSet};
use std::hash::{Hash, Hasher};
use std::hint::black_box;
use std::time::Instant;

use bgp_sim::{propagate_with_stats, Announcement, ConvergenceStats, RoutingState, RpkiPolicy};
use ipres::Asn;
use netsim::{Delivery, Network, NodeId};
use rpki_ca::{ChurnConfig, ChurnEngine};
use rpki_objects::{Decode, Encode, Moment, RoaPrefix, RpkiObject, Span, TrustAnchorLocator};
use rpki_obs::{FieldValue, Recorder};
use rpki_repo::{PubdPolicy, RepoRegistry, RetentionPolicy, RrdpClientState, SyncPolicy};
use rpki_rp::{
    pump_until, DirectSource, MergePolicy, NetworkSource, Relay, Route, RouteValidity, RrdpSource,
    RtrEndpoint, RtrFabric, RtrRouter, SchedulePlan, ScheduledSource, SchedulerState, ShardPlan,
    ShardStats, SlurmFile, ValidationConfig, ValidationRun, ValidationState, Validator, Vrp,
    VrpCache, VrpDelta, VrpUpdate,
};
use rpkisim_crypto::{sha256, KeyPair};
use topogen::{Config, OrgKind, ParentRef, SyntheticInternet};

use crate::oracle::Tally;
use crate::trace::Tracer;
use crate::workload::{RpStack, Spec, CADENCE, LINK_LATENCY};

/// A VRP as plain data, so the oracle can track authority actions
/// without naming the foreign type: (address bits, length, max length,
/// origin AS).
pub type VrpKey = (u128, u8, u8, u32);

fn key_of(v: &Vrp) -> VrpKey {
    (v.prefix.addr().value(), v.prefix.len(), v.max_len, v.asn.0)
}

/// Simulated seconds an RTR exchange may take before the pump gives
/// up: notify, query and response are three one-way trips.
const RTR_WINDOW: u64 = 8 * LINK_LATENCY;

/// Delta history the RTR caches keep; persistent routers follow every
/// serial, so they never fall off it.
const RTR_HISTORY: usize = 16;

/// The pubd policy every host runs: materialise every 8 serials, keep
/// 32 deltas.
const PUBD_COMPACTION: u64 = 8;
const PUBD_DELTAS: usize = 32;

/// Quiet publication points decay to one visit per this many rounds.
const MAX_REFRESH_ROUNDS: u64 = 4;

/// `SyntheticInternet::cas[0]` is IANA, `cas[1..=5]` the RIRs.
const RIR_COUNT: usize = 5;

/// Cumulative counters read from the crates' public stats structs.
/// Per-round values are differences of two snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// `netsim::Stats::sent`.
    pub frames_sent: u64,
    /// `netsim::Stats::dropped`.
    pub frames_dropped: u64,
    /// `PubdWork::snapshot_builds`, summed over hosts.
    pub snapshot_builds: u64,
    /// `PubdWork::snapshot_bytes_built`, summed over hosts.
    pub snapshot_bytes_built: u64,
    /// `PubdWork::deltas_evicted`, summed over hosts.
    pub deltas_evicted: u64,
    /// `DirLoad::bytes` served, summed over hosts (rsync and RRDP).
    pub served_bytes: u64,
    /// `DirLoad::frames` served, summed over hosts.
    pub served_frames: u64,
    /// `RrdpStats::delta_syncs`.
    pub rrdp_delta_syncs: u64,
    /// `RrdpStats::snapshot_syncs`.
    pub rrdp_snapshot_syncs: u64,
    /// `RrdpStats::failures`.
    pub rrdp_failures: u64,
    /// `SchedulerStats::due`.
    pub sched_due: u64,
    /// `SchedulerStats::not_due`.
    pub sched_not_due: u64,
    /// `SchedulerStats::fetched`.
    pub sched_fetched: u64,
    /// `FabricStats::queries_handled`, cache plus relay.
    pub rtr_queries: u64,
    /// `FabricStats::resets_served`, cache plus relay.
    pub rtr_resets_served: u64,
    /// `FabricStats::frames_rejected`, cache plus relay.
    pub rtr_frames_rejected: u64,
}

/// Per-run (not cumulative) figures of the latest round's stages.
#[derive(Debug, Clone, Copy, Default)]
pub struct RoundFigures {
    /// `RevalidationStats::subtrees_reused` of the latest walk.
    pub memo_reused: u64,
    /// `RevalidationStats::subtrees_rewalked` of the latest walk.
    pub memo_rewalked: u64,
    /// `ShardStats::steals` of the latest sharded walk.
    pub shard_steals: u64,
    /// `ShardStats::critical_path_ns` of the latest sharded walk.
    pub shard_critical_path_ns: u64,
    /// `ShardStats::model_speedup` of the latest sharded walk (0 when
    /// the workload does not shard).
    pub shard_model_speedup: f64,
    /// VRPs announced plus withdrawn by the latest delta.
    pub delta_changed_vrps: u64,
    /// Routes classified by the latest origin-validation pass.
    pub ov_routes_classified: u64,
    /// Routes whose RFC 6811 state flipped.
    pub ov_flips: u64,
    /// `ConvergenceStats::route_updates` of the latest propagation.
    pub route_updates: u64,
    /// `ConvergenceStats::memo_hits`.
    pub bgp_memo_hits: u64,
    /// `ConvergenceStats::memo_misses`.
    pub bgp_memo_misses: u64,
    /// `ConvergenceStats::peak_worklist`.
    pub bgp_peak_worklist: u64,
}

/// An `RtrRouter` that notes the simulated instant its serial last
/// moved — the "router's VRP set reflects it" clock reading, taken
/// from outside through the public `RtrEndpoint` trait.
struct ObservedRouter {
    inner: RtrRouter,
    synced_at: u64,
}

impl ObservedRouter {
    fn new(node: NodeId, upstream: NodeId) -> Self {
        ObservedRouter { inner: RtrRouter::new(node, upstream), synced_at: 0 }
    }
}

impl RtrEndpoint for ObservedRouter {
    fn node(&self) -> NodeId {
        self.inner.node()
    }

    fn deliver(&mut self, net: &mut Network, delivery: &Delivery) {
        let before = self.inner.client().serial();
        self.inner.deliver(net, delivery);
        if self.inner.client().serial() != before {
            self.synced_at = net.now();
        }
    }
}

/// The whack adversary: a seeded order over the eligible victims,
/// consumed `whacks` at a time.
struct Adversary {
    /// Org indices of customers whose provider holds a covering ROA.
    order: Vec<usize>,
    seed: u64,
    cursor: usize,
    /// Victims whacked last round, restored this round.
    whacked: Vec<usize>,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One world chaining every layer, from the CAs to the BGP engine.
pub struct World {
    spec: Spec,
    internet: SyntheticInternet,
    net: Network,
    repos: RepoRegistry,
    tal: TrustAnchorLocator,
    rp_node: NodeId,
    engine: ChurnEngine,
    adversary: Adversary,
    rrdp: RrdpClientState,
    memo: ValidationState,
    sched: SchedulerState,
    plan: SchedulePlan,
    shards: usize,
    run: ValidationRun,
    shard_stats: ShardStats,
    delta: VrpDelta,
    fabric: RtrFabric,
    relay: Relay,
    relay_node: NodeId,
    routers: Vec<ObservedRouter>,
    ov_cache: VrpCache,
    validity: Vec<RouteValidity>,
    flipped: Vec<usize>,
    routing: RoutingState,
    convergence: ConvergenceStats,
    classified: u64,
    /// Ground truth: the VRPs each CA's issued ROAs assert, and how
    /// many CAs assert each.
    truth_by_ca: Vec<Vec<Vrp>>,
    truth_count: BTreeMap<Vrp, u32>,
    round_start: u64,
    frame_recorder: Recorder,
}

fn vrps_asserted_by(ca: &rpki_ca::CertAuthority) -> Vec<Vrp> {
    let mut out: Vec<Vrp> = ca
        .issued_roas()
        .flat_map(|roa| {
            let asn = roa.data().asn;
            roa.data()
                .prefixes
                .iter()
                .map(move |rp| Vrp::new(rp.prefix, rp.effective_max_len(), asn))
                .collect::<Vec<_>>()
        })
        .collect();
    out.sort();
    out
}

impl World {
    /// Generates and materialises the world of `spec` from `seed`. The
    /// two spans are the `topogen.*` per-layer metrics. Leaves the
    /// clock at the first round's start; nothing has been fetched yet.
    pub fn build(spec: Spec, seed: u64, tr: &mut Tracer) -> World {
        let t = tr.enter("topogen.generate");
        let mut internet = SyntheticInternet::generate(Config::planet(seed, spec.stubs));
        tr.exit(t);

        // The run spans weeks of simulated time and the scheduler
        // leaves quiet points unfetched for several rounds: stretch the
        // one-day manifest/CRL window (as `bench_scheduler` does).
        for ca in &mut internet.cas {
            ca.set_refresh_interval(Span::days(365));
        }
        let mut net = Network::new(seed);
        net.set_default_latency(LINK_LATENCY);
        let mut repos = RepoRegistry::new();
        let t = tr.enter("topogen.materialize");
        let tal = internet.materialize(&mut net, &mut repos, Moment(1));
        tr.exit(t);

        let policy = PubdPolicy::compacted(PUBD_COMPACTION)
            .with_retention(RetentionPolicy::Count { max_deltas: PUBD_DELTAS });
        let hosts: BTreeSet<String> =
            internet.cas.iter().map(|ca| ca.sia().host().to_owned()).collect();
        let infrastructure: BTreeSet<&str> =
            internet.cas[..=RIR_COUNT].iter().map(|ca| ca.sia().host()).collect();
        let rp_node = net.add_node("relying-party");
        for host in &hosts {
            let repo = repos.by_host_mut(host).expect("materialize created every host");
            repo.set_pubd_policy(policy);
            // The IANA and RIR hosts, which carry most points, sit two
            // link latencies from the relying party; a self-hosting
            // organisation sits one to three, by seed — so the fetch's
            // simulated duration depends a little on which hosts serve
            // how many points, as it does for a real relying party.
            let hops = if infrastructure.contains(host.as_str()) {
                2
            } else {
                1 + splitmix64(seed ^ u64::from(repo.node().0)) % 3
            };
            net.set_link_latency(rp_node, repo.node(), hops * LINK_LATENCY);
            net.set_link_latency(repo.node(), rp_node, hops * LINK_LATENCY);
        }

        let cache_node = net.add_node("rp-rtr-cache");
        let relay_node = net.add_node("rtr-relay");
        let mut fabric = RtrFabric::new(cache_node, 1, RTR_HISTORY);
        fabric.attach(relay_node);
        let mut relay =
            Relay::new(relay_node, MergePolicy::Union, SlurmFile::empty(), 2, RTR_HISTORY);
        relay.add_feed(cache_node);
        let routers: Vec<ObservedRouter> = (0..spec.routers)
            .map(|i| {
                let node = net.add_node(&format!("router-{i}"));
                // A reconnecting router is never notified: it opens
                // every round with its own Reset Query.
                if !spec.routers_reconnect {
                    relay.attach(node);
                }
                ObservedRouter::new(node, relay_node)
            })
            .collect();

        let churn = ChurnConfig {
            renew_per_mille: spec.churn.renew_pm,
            add_per_mille: spec.churn.add_pm,
            withdraw_per_mille: spec.churn.withdraw_pm,
            refresh_every: 0,
            resign_every: 0,
        };
        let plan = SchedulePlan {
            min_refresh: CADENCE,
            max_refresh: MAX_REFRESH_ROUNDS * CADENCE,
            // Every point is first contacted in the same round; the
            // per-point offset (up to a round and a half) gives them
            // different revisit periods, so the cohort drifts apart
            // instead of coming due in lockstep waves. A revisit period
            // of at most 5.5 rounds plus the round's own duration stays
            // clear of the 6-round boundary, which keeps the latency
            // quantiles (multiples of the cadence) off a step edge.
            jitter: 3 * CADENCE / 2,
            seed,
            ..SchedulePlan::default()
        };
        let shards = std::thread::available_parallelism().map_or(1, |n| n.get()).min(4);

        // Eligible whack victims: adopting customers whose provider
        // holds a covering ROA, so a whacked route turns Invalid rather
        // than Unknown (Side Effect 6).
        let mut order: Vec<usize> = (0..internet.orgs.len())
            .filter(|&i| {
                let org = &internet.orgs[i];
                org.kind == OrgKind::Stub
                    && org.adopted_roa
                    && matches!(org.parent, ParentRef::Org(p) if internet.orgs[p].adopted_roa)
            })
            .collect();
        for i in (1..order.len()).rev() {
            let j = (splitmix64(seed ^ ((i as u64) << 20)) % (i as u64 + 1)) as usize;
            order.swap(i, j);
        }
        assert!(
            order.len() >= 2 * (spec.whacks + 4),
            "{} eligible victims cannot feed {} whacks a round",
            order.len(),
            spec.whacks
        );

        let truth_by_ca: Vec<Vec<Vrp>> = internet.cas.iter().map(vrps_asserted_by).collect();
        let mut truth_count = BTreeMap::new();
        for v in truth_by_ca.iter().flatten() {
            *truth_count.entry(*v).or_insert(0) += 1;
        }

        let mut world = World {
            spec,
            internet,
            net,
            repos,
            tal,
            rp_node,
            engine: ChurnEngine::new(seed, churn),
            adversary: Adversary { order, seed, cursor: 0, whacked: Vec::new() },
            rrdp: RrdpClientState::new(),
            memo: ValidationState::probe(),
            sched: SchedulerState::new(),
            plan,
            shards,
            run: ValidationRun::default(),
            shard_stats: ShardStats::default(),
            delta: VrpDelta::default(),
            fabric,
            relay,
            relay_node,
            routers,
            ov_cache: VrpCache::new(),
            validity: Vec::new(),
            flipped: Vec::new(),
            routing: RoutingState::default(),
            convergence: ConvergenceStats::default(),
            classified: 0,
            truth_by_ca,
            truth_count,
            round_start: 0,
            frame_recorder: Recorder::disabled(),
        };
        world.net.advance_to(CADENCE);
        world.round_start = CADENCE;
        world
    }

    // -- the clock ---------------------------------------------------

    /// Starts the next round one cadence after the previous one.
    ///
    /// # Panics
    ///
    /// Panics if the previous round's own simulated duration reached
    /// the cadence, or the run has left the objects' validity window.
    pub fn begin_round(&mut self) {
        let next = self.round_start + CADENCE;
        assert!(
            self.net.now() < next,
            "a round took {} simulated seconds, the cadence is {CADENCE}",
            self.net.now() - self.round_start
        );
        assert!(next < Span::days(365).0, "run left the 365-day validity window");
        self.net.advance_to(next);
        self.round_start = next;
    }

    /// The simulated clock.
    pub fn sim_now(&self) -> u64 {
        self.net.now()
    }

    /// When the current round started.
    pub fn round_start(&self) -> u64 {
        self.round_start
    }

    /// Simulated seconds after which an authority action must have
    /// reached every router: the same round for an unscheduled relying
    /// party, the scheduler's ceiling plus jitter plus one round for a
    /// scheduled one.
    pub fn propagation_limit(&self) -> u64 {
        match self.spec.rp {
            RpStack::ScheduledRrdp => self.plan.max_refresh + self.plan.jitter + CADENCE,
            RpStack::ColdRsyncSharded | RpStack::VerifiedRrdp => CADENCE,
        }
    }

    /// Rounds of quiesce (churn off) after which a scheduled relying
    /// party has revisited every point.
    pub fn quiesce_rounds(&self) -> usize {
        match self.spec.rp {
            RpStack::ScheduledRrdp => (self.propagation_limit() / CADENCE) as usize + 1,
            RpStack::ColdRsyncSharded | RpStack::VerifiedRrdp => 0,
        }
    }

    // -- stages, in pipeline order -----------------------------------

    /// `rpki-ca`: one authority step — a churn-engine step, or the
    /// adversary restoring last round's victims and whacking the next.
    /// Returns the indices of the CAs whose publication point must be
    /// republished.
    pub fn ca_act(&mut self, churn_on: bool) -> Vec<usize> {
        let now = Moment(self.net.now());
        let mut touched = Vec::new();
        if self.spec.churn.is_active() && churn_on {
            touched = self.engine.step_with(self.internet.cas.iter_mut(), now).touched;
        }
        if self.spec.whacks > 0 && churn_on {
            for org_idx in std::mem::take(&mut self.adversary.whacked) {
                let org = &self.internet.orgs[org_idx];
                let roa = vec![RoaPrefix::exact(org.prefixes[0])];
                self.internet.cas[org.ca].issue_roa(org.asn, roa, now).expect("own prefix");
                touched.push(org.ca);
            }
            let n = self.adversary.order.len();
            // The adversary's appetite varies a little round to round:
            // the configured count give or take four, by seed.
            let draw = splitmix64(self.adversary.seed ^ self.adversary.cursor as u64) % 9;
            let whacks = (self.spec.whacks + draw as usize).saturating_sub(4).max(1);
            for k in 0..whacks {
                let org_idx = self.adversary.order[(self.adversary.cursor + k) % n];
                let org = &self.internet.orgs[org_idx];
                let ca = &mut self.internet.cas[org.ca];
                let file = ca.issued_roas().next().expect("victim holds a ROA").file_name();
                ca.withdraw(&file).expect("file just listed");
                touched.push(org.ca);
                self.adversary.whacked.push(org_idx);
            }
            self.adversary.cursor = (self.adversary.cursor + whacks) % n;
        }
        touched
    }

    /// `rpki-ca` + `rpki-repo`: snapshot every touched CA and publish
    /// it into pubd, one child span per call.
    pub fn publish_touched(&mut self, touched: &[usize], tr: &mut Tracer) {
        let now = Moment(self.net.now());
        for &idx in touched {
            let ca = &mut self.internet.cas[idx];
            let t = tr.enter("rpki-ca.snapshot");
            let snapshot = ca.publication_snapshot(now);
            tr.exit(t);
            let sia = ca.sia().clone();
            let t = tr.enter("rpki-repo.publish");
            self.repos
                .by_host_mut(sia.host())
                .expect("materialize created every host")
                .publish_snapshot(&sia, &snapshot);
            tr.exit(t);
        }
    }

    /// `rpki-rp` fetch + walk: one relying-party run over the network.
    pub fn validate(&mut self) {
        let validator = Validator::new(ValidationConfig::at(Moment(self.net.now())));
        let tals = std::slice::from_ref(&self.tal);
        self.run = match self.spec.rp {
            RpStack::ScheduledRrdp => {
                let inner = RrdpSource::new(
                    &mut self.net,
                    &self.repos,
                    self.rp_node,
                    &mut self.rrdp,
                    SyncPolicy::default(),
                )
                .trusting();
                let mut source = ScheduledSource::new(inner, &mut self.sched, self.plan);
                validator.run_incremental(&mut source, tals, &mut self.memo)
            }
            RpStack::VerifiedRrdp => {
                let mut source = RrdpSource::new(
                    &mut self.net,
                    &self.repos,
                    self.rp_node,
                    &mut self.rrdp,
                    SyncPolicy::default(),
                );
                validator.run_incremental(&mut source, tals, &mut self.memo)
            }
            RpStack::ColdRsyncSharded => {
                let mut source = NetworkSource::new(&mut self.net, &self.repos, self.rp_node);
                let (run, stats) =
                    validator.run_sharded(&mut source, tals, ShardPlan::new(self.shards));
                self.shard_stats = stats;
                run
            }
        };
    }

    /// `rpki-rp`: the VRP delta against the previous run. The
    /// incremental walk leaves one behind; the stateless relying party
    /// diffs against what its RTR cache currently serves. Returns the
    /// number of changed VRPs.
    pub fn vrp_delta(&mut self) -> usize {
        self.delta = match self.spec.rp {
            RpStack::ScheduledRrdp | RpStack::VerifiedRrdp => self.memo.last_delta().clone(),
            RpStack::ColdRsyncSharded => {
                VrpDelta::between(&self.fabric.server().vrps(), &self.run.vrps)
            }
        };
        self.delta.announce.len() + self.delta.withdraw.len()
    }

    /// `rpki-rp` RTR: the cache bumps its serial and notifies the
    /// relay. `false` when the delta changed nothing.
    pub fn rtr_publish(&mut self) -> bool {
        self.fabric.publish(&mut self.net, VrpUpdate::Delta(&self.delta))
    }

    /// `rpki-rp` RTR: the relay pulls the delta, merges, and
    /// republishes downstream (notifying the attached routers).
    pub fn rtr_relay(&mut self) {
        let deadline = self.net.now() + RTR_WINDOW;
        pump_until(&mut self.net, deadline, &mut [&mut self.fabric, &mut self.relay]);
        self.relay.republish(&mut self.net);
    }

    /// `rpki-rp` RTR: every router syncs with the relay — by serial
    /// delta when persistent, by Reset Query on a fresh session when
    /// the workload reconnects them.
    pub fn rtr_routers(&mut self) {
        if self.spec.routers_reconnect {
            for router in &mut self.routers {
                *router = ObservedRouter::new(router.inner.node(), self.relay_node);
                router.inner.poll(&mut self.net);
            }
        }
        let deadline = self.net.now() + RTR_WINDOW;
        let mut endpoints: Vec<&mut dyn RtrEndpoint> = Vec::with_capacity(self.routers.len() + 1);
        endpoints.push(&mut self.relay);
        for router in &mut self.routers {
            endpoints.push(router);
        }
        pump_until(&mut self.net, deadline, &mut endpoints);
    }

    /// `rpki-rp` origin validation: the last router (notified last, so
    /// last to converge) rebuilds its queryable cache.
    pub fn vrpcache_build(&mut self) {
        self.ov_cache = self.routers.last().expect("at least one router").inner.client().cache();
    }

    /// `rpki-rp` origin validation: RFC 6811 state of every announced
    /// route; remembers which flipped. Returns the flip count. The
    /// very first pass only sets the baseline: with no earlier decision
    /// nothing has flipped, and the benchmark never holds (or pays for)
    /// a full-table BGP state.
    pub fn ov_classify(&mut self) -> usize {
        self.flipped.clear();
        let baseline = self.validity.is_empty();
        for (i, a) in self.internet.announcements.iter().enumerate() {
            let state = self.ov_cache.classify(Route::new(a.prefix, a.origin));
            if baseline {
                self.validity.push(state);
            } else if state != self.validity[i] {
                self.validity[i] = state;
                self.flipped.push(i);
            }
        }
        self.classified = self.internet.announcements.len() as u64;
        self.flipped.len()
    }

    /// `bgp-sim`: re-propagates every announcement whose state flipped
    /// under `DropInvalid`. Announcements never share a prefix, so the
    /// flipped subset converges exactly as it would inside the full
    /// table.
    pub fn propagate(&mut self) {
        let flipped: Vec<Announcement> =
            self.flipped.iter().map(|&i| self.internet.announcements[i]).collect();
        let (routing, stats) = propagate_with_stats(
            &self.internet.topology,
            &flipped,
            RpkiPolicy::DropInvalid,
            &self.ov_cache,
        )
        .expect("generated topologies have no transit cycle");
        self.routing = routing;
        self.convergence = stats;
    }

    /// Forgets the previous round's per-run figures, so a round that
    /// skips a stage reports zero work for it.
    pub fn clear_round_figures(&mut self) {
        self.flipped.clear();
        self.classified = 0;
        self.convergence = ConvergenceStats::default();
        self.delta = VrpDelta::default();
    }

    // -- observers ---------------------------------------------------

    /// Snapshot of the cumulative public counters.
    pub fn counters(&self) -> Counters {
        let net = self.net.stats();
        let mut c =
            Counters { frames_sent: net.sent, frames_dropped: net.dropped, ..Counters::default() };
        for repo in self.repos.iter() {
            let work = repo.pubd_work_total();
            c.snapshot_builds += work.snapshot_builds;
            c.snapshot_bytes_built += work.snapshot_bytes_built;
            c.deltas_evicted += work.deltas_evicted;
            let load = repo.served_total();
            c.served_bytes += load.bytes;
            c.served_frames += load.frames;
        }
        let rrdp = self.rrdp.stats();
        c.rrdp_delta_syncs = rrdp.delta_syncs;
        c.rrdp_snapshot_syncs = rrdp.snapshot_syncs;
        c.rrdp_failures = rrdp.failures;
        let sched = self.sched.stats();
        c.sched_due = sched.due;
        c.sched_not_due = sched.not_due;
        c.sched_fetched = sched.fetched;
        for stats in [self.fabric.stats(), self.relay.target().stats()] {
            c.rtr_queries += stats.queries_handled;
            c.rtr_resets_served += stats.resets_served;
            c.rtr_frames_rejected += stats.frames_rejected;
        }
        c
    }

    /// Frames handed to the network so far.
    pub fn frames_sent(&self) -> u64 {
        self.net.stats().sent
    }

    /// The latest round's per-run figures.
    pub fn round_figures(&self) -> RoundFigures {
        let memo = match self.spec.rp {
            RpStack::ColdRsyncSharded => Default::default(),
            _ => self.memo.stats(),
        };
        let sharded = self.spec.rp == RpStack::ColdRsyncSharded;
        RoundFigures {
            memo_reused: memo.subtrees_reused,
            memo_rewalked: memo.subtrees_rewalked,
            shard_steals: self.shard_stats.steals,
            shard_critical_path_ns: self.shard_stats.critical_path_ns,
            shard_model_speedup: if sharded { self.shard_stats.model_speedup() } else { 0.0 },
            delta_changed_vrps: (self.delta.announce.len() + self.delta.withdraw.len()) as u64,
            ov_routes_classified: self.classified,
            ov_flips: self.flipped.len() as u64,
            route_updates: self.convergence.route_updates as u64,
            bgp_memo_hits: self.convergence.memo_hits as u64,
            bgp_memo_misses: self.convergence.memo_misses as u64,
            bgp_peak_worklist: self.convergence.peak_worklist as u64,
        }
    }

    /// A digest of the relying party's current VRP set.
    pub fn vrp_digest(&self) -> u64 {
        // `DefaultHasher::new()` is keyed with constants: the digest
        // repeats across processes.
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        self.run.vrps.hash(&mut hasher);
        hasher.finish()
    }

    /// VRPs the relying party currently holds.
    pub fn vrp_count(&self) -> usize {
        self.run.vrps.len()
    }

    /// The simulated instant the last router reached the relay's
    /// current serial, or `None` if some router has not.
    pub fn routers_converged_at(&self) -> Option<u64> {
        let serial = self.relay.target().server().serial();
        self.routers
            .iter()
            .map(|r| (r.inner.client().serial() == serial).then_some(r.synced_at))
            .try_fold(0u64, |latest, at| at.map(|at| latest.max(at)))
    }

    /// The latest delta the relying party computed, as plain keys:
    /// (announced, withdrawn).
    pub fn rp_delta_keys(&self) -> (Vec<VrpKey>, Vec<VrpKey>) {
        (
            self.delta.announce.iter().map(key_of).collect(),
            self.delta.withdraw.iter().map(key_of).collect(),
        )
    }

    /// Ground truth: which VRPs the authorities' step made appear
    /// (`true`) or disappear (`false`), read back from the touched CAs'
    /// issued ROAs. Renewals change no VRP and yield nothing.
    pub fn truth_events(&mut self, touched: &[usize]) -> Vec<(VrpKey, bool)> {
        let mut events = Vec::new();
        for &idx in touched {
            let now = vrps_asserted_by(&self.internet.cas[idx]);
            let before = std::mem::replace(&mut self.truth_by_ca[idx], now.clone());
            for v in &before {
                let count = self.truth_count.get_mut(v).expect("counted when asserted");
                *count -= 1;
                if *count == 0 {
                    self.truth_count.remove(v);
                    events.push((*v, false));
                }
            }
            for v in &now {
                let count = self.truth_count.entry(*v).or_insert(0);
                *count += 1;
                if *count == 1 {
                    events.push((*v, true));
                }
            }
        }
        // A renewal removes and re-adds the same VRP: net nothing.
        let mut net: BTreeMap<Vrp, i32> = BTreeMap::new();
        for (v, appeared) in events {
            *net.entry(v).or_insert(0) += if appeared { 1 } else { -1 };
        }
        net.into_iter().filter(|(_, n)| *n != 0).map(|(v, n)| (key_of(&v), n > 0)).collect()
    }

    // -- the oracle --------------------------------------------------

    /// Every router's VRP set equals the relying party's output: one
    /// check per router.
    pub fn check_routers_match_rp(&self) -> Tally {
        let mut tally = Tally::default();
        for router in &self.routers {
            tally.note(router.inner.vrps().iter().eq(self.run.vrps.iter()));
        }
        tally
    }

    /// The relying party's VRP set equals a cold walk straight over the
    /// at-rest repositories, and both equal the CAs' ground truth.
    pub fn check_against_cold_walk(&self) -> Tally {
        let mut source = DirectSource::new(&self.repos);
        let cold = Validator::new(ValidationConfig::at(Moment(self.net.now())))
            .run(&mut source, std::slice::from_ref(&self.tal));
        let mut tally = Tally::default();
        tally.note(cold.vrps == self.run.vrps);
        tally.note(cold.vrps.iter().eq(self.truth_count.keys()));
        tally
    }

    /// Side Effect 6 at the routers: every route whacked this round is
    /// Invalid and imported by no AS under `DropInvalid` (the origin
    /// keeps its own route: the policy is an import filter); every
    /// route restored this round is Valid again and imported by the
    /// origin's providers.
    pub fn check_whack_routes(&self) -> Tally {
        let mut tally = Tally::default();
        let whacked: BTreeSet<Asn> =
            self.adversary.whacked.iter().map(|&i| self.internet.orgs[i].asn).collect();
        for &i in &self.flipped {
            let a = self.internet.announcements[i];
            if whacked.contains(&a.origin) {
                let unselected =
                    self.internet.topology.ases().all(|asn| {
                        asn == a.origin || self.routing.best_route(asn, a.prefix).is_none()
                    });
                tally.note(self.validity[i] == RouteValidity::Invalid && unselected);
            } else {
                let imported = self
                    .internet
                    .topology
                    .providers(a.origin)
                    .iter()
                    .all(|&p| self.routing.best_route(p, a.prefix).is_some());
                tally.note(self.validity[i] == RouteValidity::Valid && imported);
            }
        }
        // Every victim must have flipped at all.
        let flipped_origins: BTreeSet<Asn> =
            self.flipped.iter().map(|&i| self.internet.announcements[i].origin).collect();
        for asn in &whacked {
            if !flipped_origins.contains(asn) {
                tally.note(false);
            }
        }
        tally
    }

    // -- traced-run extras -------------------------------------------

    /// Wall milliseconds of a sequential `Validator::run` over the same
    /// network source the sharded walk just used, in the same round:
    /// the base of `rpki-rp.shard_wall_speedup`. The relying party
    /// holds no state, so the extra run perturbs nothing but the clock
    /// and the frame counter (read before and after by the caller).
    pub fn sequential_walk_ms(&mut self) -> f64 {
        let validator = Validator::new(ValidationConfig::at(Moment(self.net.now())));
        let mut source = NetworkSource::new(&mut self.net, &self.repos, self.rp_node);
        let start = Instant::now();
        let run = validator.run(&mut source, std::slice::from_ref(&self.tal));
        let ms = start.elapsed().as_secs_f64() * 1e3;
        assert_eq!(run.vrps, self.run.vrps, "sequential walk diverged from the sharded one");
        ms
    }

    /// Attaches a recorder to the network, so the next round's
    /// `net/send` events carry its frame sizes. Used for one extra,
    /// unmeasured round only: a live recorder changes what the program
    /// does.
    pub fn start_frame_recording(&mut self) {
        self.frame_recorder = Recorder::new();
        self.net.set_recorder(self.frame_recorder.clone());
    }

    /// Detaches the recorder and returns the median payload size of
    /// the frames sent while it was attached.
    pub fn finish_frame_recording(&mut self) -> usize {
        self.net.set_recorder(Recorder::disabled());
        let recorder = std::mem::replace(&mut self.frame_recorder, Recorder::disabled());
        let mut sizes: Vec<u64> = recorder
            .events()
            .iter()
            .filter(|e| e.layer == "net" && e.kind == "send")
            .filter_map(|e| {
                e.fields.iter().find_map(|(k, v)| match v {
                    FieldValue::U64(n) if *k == "bytes" => Some(*n),
                    _ => None,
                })
            })
            .collect();
        sizes.sort_unstable();
        sizes.get(sizes.len() / 2).copied().unwrap_or(64) as usize
    }

    /// Every object currently published, as at-rest bytes.
    fn published_objects(&self) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        for repo in self.repos.iter() {
            for dir in repo.directories() {
                for (name, _) in repo.list(&dir) {
                    if let Some(bytes) = repo.fetch(&dir, &name) {
                        out.push(bytes.to_vec());
                    }
                }
            }
        }
        out
    }

    /// Probes of the buried layers over this world's own bytes.
    pub fn probe_buried_layers(&self, frame_bytes: usize) -> Probes {
        let objects = self.published_objects();
        let total_bytes: usize = objects.iter().map(Vec::len).sum();

        // crypto-sim: SHA-256 over every published object.
        let start = Instant::now();
        for bytes in &objects {
            black_box(sha256(black_box(bytes)));
        }
        let sha_s = start.elapsed().as_secs_f64();

        // crypto-sim: one signature check per object. The signatures
        // are made here, outside the timed loop, by a probe key.
        let key = KeyPair::from_seed("pipeline-bench-probe");
        let public = key.public();
        let signatures: Vec<_> = objects.iter().map(|b| key.sign(b)).collect();
        let start = Instant::now();
        for (bytes, sig) in objects.iter().zip(&signatures) {
            black_box(public.verify(black_box(bytes), sig)).expect("probe signature verifies");
        }
        let verify_ns = start.elapsed().as_nanos() as f64 / objects.len().max(1) as f64;

        // rpki-objects: decode every object, then re-encode it.
        let mut decode_failures = 0u64;
        let start = Instant::now();
        let decoded: Vec<RpkiObject> = objects
            .iter()
            .filter_map(|bytes| match RpkiObject::from_bytes(black_box(bytes)) {
                Ok(object) => Some(object),
                Err(_) => {
                    decode_failures += 1;
                    None
                }
            })
            .collect();
        let decode_ns = start.elapsed().as_nanos() as f64 / objects.len().max(1) as f64;
        let start = Instant::now();
        let mut reencoded = 0usize;
        for object in &decoded {
            reencoded += black_box(object.to_bytes()).len();
        }
        let encode_ns = start.elapsed().as_nanos() as f64 / decoded.len().max(1) as f64;
        assert!(
            decode_failures > 0 || reencoded == total_bytes,
            "encode(decode(b)) must reproduce b"
        );

        // ipres: the covering walk behind RFC 6811, once per
        // announcement, over the relying party's current VRP set.
        let cache: VrpCache = self.run.vrps.iter().copied().collect();
        let start = Instant::now();
        let mut covering = 0u64;
        for a in &self.internet.announcements {
            cache.covering_for_each(black_box(a.prefix), |_| {
                covering += 1;
                true
            });
        }
        let lookup_ns =
            start.elapsed().as_nanos() as f64 / self.internet.announcements.len().max(1) as f64;
        black_box(covering);

        // netsim: a two-node send/step loop at this workload's median
        // frame size.
        let mut net = Network::new(1);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let payload = vec![0u8; frame_bytes];
        let frames = 200_000u32;
        let start = Instant::now();
        for _ in 0..frames {
            net.send(a, b, payload.clone());
            black_box(net.step());
        }
        let dispatch_ns = start.elapsed().as_nanos() as f64 / f64::from(frames);

        Probes {
            sha256_mb_per_s: total_bytes as f64 / 1e6 / sha_s.max(1e-9),
            verify_ns,
            decode_ns_per_object: decode_ns,
            encode_ns_per_object: encode_ns,
            decode_failures,
            covering_lookup_ns: lookup_ns,
            dispatch_ns_per_frame: dispatch_ns,
            frame_bytes: frame_bytes as u64,
        }
    }
}

/// Results of [`World::probe_buried_layers`].
#[derive(Debug, Clone, Copy, Default)]
pub struct Probes {
    /// SHA-256 throughput over the published objects.
    pub sha256_mb_per_s: f64,
    /// One `PublicKey::verify` over one object's bytes.
    pub verify_ns: f64,
    /// One `RpkiObject::from_bytes`.
    pub decode_ns_per_object: f64,
    /// One `RpkiObject::to_bytes`.
    pub encode_ns_per_object: f64,
    /// Published objects that failed to decode (0 expected).
    pub decode_failures: u64,
    /// One `VrpCache::covering_for_each` per announcement.
    pub covering_lookup_ns: f64,
    /// One `Network::send` + `Network::step` pair.
    pub dispatch_ns_per_frame: f64,
    /// The frame size the dispatch probe used.
    pub frame_bytes: u64,
}
