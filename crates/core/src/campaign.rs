//! Seeded fault campaigns: the `ablation_resilience` and
//! `ablation_downgrade` harness.
//!
//! A *campaign* is a deterministic schedule of repository faults —
//! corruption bursts, flapping partitions, takedowns, Stalloris-style
//! slow serves and RRDP pins, stealthy withdrawals — played against the
//! model world while relying parties ([`RpTier`]) validate on a fixed
//! cadence.
//!
//! Every campaign is one round loop, [`Campaign::run`], over four
//! inputs: the [`CampaignSpec`]; the relying parties' source stacks; a
//! world topology — a freshly seeded world per relying party, run one
//! after another, or one shared world they validate in turn each round;
//! and an observer that records one table of the [`CampaignOutcome`].
//! Each world is built with the recorder installed, warmed up by one
//! faultless validation per relying party (round 0), then played round
//! by round: clock ([`ROUND_SECS`]), churn, fault windows ([`FaultKind`]
//! states the rule), validations — each tier recording and emitting its
//! [`RoundMetrics`] row — with the observer looking before and after.
//! All metrics are integers, so outcomes and traces replay
//! byte-identically; `tests/campaign_fingerprints.rs` pins them.
//!
//! The separations the standard campaigns expose: transport faults
//! order the first three tiers (retries repair lossy rounds, the stale
//! cache bridges the rest); a **slow serve** separates boundedness from
//! availability (the bare RP waits hours, the retrying one times out —
//! only the stale cache gets both); a **withdrawal** is bridged by
//! Suspenders alone, since a complete sync lacking a file updates the
//! snapshot.

use std::collections::BTreeSet;
use std::mem::Discriminant;

use ipres::Prefix;
use netsim::{Network, NodeId};
use rpki_attacks::CorpusKind;
use rpki_ca::{ChurnConfig, ChurnEngine};
use rpki_objects::{Moment, RoaPrefix, Span};
use rpki_obs::Recorder;
use rpki_repo::{Freshness, Repository, RrdpClientState, RrdpStats};
use rpki_rp::fabric::{pump_until, RtrEndpoint};
use rpki_rp::{
    MergePolicy, Relay, ResilienceConfig, ResilientState, Route, RouteValidity, RtrFabric,
    RtrRouter, SchedulePlan, SchedulerState, SlurmFile, UnsafeVrpPolicy, ValidationRun,
    ValidationState, Vrp, VrpCache, VrpUpdate,
};
use serde::Serialize;

use crate::downgrade::{DowngradeRecord, Stalloris};
use crate::fixtures::{asn, ca, World};
use crate::suspenders::{SuspendersConfig, SuspendersState};
use crate::validate::{Fetch, RrdpMode, ValidationOptions};

/// Seconds between validation rounds (a 30-minute RP cadence; short
/// enough that a full campaign stays inside every manifest's one-day
/// validity window, so no republishing perturbs the schedule).
pub const ROUND_SECS: u64 = 1800;

/// One kind of repository fault a window can impose.
///
/// Off before on: each round every window is switched off, then the
/// armed ones on, so an expired window never disarms an armed one. The
/// stateful kinds (`RrdpPin`, `Withdraw`, `AdversarialPublish`) change
/// the repository and act once per host and kind: engaged when the
/// first of that host's windows of that kind arms, released the round
/// after the last one disarms (releases first). Overlapping windows
/// thus act as one over their union, with the first armed window's
/// `AdversarialPublish` case.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum FaultKind {
    /// Probabilistic corruption of every repository→RP frame.
    CorruptionBurst {
        /// Per-message corruption probability.
        prob: f64,
    },
    /// A hard partition between the RP and the repository.
    Partition,
    /// A partition present on every other round of the window.
    Flapping,
    /// The repository host is down entirely.
    Takedown,
    /// Stalloris: the repository serves, but `extra` seconds late.
    /// Under a client's per-attempt deadline nothing fails, but a
    /// budgeted scheduler's time budget burns and the points behind it
    /// starve (the schedule-gaming campaign).
    Stall {
        /// Added one-way delay on repository→RP frames.
        extra: u64,
    },
    /// The authority stealthily withdraws Continental's covering `/20`
    /// ROA (no revocation) for the window, then reissues it: transport
    /// defenses must *not* bridge it; Suspenders must. Only Continental
    /// can take it; a window naming another host is refused.
    Withdraw,
    /// Stalloris stale-data pinning: the host freezes its RRDP feed at
    /// the window's first round and replays it until the window closes,
    /// hiding later writes from RRDP while rsync serves the truth; a
    /// verified RRDP client detects the pin and downgrades.
    RrdpPin,
    /// The host refuses RRDP outright for the window, forcing
    /// RRDP-preferring clients down to rsync each round.
    RrdpWithhold,
    /// The authority publishes one adversarial corpus case
    /// ([`rpki_attacks::corpus`]), signed with its own key, at the
    /// window's first round, and heals it with an honest snapshot after.
    AdversarialPublish {
        /// Which corpus family to publish.
        kind: CorpusKind,
    },
    /// A hard partition of the RTR feed path (relay ↔ every router):
    /// relying parties stay synchronised while routers go deaf. Only a
    /// [`Campaign::Rtr`] run interprets the RTR kinds; the window's
    /// `host` is then a label, not a repository.
    RtrPartition,
    /// The RTR feed path serves `extra` seconds late (Stalloris one hop
    /// down): frames stalled past the pump budget never arrive, and
    /// routers act on yesterday's VRPs.
    RtrStall {
        /// Added one-way delay on relay→router frames.
        extra: u64,
    },
}

impl FaultKind {
    /// Whether this fault targets the RTR feed path rather than a
    /// repository host (so `FaultWindow::host` is a label, not a
    /// lookup).
    pub fn is_rtr(self) -> bool {
        matches!(self, FaultKind::RtrPartition | FaultKind::RtrStall { .. })
    }
}

/// A fault applied to one repository host over a round interval
/// (inclusive on both ends; rounds are numbered from 1).
#[derive(Debug, Clone, Serialize)]
pub struct FaultWindow {
    /// The repository host the fault targets.
    pub host: String,
    /// What goes wrong.
    pub kind: FaultKind,
    /// First affected round.
    pub from: usize,
    /// Last affected round.
    pub to: usize,
}

impl FaultWindow {
    /// `kind` on `host` over rounds `from..=to`.
    pub fn new(host: &str, kind: FaultKind, from: usize, to: usize) -> Self {
        FaultWindow { host: host.to_owned(), kind, from, to }
    }

    /// Whether the window's fault is in force at `round`.
    fn armed(&self, round: usize) -> bool {
        let inside = self.from <= round && round <= self.to;
        // Flapping: partitioned on the window's even offsets, so it
        // always starts severed and heals every other round.
        inside && (self.kind != FaultKind::Flapping || (round - self.from).is_multiple_of(2))
    }

    /// The (host, kind) group a stateful window engages and releases
    /// with; `None` for the kinds switched every round.
    fn group(&self) -> Option<(&str, Discriminant<FaultKind>)> {
        use FaultKind::{AdversarialPublish, RrdpPin, Withdraw};
        matches!(self.kind, RrdpPin | Withdraw | AdversarialPublish { .. })
            .then(|| (self.host.as_str(), std::mem::discriminant(&self.kind)))
    }
}

/// A named, fully deterministic fault schedule.
#[derive(Debug, Clone, Serialize)]
pub struct CampaignSpec {
    /// Campaign name (stable; used in reports).
    pub name: String,
    /// Number of validation rounds after the warm-up.
    pub rounds: usize,
    /// The fault windows in force.
    pub windows: Vec<FaultWindow>,
    /// The unsafe-VRP policy every tier validates under (default
    /// [`UnsafeVrpPolicy::Accept`], matching deployed practice).
    pub unsafe_vrps: UnsafeVrpPolicy,
    /// Background CA churn applied every round *before* that round's
    /// faults, seeded with the campaign seed so every world churns
    /// identically; `None` keeps repositories quiet between faults
    /// ([`ChurnConfig::renew_only`] keeps the VRP population fixed).
    pub churn: Option<ChurnConfig>,
}

impl CampaignSpec {
    /// A campaign of `rounds` rounds under `windows`, with the default
    /// unsafe-VRP policy and no background churn.
    pub fn new(name: &str, rounds: usize, windows: Vec<FaultWindow>) -> Self {
        CampaignSpec {
            name: name.to_owned(),
            rounds,
            windows,
            unsafe_vrps: UnsafeVrpPolicy::Accept,
            churn: None,
        }
    }

    /// The same campaign under a different unsafe-VRP policy.
    pub fn with_unsafe_policy(mut self, policy: UnsafeVrpPolicy) -> Self {
        self.unsafe_vrps = policy;
        self
    }

    /// The same campaign with background CA churn at the given rates.
    pub fn with_churn(mut self, churn: ChurnConfig) -> Self {
        self.churn = Some(churn);
        self
    }
}

/// The relying-party configurations the ablation compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum RpTier {
    /// One bare sync per directory; no timeouts, no cache.
    Bare,
    /// Retries with deadlines and backoff, but no cache fallback.
    Retrying,
    /// Retries plus last-good snapshot fallback and circuit breaking.
    RetryingStale,
    /// The full stack plus the Suspenders hold-down over VRPs.
    Suspenders,
    /// The resilient stack fetching over RRDP (verified: every sync is
    /// cross-checked against an rsync digest probe) with the rsync
    /// retry path as its downgrade target.
    Rrdp,
}

impl RpTier {
    /// All tiers, weakest first.
    pub const ALL: [RpTier; 5] =
        [RpTier::Bare, RpTier::Retrying, RpTier::RetryingStale, RpTier::Suspenders, RpTier::Rrdp];

    /// A short stable label for reports.
    pub fn label(self) -> &'static str {
        match self {
            RpTier::Bare => "bare",
            RpTier::Retrying => "retrying",
            RpTier::RetryingStale => "retrying+stale",
            RpTier::Suspenders => "suspenders",
            RpTier::Rrdp => "rrdp",
        }
    }
}

/// Declares an all-integer metrics struct together with its
/// `columns()` — every field by name, in declaration order, as a trace
/// event carries them — so the struct lists its columns exactly once.
macro_rules! metrics_struct {
    ($(#[$attr:meta])* pub struct $name:ident { $($(#[$doc:meta])* pub $field:ident: $ty:ty,)+ }) => {
        $(#[$attr])*
        pub struct $name { $($(#[$doc])* pub $field: $ty,)+ }

        impl $name {
            fn columns(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field as u64)),+]
            }
        }
    };
}

metrics_struct! {
    /// What one tier saw in one round.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
    pub struct RoundMetrics {
        /// Round number (1-based; the warm-up round is not recorded).
        pub round: usize,
        /// VRPs in the tier's effective cache.
        pub vrps: usize,
        /// Legitimate announcements classified valid.
        pub valid: usize,
        /// Legitimate announcements classified invalid (flips from the
        /// all-valid healthy baseline).
        pub invalid: usize,
        /// Legitimate announcements classified unknown (flips from the
        /// all-valid healthy baseline).
        pub unknown: usize,
        /// Publication points served from a stale snapshot this round.
        pub stale_dirs: usize,
        /// RRDP→rsync downgrades this round (always 0 for non-RRDP tiers).
        pub rrdp_downgrades: usize,
        /// VRPs flagged unsafe this round (overlapping a rejected CA's
        /// resources; always 0 under [`UnsafeVrpPolicy::Accept`]).
        pub unsafe_vrps: usize,
        /// CAs the walk rejected this round.
        pub rejected_cas: usize,
    }
}

metrics_struct! {
    /// Campaign-wide sums for one tier.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
    pub struct TierTotals {
        /// Σ `vrps` over rounds — the VRP-availability integral.
        pub vrp_round_sum: usize,
        /// The worst single round's VRP count.
        pub min_vrps: usize,
        /// Σ `valid` over rounds.
        pub valid_round_sum: usize,
        /// Σ `invalid`: announcement-rounds flipped valid→invalid.
        pub invalid_flips: usize,
        /// Σ `unknown`: announcement-rounds flipped valid→unknown.
        pub unknown_flips: usize,
        /// Σ `stale_dirs`: directory-rounds bridged by the snapshot cache.
        pub stale_dir_rounds: usize,
        /// Σ `rrdp_downgrades`: RRDP→rsync fallbacks across the campaign.
        pub rrdp_downgrades: usize,
        /// Σ `unsafe_vrps`: unsafe VRP-rounds across the campaign.
        pub unsafe_vrp_rounds: usize,
        /// Σ `rejected_cas`: rejected CA-rounds across the campaign.
        pub rejected_ca_rounds: usize,
    }
}

/// One tier's full trace through a campaign.
#[derive(Debug, Clone, Serialize)]
pub struct TierOutcome {
    /// Which configuration this is.
    pub tier: RpTier,
    /// Per-round metrics, in round order.
    pub rounds: Vec<RoundMetrics>,
    /// Campaign-wide sums.
    pub totals: TierTotals,
}

metrics_struct! {
    /// Cross-RP divergence in one shared-world round: how far the tiers'
    /// validated VRP sets drifted apart.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
    pub struct DivergenceMetrics {
        /// Round number (1-based).
        pub round: usize,
        /// Distinct validated VRP sets across the tiers (1 = full
        /// agreement; up to one per tier under asymmetric faults).
        pub distinct_vrp_sets: usize,
        /// Σ over tier pairs of the symmetric-difference size of their
        /// validated VRP sets.
        pub pairwise_diff_sum: usize,
        /// The single largest pairwise symmetric difference.
        pub max_pairwise_diff: usize,
    }
}

/// Wire load one repository host served across a shared-world campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct HostLoad {
    /// The repository host.
    pub host: String,
    /// Publication-point directories that served at least one frame.
    pub dirs: usize,
    /// Response frames served.
    pub frames: u64,
    /// Encoded response bytes served.
    pub bytes: u64,
}

/// Shape of the RTR fabric a [`Campaign::Rtr`] run attaches: a relay
/// merging the five tier feeds, re-serving a population of routers.
#[derive(Debug, Clone, Copy)]
pub struct RtrConfig {
    /// Routers behind the relay.
    pub routers: usize,
    /// How the relay merges the five tier feeds.
    pub policy: MergePolicy,
}

impl Default for RtrConfig {
    fn default() -> Self {
        RtrConfig { routers: 8, policy: MergePolicy::Union }
    }
}

/// Per-serial delta-history depth on every cache of a [`Campaign::Rtr`]
/// fabric.
const RTR_MAX_HISTORY: usize = 16;

/// Simulated seconds each of a [`Campaign::Rtr`] round's two RTR pump
/// windows may consume; frames stalled past it are flushed (a session
/// timeout).
const RTR_PUMP_BUDGET: u64 = 300;

metrics_struct! {
    /// What the router population saw in one round.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
    pub struct RtrRoundMetrics {
        /// Round number (1-based).
        pub round: usize,
        /// The relay's downstream serial after this round's republish.
        pub relay_serial: u32,
        /// Routers whose serial equals the relay's.
        pub synced_routers: usize,
        /// Routers behind the relay's serial, or never synced.
        pub stale_routers: usize,
        /// The largest RFC 1982 serial lag among routers that have synced.
        pub max_serial_lag: u32,
        /// Σ over routers of the symmetric difference between the router's
        /// VRP set and the perfect-transport truth at the round's moment.
        pub truth_distance_sum: usize,
        /// The single worst router's distance from truth.
        pub max_truth_distance: usize,
        /// The relay's merged (SLURM-applied) set's distance from truth:
        /// what the relying-party path contributed, before the router hop.
        pub relay_truth_distance: usize,
    }
}

/// One round of a scheduled campaign: what the scheduler did and how
/// stale the starved points got.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct ScheduleRoundMetrics {
    /// Round number (1-based; the warm-up round is not recorded).
    pub round: usize,
    /// VRPs the scheduled RP validated this round.
    pub vrps: usize,
    /// Full fetches the scheduler delegated to the wire.
    pub fetched: u64,
    /// Points answered from schedule state at zero frames.
    pub not_due: u64,
    /// Due points deferred because the run budget was spent — the
    /// starvation the slow server manufactures.
    pub deferred: u64,
    /// Points skipped because their host was in scheduler backoff.
    pub backoff_skips: u64,
    /// Frames the run spent on delegated fetches.
    pub frames_used: u64,
    /// Simulated seconds the run spent inside delegated fetches (the
    /// budget the attacker burns).
    pub time_used: u64,
    /// Oldest `now - last_success` over points served stale this round.
    pub max_served_age: u64,
}

/// The result of running one campaign at one seed: every [`Campaign`]
/// returns this type, and a table the run did not record is empty.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CampaignOutcome {
    /// The campaign's name.
    pub name: String,
    /// The network seed used.
    pub seed: u64,
    /// Rounds per tier.
    pub rounds: usize,
    /// One trace per tier, in [`RpTier::ALL`] order (empty when the
    /// relying parties are no tiers).
    pub tiers: Vec<TierOutcome>,
    /// Per-round cross-tier divergence ([`Campaign::Shared`]).
    pub divergence: Vec<DivergenceMetrics>,
    /// Per-host server-side load over the campaign rounds (warm-up
    /// excluded), in host order ([`Campaign::Shared`]).
    pub load: Vec<HostLoad>,
    /// Per-round router-population staleness and divergence
    /// ([`Campaign::Rtr`]).
    pub rtr: Vec<RtrRoundMetrics>,
    /// Per-round scheduler metrics, in round order
    /// ([`Campaign::Scheduled`]).
    pub schedule: Vec<ScheduleRoundMetrics>,
    /// The Stalloris record ([`Campaign::Stalloris`]): an artifact of
    /// its own, so the serialized outcome keeps its shape without it.
    #[serde(skip)]
    pub downgrade: Option<DowngradeRecord>,
}

impl CampaignOutcome {
    /// The trace of `tier`.
    pub fn tier(&self, tier: RpTier) -> &TierOutcome {
        self.tiers.iter().find(|t| t.tier == tier).expect("all tiers present")
    }
}

/// How a [`Campaign::Private`] run's relying parties walk the tree each
/// round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Revalidate against a persistent [`ValidationState`] in full-fetch
    /// mode: the same traffic and output as a cold walk, but unchanged
    /// publication points replay instead of re-verifying.
    Incremental,
    /// A cold full walk every round — the incremental walk's oracle.
    Cold,
}

/// The repository host every standard campaign targets.
pub(crate) const CONTINENTAL_HOST: &str = "rpki.continental.example";

/// The resilience knobs the stale-cache tiers use: snapshots may bridge
/// up to six hours (12 rounds); three dead sessions open the circuit
/// for one round.
pub fn campaign_resilience() -> ResilienceConfig {
    ResilienceConfig { max_stale: 6 * 3600, cooldown: ROUND_SECS }
}

/// Emits one metrics row as a trace event: the string `tags` first,
/// then the integer `columns`, each in the order given.
fn emit_row(
    recorder: &Recorder,
    at: u64,
    (layer, kind): (&'static str, &'static str),
    tags: &[(&'static str, &str)],
    columns: &[(&'static str, u64)],
) {
    let event = tags.iter().fold(recorder.event(at, layer, kind), |e, &(k, v)| e.str(k, v));
    columns.iter().fold(event, |e, &(k, v)| e.u64(k, v)).emit();
}

/// The source stack a campaign relying party validates through.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stack {
    /// One of the five ablation tiers.
    Tier(RpTier),
    /// Retries + RRDP under a fetch scheduler ([`Campaign::Scheduled`]).
    Scheduled(SchedulePlan),
    /// Retries + RRDP and no stale cache to bridge a lie: the Stalloris
    /// stances.
    Rrdp(RrdpMode),
}

/// One relying party in a campaign: its network node, its stack, and
/// every piece of state that persists across its rounds.
pub(crate) struct Rp {
    node: NodeId,
    pub(crate) stack: Stack,
    /// The memo cache of an incremental walk; `None` walks cold.
    validation: Option<ValidationState>,
    resilient: ResilientState,
    suspenders: SuspendersState,
    /// Per-directory RRDP sessions: round N+1 syncs deltas on round N.
    pub(crate) rrdp: RrdpClientState,
    scheduler: SchedulerState,
    /// The RRDP counters before the latest run.
    pub(crate) rrdp_before: RrdpStats,
    rounds: Vec<RoundMetrics>,
}

impl Rp {
    fn new(node: NodeId, stack: Stack, walk: Walk) -> Rp {
        Rp {
            node,
            stack,
            validation: (walk == Walk::Incremental).then(ValidationState::full),
            resilient: ResilientState::new(campaign_resilience()),
            // Hold-down of one day: longer than any campaign, so a held
            // VRP stays held until it recovers or the campaign ends.
            suspenders: SuspendersState::new(SuspendersConfig { hold_down: Span::days(1) }),
            rrdp: RrdpClientState::new(),
            scheduler: SchedulerState::new(),
            rrdp_before: RrdpStats::default(),
            rounds: Vec::new(),
        }
    }

    /// One validation from this relying party's node through its stack,
    /// at the world's current moment. From round 1 on, a tier classifies
    /// the announcements against its effective VRPs and records its row,
    /// emitted as a `campaign/round` event stamped with that moment.
    fn validate(&mut self, w: &mut World, spec: &CampaignSpec, round: usize) -> ValidationRun {
        let at = w.net.now();
        w.rp_node = self.node;
        self.rrdp_before = self.rrdp.stats();
        let base = ValidationOptions::at(Moment(at)).unsafe_vrps(spec.unsafe_vrps);
        let opts = match self.stack {
            Stack::Tier(RpTier::Bare) => base,
            Stack::Tier(RpTier::Retrying) => base.fetch(Fetch::Retry),
            Stack::Tier(RpTier::RetryingStale) => {
                base.fetch(Fetch::Retry).stale_cache(&mut self.resilient)
            }
            Stack::Tier(RpTier::Suspenders) => base
                .fetch(Fetch::Retry)
                .stale_cache(&mut self.resilient)
                .suspenders(&mut self.suspenders),
            Stack::Tier(RpTier::Rrdp) => base
                .fetch(Fetch::Rrdp(&mut self.rrdp, RrdpMode::Verified))
                .stale_cache(&mut self.resilient),
            Stack::Scheduled(plan) => base
                .fetch(Fetch::Rrdp(&mut self.rrdp, RrdpMode::Verified))
                .scheduled(plan, &mut self.scheduler),
            Stack::Rrdp(mode) => base.fetch(Fetch::Rrdp(&mut self.rrdp, mode)),
        };
        let run = w.validate_with(match self.validation.as_mut() {
            Some(state) => opts.incremental(state),
            None => opts,
        });
        let (Stack::Tier(tier), 1..) = (self.stack, round) else { return run };
        let effective = self.effective_vrps(&run);
        let cache: VrpCache = effective.iter().copied().collect();
        let mut m = RoundMetrics { round, vrps: effective.len(), ..RoundMetrics::default() };
        for ann in &w.announcements {
            match cache.classify(Route::new(ann.prefix, ann.origin)) {
                RouteValidity::Valid => m.valid += 1,
                RouteValidity::Invalid => m.invalid += 1,
                RouteValidity::Unknown => m.unknown += 1,
            }
        }
        m.stale_dirs =
            run.freshness.iter().filter(|(_, f)| matches!(f, Freshness::Stale { .. })).count();
        m.rrdp_downgrades = (self.rrdp.stats().downgrades - self.rrdp_before.downgrades) as usize;
        m.unsafe_vrps = run.unsafe_vrps.len();
        m.rejected_cas = run.rejected_cas.len();

        let recorder = w.net.recorder();
        recorder.count("campaign.rounds", 1);
        recorder.count("campaign.invalid_flips", m.invalid as u64);
        recorder.count("campaign.unknown_flips", m.unknown as u64);
        recorder.count("campaign.stale_dir_rounds", m.stale_dirs as u64);
        recorder.count("campaign.rrdp_downgrades", m.rrdp_downgrades as u64);
        recorder.observe("campaign.vrps_per_round", m.vrps as u64);
        let tags = [("campaign", spec.name.as_str()), ("tier", tier.label())];
        emit_row(&recorder, at, ("campaign", "round"), &tags, &m.columns());
        self.rounds.push(m);
        run
    }

    /// The VRPs this relying party acts on after `run`: the Suspenders
    /// tier serves its hold-down-protected effective set, every other
    /// stack the run's own.
    fn effective_vrps(&self, run: &ValidationRun) -> Vec<Vrp> {
        match self.stack {
            Stack::Tier(RpTier::Suspenders) => self.suspenders.effective_cache().vrps().to_vec(),
            _ => run.vrps.clone(),
        }
    }
}

fn tier_totals(rounds: &[RoundMetrics]) -> TierTotals {
    TierTotals {
        vrp_round_sum: rounds.iter().map(|m| m.vrps).sum(),
        min_vrps: rounds.iter().map(|m| m.vrps).min().unwrap_or(0),
        valid_round_sum: rounds.iter().map(|m| m.valid).sum(),
        invalid_flips: rounds.iter().map(|m| m.invalid).sum(),
        unknown_flips: rounds.iter().map(|m| m.unknown).sum(),
        stale_dir_rounds: rounds.iter().map(|m| m.stale_dirs).sum(),
        rrdp_downgrades: rounds.iter().map(|m| m.rrdp_downgrades).sum(),
        unsafe_vrp_rounds: rounds.iter().map(|m| m.unsafe_vrps).sum(),
        rejected_ca_rounds: rounds.iter().map(|m| m.rejected_cas).sum(),
    }
}

/// Where a campaign's relying parties validate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Topology {
    /// A freshly seeded world per relying party, run one after another,
    /// each relying party validating from the world's own node.
    Private,
    /// One world that every relying party validates in turn each round,
    /// each from its own `rp-<tier>` node.
    Shared,
}

/// One campaign world: the world, the relying parties validating it,
/// and everything that happens to it between rounds.
pub(crate) struct Engine<'a> {
    pub(crate) spec: &'a CampaignSpec,
    pub(crate) w: World,
    pub(crate) rps: Vec<Rp>,
    topology: Topology,
    /// One window of each engaged stateful (host, kind) group.
    engaged: Vec<usize>,
    /// Background churn, seeded with the campaign seed, so every world
    /// churns through the same schedule.
    churn: Option<ChurnEngine>,
    /// The relay and routers the RTR fault kinds act on; `None` makes
    /// them a no-op.
    rtr_path: Option<(NodeId, Vec<NodeId>)>,
}

impl<'a> Engine<'a> {
    /// Builds the seeded world, installs `recorder`, and places one
    /// relying party per stack (a shared world holds tiers only).
    fn new(
        spec: &'a CampaignSpec,
        seed: u64,
        recorder: &Recorder,
        stacks: &[Stack],
        walk: Walk,
        topology: Topology,
    ) -> Self {
        let mut w = World::model(seed);
        w.net.set_recorder(recorder.clone());
        let mut rps = Vec::with_capacity(stacks.len());
        for &stack in stacks {
            let node = match stack {
                Stack::Tier(tier) if topology == Topology::Shared => {
                    w.net.add_node(&format!("rp-{}", tier.label()))
                }
                _ => w.rp_node,
            };
            rps.push(Rp::new(node, stack, walk));
        }
        let churn = spec.churn.map(|cfg| ChurnEngine::new(seed, cfg));
        Engine { spec, w, rps, topology, engaged: Vec::new(), churn, rtr_path: None }
    }

    /// Opens `round`: clock, then churn, then faults.
    fn begin_round(&mut self, round: usize) {
        // Stalled sessions may overrun the boundary; `advance_to` is
        // monotone, so pacing simply resumes once they drain.
        self.w.net.advance_to(round as u64 * ROUND_SECS);
        if let Some(engine) = self.churn.as_mut() {
            self.w.run_churn(engine, Moment(self.w.net.now()));
        }
        // Off before on, as `FaultKind` states: every window off, the
        // armed ones on, noting the first armed window of each stateful
        // group; then the groups left unarmed are released and the
        // newly armed ones engaged.
        let spec = self.spec;
        let grouped = |set: &[usize], i: usize| {
            set.iter().any(|&j| spec.windows[j].group() == spec.windows[i].group())
        };
        for win in &spec.windows {
            self.set_fault(win, false);
        }
        let mut armed = Vec::new();
        for (i, win) in spec.windows.iter().enumerate().filter(|(_, win)| win.armed(round)) {
            self.set_fault(win, true);
            if win.group().is_some() && !grouped(&armed, i) {
                armed.push(i);
            }
        }
        let engaged = std::mem::take(&mut self.engaged);
        for &i in engaged.iter().filter(|&&i| !grouped(&armed, i)) {
            self.engage(i, false);
        }
        for &i in armed.iter().filter(|&&i| !grouped(&engaged, i)) {
            self.engage(i, true);
        }
        self.engaged = armed;
    }

    fn repo_mut(&mut self, host: &str) -> &mut Repository {
        self.w.repos.by_host_mut(host).expect("campaign host exists")
    }

    /// Switches one window's transport or serve fault on or off; pairwise
    /// kinds act between the server — the host, or the relay for the RTR
    /// kinds — and each of its clients.
    fn set_fault(&mut self, win: &FaultWindow, on: bool) {
        let (server, clients) = if win.kind.is_rtr() {
            let Some(path) = &self.rtr_path else { return };
            path.clone()
        } else {
            (self.repo_mut(&win.host).node(), self.rps.iter().map(|rp| rp.node).collect())
        };
        let faults = &mut self.w.net.faults;
        for &c in &clients {
            match win.kind {
                FaultKind::CorruptionBurst { prob } => {
                    faults.set_corruption(server, c, if on { prob } else { 0.0 });
                }
                FaultKind::Partition | FaultKind::Flapping | FaultKind::RtrPartition if on => {
                    faults.partition(server, c);
                }
                FaultKind::Partition | FaultKind::Flapping | FaultKind::RtrPartition => {
                    faults.heal(server, c);
                }
                FaultKind::Stall { extra } | FaultKind::RtrStall { extra } => {
                    faults.set_stall(server, c, if on { extra } else { 0 });
                }
                _ => {}
            }
        }
        match win.kind {
            FaultKind::Takedown => faults.set_down(server, on),
            FaultKind::RrdpWithhold => self.repo_mut(&win.host).set_rrdp_offline(on),
            // Pairwise kinds are set above; stateful ones in `engage`.
            _ => {}
        }
    }

    /// Engages (`on`) or releases the stateful fault of window `i`'s
    /// group — once each: re-arming a pin would re-capture the state.
    fn engage(&mut self, i: usize, on: bool) {
        let spec = self.spec;
        let win = &spec.windows[i];
        let now = Moment(self.w.net.now());
        match win.kind {
            FaultKind::RrdpPin if on => self.repo_mut(&win.host).rrdp_pin(),
            FaultKind::RrdpPin => self.repo_mut(&win.host).rrdp_unpin(),
            FaultKind::Withdraw if on => {
                assert_eq!(
                    win.host, CONTINENTAL_HOST,
                    "a Withdraw window whacks Continental's covering ROA; host {} cannot take it",
                    win.host
                );
                let file = self.w.covering_roa_file();
                self.w.cas[ca::CONTINENTAL].withdraw(&file).expect("covering ROA present");
                self.w.publish_all(now);
            }
            FaultKind::Withdraw => {
                let covering: Prefix = "63.174.16.0/20".parse().expect("literal");
                self.w.cas[ca::CONTINENTAL]
                    .issue_roa(asn::CONTINENTAL, vec![RoaPrefix::exact(covering)], now)
                    .expect("own space");
                self.w.publish_all(now);
            }
            // Seeded by the window index so concurrent windows of one
            // campaign draw distinct corpus streams.
            FaultKind::AdversarialPublish { kind } if on => {
                self.w.poison_host(&win.host, kind, i as u64, now).expect("campaign host exists");
            }
            // A fresh honest snapshot overwrites the poison and deletes
            // stray corpus files.
            _ => self.w.publish_all(now),
        }
    }

    /// Every relying party validates, in order; returns the round's
    /// runs, one per relying party.
    fn validate_round(&mut self, round: usize) -> Vec<ValidationRun> {
        let (w, spec) = (&mut self.w, self.spec);
        self.rps.iter_mut().map(|rp| rp.validate(w, spec, round)).collect()
    }

    /// The recorded tiers with their totals, in relying-party order;
    /// each tier of a private world closes with a `campaign/tier_totals`
    /// event.
    fn finish(self) -> Vec<TierOutcome> {
        let (recorder, now) = (self.w.net.recorder(), self.w.net.now());
        let mut tiers = Vec::new();
        for rp in self.rps {
            let Stack::Tier(tier) = rp.stack else { continue };
            let totals = tier_totals(&rp.rounds);
            if self.topology == Topology::Private {
                let tags = [("campaign", self.spec.name.as_str()), ("tier", tier.label())];
                emit_row(&recorder, now, ("campaign", "tier_totals"), &tags, &totals.columns());
            }
            tiers.push(TierOutcome { tier, totals, rounds: rp.rounds });
        }
        tiers
    }
}

/// One of the campaigns the harness runs: its relying parties, their
/// world topology, and the observer that records its table.
/// [`run`](Campaign::run) plays a [`CampaignSpec`] through it.
#[derive(Debug, Clone)]
pub enum Campaign {
    /// The five tiers, each in its own freshly seeded world, so tiers
    /// never share fault dice; they walk as the [`Walk`] says, and both
    /// walks give byte-identical outcomes.
    Private(Walk),
    /// The five tiers validating **one** shared world, each from its own
    /// node with its own caches, plus per-round cross-tier divergence
    /// and per-host server load. Probabilistic faults draw from one dice
    /// stream here, so a burst that eats one tier's frame spares
    /// another's: that asymmetry is what divergence measures.
    Shared,
    /// The shared world feeding an RTR fabric: each tier publishes into
    /// its own framed cache, a relay merges the five under the SLURM
    /// exceptions, and routers sync from it over netsim. The warm-up and
    /// every round end with one publish → merge → sync cycle in two
    /// bounded pump windows; frames still in flight are flushed (a
    /// session timeout), so a stalled path shows as stale routers.
    Rtr(RtrConfig, SlurmFile),
    /// One relying party on retries + RRDP under the plan's fetch
    /// scheduler, in a private world republished whole every round, so
    /// the run budget, not quiescence, rations the wire.
    Scheduled(SchedulePlan),
    /// The Stalloris scenario ([`crate::downgrade`]): a trusting and a
    /// verified RRDP stance, each in its own private world.
    Stalloris,
}

impl Campaign {
    /// Plays `spec` at `seed`, with `recorder` installed in every world,
    /// so the whole event stream and the campaign's rows share a trace.
    pub fn run(&self, spec: &CampaignSpec, seed: u64, recorder: &Recorder) -> CampaignOutcome {
        use Topology::{Private, Shared};
        let tiers = RpTier::ALL.map(Stack::Tier).to_vec();
        let (stacks, topology, walk, mut observer) = match self {
            Campaign::Private(walk) => (tiers, Private, *walk, Observer::Tiers),
            Campaign::Shared => (tiers, Shared, Walk::Incremental, Observer::Divergence),
            Campaign::Rtr(cfg, slurm) => {
                (tiers, Shared, Walk::Incremental, Observer::Rtr(*cfg, slurm, None))
            }
            Campaign::Scheduled(plan) => {
                (vec![Stack::Scheduled(*plan)], Private, Walk::Cold, Observer::Schedule)
            }
            Campaign::Stalloris => {
                let stances = [RrdpMode::Trusting, RrdpMode::Verified].map(Stack::Rrdp).to_vec();
                (stances, Private, Walk::Cold, Observer::Stalloris(Stalloris::default()))
            }
        };
        let per_world = if topology == Shared { stacks.len() } else { 1 };
        let (name, rounds) = (spec.name.clone(), spec.rounds);
        let mut out = CampaignOutcome { name, seed, rounds, ..CampaignOutcome::default() };
        for rps in stacks.chunks(per_world) {
            // Stalloris reads the truth from the trusting stance's world,
            // which runs silent: the trace is the verified stance's.
            let silent = matches!(rps, [Stack::Rrdp(RrdpMode::Trusting)]);
            let recorder = if silent { Recorder::disabled() } else { recorder.clone() };
            let mut e = Engine::new(spec, seed, &recorder, rps, walk, topology);
            // Round 0 is the warm-up: caches, RRDP sessions and the
            // Suspenders baseline start from the healthy world.
            for round in 0..=spec.rounds {
                if round > 0 {
                    e.begin_round(round);
                    observer.observe(&mut e, Step::Before(round), &mut out);
                }
                let runs = e.validate_round(round);
                observer.observe(&mut e, Step::After(round, &runs), &mut out);
            }
            observer.observe(&mut e, Step::End, &mut out);
            out.tiers.extend(e.finish());
        }
        out
    }
}

/// Where in a world's run an observer looks.
#[derive(Clone, Copy)]
pub(crate) enum Step<'r> {
    /// A round's faults are set; nobody has validated yet.
    Before(usize),
    /// A round's runs are in, one per relying party (round 0: warm-up).
    After(usize, &'r [ValidationRun]),
    /// The world's last round is done.
    End,
}

/// What a campaign records beyond the tiers' own rows: one table of the
/// [`CampaignOutcome`] each.
enum Observer<'c> {
    /// The tiers' rows alone.
    Tiers,
    /// Cross-tier divergence each round, per-host load at the end.
    Divergence,
    /// The router rows of an RTR fabric attached after the warm-up.
    Rtr(RtrConfig, &'c SlurmFile, Option<RtrSide>),
    /// The scheduler's row each round, the world republished before it.
    Schedule,
    /// The Stalloris truth/monitor row.
    Stalloris(Stalloris),
}

impl Observer<'_> {
    fn observe(&mut self, e: &mut Engine<'_>, step: Step<'_>, out: &mut CampaignOutcome) {
        let (recorder, spec) = (e.w.net.recorder(), e.spec);
        let campaign = ("campaign", spec.name.as_str());
        match (self, step) {
            // The load ledger measures the rounds, not the warm-up.
            (Observer::Divergence, Step::After(0, _)) => {
                e.w.repos.iter().for_each(Repository::reset_served_load);
            }
            (Observer::Divergence, Step::After(round, runs)) => {
                let sets: Vec<BTreeSet<Vrp>> =
                    runs.iter().map(|run| run.vrps.iter().copied().collect()).collect();
                let mut d = DivergenceMetrics { round, ..DivergenceMetrics::default() };
                for (i, a) in sets.iter().enumerate() {
                    d.distinct_vrp_sets += usize::from(!sets[..i].contains(a));
                    for b in &sets[..i] {
                        let diff = a.symmetric_difference(b).count();
                        d.pairwise_diff_sum += diff;
                        d.max_pairwise_diff = d.max_pairwise_diff.max(diff);
                    }
                }
                recorder.observe("campaign.distinct_vrp_sets", d.distinct_vrp_sets as u64);
                let at = e.w.net.now();
                emit_row(&recorder, at, ("campaign", "divergence"), &[campaign], &d.columns());
                out.divergence.push(d);
            }
            (Observer::Divergence, Step::End) => {
                for repo in e.w.repos.iter() {
                    let (total, dirs) = (repo.served_total(), repo.served_load().len());
                    let host = repo.host().to_owned();
                    out.load.push(HostLoad {
                        host,
                        dirs,
                        frames: total.frames,
                        bytes: total.bytes,
                    });
                }
                out.load.sort_by(|a, b| a.host.cmp(&b.host));
                for h in &out.load {
                    let tags = [campaign, ("host", h.host.as_str())];
                    let columns =
                        [("dirs", h.dirs as u64), ("frames", h.frames), ("bytes", h.bytes)];
                    emit_row(&recorder, e.w.net.now(), ("campaign", "host_load"), &tags, &columns);
                }
            }
            (Observer::Rtr(cfg, slurm, side), Step::After(0, runs)) => {
                side.insert(RtrSide::attach(e, *cfg, slurm)).cycle(e, runs);
            }
            (Observer::Rtr(.., Some(side)), Step::After(round, runs)) => {
                side.cycle(e, runs);
                let m = side.measure(&e.w, round);
                recorder.count("rtr.stale_router_rounds", m.stale_routers as u64);
                recorder.observe("rtr.truth_distance", m.truth_distance_sum as u64);
                emit_row(&recorder, e.w.net.now(), ("rtr", "round"), &[campaign], &m.columns());
                out.rtr.push(m);
            }
            (Observer::Schedule, Step::Before(_)) => e.w.publish_all(Moment(e.w.net.now())),
            (Observer::Schedule, Step::After(round, runs)) if round > 0 => {
                let rs = e.rps[0].scheduler.last_run();
                let traced = [
                    ("round", round as u64),
                    ("fetched", rs.fetched),
                    ("deferred", rs.deferred),
                    ("time_used", rs.time_used),
                    ("max_served_age", rs.max_served_age),
                ];
                emit_row(&recorder, e.w.net.now(), ("campaign", "schedule_round"), &[], &traced);
                out.schedule.push(ScheduleRoundMetrics {
                    round,
                    vrps: runs[0].vrps.len(),
                    fetched: rs.fetched,
                    not_due: rs.not_due,
                    deferred: rs.deferred,
                    backoff_skips: rs.backoff_skips,
                    frames_used: rs.frames_used,
                    time_used: rs.time_used,
                    max_served_age: rs.max_served_age,
                });
            }
            (Observer::Stalloris(s), step) => s.observe(e, step, out),
            _ => {}
        }
    }
}

/// The fabric of a [`Campaign::Rtr`] run: one framed cache per tier, a
/// relay merging all five, and the routers behind the relay.
struct RtrSide {
    fabrics: Vec<RtrFabric>,
    relay: Relay,
    routers: Vec<RtrRouter>,
}

impl RtrSide {
    /// Adds the relay and router nodes to the engine's world and wires
    /// every relying party's cache to the relay.
    fn attach(e: &mut Engine<'_>, cfg: RtrConfig, slurm: &SlurmFile) -> RtrSide {
        let relay_node = e.w.net.add_node("rtr-relay");
        let mut relay = Relay::new(relay_node, cfg.policy, slurm.clone(), 100, RTR_MAX_HISTORY);
        let mut fabrics = Vec::with_capacity(e.rps.len());
        for (i, rp) in e.rps.iter().enumerate() {
            let mut f = RtrFabric::new(rp.node, (i + 1) as u16, RTR_MAX_HISTORY);
            f.attach(relay_node);
            fabrics.push(f);
            relay.add_feed(rp.node);
        }
        let router_nodes: Vec<NodeId> =
            (0..cfg.routers).map(|i| e.w.net.add_node(&format!("router-{i}"))).collect();
        let routers = router_nodes
            .iter()
            .map(|&node| {
                relay.attach(node);
                RtrRouter::new(node, relay_node)
            })
            .collect();
        e.rtr_path = Some((relay_node, router_nodes));
        RtrSide { fabrics, relay, routers }
    }

    /// One bounded RTR pump window over all fabric endpoints.
    fn pump(&mut self, net: &mut Network) {
        let deadline = net.now() + RTR_PUMP_BUDGET;
        let fabrics = self.fabrics.iter_mut().map(|f| f as &mut dyn RtrEndpoint);
        let routers = self.routers.iter_mut().map(|r| r as &mut dyn RtrEndpoint);
        let relay: &mut dyn RtrEndpoint = &mut self.relay;
        let mut endpoints: Vec<_> = fabrics.chain([relay]).chain(routers).collect();
        pump_until(net, deadline, &mut endpoints);
    }

    /// One publish → merge → sync cycle over the round's `runs` (the
    /// sequence [`Campaign::Rtr`] documents).
    fn cycle(&mut self, e: &mut Engine<'_>, runs: &[ValidationRun]) {
        let net = &mut e.w.net;
        for ((f, rp), run) in self.fabrics.iter_mut().zip(&e.rps).zip(runs) {
            f.publish(net, VrpUpdate::snapshot(rp.effective_vrps(run)));
        }
        self.relay.poll_feeds(net);
        self.pump(net);
        self.relay.republish(net);
        self.routers.iter_mut().for_each(|r| r.poll(net));
        self.pump(net);
        // Session timeout: every RTR frame still in flight is dead air,
        // which turns a stalled path into visible staleness.
        let relay = self.relay.node();
        self.fabrics.iter().for_each(|f| net.flush_pair(f.node(), relay));
        self.routers.iter().for_each(|r| net.flush_pair(relay, r.node()));
    }

    /// How far the router population sits from the relay and from the
    /// truth after `round`'s cycle.
    fn measure(&self, w: &World, round: usize) -> RtrRoundMetrics {
        // Truth: a perfect-transport walk of the repositories now —
        // what the authorities published, against what BGP acts on.
        let truth: BTreeSet<Vrp> =
            w.validate_direct(Moment(w.net.now())).vrps.into_iter().collect();
        let server = self.relay.target().server();
        let (relay_serial, relay_session) = (server.serial(), server.session());
        let mut m = RtrRoundMetrics { round, relay_serial, ..RtrRoundMetrics::default() };
        for r in &self.routers {
            // The router's own state, not the fabric's session table,
            // which records what was *served*, not what arrived.
            let client = r.client();
            let synced = client.session() == Some(relay_session);
            match synced.then(|| rpki_rp::serial_distance(client.serial(), relay_serial)) {
                Some(0) => m.synced_routers += 1,
                lag => {
                    m.stale_routers += 1;
                    m.max_serial_lag = m.max_serial_lag.max(lag.unwrap_or(0));
                }
            }
            let dist = r.vrps().symmetric_difference(&truth).count();
            m.truth_distance_sum += dist;
            m.max_truth_distance = m.max_truth_distance.max(dist);
        }
        m.relay_truth_distance = self.relay.merged().symmetric_difference(&truth).count();
        m
    }
}

/// The standard campaign suite the `ablation_resilience` binary runs.
/// All target Continental — the paper's Section 6 repository — so the
/// five Continental VRPs are the ones at stake each time.
pub fn standard_campaigns() -> Vec<CampaignSpec> {
    let c = |kind, from, to| FaultWindow::new(CONTINENTAL_HOST, kind, from, to);
    vec![
        CampaignSpec::new(
            "corruption-burst",
            12,
            vec![c(FaultKind::CorruptionBurst { prob: 0.4 }, 3, 8)],
        ),
        CampaignSpec::new("flapping-partition", 12, vec![c(FaultKind::Flapping, 3, 10)]),
        CampaignSpec::new("takedown", 12, vec![c(FaultKind::Takedown, 3, 8)]),
        CampaignSpec::new("slow-serve", 10, vec![c(FaultKind::Stall { extra: 3600 }, 3, 6)]),
        // Stalloris: the whack lands behind a frozen RRDP feed; the
        // verified rrdp tier detects the pin and downgrades to rsync.
        CampaignSpec::new(
            "stalloris-downgrade",
            12,
            vec![c(FaultKind::RrdpPin, 3, 8), c(FaultKind::Withdraw, 4, 6)],
        ),
        CampaignSpec::new(
            "mixed",
            24,
            vec![
                c(FaultKind::CorruptionBurst { prob: 0.35 }, 3, 7),
                c(FaultKind::Takedown, 10, 13),
                c(FaultKind::Withdraw, 16, 18),
                c(FaultKind::Stall { extra: 3600 }, 20, 22),
            ],
        ),
    ]
}

/// The standard RTR campaign: the feed path stalls Stalloris-style
/// while the authority whacks the covering ROA behind it — relying
/// parties see the whack on time, routers act on the pre-whack VRPs
/// until the stall lifts.
pub fn rtr_campaign() -> CampaignSpec {
    let windows = vec![
        FaultWindow::new("rtr", FaultKind::RtrStall { extra: 3600 }, 3, 5),
        FaultWindow::new(CONTINENTAL_HOST, FaultKind::Withdraw, 4, 6),
    ];
    CampaignSpec::new("rtr-stale-routers", 10, windows)
}

/// The schedule plan the gaming campaign's relying party runs under:
/// cadence clamps that keep every model point due each 30-minute
/// round, light jitter, and the scarce per-run time budget the
/// slow-serving authority games. One publication point served at
/// [`schedule_gaming_campaign`]'s delay burns the whole budget.
pub fn gaming_schedule_plan() -> SchedulePlan {
    SchedulePlan {
        min_refresh: 600,
        // Below the round cadence, so every point is due again by the
        // next round instead of drifting onto every-other-round beats.
        max_refresh: 1_200,
        jitter: 60,
        time_budget: Some(600),
        ..SchedulePlan::default()
    }
}

/// The schedule-gaming campaign: Sprint — second in the fixed
/// arin → sprint → etb → continental walk order — holds every response
/// 250 seconds over rounds 4–9, so the budgeted scheduler reaches ETB
/// and CONTINENTAL with nothing left to spend. 250 s is *under* the
/// default [`SyncPolicy`](rpki_repo::SyncPolicy)'s 300 s per-attempt
/// deadline, so no retry or breaker ever fires, yet one point's
/// exchanges burn [`gaming_schedule_plan`]'s whole 600 s run budget.
pub fn schedule_gaming_campaign() -> CampaignSpec {
    let slow = FaultKind::Stall { extra: 250 };
    let window = FaultWindow::new("rpki.sprint.example", slow, 4, 9);
    CampaignSpec::new("schedule-gaming", 12, vec![window])
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpki_repo::SyncPolicy;

    const CONTINENTAL: &str = CONTINENTAL_HOST;

    fn takedown_spec() -> CampaignSpec {
        CampaignSpec::new("t", 6, vec![FaultWindow::new(CONTINENTAL, FaultKind::Takedown, 2, 4)])
    }

    /// An untraced incremental private-world run.
    fn run(spec: &CampaignSpec, seed: u64) -> CampaignOutcome {
        Campaign::Private(Walk::Incremental).run(spec, seed, &Recorder::disabled())
    }

    #[test]
    fn takedown_separates_stale_cache_from_the_rest() {
        let out = run(&takedown_spec(), 42);
        let bare = out.tier(RpTier::Bare).totals;
        let retrying = out.tier(RpTier::Retrying).totals;
        let stale = out.tier(RpTier::RetryingStale).totals;
        // A hard outage defeats retries — but the snapshot bridges it.
        assert_eq!(bare.vrp_round_sum, retrying.vrp_round_sum);
        assert!(stale.vrp_round_sum > retrying.vrp_round_sum, "{stale:?} vs {retrying:?}");
        assert_eq!(stale.min_vrps, 8);
        assert!(stale.stale_dir_rounds >= 3, "{stale:?}");
        // Outside the window everyone is whole again.
        assert_eq!(out.tier(RpTier::Bare).rounds.last().unwrap().vrps, 8);
    }

    #[test]
    fn withdraw_separates_suspenders_from_stale_cache() {
        let spec = CampaignSpec::new(
            "w",
            6,
            vec![FaultWindow::new(CONTINENTAL, FaultKind::Withdraw, 2, 4)],
        );
        let out = run(&spec, 42);
        let stale = out.tier(RpTier::RetryingStale).totals;
        let susp = out.tier(RpTier::Suspenders).totals;
        // The stale cache must NOT bridge an authority-side removal…
        assert!(stale.min_vrps < 8, "{stale:?}");
        assert_eq!(stale.stale_dir_rounds, 0, "{stale:?}");
        // …and the hold-down must.
        assert_eq!(susp.min_vrps, 8, "{susp:?}");
        assert_eq!(susp.unknown_flips, 0, "{susp:?}");
    }

    #[test]
    #[should_panic(expected = "host rpki.sprint.example cannot take it")]
    fn withdraw_on_another_host_is_refused() {
        // The whack is Continental's covering ROA whatever the window
        // says, so a window naming Sprint would hit the wrong authority.
        let sprint = FaultWindow::new("rpki.sprint.example", FaultKind::Withdraw, 2, 3);
        run(&CampaignSpec::new("w-elsewhere", 4, vec![sprint]), 42);
    }

    #[test]
    fn churned_campaign_replays_identically_and_keeps_separations() {
        let spec = takedown_spec().with_churn(ChurnConfig::renew_only(400));
        let a = serde_json::to_string(&run(&spec, 7)).unwrap();
        let b = serde_json::to_string(&run(&spec, 7)).unwrap();
        assert_eq!(a, b, "churned campaigns replay byte-identical");
        // Renew-only churn keeps the VRP population fixed, so the
        // quiet campaign's separations survive under a live publication
        // workload: the stale cache still bridges the takedown, and the
        // RRDP tier absorbs the churn deltas without losing a VRP.
        let out = run(&spec, 42);
        assert_eq!(out.tier(RpTier::RetryingStale).totals.min_vrps, 8);
        assert_eq!(out.tier(RpTier::Rrdp).totals.min_vrps, 8);
        assert_eq!(out.tier(RpTier::Bare).rounds.last().unwrap().vrps, 8);
    }

    #[test]
    fn rrdp_tier_matches_suspenders_free_stack_on_transport_faults() {
        // A takedown hits transports equally: the rrdp tier falls back
        // to rsync (which is down too) and then to its stale cache, so
        // its availability equals the retrying+stale tier's.
        let out = run(&takedown_spec(), 42);
        let stale = out.tier(RpTier::RetryingStale).totals;
        let rrdp = out.tier(RpTier::Rrdp).totals;
        assert_eq!(rrdp.vrp_round_sum, stale.vrp_round_sum, "{rrdp:?} vs {stale:?}");
        assert_eq!(rrdp.min_vrps, 8);
        assert!(rrdp.rrdp_downgrades >= 3, "each outage round downgrades: {rrdp:?}");
        assert_eq!(stale.rrdp_downgrades, 0, "non-RRDP tiers never downgrade");
    }

    #[test]
    fn stalloris_campaign_verified_tier_sees_through_the_pin() {
        let spec = standard_campaigns()
            .into_iter()
            .find(|s| s.name == "stalloris-downgrade")
            .expect("stalloris spec present");
        let out = run(&spec, 42);
        let rrdp = out.tier(RpTier::Rrdp);
        // Pin rounds before the whack (round 3): the feed is stale but
        // content-identical, so nothing is lost and nothing downgrades
        // beyond the detection rounds.
        // Whack rounds (4–6): the verified tier detects the pin on the
        // Continental point and recovers the truth via rsync — the VRP
        // count drops to 7 like an honest world would show.
        for m in &rrdp.rounds[3..6] {
            assert_eq!(m.vrps, 7, "round {}: verified tier must see the whack", m.round);
            assert!(m.rrdp_downgrades >= 1, "round {}: pin must force a downgrade", m.round);
        }
        // After reissue (7–8, still pinned): truth is 8 again.
        for m in &rrdp.rounds[6..8] {
            assert_eq!(m.vrps, 8, "round {}", m.round);
        }
        // After unpin (9+): the feed heals, no more downgrades.
        for m in &rrdp.rounds[9..] {
            assert_eq!(m.vrps, 8, "round {}", m.round);
            assert_eq!(m.rrdp_downgrades, 0, "round {}: healed feed, no downgrade", m.round);
        }
        // The non-RRDP tiers fetch over rsync and are oblivious to the
        // pin: they see the plain withdraw window.
        let stale = out.tier(RpTier::RetryingStale).totals;
        assert_eq!(stale.min_vrps, 7);
        assert_eq!(stale.rrdp_downgrades, 0);
    }

    #[test]
    fn rrdp_withhold_forces_downgrades_without_data_loss() {
        let spec = CampaignSpec::new(
            "wh",
            6,
            vec![FaultWindow::new(CONTINENTAL, FaultKind::RrdpWithhold, 2, 4)],
        );
        let out = run(&spec, 42);
        let rrdp = out.tier(RpTier::Rrdp);
        // The rsync path keeps the tier whole through the withhold…
        assert_eq!(rrdp.totals.min_vrps, 8, "{:?}", rrdp.totals);
        // …at the cost of one downgrade per withheld round, and none
        // once the feed returns.
        assert_eq!(
            rrdp.rounds.iter().map(|m| m.rrdp_downgrades).collect::<Vec<_>>(),
            vec![0, 1, 1, 1, 0, 0]
        );
    }

    #[test]
    fn shared_campaign_measures_divergence_and_load() {
        let out = Campaign::Shared.run(&takedown_spec(), 42, &Recorder::disabled());
        assert_eq!(out.tiers.len(), RpTier::ALL.len());
        assert_eq!(out.divergence.len(), out.rounds);
        // During the takedown window the stale tier keeps serving while
        // bare/retrying lose the Continental VRPs: the tiers diverge.
        assert!(
            out.divergence.iter().any(|d| d.distinct_vrp_sets > 1 && d.max_pairwise_diff > 0),
            "{:?}",
            out.divergence
        );
        // Healthy rounds agree (the walk itself is deterministic).
        assert!(out.divergence.iter().any(|d| d.distinct_vrp_sets == 1), "{:?}", out.divergence);
        // Every host served someone; Continental took the fault traffic.
        assert!(out.load.iter().all(|h| h.frames > 0 && h.bytes > h.frames), "{:?}", out.load);
        assert!(out.load.iter().any(|h| h.host == "rpki.continental.example"));
        // The tier separation the per-tier campaign shows survives the
        // shared world: the snapshot cache bridges the outage.
        let stale = out.tier(RpTier::RetryingStale).totals;
        let bare = out.tier(RpTier::Bare).totals;
        assert!(stale.vrp_round_sum > bare.vrp_round_sum, "{stale:?} vs {bare:?}");
        // Deterministic replay, since every fault here is dice-free.
        let again = Campaign::Shared.run(&takedown_spec(), 42, &Recorder::disabled());
        assert_eq!(serde_json::to_string(&out).unwrap(), serde_json::to_string(&again).unwrap());
    }

    #[test]
    fn rtr_stall_makes_routers_stale_then_recovers() {
        // Intersection policy: the withdraw shrinks the merge the
        // moment any tier sees it, so the stalled feed path (rounds
        // 3–5) leaves routers acting on the pre-whack VRPs.
        let cfg = RtrConfig { routers: 4, policy: MergePolicy::All };
        let out =
            Campaign::Rtr(cfg, SlurmFile::empty()).run(&rtr_campaign(), 42, &Recorder::disabled());
        assert_eq!(out.rtr.len(), 10);

        // Healthy rounds: everyone synced, routers hold the truth.
        let r1 = &out.rtr[0];
        assert_eq!(r1.synced_routers, 4, "{r1:?}");
        assert_eq!(r1.stale_routers, 0, "{r1:?}");
        assert_eq!(r1.truth_distance_sum, 0, "{r1:?}");
        assert_eq!(r1.relay_truth_distance, 0, "{r1:?}");

        // The whack lands behind the stalled feed (round 4): the relay
        // knows, the routers cannot hear — every router is stale and
        // still holds the whacked VRP.
        let r4 = &out.rtr[3];
        assert_eq!(r4.stale_routers, 4, "{r4:?}");
        assert!(r4.max_serial_lag >= 1, "{r4:?}");
        assert_eq!(r4.truth_distance_sum, 4, "one whacked VRP per router: {r4:?}");
        assert_eq!(r4.relay_truth_distance, 0, "the relay itself kept up: {r4:?}");

        // The stall lifts at round 6: routers drain the delta history
        // and reconverge without a reset storm.
        let r6 = &out.rtr[5];
        assert_eq!(r6.synced_routers, 4, "{r6:?}");
        assert_eq!(r6.truth_distance_sum, 0, "{r6:?}");

        // After the reissue everyone is whole again.
        let last = out.rtr.last().unwrap();
        assert_eq!(last.synced_routers, 4, "{last:?}");
        assert_eq!(last.truth_distance_sum, 0, "{last:?}");
    }

    #[test]
    fn rtr_partition_blocks_even_resets() {
        let windows = vec![
            FaultWindow::new("rtr", FaultKind::RtrPartition, 2, 4),
            FaultWindow::new(CONTINENTAL, FaultKind::Withdraw, 2, 4),
        ];
        let spec = CampaignSpec::new("rtr-p", 6, windows);
        let cfg = RtrConfig { routers: 3, policy: MergePolicy::All };
        let out = Campaign::Rtr(cfg, SlurmFile::empty()).run(&spec, 42, &Recorder::disabled());
        // During the partition the routers hold the pre-whack set.
        let r2 = &out.rtr[1];
        assert_eq!(r2.stale_routers, 3, "{r2:?}");
        assert_eq!(r2.truth_distance_sum, 3, "{r2:?}");
        // Heal + reissue: converged again by the final round.
        let last = out.rtr.last().unwrap();
        assert_eq!(last.synced_routers, 3, "{last:?}");
        assert_eq!(last.truth_distance_sum, 0, "{last:?}");
        // The repository-side tiers never noticed the RTR fault.
        assert_eq!(out.tier(RpTier::Bare).totals.stale_dir_rounds, 0);
    }

    #[test]
    fn slow_serve_starves_victims_only_inside_the_window() {
        let spec = schedule_gaming_campaign();
        let out = Campaign::Scheduled(gaming_schedule_plan()).run(&spec, 7, &Recorder::disabled());
        let window = &spec.windows[0];
        // Tuned under the per-attempt deadline: a held answer is late,
        // not lost, so no attempt ever times out.
        let FaultKind::Stall { extra } = window.kind else { panic!("{window:?}") };
        assert!(extra < SyncPolicy::default().deadline.expect("the retry policy has a deadline"));
        let budget = gaming_schedule_plan().time_budget.expect("the gaming plan is budgeted");
        for r in &out.schedule {
            let in_window = window.from <= r.round && r.round <= window.to;
            assert!(
                in_window || r.deferred == 0,
                "round {}: no deferrals outside the slow-serve window ({r:?})",
                r.round
            );
            // The delay is armed with the window and cleared after it:
            // only held responses overrun the budget, and an overrun
            // is the only thing that defers.
            assert_eq!(r.deferred > 0, r.time_used > budget, "round {}: {r:?}", r.round);
        }
        // The slow host burns the budget on (at least) every other
        // window round — its own stretched fetch can push its next
        // deadline one round out, so alternation is legitimate.
        let window_len = window.to - window.from + 1;
        let starved = out.schedule.iter().filter(|r| r.deferred > 0).count();
        assert!(starved >= window_len / 2, "starved {starved} of {window_len} rounds: {out:?}");
        // Starvation costs freshness, not availability: deferred points
        // are served from the schedule snapshot, so the VRP set never
        // shrinks — but the served age climbs past a full round.
        assert!(out.schedule.iter().all(|r| r.vrps == 8), "{out:?}");
        assert!(out.schedule.iter().any(|r| r.max_served_age >= ROUND_SECS), "{out:?}");
        // Outside the window the budget is plentiful and nothing ages.
        let last = out.schedule.last().unwrap();
        assert_eq!(last.deferred, 0);
        assert_eq!(last.backoff_skips, 0, "slow is not down: no breaker may trip ({last:?})");
    }

    #[test]
    fn expired_window_does_not_disarm_an_armed_one_of_the_same_kind() {
        // Two same-kind windows on one host, rounds 1–2 and 3–4: at
        // round 3 one has expired and one is armed, and switching the
        // expired one off must not win, whichever is declared first.
        for kind in [FaultKind::Partition, FaultKind::Stall { extra: 900 }, FaultKind::Takedown] {
            for expired_first in [true, false] {
                let mut windows = vec![
                    FaultWindow::new(CONTINENTAL, kind, 1, 2),
                    FaultWindow::new(CONTINENTAL, kind, 3, 4),
                ];
                if !expired_first {
                    windows.reverse();
                }
                let spec = CampaignSpec::new("overlap", 5, windows);
                let bare = [Stack::Tier(RpTier::Bare)];
                let (rec, walk) = (Recorder::disabled(), Walk::Cold);
                let mut e = Engine::new(&spec, 1, &rec, &bare, walk, Topology::Private);
                let (repo, rp) = (e.repo_mut(CONTINENTAL).node(), e.w.rp_node);
                let armed = |e: &Engine<'_>| match kind {
                    FaultKind::Partition => e.w.net.faults.is_partitioned(rp, repo),
                    FaultKind::Stall { extra } => e.w.net.faults.stall_delay(repo, rp) == extra,
                    _ => e.w.net.faults.is_down(repo),
                };
                e.begin_round(3);
                assert!(armed(&e), "{kind:?}, expired_first={expired_first}: armed at round 3");
                e.begin_round(5);
                assert!(!armed(&e), "{kind:?}, expired_first={expired_first}: clear at round 5");
            }
        }
    }

    #[test]
    fn stateful_windows_of_one_kind_on_one_host_act_as_one() {
        let window = |kind, from, to| FaultWindow::new(CONTINENTAL, kind, from, to);
        // Pins at 2–3 and 4–6, declared in reverse, over a whack at
        // 5–6: the pin holds from round 2 to 6, so a trusting stance
        // never sees the whack — whichever window's release or
        // engagement comes first in declaration order.
        let pins = vec![
            window(FaultKind::RrdpPin, 4, 6),
            window(FaultKind::RrdpPin, 2, 3),
            window(FaultKind::Withdraw, 5, 6),
        ];
        let out =
            Campaign::Stalloris.run(&CampaignSpec::new("pins", 6, pins), 1, &Recorder::disabled());
        let record = out.downgrade.expect("a Stalloris run records the scenario");
        let trusting: Vec<usize> = record.rounds.iter().map(|m| m.trusting_vrps).collect();
        assert_eq!(trusting, [8; 6]);
        // Withdraws at 2–4 and 3–5: one withdrawal from round 2 to 5,
        // reissued at 6 — the second window must not whack again.
        let whacks = vec![window(FaultKind::Withdraw, 2, 4), window(FaultKind::Withdraw, 3, 5)];
        let out = run(&CampaignSpec::new("whacks", 6, whacks), 1);
        let bare: Vec<usize> = out.tier(RpTier::Bare).rounds.iter().map(|m| m.vrps).collect();
        assert_eq!(bare, [8, 7, 7, 7, 7, 8]);
    }

    #[test]
    fn standard_campaigns_are_well_formed() {
        let specs = standard_campaigns();
        assert_eq!(specs.len(), 6);
        for spec in specs.iter().chain([&rtr_campaign()]) {
            assert!(spec.rounds >= 1);
            for win in &spec.windows {
                assert!(win.from >= 1 && win.from <= win.to && win.to <= spec.rounds);
                // The one authority `engage` lets a Withdraw name.
                assert!(win.kind != FaultKind::Withdraw || win.host == CONTINENTAL);
                // Snapshot budget covers every transport window, so the
                // stale tier's bridging claim is meaningful throughout.
                let budget_rounds = (campaign_resilience().max_stale / ROUND_SECS) as usize;
                assert!(win.to - win.from < budget_rounds, "{}: window too long", spec.name);
            }
        }
    }
}
