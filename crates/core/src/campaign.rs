//! Seeded fault campaigns: the `ablation_resilience` harness.
//!
//! A *campaign* is a deterministic schedule of repository faults —
//! corruption bursts, flapping partitions, takedowns, Stalloris-style
//! slow serves and RRDP pins, stealthy withdrawals — played against the
//! model world while five relying-party configurations validate on a
//! fixed cadence:
//!
//! 1. **bare** — one sync per directory, no timeouts (the RP the paper
//!    assumes);
//! 2. **retrying** — deadlines, exponential backoff, digest-checked
//!    retries ([`SyncPolicy`]);
//! 3. **retrying + stale cache** — plus last-good snapshot fallback and
//!    circuit breaking ([`ResilientState`]);
//! 4. **suspenders** — plus the hold-down fail-safe
//!    ([`SuspendersState`]) over the validated VRPs;
//! 5. **rrdp** — the resilient stack fetching over RRDP
//!    ([`RrdpSource`](rpki_rp::RrdpSource), verified mode) with the
//!    rsync path as its downgrade target.
//!
//! # The engine
//!
//! Every campaign is the same round loop, run by one private engine
//! that owns the world, its relying parties (each with its persistent
//! caches) and the background churn. Its steps, in the order every
//! driver calls them:
//!
//! - **new** — build the seeded world and install the recorder. A
//!   *private* world validates from its built-in relying-party node; a
//!   *shared* world adds one `rp-<tier>` node per tier.
//! - **warm-up** — one faultless validation per relying party, so
//!   snapshots, RRDP sessions and the Suspenders baseline reflect the
//!   healthy world.
//! - **begin round** — advance the clock to the round boundary
//!   ([`ROUND_SECS`]), apply one step of background churn, then switch
//!   every fault window off and the armed ones back on.
//! - **validate round** — every relying party validates through its
//!   stack; each tier's [`RoundMetrics`] row is recorded and emitted as
//!   a `campaign/round` event.
//! - **finish** — fold the rows into [`TierTotals`].
//!
//! The four entry points — [`run_campaign`] (a private world per
//! tier), [`run_shared_campaign`], [`run_rtr_campaign`] and
//! [`run_scheduled_campaign`] — are straight-line drivers over those
//! steps, each adding its own table to the one [`CampaignOutcome`].
//!
//! All metrics are integers, so serialized outcomes and traces are
//! byte-identical across runs of the same seed —
//! `tests/campaign_fingerprints.rs` pins a digest of every table and
//! trace of every entry point.
//!
//! The interesting separations the standard campaigns expose:
//!
//! - transport faults (corruption, partitions, takedowns) separate the
//!   first three tiers: retries repair lossy rounds, the stale cache
//!   bridges rounds where even retries fail;
//! - a **slow serve** separates *boundedness* from availability: the
//!   bare RP hangs until the stalled bytes arrive (counted available,
//!   hours late), the retrying RP times out and loses the round — only
//!   the stale cache gets both bounded time and availability;
//! - a **withdrawal** separates the stale cache from Suspenders: a
//!   complete sync that simply lacks a file updates the snapshot, so
//!   only the hold-down layer bridges authority-side removals.

use std::collections::BTreeSet;

use ipres::Prefix;
use netsim::{Network, NodeId};
use rpki_attacks::CorpusKind;
use rpki_ca::{ChurnConfig, ChurnEngine};
use rpki_objects::{Moment, RoaPrefix, Span};
use rpki_obs::Recorder;
use rpki_repo::{Freshness, Repository, RrdpClientState, SyncPolicy};
use rpki_rp::fabric::{pump_until, RtrEndpoint};
use rpki_rp::{
    MergePolicy, Relay, ResilienceConfig, ResilientState, Route, RouteValidity, RtrFabric,
    RtrRouter, SchedulePlan, SchedulerState, SlurmFile, UnsafeVrpPolicy, ValidationRun,
    ValidationState, Vrp, VrpCache, VrpUpdate,
};
use serde::Serialize;

use crate::fixtures::{asn, ModelRpki};
use crate::suspenders::{SuspendersConfig, SuspendersState};
use crate::validate::ValidationOptions;

/// Seconds between validation rounds (a 30-minute RP cadence; short
/// enough that a full campaign stays inside every manifest's one-day
/// validity window, so no republishing perturbs the schedule).
pub const ROUND_SECS: u64 = 1800;

/// One kind of repository fault a window can impose.
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
    Stall {
        /// Added one-way delay on repository→RP frames.
        extra: u64,
    },
    /// Schedule gaming ([`Repository::set_serve_delay`]): the
    /// repository itself holds every response for `extra` seconds
    /// before answering. Unlike [`Stall`](FaultKind::Stall) — a transport
    /// fault armed per RP pair — this is the authority's own serve
    /// latency, seen identically by every client, and tuned *under*
    /// the per-attempt deadline so nothing ever fails: the slow host
    /// just burns a budgeted fetch scheduler's time budget and starves
    /// the publication points behind it in the walk order.
    SlowServe {
        /// Seconds the repository sits on each response.
        extra: u64,
    },
    /// The authority stealthily withdraws Continental's covering `/20`
    /// ROA (file deleted, manifest regenerated — no revocation) for the
    /// window, then reissues it. An authority-side fault: transport
    /// defenses must *not* bridge it; Suspenders must. Continental is
    /// the only authority that can take it: a window naming another
    /// host is refused when it engages.
    Withdraw,
    /// Stalloris stale-data pinning: at the window's first round the
    /// host freezes its RRDP feed at the then-current state and replays
    /// it (notification, snapshot, deltas) until the window closes.
    /// Writes landing during the window — including a concurrent
    /// [`Withdraw`](FaultKind::Withdraw) — stay hidden from RRDP while
    /// rsync serves the truth. Only RRDP-preferring tiers are affected;
    /// a verified RRDP client detects the pin and downgrades.
    RrdpPin,
    /// The host refuses RRDP outright for the window (every request
    /// answered NotFound), forcing RRDP-preferring clients through the
    /// rsync downgrade path each round.
    RrdpWithhold,
    /// The authority publishes one adversarial corpus case
    /// ([`rpki_attacks::corpus`]) at the window's first round — signed
    /// with its own key, written through the publication log — and
    /// heals it with a fresh honest snapshot when the window closes.
    /// Tests pin that every tier survives this without panicking and
    /// that campaign metrics stay byte-identical across replays.
    AdversarialPublish {
        /// Which corpus family to publish.
        kind: CorpusKind,
    },
    /// A hard partition of the RTR feed path (relay ↔ every router):
    /// the relying parties stay perfectly synchronised while *routers*
    /// go deaf — the hop the repository fault kinds cannot reach. Only
    /// [`run_rtr_campaign`] interprets this; repository-only runners
    /// treat it as a no-op. The window's `host` is a label, not a
    /// repository lookup.
    RtrPartition,
    /// The RTR feed path serves, but `extra` seconds late (Stalloris
    /// moved one hop down): frames stalled past the per-round pump
    /// budget never arrive, the session times out, and routers act on
    /// yesterday's VRPs. Only [`run_rtr_campaign`] interprets this.
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
    /// Background CA churn applied to the world every round *before*
    /// that round's faults. `None` keeps repositories quiet between
    /// faults — the behaviour of every earlier campaign. The engine is
    /// seeded with the campaign seed, so per-tier worlds churn through
    /// byte-identical schedules and tiers stay comparable. Use
    /// [`ChurnConfig::renew_only`] for campaigns whose assertions
    /// depend on a fixed VRP population.
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
    /// What one tier saw in one round. All counts are integers so that the
    /// serialized campaign outcome is byte-identical across replays.
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
    /// validated VRP sets drifted apart. All integers, so serialized
    /// outcomes replay byte-identically.
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

/// Shape of the RTR fabric a [`run_rtr_campaign`] run attaches to the
/// shared world: a relay merging the five tier feeds, re-serving a
/// population of routers.
#[derive(Debug, Clone, Copy)]
pub struct RtrConfig {
    /// Routers behind the relay.
    pub routers: usize,
    /// Per-serial delta-history depth on every cache (tier fabrics and
    /// the relay's downstream target).
    pub max_history: usize,
    /// How the relay merges the five tier feeds.
    pub policy: MergePolicy,
    /// Seconds of simulated time each of the round's two RTR pump
    /// windows may consume. Frames stalled past the budget never
    /// arrive: the session times out (the pair is flushed) and the
    /// router stays stale until a later round reaches it.
    pub pump_budget: u64,
}

impl Default for RtrConfig {
    fn default() -> Self {
        RtrConfig { routers: 8, max_history: 16, policy: MergePolicy::Union, pump_budget: 300 }
    }
}

metrics_struct! {
    /// What the router population saw in one round. All integers, so the
    /// serialized outcome replays byte-identically.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
    pub struct RtrRoundMetrics {
        /// Round number (1-based).
        pub round: usize,
        /// The relay's downstream serial after this round's republish.
        pub relay_serial: u32,
        /// Routers whose serial equals the relay's.
        pub synced_routers: usize,
        /// Routers lagging the relay (behind by ≥1 serial, or never
        /// synced at all).
        pub stale_routers: usize,
        /// The largest serial lag among routers that have synced at least
        /// once (RFC 1982 distance).
        pub max_serial_lag: u32,
        /// Σ over routers of the symmetric difference between the router's
        /// VRP set and the perfect-transport truth at the round's moment.
        pub truth_distance_sum: usize,
        /// The single worst router's distance from truth.
        pub max_truth_distance: usize,
        /// Symmetric difference between the relay's merged (SLURM-applied)
        /// set and the truth — divergence the *relying-party* path
        /// contributed, before the router hop adds its own lag.
        pub relay_truth_distance: usize,
    }
}

/// One round of a scheduled campaign: what the scheduler did and how
/// stale the starved points got. All integers, so serialized outcomes
/// replay byte-identically.
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

/// The result of running one campaign at one seed. Every entry point
/// returns this type; a table the run did not produce is empty.
#[derive(Debug, Clone, Default, Serialize)]
pub struct CampaignOutcome {
    /// The campaign's name.
    pub name: String,
    /// The network seed used.
    pub seed: u64,
    /// Rounds per tier.
    pub rounds: usize,
    /// One trace per tier, in [`RpTier::ALL`] order (empty for
    /// [`run_scheduled_campaign`], whose relying party is no tier).
    pub tiers: Vec<TierOutcome>,
    /// Per-round cross-tier divergence ([`run_shared_campaign`]).
    pub divergence: Vec<DivergenceMetrics>,
    /// Per-host server-side load over the campaign rounds (warm-up
    /// excluded), in host order ([`run_shared_campaign`]).
    pub load: Vec<HostLoad>,
    /// Per-round router-population staleness and divergence
    /// ([`run_rtr_campaign`]).
    pub rtr: Vec<RtrRoundMetrics>,
    /// Per-round scheduler metrics, in round order
    /// ([`run_scheduled_campaign`]).
    pub schedule: Vec<ScheduleRoundMetrics>,
}

impl CampaignOutcome {
    fn empty(spec: &CampaignSpec, seed: u64) -> Self {
        let (name, rounds) = (spec.name.clone(), spec.rounds);
        CampaignOutcome { name, seed, rounds, ..CampaignOutcome::default() }
    }

    /// The trace of `tier`.
    pub fn tier(&self, tier: RpTier) -> &TierOutcome {
        self.tiers.iter().find(|t| t.tier == tier).expect("all tiers present")
    }
}

/// How [`run_campaign`]'s relying parties walk the tree each round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Walk {
    /// Revalidate against a persistent [`ValidationState`] (full-fetch
    /// mode, so the network sees exactly the traffic a cold walk
    /// would): unchanged publication points replay instead of
    /// re-verifying, without changing a byte of output.
    Incremental,
    /// A cold full walk every round — the oracle the incremental
    /// engine's output is tested against.
    Cold,
}

/// The repository host every standard campaign targets.
const CONTINENTAL_HOST: &str = "rpki.continental.example";

/// The retry policy every non-bare tier uses.
pub fn campaign_policy() -> SyncPolicy {
    SyncPolicy::default()
}

/// The resilience knobs the stale-cache tiers use: snapshots may bridge
/// up to six hours (12 rounds); three dead sessions open the circuit
/// for one round.
pub fn campaign_resilience() -> ResilienceConfig {
    ResilienceConfig { max_stale: 6 * 3600, failure_threshold: 3, cooldown: ROUND_SECS }
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
    let mut event = recorder.event(at, layer, kind);
    for &(key, value) in tags {
        event = event.str(key, value);
    }
    for &(key, value) in columns {
        event = event.u64(key, value);
    }
    event.emit();
}

/// The source stack a campaign relying party validates through.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Stack {
    /// One of the five ablation tiers.
    Tier(RpTier),
    /// Retries + RRDP under a fetch scheduler: the budgeted relying
    /// party [`run_scheduled_campaign`] starves.
    Scheduled(SchedulePlan),
    /// Retries + RRDP and nothing else — no stale cache to bridge a
    /// lie: the two stances [`crate::downgrade`] compares. `verify`
    /// cross-checks each sync against an rsync digest probe.
    Rrdp {
        /// Whether the feed's freshness is cross-checked.
        verify: bool,
    },
}

/// One relying party in a campaign: its network node, its stack, and
/// every piece of state that persists across its rounds.
pub(crate) struct Rp {
    node: NodeId,
    stack: Stack,
    /// The memo cache of an incremental walk; `None` walks cold.
    validation: Option<ValidationState>,
    resilient: ResilientState,
    suspenders: SuspendersState,
    /// Per-directory RRDP session state: what makes round N+1 a delta
    /// (or fast-path) sync of round N.
    pub(crate) rrdp: RrdpClientState,
    scheduler: SchedulerState,
    /// RRDP→rsync downgrades during the latest run.
    downgrades: u64,
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
            downgrades: 0,
            rounds: Vec::new(),
        }
    }

    /// One validation from this relying party's node through its
    /// stack, at the world's current moment.
    fn validate(&mut self, w: &mut ModelRpki, unsafe_vrps: UnsafeVrpPolicy) -> ValidationRun {
        w.rp_node = self.node;
        let before = self.rrdp.stats().downgrades;
        let policy = campaign_policy();
        let base = ValidationOptions::at(Moment(w.net.now())).unsafe_vrps(unsafe_vrps);
        let opts = match self.stack {
            Stack::Tier(RpTier::Bare) => base,
            Stack::Tier(RpTier::Retrying) => base.retry(policy),
            Stack::Tier(RpTier::RetryingStale) => {
                base.retry(policy).stale_cache(&mut self.resilient)
            }
            Stack::Tier(RpTier::Suspenders) => {
                base.retry(policy).stale_cache(&mut self.resilient).suspenders(&mut self.suspenders)
            }
            Stack::Tier(RpTier::Rrdp) => {
                base.retry(policy).rrdp(&mut self.rrdp).stale_cache(&mut self.resilient)
            }
            Stack::Scheduled(plan) => {
                base.retry(policy).rrdp(&mut self.rrdp).scheduled(plan, &mut self.scheduler)
            }
            Stack::Rrdp { verify: true } => base.retry(policy).rrdp(&mut self.rrdp),
            Stack::Rrdp { verify: false } => base.retry(policy).rrdp_trusting(&mut self.rrdp),
        };
        let opts = match self.validation.as_mut() {
            Some(state) => opts.incremental(state),
            None => opts,
        };
        let run = w.validate_with(opts);
        self.downgrades = self.rrdp.stats().downgrades - before;
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

    /// Classifies the announcements against the effective VRPs and
    /// records a tier's row for `round`, emitting it as a
    /// `campaign/round` event stamped `at`. Non-tier stacks record
    /// nothing here.
    fn record(
        &mut self,
        w: &ModelRpki,
        campaign: &str,
        round: usize,
        at: u64,
        run: &ValidationRun,
    ) {
        let Stack::Tier(tier) = self.stack else { return };
        let effective = self.effective_vrps(run);
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
        m.rrdp_downgrades = self.downgrades as usize;
        m.unsafe_vrps = run.unsafe_vrps.len();
        m.rejected_cas = run.rejected_cas.len();

        let recorder = w.net.recorder();
        recorder.count("campaign.rounds", 1);
        recorder.count("campaign.invalid_flips", m.invalid as u64);
        recorder.count("campaign.unknown_flips", m.unknown as u64);
        recorder.count("campaign.stale_dir_rounds", m.stale_dirs as u64);
        recorder.count("campaign.rrdp_downgrades", m.rrdp_downgrades as u64);
        recorder.observe("campaign.vrps_per_round", m.vrps as u64);
        let tags = [("campaign", campaign), ("tier", tier.label())];
        emit_row(&recorder, at, ("campaign", "round"), &tags, &m.columns());
        self.rounds.push(m);
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

/// The one campaign engine: a world, the relying parties validating it,
/// and everything that happens to it between rounds. Drivers call the
/// steps in order and interleave their own work between them.
pub(crate) struct Engine<'a> {
    spec: &'a CampaignSpec,
    pub(crate) w: ModelRpki,
    pub(crate) rps: Vec<Rp>,
    /// Indices of stateful windows currently engaged, so their
    /// activation and release each happen exactly once.
    engaged: BTreeSet<usize>,
    /// Background churn, seeded with the campaign seed: per-tier
    /// private worlds advance through byte-identical schedules, and
    /// every relying party of a shared world syncs the same serials.
    churn: Option<ChurnEngine>,
    /// The RTR feed path the RTR fault kinds act on — the relay and the
    /// routers behind it. `None` (a repository-only campaign) makes
    /// those kinds a no-op.
    rtr_path: Option<(NodeId, Vec<NodeId>)>,
}

impl<'a> Engine<'a> {
    fn new(spec: &'a CampaignSpec, seed: u64, recorder: &Recorder) -> Self {
        let mut w = ModelRpki::build_seeded(seed);
        w.net.set_recorder(recorder.clone());
        Engine {
            spec,
            w,
            rps: Vec::new(),
            engaged: BTreeSet::new(),
            churn: spec.churn.map(|cfg| ChurnEngine::new(seed, cfg)),
            rtr_path: None,
        }
    }

    /// A private world: one relying party at the world's built-in node.
    pub(crate) fn private(
        spec: &'a CampaignSpec,
        seed: u64,
        recorder: &Recorder,
        stack: Stack,
        walk: Walk,
    ) -> Self {
        let mut e = Engine::new(spec, seed, recorder);
        e.rps.push(Rp::new(e.w.rp_node, stack, walk));
        e
    }

    /// A shared world: every tier validates the same repositories from
    /// its own `rp-<label>` node, with its own persistent caches.
    fn shared(spec: &'a CampaignSpec, seed: u64, recorder: &Recorder) -> Self {
        let mut e = Engine::new(spec, seed, recorder);
        for tier in RpTier::ALL {
            let node = e.w.net.add_node(&format!("rp-{}", tier.label()));
            e.rps.push(Rp::new(node, Stack::Tier(tier), Walk::Incremental));
        }
        e
    }

    /// One faultless, unrecorded validation per relying party against
    /// the healthy world.
    pub(crate) fn warm_up(&mut self) -> Vec<ValidationRun> {
        let (w, spec) = (&mut self.w, self.spec);
        self.rps.iter_mut().map(|rp| rp.validate(w, spec.unsafe_vrps)).collect()
    }

    /// Opens `round`: clock, then churn, then faults.
    pub(crate) fn begin_round(&mut self, round: usize) {
        // Stalled sessions may overrun the boundary; `advance_to` is
        // monotone, so pacing simply resumes once they drain.
        self.w.net.advance_to(round as u64 * ROUND_SECS);
        if let Some(engine) = self.churn.as_mut() {
            self.w.run_churn(engine, Moment(self.w.net.now()));
        }
        // Every window off before any goes on: expired and flapping
        // windows heal, and an expired window cannot disarm an armed
        // one of the same kind on the same host.
        let spec = self.spec;
        for win in &spec.windows {
            self.set_fault(win, false);
        }
        for (i, win) in spec.windows.iter().enumerate() {
            let armed = win.armed(round);
            if armed {
                self.set_fault(win, true);
            }
            self.engage(i, win, armed);
        }
    }

    fn repo_mut(&mut self, host: &str) -> &mut Repository {
        self.w.repos.by_host_mut(host).expect("campaign host exists")
    }

    /// Switches one window's transport or serve fault on or off.
    /// Pairwise kinds act between the serving node and every client
    /// behind it: a repository host and each relying party, or — for
    /// the RTR kinds, whose `host` is only a label — the relay and each
    /// router.
    fn set_fault(&mut self, win: &FaultWindow, on: bool) {
        let (server, clients) = if win.kind.is_rtr() {
            let Some(path) = &self.rtr_path else { return };
            path.clone()
        } else {
            (self.repo_mut(&win.host).node(), self.rps.iter().map(|rp| rp.node).collect())
        };
        let faults = &mut self.w.net.faults;
        match win.kind {
            FaultKind::CorruptionBurst { prob } => {
                for &c in &clients {
                    faults.set_corruption(server, c, if on { prob } else { 0.0 });
                }
            }
            FaultKind::Partition | FaultKind::Flapping | FaultKind::RtrPartition => {
                for &c in &clients {
                    if on {
                        faults.partition(server, c);
                    } else {
                        faults.heal(server, c);
                    }
                }
            }
            FaultKind::Stall { extra } | FaultKind::RtrStall { extra } => {
                for &c in &clients {
                    faults.set_stall(server, c, if on { extra } else { 0 });
                }
            }
            FaultKind::Takedown => faults.set_down(server, on),
            FaultKind::SlowServe { extra } => {
                self.repo_mut(&win.host).set_serve_delay(if on { extra } else { 0 });
            }
            FaultKind::RrdpWithhold => self.repo_mut(&win.host).set_rrdp_offline(on),
            // Stateful: `engage` arms and releases these exactly once.
            FaultKind::RrdpPin | FaultKind::Withdraw | FaultKind::AdversarialPublish { .. } => {}
        }
    }

    /// Engages a stateful window (`RrdpPin`, `Withdraw`,
    /// `AdversarialPublish`) at its first armed round and releases it
    /// at the first round after — once each: re-arming a pin every
    /// round would re-capture the current state and defeat the point,
    /// and re-running a round must never re-mutate the repository.
    fn engage(&mut self, i: usize, win: &FaultWindow, armed: bool) {
        if !matches!(
            win.kind,
            FaultKind::RrdpPin | FaultKind::Withdraw | FaultKind::AdversarialPublish { .. }
        ) {
            return;
        }
        let start = armed && self.engaged.insert(i);
        let stop = !armed && self.engaged.remove(&i);
        if !start && !stop {
            return;
        }
        let now = Moment(self.w.net.now());
        match win.kind {
            FaultKind::RrdpPin if start => self.repo_mut(&win.host).rrdp_pin(),
            FaultKind::RrdpPin => self.repo_mut(&win.host).rrdp_unpin(),
            FaultKind::Withdraw if start => {
                assert_eq!(
                    win.host, CONTINENTAL_HOST,
                    "a Withdraw window whacks Continental's covering ROA; host {} cannot take it",
                    win.host
                );
                let file = self.w.covering_roa_file();
                self.w.continental.withdraw(&file).expect("covering ROA present");
                self.w.publish_all(now);
            }
            FaultKind::Withdraw => {
                let covering: Prefix = "63.174.16.0/20".parse().expect("literal");
                self.w
                    .continental
                    .issue_roa(asn::CONTINENTAL, vec![RoaPrefix::exact(covering)], now)
                    .expect("own space");
                self.w.publish_all(now);
            }
            // Seeded by the window index so concurrent windows of one
            // campaign draw distinct corpus streams.
            FaultKind::AdversarialPublish { kind } if start => {
                self.w.poison_host(&win.host, kind, i as u64, now).expect("campaign host exists");
            }
            // A fresh honest snapshot overwrites the poison and deletes
            // stray corpus files.
            _ => self.w.publish_all(now),
        }
    }

    /// Every relying party validates, in order; tiers record and emit
    /// their row. Returns the round's runs, one per relying party.
    pub(crate) fn validate_round(&mut self, round: usize) -> Vec<ValidationRun> {
        let (w, spec) = (&mut self.w, self.spec);
        self.rps
            .iter_mut()
            .map(|rp| {
                let at = w.net.now();
                let run = rp.validate(w, spec.unsafe_vrps);
                rp.record(w, &spec.name, round, at, &run);
                run
            })
            .collect()
    }

    /// The recorded tiers with their totals, in relying-party order.
    fn finish(self) -> Vec<TierOutcome> {
        let tier_of = |rp: Rp| match rp.stack {
            Stack::Tier(tier) => {
                Some(TierOutcome { tier, totals: tier_totals(&rp.rounds), rounds: rp.rounds })
            }
            Stack::Scheduled(_) | Stack::Rrdp { .. } => None,
        };
        self.rps.into_iter().filter_map(tier_of).collect()
    }
}

/// Runs `spec` at `seed` across all five tiers, each in its own freshly
/// seeded world — so tiers never contaminate each other's fault dice
/// and determinism is per `(campaign, seed, tier)` — reporting through
/// `recorder`: each tier's world gets the
/// recorder installed (so the whole netsim/repo/rp/suspenders event
/// stream lands in one trace), every round emits a `campaign/round`
/// event plus the campaign counters that the [`TierTotals`] integers
/// mirror, and every tier closes with a `campaign/tier_totals` event.
/// [`Walk::Incremental`] and [`Walk::Cold`] are byte-identical by
/// construction.
pub fn run_campaign(
    spec: &CampaignSpec,
    seed: u64,
    walk: Walk,
    recorder: &Recorder,
) -> CampaignOutcome {
    let mut out = CampaignOutcome::empty(spec, seed);
    for tier in RpTier::ALL {
        let mut e = Engine::private(spec, seed, recorder, Stack::Tier(tier), walk);
        e.warm_up();
        for round in 1..=spec.rounds {
            e.begin_round(round);
            e.validate_round(round);
        }
        let now = e.w.net.now();
        let t = e.finish().pop().expect("a private world has one tier");
        let tags = [("campaign", spec.name.as_str()), ("tier", tier.label())];
        emit_row(recorder, now, ("campaign", "tier_totals"), &tags, &t.totals.columns());
        out.tiers.push(t);
    }
    out
}

/// Runs `spec` at `seed` with all five tiers validating against **one**
/// shared repository world — the planet-scale deployment shape, where
/// thousands of relying parties hammer the same publication points —
/// instead of the per-tier clones [`run_campaign`] uses to isolate
/// fault dice. Each tier gets its own relying-party network node and
/// its own persistent caches. The outcome adds per-round cross-tier VRP
/// divergence and the server-side load ledger each host accumulated
/// over the campaign rounds.
///
/// Note the shared world is *not* metric-identical to the per-tier
/// worlds: probabilistic faults draw from one shared dice stream, so a
/// corruption burst that eats tier A's frame spares tier B's. That
/// asymmetry is the point — it is what the divergence metrics measure.
pub fn run_shared_campaign(spec: &CampaignSpec, seed: u64, recorder: &Recorder) -> CampaignOutcome {
    let mut e = Engine::shared(spec, seed, recorder);
    e.warm_up();
    // The load ledger measures the campaign proper, not the warm-up.
    for repo in e.w.repos.iter() {
        repo.reset_served_load();
    }

    let campaign = ("campaign", spec.name.as_str());
    let mut divergence = Vec::with_capacity(spec.rounds);
    for round in 1..=spec.rounds {
        e.begin_round(round);
        let runs = e.validate_round(round);
        let sets: Vec<BTreeSet<Vrp>> =
            runs.iter().map(|run| run.vrps.iter().copied().collect()).collect();
        let mut d = DivergenceMetrics { round, ..DivergenceMetrics::default() };
        for (i, a) in sets.iter().enumerate() {
            if !sets[..i].contains(a) {
                d.distinct_vrp_sets += 1;
            }
            for b in &sets[..i] {
                let diff = a.symmetric_difference(b).count();
                d.pairwise_diff_sum += diff;
                d.max_pairwise_diff = d.max_pairwise_diff.max(diff);
            }
        }
        recorder.observe("campaign.distinct_vrp_sets", d.distinct_vrp_sets as u64);
        emit_row(recorder, e.w.net.now(), ("campaign", "divergence"), &[campaign], &d.columns());
        divergence.push(d);
    }

    let mut load: Vec<HostLoad> =
        e.w.repos
            .iter()
            .map(|repo| {
                let total = repo.served_total();
                HostLoad {
                    host: repo.host().to_owned(),
                    dirs: repo.served_load().len(),
                    frames: total.frames,
                    bytes: total.bytes,
                }
            })
            .collect();
    load.sort_by(|a, b| a.host.cmp(&b.host));
    for h in &load {
        let tags = [campaign, ("host", h.host.as_str())];
        let columns = [("dirs", h.dirs as u64), ("frames", h.frames), ("bytes", h.bytes)];
        emit_row(recorder, e.w.net.now(), ("campaign", "host_load"), &tags, &columns);
    }
    CampaignOutcome { tiers: e.finish(), divergence, load, ..CampaignOutcome::empty(spec, seed) }
}

/// The RTR side of [`run_rtr_campaign`]: one framed cache per tier, a
/// relay merging all five, and the router population behind the relay.
struct RtrSide {
    fabrics: Vec<RtrFabric>,
    relay: Relay,
    routers: Vec<RtrRouter>,
    pump_budget: u64,
}

impl RtrSide {
    /// Adds the relay and router nodes to the engine's world and wires
    /// every relying party's cache to the relay.
    fn attach(e: &mut Engine<'_>, cfg: RtrConfig, slurm: &SlurmFile) -> RtrSide {
        let relay_node = e.w.net.add_node("rtr-relay");
        let mut relay = Relay::new(relay_node, cfg.policy, slurm.clone(), 100, cfg.max_history);
        let mut fabrics = Vec::with_capacity(e.rps.len());
        for (i, rp) in e.rps.iter().enumerate() {
            let mut f = RtrFabric::new(rp.node, (i + 1) as u16, cfg.max_history);
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
        RtrSide { fabrics, relay, routers, pump_budget: cfg.pump_budget }
    }

    /// One bounded RTR pump window over all fabric endpoints.
    fn pump(&mut self, net: &mut Network) {
        let deadline = net.now() + self.pump_budget;
        let mut endpoints: Vec<&mut dyn RtrEndpoint> =
            Vec::with_capacity(self.fabrics.len() + self.routers.len() + 1);
        for f in self.fabrics.iter_mut() {
            endpoints.push(f);
        }
        endpoints.push(&mut self.relay);
        for r in self.routers.iter_mut() {
            endpoints.push(r);
        }
        pump_until(net, deadline, &mut endpoints);
    }

    /// One publish → merge → sync cycle over the round's `runs` (the
    /// sequence [`run_rtr_campaign`] documents).
    fn cycle(&mut self, e: &mut Engine<'_>, runs: &[ValidationRun]) {
        let net = &mut e.w.net;
        for ((f, rp), run) in self.fabrics.iter_mut().zip(&e.rps).zip(runs) {
            f.publish(net, VrpUpdate::snapshot(rp.effective_vrps(run)));
        }
        self.relay.poll_feeds(net);
        self.pump(net);
        self.relay.republish(net);
        for r in &mut self.routers {
            r.poll(net);
        }
        self.pump(net);
        // Session timeout: every RTR frame still in flight (tier→relay
        // and relay→router, both directions) is dead air, which turns a
        // stalled path into visible staleness.
        for f in &self.fabrics {
            net.flush_pair(f.node(), self.relay.node());
        }
        for r in &self.routers {
            net.flush_pair(self.relay.node(), r.node());
        }
    }

    /// How far the router population sits from the relay and from the
    /// truth after `round`'s cycle.
    fn measure(&self, w: &ModelRpki, round: usize) -> RtrRoundMetrics {
        // Truth: a perfect-transport walk of the repositories as they
        // stand now. Router divergence from it is the paper's bottom
        // line — what BGP actually acts on versus what the authorities
        // published.
        let truth: BTreeSet<Vrp> =
            w.validate_direct(Moment(w.net.now())).vrps.into_iter().collect();
        let server = self.relay.target().server();
        let (relay_serial, relay_session) = (server.serial(), server.session());
        let mut m = RtrRoundMetrics { round, relay_serial, ..RtrRoundMetrics::default() };
        for r in &self.routers {
            // Ground truth from the router's own state machine — the
            // fabric's session table is optimistic under frame loss
            // (it records what was *served*, not what arrived).
            let client = r.client();
            if client.session() == Some(relay_session) {
                let lag = rpki_rp::serial_distance(client.serial(), relay_serial);
                if lag == 0 {
                    m.synced_routers += 1;
                } else {
                    m.stale_routers += 1;
                    m.max_serial_lag = m.max_serial_lag.max(lag);
                }
            } else {
                m.stale_routers += 1;
            }
            let dist = r.vrps().symmetric_difference(&truth).count();
            m.truth_distance_sum += dist;
            m.max_truth_distance = m.max_truth_distance.max(dist);
        }
        m.relay_truth_distance = self.relay.merged().symmetric_difference(&truth).count();
        m
    }
}

/// Runs `spec` at `seed` with the five tiers validating a **shared**
/// world *and* feeding an RTR fabric: each tier publishes its validated
/// VRPs into its own framed RTR cache, an rtrtr-style relay merges the
/// five feeds under `rtr.policy` (SLURM exceptions via `slurm`), and
/// `rtr.routers` routers sync from the relay over netsim — so the
/// repository fault kinds *and* the RTR fault kinds
/// ([`FaultKind::RtrPartition`], [`FaultKind::RtrStall`]) land on one
/// deterministic timeline.
///
/// Each round: faults are armed, every tier validates (the RTR queue is
/// empty while repository syncs drive the network), every tier fabric
/// publishes its snapshot, the relay polls its feeds and republishes
/// the merge, every router polls, and two bounded pump windows
/// (`rtr.pump_budget` each) carry the frames. Frames still in flight
/// after the second window are flushed — the session-timeout model —
/// so a stalled RTR path yields visibly stale routers instead of a
/// silently extended round.
pub fn run_rtr_campaign(
    spec: &CampaignSpec,
    seed: u64,
    rtr: RtrConfig,
    slurm: &SlurmFile,
    recorder: &Recorder,
) -> CampaignOutcome {
    let mut e = Engine::shared(spec, seed, recorder);
    let mut side = RtrSide::attach(&mut e, rtr, slurm);
    // The warm-up is one full faultless cycle — validate, publish,
    // merge, sync — so round 1 starts from converged routers.
    let runs = e.warm_up();
    side.cycle(&mut e, &runs);

    let campaign = ("campaign", spec.name.as_str());
    let mut rows = Vec::with_capacity(spec.rounds);
    for round in 1..=spec.rounds {
        e.begin_round(round);
        let runs = e.validate_round(round);
        side.cycle(&mut e, &runs);
        let m = side.measure(&e.w, round);
        recorder.count("rtr.stale_router_rounds", m.stale_routers as u64);
        recorder.observe("rtr.truth_distance", m.truth_distance_sum as u64);
        emit_row(recorder, e.w.net.now(), ("rtr", "round"), &[campaign], &m.columns());
        rows.push(m);
    }
    CampaignOutcome { tiers: e.finish(), rtr: rows, ..CampaignOutcome::empty(spec, seed) }
}

/// Runs `spec` at `seed` with a single scheduled relying party
/// (RRDP + retries under `plan`). Every round republishes the whole
/// world, so each publication point's content moves at the round
/// cadence and the scheduler must keep fetching — the run budget, not
/// quiescence, is what rations the wire. Per-round scheduler counters
/// come from [`SchedulerState::last_run`]; a `campaign/schedule_round`
/// event lands in `recorder` per round.
pub fn run_scheduled_campaign(
    spec: &CampaignSpec,
    seed: u64,
    plan: SchedulePlan,
    recorder: &Recorder,
) -> CampaignOutcome {
    let mut e = Engine::private(spec, seed, recorder, Stack::Scheduled(plan), Walk::Cold);
    // The warm-up already runs scheduled, so every point has a schedule
    // entry and a snapshot before budgets start to bite (first contacts
    // are exempt from the budget by design).
    e.warm_up();

    let mut schedule = Vec::with_capacity(spec.rounds);
    for round in 1..=spec.rounds {
        e.begin_round(round);
        e.w.publish_all(Moment(e.w.net.now()));
        let runs = e.validate_round(round);
        let rs = e.rps[0].scheduler.last_run();
        let traced = [
            ("round", round as u64),
            ("fetched", rs.fetched),
            ("deferred", rs.deferred),
            ("time_used", rs.time_used),
            ("max_served_age", rs.max_served_age),
        ];
        emit_row(recorder, e.w.net.now(), ("campaign", "schedule_round"), &[], &traced);
        schedule.push(ScheduleRoundMetrics {
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
    CampaignOutcome { schedule, ..CampaignOutcome::empty(spec, seed) }
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
        // The Stalloris scenario: the RRDP feed freezes, then the
        // authority whacks the covering ROA behind the frozen view. A
        // trusting RRDP client never sees the whack; the verified rrdp
        // tier detects the pin each round and downgrades to rsync for
        // the truth.
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
        // Below the round cadence, so a point fetched early in one
        // round is always due again by the next and the schedule stays
        // round-aligned instead of drifting onto every-other-round
        // beats.
        max_refresh: 1_200,
        jitter: 60,
        time_budget: Some(600),
        ..SchedulePlan::default()
    }
}

/// The schedule-gaming campaign: Sprint — second in the fixed
/// arin → sprint → etb → continental walk order — holds every response
/// 250 seconds over rounds 4–9, so the budgeted scheduler reaches ETB
/// and CONTINENTAL with nothing left to spend. 250 s is tuned *under*
/// the 300 s per-attempt deadline ([`campaign_policy`]): a served-late
/// answer still counts as a success, so no retry or breaker ever
/// fires, yet one publication point's worth of exchanges burns
/// [`gaming_schedule_plan`]'s whole 600 s run budget.
pub fn schedule_gaming_campaign() -> CampaignSpec {
    let slow = FaultKind::SlowServe { extra: 250 };
    let window = FaultWindow::new("rpki.sprint.example", slow, 4, 9);
    CampaignSpec::new("schedule-gaming", 12, vec![window])
}

#[cfg(test)]
mod tests {
    use super::*;

    const CONTINENTAL: &str = CONTINENTAL_HOST;

    fn takedown_spec() -> CampaignSpec {
        CampaignSpec::new("t", 6, vec![FaultWindow::new(CONTINENTAL, FaultKind::Takedown, 2, 4)])
    }

    /// An untraced incremental private-world run.
    fn run(spec: &CampaignSpec, seed: u64) -> CampaignOutcome {
        run_campaign(spec, seed, Walk::Incremental, &Recorder::disabled())
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
        let out = run_shared_campaign(&takedown_spec(), 42, &Recorder::disabled());
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
        let again = run_shared_campaign(&takedown_spec(), 42, &Recorder::disabled());
        assert_eq!(serde_json::to_string(&out).unwrap(), serde_json::to_string(&again).unwrap());
    }

    #[test]
    fn rtr_stall_makes_routers_stale_then_recovers() {
        // Intersection policy: the withdraw shrinks the merge the
        // moment any tier sees it, so the stalled feed path (rounds
        // 3–5) leaves routers acting on the pre-whack VRPs.
        let cfg = RtrConfig { routers: 4, policy: MergePolicy::All, ..RtrConfig::default() };
        let out =
            run_rtr_campaign(&rtr_campaign(), 42, cfg, &SlurmFile::empty(), &Recorder::disabled());
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
        let cfg = RtrConfig { routers: 3, policy: MergePolicy::All, ..RtrConfig::default() };
        let out = run_rtr_campaign(&spec, 42, cfg, &SlurmFile::empty(), &Recorder::disabled());
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
        let out = run_scheduled_campaign(&spec, 7, gaming_schedule_plan(), &Recorder::disabled());
        let window = &spec.windows[0];
        // Tuned under the per-attempt deadline: a held answer is late,
        // not lost, so no attempt ever times out.
        let FaultKind::SlowServe { extra } = window.kind else { panic!("{window:?}") };
        assert!(extra < campaign_policy().deadline.expect("the campaign policy has a deadline"));
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
                let bare = Stack::Tier(RpTier::Bare);
                let mut e = Engine::private(&spec, 1, &Recorder::disabled(), bare, Walk::Cold);
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
