//! The four pipeline workloads, as plain data. Nothing here names a
//! foreign type: [`crate::seam`] turns a [`Spec`] into a world.

/// Simulated seconds between rounds: the relying party runs four times
/// a day. Every round's own simulated duration must stay below this
/// (asserted per round).
pub const CADENCE: u64 = 21_600;

/// One-way latency of an RTR link, in simulated seconds; publication
/// hosts sit one to three of these from the relying party.
pub const LINK_LATENCY: u64 = 1;

/// `topogen::Config::planet` yields `stubs + POINTS_OVERHEAD`
/// publication points (IANA, five RIRs, anchors and their customers,
/// 120 transits).
pub const POINTS_OVERHEAD: usize = 188;

/// Per-step background churn, per-mille of CAs per step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Churn {
    /// Chance a CA renews one ROA.
    pub renew_pm: u32,
    /// Chance a CA mints one ROA.
    pub add_pm: u32,
    /// Chance a CA withdraws one minted ROA.
    pub withdraw_pm: u32,
}

impl Churn {
    /// No background churn.
    pub const NONE: Churn = Churn { renew_pm: 0, add_pm: 0, withdraw_pm: 0 };

    /// Whether any rate is non-zero.
    pub fn is_active(&self) -> bool {
        *self != Churn::NONE
    }
}

/// How the relying party fetches and walks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RpStack {
    /// Trusting RRDP under the fetch scheduler, probe-mode incremental
    /// walk: the production steady state.
    ScheduledRrdp,
    /// No state at all: rsync every point, sharded cold walk.
    ColdRsyncSharded,
    /// Verified RRDP (rsync digest cross-check per sync), probe-mode
    /// incremental walk, every point polled every round.
    VerifiedRrdp,
}

/// One workload.
#[derive(Debug, Clone, Copy)]
pub struct Spec {
    /// Workload name, as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// Why the workload exists, in one line (`BENCHMARK.json` carries
    /// the same text).
    pub why: &'static str,
    /// `topogen::Config::planet` stub count.
    pub stubs: usize,
    /// Routers behind the relay.
    pub routers: usize,
    /// Whether routers drop their session and Reset Query every round.
    pub routers_reconnect: bool,
    /// Background churn.
    pub churn: Churn,
    /// The relying party's source stack and walk.
    pub rp: RpStack,
    /// ROAs whacked per round, give or take four by seed (and the
    /// previous round's restored).
    pub whacks: usize,
    /// Unmeasured rounds after the first full sync; part of `setup_s`.
    pub warmup_rounds: usize,
    /// Measured rounds. Fixed, so the sim-clock metrics repeat exactly.
    pub rounds: usize,
}

impl Spec {
    /// Publication points in the generated world.
    pub fn points(&self) -> usize {
        self.stubs + POINTS_OVERHEAD
    }

    /// The same workload on a 200-point world with few rounds: the
    /// `--smoke` size, small enough for `cargo test`.
    pub fn smoke(self) -> Spec {
        Spec {
            stubs: 200 - POINTS_OVERHEAD,
            routers: self.routers.min(20),
            whacks: self.whacks.min(8),
            warmup_rounds: 3,
            rounds: 8,
            ..self
        }
    }
}

/// Every measured workload has at least this many rounds, so the p90
/// of the per-round minima has at least ten samples beyond it.
pub const MIN_ROUNDS: usize = 110;

const BACKGROUND: Churn = Churn { renew_pm: 10, add_pm: 5, withdraw_pm: 5 };

/// The four workloads. Sizes are cut from the ROADMAP's scales to what
/// the driver's time cap affords (see `README.md`); round counts are
/// not.
pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "steady",
        why: "production steady state: 1% renew + 0.5% add + 0.5% withdraw under the fetch scheduler; \
             fixed per-round overhead (polls, scheduler, memo probes, dispatch) dominates, no stage above 70%",
        stubs: 1200 - POINTS_OVERHEAD,
        routers: 200,
        routers_reconnect: false,
        churn: BACKGROUND,
        rp: RpStack::ScheduledRrdp,
        whacks: 0,
        warmup_rounds: 12,
        rounds: MIN_ROUNDS,
    },
    Spec {
        name: "cold_restart",
        why: "RP and routers keep no state: rsync + sharded cold walk + RTR Reset Query; decode, \
             SHA-256, signatures and the walk dominate, scheduler/memo/RRDP deltas are bypassed",
        stubs: 240 - POINTS_OVERHEAD,
        routers: 10,
        routers_reconnect: true,
        churn: BACKGROUND,
        rp: RpStack::ColdRsyncSharded,
        whacks: 0,
        warmup_rounds: 12,
        rounds: MIN_ROUNDS,
    },
    Spec {
        name: "fanout",
        why: "500 routers, 10% renew + 5% add + 5% withdraw: RTR encode, per-router delta apply and netsim dispatch \
             dominate while validation is small; predicted flat on cold_restart",
        stubs: 200 - POINTS_OVERHEAD,
        routers: 500,
        routers_reconnect: false,
        churn: Churn { renew_pm: 100, add_pm: 50, withdraw_pm: 50 },
        rp: RpStack::ScheduledRrdp,
        whacks: 0,
        warmup_rounds: 12,
        rounds: MIN_ROUNDS,
    },
    Spec {
        name: "whack_bgp",
        why: "about 24 customer ROAs whacked and the last round's restored, under verified RRDP: \
             bgp-sim, the ipres trie and origin validation dominate; writes that shrink the VRP set",
        stubs: 450 - POINTS_OVERHEAD,
        routers: 10,
        routers_reconnect: false,
        churn: Churn::NONE,
        rp: RpStack::VerifiedRrdp,
        whacks: 24,
        warmup_rounds: 12,
        rounds: MIN_ROUNDS,
    },
];

/// Looks a workload up by name.
pub fn by_name(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}
