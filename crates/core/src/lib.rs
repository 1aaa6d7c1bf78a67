//! `rpki-risk` — the analysis framework for *On the Risk of Misbehaving
//! RPKI Authorities* (HotNets '13).
//!
//! The substrate crates give us a working RPKI (objects, CAs,
//! repositories, relying parties) and a working BGP (policy routing,
//! forwarding). This crate asks the paper's questions of them:
//!
//! - [`fixtures`] — one live world type, [`World`]: CAs, repositories,
//!   a network, a relying party and an AS topology. [`World::model`]
//!   reconstructs the Figure 2 model RPKI (ARIN → Sprint → {ETB,
//!   Continental Broadband}, eight ROAs, four hosts, the AS topology
//!   and announcements); [`World::tree`] grows a synthetic CA tree on
//!   one host for churn and scale experiments.
//! - [`grid`] — Figure 5's route-validity grids: classify every
//!   subprefix × origin against a VRP cache and collapse the result
//!   into readable bands.
//! - [`tradeoff`] — Table 6: prefix reachability during a routing
//!   attack vs during an RPKI manipulation, under each local policy.
//! - [`jurisdiction`] — Table 4: walk the allocation tree of a
//!   synthetic Internet and find RCs covering countries outside their
//!   parent RIR's region.
//! - [`loopback`] — Section 6 / Figure 1: the RPKI⇆BGP fixed point,
//!   where route validity gates repository reachability gates route
//!   validity; demonstrates how one transient fault becomes persistent.
//! - [`side_effects`] — quantifiers for Side Effect 5 (a new ROA
//!   invalidates covered routes) and Side Effect 6 (a missing ROA
//!   flips valid routes to invalid).
//! - [`suspenders`] — a fail-safe relying-party layer implementing the
//!   hardening direction the paper's conclusion cites
//!   (draft-kent-sidr-suspenders): hold VRPs that vanish without
//!   evidence, so whacks stop translating into instant outages.
//! - [`validate`] — the single validation entry point:
//!   [`ValidationOptions`] names the relying-party layers (retries,
//!   RRDP, stale cache, fetch scheduler, Suspenders, the incremental
//!   walk) and [`ValidationOptions::run`] chains them into one source
//!   stack at a [`VantagePoint`] and runs it, reporting through the
//!   network's observability recorder; [`World::validate_with`] and
//!   the loopback's per-iteration walk are that call.
//! - [`campaign`] — seeded fault campaigns comparing relying-party
//!   configurations (bare / retrying / stale-cache / Suspenders /
//!   RRDP) on VRP availability and validity flips under scheduled
//!   repository faults: one round loop, [`Campaign::run`], over a
//!   spec, the relying parties' stacks, a world topology (a private
//!   world per relying party, or one shared world) and an observer
//!   (tiers alone, divergence and host load, the RTR fabric, the
//!   schedule, the Stalloris row), returning one [`CampaignOutcome`];
//!   the harness behind the `ablation_resilience` experiment.
//! - [`downgrade`] — the Stalloris scenario: a stealthy withdrawal
//!   executed behind a pinned RRDP feed — its spec, and the observer
//!   that measures it against trusting, verified, and at-rest
//!   relying-party stances; the harness behind the
//!   `ablation_downgrade` experiment.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod downgrade;
pub mod fixtures;
pub mod grid;
pub mod jurisdiction;
pub mod loopback;
pub mod side_effects;
pub mod suspenders;
pub mod tradeoff;
pub mod validate;

pub use campaign::{
    gaming_schedule_plan, rtr_campaign, schedule_gaming_campaign, standard_campaigns, Campaign,
    CampaignOutcome, CampaignSpec, DivergenceMetrics, FaultKind, FaultWindow, HostLoad,
    RoundMetrics, RpTier, RtrConfig, RtrRoundMetrics, ScheduleRoundMetrics, TierOutcome,
    TierTotals, Walk,
};
pub use downgrade::{stalloris_campaign, DowngradeRecord, DowngradeRound, DowngradeSchedule};
pub use fixtures::{World, MODEL_SEED};
pub use grid::{collapse_bands, validity_grid, Band, GridRow};
pub use jurisdiction::{
    jurisdiction_report, rir_reach, JurisdictionReport, JurisdictionRow, RirReach,
};
pub use loopback::{LoopbackOutcome, LoopbackWorld};
pub use side_effects::{se5_new_roa_impact, se6_missing_roa_impact, Se5Impact, Se6Impact};
pub use suspenders::{SuspendersConfig, SuspendersEvent, SuspendersState};
pub use tradeoff::{policy_tradeoff, ScenarioOutcome, TradeoffTable};
pub use validate::{Fetch, RrdpMode, ValidationOptions, VantagePoint};
