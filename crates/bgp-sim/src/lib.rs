//! An AS-level BGP route-propagation simulator with RPKI policies.
//!
//! The paper's Sections 4–6 all end at the same question: *given some
//! RPKI state, which packets still arrive?* Answering it needs a BGP
//! substrate with three specific capabilities, which this crate
//! provides:
//!
//! - **Policy routing** ([`propagate()`]) — Gao–Rexford economics
//!   (prefer customer routes over peer over provider; export customer
//!   routes to everyone, everything else only to customers), shortest
//!   AS path, deterministic tie-breaks; computed to a fixed point.
//! - **RPKI local policy** ([`RpkiPolicy`]) — the two plausible
//!   policies of Section 5, `DropInvalid` and `DeprefInvalid`, plus an
//!   `Ignore` baseline, applied against an `rpki_rp::VrpCache`.
//! - **Longest-prefix-match forwarding** ([`RoutingState::forward`]) —
//!   the data plane, because subprefix hijacks are won at forwarding
//!   time, not in the RIB.
//!
//! Attack announcements (prefix and subprefix hijacks) are just extra
//! [`Announcement`]s — the simulator is agnostic about who is lying.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod forward;
pub mod propagate;
pub mod topology;

pub use forward::ForwardOutcome;
#[cfg(any(test, feature = "test-oracle"))]
pub use propagate::reference;
pub use propagate::{
    propagate, propagate_with_stats, Announcement, AsPath, ConvergenceError, ConvergenceStats,
    RoutingState, RpkiPolicy, SelectedRoute,
};
pub use topology::{Relationship, Topology, TopologyIndex};
