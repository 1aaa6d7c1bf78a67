//! The HotNets '13 manipulation toolkit: **ROA whacking**.
//!
//! > "We say that an RPKI manipulator *whacks* a target ROA, regardless
//! > whether this is accomplished by a known method … or by a new
//! > method …" — Section 3.
//!
//! This crate implements every whacking method the paper describes, as
//! *planners* that work from public information (the target's
//! publication points) and *executors* that drive a
//! [`rpki_ca::CertAuthority`] the manipulator controls:
//!
//! - **Revocation** (Side Effect 1) — transparent, auditable, blunt:
//!   revoking an RC kills its entire subtree.
//! - **Stealthy withdrawal** (Side Effect 2) — deletion from the
//!   issuer's own repository, no CRL trace.
//! - **Targeted carve-out** (Side Effect 3) — overwrite a child RC with
//!   one missing a sliver of the target ROA's space, chosen to overlap
//!   nothing else: the grandchild ROA over-claims and dies, with zero
//!   collateral damage.
//! - **Make-before-break** (Figure 3) — when no collateral-free sliver
//!   exists, first reissue the would-be-damaged descendants as the
//!   manipulator's own, then carve. Works to any depth (Side Effect 4),
//!   at the cost of more suspicious reissues.
//!
//! [`collateral`] quantifies the damage of each method, and [`monitor`]
//! implements the snapshot-diff monitoring scheme the paper poses as an
//! open problem — classifying repository churn into benign operations
//! and whacking signatures.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collateral;
pub mod corpus;
pub mod monitor;
pub mod view;
pub mod whack;

pub use collateral::{damage_between, probes_for, DamageReport};
pub use corpus::{poison, CorpusCase, CorpusKind};
pub use monitor::{
    ChangeKind, Classification, HostReport, MisbehaviorReport, Monitor, MonitorEvent,
    MonitorSnapshot, TransportEvidence,
};
pub use view::CaView;
pub use whack::{plan_whack, WhackError, WhackPlan, WhackStep};
