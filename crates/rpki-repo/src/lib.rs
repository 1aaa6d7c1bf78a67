//! Distributed RPKI repositories and their retrieval protocol.
//!
//! RFC 6481 stores RPKI objects at *publication points*: directories
//! controlled by the **issuer** of the objects, spread across the
//! Internet, fetched out of band over rsync. Three consequences drive
//! the paper, and all three are modelled here:
//!
//! - An issuer can silently delete or overwrite anything in its own
//!   directory ([`Repository`] mutation APIs — Side Effect 2).
//! - A relying party sees only what the transport delivers: files can
//!   be missing or corrupted ([`client::sync_dir`] over `netsim` —
//!   Side Effect 6).
//! - A repository is itself a host with an IP address, so fetching from
//!   it depends on BGP ([`Repository::hosted_at`] + the netsim
//!   reachability oracle — Side Effect 7).
//!
//! Module layout: [`store`] (the at-rest file store plus the RRDP
//! publication logs maintained at write time), [`proto`] (wire messages
//! of the rsync-like list/get protocol), [`client`] (the fetch session
//! that pumps the event loop for both transports, and the rsync-like
//! sync, probe and retry driver on it), [`rrdp`] (the delta-based
//! RRDP transport: notification/snapshot/delta frames and the polling
//! client state machine, with the rsync path as its downgrade target),
//! [`pubd`] (the publication-server policies: snapshot compaction,
//! delta retention, and the server-side work/serve ledgers).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod proto;
pub mod pubd;
pub mod rrdp;
pub mod store;

pub use client::{
    doubled, probe_dir, sync_dir, sync_dir_with_policy, AttemptReport, DirProbe, FileFate,
    Freshness, RepoRegistry, SyncOutcome, SyncPolicy, SyncReport,
};
pub use proto::{RsyncRequest, RsyncResponse};
pub use pubd::{PubdPolicy, PubdServed, PubdWork, RetentionPolicy, SnapshotDoc, MAX_DELTAS};
pub use rrdp::{
    rrdp_probe_dir, rrdp_sync_dir, DeltaChange, DeltaRef, FallbackCause, RrdpClientState,
    RrdpError, RrdpRequest, RrdpResponse, RrdpStats, RrdpSyncKind,
};
pub use store::{DirLoad, Repository};
