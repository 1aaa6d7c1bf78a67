//! `rpki-pubd`: the publication-server subsystem.
//!
//! PR 9 made the *client* side of RRDP production-shaped (the
//! notification-cadence fetch scheduler); this module does the same for
//! the *server* side. Production publication servers (krill's `pubd`,
//! the RIR-operated repositories) do not re-derive the snapshot
//! document from at-rest files on every request, and they do not bound
//! delta history by a guessed constant. They run two policies:
//!
//! - **Compaction** ([`PubdPolicy::compaction_interval`]): the
//!   serialized snapshot document is *materialised* every N serials and
//!   cached ([`SnapshotDoc`]). Between materialisations the
//!   notification keeps advertising the last materialised snapshot plus
//!   the *bridge deltas* that carry a snapshot-fallback client from the
//!   materialisation serial up to the head. Interval 1 is
//!   rebuild-on-demand — today's degenerate behaviour.
//! - **Retention** ([`RetentionPolicy`]): how much delta history the
//!   log keeps. The RFC 8182 §3.3.2 tradeoff lives here: too little
//!   history pushes behind clients onto expensive snapshot fallback
//!   (the starvation lever Stalloris pulls deliberately), too much
//!   blows up log storage. Count- and byte-budgeted variants are both
//!   available; the count-32 default reproduces the old hardcoded
//!   `MAX_DELTAS` behaviour byte-identically.
//!
//! The two policies interlock through one invariant the client state
//! machine relies on: **bridge deltas are never evicted**. When a
//! retention budget would have to drop a delta younger than the
//! materialised snapshot, the log instead *forces* a re-materialisation
//! at the head serial first (a [`PubdWork::forced_builds`] event) and
//! then evicts — so the measurable cost of an undersized budget is
//! extra snapshot builds, never a torn feed.
//!
//! Every build and eviction is counted in [`PubdWork`] and surfaced as
//! `pubd/materialise` and `pubd/evict` obs events when the repository
//! carries a recorder; the serve side splits wire bytes per document
//! kind in [`PubdServed`]. `bench_pubd` sweeps history depth × churn ×
//! compaction interval over these counters to locate the crossover
//! where fallback traffic overtakes log storage.

mod compaction;
mod retention;

pub(crate) use compaction::snapshot_document;
pub use compaction::{PubdServed, PubdWork, SnapshotDoc};
pub use retention::{RetentionPolicy, MAX_DELTAS};

/// The serving policy of one repository host: how often the snapshot
/// document is materialised and how much delta history is retained.
/// The default (`interval 1` + count-32 retention) reproduces the
/// pre-`pubd` server byte for byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PubdPolicy {
    /// Materialise the serialized snapshot document every this many
    /// serials (minimum 1). Between materialisations, snapshot-fallback
    /// clients fetch the last materialised document and bridge forward
    /// over the advertised deltas.
    pub compaction_interval: u64,
    /// How much delta history the publication log retains.
    pub retention: RetentionPolicy,
}

impl Default for PubdPolicy {
    fn default() -> Self {
        PubdPolicy { compaction_interval: 1, retention: RetentionPolicy::default() }
    }
}

impl PubdPolicy {
    /// A compacting policy: materialise every `interval` serials.
    pub fn compacted(interval: u64) -> Self {
        assert!(interval >= 1, "compaction interval must be at least 1");
        PubdPolicy { compaction_interval: interval, ..PubdPolicy::default() }
    }

    /// Replaces the retention policy.
    pub fn with_retention(mut self, retention: RetentionPolicy) -> Self {
        self.retention = retention;
        self
    }
}

/// One server-side decision taken while recording a write, reported up
/// to the [`Repository`](crate::Repository) so it can emit obs events
/// with its clock and recorder.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum PubdEvent {
    /// The snapshot document was (re)built at `serial`.
    Materialised {
        /// The serial the document represents.
        serial: u64,
        /// Size of the serialized document.
        bytes: u64,
        /// True when a retention budget forced the build (the budget
        /// demanded evicting a bridge delta).
        forced: bool,
    },
    /// One delta document left the retained history.
    Evicted {
        /// The serial the evicted delta advanced to.
        serial: u64,
        /// Size of the evicted canonical delta document.
        bytes: u64,
    },
}
