//! Failure accounting: what counts as an attempted check, what counts
//! as a failed one, and the ledger that follows every VRP-changing
//! authority action until every router has seen it.

use std::collections::BTreeMap;

use crate::seam::VrpKey;

/// Checks attempted and failed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Checks made.
    pub attempted: u64,
    /// Checks that did not hold.
    pub failed: u64,
}

impl Tally {
    /// Books one check.
    pub fn note(&mut self, held: bool) {
        self.attempted += 1;
        self.failed += u64::from(!held);
    }

    /// Adds another tally in.
    pub fn absorb(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }
}

/// An authority action not yet seen by the routers.
#[derive(Debug, Clone, Copy)]
struct Pending {
    appeared: bool,
    published_at: u64,
}

/// Follows each VRP-changing authority action from its
/// `publish_snapshot` to the instant the last router's VRP set reflects
/// it. All times are simulated seconds.
#[derive(Debug, Default)]
pub struct ActionLedger {
    pending: BTreeMap<VrpKey, Pending>,
    /// Publish → last-router latency of every action observed.
    pub latencies: Vec<u64>,
    /// Actions undone by the authority before the relying party's
    /// schedule ever looked (added then withdrawn, or the reverse):
    /// no router could have seen them, so they are not attempts.
    pub superseded: u64,
    /// One check per observed action (within the limit?), plus one per
    /// delta entry no action explains.
    pub tally: Tally,
}

impl ActionLedger {
    /// Books the actions one authority step published at
    /// `published_at`: each key appeared (`true`) or disappeared.
    pub fn published(&mut self, events: &[(VrpKey, bool)], published_at: u64) {
        for &(key, appeared) in events {
            match self.pending.get(&key) {
                Some(p) if p.appeared != appeared => {
                    self.pending.remove(&key);
                    self.superseded += 1;
                }
                Some(_) => {}
                None => {
                    self.pending.insert(key, Pending { appeared, published_at });
                }
            }
        }
    }

    /// Books a delta the relying party produced, once every router had
    /// applied it at `converged_at`. An action later than `limit`
    /// fails; so does a delta entry no published action explains.
    pub fn observed(
        &mut self,
        announced: &[VrpKey],
        withdrawn: &[VrpKey],
        converged_at: u64,
        limit: u64,
    ) {
        let sides = [(announced, true), (withdrawn, false)];
        for (keys, appeared) in sides {
            for key in keys {
                match self.pending.get(key) {
                    Some(p) if p.appeared == appeared => {
                        let latency = converged_at.saturating_sub(p.published_at);
                        self.latencies.push(latency);
                        self.tally.note(latency <= limit);
                        self.pending.remove(key);
                    }
                    _ => self.tally.note(false),
                }
            }
        }
    }

    /// Actions still unseen. After the last round (and the quiesce, for
    /// a scheduled relying party) each one is a failure.
    pub fn close(&mut self) {
        for _ in 0..self.pending.len() {
            self.tally.note(false);
        }
        self.pending.clear();
    }
}
