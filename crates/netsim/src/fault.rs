//! Fault injection for the simulated network.
//!
//! The paper's Side Effects 6–7 are triggered by faults that are mundane
//! individually and catastrophic in combination: a corrupted fetch, a
//! missed renewal, an unreachable repository. [`FaultPlan`] expresses
//! those faults two ways:
//!
//! - **Probabilistic** — per-directed-link loss and corruption rates,
//!   driven by the network's seeded RNG (for churn/soak experiments).
//! - **Scheduled** — "corrupt message #3 on the A→B link" (for exact
//!   reproductions like the Section 6 worked example, where *one*
//!   transient corruption must hit a precise frame).
//!
//! Scheduled faults are indexed by a per-directed-link message counter:
//! every message evaluated on a link advances its counter, whether or
//! not a fault fires. [`FaultPlan::corrupt_next`]/[`FaultPlan::drop_next`]
//! target the next *n* messages; [`FaultPlan::corrupt_nth`]/
//! [`FaultPlan::drop_nth`] target exactly the *n*-th message from now
//! (1-based), which lets a test say "let the listing through, corrupt
//! the first file".
//!
//! Partitions and node-down states are absolute: no delivery in either
//! direction while active.
//!
//! Stalls model a Stalloris-style slow serve: the link still delivers,
//! but every message is held for an extra fixed delay, so a client
//! without a deadline hangs for the duration.

use std::collections::{BTreeMap, BTreeSet};

use crate::hash::{LinkMap, LinkSet};
use crate::net::NodeId;

/// A directed link key.
type Link = (NodeId, NodeId);

/// What the scheduled-fault layer says about one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct ScheduledFate {
    /// Drop this message.
    pub drop: bool,
    /// Corrupt this message at the given payload byte offset (moot if
    /// dropped).
    pub corrupt: Option<usize>,
}

/// The current fault configuration of a [`Network`](crate::Network).
#[derive(Debug, Default)]
pub struct FaultPlan {
    /// Per-directed-link probability (0..=1) of silently dropping a
    /// message.
    loss: LinkMap<Link, f64>,
    /// Per-directed-link probability (0..=1) of corrupting a message
    /// payload in flight.
    corruption: LinkMap<Link, f64>,
    /// Unordered pairs with no connectivity at all.
    partitions: LinkSet<Link>,
    /// Nodes that are down (neither send nor receive).
    down: LinkSet<NodeId>,
    /// Per-directed-link extra delay added to every send (slow serve).
    stall: LinkMap<Link, u64>,
    /// Messages evaluated so far, per directed link.
    counters: LinkMap<Link, u64>,
    /// Absolute message indices scheduled for corruption, mapped to the
    /// payload byte offset to flip.
    corrupt_at: LinkMap<Link, BTreeMap<u64, usize>>,
    /// Absolute message indices scheduled for dropping.
    drop_at: LinkMap<Link, BTreeSet<u64>>,
}

fn unordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

impl FaultPlan {
    /// A plan with no faults.
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Sets the loss probability for messages from `a` to `b`.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not in `[0, 1]`.
    pub fn set_loss(&mut self, a: NodeId, b: NodeId, prob: f64) {
        assert!((0.0..=1.0).contains(&prob), "loss probability out of range");
        if prob == 0.0 {
            self.loss.remove(&(a, b));
        } else {
            self.loss.insert((a, b), prob);
        }
    }

    /// Sets the corruption probability for messages from `a` to `b`.
    ///
    /// # Panics
    ///
    /// Panics if `prob` is not in `[0, 1]`.
    pub fn set_corruption(&mut self, a: NodeId, b: NodeId, prob: f64) {
        assert!((0.0..=1.0).contains(&prob), "corruption probability out of range");
        if prob == 0.0 {
            self.corruption.remove(&(a, b));
        } else {
            self.corruption.insert((a, b), prob);
        }
    }

    /// Adds `extra` seconds of delay to every message sent from `a` to
    /// `b` (a Stalloris-style slow serve). Zero clears the stall.
    pub fn set_stall(&mut self, a: NodeId, b: NodeId, extra: u64) {
        if extra == 0 {
            self.stall.remove(&(a, b));
        } else {
            self.stall.insert((a, b), extra);
        }
    }

    /// The extra delay currently configured on the directed link.
    pub fn stall_delay(&self, a: NodeId, b: NodeId) -> u64 {
        self.stall.get(&(a, b)).copied().unwrap_or(0)
    }

    fn counter(&self, link: Link) -> u64 {
        self.counters.get(&link).copied().unwrap_or(0)
    }

    /// Schedules the next `n` messages from `a` to `b` for corruption.
    pub fn corrupt_next(&mut self, a: NodeId, b: NodeId, n: u64) {
        let base = self.counter((a, b));
        let set = self.corrupt_at.entry((a, b)).or_default();
        for i in 1..=n {
            set.insert(base + i, 0);
        }
    }

    /// Schedules exactly the `n`-th message from now (1-based) on the
    /// `a`→`b` link for corruption.
    pub fn corrupt_nth(&mut self, a: NodeId, b: NodeId, n: u64) {
        self.corrupt_nth_at(a, b, n, 0);
    }

    /// Like [`FaultPlan::corrupt_nth`], but flips the payload byte at
    /// `offset` instead of byte 0. Byte 0 is the frame tag, so the
    /// default tears the frame entirely; a deeper offset produces a
    /// corrupted-but-parseable frame that only digest checks catch.
    pub fn corrupt_nth_at(&mut self, a: NodeId, b: NodeId, n: u64, offset: usize) {
        assert!(n >= 1, "message indices are 1-based");
        let base = self.counter((a, b));
        self.corrupt_at.entry((a, b)).or_default().insert(base + n, offset);
    }

    /// Schedules the next `n` messages from `a` to `b` for dropping.
    pub fn drop_next(&mut self, a: NodeId, b: NodeId, n: u64) {
        let base = self.counter((a, b));
        let set = self.drop_at.entry((a, b)).or_default();
        for i in 1..=n {
            set.insert(base + i);
        }
    }

    /// Schedules exactly the `n`-th message from now (1-based) on the
    /// `a`→`b` link for dropping.
    pub fn drop_nth(&mut self, a: NodeId, b: NodeId, n: u64) {
        assert!(n >= 1, "message indices are 1-based");
        let base = self.counter((a, b));
        self.drop_at.entry((a, b)).or_default().insert(base + n);
    }

    /// Severs all connectivity between `a` and `b` (both directions).
    pub fn partition(&mut self, a: NodeId, b: NodeId) {
        self.partitions.insert(unordered(a, b));
    }

    /// Restores connectivity between `a` and `b`.
    pub fn heal(&mut self, a: NodeId, b: NodeId) {
        self.partitions.remove(&unordered(a, b));
    }

    /// Marks a node down (crashed repository, unplugged RP).
    pub fn set_down(&mut self, node: NodeId, down: bool) {
        if down {
            self.down.insert(node);
        } else {
            self.down.remove(&node);
        }
    }

    /// Whether `node` is currently down.
    pub fn is_down(&self, node: NodeId) -> bool {
        self.down.contains(&node)
    }

    /// Whether `a`↔`b` is partitioned.
    pub fn is_partitioned(&self, a: NodeId, b: NodeId) -> bool {
        self.partitions.contains(&unordered(a, b))
    }

    /// The loss probability on the directed link.
    pub(crate) fn loss_prob(&self, a: NodeId, b: NodeId) -> f64 {
        self.loss.get(&(a, b)).copied().unwrap_or(0.0)
    }

    /// The corruption probability on the directed link.
    pub(crate) fn corruption_prob(&self, a: NodeId, b: NodeId) -> f64 {
        self.corruption.get(&(a, b)).copied().unwrap_or(0.0)
    }

    /// Advances the link's message counter and reports the scheduled
    /// fate of this message. Called exactly once per message at delivery
    /// evaluation.
    pub(crate) fn on_message(&mut self, a: NodeId, b: NodeId) -> ScheduledFate {
        let link = (a, b);
        let counter = self.counters.entry(link).or_insert(0);
        *counter += 1;
        let idx = *counter;
        let drop = self.drop_at.get_mut(&link).map(|s| s.remove(&idx)).unwrap_or(false);
        let corrupt = self.corrupt_at.get_mut(&link).and_then(|s| s.remove(&idx));
        ScheduledFate { drop, corrupt }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: u32) -> NodeId {
        NodeId(i)
    }

    #[test]
    fn partition_is_symmetric() {
        let mut f = FaultPlan::new();
        f.partition(n(1), n(2));
        assert!(f.is_partitioned(n(1), n(2)));
        assert!(f.is_partitioned(n(2), n(1)));
        f.heal(n(2), n(1));
        assert!(!f.is_partitioned(n(1), n(2)));
    }

    #[test]
    fn corrupt_next_hits_consecutive_messages() {
        let mut f = FaultPlan::new();
        f.corrupt_next(n(1), n(2), 2);
        assert!(f.on_message(n(1), n(2)).corrupt.is_some());
        // Direction matters; this advances the reverse link only.
        assert!(f.on_message(n(2), n(1)).corrupt.is_none());
        assert!(f.on_message(n(1), n(2)).corrupt.is_some());
        assert!(f.on_message(n(1), n(2)).corrupt.is_none());
    }

    #[test]
    fn nth_scheduling_skips_earlier_messages() {
        let mut f = FaultPlan::new();
        f.drop_nth(n(3), n(4), 2);
        f.corrupt_nth(n(3), n(4), 3);
        assert_eq!(f.on_message(n(3), n(4)), ScheduledFate { drop: false, corrupt: None });
        assert_eq!(f.on_message(n(3), n(4)), ScheduledFate { drop: true, corrupt: None });
        assert_eq!(f.on_message(n(3), n(4)), ScheduledFate { drop: false, corrupt: Some(0) });
        assert_eq!(f.on_message(n(3), n(4)), ScheduledFate::default());
    }

    #[test]
    fn corrupt_nth_at_carries_the_offset() {
        let mut f = FaultPlan::new();
        f.corrupt_nth_at(n(1), n(2), 1, 7);
        assert_eq!(f.on_message(n(1), n(2)).corrupt, Some(7));
        assert_eq!(f.on_message(n(1), n(2)).corrupt, None);
    }

    #[test]
    fn stall_toggles_and_is_directional() {
        let mut f = FaultPlan::new();
        assert_eq!(f.stall_delay(n(1), n(2)), 0);
        f.set_stall(n(1), n(2), 300);
        assert_eq!(f.stall_delay(n(1), n(2)), 300);
        assert_eq!(f.stall_delay(n(2), n(1)), 0);
        f.set_stall(n(1), n(2), 0);
        assert_eq!(f.stall_delay(n(1), n(2)), 0);
    }

    #[test]
    fn nth_is_relative_to_current_counter() {
        let mut f = FaultPlan::new();
        let _ = f.on_message(n(1), n(2));
        let _ = f.on_message(n(1), n(2));
        f.drop_nth(n(1), n(2), 1); // the very next one
        assert!(f.on_message(n(1), n(2)).drop);
    }

    #[test]
    fn down_state_toggles() {
        let mut f = FaultPlan::new();
        assert!(!f.is_down(n(9)));
        f.set_down(n(9), true);
        assert!(f.is_down(n(9)));
        f.set_down(n(9), false);
        assert!(!f.is_down(n(9)));
    }

    #[test]
    fn zero_probability_clears_entry() {
        let mut f = FaultPlan::new();
        f.set_loss(n(1), n(2), 0.5);
        assert_eq!(f.loss_prob(n(1), n(2)), 0.5);
        assert_eq!(f.loss_prob(n(2), n(1)), 0.0);
        f.set_loss(n(1), n(2), 0.0);
        assert_eq!(f.loss_prob(n(1), n(2)), 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_probability_panics() {
        let mut f = FaultPlan::new();
        f.set_corruption(n(1), n(2), 1.5);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn nth_zero_rejected() {
        let mut f = FaultPlan::new();
        f.drop_nth(n(1), n(2), 0);
    }
}
