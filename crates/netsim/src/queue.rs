//! The network's event queue.

use std::collections::{BTreeMap, VecDeque};

/// Pending events in (time, queue order), one FIFO bucket per instant:
/// events due at the same instant leave in the order they came, with
/// no sequence number to keep.
///
/// The earliest instant's bucket is held apart from the map of later
/// ones. So the two shapes the simulation runs most — one event in
/// flight (an rsync exchange), and a burst due at one instant (an RTR
/// fan-out) — push and pop without touching the map. Emptied buckets
/// are reused, so a steady flow of events allocates nothing.
#[derive(Debug)]
pub(crate) struct EventQueue<T> {
    /// When the events in `head` are due; stale while `head` is empty.
    head_at: u64,
    /// The earliest instant's events. Empty only when the queue is.
    head: VecDeque<T>,
    /// Every later instant's events; no bucket here is empty.
    later: BTreeMap<u64, VecDeque<T>>,
    /// Emptied buckets, kept for the next instant.
    spare: Vec<VecDeque<T>>,
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> Self {
        EventQueue { head_at: 0, head: VecDeque::new(), later: BTreeMap::new(), spare: Vec::new() }
    }

    /// Queues `event` behind everything already due at `at`.
    pub(crate) fn push(&mut self, at: u64, event: T) {
        if !self.head.is_empty() && at != self.head_at {
            if at > self.head_at {
                let spare = &mut self.spare;
                self.later
                    .entry(at)
                    .or_insert_with(|| spare.pop().unwrap_or_default())
                    .push_back(event);
                return;
            }
            // A new earliest instant: the old head waits with the rest.
            let bucket = self.spare.pop().unwrap_or_default();
            self.later.insert(self.head_at, std::mem::replace(&mut self.head, bucket));
        }
        self.head_at = at;
        self.head.push_back(event);
    }

    /// Removes the earliest event, with the instant it is due.
    pub(crate) fn pop(&mut self) -> Option<(u64, T)> {
        let event = self.head.pop_front()?;
        let at = self.head_at;
        if self.head.is_empty() {
            self.promote();
        }
        Some((at, event))
    }

    /// When the earliest event is due.
    pub(crate) fn next_at(&self) -> Option<u64> {
        (!self.head.is_empty()).then_some(self.head_at)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.head.is_empty()
    }

    pub(crate) fn len(&self) -> usize {
        self.head.len() + self.later.values().map(VecDeque::len).sum::<usize>()
    }

    /// Keeps the events `keep` accepts, in their order.
    pub(crate) fn retain(&mut self, mut keep: impl FnMut(&T) -> bool) {
        self.head.retain(&mut keep);
        self.later.retain(|_, bucket| {
            bucket.retain(&mut keep);
            !bucket.is_empty()
        });
        if self.head.is_empty() {
            self.promote();
        }
    }

    /// Refills an emptied head from the earliest later instant.
    fn promote(&mut self) {
        if let Some((at, bucket)) = self.later.pop_first() {
            self.spare.push(std::mem::replace(&mut self.head, bucket));
            self.head_at = at;
        }
    }
}
