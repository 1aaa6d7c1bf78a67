//! The event-driven network core.

use std::collections::HashMap;
use std::fmt;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpki_obs::Recorder;
use serde::{Deserialize, Serialize};

use crate::fault::FaultPlan;
use crate::hash::LinkMap;
use crate::queue::EventQueue;

/// Identifies a node in the simulated network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(pub u32);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A message delivered to a node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivery {
    /// The sender.
    pub from: NodeId,
    /// The recipient.
    pub to: NodeId,
    /// The (possibly corrupted) payload.
    pub payload: Vec<u8>,
    /// Whether the fault layer corrupted this payload in flight.
    /// Protocol code must not read this — it exists for assertions and
    /// traces; real corruption detection goes through digests.
    pub corrupted_in_flight: bool,
}

/// Why a message never arrived.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// Random loss on the link.
    Loss,
    /// A scheduled (deterministic) drop.
    Scheduled,
    /// The pair is partitioned.
    Partition,
    /// Sender or receiver is down.
    NodeDown,
    /// The reachability oracle (BGP validity, in the full system) said
    /// the destination is unreachable from the source.
    Unreachable,
}

impl DropReason {
    /// A short machine-readable label for traces and diagnostics.
    pub fn label(&self) -> &'static str {
        match self {
            DropReason::Loss => "loss",
            DropReason::Scheduled => "scheduled",
            DropReason::Partition => "partition",
            DropReason::NodeDown => "node_down",
            DropReason::Unreachable => "unreachable",
        }
    }
}

/// One thing that happened when the simulation advanced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Occurrence {
    /// A message arrived at its destination.
    Delivered(Delivery),
    /// A message was dropped in flight.
    Dropped {
        /// The sender.
        from: NodeId,
        /// The intended recipient.
        to: NodeId,
        /// Why it was dropped.
        reason: DropReason,
    },
    /// A timer set via [`Network::set_timer`] fired.
    Timer {
        /// The node the timer belongs to.
        node: NodeId,
        /// The caller-chosen token identifying the timer.
        token: u64,
    },
}

/// Counters the tests and experiments read.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct Stats {
    /// Messages handed to [`Network::send`].
    pub sent: u64,
    /// Messages delivered intact.
    pub delivered: u64,
    /// Messages delivered with corrupted payloads.
    pub corrupted: u64,
    /// Messages dropped for any reason.
    pub dropped: u64,
}

#[derive(Debug)]
enum EventKind {
    Deliver { from: NodeId, to: NodeId, payload: Vec<u8> },
    Timer { node: NodeId, token: u64 },
}

/// The deterministic discrete-event network.
pub struct Network {
    now: u64,
    queue: EventQueue<EventKind>,
    names: Vec<String>,
    by_name: HashMap<String, NodeId>,
    /// Fault configuration, mutable mid-run.
    pub faults: FaultPlan,
    rng: StdRng,
    default_latency: u64,
    link_latency: LinkMap<(NodeId, NodeId), u64>,
    stats: Stats,
    #[allow(clippy::type_complexity)]
    oracle: Option<Box<dyn FnMut(NodeId, NodeId) -> bool>>,
    recorder: Recorder,
}

impl fmt::Debug for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Network")
            .field("now", &self.now)
            .field("nodes", &self.names.len())
            .field("pending", &self.queue.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Network {
    /// A new network with the given RNG seed (drives probabilistic
    /// faults only; a fault-free network never consumes randomness).
    pub fn new(seed: u64) -> Self {
        Network {
            now: 0,
            queue: EventQueue::new(),
            names: Vec::new(),
            by_name: HashMap::new(),
            faults: FaultPlan::new(),
            rng: StdRng::seed_from_u64(seed),
            default_latency: 10,
            link_latency: LinkMap::default(),
            stats: Stats::default(),
            oracle: None,
            recorder: Recorder::disabled(),
        }
    }

    /// Installs an observability recorder; the network and every layer
    /// that reaches the network through [`Network::recorder`] will emit
    /// trace events into it. Defaults to [`Recorder::disabled`].
    pub fn set_recorder(&mut self, recorder: Recorder) {
        self.recorder = recorder;
    }

    /// A cheap clone of the installed recorder (disabled by default).
    /// Layers that hold a `&mut Network` clone this to emit their own
    /// events into the same shared trace.
    pub fn recorder(&self) -> Recorder {
        self.recorder.clone()
    }

    /// Registers a node under a unique name.
    ///
    /// # Panics
    ///
    /// Panics if the name is already registered.
    pub fn add_node(&mut self, name: &str) -> NodeId {
        assert!(!self.by_name.contains_key(name), "duplicate node name {name:?}");
        let id = NodeId(self.names.len() as u32);
        self.names.push(name.to_owned());
        self.by_name.insert(name.to_owned(), id);
        id
    }

    /// Looks up a node by name.
    pub fn node(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// The name of a node.
    pub fn name(&self, id: NodeId) -> &str {
        &self.names[id.0 as usize]
    }

    /// The simulated clock, in seconds.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Message latency applied by [`Network::send`] when no per-link
    /// override exists.
    pub fn set_default_latency(&mut self, latency: u64) {
        self.default_latency = latency;
    }

    /// Overrides the latency of the directed link `from → to`.
    pub fn set_link_latency(&mut self, from: NodeId, to: NodeId, latency: u64) {
        self.link_latency.insert((from, to), latency);
    }

    fn latency(&self, from: NodeId, to: NodeId) -> u64 {
        self.link_latency.get(&(from, to)).copied().unwrap_or(self.default_latency)
    }

    /// Installs the reachability oracle consulted at *delivery time*
    /// for every message. In the full system this is wired to BGP route
    /// validity — the paper's Figure 1 loop.
    pub fn set_reachability(&mut self, oracle: Box<dyn FnMut(NodeId, NodeId) -> bool>) {
        self.oracle = Some(oracle);
    }

    /// Removes the reachability oracle (everything reachable again).
    pub fn clear_reachability(&mut self) {
        self.oracle = None;
    }

    /// Delivery statistics so far.
    pub fn stats(&self) -> Stats {
        self.stats
    }

    /// Sends `payload` from `from` to `to`, arriving after the link's
    /// latency plus any configured stall (fault layer permitting).
    pub fn send(&mut self, from: NodeId, to: NodeId, payload: Vec<u8>) {
        self.send_after(from, to, payload, 0);
    }

    /// Like [`Network::send`], but the sender holds the frame for an
    /// extra `hold` seconds before it enters the link, on top of — not
    /// instead of — link latency and stalls. The trace books the hold
    /// as part of the frame's `stall`.
    pub fn send_after(&mut self, from: NodeId, to: NodeId, payload: Vec<u8>, hold: u64) {
        self.stats.sent += 1;
        let stall = self.faults.stall_delay(from, to);
        let at = self.now + hold + self.latency(from, to) + stall;
        if self.recorder.is_enabled() {
            self.recorder.count("net.sent", 1);
            self.recorder
                .event(self.now, "net", "send")
                .str("from", self.name(from))
                .str("to", self.name(to))
                .u64("bytes", payload.len() as u64)
                .u64("stall", stall + hold)
                .u64("deliver_at", at)
                .emit();
        }
        self.queue.push(at, EventKind::Deliver { from, to, payload });
    }

    /// Sets a timer on `node` firing after `delay` seconds, carrying a
    /// caller-chosen `token`.
    pub fn set_timer(&mut self, node: NodeId, delay: u64, token: u64) {
        let at = self.now + delay;
        self.queue.push(at, EventKind::Timer { node, token });
    }

    /// Cancels every pending timer on `node` carrying `token`.
    pub fn cancel_timer(&mut self, node: NodeId, token: u64) {
        self.queue.retain(
            |e| !matches!(*e, EventKind::Timer { node: n, token: t } if n == node && t == token),
        );
    }

    /// Discards every in-flight message between `a` and `b` (both
    /// directions), counting each as dropped. Models a client tearing
    /// down a timed-out session: bytes still on the wire never reach
    /// the application.
    pub fn flush_pair(&mut self, a: NodeId, b: NodeId) {
        let mut purged = 0;
        self.queue.retain(|e| {
            let purge = matches!(
                *e,
                EventKind::Deliver { from, to, .. }
                    if (from == a && to == b) || (from == b && to == a)
            );
            purged += u64::from(purge);
            !purge
        });
        self.stats.dropped += purged;
    }

    /// Jumps the clock forward to `t` (no-op when `t` is in the past).
    /// Lets experiment drivers pace rounds on absolute simulated time.
    ///
    /// # Panics
    ///
    /// Panics if an event is queued before `t` — stepping over pending
    /// work would silently reorder the simulation.
    pub fn advance_to(&mut self, t: u64) {
        if let Some(at) = self.next_event_at() {
            assert!(at >= t, "advance_to({t}) would skip an event queued at {at}");
        }
        self.now = self.now.max(t);
    }

    /// Whether any events remain queued.
    pub fn is_idle(&self) -> bool {
        self.queue.is_empty()
    }

    /// Timestamp of the earliest queued event, if any.
    ///
    /// Lets a driver pump the network only up to a deadline: peek, and
    /// if the next event lies past the deadline, stop stepping and
    /// [`Network::advance_to`] the deadline instead — the late event
    /// stays queued. The RTR fabric uses this to model a bounded poll
    /// window: frames stalled beyond it leave routers visibly stale.
    pub fn next_event_at(&self) -> Option<u64> {
        self.queue.next_at()
    }

    /// Advances to the next event and resolves it. Returns `None` when
    /// the queue is empty. The clock jumps to the event's time.
    pub fn step(&mut self) -> Option<Occurrence> {
        let (at, kind) = self.queue.pop()?;
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        Some(match kind {
            EventKind::Timer { node, token } => {
                if self.recorder.is_enabled() {
                    self.recorder
                        .event(self.now, "net", "timer")
                        .str("node", self.name(node))
                        .u64("token", token)
                        .emit();
                }
                Occurrence::Timer { node, token }
            }
            EventKind::Deliver { from, to, mut payload } => {
                // One scheduled-fault evaluation per message, advancing
                // the link counter exactly once.
                let fate = self.faults.on_message(from, to);
                if let Some(reason) = self.drop_reason(from, to, fate.drop) {
                    self.stats.dropped += 1;
                    if self.recorder.is_enabled() {
                        self.recorder.count("net.dropped", 1);
                        self.recorder
                            .event(self.now, "net", "drop")
                            .str("from", self.name(from))
                            .str("to", self.name(to))
                            .str("reason", reason.label())
                            .emit();
                    }
                    return Some(Occurrence::Dropped { from, to, reason });
                }
                let offset = fate.corrupt.or_else(|| {
                    // Probabilistic corruption always hits byte 0 (the
                    // frame tag); only scheduled faults aim deeper.
                    self.roll(self.faults.corruption_prob(from, to)).then_some(0)
                });
                let corrupt = offset.is_some();
                if let Some(offset) = offset {
                    // Flip one payload byte; digests downstream catch it.
                    if !payload.is_empty() {
                        let at = offset.min(payload.len() - 1);
                        payload[at] ^= 0xff;
                    }
                    self.stats.corrupted += 1;
                } else {
                    self.stats.delivered += 1;
                }
                if self.recorder.is_enabled() {
                    self.recorder.count(if corrupt { "net.corrupted" } else { "net.delivered" }, 1);
                    self.recorder
                        .event(self.now, "net", "deliver")
                        .str("from", self.name(from))
                        .str("to", self.name(to))
                        .u64("bytes", payload.len() as u64)
                        .bool("corrupted", corrupt)
                        .emit();
                }
                Occurrence::Delivered(Delivery { from, to, payload, corrupted_in_flight: corrupt })
            }
        })
    }

    fn drop_reason(
        &mut self,
        from: NodeId,
        to: NodeId,
        scheduled_drop: bool,
    ) -> Option<DropReason> {
        if self.faults.is_down(from) || self.faults.is_down(to) {
            return Some(DropReason::NodeDown);
        }
        if self.faults.is_partitioned(from, to) {
            return Some(DropReason::Partition);
        }
        if let Some(oracle) = self.oracle.as_mut() {
            if !oracle(from, to) {
                return Some(DropReason::Unreachable);
            }
        }
        if scheduled_drop {
            return Some(DropReason::Scheduled);
        }
        if self.roll_mut(from, to) {
            return Some(DropReason::Loss);
        }
        None
    }

    fn roll(&mut self, prob: f64) -> bool {
        prob > 0.0 && self.rng.gen_bool(prob)
    }

    fn roll_mut(&mut self, from: NodeId, to: NodeId) -> bool {
        let p = self.faults.loss_prob(from, to);
        self.roll(p)
    }

    /// Runs the simulation until the queue drains, collecting every
    /// occurrence. Convenience for tests; protocol drivers usually
    /// interleave their own logic between [`Network::step`] calls.
    pub fn run_to_idle(&mut self) -> Vec<Occurrence> {
        let mut out = Vec::new();
        while let Some(occ) = self.step() {
            out.push(occ);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_nodes() -> (Network, NodeId, NodeId) {
        let mut net = Network::new(42);
        let a = net.add_node("a");
        let b = net.add_node("b");
        (net, a, b)
    }

    #[test]
    fn delivery_in_time_order() {
        let (mut net, a, b) = two_nodes();
        net.set_timer(a, 5, 99); // fires before the message (latency 10)
        net.send(a, b, vec![1, 2, 3]);
        let occs = net.run_to_idle();
        assert_eq!(occs.len(), 2);
        assert_eq!(occs[0], Occurrence::Timer { node: a, token: 99 });
        match &occs[1] {
            Occurrence::Delivered(d) => {
                assert_eq!((d.from, d.to), (a, b));
                assert_eq!(d.payload, vec![1, 2, 3]);
                assert!(!d.corrupted_in_flight);
            }
            other => panic!("expected delivery, got {other:?}"),
        }
        assert_eq!(net.now(), 10);
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn next_event_at_peeks_without_stepping() {
        let (mut net, a, b) = two_nodes();
        assert_eq!(net.next_event_at(), None);
        net.send(a, b, vec![1]); // default latency 10
        net.set_timer(a, 25, 7);
        assert_eq!(net.next_event_at(), Some(10));
        assert_eq!(net.now(), 0, "peeking must not advance time");
        net.step();
        assert_eq!(net.next_event_at(), Some(25));
        // A deadline-bounded driver stops here and leaves the event queued.
        net.advance_to(20);
        assert_eq!(net.next_event_at(), Some(25));
        net.step();
        assert_eq!(net.next_event_at(), None);
    }

    #[test]
    fn same_time_events_keep_send_order() {
        let (mut net, a, b) = two_nodes();
        for i in 0..5u8 {
            net.send(a, b, vec![i]);
        }
        let payloads: Vec<u8> = net
            .run_to_idle()
            .into_iter()
            .map(|o| match o {
                Occurrence::Delivered(d) => d.payload[0],
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(payloads, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn partition_drops_both_directions() {
        let (mut net, a, b) = two_nodes();
        net.faults.partition(a, b);
        net.send(a, b, vec![1]);
        net.send(b, a, vec![2]);
        let occs = net.run_to_idle();
        assert!(occs
            .iter()
            .all(|o| matches!(o, Occurrence::Dropped { reason: DropReason::Partition, .. })));
        assert_eq!(net.stats().dropped, 2);
        // Healing restores delivery.
        net.faults.heal(a, b);
        net.send(a, b, vec![3]);
        assert!(matches!(net.step(), Some(Occurrence::Delivered(_))));
    }

    #[test]
    fn node_down_blocks_traffic() {
        let (mut net, a, b) = two_nodes();
        net.faults.set_down(b, true);
        net.send(a, b, vec![1]);
        assert!(matches!(
            net.step(),
            Some(Occurrence::Dropped { reason: DropReason::NodeDown, .. })
        ));
    }

    #[test]
    fn scheduled_corruption_hits_exactly_once() {
        let (mut net, a, b) = two_nodes();
        net.faults.corrupt_next(a, b, 1);
        net.send(a, b, vec![0xaa, 0xbb]);
        net.send(a, b, vec![0xaa, 0xbb]);
        let occs = net.run_to_idle();
        match (&occs[0], &occs[1]) {
            (Occurrence::Delivered(first), Occurrence::Delivered(second)) => {
                assert!(first.corrupted_in_flight);
                assert_eq!(first.payload, vec![0x55, 0xbb]); // first byte flipped
                assert!(!second.corrupted_in_flight);
                assert_eq!(second.payload, vec![0xaa, 0xbb]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(net.stats().corrupted, 1);
        assert_eq!(net.stats().delivered, 1);
    }

    #[test]
    fn scheduled_drop_is_directional() {
        let (mut net, a, b) = two_nodes();
        net.faults.drop_next(a, b, 1);
        net.send(b, a, vec![1]); // unaffected direction
        net.send(a, b, vec![2]); // dropped
        net.send(a, b, vec![3]); // delivered
        let occs = net.run_to_idle();
        assert!(matches!(occs[0], Occurrence::Delivered(_)));
        assert!(matches!(occs[1], Occurrence::Dropped { reason: DropReason::Scheduled, .. }));
        assert!(matches!(occs[2], Occurrence::Delivered(_)));
    }

    #[test]
    fn reachability_oracle_consulted_at_delivery_time() {
        let (mut net, a, b) = two_nodes();
        // Message enqueued while "reachable"...
        net.send(a, b, vec![1]);
        // ...but the oracle (BGP, in the full system) flips before
        // delivery.
        net.set_reachability(Box::new(move |_, to| to != b));
        assert!(matches!(
            net.step(),
            Some(Occurrence::Dropped { reason: DropReason::Unreachable, .. })
        ));
        net.clear_reachability();
        net.send(a, b, vec![2]);
        assert!(matches!(net.step(), Some(Occurrence::Delivered(_))));
    }

    #[test]
    fn probabilistic_loss_is_seeded_and_reproducible() {
        let run = |seed: u64| -> Vec<bool> {
            let mut net = Network::new(seed);
            let a = net.add_node("a");
            let b = net.add_node("b");
            net.faults.set_loss(a, b, 0.5);
            for _ in 0..64 {
                net.send(a, b, vec![0]);
            }
            net.run_to_idle().into_iter().map(|o| matches!(o, Occurrence::Delivered(_))).collect()
        };
        let first = run(7);
        assert_eq!(first, run(7), "same seed, same outcome");
        assert_ne!(first, run(8), "different seed, different outcome");
        let delivered = first.iter().filter(|d| **d).count();
        assert!((8..=56).contains(&delivered), "loss rate wildly off: {delivered}/64");
    }

    #[test]
    fn per_link_latency_overrides_default() {
        let (mut net, a, b) = two_nodes();
        net.set_link_latency(a, b, 50); // directed: b→a keeps default 10
        net.send(a, b, vec![1]);
        net.send(b, a, vec![2]);
        let occs = net.run_to_idle();
        // The b→a message (latency 10) arrives first.
        match &occs[0] {
            Occurrence::Delivered(d) => assert_eq!((d.from, d.to), (b, a)),
            other => panic!("{other:?}"),
        }
        assert_eq!(net.now(), 50);
    }

    #[test]
    fn node_registry() {
        let (net, a, b) = two_nodes();
        assert_eq!(net.node("a"), Some(a));
        assert_eq!(net.node("b"), Some(b));
        assert_eq!(net.node("c"), None);
        assert_eq!(net.name(a), "a");
    }

    #[test]
    #[should_panic(expected = "duplicate node name")]
    fn duplicate_names_rejected() {
        let mut net = Network::new(0);
        net.add_node("x");
        net.add_node("x");
    }

    #[test]
    fn stall_delays_delivery_without_dropping() {
        let (mut net, a, b) = two_nodes();
        net.faults.set_stall(a, b, 300);
        net.send(a, b, vec![1]); // arrives at 10 + 300
        net.send(b, a, vec![2]); // reverse direction unaffected: 10
        let occs = net.run_to_idle();
        match &occs[0] {
            Occurrence::Delivered(d) => assert_eq!((d.from, d.to), (b, a)),
            other => panic!("{other:?}"),
        }
        assert!(matches!(&occs[1], Occurrence::Delivered(d) if d.payload == vec![1]));
        assert_eq!(net.now(), 310);
        assert_eq!(net.stats().dropped, 0);
        // Clearing the stall restores normal latency.
        net.faults.set_stall(a, b, 0);
        net.send(a, b, vec![3]);
        net.run_to_idle();
        assert_eq!(net.now(), 320);
    }

    #[test]
    fn corruption_offset_targets_payload_byte() {
        let (mut net, a, b) = two_nodes();
        net.faults.corrupt_nth_at(a, b, 1, 2);
        // Offset beyond the payload clamps to the last byte.
        net.faults.corrupt_nth_at(a, b, 2, 99);
        net.send(a, b, vec![0xaa, 0xbb, 0xcc]);
        net.send(a, b, vec![0xaa, 0xbb]);
        let occs = net.run_to_idle();
        match (&occs[0], &occs[1]) {
            (Occurrence::Delivered(first), Occurrence::Delivered(second)) => {
                assert_eq!(first.payload, vec![0xaa, 0xbb, 0x33]);
                assert_eq!(second.payload, vec![0xaa, 0x44]);
            }
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(net.stats().corrupted, 2);
    }

    #[test]
    fn cancel_timer_removes_matching_timers_only() {
        let (mut net, a, b) = two_nodes();
        net.set_timer(a, 5, 1);
        net.set_timer(a, 6, 2);
        net.set_timer(b, 7, 1); // other node, same token: survives
        net.cancel_timer(a, 1);
        let occs = net.run_to_idle();
        assert_eq!(
            occs,
            vec![Occurrence::Timer { node: a, token: 2 }, Occurrence::Timer { node: b, token: 1 },]
        );
    }

    #[test]
    fn flush_pair_purges_in_flight_messages_both_ways() {
        let mut net = Network::new(0);
        let a = net.add_node("a");
        let b = net.add_node("b");
        let c = net.add_node("c");
        net.send(a, b, vec![1]);
        net.send(b, a, vec![2]);
        net.send(a, c, vec![3]); // unrelated pair survives
        net.set_timer(a, 10, 9); // timers survive
        net.flush_pair(a, b);
        let occs = net.run_to_idle();
        assert_eq!(occs.len(), 2);
        assert!(matches!(&occs[0], Occurrence::Delivered(d) if d.to == c));
        assert!(matches!(occs[1], Occurrence::Timer { token: 9, .. }));
        assert_eq!(net.stats().dropped, 2);
    }

    #[test]
    fn advance_to_moves_clock_monotonically() {
        let (mut net, a, _b) = two_nodes();
        net.advance_to(100);
        assert_eq!(net.now(), 100);
        net.advance_to(50); // past: no-op
        assert_eq!(net.now(), 100);
        net.set_timer(a, 20, 1);
        net.advance_to(120); // exactly at the event is allowed
        assert!(matches!(net.step(), Some(Occurrence::Timer { .. })));
    }

    #[test]
    #[should_panic(expected = "would skip an event")]
    fn advance_to_refuses_to_skip_pending_events() {
        let (mut net, a, _b) = two_nodes();
        net.set_timer(a, 20, 1);
        net.advance_to(21);
    }

    #[test]
    fn recorder_captures_send_deliver_drop_and_timer_events() {
        let (mut net, a, b) = two_nodes();
        let rec = Recorder::new();
        net.set_recorder(rec.clone());
        net.faults.set_stall(a, b, 5);
        net.send(a, b, vec![1, 2]);
        net.faults.drop_next(a, b, 1);
        net.send(a, b, vec![3]);
        net.set_timer(b, 1, 7);
        net.run_to_idle();
        let kinds: Vec<&str> = rec.events().iter().map(|e| e.kind).collect();
        // The scheduled drop is evaluated at delivery time, so it hits
        // the first message to arrive.
        assert_eq!(kinds, vec!["send", "send", "timer", "drop", "deliver"]);
        let metrics = rec.metrics();
        assert_eq!(metrics.counter("net.sent"), 2);
        assert_eq!(metrics.counter("net.delivered"), 1);
        assert_eq!(metrics.counter("net.dropped"), 1);
        // The first send records its stall and scheduled arrival.
        let send = &rec.events()[0];
        assert!(send.fields.contains(&("stall", rpki_obs::FieldValue::U64(5))));
        assert!(send.fields.contains(&("deliver_at", rpki_obs::FieldValue::U64(15))));
    }

    #[test]
    fn fault_free_run_consumes_no_randomness() {
        // Two identical fault-free runs with different seeds must agree:
        // determinism cannot silently depend on the seed.
        let run = |seed| {
            let mut net = Network::new(seed);
            let a = net.add_node("a");
            let b = net.add_node("b");
            net.send(a, b, vec![9]);
            net.run_to_idle()
        };
        assert_eq!(run(1), run(2));
    }
}
