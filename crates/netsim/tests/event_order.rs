//! The network's event order against a reference model.
//!
//! `Network` promises (time, send order): events fire in time order,
//! and events due at the same instant fire in the order they were
//! queued. The model below keeps that order the literal way, a binary
//! heap keyed by `(time, sequence number)`, together with the few
//! faults the ops touch (stalls, partitions, per-link latency). Random
//! op sequences drive both; every observable — each `Occurrence`,
//! `next_event_at`, `now` and `Stats` — must agree after every op.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};

use netsim::{DropReason, Network, NodeId, Occurrence, Stats};
use proptest::prelude::*;

const NODES: u32 = 4;

/// One call on the network. `AdvanceTo` moves the clock to
/// `now + forward - back`, clamped to the next event (`advance_to`
/// refuses to skip one), so it may land in the past.
#[derive(Debug, Clone)]
enum Op {
    Send { from: u32, to: u32, hold: u64 },
    Stall { from: u32, to: u32, extra: u64 },
    Latency { from: u32, to: u32, latency: u64 },
    Partition { a: u32, b: u32, on: bool },
    SetTimer { node: u32, delay: u64, token: u64 },
    CancelTimer { node: u32, token: u64 },
    FlushPair { a: u32, b: u32 },
    AdvanceTo { forward: u64, back: u64 },
    Step,
}

/// Small node, token and delay ranges, so that same-instant events,
/// cancellations that hit and flushes that purge are all common.
fn arb_op() -> impl Strategy<Value = Op> {
    (0u8..12, 0..NODES, 0..NODES, 0u64..24, 0u64..3).prop_map(|(kind, a, b, x, y)| match kind {
        0..=2 => Op::Send { from: a, to: b, hold: if y == 0 { x } else { 0 } },
        3 => Op::Stall { from: a, to: b, extra: x * y },
        4 => Op::Latency { from: a, to: b, latency: x },
        5 => Op::Partition { a, b, on: y != 0 },
        6 => Op::SetTimer { node: a, delay: x, token: y },
        7 => Op::CancelTimer { node: a, token: y },
        8 => Op::FlushPair { a, b },
        9 => Op::AdvanceTo { forward: x, back: y * 8 },
        _ => Op::Step,
    })
}

#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
enum Pending {
    Deliver { from: NodeId, to: NodeId, payload: Vec<u8> },
    Timer { node: NodeId, token: u64 },
}

/// The reference: one heap entry per event, ordered by `(at, seq)`.
struct Model {
    now: u64,
    seq: u64,
    heap: BinaryHeap<Reverse<(u64, u64, Pending)>>,
    default_latency: u64,
    latency: HashMap<(NodeId, NodeId), u64>,
    stall: HashMap<(NodeId, NodeId), u64>,
    partitions: HashSet<(NodeId, NodeId)>,
    stats: Stats,
}

fn unordered(a: NodeId, b: NodeId) -> (NodeId, NodeId) {
    (a.min(b), a.max(b))
}

impl Model {
    fn new(default_latency: u64) -> Self {
        Model {
            now: 0,
            seq: 0,
            heap: BinaryHeap::new(),
            default_latency,
            latency: HashMap::new(),
            stall: HashMap::new(),
            partitions: HashSet::new(),
            stats: Stats::default(),
        }
    }

    fn push(&mut self, at: u64, event: Pending) {
        self.heap.push(Reverse((at, self.seq, event)));
        self.seq += 1;
    }

    fn next_event_at(&self) -> Option<u64> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }

    fn send(&mut self, from: NodeId, to: NodeId, payload: Vec<u8>, hold: u64) {
        self.stats.sent += 1;
        let latency = self.latency.get(&(from, to)).copied().unwrap_or(self.default_latency);
        let stall = self.stall.get(&(from, to)).copied().unwrap_or(0);
        self.push(self.now + hold + latency + stall, Pending::Deliver { from, to, payload });
    }

    /// Keeps the events `keep` accepts; returns how many it dropped.
    fn retain(&mut self, keep: impl Fn(&Pending) -> bool) -> u64 {
        let before = self.heap.len();
        let events = std::mem::take(&mut self.heap);
        self.heap = events.into_iter().filter(|Reverse((_, _, e))| keep(e)).collect();
        (before - self.heap.len()) as u64
    }

    fn step(&mut self) -> Option<Occurrence> {
        let Reverse((at, _, event)) = self.heap.pop()?;
        self.now = at;
        Some(match event {
            Pending::Timer { node, token } => Occurrence::Timer { node, token },
            Pending::Deliver { from, to, payload } => {
                if self.partitions.contains(&unordered(from, to)) {
                    self.stats.dropped += 1;
                    Occurrence::Dropped { from, to, reason: DropReason::Partition }
                } else {
                    self.stats.delivered += 1;
                    Occurrence::Delivered(netsim::Delivery {
                        from,
                        to,
                        payload,
                        corrupted_in_flight: false,
                    })
                }
            }
        })
    }
}

/// Applies `op` to both sides; returns the occurrence a `Step` produced
/// on each.
fn apply(
    net: &mut Network,
    model: &mut Model,
    nodes: &[NodeId],
    op: &Op,
    label: u32,
) -> (Option<Occurrence>, Option<Occurrence>) {
    let n = |i: u32| nodes[i as usize];
    match *op {
        Op::Send { from, to, hold } => {
            let payload = label.to_be_bytes().to_vec();
            if hold == 0 {
                net.send(n(from), n(to), payload.clone());
            } else {
                net.send_after(n(from), n(to), payload.clone(), hold);
            }
            model.send(n(from), n(to), payload, hold);
        }
        Op::Stall { from, to, extra } => {
            net.faults.set_stall(n(from), n(to), extra);
            model.stall.insert((n(from), n(to)), extra);
        }
        Op::Latency { from, to, latency } => {
            net.set_link_latency(n(from), n(to), latency);
            model.latency.insert((n(from), n(to)), latency);
        }
        Op::Partition { a, b, on } => {
            if on {
                net.faults.partition(n(a), n(b));
                model.partitions.insert(unordered(n(a), n(b)));
            } else {
                net.faults.heal(n(a), n(b));
                model.partitions.remove(&unordered(n(a), n(b)));
            }
        }
        Op::SetTimer { node, delay, token } => {
            net.set_timer(n(node), delay, token);
            model.push(model.now + delay, Pending::Timer { node: n(node), token });
        }
        Op::CancelTimer { node, token } => {
            net.cancel_timer(n(node), token);
            model.retain(|e| *e != Pending::Timer { node: n(node), token });
        }
        Op::FlushPair { a, b } => {
            net.flush_pair(n(a), n(b));
            let pair = unordered(n(a), n(b));
            model.stats.dropped += model.retain(
                |e| !matches!(e, Pending::Deliver { from, to, .. } if unordered(*from, *to) == pair),
            );
        }
        Op::AdvanceTo { forward, back } => {
            let mut t = (model.now + forward).saturating_sub(back);
            if let Some(at) = model.next_event_at() {
                t = t.min(at);
            }
            net.advance_to(t);
            model.now = model.now.max(t);
        }
        Op::Step => return (net.step(), model.step()),
    }
    (None, None)
}

proptest! {
    #[test]
    fn network_delivers_in_time_then_send_order(
        ops in proptest::collection::vec(arb_op(), 0..160),
        default_latency in 0u64..12,
    ) {
        let mut net = Network::new(7);
        net.set_default_latency(default_latency);
        let nodes: Vec<NodeId> = (0..NODES).map(|i| net.add_node(&format!("n{i}"))).collect();
        let mut model = Model::new(default_latency);
        for (i, op) in ops.iter().enumerate() {
            let (got, want) = apply(&mut net, &mut model, &nodes, op, i as u32);
            prop_assert_eq!(got, want, "op {} {:?}", i, op);
            prop_assert_eq!(net.next_event_at(), model.next_event_at(), "op {} {:?}", i, op);
            prop_assert_eq!(net.now(), model.now, "op {} {:?}", i, op);
            prop_assert_eq!(net.stats(), model.stats, "op {} {:?}", i, op);
        }
        // Drain what is left: the tail must come out in the same order.
        loop {
            let (got, want) = (net.step(), model.step());
            prop_assert_eq!(&got, &want);
            prop_assert_eq!(net.now(), model.now);
            if got.is_none() {
                break;
            }
        }
        prop_assert_eq!(net.stats(), model.stats);
        prop_assert!(net.is_idle());
    }
}
