//! RTR sessions framed over the simulated network.
//!
//! The protocol state machines in [`crate::rtr`] are pure; this module
//! puts them on the wire. Every PDU travels as a tagged netsim frame,
//! which buys the RTR hop the full fault model — stalls, partitions,
//! drops, and corruption now hit the router feed path exactly like they
//! hit rsync and RRDP. That is the hop where Stalloris-style staleness
//! reaches operators: a perfectly synchronised relying party whose
//! routers cannot hear about the new serial is, from BGP's point of
//! view, a stale relying party.
//!
//! Three pieces:
//!
//! - [`RtrFabric`] — the cache side: one [`RtrServer`] plus a
//!   per-router session table. Publishing fans a single `SerialNotify`
//!   out to every attached router; each router then pulls only the
//!   delta since its own acknowledged serial (serial-diff fan-out).
//!   The per-serial delta history is bounded, so a router that falls
//!   off the window degrades to a snapshot resync via `CacheReset`.
//! - [`RtrRouter`] — the router side: one [`RtrClient`] that reacts to
//!   delivered frames (notify → query, reset → full resync) without any
//!   out-of-band calls into the server. The protocol state is per
//!   router; the VRP data is not: routers (and relay feeds) that apply
//!   the same response to the same set share the result, so a fan-out
//!   round builds one new set, not one per router.
//! - [`pump_until`] — a deadline-bounded dispatch loop. Frames stalled
//!   past the deadline *stay queued*; combined with
//!   [`Network::flush_pair`] that models an RTR session timeout, and
//!   the stranded routers show up in the staleness metrics instead of
//!   being silently retried to convergence.
//!
//! Frame tags are `0x43` (router → cache) and `0x53` (cache → router),
//! disjoint from the rsync frames (1–4) and the RRDP frames
//! (`0x21`–`0x23`, `0x31`–`0x34`), so a mis-routed or corrupted frame
//! is rejected at the tag byte rather than misparsed.

use std::collections::BTreeMap;

use netsim::{Delivery, Network, NodeId, Occurrence};
use rpki_objects::{Decode, DecodeError, Encode, Reader};

use crate::rtr::{serial_distance, ClientAction, RtrClient, RtrPdu, RtrServer, VrpUpdate};
use crate::vrp::Vrp;

/// Frame tag on router → cache RTR frames (queries).
pub const FRAME_RTR_QUERY: u8 = 0x43;
/// Frame tag on cache → router RTR frames (notifies and responses).
pub const FRAME_RTR_DATA: u8 = 0x53;

/// Encodes `pdu` behind the given frame tag, in one allocation of the
/// frame's final size.
pub fn frame(tag: u8, pdu: &RtrPdu) -> Vec<u8> {
    let mut out = Vec::with_capacity(1 + pdu.encoded_len());
    out.push(tag);
    pdu.encode(&mut out);
    out
}

/// Decodes a frame, insisting on the expected tag and full consumption.
pub fn unframe(tag: u8, payload: &[u8]) -> Result<RtrPdu, DecodeError> {
    let mut r = Reader::new(payload);
    let got = r.u8()?;
    if got != tag {
        return Err(DecodeError::BadTag(got));
    }
    let pdu = RtrPdu::decode(&mut r)?;
    if !r.is_empty() {
        return Err(DecodeError::TrailingBytes(r.remaining()));
    }
    Ok(pdu)
}

/// An endpoint that owns a netsim node and consumes frames addressed to
/// it. [`pump_until`] dispatches deliveries by destination node.
pub trait RtrEndpoint {
    /// The netsim node this endpoint answers for.
    fn node(&self) -> NodeId;
    /// Consumes one delivered frame (possibly sending replies).
    fn deliver(&mut self, net: &mut Network, delivery: &Delivery);
}

/// Counters the fabric keeps about its own traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FabricStats {
    /// `SerialNotify` frames fanned out after publishes.
    pub notifies_sent: u64,
    /// Queries answered (serial and reset).
    pub queries_handled: u64,
    /// Responses that had to be `CacheReset` (history miss, session
    /// mismatch, future serial).
    pub resets_served: u64,
    /// Data frames sent (every cache → router frame, notifies included).
    pub data_frames_sent: u64,
    /// Frames that failed tag or PDU decoding (corruption, mis-routing).
    pub frames_rejected: u64,
}

/// The cache side of the framed protocol: an [`RtrServer`] plus the
/// session table that makes fan-out and staleness measurable.
#[derive(Debug)]
pub struct RtrFabric {
    node: NodeId,
    server: RtrServer,
    /// Last serial each attached router reached, recorded optimistically
    /// when a response is *sent* to it: the `EndOfData`'s serial, or
    /// `None` after a `CacheReset` (the router drops its set on one). A
    /// flushed or stalled response falsifies the optimistic entry, so
    /// staleness metrics that must survive faults read the router's
    /// client state directly instead of this table.
    acked: BTreeMap<NodeId, Option<u32>>,
    stats: FabricStats,
}

impl RtrFabric {
    /// A fabric serving from `node` with the given RTR session id and
    /// delta-history depth.
    pub fn new(node: NodeId, session: u16, max_history: usize) -> Self {
        RtrFabric::from_server(node, RtrServer::new(session, max_history))
    }

    /// A fabric around an existing server (e.g. one constructed with
    /// [`RtrServer::new_at`] to start near the serial wrap).
    pub fn from_server(node: NodeId, server: RtrServer) -> Self {
        RtrFabric { node, server, acked: BTreeMap::new(), stats: FabricStats::default() }
    }

    /// The node this fabric serves from.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The underlying protocol state machine.
    pub fn server(&self) -> &RtrServer {
        &self.server
    }

    /// Traffic counters.
    pub fn stats(&self) -> FabricStats {
        self.stats
    }

    /// Registers a router for notify fan-out. Idempotent; a router not
    /// attached still gets answers to its queries, it just never hears
    /// a `SerialNotify`.
    pub fn attach(&mut self, router: NodeId) {
        self.acked.entry(router).or_insert(None);
    }

    /// The serial `router` reaches once the last response sent to it
    /// lands, or `None` if it never completed a sync or was last sent a
    /// `CacheReset`.
    pub fn acked_serial(&self, router: NodeId) -> Option<u32> {
        self.acked.get(&router).copied().flatten()
    }

    /// How many serials `router` lags behind the cache, by RFC 1982
    /// distance. `None` exactly when [`RtrFabric::acked_serial`] is.
    pub fn serial_lag(&self, router: NodeId) -> Option<u32> {
        self.acked_serial(router).map(|s| serial_distance(s, self.server.serial()))
    }

    /// Publishes new data and fans the resulting `SerialNotify` out to
    /// every attached router. Returns `true` if the serial bumped.
    ///
    /// This is the framed analogue of [`RtrServer::publish`]: one call,
    /// N notify frames, and each router then pulls only its own delta.
    pub fn publish(&mut self, net: &mut Network, update: VrpUpdate<'_>) -> bool {
        let Some(notify) = self.server.publish(update) else {
            return false;
        };
        let rec = net.recorder();
        if rec.is_enabled() {
            rec.count("rtr.publishes", 1);
            rec.event(net.now(), "rtr", "publish")
                .str("cache", net.name(self.node))
                .u64("serial", u64::from(self.server.serial()))
                .u64("routers", self.acked.len() as u64)
                .emit();
        }
        let payload = frame(FRAME_RTR_DATA, &notify);
        for &router in self.acked.keys() {
            net.send(self.node, router, payload.clone());
            self.stats.notifies_sent += 1;
            self.stats.data_frames_sent += 1;
        }
        true
    }

    /// Reframes the current state for `router` after an out-of-band
    /// session loss (e.g. the campaign flushed the pair): sends a fresh
    /// `SerialNotify` so the router re-queries.
    pub fn renotify(&mut self, net: &mut Network, router: NodeId) {
        let notify =
            RtrPdu::SerialNotify { session: self.server.session(), serial: self.server.serial() };
        net.send(self.node, router, frame(FRAME_RTR_DATA, &notify));
        self.stats.notifies_sent += 1;
        self.stats.data_frames_sent += 1;
    }
}

impl RtrEndpoint for RtrFabric {
    fn node(&self) -> NodeId {
        self.node
    }

    fn deliver(&mut self, net: &mut Network, delivery: &Delivery) {
        let pdu = match unframe(FRAME_RTR_QUERY, &delivery.payload) {
            Ok(pdu) => pdu,
            Err(_) => {
                // Corrupted or mis-tagged frame: drop it. The router's
                // next poll retries; no state changed.
                self.stats.frames_rejected += 1;
                let rec = net.recorder();
                if rec.is_enabled() {
                    rec.count("rtr.frames_rejected", 1);
                }
                return;
            }
        };
        self.stats.queries_handled += 1;
        let response = self.server.handle(&pdu);
        // Record what the router will hold if nothing is lost: the
        // serial the EndOfData closing the response carries, or nothing
        // after a CacheReset — never the serial it queried from, which
        // may be one this session never produced.
        for out in &response {
            match out {
                RtrPdu::CacheReset => {
                    self.stats.resets_served += 1;
                    self.acked.insert(delivery.from, None);
                }
                RtrPdu::EndOfData { serial, .. } => {
                    self.acked.insert(delivery.from, Some(*serial));
                }
                _ => {}
            }
            net.send(self.node, delivery.from, frame(FRAME_RTR_DATA, out));
            self.stats.data_frames_sent += 1;
        }
    }
}

/// The router side of the framed protocol: event-driven, no out-of-band
/// calls into the cache.
#[derive(Debug)]
pub struct RtrRouter {
    node: NodeId,
    upstream: NodeId,
    client: RtrClient,
}

impl RtrRouter {
    /// A router at `node` feeding from the cache at `upstream`.
    pub fn new(node: NodeId, upstream: NodeId) -> Self {
        RtrRouter { node, upstream, client: RtrClient::new() }
    }

    /// The router's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The cache node this router feeds from.
    pub fn upstream(&self) -> NodeId {
        self.upstream
    }

    /// The underlying protocol state machine.
    pub fn client(&self) -> &RtrClient {
        &self.client
    }

    /// The router's current VRPs.
    pub fn vrps(&self) -> &std::collections::BTreeSet<Vrp> {
        self.client.vrp_set()
    }

    /// Sends the router's current poll PDU (reset query when it has
    /// nothing, serial query thereafter).
    pub fn poll(&mut self, net: &mut Network) {
        let pdu = self.client.poll();
        net.send(self.node, self.upstream, frame(FRAME_RTR_QUERY, &pdu));
    }
}

impl RtrEndpoint for RtrRouter {
    fn node(&self) -> NodeId {
        self.node
    }

    fn deliver(&mut self, net: &mut Network, delivery: &Delivery) {
        if delivery.from != self.upstream {
            return; // not our cache; ignore
        }
        let Ok(pdu) = unframe(FRAME_RTR_DATA, &delivery.payload) else {
            // Corrupted frame. If it was mid-response the transfer is
            // now incomplete and EndOfData will commit a partial delta;
            // real routers guard this with the PDU length header — here
            // the atomic-at-EndOfData buffer plus a fresh poll on the
            // next notify bounds the damage. Drop it.
            return;
        };
        match self.client.handle(&pdu) {
            ClientAction::Query | ClientAction::Reset => self.poll(net),
            ClientAction::Idle => {}
        }
    }
}

/// Steps the network until `deadline`, dispatching every delivered
/// frame to the endpoint that owns its destination node. Returns the
/// number of frames dispatched.
///
/// Events queued *past* the deadline are left queued — a stalled frame
/// does not arrive just because the simulation kept running. Callers
/// that model a session timeout follow up with
/// [`Network::flush_pair`] on the dead pair and
/// [`RtrFabric::renotify`] once the window lifts. Deliveries addressed
/// to nodes no endpoint claims are discarded, so run the pump in a
/// window where only RTR traffic is in flight.
pub fn pump_until(net: &mut Network, deadline: u64, endpoints: &mut [&mut dyn RtrEndpoint]) -> u64 {
    // Node → slice index, built once so each frame costs a binary
    // search instead of a scan of the endpoints. Sorted by node, then
    // index, and deduplicated keeping the first of each node: the
    // first endpoint in the slice to claim a node owns it.
    let mut owners: Vec<(NodeId, usize)> =
        endpoints.iter().enumerate().map(|(i, e)| (e.node(), i)).collect();
    owners.sort_unstable();
    owners.dedup_by_key(|&mut (node, _)| node);

    let mut dispatched = 0;
    while let Some(at) = net.next_event_at() {
        if at > deadline {
            break;
        }
        let Some(occ) = net.step() else { break };
        let Occurrence::Delivered(d) = occ else { continue };
        if let Ok(slot) = owners.binary_search_by_key(&d.to, |&(node, _)| node) {
            endpoints[owners[slot].1].deliver(net, &d);
            dispatched += 1;
        }
    }
    if net.now() < deadline {
        net.advance_to(deadline);
    }
    dispatched
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipres::{Asn, Prefix};

    fn v(s: &str, max: u8, asn: u32) -> Vrp {
        Vrp::new(s.parse::<Prefix>().unwrap(), max, Asn(asn))
    }

    fn sample() -> Vec<Vrp> {
        vec![v("10.0.0.0/16", 24, 1), v("10.1.0.0/16", 16, 2), v("2001:db8::/32", 48, 3)]
    }

    fn world(routers: usize) -> (Network, RtrFabric, Vec<RtrRouter>) {
        let mut net = Network::new(11);
        let cache = net.add_node("rp-cache");
        let mut fabric = RtrFabric::new(cache, 1, 8);
        let routers: Vec<RtrRouter> = (0..routers)
            .map(|i| {
                let node = net.add_node(&format!("router-{i}"));
                fabric.attach(node);
                RtrRouter::new(node, cache)
            })
            .collect();
        (net, fabric, routers)
    }

    fn pump(net: &mut Network, fabric: &mut RtrFabric, routers: &mut [RtrRouter]) -> u64 {
        let deadline = net.now() + 1_000;
        let mut endpoints: Vec<&mut dyn RtrEndpoint> = Vec::with_capacity(routers.len() + 1);
        endpoints.push(fabric);
        for r in routers.iter_mut() {
            endpoints.push(r);
        }
        pump_until(net, deadline, &mut endpoints)
    }

    /// An endpoint that only records the payloads it is handed.
    struct Sink {
        node: NodeId,
        got: Vec<Vec<u8>>,
    }

    impl RtrEndpoint for Sink {
        fn node(&self) -> NodeId {
            self.node
        }

        fn deliver(&mut self, _: &mut Network, delivery: &Delivery) {
            self.got.push(delivery.payload.clone());
        }
    }

    #[test]
    fn pump_gives_a_node_to_its_first_claimant_and_drops_unclaimed_frames() {
        let mut net = Network::new(11);
        let sender = net.add_node("sender");
        let (claimed, unclaimed) = (net.add_node("claimed"), net.add_node("unclaimed"));
        let mut first = Sink { node: claimed, got: Vec::new() };
        let mut second = Sink { node: claimed, got: Vec::new() };
        net.send(sender, claimed, vec![1]);
        net.send(sender, unclaimed, vec![2]);
        net.send(sender, claimed, vec![3]);
        let deadline = net.now() + 1_000;
        let dispatched = pump_until(&mut net, deadline, &mut [&mut first, &mut second]);
        assert_eq!(first.got, vec![vec![1], vec![3]]);
        assert!(second.got.is_empty(), "a later claim on the same node never wins");
        assert_eq!(dispatched, 2, "the unclaimed node's frame is consumed, not counted");
        assert!(net.is_idle());
    }

    #[test]
    fn pump_hands_each_of_a_thousand_endpoints_its_own_frames() {
        let mut net = Network::new(11);
        let sender = net.add_node("sender");
        let mut sinks: Vec<Sink> = (0..1_000)
            .map(|i| Sink { node: net.add_node(&format!("sink-{i}")), got: Vec::new() })
            .collect();
        // Slice order is not node order.
        sinks.reverse();
        let tag = |i: usize| (i as u32).to_be_bytes().to_vec();
        for (i, sink) in sinks.iter().enumerate() {
            net.send(sender, sink.node, tag(i));
        }
        let deadline = net.now() + 1_000;
        let mut endpoints: Vec<&mut dyn RtrEndpoint> =
            sinks.iter_mut().map(|s| s as &mut dyn RtrEndpoint).collect();
        assert_eq!(pump_until(&mut net, deadline, &mut endpoints), 1_000);
        for (i, sink) in sinks.iter().enumerate() {
            assert_eq!(sink.got, vec![tag(i)], "sink {i}");
        }
    }

    #[test]
    fn frame_tags_are_disjoint_and_enforced() {
        let pdu = RtrPdu::ResetQuery;
        let framed = frame(FRAME_RTR_QUERY, &pdu);
        assert_eq!(framed[0], 0x43);
        assert_eq!(unframe(FRAME_RTR_QUERY, &framed).unwrap(), pdu);
        // Wrong tag, rsync tag, RRDP tag: all rejected at byte 0.
        assert!(unframe(FRAME_RTR_DATA, &framed).is_err());
        for tag in [1u8, 2, 3, 4, 0x21, 0x22, 0x23, 0x31, 0x32, 0x33, 0x34] {
            let mut bad = framed.clone();
            bad[0] = tag;
            assert!(unframe(FRAME_RTR_QUERY, &bad).is_err());
        }
        // Trailing garbage is rejected too.
        let mut long = framed.clone();
        long.push(0);
        assert!(unframe(FRAME_RTR_QUERY, &long).is_err());
    }

    #[test]
    fn publish_fans_out_and_routers_converge() {
        let (mut net, mut fabric, mut routers) = world(5);
        assert!(fabric.publish(&mut net, VrpUpdate::snapshot(sample())));
        assert_eq!(fabric.stats().notifies_sent, 5);
        pump(&mut net, &mut fabric, &mut routers);
        for r in &routers {
            assert_eq!(r.client().serial(), fabric.server().serial());
            assert_eq!(r.vrps().len(), 3);
            assert_eq!(fabric.acked_serial(r.node()), Some(1));
            assert_eq!(fabric.serial_lag(r.node()), Some(0));
        }
    }

    #[test]
    fn fanout_sends_deltas_not_snapshots() {
        let (mut net, mut fabric, mut routers) = world(3);
        fabric.publish(&mut net, VrpUpdate::snapshot(sample()));
        pump(&mut net, &mut fabric, &mut routers);

        let before = net.stats().sent;
        // One VRP added: each router should see notify + query +
        // CacheResponse + 1 prefix + EndOfData, not the full set.
        let mut vrps = sample();
        vrps.push(v("10.9.0.0/16", 16, 9));
        fabric.publish(&mut net, VrpUpdate::snapshot(vrps));
        pump(&mut net, &mut fabric, &mut routers);
        let frames = net.stats().sent - before;
        assert_eq!(frames, 3 * 5, "delta-sized exchange per router");
        for r in &routers {
            assert_eq!(r.vrps().len(), 4);
        }
    }

    #[test]
    fn history_eviction_degrades_to_snapshot_resync() {
        let (mut net, mut fabric, mut routers) = world(2);
        fabric.publish(&mut net, VrpUpdate::snapshot(sample()));
        pump(&mut net, &mut fabric, &mut routers);

        // Partition router 1 while the cache publishes past its bounded
        // history (depth 8), then heal: its serial has fallen off the
        // window, so it must resync via CacheReset.
        let stranded = routers[1].node();
        net.faults.partition(fabric.node(), stranded);
        let mut vrps = sample();
        for i in 0..12u32 {
            vrps.push(v("10.9.0.0/16", 16, 100 + i));
            fabric.publish(&mut net, VrpUpdate::snapshot(vrps.clone()));
            pump(&mut net, &mut fabric, &mut routers);
        }
        assert_eq!(routers[0].client().serial(), fabric.server().serial());
        assert_eq!(routers[1].client().serial(), 1, "stranded router is stale");
        assert_eq!(fabric.serial_lag(stranded), Some(12));

        net.faults.heal(fabric.node(), stranded);
        fabric.renotify(&mut net, stranded);
        let resets_before = fabric.stats().resets_served;
        pump(&mut net, &mut fabric, &mut routers);
        assert!(fabric.stats().resets_served > resets_before, "recovered via CacheReset");
        assert_eq!(routers[1].client().serial(), fabric.server().serial());
        assert_eq!(routers[1].vrps().len(), fabric.server().vrps().len());
    }

    #[test]
    fn stalled_frames_stay_queued_past_the_deadline() {
        let (mut net, mut fabric, mut routers) = world(1);
        let router = routers[0].node();
        // Stall the cache → router direction far past the pump window.
        net.faults.set_stall(fabric.node(), router, 10_000);
        fabric.publish(&mut net, VrpUpdate::snapshot(sample()));
        pump(&mut net, &mut fabric, &mut routers);
        assert_eq!(routers[0].vrps().len(), 0, "notify still in flight");
        assert!(!net.is_idle(), "stalled frame remains queued");

        // The session times out: flush the pair, lift the stall, and
        // renotify. The router converges on the next window.
        net.flush_pair(fabric.node(), router);
        net.faults.set_stall(fabric.node(), router, 0);
        fabric.renotify(&mut net, router);
        pump(&mut net, &mut fabric, &mut routers);
        assert_eq!(routers[0].vrps().len(), 3);
        assert_eq!(routers[0].client().serial(), fabric.server().serial());
    }

    /// One lost `CacheResponse` on an established session: the router
    /// ignores the delta's prefixes, and must re-ask on the orphaned
    /// `EndOfData` instead of taking its serial — or it would sit on
    /// the old set at the new serial, invisible to every serial-based
    /// staleness metric.
    #[test]
    fn lost_cache_response_does_not_advance_the_router() {
        let (mut net, mut fabric, mut routers) = world(1);
        fabric.publish(&mut net, VrpUpdate::snapshot(sample()));
        pump(&mut net, &mut fabric, &mut routers);

        // Cache → router from here: the notify, then the response's
        // first frame (the `CacheResponse`).
        net.faults.drop_nth(fabric.node(), routers[0].node(), 2);
        let mut vrps = sample();
        vrps.push(v("10.9.0.0/16", 16, 9));
        fabric.publish(&mut net, VrpUpdate::snapshot(vrps));
        pump(&mut net, &mut fabric, &mut routers);
        assert_eq!(net.stats().dropped, 1);
        assert_eq!(routers[0].client().serial(), fabric.server().serial());
        let held: Vec<Vrp> = routers[0].vrps().iter().copied().collect();
        assert_eq!(held, fabric.server().vrps(), "router diverged from the cache at its serial");
    }

    /// A cache that restarts without its serial keeps its session id, so
    /// a router's next query carries a serial from the future. The
    /// answer is `CacheReset`; the session table must not keep the
    /// bogus serial, or the router reads ~4.29e9 serials stale until it
    /// resyncs.
    #[test]
    fn cache_reset_clears_the_acked_serial() {
        let (mut net, mut fabric, mut routers) = world(1);
        let router = routers[0].node();
        let mut vrps = sample();
        for i in 0..3u32 {
            vrps.push(v("10.9.0.0/16", 16, 100 + i));
            fabric.publish(&mut net, VrpUpdate::snapshot(vrps.clone()));
            pump(&mut net, &mut fabric, &mut routers);
        }
        assert_eq!(routers[0].client().serial(), 3);

        let mut restarted = RtrFabric::new(fabric.node(), 1, 8);
        restarted.attach(router);
        restarted.publish(&mut net, VrpUpdate::snapshot(sample()));
        // Serial 1 is not news to a router at 3, but its next poll asks
        // from 3; the CacheReset answering it is still in flight at the
        // deadline.
        routers[0].poll(&mut net);
        let deadline = net.now() + 15;
        pump_until(&mut net, deadline, &mut [&mut restarted, &mut routers[0]]);
        assert_eq!(restarted.stats().resets_served, 1);
        assert_eq!(restarted.acked_serial(router), None);
        assert_eq!(restarted.serial_lag(router), None);

        pump(&mut net, &mut restarted, &mut routers);
        assert_eq!(restarted.acked_serial(router), Some(1));
        assert_eq!(routers[0].vrps().len(), 3);
    }

    #[test]
    fn corrupted_query_frame_is_rejected_not_misparsed() {
        let (mut net, mut fabric, mut routers) = world(1);
        fabric.publish(&mut net, VrpUpdate::snapshot(sample()));
        // Corrupt the first router → cache frame (the query).
        net.faults.corrupt_nth(routers[0].node(), fabric.node(), 1);
        pump(&mut net, &mut fabric, &mut routers);
        assert_eq!(fabric.stats().frames_rejected, 1);
        // The next notify re-triggers the poll and the router recovers.
        fabric.renotify(&mut net, routers[0].node());
        pump(&mut net, &mut fabric, &mut routers);
        assert_eq!(routers[0].vrps().len(), 3);
    }
}
