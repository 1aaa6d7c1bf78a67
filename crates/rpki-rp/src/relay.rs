//! rtrtr-style relay units: merge, filter, re-serve.
//!
//! Production operators rarely point routers at a single relying party.
//! An rtrtr-style relay sits between: it consumes several upstream RTR
//! feeds, merges them under a policy, applies SLURM (RFC 8416) local
//! exceptions, and re-serves the result downstream as an RTR cache of
//! its own. For the paper's story this is where cross-RP divergence
//! becomes *routing policy*: the same five relying-party tiers that
//! disagree during a misbehaving-authority campaign can be unioned,
//! intersected, or failed-over by a relay, and each choice propagates a
//! different VRP set to the routers behind it.
//!
//! A [`Relay`] is a composed unit:
//!
//! - N upstream **feeds**, each an [`RtrRouter`] session over the
//!   framed fabric (so feeds stall and diverge under the fault model
//!   like any router would);
//! - a [`MergePolicy`] — union (any feed vouches), all (every live
//!   feed must vouch), or any (first live feed wins, pure failover);
//! - a [`SlurmFile`] of prefix/ASN filters and assertions applied to
//!   the merged set ([RFC 8416] semantics: filters drop matching VRPs,
//!   assertions add locally-trusted ones afterwards);
//! - a downstream [`RtrFabric`] target re-serving the result, serial
//!   by serial, to attached routers.
//!
//! [`reference_merge`] is the sequential oracle: the relay's published
//! set must equal it byte-for-byte on the same live-feed inputs.
//!
//! [RFC 8416]: https://www.rfc-editor.org/rfc/rfc8416

use std::borrow::Borrow;
use std::collections::BTreeSet;

use ipres::{Asn, Prefix};
use netsim::{Delivery, Network, NodeId};

use crate::fabric::{RtrEndpoint, RtrFabric, RtrRouter};
use crate::rtr::VrpUpdate;
use crate::vrp::Vrp;

/// One RFC 8416 `prefixFilter`: drops VRPs it matches. A filter with a
/// prefix matches every VRP whose prefix is equal to or more specific
/// than it; a filter with an ASN matches every VRP of that ASN; with
/// both, both must hold. An empty filter matches nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlurmFilter {
    /// Match VRPs covered by this prefix.
    pub prefix: Option<Prefix>,
    /// Match VRPs with this origin ASN.
    pub asn: Option<Asn>,
}

impl SlurmFilter {
    /// Filter every VRP covered by `prefix`.
    pub fn prefix(prefix: Prefix) -> Self {
        SlurmFilter { prefix: Some(prefix), asn: None }
    }

    /// Filter every VRP originated by `asn`.
    pub fn asn(asn: Asn) -> Self {
        SlurmFilter { prefix: None, asn: Some(asn) }
    }

    /// Filter VRPs matching both the prefix and the ASN.
    pub fn prefix_and_asn(prefix: Prefix, asn: Asn) -> Self {
        SlurmFilter { prefix: Some(prefix), asn: Some(asn) }
    }

    /// Whether this filter drops `vrp`.
    pub fn matches(&self, vrp: &Vrp) -> bool {
        if self.prefix.is_none() && self.asn.is_none() {
            return false;
        }
        self.prefix.is_none_or(|p| p.covers(vrp.prefix)) && self.asn.is_none_or(|a| a == vrp.asn)
    }
}

/// A set of RFC 8416 local exceptions: filters first, then assertions.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SlurmFile {
    /// `prefixFilters`: VRPs matching any filter are dropped.
    pub filters: Vec<SlurmFilter>,
    /// `prefixAssertions`: locally-trusted VRPs added after filtering.
    pub assertions: Vec<Vrp>,
}

impl SlurmFile {
    /// No local exceptions: `apply` is the identity.
    pub fn empty() -> Self {
        SlurmFile::default()
    }

    /// Whether this file changes nothing.
    pub fn is_empty(&self) -> bool {
        self.filters.is_empty() && self.assertions.is_empty()
    }

    /// Applies the exceptions: drop every VRP matching any filter, then
    /// add every assertion. Idempotent — re-filtering removes at most
    /// what re-asserting restores.
    pub fn apply(&self, vrps: &BTreeSet<Vrp>) -> BTreeSet<Vrp> {
        let mut out: BTreeSet<Vrp> =
            vrps.iter().filter(|v| !self.filters.iter().any(|f| f.matches(v))).copied().collect();
        out.extend(self.assertions.iter().copied());
        out
    }
}

/// How a relay combines its live upstream feeds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MergePolicy {
    /// Union of every live feed: a VRP counts if *any* relying party
    /// vouches for it (availability over strictness).
    Union,
    /// First live feed wins: pure failover, no mixing.
    Any,
    /// Intersection of every live feed: a VRP counts only if *all*
    /// relying parties agree (strictness over availability — divergence
    /// between tiers shrinks the set routers act on).
    All,
}

/// The sequential oracle for a merge: what the policy produces on the
/// given live-feed VRP sets, in feed order. The relay's published set
/// must equal this byte-for-byte.
pub fn reference_merge(policy: MergePolicy, feeds: &[BTreeSet<Vrp>]) -> BTreeSet<Vrp> {
    merge(policy, feeds)
}

/// [`reference_merge`] over owned or borrowed sets, so the relay merges
/// its feeds without copying them first.
fn merge<S: Borrow<BTreeSet<Vrp>>>(policy: MergePolicy, feeds: &[S]) -> BTreeSet<Vrp> {
    match policy {
        MergePolicy::Union => {
            feeds.iter().fold(BTreeSet::new(), |acc, f| acc.union(f.borrow()).copied().collect())
        }
        MergePolicy::Any => feeds.first().map(|f| f.borrow().clone()).unwrap_or_default(),
        MergePolicy::All => {
            let Some((first, rest)) = feeds.split_first() else {
                return BTreeSet::new();
            };
            rest.iter().fold(first.borrow().clone(), |acc, f| {
                acc.intersection(f.borrow()).copied().collect()
            })
        }
    }
}

/// A composable relay unit: merges upstream feeds, applies SLURM, and
/// re-serves downstream as an RTR cache.
#[derive(Debug)]
pub struct Relay {
    node: NodeId,
    /// One upstream RTR session per feed, each a router at `node`.
    feeds: Vec<RtrRouter>,
    policy: MergePolicy,
    slurm: SlurmFile,
    target: RtrFabric,
}

impl Relay {
    /// A relay at `node` re-serving under its own RTR session id and
    /// delta-history depth.
    pub fn new(
        node: NodeId,
        policy: MergePolicy,
        slurm: SlurmFile,
        session: u16,
        max_history: usize,
    ) -> Self {
        Relay {
            node,
            feeds: Vec::new(),
            policy,
            slurm,
            target: RtrFabric::new(node, session, max_history),
        }
    }

    /// The relay's node.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Registers an upstream cache to feed from (in policy order:
    /// [`MergePolicy::Any`] prefers earlier feeds).
    pub fn add_feed(&mut self, upstream: NodeId) {
        self.feeds.push(RtrRouter::new(self.node, upstream));
    }

    /// Registers a downstream router for notify fan-out.
    pub fn attach(&mut self, router: NodeId) {
        self.target.attach(router);
    }

    /// The downstream-facing fabric (serial, session table, stats).
    pub fn target(&self) -> &RtrFabric {
        &self.target
    }

    /// Polls every upstream feed (reset query on fresh sessions).
    pub fn poll_feeds(&mut self, net: &mut Network) {
        for feed in &mut self.feeds {
            feed.poll(net);
        }
    }

    /// Indices of feeds with an established session, in feed order.
    pub fn live_feeds(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.feeds.len()).filter(|&i| self.feeds[i].client().session().is_some())
    }

    /// The merged, SLURM-filtered VRP set over the live feeds.
    pub fn merged(&self) -> BTreeSet<Vrp> {
        let live: Vec<&BTreeSet<Vrp>> = self.live_feeds().map(|i| self.feeds[i].vrps()).collect();
        self.slurm.apply(&merge(self.policy, &live))
    }

    /// Recomputes the merge and, if it changed, publishes it downstream
    /// (serial bump + notify fan-out). Returns `true` on a new serial.
    pub fn republish(&mut self, net: &mut Network) -> bool {
        let merged = self.merged();
        self.target.publish(net, VrpUpdate::Snapshot(merged))
    }
}

impl RtrEndpoint for Relay {
    fn node(&self) -> NodeId {
        self.node
    }

    fn deliver(&mut self, net: &mut Network, delivery: &Delivery) {
        // Upstream data frame → the matching feed.
        if let Some(feed) = self.feeds.iter_mut().find(|f| f.upstream() == delivery.from) {
            feed.deliver(net, delivery);
            return;
        }
        // Anything else is a downstream router query for our target.
        self.target.deliver(net, delivery);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::pump_until;
    use ipres::{Asn, Prefix};

    fn v(s: &str, max: u8, asn: u32) -> Vrp {
        Vrp::new(s.parse::<Prefix>().unwrap(), max, Asn(asn))
    }

    fn set(vrps: &[Vrp]) -> BTreeSet<Vrp> {
        vrps.iter().copied().collect()
    }

    #[test]
    fn slurm_filters_and_assertions() {
        let vrps =
            set(&[v("10.0.0.0/16", 24, 1), v("10.0.1.0/24", 24, 2), v("10.1.0.0/16", 16, 3)]);
        // Prefix filter drops covered VRPs only.
        let file = SlurmFile {
            filters: vec![SlurmFilter::prefix("10.0.0.0/16".parse().unwrap())],
            assertions: vec![],
        };
        assert_eq!(file.apply(&vrps), set(&[v("10.1.0.0/16", 16, 3)]));
        // ASN filter drops by origin.
        let file = SlurmFile { filters: vec![SlurmFilter::asn(Asn(2))], assertions: vec![] };
        assert_eq!(file.apply(&vrps).len(), 2);
        // Prefix+ASN filter requires both.
        let file = SlurmFile {
            filters: vec![SlurmFilter::prefix_and_asn("10.0.0.0/16".parse().unwrap(), Asn(1))],
            assertions: vec![],
        };
        assert_eq!(file.apply(&vrps).len(), 2, "only the (prefix, asn) match drops");
        // Assertions are added after filtering; an empty filter matches
        // nothing.
        let asserted = v("192.0.2.0/24", 24, 64512);
        let file = SlurmFile { filters: vec![SlurmFilter::default()], assertions: vec![asserted] };
        let out = file.apply(&vrps);
        assert_eq!(out.len(), 4);
        assert!(out.contains(&asserted));
        // Idempotence.
        assert_eq!(file.apply(&out), out);
    }

    #[test]
    fn reference_merge_policies() {
        let a = set(&[v("10.0.0.0/16", 24, 1), v("10.1.0.0/16", 16, 2)]);
        let b = set(&[v("10.1.0.0/16", 16, 2), v("10.2.0.0/16", 16, 3)]);
        assert_eq!(reference_merge(MergePolicy::Union, &[a.clone(), b.clone()]).len(), 3);
        assert_eq!(
            reference_merge(MergePolicy::All, &[a.clone(), b.clone()]),
            set(&[v("10.1.0.0/16", 16, 2)])
        );
        assert_eq!(reference_merge(MergePolicy::Any, &[a.clone(), b.clone()]), a);
        assert_eq!(reference_merge(MergePolicy::Union, &[]), BTreeSet::new());
        assert_eq!(reference_merge(MergePolicy::All, &[]), BTreeSet::new());
    }

    /// Two upstream caches with diverging sets, a union relay with a
    /// SLURM filter, one router behind it: the router ends up holding
    /// exactly the sequential reference merge.
    #[test]
    fn relay_end_to_end_matches_reference() {
        let mut net = Network::new(23);
        let cache_a = net.add_node("rp-a");
        let cache_b = net.add_node("rp-b");
        let relay_node = net.add_node("relay");
        let router_node = net.add_node("router");

        let mut fab_a = RtrFabric::new(cache_a, 10, 8);
        let mut fab_b = RtrFabric::new(cache_b, 20, 8);
        let slurm = SlurmFile {
            filters: vec![SlurmFilter::asn(Asn(666))],
            assertions: vec![v("192.0.2.0/24", 24, 64512)],
        };
        let mut relay = Relay::new(relay_node, MergePolicy::Union, slurm.clone(), 30, 8);
        relay.add_feed(cache_a);
        relay.add_feed(cache_b);
        fab_a.attach(relay_node);
        fab_b.attach(relay_node);
        relay.attach(router_node);
        let mut router = RtrRouter::new(router_node, relay_node);

        let set_a = [v("10.0.0.0/16", 24, 1), v("10.3.0.0/16", 16, 666)];
        let set_b = [v("10.1.0.0/16", 16, 2), v("10.3.0.0/16", 16, 666)];
        fab_a.publish(&mut net, VrpUpdate::snapshot(set_a));
        fab_b.publish(&mut net, VrpUpdate::snapshot(set_b));
        relay.poll_feeds(&mut net);
        let deadline = net.now() + 1_000;
        {
            let mut eps: Vec<&mut dyn RtrEndpoint> =
                vec![&mut fab_a, &mut fab_b, &mut relay, &mut router];
            pump_until(&mut net, deadline, &mut eps);
        }
        assert_eq!(relay.live_feeds().collect::<Vec<_>>(), [0, 1]);
        assert!(relay.republish(&mut net));
        let deadline = net.now() + 1_000;
        {
            let mut eps: Vec<&mut dyn RtrEndpoint> =
                vec![&mut fab_a, &mut fab_b, &mut relay, &mut router];
            pump_until(&mut net, deadline, &mut eps);
        }

        let reference =
            slurm.apply(&reference_merge(MergePolicy::Union, &[set(&set_a), set(&set_b)]));
        assert_eq!(router.vrps(), &reference);
        // The filtered AS 666 VRP and the asserted one behaved.
        assert!(!router.vrps().contains(&v("10.3.0.0/16", 16, 666)));
        assert!(router.vrps().contains(&v("192.0.2.0/24", 24, 64512)));
    }

    /// An `Any` relay fails over: while feed 0 has never synced, the
    /// relay serves feed 1; once feed 0 comes up it takes precedence.
    #[test]
    fn any_policy_fails_over_in_feed_order() {
        let mut net = Network::new(29);
        let cache_a = net.add_node("rp-a");
        let cache_b = net.add_node("rp-b");
        let relay_node = net.add_node("relay");

        let mut fab_a = RtrFabric::new(cache_a, 10, 8);
        let mut fab_b = RtrFabric::new(cache_b, 20, 8);
        let mut relay = Relay::new(relay_node, MergePolicy::Any, SlurmFile::empty(), 30, 8);
        relay.add_feed(cache_a);
        relay.add_feed(cache_b);
        fab_a.attach(relay_node);
        fab_b.attach(relay_node);

        let set_a = [v("10.0.0.0/16", 24, 1)];
        let set_b = [v("10.1.0.0/16", 16, 2)];
        net.faults.partition(cache_a, relay_node);
        fab_a.publish(&mut net, VrpUpdate::snapshot(set_a));
        fab_b.publish(&mut net, VrpUpdate::snapshot(set_b));
        relay.poll_feeds(&mut net);
        let deadline = net.now() + 1_000;
        {
            let mut eps: Vec<&mut dyn RtrEndpoint> = vec![&mut fab_a, &mut fab_b, &mut relay];
            pump_until(&mut net, deadline, &mut eps);
        }
        assert_eq!(relay.live_feeds().collect::<Vec<_>>(), [1]);
        assert_eq!(relay.merged(), set(&set_b), "failover to the live feed");

        net.faults.heal(cache_a, relay_node);
        fab_a.renotify(&mut net, relay_node);
        let deadline = net.now() + 1_000;
        {
            let mut eps: Vec<&mut dyn RtrEndpoint> = vec![&mut fab_a, &mut fab_b, &mut relay];
            pump_until(&mut net, deadline, &mut eps);
        }
        assert_eq!(relay.live_feeds().collect::<Vec<_>>(), [0, 1]);
        assert_eq!(relay.merged(), set(&set_a), "first live feed wins again");
    }
}
