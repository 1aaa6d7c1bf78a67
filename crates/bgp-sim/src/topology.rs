//! AS-level topology with Gao–Rexford business relationships.

use std::collections::BTreeMap;

use ipres::Asn;
use serde::{Deserialize, Serialize};

/// How a neighbour relates to *this* AS.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Relationship {
    /// The neighbour pays us for transit.
    Customer,
    /// Settlement-free peer.
    Peer,
    /// We pay the neighbour for transit.
    Provider,
}

impl Relationship {
    /// Preference rank: lower is better (customer routes earn money).
    pub fn rank(self) -> u8 {
        match self {
            Relationship::Customer => 0,
            Relationship::Peer => 1,
            Relationship::Provider => 2,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct AsNode {
    providers: Vec<Asn>,
    customers: Vec<Asn>,
    peers: Vec<Asn>,
}

impl AsNode {
    /// The neighbour lists in selection order — customers, then peers,
    /// then providers — each with the role its members play.
    fn by_role(&self) -> [(&[Asn], Relationship); 3] {
        [
            (&self.customers, Relationship::Customer),
            (&self.peers, Relationship::Peer),
            (&self.providers, Relationship::Provider),
        ]
    }

    /// Number of neighbours.
    fn degree(&self) -> usize {
        self.customers.len() + self.peers.len() + self.providers.len()
    }
}

/// The AS graph.
#[derive(Debug, Clone, Default)]
pub struct Topology {
    nodes: BTreeMap<Asn, AsNode>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Ensures `asn` exists (isolated if no links are added).
    pub fn add_as(&mut self, asn: Asn) {
        self.nodes.entry(asn).or_default();
    }

    /// Whether `asn` is in the graph.
    pub fn contains(&self, asn: Asn) -> bool {
        self.nodes.contains_key(&asn)
    }

    /// All ASes, ascending.
    pub fn ases(&self) -> impl Iterator<Item = Asn> + '_ {
        self.nodes.keys().copied()
    }

    /// Number of ASes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Adds a provider→customer link (money flows customer→provider).
    ///
    /// # Panics
    ///
    /// Panics on self-links or duplicate links.
    pub fn add_provider_customer(&mut self, provider: Asn, customer: Asn) {
        assert_ne!(provider, customer, "self transit link at {provider}");
        self.add_as(provider);
        self.add_as(customer);
        let p = self.nodes.get_mut(&provider).expect("just added");
        assert!(!p.customers.contains(&customer), "duplicate link {provider}→{customer}");
        p.customers.push(customer);
        let c = self.nodes.get_mut(&customer).expect("just added");
        c.providers.push(provider);
    }

    /// Adds a settlement-free peering.
    ///
    /// # Panics
    ///
    /// Panics on self-peerings or duplicates.
    pub fn add_peering(&mut self, a: Asn, b: Asn) {
        assert_ne!(a, b, "self peering at {a}");
        self.add_as(a);
        self.add_as(b);
        let na = self.nodes.get_mut(&a).expect("just added");
        assert!(!na.peers.contains(&b), "duplicate peering {a}—{b}");
        na.peers.push(b);
        self.nodes.get_mut(&b).expect("just added").peers.push(a);
    }

    /// This AS's customers.
    pub fn customers(&self, asn: Asn) -> &[Asn] {
        self.nodes.get(&asn).map(|n| n.customers.as_slice()).unwrap_or(&[])
    }

    /// This AS's providers.
    pub fn providers(&self, asn: Asn) -> &[Asn] {
        self.nodes.get(&asn).map(|n| n.providers.as_slice()).unwrap_or(&[])
    }

    /// This AS's peers.
    pub fn peers(&self, asn: Asn) -> &[Asn] {
        self.nodes.get(&asn).map(|n| n.peers.as_slice()).unwrap_or(&[])
    }

    /// Every neighbour with its relationship *to `asn`* (i.e. the role
    /// the neighbour plays from `asn`'s point of view).
    pub fn neighbors(&self, asn: Asn) -> Vec<(Asn, Relationship)> {
        let Some(node) = self.nodes.get(&asn) else { return Vec::new() };
        let mut out = Vec::with_capacity(node.degree());
        for (list, rel) in node.by_role() {
            out.extend(list.iter().map(|&n| (n, rel)));
        }
        out
    }

    /// The relationship of `neighbor` from `asn`'s point of view, if
    /// adjacent.
    pub fn relationship(&self, asn: Asn, neighbor: Asn) -> Option<Relationship> {
        let node = self.nodes.get(&asn)?;
        if node.customers.contains(&neighbor) {
            Some(Relationship::Customer)
        } else if node.peers.contains(&neighbor) {
            Some(Relationship::Peer)
        } else if node.providers.contains(&neighbor) {
            Some(Relationship::Provider)
        } else {
            None
        }
    }

    /// Checks the provider-customer hierarchy is acyclic (Gao–Rexford
    /// stability needs this). Returns an example cycle if one exists.
    pub fn find_transit_cycle(&self) -> Option<Vec<Asn>> {
        #[derive(Clone, Copy, PartialEq)]
        enum Mark {
            White,
            Grey,
            Black,
        }
        let mut marks: BTreeMap<Asn, Mark> = self.ases().map(|a| (a, Mark::White)).collect();
        // DFS over provider→customer edges on an explicit stack — a
        // hierarchy can be deeper than any call stack. Each entry is a
        // Grey AS and the index of its next customer to visit; the
        // entries, bottom up, are the path from the root.
        let mut stack: Vec<(Asn, usize)> = Vec::new();
        for root in self.ases() {
            if marks[&root] != Mark::White {
                continue;
            }
            marks.insert(root, Mark::Grey);
            stack.push((root, 0));
            while let Some((at, next)) = stack.last_mut() {
                let Some(&c) = self.customers(*at).get(*next) else {
                    marks.insert(*at, Mark::Black);
                    stack.pop();
                    continue;
                };
                *next += 1;
                match marks[&c] {
                    Mark::Grey => {
                        let start = stack.iter().position(|&(x, _)| x == c).unwrap_or(0);
                        let mut cycle: Vec<Asn> = stack[start..].iter().map(|&(x, _)| x).collect();
                        cycle.push(c);
                        return Some(cycle);
                    }
                    Mark::White => {
                        marks.insert(c, Mark::Grey);
                        stack.push((c, 0));
                    }
                    Mark::Black => {}
                }
            }
        }
        None
    }
}

/// A dense-index view of a [`Topology`] for propagation hot loops.
///
/// Interns every AS into a `u32` index (ascending ASN order, so index
/// order equals `Topology::ases` order) and resolves each neighbour
/// list to indices once, replacing per-round `BTreeMap` lookups with
/// array indexing. All lists sit in one `Vec`, cut by per-AS offsets.
/// Neighbour order is that of [`Topology::neighbors`]: customers, then
/// peers, then providers, each in insertion order — selection
/// tie-breaks depend on it.
#[derive(Debug, Clone)]
pub struct TopologyIndex {
    ases: Vec<Asn>,
    /// Every AS's neighbour list, concatenated in index order.
    neighbors: Vec<(u32, Relationship)>,
    /// AS `i`'s list is `neighbors[offsets[i]..offsets[i + 1]]`.
    offsets: Vec<u32>,
}

impl TopologyIndex {
    /// Indexes `topology`.
    pub fn new(topology: &Topology) -> Self {
        Self::with_extra(topology, std::iter::empty())
    }

    /// Indexes `topology` plus `extra` ASes that may not be in the
    /// graph (announcement origins can sit outside it); extras get
    /// empty neighbour lists.
    pub fn with_extra(topology: &Topology, extra: impl IntoIterator<Item = Asn>) -> Self {
        let mut ases: Vec<Asn> = topology.ases().chain(extra).collect();
        ases.sort_unstable();
        ases.dedup();
        let intern = |n: &Asn| ases.binary_search(n).expect("neighbor is interned") as u32;
        let mut neighbors = Vec::with_capacity(topology.nodes.values().map(AsNode::degree).sum());
        let mut offsets = Vec::with_capacity(ases.len() + 1);
        offsets.push(0);
        for asn in &ases {
            if let Some(node) = topology.nodes.get(asn) {
                for (list, rel) in node.by_role() {
                    neighbors.extend(list.iter().map(|n| (intern(n), rel)));
                }
            }
            offsets.push(u32::try_from(neighbors.len()).expect("fewer than 2^32 adjacencies"));
        }
        TopologyIndex { ases, neighbors, offsets }
    }

    /// Number of interned ASes.
    pub fn len(&self) -> usize {
        self.ases.len()
    }

    /// Whether no AS is interned.
    pub fn is_empty(&self) -> bool {
        self.ases.is_empty()
    }

    /// The ASN at `idx`.
    pub fn asn(&self, idx: u32) -> Asn {
        self.ases[idx as usize]
    }

    /// The index of `asn`, if interned.
    pub fn index_of(&self, asn: Asn) -> Option<u32> {
        self.ases.binary_search(&asn).ok().map(|i| i as u32)
    }

    /// Neighbour indices of the AS at `idx`, role-annotated from its
    /// point of view, in [`Topology::neighbors`] order.
    pub fn neighbors(&self, idx: u32) -> &[(u32, Relationship)] {
        let i = idx as usize;
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// The interned ASes, ascending: index `i` is `asn(i)`.
    pub(crate) fn into_ases(self) -> Vec<Asn> {
        self.ases
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(n: u32) -> Asn {
        Asn(n)
    }

    #[test]
    fn build_and_query() {
        let mut t = Topology::new();
        t.add_provider_customer(a(1), a(2));
        t.add_provider_customer(a(1), a(3));
        t.add_peering(a(2), a(3));
        assert_eq!(t.len(), 3);
        assert_eq!(t.customers(a(1)), &[a(2), a(3)]);
        assert_eq!(t.providers(a(2)), &[a(1)]);
        assert_eq!(t.peers(a(2)), &[a(3)]);
        assert_eq!(t.relationship(a(1), a(2)), Some(Relationship::Customer));
        assert_eq!(t.relationship(a(2), a(1)), Some(Relationship::Provider));
        assert_eq!(t.relationship(a(2), a(3)), Some(Relationship::Peer));
        assert_eq!(t.relationship(a(2), a(9)), None);
    }

    #[test]
    fn neighbors_are_role_annotated() {
        let mut t = Topology::new();
        t.add_provider_customer(a(1), a(2));
        t.add_peering(a(2), a(3));
        t.add_provider_customer(a(2), a(4));
        let mut n = t.neighbors(a(2));
        n.sort();
        assert_eq!(
            n,
            vec![
                (a(1), Relationship::Provider),
                (a(3), Relationship::Peer),
                (a(4), Relationship::Customer),
            ]
        );
    }

    #[test]
    fn relationship_ranks() {
        assert!(Relationship::Customer.rank() < Relationship::Peer.rank());
        assert!(Relationship::Peer.rank() < Relationship::Provider.rank());
    }

    #[test]
    fn transit_cycle_detection() {
        let mut t = Topology::new();
        t.add_provider_customer(a(1), a(2));
        t.add_provider_customer(a(2), a(3));
        assert!(t.find_transit_cycle().is_none());
        t.add_provider_customer(a(3), a(1));
        let cycle = t.find_transit_cycle().expect("cycle exists");
        assert!(cycle.len() >= 3);
        assert_eq!(cycle.first(), cycle.last());
    }

    #[test]
    fn transit_cycle_detection_survives_a_deep_hierarchy() {
        // A 200 000-AS provider chain: a recursive DFS overflows the
        // test thread's stack long before the bottom.
        const DEPTH: u32 = 200_000;
        let mut t = Topology::new();
        for i in 1..DEPTH {
            t.add_provider_customer(a(i), a(i + 1));
        }
        assert_eq!(t.find_transit_cycle(), None);
        // The bottom AS sells transit to the top one: the whole chain
        // is the cycle.
        t.add_provider_customer(a(DEPTH), a(1));
        let cycle = t.find_transit_cycle().expect("cycle exists");
        assert_eq!(cycle.len(), DEPTH as usize + 1);
        assert_eq!(cycle.first(), Some(&a(1)));
        assert_eq!(cycle.last(), Some(&a(1)));
        assert!(cycle.windows(2).all(|w| t.customers(w[0]).contains(&w[1])));
    }

    #[test]
    fn isolated_as_has_no_neighbors() {
        let mut t = Topology::new();
        t.add_as(a(9));
        assert!(t.contains(a(9)));
        assert!(t.neighbors(a(9)).is_empty());
    }

    #[test]
    #[should_panic(expected = "duplicate link")]
    fn duplicate_transit_rejected() {
        let mut t = Topology::new();
        t.add_provider_customer(a(1), a(2));
        t.add_provider_customer(a(1), a(2));
    }

    #[test]
    #[should_panic(expected = "self peering")]
    fn self_peering_rejected() {
        let mut t = Topology::new();
        t.add_peering(a(1), a(1));
    }

    #[test]
    fn index_matches_topology_view() {
        let mut t = Topology::new();
        t.add_provider_customer(a(10), a(20));
        t.add_peering(a(20), a(30));
        t.add_provider_customer(a(20), a(40));
        let idx = TopologyIndex::new(&t);
        assert_eq!(idx.len(), 4);
        // Index order is ascending ASN order.
        let interned: Vec<Asn> = (0..idx.len() as u32).map(|i| idx.asn(i)).collect();
        assert_eq!(interned, t.ases().collect::<Vec<_>>());
        // Neighbour lists resolve back to the Topology view, in order.
        for asn in t.ases() {
            let i = idx.index_of(asn).unwrap();
            let via_index: Vec<(Asn, Relationship)> =
                idx.neighbors(i).iter().map(|&(n, rel)| (idx.asn(n), rel)).collect();
            assert_eq!(via_index, t.neighbors(asn), "neighbor mismatch at {asn}");
        }
        assert_eq!(idx.index_of(a(99)), None);
    }

    #[test]
    fn index_with_extra_origins() {
        let mut t = Topology::new();
        t.add_provider_customer(a(1), a(2));
        let idx = TopologyIndex::with_extra(&t, [a(66), a(2)]);
        assert_eq!(idx.len(), 3);
        let i66 = idx.index_of(a(66)).unwrap();
        assert_eq!(idx.asn(i66), a(66));
        assert!(idx.neighbors(i66).is_empty());
    }
}
