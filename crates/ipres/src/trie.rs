//! A binary radix trie over prefixes.
//!
//! Origin validation (RFC 6811) needs, for every BGP route, the set of
//! VRPs whose prefix *covers* the route's prefix; BGP forwarding needs
//! longest-prefix match. Both are path walks in a bit trie. The trie
//! stores any number of values per prefix (several ROAs can share a
//! prefix with different origin ASNs).
//!
//! The implementation is a plain (non-path-compressed) binary trie: an
//! insert at depth *d* allocates at most *d* nodes. At simulator scale
//! (tens of thousands of prefixes) this is comfortably fast — the
//! `benchmark/` package's `ipres.covering_lookup_ns` row measures it —
//! and keeps the structure obviously correct, which the property tests
//! then pin to a brute-force oracle.

use crate::addr::{Addr, Family};
use crate::prefix::Prefix;

/// A binary trie mapping [`Prefix`]es to lists of values.
#[derive(Debug, Clone)]
pub struct PrefixTrie<V> {
    v4: Node<V>,
    v6: Node<V>,
    len: usize,
}

#[derive(Debug, Clone)]
struct Node<V> {
    values: Vec<V>,
    children: [Option<Box<Node<V>>>; 2],
}

impl<V> Default for Node<V> {
    fn default() -> Self {
        Node { values: Vec::new(), children: [None, None] }
    }
}

impl<V> Default for PrefixTrie<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> PrefixTrie<V> {
    /// An empty trie.
    pub fn new() -> Self {
        PrefixTrie { v4: Node::default(), v6: Node::default(), len: 0 }
    }

    fn root(&self, family: Family) -> &Node<V> {
        match family {
            Family::V4 => &self.v4,
            Family::V6 => &self.v6,
        }
    }

    fn root_mut(&mut self, family: Family) -> &mut Node<V> {
        match family {
            Family::V4 => &mut self.v4,
            Family::V6 => &mut self.v6,
        }
    }

    /// Number of values stored (not distinct prefixes).
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the trie stores no values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Inserts `value` at `prefix`. Multiple values per prefix stack in
    /// insertion order.
    pub fn insert(&mut self, prefix: Prefix, value: V) {
        let mut node = self.root_mut(prefix.family());
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            node = node.children[b].get_or_insert_with(Box::default);
        }
        node.values.push(value);
        self.len += 1;
    }

    /// Removes every value at exactly `prefix` satisfying `pred`;
    /// returns the removed values.
    pub fn remove_if<F: FnMut(&V) -> bool>(&mut self, prefix: Prefix, mut pred: F) -> Vec<V> {
        let mut node = self.root_mut(prefix.family());
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            match node.children[b].as_deref_mut() {
                Some(child) => node = child,
                None => return Vec::new(),
            }
        }
        let mut removed = Vec::new();
        let mut kept = Vec::with_capacity(node.values.len());
        for v in node.values.drain(..) {
            if pred(&v) {
                removed.push(v);
            } else {
                kept.push(v);
            }
        }
        node.values = kept;
        self.len -= removed.len();
        // Note: empty interior nodes are not pruned; the trie is a cache
        // rebuilt wholesale by relying parties, so transient slack is fine.
        removed
    }

    /// The values stored at exactly `prefix`.
    pub fn exact(&self, prefix: Prefix) -> &[V] {
        let mut node = self.root(prefix.family());
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            match node.children[b].as_deref() {
                Some(child) => node = child,
                None => return &[],
            }
        }
        &node.values
    }

    /// All `(prefix, value)` entries whose prefix covers `prefix`
    /// (including at `prefix` itself), from shortest to longest.
    pub fn covering(&self, prefix: Prefix) -> Vec<(Prefix, &V)> {
        let mut out = Vec::new();
        self.covering_for_each(prefix, |p, v| {
            out.push((p, v));
            true
        });
        out
    }

    /// Calls `f` on every `(prefix, value)` entry whose prefix covers
    /// `prefix` (including at `prefix` itself), shortest to longest,
    /// without allocating. `f` returns whether to keep scanning; the
    /// walk stops early on `false`.
    ///
    /// This is the hot path of origin validation: one covering query
    /// per classified route, so the `Vec` the plain [`Self::covering`]
    /// API returns would be allocated per route per propagation step.
    pub fn covering_for_each<'a, F>(&'a self, prefix: Prefix, mut f: F)
    where
        F: FnMut(Prefix, &'a V) -> bool,
    {
        let mut node = self.root(prefix.family());
        for v in &node.values {
            if !f(Prefix::new(prefix.addr(), 0), v) {
                return;
            }
        }
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            match node.children[b].as_deref() {
                Some(child) => {
                    node = child;
                    for v in &node.values {
                        if !f(Prefix::new(prefix.addr(), i + 1), v) {
                            return;
                        }
                    }
                }
                None => break,
            }
        }
    }

    /// All `(prefix, value)` entries covered by `prefix` (its subtree,
    /// including `prefix` itself), in depth-first address order.
    pub fn covered_by(&self, prefix: Prefix) -> Vec<(Prefix, &V)> {
        let mut node = self.root(prefix.family());
        for i in 0..prefix.len() {
            let b = prefix.bit(i) as usize;
            match node.children[b].as_deref() {
                Some(child) => node = child,
                None => return Vec::new(),
            }
        }
        let mut out = Vec::new();
        Self::walk(node, prefix, &mut out);
        out
    }

    fn walk<'a>(node: &'a Node<V>, at: Prefix, out: &mut Vec<(Prefix, &'a V)>) {
        for v in &node.values {
            out.push((at, v));
        }
        if let Some((left, right)) = at.children() {
            if let Some(child) = node.children[0].as_deref() {
                Self::walk(child, left, out);
            }
            if let Some(child) = node.children[1].as_deref() {
                Self::walk(child, right, out);
            }
        }
    }

    /// Longest-prefix match for a single address: the deepest entry on
    /// the address's path, if any.
    pub fn longest_match(&self, addr: Addr) -> Option<(Prefix, &[V])> {
        let host = Prefix::new(addr, addr.family().bits());
        let mut node = self.root(addr.family());
        let mut best: Option<(u8, &Node<V>)> =
            if node.values.is_empty() { None } else { Some((0, node)) };
        for i in 0..host.len() {
            let b = host.bit(i) as usize;
            match node.children[b].as_deref() {
                Some(child) => {
                    node = child;
                    if !node.values.is_empty() {
                        best = Some((i + 1, node));
                    }
                }
                None => break,
            }
        }
        best.map(|(len, n)| (Prefix::new(addr, len), n.values.as_slice()))
    }

    /// Every `(prefix, value)` entry in the trie, v4 subtree first.
    pub fn iter(&self) -> Vec<(Prefix, &V)> {
        let mut out = Vec::with_capacity(self.len);
        Self::walk(&self.v4, Prefix::new(Addr::v4(0), 0), &mut out);
        Self::walk(&self.v6, Prefix::new(Addr::v6(0), 0), &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn sample() -> PrefixTrie<u32> {
        let mut t = PrefixTrie::new();
        t.insert(p("63.160.0.0/12"), 1);
        t.insert(p("63.174.16.0/20"), 2);
        t.insert(p("63.174.16.0/22"), 3);
        t.insert(p("63.174.16.0/22"), 33); // second value, same prefix
        t.insert(p("208.0.0.0/11"), 4);
        t.insert(p("2001:db8::/32"), 5);
        t
    }

    #[test]
    fn exact_lookup() {
        let t = sample();
        assert_eq!(t.exact(p("63.174.16.0/22")), &[3, 33]);
        assert_eq!(t.exact(p("63.174.16.0/21")), &[] as &[u32]);
        assert_eq!(t.exact(p("2001:db8::/32")), &[5]);
        assert_eq!(t.len(), 6);
    }

    #[test]
    fn covering_walks_path() {
        let t = sample();
        // 63.174.17.0/24 sits inside the /12, the /20, and the /22.
        let cov = t.covering(p("63.174.17.0/24"));
        let prefixes: Vec<Prefix> = cov.iter().map(|(q, _)| *q).collect();
        assert_eq!(
            prefixes,
            vec![p("63.160.0.0/12"), p("63.174.16.0/20"), p("63.174.16.0/22"), p("63.174.16.0/22")]
        );
        // 63.174.20.0/24 escapes the /22 but not the /20.
        let cov = t.covering(p("63.174.20.0/24"));
        let prefixes: Vec<Prefix> = cov.iter().map(|(q, _)| *q).collect();
        assert_eq!(prefixes, vec![p("63.160.0.0/12"), p("63.174.16.0/20")]);
        // At the /22 itself we see all three levels.
        let cov = t.covering(p("63.174.16.0/22"));
        let vals: Vec<u32> = cov.iter().map(|(_, v)| **v).collect();
        assert_eq!(vals, vec![1, 2, 3, 33]);
        // Nothing covers an unrelated prefix.
        assert!(t.covering(p("8.0.0.0/8")).is_empty());
    }

    #[test]
    fn covering_for_each_stops_on_false() {
        let t = sample();
        let mut seen = Vec::new();
        t.covering_for_each(p("63.174.17.0/24"), |_, v| {
            seen.push(*v);
            seen.len() < 2
        });
        assert_eq!(seen, vec![1, 2]);
    }

    #[test]
    fn covered_by_walks_subtree() {
        let t = sample();
        let sub = t.covered_by(p("63.160.0.0/12"));
        let vals: Vec<u32> = sub.iter().map(|(_, v)| **v).collect();
        assert_eq!(vals, vec![1, 2, 3, 33]);
        assert!(t.covered_by(p("9.0.0.0/8")).is_empty());
        // covered_by at a value-less midpoint still finds descendants.
        let sub = t.covered_by(p("63.174.16.0/21"));
        let vals: Vec<u32> = sub.iter().map(|(_, v)| **v).collect();
        assert_eq!(vals, vec![3, 33]);
    }

    #[test]
    fn longest_match_prefers_deepest() {
        let t = sample();
        let (q, vals) = t.longest_match("63.174.17.9".parse().unwrap()).unwrap();
        assert_eq!(q, p("63.174.16.0/22"));
        assert_eq!(vals, &[3, 33]);
        let (q, vals) = t.longest_match("63.174.20.9".parse().unwrap()).unwrap();
        assert_eq!(q, p("63.174.16.0/20"));
        assert_eq!(vals, &[2]);
        let (q, _) = t.longest_match("63.161.0.1".parse().unwrap()).unwrap();
        assert_eq!(q, p("63.160.0.0/12"));
        assert!(t.longest_match("8.8.8.8".parse().unwrap()).is_none());
    }

    #[test]
    fn default_route_matches_everything() {
        let mut t = PrefixTrie::new();
        t.insert(p("0.0.0.0/0"), 99);
        let (q, vals) = t.longest_match("8.8.8.8".parse().unwrap()).unwrap();
        assert_eq!(q, p("0.0.0.0/0"));
        assert_eq!(vals, &[99]);
        // But not across families.
        assert!(t.longest_match("2001:db8::1".parse().unwrap()).is_none());
    }

    #[test]
    fn remove_if_filters_values() {
        let mut t = sample();
        let removed = t.remove_if(p("63.174.16.0/22"), |v| *v == 3);
        assert_eq!(removed, vec![3]);
        assert_eq!(t.exact(p("63.174.16.0/22")), &[33]);
        assert_eq!(t.len(), 5);
        // Removing at an absent prefix is a no-op.
        assert!(t.remove_if(p("1.0.0.0/8"), |_| true).is_empty());
        assert_eq!(t.len(), 5);
    }

    #[test]
    fn iter_visits_everything() {
        let t = sample();
        let all = t.iter();
        assert_eq!(all.len(), 6);
        let vals: Vec<u32> = all.iter().map(|(_, v)| **v).collect();
        assert_eq!(vals, vec![1, 2, 3, 33, 4, 5]);
    }

    #[test]
    fn families_are_isolated() {
        let t = sample();
        assert!(t.covering(p("::/0")).is_empty());
        let sub = t.covered_by(p("::/0"));
        assert_eq!(sub.len(), 1);
        assert_eq!(*sub[0].1, 5);
    }
}
