//! Canonical sets of IP addresses (RFC 3779 resource sets).
//!
//! A [`ResourceSet`] is the value an RPKI resource certificate binds to
//! a key: an arbitrary set of addresses, possibly spanning both
//! families. The whole HotNets '13 attack surface reduces to algebra on
//! these sets:
//!
//! - chain validation is `child.resources ⊆ parent.resources`
//!   ([`ResourceSet::contains_set`]);
//! - the grandchild-whack of Section 3.1 is
//!   `parent_rc − target_roa` ([`ResourceSet::difference`]) followed by
//!   a collateral check against sibling objects
//!   ([`ResourceSet::overlaps`]);
//! - the "can we carve without collateral?" decision is emptiness of an
//!   intersection ([`ResourceSet::intersection`]).
//!
//! Representation: a single sorted `Vec<AddrRange>`, disjoint and with
//! abutting runs merged, IPv4 runs before IPv6 runs. That canonical form
//! makes equality structural and every binary operation a linear merge.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::prefix::Prefix;
use crate::range::AddrRange;

/// A canonical, possibly mixed-family set of IP addresses.
#[derive(Clone, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub struct ResourceSet {
    /// Sorted, disjoint, non-abutting runs. IPv4 sorts before IPv6
    /// because [`Addr`](crate::Addr)'s ordering does.
    runs: Vec<AddrRange>,
}

impl ResourceSet {
    /// The empty set.
    pub fn empty() -> Self {
        ResourceSet::default()
    }

    /// A set holding exactly one prefix.
    pub fn from_prefix(prefix: Prefix) -> Self {
        ResourceSet { runs: vec![prefix.range()] }
    }

    /// A set holding one arbitrary range.
    pub fn from_range(range: AddrRange) -> Self {
        ResourceSet { runs: vec![range] }
    }

    /// Builds a canonical set from any iterator of ranges (overlaps and
    /// duplicates welcome).
    pub fn from_ranges<I: IntoIterator<Item = AddrRange>>(ranges: I) -> Self {
        let mut runs: Vec<AddrRange> = ranges.into_iter().collect();
        runs.sort_by_key(|r| (r.lo(), r.hi()));
        let mut out: Vec<AddrRange> = Vec::with_capacity(runs.len());
        for r in runs {
            match out.last_mut() {
                Some(last) if last.overlaps(r) || last.abuts(r) => {
                    *last = AddrRange::new(last.lo(), last.hi().max(r.hi()));
                }
                _ => out.push(r),
            }
        }
        ResourceSet { runs: out }
    }

    /// Adopts `runs` as a set if they already are one in canonical form
    /// (sorted, disjoint, non-abutting), without rebuilding it; `None`
    /// otherwise. Accepts exactly the `runs` for which
    /// `ResourceSet::from_ranges(runs.clone()).ranges() == runs`.
    pub fn from_canonical_runs(runs: Vec<AddrRange>) -> Option<Self> {
        runs.windows(2)
            .all(|w| w[0].hi() < w[1].lo() && !w[0].abuts(w[1]))
            .then_some(ResourceSet { runs })
    }

    /// Builds a canonical set from prefixes.
    pub fn from_prefixes<I: IntoIterator<Item = Prefix>>(prefixes: I) -> Self {
        Self::from_ranges(prefixes.into_iter().map(AddrRange::from))
    }

    /// Parses a comma-separated list of prefixes, e.g.
    /// `"63.160.0.0/12, 208.0.0.0/11"`. Convenience for fixtures.
    ///
    /// # Panics
    ///
    /// Panics on malformed input; fixtures are programmer-authored.
    pub fn from_prefix_strs(s: &str) -> Self {
        Self::from_prefixes(
            s.split(',')
                .map(str::trim)
                .filter(|p| !p.is_empty())
                .map(|p| p.parse::<Prefix>().expect("malformed prefix in fixture")),
        )
    }

    /// Whether the set holds no addresses.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// The canonical runs, sorted and disjoint.
    pub fn ranges(&self) -> &[AddrRange] {
        &self.runs
    }

    /// Total number of addresses (saturating for full IPv6 space).
    pub fn size(&self) -> u128 {
        self.runs.iter().fold(0u128, |acc, r| acc.saturating_add(r.size()))
    }

    /// Number of canonical runs.
    pub fn num_runs(&self) -> usize {
        self.runs.len()
    }

    /// Whether the set contains every address of `prefix`.
    pub fn contains_prefix(&self, prefix: Prefix) -> bool {
        self.contains_range(prefix.range())
    }

    /// Whether the set contains every address of `range`.
    ///
    /// Because runs are canonical (merged), a contained range must lie
    /// within a single run.
    pub fn contains_range(&self, range: AddrRange) -> bool {
        let idx = self.runs.partition_point(|r| r.lo() <= range.lo());
        idx > 0 && self.runs[idx - 1].contains(range)
    }

    /// RFC 3779 containment: every address of `other` is in `self`.
    pub fn contains_set(&self, other: &ResourceSet) -> bool {
        other.runs.iter().all(|r| self.contains_range(*r))
    }

    /// Whether the sets share any address.
    pub fn overlaps(&self, other: &ResourceSet) -> bool {
        // Linear merge over the two sorted run lists.
        let (mut i, mut j) = (0, 0);
        while i < self.runs.len() && j < other.runs.len() {
            let (a, b) = (self.runs[i], other.runs[j]);
            if a.overlaps(b) {
                return true;
            }
            if (a.lo().family(), a.hi()) <= (b.lo().family(), b.hi()) {
                i += 1;
            } else {
                j += 1;
            }
        }
        false
    }

    /// Whether the set shares any address with `prefix`.
    pub fn overlaps_prefix(&self, prefix: Prefix) -> bool {
        let range = prefix.range();
        let idx = self.runs.partition_point(|r| r.hi() < range.lo());
        idx < self.runs.len() && self.runs[idx].overlaps(range)
    }

    /// Set union.
    pub fn union(&self, other: &ResourceSet) -> ResourceSet {
        ResourceSet::from_ranges(self.runs.iter().chain(other.runs.iter()).copied())
    }

    /// Set intersection.
    pub fn intersection(&self, other: &ResourceSet) -> ResourceSet {
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < self.runs.len() && j < other.runs.len() {
            let (a, b) = (self.runs[i], other.runs[j]);
            if let Some(x) = a.intersect(b) {
                out.push(x);
            }
            // Advance whichever run ends first (family-aware via Addr order).
            if a.hi() <= b.hi() {
                i += 1;
            } else {
                j += 1;
            }
        }
        // Runs were produced in order and disjoint; still normalise to
        // merge abutting results defensively.
        ResourceSet::from_ranges(out)
    }

    /// Set difference `self − other`.
    pub fn difference(&self, other: &ResourceSet) -> ResourceSet {
        let mut out: Vec<AddrRange> = Vec::new();
        let mut j = 0;
        for &run in &self.runs {
            let mut cursor = Some(run);
            // Skip other-runs entirely below this run.
            while j < other.runs.len() && other.runs[j].hi() < run.lo() {
                j += 1;
            }
            let mut k = j;
            while let Some(cur) = cursor {
                if k >= other.runs.len() || other.runs[k].lo() > cur.hi() {
                    out.push(cur);
                    cursor = None;
                } else {
                    let cut = other.runs[k];
                    // Part of `cur` strictly below the cut survives.
                    if cut.lo() > cur.lo() {
                        out.push(AddrRange::new(cur.lo(), cut.lo().pred().expect("cut.lo > 0")));
                    }
                    // Continue above the cut, if anything remains.
                    cursor = match cut.hi().succ() {
                        Some(next) if next <= cur.hi() && next.family() == cur.hi().family() => {
                            Some(AddrRange::new(next, cur.hi()))
                        }
                        _ => None,
                    };
                    k += 1;
                }
            }
        }
        ResourceSet::from_ranges(out)
    }

    /// Decomposes the whole set into its minimal exact prefix tiling.
    pub fn to_prefixes(&self) -> Vec<Prefix> {
        self.runs.iter().flat_map(|r| r.to_prefixes()).collect()
    }
}

impl From<Prefix> for ResourceSet {
    fn from(p: Prefix) -> Self {
        ResourceSet::from_prefix(p)
    }
}

impl From<AddrRange> for ResourceSet {
    fn from(r: AddrRange) -> Self {
        ResourceSet::from_range(r)
    }
}

impl FromIterator<Prefix> for ResourceSet {
    fn from_iter<T: IntoIterator<Item = Prefix>>(iter: T) -> Self {
        ResourceSet::from_prefixes(iter)
    }
}

impl FromIterator<AddrRange> for ResourceSet {
    fn from_iter<T: IntoIterator<Item = AddrRange>>(iter: T) -> Self {
        ResourceSet::from_ranges(iter)
    }
}

impl fmt::Display for ResourceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.runs.is_empty() {
            return f.write_str("{}");
        }
        let parts: Vec<String> = self.runs.iter().map(|r| r.to_string()).collect();
        write!(f, "{{{}}}", parts.join(", "))
    }
}

impl fmt::Debug for ResourceSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ResourceSet{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(s: &str) -> ResourceSet {
        ResourceSet::from_prefix_strs(s)
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn canonicalisation_merges_overlaps_and_abutting() {
        let a = set("10.0.0.0/25, 10.0.0.128/25, 10.0.1.0/24, 10.0.0.0/24");
        assert_eq!(a.num_runs(), 1);
        assert_eq!(a, set("10.0.0.0/23"));
        assert_eq!(a.size(), 512);
    }

    #[test]
    fn empty_set_behaviour() {
        let e = ResourceSet::empty();
        assert!(e.is_empty());
        assert_eq!(e.size(), 0);
        assert!(set("10.0.0.0/8").contains_set(&e));
        assert!(e.contains_set(&ResourceSet::empty()));
        assert!(!e.overlaps(&set("10.0.0.0/8")));
        assert_eq!(e.union(&e), e);
    }

    #[test]
    fn containment_basics() {
        let sprint = set("63.160.0.0/12, 208.0.0.0/11");
        assert!(sprint.contains_prefix(p("63.174.16.0/20")));
        assert!(sprint.contains_prefix(p("208.16.0.0/16")));
        assert!(!sprint.contains_prefix(p("63.0.0.0/8")));
        assert!(sprint.contains_set(&set("63.174.16.0/20, 208.0.0.0/12")));
        assert!(!sprint.contains_set(&set("63.174.16.0/20, 8.0.0.0/8")));
    }

    #[test]
    fn contains_range_rejects_run_spanning_gap() {
        let s = ResourceSet::from_ranges(vec![
            AddrRange::new("10.0.0.0".parse().unwrap(), "10.0.0.99".parse().unwrap()),
            AddrRange::new("10.0.0.101".parse().unwrap(), "10.0.0.200".parse().unwrap()),
        ]);
        assert_eq!(s.num_runs(), 2);
        assert!(!s.contains_range(AddrRange::new(
            "10.0.0.50".parse().unwrap(),
            "10.0.0.150".parse().unwrap()
        )));
        assert!(!s.contains_prefix("10.0.0.100/32".parse().unwrap()));
        assert!(s.contains_prefix("10.0.0.99/32".parse().unwrap()));
        assert!(s.contains_prefix("10.0.0.101/32".parse().unwrap()));
    }

    #[test]
    fn union_intersection_difference() {
        let a = set("10.0.0.0/24, 10.0.2.0/24");
        let b = set("10.0.1.0/24, 10.0.2.128/25");
        assert_eq!(a.union(&b), set("10.0.0.0/23, 10.0.2.0/24"));
        assert_eq!(a.intersection(&b), set("10.0.2.128/25"));
        assert_eq!(a.difference(&b), set("10.0.0.0/24, 10.0.2.0/25"));
        assert_eq!(b.difference(&a), set("10.0.1.0/24"));
    }

    #[test]
    fn difference_splits_runs() {
        let a = set("10.0.0.0/22");
        let cut = set("10.0.1.0/24");
        let d = a.difference(&cut);
        assert_eq!(d, set("10.0.0.0/24, 10.0.2.0/23"));
        assert_eq!(d.size(), 1024 - 256);
        assert!(!d.overlaps(&cut));
        assert_eq!(d.union(&cut), a);
    }

    #[test]
    fn figure3_carveout() {
        // Sprint carves the target ROA (63.174.24.0/24 within Continental
        // Broadband's /20+...) — reproduce the exact RC from Figure 3:
        // /20 ∪ /21-extra minus the /24 yields the two published ranges.
        let continental = set("63.174.16.0/20");
        let target = set("63.174.24.0/24");
        let carved = continental.difference(&target);
        assert_eq!(
            carved.ranges(),
            &[
                AddrRange::new("63.174.16.0".parse().unwrap(), "63.174.23.255".parse().unwrap()),
                AddrRange::new("63.174.25.0".parse().unwrap(), "63.174.31.255".parse().unwrap()),
            ]
        );
    }

    #[test]
    fn mixed_family_sets() {
        let s = ResourceSet::from_prefixes(vec![p("10.0.0.0/8"), p("2001:db8::/32")]);
        assert_eq!(s.num_runs(), 2);
        assert!(s.contains_prefix(p("10.1.0.0/16")));
        assert!(s.contains_prefix(p("2001:db8:1::/48")));
        assert!(!s.contains_prefix(p("2001:db9::/32")));
        // Families never merge or intersect.
        let v4 = set("10.0.0.0/8");
        assert_eq!(s.intersection(&v4), v4);
        assert_eq!(s.difference(&v4), ResourceSet::from_prefix(p("2001:db8::/32")));
    }

    #[test]
    fn overlaps_prefix_bisect() {
        let s = set("10.0.0.0/24, 10.0.2.0/24, 10.0.4.0/24");
        assert!(s.overlaps_prefix(p("10.0.2.128/25")));
        assert!(s.overlaps_prefix(p("10.0.0.0/8")));
        assert!(!s.overlaps_prefix(p("10.0.3.0/24")));
        assert!(!s.overlaps_prefix(p("11.0.0.0/8")));
    }

    #[test]
    fn to_prefixes_round_trip() {
        let s = set("63.174.16.0/20").difference(&set("63.174.24.0/24"));
        let tiled = ResourceSet::from_prefixes(s.to_prefixes());
        assert_eq!(tiled, s);
    }

    #[test]
    fn display_formats() {
        assert_eq!(ResourceSet::empty().to_string(), "{}");
        assert_eq!(set("10.0.0.0/24").to_string(), "{[10.0.0.0-10.0.0.255]}");
    }
}
