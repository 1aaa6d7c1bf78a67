//! Validated ROA payloads and the covering-query cache.

use std::fmt;

use ipres::{Asn, Prefix};
use serde::{Deserialize, Serialize};

/// One validated ROA payload: the unit of origin validation (RFC 6811
/// calls these VRPs). A ROA with several prefixes yields several VRPs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Vrp {
    /// The authorised prefix.
    pub prefix: Prefix,
    /// Maximum announced length the authorisation tolerates.
    pub max_len: u8,
    /// The authorised origin AS.
    pub asn: Asn,
}

impl Vrp {
    /// Builds a VRP.
    ///
    /// # Panics
    ///
    /// Panics if `max_len` is below the prefix length or beyond the
    /// family width (validated objects can't carry such values; fixture
    /// code could).
    pub fn new(prefix: Prefix, max_len: u8, asn: Asn) -> Self {
        assert!(
            max_len >= prefix.len() && max_len <= prefix.family().bits(),
            "VRP maxLength {max_len} out of range for {prefix}"
        );
        Vrp { prefix, max_len, asn }
    }

    /// RFC 6811 *covers*: the VRP's prefix covers the route's prefix.
    pub fn covers(&self, route_prefix: Prefix) -> bool {
        self.prefix.covers(route_prefix)
    }

    /// RFC 6811 *matches*: covers, and the route is within `max_len`,
    /// and the origin matches.
    pub fn matches(&self, route_prefix: Prefix, origin: Asn) -> bool {
        self.asn == origin && self.covers(route_prefix) && route_prefix.len() <= self.max_len
    }
}

impl fmt::Display for Vrp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.max_len == self.prefix.len() {
            write!(f, "({}, {})", self.prefix, self.asn)
        } else {
            write!(f, "({}-{}, {})", self.prefix, self.max_len, self.asn)
        }
    }
}

/// The end of a chain of covering VRPs in `VrpCache::up`.
const TOP: u32 = u32::MAX;

/// A queryable set of VRPs, sorted and deduplicated, answering the
/// covering lookups RFC 6811 needs per route.
///
/// [`Prefix`] orders a prefix right before everything it covers, so
/// every VRP that covers a route also covers the last VRP sorted at or
/// before the route's prefix. A query finds that VRP by binary search
/// and walks up its chain of covering prefixes.
#[derive(Debug, Default)]
pub struct VrpCache {
    all: Vec<Vrp>,
    /// `up[i]` is the next VRP up `all[i]`'s chain: the VRP before it
    /// on the same prefix, else the last VRP on the longest prefix that
    /// covers it, else `TOP`.
    up: Vec<u32>,
}

/// The `up` links of `all`, in one pass over a stack of the chain above
/// the current VRP.
fn links(all: &[Vrp]) -> Vec<u32> {
    let mut up = Vec::with_capacity(all.len());
    let mut chain: Vec<u32> = Vec::new();
    for (i, v) in all.iter().enumerate() {
        while chain.last().is_some_and(|&c| !all[c as usize].prefix.covers(v.prefix)) {
            chain.pop();
        }
        up.push(chain.last().copied().unwrap_or(TOP));
        chain.push(u32::try_from(i).expect("a VRP set indexes in u32"));
    }
    up
}

impl VrpCache {
    /// An empty cache.
    pub fn new() -> Self {
        VrpCache::default()
    }

    /// Builds a cache from VRPs (duplicates collapse).
    pub fn from_vrps<I: IntoIterator<Item = Vrp>>(vrps: I) -> Self {
        let mut all: Vec<Vrp> = vrps.into_iter().collect();
        all.sort_unstable();
        all.dedup();
        let up = links(&all);
        VrpCache { all, up }
    }

    /// Adds one VRP (no-op if already present).
    pub fn insert(&mut self, vrp: Vrp) {
        if let Err(pos) = self.all.binary_search(&vrp) {
            self.all.insert(pos, vrp);
            self.up = links(&self.all);
        }
    }

    /// Removes one VRP. Returns whether it was present.
    pub fn remove(&mut self, vrp: &Vrp) -> bool {
        let Ok(pos) = self.all.binary_search(vrp) else { return false };
        self.all.remove(pos);
        self.up = links(&self.all);
        true
    }

    /// All VRPs, sorted.
    pub fn vrps(&self) -> &[Vrp] {
        &self.all
    }

    /// Number of VRPs.
    pub fn len(&self) -> usize {
        self.all.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.all.is_empty()
    }

    /// Every VRP whose prefix covers `route_prefix`.
    pub fn covering(&self, route_prefix: Prefix) -> Vec<Vrp> {
        let mut out = Vec::new();
        self.covering_for_each(route_prefix, |v| {
            out.push(v);
            true
        });
        out
    }

    /// Calls `f` on every VRP whose prefix covers `route_prefix`,
    /// longest prefix first, without allocating. `f` returns whether
    /// to keep scanning; the walk stops early on `false`.
    pub fn covering_for_each<F: FnMut(Vrp) -> bool>(&self, route_prefix: Prefix, mut f: F) {
        let at = self.all.partition_point(|v| v.prefix <= route_prefix);
        // The chain above the last VRP at or before the route holds
        // every covering VRP; its longest links may miss the route.
        let mut i = at.checked_sub(1).map_or(TOP, |i| i as u32);
        while i != TOP {
            let v = self.all[i as usize];
            if v.prefix.covers(route_prefix) && !f(v) {
                return;
            }
            i = self.up[i as usize];
        }
    }
}

impl FromIterator<Vrp> for VrpCache {
    fn from_iter<T: IntoIterator<Item = Vrp>>(iter: T) -> Self {
        VrpCache::from_vrps(iter)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn match_and_cover() {
        let v = Vrp::new(p("63.160.64.0/20"), 24, Asn(1239));
        assert!(v.matches(p("63.160.64.0/20"), Asn(1239)));
        assert!(v.matches(p("63.160.65.0/24"), Asn(1239)));
        assert!(!v.matches(p("63.160.65.0/24"), Asn(666)));
        assert!(!v.matches(p("63.160.64.0/25"), Asn(1239)));
        assert!(v.covers(p("63.160.64.0/25")));
    }

    #[test]
    fn cache_covering_query() {
        let cache: VrpCache = [
            Vrp::new(p("63.160.0.0/12"), 12, Asn(1239)),
            Vrp::new(p("63.174.16.0/20"), 24, Asn(17054)),
            Vrp::new(p("8.0.0.0/8"), 8, Asn(3356)),
        ]
        .into_iter()
        .collect();
        let cov = cache.covering(p("63.174.17.0/24"));
        assert_eq!(cov.len(), 2);
        assert!(cov.iter().any(|v| v.asn == Asn(1239)));
        assert!(cov.iter().any(|v| v.asn == Asn(17054)));
        assert!(cache.covering(p("9.0.0.0/9")).is_empty());
    }

    /// Two origins on the /22, its /20 and /12 above it, an unrelated
    /// v4 prefix and a v6 one.
    fn sample() -> VrpCache {
        [
            Vrp::new(p("63.160.0.0/12"), 12, Asn(1)),
            Vrp::new(p("63.174.16.0/20"), 20, Asn(2)),
            Vrp::new(p("63.174.16.0/22"), 22, Asn(3)),
            Vrp::new(p("63.174.16.0/22"), 22, Asn(33)),
            Vrp::new(p("208.0.0.0/11"), 11, Asn(4)),
            Vrp::new(p("2001:db8::/32"), 32, Asn(5)),
        ]
        .into_iter()
        .collect()
    }

    fn origins(vrps: &[Vrp]) -> Vec<u32> {
        vrps.iter().map(|v| v.asn.0).collect()
    }

    #[test]
    fn links_point_up_the_chain() {
        let cache = sample();
        // /12, /20, /22 ×2, then a lone v4 prefix and a lone v6 one.
        assert_eq!(cache.up, [TOP, 0, 1, 2, TOP, TOP]);
    }

    #[test]
    fn insert_and_remove_relink_the_chains() {
        let route = p("10.1.2.0/25");
        let mut cache: VrpCache = [
            Vrp::new(p("10.0.0.0/8"), 8, Asn(1)),
            Vrp::new(p("10.1.2.0/24"), 24, Asn(3)),
            Vrp::new(p("10.1.2.0/24"), 24, Asn(4)),
        ]
        .into_iter()
        .collect();
        // A new cover between the /8 and the /24 run joins its chain.
        cache.insert(Vrp::new(p("10.1.0.0/16"), 16, Asn(2)));
        assert_eq!(origins(&cache.covering(route)), [4, 3, 2, 1]);
        // Removing it, and then the top of the chain, relinks around
        // the gap.
        assert!(cache.remove(&Vrp::new(p("10.1.0.0/16"), 16, Asn(2))));
        assert_eq!(origins(&cache.covering(route)), [4, 3, 1]);
        assert!(cache.remove(&Vrp::new(p("10.0.0.0/8"), 8, Asn(1))));
        assert_eq!(origins(&cache.covering(route)), [4, 3]);
        assert!(cache.covering(p("10.1.3.0/24")).is_empty());
    }

    #[test]
    fn covering_walks_the_chain_longest_first() {
        let cache = sample();
        // 63.174.17.0/24 sits inside the /22 (both origins), the /20
        // and the /12.
        assert_eq!(origins(&cache.covering(p("63.174.17.0/24"))), [33, 3, 2, 1]);
        // 63.174.20.0/24 sorts after the /22 but escapes it.
        assert_eq!(origins(&cache.covering(p("63.174.20.0/24"))), [2, 1]);
        // At the /22 itself every level covers.
        assert_eq!(origins(&cache.covering(p("63.174.16.0/22"))), [33, 3, 2, 1]);
        // Nothing covers a prefix before the first VRP or between two.
        assert!(cache.covering(p("8.0.0.0/8")).is_empty());
        assert!(cache.covering(p("100.0.0.0/8")).is_empty());
    }

    #[test]
    fn covering_for_each_stops_on_false() {
        let cache = sample();
        let mut seen = Vec::new();
        cache.covering_for_each(p("63.174.17.0/24"), |v| {
            seen.push(v);
            seen.len() < 2
        });
        assert_eq!(seen, cache.covering(p("63.174.17.0/24"))[..2]);
    }

    #[test]
    fn default_route_covers_everything() {
        let all = Vrp::new(p("0.0.0.0/0"), 0, Asn(99));
        let cache: VrpCache = [all, Vrp::new(p("10.0.0.0/8"), 8, Asn(1))].into_iter().collect();
        assert_eq!(cache.covering(p("0.0.0.0/0")), [all]);
        assert_eq!(origins(&cache.covering(p("10.1.0.0/16"))), [1, 99]);
        assert_eq!(cache.covering(p("255.255.255.255/32")), [all]);
        // But not across families.
        assert!(cache.covering(p("::/0")).is_empty());
        assert!(cache.covering(p("2001:db8::1/128")).is_empty());
    }

    #[test]
    fn families_are_kept_apart() {
        let cache = sample();
        // ::/0 sorts after every v4 VRP and covers none of them.
        assert!(cache.covering(p("::/0")).is_empty());
        assert_eq!(origins(&cache.covering(p("2001:db8:1::/48"))), [5]);
        // The v4 address whose value equals 2001:db8::'s top bits.
        assert!(cache.covering(p("32.1.13.184/32")).is_empty());
        let v6_default: VrpCache = [Vrp::new(p("::/0"), 0, Asn(6))].into_iter().collect();
        assert!(v6_default.covering(p("10.0.0.0/8")).is_empty());
        assert_eq!(origins(&v6_default.covering(p("2001:db8::/32"))), [6]);
    }

    #[test]
    fn a_covering_run_covers_another_run() {
        // Three origins on the /16, two on a /24 inside it, one on a
        // later sibling /24.
        let cache: VrpCache = [
            Vrp::new(p("10.0.0.0/16"), 24, Asn(1)),
            Vrp::new(p("10.0.0.0/16"), 16, Asn(2)),
            Vrp::new(p("10.0.0.0/16"), 24, Asn(3)),
            Vrp::new(p("10.0.1.0/24"), 24, Asn(4)),
            Vrp::new(p("10.0.1.0/24"), 24, Asn(5)),
            Vrp::new(p("10.0.2.0/24"), 24, Asn(6)),
        ]
        .into_iter()
        .collect();
        assert_eq!(origins(&cache.covering(p("10.0.1.128/25"))), [5, 4, 3, 1, 2]);
        // The sibling's chain skips the first /24's run.
        assert_eq!(origins(&cache.covering(p("10.0.2.0/25"))), [6, 3, 1, 2]);
        assert_eq!(origins(&cache.covering(p("10.0.3.0/24"))), [3, 1, 2]);
        assert!(cache.covering(p("10.1.0.0/24")).is_empty());
    }

    #[test]
    fn insert_remove_round_trip() {
        let mut cache = VrpCache::new();
        let v = Vrp::new(p("10.0.0.0/8"), 16, Asn(1));
        cache.insert(v);
        cache.insert(v); // duplicate is a no-op
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.covering(p("10.1.0.0/16")), vec![v]);
        assert!(cache.remove(&v));
        assert!(!cache.remove(&v));
        assert!(cache.is_empty());
        assert!(cache.covering(p("10.1.0.0/16")).is_empty());
    }

    #[test]
    fn duplicate_prefix_different_origin_both_kept() {
        let cache: VrpCache =
            [Vrp::new(p("10.0.0.0/8"), 8, Asn(1)), Vrp::new(p("10.0.0.0/8"), 8, Asn(2))]
                .into_iter()
                .collect();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.covering(p("10.0.0.0/8")).len(), 2);
    }

    #[test]
    fn display_forms() {
        assert_eq!(Vrp::new(p("10.0.0.0/8"), 8, Asn(1)).to_string(), "(10.0.0.0/8, AS1)");
        assert_eq!(Vrp::new(p("10.0.0.0/8"), 24, Asn(1)).to_string(), "(10.0.0.0/8-24, AS1)");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_max_len_panics() {
        let _ = Vrp::new(p("10.0.0.0/24"), 8, Asn(1));
    }
}
