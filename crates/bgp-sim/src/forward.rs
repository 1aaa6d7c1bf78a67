//! Data-plane forwarding: longest-prefix match over selected routes.
//!
//! Subprefix hijacks are won here, not in the RIB: a router holding a
//! perfectly good /16 route still sends the packet toward whoever
//! announced the covering /24 (the paper's "Design Decision: retaining
//! BGP's subprefix semantics"). [`RoutingState::forward`] walks a packet
//! hop by hop, each hop doing LPM over that AS's own table.

use ipres::{Addr, Asn};
use serde::Serialize;

use crate::propagate::{RoutingState, SelectedRoute};

/// Where a packet ended up.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum ForwardOutcome {
    /// The packet reached the AS that originated the best-matching
    /// route — which may be a hijacker, not the rightful holder.
    Delivered {
        /// The origin AS the packet landed at.
        at: Asn,
        /// The ASes traversed, source first, destination last.
        path: Vec<Asn>,
    },
    /// Some AS on the way had no route covering the address.
    NoRoute {
        /// The AS that had to drop the packet.
        at: Asn,
        /// ASes traversed up to and including `at`.
        path: Vec<Asn>,
    },
    /// Forwarding looped (inconsistent tables — possible while tables
    /// disagree about LPM winners mid-attack).
    Loop {
        /// ASes traversed until the repeat was detected.
        path: Vec<Asn>,
    },
}

impl ForwardOutcome {
    /// Whether the packet was delivered to `asn`.
    pub fn delivered_to(&self, asn: Asn) -> bool {
        matches!(self, ForwardOutcome::Delivered { at, .. } if *at == asn)
    }
}

impl RoutingState {
    /// Longest-prefix match over `asn`'s own table: of the routes
    /// covering `addr` (one per prefix, so lengths are distinct) the
    /// longest.
    fn longest_match(&self, asn: Asn, addr: Addr) -> Option<SelectedRoute<'_>> {
        self.table(asn).filter(|r| r.prefix.contains(addr)).max_by_key(|r| r.prefix.len())
    }

    /// Forwards a packet for `addr` from `src`, hop by hop, each hop
    /// using longest-prefix match over its own selected routes.
    pub fn forward(&self, src: Asn, addr: Addr) -> ForwardOutcome {
        let mut path = vec![src];
        let mut current = src;
        loop {
            let Some(route) = self.longest_match(current, addr) else {
                return ForwardOutcome::NoRoute { at: current, path };
            };
            let Some(&next) = route.path.first() else {
                // We are the origin of the best-matching route.
                return ForwardOutcome::Delivered { at: current, path };
            };
            if path.contains(&next) {
                path.push(next);
                return ForwardOutcome::Loop { path };
            }
            path.push(next);
            current = next;
        }
    }

    /// Fraction of ASes in `ases` whose packets for `addr` reach
    /// `destination`. The headline number of the paper's Table 6.
    pub fn reachability_of(
        &self,
        ases: impl Iterator<Item = Asn>,
        addr: Addr,
        destination: Asn,
    ) -> f64 {
        let mut total = 0usize;
        let mut ok = 0usize;
        for asn in ases {
            total += 1;
            if self.forward(asn, addr).delivered_to(destination) {
                ok += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            ok as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::propagate::{propagate, Announcement, RpkiPolicy};
    use crate::topology::Topology;
    use ipres::Prefix;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use rpki_rp::{Vrp, VrpCache};

    fn a(n: u32) -> Asn {
        Asn(n)
    }

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn addr(s: &str) -> Addr {
        s.parse().unwrap()
    }

    /// 1 is the Tier-1 provider of 2 (victim) and 66 (attacker); 4 is a
    /// bystander customer of 1.
    fn diamond() -> Topology {
        let mut t = Topology::new();
        t.add_provider_customer(a(1), a(2));
        t.add_provider_customer(a(1), a(66));
        t.add_provider_customer(a(1), a(4));
        t
    }

    #[test]
    fn normal_delivery() {
        let t = diamond();
        let state = propagate(
            &t,
            &[Announcement { prefix: p("10.0.0.0/16"), origin: a(2) }],
            RpkiPolicy::Ignore,
            &VrpCache::new(),
        )
        .unwrap();
        let out = state.forward(a(4), addr("10.0.1.1"));
        assert!(out.delivered_to(a(2)));
        match out {
            ForwardOutcome::Delivered { path, .. } => assert_eq!(path, vec![a(4), a(1), a(2)]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn no_route_outcome() {
        let t = diamond();
        let state = propagate(
            &t,
            &[Announcement { prefix: p("10.0.0.0/16"), origin: a(2) }],
            RpkiPolicy::Ignore,
            &VrpCache::new(),
        )
        .unwrap();
        match state.forward(a(4), addr("99.0.0.1")) {
            ForwardOutcome::NoRoute { at, .. } => assert_eq!(at, a(4)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn subprefix_hijack_wins_at_forwarding_without_rpki() {
        // Victim announces /16, attacker announces a /24 inside it.
        let t = diamond();
        let anns = [
            Announcement { prefix: p("10.0.0.0/16"), origin: a(2) },
            Announcement { prefix: p("10.0.1.0/24"), origin: a(66) },
        ];
        let state = propagate(&t, &anns, RpkiPolicy::Ignore, &VrpCache::new()).unwrap();
        // Traffic to the hijacked /24 goes to the attacker, the rest of
        // the /16 still reaches the victim.
        assert!(state.forward(a(4), addr("10.0.1.1")).delivered_to(a(66)));
        assert!(state.forward(a(4), addr("10.0.2.1")).delivered_to(a(2)));
    }

    #[test]
    fn drop_invalid_stops_subprefix_hijack() {
        // The victim's ROA (10.0.0.0/16-16, AS2) makes the /24 invalid.
        let t = diamond();
        let cache: VrpCache = [Vrp::new(p("10.0.0.0/16"), 16, a(2))].into_iter().collect();
        let anns = [
            Announcement { prefix: p("10.0.0.0/16"), origin: a(2) },
            Announcement { prefix: p("10.0.1.0/24"), origin: a(66) },
        ];
        let state = propagate(&t, &anns, RpkiPolicy::DropInvalid, &cache).unwrap();
        assert!(state.forward(a(4), addr("10.0.1.1")).delivered_to(a(2)));
    }

    #[test]
    fn depref_does_not_stop_subprefix_hijack() {
        // Table 6's key asymmetry: depref compares routes for the SAME
        // prefix; the hijacker's /24 has no valid competitor at /24, so
        // LPM still sends traffic to the attacker.
        let t = diamond();
        let cache: VrpCache = [Vrp::new(p("10.0.0.0/16"), 16, a(2))].into_iter().collect();
        let anns = [
            Announcement { prefix: p("10.0.0.0/16"), origin: a(2) },
            Announcement { prefix: p("10.0.1.0/24"), origin: a(66) },
        ];
        let state = propagate(&t, &anns, RpkiPolicy::DeprefInvalid, &cache).unwrap();
        assert!(state.forward(a(4), addr("10.0.1.1")).delivered_to(a(66)));
    }

    #[test]
    fn reachability_fraction() {
        let t = diamond();
        let state = propagate(
            &t,
            &[Announcement { prefix: p("10.0.0.0/16"), origin: a(2) }],
            RpkiPolicy::Ignore,
            &VrpCache::new(),
        )
        .unwrap();
        let frac = state.reachability_of(t.ases(), addr("10.0.0.1"), a(2));
        assert_eq!(frac, 1.0);
        let frac = state.reachability_of(t.ases(), addr("10.0.0.1"), a(66));
        assert_eq!(frac, 0.0);
    }

    #[test]
    fn empty_iterator_reachability_is_zero() {
        let t = diamond();
        let state = propagate(&t, &[], RpkiPolicy::Ignore, &VrpCache::new()).unwrap();
        assert_eq!(state.reachability_of(std::iter::empty(), addr("10.0.0.1"), a(2)), 0.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// The row scan picks the route an exact lookup of each of the
        /// address's own prefixes, longest first, would: random
        /// provider trees, nested and disjoint prefixes (v4 and v6)
        /// from random origins, a ROA that makes some of them Invalid
        /// so tables differ between ASes, random addresses.
        #[test]
        fn row_scan_matches_a_per_length_lookup(seed in 0u64..100_000, ases in 2usize..24) {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut t = Topology::new();
            t.add_as(a(1));
            for i in 1..ases {
                t.add_provider_customer(a(1 + rng.gen_range(0..i) as u32), a(1 + i as u32));
            }
            let pool = [
                "10.0.0.0/8", "10.0.0.0/16", "10.0.1.0/24", "10.0.1.128/25", "10.1.0.0/16",
                "10.128.0.0/9", "20.0.0.0/8", "0.0.0.0/0", "2001:db8::/32", "2001:db8:1::/48",
            ];
            let mut anns = Vec::new();
            for s in pool {
                if rng.gen_range(0..3usize) > 0 {
                    let origin = a(1 + rng.gen_range(0..ases) as u32);
                    anns.push(Announcement { prefix: p(s), origin });
                }
            }
            let cache: VrpCache = [Vrp::new(p("10.0.0.0/8"), 16, a(1))].into_iter().collect();
            let policy = [RpkiPolicy::Ignore, RpkiPolicy::DropInvalid, RpkiPolicy::DeprefInvalid]
                [rng.gen_range(0..3usize)];
            let state = propagate(&t, &anns, policy, &cache).unwrap();

            let probes = [
                "10.0.1.200", "10.0.1.1", "10.0.2.1", "10.1.2.3", "10.200.0.1", "20.1.1.1",
                "99.0.0.1", "2001:db8:1::1", "2001:db8:2::1", "2001:db9::1",
            ];
            for asn in t.ases() {
                for probe in probes {
                    let probe = addr(probe);
                    let by_length = (0..=probe.family().bits()).rev().find_map(|len| {
                        let want = Prefix::new(probe, len);
                        state.table(asn).find(|route| route.prefix == want)
                    });
                    prop_assert_eq!(state.longest_match(asn, probe), by_length);
                }
            }
        }
    }
}
