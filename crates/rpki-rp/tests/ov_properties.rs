//! Property tests for RFC 6811 origin validation (DESIGN.md
//! invariant 3), pinned against a brute-force oracle.

use ipres::{Addr, Asn, Prefix};
use proptest::prelude::*;
use rpki_rp::{Delta, Route, RouteValidity, Vrp, VrpCache};

/// Small universe: prefixes inside 10.0.0.0/8, lengths 8..=24, origins
/// from a handful of ASNs — overlap probability stays high.
fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (0u32..=0xffff, 8u8..=24).prop_map(|(v, len)| Prefix::new(Addr::v4((10 << 24) | (v << 8)), len))
}

fn arb_vrp() -> impl Strategy<Value = Vrp> {
    (arb_prefix(), 0u8..=8, 1u32..=4).prop_map(|(p, extra, asn)| {
        let max = (p.len() + extra).min(32);
        Vrp::new(p, max, Asn(asn))
    })
}

fn arb_route() -> impl Strategy<Value = Route> {
    (arb_prefix(), 1u32..=5).prop_map(|(p, asn)| Route::new(p, Asn(asn)))
}

/// Brute-force RFC 6811.
fn oracle(vrps: &[Vrp], route: Route) -> RouteValidity {
    let covering: Vec<&Vrp> = vrps.iter().filter(|v| v.covers(route.prefix)).collect();
    if covering.is_empty() {
        RouteValidity::Unknown
    } else if covering.iter().any(|v| v.matches(route.prefix, route.origin)) {
        RouteValidity::Valid
    } else {
        RouteValidity::Invalid
    }
}

proptest! {
    #[test]
    fn classify_agrees_with_oracle(
        vrps in proptest::collection::vec(arb_vrp(), 0..24),
        route in arb_route(),
    ) {
        let cache: VrpCache = vrps.iter().copied().collect();
        prop_assert_eq!(cache.classify(route), oracle(&vrps, route));
    }

    #[test]
    fn invalid_iff_covered_and_unmatched(
        vrps in proptest::collection::vec(arb_vrp(), 0..24),
        route in arb_route(),
    ) {
        let cache: VrpCache = vrps.iter().copied().collect();
        let covered = vrps.iter().any(|v| v.covers(route.prefix));
        let matched = vrps.iter().any(|v| v.matches(route.prefix, route.origin));
        let want = match (covered, matched) {
            (false, _) => RouteValidity::Unknown,
            (true, true) => RouteValidity::Valid,
            (true, false) => RouteValidity::Invalid,
        };
        prop_assert_eq!(cache.classify(route), want);
    }

    /// Removing a VRP that does not cover the route never changes the
    /// route's state; removing a non-matching one never un-validates.
    #[test]
    fn removal_monotonicity(
        vrps in proptest::collection::vec(arb_vrp(), 1..24),
        route in arb_route(),
        pick in any::<prop::sample::Index>(),
    ) {
        let cache: VrpCache = vrps.iter().copied().collect();
        let before = cache.classify(route);
        let victim = vrps[pick.index(vrps.len())];
        let after = cache.applied(&[Delta { vrp: victim, announce: false }]).classify(route);
        if !victim.covers(route.prefix) {
            prop_assert_eq!(before, after, "non-covering removal changed state");
        }
        // A valid route stays valid unless the removed VRP matched it.
        if before == RouteValidity::Valid && !victim.matches(route.prefix, route.origin) {
            prop_assert_eq!(after, RouteValidity::Valid);
        }
        // Removal can never turn unknown into invalid or valid.
        if before == RouteValidity::Unknown {
            prop_assert_eq!(after, RouteValidity::Unknown);
        }
    }

    /// Adding a VRP can only move a route "toward" coverage: unknown can
    /// become valid/invalid (Side Effect 5), invalid can become valid,
    /// but valid can never degrade.
    #[test]
    fn addition_monotonicity(
        vrps in proptest::collection::vec(arb_vrp(), 0..24),
        extra in arb_vrp(),
        route in arb_route(),
    ) {
        let cache: VrpCache = vrps.iter().copied().collect();
        let before = cache.classify(route);
        let after = cache.applied(&[Delta { vrp: extra, announce: true }]).classify(route);
        if before == RouteValidity::Valid {
            prop_assert_eq!(after, RouteValidity::Valid);
        }
        if before == RouteValidity::Invalid {
            prop_assert!(after != RouteValidity::Unknown);
        }
    }

    /// A route with a *matching* VRP is immune to subprefix hijacks: any
    /// strictly longer prefix announced by a different origin is
    /// invalid, unless that origin has a matching VRP of its own.
    #[test]
    fn subprefix_hijack_protection(
        vrps in proptest::collection::vec(arb_vrp(), 1..24),
        hijacker in 100u32..=105,
        pick in any::<prop::sample::Index>(),
    ) {
        let cache: VrpCache = vrps.iter().copied().collect();
        let v = vrps[pick.index(vrps.len())];
        // The victim's own route is valid.
        prop_assert_eq!(
            cache.classify(Route::new(v.prefix, v.asn)),
            RouteValidity::Valid
        );
        // A hijacker announcing any subprefix is invalid (the hijacker
        // ASN is outside the VRP universe 1..=4).
        if let Some((left, _)) = v.prefix.children() {
            prop_assert_eq!(
                cache.classify(Route::new(left, Asn(hijacker))),
                RouteValidity::Invalid
            );
        }
    }
}
