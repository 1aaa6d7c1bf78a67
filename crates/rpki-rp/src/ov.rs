//! RFC 6811 route origin validation.
//!
//! The three-state classification is the paper's Section 4 verbatim:
//!
//! - **Valid** — some VRP *matches* (origin equal, prefix covered,
//!   length ≤ maxLength).
//! - **Unknown** (RFC: NotFound) — no VRP even *covers* the prefix.
//! - **Invalid** — covered but not matched.
//!
//! The asymmetry between the last two is the crux of Side Effects 5
//! and 6: adding or removing a ROA changes which routes are *covered*,
//! silently flipping other routes between Unknown and Invalid.

use std::fmt;

use ipres::{Asn, Prefix};
use serde::{Deserialize, Serialize};

use crate::vrp::VrpCache;

/// A BGP route, reduced to what origin validation sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Route {
    /// The announced prefix.
    pub prefix: Prefix,
    /// The origin AS of the announcement.
    pub origin: Asn,
}

impl Route {
    /// Builds a route.
    pub fn new(prefix: Prefix, origin: Asn) -> Self {
        Route { prefix, origin }
    }
}

impl fmt::Display for Route {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ← {}", self.prefix, self.origin)
    }
}

/// The RFC 6811 validation state of a route.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RouteValidity {
    /// A VRP matches the route.
    Valid,
    /// Some VRP covers the route's prefix, but none matches.
    Invalid,
    /// No VRP covers the route's prefix.
    Unknown,
}

impl fmt::Display for RouteValidity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            RouteValidity::Valid => "valid",
            RouteValidity::Invalid => "invalid",
            RouteValidity::Unknown => "unknown",
        })
    }
}

impl VrpCache {
    /// Classifies a route per RFC 6811.
    ///
    /// Allocation-free: walks the covering VRPs directly (see
    /// [`VrpCache::covering_for_each`]) and stops at the first match,
    /// since one matching VRP already decides Valid.
    pub fn classify(&self, route: Route) -> RouteValidity {
        let mut covered = false;
        let mut matched = false;
        self.covering_for_each(route.prefix, |v| {
            covered = true;
            matched = v.matches(route.prefix, route.origin);
            !matched
        });
        if matched {
            RouteValidity::Valid
        } else if covered {
            RouteValidity::Invalid
        } else {
            RouteValidity::Unknown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rtr::Delta;
    use crate::vrp::Vrp;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    /// The cache corresponding to the paper's Figure 2 ROA set.
    fn figure2_cache() -> VrpCache {
        [
            Vrp::new(p("63.160.64.0/20"), 24, Asn(1239)),
            Vrp::new(p("208.24.0.0/16"), 24, Asn(1239)),
            Vrp::new(p("63.174.16.0/22"), 22, Asn(7341)),
            Vrp::new(p("63.174.20.0/23"), 23, Asn(7341)),
            Vrp::new(p("63.174.22.0/24"), 24, Asn(7341)),
            Vrp::new(p("63.174.16.0/20"), 20, Asn(17054)),
            Vrp::new(p("66.174.161.0/24"), 24, Asn(6167)),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn figure5_left_spot_checks() {
        let cache = figure2_cache();
        // Route for the /12 with any origin: unknown (no covering ROA).
        assert_eq!(
            cache.classify(Route::new(p("63.160.0.0/12"), Asn(1239))),
            RouteValidity::Unknown
        );
        // (63.160.64.0/20, AS1239): valid.
        assert_eq!(
            cache.classify(Route::new(p("63.160.64.0/20"), Asn(1239))),
            RouteValidity::Valid
        );
        // Subprefix /24 inside the maxlen-24 ROA: valid for AS1239.
        assert_eq!(
            cache.classify(Route::new(p("63.160.65.0/24"), Asn(1239))),
            RouteValidity::Valid
        );
        // Same prefix, wrong origin: invalid (subprefix hijack stopped).
        assert_eq!(
            cache.classify(Route::new(p("63.160.65.0/24"), Asn(666))),
            RouteValidity::Invalid
        );
        // The paper's Section 4 example: 63.174.17.0/24 has no ROA of
        // its own, but the /20 ROA covers it → invalid, not unknown.
        assert_eq!(
            cache.classify(Route::new(p("63.174.17.0/24"), Asn(17054))),
            RouteValidity::Invalid
        );
        // While 63.160.0.0/12 routes stay unknown entirely.
        assert_eq!(
            cache.classify(Route::new(p("63.160.0.0/12"), Asn(666))),
            RouteValidity::Unknown
        );
    }

    #[test]
    fn side_effect_5_new_roa_flips_unknown_to_invalid() {
        let mut cache = figure2_cache();
        let route = Route::new(p("63.161.0.0/16"), Asn(4323));
        assert_eq!(cache.classify(route), RouteValidity::Unknown);
        // Sprint issues (63.160.0.0/12-13, AS1239) — Figure 5 (right).
        let sprint = Vrp::new(p("63.160.0.0/12"), 13, Asn(1239));
        cache = cache.applied(&[Delta { vrp: sprint, announce: true }]);
        assert_eq!(cache.classify(route), RouteValidity::Invalid);
        // And the /12 route itself becomes valid for Sprint...
        assert_eq!(cache.classify(Route::new(p("63.160.0.0/12"), Asn(1239))), RouteValidity::Valid);
        // ...and /13s too (maxlen 13), but not /14s.
        assert_eq!(cache.classify(Route::new(p("63.160.0.0/13"), Asn(1239))), RouteValidity::Valid);
        assert_eq!(
            cache.classify(Route::new(p("63.160.0.0/14"), Asn(1239))),
            RouteValidity::Invalid
        );
    }

    #[test]
    fn side_effect_6_missing_roa_flips_valid_to_invalid() {
        let mut cache = figure2_cache();
        let route = Route::new(p("63.174.16.0/22"), Asn(7341));
        assert_eq!(cache.classify(route), RouteValidity::Valid);
        // The ROA goes missing from the local cache; the covering /20
        // ROA (AS 17054) remains → invalid, NOT unknown.
        let missing = Vrp::new(p("63.174.16.0/22"), 22, Asn(7341));
        assert!(cache.vrps().contains(&missing));
        cache = cache.applied(&[Delta { vrp: missing, announce: false }]);
        assert_eq!(cache.classify(route), RouteValidity::Invalid);
    }

    #[test]
    fn removing_noncovering_roa_never_invalidates() {
        // DESIGN.md invariant 3 (spot form; the property test
        // generalises it).
        let mut cache = figure2_cache();
        let route = Route::new(p("63.174.16.0/22"), Asn(7341));
        assert_eq!(cache.classify(route), RouteValidity::Valid);
        let elsewhere = Vrp::new(p("208.24.0.0/16"), 24, Asn(1239));
        assert!(cache.vrps().contains(&elsewhere));
        cache = cache.applied(&[Delta { vrp: elsewhere, announce: false }]);
        assert_eq!(cache.classify(route), RouteValidity::Valid);
    }

    #[test]
    fn empty_cache_knows_nothing() {
        let cache = VrpCache::new();
        assert_eq!(cache.classify(Route::new(p("8.8.8.0/24"), Asn(15169))), RouteValidity::Unknown);
    }

    #[test]
    fn reject_policy_suppresses_victim_more_specific() {
        // The reject policy's sharp edge: a misbehaving parent that
        // forces its child CA to be rejected drags the victim's
        // legitimate more-specific VRP into the unsafe set. A parent
        // holds a covering /16 ROA (AS 1); the victim child holds a
        // legitimate /24 more-specific (AS 2).
        let parent = Vrp::new(p("10.0.0.0/16"), 24, Asn(1));
        let victim = Vrp::new(p("10.0.7.0/24"), 24, Asn(2));
        let full: VrpCache = [parent, victim].into_iter().collect();
        let unsafe_set: VrpCache = [victim].into_iter().collect();
        let route = Route::new(p("10.0.7.0/24"), Asn(2));

        // Accept and Warn keep the full set: the victim's route is
        // Valid, resting on an unsafe VRP.
        assert_eq!(full.classify(route), RouteValidity::Valid);
        assert_eq!(unsafe_set.classify(route), RouteValidity::Valid);
        // Reject: the victim's VRP is dropped; the surviving parent
        // /16 still covers the route, so it flips Valid → Invalid —
        // the rejected CA suppressed a legitimate announcement.
        let filtered: VrpCache = [parent].into_iter().collect();
        assert_eq!(filtered.classify(route), RouteValidity::Invalid);
        // A route no unsafe VRP covers is unaffected.
        let outside = Route::new(p("10.0.0.0/16"), Asn(1));
        assert_eq!(filtered.classify(outside), RouteValidity::Valid);
        assert_eq!(unsafe_set.classify(outside), RouteValidity::Unknown);
    }

    #[test]
    fn a_match_on_a_shorter_cover_decides_valid() {
        // The walk meets the /20 run first; neither VRP there matches
        // a /24, so the /16 decides.
        let cache: VrpCache = [
            Vrp::new(p("10.0.0.0/16"), 24, Asn(1)),
            Vrp::new(p("10.0.0.0/20"), 20, Asn(1)),
            Vrp::new(p("10.0.0.0/20"), 20, Asn(2)),
        ]
        .into_iter()
        .collect();
        assert_eq!(cache.classify(Route::new(p("10.0.1.0/24"), Asn(1))), RouteValidity::Valid);
        assert_eq!(cache.classify(Route::new(p("10.0.1.0/24"), Asn(2))), RouteValidity::Invalid);
        assert_eq!(cache.classify(Route::new(p("10.0.0.0/20"), Asn(2))), RouteValidity::Valid);
    }

    #[test]
    fn exact_duplicate_prefix_two_origins() {
        let cache: VrpCache =
            [Vrp::new(p("10.0.0.0/16"), 16, Asn(1)), Vrp::new(p("10.0.0.0/16"), 16, Asn(2))]
                .into_iter()
                .collect();
        assert_eq!(cache.classify(Route::new(p("10.0.0.0/16"), Asn(1))), RouteValidity::Valid);
        assert_eq!(cache.classify(Route::new(p("10.0.0.0/16"), Asn(2))), RouteValidity::Valid);
        assert_eq!(cache.classify(Route::new(p("10.0.0.0/16"), Asn(3))), RouteValidity::Invalid);
    }
}
