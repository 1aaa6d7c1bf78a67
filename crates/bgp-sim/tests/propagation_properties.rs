//! Property tests for the BGP substrate: every selected route in a
//! converged state must be a sane, valley-free path. Runs over
//! seed-randomised synthetic topologies built inline (bgp-sim cannot
//! depend on topogen — that would be a cycle — so a small preferential
//! generator lives here).

use bgp_sim::{propagate, Announcement, Relationship, RpkiPolicy, Topology};
use ipres::{Asn, Prefix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpki_rp::{Vrp, VrpCache};

/// A random Gao–Rexford-shaped topology: a 3-clique of tier-1s, then
/// `extra` ASes each buying transit from 1–2 earlier ASes, with a few
/// random peerings among non-tier-1s.
fn random_topology(seed: u64, extra: usize) -> Topology {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut t = Topology::new();
    let asn = |i: usize| Asn(100 + i as u32);
    for i in 0..3 {
        for j in (i + 1)..3 {
            t.add_peering(asn(i), asn(j));
        }
    }
    let mut count = 3;
    for _ in 0..extra {
        let me = asn(count);
        let providers = 1 + rng.gen_range(0..2usize);
        let mut picked = Vec::new();
        for _ in 0..providers {
            let p = asn(rng.gen_range(0..count));
            if !picked.contains(&p) {
                t.add_provider_customer(p, me);
                picked.push(p);
            }
        }
        count += 1;
    }
    // A few lateral peerings.
    for _ in 0..extra / 4 {
        let a = asn(3 + rng.gen_range(0..extra.max(1)).min(count - 4));
        let b = asn(3 + rng.gen_range(0..extra.max(1)).min(count - 4));
        if a != b && t.relationship(a, b).is_none() {
            t.add_peering(a, b);
        }
    }
    t
}

/// Checks the classic valley-free condition on the relationship
/// sequence of a path (uphill customer→provider edges, at most one
/// peer edge, then downhill provider→customer edges).
fn valley_free(t: &Topology, selecting: Asn, path: &[Asn]) -> bool {
    // Edge sequence as traversed by the ROUTE (origin → selecting AS):
    // reverse the forwarding path and classify each hop from the
    // perspective of the sender of the announcement.
    let mut nodes = vec![selecting];
    nodes.extend_from_slice(path);
    nodes.reverse(); // origin first
    #[derive(PartialEq, PartialOrd)]
    enum Phase {
        Up,
        Peer,
        Down,
    }
    let mut phase = Phase::Up;
    for w in nodes.windows(2) {
        let (from, to) = (w[0], w[1]);
        // Relationship of `to` as seen from `from`.
        let rel = match t.relationship(from, to) {
            Some(r) => r,
            None => return false, // non-adjacent hop
        };
        match rel {
            Relationship::Provider => {
                // going up: only allowed while still in Up phase
                if phase != Phase::Up {
                    return false;
                }
            }
            Relationship::Peer => {
                if phase != Phase::Up {
                    return false;
                }
                phase = Phase::Peer;
            }
            Relationship::Customer => {
                phase = Phase::Down;
            }
        }
    }
    true
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn selected_paths_are_sane_and_valley_free(
        seed in 0u64..10_000,
        extra in 4usize..40,
        policy_pick in 0u8..3,
    ) {
        let t = random_topology(seed, extra);
        let policy = match policy_pick {
            0 => RpkiPolicy::Ignore,
            1 => RpkiPolicy::DropInvalid,
            _ => RpkiPolicy::DeprefInvalid,
        };
        // Three origins announce distinct prefixes; one also has a VRP.
        let all: Vec<Asn> = t.ases().collect();
        let origins = [all[0], all[all.len() / 2], all[all.len() - 1]];
        let prefixes: Vec<Prefix> =
            ["10.0.0.0/16", "20.0.0.0/16", "30.0.0.0/16"].iter().map(|s| s.parse().unwrap()).collect();
        let anns: Vec<Announcement> = origins
            .iter()
            .zip(&prefixes)
            .map(|(&origin, &prefix)| Announcement { prefix, origin })
            .collect();
        let cache: VrpCache = [Vrp::new(prefixes[0], 16, origins[0])].into_iter().collect();

        let state = propagate(&t, &anns, policy, &cache).expect("converges");

        for asn in t.ases() {
            for route in state.table(asn) {
                // Path sanity: ends at the route's origin, no repeats,
                // selecting AS not on its own path.
                if route.path.is_empty() {
                    prop_assert_eq!(route.origin, asn);
                    continue;
                }
                prop_assert_eq!(*route.path.last().unwrap(), route.origin);
                prop_assert!(!route.path.contains(&asn));
                let mut dedup = route.path.to_vec();
                dedup.sort_unstable();
                dedup.dedup();
                prop_assert_eq!(dedup.len(), route.path.len(), "looped path");
                // Adjacency + valley-freeness.
                prop_assert!(
                    valley_free(&t, asn, &route.path.to_vec()),
                    "valley in path {:?} selected by {}",
                    route.path,
                    asn
                );
            }
        }
    }

    /// Under DropInvalid, no AS ever selects a route whose (prefix,
    /// origin) is invalid; under any policy, origins keep their own
    /// announcements.
    #[test]
    fn drop_invalid_never_selects_invalid(seed in 0u64..10_000, extra in 4usize..30) {
        let t = random_topology(seed, extra);
        let all: Vec<Asn> = t.ases().collect();
        let victim = all[0];
        let attacker = all[all.len() - 1];
        let prefix: Prefix = "10.0.0.0/16".parse().unwrap();
        let anns = vec![
            Announcement { prefix, origin: victim },
            Announcement { prefix, origin: attacker },
        ];
        let cache: VrpCache = [Vrp::new(prefix, 16, victim)].into_iter().collect();
        let state = propagate(&t, &anns, RpkiPolicy::DropInvalid, &cache).expect("converges");
        for asn in t.ases() {
            if let Some(route) = state.best_route(asn, prefix) {
                if asn == attacker {
                    // The liar keeps its own announcement.
                    prop_assert_eq!(route.origin, attacker);
                } else {
                    prop_assert_eq!(route.origin, victim, "AS{} accepted the hijack", asn.0);
                }
            }
        }
    }
}
