//! Equivalence property: the worklist engine is bit-for-bit identical
//! to the synchronous full-scan reference oracle.
//!
//! Random Gao–Rexford topologies × all three `RpkiPolicy` variants ×
//! hijack announcement mixes (exact-prefix and subprefix hijacks, with
//! and without covering ROAs). `RoutingState` derives `PartialEq`, so
//! the assertion covers every AS's selected routes: prefixes, origins,
//! full AS paths, learned-from relationships, and validities.

use bgp_sim::{propagate_with_stats, reference, Announcement, RpkiPolicy, Topology};
use ipres::{Asn, Prefix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rpki_rp::{Vrp, VrpCache};

/// A random Gao–Rexford-shaped topology: a 3-clique of tier-1s, then
/// `extra` ASes each buying transit from 1–2 earlier ASes, with a few
/// random peerings among non-tier-1s. (Same generator as
/// `propagation_properties.rs`; bgp-sim cannot depend on topogen.)
fn random_topology(seed: u64, extra: usize) -> Topology {
    chained_topology(seed, extra, 0)
}

/// `random_topology`, except that with probability `chain_pct` % an AS's
/// first provider is the AS added just before it. At 100 the ASes form
/// one provider chain as long as the topology, so past 64 ASes a route
/// from the bottom crosses ASes whose path-mask bits alias (index `i`
/// and `i + 64`). At 0 it draws exactly what `random_topology` draws.
fn chained_topology(seed: u64, extra: usize, chain_pct: u32) -> Topology {
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
        let chained = chain_pct > 0 && rng.gen_range(0..100u32) < chain_pct;
        let mut picked = Vec::new();
        for k in 0..providers {
            let p = if chained && k == 0 { asn(count - 1) } else { asn(rng.gen_range(0..count)) };
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

/// Chain shares for `chained_topology`: none, most, and all.
fn arb_chain_pct() -> impl Strategy<Value = u32> {
    (0u8..3).prop_map(|pick| [0, 80, 100][pick as usize])
}

/// Runs both engines and asserts byte-identical states plus the
/// rounds bound (worklist ≤ reference).
fn assert_equivalent(
    t: &Topology,
    anns: &[Announcement],
    policy: RpkiPolicy,
    cache: &VrpCache,
) -> Result<(), TestCaseError> {
    let (state, stats) = propagate_with_stats(t, anns, policy, cache).expect("converges");
    let (oracle, oracle_rounds) = reference::propagate(t, anns, policy, cache).expect("converges");
    prop_assert_eq!(&state, &oracle, "engines diverged under {:?}", policy);
    prop_assert!(
        stats.rounds <= oracle_rounds,
        "worklist took {} rounds, reference {} under {:?}",
        stats.rounds,
        oracle_rounds,
        policy
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline property: random topology, a victim, an
    /// exact-prefix hijacker, and a subprefix hijacker; every policy;
    /// four cache flavours (empty, victim ROA, victim ROA + covering
    /// ROA, wrong-origin ROA only).
    #[test]
    fn worklist_matches_reference(
        seed in 0u64..100_000,
        extra in 4usize..36,
        cache_pick in 0u8..4,
    ) {
        let t = random_topology(seed, extra);
        let all: Vec<Asn> = t.ases().collect();
        let victim = all[0];
        let attacker = all[all.len() - 1];
        let bystander = all[all.len() / 2];

        let p16: Prefix = "10.0.0.0/16".parse().unwrap();
        let p24: Prefix = "10.0.1.0/24".parse().unwrap();
        let other: Prefix = "20.0.0.0/16".parse().unwrap();
        let anns = vec![
            Announcement { prefix: p16, origin: victim },
            // Exact-prefix hijack.
            Announcement { prefix: p16, origin: attacker },
            // Subprefix hijack.
            Announcement { prefix: p24, origin: attacker },
            // Unrelated background announcement.
            Announcement { prefix: other, origin: bystander },
        ];
        let cache: VrpCache = match cache_pick {
            0 => VrpCache::new(),
            1 => [Vrp::new(p16, 16, victim)].into_iter().collect(),
            2 => [
                Vrp::new(p16, 16, victim),
                Vrp::new("10.0.0.0/8".parse().unwrap(), 16, bystander),
            ]
            .into_iter()
            .collect(),
            _ => [Vrp::new("10.0.0.0/8".parse().unwrap(), 8, bystander)].into_iter().collect(),
        };

        for policy in [RpkiPolicy::Ignore, RpkiPolicy::DropInvalid, RpkiPolicy::DeprefInvalid] {
            assert_equivalent(&t, &anns, policy, &cache)?;
        }
    }

    /// Past 64 ASes, where the path mask's bits alias (`i % 64`): 65–200
    /// ASes, from random shapes to one long provider chain, with the
    /// victim at the bottom of the chain so its routes climb it.
    #[test]
    fn worklist_matches_reference_past_64_ases(
        seed in 0u64..100_000,
        extra in 62usize..=197,
        chain_pct in arb_chain_pct(),
        cache_pick in 0u8..2,
    ) {
        let t = chained_topology(seed, extra, chain_pct);
        let all: Vec<Asn> = t.ases().collect();
        prop_assert!(all.len() > 64);
        let victim = all[all.len() - 1];
        let attacker = all[all.len() / 3];
        let p16: Prefix = "10.0.0.0/16".parse().unwrap();
        let anns = vec![
            Announcement { prefix: p16, origin: victim },
            Announcement { prefix: p16, origin: attacker },
            Announcement { prefix: "10.0.1.0/24".parse().unwrap(), origin: attacker },
            Announcement { prefix: "20.0.0.0/16".parse().unwrap(), origin: all[0] },
        ];
        let cache: VrpCache = match cache_pick {
            0 => VrpCache::new(),
            _ => [Vrp::new(p16, 16, victim)].into_iter().collect(),
        };
        for policy in [RpkiPolicy::Ignore, RpkiPolicy::DropInvalid, RpkiPolicy::DeprefInvalid] {
            assert_equivalent(&t, &anns, policy, &cache)?;
        }
    }

    /// Origins off the topology, duplicate announcements, and a prefix
    /// announced by everyone — the degenerate shapes.
    #[test]
    fn worklist_matches_reference_on_degenerate_inputs(
        seed in 0u64..100_000,
        extra in 4usize..20,
    ) {
        let t = random_topology(seed, extra);
        let all: Vec<Asn> = t.ases().collect();
        let p16: Prefix = "10.0.0.0/16".parse().unwrap();
        let mut anns = vec![
            // An origin nobody is connected to.
            Announcement { prefix: p16, origin: Asn(9999) },
            // Duplicates of a real announcement.
            Announcement { prefix: p16, origin: all[0] },
            Announcement { prefix: p16, origin: all[0] },
        ];
        // Everyone announces the same prefix: all cells origin-locked.
        for &a in &all {
            anns.push(Announcement { prefix: p16, origin: a });
        }
        let cache: VrpCache = [Vrp::new(p16, 16, all[0])].into_iter().collect();
        for policy in [RpkiPolicy::Ignore, RpkiPolicy::DropInvalid, RpkiPolicy::DeprefInvalid] {
            assert_equivalent(&t, &anns, policy, &cache)?;
        }
    }

    /// Transit cycles (the reference's worst case) still agree.
    #[test]
    fn worklist_matches_reference_on_transit_cycles(seed in 0u64..100_000, n in 3usize..8) {
        let mut t = Topology::new();
        for i in 0..n {
            t.add_provider_customer(Asn(1 + i as u32), Asn(1 + ((i + 1) % n) as u32));
        }
        prop_assert!(t.find_transit_cycle().is_some());
        let anns = vec![Announcement {
            prefix: "10.0.0.0/16".parse().unwrap(),
            origin: Asn(1 + (seed as usize % n) as u32),
        }];
        for policy in [RpkiPolicy::Ignore, RpkiPolicy::DropInvalid, RpkiPolicy::DeprefInvalid] {
            assert_equivalent(&t, &anns, policy, &VrpCache::new())?;
        }
    }
}
