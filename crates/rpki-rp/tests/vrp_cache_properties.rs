//! `VrpCache` consistency: the cache keeps one sorted, deduplicated
//! `Vec` of VRPs and answers covering queries by walking up chains of
//! covering prefixes from a binary search. These properties drive
//! random insert/remove interleavings and check after every operation
//! that the sorted set and the covering query describe the same set,
//! pinned against a `BTreeSet` model, a linear scan and a brute-force
//! RFC 6811 oracle.

use std::collections::BTreeSet;

use ipres::{Addr, Asn, Prefix};
use proptest::prelude::*;
use rpki_rp::{Route, RouteValidity, Vrp, VrpCache};

/// Small universe inside 10.0.0.0/8 (same shape as ov_properties.rs):
/// collisions between inserts and removes stay frequent.
fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (0u32..=0xff, 8u8..=20).prop_map(|(v, len)| Prefix::new(Addr::v4((10 << 24) | (v << 16)), len))
}

fn arb_vrp() -> impl Strategy<Value = Vrp> {
    (arb_prefix(), 0u8..=4, 1u32..=3).prop_map(|(p, extra, asn)| {
        let max = (p.len() + extra).min(32);
        Vrp::new(p, max, Asn(asn))
    })
}

/// An operation against both the cache and the model: insert or remove.
fn arb_op() -> impl Strategy<Value = (bool, Vrp)> {
    (any::<bool>(), arb_vrp())
}

/// IPv6 VRPs in a small universe inside 2001:db8::/32, so that chains
/// of several covering prefixes are common.
fn arb_v6_prefix() -> impl Strategy<Value = Prefix> {
    (0u128..=0xff, 32u8..=44)
        .prop_map(|(v, len)| Prefix::new(Addr::v6((0x2001_0db8 << 96) | (v << 84)), len))
}

/// A prefix of either family.
fn arb_any_prefix() -> impl Strategy<Value = Prefix> {
    (any::<bool>(), arb_prefix(), arb_v6_prefix()).prop_map(|(v6, a, b)| if v6 { b } else { a })
}

/// VRPs of both families, several of them on one prefix.
fn arb_mixed_vrp() -> impl Strategy<Value = Vrp> {
    (arb_any_prefix(), 0u8..=4, 1u32..=3).prop_map(|(p, extra, asn)| {
        let max = (p.len() + extra).min(p.family().bits());
        Vrp::new(p, max, Asn(asn))
    })
}

/// Every VRP of `vrps` that covers `probe`, sorted.
fn scan(vrps: &[Vrp], probe: Prefix) -> Vec<Vrp> {
    let mut want: Vec<Vrp> = vrps.iter().copied().filter(|v| v.covers(probe)).collect();
    want.sort_unstable();
    want.dedup();
    want
}

/// Brute-force RFC 6811 over the model set.
fn oracle(vrps: &BTreeSet<Vrp>, route: Route) -> RouteValidity {
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
    /// After every insert/remove, the sorted-Vec view equals the model
    /// set, `remove` reports presence truthfully, and the `covering`
    /// query agrees with a linear scan of the model.
    #[test]
    fn views_agree_under_interleaved_inserts_and_removes(
        ops in proptest::collection::vec(arb_op(), 1..40),
        probe in arb_prefix(),
    ) {
        let mut cache = VrpCache::new();
        let mut model: BTreeSet<Vrp> = BTreeSet::new();
        for (is_insert, vrp) in ops {
            if is_insert {
                cache.insert(vrp);
                model.insert(vrp);
            } else {
                let was_present = model.remove(&vrp);
                prop_assert_eq!(cache.remove(&vrp), was_present);
            }

            // Sorted-Vec view ≡ model.
            prop_assert_eq!(cache.len(), model.len());
            prop_assert_eq!(cache.is_empty(), model.is_empty());
            let want_all: Vec<Vrp> = model.iter().copied().collect();
            prop_assert_eq!(cache.vrps(), want_all.as_slice());

            // Covering query ≡ a scan of the model.
            let mut got = cache.covering(probe);
            got.sort_unstable();
            let want: Vec<Vrp> =
                model.iter().copied().filter(|v| v.covers(probe)).collect();
            prop_assert_eq!(got, want);
        }
    }

    /// `classify` (which reads through the covering chains) agrees with
    /// the brute-force oracle over the model after arbitrary mutations —
    /// removals included, so a stale chain link would be caught.
    #[test]
    fn classify_agrees_with_oracle_after_mutations(
        ops in proptest::collection::vec(arb_op(), 1..40),
        probe in arb_prefix(),
        origin in 1u32..=4,
    ) {
        let mut cache = VrpCache::new();
        let mut model: BTreeSet<Vrp> = BTreeSet::new();
        for (is_insert, vrp) in ops {
            if is_insert {
                cache.insert(vrp);
                model.insert(vrp);
            } else {
                model.remove(&vrp);
                cache.remove(&vrp);
            }
            let route = Route::new(probe, Asn(origin));
            prop_assert_eq!(cache.classify(route), oracle(&model, route));
        }
    }

    /// Rebuilding from the Vec view yields an equivalent cache: the
    /// links that `insert` and `remove` relink equal a fresh build's.
    #[test]
    fn rebuild_from_vec_view_is_lossless(
        ops in proptest::collection::vec(arb_op(), 1..40),
        probe in arb_prefix(),
    ) {
        let mut cache = VrpCache::new();
        for (is_insert, vrp) in ops {
            if is_insert {
                cache.insert(vrp);
            } else {
                cache.remove(&vrp);
            }
        }
        let rebuilt: VrpCache = cache.vrps().iter().copied().collect();
        prop_assert_eq!(rebuilt.vrps(), cache.vrps());
        let mut a = cache.covering(probe);
        let mut b = rebuilt.covering(probe);
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    /// A cache built in one go from VRPs with repeats answers every
    /// covering query like a linear scan of its input, repeats counted
    /// once.
    #[test]
    fn covering_agrees_with_scan(
        vrps in proptest::collection::vec(arb_vrp(), 0..40),
        probe in arb_prefix(),
    ) {
        let cache: VrpCache = vrps.iter().copied().collect();
        let mut got = cache.covering(probe);
        got.sort_unstable();
        prop_assert_eq!(got, scan(&vrps, probe));
    }

    /// IPv6 covering queries, with v4 VRPs in the same cache, agree
    /// with a linear scan: the v4 VRPs never cover a v6 probe.
    #[test]
    fn v6_covering_agrees_with_scan(
        vrps in proptest::collection::vec(arb_mixed_vrp(), 0..40),
        probe in arb_v6_prefix(),
    ) {
        let cache: VrpCache = vrps.iter().copied().collect();
        let mut got = cache.covering(probe);
        got.sort_unstable();
        prop_assert_eq!(got, scan(&vrps, probe));
    }

    /// The allocation-free walk visits exactly the VRPs `covering`
    /// returns, each once, longest prefix first, and agrees with a
    /// linear scan.
    #[test]
    fn covering_for_each_agrees_with_covering_and_scan(
        vrps in proptest::collection::vec(arb_mixed_vrp(), 0..40),
        probe in arb_any_prefix(),
    ) {
        let cache: VrpCache = vrps.iter().copied().collect();
        let mut walked = Vec::new();
        cache.covering_for_each(probe, |v| {
            walked.push(v);
            true
        });
        prop_assert_eq!(&walked, &cache.covering(probe));
        for w in walked.windows(2) {
            prop_assert!(w[0].prefix.len() >= w[1].prefix.len(), "walk must be longest-prefix-first");
        }
        walked.sort_unstable();
        prop_assert_eq!(walked, scan(&vrps, probe));
    }

    /// Returning `false` after `k` callbacks yields exactly the first
    /// `k` VRPs of the full covering sequence: the early stop
    /// truncates, never reorders or skips.
    #[test]
    fn covering_for_each_early_stop_is_a_prefix(
        vrps in proptest::collection::vec(arb_mixed_vrp(), 1..40),
        probe in arb_any_prefix(),
    ) {
        let cache: VrpCache = vrps.iter().copied().collect();
        let full = cache.covering(probe);
        let k = full.len().div_ceil(2);
        let mut cut = Vec::new();
        if k > 0 {
            cache.covering_for_each(probe, |v| {
                cut.push(v);
                cut.len() < k
            });
        }
        prop_assert_eq!(cut.as_slice(), &full[..k]);
    }

    /// Inserts and removes of both families keep the covering query
    /// equal to a scan of the model: a v6 VRP never relinks a v4 chain.
    #[test]
    fn mixed_family_mutations_agree_with_scan(
        ops in proptest::collection::vec((any::<bool>(), arb_mixed_vrp()), 1..40),
        probe in arb_any_prefix(),
    ) {
        let mut cache = VrpCache::new();
        let mut model: BTreeSet<Vrp> = BTreeSet::new();
        for (is_insert, vrp) in ops {
            if is_insert {
                cache.insert(vrp);
                model.insert(vrp);
            } else {
                prop_assert_eq!(cache.remove(&vrp), model.remove(&vrp));
            }
            let all: Vec<Vrp> = model.iter().copied().collect();
            prop_assert_eq!(cache.vrps(), all.as_slice());
            let mut got = cache.covering(probe);
            got.sort_unstable();
            prop_assert_eq!(got, scan(&all, probe));
        }
    }
}
