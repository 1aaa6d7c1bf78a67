//! Property tests pinning the resource algebra to brute-force oracles.
//!
//! DESIGN.md invariant 1 lives here: `ResourceSet` is a lattice in
//! canonical form.

use ipres::{Addr, AddrRange, Family, Prefix, ResourceSet};
use proptest::prelude::*;

/// A small universe keeps overlap probability high: 16-bit v4 values
/// widened into sparse ranges.
fn arb_range() -> impl Strategy<Value = AddrRange> {
    (0u32..=0xffff, 0u32..=0xffff).prop_map(|(a, b)| {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        AddrRange::new(Addr::v4(lo << 8), Addr::v4((hi << 8) | 0xff))
    })
}

fn arb_set() -> impl Strategy<Value = ResourceSet> {
    proptest::collection::vec(arb_range(), 0..8).prop_map(ResourceSet::from_ranges)
}

fn arb_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u32>(), 0u8..=32).prop_map(|(v, len)| Prefix::new(Addr::v4(v), len))
}

/// Run vectors as a decoder may receive them: unsorted, overlapping,
/// abutting and mixed-family. Sixteen /24-aligned values per family make
/// every one of those shapes common.
fn arb_run_vec() -> impl Strategy<Value = Vec<AddrRange>> {
    proptest::collection::vec((any::<bool>(), 0u32..16, 0u32..16), 0..6).prop_map(|runs| {
        runs.into_iter()
            .map(|(v6, a, b)| {
                let (lo, hi) = (a.min(b) << 8, (a.max(b) << 8) | 0xff);
                if v6 {
                    AddrRange::new(Addr::v6(lo.into()), Addr::v6(hi.into()))
                } else {
                    AddrRange::new(Addr::v4(lo), Addr::v4(hi))
                }
            })
            .collect()
    })
}

/// Membership oracle via the canonical runs.
fn member(set: &ResourceSet, addr: Addr) -> bool {
    set.ranges().iter().any(|r| r.contains_addr(addr))
}

/// Sample points that exercise run boundaries of both sets.
fn boundary_points(a: &ResourceSet, b: &ResourceSet) -> Vec<Addr> {
    let mut pts = Vec::new();
    for r in a.ranges().iter().chain(b.ranges()) {
        for addr in [r.lo(), r.hi()] {
            pts.push(addr);
            if let Some(x) = addr.pred() {
                pts.push(x);
            }
            if let Some(x) = addr.succ() {
                pts.push(x);
            }
        }
    }
    pts
}

proptest! {
    #[test]
    fn canonical_form_is_sorted_disjoint_nonabutting(s in arb_set()) {
        for w in s.ranges().windows(2) {
            prop_assert!(w[0].hi() < w[1].lo());
            prop_assert!(!w[0].abuts(w[1]));
        }
    }

    /// The decoder's canonical check adopts exactly the run vectors that
    /// rebuilding would leave unchanged: unsorted, overlapping, abutting
    /// and mixed-family vectors included.
    #[test]
    fn from_canonical_runs_accepts_exactly_the_canonical_vectors(runs in arb_run_vec()) {
        let canonical = ResourceSet::from_ranges(runs.clone()).ranges() == runs.as_slice();
        let adopted = ResourceSet::from_canonical_runs(runs.clone());
        prop_assert_eq!(adopted.is_some(), canonical, "{:?}", runs);
        if let Some(set) = adopted {
            prop_assert_eq!(set.ranges(), runs.as_slice());
        }
        // Rebuilt runs are canonical by construction, so they are adopted.
        let rebuilt = ResourceSet::from_ranges(runs).ranges().to_vec();
        prop_assert!(ResourceSet::from_canonical_runs(rebuilt).is_some());
    }

    #[test]
    fn union_is_pointwise_or(a in arb_set(), b in arb_set()) {
        let u = a.union(&b);
        for pt in boundary_points(&a, &b) {
            prop_assert_eq!(member(&u, pt), member(&a, pt) || member(&b, pt));
        }
    }

    #[test]
    fn intersection_is_pointwise_and(a in arb_set(), b in arb_set()) {
        let i = a.intersection(&b);
        for pt in boundary_points(&a, &b) {
            prop_assert_eq!(member(&i, pt), member(&a, pt) && member(&b, pt));
        }
    }

    #[test]
    fn difference_is_pointwise_andnot(a in arb_set(), b in arb_set()) {
        let d = a.difference(&b);
        for pt in boundary_points(&a, &b) {
            prop_assert_eq!(member(&d, pt), member(&a, pt) && !member(&b, pt));
        }
    }

    #[test]
    fn difference_union_restores(a in arb_set(), b in arb_set()) {
        // (a − b) ∪ (a ∩ b) == a
        let rebuilt = a.difference(&b).union(&a.intersection(&b));
        prop_assert_eq!(rebuilt, a);
    }

    #[test]
    fn covers_iff_difference_empty(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(a.contains_set(&b), b.difference(&a).is_empty());
    }

    #[test]
    fn overlaps_iff_intersection_nonempty(a in arb_set(), b in arb_set()) {
        prop_assert_eq!(a.overlaps(&b), !a.intersection(&b).is_empty());
    }

    #[test]
    fn size_is_additive_over_difference(a in arb_set(), b in arb_set()) {
        let inter = a.intersection(&b);
        let diff = a.difference(&b);
        prop_assert_eq!(diff.size() + inter.size(), a.size());
    }

    #[test]
    fn to_prefixes_round_trips(a in arb_set()) {
        let tiled = ResourceSet::from_prefixes(a.to_prefixes());
        prop_assert_eq!(tiled, a);
    }

    #[test]
    fn prefix_tiling_is_disjoint_and_minimal_locally(a in arb_set()) {
        let tiles = a.to_prefixes();
        for w in tiles.windows(2) {
            prop_assert!(w[0].range().hi() < w[1].range().lo());
            // Local minimality: two sibling tiles of one parent would
            // have been emitted as the parent by the greedy walk.
            prop_assert!(
                w[0].parent() != w[1].parent() || w[0].len() != w[1].len(),
                "sibling tiles {} and {} should have merged",
                w[0],
                w[1]
            );
        }
    }

    /// The order a sorted covering lookup relies on: a prefix sorts at
    /// or before every prefix it covers, and every prefix sorted
    /// between the two is covered by it too.
    #[test]
    fn a_cover_sorts_right_before_all_it_covers(
        v4 in proptest::collection::vec(arb_prefix(), 0..30),
        v6 in proptest::collection::vec(arb_v6_prefix(), 0..30),
    ) {
        let mut sorted: Vec<Prefix> = v4.into_iter().chain(v6).collect();
        sorted.sort();
        for (i, a) in sorted.iter().enumerate() {
            for c in &sorted[..i] {
                prop_assert!(c == a || !a.covers(*c), "{} sorts after {}, which it covers", a, c);
            }
            let last = sorted.iter().rposition(|c| a.covers(*c)).expect("a covers itself");
            for b in &sorted[i..=last] {
                prop_assert!(a.covers(*b), "{} sorts between {} and {}", b, a, sorted[last]);
            }
        }
    }

    #[test]
    fn prefix_cover_matches_range_contain(a in arb_prefix(), b in arb_prefix()) {
        prop_assert_eq!(a.covers(b), a.range().contains(b.range()));
        prop_assert_eq!(a.overlaps(b), a.range().overlaps(b.range()));
    }

    #[test]
    fn set_ops_ignore_family_crosstalk(a in arb_set()) {
        let v6 = ResourceSet::from_prefix(Prefix::new(Addr::v6(0x2001 << 112), 16));
        let mixed = a.union(&v6);
        prop_assert_eq!(mixed.difference(&v6), a.clone());
        prop_assert_eq!(mixed.intersection(&a), a.clone());
        prop_assert!(!a.overlaps(&v6));
    }
}

#[test]
fn family_bits_sanity() {
    assert_eq!(Family::V4.bits(), 32);
    assert_eq!(Family::V6.bits(), 128);
}

/// IPv6 variants of the core lattice properties: a small hex universe
/// inside 2001:db8::/32 keeps overlap probability high.
fn arb_v6_range() -> impl Strategy<Value = AddrRange> {
    (0u128..=0xffff, 0u128..=0xffff).prop_map(|(a, b)| {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let base = 0x2001_0db8u128 << 96;
        AddrRange::new(
            Addr::v6(base | (lo << 64)),
            Addr::v6(base | (hi << 64) | 0xffff_ffff_ffff_ffff),
        )
    })
}

fn arb_v6_set() -> impl Strategy<Value = ResourceSet> {
    proptest::collection::vec(arb_v6_range(), 0..8).prop_map(ResourceSet::from_ranges)
}

fn arb_v6_prefix() -> impl Strategy<Value = Prefix> {
    (any::<u64>(), 32u8..=64).prop_map(|(v, len)| {
        let base = (0x2001_0db8u128 << 96) | ((v as u128) << 32);
        Prefix::new(Addr::v6(base), len)
    })
}

proptest! {
    #[test]
    fn v6_difference_union_restores(a in arb_v6_set(), b in arb_v6_set()) {
        let rebuilt = a.difference(&b).union(&a.intersection(&b));
        prop_assert_eq!(rebuilt, a);
    }

    #[test]
    fn v6_covers_iff_difference_empty(a in arb_v6_set(), b in arb_v6_set()) {
        prop_assert_eq!(a.contains_set(&b), b.difference(&a).is_empty());
    }

    #[test]
    fn v6_to_prefixes_round_trips(a in arb_v6_set()) {
        prop_assert_eq!(ResourceSet::from_prefixes(a.to_prefixes()), a);
    }

    #[test]
    fn v6_prefix_cover_matches_range_contain(a in arb_v6_prefix(), b in arb_v6_prefix()) {
        prop_assert_eq!(a.covers(b), a.range().contains(b.range()));
    }
}
