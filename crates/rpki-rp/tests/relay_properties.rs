//! Property tests for the relay layer: SLURM (RFC 8416) exception
//! semantics and merge-policy algebra, pinned against first-principles
//! restatements.

use std::collections::BTreeSet;

use ipres::{Addr, Asn, Prefix};
use proptest::prelude::*;
use rpki_rp::{reference_merge, MergePolicy, SlurmFile, SlurmFilter, Vrp};

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

fn arb_filter() -> impl Strategy<Value = SlurmFilter> {
    (0u8..=2, arb_prefix(), 1u32..=4).prop_map(|(kind, p, a)| match kind {
        0 => SlurmFilter::prefix(p),
        1 => SlurmFilter::asn(Asn(a)),
        _ => SlurmFilter::prefix_and_asn(p, Asn(a)),
    })
}

fn arb_slurm() -> impl Strategy<Value = SlurmFile> {
    (proptest::collection::vec(arb_filter(), 0..6), proptest::collection::vec(arb_vrp(), 0..6))
        .prop_map(|(filters, assertions)| SlurmFile { filters, assertions })
}

fn arb_feed() -> impl Strategy<Value = BTreeSet<Vrp>> {
    proptest::collection::vec(arb_vrp(), 0..16).prop_map(|v| v.into_iter().collect())
}

/// A feed as the sorted, deduplicated slice `SlurmFile::apply` takes.
fn sorted(feed: &BTreeSet<Vrp>) -> Vec<Vrp> {
    feed.iter().copied().collect()
}

proptest! {
    /// RFC 8416 filter-then-assert is idempotent: the exceptions are a
    /// fixed point after one application.
    #[test]
    fn slurm_apply_is_idempotent(slurm in arb_slurm(), feed in arb_feed()) {
        let once = slurm.apply(&sorted(&feed));
        prop_assert_eq!(&slurm.apply(once.vrps()), &once);
    }

    /// The output is a pure set function of the input: VRP arrival
    /// order (any permutation collapsing to the same set) cannot
    /// change what SLURM produces.
    #[test]
    fn slurm_output_is_order_independent(
        slurm in arb_slurm(),
        vrps in proptest::collection::vec(arb_vrp(), 0..16),
        seed in any::<prop::sample::Index>(),
    ) {
        let forward: BTreeSet<Vrp> = vrps.iter().copied().collect();
        let mut shuffled = vrps.clone();
        shuffled.rotate_left(seed.index(vrps.len().max(1)));
        shuffled.reverse();
        let backward: BTreeSet<Vrp> = shuffled.into_iter().collect();
        prop_assert_eq!(slurm.apply(&sorted(&forward)), slurm.apply(&sorted(&backward)));
    }

    /// Filters strictly drop and assertions strictly add: every output
    /// VRP is either an unfiltered input or an assertion, and every
    /// assertion is present.
    #[test]
    fn slurm_output_is_unfiltered_inputs_plus_assertions(
        slurm in arb_slurm(),
        feed in arb_feed(),
    ) {
        let out = slurm.apply(&sorted(&feed));
        for v in out.vrps() {
            let kept = feed.contains(v) && !slurm.filters.iter().any(|f| f.matches(v));
            let asserted = slurm.assertions.contains(v);
            prop_assert!(kept || asserted, "{v:?} appeared from nowhere");
        }
        for a in &slurm.assertions {
            prop_assert!(out.vrps().contains(a), "assertion {a:?} missing from output");
        }
    }

    /// Union merge is associative: folding feed-by-feed equals merging
    /// any bracketing of the same feeds.
    #[test]
    fn union_merge_is_associative(
        a in arb_feed(), b in arb_feed(), c in arb_feed(),
    ) {
        let left_first = reference_merge(
            MergePolicy::Union,
            &[reference_merge(MergePolicy::Union, &[a.clone(), b.clone()]), c.clone()],
        );
        let right_first = reference_merge(
            MergePolicy::Union,
            &[a.clone(), reference_merge(MergePolicy::Union, &[b, c])],
        );
        let flat = reference_merge(MergePolicy::Union, &[a, right_first.clone()]);
        prop_assert_eq!(&left_first, &right_first);
        // Union is also idempotent, so re-merging a constituent feed
        // changes nothing.
        prop_assert_eq!(&flat, &right_first);
    }

    /// Union and All merges are commutative: feed order is irrelevant.
    #[test]
    fn union_and_all_merges_are_commutative(
        feeds in proptest::collection::vec(arb_feed(), 0..5),
        seed in any::<prop::sample::Index>(),
    ) {
        let mut shuffled = feeds.clone();
        shuffled.rotate_left(seed.index(feeds.len().max(1)));
        shuffled.reverse();
        for policy in [MergePolicy::Union, MergePolicy::All] {
            prop_assert_eq!(
                reference_merge(policy, &feeds),
                reference_merge(policy, &shuffled),
            );
        }
    }

    /// Policy ordering: All ⊆ Any ⊆ Union on non-empty feed lists.
    #[test]
    fn merge_policies_are_ordered_by_strictness(
        feeds in proptest::collection::vec(arb_feed(), 1..5),
    ) {
        let union = reference_merge(MergePolicy::Union, &feeds);
        let any = reference_merge(MergePolicy::Any, &feeds);
        let all = reference_merge(MergePolicy::All, &feeds);
        prop_assert!(all.is_subset(&any), "All must be the strictest policy");
        prop_assert!(any.is_subset(&union), "Union must be the loosest policy");
    }
}
