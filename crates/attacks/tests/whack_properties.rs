//! Property test for DESIGN.md invariant 5: whack-plan soundness on
//! randomly generated hierarchies.
//!
//! For any generated three-level world (TA → child CA → ROAs/sub-CAs)
//! and any target ROA:
//!
//! 1. executing the plan makes the target ROA's VRPs disappear;
//! 2. every other previously-valid route keeps its exact validity
//!    (reissues may move VRPs between publication points, but the VRP
//!    *content* set minus the target's is preserved);
//! 3. zero-collateral plans require zero suspicious reissues whenever
//!    the target owns space no sibling uses.

use ipres::{Asn, Prefix, ResourceSet};
use netsim::Network;
use proptest::prelude::*;
use rpki_attacks::{plan_whack, CaView};
use rpki_ca::CertAuthority;
use rpki_objects::{Moment, RepoUri, RoaPrefix, Span, TrustAnchorLocator};
use rpki_repo::RepoRegistry;
use rpki_rp::{DirectSource, ValidationConfig, Validator, Vrp};

/// A randomly shaped child publication point: which /22s of the child's
/// /16 get ROAs, with which origins and maxlen allowances.
#[derive(Debug, Clone)]
struct ChildShape {
    /// (quarter index 0..16, origin 1..=6, extra maxlen 0..=2) per ROA.
    roas: Vec<(u8, u32, u8)>,
    /// Index of the ROA to whack.
    target: usize,
}

fn arb_shape() -> impl Strategy<Value = ChildShape> {
    proptest::collection::vec((0u8..16, 1u32..=6, 0u8..=2), 1..8).prop_flat_map(|mut roas| {
        // Deduplicate identical (slot, origin) pairs to avoid aliased
        // ROAs whose "content identity" collides.
        roas.sort();
        roas.dedup_by_key(|(slot, origin, _)| (*slot, *origin));
        let len = roas.len();
        (Just(roas), 0..len).prop_map(|(roas, target)| ChildShape { roas, target })
    })
}

struct World {
    repos: RepoRegistry,
    ta: CertAuthority,
    child: CertAuthority,
    tal: TrustAnchorLocator,
}

fn build(shape: &ChildShape, case: u64) -> World {
    let mut net = Network::new(0);
    let mut repos = RepoRegistry::new();
    repos.create(&mut net, "ta.example");
    repos.create(&mut net, "child.example");
    let ta_dir = RepoUri::new("ta.example", &["repo"]);
    let child_dir = RepoUri::new("child.example", &["repo"]);

    let mut ta = CertAuthority::new("TA", &format!("prop-ta-{case}"), ta_dir);
    ta.certify_self(ResourceSet::from_prefix_strs("10.0.0.0/8"), Moment(0), Span::days(3650));
    let mut child = CertAuthority::new("Child", &format!("prop-child-{case}"), child_dir);
    let rc = ta
        .issue_cert(
            "Child",
            child.public_key(),
            ResourceSet::from_prefix_strs("10.1.0.0/16"),
            child.sia().clone(),
            Moment(0),
        )
        .expect("inside TA space");
    child.install_cert(rc);

    for (slot, origin, extra) in &shape.roas {
        // quarter `slot` of 10.1.0.0/16 → a /20.
        let base = 0x0a01_0000u32 | ((*slot as u32) << 12);
        let prefix = Prefix::new(ipres::Addr::v4(base), 20);
        child
            .issue_roa(Asn(*origin), vec![RoaPrefix::up_to(prefix, 20 + extra)], Moment(0))
            .expect("inside child space");
    }

    let tal = repos.publish_trust_anchor(&ta);
    let mut world = World { repos, ta, child, tal };
    publish(&mut world, Moment(1));
    world
}

fn publish(w: &mut World, now: Moment) {
    for ca in [&mut w.ta, &mut w.child] {
        assert!(w.repos.publish(ca, now), "both hosts are registered");
    }
}

fn validate(w: &World, now: Moment) -> Vec<Vrp> {
    let mut source = DirectSource::new(&w.repos);
    Validator::new(ValidationConfig::at(now)).run(&mut source, std::slice::from_ref(&w.tal)).vrps
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn whack_plans_are_sound(shape in arb_shape(), case in 0u64..1_000_000) {
        let mut w = build(&shape, case);
        let before = validate(&w, Moment(2));
        prop_assert_eq!(before.len(), shape.roas.len(), "world must validate fully");

        // Plan against the child from the TA (grandchild whack).
        let rc = w.ta.issued_cert_for(w.child.key_id()).expect("issued").clone();
        let view = CaView::from_repos(&rc, &w.repos);
        let (slot, origin, _) = shape.roas[shape.target];
        let target_roa = view
            .roas
            .iter()
            .find(|r| {
                r.asn() == Asn(origin)
                    && r.resources().ranges()[0].lo().value() as u32
                        == (0x0a01_0000u32 | ((slot as u32) << 12))
            })
            .expect("target published")
            .clone();
        let target_file = target_roa.file_name();
        let plan = plan_whack(std::slice::from_ref(&view), &target_file).expect("plannable");

        plan.execute(&mut w.ta, Moment(3)).expect("executable");
        publish(&mut w, Moment(3));
        let after = validate(&w, Moment(4));

        // 1. The target's VRPs are gone.
        let target_vrps: Vec<Vrp> = target_roa
            .data()
            .prefixes
            .iter()
            .map(|rp| Vrp::new(rp.prefix, rp.effective_max_len(), target_roa.asn()))
            .collect();
        for tv in &target_vrps {
            prop_assert!(!after.contains(tv), "target VRP {tv} survived; plan {plan:?}");
        }

        // 2. Every other VRP's content is preserved (possibly reissued
        // from the TA's publication point).
        for v in &before {
            if target_vrps.contains(v) {
                continue;
            }
            prop_assert!(
                after.contains(v),
                "collateral: VRP {} lost; plan {:?}",
                v,
                plan
            );
        }

        // 3. If the target's space overlaps no sibling ROA, the plan
        // must be reissue-free.
        let target_space = target_roa.resources();
        let sibling_overlap = view
            .roas
            .iter()
            .filter(|r| r.file_name() != target_file)
            .any(|r| r.resources().overlaps(&target_space));
        if !sibling_overlap {
            prop_assert_eq!(plan.reissued, 0, "needless reissues: {:?}", plan);
        }

        // 4. And the carve is always inside the target's space.
        prop_assert!(target_space.contains_set(&plan.carved));
    }
}
