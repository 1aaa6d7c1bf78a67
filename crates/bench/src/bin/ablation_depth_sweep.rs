//! Ablation (Side Effect 4): whacking cost vs target depth.
//!
//! "ROAs below grandchild level can also be whacked without collateral
//! damage. However … this whacking requires more suspiciously-reissued
//! objects, and could be easier to detect."
//!
//! Builds linear delegation chains of increasing depth
//! (TA → CA₁ → CA₂ → … → CAₙ, each CA also holding one sibling ROA),
//! whacks the leaf's ROA from the TA, and measures: suspicious
//! reissues, monitor alarms, and residual collateral (always zero).

use ipres::{Addr, Asn, Prefix, ResourceSet};
use netsim::Network;
use rpki_attacks::{damage_between, plan_whack, probes_for, CaView, Monitor, MonitorSnapshot};
use rpki_ca::CertAuthority;
use rpki_objects::{Moment, RepoUri, RoaPrefix, Span, TrustAnchorLocator};
use rpki_repo::RepoRegistry;
use rpki_risk_bench::{emit_json, SummaryTable};
use rpki_rp::{DirectSource, ValidationConfig, Validator};
use serde::Serialize;

#[derive(Serialize)]
struct DepthRow {
    depth: usize,
    suspicious_reissues: usize,
    monitor_flags: usize,
    collateral: usize,
}

struct Chain {
    repos: RepoRegistry,
    cas: Vec<CertAuthority>, // [0] = TA
    tal: TrustAnchorLocator,
}

/// Builds a chain of `depth` CAs below the TA. CAᵢ holds a /(<16+4i>)
/// block, issues one sibling ROA in its upper half and delegates the
/// lower half onward; the last CA issues the target ROA.
fn build_chain(depth: usize) -> Chain {
    let mut net = Network::new(0);
    let mut repos = RepoRegistry::new();
    let host = |i: usize| format!("ca{i}.example");
    repos.create(&mut net, "ta.example");
    for i in 1..=depth {
        repos.create(&mut net, &host(i));
    }

    let mut cas = Vec::new();
    let mut ta = CertAuthority::new(
        "TA",
        &format!("depth-ta-{depth}"),
        RepoUri::new("ta.example", &["repo"]),
    );
    ta.certify_self(ResourceSet::from_prefix_strs("10.0.0.0/8"), Moment(0), Span::days(3650));
    cas.push(ta);

    let mut space = Prefix::new(Addr::v4(10 << 24), 12); // 10.0.0.0/12 to CA1
    for i in 1..=depth {
        let mut ca = CertAuthority::new(
            &format!("CA{i}"),
            &format!("depth-{depth}-ca-{i}"),
            RepoUri::new(&host(i), &["repo"]),
        );
        let sia = ca.sia().clone();
        let key = ca.public_key();
        let handle = format!("CA{i}");
        let parent = cas.last_mut().expect("TA exists");
        let rc = parent
            .issue_cert(&handle, key, ResourceSet::from_prefix(space), sia, Moment(0))
            .expect("nested space");
        ca.install_cert(rc);

        let (lower, upper) = space.children().expect("splittable");
        // Sibling ROA in the upper half (origin 1000+i).
        ca.issue_roa(Asn(1000 + i as u32), vec![RoaPrefix::exact(upper)], Moment(0))
            .expect("own space");
        if i == depth {
            // The target ROA at the leaf, in the lower half.
            ca.issue_roa(Asn(42), vec![RoaPrefix::exact(lower)], Moment(0)).expect("own space");
        }
        space = Prefix::new(lower.addr(), lower.len() + 1); // delegate deeper
        cas.push(ca);
    }

    let tal = repos.publish_trust_anchor(&cas[0]);
    let mut chain = Chain { repos, cas, tal };
    publish(&mut chain, Moment(1));
    chain
}

fn publish(c: &mut Chain, now: Moment) {
    for ca in &mut c.cas {
        assert!(c.repos.publish(ca, now), "every chain host is registered");
    }
}

fn main() {
    println!("Ablation — whacking cost vs target depth (Side Effect 4)\n");
    let mut rows = Vec::new();

    for depth in 1..=5usize {
        let mut c = build_chain(depth);
        let mut source = DirectSource::new(&c.repos);
        let before = Validator::new(ValidationConfig::at(Moment(2)))
            .run(&mut source, std::slice::from_ref(&c.tal));
        assert_eq!(before.vrps.len(), depth + 1, "depth {depth} world incomplete");

        let mut monitor = Monitor::new();
        monitor.observe(MonitorSnapshot::capture(&c.repos, Moment(2)));

        // The TA's chain of views down to the leaf.
        let mut views = Vec::new();
        for i in 1..=depth {
            let parent = &c.cas[i - 1];
            let rc = parent.issued_cert_for(c.cas[i].key_id()).expect("issued").clone();
            views.push(CaView::from_repos(&rc, &c.repos));
        }
        let target_file = views
            .last()
            .expect("non-empty")
            .roas
            .iter()
            .find(|r| r.asn() == Asn(42))
            .expect("target present")
            .file_name();

        let plan = plan_whack(&views, &target_file).expect("plannable");
        plan.execute(&mut c.cas[0], Moment(3)).expect("executable");
        // Re-publish (the TA's point gained objects; the child's RC
        // changed).
        publish(&mut c, Moment(3));

        let mut source = DirectSource::new(&c.repos);
        let after = Validator::new(ValidationConfig::at(Moment(4)))
            .run(&mut source, std::slice::from_ref(&c.tal));
        let damage = damage_between(&before.vrps, &after.vrps, &probes_for(&before.vrps));
        let collateral = damage.routes_degraded.iter().filter(|(r, _)| r.origin != Asn(42)).count();

        let events = monitor.observe(MonitorSnapshot::capture(&c.repos, Moment(3)));
        let flags = events.iter().filter(|e| e.classification.is_suspicious()).count();

        rows.push(DepthRow {
            depth,
            suspicious_reissues: plan.reissued,
            monitor_flags: flags,
            collateral,
        });
    }

    let mut table = SummaryTable::new(&[
        "target depth below manipulator",
        "suspicious reissues",
        "monitor flags",
        "collateral",
    ]);
    for r in &rows {
        table.row(&[
            (r.depth + 1).to_string(), // grandchild = depth 1 chain
            r.suspicious_reissues.to_string(),
            r.monitor_flags.to_string(),
            r.collateral.to_string(),
        ]);
    }
    table.print("Cost of depth");

    // Shape: zero collateral everywhere; reissues strictly grow with
    // depth (one per intermediate CA); the monitor sees more at depth.
    assert!(rows.iter().all(|r| r.collateral == 0));
    assert_eq!(rows[0].suspicious_reissues, 0, "grandchild carve is free");
    for w in rows.windows(2) {
        assert!(
            w[1].suspicious_reissues > w[0].suspicious_reissues,
            "reissues must grow with depth"
        );
    }
    assert!(rows.last().expect("rows").monitor_flags >= rows[0].monitor_flags);
    println!(
        "\nOK: depth costs exactly one suspicious reissue per intermediate CA and zero \
         collateral — Side Effect 4's detectability/depth tradeoff, quantified."
    );
    emit_json("depth_sweep", &rows);

    // ---- The RFC 8360 twist ----
    // Under "validation reconsidered" (trim over-claims instead of
    // rejecting subtrees), a *naive* carve — one RC overwrite, zero
    // reissues — becomes surgical at ANY depth: the robustness fix
    // makes the targeted attack stealthier.
    println!();
    let mut twist_rows = Vec::new();
    for depth in 1..=5usize {
        let mut c = build_chain(depth);
        let mut source = DirectSource::new(&c.repos);
        let before = Validator::new(ValidationConfig::at(Moment(2)))
            .run(&mut source, std::slice::from_ref(&c.tal));

        // Naive carve: the TA overwrites only its DIRECT child's RC,
        // removing the target's space; no make-before-break.
        let child_key = c.cas[1].public_key();
        let child_sia = c.cas[1].sia().clone();
        let child_resources =
            c.cas[0].issued_cert_for(c.cas[1].key_id()).expect("issued").data().resources.clone();
        // The target ROA's actual space, read from the leaf CA.
        let target_space = c.cas[depth]
            .issued_roas()
            .find(|r| r.asn() == Asn(42))
            .expect("target at the leaf")
            .resources();
        c.cas[0]
            .issue_cert(
                "CA1",
                child_key,
                child_resources.difference(&target_space),
                child_sia,
                Moment(3),
            )
            .expect("carve");
        publish(&mut c, Moment(1));

        let count = |config: ValidationConfig| {
            let mut source = DirectSource::new(&c.repos);
            let after = Validator::new(config).run(&mut source, std::slice::from_ref(&c.tal));
            let damage = damage_between(&before.vrps, &after.vrps, &probes_for(&before.vrps));
            let target_dead = !after.vrps.iter().any(|v| v.asn == Asn(42));
            let collateral =
                damage.routes_degraded.iter().filter(|(r, _)| r.origin != Asn(42)).count();
            (target_dead, collateral)
        };
        let (strict_dead, strict_coll) = count(ValidationConfig::at(Moment(4)));
        let (trim_dead, trim_coll) = count(ValidationConfig::reconsidered_at(Moment(4)));
        twist_rows.push((depth, strict_dead, strict_coll, trim_dead, trim_coll));
    }

    let mut twist = SummaryTable::new(&[
        "depth",
        "naive carve under RFC 6487 (strict)",
        "…under RFC 8360 (trim)",
    ]);
    for (depth, sd, sc, td, tc) in &twist_rows {
        twist.row(&[
            (depth + 1).to_string(),
            format!("target dead: {sd}, collateral: {sc}"),
            format!("target dead: {td}, collateral: {tc}"),
        ]);
    }
    twist.print("A single RC overwrite, no reissues, two validation policies");

    for (depth, strict_dead, strict_coll, trim_dead, trim_coll) in &twist_rows {
        assert!(*strict_dead && *trim_dead, "carve must kill the target either way");
        assert_eq!(*trim_coll, 0, "trim makes the naive carve surgical at depth {depth}");
        if *depth > 1 {
            assert!(
                *strict_coll > 0,
                "strict kills the subtree below the overwritten RC at depth {depth}"
            );
        }
    }
    println!(
        "\nOK: RFC 8360 'validation reconsidered' removes the make-before-break cost of deep \
         whacks entirely — hardening against accidental over-claims also removes the paper's \
         collateral-damage deterrent."
    );
    emit_json("depth_sweep_rfc8360", &twist_rows);
}
