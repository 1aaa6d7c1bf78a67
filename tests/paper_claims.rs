//! One test per claim the paper makes — the checklist EXPERIMENTS.md
//! links to. Each test cites the paper section it reproduces.

use ipres::Asn;
use rpki_attacks::{plan_whack, CaView};
use rpki_objects::{Moment, RpkiObject};
use rpki_risk::fixtures::{asn, ca};
use rpki_risk::{World, MODEL_SEED};
use rpki_rp::{Route, RouteValidity};

/// Side Effect 1 (§3): revocation is a unilateral reclamation lever —
/// the parent alone, with no step the child can veto, removes the
/// child's ability to have valid ROAs.
#[test]
fn se1_unilateral_reclamation() {
    let mut w = World::model(MODEL_SEED);
    let serial =
        w.cas[ca::SPRINT].issued_cert_for(w.cas[ca::CONTINENTAL].key_id()).unwrap().data().serial;
    w.cas[ca::SPRINT].revoke_serial(serial);
    w.publish_all(Moment(3));
    let run = w.validate_direct(Moment(4));
    assert!(run.vrps.iter().all(|v| v.asn != asn::CONTINENTAL));
    // The CRL advertises it: transparent, but unilateral.
    let crl = w.cas[ca::SPRINT].generate_crl(Moment(5));
    assert!(crl.is_revoked(serial));
}

/// Side Effect 2 (§3): stealthy revocation — deletion without a CRL
/// entry is indistinguishable from the object never having existed.
#[test]
fn se2_stealthy_revocation() {
    let mut w = World::model(MODEL_SEED);
    let file = w.covering_roa_file();
    let taken = w.cas[ca::CONTINENTAL].withdraw(&file).unwrap();
    assert!(matches!(taken, RpkiObject::Roa(_)));
    w.publish_all(Moment(3));
    let run = w.validate_direct(Moment(4));
    // Gone from the VRP set…
    assert!(!run
        .vrps
        .iter()
        .any(|v| v.asn == asn::CONTINENTAL && v.prefix == "63.174.16.0/20".parse().unwrap()));
    // …with no revocation trace and no validation alarm beyond benign
    // notes.
    let crl = w.cas[ca::CONTINENTAL].generate_crl(Moment(5));
    assert!(crl.data().revoked.is_empty());
    assert!(run.diagnostics.iter().all(|d| matches!(d.issue, rpki_rp::Issue::UnlistedFile(_))));
}

/// Side Effect 3 (§3.1): a grandparent whacks a grandchild ROA with
/// zero collateral via a carve-out.
#[test]
fn se3_targeted_grandchild_whack() {
    let mut w = World::model(MODEL_SEED);
    let before = w.validate_direct(Moment(2)).vrps;
    let view = w.continental_view();
    let file = w.covering_roa_file();
    let plan = plan_whack(std::slice::from_ref(&view), &file).unwrap();
    assert_eq!(plan.reissued, 0, "clean carve needs no reissues");
    plan.execute(&mut w.cas[ca::SPRINT], Moment(3)).unwrap();
    w.publish_all(Moment(3));
    let after = w.validate_direct(Moment(4)).vrps;
    assert_eq!(after.len(), before.len() - 1);
}

/// Side Effect 4 (§3.1): deeper targets are whackable too, at the cost
/// of suspicious reissues that grow with depth.
#[test]
fn se4_depth_costs_reissues() {
    let w = World::model(MODEL_SEED);
    // Depth 1 (Sprint → Continental's ROA): zero reissues.
    let view = w.continental_view();
    let shallow = plan_whack(std::slice::from_ref(&view), &w.covering_roa_file()).unwrap();
    // Depth 2 (ARIN → same ROA): one intermediate reissue.
    let sprint_rc = w.cas[ca::ARIN].issued_cert_for(w.cas[ca::SPRINT].key_id()).unwrap().clone();
    let chain = vec![CaView::from_repos(&sprint_rc, &w.repos), view];
    let deep = plan_whack(&chain, &w.covering_roa_file()).unwrap();
    assert!(deep.reissued > shallow.reissued);
}

/// Side Effect 5 (§4): a new ROA turns previously-unknown covered
/// routes invalid.
#[test]
fn se5_new_roa_invalidates() {
    let mut w = World::model(MODEL_SEED);
    let probe = Route::new("63.168.0.0/16".parse().unwrap(), Asn(777));
    assert_eq!(w.validate_direct(Moment(2)).vrp_cache().classify(probe), RouteValidity::Unknown);
    w.add_figure5_right_roa(Moment(3));
    assert_eq!(w.validate_direct(Moment(4)).vrp_cache().classify(probe), RouteValidity::Invalid);
}

/// Side Effect 6 (§4): a missing ROA turns its route invalid (not
/// unknown) when another ROA covers it.
#[test]
fn se6_missing_roa_invalidates() {
    let mut w = World::model(MODEL_SEED);
    let route = Route::new("63.174.16.0/22".parse().unwrap(), asn::CUSTOMER_A);
    assert_eq!(w.validate_direct(Moment(2)).vrp_cache().classify(route), RouteValidity::Valid);
    let file = w.customer_roa_file();
    w.cas[ca::CONTINENTAL].withdraw(&file).unwrap();
    w.publish_all(Moment(3));
    // The /20 covering ROA remains → INVALID.
    assert_eq!(w.validate_direct(Moment(4)).vrp_cache().classify(route), RouteValidity::Invalid);
}

/// Side Effect 7 (§6): the loopback test lives in
/// `rpki-risk::loopback`; here we assert the *preconditions* the paper
/// lists hold in the model — (a) the repo's ROA is stored at that repo,
/// (b) a covering-not-matching ROA exists after the Figure 5 (right)
/// addition.
#[test]
fn se7_preconditions_hold() {
    let mut w = World::model(MODEL_SEED);
    w.add_figure5_right_roa(Moment(2));
    let repo = w.repos.by_host("rpki.continental.example").unwrap();
    let (repo_prefix, repo_asn) = repo.hosted_at().unwrap();
    // (a) the ROA authorising the route to the repo is published AT the
    // repo.
    let covering = w.cas[ca::CONTINENTAL]
        .issued_roas()
        .find(|r| r.asn() == repo_asn)
        .expect("covering ROA exists");
    assert!(covering.resources().contains_prefix(repo_prefix));
    // (b) with that ROA missing, the repo route is covered-not-matched.
    let cache = w.validate_direct(Moment(3)).vrp_cache();
    let without: rpki_rp::VrpCache =
        cache.vrps().iter().copied().filter(|v| v.asn != repo_asn).collect();
    let repo_route = Route::new("63.174.16.0/20".parse().unwrap(), repo_asn);
    assert_eq!(without.classify(repo_route), RouteValidity::Invalid);
}

/// §2: trust derives from keys and the hierarchy, not names — an
/// authority cannot issue for space it does not hold (the validator
/// rejects over-claims), unlike the web PKI's any-CA-any-name problem.
#[test]
fn least_privilege_holds() {
    let mut w = World::model(MODEL_SEED);
    // ETB (holding 63.166.0.0/16) tries to authorise itself for
    // Sprint's 208.24.0.0/16. The honest engine refuses…
    let err = w.cas[ca::ETB].issue_roa(
        Asn(19094),
        vec![rpki_objects::RoaPrefix::exact("208.24.0.0/16".parse().unwrap())],
        Moment(2),
    );
    assert!(err.is_err());
    // …and even a forged publication (say ETB's software skipped the
    // check) dies at the validator: simulate by publishing a ROA signed
    // with ETB's key for space outside its certificate.
    let rogue = rpki_objects::Roa::issue(
        rpki_objects::RoaData {
            asn: Asn(19094),
            prefixes: vec![rpki_objects::RoaPrefix::exact("208.24.0.0/16".parse().unwrap())],
        },
        999,
        rpki_objects::Validity::starting(Moment(0), rpki_objects::Span::days(30)),
        w.cas[ca::ETB].key_for_attack(),
        &rpkisim_crypto::KeyPair::from_seed("rogue-ee"),
    );
    let dir = w.cas[ca::ETB].sia().clone();
    use rpki_objects::Encode;
    let bytes = rpki_objects::RpkiObject::Roa(rogue.clone()).to_bytes();
    w.repos.by_host_mut(dir.host()).unwrap().publish_raw(&dir, &rogue.file_name(), bytes);
    let run = w.validate_direct(Moment(3));
    assert!(!run
        .vrps
        .iter()
        .any(|v| v.prefix == "208.24.0.0/16".parse().unwrap() && v.asn == Asn(19094)));
}
