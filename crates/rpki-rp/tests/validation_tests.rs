//! End-to-end validation tests: CA engine → repositories → relying
//! party, over both perfect and faulty transports.

use ipres::{Asn, Prefix, ResourceSet};
use netsim::{Network, NodeId};
use rpki_ca::CertAuthority;
use rpki_objects::{Moment, RepoUri, RoaPrefix, Span, TrustAnchorLocator};
use rpki_repo::RepoRegistry;
use rpki_rp::{
    DirectSource, IncompletePolicy, Issue, NetworkSource, Route, RouteValidity, ValidationConfig,
    Validator, Vrp,
};

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

fn rs(s: &str) -> ResourceSet {
    ResourceSet::from_prefix_strs(s)
}

/// A complete little world: ARIN (TA) → Sprint → Continental Broadband,
/// with repositories and a relying party on the network.
struct World {
    net: Network,
    repos: RepoRegistry,
    rp_node: NodeId,
    arin: CertAuthority,
    sprint: CertAuthority,
    continental: CertAuthority,
    tal: TrustAnchorLocator,
    continental_dir: RepoUri,
}

impl World {
    fn build() -> World {
        let mut net = Network::new(7);
        let rp_node = net.add_node("relying-party");
        let mut repos = RepoRegistry::new();
        let arin_node = repos.create(&mut net, "rpki.arin.example");
        let sprint_node = repos.create(&mut net, "rpki.sprint.example");
        let continental_node = repos.create(&mut net, "rpki.continental.example");

        let arin_dir = RepoUri::new("rpki.arin.example", &["repo"]);
        let sprint_dir = RepoUri::new("rpki.sprint.example", &["repo"]);
        let continental_dir = RepoUri::new("rpki.continental.example", &["repo"]);

        let mut arin = CertAuthority::new("ARIN", "w-arin", arin_dir.clone());
        arin.certify_self(rs("63.0.0.0/8, 208.0.0.0/4"), Moment(0), Span::days(3650));

        let mut sprint = CertAuthority::new("Sprint", "w-sprint", sprint_dir.clone());
        let rc = arin
            .issue_cert(
                "Sprint",
                sprint.public_key(),
                rs("63.160.0.0/12, 208.0.0.0/11"),
                sprint_dir.clone(),
                Moment(0),
            )
            .unwrap();
        sprint.install_cert(rc);

        let mut continental =
            CertAuthority::new("Continental Broadband", "w-continental", continental_dir.clone());
        let rc = sprint
            .issue_cert(
                "Continental Broadband",
                continental.public_key(),
                rs("63.174.16.0/20"),
                continental_dir.clone(),
                Moment(0),
            )
            .unwrap();
        continental.install_cert(rc);

        // Sprint's own ROAs (the "two ROAs up to /24" of Figure 2).
        sprint
            .issue_roa(Asn(1239), vec![RoaPrefix::up_to(p("63.160.64.0/20"), 24)], Moment(0))
            .unwrap();
        sprint
            .issue_roa(Asn(1239), vec![RoaPrefix::up_to(p("208.24.0.0/16"), 24)], Moment(0))
            .unwrap();
        // Continental's ROAs.
        continental
            .issue_roa(Asn(17054), vec![RoaPrefix::exact(p("63.174.16.0/20"))], Moment(0))
            .unwrap();
        continental
            .issue_roa(Asn(7341), vec![RoaPrefix::exact(p("63.174.16.0/22"))], Moment(0))
            .unwrap();

        let tal = repos.publish_trust_anchor(&arin);

        let mut world =
            World { net, repos, rp_node, arin, sprint, continental, tal, continental_dir };
        let _ = (arin_node, sprint_node, continental_node);
        world.publish_all(Moment(1));
        world
    }

    /// Publishes every CA's snapshot (and the TA certificate) at `now`.
    fn publish_all(&mut self, now: Moment) {
        self.repos.publish_trust_anchor(&self.arin);
        for ca in [&mut self.arin, &mut self.sprint, &mut self.continental] {
            assert!(self.repos.publish(ca, now));
        }
    }

    fn validate_direct(&mut self, config: ValidationConfig) -> rpki_rp::ValidationRun {
        let mut source = DirectSource::new(&self.repos);
        Validator::new(config).run(&mut source, std::slice::from_ref(&self.tal))
    }

    fn validate_network(&mut self, config: ValidationConfig) -> rpki_rp::ValidationRun {
        let mut source = NetworkSource::new(&mut self.net, &self.repos, self.rp_node);
        Validator::new(config).run(&mut source, std::slice::from_ref(&self.tal))
    }
}

#[test]
fn clean_world_validates_fully() {
    let mut w = World::build();
    let run = w.validate_direct(ValidationConfig::at(Moment(2)));
    // ARIN, Sprint, Continental on the tree.
    assert_eq!(run.cas.len(), 3);
    assert_eq!(run.cas.iter().filter(|c| &*c.handle == "Sprint").count(), 1);
    // Four ROAs → four VRPs.
    assert_eq!(run.vrps.len(), 4);
    assert!(run.vrps.contains(&Vrp::new(p("63.160.64.0/20"), 24, Asn(1239))));
    assert!(run.vrps.contains(&Vrp::new(p("63.174.16.0/20"), 20, Asn(17054))));
    assert!(run.vrps.contains(&Vrp::new(p("63.174.16.0/22"), 22, Asn(7341))));
    // No hard failures (unlisted-file notes aside).
    assert!(
        run.diagnostics.iter().all(|d| matches!(d.issue, Issue::UnlistedFile(_))),
        "{:?}",
        run.diagnostics
    );
    // And origin validation works off the result.
    let cache = run.vrp_cache();
    assert_eq!(cache.classify(Route::new(p("63.174.16.0/22"), Asn(7341))), RouteValidity::Valid);
}

#[test]
fn network_and_direct_agree_on_clean_world() {
    let mut w = World::build();
    let direct = w.validate_direct(ValidationConfig::at(Moment(2)));
    let networked = w.validate_network(ValidationConfig::at(Moment(2)));
    assert_eq!(direct.vrps, networked.vrps);
    assert_eq!(direct.cas.len(), networked.cas.len());
}

#[test]
fn unreachable_repo_loses_subtree_only() {
    let mut w = World::build();
    let continental_node = w.repos.node_of("rpki.continental.example").unwrap();
    w.net.faults.partition(w.rp_node, continental_node);
    let run = w.validate_network(ValidationConfig::at(Moment(2)));
    // Sprint's own VRPs survive; Continental's are gone.
    assert_eq!(run.vrps.len(), 2);
    assert!(run.vrps.iter().all(|v| v.asn == Asn(1239)));
    assert!(run.has_issue(&Issue::UnreachableRepo));
    // The missing covering-ROA now makes the /22 route *unknown* — and a
    // covering ROA from Sprint would have made it invalid; transport
    // faults change route validity. (Section 4 of the paper.)
    let cache = run.vrp_cache();
    assert_eq!(cache.classify(Route::new(p("63.174.16.0/22"), Asn(7341))), RouteValidity::Unknown);
}

#[test]
fn stealthy_withdraw_removes_vrp_without_revocation() {
    let mut w = World::build();
    let target = w.continental.issued_roas().find(|r| r.asn() == Asn(7341)).unwrap().file_name();
    w.continental.withdraw(&target).unwrap();
    w.publish_all(Moment(3));
    let run = w.validate_direct(ValidationConfig::at(Moment(4)));
    assert_eq!(run.vrps.len(), 3);
    // Nothing flagged: the object is simply gone (that is the stealth).
    assert!(!run.has_issue(&Issue::MissingManifest));
    assert!(run.diagnostics.iter().all(|d| matches!(d.issue, Issue::UnlistedFile(_))));
    // Side Effect 6 consequence: the route flips valid → invalid
    // because the /20 ROA still covers it.
    let cache = run.vrp_cache();
    assert_eq!(cache.classify(Route::new(p("63.174.16.0/22"), Asn(7341))), RouteValidity::Invalid);
}

#[test]
fn corrupted_file_detected_and_policy_matters() {
    let mut w = World::build();
    // Corrupt one of Continental's ROAs at rest.
    let target = w.continental.issued_roas().find(|r| r.asn() == Asn(7341)).unwrap().file_name();
    w.repos
        .by_host_mut("rpki.continental.example")
        .unwrap()
        .corrupt_at_rest(&w.continental_dir.clone(), &target);

    // AcceptPartial: the corrupted file is rejected, everything else
    // survives.
    let run = w.validate_direct(ValidationConfig::at(Moment(2)));
    assert!(run.has_issue(&Issue::HashMismatch(target.clone())));
    assert_eq!(run.vrps.len(), 3);

    // RejectPublicationPoint: Continental's whole point is discarded.
    let strict = w.validate_direct(ValidationConfig::strict_at(Moment(2)));
    assert!(strict.has_issue(&Issue::RejectedPublicationPoint));
    assert_eq!(strict.vrps.len(), 2);
    assert!(strict.vrps.iter().all(|v| v.asn == Asn(1239)));
}

#[test]
fn revoked_roa_is_rejected_via_crl() {
    let mut w = World::build();
    let target = w.continental.issued_roas().find(|r| r.asn() == Asn(7341)).unwrap().clone();
    let serial = target.serial();
    let name = target.file_name();
    // Revoke, but *also* keep serving the old ROA bytes (a repository
    // that failed to clean up): the CRL must kill it.
    w.continental.revoke_serial(serial);
    w.publish_all(Moment(3));
    let stale_bytes = {
        use rpki_objects::Encode;
        rpki_objects::RpkiObject::Roa(target.clone()).to_bytes()
    };
    w.repos.by_host_mut("rpki.continental.example").unwrap().publish_raw(
        &w.continental_dir.clone(),
        &name,
        stale_bytes,
    );
    let run = w.validate_direct(ValidationConfig::at(Moment(4)));
    // The lingering file is not on the manifest → unlisted, not used.
    assert!(run.has_issue(&Issue::UnlistedFile(name)));
    assert_eq!(run.vrps.len(), 3);
}

#[test]
fn expired_objects_are_rejected() {
    let mut w = World::build();
    // Far future: everything (TA included) has expired.
    let run = w.validate_direct(ValidationConfig::at(Moment(0) + Span::days(9999)));
    assert!(run.vrps.is_empty());
    assert!(run.has_issue(&Issue::TalRejected));

    // Just past Sprint's 365-day cert: TA still alive, subtree dead.
    let run = w.validate_direct(ValidationConfig::at(Moment(1) + Span::days(366)));
    assert!(run.vrps.is_empty());
    assert!(run.diagnostics.iter().any(|d| matches!(d.issue, Issue::Expired(_))));
}

#[test]
fn overclaiming_child_subtree_rejected() {
    let mut w = World::build();
    // ARIN shrinks Sprint's RC so that Sprint's already-issued objects
    // over-claim — the whacking primitive seen from the validator side.
    let rc = w
        .arin
        .issue_cert(
            "Sprint",
            w.sprint.public_key(),
            rs("63.160.0.0/12"), // 208/11 removed
            w.sprint.sia().clone(),
            Moment(2),
        )
        .unwrap();
    w.sprint.install_cert(rc);
    w.publish_all(Moment(3));
    let run = w.validate_direct(ValidationConfig::at(Moment(4)));
    // Sprint's 208.24.0.0/16 ROA now over-claims and dies; the 63.x ROA
    // survives; Continental (still inside 63.160/12) survives.
    assert!(run.diagnostics.iter().any(|d| matches!(d.issue, Issue::OverClaim(_))));
    assert_eq!(run.vrps.len(), 3);
    assert!(!run.vrps.iter().any(|v| v.prefix == p("208.24.0.0/16")));
}

#[test]
fn missing_crl_noted() {
    let mut w = World::build();
    let crl_name = format!("{}.crl", w.continental.key_id().short());
    w.repos
        .by_host_mut("rpki.continental.example")
        .unwrap()
        .delete(&w.continental_dir.clone(), &crl_name);
    let run = w.validate_direct(ValidationConfig::at(Moment(2)));
    assert!(run.has_issue(&Issue::MissingCrl));
    // Under AcceptPartial the ROAs still load (with the gap noted); the
    // manifest hash check fails nothing because the CRL file is simply
    // absent → MissingFile too.
    assert!(run.diagnostics.iter().any(|d| matches!(d.issue, Issue::MissingFile(_))));
    assert_eq!(run.vrps.len(), 4);
    // Strict policy discards the publication point instead.
    let strict = w.validate_direct(ValidationConfig::strict_at(Moment(2)));
    assert_eq!(strict.vrps.len(), 2);
}

#[test]
fn bogus_tal_rejected() {
    let mut w = World::build();
    let evil = rpkisim_crypto::KeyPair::from_seed("w-evil");
    w.tal = TrustAnchorLocator::new(w.tal.uri.clone(), evil.public());
    let run = w.validate_direct(ValidationConfig::at(Moment(2)));
    assert!(run.has_issue(&Issue::TalRejected));
    assert!(run.vrps.is_empty());
    assert!(run.cas.is_empty());
}

#[test]
fn in_flight_corruption_surfaces_as_hash_mismatch_or_missing() {
    let mut w = World::build();
    let sprint_node = w.repos.node_of("rpki.sprint.example").unwrap();
    // Corrupt every file frame of Sprint's sync (frame 1 is the
    // listing; 2..=6 are the five files: child cert, two ROAs, CRL,
    // manifest, in BTreeMap order).
    for i in 2..=6 {
        w.net.faults.corrupt_nth(sprint_node, w.rp_node, i);
    }
    let run = w.validate_network(ValidationConfig::at(Moment(2)));
    let hit = run.diagnostics.iter().any(|d| {
        matches!(d.issue, Issue::HashMismatch(_) | Issue::MissingFile(_) | Issue::DecodeFailed(_))
    });
    assert!(hit, "corruption must surface somewhere: {:?}", run.diagnostics);
    // And fewer VRPs than the clean run.
    assert!(run.vrps.len() < 4);
}

#[test]
fn incomplete_policy_default_is_partial() {
    let config = ValidationConfig::at(Moment(0));
    assert_eq!(config.incomplete, IncompletePolicy::AcceptPartial);
    let strict = ValidationConfig::strict_at(Moment(0));
    assert_eq!(strict.incomplete, IncompletePolicy::RejectPublicationPoint);
}
