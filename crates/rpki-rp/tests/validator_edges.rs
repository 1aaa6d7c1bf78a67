//! Validator edge cases: certificate loops, depth caps, and hostile
//! publication-point contents that must not wedge or crash the walk.

use ipres::{Asn, Prefix, ResourceSet};
use rpki_ca::CertAuthority;
use rpki_objects::{Moment, RepoUri, RoaPrefix, Span, TrustAnchorLocator};
use rpki_repo::RepoRegistry;
use rpki_rp::{DirectSource, Issue, ValidationConfig, Validator};

fn rs(s: &str) -> ResourceSet {
    ResourceSet::from_prefix_strs(s)
}

struct Rig {
    repos: RepoRegistry,
    ta: CertAuthority,
    tal: TrustAnchorLocator,
}

fn rig(seed: &str) -> Rig {
    let mut net = netsim::Network::new(0);
    let mut repos = RepoRegistry::new();
    repos.create(&mut net, "ta.example");
    let mut ta = CertAuthority::new("TA", seed, RepoUri::new("ta.example", &["repo"]));
    ta.certify_self(rs("10.0.0.0/8"), Moment(0), Span::days(3650));
    let tal = repos.publish_trust_anchor(&ta);
    Rig { repos, ta, tal }
}

fn publish_ta(rig: &mut Rig, now: Moment) {
    assert!(rig.repos.publish(&mut rig.ta, now));
}

fn validate(rig: &Rig, config: ValidationConfig) -> rpki_rp::ValidationRun {
    let mut source = DirectSource::new(&rig.repos);
    Validator::new(config).run(&mut source, std::slice::from_ref(&rig.tal))
}

/// A malicious publication point certifying the TA's own key as a child
/// must be rejected as a loop, not walked forever.
#[test]
fn certificate_loop_detected() {
    let mut r = rig("edge-loop");
    // The TA "certifies itself" as its own child (same subject key,
    // same SIA): a one-hop loop.
    let ta_key = r.ta.public_key();
    let ta_sia = r.ta.sia().clone();
    r.ta.issue_cert("TA-again", ta_key, rs("10.0.0.0/16"), ta_sia, Moment(0)).unwrap();
    publish_ta(&mut r, Moment(1));
    let run = validate(&r, ValidationConfig::at(Moment(2)));
    assert!(run.diagnostics.iter().any(|d| matches!(d.issue, Issue::CertificateLoop(_))));
    // Exactly one CA on the tree (the TA itself).
    assert_eq!(run.cas.len(), 1);
}

/// Two CAs certifying each other (a two-hop loop across publication
/// points) terminate via the ancestor set.
#[test]
fn mutual_certification_loop_detected() {
    let mut net = netsim::Network::new(0);
    let mut repos = RepoRegistry::new();
    repos.create(&mut net, "ta.example");
    repos.create(&mut net, "a.example");
    repos.create(&mut net, "b.example");

    let mut ta = CertAuthority::new("TA", "edge-mutual-ta", RepoUri::new("ta.example", &["repo"]));
    ta.certify_self(rs("10.0.0.0/8"), Moment(0), Span::days(3650));
    let mut a = CertAuthority::new("A", "edge-mutual-a", RepoUri::new("a.example", &["repo"]));
    let mut b = CertAuthority::new("B", "edge-mutual-b", RepoUri::new("b.example", &["repo"]));
    let rc =
        ta.issue_cert("A", a.public_key(), rs("10.0.0.0/16"), a.sia().clone(), Moment(0)).unwrap();
    a.install_cert(rc);
    // A certifies B, and B certifies A back.
    let rc =
        a.issue_cert("B", b.public_key(), rs("10.0.0.0/20"), b.sia().clone(), Moment(0)).unwrap();
    b.install_cert(rc.clone());
    // B needs a cert to issue from; it has one. It certifies A's key.
    b.issue_cert("A-again", a.public_key(), rs("10.0.0.0/24"), a.sia().clone(), Moment(0)).unwrap();

    let tal = repos.publish_trust_anchor(&ta);
    for ca in [&mut ta, &mut a, &mut b] {
        assert!(repos.publish(ca, Moment(1)));
    }

    let mut source = DirectSource::new(&repos);
    let run = Validator::new(ValidationConfig::at(Moment(2)))
        .run(&mut source, std::slice::from_ref(&tal));
    assert!(run.diagnostics.iter().any(|d| matches!(d.issue, Issue::CertificateLoop(_))));
    // TA, A, B each appear exactly once.
    assert_eq!(run.cas.len(), 3);
}

/// The depth cap stops pathological chains.
#[test]
fn depth_cap_enforced() {
    let mut r = rig("edge-depth");
    r.ta.issue_roa(
        Asn(1),
        vec![RoaPrefix::exact("10.0.0.0/16".parse::<Prefix>().unwrap())],
        Moment(0),
    )
    .unwrap();
    publish_ta(&mut r, Moment(1));
    let config = ValidationConfig { max_depth: 0, ..ValidationConfig::at(Moment(2)) };
    let run = validate(&r, config);
    assert!(run.has_issue(&Issue::DepthExceeded));
    assert!(run.vrps.is_empty(), "nothing below the cap may be processed");
}

/// A publication point stuffed with garbage files plus one good ROA:
/// the good object survives, every piece of garbage gets a diagnostic,
/// and the walk terminates.
#[test]
fn garbage_tolerance() {
    let mut r = rig("edge-garbage");
    r.ta.issue_roa(
        Asn(1),
        vec![RoaPrefix::exact("10.0.0.0/16".parse::<Prefix>().unwrap())],
        Moment(0),
    )
    .unwrap();
    publish_ta(&mut r, Moment(1));
    let dir = r.ta.sia().clone();
    let repo = r.repos.by_host_mut("ta.example").unwrap();
    repo.publish_raw(&dir, "zz-garbage-1.roa", vec![0xff; 64]);
    repo.publish_raw(&dir, "zz-garbage-2.cer", b"not an object".to_vec());
    repo.publish_raw(&dir, "zz-empty.mft", Vec::new());
    let run = validate(&r, ValidationConfig::at(Moment(2)));
    assert_eq!(run.vrps.len(), 1);
    // Garbage files are off-manifest: noted as unlisted, not fatal.
    let unlisted =
        run.diagnostics.iter().filter(|d| matches!(d.issue, Issue::UnlistedFile(_))).count();
    assert_eq!(unlisted, 3);
}

/// Two TALs anchoring two disjoint hierarchies in one run.
#[test]
fn multiple_trust_anchors() {
    let mut net = netsim::Network::new(0);
    let mut repos = RepoRegistry::new();
    repos.create(&mut net, "ta1.example");
    repos.create(&mut net, "ta2.example");
    let mut tals = Vec::new();
    for (i, host) in ["ta1.example", "ta2.example"].iter().enumerate() {
        let mut ta =
            CertAuthority::new("TA", &format!("edge-multi-{i}"), RepoUri::new(host, &["repo"]));
        ta.certify_self(rs(&format!("{}.0.0.0/8", 10 + i)), Moment(0), Span::days(3650));
        ta.issue_roa(
            Asn(100 + i as u32),
            vec![RoaPrefix::exact(format!("{}.1.0.0/16", 10 + i).parse::<Prefix>().unwrap())],
            Moment(0),
        )
        .unwrap();
        tals.push(repos.publish_trust_anchor(&ta));
        assert!(repos.publish(&mut ta, Moment(1)));
    }
    let mut source = DirectSource::new(&repos);
    let run = Validator::new(ValidationConfig::at(Moment(2))).run(&mut source, &tals);
    assert_eq!(run.cas.len(), 2);
    assert_eq!(run.vrps.len(), 2);
    assert!(run.vrps.iter().any(|v| v.asn == Asn(100)));
    assert!(run.vrps.iter().any(|v| v.asn == Asn(101)));
}
