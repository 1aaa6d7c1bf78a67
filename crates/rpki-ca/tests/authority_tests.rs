//! Tests for the CA engine, including the paper's Figure 2 hierarchy as
//! a working three-level RPKI.

use ipres::{Asn, Prefix, ResourceSet};
use rpki_ca::{CertAuthority, IssueError};
use rpki_objects::{Moment, RepoUri, RoaPrefix, RpkiObject, Span};

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

fn rs(s: &str) -> ResourceSet {
    ResourceSet::from_prefix_strs(s)
}

fn uri(host: &str) -> RepoUri {
    RepoUri::new(host, &["repo"])
}

/// Builds the ARIN → Sprint portion of Figure 2.
fn arin_and_sprint() -> (CertAuthority, CertAuthority) {
    let mut arin = CertAuthority::new("ARIN", "test-arin", uri("rpki.arin.example"));
    arin.certify_self(rs("0.0.0.0/2, 63.0.0.0/8, 208.0.0.0/4"), Moment(0), Span::days(3650));
    let mut sprint = CertAuthority::new("Sprint", "test-sprint", uri("rpki.sprint.example"));
    let rc = arin
        .issue_cert(
            "Sprint",
            sprint.public_key(),
            rs("63.160.0.0/12, 208.0.0.0/11"),
            sprint.sia().clone(),
            Moment(0),
        )
        .unwrap();
    sprint.install_cert(rc);
    (arin, sprint)
}

#[test]
fn trust_anchor_self_certifies() {
    let mut ta = CertAuthority::new("IANA", "test-iana", uri("rpki.iana.example"));
    assert!(ta.cert().is_none());
    assert!(ta.resources().is_empty());
    ta.certify_self(rs("0.0.0.0/0"), Moment(0), Span::days(3650));
    let cert = ta.cert().unwrap();
    assert!(cert.is_self_signed());
    assert_eq!(cert.verify(&ta.public_key()), Ok(()));
}

#[test]
fn uncertified_ca_cannot_issue() {
    let mut ca = CertAuthority::new("Nobody", "test-nobody", uri("h"));
    let err = ca.issue_roa(Asn(1), vec![RoaPrefix::exact(p("10.0.0.0/8"))], Moment(0));
    assert_eq!(err.unwrap_err(), IssueError::NoCertificate);
}

#[test]
fn issuance_enforces_containment() {
    let (_, mut sprint) = arin_and_sprint();
    // In-range succeeds.
    let roa = sprint
        .issue_roa(Asn(1239), vec![RoaPrefix::up_to(p("63.160.64.0/20"), 24)], Moment(0))
        .unwrap();
    assert_eq!(roa.verify(&sprint.public_key()), Ok(()));
    // Out-of-range is refused with the precise excess.
    let err =
        sprint.issue_roa(Asn(1239), vec![RoaPrefix::exact(p("8.0.0.0/8"))], Moment(0)).unwrap_err();
    match err {
        IssueError::ResourcesNotHeld { excess } => {
            assert_eq!(excess, rs("8.0.0.0/8"));
        }
        other => panic!("wrong error: {other:?}"),
    }
}

#[test]
fn child_cert_chain_verifies() {
    let (arin, sprint) = arin_and_sprint();
    let rc = sprint.cert().unwrap();
    assert_eq!(rc.verify(&arin.public_key()), Ok(()));
    assert!(arin.resources().contains_set(&rc.data().resources));
}

#[test]
fn validity_clamped_to_issuer_window() {
    let mut ta = CertAuthority::new("TA", "test-ta-short", uri("h"));
    ta.certify_self(rs("10.0.0.0/8"), Moment(0), Span::days(10));
    let child = CertAuthority::new("C", "test-c-short", uri("h2"));
    // Default child lifetime (365d) exceeds the TA's 10-day window: the
    // issued window is clamped, never extended past the issuer's.
    let rc =
        ta.issue_cert("C", child.public_key(), rs("10.0.0.0/16"), uri("h2"), Moment(0)).unwrap();
    assert_eq!(rc.data().validity.not_after, Moment(0) + Span::days(10));
    let roa = ta.issue_roa(Asn(5), vec![RoaPrefix::exact(p("10.0.0.0/16"))], Moment(5)).unwrap();
    assert_eq!(roa.validity().not_after, Moment(0) + Span::days(10));
    // Issuing after the issuer itself expired is refused outright.
    let err = ta
        .issue_roa(Asn(5), vec![RoaPrefix::exact(p("10.0.0.0/16"))], Moment(0) + Span::days(11))
        .unwrap_err();
    assert_eq!(err, IssueError::ValidityOutlivesIssuer);
}

#[test]
fn reissue_overwrites_same_file_name() {
    let (mut arin, sprint) = arin_and_sprint();
    let first = arin.issued_cert_for(sprint.key_id()).unwrap().clone();
    // ARIN shrinks Sprint's allocation — same subject key, same file
    // name, different resources: an overwrite.
    let second = arin
        .issue_cert(
            "Sprint",
            sprint.public_key(),
            rs("63.160.0.0/12"),
            sprint.sia().clone(),
            Moment(100),
        )
        .unwrap();
    assert_eq!(first.file_name(), second.file_name());
    assert_ne!(first.data().resources, second.data().resources);
    // Only one issued cert remains for that key.
    assert_eq!(arin.issued_certs().count(), 1);
    assert_eq!(arin.issued_cert_for(sprint.key_id()).unwrap(), &second);
}

#[test]
fn revocation_is_transparent() {
    let (_, mut sprint) = arin_and_sprint();
    let roa =
        sprint.issue_roa(Asn(1239), vec![RoaPrefix::exact(p("63.160.0.0/20"))], Moment(0)).unwrap();
    sprint.revoke_serial(roa.serial());
    // The ROA is gone from the issued set...
    assert_eq!(sprint.issued_roas().count(), 0);
    // ...and the CRL says so.
    let crl = sprint.generate_crl(Moment(10));
    assert!(crl.is_revoked(roa.serial()));
}

#[test]
fn withdraw_is_stealthy() {
    let (_, mut sprint) = arin_and_sprint();
    let roa =
        sprint.issue_roa(Asn(1239), vec![RoaPrefix::exact(p("63.160.0.0/20"))], Moment(0)).unwrap();
    let taken = sprint.withdraw(&roa.file_name()).unwrap();
    assert!(matches!(taken, RpkiObject::Roa(_)));
    assert_eq!(sprint.issued_roas().count(), 0);
    // Crucially: no CRL trace (Side Effect 2).
    let crl = sprint.generate_crl(Moment(10));
    assert!(!crl.is_revoked(roa.serial()));
    // Withdrawing twice fails.
    assert!(matches!(sprint.withdraw(&roa.file_name()), Err(IssueError::NoSuchObject(_))));
}

#[test]
fn publication_snapshot_is_complete_and_hash_consistent() {
    use rpki_objects::Encode;
    let (_, mut sprint) = arin_and_sprint();
    sprint
        .issue_roa(Asn(1239), vec![RoaPrefix::up_to(p("63.160.64.0/20"), 24)], Moment(0))
        .unwrap();
    sprint.issue_roa(Asn(1239), vec![RoaPrefix::exact(p("208.24.0.0/16"))], Moment(0)).unwrap();
    let snap = sprint.publication_snapshot(Moment(5));
    // 2 ROAs + CRL + manifest.
    assert_eq!(snap.files.len(), 4);
    let mft = snap.manifest().expect("snapshot carries a manifest");
    // Manifest lists everything except itself, with matching hashes
    // (DESIGN.md invariant 7).
    assert_eq!(mft.data().entries.len(), 3);
    for (name, obj) in &snap.files {
        if name == &mft.file_name() {
            continue;
        }
        let listed = mft.hash_of(name).expect("file listed in manifest");
        assert_eq!(listed, rpkisim_crypto::sha256(&obj.to_bytes()));
    }
}

#[test]
fn crl_and_manifest_never_share_revoked_serials() {
    // DESIGN.md invariant 7 (second half): nothing on the manifest is
    // revoked.
    let (_, mut sprint) = arin_and_sprint();
    let keep =
        sprint.issue_roa(Asn(1239), vec![RoaPrefix::exact(p("63.160.0.0/20"))], Moment(0)).unwrap();
    let kill =
        sprint.issue_roa(Asn(1239), vec![RoaPrefix::exact(p("63.161.0.0/20"))], Moment(0)).unwrap();
    sprint.revoke_serial(kill.serial());
    let snap = sprint.publication_snapshot(Moment(5));
    let mft = snap.manifest().unwrap();
    assert!(mft.hash_of(&keep.file_name()).is_some());
    assert!(mft.hash_of(&kill.file_name()).is_none());
}

#[test]
fn a_roa_is_expiring_once_the_horizon_reaches_its_not_after() {
    // The horizon's end at notAfter - 1, notAfter and notAfter + 1: a
    // ROA whose last valid instant is the horizon's end is already due.
    let (_, mut sprint) = arin_and_sprint();
    let roa = sprint
        .issue_roa(Asn(1239), vec![RoaPrefix::exact(p("63.160.64.0/20"))], Moment(0))
        .unwrap();
    let not_after = roa.validity().not_after.secs();
    let due = |end: u64| sprint.expiring_roas(Moment(0), Span(end)).len();
    assert_eq!(due(not_after - 1), 0);
    assert_eq!(due(not_after), 1);
    assert_eq!(due(not_after + 1), 1);
}

#[test]
fn renewal_is_same_content_new_identity() {
    let (_, mut sprint) = arin_and_sprint();
    let old = sprint
        .issue_roa(Asn(1239), vec![RoaPrefix::up_to(p("63.160.64.0/20"), 24)], Moment(0))
        .unwrap();
    // Not yet expiring with a huge window? It is, with horizon = lifetime.
    assert_eq!(sprint.expiring_roas(Moment(0), Span::days(366)).len(), 1);
    assert_eq!(sprint.expiring_roas(Moment(0), Span::days(30)).len(), 0);
    let new = sprint.renew_roa(&old.file_name(), Moment(1000)).unwrap();
    assert_eq!(new.data(), old.data());
    assert_ne!(new.file_name(), old.file_name()); // fresh EE key
    assert!(new.validity().not_before > old.validity().not_before);
    assert!(new.validity().not_after >= old.validity().not_after);
    assert_eq!(sprint.issued_roas().count(), 1);
    // Renewing a nonexistent file fails.
    assert!(sprint.renew_roa("nope.roa", Moment(0)).is_err());
}

#[test]
fn key_rollover_resigns_everything() {
    let (mut arin, mut sprint) = arin_and_sprint();
    sprint.issue_roa(Asn(1239), vec![RoaPrefix::exact(p("63.160.0.0/20"))], Moment(0)).unwrap();
    let mut etb = CertAuthority::new("ETB", "test-etb", uri("rpki.etb.example"));
    let rc = sprint
        .issue_cert("ETB", etb.public_key(), rs("208.24.0.0/16"), etb.sia().clone(), Moment(0))
        .unwrap();
    etb.install_cert(rc);

    let old_key = sprint.key_id();
    let report = sprint.roll_key("test-sprint-key2", Moment(50));
    assert_eq!(report.old_key, old_key);
    assert_ne!(report.new_key.id(), old_key);
    assert_eq!(report.resigned_objects, 2); // 1 cert + 1 ROA
                                            // Sprint is uncertified until ARIN re-certifies the new key.
    assert!(sprint.cert().is_none());
    let rc2 = arin
        .issue_cert(
            "Sprint",
            report.new_key,
            rs("63.160.0.0/12, 208.0.0.0/11"),
            sprint.sia().clone(),
            Moment(50),
        )
        .unwrap();
    sprint.install_cert(rc2);
    // Re-signed objects verify under the new key.
    for roa in sprint.issued_roas() {
        assert_eq!(roa.verify(&sprint.public_key()), Ok(()));
    }
    for cert in sprint.issued_certs() {
        assert_eq!(cert.verify(&sprint.public_key()), Ok(()));
        // Subject keys are unchanged — children keep their identity.
        assert_eq!(cert.subject_key_id(), etb.key_id());
    }
}

#[test]
fn configurable_lifetime_and_refresh() {
    let mut ta = CertAuthority::new("TA", "test-ta-cfg", uri("h"));
    ta.certify_self(rs("10.0.0.0/8"), Moment(0), Span::days(3650));
    ta.set_default_lifetime(Span::days(30));
    let roa = ta.issue_roa(Asn(1), vec![RoaPrefix::exact(p("10.0.0.0/16"))], Moment(0)).unwrap();
    assert_eq!(roa.validity().not_after, Moment(0) + Span::days(30));
    ta.set_refresh_interval(Span::hours(8));
    let crl = ta.generate_crl(Moment(100));
    assert_eq!(crl.data().next_update, Moment(100) + Span::hours(8));
    assert!(crl.is_stale_at(Moment(101) + Span::hours(8)));
    let snap = ta.publication_snapshot(Moment(200));
    let mft = snap.manifest().unwrap();
    assert_eq!(mft.data().next_update, Moment(200) + Span::hours(8));
}

#[test]
fn snapshot_reflects_overwrite_not_just_delete() {
    // Sprint carves space out of a child RC: the snapshot must carry the
    // *new* cert under the *old* file name.
    let (_, mut sprint) = arin_and_sprint();
    let mut cb = CertAuthority::new("Continental", "test-cb", uri("rpki.continental.example"));
    sprint
        .issue_cert(
            "Continental",
            cb.public_key(),
            rs("63.174.16.0/20"),
            cb.sia().clone(),
            Moment(0),
        )
        .unwrap();
    let before = sprint.publication_snapshot(Moment(1));
    let carved = rs("63.174.16.0/20").difference(&rs("63.174.24.0/24"));
    sprint
        .issue_cert("Continental", cb.public_key(), carved.clone(), cb.sia().clone(), Moment(2))
        .unwrap();
    let after = sprint.publication_snapshot(Moment(3));
    let name = format!("{}.cer", cb.key_id().short());
    let old_obj = before.get(&name).unwrap();
    let new_obj = after.get(&name).unwrap();
    assert_ne!(old_obj, new_obj);
    match new_obj {
        RpkiObject::Cert(c) => assert_eq!(c.data().resources, carved),
        _ => panic!("expected cert"),
    }
    let _ = &mut cb;
}
