//! RFC 8360 "validation reconsidered" semantics, and the twist it puts
//! on the paper's attacks: trimming makes targeted whacking *cheaper*.

use ipres::{Asn, Prefix, ResourceSet};
use rpki_ca::CertAuthority;
use rpki_objects::{Moment, RepoUri, RoaPrefix, Span, TrustAnchorLocator};
use rpki_repo::RepoRegistry;
use rpki_rp::{DirectSource, Issue, ValidationConfig, Validator, Vrp};

fn p(s: &str) -> Prefix {
    s.parse().unwrap()
}

fn rs(s: &str) -> ResourceSet {
    ResourceSet::from_prefix_strs(s)
}

/// TA → middle → leaf, where the leaf holds two ROAs. The test then has
/// the TA carve one /24 out of the *middle* certificate.
struct World {
    repos: RepoRegistry,
    ta: CertAuthority,
    middle: CertAuthority,
    leaf: CertAuthority,
    tal: TrustAnchorLocator,
}

impl World {
    fn build() -> World {
        let mut net = netsim::Network::new(0);
        let mut repos = RepoRegistry::new();
        for host in ["ta.example", "middle.example", "leaf.example"] {
            repos.create(&mut net, host);
        }
        let mut ta = CertAuthority::new("TA", "rec-ta", RepoUri::new("ta.example", &["repo"]));
        ta.certify_self(rs("10.0.0.0/8"), Moment(0), Span::days(3650));
        let mut middle =
            CertAuthority::new("Middle", "rec-middle", RepoUri::new("middle.example", &["repo"]));
        let rc = ta
            .issue_cert(
                "Middle",
                middle.public_key(),
                rs("10.1.0.0/16"),
                middle.sia().clone(),
                Moment(0),
            )
            .unwrap();
        middle.install_cert(rc);
        let mut leaf =
            CertAuthority::new("Leaf", "rec-leaf", RepoUri::new("leaf.example", &["repo"]));
        let rc = middle
            .issue_cert("Leaf", leaf.public_key(), rs("10.1.0.0/20"), leaf.sia().clone(), Moment(0))
            .unwrap();
        leaf.install_cert(rc);
        // Two leaf ROAs: the target (needs 10.1.0.0/24) and a sibling
        // (needs 10.1.8.0/24).
        leaf.issue_roa(Asn(42), vec![RoaPrefix::exact(p("10.1.0.0/24"))], Moment(0)).unwrap();
        leaf.issue_roa(Asn(7), vec![RoaPrefix::exact(p("10.1.8.0/24"))], Moment(0)).unwrap();
        let tal = repos.publish_trust_anchor(&ta);
        let mut w = World { repos, ta, middle, leaf, tal };
        w.publish(Moment(1));
        w
    }

    fn publish(&mut self, now: Moment) {
        for ca in [&mut self.ta, &mut self.middle, &mut self.leaf] {
            assert!(self.repos.publish(ca, now));
        }
    }

    fn validate(&self, config: ValidationConfig) -> rpki_rp::ValidationRun {
        let mut source = DirectSource::new(&self.repos);
        Validator::new(config).run(&mut source, std::slice::from_ref(&self.tal))
    }

    /// The TA carves the target's /24 out of the MIDDLE certificate
    /// (not the leaf's — the leaf is two levels down).
    fn carve(&mut self, now: Moment) {
        let carved = rs("10.1.0.0/16").difference(&rs("10.1.0.0/24"));
        self.ta
            .issue_cert("Middle", self.middle.public_key(), carved, self.middle.sia().clone(), now)
            .unwrap();
        self.publish(now);
    }
}

#[test]
fn baseline_validates_under_both_policies() {
    let w = World::build();
    for config in [ValidationConfig::at(Moment(2)), ValidationConfig::reconsidered_at(Moment(2))] {
        let run = w.validate(config);
        assert_eq!(run.vrps.len(), 2, "{:?}", run.diagnostics);
        assert_eq!(run.cas.len(), 3);
    }
}

/// Under strict RFC 6487 semantics, the carve kills the *whole leaf
/// subtree*: the leaf's RC now over-claims (its /20 includes the carved
/// /24), so both ROAs die — massive collateral unless the manipulator
/// does make-before-break.
#[test]
fn strict_policy_kills_the_subtree() {
    let mut w = World::build();
    w.carve(Moment(2));
    let run = w.validate(ValidationConfig::at(Moment(3)));
    assert!(run.diagnostics.iter().any(|d| matches!(d.issue, Issue::OverClaim(_))));
    assert!(run.vrps.is_empty(), "{:?}", run.vrps);
}

/// Under RFC 8360 trimming, the same carve surgically kills exactly the
/// target ROA: the leaf's RC is trimmed (not rejected), the sibling ROA
/// survives — the whack needs NO make-before-break reissues and leaves
/// almost no trace.
#[test]
fn trim_policy_makes_the_whack_surgical() {
    let mut w = World::build();
    w.carve(Moment(2));
    let run = w.validate(ValidationConfig::reconsidered_at(Moment(3)));
    assert!(run.diagnostics.iter().any(|d| matches!(d.issue, Issue::TrimmedOverClaim(_))));
    assert_eq!(run.vrps, vec![Vrp::new(p("10.1.8.0/24"), 24, Asn(7))]);
    // The validated tree is intact all the way down.
    assert_eq!(run.cas.len(), 3);
}

/// Trimming is not a free lunch for defenders: a ROA that *partially*
/// needs trimmed space still dies whole (ROA prefixes must all be
/// covered), so the attack granularity is per-ROA either way.
#[test]
fn multi_prefix_roa_dies_whole_under_trim() {
    let mut w = World::build();
    // Replace the target with a two-prefix ROA spanning carved and
    // uncarved space.
    let file = w.leaf.issued_roas().find(|r| r.asn() == Asn(42)).unwrap().file_name();
    w.leaf.withdraw(&file).unwrap();
    w.leaf
        .issue_roa(
            Asn(42),
            vec![RoaPrefix::exact(p("10.1.0.0/24")), RoaPrefix::exact(p("10.1.9.0/24"))],
            Moment(2),
        )
        .unwrap();
    w.carve(Moment(3));
    let run = w.validate(ValidationConfig::reconsidered_at(Moment(4)));
    // AS42's ROA dies entirely even though 10.1.9.0/24 survived the
    // carve; the sibling lives.
    assert!(!run.vrps.iter().any(|v| v.asn == Asn(42)));
    assert!(run.vrps.iter().any(|v| v.asn == Asn(7)));
}

/// The defence argument for trimming (RFC 8360's motivation): an
/// *accidental* over-claim — here, a middle CA whose parent renewal
/// shrank for operational reasons — no longer takes down unrelated
/// customers.
#[test]
fn trim_policy_contains_accidental_overclaims() {
    let mut w = World::build();
    // The TA renews Middle's RC but forgets the upper half of its /16.
    w.ta.issue_cert(
        "Middle",
        w.middle.public_key(),
        rs("10.1.0.0/17"),
        w.middle.sia().clone(),
        Moment(2),
    )
    .unwrap();
    w.publish(Moment(2));
    // Strict: everything under Middle dies (the leaf RC's /20 is inside
    // the kept /17, so actually the leaf survives strict too — make the
    // mistake overlap the leaf: keep only the upper /17).
    w.ta.issue_cert(
        "Middle",
        w.middle.public_key(),
        rs("10.1.128.0/17"),
        w.middle.sia().clone(),
        Moment(3),
    )
    .unwrap();
    w.publish(Moment(3));
    let strict = w.validate(ValidationConfig::at(Moment(4)));
    assert!(strict.vrps.is_empty());
    let trim = w.validate(ValidationConfig::reconsidered_at(Moment(4)));
    // Under trim the leaf's effective resources are empty, so its ROAs
    // still die — trimming helps only when the lost space is unused.
    assert!(trim.vrps.is_empty());
    // But the tree itself (CAs) survives for monitoring/diagnosis.
    assert_eq!(trim.cas.len(), 3);
    assert!(trim.diagnostics.iter().any(|d| matches!(d.issue, Issue::TrimmedOverClaim(_))));
}
