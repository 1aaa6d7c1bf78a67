//! The manipulator's view of a descendant CA.
//!
//! Everything a whack planner needs is *public*: RPKI repositories are
//! world-readable, so a manipulator can enumerate exactly which objects
//! its descendants have issued and compute carve-outs offline. A
//! [`CaView`] is that public picture of one CA.

use ipres::ResourceSet;
use rpki_objects::{Decode, RepoUri, ResourceCert, Roa, RpkiObject};
use rpki_repo::RepoRegistry;
use rpkisim_crypto::PublicKey;

/// The public picture of one CA: its certificate (as published by its
/// parent) and the objects at its publication point.
#[derive(Debug, Clone)]
pub struct CaView {
    /// Subject handle, from the certificate (reporting only).
    pub handle: String,
    /// The CA's public key.
    pub subject_key: PublicKey,
    /// Resources its current certificate grants.
    pub resources: ResourceSet,
    /// Its publication directory.
    pub sia: RepoUri,
    /// Child certificates found at its publication point.
    pub child_certs: Vec<ResourceCert>,
    /// ROAs found at its publication point.
    pub roas: Vec<Roa>,
}

impl CaView {
    /// Builds the view of the CA certified by `cert`, reading its
    /// publication point from the world's repositories.
    pub fn from_repos(cert: &ResourceCert, repos: &RepoRegistry) -> CaView {
        let sia = cert.data().sia.clone();
        let mut child_certs = Vec::new();
        let mut roas = Vec::new();
        if let Some(repo) = repos.by_host(sia.host()) {
            for (name, _) in repo.list(&sia) {
                let Some(bytes) = repo.fetch(&sia, &name) else { continue };
                match RpkiObject::from_bytes(bytes) {
                    Ok(RpkiObject::Cert(c)) => child_certs.push(c),
                    Ok(RpkiObject::Roa(r)) => roas.push(r),
                    _ => {}
                }
            }
        }
        CaView {
            handle: cert.data().subject.clone(),
            subject_key: cert.data().subject_key,
            resources: cert.data().resources.clone(),
            sia,
            child_certs,
            roas,
        }
    }

    /// The ROAs (by file name) and child certs (by subject handle)
    /// whose resources overlap `space` — the objects damaged if `space`
    /// is carved away.
    pub fn overlapping(&self, space: &ResourceSet) -> (Vec<&Roa>, Vec<&ResourceCert>) {
        let roas = self.roas.iter().filter(|r| r.resources().overlaps(space)).collect();
        let certs =
            self.child_certs.iter().filter(|c| c.data().resources.overlaps(space)).collect();
        (roas, certs)
    }

    /// Finds a ROA at this publication point by file name.
    pub fn roa(&self, file_name: &str) -> Option<&Roa> {
        self.roas.iter().find(|r| r.file_name() == file_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ipres::{Asn, Prefix};
    use netsim::Network;
    use rpki_ca::CertAuthority;
    use rpki_objects::{Moment, RoaPrefix, Span};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn rs(s: &str) -> ResourceSet {
        ResourceSet::from_prefix_strs(s)
    }

    #[test]
    fn view_reads_publication_point() {
        let mut net = Network::new(0);
        let mut repos = RepoRegistry::new();
        repos.create(&mut net, "rpki.sprint.example");
        let dir = RepoUri::new("rpki.sprint.example", &["repo"]);

        let mut ta = CertAuthority::new("TA", "v-ta", RepoUri::new("rpki.ta.example", &["repo"]));
        ta.certify_self(rs("63.0.0.0/8"), Moment(0), Span::days(3650));
        let mut sprint = CertAuthority::new("Sprint", "v-sprint", dir.clone());
        let rc = ta
            .issue_cert("Sprint", sprint.public_key(), rs("63.160.0.0/12"), dir.clone(), Moment(0))
            .unwrap();
        sprint.install_cert(rc.clone());
        sprint.issue_roa(Asn(1239), vec![RoaPrefix::exact(p("63.160.0.0/20"))], Moment(0)).unwrap();
        let roa2 = sprint
            .issue_roa(Asn(7341), vec![RoaPrefix::exact(p("63.161.0.0/20"))], Moment(0))
            .unwrap();
        assert!(repos.publish(&mut sprint, Moment(1)));

        let view = CaView::from_repos(&rc, &repos);
        assert_eq!(view.handle, "Sprint");
        assert_eq!(view.roas.len(), 2);
        assert!(view.child_certs.is_empty());
        assert_eq!(view.resources, rs("63.160.0.0/12"));
        assert!(view.roa(&roa2.file_name()).is_some());
        assert!(view.roa("nope.roa").is_none());

        // Overlap queries.
        let (roas, certs) = view.overlapping(&rs("63.161.0.0/24"));
        assert_eq!(roas.len(), 1);
        assert_eq!(roas[0].asn(), Asn(7341));
        assert!(certs.is_empty());
        let (roas, _) = view.overlapping(&rs("63.170.0.0/16"));
        assert!(roas.is_empty());
    }

    #[test]
    fn view_of_unpublished_ca_is_empty() {
        let mut net = Network::new(0);
        let mut repos = RepoRegistry::new();
        repos.create(&mut net, "h");
        let mut ta = CertAuthority::new("TA", "v2-ta", RepoUri::new("h", &["ta"]));
        ta.certify_self(rs("10.0.0.0/8"), Moment(0), Span::days(10));
        let child = CertAuthority::new("C", "v2-c", RepoUri::new("absent.example", &["repo"]));
        let rc = ta
            .issue_cert("C", child.public_key(), rs("10.0.0.0/16"), child.sia().clone(), Moment(0))
            .unwrap();
        let view = CaView::from_repos(&rc, &repos);
        assert!(view.roas.is_empty());
        assert!(view.child_certs.is_empty());
    }
}
