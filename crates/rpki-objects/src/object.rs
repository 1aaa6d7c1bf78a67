//! The tagged union of publishable RPKI objects, and trust anchor
//! locators.
//!
//! Repositories store raw bytes keyed by file name; [`RpkiObject`]
//! provides the type-tagged wire form so a relying party can decode
//! whatever it fetched. A [`TrustAnchorLocator`] is the out-of-band
//! bootstrap a relying party is configured with: where the self-signed
//! root certificate lives and what key it must carry.

use std::fmt;

use rpkisim_crypto::{sha256, Digest, PublicKey};

use crate::cert::ResourceCert;
use crate::codec::{Decode, DecodeError, Encode, Reader};
use crate::crl::Crl;
use crate::manifest::Manifest;
use crate::roa::Roa;
use crate::uri::RepoUri;

/// Any object that can appear at a publication point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RpkiObject {
    /// A resource certificate (CA certificate).
    Cert(ResourceCert),
    /// A route origin authorization.
    Roa(Roa),
    /// A certificate revocation list.
    Crl(Crl),
    /// A manifest.
    Manifest(Manifest),
}

/// Encoded width of the kind tag ahead of every object.
const TAG_LEN: usize = size_of::<u8>();
const TAG_CERT: u8 = 1;
const TAG_ROA: u8 = 2;
const TAG_CRL: u8 = 3;
const TAG_MFT: u8 = 4;

impl RpkiObject {
    /// The object's canonical file name at its publication point.
    pub fn file_name(&self) -> String {
        match self {
            RpkiObject::Cert(c) => c.file_name(),
            RpkiObject::Roa(r) => r.file_name(),
            RpkiObject::Crl(c) => c.file_name(),
            RpkiObject::Manifest(m) => m.file_name(),
        }
    }

    /// A short kind label for reports.
    pub fn kind(&self) -> &'static str {
        match self {
            RpkiObject::Cert(_) => "cer",
            RpkiObject::Roa(_) => "roa",
            RpkiObject::Crl(_) => "crl",
            RpkiObject::Manifest(_) => "mft",
        }
    }

    /// SHA-256 of the canonical bytes (what manifests commit to).
    pub fn digest(&self) -> Digest {
        sha256(&self.to_bytes())
    }

    /// The encoding of the object inside `encoded`, a tagged encoding
    /// this type decoded: everything after the kind tag. It is what the
    /// object's own `verify_encoded` checks.
    pub fn untagged(encoded: &[u8]) -> &[u8] {
        encoded.get(TAG_LEN..).unwrap_or_default()
    }
}

impl Encode for RpkiObject {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RpkiObject::Cert(c) => {
                out.push(TAG_CERT);
                c.encode(out);
            }
            RpkiObject::Roa(r) => {
                out.push(TAG_ROA);
                r.encode(out);
            }
            RpkiObject::Crl(c) => {
                out.push(TAG_CRL);
                c.encode(out);
            }
            RpkiObject::Manifest(m) => {
                out.push(TAG_MFT);
                m.encode(out);
            }
        }
    }
}

impl Decode for RpkiObject {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            TAG_CERT => Ok(RpkiObject::Cert(ResourceCert::decode(r)?)),
            TAG_ROA => Ok(RpkiObject::Roa(Roa::decode(r)?)),
            TAG_CRL => Ok(RpkiObject::Crl(Crl::decode(r)?)),
            TAG_MFT => Ok(RpkiObject::Manifest(Manifest::decode(r)?)),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl fmt::Display for RpkiObject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RpkiObject::Cert(c) => c.fmt(f),
            RpkiObject::Roa(r) => r.fmt(f),
            RpkiObject::Crl(c) => c.fmt(f),
            RpkiObject::Manifest(m) => m.fmt(f),
        }
    }
}

/// A trust anchor locator: the relying party's out-of-band root of
/// trust (RFC 7730-shaped). It pins the *key*, so a repository cannot
/// swap in a different root.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrustAnchorLocator {
    /// Where the self-signed root certificate is published.
    pub uri: RepoUri,
    /// The root key the fetched certificate must carry.
    pub key: PublicKey,
}

impl TrustAnchorLocator {
    /// A TAL for a given root certificate location and key.
    pub fn new(uri: RepoUri, key: PublicKey) -> Self {
        TrustAnchorLocator { uri, key }
    }

    /// Checks a fetched certificate against this TAL: self-signed, key
    /// matches, signature verifies.
    pub fn accepts(&self, cert: &ResourceCert) -> bool {
        self.accepts_encoded(cert, &cert.to_bytes())
    }

    /// [`TrustAnchorLocator::accepts`], with the signature checked over
    /// `encoded`, the bytes `cert` was decoded from.
    pub fn accepts_encoded(&self, cert: &ResourceCert, encoded: &[u8]) -> bool {
        cert.is_self_signed()
            && cert.data().subject_key == self.key
            && cert.verify_encoded(encoded, &self.key).is_ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cert::CertData;
    use crate::crl::CrlData;
    use crate::manifest::ManifestData;
    use crate::roa::{RoaData, RoaPrefix};
    use crate::time::{Moment, Span, Validity};
    use ipres::{Asn, AsnSet, ResourceSet};
    use rpkisim_crypto::KeyPair;

    fn sample_cert() -> (KeyPair, ResourceCert) {
        let iana = KeyPair::from_seed("obj-iana");
        let cert = ResourceCert::sign(
            CertData {
                serial: 1,
                subject: "IANA".to_owned(),
                subject_key: iana.public(),
                resources: ResourceSet::from_prefix_strs("0.0.0.0/0"),
                as_resources: AsnSet::empty(),
                validity: Validity::starting(Moment(0), Span::days(3650)),
                issuer_key: iana.id(),
                sia: RepoUri::new("rpki.iana.example", &["repo"]),
                crl_dp: None,
            },
            &iana,
        );
        (iana, cert)
    }

    #[test]
    fn tagged_round_trip_all_kinds() {
        let (iana, cert) = sample_cert();
        let ee = KeyPair::from_seed("obj-ee");
        let roa = Roa::issue(
            RoaData {
                asn: Asn(1),
                prefixes: vec![RoaPrefix::exact("10.0.0.0/8".parse().unwrap())],
            },
            2,
            Validity::starting(Moment(0), Span::days(30)),
            &iana,
            &ee,
        );
        let crl = Crl::sign(
            CrlData {
                issuer_key: iana.id(),
                number: 1,
                this_update: Moment(0),
                next_update: Moment(10),
                revoked: vec![],
            },
            &iana,
        );
        let mft = Manifest::sign(
            ManifestData {
                issuer_key: iana.id(),
                number: 1,
                this_update: Moment(0),
                next_update: Moment(10),
                entries: vec![],
            },
            &iana,
        );
        for obj in [
            RpkiObject::Cert(cert),
            RpkiObject::Roa(roa),
            RpkiObject::Crl(crl),
            RpkiObject::Manifest(mft),
        ] {
            let decoded = RpkiObject::from_bytes(&obj.to_bytes()).unwrap();
            assert_eq!(decoded, obj);
            assert_eq!(decoded.file_name(), obj.file_name());
            assert_eq!(decoded.digest(), obj.digest());
        }
    }

    #[test]
    fn bad_tag_rejected() {
        assert_eq!(RpkiObject::from_bytes(&[0x7f]), Err(DecodeError::BadTag(0x7f)));
    }

    #[test]
    fn digest_changes_with_content() {
        let (_, cert) = sample_cert();
        let obj = RpkiObject::Cert(cert);
        let mut bytes = obj.to_bytes();
        let d1 = sha256(&bytes);
        bytes[10] ^= 1;
        assert_ne!(sha256(&bytes), d1);
    }

    #[test]
    fn tal_accepts_only_matching_root() {
        let (iana, cert) = sample_cert();
        let tal = TrustAnchorLocator::new(
            RepoUri::new("rpki.iana.example", &["repo", "root.cer"]),
            iana.public(),
        );
        assert!(tal.accepts(&cert));
        // A different self-signed root is rejected by key pinning.
        let evil = KeyPair::from_seed("obj-evil");
        let evil_cert = ResourceCert::sign(
            CertData {
                serial: 1,
                subject: "IANA".to_owned(), // name spoofing is useless
                subject_key: evil.public(),
                resources: ResourceSet::from_prefix_strs("0.0.0.0/0"),
                as_resources: AsnSet::empty(),
                validity: Validity::starting(Moment(0), Span::days(3650)),
                issuer_key: evil.id(),
                sia: RepoUri::new("rpki.iana.example", &["repo"]),
                crl_dp: None,
            },
            &evil,
        );
        assert!(!tal.accepts(&evil_cert));
    }

    #[test]
    fn tal_rejects_non_self_signed() {
        let (iana, _) = sample_cert();
        let child = KeyPair::from_seed("obj-child");
        let cert = ResourceCert::sign(
            CertData {
                serial: 2,
                subject: "Child".to_owned(),
                subject_key: child.public(),
                resources: ResourceSet::from_prefix_strs("10.0.0.0/8"),
                as_resources: AsnSet::empty(),
                validity: Validity::starting(Moment(0), Span::days(365)),
                issuer_key: iana.id(),
                sia: RepoUri::new("rpki.child.example", &["repo"]),
                crl_dp: Some(RepoUri::new("rpki.iana.example", &["repo", "x.crl"])),
            },
            &iana,
        );
        let tal = TrustAnchorLocator::new(
            RepoUri::new("rpki.child.example", &["repo", "x.cer"]),
            child.public(),
        );
        assert!(!tal.accepts(&cert));
    }
}
