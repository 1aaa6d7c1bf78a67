//! Resource certificates (RCs) and end-entity (EE) certificates.
//!
//! An RC binds a key to an *arbitrary set* of IP (and AS) resources —
//! the "fine-grained resource allocation" design decision whose side
//! effect (targeted whacking, Section 3.1) this workspace reproduces. An
//! authority may issue RCs for any subset of its own resources; chain
//! validation in `rpki-rp` enforces that containment hop by hop.
//!
//! EE certificates are the one-shot keys that sign ROAs and manifests
//! (the paper's footnote 3). They carry the resources the signed object
//! needs, and are themselves signed by the issuing CA.

use std::fmt;

use ipres::{AsnSet, ResourceSet};
use rpkisim_crypto::{KeyId, PublicKey};

use crate::codec::{Decode, DecodeError, Encode, Reader, Writer};
use crate::resenc::{resource_set_len, DIGEST_LEN, SIGNATURE_LEN};
use crate::signed::{Signed, ToBeSigned};
use crate::time::{Validity, VALIDITY_LEN};
use crate::uri::RepoUri;

/// The to-be-signed content of a resource certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertData {
    /// Issuer-assigned serial number, unique per issuer.
    pub serial: u64,
    /// Human-readable subject handle, e.g. `"Sprint"`. Used for
    /// reporting; trust derives from keys, never from this string.
    pub subject: String,
    /// The subject's public key.
    pub subject_key: PublicKey,
    /// IP resources allocated to the subject.
    pub resources: ResourceSet,
    /// AS resources allocated to the subject (RFC 3779 completeness;
    /// empty in most scenarios).
    pub as_resources: AsnSet,
    /// Validity window.
    pub validity: Validity,
    /// The issuing key (equals `subject_key.id()` for a trust anchor).
    pub issuer_key: KeyId,
    /// Subject Information Access: the directory where the *subject*
    /// publishes objects it issues.
    pub sia: RepoUri,
    /// CRL Distribution Point: where the *issuer* publishes the CRL
    /// governing this certificate. `None` only for trust anchors.
    pub crl_dp: Option<RepoUri>,
}

impl Encode for CertData {
    fn encode(&self, out: &mut Vec<u8>) {
        self.serial.encode(out);
        Writer::string(out, &self.subject);
        self.subject_key.encode(out);
        self.resources.encode(out);
        self.as_resources.encode(out);
        self.validity.encode(out);
        self.issuer_key.encode(out);
        self.sia.encode(out);
        self.crl_dp.encode(out);
    }
}

impl Decode for CertData {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(CertData {
            serial: r.u64()?,
            subject: r.string()?,
            subject_key: PublicKey::decode(r)?,
            resources: ResourceSet::decode(r)?,
            as_resources: AsnSet::decode(r)?,
            validity: Validity::decode(r)?,
            issuer_key: KeyId::decode(r)?,
            sia: RepoUri::decode(r)?,
            crl_dp: Option::<RepoUri>::decode(r)?,
        })
    }
}

impl ToBeSigned for CertData {
    const NAME: &'static str = "ResourceCert";

    fn issuer_key(&self) -> KeyId {
        self.issuer_key
    }
}

/// A signed resource certificate.
pub type ResourceCert = Signed<CertData>;

impl ResourceCert {
    /// The subject's key id (RFC 6487 names published certs by it).
    pub fn subject_key_id(&self) -> KeyId {
        self.data().subject_key.id()
    }

    /// Whether this is a self-signed (trust anchor) certificate.
    pub fn is_self_signed(&self) -> bool {
        self.data().issuer_key == self.data().subject_key.id()
    }

    /// Canonical file name at the issuer's publication point:
    /// `<subject-key-id>.cer`. Reissuing a certificate for the same
    /// subject key *overwrites* the old one — the "objects can be
    /// overwritten" design decision behind Side Effect 2.
    pub fn file_name(&self) -> String {
        format!("{}.cer", self.subject_key_id().short())
    }
}

impl fmt::Display for ResourceCert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "RC[{} serial={} key={} res={}]",
            self.data().subject,
            self.data().serial,
            self.subject_key_id().short(),
            self.data().resources
        )
    }
}

/// The to-be-signed content of an end-entity certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EeCertData {
    /// Issuer-assigned serial, drawn from the same space as RC serials
    /// (so one CRL covers both).
    pub serial: u64,
    /// The one-time-use EE key.
    pub subject_key: PublicKey,
    /// The resources the signed object may speak for.
    pub resources: ResourceSet,
    /// Validity window (the signed object inherits it).
    pub validity: Validity,
    /// The issuing CA's key.
    pub issuer_key: KeyId,
}

impl Encode for EeCertData {
    fn encode(&self, out: &mut Vec<u8>) {
        self.serial.encode(out);
        self.subject_key.encode(out);
        self.resources.encode(out);
        self.validity.encode(out);
        self.issuer_key.encode(out);
    }
}

impl Decode for EeCertData {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(EeCertData {
            serial: r.u64()?,
            subject_key: PublicKey::decode(r)?,
            resources: ResourceSet::decode(r)?,
            validity: Validity::decode(r)?,
            issuer_key: KeyId::decode(r)?,
        })
    }
}

impl ToBeSigned for EeCertData {
    const NAME: &'static str = "EeCert";

    fn issuer_key(&self) -> KeyId {
        self.issuer_key
    }
}

/// A signed end-entity certificate.
pub type EeCert = Signed<EeCertData>;

impl EeCert {
    /// The exact length of this certificate's encoding, computed from its
    /// fields: where a ROA's content starts in the ROA's encoding.
    pub fn encoded_len(&self) -> usize {
        // Serial, subject key, resources, validity, issuer key: the
        // fields `EeCertData` encodes, in order; then the signature.
        size_of::<u64>()
            + DIGEST_LEN
            + resource_set_len(&self.data().resources)
            + VALIDITY_LEN
            + DIGEST_LEN
            + SIGNATURE_LEN
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::{Moment, Span};
    use ipres::Asn;
    use rpkisim_crypto::KeyPair;

    fn sample_data(issuer: &KeyPair, subject: &KeyPair) -> CertData {
        CertData {
            serial: 7,
            subject: "Sprint".to_owned(),
            subject_key: subject.public(),
            resources: ResourceSet::from_prefix_strs("63.160.0.0/12, 208.0.0.0/11"),
            as_resources: [Asn(1239)].into_iter().collect(),
            validity: Validity::starting(Moment(0), Span::days(365)),
            issuer_key: issuer.id(),
            sia: RepoUri::new("rpki.sprint.example", &["repo"]),
            crl_dp: Some(RepoUri::new("rpki.arin.example", &["repo", "arin.crl"])),
        }
    }

    #[test]
    fn sign_verify_round_trip() {
        let arin = KeyPair::from_seed("arin");
        let sprint = KeyPair::from_seed("sprint");
        let cert = ResourceCert::sign(sample_data(&arin, &sprint), &arin);
        assert_eq!(cert.verify(&arin.public()), Ok(()));
        assert!(cert.verify(&sprint.public()).is_err());
        assert!(!cert.is_self_signed());
    }

    #[test]
    fn self_signed_trust_anchor() {
        let iana = KeyPair::from_seed("iana");
        let mut data = sample_data(&iana, &iana);
        data.subject = "IANA".to_owned();
        data.crl_dp = None;
        let ta = ResourceCert::sign(data, &iana);
        assert!(ta.is_self_signed());
        assert_eq!(ta.verify(&iana.public()), Ok(()));
    }

    #[test]
    fn codec_round_trip() {
        let arin = KeyPair::from_seed("arin");
        let sprint = KeyPair::from_seed("sprint");
        let cert = ResourceCert::sign(sample_data(&arin, &sprint), &arin);
        let decoded = ResourceCert::from_bytes(&cert.to_bytes()).unwrap();
        assert_eq!(decoded, cert);
        // Decoded certs still verify (the signature covers CertData bytes).
        assert_eq!(decoded.verify(&arin.public()), Ok(()));
    }

    #[test]
    fn tampered_bytes_fail_verification() {
        let arin = KeyPair::from_seed("arin");
        let sprint = KeyPair::from_seed("sprint");
        let cert = ResourceCert::sign(sample_data(&arin, &sprint), &arin);
        let bytes = cert.to_bytes();
        // Flip every byte in turn. A structural break is detection too;
        // whatever still decodes must fail its check over the bytes that
        // arrived, as it fails the check over its re-encoding.
        let mut decoded = 0;
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0xff;
            if let Ok(tampered) = ResourceCert::from_bytes(&b) {
                decoded += 1;
                let verdict = tampered.verify_encoded(&b, &arin.public());
                assert!(verdict.is_err(), "byte {i} corruption slipped through");
                assert_eq!(verdict, tampered.verify(&arin.public()), "byte {i}");
            }
        }
        // At least every flip inside the signature decodes.
        assert!(decoded >= SIGNATURE_LEN, "only {decoded} flips decoded");
    }

    #[test]
    fn file_name_follows_subject_key() {
        let arin = KeyPair::from_seed("arin");
        let sprint = KeyPair::from_seed("sprint");
        let cert = ResourceCert::sign(sample_data(&arin, &sprint), &arin);
        assert_eq!(cert.file_name(), format!("{}.cer", sprint.id().short()));
        // A reissued cert for the same subject key keeps the same name.
        let mut data2 = sample_data(&arin, &sprint);
        data2.serial = 8;
        data2.resources = ResourceSet::from_prefix_strs("63.160.0.0/12");
        let cert2 = ResourceCert::sign(data2, &arin);
        assert_eq!(cert.file_name(), cert2.file_name());
    }

    #[test]
    fn ee_cert_round_trip() {
        let sprint = KeyPair::from_seed("sprint");
        let ee = KeyPair::from_seed("ee-1");
        let data = EeCertData {
            serial: 21,
            subject_key: ee.public(),
            resources: ResourceSet::from_prefix_strs("63.174.16.0/20"),
            validity: Validity::starting(Moment(0), Span::days(90)),
            issuer_key: sprint.id(),
        };
        let cert = EeCert::sign(data, &sprint);
        assert_eq!(cert.verify(&sprint.public()), Ok(()));
        let decoded = EeCert::from_bytes(&cert.to_bytes()).unwrap();
        assert_eq!(decoded, cert);
    }

    #[test]
    #[should_panic(expected = "issuer key mismatch")]
    fn signing_with_wrong_key_panics() {
        let arin = KeyPair::from_seed("arin");
        let sprint = KeyPair::from_seed("sprint");
        let ripe = KeyPair::from_seed("ripe");
        let _ = ResourceCert::sign(sample_data(&arin, &sprint), &ripe);
    }
}
