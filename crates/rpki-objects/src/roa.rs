//! Route Origin Authorizations (RFC 6482-shaped).
//!
//! A ROA authorises one AS to originate a prefix — and, via the
//! `maxLength` field, its subprefixes up to a bound. The paper's
//! Figure 2 shows Sprint issuing `(63.160.64.0/20-24, AS1239)`: AS1239
//! may originate the /20 and anything down to /24 inside it.
//!
//! A ROA is signed by a one-time-use EE key whose certificate the CA
//! signs (footnote 3 of the paper); both layers are modelled so that
//! chain validation, revocation-by-serial, and resource containment all
//! behave as in production.

use std::fmt;

use ipres::{Asn, Prefix, ResourceSet};
use rpkisim_crypto::{KeyPair, PublicKey, Signature, SignatureError};

use crate::cert::{EeCert, EeCertData};
use crate::codec::{Decode, DecodeError, Encode, Reader};
use crate::resenc::signed_span;
use crate::time::Validity;

/// One authorised prefix inside a ROA.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RoaPrefix {
    /// The authorised prefix.
    pub prefix: Prefix,
    /// Maximum length of subprefixes the origin may announce. `None`
    /// means "exactly the prefix" (effective max = prefix length).
    pub max_len: Option<u8>,
}

impl RoaPrefix {
    /// A ROA prefix with no subprefix allowance.
    pub fn exact(prefix: Prefix) -> Self {
        RoaPrefix { prefix, max_len: None }
    }

    /// A ROA prefix allowing subprefixes up to `max_len`.
    ///
    /// # Panics
    ///
    /// Panics if `max_len` is shorter than the prefix or longer than the
    /// family width.
    pub fn up_to(prefix: Prefix, max_len: u8) -> Self {
        assert!(
            max_len >= prefix.len() && max_len <= prefix.family().bits(),
            "maxLength {max_len} out of range for {prefix}"
        );
        RoaPrefix { prefix, max_len: Some(max_len) }
    }

    /// The effective maximum length.
    pub fn effective_max_len(&self) -> u8 {
        self.max_len.unwrap_or_else(|| self.prefix.len())
    }
}

impl fmt::Display for RoaPrefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.max_len {
            Some(m) => write!(f, "{}-{}", self.prefix, m),
            None => write!(f, "{}", self.prefix),
        }
    }
}

impl Encode for RoaPrefix {
    fn encode(&self, out: &mut Vec<u8>) {
        self.prefix.encode(out);
        self.max_len.encode(out);
    }
}

impl Decode for RoaPrefix {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let prefix = Prefix::decode(r)?;
        let max_len = Option::<u8>::decode(r)?;
        if let Some(m) = max_len {
            if m < prefix.len() || m > prefix.family().bits() {
                return Err(DecodeError::Invalid("ROA maxLength out of range"));
            }
        }
        Ok(RoaPrefix { prefix, max_len })
    }
}

/// The to-be-signed ROA content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RoaData {
    /// The AS authorised to originate.
    pub asn: Asn,
    /// The authorised prefixes.
    pub prefixes: Vec<RoaPrefix>,
}

impl Encode for RoaData {
    fn encode(&self, out: &mut Vec<u8>) {
        self.asn.encode(out);
        self.prefixes.encode(out);
    }
}

impl Decode for RoaData {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(RoaData { asn: Asn::decode(r)?, prefixes: Vec::<RoaPrefix>::decode(r)? })
    }
}

/// A complete signed ROA: EE certificate + content + EE signature.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Roa {
    ee: EeCert,
    data: RoaData,
    signature: Signature,
}

/// Why a ROA failed its self-contained checks (chain checks live in
/// `rpki-rp`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RoaError {
    /// The CA's signature on the EE certificate failed.
    EeSignature(SignatureError),
    /// The EE key's signature over the ROA content failed.
    ContentSignature(SignatureError),
    /// A ROA prefix is not covered by the EE certificate's resources.
    PrefixOutsideEe(Prefix),
}

impl fmt::Display for RoaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RoaError::EeSignature(e) => write!(f, "EE certificate signature: {e}"),
            RoaError::ContentSignature(e) => write!(f, "ROA content signature: {e}"),
            RoaError::PrefixOutsideEe(p) => write!(f, "ROA prefix {p} outside EE resources"),
        }
    }
}

impl std::error::Error for RoaError {}

impl Roa {
    /// Issues a ROA: mints the EE certificate with exactly the resources
    /// the ROA needs, then signs the content with the EE key.
    ///
    /// `ee_key` must be freshly generated per ROA (one-time use); the CA
    /// engine enforces that.
    pub fn issue(
        data: RoaData,
        serial: u64,
        validity: Validity,
        issuer: &KeyPair,
        ee_key: &KeyPair,
    ) -> Self {
        let resources = ResourceSet::from_prefixes(data.prefixes.iter().map(|rp| rp.prefix));
        let ee = EeCert::sign(
            EeCertData {
                serial,
                subject_key: ee_key.public(),
                resources,
                validity,
                issuer_key: issuer.id(),
            },
            issuer,
        );
        let signature = ee_key.sign(&data.to_bytes());
        Roa { ee, data, signature }
    }

    /// The embedded EE certificate.
    pub fn ee(&self) -> &EeCert {
        &self.ee
    }

    /// The ROA content.
    pub fn data(&self) -> &RoaData {
        &self.data
    }

    /// The authorised origin AS.
    pub fn asn(&self) -> Asn {
        self.data.asn
    }

    /// The validity window (inherited from the EE certificate).
    pub fn validity(&self) -> Validity {
        self.ee.data().validity
    }

    /// The EE serial (what a CRL revokes).
    pub fn serial(&self) -> u64 {
        self.ee.data().serial
    }

    /// The union of the ROA's prefixes as a resource set.
    pub fn resources(&self) -> ResourceSet {
        ResourceSet::from_prefixes(self.data.prefixes.iter().map(|rp| rp.prefix))
    }

    /// Self-contained verification against the issuing CA's public key:
    /// EE cert signature, content signature, and prefix-in-EE
    /// containment. Chain and revocation checks are the relying party's
    /// job.
    pub fn verify(&self, issuer_key: &PublicKey) -> Result<(), RoaError> {
        self.verify_encoded(&self.to_bytes(), issuer_key)
    }

    /// [`Roa::verify`] over `encoded`, the bytes this ROA was decoded
    /// from: the EE certificate's signature over its to-be-signed span,
    /// and the content signature over the [`RoaData`] span after it.
    pub fn verify_encoded(&self, encoded: &[u8], issuer_key: &PublicKey) -> Result<(), RoaError> {
        let (ee, content) = encoded.split_at(self.ee.encoded_len().min(encoded.len()));
        self.ee.verify_encoded(ee, issuer_key).map_err(RoaError::EeSignature)?;
        self.ee
            .data()
            .subject_key
            .verify(signed_span(content), &self.signature)
            .map_err(RoaError::ContentSignature)?;
        for rp in &self.data.prefixes {
            if !self.ee.data().resources.contains_prefix(rp.prefix) {
                return Err(RoaError::PrefixOutsideEe(rp.prefix));
            }
        }
        Ok(())
    }

    /// Canonical file name at the issuer's publication point:
    /// `<ee-key-id>.roa`.
    pub fn file_name(&self) -> String {
        format!("{}.roa", self.ee.data().subject_key.id().short())
    }
}

impl Encode for Roa {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ee.encode(out);
        self.data.encode(out);
        self.signature.encode(out);
    }
}

impl Decode for Roa {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Roa {
            ee: EeCert::decode(r)?,
            data: RoaData::decode(r)?,
            signature: Signature::decode(r)?,
        })
    }
}

impl fmt::Display for Roa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let prefixes: Vec<String> = self.data.prefixes.iter().map(|p| p.to_string()).collect();
        write!(f, "ROA[({}, {})]", prefixes.join(" "), self.data.asn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resenc::SIGNATURE_LEN;
    use crate::time::{Moment, Span};

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    fn issue_sample() -> (KeyPair, Roa) {
        let sprint = KeyPair::from_seed("sprint");
        let ee = KeyPair::from_seed("ee-roa-1");
        let roa = Roa::issue(
            RoaData { asn: Asn(1239), prefixes: vec![RoaPrefix::up_to(p("63.160.64.0/20"), 24)] },
            100,
            Validity::starting(Moment(0), Span::days(90)),
            &sprint,
            &ee,
        );
        (sprint, roa)
    }

    #[test]
    fn issue_and_verify() {
        let (sprint, roa) = issue_sample();
        assert_eq!(roa.verify(&sprint.public()), Ok(()));
        assert_eq!(roa.asn(), Asn(1239));
        assert_eq!(roa.serial(), 100);
    }

    #[test]
    fn verify_rejects_wrong_issuer() {
        let (_, roa) = issue_sample();
        let other = KeyPair::from_seed("not-sprint");
        assert!(matches!(roa.verify(&other.public()), Err(RoaError::EeSignature(_))));
    }

    #[test]
    fn codec_round_trip_preserves_verifiability() {
        let (sprint, roa) = issue_sample();
        let decoded = Roa::from_bytes(&roa.to_bytes()).unwrap();
        assert_eq!(decoded, roa);
        assert_eq!(decoded.verify(&sprint.public()), Ok(()));
    }

    #[test]
    fn corrupted_bytes_detected() {
        let (sprint, roa) = issue_sample();
        let bytes = roa.to_bytes();
        let ee_len = roa.ee().encoded_len();
        // Corrupt every byte position in turn; each corruption must be
        // caught structurally or cryptographically, over the bytes that
        // arrived, and by the signature whose span holds the byte: the EE
        // certificate's up to `ee_len`, the content's after it. An
        // off-by-one in either span shows up at its boundary.
        let mut decoded = 0;
        for i in 0..bytes.len() {
            let mut b = bytes.clone();
            b[i] ^= 0xff;
            let Ok(r) = Roa::from_bytes(&b) else { continue };
            decoded += 1;
            let verdict = r.verify_encoded(&b, &sprint.public());
            assert_eq!(verdict, r.verify(&sprint.public()), "byte {i}");
            match verdict {
                Err(RoaError::EeSignature(_)) if i < ee_len => {}
                Err(RoaError::ContentSignature(_)) if i >= ee_len => {}
                other => panic!("byte {i} of {ee_len}-byte EE certificate: {other:?}"),
            }
        }
        // At least every flip inside the two signatures decodes.
        assert!(decoded >= 2 * SIGNATURE_LEN, "only {decoded} flips decoded");
    }

    #[test]
    fn roa_prefix_display() {
        assert_eq!(RoaPrefix::up_to(p("63.160.64.0/20"), 24).to_string(), "63.160.64.0/20-24");
        assert_eq!(RoaPrefix::exact(p("63.174.16.0/22")).to_string(), "63.174.16.0/22");
    }

    #[test]
    fn decode_rejects_bad_max_len() {
        let rp = RoaPrefix::up_to(p("10.0.0.0/24"), 28);
        let mut bytes = rp.to_bytes();
        // The maxLength byte is the final one; set it below prefix len.
        *bytes.last_mut().unwrap() = 8;
        assert!(matches!(RoaPrefix::from_bytes(&bytes), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn resources_union_all_prefixes() {
        let sprint = KeyPair::from_seed("sprint");
        let ee = KeyPair::from_seed("ee-roa-2");
        let roa = Roa::issue(
            RoaData {
                asn: Asn(7341),
                prefixes: vec![
                    RoaPrefix::exact(p("63.17.16.0/22")),
                    RoaPrefix::exact(p("63.17.20.0/22")),
                ],
            },
            7,
            Validity::starting(Moment(0), Span::days(30)),
            &sprint,
            &ee,
        );
        assert_eq!(roa.resources(), ResourceSet::from_prefix_strs("63.17.16.0/21"));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn up_to_rejects_short_max() {
        let _ = RoaPrefix::up_to(p("10.0.0.0/24"), 20);
    }
}
