//! Certificate revocation lists (RFC 5280/6487-shaped).
//!
//! Revocation is the *transparent* whacking mechanism: a CRL is a
//! signed, public list of revoked serials, so relying parties (and the
//! monitoring schemes in `rpki-attacks`) can observe abusive
//! revocations. The paper's Side Effect 2 is precisely that the RPKI
//! also admits *stealthier* alternatives (deletion, overwriting) that
//! bypass this audit trail.

use std::fmt;

use rpkisim_crypto::KeyId;

use crate::codec::{Decode, DecodeError, Encode, Reader};
use crate::signed::{Signed, ToBeSigned};
use crate::time::{Moment, UpdateWindow, Validity};

const INVERTED: &str = "CRL update window inverted";

/// The to-be-signed CRL content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrlData {
    /// The issuing CA's key.
    pub issuer_key: KeyId,
    /// Monotonically increasing CRL number.
    pub number: u64,
    /// When this CRL was produced.
    pub this_update: Moment,
    /// When the next CRL is due; a relying party treats a CRL past this
    /// moment as stale.
    pub next_update: Moment,
    /// Revoked serial numbers (sorted, deduplicated).
    pub revoked: Vec<u64>,
}

impl Encode for CrlData {
    fn encode(&self, out: &mut Vec<u8>) {
        self.issuer_key.encode(out);
        self.number.encode(out);
        self.this_update.encode(out);
        self.next_update.encode(out);
        self.revoked.encode(out);
    }
}

impl Decode for CrlData {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let data = CrlData {
            issuer_key: KeyId::decode(r)?,
            number: r.u64()?,
            this_update: Moment::decode(r)?,
            next_update: Moment::decode(r)?,
            revoked: Vec::<u64>::decode(r)?,
        };
        data.window().checked(INVERTED)?;
        if data.revoked.windows(2).any(|w| w[0] >= w[1]) {
            return Err(DecodeError::Invalid("CRL serials not sorted-unique"));
        }
        Ok(data)
    }
}

impl ToBeSigned for CrlData {
    const NAME: &'static str = "Crl";

    fn issuer_key(&self) -> KeyId {
        self.issuer_key
    }

    /// Sorts and deduplicates the serials.
    ///
    /// # Panics
    ///
    /// Panics on an inverted update window.
    fn canonicalise(&mut self) {
        assert!(self.window().checked(INVERTED).is_ok(), "{INVERTED}");
        self.revoked.sort_unstable();
        self.revoked.dedup();
    }
}

impl UpdateWindow for CrlData {
    fn window(&self) -> Validity {
        Validity { not_before: self.this_update, not_after: self.next_update }
    }
}

/// A signed CRL.
pub type Crl = Signed<CrlData>;

impl Crl {
    /// Whether `serial` is revoked by this CRL.
    pub fn is_revoked(&self, serial: u64) -> bool {
        self.data().revoked.binary_search(&serial).is_ok()
    }

    /// Canonical file name: `<issuer-key-id>.crl`.
    pub fn file_name(&self) -> String {
        format!("{}.crl", self.data().issuer_key.short())
    }
}

impl fmt::Display for Crl {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "CRL[{} #{} revoked={:?}]",
            self.data().issuer_key.short(),
            self.data().number,
            self.data().revoked
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::resenc::SIGNATURE_LEN;
    use rpkisim_crypto::KeyPair;

    fn sample(issuer: &KeyPair) -> Crl {
        Crl::sign(
            CrlData {
                issuer_key: issuer.id(),
                number: 3,
                this_update: Moment(100),
                next_update: Moment(100 + 86_400),
                revoked: vec![9, 4, 9, 1],
            },
            issuer,
        )
    }

    #[test]
    fn sign_canonicalises_and_verifies() {
        let ca = KeyPair::from_seed("crl-ca");
        let crl = sample(&ca);
        assert_eq!(crl.data().revoked, vec![1, 4, 9]);
        assert_eq!(crl.verify(&ca.public()), Ok(()));
        assert!(crl.is_revoked(4));
        assert!(!crl.is_revoked(2));
    }

    #[test]
    fn staleness() {
        let ca = KeyPair::from_seed("crl-ca");
        let crl = sample(&ca);
        assert!(!crl.is_stale_at(Moment(100 + 86_400)));
        assert!(crl.is_stale_at(Moment(101 + 86_400)));
    }

    #[test]
    fn codec_round_trip() {
        let ca = KeyPair::from_seed("crl-ca");
        let crl = sample(&ca);
        let decoded = Crl::from_bytes(&crl.to_bytes()).unwrap();
        assert_eq!(decoded, crl);
        assert_eq!(decoded.verify(&ca.public()), Ok(()));
    }

    #[test]
    fn decode_rejects_unsorted_serials() {
        let ca = KeyPair::from_seed("crl-ca");
        let crl = sample(&ca);
        let mut bytes = crl.to_bytes();
        // The serial list is the last CrlData field before the
        // signature; swap the first two serials (each 8 bytes, after a
        // 4-byte count). Locate from the end, before the signature.
        let sig_start = bytes.len() - SIGNATURE_LEN;
        let serials_start = sig_start - 3 * 8;
        bytes.swap(serials_start + 7, serials_start + 15);
        assert!(Crl::from_bytes(&bytes).is_err());
    }

    #[test]
    fn empty_crl_is_valid() {
        let ca = KeyPair::from_seed("crl-ca");
        let crl = Crl::sign(
            CrlData {
                issuer_key: ca.id(),
                number: 1,
                this_update: Moment(0),
                next_update: Moment(10),
                revoked: vec![],
            },
            &ca,
        );
        assert_eq!(crl.verify(&ca.public()), Ok(()));
        assert!(!crl.is_revoked(0));
    }
}
