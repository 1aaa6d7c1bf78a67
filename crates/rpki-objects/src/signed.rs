//! The one signing envelope every signed RPKI object shares.
//!
//! A resource certificate, an EE certificate, a CRL and a manifest are
//! each a [`Signed`] value: to-be-signed content, then the issuer's
//! [`Signature`] over the content's encoding. Signing, the signature
//! checks and the wire form are written here once; what differs per
//! object — which key must sign, what canonical form the content takes,
//! the name it prints under — is the [`ToBeSigned`] content's to say.

use std::fmt;

use rpkisim_crypto::{KeyId, KeyPair, PublicKey, Signature, SignatureError};

use crate::codec::{Decode, DecodeError, Encode, Reader};
use crate::resenc::signed_span;

/// The content a [`Signed`] envelope carries.
pub trait ToBeSigned: Encode + Decode {
    /// The signed object's type name, which its `Debug` output prints.
    const NAME: &'static str;

    /// The key that must sign this content.
    fn issuer_key(&self) -> KeyId;

    /// Brings the content into its one canonical form before signing.
    /// Panics on content no authority signs (a fixture bug, not a
    /// simulated attack). The default changes nothing.
    fn canonicalise(&mut self) {}
}

/// Signed content: `data`, then its issuer's signature over the
/// encoding of `data`.
#[derive(Clone, PartialEq, Eq)]
pub struct Signed<T> {
    data: T,
    signature: Signature,
}

impl<T: ToBeSigned> Signed<T> {
    /// Canonicalises `data` and signs it with the issuer's key pair.
    ///
    /// # Panics
    ///
    /// Panics if `data`'s issuer key does not match `issuer`'s key —
    /// signing on behalf of someone else is a fixture bug, not a
    /// simulated attack (attacks *hold* the issuer key) — or if
    /// [`ToBeSigned::canonicalise`] refuses the content.
    pub fn sign(mut data: T, issuer: &KeyPair) -> Self {
        assert_eq!(data.issuer_key(), issuer.id(), "issuer key mismatch signing a {}", T::NAME);
        data.canonicalise();
        let signature = issuer.sign(&data.to_bytes());
        Signed { data, signature }
    }

    /// The to-be-signed content.
    pub fn data(&self) -> &T {
        &self.data
    }

    /// Verifies the signature under `issuer_key`.
    pub fn verify(&self, issuer_key: &PublicKey) -> Result<(), SignatureError> {
        self.verify_encoded(&self.to_bytes(), issuer_key)
    }

    /// Verifies the signature under `issuer_key` over the to-be-signed
    /// span of `encoded`, the bytes this value was decoded from.
    pub fn verify_encoded(
        &self,
        encoded: &[u8],
        issuer_key: &PublicKey,
    ) -> Result<(), SignatureError> {
        issuer_key.verify(signed_span(encoded), &self.signature)
    }
}

impl<T: Encode> Encode for Signed<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.data.encode(out);
        self.signature.encode(out);
    }
}

impl<T: Decode> Decode for Signed<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Signed { data: T::decode(r)?, signature: Signature::decode(r)? })
    }
}

/// Prints as the signed object's own type name (`ResourceCert { data:
/// …, signature: … }`), the form a derived `Debug` on a per-type struct
/// gave, so traces that hash `Debug` output do not move.
impl<T: ToBeSigned + fmt::Debug> fmt::Debug for Signed<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct(T::NAME)
            .field("data", &self.data)
            .field("signature", &self.signature)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crl::{Crl, CrlData};
    use crate::time::Moment;

    #[test]
    fn debug_prints_the_signed_type_name() {
        let ca = KeyPair::from_seed("signed-ca");
        let crl = Crl::sign(
            CrlData {
                issuer_key: ca.id(),
                number: 1,
                this_update: Moment(0),
                next_update: Moment(1),
                revoked: vec![],
            },
            &ca,
        );
        let debug = format!("{crl:?}");
        assert!(debug.starts_with("Crl { data: CrlData { issuer_key: "), "{debug}");
        assert!(debug.contains(" }, signature: "), "{debug}");
    }
}
