//! [`Encode`]/[`Decode`] implementations for the resource and crypto
//! primitives defined in sibling crates.
//!
//! These live here (not in `ipres`/`rpkisim-crypto`) because the wire
//! format is an `rpki-objects` concern; the primitive crates stay
//! codec-agnostic.

use ipres::{Addr, AddrRange, Asn, AsnSet, Family, Prefix, ResourceSet};
use rpkisim_crypto::{Digest, KeyId, PublicKey, Signature};

use crate::codec::{Decode, DecodeError, Encode, Reader, LEN_PREFIX};

/// Encoded width of a [`Digest`], and so of a [`KeyId`] or a
/// [`PublicKey`].
pub(crate) const DIGEST_LEN: usize = size_of::<Digest>();

/// Encoded width of a [`Signature`]: the signing key's id, then the tag.
/// Every signed object encodes as its to-be-signed content followed by
/// one signature, so the content is the encoding minus this suffix.
pub(crate) const SIGNATURE_LEN: usize = 2 * DIGEST_LEN;

/// Encoded width of an [`AddrRange`]: two addresses, each a family tag
/// and a `u128` value.
const ADDR_RANGE_LEN: usize = 2 * (1 + size_of::<u128>());

/// The to-be-signed span of `encoded`, the encoding of a signed object:
/// everything before its trailing [`Signature`]. Decoding is canonical
/// (DESIGN.md invariant 13), so for bytes an object was decoded from
/// this is exactly its content's re-encoding.
pub(crate) fn signed_span(encoded: &[u8]) -> &[u8] {
    &encoded[..encoded.len().saturating_sub(SIGNATURE_LEN)]
}

/// The exact encoded length of `set`: a run count, then fixed-width runs.
pub(crate) fn resource_set_len(set: &ResourceSet) -> usize {
    LEN_PREFIX + set.num_runs() * ADDR_RANGE_LEN
}

impl Encode for Family {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(match self {
            Family::V4 => 4,
            Family::V6 => 6,
        });
    }
}

impl Decode for Family {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            4 => Ok(Family::V4),
            6 => Ok(Family::V6),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

impl Encode for Addr {
    fn encode(&self, out: &mut Vec<u8>) {
        self.family().encode(out);
        self.value().encode(out);
    }
}

impl Decode for Addr {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let family = Family::decode(r)?;
        let value = r.u128()?;
        if value > family.max_value() {
            return Err(DecodeError::Invalid("address value exceeds family width"));
        }
        Ok(Addr::new(family, value))
    }
}

impl Encode for Prefix {
    fn encode(&self, out: &mut Vec<u8>) {
        self.addr().encode(out);
        out.push(self.len());
    }
}

impl Decode for Prefix {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let addr = Addr::decode(r)?;
        let len = r.u8()?;
        if len > addr.family().bits() {
            return Err(DecodeError::Invalid("prefix length exceeds family bits"));
        }
        let p = Prefix::new(addr, len);
        if p.addr() != addr {
            // Canonical form requires zeroed host bits; a mismatch means
            // the bytes were not produced by our encoder.
            return Err(DecodeError::Invalid("prefix host bits not zero"));
        }
        Ok(p)
    }
}

impl Encode for AddrRange {
    fn encode(&self, out: &mut Vec<u8>) {
        self.lo().encode(out);
        self.hi().encode(out);
    }
}

impl Decode for AddrRange {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let lo = Addr::decode(r)?;
        let hi = Addr::decode(r)?;
        if lo.family() != hi.family() || lo > hi {
            return Err(DecodeError::Invalid("malformed address range"));
        }
        Ok(AddrRange::new(lo, hi))
    }
}

impl Encode for ResourceSet {
    fn encode(&self, out: &mut Vec<u8>) {
        self.ranges().encode(out);
    }
}

impl Decode for ResourceSet {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // Canonicality check: only the runs a canonical set would hold
        // decode, so signatures over resource sets are unambiguous.
        ResourceSet::from_canonical_runs(Vec::<AddrRange>::decode(r)?)
            .ok_or(DecodeError::Invalid("resource set not in canonical form"))
    }
}

impl Encode for Asn {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for Asn {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Asn(r.u32()?))
    }
}

impl Encode for AsnSet {
    fn encode(&self, out: &mut Vec<u8>) {
        self.members().encode(out);
    }
}

impl Decode for AsnSet {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let members = Vec::<Asn>::decode(r)?;
        let set = AsnSet::from_iter_normalised(members.iter().copied());
        if set.members() != members.as_slice() {
            return Err(DecodeError::Invalid("ASN set not in canonical form"));
        }
        Ok(set)
    }
}

impl Encode for Digest {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self.as_bytes());
    }
}

impl Decode for Digest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        // `take` returned exactly `DIGEST_LEN` bytes, so the conversion can
        // only fail on truncated input, never by panicking.
        let raw = r.take(DIGEST_LEN)?;
        Ok(Digest(raw.try_into().map_err(|_| DecodeError::Truncated)?))
    }
}

impl Encode for KeyId {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for KeyId {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(KeyId(Digest::decode(r)?))
    }
}

impl Encode for PublicKey {
    fn encode(&self, out: &mut Vec<u8>) {
        self.id().encode(out);
    }
}

impl Decode for PublicKey {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(PublicKey::from_id(KeyId::decode(r)?))
    }
}

impl Encode for Signature {
    fn encode(&self, out: &mut Vec<u8>) {
        let (key, tag) = self.to_parts();
        key.encode(out);
        tag.encode(out);
    }
}

impl Decode for Signature {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let key = KeyId::decode(r)?;
        let tag = Digest::decode(r)?;
        Ok(Signature::from_parts(key, tag))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpkisim_crypto::KeyPair;

    fn round_trip<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        assert_eq!(T::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn primitives_round_trip() {
        round_trip("63.174.16.0".parse::<Addr>().unwrap());
        round_trip("2001:db8::1".parse::<Addr>().unwrap());
        round_trip("63.174.16.0/20".parse::<Prefix>().unwrap());
        round_trip(AddrRange::new(
            "63.174.25.0".parse().unwrap(),
            "63.174.31.255".parse().unwrap(),
        ));
        round_trip(ResourceSet::from_prefix_strs("63.160.0.0/12, 208.0.0.0/11"));
        round_trip(Asn(1239));
        round_trip([Asn(1), Asn(7)].into_iter().collect::<AsnSet>());
    }

    #[test]
    fn crypto_round_trip() {
        let kp = KeyPair::from_seed("codec");
        round_trip(kp.id());
        round_trip(kp.public());
        round_trip(kp.sign(b"message"));
    }

    #[test]
    fn noncanonical_prefix_rejected() {
        // Encode a /8 whose host bits are set: 10.1.0.0/8.
        let mut bytes = Vec::new();
        "10.1.0.0".parse::<Addr>().unwrap().encode(&mut bytes);
        bytes.push(8);
        assert!(matches!(Prefix::from_bytes(&bytes), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn noncanonical_resource_set_rejected() {
        // Two abutting runs that a canonical encoder would have merged.
        let mut bytes = Vec::new();
        vec![
            AddrRange::new("10.0.0.0".parse().unwrap(), "10.0.0.127".parse().unwrap()),
            AddrRange::new("10.0.0.128".parse().unwrap(), "10.0.0.255".parse().unwrap()),
        ]
        .encode(&mut bytes);
        assert!(matches!(ResourceSet::from_bytes(&bytes), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn oversized_prefix_len_rejected() {
        let mut bytes = Vec::new();
        "10.0.0.0".parse::<Addr>().unwrap().encode(&mut bytes);
        bytes.push(33);
        assert!(matches!(Prefix::from_bytes(&bytes), Err(DecodeError::Invalid(_))));
    }

    #[test]
    fn inverted_range_rejected() {
        let mut bytes = Vec::new();
        "10.0.0.9".parse::<Addr>().unwrap().encode(&mut bytes);
        "10.0.0.3".parse::<Addr>().unwrap().encode(&mut bytes);
        assert!(matches!(AddrRange::from_bytes(&bytes), Err(DecodeError::Invalid(_))));
    }
}
