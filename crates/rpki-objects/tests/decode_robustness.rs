//! Decoder robustness: repositories are untrusted byte stores and the
//! network corrupts frames, so every decoder must be total — any input
//! either decodes or returns an error, never panics, and decoded values
//! re-encode canonically.

use ipres::{Asn, AsnSet, ResourceSet};
use proptest::prelude::*;
use rpki_objects::{
    CertData, Crl, CrlData, Decode, Encode, Manifest, ManifestData, ManifestEntry, Moment, RepoUri,
    ResourceCert, Roa, RoaData, RoaPrefix, RpkiObject, Span, Validity,
};
use rpkisim_crypto::{sha256, KeyPair, PublicKey};

fn valid_object() -> RpkiObject {
    let ca = KeyPair::from_seed("robustness-ca");
    let ee = KeyPair::from_seed("robustness-ee");
    let roa = Roa::issue(
        RoaData {
            asn: Asn(64500),
            prefixes: vec![
                RoaPrefix::up_to("10.0.0.0/16".parse().unwrap(), 24),
                RoaPrefix::exact("2001:db8::/32".parse().unwrap()),
            ],
        },
        5,
        Validity::starting(Moment(0), Span::days(30)),
        &ca,
        &ee,
    );
    let _ = CertData {
        serial: 0,
        subject: String::new(),
        subject_key: ca.public(),
        resources: ResourceSet::empty(),
        as_resources: AsnSet::empty(),
        validity: Validity::starting(Moment(0), Span(1)),
        issuer_key: ca.id(),
        sia: RepoUri::new("h", &[]),
        crl_dp: None,
    };
    RpkiObject::Roa(roa)
}

/// An arbitrary *valid* object of any family — certificate, ROA, CRL,
/// or manifest — with seeded contents. Everything the generators below
/// assert about these objects holds for every signer output the
/// workspace can produce.
fn arb_valid_object() -> impl Strategy<Value = RpkiObject> {
    (
        0u8..4,
        any::<u64>(),
        0u64..1_000_000_000,
        proptest::collection::vec((any::<u64>(), any::<u8>()), 1..8),
    )
        .prop_map(|(family, seed, t, items)| {
            let ca = KeyPair::from_seed(&format!("arb-ca-{}", seed % 13));
            let validity = Validity::starting(Moment(t), Span::days(1 + (seed % 3650)));
            match family {
                0 => {
                    let child = KeyPair::from_seed(&format!("arb-child-{}", seed % 7));
                    RpkiObject::Cert(ResourceCert::sign(
                        CertData {
                            serial: seed,
                            subject: format!("subject-{}", seed % 97),
                            subject_key: child.public(),
                            resources: ResourceSet::from_prefix_strs("10.0.0.0/8"),
                            as_resources: AsnSet::empty(),
                            validity,
                            issuer_key: ca.id(),
                            sia: RepoUri::new("host.example", &["repo", "sub"]),
                            crl_dp: (seed % 2 == 0)
                                .then(|| RepoUri::new("host.example", &["repo"])),
                        },
                        &ca,
                    ))
                }
                1 => {
                    let ee = KeyPair::from_seed(&format!("arb-ee-{}", seed % 7));
                    let prefixes = items
                        .iter()
                        .map(|(v, m)| {
                            let p = format!("10.{}.{}.0/24", v % 256, (v >> 8) % 256)
                                .parse()
                                .expect("literal prefix");
                            if m % 2 == 0 {
                                RoaPrefix::exact(p)
                            } else {
                                RoaPrefix::up_to(p, 24 + (m % 9))
                            }
                        })
                        .collect();
                    RpkiObject::Roa(Roa::issue(
                        RoaData { asn: Asn((seed % 65_536) as u32), prefixes },
                        seed,
                        validity,
                        &ca,
                        &ee,
                    ))
                }
                2 => {
                    let mut revoked: Vec<u64> = items.iter().map(|(v, _)| *v).collect();
                    revoked.sort_unstable();
                    revoked.dedup();
                    RpkiObject::Crl(Crl::sign(
                        CrlData {
                            issuer_key: ca.id(),
                            number: seed,
                            this_update: Moment(t),
                            next_update: Moment(t) + Span::days(7),
                            revoked,
                        },
                        &ca,
                    ))
                }
                _ => {
                    let entries = items
                        .iter()
                        .enumerate()
                        .map(|(i, (v, _))| ManifestEntry {
                            name: format!("file-{i}-{}.roa", v % 100),
                            hash: sha256(&v.to_be_bytes()),
                        })
                        .collect();
                    RpkiObject::Manifest(Manifest::sign(
                        ManifestData {
                            issuer_key: ca.id(),
                            number: seed,
                            this_update: Moment(t),
                            next_update: Moment(t) + Span::days(7),
                            entries,
                        },
                        &ca,
                    ))
                }
            }
        })
}

/// Decoding is canonical (DESIGN.md invariant 13): whatever
/// `bytes` decodes to as a `T` re-encodes to exactly `bytes`. This is
/// what makes checking a signature over the bytes that arrived the same
/// check as over a re-encoding.
fn decodes_canonically<T: Decode + Encode>(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(decoded) = T::from_bytes(bytes) {
        prop_assert_eq!(decoded.to_bytes(), bytes);
    }
    Ok(())
}

/// The walk's check over the arrived span and the re-encoding check
/// give one verdict for `obj`, decoded from `encoded`, under the key it
/// names as its issuer.
fn span_check_agrees(obj: &RpkiObject, encoded: &[u8]) -> Result<(), TestCaseError> {
    let span = RpkiObject::untagged(encoded);
    let issuer = |id| PublicKey::from_id(id);
    match obj {
        RpkiObject::Cert(c) => {
            let key = issuer(c.data().issuer_key);
            prop_assert_eq!(c.verify_encoded(span, &key), c.verify(&key));
        }
        RpkiObject::Roa(r) => {
            let key = issuer(r.ee().data().issuer_key);
            prop_assert_eq!(r.verify_encoded(span, &key), r.verify(&key));
        }
        RpkiObject::Crl(c) => {
            let key = issuer(c.data().issuer_key);
            prop_assert_eq!(c.verify_encoded(span, &key), c.verify(&key));
        }
        RpkiObject::Manifest(m) => {
            let key = issuer(m.data().issuer_key);
            prop_assert_eq!(m.verify_encoded(span, &key), m.verify(&key));
        }
    }
    Ok(())
}

proptest! {
    /// Every valid encoding of every object family round-trips
    /// byte-identically: decode inverts encode, and re-encoding the
    /// decoded value reproduces the original bytes exactly. A ROA's EE
    /// certificate length, which places the ROA's two signed spans, is
    /// the length of its encoding.
    #[test]
    fn valid_encodings_round_trip_byte_identically(obj in arb_valid_object()) {
        let bytes = obj.to_bytes();
        let decoded = RpkiObject::from_bytes(&bytes).expect("valid object decodes");
        prop_assert_eq!(&decoded, &obj);
        prop_assert_eq!(decoded.to_bytes(), bytes.clone());
        if let RpkiObject::Roa(roa) = &decoded {
            prop_assert_eq!(roa.ee().encoded_len(), roa.ee().to_bytes().len());
        }
        span_check_agrees(&decoded, &bytes)?;
    }

    /// Bit-flips of *any* family's valid encoding never panic any
    /// decoder, whatever still decodes re-encodes to exactly the flipped
    /// bytes, and its span check agrees with its re-encoding check (the
    /// narrow `valid_object` flip test below additionally checks
    /// aliasing on a fixed ROA).
    #[test]
    fn bitflips_of_any_family_never_panic(
        obj in arb_valid_object(),
        pos in any::<usize>(),
        bit in 0u8..8,
    ) {
        let mut bytes = obj.to_bytes();
        let pos = pos % bytes.len();
        bytes[pos] ^= 1 << bit;
        decodes_canonically::<RpkiObject>(&bytes)?;
        decodes_canonically::<ResourceCert>(&bytes)?;
        decodes_canonically::<Roa>(&bytes)?;
        decodes_canonically::<Crl>(&bytes)?;
        decodes_canonically::<Manifest>(&bytes)?;
        if let Ok(decoded) = RpkiObject::from_bytes(&bytes) {
            span_check_agrees(&decoded, &bytes)?;
        }
    }
}

proptest! {
    /// Arbitrary bytes never panic any decoder.
    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
        let _ = RpkiObject::from_bytes(&bytes);
        let _ = ResourceCert::from_bytes(&bytes);
        let _ = Roa::from_bytes(&bytes);
        let _ = Crl::from_bytes(&bytes);
        let _ = Manifest::from_bytes(&bytes);
        let _ = RepoUri::from_bytes(&bytes);
    }

    /// Single-byte corruptions of a valid object either fail to decode
    /// or decode to a *different* value (no silent aliasing), and when
    /// they decode, re-encoding is canonical (round-trip stable).
    #[test]
    fn bitflips_never_alias(pos in 0usize..usize::MAX, bit in 0u8..8) {
        let obj = valid_object();
        let bytes = obj.to_bytes();
        let pos = pos % bytes.len();
        let mut mutated = bytes.clone();
        mutated[pos] ^= 1 << bit;
        match RpkiObject::from_bytes(&mutated) {
            Err(_) => {}
            Ok(decoded) => {
                prop_assert_ne!(&decoded, &obj, "corruption at byte {} aliased", pos);
                // Canonical: the re-encode is the flipped bytes themselves.
                prop_assert_eq!(decoded.to_bytes(), mutated.clone(), "byte {}", pos);
                span_check_agrees(&decoded, &mutated)?;
            }
        }
    }

    /// Truncations never panic and never decode successfully (a prefix
    /// of a canonical encoding is never itself canonical, because the
    /// outer value must consume all input).
    #[test]
    fn truncations_fail_cleanly(cut in 0usize..usize::MAX) {
        let obj = valid_object();
        let bytes = obj.to_bytes();
        let cut = cut % bytes.len(); // strictly shorter
        prop_assert!(RpkiObject::from_bytes(&bytes[..cut]).is_err());
    }

    /// Appending garbage to a canonical encoding is always rejected
    /// (trailing bytes are an error, which is what lets signatures be
    /// computed over exact byte strings).
    #[test]
    fn trailing_garbage_rejected(extra in proptest::collection::vec(any::<u8>(), 1..16)) {
        let obj = valid_object();
        let mut bytes = obj.to_bytes();
        bytes.extend_from_slice(&extra);
        prop_assert!(RpkiObject::from_bytes(&bytes).is_err());
    }
}
