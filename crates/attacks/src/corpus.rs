//! A seeded corpus of adversarial RPKI objects.
//!
//! The paper's manipulations are *semantically* valid objects issued by
//! a misbehaving authority. This module covers the complementary layer:
//! a publication point that serves **malformed or inconsistent bytes**
//! — truncated DER, implausible length prefixes, manifests that list
//! themselves, certificates that overclaim, validity windows from the
//! far future. A relying party must survive all of it: the worst
//! acceptable outcome is a rejected subtree, never a panic, a hang, or
//! collateral damage to sibling publication points.
//!
//! Every mutation goes through the repository's ordinary write path
//! ([`Repository::publish_raw`] / [`Repository::corrupt_at_rest`]), so
//! the poison propagates exactly as a real misbehaving host would serve
//! it: the rsync listing, the content digest, the RRDP delta log and
//! snapshot all carry the same bytes. Nothing is special-cased for the
//! transport a relying party happens to use.
//!
//! Generation is deterministic in `(kind, seed)`: the differential
//! suite replays identical corpora against every validator tier and
//! asserts byte-identical outcomes.

use ipres::{Asn, AsnSet, ResourceSet};
use rpki_ca::CertAuthority;
use rpki_objects::{
    CertData, Encode, Manifest, ManifestData, ManifestEntry, Moment, RepoUri, ResourceCert, Roa,
    RoaData, RoaPrefix, RpkiObject, Span, Validity,
};
use rpki_repo::Repository;
use rpkisim_crypto::{sha256, splitmix64, KeyPair, SPLITMIX64_GAMMA};
use serde::Serialize;

/// One family of adversarial bytes the corpus can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum CorpusKind {
    /// An existing object cut short at a seeded offset.
    TruncatedDer,
    /// A length prefix claiming ~4 GiB where an object body should be.
    OversizedLength,
    /// A valid object with seeded junk appended after the value.
    TrailingBytes,
    /// A single seeded bit flipped somewhere in a valid object.
    BitFlip,
    /// A manifest that lists *itself* among its entries — a digest no
    /// signer can satisfy, and a tempting recursion for a sloppy walk.
    SelfReferencingManifest,
    /// Two manifests in one directory listing each other.
    CyclicManifests,
    /// A child certificate claiming `0.0.0.0/0` — far beyond anything
    /// the issuing CA holds.
    ResourceOverclaim,
    /// At-rest corruption of a listed file: the manifest's digest no
    /// longer matches what the repository serves.
    DigestMismatch,
    /// Two ROAs with absurd validity: one starting at the end of time,
    /// one with an inverted window.
    AbsurdValidity,
    /// A ROA whose entries repeat one prefix with conflicting
    /// maxLengths.
    ConflictingRoaEntries,
    /// A manifest listing more entries than any honest CA publishes
    /// (beyond [`rpki_rp::validation::MAX_MANIFEST_ENTRIES`]).
    OversizeListing,
}

impl CorpusKind {
    /// Every corpus family, in a stable order.
    pub const ALL: [CorpusKind; 11] = [
        CorpusKind::TruncatedDer,
        CorpusKind::OversizedLength,
        CorpusKind::TrailingBytes,
        CorpusKind::BitFlip,
        CorpusKind::SelfReferencingManifest,
        CorpusKind::CyclicManifests,
        CorpusKind::ResourceOverclaim,
        CorpusKind::DigestMismatch,
        CorpusKind::AbsurdValidity,
        CorpusKind::ConflictingRoaEntries,
        CorpusKind::OversizeListing,
    ];

    /// A short stable label for reports and metrics.
    pub fn label(&self) -> &'static str {
        match self {
            CorpusKind::TruncatedDer => "truncated",
            CorpusKind::OversizedLength => "oversized_length",
            CorpusKind::TrailingBytes => "trailing_bytes",
            CorpusKind::BitFlip => "bit_flip",
            CorpusKind::SelfReferencingManifest => "self_referencing_manifest",
            CorpusKind::CyclicManifests => "cyclic_manifests",
            CorpusKind::ResourceOverclaim => "resource_overclaim",
            CorpusKind::DigestMismatch => "digest_mismatch",
            CorpusKind::AbsurdValidity => "absurd_validity",
            CorpusKind::ConflictingRoaEntries => "conflicting_roa_entries",
            CorpusKind::OversizeListing => "oversize_listing",
        }
    }
}

/// What one corpus application did to a repository.
#[derive(Debug, Clone, Serialize)]
pub struct CorpusCase {
    /// The family applied.
    pub kind: CorpusKind,
    /// The poisoned publication directory.
    pub dir: RepoUri,
    /// The files written, corrupted, or replaced.
    pub files: Vec<String>,
    /// Human-readable description of the mutation.
    pub note: String,
}

/// The next draw of the SplitMix64 stream at `state`: small,
/// deterministic, good enough to spread corpus choices across seeds.
/// (The attacks crate deliberately has no rand dependency.)
fn mix(state: &mut u64) -> u64 {
    let draw = splitmix64(*state);
    *state = state.wrapping_add(SPLITMIX64_GAMMA);
    draw
}

/// Picks a deterministic file from `files` satisfying `pred`.
fn pick<F: Fn(&str) -> bool>(files: &[String], state: &mut u64, pred: F) -> Option<String> {
    let eligible: Vec<&String> = files.iter().filter(|n| pred(n)).collect();
    if eligible.is_empty() {
        return None;
    }
    Some(eligible[(mix(state) % eligible.len() as u64) as usize].clone())
}

/// `dir`'s current listing, less the manifest `mft_name`, as manifest
/// entries: what a re-signed manifest lists.
fn listing_without_manifest(
    repo: &Repository,
    dir: &RepoUri,
    mft_name: &str,
) -> Vec<ManifestEntry> {
    repo.list(dir)
        .into_iter()
        .filter(|(n, _)| n != mft_name)
        .map(|(n, h)| ManifestEntry { name: n, hash: h })
        .collect()
}

/// A week-long manifest over `entries`, numbered by the next draw of
/// `state` and signed with `ca`'s real key, encoded for publication.
fn signed_manifest(
    ca: &CertAuthority,
    entries: Vec<ManifestEntry>,
    state: &mut u64,
    now: Moment,
) -> Vec<u8> {
    let data = ManifestData {
        issuer_key: ca.key_id(),
        number: mix(state),
        this_update: now,
        next_update: now + Span::days(7),
        entries,
    };
    RpkiObject::Manifest(Manifest::sign(data, ca.key_for_attack())).to_bytes()
}

/// Applies one adversarial mutation of family `kind`, derived
/// deterministically from `seed`, to `ca`'s publication directory in
/// `repo`.
///
/// `ca` must be the authority publishing at its
/// [`sia`](CertAuthority::sia) inside `repo` — the corpus signs its
/// poisoned objects with the CA's real key
/// ([`key_for_attack`](CertAuthority::key_for_attack)), modelling a
/// *misbehaving authority*, not a forger. All writes go through the
/// publication log, so RRDP clients see the same poison as rsync
/// clients.
pub fn poison(
    repo: &mut Repository,
    ca: &CertAuthority,
    kind: CorpusKind,
    seed: u64,
    now: Moment,
) -> CorpusCase {
    // Distinct streams per kind so e.g. BitFlip and TruncatedDer with
    // one seed do not target the same offset of the same file.
    let mut state = seed ^ (kind.label().len() as u64) << 32 ^ kind as u64;
    let dir = ca.sia().clone();
    let names: Vec<String> = repo.list(&dir).into_iter().map(|(n, _)| n).collect();
    let mft_name = format!("{}.mft", ca.key_id().short());
    let key = ca.key_for_attack();

    let case =
        |files: Vec<String>, note: String| CorpusCase { kind, dir: dir.clone(), files, note };

    match kind {
        CorpusKind::TruncatedDer => {
            let name = pick(&names, &mut state, |_| true).unwrap_or_else(|| mft_name.clone());
            let bytes = repo.fetch(&dir, &name).map(<[u8]>::to_vec).unwrap_or_default();
            let cut =
                if bytes.is_empty() { 0 } else { (mix(&mut state) % bytes.len() as u64) as usize };
            repo.publish_raw(&dir, &name, bytes[..cut].to_vec());
            case(vec![name.clone()], format!("truncated {name} to {cut} bytes"))
        }
        CorpusKind::OversizedLength => {
            // A certificate whose subject-string length prefix claims
            // u32::MAX bytes: tag, serial, then an implausible length
            // the reader must reject before sizing any buffer.
            let name = pick(&names, &mut state, |n| n.ends_with(".cer"))
                .unwrap_or_else(|| "oversized.cer".to_owned());
            let mut bytes = vec![1u8]; // RpkiObject cert tag
            bytes.extend_from_slice(&mix(&mut state).to_be_bytes());
            bytes.extend_from_slice(&u32::MAX.to_be_bytes());
            repo.publish_raw(&dir, &name, bytes);
            case(vec![name.clone()], format!("{name} claims a 4 GiB subject string"))
        }
        CorpusKind::TrailingBytes => {
            let name = pick(&names, &mut state, |_| true).unwrap_or_else(|| mft_name.clone());
            let mut bytes = repo.fetch(&dir, &name).map(<[u8]>::to_vec).unwrap_or_default();
            let extra = 1 + (mix(&mut state) % 16) as usize;
            for _ in 0..extra {
                bytes.push(mix(&mut state) as u8);
            }
            repo.publish_raw(&dir, &name, bytes);
            case(vec![name.clone()], format!("appended {extra} junk bytes to {name}"))
        }
        CorpusKind::BitFlip => {
            let name = pick(&names, &mut state, |_| true).unwrap_or_else(|| mft_name.clone());
            let mut bytes = repo.fetch(&dir, &name).map(<[u8]>::to_vec).unwrap_or_default();
            let note = if bytes.is_empty() {
                format!("{name} empty; nothing to flip")
            } else {
                let bit = (mix(&mut state) % (bytes.len() as u64 * 8)) as usize;
                bytes[bit / 8] ^= 1 << (bit % 8);
                format!("flipped bit {bit} of {name}")
            };
            repo.publish_raw(&dir, &name, bytes);
            case(vec![name.clone()], note)
        }
        CorpusKind::SelfReferencingManifest => {
            // No signer can produce a manifest whose listed digest for
            // itself matches its own bytes; the walk must treat the
            // impossible entry as a plain mismatch, not recurse.
            let mut entries = listing_without_manifest(repo, &dir, &mft_name);
            entries.push(ManifestEntry { name: mft_name.clone(), hash: sha256(b"self-reference") });
            repo.publish_raw(&dir, &mft_name, signed_manifest(ca, entries, &mut state, now));
            case(vec![mft_name.clone()], format!("{mft_name} lists itself"))
        }
        CorpusKind::CyclicManifests => {
            let loop_name = "loop.mft".to_owned();
            // B lists the real manifest (by whatever digest it will
            // have — unknowable, hence junk)...
            let to_a = vec![ManifestEntry { name: mft_name.clone(), hash: sha256(b"cycle") }];
            let b_bytes = signed_manifest(ca, to_a, &mut state, now);
            // ...while the real manifest lists B with B's true digest,
            // closing the cycle A → B → A.
            let mut entries = listing_without_manifest(repo, &dir, &mft_name);
            entries.push(ManifestEntry { name: loop_name.clone(), hash: sha256(&b_bytes) });
            let a_bytes = signed_manifest(ca, entries, &mut state, now);
            repo.publish_raw(&dir, &loop_name, b_bytes);
            repo.publish_raw(&dir, &mft_name, a_bytes);
            case(
                vec![mft_name.clone(), loop_name.clone()],
                format!("{mft_name} and {loop_name} list each other"),
            )
        }
        CorpusKind::ResourceOverclaim => {
            let subject = KeyPair::from_seed(&format!("corpus-overclaim-{seed}"));
            let cert = ResourceCert::sign(
                CertData {
                    serial: mix(&mut state),
                    subject: "corpus-overclaim".to_owned(),
                    subject_key: subject.public(),
                    resources: ResourceSet::from_prefix_strs("0.0.0.0/0"),
                    as_resources: AsnSet::empty(),
                    validity: Validity::starting(now, Span::days(365)),
                    issuer_key: ca.key_id(),
                    sia: dir.join("overclaim"),
                    crl_dp: Some(ca.crl_uri()),
                },
                key,
            );
            let name = cert.file_name();
            repo.publish_raw(&dir, &name, RpkiObject::Cert(cert).to_bytes());
            // The authority lists its own over-claimer: re-sign the
            // manifest over the current listing so the validator must
            // process (and reject) the certificate rather than skip an
            // unlisted file.
            let entries = listing_without_manifest(repo, &dir, &mft_name);
            repo.publish_raw(&dir, &mft_name, signed_manifest(ca, entries, &mut state, now));
            case(vec![name.clone(), mft_name.clone()], format!("{name} claims 0.0.0.0/0"))
        }
        CorpusKind::DigestMismatch => {
            let name = pick(&names, &mut state, |n| !n.ends_with(".mft"))
                .unwrap_or_else(|| mft_name.clone());
            repo.corrupt_at_rest(&dir, &name);
            case(vec![name.clone()], format!("{name} corrupted at rest under an honest manifest"))
        }
        CorpusKind::AbsurdValidity => {
            let prefix = ca
                .resources()
                .to_prefixes()
                .into_iter()
                .next()
                .unwrap_or_else(|| "203.0.113.0/24".parse().expect("literal prefix parses"));
            let data = RoaData {
                asn: Asn(64_512 + (mix(&mut state) % 1024) as u32),
                prefixes: vec![RoaPrefix::exact(prefix)],
            };
            // One ROA valid only at the end of time (validation-layer
            // rejection), one with an inverted window (decode-layer
            // rejection — built via the struct literal, since the
            // constructors refuse it).
            let future = Roa::issue(
                data.clone(),
                mix(&mut state),
                Validity::new(Moment(u64::MAX - 1), Moment(u64::MAX)),
                key,
                &KeyPair::from_seed(&format!("corpus-ee-future-{seed}")),
            );
            let inverted = Roa::issue(
                data,
                mix(&mut state),
                Validity { not_before: Moment(u64::MAX), not_after: Moment(0) },
                key,
                &KeyPair::from_seed(&format!("corpus-ee-inverted-{seed}")),
            );
            let files = vec!["absurd-future.roa".to_owned(), "absurd-inverted.roa".to_owned()];
            repo.publish_raw(&dir, &files[0], RpkiObject::Roa(future).to_bytes());
            repo.publish_raw(&dir, &files[1], RpkiObject::Roa(inverted).to_bytes());
            case(files, "ROAs valid from the end of time / with inverted windows".to_owned())
        }
        CorpusKind::ConflictingRoaEntries => {
            let prefix = ca
                .resources()
                .to_prefixes()
                .into_iter()
                .next()
                .unwrap_or_else(|| "203.0.113.0/24".parse().expect("literal prefix parses"));
            let max = prefix.family().bits();
            let roa = Roa::issue(
                RoaData {
                    asn: Asn(64_512 + (mix(&mut state) % 1024) as u32),
                    prefixes: vec![
                        RoaPrefix::exact(prefix),
                        RoaPrefix::up_to(prefix, max),
                        RoaPrefix::exact(prefix),
                    ],
                },
                mix(&mut state),
                Validity::starting(now, Span::days(30)),
                key,
                &KeyPair::from_seed(&format!("corpus-ee-dup-{seed}")),
            );
            let name = pick(&names, &mut state, |n| n.ends_with(".roa"))
                .unwrap_or_else(|| "conflicting.roa".to_owned());
            repo.publish_raw(&dir, &name, RpkiObject::Roa(roa).to_bytes());
            case(vec![name.clone()], format!("{name} repeats {prefix} with conflicting maxLength"))
        }
        CorpusKind::OversizeListing => {
            let count = rpki_rp::validation::MAX_MANIFEST_ENTRIES + 1;
            let hash = sha256(b"padding");
            let entries: Vec<ManifestEntry> = (0..count)
                .map(|i| ManifestEntry { name: format!("pad-{i:06}.roa"), hash })
                .collect();
            repo.publish_raw(&dir, &mft_name, signed_manifest(ca, entries, &mut state, now));
            case(vec![mft_name.clone()], format!("{mft_name} lists {count} files"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netsim::NodeId;

    fn fixture() -> (Repository, CertAuthority) {
        let sia = RepoUri::new("rpki.corpus.example", &["repo", "ca"]);
        let mut ca = CertAuthority::new("Corpus", "corpus-ca", sia);
        ca.certify_self(ResourceSet::from_prefix_strs("10.0.0.0/8"), Moment(0), Span::days(365));
        ca.issue_roa(
            Asn(64_500),
            vec![RoaPrefix::exact("10.1.0.0/16".parse().expect("literal prefix"))],
            Moment(0),
        )
        .expect("fixture roa");
        let mut repo = Repository::new("rpki.corpus.example", NodeId(1));
        repo.publish_ca(&mut ca, Moment(1));
        (repo, ca)
    }

    #[test]
    fn corpus_is_deterministic_per_seed() {
        for kind in CorpusKind::ALL {
            let (mut a, ca_a) = fixture();
            let (mut b, ca_b) = fixture();
            let ca_case = poison(&mut a, &ca_a, kind, 7, Moment(2));
            let cb_case = poison(&mut b, &ca_b, kind, 7, Moment(2));
            assert_eq!(ca_case.files, cb_case.files, "{kind:?} file choice must be seeded");
            assert_eq!(
                a.content_digest(ca_a.sia()),
                b.content_digest(ca_b.sia()),
                "{kind:?} must mutate identically for one seed"
            );
            // A different seed may (not must) differ; the content
            // digest changing under *some* kind proves the seed flows.
        }
    }

    #[test]
    fn every_kind_dirties_the_publication_log() {
        for kind in CorpusKind::ALL {
            let (mut repo, ca) = fixture();
            let before = repo.content_digest(ca.sia());
            let pos_before = repo.rrdp_position(ca.sia()).expect("dir exists");
            let case = poison(&mut repo, &ca, kind, 3, Moment(2));
            assert!(!case.files.is_empty(), "{kind:?} must name its targets");
            assert_ne!(
                before,
                repo.content_digest(ca.sia()),
                "{kind:?} must change served content"
            );
            let pos_after = repo.rrdp_position(ca.sia()).expect("dir exists");
            assert!(
                pos_after.1 > pos_before.1,
                "{kind:?} must flow through the RRDP publication log"
            );
        }
    }
}
