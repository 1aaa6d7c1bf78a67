//! Manifests (RFC 6486-shaped).
//!
//! A manifest enumerates every object a CA currently publishes, with
//! hashes. It is the relying party's tool for *detecting missing or
//! corrupted objects* — which matters enormously here because, per Side
//! Effect 6, a missing ROA does not downgrade a route to "unknown" but
//! can flip it to "invalid". RFC 6486 deliberately leaves the response
//! to a manifest mismatch to local policy ([2, Sect 6.5] in the paper);
//! the relying party crate implements several choices.
//!
//! Like ROAs, production manifests are signed with one-time EE
//! certificates; the simulator signs them directly with the CA key — a
//! shortcut that loses nothing the paper analyses (the manifest's EE
//! cert never carries resources that matter).

use std::fmt;

use rpkisim_crypto::{sha256, Digest, KeyId};

use crate::codec::{Decode, DecodeError, Encode, Reader, Writer};
use crate::signed::{Signed, ToBeSigned};
use crate::time::{Moment, UpdateWindow, Validity};

const INVERTED: &str = "manifest update window inverted";

/// One manifest entry: a published file and its hash.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestEntry {
    /// File name within the CA's publication directory.
    pub name: String,
    /// SHA-256 of the file's bytes.
    pub hash: Digest,
}

impl Encode for ManifestEntry {
    fn encode(&self, out: &mut Vec<u8>) {
        Writer::string(out, &self.name);
        self.hash.encode(out);
    }
}

impl Decode for ManifestEntry {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(ManifestEntry { name: r.string()?, hash: Digest::decode(r)? })
    }
}

/// The to-be-signed manifest content.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestData {
    /// The issuing CA's key.
    pub issuer_key: KeyId,
    /// Monotonically increasing manifest number.
    pub number: u64,
    /// When this manifest was produced.
    pub this_update: Moment,
    /// When the next manifest is due.
    pub next_update: Moment,
    /// Entries sorted by file name (canonical form).
    pub entries: Vec<ManifestEntry>,
}

impl Encode for ManifestData {
    fn encode(&self, out: &mut Vec<u8>) {
        self.issuer_key.encode(out);
        self.number.encode(out);
        self.this_update.encode(out);
        self.next_update.encode(out);
        self.entries.encode(out);
    }
}

impl Decode for ManifestData {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let data = ManifestData {
            issuer_key: KeyId::decode(r)?,
            number: r.u64()?,
            this_update: Moment::decode(r)?,
            next_update: Moment::decode(r)?,
            entries: Vec::<ManifestEntry>::decode(r)?,
        };
        data.window().checked(INVERTED)?;
        if data.entries.windows(2).any(|w| w[0].name >= w[1].name) {
            return Err(DecodeError::Invalid("manifest entries not sorted-unique"));
        }
        Ok(data)
    }
}

impl ToBeSigned for ManifestData {
    const NAME: &'static str = "Manifest";

    fn issuer_key(&self) -> KeyId {
        self.issuer_key
    }

    /// Sorts the entries by file name.
    ///
    /// # Panics
    ///
    /// Panics on an inverted update window or duplicate file names (a
    /// CA never publishes two files with one name).
    fn canonicalise(&mut self) {
        assert!(self.window().checked(INVERTED).is_ok(), "{INVERTED}");
        self.entries.sort_by(|a, b| a.name.cmp(&b.name));
        assert!(
            self.entries.windows(2).all(|w| w[0].name != w[1].name),
            "duplicate file name in manifest"
        );
    }
}

impl UpdateWindow for ManifestData {
    fn window(&self) -> Validity {
        Validity { not_before: self.this_update, not_after: self.next_update }
    }
}

/// A signed manifest.
pub type Manifest = Signed<ManifestData>;

impl Manifest {
    /// Convenience: build an entry for a file's bytes.
    pub fn entry_for(name: &str, bytes: &[u8]) -> ManifestEntry {
        ManifestEntry { name: name.to_owned(), hash: sha256(bytes) }
    }

    /// The hash this manifest commits to for `name`, if listed.
    pub fn hash_of(&self, name: &str) -> Option<Digest> {
        let entries = &self.data().entries;
        entries.binary_search_by(|e| e.name.as_str().cmp(name)).ok().map(|i| entries[i].hash)
    }

    /// The listed file names, sorted.
    pub fn file_names(&self) -> impl Iterator<Item = &str> {
        self.data().entries.iter().map(|e| e.name.as_str())
    }

    /// Canonical file name: `<issuer-key-id>.mft`.
    pub fn file_name(&self) -> String {
        format!("{}.mft", self.data().issuer_key.short())
    }
}

impl fmt::Display for Manifest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "MFT[{} #{} files={}]",
            self.data().issuer_key.short(),
            self.data().number,
            self.data().entries.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rpkisim_crypto::KeyPair;

    fn sample(issuer: &KeyPair) -> Manifest {
        Manifest::sign(
            ManifestData {
                issuer_key: issuer.id(),
                number: 5,
                this_update: Moment(50),
                next_update: Moment(50 + 86_400),
                entries: vec![
                    Manifest::entry_for("zz.roa", b"roa bytes"),
                    Manifest::entry_for("aa.cer", b"cert bytes"),
                ],
            },
            issuer,
        )
    }

    #[test]
    fn sign_sorts_and_verifies() {
        let ca = KeyPair::from_seed("mft-ca");
        let mft = sample(&ca);
        let names: Vec<&str> = mft.file_names().collect();
        assert_eq!(names, vec!["aa.cer", "zz.roa"]);
        assert_eq!(mft.verify(&ca.public()), Ok(()));
    }

    #[test]
    fn hash_lookup_detects_corruption() {
        let ca = KeyPair::from_seed("mft-ca");
        let mft = sample(&ca);
        assert_eq!(mft.hash_of("zz.roa"), Some(sha256(b"roa bytes")));
        assert_ne!(mft.hash_of("zz.roa"), Some(sha256(b"roa bytez")));
        assert_eq!(mft.hash_of("missing.roa"), None);
    }

    #[test]
    fn codec_round_trip() {
        let ca = KeyPair::from_seed("mft-ca");
        let mft = sample(&ca);
        let decoded = Manifest::from_bytes(&mft.to_bytes()).unwrap();
        assert_eq!(decoded, mft);
        assert_eq!(decoded.verify(&ca.public()), Ok(()));
    }

    #[test]
    fn staleness() {
        let ca = KeyPair::from_seed("mft-ca");
        let mft = sample(&ca);
        assert!(!mft.is_stale_at(Moment(50 + 86_400)));
        assert!(mft.is_stale_at(Moment(51 + 86_400)));
    }

    #[test]
    #[should_panic(expected = "duplicate file name")]
    fn duplicate_names_rejected() {
        let ca = KeyPair::from_seed("mft-ca");
        let _ = Manifest::sign(
            ManifestData {
                issuer_key: ca.id(),
                number: 1,
                this_update: Moment(0),
                next_update: Moment(1),
                entries: vec![
                    Manifest::entry_for("a.roa", b"x"),
                    Manifest::entry_for("a.roa", b"y"),
                ],
            },
            &ca,
        );
    }

    #[test]
    fn empty_manifest_is_valid() {
        let ca = KeyPair::from_seed("mft-ca");
        let mft = Manifest::sign(
            ManifestData {
                issuer_key: ca.id(),
                number: 1,
                this_update: Moment(0),
                next_update: Moment(1),
                entries: vec![],
            },
            &ca,
        );
        assert_eq!(mft.verify(&ca.public()), Ok(()));
        assert_eq!(mft.file_names().count(), 0);
    }
}
