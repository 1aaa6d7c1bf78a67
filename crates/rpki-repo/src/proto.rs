//! Wire messages of the rsync-like retrieval protocol.
//!
//! Real rsync does delta transfer; what the paper cares about is only
//! *which bytes reach the relying party*, so the protocol here is the
//! minimal list/get pair. Messages use the same canonical codec as the
//! objects themselves, so in-flight corruption by the fault layer can
//! hit protocol frames too (a corrupted frame decodes as garbage and the
//! client records a failed fetch — exactly like a torn rsync session).

use rpki_objects::codec::LEN_PREFIX;
use rpki_objects::{Decode, DecodeError, Encode, Reader, RepoUri, Writer};
use rpkisim_crypto::Digest;

/// A client request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsyncRequest {
    /// List a directory's `(name, digest)` entries.
    List {
        /// The publication-point directory.
        dir: RepoUri,
    },
    /// Fetch one file's bytes.
    Get {
        /// The publication-point directory.
        dir: RepoUri,
        /// File name within the directory.
        name: String,
    },
    /// Fetch a directory's canonical content digest — the digest a
    /// complete sync of the directory would produce. One tiny frame
    /// each way, so an incremental validator can confirm a cached
    /// subtree without transferring the listing (the moral equivalent
    /// of polling an RRDP notification file).
    Digest {
        /// The publication-point directory.
        dir: RepoUri,
    },
}

const REQ_LIST: u8 = 1;
const REQ_GET: u8 = 2;
const REQ_DIGEST: u8 = 3;

/// Encoded width of a listing entry's digest.
const DIGEST_LEN: usize = size_of::<Digest>();

impl Encode for RsyncRequest {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RsyncRequest::List { dir } => {
                out.push(REQ_LIST);
                dir.encode(out);
            }
            RsyncRequest::Get { dir, name } => write_get(out, dir, name),
            RsyncRequest::Digest { dir } => {
                out.push(REQ_DIGEST);
                dir.encode(out);
            }
        }
    }
}

impl Decode for RsyncRequest {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            REQ_LIST => Ok(RsyncRequest::List { dir: RepoUri::decode(r)? }),
            REQ_GET => Ok(RsyncRequest::Get { dir: RepoUri::decode(r)?, name: r.string()? }),
            REQ_DIGEST => Ok(RsyncRequest::Digest { dir: RepoUri::decode(r)? }),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

/// A server response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RsyncResponse {
    /// Directory listing.
    Listing {
        /// The directory listed (echoed so the client can correlate).
        dir: RepoUri,
        /// `(file name, digest)` pairs.
        entries: Vec<(String, Digest)>,
    },
    /// File contents.
    File {
        /// The file's directory.
        dir: RepoUri,
        /// The file's name.
        name: String,
        /// The bytes as stored (possibly corrupted at rest).
        bytes: Vec<u8>,
    },
    /// The requested directory or file does not exist.
    NotFound {
        /// The directory requested.
        dir: RepoUri,
        /// The file requested, if the request was a `Get`.
        name: Option<String>,
    },
    /// A directory's canonical content digest (answers
    /// [`RsyncRequest::Digest`]). An empty or unknown directory
    /// reports the canonical empty digest, matching what a complete
    /// sync of it would key to.
    DirDigest {
        /// The directory digested (echoed for correlation).
        dir: RepoUri,
        /// The canonical complete-sync content digest.
        digest: Digest,
    },
}

const RESP_LISTING: u8 = 1;
const RESP_FILE: u8 = 2;
const RESP_NOT_FOUND: u8 = 3;
const RESP_DIR_DIGEST: u8 = 4;

/// Encoded width of a frame's tag.
const TAG_LEN: usize = size_of::<u8>();

impl RsyncRequest {
    /// The frame of `RsyncRequest::Get { dir, name }`, encoded from
    /// borrowed parts.
    pub(crate) fn get_frame(dir: &RepoUri, name: &str) -> Vec<u8> {
        let mut out = Vec::with_capacity(TAG_LEN + dir.encoded_len() + LEN_PREFIX + name.len());
        write_get(&mut out, dir, name);
        out
    }
}

fn write_get(out: &mut Vec<u8>, dir: &RepoUri, name: &str) {
    out.push(REQ_GET);
    dir.encode(out);
    Writer::string(out, name);
}

impl RsyncResponse {
    /// The frame of a `Listing` reply for `dir`, encoded straight from
    /// borrowed `(name, digest)` entries into one buffer of exactly its
    /// size.
    pub(crate) fn listing_frame<'a, I>(dir: &RepoUri, entries: I) -> Vec<u8>
    where
        I: ExactSizeIterator<Item = (&'a str, Digest)> + Clone,
    {
        let names: usize = entries.clone().map(|(n, _)| LEN_PREFIX + n.len()).sum();
        let len = TAG_LEN + dir.encoded_len() + LEN_PREFIX + names + entries.len() * DIGEST_LEN;
        let mut out = Vec::with_capacity(len);
        write_listing(&mut out, dir, entries);
        out
    }

    /// The frame of a `File` reply carrying `dir/name`'s `bytes`, encoded
    /// straight from borrowed parts into one buffer of exactly its size.
    pub(crate) fn file_frame(dir: &RepoUri, name: &str, bytes: &[u8]) -> Vec<u8> {
        let len = TAG_LEN + dir.encoded_len() + LEN_PREFIX + name.len() + LEN_PREFIX + bytes.len();
        let mut out = Vec::with_capacity(len);
        write_file(&mut out, dir, name, bytes);
        out
    }

    /// Reads a `File` reply in place: its name and bytes, borrowed from
    /// `frame`. `Some` exactly when [`RsyncResponse::from_bytes`] would
    /// decode `frame` as a `File` with that name and those bytes: the
    /// same tag, URI rules, UTF-8 and length checks, and no trailing
    /// bytes.
    pub(crate) fn parse_file(frame: &[u8]) -> Option<(&str, &[u8])> {
        let mut r = Reader::new(frame);
        if r.u8().ok()? != RESP_FILE {
            return None;
        }
        RepoUri::skip(&mut r).ok()?;
        let name = r.str().ok()?;
        let bytes = r.bytes().ok()?;
        r.is_empty().then_some((name, bytes))
    }
}

fn write_listing<'a>(
    out: &mut Vec<u8>,
    dir: &RepoUri,
    entries: impl ExactSizeIterator<Item = (&'a str, Digest)>,
) {
    out.push(RESP_LISTING);
    dir.encode(out);
    out.extend_from_slice(&(entries.len() as u32).to_be_bytes());
    for (name, digest) in entries {
        Writer::string(out, name);
        digest.encode(out);
    }
}

fn write_file(out: &mut Vec<u8>, dir: &RepoUri, name: &str, bytes: &[u8]) {
    out.push(RESP_FILE);
    dir.encode(out);
    Writer::string(out, name);
    Writer::bytes(out, bytes);
}

impl Encode for RsyncResponse {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            RsyncResponse::Listing { dir, entries } => {
                write_listing(out, dir, entries.iter().map(|(n, d)| (n.as_str(), *d)));
            }
            RsyncResponse::File { dir, name, bytes } => write_file(out, dir, name, bytes),
            RsyncResponse::NotFound { dir, name } => {
                out.push(RESP_NOT_FOUND);
                dir.encode(out);
                name.encode(out);
            }
            RsyncResponse::DirDigest { dir, digest } => {
                out.push(RESP_DIR_DIGEST);
                dir.encode(out);
                digest.encode(out);
            }
        }
    }
}

impl Decode for RsyncResponse {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            RESP_LISTING => Ok(RsyncResponse::Listing {
                dir: RepoUri::decode(r)?,
                entries: Vec::<(String, Digest)>::decode(r)?,
            }),
            // The relying party reads `File` replies in place
            // (`parse_file`); this owned decode is its reference.
            RESP_FILE => Ok(RsyncResponse::File {
                dir: RepoUri::decode(r)?,
                name: r.string()?,
                bytes: r.bytes()?.to_vec(),
            }),
            RESP_NOT_FOUND => Ok(RsyncResponse::NotFound {
                dir: RepoUri::decode(r)?,
                name: Option::<String>::decode(r)?,
            }),
            RESP_DIR_DIGEST => Ok(RsyncResponse::DirDigest {
                dir: RepoUri::decode(r)?,
                digest: Digest::decode(r)?,
            }),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rpkisim_crypto::sha256;

    fn dir() -> RepoUri {
        RepoUri::new("rpki.sprint.example", &["repo"])
    }

    #[test]
    fn request_round_trips() {
        for req in [
            RsyncRequest::List { dir: dir() },
            RsyncRequest::Get { dir: dir(), name: "a.roa".to_owned() },
            RsyncRequest::Digest { dir: dir() },
        ] {
            assert_eq!(RsyncRequest::from_bytes(&req.to_bytes()).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trips() {
        for resp in [
            RsyncResponse::Listing {
                dir: dir(),
                entries: vec![("a.roa".to_owned(), sha256(b"x"))],
            },
            RsyncResponse::File { dir: dir(), name: "a.roa".to_owned(), bytes: vec![1, 2, 3] },
            RsyncResponse::NotFound { dir: dir(), name: Some("b.cer".to_owned()) },
            RsyncResponse::NotFound { dir: dir(), name: None },
            RsyncResponse::DirDigest { dir: dir(), digest: sha256(b"dir") },
        ] {
            assert_eq!(RsyncResponse::from_bytes(&resp.to_bytes()).unwrap(), resp);
        }
    }

    /// Requests of every kind, as a relying party encodes them.
    fn arb_request() -> impl Strategy<Value = RsyncRequest> {
        (0u8..3, 0usize..3).prop_map(|(kind, depth)| {
            let dir = RepoUri::new("rpki.sprint.example", &["repo", "ca"][..depth]);
            match kind {
                0 => RsyncRequest::List { dir },
                1 => RsyncRequest::Get { dir, name: format!("f{depth}.roa") },
                _ => RsyncRequest::Digest { dir },
            }
        })
    }

    /// Replies of every kind, as the server encodes them; half of them
    /// `File` replies.
    fn arb_reply() -> impl Strategy<Value = RsyncResponse> {
        (0u8..6, 0usize..3, proptest::collection::vec(any::<u8>(), 0..24)).prop_map(
            |(kind, n, bytes)| {
                let dir = RepoUri::new("rpki.sprint.example", &["repo", "ca"][..n]);
                let name = format!("f{n}.roa");
                match kind {
                    0..=2 => RsyncResponse::File { dir, name, bytes },
                    3 => RsyncResponse::Listing {
                        dir,
                        entries: (0..n)
                            .map(|i| (format!("f{i}.cer"), sha256(&[i as u8])))
                            .collect(),
                    },
                    4 => RsyncResponse::NotFound { dir, name: (n > 0).then_some(name) },
                    _ => RsyncResponse::DirDigest { dir, digest: sha256(&bytes) },
                }
            },
        )
    }

    /// `frame` after one of: nothing, a bit flip, a truncation, or
    /// trailing garbage — picked by `how`, placed by `at`.
    fn mutate(mut frame: Vec<u8>, how: u8, at: usize, garbage: &[u8]) -> Vec<u8> {
        match how {
            0 => {}
            1 => {
                let pos = at % frame.len();
                frame[pos] ^= 1 << (at % 8);
            }
            2 => frame.truncate(at % frame.len()),
            _ => frame.extend_from_slice(garbage),
        }
        frame
    }

    proptest! {
        /// Decoding is canonical on the wire too: a flipped frame that
        /// still decodes re-encodes to exactly the flipped bytes.
        #[test]
        fn flipped_frames_decode_canonically(
            req in arb_request(),
            reply in arb_reply(),
            at in any::<usize>(),
        ) {
            let req = mutate(req.to_bytes(), 1, at, &[]);
            if let Ok(decoded) = RsyncRequest::from_bytes(&req) {
                prop_assert_eq!(decoded.to_bytes(), req);
            }
            let reply = mutate(reply.to_bytes(), 1, at, &[]);
            if let Ok(decoded) = RsyncResponse::from_bytes(&reply) {
                prop_assert_eq!(decoded.to_bytes(), reply);
            }
        }

        /// The borrowed encoders write exactly the enum's bytes, each
        /// into a buffer of exactly its size.
        #[test]
        fn borrowed_frames_equal_the_enum_encoding(req in arb_request(), reply in arb_reply()) {
            if let RsyncRequest::Get { dir, name } = &req {
                let frame = RsyncRequest::get_frame(dir, name);
                prop_assert_eq!(frame.capacity(), frame.len());
                prop_assert_eq!(frame, req.to_bytes());
            }
            let frame = match &reply {
                RsyncResponse::File { dir, name, bytes } => RsyncResponse::file_frame(dir, name, bytes),
                RsyncResponse::Listing { dir, entries } => RsyncResponse::listing_frame(
                    dir,
                    entries.iter().map(|(n, d)| (n.as_str(), *d)),
                ),
                _ => return Ok(()),
            };
            prop_assert_eq!(frame.capacity(), frame.len());
            prop_assert_eq!(frame, reply.to_bytes());
        }

        /// The in-place `File` parse accepts exactly the frames the owned
        /// decoder reads as a `File`, with the same name and bytes:
        /// valid replies of every kind, bit flips, truncations and
        /// trailing garbage.
        #[test]
        fn in_place_file_parse_is_the_owned_decode(
            reply in arb_reply(),
            how in 0u8..4,
            at in any::<usize>(),
            garbage in proptest::collection::vec(any::<u8>(), 1..8),
        ) {
            let frame = mutate(reply.to_bytes(), how, at, &garbage);
            let owned = match RsyncResponse::from_bytes(&frame) {
                Ok(RsyncResponse::File { name, bytes, .. }) => Some((name, bytes)),
                _ => None,
            };
            let in_place = RsyncResponse::parse_file(&frame);
            prop_assert_eq!(in_place.map(|(n, b)| (n.to_owned(), b.to_vec())), owned);
        }
    }

    #[test]
    fn corrupted_frame_fails_decode() {
        let resp = RsyncResponse::Listing { dir: dir(), entries: vec![] };
        let mut bytes = resp.to_bytes();
        bytes[0] = 0x77; // smash the tag
        assert!(RsyncResponse::from_bytes(&bytes).is_err());
    }
}
