//! rsync-style repository URIs.
//!
//! RFC 6481 stores RPKI objects at publication points named by rsync
//! URIs. The *location* of an object matters enormously in the flipped
//! threat model: objects live in directories **controlled by their
//! issuer** (not their subject), which is what makes stealthy revocation
//! (Side Effect 2) and the repository-inside-its-own-ROA circularity
//! (Side Effect 7) possible. A [`RepoUri`] names a repository host
//! (module) and a path below it.

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use serde::{Json, Serialize};

use crate::codec::{Decode, DecodeError, Encode, Reader, Writer, LEN_PREFIX};

/// An rsync-style URI: `rsync://<host>/<path...>`.
///
/// Clones share one allocation, so a URI is as cheap to copy into a
/// probe, an outcome or a map key as a reference count. Ordering,
/// equality, hashing, the wire encoding and the JSON form are those of
/// the `(host, path)` pair it wraps.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RepoUri(Arc<UriParts>);

#[derive(PartialEq, Eq, PartialOrd, Ord, Hash, Serialize)]
struct UriParts {
    /// The repository host, e.g. `rpki.sprint.example`. Repositories are
    /// registered in the network simulator under this name; whether the
    /// host is *reachable* depends on BGP (Section 6 of the paper).
    host: String,
    /// Path components below the host, e.g. `["repo", "a1b2c3.roa"]`.
    path: Vec<String>,
}

/// Error parsing a [`RepoUri`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UriParseError(String);

impl fmt::Display for UriParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid rsync URI: {:?}", self.0)
    }
}

impl std::error::Error for UriParseError {}

impl RepoUri {
    /// Builds a URI from a host and path components.
    ///
    /// # Panics
    ///
    /// Panics if the host or any component is empty or contains `/`
    /// (programmer error in fixture code).
    pub fn new(host: &str, path: &[&str]) -> Self {
        assert!(!host.is_empty() && !host.contains('/'), "bad URI host {host:?}");
        for c in path {
            assert!(!c.is_empty() && !c.contains('/'), "bad URI path component {c:?}");
        }
        Self::from_parts(host.to_owned(), path.iter().map(|s| (*s).to_owned()).collect())
    }

    fn from_parts(host: String, path: Vec<String>) -> Self {
        RepoUri(Arc::new(UriParts { host, path }))
    }

    /// The repository host.
    pub fn host(&self) -> &str {
        &self.0.host
    }

    /// The path components.
    pub fn path(&self) -> &[String] {
        &self.0.path
    }

    /// The final path component (the object's file name), if any.
    pub fn file_name(&self) -> Option<&str> {
        self.path().last().map(String::as_str)
    }

    /// A new URI with `component` appended.
    pub fn join(&self, component: &str) -> RepoUri {
        assert!(
            !component.is_empty() && !component.contains('/'),
            "bad URI path component {component:?}"
        );
        let mut path = self.path().to_vec();
        path.push(component.to_owned());
        Self::from_parts(self.host().to_owned(), path)
    }

    /// Whether `self` is a directory prefix of `other` (same host, path
    /// is a proper or improper prefix).
    pub fn contains(&self, other: &RepoUri) -> bool {
        let (a, b) = (self.path(), other.path());
        self.host() == other.host() && a.len() <= b.len() && a.iter().zip(b).all(|(a, b)| a == b)
    }

    /// The exact length of this URI's encoding.
    pub fn encoded_len(&self) -> usize {
        let path: usize = self.path().iter().map(|c| LEN_PREFIX + c.len()).sum();
        LEN_PREFIX + self.host().len() + LEN_PREFIX + path
    }

    /// Reads past one encoded URI, checking it exactly as
    /// [`RepoUri::decode`] does, without allocating.
    pub fn skip(r: &mut Reader<'_>) -> Result<(), DecodeError> {
        Self::read(r, |_| {}).map(drop)
    }

    /// The one URI reader: takes the host and then each path component
    /// from `r`, borrowed, checks each as it is read, and hands the
    /// components to `component` in order. Returns the host.
    fn read<'a>(
        r: &mut Reader<'a>,
        mut component: impl FnMut(&'a str),
    ) -> Result<&'a str, DecodeError> {
        let host = r.str()?;
        if host.is_empty() || host.contains('/') {
            return Err(DecodeError::Invalid("bad URI host"));
        }
        for _ in 0..r.seq_len()? {
            let c = r.str()?;
            if c.is_empty() || c.contains('/') {
                return Err(DecodeError::Invalid("bad URI path component"));
            }
            component(c);
        }
        Ok(host)
    }
}

impl fmt::Display for RepoUri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "rsync://{}", self.host())?;
        for c in self.path() {
            write!(f, "/{c}")?;
        }
        Ok(())
    }
}

impl Serialize for RepoUri {
    fn to_json(&self) -> Json {
        self.0.to_json()
    }
}

impl fmt::Debug for RepoUri {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "RepoUri({self})")
    }
}

impl FromStr for RepoUri {
    type Err = UriParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || UriParseError(s.to_owned());
        let rest = s.strip_prefix("rsync://").ok_or_else(err)?;
        let mut parts = rest.split('/');
        let host = parts.next().filter(|h| !h.is_empty()).ok_or_else(err)?;
        let path: Vec<String> = parts.map(str::to_owned).collect();
        if path.iter().any(String::is_empty) {
            return Err(err());
        }
        Ok(Self::from_parts(host.to_owned(), path))
    }
}

impl Encode for RepoUri {
    fn encode(&self, out: &mut Vec<u8>) {
        Writer::string(out, self.host());
        self.path().encode(out);
    }
}

impl Decode for RepoUri {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let mut path = Vec::new();
        let host = Self::read(r, |c| path.push(c.to_owned()))?.to_owned();
        Ok(Self::from_parts(host, path))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn parse_and_display() {
        let u: RepoUri = "rsync://rpki.sprint.example/repo/x.roa".parse().unwrap();
        assert_eq!(u.host(), "rpki.sprint.example");
        assert_eq!(u.file_name(), Some("x.roa"));
        assert_eq!(u.to_string(), "rsync://rpki.sprint.example/repo/x.roa");
    }

    #[test]
    fn parse_host_only() {
        let u: RepoUri = "rsync://h".parse().unwrap();
        assert_eq!(u.path(), &[] as &[String]);
        assert_eq!(u.file_name(), None);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("http://x/y".parse::<RepoUri>().is_err());
        assert!("rsync://".parse::<RepoUri>().is_err());
        assert!("rsync://h//double".parse::<RepoUri>().is_err());
    }

    #[test]
    fn join_and_contains() {
        let dir = RepoUri::new("h", &["repo"]);
        let file = dir.join("a.cer");
        assert_eq!(file.to_string(), "rsync://h/repo/a.cer");
        assert!(dir.contains(&file));
        assert!(dir.contains(&dir));
        assert!(!file.contains(&dir));
        assert!(!RepoUri::new("other", &["repo"]).contains(&file));
    }

    #[test]
    fn codec_round_trip() {
        let u = RepoUri::new("rpki.arin.example", &["repo", "sprint", "rc.cer"]);
        let bytes = u.to_bytes();
        assert_eq!(RepoUri::from_bytes(&bytes).unwrap(), u);
        assert_eq!(u.encoded_len(), bytes.len());
        let mut r = Reader::new(&bytes);
        assert_eq!(RepoUri::skip(&mut r), Ok(()));
        assert!(r.is_empty());
    }

    #[test]
    fn codec_rejects_bad_components() {
        let mut bytes = Vec::new();
        Writer::string(&mut bytes, "host");
        vec!["ok".to_owned(), "bad/slash".to_owned()].encode(&mut bytes);
        assert!(matches!(RepoUri::from_bytes(&bytes), Err(DecodeError::Invalid(_))));
        assert!(matches!(RepoUri::skip(&mut Reader::new(&bytes)), Err(DecodeError::Invalid(_))));
    }

    #[test]
    #[should_panic(expected = "bad URI path component")]
    fn join_rejects_slash() {
        let _ = RepoUri::new("h", &[]).join("a/b");
    }

    /// The `(host, path)` pair a [`RepoUri`] must behave as.
    type Pair = (String, Vec<String>);

    /// Short names over letters and over `-`, `.` and digits, which
    /// sort below and above `/`, so display order and pair order
    /// disagree and small draws collide.
    fn arb_name() -> impl Strategy<Value = String> {
        const CHARS: &[u8] = b"ab-.09";
        proptest::collection::vec(0..CHARS.len(), 1..3)
            .prop_map(|ix| ix.into_iter().map(|i| char::from(CHARS[i])).collect())
    }

    fn arb_pair() -> impl Strategy<Value = Pair> {
        (arb_name(), proptest::collection::vec(arb_name(), 0..4))
    }

    fn uri(pair: &Pair) -> RepoUri {
        let path: Vec<&str> = pair.1.iter().map(String::as_str).collect();
        RepoUri::new(&pair.0, &path)
    }

    fn hash_of(value: &impl std::hash::Hash) -> u64 {
        use std::hash::{BuildHasher, BuildHasherDefault};
        BuildHasherDefault::<std::collections::hash_map::DefaultHasher>::default().hash_one(value)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Every comparison, hash, encoding and rendering of a
        /// [`RepoUri`] is its pair's, and a clone is the same
        /// allocation.
        #[test]
        fn repo_uri_is_its_pair(a in arb_pair(), b in arb_pair()) {
            let (ua, ub) = (uri(&a), uri(&b));
            prop_assert_eq!(ua.cmp(&ub), a.cmp(&b));
            prop_assert_eq!(ua == ub, a == b);
            for (u, pair) in [(&ua, &a), (&ub, &b)] {
                prop_assert_eq!(hash_of(u), hash_of(pair));
                let mut bytes = Vec::new();
                pair.0.encode(&mut bytes);
                pair.1.encode(&mut bytes);
                prop_assert_eq!(&u.to_bytes(), &bytes);
                prop_assert_eq!(&RepoUri::from_bytes(&bytes).unwrap(), u);
                prop_assert_eq!(&<Pair>::from_bytes(&bytes).unwrap(), pair);
                let shown: String = pair.1.iter().map(|c| format!("/{c}")).collect();
                prop_assert_eq!(u.to_string(), format!("rsync://{}{shown}", pair.0));
                let json = Json::Object(vec![
                    ("host".to_owned(), pair.0.to_json()),
                    ("path".to_owned(), pair.1.to_json()),
                ]);
                prop_assert_eq!(u.to_json(), json);
                let copy = u.clone();
                prop_assert_eq!(&copy, u);
                prop_assert!(std::ptr::eq(copy.host(), u.host()), "a clone copied the host");
                prop_assert!(std::ptr::eq(copy.path(), u.path()), "a clone copied the path");
            }
        }
    }
}
