//! The RPKI object model for the `rpki-risk` workspace.
//!
//! Everything an RPKI authority can publish, in the shape the relevant
//! RFCs give it (simplified where the paper's footnotes say the detail
//! does not matter — each simplification is documented at its site):
//!
//! - [`ResourceCert`] — resource certificates binding arbitrary IP/AS
//!   resource sets to keys (RFC 6487 + RFC 3779 semantics).
//! - [`Roa`] — route origin authorizations with `maxLength`, signed via
//!   embedded one-time [`EeCert`]s (RFC 6482).
//! - [`Crl`] — certificate revocation lists (RFC 5280 profile).
//! - [`Manifest`] — per-CA publication manifests with file hashes
//!   (RFC 6486).
//! - [`RpkiObject`] — the tagged wire union repositories store.
//! - [`TrustAnchorLocator`] — the relying party's pinned root.
//!
//! Plus the substrate they share: a canonical binary [`codec`], the one
//! [`signed`] envelope (certificates, CRLs and manifests are each a
//! [`Signed`] value), simulated [`time`], and rsync-style [`uri`]s.
//!
//! All objects are immutable values: a CA "overwrites" an object by
//! publishing a different value under the same file name — which is
//! exactly the design decision (persistent names, out-of-band delivery,
//! issuer-controlled directories) whose side effects the paper studies.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cert;
pub mod codec;
pub mod crl;
pub mod manifest;
pub mod object;
mod resenc;
pub mod roa;
pub mod signed;
pub mod time;
pub mod uri;

pub use cert::{CertData, EeCert, EeCertData, ResourceCert};
pub use codec::{Decode, DecodeError, Encode, Reader, Writer};
pub use crl::{Crl, CrlData};
pub use manifest::{Manifest, ManifestData, ManifestEntry};
pub use object::{RpkiObject, TrustAnchorLocator};
pub use roa::{Roa, RoaData, RoaError, RoaPrefix};
pub use signed::{Signed, ToBeSigned};
pub use time::{Moment, Span, UpdateWindow, Validity};
pub use uri::{RepoUri, UriParseError};
