//! IP resource algebra for the `rpki-risk` workspace.
//!
//! The RPKI binds *arbitrary sets of IP addresses* (not single names) to
//! cryptographic keys, and every attack in *On the Risk of Misbehaving
//! RPKI Authorities* (HotNets '13) is ultimately an operation on those
//! sets: carving a target ROA's space out of a resource certificate,
//! checking RFC 3779 containment during chain validation, or finding the
//! covering ROAs that drive RFC 6811 origin validation.
//!
//! This crate provides the substrate:
//!
//! - [`Addr`], [`Family`] — IPv4/IPv6 addresses read as one `u128` value
//!   and stored as two `u64` halves (24 bytes; a [`Prefix`] is 24 too).
//! - [`Prefix`] — CIDR prefixes with cover/overlap tests and parsing.
//! - [`AddrRange`] — inclusive address ranges (RCs may hold non-CIDR
//!   ranges; the paper's Figure 3 carve-out produces exactly those).
//! - [`ResourceSet`] — canonical disjoint-sorted range sets with full
//!   lattice operations (union, intersection, difference, containment).
//! - [`Asn`], [`AsnSet`] — autonomous system numbers and sets thereof.
//!
//! Everything here is deterministic, allocation-light, and panics only
//! on programmer error (documented per method).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod asn;
pub mod prefix;
pub mod range;
pub mod set;

pub use addr::{Addr, AddrParseError, Family};
pub use asn::{Asn, AsnSet};
pub use prefix::{Prefix, PrefixParseError};
pub use range::AddrRange;
pub use set::ResourceSet;
