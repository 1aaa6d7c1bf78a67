//! CIDR prefixes.
//!
//! A [`Prefix`] is the unit the RPKI reasons about: ROAs authorise a
//! prefix (plus subprefixes up to a max length), BGP routes carry one,
//! and RFC 6811's *cover* relation between a VRP's prefix and a route's
//! prefix decides validity. The paper's footnote 1 defines *covers*
//! exactly as implemented by [`Prefix::covers`].

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::addr::{Addr, Family};
use crate::range::AddrRange;

/// A CIDR prefix: a base address and a length.
///
/// Invariant: the host bits below `len` are zero, and `len` does not
/// exceed the family's address width. Constructors enforce both.
///
/// Stored as the base address's two `u64` halves and one byte holding
/// family and length, so a prefix is 24 bytes; it orders, hashes,
/// prints and serialises as the pair `(addr, len)`.
#[derive(Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(into = "PrefixFields", try_from = "PrefixFields")]
pub struct Prefix {
    hi: u64,
    lo: u64,
    /// The length for IPv4; `V6_TAG + len` for IPv6.
    tag: u8,
}

/// The first IPv6 `tag`: IPv4 tags are the lengths 0..=32.
const V6_TAG: u8 = 33;

/// The serialised shape of a [`Prefix`]: `{"addr", "len"}`.
#[derive(Clone, Copy, Serialize, Deserialize)]
struct PrefixFields {
    addr: Addr,
    len: u8,
}

impl From<Prefix> for PrefixFields {
    fn from(p: Prefix) -> Self {
        PrefixFields { addr: p.addr(), len: p.len() }
    }
}

impl TryFrom<PrefixFields> for Prefix {
    type Error = &'static str;

    fn try_from(f: PrefixFields) -> Result<Self, Self::Error> {
        if f.len > f.addr.family().bits() {
            return Err("prefix length exceeds its family's width");
        }
        Ok(Prefix::new(f.addr, f.len))
    }
}

/// Error parsing a [`Prefix`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrefixParseError {
    input: String,
}

impl fmt::Display for PrefixParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid prefix: {:?}", self.input)
    }
}

impl std::error::Error for PrefixParseError {}

impl Prefix {
    /// Builds a prefix, normalising by zeroing host bits.
    ///
    /// # Panics
    ///
    /// Panics if `len` exceeds the address family's width.
    pub fn new(addr: Addr, len: u8) -> Self {
        let bits = addr.family().bits();
        assert!(len <= bits, "prefix length {len} exceeds {bits} bits");
        let masked = addr.value() & Self::mask(addr.family(), len);
        let tag = match addr.family() {
            Family::V4 => len,
            Family::V6 => V6_TAG + len,
        };
        Prefix { hi: (masked >> 64) as u64, lo: masked as u64, tag }
    }

    /// Convenience constructor for IPv4 prefixes from octets.
    pub fn v4(a: u8, b: u8, c: u8, d: u8, len: u8) -> Self {
        Prefix::new(Addr::v4_octets(a, b, c, d), len)
    }

    /// The network mask for `len` bits in `family`.
    fn mask(family: Family, len: u8) -> u128 {
        let bits = family.bits();
        if len == 0 {
            0
        } else {
            let shift = bits - len;
            (family.max_value() >> shift) << shift
        }
    }

    /// The base address's value.
    #[inline]
    const fn value(self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }

    /// The (host-bits-zero) base address.
    #[inline]
    pub const fn addr(self) -> Addr {
        Addr::from_parts(self.family(), self.value())
    }

    /// The prefix length.
    ///
    /// Length 0 is the default route (the whole address space), not
    /// emptiness.
    #[allow(clippy::len_without_is_empty)]
    #[inline]
    pub const fn len(self) -> u8 {
        if self.tag < V6_TAG {
            self.tag
        } else {
            self.tag - V6_TAG
        }
    }

    /// The address family.
    #[inline]
    pub const fn family(self) -> Family {
        if self.tag < V6_TAG {
            Family::V4
        } else {
            Family::V6
        }
    }

    /// First address in the prefix (same as [`Prefix::addr`]).
    #[inline]
    pub const fn first(self) -> Addr {
        self.addr()
    }

    /// Last address in the prefix.
    pub fn last(self) -> Addr {
        let fam = self.family();
        let hi = self.value() | !Self::mask(fam, self.len()) & fam.max_value();
        Addr::new(fam, hi)
    }

    /// The prefix as an inclusive address range.
    pub fn range(self) -> AddrRange {
        AddrRange::new(self.first(), self.last())
    }

    /// Whether `self` covers `other` per the paper's footnote 1:
    /// `other`'s address space is a subset of `self`'s (equality counts).
    ///
    /// Always false across families.
    pub fn covers(self, other: Prefix) -> bool {
        self.family() == other.family()
            && self.len() <= other.len()
            && other.value() & Self::mask(self.family(), self.len()) == self.value()
    }

    /// Whether `self` and `other` share any addresses.
    pub fn overlaps(self, other: Prefix) -> bool {
        self.covers(other) || other.covers(self)
    }

    /// Whether `addr` falls inside this prefix.
    pub fn contains(self, addr: Addr) -> bool {
        addr.family() == self.family()
            && addr.value() & Self::mask(self.family(), self.len()) == self.value()
    }

    /// The immediate parent prefix (one bit shorter), or `None` for the
    /// default prefix.
    pub fn parent(self) -> Option<Prefix> {
        if self.len() == 0 {
            None
        } else {
            Some(Prefix::new(self.addr(), self.len() - 1))
        }
    }

    /// The two immediate children (one bit longer), or `None` when the
    /// prefix is already a host route.
    pub fn children(self) -> Option<(Prefix, Prefix)> {
        let (bits, len) = (self.family().bits(), self.len());
        if len == bits {
            return None;
        }
        let left = Prefix::new(self.addr(), len + 1);
        let branch = 1u128 << (bits - len - 1);
        let right = Prefix::new(Addr::new(self.family(), self.value() | branch), len + 1);
        Some((left, right))
    }

    /// Iterates over all subprefixes of `self` with exactly length
    /// `len`, in address order.
    ///
    /// # Panics
    ///
    /// Panics if `len < self.len()`, if `len` exceeds the family width,
    /// or if the expansion would exceed 2^24 prefixes (guards against
    /// accidentally iterating a /0 into host routes).
    pub fn subprefixes(self, len: u8) -> impl Iterator<Item = Prefix> {
        let bits = self.family().bits();
        assert!(len >= self.len() && len <= bits, "bad subprefix length {len}");
        let extra = (len - self.len()) as u32;
        assert!(extra <= 24, "refusing to expand {extra} extra bits of subprefixes");
        let count: u128 = 1 << extra;
        let step: u128 = 1 << (bits - len);
        let base = self.value();
        let family = self.family();
        (0..count).map(move |i| Prefix::new(Addr::new(family, base + i * step), len))
    }
}

impl fmt::Display for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.addr(), self.len())
    }
}

impl fmt::Debug for Prefix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Prefix({self})")
    }
}

/// Prefixes order by family, then base address, then length — so a
/// prefix sorts immediately before its subprefixes, which makes sorted
/// scans cover-friendly.
impl Ord for Prefix {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        // Within one family the tag orders as the length does.
        (self.family(), self.hi, self.lo, self.tag).cmp(&(
            other.family(),
            other.hi,
            other.lo,
            other.tag,
        ))
    }
}

impl PartialOrd for Prefix {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Prefix {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.addr().hash(state);
        self.len().hash(state);
    }
}

impl FromStr for Prefix {
    type Err = PrefixParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || PrefixParseError { input: s.to_owned() };
        let (addr_s, len_s) = s.split_once('/').ok_or_else(err)?;
        let addr: Addr = addr_s.parse().map_err(|_| err())?;
        let len: u8 = len_s.parse().map_err(|_| err())?;
        if len > addr.family().bits() {
            return Err(err());
        }
        Ok(Prefix::new(addr, len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(s: &str) -> Prefix {
        s.parse().unwrap()
    }

    #[test]
    fn parse_and_display() {
        assert_eq!(p("63.160.0.0/12").to_string(), "63.160.0.0/12");
        assert_eq!(p("0.0.0.0/0").to_string(), "0.0.0.0/0");
        assert_eq!(p("2001:db8::/32").to_string(), "2001:db8:0:0:0:0:0:0/32");
    }

    #[test]
    fn constructor_zeroes_host_bits() {
        assert_eq!(Prefix::v4(63, 174, 23, 9, 20), p("63.174.16.0/20"));
    }

    #[test]
    fn parse_rejects_bad_lengths() {
        assert!("1.2.3.4/33".parse::<Prefix>().is_err());
        assert!("1.2.3.4".parse::<Prefix>().is_err());
        assert!("::/129".parse::<Prefix>().is_err());
    }

    #[test]
    fn covers_paper_example() {
        // Footnote 1: 63.160.0.0/12 covers 63.168.93.0/24.
        assert!(p("63.160.0.0/12").covers(p("63.168.93.0/24")));
        assert!(p("63.160.0.0/12").covers(p("63.160.0.0/12")));
        assert!(!p("63.168.93.0/24").covers(p("63.160.0.0/12")));
        assert!(!p("63.160.0.0/12").covers(p("64.0.0.0/24")));
    }

    #[test]
    fn covers_is_family_scoped() {
        assert!(!p("0.0.0.0/0").covers(p("::/0")));
    }

    #[test]
    fn first_last_range() {
        let pre = p("63.174.16.0/20");
        assert_eq!(pre.first().to_string(), "63.174.16.0");
        assert_eq!(pre.last().to_string(), "63.174.31.255");
    }

    #[test]
    fn parent_children_round_trip() {
        let pre = p("63.174.16.0/20");
        let (l, r) = pre.children().unwrap();
        assert_eq!(l, p("63.174.16.0/21"));
        assert_eq!(r, p("63.174.24.0/21"));
        assert_eq!(l.parent().unwrap(), pre);
        assert_eq!(r.parent().unwrap(), pre);
        assert!(p("0.0.0.0/0").parent().is_none());
        assert!(p("1.2.3.4/32").children().is_none());
    }

    #[test]
    fn subprefix_enumeration() {
        let subs: Vec<Prefix> = p("63.174.16.0/20").subprefixes(22).collect();
        assert_eq!(
            subs,
            vec![
                p("63.174.16.0/22"),
                p("63.174.20.0/22"),
                p("63.174.24.0/22"),
                p("63.174.28.0/22"),
            ]
        );
        // len == self.len yields exactly self.
        assert_eq!(p("10.0.0.0/8").subprefixes(8).collect::<Vec<_>>(), vec![p("10.0.0.0/8")]);
    }

    #[test]
    fn contains_addr() {
        assert!(p("63.160.0.0/12").contains("63.174.23.0".parse().unwrap()));
        assert!(!p("63.160.0.0/12").contains("63.128.0.0".parse().unwrap()));
    }

    #[test]
    fn ordering_sorts_cover_before_covered() {
        let mut v = vec![p("63.174.16.0/22"), p("63.160.0.0/12"), p("63.174.16.0/20")];
        v.sort();
        assert_eq!(v, vec![p("63.160.0.0/12"), p("63.174.16.0/20"), p("63.174.16.0/22")]);
    }

    #[test]
    #[should_panic(expected = "refusing to expand")]
    fn subprefix_guard() {
        let _ = p("0.0.0.0/0").subprefixes(32);
    }
}
