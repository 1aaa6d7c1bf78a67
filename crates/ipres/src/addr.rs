//! IP addresses with one integer value for both families.
//!
//! Every address reads as a `u128` through [`Addr::value`]: IPv4 in the
//! low 32 bits, IPv6 over the full width. Keeping one integer view lets
//! the range/set algebra in [`crate::set`] be family-agnostic: a
//! [`ResourceSet`](crate::ResourceSet) simply keeps one run list per
//! [`Family`].
//!
//! The value is stored as two `u64` halves rather than a `u128`, whose
//! 16-byte alignment would pad an [`Addr`] to 32 bytes; as halves it is
//! 24, and a [`Prefix`](crate::Prefix) packs family and length into one
//! byte beside them for 24 more. The traits are written by hand to keep
//! the behaviour of a `{ family, value: u128 }` struct's derives: order
//! by family then value, hash the family then the `u128`, print and
//! serialise the two fields.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// Address family of an [`Addr`], [`Prefix`](crate::Prefix), or range.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Family {
    /// IPv4: 32-bit addresses.
    V4,
    /// IPv6: 128-bit addresses.
    V6,
}

impl Family {
    /// Number of bits in an address of this family (32 or 128).
    #[inline]
    pub const fn bits(self) -> u8 {
        match self {
            Family::V4 => 32,
            Family::V6 => 128,
        }
    }

    /// The largest address value representable in this family.
    #[inline]
    pub const fn max_value(self) -> u128 {
        match self {
            Family::V4 => u32::MAX as u128,
            Family::V6 => u128::MAX,
        }
    }
}

impl fmt::Display for Family {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Family::V4 => f.write_str("IPv4"),
            Family::V6 => f.write_str("IPv6"),
        }
    }
}

/// A single IP address of either family.
///
/// Ordering sorts all IPv4 addresses before all IPv6 addresses and is
/// numeric within a family, which gives [`ResourceSet`](crate::ResourceSet)
/// a total canonical order.
#[derive(Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(into = "AddrFields", try_from = "AddrFields")]
pub struct Addr {
    hi: u64,
    lo: u64,
    family: Family,
}

/// The serialised shape of an [`Addr`]: `{"family", "value"}`.
#[derive(Clone, Copy, Serialize, Deserialize)]
struct AddrFields {
    family: Family,
    value: u128,
}

impl From<Addr> for AddrFields {
    fn from(a: Addr) -> Self {
        AddrFields { family: a.family, value: a.value() }
    }
}

impl TryFrom<AddrFields> for Addr {
    type Error = &'static str;

    fn try_from(f: AddrFields) -> Result<Self, Self::Error> {
        if f.value > f.family.max_value() {
            return Err("address value out of range for its family");
        }
        Ok(Addr::from_parts(f.family, f.value))
    }
}

/// Error parsing an [`Addr`] from text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddrParseError {
    input: String,
}

impl fmt::Display for AddrParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid IP address: {:?}", self.input)
    }
}

impl std::error::Error for AddrParseError {}

impl Addr {
    /// Builds an IPv4 address from its 32-bit value.
    #[inline]
    pub const fn v4(value: u32) -> Self {
        Addr::from_parts(Family::V4, value as u128)
    }

    /// Builds an IPv6 address from its 128-bit value.
    #[inline]
    pub const fn v6(value: u128) -> Self {
        Addr::from_parts(Family::V6, value)
    }

    /// Splits `value` into the stored halves; the caller has checked the
    /// family's width.
    #[inline]
    pub(crate) const fn from_parts(family: Family, value: u128) -> Self {
        Addr { hi: (value >> 64) as u64, lo: value as u64, family }
    }

    /// Builds an IPv4 address from dotted-quad octets.
    #[inline]
    pub const fn v4_octets(a: u8, b: u8, c: u8, d: u8) -> Self {
        Addr::v4(((a as u32) << 24) | ((b as u32) << 16) | ((c as u32) << 8) | d as u32)
    }

    /// Builds an address of `family` from a raw value.
    ///
    /// # Panics
    ///
    /// Panics if `value` exceeds the family's address width (programmer
    /// error: a v4 address must fit in 32 bits).
    #[inline]
    pub fn new(family: Family, value: u128) -> Self {
        assert!(value <= family.max_value(), "address value {value:#x} out of range for {family}");
        Addr::from_parts(family, value)
    }

    /// The address family.
    #[inline]
    pub const fn family(self) -> Family {
        self.family
    }

    /// The raw numeric value (low 32 bits meaningful for IPv4).
    #[inline]
    pub const fn value(self) -> u128 {
        ((self.hi as u128) << 64) | self.lo as u128
    }

    /// The address numerically after this one, or `None` at the top of
    /// the family's space.
    #[inline]
    pub fn succ(self) -> Option<Self> {
        let value = self.value();
        if value == self.family.max_value() {
            None
        } else {
            Some(Addr::from_parts(self.family, value + 1))
        }
    }

    /// The address numerically before this one, or `None` at zero.
    #[inline]
    pub fn pred(self) -> Option<Self> {
        let value = self.value();
        if value == 0 {
            None
        } else {
            Some(Addr::from_parts(self.family, value - 1))
        }
    }
}

impl Ord for Addr {
    #[inline]
    fn cmp(&self, other: &Self) -> Ordering {
        (self.family, self.hi, self.lo).cmp(&(other.family, other.hi, other.lo))
    }
}

impl PartialOrd for Addr {
    #[inline]
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Hash for Addr {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.family.hash(state);
        self.value().hash(state);
    }
}

impl fmt::Debug for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Addr").field("family", &self.family).field("value", &self.value()).finish()
    }
}

impl fmt::Display for Addr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.family {
            Family::V4 => {
                let v = self.lo as u32;
                write!(f, "{}.{}.{}.{}", v >> 24, (v >> 16) & 0xff, (v >> 8) & 0xff, v & 0xff)
            }
            Family::V6 => {
                // Uncompressed colon-hex is enough for a simulator; we
                // never round-trip through external tooling.
                let v = self.value();
                let groups: Vec<String> =
                    (0..8).rev().map(|i| format!("{:x}", (v >> (i * 16)) & 0xffff)).collect();
                f.write_str(&groups.join(":"))
            }
        }
    }
}

impl FromStr for Addr {
    type Err = AddrParseError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = || AddrParseError { input: s.to_owned() };
        if s.contains(':') {
            // IPv6: full or `::`-compressed colon-hex.
            let parse_groups = |part: &str| -> Result<Vec<u128>, AddrParseError> {
                if part.is_empty() {
                    return Ok(Vec::new());
                }
                part.split(':')
                    .map(|g| {
                        u128::from_str_radix(g, 16).map_err(|_| err()).and_then(|v| {
                            if v > 0xffff {
                                Err(err())
                            } else {
                                Ok(v)
                            }
                        })
                    })
                    .collect()
            };
            let (head, tail) = match s.find("::") {
                Some(pos) => (&s[..pos], &s[pos + 2..]),
                None => (s, ""),
            };
            let head_groups = parse_groups(head)?;
            if s.contains("::") {
                let tail_groups = parse_groups(tail)?;
                if head_groups.len() + tail_groups.len() > 7 {
                    return Err(err());
                }
                let mut groups = head_groups;
                groups.resize(8 - tail_groups.len(), 0);
                groups.extend(tail_groups);
                let mut v: u128 = 0;
                for g in groups {
                    v = (v << 16) | g;
                }
                Ok(Addr::v6(v))
            } else {
                if head_groups.len() != 8 {
                    return Err(err());
                }
                let mut v: u128 = 0;
                for g in head_groups {
                    v = (v << 16) | g;
                }
                Ok(Addr::v6(v))
            }
        } else {
            let octets: Vec<&str> = s.split('.').collect();
            if octets.len() != 4 {
                return Err(err());
            }
            let mut v: u32 = 0;
            for o in octets {
                let b: u8 = o.parse().map_err(|_| err())?;
                v = (v << 8) | b as u32;
            }
            Ok(Addr::v4(v))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v4_display_round_trip() {
        let a = Addr::v4_octets(63, 160, 0, 1);
        assert_eq!(a.to_string(), "63.160.0.1");
        assert_eq!("63.160.0.1".parse::<Addr>().unwrap(), a);
    }

    #[test]
    fn v4_rejects_garbage() {
        assert!("63.160.0".parse::<Addr>().is_err());
        assert!("63.160.0.256".parse::<Addr>().is_err());
        assert!("hello".parse::<Addr>().is_err());
        assert!("1.2.3.4.5".parse::<Addr>().is_err());
    }

    #[test]
    fn v6_parse_full_and_compressed() {
        let full = "2001:db8:0:0:0:0:0:1".parse::<Addr>().unwrap();
        let compressed = "2001:db8::1".parse::<Addr>().unwrap();
        assert_eq!(full, compressed);
        assert_eq!(full.family(), Family::V6);
        assert_eq!(full.value(), 0x2001_0db8_0000_0000_0000_0000_0000_0001);
    }

    #[test]
    fn v6_all_zero_compression() {
        assert_eq!("::".parse::<Addr>().unwrap(), Addr::v6(0));
        assert_eq!("::1".parse::<Addr>().unwrap(), Addr::v6(1));
        assert_eq!("1::".parse::<Addr>().unwrap().value() >> 112, 1);
    }

    #[test]
    fn v6_rejects_garbage() {
        assert!("2001:db8".parse::<Addr>().is_err());
        assert!("1:2:3:4:5:6:7:8:9".parse::<Addr>().is_err());
        assert!("12345::".parse::<Addr>().is_err());
    }

    #[test]
    fn ordering_puts_v4_before_v6() {
        assert!(Addr::v4(u32::MAX) < Addr::v6(0));
    }

    #[test]
    fn succ_and_pred() {
        assert_eq!(Addr::v4(1).pred(), Some(Addr::v4(0)));
        assert_eq!(Addr::v4(0).pred(), None);
        assert_eq!(Addr::v4(u32::MAX).succ(), None);
        assert_eq!(Addr::v4(41).succ(), Some(Addr::v4(42)));
        assert_eq!(Addr::v6(u128::MAX).succ(), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn v4_value_overflow_panics() {
        let _ = Addr::new(Family::V4, 1 << 33);
    }
}
