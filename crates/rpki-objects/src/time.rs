//! Simulated wall-clock time.
//!
//! RPKI objects carry validity windows; ROA expiry and delayed renewal
//! are one of the paper's triggers for Side Effect 6 ("the renewal of an
//! expiring ROA could be delayed, accidentally or maliciously"). The
//! whole workspace shares this simple second-granular clock type; the
//! discrete-event simulator advances a `Moment` deterministically.

use std::fmt;
use std::ops::{Add, Sub};

use serde::{Deserialize, Serialize};

use crate::codec::{Decode, DecodeError, Encode, Reader};

/// An instant of simulated time, in seconds since the simulation epoch.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Moment(pub u64);

/// A span of simulated time, in seconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct Span(pub u64);

impl Span {
    /// `n` seconds.
    pub const fn seconds(n: u64) -> Self {
        Span(n)
    }

    /// `n` hours.
    pub const fn hours(n: u64) -> Self {
        Span(n * 3600)
    }

    /// `n` days.
    pub const fn days(n: u64) -> Self {
        Span(n * 86_400)
    }
}

impl Moment {
    /// The simulation epoch.
    pub const EPOCH: Moment = Moment(0);

    /// Seconds since the epoch.
    #[inline]
    pub const fn secs(self) -> u64 {
        self.0
    }
}

impl Add<Span> for Moment {
    type Output = Moment;

    fn add(self, rhs: Span) -> Moment {
        Moment(self.0 + rhs.0)
    }
}

impl Sub<Span> for Moment {
    type Output = Moment;

    fn sub(self, rhs: Span) -> Moment {
        Moment(self.0.saturating_sub(rhs.0))
    }
}

impl Sub<Moment> for Moment {
    type Output = Span;

    fn sub(self, rhs: Moment) -> Span {
        Span(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for Moment {
    /// Renders as `d+hh:mm:ss` of simulated time.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let days = self.0 / 86_400;
        let rem = self.0 % 86_400;
        write!(f, "{}+{:02}:{:02}:{:02}", days, rem / 3600, (rem % 3600) / 60, rem % 60)
    }
}

/// An inclusive validity window `[not_before, not_after]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Validity {
    /// First instant at which the object is valid.
    pub not_before: Moment,
    /// Last instant at which the object is valid.
    pub not_after: Moment,
}

impl Validity {
    /// Builds a window.
    ///
    /// # Panics
    ///
    /// Panics if `not_before > not_after`.
    pub fn new(not_before: Moment, not_after: Moment) -> Self {
        assert!(not_before <= not_after, "inverted validity window");
        Validity { not_before, not_after }
    }

    /// A window starting at `from` and lasting `span`.
    pub fn starting(from: Moment, span: Span) -> Self {
        Validity::new(from, from + span)
    }

    /// Whether `at` falls inside the window.
    pub fn contains(&self, at: Moment) -> bool {
        self.not_before <= at && at <= self.not_after
    }

    /// Whether the window has expired by `at`.
    pub fn expired_at(&self, at: Moment) -> bool {
        at > self.not_after
    }

    /// Whether `other` lies entirely within `self` (issuers should not
    /// outlive their issued objects).
    pub fn encloses(&self, other: &Validity) -> bool {
        self.not_before <= other.not_before && other.not_after <= self.not_after
    }
}

impl Encode for Moment {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
    }
}

impl Decode for Moment {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(Moment(r.u64()?))
    }
}

/// Encoded width of a [`Validity`]: two [`Moment`]s, each a `u64`.
pub(crate) const VALIDITY_LEN: usize = 2 * size_of::<u64>();

impl Encode for Validity {
    fn encode(&self, out: &mut Vec<u8>) {
        self.not_before.encode(out);
        self.not_after.encode(out);
    }
}

impl Decode for Validity {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let not_before = Moment::decode(r)?;
        let not_after = Moment::decode(r)?;
        if not_before > not_after {
            return Err(DecodeError::Invalid("inverted validity window"));
        }
        Ok(Validity { not_before, not_after })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = Moment(100) + Span::hours(1);
        assert_eq!(t, Moment(3700));
        assert_eq!(t - Moment(100), Span(3600));
        assert_eq!(Moment(10) - Span(20), Moment(0)); // saturates
        assert_eq!(Span::days(2), Span(172_800));
    }

    #[test]
    fn validity_contains() {
        let v = Validity::starting(Moment(10), Span(5));
        assert!(!v.contains(Moment(9)));
        assert!(v.contains(Moment(10)));
        assert!(v.contains(Moment(15)));
        assert!(!v.contains(Moment(16)));
        assert!(v.expired_at(Moment(16)));
        assert!(!v.expired_at(Moment(15)));
    }

    #[test]
    fn validity_enclosure() {
        let outer = Validity::new(Moment(0), Moment(100));
        let inner = Validity::new(Moment(10), Moment(90));
        assert!(outer.encloses(&inner));
        assert!(!inner.encloses(&outer));
        assert!(outer.encloses(&outer));
    }

    #[test]
    fn codec_round_trip() {
        let v = Validity::new(Moment(7), Moment(8));
        assert_eq!(Validity::from_bytes(&v.to_bytes()).unwrap(), v);
    }

    #[test]
    fn codec_rejects_inverted_window() {
        let mut bytes = Vec::new();
        Moment(9).encode(&mut bytes);
        Moment(3).encode(&mut bytes);
        assert_eq!(
            Validity::from_bytes(&bytes),
            Err(DecodeError::Invalid("inverted validity window"))
        );
    }

    #[test]
    fn display_format() {
        assert_eq!(Moment(0).to_string(), "0+00:00:00");
        assert_eq!((Moment(0) + Span::days(3) + Span(3723)).to_string(), "3+01:02:03");
    }

    #[test]
    #[should_panic(expected = "inverted")]
    fn constructor_rejects_inverted_window() {
        let _ = Validity::new(Moment(2), Moment(1));
    }
}
