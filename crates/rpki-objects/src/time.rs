//! Simulated wall-clock time, and when an object counts in it.
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
use crate::signed::{Signed, ToBeSigned};

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

    /// Whether `self` falls after `last`, the last instant at which
    /// something still holds: the one expiry rule. A notAfter (RFC 6487
    /// §4.6.2), a nextUpdate (RFC 9286 §6.3) and a hold-down's end are
    /// all inclusive, so each lapses one second after it.
    pub fn is_past(self, last: Moment) -> bool {
        self > last
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

/// An inclusive validity window `[not_before, not_after]` (RFC 5280 §4.1.2.5; RFC 6487 §4.6).
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

    /// Whether `at` falls inside the window (RFC 5280 §6.1.3 (a)(2)).
    pub fn contains(&self, at: Moment) -> bool {
        !self.not_yet_valid_at(at) && !self.expired_at(at)
    }

    /// Whether `at` is past notAfter (RFC 6487 §4.6.2).
    pub fn expired_at(&self, at: Moment) -> bool {
        at.is_past(self.not_after)
    }

    /// Whether `at` is before notBefore (RFC 6487 §4.6.1).
    pub fn not_yet_valid_at(&self, at: Moment) -> bool {
        at < self.not_before
    }

    /// Where [`contains`](Self::contains) flips: `not_before`, `not_after + 1` (saturating).
    pub fn flips(&self) -> [Moment; 2] {
        [self.not_before, Moment(self.not_after.0.saturating_add(1))]
    }

    /// `self`, or `Invalid(inverted)` if it ends before it begins.
    pub(crate) fn checked(self, inverted: &'static str) -> Result<Self, DecodeError> {
        (self.not_before <= self.not_after).then_some(self).ok_or(DecodeError::Invalid(inverted))
    }
}

/// The thisUpdate/nextUpdate window of a manifest (RFC 9286 §4.2.1) or a CRL
/// (RFC 5280 §5.1.2.4–5): a [`Validity`] whose expiry, at its second
/// [`flips`](Validity::flips) instant, is the list's staleness (RFC 9286 §6.3).
pub trait UpdateWindow {
    /// The window from thisUpdate through nextUpdate.
    fn window(&self) -> Validity;
}

impl<T: ToBeSigned + UpdateWindow> Signed<T> {
    /// Whether the list is stale at `now`: past its nextUpdate.
    pub fn is_stale_at(&self, now: Moment) -> bool {
        self.data().window().expired_at(now)
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
        let window = Validity { not_before: Moment::decode(r)?, not_after: Moment::decode(r)? };
        window.checked("inverted validity window")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::crl::{Crl, CrlData};
    use crate::manifest::{Manifest, ManifestData};
    use rpkisim_crypto::KeyPair;

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

    // The edges of every "does this object count at t" rule, at t - 1,
    // t and t + 1. Each test also checks that the instant the relying
    // party's memo window is built from (`flips`) is exactly where its
    // predicate changes value.

    /// Whether `holds` changes value between `at - 1` and `at`.
    fn turns_at(holds: impl Fn(Moment) -> bool, at: Moment) -> bool {
        holds(Moment(at.0 - 1)) != holds(at)
    }

    #[test]
    fn not_before_is_the_first_valid_instant() {
        // RFC 6487 §4.6.1; RFC 5280 §4.1.2.5 ("inclusive").
        let v = Validity::new(Moment(1_000), Moment(5_000));
        assert!(v.not_yet_valid_at(Moment(999)) && !v.contains(Moment(999)));
        assert!(!v.not_yet_valid_at(Moment(1_000)) && v.contains(Moment(1_000)));
        assert!(!v.not_yet_valid_at(Moment(1_001)) && v.contains(Moment(1_001)));
        assert_eq!(v.flips()[0], Moment(1_000));
        assert!(turns_at(|at| v.contains(at), v.flips()[0]));
    }

    #[test]
    fn not_after_is_the_last_valid_instant() {
        // RFC 6487 §4.6.2; RFC 5280 §4.1.2.5 ("inclusive").
        let v = Validity::new(Moment(1_000), Moment(5_000));
        assert!(!v.expired_at(Moment(4_999)) && v.contains(Moment(4_999)));
        assert!(!v.expired_at(Moment(5_000)) && v.contains(Moment(5_000)));
        assert!(v.expired_at(Moment(5_001)) && !v.contains(Moment(5_001)));
        assert_eq!(v.flips()[1], Moment(5_001));
        assert!(turns_at(|at| v.contains(at), v.flips()[1]));
    }

    #[test]
    fn a_one_instant_window_holds_at_that_instant_only() {
        let v = Validity::new(Moment(7), Moment(7));
        assert!(!v.contains(Moment(6)) && v.contains(Moment(7)) && !v.contains(Moment(8)));
        assert_eq!(v.flips(), [Moment(7), Moment(8)]);
        assert_eq!(Validity::from_bytes(&v.to_bytes()), Ok(v));
    }

    #[test]
    fn a_window_ending_at_the_end_of_time_never_expires() {
        // The corpus publishes such windows. `not_after + 1` saturates:
        // the reported instant is the last one, where nothing turns, so
        // a memo window closed there only misses at `u64::MAX` itself.
        let v = Validity::new(Moment(10), Moment(u64::MAX));
        for at in [u64::MAX - 1, u64::MAX] {
            assert!(v.contains(Moment(at)) && !v.expired_at(Moment(at)));
        }
        assert_eq!(v.flips(), [Moment(10), Moment(u64::MAX)]);
        assert!(!turns_at(|at| v.contains(at), v.flips()[1]));
    }

    fn manifest_data(this_update: Moment, next_update: Moment) -> ManifestData {
        let issuer_key = KeyPair::from_seed("window-ca").id();
        ManifestData { issuer_key, number: 1, this_update, next_update, entries: vec![] }
    }

    fn crl_data(this_update: Moment, next_update: Moment) -> CrlData {
        let issuer_key = KeyPair::from_seed("window-ca").id();
        CrlData { issuer_key, number: 1, this_update, next_update, revoked: vec![] }
    }

    fn manifest(this_update: Moment, next_update: Moment) -> Manifest {
        Manifest::sign(manifest_data(this_update, next_update), &KeyPair::from_seed("window-ca"))
    }

    fn crl(this_update: Moment, next_update: Moment) -> Crl {
        Crl::sign(crl_data(this_update, next_update), &KeyPair::from_seed("window-ca"))
    }

    /// A list due at `t` is fresh at `t - 1` and `t` and stale at
    /// `t + 1`, and its window's second flip is where that turns. Only
    /// nextUpdate counts: before its thisUpdate a list is not stale.
    fn assert_fresh_through<T: ToBeSigned + UpdateWindow>(list: &Signed<T>, t: Moment) {
        assert!(!list.is_stale_at(Moment(0)));
        assert!(!list.is_stale_at(Moment(t.0 - 1)));
        assert!(!list.is_stale_at(t));
        assert!(list.is_stale_at(Moment(t.0 + 1)));
        let [_, stale_from] = list.data().window().flips();
        assert_eq!(stale_from, Moment(t.0 + 1));
        assert!(turns_at(|at| list.is_stale_at(at), stale_from));
    }

    #[test]
    fn a_manifest_is_fresh_through_its_next_update() {
        // RFC 9286 §6.3: stale once the current time is later than
        // nextUpdate.
        assert_fresh_through(&manifest(Moment(1_000), Moment(86_400)), Moment(86_400));
    }

    #[test]
    fn a_crl_is_fresh_through_its_next_update() {
        // RFC 5280 §6.3.3 (a): a new CRL is due once the current time
        // is later than nextUpdate.
        assert_fresh_through(&crl(Moment(1_000), Moment(86_400)), Moment(86_400));
    }

    #[test]
    fn a_list_due_at_the_end_of_time_is_never_stale() {
        let end = Moment(u64::MAX);
        let (mft, crl) = (manifest(Moment(0), end), crl(Moment(0), end));
        for at in [Moment(u64::MAX - 1), end] {
            assert!(!mft.is_stale_at(at) && !crl.is_stale_at(at));
        }
        assert_eq!(mft.data().window().flips()[1], end);
        assert_eq!(crl.data().window().flips()[1], end);
        assert!(!turns_at(|at| mft.is_stale_at(at), end));
    }

    #[test]
    fn an_update_window_may_be_one_instant_but_not_inverted() {
        let (mft, crl) = (manifest(Moment(5), Moment(5)), crl(Moment(5), Moment(5)));
        assert_eq!(Manifest::from_bytes(&mft.to_bytes()), Ok(mft.clone()));
        assert_eq!(Crl::from_bytes(&crl.to_bytes()), Ok(crl.clone()));
        // Encoding checks nothing; decoding refuses thisUpdate one past
        // nextUpdate.
        let (mft, crl) = (manifest_data(Moment(6), Moment(5)), crl_data(Moment(6), Moment(5)));
        assert_eq!(
            ManifestData::from_bytes(&mft.to_bytes()),
            Err(DecodeError::Invalid("manifest update window inverted"))
        );
        assert_eq!(
            CrlData::from_bytes(&crl.to_bytes()),
            Err(DecodeError::Invalid("CRL update window inverted"))
        );
    }

    #[test]
    #[should_panic(expected = "manifest update window inverted")]
    fn signing_refuses_an_inverted_manifest_window() {
        let _ = manifest(Moment(6), Moment(5));
    }

    #[test]
    #[should_panic(expected = "CRL update window inverted")]
    fn signing_refuses_an_inverted_crl_window() {
        let _ = crl(Moment(6), Moment(5));
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
