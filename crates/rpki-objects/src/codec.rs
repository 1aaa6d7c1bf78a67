//! Canonical binary encoding.
//!
//! Repositories store *bytes*; relying parties decode and verify them.
//! Keeping a real wire format (rather than passing Rust structs around)
//! is what lets the simulator corrupt objects in transit byte-for-byte
//! (Side Effects 6–7) and lets manifests commit to file hashes exactly
//! as RFC 6486 does.
//!
//! The format is a minimal deterministic TLV-free layout: fixed-width
//! big-endian integers, length-prefixed byte strings, `u32`-counted
//! sequences, one-byte option tags. Every encodable type has a single
//! canonical byte representation, so `encode(decode(b)) == b` for every
//! `b` that decodes (DESIGN.md invariant 13): signatures and digests are
//! well-defined, and a signature can be checked over the bytes that
//! arrived.

use std::fmt;

/// Serialises a value into canonical bytes.
pub trait Encode {
    /// Appends this value's canonical encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Convenience: this value's canonical encoding as a fresh vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }
}

/// Deserialises a value from canonical bytes.
pub trait Decode: Sized {
    /// Reads this value from the front of `r`.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Convenience: decodes a value that must consume all of `bytes`.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        let mut r = Reader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(DecodeError::TrailingBytes(r.remaining()));
        }
        Ok(v)
    }
}

/// Error decoding canonical bytes. Corruption injected by the fault
/// model usually surfaces here or as a signature failure downstream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input ended before the value was complete.
    Truncated,
    /// A tag or discriminant byte held an impossible value.
    BadTag(u8),
    /// A length prefix exceeded sane bounds or remaining input.
    BadLength(u64),
    /// A string field was not UTF-8.
    BadUtf8,
    /// A domain invariant failed (e.g. prefix length > family bits).
    Invalid(&'static str),
    /// Extra bytes followed a complete value.
    TrailingBytes(usize),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::Truncated => f.write_str("truncated input"),
            DecodeError::BadTag(t) => write!(f, "bad tag byte {t:#04x}"),
            DecodeError::BadLength(n) => write!(f, "implausible length {n}"),
            DecodeError::BadUtf8 => f.write_str("invalid UTF-8 in string field"),
            DecodeError::Invalid(what) => write!(f, "invalid value: {what}"),
            DecodeError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Hard ceiling on any single length prefix (bytes or element count).
///
/// No legitimate object in this model comes near 16 MiB; a prefix
/// above it is adversarial regardless of how much input follows, and
/// rejecting it *before* any `take`/allocation keeps oversized-length
/// corpus cases from turning into memory pressure.
pub const MAX_LEN: usize = 16 * 1024 * 1024;

/// Encoded width of a length prefix or sequence count: a big-endian
/// `u32` ahead of every byte string, string and sequence.
pub const LEN_PREFIX: usize = 4;

/// A cursor over input bytes.
pub struct Reader<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over `data`.
    pub fn new(data: &'a [u8]) -> Self {
        Reader { data, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Whether all input was consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    /// Takes exactly `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < n {
            return Err(DecodeError::Truncated);
        }
        let out = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a single byte.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }

    /// Takes exactly `N` bytes as a fixed-size array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], DecodeError> {
        // The slice is exactly N long by construction (`take` returned
        // Ok), so the conversion cannot fail.
        self.take(N)?.try_into().map_err(|_| DecodeError::Truncated)
    }

    /// Reads a big-endian u16.
    pub fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(self.array()?))
    }

    /// Reads a big-endian u32.
    pub fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(self.array()?))
    }

    /// Reads a big-endian u64.
    pub fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(self.array()?))
    }

    /// Reads a big-endian u128.
    pub fn u128(&mut self) -> Result<u128, DecodeError> {
        Ok(u128::from_be_bytes(self.array()?))
    }

    /// Checks a decoded length prefix for plausibility *before* any
    /// bytes are taken or buffers sized from it: it must fit both the
    /// remaining input and the global [`MAX_LEN`] ceiling.
    fn plausible_len(&self, len: u32) -> Result<usize, DecodeError> {
        let len = len as usize;
        if len > self.remaining() || len > MAX_LEN {
            return Err(DecodeError::BadLength(len as u64));
        }
        Ok(len)
    }

    /// Reads a u32-length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.u32()?;
        let len = self.plausible_len(len)?;
        self.take(len)
    }

    /// Reads a u32-length-prefixed UTF-8 string, borrowed from the input.
    pub fn str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.bytes()?).map_err(|_| DecodeError::BadUtf8)
    }

    /// Reads a u32-length-prefixed UTF-8 string.
    pub fn string(&mut self) -> Result<String, DecodeError> {
        self.str().map(str::to_owned)
    }

    /// Reads a u32 element count for a sequence, sanity-bounded by the
    /// remaining input (each element needs ≥ 1 byte) and [`MAX_LEN`].
    pub fn seq_len(&mut self) -> Result<usize, DecodeError> {
        let n = self.u32()?;
        self.plausible_len(n)
    }
}

/// A writer of canonical bytes (plain helpers over `Vec<u8>`).
pub struct Writer;

impl Writer {
    /// Writes a u32-length-prefixed byte string.
    pub fn bytes(out: &mut Vec<u8>, data: &[u8]) {
        out.extend_from_slice(&(data.len() as u32).to_be_bytes());
        out.extend_from_slice(data);
    }

    /// Writes a u32-length-prefixed UTF-8 string.
    pub fn string(out: &mut Vec<u8>, s: &str) {
        Self::bytes(out, s.as_bytes());
    }
}

impl Encode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
}

impl Encode for u16 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
}

impl Encode for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
}

impl Encode for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
}

impl Encode for u128 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_be_bytes());
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        Writer::string(out, self);
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u8()
    }
}

impl Decode for u16 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u16()
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u32()
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u64()
    }
}

impl Decode for u128 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.u128()
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.string()
    }
}

impl<T: Encode> Encode for [T] {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&(self.len() as u32).to_be_bytes());
        for item in self {
            item.encode(out);
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_slice().encode(out);
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let n = r.seq_len()?;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(T::decode(r)?);
        }
        Ok(out)
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        match r.u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            t => Err(DecodeError::BadTag(t)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integer_round_trips() {
        let mut out = Vec::new();
        0xabu8.encode(&mut out);
        0x1234u16.encode(&mut out);
        0xdead_beefu32.encode(&mut out);
        0x0123_4567_89ab_cdefu64.encode(&mut out);
        (u128::MAX - 1).encode(&mut out);
        let mut r = Reader::new(&out);
        assert_eq!(u8::decode(&mut r).unwrap(), 0xab);
        assert_eq!(u16::decode(&mut r).unwrap(), 0x1234);
        assert_eq!(u32::decode(&mut r).unwrap(), 0xdead_beef);
        assert_eq!(u64::decode(&mut r).unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(u128::decode(&mut r).unwrap(), u128::MAX - 1);
        assert!(r.is_empty());
    }

    #[test]
    fn string_round_trip() {
        let s = "rsync://rpki.sprint.example/repo".to_owned();
        let bytes = s.to_bytes();
        assert_eq!(String::from_bytes(&bytes).unwrap(), s);
    }

    #[test]
    fn vec_round_trip() {
        let v = vec![1u32, 2, 3];
        assert_eq!(Vec::<u32>::from_bytes(&v.to_bytes()).unwrap(), v);
        let empty: Vec<u64> = Vec::new();
        assert_eq!(Vec::<u64>::from_bytes(&empty.to_bytes()).unwrap(), empty);
    }

    #[test]
    fn option_round_trip() {
        let some = Some(42u64);
        let none: Option<u64> = None;
        assert_eq!(Option::<u64>::from_bytes(&some.to_bytes()).unwrap(), some);
        assert_eq!(Option::<u64>::from_bytes(&none.to_bytes()).unwrap(), none);
    }

    #[test]
    fn truncation_detected() {
        let bytes = 0x1234_5678u32.to_bytes();
        assert_eq!(u64::from_bytes(&bytes), Err(DecodeError::Truncated));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut bytes = 7u8.to_bytes();
        bytes.push(0);
        assert_eq!(u8::from_bytes(&bytes), Err(DecodeError::TrailingBytes(1)));
    }

    #[test]
    fn bad_option_tag_detected() {
        assert_eq!(Option::<u8>::from_bytes(&[9, 0]), Err(DecodeError::BadTag(9)));
    }

    #[test]
    fn oversized_length_detected() {
        // A length prefix claiming more bytes than exist.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_be_bytes());
        assert!(matches!(String::from_bytes(&bytes), Err(DecodeError::BadLength(_))));
        assert!(matches!(Vec::<u8>::from_bytes(&bytes), Err(DecodeError::BadLength(_))));
    }

    #[test]
    fn bad_utf8_detected() {
        let mut bytes = Vec::new();
        Writer::bytes(&mut bytes, &[0xff, 0xfe]);
        assert_eq!(String::from_bytes(&bytes), Err(DecodeError::BadUtf8));
    }
}
