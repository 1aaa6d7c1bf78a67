//! SHA-256 (FIPS 180-4), implemented from the specification.
//!
//! The simulator uses real digests so that object corruption — the
//! trigger for the paper's Side Effects 6 and 7 — is detected with
//! production fidelity: flip any bit of a published ROA and the relying
//! party's manifest/hash check fails, exactly as in a deployment.
//!
//! One compression function sits under every digest and signature in
//! the workspace, and it has two bodies. On an x86-64 CPU that reports
//! the SHA extensions it is the `shani` kernel (the `sha256rnds2` /
//! `sha256msg1` / `sha256msg2` instructions); everywhere else it is
//! `compress_portable`, the 64-round loop as the specification writes
//! it, which is also the oracle the accelerated kernel is tested
//! against. The choice is made at run time from what the CPU reports
//! ([`backend`] names it) — no feature, flag or environment variable
//! selects it, and both bodies produce the same bits, so no digest
//! depends on the host. Unit tests pin both to the NIST test vectors.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

/// A 256-bit digest.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Digest(pub [u8; 32]);

/// Lower-case hex of `bytes`, in one allocation.
fn hex(bytes: &[u8]) -> String {
    const DIGITS: &[u8; 16] = b"0123456789abcdef";
    let mut s = String::with_capacity(bytes.len() * 2);
    for &b in bytes {
        s.push(DIGITS[usize::from(b >> 4)] as char);
        s.push(DIGITS[usize::from(b & 0x0f)] as char);
    }
    s
}

impl Digest {
    /// The digest as raw bytes.
    #[inline]
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Lower-case hex encoding.
    pub fn to_hex(&self) -> String {
        hex(&self.0)
    }

    /// A short 8-hex-digit form for human-facing logs.
    pub fn short(&self) -> String {
        hex(&self.0[..4])
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.to_hex())
    }
}

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Digest({}…)", self.short())
    }
}

/// Error parsing a [`Digest`] from hex.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DigestParseError;

impl fmt::Display for DigestParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("invalid digest hex (want 64 hex chars)")
    }
}

impl std::error::Error for DigestParseError {}

impl FromStr for Digest {
    type Err = DigestParseError;

    /// Exactly 64 characters of `[0-9a-fA-F]`: a digest has one
    /// spelling per letter case, so no sign, space or other byte that a
    /// general integer parser tolerates is accepted.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        if s.len() != 64 {
            return Err(DigestParseError);
        }
        let nibble = |c: u8| char::from(c).to_digit(16).ok_or(DigestParseError);
        let mut out = [0u8; 32];
        for (byte, pair) in out.iter_mut().zip(s.as_bytes().chunks_exact(2)) {
            // `to_digit(16)` is below 16, so the pair fits the byte.
            *byte = (nibble(pair[0])? << 4 | nibble(pair[1])?) as u8;
        }
        Ok(Digest(out))
    }
}

/// Round constants: first 32 bits of the fractional parts of the cube
/// roots of the first 64 primes.
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Initial hash state: first 32 bits of the fractional parts of the
/// square roots of the first 8 primes.
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Streaming SHA-256 state. Most callers want the one-shot [`sha256`].
#[derive(Clone)]
pub struct Sha256 {
    state: [u32; 8],
    /// Bytes buffered toward the next 64-byte block.
    buffer: [u8; 64],
    buffered: usize,
    /// Total message length in bytes.
    length: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// A fresh hasher.
    pub fn new() -> Self {
        Sha256 { state: H0, buffer: [0; 64], buffered: 0, length: 0 }
    }

    /// Feeds bytes into the hash.
    pub fn update(&mut self, mut data: &[u8]) {
        self.length += data.len() as u64;
        if self.buffered > 0 {
            let take = (64 - self.buffered).min(data.len());
            self.buffer[self.buffered..self.buffered + take].copy_from_slice(&data[..take]);
            self.buffered += take;
            if self.buffered < 64 {
                return;
            }
            compress(&mut self.state, &self.buffer);
            data = &data[take..];
        }
        // The run of whole blocks is compressed where it lies; only the
        // tail that straddles into the next call is copied.
        let (blocks, tail) = data.split_at(data.len() - data.len() % 64);
        if !blocks.is_empty() {
            compress(&mut self.state, blocks);
        }
        self.buffer[..tail.len()].copy_from_slice(tail);
        self.buffered = tail.len();
    }

    /// Finishes the hash and returns the digest.
    pub fn finalize(mut self) -> Digest {
        // Padding: 0x80, zeros to 56 (mod 64), 64-bit big-endian bit
        // length — one block when the buffered tail leaves room for the
        // nine bytes, two when it does not.
        let mut pad = [0u8; 128];
        pad[..self.buffered].copy_from_slice(&self.buffer[..self.buffered]);
        pad[self.buffered] = 0x80;
        let end = if self.buffered < 56 { 64 } else { 128 };
        pad[end - 8..end].copy_from_slice(&(self.length * 8).to_be_bytes());
        compress(&mut self.state, &pad[..end]);
        let mut out = [0u8; 32];
        for (bytes, word) in out.chunks_exact_mut(4).zip(self.state) {
            bytes.copy_from_slice(&word.to_be_bytes());
        }
        Digest(out)
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Which compression kernel this host runs: `"sha-ni"` or
/// `"portable"`. Digests do not depend on it; wall-clock measurements
/// do, so benchmark records carry it.
pub fn backend() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if shani::detected() {
        return "sha-ni";
    }
    "portable"
}

/// Folds `blocks` — a whole number of 64-byte blocks — into `state`.
fn compress(state: &mut [u32; 8], blocks: &[u8]) {
    debug_assert_eq!(blocks.len() % 64, 0);
    #[cfg(target_arch = "x86_64")]
    if shani::detected() {
        // SAFETY: `shani::compress` is a safe function whose only
        // precondition is the CPU features it is compiled for, and
        // `detected()` has just reported every one of them present.
        #[allow(unsafe_code)]
        unsafe {
            shani::compress(state, blocks)
        };
        return;
    }
    compress_portable(state, blocks);
}

/// The compression function as FIPS 180-4 §6.2.2 writes it.
fn compress_portable(state: &mut [u32; 8], blocks: &[u8]) {
    for block in blocks.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (word, bytes) in w.iter_mut().zip(block.chunks_exact(4)) {
            *word = u32::from_be_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16].wrapping_add(s0).wrapping_add(w[i - 7]).wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let temp1 = h.wrapping_add(s1).wrapping_add(ch).wrapping_add(K[i]).wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let temp2 = s0.wrapping_add(maj);
            h = g;
            g = f;
            f = e;
            e = d.wrapping_add(temp1);
            d = c;
            c = b;
            b = a;
            a = temp1.wrapping_add(temp2);
        }
        for (word, add) in state.iter_mut().zip([a, b, c, d, e, f, g, h]) {
            *word = word.wrapping_add(add);
        }
    }
}

/// The compression function on the x86 SHA extensions.
#[cfg(target_arch = "x86_64")]
mod shani {
    use std::arch::x86_64::{
        __m128i, _mm_add_epi32, _mm_alignr_epi8, _mm_extract_epi32, _mm_set_epi32,
        _mm_sha256msg1_epu32, _mm_sha256msg2_epu32, _mm_sha256rnds2_epu32, _mm_shuffle_epi32,
    };

    use super::K;

    /// Whether this CPU has every feature [`compress`] is compiled for
    /// (SSE2 is part of x86-64). The macro caches its answer.
    pub(super) fn detected() -> bool {
        is_x86_feature_detected!("sha")
            && is_x86_feature_detected!("ssse3")
            && is_x86_feature_detected!("sse4.1")
    }

    /// Four 32-bit words in one register, the first in the low lane.
    #[target_feature(enable = "sse2")]
    fn lanes(w: [u32; 4]) -> __m128i {
        _mm_set_epi32(w[3] as i32, w[2] as i32, w[1] as i32, w[0] as i32)
    }

    /// Same contract as `compress_portable`. The instructions keep the
    /// eight state words as the register pair (ABEF, CDGH); they stay
    /// in that form across every block of the call.
    #[target_feature(enable = "sha,sse2,ssse3,sse4.1")]
    pub(super) fn compress(state: &mut [u32; 8], blocks: &[u8]) {
        let [a, b, c, d, e, f, g, h] = *state;
        let mut abef = lanes([f, e, b, a]);
        let mut cdgh = lanes([h, g, d, c]);
        for block in blocks.chunks_exact(64) {
            let (abef_in, cdgh_in) = (abef, cdgh);
            // w[i % 4] holds schedule words 4i..4i+4 while they are live.
            let mut w = [lanes([0; 4]); 4];
            for i in 0..16 {
                let words = if i < 4 {
                    let be = |j: usize| {
                        let at = 16 * i + 4 * j;
                        u32::from_be_bytes([block[at], block[at + 1], block[at + 2], block[at + 3]])
                    };
                    lanes([be(0), be(1), be(2), be(3)])
                } else {
                    // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16],
                    // four t at a time: msg1 adds σ0, alignr picks the
                    // W[t-7] lanes, msg2 adds σ1.
                    let (w16, w12, w8, w4) =
                        (w[i % 4], w[(i + 1) % 4], w[(i + 2) % 4], w[(i + 3) % 4]);
                    let partial =
                        _mm_add_epi32(_mm_sha256msg1_epu32(w16, w12), _mm_alignr_epi8(w4, w8, 4));
                    _mm_sha256msg2_epu32(partial, w4)
                };
                w[i % 4] = words;
                // Two rounds per instruction, on the low two lanes of
                // W + K; the register that held CDGH receives the new
                // ABEF and the old ABEF is the new CDGH, so the two
                // names swap roles and swap back.
                let wk = _mm_add_epi32(
                    words,
                    lanes([K[4 * i], K[4 * i + 1], K[4 * i + 2], K[4 * i + 3]]),
                );
                cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
                abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0e));
            }
            abef = _mm_add_epi32(abef, abef_in);
            cdgh = _mm_add_epi32(cdgh, cdgh_in);
        }
        *state = [
            _mm_extract_epi32(abef, 3) as u32,
            _mm_extract_epi32(abef, 2) as u32,
            _mm_extract_epi32(cdgh, 3) as u32,
            _mm_extract_epi32(cdgh, 2) as u32,
            _mm_extract_epi32(abef, 1) as u32,
            _mm_extract_epi32(abef, 0) as u32,
            _mm_extract_epi32(cdgh, 1) as u32,
            _mm_extract_epi32(cdgh, 0) as u32,
        ];
    }
}

#[cfg(test)]
mod tests {
    use std::io::Write;

    use proptest::prelude::*;

    use super::*;

    type Kernel = fn(&mut [u32; 8], &[u8]);

    /// The portable loop, and what `compress` dispatches to on this
    /// host — the SHA-NI kernel wherever `backend()` says so, which is
    /// the only way any caller reaches it.
    const KERNELS: [(&str, Kernel); 2] =
        [("portable", compress_portable), ("dispatched", compress)];

    /// SHA-256 of `msg` with the padding spelled out here rather than
    /// by `finalize`, and every block through `kernel` in one call.
    fn hash_with(kernel: Kernel, msg: &[u8]) -> String {
        let mut padded = msg.to_vec();
        padded.push(0x80);
        while padded.len() % 64 != 56 {
            padded.push(0);
        }
        padded.extend_from_slice(&(msg.len() as u64 * 8).to_be_bytes());
        let mut state = H0;
        kernel(&mut state, &padded);
        state.iter().map(|word| format!("{word:08x}")).collect()
    }

    /// NIST FIPS 180-4 / de-facto standard vectors, then lengths
    /// straddling the 55/56/64-byte padding boundaries.
    fn vectors() -> Vec<(Vec<u8>, &'static str)> {
        let a = |n: usize| vec![b'a'; n];
        vec![
            (vec![], "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
            (b"abc".to_vec(), "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"),
            (
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq".to_vec(),
                "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1",
            ),
            (a(1_000_000), "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"),
            (a(55), "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318"),
            (a(56), "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a"),
            (a(57), "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6"),
            (a(64), "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb"),
        ]
    }

    #[test]
    fn vectors_hold_through_the_api_and_both_kernels() {
        // Straight to stderr: the harness captures `println!`, and a CI
        // log has to show whether the accelerated kernel was covered.
        writeln!(std::io::stderr(), "sha256: `compress` dispatches to {} here", backend())
            .expect("stderr");
        for (msg, want) in vectors() {
            assert_eq!(sha256(&msg).to_hex(), want, "sha256, len {}", msg.len());
            for (name, kernel) in KERNELS {
                assert_eq!(hash_with(kernel, &msg), want, "{name} kernel, len {}", msg.len());
            }
        }
    }

    #[test]
    fn streaming_matches_oneshot_at_every_split_point() {
        let data: Vec<u8> = (0u8..=255).cycle().take(200).collect();
        for len in 0..=data.len() {
            let want = hash_with(compress_portable, &data[..len]);
            for split in 0..=len {
                let mut h = Sha256::new();
                h.update(&data[..split]);
                h.update(&data[split..len]);
                assert_eq!(h.finalize().to_hex(), want, "len {len} split at {split}");
            }
        }
    }

    proptest! {
        #[test]
        fn kernels_agree_on_any_state_and_blocks(
            state in prop::collection::vec(any::<u32>(), 8),
            blocks in (0usize..=8).prop_flat_map(|n| prop::collection::vec(any::<u8>(), n * 64)),
        ) {
            let state: [u32; 8] = state.try_into().expect("eight words");
            let (mut portable, mut dispatched) = (state, state);
            compress_portable(&mut portable, &blocks);
            compress(&mut dispatched, &blocks);
            prop_assert_eq!(portable, dispatched);
        }

        #[test]
        fn three_updates_equal_oneshot(
            msg in prop::collection::vec(any::<u8>(), 0..=1024),
            cuts in (any::<prop::sample::Index>(), any::<prop::sample::Index>()),
        ) {
            let (x, y) = (cuts.0.index(msg.len() + 1), cuts.1.index(msg.len() + 1));
            let (first, second) = (x.min(y), x.max(y));
            let mut h = Sha256::new();
            h.update(&msg[..first]);
            h.update(&msg[first..second]);
            h.update(&msg[second..]);
            prop_assert_eq!(h.finalize(), sha256(&msg), "cuts at {} and {}", first, second);
        }

        #[test]
        fn hex_forms_match_the_format_spelling(bytes in prop::collection::vec(any::<u8>(), 32)) {
            let d = Digest(bytes.try_into().expect("32 bytes"));
            // `to_hex` as it was spelled before the nibble table.
            let want: String = d.0.iter().map(|b| format!("{b:02x}")).collect();
            prop_assert_eq!(d.to_hex(), want.clone());
            prop_assert_eq!(d.short(), &want[..8]);
            prop_assert_eq!(format!("{d}"), want.clone());
            prop_assert_eq!(format!("{d:?}"), format!("Digest({}…)", &want[..8]));
            prop_assert_eq!(want.parse::<Digest>(), Ok(d));
            prop_assert_eq!(want.to_uppercase().parse::<Digest>(), Ok(d));
        }
    }

    #[test]
    fn digest_hex_round_trip() {
        let d = sha256(b"round trip");
        let parsed: Digest = d.to_hex().parse().unwrap();
        assert_eq!(parsed, d);
        assert!("zz".parse::<Digest>().is_err());
        assert!("00".repeat(31).parse::<Digest>().is_err());
    }

    #[test]
    fn only_hex_digits_parse() {
        // `u8::from_str_radix` takes a sign, so "+f" once read as 0x0f.
        for pair in ["+f", "-f", " f", "f ", "0x", "fg"] {
            assert_eq!(pair.repeat(32).parse::<Digest>(), Err(DigestParseError), "{pair:?}");
        }
        // 64 bytes, 32 characters, none of them ASCII.
        assert_eq!("é".repeat(32).parse::<Digest>(), Err(DigestParseError));
        assert_eq!("AB".repeat(32).parse::<Digest>(), Ok(Digest([0xab; 32])));
    }

    #[test]
    fn short_form() {
        let d = sha256(b"abc");
        assert_eq!(d.short(), "ba7816bf");
    }
}
