//! Structural fingerprints: a 128-bit hash over a canonical byte stream.
//!
//! The hasher runs two independently keyed 64-bit lanes over the same
//! stream; the lanes' finalized states concatenate into the fingerprint.
//! 128 bits makes accidental collisions across the largest realistic
//! check populations (millions) negligible; the stream discipline (tags
//! and length prefixes, see the crate docs) rules out concatenation
//! ambiguity.
//!
//! **Word-wise stream discipline.** The stream is consumed eight bytes
//! at a time: writes of any width collect in a 64-bit word, little-endian,
//! and each full word costs one multiply-fold per lane. The digest is a
//! function of the byte stream alone — how the bytes were split over
//! `write` calls never shows — and the tail word, zero-padded, is mixed
//! at [`FpHasher::finish`] together with the stream length, so streams
//! that differ only in trailing zero bytes stay apart.
//!
//! [`FpHasher`] is also a [`std::hash::Hasher`], so a value whose type
//! implements `Hash` is written with `x.hash(&mut h)` — a direct walk
//! over its structure, no intermediate rendering. Every integer write
//! is overridden to a fixed width in little-endian order, so the stream
//! (and therefore a spilled cache key) does not depend on the host's
//! word size. (`std` feeds a slice of primitive integers as its raw
//! memory in one `write`, so spills are portable between little-endian
//! hosts, not to big-endian ones.)

use std::fmt;
use std::hash::Hasher;

/// A 128-bit structural fingerprint.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u128);

impl Fingerprint {
    /// Render as fixed-width lowercase hex (the spill-file key format).
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parse the [`Fingerprint::to_hex`] form.
    pub fn from_hex(s: &str) -> Option<Self> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Fingerprint)
    }
}

impl fmt::Debug for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fp:{}", self.to_hex())
    }
}

impl fmt::Display for Fingerprint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.to_hex())
    }
}

/// Per-lane multipliers (odd, high-entropy; the 64-bit golden ratio and
/// the splitmix64 constants).
const LANE_A_MUL: u64 = 0x9e3779b97f4a7c15;
const LANE_B_MUL: u64 = 0xbf58476d1ce4e5b9;

/// Multiply to 128 bits and fold the halves together: every input bit
/// reaches every output bit, which a truncating multiply does not give
/// the high bits of a 64-bit word.
fn fold_mul(x: u64, k: u64) -> u64 {
    let m = (x as u128).wrapping_mul(k as u128);
    (m as u64) ^ (m >> 64) as u64
}

/// Streaming fingerprint builder.
#[derive(Clone, Debug)]
pub struct FpHasher {
    lane_a: u64,
    lane_b: u64,
    /// Bytes written so far; the low three bits are the fill of `word`.
    len: u64,
    /// The stream's unmixed tail, little-endian, zero above the fill.
    word: u64,
}

impl Default for FpHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl FpHasher {
    /// A fresh hasher.
    pub fn new() -> Self {
        FpHasher {
            lane_a: 0xcbf29ce484222325,
            lane_b: 0x94d049bb133111eb,
            len: 0,
            word: 0,
        }
    }

    fn mix(&mut self, word: u64) {
        self.lane_a = fold_mul(self.lane_a ^ word, LANE_A_MUL);
        self.lane_b = fold_mul(self.lane_b.rotate_left(29) ^ word, LANE_B_MUL);
    }

    /// Append the low `n` (at most 8) bytes of `x`, little-endian; the
    /// bytes of `x` above `n` must be zero.
    fn push(&mut self, x: u64, n: u32) {
        let fill = (self.len & 7) as u32;
        self.len = self.len.wrapping_add(n as u64);
        self.word |= x << (8 * fill);
        if fill + n >= 8 {
            self.mix(self.word);
            // What of `x` did not fit: nothing when the word was empty.
            self.word = if fill == 0 { 0 } else { x >> (8 * (8 - fill)) };
        }
    }

    /// Write one byte (no length prefix; only for fixed-width callers).
    pub fn write_u8(&mut self, x: u8) {
        self.push(x as u64, 1);
    }

    /// Write a fixed-width u32.
    pub fn write_u32(&mut self, x: u32) {
        self.push(x as u64, 4);
    }

    /// Write a fixed-width u64.
    pub fn write_u64(&mut self, x: u64) {
        self.push(x, 8);
    }

    /// Write a bool as one byte.
    pub fn write_bool(&mut self, x: bool) {
        self.push(x as u64, 1);
    }

    /// Write variable-length bytes, length-prefixed (self-delimiting).
    pub fn write_bytes(&mut self, bytes: &[u8]) {
        self.write_u64(bytes.len() as u64);
        Hasher::write(self, bytes);
    }

    /// Write a string, length-prefixed.
    pub fn write_str(&mut self, s: &str) {
        self.write_bytes(s.as_bytes());
    }

    /// Introduce a composite: a tag naming the structure that follows.
    pub fn write_tag(&mut self, tag: &str) {
        self.write_bytes(tag.as_bytes());
    }

    /// Finalize into a [`Fingerprint`].
    pub fn finish(&self) -> Fingerprint {
        // Avalanche both lanes (splitmix64 finalizer) so short inputs
        // still spread over all 128 bits.
        fn fin(mut z: u64) -> u64 {
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        }
        let mut tail = self.clone();
        tail.mix(self.word);
        let a = fin(tail.lane_a ^ self.len);
        let b = fin(tail.lane_b.wrapping_add(self.len.rotate_left(32)));
        Fingerprint(((a as u128) << 64) | b as u128)
    }
}

/// The `Hash`-driven entry: `x.hash(&mut h)` lands here. The 128-bit
/// [`FpHasher::finish`] stays the only key — the trait's `u64` finish
/// exists because the trait demands it and is never used as one.
impl Hasher for FpHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.push(u64::from_le_bytes(c.try_into().expect("8 bytes")), 8);
        }
        let rest = chunks.remainder();
        let mut tail = [0u8; 8];
        tail[..rest.len()].copy_from_slice(rest);
        self.push(u64::from_le_bytes(tail), rest.len() as u32);
    }

    fn finish(&self) -> u64 {
        (FpHasher::finish(self).0 >> 64) as u64
    }

    fn write_u8(&mut self, x: u8) {
        self.push(x as u64, 1);
    }

    fn write_u16(&mut self, x: u16) {
        self.push(x as u64, 2);
    }

    fn write_u32(&mut self, x: u32) {
        self.push(x as u64, 4);
    }

    fn write_u64(&mut self, x: u64) {
        self.push(x, 8);
    }

    fn write_u128(&mut self, x: u128) {
        self.push(x as u64, 8);
        self.push((x >> 64) as u64, 8);
    }

    // Lengths (`Vec`, slices, `BTreeSet`) arrive as `usize` and enum
    // discriminants as `isize`: both widen to 64 bits. The signed
    // `write_i*` defaults forward to the unsigned overrides above.
    fn write_usize(&mut self, x: usize) {
        Hasher::write_u64(self, x as u64);
    }

    fn write_isize(&mut self, x: isize) {
        Hasher::write_u64(self, x as i64 as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::Hash;

    fn fp(f: impl FnOnce(&mut FpHasher)) -> Fingerprint {
        let mut h = FpHasher::new();
        f(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_and_sensitive() {
        let a = fp(|h| {
            h.write_tag("transfer");
            h.write_str("x");
            h.write_u32(7);
        });
        let same = fp(|h| {
            h.write_tag("transfer");
            h.write_str("x");
            h.write_u32(7);
        });
        let diff = fp(|h| {
            h.write_tag("transfer");
            h.write_str("x");
            h.write_u32(8);
        });
        assert_eq!(a, same);
        assert_ne!(a, diff);
    }

    #[test]
    fn length_prefix_blocks_concatenation_ambiguity() {
        let ab_c = fp(|h| {
            h.write_str("ab");
            h.write_str("c");
        });
        let a_bc = fp(|h| {
            h.write_str("a");
            h.write_str("bc");
        });
        assert_ne!(ab_c, a_bc);
    }

    #[test]
    fn hash_driven_writes_are_fixed_width_little_endian() {
        // What `derive(Hash)` feeds the hasher is pinned byte for byte
        // against the inherent fixed-width writers: a `usize` length and
        // an `isize` discriminant are 8 LE bytes on every host, and a
        // `str` is its bytes plus a 0xff terminator.
        assert_eq!(
            fp(|h| vec![7u32, 9].hash(h)),
            fp(|h| {
                h.write_u64(2);
                h.write_u32(7);
                h.write_u32(9);
            })
        );
        assert_eq!(
            fp(|h| Hasher::write_isize(h, -2)),
            fp(|h| h.write_u64(-2i64 as u64))
        );
        assert_eq!(
            fp(|h| Hasher::write_u16(h, 0x0102)),
            fp(|h| {
                h.write_u8(2);
                h.write_u8(1);
            })
        );
        assert_eq!(
            fp(|h| "ab".hash(h)),
            fp(|h| {
                h.write_u8(b'a');
                h.write_u8(b'b');
                h.write_u8(0xff);
            })
        );
        // `Some(x)` vs `x`, `None` vs nothing: the discriminant is written.
        assert_ne!(fp(|h| Some(1u32).hash(h)), fp(|h| 1u32.hash(h)));
        assert_ne!(fp(|h| None::<u32>.hash(h)), fp(|_| ()));
        // Strings stay self-delimiting through the terminator.
        assert_ne!(fp(|h| ("ab", "c").hash(h)), fp(|h| ("a", "bc").hash(h)));
    }

    #[test]
    fn hex_roundtrip() {
        let f = fp(|h| h.write_str("roundtrip"));
        assert_eq!(Fingerprint::from_hex(&f.to_hex()), Some(f));
        assert_eq!(Fingerprint::from_hex("zz"), None);
    }
}
