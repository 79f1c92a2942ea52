//! Seed discipline: every input the benchmark feeds the program is a
//! pure function of `--seed`, drawn from this one generator, and every
//! input set can be reduced to a digest so a test can pin "same seed,
//! same inputs; other seed, other inputs".

/// splitmix64: small, fast, and good enough to pick routers, prefixes
/// and edit kinds. The program under test never sees the generator,
/// only the inputs made from it.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose (`stream`) of one run (`seed`), so
    /// adding a draw to one workload never shifts another's inputs.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA24B_AED4_963E_E407));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            xs.swap(i, self.below(i + 1));
        }
    }
}

/// FNV-1a over a sequence of byte strings, with a separator fed between
/// them so `["ab","c"]` and `["a","bc"]` differ.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(pub u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold one byte string in.
    pub fn feed(&mut self, bytes: &[u8]) {
        for &b in bytes.iter().chain(&[0xff]) {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// The digest of a list of texts.
    pub fn of<S: AsRef<str>>(texts: &[S]) -> Digest {
        let mut d = Digest::default();
        for t in texts {
            d.feed(t.as_ref().as_bytes());
        }
        d
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_independent_and_repeatable() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(8, 1).next_u64());
    }

    #[test]
    fn digest_separates_boundaries() {
        assert_ne!(Digest::of(&["ab", "c"]), Digest::of(&["a", "bc"]));
        assert_eq!(Digest::of(&["ab", "c"]), Digest::of(&["ab", "c"]));
    }
}
