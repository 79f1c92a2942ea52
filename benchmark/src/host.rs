//! The host's speed, measured alongside the ops.
//!
//! The container this benchmark was written in runs on a core whose
//! speed moves between levels 20–50 % apart, for seconds to ten minutes
//! at a time: a pure CPU loop's CPU time rises with its wall time, and
//! steal is nil. Ten runs that straddle a change of level spread by more
//! than any bound a regression gate could use (25–37 % measured), with no
//! change to the code. So every run times a fixed piece of work of its
//! own — [`Probe::run`], before each op, outside the timed path — and the
//! time metrics are reported at the reference speed: divided by how much
//! slower than [`REFERENCE_NS`] the probe ran during that run. The factor
//! is printed next to them, so the raw values are one multiplication away.
//!
//! The probe shares no code with the program under test and, once built,
//! allocates nothing: neither a change to the program nor the state the
//! program leaves the allocator in can move it.

use std::fmt::Write;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What [`Probe::run`] takes on this container's core at the fastest
/// level seen. On another machine the normalised metrics differ from the
/// raw ones by a constant factor, which no comparison of two commits on
/// that machine sees.
pub const REFERENCE_NS: f64 = 500_000.0;

const SLOTS: usize = 8192;

/// A fixed piece of hashing, probing, branching and formatting work —
/// what the verifier's own time is made of — over buffers it owns.
pub struct Probe {
    table: Vec<u64>,
    text: String,
}

impl Default for Probe {
    fn default() -> Self {
        Probe {
            table: vec![0; SLOTS],
            text: String::with_capacity(64),
        }
    }
}

impl Probe {
    /// Do the work once; how long it took.
    pub fn run(&mut self) -> Duration {
        let t = Instant::now();
        self.table.fill(0);
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut step = || {
            x = x
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            x >> 20 | 1
        };
        // Open addressing, linear probing, half full.
        for _ in 0..SLOTS / 2 {
            let key = step();
            let mut slot = key as usize % SLOTS;
            while self.table[slot] != 0 {
                slot = (slot + 1) % SLOTS;
            }
            self.table[slot] = key;
        }
        let mut found = 0usize;
        for i in 0..4 * SLOTS {
            let key = step();
            let mut slot = key as usize % SLOTS;
            while self.table[slot] != 0 && self.table[slot] != key {
                slot = (slot + 1) % SLOTS;
            }
            if i % 16 == 0 {
                self.text.clear();
                // Writing to a String cannot fail.
                let _ = write!(self.text, "router{slot}-{key:x}");
                found += self.text.len();
            }
        }
        black_box(found);
        t.elapsed()
    }
}

/// How much slower than the reference the host ran: the median probe
/// over the reference. 1.0 when nothing was probed.
pub fn slowdown(probes: &[Duration]) -> f64 {
    if probes.is_empty() {
        return 1.0;
    }
    let ns: Vec<f64> = probes.iter().map(|d| d.as_nanos() as f64).collect();
    crate::stats::median(&ns) / REFERENCE_NS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_probe_over_the_reference() {
        let probes: Vec<Duration> = [1.0, 1.5, 40.0]
            .iter()
            .map(|f| Duration::from_nanos((f * REFERENCE_NS) as u64))
            .collect();
        assert_eq!(slowdown(&probes), 1.5);
        assert_eq!(slowdown(&[]), 1.0);
    }

    #[test]
    fn the_probe_reuses_its_buffers() {
        let mut p = Probe::default();
        assert!(p.run() > Duration::ZERO);
        let (table, text) = (p.table.as_ptr(), p.text.capacity());
        p.run();
        assert_eq!((table, text), (p.table.as_ptr(), p.text.capacity()));
    }
}
