//! A fixed reference kernel that measures how fast the host is running
//! right now.
//!
//! The benchmark runs on a host shared with other tenants. Their load
//! moves the speed of memory-bound code by up to 2× within a minute, which
//! is wider than any bound a metric may have. The end-to-end run therefore
//! times this kernel before and after every iteration and scales the
//! iteration's timings to a host on which the kernel runs at
//! [`NOMINAL_OPS_PER_US`].
//!
//! The kernel is the benchmark's own code, so a change to the simulator
//! never changes the yardstick. It does what the simulator's host time is
//! mostly spent on: an LRU scan of one set of a 16-way set-associative tag
//! store about as large as the modeled L3's (`SharedCache::access`), at a
//! hit rate near the one `tab3_inet` models.

use std::time::Instant;

/// Ways per set.
const WAYS: usize = 16;
/// Sets: 2^17 sets × 16 ways × (8 B tag + 8 B stamp) = 32 MB.
const SETS: usize = 1 << 17;
/// Distinct lines the address stream draws from: three times the store's
/// capacity, for a hit rate of about a third.
const LINES: u64 = 3 * (SETS * WAYS) as u64;
/// Accesses per measurement (about 140 ms on the host the baseline was
/// measured on).
const ACCESSES: u64 = 2_000_000;

/// The kernel speed the timings are scaled to: accesses per µs on a quiet
/// host (the one the baseline was measured on).
pub const NOMINAL_OPS_PER_US: f64 = 15.0;

/// The reference tag store.
pub struct Reference {
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    rng: u64,
}

impl Default for Reference {
    fn default() -> Self {
        Self::new()
    }
}

impl Reference {
    /// Allocates the store and touches every page of it once, so no later
    /// measurement pays a page fault.
    pub fn new() -> Self {
        let mut r = Self {
            tags: vec![u64::MAX; SETS * WAYS],
            stamps: vec![0; SETS * WAYS],
            clock: 0,
            rng: 0x9e37_79b9_7f4a_7c15,
        };
        r.run(ACCESSES);
        r
    }

    /// Runs the kernel once and returns its speed in accesses per µs.
    pub fn measure(&mut self) -> f64 {
        let t0 = Instant::now();
        std::hint::black_box(self.run(ACCESSES));
        ACCESSES as f64 / (t0.elapsed().as_nanos() as f64 / 1e3)
    }

    /// `n` accesses to pseudo-random lines; returns the hits.
    fn run(&mut self, n: u64) -> u64 {
        let mut hits = 0;
        for _ in 0..n {
            self.rng = self
                .rng
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let line = (self.rng >> 20) % LINES;
            hits += u64::from(self.access(line));
        }
        hits
    }

    /// One LRU lookup, as a set-associative cache model makes it.
    fn access(&mut self, line: u64) -> bool {
        let base = (line as usize & (SETS - 1)) * WAYS;
        let tag = line / SETS as u64;
        self.clock += 1;
        let mut lru_way = 0;
        let mut lru_stamp = u64::MAX;
        for w in 0..WAYS {
            let i = base + w;
            if self.tags[i] == tag {
                self.stamps[i] = self.clock;
                return true;
            }
            if self.stamps[i] < lru_stamp {
                lru_stamp = self.stamps[i];
                lru_way = w;
            }
        }
        self.tags[base + lru_way] = tag;
        self.stamps[base + lru_way] = self.clock;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rate_is_about_a_third_once_warm() {
        let mut r = Reference::new();
        let hits = r.run(1_000_000);
        let rate = hits as f64 / 1e6;
        assert!((0.25..0.42).contains(&rate), "hit rate {rate}");
    }
}
