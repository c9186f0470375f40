//! Memory-system model for the Albatross server.
//!
//! §4.2 of the paper is a memory story: gateway forwarding tables occupy
//! *several GB* against ~200 MB of shared L3 cache, so table lookups hit L3
//! only 30–45% of the time, which (a) makes PLB and RSS perform within 1% of
//! each other (Fig. 4/5 — both are bound by the same shared-cache miss rate)
//! and (b) makes DRAM latency/frequency the dominant tuning knob (+8% from
//! 4800→5600 MHz). §7 adds the NUMA lessons: cross-NUMA placement costs 14%
//! on VPC-VPC, and Automatic NUMA Balancing causes latency bursts at 90%
//! load.
//!
//! This crate models exactly those mechanisms:
//!
//! * [`cache::SharedCache`] — a set-associative, true-LRU, shared L3 with
//!   per-core hit statistics. Its tag store is laid out for the host: each
//!   way is one `u16`, a 12-bit tag above a 4-bit LRU rank, so a 16-way set
//!   takes 32 bytes and the production store 4 MiB. Victims are the same as
//!   with access stamps, because the ranks order the ways exactly as the
//!   stamps did. More than 16 ways, or a tag of 4095 or more, take 32-bit
//!   words (24-bit tag, 8-bit rank); a narrow store widens itself once when
//!   the first such tag arrives.
//! * [`tables::WorkingSet`] — synthetic address-space layout of the gateway's
//!   forwarding tables, so lookups touch realistic cache-line sequences.
//! * [`dram::DramModel`] — hit/miss/remote access latencies parameterized by
//!   memory frequency.
//! * [`numa::NumaTopology`] / [`numa::NumaBalancing`] — node placement cost
//!   and the auto-balancing stall injector.
//! * [`MemorySystem`] — the facade the CPU-core model charges every table
//!   access through.
//! * [`flowtab::FlowTable`] / [`flowtab::ExpiryWheel`] — the CPS-grade flow
//!   table the stateful consumers (`gateway::nat`, `gateway::session`,
//!   `gateway::flowstate`) keep their real entries in: cache-line-bucketed
//!   open addressing with amortized `O(expired)` expiry.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod dram;
pub mod flowtab;
pub mod numa;
pub mod tables;

pub use cache::SharedCache;
pub use dram::DramModel;
pub use flowtab::{ExpiryWheel, FlowTable, InsertOutcome, SlotRef, WheelDecision};
pub use numa::{NumaBalancing, NumaTopology, Placement};
pub use tables::{TableId, WorkingSet};

/// The assembled memory hierarchy one NUMA node's cores see.
///
/// `access` is the single hot-path entry point: given the accessing core and
/// a byte address, it consults the shared cache and returns the latency to
/// charge, updating hit statistics.
#[derive(Debug)]
pub struct MemorySystem {
    cache: SharedCache,
    dram: DramModel,
    /// Latency charged per cache hit: the L3 hit latency plus, under
    /// cross-NUMA placement, a small snoop/coherence cost crossing the UPI
    /// (§7 lists "unnecessary overhead in maintaining cache coherence"
    /// among the cross-NUMA costs — the reason even a no-lookup workload
    /// degrades ~3%).
    hit_ns: u64,
    /// Latency charged per miss: the DRAM latency plus, under cross-NUMA
    /// placement, the remote access penalty.
    miss_ns: u64,
}

impl MemorySystem {
    /// Builds a memory system with the given cache and DRAM models and
    /// intra-NUMA placement.
    pub fn new(cache: SharedCache, dram: DramModel) -> Self {
        Self {
            hit_ns: dram.l3_hit_ns(),
            miss_ns: dram.miss_ns(),
            cache,
            dram,
        }
    }

    /// Configures placement: cross-NUMA placement charges the topology's
    /// remote penalty on every DRAM access and a small coherence cost on
    /// every hit.
    pub fn with_placement(mut self, topo: &NumaTopology, placement: Placement) -> Self {
        let (remote_hit_ns, remote_miss_ns) = match placement {
            Placement::IntraNuma => (0, 0),
            Placement::CrossNuma => {
                let penalty = topo.remote_access_penalty_ns();
                ((penalty / 20).max(1), penalty)
            }
        };
        self.hit_ns = self.dram.l3_hit_ns() + remote_hit_ns;
        self.miss_ns = self.dram.miss_ns() + remote_miss_ns;
        self
    }

    /// Performs one cached access from `core` to `addr`, returning latency
    /// in nanoseconds.
    #[inline]
    pub fn access(&mut self, core: usize, addr: u64) -> u64 {
        if self.cache.access(core, addr) {
            self.hit_ns
        } else {
            self.miss_ns
        }
    }

    /// Charges a table-entry read: touches every cache line the entry spans
    /// (capped at 8 lines — entries are "hundreds of bytes", §4.2).
    #[inline]
    pub fn read_entry(&mut self, core: usize, addr: u64, entry_bytes: u32) -> u64 {
        let mut total = 0;
        for line in entry_lines(addr, entry_bytes) {
            total += self.access(core, line);
        }
        total
    }

    /// Loads the host memory [`Self::read_entry`] would consult for the same
    /// entry without changing any state or statistic (see
    /// [`SharedCache::touch`]). Touching a chain's independent entries
    /// before reading them overlaps their host cache misses.
    #[inline]
    pub fn touch_entry(&self, addr: u64, entry_bytes: u32) {
        for line in entry_lines(addr, entry_bytes) {
            self.cache.touch(line);
        }
    }

    /// The shared cache (for hit-rate statistics).
    pub fn cache(&self) -> &SharedCache {
        &self.cache
    }

    /// The DRAM model.
    pub fn dram(&self) -> &DramModel {
        &self.dram
    }
}

/// Addresses of the cache lines a table entry of `entry_bytes` at `addr`
/// spans, capped at 8 lines.
#[inline]
fn entry_lines(addr: u64, entry_bytes: u32) -> impl Iterator<Item = u64> {
    let lines = entry_bytes.div_ceil(cache::LINE_BYTES as u32).clamp(1, 8);
    (0..lines).map(move |i| addr + u64::from(i) * cache::LINE_BYTES as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_system() -> MemorySystem {
        MemorySystem::new(SharedCache::new(64 * 1024, 4), DramModel::new(4800))
    }

    #[test]
    fn repeated_access_hits_cache() {
        let mut m = small_system();
        let first = m.access(0, 0x1000);
        let second = m.access(0, 0x1000);
        assert!(first > second, "first access must miss, second must hit");
        assert_eq!(second, m.dram().l3_hit_ns());
    }

    #[test]
    fn cross_numa_placement_is_slower() {
        let topo = NumaTopology::albatross_server();
        let mut local = small_system().with_placement(&topo, Placement::IntraNuma);
        let mut remote = small_system().with_placement(&topo, Placement::CrossNuma);
        // Compulsory miss on both; remote must cost more.
        assert!(remote.access(0, 0x5000) > local.access(0, 0x5000));
    }

    #[test]
    fn placement_sets_both_charges_and_can_be_undone() {
        let topo = NumaTopology::albatross_server();
        let penalty = topo.remote_access_penalty_ns();
        let mut remote = small_system().with_placement(&topo, Placement::CrossNuma);
        let (miss, hit) = (remote.access(0, 0x40), remote.access(0, 0x40));
        assert_eq!(miss, remote.dram().miss_ns() + penalty);
        assert_eq!(hit, remote.dram().l3_hit_ns() + (penalty / 20).max(1));
        let mut local = remote.with_placement(&topo, Placement::IntraNuma);
        assert_eq!(local.access(0, 0x40), local.dram().l3_hit_ns());
        assert_eq!(local.access(0, 0x80), local.dram().miss_ns());
    }

    #[test]
    fn entry_read_touches_spanning_lines() {
        let mut m = small_system();
        // 300-byte entry spans 5 lines; all miss initially.
        let cost = m.read_entry(0, 0, 300);
        assert_eq!(cost, 5 * m.dram().miss_ns());
        // Second read: all hit.
        let cost2 = m.read_entry(0, 0, 300);
        assert_eq!(cost2, 5 * m.dram().l3_hit_ns());
    }

    #[test]
    fn entry_line_count_is_capped() {
        let mut m = small_system();
        let cost = m.read_entry(0, 0x10_0000, 10_000);
        assert_eq!(cost, 8 * m.dram().miss_ns());
    }
}
