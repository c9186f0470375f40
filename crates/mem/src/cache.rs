//! Set-associative shared L3 cache model.
//!
//! The L3 is shared by all cores of a NUMA node (§4.2: "since L3 cache is
//! shared across cores, both RSS and PLB ultimately achieve similar
//! performance"), so the model keeps one tag store and per-core hit
//! statistics. Replacement is true LRU per set, tracked as a recency rank
//! per way: 0 is the most recently used way, `ways - 1` the victim. A hit
//! moves its way to rank 0 and ages every way that was more recent; a miss
//! writes its tag into the victim and moves that way to rank 0 the same
//! way. Simple and deterministic, and it evicts exactly the line a global
//! access clock with per-way last-use stamps would (DESIGN.md §4j).
//!
//! With the production geometry (192 MiB, 16-way, 64 B lines) the tag store
//! is ~2.1 M entries, kept as two flat `Vec`s: `u32` tags whose sets start
//! on a 64-byte boundary, so a 16-way set is exactly one host cache line,
//! and one `u8` rank per way, a 16-byte word per set. An access reads one
//! tag line and one rank word, and the whole store takes 10 MiB.

/// Cache line size in bytes.
pub const LINE_BYTES: usize = 64;

/// A shared, set-associative, true-LRU cache with per-core hit statistics.
#[derive(Debug)]
pub struct SharedCache {
    sets: usize,
    ways: usize,
    /// `log2(sets)`: a line's tag is `line >> set_bits`.
    set_bits: u32,
    /// Tag per (set, way) from index `tag_base` on; [`EMPTY`] marks an
    /// empty way. `tag_base` puts set 0 on a 64-byte host line boundary.
    tags: Vec<u32>,
    tag_base: usize,
    /// Recency rank per (set, way): each set's ranks are a permutation of
    /// `0..ways`, 0 the most recently used way, `ways - 1` the next victim.
    ranks: Vec<u8>,
    hits: Vec<u64>,
    misses: Vec<u64>,
}

/// Tag of an empty way. No line's tag reaches it: [`SharedCache::access`]
/// rejects addresses whose tag would.
const EMPTY: u32 = u32::MAX;

/// Largest associativity: ranks are one byte.
const MAX_WAYS: usize = u8::MAX as usize;

impl SharedCache {
    /// Creates a cache of `size_bytes` capacity and `ways` associativity.
    ///
    /// The set count is rounded down to a power of two for cheap indexing.
    ///
    /// # Panics
    /// Panics when the geometry yields zero sets or `ways` exceeds 255.
    pub fn new(size_bytes: usize, ways: usize) -> Self {
        Self::with_cores(size_bytes, ways, 0)
    }

    /// Like [`Self::new`], but pre-sizes the per-core hit/miss statistics for
    /// `cores` cores so steady-state [`Self::access`] calls never allocate.
    /// Accesses from cores beyond `cores` still work — they grow the stat
    /// vectors through a cold path, exactly as [`Self::new`] always did.
    ///
    /// # Panics
    /// Panics when the geometry yields zero sets or `ways` exceeds 255.
    pub fn with_cores(size_bytes: usize, ways: usize, cores: usize) -> Self {
        assert!(ways > 0, "associativity must be positive");
        assert!(
            ways <= MAX_WAYS,
            "associativity {ways} exceeds {MAX_WAYS} ways (one-byte LRU ranks)"
        );
        let raw_sets = size_bytes / (LINE_BYTES * ways);
        assert!(raw_sets > 0, "cache too small for geometry");
        let set_bits = usize::BITS - 1 - raw_sets.leading_zeros();
        let sets = 1usize << set_bits;
        // Pad by one host line's worth of tags, then start set 0 where the
        // allocation crosses a 64-byte boundary. The `Vec` never grows, so
        // the boundary stays put.
        let per_line = LINE_BYTES / std::mem::size_of::<u32>();
        let tags = vec![EMPTY; sets * ways + per_line - 1];
        let misalign = tags.as_ptr() as usize % LINE_BYTES / std::mem::size_of::<u32>();
        let tag_base = (per_line - misalign) % per_line;
        // Way 0 is the least recently used, then way 1, …: empty ways fill
        // lowest index first.
        let mut ranks = vec![0; sets * ways];
        for set in ranks.chunks_exact_mut(ways) {
            for (w, rank) in set.iter_mut().enumerate() {
                *rank = (ways - 1 - w) as u8;
            }
        }
        Self {
            sets,
            ways,
            set_bits,
            tags,
            tag_base,
            ranks,
            hits: vec![0; cores],
            misses: vec![0; cores],
        }
    }

    /// The production Albatross L3: ~200 MB shared cache, 16-way.
    pub fn albatross_l3() -> Self {
        Self::new(192 * 1024 * 1024, 16)
    }

    /// Effective capacity in bytes after set rounding.
    pub fn capacity_bytes(&self) -> usize {
        self.sets * self.ways * LINE_BYTES
    }

    /// Maps `addr` to its set and tag.
    ///
    /// # Panics
    /// Panics when the tag does not fit below [`EMPTY`]: a wider address
    /// would alias another line instead of missing.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u32) {
        let line = addr / LINE_BYTES as u64;
        let set = (line as usize) & (self.sets - 1);
        let tag = line >> self.set_bits;
        assert!(
            tag < u64::from(EMPTY),
            "address {addr:#x} is beyond the cache's tag range"
        );
        (set, tag as u32)
    }

    /// Performs an access from `core` to byte address `addr`.
    /// Returns `true` on hit. Misses install the line, evicting LRU.
    ///
    /// # Panics
    /// Panics when the tag `addr / 64 / sets` reaches `u32::MAX`, i.e. for
    /// addresses from about `2^32 × sets × 64` bytes on.
    pub fn access(&mut self, core: usize, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        if core >= self.hits.len() {
            self.grow_stats(core);
        }
        let ways = self.ways;
        let tags = &mut self.tags[self.tag_base + set * ways..][..ways];
        let ranks = &mut self.ranks[set * ways..][..ways];

        // One branch-free pass finds the hit way and the victim (the way of
        // rank `ways - 1`), so the host can run ahead into the next access
        // while this set's lines are still on their way. On a hit the tag
        // write stores the tag already there.
        let lru = (ways - 1) as u8;
        let mut hit_way = ways;
        let mut victim = 0;
        for (w, (&t, &r)) in tags.iter().zip(ranks.iter()).enumerate() {
            if t == tag {
                hit_way = w;
            }
            if r == lru {
                victim = w;
            }
        }
        let hit = hit_way < ways;
        let way = if hit { hit_way } else { victim };
        tags[way] = tag;
        let rank = ranks[way];
        for r in ranks.iter_mut() {
            *r += u8::from(*r < rank);
        }
        ranks[way] = 0;
        self.hits[core] += u64::from(hit);
        self.misses[core] += u64::from(!hit);
        hit
    }

    /// Loads the host lines [`Self::access`] would read for `addr` — its
    /// set's tags and ranks — without changing any state. Touching the
    /// sets of several independent accesses before making them lets their
    /// host cache misses overlap instead of queueing one after another.
    ///
    /// # Panics
    /// Panics where [`Self::access`] would.
    #[inline]
    pub fn touch(&self, addr: u64) {
        let (set, _) = self.locate(addr);
        std::hint::black_box(self.tags[self.tag_base + set * self.ways]);
        std::hint::black_box(self.ranks[set * self.ways]);
    }

    /// Grows the per-core stat vectors for a core id beyond the pre-sized
    /// range. Out of line so the allocation never sits on the access fast
    /// path; with [`Self::with_cores`] sized correctly it is never called
    /// after construction.
    #[cold]
    #[inline(never)]
    fn grow_stats(&mut self, core: usize) {
        self.hits.resize(core + 1, 0);
        self.misses.resize(core + 1, 0);
    }

    /// Total hits across all cores.
    pub fn total_hits(&self) -> u64 {
        self.hits.iter().sum()
    }

    /// Total misses across all cores.
    pub fn total_misses(&self) -> u64 {
        self.misses.iter().sum()
    }

    /// Overall hit rate, or 0.0 before any access.
    pub fn hit_rate(&self) -> f64 {
        let h = self.total_hits();
        let m = self.total_misses();
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Hit rate observed by one core.
    pub fn core_hit_rate(&self, core: usize) -> f64 {
        let h = self.hits.get(core).copied().unwrap_or(0);
        let m = self.misses.get(core).copied().unwrap_or(0);
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }

    /// Clears statistics (contents stay — useful for warmup-then-measure).
    pub fn reset_stats(&mut self) {
        self.hits.iter_mut().for_each(|h| *h = 0);
        self.misses.iter_mut().for_each(|m| *m = 0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_rounds_to_power_of_two_sets() {
        let c = SharedCache::new(100 * 1024, 4);
        // 100 KiB / (64·4) = 400 sets → rounds down to 256.
        assert_eq!(c.capacity_bytes(), 256 * 4 * 64);
    }

    #[test]
    fn hit_after_install() {
        let mut c = SharedCache::new(64 * 1024, 8);
        assert!(!c.access(0, 0x1234));
        assert!(c.access(0, 0x1234));
        // Same line, different byte offset.
        assert!(c.access(0, 0x1234 ^ 0x7));
        assert_eq!(c.total_hits(), 2);
        assert_eq!(c.total_misses(), 1);
    }

    #[test]
    fn cache_is_shared_between_cores() {
        let mut c = SharedCache::new(64 * 1024, 8);
        assert!(!c.access(0, 0x40));
        // Core 1 hits the line core 0 installed — the shared-L3 property
        // behind Fig. 4's "PLB ≈ RSS" result.
        assert!(c.access(1, 0x40));
        assert_eq!(c.core_hit_rate(1), 1.0);
        assert_eq!(c.core_hit_rate(0), 0.0);
    }

    #[test]
    fn lru_evicts_oldest() {
        // Tiny direct-mapped-ish cache: 2 ways, few sets.
        let mut c = SharedCache::new(2 * 64 * 2, 2); // 2 sets × 2 ways
        let set_stride = 2 * 64; // addresses mapping to set 0
        let a = 0;
        let b = set_stride as u64;
        let x = 2 * set_stride as u64;
        assert!(!c.access(0, a));
        assert!(!c.access(0, b));
        // Touch a so b is LRU, then install x → evicts b.
        assert!(c.access(0, a));
        assert!(!c.access(0, x));
        assert!(c.access(0, a), "a must survive");
        assert!(!c.access(0, b), "b must have been evicted");
    }

    #[test]
    fn working_set_larger_than_cache_has_low_hit_rate() {
        // 64 KiB cache, cyclic sweep over 1 MiB: pure capacity misses.
        let mut c = SharedCache::new(64 * 1024, 8);
        for round in 0..4 {
            for line in 0..(1024 * 1024 / LINE_BYTES) {
                c.access(0, (line * LINE_BYTES) as u64);
            }
            if round == 0 {
                c.reset_stats();
            }
        }
        assert!(c.hit_rate() < 0.01, "hit rate {}", c.hit_rate());
    }

    #[test]
    fn working_set_smaller_than_cache_hits_after_warmup() {
        let mut c = SharedCache::new(256 * 1024, 8);
        for round in 0..3 {
            for line in 0..(64 * 1024 / LINE_BYTES) {
                c.access(0, (line * LINE_BYTES) as u64);
            }
            if round == 0 {
                c.reset_stats();
            }
        }
        assert!(c.hit_rate() > 0.99, "hit rate {}", c.hit_rate());
    }

    #[test]
    fn with_cores_matches_new_and_presizes_stats() {
        let mut lazy = SharedCache::new(64 * 1024, 8);
        let mut sized = SharedCache::with_cores(64 * 1024, 8, 4);
        for addr in [0x40u64, 0x80, 0x40, 0x1_0000] {
            for core in 0..4 {
                assert_eq!(lazy.access(core, addr), sized.access(core, addr));
            }
        }
        assert_eq!(lazy.total_hits(), sized.total_hits());
        assert_eq!(lazy.total_misses(), sized.total_misses());
        for core in 0..4 {
            assert_eq!(lazy.core_hit_rate(core), sized.core_hit_rate(core));
        }
        // A core beyond the pre-sized range still works via the cold path.
        sized.access(9, 0x40);
        assert_eq!(sized.core_hit_rate(9), 1.0);
    }

    #[test]
    fn empty_ways_fill_lowest_index_first() {
        // One set of four ways: each compulsory miss takes the lowest empty
        // way, exactly as the stamp-LRU store did (empty = stamp 0, lowest
        // index wins), and becomes the most recently used.
        let mut c = SharedCache::new(4 * 64, 4);
        let set = |c: &SharedCache| c.tags[c.tag_base..c.tag_base + 4].to_vec();
        assert_eq!(set(&c), [EMPTY; 4]);
        assert_eq!(c.ranks, [3, 2, 1, 0], "way 0 is LRU, then way 1, …");
        for (n, tag) in [7u32, 3, 5].into_iter().enumerate() {
            assert!(!c.access(0, u64::from(tag) * 64));
            let mut want = [EMPTY; 4];
            want[..=n].copy_from_slice(&[7, 3, 5][..=n]);
            assert_eq!(set(&c), want, "after {} misses", n + 1);
        }
        assert_eq!(c.ranks, [2, 1, 0, 3], "the last empty way is next");
        // A hit moves its way to rank 0 and ages only the more recent ways.
        assert!(c.access(0, 7 * 64));
        assert_eq!(c.ranks, [0, 2, 1, 3]);
        // A fourth line fills way 3; a fifth evicts the LRU line, 3 in way 1.
        assert!(!c.access(0, 9 * 64));
        assert!(!c.access(0, 11 * 64));
        assert_eq!(set(&c), [7, 11, 5, 9]);
        assert_eq!(c.ranks, [2, 0, 3, 1]);
    }

    #[test]
    fn tag_store_sets_start_on_a_host_line() {
        let c = SharedCache::new(64 * 1024, 16);
        let start = c.tags[c.tag_base..].as_ptr() as usize;
        assert_eq!(start % LINE_BYTES, 0);
        assert!(c.tags.len() - c.tag_base >= c.sets * c.ways);
    }

    #[test]
    #[should_panic(expected = "associativity 256 exceeds 255 ways")]
    fn more_ways_than_ranks_can_order_is_rejected() {
        SharedCache::with_cores(256 * 64 * 4, 256, 1);
    }

    #[test]
    fn widest_associativity_is_true_lru() {
        let ways = 255;
        let mut c = SharedCache::new(ways * 64, ways);
        for line in 0..ways as u64 {
            assert!(!c.access(0, line * 64));
        }
        // Refresh line 0; line 1 is now the LRU line and the one evicted.
        assert!(c.access(0, 0));
        assert!(!c.access(0, ways as u64 * 64));
        assert!(c.access(0, 0));
        assert!(!c.access(0, 64), "line 1 must have been evicted");
    }

    #[test]
    fn highest_addressable_line_is_cached_not_aliased() {
        // 256 sets: the last line whose tag fits below the empty sentinel.
        let mut c = SharedCache::new(64 * 1024, 4);
        let top = (u64::from(u32::MAX) * 256 - 1) * 64;
        assert!(!c.access(0, top));
        assert!(c.access(0, top));
        assert!(
            !c.access(0, top - 256 * 64),
            "a different tag in the same set"
        );
    }

    #[test]
    #[should_panic(expected = "beyond the cache's tag range")]
    fn address_beyond_the_tag_range_panics() {
        let mut c = SharedCache::new(64 * 1024, 4);
        c.access(0, u64::from(u32::MAX) * 256 * 64);
    }

    #[test]
    #[should_panic(expected = "beyond the cache's tag range")]
    fn touch_beyond_the_tag_range_panics() {
        SharedCache::new(64 * 1024, 4).touch(u64::MAX);
    }

    #[test]
    fn touch_changes_no_state() {
        let mut c = SharedCache::new(4 * 64, 4);
        c.access(0, 0);
        c.access(0, 64);
        let (tags, ranks) = (c.tags.clone(), c.ranks.clone());
        for line in 0..8 {
            c.touch(line * 64);
        }
        assert_eq!((c.tags.clone(), c.ranks.clone()), (tags, ranks));
        assert_eq!((c.total_hits(), c.total_misses()), (0, 2));
    }

    #[test]
    fn reset_stats_preserves_contents() {
        let mut c = SharedCache::new(64 * 1024, 8);
        c.access(0, 0x80);
        c.reset_stats();
        assert_eq!(c.total_misses(), 0);
        assert!(c.access(0, 0x80), "line must still be cached");
    }
}
