//! Property tests: the rank-LRU `SharedCache` against the stamp-LRU tag
//! store it replaced.
//!
//! The reference keeps what the cache model used to be: `u64` tags, one
//! global access clock and a last-use stamp per way, the victim being the
//! way with the smallest stamp (an empty way counts as stamp 0, the lowest
//! index wins ties). Every access of a random multi-core stream must return
//! the same hit or miss from both, and the per-core statistics must agree at
//! the end. Streams draw their lines from a domain of a few sets and a few
//! more tags per set than there are ways, so they reuse lines heavily and
//! conflict in every set. Their tags lie below the 16-bit way words' 12-bit
//! limit, above it (32-bit words from the first access), or across it in
//! the stream's second half, so the store widens partway.

use albatross_mem::cache::{SharedCache, LINE_BYTES};
use albatross_testkit::prelude::*;

/// The stamp-LRU tag store the rank-LRU one must match access for access.
struct StampLru {
    sets: usize,
    ways: usize,
    tags: Vec<u64>,
    stamps: Vec<u64>,
    clock: u64,
    hits: Vec<u64>,
    misses: Vec<u64>,
}

impl StampLru {
    fn new(size_bytes: usize, ways: usize) -> Self {
        let raw_sets = size_bytes / (LINE_BYTES * ways);
        let sets = 1usize << (usize::BITS - 1 - raw_sets.leading_zeros());
        Self {
            sets,
            ways,
            tags: vec![u64::MAX; sets * ways],
            stamps: vec![0; sets * ways],
            clock: 0,
            hits: vec![0; CORES],
            misses: vec![0; CORES],
        }
    }

    fn access(&mut self, core: usize, addr: u64) -> bool {
        let line = addr / LINE_BYTES as u64;
        let base = (line as usize & (self.sets - 1)) * self.ways;
        let tag = line / self.sets as u64;
        self.clock += 1;
        let mut lru_way = 0;
        let mut lru_stamp = u64::MAX;
        for w in 0..self.ways {
            let idx = base + w;
            if self.tags[idx] == tag {
                self.stamps[idx] = self.clock;
                self.hits[core] += 1;
                return true;
            }
            let stamp = if self.tags[idx] == u64::MAX {
                0
            } else {
                self.stamps[idx]
            };
            if stamp < lru_stamp {
                lru_stamp = stamp;
                lru_way = w;
            }
        }
        self.tags[base + lru_way] = tag;
        self.stamps[base + lru_way] = self.clock;
        self.misses[core] += 1;
        false
    }

    fn core_hit_rate(&self, core: usize) -> f64 {
        let (h, m) = (self.hits[core], self.misses[core]);
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

/// Associativities under test, including ways that are not powers of two
/// and more than the 16 a 16-bit way word can rank.
const WAYS: [usize; 10] = [1, 2, 3, 4, 8, 12, 16, 17, 24, 32];
/// Cores issuing the stream.
const CORES: usize = 4;
/// The first tag the cache's 16-bit way words cannot hold.
const NARROW_TAGS: u64 = 4095;

/// Where a stream's tags lie relative to the 16-bit words' 12-bit range.
#[derive(Debug, Clone, Copy)]
enum Tags {
    /// From 0 on: a store of at most 16 ways stays narrow.
    Low,
    /// From 4095 on: the first access widens the store.
    High,
    /// Straddling 4095, reached only in the stream's second half, so a
    /// narrow store fills and then widens partway.
    Crossing,
}

const TAGS: [Tags; 3] = [Tags::Low, Tags::High, Tags::Crossing];

/// Drives `trace` through both stores; `(core, line, byte)` selectors are
/// folded into a domain of `ways + extra` tags in each of `2^sets_log2`
/// sets, placed as `tags` says.
fn assert_matches_stamp_lru(
    ways: usize,
    sets_log2: u32,
    extra: u64,
    tags: Tags,
    trace: &[(u8, u16, u8)],
) {
    let sets = 1usize << sets_log2;
    let size_bytes = sets * ways * LINE_BYTES;
    let mut cache = SharedCache::with_cores(size_bytes, ways, CORES);
    let mut model = StampLru::new(size_bytes, ways);
    assert_eq!(cache.capacity_bytes(), size_bytes);
    let per_set = ways as u64 + extra;
    let first_tag = match tags {
        Tags::Low => 0,
        Tags::High => NARROW_TAGS,
        // Tags below 4095 are exactly those of the first `ways` per set.
        Tags::Crossing => NARROW_TAGS - ways as u64,
    };
    for (i, &(core, line, byte)) in trace.iter().enumerate() {
        let core = usize::from(core) % CORES;
        let line = match tags {
            Tags::Crossing if i < trace.len() / 2 => u64::from(line) % (sets as u64 * ways as u64),
            _ => u64::from(line) % (sets as u64 * per_set),
        };
        let line = line + first_tag * sets as u64;
        let addr = line * LINE_BYTES as u64 + u64::from(byte % 64);
        assert_eq!(
            cache.access(core, addr),
            model.access(core, addr),
            "{ways} ways × {sets} sets, {tags:?} tags: access {i} (core {core}, addr {addr:#x}) diverged"
        );
    }
    assert_eq!(cache.total_hits(), model.hits.iter().sum::<u64>());
    assert_eq!(cache.total_misses(), model.misses.iter().sum::<u64>());
    for core in 0..CORES {
        assert_eq!(
            cache.core_hit_rate(core).to_bits(),
            model.core_hit_rate(core).to_bits(),
            "core {core} statistics diverged"
        );
    }
}

props! {
    #![cases(192)]

    /// Random multi-core streams with heavy reuse and set conflicts hit and
    /// miss exactly where the stamp-LRU store does, at every associativity,
    /// in 16-bit and 32-bit words, and across a mid-stream widening.
    fn rank_lru_matches_stamp_lru(
        ways_idx in 0usize..WAYS.len(),
        sets_log2 in 0u32..4,
        extra in 0u64..6,
        tags_idx in 0usize..TAGS.len(),
        trace in vec_of((any::<u8>(), any::<u16>(), any::<u8>()), 1..800),
    ) {
        assert_matches_stamp_lru(WAYS[ways_idx], sets_log2, extra, TAGS[tags_idx], &trace);
    }
}

#[test]
fn every_geometry_matches_on_a_long_conflicting_stream() {
    // The property draws its geometry; this pins every associativity and
    // tag placement on one long stream whose domain is a third larger than
    // the cache.
    let mut rng = SimRng::seed_from(0x1a7e_c0de);
    let trace: Vec<(u8, u16, u8)> = std::iter::repeat_with(|| rng.next_u64())
        .take(20_000)
        .map(|r| (r as u8, (r >> 8) as u16, (r >> 24) as u8))
        .collect();
    for ways in WAYS {
        for tags in TAGS {
            assert_matches_stamp_lru(ways, 3, (ways as u64).div_ceil(3), tags, &trace);
        }
    }
}
