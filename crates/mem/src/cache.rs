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
//! With the production geometry (192 MiB, 16-way, 64 B lines) the model has
//! 2^17 sets, and the tag store is laid out for the host. Each way is one
//! `u16`: a 12-bit tag above a 4-bit rank. A 16-way set takes 32 bytes, two
//! sets share a 64-byte host line, and the whole store takes 4 MiB. An
//! access is one branch-free pass over the set's 16 lanes that yields a hit
//! bitmask and a victim bitmask, then one vector add that ages the more
//! recent ways.
//!
//! Geometries that do not fit 16 bits use 32-bit words, a 24-bit tag above
//! an 8-bit rank, through the same generic code: more than 16 ways, or a tag
//! of 4095 or more (4095 is the narrow form's empty marker). Production
//! tags are `addr >> 23`, about 512–1100 for the tables' 4–9 GiB span, so
//! they fit; a small cache in front of the same tables sees larger tags. A
//! store starts narrow when its associativity allows and widens itself,
//! once, the first time an access brings a tag that does not fit, keeping
//! every tag and rank. The word width changes no modeled outcome: the ranks
//! order the ways exactly as before, so hits and victims are the same in
//! either form.

use std::ops::{Add, BitAnd, Not};

/// Cache line size in bytes.
pub const LINE_BYTES: usize = 64;

/// Lanes one scan step covers. A set spans a whole number of them; the
/// lanes beyond its ways are inert padding.
const LANES: usize = 16;

/// Largest associativity: the wide form's ranks are one byte.
const MAX_WAYS: usize = u8::MAX as usize;

/// One way packed into one word: its tag above a `RANK_BITS`-bit recency
/// rank. The all-ones tag, [`Way::EMPTY_TAG`], marks an empty way. Padding
/// lanes hold the empty tag and a rank of at least `ways`, so they never
/// hit, never become the victim and never age.
trait Way:
    Copy
    + Ord
    + Add<Output = Self>
    + BitAnd<Output = Self>
    + Not<Output = Self>
    + From<bool>
    + Into<u64>
{
    /// Bits of the word.
    const BITS: u32;
    /// Bits of the rank, below the tag.
    const RANK_BITS: u32;
    /// The empty marker; every real tag lies below it.
    const EMPTY_TAG: u64 = (1 << (Self::BITS - Self::RANK_BITS)) - 1;

    /// The low `BITS` bits of `v`.
    fn from_u64(v: u64) -> Self;

    /// The word of a way holding `tag` at `rank`.
    #[inline]
    fn pack(tag: u64, rank: u64) -> Self {
        Self::from_u64(tag << Self::RANK_BITS | rank)
    }

    /// `(tag, rank)` of a word.
    #[inline]
    fn unpack(self) -> (u64, u64) {
        let w: u64 = self.into();
        (w >> Self::RANK_BITS, w & ((1 << Self::RANK_BITS) - 1))
    }
}

impl Way for u16 {
    const BITS: u32 = 16;
    const RANK_BITS: u32 = 4;

    #[inline]
    fn from_u64(v: u64) -> Self {
        v as u16
    }
}

impl Way for u32 {
    const BITS: u32 = 32;
    const RANK_BITS: u32 = 8;

    #[inline]
    fn from_u64(v: u64) -> Self {
        v as u32
    }
}

/// A tag store: `stride` words per set from index `base` on, where `base`
/// puts set 0 on a 64-byte host line boundary. The `Vec` never grows after
/// it is filled, so the boundary stays put.
#[derive(Debug)]
struct Words<W> {
    words: Vec<W>,
    base: usize,
}

impl<W: Way> Words<W> {
    /// Room for `len` words, with the alignment padding already in place.
    fn aligned(len: usize) -> Self {
        let size = std::mem::size_of::<W>();
        let per_line = LINE_BYTES / size;
        let mut words = Vec::with_capacity(len + per_line - 1);
        let misalign = words.as_ptr() as usize % LINE_BYTES / size;
        let base = (per_line - misalign) % per_line;
        words.resize(base, W::from_u64(u64::MAX));
        Self { words, base }
    }

    /// `sets` empty sets of `ways` ways padded to `stride` lanes. Way 0 is
    /// the least recently used, then way 1, …: empty ways fill lowest index
    /// first.
    fn empty(sets: usize, ways: usize, stride: usize) -> Self {
        let mut store = Self::aligned(sets * stride);
        store
            .words
            .extend((0..stride).map(|w| match ways.checked_sub(w + 1) {
                Some(rank) => W::pack(W::EMPTY_TAG, rank as u64),
                None => W::from_u64(u64::MAX),
            }));
        // Copy the first set, doubling the filled prefix each time.
        let len = store.base + sets * stride;
        while store.words.len() < len {
            let n = (store.words.len() - store.base).min(len - store.words.len());
            store.words.extend_from_within(store.base..store.base + n);
        }
        store
    }

    /// Every lane of every set, in order.
    fn lanes(&self) -> &[W] {
        &self.words[self.base..]
    }

    /// The `stride` lanes of `set`.
    #[inline]
    fn set_mut(&mut self, set: usize, stride: usize) -> &mut [W] {
        &mut self.words[self.base + set * stride..][..stride]
    }
}

/// The tag store in its current word width.
#[derive(Debug)]
enum Store {
    /// 12-bit tags, 4-bit ranks, at most 16 ways.
    Narrow(Words<u16>),
    /// 24-bit tags, 8-bit ranks.
    Wide(Words<u32>),
}

/// One access to `set`, its `ways` ways followed by inert padding in whole
/// [`LANES`]-lane chunks. Returns `true` when `tag` hit. Misses install the
/// tag in the victim, the way of rank `ways - 1`.
#[inline]
fn access_set<W: Way>(set: &mut [W], ways: usize, tag: u64) -> bool {
    let rank_mask = W::from_u64((1 << W::RANK_BITS) - 1);
    let tag_word = W::pack(tag, 0);
    let lru = W::from_u64(ways as u64 - 1);
    // One branch-free pass per chunk finds the hit way (at most one tag
    // matches) and the victim (exactly one way has rank `ways - 1`), so the
    // host can run ahead into the next access while this set's line is
    // still on its way.
    let mut hit_way = None;
    let mut victim = 0;
    for (c, chunk) in set.chunks_exact(LANES).enumerate() {
        let mut hits = 0u32;
        let mut lrus = 0u32;
        for (lane, &w) in chunk.iter().enumerate() {
            hits |= u32::from(w & !rank_mask == tag_word) << lane;
            lrus |= u32::from(w & rank_mask == lru) << lane;
        }
        if hits != 0 {
            hit_way = Some(c * LANES + hits.trailing_zeros() as usize);
        }
        if lrus != 0 {
            victim = c * LANES + lrus.trailing_zeros() as usize;
        }
    }
    let way = hit_way.unwrap_or(victim);
    // Age every way more recent than the one moving to rank 0. No rank
    // below `ways - 1` carries into the tag.
    let rank = set[way] & rank_mask;
    for w in set.iter_mut() {
        *w = *w + W::from(*w & rank_mask < rank);
    }
    set[way] = tag_word;
    hit_way.is_some()
}

/// A shared, set-associative, true-LRU cache with per-core hit statistics.
#[derive(Debug)]
pub struct SharedCache {
    sets: usize,
    ways: usize,
    /// `log2(sets)`: a line's tag is `line >> set_bits`.
    set_bits: u32,
    /// Lanes per set: `ways` rounded up to whole [`LANES`]-lane chunks.
    stride: usize,
    store: Store,
    hits: Vec<u64>,
    misses: Vec<u64>,
}

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
        let stride = ways.next_multiple_of(LANES);
        let store = if ways <= 1 << u16::RANK_BITS {
            Store::Narrow(Words::empty(sets, ways, stride))
        } else {
            Store::Wide(Words::empty(sets, ways, stride))
        };
        Self {
            sets,
            ways,
            set_bits,
            stride,
            store,
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
    /// Panics when the tag does not fit the wide form's 24 bits below its
    /// empty marker: a wider address would alias another line instead of
    /// missing.
    #[inline]
    fn locate(&self, addr: u64) -> (usize, u64) {
        let line = addr / LINE_BYTES as u64;
        let set = (line as usize) & (self.sets - 1);
        let tag = line >> self.set_bits;
        assert!(
            tag < u32::EMPTY_TAG,
            "address {addr:#x} is beyond the cache's tag range"
        );
        (set, tag)
    }

    /// Performs an access from `core` to byte address `addr`.
    /// Returns `true` on hit. Misses install the line, evicting LRU.
    ///
    /// # Panics
    /// Panics when the tag `addr / 64 / sets` reaches `2^24 - 1`, i.e. for
    /// addresses from about `2^24 × sets × 64` bytes on.
    #[inline]
    pub fn access(&mut self, core: usize, addr: u64) -> bool {
        let (set, tag) = self.locate(addr);
        if core >= self.hits.len() {
            self.grow_stats(core);
        }
        let (ways, stride) = (self.ways, self.stride);
        let hit = match &mut self.store {
            Store::Narrow(s) if tag < u16::EMPTY_TAG => {
                access_set(s.set_mut(set, stride), ways, tag)
            }
            Store::Wide(s) => access_set(s.set_mut(set, stride), ways, tag),
            Store::Narrow(_) => self.widen_and_access(set, tag),
        };
        self.hits[core] += u64::from(hit);
        self.misses[core] += u64::from(!hit);
        hit
    }

    /// Repacks a narrow store into 32-bit words, keeping every tag and
    /// rank, and makes the access whose tag the narrow form cannot hold.
    /// Out of line like [`Self::grow_stats`]: a store widens at most once,
    /// and the production geometry never does.
    #[cold]
    #[inline(never)]
    fn widen_and_access(&mut self, set: usize, tag: u64) -> bool {
        let Store::Narrow(narrow) = &self.store else {
            unreachable!("only a narrow store widens");
        };
        let lanes = narrow.lanes();
        let mut wide = Words::aligned(lanes.len());
        wide.words.extend(lanes.iter().map(|&w| {
            let (tag, rank) = w.unpack();
            let tag = if tag == u16::EMPTY_TAG {
                u32::EMPTY_TAG
            } else {
                tag
            };
            u32::pack(tag, rank)
        }));
        let hit = access_set(wide.set_mut(set, self.stride), self.ways, tag);
        self.store = Store::Wide(wide);
        hit
    }

    /// Loads the host line [`Self::access`] would read for `addr` — its
    /// set's first lane — without changing any state. Touching the sets of
    /// several independent accesses before making them lets their host
    /// cache misses overlap instead of queueing one after another.
    ///
    /// # Panics
    /// Panics where [`Self::access`] would.
    #[inline]
    pub fn touch(&self, addr: u64) {
        let (set, _) = self.locate(addr);
        match &self.store {
            Store::Narrow(s) => {
                std::hint::black_box(s.words[s.base + set * self.stride]);
            }
            Store::Wide(s) => {
                std::hint::black_box(s.words[s.base + set * self.stride]);
            }
        }
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
    use crate::tables::CloudGatewayTables;

    /// An empty way's tag in [`lanes`], whatever the word width.
    const E: u64 = u64::MAX;

    /// Every lane of the store as `(tag, rank)`, whatever its width.
    fn lanes(c: &SharedCache) -> Vec<(u64, u64)> {
        fn unpack<W: Way>(s: &Words<W>) -> Vec<(u64, u64)> {
            let unpack = |w: &W| match w.unpack() {
                (tag, rank) if tag == W::EMPTY_TAG => (E, rank),
                way => way,
            };
            s.lanes().iter().map(unpack).collect()
        }
        match &c.store {
            Store::Narrow(s) => unpack(s),
            Store::Wide(s) => unpack(s),
        }
    }

    /// `(tags, ranks)` of the ways of `set`.
    fn set_ways(c: &SharedCache, set: usize) -> (Vec<u64>, Vec<u64>) {
        lanes(c)[set * c.stride..][..c.ways].iter().copied().unzip()
    }

    /// Host address of set 0 and bytes per set.
    fn layout(c: &SharedCache) -> (usize, usize) {
        match &c.store {
            Store::Narrow(s) => (s.lanes().as_ptr() as usize, c.stride * 2),
            Store::Wide(s) => (s.lanes().as_ptr() as usize, c.stride * 4),
        }
    }

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
        assert_eq!(set_ways(&c, 0), (vec![E; 4], vec![3, 2, 1, 0]));
        for (n, tag) in [7u64, 3, 5].into_iter().enumerate() {
            assert!(!c.access(0, tag * 64));
            let mut want = [E; 4];
            want[..=n].copy_from_slice(&[7, 3, 5][..=n]);
            assert_eq!(set_ways(&c, 0).0, want, "after {} misses", n + 1);
        }
        assert_eq!(
            set_ways(&c, 0).1,
            [2, 1, 0, 3],
            "the last empty way is next"
        );
        // A hit moves its way to rank 0 and ages only the more recent ways.
        assert!(c.access(0, 7 * 64));
        assert_eq!(set_ways(&c, 0).1, [0, 2, 1, 3]);
        // A fourth line fills way 3; a fifth evicts the LRU line, 3 in way 1.
        assert!(!c.access(0, 9 * 64));
        assert!(!c.access(0, 11 * 64));
        assert_eq!(set_ways(&c, 0), (vec![7, 11, 5, 9], vec![2, 0, 3, 1]));
        // The twelve padding lanes stay all ones throughout.
        assert_eq!(lanes(&c)[4..], [(E, 15); 12]);
    }

    #[test]
    fn sixteen_way_sets_are_32_bytes_two_per_host_line() {
        let c = SharedCache::new(64 * 1024, 16);
        assert!(matches!(c.store, Store::Narrow(_)));
        let (start, set_bytes) = layout(&c);
        assert_eq!((start % LINE_BYTES, set_bytes), (0, 32));
        assert_eq!(lanes(&c).len(), c.sets * c.ways);
    }

    #[test]
    fn wide_sets_start_on_a_host_line() {
        // More than 16 ways: 32-bit words, 24 padded to 32 lanes (two host
        // lines per set).
        let c = SharedCache::new(64 * 1024, 24);
        assert!(matches!(c.store, Store::Wide(_)));
        let (start, set_bytes) = layout(&c);
        assert_eq!((start % LINE_BYTES, set_bytes), (0, 128));
        assert_eq!(lanes(&c).len(), c.sets * 32);
        assert_eq!(lanes(&c)[24..32], [(E, 255); 8]);
    }

    #[test]
    fn a_tag_beyond_twelve_bits_widens_the_store_once_keeping_its_contents() {
        // 256 sets of 8 ways: tags are `addr >> 14`.
        let mut c = SharedCache::new(256 * 8 * 64, 8);
        let line = |tag: u64, set: u64| (tag << 8 | set) * 64;
        for tag in [1, 4094, 9] {
            assert!(!c.access(0, line(tag, 3)));
        }
        assert!(c.access(0, line(4094, 3)));
        let before = set_ways(&c, 3);
        assert!(matches!(c.store, Store::Narrow(_)));
        // Touching a wide tag reads the set and changes nothing.
        c.touch(line(4095, 3));
        assert!(matches!(c.store, Store::Narrow(_)));
        // Tag 4095 is the narrow empty marker: the first access widens.
        assert!(!c.access(0, line(4095, 5)));
        assert!(matches!(c.store, Store::Wide(_)));
        assert_eq!(set_ways(&c, 3), before, "tags and ranks survive");
        let (start, _) = layout(&c);
        assert_eq!(start % LINE_BYTES, 0);
        for tag in [1, 4094, 9] {
            assert!(c.access(0, line(tag, 3)), "tag {tag} must still hit");
        }
        assert!(c.access(0, line(4095, 5)));
        assert_eq!((c.total_hits(), c.total_misses()), (5, 4));
    }

    #[test]
    fn production_tables_never_widen_the_4_mib_store() {
        // The pod's geometry over the full-size table inventory: the first
        // and last line of every table, and a spread of entries between.
        let mut c = SharedCache::with_cores(192 * 1024 * 1024, 16, 1);
        let t = CloudGatewayTables::scaled(1.0);
        for table in [
            t.vm_nc,
            t.vxlan_lpm,
            t.tenant_cfg,
            t.acl,
            t.session,
            t.inet_route,
        ] {
            let (n, bytes) = (t.ws.entries(table), u64::from(t.ws.entry_bytes(table)));
            for i in (0..64).map(|k| k * (n / 64)).chain([n - 1]) {
                c.access(0, t.ws.entry_addr(table, i));
                c.access(0, t.ws.entry_addr(table, i) + bytes - 1);
            }
        }
        assert!(
            matches!(c.store, Store::Narrow(_)),
            "production store widened"
        );
        assert_eq!(lanes(&c).len() * 2, 4 << 20, "4 MiB of u16 ways");
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
        // 256 sets: the last line whose tag fits below the wide form's
        // 24-bit empty marker.
        let mut c = SharedCache::new(64 * 1024, 4);
        let top = (u32::EMPTY_TAG * 256 - 1) * 64;
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
        c.access(0, u32::EMPTY_TAG * 256 * 64);
    }

    #[test]
    #[should_panic(expected = "beyond the cache's tag range")]
    fn touch_beyond_the_tag_range_panics() {
        SharedCache::new(64 * 1024, 4).touch(u32::EMPTY_TAG * 256 * 64);
    }

    #[test]
    fn touch_changes_no_state() {
        let mut c = SharedCache::new(4 * 64, 4);
        c.access(0, 0);
        c.access(0, 64);
        let before = lanes(&c);
        for line in 0..8 {
            c.touch(line * 64);
        }
        assert_eq!(lanes(&c), before);
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
