//! The mark-bit cache (§V-C, Fig. 21).
//!
//! "About 10% of mark operations access the same 56 objects in our
//! benchmarks. We therefore conclude that a small mark bit cache that
//! stores a set of recently accessed objects can be efficient at
//! reducing traffic." The cache is a tiny fully-associative set of
//! recently *marked* references, an O(1) exact LRU ([`LruMap`]) keyed
//! by reference; a hit means the mark AMO can be filtered before it ever
//! reaches the memory system.

use tracegc_sim::lru::{Inserted, LruMap};

/// A small LRU filter over recently marked object references.
///
/// A capacity of zero disables filtering (every lookup misses).
///
/// # Examples
///
/// ```
/// use tracegc_hwgc::MarkBitCache;
///
/// let mut cache = MarkBitCache::new(64);
/// assert!(!cache.filter(0x4000_0010)); // first sight: not filtered
/// assert!(cache.filter(0x4000_0010)); // hot object: filtered
/// ```
#[derive(Debug, Clone)]
pub struct MarkBitCache {
    /// `None` when the cache is disabled (capacity 0).
    entries: Option<LruMap<u64, ()>>,
    hits: u64,
    misses: u64,
}

impl MarkBitCache {
    /// Creates a cache holding `capacity` references (0 = disabled).
    pub fn new(capacity: usize) -> Self {
        Self {
            entries: (capacity > 0).then(|| LruMap::new(capacity)),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `va` and inserts it on a miss. Returns `true` when the
    /// reference was recently marked and the AMO can be skipped.
    pub fn filter(&mut self, va: u64) -> bool {
        let Some(entries) = &mut self.entries else {
            self.misses += 1;
            return false;
        };
        // A resident reference is touched (a hit); a new one is
        // inserted, evicting the LRU reference when full (a miss).
        let hit = entries.insert(va, ()) == Inserted::Updated;
        if hit {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        hit
    }

    /// Lookups that hit (mark operations filtered).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Fraction of lookups filtered, 0.0 when unused.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.entries.as_ref().map_or(0, LruMap::capacity)
    }

    /// Empties the cache (between GC passes).
    pub fn clear(&mut self) {
        if let Some(entries) = &mut self.entries {
            entries.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_cache_never_filters() {
        let mut c = MarkBitCache::new(0);
        assert!(!c.filter(8));
        assert!(!c.filter(8));
        assert_eq!(c.hits(), 0);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn repeated_reference_is_filtered() {
        let mut c = MarkBitCache::new(4);
        assert!(!c.filter(16));
        assert!(c.filter(16));
        assert!(c.filter(16));
        assert_eq!(c.hits(), 2);
    }

    #[test]
    fn lru_keeps_hot_entries() {
        let mut c = MarkBitCache::new(2);
        c.filter(8); // A
        c.filter(16); // B
        c.filter(8); // touch A -> B is LRU
        c.filter(24); // C evicts B
        assert!(c.filter(8), "hot entry evicted");
        assert!(!c.filter(16), "cold entry retained");
    }

    #[test]
    fn hit_ratio_reflects_skew() {
        let mut c = MarkBitCache::new(8);
        // One hot object referenced 90 times among 10 cold ones.
        for i in 0..100u64 {
            let va = if i % 10 == 0 { 8 * (i + 1000) } else { 0x100 };
            c.filter(va);
        }
        assert!(c.hit_ratio() > 0.8, "ratio {}", c.hit_ratio());
    }

    /// The linear cache the indexed one replaced: a `find` per lookup,
    /// a unique monotone use clock, and a `min_by_key` victim scan.
    struct OracleCache {
        entries: Vec<(u64, u64)>, // (ref, last_use)
        capacity: usize,
        clock: u64,
        hits: u64,
        misses: u64,
    }

    impl OracleCache {
        fn filter(&mut self, va: u64) -> bool {
            if self.capacity == 0 {
                self.misses += 1;
                return false;
            }
            self.clock += 1;
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == va) {
                e.1 = self.clock;
                self.hits += 1;
                return true;
            }
            self.misses += 1;
            if self.entries.len() == self.capacity {
                let lru = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].1)
                    .expect("full cache non-empty");
                self.entries.swap_remove(lru);
            }
            self.entries.push((va, self.clock));
            false
        }

        fn resident(&self) -> Vec<u64> {
            let mut r: Vec<u64> = self.entries.iter().map(|e| e.0).collect();
            r.sort_unstable();
            r
        }
    }

    fn resident(c: &MarkBitCache) -> Vec<u64> {
        let mut r: Vec<u64> = c
            .entries
            .iter()
            .flat_map(|e| e.iter())
            .map(|(&va, _)| va)
            .collect();
        r.sort_unstable();
        r
    }

    #[test]
    fn indexed_cache_matches_linear_oracle() {
        use tracegc_sim::rng::{Rng, StdRng};
        for (seed, capacity) in [0usize, 1, 2, 32, 128, 256].into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0x3a7c + seed as u64);
            let mut cache = MarkBitCache::new(capacity);
            let mut oracle = OracleCache {
                entries: Vec::new(),
                capacity,
                clock: 0,
                hits: 0,
                misses: 0,
            };
            // A few hot objects among a wider cold set, 16-byte aligned
            // like heap references.
            let cold = (capacity as u64 * 2).max(8);
            for call in 0..8000 {
                if rng.random_range(0..400u32) == 0 {
                    cache.clear();
                    oracle.entries.clear();
                }
                let va = 0x4000_0000
                    + 16 * if rng.random::<bool>() {
                        rng.random_range(0..8u64)
                    } else {
                        rng.random_range(0..cold)
                    };
                assert_eq!(
                    cache.filter(va),
                    oracle.filter(va),
                    "cap {capacity} call {call}: {va:#x}"
                );
                assert_eq!((cache.hits(), cache.misses()), (oracle.hits, oracle.misses));
                assert_eq!(
                    resident(&cache),
                    oracle.resident(),
                    "cap {capacity} call {call}"
                );
            }
        }
    }

    #[test]
    fn clear_resets_contents_not_stats() {
        let mut c = MarkBitCache::new(2);
        c.filter(8);
        c.clear();
        assert!(!c.filter(8));
        assert_eq!(c.misses(), 2);
    }
}
