//! Fully-associative LRU translation look-aside buffers.
//!
//! The traversal unit carries 32-entry L1 TLBs in the marker and tracer
//! and a 128-entry shared L2 TLB (§VI-A). At these sizes hardware TLBs
//! are fully associative; the model is an O(1) exact LRU
//! ([`LruMap`]) keyed by a mapping's base VA and page size.
//!
//! A lookup probes the map once for each page size that currently has a
//! resident entry: normally only 4 KiB, plus 2 MiB when superpages are
//! mapped (§VII). This returns what a first-match scan over all entries
//! would, because every entry comes from one page table, and a page
//! table maps each VA through at most one leaf: at most one resident
//! entry covers any VA.

use tracegc_sim::lru::{Inserted, LruMap};

/// A fully-associative, LRU-replaced TLB.
///
/// # Examples
///
/// ```
/// use tracegc_vmem::Tlb;
///
/// let mut tlb = Tlb::new(2);
/// tlb.insert(0x4000_0000, 0x1000);
/// assert_eq!(tlb.lookup(0x4000_0123), Some(0x1123));
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    /// `(base VA, page bytes)` → base PA, both bases aligned to the
    /// page size.
    entries: LruMap<(u64, u64), u64>,
    /// `(page bytes, resident entries)` for every page size with at
    /// least one resident entry.
    sizes: Vec<(u64, usize)>,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// Creates an empty TLB with `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "TLB capacity must be non-zero");
        Self {
            entries: LruMap::new(capacity),
            sizes: Vec::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// Looks up `va`; on a hit returns the full physical address.
    pub fn lookup(&mut self, va: u64) -> Option<u64> {
        for &(page_bytes, _) in &self.sizes {
            if let Some(&base_pa) = self.entries.get(&(va & !(page_bytes - 1), page_bytes)) {
                self.hits += 1;
                return Some(base_pa + (va & (page_bytes - 1)));
            }
        }
        self.misses += 1;
        None
    }

    /// Installs a 4 KiB translation for the page containing `va`,
    /// evicting the LRU entry when full.
    pub fn insert(&mut self, va: u64, pa: u64) {
        self.insert_sized(va, pa, crate::PAGE_SIZE);
    }

    /// Installs a translation with an explicit page size (superpage
    /// entries cover far more reach per TLB slot — the §VII argument).
    ///
    /// # Panics
    ///
    /// Panics if `page_bytes` is not a power of two.
    pub fn insert_sized(&mut self, va: u64, pa: u64, page_bytes: u64) {
        assert!(
            page_bytes.is_power_of_two(),
            "page size must be a power of two"
        );
        let key = (va & !(page_bytes - 1), page_bytes);
        match self.entries.insert(key, pa & !(page_bytes - 1)) {
            Inserted::Updated => return,
            Inserted::Added => {}
            Inserted::Evicted((_, gone), _) => {
                let i = self
                    .sizes
                    .iter()
                    .position(|&(bytes, _)| bytes == gone)
                    .expect("evicted page size is resident");
                self.sizes[i].1 -= 1;
                if self.sizes[i].1 == 0 {
                    self.sizes.swap_remove(i);
                }
            }
        }
        match self
            .sizes
            .iter_mut()
            .find(|(bytes, _)| *bytes == page_bytes)
        {
            Some((_, n)) => *n += 1,
            None => self.sizes.push((page_bytes, 1)),
        }
    }

    /// Drops every entry (e.g. on address-space switch).
    pub fn flush(&mut self) {
        self.entries.clear();
        self.sizes.clear();
    }

    /// Hit count.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the TLB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::PAGE_SIZE;

    #[test]
    fn hit_after_insert() {
        let mut tlb = Tlb::new(4);
        tlb.insert(0x4000_0000, 7 * PAGE_SIZE);
        assert_eq!(tlb.lookup(0x4000_0ab0), Some(7 * PAGE_SIZE + 0xab0));
        assert_eq!(tlb.hits(), 1);
    }

    #[test]
    fn miss_on_unknown_page() {
        let mut tlb = Tlb::new(4);
        assert_eq!(tlb.lookup(0x1000), None);
        assert_eq!(tlb.misses(), 1);
    }

    #[test]
    fn lru_eviction_keeps_recently_used() {
        let mut tlb = Tlb::new(2);
        tlb.insert(0, 0);
        tlb.insert(PAGE_SIZE, PAGE_SIZE);
        // Touch page 0 so page 1 becomes LRU.
        tlb.lookup(0);
        tlb.insert(2 * PAGE_SIZE, 2 * PAGE_SIZE);
        assert!(tlb.lookup(0).is_some());
        assert!(tlb.lookup(PAGE_SIZE).is_none());
        assert!(tlb.lookup(2 * PAGE_SIZE).is_some());
    }

    #[test]
    fn reinsert_updates_mapping() {
        let mut tlb = Tlb::new(2);
        tlb.insert(0, 0);
        tlb.insert(0, 5 * PAGE_SIZE);
        assert_eq!(tlb.lookup(0x10), Some(5 * PAGE_SIZE + 0x10));
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn flush_empties() {
        let mut tlb = Tlb::new(2);
        tlb.insert(0, 0);
        tlb.flush();
        assert!(tlb.is_empty());
        assert_eq!(tlb.lookup(0), None);
    }

    /// The linear TLB the indexed one replaced: first-match `find` on
    /// lookup, a unique monotone use clock, and a `min_by_key` scan for
    /// the victim.
    struct OracleTlb {
        entries: Vec<(u64, u64, u64, u64)>, // (base_va, base_pa, page_bytes, last_use)
        capacity: usize,
        clock: u64,
        hits: u64,
        misses: u64,
    }

    impl OracleTlb {
        fn new(capacity: usize) -> Self {
            Self {
                entries: Vec::new(),
                capacity,
                clock: 0,
                hits: 0,
                misses: 0,
            }
        }

        fn lookup(&mut self, va: u64) -> Option<u64> {
            self.clock += 1;
            if let Some(e) = self.entries.iter_mut().find(|e| va & !(e.2 - 1) == e.0) {
                e.3 = self.clock;
                self.hits += 1;
                Some(e.1 + (va & (e.2 - 1)))
            } else {
                self.misses += 1;
                None
            }
        }

        fn insert_sized(&mut self, va: u64, pa: u64, page_bytes: u64) {
            self.clock += 1;
            let base_va = va & !(page_bytes - 1);
            let base_pa = pa & !(page_bytes - 1);
            if let Some(e) = self
                .entries
                .iter_mut()
                .find(|e| e.0 == base_va && e.2 == page_bytes)
            {
                e.1 = base_pa;
                e.3 = self.clock;
                return;
            }
            if self.entries.len() == self.capacity {
                let lru = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].3)
                    .expect("full TLB is non-empty");
                self.entries.swap_remove(lru);
            }
            self.entries
                .push((base_va, base_pa, page_bytes, self.clock));
        }

        fn resident(&self) -> Vec<(u64, u64, u64)> {
            let mut r: Vec<_> = self.entries.iter().map(|e| (e.0, e.1, e.2)).collect();
            r.sort_unstable();
            r
        }
    }

    impl Tlb {
        fn resident(&self) -> Vec<(u64, u64, u64)> {
            let mut r: Vec<_> = self
                .entries
                .iter()
                .map(|(&(base_va, page_bytes), &base_pa)| (base_va, base_pa, page_bytes))
                .collect();
            r.sort_unstable();
            r
        }
    }

    #[test]
    fn indexed_tlb_matches_linear_oracle() {
        use crate::pagetable::MEGAPAGE_SIZE;
        use tracegc_sim::rng::{Rng, StdRng};
        // 4 KiB pages and 2 MiB superpages live on disjoint VA ranges,
        // as they do under one page table.
        const SMALL_BASE: u64 = 0x4000_0000;
        const HUGE_BASE: u64 = 0x1_0000_0000;
        for (seed, capacity) in [1usize, 2, 32, 128, 256].into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(0x71b0 + seed as u64);
            let mut tlb = Tlb::new(capacity);
            let mut oracle = OracleTlb::new(capacity);
            // Enough distinct pages to keep the LRU evicting, few enough
            // that keys repeat.
            let small_pages = (capacity as u64 * 3 / 2).max(3);
            let huge_pages = (capacity as u64 / 4).max(2);
            for call in 0..6000 {
                let huge = rng.random_range(0..5u32) == 0;
                let (va, page_bytes) = if huge {
                    let page = rng.random_range(0..huge_pages);
                    let off = rng.random_range(0..MEGAPAGE_SIZE / 8) * 8;
                    (HUGE_BASE + page * MEGAPAGE_SIZE + off, MEGAPAGE_SIZE)
                } else {
                    let page = rng.random_range(0..small_pages);
                    let off = rng.random_range(0..PAGE_SIZE / 8) * 8;
                    (SMALL_BASE + page * PAGE_SIZE + off, PAGE_SIZE)
                };
                match rng.random_range(0..16u32) {
                    0..=8 => assert_eq!(
                        tlb.lookup(va),
                        oracle.lookup(va),
                        "cap {capacity} call {call}: lookup {va:#x}"
                    ),
                    9..=14 => {
                        // Frames from a small pool, so re-inserting a
                        // resident key often changes its PA.
                        let pa = rng.random_range(0..8u64) * page_bytes;
                        tlb.insert_sized(va, pa, page_bytes);
                        oracle.insert_sized(va, pa, page_bytes);
                    }
                    _ if rng.random_range(0..32u32) == 0 => {
                        tlb.flush();
                        oracle.entries.clear();
                    }
                    _ => {}
                }
                assert_eq!(
                    (tlb.hits(), tlb.misses()),
                    (oracle.hits, oracle.misses),
                    "cap {capacity} call {call}: counters"
                );
                assert_eq!(
                    tlb.resident(),
                    oracle.resident(),
                    "cap {capacity} call {call}: resident set"
                );
                assert_eq!(tlb.len(), oracle.entries.len());
            }
            assert!(oracle.hits > 0 && oracle.misses > 0, "cap {capacity}");
        }
    }

    #[test]
    fn capacity_is_respected() {
        let mut tlb = Tlb::new(3);
        for i in 0..10u64 {
            tlb.insert(i * PAGE_SIZE, i * PAGE_SIZE);
        }
        assert_eq!(tlb.len(), 3);
    }
}

#[cfg(test)]
mod superpage_tests {
    use super::*;
    use crate::pagetable::MEGAPAGE_SIZE;
    use crate::PAGE_SIZE;

    #[test]
    fn one_superpage_entry_covers_two_mib() {
        let mut tlb = Tlb::new(2);
        tlb.insert_sized(0x4000_0000, 0x80_0000, MEGAPAGE_SIZE);
        // Any 4 KiB page inside the megapage hits the single entry.
        for off in [0u64, PAGE_SIZE, 511 * PAGE_SIZE, MEGAPAGE_SIZE - 8] {
            assert_eq!(
                tlb.lookup(0x4000_0000 + off),
                Some(0x80_0000 + off),
                "offset {off:#x}"
            );
        }
        assert_eq!(tlb.lookup(0x4000_0000 + MEGAPAGE_SIZE), None);
        assert_eq!(tlb.len(), 1);
    }

    #[test]
    fn mixed_sizes_coexist() {
        let mut tlb = Tlb::new(4);
        tlb.insert_sized(0, 0x10_0000, PAGE_SIZE);
        tlb.insert_sized(MEGAPAGE_SIZE, 0x80_0000, MEGAPAGE_SIZE);
        assert_eq!(tlb.lookup(0x10), Some(0x10_0010));
        assert_eq!(tlb.lookup(MEGAPAGE_SIZE + 0x1234), Some(0x80_1234));
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_power_of_two_page_panics() {
        let mut tlb = Tlb::new(1);
        tlb.insert_sized(0, 0, 3000);
    }
}
