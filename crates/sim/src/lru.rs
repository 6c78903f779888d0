//! An O(1) exact-LRU map for the small fully-associative structures the
//! units consult on every request: the L1/L2 TLBs (§VI-A) and the
//! mark-bit cache (§V-C).
//!
//! The hardware replaces the least recently used entry. A model that
//! stamps each use with a unique, monotone clock and evicts the minimum
//! stamp needs a linear scan per miss; this map keeps the same order as
//! an intrusive doubly linked recency list instead, so the entry with
//! the smallest stamp is always the list tail. Lookup, touch, insert and
//! evict-LRU are all O(1), and hits, misses and victims are exactly the
//! ones the stamped scan picks.
//!
//! Keys find their slot through a std [`HashMap`] with an in-tree
//! multiplicative hasher. The index is only probed, never iterated, so its
//! internal order cannot reach any result; [`LruMap::iter`] walks the
//! recency list.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hash, Hasher};

/// A multiplicative (Fx-style) hasher for integer keys: one rotate, xor
/// and multiply per word. Not DoS-resistant, which a simulator's
/// page-aligned addresses do not need. The final fold xors the
/// well-mixed high product bits into the low ones: the table picks
/// buckets by the low bits, where page- or word-aligned keys would
/// otherwise collide.
#[derive(Debug, Clone, Copy, Default)]
pub struct MulHasher(u64);

const MUL: u64 = 0xf135_7aea_2e62_a9c5;

impl Hasher for MulHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(MUL);
    }

    #[inline]
    fn write_usize(&mut self, word: usize) {
        self.write_u64(word as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 29)
    }
}

/// End-of-list marker for the recency links.
const NIL: u32 = u32::MAX;

/// What [`LruMap::insert`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Inserted<K, V> {
    /// The key was resident: its value was replaced and it was touched.
    Updated,
    /// A new key took a free slot.
    Added,
    /// A new key displaced the least recently used entry, returned here.
    Evicted(K, V),
}

/// A bounded map that evicts its least recently used entry when full.
///
/// # Examples
///
/// ```
/// use tracegc_sim::lru::{Inserted, LruMap};
///
/// let mut m = LruMap::new(2);
/// m.insert(1u64, 'a');
/// m.insert(2, 'b');
/// assert!(m.get(&1).is_some()); // 2 is now least recently used
/// assert_eq!(m.insert(3, 'c'), Inserted::Evicted(2, 'b'));
/// assert!(m.get(&2).is_none());
/// ```
#[derive(Debug, Clone)]
pub struct LruMap<K, V> {
    index: HashMap<K, u32, BuildHasherDefault<MulHasher>>,
    keys: Vec<K>,
    vals: Vec<V>,
    /// Link toward the most recently used end.
    prev: Vec<u32>,
    /// Link toward the least recently used end.
    next: Vec<u32>,
    /// Most recently used slot.
    head: u32,
    /// Least recently used slot (the eviction victim).
    tail: u32,
    capacity: usize,
}

impl<K: Copy + Eq + Hash, V> LruMap<K, V> {
    /// Creates an empty map holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit the 32-bit slot
    /// links.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "LRU capacity must be non-zero");
        assert!(capacity < NIL as usize, "LRU capacity too large");
        Self {
            // One spare bucket: a full map inserts the new key before it
            // removes the victim's.
            index: HashMap::with_capacity_and_hasher(capacity + 1, Default::default()),
            keys: Vec::with_capacity(capacity),
            vals: Vec::with_capacity(capacity),
            prev: Vec::with_capacity(capacity),
            next: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
        }
    }

    /// Maximum number of entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// Looks up `key`; a hit becomes the most recently used entry.
    #[inline]
    pub fn get(&mut self, key: &K) -> Option<&V> {
        let slot = *self.index.get(key)?;
        self.touch(slot);
        Some(&self.vals[slot as usize])
    }

    /// Inserts or updates `key` as the most recently used entry. When a
    /// new key arrives at a full map, the least recently used entry is
    /// evicted and returned.
    pub fn insert(&mut self, key: K, val: V) -> Inserted<K, V> {
        let full = self.keys.len() == self.capacity;
        let slot = match self.index.entry(key) {
            Entry::Occupied(e) => {
                let slot = *e.get();
                self.vals[slot as usize] = val;
                self.touch(slot);
                return Inserted::Updated;
            }
            // Full: the tail is the entry with the oldest use; its slot
            // is reused in place.
            Entry::Vacant(e) if full => *e.insert(self.tail),
            Entry::Vacant(e) => {
                let slot = self.keys.len() as u32;
                e.insert(slot);
                self.keys.push(key);
                self.vals.push(val);
                self.prev.push(NIL);
                self.next.push(NIL);
                self.link_front(slot);
                return Inserted::Added;
            }
        };
        let s = slot as usize;
        let old_key = std::mem::replace(&mut self.keys[s], key);
        let old_val = std::mem::replace(&mut self.vals[s], val);
        self.index.remove(&old_key);
        self.touch(slot);
        Inserted::Evicted(old_key, old_val)
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.index.clear();
        self.keys.clear();
        self.vals.clear();
        self.prev.clear();
        self.next.clear();
        self.head = NIL;
        self.tail = NIL;
    }

    /// Entries from most to least recently used (walks the recency
    /// list, never the index).
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> + '_ {
        let mut at = self.head;
        std::iter::from_fn(move || {
            if at == NIL {
                return None;
            }
            let s = at as usize;
            at = self.next[s];
            Some((&self.keys[s], &self.vals[s]))
        })
    }

    /// Moves `slot` to the most recently used end.
    #[inline]
    fn touch(&mut self, slot: u32) {
        if self.head == slot {
            return;
        }
        let (p, n) = (self.prev[slot as usize], self.next[slot as usize]);
        // Not the head, so it has a predecessor.
        self.next[p as usize] = n;
        if n == NIL {
            self.tail = p;
        } else {
            self.prev[n as usize] = p;
        }
        self.link_front(slot);
    }

    /// Links a detached `slot` in as the new head.
    #[inline]
    fn link_front(&mut self, slot: u32) {
        let s = slot as usize;
        self.prev[s] = NIL;
        self.next[s] = self.head;
        if self.head == NIL {
            self.tail = slot;
        } else {
            self.prev[self.head as usize] = slot;
        }
        self.head = slot;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{Rng, StdRng};

    /// The stamped-scan LRU the map replaces: a unique, monotone use
    /// clock and a linear `min_by_key` victim search.
    struct Stamped {
        entries: Vec<(u64, u32, u64)>, // (key, val, last_use)
        capacity: usize,
        clock: u64,
    }

    impl Stamped {
        fn get(&mut self, key: u64) -> Option<u32> {
            self.clock += 1;
            let e = self.entries.iter_mut().find(|e| e.0 == key)?;
            e.2 = self.clock;
            Some(e.1)
        }

        fn insert(&mut self, key: u64, val: u32) -> Inserted<u64, u32> {
            self.clock += 1;
            if let Some(e) = self.entries.iter_mut().find(|e| e.0 == key) {
                e.1 = val;
                e.2 = self.clock;
                return Inserted::Updated;
            }
            let mut done = Inserted::Added;
            if self.entries.len() == self.capacity {
                let lru = (0..self.entries.len())
                    .min_by_key(|&i| self.entries[i].2)
                    .expect("full");
                let (k, v, _) = self.entries.swap_remove(lru);
                done = Inserted::Evicted(k, v);
            }
            self.entries.push((key, val, self.clock));
            done
        }

        /// Keys from most to least recently used.
        fn recency(&self) -> Vec<(u64, u32)> {
            let mut e = self.entries.clone();
            e.sort_by_key(|e| std::cmp::Reverse(e.2));
            e.into_iter().map(|(k, v, _)| (k, v)).collect()
        }
    }

    #[test]
    fn matches_stamped_scan_on_random_streams() {
        for (seed, capacity) in [1usize, 2, 3, 8, 32, 128].into_iter().enumerate() {
            let mut rng = StdRng::seed_from_u64(seed as u64);
            let mut map = LruMap::new(capacity);
            let mut oracle = Stamped {
                entries: Vec::new(),
                capacity,
                clock: 0,
            };
            let keys = (capacity as u64 * 2).max(4);
            for call in 0..5000 {
                let key = rng.random_range(0..keys) << 12;
                match rng.random_range(0..8u32) {
                    0..=3 => assert_eq!(
                        map.get(&key).copied(),
                        oracle.get(key),
                        "cap {capacity} call {call}"
                    ),
                    4..=6 => {
                        let val = rng.random::<u32>();
                        assert_eq!(
                            map.insert(key, val),
                            oracle.insert(key, val),
                            "cap {capacity} call {call}"
                        );
                    }
                    _ if rng.random_range(0..64u32) == 0 => {
                        map.clear();
                        oracle.entries.clear();
                    }
                    _ => {}
                }
                let order: Vec<(u64, u32)> = map.iter().map(|(k, v)| (*k, *v)).collect();
                assert_eq!(order, oracle.recency(), "cap {capacity} call {call}");
                assert_eq!(map.len(), oracle.entries.len());
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_capacity_panics() {
        LruMap::<u64, ()>::new(0);
    }

    #[test]
    fn reinsert_updates_value_and_recency() {
        let mut m = LruMap::new(2);
        m.insert(1u64, 10);
        m.insert(2, 20);
        assert_eq!(m.insert(1, 11), Inserted::Updated); // MRU, new value
        assert_eq!(m.insert(3, 30), Inserted::Evicted(2, 20));
        assert_eq!(m.get(&1).copied(), Some(11));
    }

    #[test]
    fn hasher_spreads_page_aligned_keys() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<MulHasher>::default();
        let mut low: Vec<u64> = (0..256u64).map(|p| build.hash_one(p << 12) & 255).collect();
        low.sort_unstable();
        low.dedup();
        assert!(low.len() > 128, "only {} distinct low bytes", low.len());
    }
}
