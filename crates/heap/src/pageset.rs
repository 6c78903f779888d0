//! The heap's mapped pages, as compact runs that also carry their frames.
//!
//! The heap maps virtual pages in long monotone runs — each space grows
//! by bump allocation, so consecutive `ensure_mapped` calls extend the
//! same interval, and the bump frame allocator hands out consecutive
//! frames. A sorted run list of `(first_page, end_page, first_frame)`
//! therefore stays small for multi-GB heaps, where a per-page
//! `HashMap<u64, u64>` would cost tens of bytes per 4 KiB page and hash
//! on every access. One structure answers both "is this page mapped?"
//! and "which frame backs it?", so the heap's functional accesses never
//! need to walk the radix page table.

/// One maximal run: pages `[start, end)` map to consecutive frames
/// starting at `frame`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    start: u64,
    end: u64,
    frame: u64,
}

impl Run {
    /// The page-to-frame offset; two runs (or a run and a new range) can
    /// merge only when it is the same, i.e. both VA and PA continue.
    fn delta(&self) -> u64 {
        self.frame.wrapping_sub(self.start)
    }
}

/// Sorted, disjoint half-open runs `[start, end)` of page numbers, each
/// mapped to a contiguous range of frame numbers. Adjacent runs merge
/// whenever their frames are contiguous too. A mapping is never changed
/// once inserted.
///
/// # Examples
///
/// ```
/// use tracegc_heap::pageset::PageSet;
///
/// let mut set = PageSet::new();
/// assert!(set.insert(7, 100));
/// assert!(!set.insert(7, 100));
/// set.insert_range(8, 12, 101);
/// assert!(set.contains(11));
/// assert_eq!(set.frame_of(11), Some(104));
/// assert_eq!(set.run_count(), 1); // [7, 12) -> [100, 105) merged
/// ```
#[derive(Debug, Clone, Default)]
pub struct PageSet {
    runs: Vec<Run>,
}

impl PageSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Index of the run containing `page`, or where one would go.
    #[inline]
    fn locate(&self, page: u64) -> Result<usize, usize> {
        self.runs.binary_search_by(|r| {
            if page < r.start {
                std::cmp::Ordering::Greater
            } else if page >= r.end {
                std::cmp::Ordering::Less
            } else {
                std::cmp::Ordering::Equal
            }
        })
    }

    /// Whether `page` is in the set.
    pub fn contains(&self, page: u64) -> bool {
        self.locate(page).is_ok()
    }

    /// The frame number backing `page`, or `None` when it is unmapped.
    #[inline]
    pub fn frame_of(&self, page: u64) -> Option<u64> {
        let r = self.runs[self.locate(page).ok()?];
        Some(r.frame + (page - r.start))
    }

    /// Maps a single page to `frame`; returns `true` if it was newly
    /// added.
    ///
    /// # Panics
    ///
    /// Panics if `page` is already mapped to a different frame.
    pub fn insert(&mut self, page: u64, frame: u64) -> bool {
        match self.locate(page) {
            Ok(_) => {
                assert_eq!(
                    self.frame_of(page),
                    Some(frame),
                    "page {page:#x} already mapped to another frame"
                );
                false
            }
            Err(_) => {
                self.insert_range(page, page + 1, frame);
                true
            }
        }
    }

    /// Maps every page in `[start, end)` to consecutive frames from
    /// `frame`, merging with any run the range overlaps or abuts whose
    /// frames continue it.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`, or if a page in the range is already
    /// mapped to a different frame.
    pub fn insert_range(&mut self, start: u64, end: u64, frame: u64) {
        assert!(start <= end, "inverted range");
        if start == end {
            return;
        }
        let new = Run { start, end, frame };
        // First run that could merge (ends at or after `start`) …
        let mut lo = self.runs.partition_point(|r| r.end < start);
        // … and one past the last run that could merge (starts at or
        // before `end`).
        let mut hi = self.runs.partition_point(|r| r.start <= end);
        for r in &self.runs[lo..hi] {
            assert!(
                r.delta() == new.delta() || r.end == start || r.start == end,
                "pages [{start:#x}, {end:#x}) overlap a mapping to other frames"
            );
        }
        // Runs that only abut the range but map elsewhere stay separate.
        if lo < hi && self.runs[lo].delta() != new.delta() {
            lo += 1;
        }
        if lo < hi && self.runs[hi - 1].delta() != new.delta() {
            hi -= 1;
        }
        if lo == hi {
            self.runs.insert(lo, new);
            return;
        }
        let first = start.min(self.runs[lo].start);
        let merged = Run {
            start: first,
            end: end.max(self.runs[hi - 1].end),
            frame: new.delta().wrapping_add(first),
        };
        self.runs.splice(lo..hi, [merged]);
    }

    /// Number of pages in the set.
    pub fn page_count(&self) -> u64 {
        self.runs.iter().map(|r| r.end - r.start).sum()
    }

    /// Number of maximal runs — the set's actual host footprint is
    /// [`PageSet::RUN_BYTES`] per run.
    pub fn run_count(&self) -> usize {
        self.runs.len()
    }

    /// Host bytes one run occupies.
    pub const RUN_BYTES: usize = std::mem::size_of::<Run>();
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frames for the set-shaped tests: a fixed offset, so every range
    /// continues its neighbours and merging behaves as for a plain set.
    const OFF: u64 = 1000;

    #[test]
    fn insert_and_contains() {
        let mut set = PageSet::new();
        assert!(!set.contains(5));
        assert!(set.insert(5, 5 + OFF));
        assert!(!set.insert(5, 5 + OFF));
        assert!(set.contains(5));
        assert!(!set.contains(4));
        assert!(!set.contains(6));
        assert_eq!(set.frame_of(5), Some(5 + OFF));
        assert_eq!(set.frame_of(6), None);
    }

    #[test]
    fn adjacent_inserts_merge_into_one_run() {
        let mut set = PageSet::new();
        for p in 0..1000 {
            assert!(set.insert(p, p + OFF));
        }
        assert_eq!(set.run_count(), 1);
        assert_eq!(set.page_count(), 1000);
        assert_eq!(set.frame_of(999), Some(999 + OFF));
    }

    #[test]
    fn adjacent_pages_with_discontiguous_frames_stay_separate() {
        let mut set = PageSet::new();
        set.insert(0, 10);
        set.insert(1, 20);
        set.insert(2, 21);
        assert_eq!(set.run_count(), 2);
        assert_eq!(set.frame_of(0), Some(10));
        assert_eq!(set.frame_of(1), Some(20));
        assert_eq!(set.frame_of(2), Some(21));
    }

    #[test]
    #[should_panic(expected = "already mapped to another frame")]
    fn remapping_a_page_panics() {
        let mut set = PageSet::new();
        set.insert(3, 30);
        set.insert(3, 31);
    }

    #[test]
    #[should_panic(expected = "overlap a mapping to other frames")]
    fn overlapping_range_with_other_frames_panics() {
        let mut set = PageSet::new();
        set.insert_range(0, 10, 100);
        set.insert_range(5, 15, 300);
    }

    #[test]
    fn range_bridges_existing_runs() {
        let mut set = PageSet::new();
        set.insert(0, OFF);
        set.insert(10, 10 + OFF);
        assert_eq!(set.run_count(), 2);
        set.insert_range(1, 10, 1 + OFF);
        assert_eq!(set.run_count(), 1);
        assert_eq!(set.page_count(), 11);
    }

    #[test]
    fn disjoint_runs_stay_separate() {
        let mut set = PageSet::new();
        set.insert_range(100, 200, 100 + OFF);
        set.insert_range(300, 400, 300 + OFF);
        assert_eq!(set.run_count(), 2);
        assert!(set.contains(150));
        assert!(!set.contains(250));
        assert!(set.contains(399));
        assert!(!set.contains(400));
    }

    #[test]
    fn range_overlapping_several_runs_collapses() {
        let mut set = PageSet::new();
        set.insert_range(0, 10, OFF);
        set.insert_range(20, 30, 20 + OFF);
        set.insert_range(40, 50, 40 + OFF);
        set.insert_range(5, 45, 5 + OFF);
        assert_eq!(set.run_count(), 1);
        assert_eq!(set.page_count(), 50);
        assert_eq!(set.frame_of(49), Some(49 + OFF));
    }

    #[test]
    fn empty_range_is_noop() {
        let mut set = PageSet::new();
        set.insert_range(10, 10, 0);
        assert_eq!(set.run_count(), 0);
    }

    #[test]
    fn matches_a_reference_hashset_on_random_ops() {
        use std::collections::HashMap;
        // Tiny deterministic LCG; no external RNG in this crate.
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        // Each page gets one of two frame offsets, fixed per 64-page
        // stretch, so ranges both merge and stop at frame breaks.
        let frame = |p: u64| {
            p + if (p / 64).is_multiple_of(2) {
                OFF
            } else {
                5 * OFF
            }
        };
        let mut set = PageSet::new();
        let mut reference = HashMap::new();
        for _ in 0..4000 {
            match next() % 3 {
                0 => {
                    let p = next() % 256;
                    let fresh = reference.insert(p, frame(p)).is_none();
                    assert_eq!(set.insert(p, frame(p)), fresh);
                }
                1 => {
                    // A range inside one 64-page stretch maps contiguously.
                    let s = next() % 256;
                    let e = (s + next() % 32).min((s / 64 + 1) * 64);
                    set.insert_range(s, e, frame(s));
                    reference.extend((s..e).map(|p| (p, frame(p))));
                }
                _ => {
                    let p = next() % 300;
                    assert_eq!(set.contains(p), reference.contains_key(&p), "page {p}");
                    assert_eq!(set.frame_of(p), reference.get(&p).copied(), "page {p}");
                }
            }
        }
        assert_eq!(set.page_count(), reference.len() as u64);
    }
}
