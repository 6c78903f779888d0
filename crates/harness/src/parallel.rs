//! Tests of the worker-pool contract behind the CLI's `--jobs` flag.
//!
//! [`crate::experiments::run_ids`] fans experiments out with
//! `run_partitions(Exec::from_workers(jobs), …)`. These tests pin what
//! that composition promises for any `jobs` value: outputs come back in
//! input order, `jobs` is clamped to `1..=items.len()`, owned items move
//! through, and a panic stops later items from starting.

#[cfg(test)]
mod tests {
    use tracegc_sim::{run_partitions, Exec};

    /// The `run_ids` composition, applied to plain items.
    fn par_map<T, U, F>(jobs: usize, items: Vec<T>, f: F) -> Vec<U>
    where
        T: Send,
        U: Send,
        F: Fn(T) -> U + Sync,
    {
        run_partitions(Exec::from_workers(jobs), items, |_, item| f(item))
    }

    #[test]
    fn preserves_input_order() {
        // Stagger the work so later items finish first under real
        // concurrency; the output order must not change.
        let items: Vec<u64> = (0..64).collect();
        let out = par_map(8, items.clone(), |x| {
            if x % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
            x * 2
        });
        assert_eq!(out, items.iter().map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn jobs_one_runs_inline() {
        let out = par_map(1, vec![1, 2, 3], |x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = par_map(4, Vec::<u32>::new(), |x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_larger_than_items_is_clamped() {
        let out = par_map(64, vec![10, 20], |x| x / 10);
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn owned_non_copy_items_move_through() {
        let items = vec![String::from("a"), String::from("bb")];
        let out = par_map(2, items, |s| s.len());
        assert_eq!(out, vec![1, 2]);
    }

    #[test]
    fn same_result_for_any_job_count() {
        let items: Vec<u64> = (0..37).collect();
        let serial = par_map(1, items.clone(), |x| x.wrapping_mul(0x9E37_79B9));
        for jobs in [2, 3, 8, 16] {
            let par = par_map(jobs, items.clone(), |x| x.wrapping_mul(0x9E37_79B9));
            assert_eq!(par, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn panic_stops_the_batch_before_later_items_start() {
        use std::sync::atomic::{AtomicBool, Ordering};
        // Two workers, four items. Item 0 blocks until item 1 has
        // started, then lingers long enough for item 1's panic to
        // poison the work queue; items 2 and 3 must never start.
        let started: Vec<AtomicBool> = (0..4).map(|_| AtomicBool::new(false)).collect();
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            par_map(2, vec![0usize, 1, 2, 3], |i| {
                started[i].store(true, Ordering::SeqCst);
                match i {
                    0 => {
                        while !started[1].load(Ordering::SeqCst) {
                            std::thread::yield_now();
                        }
                        std::thread::sleep(std::time::Duration::from_millis(100));
                    }
                    1 => panic!("item 1 failed"),
                    _ => {}
                }
                i
            })
        }));
        assert!(r.is_err(), "the worker panic must propagate to the caller");
        assert!(
            !started[2].load(Ordering::SeqCst) && !started[3].load(Ordering::SeqCst),
            "items after the panicking index must not be started"
        );
    }
}
