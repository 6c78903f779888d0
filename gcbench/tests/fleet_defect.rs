//! Pins a known simulator defect the `fleet-faulted` workload keeps in
//! view: `run_fleet` runs under the scheduler's 10 M-cycle no-progress
//! watchdog, so a light-load replay whose last arrivals are more than
//! 10 M cycles apart fails with a false `SimError::Deadlock`.
//!
//! The failing replays are counted as failed ops, not hidden. When the
//! watchdog is fixed this test fails: update the list (it should become
//! empty) and the benchmark's failure share drops.

use gcbench::fleet::POLICIES;
use gcbench::{run, Size, Workload, DEFAULT_SEED};

/// Arrival seeds whose replay fails at each offered load, under every
/// policy, in a standard round of the default seed. Every failure is at
/// or below saturation; none at load 1.5.
const PINNED: [(&str, &[usize]); 3] = [
    (
        "0.25",
        &[
            1, 2, 4, 5, 6, 7, 9, 10, 11, 13, 15, 16, 17, 18, 20, 21, 22, 23, 24, 25, 27, 31, 32,
            33, 34, 36, 37, 38, 39, 40, 43, 45, 47,
        ],
    ),
    ("0.6", &[0, 12, 27, 32, 41, 46, 47]),
    ("1", &[5, 33, 40]),
];

#[test]
fn light_load_replays_trip_the_watchdog() {
    let r = run(
        Workload::FleetFaulted,
        &Size::standard(),
        DEFAULT_SEED,
        1,
        false,
    );
    assert!(r.correct);
    let mut failed = Vec::new();
    for why in &r.ledger.failures {
        let rest = why
            .strip_prefix("replay ")
            .unwrap_or_else(|| panic!("only replays may fail: {why}"));
        let (point, err) = rest.split_once(": ").expect("point: error");
        assert!(
            err.contains("no engine made progress within the watchdog window"),
            "{why}"
        );
        failed.push(point.to_string());
    }
    let pinned: Vec<String> = POLICIES
        .iter()
        .flat_map(|p| {
            PINNED.iter().flat_map(move |(rho, seeds)| {
                seeds
                    .iter()
                    .map(move |k| format!("{} rho={rho} arrivals={k}", p.name()))
            })
        })
        .collect();
    assert_eq!(failed, pinned);
    assert_eq!(r.ledger.replay_failed, pinned.len() as u64);
}
