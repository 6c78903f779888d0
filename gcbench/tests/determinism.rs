//! The exact simulated counters — and so the digest a review compares —
//! depend only on (workload, size, seed, rounds): never on the run, the
//! pacing, or whether spans are recorded.

use gcbench::{run, run_paced, Size, Workload, DEFAULT_SEED};
use tracegc_sim::Pacing;

#[test]
fn two_runs_give_identical_digests() {
    for w in Workload::ALL {
        let a = run(w, &Size::tiny(), DEFAULT_SEED, 2, false);
        let b = run(w, &Size::tiny(), DEFAULT_SEED, 2, false);
        assert!(a.correct && b.correct, "{}", w.name());
        assert!(a.ledger.ops > 0);
        assert_eq!(a.ledger.ops, b.ledger.ops, "{}", w.name());
        assert_eq!(a.ledger.ops_failed, b.ledger.ops_failed, "{}", w.name());
        assert_eq!(
            a.ledger.unit_gc_cycles,
            b.ledger.unit_gc_cycles,
            "{}",
            w.name()
        );
        assert_eq!(
            a.digest(),
            b.digest(),
            "{} digest differs between runs",
            w.name()
        );
    }
}

#[test]
fn lockstep_and_fastforward_give_identical_digests() {
    for w in Workload::ALL {
        let ff = run_paced(
            w,
            &Size::tiny(),
            DEFAULT_SEED,
            1,
            false,
            Pacing::FastForward,
        );
        let ls = run_paced(w, &Size::tiny(), DEFAULT_SEED, 1, false, Pacing::Lockstep);
        assert_eq!(
            ff.digest(),
            ls.digest(),
            "{} digest differs between pacings",
            w.name()
        );
    }
}

#[test]
fn tracing_leaves_the_digest_unchanged_and_covers_the_timed_phase() {
    for w in Workload::ALL {
        let plain = run(w, &Size::tiny(), 7, 1, false);
        let traced = run(w, &Size::tiny(), 7, 1, true);
        assert!(
            traced.correct,
            "{} traced run found a wrong result",
            w.name()
        );
        assert_eq!(plain.digest(), traced.digest(), "{}", w.name());
        let coverage = traced.tracer.layer_coverage();
        assert!(
            coverage >= 0.9,
            "{}: layer spans cover only {coverage:.3} of the timed phase",
            w.name()
        );
        assert!(plain.tracer.spans().is_empty());
    }
}

#[test]
fn seeds_change_the_inputs() {
    let a = run(Workload::HeapscaleLarge, &Size::tiny(), 1, 1, false);
    let b = run(Workload::HeapscaleLarge, &Size::tiny(), 2, 1, false);
    assert_ne!(a.digest(), b.digest());
}
