//! `gcbench`: the tracegc simulator's end-to-end and per-layer benchmark.
//!
//! Three single-process, single-thread, closed-loop workloads (each GC
//! pass starts only when the previous one has finished) call the
//! simulator's layers through their public functions and time each
//! call from outside. See `README.md` in this directory for the
//! workloads, the metric map and how to run it.
//!
//! A run is `rounds` repetitions of set-up followed by a timed phase.
//! Every round draws fresh inputs from the workload seed, so the exact
//! simulated counters ([`ledger::Ledger`]) are a pure function of
//! (workload, seed, rounds) and repeat bit for bit.

pub mod dacapo;
pub mod fleet;
pub mod heapscale;
pub mod ledger;
pub mod metrics;
pub mod probe;
pub mod trace;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use tracegc_sim::rng::{Rng, SplitMix64};
use tracegc_sim::sched::{set_default_exec, set_default_pacing, with_exec, with_pacing};
use tracegc_sim::{Exec, Pacing};

use ledger::{Digest, Ledger};
use trace::{Phase, Tracer};

/// The seed a run uses when none is given.
pub const DEFAULT_SEED: u64 = 1;
/// A seed kept out of tuning: a later performance claim must also hold
/// on it.
pub const HELD_OUT_SEED: u64 = 20_181_102;

/// The scheduler pacing every benchmark run uses.
pub const PACING: Pacing = Pacing::FastForward;
/// The partition executor every benchmark run uses.
pub const EXEC: Exec = Exec::Serial;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Paper-scale streamed heaps, marked and swept by the unit.
    HeapscaleLarge,
    /// Paired CPU/unit pauses over the six DaCapo heaps with churn.
    DacapoPaired,
    /// Fault-injected tenant marks replayed through the fleet queue.
    FleetFaulted,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::HeapscaleLarge,
        Workload::DacapoPaired,
        Workload::FleetFaulted,
    ];

    /// The command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::HeapscaleLarge => "heapscale-large",
            Workload::DacapoPaired => "dacapo-paired",
            Workload::FleetFaulted => "fleet-faulted",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Nominal host seconds of one round at the standard size on a
    /// 2-CPU x86-64 host; `--seconds` buys `seconds / nominal` rounds.
    pub fn nominal_round_s(self) -> f64 {
        match self {
            Workload::HeapscaleLarge => 5.0,
            Workload::DacapoPaired => 6.0,
            Workload::FleetFaulted => 4.0,
        }
    }
}

/// Input sizes of every workload.
#[derive(Debug, Clone, Copy)]
pub struct Size {
    /// `heapscale-large` row sizes.
    pub heapscale: heapscale::Params,
    /// `dacapo-paired` heap scale and pause count.
    pub dacapo: dacapo::Params,
    /// `fleet-faulted` tenant count and replay grid.
    pub fleet: fleet::Params,
}

impl Size {
    /// The sizes `BENCHMARK.json` runs.
    pub fn standard() -> Self {
        Self {
            heapscale: heapscale::Params::standard(),
            dacapo: dacapo::Params::standard(),
            fleet: fleet::Params::standard(),
        }
    }

    /// Small sizes for the benchmark's own tests.
    pub fn tiny() -> Self {
        Self {
            heapscale: heapscale::Params::tiny(),
            dacapo: dacapo::Params::tiny(),
            fleet: fleet::Params::tiny(),
        }
    }
}

/// Derives an input seed from the workload seed and a path of indices
/// (round, item, ...), so every generated input is a pure function of
/// the workload seed.
pub(crate) fn derive_seed(seed: u64, path: &[u64]) -> u64 {
    let mut s = SplitMix64::new(seed ^ 0x6763_6265_6e63_6800);
    let mut out = s.next_u64();
    for &p in path {
        out = SplitMix64::new(out ^ p.wrapping_mul(0x9E37_79B9_7F4A_7C15)).next_u64();
    }
    out
}

/// Pins the run configuration: fast-forward pacing and the serial
/// executor as process defaults, so the `TRACEGC_SCHED` and
/// `TRACEGC_PAR_ENGINES` environment variables are never consulted.
pub fn pin_run_config() {
    set_default_pacing(PACING);
    set_default_exec(EXEC);
}

/// Runs `f` and turns a panic into an error carrying its message.
pub(crate) fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|e| {
        e.downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// One run: the state a workload threads through its rounds, and
/// everything it measured.
#[derive(Debug)]
pub struct Run {
    /// The workload run.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Rounds of set-up plus timed phase.
    pub rounds: usize,
    /// Exact counters.
    pub ledger: Ledger,
    /// Host-time spans and op latencies.
    pub tracer: Tracer,
    /// Host nanoseconds of each round's set-up.
    pub setup_ns: Vec<u64>,
    /// Digest of each round's exact counters; every round repeats the
    /// same ops, so they must all be equal.
    pub round_digests: Vec<Digest>,
    /// False when a check found a wrong result (as opposed to an op
    /// that returned an error).
    pub correct: bool,
    /// The traced run's probes: their inputs and results.
    pub probes: probe::Probes,
    setup_start: Option<Instant>,
}

impl Run {
    fn new(workload: Workload, seed: u64, rounds: usize, trace: bool) -> Self {
        Self {
            workload,
            seed,
            rounds,
            ledger: Ledger::default(),
            tracer: Tracer::new(trace),
            setup_ns: Vec::new(),
            round_digests: Vec::new(),
            correct: true,
            probes: probe::Probes::default(),
            setup_start: None,
        }
    }

    /// Starts a round: its set-up clock runs until [`Run::end_setup`].
    pub fn begin_round(&mut self) {
        self.ledger.digest = Digest::default();
        self.tracer.set_phase(Phase::Setup);
        self.tracer.open("round");
        self.setup_start = Some(Instant::now());
    }

    /// Ends the round's set-up; the timed phase starts.
    pub fn end_setup(&mut self) {
        let start = self.setup_start.take().expect("set-up was started");
        self.setup_ns.push(start.elapsed().as_nanos() as u64);
        self.tracer.close();
        self.tracer.set_phase(Phase::Timed);
        self.tracer.open("round");
    }

    /// Ends the round's timed phase and checks that it reproduced the
    /// first round exactly.
    pub fn end_round(&mut self) {
        self.tracer.close();
        let d = self.ledger.digest;
        if self.round_digests.first().is_some_and(|first| *first != d) {
            self.correct = false;
            eprintln!(
                "gcbench: round {} diverged from round 0 ({} vs {})",
                self.round_digests.len(),
                d.hex(),
                self.round_digests[0].hex()
            );
        }
        self.round_digests.push(d);
    }

    /// The digest of every exact counter of the run.
    pub fn digest(&self) -> Digest {
        self.ledger.final_digest(&self.round_digests)
    }

    /// Runs one op: `f` does the work through the tracer and returns
    /// `Err` for a failed op. A panic inside `f` is a failed op too.
    pub fn op(&mut self, f: impl FnOnce(&mut Run) -> Result<(), OpError>) {
        self.ledger.ops += 1;
        self.tracer.begin_op();
        let r = guarded(|| f(self));
        self.tracer.end_op();
        match r {
            Ok(Ok(())) => {}
            Ok(Err(OpError::Wrong(why))) => {
                self.correct = false;
                self.ledger.fail(&why);
            }
            Ok(Err(OpError::Failed(why))) | Err(why) => self.ledger.fail(&why),
        }
    }

    /// Checks `ok`; a wrong result fails the op.
    pub fn expect(ok: bool, why: impl FnOnce() -> String) -> Result<(), OpError> {
        if ok {
            Ok(())
        } else {
            Err(OpError::Wrong(why()))
        }
    }
}

/// Why an op failed.
#[derive(Debug)]
pub enum OpError {
    /// A check found a wrong result (an oracle or count mismatch).
    Wrong(String),
    /// The op returned an error or gave up without a result.
    Failed(String),
}

/// Runs `workload` for `rounds` rounds at `size` under the pinned
/// configuration; with `trace`, records spans and runs the probes.
pub fn run(workload: Workload, size: &Size, seed: u64, rounds: usize, trace: bool) -> Run {
    pin_run_config();
    run_paced(workload, size, seed, rounds, trace, PACING)
}

/// [`run`] under an explicit pacing (the equivalence test's lockstep
/// reference).
pub fn run_paced(
    workload: Workload,
    size: &Size,
    seed: u64,
    rounds: usize,
    trace: bool,
    pacing: Pacing,
) -> Run {
    with_pacing(pacing, || {
        with_exec(EXEC, || {
            let mut ctx = Run::new(workload, seed, rounds.max(1), trace);
            for _ in 0..ctx.rounds {
                match workload {
                    Workload::HeapscaleLarge => heapscale::round(&size.heapscale, &mut ctx),
                    Workload::DacapoPaired => dacapo::round(&size.dacapo, &mut ctx),
                    Workload::FleetFaulted => fleet::round(&size.fleet, &mut ctx),
                }
            }
            if trace {
                ctx.tracer.set_phase(Phase::Probe);
                probe::run(size, &mut ctx);
            }
            ctx
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_seeds_are_stable_and_distinct() {
        assert_eq!(derive_seed(1, &[0, 1]), derive_seed(1, &[0, 1]));
        assert_ne!(derive_seed(1, &[0, 1]), derive_seed(1, &[1, 0]));
        assert_ne!(derive_seed(1, &[0]), derive_seed(2, &[0]));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn panics_become_errors() {
        assert_eq!(guarded(|| 7), Ok(7));
        let e = guarded(|| -> u32 { panic!("boom {}", 1) }).unwrap_err();
        assert!(e.contains("boom 1"), "{e}");
    }
}
