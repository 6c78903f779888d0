//! The exact simulated counters a run accumulates, and their digest.
//!
//! Everything here is a pure function of the workload, its size and the
//! seed: no host time. Two runs of the same code give identical values,
//! and a change that only speeds up the simulator must leave them
//! identical too — [`Ledger::final_digest`] folds them into one number
//! a review can compare.

use tracegc::runner::{FaultedMarkRun, MarkOutcome};
use tracegc_cpu::PhaseResult;
use tracegc_hwgc::{ReclaimResult, TraversalResult};
use tracegc_mem::MemSystem;
use tracegc_sim::{StallAccounting, StallReason};

/// Trap kinds, in the order `fault.traps_*` metrics are reported.
pub const TRAP_KINDS: [&str; 8] = [
    "ref_out_of_bounds",
    "ref_misaligned",
    "header_corrupt",
    "page_fault",
    "ecc_uncorrectable",
    "mem_timeout",
    "spill_exhausted",
    "request_timeout",
];

/// FNV-1a over a stream of 64-bit words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a string in (length-prefixed).
    pub fn text(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(b as u64);
        }
    }

    /// Folds a stall ledger in.
    pub fn stalls(&mut self, s: &StallAccounting) {
        self.word(s.busy_cycles());
        for (_, n) in s.breakdown() {
            self.word(n);
        }
    }

    /// The digest as 16 hex digits.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Accelerator mark-phase counters.
#[derive(Debug, Clone, Default)]
pub struct TraversalTotals {
    /// Simulated mark cycles (hardware only).
    pub sim_cycles: u64,
    /// Objects newly marked.
    pub objects_marked: u64,
    /// Mark operations that found the object already marked.
    pub already_marked: u64,
    /// Mark operations the mark-bit cache filtered.
    pub filtered: u64,
    /// Bytes written to the spill region.
    pub spill_bytes: u64,
    /// Largest mark-queue occupancy seen.
    pub markq_peak: u64,
    /// Cycle attribution.
    pub stalls: StallAccounting,
    /// L1 TLB hits.
    pub l1_hits: u64,
    /// L2 TLB hits.
    pub l2_hits: u64,
    /// Page-table walks.
    pub walks: u64,
    /// Cycles spent waiting for a busy walker.
    pub walker_wait_cycles: u64,
    /// Host nanoseconds of the mark calls these counters came from.
    pub host_ns: u64,
}

impl TraversalTotals {
    /// Adds one full mark pass.
    pub fn add(&mut self, r: &TraversalResult) {
        self.sim_cycles += r.cycles();
        self.objects_marked += r.objects_marked;
        self.already_marked += r.already_marked;
        self.filtered += r.filtered;
        self.spill_bytes += r.markq.spill_bytes_written;
        self.markq_peak = self.markq_peak.max(r.markq.peak_occupancy);
        self.stalls.merge(&r.stalls);
        self.l1_hits += r.translator.l1_hits;
        self.l2_hits += r.translator.l2_hits;
        self.walks += r.translator.walks;
        self.walker_wait_cycles += r.translator.walker_wait_cycles;
    }

    /// Mark operations attempted: marked, already marked or filtered.
    pub fn attempts(&self) -> u64 {
        self.objects_marked + self.already_marked + self.filtered
    }
}

/// Memory-controller counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct MemTotals {
    /// Requests scheduled.
    pub requests: u64,
    /// DDR3 row-buffer hits.
    pub row_hits: u64,
    /// Requests the DDR3 model classified.
    pub ddr3_requests: u64,
    /// DRAM activates.
    pub activates: u64,
}

impl MemTotals {
    /// Adds everything `mem` scheduled.
    pub fn add(&mut self, mem: &MemSystem) {
        self.requests += mem.stats().total_requests;
        if let Some(d) = mem.ddr3_stats() {
            self.row_hits += d.row_hits;
            self.ddr3_requests += d.requests;
            self.activates += d.activates;
        }
    }
}

/// Software-collector counters.
#[derive(Debug, Clone, Default)]
pub struct CpuTotals {
    /// Simulated mark cycles.
    pub mark_cycles: u64,
    /// Simulated sweep cycles.
    pub sweep_cycles: u64,
    /// Unit mark cycles of the same pauses (the speedup's numerator
    /// base).
    pub paired_unit_mark_cycles: u64,
    /// Objects the software collector marked.
    pub objects_marked: u64,
    /// Cycle attribution of both phases.
    pub stalls: StallAccounting,
}

impl CpuTotals {
    /// Adds one mark and one sweep.
    pub fn add(&mut self, mark: &PhaseResult, sweep: &PhaseResult) {
        self.mark_cycles += mark.cycles;
        self.sweep_cycles += sweep.cycles;
        self.objects_marked += mark.work_items;
        self.stalls.merge(&mark.stalls);
        self.stalls.merge(&sweep.stalls);
    }
}

/// Every exact counter of one run.
#[derive(Debug, Clone, Default)]
pub struct Ledger {
    /// Ops attempted (GC-side ops and fleet replay grid points).
    pub ops: u64,
    /// Ops that failed a correctness check or returned an error.
    pub ops_failed: u64,
    /// Simulated cycles of every GC pass: accelerator, software
    /// collector and software fallback.
    pub gc_cycles: u64,
    /// Simulated accelerator mark + sweep cycles.
    pub unit_gc_cycles: u64,
    /// Objects allocated by the generators.
    pub gen_allocs: u64,
    /// Accelerator mark passes.
    pub traversal: TraversalTotals,
    /// Accelerator sweeps: simulated cycles.
    pub sweep_cycles: u64,
    /// Accelerator sweeps: cells freed.
    pub cells_freed: u64,
    /// Accelerator sweeps: cycle attribution summed over lanes.
    pub sweep_stalls: StallAccounting,
    /// Memory traffic of the timed GC passes.
    pub mem: MemTotals,
    /// Software collector.
    pub cpu: CpuTotals,
    /// Fleet tenants measured.
    pub tenants: u64,
    /// Tenants whose faulted mark degraded to the software fallback.
    pub tenants_degraded: u64,
    /// Memory retries under fault injection.
    pub retries: u64,
    /// Traps taken, by [`TRAP_KINDS`] index.
    pub traps: [u64; TRAP_KINDS.len()],
    /// Simulated cycles of software-fallback marks.
    pub fallback_cycles: u64,
    /// Fleet replay grid points run.
    pub grid_points: u64,
    /// Fleet replay grid points that returned an error.
    pub replay_failed: u64,
    /// Sum of unit utilization over the replayed grid points.
    pub utilization_sum: f64,
    /// Replayed requests offered (including those of failed points).
    pub slo_requests: u64,
    /// Replayed requests that missed the SLO, were rejected, or belong
    /// to a failed grid point.
    pub slo_violations: u64,
    /// Requests rejected by admission control.
    pub rejected: u64,
    /// Why each failed op failed, in op order.
    pub failures: Vec<String>,
    /// Digest of the current round's exact counters, in op order.
    pub digest: Digest,
}

impl Ledger {
    /// Records an op that failed; `why` goes to stderr and the digest.
    pub fn fail(&mut self, why: &str) {
        self.ops_failed += 1;
        self.digest.text(why);
        eprintln!("gcbench: op {} failed: {why}", self.ops);
        self.failures.push(why.to_string());
    }

    /// Adds one accelerator mark.
    pub fn unit_mark(&mut self, r: &TraversalResult, host_ns: u64) {
        self.traversal.add(r);
        self.traversal.host_ns += host_ns;
        self.gc_cycles += r.cycles();
        self.unit_gc_cycles += r.cycles();
        let (q, t) = (&r.markq, &r.translator);
        for w in [
            r.cycles(),
            r.objects_marked,
            r.already_marked,
            r.filtered,
            r.refs_enqueued,
            r.port_busy_cycles,
            q.enqueued,
            q.dequeued,
            q.spill_writes,
            q.spill_reads,
            q.bypassed,
            q.peak_spilled,
            q.spill_bytes_written,
            q.peak_occupancy,
            t.l1_hits,
            t.l2_hits,
            t.walks,
            t.walker_wait_cycles,
            t.walk_cycles,
        ] {
            self.digest.word(w);
        }
        self.digest.stalls(&r.stalls);
    }

    /// Adds one accelerator sweep.
    pub fn unit_sweep(&mut self, r: &ReclaimResult) {
        self.sweep_cycles += r.cycles();
        self.cells_freed += r.cells_freed;
        self.sweep_stalls.merge(&r.stalls);
        self.gc_cycles += r.cycles();
        self.unit_gc_cycles += r.cycles();
        for w in [
            r.cycles(),
            r.cells_scanned,
            r.cells_freed,
            r.live_objects,
            r.line_reads,
        ] {
            self.digest.word(w);
        }
        self.digest.stalls(&r.stalls);
    }

    /// Adds one fault-injected tenant mark from the harness runner.
    pub fn faulted_mark(&mut self, r: &FaultedMarkRun) {
        self.traversal.sim_cycles += r.unit_cycles;
        self.traversal.stalls.merge(&r.unit_stalls);
        self.gc_cycles += r.total_cycles();
        self.unit_gc_cycles += r.unit_cycles;
        self.fallback_cycles += r.fallback_cycles;
        self.retries += r.stats.retries;
        let outcome = match &r.outcome {
            MarkOutcome::Clean => 0,
            MarkOutcome::Fallback(fb) => {
                let kind = fb.trap.kind.name();
                let idx = TRAP_KINDS.iter().position(|k| *k == kind);
                let idx = idx.expect("every trap kind is listed");
                self.traps[idx] += 1;
                1 + idx as u64
            }
            MarkOutcome::Failed(_) => 99,
        };
        for w in [
            outcome,
            r.unit_cycles,
            r.fallback_cycles,
            r.objects_marked,
            r.stats.retries,
            r.stats.timeouts,
            r.stats.dropped,
            r.stats.delayed,
            r.stats.ecc_corrected,
            r.stats.ecc_detected,
            r.stats.corrupted_refs,
            r.stats.corrupted_headers,
            r.stats.pte_faults,
        ] {
            self.digest.word(w);
        }
        self.digest.stalls(&r.unit_stalls);
        self.digest.stalls(&r.fallback_stalls);
    }

    /// Simulated cycle attribution share of `reason` in `s`.
    pub fn frac(s: &StallAccounting, reason: StallReason) -> f64 {
        s.stalled(reason) as f64 / s.total().max(1) as f64
    }

    /// The run's digest: every round's digest, then the aggregate
    /// counters.
    pub fn final_digest(&self, rounds: &[Digest]) -> Digest {
        let mut d = Digest::default();
        for r in rounds {
            d.word(r.0);
        }
        for w in [
            self.ops,
            self.ops_failed,
            self.gc_cycles,
            self.unit_gc_cycles,
            self.gen_allocs,
            self.sweep_cycles,
            self.cells_freed,
            self.mem.requests,
            self.mem.row_hits,
            self.mem.activates,
            self.cpu.mark_cycles,
            self.cpu.sweep_cycles,
            self.tenants_degraded,
            self.fallback_cycles,
            self.grid_points,
            self.replay_failed,
            self.slo_requests,
            self.slo_violations,
            self.rejected,
        ] {
            d.word(w);
        }
        d
    }
}
