//! Turns a [`Run`] into the named metrics the benchmark prints.

use tracegc_sim::StallReason;

use crate::ledger::{Ledger, TraversalTotals, TRAP_KINDS};
use crate::trace::Phase;
use crate::{probe, Run, Workload};

/// The paper's Fig. 15 mark-phase speedup of the unit over the CPU.
pub const PAPER_MARK_SPEEDUP: f64 = 4.2;

/// One printed metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// `BENCHMARK.json` name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// Nearest-rank percentile `p` (0–100) of unsorted `samples`.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Simulated GC cycles of every pass over the host seconds of every
/// timed call.
fn sim_cycles_per_s(r: &Run) -> f64 {
    ratio(r.ledger.gc_cycles as f64, r.tracer.timed_ns() as f64 * 1e-9)
}

/// Median of `v` (mean of the middle two for an even count; 0 when
/// empty).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The end-to-end metrics: what a user of the simulator sees.
pub fn end_to_end(r: &Run) -> Vec<Metric> {
    let l = &r.ledger;
    let ops: Vec<f64> = r.tracer.op_samples().iter().map(|&ns| ns as f64).collect();
    let setup: Vec<f64> = r.setup_ns.iter().map(|&ns| ns as f64 * 1e-9).collect();
    vec![
        m("sim_cycles_per_s", sim_cycles_per_s(r), "cycles/s"),
        m("setup_s", median(&setup), "s"),
        m("peak_rss_mb", probe::rss_mb("VmHWM:"), "MB"),
        m("op_p50_ms", percentile(&ops, 50.0) * 1e-6, "ms"),
        m("op_p90_ms", percentile(&ops, 90.0) * 1e-6, "ms"),
        m("sim_unit_gc_cycles", l.unit_gc_cycles as f64, "cycles"),
        m("sim_slo_met_frac", slo_met(l), "fraction"),
    ]
}

/// Share of replayed fleet requests served within the SLO. A closed
/// loop serves every GC request the moment it is issued, at its own
/// clean service time, so workloads without a fleet queue meet it
/// always.
fn slo_met(l: &Ledger) -> f64 {
    if l.slo_requests == 0 {
        1.0
    } else {
        1.0 - l.slo_violations as f64 / l.slo_requests as f64
    }
}

fn traversal_metrics(out: &mut Vec<Metric>, t: &TraversalTotals, exact: &TraversalTotals) {
    let attempts = t.attempts() as f64;
    out.push(m("traversal.mark_s", t.host_ns as f64 * 1e-9, "s"));
    out.push(m(
        "traversal.ns_per_sim_cycle",
        ratio(t.host_ns as f64, t.sim_cycles as f64),
        "ns/cycle",
    ));
    out.push(m(
        "traversal.ns_per_object",
        ratio(t.host_ns as f64, t.objects_marked as f64),
        "ns/object",
    ));
    out.push(m("traversal.sim_cycles", exact.sim_cycles as f64, "cycles"));
    let s = &exact.stalls;
    out.push(m(
        "traversal.busy_frac",
        ratio(s.busy_cycles() as f64, s.total() as f64),
        "fraction",
    ));
    for (name, reason) in [
        ("mem_latency", StallReason::MemLatency),
        ("queue_full", StallReason::QueueFull),
        ("tlb_miss", StallReason::TlbMiss),
        ("ptw_busy", StallReason::PtwBusy),
        ("port_busy", StallReason::PortBusy),
    ] {
        out.push(m(
            format!("traversal.stall_{name}_frac"),
            Ledger::frac(s, reason),
            "fraction",
        ));
    }
    out.push(m(
        "traversal.filtered_frac",
        ratio(t.filtered as f64, attempts),
        "fraction",
    ));
    out.push(m(
        "traversal.already_marked_frac",
        ratio(t.already_marked as f64, attempts),
        "fraction",
    ));
    out.push(m("traversal.spill_bytes", t.spill_bytes as f64, "bytes"));
    out.push(m("traversal.markq_peak", t.markq_peak as f64, "entries"));
    let lookups = (t.l1_hits + t.l2_hits + t.walks) as f64;
    out.push(m(
        "vmem.l1_tlb_hit_frac",
        ratio(t.l1_hits as f64, lookups),
        "fraction",
    ));
    out.push(m("vmem.walks", t.walks as f64, "count"));
    out.push(m(
        "vmem.walker_wait_cycles",
        t.walker_wait_cycles as f64,
        "cycles",
    ));
}

/// The per-layer ledger (traced run). Host times are totals over the
/// run's rounds; on `fleet-faulted` the traversal, memory and
/// generation figures come from the clean-mark replica probe, since the
/// harness runner performs those calls internally.
pub fn per_layer(r: &Run) -> Vec<Metric> {
    let l = &r.ledger;
    let t = &r.tracer;
    let p = &r.probes;
    let fleet = r.workload == Workload::FleetFaulted;
    let secs = |name: &str| {
        [Phase::Setup, Phase::Timed, Phase::Probe]
            .into_iter()
            .map(|ph| t.seconds(name, ph))
            .sum::<f64>()
    };
    let timed = |name: &str| t.seconds(name, Phase::Timed);
    let mut out = vec![
        m("run.rounds", r.rounds as f64, "count"),
        m("run.ops", l.ops as f64, "count"),
        m("run.ops_failed", l.ops_failed as f64, "count"),
        m("trace.layer_coverage_frac", t.layer_coverage(), "fraction"),
        m("trace.sim_cycles_per_s", sim_cycles_per_s(r), "cycles/s"),
    ];

    // Generation: in set-up on heapscale and dacapo; measured by the
    // replica (one of the op's three generations) on the fleet.
    let (gen_s, allocs) = if fleet {
        (t.seconds("workloads.gen", Phase::Probe), p.replica_allocs)
    } else {
        (t.seconds("workloads.gen", Phase::Setup), l.gen_allocs)
    };
    out.push(m("workloads.gen_s", gen_s, "s"));
    out.push(m(
        "workloads.gen_allocs_per_s",
        ratio(allocs as f64, gen_s),
        "objects/s",
    ));
    out.push(m("workloads.churn_s", timed("workloads.churn"), "s"));

    let (trav, mem) = if fleet {
        (&p.replica, &p.replica_mem)
    } else {
        (&l.traversal, &l.mem)
    };
    traversal_metrics(&mut out, trav, &l.traversal);

    let sweep_s = timed("reclaim.sweep");
    out.push(m("reclaim.sweep_s", sweep_s, "s"));
    out.push(m(
        "reclaim.ns_per_sim_cycle",
        ratio(sweep_s * 1e9, l.sweep_cycles as f64),
        "ns/cycle",
    ));
    out.push(m("reclaim.sim_cycles", l.sweep_cycles as f64, "cycles"));
    out.push(m("reclaim.cells_freed", l.cells_freed as f64, "cells"));
    out.push(m(
        "reclaim.busy_frac",
        ratio(
            l.sweep_stalls.busy_cycles() as f64,
            l.sweep_stalls.total() as f64,
        ),
        "fraction",
    ));

    let c = &l.cpu;
    let (cpu_mark_s, cpu_sweep_s) = (timed("cpu.mark"), timed("cpu.sweep"));
    let cpu_cycles = (c.mark_cycles + c.sweep_cycles) as f64;
    out.push(m("cpu.mark_s", cpu_mark_s, "s"));
    out.push(m("cpu.sweep_s", cpu_sweep_s, "s"));
    out.push(m(
        "cpu.ns_per_sim_cycle",
        ratio((cpu_mark_s + cpu_sweep_s) * 1e9, cpu_cycles),
        "ns/cycle",
    ));
    out.push(m("cpu.sim_cycles", cpu_cycles, "cycles"));
    out.push(m(
        "cpu.mem_stall_frac",
        Ledger::frac(&c.stalls, StallReason::MemLatency),
        "fraction",
    ));
    let speedup = ratio(c.mark_cycles as f64, c.paired_unit_mark_cycles as f64);
    out.push(m("cpu.mark_speedup", speedup, "x"));
    out.push(m(
        "cpu.mark_speedup_paper_err",
        if speedup == 0.0 {
            0.0
        } else {
            (speedup - PAPER_MARK_SPEEDUP).abs() / PAPER_MARK_SPEEDUP
        },
        "fraction",
    ));

    let pass_s = if fleet {
        trav.host_ns as f64 * 1e-9
    } else {
        trav.host_ns as f64 * 1e-9 + sweep_s + cpu_mark_s + cpu_sweep_s
    };
    out.push(m("mem.requests", mem.requests as f64, "count"));
    out.push(m(
        "mem.requests_per_object",
        ratio(
            mem.requests as f64,
            (trav.objects_marked + c.objects_marked) as f64,
        ),
        "req/object",
    ));
    out.push(m(
        "mem.row_hit_frac",
        ratio(mem.row_hits as f64, mem.ddr3_requests as f64),
        "fraction",
    ));
    out.push(m("mem.activates", mem.activates as f64, "count"));
    out.push(m(
        "mem.ns_per_request",
        ratio(pass_s * 1e9, mem.requests as f64),
        "ns/request",
    ));
    out.push(m("mem.schedule_ns", p.schedule_ns, "ns"));
    out.push(m("mem.probe_heap_mb", p.probe_heap_mb, "MB"));

    out.push(m(
        "fault.tenants_degraded_frac",
        ratio(l.tenants_degraded as f64, l.tenants as f64),
        "fraction",
    ));
    out.push(m("fault.retries", l.retries as f64, "count"));
    for (kind, n) in TRAP_KINDS.iter().zip(l.traps) {
        out.push(m(format!("fault.traps_{kind}"), n as f64, "count"));
    }
    out.push(m(
        "fault.fallback_sim_cycles",
        l.fallback_cycles as f64,
        "cycles",
    ));
    out.push(m("fault.mark_stream_s", timed("fault.mark_stream"), "s"));

    out.push(m("fleet.replay_s", timed("fleet.replay"), "s"));
    out.push(m("fleet.grid_points", l.grid_points as f64, "count"));
    out.push(m("fleet.replay_failed", l.replay_failed as f64, "count"));
    let ok_points = (l.grid_points - l.replay_failed) as f64;
    out.push(m(
        "fleet.utilization",
        ratio(l.utilization_sum, ok_points),
        "fraction",
    ));
    out.push(m(
        "fleet.rejected_frac",
        ratio(l.rejected as f64, l.slo_requests as f64),
        "fraction",
    ));
    out.push(m(
        "fleet.slo_violation_frac",
        ratio(l.slo_violations as f64, l.slo_requests as f64),
        "fraction",
    ));

    out.push(m("verify.oracle_s", secs("verify.oracle"), "s"));
    out.push(m("verify.free_list_s", secs("verify.free_list"), "s"));
    out.push(m(
        "sched.lockstep_over_fastforward",
        p.lockstep_over_fastforward,
        "x",
    ));
    out
}
