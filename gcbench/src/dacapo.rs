//! `dacapo-paired`: the six DaCapo heaps, each generated twice; every
//! pause runs the software collector on one copy and the unit on the
//! other, with identical mutator churn on both between pauses.
//!
//! Generation is paid once per round, in set-up; the ops are the
//! paired pauses, where the CPU collector and the unit both do real
//! work and the mutator writes between GCs.

use tracegc_cpu::{Cpu, CpuConfig};
use tracegc_heap::verify::{check_free_lists, check_marks_match_reachability};
use tracegc_heap::{Heap, LayoutKind};
use tracegc_hwgc::{GcUnitConfig, ReclamationUnit, TraversalUnit};
use tracegc_mem::ddr3::Ddr3Config;
use tracegc_mem::MemSystem;
use tracegc_workloads::generate::{churn, generate_heap};
use tracegc_workloads::{BenchSpec, DACAPO};

use crate::probe::MarkSample;
use crate::{derive_seed, OpError, Run};

/// Share of live edges the mutator rewrites between pauses.
const CHURN: f64 = 0.15;

/// Heap scale, copies and pauses.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Scale of every DaCapo spec's object count.
    pub scale: f64,
    /// Heaps per DaCapo spec, each from its own seed.
    pub copies: usize,
    /// Paired pauses per heap per round. At most the specs' six: the
    /// generator sizes physical memory for the churn of that many.
    pub pauses: usize,
}

impl Params {
    /// The benchmark's size: 108 paired pauses per round.
    pub fn standard() -> Self {
        Self {
            scale: 0.015,
            copies: 3,
            pauses: 6,
        }
    }

    /// A few hundred objects per heap.
    pub fn tiny() -> Self {
        Self {
            scale: 0.004,
            copies: 1,
            pauses: 2,
        }
    }
}

/// `copies` heaps of each of the six specs, seeds drawn from the
/// workload seed.
pub(crate) fn specs(p: &Params, seed: u64) -> Vec<BenchSpec> {
    (0..p.copies)
        .flat_map(|c| {
            DACAPO.iter().enumerate().map(move |(i, s)| BenchSpec {
                seed: derive_seed(seed, &[c as u64, i as u64]),
                ..s.scaled(p.scale)
            })
        })
        .collect()
}

/// The mark oracle on one side's heap.
fn check_heap(ctx: &mut Run, heap: &Heap, what: &str) -> Result<(), OpError> {
    let oracle = ctx
        .tracer
        .check("verify.oracle", || check_marks_match_reachability(heap));
    Run::expect(oracle.is_ok(), || format!("{what} oracle: {oracle:?}"))
}

/// The free-list oracle on one side's heap.
fn check_free(ctx: &mut Run, heap: &Heap, what: &str) -> Result<(), OpError> {
    let free = ctx
        .tracer
        .check("verify.free_list", || check_free_lists(heap));
    Run::expect(free.is_ok(), || format!("{what} free lists: {free:?}"))
}

/// One round: generate both copies of every heap (set-up), then
/// `pauses` paired pauses per heap.
pub(crate) fn round(p: &Params, ctx: &mut Run) {
    ctx.begin_round();
    let specs = specs(p, ctx.seed);
    let mut pairs = Vec::with_capacity(specs.len());
    for spec in &specs {
        let (cpu_side, unit_side) = ctx.tracer.check("workloads.gen", || {
            (
                generate_heap(spec, LayoutKind::Bidirectional),
                generate_heap(spec, LayoutKind::Bidirectional),
            )
        });
        let allocs = (cpu_side.objects.len() + unit_side.objects.len()) as u64;
        ctx.ledger.gen_allocs += allocs;
        ctx.ledger.digest.word(allocs);
        pairs.push((cpu_side, unit_side));
    }
    ctx.end_setup();
    let cfg = GcUnitConfig::default();
    for (spec, (mut cpu_side, mut unit_side)) in specs.iter().zip(pairs) {
        for pause in 0..p.pauses {
            ctx.op(|ctx| {
                if pause > 0 {
                    let (a, b) = ctx.tracer.timed("workloads.churn", || {
                        (churn(&mut cpu_side, CHURN), churn(&mut unit_side, CHURN))
                    });
                    ctx.ledger.digest.word(a as u64);
                    Run::expect(a == b, || {
                        format!("{}: churn diverged ({a} vs {b})", spec.name)
                    })?;
                }
                let name = spec.name;

                let heap = &mut cpu_side.heap;
                let (mut cpu, mut mem, cpu_mark) = ctx.tracer.timed("cpu.mark", || {
                    let mut mem = MemSystem::ddr3(Ddr3Config::default());
                    let mut cpu = Cpu::new(CpuConfig::default(), heap);
                    let mark = cpu.run_mark(heap, &mut mem);
                    (cpu, mem, mark)
                });
                check_heap(ctx, heap, &format!("{name} cpu"))?;
                let cpu_sweep = ctx
                    .tracer
                    .timed("cpu.sweep", || cpu.run_sweep(heap, &mut mem));
                check_free(ctx, heap, &format!("{name} cpu"))?;
                ctx.ledger.mem.add(&mem);

                let heap = &mut unit_side.heap;
                let t0 = ctx.tracer.timed_ns();
                let (mut mem, mut reclaim, mark) = ctx.tracer.timed("traversal.mark", || {
                    let mut mem = MemSystem::ddr3(Ddr3Config::default());
                    let mut traversal = TraversalUnit::new(cfg, heap);
                    let reclaim = ReclamationUnit::new(cfg, heap);
                    let mark = traversal.try_run_mark(heap, &mut mem, 0);
                    (mem, reclaim, mark)
                });
                let mark = mark.map_err(|e| OpError::Failed(format!("{name} unit mark: {e}")))?;
                ctx.ledger.unit_mark(&mark, ctx.tracer.timed_ns() - t0);
                check_heap(ctx, heap, &format!("{name} unit"))?;
                ctx.probes.note_mark(
                    MarkSample::Bench(*spec),
                    mem.stats().total_requests,
                    mem.stats().mean_issue_interval(),
                );
                let sweep = ctx.tracer.timed("reclaim.sweep", || {
                    reclaim.run_sweep(heap, &mut mem, mark.end)
                });
                ctx.ledger.unit_sweep(&sweep);
                check_free(ctx, heap, &format!("{name} unit"))?;
                ctx.ledger.mem.add(&mem);

                ctx.ledger.cpu.add(&cpu_mark, &cpu_sweep);
                ctx.ledger.cpu.paired_unit_mark_cycles += mark.cycles();
                ctx.ledger.gc_cycles += cpu_mark.cycles + cpu_sweep.cycles;
                for w in [cpu_mark.cycles, cpu_mark.work_items, cpu_mark.refs_traced] {
                    ctx.ledger.digest.word(w);
                }
                for w in [cpu_sweep.cycles, cpu_sweep.work_items] {
                    ctx.ledger.digest.word(w);
                }
                ctx.ledger.digest.stalls(&cpu_mark.stalls);
                ctx.ledger.digest.stalls(&cpu_sweep.stalls);
                Run::expect(cpu_mark.work_items == mark.objects_marked, || {
                    format!(
                        "{name}: CPU marked {} objects, unit {}",
                        cpu_mark.work_items, mark.objects_marked
                    )
                })?;
                Run::expect(cpu_sweep.work_items == sweep.cells_freed, || {
                    format!(
                        "{name}: CPU freed {} cells, unit {}",
                        cpu_sweep.work_items, sweep.cells_freed
                    )
                })
            });
        }
    }
    ctx.end_round();
}
