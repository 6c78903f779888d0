//! `heapscale-large`: the `paper200` forest row and the `server-lru`
//! row of the heapscale grid, generated streamed, marked and swept by
//! the unit on Table-I DDR3, with the oracles after each phase.
//!
//! The only workload where generation, DDR3 histories of hundreds of
//! thousands of requests, the traversal pipeline and the sweepers all
//! run at scale while the CPU collector does nothing.

use tracegc_heap::verify::{check_free_lists, check_marks_match_reachability};
use tracegc_heap::LayoutKind;
use tracegc_hwgc::{GcUnitConfig, ReclamationUnit, TraversalUnit};
use tracegc_mem::ddr3::Ddr3Config;
use tracegc_mem::MemSystem;
use tracegc_workloads::stream::objects_for_mb;
use tracegc_workloads::{generate_streamed, StreamShape, StreamSpec};

use crate::probe::MarkSample;
use crate::{derive_seed, OpError, Run};

/// The heapscale grid's DaCapo-like spanning-forest shape.
pub(crate) const FOREST: StreamShape = StreamShape::Forest {
    mean_refs: 2.2,
    array_fraction: 0.1,
    popularity_s: 1.1,
    hot_fraction: 0.1,
    garbage_factor: 0.5,
};

/// Row sizes, as the heapscale grid's `--scale`.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// `paper200` holds `scale` × the paper's 200 MB heap and
    /// `server-lru` `scale^1.5` × its 1536 MB target, as in the grid.
    pub scale: f64,
}

impl Params {
    /// The benchmark's size: ~105 k and ~200 k live objects.
    pub fn standard() -> Self {
        Self { scale: 0.06 }
    }

    /// A few thousand objects per row.
    pub fn tiny() -> Self {
        Self { scale: 0.004 }
    }
}

/// The two rows, seeds drawn from the workload seed.
pub(crate) fn rows(p: &Params, seed: u64) -> [StreamSpec; 2] {
    let spec = |i: u64, name, mb, factor: f64, shape| {
        StreamSpec {
            name,
            shape,
            live_objects: objects_for_mb(mb),
            window: 4096,
            hot_set: 56,
            roots: 64,
            seed: derive_seed(seed, &[i]),
        }
        .scaled(factor)
    };
    [
        spec(0, "paper200", 200, p.scale, FOREST),
        spec(
            1,
            "server-lru",
            1536,
            p.scale.powf(1.5),
            StreamShape::LruCache { churn_factor: 2.0 },
        ),
    ]
}

/// The unit of the heapscale rows and the fleet tenants: the paper
/// baseline plus the Fig. 21 mark-bit cache and a spill region only
/// injected faults can exhaust.
pub(crate) fn unit_cfg(live_objects: usize) -> GcUnitConfig {
    GcUnitConfig {
        markbit_cache: 256,
        spill_bytes: (live_objects as u64 * 16)
            .next_multiple_of(1 << 20)
            .max(4 << 20),
        ..GcUnitConfig::default()
    }
}

/// One round: generate both rows (set-up), then one op per row.
pub(crate) fn round(p: &Params, ctx: &mut Run) {
    ctx.begin_round();
    let specs = rows(p, ctx.seed);
    let mut heaps = Vec::with_capacity(specs.len());
    for spec in &specs {
        let streamed = ctx.tracer.check("workloads.gen", || {
            generate_streamed(spec, LayoutKind::Bidirectional)
        });
        ctx.ledger.gen_allocs += streamed.stats.allocated;
        ctx.ledger.digest.word(streamed.stats.allocated);
        heaps.push(streamed);
    }
    ctx.end_setup();
    for (spec, mut streamed) in specs.into_iter().zip(heaps) {
        ctx.op(|ctx| {
            let cfg = unit_cfg(spec.live_objects);
            let heap = &mut streamed.heap;
            let (mut mem, mut traversal, mut reclaim) = ctx.tracer.timed("traversal.new", || {
                let traversal = TraversalUnit::new(cfg, heap);
                let reclaim = ReclamationUnit::new(cfg, heap);
                (MemSystem::ddr3(Ddr3Config::default()), traversal, reclaim)
            });
            let t0 = ctx.tracer.timed_ns();
            let mark = ctx
                .tracer
                .timed("traversal.mark", || {
                    traversal.try_run_mark(heap, &mut mem, 0)
                })
                .map_err(|e| OpError::Failed(format!("{} mark: {e}", spec.name)))?;
            ctx.ledger.unit_mark(&mark, ctx.tracer.timed_ns() - t0);
            let oracle = ctx
                .tracer
                .check("verify.oracle", || check_marks_match_reachability(heap));
            Run::expect(oracle.is_ok(), || {
                format!("{} oracle: {oracle:?}", spec.name)
            })?;
            Run::expect(mark.objects_marked == streamed.live_objects as u64, || {
                format!(
                    "{}: marked {} of {} streamed live objects",
                    spec.name, mark.objects_marked, streamed.live_objects
                )
            })?;
            ctx.probes.note_mark(
                MarkSample::Stream(spec, cfg),
                mem.stats().total_requests,
                mem.stats().mean_issue_interval(),
            );
            let sweep = ctx.tracer.timed("reclaim.sweep", || {
                reclaim.run_sweep(heap, &mut mem, mark.end)
            });
            ctx.ledger.unit_sweep(&sweep);
            ctx.ledger.mem.add(&mem);
            let free = ctx
                .tracer
                .check("verify.free_list", || check_free_lists(heap));
            Run::expect(free.is_ok(), || {
                format!("{} free lists: {free:?}", spec.name)
            })
        });
    }
    ctx.end_round();
}
