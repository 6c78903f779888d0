//! Probes the traced run makes after its timed phase: a memory
//! controller replay, a lockstep-versus-fast-forward re-run of one mark,
//! and (on `fleet-faulted`) a replica of each tenant's clean mark split
//! into its layer calls.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering};
use std::time::Instant;

use tracegc_heap::verify::check_marks_match_reachability;
use tracegc_heap::{Heap, LayoutKind};
use tracegc_hwgc::{GcUnitConfig, TraversalResult, TraversalUnit};
use tracegc_mem::ddr3::Ddr3Config;
use tracegc_mem::{MemReq, MemSystem, Source};
use tracegc_sim::rng::{Rng, StdRng};
use tracegc_sim::sched::with_pacing;
use tracegc_sim::{Cycle, Pacing};
use tracegc_workloads::generate::generate_heap;
use tracegc_workloads::{generate_streamed, BenchSpec, StreamSpec};

use crate::ledger::{MemTotals, TraversalTotals};
use crate::{derive_seed, fleet, Run, Size, Workload};

/// The inputs of one accelerator mark, enough to re-run it.
#[derive(Debug, Clone, Copy)]
pub enum MarkSample {
    /// A streamed heap and its unit configuration.
    Stream(StreamSpec, GcUnitConfig),
    /// A DaCapo heap on the default unit.
    Bench(BenchSpec),
}

impl MarkSample {
    /// Generates the heap this mark ran on.
    fn heap(&self) -> Heap {
        match self {
            MarkSample::Stream(spec, _) => generate_streamed(spec, LayoutKind::Bidirectional).heap,
            MarkSample::Bench(spec) => generate_heap(spec, LayoutKind::Bidirectional).heap,
        }
    }

    fn cfg(&self) -> GcUnitConfig {
        match self {
            MarkSample::Stream(_, cfg) => *cfg,
            MarkSample::Bench(_) => GcUnitConfig::default(),
        }
    }
}

/// What the probes measured, and the samples they start from.
#[derive(Debug, Default)]
pub struct Probes {
    /// The first mark of the timed phase.
    pub first: Option<MarkSample>,
    /// Request count and mean issue interval of the timed phase's
    /// largest mark (the memory probe replays a stream that size).
    pub largest: Option<(u64, f64)>,
    /// Clean-mark cycles of every `fleet-faulted` tenant, in op order.
    pub fleet_clean: Vec<Cycle>,
    /// Host ns per `MemSystem::schedule` call in the memory probe.
    pub schedule_ns: f64,
    /// Host heap the probe's memory system holds after the replay, in MB.
    pub probe_heap_mb: f64,
    /// Host time of a lockstep mark over the same fast-forward mark.
    pub lockstep_over_fastforward: f64,
    /// `fleet-faulted` clean-mark replica: accelerator counters.
    pub replica: TraversalTotals,
    /// `fleet-faulted` clean-mark replica: memory counters.
    pub replica_mem: MemTotals,
    /// `fleet-faulted` clean-mark replica: objects allocated.
    pub replica_allocs: u64,
}

impl Probes {
    /// Notes an accelerator mark of the timed phase.
    pub fn note_mark(&mut self, sample: MarkSample, requests: u64, interval: f64) {
        self.first.get_or_insert(sample);
        if self.largest.is_none_or(|(n, _)| requests > n) {
            self.largest = Some((requests, interval));
        }
    }
}

/// Runs every probe for `workload`.
pub fn run(size: &Size, ctx: &mut Run) {
    if ctx.workload == Workload::FleetFaulted {
        fleet_replica(&size.fleet, ctx);
    }
    if let Some(sample) = ctx.probes.first {
        pacing_ratio(&sample, ctx);
    }
    if let Some((requests, interval)) = ctx.probes.largest {
        mem_probe(requests, interval, ctx);
    }
}

/// A fresh unit's mark of `heap` on Table-I DDR3.
fn mark(heap: &mut Heap, cfg: GcUnitConfig) -> (MemSystem, Result<TraversalResult, String>) {
    let mut mem = MemSystem::ddr3(Ddr3Config::default());
    let mut unit = TraversalUnit::new(cfg, heap);
    let r = unit
        .try_run_mark(heap, &mut mem, 0)
        .map_err(|e| e.to_string());
    (mem, r)
}

/// Re-runs the sample's mark under both pacings: the host-time ratio,
/// and a check that both give the identical result.
fn pacing_ratio(sample: &MarkSample, ctx: &mut Run) {
    let mut ns = [0u64; 2];
    let mut results = Vec::new();
    for (i, pacing) in [Pacing::FastForward, Pacing::Lockstep]
        .into_iter()
        .enumerate()
    {
        let mut heap = ctx.tracer.check("workloads.gen", || sample.heap());
        let name = match pacing {
            Pacing::FastForward => "sched.mark_fastforward",
            Pacing::Lockstep => "sched.mark_lockstep",
        };
        let start = Instant::now();
        let (_, r) = ctx.tracer.check(name, || {
            with_pacing(pacing, || mark(&mut heap, sample.cfg()))
        });
        ns[i] = start.elapsed().as_nanos() as u64;
        results.push(r.map(|r| (r.cycles(), r.objects_marked, r.stalls)));
    }
    ctx.probes.lockstep_over_fastforward = ns[1] as f64 / ns[0].max(1) as f64;
    if results[0] != results[1] || results[0].is_err() {
        ctx.correct = false;
        eprintln!("gcbench: lockstep and fast-forward marks differ: {results:?}");
    }
}

/// Counts heap bytes allocated while [`count_heap`] runs, so the memory
/// probe can measure what the memory system holds. A resident-set delta
/// cannot: the allocator reuses memory the timed phase freed without
/// growing the resident set. Outside the probe the allocator pays one
/// relaxed load per call and no read-modify-write.
struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static COUNTED: AtomicIsize = AtomicIsize::new(0);

fn count(delta: isize) {
    if COUNTING.load(Ordering::Relaxed) {
        COUNTED.fetch_add(delta, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees carry over; the counter is a
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            count(layout.size() as isize);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator.
        unsafe { System.dealloc(ptr, layout) };
        count(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            count(new_size as isize - layout.size() as isize);
        }
        p
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Runs `f` and returns its result with the net heap bytes allocated
/// during the call and still held when it returns (its result included).
pub fn count_heap<R>(f: impl FnOnce() -> R) -> (R, isize) {
    COUNTED.store(0, Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let r = f();
    COUNTING.store(false, Ordering::Relaxed);
    (r, COUNTED.load(Ordering::Relaxed))
}

/// A `/proc/self/status` memory field in MB (0 where `/proc` is
/// unavailable).
pub fn rss_mb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix(field))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Replays a seeded request stream, `requests` long and issued every
/// `interval` cycles, into a fresh DDR3 memory system through the public
/// `schedule`.
fn mem_probe(requests: u64, interval: f64, ctx: &mut Run) {
    let mut rng = StdRng::seed_from_u64(derive_seed(ctx.seed, &[0x3E3]));
    let stream: Vec<MemReq> = (0..requests)
        .map(|_| {
            let line = rng.random_range(0..(1u64 << 24)) * 64;
            match rng.random_range(0..10u32) {
                0..=5 => MemReq::read(line, 64, Source::Tracer),
                6..=8 => MemReq::amo(line + 8 * rng.random_range(0..8u64), Source::Marker),
                _ => MemReq::write(line, 64, Source::MarkQueue),
            }
        })
        .collect();
    let start = Instant::now();
    let (mem, held) = ctx.tracer.check("mem.schedule_probe", || {
        count_heap(|| {
            let mut mem = MemSystem::ddr3(Ddr3Config::default());
            let mut t = 0.0f64;
            for req in &stream {
                std::hint::black_box(mem.schedule(req, t as Cycle));
                t += interval.max(1.0);
            }
            mem
        })
    });
    let ns = start.elapsed().as_nanos() as f64;
    ctx.probes.probe_heap_mb = held.max(0) as f64 / (1 << 20) as f64;
    ctx.probes.schedule_ns = ns / requests.max(1) as f64;
    drop(mem);
}

/// Replicates every tenant's clean mark from its layer calls —
/// generate, mark, oracle — timing each, and checks the replica against
/// the clean mark the harness runner measured.
fn fleet_replica(p: &fleet::Params, ctx: &mut Run) {
    let mut clean = std::mem::take(&mut ctx.probes.fleet_clean).into_iter();
    for _ in 0..ctx.rounds {
        for spec in fleet::tenants(p, ctx.seed) {
            let mut streamed = ctx.tracer.check("workloads.gen", || {
                generate_streamed(&spec, LayoutKind::Bidirectional)
            });
            ctx.probes.replica_allocs += streamed.stats.allocated;
            let cfg = crate::heapscale::unit_cfg(spec.live_objects);
            let start = Instant::now();
            let (mem, r) = ctx
                .tracer
                .check("traversal.mark", || mark(&mut streamed.heap, cfg));
            let host_ns = start.elapsed().as_nanos() as u64;
            let oracle = ctx.tracer.check("verify.oracle", || {
                check_marks_match_reachability(&streamed.heap)
            });
            let expected = clean.next();
            match r {
                Ok(r) if oracle.is_ok() && expected == Some(r.cycles()) => {
                    if ctx.probes.first.is_none() {
                        ctx.probes.first = Some(MarkSample::Stream(spec, cfg));
                    }
                    ctx.probes.replica.add(&r);
                    ctx.probes.replica.host_ns += host_ns;
                    ctx.probes.replica_mem.add(&mem);
                    let s = mem.stats();
                    let n = s.total_requests;
                    if ctx.probes.largest.is_none_or(|(m, _)| n > m) {
                        ctx.probes.largest = Some((n, s.mean_issue_interval()));
                    }
                }
                other => {
                    ctx.correct = false;
                    eprintln!(
                        "gcbench: clean-mark replica of {} disagrees with the runner \
                         ({other:?}, oracle {oracle:?}, runner cycles {expected:?})",
                        spec.name
                    );
                }
            }
        }
    }
}
