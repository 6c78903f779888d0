//! `fleet-faulted`: small tenant heaps cycling the five streamed
//! shapes, each measured three times through the harness runner —
//! clean, under seeded fault injection with a 4× mark budget, and under
//! the §VII issue throttle — then replayed through the fleet queue
//! under FIFO, smallest-first and partitioned scheduling from light
//! load to past saturation.
//!
//! Memory histories are thousands of requests, not millions, so the
//! cost of building each run's simulated state dominates; every heap is
//! generated three times inside its op.

use tracegc::runner::{run_faulted_mark_stream, FaultedMarkRun, MarkOutcome, MemKind};
use tracegc_heap::LayoutKind;
use tracegc_hwgc::GcUnitConfig;
use tracegc_sim::fleet::{run_fleet, FleetConfig, FleetPolicy, TenantProfile};
use tracegc_sim::{Cycle, FaultConfig};
use tracegc_workloads::{StreamShape, StreamSpec};

use crate::trace::Tracer;
use crate::{derive_seed, OpError, Run};

/// Traversal units serving the fleet queue.
pub(crate) const UNITS: usize = 4;
/// Shared DDR3 channels.
pub(crate) const CHANNELS: usize = 2;
/// §VII issue-throttle period of the partitioned policy.
pub(crate) const THROTTLE: u64 = (UNITS / CHANNELS) as u64;
/// A tenant's SLO and request-timeout budget, as a multiple of its
/// clean mark.
pub(crate) const SLO_FACTOR: u64 = 4;
/// Probability of every injected fault class on a fault-injected tenant.
const FAULT_RATE: f64 = 1e-3;
/// Offered loads replayed, from light to past saturation.
pub(crate) const LOADS: [f64; 4] = [0.25, 0.6, 1.0, 1.5];
/// The scheduling policies replayed at every load.
pub const POLICIES: [FleetPolicy; 3] = [
    FleetPolicy::Fifo,
    FleetPolicy::SmallestFirst,
    FleetPolicy::Partitioned,
];

/// The five streamed shapes tenants cycle through.
pub(crate) const SHAPES: [(&str, StreamShape); 5] = [
    ("dacapo-mix", crate::heapscale::FOREST),
    ("lru-churn", StreamShape::LruCache { churn_factor: 2.0 }),
    (
        "sessions",
        StreamShape::RequestSession {
            session_objects: 24,
            survivor_fraction: 0.12,
        },
    ),
    (
        "social-graph",
        StreamShape::SocialGraph {
            supernodes: 4,
            supernode_degree: 512,
        },
    ),
    (
        "actor-mesh",
        StreamShape::ActorMesh {
            peers: 3,
            mailbox_depth: 4,
            churn_messages: 6.0,
        },
    ),
];

/// Tenant population, fault spread and replay length.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Tenants per round.
    pub tenants: usize,
    /// Smallest tenant's live objects; tenant `i` holds
    /// `base_objects * (1 + (i % 4) / 2)`.
    pub base_objects: usize,
    /// Every `faulted_every`-th tenant runs its faulted mark with
    /// faults injected; the rest run it with the budget alone.
    pub faulted_every: usize,
    /// GC requests each tenant issues per replay.
    pub requests_per_tenant: usize,
    /// Arrival seeds replayed per (policy, load) point.
    pub arrival_seeds: usize,
}

impl Params {
    /// The benchmark's size: 100 tenants of 1200–3000 live objects, every
    /// fifth one fault-injected.
    pub fn standard() -> Self {
        Self {
            tenants: 100,
            base_objects: 1200,
            faulted_every: 5,
            requests_per_tenant: 8,
            arrival_seeds: 48,
        }
    }

    /// Ten tenants of a few hundred objects.
    pub fn tiny() -> Self {
        Self {
            tenants: 10,
            base_objects: 300,
            faulted_every: 3,
            requests_per_tenant: 4,
            arrival_seeds: 2,
        }
    }
}

/// The tenants, seeds drawn from the workload seed.
pub(crate) fn tenants(p: &Params, seed: u64) -> Vec<StreamSpec> {
    (0..p.tenants)
        .map(|i| {
            let (name, shape) = SHAPES[i % SHAPES.len()];
            StreamSpec {
                name,
                shape,
                live_objects: p.base_objects + (i % 4) * p.base_objects / 2,
                window: 512,
                hot_set: 16,
                roots: 32,
                seed: derive_seed(seed, &[i as u64]),
            }
        })
        .collect()
}

/// Tenant `i`'s fault stream: every class at the fault rate on every
/// `faulted_every`-th tenant, none on the others.
pub(crate) fn fault(p: &Params, seed: u64, tenant: usize) -> FaultConfig {
    let r = if tenant.is_multiple_of(p.faulted_every.max(1)) {
        FAULT_RATE
    } else {
        0.0
    };
    FaultConfig {
        seed: derive_seed(seed, &[tenant as u64, 0xFA]),
        bit_flip_rate: r,
        drop_rate: r,
        delay_rate: r,
        corrupt_ref_rate: r,
        corrupt_header_rate: r,
        pte_fault_rate: r,
        ..FaultConfig::default()
    }
}

/// The replay grid: every policy at every load, each
/// under `arrival_seeds` arrival processes, with per-tenant mean
/// service `mean_service`. The same arrival seeds serve every policy.
pub(crate) fn grid(p: &Params, seed: u64, mean_service: f64) -> Vec<GridPoint> {
    let n = p.tenants as f64;
    let mut out = Vec::new();
    for policy in POLICIES {
        for (li, rho) in LOADS.into_iter().enumerate() {
            for k in 0..p.arrival_seeds {
                let cfg = FleetConfig {
                    units: UNITS,
                    channels: CHANNELS,
                    policy,
                    requests_per_tenant: p.requests_per_tenant,
                    mean_period: ((n * mean_service) / (rho * UNITS as f64)).max(1.0) as Cycle,
                    queue_cap: p.tenants,
                    seed: derive_seed(seed, &[0xF1EE, li as u64, k as u64]),
                };
                out.push(GridPoint {
                    label: format!("{} rho={rho} arrivals={k}", policy.name()),
                    cfg,
                });
            }
        }
    }
    out
}

/// One replay of the fleet queue.
#[derive(Debug, Clone)]
pub(crate) struct GridPoint {
    /// `<policy> rho=<load> arrivals=<k>`.
    pub label: String,
    /// The replay's configuration.
    pub cfg: FleetConfig,
}

/// One tenant's three measured marks.
#[derive(Debug)]
pub(crate) struct Measured {
    /// Clean, full bandwidth (the SLO baseline).
    pub clean: FaultedMarkRun,
    /// Seeded faults with a 4× mark budget.
    pub faulted: FaultedMarkRun,
    /// Under the §VII issue throttle.
    pub throttled: FaultedMarkRun,
}

/// Measures one tenant: three calls into the harness runner, each
/// generating the heap afresh.
pub(crate) fn measure(tracer: &mut Tracer, spec: &StreamSpec, fault: FaultConfig) -> Measured {
    let cfg = crate::heapscale::unit_cfg(spec.live_objects);
    let layout = LayoutKind::Bidirectional;
    let mem = MemKind::ddr3_default();
    let clean = tracer.timed("fault.mark_stream", || {
        run_faulted_mark_stream(spec, layout, cfg, mem, None)
    });
    let budget = GcUnitConfig {
        mark_budget: clean.total_cycles() * SLO_FACTOR,
        ..cfg
    };
    let faulted = tracer.timed("fault.mark_stream", || {
        run_faulted_mark_stream(spec, layout, budget, mem, Some(fault))
    });
    let throttle = GcUnitConfig {
        min_issue_interval: THROTTLE,
        ..cfg
    };
    let throttled = tracer.timed("fault.mark_stream", || {
        run_faulted_mark_stream(spec, layout, throttle, mem, None)
    });
    Measured {
        clean,
        faulted,
        throttled,
    }
}

/// Checks one tenant's measurement and folds it into the ledger.
fn record(ctx: &mut Run, spec: &StreamSpec, m: &Measured) -> Result<(), OpError> {
    for r in [&m.clean, &m.faulted, &m.throttled] {
        ctx.ledger.faulted_mark(r);
    }
    ctx.ledger.tenants += 1;
    for r in [&m.clean, &m.faulted, &m.throttled] {
        if let MarkOutcome::Failed(e) = &r.outcome {
            return Err(OpError::Failed(format!("{}: mark failed: {e}", spec.name)));
        }
    }
    if matches!(m.faulted.outcome, MarkOutcome::Fallback(_)) {
        ctx.ledger.tenants_degraded += 1;
    }
    Run::expect(matches!(m.clean.outcome, MarkOutcome::Clean), || {
        format!("{}: the fault-free mark trapped", spec.name)
    })?;
    let marked = m.clean.objects_marked;
    Run::expect(
        m.faulted.objects_marked == marked && m.throttled.objects_marked == marked,
        || {
            format!(
                "{}: live counts differ: clean {marked}, faulted {}, throttled {}",
                spec.name, m.faulted.objects_marked, m.throttled.objects_marked
            )
        },
    )
}

/// The replayed profile of a measured tenant: the faulted service
/// (fallback included) unless that mark failed outright.
pub(crate) fn profile(spec: &StreamSpec, m: &Measured) -> TenantProfile {
    TenantProfile {
        shape: spec.name,
        live_objects: m.clean.objects_marked,
        service_cycles: match m.faulted.outcome {
            MarkOutcome::Failed(_) => m.clean.total_cycles(),
            _ => m.faulted.total_cycles(),
        },
        throttled_cycles: m.throttled.total_cycles(),
        degraded: matches!(m.faulted.outcome, MarkOutcome::Fallback(_)),
    }
}

/// One round: one op per tenant, then one op per replay grid point.
pub(crate) fn round(p: &Params, ctx: &mut Run) {
    ctx.begin_round();
    let specs = tenants(p, ctx.seed);
    // Warm-up: one tenant of each shape measured fault-free and
    // discarded, so lazy host set-up (allocator arenas, page faults on
    // fresh code) is not charged to the first ops. With no faults its
    // cost cannot hinge on whether a seeded fault forces the fallback.
    for spec in specs.iter().take(SHAPES.len()) {
        ctx.tracer.check("fault.warmup", || {
            std::hint::black_box(measure(
                &mut Tracer::new(false),
                spec,
                FaultConfig::default(),
            ))
        });
    }
    ctx.end_setup();

    let mut measured: Vec<Option<Measured>> = Vec::with_capacity(specs.len());
    for (i, spec) in specs.iter().enumerate() {
        let f = fault(p, ctx.seed, i);
        let mut out = None;
        ctx.op(|ctx| {
            let m = measure(&mut ctx.tracer, spec, f);
            let r = record(ctx, spec, &m);
            out = Some(m);
            r
        });
        let clean = out.as_ref().map_or(0, |m| m.clean.unit_cycles);
        ctx.probes.fleet_clean.push(clean);
        measured.push(out);
    }

    let profiles: Vec<TenantProfile> = specs
        .iter()
        .zip(&measured)
        .map(|(spec, m)| match m {
            Some(m) => profile(spec, m),
            // A tenant whose measurement panicked still offers load;
            // replay it at a nominal service time.
            None => TenantProfile {
                shape: spec.name,
                live_objects: spec.live_objects as u64,
                service_cycles: 1,
                throttled_cycles: 1,
                degraded: false,
            },
        })
        .collect();
    let clean: Vec<Cycle> = measured
        .iter()
        .map(|m| m.as_ref().map_or(1, |m| m.clean.total_cycles().max(1)))
        .collect();
    let mean_service = profiles
        .iter()
        .map(|t| t.service_cycles as f64)
        .sum::<f64>()
        / profiles.len() as f64;
    for GridPoint { label, cfg } in grid(p, ctx.seed, mean_service) {
        let offered = (profiles.len() * cfg.requests_per_tenant) as u64;
        ctx.ledger.ops += 1;
        ctx.ledger.grid_points += 1;
        ctx.ledger.slo_requests += offered;
        let result = ctx
            .tracer
            .timed("fleet.replay", || run_fleet(&cfg, &profiles));
        match result {
            Ok(stats) => {
                let late = stats
                    .completions
                    .iter()
                    .filter(|c| c.sojourn() > clean[c.tenant] * SLO_FACTOR)
                    .count() as u64;
                ctx.ledger.slo_violations += late + stats.rejected;
                ctx.ledger.rejected += stats.rejected;
                ctx.ledger.utilization_sum += stats.utilization(UNITS);
                for w in [
                    stats.completions.len() as u64,
                    stats.rejected,
                    stats.busy_cycles,
                    stats.makespan,
                    late,
                ] {
                    ctx.ledger.digest.word(w);
                }
            }
            Err(e) => {
                ctx.ledger.replay_failed += 1;
                ctx.ledger.slo_violations += offered;
                ctx.ledger.fail(&format!(
                    "replay {label}: {}",
                    e.to_string().lines().next().unwrap_or_default()
                ));
            }
        }
    }
    ctx.end_round();
}
