//! Fig. 21: the mark-bit cache.
//!
//! * Fig. 21a — a small number of objects account for ~10% of all mark
//!   accesses (≈56 objects in the paper's luindex run).
//! * Fig. 21b — a small LRU cache of recently marked references filters
//!   those duplicates before they reach memory.

use tracegc_heap::LayoutKind;
use tracegc_hwgc::GcUnitConfig;
use tracegc_workloads::spec::by_name;

use super::{ExperimentOutput, Options};
use crate::metrics::MetricsDoc;
use crate::runner::{run_unit_gc_faulted, MemKind};
use crate::table::Table;

const CACHE_SIZES: [usize; 5] = [0, 64, 105, 128, 256];

/// Access-frequency histogram and cache-size sweep on luindex.
pub fn run(opts: &Options) -> ExperimentOutput {
    let spec = by_name("luindex")
        .expect("luindex exists")
        .scaled(opts.scale);

    // Fig. 21a: object-access-frequency distribution from one mark pass.
    let mut run = run_unit_gc_faulted(
        &spec,
        LayoutKind::Bidirectional,
        GcUnitConfig {
            trace: opts.trace,
            ..GcUnitConfig::default()
        },
        MemKind::ddr3_default(),
        false,
        opts.fault,
    );
    let mut freq: Vec<u32> = run
        .workload
        .heap
        .mark_access_counts()
        .into_values()
        .collect();
    freq.sort_unstable_by(|a, b| b.cmp(a));
    let total_accesses: u64 = freq.iter().map(|&c| c as u64).sum();
    let top56: u64 = freq.iter().take(56).map(|&c| c as u64).sum();

    let mut hist = Table::new(
        "Fig 21a: number of objects per mark-access count (log2 bins)",
        &["accesses", "objects"],
    );
    let mut bins = std::collections::BTreeMap::new();
    for &c in &freq {
        let bin = 1u32 << (31 - c.max(1).leading_zeros());
        *bins.entry(bin).or_insert(0u64) += 1;
    }
    for (bin, n) in bins {
        hist.row(vec![format!(">={bin}"), format!("{n}")]);
    }

    // Fig. 21b: cache-size sweep.
    let mut sweep = Table::new(
        "Fig 21b: mark-bit cache size vs marker memory traffic (luindex)",
        &[
            "cache-entries",
            "filtered-%",
            "mark-reqs-per-ref",
            "mark-ms",
        ],
    );
    let rows = super::par_grid(opts, CACHE_SIZES.to_vec(), |size| {
        let cfg = GcUnitConfig {
            markbit_cache: size,
            ..GcUnitConfig::default()
        };
        let run = run_unit_gc_faulted(
            &spec,
            LayoutKind::Bidirectional,
            cfg,
            MemKind::ddr3_default(),
            false,
            opts.fault,
        );
        let mark = &run.report.mark;
        let attempts = mark.objects_marked + mark.already_marked + mark.filtered;
        let reqs = mark.objects_marked + mark.already_marked; // AMOs that reached memory
        let row = vec![
            format!("{size}"),
            format!(
                "{:.1}%",
                100.0 * mark.filtered as f64 / attempts.max(1) as f64
            ),
            format!("{:.3}", reqs as f64 / attempts.max(1) as f64),
            crate::table::ms(mark.cycles()),
        ];
        (
            row,
            mark.cycles(),
            mark.stalls,
            run.fault_stats,
            run.fallback.is_some(),
        )
    });
    let mut metrics = MetricsDoc::new("fig21");
    metrics.phase(
        "luindex.hist_run.unit_mark",
        run.report.mark.cycles(),
        1,
        run.report.mark.stalls,
    );
    super::note_unit_faults(&mut metrics, &run.fault_stats, run.fallback.is_some());
    metrics.counter("mark_accesses", total_accesses);
    for (&size, (row, cycles, stalls, stats, fell_back)) in CACHE_SIZES.iter().zip(rows) {
        sweep.row(row);
        metrics.phase(&format!("luindex.cache{size}.unit_mark"), cycles, 1, stalls);
        super::note_unit_faults(&mut metrics, &stats, fell_back);
    }

    ExperimentOutput {
        id: "fig21",
        title: "Fig 21: mark-bit cache",
        tables: vec![hist, sweep],
        metrics,
        trace: run.unit.take_trace(),
        notes: vec![
            format!(
                "Top-56 objects receive {:.1}% of all {} mark accesses (paper: ~10%).",
                100.0 * top56 as f64 / total_accesses.max(1) as f64,
                total_accesses
            ),
            "Paper: the largest gain per area comes from a small cache (<64 \
             entries); overall mark time is not substantially affected at DDR3 \
             bandwidth."
                .into(),
        ],
    }
}
