//! `tracegc` — a full-system reproduction of *"A Hardware Accelerator
//! for Tracing Garbage Collection"* (Maas, Asanović, Kubiatowicz,
//! ISCA 2018) as a cycle-level simulator in Rust.
//!
//! This facade crate re-exports every subsystem and hosts the experiment
//! harness that regenerates each of the paper's tables and figures:
//!
//! | Subsystem | Crate |
//! |---|---|
//! | Simulation primitives | [`tracegc_sim`] |
//! | Memory system (DDR3, pipe, caches) | [`tracegc_mem`] |
//! | Virtual memory (page tables, TLBs, PTW) | [`tracegc_vmem`] |
//! | Mark-sweep heap, bidirectional layout | [`tracegc_heap`] |
//! | In-order CPU collector baseline | [`tracegc_cpu`] |
//! | **The GC accelerator** | [`tracegc_hwgc`] |
//! | Synthetic DaCapo workloads | [`tracegc_workloads`] |
//! | Area / power / energy models | [`tracegc_model`] |
//!
//! # Quickstart
//!
//! ```
//! use tracegc::runner::{DualRun, MemKind};
//! use tracegc_heap::LayoutKind;
//! use tracegc_hwgc::GcUnitConfig;
//! use tracegc_workloads::spec::by_name;
//!
//! let spec = by_name("avrora").unwrap().scaled(0.01);
//! let mut run = DualRun::new(&spec, LayoutKind::Bidirectional, GcUnitConfig::default());
//! let pause = run.run_pause(MemKind::ddr3_default());
//! assert!(pause.unit_mark_cycles < pause.cpu_mark_cycles);
//! ```
//!
//! Regenerate every figure with
//! `cargo run -p tracegc --release --bin experiments -- all`.

pub mod calib;
pub mod experiments;
pub mod json;
pub mod metrics;
#[cfg(test)]
mod parallel;
pub mod runner;
pub mod table;

pub use metrics::MetricsDoc;
pub use runner::{DualRun, MemKind, MemSnapshot, PauseResult};
pub use table::Table;

// Re-export the subsystem crates under one roof.
pub use tracegc_cpu as cpu;
pub use tracegc_heap as heap;
pub use tracegc_hwgc as hwgc;
pub use tracegc_mem as mem;
pub use tracegc_model as model;
pub use tracegc_sim as sim;
pub use tracegc_vmem as vmem;
pub use tracegc_workloads as workloads;
