//! # MT4G — Memory Topology for GPUs (Rust reproduction)
//!
//! This is a full reproduction of *"MT4G: A Tool for Reliable Auto-Discovery
//! of NVIDIA and AMD GPU Compute and Memory Topologies"* (SC Workshops '25),
//! built on a simulated GPU substrate so that every microbenchmark and the
//! complete statistical evaluation pipeline can run — and be validated
//! against planted ground truth — on any machine, without GPU hardware.
//!
//! The workspace is organised as five library crates, four of them
//! re-exported here (`mt4g_bench` holds the paper's table/figure
//! harnesses):
//!
//! * [`stats`] — Kolmogorov–Smirnov testing (Eq. 1), change-point
//!   detection, the geometric reduction of Eq. (2), outlier handling.
//! * [`sim`] — the GPU simulator: sectored fully-associative caches with
//!   planted replacement policies, memory spaces, a mini kernel ISA with a
//!   cycle clock, vendor API emulation, and a registry of 16 presets: the
//!   ten GPUs of the paper's Table II plus Blackwell, RDNA and hostile
//!   variants.
//! * [`core`] — the MT4G tool itself: the p-chase engine, all benchmark
//!   families of Section IV, the plan/execute/merge discovery suite
//!   (`--jobs` / `--shard` / `mt4g merge`), and the report model.
//! * [`model`] — the Section VI use cases: the Hong-Kim CWP/MWP performance
//!   model, a roofline model, a sys-sage-style dynamic topology with MIG, and
//!   GPUscout-style bottleneck analysis.
//!
//! The end-to-end pipeline (substrate → p-chase → Eq. 2 reduction → Eq. 1
//! K-S change-point detection → report) and the parallel discovery
//! architecture are documented in `ARCHITECTURE.md` at the repository
//! root.
//!
//! ## Quickstart
//!
//! ```
//! use mt4g::sim::presets;
//! use mt4g::core::suite::{run_discovery, DiscoveryConfig};
//! use mt4g::sim::CacheKind;
//!
//! // Keep the doctest fast: one element only.
//! let mut gpu = presets::t1000();
//! let cfg = DiscoveryConfig {
//!     only: Some(vec![CacheKind::ConstL1]),
//!     measure_bandwidth: false,
//!     ..DiscoveryConfig::fast()
//! };
//! let report = run_discovery(&mut gpu, &cfg);
//! assert_eq!(report.device.name, "T1000");
//! let cl1 = report.element(CacheKind::ConstL1).unwrap();
//! assert_eq!(cl1.size.value(), Some(&2048));
//! ```

pub use mt4g_core as core;
pub use mt4g_model as model;
pub use mt4g_sim as sim;
pub use mt4g_stats as stats;
