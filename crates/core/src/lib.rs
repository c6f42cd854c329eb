//! # mt4g-core — the MT4G tool
//!
//! The reproduction of the paper's primary contribution: a suite of
//! microbenchmarks plus automated statistical evaluation that
//! reverse-engineers GPU compute and memory topologies, unified across
//! NVIDIA and AMD into one report.
//!
//! * [`pchase`] — the fine-grained pointer-chase engine (Sec. IV-A),
//! * [`classify`] — hit/miss classification around known level latencies,
//! * [`benchmarks`] — the nine benchmark families of Sec. IV,
//! * [`suite`] — plan/execute/merge orchestration into a complete
//!   discovery run,
//! * [`report`] — the report data model and JSON / Markdown / CSV writers,
//! * [`lookup`] — the cores-per-SM microarchitecture table (Sec. III-B).
//!
//! # Paper map
//!
//! | Paper reference | Module |
//! |---|---|
//! | Sec. IV-A p-chase engine, "first N results" | [`pchase`] |
//! | Sec. IV-B size workflow (Eq. 2 reduction → Eq. 1 K-S CPD) | [`benchmarks::size`] |
//! | Sec. IV-C latency | [`benchmarks::latency`] |
//! | Sec. IV-D fetch granularity | [`benchmarks::fetch_granularity`] |
//! | Sec. IV-E cache line size | [`benchmarks::line_size`] |
//! | Sec. IV-F amount / L2 segmentation | [`benchmarks::amount`], [`benchmarks::l2_segments`] |
//! | Sec. IV-G physical sharing (NVIDIA) | [`benchmarks::sharing_nv`] |
//! | Sec. IV-H sL1d CU sharing (AMD) | [`benchmarks::sharing_amd`] |
//! | Bandwidth + future-work FLOPS extension | [`benchmarks::bandwidth`], [`benchmarks::flops`] |
//! | Sec. V-A run-time accounting, Table I report legend | [`report`] |
//!
//! # Discovery architecture
//!
//! The suite decomposes a run into a deterministic
//! [`suite::DiscoveryPlan`] of independent work units, executes them on a
//! thread pool ([`suite::execute_plan`], CLI `--jobs N`) or as a CI shard
//! ([`suite::run_shard`], CLI `--shard i/n`), and reassembles partial
//! results ([`suite::merge_partials`], CLI `mt4g merge`) into a report
//! that is byte-identical however the plan was scheduled. The full design
//! is documented in `ARCHITECTURE.md` at the workspace root.
//!
//! ```
//! use mt4g_sim::presets;
//! use mt4g_core::suite::{run_discovery, DiscoveryConfig};
//!
//! let mut gpu = presets::t1000();
//! let report = run_discovery(&mut gpu, &DiscoveryConfig::fast());
//! assert_eq!(report.device.name, "T1000");
//! let json = mt4g_core::report::to_json_pretty(&report).unwrap();
//! assert!(json.contains("\"L1\""));
//! ```

pub mod benchmarks;
pub mod classify;
pub mod lookup;
pub mod pchase;
pub mod report;
pub mod serve;
pub mod suite;
pub mod validate;

pub use report::{Attribute, Report};
pub use suite::{run_discovery, DiscoveryConfig};
