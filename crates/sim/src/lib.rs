//! # mt4g-sim — the GPU simulator substrate
//!
//! MT4G is a measurement tool for physical GPUs; this crate is the
//! substitute substrate that lets the *entire* tool run — and be validated
//! against planted ground truth — without hardware. It simulates exactly
//! the mechanisms the paper's microbenchmarks exploit:
//!
//! * [`cache`] — sectored caches, fully associative in every preset, with
//!   exact LRU unless a preset plants another replacement policy
//!   (capacity cliffs, sector misses, mutual eviction); a per-set model
//!   serves the 2-way set-associative pointer-chase demo of Fig. 1,
//! * [`hierarchy`] — one table of physical cache levels and the
//!   per-memory-space routing of both vendors (unified NVIDIA L1/TEX/RO,
//!   constant L1/L1.5, segmented L2; AMD vL1 / CU-group-shared sL1d /
//!   per-XCD L2 / L3), resolved into a route value per load or p-chase,
//! * [`isa`] + [`gpu`] — a mini kernel ISA mirroring the paper's PTX and
//!   AMDGCN listings, executed with a cycle clock and a measurement
//!   [`noise`] model,
//! * [`bandwidth`] — an analytic stream-throughput model,
//! * [`api`] — emulated vendor query APIs with the paper's Table I
//!   availability matrix,
//! * [`mig`] — NVIDIA Multi-Instance-GPU partitioning views,
//! * [`presets`] — a data-driven registry of ground-truth configurations:
//!   the ten GPUs of the paper's Table II plus Blackwell (B200/GB200),
//!   RDNA3/RDNA4 consumer parts and a hostile variant family, with their
//!   documented quirks ([`quirks`]),
//! * [`scenario`] — deployment scenarios (bare-metal, MIG partition,
//!   hostile environment) that transform both the device the suite runs
//!   on and the expectations the validator checks,
//! * [`tlb`] — the address-translation layer: per-SM L1 TLBs behind one
//!   GPU-level L2 TLB, whose reach the TLB-reach benchmark discovers.
//!
//! # Paper map
//!
//! | Paper reference | Module |
//! |---|---|
//! | Sec. III-A/B vendor query APIs, Table I availability | [`api`] |
//! | Sec. IV-A p-chase PTX / AMDGCN listings | [`isa`] (mini kernel ISA) |
//! | Sectored caches the Sec. IV-D/E benchmarks exploit | [`cache`] |
//! | Unified L1/TEX/RO, CL1→CL1.5, segmented L2, sL1d groups | [`hierarchy`] |
//! | Table II validation GPUs + planted ground truth | [`presets`] |
//! | Sec. V quirks (unschedulable warps, no CU pinning, ...) | [`quirks`] |
//! | Measurement jitter + outlier spikes the K-S test defeats | [`noise`] |
//!
//! # Parallel discovery
//!
//! [`gpu::Gpu::fork`] clones a pristine device with a derived RNG stream;
//! the discovery suite forks one GPU per independent work unit so the
//! whole run parallelises across threads (or CI shards) without changing
//! a single measured value. See `ARCHITECTURE.md` at the workspace root.

pub mod api;
pub mod bandwidth;
pub mod cache;
pub mod compute;
pub mod device;
pub mod gpu;
pub mod hierarchy;
pub mod isa;
pub mod mig;
pub mod noise;
pub mod presets;
pub mod quirks;
pub mod scenario;
pub mod tlb;

pub use device::{CacheKind, DeviceConfig, LoadFlags, MemorySpace, Vendor};
pub use gpu::{Gpu, LaunchResult};
pub use noise::NoiseModel;
pub use scenario::Scenario;
