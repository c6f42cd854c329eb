//! Device description types — the *ground truth* a simulated GPU is built
//! from, and which the MT4G discovery pipeline must recover.

use serde::{Deserialize, Serialize};

use crate::cache::ReplacementPolicy;
use crate::quirks::Quirks;
use crate::tlb::TlbSpec;

/// GPU vendor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Vendor {
    /// NVIDIA GPUs (Pascal and newer are in scope).
    Nvidia,
    /// AMD CDNA GPUs.
    Amd,
}

impl std::fmt::Display for Vendor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Vendor::Nvidia => write!(f, "NVIDIA"),
            Vendor::Amd => write!(f, "AMD"),
        }
    }
}

/// GPU microarchitecture generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum Microarch {
    Pascal,
    Volta,
    Turing,
    Ampere,
    Hopper,
    Blackwell,
    Cdna1,
    Cdna2,
    Cdna3,
    Rdna3,
    Rdna4,
}

impl Microarch {
    /// Vendor the microarchitecture belongs to.
    pub fn vendor(self) -> Vendor {
        match self {
            Microarch::Pascal
            | Microarch::Volta
            | Microarch::Turing
            | Microarch::Ampere
            | Microarch::Hopper
            | Microarch::Blackwell => Vendor::Nvidia,
            Microarch::Cdna1
            | Microarch::Cdna2
            | Microarch::Cdna3
            | Microarch::Rdna3
            | Microarch::Rdna4 => Vendor::Amd,
        }
    }
}

/// The distinct cache / memory elements MT4G reports on (paper Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CacheKind {
    /// NVIDIA unified L1 data cache.
    L1,
    /// NVIDIA texture cache (physically unified with L1 since Pascal).
    Texture,
    /// NVIDIA read-only data cache (`__ldg`).
    Readonly,
    /// NVIDIA constant L1 cache.
    ConstL1,
    /// NVIDIA constant L1.5 cache.
    ConstL15,
    /// L2 cache (both vendors).
    L2,
    /// AMD L3 cache / Infinity Cache (CDNA3).
    L3,
    /// AMD vector L1 data cache.
    VL1,
    /// AMD scalar L1 data cache (shared among a group of CUs).
    SL1D,
    /// NVIDIA Shared Memory (scratchpad).
    SharedMemory,
    /// AMD Local Data Share (scratchpad).
    Lds,
    /// Device (main) memory.
    DeviceMemory,
}

impl CacheKind {
    /// Human-readable label used in reports, matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            CacheKind::L1 => "L1",
            CacheKind::Texture => "Texture",
            CacheKind::Readonly => "Readonly",
            CacheKind::ConstL1 => "Const L1",
            CacheKind::ConstL15 => "Const L1.5",
            CacheKind::L2 => "L2",
            CacheKind::L3 => "L3",
            CacheKind::VL1 => "vL1",
            CacheKind::SL1D => "sL1d",
            CacheKind::SharedMemory => "Shared Mem",
            CacheKind::Lds => "LDS",
            CacheKind::DeviceMemory => "Device Mem",
        }
    }

    /// Parses the user-facing element spellings accepted by the CLI
    /// (`--only`) and the serve protocol (`"only"` request field) —
    /// case-insensitive, with the common short forms as aliases. One
    /// parser for both front ends so a cell named over the wire can never
    /// mean a different element than the same cell named on the command
    /// line (the result cache keys on the parsed element).
    pub fn parse(s: &str) -> Option<CacheKind> {
        Some(match s.to_ascii_lowercase().as_str() {
            "l1" => CacheKind::L1,
            "l2" => CacheKind::L2,
            "l3" => CacheKind::L3,
            "texture" | "tex" => CacheKind::Texture,
            "readonly" | "ro" => CacheKind::Readonly,
            "constl1" | "cl1" => CacheKind::ConstL1,
            "constl15" | "cl15" | "cl1.5" => CacheKind::ConstL15,
            "shared" | "sharedmemory" => CacheKind::SharedMemory,
            "lds" => CacheKind::Lds,
            "vl1" => CacheKind::VL1,
            "sl1d" => CacheKind::SL1D,
            "device" | "dram" => CacheKind::DeviceMemory,
            _ => return None,
        })
    }
}

/// Logical memory space a load instruction targets. Loads through different
/// logical spaces may or may not hit the same *physical* cache — telling
/// those apart is the Physical Sharing benchmark's job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemorySpace {
    /// NVIDIA global memory (`ld.global.*`).
    Global,
    /// NVIDIA texture fetch (`tex1Dfetch`).
    Texture,
    /// NVIDIA read-only path (`__ldg`).
    Readonly,
    /// NVIDIA constant memory (`ld.const`).
    Constant,
    /// NVIDIA Shared Memory (`__shared__`).
    Shared,
    /// AMD vector path (`flat_load_dword`).
    Vector,
    /// AMD scalar path (`s_load_dword`).
    Scalar,
    /// AMD Local Data Share (`__shared__`).
    Lds,
}

/// Cache-policy flags on a load, mirroring PTX `.ca`/`.cg`/`.cv` modifiers
/// and the AMD GLC/sc0/sc1 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct LoadFlags {
    /// Skip the L1-level cache (`ld.global.cg` / GLC=1): the load is
    /// serviced by L2 or below and does not allocate in L1.
    pub bypass_l1: bool,
    /// Skip all caches (`ld.global.cv`-like / sc0+sc1): the load goes to
    /// device memory and allocates nowhere. Used to measure DRAM latency.
    pub bypass_all: bool,
}

impl LoadFlags {
    /// `.ca` — cache at all levels (the default).
    pub const CACHE_ALL: LoadFlags = LoadFlags {
        bypass_l1: false,
        bypass_all: false,
    };
    /// `.cg` / GLC=1 — bypass the L1 level.
    pub const CACHE_GLOBAL: LoadFlags = LoadFlags {
        bypass_l1: true,
        bypass_all: false,
    };
    /// `.cv`-like — bypass every cache level.
    pub const VOLATILE: LoadFlags = LoadFlags {
        bypass_l1: true,
        bypass_all: true,
    };
}

/// Geometry and timing of one cache level (ground truth). Every level is
/// simulated fully associative.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheSpec {
    /// Capacity in bytes of one cache instance (one segment for L2).
    pub size: u64,
    /// Cache line size in bytes.
    pub line_size: u32,
    /// Fetch granularity (sector size) in bytes; divides `line_size`.
    pub fetch_granularity: u32,
    /// End-to-end load latency (cycles) when a load *hits* this level.
    pub load_latency: u32,
    /// Number of independent instances per SM/CU (`None` = one per GPU,
    /// e.g. L2 segments are counted by [`CacheSpec::segments`] instead).
    pub amount_per_sm: Option<u32>,
    /// For GPU-level caches: number of independent segments on the GPU
    /// (e.g. A100 L2 = 2 × 20 MB). `1` for unsegmented caches.
    pub segments: u32,
    /// Achieved read bandwidth in GiB/s at the optimal launch config, if
    /// this level is bandwidth-benchmarked (higher-level caches only).
    pub read_bw_gibs: Option<f64>,
    /// Achieved write bandwidth in GiB/s, if benchmarked.
    pub write_bw_gibs: Option<f64>,
}

impl CacheSpec {
    /// Number of cache lines in one instance.
    pub fn lines(&self) -> u64 {
        self.size / self.line_size as u64
    }

    /// Sectors per line.
    pub fn sectors_per_line(&self) -> u32 {
        self.line_size / self.fetch_granularity
    }
}

/// Scratchpad (NVIDIA Shared Memory / AMD LDS) ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScratchpadSpec {
    /// Capacity in bytes per SM/CU.
    pub size: u64,
    /// Load latency in cycles.
    pub load_latency: u32,
}

/// Device (main) memory ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DramSpec {
    /// Total capacity in bytes.
    pub size: u64,
    /// Load latency in cycles.
    pub load_latency: u32,
    /// Achieved read bandwidth in GiB/s at the optimal launch config.
    pub read_bw_gibs: f64,
    /// Achieved write bandwidth in GiB/s at the optimal launch config.
    pub write_bw_gibs: f64,
}

/// Compute-resource ground truth (largely what `hipDeviceProp_t` exposes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ChipSpec {
    /// Number of SMs (NVIDIA) or active CUs (AMD).
    pub num_sms: u32,
    /// CUDA cores / stream processors per SM/CU.
    pub cores_per_sm: u32,
    /// Threads per warp (32) / wavefront (64).
    pub warp_size: u32,
    /// Maximum resident blocks per SM/CU.
    pub max_blocks_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Maximum resident threads per SM/CU.
    pub max_threads_per_sm: u32,
    /// 32-bit registers per block.
    pub regs_per_block: u32,
    /// 32-bit registers per SM/CU.
    pub regs_per_sm: u32,
    /// Core clock in MHz.
    pub clock_mhz: u32,
    /// Memory clock in MHz.
    pub mem_clock_mhz: u32,
    /// Memory bus width in bits.
    pub bus_width_bits: u32,
    /// Compute capability / gfx arch string (e.g. "9.0", "gfx90a").
    pub compute_capability: String,
}

/// AMD-only: CU enablement and sL1d sharing layout.
///
/// Physical CU ids range over the full die; only `physical_ids` are active
/// (e.g. MI210 exposes 104 of 128). The scalar L1 data cache is shared by
/// consecutive groups of `sl1d_group_size` *physical* CUs, so an active CU
/// whose group partners are disabled has the sL1d to itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CuLayout {
    /// Physical ids of the active CUs, indexed by logical CU id.
    pub physical_ids: Vec<u32>,
    /// Number of consecutive physical CUs sharing one sL1d.
    pub sl1d_group_size: u32,
    /// Total number of physical CUs on the die (active + disabled).
    pub physical_total: u32,
}

impl CuLayout {
    /// sL1d group id of a *logical* CU.
    pub fn sl1d_group_of(&self, logical_cu: usize) -> u32 {
        self.physical_ids[logical_cu] / self.sl1d_group_size
    }

    /// Logical CU ids sharing the sL1d with `logical_cu` (excluding itself).
    pub fn sl1d_partners(&self, logical_cu: usize) -> Vec<usize> {
        let group = self.sl1d_group_of(logical_cu);
        self.physical_ids
            .iter()
            .enumerate()
            .filter(|&(i, _)| i != logical_cu && self.sl1d_group_of(i) == group)
            .map(|(i, _)| i)
            .collect()
    }
}

/// Whether the NVIDIA L1/Texture/Readonly logical spaces map onto one
/// unified physical cache (true since Pascal) and whether Constant L1 is
/// part of that unified cache (never, on the GPUs in scope).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharingLayout {
    /// L1 / Texture / Readonly are one physical cache.
    pub l1_tex_ro_unified: bool,
}

/// Full ground-truth description of a simulated GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceConfig {
    /// Marketing name, e.g. "H100 80GB HBM3".
    pub name: String,
    /// Vendor.
    pub vendor: Vendor,
    /// Microarchitecture.
    pub microarch: Microarch,
    /// Compute resources.
    pub chip: ChipSpec,
    /// Per-cache-kind geometry. Which kinds are present depends on vendor:
    /// NVIDIA uses `L1/Texture/Readonly/ConstL1/ConstL15/L2`; AMD uses
    /// `VL1/SL1D/L2` and optionally `L3`.
    pub caches: Vec<(CacheKind, CacheSpec)>,
    /// Scratchpad (Shared Memory / LDS).
    pub scratchpad: ScratchpadSpec,
    /// Device memory.
    pub dram: DramSpec,
    /// NVIDIA physical-sharing layout (ignored on AMD).
    pub sharing: SharingLayout,
    /// AMD CU layout (None on NVIDIA).
    pub cu_layout: Option<CuLayout>,
    /// Address-translation ground truth (page size, L1/L2 TLB geometry
    /// and walk penalties). `#[serde(default)]` so configurations
    /// serialized before the TLB layer existed still deserialize (to "no
    /// TLB modeled").
    #[serde(default)]
    pub tlb: Option<TlbSpec>,
    /// Per-level replacement-policy overrides; levels not listed run
    /// exact LRU. `#[serde(default)]` (and skipped when empty) so
    /// configurations serialized before the policy zoo existed still
    /// round-trip byte-identically.
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub policies: Vec<(CacheKind, ReplacementPolicy)>,
    /// Hardware/driver quirks that make specific benchmarks fail, modeled
    /// after the three documented non-results in the paper's Section V.
    pub quirks: Quirks,
    /// Cycles a `clock()` read costs (included, constant, in measured
    /// latencies — paper footnote 7).
    pub clock_overhead_cycles: u32,
}

impl DeviceConfig {
    /// Looks up the spec of a cache kind, if the device has it.
    pub fn cache(&self, kind: CacheKind) -> Option<&CacheSpec> {
        self.caches.iter().find(|(k, _)| *k == kind).map(|(_, s)| s)
    }

    /// Total L2 size across segments, as the vendor API reports it.
    pub fn l2_total_size(&self) -> Option<u64> {
        self.cache(CacheKind::L2)
            .map(|s| s.size * s.segments as u64)
    }

    /// Number of XCDs (AMD accelerator complex dies), derived from the L2
    /// segment count on AMD devices.
    pub fn xcd_count(&self) -> Option<u32> {
        if self.vendor == Vendor::Amd {
            self.cache(CacheKind::L2).map(|s| s.segments)
        } else {
            None
        }
    }

    /// The replacement policy a cache level runs (exact LRU unless
    /// overridden in [`Self::policies`]).
    pub fn policy_of(&self, kind: CacheKind) -> ReplacementPolicy {
        self.policies
            .iter()
            .find(|(k, _)| *k == kind)
            .map(|(_, p)| *p)
            .unwrap_or_default()
    }

    /// The L2 segment index an SM/CU is wired to — a pure function of the
    /// configuration (paper Sec. IV-F1 / VI-C observation 2): NVIDIA
    /// stripes SMs across segments, on AMD the segment is the CU's XCD.
    /// Shared by the memory subsystem's wiring and the contention
    /// validator, which must agree on the mapping by construction.
    pub fn l2_segment_of(&self, sm: usize) -> usize {
        let segments = self
            .cache(CacheKind::L2)
            .map(|s| s.segments.max(1))
            .unwrap_or(1) as usize;
        match (self.vendor, self.cu_layout.as_ref()) {
            (Vendor::Amd, Some(layout)) => {
                let per_xcd = (layout.physical_total as usize).div_ceil(segments);
                (layout.physical_ids[sm] as usize / per_xcd).min(segments - 1)
            }
            _ => sm % segments,
        }
    }
}

/// The maximum size of a constant-memory array on NVIDIA; benchmarks on the
/// constant path cannot test beyond this (paper Sec. III-C / footnote 10).
pub const CONSTANT_ARRAY_LIMIT: u64 = 64 * 1024;

/// Convenience: `n` KiB in bytes.
pub const fn kib(n: u64) -> u64 {
    n * 1024
}

/// Convenience: `n` MiB in bytes.
pub const fn mib(n: u64) -> u64 {
    n * 1024 * 1024
}

/// Convenience: `n` GiB in bytes.
pub const fn gib(n: u64) -> u64 {
    n * 1024 * 1024 * 1024
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_spec_derived_quantities() {
        let spec = CacheSpec {
            size: kib(16),
            line_size: 64,
            fetch_granularity: 32,
            load_latency: 100,
            amount_per_sm: Some(1),
            segments: 1,
            read_bw_gibs: None,
            write_bw_gibs: None,
        };
        assert_eq!(spec.lines(), 256);
        assert_eq!(spec.sectors_per_line(), 2);
    }

    #[test]
    fn cu_layout_partner_resolution() {
        // 6 physical CUs in groups of 2; physical id 3 is disabled.
        let layout = CuLayout {
            physical_ids: vec![0, 1, 2, 4, 5],
            sl1d_group_size: 2,
            physical_total: 6,
        };
        // logical 0 (phys 0) and logical 1 (phys 1) share group 0.
        assert_eq!(layout.sl1d_partners(0), vec![1]);
        // logical 2 (phys 2) lost its partner (phys 3 disabled).
        assert!(layout.sl1d_partners(2).is_empty());
        // logical 3 (phys 4) and logical 4 (phys 5) share group 2.
        assert_eq!(layout.sl1d_partners(3), vec![4]);
    }

    #[test]
    fn microarch_vendor_mapping() {
        assert_eq!(Microarch::Hopper.vendor(), Vendor::Nvidia);
        assert_eq!(Microarch::Cdna2.vendor(), Vendor::Amd);
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(kib(2), 2048);
        assert_eq!(mib(1), 1 << 20);
        assert_eq!(gib(1), 1 << 30);
    }
}
