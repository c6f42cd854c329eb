//! The fine-grained pointer-chase engine (paper Sec. IV-A).
//!
//! P-chase underpins almost every MT4G benchmark: a chain of *dependent*
//! loads (each load's result is the next load's address) guarantees
//! sequential execution, and wrapping each load in two clock reads records
//! its individual latency. We adopt the paper's efficiency measure of
//! storing only the first `N` latencies — the access pattern repeats over
//! the array, so the head captures the distribution.
//!
//! The engine builds the vendor-appropriate kernel (PTX-like with a
//! shared-memory result store on NVIDIA, AMDGCN-like with `s_waitcnt`
//! fences on AMD — Listings 1/2) via [`mt4g_sim::isa::KernelBuilder`] and
//! calibrates away the constant clock/store overhead so reported latencies
//! are comparable across vendors.

use mt4g_sim::device::{LoadFlags, MemorySpace, Vendor};
use mt4g_sim::gpu::{AllocError, Gpu, PchaseBatch};
use mt4g_sim::isa::{Instr, KernelBuilder};

/// Configuration of one p-chase run.
#[derive(Debug, Clone, Copy)]
pub struct PchaseConfig {
    /// Logical memory space the loads target.
    pub space: MemorySpace,
    /// Cache-policy flags (`.ca`, `.cg`, volatile).
    pub flags: LoadFlags,
    /// Array size in bytes.
    pub array_bytes: u64,
    /// Stride between consecutive chase elements, in bytes (≥ 4).
    pub stride_bytes: u64,
    /// How many latencies to record ("first N results").
    pub record_n: usize,
    /// Whether to run the untimed warm-up pass first. The
    /// fetch-granularity benchmark turns this off to observe cold misses.
    pub warmup: bool,
    /// SM/CU to run on.
    pub sm: usize,
    /// Core within the SM/CU.
    pub core: usize,
}

impl PchaseConfig {
    /// A sequential (1 block, 1 thread on SM 0/core 0) run with warm-up —
    /// the default configuration of the paper's benchmarks.
    pub fn sequential(space: MemorySpace, flags: LoadFlags, array_bytes: u64, stride: u64) -> Self {
        PchaseConfig {
            space,
            flags,
            array_bytes,
            stride_bytes: stride,
            record_n: 256,
            warmup: true,
            sm: 0,
            core: 0,
        }
    }
}

/// Raw latencies of one p-chase run, already overhead-corrected.
#[derive(Debug, Clone)]
pub struct PchaseRun {
    /// Per-load latencies in cycles (first `N`).
    pub latencies: Vec<f64>,
    /// Number of elements in the chase array.
    pub elements: u64,
}

/// Measures the constant measurement overhead (clock reads plus the
/// result store / fences between them) of a timed p-chase step, so it can
/// be subtracted from raw measurements. The paper notes this overhead is
/// constant and harmless to the K-S analysis; subtracting it additionally
/// makes reported latencies directly comparable to reference tables.
pub fn calibrate_overhead(gpu: &mut Gpu) -> f64 {
    let vendor = gpu.vendor();
    let mut b = KernelBuilder::new(vendor);
    let start = b.reg();
    let end = b.reg();
    let lat = b.reg();
    let counter = b.reg();
    b.mov_imm(counter, 64);
    let top = b.label();
    let mut kernel_instrs: Vec<Instr> = Vec::new();
    // Mirror the timed step *without* the load.
    if vendor == Vendor::Amd {
        kernel_instrs.push(Instr::Fence);
        kernel_instrs.push(Instr::Fence);
    }
    kernel_instrs.push(Instr::ReadClock(start));
    match vendor {
        Vendor::Nvidia => kernel_instrs.push(Instr::StoreShared { src: start }),
        Vendor::Amd => {
            kernel_instrs.push(Instr::Fence);
            kernel_instrs.push(Instr::Fence);
        }
    }
    kernel_instrs.push(Instr::ReadClock(end));
    kernel_instrs.push(Instr::Sub {
        dst: lat,
        a: end,
        b: start,
    });
    kernel_instrs.push(Instr::Record { src: lat });
    let mut kernel = b.build();
    kernel.instrs.extend(kernel_instrs);
    kernel.instrs.push(Instr::BranchDecNz {
        counter,
        target: top,
    });
    let run = gpu.launch(0, 0, &kernel, 64);
    let sum: u64 = run.records.iter().map(|&r| r as u64).sum();
    sum as f64 / run.records.len().max(1) as f64
}

/// Runs one p-chase benchmark and returns overhead-corrected latencies.
///
/// Allocates the array in the target space (so e.g. constant arrays are
/// subject to the 64 KiB limit) with one stored word per element
/// ([`Gpu::alloc_strided`] — the chase reads nothing else), initialises
/// the chase ring, launches the vendor-specific kernel and subtracts the
/// calibrated overhead.
pub fn run_pchase(gpu: &mut Gpu, cfg: &PchaseConfig) -> Result<PchaseRun, AllocError> {
    let overhead = calibrate_overhead(gpu);
    run_pchase_with_overhead(gpu, cfg, overhead)
}

/// Like [`run_pchase`] but with a pre-calibrated overhead — benchmarks that
/// launch hundreds of runs calibrate once.
pub fn run_pchase_with_overhead(
    gpu: &mut Gpu,
    cfg: &PchaseConfig,
    overhead: f64,
) -> Result<PchaseRun, AllocError> {
    assert!(cfg.stride_bytes >= 4 && cfg.stride_bytes.is_multiple_of(4));
    let buf = gpu.alloc_strided(cfg.space, cfg.array_bytes, cfg.stride_bytes)?;
    let elements = gpu.init_pchase(buf, cfg.array_bytes, cfg.stride_bytes);
    // The chase is a ring, so a warmed run can record a full N latencies
    // even for arrays shorter than N elements — keeping every row of a
    // size scan the same length, which the Eq. (2) reduction needs to be
    // comparable across sizes. Cold (no-warm-up) runs must not wrap: the
    // second pass would observe its own fills.
    let timed_steps = if cfg.warmup {
        (cfg.record_n as u64).max(1)
    } else {
        (cfg.record_n as u64).min(elements).max(1)
    };
    // The batched executor is bit-identical to interpreting
    // `KernelBuilder::pchase_kernel` (pinned by tests in `mt4g_sim::gpu`)
    // but skips the per-instruction dispatch — this is the simulation's
    // hottest loop.
    let run = gpu.pchase_batch(
        cfg.sm,
        cfg.core,
        &PchaseBatch {
            base: gpu.buffer_base(buf),
            elem_bytes: cfg.stride_bytes,
            n_elems: elements,
            timed_steps,
            space: cfg.space,
            flags: cfg.flags,
            warmup: cfg.warmup,
        },
        cfg.record_n,
    );
    let latencies = run
        .records
        .iter()
        .map(|&r| (r as f64 - overhead).max(1.0))
        .collect();
    Ok(PchaseRun {
        latencies,
        elements,
    })
}

/// A handle to a prepared chase buffer for multi-actor benchmarks (amount /
/// physical sharing), where warm-up and observation passes are issued by
/// different cores, CUs or memory spaces.
#[derive(Debug, Clone, Copy)]
pub struct ChaseBuffer {
    /// Device base address.
    pub base: u64,
    /// Element count.
    pub elements: u64,
    /// Element stride in bytes.
    pub stride_bytes: u64,
}

/// Allocates and initialises a chase buffer in `space`.
pub fn prepare_chase(
    gpu: &mut Gpu,
    space: MemorySpace,
    array_bytes: u64,
    stride_bytes: u64,
) -> Result<ChaseBuffer, AllocError> {
    let buf = gpu.alloc_strided(space, array_bytes, stride_bytes)?;
    let elements = gpu.init_pchase(buf, array_bytes, stride_bytes);
    Ok(ChaseBuffer {
        base: gpu.buffer_base(buf),
        elements,
        stride_bytes,
    })
}

/// Untimed warm-up pass over a prepared buffer, issued from (`sm`, `core`).
pub fn warm(
    gpu: &mut Gpu,
    buf: ChaseBuffer,
    space: MemorySpace,
    flags: LoadFlags,
    sm: usize,
    core: usize,
) {
    gpu.pchase_warm_batch(
        sm,
        core,
        &PchaseBatch {
            base: buf.base,
            elem_bytes: buf.stride_bytes,
            n_elems: buf.elements,
            timed_steps: 0,
            space,
            flags,
            warmup: true,
        },
    );
}

/// Timed observation pass over a prepared buffer (no warm-up), issued from
/// (`sm`, `core`). Returns overhead-corrected latencies.
#[allow(clippy::too_many_arguments)]
pub fn observe(
    gpu: &mut Gpu,
    buf: ChaseBuffer,
    space: MemorySpace,
    flags: LoadFlags,
    sm: usize,
    core: usize,
    record_n: usize,
    overhead: f64,
) -> Vec<f64> {
    let steps = (record_n as u64).min(buf.elements).max(1);
    let run = gpu.pchase_timed_batch(
        sm,
        core,
        &PchaseBatch {
            base: buf.base,
            elem_bytes: buf.stride_bytes,
            n_elems: buf.elements,
            timed_steps: steps,
            space,
            flags,
            warmup: false,
        },
        record_n,
    );
    run.records
        .iter()
        .map(|&r| (r as f64 - overhead).max(1.0))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt4g_sim::device::CacheKind;
    use mt4g_sim::presets;
    use mt4g_sim::NoiseModel;

    #[test]
    fn calibration_matches_planted_overhead_without_noise() {
        let mut gpu = presets::h100_80();
        gpu.set_noise(NoiseModel::NONE);
        let overhead = calibrate_overhead(&mut gpu);
        // clock overhead + 2-cycle shared store.
        let expected = gpu.config.clock_overhead_cycles as f64 + 2.0;
        assert!((overhead - expected).abs() < 1e-9, "got {overhead}");
    }

    #[test]
    fn corrected_latency_equals_planted_l1_latency() {
        let mut gpu = presets::h100_80();
        gpu.set_noise(NoiseModel::NONE);
        let l1 = *gpu.config.cache(CacheKind::L1).unwrap();
        let cfg = PchaseConfig::sequential(
            MemorySpace::Global,
            LoadFlags::CACHE_ALL,
            8192,
            l1.fetch_granularity as u64,
        );
        let run = run_pchase(&mut gpu, &cfg).unwrap();
        for &lat in &run.latencies {
            assert_eq!(lat, l1.load_latency as f64);
        }
    }

    #[test]
    fn amd_corrected_latency_equals_planted_vl1_latency() {
        let mut gpu = presets::mi210();
        gpu.set_noise(NoiseModel::NONE);
        let vl1 = *gpu.config.cache(CacheKind::VL1).unwrap();
        let cfg = PchaseConfig::sequential(
            MemorySpace::Vector,
            LoadFlags::CACHE_ALL,
            8192,
            vl1.fetch_granularity as u64,
        );
        let run = run_pchase(&mut gpu, &cfg).unwrap();
        for &lat in &run.latencies {
            assert_eq!(lat, vl1.load_latency as f64);
        }
    }

    #[test]
    fn constant_space_respects_alloc_limit() {
        let mut gpu = presets::h100_80();
        let cfg =
            PchaseConfig::sequential(MemorySpace::Constant, LoadFlags::CACHE_ALL, 128 * 1024, 64);
        assert!(run_pchase(&mut gpu, &cfg).is_err());
    }

    #[test]
    fn record_cap_and_elements_are_respected() {
        let mut gpu = presets::h100_80();
        gpu.set_noise(NoiseModel::NONE);
        let cfg = PchaseConfig {
            record_n: 16,
            ..PchaseConfig::sequential(MemorySpace::Global, LoadFlags::CACHE_ALL, 4096, 32)
        };
        let run = run_pchase(&mut gpu, &cfg).unwrap();
        assert_eq!(run.elements, 128);
        assert_eq!(run.latencies.len(), 16);
    }

    #[test]
    fn cold_run_shows_cold_misses() {
        let mut gpu = presets::h100_80();
        gpu.set_noise(NoiseModel::NONE);
        let l1 = *gpu.config.cache(CacheKind::L1).unwrap();
        let cfg = PchaseConfig {
            warmup: false,
            stride_bytes: l1.fetch_granularity as u64,
            ..PchaseConfig::sequential(
                MemorySpace::Global,
                LoadFlags::CACHE_ALL,
                8192,
                l1.fetch_granularity as u64,
            )
        };
        gpu.flush_caches();
        let run = run_pchase(&mut gpu, &cfg).unwrap();
        // Stride == fetch granularity on a cold cache: every load misses.
        assert!(run
            .latencies
            .iter()
            .all(|&lat| lat > l1.load_latency as f64 * 1.5));
    }
}
