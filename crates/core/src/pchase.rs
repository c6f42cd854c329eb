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
//!
//! Every chase starts from a fresh device (buffers freed, caches flushed)
//! and comes from one of two functions: [`run_pchase_with_overhead`] runs
//! single chases, and [`prime_probe`] the prime/probe sequences of the
//! amount, sharing and contention benchmarks.

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
/// Starts from a fresh device (every buffer freed, every cache flushed),
/// allocates the array in the target space (so e.g. constant arrays are
/// subject to the 64 KiB limit), makes it a chase ring
/// ([`Gpu::init_pchase`] records the ring as a value, in O(1)), runs the
/// vendor-specific chase and subtracts the calibrated overhead.
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
    let actor = Actor {
        sm: cfg.sm,
        core: cfg.core,
        ..Actor::new(cfg.space, cfg.flags, cfg.array_bytes, cfg.stride_bytes)
    };
    gpu.free_all();
    gpu.flush_caches();
    let (base, elements) = actor.ring(gpu)?;
    // The chase is a ring, so a warmed run can record a full N latencies
    // even for arrays shorter than N elements — keeping every row of a
    // size scan the same length, which the Eq. (2) reduction needs to be
    // comparable across sizes. Cold (no-warm-up) runs must not wrap: the
    // second pass would observe its own fills.
    let (warm_steps, timed_steps) = if cfg.warmup {
        (elements, (cfg.record_n as u64).max(1))
    } else {
        (0, (cfg.record_n as u64).min(elements).max(1))
    };
    let latencies = actor.chase(gpu, base, warm_steps, timed_steps, cfg.record_n, overhead);
    Ok(PchaseRun {
        latencies,
        elements,
    })
}

/// One party of a prime/probe experiment: the ring it chases (space,
/// flags, size and stride) and the SM/CU and core it chases from.
#[derive(Debug, Clone, Copy)]
pub struct Actor {
    /// Logical memory space the loads target.
    pub space: MemorySpace,
    /// Cache-policy flags (`.ca`, `.cg`, volatile).
    pub flags: LoadFlags,
    /// Array size in bytes.
    pub array_bytes: u64,
    /// Stride between consecutive chase elements, in bytes (≥ 4).
    pub stride_bytes: u64,
    /// SM/CU to run on.
    pub sm: usize,
    /// Core within the SM/CU.
    pub core: usize,
}

impl Actor {
    /// An actor chasing `array_bytes` at `stride` from SM 0, core 0.
    pub fn new(space: MemorySpace, flags: LoadFlags, array_bytes: u64, stride: u64) -> Self {
        Actor {
            space,
            flags,
            array_bytes,
            stride_bytes: stride,
            sm: 0,
            core: 0,
        }
    }

    /// Allocates the actor's array as a chase ring ([`Gpu::init_pchase`]
    /// records it as a value, in O(1)): its base address and element count.
    fn ring(&self, gpu: &mut Gpu) -> Result<(u64, u64), AllocError> {
        let buf = gpu.alloc(self.space, self.array_bytes)?;
        let elements = gpu.init_pchase(buf, self.array_bytes, self.stride_bytes);
        Ok((gpu.buffer_base(buf), elements))
    }

    /// One chase kernel over the ring at `base`: `warm_steps` untimed
    /// loads, then `timed_steps` timed ones from element 0. Returns the
    /// first `record_n` latencies less `overhead`. The batched executor is
    /// bit-identical to interpreting `KernelBuilder::pchase_kernel`
    /// (pinned by tests in `mt4g_sim::gpu`) without its per-instruction
    /// dispatch.
    fn chase(
        &self,
        gpu: &mut Gpu,
        base: u64,
        warm_steps: u64,
        timed_steps: u64,
        record_n: usize,
        overhead: f64,
    ) -> Vec<f64> {
        let batch = PchaseBatch {
            base,
            elem_bytes: self.stride_bytes,
            warm_steps,
            timed_steps,
            space: self.space,
            flags: self.flags,
        };
        let run = gpu.pchase_batch(self.sm, self.core, &batch, record_n);
        run.records
            .iter()
            .map(|&r| (r as f64 - overhead).max(1.0))
            .collect()
    }
}

/// The eviction experiment of the amount, sharing and contention
/// benchmarks (paper Sec. IV-F to IV-H), from a fresh device: `a` warms
/// its ring, `b` (if given) warms another, then `a` chases its ring again
/// for `min(record_n, a's elements)` timed steps. Returns those
/// overhead-corrected latencies: hits mean `b` left `a`'s lines alone,
/// misses that it evicted them.
///
/// This is the one producer of observation passes, so the lap log behind
/// [`Gpu::pchase_batch`] sees a single prime/probe shape: laps over
/// disjoint rings from a flush, then one pass over the first ring from
/// its own SM and route.
pub fn prime_probe(
    gpu: &mut Gpu,
    a: &Actor,
    b: Option<&Actor>,
    record_n: usize,
    overhead: f64,
) -> Result<Vec<f64>, AllocError> {
    gpu.free_all();
    gpu.flush_caches();
    let (base_a, elements_a) = a.ring(gpu)?;
    let ring_b = b.map(|b| b.ring(gpu)).transpose()?;
    a.chase(gpu, base_a, elements_a, 0, 0, overhead);
    if let (Some(b), Some((base_b, elements_b))) = (b, ring_b) {
        b.chase(gpu, base_b, elements_b, 0, 0, overhead);
    }
    let steps = (record_n as u64).min(elements_a).max(1);
    Ok(a.chase(gpu, base_a, 0, steps, record_n, overhead))
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
        let run = run_pchase(&mut gpu, &cfg).unwrap();
        // Stride == fetch granularity on a cold cache: every load misses.
        assert!(run
            .latencies
            .iter()
            .all(|&lat| lat > l1.load_latency as f64 * 1.5));
    }

    /// A noiseless H100-80 and its A: an L1-capacity global ring at the
    /// L1's fetch granularity, chased from SM 0, core 0.
    fn h100_l1_actor() -> (Gpu, Actor) {
        let mut gpu = presets::h100_80();
        gpu.set_noise(NoiseModel::NONE);
        let l1 = *gpu.config.cache(CacheKind::L1).unwrap();
        let stride = l1.fetch_granularity as u64;
        let a = Actor::new(MemorySpace::Global, LoadFlags::CACHE_ALL, l1.size, stride);
        (gpu, a)
    }

    /// B on another core of A's SM shares A's L1 instance and evicts A's
    /// ring, so A's second chase reads the L2; B on another SM, or no B,
    /// leaves A in its L1. Each sequence runs through the lap log whole.
    #[test]
    fn prime_probe_evicts_only_through_a_shared_l1() {
        let (mut gpu, a) = h100_l1_actor();
        let l1 = gpu.config.cache(CacheKind::L1).unwrap().load_latency as f64;
        let l2 = gpu.config.cache(CacheKind::L2).unwrap().load_latency as f64;
        assert_eq!((l1, l2), (38.0, 220.0));
        let overhead = calibrate_overhead(&mut gpu);
        let cases = [
            (Some(Actor { core: 1, ..a }), l2),
            (Some(Actor { sm: 1, ..a }), l1),
            (None, l1),
        ];
        for (b, expected) in cases {
            let lats = prime_probe(&mut gpu, &a, b.as_ref(), 256, overhead).unwrap();
            assert_eq!(lats.len(), 256, "B {b:?}");
            assert!(lats.iter().all(|&lat| lat == expected), "B {b:?}: {lats:?}");
            assert_eq!(gpu.walked_loads(), 0, "B {b:?} walked loads");
        }
    }

    #[test]
    fn prime_probe_respects_the_constant_alloc_limit() {
        let (mut gpu, _) = h100_l1_actor();
        let a = Actor::new(MemorySpace::Constant, LoadFlags::CACHE_ALL, 128 * 1024, 64);
        assert!(prime_probe(&mut gpu, &a, None, 256, 0.0).is_err());
    }
}
