//! Cache-line-size benchmark (paper Sec. IV-E).
//!
//! Premise: once the p-chase array exceeds the cache size, it evicts itself
//! — *provided the stride touches every cache line*. Increasing the stride
//! past the line size leaves untouched lines, so fewer distinct lines are
//! chased than fit in the cache and the misses disappear "as if the cache
//! was larger".
//!
//! The benchmark scans strides upward from the fetch granularity in
//! half-granularity steps, measuring a weighted miss score over array
//! sizes just above the (already known) cache size. A pivot stride (the
//! granularity itself — surely within a line) anchors the full-miss
//! regime; the first stride whose score falls toward the hit regime is
//! just past the line size, and a final power-of-two snap (the paper's
//! explicit assumption) yields the result.

use mt4g_sim::device::{LoadFlags, MemorySpace};
use mt4g_sim::gpu::Gpu;

use crate::classify::HitMissClassifier;
use crate::pchase::{calibrate_overhead, run_pchase_with_overhead, PchaseConfig};

/// Configuration of the line-size benchmark.
#[derive(Debug, Clone, Copy)]
pub struct LineSizeConfig {
    /// Memory space of the loads.
    pub space: MemorySpace,
    /// Cache-policy flags selecting the level.
    pub flags: LoadFlags,
    /// The cache's capacity, from the size benchmark.
    pub cache_size: u64,
    /// The cache's fetch granularity, from its benchmark.
    pub fetch_granularity: u64,
    /// Target-level hit latency, for miss classification.
    pub target_hit_latency: f64,
    /// Number of array sizes probed above the capacity.
    pub size_points: usize,
    /// Upper stride bound as a multiple of the fetch granularity.
    pub max_stride_factor: u64,
}

impl LineSizeConfig {
    /// Defaults: 8 size points in `(C, 1.5C]`, strides up to 32× the fetch
    /// granularity.
    pub fn new(
        space: MemorySpace,
        flags: LoadFlags,
        cache_size: u64,
        fetch_granularity: u64,
        target_hit_latency: f64,
    ) -> Self {
        LineSizeConfig {
            space,
            flags,
            cache_size,
            fetch_granularity,
            target_hit_latency,
            size_points: 8,
            max_stride_factor: 32,
        }
    }
}

/// Weighted miss score of one stride: the miss fraction across the probe
/// sizes, weighted so larger arrays count more (the paper's heuristic —
/// they are the ones where aliasing effects are weakest).
fn miss_score(
    gpu: &mut Gpu,
    cfg: &LineSizeConfig,
    stride: u64,
    classifier: &HitMissClassifier,
    overhead: f64,
) -> f64 {
    let mut score = 0.0;
    let mut total_weight = 0.0;
    for i in 0..cfg.size_points {
        // Sizes C * (1 + (i+1)/(2*points)): spanning (C, 1.5C].
        let frac = (i + 1) as f64 / (2.0 * cfg.size_points as f64);
        let array = ((cfg.cache_size as f64) * (1.0 + frac)) as u64;
        let array = array / stride * stride; // whole elements
        let pc = PchaseConfig {
            space: cfg.space,
            flags: cfg.flags,
            array_bytes: array.max(stride * 8),
            stride_bytes: stride,
            record_n: 128,
            warmup: true,
            sm: 0,
            core: 0,
        };
        let weight = (i + 1) as f64;
        total_weight += weight;
        if let Ok(run) = run_pchase_with_overhead(gpu, &pc, overhead) {
            let miss_fraction = 1.0 - classifier.hit_fraction(&run.latencies);
            score += weight * miss_fraction;
        }
    }
    if total_weight > 0.0 {
        score / total_weight
    } else {
        0.0
    }
}

/// Measures the cache line size; returns `(bytes, confidence)`.
pub fn run(gpu: &mut Gpu, cfg: &LineSizeConfig) -> Option<(u32, f64)> {
    let fg = cfg.fetch_granularity.max(8);
    let half = (fg / 2).max(4);
    let overhead = calibrate_overhead(gpu);
    let classifier = HitMissClassifier::for_hit_latency(cfg.target_hit_latency);

    // Pivot: stride = fetch granularity, surely at or below the line size.
    let pivot = miss_score(gpu, cfg, fg, &classifier, overhead);
    if pivot < 0.5 {
        // The capacity estimate must be wrong — above it, a granularity
        // stride has to thrash.
        return None;
    }

    let mut stride = fg + half;
    let mut last_full_miss = fg;
    while stride <= fg * cfg.max_stride_factor {
        let score = miss_score(gpu, cfg, stride, &classifier, overhead);
        if score < pivot * 0.45 {
            // First stride decisively in the hit regime: the line size has
            // been passed. Snap to the power of two at or below the last
            // full-miss stride (paper: "we also assume that the cache line
            // size is a power of two").
            let line = prev_power_of_two(stride.max(last_full_miss));
            let confidence = (pivot - score).clamp(0.0, 1.0);
            return Some((line as u32, confidence));
        }
        if score > pivot * 0.9 {
            last_full_miss = stride;
        }
        stride += half;
    }
    None
}

fn prev_power_of_two(v: u64) -> u64 {
    let mut p = 1u64;
    while p * 2 <= v {
        p *= 2;
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt4g_sim::device::CacheKind;
    use mt4g_sim::gpu::GpuStats;
    use mt4g_sim::presets;

    fn line_of(
        gpu: &mut Gpu,
        kind: CacheKind,
        space: MemorySpace,
        flags: LoadFlags,
    ) -> Option<(u32, f64)> {
        let spec = *gpu.config.cache(kind).unwrap();
        let cfg = LineSizeConfig::new(
            space,
            flags,
            spec.size,
            spec.fetch_granularity as u64,
            spec.load_latency as f64,
        );
        run(gpu, &cfg)
    }

    #[test]
    fn h100_l1_line_is_128b() {
        let mut gpu = presets::h100_80();
        let (line, conf) = line_of(
            &mut gpu,
            CacheKind::L1,
            MemorySpace::Global,
            LoadFlags::CACHE_ALL,
        )
        .unwrap();
        assert_eq!(line, 128);
        assert!(conf > 0.3);
    }

    /// The line-size sweep over the H100-80 L2 (strides in half-sector
    /// steps over `.cg` rings just past the capacity) takes every warm-up
    /// lap in closed form: no load is walked on the host, and the device
    /// counters equal those of walking every load.
    #[test]
    fn h100_l2_line_sweep_walks_no_loads() {
        let mut gpu = presets::h100_80();
        let (line, _) = line_of(
            &mut gpu,
            CacheKind::L2,
            MemorySpace::Global,
            LoadFlags::CACHE_GLOBAL,
        )
        .unwrap();
        assert_eq!(line, 128);
        assert_eq!(gpu.walked_loads(), 0);
        assert_eq!(
            gpu.stats(),
            GpuStats {
                kernels_launched: 81,
                loads_executed: 33_931_236,
                total_cycles: 28_705_028_397,
            }
        );
    }

    #[test]
    fn h100_const_l1_line_is_64b() {
        let mut gpu = presets::h100_80();
        let (line, _) = line_of(
            &mut gpu,
            CacheKind::ConstL1,
            MemorySpace::Constant,
            LoadFlags::CACHE_ALL,
        )
        .unwrap();
        assert_eq!(line, 64);
    }

    #[test]
    fn t1000_l2_line_is_64b() {
        let mut gpu = presets::t1000();
        let (line, _) = line_of(
            &mut gpu,
            CacheKind::L2,
            MemorySpace::Global,
            LoadFlags::CACHE_GLOBAL,
        )
        .unwrap();
        assert_eq!(line, 64);
    }

    #[test]
    fn mi210_vl1_line_is_64b() {
        let mut gpu = presets::mi210();
        let (line, _) = line_of(
            &mut gpu,
            CacheKind::VL1,
            MemorySpace::Vector,
            LoadFlags::CACHE_ALL,
        )
        .unwrap();
        assert_eq!(line, 64);
    }

    #[test]
    fn mi210_sl1d_line_is_64b() {
        let mut gpu = presets::mi210();
        let (line, _) = line_of(
            &mut gpu,
            CacheKind::SL1D,
            MemorySpace::Scalar,
            LoadFlags::CACHE_ALL,
        )
        .unwrap();
        assert_eq!(line, 64);
    }

    #[test]
    fn underestimated_capacity_is_rejected() {
        // If the capacity passed in is far too small, the probe arrays all
        // fit, the pivot stride produces hits instead of the expected
        // thrashing, and the benchmark refuses to report a line size.
        let mut gpu = presets::h100_80();
        let cfg = LineSizeConfig::new(
            MemorySpace::Global,
            LoadFlags::CACHE_ALL,
            16 * 1024, // L1 is actually 238 KiB
            32,
            38.0,
        );
        assert!(run(&mut gpu, &cfg).is_none());
    }
}
