//! Fetch-granularity benchmark (paper Sec. IV-D).
//!
//! Runs *cold* (no warm-up) p-chases with strides growing from 4 B in 4 B
//! steps. While the stride is below the fetch granularity, some loads land
//! in sectors fetched by a previous load — hits and misses mix. Once the
//! stride reaches the granularity, every load triggers its own fetch
//! transaction — only misses remain, and the granularity is found.

use mt4g_sim::device::{LoadFlags, MemorySpace};
use mt4g_sim::gpu::Gpu;

use crate::classify::HitMissClassifier;
use crate::pchase::{calibrate_overhead, run_pchase_with_overhead, PchaseConfig};

/// Configuration of the fetch-granularity benchmark.
#[derive(Debug, Clone, Copy)]
pub struct FetchGranularityConfig {
    /// Memory space of the loads.
    pub space: MemorySpace,
    /// Cache-policy flags selecting the level.
    pub flags: LoadFlags,
    /// Hit latency of the *target* level (from the latency benchmark);
    /// loads at or below it count as target-level hits.
    pub target_hit_latency: f64,
    /// Number of accesses per stride run.
    pub accesses: u64,
    /// Largest stride to test before giving up.
    pub max_stride: u64,
}

impl FetchGranularityConfig {
    /// Defaults: 512 accesses (a stride of `granularity - 4` still shows
    /// `4/granularity` of hits, so the sample must resolve small hit
    /// fractions), strides up to 1 KiB.
    pub fn new(space: MemorySpace, flags: LoadFlags, target_hit_latency: f64) -> Self {
        FetchGranularityConfig {
            space,
            flags,
            target_hit_latency,
            accesses: 512,
            max_stride: 1024,
        }
    }
}

/// Measures the fetch granularity; returns `(bytes, confidence)`.
///
/// The paper assumes granularities are multiples of 4 B; strides advance
/// in 4 B steps accordingly.
///
/// # Hit classification: the target level's own latency stratum
///
/// The zero-hit rule below must count *target-level* hits only, so the
/// classifier is the strict one
/// ([`HitMissClassifier::for_target_stratum`]): a load is a hit iff its
/// latency lies within a noise-sized stratum of the reference hit latency
/// measured by the latency benchmark. The generous default margin
/// (`0.5 × hit latency`) is wrong here — a *deeper* cache whose fetch unit
/// is larger than the target's can cover every other sub-granularity
/// access and answer near the margin's edge, producing phantom "hits" at
/// the true granularity and doubling the result. That was the historical
/// MI300X L2 mismatch: at the planted 64 B stride, odd sectors missed in
/// the L2 (320 cyc) but hit in the 128 B-granularity L3 at 480 cyc —
/// exactly `320 + 0.5 × 320` — so the scan only went hit-free at 128 B.
/// Regression test: `mi300x_l2_fetch_granularity_is_64b`. Faster shallower
/// levels on the path (e.g. Constant L1 in front of Constant L1.5) still
/// count as hits: the stratum is one-sided, `lat <= target + margin`.
pub fn run(gpu: &mut Gpu, cfg: &FetchGranularityConfig) -> Option<(u32, f64)> {
    let overhead = calibrate_overhead(gpu);
    let classifier = HitMissClassifier::for_target_stratum(cfg.target_hit_latency);
    let mut stride = 4u64;
    while stride <= cfg.max_stride {
        let array_bytes = cfg.accesses * stride;
        let pc = PchaseConfig {
            space: cfg.space,
            flags: cfg.flags,
            array_bytes,
            stride_bytes: stride,
            record_n: cfg.accesses as usize,
            warmup: false, // cold! the signal is the first-touch pattern
            sm: 0,
            core: 0,
        };
        let Ok(run) = run_pchase_with_overhead(gpu, &pc, overhead) else {
            return None;
        };
        // "Once there are only misses in the p-chase, each element is
        // fetched in a separate transaction." Every deeper level is
        // slower than the target stratum's upper edge, so the zero-hit
        // criterion is noise-safe: jitter (a few cycles) can't pull a
        // deeper-level answer into the stratum.
        let hits = run
            .latencies
            .iter()
            .filter(|&&l| classifier.is_hit(l))
            .count();
        if hits == 0 {
            return Some((stride as u32, 1.0));
        }
        stride += 4;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt4g_sim::device::CacheKind;
    use mt4g_sim::presets;

    #[test]
    fn h100_l1_fetch_granularity_is_32b() {
        let mut gpu = presets::h100_80();
        let lat = gpu.config.cache(CacheKind::L1).unwrap().load_latency as f64;
        let cfg = FetchGranularityConfig::new(MemorySpace::Global, LoadFlags::CACHE_ALL, lat);
        let (fg, conf) = run(&mut gpu, &cfg).unwrap();
        assert_eq!(fg, 32);
        assert!(conf > 0.9);
    }

    #[test]
    fn v100_l1_default_transaction_is_two_sectors() {
        // The paper calls out the V100's 64 B default transaction.
        let mut gpu = presets::v100();
        let lat = gpu.config.cache(CacheKind::L1).unwrap().load_latency as f64;
        let cfg = FetchGranularityConfig::new(MemorySpace::Global, LoadFlags::CACHE_ALL, lat);
        assert_eq!(run(&mut gpu, &cfg).unwrap().0, 64);
    }

    #[test]
    fn h100_l2_fetch_granularity_via_cg() {
        let mut gpu = presets::h100_80();
        let lat = gpu.config.cache(CacheKind::L2).unwrap().load_latency as f64;
        let cfg = FetchGranularityConfig::new(MemorySpace::Global, LoadFlags::CACHE_GLOBAL, lat);
        assert_eq!(run(&mut gpu, &cfg).unwrap().0, 32);
    }

    #[test]
    fn h100_constant_l15_fetch_granularity() {
        // Through the constant path with the CL1.5 hit latency as the
        // reference: CL1 in-sector hits and CL1.5 hits both count as
        // "hits"; only when the stride reaches CL1.5's 64 B granularity do
        // all loads fall through to DRAM... but CL1's granularity is also
        // 64 B, so the measurement reflects the constant path's fetch unit.
        let mut gpu = presets::h100_80();
        let lat = gpu.config.cache(CacheKind::ConstL15).unwrap().load_latency as f64;
        let cfg = FetchGranularityConfig::new(MemorySpace::Constant, LoadFlags::CACHE_ALL, lat);
        let (fg, _) = run(&mut gpu, &cfg).unwrap();
        assert_eq!(fg, 64);
    }

    #[test]
    fn mi210_vl1_fetch_granularity_is_64b() {
        let mut gpu = presets::mi210();
        let lat = gpu.config.cache(CacheKind::VL1).unwrap().load_latency as f64;
        let cfg = FetchGranularityConfig::new(MemorySpace::Vector, LoadFlags::CACHE_ALL, lat);
        assert_eq!(run(&mut gpu, &cfg).unwrap().0, 64);
    }

    #[test]
    fn mi210_l2_fetch_granularity_via_glc() {
        let mut gpu = presets::mi210();
        let lat = gpu.config.cache(CacheKind::L2).unwrap().load_latency as f64;
        let cfg = FetchGranularityConfig::new(MemorySpace::Vector, LoadFlags::CACHE_GLOBAL, lat);
        assert_eq!(run(&mut gpu, &cfg).unwrap().0, 64);
    }

    #[test]
    fn mi300x_l2_fetch_granularity_is_64b() {
        // Regression: the L3 behind the MI300X L2 answers an L2 sector
        // miss at 480 cycles — exactly the wide classifier's old hit
        // threshold for the 320-cycle L2 — and its 128 B fetch unit covers
        // every other 64 B-stride access, which used to fake target-level
        // hits at the true granularity and push the measurement to 128 B
        // (the validation matrix's only ground-truth mismatch). The strict
        // target-stratum classifier must measure the planted 64 B, with
        // and without measurement noise.
        for noise in [false, true] {
            let mut gpu = presets::mi300x();
            if !noise {
                gpu.set_noise(mt4g_sim::NoiseModel::NONE);
            }
            let lat = gpu.config.cache(CacheKind::L2).unwrap().load_latency as f64;
            let cfg =
                FetchGranularityConfig::new(MemorySpace::Vector, LoadFlags::CACHE_GLOBAL, lat);
            let (fg, conf) = run(&mut gpu, &cfg).unwrap();
            assert_eq!(fg, 64, "noise={noise}");
            assert!(conf > 0.9);
        }
    }
}
