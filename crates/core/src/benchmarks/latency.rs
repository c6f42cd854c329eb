//! Load-latency benchmark (paper Sec. IV-C).
//!
//! A p-chase with one fixed, small array (256 × fetch granularity) whose
//! loads are guaranteed to be serviced by the target memory element —
//! lower levels are either bypassed (`.cg`, GLC, volatile) or naturally
//! evicted (the Constant-L1.5 case). Reports the mean as the headline
//! value plus p50/p95/standard deviation.

use mt4g_sim::device::{LoadFlags, MemorySpace};
use mt4g_sim::gpu::Gpu;
use mt4g_stats::Summary;

use crate::pchase::{run_pchase, PchaseConfig};
use crate::report::LatencyReport;

/// Configuration of one latency measurement.
#[derive(Debug, Clone, Copy)]
pub struct LatencyConfig {
    /// Memory space of the loads.
    pub space: MemorySpace,
    /// Cache-policy flags selecting the level.
    pub flags: LoadFlags,
    /// Element stride; the paper uses the fetch granularity.
    pub stride_bytes: u64,
    /// Array size; the paper uses 256 × fetch granularity. For the
    /// Constant-L1.5 measurement this comfortably exceeds the 2 KiB CL1,
    /// which is exactly what routes the loads to CL1.5.
    pub array_bytes: u64,
    /// Latencies recorded.
    pub record_n: usize,
}

impl LatencyConfig {
    /// The paper's default sizing for a given fetch granularity.
    pub fn standard(space: MemorySpace, flags: LoadFlags, fetch_granularity: u64) -> Self {
        LatencyConfig {
            space,
            flags,
            stride_bytes: fetch_granularity,
            array_bytes: 256 * fetch_granularity,
            record_n: 256,
        }
    }
}

/// Measures the load latency of the configured target.
pub fn run(gpu: &mut Gpu, cfg: &LatencyConfig) -> Option<LatencyReport> {
    let pc = PchaseConfig {
        space: cfg.space,
        flags: cfg.flags,
        array_bytes: cfg.array_bytes,
        stride_bytes: cfg.stride_bytes,
        record_n: cfg.record_n,
        warmup: true,
        sm: 0,
        core: 0,
    };
    let run = run_pchase(gpu, &pc).ok()?;
    // MT4G's headline latency must be outlier-resistant: a single
    // interrupt-scale spike among 256 samples would otherwise move the
    // mean by several cycles. Winsorising at the 1st/99th percentile
    // clamps such spikes while leaving genuine distributions intact.
    let mut lats = run.latencies;
    mt4g_stats::outliers::winsorize(&mut lats, 1.0, 99.0);
    let stats = Summary::of(&lats)?;
    Some(LatencyReport {
        mean: stats.mean,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt4g_sim::device::CacheKind;
    use mt4g_sim::presets;

    fn close(mean: f64, truth: u32) -> bool {
        (mean - truth as f64).abs() < 4.0
    }

    #[test]
    fn h100_latencies_match_planted_values() {
        let mut gpu = presets::h100_80();
        let fg = 32;
        let cases: Vec<(CacheKind, MemorySpace, LoadFlags)> = vec![
            (CacheKind::L1, MemorySpace::Global, LoadFlags::CACHE_ALL),
            (
                CacheKind::Texture,
                MemorySpace::Texture,
                LoadFlags::CACHE_ALL,
            ),
            (
                CacheKind::Readonly,
                MemorySpace::Readonly,
                LoadFlags::CACHE_ALL,
            ),
            (CacheKind::L2, MemorySpace::Global, LoadFlags::CACHE_GLOBAL),
            (
                CacheKind::SharedMemory,
                MemorySpace::Shared,
                LoadFlags::CACHE_ALL,
            ),
            (
                CacheKind::DeviceMemory,
                MemorySpace::Global,
                LoadFlags::VOLATILE,
            ),
        ];
        for (kind, space, flags) in cases {
            let truth = match kind {
                CacheKind::SharedMemory => gpu.config.scratchpad.load_latency,
                CacheKind::DeviceMemory => gpu.config.dram.load_latency,
                k => gpu.config.cache(k).unwrap().load_latency,
            };
            let r = run(&mut gpu, &LatencyConfig::standard(space, flags, fg)).unwrap();
            assert!(
                close(r.mean, truth),
                "{kind:?}: measured {} vs planted {truth}",
                r.mean
            );
        }
    }

    #[test]
    fn h100_constant_l1_and_l15_latencies() {
        let mut gpu = presets::h100_80();
        // CL1: a tiny array that fits in 2 KiB.
        let cl1 = LatencyConfig {
            array_bytes: 1024,
            ..LatencyConfig::standard(MemorySpace::Constant, LoadFlags::CACHE_ALL, 64)
        };
        let r = run(&mut gpu, &cl1).unwrap();
        assert!(close(r.mean, 21), "CL1 measured {}", r.mean);
        // CL1.5: the standard 16 KiB array exceeds CL1, so the timed loads
        // are CL1.5 hits.
        let cl15 = LatencyConfig::standard(MemorySpace::Constant, LoadFlags::CACHE_ALL, 64);
        let r = run(&mut gpu, &cl15).unwrap();
        assert!(close(r.mean, 105), "CL1.5 measured {}", r.mean);
    }

    #[test]
    fn mi210_latencies_match_planted_values() {
        let mut gpu = presets::mi210();
        let fg = 64;
        let cases: Vec<(u32, MemorySpace, LoadFlags)> = vec![
            (125, MemorySpace::Vector, LoadFlags::CACHE_ALL), // vL1
            (50, MemorySpace::Scalar, LoadFlags::CACHE_ALL),  // sL1d
            (310, MemorySpace::Vector, LoadFlags::CACHE_GLOBAL), // L2 (GLC)
            (55, MemorySpace::Lds, LoadFlags::CACHE_ALL),     // LDS
            (748, MemorySpace::Vector, LoadFlags::VOLATILE),  // DRAM
        ];
        for (truth, space, flags) in cases {
            let r = run(&mut gpu, &LatencyConfig::standard(space, flags, fg)).unwrap();
            assert!(
                close(r.mean, truth),
                "{space:?}: measured {} vs planted {truth}",
                r.mean
            );
        }
    }

    #[test]
    fn stats_include_percentiles() {
        let mut gpu = presets::h100_80();
        let r = run(
            &mut gpu,
            &LatencyConfig::standard(MemorySpace::Global, LoadFlags::CACHE_ALL, 32),
        )
        .unwrap();
        assert!(r.stats.p50 > 0.0);
        assert!(r.stats.p95 >= r.stats.p50);
        assert_eq!(r.stats.n, 256);
    }
}
