//! L2 segment benchmark (paper Sec. IV-F1).
//!
//! The L2 is a special case: APIs report the *total* size, while
//! segmentation may limit what one SM/CU can reach (the A100's "40 MB" L2
//! is two 20 MB segments). So the question flips: how many segments share
//! the API-reported total?
//!
//! On NVIDIA, the size benchmark (with `.cg` loads from one SM) measures
//! one segment; the segment count is the API total divided by that,
//! aligned to the nearest integer — the distance from that integer is the
//! confidence. On AMD, MT4G assumes one L2 per XCD and takes the XCD
//! count from the API.

use mt4g_sim::api;
use mt4g_sim::device::{LoadFlags, MemorySpace, Vendor};
use mt4g_sim::gpu::Gpu;

use crate::benchmarks::size::{self, SizeConfig, SizeResult};

/// Result of the L2 segment analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct L2Segments {
    /// Size of one segment in bytes (aligned to an integer fraction of the
    /// API total on NVIDIA).
    pub segment_bytes: u64,
    /// Number of segments.
    pub count: u32,
    /// Confidence: 1.0 for API-derived counts; on NVIDIA the proximity of
    /// the raw measurement to the aligned integer fraction.
    pub confidence: f64,
    /// The raw measured segment size before alignment (NVIDIA only).
    pub measured_bytes: Option<u64>,
    /// The segment search's boundary-confirmation probes (NVIDIA only;
    /// see [`SizeResult::Found`]).
    pub probes: Vec<(u64, Option<bool>)>,
}

/// Runs the L2 segment benchmark.
///
/// `fetch_granularity` and `search_lo` tune the underlying size benchmark
/// on NVIDIA (AMD needs neither — everything comes from APIs).
pub fn run(gpu: &mut Gpu, fetch_granularity: u64, scan_points: usize) -> Option<L2Segments> {
    let props = api::device_props(gpu);
    let total = props.l2_size_bytes;
    if total == 0 {
        return None;
    }
    match gpu.vendor() {
        Vendor::Amd => {
            let count = api::xcd_count(gpu)?.max(1);
            Some(L2Segments {
                segment_bytes: total / count as u64,
                count,
                confidence: 1.0,
                measured_bytes: None,
                probes: Vec::new(),
            })
        }
        Vendor::Nvidia => {
            let cfg = SizeConfig {
                search_lo: 64 * 1024, // comfortably above any L1
                search_cap: total * 2,
                scan_points,
                ..SizeConfig::new(
                    MemorySpace::Global,
                    LoadFlags::CACHE_GLOBAL,
                    fetch_granularity,
                )
            };
            match size::run(gpu, &cfg) {
                SizeResult::Found {
                    bytes,
                    confidence,
                    probes,
                    ..
                } => {
                    // Align to the nearest integer fraction of the API
                    // total; the distance is folded into the confidence.
                    let ratio = total as f64 / bytes as f64;
                    let count = ratio.round().max(1.0) as u32;
                    let alignment = 1.0 - 2.0 * (ratio - ratio.round()).abs();
                    Some(L2Segments {
                        segment_bytes: total / count as u64,
                        count,
                        confidence: (confidence * alignment).clamp(0.0, 1.0),
                        measured_bytes: Some(bytes),
                        probes,
                    })
                }
                _ => None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt4g_sim::gpu::GpuStats;
    use mt4g_sim::presets;

    #[test]
    fn t1000_has_a_single_segment() {
        let mut gpu = presets::t1000();
        let r = run(&mut gpu, 32, 24).unwrap();
        assert_eq!(r.count, 1);
        assert_eq!(r.segment_bytes, 1024 * 1024);
        assert!(r.confidence > 0.8, "confidence {}", r.confidence);
    }

    #[test]
    fn a100_l2_is_two_20mb_segments() {
        // The headline case: the API says 40 MB, one SM only reaches 20 MB.
        let mut gpu = presets::a100();
        let r = run(&mut gpu, 32, 16).unwrap();
        assert_eq!(r.count, 2);
        assert_eq!(r.segment_bytes, 20 * 1024 * 1024);
        assert_eq!(r.measured_bytes, Some(20 * 1024 * 1024));
        assert!(r.confidence > 0.8, "confidence {}", r.confidence);
    }

    /// The H100-80 and B200 L2 searches chase `.cg` rings through one
    /// fully-associative exact-LRU L2 from a flushed hierarchy, so every
    /// warm-up lap is charged in closed form and not one load is walked
    /// on the host. The device counters equal those of walking every
    /// load: kernels, loads and cycles as measured before laps had a
    /// closed form.
    #[test]
    fn nvidia_l2_searches_walk_no_loads() {
        let stats = |kernels_launched, loads_executed, total_cycles| GpuStats {
            kernels_launched,
            loads_executed,
            total_cycles,
        };
        for (mut gpu, want) in [
            (presets::h100_80(), stats(70, 50_576_861, 42_784_792_956)),
            (presets::b200(), stats(72, 127_254_493, 114_270_460_006)),
        ] {
            run(&mut gpu, 32, 16).unwrap();
            let name = &gpu.config.name;
            assert_eq!(gpu.walked_loads(), 0, "{name}");
            assert_eq!(gpu.stats(), want, "{name}");
        }
    }

    #[test]
    fn mi210_segments_from_xcd_count() {
        let mut gpu = presets::mi210();
        let r = run(&mut gpu, 64, 16).unwrap();
        assert_eq!(r.count, 1);
        assert_eq!(r.segment_bytes, 8 * 1024 * 1024);
        assert_eq!(r.confidence, 1.0);
        assert!(r.measured_bytes.is_none());
    }

    #[test]
    fn mi300x_segments_are_the_eight_xcds() {
        let mut gpu = presets::mi300x();
        let r = run(&mut gpu, 64, 16).unwrap();
        assert_eq!(r.count, 8);
        assert_eq!(r.segment_bytes, 4 * 1024 * 1024);
    }
}
