//! Physical-sharing benchmark on AMD (paper Sec. IV-H): which CU ids share
//! one scalar L1 data cache.
//!
//! AMD has no multiple logical data spaces to probe against each other;
//! instead, the sL1d is shared by 2–3 *physical* CUs — and because some
//! physical CUs are disabled (MI210 activates 104 of 128), an active CU
//! whose partners are disabled enjoys exclusive sL1d capacity. The
//! benchmark schedules the two synchronised actors in different thread
//! blocks pinned to specific CU ids and runs the three-step eviction
//! workflow of the Amount benchmark for **all CU pairs** (the paper makes
//! no layout assumptions). The output enables the two optimisations the
//! paper highlights: co-scheduling communicating kernels on sharing CUs,
//! and placing capacity-hungry kernels on exclusive CUs.

use mt4g_sim::device::{LoadFlags, MemorySpace};
use mt4g_sim::gpu::Gpu;

use crate::classify::{HitMissClassifier, RunVerdict};
use crate::pchase::{calibrate_overhead, observe, prepare_chase, warm};

/// Configuration of the sL1d CU-sharing benchmark.
#[derive(Debug, Clone, Copy)]
pub struct CuSharingConfig {
    /// sL1d capacity (from the size benchmark).
    pub sl1d_size: u64,
    /// sL1d fetch granularity.
    pub fetch_granularity: u64,
    /// sL1d hit latency.
    pub hit_latency: f64,
    /// Whether thread blocks can be pinned to CU ids (false under
    /// virtualisation — the MI300X quirk, paper Sec. V non-result 1).
    pub can_pin_cus: bool,
}

/// Result of the CU-sharing benchmark.
#[derive(Debug, Clone, PartialEq)]
pub enum CuSharingResult {
    /// `partners[cu]` lists the logical CU ids sharing `cu`'s sL1d.
    Found {
        /// Per-CU partner lists.
        partners: Vec<Vec<u32>>,
    },
    /// The benchmark could not run.
    NoResult {
        /// Explanation.
        reason: String,
    },
}

/// Whether two specific CUs evict each other's scalar-cache contents.
fn cus_share(
    gpu: &mut Gpu,
    cfg: &CuSharingConfig,
    cu_a: usize,
    cu_b: usize,
    overhead: f64,
) -> bool {
    let classifier = HitMissClassifier::for_hit_latency(cfg.hit_latency);
    gpu.free_all();
    gpu.flush_caches();
    let Ok(buf_a) = prepare_chase(
        gpu,
        MemorySpace::Scalar,
        cfg.sl1d_size,
        cfg.fetch_granularity,
    ) else {
        return false;
    };
    let Ok(buf_b) = prepare_chase(
        gpu,
        MemorySpace::Scalar,
        cfg.sl1d_size,
        cfg.fetch_granularity,
    ) else {
        return false;
    };
    warm(
        gpu,
        buf_a,
        MemorySpace::Scalar,
        LoadFlags::CACHE_ALL,
        cu_a,
        0,
    );
    warm(
        gpu,
        buf_b,
        MemorySpace::Scalar,
        LoadFlags::CACHE_ALL,
        cu_b,
        0,
    );
    let lats = observe(
        gpu,
        buf_a,
        MemorySpace::Scalar,
        LoadFlags::CACHE_ALL,
        cu_a,
        0,
        256,
        overhead,
    );
    classifier.verdict(&lats) == RunVerdict::Misses
}

/// Runs the full pairwise CU-sharing discovery.
pub fn run(gpu: &mut Gpu, cfg: &CuSharingConfig) -> CuSharingResult {
    if !cfg.can_pin_cus {
        return CuSharingResult::NoResult {
            reason: "virtualised environment: thread blocks cannot be pinned to CU ids".into(),
        };
    }
    let n = gpu.config.chip.num_sms as usize;
    let overhead = calibrate_overhead(gpu);
    let mut partners: Vec<Vec<u32>> = vec![Vec::new(); n];
    for a in 0..n {
        for b in (a + 1)..n {
            if cus_share(gpu, cfg, a, b, overhead) {
                partners[a].push(b as u32);
                partners[b].push(a as u32);
            }
        }
    }
    CuSharingResult::Found { partners }
}

/// Like [`run`] but only testing pairs within a window of `span` logical
/// ids — sharing groups are physically adjacent, so a windowed scan finds
/// identical groups in O(n·span) instead of O(n²). The suite uses this;
/// the exhaustive version validates it in tests.
pub fn run_windowed(gpu: &mut Gpu, cfg: &CuSharingConfig, span: usize) -> CuSharingResult {
    if !cfg.can_pin_cus {
        return CuSharingResult::NoResult {
            reason: "virtualised environment: thread blocks cannot be pinned to CU ids".into(),
        };
    }
    let n = gpu.config.chip.num_sms as usize;
    let overhead = calibrate_overhead(gpu);
    let mut partners: Vec<Vec<u32>> = vec![Vec::new(); n];
    for a in 0..n {
        for b in (a + 1)..n.min(a + 1 + span) {
            if cus_share(gpu, cfg, a, b, overhead) {
                partners[a].push(b as u32);
                partners[b].push(a as u32);
            }
        }
    }
    CuSharingResult::Found { partners }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt4g_sim::device::CacheKind;
    use mt4g_sim::gpu::GpuStats;
    use mt4g_sim::presets;

    fn mi210_cfg(gpu: &Gpu) -> CuSharingConfig {
        let s = gpu.config.cache(CacheKind::SL1D).unwrap();
        CuSharingConfig {
            sl1d_size: s.size,
            fetch_granularity: s.fetch_granularity as u64,
            hit_latency: s.load_latency as f64,
            can_pin_cus: !gpu.config.quirks.no_cu_pinning,
        }
    }

    #[test]
    fn mi210_windowed_matches_ground_truth_layout() {
        let mut gpu = presets::mi210();
        let cfg = mi210_cfg(&gpu);
        let layout = gpu.config.cu_layout.clone().unwrap();
        let CuSharingResult::Found { partners } = run_windowed(&mut gpu, &cfg, 4) else {
            panic!("windowed run failed");
        };
        for (cu, found) in partners.iter().enumerate() {
            let truth: Vec<u32> = layout
                .sl1d_partners(cu)
                .into_iter()
                .map(|x| x as u32)
                .collect();
            assert_eq!(found, &truth, "CU {cu}");
        }
        // Both situations the paper describes must occur: shared and
        // exclusive sL1d access.
        assert!(partners.iter().any(|p| !p.is_empty()));
        assert!(partners.iter().any(|p| p.is_empty()));
    }

    /// The windowed scan's CU pairs are prime/probe sequences through the
    /// scalar path from a flushed hierarchy, so the lap log takes each in
    /// closed form and none walks a load on the host. The device counters
    /// equal those of walking every load.
    #[test]
    fn mi210_windowed_sharing_walks_no_loads() {
        let mut gpu = presets::mi210();
        let cfg = mi210_cfg(&gpu);
        run_windowed(&mut gpu, &cfg, 4);
        assert_eq!(gpu.walked_loads(), 0);
        assert_eq!(
            gpu.stats(),
            GpuStats {
                kernels_launched: 1219,
                loads_executed: 311_808,
                total_cycles: 167_468_178,
            }
        );
    }

    #[test]
    fn direct_pair_probe_agrees_with_layout() {
        let mut gpu = presets::mi210();
        let cfg = mi210_cfg(&gpu);
        let layout = gpu.config.cu_layout.clone().unwrap();
        let overhead = calibrate_overhead(&mut gpu);
        let paired = (0..gpu.config.chip.num_sms as usize)
            .find(|&cu| !layout.sl1d_partners(cu).is_empty())
            .unwrap();
        let partner = layout.sl1d_partners(paired)[0];
        assert!(cus_share(&mut gpu, &cfg, paired, partner, overhead));
        let stranger = (0..gpu.config.chip.num_sms as usize)
            .find(|&cu| layout.sl1d_group_of(cu) != layout.sl1d_group_of(paired))
            .unwrap();
        assert!(!cus_share(&mut gpu, &cfg, paired, stranger, overhead));
    }

    #[test]
    fn mi300x_virtualisation_quirk_yields_no_result() {
        let mut gpu = presets::mi300x();
        let cfg = CuSharingConfig {
            can_pin_cus: !gpu.config.quirks.no_cu_pinning,
            ..mi210_cfg(&gpu)
        };
        let r = run(&mut gpu, &cfg);
        assert!(matches!(r, CuSharingResult::NoResult { .. }));
    }

    #[test]
    fn mi100_groups_of_three_are_found() {
        let mut gpu = presets::mi100();
        let s = gpu.config.cache(CacheKind::SL1D).unwrap();
        let cfg = CuSharingConfig {
            sl1d_size: s.size,
            fetch_granularity: s.fetch_granularity as u64,
            hit_latency: s.load_latency as f64,
            can_pin_cus: true,
        };
        let layout = gpu.config.cu_layout.clone().unwrap();
        let CuSharingResult::Found { partners } = run_windowed(&mut gpu, &cfg, 5) else {
            panic!("windowed run failed");
        };
        // CDNA1 groups of three: some CU must report two partners.
        assert!(partners.iter().any(|p| p.len() == 2));
        for (cu, found) in partners.iter().enumerate() {
            let truth: Vec<u32> = layout
                .sl1d_partners(cu)
                .into_iter()
                .map(|x| x as u32)
                .collect();
            assert_eq!(found, &truth, "CU {cu}");
        }
    }
}
