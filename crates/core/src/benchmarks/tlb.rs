//! TLB-reach benchmark: how much memory one SM/CU can touch before
//! address translation starts missing.
//!
//! The measurement is the cache-size workflow (Sec. IV-B) transposed to
//! translation: a *page-stride* p-chase touches exactly one cache line
//! per page, so the data footprint stays a few hundred lines (resident in
//! the L2 cache for the whole scan) while the *page* footprint grows.
//! Once it exceeds a TLB level's reach (`entries × page_bytes`), the
//! warmed ring thrashes that level under LRU and every timed load pays
//! the level's walk penalty — a latency cliff located by the same
//! Eq. (2) reduction + K-S change-point machinery, boundary-confirmed by
//! the same (fixed) `confirm_boundary` walk, as the cache sizes. The
//! chase stride is the driver's page size ([`mt4g_sim::api::page_size`]);
//! when a locked-down environment withholds it, the benchmark honestly
//! reports no result instead of guessing a stride.
//!
//! Two passes mirror the Constant L1 → L1.5 pattern: the L1-TLB reach is
//! searched from a few pages up; the L2-TLB reach is searched *behind*
//! it, with the reference distribution re-anchored beyond the L1 reach
//! (where every load already pays the L1-TLB miss).

use mt4g_sim::device::{LoadFlags, MemorySpace, Vendor};
use mt4g_sim::gpu::Gpu;

use crate::benchmarks::size::{self, SizeConfig, SizeResult};
use crate::pchase::{calibrate_overhead, run_pchase_with_overhead, PchaseConfig};

/// Configuration of the TLB-reach benchmark.
#[derive(Debug, Clone, Copy)]
pub struct TlbConfig {
    /// Memory space chased (Global on NVIDIA, Vector on AMD).
    pub space: MemorySpace,
    /// Cache-policy flags. `.cg`/GLC so the small data footprint sits in
    /// the roomy L2 cache and the base latency is one stable stratum.
    pub flags: LoadFlags,
    /// The driver's page size — the chase stride and scan step.
    pub page_bytes: u64,
    /// Latencies recorded per footprint.
    pub record_n: usize,
    /// Scan points per K-S stage.
    pub scan_points: usize,
    /// K-S significance level.
    pub alpha: f64,
}

impl TlbConfig {
    /// Defaults mirroring the size benchmark's, with the vendor-correct
    /// bypass-L1 space selection.
    pub fn new(vendor: Vendor, page_bytes: u64) -> Self {
        let space = match vendor {
            Vendor::Nvidia => MemorySpace::Global,
            Vendor::Amd => MemorySpace::Vector,
        };
        TlbConfig {
            space,
            flags: LoadFlags::CACHE_GLOBAL,
            page_bytes,
            record_n: 192,
            scan_points: 16,
            alpha: 0.05,
        }
    }
}

/// One discovered TLB level.
#[derive(Debug, Clone, PartialEq)]
pub enum TlbLevelOutcome {
    /// The reach cliff was found.
    Found {
        /// Reach in bytes (largest footprint that still fully fits).
        reach_bytes: u64,
        /// Entry count (`reach / page size`).
        entries: u32,
        /// K-S significance of the cliff.
        confidence: f64,
        /// Measured walk penalty in cycles (latency inflation beyond the
        /// reach relative to the within-reach baseline), or `None` when
        /// the penalty probes could not run (e.g. the beyond-reach
        /// footprint exceeds the visible device memory) — a failed
        /// measurement must stay distinguishable from a genuine
        /// zero-cost walk.
        miss_penalty_cycles: Option<f64>,
    },
    /// No cliff up to the testing cap: the reach is at least `cap`.
    ExceedsCap {
        /// The tested cap in bytes.
        cap: u64,
    },
    /// The level could not be measured.
    NoResult {
        /// Explanation.
        reason: String,
    },
}

/// Outcome of the two-level TLB-reach discovery.
#[derive(Debug, Clone, PartialEq)]
pub struct TlbDiscovery {
    /// The per-SM/CU L1 TLB.
    pub l1: TlbLevelOutcome,
    /// The GPU-level L2 TLB.
    pub l2: TlbLevelOutcome,
    /// The two reach searches' boundary-confirmation probes, L1 first
    /// (see [`SizeResult::Found`]).
    pub probes: Vec<(u64, Option<bool>)>,
}

/// Median winsorised latency of one warmed page-stride chase at `pages`
/// pages, or `None` on allocation failure.
fn median_latency_at(gpu: &mut Gpu, cfg: &TlbConfig, pages: u64, overhead: f64) -> Option<f64> {
    let pc = PchaseConfig {
        space: cfg.space,
        flags: cfg.flags,
        array_bytes: pages * cfg.page_bytes,
        stride_bytes: cfg.page_bytes,
        record_n: cfg.record_n,
        warmup: true,
        sm: 0,
        core: 0,
    };
    let mut lats = run_pchase_with_overhead(gpu, &pc, overhead).ok()?.latencies;
    mt4g_stats::outliers::winsorize(&mut lats, 1.0, 99.0);
    mt4g_stats::descriptive::percentile(&lats, 50.0)
}

/// Runs one reach search as a size benchmark with page-granular strides.
fn search_reach(gpu: &mut Gpu, cfg: &TlbConfig, lo_pages: u64, cap_pages: u64) -> SizeResult {
    let size_cfg = SizeConfig {
        search_lo: lo_pages * cfg.page_bytes,
        search_cap: cap_pages * cfg.page_bytes,
        record_n: cfg.record_n,
        scan_points: cfg.scan_points,
        alpha: cfg.alpha,
        ..SizeConfig::new(cfg.space, cfg.flags, cfg.page_bytes)
    };
    size::run(gpu, &size_cfg)
}

/// Converts one level's search outcome, measuring the walk penalty for a
/// found reach against the `baseline_pages` footprint, and appends the
/// search's confirmation probes to `probes`.
fn level_outcome(
    gpu: &mut Gpu,
    cfg: &TlbConfig,
    result: SizeResult,
    baseline_pages: u64,
    overhead: f64,
    probes: &mut Vec<(u64, Option<bool>)>,
) -> TlbLevelOutcome {
    match result {
        SizeResult::Found {
            bytes,
            confidence,
            probes: confirmation,
            ..
        } => {
            probes.extend(confirmation);
            let entries = (bytes / cfg.page_bytes) as u32;
            let base = median_latency_at(gpu, cfg, baseline_pages, overhead);
            let beyond = median_latency_at(gpu, cfg, (bytes / cfg.page_bytes) * 2, overhead);
            let miss_penalty_cycles = match (base, beyond) {
                (Some(b), Some(o)) => Some((o - b).max(0.0)),
                _ => None,
            };
            TlbLevelOutcome::Found {
                reach_bytes: bytes,
                entries,
                confidence,
                miss_penalty_cycles,
            }
        }
        SizeResult::ExceedsCap { cap } => TlbLevelOutcome::ExceedsCap { cap },
        SizeResult::NoResult { reason } => TlbLevelOutcome::NoResult { reason },
    }
}

/// Runs the two-level TLB-reach discovery.
pub fn run(gpu: &mut Gpu, cfg: &TlbConfig) -> TlbDiscovery {
    let page = cfg.page_bytes;
    let dram = gpu.config.dram.size;
    let overhead = calibrate_overhead(gpu);

    // L1 TLB: search from 4 pages up. The cap only bounds the doubling —
    // the cliff sits at the entry count, far below it on every real part.
    let l1_cap_pages = (dram / 4 / page).clamp(8, 8192);
    let mut probes = Vec::new();
    let l1_result = search_reach(gpu, cfg, 4, l1_cap_pages);
    let l1 = level_outcome(gpu, cfg, l1_result, 4, overhead, &mut probes);

    // L2 TLB: searched behind the L1 reach, reference re-anchored at 2×
    // the L1 reach (all loads there already pay the L1-TLB miss).
    let l2 = match &l1 {
        TlbLevelOutcome::Found { reach_bytes, .. } => {
            let l1_pages = reach_bytes / page;
            let lo_pages = l1_pages * 2;
            let cap_pages = (dram / 2 / page).min(65536);
            if cap_pages <= lo_pages * 2 {
                TlbLevelOutcome::NoResult {
                    reason: "device memory too small to search beyond the L1-TLB reach".into(),
                }
            } else {
                let result = search_reach(gpu, cfg, lo_pages, cap_pages);
                // Penalty baseline back *within* the L1 reach, so the
                // measured inflation is the full table-walk cost (not the
                // walk minus the L1-TLB miss already paid at `lo_pages`).
                level_outcome(gpu, cfg, result, 4, overhead, &mut probes)
            }
        }
        TlbLevelOutcome::ExceedsCap { .. } => TlbLevelOutcome::NoResult {
            reason: "L1-TLB reach saturated the testable range".into(),
        },
        TlbLevelOutcome::NoResult { reason } => TlbLevelOutcome::NoResult {
            reason: format!("L1-TLB search failed first: {reason}"),
        },
    };
    TlbDiscovery { l1, l2, probes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt4g_sim::presets;

    fn discover(mut gpu: Gpu) -> TlbDiscovery {
        let page = gpu.config.tlb.expect("preset declares a TLB").page_bytes;
        let cfg = TlbConfig::new(gpu.vendor(), page);
        run(&mut gpu, &cfg)
    }

    fn assert_level(outcome: &TlbLevelOutcome, entries: u32, page: u64, penalty: u32) {
        match outcome {
            TlbLevelOutcome::Found {
                reach_bytes,
                entries: found,
                confidence,
                miss_penalty_cycles,
            } => {
                assert_eq!(*reach_bytes, entries as u64 * page);
                assert_eq!(*found, entries);
                assert!(*confidence > 0.5, "confidence {confidence}");
                let measured = miss_penalty_cycles.expect("penalty measured");
                assert!(
                    (measured - penalty as f64).abs() < 8.0,
                    "penalty {measured} vs planted {penalty}"
                );
            }
            other => panic!("expected Found, got {other:?}"),
        }
    }

    #[test]
    fn t1000_tlb_reaches_match_planted_truth() {
        let gpu = presets::t1000();
        let tlb = gpu.config.tlb.unwrap();
        let d = discover(gpu);
        assert_level(
            &d.l1,
            tlb.l1.entries,
            tlb.page_bytes,
            tlb.l1.miss_penalty_cycles,
        );
        assert_level(
            &d.l2,
            tlb.l2.entries,
            tlb.page_bytes,
            tlb.l2.miss_penalty_cycles,
        );
    }

    #[test]
    fn h100_tlb_reaches_match_planted_truth() {
        let gpu = presets::h100_80();
        let tlb = gpu.config.tlb.unwrap();
        let d = discover(gpu);
        assert_level(
            &d.l1,
            tlb.l1.entries,
            tlb.page_bytes,
            tlb.l1.miss_penalty_cycles,
        );
        assert_level(
            &d.l2,
            tlb.l2.entries,
            tlb.page_bytes,
            tlb.l2.miss_penalty_cycles,
        );
    }

    #[test]
    fn mi210_tlb_reaches_match_planted_truth() {
        let gpu = presets::mi210();
        let tlb = gpu.config.tlb.unwrap();
        let d = discover(gpu);
        assert_level(
            &d.l1,
            tlb.l1.entries,
            tlb.page_bytes,
            tlb.l1.miss_penalty_cycles,
        );
        assert_level(
            &d.l2,
            tlb.l2.entries,
            tlb.page_bytes,
            tlb.l2.miss_penalty_cycles,
        );
    }
}
