//! Shared-L2 contention benchmark: what co-running work does to one SM's
//! L2 latency, and an independent cross-check of the L2 segment mapping.
//!
//! The paper's Sec. VI-C observes that an SM only ever talks to one L2
//! segment. The segment-size benchmark measures that *capacity*; this
//! benchmark measures the *isolation*: a victim SM chases a working set
//! sized at ~3/4 of one segment, a polluter on another SM then warms its
//! own equally-sized set, and the victim re-observes its chase.
//!
//! * Polluter in the **same segment**: the combined footprint (~1.5×
//!   segment) thrashes the shared segment under LRU — the victim's data
//!   is gone and its latencies inflate to the backing level (L3 where one
//!   exists, device memory otherwise).
//! * Polluter in a **different segment**: the victim's segment is
//!   untouched and its latencies stay at the solo baseline.
//!
//! Which SMs share a segment is itself discovered (not read from ground
//! truth): a line warmed through the victim's segment is probed from
//! candidate SMs, and a target-stratum L2 hit marks a same-segment peer.
//! The benchmark therefore cross-checks the simulator's `l2_segment_of`
//! mapping end-to-end — the validator re-derives the planted mapping and
//! demands the discovered peers agree.
//!
//! Both phases need blocks pinned to operator-chosen SMs; environments
//! that cannot guarantee co-residency (`Quirks::no_co_residency`, the CU
//! pinning quirk on AMD) get an honest no-result.

use mt4g_sim::api;
use mt4g_sim::device::{LoadFlags, MemorySpace, Vendor};
use mt4g_sim::gpu::Gpu;

use crate::benchmarks::latency::{self, LatencyConfig};
use crate::classify::HitMissClassifier;
use crate::pchase::{calibrate_overhead, prime_probe, Actor};

/// Configuration of the contention benchmark.
#[derive(Debug, Clone, Copy)]
pub struct ContentionConfig {
    /// Memory space (Global on NVIDIA, Vector on AMD), chased with
    /// `.cg`/GLC so the L2 is the contended level.
    pub space: MemorySpace,
    /// Candidate SMs probed for the segment classification (beyond the
    /// victim, SM 0).
    pub probe_sms: usize,
    /// Latencies recorded per observation pass.
    pub record_n: usize,
    /// Chase stride in bytes. At or below the smallest L2 line size
    /// (64 B on every known part), so a ring of `W` bytes occupies
    /// exactly `W` bytes of cache — the eviction arithmetic then doesn't
    /// depend on the (unknown) line size.
    pub stride_bytes: u64,
    /// Whether blocks can be pinned to chosen SMs/CUs.
    pub can_pin: bool,
}

impl ContentionConfig {
    /// Defaults for a device's vendor and quirk set.
    pub fn new(gpu: &Gpu) -> Self {
        let quirks = gpu.config.quirks;
        ContentionConfig {
            space: match gpu.vendor() {
                Vendor::Nvidia => MemorySpace::Global,
                Vendor::Amd => MemorySpace::Vector,
            },
            probe_sms: 8,
            record_n: 192,
            stride_bytes: 64,
            can_pin: !quirks.no_co_residency && !quirks.no_cu_pinning,
        }
    }
}

/// The contention measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct ContentionMeasurement {
    /// The victim SM (always 0).
    pub victim_sm: u32,
    /// A discovered same-segment peer, if any was found among the probes.
    pub same_segment_sm: Option<u32>,
    /// A discovered cross-segment peer (none on single-segment parts).
    pub cross_segment_sm: Option<u32>,
    /// Estimated segment count (`probed / same-segment count`, rounded) —
    /// cross-checks the L2-segment benchmark from an independent angle.
    pub segments_estimate: u32,
    /// Victim median latency with no co-runner (cycles).
    pub solo_latency: f64,
    /// Victim median latency with a same-segment polluter.
    pub same_segment_latency: Option<f64>,
    /// Victim median latency with a cross-segment polluter.
    pub cross_segment_latency: Option<f64>,
}

/// Outcome of the contention benchmark.
#[derive(Debug, Clone, PartialEq)]
pub enum ContentionOutcome {
    /// The measurement ran.
    Found(ContentionMeasurement),
    /// The benchmark could not run.
    NoResult {
        /// Explanation.
        reason: String,
    },
}

/// Runs the shared-L2 contention benchmark with SM 0 as the victim.
pub fn run(gpu: &mut Gpu, cfg: &ContentionConfig) -> ContentionOutcome {
    if !cfg.can_pin {
        return ContentionOutcome::NoResult {
            reason: "environment cannot co-locate benchmark blocks on chosen SMs/CUs".into(),
        };
    }
    let props = api::device_props(gpu);
    let l2_total = props.l2_size_bytes;
    if l2_total == 0 {
        return ContentionOutcome::NoResult {
            reason: "no L2 declared".into(),
        };
    }
    let num_sms = props.num_sms as usize;
    if num_sms < 2 {
        return ContentionOutcome::NoResult {
            reason: "contention needs at least two SMs/CUs".into(),
        };
    }

    // Reference L2 latency for the same-segment classifier.
    let Some(l2_lat) = latency::run(
        gpu,
        &LatencyConfig::standard(cfg.space, LoadFlags::CACHE_GLOBAL, 64),
    ) else {
        return ContentionOutcome::NoResult {
            reason: "L2 latency reference measurement failed".into(),
        };
    };
    let classifier = HitMissClassifier::for_target_stratum(l2_lat.mean);

    // Segment classification: warm a line through the victim's segment,
    // probe it from each candidate SM. A target-stratum L2 hit means the
    // candidate shares the victim's segment.
    gpu.free_all();
    gpu.flush_caches();
    let probes = cfg.probe_sms.min(num_sms - 1);
    let mut same_segment_sm = None;
    let mut cross_segment_sm = None;
    let mut same_count = 1usize; // the victim itself
    let Ok(probe_buf) = gpu.alloc(cfg.space, 64 * 1024) else {
        return ContentionOutcome::NoResult {
            reason: "probe allocation failed".into(),
        };
    };
    let probe_base = gpu.buffer_base(probe_buf);
    // Probe addresses 1 KiB apart: comfortably different cache lines on
    // every part, so one SM's probe can never pre-fetch another's.
    const PROBE_SPACING: u64 = 1024;
    for sm in 1..=probes {
        let mut hits = 0usize;
        const TRIALS: usize = 5;
        for t in 0..TRIALS {
            let addr = probe_base + (sm * TRIALS + t) as u64 * PROBE_SPACING;
            // Two victim touches: the second guarantees L2 residency.
            gpu.raw_load(0, 0, cfg.space, LoadFlags::CACHE_GLOBAL, addr);
            gpu.raw_load(0, 0, cfg.space, LoadFlags::CACHE_GLOBAL, addr);
            let (_, lat) = gpu.raw_load(sm, 0, cfg.space, LoadFlags::CACHE_GLOBAL, addr);
            if classifier.is_hit(lat as f64) {
                hits += 1;
            }
        }
        if hits * 2 > TRIALS {
            same_count += 1;
            if same_segment_sm.is_none() {
                same_segment_sm = Some(sm as u32);
            }
        } else if cross_segment_sm.is_none() {
            cross_segment_sm = Some(sm as u32);
        }
    }
    let segments_estimate = (((probes + 1) as f64 / same_count as f64).round() as u32).max(1);

    // Working sets: ~3/4 of one visible segment each, so victim + polluter
    // overflow a shared segment by ~1.5x but a lone set fits comfortably.
    let segment_bytes = l2_total / segments_estimate as u64;
    let ring_bytes = (segment_bytes * 3 / 4 / cfg.stride_bytes).max(8) * cfg.stride_bytes;
    let overhead = calibrate_overhead(gpu);

    let victim = Actor::new(
        cfg.space,
        LoadFlags::CACHE_GLOBAL,
        ring_bytes,
        cfg.stride_bytes,
    );
    let mut co_run = |polluter: Option<u32>| -> Option<f64> {
        let polluter = polluter.map(|sm| Actor {
            sm: sm as usize,
            ..victim
        });
        let lats = prime_probe(gpu, &victim, polluter.as_ref(), cfg.record_n, overhead).ok()?;
        mt4g_stats::descriptive::percentile(&lats, 50.0)
    };

    let Some(solo_latency) = co_run(None) else {
        return ContentionOutcome::NoResult {
            reason: "solo baseline measurement failed".into(),
        };
    };
    let same_segment_latency = same_segment_sm.and_then(|sm| co_run(Some(sm)));
    let cross_segment_latency = cross_segment_sm.and_then(|sm| co_run(Some(sm)));

    ContentionOutcome::Found(ContentionMeasurement {
        victim_sm: 0,
        same_segment_sm,
        cross_segment_sm,
        segments_estimate,
        solo_latency,
        same_segment_latency,
        cross_segment_latency,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt4g_sim::device::CacheKind;
    use mt4g_sim::gpu::GpuStats;
    use mt4g_sim::presets;

    fn found(gpu: &mut Gpu) -> ContentionMeasurement {
        let cfg = ContentionConfig::new(gpu);
        match run(gpu, &cfg) {
            ContentionOutcome::Found(m) => m,
            other => panic!("expected a measurement, got {other:?}"),
        }
    }

    #[test]
    fn a100_same_segment_polluter_inflates_to_dram() {
        // The headline two-segment part: SM 2 shares SM 0's segment
        // (stripe % 2), SM 1 does not.
        let mut gpu = presets::a100();
        let m = found(&mut gpu);
        assert_eq!(m.segments_estimate, 2);
        let l2 = gpu.config.cache(CacheKind::L2).unwrap().load_latency as f64;
        let dram = gpu.config.dram.load_latency as f64;
        assert!(
            (m.solo_latency - l2).abs() < 10.0,
            "solo {}",
            m.solo_latency
        );
        let same = m.same_segment_latency.expect("same-segment peer found");
        assert!(
            same > solo_plus_half_gap(m.solo_latency, l2, dram),
            "same-segment latency {same} not inflated (solo {})",
            m.solo_latency
        );
        let cross = m.cross_segment_latency.expect("cross-segment peer found");
        assert!(
            (cross - m.solo_latency).abs() < 15.0,
            "cross-segment latency {cross} vs solo {}",
            m.solo_latency
        );
    }

    fn solo_plus_half_gap(solo: f64, l2: f64, backing: f64) -> f64 {
        solo + 0.5 * (backing - l2)
    }

    /// The victim/polluter co-runs are prime/probe sequences from a
    /// flushed hierarchy, and the L2 latency reference is one chase, so
    /// the lap log takes them in closed form. What the host walks is the
    /// segment classification's raw loads: 8 probe SMs × 5 trials × 3
    /// loads. The device counters equal those of walking every load.
    #[test]
    fn mi210_contention_walks_only_its_raw_loads() {
        let mut gpu = presets::mi210();
        found(&mut gpu);
        assert_eq!(gpu.walked_loads(), 120);
        assert_eq!(
            gpu.stats(),
            GpuStats {
                kernels_launched: 8,
                loads_executed: 295_928,
                total_cycles: 221_974_921,
            }
        );
    }

    #[test]
    fn t1000_single_segment_has_no_cross_peer() {
        let mut gpu = presets::t1000();
        let m = found(&mut gpu);
        assert_eq!(m.segments_estimate, 1);
        assert!(m.cross_segment_sm.is_none());
        let same = m.same_segment_latency.expect("all SMs share the segment");
        assert!(same > m.solo_latency + 50.0);
    }

    #[test]
    fn rdna_l3_catches_the_contended_misses() {
        // RX 7900 XTX: victim misses fall into the 96 MB MALL, not DRAM.
        let mut gpu = presets::rx7900xtx();
        let l3 = gpu.config.cache(CacheKind::L3).unwrap().load_latency as f64;
        let m = found(&mut gpu);
        let same = m.same_segment_latency.expect("single segment, all peers");
        assert!(
            (same - l3).abs() < 25.0,
            "contended latency {same} should sit at the MALL's {l3}"
        );
    }

    #[test]
    fn mi300x_pinning_quirk_yields_no_result() {
        let mut gpu = presets::mi300x();
        let cfg = ContentionConfig::new(&gpu);
        assert!(!cfg.can_pin);
        assert!(matches!(
            run(&mut gpu, &cfg),
            ContentionOutcome::NoResult { .. }
        ));
    }
}
