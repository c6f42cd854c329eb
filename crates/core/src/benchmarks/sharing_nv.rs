//! Physical-sharing benchmark on NVIDIA (paper Sec. IV-G).
//!
//! NVIDIA's logical memory spaces (global, texture, readonly, constant)
//! may map onto one physical cache or have dedicated hierarchies. The test
//! is the Amount benchmark run on a *single* core with two different
//! memory spaces:
//!
//! 1. warm an array through space A,
//! 2. warm another array through space B,
//! 3. re-chase array A: misses ⇒ B's warm-up evicted A ⇒ one physical
//!    cache; hits ⇒ separate caches.

use mt4g_sim::device::{CacheKind, LoadFlags, MemorySpace};
use mt4g_sim::gpu::Gpu;

use crate::classify::{HitMissClassifier, RunVerdict};
use crate::pchase::{calibrate_overhead, prime_probe, Actor};

/// One logical space under test, with the attributes its cache was
/// measured to have.
#[derive(Debug, Clone, Copy)]
pub struct SpaceProbe {
    /// The report row this space belongs to.
    pub kind: CacheKind,
    /// The memory space loads go through.
    pub space: MemorySpace,
    /// Measured capacity of the space's cache.
    pub cache_size: u64,
    /// Chase stride.
    pub fetch_granularity: u64,
    /// Hit latency for classification.
    pub hit_latency: f64,
}

/// Result of probing one pair of spaces.
#[derive(Debug, Clone, PartialEq)]
pub struct PairResult {
    /// The two probed report rows.
    pub pair: (CacheKind, CacheKind),
    /// Whether they share one physical cache.
    pub shared: bool,
    /// Confidence (0 on a quirk-flagged pair).
    pub confidence: f64,
}

/// Probes whether the caches behind spaces `a` and `b` are physically the
/// same, by eviction. The probe arrays are sized at the *smaller* cache's
/// capacity — remember the constant path cannot allocate beyond 64 KiB, so
/// a constant-space B probing a 238 KiB L1 can only be conclusive in the
/// direction it *can* evict (sharing would still be seen from the other
/// side, which the suite also runs).
pub fn probe_pair(gpu: &mut Gpu, a: &SpaceProbe, b: &SpaceProbe) -> PairResult {
    let overhead = calibrate_overhead(gpu);
    let classifier = HitMissClassifier::for_hit_latency(a.hit_latency);

    // B must be able to evict all of A's cache if they share: size B's
    // array at A's capacity when allocatable, else at B's own maximum.
    let array_b = if b.space == MemorySpace::Constant {
        a.cache_size.min(mt4g_sim::device::CONSTANT_ARRAY_LIMIT)
    } else {
        a.cache_size.max(b.cache_size)
    };
    let actor_a = Actor::new(
        a.space,
        LoadFlags::CACHE_ALL,
        a.cache_size,
        a.fetch_granularity,
    );
    let actor_b = Actor::new(b.space, LoadFlags::CACHE_ALL, array_b, b.fetch_granularity);
    let Ok(lats) = prime_probe(gpu, &actor_a, Some(&actor_b), 256, overhead) else {
        return PairResult {
            pair: (a.kind, b.kind),
            shared: false,
            confidence: 0.0,
        };
    };

    let verdict = classifier.verdict(&lats);
    let hit_fraction = classifier.hit_fraction(&lats);
    PairResult {
        pair: (a.kind, b.kind),
        shared: verdict == RunVerdict::Misses,
        confidence: (hit_fraction - 0.5).abs() * 2.0,
    }
}

/// Probes all pairs among `probes` (both directions — the constant-limit
/// asymmetry makes A→B and B→A genuinely different experiments) and
/// returns, for every kind, the kinds it shares a physical cache with.
///
/// `flaky_l1_const` reproduces the P6000 quirk: the (L1, Constant L1)
/// pair's result is reported with zero confidence.
pub fn sharing_groups(
    gpu: &mut Gpu,
    probes: &[SpaceProbe],
    flaky_l1_const: bool,
) -> Vec<(CacheKind, Vec<CacheKind>, f64)> {
    let mut results: Vec<PairResult> = Vec::new();
    for (i, a) in probes.iter().enumerate() {
        for (j, b) in probes.iter().enumerate() {
            if i == j {
                continue;
            }
            let mut r = probe_pair(gpu, a, b);
            let is_l1_const = matches!(
                (a.kind, b.kind),
                (CacheKind::L1, CacheKind::ConstL1) | (CacheKind::ConstL1, CacheKind::L1)
            );
            if flaky_l1_const && is_l1_const {
                r.confidence = 0.0;
                r.shared = false;
            }
            results.push(r);
        }
    }
    probes
        .iter()
        .map(|p| {
            let mut partners: Vec<CacheKind> = results
                .iter()
                .filter(|r| r.shared && (r.pair.0 == p.kind || r.pair.1 == p.kind))
                .map(|r| {
                    if r.pair.0 == p.kind {
                        r.pair.1
                    } else {
                        r.pair.0
                    }
                })
                .collect();
            partners.sort();
            partners.dedup();
            let confidence = results
                .iter()
                .filter(|r| r.pair.0 == p.kind || r.pair.1 == p.kind)
                .map(|r| r.confidence)
                .fold(1.0f64, f64::min);
            (p.kind, partners, confidence)
        })
        .collect()
}

/// The standard NVIDIA probe set, from already-measured attributes.
pub fn nvidia_probes(
    l1: (u64, u64, f64),
    tex: (u64, u64, f64),
    ro: (u64, u64, f64),
    cl1: (u64, u64, f64),
) -> Vec<SpaceProbe> {
    vec![
        SpaceProbe {
            kind: CacheKind::L1,
            space: MemorySpace::Global,
            cache_size: l1.0,
            fetch_granularity: l1.1,
            hit_latency: l1.2,
        },
        SpaceProbe {
            kind: CacheKind::Texture,
            space: MemorySpace::Texture,
            cache_size: tex.0,
            fetch_granularity: tex.1,
            hit_latency: tex.2,
        },
        SpaceProbe {
            kind: CacheKind::Readonly,
            space: MemorySpace::Readonly,
            cache_size: ro.0,
            fetch_granularity: ro.1,
            hit_latency: ro.2,
        },
        SpaceProbe {
            kind: CacheKind::ConstL1,
            space: MemorySpace::Constant,
            cache_size: cl1.0,
            fetch_granularity: cl1.1,
            hit_latency: cl1.2,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt4g_sim::gpu::GpuStats;
    use mt4g_sim::presets;

    fn h100_probes(gpu: &Gpu) -> Vec<SpaceProbe> {
        let spec = |k: CacheKind| {
            let s = gpu.config.cache(k).unwrap();
            (s.size, s.fetch_granularity as u64, s.load_latency as f64)
        };
        nvidia_probes(
            spec(CacheKind::L1),
            spec(CacheKind::Texture),
            spec(CacheKind::Readonly),
            spec(CacheKind::ConstL1),
        )
    }

    #[test]
    fn h100_l1_tex_ro_are_unified_constant_is_not() {
        let mut gpu = presets::h100_80();
        let probes = h100_probes(&gpu);
        let groups = sharing_groups(&mut gpu, &probes, false);
        let get = |k: CacheKind| {
            groups
                .iter()
                .find(|(kind, _, _)| *kind == k)
                .map(|(_, p, _)| p.clone())
                .unwrap()
        };
        assert_eq!(
            get(CacheKind::L1),
            vec![CacheKind::Texture, CacheKind::Readonly]
        );
        assert_eq!(
            get(CacheKind::Texture),
            vec![CacheKind::L1, CacheKind::Readonly]
        );
        assert_eq!(get(CacheKind::ConstL1), vec![]);
    }

    /// Every pair probe warms two rings from SM 0 and observes the first
    /// again, all from a flushed hierarchy, so the lap log takes each
    /// probe in closed form and the twelve probes walk no load on the
    /// host. The device counters equal those of walking every load.
    #[test]
    fn h100_sharing_groups_walk_no_loads() {
        let mut gpu = presets::h100_80();
        let probes = h100_probes(&gpu);
        sharing_groups(&mut gpu, &probes, false);
        assert_eq!(gpu.walked_loads(), 0);
        assert_eq!(
            gpu.stats(),
            GpuStats {
                kernels_launched: 48,
                loads_executed: 142_656,
                total_cycles: 119_081_896,
            }
        );
    }

    #[test]
    fn direct_pair_probe_detects_unified_l1_texture() {
        let mut gpu = presets::h100_80();
        let probes = h100_probes(&gpu);
        let r = probe_pair(&mut gpu, &probes[0], &probes[1]);
        assert!(r.shared);
        assert!(r.confidence > 0.8);
    }

    #[test]
    fn direct_pair_probe_separates_l1_and_constant() {
        let mut gpu = presets::h100_80();
        let probes = h100_probes(&gpu);
        let r = probe_pair(&mut gpu, &probes[0], &probes[3]);
        assert!(!r.shared);
    }

    #[test]
    fn flaky_quirk_zeroes_l1_const_confidence() {
        let mut gpu = presets::p6000();
        let spec = |k: CacheKind| {
            let s = gpu.config.cache(k).unwrap();
            (s.size, s.fetch_granularity as u64, s.load_latency as f64)
        };
        let probes = nvidia_probes(
            spec(CacheKind::L1),
            spec(CacheKind::Texture),
            spec(CacheKind::Readonly),
            spec(CacheKind::ConstL1),
        );
        let groups = sharing_groups(&mut gpu, &probes, true);
        let (_, partners, conf) = groups
            .iter()
            .find(|(k, _, _)| *k == CacheKind::ConstL1)
            .unwrap()
            .clone();
        assert!(partners.is_empty());
        assert_eq!(conf, 0.0);
    }
}
