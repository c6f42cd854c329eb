//! Amount benchmark (paper Sec. IV-F): how many independent instances of a
//! cache exist per SM/CU.
//!
//! Two synchronised cores in one SM/CU chase two different arrays sized at
//! the cache capacity:
//!
//! 1. core A warms its array,
//! 2. core B warms *its* array,
//! 3. core A re-runs its chase and observes hits or misses.
//!
//! If both cores sit behind the same cache instance, B's warm-up evicted
//! A's data — step (3) misses. Core A stays pinned at core 0; core B's
//! index starts at 1 and doubles each repetition. The first B index whose
//! step (3) *hits* reveals a second instance, and the reported amount is
//! `num_cores_per_sm / core_b_index`; if no B index hits, there is one
//! instance.

use mt4g_sim::device::{LoadFlags, MemorySpace};
use mt4g_sim::gpu::Gpu;

use crate::classify::{HitMissClassifier, RunVerdict};
use crate::pchase::{calibrate_overhead, prime_probe, Actor};

/// Configuration of the amount benchmark.
#[derive(Debug, Clone, Copy)]
pub struct AmountConfig {
    /// Memory space reaching the target cache.
    pub space: MemorySpace,
    /// Cache-policy flags.
    pub flags: LoadFlags,
    /// Capacity of one instance (from the size benchmark).
    pub cache_size: u64,
    /// Fetch granularity (chase stride).
    pub fetch_granularity: u64,
    /// Target-level hit latency for classification.
    pub target_hit_latency: f64,
    /// The quirk switch: Pascal P6000 cannot schedule the helper thread
    /// (paper Sec. V, non-result 2).
    pub schedulable: bool,
}

/// Outcome of the amount benchmark.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AmountResult {
    /// `count` independent instances per SM/CU.
    Found {
        /// Instances per SM/CU.
        count: u32,
        /// The B index at which isolation was first observed (0 = never).
        witness_core: u32,
    },
    /// The benchmark could not run (scheduling quirk).
    NoResult {
        /// Explanation.
        reason: String,
    },
}

/// Runs the amount benchmark on SM/CU 0.
pub fn run(gpu: &mut Gpu, cfg: &AmountConfig) -> AmountResult {
    if !cfg.schedulable {
        return AmountResult::NoResult {
            reason: "unable to schedule the helper thread on all warps (Pascal quirk)".into(),
        };
    }
    let cores = gpu.config.chip.cores_per_sm;
    let overhead = calibrate_overhead(gpu);
    let classifier = HitMissClassifier::for_hit_latency(cfg.target_hit_latency);

    // Arrays sized at the cache capacity so they evict each other fully.
    let a = Actor::new(cfg.space, cfg.flags, cfg.cache_size, cfg.fetch_granularity);
    let mut core_b = 1u32;
    while core_b < cores {
        let b = Actor {
            core: core_b as usize,
            ..a
        };
        let Ok(lats) = prime_probe(gpu, &a, Some(&b), 256, overhead) else {
            return AmountResult::NoResult {
                reason: "allocation failure".into(),
            };
        };
        if classifier.verdict(&lats) == RunVerdict::Hits {
            // Core B used a different segment: A's data survived.
            return AmountResult::Found {
                count: cores / core_b,
                witness_core: core_b,
            };
        }
        core_b *= 2;
    }
    AmountResult::Found {
        count: 1,
        witness_core: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt4g_sim::device::{CacheKind, CacheSpec};
    use mt4g_sim::gpu::GpuStats;
    use mt4g_sim::presets;

    fn amount_cfg(gpu: &Gpu, kind: CacheKind, space: MemorySpace) -> AmountConfig {
        let spec: CacheSpec = *gpu.config.cache(kind).unwrap();
        AmountConfig {
            space,
            flags: LoadFlags::CACHE_ALL,
            cache_size: spec.size,
            fetch_granularity: spec.fetch_granularity as u64,
            target_hit_latency: spec.load_latency as f64,
            schedulable: true,
        }
    }

    #[test]
    fn h100_l1_amount_is_one() {
        let mut gpu = presets::h100_80();
        let cfg = amount_cfg(&gpu, CacheKind::L1, MemorySpace::Global);
        assert_eq!(
            run(&mut gpu, &cfg),
            AmountResult::Found {
                count: 1,
                witness_core: 0
            }
        );
    }

    /// Each repetition is a prime/probe sequence from a flushed hierarchy
    /// (warm A from core 0, warm B from core 1 and up, observe A) through
    /// the fully-associative exact-LRU L1 and L2, so the lap log takes all
    /// three batches in closed form and not one load is walked on the
    /// host. The device counters equal those of walking every load, as
    /// measured before observation passes had a closed form.
    #[test]
    fn h100_l1_amount_walks_no_loads() {
        let mut gpu = presets::h100_80();
        let cfg = amount_cfg(&gpu, CacheKind::L1, MemorySpace::Global);
        run(&mut gpu, &cfg);
        assert_eq!(gpu.walked_loads(), 0);
        assert_eq!(
            gpu.stats(),
            GpuStats {
                kernels_launched: 22,
                loads_executed: 108_416,
                total_cycles: 90_632_280,
            }
        );
    }

    #[test]
    fn mi210_vl1_amount_is_one() {
        let mut gpu = presets::mi210();
        let cfg = amount_cfg(&gpu, CacheKind::VL1, MemorySpace::Vector);
        assert_eq!(
            run(&mut gpu, &cfg),
            AmountResult::Found {
                count: 1,
                witness_core: 0
            }
        );
    }

    #[test]
    fn synthetic_two_instance_l1_is_detected() {
        // Build an H100 variant whose L1 is two instances per SM: cores
        // 0..63 use instance 0, cores 64..127 instance 1.
        let mut gpu = presets::h100_80();
        for (kind, spec) in gpu.config.caches.iter_mut() {
            if matches!(
                kind,
                CacheKind::L1 | CacheKind::Texture | CacheKind::Readonly
            ) {
                spec.amount_per_sm = Some(2);
            }
        }
        let mut gpu = Gpu::new(gpu.config.clone());
        let cfg = amount_cfg(&gpu, CacheKind::L1, MemorySpace::Global);
        let r = run(&mut gpu, &cfg);
        assert_eq!(
            r,
            AmountResult::Found {
                count: 2,
                witness_core: 64
            }
        );
    }

    #[test]
    fn pascal_quirk_yields_no_result() {
        let mut gpu = presets::p6000();
        let mut cfg = amount_cfg(&gpu, CacheKind::L1, MemorySpace::Global);
        cfg.schedulable = !gpu.config.quirks.l1_amount_unschedulable;
        let r = run(&mut gpu, &cfg);
        assert!(matches!(r, AmountResult::NoResult { .. }));
    }
}
