//! **Figure 3** — the core of the Amount benchmark: two cores evict each
//! other's data iff they fetch through the same cache segment.
//!
//! Reproduces the paper's schematic as an actual trace: on a 1-segment L1,
//! core B's warm-up always evicts core A's array (step 3 misses); on a
//! synthetic 2-segment L1, a core B in the other half of the SM leaves
//! core A's segment untouched (step 3 hits), revealing the second segment.

use mt4g_core::benchmarks::amount::{run, AmountConfig};
use mt4g_core::classify::HitMissClassifier;
use mt4g_core::pchase::{calibrate_overhead, prime_probe, Actor};
use mt4g_sim::device::{CacheKind, LoadFlags, MemorySpace};
use mt4g_sim::gpu::Gpu;
use mt4g_sim::presets;

fn trace(gpu: &mut Gpu, label: &str) {
    let spec = *gpu.config.cache(CacheKind::L1).unwrap();
    let overhead = calibrate_overhead(gpu);
    let classifier = HitMissClassifier::for_hit_latency(spec.load_latency as f64);
    println!("\n--- {label} ---");
    println!("core A = 0; array size = L1 capacity ({} B)", spec.size);
    let cores = gpu.config.chip.cores_per_sm;
    let stride = spec.fetch_granularity as u64;
    let a = Actor::new(MemorySpace::Global, LoadFlags::CACHE_ALL, spec.size, stride);
    let mut core_b = 1;
    while core_b < cores {
        let b = Actor {
            core: core_b as usize,
            ..a
        };
        let lats = prime_probe(gpu, &a, Some(&b), 128, overhead).unwrap();
        let hit_frac = classifier.hit_fraction(&lats);
        println!(
            "  (1) A fills; (2) B@core {core_b:>3} fills; (3) A observes: {:>5.1}% hits -> {}",
            hit_frac * 100.0,
            if hit_frac > 0.9 {
                "B used a DIFFERENT segment"
            } else {
                "B EVICTED A (same segment)"
            }
        );
        core_b *= 2;
    }
}

fn main() {
    println!("=== Figure 3: Amount-benchmark eviction traces ===");

    let mut one_segment = presets::h100_80();
    trace(&mut one_segment, "H100 L1, 1 segment per SM (ground truth)");
    let cfg = AmountConfig {
        space: MemorySpace::Global,
        flags: LoadFlags::CACHE_ALL,
        cache_size: one_segment.config.cache(CacheKind::L1).unwrap().size,
        fetch_granularity: 32,
        target_hit_latency: 38.0,
        schedulable: true,
    };
    println!("=> reported amount: {:?}", run(&mut one_segment, &cfg));

    // Synthetic 2-segment variant (the top half of the paper's figure).
    let mut cfg2 = presets::h100_80().config;
    for (kind, spec) in cfg2.caches.iter_mut() {
        if matches!(
            kind,
            CacheKind::L1 | CacheKind::Texture | CacheKind::Readonly
        ) {
            spec.amount_per_sm = Some(2);
        }
    }
    let mut two_segment = Gpu::new(cfg2);
    trace(
        &mut two_segment,
        "synthetic H100 variant, 2 L1 segments per SM",
    );
    let cfg = AmountConfig {
        space: MemorySpace::Global,
        flags: LoadFlags::CACHE_ALL,
        cache_size: two_segment.config.cache(CacheKind::L1).unwrap().size,
        fetch_granularity: 32,
        target_hit_latency: 38.0,
        schedulable: true,
    };
    println!("=> reported amount: {:?}", run(&mut two_segment, &cfg));
}
