//! Criterion bench: the sectored-cache substrate — every MT4G p-chase load
//! goes through `SectoredCache::access`, so this is the simulation's inner
//! loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use mt4g_sim::cache::{SectoredCache, FULLY_ASSOCIATIVE};
use std::hint::black_box;

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache_access");
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    // (label, size, ways)
    let configs: [(&str, u64, u32); 3] = [
        ("l1_238k_fa", 238 * 1024, FULLY_ASSOCIATIVE),
        ("l2_25m_fa", 25 * 1024 * 1024, FULLY_ASSOCIATIVE),
        ("l1_238k_4way", 238 * 1024, 4),
    ];
    for (label, size, ways) in configs {
        let accesses = 16_384u64;
        group.throughput(Throughput::Elements(accesses));
        group.bench_with_input(BenchmarkId::new("sequential", label), &size, |b, _| {
            b.iter(|| {
                let mut cache = SectoredCache::new(size, 128, 32, ways);
                let mut acc = 0u64;
                for i in 0..accesses {
                    acc += cache.access(black_box(i * 32)).is_hit() as u64;
                }
                acc
            })
        });
        if label == "l2_25m_fa" {
            // The footprint the L2 size search chases: a ring of twice the
            // capacity, filled by one lap outside the timed region, so each
            // timed access walks lines the cache has already evicted.
            let ring = 2 * size;
            let mut cache = SectoredCache::new(size, 128, 32, ways);
            let mut next = 0u64;
            let mut walk = move |n: u64| {
                let mut acc = 0u64;
                for _ in 0..n {
                    acc += cache.access(black_box(next)).is_hit() as u64;
                    next = (next + 32) % ring;
                }
                acc
            };
            walk(ring / 32);
            group.bench_with_input(BenchmarkId::new("thrash", label), &size, |b, _| {
                b.iter(|| walk(accesses))
            });
        } else {
            group.bench_with_input(BenchmarkId::new("thrash", label), &size, |b, _| {
                // Cyclic over capacity + 1 line: the worst case (every
                // access evicts).
                let wrap = size + 128;
                b.iter(|| {
                    let mut cache = SectoredCache::new(size, 128, 32, ways);
                    let mut acc = 0u64;
                    for i in 0..accesses {
                        acc += cache.access(black_box((i * 32) % wrap)).is_hit() as u64;
                    }
                    acc
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_cache);
criterion_main!(benches);
