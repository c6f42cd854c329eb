//! Quick-mode wall-clock snapshot of the simulator's hot paths, written
//! as JSON so CI can record the perf trajectory (`BENCH_pr<N>.json` at
//! the workspace root).
//!
//! ```text
//! cargo run --release -p mt4g_bench --bin bench_snapshot [out.json [baseline.json]]
//! ```
//!
//! Each hot-path entry reports nanoseconds per element (cache access,
//! chased load, serve-cache lookup or key derivation), the best of a few
//! repetitions. The `suite_wallclock/*` entries are milliseconds of a
//! fast discovery, and `policy_fingerprint` is the replacement-policy
//! classifier's accuracy, which is deterministic. When a `baseline.json`
//! written by an earlier run is given, each entry also records the
//! baseline and the speedup factor. CI gates the snapshot with
//! `bench_gate --table` against `BENCH_baseline.json`: a hot-path entry
//! that regresses past its slack, or a floor that does not hold, fails
//! the job. The `suite_wallclock/*` entries are recorded, never gated.

#![expect(
    clippy::disallowed_methods,
    reason = "benchmark snapshot harness: wall clock is the measurement"
)]

use std::hint::black_box;
use std::time::Instant;

use mt4g_core::benchmarks::policy::{self, PolicyConfig, PolicyOutcome};
use mt4g_core::pchase::{observe, prepare_chase, run_pchase_with_overhead, warm, PchaseConfig};
use mt4g_core::serve::{CacheKey, ResultCache};
use mt4g_core::suite::{execute_plan, DiscoveryConfig, DiscoveryPlan};
use mt4g_sim::cache::{SectoredCache, FULLY_ASSOCIATIVE};
use mt4g_sim::device::{CacheKind, LoadFlags, MemorySpace, Vendor};
use mt4g_sim::gpu::Gpu;
use mt4g_sim::presets;
use mt4g_sim::scenario;

/// Times `iters` repetitions of `f` and returns the best ns/element.
fn best_ns_per_elem(iters: u32, elements: u64, mut f: impl FnMut() -> u64) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..iters {
        let t = Instant::now();
        black_box(f());
        let ns = t.elapsed().as_nanos() as f64 / elements as f64;
        if ns < best {
            best = ns;
        }
    }
    best
}

fn cache_workloads(out: &mut Vec<(String, f64)>) {
    let configs: [(&str, u64); 2] = [("l1_238k_fa", 238 * 1024), ("l2_25m_fa", 25 * 1024 * 1024)];
    let accesses = 16_384u64;
    for (label, size) in configs {
        let seq = best_ns_per_elem(5, accesses, || {
            let mut cache = SectoredCache::new(size, 128, 32, FULLY_ASSOCIATIVE);
            let mut acc = 0u64;
            for i in 0..accesses {
                acc += cache.access(black_box(i * 32)).is_hit() as u64;
            }
            acc
        });
        out.push((format!("cache_access/sequential/{label}"), seq));
        let thrash = if label == "l2_25m_fa" {
            steady_thrash_ns(size)
        } else {
            let wrap = size + 128;
            best_ns_per_elem(5, accesses, || {
                let mut cache = SectoredCache::new(size, 128, 32, FULLY_ASSOCIATIVE);
                let mut acc = 0u64;
                for i in 0..accesses {
                    acc += cache.access(black_box((i * 32) % wrap)).is_hit() as u64;
                }
                acc
            })
        };
        out.push((format!("cache_access/thrash/{label}"), thrash));
    }
}

/// Steady-state thrash of a large fully-associative cache at the
/// footprint the L2 size search chases: a ring of twice the capacity at
/// 32 B stride, filled by one untimed lap, so every timed access walks
/// lines the cache has evicted (one line miss, then three sector misses
/// per 128 B line).
fn steady_thrash_ns(size: u64) -> f64 {
    let mut cache = SectoredCache::new(size, 128, 32, FULLY_ASSOCIATIVE);
    let ring = 2 * size;
    let mut next = 0u64;
    let mut walk = |cache: &mut SectoredCache, n: u64| {
        let mut acc = 0u64;
        for _ in 0..n {
            acc += cache.access(black_box(next)).is_hit() as u64;
            next = (next + 32) % ring;
        }
        acc
    };
    walk(&mut cache, ring / 32);
    let accesses = 1u64 << 20;
    best_ns_per_elem(5, accesses, || walk(&mut cache, accesses))
}

fn pchase_workloads(out: &mut Vec<(String, f64)>) {
    for (label, array_bytes) in [("8KiB", 8192u64), ("128KiB", 131072), ("1MiB", 1 << 20)] {
        let mut gpu = presets::h100_80();
        let cfg =
            PchaseConfig::sequential(MemorySpace::Global, LoadFlags::CACHE_ALL, array_bytes, 32);
        let ns = best_ns_per_elem(5, array_bytes / 32, || {
            gpu.free_all();
            gpu.flush_caches();
            let run = run_pchase_with_overhead(black_box(&mut gpu), &cfg, 8.0).unwrap();
            run.latencies.len() as u64
        });
        out.push((format!("pchase_run/warm_l1_path/{label}"), ns));
    }
    // A B200 global ring of twice its 256 KiB tree-PLRU L1 at a 32 B
    // stride: the tree is built at the first victim and walked from then.
    out.push((
        "pchase_run/walked_plru_l1/512KiB".to_string(),
        walked_chase_ns(presets::b200(), MemorySpace::Global, 512 << 10, 32),
    ));
    // A hostile RX9070XT vector ring of 1.5x its 32 KiB random vL1 at the
    // 64 B fetch granularity: every load reaches the tree-PLRU L2, which
    // the ring never fills, so its tree is never built.
    out.push((
        "pchase_run/walked_plru_l2/rx9070xt_48KiB".to_string(),
        walked_chase_ns(
            scenario::hostile_variant(presets::rx9070xt()),
            MemorySpace::Vector,
            48 << 10,
            64,
        ),
    ));
    out.push((
        "pchase_run/prime_probe/h100_l1".to_string(),
        prime_probe_ns(),
    ));
}

/// A chase the host walks load by load through `load_via`: a warmed
/// `bytes` ring in `space` at `stride`, from a flushed hierarchy. The
/// ring must overfill a first-level cache that is not exact LRU, so no
/// closed form applies. Reports ns per walked load, the
/// `Gpu::walked_loads` delta as the denominator, and asserts that the
/// delta is every load of the chase.
fn walked_chase_ns(mut gpu: Gpu, space: MemorySpace, bytes: u64, stride: u64) -> f64 {
    let cfg = PchaseConfig::sequential(space, LoadFlags::CACHE_ALL, bytes, stride);
    let chase = |gpu: &mut Gpu| {
        gpu.free_all();
        gpu.flush_caches();
        let before = gpu.walked_loads();
        let run = run_pchase_with_overhead(black_box(gpu), &cfg, 8.0).unwrap();
        let walked = gpu.walked_loads() - before;
        assert_eq!(walked, run.elements + run.latencies.len() as u64);
        walked
    };
    let walked = chase(&mut gpu);
    best_ns_per_elem(5, walked, || chase(&mut gpu))
}

/// The amount benchmark's prime/probe sequence at the H100-80 L1
/// capacity, at its fetch granularity: flush, warm ring A from core 0,
/// warm ring B from core 1, observe A for 256 steps. Reports ns per
/// executed load (both laps and the observation).
fn prime_probe_ns() -> f64 {
    let mut gpu = presets::h100_80();
    let l1 = *gpu.config.cache(CacheKind::L1).expect("H100-80 has an L1");
    let (space, flags) = (MemorySpace::Global, LoadFlags::CACHE_ALL);
    let stride = u64::from(l1.fetch_granularity);
    gpu.free_all();
    let a = prepare_chase(&mut gpu, space, l1.size, stride).unwrap();
    let b = prepare_chase(&mut gpu, space, l1.size, stride).unwrap();
    let loads = a.elements + b.elements + 256;
    best_ns_per_elem(5, loads, || {
        gpu.flush_caches();
        warm(&mut gpu, a, space, flags, 0, 0);
        warm(&mut gpu, b, space, flags, 0, 1);
        let lats = observe(black_box(&mut gpu), a, space, flags, 0, 0, 256, 8.0);
        lats.len() as u64
    })
}

/// End-to-end suite wall clock: a fast-mode discovery run over a fixed
/// preset mix (one Table II preset per vendor), plus per-unit phase
/// timings from [`mt4g_core::suite::UnitResult::wall_nanos`]. This is the
/// number users actually feel; entries are milliseconds, not ns/element,
/// and are recorded/uploaded rather than floored — total suite time
/// depends on the runner's core count in a way per-element loops don't.
fn suite_wallclock(out: &mut Vec<(String, f64)>) {
    type PresetCtor = fn() -> Gpu;
    let mix: [(&str, PresetCtor); 2] = [("t1000", presets::t1000), ("mi210", presets::mi210)];
    for (label, ctor) in mix {
        let gpu = ctor();
        let cfg = DiscoveryConfig::fast();
        let plan = DiscoveryPlan::new(&gpu, &cfg);
        let all: Vec<usize> = (0..plan.len()).collect();
        let mut best_ms = f64::INFINITY;
        let mut best_units: Vec<(String, u64)> = Vec::new();
        for _ in 0..3 {
            let t = Instant::now();
            let results = execute_plan(&gpu, &cfg, &plan, &all, 0);
            let ms = t.elapsed().as_nanos() as f64 / 1e6;
            if ms < best_ms {
                best_ms = ms;
                best_units = results
                    .iter()
                    .map(|r| (r.label.clone(), r.wall_nanos))
                    .collect();
            }
        }
        out.push((format!("suite_wallclock/{label}/total"), best_ms));
        for (unit, nanos) in best_units {
            out.push((
                format!("suite_wallclock/{label}/unit/{unit}"),
                nanos as f64 / 1e6,
            ));
        }
    }
}

fn serve_workloads(out: &mut Vec<(String, f64)>) {
    // The hot path of `mt4g serve`: hash a cell descriptor into a cache
    // address, then look it up in a warm LRU cache. Both are measured on
    // a populated cache so the lookup walks a realistic map.
    let cells: Vec<String> = (0..64)
        .map(|i| format!("preset=T1000|scenario=bare-metal|sel=full|fp=v1;cell{i:02}"))
        .collect();
    let mut cache = ResultCache::new(64);
    for cell in &cells {
        cache.insert(&CacheKey::new(cell), "x".repeat(4096).into());
    }
    let lookups = 65_536u64;
    let keys: Vec<CacheKey> = cells.iter().map(|c| CacheKey::new(c)).collect();
    let hit = best_ns_per_elem(5, lookups, || {
        let mut acc = 0u64;
        for i in 0..lookups {
            let key = &keys[(i % 64) as usize];
            acc += cache.get(black_box(key)).is_some() as u64;
        }
        acc
    });
    out.push(("serve_cache/hit_lookup".to_string(), hit));
    let derive = best_ns_per_elem(5, lookups, || {
        let mut acc = 0u64;
        for i in 0..lookups {
            let cell = &cells[(i % 64) as usize];
            acc += CacheKey::new(black_box(cell)).address() as u64 & 1;
        }
        acc
    });
    out.push(("serve_cache/key_derivation".to_string(), derive));
}

/// Classifies the planted L1/vL1 evictor of one preset per reference
/// policy and reports the fraction named correctly. Deterministic on the
/// simulated substrate, so `bench_gate` floors the accuracy at 1.0 — a
/// classifier regression fails the snapshot job outright instead of
/// hiding in an artifact.
fn policy_fingerprint() -> (usize, usize) {
    type PresetCtor = fn() -> Gpu;
    let cells: [(&str, PresetCtor); 5] = [
        ("H100-80", presets::h100_80),     // exact LRU (Table II default)
        ("B200", presets::b200),           // tree-PLRU
        ("GB200", presets::gb200),         // segmented LRU
        ("RX7900XTX", presets::rx7900xtx), // tree-PLRU on the RDNA L0
        ("RX9070XT", presets::rx9070xt),   // random victim
    ];
    let mut correct = 0usize;
    for (name, ctor) in cells {
        let mut gpu = ctor();
        let kind = match gpu.vendor() {
            Vendor::Nvidia => CacheKind::L1,
            Vendor::Amd => CacheKind::VL1,
        };
        let spec = *gpu.config.cache(kind).expect("probed level exists");
        let planted = gpu.config.policy_of(kind);
        let cfg = PolicyConfig::new(
            gpu.vendor(),
            spec.size,
            u64::from(spec.line_size),
            f64::from(spec.load_latency),
        );
        match policy::run(&mut gpu, &cfg) {
            PolicyOutcome::Found { policy, .. } if policy == planted => correct += 1,
            other => eprintln!("policy_fingerprint/{name}: expected {planted:?}, got {other:?}"),
        }
    }
    (correct, 5)
}

/// Pulls `"name": { "<key>": N ... }` out of a previous snapshot.
/// Line-oriented on purpose: this bin has no JSON dependency and only
/// ever reads its own output format.
fn baseline_val(baseline: &str, name: &str, key: &str) -> Option<f64> {
    let needle = format!("\"{name}\"");
    let line = baseline.lines().find(|l| l.contains(&needle))?;
    let rest = line.split(&format!("\"{key}\":")).nth(1)?;
    rest.trim_start()
        .split(|c: char| !(c.is_ascii_digit() || c == '.'))
        .next()?
        .parse()
        .ok()
}

fn baseline_ns(baseline: &str, name: &str) -> Option<f64> {
    baseline_val(baseline, name, "ns_per_element")
}

fn main() {
    let out_path = std::env::args().nth(1);
    let baseline = std::env::args()
        .nth(2)
        .map(|p| std::fs::read_to_string(&p).expect("read baseline snapshot"));
    let mut results: Vec<(String, f64)> = Vec::new();
    cache_workloads(&mut results);
    pchase_workloads(&mut results);
    serve_workloads(&mut results);
    let mut suite: Vec<(String, f64)> = Vec::new();
    suite_wallclock(&mut suite);

    let mut json = String::from("{\n");
    for (name, ns) in results.iter() {
        let extra = baseline
            .as_deref()
            .and_then(|b| baseline_ns(b, name))
            .map(|base| {
                format!(
                    ", \"baseline_ns_per_element\": {base:.2}, \"speedup\": {:.2}",
                    base / ns
                )
            })
            .unwrap_or_default();
        json.push_str(&format!(
            "  \"{name}\": {{ \"ns_per_element\": {ns:.2}{extra} }},\n"
        ));
        eprintln!("{name}: {ns:.2} ns/elem{extra}");
    }
    for (name, ms) in suite.iter() {
        let extra = baseline
            .as_deref()
            .and_then(|b| baseline_val(b, name, "ms"))
            .map(|base| {
                format!(
                    ", \"baseline_ms\": {base:.3}, \"speedup\": {:.2}",
                    base / ms
                )
            })
            .unwrap_or_default();
        json.push_str(&format!("  \"{name}\": {{ \"ms\": {ms:.3}{extra} }},\n"));
        if name.ends_with("/total") {
            eprintln!("{name}: {ms:.3} ms{extra}");
        }
    }
    let (correct, cells) = policy_fingerprint();
    let accuracy = correct as f64 / cells as f64;
    json.push_str(&format!(
        "  \"policy_fingerprint\": {{ \"cells\": {cells}, \"correct\": {correct}, \"accuracy\": {accuracy:.2} }}\n"
    ));
    json.push_str("}\n");
    eprintln!(
        "policy_fingerprint: {correct}/{cells} planted evictors named (accuracy {accuracy:.2})"
    );
    match out_path {
        Some(p) => std::fs::write(&p, &json).expect("write snapshot"),
        None => print!("{json}"),
    }
}
