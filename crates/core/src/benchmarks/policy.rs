//! Replacement-policy discovery: eviction-order probing classified
//! against reference-model predictions.
//!
//! The size benchmark's p-chase (Sec. IV-B) implicitly assumes exact LRU:
//! it locates the footprint where a warmed cyclic ring starts thrashing,
//! which *is* the capacity under LRU but overshoots under approximating
//! evictors (a tree-PLRU keeps part of the ring resident up to ~1.5x
//! capacity; random replacement degrades gradually). This unit turns that
//! assumption into a measured attribute in three phases:
//!
//! 1. **Capacity pin-down.** A policy-agnostic fill/reverse-probe search:
//!    prime `m` fresh lines once, then probe them newest-to-oldest. For
//!    any replacement policy, `m` at or below the capacity yields no
//!    misses (nothing was evicted) and `m` beyond it yields at least
//!    `m - capacity`, so a binary search over `m` recovers the true
//!    capacity from the LRU-biased p-chase estimate (a structural upper
//!    bound) without knowing the policy yet.
//!
//! 2. **Eviction-order probe.** One trial primes the capacity, re-accesses
//!    the first half (separating recency from insertion order), inserts
//!    3/4-capacity fresh lines (forcing evictions), and probes every line
//!    in order, classifying hit/miss by latency against the level's
//!    measured hit stratum. Which lines survived encodes the evictor:
//!    exact LRU evicts the un-re-accessed half first, SLRU protects the
//!    re-accessed lines outright, tree-PLRU scatters victims along its
//!    tree paths, and a streaming/bypass cache evicts nothing.
//!
//! 3. **Classification.** Two trials are compared first: deterministic
//!    evictors replay bit-identically after a flush, so a divergence
//!    beyond the noise floor convicts the seeded-random victim stream
//!    (which deliberately survives flushes, like a real device's). A
//!    stable vector is then matched by Hamming distance against the
//!    replay predictions of fully-associative [`SectoredCache`]s — one
//!    per candidate policy, fed the *identical* load sequence including
//!    the probe phase's own perturbation. (That store is the simulator's
//!    own; the property tests pin it access for access to the naive
//!    per-policy oracle, [`PolicyReferenceCache`].) No candidate close
//!    enough, or two candidates too close to separate, is an honest
//!    no-result.
//!
//! [`PolicyReferenceCache`]: mt4g_sim::cache::reference::PolicyReferenceCache

use mt4g_sim::cache::{Access, ReplacementPolicy, SectoredCache, FULLY_ASSOCIATIVE};
use mt4g_sim::device::{LoadFlags, MemorySpace, Vendor};
use mt4g_sim::gpu::Gpu;

/// Configuration of the replacement-policy discovery benchmark.
#[derive(Debug, Clone, Copy)]
pub struct PolicyConfig {
    /// Memory space probed (Global on NVIDIA, Vector on AMD).
    pub space: MemorySpace,
    /// Cache-policy flags — default path through the target L1.
    pub flags: LoadFlags,
    /// The size benchmark's estimate for the level — a structural upper
    /// bound on the capacity (the thrash point: exact under LRU, inflated
    /// up to ~1.75x under approximating policies).
    pub size_estimate_bytes: u64,
    /// The level's measured cache line size.
    pub line_bytes: u64,
    /// The level's measured hit latency (classification anchor; anything
    /// 40+ cycles above it is a miss on every modeled part).
    pub hit_latency: f64,
}

impl PolicyConfig {
    /// Vendor-correct space/flags for the per-SM/CU L1 target.
    pub fn new(
        vendor: Vendor,
        size_estimate_bytes: u64,
        line_bytes: u64,
        hit_latency: f64,
    ) -> Self {
        let space = match vendor {
            Vendor::Nvidia => MemorySpace::Global,
            Vendor::Amd => MemorySpace::Vector,
        };
        PolicyConfig {
            space,
            flags: LoadFlags::CACHE_ALL,
            size_estimate_bytes,
            line_bytes,
            hit_latency,
        }
    }
}

/// Outcome of the policy discovery.
#[derive(Debug, Clone, PartialEq)]
pub enum PolicyOutcome {
    /// A single reference policy explains the probe vector.
    Found {
        /// The classified replacement policy.
        policy: ReplacementPolicy,
        /// 1 minus the fraction of probe bits the winning reference
        /// mispredicts (for Random: the divergence margin over the noise
        /// floor).
        confidence: f64,
        /// True capacity in lines recovered by the pin-down phase.
        capacity_lines: u32,
        /// Length of the classified probe vector.
        probe_lines: u32,
        /// Probe bits the winning reference mispredicted (for Random: the
        /// between-trial divergence).
        mismatch_bits: u32,
    },
    /// The probes could not separate the candidates.
    NoResult {
        /// Explanation.
        reason: String,
    },
}

/// Loads line `idx` of the probe buffer and returns the noisy latency.
#[inline]
fn load_line(gpu: &mut Gpu, cfg: &PolicyConfig, base: u64, idx: u64) -> u32 {
    gpu.raw_load(0, 0, cfg.space, cfg.flags, base + idx * cfg.line_bytes)
        .1
}

/// One capacity-predicate pass: flush, prime `m` fresh lines in order,
/// probe them newest-to-oldest, count latencies classified as misses.
fn reverse_probe_misses(
    gpu: &mut Gpu,
    cfg: &PolicyConfig,
    base: u64,
    m: u64,
    threshold: f64,
) -> u64 {
    gpu.flush_caches();
    for i in 0..m {
        load_line(gpu, cfg, base, i);
    }
    (0..m)
        .rev()
        .filter(|&i| f64::from(load_line(gpu, cfg, base, i)) > threshold)
        .count() as u64
}

/// Whether `m` lines fit without eviction. Latency outliers flip an
/// occasional hit into a phantom miss, so a small count passes outright
/// and the ambiguous band gets one confirmation pass.
fn fits(gpu: &mut Gpu, cfg: &PolicyConfig, base: u64, m: u64, threshold: f64) -> bool {
    let cut = 2 + m / 512;
    let first = reverse_probe_misses(gpu, cfg, base, m, threshold);
    if first <= cut {
        true
    } else if first > cut + 4 {
        false
    } else {
        reverse_probe_misses(gpu, cfg, base, m, threshold) <= cut
    }
}

/// One eviction-order trial: prime the capacity, re-access the first
/// half, insert `k` fresh lines, probe everything in order. Returns the
/// hit/miss probe vector (`true` = hit).
fn run_trial(
    gpu: &mut Gpu,
    cfg: &PolicyConfig,
    base: u64,
    n: u64,
    k: u64,
    threshold: f64,
) -> Vec<bool> {
    gpu.flush_caches();
    for i in 0..n {
        load_line(gpu, cfg, base, i);
    }
    for i in 0..n / 2 {
        load_line(gpu, cfg, base, i);
    }
    for i in n..n + k {
        load_line(gpu, cfg, base, i);
    }
    (0..n + k)
        .map(|i| f64::from(load_line(gpu, cfg, base, i)) <= threshold)
        .collect()
}

/// Replays the trial sequence through a fresh fully-associative cache of
/// `candidate` and returns its predicted probe vector. The probe phase is
/// replayed too — a probe miss refills the line and evicts another, and
/// the prediction must track that perturbation.
fn predict(candidate: ReplacementPolicy, n: u64, k: u64, line: u64) -> Vec<bool> {
    let mut cache =
        SectoredCache::new_with_policy(n * line, line, line, FULLY_ASSOCIATIVE, candidate);
    for i in 0..n {
        cache.access(i * line);
    }
    for i in 0..n / 2 {
        cache.access(i * line);
    }
    for i in n..n + k {
        cache.access(i * line);
    }
    (0..n + k)
        .map(|i| matches!(cache.access(i * line), Access::Hit))
        .collect()
}

/// Bits where two probe vectors disagree.
fn hamming(a: &[bool], b: &[bool]) -> u32 {
    a.iter().zip(b).filter(|(x, y)| x != y).count() as u32
}

/// Runs the three-phase replacement-policy discovery.
pub fn run(gpu: &mut Gpu, cfg: &PolicyConfig) -> PolicyOutcome {
    let line = cfg.line_bytes;
    if line == 0 || cfg.size_estimate_bytes < line * 16 {
        return PolicyOutcome::NoResult {
            reason: "cache too small for eviction-order probing (< 16 lines)".into(),
        };
    }
    let m0 = cfg.size_estimate_bytes / line;
    gpu.free_all();
    let buf = match gpu.alloc(cfg.space, (2 * m0 + 2) * line) {
        Ok(b) => b,
        Err(e) => {
            return PolicyOutcome::NoResult {
                reason: format!("probe buffer unallocatable: {e}"),
            }
        }
    };
    let base = gpu.buffer_base(buf);
    let threshold = cfg.hit_latency + 40.0;

    // Phase 1: pin the true capacity down inside [estimate/2, estimate].
    // The oracle replay in phase 3 needs the capacity *exactly* — one line
    // of misalignment desynchronises every predicted eviction — but the
    // fits-boundary is a few lines fuzzy under latency outliers. So the
    // search runs at coarse resolution and then snaps to the nearest
    // round line count (real capacities are power-of-two multiples of the
    // granule), verifying the snap sits on the fit/no-fit edge.
    let capacity = if fits(gpu, cfg, base, m0, threshold) {
        m0 // the estimate is exact (the LRU / SLRU / bypass case)
    } else {
        let mut lo = m0 / 2;
        let mut hi = m0;
        if !fits(gpu, cfg, base, lo, threshold) {
            return PolicyOutcome::NoResult {
                reason: "no eviction-free footprint within the policy inflation envelope \
                         (size estimate more than 2x the capacity?)"
                    .into(),
            };
        }
        let granule = ((m0 / 2).next_power_of_two() / 32).max(16);
        let resolution = (granule / 2).max(1);
        while hi - lo > resolution {
            let mid = lo + (hi - lo) / 2;
            if fits(gpu, cfg, base, mid, threshold) {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let snapped = ((lo + granule / 2) / granule) * granule;
        if snapped != lo
            && snapped > 0
            && snapped < m0
            && fits(gpu, cfg, base, snapped, threshold)
            && !fits(gpu, cfg, base, snapped + resolution.max(8), threshold)
        {
            snapped
        } else {
            lo // oddly-aligned geometry: keep the raw boundary estimate
        }
    };

    // Phase 2: two eviction-order trials over the pinned capacity.
    let n = capacity;
    let k = (3 * n / 4).max(1);
    let t1 = run_trial(gpu, cfg, base, n, k, threshold);
    let t2 = run_trial(gpu, cfg, base, n, k, threshold);
    let total = t1.len() as u32;
    let noise_cut = (total / 64).max(8);

    // Phase 3a: deterministic evictors replay bit-identically after a
    // flush; only a random victim stream (surviving flushes) diverges.
    let divergence = hamming(&t1, &t2);
    if divergence > noise_cut {
        return PolicyOutcome::Found {
            policy: ReplacementPolicy::Random,
            confidence: 1.0 - f64::from(noise_cut) / f64::from(divergence),
            capacity_lines: capacity as u32,
            probe_lines: total,
            mismatch_bits: divergence,
        };
    }

    // Phase 3b: Hamming-nearest reference replay among the deterministic
    // candidates.
    let mut scored: Vec<(ReplacementPolicy, u32)> = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::TreePlru,
        ReplacementPolicy::Slru,
        ReplacementPolicy::Bypass,
    ]
    .into_iter()
    .map(|p| (p, hamming(&t1, &predict(p, n, k, line))))
    .collect();
    scored.sort_by_key(|&(_, d)| d);
    let (best, best_d) = scored[0];
    let (_, second_d) = scored[1];
    if best_d > total / 8 {
        return PolicyOutcome::NoResult {
            reason: format!(
                "no reference policy explains the probe vector \
                 (best candidate {best} mispredicts {best_d}/{total} bits)"
            ),
        };
    }
    if second_d.saturating_sub(best_d) <= noise_cut {
        return PolicyOutcome::NoResult {
            reason: format!(
                "probe vector does not separate the leading candidates \
                 ({best_d} vs {second_d} mispredicted bits of {total})"
            ),
        };
    }
    PolicyOutcome::Found {
        policy: best,
        confidence: 1.0 - f64::from(best_d) / f64::from(total),
        capacity_lines: capacity as u32,
        probe_lines: total,
        mismatch_bits: best_d,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt4g_sim::device::CacheKind;
    use mt4g_sim::gpu::Gpu;
    use mt4g_sim::presets;

    /// Discovery input as the pipeline would provide it: the planted hit
    /// latency and an `inflation`-scaled size estimate standing in for the
    /// LRU-biased p-chase result.
    fn discover(mut gpu: Gpu, kind: CacheKind, inflation_pct: u64) -> PolicyOutcome {
        let spec = *gpu.config.cache(kind).expect("target level planted");
        let cfg = PolicyConfig::new(
            gpu.vendor(),
            spec.size * inflation_pct / 100,
            u64::from(spec.line_size),
            spec.load_latency as f64,
        );
        run(&mut gpu, &cfg)
    }

    fn assert_policy(outcome: PolicyOutcome, expected: ReplacementPolicy) {
        match outcome {
            PolicyOutcome::Found {
                policy,
                confidence,
                capacity_lines,
                ..
            } => {
                assert_eq!(
                    policy, expected,
                    "classified {policy} vs planted {expected}"
                );
                assert!(confidence > 0.6, "confidence {confidence}");
                assert!(capacity_lines > 0);
            }
            PolicyOutcome::NoResult { reason } => {
                panic!("expected {expected}, got no result: {reason}")
            }
        }
    }

    #[test]
    fn h100_l1_classifies_as_exact_lru() {
        // LRU presets: the p-chase estimate is exact.
        assert_policy(
            discover(presets::h100_80(), CacheKind::L1, 100),
            ReplacementPolicy::Lru,
        );
    }

    #[test]
    fn b200_l1_classifies_as_tree_plru() {
        // The p-chase overshoots a PLRU cache by ~1.5x; the pin-down phase
        // must recover the true capacity from that inflated estimate.
        assert_policy(
            discover(presets::b200(), CacheKind::L1, 147),
            ReplacementPolicy::TreePlru,
        );
    }

    #[test]
    fn gb200_l1_classifies_as_slru() {
        assert_policy(
            discover(presets::gb200(), CacheKind::L1, 100),
            ReplacementPolicy::Slru,
        );
    }

    #[test]
    fn rx7900xtx_vl1_classifies_as_tree_plru() {
        assert_policy(
            discover(presets::rx7900xtx(), CacheKind::VL1, 148),
            ReplacementPolicy::TreePlru,
        );
    }

    #[test]
    fn rx9070xt_vl1_classifies_as_random() {
        assert_policy(
            discover(presets::rx9070xt(), CacheKind::VL1, 121),
            ReplacementPolicy::Random,
        );
    }

    #[test]
    fn bypass_l1_classifies_as_streaming() {
        let mut config = presets::h100_80().config;
        config
            .policies
            .push((CacheKind::L1, ReplacementPolicy::Bypass));
        assert_policy(
            discover(Gpu::new(config), CacheKind::L1, 100),
            ReplacementPolicy::Bypass,
        );
    }

    #[test]
    fn tiny_estimate_degrades_honestly() {
        let mut gpu = presets::h100_80();
        let cfg = PolicyConfig::new(Vendor::Nvidia, 256, 128, 38.0);
        assert!(matches!(
            run(&mut gpu, &cfg),
            PolicyOutcome::NoResult { .. }
        ));
    }
}
