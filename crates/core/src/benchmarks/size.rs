//! Cache-size benchmark (paper Sec. IV-B) — the fundamental benchmark the
//! others are conceptually derived from.
//!
//! Workflow, exactly as the paper describes:
//!
//! 1. identify a narrower search interval (exponential doubling from the
//!    lower bound until the latency distribution diverges from the
//!    reference, then binary search to shrink the interval),
//! 2. run p-chase with array sizes across the interval, stepping by the
//!    fetch granularity (finer steps would re-touch sectors, coarser ones
//!    could skip whole cache lines),
//! 3. check for outliers; widen the interval and repeat if found,
//! 4. reduce the 2-D latency array with the geometric mapping (Eq. 2) and
//!    locate the change point with the K-S test; the test's significance
//!    is reported as the confidence metric.

use mt4g_sim::device::{LoadFlags, MemorySpace};
use mt4g_sim::gpu::Gpu;
use mt4g_stats::cpd::{ChangePointDetector, KsChangePointDetector};
use mt4g_stats::{geometric_reduction, ks, outliers};

use crate::pchase::{calibrate_overhead, run_pchase_with_overhead, PchaseConfig};

/// Configuration of one size benchmark.
#[derive(Debug, Clone, Copy)]
pub struct SizeConfig {
    /// Memory space the target cache is reached through.
    pub space: MemorySpace,
    /// Cache-policy flags selecting the level (`.ca`, `.cg`, ...).
    pub flags: LoadFlags,
    /// Fetch granularity of the target cache — the scan step size.
    pub fetch_granularity: u64,
    /// Lower bound of the search space (1 KiB by default; the Constant
    /// L1.5 benchmark starts above the Constant L1 size).
    pub search_lo: u64,
    /// Upper testing limit (64 KiB for the constant path, a comfortable
    /// multiple of the expected size otherwise).
    pub search_cap: u64,
    /// How many latencies to record per array size.
    pub record_n: usize,
    /// Number of scan points in step (2) of the workflow.
    pub scan_points: usize,
    /// K-S significance level.
    pub alpha: f64,
}

impl SizeConfig {
    /// Paper defaults: search space 1 KiB – 1 GiB cap, 256 recorded
    /// latencies, significance 0.05.
    pub fn new(space: MemorySpace, flags: LoadFlags, fetch_granularity: u64) -> Self {
        SizeConfig {
            space,
            flags,
            fetch_granularity,
            search_lo: 1024,
            search_cap: 1 << 30,
            record_n: 256,
            scan_points: 24,
            alpha: 0.05,
        }
    }
}

/// Raw scan data — what the paper's Fig. 2 plots.
#[derive(Debug, Clone)]
pub struct SizeScan {
    /// Array sizes tested (bytes).
    pub sizes: Vec<u64>,
    /// First-N latencies per size (one row per size).
    pub raw: Vec<Vec<f64>>,
    /// Eq. (2) reduction of each row.
    pub reduced: Vec<f64>,
    /// Index of the detected change point into `sizes` (first size of the
    /// new, slower regime).
    pub change_index: Option<usize>,
}

/// Outcome of the size benchmark.
#[derive(Debug, Clone)]
pub enum SizeResult {
    /// A change point was found: the cache holds exactly `bytes`.
    Found {
        /// Measured capacity in bytes.
        bytes: u64,
        /// K-S significance of the winning change point.
        confidence: f64,
        /// The final (finest) scan, for plotting.
        scan: SizeScan,
        /// The boundary confirmation's probes, `(array bytes, fits)` in
        /// the order they ran (`fits` is `None` where a measurement
        /// failed) — the trace `mt4g --debug` prints.
        probes: Vec<(u64, Option<bool>)>,
    },
    /// No distribution change up to the testing cap — the cache is at
    /// least `cap` bytes (the Constant-L1.5 situation; confidence 0).
    ExceedsCap {
        /// The testing cap that was reached.
        cap: u64,
    },
    /// The benchmark could not run (e.g. allocation failure).
    NoResult {
        /// Explanation.
        reason: String,
    },
}

impl SizeResult {
    /// Measured size, if any.
    pub fn bytes(&self) -> Option<u64> {
        match self {
            SizeResult::Found { bytes, .. } => Some(*bytes),
            _ => None,
        }
    }
}

fn align_down(v: u64, step: u64) -> u64 {
    v / step * step
}

/// Runs one p-chase at `array_bytes`, with housekeeping (fresh buffers and
/// cold-ish caches so earlier runs don't alias into this one).
fn measure(gpu: &mut Gpu, cfg: &SizeConfig, array_bytes: u64, overhead: f64) -> Option<Vec<f64>> {
    gpu.free_all();
    gpu.flush_caches();
    let pc = PchaseConfig {
        space: cfg.space,
        flags: cfg.flags,
        array_bytes,
        stride_bytes: cfg.fetch_granularity,
        record_n: cfg.record_n,
        warmup: true,
        sm: 0,
        core: 0,
    };
    run_pchase_with_overhead(gpu, &pc, overhead)
        .ok()
        .map(|r| r.latencies)
}

/// Does the latency distribution at `size` differ from the reference
/// (all-hit) distribution? This is the monotone predicate the interval
/// search exploits: arrays beyond the capacity miss, smaller ones hit.
///
/// The search phase runs this test dozens of times, so pure statistical
/// significance at the CPD's alpha would false-positive on a few percent
/// of probes and strand the interval on the wrong side of the boundary:
/// the K-S screen runs at a fixed 0.001 instead. A genuine capacity
/// transition moves the whole distribution by the gap between adjacent
/// memory levels (tens to hundreds of cycles), so the test additionally
/// demands a practical effect size on the medians.
fn diverges(reference: &[f64], sample: &[f64]) -> bool {
    use mt4g_stats::descriptive::percentile;
    if !ks::ks_test(reference, sample, 0.001).reject {
        return false;
    }
    let ref_med = percentile(reference, 50.0).unwrap_or(0.0);
    let sample_med = percentile(sample, 50.0).unwrap_or(0.0);
    (sample_med - ref_med).abs() > (0.15 * ref_med).max(8.0)
}

/// Runs the size benchmark.
pub fn run(gpu: &mut Gpu, cfg: &SizeConfig) -> SizeResult {
    let fg = cfg.fetch_granularity.max(4);
    let overhead = calibrate_overhead(gpu);
    let lo0 = align_down(cfg.search_lo.max(fg * 4), fg);

    let Some(reference) = measure(gpu, cfg, lo0, overhead) else {
        return SizeResult::NoResult {
            reason: format!("cannot allocate {} B reference array", lo0),
        };
    };

    // (1a) Exponential doubling until the distribution changes.
    let mut lo = lo0;
    let mut hi = None;
    let mut size = lo0 * 2;
    while size <= cfg.search_cap {
        let Some(sample) = measure(gpu, cfg, size, overhead) else {
            return SizeResult::NoResult {
                reason: format!("cannot allocate {size} B array"),
            };
        };
        if diverges(&reference, &sample) {
            hi = Some(size);
            break;
        }
        lo = size;
        size *= 2;
    }
    let Some(mut hi) = hi else {
        // Saturated the testable range without a change — Constant L1.5.
        return SizeResult::ExceedsCap {
            cap: cfg.search_cap,
        };
    };

    // (1b) Binary search to a scannable interval.
    let scan_window = fg * cfg.scan_points as u64;
    while hi - lo > scan_window.max(fg * 8) {
        let mid = align_down(lo + (hi - lo) / 2, fg);
        if mid == lo || mid == hi {
            break;
        }
        let Some(sample) = measure(gpu, cfg, mid, overhead) else {
            return SizeResult::NoResult {
                reason: "allocation failure during binary search".into(),
            };
        };
        if diverges(&reference, &sample) {
            hi = mid;
        } else {
            lo = mid;
        }
    }

    // (2)–(4) Scan + outlier check + K-S change-point detection, refining
    // until the step reaches the fetch granularity.
    let mut attempts = 0;
    loop {
        let step = align_down(((hi - lo) / cfg.scan_points as u64).max(fg), fg);
        let scan = scan_interval(gpu, cfg, lo, hi, step, overhead);

        // Both regimes need enough scan points for the K-S test to place
        // the change point (its minimum segment is 3); if the boundary
        // hugs an edge of the interval, widen that side first.
        let lo_v = scan.reduced.iter().copied().fold(f64::INFINITY, f64::min);
        let hi_v = scan
            .reduced
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        let mid = (lo_v + hi_v) / 2.0;
        let low_side = scan.reduced.iter().take_while(|&&v| v < mid).count();
        let high_side = scan.reduced.len() - low_side;
        if hi_v > lo_v * 4.0 + 64.0 && (low_side < 4 || high_side < 4) {
            attempts += 1;
            if attempts > 6 {
                return SizeResult::NoResult {
                    reason: "change point pinned to the scan edge".into(),
                };
            }
            if low_side < 4 {
                lo = lo.saturating_sub(step * 8).max(lo0);
            }
            if high_side < 4 {
                hi = (hi + step * 8).min(cfg.search_cap);
            }
            continue;
        }

        let detector = KsChangePointDetector::new(cfg.alpha);
        let cp = detector.detect(&scan.reduced);

        match cp {
            Some(cp) if cp.index > 0 => {
                let boundary_lo = scan.sizes[cp.index - 1];
                let boundary_hi = scan.sizes[cp.index];
                if step <= fg {
                    // Largest array size that still fully fits — confirmed
                    // by fresh measurements so that a single outlier-laden
                    // scan row cannot shift the boundary (workflow step 3's
                    // outlier guard, applied at full resolution). When the
                    // walk cannot confirm (oscillating probes or a
                    // measurement failure) the CPD boundary is kept — never
                    // a drifted, unconfirmed walk position — and reported
                    // at half the K-S significance.
                    let (confirmed, probes) =
                        confirm_boundary(gpu, cfg, &reference, boundary_lo, fg, overhead);
                    let (bytes, confidence) = match confirmed {
                        Some(confirmed) => (confirmed, cp.confidence),
                        None => (boundary_lo, cp.confidence * 0.5),
                    };
                    let mut final_scan = scan;
                    final_scan.change_index = Some(cp.index);
                    return SizeResult::Found {
                        bytes,
                        confidence,
                        scan: final_scan,
                        probes,
                    };
                }
                // Refine around the boundary with generous margins so the
                // next, finer scan has full segments on both sides.
                lo = boundary_lo.saturating_sub(step * 6).max(lo0);
                hi = (boundary_hi + step * 6).min(cfg.search_cap);
            }
            _ => {
                // Outliers or an inconclusive scan: widen and retry
                // (workflow step 3).
                attempts += 1;
                if attempts > 6 {
                    return SizeResult::NoResult {
                        reason: "no stable change point after widening".into(),
                    };
                }
                // Widen aggressively: an earlier misstep may have put the
                // whole interval on one side of the boundary, so each
                // retry must cover substantially new ground.
                let width = (hi - lo).max(fg * cfg.scan_points as u64);
                lo = lo.saturating_sub(width * 2).max(lo0);
                hi = (hi + width * 2).min(cfg.search_cap);
            }
        }
    }
}

/// Confirms a candidate capacity with fresh measurements: the reported
/// size must not diverge from the all-hit reference, and size + one fetch
/// granularity must. Walks at most a few steps if either check fails.
/// Returns the walk's verdict with every probe's `(size, fits)`.
///
/// The verdict is `Some(size)` only for a size the pair-check actually
/// *confirmed* — `fits(size)` and `!fits(size + fg)` observed on fresh
/// measurements. `None` signals the caller that no probed size was
/// confirmed: the probes oscillated around the boundary until the walk
/// budget ran out, or a measurement failed. The historical version
/// returned the walk's current position in both of those cases, which is
/// whatever unconfirmed size the last oscillation step happened to land
/// on — indistinguishable from success (see the
/// `oscillating_boundary_*` regression tests).
fn confirm_boundary(
    gpu: &mut Gpu,
    cfg: &SizeConfig,
    reference: &[f64],
    candidate: u64,
    fg: u64,
    overhead: f64,
) -> (Option<u64>, Vec<(u64, Option<bool>)>) {
    let mut probes = Vec::new();
    let confirmed = confirm_boundary_walk(candidate, fg, 4, |size| {
        let fits = measure(gpu, cfg, size, overhead).map(|sample| !diverges(reference, &sample));
        probes.push((size, fits));
        fits
    });
    (confirmed, probes)
}

/// The confirmation walk itself, decoupled from the measurement probe so
/// the oscillation regression tests can plant adversarial probe
/// sequences. `fits` answers "does an array of this size still fully
/// fit?" (`None` = measurement failure).
fn confirm_boundary_walk(
    candidate: u64,
    fg: u64,
    max_steps: usize,
    mut fits: impl FnMut(u64) -> Option<bool>,
) -> Option<u64> {
    let mut c = candidate;
    for _ in 0..max_steps {
        let lo_fits = fits(c);
        let hi_fits = fits(c + fg);
        match (lo_fits, hi_fits) {
            (Some(true), Some(false)) => return Some(c), // confirmed
            (Some(false), _) => c = c.saturating_sub(fg).max(fg), // too high
            (Some(true), Some(true)) => c += fg,         // too low
            _ => return None,                            // measurement failure
        }
    }
    None // walk budget exhausted without a confirmed pair
}

/// Scans `[lo, hi]` with the given step and reduces each row (public so the
/// Fig. 2 harness can plot arbitrary ranges).
pub fn scan_interval(
    gpu: &mut Gpu,
    cfg: &SizeConfig,
    lo: u64,
    hi: u64,
    step: u64,
    overhead: f64,
) -> SizeScan {
    let mut sizes = Vec::new();
    let mut raw = Vec::new();
    // After aggressive widening the step can exceed `lo`; never scan a
    // zero-sized (or sub-granularity) array.
    let step = step.max(1);
    let mut s = align_down(lo, step)
        .max(step)
        .max(cfg.fetch_granularity * 4);
    while s <= hi {
        if let Some(mut lats) = measure(gpu, cfg, s, overhead) {
            // Tame residual hardware spikes before the reduction; the
            // change point itself shifts the whole distribution, which
            // winsorisation at these percentiles preserves.
            if outliers::outlier_fraction(&lats, 6.0) > 0.0 {
                mt4g_stats::outliers::winsorize(&mut lats, 1.0, 99.0);
            }
            sizes.push(s);
            raw.push(lats);
        }
        s += step;
    }
    let reduced = geometric_reduction(&raw);
    SizeScan {
        sizes,
        raw,
        reduced,
        change_index: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt4g_sim::device::CacheKind;
    use mt4g_sim::presets;

    fn size_of(gpu: &mut Gpu, kind: CacheKind, space: MemorySpace, flags: LoadFlags) -> SizeResult {
        let spec = *gpu.config.cache(kind).unwrap();
        let mut cfg = SizeConfig::new(space, flags, spec.fetch_granularity as u64);
        if space == MemorySpace::Constant {
            cfg.search_cap = mt4g_sim::device::CONSTANT_ARRAY_LIMIT;
        }
        run(gpu, &cfg)
    }

    #[test]
    fn finds_t1000_l1_size_exactly() {
        let mut gpu = presets::t1000();
        let truth = gpu.config.cache(CacheKind::L1).unwrap().size;
        let r = size_of(
            &mut gpu,
            CacheKind::L1,
            MemorySpace::Global,
            LoadFlags::CACHE_ALL,
        );
        assert_eq!(r.bytes(), Some(truth), "{r:?}");
    }

    /// A found size carries its confirmation's probes, and a confirmed
    /// size ends them with its pair: the size fits, one granule more does
    /// not.
    #[test]
    fn found_size_ends_its_probes_with_the_confirmed_pair() {
        let mut gpu = presets::t1000();
        let spec = *gpu.config.cache(CacheKind::L1).unwrap();
        let fg = spec.fetch_granularity as u64;
        let SizeResult::Found { bytes, probes, .. } = size_of(
            &mut gpu,
            CacheKind::L1,
            MemorySpace::Global,
            LoadFlags::CACHE_ALL,
        ) else {
            panic!("T1000 L1 size not found");
        };
        assert_eq!(bytes, spec.size);
        assert_eq!(
            probes[probes.len().saturating_sub(2)..],
            [(bytes, Some(true)), (bytes + fg, Some(false))],
            "{probes:?}"
        );
    }

    #[test]
    fn finds_h100_const_l1_size() {
        let mut gpu = presets::h100_80();
        let r = size_of(
            &mut gpu,
            CacheKind::ConstL1,
            MemorySpace::Constant,
            LoadFlags::CACHE_ALL,
        );
        assert_eq!(r.bytes(), Some(2048), "{r:?}");
        if let SizeResult::Found { confidence, .. } = r {
            assert!(confidence > 0.9);
        }
    }

    #[test]
    fn h100_const_l15_exceeds_the_64kib_cap() {
        let mut gpu = presets::h100_80();
        let cl1 = gpu.config.cache(CacheKind::ConstL1).unwrap().size;
        let spec = *gpu.config.cache(CacheKind::ConstL15).unwrap();
        let cfg = SizeConfig {
            search_lo: cl1 * 2,
            search_cap: mt4g_sim::device::CONSTANT_ARRAY_LIMIT,
            ..SizeConfig::new(
                MemorySpace::Constant,
                LoadFlags::CACHE_ALL,
                spec.fetch_granularity as u64,
            )
        };
        let r = run(&mut gpu, &cfg);
        assert!(matches!(r, SizeResult::ExceedsCap { cap: 65536 }), "{r:?}");
    }

    #[test]
    fn t1000_const_l15_is_within_the_cap() {
        // T1000's CL1.5 is planted at 32 KiB < 64 KiB — discoverable.
        let mut gpu = presets::t1000();
        let cl1 = gpu.config.cache(CacheKind::ConstL1).unwrap().size;
        let truth = gpu.config.cache(CacheKind::ConstL15).unwrap().size;
        let spec = *gpu.config.cache(CacheKind::ConstL15).unwrap();
        let cfg = SizeConfig {
            search_lo: cl1 * 2,
            search_cap: mt4g_sim::device::CONSTANT_ARRAY_LIMIT,
            ..SizeConfig::new(
                MemorySpace::Constant,
                LoadFlags::CACHE_ALL,
                spec.fetch_granularity as u64,
            )
        };
        let r = run(&mut gpu, &cfg);
        assert_eq!(r.bytes(), Some(truth), "{r:?}");
    }

    #[test]
    fn finds_mi210_vl1_size() {
        let mut gpu = presets::mi210();
        let truth = gpu.config.cache(CacheKind::VL1).unwrap().size;
        let r = size_of(
            &mut gpu,
            CacheKind::VL1,
            MemorySpace::Vector,
            LoadFlags::CACHE_ALL,
        );
        assert_eq!(r.bytes(), Some(truth), "{r:?}");
    }

    #[test]
    fn finds_mi210_sl1d_size() {
        let mut gpu = presets::mi210();
        let truth = gpu.config.cache(CacheKind::SL1D).unwrap().size;
        let r = size_of(
            &mut gpu,
            CacheKind::SL1D,
            MemorySpace::Scalar,
            LoadFlags::CACHE_ALL,
        );
        assert_eq!(r.bytes(), Some(truth), "{r:?}");
    }

    #[test]
    fn finds_t1000_l2_segment_size_with_cg_loads() {
        let mut gpu = presets::t1000();
        let truth = gpu.config.cache(CacheKind::L2).unwrap().size;
        let spec = *gpu.config.cache(CacheKind::L2).unwrap();
        let cfg = SizeConfig {
            search_lo: 4096,
            ..SizeConfig::new(
                MemorySpace::Global,
                LoadFlags::CACHE_GLOBAL,
                spec.fetch_granularity as u64,
            )
        };
        let r = run(&mut gpu, &cfg);
        assert_eq!(r.bytes(), Some(truth), "{r:?}");
    }

    /// The historical `confirm_boundary` algorithm, kept verbatim as the
    /// regression reference: it returns the walk's current position when
    /// the step budget runs out or a measurement fails — an *unconfirmed*
    /// size indistinguishable from a confirmed one.
    fn old_confirm_boundary(
        candidate: u64,
        fg: u64,
        mut fits: impl FnMut(u64) -> Option<bool>,
    ) -> u64 {
        let mut c = candidate;
        for _ in 0..4 {
            let lo_fits = fits(c);
            let hi_fits = fits(c + fg);
            match (lo_fits, hi_fits) {
                (Some(true), Some(false)) => return c,
                (Some(false), _) => c = c.saturating_sub(fg).max(fg),
                (Some(true), Some(true)) => c += fg,
                _ => return c,
            }
        }
        c
    }

    /// A probe that oscillates at a planted boundary `b`: sizes strictly
    /// below fit, sizes strictly above don't, and `b` itself flips on
    /// every probe (a noisy measurement straddling the cliff). The
    /// `(Some(false), _)` and `(Some(true), Some(true))` arms then bounce
    /// the walk between `b` and `b - fg` forever without ever observing a
    /// confirmed `(fits, !fits)` pair.
    fn oscillating_probe(b: u64) -> impl FnMut(u64) -> Option<bool> {
        let mut flaky_calls = 0u32;
        move |size: u64| {
            Some(if size == b {
                flaky_calls += 1;
                flaky_calls.is_multiple_of(2) // false, true, false, true, ...
            } else {
                size < b
            })
        }
    }

    #[test]
    fn oscillating_boundary_old_walk_returned_an_unconfirmed_size() {
        let fg = 64u64;
        let b = 4096u64;
        // Track every (size, answer) the probe gave so the test can prove
        // the returned size was never part of a confirmed pair.
        let mut confirmed_at: Vec<u64> = Vec::new();
        let mut probe = oscillating_probe(b);
        let mut last: Option<(u64, bool)> = None;
        let result = old_confirm_boundary(b, fg, |size| {
            let fits = probe(size).unwrap();
            if let Some((lo_size, lo_fits)) = last.take() {
                if size == lo_size + fg && lo_fits && !fits {
                    confirmed_at.push(lo_size);
                }
            }
            last = Some((size, fits));
            Some(fits)
        });
        // The old code hands back a size...
        assert_eq!(result, b);
        // ...that no probe pair ever confirmed.
        assert!(
            !confirmed_at.contains(&result),
            "old walk returned {result}, confirmed sizes: {confirmed_at:?}"
        );
    }

    #[test]
    fn oscillating_boundary_new_walk_signals_unconfirmed() {
        let fg = 64u64;
        let b = 4096u64;
        assert_eq!(
            confirm_boundary_walk(b, fg, 4, oscillating_probe(b)),
            None,
            "an oscillating boundary must be reported as unconfirmed"
        );
    }

    #[test]
    fn measurement_failure_is_distinguishable_from_success() {
        // The old code's `_ => return c` arm conflated "probe failed" with
        // "confirmed at c"; the new walk signals the failure.
        assert_eq!(confirm_boundary_walk(4096, 64, 4, |_| None), None);
    }

    #[test]
    fn clean_boundaries_confirm_exactly() {
        let fg = 64u64;
        let b = 4096u64;
        let monotone = |size: u64| Some(size <= b);
        // Spot-on candidate, one step low, one step high: all converge on
        // the planted boundary.
        for candidate in [b, b - fg, b + fg] {
            assert_eq!(
                confirm_boundary_walk(candidate, fg, 4, monotone),
                Some(b),
                "candidate {candidate}"
            );
        }
    }

    #[test]
    fn scan_data_has_visible_cliff() {
        let mut gpu = presets::t1000();
        let spec = *gpu.config.cache(CacheKind::ConstL1).unwrap();
        let cfg = SizeConfig::new(
            MemorySpace::Constant,
            LoadFlags::CACHE_ALL,
            spec.fetch_granularity as u64,
        );
        let overhead = calibrate_overhead(&mut gpu);
        let scan = scan_interval(&mut gpu, &cfg, 1024, 4096, 256, overhead);
        // Reduced values below the 2 KiB boundary are near zero, above it
        // they are large.
        let below: f64 = scan
            .sizes
            .iter()
            .zip(&scan.reduced)
            .filter(|(s, _)| **s <= 2048)
            .map(|(_, r)| *r)
            .sum();
        let above: f64 = scan
            .sizes
            .iter()
            .zip(&scan.reduced)
            .filter(|(s, _)| **s > 2048)
            .map(|(_, r)| *r)
            .sum();
        assert!(above > below * 5.0, "above {above} below {below}");
    }
}
