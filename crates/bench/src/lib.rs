//! Shared helpers for the table/figure regeneration binaries.
//!
//! Most binaries in `src/bin/` regenerate one table or figure of the MT4G
//! paper; `bench_snapshot` and `bench_gate` record and ratchet the
//! simulator's hot-path timings.
//!
//! # Paper map
//!
//! | Paper reference | Binary |
//! |---|---|
//! | Fig. 1–5 | `fig1` … `fig5` |
//! | Table I/II/III | `table1` … `table3` |
//! | Sec. V-A run times | `runtimes` |
//! | Sec. II-C detector comparison | `ablation_cpd` |
//! | Sec. VI use-case models | `usecase_model` |
//! | Future-work FLOPS extension | `futurework_flops` |
//!
//! The full-matrix bins drive [`mt4g_core::suite::run_discovery`], which
//! since the plan/execute refactor fans discovery units across all cores
//! by default — deterministically, so regenerated tables never depend on
//! the machine's core count.

use mt4g_core::report::Report;
use mt4g_core::suite::{normalize_report, run_discovery, DiscoveryConfig};
use mt4g_sim::device::CacheKind;
use mt4g_sim::gpu::Gpu;

/// Runs a full (thorough but CU-windowed) discovery on a preset and
/// normalises the report rows into Table I order.
///
/// Uses the suite's default `jobs = 0` (all cores): the table/figure bins
/// iterate presets sequentially, so the suite-level fan-out is free
/// wall-clock time — and, by the plan/execute design, changes nothing in
/// the emitted numbers.
pub fn discover(gpu: &mut Gpu) -> Report {
    let cfg = DiscoveryConfig {
        cu_window: 4, // windowed CU scan: identical groups, bench-friendly
        ..DiscoveryConfig::thorough()
    };
    let has_l3 = gpu.config.cache(CacheKind::L3).is_some();
    let mut report = run_discovery(gpu, &cfg);
    normalize_report(&mut report, has_l3);
    report
}

/// Formats an optional f64 with a dash fallback.
pub fn opt_f64(v: Option<f64>, digits: usize) -> String {
    v.map(|x| format!("{x:.digits$}"))
        .unwrap_or_else(|| "—".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opt_f64_formats() {
        assert_eq!(opt_f64(Some(1.234), 2), "1.23");
        assert_eq!(opt_f64(None, 2), "—");
    }
}
