//! Orchestration of the full MT4G discovery run, as a
//! **plan → execute → merge** pipeline.
//!
//! Mirrors the real tool's flow: general and compute information comes
//! from the (emulated) vendor APIs plus the cores-per-SM lookup table;
//! every memory attribute that no API exposes is reverse-engineered by the
//! benchmark families of [`crate::benchmarks`], in dependency order —
//! latency first (the classifiers need it), then fetch granularity (the
//! size scan steps by it), then size, then the structural benchmarks
//! (line size, amount, segmentation, physical sharing), and finally
//! bandwidth. NVIDIA runs ~35 benchmark instances, AMD ~15 (paper
//! Sec. V-A); the exact counts are tallied in the report.
//!
//! The run is decomposed into three layers:
//!
//! * [`DiscoveryPlan`] deterministically enumerates the independent work
//!   units (one per memory-element family, one per FLOPS engine, one for
//!   physical sharing) and their data dependencies.
//! * [`execute_plan`] fans units out across threads (`--jobs`) or runs a
//!   shard subset; each unit forks its own GPU with a label-derived RNG
//!   stream, so the schedule cannot change any measured value.
//! * [`run_shard`] / [`merge_partials`] serialise shard outputs so CI can
//!   split the validation matrix across jobs (`--shard i/n` + `mt4g
//!   merge`) and still produce a report byte-identical to a
//!   single-process run.
//!
//! [`run_discovery`] is the turnkey entry point: plan everything, execute
//! everything, assemble the report.

mod exec;
mod job;
mod partial;
mod plan;
mod units;

pub use exec::{execute_plan, UnitResult};
pub use job::{Job, JobError, JobOutput, JobResult, JobSpec, Selection};
pub use partial::{
    merge_partials, partial_from_json, partial_to_json, run_shard, MergeError, PartialReport,
    PARTIAL_FORMAT,
};
pub use plan::{DiscoveryPlan, PlanUnit};

use mt4g_sim::api;
use mt4g_sim::device::{CacheKind, Vendor};
use mt4g_sim::gpu::Gpu;

use crate::lookup;
use crate::report::{Attribute, ComputeInfo, DeviceInfo, LatencyReport, Report};

/// Tuning knobs of a discovery run.
#[derive(Debug, Clone)]
pub struct DiscoveryConfig {
    /// K-S significance level for change-point detection.
    pub alpha: f64,
    /// Latencies recorded per p-chase ("first N").
    pub record_n: usize,
    /// Scan points per size-benchmark stage.
    pub scan_points: usize,
    /// Restrict discovery to these memory elements (CLI `--only`); `None`
    /// = everything.
    pub only: Option<Vec<CacheKind>>,
    /// Windowed CU-sharing scan span (0 = exhaustive all-pairs, the
    /// paper's no-assumptions mode).
    pub cu_window: usize,
    /// Whether to run the bandwidth benchmarks.
    pub measure_bandwidth: bool,
    /// Whether to run the FLOPS/tensor-engine benchmarks — the paper's
    /// future-work extension, on by default in this reproduction.
    pub measure_flops: bool,
    /// Whether to run the TLB-reach discovery (CLI `--tlb`). Off by
    /// default: the TLB section is an extension beyond the paper's
    /// Table I, and keeping it opt-in leaves the Table II reports
    /// byte-stable across tool versions.
    pub measure_tlb: bool,
    /// Whether to run the shared-L2 contention benchmark (CLI
    /// `--contention`). Off by default, like [`Self::measure_tlb`].
    pub measure_contention: bool,
    /// Whether to run the replacement-policy probe against the vendor's
    /// first-level data cache (CLI `--policy`). Off by default, like
    /// [`Self::measure_tlb`].
    pub measure_policy: bool,
    /// Trace boundary-confirmation walks to stderr (CLI `--debug`) —
    /// the successor of the old undocumented `MT4G_DEBUG` env sniffing.
    /// Purely diagnostic: it never changes a measurement, so it stays out
    /// of the plan fingerprint.
    pub debug: bool,
    /// Append per-unit host wall-clock and work (kernels, host-walked
    /// loads) lines to stderr (CLI `--timings`).
    /// Like [`Self::debug`], purely diagnostic: host timing never enters
    /// the report bytes, so it stays out of the plan fingerprint too.
    pub timings: bool,
    /// Worker threads for independent discovery units (CLI `--jobs`;
    /// `0` = all available cores). Any value produces the same report —
    /// parallelism only changes wall-clock time.
    pub jobs: usize,
}

impl Default for DiscoveryConfig {
    fn default() -> Self {
        DiscoveryConfig {
            alpha: 0.05,
            record_n: 256,
            scan_points: 24,
            only: None,
            cu_window: 0,
            measure_bandwidth: true,
            measure_flops: true,
            measure_tlb: false,
            measure_contention: false,
            measure_policy: false,
            debug: false,
            timings: false,
            jobs: 0,
        }
    }
}

impl DiscoveryConfig {
    /// Full-fidelity configuration (exhaustive CU pairs).
    pub fn thorough() -> Self {
        Self::default()
    }

    /// A faster configuration for tests and interactive runs: coarser
    /// scans and a windowed CU-sharing pass (the paper's CLI offers the
    /// same trade-off to cut the ~15 min run time).
    pub fn fast() -> Self {
        DiscoveryConfig {
            record_n: 192,
            scan_points: 16,
            cu_window: 4,
            ..Self::default()
        }
    }

    fn wants(&self, kind: CacheKind) -> bool {
        self.only.as_ref().is_none_or(|ks| ks.contains(&kind))
    }
}

/// Builds the report header from the vendor APIs (paper Sec. III-A/B) —
/// fully deterministic, no benchmarks involved.
pub fn report_header(gpu: &Gpu) -> (DeviceInfo, ComputeInfo) {
    let props = api::device_props(gpu);
    let device = DeviceInfo {
        name: props.name.clone(),
        vendor: props.vendor,
        compute_capability: props.compute_capability.clone(),
        clock_mhz: props.clock_mhz,
        mem_clock_mhz: props.mem_clock_mhz,
        bus_width_bits: props.bus_width_bits,
    };
    let compute = ComputeInfo {
        num_sms: props.num_sms,
        cores_per_sm: lookup::cores_per_sm_by_cc(&props.compute_capability)
            .unwrap_or(props.warp_size),
        warp_size: props.warp_size,
        warps_per_sm: props.max_threads_per_sm / props.warp_size.max(1),
        max_blocks_per_sm: props.max_blocks_per_sm,
        max_threads_per_block: props.max_threads_per_block,
        max_threads_per_sm: props.max_threads_per_sm,
        regs_per_block: props.regs_per_block,
        regs_per_sm: props.regs_per_sm,
        cu_physical_ids: api::logical_to_physical_cu(gpu),
    };
    (device, compute)
}

/// Runs the complete discovery and produces the MT4G report.
///
/// Plans the run, executes every unit (in parallel per
/// [`DiscoveryConfig::jobs`]), and assembles the merged report. The result
/// is byte-identical for every `jobs` value and to any sharded run merged
/// with [`merge_partials`].
pub fn run_discovery(gpu: &mut Gpu, cfg: &DiscoveryConfig) -> Report {
    let plan = DiscoveryPlan::new(gpu, cfg);
    let selection: Vec<usize> = (0..plan.len()).collect();
    let results = execute_plan(gpu, cfg, &plan, &selection, cfg.jobs);
    let (device, compute) = report_header(gpu);
    exec::assemble_report(device, compute, &results)
}

/// Convenience: `LatencyReport` from an attribute, for downstream models.
pub fn mean_latency(attr: &Attribute<LatencyReport>) -> Option<f64> {
    attr.value().map(|l| l.mean)
}

/// Elements a vendor's report is expected to contain, in Table I order —
/// used by the coverage matrix and the suite tests.
pub fn expected_elements(vendor: Vendor, has_l3: bool) -> Vec<CacheKind> {
    match vendor {
        Vendor::Nvidia => vec![
            CacheKind::L1,
            CacheKind::L2,
            CacheKind::Texture,
            CacheKind::Readonly,
            CacheKind::ConstL1,
            CacheKind::ConstL15,
            CacheKind::SharedMemory,
            CacheKind::DeviceMemory,
        ],
        Vendor::Amd => {
            let mut v = vec![CacheKind::VL1, CacheKind::SL1D, CacheKind::L2];
            if has_l3 {
                v.push(CacheKind::L3);
            }
            v.push(CacheKind::Lds);
            v.push(CacheKind::DeviceMemory);
            v
        }
    }
}

/// Ensures all expected rows exist in the report (filling gaps with empty
/// rows) and orders them canonically.
pub fn normalize_report(report: &mut Report, has_l3: bool) {
    let order = expected_elements(report.device.vendor, has_l3);
    for kind in &order {
        report.element_mut(*kind);
    }
    report.memory.sort_by_key(|m| {
        order
            .iter()
            .position(|k| *k == m.kind)
            .unwrap_or(usize::MAX)
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt4g_sim::presets;

    #[test]
    fn fast_config_is_cheaper_than_thorough() {
        let fast = DiscoveryConfig::fast();
        let full = DiscoveryConfig::thorough();
        assert!(fast.scan_points < full.scan_points);
        assert!(fast.cu_window > 0);
        assert_eq!(full.cu_window, 0);
    }

    #[test]
    fn only_filter_restricts_elements() {
        let mut gpu = presets::t1000();
        let cfg = DiscoveryConfig {
            only: Some(vec![CacheKind::ConstL1]),
            measure_bandwidth: false,
            ..DiscoveryConfig::fast()
        };
        let report = run_discovery(&mut gpu, &cfg);
        let cl1 = report.element(CacheKind::ConstL1).unwrap();
        assert_eq!(cl1.size.value(), Some(&2048));
        // L1 was skipped entirely.
        assert!(report
            .element(CacheKind::L1)
            .is_none_or(|e| !e.size.is_available()));
    }

    /// An `--only` run reports nothing about the elements it excluded:
    /// on every preset and for each of its elements, every other row is
    /// all `NotApplicable`.
    #[test]
    fn only_runs_leave_every_other_row_empty() {
        use crate::report::MemoryElementReport;
        use mt4g_sim::presets::Registry;

        let mut stray = Vec::new();
        for entry in Registry::global().entries() {
            let gpu = entry.gpu();
            let has_l3 = gpu.config.cache(CacheKind::L3).is_some();
            for kind in expected_elements(gpu.vendor(), has_l3) {
                let cfg = DiscoveryConfig {
                    only: Some(vec![kind]),
                    jobs: 1,
                    ..DiscoveryConfig::fast()
                };
                let report = run_discovery(&mut entry.gpu(), &cfg);
                stray.extend(
                    report
                        .memory
                        .iter()
                        .filter(|row| {
                            row.kind != kind && **row != MemoryElementReport::empty(row.kind)
                        })
                        .map(|row| format!("{} --only {kind:?}: {:?}", entry.name, row.kind)),
                );
            }
        }
        assert!(stray.is_empty(), "{} stray rows: {stray:#?}", stray.len());
    }

    #[test]
    fn flops_extension_reports_every_engine() {
        let mut gpu = presets::t1000();
        let cfg = DiscoveryConfig {
            only: None,
            measure_bandwidth: false,
            ..DiscoveryConfig::fast()
        };
        let report = run_discovery(&mut gpu, &cfg);
        assert_eq!(
            report.compute_throughput.len(),
            mt4g_sim::compute::DType::ALL.len()
        );
        // Turing has tensor cores; the entry is measured.
        let tc = report
            .compute_throughput
            .iter()
            .find(|e| e.dtype == mt4g_sim::compute::DType::TensorFp16)
            .unwrap();
        assert!(tc.achieved_gflops.is_available());
    }

    #[test]
    fn pascal_flops_extension_marks_missing_tensor_engine() {
        let mut gpu = presets::p6000();
        let cfg = DiscoveryConfig {
            only: None,
            measure_bandwidth: false,
            ..DiscoveryConfig::fast()
        };
        let report = run_discovery(&mut gpu, &cfg);
        let tc = report
            .compute_throughput
            .iter()
            .find(|e| e.dtype == mt4g_sim::compute::DType::TensorFp16)
            .unwrap();
        assert!(matches!(tc.achieved_gflops, Attribute::Unavailable { .. }));
    }

    #[test]
    fn expected_elements_cover_both_vendors() {
        assert_eq!(expected_elements(Vendor::Nvidia, false).len(), 8);
        assert_eq!(expected_elements(Vendor::Amd, true).len(), 6);
        assert_eq!(expected_elements(Vendor::Amd, false).len(), 5);
    }
}
