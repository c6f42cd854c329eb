//! The plan executor: fans discovery units out across threads and
//! reassembles their outputs deterministically.
//!
//! Execution proceeds in dependency waves: every unit whose dependencies
//! have completed is eligible, and eligible units of a wave run
//! concurrently on the vendored rayon's scoped threads (bounded by
//! `--jobs` via [`rayon::ThreadPool::install`]). Because every unit forks
//! its own GPU with a label-derived RNG stream, the schedule — thread
//! count, wave composition, even which process runs a unit — cannot
//! change any measured value; it only changes wall-clock time.

use std::collections::{BTreeMap, BTreeSet};

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use mt4g_sim::gpu::Gpu;

use crate::report::{
    ComputeInfo, ContentionReport, DeviceInfo, FlopsEntry, MemoryElementReport, PolicyReport,
    Report, RuntimeInfo, TlbReport,
};

use super::plan::DiscoveryPlan;
use super::units::{run_unit, MeasuredInputs, UnitOutput};
use super::{Attribute, DiscoveryConfig};

/// The serialisable outcome of one executed unit — the quantum a partial
/// report is made of.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UnitResult {
    /// The unit's id in its plan.
    pub unit: usize,
    /// The unit's stable label (sanity-checked on merge).
    pub label: String,
    /// Report rows this unit filled in.
    pub elements: Vec<MemoryElementReport>,
    /// FLOPS-extension entries this unit produced.
    pub flops: Vec<FlopsEntry>,
    /// TLB rows this unit produced (`#[serde(default)]` so pre-TLB
    /// partials still parse — they refuse to merge on format anyway).
    #[serde(default)]
    pub tlb: Vec<TlbReport>,
    /// Contention rows this unit produced.
    #[serde(default)]
    pub contention: Vec<ContentionReport>,
    /// Replacement-policy rows this unit produced.
    #[serde(default)]
    pub policy: Vec<PolicyReport>,
    /// Host wall-clock the unit took to execute, in nanoseconds.
    /// `#[serde(skip)]` — host timing is machine-dependent and must never
    /// enter the canonical partial/report bytes; it only feeds the
    /// `--timings` stderr trace and the `suite_wallclock` bench phases.
    #[serde(skip)]
    pub wall_nanos: u64,
    /// Benchmark instances executed (Sec. V-A accounting).
    pub benchmarks_run: u32,
    /// Kernels launched on the unit's forked GPU.
    pub kernels_launched: u64,
    /// Loads executed on the unit's forked GPU.
    pub loads_executed: u64,
    /// Simulated GPU cycles the unit consumed.
    pub gpu_cycles: u64,
}

/// Executes the selected units of `plan` (plus any dependencies not in the
/// selection, whose outputs feed dependents but are *not* emitted) and
/// returns the selection's results in unit-id order.
///
/// `jobs` bounds the worker threads (`0` = all available cores). The
/// returned results are independent of `jobs` and of which other units run
/// in the same process — the determinism the shard/merge path relies on.
pub fn execute_plan(
    gpu: &Gpu,
    cfg: &DiscoveryConfig,
    plan: &DiscoveryPlan,
    selection: &[usize],
    jobs: usize,
) -> Vec<UnitResult> {
    let emit: BTreeSet<usize> = selection.iter().copied().collect();
    for &id in &emit {
        assert!(id < plan.len(), "selected unit {id} outside plan");
    }

    // Dependency closure: a shard that holds `nv.sharing` but not `nv.l1`
    // recomputes `nv.l1` locally (bit-identical) without emitting it.
    let mut needed = emit.clone();
    let mut stack: Vec<usize> = needed.iter().copied().collect();
    while let Some(id) = stack.pop() {
        for &dep in &plan.units()[id].deps {
            if needed.insert(dep) {
                stack.push(dep);
            }
        }
    }

    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(jobs)
        .build()
        .expect("mini-rayon pool construction is infallible");

    let mut inputs: MeasuredInputs = MeasuredInputs::new();
    let mut done: BTreeSet<usize> = BTreeSet::new();
    let mut outputs: BTreeMap<usize, (UnitOutput, u64)> = BTreeMap::new();

    while done.len() < needed.len() {
        let wave: Vec<usize> = needed
            .iter()
            .copied()
            .filter(|id| {
                !done.contains(id) && plan.units()[*id].deps.iter().all(|d| done.contains(d))
            })
            .collect();
        assert!(!wave.is_empty(), "discovery plan has a dependency cycle");

        let inputs_ref = &inputs;
        let wave_outputs: Vec<(usize, UnitOutput, u64)> = pool.install(|| {
            wave.into_par_iter()
                .map(|id| {
                    let unit = &plan.units()[id];
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "per-unit --timings stderr lines; host wall clock never enters the report"
                    )]
                    let t0 = std::time::Instant::now();
                    let output = run_unit(gpu, cfg, unit.kind, unit.stream(), inputs_ref);
                    (id, output, t0.elapsed().as_nanos() as u64)
                })
                .collect()
        });

        for (id, output, nanos) in wave_outputs {
            for &(kind, m) in &output.measured {
                inputs.insert(kind, m);
            }
            done.insert(id);
            outputs.insert(id, (output, nanos));
        }
    }

    // Per-unit wall clock on stderr, in deterministic unit-id order (the
    // values themselves are host-dependent; the report bytes never are).
    if cfg.timings {
        let total: u64 = outputs.values().map(|(_, nanos)| nanos).sum();
        for (id, (_, nanos)) in &outputs {
            eprintln!(
                "timing {label}: {ms:.3} ms",
                label = plan.units()[*id].label,
                ms = *nanos as f64 / 1e6,
            );
        }
        eprintln!("timing total: {ms:.3} ms", ms = total as f64 / 1e6);
    }

    outputs
        .into_iter()
        .filter(|(id, _)| emit.contains(id))
        .map(|(id, (output, wall_nanos))| UnitResult {
            unit: id,
            label: plan.units()[id].label.clone(),
            elements: output.elements,
            flops: output.flops,
            tlb: output.tlb,
            contention: output.contention,
            policy: output.policy,
            wall_nanos,
            benchmarks_run: output.benchmarks_run,
            kernels_launched: output.stats.kernels_launched,
            loads_executed: output.stats.loads_executed,
            gpu_cycles: output.stats.total_cycles,
        })
        .collect()
}

/// Folds unit results (which must be in unit-id order) into a full report.
pub(crate) fn assemble_report(
    device: DeviceInfo,
    compute: ComputeInfo,
    results: &[UnitResult],
) -> Report {
    let mut report = Report {
        device,
        compute,
        memory: Vec::new(),
        compute_throughput: Vec::new(),
        tlb: Vec::new(),
        contention: Vec::new(),
        policy: Vec::new(),
        runtime: RuntimeInfo::default(),
    };
    let mut runtime = RuntimeInfo::default();
    for result in results {
        for row in &result.elements {
            merge_row(report.element_mut(row.kind), row);
        }
        report
            .compute_throughput
            .extend(result.flops.iter().cloned());
        report.tlb.extend(result.tlb.iter().cloned());
        report.contention.extend(result.contention.iter().cloned());
        report.policy.extend(result.policy.iter().cloned());
        runtime.benchmarks_run += result.benchmarks_run;
        runtime.kernels_launched += result.kernels_launched;
        runtime.loads_executed += result.loads_executed;
        runtime.gpu_cycles += result.gpu_cycles;
    }
    report.runtime = runtime;
    report
}

/// Merges a unit's row into the report row of the same element. Units
/// only ever set disjoint attributes (e.g. the element unit measures the
/// L1 geometry, the sharing unit its `shared_with`), so "every explicitly
/// set attribute wins over the `NotApplicable` placeholder" is a lossless
/// rule.
fn merge_row(dst: &mut MemoryElementReport, src: &MemoryElementReport) {
    merge_attr(&mut dst.size, &src.size);
    merge_attr(&mut dst.load_latency, &src.load_latency);
    merge_attr(&mut dst.read_bandwidth_gibs, &src.read_bandwidth_gibs);
    merge_attr(&mut dst.write_bandwidth_gibs, &src.write_bandwidth_gibs);
    merge_attr(&mut dst.cache_line_bytes, &src.cache_line_bytes);
    merge_attr(
        &mut dst.fetch_granularity_bytes,
        &src.fetch_granularity_bytes,
    );
    merge_attr(&mut dst.amount, &src.amount);
    merge_attr(&mut dst.shared_with, &src.shared_with);
}

fn merge_attr<T: Clone>(dst: &mut Attribute<T>, src: &Attribute<T>) {
    if !matches!(src, Attribute::NotApplicable) {
        *dst = src.clone();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::to_json_pretty;
    use crate::suite::{normalize_report, report_header, run_discovery};
    use mt4g_sim::presets;

    fn fast_no_flops() -> DiscoveryConfig {
        DiscoveryConfig {
            measure_bandwidth: false,
            measure_flops: false,
            ..DiscoveryConfig::fast()
        }
    }

    #[test]
    fn jobs_count_does_not_change_the_report() {
        let cfg = fast_no_flops();
        let reports: Vec<String> = [1usize, 4]
            .iter()
            .map(|&jobs| {
                let mut gpu = presets::t1000();
                let cfg = DiscoveryConfig {
                    jobs,
                    ..cfg.clone()
                };
                let mut report = run_discovery(&mut gpu, &cfg);
                normalize_report(&mut report, false);
                to_json_pretty(&report).unwrap()
            })
            .collect();
        assert_eq!(reports[0], reports[1]);
    }

    #[test]
    fn sharded_execution_merges_to_the_full_report() {
        let cfg = fast_no_flops();
        let gpu = presets::t1000();
        let plan = DiscoveryPlan::new(&gpu, &cfg);
        let (device, compute) = report_header(&gpu);

        let all: Vec<usize> = (0..plan.len()).collect();
        let full = assemble_report(
            device.clone(),
            compute.clone(),
            &execute_plan(&gpu, &cfg, &plan, &all, 1),
        );

        let mut shard_results: Vec<UnitResult> = (1..=3)
            .flat_map(|i| execute_plan(&gpu, &cfg, &plan, &plan.shard(i, 3), 2))
            .collect();
        shard_results.sort_by_key(|r| r.unit);
        let merged = assemble_report(device, compute, &shard_results);

        let mut full = full;
        let mut merged = merged;
        normalize_report(&mut full, false);
        normalize_report(&mut merged, false);
        assert_eq!(
            to_json_pretty(&full).unwrap(),
            to_json_pretty(&merged).unwrap()
        );
    }

    #[test]
    fn dependencies_outside_a_shard_are_recomputed_not_emitted() {
        let cfg = fast_no_flops();
        let gpu = presets::t1000();
        let plan = DiscoveryPlan::new(&gpu, &cfg);
        let sharing = plan
            .units()
            .iter()
            .find(|u| u.label == "nv.sharing")
            .expect("sharing unit present")
            .id;
        let results = execute_plan(&gpu, &cfg, &plan, &[sharing], 1);
        assert_eq!(results.len(), 1, "only the selected unit is emitted");
        assert_eq!(results[0].unit, sharing);
        // The sharing verdict matches what a full run reports.
        let row = results[0]
            .elements
            .iter()
            .find(|e| e.kind == mt4g_sim::device::CacheKind::L1)
            .expect("L1 sharing row");
        assert!(row.shared_with.is_available());
    }
}
