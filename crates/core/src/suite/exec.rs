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
use super::units::{run_unit, MeasuredInputs};
use super::{Attribute, DiscoveryConfig};

/// The serialisable outcome of one executed unit — the quantum a partial
/// report is made of.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
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
    /// Loads the unit's forked GPU walked on the host
    /// ([`Gpu::walked_loads`]). `#[serde(skip)]` like `wall_nanos`: it
    /// counts host work, not device work, so it stays out of the partial
    /// and report bytes.
    #[serde(skip)]
    pub walked_loads: u64,
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
    let mut results: BTreeMap<usize, UnitResult> = BTreeMap::new();

    while results.len() < needed.len() {
        let wave: Vec<usize> = needed
            .iter()
            .copied()
            .filter(|id| {
                !results.contains_key(id)
                    && plan.units()[*id]
                        .deps
                        .iter()
                        .all(|d| results.contains_key(d))
            })
            .collect();
        assert!(!wave.is_empty(), "discovery plan has a dependency cycle");

        let inputs_ref = &inputs;
        let wave_results: Vec<_> = pool.install(|| {
            wave.into_par_iter()
                .map(|id| {
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "per-unit --timings stderr lines; host wall clock never enters the report"
                    )]
                    let t0 = std::time::Instant::now();
                    let (mut result, exported) = run_unit(gpu, cfg, &plan.units()[id], inputs_ref);
                    result.wall_nanos = t0.elapsed().as_nanos() as u64;
                    (result, exported)
                })
                .collect()
        });

        for (result, exported) in wave_results {
            if let Some((kind, m)) = exported {
                inputs.insert(kind, m);
            }
            results.insert(result.unit, result);
        }
    }

    // Per-unit wall clock and work on stderr, in deterministic unit-id
    // order (the times are host-dependent; the report bytes never are).
    if cfg.timings {
        for r in results.values() {
            eprintln!(
                "timing {label}: {ms:.3} ms, {kernels} kernels, {walked} walked loads",
                label = r.label,
                ms = r.wall_nanos as f64 / 1e6,
                kernels = r.kernels_launched,
                walked = r.walked_loads,
            );
        }
        eprintln!(
            "timing total: {ms:.3} ms, {kernels} kernels, {walked} walked loads",
            ms = results.values().map(|r| r.wall_nanos).sum::<u64>() as f64 / 1e6,
            kernels = results.values().map(|r| r.kernels_launched).sum::<u64>(),
            walked = results.values().map(|r| r.walked_loads).sum::<u64>(),
        );
    }

    results
        .into_values()
        .filter(|r| emit.contains(&r.unit))
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

    /// Per-cell work of every registry preset in fast mode, bare and
    /// hostile, plain and with `--tlb --contention --policy`:
    /// (preset, scenario, units, benchmark instances, kernels, ceiling on
    /// host-walked loads).
    const PINNED_WORK: &[(&str, &str, &str, u32, u64, u64)] = &[
        ("P6000", "bare", "plain", 40, 868, 32768),
        ("P6000", "bare", "ext", 43, 982, 59478),
        ("P6000", "hostile", "plain", 40, 872, 32768),
        ("P6000", "hostile", "ext", 40, 872, 32768),
        ("V100", "bare", "plain", 40, 809, 45056),
        ("V100", "bare", "ext", 43, 923, 79126),
        ("V100", "hostile", "plain", 40, 809, 45056),
        ("V100", "hostile", "ext", 40, 809, 45056),
        ("T1000", "bare", "plain", 40, 1026, 32768),
        ("T1000", "bare", "ext", 43, 1140, 60118),
        ("T1000", "hostile", "plain", 40, 896, 33984),
        ("T1000", "hostile", "ext", 40, 896, 33984),
        ("RTX2080", "bare", "plain", 40, 1036, 32768),
        ("RTX2080", "bare", "ext", 43, 1150, 62678),
        ("RTX2080", "hostile", "plain", 40, 950, 43968),
        ("RTX2080", "hostile", "ext", 40, 950, 43968),
        ("A100", "bare", "plain", 40, 1088, 32768),
        ("A100", "bare", "ext", 43, 1211, 92182),
        ("A100", "hostile", "plain", 40, 1002, 50112),
        ("A100", "hostile", "ext", 40, 1002, 50112),
        ("H100-80", "bare", "plain", 40, 970, 32768),
        ("H100-80", "bare", "ext", 43, 1093, 100982),
        ("H100-80", "hostile", "plain", 40, 1014, 32768),
        ("H100-80", "hostile", "ext", 40, 1014, 32768),
        ("H100-96", "bare", "plain", 40, 970, 32768),
        ("H100-96", "bare", "ext", 43, 1093, 100982),
        ("H100-96", "hostile", "plain", 40, 1014, 32768),
        ("H100-96", "hostile", "ext", 40, 1014, 32768),
        ("MI100", "bare", "plain", 23, 1733, 24576),
        ("MI100", "bare", "ext", 26, 1847, 51926),
        ("MI100", "hostile", "plain", 23, 397, 24576),
        ("MI100", "hostile", "ext", 23, 397, 24576),
        ("MI210", "bare", "plain", 23, 1539, 24576),
        ("MI210", "bare", "ext", 26, 1653, 51926),
        ("MI210", "hostile", "plain", 23, 395, 24576),
        ("MI210", "hostile", "ext", 23, 395, 24576),
        ("MI300X", "bare", "plain", 25, 330, 24576),
        ("MI300X", "bare", "ext", 27, 439, 62526),
        ("MI300X", "hostile", "plain", 25, 405, 24576),
        ("MI300X", "hostile", "ext", 25, 405, 24576),
        ("B200", "bare", "plain", 40, 927, 3422570),
        ("B200", "bare", "ext", 43, 1053, 3562518),
        ("B200", "hostile", "plain", 40, 927, 3422570),
        ("B200", "hostile", "ext", 40, 927, 3422570),
        ("GB200", "bare", "plain", 40, 956, 2473362),
        ("GB200", "bare", "ext", 43, 1082, 2575656),
        ("GB200", "hostile", "plain", 40, 956, 2473362),
        ("GB200", "hostile", "ext", 40, 956, 2473362),
        ("RX7900XTX", "bare", "plain", 25, 1456, 90511),
        ("RX7900XTX", "bare", "ext", 28, 1573, 130769),
        ("RX7900XTX", "hostile", "plain", 25, 511, 190709),
        ("RX7900XTX", "hostile", "ext", 25, 511, 190709),
        ("RX9070XT", "bare", "plain", 25, 1310, 301080),
        ("RX9070XT", "bare", "ext", 28, 1427, 340686),
        ("RX9070XT", "hostile", "plain", 25, 955, 472061),
        ("RX9070XT", "hostile", "ext", 25, 955, 472061),
        ("H100-hostile", "bare", "plain", 40, 1014, 32768),
        ("H100-hostile", "bare", "ext", 40, 1014, 32768),
        ("MI210-hostile", "bare", "plain", 23, 395, 24576),
        ("MI210-hostile", "bare", "ext", 23, 395, 24576),
    ];

    /// Pins each cell's work: benchmark instances and kernels exactly,
    /// host-walked loads as a ceiling. Unlike a timing gate, a change that
    /// adds probes or walks more laps fails here the same way on any host.
    /// A change that lowers walked loads tightens the ceilings with it.
    /// `units` selects the plain or the extended (`ext`) half of the table.
    fn assert_pinned_work(units: &str) {
        use mt4g_sim::presets::{Family, Registry};
        use mt4g_sim::scenario::Scenario;

        let ext = units == "ext";
        let mut measured = Vec::new();
        for entry in Registry::global().entries() {
            let mut scenarios = vec![("bare", Scenario::BareMetal)];
            if entry.family != Family::Hostile {
                scenarios.push(("hostile", Scenario::Hostile(Default::default())));
            }
            for (scenario_label, scenario) in scenarios {
                let gpu = scenario.realize(entry.gpu()).expect("scenario applies");
                let cfg = DiscoveryConfig {
                    measure_tlb: ext,
                    measure_contention: ext,
                    measure_policy: ext,
                    jobs: 1,
                    ..DiscoveryConfig::fast()
                };
                let plan = DiscoveryPlan::new(&gpu, &cfg);
                let all: Vec<usize> = (0..plan.len()).collect();
                let results = execute_plan(&gpu, &cfg, &plan, &all, 1);
                measured.push((
                    entry.name,
                    scenario_label,
                    units,
                    results.iter().map(|r| r.benchmarks_run).sum::<u32>(),
                    results.iter().map(|r| r.kernels_launched).sum::<u64>(),
                    results.iter().map(|r| r.walked_loads).sum::<u64>(),
                ));
            }
        }
        let pinned: Vec<_> = PINNED_WORK.iter().filter(|p| p.2 == units).collect();
        let holds = measured.len() == pinned.len()
            && measured
                .iter()
                .zip(pinned)
                .all(|(m, p)| (m.0, m.1, m.2, m.3, m.4) == (p.0, p.1, p.2, p.3, p.4) && m.5 <= p.5);
        let table: String = measured
            .iter()
            .map(|m| format!("        {m:?},\n"))
            .collect();
        assert!(holds, "per-cell work moved; measured:\n{table}");
    }

    #[test]
    fn plain_cells_do_their_pinned_work() {
        assert_pinned_work("plain");
    }

    #[test]
    fn extended_cells_do_their_pinned_work() {
        assert_pinned_work("ext");
    }
}
