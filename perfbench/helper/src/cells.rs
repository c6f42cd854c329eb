//! Discovery cells: which (preset, scenario, device seed) a workload runs,
//! and the calls into the suite that execute, serialize and validate one.

use mt4g_core::report::{to_json_pretty, Report};
use mt4g_core::suite::{
    execute_plan, merge_partials, normalize_report, report_header, DiscoveryConfig, DiscoveryPlan,
    PartialReport, UnitResult, PARTIAL_FORMAT,
};
use mt4g_core::validate::validate_scenario;
use mt4g_sim::device::{CacheKind, DeviceConfig};
use mt4g_sim::gpu::Gpu;
use mt4g_sim::presets::Registry;
use mt4g_sim::scenario::{HostileProfile, Scenario};

/// Presets of the `small-cells` workload (and of the serve mix).
pub const SMALL_PRESETS: [&str; 7] = [
    "T1000",
    "MI100",
    "MI210",
    "MI300X",
    "RX7900XTX",
    "RX9070XT",
    "MI210-hostile",
];

/// Device seeds every `small-cells` cell runs under.
pub const DEVICE_SEEDS: u64 = 10;

/// Unit fan-out of a discovery cell (`DiscoveryConfig::jobs`).
pub const UNIT_JOBS: usize = 2;

/// SplitMix64 finalizer: a bijective 64-bit mix.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The `k`-th device seed derived from a workload seed.
pub fn device_seed(workload_seed: u64, k: u64) -> u64 {
    splitmix64(splitmix64(workload_seed) ^ k)
}

/// One discovery cell: a registry preset under a scenario, on a device
/// whose RNG seed is replaced by `seed`.
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// Canonical registry name.
    pub preset: &'static str,
    /// Deployment scenario.
    pub scenario: Scenario,
    /// Device RNG seed.
    pub seed: u64,
}

/// The 13 (preset, scenario) pairs of `small-cells`: every preset bare
/// metal and hostile, except that a hostile preset is not made hostile
/// again.
pub fn small_pairs() -> Vec<(&'static str, Scenario)> {
    let mut out = Vec::new();
    for preset in SMALL_PRESETS {
        out.push((preset, Scenario::BareMetal));
        if !preset.ends_with("-hostile") {
            out.push((preset, Scenario::Hostile(HostileProfile::DEFAULT)));
        }
    }
    out
}

/// Fast mode with the TLB, contention and policy units switched on.
pub fn knob_config() -> DiscoveryConfig {
    DiscoveryConfig {
        measure_tlb: true,
        measure_contention: true,
        measure_policy: true,
        jobs: UNIT_JOBS,
        ..DiscoveryConfig::fast()
    }
}

/// The cells and configuration of a discovery workload:
///
/// * `l2-search` — H100-80 bare metal, plain fast mode;
/// * `small-cells` — the 13 small pairs under each of [`DEVICE_SEEDS`]
///   device seeds, with every opt-in unit;
/// * `reference` — the 13 small pairs under the first device seed only
///   (the traced run's cover for units a workload does not run).
pub fn workload_cells(workload: &str, seed: u64) -> Option<(Vec<CellSpec>, DiscoveryConfig)> {
    let seeds = match workload {
        "l2-search" => {
            let cell = CellSpec {
                preset: "H100-80",
                scenario: Scenario::BareMetal,
                seed: device_seed(seed, 0),
            };
            let cfg = DiscoveryConfig {
                jobs: UNIT_JOBS,
                ..DiscoveryConfig::fast()
            };
            return Some((vec![cell], cfg));
        }
        "small-cells" => DEVICE_SEEDS,
        "reference" => 1,
        _ => return None,
    };
    let mut cells = Vec::new();
    for k in 0..seeds {
        for (preset, scenario) in small_pairs() {
            cells.push(CellSpec {
                preset,
                scenario,
                seed: device_seed(seed, k),
            });
        }
    }
    Some((cells, knob_config()))
}

/// A resolved cell and whatever of its pipeline has run so far.
#[derive(Debug)]
pub struct Cell {
    /// What the cell is.
    pub spec: CellSpec,
    /// The preset's planted bare-metal truth (validation input).
    pub planted: DeviceConfig,
    /// The realized device.
    pub gpu: Gpu,
    /// The discovery plan, once planned.
    pub plan: Option<DiscoveryPlan>,
    /// Unit results of the last execution (moved out by [`serialize`]).
    pub results: Vec<UnitResult>,
    /// The assembled, normalized report.
    pub report: Option<Report>,
    /// The report's canonical bytes.
    pub bytes: String,
}

/// Builds the cell's device the way its preset does — same config, same
/// noise model — with only the RNG seed replaced, then realizes the
/// scenario on it.
pub fn resolve(spec: &CellSpec) -> Result<Cell, String> {
    let entry = Registry::global()
        .get(spec.preset)
        .ok_or_else(|| format!("unknown preset {}", spec.preset))?;
    let stock = entry.gpu();
    let mut reseeded = Gpu::with_seed(stock.config.clone(), spec.seed);
    reseeded.set_noise(stock.noise());
    let gpu = spec.scenario.realize(reseeded).map_err(|e| e.to_string())?;
    Ok(Cell {
        spec: spec.clone(),
        planted: stock.config,
        gpu,
        plan: None,
        results: Vec::new(),
        report: None,
        bytes: String::new(),
    })
}

/// Plans the cell's discovery.
pub fn plan(cell: &mut Cell, cfg: &DiscoveryConfig) {
    cell.plan = Some(DiscoveryPlan::new(&cell.gpu, cfg));
}

/// Executes every unit of the plan and returns (label, host ns, kernels)
/// per unit, in unit order.
pub fn execute(cell: &mut Cell, cfg: &DiscoveryConfig) -> Result<Vec<(String, u64, u64)>, String> {
    let plan = cell.plan.as_ref().ok_or("cell is not planned")?;
    let all: Vec<usize> = (0..plan.len()).collect();
    cell.results = execute_plan(&cell.gpu, cfg, plan, &all, cfg.jobs);
    Ok(cell
        .results
        .iter()
        .map(|r| (r.label.clone(), r.wall_nanos, r.kernels_launched))
        .collect())
}

/// Folds the unit results into the normalized report and its canonical
/// bytes — the same bytes `Job::run` prints for this device.
pub fn serialize(cell: &mut Cell) -> Result<(), String> {
    let plan = cell.plan.as_ref().ok_or("cell is not planned")?;
    let has_l3 = cell.gpu.config.cache(CacheKind::L3).is_some();
    let (device, compute) = report_header(&cell.gpu);
    let partial = PartialReport {
        format: PARTIAL_FORMAT,
        fingerprint: plan.fingerprint().to_string(),
        shard_index: 1,
        shard_count: 1,
        plan_len: plan.len(),
        plan_labels: plan.units().iter().map(|u| u.label.clone()).collect(),
        has_l3,
        device,
        compute,
        results: std::mem::take(&mut cell.results),
    };
    let mut report = merge_partials(&[partial]).map_err(|e| e.to_string())?;
    normalize_report(&mut report, has_l3);
    cell.bytes = to_json_pretty(&report).map_err(|e| e.to_string())?;
    cell.report = Some(report);
    Ok(())
}

/// Validates the report against the scenario-adjusted planted truth and
/// returns (attributes checked, attributes wrong, first mismatch note).
pub fn validate(cell: &Cell) -> Result<(u32, u32, String), String> {
    let report = cell.report.as_ref().ok_or("cell is not serialized")?;
    let v =
        validate_scenario(report, &cell.planted, &cell.spec.scenario).map_err(|e| e.to_string())?;
    let note = v.notes.first().cloned().unwrap_or_default();
    Ok((v.checked, v.mismatches, note))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt4g_core::suite::{JobSpec, Selection};

    fn run_cell(spec: &CellSpec, cfg: &DiscoveryConfig) -> String {
        let mut cell = resolve(spec).unwrap();
        plan(&mut cell, cfg);
        execute(&mut cell, cfg).unwrap();
        serialize(&mut cell).unwrap();
        cell.bytes
    }

    #[test]
    fn same_workload_seed_gives_identical_cells_and_bytes() {
        let (a, cfg) = workload_cells("small-cells", 7).unwrap();
        let (b, _) = workload_cells("small-cells", 7).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.len(), 13 * DEVICE_SEEDS as usize);
        // MI210 bare metal and hostile are the cheapest cells.
        for spec in a.iter().filter(|c| c.preset == "MI210").take(2) {
            assert_eq!(run_cell(spec, &cfg), run_cell(spec, &cfg));
        }
    }

    #[test]
    fn different_workload_seed_changes_device_seeds() {
        let seeds = |s: u64| -> Vec<u64> {
            let (cells, _) = workload_cells("small-cells", s).unwrap();
            cells.iter().map(|c| c.seed).collect()
        };
        let (a, b) = (seeds(1), seeds(2));
        for (x, y) in a.iter().zip(&b) {
            assert_ne!(x, y);
        }
        let mut distinct = a.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), DEVICE_SEEDS as usize);
        let l2 = |s: u64| workload_cells("l2-search", s).unwrap().0[0].seed;
        assert_ne!(l2(1), l2(2));
    }

    #[test]
    fn stock_seed_reproduces_the_job_layer_bytes() {
        let cfg = DiscoveryConfig {
            jobs: 1,
            ..knob_config()
        };
        for (preset, scenario) in [
            ("MI210", Scenario::BareMetal),
            ("MI210", Scenario::Hostile(HostileProfile::DEFAULT)),
        ] {
            let seed = Registry::global().get(preset).unwrap().gpu().base_seed();
            let spec = CellSpec {
                preset,
                scenario,
                seed,
            };
            let job_bytes = JobSpec {
                gpu: preset.to_string(),
                scenario,
                cfg: cfg.clone(),
                selection: Selection::Full,
            }
            .resolve()
            .unwrap()
            .run()
            .unwrap()
            .bytes;
            assert_eq!(run_cell(&spec, &cfg), job_bytes);
        }
    }
}
