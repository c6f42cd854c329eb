//! Partial reports: the serialisable output of one shard of a discovery
//! plan, and the merge that reassembles shards into the full report.
//!
//! The CI workflow this enables: N jobs each run
//! `mt4g --gpu X --shard i/N`, publish their partial JSON, and one merge
//! step runs `mt4g merge *.partial.json` — producing a report
//! byte-identical to a single-process run of the same configuration.

use serde::{Deserialize, Serialize};

use mt4g_sim::gpu::Gpu;

use crate::report::{ComputeInfo, DeviceInfo, Report};

use super::exec::{assemble_report, execute_plan, UnitResult};
use super::plan::DiscoveryPlan;
use super::{report_header, DiscoveryConfig};

/// Serialisation format version of [`PartialReport`]; bump on breaking
/// changes so stale shard artifacts refuse to merge. v2: unit results
/// carry `tlb` / `contention` row sections. v3: unit results carry a
/// `policy` row section (shards of `--policy` runs refuse to merge with
/// pre-policy shards).
pub const PARTIAL_FORMAT: u32 = 3;

/// The output of one shard of a discovery plan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PartialReport {
    /// Serialisation format version ([`PARTIAL_FORMAT`]).
    pub format: u32,
    /// Plan-compatibility fingerprint; merges require all shards to match.
    pub fingerprint: String,
    /// 1-based shard index this partial covers.
    pub shard_index: usize,
    /// Total shard count of the split.
    pub shard_count: usize,
    /// Total number of units in the plan (completeness check on merge).
    pub plan_len: usize,
    /// Unit labels of the whole plan, indexed by unit id — lets the merge
    /// check each result against the unit it claims to be.
    pub plan_labels: Vec<String>,
    /// Whether the device's canonical row order includes an L3 row
    /// (CDNA3) — consumers normalising a merged report need this without
    /// access to the original preset.
    pub has_l3: bool,
    /// Device header (identical across shards of one plan).
    pub device: DeviceInfo,
    /// Compute header (identical across shards of one plan).
    pub compute: ComputeInfo,
    /// Results of this shard's units.
    pub results: Vec<UnitResult>,
}

/// Runs shard `index` of `count` of the discovery of `gpu` and returns the
/// mergeable partial report.
pub fn run_shard(
    gpu: &mut Gpu,
    cfg: &DiscoveryConfig,
    index: usize,
    count: usize,
) -> PartialReport {
    let plan = DiscoveryPlan::new(gpu, cfg);
    let selection = plan.shard(index, count);
    let mut results = execute_plan(gpu, cfg, &plan, &selection, cfg.jobs);
    // Host wall-clock and host-walked loads are `#[serde(skip)]` — they
    // would vanish on the trip through the partial bytes anyway. Zero them
    // here so a PartialReport equals its own parse (the round-trip
    // invariant the merge tests pin).
    for r in &mut results {
        r.wall_nanos = 0;
        r.walked_loads = 0;
    }
    let (device, compute) = report_header(gpu);
    PartialReport {
        format: PARTIAL_FORMAT,
        fingerprint: plan.fingerprint().to_string(),
        shard_index: index,
        shard_count: count,
        plan_len: plan.len(),
        plan_labels: plan.units().iter().map(|u| u.label.clone()).collect(),
        has_l3: gpu.config.cache(mt4g_sim::device::CacheKind::L3).is_some(),
        device,
        compute,
        results,
    }
}

/// Why a set of partial reports cannot be merged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MergeError {
    /// No partial reports were supplied.
    NoPartials,
    /// Two partials come from incompatible runs (different GPU, config,
    /// seed, or tool version).
    Incompatible {
        /// Fingerprint of the first partial.
        expected: String,
        /// The conflicting fingerprint.
        found: String,
    },
    /// The same unit appears in more than one partial.
    DuplicateUnit(usize),
    /// Units of the plan are covered by no partial.
    MissingUnits(Vec<usize>),
    /// A result's label does not match the plan's label for its unit id
    /// (a corrupted or hand-edited partial).
    LabelMismatch {
        /// The unit id in question.
        unit: usize,
        /// The label the plan records for that unit.
        expected: String,
        /// The label the result carried.
        found: String,
    },
}

impl std::fmt::Display for MergeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MergeError::NoPartials => write!(f, "no partial reports to merge"),
            MergeError::Incompatible { expected, found } => write!(
                f,
                "incompatible partial reports: expected fingerprint '{expected}', found '{found}'"
            ),
            MergeError::DuplicateUnit(id) => {
                write!(f, "unit {id} appears in more than one partial report")
            }
            MergeError::MissingUnits(ids) => {
                write!(f, "units {ids:?} are covered by no partial report")
            }
            MergeError::LabelMismatch {
                unit,
                expected,
                found,
            } => write!(
                f,
                "unit {unit} carries label '{found}' but the plan says '{expected}'"
            ),
        }
    }
}

impl std::error::Error for MergeError {}

/// Merges a complete set of shards back into the full report.
///
/// Validates that all partials come from the same plan (fingerprint,
/// format, plan length) and that together they cover every unit exactly
/// once; the assembled report is byte-identical to a single-process run.
pub fn merge_partials(partials: &[PartialReport]) -> Result<Report, MergeError> {
    let first = partials.first().ok_or(MergeError::NoPartials)?;
    for p in partials {
        if p.format != first.format
            || p.fingerprint != first.fingerprint
            || p.plan_len != first.plan_len
        {
            return Err(MergeError::Incompatible {
                expected: format!("v{} {}", first.format, first.fingerprint),
                found: format!("v{} {}", p.format, p.fingerprint),
            });
        }
    }

    let mut results: Vec<UnitResult> = Vec::with_capacity(first.plan_len);
    for p in partials {
        results.extend(p.results.iter().cloned());
    }
    results.sort_by_key(|r| r.unit);
    for pair in results.windows(2) {
        if pair[0].unit == pair[1].unit {
            return Err(MergeError::DuplicateUnit(pair[0].unit));
        }
    }
    let covered: Vec<usize> = results.iter().map(|r| r.unit).collect();
    let missing: Vec<usize> = (0..first.plan_len)
        .filter(|id| !covered.contains(id))
        .collect();
    if !missing.is_empty() {
        return Err(MergeError::MissingUnits(missing));
    }
    for r in &results {
        match first.plan_labels.get(r.unit) {
            Some(expected) if *expected == r.label => {}
            other => {
                return Err(MergeError::LabelMismatch {
                    unit: r.unit,
                    expected: other.cloned().unwrap_or_default(),
                    found: r.label.clone(),
                })
            }
        }
    }

    Ok(assemble_report(
        first.device.clone(),
        first.compute.clone(),
        &results,
    ))
}

/// Serialises a partial report to pretty-printed JSON (the shard artifact
/// format).
pub fn partial_to_json(partial: &PartialReport) -> Result<String, serde_json::Error> {
    serde_json::to_string_pretty(partial)
}

/// Parses a partial report back from JSON.
pub fn partial_from_json(json: &str) -> Result<PartialReport, serde_json::Error> {
    serde_json::from_str(json)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::to_json_pretty;
    use crate::suite::{normalize_report, run_discovery};
    use mt4g_sim::presets;

    fn cfg() -> DiscoveryConfig {
        DiscoveryConfig {
            measure_bandwidth: false,
            measure_flops: false,
            ..DiscoveryConfig::fast()
        }
    }

    fn shards(count: usize) -> Vec<PartialReport> {
        (1..=count)
            .map(|i| run_shard(&mut presets::t1000(), &cfg(), i, count))
            .collect()
    }

    #[test]
    fn merged_shards_equal_the_direct_run() {
        let merged = {
            let mut r = merge_partials(&shards(3)).expect("merge succeeds");
            normalize_report(&mut r, false);
            r
        };
        let direct = {
            let mut gpu = presets::t1000();
            let mut r = run_discovery(&mut gpu, &cfg());
            normalize_report(&mut r, false);
            r
        };
        assert_eq!(
            to_json_pretty(&merged).unwrap(),
            to_json_pretty(&direct).unwrap()
        );
    }

    #[test]
    fn partial_json_round_trips() {
        let partial = run_shard(&mut presets::t1000(), &cfg(), 1, 2);
        let json = partial_to_json(&partial).unwrap();
        let parsed = partial_from_json(&json).unwrap();
        assert_eq!(parsed, partial);
    }

    #[test]
    fn merge_rejects_incomplete_and_duplicate_sets() {
        let all = shards(3);
        assert!(matches!(
            merge_partials(&all[..2]),
            Err(MergeError::MissingUnits(_))
        ));
        let doubled = vec![
            all[0].clone(),
            all[0].clone(),
            all[1].clone(),
            all[2].clone(),
        ];
        assert!(matches!(
            merge_partials(&doubled),
            Err(MergeError::DuplicateUnit(_))
        ));
        assert_eq!(merge_partials(&[]), Err(MergeError::NoPartials));
    }

    #[test]
    fn merge_rejects_mismatched_runs() {
        let mut a = run_shard(&mut presets::t1000(), &cfg(), 1, 2);
        let b = run_shard(
            &mut presets::t1000(),
            &DiscoveryConfig {
                scan_points: 20,
                ..cfg()
            },
            2,
            2,
        );
        assert!(matches!(
            merge_partials(&[a.clone(), b]),
            Err(MergeError::Incompatible { .. })
        ));
        a.format += 1;
        let c = run_shard(&mut presets::t1000(), &cfg(), 2, 2);
        assert!(matches!(
            merge_partials(&[a, c]),
            Err(MergeError::Incompatible { .. })
        ));
    }
}
