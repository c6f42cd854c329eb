//! The job layer: one discovery request as a first-class value.
//!
//! Historically the executor was driven directly by the CLI — `main()`
//! resolved the preset, applied the scenario, built the config, and called
//! [`run_discovery`](super::run_discovery) or
//! [`run_shard`](super::run_shard) to completion. The serve front end
//! needs that sequence as a *reusable object*: something a request parser
//! can construct, an admission queue can hold, a worker can execute, and a
//! result cache can key on. That object is the [`Job`]:
//!
//! * a [`JobSpec`] names a cell — registry entry, [`Scenario`], config
//!   knobs, and a [`Selection`] (the full plan or one shard of it);
//! * [`JobSpec::resolve`] turns the name into a runnable [`Job`]: the
//!   realized GPU, the deterministic [`DiscoveryPlan`], and the plan
//!   fingerprint (the byte-determinism contract from the shard/merge
//!   work);
//! * [`Job::run`] produces a [`JobOutput`] whose `bytes` are **exactly**
//!   what the batch CLI would print for the same cell — the property that
//!   makes a content-addressed cache of job outputs safe to serve.
//!
//! The batch paths (`mt4g --gpu …`, `--shard i/n`) are thin clients of
//! this layer: they build a [`JobSpec`] from argv and emit
//! [`JobOutput::bytes`] verbatim, so a cache hit and a cold CLI run are
//! byte-interchangeable.

use mt4g_sim::device::CacheKind;
use mt4g_sim::gpu::Gpu;
use mt4g_sim::presets::Registry;
use mt4g_sim::scenario::{Scenario, ScenarioError};

use crate::report::Report;

use super::plan::DiscoveryPlan;
use super::{
    expected_elements, normalize_report, partial_to_json, run_discovery, run_shard,
    DiscoveryConfig, PartialReport,
};

/// Which slice of the discovery plan a job covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Selection {
    /// Every unit: the job emits a full, normalized report.
    Full,
    /// One shard of an n-way split: the job emits a mergeable partial.
    Shard {
        /// 1-based shard index.
        index: usize,
        /// Total shard count.
        count: usize,
    },
}

impl Selection {
    /// Stable spelling used inside cache-key cell descriptors.
    pub fn label(&self) -> String {
        match self {
            Selection::Full => "full".to_string(),
            Selection::Shard { index, count } => format!("shard{index}of{count}"),
        }
    }
}

/// The *name* of a discovery job: everything needed to reconstruct it,
/// nothing that depends on having run it.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Registry preset name or alias (resolved case-insensitively).
    pub gpu: String,
    /// Deployment scenario the discovery runs inside.
    pub scenario: Scenario,
    /// Discovery tuning knobs (fast/thorough, opt-in units, `--only`, …).
    pub cfg: DiscoveryConfig,
    /// Full plan or one shard.
    pub selection: Selection,
}

/// Why a [`JobSpec`] cannot be resolved into a runnable [`Job`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// The preset name matches no registry entry or alias.
    UnknownPreset {
        /// The name that failed to resolve.
        name: String,
    },
    /// The scenario cannot apply to the resolved device.
    Scenario(ScenarioError),
    /// `only` names an element the resolved device does not report.
    ElementNotOnDevice {
        /// The requested element.
        element: CacheKind,
        /// Name of the resolved device.
        device: String,
        /// The elements the device reports, in Table I order.
        elements: Vec<CacheKind>,
    },
}

impl std::fmt::Display for JobError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            // Keeps the historical CLI error text (tests assert on it):
            // the known-names list includes aliases.
            JobError::UnknownPreset { name } => write!(
                f,
                "unknown GPU preset '{name}'; known presets:\n  {}",
                Registry::global().known_names()
            ),
            JobError::Scenario(e) => write!(f, "{e}"),
            JobError::ElementNotOnDevice {
                element,
                device,
                elements,
            } => write!(
                f,
                "{device} has no {} element; its elements are: {}",
                element.label(),
                elements
                    .iter()
                    .map(|k| k.label())
                    .collect::<Vec<_>>()
                    .join(", ")
            ),
        }
    }
}

impl std::error::Error for JobError {}

impl From<ScenarioError> for JobError {
    fn from(e: ScenarioError) -> Self {
        JobError::Scenario(e)
    }
}

impl JobSpec {
    /// Resolves the spec against the preset registry: realizes the
    /// scenario on the named device and plans the run. Fails on unknown
    /// presets, inapplicable scenarios (e.g. MIG on AMD) and `only`
    /// elements the device does not report (e.g. `vL1` on NVIDIA) — the
    /// error classes a front end must answer with a structured response
    /// rather than a panic or an empty report.
    pub fn resolve(self) -> Result<Job, JobError> {
        let entry = Registry::global()
            .get(&self.gpu)
            .ok_or_else(|| JobError::UnknownPreset {
                name: self.gpu.clone(),
            })?;
        let gpu = self.scenario.realize(entry.gpu())?;
        let has_l3 = gpu.config.cache(CacheKind::L3).is_some();
        if let Some(only) = &self.cfg.only {
            let elements = expected_elements(gpu.vendor(), has_l3);
            if let Some(&element) = only.iter().find(|k| !elements.contains(k)) {
                return Err(JobError::ElementNotOnDevice {
                    element,
                    device: gpu.config.name.clone(),
                    elements,
                });
            }
        }
        let plan = DiscoveryPlan::new(&gpu, &self.cfg);
        Ok(Job {
            preset: entry.name,
            scenario: self.scenario,
            cfg: self.cfg,
            selection: self.selection,
            gpu,
            plan,
            has_l3,
        })
    }
}

/// A resolved, runnable discovery job — the unit the admission queue
/// holds, a worker executes, and the result cache keys on.
#[derive(Debug)]
pub struct Job {
    /// Canonical registry name of the preset (aliases resolve here, so
    /// `H100` and `H100-80` name the same cell).
    preset: &'static str,
    scenario: Scenario,
    cfg: DiscoveryConfig,
    selection: Selection,
    gpu: Gpu,
    plan: DiscoveryPlan,
    has_l3: bool,
}

/// What a job produced: the structured result plus the canonical bytes.
///
/// `bytes` is the exact serialization the batch CLI prints for the same
/// cell (pretty JSON, no trailing newline). The result cache stores these
/// bytes, which is what makes a cache hit byte-identical to a cold run.
#[derive(Debug, Clone)]
pub struct JobOutput {
    /// The structured result (for Markdown/CSV writers and validators).
    pub result: JobResult,
    /// The canonical JSON bytes of the result.
    pub bytes: String,
}

/// The structured half of a [`JobOutput`].
#[derive(Debug, Clone)]
pub enum JobResult {
    /// A full, normalized report ([`Selection::Full`]).
    Full(Report),
    /// A mergeable partial report ([`Selection::Shard`]).
    Partial(PartialReport),
}

impl Job {
    /// Canonical preset name of this job's cell.
    pub fn preset(&self) -> &'static str {
        self.preset
    }

    /// The scenario this job runs inside.
    pub fn scenario(&self) -> Scenario {
        self.scenario
    }

    /// The selection this job covers.
    pub fn selection(&self) -> Selection {
        self.selection
    }

    /// The plan-compatibility fingerprint: preset identity, seed, quirks,
    /// noise model, every measurement-relevant config knob, and the unit
    /// enumeration. Two jobs with equal fingerprints (and equal
    /// selections) produce byte-identical output — the invariant the
    /// result cache's safety rests on.
    pub fn fingerprint(&self) -> &str {
        self.plan.fingerprint()
    }

    /// Whether the cell's canonical row order includes an L3 row.
    pub fn has_l3(&self) -> bool {
        self.has_l3
    }

    /// The cell descriptor the content-addressed result cache hashes:
    /// preset, scenario, selection, and the full plan fingerprint (which
    /// itself encodes seed, quirks, noise, and every knob). Everything
    /// that can change a single output byte is in here; nothing else is.
    pub fn cell(&self) -> String {
        format!(
            "preset={}|scenario={}|sel={}|fp={}",
            self.preset,
            self.scenario.label(),
            self.selection.label(),
            self.fingerprint()
        )
    }

    /// The realized GPU, for diagnostics that outlive the run (the CLI's
    /// `-g` raw-scan writer re-probes the device after discovery).
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.gpu
    }

    /// Runs the job to completion and returns the canonical output.
    ///
    /// Byte-compatibility contract: for [`Selection::Full`] the bytes are
    /// `to_json_pretty(normalize_report(run_discovery(..)))`, for
    /// [`Selection::Shard`] they are `partial_to_json(run_shard(..))` —
    /// exactly the historical CLI serialization paths, so outputs of this
    /// method, the batch CLI, and cache hits are interchangeable.
    pub fn run(&mut self) -> Result<JobOutput, serde_json::Error> {
        match self.selection {
            Selection::Full => {
                let mut report = run_discovery(&mut self.gpu, &self.cfg);
                normalize_report(&mut report, self.has_l3);
                let bytes = crate::report::to_json_pretty(&report)?;
                Ok(JobOutput {
                    result: JobResult::Full(report),
                    bytes,
                })
            }
            Selection::Shard { index, count } => {
                let partial = run_shard(&mut self.gpu, &self.cfg, index, count);
                let bytes = partial_to_json(&partial)?;
                Ok(JobOutput {
                    result: JobResult::Partial(partial),
                    bytes,
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::to_json_pretty;
    use mt4g_sim::presets;

    fn cheap() -> DiscoveryConfig {
        DiscoveryConfig {
            only: Some(vec![mt4g_sim::device::CacheKind::ConstL1]),
            measure_bandwidth: false,
            measure_flops: false,
            ..DiscoveryConfig::fast()
        }
    }

    #[test]
    fn unknown_preset_and_bad_scenario_are_structured_errors() {
        let err = JobSpec {
            gpu: "RTX9090".into(),
            scenario: Scenario::BareMetal,
            cfg: cheap(),
            selection: Selection::Full,
        }
        .resolve()
        .unwrap_err();
        assert!(matches!(err, JobError::UnknownPreset { .. }));
        assert!(err.to_string().contains("unknown GPU preset"));

        let err = JobSpec {
            gpu: "MI210".into(),
            scenario: Scenario::Mig(mt4g_sim::mig::MigProfile::A100_FULL),
            cfg: cheap(),
            selection: Selection::Full,
        }
        .resolve()
        .unwrap_err();
        assert!(matches!(err, JobError::Scenario(_)));
    }

    #[test]
    fn aliases_resolve_to_the_same_cell() {
        let cell = |name: &str| {
            JobSpec {
                gpu: name.into(),
                scenario: Scenario::BareMetal,
                cfg: cheap(),
                selection: Selection::Full,
            }
            .resolve()
            .unwrap()
            .cell()
        };
        assert_eq!(cell("H100"), cell("H100-80"), "alias and canonical name");
        assert_ne!(cell("H100"), cell("T1000"));
    }

    #[test]
    fn full_job_bytes_match_the_direct_pipeline() {
        let mut job = JobSpec {
            gpu: "T1000".into(),
            scenario: Scenario::BareMetal,
            cfg: cheap(),
            selection: Selection::Full,
        }
        .resolve()
        .unwrap();
        let out = job.run().unwrap();

        let mut gpu = presets::t1000();
        let mut report = run_discovery(&mut gpu, &cheap());
        normalize_report(&mut report, false);
        assert_eq!(out.bytes, to_json_pretty(&report).unwrap());
        assert!(matches!(out.result, JobResult::Full(_)));
    }

    #[test]
    fn shard_job_bytes_match_run_shard() {
        let mut job = JobSpec {
            gpu: "T1000".into(),
            scenario: Scenario::BareMetal,
            cfg: cheap(),
            selection: Selection::Shard { index: 1, count: 2 },
        }
        .resolve()
        .unwrap();
        let out = job.run().unwrap();
        let direct = run_shard(&mut presets::t1000(), &cheap(), 1, 2);
        assert_eq!(out.bytes, partial_to_json(&direct).unwrap());
    }

    #[test]
    fn cell_separates_scenario_selection_and_knobs() {
        let mk = |scenario: Scenario, cfg: DiscoveryConfig, sel: Selection| {
            JobSpec {
                gpu: "T1000".into(),
                scenario,
                cfg,
                selection: sel,
            }
            .resolve()
            .unwrap()
            .cell()
        };
        let base = mk(Scenario::BareMetal, cheap(), Selection::Full);
        let hostile = mk(
            Scenario::Hostile(mt4g_sim::scenario::HostileProfile::DEFAULT),
            cheap(),
            Selection::Full,
        );
        let tlb = mk(
            Scenario::BareMetal,
            DiscoveryConfig {
                measure_tlb: true,
                ..cheap()
            },
            Selection::Full,
        );
        let shard = mk(
            Scenario::BareMetal,
            cheap(),
            Selection::Shard { index: 1, count: 2 },
        );
        let cells = [&base, &hostile, &tlb, &shard];
        for (i, a) in cells.iter().enumerate() {
            for b in cells.iter().skip(i + 1) {
                assert_ne!(a, b, "cells must not collide");
            }
        }
    }
}
