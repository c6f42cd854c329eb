//! Deterministic enumeration of a discovery run as independent work units.
//!
//! A [`DiscoveryPlan`] is the *what* of a discovery run, fully decoupled
//! from the *how*: the same plan can be executed sequentially
//! (`--jobs 1`), fanned out across threads, or sliced into shards executed
//! by different CI jobs — the merged report is byte-identical in every
//! case, because each unit runs on its own forked GPU (see
//! [`run_unit`](super::units::run_unit)) whose RNG stream is derived from
//! the unit's stable label ([`PlanUnit::stream`]).

use mt4g_sim::compute::DType;
use mt4g_sim::device::{CacheKind, Vendor};
use mt4g_sim::gpu::Gpu;

use super::units::UnitKind;
use super::DiscoveryConfig;

/// Version tag baked into plan fingerprints; bump on any change to unit
/// enumeration, seeding, or partial-report semantics so stale partial
/// reports refuse to merge. v2: quirks + noise model joined the
/// fingerprint (scenario-transformed devices can share a name). v3: the
/// TLB-reach and L2-contention units joined the enumeration (and their
/// opt-in knobs the fingerprint), and unit results grew `tlb` /
/// `contention` row sections. v4: the replacement-policy unit joined the
/// enumeration (and `--policy` the fingerprint), and unit results grew a
/// `policy` row section. v5: untimed loads draw no measurement noise, so
/// every measured value is re-drawn.
pub(crate) const PLAN_FORMAT: u32 = 5;

/// One schedulable unit of discovery work.
#[derive(Debug, Clone)]
pub struct PlanUnit {
    /// Position in the plan (also the merge order of its report rows).
    pub id: usize,
    /// Stable human-readable name, e.g. `nv.l1` or `flops.fp32`. The
    /// unit's RNG stream is derived from this label, so results don't
    /// depend on the unit's position in the plan.
    pub label: String,
    /// Units whose measurements this unit consumes. The executor runs
    /// dependencies first (recomputing them locally if a shard doesn't
    /// contain them — determinism makes recomputation exact).
    pub deps: Vec<usize>,
    pub(crate) kind: UnitKind,
}

impl PlanUnit {
    /// The RNG stream id of this unit: an FNV-1a hash of the label.
    pub(crate) fn stream(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in self.label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        h
    }
}

/// The ordered list of work units of one discovery run.
///
/// ```
/// use mt4g_core::suite::{DiscoveryConfig, DiscoveryPlan};
/// use mt4g_sim::presets;
///
/// let gpu = presets::t1000();
/// let plan = DiscoveryPlan::new(&gpu, &DiscoveryConfig::fast());
/// assert!(plan.len() >= 8, "NVIDIA plans fan out the full Table I");
///
/// // Shards partition the plan: every unit lands in exactly one shard,
/// // so CI can split the matrix across jobs and merge partial reports.
/// let mut ids: Vec<usize> = (1..=3).flat_map(|i| plan.shard(i, 3)).collect();
/// ids.sort();
/// assert_eq!(ids, (0..plan.len()).collect::<Vec<_>>());
///
/// // The physical-sharing unit consumes the cache-element units'
/// // measurements; its dependencies are part of the plan.
/// let sharing = plan.units().iter().find(|u| u.label == "nv.sharing").unwrap();
/// assert_eq!(sharing.deps.len(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct DiscoveryPlan {
    units: Vec<PlanUnit>,
    fingerprint: String,
}

impl DiscoveryPlan {
    /// Enumerates the units of a discovery of `gpu` under `cfg`.
    ///
    /// The enumeration is deterministic: same preset + config + seed ⇒
    /// same plan, which is what makes shards produced by different
    /// processes mergeable.
    pub fn new(gpu: &Gpu, cfg: &DiscoveryConfig) -> Self {
        let mut units: Vec<PlanUnit> = Vec::new();
        let mut push = |label: &str, kind: UnitKind, deps: Vec<usize>| -> usize {
            let id = units.len();
            units.push(PlanUnit {
                id,
                label: label.to_string(),
                deps,
                kind,
            });
            id
        };

        // Units are gated on the *capabilities* the device configuration
        // declares — which cache elements exist — rather than on a
        // hardcoded per-vendor list. Registry presets with unusual cache
        // sets (RDNA's MALL as an L3 level, hypothetical parts without a
        // texture path) therefore plan correctly without touching this
        // function; for every Table II preset the enumeration below is
        // label-for-label identical to the historical vendor match, which
        // keeps their reports byte-identical.
        let has = |kind: CacheKind| gpu.config.cache(kind).is_some();
        let device_memory = UnitKind::Flat(CacheKind::DeviceMemory);
        match gpu.vendor() {
            Vendor::Nvidia => {
                let l1 = has(CacheKind::L1)
                    .then(|| push("nv.l1", UnitKind::Cache(CacheKind::L1), vec![]));
                let tex = has(CacheKind::Texture)
                    .then(|| push("nv.texture", UnitKind::Cache(CacheKind::Texture), vec![]));
                let ro = has(CacheKind::Readonly)
                    .then(|| push("nv.readonly", UnitKind::Cache(CacheKind::Readonly), vec![]));
                let cst = has(CacheKind::ConstL1)
                    .then(|| push("nv.constant", UnitKind::NvConstPath, vec![]));
                if has(CacheKind::L2) {
                    push("nv.l2", UnitKind::NvL2, vec![]);
                }
                push("nv.shared", UnitKind::Flat(CacheKind::SharedMemory), vec![]);
                push("mem.device", device_memory, vec![]);
                // The sharing scan evicts one cache through another, so it
                // needs the geometry of all four L1-level elements; it is
                // planned only when all four exist.
                if cfg.only.is_none() {
                    if let (Some(l1), Some(tex), Some(ro), Some(cst)) = (l1, tex, ro, cst) {
                        push("nv.sharing", UnitKind::NvSharing, vec![l1, tex, ro, cst]);
                    }
                }
            }
            Vendor::Amd => {
                if has(CacheKind::VL1) {
                    push("amd.vl1", UnitKind::Cache(CacheKind::VL1), vec![]);
                }
                if has(CacheKind::SL1D) {
                    push("amd.sl1d", UnitKind::AmdSl1d, vec![]);
                }
                if has(CacheKind::L2) {
                    push("amd.l2", UnitKind::AmdL2, vec![]);
                }
                if has(CacheKind::L3) {
                    push("amd.l3", UnitKind::AmdL3, vec![]);
                }
                push("amd.lds", UnitKind::Flat(CacheKind::Lds), vec![]);
                push("mem.device", device_memory, vec![]);
            }
        }

        // Extension units, opt-in and capability-gated like everything
        // else: TLB reach needs a translation hierarchy to exist, the
        // contention benchmark needs an L2. Both are element-agnostic, so
        // an `--only` run skips them (mirroring the sharing scan).
        if cfg.measure_tlb && cfg.only.is_none() && gpu.config.tlb.is_some() {
            push("mem.tlb", UnitKind::TlbReach, vec![]);
        }
        if cfg.measure_contention && cfg.only.is_none() && has(CacheKind::L2) {
            push("mem.l2contention", UnitKind::L2Contention, vec![]);
        }

        if cfg.measure_flops && cfg.only.is_none() {
            for dtype in DType::ALL {
                push(
                    &format!("flops.{}", dtype.label()),
                    UnitKind::Flops(dtype),
                    vec![],
                );
            }
        }

        // The replacement-policy probe consumes the target level's size /
        // line / latency measurements, so it depends on that element's
        // unit — which must itself be in the plan (an `--only` run skips
        // the probe like the other cross-element units).
        if cfg.measure_policy && cfg.only.is_none() {
            let (cache, dep_label) = match gpu.vendor() {
                Vendor::Nvidia => (CacheKind::L1, "nv.l1"),
                Vendor::Amd => (CacheKind::VL1, "amd.vl1"),
            };
            if let Some(dep) = units.iter().position(|u| u.label == dep_label) {
                let id = units.len();
                units.push(PlanUnit {
                    id,
                    label: "mem.policy".to_string(),
                    deps: vec![dep],
                    kind: UnitKind::Policy(cache),
                });
            }
        }

        let fingerprint = fingerprint(gpu, cfg, &units);
        DiscoveryPlan { units, fingerprint }
    }

    /// The plan's units, in id order.
    pub fn units(&self) -> &[PlanUnit] {
        &self.units
    }

    /// Number of units in the plan.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// Whether the plan is empty (it never is for a valid GPU).
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// The unit ids of shard `index` of `count` (1-based, `1 ≤ index ≤
    /// count`). Units are dealt round-robin so expensive neighbours (the
    /// L2 fills) spread across shards.
    pub fn shard(&self, index: usize, count: usize) -> Vec<usize> {
        assert!(count >= 1, "shard count must be at least 1");
        assert!(
            (1..=count).contains(&index),
            "shard index {index} out of range 1..={count}"
        );
        (0..self.units.len())
            .filter(|id| id % count == index - 1)
            .collect()
    }

    /// Compatibility fingerprint: partial reports merge only when their
    /// plans' fingerprints match (same GPU, seed, config, and enumeration).
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }
}

/// Encodes everything that must agree between shards for a merge to be
/// sound: plan format, preset identity, base RNG seed, the quirk set and
/// noise model (two same-named devices under different scenario profiles
/// measure differently), every config knob that changes measurements,
/// and the unit enumeration itself.
///
/// The config is destructured without `..`, so a new `DiscoveryConfig`
/// field does not compile (E0027) until it is either fingerprinted below
/// or named here as measurement-neutral, with the reason.
fn fingerprint(gpu: &Gpu, cfg: &DiscoveryConfig, units: &[PlanUnit]) -> String {
    let DiscoveryConfig {
        alpha,
        record_n,
        scan_points,
        only,
        cu_window,
        measure_bandwidth,
        measure_flops,
        measure_tlb,
        measure_contention,
        measure_policy,
        // Parallelism degree; byte identity across --jobs is itself a
        // tested invariant.
        jobs: _,
    } = cfg;
    let only = match only {
        None => "all".to_string(),
        Some(kinds) => kinds
            .iter()
            .map(|k| format!("{k:?}"))
            .collect::<Vec<_>>()
            .join("+"),
    };
    let labels = units
        .iter()
        .map(|u| u.label.as_str())
        .collect::<Vec<_>>()
        .join(",");
    format!(
        "v{PLAN_FORMAT}|{name}|seed={seed:#x}|quirks={quirks:?}|noise={noise:?}|alpha={alpha}|\
         record_n={record_n}|scan_points={scan_points}|only={only}|cu_window={cu_window}|\
         bw={measure_bandwidth}|flops={measure_flops}|tlb={measure_tlb}|\
         contention={measure_contention}|policy={measure_policy}|plan={labels}",
        name = gpu.config.name,
        seed = gpu.base_seed(),
        quirks = gpu.config.quirks,
        noise = gpu.noise(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use mt4g_sim::presets;

    #[test]
    fn plan_is_deterministic() {
        let gpu = presets::h100_80();
        let cfg = DiscoveryConfig::thorough();
        let a = DiscoveryPlan::new(&gpu, &cfg);
        let b = DiscoveryPlan::new(&gpu, &cfg);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.len(), b.len());
        for (ua, ub) in a.units().iter().zip(b.units()) {
            assert_eq!(ua.label, ub.label);
            assert_eq!(ua.deps, ub.deps);
        }
    }

    #[test]
    fn plans_differ_between_configs_and_gpus() {
        let gpu = presets::t1000();
        let full = DiscoveryPlan::new(&gpu, &DiscoveryConfig::thorough());
        let fast = DiscoveryPlan::new(&gpu, &DiscoveryConfig::fast());
        assert_ne!(full.fingerprint(), fast.fingerprint());
        let amd = DiscoveryPlan::new(&presets::mi210(), &DiscoveryConfig::thorough());
        assert_ne!(full.fingerprint(), amd.fingerprint());
    }

    /// The exhaustive destructuring in `fingerprint` proves every knob is
    /// bound; this proves each fingerprinted knob's *value* reaches the
    /// string the serve cache and the shard merge trust, and that the
    /// measurement-neutral knobs stay out of it.
    #[test]
    fn every_knob_value_reaches_the_fingerprint() {
        let gpu = presets::t1000();
        let base = DiscoveryConfig::fast();
        let fp = |flip: fn(&mut DiscoveryConfig)| {
            let mut cfg = base.clone();
            flip(&mut cfg);
            DiscoveryPlan::new(&gpu, &cfg).fingerprint().to_string()
        };
        let flips: [fn(&mut DiscoveryConfig); 11] = [
            |_| {},
            |c| c.alpha = 0.01,
            |c| c.record_n += 1,
            |c| c.scan_points += 1,
            |c| c.only = Some(vec![CacheKind::L1]),
            |c| c.cu_window += 1,
            |c| c.measure_bandwidth ^= true,
            |c| c.measure_flops ^= true,
            |c| c.measure_tlb ^= true,
            |c| c.measure_contention ^= true,
            |c| c.measure_policy ^= true,
        ];
        let mut fps: Vec<String> = flips.into_iter().map(fp).collect();
        fps.sort();
        fps.dedup();
        assert_eq!(fps.len(), 11, "a knob flip left the fingerprint unchanged");

        let neutral = fp(|c| c.jobs += 3);
        assert_eq!(neutral, fp(|_| {}), "a measurement-neutral knob moved it");
    }

    #[test]
    fn amd_plan_includes_l3_only_on_cdna3() {
        let cfg = DiscoveryConfig::fast();
        let mi210 = DiscoveryPlan::new(&presets::mi210(), &cfg);
        assert!(!mi210.units().iter().any(|u| u.label == "amd.l3"));
        let mi300x = DiscoveryPlan::new(&presets::mi300x(), &cfg);
        assert!(mi300x.units().iter().any(|u| u.label == "amd.l3"));
    }

    #[test]
    fn only_runs_drop_sharing_and_flops_units() {
        let gpu = presets::t1000();
        let cfg = DiscoveryConfig {
            only: Some(vec![CacheKind::L1]),
            ..DiscoveryConfig::fast()
        };
        let plan = DiscoveryPlan::new(&gpu, &cfg);
        assert!(!plan.units().iter().any(|u| u.label == "nv.sharing"));
        assert!(!plan.units().iter().any(|u| u.label.starts_with("flops.")));
    }

    #[test]
    fn extension_units_are_opt_in_and_fingerprinted() {
        let gpu = presets::t1000();
        let plain = DiscoveryPlan::new(&gpu, &DiscoveryConfig::fast());
        assert!(
            !plain
                .units()
                .iter()
                .any(|u| u.label.starts_with("mem.tlb") || u.label.starts_with("mem.l2contention")),
            "extension units must not enter the default plan"
        );
        let extended = DiscoveryPlan::new(
            &gpu,
            &DiscoveryConfig {
                measure_tlb: true,
                measure_contention: true,
                ..DiscoveryConfig::fast()
            },
        );
        assert!(extended.units().iter().any(|u| u.label == "mem.tlb"));
        assert!(extended
            .units()
            .iter()
            .any(|u| u.label == "mem.l2contention"));
        assert_ne!(plain.fingerprint(), extended.fingerprint());
    }

    #[test]
    fn policy_unit_is_opt_in_and_depends_on_the_element_unit() {
        let cfg = DiscoveryConfig {
            measure_policy: true,
            ..DiscoveryConfig::fast()
        };
        for (gpu, dep_label) in [(presets::h100_80(), "nv.l1"), (presets::mi210(), "amd.vl1")] {
            let plain = DiscoveryPlan::new(&gpu, &DiscoveryConfig::fast());
            assert!(
                !plain.units().iter().any(|u| u.label == "mem.policy"),
                "policy unit must not enter the default plan"
            );
            let extended = DiscoveryPlan::new(&gpu, &cfg);
            let unit = extended
                .units()
                .iter()
                .find(|u| u.label == "mem.policy")
                .expect("policy unit planned");
            let dep = extended
                .units()
                .iter()
                .find(|u| u.label == dep_label)
                .expect("element unit planned");
            assert_eq!(unit.deps, vec![dep.id]);
            assert_ne!(plain.fingerprint(), extended.fingerprint());
        }
        // An --only run skips the probe like the other cross-element units.
        let only = DiscoveryPlan::new(
            &presets::h100_80(),
            &DiscoveryConfig {
                only: Some(vec![CacheKind::L1]),
                ..cfg
            },
        );
        assert!(!only.units().iter().any(|u| u.label == "mem.policy"));
    }

    #[test]
    fn tlb_unit_is_capability_gated() {
        // A device with no declared translation hierarchy plans no TLB
        // unit even when asked for one.
        let mut gpu = presets::t1000();
        gpu.config.tlb = None;
        let plan = DiscoveryPlan::new(
            &gpu,
            &DiscoveryConfig {
                measure_tlb: true,
                ..DiscoveryConfig::fast()
            },
        );
        assert!(!plan.units().iter().any(|u| u.label == "mem.tlb"));
    }

    #[test]
    fn shards_partition_the_plan() {
        let gpu = presets::mi300x();
        let plan = DiscoveryPlan::new(&gpu, &DiscoveryConfig::thorough());
        for count in 1..=5 {
            let mut seen: Vec<usize> = (1..=count).flat_map(|i| plan.shard(i, count)).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..plan.len()).collect::<Vec<_>>(), "count {count}");
        }
    }

    #[test]
    fn unit_streams_are_distinct() {
        let gpu = presets::h100_80();
        let plan = DiscoveryPlan::new(&gpu, &DiscoveryConfig::thorough());
        let mut streams: Vec<u64> = plan.units().iter().map(|u| u.stream()).collect();
        streams.sort_unstable();
        streams.dedup();
        assert_eq!(streams.len(), plan.len(), "stream collision");
    }
}
