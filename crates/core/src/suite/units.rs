//! The benchmark bodies of the discovery work units.
//!
//! Each [`UnitKind`] is one independent slice of a discovery run: it
//! executes on a *forked* GPU ([`mt4g_sim::gpu::Gpu::fork`]) whose RNG
//! stream is derived from the unit's stable label, so a unit produces
//! bit-identical results no matter which thread, process, or CI shard runs
//! it. The bodies are the same benchmark sequences the original sequential
//! suite ran, in the same dependency order *within* a unit (latency →
//! fetch granularity → size → line size → amount, paper Sec. IV); only the
//! ordering *between* units is freed up for the executor to parallelise.

use std::collections::BTreeMap;

use mt4g_sim::api;
use mt4g_sim::compute::DType;
use mt4g_sim::device::{CacheKind, LoadFlags, MemorySpace, Vendor, CONSTANT_ARRAY_LIMIT};
use mt4g_sim::gpu::Gpu;

use crate::benchmarks::amount::{self, AmountConfig, AmountResult};
use crate::benchmarks::bandwidth;
use crate::benchmarks::contention::{self, ContentionConfig, ContentionOutcome};
use crate::benchmarks::fetch_granularity::{self, FetchGranularityConfig};
use crate::benchmarks::flops;
use crate::benchmarks::l2_segments;
use crate::benchmarks::latency::{self, LatencyConfig};
use crate::benchmarks::line_size::{self, LineSizeConfig};
use crate::benchmarks::policy::{self, PolicyConfig, PolicyOutcome};
use crate::benchmarks::sharing_amd::{self, CuSharingConfig, CuSharingResult};
use crate::benchmarks::sharing_nv::{self, SpaceProbe};
use crate::benchmarks::size::{self, SizeConfig, SizeResult};
use crate::benchmarks::tlb::{self, TlbConfig, TlbLevelOutcome};
use crate::report::{
    element_mut, AmountReport, AmountScope, Attribute, ContentionReport, FlopsEntry, LatencyReport,
    MemoryElementReport, PolicyReport, SharingReport, TlbLevel, TlbReport,
};

use super::exec::UnitResult;
use super::plan::PlanUnit;
use super::DiscoveryConfig;

/// Intermediate per-element measurement state the later stages feed on.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Measured {
    pub(crate) hit_latency: Option<f64>,
    pub(crate) fetch_granularity: Option<u64>,
    pub(crate) size: Option<u64>,
    pub(crate) line_size: Option<u64>,
}

/// Measurements a dependent unit receives from its dependencies, keyed by
/// the element the dependency measured.
pub(crate) type MeasuredInputs = BTreeMap<CacheKind, Measured>;

/// Confidence of a measured value whose benchmark computes no statistic of
/// its own: bandwidths, FLOPS, contention latencies and segment estimate,
/// TLB walk penalties. A nominal figure, not a calibrated probability.
const NOMINAL_CONFIDENCE: f64 = 0.9;

/// Confidence of a measured value the suite takes as exact: a counted
/// amount, a CU partner set, a contention peer, and the load latency of
/// shared memory, LDS, device memory and the AMD L2.
const FULL_CONFIDENCE: f64 = 1.0;

/// Confidence of a latency from its spread, `1 − sd/mean` clamped to
/// `[0, 1]`: the cache elements' and the NVIDIA L2's latency rows.
fn spread_confidence(lr: &LatencyReport) -> f64 {
    1.0 - (lr.stats.std_dev / lr.stats.mean.max(1.0)).min(1.0)
}

/// One kind of independent discovery work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnitKind {
    /// A first-level cache: its element chain plus amount (NVIDIA L1,
    /// Texture and Readonly; AMD vL1).
    Cache(CacheKind),
    /// NVIDIA constant path: CL1, then CL1.5 behind it (CL1.5's search
    /// window depends on the CL1 size, so they form one unit).
    NvConstPath,
    /// NVIDIA L2: API size, `.cg` latency, granularity, segments, line
    /// size, bandwidth.
    NvL2,
    /// NVIDIA physical-sharing groups over L1/Texture/Readonly/CL1
    /// (consumes those units' measurements).
    NvSharing,
    /// AMD scalar L1d: element + CU-sharing scan.
    AmdSl1d,
    /// AMD L2: API size/line/segments, GLC latency + granularity,
    /// bandwidth.
    AmdL2,
    /// AMD CDNA3 L3: API attributes + bandwidth.
    AmdL3,
    /// An element with no cache geometry to discover: an API size plus a
    /// flat-latency chase, plus bandwidth for device memory (NVIDIA shared
    /// memory, AMD LDS, device memory of both vendors).
    Flat(CacheKind),
    /// TLB-reach discovery (both vendors; needs a declared translation
    /// hierarchy and the page-size API).
    TlbReach,
    /// Shared-L2 contention + segment-mapping cross-check (both vendors;
    /// needs SM/CU co-residency control).
    L2Contention,
    /// Replacement-policy classification of one cache level via
    /// eviction-order probes (consumes that level's element unit's size /
    /// line / latency measurements).
    Policy(CacheKind),
    /// One datatype/engine of the FLOPS extension.
    Flops(DType),
}

/// Executes `unit` on a fork of `proto` seeded with the unit's stream.
/// Returns the unit's result and the measurement it exports to dependent
/// units, if any.
pub(crate) fn run_unit(
    proto: &Gpu,
    cfg: &DiscoveryConfig,
    unit: &PlanUnit,
    inputs: &MeasuredInputs,
) -> (UnitResult, Option<(CacheKind, Measured)>) {
    let mut run = UnitRun {
        gpu: proto.fork(unit.stream()),
        cfg,
        result: UnitResult {
            unit: unit.id,
            label: unit.label.clone(),
            ..UnitResult::default()
        },
    };

    let exported = match unit.kind {
        UnitKind::Cache(kind) => {
            let (space, schedulable) = match kind {
                CacheKind::L1 => (
                    MemorySpace::Global,
                    !run.gpu.config.quirks.l1_amount_unschedulable,
                ),
                CacheKind::Texture => (MemorySpace::Texture, true),
                CacheKind::Readonly => (MemorySpace::Readonly, true),
                CacheKind::VL1 => (MemorySpace::Vector, true),
                other => unreachable!("Cache unit for {other:?}"),
            };
            let m = run.cache_element(kind, space, None, None);
            run.amount(kind, space, m, schedulable);
            Some((kind, m))
        }

        UnitKind::NvConstPath => {
            // Constant L1: its latency array must stay below the (unknown)
            // CL1 size; 1 KiB is the search floor anyway.
            let cl1 =
                run.cache_element(CacheKind::ConstL1, MemorySpace::Constant, Some(1024), None);
            // Constant L1.5: measured *behind* CL1 — arrays larger than
            // CL1, which the warm-up evicts from CL1 (Sec. IV-B2).
            let cl1_size = cl1.size.unwrap_or(2048);
            run.cache_element(
                CacheKind::ConstL15,
                MemorySpace::Constant,
                Some(4 * cl1_size),
                Some(2 * cl1_size),
            );
            // The 64 KiB constant limit also blocks the CL1.5 amount
            // benchmark (paper Sec. III-C).
            if cfg.wants(CacheKind::ConstL15) {
                run.row(CacheKind::ConstL15).amount = Attribute::Unavailable {
                    reason: "64 KiB constant array limitation".into(),
                };
            }
            run.amount(CacheKind::ConstL1, MemorySpace::Constant, cl1, true);
            Some((CacheKind::ConstL1, cl1))
        }

        UnitKind::NvL2 => {
            if cfg.wants(CacheKind::L2) {
                let (space, flags) = (MemorySpace::Global, LoadFlags::CACHE_GLOBAL);
                run.row(CacheKind::L2).size = Attribute::FromApi {
                    value: api::device_props(&run.gpu).l2_size_bytes,
                };
                let lat_cfg = LatencyConfig::standard(space, flags, 64);
                if let Some(hit) = run.latency(CacheKind::L2, &lat_cfg, spread_confidence) {
                    let fg = run
                        .fetch_granularity(CacheKind::L2, space, flags, hit)
                        .unwrap_or(32);
                    run.count(1);
                    if let Some(mut segs) = l2_segments::run(&mut run.gpu, fg, cfg.scan_points) {
                        run.result.probes.append(&mut segs.probes);
                        run.row(CacheKind::L2).amount = Attribute::Measured {
                            value: AmountReport {
                                count: segs.count,
                                scope: AmountScope::PerGpu,
                            },
                            confidence: segs.confidence,
                        };
                        run.count(1);
                        let ls_cfg = LineSizeConfig::new(space, flags, segs.segment_bytes, fg, hit);
                        if let Some((value, confidence)) = line_size::run(&mut run.gpu, &ls_cfg) {
                            run.row(CacheKind::L2).cache_line_bytes =
                                Attribute::Measured { value, confidence };
                        }
                    }
                }
                run.bandwidth(CacheKind::L2);
            }
            None
        }

        UnitKind::NvSharing => {
            // Physical sharing (Sec. IV-G), over the element units'
            // measurements.
            run.count(1);
            let quirks = run.gpu.config.quirks;
            let probe = |kind: CacheKind, default_latency: f64| {
                let m = inputs.get(&kind).copied().unwrap_or_default();
                (
                    m.size.unwrap_or(2048),
                    m.fetch_granularity.unwrap_or(32),
                    m.hit_latency.unwrap_or(default_latency),
                )
            };
            let probes: Vec<SpaceProbe> = sharing_nv::nvidia_probes(
                probe(CacheKind::L1, 38.0),
                probe(CacheKind::Texture, 39.0),
                probe(CacheKind::Readonly, 35.0),
                probe(CacheKind::ConstL1, 21.0),
            );
            let groups =
                sharing_nv::sharing_groups(&mut run.gpu, &probes, quirks.flaky_l1_const_sharing);
            for (kind, partners, confidence) in groups {
                run.row(kind).shared_with = if confidence == 0.0 {
                    Attribute::Unavailable {
                        reason: "sharing measurement unreliable on this microarchitecture".into(),
                    }
                } else {
                    Attribute::Measured {
                        value: SharingReport::Spaces(partners),
                        confidence,
                    }
                };
            }
            None
        }

        UnitKind::AmdSl1d => {
            let m = run.cache_element(CacheKind::SL1D, MemorySpace::Scalar, None, None);
            // sL1d CU sharing (Sec. IV-H) rides in the same unit: it needs
            // the sL1d geometry just measured.
            if cfg.wants(CacheKind::SL1D) {
                run.count(1);
                let sh_cfg = CuSharingConfig {
                    sl1d_size: m.size.unwrap_or(16 * 1024),
                    fetch_granularity: m.fetch_granularity.unwrap_or(64),
                    hit_latency: m.hit_latency.unwrap_or(50.0),
                    can_pin_cus: !run.gpu.config.quirks.no_cu_pinning,
                };
                let result = sharing_amd::run(&mut run.gpu, &sh_cfg, cfg.cu_window);
                run.row(CacheKind::SL1D).shared_with = match result {
                    CuSharingResult::Found { partners } => Attribute::Measured {
                        value: SharingReport::CuPartners(partners),
                        confidence: FULL_CONFIDENCE,
                    },
                    CuSharingResult::NoResult { reason } => Attribute::Unavailable { reason },
                };
            }
            Some((CacheKind::SL1D, m))
        }

        UnitKind::AmdL2 => {
            // L2: sizes, line size and amount from APIs (HSA/KFD/XCD
            // count); latency and fetch granularity benchmarked with GLC=1.
            if cfg.wants(CacheKind::L2) {
                let (space, flags) = (MemorySpace::Vector, LoadFlags::CACHE_GLOBAL);
                let segments = l2_segments::run(&mut run.gpu, 64, cfg.scan_points);
                run.amd_tables(CacheKind::L2, segments.map(|s| s.count));
                let lat_cfg = LatencyConfig::standard(space, flags, 64);
                if let Some(hit) = run.latency(CacheKind::L2, &lat_cfg, |_| FULL_CONFIDENCE) {
                    run.fetch_granularity(CacheKind::L2, space, flags, hit);
                }
                run.bandwidth(CacheKind::L2);
            }
            None
        }

        UnitKind::AmdL3 => {
            // L3 (CDNA3): size/line/amount from APIs; load latency and
            // fetch granularity are the paper's declared gaps; bandwidth
            // measured.
            if cfg.wants(CacheKind::L3) {
                let amount = api::l3_amount(&run.gpu);
                run.amd_tables(CacheKind::L3, amount);
                let row = run.row(CacheKind::L3);
                row.load_latency = Attribute::Unavailable {
                    reason: "CDNA3 L3 latency benchmarking pending (paper future work)".into(),
                };
                row.fetch_granularity_bytes = Attribute::Unavailable {
                    reason: "CDNA3 L3 fetch granularity benchmarking pending (paper future work)"
                        .into(),
                };
                run.bandwidth(CacheKind::L3);
            }
            None
        }

        UnitKind::Flat(kind) => {
            if cfg.wants(kind) {
                let props = api::device_props(&run.gpu);
                let (size, space, flags) = match kind {
                    CacheKind::SharedMemory => (
                        props.shared_mem_per_sm_bytes,
                        MemorySpace::Shared,
                        LoadFlags::CACHE_ALL,
                    ),
                    CacheKind::Lds => (
                        props.shared_mem_per_sm_bytes,
                        MemorySpace::Lds,
                        LoadFlags::CACHE_ALL,
                    ),
                    CacheKind::DeviceMemory => {
                        let space = match run.gpu.vendor() {
                            Vendor::Nvidia => MemorySpace::Global,
                            Vendor::Amd => MemorySpace::Vector,
                        };
                        (props.total_mem_bytes, space, LoadFlags::VOLATILE)
                    }
                    other => unreachable!("Flat unit for {other:?}"),
                };
                run.row(kind).size = Attribute::FromApi { value: size };
                let lat_cfg = LatencyConfig::standard(space, flags, 64);
                run.latency(kind, &lat_cfg, |_| FULL_CONFIDENCE);
                if kind == CacheKind::DeviceMemory {
                    run.bandwidth(kind);
                }
            }
            None
        }

        UnitKind::TlbReach => {
            run.result.tlb = match api::page_size(&run.gpu) {
                Some(page) => {
                    let t_cfg = TlbConfig {
                        record_n: cfg.record_n.min(192),
                        scan_points: cfg.scan_points.min(16),
                        alpha: cfg.alpha,
                        ..TlbConfig::new(run.gpu.vendor(), page)
                    };
                    let d = tlb::run(&mut run.gpu, &t_cfg);
                    run.result.probes = d.probes;
                    vec![
                        tlb_row(TlbLevel::L1Tlb, page, d.l1),
                        tlb_row(TlbLevel::L2Tlb, page, d.l2),
                    ]
                }
                None => {
                    // Locked-down page-size API: no chase stride, so the
                    // whole section is an honest no-result.
                    let reason = "driver page-size query unavailable in this environment";
                    vec![
                        TlbReport::unavailable(TlbLevel::L1Tlb, reason),
                        TlbReport::unavailable(TlbLevel::L2Tlb, reason),
                    ]
                }
            };
            run.count_if_issued();
            None
        }

        UnitKind::L2Contention => {
            let c_cfg = ContentionConfig {
                record_n: cfg.record_n.min(192),
                ..ContentionConfig::new(&run.gpu)
            };
            let row = match contention::run(&mut run.gpu, &c_cfg) {
                ContentionOutcome::Found(m) => ContentionReport {
                    victim_sm: m.victim_sm,
                    segments_estimate: Attribute::Measured {
                        value: m.segments_estimate,
                        confidence: NOMINAL_CONFIDENCE,
                    },
                    same_segment_sm: measured_or(
                        m.same_segment_sm,
                        FULL_CONFIDENCE,
                        "no same-segment SM among the probed candidates",
                    ),
                    cross_segment_sm: measured_or(
                        m.cross_segment_sm,
                        FULL_CONFIDENCE,
                        "no cross-segment SM among the probed candidates \
                         (single visible segment)",
                    ),
                    solo_latency_cycles: Attribute::Measured {
                        value: m.solo_latency,
                        confidence: NOMINAL_CONFIDENCE,
                    },
                    same_segment_latency_cycles: measured_or(
                        m.same_segment_latency,
                        NOMINAL_CONFIDENCE,
                        "no same-segment peer to co-run",
                    ),
                    cross_segment_latency_cycles: measured_or(
                        m.cross_segment_latency,
                        NOMINAL_CONFIDENCE,
                        "no cross-segment peer to co-run",
                    ),
                },
                ContentionOutcome::NoResult { reason } => ContentionReport::unavailable(0, &reason),
            };
            run.result.contention.push(row);
            run.count_if_issued();
            None
        }

        UnitKind::Policy(cache) => {
            let m = inputs.get(&cache).copied().unwrap_or_default();
            let row = if run.gpu.config.quirks.eviction_probe_unavailable {
                // Co-runner pollution makes eviction order unattributable:
                // the probe would convict the neighbour's traffic, not the
                // hardware's evictor. Honest no-result (paper Sec. V).
                PolicyReport::unavailable(
                    cache,
                    "eviction-order probing unavailable: co-runner traffic \
                     pollutes the replacement state",
                )
            } else if let (Some(size), Some(line), Some(hit)) = (m.size, m.line_size, m.hit_latency)
            {
                let p_cfg = PolicyConfig::new(run.gpu.vendor(), size, line, hit);
                policy_row(cache, line, policy::run(&mut run.gpu, &p_cfg))
            } else {
                PolicyReport::unavailable(
                    cache,
                    "size/line/latency prerequisites missing \
                     (inputs to the eviction-order probe)",
                )
            };
            run.result.policy.push(row);
            run.count_if_issued();
            None
        }

        UnitKind::Flops(dtype) => {
            // Future-work extension: arithmetic throughput per datatype /
            // engine.
            run.count(1);
            let entry = match flops::run(&mut run.gpu, dtype) {
                Some(r) => FlopsEntry {
                    dtype,
                    achieved_gflops: Attribute::Measured {
                        value: r.achieved_gflops,
                        confidence: NOMINAL_CONFIDENCE,
                    },
                    best_ilp: Some(r.best_ilp),
                },
                None => FlopsEntry {
                    dtype,
                    achieved_gflops: Attribute::Unavailable {
                        reason: "engine not present on this microarchitecture".into(),
                    },
                    best_ilp: None,
                },
            };
            run.result.flops.push(entry);
            None
        }
    };

    let stats = run.gpu.stats();
    run.result.kernels_launched = stats.kernels_launched;
    run.result.loads_executed = stats.loads_executed;
    run.result.gpu_cycles = stats.total_cycles;
    run.result.walked_loads = run.gpu.walked_loads();
    (run.result, exported)
}

/// One executing unit: its forked device, the run's config, and the
/// result its per-attribute helpers fill in.
struct UnitRun<'a> {
    gpu: Gpu,
    cfg: &'a DiscoveryConfig,
    result: UnitResult,
}

impl UnitRun<'_> {
    /// Counts `n` benchmark instances (Sec. V-A accounting).
    fn count(&mut self, n: u32) {
        self.result.benchmarks_run += n;
    }

    /// Counts one benchmark instance if the unit's device launched a
    /// kernel or issued a load. A benchmark that stops at a missing
    /// prerequisite (a locked-down page-size API, blocks it cannot
    /// co-locate, eviction probing unavailable) executed nothing, so it
    /// counts nothing.
    fn count_if_issued(&mut self) {
        let stats = self.gpu.stats();
        if stats.kernels_launched > 0 || stats.loads_executed > 0 {
            self.count(1);
        }
    }

    /// The report row of `kind`. Only a write creates a row, so rows keep
    /// the order of their first write and an element an `--only` run
    /// excludes gets none.
    fn row(&mut self, kind: CacheKind) -> &mut MemoryElementReport {
        element_mut(&mut self.result.elements, kind)
    }

    /// Load latency (Sec. IV-C), one instance; returns the mean, the hit
    /// latency the element's later benchmarks classify against.
    fn latency(
        &mut self,
        kind: CacheKind,
        lat_cfg: &LatencyConfig,
        confidence: fn(&LatencyReport) -> f64,
    ) -> Option<f64> {
        self.count(1);
        let value = latency::run(&mut self.gpu, lat_cfg)?;
        self.row(kind).load_latency = Attribute::Measured {
            value,
            confidence: confidence(&value),
        };
        Some(value.mean)
    }

    /// Fetch granularity (Sec. IV-D) against hit latency `hit`, one
    /// instance.
    fn fetch_granularity(
        &mut self,
        kind: CacheKind,
        space: MemorySpace,
        flags: LoadFlags,
        hit: f64,
    ) -> Option<u64> {
        self.count(1);
        let fg_cfg = FetchGranularityConfig::new(space, flags, hit);
        let (value, confidence) = fetch_granularity::run(&mut self.gpu, &fg_cfg)?;
        self.row(kind).fetch_granularity_bytes = Attribute::Measured { value, confidence };
        Some(u64::from(value))
    }

    /// Read and write bandwidth, two instances, when the run measures
    /// bandwidth.
    fn bandwidth(&mut self, kind: CacheKind) {
        if !self.cfg.measure_bandwidth {
            return;
        }
        self.count(2);
        if let Some(bw) = bandwidth::run(&mut self.gpu, kind) {
            let row = self.row(kind);
            row.read_bandwidth_gibs = Attribute::Measured {
                value: bw.read_gibs,
                confidence: NOMINAL_CONFIDENCE,
            };
            row.write_bandwidth_gibs = Attribute::Measured {
                value: bw.write_gibs,
                confidence: NOMINAL_CONFIDENCE,
            };
        }
    }

    /// Size and line size of an AMD cache level from the HSA/KFD tables,
    /// and its per-GPU `amount` from the API; no benchmark instance. When
    /// a hostile environment locks the tables down, these attributes
    /// degrade to honest no-results (paper Sec. V: "no result, not a
    /// wrong result").
    fn amd_tables(&mut self, kind: CacheKind, amount: Option<u32>) {
        let locked = self.gpu.config.quirks.cache_info_apis_unavailable;
        let size = api::hsa_cache_sizes(&self.gpu)
            .and_then(|t| t.into_iter().find(|(k, _)| *k == kind).map(|(_, v)| v));
        let line = api::kfd_cache_line_sizes(&self.gpu)
            .and_then(|t| t.into_iter().find(|(k, _)| *k == kind).map(|(_, v)| v));
        let amount = amount.map(|count| AmountReport {
            count,
            scope: AmountScope::PerGpu,
        });
        if let Some(size) = from_api(size, locked) {
            self.row(kind).size = size;
        }
        if let Some(line) = from_api(line, locked) {
            self.row(kind).cache_line_bytes = line;
        }
        if let Some(amount) = from_api(amount, locked) {
            self.row(kind).amount = amount;
        }
    }

    /// Latency + fetch granularity + size + line size of one cacheable
    /// element through `.ca` loads; returns what later stages need.
    /// `latency_bytes` shrinks the latency array and `search_lo` raises the
    /// size search's floor (the constant path's CL1 and CL1.5); constant
    /// space caps the search at its 64 KiB array limit.
    fn cache_element(
        &mut self,
        kind: CacheKind,
        space: MemorySpace,
        latency_bytes: Option<u64>,
        search_lo: Option<u64>,
    ) -> Measured {
        let mut m = Measured::default();
        if !self.cfg.wants(kind) {
            return m;
        }
        let flags = LoadFlags::CACHE_ALL;

        // (1) Load latency, on a small fixed array (Sec. IV-C).
        let mut lat_cfg = LatencyConfig::standard(space, flags, 64);
        if let Some(bytes) = latency_bytes {
            lat_cfg.array_bytes = bytes;
            lat_cfg.stride_bytes = 64.min(bytes / 4).max(4);
        }
        m.hit_latency = self.latency(kind, &lat_cfg, spread_confidence);
        let Some(hit) = m.hit_latency else {
            return m;
        };

        // (2) Fetch granularity (Sec. IV-D) — the size benchmark's step.
        m.fetch_granularity = self.fetch_granularity(kind, space, flags, hit);
        let fg = m.fetch_granularity.unwrap_or(32);

        // (3) Size (Sec. IV-B).
        let mut size_cfg = SizeConfig {
            alpha: self.cfg.alpha,
            record_n: self.cfg.record_n,
            scan_points: self.cfg.scan_points,
            ..SizeConfig::new(space, flags, fg)
        };
        if let Some(lo) = search_lo {
            size_cfg.search_lo = lo;
        }
        if space == MemorySpace::Constant {
            size_cfg.search_cap = size_cfg.search_cap.min(CONSTANT_ARRAY_LIMIT);
        }
        self.count(1);
        self.row(kind).size = match size::run(&mut self.gpu, &size_cfg) {
            SizeResult::Found {
                bytes,
                confidence,
                probes,
                ..
            } => {
                self.result.probes.extend(probes);
                m.size = Some(bytes);
                Attribute::Measured {
                    value: bytes,
                    confidence,
                }
            }
            SizeResult::ExceedsCap { cap } => Attribute::AtLeast { value: cap },
            SizeResult::NoResult { reason } => Attribute::Unavailable { reason },
        };

        // (4) Cache line size (Sec. IV-E) — needs the size as input; the
        // paper's CL1.5 footnote applies: no size, no line size.
        self.count(1);
        self.row(kind).cache_line_bytes = match m.size {
            Some(size_bytes) => {
                let ls_cfg = LineSizeConfig::new(space, flags, size_bytes, fg, hit);
                match line_size::run(&mut self.gpu, &ls_cfg) {
                    Some((line, confidence)) => {
                        m.line_size = Some(u64::from(line));
                        Attribute::Measured {
                            value: line,
                            confidence,
                        }
                    }
                    None => Attribute::Unavailable {
                        reason: "line-size scan inconclusive".into(),
                    },
                }
            }
            None => Attribute::Unavailable {
                reason: "cache size unavailable (input to the line-size benchmark)".into(),
            },
        };
        m
    }

    /// Amount (Sec. IV-F) of an element the run wants, one instance when
    /// its size, granularity and latency are known.
    fn amount(&mut self, kind: CacheKind, space: MemorySpace, m: Measured, schedulable: bool) {
        if !self.cfg.wants(kind) {
            return;
        }
        let (Some(size), Some(fg), Some(lat)) = (m.size, m.fetch_granularity, m.hit_latency) else {
            self.row(kind).amount = Attribute::Unavailable {
                reason: "size/granularity/latency prerequisites missing".into(),
            };
            return;
        };
        self.count(1);
        let a_cfg = AmountConfig {
            space,
            flags: LoadFlags::CACHE_ALL,
            cache_size: size,
            fetch_granularity: fg,
            target_hit_latency: lat,
            schedulable,
        };
        self.row(kind).amount = match amount::run(&mut self.gpu, &a_cfg) {
            AmountResult::Found { count, .. } => Attribute::Measured {
                value: AmountReport {
                    count,
                    scope: AmountScope::PerSm,
                },
                confidence: FULL_CONFIDENCE,
            },
            AmountResult::NoResult { reason } => Attribute::Unavailable { reason },
        };
    }
}

/// `value` measured at `confidence`, or an honest no-result saying `why`.
fn measured_or<T>(value: Option<T>, confidence: f64, why: &str) -> Attribute<T> {
    match value {
        Some(value) => Attribute::Measured { value, confidence },
        None => Attribute::Unavailable { reason: why.into() },
    }
}

/// What an API query gave: the value, or — when a hostile environment
/// locks the HSA/KFD cache tables down — an honest no-result; `None`
/// leaves the attribute n/a.
fn from_api<T>(value: Option<T>, locked: bool) -> Option<Attribute<T>> {
    match value {
        Some(value) => Some(Attribute::FromApi { value }),
        None => locked.then(|| Attribute::Unavailable {
            reason: "HSA/KFD cache tables unavailable in this environment".into(),
        }),
    }
}

/// Maps one discovered TLB level into its report row.
fn tlb_row(level: TlbLevel, page: u64, outcome: TlbLevelOutcome) -> TlbReport {
    match outcome {
        TlbLevelOutcome::Found {
            reach_bytes,
            entries,
            confidence,
            miss_penalty_cycles,
        } => TlbReport {
            level,
            reach_bytes: Attribute::Measured {
                value: reach_bytes,
                confidence,
            },
            entries: Attribute::Measured {
                value: entries,
                confidence,
            },
            page_bytes: Attribute::FromApi { value: page },
            miss_penalty_cycles: measured_or(
                miss_penalty_cycles,
                NOMINAL_CONFIDENCE,
                "walk-penalty probes could not run (beyond-reach \
                 footprint unallocatable)",
            ),
        },
        TlbLevelOutcome::ExceedsCap { cap } => TlbReport {
            level,
            reach_bytes: Attribute::AtLeast { value: cap },
            entries: Attribute::AtLeast {
                value: (cap / page.max(1)) as u32,
            },
            page_bytes: Attribute::FromApi { value: page },
            miss_penalty_cycles: Attribute::Unavailable {
                reason: "no re-miss regime within the testable range".into(),
            },
        },
        TlbLevelOutcome::NoResult { reason } => {
            let mut row = TlbReport::unavailable(level, &reason);
            row.page_bytes = Attribute::FromApi { value: page };
            row
        }
    }
}

/// Maps one policy-probe outcome into its report row. `line_bytes`
/// converts the pin-down phase's capacity (in lines) into the corrected
/// size the report carries.
fn policy_row(element: CacheKind, line_bytes: u64, outcome: PolicyOutcome) -> PolicyReport {
    match outcome {
        PolicyOutcome::Found {
            policy,
            confidence,
            probe_lines,
            mismatch_bits,
            capacity_lines,
        } => PolicyReport {
            element,
            policy: Attribute::Measured {
                value: policy.label().to_string(),
                confidence,
            },
            probe_lines: Attribute::Measured {
                value: probe_lines,
                confidence,
            },
            mismatch_bits: Attribute::Measured {
                value: mismatch_bits,
                confidence,
            },
            true_capacity_bytes: Attribute::Measured {
                value: u64::from(capacity_lines) * line_bytes,
                confidence,
            },
        },
        PolicyOutcome::NoResult { reason } => PolicyReport::unavailable(element, &reason),
    }
}
