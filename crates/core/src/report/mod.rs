//! The MT4G report data model — the tool's "human- and machine-readable
//! output, suitable for developers and automated tools".
//!
//! Every attribute records its *provenance*: measured by a benchmark (with
//! a confidence metric), obtained from a vendor API, saturated at a testing
//! limit (the Constant-L1.5 case), unavailable, or not applicable — exactly
//! the legend of the paper's Table I.

mod coverage;
mod csv;
mod json;
mod markdown;

pub use coverage::{coverage_matrix, CoverageCell, CoverageRow};
pub use csv::to_csv;
pub use json::{from_json, to_json, to_json_pretty};
pub use markdown::to_markdown;

use mt4g_stats::Summary;
use serde::{Deserialize, Serialize};

use mt4g_sim::device::{CacheKind, Vendor};

/// One reported attribute with provenance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "source")]
pub enum Attribute<T> {
    /// Reverse-engineered by a microbenchmark; `confidence` in `[0, 1]` is
    /// derived from the statistical test (e.g. K-S significance).
    Measured {
        /// The measured value.
        value: T,
        /// Statistical confidence in `[0, 1]`.
        confidence: f64,
    },
    /// Retrieved from a vendor API / driver — not benchmarked.
    FromApi {
        /// The reported value.
        value: T,
    },
    /// The benchmark saturated a testing limit: the true value is at least
    /// `value` (Table III's ">64KiB" Constant L1.5 size, confidence 0).
    AtLeast {
        /// The testable lower bound.
        value: T,
    },
    /// The benchmark could not produce a result (the paper's three
    /// documented quirks land here).
    Unavailable {
        /// Why, e.g. "virtualised environment: CU pinning unavailable".
        reason: String,
    },
    /// The attribute does not exist for this memory element (e.g. cache
    /// line size of a scratchpad).
    NotApplicable,
}

impl<T> Attribute<T> {
    /// The value, if one was determined (measured / API / at-least).
    pub fn value(&self) -> Option<&T> {
        match self {
            Attribute::Measured { value, .. }
            | Attribute::FromApi { value }
            | Attribute::AtLeast { value } => Some(value),
            _ => None,
        }
    }

    /// Confidence of the value: 1.0 for API values, the test significance
    /// for measurements, 0.0 otherwise.
    pub fn confidence(&self) -> f64 {
        match self {
            Attribute::Measured { confidence, .. } => *confidence,
            Attribute::FromApi { .. } => 1.0,
            _ => 0.0,
        }
    }

    /// Whether a usable value is present.
    pub fn is_available(&self) -> bool {
        self.value().is_some()
    }

    /// Maps the contained value.
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> Attribute<U> {
        match self {
            Attribute::Measured { value, confidence } => Attribute::Measured {
                value: f(value),
                confidence,
            },
            Attribute::FromApi { value } => Attribute::FromApi { value: f(value) },
            Attribute::AtLeast { value } => Attribute::AtLeast { value: f(value) },
            Attribute::Unavailable { reason } => Attribute::Unavailable { reason },
            Attribute::NotApplicable => Attribute::NotApplicable,
        }
    }
}

/// Latency statistics reported for a memory element (paper Sec. IV-C:
/// "the average as a main result, and a set of statistical values").
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LatencyReport {
    /// Mean latency in cycles (the headline value).
    pub mean: f64,
    /// Full summary statistics (p50, p95, standard deviation, ...).
    pub stats: Summary,
}

/// How many instances of a memory element exist, and per what scope.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AmountReport {
    /// Number of independent instances.
    pub count: u32,
    /// Scope of `count`.
    pub scope: AmountScope,
}

/// Scope of an amount measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AmountScope {
    /// Instances per SM / CU.
    PerSm,
    /// Instances (segments) per GPU.
    PerGpu,
}

/// Physical-sharing information.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SharingReport {
    /// NVIDIA: the logical memory spaces this element physically shares a
    /// cache with (e.g. L1 ↔ Texture ↔ Readonly).
    Spaces(Vec<CacheKind>),
    /// AMD sL1d: for every logical CU id, the logical CU ids it shares the
    /// sL1d with (empty = exclusive access).
    CuPartners(Vec<Vec<u32>>),
}

/// Everything MT4G reports about one memory element (one Table I row).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MemoryElementReport {
    /// Which element.
    pub kind: CacheKind,
    /// Capacity in bytes.
    pub size: Attribute<u64>,
    /// Load latency in cycles.
    pub load_latency: Attribute<LatencyReport>,
    /// Achieved read bandwidth in GiB/s (higher-level caches and device
    /// memory only).
    pub read_bandwidth_gibs: Attribute<f64>,
    /// Achieved write bandwidth in GiB/s.
    pub write_bandwidth_gibs: Attribute<f64>,
    /// Cache line size in bytes.
    pub cache_line_bytes: Attribute<u32>,
    /// Fetch granularity (sector size) in bytes.
    pub fetch_granularity_bytes: Attribute<u32>,
    /// Number of independent instances.
    pub amount: Attribute<AmountReport>,
    /// Physical sharing.
    pub shared_with: Attribute<SharingReport>,
}

impl MemoryElementReport {
    /// A fresh report where everything is still unmeasured n/a.
    pub fn empty(kind: CacheKind) -> Self {
        MemoryElementReport {
            kind,
            size: Attribute::NotApplicable,
            load_latency: Attribute::NotApplicable,
            read_bandwidth_gibs: Attribute::NotApplicable,
            write_bandwidth_gibs: Attribute::NotApplicable,
            cache_line_bytes: Attribute::NotApplicable,
            fetch_granularity_bytes: Attribute::NotApplicable,
            amount: Attribute::NotApplicable,
            shared_with: Attribute::NotApplicable,
        }
    }
}

/// Which translation level a [`TlbReport`] row describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TlbLevel {
    /// The per-SM/CU L1 TLB.
    L1Tlb,
    /// The GPU-level L2 TLB.
    L2Tlb,
}

impl TlbLevel {
    /// Human-readable label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            TlbLevel::L1Tlb => "L1 TLB",
            TlbLevel::L2Tlb => "L2 TLB",
        }
    }
}

/// Everything the TLB-reach benchmark reports about one translation level.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TlbReport {
    /// Which level.
    pub level: TlbLevel,
    /// Reach in bytes: the largest footprint one SM/CU can touch before
    /// this level starts re-missing.
    pub reach_bytes: Attribute<u64>,
    /// Entry count (`reach / page size`).
    pub entries: Attribute<u32>,
    /// Translation page size in bytes (a driver constant, from the API).
    pub page_bytes: Attribute<u64>,
    /// Walk penalty a re-miss of this level adds, in cycles.
    pub miss_penalty_cycles: Attribute<f64>,
}

impl TlbReport {
    /// A row whose every attribute is unavailable for one `reason` — the
    /// honest no-result shape of locked-down environments.
    pub fn unavailable(level: TlbLevel, reason: &str) -> Self {
        fn gone<T>(reason: &str) -> Attribute<T> {
            Attribute::Unavailable {
                reason: reason.to_string(),
            }
        }
        TlbReport {
            level,
            reach_bytes: gone(reason),
            entries: gone(reason),
            page_bytes: gone(reason),
            miss_penalty_cycles: gone(reason),
        }
    }
}

/// The shared-L2 contention measurement: what a co-running polluter on a
/// same-segment vs. cross-segment SM does to one SM's L2 latency — an
/// independent cross-check of the L2 segment mapping.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContentionReport {
    /// The victim SM the latencies were observed from (always SM 0 in
    /// this implementation — including on the all-unavailable rows of
    /// environments where the benchmark could not run; the per-attribute
    /// `Unavailable` reasons carry that distinction).
    pub victim_sm: u32,
    /// Segment count estimated from the same-segment peer fraction.
    pub segments_estimate: Attribute<u32>,
    /// A discovered SM sharing the victim's L2 segment.
    pub same_segment_sm: Attribute<u32>,
    /// A discovered SM wired to a different segment (unavailable on
    /// single-segment parts).
    pub cross_segment_sm: Attribute<u32>,
    /// Victim median latency with no co-runner, in cycles.
    pub solo_latency_cycles: Attribute<f64>,
    /// Victim median latency with a same-segment polluter.
    pub same_segment_latency_cycles: Attribute<f64>,
    /// Victim median latency with a cross-segment polluter.
    pub cross_segment_latency_cycles: Attribute<f64>,
}

impl ContentionReport {
    /// A row whose every attribute is unavailable for one `reason` — the
    /// honest no-result shape, mirroring [`TlbReport::unavailable`].
    pub fn unavailable(victim_sm: u32, reason: &str) -> Self {
        fn gone<T>(reason: &str) -> Attribute<T> {
            Attribute::Unavailable {
                reason: reason.to_string(),
            }
        }
        ContentionReport {
            victim_sm,
            segments_estimate: gone(reason),
            same_segment_sm: gone(reason),
            cross_segment_sm: gone(reason),
            solo_latency_cycles: gone(reason),
            same_segment_latency_cycles: gone(reason),
            cross_segment_latency_cycles: gone(reason),
        }
    }
}

/// What the replacement-policy probe concluded about one cache level —
/// the paper's Sec. IV-B eviction assumption, surfaced as a measurement.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyReport {
    /// Which cache level the probe ran against.
    pub element: CacheKind,
    /// The classified replacement policy ("lru", "tree-plru", "slru",
    /// "random", "bypass").
    pub policy: Attribute<String>,
    /// Number of probe observations the verdict is based on.
    pub probe_lines: Attribute<u32>,
    /// Hamming distance between the observed hit/miss pattern and the
    /// winning reference policy's prediction (trial divergence for
    /// `random`) — the verdict's residual.
    pub mismatch_bits: Attribute<u32>,
    /// True capacity recovered by the policy-agnostic fill/reverse-probe
    /// pin-down. The size benchmark's thrash-point estimate is exact
    /// only under LRU (inflated up to ~1.75x by approximating evictors);
    /// this value corrects it.
    pub true_capacity_bytes: Attribute<u64>,
}

impl PolicyReport {
    /// A row whose every attribute is unavailable for one `reason` — the
    /// honest no-result shape, mirroring [`TlbReport::unavailable`].
    pub fn unavailable(element: CacheKind, reason: &str) -> Self {
        fn gone<T>(reason: &str) -> Attribute<T> {
            Attribute::Unavailable {
                reason: reason.to_string(),
            }
        }
        PolicyReport {
            element,
            policy: gone(reason),
            probe_lines: gone(reason),
            mismatch_bits: gone(reason),
            true_capacity_bytes: gone(reason),
        }
    }
}

/// General device information (paper Sec. III-A) — all from APIs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceInfo {
    /// Marketing name.
    pub name: String,
    /// Vendor.
    pub vendor: Vendor,
    /// Compute capability / gfx arch.
    pub compute_capability: String,
    /// Core clock in MHz.
    pub clock_mhz: u32,
    /// Memory clock in MHz.
    pub mem_clock_mhz: u32,
    /// Memory bus width in bits.
    pub bus_width_bits: u32,
}

/// Compute-resource information (paper Sec. III-B).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ComputeInfo {
    /// Number of SMs / CUs.
    pub num_sms: u32,
    /// Cores per SM/CU — from the microarchitecture lookup table, the one
    /// compute attribute APIs don't report.
    pub cores_per_sm: u32,
    /// Warp / wavefront size.
    pub warp_size: u32,
    /// Warps/SIMDs per SM/CU (`max_threads_per_sm / warp_size`).
    pub warps_per_sm: u32,
    /// Maximum resident blocks per SM/CU.
    pub max_blocks_per_sm: u32,
    /// Maximum threads per block.
    pub max_threads_per_block: u32,
    /// Maximum resident threads per SM/CU.
    pub max_threads_per_sm: u32,
    /// Registers per block.
    pub regs_per_block: u32,
    /// Registers per SM/CU.
    pub regs_per_sm: u32,
    /// Logical→physical CU id mapping (AMD only).
    pub cu_physical_ids: Option<Vec<u32>>,
}

/// Run-time accounting (paper Sec. V-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RuntimeInfo {
    /// Number of benchmark instances executed.
    pub benchmarks_run: u32,
    /// Kernels launched.
    pub kernels_launched: u64,
    /// Loads executed.
    pub loads_executed: u64,
    /// Total simulated GPU cycles. Timed loads are charged their noisy
    /// latency, untimed (warm-up) loads their noiseless one.
    pub gpu_cycles: u64,
}

/// Measured arithmetic throughput of one datatype/engine — the paper's
/// future-work extension ("FLOPS for INT and FP datatypes of different
/// precisions", tensor engines).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlopsEntry {
    /// Datatype / engine.
    pub dtype: mt4g_sim::compute::DType,
    /// Achieved throughput in GFLOP/s (GOP/s for integer types).
    pub achieved_gflops: Attribute<f64>,
    /// Independent accumulator chains per thread at the optimum.
    pub best_ilp: Option<u32>,
}

/// The complete MT4G report for one GPU.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// General information.
    pub device: DeviceInfo,
    /// Compute resources.
    pub compute: ComputeInfo,
    /// One entry per memory element, in Table I order.
    pub memory: Vec<MemoryElementReport>,
    /// Arithmetic-throughput extension (empty when not measured).
    #[serde(default)]
    pub compute_throughput: Vec<FlopsEntry>,
    /// Discovered TLB levels (`--tlb`; absent from the JSON when the
    /// TLB-reach unit did not run, so pre-TLB reports are byte-stable).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub tlb: Vec<TlbReport>,
    /// Shared-L2 contention measurements (`--contention`; absent from the
    /// JSON when the unit did not run).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub contention: Vec<ContentionReport>,
    /// Replacement-policy classifications (`--policy`; absent from the
    /// JSON when the unit did not run, so pre-policy reports are
    /// byte-stable).
    #[serde(default, skip_serializing_if = "Vec::is_empty")]
    pub policy: Vec<PolicyReport>,
    /// Run-time accounting.
    pub runtime: RuntimeInfo,
}

impl Report {
    /// Finds the report row of a memory element.
    pub fn element(&self, kind: CacheKind) -> Option<&MemoryElementReport> {
        self.memory.iter().find(|m| m.kind == kind)
    }

    /// Mutable access to (or creation of) a memory element's row.
    pub fn element_mut(&mut self, kind: CacheKind) -> &mut MemoryElementReport {
        if let Some(pos) = self.memory.iter().position(|m| m.kind == kind) {
            &mut self.memory[pos]
        } else {
            self.memory.push(MemoryElementReport::empty(kind));
            self.memory.last_mut().expect("just pushed")
        }
    }
}

/// Formats a byte count the way the paper's tables do (KiB/MiB/GB).
pub fn format_bytes(bytes: u64) -> String {
    const KIB: u64 = 1024;
    const MIB: u64 = 1024 * KIB;
    const GIB: u64 = 1024 * MIB;
    if bytes >= GIB && bytes.is_multiple_of(GIB) {
        format!("{}GiB", bytes / GIB)
    } else if bytes >= MIB && bytes.is_multiple_of(MIB) {
        format!("{}MiB", bytes / MIB)
    } else if bytes >= KIB && bytes.is_multiple_of(KIB) {
        format!("{}KiB", bytes / KIB)
    } else if bytes >= MIB {
        format!("{:.1}MiB", bytes as f64 / MIB as f64)
    } else if bytes >= KIB {
        format!("{:.1}KiB", bytes as f64 / KIB as f64)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn attribute_value_and_confidence() {
        let m: Attribute<u64> = Attribute::Measured {
            value: 42,
            confidence: 0.97,
        };
        assert_eq!(m.value(), Some(&42));
        assert!((m.confidence() - 0.97).abs() < 1e-12);
        let api: Attribute<u64> = Attribute::FromApi { value: 7 };
        assert_eq!(api.confidence(), 1.0);
        let na: Attribute<u64> = Attribute::NotApplicable;
        assert!(na.value().is_none());
        assert!(!na.is_available());
        let least: Attribute<u64> = Attribute::AtLeast { value: 65536 };
        assert_eq!(least.confidence(), 0.0);
        assert!(least.is_available());
    }

    #[test]
    fn attribute_map_preserves_provenance() {
        let m: Attribute<u64> = Attribute::Measured {
            value: 1024,
            confidence: 0.9,
        };
        let s = m.map(format_bytes);
        assert_eq!(
            s,
            Attribute::Measured {
                value: "1KiB".into(),
                confidence: 0.9
            }
        );
    }

    #[test]
    fn element_mut_creates_rows_once() {
        let mut report = Report {
            device: DeviceInfo {
                name: "x".into(),
                vendor: Vendor::Nvidia,
                compute_capability: "9.0".into(),
                clock_mhz: 1,
                mem_clock_mhz: 1,
                bus_width_bits: 1,
            },
            compute: ComputeInfo {
                num_sms: 1,
                cores_per_sm: 1,
                warp_size: 32,
                warps_per_sm: 1,
                max_blocks_per_sm: 1,
                max_threads_per_block: 1,
                max_threads_per_sm: 32,
                regs_per_block: 1,
                regs_per_sm: 1,
                cu_physical_ids: None,
            },
            memory: Vec::new(),
            compute_throughput: Vec::new(),
            tlb: Vec::new(),
            contention: Vec::new(),
            policy: Vec::new(),
            runtime: RuntimeInfo::default(),
        };
        report.element_mut(CacheKind::L1).size = Attribute::FromApi { value: 1 };
        report.element_mut(CacheKind::L1).cache_line_bytes = Attribute::FromApi { value: 128 };
        assert_eq!(report.memory.len(), 1);
        assert!(report.element(CacheKind::L1).unwrap().size.is_available());
    }

    fn minimal_report() -> Report {
        Report {
            device: DeviceInfo {
                name: "x".into(),
                vendor: Vendor::Nvidia,
                compute_capability: "9.0".into(),
                clock_mhz: 1,
                mem_clock_mhz: 1,
                bus_width_bits: 1,
            },
            compute: ComputeInfo {
                num_sms: 1,
                cores_per_sm: 1,
                warp_size: 32,
                warps_per_sm: 1,
                max_blocks_per_sm: 1,
                max_threads_per_block: 1,
                max_threads_per_sm: 32,
                regs_per_block: 1,
                regs_per_sm: 1,
                cu_physical_ids: None,
            },
            memory: Vec::new(),
            compute_throughput: Vec::new(),
            tlb: Vec::new(),
            contention: Vec::new(),
            policy: Vec::new(),
            runtime: RuntimeInfo::default(),
        }
    }

    /// The extension sections must be invisible in the JSON until their
    /// units run: pre-TLB reports stay byte-stable, and JSON serialized
    /// before the sections existed still parses.
    #[test]
    fn empty_extension_sections_are_skipped_and_tolerated() {
        let report = minimal_report();
        let json = to_json_pretty(&report).unwrap();
        assert!(!json.contains("\"tlb\""), "empty tlb section serialized");
        assert!(!json.contains("\"contention\""));
        let parsed = from_json(&json).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn tlb_and_contention_sections_round_trip() {
        let mut report = minimal_report();
        report.tlb.push(TlbReport {
            level: TlbLevel::L1Tlb,
            reach_bytes: Attribute::Measured {
                value: 32 << 20,
                confidence: 0.99,
            },
            entries: Attribute::Measured {
                value: 16,
                confidence: 0.99,
            },
            page_bytes: Attribute::FromApi { value: 2 << 20 },
            miss_penalty_cycles: Attribute::Measured {
                value: 48.0,
                confidence: 0.9,
            },
        });
        report
            .tlb
            .push(TlbReport::unavailable(TlbLevel::L2Tlb, "locked down"));
        report.contention.push(ContentionReport {
            victim_sm: 0,
            segments_estimate: Attribute::Measured {
                value: 2,
                confidence: 0.9,
            },
            same_segment_sm: Attribute::Measured {
                value: 2,
                confidence: 1.0,
            },
            cross_segment_sm: Attribute::Measured {
                value: 1,
                confidence: 1.0,
            },
            solo_latency_cycles: Attribute::Measured {
                value: 200.0,
                confidence: 0.9,
            },
            same_segment_latency_cycles: Attribute::Measured {
                value: 680.0,
                confidence: 0.9,
            },
            cross_segment_latency_cycles: Attribute::Measured {
                value: 200.0,
                confidence: 0.9,
            },
        });
        let json = to_json_pretty(&report).unwrap();
        assert!(json.contains("\"L1Tlb\""));
        let parsed = from_json(&json).unwrap();
        assert_eq!(parsed, report);
    }

    #[test]
    fn byte_formatting_matches_paper_style() {
        assert_eq!(format_bytes(2048), "2KiB");
        assert_eq!(format_bytes(243712), "238KiB");
        assert_eq!(format_bytes(50 * 1024 * 1024), "50MiB");
        assert_eq!(format_bytes(80 * 1024 * 1024 * 1024), "80GiB");
        assert_eq!(format_bytes(100), "100B");
        assert_eq!(format_bytes(1536), "1.5KiB");
    }
}
