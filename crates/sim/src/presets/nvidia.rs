//! NVIDIA presets: P6000 (Pascal), V100 (Volta), T1000 / RTX 2080 Ti
//! (Turing), A100 (Ampere), H100-80 / H100-96 (Hopper), and the
//! Blackwell-class B200 / GB200 extrapolations beyond the paper's
//! Table II.

use crate::cache::ReplacementPolicy;
use crate::device::{
    gib, kib, mib, CacheKind, CacheSpec, ChipSpec, CuLayout, DeviceConfig, DramSpec, Microarch,
    ScratchpadSpec, SharingLayout, Vendor,
};
use crate::gpu::Gpu;
use crate::quirks::Quirks;

/// Builds a standard NVIDIA cache vector. Texture/Readonly entries describe
/// the *unified* physical L1 but carry their own measured path latencies.
#[allow(clippy::too_many_arguments)]
fn nvidia_caches(
    l1_size: u64,
    l1_line: u32,
    l1_fg: u32,
    l1_lat: u32,
    tex_lat: u32,
    ro_lat: u32,
    cl1_lat: u32,
    cl15_size: u64,
    cl15_lat: u32,
    l2_seg_size: u64,
    l2_segments: u32,
    l2_line: u32,
    l2_fg: u32,
    l2_lat: u32,
    l2_read_bw: f64,
    l2_write_bw: f64,
) -> Vec<(CacheKind, CacheSpec)> {
    let l1 = CacheSpec {
        size: l1_size,
        line_size: l1_line,
        fetch_granularity: l1_fg,
        load_latency: l1_lat,
        amount_per_sm: Some(1),
        segments: 1,
        read_bw_gibs: None,
        write_bw_gibs: None,
    };
    vec![
        (CacheKind::L1, l1),
        (
            CacheKind::Texture,
            CacheSpec {
                load_latency: tex_lat,
                ..l1
            },
        ),
        (
            CacheKind::Readonly,
            CacheSpec {
                load_latency: ro_lat,
                ..l1
            },
        ),
        (
            CacheKind::ConstL1,
            CacheSpec {
                size: kib(2),
                line_size: 64,
                fetch_granularity: 64,
                load_latency: cl1_lat,
                amount_per_sm: Some(1),
                segments: 1,
                read_bw_gibs: None,
                write_bw_gibs: None,
            },
        ),
        (
            CacheKind::ConstL15,
            CacheSpec {
                size: cl15_size,
                line_size: 256,
                fetch_granularity: 64,
                load_latency: cl15_lat,
                amount_per_sm: None,
                segments: 1,
                read_bw_gibs: None,
                write_bw_gibs: None,
            },
        ),
        (
            CacheKind::L2,
            CacheSpec {
                size: l2_seg_size,
                line_size: l2_line,
                fetch_granularity: l2_fg,
                load_latency: l2_lat,
                amount_per_sm: None,
                segments: l2_segments,
                read_bw_gibs: Some(l2_read_bw),
                write_bw_gibs: Some(l2_write_bw),
            },
        ),
    ]
}

const NO_CU_LAYOUT: Option<CuLayout> = None;

/// NVIDIA Quadro P6000 (Pascal, GP102) — the oldest supported GPU, carrying
/// both documented Pascal quirks.
pub fn p6000() -> Gpu {
    Gpu::new(DeviceConfig {
        name: "Quadro P6000".into(),
        vendor: Vendor::Nvidia,
        microarch: Microarch::Pascal,
        chip: ChipSpec {
            num_sms: 30,
            cores_per_sm: 128,
            warp_size: 32,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            regs_per_block: 65536,
            regs_per_sm: 65536,
            clock_mhz: 1506,
            mem_clock_mhz: 4513,
            bus_width_bits: 384,
            compute_capability: "6.1".into(),
        },
        caches: nvidia_caches(
            kib(24),
            128,
            32,
            82,
            86,
            80,
            26,
            kib(64),
            110,
            mib(3),
            1,
            64,
            32,
            216,
            900.0,
            800.0,
        ),
        scratchpad: ScratchpadSpec {
            size: kib(96),
            load_latency: 23,
        },
        dram: DramSpec {
            size: gib(24),
            load_latency: 545,
            read_bw_gibs: 390.0,
            write_bw_gibs: 360.0,
        },
        sharing: SharingLayout {
            l1_tex_ro_unified: true,
        },
        cu_layout: NO_CU_LAYOUT,
        tlb: super::preset_tlb(16, 48, 128, 400),
        policies: vec![],
        quirks: Quirks {
            l1_amount_unschedulable: true,
            flaky_l1_const_sharing: true,
            ..Quirks::NONE
        },
        clock_overhead_cycles: 8,
    })
}

/// NVIDIA V100 16GB (Volta, GV100). Notable for a 64 B default transaction
/// (two sectors) — paper Sec. IV-D.
pub fn v100() -> Gpu {
    Gpu::new(DeviceConfig {
        name: "V100 16GB".into(),
        vendor: Vendor::Nvidia,
        microarch: Microarch::Volta,
        chip: ChipSpec {
            num_sms: 80,
            cores_per_sm: 64,
            warp_size: 32,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            regs_per_block: 65536,
            regs_per_sm: 65536,
            clock_mhz: 1530,
            mem_clock_mhz: 877,
            bus_width_bits: 4096,
            compute_capability: "7.0".into(),
        },
        caches: nvidia_caches(
            kib(116),
            128,
            64, // V100 default transaction = 2 sectors = 64 B
            28,
            32,
            30,
            30,
            kib(64),
            120,
            mib(6),
            1,
            64,
            32,
            193,
            2150.0,
            1900.0,
        ),
        scratchpad: ScratchpadSpec {
            size: kib(96),
            load_latency: 19,
        },
        dram: DramSpec {
            size: gib(16),
            load_latency: 425,
            read_bw_gibs: 790.0,
            write_bw_gibs: 750.0,
        },
        sharing: SharingLayout {
            l1_tex_ro_unified: true,
        },
        cu_layout: NO_CU_LAYOUT,
        tlb: super::preset_tlb(16, 48, 128, 420),
        policies: vec![],
        quirks: Quirks::NONE,
        clock_overhead_cycles: 6,
    })
}

/// NVIDIA T1000 (Turing, TU117) — the small Turing workstation part.
pub fn t1000() -> Gpu {
    Gpu::new(DeviceConfig {
        name: "T1000".into(),
        vendor: Vendor::Nvidia,
        microarch: Microarch::Turing,
        chip: ChipSpec {
            num_sms: 14,
            cores_per_sm: 64,
            warp_size: 32,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            max_threads_per_sm: 1024,
            regs_per_block: 65536,
            regs_per_sm: 65536,
            clock_mhz: 1395,
            mem_clock_mhz: 1000,
            bus_width_bits: 128,
            compute_capability: "7.5".into(),
        },
        caches: nvidia_caches(
            kib(32),
            128,
            32,
            32,
            34,
            33,
            27,
            kib(32),
            92,
            mib(1),
            1,
            64,
            32,
            188,
            300.0,
            280.0,
        ),
        scratchpad: ScratchpadSpec {
            size: kib(32),
            load_latency: 22,
        },
        dram: DramSpec {
            size: gib(8),
            load_latency: 470,
            read_bw_gibs: 140.0,
            write_bw_gibs: 130.0,
        },
        sharing: SharingLayout {
            l1_tex_ro_unified: true,
        },
        cu_layout: NO_CU_LAYOUT,
        tlb: super::preset_tlb(16, 48, 128, 430),
        policies: vec![],
        quirks: Quirks::NONE,
        clock_overhead_cycles: 6,
    })
}

/// NVIDIA GeForce RTX 2080 Ti (Turing, TU102).
pub fn rtx2080() -> Gpu {
    Gpu::new(DeviceConfig {
        name: "GeForce RTX 2080 Ti".into(),
        vendor: Vendor::Nvidia,
        microarch: Microarch::Turing,
        chip: ChipSpec {
            num_sms: 68,
            cores_per_sm: 64,
            warp_size: 32,
            max_blocks_per_sm: 16,
            max_threads_per_block: 1024,
            max_threads_per_sm: 1024,
            regs_per_block: 65536,
            regs_per_sm: 65536,
            clock_mhz: 1545,
            mem_clock_mhz: 1750,
            bus_width_bits: 352,
            compute_capability: "7.5".into(),
        },
        caches: nvidia_caches(
            kib(64),
            128,
            32,
            32,
            35,
            33,
            27,
            kib(32),
            90,
            5632 * 1024, // 5.5 MiB
            1,
            64,
            32,
            194,
            1800.0,
            1600.0,
        ),
        scratchpad: ScratchpadSpec {
            size: kib(64),
            load_latency: 22,
        },
        dram: DramSpec {
            size: gib(11),
            load_latency: 434,
            read_bw_gibs: 520.0,
            write_bw_gibs: 490.0,
        },
        sharing: SharingLayout {
            l1_tex_ro_unified: true,
        },
        cu_layout: NO_CU_LAYOUT,
        tlb: super::preset_tlb(16, 48, 128, 430),
        policies: vec![],
        quirks: Quirks::NONE,
        clock_overhead_cycles: 6,
    })
}

/// NVIDIA A100 40GB (Ampere, GA100). The 40 MB L2 is physically two 20 MB
/// segments — the L2-segment benchmark's canonical subject (and Fig. 5's).
pub fn a100() -> Gpu {
    Gpu::new(DeviceConfig {
        name: "A100".into(),
        vendor: Vendor::Nvidia,
        microarch: Microarch::Ampere,
        chip: ChipSpec {
            num_sms: 108,
            cores_per_sm: 64,
            warp_size: 32,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            regs_per_block: 65536,
            regs_per_sm: 65536,
            clock_mhz: 1410,
            mem_clock_mhz: 1215,
            bus_width_bits: 5120,
            compute_capability: "8.0".into(),
        },
        caches: nvidia_caches(
            kib(128),
            128,
            32,
            33,
            36,
            34,
            24,
            kib(32),
            96,
            mib(20),
            2,
            128,
            32,
            200,
            3600.0,
            2900.0,
        ),
        scratchpad: ScratchpadSpec {
            size: kib(164),
            load_latency: 29,
        },
        dram: DramSpec {
            size: gib(40),
            load_latency: 680,
            read_bw_gibs: 1350.0,
            write_bw_gibs: 1250.0,
        },
        sharing: SharingLayout {
            l1_tex_ro_unified: true,
        },
        cu_layout: NO_CU_LAYOUT,
        tlb: super::preset_tlb(64, 52, 512, 450),
        policies: vec![],
        quirks: Quirks::NONE,
        clock_overhead_cycles: 6,
    })
}

fn h100(name: &str, dram_gib: u64, dram_lat: u32, dram_read: f64, dram_write: f64) -> Gpu {
    Gpu::new(DeviceConfig {
        name: name.into(),
        vendor: Vendor::Nvidia,
        microarch: Microarch::Hopper,
        chip: ChipSpec {
            num_sms: 132,
            cores_per_sm: 128,
            warp_size: 32,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            regs_per_block: 65536,
            regs_per_sm: 65536,
            clock_mhz: 1980,
            mem_clock_mhz: 2619,
            bus_width_bits: 5120,
            compute_capability: "9.0".into(),
        },
        // Table III's MT4G-measured column, planted as truth: L1 238 KiB /
        // 38 cyc / 128 B lines / 32 B sectors; CL1 2 KiB / 21 cyc / 64 B;
        // CL1.5 beyond the 64 KiB testable limit at 105 cyc; L2 2×25 MB at
        // 220 cyc with 4.4/3.4 TiB/s.
        caches: nvidia_caches(
            kib(238),
            128,
            32,
            38,
            39,
            35,
            21,
            kib(128),
            105,
            mib(25),
            2,
            128,
            32,
            220,
            4505.0,
            3482.0,
        ),
        scratchpad: ScratchpadSpec {
            size: kib(228),
            load_latency: 30,
        },
        dram: DramSpec {
            size: gib(dram_gib),
            load_latency: dram_lat,
            read_bw_gibs: dram_read,
            write_bw_gibs: dram_write,
        },
        sharing: SharingLayout {
            l1_tex_ro_unified: true,
        },
        cu_layout: NO_CU_LAYOUT,
        tlb: super::preset_tlb(64, 52, 512, 480),
        policies: vec![],
        quirks: Quirks::NONE,
        clock_overhead_cycles: 6,
    })
}

/// NVIDIA H100 80GB HBM3 SXM5 (Hopper) — the Table III reference GPU.
pub fn h100_80() -> Gpu {
    h100("H100 80GB HBM3", 80, 843, 2560.0, 2765.0)
}

/// NVIDIA H100 96GB HBM3 (Hopper).
pub fn h100_96() -> Gpu {
    h100("H100 96GB HBM3", 96, 850, 2600.0, 2800.0)
}

/// Shared Blackwell-class (GB100) geometry: 148 SMs, a 256 KiB unified L1,
/// and a 126 MB L2 in two 63 MB segments behind a 8192-bit HBM3e bus.
/// Values extrapolate the Hopper→Blackwell whitepaper deltas the same way
/// the paper's reference hierarchy extrapolates from the literature; they
/// are planted ground truth for the discovery pipeline, not measurements.
#[allow(clippy::too_many_arguments)]
fn blackwell(
    name: &str,
    clock_mhz: u32,
    mem_clock_mhz: u32,
    dram_gib: u64,
    dram_lat: u32,
    dram_read: f64,
    dram_write: f64,
    l1_policy: ReplacementPolicy,
    quirks: Quirks,
) -> Gpu {
    Gpu::new(DeviceConfig {
        name: name.into(),
        vendor: Vendor::Nvidia,
        microarch: Microarch::Blackwell,
        chip: ChipSpec {
            num_sms: 148,
            cores_per_sm: 128,
            warp_size: 32,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            regs_per_block: 65536,
            regs_per_sm: 65536,
            clock_mhz,
            mem_clock_mhz,
            bus_width_bits: 8192,
            compute_capability: "10.0".into(),
        },
        caches: nvidia_caches(
            kib(256),
            128,
            32,
            40,
            41,
            37,
            22,
            kib(128),
            100,
            mib(63),
            2,
            128,
            32,
            240,
            5200.0,
            4100.0,
        ),
        scratchpad: ScratchpadSpec {
            size: kib(228),
            load_latency: 31,
        },
        dram: DramSpec {
            size: gib(dram_gib),
            load_latency: dram_lat,
            read_bw_gibs: dram_read,
            write_bw_gibs: dram_write,
        },
        sharing: SharingLayout {
            l1_tex_ro_unified: true,
        },
        cu_layout: NO_CU_LAYOUT,
        tlb: super::preset_tlb(128, 56, 1024, 500),
        // Blackwell L1s are planted with non-LRU evictors so the policy
        // discovery unit has ground truth to fingerprint blind.
        policies: vec![(CacheKind::L1, l1_policy)],
        quirks,
        clock_overhead_cycles: 6,
    })
}

/// NVIDIA B200 180GB HBM3e (Blackwell, GB100). Planted quirk: early
/// Blackwell drivers misreport L1 / Constant-L1 physical sharing, so that
/// pair is surfaced with zero confidence (a Pascal-style non-result on a
/// brand-new part). Planted policy: a tree-PLRU L1, the evictor most L1
/// literature actually reports.
pub fn b200() -> Gpu {
    blackwell(
        "B200 180GB HBM3e",
        1965,
        3200,
        180,
        895,
        6600.0,
        6100.0,
        ReplacementPolicy::TreePlru,
        Quirks {
            flaky_l1_const_sharing: true,
            ..Quirks::NONE
        },
    )
}

/// NVIDIA GB200 (Blackwell, the Grace-coupled superchip's GPU view):
/// same GB100 silicon as the B200 at NVL-cabinet clocks and capacity.
/// Planted quirk: the cgroup-pinned NVL deployment cannot schedule
/// benchmark threads on the last warp, so the L1 Amount benchmark reports
/// no result (the P6000 failure mode on a modern part). Planted policy:
/// a segmented-LRU L1 — scan-resistant, and deliberately different from
/// the B200 so the two Blackwell parts are distinguishable by policy.
pub fn gb200() -> Gpu {
    blackwell(
        "GB200 186GB HBM3e",
        2100,
        3400,
        186,
        880,
        7000.0,
        6400.0,
        ReplacementPolicy::Slru,
        Quirks {
            l1_amount_unschedulable: true,
            ..Quirks::NONE
        },
    )
}
