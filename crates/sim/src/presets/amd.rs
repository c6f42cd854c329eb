//! AMD presets: the CDNA compute parts of Table II — MI100 (CDNA1),
//! MI210 (CDNA2), MI300X (CDNA3) — plus the RDNA3/RDNA4 consumer parts
//! (RX 7900 XTX, RX 9070 XT) that extend the matrix beyond the paper.
//!
//! The RDNA hierarchy is a different cache *set* than CDNA: a 128 B-line
//! per-CU L0 vector cache (mapped onto [`CacheKind::VL1`]), a per-WGP
//! scalar cache ([`CacheKind::SL1D`], group size 2), a GPU-level L2, and
//! the MALL "Infinity Cache" behind it (mapped onto [`CacheKind::L3`],
//! like the MI300X's Infinity Cache). The per-shader-array graphics L1 of
//! RDNA3 is read-only for compute and not modeled.

use crate::cache::ReplacementPolicy;
use crate::device::{
    gib, kib, mib, CacheKind, CacheSpec, ChipSpec, CuLayout, DeviceConfig, DramSpec, Microarch,
    ScratchpadSpec, SharingLayout, Vendor,
};
use crate::gpu::Gpu;
use crate::quirks::Quirks;

fn vl1(size: u64, lat: u32) -> CacheSpec {
    CacheSpec {
        size,
        line_size: 64,
        fetch_granularity: 64,
        load_latency: lat,
        amount_per_sm: Some(1),
        segments: 1,
        read_bw_gibs: None,
        write_bw_gibs: None,
    }
}

fn sl1d(size: u64, lat: u32) -> CacheSpec {
    CacheSpec {
        size,
        line_size: 64,
        fetch_granularity: 64,
        load_latency: lat,
        amount_per_sm: None,
        segments: 1,
        read_bw_gibs: None,
        write_bw_gibs: None,
    }
}

fn amd_l2(seg_size: u64, segments: u32, lat: u32, read_bw: f64, write_bw: f64) -> CacheSpec {
    CacheSpec {
        size: seg_size,
        line_size: 128,
        fetch_granularity: 64,
        load_latency: lat,
        amount_per_sm: None,
        segments,
        read_bw_gibs: Some(read_bw),
        write_bw_gibs: Some(write_bw),
    }
}

/// Active-CU layout: `per_block` consecutive physical CUs, then
/// `disabled_per_block` disabled ones, repeated until `active` CUs exist on
/// a die of `physical_total`.
fn cu_layout(
    physical_total: u32,
    active: u32,
    disabled_ids: &[u32],
    sl1d_group_size: u32,
) -> CuLayout {
    let physical_ids: Vec<u32> = (0..physical_total)
        .filter(|id| !disabled_ids.contains(id))
        .take(active as usize)
        .collect();
    assert_eq!(physical_ids.len(), active as usize);
    CuLayout {
        physical_ids,
        sl1d_group_size,
        physical_total,
    }
}

/// AMD Instinct MI100 (CDNA1, gfx908): 120 of 128 CUs active, sL1d shared
/// per 3 physical CUs.
pub fn mi100() -> Gpu {
    // One CU disabled per 16-CU block: 8 disabled total.
    let disabled: Vec<u32> = (0..8).map(|b| b * 16 + 15).collect();
    Gpu::new(DeviceConfig {
        name: "Instinct MI100".into(),
        vendor: Vendor::Amd,
        microarch: Microarch::Cdna1,
        chip: ChipSpec {
            num_sms: 120,
            cores_per_sm: 64,
            warp_size: 64,
            max_blocks_per_sm: 40,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2560,
            regs_per_block: 65536,
            regs_per_sm: 102400,
            clock_mhz: 1502,
            mem_clock_mhz: 1200,
            bus_width_bits: 4096,
            compute_capability: "gfx908".into(),
        },
        caches: vec![
            (CacheKind::VL1, vl1(kib(16), 140)),
            (CacheKind::SL1D, sl1d(kib(16), 60)),
            (CacheKind::L2, amd_l2(mib(8), 1, 300, 2800.0, 2000.0)),
        ],
        scratchpad: ScratchpadSpec {
            size: kib(64),
            load_latency: 58,
        },
        dram: DramSpec {
            size: gib(32),
            load_latency: 730,
            read_bw_gibs: 950.0,
            write_bw_gibs: 900.0,
        },
        sharing: SharingLayout {
            l1_tex_ro_unified: false,
        },
        cu_layout: Some(cu_layout(128, 120, &disabled, 3)),
        tlb: super::preset_tlb(16, 64, 128, 520),
        policies: vec![],
        quirks: Quirks::NONE,
        clock_overhead_cycles: 10,
    })
}

/// AMD Instinct MI210 (CDNA2, gfx90a) — the Table III reference GPU:
/// 104 of 128 CUs active, sL1d shared per 2 physical CUs; some active CUs
/// have their partner disabled and thus exclusive sL1d access.
pub fn mi210() -> Gpu {
    // 3 CUs disabled at the top of each of the 8 shader engines
    // (16 physical CUs each): ids 13,14,15 within each block of 16.
    let disabled: Vec<u32> = (0..8)
        .flat_map(|se| [se * 16 + 13, se * 16 + 14, se * 16 + 15])
        .collect();
    Gpu::new(DeviceConfig {
        name: "Instinct MI210".into(),
        vendor: Vendor::Amd,
        microarch: Microarch::Cdna2,
        chip: ChipSpec {
            num_sms: 104,
            cores_per_sm: 64,
            warp_size: 64,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            regs_per_block: 65536,
            regs_per_sm: 102400,
            clock_mhz: 1700,
            mem_clock_mhz: 1600,
            bus_width_bits: 4096,
            compute_capability: "gfx90a".into(),
        },
        // Table III MT4G column: vL1 16 KiB / 125 cyc / 64 B; sL1d ~16 KiB
        // / 50 cyc / 64 B; L2 8 MB / 310 cyc / 128 B lines / 64 B fetch,
        // 4.19/2.4 TiB/s; LDS 64 KiB / 55 cyc; DRAM 64 GB / 748 cyc.
        caches: vec![
            (CacheKind::VL1, vl1(kib(16), 125)),
            (CacheKind::SL1D, sl1d(kib(16), 50)),
            (CacheKind::L2, amd_l2(mib(8), 1, 310, 4290.0, 2458.0)),
        ],
        scratchpad: ScratchpadSpec {
            size: kib(64),
            load_latency: 55,
        },
        dram: DramSpec {
            size: gib(64),
            load_latency: 748,
            read_bw_gibs: 1024.0,
            write_bw_gibs: 922.0,
        },
        sharing: SharingLayout {
            l1_tex_ro_unified: false,
        },
        cu_layout: Some(cu_layout(128, 104, &disabled, 2)),
        tlb: super::preset_tlb(16, 64, 128, 540),
        policies: vec![],
        quirks: Quirks::NONE,
        clock_overhead_cycles: 10,
    })
}

/// AMD Instinct MI300X VF (CDNA3, gfx942): 304 of 320 CUs across 8 XCDs
/// (one L2 per XCD), 256 MB Infinity-Cache L3, virtualised — CU pinning
/// unavailable (paper Sec. V non-result 1). L3 latency and fetch
/// granularity are the paper's declared CDNA3 gaps (Table I "#").
pub fn mi300x() -> Gpu {
    // 2 CUs disabled per 40-CU XCD, in different sL1d pairs so both
    // sharing situations exist.
    let disabled: Vec<u32> = (0..8).flat_map(|x| [x * 40 + 19, x * 40 + 39]).collect();
    Gpu::new(DeviceConfig {
        name: "Instinct MI300X VF".into(),
        vendor: Vendor::Amd,
        microarch: Microarch::Cdna3,
        chip: ChipSpec {
            num_sms: 304,
            cores_per_sm: 64,
            warp_size: 64,
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            regs_per_block: 65536,
            regs_per_sm: 102400,
            clock_mhz: 2100,
            mem_clock_mhz: 2525,
            bus_width_bits: 8192,
            compute_capability: "gfx942".into(),
        },
        caches: vec![
            (CacheKind::VL1, vl1(kib(32), 116)),
            (CacheKind::SL1D, sl1d(kib(16), 45)),
            (CacheKind::L2, amd_l2(mib(4), 8, 320, 8000.0, 6000.0)),
            (
                CacheKind::L3,
                CacheSpec {
                    size: mib(256),
                    line_size: 128,
                    fetch_granularity: 128,
                    load_latency: 480,
                    amount_per_sm: None,
                    segments: 1,
                    read_bw_gibs: Some(12000.0),
                    write_bw_gibs: Some(8000.0),
                },
            ),
        ],
        scratchpad: ScratchpadSpec {
            size: kib(64),
            load_latency: 50,
        },
        dram: DramSpec {
            size: gib(192),
            load_latency: 690,
            read_bw_gibs: 3500.0,
            write_bw_gibs: 3100.0,
        },
        sharing: SharingLayout {
            l1_tex_ro_unified: false,
        },
        cu_layout: Some(cu_layout(320, 304, &disabled, 2)),
        tlb: super::preset_tlb(32, 72, 256, 560),
        policies: vec![],
        quirks: Quirks {
            no_cu_pinning: true,
            ..Quirks::NONE
        },
        clock_overhead_cycles: 10,
    })
}

/// Shared RDNA geometry: a 128 B-line L0 vector cache per CU, a per-WGP
/// scalar cache, one L2, and the MALL Infinity Cache as the L3 level.
#[allow(clippy::too_many_arguments)]
fn rdna(
    name: &str,
    microarch: Microarch,
    gfx: &str,
    num_cus: u32,
    clock_mhz: u32,
    mem_clock_mhz: u32,
    bus_width_bits: u32,
    l0_lat: u32,
    scalar_lat: u32,
    l2_mib: u64,
    l2_lat: u32,
    l2_read_bw: f64,
    l2_write_bw: f64,
    mall_mib: u64,
    mall_lat: u32,
    mall_read_bw: f64,
    mall_write_bw: f64,
    dram_gib: u64,
    dram_lat: u32,
    dram_read: f64,
    dram_write: f64,
    vl1_policy: ReplacementPolicy,
) -> Gpu {
    let l0 = CacheSpec {
        size: kib(32),
        line_size: 128,
        fetch_granularity: 64,
        load_latency: l0_lat,
        amount_per_sm: Some(1),
        segments: 1,
        read_bw_gibs: None,
        write_bw_gibs: None,
    };
    let mall = CacheSpec {
        size: mib(mall_mib),
        line_size: 128,
        fetch_granularity: 128,
        load_latency: mall_lat,
        amount_per_sm: None,
        segments: 1,
        read_bw_gibs: Some(mall_read_bw),
        write_bw_gibs: Some(mall_write_bw),
    };
    Gpu::new(DeviceConfig {
        name: name.into(),
        vendor: Vendor::Amd,
        microarch,
        chip: ChipSpec {
            num_sms: num_cus,
            cores_per_sm: 64,
            warp_size: 32, // RDNA schedules wave32, not CDNA's wave64
            max_blocks_per_sm: 32,
            max_threads_per_block: 1024,
            max_threads_per_sm: 2048,
            regs_per_block: 65536,
            regs_per_sm: 102400,
            clock_mhz,
            mem_clock_mhz,
            bus_width_bits,
            compute_capability: gfx.into(),
        },
        caches: vec![
            (CacheKind::VL1, l0),
            (CacheKind::SL1D, sl1d(kib(16), scalar_lat)),
            (
                CacheKind::L2,
                amd_l2(mib(l2_mib), 1, l2_lat, l2_read_bw, l2_write_bw),
            ),
            (CacheKind::L3, mall),
        ],
        scratchpad: ScratchpadSpec {
            size: kib(64),
            load_latency: 21,
        },
        dram: DramSpec {
            size: gib(dram_gib),
            load_latency: dram_lat,
            read_bw_gibs: dram_read,
            write_bw_gibs: dram_write,
        },
        sharing: SharingLayout {
            l1_tex_ro_unified: false,
        },
        // Consumer dies ship fully enabled at these SKUs; the scalar cache
        // is shared per WGP (2 consecutive CUs).
        cu_layout: Some(cu_layout(num_cus, num_cus, &[], 2)),
        tlb: super::preset_tlb(32, 56, 256, 460),
        // The RDNA L0 vector caches are planted with non-LRU evictors so
        // the policy discovery unit has AMD-side ground truth to
        // fingerprint blind.
        policies: vec![(CacheKind::VL1, vl1_policy)],
        quirks: Quirks::NONE,
        clock_overhead_cycles: 8,
    })
}

/// AMD Radeon RX 7900 XTX (RDNA3, Navi 31, gfx1100): 96 CUs, 6 MB L2,
/// 96 MB MALL Infinity Cache, 24 GB GDDR6. Planted policy: tree-PLRU L0.
pub fn rx7900xtx() -> Gpu {
    rdna(
        "Radeon RX 7900 XTX",
        Microarch::Rdna3,
        "gfx1100",
        96,
        2500,
        2500,
        384,
        35,
        25,
        6,
        110,
        3000.0,
        2600.0,
        96,
        230,
        3500.0,
        3100.0,
        24,
        550,
        870.0,
        800.0,
        ReplacementPolicy::TreePlru,
    )
}

/// AMD Radeon RX 9070 XT (RDNA4, Navi 48, gfx1201): 64 CUs, 8 MB L2,
/// 64 MB MALL Infinity Cache, 16 GB GDDR6. Planted policy: a random-victim
/// L0, the one policy only the run-twice divergence probe can name.
pub fn rx9070xt() -> Gpu {
    rdna(
        "Radeon RX 9070 XT",
        Microarch::Rdna4,
        "gfx1201",
        64,
        2970,
        2518,
        256,
        33,
        24,
        8,
        105,
        3300.0,
        2900.0,
        64,
        215,
        3200.0,
        2800.0,
        16,
        540,
        600.0,
        560.0,
        ReplacementPolicy::Random,
    )
}
