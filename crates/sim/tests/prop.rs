//! Property-based tests for the cache and hierarchy models — these are the
//! invariants every MT4G benchmark implicitly relies on.

use mt4g_sim::cache::reference::ReferenceSectoredCache;
use mt4g_sim::cache::{SectoredCache, FULLY_ASSOCIATIVE};
use mt4g_sim::device::{LoadFlags, MemorySpace};
use mt4g_sim::gpu::Gpu;
use mt4g_sim::presets;
use proptest::prelude::*;
use proptest::TestCaseError;

/// Strategy: coherent cache geometry (power-of-two line/sector, size a
/// multiple of the line).
fn geometry() -> impl Strategy<Value = (u64, u64, u64)> {
    (1u32..6, 0u32..3, 4u64..64).prop_map(|(line_pow, sector_shift, lines)| {
        let line = 32u64 << line_pow; // 64..=1024
        let sector = line >> sector_shift.min(line_pow); // divides line
        (lines * line, line, sector)
    })
}

/// Strategy: a stream aimed at the fully-associative index's two-level
/// layout, as (line index, byte offset into the line, realign) triples.
/// Dense runs straddle the index's 64-line page boundaries. Sparse single
/// lines sit on pages `k << shift`, below 2^25 pages (over 2^32 bytes at
/// every line size): power-of-two page strides that share in-page
/// offsets, the pattern that makes pages alias under a truncated key or
/// a weak hash. Against the 4..64-line capacities of `geometry()`,
/// pages fill, drain and are recycled, and the page directory grows and
/// deletes.
fn paged_stream() -> impl Strategy<Value = Vec<(u64, u64, u8)>> {
    let dense = (0u64..4, 1u64..40, 1u64..48).prop_map(|(page, back, len)| {
        let start = (page + 1) * 64 - back;
        (start..start + len).collect::<Vec<u64>>()
    });
    let sparse =
        (0u64..8, 0u32..23, 0u64..64).prop_map(|(k, shift, in_page)| (k << shift) * 64 + in_page);
    let run = (0u8..2, dense, sparse, 0u64..1024, 0u8..2).prop_map(
        |(pick, dense, sparse, offset, realign)| {
            let lines = if pick == 0 { dense } else { vec![sparse] };
            lines
                .into_iter()
                .map(|l| (l, offset, realign))
                .collect::<Vec<_>>()
        },
    );
    proptest::collection::vec(run, 1..40).prop_map(|runs| runs.concat())
}

/// A [`paged_stream`] as byte addresses for lines of `line` bytes.
fn paged_addrs(paged: &[(u64, u64, u8)], line: u64) -> Vec<(u64, u8)> {
    paged
        .iter()
        .map(|&(l, offset, realign)| (l * line + offset % line, realign))
        .collect()
}

/// Lines whose residency a differential check compares: the low 16 KiB
/// the dense streams live in, plus every line the stream touched.
fn checked_lines(addrs: &[(u64, u8)], line: u64) -> Vec<u64> {
    let mut lines: Vec<u64> = (0..(1u64 << 14) / line)
        .chain(addrs.iter().map(|&(a, _)| a / line))
        .collect();
    lines.sort_unstable();
    lines.dedup();
    lines
}

/// Drives the flat tag store and the frozen historical implementation
/// with the same stream: same `Access` on every step, same hit/miss
/// counters, same residency after flushes.
fn assert_flat_store_matches_reference(
    (size, line, sector): (u64, u64, u64),
    ways_sel: u32,
    addrs: &[(u64, u8)],
    flush_every: usize,
) -> Result<(), TestCaseError> {
    let mut flat = SectoredCache::new(size, line, sector, ways_sel);
    let mut reference = ReferenceSectoredCache::new(size, line, sector, ways_sel);
    for (i, &(addr, realign)) in addrs.iter().enumerate() {
        // Half the stream is sector-aligned to provoke sector hits.
        let a = if realign == 1 {
            addr / sector * sector
        } else {
            addr
        };
        if i % flush_every == flush_every - 1 {
            flat.flush();
            reference.flush();
        }
        let got = flat.access(a);
        let want = reference.access(a);
        prop_assert_eq!(got, want, "step {} addr {}", i, a);
        prop_assert_eq!(flat.probe(a), reference.probe(a), "probe {}", a);
    }
    prop_assert_eq!(flat.stats(), reference.stats());
    for l in checked_lines(addrs, line) {
        prop_assert_eq!(
            flat.probe(l * line),
            reference.probe(l * line),
            "line {}",
            l
        );
    }
    Ok(())
}

proptest! {
    /// After a full warm-up, every in-capacity address hits.
    #[test]
    fn warmup_within_capacity_yields_all_hits((size, line, sector) in geometry()) {
        let mut c = SectoredCache::new(size, line, sector, FULLY_ASSOCIATIVE);
        let addrs: Vec<u64> = (0..size / sector).map(|i| i * sector).collect();
        for &a in &addrs {
            c.access(a);
        }
        for &a in &addrs {
            prop_assert!(c.access(a).is_hit());
        }
    }

    /// A cyclic chase over capacity + one line misses on every access
    /// (fully-associative LRU thrashing — the size benchmark's cliff).
    #[test]
    fn beyond_capacity_yields_all_misses((size, line, sector) in geometry()) {
        let mut c = SectoredCache::new(size, line, sector, FULLY_ASSOCIATIVE);
        let total = size + line;
        let addrs: Vec<u64> = (0..total / sector).map(|i| i * sector).collect();
        for &a in &addrs {
            c.access(a);
        }
        c.reset_stats();
        for &a in &addrs {
            c.access(a);
        }
        let (hits, misses) = c.stats();
        prop_assert_eq!(hits, 0);
        prop_assert_eq!(misses, addrs.len() as u64);
    }

    /// Residency never exceeds capacity, whatever the access pattern.
    #[test]
    fn residency_bounded_by_capacity(
        (size, line, sector) in geometry(),
        addrs in proptest::collection::vec(0u64..1 << 20, 1..400),
    ) {
        let mut c = SectoredCache::new(size, line, sector, FULLY_ASSOCIATIVE);
        for a in addrs {
            c.access(a);
        }
        let lines = size / line;
        let resident = (0..(1u64 << 20) / line)
            .filter(|&l| c.probe(l * line))
            .count() as u64;
        prop_assert!(resident <= lines);
    }

    /// Stride at or above the sector size on a cold cache produces only
    /// misses; stride strictly below produces at least one hit (the
    /// fetch-granularity benchmark's decision rule).
    #[test]
    fn cold_stride_rule((size, line, sector) in geometry(), stride_factor in 1u64..4) {
        prop_assume!(size / (sector * stride_factor) >= 4);
        let mut c = SectoredCache::new(size, line, sector, FULLY_ASSOCIATIVE);
        let stride = sector * stride_factor;
        for i in 0..size / stride {
            c.access(i * stride);
        }
        let (hits, _) = c.stats();
        prop_assert_eq!(hits, 0, "stride {} >= sector {}", stride, sector);

        if sector >= 8 {
            let mut c2 = SectoredCache::new(size, line, sector, FULLY_ASSOCIATIVE);
            let small = sector / 2;
            for i in 0..size / small {
                c2.access(i * small);
            }
            let (h2, _) = c2.stats();
            prop_assert!(h2 > 0, "stride {} < sector {}", small, sector);
        }
    }

    /// Differential oracle: the flat tag store must reproduce the original
    /// `Vec<Vec<Line>>` / `HashMap`+`BTreeMap` implementation *exactly* —
    /// same `Access` on every step, same hit/miss counters, same residency
    /// after flushes — across both organisations, random geometries and
    /// access streams that mix hits, sector misses, evictions and flushes;
    /// plus, fully associative, a paged stream that recycles index pages.
    #[test]
    fn flat_store_matches_reference(
        geo in geometry(),
        ways_raw in 0u32..8,
        // Bias addresses so streams revisit lines (hits + LRU churn) but
        // also overflow the capacity (evictions).
        addrs in proptest::collection::vec((0u64..1 << 14, 0u8..2), 1..600),
        flush_every in 50usize..200,
        paged in paged_stream(),
    ) {
        // 0 selects the fully-associative organisation, 1..8 real way counts.
        let ways_sel = if ways_raw == 0 { FULLY_ASSOCIATIVE } else { ways_raw };
        assert_flat_store_matches_reference(geo, ways_sel, &addrs, flush_every)?;
        let paged = paged_addrs(&paged, geo.1);
        assert_flat_store_matches_reference(geo, FULLY_ASSOCIATIVE, &paged, flush_every)?;
    }

    /// The measured p-chase latency through any preset is always at least
    /// the clock overhead plus one cycle, and loads never corrupt the
    /// chase values (the chain stays circular).
    #[test]
    fn preset_load_latencies_are_sane(preset_idx in 0usize..64, addr in 0u64..65536) {
        let mut gpus = presets::all();
        let idx = preset_idx % gpus.len(); // covers the whole registry
        let gpu: &mut Gpu = &mut gpus[idx];
        let space = match gpu.vendor() {
            mt4g_sim::Vendor::Nvidia => MemorySpace::Global,
            mt4g_sim::Vendor::Amd => MemorySpace::Vector,
        };
        let (res, lat) = gpu.raw_load(0, 0, space, LoadFlags::CACHE_ALL, addr);
        prop_assert!(lat >= 1);
        prop_assert!(res.latency >= 1);
        // Second access to the same address must hit the first level.
        let (res2, _) = gpu.raw_load(0, 0, space, LoadFlags::CACHE_ALL, addr);
        prop_assert!(res2.first_level_hit);
        prop_assert!(res2.latency <= res.latency);
    }
}

// --- the replacement-policy zoo vs. its naive oracle ---

use mt4g_sim::cache::reference::PolicyReferenceCache;
use mt4g_sim::cache::ReplacementPolicy;

/// Drives the packed engine and the naive per-policy oracle with the same
/// stream and asserts hit/miss/eviction-for-eviction equivalence: the
/// `Access` class of every step, probe results, counters, and the final
/// line-for-line residency (which pins the *eviction choices*, not just
/// the hit rate).
fn assert_policy_engine_matches_oracle(
    policy: ReplacementPolicy,
    (size, line, sector): (u64, u64, u64),
    ways_raw: u32,
    addrs: &[(u64, u8)],
    flush_every: usize,
) -> Result<(), TestCaseError> {
    let ways_sel = if ways_raw == 0 {
        FULLY_ASSOCIATIVE
    } else {
        ways_raw
    };
    let mut engine = SectoredCache::new_with_policy(size, line, sector, ways_sel, policy);
    let mut oracle = PolicyReferenceCache::new(size, line, sector, ways_sel, policy);
    for (i, &(addr, realign)) in addrs.iter().enumerate() {
        let a = if realign == 1 {
            addr / sector * sector
        } else {
            addr
        };
        if i % flush_every == flush_every - 1 {
            engine.flush();
            oracle.flush();
        }
        let got = engine.access(a);
        let want = oracle.access(a);
        prop_assert_eq!(got, want, "step {} addr {} policy {}", i, a, policy);
        prop_assert_eq!(engine.probe(a), oracle.probe(a), "probe {}", a);
    }
    prop_assert_eq!(engine.stats(), oracle.stats());
    for l in checked_lines(addrs, line) {
        prop_assert_eq!(
            engine.probe(l * line),
            oracle.probe(l * line),
            "residency of line {} under {}",
            l,
            policy
        );
    }
    Ok(())
}

/// One drawn policy-proptest case: geometry, ways selector, access
/// stream, flush point, and a [`paged_stream`].
type PolicyCase = (
    (u64, u64, u64),
    u32,
    Vec<(u64, u8)>,
    usize,
    Vec<(u64, u64, u8)>,
);

/// Shared stream strategy for the policy proptests (same shape as
/// `flat_store_matches_reference`).
fn policy_stream() -> impl Strategy<Value = PolicyCase> {
    (
        geometry(),
        0u32..8,
        proptest::collection::vec((0u64..1 << 14, 0u8..2), 1..600),
        50usize..200,
        paged_stream(),
    )
}

/// Runs one policy case: its stream under the drawn organisation, then
/// its paged stream fully associative.
fn assert_policy_case(
    policy: ReplacementPolicy,
    (geo, ways, addrs, flush_every, paged): PolicyCase,
) -> Result<(), TestCaseError> {
    assert_policy_engine_matches_oracle(policy, geo, ways, &addrs, flush_every)?;
    let paged = paged_addrs(&paged, geo.1);
    assert_policy_engine_matches_oracle(policy, geo, 0, &paged, flush_every)
}

proptest! {
    /// Exact LRU: the packed age engine (and timestamp fallback) is
    /// behaviour-identical to the naive oracle — and through
    /// `lru_arm_matches_the_frozen_oracle`, to the historical engine.
    #[test]
    fn packed_lru_matches_oracle(case in policy_stream()) {
        assert_policy_case(ReplacementPolicy::Lru, case)?;
    }

    /// Tree-PLRU: packed node bits vs. the naive bool tree.
    #[test]
    fn tree_plru_matches_oracle(case in policy_stream()) {
        assert_policy_case(ReplacementPolicy::TreePlru, case)?;
    }

    /// SLRU: intrusive segment lists / bitmask engine vs. stamp scans.
    #[test]
    fn slru_matches_oracle(case in policy_stream()) {
        assert_policy_case(ReplacementPolicy::Slru, case)?;
    }

    /// Random: same geometry-seeded stream, same victim indices — the
    /// in-place-replacement correspondence makes this exact.
    #[test]
    fn random_matches_oracle(case in policy_stream()) {
        assert_policy_case(ReplacementPolicy::Random, case)?;
    }

    /// Bypass: full sets stop allocating in both implementations.
    #[test]
    fn bypass_matches_oracle(case in policy_stream()) {
        assert_policy_case(ReplacementPolicy::Bypass, case)?;
    }

    /// The fully-associative MRU-line fast path vs. the oracle, under all
    /// five policies, on streams built to live on that path: long runs of
    /// repeated same-line accesses and sector-stride walks *within* one
    /// line. This is the pattern the p-chase hot loop produces, and the
    /// one that would expose an unsound filter — e.g. skipping the repeat
    /// `touch` that SLRU needs to promote a probation line on its second
    /// access, or a stale `mru_line` surviving a flush.
    #[test]
    fn fa_mru_heavy_streams_match_oracle_under_all_policies(
        (size, line, sector) in geometry(),
        runs in proptest::collection::vec((0u64..64, 1usize..12, 0u8..2), 1..80),
        flush_every in 20usize..120,
        paged in paged_stream(),
    ) {
        // The same run shapes again on the paged stream's lines, so the
        // repeats land on recycled index pages and far-apart lines.
        let far: Vec<(u64, usize, u8)> = paged
            .iter()
            .zip(runs.iter().cycle())
            .map(|(&(l, _, _), &(_, repeats, walk))| (l, repeats, walk))
            .collect();
        for policy in ReplacementPolicy::ALL {
            for runs in [&runs, &far] {
                let mut addrs: Vec<(u64, u8)> = Vec::new();
                for &(line_idx, repeats, walk) in runs {
                    let base = line_idx * line;
                    if walk == 1 {
                        // Sector-stride walk within the line: every access
                        // after the first is an MRU repeat with a fresh
                        // sector bit (SectorMiss on the fast path).
                        for s in 0..(line / sector).min(repeats as u64) {
                            addrs.push((base + s * sector, 0));
                        }
                    } else {
                        // Same address hammered: pure MRU hits.
                        for _ in 0..repeats {
                            addrs.push((base, 0));
                        }
                    }
                }
                assert_policy_engine_matches_oracle(
                    policy,
                    (size, line, sector),
                    0,
                    &addrs,
                    flush_every,
                )?;
            }
        }
    }
}
