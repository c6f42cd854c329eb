//! The memory subsystem: physical cache instances and per-space routing.
//!
//! A *logical* load (a memory space plus cache-policy flags, issued from a
//! specific SM/CU and core) is routed through a path of *physical* cache
//! instances down to device memory. The instance topology is where all the
//! discoverable structure lives:
//!
//! * NVIDIA: per-SM unified L1 (optionally several instances per SM —
//!   the Amount benchmark's target), serving the Global/Texture/Readonly
//!   spaces when unified (the Physical Sharing benchmark's target); a
//!   separate per-SM Constant L1 backed by a GPU-level Constant L1.5; a
//!   segmented GPU-level L2 (one segment visible per SM).
//! * AMD: per-CU vector L1; a scalar L1d shared by a *group* of physical
//!   CUs (the CU-sharing benchmark's target); per-XCD L2; optional L3.

use crate::cache::SectoredCache;
use crate::device::{CacheKind, CacheSpec, DeviceConfig, LoadFlags, MemorySpace, Vendor};
use crate::tlb::{Tlb, TlbAccess, TlbSpec};

/// Sentinel for [`MemorySubsystem::tlb_page_shift`]: page size is not a
/// power of two, compute page numbers by division.
const NO_PAGE_SHIFT: u32 = u32::MAX;

/// Invalid [`MemorySubsystem::tlb_memo`] (no SM has index `u32::MAX`).
const NO_TLB_MEMO: (u32, u64) = (u32::MAX, u64::MAX);

/// Where a load was resolved, and at what cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoadResolution {
    /// The level that serviced the load.
    pub level: CacheKind,
    /// End-to-end load latency in cycles (without measurement noise or
    /// clock overhead — the executor adds those).
    pub latency: u32,
    /// Whether the load hit in the *first* cache level of its path (used by
    /// benchmarks that classify hit/miss).
    pub first_level_hit: bool,
}

/// Which physical cache instance a [`PathStep`] touches — a stable index
/// into the subsystem's instance vectors, resolved once per route.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CacheRef {
    L1(u32),
    Tex(u32),
    Ro(u32),
    ConstL1(u32),
    ConstL15,
    Vl1(u32),
    Sl1d(u32),
    L2(u32),
    L3,
}

/// One pre-resolved level of a load path: everything `load` needs besides
/// the cache lookup itself.
#[derive(Debug, Clone, Copy)]
struct PathStep {
    cache: CacheRef,
    level: CacheKind,
    latency: u32,
    /// The `first_level_hit` value a hit at this step reports.
    first_level_hit: bool,
}

/// A fully resolved load route: the ordered cache levels to try, then
/// device memory. Scratchpad loads resolve to a flat-latency route with no
/// steps and a non-DRAM terminal level.
#[derive(Debug, Clone, Copy)]
struct Route {
    steps: [Option<PathStep>; 3],
    /// Resolution when every step misses (or for scratchpad loads).
    terminal: LoadResolution,
}

/// The memo key of a resolved route: routes depend only on the issuing
/// (SM, core) and the logical path selectors, never on the address or on
/// cache contents — which is what makes the memoization sound.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RouteKey {
    sm: u32,
    core: u32,
    space: MemorySpace,
    flags: LoadFlags,
}

/// All physical cache instances of one GPU.
#[derive(Debug)]
pub struct MemorySubsystem {
    vendor: Vendor,
    num_sms: usize,
    cores_per_sm: usize,
    sl1d_group_of_cu: Vec<usize>,
    l2_segment_of_sm: Vec<usize>,

    l1_amount: usize,
    l1: Vec<SectoredCache>,
    l1_spec: Option<CacheSpec>,
    /// Measured-latency overrides for texture/readonly loads that hit the
    /// *unified* L1 instance (the paths differ slightly on real silicon:
    /// H100 measures 38/39/35 cycles for L1/TEX/RO).
    unified_tex_latency: Option<u32>,
    unified_ro_latency: Option<u32>,
    /// Present only when L1/Texture/Readonly are NOT unified.
    tex: Vec<SectoredCache>,
    tex_spec: Option<CacheSpec>,
    ro: Vec<SectoredCache>,
    ro_spec: Option<CacheSpec>,
    const_l1: Vec<SectoredCache>,
    const_l1_spec: Option<CacheSpec>,
    const_l15: Option<SectoredCache>,
    const_l15_spec: Option<CacheSpec>,

    vl1: Vec<SectoredCache>,
    vl1_spec: Option<CacheSpec>,
    sl1d: Vec<SectoredCache>,
    sl1d_spec: Option<CacheSpec>,

    l2: Vec<SectoredCache>,
    l2_spec: Option<CacheSpec>,
    l3: Option<SectoredCache>,
    l3_spec: Option<CacheSpec>,

    scratch_latency: u32,
    dram_latency: u32,

    /// Address translation: one L1 TLB per SM/CU plus the shared L2 TLB
    /// (absent when the configuration models no TLB). Translation happens
    /// per *address*, so it deliberately lives outside the route memo —
    /// the memoized route stays a pure function of (sm, core, space,
    /// flags) and the walk penalty is added per load on top of whatever
    /// level serviced it.
    tlb_spec: Option<TlbSpec>,
    /// `log2(page_bytes)` when the page size is a power of two (it is for
    /// every preset: 2 MiB driver large pages), else [`NO_PAGE_SHIFT`] and
    /// the page number falls back to a division.
    tlb_page_shift: u32,
    /// Single-entry `(sm, page)` translation memo: a p-chase walks its ring
    /// in address order, so consecutive loads stay on one page and, after
    /// a page's first load, the whole TLB walk is a foregone conclusion.
    /// A repeat translation of the same page from the same SM is exactly the
    /// [`Tlb`] `last_page` fast path — an L1-TLB hit with zero state
    /// change anywhere (the L2 TLB is never consulted on an L1 hit) and
    /// zero penalty — so skipping it is behaviour-identical. Any other
    /// `(sm, page)` overwrites the memo; [`Self::flush_all`] invalidates.
    tlb_memo: (u32, u64),
    l1_tlb: Vec<Tlb>,
    l2_tlb: Option<Tlb>,

    /// Single-entry route memo: the p-chase hot loop issues millions of
    /// loads with an identical (sm, core, space, flags) tuple, so the
    /// resolved path is computed once and replayed until the key changes.
    route_memo: Option<(RouteKey, Route)>,
}

impl MemorySubsystem {
    /// Instantiates every physical cache of `config`.
    pub fn new(config: &DeviceConfig) -> Self {
        let num_sms = config.chip.num_sms as usize;
        let cores_per_sm = config.chip.cores_per_sm as usize;

        let get = |kind: CacheKind| config.cache(kind).copied();
        // Every instance of a level runs the level's configured
        // replacement policy (exact LRU unless the preset plants another).
        let make = |spec: &CacheSpec, kind: CacheKind| {
            SectoredCache::from_spec_with_policy(spec, config.policy_of(kind))
        };
        let make_per_sm = |spec: &CacheSpec, kind: CacheKind, count: usize| -> Vec<SectoredCache> {
            (0..count).map(|_| make(spec, kind)).collect()
        };

        let l1_spec = match config.vendor {
            Vendor::Nvidia => get(CacheKind::L1),
            Vendor::Amd => None,
        };
        let l1_amount = l1_spec.and_then(|s| s.amount_per_sm).unwrap_or(1).max(1) as usize;
        let l1 = l1_spec
            .map(|s| make_per_sm(&s, CacheKind::L1, num_sms * l1_amount))
            .unwrap_or_default();

        let unified = config.sharing.l1_tex_ro_unified;
        let unified_tex_latency = if unified {
            get(CacheKind::Texture).map(|s| s.load_latency)
        } else {
            None
        };
        let unified_ro_latency = if unified {
            get(CacheKind::Readonly).map(|s| s.load_latency)
        } else {
            None
        };
        let tex_spec = if unified {
            None
        } else {
            get(CacheKind::Texture)
        };
        let ro_spec = if unified {
            None
        } else {
            get(CacheKind::Readonly)
        };
        let tex = tex_spec
            .map(|s| make_per_sm(&s, CacheKind::Texture, num_sms))
            .unwrap_or_default();
        let ro = ro_spec
            .map(|s| make_per_sm(&s, CacheKind::Readonly, num_sms))
            .unwrap_or_default();

        let const_l1_spec = get(CacheKind::ConstL1);
        let const_l1 = const_l1_spec
            .map(|s| make_per_sm(&s, CacheKind::ConstL1, num_sms))
            .unwrap_or_default();
        let const_l15_spec = get(CacheKind::ConstL15);
        let const_l15 = const_l15_spec.map(|s| make(&s, CacheKind::ConstL15));

        let vl1_spec = match config.vendor {
            Vendor::Amd => get(CacheKind::VL1),
            Vendor::Nvidia => None,
        };
        let vl1 = vl1_spec
            .map(|s| make_per_sm(&s, CacheKind::VL1, num_sms))
            .unwrap_or_default();

        // sL1d: one instance per *group* of physical CUs that has at least
        // one active member. `sl1d_group_of_cu[cu]` indexes into `sl1d`.
        let sl1d_spec = get(CacheKind::SL1D);
        let (sl1d, sl1d_group_of_cu) =
            if let (Some(spec), Some(layout)) = (sl1d_spec, config.cu_layout.as_ref()) {
                let mut dense: Vec<u32> = Vec::new();
                let mut map = Vec::with_capacity(num_sms);
                for cu in 0..num_sms {
                    let group = layout.sl1d_group_of(cu);
                    let idx = dense.iter().position(|&g| g == group).unwrap_or_else(|| {
                        dense.push(group);
                        dense.len() - 1
                    });
                    map.push(idx);
                }
                let caches = dense.iter().map(|_| make(&spec, CacheKind::SL1D)).collect();
                (caches, map)
            } else {
                (Vec::new(), vec![0; num_sms])
            };

        let l2_spec = get(CacheKind::L2);
        let l2_segments = l2_spec.map(|s| s.segments.max(1)).unwrap_or(1) as usize;
        let l2 = l2_spec
            .map(|s| (0..l2_segments).map(|_| make(&s, CacheKind::L2)).collect())
            .unwrap_or_default();

        // L2 segment visibility: an SM/CU only ever talks to one segment
        // (paper Sec. IV-F1 / VI-C observation 2); the mapping itself is
        // pure configuration, shared with the contention validator.
        let l2_segment_of_sm = (0..num_sms).map(|sm| config.l2_segment_of(sm)).collect();

        let l3_spec = get(CacheKind::L3);
        let l3 = l3_spec.map(|s| make(&s, CacheKind::L3));

        let tlb_spec = config.tlb;
        let tlb_page_shift = tlb_spec
            .and_then(|t| t.page_shift())
            .unwrap_or(NO_PAGE_SHIFT);
        let l1_tlb = tlb_spec
            .map(|t| (0..num_sms).map(|_| Tlb::new(&t.l1)).collect())
            .unwrap_or_default();
        let l2_tlb = tlb_spec.map(|t| Tlb::new(&t.l2));

        MemorySubsystem {
            vendor: config.vendor,
            num_sms,
            cores_per_sm,
            sl1d_group_of_cu,
            l2_segment_of_sm,
            l1_amount,
            l1,
            l1_spec,
            unified_tex_latency,
            unified_ro_latency,
            tex,
            tex_spec,
            ro,
            ro_spec,
            const_l1,
            const_l1_spec,
            const_l15,
            const_l15_spec,
            vl1,
            vl1_spec,
            sl1d,
            sl1d_spec,
            l2,
            l2_spec,
            l3,
            l3_spec,
            scratch_latency: config.scratchpad.load_latency,
            dram_latency: config.dram.load_latency,
            tlb_spec,
            tlb_page_shift,
            tlb_memo: NO_TLB_MEMO,
            l1_tlb,
            l2_tlb,
            route_memo: None,
        }
    }

    /// Index of the L1 instance serving (`sm`, `core`): cores of one SM are
    /// split evenly across the SM's `l1_amount` instances.
    fn l1_instance(&self, sm: usize, core: usize) -> usize {
        let per_instance = (self.cores_per_sm / self.l1_amount).max(1);
        let within = (core / per_instance).min(self.l1_amount - 1);
        sm * self.l1_amount + within
    }

    /// The L2 segment index an SM/CU is wired to.
    pub fn l2_segment_of(&self, sm: usize) -> usize {
        self.l2_segment_of_sm[sm]
    }

    /// The dense sL1d instance index serving a logical CU.
    pub fn sl1d_instance_of(&self, cu: usize) -> usize {
        self.sl1d_group_of_cu[cu]
    }

    /// Invalidates every cache on the device (and drops the route memo —
    /// routes are pure topology, but a flush marks a benchmark boundary,
    /// so holding state across it buys nothing).
    pub fn flush_all(&mut self) {
        self.route_memo = None;
        self.tlb_memo = NO_TLB_MEMO;
        for c in self
            .l1
            .iter_mut()
            .chain(self.tex.iter_mut())
            .chain(self.ro.iter_mut())
            .chain(self.const_l1.iter_mut())
            .chain(self.vl1.iter_mut())
            .chain(self.sl1d.iter_mut())
            .chain(self.l2.iter_mut())
        {
            c.flush();
        }
        if let Some(c) = self.const_l15.as_mut() {
            c.flush();
        }
        if let Some(c) = self.l3.as_mut() {
            c.flush();
        }
        for t in self.l1_tlb.iter_mut() {
            t.flush();
        }
        if let Some(t) = self.l2_tlb.as_mut() {
            t.flush();
        }
    }

    /// Translates `addr` for a load issued from `sm` and returns the walk
    /// penalty in cycles. First-ever touches of a page install its
    /// translation for free (see [`crate::tlb`]); only re-misses of a
    /// previously resident page pay. An L1-TLB hit never consults the L2
    /// TLB, mirroring real hierarchies.
    #[inline]
    fn translate(&mut self, sm: usize, addr: u64) -> u32 {
        let Some(spec) = self.tlb_spec else { return 0 };
        let page = if self.tlb_page_shift != NO_PAGE_SHIFT {
            addr >> self.tlb_page_shift
        } else {
            addr / spec.page_bytes
        };
        // Repeat (sm, page): the `last_page` L1-TLB hit, memoized (see the
        // field doc for why this is state-identical to taking the walk).
        if self.tlb_memo == (sm as u32, page) {
            return 0;
        }
        self.tlb_memo = (sm as u32, page);
        let l1_outcome = self.l1_tlb[sm].access(page);
        if l1_outcome == TlbAccess::Hit {
            return 0;
        }
        let l2_outcome = self
            .l2_tlb
            .as_mut()
            .map(|t| t.access(page))
            .unwrap_or(TlbAccess::Hit);
        if l1_outcome == TlbAccess::FirstTouch {
            // This SM never saw the page: the free allocation-time path
            // (the L2 TLB was still consulted above so its LRU state and
            // first-touch history stay coherent).
            return 0;
        }
        match l2_outcome {
            // L1 re-miss answered by the L2 TLB.
            TlbAccess::Hit => spec.l1.miss_penalty_cycles,
            // Evicted from the whole hierarchy: the full table walk.
            TlbAccess::ReMiss => spec.l2.miss_penalty_cycles,
            // Unreachable (an L1 re-miss implies the L2 TLB saw the page),
            // kept total for safety.
            TlbAccess::FirstTouch => 0,
        }
    }

    /// Routes one load and updates cache state.
    ///
    /// `sm`/`core` locate the issuing thread; `space` and `flags` pick the
    /// path. Returns where the load was serviced and the end-to-end
    /// latency. Missing levels on the path allocate the accessed sector
    /// (unless `flags.bypass_all`).
    ///
    /// The route — which physical instances to try, in what order, at what
    /// latency — depends only on `(sm, core, space, flags)`, never on the
    /// address or the cache contents, so it is resolved once and memoized;
    /// the per-load work is then just the cache lookups themselves. A hit
    /// at level *n* only ever touches levels `1..=n`, exactly like the
    /// original nested walk: deeper levels are not consulted and do not
    /// allocate.
    #[inline]
    pub fn load(
        &mut self,
        sm: usize,
        core: usize,
        space: MemorySpace,
        flags: LoadFlags,
        addr: u64,
    ) -> LoadResolution {
        debug_assert!(sm < self.num_sms, "SM {sm} out of range");
        let key = RouteKey {
            sm: sm as u32,
            core: core as u32,
            space,
            flags,
        };
        let route = match &self.route_memo {
            Some((k, route)) if *k == key => *route,
            _ => {
                let route = self.resolve_route(sm, core, space, flags);
                self.route_memo = Some((key, route));
                route
            }
        };
        // Translate before the cache walk. Scratchpad spaces are
        // driver-managed physical windows and skip the TLB entirely; the
        // walk penalty rides on top of whatever level services the load,
        // which keeps the memoized route a pure function of the key.
        let tlb_penalty = if matches!(space, MemorySpace::Shared | MemorySpace::Lds) {
            0
        } else {
            self.translate(sm, addr)
        };
        for step in route.steps.iter().flatten() {
            if self.cache_mut(step.cache).access(addr).is_hit() {
                return LoadResolution {
                    level: step.level,
                    latency: step.latency + tlb_penalty,
                    first_level_hit: step.first_level_hit,
                };
            }
        }
        LoadResolution {
            latency: route.terminal.latency + tlb_penalty,
            ..route.terminal
        }
    }

    /// The physical cache instance a [`CacheRef`] names.
    #[inline]
    fn cache_mut(&mut self, r: CacheRef) -> &mut SectoredCache {
        match r {
            CacheRef::L1(i) => &mut self.l1[i as usize],
            CacheRef::Tex(i) => &mut self.tex[i as usize],
            CacheRef::Ro(i) => &mut self.ro[i as usize],
            CacheRef::ConstL1(i) => &mut self.const_l1[i as usize],
            CacheRef::ConstL15 => self.const_l15.as_mut().expect("route implies CL1.5"),
            CacheRef::Vl1(i) => &mut self.vl1[i as usize],
            CacheRef::Sl1d(i) => &mut self.sl1d[i as usize],
            CacheRef::L2(i) => &mut self.l2[i as usize],
            CacheRef::L3 => self.l3.as_mut().expect("route implies L3"),
        }
    }

    /// Resolves the load path for `(sm, core, space, flags)` — the slow
    /// part of the original per-load walk, now executed only on a memo
    /// miss.
    fn resolve_route(&self, sm: usize, core: usize, space: MemorySpace, flags: LoadFlags) -> Route {
        if matches!(space, MemorySpace::Shared | MemorySpace::Lds) {
            return Route {
                steps: [None; 3],
                terminal: LoadResolution {
                    level: if self.vendor == Vendor::Nvidia {
                        CacheKind::SharedMemory
                    } else {
                        CacheKind::Lds
                    },
                    latency: self.scratch_latency,
                    first_level_hit: true,
                },
            };
        }
        let dram = LoadResolution {
            level: CacheKind::DeviceMemory,
            latency: self.dram_latency,
            first_level_hit: false,
        };
        let mut steps: [Option<PathStep>; 3] = [None; 3];
        let mut n = 0usize;
        let mut push = |step: PathStep| {
            steps[n] = Some(step);
            n += 1;
        };
        match space {
            MemorySpace::Shared | MemorySpace::Lds => unreachable!("handled above"),
            _ if flags.bypass_all => {}
            MemorySpace::Constant => {
                debug_assert_eq!(self.vendor, Vendor::Nvidia);
                if let Some(spec) = self.const_l1_spec {
                    push(PathStep {
                        cache: CacheRef::ConstL1(sm as u32),
                        level: CacheKind::ConstL1,
                        latency: spec.load_latency,
                        first_level_hit: true,
                    });
                }
                if let (Some(spec), Some(_)) = (self.const_l15_spec, self.const_l15.as_ref()) {
                    push(PathStep {
                        cache: CacheRef::ConstL15,
                        level: CacheKind::ConstL15,
                        latency: spec.load_latency,
                        first_level_hit: false,
                    });
                }
                if let Some(spec) = self.l2_spec {
                    push(PathStep {
                        cache: CacheRef::L2(self.l2_segment_of_sm[sm] as u32),
                        level: CacheKind::L2,
                        latency: spec.load_latency,
                        first_level_hit: false,
                    });
                }
            }
            MemorySpace::Global | MemorySpace::Texture | MemorySpace::Readonly => {
                debug_assert_eq!(self.vendor, Vendor::Nvidia);
                // L1-level: either the unified L1 instance or a dedicated
                // texture/readonly instance, unless bypassed with `.cg`.
                if !flags.bypass_l1 {
                    let (cache, spec, kind) = match space {
                        MemorySpace::Texture if self.tex_spec.is_some() => (
                            CacheRef::Tex(sm as u32),
                            self.tex_spec.as_ref().unwrap(),
                            CacheKind::Texture,
                        ),
                        MemorySpace::Readonly if self.ro_spec.is_some() => (
                            CacheRef::Ro(sm as u32),
                            self.ro_spec.as_ref().unwrap(),
                            CacheKind::Readonly,
                        ),
                        _ => {
                            let idx = self.l1_instance(sm, core);
                            let kind = match space {
                                MemorySpace::Texture => CacheKind::Texture,
                                MemorySpace::Readonly => CacheKind::Readonly,
                                _ => CacheKind::L1,
                            };
                            (
                                CacheRef::L1(idx as u32),
                                self.l1_spec.as_ref().unwrap(),
                                kind,
                            )
                        }
                    };
                    // On the unified cache, texture/readonly paths have
                    // their own (slightly different) measured latencies.
                    let latency = match (space, kind) {
                        (MemorySpace::Texture, CacheKind::Texture) => {
                            self.unified_tex_latency.unwrap_or(spec.load_latency)
                        }
                        (MemorySpace::Readonly, CacheKind::Readonly) => {
                            self.unified_ro_latency.unwrap_or(spec.load_latency)
                        }
                        _ => spec.load_latency,
                    };
                    push(PathStep {
                        cache,
                        level: kind,
                        latency,
                        first_level_hit: true,
                    });
                }
                if let Some(spec) = self.l2_spec {
                    push(PathStep {
                        cache: CacheRef::L2(self.l2_segment_of_sm[sm] as u32),
                        level: CacheKind::L2,
                        latency: spec.load_latency,
                        // With `.cg` the L2 is the first level of the path.
                        first_level_hit: flags.bypass_l1,
                    });
                }
            }
            MemorySpace::Vector | MemorySpace::Scalar => {
                debug_assert_eq!(self.vendor, Vendor::Amd);
                if !flags.bypass_l1 {
                    if space == MemorySpace::Vector {
                        if let Some(spec) = self.vl1_spec {
                            push(PathStep {
                                cache: CacheRef::Vl1(sm as u32),
                                level: CacheKind::VL1,
                                latency: spec.load_latency,
                                first_level_hit: true,
                            });
                        }
                    } else if let Some(spec) = self.sl1d_spec {
                        push(PathStep {
                            cache: CacheRef::Sl1d(self.sl1d_group_of_cu[sm] as u32),
                            level: CacheKind::SL1D,
                            latency: spec.load_latency,
                            first_level_hit: true,
                        });
                    }
                }
                if let Some(spec) = self.l2_spec {
                    push(PathStep {
                        cache: CacheRef::L2(self.l2_segment_of_sm[sm] as u32),
                        level: CacheKind::L2,
                        latency: spec.load_latency,
                        first_level_hit: false,
                    });
                }
                if let (Some(spec), Some(_)) = (self.l3_spec, self.l3.as_ref()) {
                    push(PathStep {
                        cache: CacheRef::L3,
                        level: CacheKind::L3,
                        latency: spec.load_latency,
                        first_level_hit: false,
                    });
                }
            }
        }
        Route {
            steps,
            terminal: dram,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::presets;

    #[test]
    fn nvidia_l1_hits_after_warmup() {
        let cfg = presets::h100_80().config;
        let mut mem = MemorySubsystem::new(&cfg);
        let l1 = cfg.cache(CacheKind::L1).unwrap();
        // Warm a small array through the L1 path.
        for i in 0..64u64 {
            mem.load(0, 0, MemorySpace::Global, LoadFlags::CACHE_ALL, i * 32);
        }
        let r = mem.load(0, 0, MemorySpace::Global, LoadFlags::CACHE_ALL, 0);
        assert_eq!(r.level, CacheKind::L1);
        assert_eq!(r.latency, l1.load_latency);
    }

    #[test]
    fn cg_flag_bypasses_l1() {
        let cfg = presets::h100_80().config;
        let mut mem = MemorySubsystem::new(&cfg);
        for i in 0..64u64 {
            mem.load(0, 0, MemorySpace::Global, LoadFlags::CACHE_GLOBAL, i * 32);
        }
        let r = mem.load(0, 0, MemorySpace::Global, LoadFlags::CACHE_GLOBAL, 0);
        assert_eq!(r.level, CacheKind::L2);
    }

    #[test]
    fn volatile_flag_reaches_dram_and_does_not_allocate() {
        let cfg = presets::h100_80().config;
        let mut mem = MemorySubsystem::new(&cfg);
        let r1 = mem.load(0, 0, MemorySpace::Global, LoadFlags::VOLATILE, 0);
        let r2 = mem.load(0, 0, MemorySpace::Global, LoadFlags::VOLATILE, 0);
        assert_eq!(r1.level, CacheKind::DeviceMemory);
        assert_eq!(r2.level, CacheKind::DeviceMemory);
    }

    #[test]
    fn texture_and_global_share_the_unified_l1() {
        let cfg = presets::h100_80().config;
        assert!(cfg.sharing.l1_tex_ro_unified);
        let mut mem = MemorySubsystem::new(&cfg);
        mem.load(0, 0, MemorySpace::Global, LoadFlags::CACHE_ALL, 0);
        // Texture load of the same address hits — same physical cache.
        let r = mem.load(0, 0, MemorySpace::Texture, LoadFlags::CACHE_ALL, 0);
        assert!(r.first_level_hit);
        assert_eq!(r.level, CacheKind::Texture);
    }

    #[test]
    fn constant_path_is_separate_from_l1() {
        let cfg = presets::h100_80().config;
        let mut mem = MemorySubsystem::new(&cfg);
        mem.load(0, 0, MemorySpace::Global, LoadFlags::CACHE_ALL, 0);
        let r = mem.load(0, 0, MemorySpace::Constant, LoadFlags::CACHE_ALL, 0);
        assert!(!r.first_level_hit, "constant L1 must be a distinct cache");
    }

    #[test]
    fn constant_miss_hits_const_l15() {
        let cfg = presets::h100_80().config;
        let cl1 = cfg.cache(CacheKind::ConstL1).unwrap();
        let cl15 = cfg.cache(CacheKind::ConstL15).unwrap();
        let mut mem = MemorySubsystem::new(&cfg);
        // Warm an array twice the CL1 size through the constant path: the
        // head has been evicted from CL1 but lives in CL1.5.
        let bytes = cl1.size * 2;
        let step = cl1.fetch_granularity as u64;
        for addr in (0..bytes).step_by(step as usize) {
            mem.load(0, 0, MemorySpace::Constant, LoadFlags::CACHE_ALL, addr);
        }
        let r = mem.load(0, 0, MemorySpace::Constant, LoadFlags::CACHE_ALL, 0);
        assert_eq!(r.level, CacheKind::ConstL15);
        assert_eq!(r.latency, cl15.load_latency);
    }

    #[test]
    fn different_sms_use_different_l1_instances() {
        let cfg = presets::h100_80().config;
        let mut mem = MemorySubsystem::new(&cfg);
        mem.load(0, 0, MemorySpace::Global, LoadFlags::CACHE_ALL, 0);
        // SM 2 is wired to the same L2 segment as SM 0 (stripe % 2), so the
        // load hits in L2, not L1.
        let r = mem.load(2, 0, MemorySpace::Global, LoadFlags::CACHE_ALL, 0);
        assert_eq!(r.level, CacheKind::L2);
    }

    #[test]
    fn l2_segments_are_isolated() {
        let cfg = presets::a100().config;
        let l2 = cfg.cache(CacheKind::L2).unwrap();
        assert_eq!(l2.segments, 2);
        let mut mem = MemorySubsystem::new(&cfg);
        assert_ne!(mem.l2_segment_of(0), mem.l2_segment_of(1));
        // Warm through SM0's segment (bypassing L1)...
        mem.load(0, 0, MemorySpace::Global, LoadFlags::CACHE_GLOBAL, 4096);
        // ...SM1 reads the same address through the *other* segment: DRAM.
        let r = mem.load(1, 0, MemorySpace::Global, LoadFlags::CACHE_GLOBAL, 4096);
        assert_eq!(r.level, CacheKind::DeviceMemory);
        // ...while SM2 (same segment as SM0) hits in L2.
        let r = mem.load(2, 0, MemorySpace::Global, LoadFlags::CACHE_GLOBAL, 4096);
        assert_eq!(r.level, CacheKind::L2);
    }

    #[test]
    fn amd_scalar_cache_is_shared_within_cu_group() {
        let gpu = presets::mi210();
        let cfg = gpu.config;
        let layout = cfg.cu_layout.as_ref().unwrap();
        let mut mem = MemorySubsystem::new(&cfg);
        // Find a CU with a partner and one without.
        let with_partner = (0..cfg.chip.num_sms as usize)
            .find(|&cu| !layout.sl1d_partners(cu).is_empty())
            .expect("MI210 has paired CUs");
        let partner = layout.sl1d_partners(with_partner)[0];
        mem.load(
            with_partner,
            0,
            MemorySpace::Scalar,
            LoadFlags::CACHE_ALL,
            64,
        );
        let r = mem.load(partner, 0, MemorySpace::Scalar, LoadFlags::CACHE_ALL, 64);
        assert!(r.first_level_hit, "partner CU must share the sL1d");
        // A CU in a different group does not share.
        let stranger = (0..cfg.chip.num_sms as usize)
            .find(|&cu| layout.sl1d_group_of(cu) != layout.sl1d_group_of(with_partner))
            .unwrap();
        let r2 = mem.load(stranger, 0, MemorySpace::Scalar, LoadFlags::CACHE_ALL, 64);
        assert!(!r2.first_level_hit);
    }

    #[test]
    fn amd_vector_path_reaches_l2_with_glc() {
        let cfg = presets::mi210().config;
        let mut mem = MemorySubsystem::new(&cfg);
        mem.load(0, 0, MemorySpace::Vector, LoadFlags::CACHE_GLOBAL, 128);
        let r = mem.load(0, 0, MemorySpace::Vector, LoadFlags::CACHE_GLOBAL, 128);
        assert_eq!(r.level, CacheKind::L2);
    }

    #[test]
    fn mi300x_l3_catches_l2_misses() {
        let cfg = presets::mi300x().config;
        assert!(cfg.cache(CacheKind::L3).is_some());
        let mut mem = MemorySubsystem::new(&cfg);
        // First touch allocates in L2+L3; flush only L2s by loading from a
        // *different* XCD's CU: its L2 segment is cold but L3 is shared.
        mem.load(0, 0, MemorySpace::Vector, LoadFlags::CACHE_GLOBAL, 256);
        let other_xcd_cu = (0..cfg.chip.num_sms as usize)
            .find(|&cu| mem.l2_segment_of(cu) != mem.l2_segment_of(0))
            .expect("MI300X has multiple XCDs");
        let r = mem.load(
            other_xcd_cu,
            0,
            MemorySpace::Vector,
            LoadFlags::CACHE_GLOBAL,
            256,
        );
        assert_eq!(r.level, CacheKind::L3);
    }

    /// The contention validator re-derives segment wiring from the pure
    /// `DeviceConfig::l2_segment_of`; it must agree with the subsystem's
    /// actual wiring on every registry preset, by construction.
    #[test]
    fn config_segment_mapping_matches_the_wired_subsystem() {
        for entry in presets::Registry::global().entries() {
            let cfg = entry.gpu().config;
            let mem = MemorySubsystem::new(&cfg);
            for sm in 0..cfg.chip.num_sms as usize {
                assert_eq!(
                    mem.l2_segment_of(sm),
                    cfg.l2_segment_of(sm),
                    "{} sm {sm}",
                    cfg.name
                );
            }
        }
    }

    #[test]
    fn tlb_first_touches_are_free_and_reach_overflow_pays() {
        use crate::tlb::TlbSpec;
        let mut cfg = presets::t1000().config;
        // Tiny TLB: 4-page L1 reach, 8-page L2 reach over 64 KiB pages.
        cfg.tlb = Some(TlbSpec::fully_associative(65536, 4, 50, 8, 400));
        let l2_lat = cfg.cache(CacheKind::L2).unwrap().load_latency;
        let mut mem = MemorySubsystem::new(&cfg);
        let page = 65536u64;
        let load = |mem: &mut MemorySubsystem, addr: u64| {
            mem.load(0, 0, MemorySpace::Global, LoadFlags::CACHE_GLOBAL, addr)
        };
        // First pass over 6 pages: compulsory translations install free,
        // the loads themselves are cold DRAM fetches.
        for p in 0..6u64 {
            assert_eq!(
                load(&mut mem, p * page).latency,
                cfg.dram.load_latency,
                "page {p}"
            );
        }
        // Second pass: 6 pages > 4 L1 entries thrash the L1 TLB but fit
        // the L2 TLB -> every re-visit pays the L1-TLB miss penalty.
        for p in 0..6u64 {
            assert_eq!(load(&mut mem, p * page).latency, l2_lat + 50, "page {p}");
        }
        // A 12-page ring exceeds both levels: the full walk.
        for p in 0..12u64 {
            load(&mut mem, p * page);
        }
        for p in 0..12u64 {
            assert_eq!(load(&mut mem, p * page).latency, l2_lat + 400, "page {p}");
        }
        // Flush clears residency *and* first-touch history.
        mem.flush_all();
        let r = mem.load(0, 0, MemorySpace::Global, LoadFlags::CACHE_GLOBAL, 0);
        assert_eq!(r.latency, cfg.dram.load_latency, "cold again, no penalty");
    }

    #[test]
    fn tlb_within_reach_ring_stays_free() {
        use crate::tlb::TlbSpec;
        let mut cfg = presets::t1000().config;
        cfg.tlb = Some(TlbSpec::fully_associative(65536, 4, 50, 8, 400));
        let l2_lat = cfg.cache(CacheKind::L2).unwrap().load_latency;
        let mut mem = MemorySubsystem::new(&cfg);
        for p in 0..4u64 {
            // Cold pass: DRAM-serviced, translation installed for free.
            let r = mem.load(
                0,
                0,
                MemorySpace::Global,
                LoadFlags::CACHE_GLOBAL,
                p * 65536,
            );
            assert_eq!(r.latency, cfg.dram.load_latency, "page {p}");
        }
        for _ in 0..3 {
            for p in 0..4u64 {
                let r = mem.load(
                    0,
                    0,
                    MemorySpace::Global,
                    LoadFlags::CACHE_GLOBAL,
                    p * 65536,
                );
                assert_eq!(r.latency, l2_lat, "a ring at reach never pays");
            }
        }
    }

    #[test]
    fn scratchpad_loads_are_flat_latency() {
        let cfg = presets::h100_80().config;
        let mut mem = MemorySubsystem::new(&cfg);
        let r = mem.load(0, 0, MemorySpace::Shared, LoadFlags::CACHE_ALL, 0);
        assert_eq!(r.level, CacheKind::SharedMemory);
        assert_eq!(r.latency, cfg.scratchpad.load_latency);
    }
}
