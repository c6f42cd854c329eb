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
//!
//! The caches live in one table of levels, each a kind, the planted
//! latency of a hit there and its physical instances. A load runs
//! in two explicit stages: `MemorySubsystem::route` resolves its route —
//! which instances to try, in what order, at what latency — and
//! `MemorySubsystem::load_via` walks it for one address.
//! [`MemorySubsystem::load`] does both on every call; a batched p-chase
//! resolves its route once and walks it for every load.
//!
//! The p-chase batches issued from a flushed hierarchy need not be walked
//! at all while every level on their routes is fully associative:
//! `MemorySubsystem::defer_lap` classifies each batch's loads in closed
//! form from reuse distances (Mattson, Gecsei, Slutz and Traiger,
//! "Evaluation techniques for storage hierarchies", IBM Systems Journal,
//! 1970), given the batches before it, and appends the batch to a log:
//! full laps over disjoint rings, then at most one observation pass that
//! re-chases a ring the log holds — the prime/probe sequence of the
//! amount, sharing and contention benchmarks. Exact-LRU levels qualify
//! whatever the log brings into them, any other policy while the log
//! never fills the level. A flush drops the log, and the next walked load
//! replays it first.

use crate::cache::{ReplacementPolicy, SectoredCache};
use crate::device::{CacheKind, DeviceConfig, LoadFlags, MemorySpace, Vendor};
use crate::gpu::Ring;
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
}

/// One cache level of the device: every physical instance of one kind.
#[derive(Debug)]
struct Level {
    kind: CacheKind,
    /// Planted end-to-end latency of a hit at this level.
    latency: u32,
    /// Flush-tracking id of instance 0 (see [`MemorySubsystem::touched`]);
    /// instance `i` is `first + i`.
    first: usize,
    /// The level's instances. A Texture or Readonly level unified with L1
    /// has none: its loads hit the L1 instance, at this level's latency.
    caches: Vec<SectoredCache>,
}

/// One level of a [`Route`]: the instance to try and what a hit there
/// reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    /// Index into the subsystem's level table.
    level: usize,
    /// Index into that level's instances.
    instance: usize,
    kind: CacheKind,
    latency: u32,
}

/// A resolved load route: the cache instances to try, in order, then the
/// terminal level (device memory). A route depends only on the issuing
/// (SM, core), the memory space and the flags, never on the address or
/// on cache contents, so one route serves every load of a p-chase.
/// Scratchpad loads resolve to a flat-latency route with no steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Route {
    steps: [Option<Step>; 3],
    /// Whether the loads translate their address through the TLBs
    /// (scratchpad windows are driver-managed physical memory and don't).
    translates: bool,
    /// Resolution when every step misses (or for scratchpad loads).
    terminal: LoadResolution,
}

/// A route [`MemorySubsystem::mark`] has marked for the next flush, with
/// the SM it was resolved for. Only `mark` makes one, and
/// [`MemorySubsystem::load_via`] walks nothing else, so no walk skips the
/// mark that keeps the touched-only flush exact. A mark lasts until the
/// next flush.
pub(crate) struct Marked<'r> {
    route: &'r Route,
    sm: usize,
}

/// One entry of the lap log: a p-chase batch charged in closed form and
/// not walked. It loads `ring` along `route` from `sm` — `warm` untimed
/// steps, then `timed` steps from the ring's start — and carries its own
/// ring, because the buffers may be freed before a later load replays it.
#[derive(Debug)]
struct LoggedBatch {
    route: Route,
    sm: usize,
    ring: Ring,
    /// A full lap (the ring's element count), or 0 for an observation
    /// pass.
    warm: u64,
    timed: u64,
    /// Distinct lines the batch brings into the instance of each route
    /// step, in route order.
    lines: [u64; 3],
}

impl LoggedBatch {
    /// Lines the batch brings into the instance `step` tries.
    fn lines_in(&self, step: &Step) -> u64 {
        self.route
            .steps
            .iter()
            .zip(self.lines)
            .filter(|(s, _)| {
                s.is_some_and(|s| (s.level, s.instance) == (step.level, step.instance))
            })
            .map(|(_, lines)| lines)
            .sum()
    }
}

/// A lap over a ring through caches that hold none of its lines, one
/// period of it: the pattern of hits and misses repeats every `period`
/// elements.
struct LapScan {
    period: u64,
    /// The level each of the first `period.min(count)` elements resolves
    /// at: an index into the route's caches, their count for the
    /// terminal level.
    lap_level: Vec<usize>,
    /// Distinct lines the lap brings into each cache.
    lines: [u64; 3],
}

/// Where each load of a p-chase batch resolves, in closed form: the
/// latency of every element of one period of the ring in a warm-up lap
/// over it from caches that hold none of its lines, and in every timed
/// step of the batch (see [`MemorySubsystem::defer_lap`]).
#[derive(Debug)]
pub(crate) struct ClosedLap {
    /// Elements in the ring.
    count: u64,
    /// Elements per period: the pattern of hits and misses repeats every
    /// `period` elements.
    period: u64,
    /// Latency of each element's warm-up load, over the first
    /// `period.min(count)` elements.
    lap: Vec<u32>,
    /// Latency of each element's load in a timed step of the batch.
    after: Vec<u32>,
}

impl ClosedLap {
    /// The warm-up lap's charge: `cost` of each load's latency, summed
    /// over the ring.
    pub(crate) fn lap_cycles(&self, cost: impl Fn(u32) -> u64) -> u64 {
        let sum = |lats: &[u32]| lats.iter().map(|&lat| cost(lat)).sum::<u64>();
        let rest = (self.count % self.period) as usize;
        self.count / self.period * sum(&self.lap) + sum(&self.lap[..rest])
    }

    /// Latency of timed step `step`, which loads element `step mod count`.
    pub(crate) fn step_latency(&self, step: u64) -> u32 {
        self.after[(step % self.count % self.period) as usize]
    }
}

/// All physical cache instances of one GPU.
#[derive(Debug)]
pub struct MemorySubsystem {
    vendor: Vendor,
    num_sms: usize,
    cores_per_sm: usize,
    sl1d_group_of_cu: Vec<usize>,
    l2_segment_of_sm: Vec<usize>,
    /// Every cache level the device has.
    levels: Vec<Level>,

    scratch_latency: u32,
    dram_latency: u32,

    /// Address translation: one L1 TLB per SM/CU plus the shared L2 TLB
    /// (absent when the configuration models no TLB). Translation happens
    /// per *address*, so it is not part of a [`Route`]: the walk penalty
    /// is added per load on top of whatever level serviced it.
    tlb_spec: Option<TlbSpec>,
    /// `log2(page_bytes)` when the page size is a power of two (it is for
    /// every preset: 2 MiB driver large pages), else [`NO_PAGE_SHIFT`] and
    /// the page number falls back to a division.
    tlb_page_shift: u32,
    /// Single-entry `(sm, page)` translation memo: a p-chase walks its ring
    /// in address order, so consecutive loads stay on one page. The last
    /// translation left its page resident and most recent in that SM's L1
    /// TLB, so translating it again from the same SM is an L1-TLB hit that
    /// changes no state (the L2 TLB is never consulted on an L1 hit) and
    /// costs nothing — skipping it is behaviour-identical. Any other
    /// `(sm, page)` overwrites the memo; [`Self::flush_all`] invalidates.
    tlb_memo: (u32, u64),
    l1_tlb: Vec<Tlb>,
    l2_tlb: Option<Tlb>,

    /// The instances walked since the last flush, one bit per id: the
    /// caches level by level from 0 (see [`Level::first`]), then SM `s`'s
    /// L1 TLB at `tlb_first + s` and the L2 TLB at `tlb_first + num_sms`.
    /// [`Self::mark`] sets a route's bits once per batch or route, and
    /// [`Self::flush_all`] flushes only these instances. Empty until the
    /// first mark.
    touched: Vec<u64>,
    /// Id of SM 0's L1 TLB: the number of cache instances.
    tlb_first: usize,

    /// The lap log: every batch charged in closed form since the last
    /// flush, in order, that no walked load has needed yet. Walking them
    /// would leave the caches and TLBs as the eager walk did.
    log: Vec<LoggedBatch>,
    /// Whether a batch may still join the log: no load was walked since
    /// construction or the last flush, the log holds no observation pass,
    /// and no buffer was freed while it held a ring.
    open: bool,
    /// Loads walked through [`Self::load_via`] since construction.
    walked: u64,
    /// Test switch: take no lap in closed form, walk every load.
    #[cfg(test)]
    pub(crate) eager: bool,
    /// Logged batches replayed since construction, for tests that must
    /// cover replays.
    #[cfg(test)]
    pub(crate) replayed: u64,
}

impl MemorySubsystem {
    /// Instantiates every physical cache of `config`.
    pub fn new(config: &DeviceConfig) -> Self {
        let num_sms = config.chip.num_sms as usize;
        let nvidia = config.vendor == Vendor::Nvidia;
        let per_sm = |present: bool| if present { num_sms } else { 0 };

        // sL1d: one instance per *group* of physical CUs that has at least
        // one active member; `sl1d_group_of_cu[cu]` is the dense index.
        let mut groups: Vec<u32> = Vec::new();
        let sl1d_group_of_cu = (0..num_sms)
            .map(|cu| {
                let Some(layout) = config.cu_layout.as_ref() else {
                    return 0;
                };
                let group = layout.sl1d_group_of(cu);
                groups.iter().position(|&g| g == group).unwrap_or_else(|| {
                    groups.push(group);
                    groups.len() - 1
                })
            })
            .collect();

        let unified = config.sharing.l1_tex_ro_unified;
        let l1_amount = config
            .cache(CacheKind::L1)
            .and_then(|s| s.amount_per_sm)
            .unwrap_or(1)
            .max(1) as usize;
        let l2_segments = config
            .cache(CacheKind::L2)
            .map_or(1, |s| s.segments.max(1) as usize);
        // Each level's instance count. Texture and Readonly unified with
        // L1 keep a level, for their planted latency, with no instances.
        let instances = [
            (CacheKind::L1, per_sm(nvidia) * l1_amount),
            (CacheKind::Texture, per_sm(!unified)),
            (CacheKind::Readonly, per_sm(!unified)),
            (CacheKind::ConstL1, num_sms),
            (CacheKind::ConstL15, 1),
            (CacheKind::VL1, per_sm(!nvidia)),
            (CacheKind::SL1D, groups.len()),
            (CacheKind::L2, l2_segments),
            (CacheKind::L3, 1),
        ];
        let mut next_id = 0;
        let levels = instances
            .into_iter()
            .filter_map(|(kind, count)| {
                let spec = config.cache(kind)?;
                // Every instance of a level runs the level's configured
                // replacement policy (exact LRU unless the preset plants
                // another).
                let policy = config.policy_of(kind);
                let first = next_id;
                next_id += count;
                Some(Level {
                    kind,
                    latency: spec.load_latency,
                    first,
                    caches: (0..count)
                        .map(|_| SectoredCache::from_spec_with_policy(spec, policy))
                        .collect(),
                })
            })
            .collect();

        // L2 segment visibility: an SM/CU only ever talks to one segment
        // (paper Sec. IV-F1 / VI-C observation 2); the mapping itself is
        // pure configuration, shared with the contention validator.
        let l2_segment_of_sm = (0..num_sms).map(|sm| config.l2_segment_of(sm)).collect();

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
            cores_per_sm: config.chip.cores_per_sm as usize,
            sl1d_group_of_cu,
            l2_segment_of_sm,
            levels,
            scratch_latency: config.scratchpad.load_latency,
            dram_latency: config.dram.load_latency,
            tlb_spec,
            tlb_page_shift,
            tlb_memo: NO_TLB_MEMO,
            l1_tlb,
            l2_tlb,
            touched: Vec::new(),
            tlb_first: next_id,
            log: Vec::new(),
            open: true,
            walked: 0,
            #[cfg(test)]
            eager: false,
            #[cfg(test)]
            replayed: 0,
        }
    }

    /// How many physical instances of `kind` the device has (0 when it has
    /// none of its own).
    fn instances(&self, kind: CacheKind) -> usize {
        self.levels
            .iter()
            .find(|l| l.kind == kind)
            .map_or(0, |l| l.caches.len())
    }

    /// Index of the L1 instance serving (`sm`, `core`): cores of one SM are
    /// split evenly across the SM's L1 instances.
    fn l1_instance(&self, sm: usize, core: usize) -> usize {
        let amount = (self.instances(CacheKind::L1) / self.num_sms).max(1);
        let per_instance = (self.cores_per_sm / amount).max(1);
        let within = (core / per_instance).min(amount - 1);
        sm * amount + within
    }

    /// The L2 segment index an SM/CU is wired to.
    pub fn l2_segment_of(&self, sm: usize) -> usize {
        self.l2_segment_of_sm[sm]
    }

    /// Loads walked through the caches on the host since construction
    /// (see `Gpu::walked_loads`).
    pub(crate) fn walked_loads(&self) -> u64 {
        self.walked
    }

    /// Invalidates every cache and TLB on the device, and drops the lap
    /// log unwalked: the flush would have erased what it left.
    ///
    /// Only the instances walked since the last flush are flushed. That
    /// is exact: an instance changes only when a load walks it, every
    /// walk marks its route first, and flushing an instance that is
    /// already flushed changes nothing.
    pub fn flush_all(&mut self) {
        self.open = true;
        self.log.clear();
        self.tlb_memo = NO_TLB_MEMO;
        for word in 0..self.touched.len() {
            let mut bits = std::mem::take(&mut self.touched[word]);
            while bits != 0 {
                self.flush_instance(word * 64 + bits.trailing_zeros() as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Flushes the cache or TLB with flush-tracking id `id`.
    fn flush_instance(&mut self, id: usize) {
        if id < self.tlb_first {
            let level = self
                .levels
                .iter_mut()
                .find(|l| id < l.first + l.caches.len())
                .expect("a cache id names an instance");
            level.caches[id - level.first].flush();
        } else if let Some(tlb) = self.l1_tlb.get_mut(id - self.tlb_first) {
            tlb.flush();
        } else if let Some(tlb) = &mut self.l2_tlb {
            tlb.flush();
        }
    }

    /// Marks the instances walking `route` from `sm` touches for the next
    /// flush: the route's caches and, when it translates, `sm`'s L1 TLB
    /// and the L2 TLB. Returns the route to walk them with: [`Self::load`]
    /// marks per load, the lap-log replay per logged batch, and
    /// `Gpu::pchase_batch` per walked batch.
    #[inline]
    pub(crate) fn mark<'r>(&mut self, route: &'r Route, sm: usize) -> Marked<'r> {
        if self.touched.is_empty() {
            let ids = self.tlb_first + self.num_sms + 1;
            self.touched = vec![0; ids.div_ceil(64)];
        }
        let touched = &mut self.touched;
        let mut set = |id: usize| touched[id / 64] |= 1 << (id % 64);
        for step in route.steps.iter().flatten() {
            set(self.levels[step.level].first + step.instance);
        }
        if route.translates && self.tlb_spec.is_some() {
            set(self.tlb_first + sm);
            set(self.tlb_first + self.num_sms);
        }
        Marked { route, sm }
    }

    /// Notes that every buffer was freed. `alloc` hands the same
    /// addresses out again, so a new ring could alias one the log holds:
    /// a non-empty log takes no further batch until the next flush.
    pub(crate) fn buffers_freed(&mut self) {
        self.open &= self.log.is_empty();
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
        // Repeat (sm, page): an L1-TLB hit with no state change (see the
        // field doc).
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

    /// Routes one load and updates cache state: `route`, then `load_via`.
    ///
    /// `sm`/`core` locate the issuing thread; `space` and `flags` pick the
    /// path. Returns where the load was serviced and the end-to-end
    /// latency. Missing levels on the path allocate the accessed sector
    /// (unless `flags.bypass_all`).
    #[inline]
    pub fn load(
        &mut self,
        sm: usize,
        core: usize,
        space: MemorySpace,
        flags: LoadFlags,
        addr: u64,
    ) -> LoadResolution {
        let route = self.route(sm, core, space, flags);
        let via = self.mark(&route, sm);
        self.load_via(&via, addr)
    }

    /// Walks a marked route for one load of `addr` issued from its SM.
    /// The lap log is replayed first, so the load sees the state walking
    /// it would have left.
    ///
    /// The address translates first, when the route does; the walk
    /// penalty rides on top of whatever level services the load. A hit
    /// at level *n* only ever touches levels `1..=n`: deeper levels are
    /// not consulted and do not allocate.
    #[inline]
    pub(crate) fn load_via(&mut self, via: &Marked<'_>, addr: u64) -> LoadResolution {
        let Marked { route, sm } = *via;
        if !self.log.is_empty() {
            self.replay();
        }
        self.open = false;
        self.walked += 1;
        let tlb_penalty = if route.translates {
            self.translate(sm, addr)
        } else {
            0
        };
        for step in route.steps.iter().flatten() {
            if self.levels[step.level].caches[step.instance]
                .access(addr)
                .is_hit()
            {
                return LoadResolution {
                    level: step.kind,
                    latency: step.latency + tlb_penalty,
                };
            }
        }
        LoadResolution {
            latency: route.terminal.latency + tlb_penalty,
            ..route.terminal
        }
    }

    /// Takes a p-chase batch along `route` from `sm` — `warm` untimed
    /// steps over `ring`, then `timed` steps from its start — in closed
    /// form, and appends it to the lap log. Two kinds of batch qualify: a
    /// full lap (`warm` is the ring's element count) with or without
    /// timed steps, and an observation pass (`warm` is 0) over a ring the
    /// log holds. Returns `None`, changing nothing, when the batch must be
    /// walked:
    ///
    /// * it is neither kind;
    /// * the log is closed: a load was walked since the last flush, the
    ///   log holds an observation pass, or buffers were freed while it
    ///   held a ring;
    /// * a step of the route is not a fully-associative cache whose line
    ///   size divides the ring's base;
    /// * a lap's ring starts where a logged ring does. Distinct live
    ///   buffers never share a line (`alloc` leaves a guard page between
    ///   them), so every other ring's lines are disjoint from the log's;
    /// * the route translates, and the pages of the rings the log chases
    ///   from `sm` overflow a fully-associative L1 TLB;
    /// * a level that is not exact LRU would receive more distinct lines
    ///   from the log than it has room for;
    /// * an observation pass has more steps than the ring has elements,
    ///   or its ring is not logged as a warm-only lap along the same
    ///   route from the same SM.
    ///
    /// A lap's lines are new to every cache, so it classifies as if from
    /// a flush: each level sees the lap's loads in address order, and a
    /// one-line register of (line, fetched sectors) per level classifies
    /// them exactly — a new line misses, a new sector of the current line
    /// sector-misses, anything else hits — because the current line was
    /// touched last and is never the victim. The pattern repeats every
    /// `period` elements, the fewest whose span is a whole number of
    /// lines at every level, so one period gives each element's lap level
    /// and each level's distinct lines `L` over the lap.
    ///
    /// A later load re-touches a line of the ring after the other `L - 1`
    /// lines of its level, plus every line the batches logged after the
    /// ring brought into the same instance: under exact LRU the level
    /// holds the ring iff those lines fit its line capacity, and then
    /// every load that reaches it hits; otherwise every line has been
    /// evicted again and the level repeats its lap behaviour. A level of
    /// any other policy evicts nothing while the log fits it (every
    /// fully-associative policy fills a free slot before it evicts, and
    /// random replacement draws its victim stream only when full), so it
    /// holds every logged ring. A later step therefore resolves at the
    /// first level that holds the ring or at its lap level, whichever
    /// comes first. Translation costs nothing: first touches are free,
    /// and every logged page stays in its SM's L1 TLB.
    pub(crate) fn defer_lap(
        &mut self,
        route: &Route,
        sm: usize,
        ring: Ring,
        warm: u64,
        timed: u64,
    ) -> Option<ClosedLap> {
        #[cfg(test)]
        if self.eager {
            return None;
        }
        let lap = warm == ring.count;
        if !self.open || !(lap || warm == 0) {
            return None;
        }
        let steps: Vec<&Step> = route.steps.iter().flatten().collect();
        let caches: Vec<&SectoredCache> = steps
            .iter()
            .map(|step| &self.levels[step.level].caches[step.instance])
            .collect();
        if caches
            .iter()
            .any(|cache| cache.num_sets() != 1 || !ring.base.is_multiple_of(cache.line_size()))
        {
            return None;
        }
        // Lines the batches of `batches` brought into `step`'s instance.
        let brought = |batches: &[LoggedBatch], step: &Step| -> u64 {
            batches.iter().map(|batch| batch.lines_in(step)).sum()
        };
        // Lines the batches logged after the ring brought into each step's
        // instance: none for a new lap, which is the newest batch.
        let mut later = [0u64; 3];
        if lap {
            if self.log.iter().any(|logged| logged.ring.base == ring.base) {
                return None;
            }
            if let (true, Some(spec)) = (route.translates, self.tlb_spec) {
                let pages = |ring: Ring| {
                    if ring.stride >= spec.page_bytes {
                        ring.count
                    } else {
                        let last = ring.base + (ring.count - 1) * ring.stride;
                        last / spec.page_bytes - ring.base / spec.page_bytes + 1
                    }
                };
                // Rings may share a page, so the sum bounds the SM's pages.
                let logged: u64 = self
                    .log
                    .iter()
                    .filter(|logged| logged.sm == sm && logged.route.translates)
                    .map(|logged| pages(logged.ring))
                    .sum();
                if !self.l1_tlb[sm].holds(logged + pages(ring)) {
                    return None;
                }
            }
        } else {
            let at = self.log.iter().position(|logged| logged.ring == ring)?;
            let logged = &self.log[at];
            if timed > ring.count
                || logged.warm == 0
                || logged.timed != 0
                || logged.route != *route
                || logged.sm != sm
            {
                return None;
            }
            for (j, step) in steps.iter().enumerate() {
                later[j] = brought(&self.log[at + 1..], step);
            }
        }
        let capacity = |cache: &SectoredCache| cache.capacity() / cache.line_size();
        let scan = scan_lap(&caches, ring);
        // A level that is not exact LRU must never fill: a new lap's lines
        // join every line the log brought into it.
        for (j, (step, cache)) in steps.iter().zip(&caches).enumerate() {
            if lap
                && cache.policy() != ReplacementPolicy::Lru
                && brought(&self.log, step) + scan.lines[j] > capacity(cache)
            {
                return None;
            }
        }

        let holds: Vec<bool> = caches
            .iter()
            .enumerate()
            .map(|(j, cache)| scan.lines[j] + later[j] <= capacity(cache))
            .collect();
        let latency = |level: usize| {
            steps
                .get(level)
                .map_or(route.terminal.latency, |s| s.latency)
        };
        let closed = ClosedLap {
            count: ring.count,
            period: scan.period,
            lap: scan.lap_level.iter().map(|&level| latency(level)).collect(),
            after: scan
                .lap_level
                .iter()
                .map(|&level| latency((0..level).find(|&j| holds[j]).unwrap_or(level)))
                .collect(),
        };
        // An observation pass re-orders the recency of the ring it
        // re-chases, which no later batch's classification accounts for.
        self.open = lap;
        self.log.push(LoggedBatch {
            route: *route,
            sm,
            ring,
            warm,
            timed,
            lines: scan.lines,
        });
        Some(closed)
    }

    /// Walks the lap log in order, noise-free and uncharged, so that the
    /// hierarchy holds exactly what walking its batches would have left.
    #[cold]
    fn replay(&mut self) {
        for batch in std::mem::take(&mut self.log) {
            #[cfg(test)]
            {
                self.replayed += 1;
            }
            let via = self.mark(&batch.route, batch.sm);
            let mut addr = batch.ring.base;
            for _ in 0..batch.warm + batch.timed {
                self.load_via(&via, addr);
                addr = batch.ring.next(addr);
            }
        }
    }

    /// The hierarchy's state as text, after walking the lap log: every
    /// cache's contents, recency order and index layout, both TLB levels
    /// and the translation memo.
    #[cfg(test)]
    pub(crate) fn state(&mut self) -> String {
        if !self.log.is_empty() {
            self.replay();
        }
        format!(
            "{:?} {:?} {:?} {:?}",
            self.levels, self.l1_tlb, self.l2_tlb, self.tlb_memo
        )
    }

    /// [`Self::flush_all`] with every instance flushed, touched or not:
    /// the reference the touched-only flush is tested against.
    #[cfg(test)]
    pub(crate) fn flush_every_instance(&mut self) {
        self.open = true;
        self.log.clear();
        self.tlb_memo = NO_TLB_MEMO;
        self.touched.fill(0);
        for cache in self.levels.iter_mut().flat_map(|l| &mut l.caches) {
            cache.flush();
        }
        for tlb in self.l1_tlb.iter_mut().chain(self.l2_tlb.as_mut()) {
            tlb.flush();
        }
    }

    /// The most lines one instance of the `kind` level holds.
    #[cfg(test)]
    pub(crate) fn resident_lines(&self, kind: CacheKind) -> u64 {
        self.levels
            .iter()
            .filter(|level| level.kind == kind)
            .flat_map(|level| &level.caches)
            .map(SectoredCache::resident_lines)
            .max()
            .unwrap_or(0)
    }

    /// Resolves the route of a load issued from (`sm`, `core`) through
    /// `space` with `flags`: which instances it tries, in what order, and
    /// what a hit at each reports.
    pub(crate) fn route(
        &self,
        sm: usize,
        core: usize,
        space: MemorySpace,
        flags: LoadFlags,
    ) -> Route {
        debug_assert!(sm < self.num_sms, "SM {sm} out of range");
        let mut steps: [Option<Step>; 3] = [None; 3];
        let mut n = 0usize;
        let mut push = |step: Option<Step>| {
            if step.is_some() {
                steps[n] = step;
                n += 1;
            }
        };
        let l2 = self.l2_segment_of_sm[sm];
        match space {
            MemorySpace::Shared | MemorySpace::Lds => {
                return Route {
                    steps: [None; 3],
                    translates: false,
                    terminal: LoadResolution {
                        level: if self.vendor == Vendor::Nvidia {
                            CacheKind::SharedMemory
                        } else {
                            CacheKind::Lds
                        },
                        latency: self.scratch_latency,
                    },
                }
            }
            _ if flags.bypass_all => {}
            MemorySpace::Constant => {
                debug_assert_eq!(self.vendor, Vendor::Nvidia);
                push(self.step(CacheKind::ConstL1, sm));
                push(self.step(CacheKind::ConstL15, 0));
                push(self.step(CacheKind::L2, l2));
            }
            MemorySpace::Global | MemorySpace::Texture | MemorySpace::Readonly => {
                debug_assert_eq!(self.vendor, Vendor::Nvidia);
                // L1-level: either the unified L1 instance or a dedicated
                // texture/readonly instance, unless bypassed with `.cg`.
                if !flags.bypass_l1 {
                    push(self.l1_step(sm, core, space));
                }
                push(self.step(CacheKind::L2, l2));
            }
            MemorySpace::Vector | MemorySpace::Scalar => {
                debug_assert_eq!(self.vendor, Vendor::Amd);
                if !flags.bypass_l1 {
                    push(if space == MemorySpace::Vector {
                        self.step(CacheKind::VL1, sm)
                    } else {
                        self.step(CacheKind::SL1D, self.sl1d_group_of_cu[sm])
                    });
                }
                push(self.step(CacheKind::L2, l2));
                push(self.step(CacheKind::L3, 0));
            }
        }
        Route {
            steps,
            translates: true,
            terminal: LoadResolution {
                level: CacheKind::DeviceMemory,
                latency: self.dram_latency,
            },
        }
    }

    /// The route step that tries instance `instance` of the `kind` level
    /// and reports a hit there as `kind` at the level's planted latency;
    /// `None` when the device has no such instance.
    fn step(&self, kind: CacheKind, instance: usize) -> Option<Step> {
        let level = self
            .levels
            .iter()
            .position(|l| l.kind == kind && instance < l.caches.len())?;
        Some(Step {
            level,
            instance,
            kind,
            latency: self.levels[level].latency,
        })
    }

    /// The L1-level step of an NVIDIA global, texture or read-only load: a
    /// dedicated per-SM texture or read-only instance when the device has
    /// one, else the issuing core's unified L1 instance. On the unified
    /// cache the texture and read-only paths still report their own kind
    /// at their own planted latency (they differ slightly on real silicon:
    /// H100 measures 38/39/35 cycles for L1/TEX/RO).
    fn l1_step(&self, sm: usize, core: usize, space: MemorySpace) -> Option<Step> {
        let kind = match space {
            MemorySpace::Texture => CacheKind::Texture,
            MemorySpace::Readonly => CacheKind::Readonly,
            _ => CacheKind::L1,
        };
        let dedicated = match kind {
            CacheKind::L1 => None,
            _ => self.step(kind, sm),
        };
        dedicated.or_else(|| {
            let l1 = self.step(CacheKind::L1, self.l1_instance(sm, core))?;
            let latency = self
                .levels
                .iter()
                .find(|l| l.kind == kind)
                .map_or(l1.latency, |l| l.latency);
            Some(Step {
                kind,
                latency,
                ..l1
            })
        })
    }
}

/// Scans one period of a lap over `ring` through `caches` (in route
/// order), none of which holds any of its lines; `ring.base` must be a
/// multiple of every line size, so each period starts a new line at every
/// level.
fn scan_lap(caches: &[&SectoredCache], ring: Ring) -> LapScan {
    let span = caches
        .iter()
        .fold(1, |span, cache| lcm(span, cache.line_size()));
    let period = span / gcd(span, ring.stride);
    let scanned = period.min(ring.count);
    let rest = ring.count % period;
    // Per level: the line of its last access and the sectors fetched in
    // it, the lines it has seen, and those of the first `rest` elements.
    let mut current = [(u64::MAX, 0u64); 3];
    let mut lines = [0u64; 3];
    let mut rest_lines = [0u64; 3];
    let mut lap_level = Vec::with_capacity(scanned as usize);
    for e in 0..scanned {
        if e == rest {
            rest_lines = lines;
        }
        let addr = ring.base + e * ring.stride;
        let mut resolved = caches.len();
        for (j, cache) in caches.iter().enumerate() {
            let (line, sector) = cache.split_addr(addr);
            let (current_line, fetched) = &mut current[j];
            if *current_line != line {
                (*current_line, *fetched) = (line, sector);
                lines[j] += 1;
            } else if *fetched & sector == 0 {
                *fetched |= sector;
            } else {
                resolved = j;
                break;
            }
        }
        lap_level.push(resolved);
    }
    if rest == scanned {
        rest_lines = lines;
    }
    LapScan {
        period,
        lap_level,
        lines: std::array::from_fn(|j| ring.count / period * lines[j] + rest_lines[j]),
    }
}

fn gcd(a: u64, b: u64) -> u64 {
    if b == 0 {
        a
    } else {
        gcd(b, a % b)
    }
}

fn lcm(a: u64, b: u64) -> u64 {
    a / gcd(a, b) * b
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
        assert_eq!(r.level, CacheKind::Texture);
    }

    #[test]
    fn constant_path_is_separate_from_l1() {
        let cfg = presets::h100_80().config;
        let mut mem = MemorySubsystem::new(&cfg);
        mem.load(0, 0, MemorySpace::Global, LoadFlags::CACHE_ALL, 0);
        let r = mem.load(0, 0, MemorySpace::Constant, LoadFlags::CACHE_ALL, 0);
        assert_ne!(
            r.level,
            CacheKind::ConstL1,
            "constant L1 must be a distinct cache"
        );
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
        assert_eq!(r.level, CacheKind::SL1D, "partner CU must share the sL1d");
        // A CU in a different group does not share.
        let stranger = (0..cfg.chip.num_sms as usize)
            .find(|&cu| layout.sl1d_group_of(cu) != layout.sl1d_group_of(with_partner))
            .unwrap();
        let r2 = mem.load(stranger, 0, MemorySpace::Scalar, LoadFlags::CACHE_ALL, 64);
        assert_ne!(r2.level, CacheKind::SL1D);
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

    /// Every level's instance count follows from the topology alone: L1
    /// = SMs × `amount_per_sm` (NVIDIA); Texture and Readonly = SMs, but
    /// only when not unified with L1; ConstL1 = SMs; CL1.5 = 1; VL1 = CUs
    /// (AMD); sL1d = the sL1d groups with an active CU; L2 = segments;
    /// L3 = 1. Checked on every registry preset, its hostile realization,
    /// an A100 `mig:2g.10gb` slice, and a split-L1 H100 (two L1 instances
    /// per SM, texture and read-only caches of their own) that no preset
    /// plants.
    #[test]
    fn level_instance_counts_follow_the_topology() {
        use crate::scenario::{hostile_variant, Scenario};
        let mut configs = Vec::new();
        for entry in presets::Registry::global().entries() {
            configs.push(entry.gpu().config);
            configs.push(hostile_variant(entry.gpu()).config);
        }
        let mig = Scenario::parse("mig:2g.10gb").unwrap();
        configs.push(mig.apply_config(&presets::a100().config).unwrap());
        let mut split = presets::h100_80().config;
        split.sharing.l1_tex_ro_unified = false;
        for (kind, spec) in &mut split.caches {
            if *kind == CacheKind::L1 {
                spec.amount_per_sm = Some(2);
            }
        }
        configs.push(split);

        for cfg in &configs {
            let mem = MemorySubsystem::new(cfg);
            let sms = cfg.chip.num_sms as usize;
            let nvidia = cfg.vendor == Vendor::Nvidia;
            let separate = !cfg.sharing.l1_tex_ro_unified;
            let sl1d_groups = cfg.cu_layout.as_ref().map_or(0, |layout| {
                (0..sms)
                    .map(|cu| layout.sl1d_group_of(cu))
                    .collect::<std::collections::BTreeSet<_>>()
                    .len()
            });
            for kind in [
                CacheKind::L1,
                CacheKind::Texture,
                CacheKind::Readonly,
                CacheKind::ConstL1,
                CacheKind::ConstL15,
                CacheKind::VL1,
                CacheKind::SL1D,
                CacheKind::L2,
                CacheKind::L3,
            ] {
                let expected = match (kind, cfg.cache(kind)) {
                    (_, None) => 0,
                    (CacheKind::L1, Some(spec)) if nvidia => {
                        sms * spec.amount_per_sm.unwrap_or(1).max(1) as usize
                    }
                    (CacheKind::Texture | CacheKind::Readonly, _) if separate => sms,
                    (CacheKind::ConstL1, _) => sms,
                    (CacheKind::VL1, _) if !nvidia => sms,
                    (CacheKind::SL1D, _) => sl1d_groups,
                    (CacheKind::L2, Some(spec)) => spec.segments.max(1) as usize,
                    (CacheKind::ConstL15 | CacheKind::L3, _) => 1,
                    _ => 0,
                };
                assert_eq!(mem.instances(kind), expected, "{} {kind:?}", cfg.name);
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
