//! Sectored cache model with pluggable replacement, backed by a flat tag
//! store.
//!
//! This is the structure whose performance cliffs every MT4G benchmark
//! exploits:
//!
//! * **capacity**: a p-chase array larger than the cache evicts itself
//!   between the warm-up and the timed pass (size benchmark),
//! * **sectors**: a line is fetched one *fetch-granularity* sector at a
//!   time, so touching an unfetched sector of a present line still misses
//!   (fetch-granularity benchmark),
//! * **line granularity**: strides above the line size touch fewer lines
//!   than the capacity, turning the post-capacity miss plateau back into
//!   hits (cache-line-size benchmark),
//! * **sharing**: two actors filling the *same* physical instance evict
//!   each other; actors on distinct instances do not (amount / physical
//!   sharing benchmarks).
//!
//! Two organisations are provided. The **fully associative** one (what
//! every device preset builds) produces the textbook sharp capacity cliff:
//! a cyclically-chased array one line larger than the cache misses on
//! *every* access. The **set-associative** one reproduces the paper's
//! Fig. 1 boundary behaviour, where sizes just past the capacity see a
//! *mix* of hits and misses because only the overflowing sets thrash.
//!
//! # Replacement policies
//!
//! Eviction is a per-level strategy ([`ReplacementPolicy`], see
//! [`mod@policy`]): exact true-LRU (the default, and the behaviour of the
//! historical engine), tree-PLRU, segmented LRU, seeded random, and a
//! streaming/bypass mode. The policy is chosen at construction
//! ([`SectoredCache::new_with_policy`]); [`SectoredCache::new`] keeps the
//! LRU default so every pre-existing caller and report is untouched.
//!
//! # Storage
//!
//! * **Fully associative** — every load the host walks lands here: scans
//!   that overfill a non-LRU L1, cold chases, raw loads, and replays of
//!   the lap log (the laps and observation pass of a prime/probe
//!   sequence from a flushed hierarchy are charged in closed form
//!   instead, see `hierarchy.rs`). So the data layout matters: a
//!   two-level index (`LineIndex`) maps line addresses to a slot arena.
//!   Its first level is a small open-addressed directory keyed by aligned
//!   64-line pages, with the keys inline; its second is a dense block of
//!   slot ids per page, so a sequential chase streams through host memory
//!   rather than hashing every line into a multi-MB table. Pages are
//!   recycled when their last line leaves. One store (`FaPolicyStore`)
//!   serves every policy: the index and arena, plus the policy's recency
//!   state on the side — an intrusive recency list threaded through the
//!   arena for exact LRU (O(1) lookup, O(1) eviction), two segment lists
//!   for SLRU, a PLRU tree, nothing for random and bypass. The PLRU tree
//!   is built only when it must pick a victim: from a flush a touch or
//!   fill just stamps its slot, the first victim builds in one pass the
//!   bits that touching the slots in stamp order would have left, and the
//!   tree is kept eagerly from then until the next flush. So a level that
//!   a scan never fills (a hostile AMD L2 behind a vL1-sized ring) never
//!   walks its tree. The store's one MRU-line filter remembers the slot
//!   of the last access; a repeat skips the index lookup, and the
//!   policy's recency update too unless the policy is SLRU, the one
//!   policy a repeat touch changes (it promotes a probation line). Index,
//!   arena and PLRU stamps grow lazily (nothing is allocated before the
//!   first access), so huge caches (e.g. a 256 MiB L3) cost memory
//!   proportional to their *resident* lines, and eviction recycles slots
//!   in place.
//! * **Set-associative** — no preset builds one, so it is the plain
//!   per-set model [`reference::PolicyReferenceCache`], the same code the
//!   fully-associative store is tested against and the policy unit
//!   replays as its predictor.
//!
//! The retained [`mod@reference`] implementations plus the differential
//! property tests in `crates/sim/tests/prop.rs` pin both organisations
//! to the naive per-policy oracle behaviour access-for-access.

pub mod policy;
pub mod reference;

pub use policy::ReplacementPolicy;

use crate::device::CacheSpec;
use policy::Xorshift64;
use reference::PolicyReferenceCache;

/// Associativity value that requests the fully-associative organisation.
pub const FULLY_ASSOCIATIVE: u32 = u32::MAX;

/// Result of a cache lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// Line present and the requested sector is valid.
    Hit,
    /// Line present but the requested sector has not been fetched yet.
    SectorMiss,
    /// Line absent entirely.
    LineMiss,
}

impl Access {
    /// Whether the access was served by this cache level.
    pub fn is_hit(self) -> bool {
        matches!(self, Access::Hit)
    }
}

/// Line address marking an empty MRU-line filter. No reachable byte
/// address maps to this line address (it would need 1-byte lines at the
/// very top of the address space), so resident tags never collide with it.
const EMPTY_TAG: u64 = u64::MAX;

/// Sentinel for "no slot" in the index's slot blocks and recency links.
const NIL: u32 = u32::MAX;

/// A fully-associative slot: the line address and its valid-sector
/// bitmap plus intrusive list links (`prev` towards the LRU end, `next`
/// towards the MRU end of the exact-LRU recency list or of an SLRU
/// segment; unused by tree-PLRU, random and bypass).
#[derive(Debug, Clone, Copy)]
struct FaSlot {
    tag: u64,
    valid_sectors: u64,
    prev: u32,
    next: u32,
}

/// Lines per directory page of [`LineIndex`] (a power of two): 8 KiB of
/// address space at a 128 B line, so a sequential chase stays on one
/// directory entry for 64 consecutive lines.
const PAGE_LINES: usize = 64;
/// `log2(PAGE_LINES)`: a line's page number is `line_addr >> PAGE_SHIFT`.
const PAGE_SHIFT: u32 = PAGE_LINES.trailing_zeros();

/// Directory key of an empty bucket. Page numbers are line addresses
/// shifted right by [`PAGE_SHIFT`], so no reachable page has this key.
const EMPTY_PAGE: u64 = u64::MAX;

/// Smallest directory [`LineIndex`] allocates, on its first insert.
const MIN_DIR: usize = 16;

/// One [`LineIndex`] directory bucket. The key sits inline, so a probe
/// never leaves the directory.
#[derive(Debug, Clone, Copy)]
struct PageEntry {
    /// Page number (`line_addr >> PAGE_SHIFT`), or [`EMPTY_PAGE`].
    page: u64,
    /// Block number of the page's slot ids in [`LineIndex::blocks`].
    block: u32,
    /// Indexed lines of the page; the page is recycled when this drops
    /// to zero.
    live: u32,
}

const EMPTY_ENTRY: PageEntry = PageEntry {
    page: EMPTY_PAGE,
    block: 0,
    live: 0,
};

/// Two-level line-address → arena-slot index of the fully-associative
/// store; the slot arena lives beside it in [`FaPolicyStore`], so the
/// index stays policy agnostic.
///
/// The first level is a small open-addressed directory keyed by an
/// aligned page of [`PAGE_LINES`] lines (linear probing, deterministic
/// Fibonacci hashing, backward-shift deletion); the second is a dense
/// block of slot ids per page. Consecutive lines of a page share one
/// directory entry and sit next to each other in their block, so a
/// sequential chase streams through host memory instead of scattering
/// one hash probe per line across a multi-MB table. A page's block is
/// recycled as soon as its last line leaves.
///
/// Construction allocates nothing (caches that are never touched cost
/// nothing), and [`Self::clear`] runs in time proportional to the
/// directory, not to the lines that were resident.
#[derive(Debug, Default)]
struct LineIndex {
    /// Open-addressed page directory: empty until the first insert, then
    /// a power-of-two length, at most half full.
    dir: Vec<PageEntry>,
    /// `64 - log2(dir.len())`: the shift that turns the Fibonacci
    /// product into a bucket.
    shift: u32,
    /// Live pages in `dir`.
    pages: usize,
    /// Slot-id blocks of [`PAGE_LINES`] entries each (`NIL` = line not
    /// indexed), concatenated.
    blocks: Vec<u32>,
    /// Blocks of recycled pages; all their entries are `NIL`.
    free: Vec<u32>,
}

impl LineIndex {
    /// Home bucket of `page`.
    #[inline]
    fn home(&self, page: u64) -> usize {
        (page.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> self.shift) as usize
    }

    /// Bucket holding `page`, if the page has indexed lines.
    #[inline]
    fn find_page(&self, page: u64) -> Option<usize> {
        // Also covers the directory not being allocated yet.
        if self.pages == 0 {
            return None;
        }
        let mask = self.dir.len() - 1;
        let mut pos = self.home(page);
        loop {
            let key = self.dir[pos].page;
            if key == page {
                return Some(pos);
            }
            if key == EMPTY_PAGE {
                return None;
            }
            pos = (pos + 1) & mask;
        }
    }

    /// Position of `line_addr`'s entry within its page's block.
    #[inline]
    fn block_pos(block: u32, line_addr: u64) -> usize {
        block as usize * PAGE_LINES + (line_addr as usize & (PAGE_LINES - 1))
    }

    /// The arena slot of `line_addr`, if indexed.
    #[inline]
    fn find(&self, line_addr: u64) -> Option<u32> {
        let pos = self.find_page(line_addr >> PAGE_SHIFT)?;
        let slot = self.blocks[Self::block_pos(self.dir[pos].block, line_addr)];
        (slot != NIL).then_some(slot)
    }

    /// Indexes `line_addr -> slot` (caller guarantees the line is absent).
    #[inline]
    fn insert(&mut self, line_addr: u64, slot: u32) {
        let page = line_addr >> PAGE_SHIFT;
        let pos = match self.find_page(page) {
            Some(pos) => pos,
            None => self.insert_page(page),
        };
        let entry = &mut self.dir[pos];
        entry.live += 1;
        let at = Self::block_pos(entry.block, line_addr);
        debug_assert_eq!(self.blocks[at], NIL, "inserting a line that is present");
        self.blocks[at] = slot;
    }

    /// Adds an absent `page` with an all-`NIL` block (recycled or fresh)
    /// and returns its bucket. Doubles the directory first when it would
    /// pass half full; the keys sit inline, so a rehash never reads the
    /// blocks or the slot arena.
    fn insert_page(&mut self, page: u64) -> usize {
        if (self.pages + 1) * 2 > self.dir.len() {
            let len = (self.dir.len() * 2).max(MIN_DIR);
            let old = std::mem::replace(&mut self.dir, vec![EMPTY_ENTRY; len]);
            self.shift = 64 - len.trailing_zeros();
            for entry in old.into_iter().filter(|e| e.page != EMPTY_PAGE) {
                let pos = self.vacant_bucket(entry.page);
                self.dir[pos] = entry;
            }
        }
        let block = self.free.pop().unwrap_or_else(|| {
            let block = (self.blocks.len() / PAGE_LINES) as u32;
            self.blocks.resize(self.blocks.len() + PAGE_LINES, NIL);
            block
        });
        let pos = self.vacant_bucket(page);
        self.dir[pos] = PageEntry {
            page,
            block,
            live: 0,
        };
        self.pages += 1;
        pos
    }

    /// First empty bucket on `page`'s probe path.
    fn vacant_bucket(&self, page: u64) -> usize {
        let mask = self.dir.len() - 1;
        let mut pos = self.home(page);
        while self.dir[pos].page != EMPTY_PAGE {
            pos = (pos + 1) & mask;
        }
        pos
    }

    /// Un-indexes `line_addr` (caller guarantees it is present). When the
    /// page's last line leaves, its block is recycled and its bucket is
    /// deleted with backward shift, so probe chains stay gap-free without
    /// tombstones.
    #[inline]
    fn remove(&mut self, line_addr: u64) {
        let pos = self
            .find_page(line_addr >> PAGE_SHIFT)
            .expect("removing a line that is not indexed");
        let entry = &mut self.dir[pos];
        self.blocks[Self::block_pos(entry.block, line_addr)] = NIL;
        entry.live -= 1;
        if entry.live > 0 {
            return;
        }
        self.free.push(entry.block);
        self.pages -= 1;
        let mask = self.dir.len() - 1;
        let mut hole = pos;
        let mut probe = pos;
        loop {
            probe = (probe + 1) & mask;
            let entry = self.dir[probe];
            if entry.page == EMPTY_PAGE {
                break;
            }
            // The entry can fill the hole iff the hole lies on its probe
            // path, i.e. dist(home, hole) <= dist(home, probe).
            let home = self.home(entry.page);
            if hole.wrapping_sub(home) & mask <= probe.wrapping_sub(home) & mask {
                self.dir[hole] = entry;
                hole = probe;
            }
        }
        self.dir[hole] = EMPTY_ENTRY;
    }

    /// Un-indexes everything. Touches the directory only: the blocks are
    /// truncated wholesale (keeping their capacity) and refilled with
    /// `NIL` as pages come back.
    fn clear(&mut self) {
        // With no live pages every bucket is already empty.
        if self.pages > 0 {
            self.dir.fill(EMPTY_ENTRY);
            self.pages = 0;
        }
        self.blocks.clear();
        self.free.clear();
    }
}

// --- the packed PLRU tree ---

/// Points every ancestor of `way`'s leaf away from it (a PLRU touch).
/// `bits` holds one bit per internal node of the heap-numbered tree over
/// `padded` leaves (node `n`'s bit at index `n - 1`; bit set = "victim
/// walk goes right").
#[inline]
fn plru_touch(bits: &mut [u64], padded: u64, way: u64) {
    let mut node = padded + way;
    while node > 1 {
        let parent = node >> 1;
        let idx = (parent - 1) as usize;
        let bit = 1u64 << (idx & 63);
        if node & 1 == 0 {
            bits[idx >> 6] |= bit; // touched the left child: point right
        } else {
            bits[idx >> 6] &= !bit; // touched the right child: point left
        }
        node = parent;
    }
}

/// Walks the PLRU pointer bits down to the victim leaf. Leaves
/// `valid..padded` do not exist (non-power-of-two way counts); the walk
/// only descends right when the right subtree contains a valid leaf —
/// sound because fills occupy ways densely from 0.
#[inline]
fn plru_victim(bits: &[u64], padded: u64, valid: u64) -> u64 {
    let mut node = 1u64;
    let mut lo = 0u64;
    let mut span = padded;
    while span > 1 {
        span >>= 1;
        let idx = (node - 1) as usize;
        let right = (bits[idx >> 6] >> (idx & 63)) & 1 == 1 && lo + span < valid;
        node = (node << 1) | right as u64;
        if right {
            lo += span;
        }
    }
    lo
}

/// Bit-words a built PLRU tree over `padded` leaves keeps: one bit per
/// internal node, and at least one word, so a built tree is never empty
/// (a 1-leaf tree has no internal nodes).
#[inline]
fn plru_words(padded: u64) -> usize {
    ((padded - 1) as usize).div_ceil(64).max(1)
}

/// Builds, in one bottom-up pass, the pointer bits that touching the
/// leaves of a cleared tree over `padded` leaves in the order of their
/// `stamps` would have left: a node points right iff the newest stamp
/// under it lies in its left subtree. Leaf `i` carries `stamps[i]`;
/// leaves past the slice (padding) and stamp 0 count as never touched,
/// which leaves their nodes pointing left, as on a cleared tree.
/// Consumes `stamps`: each level reduces them in place to the newest
/// stamp under each node.
#[cold]
fn plru_build(padded: u64, stamps: &mut [u64]) -> Box<[u64]> {
    let mut bits = vec![0; plru_words(padded)];
    // Nodes `width..2 * width` are one level; entries `..live` of
    // `stamps` hold their newest stamps, the rest are 0.
    let mut width = padded as usize;
    let mut live = stamps.len();
    while width > 1 {
        let half = width / 2;
        for i in 0..live.div_ceil(2) {
            let left = stamps[2 * i];
            let right = if 2 * i + 1 < live {
                stamps[2 * i + 1]
            } else {
                0
            };
            if left > right {
                let idx = half + i - 1;
                bits[idx >> 6] |= 1 << (idx & 63);
            }
            stamps[i] = left.max(right);
        }
        live = live.div_ceil(2);
        width = half;
    }
    bits.into_boxed_slice()
}

/// A tree-PLRU over arena slots whose tree exists only once a victim is
/// needed (the tree's leaves are the capacity rounded up to a power of
/// two). From a flush until the first victim, a touch or fill only
/// stamps its slot from `clock`; the first victim builds the tree from
/// the stamps ([`plru_build`]), and from then on every touch and fill
/// walks it ([`plru_touch`]) until the next flush returns to stamping.
/// The bits are a boxed slice, so [`FaState`] stays the size of its SLRU
/// arm and no other policy's cache grows.
#[derive(Debug, Default)]
struct LazyPlru {
    /// Pointer bits of the built tree; empty while stamping.
    bits: Box<[u64]>,
    /// While stamping: the stamp of each slot's last touch or fill,
    /// newest highest; empty once built.
    stamps: Vec<u64>,
    /// The last stamp handed out since the flush.
    clock: u64,
}

impl LazyPlru {
    /// A touch or fill of `slot` in a tree over `capacity` slots.
    #[inline]
    fn touch(&mut self, capacity: u64, slot: u32) {
        if self.bits.is_empty() {
            self.clock += 1;
            match self.stamps.get_mut(slot as usize) {
                Some(stamp) => *stamp = self.clock,
                None => {
                    // Before the first victim every fill takes a new slot.
                    debug_assert_eq!(slot as usize, self.stamps.len());
                    self.stamps.push(self.clock);
                }
            }
        } else {
            plru_touch(&mut self.bits, capacity.next_power_of_two(), slot as u64);
        }
    }

    /// The victim among `capacity` full slots; the first since the flush
    /// builds the tree.
    fn victim(&mut self, capacity: u64) -> u32 {
        let padded = capacity.next_power_of_two();
        if self.bits.is_empty() {
            self.bits = plru_build(padded, &mut self.stamps);
            self.stamps.clear();
        }
        plru_victim(&self.bits, padded, capacity) as u32
    }

    /// Returns to stamping; the next victim builds a new tree.
    ///
    /// Out of line: a kernel launch flushes every cache instance, and
    /// with the tree's drop inlined `SectoredCache::flush` grew past
    /// what the hierarchy's flush loop inlines, which made an H100-80
    /// `flush_caches` (no tree-PLRU level) take 2.5 µs instead of 2.0
    /// on a 2-vCPU x86-64 host.
    #[cold]
    #[inline(never)]
    fn flush(&mut self) {
        self.bits = Box::default();
        self.stamps.clear();
        self.clock = 0;
    }
}

// --- the fully-associative store ---

/// Head/tail of an intrusive list threaded through the slot arena.
#[derive(Debug, Clone, Copy)]
struct ListEnds {
    head: u32,
    tail: u32,
}

const EMPTY_LIST: ListEnds = ListEnds {
    head: NIL,
    tail: NIL,
};

/// Unlinks `slot` from the list owning it.
#[inline]
fn list_unlink(slots: &mut [FaSlot], ends: &mut ListEnds, slot: u32) {
    let (prev, next) = {
        let s = &slots[slot as usize];
        (s.prev, s.next)
    };
    if prev == NIL {
        ends.head = next;
    } else {
        slots[prev as usize].next = next;
    }
    if next == NIL {
        ends.tail = prev;
    } else {
        slots[next as usize].prev = prev;
    }
}

/// Appends `slot` at the MRU (tail) end of the list.
#[inline]
fn list_push_tail(slots: &mut [FaSlot], ends: &mut ListEnds, slot: u32) {
    let s = &mut slots[slot as usize];
    s.prev = ends.tail;
    s.next = NIL;
    if ends.tail == NIL {
        ends.head = slot;
    } else {
        slots[ends.tail as usize].next = slot;
    }
    ends.tail = slot;
}

/// Per-policy recency state of [`FaPolicyStore`].
#[derive(Debug)]
enum FaState {
    /// Exact LRU: one intrusive recency list (head = LRU end, the victim).
    Lru(ListEnds),
    /// Tree-PLRU over the whole arena (leaf = arena index), built at
    /// the first victim after a flush.
    Plru(LazyPlru),
    /// Segmented LRU: probation + protected intrusive lists (head = LRU
    /// end) and a segment-membership bitvector over arena indices.
    Slru {
        prob: ListEnds,
        prot: ListEnds,
        prot_len: u64,
        prot_cap: u64,
        seg: Vec<u64>,
    },
    /// Seeded uniform-random victim over arena indices.
    Random(Xorshift64),
    /// Streaming: never evicts; a full cache stops allocating.
    Bypass,
}

/// The fully-associative organisation under every policy: a
/// [`LineIndex`] + slot arena with the policy's recency state on the
/// side. Eviction replaces the victim's arena slot in place, so arena
/// indices are stable identities for the recency structures.
#[derive(Debug)]
struct FaPolicyStore {
    capacity_lines: u64,
    index: LineIndex,
    /// Slot arena; grows lazily to `capacity_lines`, then recycles.
    slots: Vec<FaSlot>,
    state: FaState,
    /// MRU line filter: the line address and arena slot of the last
    /// access. A repeat skips the index lookup, and under every policy
    /// but SLRU the `touch` too (see [`Self::access`]). The slot tag is
    /// re-verified, so in-place eviction recycling falls through safely.
    /// `EMPTY_TAG` = invalid.
    mru_line: u64,
    mru_slot: u32,
}

impl FaPolicyStore {
    fn new(capacity_lines: u64, policy: ReplacementPolicy) -> Self {
        let state = match policy {
            ReplacementPolicy::Lru => FaState::Lru(EMPTY_LIST),
            ReplacementPolicy::TreePlru => FaState::Plru(LazyPlru::default()),
            ReplacementPolicy::Slru => FaState::Slru {
                prob: EMPTY_LIST,
                prot: EMPTY_LIST,
                prot_len: 0,
                prot_cap: capacity_lines / 2,
                seg: vec![0; capacity_lines.div_ceil(64) as usize],
            },
            ReplacementPolicy::Random => FaState::Random(Xorshift64::for_geometry(capacity_lines)),
            ReplacementPolicy::Bypass => FaState::Bypass,
        };
        FaPolicyStore {
            capacity_lines,
            index: LineIndex::default(),
            slots: Vec::new(),
            state,
            mru_line: EMPTY_TAG,
            mru_slot: 0,
        }
    }

    /// Recency update for a lookup that found `slot` resident.
    #[inline]
    fn touch(&mut self, slot: u32) {
        match &mut self.state {
            FaState::Lru(list) => {
                if list.tail != slot {
                    list_unlink(&mut self.slots, list, slot);
                    list_push_tail(&mut self.slots, list, slot);
                }
            }
            FaState::Plru(tree) => tree.touch(self.capacity_lines, slot),
            FaState::Slru {
                prob,
                prot,
                prot_len,
                prot_cap,
                seg,
            } => {
                let in_prot = (seg[slot as usize / 64] >> (slot % 64)) & 1 == 1;
                if in_prot {
                    list_unlink(&mut self.slots, prot, slot);
                    list_push_tail(&mut self.slots, prot, slot);
                } else if *prot_cap > 0 {
                    // Promote to protected-MRU; on overflow demote the
                    // protected-LRU back to probation as its MRU.
                    list_unlink(&mut self.slots, prob, slot);
                    list_push_tail(&mut self.slots, prot, slot);
                    seg[slot as usize / 64] |= 1 << (slot % 64);
                    *prot_len += 1;
                    if *prot_len > *prot_cap {
                        let demote = prot.head;
                        debug_assert_ne!(demote, slot, "overflow implies >= 2 entries");
                        list_unlink(&mut self.slots, prot, demote);
                        seg[demote as usize / 64] &= !(1 << (demote % 64));
                        *prot_len -= 1;
                        list_push_tail(&mut self.slots, prob, demote);
                    }
                } else {
                    list_unlink(&mut self.slots, prob, slot);
                    list_push_tail(&mut self.slots, prob, slot);
                }
            }
            FaState::Random(_) | FaState::Bypass => {}
        }
    }

    /// Recency update for a line filled into `slot`.
    #[inline]
    fn on_fill(&mut self, slot: u32) {
        match &mut self.state {
            FaState::Lru(list) => list_push_tail(&mut self.slots, list, slot),
            FaState::Plru(tree) => tree.touch(self.capacity_lines, slot),
            FaState::Slru { prob, seg, .. } => {
                // New lines enter probation at the MRU end.
                seg[slot as usize / 64] &= !(1 << (slot % 64));
                list_push_tail(&mut self.slots, prob, slot);
            }
            FaState::Random(_) | FaState::Bypass => {}
        }
    }

    /// One access: the MRU-line filter, then the full path.
    ///
    /// A repeat access of the most recent line skips the index lookup,
    /// and runs `touch` only under SLRU, whose second touch promotes a
    /// probation line to protected. Under every other policy a repeat
    /// touch changes nothing: the line is already the tail of the exact
    /// LRU list, the newest stamp of an unbuilt PLRU tree, or the leaf a
    /// built tree's path already points away from; random and bypass
    /// keep no recency.
    #[inline]
    fn access(&mut self, line_addr: u64, sector_bit: u64) -> Access {
        if line_addr == self.mru_line {
            if let Some(s) = self.slots.get(self.mru_slot as usize) {
                if s.tag == line_addr {
                    let slot = self.mru_slot;
                    if let FaState::Slru { .. } = self.state {
                        self.touch(slot);
                    }
                    let s = &mut self.slots[slot as usize];
                    let had = s.valid_sectors & sector_bit != 0;
                    s.valid_sectors |= sector_bit;
                    return if had { Access::Hit } else { Access::SectorMiss };
                }
            }
        }
        self.access_cold(line_addr, sector_bit)
    }

    fn access_cold(&mut self, line_addr: u64, sector_bit: u64) -> Access {
        if let Some(slot) = self.index.find(line_addr) {
            self.touch(slot);
            self.mru_line = line_addr;
            self.mru_slot = slot;
            let s = &mut self.slots[slot as usize];
            if s.valid_sectors & sector_bit != 0 {
                Access::Hit
            } else {
                s.valid_sectors |= sector_bit;
                Access::SectorMiss
            }
        } else if (self.slots.len() as u64) < self.capacity_lines {
            let slot = self.slots.len() as u32;
            self.slots.push(FaSlot {
                tag: line_addr,
                valid_sectors: sector_bit,
                prev: NIL,
                next: NIL,
            });
            self.index.insert(line_addr, slot);
            self.on_fill(slot);
            self.mru_line = line_addr;
            self.mru_slot = slot;
            Access::LineMiss
        } else {
            let victim = match &mut self.state {
                FaState::Bypass => return Access::LineMiss, // no allocation
                FaState::Lru(list) => {
                    let v = list.head;
                    list_unlink(&mut self.slots, list, v);
                    v
                }
                FaState::Plru(tree) => tree.victim(self.capacity_lines),
                FaState::Random(rng) => rng.below(self.capacity_lines) as u32,
                FaState::Slru {
                    prob,
                    prot,
                    prot_len,
                    seg,
                    ..
                } => {
                    // Probation-LRU first; protected is capped below the
                    // capacity so probation is only empty when cap == 0.
                    let v = if prob.head != NIL {
                        prob.head
                    } else {
                        prot.head
                    };
                    if (seg[v as usize / 64] >> (v % 64)) & 1 == 1 {
                        list_unlink(&mut self.slots, prot, v);
                        seg[v as usize / 64] &= !(1 << (v % 64));
                        *prot_len -= 1;
                    } else {
                        list_unlink(&mut self.slots, prob, v);
                    }
                    v
                }
            };
            let victim_tag = self.slots[victim as usize].tag;
            self.index.remove(victim_tag);
            let s = &mut self.slots[victim as usize];
            s.tag = line_addr;
            s.valid_sectors = sector_bit;
            self.index.insert(line_addr, victim);
            self.on_fill(victim);
            self.mru_line = line_addr;
            self.mru_slot = victim;
            Access::LineMiss
        }
    }

    fn probe(&self, line_addr: u64, sector_bit: u64) -> bool {
        self.index
            .find(line_addr)
            .map(|slot| self.slots[slot as usize].valid_sectors & sector_bit != 0)
            .unwrap_or(false)
    }

    fn flush(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.mru_line = EMPTY_TAG;
        match &mut self.state {
            FaState::Lru(list) => *list = EMPTY_LIST,
            FaState::Plru(tree) => tree.flush(),
            FaState::Slru {
                prob,
                prot,
                prot_len,
                seg,
                ..
            } => {
                *prob = EMPTY_LIST;
                *prot = EMPTY_LIST;
                *prot_len = 0;
                seg.iter_mut().for_each(|w| *w = 0);
            }
            // The random victim stream deliberately survives a flush.
            FaState::Random(_) | FaState::Bypass => {}
        }
    }
}

#[derive(Debug)]
enum Organization {
    SetAssociative(PolicyReferenceCache),
    FullyAssociative(FaPolicyStore),
}

/// A sectored cache with a pluggable replacement policy (see module docs
/// for the organisations and the storage behind them).
#[derive(Debug)]
pub struct SectoredCache {
    line_size: u64,
    sector_size: u64,
    sectors_per_line: u32,
    /// `Some((line_shift, line_mask, sector_shift))` when both the line
    /// and sector sizes are powers of two (every modeled geometry): the
    /// address split becomes shift/mask instead of two u64 divisions —
    /// the dominant per-access cost on the hot path.
    split: Option<(u32, u64, u32)>,
    policy: ReplacementPolicy,
    org: Organization,
}

impl SectoredCache {
    /// Builds a fully-associative cache of a [`CacheSpec`]'s geometry
    /// (every modeled level is fully associative) running `policy`.
    pub fn from_spec_with_policy(spec: &CacheSpec, policy: ReplacementPolicy) -> Self {
        Self::new_with_policy(
            spec.size,
            spec.line_size as u64,
            spec.fetch_granularity as u64,
            FULLY_ASSOCIATIVE,
            policy,
        )
    }

    /// Builds an exact-LRU cache with explicit geometry. `size` must be a
    /// multiple of `line_size`, and `sector_size` must divide `line_size`.
    /// If `ways` does not divide the line count, the largest divisor below
    /// it is used (capacity is the invariant MT4G measures).
    pub fn new(size: u64, line_size: u64, sector_size: u64, ways: u32) -> Self {
        Self::new_with_policy(size, line_size, sector_size, ways, ReplacementPolicy::Lru)
    }

    /// [`Self::new`] with an explicit replacement policy.
    pub fn new_with_policy(
        size: u64,
        line_size: u64,
        sector_size: u64,
        ways: u32,
        policy: ReplacementPolicy,
    ) -> Self {
        assert!(size > 0 && line_size > 0 && sector_size > 0);
        assert_eq!(
            size % line_size,
            0,
            "cache size {size} must be a multiple of the line size {line_size}"
        );
        assert_eq!(
            line_size % sector_size,
            0,
            "line size {line_size} must be a multiple of the sector size {sector_size}"
        );
        let sectors_per_line = (line_size / sector_size) as u32;
        assert!(
            sectors_per_line <= 64,
            "at most 64 sectors per line supported"
        );
        let total_lines = size / line_size;
        let org = if ways as u64 >= total_lines {
            Organization::FullyAssociative(FaPolicyStore::new(total_lines, policy))
        } else {
            Organization::SetAssociative(PolicyReferenceCache::new(
                size,
                line_size,
                sector_size,
                ways,
                policy,
            ))
        };
        let split = (line_size.is_power_of_two() && sector_size.is_power_of_two()).then(|| {
            (
                line_size.trailing_zeros(),
                line_size - 1,
                sector_size.trailing_zeros(),
            )
        });
        SectoredCache {
            line_size,
            sector_size,
            sectors_per_line,
            split,
            policy,
            org,
        }
    }

    /// Splits a byte address into (line address, sector bit).
    #[inline(always)]
    pub(crate) fn split_addr(&self, addr: u64) -> (u64, u64) {
        match self.split {
            Some((line_shift, line_mask, sector_shift)) => (
                addr >> line_shift,
                1u64 << ((addr & line_mask) >> sector_shift),
            ),
            None => (
                addr / self.line_size,
                1u64 << ((addr % self.line_size) / self.sector_size),
            ),
        }
    }

    /// The replacement policy this cache was built with.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        match &self.org {
            Organization::SetAssociative(sa) => sa.num_sets() * sa.ways() as u64 * self.line_size,
            Organization::FullyAssociative(fa) => fa.capacity_lines * self.line_size,
        }
    }

    /// Effective associativity (the line count when fully associative).
    pub fn ways(&self) -> u32 {
        match &self.org {
            Organization::SetAssociative(sa) => sa.ways(),
            Organization::FullyAssociative(fa) => fa.capacity_lines.min(u32::MAX as u64) as u32,
        }
    }

    /// Number of sets (1 when fully associative).
    pub fn num_sets(&self) -> u64 {
        match &self.org {
            Organization::SetAssociative(sa) => sa.num_sets(),
            Organization::FullyAssociative(_) => 1,
        }
    }

    /// Invalidates all contents. Policy recency state resets with the
    /// contents; the random victim stream does not.
    pub fn flush(&mut self) {
        match &mut self.org {
            Organization::SetAssociative(sa) => sa.flush(),
            Organization::FullyAssociative(fa) => fa.flush(),
        }
    }

    /// Performs an access at byte address `addr`, allocating on miss.
    ///
    /// A [`Access::LineMiss`] allocates the line (evicting the policy's
    /// victim if full — or not allocating at all under bypass) and fetches
    /// exactly the sector containing `addr` — one fetch transaction. A
    /// [`Access::SectorMiss`] fetches the missing sector into the
    /// already-present line.
    #[inline]
    pub fn access(&mut self, addr: u64) -> Access {
        let (line_addr, sector_bit) = self.split_addr(addr);
        match &mut self.org {
            Organization::SetAssociative(sa) => sa.access_line(line_addr, sector_bit),
            Organization::FullyAssociative(fa) => fa.access(line_addr, sector_bit),
        }
    }

    /// Peeks whether `addr`'s sector is resident without touching recency
    /// state or allocating.
    pub fn probe(&self, addr: u64) -> bool {
        let (line_addr, sector_bit) = self.split_addr(addr);
        match &self.org {
            Organization::SetAssociative(sa) => sa.probe_line(line_addr, sector_bit),
            Organization::FullyAssociative(fa) => fa.probe(line_addr, sector_bit),
        }
    }

    /// Lines resident in a fully-associative cache: its slot arena only
    /// grows until the cache is full, and an eviction re-uses its slot.
    #[cfg(test)]
    pub(crate) fn resident_lines(&self) -> u64 {
        match &self.org {
            Organization::FullyAssociative(fa) => fa.slots.len() as u64,
            Organization::SetAssociative(_) => unimplemented!("no preset builds one"),
        }
    }

    /// Sector (fetch-transaction) size in bytes.
    pub fn sector_size(&self) -> u64 {
        self.sector_size
    }

    /// Line size in bytes.
    pub fn line_size(&self) -> u64 {
        self.line_size
    }

    /// Sectors per line.
    pub fn sectors_per_line(&self) -> u32 {
        self.sectors_per_line
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1 KiB, 64 B lines, 32 B sectors, fully associative.
    fn fa_cache() -> SectoredCache {
        SectoredCache::new(1024, 64, 32, FULLY_ASSOCIATIVE)
    }

    /// Same geometry, 4-way set associative (4 sets).
    fn sa_cache() -> SectoredCache {
        SectoredCache::new(1024, 64, 32, 4)
    }

    #[test]
    fn geometry_is_derived_correctly() {
        let c = sa_cache();
        assert_eq!(c.capacity(), 1024);
        assert_eq!(c.num_sets(), 4);
        assert_eq!(c.ways(), 4);
        assert_eq!(c.sectors_per_line(), 2);
        let f = fa_cache();
        assert_eq!(f.capacity(), 1024);
        assert_eq!(f.num_sets(), 1);
        assert_eq!(f.ways(), 16);
    }

    #[test]
    fn associativity_shrinks_to_divisor() {
        // 3 lines total with requested 2 ways -> falls back to 1 way.
        let c = SectoredCache::new(192, 64, 64, 2);
        assert_eq!(c.ways(), 1);
        assert_eq!(c.capacity(), 192);
    }

    #[test]
    fn non_power_of_two_set_count_still_maps_all_lines() {
        // 6 lines, 2 ways -> 3 sets: a set count that is no bitmask.
        let mut c = SectoredCache::new(384, 64, 64, 2);
        assert_eq!(c.num_sets(), 3);
        for i in 0..6u64 {
            assert_eq!(c.access(i * 64), Access::LineMiss);
        }
        for i in 0..6u64 {
            assert_eq!(c.access(i * 64), Access::Hit, "line {i}");
        }
    }

    #[test]
    fn first_access_misses_second_hits() {
        for mut c in [fa_cache(), sa_cache()] {
            assert_eq!(c.access(0), Access::LineMiss);
            assert_eq!(c.access(0), Access::Hit);
            assert_eq!(c.access(4), Access::Hit); // same sector
        }
    }

    #[test]
    fn sector_miss_on_untouched_sector_of_present_line() {
        for mut c in [fa_cache(), sa_cache()] {
            assert_eq!(c.access(0), Access::LineMiss);
            // Same line (64 B), other sector (offset 32).
            assert_eq!(c.access(32), Access::SectorMiss);
            assert_eq!(c.access(32), Access::Hit);
        }
    }

    #[test]
    fn sequential_array_within_capacity_hits_after_warmup() {
        for mut c in [fa_cache(), sa_cache()] {
            let addrs: Vec<u64> = (0..1024 / 32).map(|i| i * 32).collect();
            for &a in &addrs {
                c.access(a); // warm-up
            }
            for &a in &addrs {
                assert_eq!(c.access(a), Access::Hit, "addr {a}");
            }
        }
    }

    #[test]
    fn fully_associative_array_beyond_capacity_misses_every_access() {
        // Classic LRU thrashing: array of capacity + one line, accessed
        // cyclically, misses on every single access — the sharp cliff the
        // size benchmark keys on.
        let mut c = fa_cache();
        let n_sectors = (1024 + 64) / 32;
        let addrs: Vec<u64> = (0..n_sectors).map(|i| i * 32).collect();
        for &a in &addrs {
            c.access(a); // warm-up
        }
        for &a in &addrs {
            assert!(!c.access(a).is_hit(), "addr {a} unexpectedly hit");
        }
    }

    #[test]
    fn set_associative_boundary_mixes_hits_and_misses() {
        // The paper's Fig. 1 middle case: just past the capacity, only the
        // overflowing sets thrash; the rest still hit.
        let mut c = sa_cache();
        let n_sectors = (1024 + 64) / 32;
        let addrs: Vec<u64> = (0..n_sectors).map(|i| i * 32).collect();
        for &a in &addrs {
            c.access(a);
        }
        let hits = addrs.iter().filter(|&&a| c.access(a).is_hit()).count();
        assert!(hits > 0, "non-overflowing sets should hit");
        assert!(hits < addrs.len(), "the overflowing set should thrash");

        // `fig1`'s exact per-index patterns: a 2-way, 8-line cache (4
        // sets) chased over 8, 9 and 10 lines after one warm-up lap.
        for (lines, want) in [(8u64, "hhhhhhhh"), (9, "MhhhMhhhM"), (10, "MMhhMMhhMM")] {
            let mut c = SectoredCache::new(512, 64, 64, 2);
            for i in 0..lines {
                c.access(i * 64);
            }
            let got: String = (0..lines)
                .map(|i| if c.access(i * 64).is_hit() { 'h' } else { 'M' })
                .collect();
            assert_eq!(got, want, "{lines}-line chase");
        }
    }

    #[test]
    fn stride_above_line_size_defeats_capacity_miss() {
        // Array of 2x capacity but stride 2x line size: only half the lines
        // are touched, which fits -> hits after warm-up. This is the
        // premise of the cache-line-size benchmark (Sec. IV-E).
        let mut c = fa_cache();
        let stride = 128u64; // 2 * line
        let array = 2048u64; // 2 * capacity
        let addrs: Vec<u64> = (0..array / stride).map(|i| i * stride).collect();
        for &a in &addrs {
            c.access(a);
        }
        for &a in &addrs {
            assert!(c.access(a).is_hit());
        }
    }

    #[test]
    fn flush_invalidates_everything() {
        for mut c in [fa_cache(), sa_cache()] {
            c.access(0);
            assert!(c.probe(0));
            c.flush();
            assert!(!c.probe(0));
            assert_eq!(c.access(0), Access::LineMiss);
        }
    }

    #[test]
    fn cold_cache_stride_classification() {
        // The fetch-granularity benchmark's signal: on a cold cache, stride
        // below the sector size produces a mix of hits and misses; stride
        // at/above it produces only misses.
        let run = |stride: u64| -> (usize, usize) {
            let mut c = fa_cache();
            let hits = (0..16).filter(|i| c.access(i * stride).is_hit()).count();
            (hits, 16 - hits)
        };
        let (h4, m4) = run(4);
        assert!(h4 > 0 && m4 > 0, "stride 4 should mix hits and misses");
        let (h32, m32) = run(32);
        assert_eq!(h32, 0, "stride = sector size -> all misses");
        assert_eq!(m32, 16);
        let (h64, _) = run(64);
        assert_eq!(h64, 0, "stride above sector size -> all misses");
    }

    #[test]
    fn two_interleaved_arrays_evict_each_other() {
        // Amount/sharing benchmark core: arrays A and B each nearly the
        // capacity; warming B after A evicts A.
        let mut c = fa_cache();
        let a_base = 0u64;
        let b_base = 1 << 20;
        let sectors = 1024 / 32;
        for i in 0..sectors {
            c.access(a_base + i * 32);
        }
        for i in 0..sectors {
            c.access(b_base + i * 32);
        }
        for i in 0..sectors {
            assert!(!c.access(a_base + i * 32).is_hit());
        }
    }

    #[test]
    fn lru_prefers_evicting_oldest() {
        // 2-line fully-associative cache.
        let mut c = SectoredCache::new(128, 64, 64, FULLY_ASSOCIATIVE);
        c.access(0); // line 0
        c.access(64); // line 1
        c.access(0); // refresh line 0
        c.access(128); // evicts line 1 (LRU), not line 0
        assert!(c.probe(0));
        assert!(!c.probe(64));
        assert!(c.probe(128));
    }

    #[test]
    fn fa_capacity_is_respected_exactly() {
        let mut c = fa_cache(); // 16 lines
        for i in 0..16u64 {
            c.access(i * 64);
        }
        for i in 0..16u64 {
            assert!(c.probe(i * 64), "line {i} must be resident");
        }
        c.access(16 * 64); // one over
        let resident = (0..17u64).filter(|&i| c.probe(i * 64)).count();
        assert_eq!(resident, 16);
    }

    #[test]
    fn fa_index_survives_growth_and_eviction_churn() {
        // Enough distinct lines to force several index doublings, then a
        // thrashing pass to exercise backward-shift deletion.
        let mut c = SectoredCache::new(1 << 16, 64, 64, FULLY_ASSOCIATIVE); // 1024 lines
        for round in 0..3u64 {
            for i in 0..2048u64 {
                c.access((round * 2048 + i) * 64);
            }
        }
        // The last 1024 distinct lines are resident, nothing else.
        let resident = (0..3 * 2048u64).filter(|&i| c.probe(i * 64)).count();
        assert_eq!(resident, 1024);
        for i in (3 * 2048 - 1024)..(3 * 2048u64) {
            assert!(c.probe(i * 64), "line {i} must be resident");
        }
    }

    #[test]
    #[should_panic(expected = "multiple of the line size")]
    fn bad_geometry_panics() {
        SectoredCache::new(1000, 64, 32, 4);
    }

    #[test]
    fn policy_is_recorded_and_defaults_to_lru() {
        assert_eq!(fa_cache().policy(), ReplacementPolicy::Lru);
        let c = SectoredCache::new_with_policy(1024, 64, 32, 4, ReplacementPolicy::TreePlru);
        assert_eq!(c.policy(), ReplacementPolicy::TreePlru);
    }

    #[test]
    fn sixteen_way_set_is_exact_lru() {
        // 16 ways, one set: behaves exactly like the FA LRU cache.
        let mut sa = SectoredCache::new(2048, 64, 64, 16);
        let mut fa = SectoredCache::new(1024, 64, 64, FULLY_ASSOCIATIVE);
        assert_eq!(sa.num_sets(), 2);
        assert_eq!(sa.ways(), 16);
        // Drive only even lines so everything maps to set 0 of `sa` —
        // a single 16-way set mirroring the 16-line FA cache.
        for i in 0..64u64 {
            let line = (i * 7 + i / 3) % 40 * 2;
            let got = sa.access(line * 64);
            let want = fa.access(line / 2 * 64);
            assert_eq!(got, want, "step {i} line {line}");
        }
    }

    #[test]
    fn bypass_stops_allocating_once_full() {
        let mut c = SectoredCache::new_with_policy(
            128,
            64,
            64,
            FULLY_ASSOCIATIVE,
            ReplacementPolicy::Bypass,
        );
        assert_eq!(c.access(0), Access::LineMiss);
        assert_eq!(c.access(64), Access::LineMiss);
        // Full: new lines stream through without evicting anything.
        for _ in 0..3 {
            assert_eq!(c.access(128), Access::LineMiss);
        }
        assert!(c.probe(0) && c.probe(64) && !c.probe(128));
        // Residents keep hitting; a flush frees the ways again.
        assert_eq!(c.access(0), Access::Hit);
        c.flush();
        assert_eq!(c.access(128), Access::LineMiss);
        assert_eq!(c.access(128), Access::Hit);
    }

    #[test]
    fn slru_protects_reaccessed_lines_from_a_scan() {
        // 4-line FA SLRU (protected cap 2): re-reference two lines, then
        // stream a scan longer than the cache — the protected pair
        // survives where true LRU would have evicted everything.
        let mut c =
            SectoredCache::new_with_policy(256, 64, 64, FULLY_ASSOCIATIVE, ReplacementPolicy::Slru);
        c.access(0);
        c.access(64);
        c.access(0); // promote line 0
        c.access(64); // promote line 1
        for i in 2..10u64 {
            c.access(i * 64); // scan: churns probation only
        }
        assert!(c.probe(0), "protected line 0 must survive the scan");
        assert!(c.probe(64), "protected line 1 must survive the scan");
    }

    /// The PLRU tree built from stamps against one kept with `plru_touch`
    /// on every access since the flush, over capacities 1–300: random
    /// fills and hits (repeats of the last line included) until the
    /// store is full, then misses and hits, three flushes apart. The
    /// first victim after each flush must be the eager tree's, and the
    /// built tree must hold the eager bit on every node above a real leaf
    /// (nodes over padding alone are never read); every later victim must
    /// match too.
    #[test]
    fn lazy_plru_tree_matches_an_eager_one() {
        let mut rng = Xorshift64::for_geometry(0x1a2e);
        let mut next_line = 0u64;
        for capacity in 1..=300u64 {
            let padded = capacity.next_power_of_two();
            let mut store = FaPolicyStore::new(capacity, ReplacementPolicy::TreePlru);
            for _ in 0..3 {
                let mut eager = vec![0u64; plru_words(padded)];
                let mut last = None;
                // Accesses, on both trees, a new line one time in
                // `miss_one_in` (never if 0) or when the store is empty,
                // else a resident line, the last one a third of the time.
                let mut step = |store: &mut FaPolicyStore,
                                eager: &mut Vec<u64>,
                                rng: &mut Xorshift64,
                                miss_one_in: u64| {
                    let miss =
                        store.slots.is_empty() || miss_one_in > 0 && rng.below(miss_one_in) == 0;
                    let line = match (miss, last) {
                        (false, Some(line)) if rng.below(3) == 0 => line,
                        (false, _) => store.slots[rng.below(store.slots.len() as u64) as usize].tag,
                        (true, _) => {
                            next_line += 1;
                            next_line
                        }
                    };
                    let want = (miss && store.slots.len() as u64 == capacity)
                        .then(|| plru_victim(eager, padded, capacity));
                    store.access(line, 1);
                    let slot = store.index.find(line).expect("the line is resident") as u64;
                    if let Some(want) = want {
                        assert_eq!(slot, want, "capacity {capacity}: victim");
                    }
                    plru_touch(eager, padded, slot);
                    last = Some(line);
                };
                while (store.slots.len() as u64) < capacity {
                    step(&mut store, &mut eager, &mut rng, 3);
                }
                for _ in 0..rng.below(capacity) {
                    step(&mut store, &mut eager, &mut rng, 0);
                }
                let FaState::Plru(tree) = &store.state else {
                    unreachable!("a tree-PLRU store")
                };
                assert!(tree.bits.is_empty(), "capacity {capacity}: no victim yet");
                let built = plru_build(padded, &mut tree.stamps.clone());
                for node in 1..padded {
                    let depth = node.ilog2();
                    let first_leaf = (node - (1 << depth)) * (padded >> depth);
                    let idx = (node - 1) as usize;
                    let bit = |bits: &[u64]| (bits[idx >> 6] >> (idx & 63)) & 1;
                    if first_leaf < capacity {
                        assert_eq!(bit(&built), bit(&eager), "capacity {capacity}: node {node}");
                    }
                }
                for _ in 0..2 * capacity.min(20) {
                    step(&mut store, &mut eager, &mut rng, 2);
                }
                store.flush();
            }
        }
    }

    #[test]
    fn random_policy_is_deterministic_per_instance() {
        let drive = |mut c: SectoredCache| -> Vec<bool> {
            for i in 0..40u64 {
                c.access((i * 13 % 23) * 64);
            }
            (0..23u64).map(|i| c.probe(i * 64)).collect()
        };
        let mk = || {
            SectoredCache::new_with_policy(
                512,
                64,
                64,
                FULLY_ASSOCIATIVE,
                ReplacementPolicy::Random,
            )
        };
        assert_eq!(drive(mk()), drive(mk()), "same geometry => same stream");
    }
}
