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
//! Two organisations are provided. The **fully associative** one (what the
//! device presets use) produces the textbook sharp capacity cliff: a
//! cyclically-chased array one line larger than the cache misses on *every*
//! access. The **set-associative** one reproduces the paper's Fig. 1
//! boundary behaviour, where sizes just past the capacity see a *mix* of
//! hits and misses because only the overflowing sets thrash.
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
//! # The flat tag store
//!
//! All organisations live in contiguous storage with no per-access
//! allocation — this is the simulation's hottest loop (millions of
//! pointer-chase loads per discovery), so the data layout matters:
//!
//! * **Set-associative** ([`SetAssoc`]): structure-of-arrays `tags` /
//!   `sectors` vectors laid out as `num_sets × ways` way-groups, so the
//!   hot lookup scans a cache-friendly run of bare `u64` tags. The set
//!   index is a bitmask when the set count is a power of two and a
//!   division-free multiply-high reduction otherwise. Recency is *packed*
//!   per set: true-LRU keeps one `u64` of per-way age bytes per set
//!   (promoted/selected with word-wide SWAR ops, no timestamp scan) for
//!   up to 8 ways and falls back to a timestamp scan above that;
//!   tree-PLRU keeps one bit per internal tree node.
//! * **Fully associative**: a two-level index ([`LineIndex`]) mapping
//!   line addresses to a slot arena. Its first level is a small
//!   open-addressed directory keyed by aligned 64-line pages, with the
//!   keys inline; its second is a dense block of slot ids per page, so a
//!   sequential chase streams through host memory rather than hashing
//!   every line into a multi-MB table. Pages are recycled when their last
//!   line leaves. The LRU engine ([`FlatLru`]) threads the arena with an
//!   intrusive recency list — O(1) lookup, O(1) true-LRU eviction;
//!   non-LRU policies use the same index + arena with per-policy recency
//!   state ([`FaPolicyStore`]). Index and arena grow lazily (nothing is
//!   allocated before the first access), so huge caches (e.g. a 256 MiB
//!   L3) cost memory proportional to their *resident* lines, and eviction
//!   recycles slots in place.
//!
//! The retained [`mod@reference`] implementations plus the differential
//! property tests in `crates/sim/tests/prop.rs` pin every engine to the
//! naive per-policy oracle behaviour access-for-access.

pub mod policy;
pub mod reference;

pub use policy::ReplacementPolicy;

use crate::device::CacheSpec;
use policy::Xorshift64;

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

/// Tag value marking an empty set-associative way. No reachable byte
/// address maps to this line address (it would need 1-byte lines at the
/// very top of the address space), so resident tags never collide with it.
const EMPTY_TAG: u64 = u64::MAX;

/// Sentinel for "no slot" in the index's slot blocks and recency links.
const NIL: u32 = u32::MAX;

/// A fully-associative slot: the packed tag triple plus intrusive list
/// links (`prev` towards LRU, `next` towards MRU for the LRU engine;
/// segment-list links for SLRU; unused by random/bypass).
#[derive(Debug, Clone, Copy)]
struct FaSlot {
    tag: u64,
    valid_sectors: u64,
    last_use: u64,
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

/// Two-level line-address → arena-slot index shared by every
/// fully-associative engine; the slot arena itself lives with the caller
/// so the index stays policy agnostic.
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

/// Fully-associative true-LRU engine: [`LineIndex`] + slot arena threaded
/// with an intrusive doubly-linked recency list.
#[derive(Debug)]
struct FlatLru {
    capacity_lines: u64,
    index: LineIndex,
    /// Slot arena; grows lazily to `capacity_lines`, then recycles.
    slots: Vec<FaSlot>,
    /// Least-recently-used slot (eviction victim), `NIL` when empty.
    head: u32,
    /// Most-recently-used slot, `NIL` when empty.
    tail: u32,
    /// MRU line filter, mirroring [`SetAssoc`]'s: the line address and
    /// arena slot of the last access. A repeat access to the MRU line is
    /// already at the recency tail, so the index lookup and list surgery
    /// can be skipped entirely — the common case for sector-sequential
    /// chase patterns, which touch every line `sectors_per_line` times in
    /// a row. The slot's own tag is re-verified, so a recycled slot falls
    /// through to the full path. `EMPTY_TAG` = invalid.
    mru_line: u64,
    mru_slot: u32,
}

impl FlatLru {
    fn new(capacity_lines: u64) -> Self {
        FlatLru {
            capacity_lines,
            index: LineIndex::default(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
            mru_line: EMPTY_TAG,
            mru_slot: 0,
        }
    }

    /// One access: MRU-line fast path, then the full probe path.
    ///
    /// The fast path is a recency no-op by construction — `mru_line` is
    /// only ever the line of the immediately preceding access, whose slot
    /// `access_cold` left at the recency tail; `touch` on the tail slot
    /// changes nothing but `last_use`, which is all the fast path writes.
    #[inline]
    fn access(&mut self, line_addr: u64, sector_bit: u64, tick: u64) -> Access {
        if line_addr == self.mru_line {
            if let Some(s) = self.slots.get_mut(self.mru_slot as usize) {
                if s.tag == line_addr {
                    s.last_use = tick;
                    let had = s.valid_sectors & sector_bit != 0;
                    s.valid_sectors |= sector_bit;
                    return if had { Access::Hit } else { Access::SectorMiss };
                }
            }
        }
        self.access_cold(line_addr, sector_bit, tick)
    }

    /// The full path: index lookup, recency promotion, allocation.
    fn access_cold(&mut self, line_addr: u64, sector_bit: u64, tick: u64) -> Access {
        let result = if let Some(slot) = self.find(line_addr) {
            self.touch(slot, tick);
            self.mru_slot = slot;
            let s = &mut self.slots[slot as usize];
            if s.valid_sectors & sector_bit != 0 {
                Access::Hit
            } else {
                s.valid_sectors |= sector_bit;
                Access::SectorMiss
            }
        } else {
            self.mru_slot = self.allocate(line_addr, sector_bit, tick);
            Access::LineMiss
        };
        self.mru_line = line_addr;
        result
    }

    #[inline]
    fn find(&self, line_addr: u64) -> Option<u32> {
        self.index.find(line_addr)
    }

    /// Unlinks `slot` from the recency list.
    #[inline]
    fn unlink(&mut self, slot: u32) {
        let (prev, next) = {
            let s = &self.slots[slot as usize];
            (s.prev, s.next)
        };
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    /// Appends `slot` at the MRU end of the recency list.
    #[inline]
    fn push_tail(&mut self, slot: u32) {
        let s = &mut self.slots[slot as usize];
        s.prev = self.tail;
        s.next = NIL;
        if self.tail == NIL {
            self.head = slot;
        } else {
            self.slots[self.tail as usize].next = slot;
        }
        self.tail = slot;
    }

    #[inline]
    fn touch(&mut self, slot: u32, tick: u64) {
        if self.tail != slot {
            self.unlink(slot);
            self.push_tail(slot);
        }
        self.slots[slot as usize].last_use = tick;
    }

    /// Allocates a slot for a new line: recycles the LRU victim when full,
    /// otherwise grows the arena. Returns the arena index.
    fn allocate(&mut self, line_addr: u64, sector_bit: u64, tick: u64) -> u32 {
        let slot = if (self.slots.len() as u64) < self.capacity_lines {
            let idx = self.slots.len() as u32;
            self.slots.push(FaSlot {
                tag: line_addr,
                valid_sectors: sector_bit,
                last_use: tick,
                prev: NIL,
                next: NIL,
            });
            idx
        } else {
            let victim = self.head;
            debug_assert_ne!(victim, NIL, "full cache implies an LRU victim");
            let victim_tag = self.slots[victim as usize].tag;
            self.index.remove(victim_tag);
            self.unlink(victim);
            let s = &mut self.slots[victim as usize];
            s.tag = line_addr;
            s.valid_sectors = sector_bit;
            s.last_use = tick;
            victim
        };
        self.index.insert(line_addr, slot);
        self.push_tail(slot);
        slot
    }

    fn flush(&mut self) {
        self.index.clear();
        self.slots.clear();
        self.head = NIL;
        self.tail = NIL;
        self.mru_line = EMPTY_TAG;
    }
}

// --- packed per-set recency (the SWAR age vector and the PLRU tree) ---

/// Per-byte broadcast and high-bit masks for the 8-lane age vector.
const LANES_LO: u64 = 0x0101_0101_0101_0101;
const LANES_HI: u64 = 0x8080_8080_8080_8080;

/// One SWAR step over a packed age word (one byte per way, `0` = MRU,
/// `0xFF` = empty/padding lane): ages every lane whose value is `<= k_le`
/// by one, then clears `lane` to 0 (the new MRU).
///
/// Lane-wise, `(0x80 + k_le) - (age & 0x7F)` has bit 7 set exactly when
/// `age <= k_le`; empty `0xFF` lanes mask to `0x7F`, which always exceeds
/// `k_le <= 7`, so they are never aged. The per-lane minuend (`>= 0x80`)
/// always exceeds the subtrahend (`<= 0x7F`), so no borrow crosses lanes.
#[inline]
fn age_promote(ages: u64, lane: u32, k_le: u64) -> u64 {
    debug_assert!(k_le <= 7);
    let t = ((k_le * LANES_LO) | LANES_HI).wrapping_sub(ages & !LANES_HI);
    let bumped = ages.wrapping_add((t & LANES_HI) >> 7);
    bumped & !(0xFFu64 << (lane * 8))
}

/// Number of occupied lanes in a packed age word. Valid ages are `<= 7`,
/// so a set high bit identifies exactly the `0xFF` empty/padding lanes.
#[inline]
fn age_filled(ages: u64) -> u64 {
    8 - (ages & LANES_HI).count_ones() as u64
}

/// Index of the lane holding age `ways - 1` (the LRU victim) in a full
/// packed age word. XOR turns the victim byte into `0x00`; the classic
/// zero-byte detect then flags it. A false positive needs a borrow from a
/// *lower* zero byte, so the lowest flagged byte is always the true zero,
/// and `0xFF` padding lanes (`0xFF ^ k >= 0xF8`) never flag.
#[inline]
fn age_victim(ages: u64, ways: u32) -> u32 {
    let t = ages ^ ((ways as u64 - 1) * LANES_LO);
    let z = t.wrapping_sub(LANES_LO) & !t & LANES_HI;
    debug_assert_ne!(z, 0, "full set must contain age ways-1");
    z.trailing_zeros() / 8
}

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

/// Division-free `line % d` for non-power-of-two `d`: multiply-high
/// against `magic = floor(u64::MAX / d)`. The quotient estimate is at
/// most 2 below the true one, fixed up by two branch-free conditional
/// subtracts (a data-dependent fixup *loop* would mispredict on the hot
/// path).
#[inline]
fn fastmod(line: u64, magic: u64, d: u64) -> u64 {
    let q = ((line as u128 * magic as u128) >> 64) as u64;
    let mut r = line - q.wrapping_mul(d);
    r -= d * ((r >= d) as u64);
    r -= d * ((r >= d) as u64);
    debug_assert!(r < d);
    r
}

/// Bit-words needed for the internal nodes of a PLRU tree over `padded`
/// leaves (zero for a 1-leaf tree, which has no internal nodes).
#[inline]
fn plru_words(padded: u64) -> usize {
    ((padded - 1) as usize).div_ceil(64)
}

// --- the set-associative organisation ---

/// Per-policy recency state of [`SetAssoc`]. The LRU default packs one
/// `u64` age vector per set when the way count allows it and falls back
/// to the historical timestamp scan above 8 ways; both are exact
/// true-LRU, so the choice is invisible to behaviour.
#[derive(Debug)]
enum SaState {
    /// Exact LRU, `ways <= 8`: one packed age word per set.
    AgePacked { ages: Vec<u64> },
    /// Exact LRU, `ways > 8`: per-way timestamps, victim = min scan.
    AgeStamp { stamps: Vec<u64> },
    /// Tree-PLRU: per-set internal-node bits over `padded` leaves.
    Plru {
        bits: Vec<u64>,
        padded: u64,
        words: usize,
    },
    /// Segmented LRU: per-way timestamps + per-set protected bitmask.
    Slru {
        stamps: Vec<u64>,
        protected: Vec<u64>,
        prot_cap: u32,
    },
    /// Seeded uniform-random victim (one stream per cache instance).
    Random(Xorshift64),
    /// Streaming: never evicts; full sets stop allocating.
    Bypass,
}

/// Set-associative organisation: structure-of-arrays tag store plus the
/// packed per-set recency state (see module docs).
#[derive(Debug)]
struct SetAssoc {
    /// Way slots. With `pack_shift = Some(spl)` — `spl` the
    /// sectors-per-line count, taken whenever it is `<= 16` (every
    /// modeled geometry) — each way is a single word, `tag << spl |
    /// valid-sector bitmap`, so a 4-way set spans 32 bytes and the tag
    /// scan, sector test and line fill each touch one word. All-ones
    /// (`EMPTY_TAG`) marks an empty way: a real slot with every sector
    /// valid never has the all-ones *tag*, which sits above the
    /// reachable address space. Geometries with more than 16 sectors
    /// per line fall back to interleaved (tag, bitmap) pairs at lane
    /// stride 2.
    lanes: Vec<u64>,
    /// `Some(sectors_per_line)` for the packed single-word layout.
    pack_shift: Option<u32>,
    /// MRU line filter (a way-predictor analogue) for the packed
    /// exact-LRU configuration: the line address and lane index of the
    /// last hit or fill. A repeat access to the MRU line leaves every
    /// recency bit unchanged under exact LRU (its age is already 0), so
    /// the set indexing and way scan are skipped entirely — the common
    /// case for sector-sequential p-chase patterns. `EMPTY_TAG` =
    /// invalid.
    mru_line: u64,
    mru_lane: u32,
    num_sets: u64,
    /// `Some(num_sets - 1)` when the set count is a power of two.
    set_mask: Option<u64>,
    /// `floor(u64::MAX / num_sets)` for the division-free reduction on
    /// non-power-of-two set counts.
    mod_magic: u64,
    ways: u32,
    state: SaState,
}

impl SetAssoc {
    fn new(total_lines: u64, ways: u32, sectors_per_line: u32, policy: ReplacementPolicy) -> Self {
        debug_assert!(ways as u64 > 0 && total_lines.is_multiple_of(ways as u64));
        let num_sets = total_lines / ways as u64;
        let state = match policy {
            ReplacementPolicy::Lru if ways <= 8 => SaState::AgePacked {
                ages: vec![u64::MAX; num_sets as usize],
            },
            ReplacementPolicy::Lru => SaState::AgeStamp {
                stamps: vec![0; total_lines as usize],
            },
            ReplacementPolicy::TreePlru => {
                let padded = (ways as u64).next_power_of_two();
                let words = plru_words(padded);
                SaState::Plru {
                    bits: vec![0; num_sets as usize * words],
                    padded,
                    words,
                }
            }
            ReplacementPolicy::Slru => {
                assert!(
                    ways <= 64,
                    "SLRU supports at most 64 ways (per-set protected bitmask)"
                );
                SaState::Slru {
                    stamps: vec![0; total_lines as usize],
                    protected: vec![0; num_sets as usize],
                    prot_cap: ways / 2,
                }
            }
            ReplacementPolicy::Random => SaState::Random(Xorshift64::for_geometry(total_lines)),
            ReplacementPolicy::Bypass => SaState::Bypass,
        };
        let (lanes, pack_shift) = if sectors_per_line <= 16 {
            (
                vec![EMPTY_TAG; total_lines as usize],
                Some(sectors_per_line),
            )
        } else {
            let mut lanes = vec![0u64; 2 * total_lines as usize];
            lanes.iter_mut().step_by(2).for_each(|t| *t = EMPTY_TAG);
            (lanes, None)
        };
        SetAssoc {
            lanes,
            pack_shift,
            mru_line: EMPTY_TAG,
            mru_lane: 0,
            num_sets,
            set_mask: num_sets.is_power_of_two().then(|| num_sets - 1),
            mod_magic: u64::MAX / num_sets,
            ways,
            state,
        }
    }

    /// Maps a line address to its set.
    #[inline]
    fn set_of(&self, line_addr: u64) -> u64 {
        match self.set_mask {
            Some(mask) => line_addr & mask,
            None => fastmod(line_addr, self.mod_magic, self.num_sets),
        }
    }

    /// Recency update for a lookup that found the line in `way`.
    #[inline]
    fn touch(&mut self, set: u64, base: usize, way: usize, tick: u64) {
        match &mut self.state {
            SaState::AgePacked { ages } => {
                let w = &mut ages[set as usize];
                let age = (*w >> (way * 8)) & 0xFF;
                if age != 0 {
                    *w = age_promote(*w, way as u32, age - 1);
                }
            }
            SaState::AgeStamp { stamps } => stamps[base + way] = tick,
            SaState::Plru {
                bits,
                padded,
                words,
            } => {
                let bits = &mut bits[set as usize * *words..(set as usize + 1) * *words];
                plru_touch(bits, *padded, way as u64);
            }
            SaState::Slru {
                stamps,
                protected,
                prot_cap,
            } => {
                let prot = &mut protected[set as usize];
                let in_prot = (*prot >> way) & 1 == 1;
                stamps[base + way] = tick;
                if !in_prot && *prot_cap > 0 {
                    // Promote to protected; on overflow demote the
                    // protected-LRU back to probation as its MRU.
                    *prot |= 1 << way;
                    if prot.count_ones() > *prot_cap {
                        let mask = *prot;
                        let mut demote = 0usize;
                        let mut oldest = u64::MAX;
                        for w in 0..self.ways as usize {
                            if (mask >> w) & 1 == 1 && stamps[base + w] < oldest {
                                oldest = stamps[base + w];
                                demote = w;
                            }
                        }
                        *prot &= !(1 << demote);
                        stamps[base + demote] = tick;
                    }
                }
            }
            SaState::Random(_) | SaState::Bypass => {}
        }
    }

    /// Victim way for a full set, or `None` to skip allocation (bypass).
    #[inline]
    fn victim(&mut self, set: u64, base: usize) -> Option<usize> {
        let ways = self.ways as usize;
        match &mut self.state {
            SaState::AgePacked { ages } => Some(age_victim(ages[set as usize], self.ways) as usize),
            SaState::AgeStamp { stamps } => {
                let group = &stamps[base..base + ways];
                let mut dst = 0usize;
                let mut dst_use = u64::MAX;
                for (i, &stamp) in group.iter().enumerate() {
                    if stamp < dst_use {
                        dst_use = stamp;
                        dst = i;
                    }
                }
                Some(dst)
            }
            SaState::Plru {
                bits,
                padded,
                words,
            } => {
                let bits = &bits[set as usize * *words..(set as usize + 1) * *words];
                Some(plru_victim(bits, *padded, self.ways as u64) as usize)
            }
            SaState::Slru {
                stamps, protected, ..
            } => {
                // Probation first; it is never empty on a full set since
                // the protected segment is capped at half the ways.
                let prot = protected[set as usize];
                let mut dst = None;
                let mut dst_use = u64::MAX;
                for w in 0..ways {
                    if (prot >> w) & 1 == 0 && stamps[base + w] < dst_use {
                        dst_use = stamps[base + w];
                        dst = Some(w);
                    }
                }
                dst.or_else(|| {
                    let mut dst = 0usize;
                    let mut dst_use = u64::MAX;
                    for w in 0..ways {
                        if stamps[base + w] < dst_use {
                            dst_use = stamps[base + w];
                            dst = w;
                        }
                    }
                    Some(dst)
                })
            }
            SaState::Random(rng) => Some(rng.below(ways as u64) as usize),
            SaState::Bypass => None,
        }
    }

    /// Recency update for a line filled into `way` (free fill or after an
    /// eviction). Free fills always land on way `filled` because ways
    /// occupy densely from 0 (fills are sequential, evictions replace in
    /// place, flush empties whole sets).
    #[inline]
    fn on_fill(&mut self, set: u64, base: usize, way: usize, was_free: bool, tick: u64) {
        match &mut self.state {
            SaState::AgePacked { ages } => {
                let w = &mut ages[set as usize];
                if was_free {
                    debug_assert_eq!(age_filled(*w), way as u64, "dense-fill invariant");
                    *w = if way == 0 {
                        *w & !0xFF
                    } else {
                        age_promote(*w, way as u32, way as u64 - 1)
                    };
                } else if self.ways >= 2 {
                    // The victim lane held age ways-1; everything else
                    // ages by one and the lane becomes MRU.
                    *w = age_promote(*w, way as u32, self.ways as u64 - 2);
                }
                // ways == 1 after eviction: the single lane is already 0.
            }
            SaState::AgeStamp { stamps } => stamps[base + way] = tick,
            SaState::Plru {
                bits,
                padded,
                words,
            } => {
                let bits = &mut bits[set as usize * *words..(set as usize + 1) * *words];
                plru_touch(bits, *padded, way as u64);
            }
            SaState::Slru {
                stamps, protected, ..
            } => {
                // New lines enter probation.
                stamps[base + way] = tick;
                protected[set as usize] &= !(1 << way);
            }
            SaState::Random(_) | SaState::Bypass => {}
        }
    }

    #[inline]
    fn access(&mut self, line_addr: u64, sector_bit: u64, tick: u64) -> Access {
        let Some(spl) = self.pack_shift else {
            let set = self.set_of(line_addr);
            let base = set as usize * self.ways as usize;
            return self.access_pairs(set, base, line_addr, sector_bit, tick);
        };
        debug_assert!(
            line_addr < EMPTY_TAG >> spl,
            "address above the packed tag range"
        );
        // MRU filter: engaged only under the exact-LRU packed state,
        // where a repeat touch of the MRU way is a recency no-op. Only
        // the `AgePacked` path below ever records `mru_line` (other
        // policies leave it at the unmatchable `EMPTY_TAG`), and the
        // slot's own tag is re-verified, so an eviction that recycled
        // the remembered lane falls through to the full path.
        if line_addr == self.mru_line {
            // SAFETY: `mru_lane` is only ever written with `base + way`
            // values the AgePacked path just used to index `lanes`, and
            // the lane count never changes after construction, so the
            // remembered index is always in bounds.
            let slot = unsafe { self.lanes.get_unchecked_mut(self.mru_lane as usize) };
            if *slot >> spl == line_addr {
                let had = *slot & sector_bit != 0;
                *slot |= sector_bit;
                return if had { Access::Hit } else { Access::SectorMiss };
            }
        }
        let set = self.set_of(line_addr);
        let ways = self.ways as usize;
        let base = set as usize * ways;
        // Fused fast path for the default organisation (exact LRU at
        // <= 8 ways): the recency update folds into the scan's exits, the
        // dense-fill invariant (`age_filled`) replaces the free-way scan,
        // and nothing re-dispatches on the policy state. Must mirror the
        // `AgePacked` arms of `touch`/`victim`/`on_fill` exactly. The
        // promote is computed unconditionally (discarded by a conditional
        // move when the way is already MRU) and the sector OR is
        // idempotent — the hit exit is branch-light.
        if let SaState::AgePacked { ages } = &mut self.state {
            // SAFETY: `set_of` returns `set < num_sets` (mask or fastmod
            // postcondition), so `base + ways = (set + 1) * ways <=
            // num_sets * ways`, the packed `lanes` length; `ages` holds
            // one word per set. Bounds checks on the hot path cost real
            // cycles here.
            let (agew, group) = unsafe {
                (
                    &mut *ages.as_mut_ptr().add(set as usize),
                    self.lanes.get_unchecked_mut(base..base + ways),
                )
            };
            for (way, slot) in group.iter_mut().enumerate() {
                if *slot >> spl == line_addr {
                    let age = (*agew >> (way * 8)) & 0xFF;
                    let promoted = age_promote(*agew, way as u32, age.saturating_sub(1));
                    if age != 0 {
                        *agew = promoted;
                    }
                    let had = *slot & sector_bit != 0;
                    *slot |= sector_bit;
                    self.mru_line = line_addr;
                    self.mru_lane = (base + way) as u32;
                    return if had { Access::Hit } else { Access::SectorMiss };
                }
            }
            let filled = age_filled(*agew) as usize;
            let dst = if filled < ways {
                // Free fill: ways occupy densely from 0.
                *agew = if filled == 0 {
                    *agew & !0xFF
                } else {
                    age_promote(*agew, filled as u32, filled as u64 - 1)
                };
                filled
            } else {
                let victim = age_victim(*agew, ways as u32) as usize;
                if ways >= 2 {
                    *agew = age_promote(*agew, victim as u32, ways as u64 - 2);
                }
                victim
            };
            group[dst] = (line_addr << spl) | sector_bit;
            self.mru_line = line_addr;
            self.mru_lane = (base + dst) as u32;
            return Access::LineMiss;
        }
        // Generic packed path: scan, then dispatch recency to the policy
        // state (empty ways hold `EMPTY_TAG`, whose tag part is above
        // every reachable address and never matches).
        let group = &self.lanes[base..base + ways];
        let found = group.iter().position(|&s| s >> spl == line_addr);
        if let Some(way) = found {
            self.touch(set, base, way, tick);
            let slot = &mut self.lanes[base + way];
            let had = *slot & sector_bit != 0;
            *slot |= sector_bit;
            if had {
                Access::Hit
            } else {
                Access::SectorMiss
            }
        } else {
            let free = group.iter().position(|&s| s == EMPTY_TAG);
            let dst = match free {
                Some(way) => way,
                None => match self.victim(set, base) {
                    Some(way) => way,
                    None => return Access::LineMiss, // bypass: no allocation
                },
            };
            self.lanes[base + dst] = (line_addr << spl) | sector_bit;
            self.on_fill(set, base, dst, free.is_some(), tick);
            Access::LineMiss
        }
    }

    /// [`Self::access`] for the pair layout (`> 16` sectors per line —
    /// no modeled geometry; correctness only, never the hot path).
    fn access_pairs(
        &mut self,
        set: u64,
        base: usize,
        line_addr: u64,
        sector_bit: u64,
        tick: u64,
    ) -> Access {
        let ways = self.ways as usize;
        let group = &self.lanes[2 * base..2 * (base + ways)];
        let found = group.chunks_exact(2).position(|p| p[0] == line_addr);
        if let Some(way) = found {
            debug_assert_ne!(
                self.lanes[2 * (base + way) + 1],
                0,
                "resident line has sectors"
            );
            self.touch(set, base, way, tick);
            let sec = &mut self.lanes[2 * (base + way) + 1];
            if *sec & sector_bit != 0 {
                Access::Hit
            } else {
                *sec |= sector_bit;
                Access::SectorMiss
            }
        } else {
            let free = group.chunks_exact(2).position(|p| p[1] == 0);
            let dst = match free {
                Some(way) => way,
                None => match self.victim(set, base) {
                    Some(way) => way,
                    None => return Access::LineMiss, // bypass: no allocation
                },
            };
            self.lanes[2 * (base + dst)] = line_addr;
            self.lanes[2 * (base + dst) + 1] = sector_bit;
            self.on_fill(set, base, dst, free.is_some(), tick);
            Access::LineMiss
        }
    }

    fn probe(&self, line_addr: u64, sector_bit: u64) -> bool {
        let set = self.set_of(line_addr);
        let ways = self.ways as usize;
        let base = set as usize * ways;
        match self.pack_shift {
            Some(spl) => self.lanes[base..base + ways]
                .iter()
                .find(|&&s| s >> spl == line_addr)
                .map(|&s| s & sector_bit != 0)
                .unwrap_or(false),
            None => self.lanes[2 * base..2 * (base + ways)]
                .chunks_exact(2)
                .find(|p| p[0] == line_addr)
                .map(|p| p[1] & sector_bit != 0)
                .unwrap_or(false),
        }
    }

    fn flush(&mut self) {
        self.mru_line = EMPTY_TAG;
        match self.pack_shift {
            Some(_) => self.lanes.iter_mut().for_each(|s| *s = EMPTY_TAG),
            None => {
                for p in self.lanes.chunks_exact_mut(2) {
                    p[0] = EMPTY_TAG;
                    p[1] = 0;
                }
            }
        }
        match &mut self.state {
            SaState::AgePacked { ages } => ages.iter_mut().for_each(|a| *a = u64::MAX),
            SaState::AgeStamp { stamps } => stamps.iter_mut().for_each(|s| *s = 0),
            SaState::Plru { bits, .. } => bits.iter_mut().for_each(|b| *b = 0),
            SaState::Slru {
                stamps, protected, ..
            } => {
                stamps.iter_mut().for_each(|s| *s = 0);
                protected.iter_mut().for_each(|p| *p = 0);
            }
            // The random victim stream deliberately survives a flush: a
            // flush invalidates contents, it does not reseed the device.
            SaState::Random(_) | SaState::Bypass => {}
        }
    }
}

// --- fully-associative non-LRU engines ---

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

/// Per-policy recency state of [`FaPolicyStore`] (exact LRU uses the
/// dedicated [`FlatLru`] instead).
#[derive(Debug)]
enum FaState {
    /// Tree-PLRU over the whole arena (leaf = arena index).
    Plru { bits: Vec<u64>, padded: u64 },
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

/// Fully-associative organisation for non-LRU policies: the same
/// [`LineIndex`] + slot arena as [`FlatLru`] with policy recency state on
/// the side. Eviction replaces the victim's arena slot in place, so arena
/// indices are stable identities for the recency structures.
#[derive(Debug)]
struct FaPolicyStore {
    capacity_lines: u64,
    index: LineIndex,
    slots: Vec<FaSlot>,
    state: FaState,
    /// MRU line filter. Unlike [`FlatLru`]'s, this one only short-circuits
    /// the index lookup — the policy `touch` still runs, because a repeat
    /// touch is *not* a recency no-op for every policy (SLRU promotes a
    /// probation line to protected on its second touch). The slot tag is
    /// re-verified, so in-place eviction recycling falls through safely.
    mru_line: u64,
    mru_slot: u32,
}

impl FaPolicyStore {
    fn new(capacity_lines: u64, policy: ReplacementPolicy) -> Self {
        let state = match policy {
            ReplacementPolicy::Lru => unreachable!("LRU uses FlatLru"),
            ReplacementPolicy::TreePlru => {
                let padded = capacity_lines.next_power_of_two();
                FaState::Plru {
                    bits: vec![0; plru_words(padded)],
                    padded,
                }
            }
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
            FaState::Plru { bits, padded } => plru_touch(bits, *padded, slot as u64),
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
            FaState::Plru { bits, padded } => plru_touch(bits, *padded, slot as u64),
            FaState::Slru { prob, seg, .. } => {
                // New lines enter probation at the MRU end.
                seg[slot as usize / 64] &= !(1 << (slot % 64));
                list_push_tail(&mut self.slots, prob, slot);
            }
            FaState::Random(_) | FaState::Bypass => {}
        }
    }

    /// One access: MRU-line probe skip, then the full path.
    #[inline]
    fn access(&mut self, line_addr: u64, sector_bit: u64) -> Access {
        if line_addr == self.mru_line {
            if let Some(s) = self.slots.get(self.mru_slot as usize) {
                if s.tag == line_addr {
                    let slot = self.mru_slot;
                    self.touch(slot);
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
                last_use: 0,
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
                FaState::Plru { bits, padded } => {
                    plru_victim(bits, *padded, self.capacity_lines) as u32
                }
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
            FaState::Plru { bits, .. } => bits.iter_mut().for_each(|b| *b = 0),
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
    SetAssociative(SetAssoc),
    FullyAssociative(FlatLru),
    FullyAssociativePolicy(FaPolicyStore),
}

/// A sectored cache with a pluggable replacement policy (see module docs
/// for the organisations and the flat tag store backing them).
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
    tick: u64,
    hits: u64,
    misses: u64,
}

impl SectoredCache {
    /// Builds a cache from a [`CacheSpec`]. A spec associativity of
    /// [`FULLY_ASSOCIATIVE`] — or any value at/above the line count —
    /// selects the fully-associative organisation.
    pub fn from_spec(spec: &CacheSpec) -> Self {
        Self::from_spec_with_policy(spec, ReplacementPolicy::Lru)
    }

    /// [`Self::from_spec`] with an explicit replacement policy.
    pub fn from_spec_with_policy(spec: &CacheSpec, policy: ReplacementPolicy) -> Self {
        Self::new_with_policy(
            spec.size,
            spec.line_size as u64,
            spec.fetch_granularity as u64,
            spec.associativity,
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
            match policy {
                ReplacementPolicy::Lru => Organization::FullyAssociative(FlatLru::new(total_lines)),
                _ => Organization::FullyAssociativePolicy(FaPolicyStore::new(total_lines, policy)),
            }
        } else {
            let mut ways = ways.max(1) as u64;
            while !total_lines.is_multiple_of(ways) {
                ways -= 1;
            }
            Organization::SetAssociative(SetAssoc::new(
                total_lines,
                ways as u32,
                sectors_per_line,
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
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Splits a byte address into (line address, sector bit).
    #[inline(always)]
    fn split_addr(&self, addr: u64) -> (u64, u64) {
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
            Organization::SetAssociative(sa) => sa.num_sets * sa.ways as u64 * self.line_size,
            Organization::FullyAssociative(fa) => fa.capacity_lines * self.line_size,
            Organization::FullyAssociativePolicy(fa) => fa.capacity_lines * self.line_size,
        }
    }

    /// Effective associativity (the line count when fully associative).
    pub fn ways(&self) -> u32 {
        match &self.org {
            Organization::SetAssociative(sa) => sa.ways,
            Organization::FullyAssociative(fa) => fa.capacity_lines.min(u32::MAX as u64) as u32,
            Organization::FullyAssociativePolicy(fa) => {
                fa.capacity_lines.min(u32::MAX as u64) as u32
            }
        }
    }

    /// Number of sets (1 when fully associative).
    pub fn num_sets(&self) -> u64 {
        match &self.org {
            Organization::SetAssociative(sa) => sa.num_sets,
            Organization::FullyAssociative(_) | Organization::FullyAssociativePolicy(_) => 1,
        }
    }

    /// (hits, misses) counters since construction or [`Self::reset_stats`].
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Clears the hit/miss counters.
    pub fn reset_stats(&mut self) {
        self.hits = 0;
        self.misses = 0;
    }

    /// Invalidates all contents (and keeps the counters). Policy recency
    /// state resets with the contents; the random victim stream does not.
    pub fn flush(&mut self) {
        match &mut self.org {
            Organization::SetAssociative(sa) => sa.flush(),
            Organization::FullyAssociative(fa) => fa.flush(),
            Organization::FullyAssociativePolicy(fa) => fa.flush(),
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
        self.tick += 1;
        let tick = self.tick;
        let (line_addr, sector_bit) = self.split_addr(addr);

        let result = match &mut self.org {
            Organization::SetAssociative(sa) => sa.access(line_addr, sector_bit, tick),
            Organization::FullyAssociative(fa) => fa.access(line_addr, sector_bit, tick),
            Organization::FullyAssociativePolicy(fa) => fa.access(line_addr, sector_bit),
        };
        let hit = result.is_hit() as u64;
        self.hits += hit;
        self.misses += 1 - hit;
        result
    }

    /// Peeks whether `addr`'s sector is resident without touching recency
    /// state or allocating.
    pub fn probe(&self, addr: u64) -> bool {
        let (line_addr, sector_bit) = self.split_addr(addr);
        match &self.org {
            Organization::SetAssociative(sa) => sa.probe(line_addr, sector_bit),
            Organization::FullyAssociative(fa) => fa
                .find(line_addr)
                .map(|slot| fa.slots[slot as usize].valid_sectors & sector_bit != 0)
                .unwrap_or(false),
            Organization::FullyAssociativePolicy(fa) => fa.probe(line_addr, sector_bit),
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
        // 6 lines, 2 ways -> 3 sets: the multiply-high (non-bitmask) path.
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
        c.reset_stats();
        for &a in &addrs {
            assert!(!c.access(a).is_hit(), "addr {a} unexpectedly hit");
        }
        let (hits, misses) = c.stats();
        assert_eq!(hits, 0);
        assert_eq!(misses, n_sectors);
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
        c.reset_stats();
        for &a in &addrs {
            c.access(a);
        }
        let (hits, misses) = c.stats();
        assert!(hits > 0, "non-overflowing sets should hit");
        assert!(misses > 0, "the overflowing set should thrash");
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
        c.reset_stats();
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
        let run = |stride: u64| -> (u64, u64) {
            let mut c = fa_cache();
            for i in 0..16 {
                c.access(i * stride);
            }
            c.stats()
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
        c.reset_stats();
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

    // --- packed-recency building blocks ---

    #[test]
    fn age_word_tracks_an_lru_permutation() {
        // Fill a 4-way set: each fill promotes the occupied lanes.
        let mut ages = u64::MAX;
        assert_eq!(age_filled(ages), 0);
        ages &= !0xFF; // fill lane 0
        ages = age_promote(ages, 1, 0); // fill lane 1
        ages = age_promote(ages, 2, 1); // fill lane 2
        ages = age_promote(ages, 3, 2); // fill lane 3
        assert_eq!(age_filled(ages), 4);
        // Ages now: lane0=3 lane1=2 lane2=1 lane3=0 -> victim is lane 0.
        assert_eq!(age_victim(ages, 4), 0);
        // Touch lane 0 (age 3): promotes lanes <= 2, lane 0 -> MRU.
        ages = age_promote(ages, 0, 2);
        assert_eq!(age_victim(ages, 4), 1, "lane 1 is now the oldest");
        // Upper lanes stay empty padding throughout.
        assert_eq!(ages & 0xFFFF_FFFF_0000_0000, 0xFFFF_FFFF_0000_0000);
    }

    #[test]
    fn age_victim_handles_every_full_permutation_of_8() {
        // Exhaustively rotate a full 8-way word and check the detect.
        let base: [u64; 8] = [3, 7, 0, 5, 1, 6, 2, 4];
        for rot in 0..8usize {
            let mut ages = 0u64;
            let mut expect = 0;
            for (lane, &a) in base.iter().enumerate() {
                let a = (a + rot as u64) % 8;
                ages |= a << (lane * 8);
                if a == 7 {
                    expect = lane as u32;
                }
            }
            assert_eq!(age_victim(ages, 8), expect, "rotation {rot}");
        }
    }

    #[test]
    fn multiply_high_reduction_matches_modulo() {
        // 476 sets is the bench geometry (238 KiB / 128 B / 4 ways); also
        // sweep other awkward divisors and huge line addresses.
        for d in [3u64, 5, 7, 31, 476, 12_345, (1 << 40) - 1, u64::MAX - 1] {
            let magic = u64::MAX / d;
            for line in [0u64, 1, d - 1, d, d + 1, 1 << 30, u64::MAX / 7, u64::MAX] {
                assert_eq!(fastmod(line, magic, d), line % d, "{line} mod {d}");
            }
        }
        // And through a real cache: 6 lines / 2 ways -> 3 sets.
        let sa = SetAssoc::new(6, 2, 1, ReplacementPolicy::Lru);
        assert_eq!(sa.num_sets, 3);
        for line in 0..100u64 {
            assert_eq!(sa.set_of(line), line % 3);
        }
    }

    #[test]
    fn policy_is_recorded_and_defaults_to_lru() {
        assert_eq!(fa_cache().policy(), ReplacementPolicy::Lru);
        let c = SectoredCache::new_with_policy(1024, 64, 32, 4, ReplacementPolicy::TreePlru);
        assert_eq!(c.policy(), ReplacementPolicy::TreePlru);
    }

    #[test]
    fn lru_stamp_fallback_above_eight_ways_is_still_exact_lru() {
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
