//! Address-translation model: per-level TLBs in front of the cache
//! hierarchy.
//!
//! Every device-memory load translates its virtual page before the cache
//! lookup. The simulator models the two-level TLB hierarchy real GPUs
//! ship: a small per-SM/CU L1 TLB backed by one GPU-level L2 TLB. Both
//! are LRU within `associativity`-way sets (fully associative when the
//! way count covers all entries), exactly like the data caches.
//!
//! # What a miss costs — and why first touches are free
//!
//! The discoverable signal is TLB *reach*: a warmed page-stride p-chase
//! whose footprint exceeds `entries × page_bytes` re-misses on every
//! timed access (sequential LRU thrash) and pays the level's miss
//! penalty, producing the latency cliff the TLB-reach benchmark detects
//! with the same Eq. (2) + K-S machinery as the cache-size benchmark.
//!
//! *Compulsory* misses, by contrast, cost nothing: the first-ever access
//! to a page (since the last flush) installs its translation off the
//! measured path, modeling the driver's allocation-time fault handling —
//! real benchmarks never time cold page faults, and the paper's
//! benchmarks all warm their arrays before the timed pass. This choice is
//! also what keeps the pre-existing benchmark suite bit-exact: cold
//! p-chases (the fetch-granularity scans) and cross-SM observation passes
//! (amount, physical sharing) only ever see first-touch translations, so
//! their measured latencies are untouched by the TLB layer. Only a page
//! that was *resident and got evicted* charges the walk on re-access.

use serde::{Deserialize, Serialize};

/// Ground truth of one TLB level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbLevelSpec {
    /// Number of translation entries.
    pub entries: u32,
    /// Set associativity (ways); `entries` means fully associative. The
    /// registry presets are fully associative, matching the data caches.
    pub associativity: u32,
    /// Extra cycles a load pays when its translation re-misses this level
    /// but hits the next one (for the last level: the full table walk).
    pub miss_penalty_cycles: u32,
}

/// Ground truth of a device's translation hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TlbSpec {
    /// Page size in bytes (the driver's large-page allocation granule —
    /// exposed by [`crate::api::page_size`], like any driver constant).
    pub page_bytes: u64,
    /// The per-SM/CU L1 TLB.
    pub l1: TlbLevelSpec,
    /// The GPU-level L2 TLB shared by all SMs/CUs.
    pub l2: TlbLevelSpec,
}

impl TlbSpec {
    /// The preset builders' shape: fully associative levels (matching the
    /// data caches) over one page size.
    pub const fn fully_associative(
        page_bytes: u64,
        l1_entries: u32,
        l1_penalty: u32,
        l2_entries: u32,
        l2_penalty: u32,
    ) -> TlbSpec {
        TlbSpec {
            page_bytes,
            l1: TlbLevelSpec {
                entries: l1_entries,
                associativity: l1_entries,
                miss_penalty_cycles: l1_penalty,
            },
            l2: TlbLevelSpec {
                entries: l2_entries,
                associativity: l2_entries,
                miss_penalty_cycles: l2_penalty,
            },
        }
    }

    /// Reach of the L1 TLB in bytes (`entries × page_bytes`).
    pub fn l1_reach_bytes(&self) -> u64 {
        self.l1.entries as u64 * self.page_bytes
    }

    /// `log2(page_bytes)` when the page size is a power of two, so the
    /// per-load page-number computation can be a shift instead of a
    /// 64-bit division. Every preset uses 2 MiB driver large pages;
    /// `None` only for hand-built odd-sized specs.
    pub fn page_shift(&self) -> Option<u32> {
        self.page_bytes
            .is_power_of_two()
            .then(|| self.page_bytes.trailing_zeros())
    }

    /// Reach of the L2 TLB in bytes.
    pub fn l2_reach_bytes(&self) -> u64 {
        self.l2.entries as u64 * self.page_bytes
    }
}

/// Outcome of one TLB lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TlbAccess {
    /// Translation resident.
    Hit,
    /// First-ever access to this page since the last flush: installed for
    /// free (the allocation-time fault path).
    FirstTouch,
    /// The page was resident once and has been evicted: the re-miss pays
    /// the walk.
    ReMiss,
}

/// One runtime TLB level: set-indexed recency lists plus the set of pages
/// ever installed (for the free-first-touch rule). A chase's repeat
/// translations of one page from one SM never get here: the memory
/// subsystem's `(sm, page)` memo answers them.
#[derive(Debug)]
pub(crate) struct Tlb {
    ways: usize,
    num_sets: usize,
    /// Per-set recency order, least-recent first. Sets are short (≤ ways
    /// entries), so the LRU update is a small rotate.
    sets: Vec<Vec<u64>>,
    /// Pages ever installed since the last flush. A `BTreeSet` (not a
    /// hash set) keeps the container deterministic by construction —
    /// membership is all the free-first-touch rule needs, and the
    /// workspace's `clippy.toml` bans std hash containers.
    seen: std::collections::BTreeSet<u64>,
}

impl Tlb {
    pub(crate) fn new(spec: &TlbLevelSpec) -> Tlb {
        let entries = spec.entries.max(1) as usize;
        let ways = spec.associativity.clamp(1, entries as u32) as usize;
        // Shrink the way count to a divisor of the entry count, like the
        // data-cache constructor does.
        let mut ways = ways;
        while !entries.is_multiple_of(ways) {
            ways -= 1;
        }
        Tlb {
            ways,
            num_sets: entries / ways,
            sets: vec![Vec::new(); entries / ways],
            seen: std::collections::BTreeSet::new(),
        }
    }

    /// Looks a page up, updating recency and installing it on a miss.
    pub(crate) fn access(&mut self, page: u64) -> TlbAccess {
        let set = &mut self.sets[(page % self.num_sets as u64) as usize];
        if let Some(pos) = set.iter().position(|&p| p == page) {
            set.remove(pos);
            set.push(page);
            return TlbAccess::Hit;
        }
        if set.len() == self.ways {
            set.remove(0); // least-recent way
        }
        set.push(page);
        if self.seen.insert(page) {
            TlbAccess::FirstTouch
        } else {
            TlbAccess::ReMiss
        }
    }

    /// Drops all translations *and* the first-touch history — a flush
    /// marks a benchmark boundary (freed buffers invalidate their
    /// translations on real drivers too).
    pub(crate) fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        self.seen.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb(entries: u32) -> Tlb {
        Tlb::new(&TlbLevelSpec {
            entries,
            associativity: entries,
            miss_penalty_cycles: 50,
        })
    }

    #[test]
    fn first_touches_are_free_then_resident() {
        let mut t = tlb(4);
        for p in 0..4 {
            assert_eq!(t.access(p), TlbAccess::FirstTouch);
        }
        for p in 0..4 {
            assert_eq!(t.access(p), TlbAccess::Hit, "page {p}");
        }
    }

    #[test]
    fn sequential_overflow_re_misses_every_page() {
        // The reach cliff: a ring one page larger than the entry count
        // thrashes under LRU — every revisit is a ReMiss.
        let mut t = tlb(4);
        for p in 0..5 {
            assert_eq!(t.access(p), TlbAccess::FirstTouch);
        }
        for _ in 0..3 {
            for p in 0..5 {
                assert_eq!(t.access(p), TlbAccess::ReMiss, "page {p}");
            }
        }
    }

    #[test]
    fn ring_at_capacity_stays_resident() {
        let mut t = tlb(4);
        for p in 0..4 {
            t.access(p);
        }
        for _ in 0..3 {
            for p in 0..4 {
                assert_eq!(t.access(p), TlbAccess::Hit);
            }
        }
    }

    #[test]
    fn flush_resets_residency_and_history() {
        let mut t = tlb(2);
        t.access(0);
        t.access(1);
        t.access(2); // evicts 0
        t.flush();
        assert_eq!(t.access(0), TlbAccess::FirstTouch, "history cleared");
    }

    #[test]
    fn set_associative_lru_evicts_within_the_set() {
        // 4 entries, 2 ways -> 2 sets; pages 0,2,4 map to set 0.
        let mut t = Tlb::new(&TlbLevelSpec {
            entries: 4,
            associativity: 2,
            miss_penalty_cycles: 50,
        });
        assert_eq!(t.access(0), TlbAccess::FirstTouch);
        assert_eq!(t.access(2), TlbAccess::FirstTouch);
        assert_eq!(t.access(4), TlbAccess::FirstTouch); // evicts 0
        assert_eq!(t.access(1), TlbAccess::FirstTouch); // set 1, untouched
        assert_eq!(t.access(0), TlbAccess::ReMiss);
        assert_eq!(t.access(1), TlbAccess::Hit);
    }

    #[test]
    fn reach_helpers() {
        let spec = TlbSpec {
            page_bytes: 2 * 1024 * 1024,
            l1: TlbLevelSpec {
                entries: 16,
                associativity: 16,
                miss_penalty_cycles: 48,
            },
            l2: TlbLevelSpec {
                entries: 128,
                associativity: 128,
                miss_penalty_cycles: 400,
            },
        };
        assert_eq!(spec.l1_reach_bytes(), 32 * 1024 * 1024);
        assert_eq!(spec.l2_reach_bytes(), 256 * 1024 * 1024);
    }
}
