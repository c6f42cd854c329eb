//! The naive sectored-cache models: two differential-testing oracles,
//! one of which is also the set-associative organisation.
//!
//! * [`ReferenceSectoredCache`] is the original `Vec<Vec<Line>>` /
//!   `BTreeMap` true-LRU implementation, retained verbatim. The cache in
//!   [`super`] must produce *bit-identical* behaviour — the same
//!   [`Access`] sequence, hit/miss counters and residency for any access
//!   stream — because every measured value of the simulator flows
//!   through it. The property test `flat_store_matches_reference` in
//!   `crates/sim/tests/prop.rs` drives both with random streams and
//!   asserts equivalence; keep this one in sync with nothing: it is
//!   frozen on purpose.
//! * [`PolicyReferenceCache`] is the per-policy, per-set model: the
//!   oracle the fully-associative policy engines are tested against, the
//!   predictor the policy-discovery unit replays, and the storage of
//!   every set-associative [`super::SectoredCache`].

use std::collections::BTreeMap;

use super::Access;

#[derive(Debug, Clone)]
struct Line {
    tag: u64,
    /// Valid bit per sector. Lines have at most 64 sectors by construction.
    valid_sectors: u64,
    /// Monotonic timestamp of last use, for LRU.
    last_use: u64,
}

#[derive(Debug, Clone)]
struct FaLine {
    valid_sectors: u64,
    last_use: u64,
}

#[derive(Debug)]
enum Organization {
    SetAssociative {
        sets: Vec<Vec<Line>>,
        num_sets: u64,
        ways: u32,
    },
    FullyAssociative {
        /// line address -> state. Keyed lookups only (eviction order
        /// comes from the `lru` tree), stored ordered so the container
        /// is deterministic by construction (`clippy.toml` bans std
        /// hash containers).
        lines: BTreeMap<u64, FaLine>,
        /// last_use tick -> line address (LRU order; ticks are unique)
        lru: BTreeMap<u64, u64>,
        capacity_lines: u64,
    },
}

/// The pre-flat-store sectored cache (true-LRU, two organisations) — see
/// the module docs for why it is kept.
#[derive(Debug)]
pub struct ReferenceSectoredCache {
    line_size: u64,
    sector_size: u64,
    org: Organization,
    tick: u64,
    hits: u64,
    misses: u64,
}

impl ReferenceSectoredCache {
    /// Builds a cache with explicit geometry; same contract as
    /// [`super::SectoredCache::new`].
    pub fn new(size: u64, line_size: u64, sector_size: u64, ways: u32) -> Self {
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
            Organization::FullyAssociative {
                lines: BTreeMap::new(),
                lru: BTreeMap::new(),
                capacity_lines: total_lines,
            }
        } else {
            let mut ways = ways.max(1) as u64;
            while !total_lines.is_multiple_of(ways) {
                ways -= 1;
            }
            let num_sets = total_lines / ways;
            Organization::SetAssociative {
                sets: vec![Vec::new(); num_sets as usize],
                num_sets,
                ways: ways as u32,
            }
        };
        ReferenceSectoredCache {
            line_size,
            sector_size,
            org,
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Whether the fully-associative organisation was selected.
    pub fn is_fully_associative(&self) -> bool {
        matches!(self.org, Organization::FullyAssociative { .. })
    }

    /// (hits, misses) counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Invalidates all contents (and keeps the counters).
    pub fn flush(&mut self) {
        match &mut self.org {
            Organization::SetAssociative { sets, .. } => {
                for set in sets {
                    set.clear();
                }
            }
            Organization::FullyAssociative { lines, lru, .. } => {
                lines.clear();
                lru.clear();
            }
        }
    }

    /// Performs an access at byte address `addr`, allocating on miss —
    /// the original algorithm, verbatim.
    pub fn access(&mut self, addr: u64) -> Access {
        self.tick += 1;
        let tick = self.tick;
        let line_addr = addr / self.line_size;
        let sector_bit = 1u64 << ((addr % self.line_size) / self.sector_size);

        let result = match &mut self.org {
            Organization::SetAssociative {
                sets,
                num_sets,
                ways,
                ..
            } => {
                let set_idx = (line_addr % *num_sets) as usize;
                let tag = line_addr / *num_sets;
                let set = &mut sets[set_idx];
                if let Some(line) = set.iter_mut().find(|l| l.tag == tag) {
                    line.last_use = tick;
                    if line.valid_sectors & sector_bit != 0 {
                        Access::Hit
                    } else {
                        line.valid_sectors |= sector_bit;
                        Access::SectorMiss
                    }
                } else {
                    if set.len() >= *ways as usize {
                        let lru = set
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, l)| l.last_use)
                            .map(|(i, _)| i)
                            .expect("non-empty set");
                        set.swap_remove(lru);
                    }
                    set.push(Line {
                        tag,
                        valid_sectors: sector_bit,
                        last_use: tick,
                    });
                    Access::LineMiss
                }
            }
            Organization::FullyAssociative {
                lines,
                lru,
                capacity_lines,
            } => {
                if let Some(state) = lines.get_mut(&line_addr) {
                    lru.remove(&state.last_use);
                    state.last_use = tick;
                    lru.insert(tick, line_addr);
                    if state.valid_sectors & sector_bit != 0 {
                        Access::Hit
                    } else {
                        state.valid_sectors |= sector_bit;
                        Access::SectorMiss
                    }
                } else {
                    if lines.len() as u64 >= *capacity_lines {
                        let (&victim_tick, &victim_line) =
                            lru.iter().next().expect("cache full implies LRU entry");
                        lru.remove(&victim_tick);
                        lines.remove(&victim_line);
                    }
                    lines.insert(
                        line_addr,
                        FaLine {
                            valid_sectors: sector_bit,
                            last_use: tick,
                        },
                    );
                    lru.insert(tick, line_addr);
                    Access::LineMiss
                }
            }
        };
        if result.is_hit() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        result
    }

    /// Peeks whether `addr`'s sector is resident without touching LRU or
    /// allocating.
    pub fn probe(&self, addr: u64) -> bool {
        let line_addr = addr / self.line_size;
        let sector_bit = 1u64 << ((addr % self.line_size) / self.sector_size);
        match &self.org {
            Organization::SetAssociative { sets, num_sets, .. } => {
                let set_idx = (line_addr % *num_sets) as usize;
                let tag = line_addr / *num_sets;
                sets[set_idx]
                    .iter()
                    .any(|l| l.tag == tag && l.valid_sectors & sector_bit != 0)
            }
            Organization::FullyAssociative { lines, .. } => lines
                .get(&line_addr)
                .map(|s| s.valid_sectors & sector_bit != 0)
                .unwrap_or(false),
        }
    }
}

// --- the per-policy differential oracle ---

use super::policy::Xorshift64;
use super::ReplacementPolicy;

#[derive(Debug, Clone)]
struct PolLine {
    /// Full line address (no tag/set split — the set is recomputed).
    tag: u64,
    valid_sectors: u64,
}

/// Naive per-policy sectored cache: the differential oracle for every
/// fully-associative [`ReplacementPolicy`] engine in [`super`], and the
/// set-associative organisation itself.
///
/// One deliberately simple representation covers both organisations — a
/// fully-associative cache is a single set whose way count equals the
/// line capacity. Ways fill densely from index 0 and eviction replaces
/// the victim's way *in place*, which makes way indices correspond 1:1 to
/// the packed engine's lanes / arena slots — required for the random
/// policy (victim = same index from the same [`Xorshift64`] stream) and
/// the PLRU tree (leaf = way index), and harmless for the stamp-ordered
/// policies. Everything is an O(ways) scan; use small geometries.
#[derive(Debug)]
pub struct PolicyReferenceCache {
    line_size: u64,
    sector_size: u64,
    policy: ReplacementPolicy,
    num_sets: u64,
    ways: usize,
    sets: Vec<Vec<PolLine>>,
    /// Per set × way: last-use stamp (LRU and SLRU ordering).
    stamps: Vec<Vec<u64>>,
    /// Per set × way: SLRU protected-segment membership.
    protected: Vec<Vec<bool>>,
    /// Per set: PLRU internal-node bits (`true` = victim walk goes right).
    plru: Vec<Vec<bool>>,
    /// PLRU leaf count: `ways` rounded up to a power of two.
    padded: u64,
    /// SLRU protected capacity: half the ways.
    prot_cap: usize,
    rng: Xorshift64,
    tick: u64,
    hits: u64,
    misses: u64,
}

fn plru_touch_ref(bits: &mut [bool], padded: u64, way: u64) {
    let mut node = padded + way;
    while node > 1 {
        let parent = node >> 1;
        // Point away from the touched child: left child => walk right.
        bits[(parent - 1) as usize] = node & 1 == 0;
        node = parent;
    }
}

fn plru_victim_ref(bits: &[bool], padded: u64, valid: u64) -> usize {
    let mut node = 1u64;
    let mut lo = 0u64;
    let mut span = padded;
    while span > 1 {
        span >>= 1;
        let right = bits[(node - 1) as usize] && lo + span < valid;
        node = (node << 1) | right as u64;
        if right {
            lo += span;
        }
    }
    lo as usize
}

impl PolicyReferenceCache {
    /// Builds a cache with explicit geometry; same contract as
    /// [`super::SectoredCache::new_with_policy`].
    pub fn new(
        size: u64,
        line_size: u64,
        sector_size: u64,
        ways: u32,
        policy: ReplacementPolicy,
    ) -> Self {
        assert!(size > 0 && line_size > 0 && sector_size > 0);
        assert_eq!(size % line_size, 0);
        assert_eq!(line_size % sector_size, 0);
        assert!((line_size / sector_size) <= 64);
        let total_lines = size / line_size;
        let (num_sets, ways) = if ways as u64 >= total_lines {
            (1, total_lines)
        } else {
            let mut ways = ways.max(1) as u64;
            while !total_lines.is_multiple_of(ways) {
                ways -= 1;
            }
            (total_lines / ways, ways)
        };
        let padded = ways.next_power_of_two();
        PolicyReferenceCache {
            line_size,
            sector_size,
            policy,
            num_sets,
            ways: ways as usize,
            sets: vec![Vec::new(); num_sets as usize],
            stamps: vec![vec![0; ways as usize]; num_sets as usize],
            protected: vec![vec![false; ways as usize]; num_sets as usize],
            plru: vec![vec![false; (padded - 1) as usize]; num_sets as usize],
            padded,
            prot_cap: (ways / 2) as usize,
            rng: Xorshift64::for_geometry(total_lines),
            tick: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// The policy this oracle simulates.
    pub fn policy(&self) -> ReplacementPolicy {
        self.policy
    }

    /// (hits, misses) counters since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }

    /// Number of sets (1 when fully associative).
    pub fn num_sets(&self) -> u64 {
        self.num_sets
    }

    /// Ways per set (after shrinking to a divisor of the line count).
    pub fn ways(&self) -> u32 {
        self.ways as u32
    }

    /// Invalidates all contents and recency state (and keeps the
    /// counters). The random victim stream survives, as in the engine.
    pub fn flush(&mut self) {
        for set in &mut self.sets {
            set.clear();
        }
        for v in &mut self.stamps {
            v.iter_mut().for_each(|s| *s = 0);
        }
        for v in &mut self.protected {
            v.iter_mut().for_each(|p| *p = false);
        }
        for v in &mut self.plru {
            v.iter_mut().for_each(|b| *b = false);
        }
    }

    fn touch(&mut self, set: usize, way: usize, tick: u64) {
        match self.policy {
            ReplacementPolicy::Lru => self.stamps[set][way] = tick,
            ReplacementPolicy::TreePlru => {
                plru_touch_ref(&mut self.plru[set], self.padded, way as u64)
            }
            ReplacementPolicy::Slru => {
                self.stamps[set][way] = tick;
                if !self.protected[set][way] && self.prot_cap > 0 {
                    // Promote; on overflow demote the protected-LRU back
                    // to probation as its MRU.
                    self.protected[set][way] = true;
                    let count = self.protected[set].iter().filter(|&&p| p).count();
                    if count > self.prot_cap {
                        let demote = (0..self.ways)
                            .filter(|&w| self.protected[set][w])
                            .min_by_key(|&w| self.stamps[set][w])
                            .expect("overflowing protected segment");
                        self.protected[set][demote] = false;
                        self.stamps[set][demote] = tick;
                    }
                }
            }
            ReplacementPolicy::Random | ReplacementPolicy::Bypass => {}
        }
    }

    /// Victim way for a full set, or `None` to skip allocation (bypass).
    fn victim(&mut self, set: usize) -> Option<usize> {
        match self.policy {
            ReplacementPolicy::Lru => (0..self.ways).min_by_key(|&w| self.stamps[set][w]),
            ReplacementPolicy::TreePlru => Some(plru_victim_ref(
                &self.plru[set],
                self.padded,
                self.ways as u64,
            )),
            ReplacementPolicy::Slru => (0..self.ways)
                .filter(|&w| !self.protected[set][w])
                .min_by_key(|&w| self.stamps[set][w])
                .or_else(|| (0..self.ways).min_by_key(|&w| self.stamps[set][w])),
            ReplacementPolicy::Random => Some(self.rng.below(self.ways as u64) as usize),
            ReplacementPolicy::Bypass => None,
        }
    }

    fn fill(&mut self, set: usize, way: usize, tick: u64) {
        match self.policy {
            ReplacementPolicy::Lru => self.stamps[set][way] = tick,
            ReplacementPolicy::TreePlru => {
                plru_touch_ref(&mut self.plru[set], self.padded, way as u64)
            }
            ReplacementPolicy::Slru => {
                // New lines enter probation.
                self.stamps[set][way] = tick;
                self.protected[set][way] = false;
            }
            ReplacementPolicy::Random | ReplacementPolicy::Bypass => {}
        }
    }

    /// Performs an access at byte address `addr`, allocating on miss.
    pub fn access(&mut self, addr: u64) -> Access {
        let line_addr = addr / self.line_size;
        let sector_bit = 1u64 << ((addr % self.line_size) / self.sector_size);
        let result = self.access_line(line_addr, sector_bit);
        if result.is_hit() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        result
    }

    /// [`Self::access`] on a pre-split address: the line address and the
    /// one-hot bit of the sector within it. Leaves the counters alone.
    pub fn access_line(&mut self, line_addr: u64, sector_bit: u64) -> Access {
        self.tick += 1;
        let tick = self.tick;
        let set = (line_addr % self.num_sets) as usize;
        if let Some(way) = self.sets[set].iter().position(|l| l.tag == line_addr) {
            self.touch(set, way, tick);
            let line = &mut self.sets[set][way];
            if line.valid_sectors & sector_bit != 0 {
                Access::Hit
            } else {
                line.valid_sectors |= sector_bit;
                Access::SectorMiss
            }
        } else if self.sets[set].len() < self.ways {
            // Ways fill densely from 0 (push = lowest free index).
            let way = self.sets[set].len();
            self.sets[set].push(PolLine {
                tag: line_addr,
                valid_sectors: sector_bit,
            });
            self.fill(set, way, tick);
            Access::LineMiss
        } else {
            match self.victim(set) {
                None => Access::LineMiss, // bypass: no allocation
                Some(way) => {
                    self.sets[set][way] = PolLine {
                        tag: line_addr,
                        valid_sectors: sector_bit,
                    };
                    self.fill(set, way, tick);
                    Access::LineMiss
                }
            }
        }
    }

    /// Peeks whether `addr`'s sector is resident without touching recency
    /// state or allocating.
    pub fn probe(&self, addr: u64) -> bool {
        let line_addr = addr / self.line_size;
        let sector_bit = 1u64 << ((addr % self.line_size) / self.sector_size);
        self.probe_line(line_addr, sector_bit)
    }

    /// [`Self::probe`] on a pre-split address (see [`Self::access_line`]).
    pub fn probe_line(&self, line_addr: u64, sector_bit: u64) -> bool {
        let set = (line_addr % self.num_sets) as usize;
        self.sets[set]
            .iter()
            .any(|l| l.tag == line_addr && l.valid_sectors & sector_bit != 0)
    }
}

#[cfg(test)]
mod policy_oracle_tests {
    use super::*;

    /// The per-policy oracle's LRU arm must agree with the frozen
    /// original oracle — anchoring the whole zoo to the historical
    /// behaviour through one shared baseline.
    #[test]
    fn lru_arm_matches_the_frozen_oracle() {
        for ways in [2u32, 4, u32::MAX] {
            let mut frozen = ReferenceSectoredCache::new(1024, 64, 32, ways);
            let mut zoo = PolicyReferenceCache::new(1024, 64, 32, ways, ReplacementPolicy::Lru);
            for i in 0..500u64 {
                let addr = (i * 97 + i / 5 * 31) % 4096;
                assert_eq!(frozen.access(addr), zoo.access(addr), "step {i}");
                assert_eq!(frozen.probe(addr ^ 64), zoo.probe(addr ^ 64));
            }
            assert_eq!(frozen.stats(), zoo.stats());
        }
    }
}
