//! The content-addressed result cache.
//!
//! A discovery cell — (preset × scenario × selection × plan fingerprint,
//! where the fingerprint already encodes seed, quirks, noise model, and
//! every measurement-relevant knob) — deterministically maps to one byte
//! sequence: the suite's byte-determinism invariants guarantee that a
//! recompute of the same cell can never produce different output. That is
//! what makes caching *provably safe*: serving stored bytes is
//! indistinguishable from rerunning the job. The economics are extreme
//! (SNIPPETS.md §3 measures ~117 ns hash-map hits against 180 ms–14 s
//! recomputes; this repo's cells measure 0.4–11 s), so the cache is the
//! highest-leverage component of the serve path.
//!
//! Addressing: the canonical cell descriptor ([`Job::cell`]) is hashed to
//! a 128-bit address (two independent FNV-1a streams). Entries store the
//! full descriptor alongside the bytes and verify it on every lookup, so
//! even a 128-bit collision degrades to a miss + overwrite, never to
//! serving the wrong cell's bytes.
//!
//! Eviction: exact LRU over a bounded entry count. Capacities are small
//! (hundreds of cells), so recency is tracked with a monotonic tick and
//! the victim found by a linear scan on insert — no intrusive list needed
//! at this scale. The map is a `BTreeMap` rather than a hash map so that
//! the victim scan iterates in a deterministic order (the workspace's
//! `clippy.toml` bans std hash containers: their iteration order is
//! randomized per process and per build).
//!
//! [`Job::cell`]: crate::suite::Job::cell

use std::collections::BTreeMap;
use std::sync::Arc;

/// A 128-bit content address plus the cell descriptor it was derived
/// from. The descriptor travels with the key so lookups can verify the
/// address actually names this cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheKey {
    cell: String,
    address: u128,
}

impl CacheKey {
    /// Derives the content address of a canonical cell descriptor.
    pub fn new(cell: &str) -> CacheKey {
        CacheKey {
            cell: cell.to_string(),
            address: address_of(cell),
        }
    }

    /// The canonical cell descriptor this key addresses.
    pub fn cell(&self) -> &str {
        &self.cell
    }

    /// The raw 128-bit content address.
    pub fn address(&self) -> u128 {
        self.address
    }
}

/// Two independent 64-bit FNV-1a streams (the second walks the bytes in
/// reverse with a perturbed offset basis), concatenated to 128 bits.
fn address_of(cell: &str) -> u128 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01B3;
    let mut fwd: u64 = OFFSET;
    for b in cell.bytes() {
        fwd ^= b as u64;
        fwd = fwd.wrapping_mul(PRIME);
    }
    let mut rev: u64 = OFFSET ^ 0x9e37_79b9_7f4a_7c15;
    for b in cell.bytes().rev() {
        rev ^= b as u64;
        rev = rev.wrapping_mul(PRIME);
    }
    ((fwd as u128) << 64) | rev as u128
}

/// Hit/miss/eviction counters, cheap enough to expose on every `stats`
/// request.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that returned stored bytes.
    pub hits: u64,
    /// Lookups that found nothing (or a verified address collision).
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to make room (LRU victims).
    pub evictions: u64,
}

#[derive(Debug)]
struct Entry {
    cell: String,
    bytes: Arc<str>,
    last_use: u64,
}

/// A bounded, LRU-evicting map from content address to canonical result
/// bytes.
#[derive(Debug)]
pub struct ResultCache {
    capacity: usize,
    map: BTreeMap<u128, Entry>,
    tick: u64,
    stats: CacheStats,
}

impl ResultCache {
    /// Creates a cache bounded to `capacity` entries (min 1).
    pub fn new(capacity: usize) -> ResultCache {
        ResultCache {
            capacity: capacity.max(1),
            map: BTreeMap::new(),
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Looks the key up, refreshing recency on a hit. A stored entry
    /// whose descriptor does not match the key's (a 128-bit address
    /// collision) is reported as a miss.
    pub fn get(&mut self, key: &CacheKey) -> Option<Arc<str>> {
        self.tick += 1;
        match self.map.get_mut(&key.address) {
            Some(entry) if entry.cell == key.cell => {
                entry.last_use = self.tick;
                self.stats.hits += 1;
                Some(Arc::clone(&entry.bytes))
            }
            _ => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Stores the bytes of a cell, evicting the least-recently-used entry
    /// when at capacity. Re-inserting an existing address overwrites in
    /// place (identical cells produce identical bytes, so this is only
    /// observable for address collisions, which lose their old tenant).
    pub fn insert(&mut self, key: &CacheKey, bytes: Arc<str>) {
        self.tick += 1;
        if !self.map.contains_key(&key.address) && self.map.len() >= self.capacity {
            if let Some(victim) = self
                .map
                .iter()
                .min_by_key(|(_, e)| e.last_use)
                .map(|(addr, _)| *addr)
            {
                self.map.remove(&victim);
                self.stats.evictions += 1;
            }
        }
        self.stats.insertions += 1;
        self.map.insert(
            key.address,
            Entry {
                cell: key.cell.clone(),
                bytes,
                last_use: self.tick,
            },
        );
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The entry-count bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(cell: &str) -> CacheKey {
        CacheKey::new(cell)
    }

    #[test]
    fn distinct_cells_have_distinct_addresses() {
        let cells = [
            "preset=T1000|scenario=bare-metal|sel=full|fp=v3|a",
            "preset=T1000|scenario=hostile|sel=full|fp=v3|a",
            "preset=T1000|scenario=bare-metal|sel=full|fp=v3|tlb=true",
            "preset=T1000|scenario=bare-metal|sel=shard1of2|fp=v3|a",
        ];
        for (i, a) in cells.iter().enumerate() {
            for b in cells.iter().skip(i + 1) {
                assert_ne!(key(a).address, key(b).address);
            }
        }
    }

    #[test]
    fn get_returns_exactly_the_inserted_bytes() {
        let mut cache = ResultCache::new(4);
        let k = key("cell-a");
        assert!(cache.get(&k).is_none());
        cache.insert(&k, Arc::from("{\"report\": 1}"));
        assert_eq!(cache.get(&k).as_deref(), Some("{\"report\": 1}"));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn lru_eviction_prefers_stale_entries() {
        let mut cache = ResultCache::new(2);
        let (a, b, c) = (key("a"), key("b"), key("c"));
        cache.insert(&a, Arc::from("A"));
        cache.insert(&b, Arc::from("B"));
        assert!(cache.get(&a).is_some()); // refresh a; b is now LRU
        cache.insert(&c, Arc::from("C"));
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&a).is_some(), "recently used survives");
        assert!(cache.get(&b).is_none(), "LRU victim evicted");
        assert!(cache.get(&c).is_some());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn address_collisions_degrade_to_misses_not_wrong_bytes() {
        let mut cache = ResultCache::new(4);
        let a = key("cell-a");
        // Forge a key with a's address but a different descriptor — the
        // only way to exercise a 128-bit collision deterministically.
        let forged = CacheKey {
            cell: "cell-b".to_string(),
            address: a.address,
        };
        cache.insert(&a, Arc::from("A"));
        assert!(
            cache.get(&forged).is_none(),
            "a colliding address must never serve another cell's bytes"
        );
    }
}
