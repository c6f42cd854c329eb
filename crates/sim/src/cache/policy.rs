//! The replacement-policy zoo: which resident line a cache level evicts.
//!
//! Real GPU caches are not exact true-LRU — L1s are commonly tree-PLRU,
//! some levels behave like segmented LRU and streaming workloads can
//! bypass allocation entirely. The discovery methodology only generalizes
//! if the simulator can *plant* such evictors per level and the suite can
//! fingerprint them blind, so eviction is promoted from a hard-coded LRU
//! to a per-level strategy:
//!
//! * [`ReplacementPolicy::Lru`] — exact true-LRU, the default. Behaviour
//!   is byte-identical to the historical engine (pinned by the reference
//!   oracle and the differential proptests), so every pre-existing report
//!   stays byte-stable.
//! * [`ReplacementPolicy::TreePlru`] — tree pseudo-LRU: one bit per
//!   internal node of a binary tree over the ways; a touch points every
//!   ancestor away from the touched leaf, the victim walk follows the
//!   bits. Non-power-of-two way counts use the next power of two with the
//!   invalid tail leaves skipped during the walk.
//! * [`ReplacementPolicy::Slru`] — segmented LRU: new lines enter a
//!   *probation* segment; a re-reference promotes to a *protected*
//!   segment capped at half the ways (protected overflow demotes the
//!   protected-LRU back to probation-MRU). Victims come from probation
//!   first — the scan-resistant shape of the SLRU/TinyLFU family.
//! * [`ReplacementPolicy::Random`] — uniform random victim from a seeded
//!   xorshift64* stream. Deterministic per cache instance (the seed is
//!   derived from the geometry), but repeated identical probe trials
//!   observe *different* eviction orders because the stream advances —
//!   exactly the signature the policy-discovery benchmark keys on.
//! * [`ReplacementPolicy::Bypass`] — streaming/no-allocate mode: lines
//!   allocate only while the cache (set) has free ways; once full, new
//!   lines bypass the cache entirely and resident lines are never
//!   evicted until a flush.
//!
//! The fully-associative store in [`super`] and the naive per-set model
//! in [`super::reference`] (which is also the set-associative
//! organisation) implement the *same* spec; the per-policy differential
//! proptests in `crates/sim/tests/prop.rs` prove them
//! hit/miss/eviction-for-eviction equivalent.

use serde::{Deserialize, Serialize};

/// Which replacement policy a cache level runs (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ReplacementPolicy {
    /// Exact true-LRU (the default; behaviour of the historical engine).
    #[default]
    Lru,
    /// Tree pseudo-LRU (one bit per internal tree node).
    TreePlru,
    /// Segmented LRU (probation/protected, protected capped at half).
    Slru,
    /// Seeded uniform-random victim.
    Random,
    /// Streaming/no-allocate once full.
    Bypass,
}

impl ReplacementPolicy {
    /// All policies, in a stable order (used by the discovery classifier
    /// and the test matrices).
    pub const ALL: [ReplacementPolicy; 5] = [
        ReplacementPolicy::Lru,
        ReplacementPolicy::TreePlru,
        ReplacementPolicy::Slru,
        ReplacementPolicy::Random,
        ReplacementPolicy::Bypass,
    ];

    /// Stable lower-case label (CLI/report spelling).
    pub fn label(self) -> &'static str {
        match self {
            ReplacementPolicy::Lru => "lru",
            ReplacementPolicy::TreePlru => "tree-plru",
            ReplacementPolicy::Slru => "slru",
            ReplacementPolicy::Random => "random",
            ReplacementPolicy::Bypass => "bypass",
        }
    }

    /// Parses a [`Self::label`] spelling (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        ReplacementPolicy::ALL
            .into_iter()
            .find(|p| p.label().eq_ignore_ascii_case(s))
    }
}

impl std::fmt::Display for ReplacementPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The deterministic RNG behind [`ReplacementPolicy::Random`]: xorshift64*
/// with a geometry-derived seed, so a cache instance's victim stream is
/// bit-reproducible across runs, jobs and shards (every fork rebuilds the
/// hierarchy and restarts the stream) while consecutive probe trials
/// within one run observe different victims.
#[derive(Debug, Clone)]
pub struct Xorshift64 {
    state: u64,
}

impl Xorshift64 {
    /// Seeds the stream from the cache geometry. Seedless of any external
    /// entropy on purpose — the simulation must be bit-reproducible.
    pub fn for_geometry(capacity_lines: u64) -> Self {
        // splitmix64 finalizer over a fixed tag, never zero.
        let mut z = (capacity_lines ^ 0x5EED_0CAC_4E00_0E71).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Xorshift64 { state: z.max(1) }
    }

    /// Next raw 64-bit draw.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform draw in `0..n` (n > 0) by modulo — the tiny bias is
    /// irrelevant for victim selection and keeps the oracle trivial.
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_round_trip() {
        for p in ReplacementPolicy::ALL {
            assert_eq!(ReplacementPolicy::parse(p.label()), Some(p));
            assert_eq!(ReplacementPolicy::parse(&p.label().to_uppercase()), Some(p));
        }
        assert_eq!(ReplacementPolicy::parse("fifo"), None);
    }

    #[test]
    fn default_is_lru() {
        assert_eq!(ReplacementPolicy::default(), ReplacementPolicy::Lru);
    }

    #[test]
    fn rng_is_deterministic_per_geometry() {
        let mut a = Xorshift64::for_geometry(1904);
        let mut b = Xorshift64::for_geometry(1904);
        let mut c = Xorshift64::for_geometry(256);
        let xs: Vec<u64> = (0..8).map(|_| a.next_u64()).collect();
        let ys: Vec<u64> = (0..8).map(|_| b.next_u64()).collect();
        let zs: Vec<u64> = (0..8).map(|_| c.next_u64()).collect();
        assert_eq!(xs, ys, "same geometry, same stream");
        assert_ne!(xs, zs, "different geometry, different stream");
    }

    #[test]
    fn serde_round_trips_and_defaults() {
        let json = serde_json::to_string(&ReplacementPolicy::TreePlru).unwrap();
        let back: ReplacementPolicy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ReplacementPolicy::TreePlru);
    }
}
