//! Eviction-order golden tests for the replacement-policy zoo.
//!
//! Each test drives a tiny 4-way cache through a hand-computed probe
//! sequence and asserts the *exact* victim at every eviction, so a
//! regression in the recency state (LRU list, PLRU node bits, SLRU
//! segment lists) fails with a readable "line X should have been
//! evicted" diff instead of a downstream fingerprint flake.
//!
//! Every scenario runs twice: once against the fully-associative store
//! (4-line cache, one store under every policy) and once against the
//! set-associative per-set model (8 lines, 2 sets × 4 ways, driving only
//! even line addresses so everything lands in set 0). Within a set the
//! policies behave identically, so the golden orders are shared.

use mt4g_sim::cache::policy::Xorshift64;
use mt4g_sim::cache::{Access, ReplacementPolicy, SectoredCache, FULLY_ASSOCIATIVE};

/// A 4-way cache plus the line → byte-address mapping that confines the
/// probe stream to one way-group.
struct Harness {
    cache: SectoredCache,
    stride: u64,
    label: &'static str,
}

impl Harness {
    /// Both 4-way shapes of `policy`: fully associative and one set of a
    /// set-associative cache.
    fn both(policy: ReplacementPolicy) -> [Harness; 2] {
        [
            Harness {
                cache: SectoredCache::new_with_policy(256, 64, 64, FULLY_ASSOCIATIVE, policy),
                stride: 64,
                label: "fully-associative",
            },
            Harness {
                // 8 lines, 2 sets; even lines (stride 128) all map to set 0.
                cache: SectoredCache::new_with_policy(512, 64, 64, 4, policy),
                stride: 128,
                label: "set-associative",
            },
        ]
    }

    fn access(&mut self, line: u64) -> Access {
        self.cache.access(line * self.stride)
    }

    fn resident(&self, line: u64) -> bool {
        self.cache.probe(line * self.stride)
    }

    /// Resident lines among `0..upto`, in line order.
    fn residents(&self, upto: u64) -> Vec<u64> {
        (0..upto).filter(|&l| self.resident(l)).collect()
    }
}

#[test]
fn lru_evicts_in_exact_age_order() {
    for mut h in Harness::both(ReplacementPolicy::Lru) {
        for line in 0..4 {
            assert_eq!(h.access(line), Access::LineMiss);
        }
        h.access(1);
        h.access(3);
        // Age order is now 0 < 2 < 1 < 3: victims must follow it exactly.
        h.access(4);
        assert_eq!(
            h.residents(6),
            vec![1, 2, 3, 4],
            "{}: first victim is 0",
            h.label
        );
        h.access(5);
        assert_eq!(
            h.residents(6),
            vec![1, 3, 4, 5],
            "{}: second victim is 2",
            h.label
        );
    }
}

#[test]
fn tree_plru_victim_follows_the_pointer_bits() {
    for mut h in Harness::both(ReplacementPolicy::TreePlru) {
        for line in 0..4 {
            assert_eq!(h.access(line), Access::LineMiss);
        }
        // Sequential fills leave every tree bit pointing left; touching
        // line 0 points the root right. The victim walk then lands on
        // way 2 — NOT the true-LRU victim (line 1). That divergence is
        // the policy-discovery probe's whole signal.
        h.access(0);
        h.access(4);
        assert!(h.resident(1), "{}: true-LRU victim 1 must survive", h.label);
        assert_eq!(
            h.residents(6),
            vec![0, 1, 3, 4],
            "{}: PLRU evicts way 2",
            h.label
        );
        // Filling way 2 flips the root back left; the walk now follows
        // the left-subtree bit (pointing right since the line-1 fill) to
        // way 1.
        h.access(5);
        assert_eq!(
            h.residents(6),
            vec![0, 3, 4, 5],
            "{}: next victim is way 1",
            h.label
        );
    }
}

#[test]
fn slru_protects_reaccessed_lines_and_demotes_on_overflow() {
    for mut h in Harness::both(ReplacementPolicy::Slru) {
        for line in 0..4 {
            assert_eq!(h.access(line), Access::LineMiss);
        }
        // Promote 0 and 1 into the protected segment (cap = 2).
        h.access(0);
        h.access(1);
        // Victims must come from probation: lines 2 then 3, never 0/1.
        h.access(4);
        assert_eq!(
            h.residents(7),
            vec![0, 1, 3, 4],
            "{}: probation-LRU 2 first",
            h.label
        );
        h.access(5);
        assert_eq!(
            h.residents(7),
            vec![0, 1, 4, 5],
            "{}: then probation 3",
            h.label
        );
        // Promoting line 4 overflows protected {0, 1}: the protected-LRU
        // (line 0, promoted earliest) demotes to probation-MRU...
        h.access(4);
        // ...so the next victim is probation-LRU line 5, not line 0.
        h.access(6);
        assert_eq!(
            h.residents(7),
            vec![0, 1, 4, 6],
            "{}: demoted line 0 outlives probation line 5",
            h.label
        );
    }
}

#[test]
fn random_consults_the_documented_victim_stream() {
    // The random policy is pinned to the geometry-seeded xorshift64*
    // stream: a parallel RNG predicts every victim way. Way indices
    // correspond to fill order (dense from 0), for the FA arena and the
    // SA way-group alike.
    for (mut h, geometry_lines) in Harness::both(ReplacementPolicy::Random)
        .into_iter()
        .zip([4u64, 8])
    {
        let mut rng = Xorshift64::for_geometry(geometry_lines);
        let mut ways: [u64; 4] = [0, 1, 2, 3];
        for line in 0..4 {
            assert_eq!(h.access(line), Access::LineMiss);
        }
        for new_line in 4..12u64 {
            let victim = rng.below(4) as usize;
            let evicted = ways[victim];
            assert_eq!(h.access(new_line), Access::LineMiss);
            assert!(
                !h.resident(evicted),
                "{}: predicted victim line {evicted} must be gone",
                h.label
            );
            ways[victim] = new_line;
            for &l in &ways {
                assert!(h.resident(l), "{}: line {l} must survive", h.label);
            }
        }
    }
}

#[test]
fn bypass_streams_past_a_full_cache() {
    for mut h in Harness::both(ReplacementPolicy::Bypass) {
        for line in 0..4 {
            assert_eq!(h.access(line), Access::LineMiss);
        }
        // Full: new lines miss without allocating or evicting.
        for _ in 0..2 {
            assert_eq!(h.access(4), Access::LineMiss, "{}", h.label);
            assert_eq!(h.access(5), Access::LineMiss, "{}", h.label);
        }
        assert_eq!(
            h.residents(6),
            vec![0, 1, 2, 3],
            "{}: residents pinned",
            h.label
        );
        // Resident lines still hit; a flush reopens the ways.
        assert_eq!(h.access(0), Access::Hit);
        h.cache.flush();
        assert_eq!(h.access(4), Access::LineMiss);
        assert_eq!(
            h.access(4),
            Access::Hit,
            "{}: line 4 allocated post-flush",
            h.label
        );
    }
}
