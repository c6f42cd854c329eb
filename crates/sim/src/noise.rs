//! Measurement-noise model.
//!
//! Real GPU clock reads and load latencies jitter — and occasionally spike
//! by hundreds of cycles (interrupts, DVFS, TLB walks, refresh). MT4G's
//! whole reason for using the K-S test is robustness against exactly these
//! artifacts, so the simulator must produce them: Gaussian-ish jitter on
//! every timed load plus rare heavy-tailed outliers. The RNG is seedable
//! (ChaCha8) so every experiment is reproducible.

use rand::Rng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

/// Parameters of the latency-noise model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NoiseModel {
    /// Standard deviation of the per-load jitter, in cycles.
    pub jitter_sd: f64,
    /// Probability of an outlier spike on any timed load.
    pub outlier_prob: f64,
    /// Outlier magnitude range (uniform), in cycles.
    pub outlier_min: u32,
    /// Upper bound of the outlier magnitude range.
    pub outlier_max: u32,
}

impl NoiseModel {
    /// A realistic default: ~2 cycles of jitter, 1 in 2000 loads spiking by
    /// 200–1500 cycles.
    pub const DEFAULT: NoiseModel = NoiseModel {
        jitter_sd: 2.0,
        outlier_prob: 0.0005,
        outlier_min: 200,
        outlier_max: 1500,
    };

    /// Noise disabled — for debugging and for tests that need exact cycle
    /// counts.
    pub const NONE: NoiseModel = NoiseModel {
        jitter_sd: 0.0,
        outlier_prob: 0.0,
        outlier_min: 0,
        outlier_max: 0,
    };

    /// The hostile-environment profile: a shared, oversubscribed or
    /// virtualised GPU where every timed load jitters at twice the
    /// default standard deviation and interrupt-scale spikes are 6× more
    /// frequent (and larger) than [`NoiseModel::DEFAULT`]'s. The
    /// statistical pipeline (winsorised
    /// means, K-S change-point detection, stratum-relative hit
    /// classification) must still recover the planted topology — the
    /// hostile preset family and the hostile scenario exist to keep that
    /// robustness continuously tested.
    pub const HOSTILE: NoiseModel = NoiseModel {
        jitter_sd: 4.0,
        outlier_prob: 0.003,
        outlier_min: 300,
        outlier_max: 2200,
    };

    /// Samples a noisy latency around `base` cycles. The result is at least
    /// 1 cycle — hardware clocks never run backwards.
    ///
    /// Equivalent to `self.apply(base, self.draw(rng))`.
    pub fn sample(&self, rng: &mut ChaCha8Rng, base: u32) -> u32 {
        self.apply(base, self.draw(rng))
    }

    /// Draws the random part of one sample, without a base latency.
    ///
    /// Consumes, in order: a Box–Muller gaussian (two uniforms) iff
    /// jitter is enabled, then an outlier coin iff outliers are enabled,
    /// then the spike magnitude iff the coin landed. The draws never
    /// depend on `base`, so drawing a sample ahead of its load and
    /// applying it afterwards gives what [`Self::sample`] gives. The
    /// simulator calls this once per timed load; untimed loads draw
    /// nothing.
    #[inline]
    pub fn draw(&self, rng: &mut ChaCha8Rng) -> NoiseDraw {
        let jitter = if self.jitter_sd > 0.0 {
            gaussian(rng) * self.jitter_sd
        } else {
            0.0
        };
        let outlier = if self.outlier_prob > 0.0 && rng.gen_bool(self.outlier_prob) {
            rng.gen_range(self.outlier_min..=self.outlier_max) as f64
        } else {
            0.0
        };
        NoiseDraw { jitter, outlier }
    }

    /// Fills `out` with consecutive draws: what `out.len()` calls of
    /// [`Self::draw`] return, leaving the RNG where they would. The
    /// simulator draws a timed pass's noise this way, before its loads.
    pub fn draw_into(&self, rng: &mut ChaCha8Rng, out: &mut [NoiseDraw]) {
        for d in out {
            *d = self.draw(rng);
        }
    }

    /// Applies a pre-drawn sample to `base`. The additions replay the
    /// historical op order exactly — `(base + jitter) + outlier` — and a
    /// disabled term contributes `+ 0.0`, which is exact for every value
    /// the sum can take (it is never `-0.0`: `base as f64 >= +0.0` and a
    /// round-to-nearest sum of non-negative-zero operands can only be
    /// `-0.0` when both operands are), so results are bit-identical to
    /// the branchy original.
    #[inline]
    pub fn apply(&self, base: u32, draw: NoiseDraw) -> u32 {
        (((base as f64) + draw.jitter) + draw.outlier)
            .round()
            .max(1.0) as u32
    }
}

/// The random part of one [`NoiseModel::sample`], drawable ahead of its
/// load: the two additive terms are kept separate so [`NoiseModel::apply`] can
/// replay the exact FP op order of the fused path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NoiseDraw {
    /// Gaussian jitter term (`gaussian() * jitter_sd`); `0.0` when jitter
    /// is disabled.
    pub jitter: f64,
    /// Outlier spike magnitude; `0.0` when the outlier coin came up tails
    /// or outliers are disabled.
    pub outlier: f64,
}

impl Default for NoiseModel {
    fn default() -> Self {
        Self::DEFAULT
    }
}

/// Standard normal variate via Box–Muller (we only need one per call; the
/// discarded second variate keeps the code branch-free).
fn gaussian(rng: &mut ChaCha8Rng) -> f64 {
    let u1: f64 = rng.gen_range(f64::MIN_POSITIVE..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn no_noise_is_identity() {
        let mut rng = ChaCha8Rng::seed_from_u64(1);
        for base in [1u32, 38, 843] {
            assert_eq!(NoiseModel::NONE.sample(&mut rng, base), base);
        }
    }

    #[test]
    fn jitter_is_centred_on_base() {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let model = NoiseModel {
            jitter_sd: 2.0,
            outlier_prob: 0.0,
            outlier_min: 0,
            outlier_max: 0,
        };
        let n = 20_000;
        let mean: f64 = (0..n)
            .map(|_| model.sample(&mut rng, 100) as f64)
            .sum::<f64>()
            / n as f64;
        assert!((mean - 100.0).abs() < 0.2, "mean {mean}");
    }

    #[test]
    fn outliers_occur_at_roughly_configured_rate() {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let model = NoiseModel {
            jitter_sd: 0.0,
            outlier_prob: 0.01,
            outlier_min: 500,
            outlier_max: 500,
        };
        let n = 50_000;
        let spikes = (0..n).filter(|_| model.sample(&mut rng, 100) > 300).count();
        let rate = spikes as f64 / n as f64;
        assert!((0.005..0.02).contains(&rate), "rate {rate}");
    }

    #[test]
    fn latency_never_below_one() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let model = NoiseModel {
            jitter_sd: 50.0,
            outlier_prob: 0.0,
            outlier_min: 0,
            outlier_max: 0,
        };
        for _ in 0..1000 {
            assert!(model.sample(&mut rng, 2) >= 1);
        }
    }

    #[test]
    fn batched_draws_match_per_element_sampling_in_rng_lockstep() {
        // Pre-drawing a whole batch of NoiseDraws and applying them to
        // bases afterwards must produce the same latencies AND leave the
        // RNG at the same position as interleaved per-element sample()
        // calls — the invariant that lets a caller draw ahead of its loads.
        // The same holds for `draw_into` in chunks of 1, 255, 256 and 257
        // draws (as `pchase_batch` draws a pass, in chunks of 256), with
        // the RNG state checked after every chunk.
        for model in [NoiseModel::DEFAULT, NoiseModel::HOSTILE, NoiseModel::NONE] {
            let mut per_elem = ChaCha8Rng::seed_from_u64(7);
            let mut batched = ChaCha8Rng::seed_from_u64(7);
            let mut bulk = ChaCha8Rng::seed_from_u64(7);
            let bases: Vec<u32> = (0..4096u32).map(|i| 1 + (i * 37) % 900).collect();

            let expected: Vec<u32> = bases
                .iter()
                .map(|&b| model.sample(&mut per_elem, b))
                .collect();

            let draws: Vec<NoiseDraw> =
                (0..bases.len()).map(|_| model.draw(&mut batched)).collect();
            let got: Vec<u32> = bases
                .iter()
                .zip(&draws)
                .map(|(&b, &d)| model.apply(b, d))
                .collect();

            assert_eq!(expected, got);

            let mut stepped = ChaCha8Rng::seed_from_u64(7);
            let mut chunk = [NoiseDraw::default(); 257];
            let mut bulk_got = Vec::with_capacity(bases.len());
            for len in [1usize, 255, 256, 257].into_iter().cycle() {
                let len = len.min(bases.len() - bulk_got.len());
                model.draw_into(&mut bulk, &mut chunk[..len]);
                for _ in 0..len {
                    model.draw(&mut stepped);
                }
                assert_eq!(bulk, stepped, "RNG state after a chunk of {len}");
                let at = bulk_got.len();
                bulk_got.extend((at..at + len).map(|i| model.apply(bases[i], chunk[i - at])));
                if bulk_got.len() == bases.len() {
                    break;
                }
            }
            assert_eq!(expected, bulk_got, "{model:?}");
            assert_eq!(per_elem, bulk, "RNG state after the bulk draws");
            // Same stream position afterwards: the next draw agrees.
            assert_eq!(
                model.sample(&mut per_elem, 123),
                model.sample(&mut batched, 123),
            );
            assert_eq!(per_elem, batched, "RNG state must be identical");
            if model == NoiseModel::NONE {
                assert_eq!(per_elem, ChaCha8Rng::seed_from_u64(7), "NONE draws nothing");
            }
        }
    }

    #[test]
    fn deterministic_for_equal_seeds() {
        let model = NoiseModel::DEFAULT;
        let mut a = ChaCha8Rng::seed_from_u64(42);
        let mut b = ChaCha8Rng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(model.sample(&mut a, 120), model.sample(&mut b, 120));
        }
    }
}
