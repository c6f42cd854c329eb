//! Layer probes: one layer's call, repeated at the footprint the workloads
//! really use. `prep` builds and fills the structure outside the timed
//! command; `probe` repeats the call and returns how many operations it
//! made, so `run.py`'s timing of the command divides into a per-call
//! cost.

use std::hint::black_box;

use mt4g_core::pchase::{calibrate_overhead, run_pchase_with_overhead, PchaseConfig};
use mt4g_core::report::{to_json_pretty, Report};
use mt4g_core::serve::{parse_request, CacheKey, ResultCache};
use mt4g_core::suite::{normalize_report, DiscoveryConfig, DiscoveryPlan, JobSpec, Selection};
use mt4g_sim::cache::{SectoredCache, FULLY_ASSOCIATIVE};
use mt4g_sim::device::{CacheKind, LoadFlags, MemorySpace};
use mt4g_sim::gpu::Gpu;
use mt4g_sim::noise::NoiseModel;
use mt4g_sim::presets;
use mt4g_stats::{geometric_reduction, ks_test};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::cells::{self, knob_config, small_pairs};
use crate::serve::{mix_lines, CACHE_CAP};

/// A cache walked as a ring of `stride`-spaced addresses.
struct Ring {
    cache: SectoredCache,
    ring: u64,
    stride: u64,
    next: u64,
}

impl Ring {
    fn new(cache: SectoredCache, ring: u64, stride: u64) -> Ring {
        let mut r = Ring {
            cache,
            ring,
            stride,
            next: 0,
        };
        r.walk(ring / stride); // one full lap: the fill
        r
    }

    fn walk(&mut self, n: u64) -> u64 {
        let mut hits = 0;
        for _ in 0..n {
            hits += self.cache.access(black_box(self.next)).is_hit() as u64;
            self.next = (self.next + self.stride) % self.ring;
        }
        hits
    }
}

/// The p-chase the H100-80 L2 size search runs at its largest footprint.
struct Chase {
    gpu: Gpu,
    cfg: PchaseConfig,
    overhead: f64,
}

impl Chase {
    fn new(noise: NoiseModel) -> Chase {
        let stock = presets::h100_80();
        let l2 = *stock.config.cache(CacheKind::L2).expect("H100 has an L2");
        let mut gpu = stock.fork(1);
        gpu.set_noise(noise);
        let overhead = calibrate_overhead(&mut gpu);
        let cfg = PchaseConfig {
            space: MemorySpace::Global,
            flags: LoadFlags::CACHE_GLOBAL,
            // The search's cap: twice the API-reported L2 total.
            array_bytes: 2 * stock.config.l2_total_size().expect("H100 has an L2"),
            stride_bytes: u64::from(l2.fetch_granularity),
            record_n: DiscoveryConfig::fast().record_n,
            warmup: true,
            sm: 0,
            core: 0,
        };
        let mut chase = Chase { gpu, cfg, overhead };
        chase.chase(1); // first touch of the host pages
        chase
    }

    /// Runs `n` chases; returns the simulated loads they executed.
    fn chase(&mut self, n: u64) -> u64 {
        let before = self.gpu.stats().loads_executed;
        for _ in 0..n {
            self.gpu.free_all();
            self.gpu.flush_caches();
            let run = run_pchase_with_overhead(&mut self.gpu, &self.cfg, self.overhead)
                .expect("chase ring fits device memory");
            black_box(run.latencies.len());
        }
        self.gpu.stats().loads_executed - before
    }

    /// Allocates and initializes the ring `n` times; returns elements.
    fn init(&mut self, n: u64) -> u64 {
        let mut elems = 0;
        for _ in 0..n {
            self.gpu.free_all();
            let buf = self
                .gpu
                .alloc(self.cfg.space, self.cfg.array_bytes)
                .expect("chase ring fits device memory");
            elems += self
                .gpu
                .init_pchase(buf, self.cfg.array_bytes, self.cfg.stride_bytes);
        }
        elems
    }
}

/// Latency rows drawn the way a p-chase draws them.
fn noisy_rows(rows: usize, base: u32, step: u32) -> Vec<Vec<f64>> {
    let mut rng = ChaCha8Rng::seed_from_u64(0x5eed);
    let n = DiscoveryConfig::fast().record_n;
    (0..rows as u32)
        .map(|r| {
            (0..n)
                .map(|_| f64::from(NoiseModel::DEFAULT.sample(&mut rng, base + r * step)))
                .collect()
        })
        .collect()
}

/// Prepared probe state, kept between `prep` and `probe` commands.
#[derive(Default)]
pub struct Probes {
    fa_thrash: Option<Ring>,
    fa_fit: Option<Ring>,
    chase: Option<Chase>,
    chase_silent: Option<Chase>,
    rows: Vec<Vec<f64>>,
    specs: Vec<JobSpec>,
    devices: Vec<Gpu>,
    report: Option<(Report, bool)>,
    lines: Vec<String>,
    cache: Option<(ResultCache, Vec<CacheKey>)>,
}

/// A small-cells report: MI210 bare metal with every opt-in unit.
fn sample_report() -> Result<(Report, String, bool), String> {
    let spec = cells::CellSpec {
        preset: "MI210",
        scenario: mt4g_sim::scenario::Scenario::BareMetal,
        seed: 1,
    };
    let cfg = knob_config();
    let mut cell = cells::resolve(&spec)?;
    cells::plan(&mut cell, &cfg);
    cells::execute(&mut cell, &cfg)?;
    cells::serialize(&mut cell)?;
    let has_l3 = cell.gpu.config.cache(CacheKind::L3).is_some();
    let report = cell.report.take().ok_or("no report")?;
    Ok((report, cell.bytes, has_l3))
}

impl Probes {
    /// Builds and fills the structure a probe measures.
    pub fn prep(&mut self, name: &str) -> Result<(), String> {
        match name {
            "fa_thrash" => {
                let stock = presets::h100_80();
                let l2 = *stock.config.cache(CacheKind::L2).ok_or("no L2")?;
                let size = stock.config.l2_total_size().ok_or("no L2")?;
                let cache = SectoredCache::new(
                    size,
                    u64::from(l2.line_size),
                    u64::from(l2.fetch_granularity),
                    FULLY_ASSOCIATIVE,
                );
                self.fa_thrash = Some(Ring::new(cache, 2 * size, u64::from(l2.fetch_granularity)));
            }
            "fa_fit" => {
                let stock = presets::t1000();
                let l1 = *stock.config.cache(CacheKind::L1).ok_or("no L1")?;
                let cache = SectoredCache::new(
                    l1.size,
                    u64::from(l1.line_size),
                    u64::from(l1.fetch_granularity),
                    FULLY_ASSOCIATIVE,
                );
                self.fa_fit = Some(Ring::new(
                    cache,
                    l1.size / 2,
                    u64::from(l1.fetch_granularity),
                ));
            }
            "chase" | "init" => {
                if self.chase.is_none() {
                    self.chase = Some(Chase::new(NoiseModel::DEFAULT));
                }
            }
            "chase_silent" => self.chase_silent = Some(Chase::new(NoiseModel::NONE)),
            "ks" | "reduction" => self.rows = noisy_rows(16, 300, 4),
            "resolve" | "plan" => {
                self.specs = small_pairs()
                    .into_iter()
                    .map(|(preset, scenario)| JobSpec {
                        gpu: preset.to_string(),
                        scenario,
                        cfg: knob_config(),
                        selection: Selection::Full,
                    })
                    .collect();
                self.devices = small_pairs()
                    .into_iter()
                    .map(|(preset, scenario)| {
                        let stock = presets::by_name(preset).expect("small preset exists");
                        scenario.realize(stock).expect("scenario applies")
                    })
                    .collect();
            }
            "serialize" => {
                let (report, _, has_l3) = sample_report()?;
                self.report = Some((report, has_l3));
            }
            "parse" => self.lines = mix_lines(),
            "cache_get" => {
                let (_, bytes, _) = sample_report()?;
                let value: std::sync::Arc<str> = bytes.into();
                let mut cache = ResultCache::new(CACHE_CAP);
                let keys: Vec<CacheKey> = (0..CACHE_CAP)
                    .map(|i| {
                        let line = &mix_lines()[i % mix_lines().len()];
                        let req = parse_request(line).map_err(|e| e.message)?;
                        let job = req
                            .to_spec(1)
                            .map_err(|e| e.message)?
                            .resolve()
                            .map_err(|e| e.to_string())?;
                        Ok(CacheKey::new(&format!("{}|copy={i}", job.cell())))
                    })
                    .collect::<Result<_, String>>()?;
                for key in &keys {
                    cache.insert(key, value.clone());
                }
                self.cache = Some((cache, keys));
            }
            "noise" | "noise_hostile" => {}
            _ => return Err(format!("unknown probe {name}")),
        }
        Ok(())
    }

    /// Runs probe `name` with repetition count `n`; returns the number of
    /// operations made (accesses, loads, elements or calls).
    pub fn probe(&mut self, name: &str, n: u64) -> Result<u64, String> {
        let unprepared = || format!("probe {name} is not prepared");
        Ok(match name {
            "noise" | "noise_hostile" => {
                let model = if name == "noise" {
                    NoiseModel::DEFAULT
                } else {
                    NoiseModel::HOSTILE
                };
                let mut rng = ChaCha8Rng::seed_from_u64(n);
                let mut acc = 0.0;
                for _ in 0..n {
                    let d = model.draw(&mut rng);
                    acc += d.jitter + d.outlier;
                }
                black_box(acc);
                n
            }
            "fa_thrash" | "fa_fit" => {
                let ring = if name == "fa_thrash" {
                    self.fa_thrash.as_mut()
                } else {
                    self.fa_fit.as_mut()
                };
                black_box(ring.ok_or_else(unprepared)?.walk(n));
                n
            }
            "chase" => self.chase.as_mut().ok_or_else(unprepared)?.chase(n),
            "chase_silent" => self.chase_silent.as_mut().ok_or_else(unprepared)?.chase(n),
            "init" => self.chase.as_mut().ok_or_else(unprepared)?.init(n),
            "ks" => {
                let rows = &self.rows;
                if rows.len() < 2 {
                    return Err(unprepared());
                }
                for i in 0..n as usize {
                    black_box(ks_test(&rows[i % 2], &rows[1 - i % 2], 0.001));
                }
                n
            }
            "reduction" => {
                if self.rows.is_empty() {
                    return Err(unprepared());
                }
                for _ in 0..n {
                    black_box(geometric_reduction(black_box(&self.rows)));
                }
                n
            }
            "resolve" => {
                if self.specs.is_empty() {
                    return Err(unprepared());
                }
                for i in 0..n as usize {
                    let spec = self.specs[i % self.specs.len()].clone();
                    black_box(spec.resolve().map_err(|e| e.to_string())?);
                }
                n
            }
            "plan" => {
                if self.devices.is_empty() {
                    return Err(unprepared());
                }
                let cfg = knob_config();
                for i in 0..n as usize {
                    black_box(DiscoveryPlan::new(
                        &self.devices[i % self.devices.len()],
                        &cfg,
                    ));
                }
                n
            }
            "serialize" => {
                let (report, has_l3) = self.report.as_mut().ok_or_else(unprepared)?;
                for _ in 0..n {
                    normalize_report(report, *has_l3);
                    black_box(to_json_pretty(report).map_err(|e| e.to_string())?.len());
                }
                n
            }
            "parse" => {
                if self.lines.is_empty() {
                    return Err(unprepared());
                }
                for i in 0..n as usize {
                    let req =
                        parse_request(&self.lines[i % self.lines.len()]).map_err(|e| e.message)?;
                    black_box(req.to_spec(1).map_err(|e| e.message)?);
                }
                n
            }
            "cache_get" => {
                let (cache, keys) = self.cache.as_mut().ok_or_else(unprepared)?;
                let mut hits = 0;
                for i in 0..n as usize {
                    hits += cache.get(black_box(&keys[i % keys.len()])).is_some() as u64;
                }
                if hits != n {
                    return Err(format!("cache_get: {hits} of {n} lookups hit"));
                }
                n
            }
            _ => return Err(format!("unknown probe {name}")),
        })
    }
}
