//! The simulated GPU: device memory bookkeeping, kernel execution with a
//! cycle clock, and measurement noise.
//!
//! [`Gpu`] is the object the MT4G tool drives. It deliberately exposes only
//! what real hardware exposes: buffer allocation, kernel launch (of
//! [`crate::isa::Kernel`]s), and the vendor query APIs in [`crate::api`].
//! Ground truth lives in [`crate::device::DeviceConfig`], which tests and
//! benches use for validation — the discovery pipeline itself must never
//! read it (beyond what the API layer legitimately reports).
//!
//! Device memory stores no words. A buffer is bookkeeping (base and
//! length), and a p-chase ring made by [`Gpu::init_pchase`] is a value —
//! base, stride, element count — whose element `i` reads as its
//! successor's index, `i + 1 mod count`. Because a ring is a value, the
//! chases of a prime/probe sequence from a flushed hierarchy — laps over
//! disjoint rings, then one pass that re-chases one of them — have a
//! closed form on fully-associative levels, and [`Gpu::pchase_batch`]
//! charges them without walking them.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::device::{DeviceConfig, LoadFlags, MemorySpace, Vendor, CONSTANT_ARRAY_LIMIT};
use crate::hierarchy::{LoadResolution, MemorySubsystem};
use crate::isa::{Instr, Kernel};
use crate::noise::{NoiseDraw, NoiseModel};

/// Handle to a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(usize);

/// A p-chase ring: `count` elements `stride` bytes apart from `base`, the
/// element at index `i` pointing to index `i + 1`, the last one back to 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Ring {
    pub(crate) base: u64,
    pub(crate) stride: u64,
    pub(crate) count: u64,
}

impl Ring {
    /// Address of the element after the one that starts at `addr`.
    #[inline]
    pub(crate) fn next(&self, addr: u64) -> u64 {
        let next = addr + self.stride;
        if next == self.base + self.count * self.stride {
            self.base
        } else {
            next
        }
    }

    /// What a 4-byte read at `addr` (at or past `base`) returns: the
    /// successor's index inside an element's first four bytes, 0 between
    /// elements and past the last one.
    fn read(&self, addr: u64) -> u32 {
        let off = addr - self.base;
        let index = off / self.stride;
        if off % self.stride < 4 && index < self.count {
            ((index + 1) % self.count) as u32
        } else {
            0
        }
    }
}

#[derive(Debug)]
struct Buffer {
    base: u64,
    /// Readable bytes: the requested size rounded up to a whole word. A
    /// ring's partial last element may end past this; that space belongs
    /// to the next allocation.
    len: u64,
    /// The ring [`Gpu::init_pchase`] made of this buffer, if any.
    ring: Option<Ring>,
}

/// What a 4-byte read at device address `addr` returns: a ring element's
/// successor index at the element's first word, and 0 anywhere else —
/// between elements, past a ring's last element, in a buffer never made
/// a ring, and outside every buffer (a zero page).
fn read_mem(buffers: &[Buffer], addr: u64) -> u32 {
    buffers
        .iter()
        .find(|buf| addr >= buf.base && addr + 4 <= buf.base + buf.len)
        .and_then(|buf| buf.ring)
        .map_or(0, |ring| ring.read(addr))
}

/// Cycle cost of simple ALU instructions.
const ALU_COST: u64 = 1;
/// Cycle cost of a shared-memory store inside the timed step.
const STORE_SHARED_COST: u64 = 2;
/// Timed steps whose noise [`Gpu::pchase_batch`] draws at once, on the
/// stack: a benchmark's whole pass (256 recorded latencies or fewer).
const NOISE_CHUNK: usize = 256;

/// Outcome of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchResult {
    /// Values recorded via [`Instr::Record`] (at most the launch's record
    /// cap — the "first N results" of the paper).
    pub records: Vec<u32>,
    /// GPU cycles the kernel took.
    pub cycles: u64,
}

/// One batched p-chase: an untimed warm-up lap of `warm_steps` loads
/// from the ring's first element, then `timed_steps` timed loads
/// restarting from it. It is the native form of the `KernelBuilder`
/// chase kernels: `pchase_kernel` (with or without its warm-up),
/// `pchase_warm_kernel` (no timed steps) and `pchase_timed_kernel` (no
/// warm-up). Field semantics mirror the kernel builder's parameters,
/// except that `base` must start a ring of stride `elem_bytes` made by
/// [`Gpu::init_pchase`]: the batch steps that ring without reading
/// memory. A batch whose warm-up is exactly one lap of the ring, or an
/// observation pass (no warm-up, at most one lap of timed steps) over a
/// ring an earlier batch warmed, may be charged in closed form (see
/// [`Gpu::pchase_batch`]).
#[derive(Debug, Clone, Copy)]
pub struct PchaseBatch {
    /// Device base address of the chase ring (its first element).
    pub base: u64,
    /// The ring's stride between consecutive elements, in bytes.
    pub elem_bytes: u64,
    /// Untimed warm-up loads (a full lap is the ring's element count; 0
    /// skips the warm-up).
    pub warm_steps: u64,
    /// Timed loads (0 for a warm-up-only pass).
    pub timed_steps: u64,
    /// Logical memory space of the loads.
    pub space: MemorySpace,
    /// Cache-policy flags.
    pub flags: LoadFlags,
}

/// Aggregate counters, used for the run-time accounting of Sec. V-A.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpuStats {
    /// Kernels launched since construction.
    pub kernels_launched: u64,
    /// Loads the device executed (timed + warm-up), whether the host
    /// walked them or charged them in closed form.
    pub loads_executed: u64,
    /// Total simulated GPU cycles across launches. Timed loads are charged
    /// their noisy latency, untimed (warm-up) loads their noiseless one.
    pub total_cycles: u64,
}

/// Error returned by allocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AllocError {
    /// Constant-memory arrays are limited to 64 KiB on NVIDIA.
    ConstantLimitExceeded {
        /// Requested size in bytes.
        requested: u64,
    },
    /// The device memory is exhausted.
    OutOfMemory,
}

impl std::fmt::Display for AllocError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AllocError::ConstantLimitExceeded { requested } => write!(
                f,
                "constant array of {requested} B exceeds the 64 KiB limit"
            ),
            AllocError::OutOfMemory => write!(f, "device memory exhausted"),
        }
    }
}

impl std::error::Error for AllocError {}

/// A simulated GPU device.
#[derive(Debug)]
pub struct Gpu {
    /// The ground-truth configuration (presets plant the paper's values).
    pub config: DeviceConfig,
    mem: MemorySubsystem,
    noise: NoiseModel,
    rng: ChaCha8Rng,
    seed: u64,
    buffers: Vec<Buffer>,
    next_base: u64,
    allocated: u64,
    cycle: u64,
    stats: GpuStats,
}

impl Gpu {
    /// Creates a GPU with the default noise model and a fixed seed.
    pub fn new(config: DeviceConfig) -> Self {
        Self::with_seed(config, 0x4d54_3447) // "MT4G"
    }

    /// Creates a GPU with an explicit RNG seed (noise reproducibility).
    pub fn with_seed(config: DeviceConfig, seed: u64) -> Self {
        let mem = MemorySubsystem::new(&config);
        Gpu {
            mem,
            noise: NoiseModel::DEFAULT,
            rng: ChaCha8Rng::seed_from_u64(seed),
            seed,
            buffers: Vec::new(),
            next_base: 0x1_0000, // leave a null guard page
            allocated: 0,
            cycle: 0,
            stats: GpuStats::default(),
            config,
        }
    }

    /// The base RNG seed this GPU was constructed with.
    pub fn base_seed(&self) -> u64 {
        self.seed
    }

    /// Forks an independent, pristine device for one unit of parallel
    /// work: same ground-truth configuration and noise model, fresh caches
    /// / buffers / counters, and an RNG seeded from the base seed and
    /// `stream`. Forking the same stream always yields the same device, so
    /// work units executed concurrently, sequentially, or in different
    /// shard processes observe bit-identical noise.
    pub fn fork(&self, stream: u64) -> Gpu {
        let mut forked = Gpu::with_seed(self.config.clone(), stream_seed(self.seed, stream));
        forked.noise = self.noise;
        forked
    }

    /// Replaces the noise model (e.g. [`NoiseModel::NONE`] in unit tests,
    /// [`NoiseModel::HOSTILE`] in the hostile scenario).
    pub fn set_noise(&mut self, noise: NoiseModel) {
        self.noise = noise;
    }

    /// The active measurement-noise model.
    pub fn noise(&self) -> NoiseModel {
        self.noise
    }

    /// The GPU's vendor.
    pub fn vendor(&self) -> Vendor {
        self.config.vendor
    }

    /// Launch / load / cycle counters.
    pub fn stats(&self) -> GpuStats {
        self.stats
    }

    /// Loads walked on the host through the memory subsystem since
    /// construction: eager batch loads, raw loads, interpreter loads and
    /// replays of the lap log. This is host work, not a device statistic:
    /// a batch charged in closed form counts in
    /// [`GpuStats::loads_executed`] at once, and here only if a later load
    /// replays it before a flush drops it.
    pub fn walked_loads(&self) -> u64 {
        self.mem.walked_loads()
    }

    /// Allocates `bytes` of device address space for loads through
    /// `space`. Nothing is stored: every read returns 0 until
    /// [`Self::init_pchase`] makes the buffer a ring, so a page-stride TLB
    /// ring spanning gigabytes costs a few words of host memory.
    ///
    /// Allocation in [`MemorySpace::Constant`] is capped at 64 KiB, which
    /// is what stops MT4G from sizing the Constant L1.5 cache (Table III's
    /// ">64KiB" entry).
    pub fn alloc(&mut self, space: MemorySpace, bytes: u64) -> Result<BufferId, AllocError> {
        if space == MemorySpace::Constant && bytes > CONSTANT_ARRAY_LIMIT {
            return Err(AllocError::ConstantLimitExceeded { requested: bytes });
        }
        if self.allocated + bytes > self.config.dram.size {
            return Err(AllocError::OutOfMemory);
        }
        let base = self.next_base;
        // Page-align the next allocation so buffers never share a line.
        self.next_base += bytes.div_ceil(4096) * 4096 + 4096;
        self.allocated += bytes;
        self.buffers.push(Buffer {
            base,
            len: bytes.div_ceil(4) * 4,
            ring: None,
        });
        Ok(BufferId(self.buffers.len() - 1))
    }

    /// Frees all buffers (keeps cache state). Later allocations re-use
    /// their addresses, so a ring made after this could alias one the lap
    /// log holds: a non-empty log takes no further batch until the next
    /// [`Self::flush_caches`] (see [`Self::pchase_batch`]).
    pub fn free_all(&mut self) {
        self.buffers.clear();
        self.next_base = 0x1_0000;
        self.allocated = 0;
        self.mem.buffers_freed();
    }

    /// Device base address of a buffer.
    pub fn buffer_base(&self, id: BufferId) -> u64 {
        self.buffers[id.0].base
    }

    /// Makes `id` a p-chase ring: element `i` (spaced `stride_bytes`
    /// apart) holds the element index of its successor, with the last
    /// element pointing back to 0. The ring is recorded, not written, in
    /// O(1). Returns the element count, `array_bytes / stride_bytes` and
    /// at least 1.
    pub fn init_pchase(&mut self, id: BufferId, array_bytes: u64, stride_bytes: u64) -> u64 {
        assert!(stride_bytes >= 4 && stride_bytes.is_multiple_of(4));
        let count = (array_bytes / stride_bytes).max(1);
        let buf = &mut self.buffers[id.0];
        assert!(
            (count - 1) * stride_bytes + 4 <= buf.len,
            "a {count}-element ring at a {stride_bytes} B stride overruns its {} B buffer",
            buf.len
        );
        buf.ring = Some(Ring {
            base: buf.base,
            stride: stride_bytes,
            count,
        });
        count
    }

    /// The ring a chase from `base` at `stride` walks, if `base` starts
    /// one of that stride.
    fn ring_at(&self, base: u64, stride: u64) -> Option<Ring> {
        self.buffers
            .iter()
            .filter_map(|buf| buf.ring)
            .find(|ring| ring.base == base && ring.stride == stride)
    }

    /// Invalidates all caches (a new benchmark's pristine state), and
    /// drops the lap log unwalked.
    pub fn flush_caches(&mut self) {
        self.mem.flush_all();
    }

    /// Executes a raw load outside any kernel (used by a few benchmarks
    /// that classify hit/miss directly). Advances the clock like a timed
    /// kernel load would and returns the resolution plus the noisy
    /// latency — the caller reads that latency, so it always draws noise.
    pub fn raw_load(
        &mut self,
        sm: usize,
        core: usize,
        space: MemorySpace,
        flags: LoadFlags,
        addr: u64,
    ) -> (LoadResolution, u32) {
        let res = self.mem.load(sm, core, space, flags, addr);
        let lat = self.noise.sample(&mut self.rng, res.latency);
        self.cycle += lat as u64;
        self.stats.loads_executed += 1;
        (res, lat)
    }

    /// Executes a p-chase natively — the batched-load fast path.
    ///
    /// Cycle-for-cycle, record-for-record and RNG-draw-for-RNG-draw
    /// equivalent to launching the `KernelBuilder` chase kernel `batch`
    /// mirrors, but without building an instruction vector or paying the
    /// interpreter's per-instruction dispatch: the load route is resolved
    /// once, and the warm-up and timed loops run as tight native loops
    /// over it. The equivalence is pinned by the `*_matches_interpreter`
    /// tests below.
    ///
    /// The kernel's `MovImm` preamble (the base, then an address and a
    /// counter for each loop present) costs one ALU cycle per instruction
    /// and never sits between two clock reads, so it is charged up front.
    /// Only the timed loads draw measurement noise, one [`NoiseDraw`]
    /// each, in load order, drawn ahead of the loads with
    /// [`NoiseModel::draw_into`] and applied to each load's latency as
    /// [`NoiseModel::sample`] would. A warm-up load sits in
    /// no clock window, so it is charged its noiseless latency and
    /// consumes no RNG: a chase's draws, and so the noise its records
    /// see, do not depend on how long its warm-up lap was.
    ///
    /// Every batch is offered to the hierarchy's lap log, which holds the
    /// batches charged in closed form since the last flush and takes two
    /// kinds: a warm-up of exactly one lap over a ring (with or without
    /// timed steps after it), and an observation pass — no warm-up, at
    /// most one lap of timed steps — over a ring the log holds as a
    /// warm-only lap from the same SM and route. Until a load is walked,
    /// the log takes laps over disjoint rings and then one observation
    /// pass, as long as every level on the routes is fully associative
    /// and each level that is not exact LRU has room for every line the
    /// log brings into it.
    /// A logged batch is not walked: the hierarchy classifies its loads
    /// in closed form given the batches before it, a lap is charged as a
    /// sum, and each timed step still draws its noise sample in order.
    /// `flush_caches` drops the log, and the next walked load — a raw
    /// load, another batch or an interpreted `Load` — replays it first,
    /// so every later observation sees the state the walk would have left
    /// (`deferred_laps_match_the_eager_walk` pins this).
    ///
    /// # Panics
    ///
    /// If `batch.base` does not start a ring of stride `batch.elem_bytes`.
    pub fn pchase_batch(
        &mut self,
        sm: usize,
        core: usize,
        batch: &PchaseBatch,
        max_records: usize,
    ) -> LaunchResult {
        let warms = batch.warm_steps > 0;
        let times = batch.timed_steps > 0;
        assert!(warms || times, "a p-chase batch runs at least one loop");
        let start_cycle = self.cycle;
        self.stats.kernels_launched += 1;
        self.cycle += (1 + 2 * warms as u64 + 2 * times as u64) * ALU_COST;
        let overhead = self.config.clock_overhead_cycles as u64;
        // AMD timed steps are preceded by two `s_waitcnt` fences *outside*
        // the clocked window (see `KernelBuilder::pchase_timed_step`).
        let pre_fences = if self.config.vendor == Vendor::Amd {
            2 * ALU_COST
        } else {
            0
        };
        let route = self.mem.route(sm, core, batch.space, batch.flags);
        let ring = self
            .ring_at(batch.base, batch.elem_bytes)
            .expect("a p-chase batch starts a ring of its stride");
        // `Ok`: the lap log took the batch in closed form. `Err`: the batch
        // walks its route, marked once for the next flush.
        let pass = self
            .mem
            .defer_lap(&route, sm, ring, batch.warm_steps, batch.timed_steps)
            .ok_or_else(|| self.mem.mark(&route, sm));

        // Warm-up pass: Load + MulImm + Add + BranchDecNz per element.
        let warm_cost = |latency: u32| latency.max(1) as u64 + 3 * ALU_COST;
        match &pass {
            Ok(closed) => {
                if warms {
                    self.cycle += closed.lap_cycles(warm_cost);
                }
            }
            Err(via) => {
                let mut addr = batch.base;
                for _ in 0..batch.warm_steps {
                    self.cycle += warm_cost(self.mem.load_via(via, addr).latency);
                    addr = ring.next(addr);
                }
            }
        }
        // Timed pass, restarting from element 0: per step
        // [fences;] clock; load; store/fences; clock; sub; record; mul; add;
        // branch — the recorded value is `latency + store cost + overhead`.
        // A walk draws no noise, so each chunk of steps draws its noise
        // before its loads, in step order.
        let mut records = Vec::with_capacity(max_records.min(4096));
        let mut noise = [NoiseDraw::default(); NOISE_CHUNK];
        let mut addr = batch.base;
        let mut step = 0;
        while step < batch.timed_steps {
            let draws = &mut noise[..(batch.timed_steps - step).min(NOISE_CHUNK as u64) as usize];
            self.noise.draw_into(&mut self.rng, draws);
            for draw in draws.iter() {
                let latency = match &pass {
                    Ok(closed) => closed.step_latency(step),
                    Err(via) => self.mem.load_via(via, addr).latency,
                };
                let lat = self.noise.apply(latency, *draw);
                self.cycle +=
                    pre_fences + 2 * overhead + lat as u64 + STORE_SHARED_COST + 4 * ALU_COST;
                if records.len() < max_records {
                    records.push((lat as u64 + STORE_SHARED_COST + overhead) as u32);
                }
                addr = ring.next(addr);
                step += 1;
            }
        }
        self.stats.loads_executed += batch.warm_steps + batch.timed_steps;
        let cycles = self.cycle - start_cycle;
        self.stats.total_cycles += cycles;
        LaunchResult { records, cycles }
    }

    /// Launches `kernel` on (`sm`, `core`), recording at most `max_records`
    /// values (the paper's "first N results").
    ///
    /// Clock reads pair up into windows: the first `ReadClock` opens one,
    /// the next closes it. A `Load` inside a window is timed and draws
    /// measurement noise; a `Load` outside one is charged its noiseless
    /// latency and consumes no RNG — the rule [`Self::pchase_batch`]
    /// follows.
    pub fn launch(
        &mut self,
        sm: usize,
        core: usize,
        kernel: &Kernel,
        max_records: usize,
    ) -> LaunchResult {
        let start_cycle = self.cycle;
        let mut regs = vec![0u64; kernel.num_regs];
        let mut records = Vec::with_capacity(max_records.min(4096));
        let mut pc = 0usize;
        let mut clock_open = false;
        self.stats.kernels_launched += 1;

        while pc < kernel.instrs.len() {
            match kernel.instrs[pc] {
                Instr::ReadClock(dst) => {
                    self.cycle += self.config.clock_overhead_cycles as u64;
                    regs[dst] = self.cycle;
                    clock_open = !clock_open;
                }
                Instr::Load {
                    dst,
                    addr,
                    space,
                    flags,
                } => {
                    let a = regs[addr];
                    let res = self.mem.load(sm, core, space, flags, a);
                    let lat = if clock_open {
                        self.noise.sample(&mut self.rng, res.latency)
                    } else {
                        res.latency.max(1)
                    };
                    self.cycle += lat as u64;
                    self.stats.loads_executed += 1;
                    regs[dst] = read_mem(&self.buffers, a) as u64;
                }
                Instr::StoreShared { .. } => self.cycle += STORE_SHARED_COST,
                Instr::Fence => self.cycle += ALU_COST,
                Instr::MovImm { dst, imm } => {
                    regs[dst] = imm;
                    self.cycle += ALU_COST;
                }
                Instr::Mov { dst, src } => {
                    regs[dst] = regs[src];
                    self.cycle += ALU_COST;
                }
                Instr::Add { dst, a, b } => {
                    regs[dst] = regs[a].wrapping_add(regs[b]);
                    self.cycle += ALU_COST;
                }
                Instr::MulImm { dst, src, imm } => {
                    regs[dst] = regs[src].wrapping_mul(imm);
                    self.cycle += ALU_COST;
                }
                Instr::Sub { dst, a, b } => {
                    regs[dst] = regs[a].wrapping_sub(regs[b]);
                    self.cycle += ALU_COST;
                }
                Instr::Record { src } => {
                    if records.len() < max_records {
                        records.push(regs[src] as u32);
                    }
                }
                Instr::BranchDecNz { counter, target } => {
                    regs[counter] = regs[counter].saturating_sub(1);
                    self.cycle += ALU_COST;
                    if regs[counter] > 0 {
                        pc = target;
                        continue;
                    }
                }
            }
            pc += 1;
        }
        let cycles = self.cycle - start_cycle;
        self.stats.total_cycles += cycles;
        LaunchResult { records, cycles }
    }

    /// Total simulated cycles so far.
    pub fn elapsed_cycles(&self) -> u64 {
        self.cycle
    }

    /// Mutable access to the RNG, for the analytic bandwidth model.
    pub(crate) fn rng_mut(&mut self) -> &mut ChaCha8Rng {
        &mut self.rng
    }

    /// Adds kernel-launch bookkeeping for analytic (non-ISA) kernels, such
    /// as the bandwidth stream kernels.
    pub(crate) fn account_analytic_kernel(&mut self, cycles: u64, loads: u64) {
        self.stats.kernels_launched += 1;
        self.stats.loads_executed += loads;
        self.stats.total_cycles += cycles;
        self.cycle += cycles;
    }
}

/// Derives the RNG seed of a fork stream: a splitmix64 finalizer over the
/// base seed and the stream id, so nearby stream ids produce uncorrelated
/// ChaCha8 seeds.
fn stream_seed(base: u64, stream: u64) -> u64 {
    let mut z = base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::CacheKind;
    use crate::isa::KernelBuilder;
    use crate::presets;

    fn quiet_gpu() -> Gpu {
        let mut gpu = Gpu::new(presets::h100_80().config);
        gpu.set_noise(NoiseModel::NONE);
        gpu
    }

    #[test]
    fn fork_is_deterministic_and_independent() {
        let mut gpu = Gpu::new(presets::h100_80().config);
        // Perturb the parent: forks must not depend on parent state.
        let _ = gpu.alloc(MemorySpace::Global, 4096).unwrap();
        let _ = gpu.raw_load(0, 0, MemorySpace::Global, LoadFlags::CACHE_ALL, 0x1_0000);
        let run = |g: &mut Gpu| {
            let buf = g.alloc(MemorySpace::Global, 4096).unwrap();
            let n = g.init_pchase(buf, 4096, 32);
            let kernel = KernelBuilder::pchase_kernel(
                Vendor::Nvidia,
                g.buffer_base(buf),
                32,
                n,
                256,
                MemorySpace::Global,
                LoadFlags::CACHE_ALL,
                true,
            );
            g.launch(0, 0, &kernel, 256).records
        };
        let a = run(&mut gpu.fork(7));
        let b = run(&mut gpu.fork(7));
        let c = run(&mut gpu.fork(8));
        assert_eq!(a, b, "same stream, same results");
        assert_ne!(a, c, "different streams see different noise");
        // The fork stream is derived from the base seed, not the parent's
        // RNG position.
        assert_eq!(gpu.fork(7).base_seed(), gpu.fork(7).base_seed());
    }

    #[test]
    fn constant_alloc_enforces_64kib_limit() {
        let mut gpu = quiet_gpu();
        assert!(gpu.alloc(MemorySpace::Constant, 64 * 1024).is_ok());
        let err = gpu.alloc(MemorySpace::Constant, 64 * 1024 + 1).unwrap_err();
        assert!(matches!(err, AllocError::ConstantLimitExceeded { .. }));
    }

    #[test]
    fn oom_is_reported() {
        let mut gpu = quiet_gpu();
        let too_much = gpu.config.dram.size + 1;
        assert_eq!(
            gpu.alloc(MemorySpace::Global, too_much),
            Err(AllocError::OutOfMemory)
        );
    }

    #[test]
    fn pchase_ring_is_circular() {
        let mut gpu = quiet_gpu();
        let buf = gpu.alloc(MemorySpace::Global, 1024).unwrap();
        let n = gpu.init_pchase(buf, 1024, 32);
        assert_eq!(n, 32);
        let base = gpu.buffer_base(buf);
        // Follow the chain n steps and come back to element 0.
        let mut idx = 0u64;
        for _ in 0..n {
            idx = read_mem(&gpu.buffers, base + idx * 32) as u64;
        }
        assert_eq!(idx, 0);
    }

    #[test]
    fn pchase_kernel_measures_l1_hit_latency_exactly_without_noise() {
        let mut gpu = quiet_gpu();
        let l1 = *gpu.config.cache(CacheKind::L1).unwrap();
        let buf = gpu.alloc(MemorySpace::Global, 4096).unwrap();
        let n = gpu.init_pchase(buf, 4096, l1.fetch_granularity as u64);
        let kernel = KernelBuilder::pchase_kernel(
            Vendor::Nvidia,
            gpu.buffer_base(buf),
            l1.fetch_granularity as u64,
            n,
            n,
            MemorySpace::Global,
            LoadFlags::CACHE_ALL,
            true,
        );
        let run = gpu.launch(0, 0, &kernel, 64);
        assert_eq!(run.records.len(), 64);
        // All hits: measured latency = L1 latency + clock overhead + the
        // shared store between the two clock reads.
        let expected =
            l1.load_latency as u64 + gpu.config.clock_overhead_cycles as u64 + STORE_SHARED_COST;
        for &r in &run.records {
            assert_eq!(r as u64, expected, "records: {:?}", &run.records[..8]);
        }
    }

    #[test]
    fn pchase_kernel_sees_misses_beyond_l1_capacity() {
        let mut gpu = quiet_gpu();
        let l1 = *gpu.config.cache(CacheKind::L1).unwrap();
        let l2 = *gpu.config.cache(CacheKind::L2).unwrap();
        let bytes = l1.size + 4 * l1.line_size as u64; // just beyond capacity
        let buf = gpu.alloc(MemorySpace::Global, bytes).unwrap();
        let n = gpu.init_pchase(buf, bytes, l1.fetch_granularity as u64);
        let kernel = KernelBuilder::pchase_kernel(
            Vendor::Nvidia,
            gpu.buffer_base(buf),
            l1.fetch_granularity as u64,
            n,
            256,
            MemorySpace::Global,
            LoadFlags::CACHE_ALL,
            true,
        );
        let run = gpu.launch(0, 0, &kernel, 256);
        let expected_miss =
            l2.load_latency as u64 + gpu.config.clock_overhead_cycles as u64 + STORE_SHARED_COST;
        let misses = run
            .records
            .iter()
            .filter(|&&r| r as u64 >= expected_miss)
            .count();
        assert!(
            misses as f64 > 0.9 * run.records.len() as f64,
            "{misses}/{} misses",
            run.records.len()
        );
    }

    #[test]
    fn launch_statistics_accumulate() {
        let mut gpu = quiet_gpu();
        let buf = gpu.alloc(MemorySpace::Global, 1024).unwrap();
        let n = gpu.init_pchase(buf, 1024, 32);
        let kernel = KernelBuilder::pchase_kernel(
            Vendor::Nvidia,
            gpu.buffer_base(buf),
            32,
            n,
            n,
            MemorySpace::Global,
            LoadFlags::CACHE_ALL,
            true,
        );
        gpu.launch(0, 0, &kernel, 8);
        let s = gpu.stats();
        assert_eq!(s.kernels_launched, 1);
        assert_eq!(s.loads_executed, 2 * n); // warm-up + timed
        assert!(s.total_cycles > 0);
    }

    #[test]
    fn record_cap_limits_stored_results() {
        let mut gpu = quiet_gpu();
        let buf = gpu.alloc(MemorySpace::Global, 2048).unwrap();
        let n = gpu.init_pchase(buf, 2048, 32);
        let kernel = KernelBuilder::pchase_kernel(
            Vendor::Nvidia,
            gpu.buffer_base(buf),
            32,
            n,
            n,
            MemorySpace::Global,
            LoadFlags::CACHE_ALL,
            true,
        );
        let run = gpu.launch(0, 0, &kernel, 5);
        assert_eq!(run.records.len(), 5);
    }

    /// Runs the same full p-chase through the instruction interpreter and
    /// the batched executor on identically-forked GPUs and asserts
    /// bit-identical records, cycles and statistics — the contract that
    /// lets `mt4g_core::pchase` switch to the batch API without changing
    /// a single measured value. Each chase runs on rings at 4 B, 32 B and
    /// 128 B strides; a warmed batch on an exact-LRU route takes its lap in
    /// closed form, and the post-run kernel replays it.
    fn assert_batch_matches_interpreter(gpu: &Gpu, space: MemorySpace, flags: LoadFlags) {
        for stride in [4, 32, 128] {
            let setup = |g: &mut Gpu| {
                let buf = g.alloc(space, 8192).unwrap();
                let n = g.init_pchase(buf, 8192, stride);
                (g.buffer_base(buf), n)
            };
            for warmup in [true, false] {
                let ctx = format!("stride={stride} warmup={warmup}");
                let mut a = gpu.fork(99);
                let mut b = gpu.fork(99);
                let (base_a, n) = setup(&mut a);
                let (base_b, _) = setup(&mut b);
                assert_eq!(base_a, base_b);
                let kernel = KernelBuilder::pchase_kernel(
                    gpu.vendor(),
                    base_a,
                    stride,
                    n,
                    200,
                    space,
                    flags,
                    warmup,
                );
                let want = a.launch(0, 0, &kernel, 128);
                let got = b.pchase_batch(
                    0,
                    0,
                    &PchaseBatch {
                        base: base_b,
                        elem_bytes: stride,
                        warm_steps: if warmup { n } else { 0 },
                        timed_steps: 200,
                        space,
                        flags,
                    },
                    128,
                );
                assert_eq!(want, got, "{ctx}");
                assert_eq!(a.stats(), b.stats(), "{ctx}");
                assert_eq!(a.elapsed_cycles(), b.elapsed_cycles(), "{ctx}");
                // The RNG streams must also be position-identical: a
                // further identical run on both devices stays in lockstep.
                let w2 = a.launch(0, 0, &kernel, 128);
                let g2 = b.launch(0, 0, &kernel, 128);
                assert_eq!(w2, g2, "post-run RNG positions diverged ({ctx})");
            }
        }
    }

    #[test]
    fn strided_ring_reads_like_a_dense_ring() {
        // A ring stores no words, yet every 4-byte read, aligned or not,
        // from its base through a plain allocation after it and past that
        // returns what a dense zero-initialised ring holds: the
        // successor's index at each element's first word (0 at the last
        // element), and 0 between elements, in a partial last element,
        // past the ring, in the plain allocation and outside both. The
        // strides include one that is not a power of two and one of three
        // pages, whose partial last element would reach into the next
        // allocation.
        for stride in [4u64, 32, 48, 128, 4096, 12288] {
            let mut gpu = quiet_gpu();
            let bytes = 8 * stride + 20;
            let ring = gpu.alloc(MemorySpace::Global, bytes).unwrap();
            let n = gpu.init_pchase(ring, bytes, stride);
            assert_eq!(n, bytes / stride);
            let plain = gpu.alloc(MemorySpace::Global, 4096).unwrap();
            let base = gpu.buffer_base(ring);
            assert_eq!(read_mem(&gpu.buffers, base + (n - 1) * stride), 0);
            for addr in base..gpu.buffer_base(plain) + 4096 + 8 {
                let off = addr - base;
                let (index, within) = (off / stride, off % stride);
                let want = if index < n && within < 4 {
                    ((index + 1) % n) as u32
                } else {
                    0
                };
                assert_eq!(
                    read_mem(&gpu.buffers, addr),
                    want,
                    "stride {stride} offset {off}"
                );
            }
        }
    }

    #[test]
    fn pchase_batch_nvidia_matches_interpreter() {
        let gpu = Gpu::new(presets::h100_80().config);
        assert_batch_matches_interpreter(&gpu, MemorySpace::Global, LoadFlags::CACHE_ALL);
        assert_batch_matches_interpreter(&gpu, MemorySpace::Global, LoadFlags::CACHE_GLOBAL);
        assert_batch_matches_interpreter(&gpu, MemorySpace::Global, LoadFlags::VOLATILE);
        assert_batch_matches_interpreter(&gpu, MemorySpace::Constant, LoadFlags::CACHE_ALL);
    }

    #[test]
    fn pchase_batch_amd_matches_interpreter() {
        let gpu = Gpu::new(presets::mi300x().config);
        assert_batch_matches_interpreter(&gpu, MemorySpace::Vector, LoadFlags::CACHE_ALL);
        assert_batch_matches_interpreter(&gpu, MemorySpace::Vector, LoadFlags::CACHE_GLOBAL);
        assert_batch_matches_interpreter(&gpu, MemorySpace::Scalar, LoadFlags::CACHE_ALL);
    }

    /// The batched executor draws per timed step; the interpreter draws
    /// per load inside a clock window. They must stay in RNG lockstep
    /// under every noise model — including HOSTILE (both the jitter and
    /// outlier draws are live) and NONE (which consumes *no* RNG).
    #[test]
    fn pchase_batch_matches_interpreter_under_every_noise_model() {
        for noise in [NoiseModel::DEFAULT, NoiseModel::HOSTILE, NoiseModel::NONE] {
            let mut nv = Gpu::new(presets::h100_80().config);
            nv.set_noise(noise);
            assert_batch_matches_interpreter(&nv, MemorySpace::Global, LoadFlags::CACHE_ALL);
            let mut amd = Gpu::new(presets::mi210().config);
            amd.set_noise(noise);
            assert_batch_matches_interpreter(&amd, MemorySpace::Vector, LoadFlags::CACHE_ALL);
        }
    }

    /// Untimed loads draw no noise, so RNG use does not depend on warm-up
    /// length: two forks of one stream that chase an 8 KiB and a 1 MiB
    /// ring (warm-up laps of 256 and 32 768 loads, the same 256 timed
    /// steps) sit at the same stream position afterwards, and an
    /// identical timed chase on both records the same latencies. A
    /// warm-only batch draws nothing at all and charges the cycles a
    /// silent model charges.
    #[test]
    fn untimed_loads_draw_no_noise() {
        let gpu = Gpu::new(presets::h100_80().config);
        assert_eq!(gpu.noise(), NoiseModel::DEFAULT);
        let ring = |g: &mut Gpu, bytes: u64, warmup: bool| {
            g.free_all();
            g.flush_caches();
            let buf = g.alloc(MemorySpace::Global, bytes).unwrap();
            let n = g.init_pchase(buf, bytes, 32);
            PchaseBatch {
                base: g.buffer_base(buf),
                elem_bytes: 32,
                warm_steps: if warmup { n } else { 0 },
                timed_steps: 256,
                space: MemorySpace::Global,
                flags: LoadFlags::CACHE_ALL,
            }
        };

        let mut short_lap = gpu.fork(3);
        let mut long_lap = gpu.fork(3);
        for (g, bytes) in [(&mut short_lap, 8 << 10), (&mut long_lap, 1 << 20)] {
            let batch = ring(g, bytes, true);
            g.pchase_batch(0, 0, &batch, 256);
        }
        let timed = |g: &mut Gpu| {
            let batch = ring(g, 64 << 10, false);
            g.pchase_batch(0, 0, &batch, 256)
        };
        assert_eq!(timed(&mut short_lap), timed(&mut long_lap));

        let warm_only = |noise: NoiseModel| {
            let mut g = gpu.fork(4);
            g.set_noise(noise);
            let batch = PchaseBatch {
                timed_steps: 0,
                ..ring(&mut g, 1 << 20, true)
            };
            g.pchase_batch(0, 0, &batch, 0);
            g
        };
        let noisy = warm_only(NoiseModel::DEFAULT);
        let silent = warm_only(NoiseModel::NONE);
        assert_eq!(noisy.rng, gpu.fork(4).rng, "a warm-up lap draws nothing");
        assert_eq!(noisy.stats(), silent.stats());
        assert_eq!(noisy.elapsed_cycles(), silent.elapsed_cycles());
    }

    #[test]
    fn pchase_warm_and_timed_batches_match_interpreter() {
        for cfg in [presets::h100_80().config, presets::mi210().config] {
            let gpu = Gpu::new(cfg);
            let space = match gpu.vendor() {
                Vendor::Nvidia => MemorySpace::Global,
                Vendor::Amd => MemorySpace::Vector,
            };
            let mut a = gpu.fork(5);
            let mut b = gpu.fork(5);
            let buf_a = a.alloc(space, 4096).unwrap();
            let buf_b = b.alloc(space, 4096).unwrap();
            let n = a.init_pchase(buf_a, 4096, 64);
            b.init_pchase(buf_b, 4096, 64);
            let base = a.buffer_base(buf_a);
            let warm = PchaseBatch {
                base,
                elem_bytes: 64,
                warm_steps: n,
                timed_steps: 0,
                space,
                flags: LoadFlags::CACHE_ALL,
            };
            let warm_kernel = KernelBuilder::pchase_warm_kernel(
                gpu.vendor(),
                base,
                64,
                n,
                space,
                LoadFlags::CACHE_ALL,
            );
            a.launch(0, 0, &warm_kernel, 0);
            b.pchase_batch(0, 0, &warm, 0);
            assert_eq!(a.stats(), b.stats());
            assert_eq!(a.elapsed_cycles(), b.elapsed_cycles());
            let timed_kernel = KernelBuilder::pchase_timed_kernel(
                gpu.vendor(),
                base,
                64,
                48,
                space,
                LoadFlags::CACHE_ALL,
            );
            let want = a.launch(0, 0, &timed_kernel, 32);
            let timed = PchaseBatch {
                warm_steps: 0,
                timed_steps: 48,
                ..warm
            };
            let got = b.pchase_batch(0, 0, &timed, 32);
            assert_eq!(want, got);
            assert_eq!(a.stats(), b.stats());
        }
    }

    #[test]
    fn noisy_measurements_fluctuate_but_stay_centred() {
        let mut gpu = Gpu::new(presets::h100_80().config);
        let l1 = *gpu.config.cache(CacheKind::L1).unwrap();
        let buf = gpu.alloc(MemorySpace::Global, 4096).unwrap();
        let n = gpu.init_pchase(buf, 4096, l1.fetch_granularity as u64);
        let kernel = KernelBuilder::pchase_kernel(
            Vendor::Nvidia,
            gpu.buffer_base(buf),
            l1.fetch_granularity as u64,
            n,
            512,
            MemorySpace::Global,
            LoadFlags::CACHE_ALL,
            true,
        );
        let run = gpu.launch(0, 0, &kernel, 512);
        let mean: f64 =
            run.records.iter().map(|&r| r as f64).sum::<f64>() / run.records.len() as f64;
        let expected = l1.load_latency as f64
            + gpu.config.clock_overhead_cycles as f64
            + STORE_SHARED_COST as f64;
        assert!(
            (mean - expected).abs() < 6.0,
            "mean {mean} vs expected {expected}"
        );
    }

    /// Every (space, flags) route kind of a vendor the differential test
    /// draws from: NVIDIA `.ca`, `.cg`, texture, read-only, constant,
    /// volatile and shared; AMD vector, vector `glc`, scalar and LDS.
    const NVIDIA_ROUTES: [(MemorySpace, LoadFlags); 7] = [
        (MemorySpace::Global, LoadFlags::CACHE_ALL),
        (MemorySpace::Global, LoadFlags::CACHE_GLOBAL),
        (MemorySpace::Texture, LoadFlags::CACHE_ALL),
        (MemorySpace::Readonly, LoadFlags::CACHE_ALL),
        (MemorySpace::Constant, LoadFlags::CACHE_ALL),
        (MemorySpace::Global, LoadFlags::VOLATILE),
        (MemorySpace::Shared, LoadFlags::CACHE_ALL),
    ];
    const AMD_ROUTES: [(MemorySpace, LoadFlags); 4] = [
        (MemorySpace::Vector, LoadFlags::CACHE_ALL),
        (MemorySpace::Vector, LoadFlags::CACHE_GLOBAL),
        (MemorySpace::Scalar, LoadFlags::CACHE_ALL),
        (MemorySpace::Lds, LoadFlags::CACHE_ALL),
    ];

    /// The cache levels whose instances a route walks, in order.
    fn route_levels(space: MemorySpace, flags: LoadFlags, unified: bool) -> Vec<CacheKind> {
        use CacheKind::*;
        match space {
            _ if flags.bypass_all => vec![],
            MemorySpace::Shared | MemorySpace::Lds => vec![],
            MemorySpace::Global if flags.bypass_l1 => vec![L2],
            MemorySpace::Global => vec![L1, L2],
            MemorySpace::Texture if !unified => vec![Texture, L2],
            MemorySpace::Readonly if !unified => vec![Readonly, L2],
            MemorySpace::Texture | MemorySpace::Readonly => vec![L1, L2],
            MemorySpace::Constant => vec![ConstL1, ConstL15, L2],
            MemorySpace::Vector if flags.bypass_l1 => vec![L2, L3],
            MemorySpace::Vector => vec![VL1, L2, L3],
            MemorySpace::Scalar => vec![SL1D, L2, L3],
        }
    }

    /// Deferred laps against the eager walk, differentially: random cache
    /// geometry (non-power-of-two lines included), strides of 4–4096 B,
    /// rings around one level's capacity, every route kind, no TLB or an
    /// L1 TLB that does or does not cover the rings' pages, a planted
    /// non-LRU level, every noise model, and a random follow-up (none;
    /// raw loads over the ring; a second batch without a flush; flush,
    /// batch, then a raw load; an interpreter chase kernel; or, most
    /// often, a prime/probe sequence: the first batch warms ring A only,
    /// 1–3 other rings are warmed on random routes, SMs and cores, ring A
    /// is observed again, and sometimes a raw load follows; a `free_all`
    /// before the other rings sometimes lets them re-use A's addresses).
    /// The two sides must agree on every output, `GpuStats`, the clock,
    /// the RNG position and the hierarchy's state (hit/miss counters
    /// aside). A planted level may take batches in closed form only while
    /// the log never fills it: a third, eager walk with room for every
    /// line at that level counts the lines the log brought into each of
    /// its instances.
    #[test]
    fn deferred_laps_match_the_eager_walk() {
        use crate::cache::ReplacementPolicy;
        use crate::tlb::TlbSpec;
        use rand::Rng;

        /// Which walk a run takes: closed forms forced off, allowed, or
        /// forced off with the planted level given room for every line.
        #[derive(Clone, Copy, PartialEq)]
        enum Walk {
            Eager,
            Fast,
            Roomy,
        }

        const CASES: usize = 4000;
        let mut rng = ChaCha8Rng::seed_from_u64(0x1a95);
        let (mut deferred, mut prime_probe_closed, mut planted_closed) = (0, 0, 0);
        for case in 0..CASES {
            let amd = rng.gen_bool(0.4);
            let mut cfg = if amd {
                presets::mi300x().config
            } else {
                presets::h100_80().config
            };
            cfg.chip.num_sms = 8;
            cfg.sharing.l1_tex_ro_unified = rng.gen_bool(0.7);
            for (_, spec) in &mut cfg.caches {
                let line = if rng.gen_bool(0.2) {
                    [48u32, 80, 96][rng.gen_range(0..3usize)]
                } else {
                    [32, 64, 128][rng.gen_range(0..3usize)]
                };
                let sectors: Vec<u32> = [8, 16, 24, 32, 40, 48, 64, 80, 96, 128]
                    .into_iter()
                    .filter(|&s| line % s == 0)
                    .collect();
                spec.line_size = line;
                spec.fetch_granularity = sectors[rng.gen_range(0..sectors.len())];
                spec.size = rng.gen_range(1..=48u64) * line as u64;
            }
            let unified = cfg.sharing.l1_tex_ro_unified;
            let cores = cfg.chip.cores_per_sm as usize;
            let routes: &[(MemorySpace, LoadFlags)] =
                if amd { &AMD_ROUTES } else { &NVIDIA_ROUTES };
            // Routes through caches are drawn more often than the
            // volatile and scratchpad routes, which walk none.
            let (space, flags, levels) = loop {
                let (space, flags) = routes[rng.gen_range(0..routes.len())];
                let levels = route_levels(space, flags, unified);
                if !levels.is_empty() || rng.gen_bool(0.3) {
                    break (space, flags, levels);
                }
            };
            let planted = (!levels.is_empty() && rng.gen_bool(0.15)).then(|| {
                let policies = [
                    ReplacementPolicy::TreePlru,
                    ReplacementPolicy::Slru,
                    ReplacementPolicy::Random,
                    ReplacementPolicy::Bypass,
                ];
                (
                    levels[rng.gen_range(0..levels.len())],
                    policies[rng.gen_range(0..policies.len())],
                )
            });
            cfg.policies = planted.into_iter().collect();
            cfg.tlb = rng.gen_bool(0.7).then(|| {
                let page = [1024u64, 4096, 16384, 2 << 20][rng.gen_range(0..4usize)];
                let entries = rng.gen_range(1..=64u32);
                let mut tlb = TlbSpec::fully_associative(page, entries, 50, 2 * entries, 400);
                if rng.gen_bool(0.1) {
                    tlb.l1.associativity = (entries / 2).max(1);
                }
                tlb
            });
            let noise = [NoiseModel::DEFAULT, NoiseModel::HOSTILE, NoiseModel::NONE]
                [rng.gen_range(0..3usize)];

            // A ring for `space`: a stride, and a size around the capacity
            // of one level of the route (or, if `small`, a fraction of it).
            let draw_ring = |r: &mut ChaCha8Rng, space: MemorySpace, levels: &[CacheKind]| {
                let stride: u64 = match r.gen_range(0..4u32) {
                    0 => [4u64, 8, 16, 24, 32, 48, 64, 96, 128, 192, 256, 4096]
                        [r.gen_range(0..12usize)],
                    1 => 4 * r.gen_range(1..=1024u64),
                    _ => 4 * r.gen_range(1..=64u64),
                };
                let (capacity, line) = levels
                    .get(r.gen_range(0..levels.len().max(1)))
                    .and_then(|&kind| cfg.cache(kind))
                    .map_or((r.gen_range(1..=48u64), 64u64), |spec| {
                        (spec.lines(), spec.line_size as u64)
                    });
                let lines: u64 = (capacity + r.gen_range(0..=6u64)).saturating_sub(3).max(1);
                let jitter = [0, stride, r.gen_range(0..line)][r.gen_range(0..3usize)];
                let mut bytes = (lines * stride.max(line)).saturating_sub(jitter).max(4);
                if space == MemorySpace::Constant {
                    bytes = bytes.min(CONSTANT_ARRAY_LIMIT);
                }
                (stride, bytes)
            };
            let (stride, bytes) = draw_ring(&mut rng, space, &levels);
            let n = (bytes / stride).max(1);
            // Empty allocations before the ring move its base a page at a
            // time from 0x1_0000. Few bases align to a 48, 80 or 96 B line,
            // so half the cases take the count that aligns the base to
            // every line of the route.
            let aligned = |fillers: &u64| {
                levels
                    .iter()
                    .filter_map(|&kind| cfg.cache(kind))
                    .all(|spec| (0x1_0000 + 4096 * fillers).is_multiple_of(spec.line_size as u64))
            };
            let fillers = match rng.gen_bool(0.5) {
                true => (0..64).find(aligned).expect("a base aligned to every line"),
                false => rng.gen_range(0..15),
            };
            let follow_up = rng.gen_range(0..8u32);
            // Follow-ups 5–7 are prime/probe sequences, which start by
            // warming ring A only.
            let prime_probe = follow_up >= 5;
            let warm_steps = match rng.gen_range(0..20u32) {
                _ if prime_probe => n,
                0 => 0,
                1 => n + 1,
                2 => n - 1,
                _ => n,
            };
            let timed_steps = match prime_probe {
                true => 0,
                false => rng.gen_range((warm_steps == 0) as u64..=300),
            };
            let max_records = rng.gen_range(0..=300usize);
            let sm = rng.gen_range(0..8usize);
            let core = rng.gen_range(0..cores);
            let touch_first = rng.gen_bool(0.05);
            let follow_seed: u64 = rng.gen();
            let ctx = format!(
                "case {case}: {space:?} {flags:?} stride {stride} bytes {bytes} \
                 warm {warm_steps} timed {timed_steps} sm {sm} fillers {fillers} \
                 touch {touch_first} follow-up {follow_up} planted {planted:?} \
                 tlb {:?} caches {:?}",
                cfg.tlb,
                cfg.caches
                    .iter()
                    .map(|(k, s)| (k, s.size, s.line_size, s.fetch_granularity))
                    .collect::<Vec<_>>()
            );

            // One run: the device, its outputs and, per batch, whether it
            // walked no load and the most lines an instance of the planted
            // level holds after it.
            let run = |walk: Walk| {
                let mut cfg = cfg.clone();
                if let (Walk::Roomy, Some((kind, _))) = (walk, planted) {
                    for (_, spec) in cfg.caches.iter_mut().filter(|(k, _)| *k == kind) {
                        spec.size = (spec.line_size as u64) << 16;
                    }
                }
                let mut g = Gpu::with_seed(cfg, case as u64);
                g.set_noise(noise);
                g.mem.eager = walk != Walk::Fast;
                let mut out = Vec::new();
                let mut batches = Vec::new();
                let mut chase = |g: &mut Gpu, out: &mut Vec<String>, sm, core, batch: &_| {
                    let walked = g.walked_loads();
                    let records = if out.is_empty() { max_records } else { 256 };
                    out.push(format!("{:?}", g.pchase_batch(sm, core, batch, records)));
                    let fill = planted.map_or(0, |(kind, _)| g.mem.resident_lines(kind));
                    batches.push((g.walked_loads() == walked, fill));
                };
                for _ in 0..fillers {
                    g.alloc(MemorySpace::Global, 0).unwrap();
                }
                let buf = g.alloc(space, bytes).unwrap();
                assert_eq!(g.init_pchase(buf, bytes, stride), n);
                let base = g.buffer_base(buf);
                if touch_first {
                    out.push(format!("{:?}", g.raw_load(sm, core, space, flags, base)));
                }
                let batch = PchaseBatch {
                    base,
                    elem_bytes: stride,
                    warm_steps,
                    timed_steps,
                    space,
                    flags,
                };
                chase(&mut g, &mut out, sm, core, &batch);
                let mut f = ChaCha8Rng::seed_from_u64(follow_seed);
                let element = |f: &mut ChaCha8Rng| base + f.gen_range(0..n) * stride;
                match follow_up {
                    0 => {}
                    1 => {
                        if f.gen_bool(0.3) {
                            g.free_all();
                        }
                        for _ in 0..f.gen_range(1..=32u32) {
                            let from = if f.gen_bool(0.5) {
                                sm
                            } else {
                                f.gen_range(0..8usize)
                            };
                            let addr = element(&mut f);
                            out.push(format!("{:?}", g.raw_load(from, core, space, flags, addr)));
                        }
                    }
                    2 => {
                        let (space, flags) = routes[f.gen_range(0..routes.len())];
                        let again = PchaseBatch {
                            warm_steps: if f.gen_bool(0.5) { n } else { 0 },
                            timed_steps: f.gen_range(1..=300u64),
                            space,
                            flags,
                            ..batch
                        };
                        chase(&mut g, &mut out, f.gen_range(0..8usize), core, &again);
                    }
                    3 => {
                        // The flushed ring again: a flush keeps each
                        // cache index's directory size, which the state
                        // text shows, so a smaller ring would differ there.
                        g.flush_caches();
                        let again = PchaseBatch {
                            warm_steps: n,
                            timed_steps: f.gen_range(0..=300u64),
                            ..batch
                        };
                        chase(&mut g, &mut out, sm, core, &again);
                        let addr = element(&mut f);
                        out.push(format!("{:?}", g.raw_load(sm, core, space, flags, addr)));
                    }
                    4 => {
                        if f.gen_bool(0.3) {
                            g.free_all();
                        }
                        let kernel = KernelBuilder::pchase_kernel(
                            g.vendor(),
                            base,
                            stride,
                            n,
                            f.gen_range(1..=300u64),
                            space,
                            flags,
                            f.gen_bool(0.5),
                        );
                        out.push(format!("{:?}", g.launch(sm, core, &kernel, 256)));
                    }
                    _ => {
                        let freed = f.gen_bool(0.2);
                        if freed {
                            // The first ring then starts a page below A
                            // and re-uses A's addresses.
                            g.free_all();
                            for _ in 1..fillers {
                                g.alloc(MemorySpace::Global, 0).unwrap();
                            }
                        }
                        for _ in 0..f.gen_range(1..=3u32) {
                            let (space, flags) = routes[f.gen_range(0..routes.len())];
                            let levels = route_levels(space, flags, unified);
                            let (stride, bytes) = draw_ring(&mut f, space, &levels);
                            let buf = g.alloc(space, bytes).unwrap();
                            let n = g.init_pchase(buf, bytes, stride);
                            let timed_steps = match f.gen_bool(0.3) {
                                true => f.gen_range(1..=300u64),
                                false => 0,
                            };
                            let other = PchaseBatch {
                                base: g.buffer_base(buf),
                                elem_bytes: stride,
                                warm_steps: n,
                                timed_steps,
                                space,
                                flags,
                            };
                            let (sm, core) = (f.gen_range(0..8usize), f.gen_range(0..cores));
                            chase(&mut g, &mut out, sm, core, &other);
                        }
                        let mut observe = batch;
                        if freed {
                            // Ring A is made again, after the rings that
                            // took its addresses.
                            let buf = g.alloc(space, bytes).unwrap();
                            g.init_pchase(buf, bytes, stride);
                            observe.base = g.buffer_base(buf);
                        }
                        let steps = f.gen_range(1..=300u64);
                        observe.warm_steps = 0;
                        observe.timed_steps = if f.gen_bool(0.8) { steps.min(n) } else { steps };
                        let (from, from_core) = match f.gen_bool(0.8) {
                            true => (sm, core),
                            false => (f.gen_range(0..8usize), f.gen_range(0..cores)),
                        };
                        chase(&mut g, &mut out, from, from_core, &observe);
                        if f.gen_bool(0.3) {
                            let (from, addr) = (f.gen_range(0..8usize), element(&mut f));
                            out.push(format!("{:?}", g.raw_load(from, core, space, flags, addr)));
                        }
                    }
                }
                (g, out, batches)
            };
            let (mut eager, eager_out, _) = run(Walk::Eager);
            let (mut fast, fast_out, fast_batches) = run(Walk::Fast);
            let fast_walked = fast.walked_loads();
            assert_eq!(eager_out, fast_out, "{ctx}");
            assert_eq!(eager.stats(), fast.stats(), "{ctx}");
            assert_eq!(eager.elapsed_cycles(), fast.elapsed_cycles(), "{ctx}");
            assert_eq!(eager.rng, fast.rng, "RNG position: {ctx}");
            assert_eq!(eager.mem.state(), fast.mem.state(), "hierarchy: {ctx}");
            deferred += fast_batches[0].0 as usize;
            prime_probe_closed += (prime_probe && fast_walked == 0) as usize;
            if let Some((kind, policy)) = planted {
                let (_, _, roomy_batches) = run(Walk::Roomy);
                let capacity = cfg.cache(kind).unwrap().lines();
                for (k, (&(closed, _), &(_, fill))) in
                    fast_batches.iter().zip(&roomy_batches).enumerate()
                {
                    assert!(
                        !closed || fill <= capacity,
                        "batch {k} was deferred, but the log brought {fill} lines into \
                         a {policy:?} level of {capacity}: {ctx}"
                    );
                }
                planted_closed += fast_batches.iter().any(|&(closed, _)| closed) as usize;
            }
        }
        assert!(
            deferred * 2 > CASES,
            "only {deferred} of {CASES} cases took their first batch in closed form"
        );
        assert!(
            prime_probe_closed >= 150,
            "only {prime_probe_closed} prime/probe sequences walked no load"
        );
        assert!(
            planted_closed >= 110,
            "only {planted_closed} cases with a planted non-LRU level took a closed form"
        );
    }

    /// The touched-only flush against flushing every cache and TLB, on
    /// T1000, MI300X, H100-80 and an A100 `mig:2g.10gb` slice (exact LRU
    /// everywhere), B200 (tree-PLRU L1), GB200 (SLRU L1), the hostile
    /// RX9070XT (random vL1, tree-PLRU L2) and the hostile H100-80
    /// (bypassing constant L1.5), so that every policy's flush of a
    /// flushed store is exercised: two twin
    /// devices run the same random operations — batches on every route
    /// kind (warmed laps, which the lap log may take, and walked warm-ups
    /// and observation passes), raw loads and interpreted chase kernels
    /// from random SMs and cores, each of which replays the log when it
    /// holds batches, and sometimes a `free_all` — over line-stride rings
    /// and page-stride rings that reach past the L1 TLB. Then one device
    /// runs `flush_caches` and the other flushes every instance; the
    /// hierarchy's state must be the same after every flush.
    #[test]
    fn flushing_touched_instances_matches_flushing_every_instance() {
        use crate::scenario::{hostile_variant, Scenario};
        use rand::Rng;

        let mig = Scenario::parse("mig:2g.10gb")
            .unwrap()
            .apply_config(&presets::a100().config)
            .unwrap();
        let configs = [
            presets::t1000().config,
            presets::mi300x().config,
            presets::h100_80().config,
            mig,
            presets::b200().config,
            presets::gb200().config,
            hostile_variant(presets::rx9070xt()).config,
            presets::h100_hostile().config,
        ];
        let mut seeds = ChaCha8Rng::seed_from_u64(0xf1a5);
        for cfg in configs {
            let routes: &[(MemorySpace, LoadFlags)] = match cfg.vendor {
                Vendor::Nvidia => &NVIDIA_ROUTES,
                Vendor::Amd => &AMD_ROUTES,
            };
            let (sms, cores) = (cfg.chip.num_sms as usize, cfg.chip.cores_per_sm as usize);
            let page = cfg.tlb.expect("every preset models a TLB").page_bytes;
            let reach = cfg.tlb.unwrap().l1.entries as u64;
            // Up to six operations from `seed`, the same on either twin.
            let operate = |g: &mut Gpu, seed: u64| {
                let mut f = ChaCha8Rng::seed_from_u64(seed);
                let mut rings = Vec::new();
                for _ in 0..f.gen_range(1..=6u32) {
                    let (space, flags) = routes[f.gen_range(0..routes.len())];
                    let (sm, core) = (f.gen_range(0..sms), f.gen_range(0..cores));
                    if rings.is_empty() || f.gen_bool(0.4) {
                        let (bytes, stride) = if f.gen_bool(0.3) {
                            (f.gen_range(2..=2 * reach) * page, page)
                        } else {
                            (f.gen_range(1..=64u64) << 10, 4 << f.gen_range(0..6u32))
                        };
                        let bytes = match space {
                            MemorySpace::Constant => bytes.min(CONSTANT_ARRAY_LIMIT),
                            _ => bytes,
                        };
                        let buf = g.alloc(space, bytes).unwrap();
                        let n = g.init_pchase(buf, bytes, stride);
                        rings.push((g.buffer_base(buf), stride, n, space, flags));
                    }
                    let (base, stride, n, space, flags) = rings[f.gen_range(0..rings.len())];
                    match f.gen_range(0..6u32) {
                        0..=2 => {
                            let warm_steps = [n, n, 0, n / 2][f.gen_range(0..4usize)];
                            let timed_steps = f.gen_range((warm_steps == 0) as u64..=300);
                            let batch = PchaseBatch {
                                base,
                                elem_bytes: stride,
                                warm_steps,
                                timed_steps,
                                space,
                                flags,
                            };
                            g.pchase_batch(sm, core, &batch, 64);
                        }
                        3 => {
                            for _ in 0..f.gen_range(1..=8u32) {
                                let addr = base + f.gen_range(0..n) * stride;
                                g.raw_load(f.gen_range(0..sms), core, space, flags, addr);
                            }
                        }
                        4 => {
                            let kernel = KernelBuilder::pchase_kernel(
                                g.vendor(),
                                base,
                                stride,
                                n,
                                f.gen_range(1..=64u64),
                                space,
                                flags,
                                f.gen_bool(0.5),
                            );
                            g.launch(sm, core, &kernel, 64);
                        }
                        _ => {
                            g.free_all();
                            rings.clear();
                        }
                    }
                }
            };
            let mut touched_only = Gpu::with_seed(cfg.clone(), 3);
            let mut every = Gpu::with_seed(cfg.clone(), 3);
            for round in 0..40 {
                let seed: u64 = seeds.gen();
                for g in [&mut touched_only, &mut every] {
                    g.free_all();
                    operate(g, seed);
                }
                touched_only.flush_caches();
                every.mem.flush_every_instance();
                assert_eq!(
                    touched_only.mem.state(),
                    every.mem.state(),
                    "{} round {round}",
                    cfg.name
                );
            }
            assert!(touched_only.mem.replayed > 0, "{}: no replay", cfg.name);
        }
    }
}
