//! The simulated GPU: device memory allocation, kernel execution with a
//! cycle clock, and measurement noise.
//!
//! [`Gpu`] is the object the MT4G tool drives. It deliberately exposes only
//! what real hardware exposes: buffer allocation, kernel launch (of
//! [`crate::isa::Kernel`]s), and the vendor query APIs in [`crate::api`].
//! Ground truth lives in [`crate::device::DeviceConfig`], which tests and
//! benches use for validation — the discovery pipeline itself must never
//! read it (beyond what the API layer legitimately reports).

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::device::{DeviceConfig, LoadFlags, MemorySpace, Vendor, CONSTANT_ARRAY_LIMIT};
use crate::hierarchy::{LoadResolution, MemorySubsystem};
use crate::isa::{Instr, Kernel};
use crate::noise::{NoiseDraw, NoiseModel};

/// Handle to a device buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BufferId(usize);

#[derive(Debug)]
struct Buffer {
    base: u64,
    /// Readable bytes: the requested size rounded up to a whole word, for
    /// both representations. A strided buffer's last stored word may
    /// cover address space past this end (a partial last element); that
    /// space belongs to the next allocation, as it would after a dense
    /// buffer.
    len: u64,
    /// Bytes of device address space each stored word covers: 4 for
    /// [`Gpu::alloc`] buffers, the element stride for chase rings
    /// ([`Gpu::alloc_strided`]), which store only the first word of each
    /// element. A read outside a stored word returns 0, so a strided
    /// buffer reads exactly like a dense zero-initialised one whose chase
    /// pointers are the only non-zero words.
    bytes_per_word: u64,
    data: Vec<u32>,
}

impl Buffer {
    /// Whether a 4-byte read at device address `addr` lies inside the
    /// buffer.
    #[inline]
    fn holds(&self, addr: u64) -> bool {
        addr >= self.base && addr + 4 <= self.base + self.len
    }

    /// What a 4-byte read at byte offset `off` (a read the buffer
    /// [holds](Self::holds)) returns: the stored word whose first four
    /// bytes hold `off`, 0 anywhere else.
    #[inline]
    fn word_at(&self, off: u64) -> u32 {
        if off % self.bytes_per_word < 4 {
            self.data[(off / self.bytes_per_word) as usize]
        } else {
            0
        }
    }
}

/// Cycle cost of simple ALU instructions.
const ALU_COST: u64 = 1;
/// Cycle cost of a shared-memory store inside the timed step.
const STORE_SHARED_COST: u64 = 2;

/// Noise draws pre-drawn per batch chunk in the native p-chase loops (see
/// [`Gpu::pchase_exec`]). Sized to keep the scratch array in L1 while
/// amortising the chunk-loop overhead.
const NOISE_CHUNK: usize = 128;

/// Outcome of one kernel launch.
#[derive(Debug, Clone, PartialEq)]
pub struct LaunchResult {
    /// Values recorded via [`Instr::Record`] (at most the launch's record
    /// cap — the "first N results" of the paper).
    pub records: Vec<u32>,
    /// GPU cycles the kernel took.
    pub cycles: u64,
}

/// Descriptor of a batched p-chase execution — the native fast path that
/// replaces interpreting `KernelBuilder::pchase_kernel` instruction by
/// instruction. Field semantics mirror the kernel builder's parameters.
#[derive(Debug, Clone, Copy)]
pub struct PchaseBatch {
    /// Device base address of the chase array.
    pub base: u64,
    /// Stride between consecutive chase elements, in bytes.
    pub elem_bytes: u64,
    /// Number of elements in the chase ring.
    pub n_elems: u64,
    /// Number of timed steps to execute.
    pub timed_steps: u64,
    /// Logical memory space of the loads.
    pub space: MemorySpace,
    /// Cache-policy flags.
    pub flags: LoadFlags,
    /// Whether to run the untimed warm-up pass over the whole ring first.
    pub warmup: bool,
}

/// Aggregate counters, used for the run-time accounting of Sec. V-A.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GpuStats {
    /// Kernels launched since construction.
    pub kernels_launched: u64,
    /// Loads executed (timed + warm-up).
    pub loads_executed: u64,
    /// Total simulated GPU cycles across launches.
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

    /// Allocates `bytes` of device memory for loads through `space`.
    ///
    /// Allocation in [`MemorySpace::Constant`] is capped at 64 KiB, which
    /// is what stops MT4G from sizing the Constant L1.5 cache (Table III's
    /// ">64KiB" entry).
    pub fn alloc(&mut self, space: MemorySpace, bytes: u64) -> Result<BufferId, AllocError> {
        self.alloc_inner(space, bytes, 4)
    }

    /// Allocates `bytes` of device address space backed by one stored word
    /// per `stride_bytes` — how every p-chase ring is stored. A chase reads
    /// only the first word of each element, so host memory is 4 bytes per
    /// element whatever the stride: a 32 B-stride cache ring costs an
    /// eighth of a dense buffer, and a page-stride TLB ring spanning
    /// gigabytes costs kilobytes. Device addresses are the same as
    /// [`Self::alloc`] would hand out, and reads outside the stored words
    /// return 0, exactly like the untouched words of a dense
    /// zero-initialised buffer.
    pub fn alloc_strided(
        &mut self,
        space: MemorySpace,
        bytes: u64,
        stride_bytes: u64,
    ) -> Result<BufferId, AllocError> {
        assert!(stride_bytes >= 4 && stride_bytes.is_multiple_of(4));
        self.alloc_inner(space, bytes, stride_bytes)
    }

    fn alloc_inner(
        &mut self,
        space: MemorySpace,
        bytes: u64,
        bytes_per_word: u64,
    ) -> Result<BufferId, AllocError> {
        if space == MemorySpace::Constant && bytes > CONSTANT_ARRAY_LIMIT {
            return Err(AllocError::ConstantLimitExceeded { requested: bytes });
        }
        if self.allocated + bytes > self.config.dram.size {
            return Err(AllocError::OutOfMemory);
        }
        let words = bytes.div_ceil(bytes_per_word) as usize;
        let base = self.next_base;
        // Page-align the next allocation so buffers never share a line.
        self.next_base += bytes.div_ceil(4096) * 4096 + 4096;
        self.allocated += bytes;
        self.buffers.push(Buffer {
            base,
            len: bytes.div_ceil(4) * 4,
            bytes_per_word,
            data: vec![0u32; words],
        });
        Ok(BufferId(self.buffers.len() - 1))
    }

    /// Frees all buffers (keeps cache state).
    pub fn free_all(&mut self) {
        self.buffers.clear();
        self.next_base = 0x1_0000;
        self.allocated = 0;
    }

    /// Device base address of a buffer.
    pub fn buffer_base(&self, id: BufferId) -> u64 {
        self.buffers[id.0].base
    }

    /// Writes 32-bit words into a buffer starting at word index `offset`.
    pub fn write_words(&mut self, id: BufferId, offset: usize, words: &[u32]) {
        let buf = &mut self.buffers[id.0];
        buf.data[offset..offset + words.len()].copy_from_slice(words);
    }

    /// Initialises `id` as a p-chase ring: element `i` (spaced
    /// `stride_bytes` apart) holds the element index of its successor, with
    /// the last element pointing back to 0. Returns the element count.
    pub fn init_pchase(&mut self, id: BufferId, array_bytes: u64, stride_bytes: u64) -> u64 {
        assert!(stride_bytes >= 4 && stride_bytes.is_multiple_of(4));
        let n = (array_bytes / stride_bytes).max(1);
        let buf = &mut self.buffers[id.0];
        assert!(
            stride_bytes.is_multiple_of(buf.bytes_per_word),
            "chase stride {stride_bytes} must be a multiple of the buffer's \
             storage granule {}",
            buf.bytes_per_word
        );
        let stride_words = (stride_bytes / buf.bytes_per_word) as usize;
        for i in 0..n {
            let next = (i + 1) % n;
            // The stored value is the *element index* of the successor; the
            // kernel scales it by the stride to form the next address.
            buf.data[i as usize * stride_words] = next as u32;
        }
        n
    }

    fn read_mem(&self, addr: u64) -> u32 {
        // Unmapped reads return zero, like a zero page.
        self.buffers
            .iter()
            .find(|buf| buf.holds(addr))
            .map_or(0, |buf| buf.word_at(addr - buf.base))
    }

    /// [`Self::read_mem`] with a pre-resolved buffer index: the p-chase
    /// ring never leaves the buffer containing its base, so the linear
    /// buffer scan is paid once per batch instead of once per element.
    /// Buffers are disjoint (monotonic page-aligned bases), so probing
    /// the hinted buffer first returns exactly what the scan would; any
    /// address outside it falls back to the scan.
    #[inline]
    fn read_mem_hint(&self, hint: usize, addr: u64) -> u32 {
        if let Some(buf) = self.buffers.get(hint) {
            if buf.holds(addr) {
                return buf.word_at(addr - buf.base);
            }
        }
        self.read_mem(addr)
    }

    /// Index of the buffer containing `addr` (`usize::MAX` when unmapped —
    /// [`Self::read_mem_hint`] then degrades to the plain scan).
    fn buffer_index_of(&self, addr: u64) -> usize {
        self.buffers
            .iter()
            .position(|b| b.holds(addr))
            .unwrap_or(usize::MAX)
    }

    /// Invalidates all caches (a new benchmark's pristine state).
    pub fn flush_caches(&mut self) {
        self.mem.flush_all();
    }

    /// Executes a raw load outside any kernel (used by a few benchmarks
    /// that classify hit/miss directly). Advances the clock like a kernel
    /// load would and returns the resolution plus the noisy latency.
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
    /// equivalent to `launch(KernelBuilder::pchase_kernel(..))`, but
    /// without building an instruction vector or paying the interpreter's
    /// per-instruction dispatch: the warm-up and timed loops run as tight
    /// native loops over the memory hierarchy. The equivalence is pinned
    /// by the `pchase_batch_*_matches_interpreter` tests below.
    pub fn pchase_batch(
        &mut self,
        sm: usize,
        core: usize,
        batch: &PchaseBatch,
        max_records: usize,
    ) -> LaunchResult {
        assert!(batch.n_elems > 0 && batch.timed_steps > 0);
        // MovImm preamble: base (+1); warm-up addr+counter (+2) when
        // warming; timed addr+counter (+2).
        let preamble = if batch.warmup { 5 } else { 3 };
        let warm_steps = if batch.warmup { batch.n_elems } else { 0 };
        self.pchase_exec(
            sm,
            core,
            batch,
            warm_steps,
            batch.timed_steps,
            preamble,
            max_records,
        )
    }

    /// Native equivalent of `launch(KernelBuilder::pchase_warm_kernel(..))`:
    /// one untimed pass over the whole chase array.
    ///
    /// Consumes `base`, `elem_bytes`, `n_elems`, `space` and `flags` of
    /// `batch`; the warm kernel has no timed loop, so `timed_steps` and
    /// `warmup` are ignored (mirroring `pchase_warm_kernel`, which takes
    /// neither parameter).
    pub fn pchase_warm_batch(&mut self, sm: usize, core: usize, batch: &PchaseBatch) {
        assert!(batch.n_elems > 0);
        self.pchase_exec(sm, core, batch, batch.n_elems, 0, 3, 0);
    }

    /// Native equivalent of `launch(KernelBuilder::pchase_timed_kernel(..))`:
    /// `timed_steps` timed steps with no warm-up.
    ///
    /// Consumes `base`, `elem_bytes`, `timed_steps`, `space` and `flags`
    /// of `batch`; the timed kernel never warms and never wraps a ring,
    /// so `warmup` and `n_elems` are ignored (mirroring
    /// `pchase_timed_kernel`, which takes neither parameter).
    pub fn pchase_timed_batch(
        &mut self,
        sm: usize,
        core: usize,
        batch: &PchaseBatch,
        max_records: usize,
    ) -> LaunchResult {
        assert!(batch.timed_steps > 0);
        self.pchase_exec(sm, core, batch, 0, batch.timed_steps, 3, max_records)
    }

    /// Shared body of the batched p-chase entry points. `preamble_alu` is
    /// the number of `MovImm` setup instructions the equivalent kernel
    /// executes; they cost [`ALU_COST`] each and never sit between the two
    /// clock reads, so summing them up front keeps the cycle accounting
    /// identical to the interpreter's.
    #[allow(clippy::too_many_arguments)]
    fn pchase_exec(
        &mut self,
        sm: usize,
        core: usize,
        batch: &PchaseBatch,
        warm_steps: u64,
        timed_steps: u64,
        preamble_alu: u64,
        max_records: usize,
    ) -> LaunchResult {
        let start_cycle = self.cycle;
        self.stats.kernels_launched += 1;
        self.cycle += preamble_alu * ALU_COST;
        let overhead = self.config.clock_overhead_cycles as u64;
        // AMD timed steps are preceded by two `s_waitcnt` fences *outside*
        // the clocked window (see `KernelBuilder::pchase_timed_step`).
        let pre_fences = if self.config.vendor == Vendor::Amd {
            2 * ALU_COST
        } else {
            0
        };

        // The chase ring never leaves the buffer holding its base; resolve
        // the buffer scan once per batch.
        let hint = self.buffer_index_of(batch.base);
        // Noise draws are batched in chunks ahead of the loads. The loads
        // never consume RNG and the draws never depend on a latency, so
        // the RNG stream is draw-for-draw identical to the historical
        // interleaved order (pinned by the interpreter-lockstep tests).
        let noise = self.noise;
        let silent = noise.is_silent();
        let mut draws = [NoiseDraw::default(); NOISE_CHUNK];

        let mut records = Vec::with_capacity(max_records.min(4096));
        let mut addr = batch.base;
        // Warm-up pass: Load + MulImm + Add + BranchDecNz per element.
        let mut remaining = warm_steps;
        while remaining > 0 {
            let k = remaining.min(NOISE_CHUNK as u64) as usize;
            if !silent {
                for d in &mut draws[..k] {
                    *d = noise.draw(&mut self.rng);
                }
            }
            for d in &draws[..k] {
                let res = self.mem.load(sm, core, batch.space, batch.flags, addr);
                let lat = noise.apply(res.latency, *d);
                self.cycle += lat as u64 + 3 * ALU_COST;
                let idx = self.read_mem_hint(hint, addr) as u64;
                addr = batch.base + idx * batch.elem_bytes;
            }
            self.stats.loads_executed += k as u64;
            remaining -= k as u64;
        }
        // Timed pass, restarting from element 0: per step
        // [fences;] clock; load; store/fences; clock; sub; record; mul; add;
        // branch — the recorded value is `latency + store cost + overhead`.
        addr = batch.base;
        let mut remaining = timed_steps;
        while remaining > 0 {
            let k = remaining.min(NOISE_CHUNK as u64) as usize;
            if !silent {
                for d in &mut draws[..k] {
                    *d = noise.draw(&mut self.rng);
                }
            }
            for d in &draws[..k] {
                let res = self.mem.load(sm, core, batch.space, batch.flags, addr);
                let lat = noise.apply(res.latency, *d);
                self.cycle +=
                    pre_fences + 2 * overhead + lat as u64 + STORE_SHARED_COST + 4 * ALU_COST;
                if records.len() < max_records {
                    records.push((lat as u64 + STORE_SHARED_COST + overhead) as u32);
                }
                let idx = self.read_mem_hint(hint, addr) as u64;
                addr = batch.base + idx * batch.elem_bytes;
            }
            self.stats.loads_executed += k as u64;
            remaining -= k as u64;
        }
        let cycles = self.cycle - start_cycle;
        self.stats.total_cycles += cycles;
        LaunchResult { records, cycles }
    }

    /// Launches `kernel` on (`sm`, `core`), recording at most `max_records`
    /// values (the paper's "first N results").
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
        self.stats.kernels_launched += 1;

        while pc < kernel.instrs.len() {
            match kernel.instrs[pc] {
                Instr::ReadClock(dst) => {
                    self.cycle += self.config.clock_overhead_cycles as u64;
                    regs[dst] = self.cycle;
                }
                Instr::Load {
                    dst,
                    addr,
                    space,
                    flags,
                } => {
                    let a = regs[addr];
                    let res = self.mem.load(sm, core, space, flags, a);
                    let lat = self.noise.sample(&mut self.rng, res.latency);
                    self.cycle += lat as u64;
                    self.stats.loads_executed += 1;
                    regs[dst] = self.read_mem(a) as u64;
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
    fn alloc_and_write_round_trip() {
        let mut gpu = quiet_gpu();
        let buf = gpu.alloc(MemorySpace::Global, 4096).unwrap();
        gpu.write_words(buf, 0, &[7, 8, 9]);
        let base = gpu.buffer_base(buf);
        assert_eq!(gpu.read_mem(base), 7);
        assert_eq!(gpu.read_mem(base + 4), 8);
        assert_eq!(gpu.read_mem(base + 8), 9);
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
            idx = gpu.read_mem(base + idx * 32) as u64;
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
    /// a single measured value. Each chase runs on a dense [`Gpu::alloc`]
    /// ring and on [`Gpu::alloc_strided`] rings at the 32 B and 128 B
    /// strides the cache benchmarks chase at, so the interpreter's strided
    /// `read_mem` path is pinned too.
    fn assert_batch_matches_interpreter(gpu: &Gpu, space: MemorySpace, flags: LoadFlags) {
        for (strided, stride) in [(false, 32), (true, 32), (true, 128)] {
            let setup = |g: &mut Gpu| {
                let buf = if strided {
                    g.alloc_strided(space, 8192, stride)
                } else {
                    g.alloc(space, 8192)
                }
                .unwrap();
                let n = g.init_pchase(buf, 8192, stride);
                (g.buffer_base(buf), n)
            };
            for warmup in [true, false] {
                let ctx = format!("strided={strided} stride={stride} warmup={warmup}");
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
                        n_elems: n,
                        timed_steps: 200,
                        space,
                        flags,
                        warmup,
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
        // Every 4-byte read, aligned or not, past the ring's end and into
        // the allocation after it, returns what the dense zero-initialised
        // ring returns — including a stride that is not a power of two
        // (the division path), a size that is not a whole number of
        // elements, and a stride of three pages, whose partial last
        // element spans address space the next allocation owns.
        for stride in [4u64, 32, 48, 128, 4096, 12288] {
            let bytes = 8 * stride + 20;
            let mut dense = quiet_gpu();
            let mut strided = quiet_gpu();
            let d = dense.alloc(MemorySpace::Global, bytes).unwrap();
            let s = strided
                .alloc_strided(MemorySpace::Global, bytes, stride)
                .unwrap();
            assert_eq!(dense.buffer_base(d), strided.buffer_base(s));
            dense.init_pchase(d, bytes, stride);
            strided.init_pchase(s, bytes, stride);
            let mut end = 0;
            for gpu in [&mut dense, &mut strided] {
                let next = gpu.alloc(MemorySpace::Global, 4096).unwrap();
                gpu.write_words(next, 0, &[0xA5A5_A5A5; 1024]);
                end = gpu.buffer_base(next) + 4096 + 8;
            }
            let base = dense.buffer_base(d);
            for addr in base..end {
                assert_eq!(
                    dense.read_mem(addr),
                    strided.read_mem(addr),
                    "stride {stride} offset {}",
                    addr - base
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

    /// The batched executor pre-draws noise in chunks; the interpreter
    /// draws per load. They must stay in RNG lockstep under every noise
    /// model — including HOSTILE (both the jitter and outlier draws are
    /// live) and NONE (the silent fast path must consume *no* RNG).
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
            let batch = PchaseBatch {
                base,
                elem_bytes: 64,
                n_elems: n,
                timed_steps: 48,
                space,
                flags: LoadFlags::CACHE_ALL,
                warmup: false,
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
            b.pchase_warm_batch(0, 0, &batch);
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
            let got = b.pchase_timed_batch(0, 0, &batch, 32);
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
}
