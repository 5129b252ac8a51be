//! The simulated-GPU implementation of
//! [`ntt_core::backend::NttBackend`]: one device backend, two placements.
//!
//! [`DeviceBackend`] executes every trait call through the warp kernels
//! on the `gpu-sim` substrate — data really moves through simulated GMEM,
//! twiddles stream through the read-only cache path as per-stage
//! `(value, companion)` slice-pairs, and the launch trace keeps the
//! paper's traffic accounting. Outputs are **bit-identical** to
//! [`ntt_core::backend::CpuBackend`] (pinned by
//! `tests/backend_conformance.rs` and `tests/residency.rs`).
//!
//! A [`Placement`] decides where the residue rows of each allocation
//! live; the backend's ops, kernels, forward-routing cache and fault
//! gates are written once over it:
//!
//! * [`SimMemory`] — one simulated GPU. Every operand is one zero-copy
//!   piece. [`SimBackend`] is the backend on this placement.
//! * [`crate::ShardedMemory`] — `K` simulated GPUs joined by a modeled
//!   link, row `r` on device `r % K` (see [`crate::sharded`]).
//!   [`crate::ShardedBackend`] is the backend on it.
//!
//! Each device op splits the operand it writes into per-device pieces,
//! gathers what every piece reads onto that piece's device (zero-copy
//! when co-resident, over the link otherwise), and launches the same
//! kernel on each device. With one device the two placements issue the
//! same launches, transfers and modeled times (`tests/placement.rs`).
//!
//! Three layers of device state:
//!
//! * **Tables** upload once per plan and device (re-uploaded only when
//!   the plan changes) and are shared by every fork of the backend.
//! * **Host-batch staging** ([`NttBackend::forward_batch`] and friends)
//!   reuses cached device buffers, but still pays one upload and one
//!   download per call and device — charged to the [`gpu_sim::Gmem`]
//!   transfer ledger, which is exactly the per-call round-trip the
//!   residency layer exists to remove.
//! * **Device-resident execution** (the `dev_*` trait ops over
//!   [`DeviceBuf`] handles) runs whole pipelines on buffers that live in
//!   simulated GMEM: forward/inverse NTTs, element-wise ring ops,
//!   rescaling and gadget digit decomposition, with **zero** host↔device
//!   transfers.
//!
//! Forward transforms are routed per shape: large batches go through the
//! two-kernel SMEM implementation (+OT) the paper's Table II favors or
//! the three-kernel hierarchical 4-step plan ([`crate::hier`]) at
//! bootstrapping scale, with the winner chosen like `best_split` — by the
//! minimum *modeled* time over the Fig. 12(a) candidates plus the
//! near-square hierarchical column counts, measured once per `N` on a
//! scratch device and cached (deterministic, so plans are reproducible).
//! Small shapes keep the radix-2 stage kernels. Set
//! `NTT_WARP_SIM_FORWARD=radix2` (or `smem`, or `hier`) to pin one
//! implementation, and `NTT_WARP_SPLIT=AxB` to pin the hierarchical
//! split itself; swept hierarchical winners persist in the per-host
//! calibration file (`ntt_core::calibration`).
//!
//! # Fallible surface and fault injection
//!
//! The `try_*` ops are provided methods of [`NttBackend`], written once:
//! each runs the backend's [`NttBackend::gate`] and then the unchanged
//! infallible op. The device backend's gate validates operand handles
//! and draws every device's armed [`gpu_sim::FaultPlan`] once per command
//! class the op issues — upload, launch, download for a staged host
//! batch; one launch for a device-resident op — *before* any data moves,
//! so an `Err` always leaves host and device state untouched and the
//! identical call can be retried. The infallible entry points never
//! consult the plan, which keeps calibration sweeps and the figure
//! harness fault-free even when `NTT_WARP_FAULTS` is set (the env plan is
//! armed when the backend is built, not in [`SimMemory::new`], for the
//! same reason).
//!
//! # Panic audit
//!
//! The panic sites that remain in this crate's backend are *invariant
//! assertions*, not recoverable device conditions:
//!
//! * "freed or foreign DeviceBuf" in handle lookups (`resolve`,
//!   `root_base`, the sharded placement's maps) — a caller using a handle
//!   after `free` or against the wrong memory. The gate pre-validates
//!   handles ([`Placement::is_live`]) and reports [`BackendError::Fatal`]
//!   instead; reaching the panic means an *infallible* caller broke the
//!   handle contract.
//! * "tables uploaded" — every op calls `ensure_tables` on each device it
//!   launches on before the kernel helpers run, so an absent table is an
//!   internal sequencing bug, unreachable through the trait.
//! * "distinct primes are coprime" (`dev_rescale`) — an RNS basis with a
//!   repeated prime can't be constructed (`RnsRing::new` rejects it).
//! * Shape `assert!`s on op entry (`dev_decompose`, `dev_modraise`,
//!   `dev_automorphism`, `pointwise_batch`) and the sharded placement's
//!   row-alignment asserts — caller-contract violations.
//! * Kernel-lane `expect`s ("rhs loaded", "lane active") — a warp lane
//!   reading a value its own address computation requested; failure is a
//!   kernel bug, independent of any device state a caller controls.
//!
//! # Example
//!
//! ```
//! use ntt_core::backend::Evaluator;
//! use ntt_core::{RnsPoly, RnsRing};
//! use ntt_gpu::SimBackend;
//!
//! let ring = RnsRing::new(16, ntt_math::ntt_primes(59, 32, 2))?;
//! // The one-line substrate swap: Evaluator::cpu(&ring) vs this.
//! let mut ev = Evaluator::with_backend(&ring, Box::new(SimBackend::titan_v()));
//! let mut a = RnsPoly::from_i64_coeffs(&ring, &[1, 1]);
//! ev.make_resident(&mut a); // one upload; every op below stays on-device
//! let mut c = ev.multiply(&a, &a); // fused multiply on the warp kernels
//! c.sync(); // one download
//! assert_eq!(c.coefficient_centered(&ring, 1), Some(2));
//! # Ok::<(), ntt_core::RingError>(())
//! ```

use crate::hier::{self, DeviceTwist};
use crate::ot::DeviceOt;
use crate::radix2::{launch_forward, launch_inverse, ModMul};
use crate::smem::{self, SmemConfig, SmemJob};
use gpu_sim::{
    Buf, Event, FaultOp, Gpu, GpuConfig, LaunchConfig, OpClass, Stream, WarpCtx, WarpKernel,
};
use ntt_core::backend::{
    BackendError, DeviceBuf, DeviceMemory, LimbBatch, NttBackend, OpKind, RingPlan,
    SharedDeviceMemory, TransferStats,
};
use ntt_math::modops::{add_mod, mul_mod, neg_mod, sub_mod};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Threads per block for the element-wise kernels.
const THREADS: usize = 256;

/// Shapes below this row length keep the radix-2 stage kernels: the
/// two-kernel split needs enough columns per kernel to fill blocks.
const SMEM_MIN_N: usize = 256;

/// Device-resident twiddle tables for one plan (shared by all forks).
struct DevTables {
    n: usize,
    primes: Vec<u64>,
    tw: Buf,
    twc: Buf,
    itw: Buf,
    itwc: Buf,
    /// Per-prime `(N^{-1}, companion, p)` for the inverse scaling pass.
    n_inv: Vec<(u64, u64, u64)>,
    /// Cached OT factor tables (built on first OT-routed forward).
    ot: Option<DeviceOt>,
    /// Cached hierarchical twist-factor tables (built on first
    /// hier-routed forward).
    twist: Option<DeviceTwist>,
}

/// A reusable device data buffer (outgrown buffers are returned to the
/// GMEM free list).
#[derive(Default, Clone, Copy)]
struct DevData {
    buf: Option<Buf>,
}

impl DevData {
    fn ensure(&mut self, gpu: &mut Gpu, words: usize) -> Buf {
        match self.buf {
            Some(b) if b.len() >= words => b,
            old => {
                if let Some(b) = old {
                    gpu.gmem.free(b);
                }
                let b = gpu.gmem.alloc(words);
                self.buf = Some(b);
                b
            }
        }
    }
}

/// One simulated GPU's memory — all of [`SimBackend`]'s, and each shard
/// of a [`crate::ShardedMemory`]: the [`Gpu`] itself
/// (GMEM + launch trace + stream scheduler), the [`DeviceBuf`] handle map,
/// the shared plan tables, and the per-buffer readiness events that guard
/// cross-stream buffer reuse. One mutex guards all of it — forks of a
/// backend share this structure, so resident data is visible to every
/// fork. The mutex keeps the *functional* execution sequentially
/// consistent (one simulated address space); the *modeled* time is no
/// longer serialized: each fork enqueues its kernels and transfers on its
/// own [`Stream`], and the scheduler overlaps them subject to SM capacity
/// (see [`gpu_sim::stream`]).
pub struct SimMemory {
    gpu: Gpu,
    bufs: HashMap<u64, Buf>,
    next_id: u64,
    tables: Option<DevTables>,
    /// Completion event of the last *write* touching an allocation, keyed
    /// by its GMEM base address. Because the free list recycles exact
    /// sizes at stable addresses, a recycled buffer inherits its previous
    /// life's event — which is precisely the fence a new owner on another
    /// stream must wait on before reusing the storage.
    buf_ready: HashMap<usize, Event>,
    /// Fence for the one-time plan-table upload (every kernel reads the
    /// tables, so every op waits on it).
    tables_ready: Event,
}

impl SimMemory {
    /// Fresh simulated device memory over an explicit device model.
    ///
    /// Handle ids start in a process-unique namespace
    /// ([`ntt_core::backend::handle_namespace`]) so a [`DeviceBuf`] minted
    /// by one memory never accidentally resolves against another — a
    /// foreign handle misses the map and surfaces as
    /// [`BackendError::Fatal`] on the fallible paths instead of silently
    /// aliasing an unrelated allocation.
    pub fn new(config: GpuConfig) -> Self {
        Self {
            gpu: Gpu::new(config),
            bufs: HashMap::new(),
            next_id: ntt_core::backend::handle_namespace(),
            tables: None,
            buf_ready: HashMap::new(),
            tables_ready: Event::DONE,
        }
    }

    /// The GMEM view behind a handle (also for kernels driven outside
    /// the backend, e.g. figure experiments on the handle layer).
    ///
    /// # Panics
    ///
    /// Panics on a freed or foreign handle — an invariant assertion on
    /// the infallible paths (the fallible surface pre-validates with
    /// [`Placement::is_live`] and returns [`BackendError::Fatal`]
    /// instead).
    pub fn raw_buf(&self, buf: DeviceBuf) -> Buf {
        self.bufs
            .get(&buf.id())
            .expect("freed or foreign DeviceBuf")
            .sub(buf.base(), buf.len())
    }

    /// The simulated device (launch trace, traffic counters, timeline).
    pub fn gpu(&self) -> &Gpu {
        &self.gpu
    }

    /// Mutable access to the simulated device (for experiments that drive
    /// kernels directly over handle-layer buffers).
    pub fn gpu_mut(&mut self) -> &mut Gpu {
        &mut self.gpu
    }

    /// Root allocation base of a handle (the readiness-map key).
    pub(crate) fn root_base(&self, buf: DeviceBuf) -> usize {
        self.bufs
            .get(&buf.id())
            .expect("freed or foreign DeviceBuf")
            .base()
    }

    /// Route subsequent launches and charged transfers to `s`.
    pub(crate) fn bind(&mut self, s: Stream) {
        self.gpu.set_active_stream(s);
    }

    /// Fence the active stream on the table upload and on the last write
    /// to each involved allocation (keys are GMEM base addresses).
    pub(crate) fn wait_ready(&mut self, bases: &[usize]) {
        let s = self.gpu.active_stream();
        let mut fence = self.tables_ready;
        for b in bases {
            if let Some(e) = self.buf_ready.get(b) {
                fence = fence.max(*e);
            }
        }
        self.gpu.wait_event(s, fence);
    }

    /// The readiness fence for a set of allocations *without* waiting on
    /// it: the latest of the table upload and the last recorded write to
    /// each base. Cross-device copy engines fence **their own** streams
    /// on this event instead of stalling this device's compute stream —
    /// the data dependency crosses the link, the schedule does not.
    pub(crate) fn ready_fence(&self, bases: &[usize]) -> Event {
        let mut fence = self.tables_ready;
        for b in bases {
            if let Some(e) = self.buf_ready.get(b) {
                fence = fence.max(*e);
            }
        }
        fence
    }

    /// Push an allocation's readiness fence forward to `e` if it is
    /// later than what is recorded (write-after-read hazard: a
    /// cross-device read in flight must finish before the next local
    /// writer may land).
    pub(crate) fn fence_until(&mut self, base: usize, e: Event) {
        let cur = self.buf_ready.entry(base).or_insert(e);
        *cur = cur.max(e);
    }

    /// Record the active stream's completion event as the readiness fence
    /// of each written allocation.
    pub(crate) fn mark_written(&mut self, bases: &[usize]) {
        let s = self.gpu.active_stream();
        let e = self.gpu.record_event(s);
        for &b in bases {
            self.buf_ready.insert(b, e);
        }
    }

    /// Borrow a scratch allocation from the GMEM free list for one
    /// multi-kernel launch plan (e.g. the hierarchical NTT's transposed
    /// intermediate). The stale readiness event a recycled base may carry
    /// is *consumed* — the active stream fences on it and then owns the
    /// storage — so repeated acquire/release cycles keep at most one
    /// `buf_ready` entry per recycled base
    /// instead of leaking one per cycle. Pair every call with
    /// [`release_scratch`](SimMemory::release_scratch).
    pub fn acquire_scratch(&mut self, words: usize) -> Buf {
        let buf = self.gpu.gmem.alloc(words);
        if let Some(e) = self.buf_ready.remove(&buf.base()) {
            let s = self.gpu.active_stream();
            self.gpu.wait_event(s, e);
        }
        buf
    }

    /// Return a scratch allocation to the free list, recording the active
    /// stream's completion event as the base's readiness fence (the next
    /// owner of the recycled storage waits on it before touching the
    /// bytes).
    pub fn release_scratch(&mut self, buf: Buf) {
        let s = self.gpu.active_stream();
        let e = self.gpu.record_event(s);
        self.buf_ready.insert(buf.base(), e);
        self.gpu.gmem.free(buf);
    }

    /// Number of live per-allocation readiness entries (test hook for the
    /// boundedness of the event map under scratch recycling).
    pub fn readiness_entries(&self) -> usize {
        self.buf_ready.len()
    }

    /// Draw the device's armed fault plan (if any) for one fallible
    /// backend entry point, classifying a fired fault into the typed
    /// error surface. A fault charges a stall on the active stream — see
    /// [`Gpu::fault_check`].
    pub(crate) fn fault_gate(
        &mut self,
        op: &'static str,
        kind: FaultOp,
    ) -> Result<(), BackendError> {
        self.gpu.fault_check(kind).map_err(|k| classify(k, op, 0))
    }
}

/// Map an injected [`gpu_sim::FaultKind`] onto the typed error surface:
/// transient faults stay retryable, a sticky-wedged device is fatal for
/// every executor sharing it, and OOM carries the request size.
pub(crate) fn classify(kind: gpu_sim::FaultKind, op: &'static str, words: usize) -> BackendError {
    match kind {
        gpu_sim::FaultKind::Transient => BackendError::Transient { op },
        gpu_sim::FaultKind::Sticky => BackendError::Fatal { op },
        gpu_sim::FaultKind::Oom => BackendError::Oom { op, words },
    }
}

impl DeviceMemory for SimMemory {
    fn alloc(&mut self, words: usize) -> DeviceBuf {
        let b = self.gpu.gmem.alloc(words);
        self.next_id += 1;
        self.bufs.insert(self.next_id, b);
        DeviceBuf::root(self.next_id, words)
    }

    fn upload(&mut self, dst: DeviceBuf, src: &[u64]) {
        let b = self.raw_buf(dst);
        let root = self.root_base(dst);
        self.wait_ready(&[root]);
        self.gpu.stream_upload(b, 0, src);
        self.mark_written(&[root]);
    }

    fn download(&mut self, src: DeviceBuf, dst: &mut [u64]) {
        let b = self.raw_buf(src);
        let root = self.root_base(src);
        self.wait_ready(&[root]);
        self.gpu.stream_download(b.sub(0, dst.len()), dst);
    }

    fn copy(&mut self, src: DeviceBuf, dst: DeviceBuf) {
        let (s, d) = (self.raw_buf(src), self.raw_buf(dst));
        let roots = [self.root_base(src), self.root_base(dst)];
        self.wait_ready(&roots);
        self.gpu.gmem.copy(s, d);
        self.mark_written(&roots[1..]);
    }

    fn free(&mut self, buf: DeviceBuf) {
        if let Some(b) = self.bufs.remove(&buf.id()) {
            self.gpu.gmem.free(b);
        }
    }

    fn stats(&self) -> TransferStats {
        let t = self.gpu.gmem.transfer_stats();
        TransferStats {
            uploads: t.uploads,
            upload_words: t.upload_words,
            downloads: t.downloads,
            download_words: t.download_words,
            d2d_copies: t.d2d_copies,
            allocs: t.allocs,
            frees: t.frees,
        }
    }

    fn reset_stats(&mut self) {
        self.gpu.gmem.reset_transfer_stats();
    }

    // The fallible surface: each op draws the armed fault plan *before*
    // touching any data, so an `Err` leaves host and device state exactly
    // as they were and the identical call can be retried.

    fn try_alloc(&mut self, words: usize) -> Result<DeviceBuf, BackendError> {
        let projected = self.gpu.gmem.allocated_words() + words;
        self.gpu
            .fault_check_alloc(projected)
            .map_err(|k| classify(k, "alloc", words))?;
        Ok(self.alloc(words))
    }

    fn try_upload(&mut self, dst: DeviceBuf, src: &[u64]) -> Result<(), BackendError> {
        if !self.is_live(dst) {
            return Err(BackendError::Fatal { op: "upload" });
        }
        self.fault_gate("upload", FaultOp::Upload)?;
        self.upload(dst, src);
        Ok(())
    }

    fn try_download(&mut self, src: DeviceBuf, dst: &mut [u64]) -> Result<(), BackendError> {
        if !self.is_live(src) {
            return Err(BackendError::Fatal { op: "download" });
        }
        self.fault_gate("download", FaultOp::Download)?;
        self.download(src, dst);
        Ok(())
    }
}

/// Which implementation a forward batch of a given shape routes to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ForwardImpl {
    /// One stage-kernel launch per Cooley–Tukey stage.
    Radix2,
    /// Two-kernel SMEM implementation with this split (+OT stages).
    Smem { n1: usize, ot_stages: u32 },
    /// Three-kernel hierarchical (4-step) implementation with this
    /// column count (`n2 = N / n1`).
    Hier { n1: usize },
}

/// The memoized calibration verdict for one shape: the overall
/// modeled-time winner, plus the best SMEM split for the forced-`smem`
/// mode and the best hierarchical split for the forced-`hier` mode
/// (radix-2 when no candidate is feasible at all).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct ShapeChoice {
    auto: ForwardImpl,
    best_smem: ForwardImpl,
    best_hier: ForwardImpl,
}

/// Forced routing mode from `NTT_WARP_SIM_FORWARD`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ForwardMode {
    Auto,
    Radix2,
    Smem,
    Hier,
}

/// The routing mode, resolved from `NTT_WARP_SIM_FORWARD` once per
/// process (this sits on every launch's hot path).
fn forward_mode() -> ForwardMode {
    static MODE: std::sync::OnceLock<ForwardMode> = std::sync::OnceLock::new();
    *MODE.get_or_init(|| {
        match std::env::var("NTT_WARP_SIM_FORWARD")
            .unwrap_or_default()
            .trim()
            .to_ascii_lowercase()
            .as_str()
        {
            "radix2" => ForwardMode::Radix2,
            "smem" => ForwardMode::Smem,
            "hier" => ForwardMode::Hier,
            _ => ForwardMode::Auto,
        }
    })
}

/// Element-wise warp kernels over batches of limb rows: one thread per
/// element, row `r` reduced mod `moduli[row_prime[r]]`.
#[derive(Clone, Copy)]
enum ElemOp {
    /// `a[i] <- a[i] * b[i]` (the paper's pointwise stage).
    Mul,
    /// `a[i] <- a[i] + b[i] * c[i]` (key-switch accumulate).
    Fma,
    /// `a[i] <- a[i] + b[i]`.
    Add,
    /// `a[i] <- a[i] - b[i]`.
    Sub,
    /// `a[i] <- -a[i]`.
    Neg,
}

impl ElemOp {
    fn label(&self) -> &'static str {
        match self {
            ElemOp::Mul => "sim-pointwise",
            ElemOp::Fma => "sim-fma",
            ElemOp::Add => "sim-add",
            ElemOp::Sub => "sim-sub",
            ElemOp::Neg => "sim-neg",
        }
    }
}

struct ElemwiseKernel<'a> {
    op: ElemOp,
    a: Buf,
    b: Option<Buf>,
    c: Option<Buf>,
    n: usize,
    rows: usize,
    row_prime: &'a [usize],
    moduli: &'a [u64],
}

impl WarpKernel for ElemwiseKernel<'_> {
    fn phases(&self) -> usize {
        1
    }

    fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
        let total = self.rows * self.n;
        let lanes = ctx.lanes();
        let mut addr_a = vec![None; lanes];
        let mut addr_b = vec![None; lanes];
        let mut addr_c = vec![None; lanes];
        let mut prime = vec![0usize; lanes];
        let mut active = 0u64;
        for l in 0..lanes {
            let gt = ctx.global_thread(l);
            if gt >= total {
                continue;
            }
            active += 1;
            prime[l] = self.row_prime[gt / self.n];
            addr_a[l] = Some(self.a.word(gt));
            if let Some(b) = self.b {
                addr_b[l] = Some(b.word(gt));
            }
            if let Some(c) = self.c {
                addr_c[l] = Some(c.word(gt));
            }
        }
        if active == 0 {
            return;
        }
        let (a, b) = if self.b.is_some() {
            ctx.gmem_load2(&addr_a, &addr_b)
        } else {
            (ctx.gmem_load(&addr_a), vec![None; lanes])
        };
        let c = if self.c.is_some() {
            ctx.gmem_load(&addr_c)
        } else {
            vec![None; lanes]
        };
        let writes: Vec<Option<(usize, u64)>> = (0..lanes)
            .map(|l| {
                let av = a[l]?;
                let p = self.moduli[prime[l]];
                let v = match self.op {
                    ElemOp::Mul => mul_mod(av, b[l].expect("rhs loaded"), p),
                    ElemOp::Fma => add_mod(
                        av,
                        mul_mod(b[l].expect("x loaded"), c[l].expect("y loaded"), p),
                        p,
                    ),
                    ElemOp::Add => add_mod(av, b[l].expect("rhs loaded"), p),
                    ElemOp::Sub => sub_mod(av, b[l].expect("rhs loaded"), p),
                    ElemOp::Neg => neg_mod(av, p),
                };
                Some((addr_a[l].expect("lane active"), v))
            })
            .collect();
        match self.op {
            ElemOp::Mul => ctx.count_op(OpClass::NativeModMul, active),
            ElemOp::Fma => {
                ctx.count_op(OpClass::NativeModMul, active);
                ctx.count_op(OpClass::ModAddSub, active);
            }
            ElemOp::Add | ElemOp::Sub | ElemOp::Neg => ctx.count_op(OpClass::ModAddSub, active),
        }
        ctx.gmem_store(&writes);
    }
}

/// The device-side CKKS rescale step (see
/// `ntt_core::backend::NttBackend::dev_rescale` for the contract) on one
/// device's piece of the data rows: one thread per element, each reading
/// its own word and the same column of the dropped last row, which
/// arrives as a separate (possibly gathered) buffer.
struct RescaleKernel<'a> {
    data: Buf,
    last: Buf,
    n: usize,
    rows: usize,
    /// `(p_last^{-1} mod p_i, p_i)` per local row.
    inv_p: &'a [(u64, u64)],
}

impl WarpKernel for RescaleKernel<'_> {
    fn phases(&self) -> usize {
        1
    }

    fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
        let total = self.rows * self.n;
        let lanes = ctx.lanes();
        let mut addr_x = vec![None; lanes];
        let mut addr_l = vec![None; lanes];
        let mut row = vec![0usize; lanes];
        let mut active = 0u64;
        for l in 0..lanes {
            let gt = ctx.global_thread(l);
            if gt >= total {
                continue;
            }
            active += 1;
            row[l] = gt / self.n;
            addr_x[l] = Some(self.data.word(gt));
            addr_l[l] = Some(self.last.word(gt % self.n));
        }
        if active == 0 {
            return;
        }
        let (x, last) = ctx.gmem_load2(&addr_x, &addr_l);
        let writes: Vec<Option<(usize, u64)>> = (0..lanes)
            .map(|l| {
                let xv = x[l]?;
                let lv = last[l].expect("last row loaded");
                let (inv, p) = self.inv_p[row[l]];
                let diff = sub_mod(xv, lv % p, p);
                Some((addr_x[l].expect("lane active"), mul_mod(diff, inv, p)))
            })
            .collect();
        ctx.count_op(OpClass::NativeModMul, active);
        ctx.count_op(OpClass::ModAddSub, active);
        ctx.gmem_store(&writes);
    }
}

/// Device-side gadget digit decomposition (layout per
/// `ntt_core::backend::NttBackend::dev_decompose`) writing one device's
/// piece of the digit-poly rows from the full `level × N` source: one
/// thread per output element, each reading its source word and
/// extracting one base-`2^w` digit.
struct DecomposeKernel<'a> {
    src: Buf,
    dst: Buf,
    n: usize,
    level: usize,
    digits: usize,
    gadget_bits: u32,
    /// Global digit-buffer row of each local destination row.
    rows: &'a [usize],
}

impl WarpKernel for DecomposeKernel<'_> {
    fn phases(&self) -> usize {
        1
    }

    fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
        let total = self.rows.len() * self.n;
        let mask = (1u64 << self.gadget_bits) - 1;
        let lanes = ctx.lanes();
        let mut addr_s = vec![None; lanes];
        let mut shift = vec![0u32; lanes];
        let mut active = 0u64;
        for l in 0..lanes {
            let gt = ctx.global_thread(l);
            if gt >= total {
                continue;
            }
            active += 1;
            let poly = self.rows[gt / self.n] / self.level;
            let (j, d) = (poly / self.digits, poly % self.digits);
            let t = gt % self.n;
            shift[l] = self.gadget_bits * d as u32;
            addr_s[l] = Some(self.src.word(j * self.n + t));
        }
        if active == 0 {
            return;
        }
        // Replicated rows re-read the same source words; the read-only
        // path absorbs the repeats the way twiddle broadcasts do.
        let vals = ctx.gmem_load_cached(&addr_s);
        let writes: Vec<Option<(usize, u64)>> = (0..lanes)
            .map(|l| {
                let v = vals[l]?;
                Some((self.dst.word(ctx.global_thread(l)), (v >> shift[l]) & mask))
            })
            .collect();
        ctx.count_op(OpClass::Generic, active);
        ctx.gmem_store(&writes);
    }
}

/// Device-side Galois automorphism `X → X^g` (index map per
/// `ntt_core::backend::NttBackend::dev_automorphism`): one thread per
/// *input* element — a coalesced read, a scattered sign-wrapped write —
/// the same shape a real permutation kernel takes.
struct AutomorphismKernel<'a> {
    src: Buf,
    dst: Buf,
    n: usize,
    rows: usize,
    /// Galois element already reduced mod `2N`.
    g: u64,
    row_prime: &'a [usize],
    moduli: &'a [u64],
}

impl WarpKernel for AutomorphismKernel<'_> {
    fn phases(&self) -> usize {
        1
    }

    fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
        let total = self.rows * self.n;
        let two_n = 2 * self.n as u64;
        let lanes = ctx.lanes();
        let mut addr_s = vec![None; lanes];
        let mut addr_d = vec![0usize; lanes];
        let mut wrap = vec![false; lanes];
        let mut prime = vec![0usize; lanes];
        let mut active = 0u64;
        for l in 0..lanes {
            let gt = ctx.global_thread(l);
            if gt >= total {
                continue;
            }
            active += 1;
            let (r, i) = (gt / self.n, gt % self.n);
            prime[l] = self.row_prime[r];
            let idx = (i as u64 * self.g) % two_n;
            wrap[l] = idx >= self.n as u64;
            let t = if wrap[l] {
                idx as usize - self.n
            } else {
                idx as usize
            };
            addr_s[l] = Some(self.src.word(gt));
            addr_d[l] = self.dst.word(r * self.n + t);
        }
        if active == 0 {
            return;
        }
        let vals = ctx.gmem_load(&addr_s);
        let writes: Vec<Option<(usize, u64)>> = (0..lanes)
            .map(|l| {
                let v = vals[l]?;
                let p = self.moduli[prime[l]];
                Some((addr_d[l], if wrap[l] { neg_mod(v, p) } else { v }))
            })
            .collect();
        ctx.count_op(OpClass::ModAddSub, active);
        ctx.gmem_store(&writes);
    }
}

/// Device-side mod-raise (centered lift per
/// `ntt_core::backend::NttBackend::dev_modraise`) writing one device's
/// piece of the raised rows: one thread per *output* element; every row
/// re-reads the same `N` source words, so the read goes through the
/// cached path like the decompose kernel's replicated rows.
struct ModRaiseKernel<'a> {
    src: Buf,
    dst: Buf,
    n: usize,
    /// Global row (= prime index) of each local destination row.
    rows: &'a [usize],
    p0: u64,
    moduli: &'a [u64],
}

impl WarpKernel for ModRaiseKernel<'_> {
    fn phases(&self) -> usize {
        1
    }

    fn run_warp(&self, ctx: &mut WarpCtx<'_>) {
        let total = self.rows.len() * self.n;
        let half = self.p0 >> 1;
        let lanes = ctx.lanes();
        let mut addr_s = vec![None; lanes];
        let mut prime = vec![0usize; lanes];
        let mut active = 0u64;
        for l in 0..lanes {
            let gt = ctx.global_thread(l);
            if gt >= total {
                continue;
            }
            active += 1;
            prime[l] = self.rows[gt / self.n];
            addr_s[l] = Some(self.src.word(gt % self.n));
        }
        if active == 0 {
            return;
        }
        let vals = ctx.gmem_load_cached(&addr_s);
        let writes: Vec<Option<(usize, u64)>> = (0..lanes)
            .map(|l| {
                let v = vals[l]?;
                let p = self.moduli[prime[l]];
                let lifted = if v <= half {
                    v % p
                } else {
                    neg_mod((self.p0 - v) % p, p)
                };
                Some((self.dst.word(ctx.global_thread(l)), lifted))
            })
            .collect();
        ctx.count_op(OpClass::Generic, active);
        ctx.gmem_store(&writes);
    }
}

/// Upload (or reuse) the plan's twiddle tables into shared device state.
/// Tables are keyed on `(N, primes)`; a plan over the same ring never
/// re-uploads (table uploads are the counted, one-time part of a resident
/// chain's "initial upload").
fn ensure_tables(m: &mut SimMemory, plan: &RingPlan) {
    let n = plan.degree();
    let primes = plan.ring().basis().primes();
    if let Some(t) = &m.tables {
        if t.n == n && t.primes == primes {
            return;
        }
    }
    // Plan change: return the previous plan's table (and OT) buffers to
    // the free list before uploading the new ones, so alternating between
    // rings does not grow the simulated address space without bound.
    if let Some(old) = m.tables.take() {
        for buf in [old.tw, old.twc, old.itw, old.itwc] {
            m.gpu.gmem.free(buf);
        }
        if let Some(ot) = old.ot {
            for buf in [ot.lo_w, ot.lo_c, ot.hi_w, ot.hi_c] {
                m.gpu.gmem.free(buf);
            }
        }
        if let Some(tw) = old.twist {
            for buf in [tw.lo_w, tw.lo_c, tw.hi_w, tw.hi_c] {
                m.gpu.gmem.free(buf);
            }
        }
    }
    let np = plan.np();
    let mut tw = Vec::with_capacity(np * n);
    let mut twc = Vec::with_capacity(np * n);
    let mut itw = Vec::with_capacity(np * n);
    let mut itwc = Vec::with_capacity(np * n);
    let mut n_inv = Vec::with_capacity(np);
    for i in 0..np {
        let t = plan.table(i);
        tw.extend_from_slice(t.forward_values());
        twc.extend_from_slice(t.forward_companions());
        itw.extend_from_slice(t.inverse_values());
        itwc.extend_from_slice(t.inverse_companions());
        n_inv.push((t.n_inv().value(), t.n_inv().companion(), t.modulus()));
    }
    // Table uploads are charged to whichever stream first needs the plan
    // (typically the keygen/setup stream); every later op on any stream
    // fences on `tables_ready` before launching.
    let up = |m: &mut SimMemory, host: &[u64]| -> Buf {
        let b = m.gpu.gmem.alloc(host.len());
        m.gpu.stream_upload(b, 0, host);
        b
    };
    let (tw, twc, itw, itwc) = (up(m, &tw), up(m, &twc), up(m, &itw), up(m, &itwc));
    m.tables = Some(DevTables {
        n,
        primes: primes.to_vec(),
        tw,
        twc,
        itw,
        itwc,
        n_inv,
        ot: None,
        twist: None,
    });
    let s = m.gpu.active_stream();
    m.tables_ready = m.gpu.record_event(s);
}

/// The cached OT factor tables for the current plan tables, built on the
/// first OT-routed forward.
fn ensure_ot(m: &mut SimMemory, plan: &RingPlan, base: usize) -> DeviceOt {
    let tables = m.tables.as_ref().expect("tables uploaded");
    if let Some(ot) = tables.ot {
        return ot;
    }
    let host_tables: Vec<&ntt_core::NttTable> = (0..plan.np()).map(|i| plan.table(i)).collect();
    let ot = DeviceOt::upload_tables(&mut m.gpu, plan.degree(), &host_tables, base);
    m.tables.as_mut().expect("tables uploaded").ot = Some(ot);
    ot
}

/// The cached hierarchical twist-factor tables for the current plan
/// tables, built on the first hier-routed forward.
fn ensure_twist(m: &mut SimMemory, plan: &RingPlan) -> DeviceTwist {
    let tables = m.tables.as_ref().expect("tables uploaded");
    if let Some(twist) = tables.twist {
        return twist;
    }
    let host_tables: Vec<&ntt_core::NttTable> = (0..plan.np()).map(|i| plan.table(i)).collect();
    let base = hier::TWIST_BASE.min(2 * plan.degree());
    let twist = DeviceTwist::upload_tables(&mut m.gpu, plan.degree(), &host_tables, base);
    m.tables.as_mut().expect("tables uploaded").twist = Some(twist);
    twist
}

/// Launch a forward NTT over `row_prime.len()` rows at `data` through the
/// chosen implementation (radix-2 stage kernels, the SMEM two-kernel
/// split, or the hierarchical three-kernel plan, per `choice`).
fn run_forward(
    m: &mut SimMemory,
    plan: &RingPlan,
    data: Buf,
    row_prime: &[usize],
    choice: ForwardImpl,
) {
    match choice {
        ForwardImpl::Radix2 => {
            let SimMemory { gpu, tables, .. } = m;
            let t = tables.as_ref().expect("tables uploaded");
            launch_forward(
                gpu,
                data,
                t.tw,
                t.twc,
                t.n,
                row_prime,
                &t.primes,
                ModMul::Shoup,
            );
        }
        ForwardImpl::Smem { n1, ot_stages } => {
            let cfg = SmemConfig::new(n1).ot_stages(ot_stages);
            let ot = (ot_stages > 0).then(|| ensure_ot(m, plan, cfg.ot_base));
            let SimMemory { gpu, tables, .. } = m;
            let t = tables.as_ref().expect("tables uploaded");
            let job = SmemJob {
                data,
                tw: t.tw,
                twc: t.twc,
                n: t.n,
                log_n: t.n.trailing_zeros(),
                moduli: &t.primes,
                row_prime,
            };
            smem::launch_job(gpu, &job, &cfg, ot.as_ref());
        }
        ForwardImpl::Hier { n1 } => {
            let twist = ensure_twist(m, plan);
            let scratch = m.acquire_scratch(row_prime.len() * plan.degree());
            {
                let SimMemory { gpu, tables, .. } = &mut *m;
                let t = tables.as_ref().expect("tables uploaded");
                let job = hier::HierJob {
                    data,
                    scratch,
                    tw: t.tw,
                    twc: t.twc,
                    n: t.n,
                    log_n: t.n.trailing_zeros(),
                    moduli: &t.primes,
                    row_prime,
                };
                hier::launch_job(gpu, &job, n1, &twist, hier::PER_THREAD);
            }
            m.release_scratch(scratch);
        }
    }
}

/// Launch the inverse NTT (always the radix-2 stage kernels — the SMEM
/// implementation is forward-only, matching the paper's Table II setup).
fn run_inverse(m: &mut SimMemory, data: Buf, row_prime: &[usize]) {
    let SimMemory { gpu, tables, .. } = m;
    let t = tables.as_ref().expect("tables uploaded");
    launch_inverse(
        gpu, data, t.itw, t.itwc, t.n, row_prime, &t.primes, &t.n_inv,
    );
}

/// Launch a one-thread-per-element kernel over `elems` elements.
fn launch(gpu: &mut Gpu, kernel: &impl WarpKernel, label: &str, elems: usize) {
    let cfg = LaunchConfig::new(label, elems.div_ceil(THREADS), THREADS).regs_per_thread(40);
    gpu.launch(kernel, &cfg);
}

/// Launch one element-wise kernel.
fn launch_elemwise(
    m: &mut SimMemory,
    op: ElemOp,
    a: Buf,
    b: Option<Buf>,
    c: Option<Buf>,
    n: usize,
    row_prime: &[usize],
) {
    let t = m.tables.as_ref().expect("tables uploaded");
    let kernel = ElemwiseKernel {
        a,
        b,
        c,
        n,
        rows: row_prime.len(),
        row_prime,
        moduli: &t.primes,
        op,
    };
    launch(&mut m.gpu, &kernel, op.label(), row_prime.len() * n);
}

/// Launch the Galois automorphism kernel over `row_prime.len()` local
/// rows (`X → X^g`, `g` already reduced mod `2N`). The permutation is
/// row-local — row `r` of `dst` depends only on row `r` of `src` — which
/// is what lets a sharded placement run it device-parallel on row slices.
fn launch_automorphism(
    m: &mut SimMemory,
    src: Buf,
    dst: Buf,
    n: usize,
    g: u64,
    row_prime: &[usize],
) {
    let t = m.tables.as_ref().expect("tables uploaded");
    let kernel = AutomorphismKernel {
        src,
        dst,
        n,
        rows: row_prime.len(),
        g,
        row_prime,
        moduli: &t.primes,
    };
    launch(&mut m.gpu, &kernel, "sim-automorphism", row_prime.len() * n);
}

/// One device's slice of a device-op view: the view-relative rows it
/// owns, ascending, and the locally contiguous piece holding them in
/// that order.
pub struct RowSeg {
    /// Owning device.
    pub(crate) shard: usize,
    /// View-relative index of each local row.
    pub(crate) rows: Vec<usize>,
    /// The rows as one contiguous view into the device-local allocation.
    pub(crate) local: DeviceBuf,
}

impl RowSeg {
    /// The RNS prime index of each local row (row `r` of a view is
    /// reduced mod prime `r % level`).
    fn row_primes(&self, level: usize) -> Vec<usize> {
        self.rows.iter().map(|&r| r % level).collect()
    }
}

/// Rows of an operand materialized on one device: a zero-copy reference
/// to the resident rows, or gathered scratch that goes back through
/// [`Placement::release_gather`].
pub struct Gathered {
    pub(crate) buf: Buf,
    pub(crate) scratch: bool,
}

/// Where a [`DeviceBackend`] keeps residue rows: the simulated GPUs it
/// drives and which of them owns each row of an allocation.
///
/// [`SimMemory`] is the one-device placement; [`crate::ShardedMemory`]
/// the cyclic `K`-device one. Both are shared by every fork of their
/// backend, so resident data is visible to all forks.
pub trait Placement: DeviceMemory + Sized + 'static {
    /// [`NttBackend::name`] of the backend on this placement.
    const NAME: &'static str;

    /// Number of simulated GPUs.
    fn devices(&self) -> usize;

    /// Simulated GPU `s`.
    fn device(&self, s: usize) -> &SimMemory;

    /// Mutable access to simulated GPU `s`.
    fn device_mut(&mut self, s: usize) -> &mut SimMemory;

    /// The per-device pieces of a device-op view of `n`-word rows.
    fn row_segments(&self, view: DeviceBuf, n: usize) -> Vec<RowSeg>;

    /// Materialize the given view rows (ascending, view-relative) on
    /// device `to`, fencing its active stream on their readiness. Pair
    /// with [`Placement::release_gather`].
    fn gather_rows(&mut self, view: DeviceBuf, rows: &[usize], to: usize, n: usize) -> Gathered;

    /// Return gathered scratch to device `to` (no-op for a zero-copy
    /// reference).
    fn release_gather(&mut self, to: usize, g: Gathered) {
        if g.scratch {
            self.device_mut(to).release_scratch(g.buf);
        }
    }

    /// Whether a handle view still resolves to a live allocation (the
    /// non-panicking counterpart of the handle lookups).
    fn is_live(&self, buf: DeviceBuf) -> bool;
}

impl Placement for SimMemory {
    const NAME: &'static str = "gpu-sim";

    fn devices(&self) -> usize {
        1
    }

    fn device(&self, _s: usize) -> &SimMemory {
        self
    }

    fn device_mut(&mut self, _s: usize) -> &mut SimMemory {
        self
    }

    /// One piece: the whole view.
    fn row_segments(&self, view: DeviceBuf, n: usize) -> Vec<RowSeg> {
        vec![RowSeg {
            shard: 0,
            rows: (0..view.len() / n).collect(),
            local: view,
        }]
    }

    /// Every row is already here: a zero-copy sub-view.
    fn gather_rows(&mut self, view: DeviceBuf, rows: &[usize], _to: usize, n: usize) -> Gathered {
        debug_assert!(
            rows.windows(2).all(|w| w[1] == w[0] + 1),
            "single-device gathers are contiguous row spans"
        );
        let root = self.root_base(view);
        self.wait_ready(&[root]);
        let first = rows.first().copied().unwrap_or(0);
        Gathered {
            buf: self.raw_buf(view).sub(first * n, rows.len() * n),
            scratch: false,
        }
    }

    fn is_live(&self, buf: DeviceBuf) -> bool {
        self.bufs
            .get(&buf.id())
            .is_some_and(|b| buf.base() + buf.len() <= b.len())
    }
}

/// One executor's reusable staging buffers on one device.
#[derive(Default)]
struct Staging {
    /// Primary host-batch operand.
    data: DevData,
    /// Secondary host-batch operand.
    scratch: DevData,
    /// `dev_multiply`'s second-operand scratch.
    mul_scratch: DevData,
}

/// The simulated-GPU backend over a [`Placement`]: shared device memory
/// plus this executor's streams, staging buffers and the memoized
/// forward-routing table.
///
/// The root backend runs on [`Stream::DEFAULT`] of every device; every
/// [`NttBackend::fork`] allocates its own streams, so concurrent
/// evaluators from the pool enqueue on independent queues and their
/// modeled device time overlaps (subject to SM capacity).
pub struct DeviceBackend<M: Placement> {
    mem: Arc<Mutex<M>>,
    /// This executor's compute stream on each device.
    streams: Vec<Stream>,
    /// Copy streams for staging prefetches ([`NttBackend::stage_upload`]),
    /// one per device, created on first use: uploads ride here so compute
    /// queued on `streams` overlaps the transfer, fenced per buffer by the
    /// readiness events.
    copy_streams: Vec<Stream>,
    /// This executor's staging buffers on each device.
    staging: Vec<Staging>,
    /// Memoized per-`N` forward implementation choice (shared by forks so
    /// the calibration runs once per shape per backend family).
    split_cache: Arc<Mutex<HashMap<usize, ShapeChoice>>>,
}

/// The single-device backend: [`DeviceBackend`] on one [`SimMemory`].
pub type SimBackend = DeviceBackend<SimMemory>;

/// Lock a shared memory, recovering from poisoning (free function so
/// callers can hold `&mut` to other backend fields across the guard).
pub(crate) fn lock<M>(mem: &Mutex<M>) -> MutexGuard<'_, M> {
    mem.lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Row range of a `rows`-row host batch handled by device `s` of `k`: a
/// contiguous block split whose block sizes differ by at most one.
pub(crate) fn shard_rows(rows: usize, k: usize, s: usize) -> std::ops::Range<usize> {
    (s * rows / k)..((s + 1) * rows / k)
}

impl<M: Placement> DeviceBackend<M> {
    /// Backend over a fresh placement.
    ///
    /// If `NTT_WARP_FAULTS` is set, the parsed [`gpu_sim::FaultPlan`] is
    /// armed on every device — each draws its own schedule, so fault
    /// rates scale with the device count. Arming happens *here*, not in
    /// [`SimMemory::new`], so the scratch devices the forward-choice
    /// calibration sweeps build stay fault-free by construction.
    pub(crate) fn with_memory(mem: M) -> Self {
        let k = mem.devices();
        let backend = Self {
            mem: Arc::new(Mutex::new(mem)),
            streams: vec![Stream::DEFAULT; k],
            copy_streams: Vec::new(),
            staging: (0..k).map(|_| Staging::default()).collect(),
            split_cache: Arc::new(Mutex::new(HashMap::new())),
        };
        if let Some(plan) = gpu_sim::FaultPlan::from_env() {
            backend.set_fault_plan(Some(plan));
        }
        backend
    }

    pub(crate) fn lock(&self) -> MutexGuard<'_, M> {
        lock(&self.mem)
    }

    /// Arm (or with `None`, disarm) a deterministic fault schedule on
    /// every device. Affects every fork sharing this backend's memory;
    /// only the fallible `try_*` entry points draw from the plan. See
    /// [`gpu_sim::FaultPlan`].
    pub fn set_fault_plan(&self, plan: Option<gpu_sim::FaultPlan>) {
        let mut m = self.lock();
        for s in 0..m.devices() {
            m.device_mut(s).gpu_mut().set_fault_plan(plan.clone());
        }
    }

    /// A clone of the shared device-memory handle, typed — lets harnesses
    /// observe the devices (timeline, trace, link ledger) after the
    /// backend has been boxed into an evaluator or `HeContext`.
    pub fn memory_handle(&self) -> Arc<Mutex<M>> {
        Arc::clone(&self.mem)
    }

    /// The host↔device transfer ledger, summed over devices (see
    /// [`gpu_sim::Gmem`]).
    pub fn transfer_stats(&self) -> TransferStats {
        self.lock().stats()
    }

    /// Route every device's launches and charged transfers to this
    /// executor's streams.
    fn bind(&self, m: &mut M) {
        for (s, &stream) in self.streams.iter().enumerate() {
            m.device_mut(s).bind(stream);
        }
    }

    /// The forward implementation for an `n`-point batch: the env
    /// override, the small-shape radix-2 floor, or the memoized
    /// modeled-time winner over the paper's split candidates (swept on a
    /// scratch single device — the shape class is decided by `N`).
    fn forward_choice(&self, n: usize, rows: usize) -> ForwardImpl {
        match forward_mode() {
            ForwardMode::Radix2 => return ForwardImpl::Radix2,
            ForwardMode::Smem if n >= 4 => {
                return self.cached_or_calibrated(n, rows).best_smem;
            }
            ForwardMode::Hier if n >= 4 => {
                return self.cached_or_calibrated(n, rows).best_hier;
            }
            _ => {}
        }
        if n < SMEM_MIN_N {
            return ForwardImpl::Radix2;
        }
        self.cached_or_calibrated(n, rows).auto
    }

    fn cached_or_calibrated(&self, n: usize, rows: usize) -> ShapeChoice {
        if let Some(&c) = lock(&self.split_cache).get(&n) {
            return c;
        }
        let config = self.lock().device(0).gpu().config.clone();
        let choice = calibrate_forward_choice(&config, n, rows);
        lock(&self.split_cache).insert(n, choice);
        choice
    }

    /// One staged host batch of `out.len() / n` rows: each device takes a
    /// contiguous block of rows, uploads its block of `src` (or of `out`
    /// itself when `src` is `None`) and of `rhs` into its staging
    /// buffers, runs `body` over them, and downloads the primary buffer
    /// into its block of `out`. Host-batch operands are transient, so the
    /// block split is free to differ from the placement of resident
    /// allocations.
    #[allow(clippy::too_many_arguments)]
    fn staged(
        &mut self,
        plan: &RingPlan,
        n: usize,
        level: usize,
        src: Option<&[u64]>,
        rhs: Option<&[u64]>,
        out: &mut [u64],
        body: impl Fn(&mut SimMemory, Buf, Option<Buf>, &[usize]),
    ) {
        let rows = out.len() / n;
        let mut m = lock(&self.mem);
        let k = m.devices();
        for s in 0..k {
            let r = shard_rows(rows, k, s);
            if r.is_empty() {
                continue;
            }
            let words = r.len() * n;
            let span = r.start * n..r.end * n;
            let dev = m.device_mut(s);
            dev.bind(self.streams[s]);
            ensure_tables(dev, plan);
            let st = &mut self.staging[s];
            let abuf = st.data.ensure(dev.gpu_mut(), words).sub(0, words);
            let bbuf = rhs.map(|_| st.scratch.ensure(dev.gpu_mut(), words).sub(0, words));
            let bases: Vec<usize> = [Some(abuf), bbuf].iter().flatten().map(Buf::base).collect();
            dev.wait_ready(&bases);
            let a_in = src.unwrap_or(&*out);
            dev.gpu_mut().stream_upload(abuf, 0, &a_in[span.clone()]);
            if let (Some(b), Some(rhs)) = (bbuf, rhs) {
                dev.gpu_mut().stream_upload(b, 0, &rhs[span.clone()]);
            }
            body(dev, abuf, bbuf, &r.map(|r| r % level).collect::<Vec<_>>());
            dev.gpu_mut().stream_download(abuf, &mut out[span]);
            dev.mark_written(&bases);
        }
    }

    /// One device-resident op writing `out`: for each device's piece of
    /// `out`, upload the plan tables if needed, gather every read operand
    /// onto that device (`(view, None)` reads the piece's own rows of
    /// `view`, `(view, Some(rows))` the listed view rows), fence on the
    /// piece, run `body(device, piece, out_raw, gathered, staging)` and
    /// record the piece's write.
    fn resident(
        &mut self,
        plan: &RingPlan,
        out: DeviceBuf,
        reads: &[(DeviceBuf, Option<&[usize]>)],
        mut body: impl FnMut(&mut SimMemory, &RowSeg, Buf, &[Buf], &mut Staging),
    ) {
        let n = plan.degree();
        let mut m = lock(&self.mem);
        self.bind(&mut m);
        for seg in m.row_segments(out, n) {
            let s = seg.shard;
            ensure_tables(m.device_mut(s), plan);
            let gathered: Vec<Gathered> = reads
                .iter()
                .map(|&(view, rows)| m.gather_rows(view, rows.unwrap_or(&seg.rows), s, n))
                .collect();
            let ins: Vec<Buf> = gathered.iter().map(|g| g.buf).collect();
            let dev = m.device_mut(s);
            let root = dev.root_base(seg.local);
            let raw = dev.raw_buf(seg.local);
            dev.wait_ready(&[root]);
            body(dev, &seg, raw, &ins, &mut self.staging[s]);
            dev.mark_written(&[root]);
            for g in gathered {
                m.release_gather(s, g);
            }
        }
    }

    /// One element-wise kernel `acc ← op(acc, reads…)` over the rows of
    /// `acc`, reading the same rows of each operand.
    fn elementwise(
        &mut self,
        plan: &RingPlan,
        op: ElemOp,
        acc: DeviceBuf,
        reads: &[DeviceBuf],
        level: usize,
    ) {
        let n = plan.degree();
        let reads: Vec<(DeviceBuf, Option<&[usize]>)> = reads.iter().map(|&r| (r, None)).collect();
        self.resident(plan, acc, &reads, |dev, seg, a, ins, _| {
            let (b, c) = (ins.first().copied(), ins.get(1).copied());
            launch_elemwise(dev, op, a, b, c, n, &seg.row_primes(level));
        });
    }
}

impl SimBackend {
    /// Backend over an explicit device model.
    pub fn new(config: GpuConfig) -> Self {
        Self::with_memory(SimMemory::new(config))
    }

    /// Backend over the paper's Titan-V device model.
    pub fn titan_v() -> Self {
        Self::new(GpuConfig::titan_v())
    }

    /// Inspect the underlying simulated device (launch trace, traffic
    /// counters) under the shared-memory lock.
    pub fn with_gpu<R>(&self, f: impl FnOnce(&Gpu) -> R) -> R {
        f(self.lock().gpu())
    }
}

impl Default for SimBackend {
    fn default() -> Self {
        Self::titan_v()
    }
}

impl<M: Placement> Drop for DeviceBackend<M> {
    fn drop(&mut self) {
        let mut m = lock(&self.mem);
        let streams = self.streams.iter().enumerate();
        for (s, &stream) in streams.chain(self.copy_streams.iter().enumerate()) {
            m.device_mut(s).gpu_mut().destroy_stream(stream);
        }
    }
}

/// A forward-implementation candidate in the calibration sweep.
enum Cand {
    Radix2,
    Smem(SmemConfig),
    Hier(usize),
}

/// Pick the forward implementation for `n`-point rows the way
/// `best_split` does: run every feasible Fig. 12(a) split (with and
/// without OT), every hierarchical 4-step column count, and the radix-2
/// baseline on a **scratch** device of the same model, and keep the
/// minimum modeled time. Purely simulated, so the verdict is
/// deterministic and reproducible across runs. The overall winner
/// (`auto`, which may be radix-2), the best SMEM split (forced-`smem`
/// mode) and the best hierarchical split (forced-`hier` mode) are all
/// returned and cached — a radix-2 verdict must not re-trigger the
/// sweep on every launch.
///
/// Hierarchical candidates follow a precedence chain: an
/// `NTT_WARP_SPLIT=AxB` override (with `A*B == n`) is authoritative; a
/// split persisted in the per-host calibration file is reused next; only
/// when neither applies does the sweep try the near-square column counts,
/// persisting the winner for future processes.
fn calibrate_forward_choice(config: &GpuConfig, n: usize, rows: usize) -> ShapeChoice {
    let log_n = n.trailing_zeros();
    let np = rows.clamp(1, 4);
    let bench = |cand: &Cand| -> Option<f64> {
        // Scratch device through the handle layer, so even calibration
        // sweeps exercise the same allocator as resident execution.
        let mut mem = SimMemory::new(config.clone());
        let batch = crate::batch::DeviceBatch::sequential_on(&mut mem, log_n, np, 60).ok()?;
        let rep = match cand {
            Cand::Radix2 => crate::radix2::run(mem.gpu_mut(), &batch, ModMul::Shoup),
            Cand::Smem(c) => smem::run(mem.gpu_mut(), &batch, c),
            Cand::Hier(n1) => hier::run(mem.gpu_mut(), &batch, *n1),
        };
        Some(rep.total_s())
    };
    let mut auto: Option<(ForwardImpl, f64)> =
        bench(&Cand::Radix2).map(|t| (ForwardImpl::Radix2, t));
    let mut best_smem: Option<(ForwardImpl, f64)> = None;
    for n1 in SmemConfig::paper_splits(log_n) {
        if !(n1.is_power_of_two() && n1 >= 2 && n1 <= n / 2) {
            continue;
        }
        for ot_stages in [0u32, 2] {
            let cfg = SmemConfig::new(n1).ot_stages(ot_stages);
            if ot_stages > 0 && ((1usize << ot_stages) > n / n1 || cfg.ot_base * cfg.ot_base < n) {
                continue;
            }
            if !smem::job_feasible(n, &cfg, config) {
                continue;
            }
            if let Some(t) = bench(&Cand::Smem(cfg)) {
                let choice = ForwardImpl::Smem { n1, ot_stages };
                if best_smem.as_ref().is_none_or(|(_, b)| t < *b) {
                    best_smem = Some((choice, t));
                }
                if auto.as_ref().is_none_or(|(_, b)| t < *b) {
                    auto = Some((choice, t));
                }
            }
        }
    }
    let forced = ntt_core::hier::env_split().filter(|&(a, b)| a * b == n);
    let calib_path = ntt_core::calibration::calibration_path();
    // Persisted splits are keyed by the device-model fingerprint: a split
    // swept under one config is never adopted under another (it would be
    // stale the moment SM count, bandwidths, or link parameters change).
    let fp = config.fingerprint();
    let persisted = if forced.is_none() {
        calib_path
            .as_deref()
            .and_then(|p| ntt_core::calibration::load_hier_split(p, n, fp))
    } else {
        None
    };
    let hier_splits: Vec<usize> = match forced.or(persisted) {
        Some((a, _)) => vec![a],
        None => {
            let l = log_n as usize;
            let mut v = vec![
                1usize << (l / 2),
                1usize << l.div_ceil(2),
                1usize << (l / 2 + 1),
            ];
            if l / 2 >= 1 {
                v.push(1usize << (l / 2 - 1));
            }
            v.sort_unstable();
            v.dedup();
            v
        }
    };
    let mut best_hier: Option<(ForwardImpl, f64)> = None;
    for n1 in hier_splits {
        if !hier::job_feasible(n, n1, hier::PER_THREAD, config) {
            continue;
        }
        if let Some(t) = bench(&Cand::Hier(n1)) {
            let choice = ForwardImpl::Hier { n1 };
            if best_hier.as_ref().is_none_or(|(_, b)| t < *b) {
                best_hier = Some((choice, t));
            }
            if auto.as_ref().is_none_or(|(_, b)| t < *b) {
                auto = Some((choice, t));
            }
        }
    }
    if forced.is_none() && persisted.is_none() {
        if let (Some(path), Some((ForwardImpl::Hier { n1 }, _))) =
            (calib_path.as_deref(), best_hier.as_ref())
        {
            ntt_core::calibration::store_hier_split(path, n, fp, (*n1, n / n1));
        }
    }
    ShapeChoice {
        auto: auto.map_or(ForwardImpl::Radix2, |(c, _)| c),
        best_smem: best_smem.map_or(ForwardImpl::Radix2, |(c, _)| c),
        best_hier: best_hier.map_or(ForwardImpl::Radix2, |(c, _)| c),
    }
}

impl<M: Placement> NttBackend for DeviceBackend<M> {
    fn name(&self) -> &'static str {
        M::NAME
    }

    fn memory(&self) -> SharedDeviceMemory {
        let shared: SharedDeviceMemory = self.mem.clone();
        shared
    }

    fn fork(&self) -> Box<dyn NttBackend> {
        let mut m = self.lock();
        let k = m.devices();
        let streams = (0..k)
            .map(|s| m.device_mut(s).gpu_mut().create_stream())
            .collect();
        Box::new(Self {
            mem: Arc::clone(&self.mem),
            streams,
            copy_streams: Vec::new(),
            staging: (0..k).map(|_| Staging::default()).collect(),
            split_cache: Arc::clone(&self.split_cache),
        })
    }

    fn prefers_residency(&self) -> bool {
        true
    }

    fn bind_stream(&self) {
        self.bind(&mut self.lock());
    }

    /// Prefetch a staging upload on this executor's copy streams: the
    /// transfer is enqueued off the compute streams and each buffer
    /// piece's readiness event is recorded on its device's copy stream,
    /// so consuming kernels (which fence per buffer via `wait_ready`)
    /// start exactly when the copy lands while previously queued compute
    /// overlaps it.
    fn stage_upload(&mut self, data: &[u64]) -> DeviceBuf {
        let mut m = lock(&self.mem);
        if self.copy_streams.is_empty() {
            self.copy_streams = (0..m.devices())
                .map(|s| m.device_mut(s).gpu_mut().create_stream())
                .collect();
        }
        let buf = m.alloc(data.len());
        for (s, &copy) in self.copy_streams.iter().enumerate() {
            m.device_mut(s).bind(copy);
        }
        // `upload` fences each copy stream on any stale readiness event a
        // recycled base may carry, then records the new one there.
        m.upload(buf, data);
        self.bind(&mut m);
        buf
    }

    fn forward_batch(&mut self, plan: &RingPlan, mut batch: LimbBatch<'_>) {
        let (n, level) = (batch.n(), batch.level());
        let choice = self.forward_choice(n, batch.rows());
        self.staged(plan, n, level, None, None, batch.data(), |dev, a, _, rp| {
            run_forward(dev, plan, a, rp, choice)
        });
    }

    fn inverse_batch(&mut self, plan: &RingPlan, mut batch: LimbBatch<'_>) {
        let (n, level) = (batch.n(), batch.level());
        self.staged(plan, n, level, None, None, batch.data(), |dev, a, _, rp| {
            run_inverse(dev, a, rp)
        });
    }

    fn pointwise_batch(&mut self, plan: &RingPlan, mut acc: LimbBatch<'_>, rhs: &[u64]) {
        assert_eq!(acc.as_slice().len(), rhs.len(), "operand shape mismatch");
        let (n, level) = (acc.n(), acc.level());
        self.staged(
            plan,
            n,
            level,
            None,
            Some(rhs),
            acc.data(),
            |dev, a, b, rp| launch_elemwise(dev, ElemOp::Mul, a, b, None, n, rp),
        );
    }

    fn multiply_batch(&mut self, plan: &RingPlan, a: &[u64], b: &[u64], mut out: LimbBatch<'_>) {
        assert_eq!(a.len(), out.as_slice().len(), "operand shape mismatch");
        assert_eq!(b.len(), out.as_slice().len(), "operand shape mismatch");
        let (n, level) = (out.n(), out.level());
        let choice = self.forward_choice(n, a.len() / n);
        // The classic device pipeline: NTT(a), NTT(b), pointwise, iNTT —
        // four launch groups over one resident batch.
        self.staged(
            plan,
            n,
            level,
            Some(a),
            Some(b),
            out.data(),
            |dev, a, b, rp| {
                let b = b.expect("rhs staged");
                run_forward(dev, plan, a, rp, choice);
                run_forward(dev, plan, b, rp, choice);
                launch_elemwise(dev, ElemOp::Mul, a, Some(b), None, n, rp);
                run_inverse(dev, a, rp);
            },
        );
    }

    // ---- Device-resident execution (zero host↔device traffic) ----------

    fn dev_forward(&mut self, plan: &RingPlan, buf: DeviceBuf, level: usize) {
        let choice = self.forward_choice(plan.degree(), buf.len() / plan.degree());
        self.resident(plan, buf, &[], |dev, seg, data, _, _| {
            run_forward(dev, plan, data, &seg.row_primes(level), choice)
        });
    }

    fn dev_inverse(&mut self, plan: &RingPlan, buf: DeviceBuf, level: usize) {
        self.resident(plan, buf, &[], |dev, seg, data, _, _| {
            run_inverse(dev, data, &seg.row_primes(level))
        });
    }

    fn dev_multiply(
        &mut self,
        plan: &RingPlan,
        a: DeviceBuf,
        b: DeviceBuf,
        out: DeviceBuf,
        level: usize,
    ) {
        let n = plan.degree();
        let choice = self.forward_choice(n, out.len() / n);
        let reads = [(a, None), (b, None)];
        self.resident(plan, out, &reads, |dev, seg, obuf, ins, st| {
            let rp = seg.row_primes(level);
            let words = seg.rows.len() * n;
            let scratch = st.mul_scratch.ensure(dev.gpu_mut(), words).sub(0, words);
            dev.wait_ready(&[scratch.base()]);
            // Stage both operands on the owning device (d2d; inputs stay
            // intact).
            dev.gpu_mut().gmem.copy(ins[0], obuf);
            dev.gpu_mut().gmem.copy(ins[1], scratch);
            run_forward(dev, plan, obuf, &rp, choice);
            run_forward(dev, plan, scratch, &rp, choice);
            launch_elemwise(dev, ElemOp::Mul, obuf, Some(scratch), None, n, &rp);
            run_inverse(dev, obuf, &rp);
            dev.mark_written(&[scratch.base()]);
        });
    }

    fn dev_pointwise(&mut self, plan: &RingPlan, acc: DeviceBuf, rhs: DeviceBuf, level: usize) {
        self.elementwise(plan, ElemOp::Mul, acc, &[rhs], level);
    }

    fn dev_fma(
        &mut self,
        plan: &RingPlan,
        acc: DeviceBuf,
        x: DeviceBuf,
        y: DeviceBuf,
        level: usize,
    ) {
        // The key-switch inner product lands here: `x` is a digit
        // sub-view of the decompose scratch at row offset `d * level`.
        // The cyclic partition puts that view on the accumulator's
        // devices whenever `level % K == 0` — the zero-copy gather — and
        // a genuinely misaligned view (e.g. `K = 3` with `level = 8`)
        // arrives over the link, correct either way.
        self.elementwise(plan, ElemOp::Fma, acc, &[x, y], level);
    }

    fn dev_addsub(
        &mut self,
        plan: &RingPlan,
        acc: DeviceBuf,
        rhs: DeviceBuf,
        level: usize,
        subtract: bool,
    ) {
        let op = if subtract { ElemOp::Sub } else { ElemOp::Add };
        self.elementwise(plan, op, acc, &[rhs], level);
    }

    fn dev_negate(&mut self, plan: &RingPlan, buf: DeviceBuf, level: usize) {
        self.elementwise(plan, ElemOp::Neg, buf, &[], level);
    }

    fn dev_rescale(&mut self, plan: &RingPlan, buf: DeviceBuf, level: usize) {
        assert!(level > 1, "cannot rescale past the last prime");
        let n = plan.degree();
        let primes = plan.ring().basis().primes();
        let p_last = primes[level - 1];
        let inv_p: Vec<(u64, u64)> = primes[..level - 1]
            .iter()
            .map(|&p| {
                (
                    ntt_math::inv_mod(p_last % p, p).expect("distinct primes are coprime"),
                    p,
                )
            })
            .collect();
        // Rows 0..level-1 rescale in place; every owning device needs the
        // dropped last row (a broadcast of N words per remote device).
        let reads = [(buf, Some(&[level - 1][..]))];
        self.resident(
            plan,
            buf.sub(0, (level - 1) * n),
            &reads,
            |dev, seg, data, ins, _| {
                let inv: Vec<(u64, u64)> = seg.rows.iter().map(|&r| inv_p[r]).collect();
                let kernel = RescaleKernel {
                    data,
                    last: ins[0],
                    n,
                    rows: seg.rows.len(),
                    inv_p: &inv,
                };
                launch(&mut dev.gpu, &kernel, "sim-rescale", seg.rows.len() * n);
            },
        );
    }

    fn dev_decompose(
        &mut self,
        plan: &RingPlan,
        src: DeviceBuf,
        dst: DeviceBuf,
        level: usize,
        digits: usize,
        gadget_bits: u32,
    ) {
        let n = plan.degree();
        assert_eq!(src.len(), level * n, "source must be level x N");
        assert_eq!(
            dst.len(),
            level * digits * level * n,
            "digit buffer shape mismatch"
        );
        // Every digit reads every residue row of the source: across
        // devices the base conversion is an all-gather of the remote rows
        // (≈ (K-1)/K · level · N words over the link per device).
        let all_rows: Vec<usize> = (0..level).collect();
        let reads = [(src, Some(&all_rows[..]))];
        self.resident(plan, dst, &reads, |dev, seg, dst, ins, _| {
            let kernel = DecomposeKernel {
                src: ins[0],
                dst,
                n,
                level,
                digits,
                gadget_bits,
                rows: &seg.rows,
            };
            launch(&mut dev.gpu, &kernel, "sim-decompose", seg.rows.len() * n);
        });
    }

    fn dev_automorphism(
        &mut self,
        plan: &RingPlan,
        src: DeviceBuf,
        dst: DeviceBuf,
        level: usize,
        g: u64,
    ) {
        let n = plan.degree();
        assert_eq!(src.len(), dst.len(), "operand shape mismatch");
        let g = g % (2 * n as u64);
        assert_eq!(g % 2, 1, "Galois element must be odd");
        // The permutation is row-local, so each dst row needs exactly its
        // own src row — aligned allocations gather zero-copy.
        self.resident(plan, dst, &[(src, None)], |dev, seg, dst, ins, _| {
            let rp = seg.row_primes(level);
            launch_automorphism(dev, ins[0], dst, n, g, &rp);
        });
    }

    fn dev_modraise(&mut self, plan: &RingPlan, src: DeviceBuf, dst: DeviceBuf, to_level: usize) {
        let n = plan.degree();
        assert_eq!(src.len(), n, "mod-raise source must be one level-1 row");
        assert_eq!(dst.len(), to_level * n, "mod-raise destination shape");
        let moduli = plan.ring().basis().primes();
        // Broadcast the single source row to every device owning
        // destination rows.
        self.resident(plan, dst, &[(src, Some(&[0]))], |dev, seg, dst, ins, _| {
            let kernel = ModRaiseKernel {
                src: ins[0],
                dst,
                n,
                rows: &seg.rows,
                p0: moduli[0],
                moduli,
            };
            launch(&mut dev.gpu, &kernel, "sim-modraise", seg.rows.len() * n);
        });
    }

    /// Validate operand handles, then draw every device's fault plan once
    /// per command class the op issues, in issue order, on this
    /// executor's streams. Injected faults therefore fire between ops —
    /// never mid-op — so on `Err` no operand byte has moved, and fault
    /// *rates* scale with real command traffic.
    fn gate(&self, op: &'static str, kind: OpKind<'_>) -> Result<(), BackendError> {
        let mut m = self.lock();
        let draws: &[FaultOp] = match kind {
            OpKind::Staged => &[FaultOp::Upload, FaultOp::Launch, FaultOp::Download],
            OpKind::Resident(bufs) => {
                // A freed or foreign handle is a caller bug the
                // infallible path treats as an invariant violation; on
                // the typed surface it comes back as a fatal error.
                if !bufs.iter().all(|&b| m.is_live(b)) {
                    return Err(BackendError::Fatal { op });
                }
                &[FaultOp::Launch]
            }
        };
        for (s, &stream) in self.streams.iter().enumerate() {
            let dev = m.device_mut(s);
            dev.bind(stream);
            for &draw in draws {
                dev.fault_gate(op, draw)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ntt_core::backend::{CpuBackend, Evaluator};
    use ntt_core::{RnsPoly, RnsRing};

    fn ring(n: usize, np: usize) -> RnsRing {
        RnsRing::new(n, ntt_math::ntt_primes(59, 2 * n as u64, np)).unwrap()
    }

    fn sample(ring: &RnsRing, seed: i64) -> RnsPoly {
        let coeffs: Vec<i64> = (0..ring.degree() as i64)
            .map(|i| (seed.wrapping_mul(i + 3) % 97) - 48)
            .collect();
        RnsPoly::from_i64_coeffs(ring, &coeffs)
    }

    #[test]
    fn sim_matches_cpu_on_every_trait_op() {
        let ring = ring(32, 3);
        let plan = RingPlan::new(&ring);
        let a = sample(&ring, 5);
        let b = sample(&ring, 11);

        let mut cpu = CpuBackend::default();
        let mut sim = SimBackend::titan_v();

        // forward
        let (mut fc, mut fs) = (a.clone(), a.clone());
        cpu.forward_batch(&plan, LimbBatch::from_poly(&mut fc));
        sim.forward_batch(&plan, LimbBatch::from_poly(&mut fs));
        assert_eq!(fc.flat(), fs.flat(), "forward");

        // pointwise on the transformed rows
        let (mut pc, mut ps) = (fc.clone(), fs.clone());
        cpu.pointwise_batch(&plan, LimbBatch::from_poly(&mut pc), fc.flat());
        sim.pointwise_batch(&plan, LimbBatch::from_poly(&mut ps), fs.flat());
        assert_eq!(pc.flat(), ps.flat(), "pointwise");

        // inverse
        cpu.inverse_batch(&plan, LimbBatch::from_poly(&mut pc));
        sim.inverse_batch(&plan, LimbBatch::from_poly(&mut ps));
        assert_eq!(pc.flat(), ps.flat(), "inverse");

        // fused multiply
        let (mut mc, mut ms) = (RnsPoly::zero(&ring), RnsPoly::zero(&ring));
        cpu.multiply_batch(&plan, a.flat(), b.flat(), LimbBatch::from_poly(&mut mc));
        sim.multiply_batch(&plan, a.flat(), b.flat(), LimbBatch::from_poly(&mut ms));
        assert_eq!(mc.flat(), ms.flat(), "multiply");
    }

    #[test]
    fn sim_evaluator_multiplies_correctly() {
        let ring = ring(16, 2);
        let mut ev = Evaluator::with_backend(&ring, Box::new(SimBackend::titan_v()));
        assert_eq!(ev.backend_name(), "gpu-sim");
        // (1 + 2x)(3 + x) = 3 + 7x + 2x^2
        let a = RnsPoly::from_i64_coeffs(&ring, &[1, 2]);
        let b = RnsPoly::from_i64_coeffs(&ring, &[3, 1]);
        let c = ev.multiply(&a, &b);
        assert_eq!(c.coefficient_centered(&ring, 0), Some(3));
        assert_eq!(c.coefficient_centered(&ring, 1), Some(7));
        assert_eq!(c.coefficient_centered(&ring, 2), Some(2));
    }

    #[test]
    fn stacked_digit_batch_matches_cpu() {
        // The key-switch shape: 2 polynomials of `level` limbs stacked in
        // one buffer — prime mapping r % level must hold on both backends.
        let ring = ring(16, 3);
        let plan = RingPlan::new(&ring);
        let x = sample(&ring, 7);
        let y = sample(&ring, 13);
        let mut host: Vec<u64> = [x.flat(), y.flat()].concat();
        let mut host_sim = host.clone();
        let mut cpu = CpuBackend::default();
        let mut sim = SimBackend::titan_v();
        cpu.forward_batch(&plan, LimbBatch::new(&mut host, 16, 3));
        sim.forward_batch(&plan, LimbBatch::new(&mut host_sim, 16, 3));
        assert_eq!(host, host_sim);
    }

    #[test]
    fn tables_upload_once_per_plan() {
        let ring = ring(16, 2);
        let plan = RingPlan::new(&ring);
        let mut sim = SimBackend::titan_v();
        let mut x = sample(&ring, 3);
        sim.forward_batch(&plan, LimbBatch::from_poly(&mut x));
        let after_first = sim.with_gpu(|g| g.gmem.allocated_words());
        sim.inverse_batch(&plan, LimbBatch::from_poly(&mut x));
        sim.forward_batch(&plan, LimbBatch::from_poly(&mut x));
        assert_eq!(
            sim.with_gpu(|g| g.gmem.allocated_words()),
            after_first,
            "repeat calls must reuse device tables and data buffers"
        );
    }

    #[test]
    fn host_batch_calls_pay_roundtrip_transfers() {
        // The pre-residency behavior, now *measured*: every host-batch
        // trait call costs one upload and one download.
        let ring = ring(16, 2);
        let plan = RingPlan::new(&ring);
        let mut sim = SimBackend::titan_v();
        let mut x = sample(&ring, 3);
        sim.forward_batch(&plan, LimbBatch::from_poly(&mut x));
        let t0 = sim.transfer_stats();
        sim.forward_batch(&plan, LimbBatch::from_poly(&mut x));
        let dt = sim.transfer_stats().since(&t0);
        assert_eq!(dt.uploads, 1);
        assert_eq!(dt.downloads, 1);
    }

    #[test]
    fn smem_routing_matches_radix2_and_cpu() {
        // Above the SMEM floor the forward path routes through the
        // two-kernel implementation; results must stay bit-exact with the
        // radix-2 route and the CPU reference.
        let ring = ring(512, 2);
        let plan = RingPlan::new(&ring);
        let x = sample(&ring, 21);

        let mut cpu = CpuBackend::default();
        let mut fc = x.clone();
        cpu.forward_batch(&plan, LimbBatch::from_poly(&mut fc));

        let mut sim = SimBackend::titan_v();
        let mut fs = x.clone();
        sim.forward_batch(&plan, LimbBatch::from_poly(&mut fs));
        assert_eq!(fc.flat(), fs.flat(), "auto-routed forward");

        // The auto route above the floor must actually be SMEM: its trace
        // contains the two smem kernels rather than log2(N) stage
        // launches.
        let launches: Vec<String> =
            sim.with_gpu(|g| g.trace.iter().map(|l| l.launch.label.clone()).collect());
        assert!(
            launches.iter().any(|l| l.starts_with("smem-k1-")),
            "expected smem routing in {launches:?}"
        );
    }

    #[test]
    fn forked_backends_share_device_memory_and_tables() {
        let ring = ring(16, 2);
        let plan = RingPlan::new(&ring);
        let mut sim = SimBackend::titan_v();
        let mut x = sample(&ring, 3);
        sim.forward_batch(&plan, LimbBatch::from_poly(&mut x));
        let words = sim.with_gpu(|g| g.gmem.allocated_words());
        let mut forked = sim.fork();
        assert!(ntt_core::backend::same_memory(
            &sim.memory(),
            &forked.memory()
        ));
        // The fork reuses the shared tables (no re-upload) but allocates
        // its own staging buffer.
        let mut y = sample(&ring, 4);
        forked.forward_batch(&plan, LimbBatch::from_poly(&mut y));
        let words_after = sim.with_gpu(|g| g.gmem.allocated_words());
        assert_eq!(words_after, words + x.flat().len());
    }

    #[test]
    fn resident_elementwise_ops_match_cpu_reference() {
        let ring = ring(32, 3);
        let mut sim_ev = Evaluator::with_backend(&ring, Box::new(SimBackend::titan_v()));
        let mut cpu_ev = Evaluator::cpu(&ring);
        let a = sample(&ring, 9);
        let b = sample(&ring, 17);

        let (mut ca, mut cb) = (a.clone(), b.clone());
        cpu_ev.to_evaluation(&mut ca);
        cpu_ev.to_evaluation(&mut cb);
        cpu_ev.mul_pointwise(&mut ca, &cb);
        cpu_ev.add_assign(&mut ca, &cb);
        cpu_ev.sub_assign(&mut ca, &cb);
        cpu_ev.negate(&mut ca);
        cpu_ev.to_coefficient(&mut ca);

        let (mut sa, mut sb) = (a.clone(), b.clone());
        sim_ev.make_resident(&mut sa);
        sim_ev.make_resident(&mut sb);
        // Warm-up round trip: uploads the plan tables (the one-time part
        // of the "initial upload") before the steady-state window opens.
        sim_ev.to_evaluation(&mut sa);
        sim_ev.to_coefficient(&mut sa);
        let before = sim_ev.transfer_stats();
        sim_ev.to_evaluation(&mut sa);
        sim_ev.to_evaluation(&mut sb);
        sim_ev.mul_pointwise(&mut sa, &sb);
        sim_ev.add_assign(&mut sa, &sb);
        sim_ev.sub_assign(&mut sa, &sb);
        sim_ev.negate(&mut sa);
        sim_ev.to_coefficient(&mut sa);
        assert_eq!(
            sim_ev.transfer_stats().since(&before).host_transfers(),
            0,
            "resident chain crosses the bus"
        );
        sa.sync();
        assert_eq!(sa, ca);
    }

    #[test]
    fn resident_automorphism_matches_host() {
        let ring = ring(32, 3);
        for g in [1u64, 3, 5, 63, 2 * 32 - 1] {
            let x = sample(&ring, 27);
            let mut cpu_ev = Evaluator::cpu(&ring);
            let mut host = x.clone();
            cpu_ev.automorphism(&mut host, g);
            let mut ev = Evaluator::with_backend(&ring, Box::new(SimBackend::titan_v()));
            let mut dev = x.clone();
            ev.make_resident(&mut dev);
            // Warm-up: uploads the plan tables (the one-time part of the
            // "initial upload") before the steady-state window opens.
            ev.automorphism(&mut dev, 1);
            let before = ev.transfer_stats();
            ev.automorphism(&mut dev, g);
            assert_eq!(
                ev.transfer_stats().since(&before).host_transfers(),
                0,
                "resident automorphism crosses the bus (g={g})"
            );
            dev.sync();
            assert_eq!(dev, host, "g={g}");
        }
    }

    #[test]
    fn resident_modraise_matches_host() {
        let ring = ring(32, 4);
        let x = sample(&ring, 41);
        let mut cpu_ev = Evaluator::cpu(&ring);
        let mut low = x.clone();
        cpu_ev.drop_level(&mut low, 1);
        let mut host_low = low.clone();
        let host = cpu_ev.mod_raise(&mut host_low, 4);

        let mut ev = Evaluator::with_backend(&ring, Box::new(SimBackend::titan_v()));
        let mut dev_low = low.clone();
        ev.make_resident(&mut dev_low);
        // Warm-up launch uploads the plan tables before the window opens.
        ev.automorphism(&mut dev_low, 1);
        let before = ev.transfer_stats();
        let mut dev = ev.mod_raise(&mut dev_low, 4);
        assert_eq!(
            ev.transfer_stats().since(&before).host_transfers(),
            0,
            "resident mod-raise crosses the bus"
        );
        dev.sync();
        assert_eq!(dev, host);
    }

    #[test]
    fn resident_rescale_matches_host() {
        let ring = ring(32, 3);
        let mut ev = Evaluator::with_backend(&ring, Box::new(SimBackend::titan_v()));
        let x = sample(&ring, 31);
        let mut host = x.clone();
        host.rescale(&ring);
        let mut dev = x.clone();
        ev.make_resident(&mut dev);
        ev.rescale(&mut dev);
        dev.sync();
        assert_eq!(dev, host);
    }

    /// A backend with the forward route pinned to the hierarchical
    /// implementation for one shape (bypasses the process-global
    /// `NTT_WARP_SIM_FORWARD` OnceLock so tests stay independent).
    fn hier_pinned(n: usize, n1: usize) -> SimBackend {
        let sim = SimBackend::titan_v();
        let choice = ForwardImpl::Hier { n1 };
        sim.split_cache
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .insert(
                n,
                ShapeChoice {
                    auto: choice,
                    best_smem: choice,
                    best_hier: choice,
                },
            );
        sim
    }

    #[test]
    fn hier_routing_matches_cpu_at_bootstrap_scale() {
        // The full trait path through the 3-kernel hierarchical plan at
        // N = 2^16 — twist upload, scratch acquire/release, forward —
        // must stay bit-exact with the CPU reference, and the trace must
        // actually contain the hier kernels.
        let n = 1 << 16;
        let ring = ring(n, 2);
        let plan = RingPlan::new(&ring);
        let x = sample(&ring, 77);

        let mut fc = x.clone();
        CpuBackend::default().forward_batch(&plan, LimbBatch::from_poly(&mut fc));

        let mut sim = hier_pinned(n, 256);
        let mut fs = x.clone();
        sim.forward_batch(&plan, LimbBatch::from_poly(&mut fs));
        assert_eq!(fc.flat(), fs.flat(), "hier-routed forward");

        let launches: Vec<String> =
            sim.with_gpu(|g| g.trace.iter().map(|l| l.launch.label.clone()).collect());
        for k in ["hier-col-256", "hier-twt", "hier-row-256"] {
            assert!(
                launches.iter().any(|l| l == k),
                "missing {k} in {launches:?}"
            );
        }

        // And the inverse (radix-2) undoes it.
        sim.inverse_batch(&plan, LimbBatch::from_poly(&mut fs));
        assert_eq!(fs.flat(), x.flat(), "roundtrip through hier forward");
    }

    #[test]
    fn hier_scratch_recycling_keeps_readiness_map_bounded() {
        // Satellite (f): repeated hier forwards acquire and release the
        // transpose scratch every call. The consumed-on-acquire protocol
        // must keep the per-base readiness map bounded instead of leaking
        // one event per launch.
        let n = 1 << 12;
        let ring = ring(n, 1);
        let plan = RingPlan::new(&ring);
        let mut sim = hier_pinned(n, 64);
        let mut x = sample(&ring, 5);
        sim.forward_batch(&plan, LimbBatch::from_poly(&mut x));
        let baseline = sim.lock().readiness_entries();
        for _ in 0..32 {
            sim.forward_batch(&plan, LimbBatch::from_poly(&mut x));
        }
        let after = sim.lock().readiness_entries();
        assert!(
            after <= baseline + 1,
            "readiness map grew {baseline} -> {after} across 32 hier forwards"
        );
    }

    #[test]
    fn auto_calibration_includes_hier_candidates() {
        // The sweep itself (no pin, no env): calibrating a large shape
        // must produce a feasible hierarchical winner in `best_hier` and
        // leave `auto` pointing at *some* modeled-time winner that stays
        // bit-exact (checked via the normal forward path).
        let config = GpuConfig::titan_v();
        let n = 1 << 13;
        let choice = calibrate_forward_choice(&config, n, 2);
        match choice.best_hier {
            ForwardImpl::Hier { n1 } => {
                assert!(n1.is_power_of_two() && n1 >= 2 && n1 <= n / 2);
            }
            other => panic!("expected a hier split for N=2^13, got {other:?}"),
        }

        let ring = ring(n, 2);
        let plan = RingPlan::new(&ring);
        let x = sample(&ring, 19);
        let mut fc = x.clone();
        CpuBackend::default().forward_batch(&plan, LimbBatch::from_poly(&mut fc));
        let mut sim = SimBackend::titan_v();
        let mut fs = x.clone();
        sim.forward_batch(&plan, LimbBatch::from_poly(&mut fs));
        assert_eq!(fc.flat(), fs.flat(), "auto-routed forward at N=2^13");
    }
}
