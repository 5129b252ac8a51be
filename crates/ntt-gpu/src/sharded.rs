//! The cyclic multi-device placement: RNS sharding behind the
//! [`NttBackend`](ntt_core::backend::NttBackend) seam.
//!
//! The RNS row decomposition that makes the paper's batched NTT
//! embarrassingly parallel *within* one GPU also partitions cleanly
//! *across* GPUs: residue rows are independent under forward/inverse
//! NTTs and every element-wise ring op, so row `r` can live on shard
//! `r % K` (cyclic, at local row `r / K`) for its whole life and never
//! move. The partition is cyclic rather than block-contiguous because
//! of how the key-switch inner loop slices its operands: digit
//! sub-views sit at row offsets `d * level` of the decompose scratch,
//! and under a cyclic partition those views land on the same shards as
//! the `level`-row accumulators whenever `level % K == 0` — the digit
//! FMAs stay link-free instead of re-gathering near-full operands for
//! every digit. What does move is the key-switch base-conversion
//! itself: gadget digit decomposition reads **every** residue row of
//! the source polynomial to build each digit, so a `K`-way sharded
//! decompose pays an explicit all-gather of the remote rows over the
//! inter-device link — the same traffic pattern multi-GPU HE systems
//! report as their scaling ceiling. Rescale (broadcast of the dropped
//! last row) and mod-raise (broadcast of the level-1 row) pay the same
//! way, just `N` words instead of `level * N`.
//!
//! Every shard is a full simulated device ([`SimMemory`] over its own
//! [`gpu_sim::Gpu`]): its own GMEM, its own stream scheduler, its own
//! PCIe link, and its own fault plane. The shards are joined by a
//! modeled point-to-point link (`GpuConfig::link_bw` /
//! `GpuConfig::link_latency_s`); cross-shard moves are driven by a
//! dedicated **copy-engine stream** on each endpoint (the modeled
//! analogue of the DMA engines that feed a GPU's NVLink ports): the
//! source engine fences on the producing kernel's completion event,
//! both engines charge the wire ([`gpu_sim::Gpu::link_stall`]), and
//! the consuming compute stream fences on the landing. Compute and
//! communication overlap exactly as far as the data dependencies
//! allow — a transfer never serializes behind unrelated kernels
//! already enqueued on either device, which is what a real NCCL copy
//! on its own stream buys. Functional bytes move through the raw
//! (uncharged) GMEM accessors — the modeled cost is the explicit link
//! charge, not a double-counted PCIe transfer.
//!
//! [`ShardedMemory`] is a [`Placement`]: it only says which shard owns
//! which rows and how rows move between shards. The ops, kernels,
//! forward routing and fault gates are the single-device backend's
//! ([`crate::backend::DeviceBackend`]), so [`ShardedBackend`] is that
//! backend on this placement, built by [`ShardedBackend::titan_v`]`(k, n)`
//! where [`crate::SimBackend::titan_v`]`()` builds it on one
//! [`SimMemory`]. `K = 1` reproduces the single-device backend's
//! launches, transfers and modeled times, and every output is
//! **bit-identical** to `SimBackend` and
//! [`ntt_core::backend::CpuBackend`] for any `K` — pinned by
//! `tests/placement.rs` and `tests/sharded.rs`.
//!
//! # Operand misalignment
//!
//! Device ops receive *views*, and two operands of one op can slice
//! allocations with different row counts — the key-switch inner loop
//! passes digit sub-views of a `level·digits·level`-row scratch
//! against `level`-row accumulators, so their partitions need not line
//! up. The *written* operand's partition decides placement: each of
//! its shard-local pieces runs where it lives, and any secondary
//! operand piece resident elsewhere is gathered into shard-local
//! scratch over the link first ([`Placement::gather_rows`]). Aligned
//! operands (the common case) gather into a zero-copy direct
//! reference; misaligned ones pay honest link traffic.

use crate::backend::{classify, DeviceBackend, Gathered, Placement, RowSeg, SimMemory};
use gpu_sim::{Buf, DeviceTimeline, Event, FaultOp, GpuConfig, Stream};
use ntt_core::backend::{handle_namespace, BackendError, DeviceBuf, DeviceMemory, TransferStats};
use std::collections::HashMap;
use std::ops::Range;

/// Inter-device link traffic ledger (the sharded counterpart of
/// [`TransferStats`]; one entry per cross-shard move, words summed over
/// both directions of nothing — each move is counted once).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct LinkStats {
    /// Cross-shard moves issued.
    pub transfers: usize,
    /// Total words moved between shards.
    pub words: usize,
}

impl LinkStats {
    /// Counter deltas since an earlier snapshot.
    pub fn since(&self, earlier: &LinkStats) -> LinkStats {
        LinkStats {
            transfers: self.transfers - earlier.transfers,
            words: self.words - earlier.words,
        }
    }
}

/// Number of residue rows of a `rows`-row allocation owned by shard
/// `s` of `k` under the cyclic partition (row `r` lives on shard
/// `r % k`, at local row `r / k`). Requires `s < k`.
fn rows_on_shard(rows: usize, k: usize, s: usize) -> usize {
    (rows + k - 1 - s) / k
}

/// One logical allocation spread over the shard set.
struct ShardAlloc {
    /// Total words of the logical allocation.
    len: usize,
    /// Residue rows partitioned across shards; `0` means the
    /// allocation is not row-shaped and lives whole on shard 0.
    rows: usize,
    /// Per-shard local handle (`None` where the shard owns no rows).
    parts: Vec<Option<DeviceBuf>>,
}

/// A shard-local piece of a logical view.
struct Seg {
    /// Owning shard.
    shard: usize,
    /// Word range of the *view* this piece covers.
    view: Range<usize>,
    /// The piece as a view into the shard-local allocation.
    local: DeviceBuf,
}

/// `K` simulated devices joined by a modeled inter-device link, behind
/// one [`DeviceMemory`]: logical handles map to per-shard pieces, row
/// `r` of a row-shaped allocation living on shard `r % K` at local row
/// `r / K` (the cyclic partition — see the module docs for why).
/// Shared by every fork of a [`ShardedBackend`] the way [`SimMemory`]
/// is shared by forks of `SimBackend`.
pub struct ShardedMemory {
    shards: Vec<SimMemory>,
    /// Per-shard copy-engine stream: cross-shard transfers charge these,
    /// not the compute streams, so a gather in flight never serializes
    /// behind unrelated kernels already enqueued on either endpoint —
    /// the modeled analogue of a GPU's dedicated copy engine driving the
    /// NVLink port while the SMs keep working.
    link_streams: Vec<Stream>,
    map: HashMap<u64, ShardAlloc>,
    next_id: u64,
    /// Row granularity (ring degree `N`) used to partition allocations.
    n: usize,
    link: LinkStats,
}

impl ShardedMemory {
    /// `k` fresh devices of the same model, partitioning at ring
    /// degree `degree`.
    pub fn new(config: GpuConfig, k: usize, degree: usize) -> Self {
        assert!(k >= 1, "need at least one shard");
        assert!(degree >= 1, "ring degree must be positive");
        let mut shards: Vec<SimMemory> = (0..k).map(|_| SimMemory::new(config.clone())).collect();
        let link_streams = shards
            .iter_mut()
            .map(|sh| sh.gpu_mut().create_stream())
            .collect();
        Self {
            shards,
            link_streams,
            map: HashMap::new(),
            next_id: handle_namespace(),
            n: degree,
            link: LinkStats::default(),
        }
    }

    /// Number of devices in the shard set.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The ring degree allocations are partitioned at.
    pub fn degree(&self) -> usize {
        self.n
    }

    /// One shard's simulated device memory (timeline, trace, GMEM).
    pub fn shard(&self, s: usize) -> &SimMemory {
        &self.shards[s]
    }

    /// The inter-device traffic ledger.
    pub fn link_stats(&self) -> LinkStats {
        self.link
    }

    /// Aggregate device timeline: makespan is the slowest shard's
    /// overlapped clock (the devices run concurrently), while
    /// serialized time, launches and transfers sum over the set.
    pub fn timeline(&self) -> DeviceTimeline {
        let mut agg = DeviceTimeline::default();
        for t in self.shard_timelines() {
            agg.serialized_s += t.serialized_s;
            agg.overlapped_s = agg.overlapped_s.max(t.overlapped_s);
            agg.launches += t.launches;
            agg.transfers += t.transfers;
        }
        agg
    }

    /// Per-shard timelines (for balance diagnostics in the harness).
    pub fn shard_timelines(&self) -> Vec<DeviceTimeline> {
        self.shards.iter().map(|sh| sh.gpu().timeline()).collect()
    }

    /// Drain every shard's stream schedule.
    pub fn sync_all(&mut self) {
        for sh in &mut self.shards {
            sh.gpu_mut().sync_all();
        }
    }

    /// Words each shard holds of a `words`-word allocation, plus the
    /// allocation's row count: cyclic row shares when it is row-shaped
    /// at the partition granularity, else `0` rows and everything whole
    /// on shard 0 (tables and odd scratch land there).
    fn shares(&self, words: usize) -> (usize, Vec<usize>) {
        let k = self.shards.len();
        let rows = if words.is_multiple_of(self.n) {
            words / self.n
        } else {
            0
        };
        let shares = (0..k)
            .map(|s| match rows {
                0 if s == 0 => words,
                0 => 0,
                _ => rows_on_shard(rows, k, s) * self.n,
            })
            .collect();
        (rows, shares)
    }

    /// Draw `kind` from the fault plan of each shard holding part of
    /// `view`, once per shard.
    fn gate_view(
        &mut self,
        view: DeviceBuf,
        op: &'static str,
        kind: FaultOp,
    ) -> Result<(), BackendError> {
        let mut involved: Vec<usize> = self.segments(view).iter().map(|s| s.shard).collect();
        involved.sort_unstable();
        involved.dedup();
        for s in involved {
            self.shards[s].fault_gate(op, kind)?;
        }
        Ok(())
    }

    /// Split a logical view into its shard-local pieces, in view order.
    /// Under the cyclic partition a multi-row view alternates shards
    /// every `n` words, so pieces are at most one row long; adjacent
    /// pieces that are contiguous on one shard (the `K = 1` degenerate
    /// case) are merged.
    fn segments(&self, view: DeviceBuf) -> Vec<Seg> {
        let a = self
            .map
            .get(&view.id())
            .expect("freed or foreign DeviceBuf");
        assert!(
            view.base() + view.len() <= a.len,
            "view outside its allocation"
        );
        let k = self.shards.len();
        if a.rows == 0 {
            let local = a.parts[0].expect("unpartitioned alloc lives on shard 0");
            return vec![Seg {
                shard: 0,
                view: 0..view.len(),
                local: local.sub(view.base(), view.len()),
            }];
        }
        let n = self.n;
        let (v0, v1) = (view.base(), view.base() + view.len());
        let mut out: Vec<Seg> = Vec::new();
        let mut w = v0;
        while w < v1 {
            let r = w / n;
            let hi = v1.min((r + 1) * n);
            let s = r % k;
            let part = a.parts[s].expect("owned rows have a local part");
            let l0 = (r / k) * n + (w - r * n);
            match out.last_mut() {
                Some(prev)
                    if prev.shard == s
                        && prev.local.base() + prev.local.len() == part.base() + l0 =>
                {
                    prev.view.end += hi - w;
                    let start = prev.local.base() - part.base();
                    prev.local = part.sub(start, prev.view.end - prev.view.start);
                }
                _ => out.push(Seg {
                    shard: s,
                    view: (w - v0)..(hi - v0),
                    local: part.sub(l0, hi - w),
                }),
            }
            w = hi;
        }
        out
    }

    /// Per-shard contiguous local span of a view plus the (view-order)
    /// view ranges that fill it — the host-transfer batching shape.
    /// The cyclic pieces of one shard interleave in *view* order but
    /// sit back to back in *local* order (interior rows are whole, only
    /// the view's first and last row can be partial), so each shard's
    /// traffic stays one PCIe transfer.
    fn shard_pieces(&self, view: DeviceBuf) -> Vec<(usize, DeviceBuf, Vec<Range<usize>>)> {
        let segs = self.segments(view);
        let a = self
            .map
            .get(&view.id())
            .expect("freed or foreign DeviceBuf");
        let k = self.shards.len();
        let mut out = Vec::new();
        for s in 0..k {
            let mine: Vec<&Seg> = segs.iter().filter(|g| g.shard == s).collect();
            let Some(first) = mine.first() else { continue };
            let part = a.parts[s].expect("owned rows have a local part");
            let start = first.local.base() - part.base();
            let total: usize = mine.iter().map(|g| g.view.len()).sum();
            debug_assert!(
                mine.windows(2)
                    .all(|w| w[0].local.base() + w[0].local.len() == w[1].local.base()),
                "per-shard pieces must be locally contiguous"
            );
            out.push((
                s,
                part.sub(start, total),
                mine.iter().map(|g| g.view.clone()).collect(),
            ));
        }
        out
    }

    /// Move `src.len()` words from a raw buffer on shard `from` to a
    /// raw buffer on shard `to` over the modeled link, driven by the
    /// two endpoints' **copy-engine streams** rather than their compute
    /// streams. The source engine fences on `ready` (the data
    /// dependency — events are modeled times on clocks that share
    /// `t = 0`, so they compare across devices), charges the wire, and
    /// hands its completion event to the destination engine, which
    /// charges its side and records the landing. Compute on both
    /// shards keeps running: a transfer serializes only behind earlier
    /// transfers on the same engine and the data it actually needs,
    /// never behind unrelated kernels already enqueued.
    ///
    /// Returns `(sent, landed)`: the source-side completion (the
    /// write-after-read fence for the source allocation) and the
    /// destination-side completion (what a consumer of `dst` must wait
    /// on). Readiness bookkeeping for tracked allocations is the
    /// caller's job.
    fn link_words(
        &mut self,
        from: usize,
        ready: Event,
        src: Buf,
        to: usize,
        dst: Buf,
    ) -> (Event, Event) {
        debug_assert_ne!(from, to, "link move within one shard");
        let words = src.len();
        assert_eq!(words, dst.len(), "link endpoints must agree on size");
        // Functional move through the raw (uncharged) GMEM accessors;
        // the modeled cost is the explicit link charge below.
        let data = self.shards[from].gpu().gmem.slice(src).to_vec();
        let ls = self.link_streams[from];
        let sg = self.shards[from].gpu_mut();
        let prev = sg.active_stream();
        sg.wait_event(ls, ready);
        sg.set_active_stream(ls);
        sg.link_stall(words);
        let sent = sg.record_event(ls);
        sg.set_active_stream(prev);
        let ld = self.link_streams[to];
        let dg = self.shards[to].gpu_mut();
        let prev = dg.active_stream();
        dg.wait_event(ld, sent);
        dg.set_active_stream(ld);
        dg.link_stall(words);
        let landed = dg.record_event(ld);
        dg.set_active_stream(prev);
        dg.gmem.write(dst, 0, &data);
        self.link.transfers += 1;
        self.link.words += words;
        (sent, landed)
    }
}

impl DeviceMemory for ShardedMemory {
    fn alloc(&mut self, words: usize) -> DeviceBuf {
        let (rows, shares) = self.shares(words);
        let parts = shares
            .into_iter()
            .enumerate()
            .map(|(s, w)| (w > 0 || (rows == 0 && s == 0)).then(|| self.shards[s].alloc(w)))
            .collect();
        self.next_id += 1;
        self.map.insert(
            self.next_id,
            ShardAlloc {
                len: words,
                rows,
                parts,
            },
        );
        DeviceBuf::root(self.next_id, words)
    }

    fn upload(&mut self, dst: DeviceBuf, src: &[u64]) {
        // Front-of-view fill, fanned out: each shard charges its own
        // PCIe link (one transfer per shard, the cyclic rows packed
        // into local order host-side), so a K-way upload overlaps K
        // ways.
        for (s, span, views) in self.shard_pieces(dst.sub(0, src.len())) {
            if let [v] = views.as_slice() {
                self.shards[s].upload(span, &src[v.clone()]);
            } else {
                let mut host = Vec::with_capacity(span.len());
                for v in &views {
                    host.extend_from_slice(&src[v.clone()]);
                }
                self.shards[s].upload(span, &host);
            }
        }
    }

    fn download(&mut self, src: DeviceBuf, dst: &mut [u64]) {
        for (s, span, views) in self.shard_pieces(src.sub(0, dst.len())) {
            if let [v] = views.as_slice() {
                self.shards[s].download(span, &mut dst[v.clone()]);
            } else {
                let mut host = vec![0u64; span.len()];
                self.shards[s].download(span, &mut host);
                let mut off = 0;
                for v in &views {
                    dst[v.clone()].copy_from_slice(&host[off..off + v.len()]);
                    off += v.len();
                }
            }
        }
    }

    fn copy(&mut self, src: DeviceBuf, dst: DeviceBuf) {
        // Word-wise intersection of the two partitions: co-resident
        // stretches copy d2d, the rest crosses the link.
        let s_segs = self.segments(src);
        let d_segs = self.segments(dst.sub(0, src.len()));
        for ss in &s_segs {
            for ds in &d_segs {
                let lo = ss.view.start.max(ds.view.start);
                let hi = ss.view.end.min(ds.view.end);
                if lo >= hi {
                    continue;
                }
                let sl = ss.local.sub(lo - ss.view.start, hi - lo);
                let dl = ds.local.sub(lo - ds.view.start, hi - lo);
                if ss.shard == ds.shard {
                    self.shards[ss.shard].copy(sl, dl);
                } else {
                    // The wire waits for both the source bytes and the
                    // destination's previous readers/writers (flow
                    // control), then the landing becomes the
                    // destination allocation's readiness fence — no
                    // compute stream on either side stalls here.
                    let sroot = self.shards[ss.shard].root_base(sl);
                    let droot = self.shards[ds.shard].root_base(dl);
                    let ready = self.shards[ss.shard]
                        .ready_fence(&[sroot])
                        .max(self.shards[ds.shard].ready_fence(&[droot]));
                    let sraw = self.shards[ss.shard].raw_buf(sl);
                    let draw = self.shards[ds.shard].raw_buf(dl);
                    let (sent, landed) = self.link_words(ss.shard, ready, sraw, ds.shard, draw);
                    self.shards[ss.shard].fence_until(sroot, sent);
                    self.shards[ds.shard].fence_until(droot, landed);
                }
            }
        }
    }

    fn free(&mut self, buf: DeviceBuf) {
        if let Some(a) = self.map.remove(&buf.id()) {
            for (s, part) in a.parts.iter().enumerate() {
                if let Some(p) = part {
                    self.shards[s].free(*p);
                }
            }
        }
    }

    fn stats(&self) -> TransferStats {
        // Sum over shards: each card drives its own PCIe link.
        let mut t = TransferStats::default();
        for sh in &self.shards {
            let s = sh.stats();
            t.uploads += s.uploads;
            t.upload_words += s.upload_words;
            t.downloads += s.downloads;
            t.download_words += s.download_words;
            t.d2d_copies += s.d2d_copies;
            t.allocs += s.allocs;
            t.frees += s.frees;
        }
        t
    }

    fn reset_stats(&mut self) {
        for sh in &mut self.shards {
            sh.reset_stats();
        }
    }

    fn try_alloc(&mut self, words: usize) -> Result<DeviceBuf, BackendError> {
        let (_, shares) = self.shares(words);
        for (s, share) in shares.into_iter().enumerate().filter(|&(_, w)| w > 0) {
            let projected = self.shards[s].gpu().gmem.allocated_words() + share;
            self.shards[s]
                .gpu_mut()
                .fault_check_alloc(projected)
                .map_err(|kind| classify(kind, "alloc", share))?;
        }
        Ok(self.alloc(words))
    }

    fn try_upload(&mut self, dst: DeviceBuf, src: &[u64]) -> Result<(), BackendError> {
        if !self.is_live(dst) || src.len() > dst.len() {
            return Err(BackendError::Fatal { op: "upload" });
        }
        self.gate_view(dst.sub(0, src.len()), "upload", FaultOp::Upload)?;
        self.upload(dst, src);
        Ok(())
    }

    fn try_download(&mut self, src: DeviceBuf, dst: &mut [u64]) -> Result<(), BackendError> {
        if !self.is_live(src) || dst.len() > src.len() {
            return Err(BackendError::Fatal { op: "download" });
        }
        self.gate_view(src.sub(0, dst.len()), "download", FaultOp::Download)?;
        self.download(src, dst);
        Ok(())
    }
}

impl Placement for ShardedMemory {
    const NAME: &'static str = "gpu-sim-sharded";

    fn devices(&self) -> usize {
        self.shards.len()
    }

    fn device(&self, s: usize) -> &SimMemory {
        &self.shards[s]
    }

    fn device_mut(&mut self, s: usize) -> &mut SimMemory {
        &mut self.shards[s]
    }

    /// Row-aligned shard pieces of a device-op view. Device ops always
    /// pass row-aligned views (the evaluator slices at digit boundaries),
    /// and the cyclic partition cuts on row boundaries by construction,
    /// so alignment is an invariant — the asserts catch a plan whose
    /// degree differs from the partition granularity before a kernel
    /// reads garbage.
    fn row_segments(&self, view: DeviceBuf, n: usize) -> Vec<RowSeg> {
        assert_eq!(
            n, self.n,
            "ShardedBackend partitions at the ring degree it was constructed for"
        );
        let a = self
            .map
            .get(&view.id())
            .expect("freed or foreign DeviceBuf");
        assert!(
            view.base() + view.len() <= a.len,
            "view outside its allocation"
        );
        assert_eq!(view.base() % n, 0, "device-op views must be row-aligned");
        assert_eq!(view.len() % n, 0, "device-op views must be row-aligned");
        let vrows = view.len() / n;
        if a.rows == 0 {
            let part = a.parts[0].expect("unpartitioned alloc lives on shard 0");
            return vec![RowSeg {
                shard: 0,
                rows: (0..vrows).collect(),
                local: part.sub(view.base(), view.len()),
            }];
        }
        let k = self.shards.len();
        let vb = view.base() / n;
        let mut out = Vec::new();
        for s in 0..k {
            // First global row >= vb congruent to s mod k.
            let g0 = vb + ((s + k - vb % k) % k);
            if g0 >= vb + vrows {
                continue;
            }
            let count = (vb + vrows - g0).div_ceil(k);
            let part = a.parts[s].expect("owned rows have a local part");
            out.push(RowSeg {
                shard: s,
                rows: (0..count).map(|i| g0 + i * k - vb).collect(),
                local: part.sub((g0 / k) * n, count * n),
            });
        }
        out
    }

    /// Materialize the given view rows of a row-aligned `view` on
    /// shard `to`, in list order (`rows` are view-relative indices,
    /// ascending).
    ///
    /// If every row already lives on `to` at consecutive local rows,
    /// that span is returned directly — zero traffic, the
    /// aligned-operand fast path (this is what the cyclic partition
    /// buys: key-switch digit views hit it whenever `level % K == 0`).
    /// Otherwise scratch is acquired on `to` and every row is pulled
    /// in: same-shard rows move d2d, remote rows over the link. This
    /// *is* the base-conversion all-gather when `view` is a decompose
    /// source. Pair with [`release_gather`].
    ///
    /// [`release_gather`]: Placement::release_gather
    fn gather_rows(&mut self, view: DeviceBuf, rows: &[usize], to: usize, n: usize) -> Gathered {
        // Resolve each requested row to (owning shard, span within the
        // shard-local part) before touching any device state.
        let locs: Vec<(usize, DeviceBuf)> = {
            let a = self
                .map
                .get(&view.id())
                .expect("freed or foreign DeviceBuf");
            assert!(
                view.base() + view.len() <= a.len,
                "view outside its allocation"
            );
            assert_eq!(view.base() % n, 0, "gathered views must be row-aligned");
            let k = self.shards.len();
            let vb = view.base() / n;
            rows.iter()
                .map(|&j| {
                    assert!((j + 1) * n <= view.len(), "gathered row outside the view");
                    if a.rows == 0 {
                        let part = a.parts[0].expect("unpartitioned alloc lives on shard 0");
                        (0, part.sub(view.base() + j * n, n))
                    } else {
                        let g = vb + j;
                        let part = a.parts[g % k].expect("owned rows have a local part");
                        (g % k, part.sub((g / k) * n, n))
                    }
                })
                .collect()
        };
        let aligned = !locs.is_empty()
            && locs.iter().all(|(s, _)| *s == to)
            && locs.windows(2).all(|w| w[0].1.base() + n == w[1].1.base());
        if aligned {
            let (b0, total) = (locs[0].1, rows.len() * n);
            let span = DeviceBuf::root(b0.id(), b0.base() + total).sub(b0.base(), total);
            let root = self.shards[to].root_base(span);
            self.shards[to].wait_ready(&[root]);
            return Gathered {
                buf: self.shards[to].raw_buf(span),
                scratch: false,
            };
        }
        let scratch = self.shards[to].acquire_scratch(rows.len() * n);
        let mut landings: Vec<Event> = Vec::new();
        for (i, (s, local)) in locs.iter().enumerate() {
            let dst = scratch.sub(i * n, n);
            let root = self.shards[*s].root_base(*local);
            let raw = self.shards[*s].raw_buf(*local);
            if *s == to {
                self.shards[to].wait_ready(&[root]);
                self.shards[to].gpu_mut().gmem.copy(raw, dst);
            } else {
                // The copy engines do the waiting; `to`'s compute
                // stream only fences on the landings, collected below.
                let ready = self.shards[*s].ready_fence(&[root]);
                let (sent, landed) = self.link_words(*s, ready, raw, to, dst);
                self.shards[*s].fence_until(root, sent);
                landings.push(landed);
            }
        }
        let g = self.shards[to].gpu_mut();
        let cs = g.active_stream();
        for e in landings {
            g.wait_event(cs, e);
        }
        Gathered {
            buf: scratch,
            scratch: true,
        }
    }

    fn is_live(&self, buf: DeviceBuf) -> bool {
        self.map
            .get(&buf.id())
            .is_some_and(|a| buf.base() + buf.len() <= a.len)
    }
}

/// The multi-device backend: `K` simulated GPUs, each owning the
/// cyclic slice `r ≡ s (mod K)` of the RNS residue rows, joined by a
/// modeled inter-device link. The same [`DeviceBackend`] as
/// [`crate::SimBackend`] on a different [`Placement`] — see the module
/// docs for the partition and traffic model.
pub type ShardedBackend = DeviceBackend<ShardedMemory>;

impl ShardedBackend {
    /// `shards` devices of one model, partitioning rings of `degree`.
    pub fn new(config: GpuConfig, shards: usize, degree: usize) -> Self {
        Self::with_memory(ShardedMemory::new(config, shards, degree))
    }

    /// `shards` Titan-V-model devices for rings of `degree`.
    pub fn titan_v(shards: usize, degree: usize) -> Self {
        Self::new(GpuConfig::titan_v(), shards, degree)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{lock, shard_rows};
    use crate::SimBackend;
    use ntt_core::backend::{Evaluator, LimbBatch, NttBackend, RingPlan};
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
    fn cyclic_partition_covers_every_row_once() {
        for rows in [1, 2, 3, 5, 8, 12] {
            for k in [1, 2, 3, 4, 8] {
                // Walking rows in order assigns each to shard r % k at
                // the next free local index — r / k by construction.
                let mut local = vec![0usize; k];
                for r in 0..rows {
                    let s = r % k;
                    assert_eq!(r / k, local[s], "local rows count up densely");
                    local[s] += 1;
                }
                assert_eq!(local.iter().sum::<usize>(), rows, "total");
                for (s, &got) in local.iter().enumerate() {
                    assert_eq!(got, rows_on_shard(rows, k, s), "per-shard row count");
                }
            }
        }
    }

    #[test]
    fn host_batch_split_is_contiguous_and_total() {
        for rows in [1, 2, 3, 5, 8, 12] {
            for k in [1, 2, 3, 4, 8] {
                let mut covered = 0;
                for s in 0..k {
                    let r = shard_rows(rows, k, s);
                    assert_eq!(r.start, covered, "contiguous");
                    covered = r.end;
                }
                assert_eq!(covered, rows, "total");
            }
        }
    }

    #[test]
    fn sharded_matches_sim_on_every_trait_op() {
        let ring = ring(32, 3);
        let plan = RingPlan::new(&ring);
        let a = sample(&ring, 5);
        let b = sample(&ring, 11);

        for k in [1, 2, 3] {
            let mut sim = SimBackend::titan_v();
            let mut sharded = ShardedBackend::titan_v(k, 32);

            let (mut fs, mut fk) = (a.clone(), a.clone());
            sim.forward_batch(&plan, LimbBatch::from_poly(&mut fs));
            sharded.forward_batch(&plan, LimbBatch::from_poly(&mut fk));
            assert_eq!(fs.flat(), fk.flat(), "forward k={k}");

            let (mut ps, mut pk) = (fs.clone(), fk.clone());
            sim.pointwise_batch(&plan, LimbBatch::from_poly(&mut ps), fs.flat());
            sharded.pointwise_batch(&plan, LimbBatch::from_poly(&mut pk), fk.flat());
            assert_eq!(ps.flat(), pk.flat(), "pointwise k={k}");

            sim.inverse_batch(&plan, LimbBatch::from_poly(&mut ps));
            sharded.inverse_batch(&plan, LimbBatch::from_poly(&mut pk));
            assert_eq!(ps.flat(), pk.flat(), "inverse k={k}");

            let (mut ms, mut mk) = (RnsPoly::zero(&ring), RnsPoly::zero(&ring));
            sim.multiply_batch(&plan, a.flat(), b.flat(), LimbBatch::from_poly(&mut ms));
            sharded.multiply_batch(&plan, a.flat(), b.flat(), LimbBatch::from_poly(&mut mk));
            assert_eq!(ms.flat(), mk.flat(), "multiply k={k}");
        }
    }

    #[test]
    fn sharded_evaluator_matches_cpu_resident_chain() {
        let ring = ring(16, 3);
        let a = sample(&ring, 7);
        let b = sample(&ring, 13);
        let mut cpu = Evaluator::cpu(&ring);
        let want = cpu.multiply(&a, &b);
        for k in [1, 2, 4] {
            let mut ev = Evaluator::with_backend(&ring, Box::new(ShardedBackend::titan_v(k, 16)));
            assert_eq!(ev.backend_name(), "gpu-sim-sharded");
            let (mut ra, mut rb) = (a.clone(), b.clone());
            ev.make_resident(&mut ra);
            ev.make_resident(&mut rb);
            let mut got = ev.multiply(&ra, &rb);
            got.sync();
            assert_eq!(want.flat(), got.flat(), "resident multiply k={k}");
        }
    }

    #[test]
    fn upload_download_roundtrip_across_shards() {
        let mut m = ShardedMemory::new(GpuConfig::titan_v(), 3, 8);
        // Row-shaped: 5 rows of 8 words over 3 shards.
        let buf = m.alloc(40);
        let data: Vec<u64> = (0..40).collect();
        m.upload(buf, &data);
        let mut back = vec![0u64; 40];
        m.download(buf, &mut back);
        assert_eq!(data, back);
        // Sub-view crossing a shard boundary.
        let mut mid = vec![0u64; 16];
        m.download(buf.sub(12, 16), &mut mid);
        assert_eq!(&data[12..28], &mid[..]);
        // Not row-shaped: lands whole on shard 0.
        let odd = m.alloc(13);
        let odd_data: Vec<u64> = (100..113).collect();
        m.upload(odd, &odd_data);
        let mut odd_back = vec![0u64; 13];
        m.download(odd, &mut odd_back);
        assert_eq!(odd_data, odd_back);
        m.free(buf);
        m.free(odd);
    }

    #[test]
    fn cross_shard_copy_pays_link_traffic() {
        let mut m = ShardedMemory::new(GpuConfig::titan_v(), 2, 8);
        let src = m.alloc(16); // row 0 on shard 0, row 1 on shard 1
        let dst = m.alloc(16);
        let data: Vec<u64> = (0..16).collect();
        m.upload(src, &data);
        let t0 = m.link_stats();
        // Aligned copy: both partitions match, no link traffic.
        m.copy(src, dst);
        assert_eq!(m.link_stats().since(&t0).words, 0, "aligned copy is local");
        let mut back = vec![0u64; 16];
        m.download(dst, &mut back);
        assert_eq!(data, back);
        // Misaligned copy: shard-1 row of src into the front (shard-0)
        // row of a fresh view crosses the link.
        let t1 = m.link_stats();
        m.copy(src.sub(8, 8), dst.sub(0, 8));
        assert_eq!(m.link_stats().since(&t1).words, 8, "row crossed the link");
        m.download(dst.sub(0, 8), &mut back[..8]);
        assert_eq!(&data[8..], &back[..8]);
    }

    #[test]
    fn decompose_all_gather_crosses_the_link_only_when_sharded() {
        // Drive the key-switch digit shape directly: decompose a
        // level × N source into the level·digits·level digit rows,
        // then FMA a digit sub-view (whose partition is misaligned
        // with the accumulator's) — the two ops that carry the
        // base-conversion traffic.
        let ring = ring(16, 4);
        let plan = RingPlan::new(&ring);
        let (n, level, digits, gadget_bits) = (16usize, 4usize, 2usize, 30u32);
        let src_host: Vec<u64> = (0..(level * n) as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9) % (1 << 59))
            .collect();
        let digit_rows = level * digits * level;

        let decompose = |backend: &mut dyn NttBackend| -> Vec<u64> {
            let mem = backend.memory();
            let mut mem = mem.lock().unwrap();
            let src = mem.alloc(level * n);
            let dst = mem.alloc(digit_rows * n);
            mem.upload(src, &src_host);
            drop(mem);
            backend.dev_decompose(&plan, src, dst, level, digits, gadget_bits);
            let mut out = vec![0u64; digit_rows * n];
            let mem = backend.memory();
            let mut mem = mem.lock().unwrap();
            mem.download(dst, &mut out);
            mem.free(src);
            mem.free(dst);
            out
        };

        let mut sim = SimBackend::titan_v();
        let want = decompose(&mut sim);
        for (k, expect_link) in [(1usize, false), (2, true), (4, true)] {
            let mut sharded = ShardedBackend::titan_v(k, 16);
            let handle = sharded.memory_handle();
            let got = decompose(&mut sharded);
            assert_eq!(want, got, "decompose k={k}");
            let link = lock(&handle).link_stats();
            if expect_link {
                assert!(link.words > 0, "k={k} must all-gather over the link");
            } else {
                assert_eq!(link.words, 0, "k=1 has no link to cross");
            }
        }
    }

    #[test]
    fn misaligned_fma_digit_view_matches_sim() {
        // acc is a level-row poly; x is a digit sub-view of a
        // digit_rows-row scratch at a row offset — partitions that
        // cannot line up for K > 1, exercising the gather fallback.
        let ring = ring(16, 3);
        let plan = RingPlan::new(&ring);
        let (n, level) = (16usize, 3usize);
        let digit_rows = 2 * level; // two stacked digit polys
        let acc_host: Vec<u64> = (0..(level * n) as u64).map(|i| i % 97).collect();
        let x_host: Vec<u64> = (0..(digit_rows * n) as u64).map(|i| (i * 7) % 89).collect();
        let y_host: Vec<u64> = (0..(level * n) as u64).map(|i| (i * 13) % 83).collect();

        let run = |backend: &mut dyn NttBackend| -> Vec<u64> {
            let mem = backend.memory();
            let mut mem = mem.lock().unwrap();
            let acc = mem.alloc(level * n);
            let x = mem.alloc(digit_rows * n);
            let y = mem.alloc(level * n);
            mem.upload(acc, &acc_host);
            mem.upload(x, &x_host);
            mem.upload(y, &y_host);
            drop(mem);
            // Second digit poly: rows level..2*level of the scratch.
            let xview = x.sub(level * n, level * n);
            backend.dev_fma(&plan, acc, xview, y, level);
            let mut out = vec![0u64; level * n];
            let mem = backend.memory();
            let mut mem = mem.lock().unwrap();
            mem.download(acc, &mut out);
            for b in [acc, x, y] {
                mem.free(b);
            }
            out
        };

        let mut sim = SimBackend::titan_v();
        let want = run(&mut sim);
        for k in [2usize, 3] {
            let mut sharded = ShardedBackend::titan_v(k, 16);
            let got = run(&mut sharded);
            assert_eq!(want, got, "misaligned fma k={k}");
        }
    }

    #[test]
    fn foreign_handle_is_fatal_on_the_fallible_surface() {
        let ring = ring(16, 2);
        let plan = RingPlan::new(&ring);
        let mut sharded = ShardedBackend::titan_v(2, 16);
        let mut other = ShardedMemory::new(GpuConfig::titan_v(), 2, 16);
        let foreign = other.alloc(32);
        let err = sharded
            .try_dev_forward(&plan, foreign, 2)
            .expect_err("foreign handle must not resolve");
        assert!(
            matches!(err, BackendError::Fatal { op: "dev_forward" }),
            "got {err:?}"
        );
    }

    #[test]
    fn k1_degenerates_to_zero_link_traffic() {
        let ring = ring(32, 3);
        let a = sample(&ring, 3);
        let backend = ShardedBackend::titan_v(1, 32);
        let handle = backend.memory_handle();
        let mut ev = Evaluator::with_backend(&ring, Box::new(backend));
        let mut ra = a.clone();
        ev.make_resident(&mut ra);
        let mut got = ev.multiply(&ra, &ra);
        got.sync();
        assert_eq!(lock(&handle).link_stats(), LinkStats::default());
    }

    #[test]
    fn fork_runs_on_its_own_streams_and_matches() {
        let ring = ring(16, 2);
        let plan = RingPlan::new(&ring);
        let mut root = ShardedBackend::titan_v(2, 16);
        let mut fork = root.fork();
        let a = sample(&ring, 5);
        let (mut x, mut y) = (a.clone(), a.clone());
        root.forward_batch(&plan, LimbBatch::from_poly(&mut x));
        fork.forward_batch(&plan, LimbBatch::from_poly(&mut y));
        assert_eq!(x.flat(), y.flat());
    }

    #[test]
    fn timeline_aggregates_max_overlap_and_sums_counts() {
        let ring = ring(32, 4);
        let a = sample(&ring, 5);
        let backend = ShardedBackend::titan_v(4, 32);
        let handle = backend.memory_handle();
        let mut ev = Evaluator::with_backend(&ring, Box::new(backend));
        let mut ra = a.clone();
        ev.make_resident(&mut ra);
        let mut got = ev.multiply(&ra, &ra);
        got.sync();
        let mut m = lock(&handle);
        m.sync_all();
        let agg = m.timeline();
        let per: Vec<DeviceTimeline> = m.shard_timelines();
        let max_overlap = per.iter().fold(0.0f64, |acc, t| acc.max(t.overlapped_s));
        assert!(agg.overlapped_s >= max_overlap - 1e-12);
        assert_eq!(agg.launches, per.iter().map(|t| t.launches).sum());
    }
}
