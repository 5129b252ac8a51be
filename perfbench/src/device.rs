//! Counters the simulated devices already keep, read around one request.
//!
//! Every number here is modeled (simulated Titan V, unvalidated) or
//! computed by the model (DRAM bytes); none is measured on hardware.

use gpu_sim::{DeviceTimeline, Gpu, LaunchRecord};
use ntt_core::backend::DeviceMemory;
use ntt_gpu::backend::SimMemory;
use ntt_gpu::{LinkStats, ShardedMemory};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Handle on the device memory a workload's backend shares.
pub enum Device {
    /// One simulated GPU.
    Sim(Arc<Mutex<SimMemory>>),
    /// `K` simulated GPUs joined by a modeled link.
    Sharded(Arc<Mutex<ShardedMemory>>),
}

/// Device state at a request boundary (after draining every stream).
pub struct Snapshot {
    timeline: DeviceTimeline,
    shard_busy_s: Vec<f64>,
    trace_len: Vec<usize>,
    link: LinkStats,
    host_transfers: u64,
}

/// What the device did for one request.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Modeled seconds in forward-NTT kernels (fused SMEM, radix, 4-step).
    pub fwd_ntt_s: f64,
    /// Modeled seconds in inverse-NTT kernels (radix-2 inverse, scaling).
    pub inv_ntt_s: f64,
    /// Modeled seconds in key-switch kernels (decompose, FMA, automorphism).
    pub keyswitch_s: f64,
    /// Modeled seconds in every other kernel (pointwise, rescale, ...).
    pub pointwise_s: f64,
    /// DRAM bytes the model computes for the request's kernels.
    pub dram_bytes: u64,
    /// Kernel launches.
    pub launches: u64,
    /// Sum of command durations (launches and transfers), seconds.
    pub serialized_s: f64,
    /// Modeled makespan of the request, seconds.
    pub makespan_s: f64,
    /// Host↔device transfers.
    pub host_transfers: u64,
    /// Words moved over the inter-device link.
    pub link_words: u64,
    /// Inter-device moves.
    pub link_transfers: u64,
    /// Slowest device's busy time over the mean device's.
    pub shard_skew: f64,
}

impl Counters {
    /// Whether `self` repeats `other`: counts exactly, modeled times and
    /// ratios to within a relative 1e-9.
    pub fn repeats(&self, other: &Counters) -> bool {
        let near = |a: f64, b: f64| (a - b).abs() <= 1e-9 * a.abs().max(b.abs());
        let counts = |c: &Counters| {
            (
                c.dram_bytes,
                c.launches,
                c.host_transfers,
                c.link_words,
                c.link_transfers,
            )
        };
        let times = |c: &Counters| {
            [
                c.fwd_ntt_s,
                c.inv_ntt_s,
                c.keyswitch_s,
                c.pointwise_s,
                c.serialized_s,
                c.makespan_s,
                c.shard_skew,
            ]
        };
        counts(self) == counts(other)
            && times(self)
                .into_iter()
                .zip(times(other))
                .all(|(a, b)| near(a, b))
    }
}

/// Kernel family of a launch label.
fn family(label: &str) -> usize {
    if label.starts_with("iradix2") || label == "intt-scale" {
        1
    } else if label.starts_with("smem-k")
        || label.starts_with("radix")
        || label.starts_with("hier-")
        || label.starts_with("dft-")
    {
        0
    } else if matches!(label, "sim-decompose" | "sim-fma" | "sim-automorphism") {
        2
    } else {
        3
    }
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Device {
    fn gpus<R>(&self, f: impl FnOnce(&[&Gpu]) -> R) -> R {
        match self {
            Device::Sim(m) => f(&[lock(m).gpu()]),
            Device::Sharded(m) => {
                let m = lock(m);
                let gpus: Vec<&Gpu> = (0..m.shard_count()).map(|s| m.shard(s).gpu()).collect();
                f(&gpus)
            }
        }
    }

    /// Drain every stream and read the counters.
    pub fn snapshot(&self) -> Snapshot {
        let (timeline, link, host_transfers) = match self {
            Device::Sim(m) => {
                let mut m = lock(m);
                m.gpu_mut().sync_all();
                let t = m.gpu().timeline();
                (t, LinkStats::default(), m.stats().host_transfers())
            }
            Device::Sharded(m) => {
                let mut m = lock(m);
                m.sync_all();
                (m.timeline(), m.link_stats(), m.stats().host_transfers())
            }
        };
        let (shard_busy_s, trace_len) = self.gpus(|gpus| {
            (
                gpus.iter().map(|g| g.timeline().serialized_s).collect(),
                gpus.iter().map(|g| g.trace.len()).collect(),
            )
        });
        Snapshot {
            timeline,
            shard_busy_s,
            trace_len,
            link,
            host_transfers,
        }
    }

    /// Counters between `before` and now (drains the streams first).
    pub fn since(&self, before: &Snapshot) -> Counters {
        let after = self.snapshot();
        let t = after.timeline.since(&before.timeline);
        let link = after.link.since(&before.link);
        let busy: Vec<f64> = after
            .shard_busy_s
            .iter()
            .zip(&before.shard_busy_s)
            .map(|(a, b)| a - b)
            .collect();
        let mean = busy.iter().sum::<f64>() / busy.len() as f64;
        let max = busy.iter().copied().fold(0.0, f64::max);
        let mut c = Counters {
            launches: t.launches,
            serialized_s: t.serialized_s,
            makespan_s: t.overlapped_s,
            host_transfers: after.host_transfers - before.host_transfers,
            link_words: link.words as u64,
            link_transfers: link.transfers as u64,
            shard_skew: if mean > 0.0 { max / mean } else { 1.0 },
            ..Counters::default()
        };
        self.gpus(|gpus| {
            for (g, &from) in gpus.iter().zip(&before.trace_len) {
                for rec in &g.trace[from..] {
                    add_launch(&mut c, g, rec);
                }
            }
        });
        c
    }
}

fn add_launch(c: &mut Counters, g: &Gpu, rec: &LaunchRecord) {
    let s = rec.timing.total_s;
    match family(&rec.launch.label) {
        0 => c.fwd_ntt_s += s,
        1 => c.inv_ntt_s += s,
        2 => c.keyswitch_s += s,
        _ => c.pointwise_s += s,
    }
    c.dram_bytes += rec.dram_bytes(&g.config);
}

#[cfg(test)]
mod tests {
    use super::family;

    #[test]
    fn labels_map_to_families() {
        assert_eq!(family("smem-k1-64"), 0);
        assert_eq!(family("radix2-m4"), 0);
        assert_eq!(family("hier-col"), 0);
        assert_eq!(family("iradix2-h8"), 1);
        assert_eq!(family("intt-scale"), 1);
        assert_eq!(family("sim-fma"), 2);
        assert_eq!(family("sim-pointwise"), 3);
    }
}
