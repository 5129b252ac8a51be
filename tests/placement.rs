//! One device backend, two placements.
//!
//! [`SimBackend`] places every residue row on one simulated GPU;
//! [`ShardedBackend`] spreads them cyclically over `K`. Both run the same
//! ops, kernels and fault gates, so two contracts hold:
//!
//! * **K = 1 is the single device.** A resident chain that touches every
//!   device op (plus the staged host batches and a mixed-residency
//!   multiply) produces bit-identical outputs, an identical device
//!   timeline and an identical kernel-launch sequence on
//!   `SimBackend::titan_v()` and `ShardedBackend::titan_v(1, n)`.
//! * **The fault-gate draw contract.** With a zero-rate fault plan armed,
//!   every fallible op draws the plan a fixed number of times on each
//!   device: three for a staged host batch (upload, launch, download),
//!   one for a device-resident op (launch). Seeded chaos replays depend on
//!   this count.

use ntt_warp::core::backend::{DeviceBuf, Evaluator, LimbBatch, NttBackend, RingPlan};
use ntt_warp::core::{RnsPoly, RnsRing};
use ntt_warp::gpu::backend::SimMemory;
use ntt_warp::gpu::{ShardedBackend, ShardedMemory, SimBackend};
use ntt_warp::sim::{DeviceTimeline, FaultPlan, Gpu};
use std::sync::{Arc, Mutex};

const N: usize = 256;
const LEVEL: usize = 4;

fn ring() -> RnsRing {
    RnsRing::new(N, ntt_warp::math::ntt_primes(50, 2 * N as u64, LEVEL)).unwrap()
}

fn sample(ring: &RnsRing, seed: i64) -> RnsPoly {
    let coeffs: Vec<i64> = (0..N as i64)
        .map(|i| (seed.wrapping_mul(i + 7) % 1009) - 504)
        .collect();
    RnsPoly::from_i64_coeffs(ring, &coeffs)
}

/// The device a backend runs on, observed through its memory handle.
enum Device {
    Sim(Arc<Mutex<SimMemory>>),
    Sharded(Arc<Mutex<ShardedMemory>>),
}

impl Device {
    /// Run `f` over every simulated GPU of the device.
    fn gpus<R>(&self, f: impl Fn(&Gpu) -> R) -> Vec<R> {
        match self {
            Device::Sim(m) => vec![f(m.lock().unwrap().gpu())],
            Device::Sharded(m) => {
                let m = m.lock().unwrap();
                (0..m.shard_count()).map(|s| f(m.shard(s).gpu())).collect()
            }
        }
    }

    fn timeline(&self) -> DeviceTimeline {
        match self {
            Device::Sim(m) => m.lock().unwrap().gpu().timeline(),
            Device::Sharded(m) => m.lock().unwrap().timeline(),
        }
    }

    fn labels(&self) -> Vec<Vec<String>> {
        self.gpus(|g| g.trace.iter().map(|r| r.launch.label.clone()).collect())
    }

    /// Fault-plan draws so far, per GPU.
    fn draws(&self) -> Vec<u64> {
        self.gpus(|g| g.fault_plan().expect("plan armed").ops_seen())
    }
}

/// Every device op, the staged host batches and a mixed-residency
/// multiply, in one chain. Returns each step's output words.
fn resident_chain(backend: Box<dyn NttBackend>) -> Vec<Vec<u64>> {
    let ring = ring();
    let mut ev = Evaluator::with_backend(&ring, backend);
    let mut out = Vec::new();
    let (ha, hb) = (sample(&ring, 3), sample(&ring, 11));

    // Staged host batches: multiply_batch, forward/pointwise/inverse.
    let host_prod = ev.multiply(&ha, &hb);
    out.push(host_prod.flat().to_vec());
    let mut flat = ha.flat().to_vec();
    ev.forward_flat(LEVEL, &mut flat);
    let rhs = flat.clone();
    ev.pointwise_flat(LEVEL, &mut flat, &rhs);
    ev.inverse_flat(LEVEL, &mut flat);
    out.push(flat);

    // Resident: multiply, forward, pointwise, add/sub, negate, inverse.
    let (mut a, mut b) = (ha.clone(), hb.clone());
    ev.make_resident(&mut a);
    ev.make_resident(&mut b);
    let mut c = ev.multiply(&a, &b);
    ev.to_evaluation(&mut a);
    ev.to_evaluation(&mut b);
    ev.mul_pointwise(&mut a, &b);
    ev.add_assign(&mut a, &b);
    ev.sub_assign(&mut a, &b);
    ev.sub_assign(&mut a, &b);
    ev.negate(&mut a);
    ev.to_coefficient(&mut a);

    // Key-switch shape: decompose + digit forward, then fma a digit view.
    let digits = 5;
    let buf = ev
        .decompose_resident(&c, digits, 10)
        .expect("c is resident");
    let mut acc = b.clone();
    ev.make_resident(&mut acc);
    let digit = buf.sub(LEVEL * N, LEVEL * N);
    ev.fma_resident(&mut acc, digit, &b);

    // Automorphism, rescale, mod-raise.
    ev.automorphism(&mut c, 5);
    let mut low = c.clone();
    ev.rescale(&mut c);
    ev.drop_level(&mut low, 1);
    let raised = ev.mod_raise(&mut low, LEVEL);

    // Mixed residency: a host co-operand staged onto the device.
    let mixed = ev.multiply(&ha, &a);

    for mut p in [a, acc, c, raised, mixed] {
        p.sync();
        out.push(p.flat().to_vec());
    }
    out
}

#[test]
fn one_shard_reproduces_the_single_device() {
    let sim = SimBackend::titan_v();
    let sim_dev = Device::Sim(sim.memory_handle());
    let sim_out = resident_chain(Box::new(sim));

    let sharded = ShardedBackend::titan_v(1, N);
    let sharded_dev = Device::Sharded(sharded.memory_handle());
    let sharded_out = resident_chain(Box::new(sharded));

    assert_eq!(sim_out.len(), sharded_out.len());
    for (i, (s, k)) in sim_out.iter().zip(&sharded_out).enumerate() {
        assert_eq!(s, k, "step {i} output differs");
    }
    let (ts, tk) = (sim_dev.timeline(), sharded_dev.timeline());
    assert_eq!(ts.launches, tk.launches, "launches");
    assert_eq!(ts.transfers, tk.transfers, "transfers");
    assert_eq!(ts.serialized_s, tk.serialized_s, "serialized seconds");
    assert_eq!(ts.overlapped_s, tk.overlapped_s, "overlapped seconds");
    assert!(ts.launches > 0);
    assert_eq!(sim_dev.labels(), sharded_dev.labels(), "launch labels");
}

/// Run every fallible op once and check each device's draw count.
fn check_draws(mut backend: Box<dyn NttBackend>, dev: &Device) {
    let ring = ring();
    let plan = RingPlan::new(&ring);
    let (a, b) = (sample(&ring, 5), sample(&ring, 9));
    let words = LEVEL * N;
    let digits = 2;
    let mem = backend.memory();
    let alloc = |w: usize, data: Option<&[u64]>| -> DeviceBuf {
        let mut m = mem.lock().unwrap();
        let buf = m.alloc(w);
        if let Some(d) = data {
            m.upload(buf, d);
        }
        buf
    };
    let x = alloc(words, Some(a.flat()));
    let y = alloc(words, Some(b.flat()));
    let z = alloc(words, None);
    let digit_buf = alloc(LEVEL * digits * words, None);
    let row = alloc(N, Some(&a.flat()[..N]));

    let mut expect = |what: &str, per_device: u64, f: &mut dyn FnMut(&mut dyn NttBackend)| {
        let before = dev.draws();
        f(&mut *backend);
        let after = dev.draws();
        for (s, (b0, b1)) in before.iter().zip(&after).enumerate() {
            assert_eq!(b1 - b0, per_device, "{what}: draws on device {s}");
        }
    };
    let (mut h, h2) = (a.flat().to_vec(), b.flat().to_vec());
    let mut o = vec![0u64; words];
    expect("forward_batch", 3, &mut |be| {
        be.try_forward_batch(&plan, LimbBatch::new(&mut h, N, LEVEL))
            .unwrap()
    });
    expect("inverse_batch", 3, &mut |be| {
        be.try_inverse_batch(&plan, LimbBatch::new(&mut h, N, LEVEL))
            .unwrap()
    });
    expect("pointwise_batch", 3, &mut |be| {
        be.try_pointwise_batch(&plan, LimbBatch::new(&mut h, N, LEVEL), &h2)
            .unwrap()
    });
    expect("multiply_batch", 3, &mut |be| {
        be.try_multiply_batch(&plan, &h, &h2, LimbBatch::new(&mut o, N, LEVEL))
            .unwrap()
    });
    expect("dev_forward", 1, &mut |be| {
        be.try_dev_forward(&plan, x, LEVEL).unwrap()
    });
    expect("dev_inverse", 1, &mut |be| {
        be.try_dev_inverse(&plan, x, LEVEL).unwrap()
    });
    expect("dev_multiply", 1, &mut |be| {
        be.try_dev_multiply(&plan, x, y, z, LEVEL).unwrap()
    });
    expect("dev_pointwise", 1, &mut |be| {
        be.try_dev_pointwise(&plan, x, y, LEVEL).unwrap()
    });
    expect("dev_fma", 1, &mut |be| {
        be.try_dev_fma(&plan, x, y, z, LEVEL).unwrap()
    });
    expect("dev_rescale", 1, &mut |be| {
        be.try_dev_rescale(&plan, z, LEVEL).unwrap()
    });
    expect("dev_decompose", 1, &mut |be| {
        be.try_dev_decompose(&plan, y, digit_buf, LEVEL, digits, 30)
            .unwrap()
    });
    expect("dev_automorphism", 1, &mut |be| {
        be.try_dev_automorphism(&plan, y, z, LEVEL, 3).unwrap()
    });
    expect("dev_modraise", 1, &mut |be| {
        be.try_dev_modraise(&plan, row, z, LEVEL).unwrap()
    });
}

#[test]
fn fallible_ops_draw_the_fault_plan_per_command_class() {
    let sim = SimBackend::titan_v();
    sim.set_fault_plan(Some(FaultPlan::seeded(1)));
    let dev = Device::Sim(sim.memory_handle());
    check_draws(Box::new(sim), &dev);

    let sharded = ShardedBackend::titan_v(2, N);
    sharded.set_fault_plan(Some(FaultPlan::seeded(1)));
    let dev = Device::Sharded(sharded.memory_handle());
    assert_eq!(dev.draws().len(), 2);
    check_draws(Box::new(sharded), &dev);
}
