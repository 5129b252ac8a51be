//! `boot-sharded`: CKKS-style bootstrapping (`BootParams::shallow()`,
//! N = 2^8, dense slots) on two simulated GPUs. Keys are generated once
//! on the CPU and adopted by the device context. One request is one
//! bootstrap of a client ciphertext, including its upload and the
//! download of the result; the output must be bit-identical to a CPU
//! bootstrap of the same input under the same keys.

use super::{
    heavy_tail_len, layers_from_device, layers_from_spans, more, record_latency, rng_for, run_env,
    same_counters, setups, strategy_names, traced, values,
};
use crate::device::Device;
use crate::trace::{self, Tracer};
use crate::{Config, Outcome};
use he_boot::{BootParams, Bootstrapper};
use he_lite::{Ciphertext, HeContext};
use ntt_gpu::ShardedBackend;
use std::sync::Arc;
use std::time::Instant;

const LOG_N: u32 = 8;
const PRIME_BITS: u32 = 50;
/// Simulated devices.
const SHARDS: usize = 2;
/// Distinct client ciphertexts the requests cycle through.
const INPUTS: usize = 3;

/// The program as a user sets it up, plus the CPU engine whose
/// bootstraps are the reference outputs.
struct Program {
    cpu_boot: Bootstrapper,
    boot: Bootstrapper,
    ctx: Arc<HeContext>,
    dev: Device,
    inputs: Vec<Ciphertext>,
}

fn params() -> he_lite::HeLiteParams {
    BootParams::shallow().he_params(LOG_N, PRIME_BITS)
}

/// Level-1 client ciphertexts at the bootstrap input scale, encrypted on
/// the CPU context.
fn client_inputs(
    cpu: &HeContext,
    cpu_boot: &Bootstrapper,
    keys: &he_lite::KeySet,
    seed: u64,
) -> Vec<Ciphertext> {
    let mut rng = rng_for(seed, 0xb0);
    (0..INPUTS)
        .map(|_| {
            let len = heavy_tail_len(&mut rng, cpu.params().n() / 2);
            let v = values(&mut rng, len, 0.5);
            let pt = cpu.encode_with_scale(&v, cpu_boot.input_scale());
            let ct = cpu.encrypt(&pt, &keys.public, &mut rng);
            cpu.drop_to_level(&ct, 1)
        })
        .collect()
}

/// CPU keys (including the rotation keys the bootstrapper needs), the
/// sharded context adopting them, its bootstrapper, and one warm-up
/// bootstrap.
fn setup(seed: u64) -> Program {
    let bp = BootParams::shallow();
    let cpu = Arc::new(HeContext::new(params()).expect("boot parameters are valid"));
    let mut rng = rng_for(seed, 0x6b);
    let keys = cpu.keygen(&mut rng);
    let cpu_boot = Bootstrapper::new(Arc::clone(&cpu), &keys, bp, &mut rng);
    let inputs = client_inputs(&cpu, &cpu_boot, &keys, seed);

    let backend = ShardedBackend::titan_v(SHARDS, 1 << LOG_N);
    let dev = Device::Sharded(backend.memory_handle());
    let ctx =
        Arc::new(HeContext::with_backend(params(), Box::new(backend)).expect("sharded context"));
    let dkeys = ctx.adopt_keys(&keys);
    let rot = ctx.adopt_rotation_keys(cpu_boot.rotation_keys());
    let slots = ctx.params().n() / 2;
    let boot = Bootstrapper::with_rotation_keys(Arc::clone(&ctx), &dkeys, bp, slots, rot);
    let _ = boot.bootstrap(&inputs[0]);
    Program {
        cpu_boot,
        boot,
        ctx,
        dev,
        inputs,
    }
}

fn same(a: &Ciphertext, b: &Ciphertext) -> bool {
    a.level() == b.level() && a.scale() == b.scale() && a.components() == b.components()
}

pub fn run(cfg: &Config) -> Outcome {
    let mut o = Outcome::default();
    let p = setups(&mut o, || setup(cfg.seed));
    o.env = Some(run_env(
        p.ctx.backend_name(),
        params().levels,
        p.ctx.with_pooled_evaluator(|ev| strategy_names(ev.plan())),
    ));
    // Reference outputs: CPU bootstraps, outside every timed window.
    let want: Vec<Ciphertext> = p.inputs.iter().map(|ct| p.cpu_boot.bootstrap(ct)).collect();

    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, 0);
    let mut counters = Vec::new();
    let mut host_ms = Vec::new();
    let mut k = 0u64;
    while more(epoch, cfg.seconds, k, cfg.trace) {
        let i = k as usize % INPUTS;
        let on = traced(cfg, k);
        tr.set_enabled(on);
        let snap = on.then(|| p.dev.snapshot());
        let t0 = Instant::now();
        let out = tr.span("request", k, |tr| {
            let mut out = tr.span("he-boot.bootstrap", k, |_| p.boot.bootstrap(&p.inputs[i]));
            tr.span("he-lite.sync", k, |_| out.sync());
            out
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(snap) = snap {
            counters.push(p.dev.since(&snap));
            host_ms.push(ms);
        }
        o.attempted += 1;
        if same(&out, &want[i]) {
            record_latency(&mut o, on, ms);
        } else {
            o.failed += 1;
            o.wrong += 1;
        }
        k += 1;
    }
    o.window_s = epoch.elapsed().as_secs_f64();

    if cfg.trace {
        let spans = trace::merge(vec![tr]);
        let sum = super::finish_trace(cfg, &mut o, &spans);
        layers_from_spans(
            &mut o,
            &sum,
            &[("he-boot.bootstrap_ms", "he-boot.bootstrap")],
        );
        if let Some(c) = same_counters(&mut o, &counters) {
            let host = crate::stats::median(&host_ms).unwrap_or(0.0);
            layers_from_device(&mut o, &c, host);
        }
    }
    o
}
