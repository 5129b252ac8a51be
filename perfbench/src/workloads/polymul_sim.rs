//! `polymul-sim`: the paper's own regime. `Evaluator::multiply` of
//! device-resident RNS polynomials at N = 2^16 with 8 primes on one
//! simulated Titan V. One request is one product plus the download of
//! the result, which must be bit-identical to `RnsRing::multiply`.

use super::{
    layers_from_device, layers_from_spans, more, record_latency, rng_for, run_env, same_counters,
    setups, strategy_names, traced,
};
use crate::device::Device;
use crate::trace::{self, Tracer};
use crate::{Config, Outcome};
use ntt_core::backend::Evaluator;
use ntt_core::{RnsPoly, RnsRing};
use ntt_gpu::SimBackend;
use std::time::Instant;

const LOG_N: u32 = 16;
const PRIMES: usize = 8;
const PRIME_BITS: u32 = 59;
/// Distinct operand pairs the requests cycle through.
const INPUTS: usize = 3;

struct Program {
    ring: RnsRing,
    ev: Evaluator,
    dev: Device,
    /// Device-resident operand pairs.
    pairs: Vec<(RnsPoly, RnsPoly)>,
}

fn ring() -> RnsRing {
    let n = 1usize << LOG_N;
    RnsRing::new(n, ntt_math::ntt_primes(PRIME_BITS, 2 * n as u64, PRIMES)).expect("valid ring")
}

/// Host operand pairs drawn from the seed.
fn operands(ring: &RnsRing, seed: u64) -> Vec<(RnsPoly, RnsPoly)> {
    let mut rng = rng_for(seed, 0x90);
    (0..INPUTS)
        .map(|_| {
            let a = he_lite::sampling::uniform_poly(ring, &mut rng);
            let b = he_lite::sampling::uniform_poly(ring, &mut rng);
            (a, b)
        })
        .collect()
}

/// Ring tables, the device, operand upload and one warm-up product.
fn setup(host: &[(RnsPoly, RnsPoly)]) -> Program {
    let ring = ring();
    let backend = SimBackend::titan_v();
    let dev = Device::Sim(backend.memory_handle());
    let mut ev = Evaluator::with_backend(&ring, Box::new(backend));
    let pairs: Vec<(RnsPoly, RnsPoly)> = host
        .iter()
        .map(|(a, b)| {
            let (mut a, mut b) = (a.clone(), b.clone());
            ev.make_resident(&mut a);
            ev.make_resident(&mut b);
            (a, b)
        })
        .collect();
    let mut warm = ev.multiply(&pairs[0].0, &pairs[0].1);
    warm.sync();
    Program {
        ring,
        ev,
        dev,
        pairs,
    }
}

pub fn run(cfg: &Config) -> Outcome {
    let mut o = Outcome::default();
    let host = operands(&ring(), cfg.seed);
    let mut p = setups(&mut o, || setup(&host));
    o.env = Some(run_env(
        p.ev.backend_name(),
        PRIMES,
        strategy_names(p.ev.plan()),
    ));
    // Reference products on the CPU, outside every timed window.
    let want: Vec<RnsPoly> = host.iter().map(|(a, b)| p.ring.multiply(a, b)).collect();

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
        let (a, b) = &p.pairs[i];
        let ev = &mut p.ev;
        let out = tr.span("request", k, |tr| {
            let mut out = tr.span("ntt-core.multiply", k, |_| ev.multiply(a, b));
            tr.span("ntt-core.sync", k, |_| out.sync());
            out
        });
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        if let Some(snap) = snap {
            counters.push(p.dev.since(&snap));
            host_ms.push(ms);
        }
        o.attempted += 1;
        if out == want[i] {
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
            &[("ntt-core.multiply_ms", "ntt-core.multiply")],
        );
        if let Some(c) = same_counters(&mut o, &counters) {
            let host = crate::stats::median(&host_ms).unwrap_or(0.0);
            layers_from_device(&mut o, &c, host);
        }
    }
    o
}
