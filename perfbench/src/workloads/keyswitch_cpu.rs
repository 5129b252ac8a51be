//! `keyswitch-cpu`: one client driving `HeContext` on the CPU backend at
//! a deep RNS chain. One request is one chain: encode → encrypt ×2 →
//! multiply (relinearize + rescale) → rotate by `g = 5` → decrypt →
//! decode. In a traced run each traced request also runs one forward,
//! inverse and pointwise op over all `L` rows through a pooled evaluator.

use super::{
    close, heavy_tail_len, layers_from_spans, more, record_latency, rng_for, run_env, setups,
    strategy_names, traced, values,
};
use crate::trace::{self, Tracer};
use crate::{Config, Outcome};
use he_lite::{HeContext, HeLiteParams, KeySet, RotationKeys};
use rand::RngExt;
use std::time::Instant;

const PARAMS: HeLiteParams = HeLiteParams {
    log_n: 12,
    prime_bits: 50,
    levels: 8,
    scale_bits: 40,
    gadget_bits: 10,
    error_eta: 4,
};

/// Galois element of the rotation (`X → X^5`).
const G: u64 = 5;

/// Decoded coefficients must lie this close to the closed form.
const TOL: f64 = 1e-2;

/// The program as a user sets it up.
struct Program {
    ctx: HeContext,
    keys: KeySet,
    rtk: RotationKeys,
}

/// One chain's inputs: `a` times the constant polynomial `b0`.
struct Inputs {
    a: Vec<f64>,
    b0: f64,
}

fn inputs<R: rand::Rng + RngExt>(rng: &mut R) -> Inputs {
    let len = heavy_tail_len(rng, PARAMS.n());
    Inputs {
        a: values(rng, len, 4.0),
        b0: rng.random_range(-2.0..2.0),
    }
}

/// The closed form: `τ_5(a · b0)`, coefficient `i` moved to `5i mod 2N`
/// with the negacyclic sign.
fn expected(x: &Inputs) -> Vec<f64> {
    let n = PARAMS.n();
    let mut out = vec![0.0; n];
    for (i, &v) in x.a.iter().enumerate() {
        let j = (G as usize * i) % (2 * n);
        if j < n {
            out[j] += v * x.b0;
        } else {
            out[j - n] -= v * x.b0;
        }
    }
    out
}

/// Run one chain; every scheme call sits in its own span.
fn chain(p: &Program, x: &Inputs, seed: u64, req: u64, tr: &mut Tracer) -> Vec<f64> {
    let ctx = &p.ctx;
    let pa = tr.span("he-lite.encode", req, |_| ctx.encode(&x.a));
    let pb = tr.span("he-lite.encode", req, |_| ctx.encode(&[x.b0]));
    let mut rng = rng_for(seed, 0x1_0000_0000 | req);
    let ca = tr.span("he-lite.encrypt", req, |_| {
        ctx.encrypt(&pa, &p.keys.public, &mut rng)
    });
    let cb = tr.span("he-lite.encrypt", req, |_| {
        ctx.encrypt(&pb, &p.keys.public, &mut rng)
    });
    let prod = tr.span("he-lite.multiply", req, |_| {
        ctx.multiply(&ca, &cb, &p.keys.relin)
    });
    let rot = tr.span("he-lite.rotate", req, |_| ctx.rotate(&prod, G, &p.rtk));
    let pt = tr.span("he-lite.decrypt", req, |_| {
        ctx.decrypt(&rot, &p.keys.secret)
    });
    tr.span("he-lite.decode", req, |_| ctx.decode(&pt))
}

fn setup(seed: u64, warm: &mut u64) -> Program {
    let ctx = HeContext::new(PARAMS).expect("key-switch parameters are valid");
    let keys = ctx.keygen(&mut rng_for(seed, 0x6b));
    let rtk = ctx.keygen_rotation(
        &keys.secret,
        &[G],
        &[PARAMS.levels - 1],
        &mut rng_for(seed, 0x72),
    );
    let p = Program { ctx, keys, rtk };
    let x = inputs(&mut rng_for(seed, 0x5e7));
    let out = chain(&p, &x, seed, u64::MAX, &mut Tracer::new(Instant::now(), 0));
    if !close(&out, &expected(&x), TOL) {
        *warm += 1;
    }
    p
}

/// One forward, inverse and pointwise op over `L` rows at the workload's
/// shape, each in a span; `true` when the round trip and the product are
/// exact.
fn ntt_probe(
    p: &Program,
    sample: &[u64],
    rhs: &[u64],
    prod: &[u64],
    req: u64,
    tr: &mut Tracer,
) -> bool {
    let l = PARAMS.levels;
    p.ctx.with_pooled_evaluator(|ev| {
        let mut data = sample.to_vec();
        tr.span("ntt-core.forward", req, |_| ev.forward_flat(l, &mut data));
        tr.span("ntt-core.inverse", req, |_| ev.inverse_flat(l, &mut data));
        let mut acc = sample.to_vec();
        tr.span("ntt-core.pointwise", req, |_| {
            ev.pointwise_flat(l, &mut acc, rhs)
        });
        data == sample && acc == prod
    })
}

pub fn run(cfg: &Config) -> Outcome {
    let mut o = Outcome::default();
    let mut warm_wrong = 0;
    let p = setups(&mut o, || setup(cfg.seed, &mut warm_wrong));
    o.env = Some(run_env(
        p.ctx.backend_name(),
        PARAMS.levels,
        p.ctx.with_pooled_evaluator(|ev| strategy_names(ev.plan())),
    ));

    // Operands of the traced ntt-core ops and their exact product.
    let ring = p.ctx.ring();
    let mut prng = rng_for(cfg.seed, 0x9e);
    let sample = he_lite::sampling::uniform_poly(ring, &mut prng)
        .flat()
        .to_vec();
    let rhs = he_lite::sampling::uniform_poly(ring, &mut prng)
        .flat()
        .to_vec();
    let n = PARAMS.n();
    let prod: Vec<u64> = sample
        .iter()
        .zip(&rhs)
        .enumerate()
        .map(|(i, (&a, &b))| ntt_math::mul_mod(a, b, ring.basis().primes()[i / n]))
        .collect();

    let epoch = Instant::now();
    let mut tr = Tracer::new(epoch, 0);
    let mut rng = rng_for(cfg.seed, 1);
    let mut k = 0u64;
    while more(epoch, cfg.seconds, k, cfg.trace) {
        let x = inputs(&mut rng);
        let on = traced(cfg, k);
        tr.set_enabled(on);
        let t0 = Instant::now();
        let out = tr.span("request", k, |tr| chain(&p, &x, cfg.seed, k, tr));
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let ok = close(&out, &expected(&x), TOL)
            && (!on || ntt_probe(&p, &sample, &rhs, &prod, k, &mut tr));
        o.attempted += 1;
        if ok {
            record_latency(&mut o, on, ms);
        } else {
            o.failed += 1;
            o.wrong += 1;
        }
        k += 1;
    }
    o.window_s = epoch.elapsed().as_secs_f64();
    if warm_wrong > 0 {
        o.notes.push(format!("warm-up chains wrong: {warm_wrong}"));
        o.attempted += warm_wrong;
        o.failed += warm_wrong;
        o.wrong += warm_wrong;
    }

    if cfg.trace {
        let spans = trace::merge(vec![tr]);
        let sum = super::finish_trace(cfg, &mut o, &spans);
        layers_from_spans(
            &mut o,
            &sum,
            &[
                ("he-lite.encode_ms", "he-lite.encode"),
                ("he-lite.encrypt_ms", "he-lite.encrypt"),
                ("he-lite.multiply_ms", "he-lite.multiply"),
                ("he-lite.rotate_ms", "he-lite.rotate"),
                ("he-lite.decrypt_ms", "he-lite.decrypt"),
                ("he-lite.decode_ms", "he-lite.decode"),
                ("ntt-core.forward_ms", "ntt-core.forward"),
                ("ntt-core.inverse_ms", "ntt-core.inverse"),
                ("ntt-core.pointwise_ms", "ntt-core.pointwise"),
            ],
        );
        let chains = sum.total_wall_ms("request");
        if chains > 0.0 {
            o.layers.insert(
                "he-lite.decode_share",
                sum.total_self_ms("he-lite.decode") / chains,
            );
        }
    }
    o
}
