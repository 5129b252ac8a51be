//! `serve-cpu`: an `HeServer` on the CPU backend under a closed loop of
//! two clients, each running encrypt → eval → decrypt chains with
//! heavy-tailed value counts. One request is one chain.

use super::{
    close, heavy_tail_len, layers_from_spans, more, record_latency, rng_for, run_env, setups,
    strategy_names, traced, values,
};
use crate::stats::median;
use crate::trace::{self, Tracer};
use crate::{Config, Outcome};
use he_lite::{HeContext, HeLiteParams};
use he_serve::{HeServer, Request, Response, ServeConfig, TenantId};
use rand::RngExt;
use std::time::Instant;

const PARAMS: HeLiteParams = HeLiteParams {
    log_n: 12,
    prime_bits: 50,
    levels: 3,
    scale_bits: 40,
    gadget_bits: 10,
    error_eta: 4,
};

/// Client threads (the closed loop's population).
const CLIENTS: u32 = 2;

/// Decrypted values must lie this close to the closed form.
const TOL: f64 = 1e-2;

/// One chain's inputs: values and a constant weight (a degree-0 weight
/// scales every coefficient, so the output has a closed form).
struct Chain {
    values: Vec<f64>,
    weight: f64,
}

fn chain<R: rand::Rng + RngExt>(rng: &mut R) -> Chain {
    let len = heavy_tail_len(rng, PARAMS.n());
    Chain {
        values: values(rng, len, 4.0),
        weight: rng.random_range(-2.0..2.0),
    }
}

/// Per-client tallies.
#[derive(Default)]
struct Client {
    o: Outcome,
    /// `Completed::latency` of every job of a traced chain, ms.
    server_ms: Vec<f64>,
}

/// Submit one job and wait for its answer.
fn job(
    server: &HeServer,
    tenant: TenantId,
    req: Request,
    server_ms: &mut Vec<f64>,
) -> Option<Response> {
    // A refused submit, an unanswered ticket and a failed job all end
    // the chain as failed.
    let done = server.submit(tenant, req).ok()?.wait()?;
    server_ms.push(done.latency.as_secs_f64() * 1e3);
    match done.response {
        Response::Failed(_) => None,
        r => Some(r),
    }
}

/// Run one chain, each job inside its own span; the decrypted values, or
/// `None` when a job was refused, failed or went unanswered.
fn run_chain(
    server: &HeServer,
    tenant: TenantId,
    c: &Chain,
    req: u64,
    tr: &mut Tracer,
    server_ms: &mut Vec<f64>,
) -> Option<Vec<f64>> {
    let values = c.values.clone();
    let ct = match tr.span("he-serve.encrypt", req, |_| {
        job(server, tenant, Request::Encrypt { values }, server_ms)
    }) {
        Some(Response::Encrypted(ct)) => ct,
        _ => return None,
    };
    let weights = vec![c.weight];
    let ct = match tr.span("he-serve.eval", req, |_| {
        job(server, tenant, Request::Eval { ct, weights }, server_ms)
    }) {
        Some(Response::Evaluated(ct)) => ct,
        _ => return None,
    };
    match tr.span("he-serve.decrypt", req, |_| {
        job(server, tenant, Request::Decrypt { ct }, server_ms)
    }) {
        Some(Response::Decrypted(out)) => Some(out),
        _ => None,
    }
}

/// Run a chain and score it against the closed form.
fn request(
    server: &HeServer,
    tenant: TenantId,
    c: &Chain,
    req: u64,
    tr: &mut Tracer,
    cl: &mut Client,
) {
    let t0 = Instant::now();
    let mut sink = Vec::new();
    let server_ms = if tr.enabled() {
        &mut cl.server_ms
    } else {
        &mut sink
    };
    let end = tr.span("request", req, |tr| {
        run_chain(server, tenant, c, req, tr, server_ms)
    });
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    cl.o.attempted += 1;
    match end {
        Some(out) => {
            let want: Vec<f64> = c.values.iter().map(|v| v * c.weight).collect();
            if close(&out, &want, TOL) {
                record_latency(&mut cl.o, tr.enabled(), ms);
            } else {
                cl.o.failed += 1;
                cl.o.wrong += 1;
            }
        }
        None => cl.o.failed += 1,
    }
}

/// Context, server start (key generation inside) and one warm-up chain.
fn setup(seed: u64, warm: &mut Outcome) -> HeServer {
    let ctx = HeContext::new(PARAMS).expect("serve parameters are valid");
    let server = HeServer::start(
        ctx,
        ServeConfig {
            workers: 2,
            key_seed: seed,
            ..ServeConfig::default()
        },
    );
    let c = chain(&mut rng_for(seed, 0x5e7));
    let mut cl = Client::default();
    request(
        &server,
        TenantId(0),
        &c,
        u64::MAX,
        &mut Tracer::new(Instant::now(), 0),
        &mut cl,
    );
    warm.attempted += cl.o.attempted;
    warm.failed += cl.o.failed;
    warm.wrong += cl.o.wrong;
    server
}

pub fn run(cfg: &Config) -> Outcome {
    let mut o = Outcome::default();
    let mut warm = Outcome::default();
    let server = setups(&mut o, || setup(cfg.seed, &mut warm));
    let ctx = server.context();
    o.env = Some(run_env(
        ctx.backend_name(),
        PARAMS.levels,
        ctx.with_pooled_evaluator(|ev| strategy_names(ev.plan())),
    ));

    let before = server.metrics();
    let epoch = Instant::now();
    let clients: Vec<(Client, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|t| {
                let server = &server;
                s.spawn(move || {
                    let mut cl = Client::default();
                    let mut tr = Tracer::new(epoch, t);
                    let mut rng = rng_for(cfg.seed, 1 + u64::from(t));
                    let mut k = 0u64;
                    while more(epoch, cfg.seconds, k, cfg.trace) {
                        let c = chain(&mut rng);
                        tr.set_enabled(traced(cfg, k));
                        let req = (u64::from(t) << 32) | k;
                        request(server, TenantId(t), &c, req, &mut tr, &mut cl);
                        k += 1;
                    }
                    (cl, tr)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    o.window_s = epoch.elapsed().as_secs_f64();
    let after = server.metrics();
    server.shutdown();

    let mut tracers = Vec::new();
    let mut server_ms = Vec::new();
    for (cl, tr) in clients {
        o.attempted += cl.o.attempted;
        o.failed += cl.o.failed;
        o.wrong += cl.o.wrong;
        o.latencies_ms.extend(cl.o.latencies_ms);
        o.traced_ms.extend(cl.o.traced_ms);
        server_ms.extend(cl.server_ms);
        tracers.push(tr);
    }
    if warm.wrong > 0 || warm.failed > 0 {
        o.notes.push(format!(
            "warm-up chains failed: {} ({} wrong)",
            warm.failed, warm.wrong
        ));
        o.attempted += warm.attempted;
        o.failed += warm.failed;
        o.wrong += warm.wrong;
    }
    if cfg.trace {
        let spans = trace::merge(tracers);
        let sum = super::finish_trace(cfg, &mut o, &spans);
        layers_from_spans(
            &mut o,
            &sum,
            &[
                ("he-serve.encrypt_ms", "he-serve.encrypt"),
                ("he-serve.eval_ms", "he-serve.eval"),
                ("he-serve.decrypt_ms", "he-serve.decrypt"),
            ],
        );
        if let Some(v) = median(&server_ms) {
            o.layers.insert("he-serve.server_ms", v);
        }
        let batches = after.batches - before.batches;
        let jobs = after.batched_jobs - before.batched_jobs;
        o.layers
            .insert("he-serve.batch_factor", jobs as f64 / batches.max(1) as f64);
        o.layers
            .insert("he-serve.retries", (after.retries - before.retries) as f64);
    }
    o
}
