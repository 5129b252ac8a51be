//! The four workloads and what they share.

mod boot_sharded;
mod keyswitch_cpu;
mod polymul_sim;
mod serve_cpu;

use crate::device::Counters;
use crate::env::RunEnv;
use crate::stats::median;
use crate::trace::{self, Span, Summary};
use crate::{Config, Outcome};
use rand::{Rng, RngExt};
use std::time::{Duration, Instant};

/// Workload names, as given to `--workload`.
pub const NAMES: [&str; 4] = ["serve-cpu", "keyswitch-cpu", "boot-sharded", "polymul-sim"];

/// Run the named workload.
pub fn run(cfg: &Config) -> Outcome {
    match cfg.workload.as_str() {
        "serve-cpu" => serve_cpu::run(cfg),
        "keyswitch-cpu" => keyswitch_cpu::run(cfg),
        "boot-sharded" => boot_sharded::run(cfg),
        "polymul-sim" => polymul_sim::run(cfg),
        other => unreachable!("workload {other} was validated by the parser"),
    }
}

/// Independent stream for purpose `tag` of the run seeded `seed`, so
/// keys, values and encryption randomness never share draws.
pub fn rng_for(seed: u64, tag: u64) -> rand::rngs::StdRng {
    he_lite::sampling::seeded_rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ tag)
}

/// Heavy-tailed length in `1..=max` (as the he-serve load generator
/// draws them): `max` halved `k` times with probability `2^-(k+1)`.
pub fn heavy_tail_len<R: Rng>(rng: &mut R, max: usize) -> usize {
    let shift = (rng.next_u64().trailing_zeros() as usize).min(max.ilog2() as usize);
    (max >> shift).max(1)
}

/// `len` values drawn uniformly from `(-bound, bound)`.
pub fn values<R: Rng + RngExt>(rng: &mut R, len: usize, bound: f64) -> Vec<f64> {
    (0..len).map(|_| rng.random_range(-bound..bound)).collect()
}

/// Whether `got` matches `want` (zero beyond `want`'s end) within `tol`
/// at every position.
pub fn close(got: &[f64], want: &[f64], tol: f64) -> bool {
    got.len() >= want.len()
        && got
            .iter()
            .enumerate()
            .all(|(i, g)| (g - want.get(i).copied().unwrap_or(0.0)).abs() <= tol)
}

/// Set the program up [`crate::SETUPS`] times, timing each, and keep the
/// last. Earlier set-ups are dropped before the next begins.
pub fn setups<T>(o: &mut Outcome, mut build: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..crate::SETUPS {
        drop(last.take());
        let t0 = Instant::now();
        let v = build();
        o.setup_s.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    last.expect("at least one set-up")
}

/// Whether another request should start: the window is open, or a
/// traced run still lacks one traced and one untraced request.
pub fn more(start: Instant, window: Duration, done: u64, trace: bool) -> bool {
    start.elapsed() < window || done < if trace { 2 } else { 1 }
}

/// Whether request `k` of a client is traced: in a traced run traced and
/// untraced requests alternate, so the two latencies compare like for
/// like and their ratio is the tracing overhead.
pub fn traced(cfg: &Config, k: u64) -> bool {
    cfg.trace && k % 2 == 1
}

/// Record a correct request's wall time in the traced or untraced set.
pub fn record_latency(o: &mut Outcome, traced: bool, ms: f64) {
    if traced {
        o.traced_ms.push(ms);
    } else {
        o.latencies_ms.push(ms);
    }
}

/// Set per-layer values from span self times: for each `(metric, span)`
/// pair, the median over requests of the request's self time in `span`.
pub fn layers_from_spans(o: &mut Outcome, sum: &Summary, pairs: &[(&'static str, &str)]) {
    for &(metric, span) in pairs {
        if let Some(v) = median(&sum.self_ms(span)) {
            o.layers.insert(metric, v);
        }
    }
}

/// Per-layer device values from one request's counters (identical for
/// every request of a workload) and the host wall time it took.
pub fn layers_from_device(o: &mut Outcome, c: &Counters, host_ms: f64) {
    let l = &mut o.layers;
    l.insert("gpu-sim.modeled_ms", c.makespan_s * 1e3);
    l.insert("gpu-sim.serialized_ms", c.serialized_s * 1e3);
    l.insert("gpu-sim.fwd_ntt_ms", c.fwd_ntt_s * 1e3);
    l.insert("gpu-sim.inv_ntt_ms", c.inv_ntt_s * 1e3);
    l.insert("gpu-sim.keyswitch_ms", c.keyswitch_s * 1e3);
    l.insert("gpu-sim.pointwise_ms", c.pointwise_s * 1e3);
    l.insert(
        "gpu-sim.overlap",
        if c.makespan_s > 0.0 {
            c.serialized_s / c.makespan_s
        } else {
            1.0
        },
    );
    l.insert("gpu-sim.dram_mb", c.dram_bytes as f64 / 1e6);
    l.insert("gpu-sim.launches", c.launches as f64);
    l.insert("gpu-sim.host_transfers", c.host_transfers as f64);
    l.insert(
        "gpu-sim.host_us_per_launch",
        host_ms * 1e3 / c.launches.max(1) as f64,
    );
    l.insert("ntt-gpu.link_mb", c.link_words as f64 * 8.0 / 1e6);
    l.insert("ntt-gpu.link_transfers", c.link_transfers as f64);
    l.insert("ntt-gpu.shard_skew", c.shard_skew);
}

/// Check that every request's device counters repeat (the model is
/// deterministic and every request runs the same op sequence) and return
/// the first request's. Counts must match exactly; modeled times are
/// differences of absolute device clocks, so they may differ in the last
/// bits. A difference is recorded in the notes.
pub fn same_counters(o: &mut Outcome, all: &[Counters]) -> Option<Counters> {
    let first = *all.first()?;
    if all.iter().any(|c| !c.repeats(&first)) {
        o.notes.push(format!(
            "device-counters-differ across {} requests: {all:?}",
            all.len()
        ));
    }
    Some(first)
}

/// Finish a traced run: tracing overhead, the time requests spend
/// outside every layer call, and the span file in the benchmark's `out`
/// directory.
pub fn finish_trace(cfg: &Config, o: &mut Outcome, spans: &[Span]) -> Summary {
    let sum = Summary::new(spans);
    if let (Some(t), Some(u)) = (median(&o.traced_ms), median(&o.latencies_ms)) {
        o.layers.insert("trace.overhead", t / u);
    }
    // A request's own span time outside every layer call: the
    // benchmark's glue (input generation excluded, output checks
    // included where they run inside the request).
    if let Some(v) = median(&sum.self_ms("request")) {
        o.layers.insert("trace.unattributed_ms", v);
    }
    let out = crate::env::out_dir();
    let path = out.join(format!("trace-{}-{}.json", cfg.workload, cfg.seed));
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&path, trace::chrome_json(spans)));
    o.notes.push(match written {
        Ok(()) => format!("trace {} spans -> {}", spans.len(), path.display()),
        Err(e) => format!("trace-warning cannot write {}: {e}", path.display()),
    });
    sum
}

/// Environment record for a workload on `backend` with `rows`-row
/// batches and the given per-prime strategies.
pub fn run_env(backend: &str, rows: usize, strategies: Vec<&'static str>) -> RunEnv {
    RunEnv {
        backend: backend.to_string(),
        threads: ntt_core::ThreadPolicy::from_env().resolve(rows),
        strategies,
    }
}

/// The pointwise strategy names of a plan, in prime order.
pub fn strategy_names(plan: &ntt_core::backend::RingPlan) -> Vec<&'static str> {
    plan.strategies().iter().map(|s| s.name()).collect()
}
