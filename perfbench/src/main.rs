//! `perfbench`: the end-to-end and per-layer benchmark of the ntt-warp
//! workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-cpu|keyswitch-cpu|boot-sharded|polymul-sim> \
//!     --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! One process runs one workload with one seed: it sets the program up
//! several times (the median is `setup_s`), then issues requests for
//! `--seconds` of wall time, checking every output. With `--trace 0` it
//! reports the end-to-end metrics; with `--trace 1` it records a span
//! around each call into a layer and reports the per-layer metrics
//! instead. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. An output mismatch
//! exits with code 1; a usage or environment error exits with code 2
//! before any result is printed.

mod device;
mod env;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::time::Duration;

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// End-to-end metrics (`--trace 0`), with units.
const END_TO_END: [(&str, &str); 4] = [
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. `sim_ms` is modeled
/// device time of the simulated Titan V (unvalidated against hardware);
/// byte counts are computed by the model. A layer a workload does not
/// exercise reports 0.
const PER_LAYER: [(&str, &str); 34] = [
    ("he-serve.encrypt_ms", "ms"),
    ("he-serve.eval_ms", "ms"),
    ("he-serve.decrypt_ms", "ms"),
    ("he-serve.server_ms", "ms"),
    ("he-serve.batch_factor", "jobs/batch"),
    ("he-serve.retries", "count"),
    ("he-lite.encode_ms", "ms"),
    ("he-lite.encrypt_ms", "ms"),
    ("he-lite.multiply_ms", "ms"),
    ("he-lite.rotate_ms", "ms"),
    ("he-lite.decrypt_ms", "ms"),
    ("he-lite.decode_ms", "ms"),
    ("he-lite.decode_share", "fraction"),
    ("he-boot.bootstrap_ms", "ms"),
    ("ntt-core.forward_ms", "ms"),
    ("ntt-core.inverse_ms", "ms"),
    ("ntt-core.pointwise_ms", "ms"),
    ("ntt-core.multiply_ms", "ms"),
    ("gpu-sim.modeled_ms", "sim_ms"),
    ("gpu-sim.serialized_ms", "sim_ms"),
    ("gpu-sim.fwd_ntt_ms", "sim_ms"),
    ("gpu-sim.inv_ntt_ms", "sim_ms"),
    ("gpu-sim.keyswitch_ms", "sim_ms"),
    ("gpu-sim.pointwise_ms", "sim_ms"),
    ("gpu-sim.overlap", "ratio"),
    ("gpu-sim.dram_mb", "MB"),
    ("gpu-sim.launches", "count"),
    ("gpu-sim.host_transfers", "count"),
    ("gpu-sim.host_us_per_launch", "us"),
    ("ntt-gpu.link_mb", "MB"),
    ("ntt-gpu.link_transfers", "count"),
    ("ntt-gpu.shard_skew", "ratio"),
    ("trace.overhead", "ratio"),
    ("trace.unattributed_ms", "ms"),
];

/// Command-line settings of one run.
#[derive(Debug, Clone)]
pub struct Config {
    /// Workload name.
    pub workload: String,
    /// Drives every generated input: values, lengths, encryption
    /// randomness and key seeds.
    pub seed: u64,
    /// Wall time over which requests are issued.
    pub seconds: Duration,
    /// Record spans and report per-layer metrics.
    pub trace: bool,
}

/// Setups per run; `setup_s` is their median.
pub const SETUPS: usize = 3;

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Requests started.
    pub attempted: u64,
    /// Requests failed, refused, unanswered or answered wrongly.
    pub failed: u64,
    /// Requests answered with a wrong output (a subset of `failed`).
    pub wrong: u64,
    /// Wall time of each untraced request that completed correctly, ms.
    pub latencies_ms: Vec<f64>,
    /// Wall time of each traced request that completed correctly, ms.
    pub traced_ms: Vec<f64>,
    /// Wall time over which requests were issued.
    pub window_s: f64,
    /// Duration of each set-up.
    pub setup_s: Vec<f64>,
    /// Per-layer values by metric name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// The resolved run environment.
    pub env: Option<env::RunEnv>,
    /// Extra human-readable lines.
    pub notes: Vec<String>,
}

fn usage() -> String {
    format!(
        "usage: perfbench --workload <{}> [--seed <n>] [--seconds <n>] [--trace <0|1>]",
        workloads::NAMES.join("|")
    )
}

fn parse_args() -> Result<Config, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10u64, false);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&seconds) {
                    return Err("--seconds must be in 1..=60".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Config {
        workload,
        seed,
        seconds: Duration::from_secs(seconds),
        trace,
    })
}

fn fail(msg: &str) -> ! {
    eprintln!("perfbench: {msg}");
    eprintln!("{}", usage());
    std::process::exit(2);
}

/// Format one metric as a JSON member.
fn metric_json(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
}

fn main() {
    let knobs = env::set_knobs();
    if !knobs.is_empty() {
        fail(&format!(
            "refusing to run with tuning knobs set: {}",
            knobs.join(", ")
        ));
    }
    let cfg = parse_args().unwrap_or_else(|e| fail(&e));
    let out = env::out_dir();
    env::pin_calibration(&out);

    let o = workloads::run(&cfg);

    let mut lines = vec![format!(
        "perfbench workload={} seed={} seconds={} trace={}",
        cfg.workload,
        cfg.seed,
        cfg.seconds.as_secs(),
        u8::from(cfg.trace)
    )];
    if let Some(e) = &o.env {
        lines.extend(e.record(&out, &cfg.workload, cfg.seed, cfg.trace));
    }
    lines.extend(o.notes.iter().cloned());

    let completed = o.attempted - o.failed;
    let mut values: Vec<(&str, f64, &str)> = Vec::new();
    if cfg.trace {
        for (name, unit) in PER_LAYER {
            values.push((name, o.layers.get(name).copied().unwrap_or(0.0), unit));
        }
    } else {
        let p50 = stats::median(&o.latencies_ms).unwrap_or(f64::NAN);
        let e2e = [
            p50,
            completed as f64 / o.window_s,
            stats::median(&o.setup_s).unwrap_or(f64::NAN),
            stats::peak_rss_mb().unwrap_or(f64::NAN),
        ];
        for ((name, unit), v) in END_TO_END.into_iter().zip(e2e) {
            values.push((name, v, unit));
        }
        let n = o.latencies_ms.len();
        let q = |p| stats::quantile(&o.latencies_ms, p).unwrap_or(f64::NAN);
        lines.push(format!(
            "latency samples n={n} min={} q1={} q3={} max={} ms",
            q(0.0),
            q(0.25),
            q(0.75),
            q(1.0)
        ));
        if n >= 100 {
            lines.push(format!("latency_p90_ms {} ms (n={n})", q(0.9)));
        } else {
            lines.push(format!(
                "latency_p90_ms not reported: {n} requests, fewer than 100"
            ));
        }
    }
    for (name, v, unit) in &values {
        lines.push(format!("{name} {v} {unit}"));
    }
    lines.push(format!(
        "failed_frac {} ({} of {} requests; {} wrong outputs)",
        o.failed as f64 / o.attempted.max(1) as f64,
        o.failed,
        o.attempted,
        o.wrong
    ));
    lines.push(format!("setup_s samples {:?}", o.setup_s));
    for l in &lines {
        println!("{l}");
    }

    let finite = values.iter().all(|(_, v, _)| v.is_finite());
    let correct = o.wrong == 0 && o.attempted > 0 && finite;
    if !finite {
        eprintln!("perfbench: a metric could not be measured");
    }
    let json = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        o.attempted,
        o.failed,
        values
            .iter()
            .filter(|(_, v, _)| v.is_finite())
            .map(|(n, v, u)| metric_json(n, *v, u))
            .collect::<Vec<_>>()
            .join(",")
    );
    println!("{json}");
    if !correct {
        std::process::exit(1);
    }
}
