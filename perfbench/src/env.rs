//! Run environment: refuse tuning knobs, pin calibration to a
//! benchmark-owned file, and record what each run resolved.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Environment knobs that change what the program does or how fast it
/// does it. A run with any of them set would not be comparable.
pub const KNOBS: [&str; 8] = [
    "NTT_WARP_FAULTS",
    "NTT_WARP_SIM_FORWARD",
    "NTT_WARP_SPLIT",
    "NTT_WARP_POINTWISE",
    "NTT_WARP_THREADS",
    "NTT_WARP_RETRY_MAX",
    "NTT_WARP_BACKOFF_US",
    "NTT_WARP_DEADLINE_MS",
];

/// The knobs that are set, if any.
pub fn set_knobs() -> Vec<&'static str> {
    KNOBS
        .into_iter()
        .filter(|k| std::env::var_os(k).is_some())
        .collect()
}

/// The benchmark's own state directory (calibration file, run records,
/// traces), inside the benchmark package.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Point calibration persistence at a file in `out`, so runs share
/// calibration verdicts with each other and with nothing else. Must run
/// before any other thread starts.
pub fn pin_calibration(out: &Path) {
    std::env::set_var("NTT_WARP_CALIB_FILE", out.join("calibration.txt"));
}

/// What one run resolved: the settings its numbers depend on.
#[derive(Debug, Clone)]
pub struct RunEnv {
    /// Execution backend label.
    pub backend: String,
    /// CPU threads a workload-shaped NTT batch resolves to.
    pub threads: usize,
    /// Pointwise reduction strategy of each prime, in chain order.
    pub strategies: Vec<&'static str>,
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The compiler the benchmark was built with.
pub const RUSTC: &str = env!("PERFBENCH_RUSTC");

fn hostname() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".into())
}

impl RunEnv {
    /// The part of the record that must not change from run to run.
    fn verdicts(&self) -> String {
        format!(
            "backend={} threads={} strategies={}",
            self.backend,
            self.threads,
            self.strategies.join(",")
        )
    }

    /// Append this run's record to `out/runs.jsonl` and compare its
    /// verdicts with the first run of the same workload. Returns the
    /// human-readable lines to print; a drift is flagged there and in the
    /// record. I/O failures are reported in the lines, never fatal.
    pub fn record(&self, out: &Path, workload: &str, seed: u64, trace: bool) -> Vec<String> {
        let mut lines = vec![format!(
            "env {} nproc={} rustc=\"{}\"",
            self.verdicts(),
            nproc(),
            RUSTC
        )];
        if let Err(e) = std::fs::create_dir_all(out) {
            lines.push(format!("env-warning cannot create {}: {e}", out.display()));
            return lines;
        }
        let first_path = out.join(format!("verdicts-{workload}.txt"));
        let now = self.verdicts();
        let drift = match std::fs::read_to_string(&first_path) {
            Ok(first) if first.trim() != now => {
                lines.push(format!(
                    "VERDICT-DRIFT this run differs from the first run of {workload}: \
                     first [{}] now [{now}]",
                    first.trim()
                ));
                true
            }
            Ok(_) => false,
            Err(_) => {
                if let Err(e) = std::fs::write(&first_path, format!("{now}\n")) {
                    lines.push(format!("env-warning cannot write verdicts: {e}"));
                }
                false
            }
        };
        let mut rec = String::new();
        let _ = writeln!(
            rec,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{trace},\
             \"backend\":\"{}\",\"threads\":{},\"strategies\":[{}],\"nproc\":{},\
             \"host\":\"{}\",\"rustc\":\"{}\",\"verdict_drift\":{drift}}}",
            self.backend,
            self.threads,
            self.strategies
                .iter()
                .map(|s| format!("\"{s}\""))
                .collect::<Vec<_>>()
                .join(","),
            nproc(),
            hostname(),
            RUSTC,
        );
        let appended = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(out.join("runs.jsonl"))
            .and_then(|mut f| f.write_all(rec.as_bytes()));
        if let Err(e) = appended {
            lines.push(format!("env-warning cannot append run record: {e}"));
        }
        lines
    }
}
