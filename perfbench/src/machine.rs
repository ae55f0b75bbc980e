//! The machine record stamped on every run, so numbers from another box
//! are not read as regressions: core count, CPU model, compiler, source
//! commit, and the time of a fixed calibration kernel.

use std::hint::black_box;
use std::time::Instant;

/// Iterations of the calibration kernel (about 0.1 s on a 2020s core).
const CALIBRATION_ITERS: u64 = 50_000_000;

/// The record as one JSON object.
pub fn record() -> String {
    let nproc = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {:?}, \"rustc\": {:?}, \"commit\": {:?}, \
         \"calibration_s\": {}}}",
        cpu_model(),
        env!("PERFBENCH_RUSTC_VERSION"),
        commit(),
        calibration_seconds()
    )
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|text| {
            text.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// The checked-out commit, read from `.git` without running git (a
/// checkout without `.git` reports `unknown`).
fn commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(head) => head.trim().to_string(),
        Err(_) => return "unknown".to_string(),
    };
    match head.strip_prefix("ref: ") {
        None => head,
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .map(|s| s.trim().to_string())
            .or_else(|_| {
                std::fs::read_to_string(".git/packed-refs").map(|packed| {
                    packed
                        .lines()
                        .find(|l| l.ends_with(reference))
                        .and_then(|l| l.split_whitespace().next())
                        .unwrap_or("unknown")
                        .to_string()
                })
            })
            .unwrap_or_else(|_| "unknown".to_string()),
    }
}

/// Seconds for a fixed dependent integer chain (xorshift): single-core
/// speed, independent of memory and of the code under test.
fn calibration_seconds() -> f64 {
    let start = Instant::now();
    let mut x = black_box(0x9e37_79b9_7f4a_7c15u64);
    for _ in 0..black_box(CALIBRATION_ITERS) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    black_box(x);
    start.elapsed().as_secs_f64()
}
