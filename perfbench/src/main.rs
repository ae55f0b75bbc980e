//! `gtl-perfbench`: the layered benchmark of the GTL service.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload find_large --seed 1 --seconds 25 --trace 0
//! ```
//!
//! One run builds its inputs from `--seed`, sets the workload up several
//! times (the median is `setup_s`), drives requests for `--seconds`, then
//! checks every response it timed. With `--trace 0` it reports the
//! end-to-end metrics; with `--trace 1` it instead rebuilds each request
//! from the public calls of every layer, records spans around them, and
//! reports the per-layer metrics. The last line of standard output is the
//! result object; the lines before it are the machine record and, in a
//! traced run, the self time per layer. `perfbench/METRICS.md` lists
//! every metric, its unit and direction, and the end-to-end metric each
//! layer metric should move.

#![forbid(unsafe_code)]

mod designs;
mod find;
mod machine;
mod place;
mod report;
mod serve;
mod stats;
mod trace;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use report::Report;

/// The workloads, in `BENCHMARK.json` order.
const WORKLOADS: [&str; 3] = ["find_large", "place_large", "serve_mixed"];

/// Where designs and span files go, relative to the checkout root.
const OUT_DIR: &str = ".bench_out";

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: Duration,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<u64>().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(Duration::from_secs(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?} (expected one of {WORKLOADS:?})"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn run(args: &Args, machine: &str) -> Result<Report, String> {
    let dir = PathBuf::from(OUT_DIR);
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    if args.trace {
        return trace::run(&args.workload, args.seed, args.seconds, &dir, machine);
    }
    match args.workload.as_str() {
        "find_large" => find::run_untraced(args.seed, args.seconds, &dir),
        "place_large" => place::run_untraced(args.seed, args.seconds),
        "serve_mixed" => serve::run_untraced(args.seed, args.seconds, &dir),
        other => Err(format!("unknown workload {other}")),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("gtl-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let machine = machine::record();
    println!("machine {machine}");
    match run(&args, &machine) {
        Ok(report) => {
            println!("{}", report.render());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("gtl-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
