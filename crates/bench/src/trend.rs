//! The offline bench-trend gate behind `gtl-bench trend`.
//!
//! CI runs the bench smoke steps (which emit `results/*.json` through
//! [`crate::results_dir`]), then compares the fresh numbers against the
//! committed snapshots in `results/baselines/` and fails the build on a
//! cold-path regression beyond [`DEFAULT_MAX_REGRESS`]. The gate is pure
//! file comparison — no benchmark re-runs, no network — so it can run
//! anywhere the JSON artifacts exist.
//!
//! Tracked metrics (higher is better, all cold-path — warm-cache numbers
//! are bounded by memcpy and too noisy to gate on):
//!
//! * `serve_throughput.json` → `cold_req_per_s` (requests per second
//!   with the response cache disabled);
//! * `finder_parallel.json` → `serial_finds_per_s` (the reciprocal of
//!   the single-thread wall time of the full three-phase finder);
//! * `placement_parallel.json` → `serial_places_per_s` (the reciprocal
//!   of the single-thread wall time of a full sharded `place()` run);
//! * `solver_kernels.json` → `<kernel>_solves_per_s` for every kernel
//!   row (currently `anchored` and `shard`), gating the fused CG
//!   kernels directly, below placer-level noise;
//! * `loadgen.json` → `closed_req_per_s` (closed-loop replay throughput
//!   of the full serve path over real TCP, emitted by
//!   `gtl loadgen replay --summary`).
//!
//! Baselines are **machine- and toolchain-relative** absolute numbers:
//! they must be re-snapshotted whenever the reference hardware or the
//! pinned toolchain changes (run every tracked bench, then copy
//! `results/<bench>.json` into `results/baselines/`), and a CI
//! migration to different runner hardware starts by refreshing them in
//! the same PR. The 30% default tolerance absorbs run-to-run noise, not
//! hardware deltas.

use std::path::Path;

use crate::report::Json;

/// Benches the gate tracks; each must have a current result *and* a
/// committed baseline, so a silently-missing artifact fails loudly
/// instead of passing vacuously.
pub const TRACKED_BENCHES: &[&str] =
    &["serve_throughput", "finder_parallel", "placement_parallel", "solver_kernels", "loadgen"];

/// Default tolerated cold-path regression: fail when a tracked metric
/// drops more than 30% below its committed baseline.
pub const DEFAULT_MAX_REGRESS: f64 = 0.30;

/// Directory (under the results dir) holding the committed snapshots.
pub const BASELINES_SUBDIR: &str = "baselines";

/// One tracked metric compared against its baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricCheck {
    /// Which bench file the metric came from.
    pub bench: String,
    /// Metric name (see module docs).
    pub metric: String,
    /// The committed baseline value (higher is better).
    pub baseline: f64,
    /// The freshly measured value.
    pub current: f64,
    /// `current / baseline`; below `1 - max_regress` is a regression.
    pub ratio: f64,
    /// Whether this metric regressed beyond the tolerance.
    pub regressed: bool,
}

fn field<'a>(doc: &'a Json, name: &str, context: &str) -> Result<&'a Json, String> {
    doc.get(name).ok_or_else(|| format!("{context}: missing `{name}`"))
}

fn number(doc: &Json, name: &str, context: &str) -> Result<f64, String> {
    field(doc, name, context)?
        .as_f64()
        .ok_or_else(|| format!("{context}: `{name}` is not a number"))
}

/// Extracts the tracked cold-path metrics from one bench report.
///
/// # Errors
///
/// A description of the first missing/malformed field, or an unknown
/// bench name.
pub fn tracked_metrics(bench: &str, doc: &Json) -> Result<Vec<(String, f64)>, String> {
    let runs = field(doc, "runs", bench)?
        .as_arr()
        .ok_or_else(|| format!("{bench}: `runs` is not an array"))?;
    match bench {
        "serve_throughput" => {
            for run in runs {
                if field(run, "mode", bench)?.as_str() == Some("cold") {
                    let req_per_s = number(run, "req_per_s", bench)?;
                    return Ok(vec![("cold_req_per_s".to_string(), req_per_s)]);
                }
            }
            Err(format!("{bench}: no run with mode \"cold\""))
        }
        "finder_parallel" => {
            for run in runs {
                if field(run, "threads", bench)?.as_u64() == Some(1) {
                    let wall = number(run, "wall_seconds", bench)?;
                    if wall <= 0.0 || wall.is_nan() {
                        return Err(format!("{bench}: non-positive serial wall time {wall}"));
                    }
                    return Ok(vec![("serial_finds_per_s".to_string(), 1.0 / wall)]);
                }
            }
            Err(format!("{bench}: no run with threads 1"))
        }
        "placement_parallel" => {
            for run in runs {
                if field(run, "threads", bench)?.as_u64() == Some(1) {
                    let wall = number(run, "wall_seconds", bench)?;
                    if wall <= 0.0 || wall.is_nan() {
                        return Err(format!("{bench}: non-positive serial wall time {wall}"));
                    }
                    return Ok(vec![("serial_places_per_s".to_string(), 1.0 / wall)]);
                }
            }
            Err(format!("{bench}: no run with threads 1"))
        }
        "solver_kernels" => {
            let mut metrics = Vec::new();
            for run in runs {
                let kernel = field(run, "kernel", bench)?
                    .as_str()
                    .ok_or_else(|| format!("{bench}: `kernel` is not a string"))?;
                let solves_per_s = number(run, "solves_per_s", bench)?;
                metrics.push((format!("{kernel}_solves_per_s"), solves_per_s));
            }
            if metrics.is_empty() {
                return Err(format!("{bench}: no kernel runs"));
            }
            Ok(metrics)
        }
        "loadgen" => {
            for run in runs {
                if field(run, "mode", bench)?.as_str() == Some("closed") {
                    let req_per_s = number(run, "req_per_s", bench)?;
                    return Ok(vec![("closed_req_per_s".to_string(), req_per_s)]);
                }
            }
            Err(format!("{bench}: no run with mode \"closed\""))
        }
        other => Err(format!("unknown tracked bench `{other}`")),
    }
}

/// Compares one bench's current report against its baseline.
///
/// # Errors
///
/// A description of any missing/malformed metric (a metric present in
/// the baseline but absent from the current report is an error, not a
/// pass).
pub fn compare(
    bench: &str,
    baseline: &Json,
    current: &Json,
    max_regress: f64,
) -> Result<Vec<MetricCheck>, String> {
    let base = tracked_metrics(bench, baseline)?;
    let now = tracked_metrics(bench, current)?;
    base.into_iter()
        .map(|(metric, baseline_value)| {
            let current_value = now
                .iter()
                .find(|(name, _)| *name == metric)
                .map(|&(_, v)| v)
                .ok_or_else(|| format!("{bench}: current report lacks metric `{metric}`"))?;
            if baseline_value <= 0.0 || baseline_value.is_nan() {
                return Err(format!("{bench}: non-positive baseline for `{metric}`"));
            }
            let ratio = current_value / baseline_value;
            Ok(MetricCheck {
                bench: bench.to_string(),
                metric,
                baseline: baseline_value,
                current: current_value,
                ratio,
                regressed: ratio < 1.0 - max_regress,
            })
        })
        .collect()
}

/// Runs the whole gate: for every tracked bench, load
/// `<results>/<bench>.json` and `<baselines>/<bench>.json` and compare.
///
/// # Errors
///
/// A description of the first unreadable/unparseable file or malformed
/// report — missing artifacts fail the gate rather than skipping it.
pub fn run_gate(
    results: &Path,
    baselines: &Path,
    max_regress: f64,
) -> Result<Vec<MetricCheck>, String> {
    let load = |path: &Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        serde::json::from_str::<Json>(&text)
            .map_err(|e| format!("cannot parse {}: {e}", path.display()))
    };
    let mut checks = Vec::new();
    for bench in TRACKED_BENCHES {
        let file = format!("{bench}.json");
        let baseline = load(&baselines.join(&file))?;
        let current = load(&results.join(&file))?;
        checks.extend(compare(bench, &baseline, &current, max_regress)?);
    }
    Ok(checks)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn serve_doc(cold_rps: f64) -> Json {
        Json::obj([
            ("bench", Json::str("serve_throughput")),
            (
                "runs",
                Json::arr([
                    Json::obj([
                        ("mode", Json::str("cold")),
                        ("req_per_s", Json::num(cold_rps)),
                        ("wall_seconds", Json::num(1.0)),
                    ]),
                    Json::obj([
                        ("mode", Json::str("warm")),
                        ("req_per_s", Json::num(cold_rps * 50.0)),
                    ]),
                ]),
            ),
        ])
    }

    fn finder_doc(serial_wall: f64) -> Json {
        Json::obj([
            ("bench", Json::str("finder_parallel")),
            (
                "runs",
                Json::arr([
                    Json::obj([
                        ("threads", Json::num(1.0)),
                        ("wall_seconds", Json::num(serial_wall)),
                    ]),
                    Json::obj([("threads", Json::num(8.0)), ("wall_seconds", Json::num(0.2))]),
                ]),
            ),
        ])
    }

    fn placement_doc(serial_wall: f64) -> Json {
        Json::obj([
            ("bench", Json::str("placement_parallel")),
            (
                "runs",
                Json::arr([
                    Json::obj([
                        ("threads", Json::num(1.0)),
                        ("wall_seconds", Json::num(serial_wall)),
                    ]),
                    Json::obj([("threads", Json::num(4.0)), ("wall_seconds", Json::num(0.3))]),
                ]),
            ),
        ])
    }

    fn solver_doc(anchored_sps: f64, shard_sps: f64) -> Json {
        Json::obj([
            ("bench", Json::str("solver_kernels")),
            (
                "runs",
                Json::arr([
                    Json::obj([
                        ("kernel", Json::str("anchored")),
                        ("solves_per_s", Json::num(anchored_sps)),
                    ]),
                    Json::obj([
                        ("kernel", Json::str("shard")),
                        ("solves_per_s", Json::num(shard_sps)),
                    ]),
                ]),
            ),
        ])
    }

    fn loadgen_doc(closed_rps: f64) -> Json {
        Json::obj([
            ("bench", Json::str("loadgen")),
            (
                "runs",
                Json::arr([Json::obj([
                    ("mode", Json::str("closed")),
                    ("inflight", Json::num(4.0)),
                    ("requests", Json::num(40.0)),
                    ("responses", Json::num(40.0)),
                    ("wall_seconds", Json::num(0.5)),
                    ("req_per_s", Json::num(closed_rps)),
                    ("kinds", Json::arr([])),
                ])]),
            ),
        ])
    }

    #[test]
    fn within_tolerance_passes() {
        let checks = compare("serve_throughput", &serve_doc(100.0), &serve_doc(80.0), 0.30)
            .expect("compare");
        assert_eq!(checks.len(), 1);
        assert!(!checks[0].regressed, "{checks:?}");
        assert!((checks[0].ratio - 0.8).abs() < 1e-12);
    }

    #[test]
    fn beyond_tolerance_regresses() {
        let checks = compare("serve_throughput", &serve_doc(100.0), &serve_doc(60.0), 0.30)
            .expect("compare");
        assert!(checks[0].regressed, "{checks:?}");
    }

    #[test]
    fn improvements_always_pass() {
        let checks = compare("serve_throughput", &serve_doc(100.0), &serve_doc(500.0), 0.30)
            .expect("compare");
        assert!(!checks[0].regressed);
        assert!(checks[0].ratio > 4.9);
    }

    #[test]
    fn finder_metric_is_reciprocal_wall_time() {
        // Serial wall grew 2× → throughput halved → a 30% gate trips.
        let checks =
            compare("finder_parallel", &finder_doc(1.0), &finder_doc(2.0), 0.30).expect("compare");
        assert_eq!(checks[0].metric, "serial_finds_per_s");
        assert!(checks[0].regressed, "{checks:?}");
        // 25% slower wall → 0.8× throughput → passes a 30% gate.
        let checks =
            compare("finder_parallel", &finder_doc(1.0), &finder_doc(1.25), 0.30).expect("compare");
        assert!(!checks[0].regressed, "{checks:?}");
    }

    #[test]
    fn placement_metric_is_reciprocal_wall_time() {
        let checks = compare("placement_parallel", &placement_doc(1.0), &placement_doc(2.0), 0.30)
            .expect("compare");
        assert_eq!(checks[0].metric, "serial_places_per_s");
        assert!(checks[0].regressed, "{checks:?}");
        let checks = compare("placement_parallel", &placement_doc(1.0), &placement_doc(1.2), 0.30)
            .expect("compare");
        assert!(!checks[0].regressed, "{checks:?}");
    }

    #[test]
    fn solver_kernels_track_one_metric_per_kernel() {
        let checks =
            compare("solver_kernels", &solver_doc(100.0, 40.0), &solver_doc(90.0, 20.0), 0.30)
                .expect("compare");
        assert_eq!(checks.len(), 2);
        assert_eq!(checks[0].metric, "anchored_solves_per_s");
        assert!(!checks[0].regressed, "{checks:?}");
        assert_eq!(checks[1].metric, "shard_solves_per_s");
        assert!(checks[1].regressed, "{checks:?}");
        // A kernel present in the baseline but missing from the current
        // report is an error, not a silent pass.
        let anchored_only = Json::obj([(
            "runs",
            Json::arr([Json::obj([
                ("kernel", Json::str("anchored")),
                ("solves_per_s", Json::num(90.0)),
            ])]),
        )]);
        assert!(compare("solver_kernels", &solver_doc(100.0, 40.0), &anchored_only, 0.3).is_err());
        let empty_runs = Json::obj([("runs", Json::arr([]))]);
        assert!(tracked_metrics("solver_kernels", &empty_runs).is_err());
    }

    #[test]
    fn loadgen_metric_is_closed_loop_throughput() {
        let checks =
            compare("loadgen", &loadgen_doc(100.0), &loadgen_doc(60.0), 0.30).expect("compare");
        assert_eq!(checks.len(), 1);
        assert_eq!(checks[0].metric, "closed_req_per_s");
        assert!(checks[0].regressed, "{checks:?}");
        let checks =
            compare("loadgen", &loadgen_doc(100.0), &loadgen_doc(80.0), 0.30).expect("compare");
        assert!(!checks[0].regressed, "{checks:?}");
        // An open-loop-only report cannot satisfy the gate: the tracked
        // number is sustainable closed-loop throughput.
        let open_only = Json::obj([(
            "runs",
            Json::arr([Json::obj([("mode", Json::str("open")), ("req_per_s", Json::num(9.0))])]),
        )]);
        assert!(tracked_metrics("loadgen", &open_only).is_err());
    }

    #[test]
    fn malformed_reports_error_instead_of_passing() {
        let empty = Json::obj([("bench", Json::str("serve_throughput"))]);
        assert!(compare("serve_throughput", &empty, &serve_doc(1.0), 0.3).is_err());
        assert!(compare("serve_throughput", &serve_doc(1.0), &empty, 0.3).is_err());
        let no_cold = Json::obj([("runs", Json::arr([]))]);
        assert!(compare("serve_throughput", &serve_doc(1.0), &no_cold, 0.3).is_err());
        assert!(tracked_metrics("unknown_bench", &serve_doc(1.0)).is_err());
        assert!(tracked_metrics("finder_parallel", &finder_doc(0.0)).is_err());
    }

    #[test]
    fn run_gate_fails_on_missing_files() {
        let dir =
            gtl_core::testdir::test_dir("gtl_trend_missing", "run_gate_fails_on_missing_files");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let err = run_gate(&dir, &dir, 0.3).unwrap_err();
        assert!(err.contains("cannot read"), "{err}");
    }

    #[test]
    fn run_gate_reads_real_files() {
        let dir = gtl_core::testdir::test_dir("gtl_trend_ok", "run_gate_reads_real_files");
        let results = dir.join("results");
        let baselines = dir.join("baselines");
        std::fs::create_dir_all(&results).unwrap();
        std::fs::create_dir_all(&baselines).unwrap();
        for (target, scale) in [(&baselines, 1.0), (&results, 1.1)] {
            crate::report::write_json(target.join("serve_throughput.json"), &serve_doc(100.0))
                .unwrap();
            crate::report::write_json(target.join("finder_parallel.json"), &finder_doc(scale))
                .unwrap();
            crate::report::write_json(
                target.join("placement_parallel.json"),
                &placement_doc(scale),
            )
            .unwrap();
            crate::report::write_json(target.join("solver_kernels.json"), &solver_doc(100.0, 40.0))
                .unwrap();
            crate::report::write_json(target.join("loadgen.json"), &loadgen_doc(100.0)).unwrap();
        }
        let checks = run_gate(&results, &baselines, 0.3).expect("gate");
        assert_eq!(checks.len(), 6);
        assert!(checks.iter().all(|c| !c.regressed), "{checks:?}");
        // Deleting any one tracked artifact fails the whole gate.
        std::fs::remove_file(baselines.join("solver_kernels.json")).unwrap();
        let err = run_gate(&results, &baselines, 0.3).unwrap_err();
        assert!(err.contains("solver_kernels"), "{err}");
    }
}
