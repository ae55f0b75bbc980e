//! The zone map: which invariants apply where.
//!
//! The workspace splits into **compute** crates (everything that must be
//! a deterministic pure function of input + config: `core`, `tangled`,
//! `place`, `netlist`, `synth`), **I/O** crates (`runtime`, `api`,
//! `cli`, `bench`, `lint`, `loadgen`, the root umbrella — allowed to
//! touch clocks and sockets, with the serve-path subset additionally
//! forbidden from panicking), **test** code (unit-test modules, `tests/`, `benches/`,
//! `examples/` — exempt from the determinism rules: tests may time,
//! thread and unwrap freely), and **vendored shims** (`vendor/` —
//! stand-ins for external crates, held only to the unsafe-code rule).

use std::path::Path;

/// The rule zone a file belongs to (see module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Zone {
    /// Deterministic compute crates: no clocks, no raw threads, no
    /// unordered iteration, RNG only via `derive_stream`.
    Compute,
    /// I/O-side crates: clocks and threads per their own exemption
    /// lists; the serve path additionally must not panic.
    Io,
    /// Test-only code: integration tests, benches, examples.
    Test,
    /// Offline vendored dependency shims.
    Vendor,
}

/// Compute crates, by `crates/<name>` directory name.
const COMPUTE_CRATES: &[&str] = &["core", "tangled", "place", "netlist", "synth"];

/// Classifies a workspace-relative path (`/`-separated) into its zone.
///
/// Test containers (`tests/`, `benches/`, `examples/`) win over crate
/// zones: `crates/place/tests/determinism.rs` is test code even though
/// `gtl-place` is a compute crate. `#[cfg(test)]` modules *inside*
/// compute sources are handled separately, per token, by
/// [`test_token_map`](crate::lexer::test_token_map).
pub fn classify(rel_path: &Path) -> Zone {
    let parts: Vec<&str> = rel_path.iter().filter_map(|c| c.to_str()).collect();
    if parts.first() == Some(&"vendor") {
        return Zone::Vendor;
    }
    if parts.iter().any(|p| matches!(*p, "tests" | "benches" | "examples")) {
        return Zone::Test;
    }
    if parts.first() == Some(&"crates") {
        if let Some(name) = parts.get(1) {
            if COMPUTE_CRATES.contains(name) {
                return Zone::Compute;
            }
        }
    }
    Zone::Io
}

/// Whether `rel_path` is on the serve path, where panics are forbidden
/// (`no-panic-on-serve-path`): the runtime, the API surface and the CLI.
pub fn on_serve_path(rel_path: &Path) -> bool {
    let parts: Vec<&str> = rel_path.iter().filter_map(|c| c.to_str()).collect();
    parts.first() == Some(&"crates")
        && matches!(parts.get(1), Some(&"runtime") | Some(&"api") | Some(&"cli"))
        && parts.get(2) == Some(&"src")
}

/// Whether `rel_path` is a crate root (`src/lib.rs`, `src/main.rs`, or
/// a `src/bin/*.rs` binary root), where `#![forbid(unsafe_code)]` is
/// required (`forbid-unsafe-attr`).
pub fn is_crate_root(rel_path: &Path) -> bool {
    let parts: Vec<&str> = rel_path.iter().filter_map(|c| c.to_str()).collect();
    let Some((file, dirs)) = parts.split_last() else {
        return false;
    };
    if !file.ends_with(".rs") {
        return false;
    }
    match dirs.last() {
        Some(&"src") => *file == "lib.rs" || *file == "main.rs",
        Some(&"bin") => dirs.len() >= 2 && dirs[dirs.len() - 2] == "src",
        _ => false,
    }
}

/// Files exempt from `no-raw-thread`: the execution layer itself and
/// the runtime server's I/O-only connection threads.
pub fn raw_thread_exempt(rel_path: &Path) -> bool {
    rel_path == Path::new("crates/core/src/exec.rs")
        || rel_path == Path::new("crates/runtime/src/server.rs")
}

/// Files exempt from `no-wallclock-in-compute`: the cancellation module
/// is the sanctioned carrier of deadlines into compute — tokens are
/// checked at checkpoints, and the "never-firing token is byte
/// invisible" property test keeps timing out of the results.
pub fn wallclock_exempt(rel_path: &Path) -> bool {
    rel_path == Path::new("crates/core/src/cancel.rs")
}

/// The one file allowed to call `temp_dir()` (`temp-dir-via-helper`):
/// the shared per-test directory helper.
pub fn temp_dir_exempt(rel_path: &Path) -> bool {
    rel_path == Path::new("crates/core/src/testdir.rs")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zone_classification() {
        assert_eq!(classify(Path::new("crates/place/src/placer.rs")), Zone::Compute);
        assert_eq!(classify(Path::new("crates/runtime/src/server.rs")), Zone::Io);
        // The load generator measures wall-clock latency by design:
        // it lives in the I/O zone, not the deterministic compute zone.
        assert_eq!(classify(Path::new("crates/loadgen/src/replay.rs")), Zone::Io);
        assert_eq!(classify(Path::new("crates/loadgen/tests/live_replay.rs")), Zone::Test);
        assert_eq!(classify(Path::new("crates/place/tests/determinism.rs")), Zone::Test);
        assert_eq!(classify(Path::new("crates/bench/benches/finder.rs")), Zone::Test);
        assert_eq!(classify(Path::new("examples/quickstart.rs")), Zone::Test);
        assert_eq!(classify(Path::new("vendor/rand/src/lib.rs")), Zone::Vendor);
        assert_eq!(classify(Path::new("src/lib.rs")), Zone::Io);
        assert_eq!(classify(Path::new("tests/api_service.rs")), Zone::Test);
    }

    #[test]
    fn serve_path_membership() {
        assert!(on_serve_path(Path::new("crates/runtime/src/server.rs")));
        assert!(on_serve_path(Path::new("crates/api/src/serve.rs")));
        assert!(on_serve_path(Path::new("crates/cli/src/lib.rs")));
        assert!(!on_serve_path(Path::new("crates/place/src/placer.rs")));
        assert!(!on_serve_path(Path::new("crates/loadgen/src/replay.rs")));
        assert!(!on_serve_path(Path::new("crates/api/tests/runtime_serve.rs")));
    }

    #[test]
    fn crate_roots() {
        assert!(is_crate_root(Path::new("crates/core/src/lib.rs")));
        assert!(is_crate_root(Path::new("crates/cli/src/main.rs")));
        assert!(is_crate_root(Path::new("crates/bench/src/bin/table1.rs")));
        assert!(!is_crate_root(Path::new("crates/core/src/exec.rs")));
        assert!(!is_crate_root(Path::new("crates/bench/benches/finder.rs")));
    }
}
