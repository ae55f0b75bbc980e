//! Recorded-trace load generation for the `gtl serve` path.
//!
//! The ROADMAP's "heavy traffic" claims need to be measured, not
//! asserted. This crate provides the two halves of that measurement
//! (ROADMAP item 3; surfaced as `gtl loadgen`):
//!
//! * [`record`] — a proxy/tee that sits between JSON-lines clients and a
//!   live server, forwarding bytes both ways while capturing every
//!   request line into a deterministic [`trace`] file (connection id,
//!   per-connection sequence number, arrival offset, raw line);
//! * [`replay`] — drives a recorded trace (or a raw request-line file)
//!   back against a live server, open-loop (at recorded offsets or a
//!   target rate) or closed-loop (bounded in-flight window), with
//!   per-request-kind latency percentiles via
//!   [`gtl_core::obs::LatencyHistogram`], a machine-readable summary for
//!   the `gtl-bench trend` gate, and an `--expect` mode that byte-diffs
//!   responses against a golden and fails with a deterministic exit code
//!   on drift — CI's serve goldens are replayed through it.
//!
//! Replays are deterministic: requests go out in trace order per
//! connection, connections are established serially in id order (so the
//! server's accept order — and therefore its v5 trace-ID stamps — is a
//! pure function of the trace), and responses are logged in connection,
//! then sequence order. Two replays of the same trace against the same
//! server shape produce byte-identical response logs; the determinism
//! matrix in CI holds that across server thread/chunk shapes.
//!
//! Connection fan-out goes through [`gtl_core::exec::parallel_map_with`] (the
//! workspace's only sanctioned fan-out primitive — `gtl-lint` enforces
//! this); the record proxy is single-threaded by design.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod record;
pub mod replay;
pub mod trace;

/// Request kinds tracked in per-kind latency summaries, in the order of
/// the serve protocol's request envelope variants; `other` catches
/// malformed or future envelopes.
pub const KINDS: [&str; 9] = [
    "find",
    "place",
    "stats",
    "metrics",
    "metrics_text",
    "load_netlist",
    "unload_netlist",
    "list_sessions",
    "other",
];

/// Index into [`KINDS`] for one raw request line, by its envelope tag
/// (the first JSON object key, e.g. `{"Find":…}` → `find`).
pub fn kind_of(line: &str) -> usize {
    let rest = match line.trim_start().strip_prefix("{\"") {
        Some(r) => r,
        None => return KINDS.len() - 1,
    };
    let tag = rest.split('"').next().unwrap_or("");
    match tag {
        "Find" => 0,
        "Place" => 1,
        "Stats" => 2,
        "Metrics" => 3,
        "MetricsText" => 4,
        "LoadNetlist" => 5,
        "UnloadNetlist" => 6,
        "ListSessions" => 7,
        _ => KINDS.len() - 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_of_maps_envelope_tags() {
        assert_eq!(KINDS[kind_of(r#"{"Find":{"v":5}}"#)], "find");
        assert_eq!(KINDS[kind_of(r#"  {"MetricsText":{"v":5}}"#)], "metrics_text");
        assert_eq!(KINDS[kind_of(r#"{"LoadNetlist":{"v":4}}"#)], "load_netlist");
        assert_eq!(KINDS[kind_of(r#"{"ListSessions":{"v":4}}"#)], "list_sessions");
        assert_eq!(KINDS[kind_of("not json")], "other");
        assert_eq!(KINDS[kind_of(r#"{"Future":{}}"#)], "other");
        assert_eq!(KINDS[kind_of("")], "other");
    }
}
