//! `gtl-runtime` — the bounded service runtime between the API surface
//! and the execution layer.
//!
//! `gtl-api` defines *what* the wire contracts mean; `gtl_core::exec`
//! defines *how* compute fans out deterministically. This crate is the
//! layer in between: it decides **when** request compute runs and how
//! much of it is admitted at once, without ever changing what any
//! request produces. It provides:
//!
//! * [`serve_lines`]: a pipelined line-protocol TCP server — a fixed
//!   pool of compute lanes fed by a bounded FIFO queue (backpressure
//!   instead of unbounded buffering), per-connection pipelining with a
//!   reorder buffer that preserves request order on the wire,
//!   read/idle timeouts, and a max-concurrent-connections gate;
//! * [`ResponseCache`]: a deterministic LRU response cache under a byte
//!   budget, keyed by the canonical request-line bytes (optionally
//!   extended by the handler via [`LineHandler::cache_key`], e.g. with a
//!   session generation), with the hard invariant that a hit returns
//!   exactly the bytes a fresh compute would (transparency —
//!   property-tested);
//! * [`Registry`]: a byte-budgeted store of named shared values with
//!   deterministic LRU eviction and monotonic generation stamps — the
//!   substrate for multi-netlist session serving in `gtl-api`;
//! * fair-share admission: [`LineHandler::tenant`] classifies request
//!   lines into per-tenant lanes drained in deterministic round-robin
//!   order under a per-tenant quota ([`RuntimeConfig::tenant_quota`]),
//!   so one flooding tenant backpressures itself, never its neighbors;
//! * [`MetricsSnapshot`]: observation-only counters for all of the
//!   above, served through the handler's [`RequestContext`].
//!
//! The runtime is generic over a [`LineHandler`], so it knows nothing of
//! JSON or the GTL domain; `gtl_api::serve` instantiates it with the
//! session dispatcher.
//!
//! # Determinism
//!
//! The runtime schedules; it never computes. For a deterministic handler
//! (every response a pure function of its request line), responses are
//! byte-identical for any lane count, queue depth, pipeline depth,
//! cache size — including 0 = disabled — and client interleaving. Only
//! *latency* and the metrics counters depend on the configuration.
//!
//! # Example
//!
//! ```
//! use gtl_runtime::{serve_lines, Cacheability, RuntimeConfig};
//! use std::io::{BufRead as _, BufReader, Write as _};
//!
//! let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
//! let addr = listener.local_addr().unwrap();
//! let config = RuntimeConfig {
//!     lanes: 2,
//!     pipeline_depth: 4,
//!     cache_bytes: 1 << 16,
//!     max_connections: Some(1),
//!     ..RuntimeConfig::default()
//! };
//! let handler = |_ctx: &gtl_runtime::RequestContext<'_>, line: &str, out: &mut String| {
//!     out.push_str("you said: ");
//!     out.push_str(line);
//!     Cacheability::Cacheable
//! };
//! std::thread::scope(|scope| {
//!     let server = scope.spawn(|| serve_lines(&listener, &config, &handler, None).unwrap());
//!     let mut conn = std::net::TcpStream::connect(addr).unwrap();
//!     writeln!(conn, "hello\nhello").unwrap(); // pipelined: write both first
//!     conn.shutdown(std::net::Shutdown::Write).unwrap();
//!     let lines: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
//!     assert_eq!(lines, ["you said: hello", "you said: hello"]);
//!     let report = server.join().unwrap();
//!     // Both pipelined requests went through the bounded scheduler
//!     // (whether the second hit the cache depends on timing — the
//!     // response bytes never do).
//!     assert_eq!(report.metrics.requests, 2);
//!     assert_eq!(report.metrics.cache_hits + report.metrics.cache_misses, 2);
//! });
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod lru;
mod metrics;
mod registry;
mod server;

pub use cache::{CacheStats, ResponseCache};
pub use metrics::{LatencySummary, MetricsSnapshot, Stage};
pub use registry::{InsertOutcome, Registry, RegistryEntry, RegistryError, RegistryStats};
pub use server::{
    serve_lines, Cacheability, LineHandler, MetricsExporter, RequestContext, RuntimeConfig,
    ServeReport, TraceId, TransportError,
};
