//! The `gtl serve` backend: a JSON-lines TCP server over a [`Session`],
//! running on the [`gtl_runtime`] bounded service runtime.
//!
//! Protocol: one [`Request`] envelope per line in, one
//! [`Response`] envelope per line out, **in request
//! order**, on a plain TCP stream (no HTTP). Blank lines are ignored; a
//! connection ends at client EOF, at the read/idle timeout, or after a
//! framing error (oversized / non-UTF-8 line — answered with
//! `bad_request` first). Clients may **pipeline**: write many request
//! lines before reading; the runtime keeps up to the configured pipeline
//! depth in flight per connection and a reorder buffer preserves wire
//! order. Try it with netcat:
//!
//! ```text
//! $ gtl serve design.hgr --port 7878 &
//! $ printf '{"Stats":{"v":1}}\n{"Metrics":{"v":2}}\n' | nc 127.0.0.1 7878
//! {"Stats":{"v":1,"stats":{...}}}
//! {"Metrics":{"v":2,"metrics":{...}}}
//! ```
//!
//! # Concurrency and determinism
//!
//! Connection threads are **I/O only** — they frame lines and move
//! buffers; every request runs as a job on the runtime's fixed pool of
//! compute lanes, fed by a bounded FIFO queue (full queue = backpressure
//! to the client's TCP window, never unbounded buffering). Heavy compute
//! inside a job (the finder, the sharded placer, congestion) still fans
//! out through `gtl_core::exec` and is byte-identical for any worker
//! count. Deterministic responses are additionally served from an LRU
//! **response cache** keyed by the canonical request-line bytes; a hit
//! returns exactly the bytes a fresh compute would (property-tested), so
//! the wire contract is unchanged for any lane count, cache size
//! (including 0 = disabled) and pipeline depth: same request line, same
//! response bytes. The deliberate exceptions are
//! [`MetricsRequest`](crate::MetricsRequest) and
//! [`MetricsTextRequest`](crate::MetricsTextRequest), which report live
//! runtime counters and therefore bypass the cache.
//!
//! # Observability (protocol v5+)
//!
//! Every response to a **v5** request is stamped with a per-request
//! trace ID (`"<conn>-<seq>"` in fixed-width hex) as the last body
//! field, *after* the cache (cached bytes are stored unstamped, so a
//! hit and a fresh compute stamp identically). Responses echoing a
//! frozen version (v1–v4) are byte-identical to their historical form —
//! no field appears. Framing-failure responses (oversized / non-UTF-8
//! lines) never reach the scheduler and carry no trace. The runtime
//! also records per-stage and per-request-kind latency histograms,
//! exported through the `Metrics` pair, the v5 `MetricsText` pair
//! (Prometheus text — see [`crate::prom`]) and, when
//! [`serve_with_metrics`] is given a side listener, a plain-HTTP
//! `GET /metrics` scrape endpoint.

use std::borrow::Cow;
use std::net::TcpListener;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use gtl_core::Span;
use gtl_runtime::{
    Cacheability, LineHandler, MetricsExporter, RequestContext, RuntimeConfig, TraceId,
    TransportError,
};

use crate::{
    ApiError, ErrorBody, Request, Response, RuntimeMetrics, Session, SessionDispatcher,
    TRACE_SINCE_VERSION,
};

/// Largest accepted request line. A line is buffered in memory before
/// parsing; without a cap, one newline-free stream could grow the buffer
/// until the allocator aborts the process (which no thread can catch).
/// Far above any real request — a full `FinderConfig` envelope is < 1 KB.
const MAX_REQUEST_BYTES: u64 = 1 << 20;

/// Default response-cache budget: 64 MiB holds tens of thousands of
/// typical responses while staying far below paper-scale netlist
/// footprints.
const DEFAULT_CACHE_BYTES: usize = 64 << 20;

/// Default per-connection pipeline depth.
const DEFAULT_PIPELINE_DEPTH: usize = 8;

/// Options for [`serve()`], built with builder-style setters.
///
/// ```
/// use gtl_api::ServeOptions;
/// use std::time::Duration;
///
/// let options = ServeOptions::new()
///     .lanes(4)
///     .cache_bytes(1 << 20)
///     .pipeline_depth(16)
///     .timeout(Some(Duration::from_secs(30)))
///     .max_concurrent(Some(64))
///     .max_connections(Some(100));
/// assert_eq!(options.lanes, 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeOptions {
    /// Compute lanes (`0` = all cores). Lanes execute request jobs; the
    /// per-request `threads` knobs still control fan-out *inside* a job.
    pub lanes: usize,
    /// Bounded job-queue capacity (`0` = auto: `4 × lanes`).
    pub queue_depth: usize,
    /// Response-cache byte budget (`0` disables caching).
    pub cache_bytes: usize,
    /// Max pipelined jobs in flight per connection (min 1).
    pub pipeline_depth: usize,
    /// Per-connection idle timeout (`None` = wait forever). A client
    /// waiting on a slow compute is not idle; only a connection with no
    /// request in flight and nothing arriving is closed.
    pub timeout: Option<Duration>,
    /// Max concurrently open connections (`None` = unbounded); excess
    /// clients wait in the listen backlog.
    pub max_concurrent: Option<usize>,
    /// Stop accepting after this many connections (`None` = run forever;
    /// `Some(0)` returns immediately). Scripted callers (CI golden
    /// tests) use this to get a clean exit.
    pub max_connections: Option<usize>,
    /// Server-side default deadline per request (`None` = unbounded).
    /// Anchored at request admission; an expired deadline answers a
    /// `deadline_exceeded` error without consuming compute, and a
    /// deadline firing mid-compute aborts at the next checkpoint.
    /// Request-supplied `deadline_ms` (protocol v3+) narrows this
    /// further per request.
    pub deadline: Option<Duration>,
    /// Max *named* sessions resident in the registry (`0` = unlimited);
    /// loading beyond the cap deterministically evicts the coldest
    /// session. The default session is not counted.
    pub max_netlists: usize,
    /// Registry byte budget over the loaded netlists' estimated
    /// footprints (`0` = unlimited); see
    /// [`netlist_cost`](crate::netlist_cost).
    pub registry_bytes: usize,
    /// The only directory `LoadNetlist` paths may resolve into
    /// (`None` = loading disabled).
    pub netlist_dir: Option<PathBuf>,
    /// Max queued jobs per fair-share tenant (`0` = auto: the full
    /// queue depth, i.e. no per-tenant sub-limit). Tenants are the
    /// sessions requests address; a flooding tenant saturating its
    /// quota backpressures only itself.
    pub tenant_quota: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            lanes: 0,
            queue_depth: 0,
            cache_bytes: DEFAULT_CACHE_BYTES,
            pipeline_depth: DEFAULT_PIPELINE_DEPTH,
            timeout: None,
            max_concurrent: None,
            max_connections: None,
            deadline: None,
            max_netlists: 0,
            registry_bytes: 0,
            netlist_dir: None,
            tenant_quota: 0,
        }
    }
}

impl ServeOptions {
    /// The defaults: all cores, 64 MiB cache, pipeline depth 8, no
    /// timeout, unbounded connections.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the compute-lane count (`0` = all cores).
    pub fn lanes(mut self, lanes: usize) -> Self {
        self.lanes = lanes;
        self
    }

    /// Sets the job-queue capacity (`0` = auto).
    pub fn queue_depth(mut self, queue_depth: usize) -> Self {
        self.queue_depth = queue_depth;
        self
    }

    /// Sets the response-cache byte budget (`0` disables caching).
    pub fn cache_bytes(mut self, cache_bytes: usize) -> Self {
        self.cache_bytes = cache_bytes;
        self
    }

    /// Sets the per-connection pipeline depth (clamped to at least 1).
    pub fn pipeline_depth(mut self, pipeline_depth: usize) -> Self {
        self.pipeline_depth = pipeline_depth;
        self
    }

    /// Sets the per-connection read/idle timeout.
    pub fn timeout(mut self, timeout: Option<Duration>) -> Self {
        self.timeout = timeout;
        self
    }

    /// Sets the max-concurrent-connections gate.
    pub fn max_concurrent(mut self, max_concurrent: Option<usize>) -> Self {
        self.max_concurrent = max_concurrent;
        self
    }

    /// Sets the total accept budget.
    pub fn max_connections(mut self, max_connections: Option<usize>) -> Self {
        self.max_connections = max_connections;
        self
    }

    /// Sets the server-side default per-request deadline.
    pub fn deadline(mut self, deadline: Option<Duration>) -> Self {
        self.deadline = deadline;
        self
    }

    /// Sets the registry's named-session cap (`0` = unlimited).
    pub fn max_netlists(mut self, max_netlists: usize) -> Self {
        self.max_netlists = max_netlists;
        self
    }

    /// Sets the registry's byte budget (`0` = unlimited).
    pub fn registry_bytes(mut self, registry_bytes: usize) -> Self {
        self.registry_bytes = registry_bytes;
        self
    }

    /// Sets the directory `LoadNetlist` paths resolve into (`None`
    /// disables loading).
    pub fn netlist_dir(mut self, netlist_dir: Option<PathBuf>) -> Self {
        self.netlist_dir = netlist_dir;
        self
    }

    /// Sets the per-tenant fair-share quota (`0` = auto).
    pub fn tenant_quota(mut self, tenant_quota: usize) -> Self {
        self.tenant_quota = tenant_quota;
        self
    }
}

/// What a bounded [`serve()`] run did. Earlier versions returned only a
/// connection count and silently dropped per-connection I/O errors;
/// those are now reported here.
#[derive(Debug)]
pub struct ServeSummary {
    /// Connections accepted.
    pub connections: usize,
    /// Per-connection I/O error descriptions (reader and writer sides;
    /// capped — see `dropped_io_errors`).
    pub io_errors: Vec<String>,
    /// I/O errors beyond the reporting cap (counted, not stored).
    pub dropped_io_errors: usize,
    /// The runtime's final metrics snapshot (cache hit/miss/eviction
    /// counters, queue high-water, timeouts, …).
    pub metrics: RuntimeMetrics,
}

/// Binds a listener on `addr` (e.g. `"127.0.0.1:7878"`; port `0` asks the
/// OS for a free port).
///
/// # Errors
///
/// [`ApiError::Io`] when binding fails.
pub fn bind(addr: &str) -> Result<TcpListener, ApiError> {
    TcpListener::bind(addr).map_err(|e| ApiError::io(format!("bind {addr}: {e}")))
}

/// Serves JSON-lines requests from `listener` against `session` on the
/// bounded runtime until the connection budget is exhausted (or forever
/// without one).
///
/// # Errors
///
/// [`ApiError::Io`] when accepting fails persistently; per-connection
/// I/O errors terminate only that connection and are reported in the
/// returned [`ServeSummary`].
pub fn serve(
    session: &Session,
    listener: &TcpListener,
    options: &ServeOptions,
) -> Result<ServeSummary, ApiError> {
    serve_with_metrics(session, listener, options, None)
}

/// [`serve()`] with an optional Prometheus scrape side listener: while
/// the JSON-lines server runs, `metrics_listener` answers plain-HTTP
/// `GET /metrics` with the same registry-overlaid counters as the v5
/// `MetricsText` pair, rendered by [`crate::prom::render_prometheus`].
/// The side listener accepts one scrape at a time (observation plane,
/// not data plane) and shuts down with the server.
///
/// # Errors
///
/// [`ApiError::Io`] when accepting fails persistently; per-connection
/// I/O errors terminate only that connection and are reported in the
/// returned [`ServeSummary`].
pub fn serve_with_metrics(
    session: &Session,
    listener: &TcpListener,
    options: &ServeOptions,
    metrics_listener: Option<&TcpListener>,
) -> Result<ServeSummary, ApiError> {
    let config = RuntimeConfig {
        lanes: options.lanes,
        queue_depth: options.queue_depth,
        cache_bytes: options.cache_bytes,
        pipeline_depth: options.pipeline_depth,
        max_request_bytes: MAX_REQUEST_BYTES,
        read_timeout: options.timeout,
        max_concurrent: options.max_concurrent,
        max_connections: options.max_connections,
        default_deadline: options.deadline,
        tenant_quota: options.tenant_quota,
    };
    let dispatcher = SessionDispatcher::new(
        session,
        options.max_netlists,
        options.registry_bytes,
        options.netlist_dir.clone(),
    );
    let handler = SessionHandler { dispatcher: &dispatcher };
    // The scrape path and the wire mirrors share one rendering: the
    // runtime snapshot overlaid with the registry counters, through the
    // same `runtime_metrics` every other export uses.
    let render = |snapshot: &gtl_runtime::MetricsSnapshot| {
        crate::prom::render_prometheus(&dispatcher.runtime_metrics(snapshot.clone()))
    };
    let exporter = metrics_listener.map(|listener| MetricsExporter { listener, render: &render });
    let report = gtl_runtime::serve_lines(listener, &config, &handler, exporter)
        .map_err(|e| ApiError::io(e.to_string()))?;
    Ok(ServeSummary {
        connections: report.connections,
        io_errors: report.io_errors,
        dropped_io_errors: report.dropped_io_errors,
        metrics: dispatcher.runtime_metrics(report.metrics),
    })
}

/// The [`LineHandler`] gluing the runtime to a [`SessionDispatcher`]:
/// parse once, dispatch to the addressed session, serialize into the
/// runtime's recycled buffer. Tenant classification and session-aware
/// cache keys delegate to the dispatcher.
struct SessionHandler<'d, 's> {
    dispatcher: &'d SessionDispatcher<'s>,
}

/// Serializes a response into the runtime's recycled buffer, recording
/// the time spent as a `serialize`-stage observation (I/O plane — the
/// handler runs on a compute lane, so this clock read is outside the
/// compute zone).
fn serialize_response(ctx: &RequestContext<'_>, response: &Response, out: &mut String) {
    let span = Span::starting_at(Instant::now());
    serde::json::to_string_into(response, out);
    ctx.observe_serialize_us(span.end_at(Instant::now()));
}

impl LineHandler for SessionHandler<'_, '_> {
    fn handle(&self, ctx: &RequestContext<'_>, line: &str, out: &mut String) -> Cacheability {
        match serde::json::from_str::<Request>(line) {
            // Metrics report live runtime state: the responses that are
            // not pure functions of the request bytes, so they must never
            // be cached.
            Ok(Request::Metrics(req)) => {
                let response = match self.dispatcher.metrics(&req, ctx.metrics()) {
                    Ok(resp) => Response::Metrics(resp),
                    Err(err) => Response::Error(ErrorBody::from(&err)),
                };
                serialize_response(ctx, &response, out);
                Cacheability::Uncacheable
            }
            Ok(Request::MetricsText(req)) => {
                let response = match self.dispatcher.metrics_text(&req, ctx.metrics()) {
                    Ok(resp) => Response::MetricsText(resp),
                    Err(err) => Response::Error(ErrorBody::from(&err)),
                };
                serialize_response(ctx, &response, out);
                Cacheability::Uncacheable
            }
            Ok(request) => {
                // The job token (connection loss + server default
                // deadline) reaches the compute through the session;
                // `deadline_ms` in the request narrows it further,
                // anchored at admission so queue wait counts.
                let response = self.dispatcher.handle_cancellable(
                    &request,
                    ctx.cancel_token(),
                    ctx.submitted_at(),
                );
                serialize_response(ctx, &response, out);
                if let Response::Error(body) = &response {
                    // The runtime owns the counters; the handler owns
                    // the outcome classification.
                    match body.code.as_str() {
                        "deadline_exceeded" => ctx.record_deadline_exceeded(),
                        "cancelled" => ctx.record_cancelled(),
                        _ => {}
                    }
                    // Error responses (validation failures, deadline and
                    // cancellation outcomes) are never cached: unique
                    // invalid requests must not evict compute worth
                    // seconds, and deadline/cancel outcomes are
                    // timing-dependent, not pure functions of the line.
                    return Cacheability::Uncacheable;
                }
                // Successful responses are deterministic — cached bytes
                // are always exactly what a successful compute of the
                // line produces. Deadlines only make the success-vs-error
                // *outcome* timing-dependent, and a warm hit resolving
                // that race in the client's favor is deliberate: a
                // deadline bounds latency, and a hit (microseconds)
                // always meets it. Requests carrying their own
                // `deadline_ms` are still kept out of the cache: the
                // deadline is part of the key bytes, so admitting them
                // would let one client mint unbounded near-duplicate
                // entries of the same response (one per deadline value)
                // and evict everything else. Registry administration
                // responses report (and mutate) live registry state —
                // like Metrics, they are never pure functions of their
                // request bytes.
                let admin = matches!(
                    request,
                    Request::LoadNetlist(_) | Request::UnloadNetlist(_) | Request::ListSessions(_)
                );
                if admin || request.deadline_ms().is_some() {
                    Cacheability::Uncacheable
                } else {
                    Cacheability::Cacheable
                }
            }
            Err(e) => {
                serialize_response(
                    ctx,
                    &Response::Error(ErrorBody::from(&ApiError::bad_request(e.to_string()))),
                    out,
                );
                // Same reasoning: a parse failure costs microseconds —
                // never worth evicting real compute for.
                Cacheability::Uncacheable
            }
        }
    }

    fn cache_key<'a>(&self, line: &'a str) -> Cow<'a, [u8]> {
        self.dispatcher.cache_key(line)
    }

    fn tenant(&self, line: &str) -> String {
        self.dispatcher.tenant(line)
    }

    fn kind(&self, line: &str) -> &'static str {
        // The envelope tag is the first JSON key of a canonical line;
        // prefix inspection classifies without parsing (this runs per
        // request on the metrics path). Non-canonical spellings fall
        // into "other" — a label, never a behavior change.
        const KINDS: &[(&str, &str)] = &[
            ("{\"Find\":", "find"),
            ("{\"Place\":", "place"),
            ("{\"Stats\":", "stats"),
            ("{\"MetricsText\":", "metrics"),
            ("{\"Metrics\":", "metrics"),
            ("{\"LoadNetlist\":", "admin"),
            ("{\"UnloadNetlist\":", "admin"),
            ("{\"ListSessions\":", "admin"),
        ];
        KINDS
            .iter()
            .find(|(tag, _)| line.starts_with(tag))
            .map(|(_, kind)| *kind)
            .unwrap_or("other")
    }

    fn stamp_trace(&self, trace: TraceId, out: &mut String) -> bool {
        // Only v5+ bodies declare the `trace` field; a response echoing
        // a frozen version (v1–v4) must keep its exact historical
        // bytes. The version is always the *first* body field (wire
        // invariant since v1), so inspecting the envelope head —
        // `{"Tag":{"v":N,` — decides without a parse.
        let Some(colon) = out.find(':') else { return false };
        let Some(digits) = out[colon + 1..].strip_prefix("{\"v\":") else { return false };
        let end = digits.find(|c: char| !c.is_ascii_digit()).unwrap_or(digits.len());
        let Ok(v) = digits[..end].parse::<u32>() else { return false };
        if v < TRACE_SINCE_VERSION || !out.ends_with("}}") {
            return false;
        }
        // `trace` is declared last in every v5 body, so inserting just
        // before the closing `}}` produces exactly the bytes a
        // parse → stamp → serialize round-trip would.
        let at = out.len() - 2;
        out.insert_str(at, &format!(",\"trace\":\"{trace}\""));
        true
    }

    fn transport_error(&self, error: &TransportError) -> Option<String> {
        let err = match error {
            TransportError::Oversized { limit } => {
                ApiError::bad_request(format!("request line exceeds {limit} bytes"))
            }
            TransportError::NotUtf8 => ApiError::bad_request("request is not UTF-8"),
        };
        Some(serde::json::to_string(&Response::Error(ErrorBody::from(&err))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FindRequest, MetricsRequest, MetricsTextRequest, Request};
    use gtl_netlist::NetlistBuilder;
    use gtl_tangled::FinderConfig;
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    fn session() -> Session {
        let mut b = NetlistBuilder::new();
        let cells: Vec<_> = (0..20).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                b.add_anonymous_net([cells[i], cells[j]]);
            }
        }
        for i in 0..20 {
            b.add_anonymous_net([cells[i], cells[(i + 1) % 20]]);
        }
        Session::builder().netlist(b.finish()).build().unwrap()
    }

    fn request_line() -> String {
        serde::json::to_string(&Request::Find(FindRequest::new(FinderConfig {
            num_seeds: 6,
            min_size: 3,
            max_order_len: 10,
            rng_seed: 3,
            ..FinderConfig::default()
        })))
    }

    /// Removes the stamped `,"trace":"…"` field from a wire line, so
    /// wire bytes can be compared against in-process dispatch (which
    /// stamps nothing) and across connections (whose traces differ).
    fn strip_trace(line: &str) -> String {
        let Some(start) = line.find(",\"trace\":\"") else { return line.to_string() };
        let rest = &line[start + 10..];
        let end = rest.find('\"').unwrap();
        format!("{}{}", &line[..start], &rest[end + 1..])
    }

    #[test]
    fn zero_connection_budget_returns_immediately() {
        let session = session();
        let listener = bind("127.0.0.1:0").unwrap();
        let options = ServeOptions::new().max_connections(Some(0));
        let summary = serve(&session, &listener, &options).unwrap();
        assert_eq!(summary.connections, 0);
    }

    #[test]
    fn oversized_line_answered_and_dropped() {
        let session = session();
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let options = ServeOptions::new().max_connections(Some(1));
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| serve(&session, &listener, &options).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            // Stream more than the cap without a newline; the server must
            // answer bad_request and close rather than buffer forever.
            let chunk = vec![b'x'; 1 << 16];
            let mut sent = 0u64;
            while sent <= MAX_REQUEST_BYTES {
                if conn.write_all(&chunk).is_err() {
                    break; // server already hung up — also acceptable
                }
                sent += chunk.len() as u64;
            }
            let _ = conn.shutdown(std::net::Shutdown::Write);
            let mut response = String::new();
            let _ = BufReader::new(conn).read_line(&mut response);
            assert!(response.is_empty() || response.contains("\"bad_request\""), "{response}");
            assert_eq!(handle.join().unwrap().connections, 1);
        });
    }

    #[test]
    fn tcp_round_trip_matches_in_process_dispatch() {
        let session = session();
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let options = ServeOptions::new().lanes(2).max_connections(Some(2));
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| serve(&session, &listener, &options).unwrap());

            let mut expected = None;
            for _ in 0..2 {
                let mut conn = TcpStream::connect(addr).unwrap();
                // Two requests on one connection, plus a blank line and a
                // malformed line that must produce an error response.
                write!(conn, "{}\n\n{}\nnot json\n", request_line(), request_line()).unwrap();
                conn.shutdown(std::net::Shutdown::Write).unwrap();
                let mut lines = Vec::new();
                for line in BufReader::new(conn).lines() {
                    lines.push(line.unwrap());
                }
                assert_eq!(lines.len(), 3, "{lines:?}");
                // v5 responses are stamped with per-request traces on
                // the wire; everything else is byte-identical to
                // in-process dispatch.
                assert!(lines[0].contains("\"trace\":\""), "{}", lines[0]);
                assert_eq!(strip_trace(&lines[0]), session.handle_line(&request_line()));
                assert_eq!(strip_trace(&lines[0]), strip_trace(&lines[1]));
                assert_ne!(lines[0], lines[1], "traces are per-request");
                assert!(lines[2].contains("\"bad_request\""), "{}", lines[2]);
                // Every connection sees identical bytes modulo traces.
                let stripped: Vec<String> = lines.iter().map(|l| strip_trace(l)).collect();
                match &expected {
                    None => expected = Some(stripped),
                    Some(prev) => assert_eq!(prev, &stripped),
                }
            }
            let summary = handle.join().unwrap();
            assert_eq!(summary.connections, 2);
            // The second connection's identical requests were served from
            // the cache — with bytes identical to the fresh computes.
            assert!(summary.metrics.cache_hits >= 1, "{:?}", summary.metrics);
        });
    }

    #[test]
    fn error_responses_do_not_occupy_the_cache() {
        let session = session();
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let options = ServeOptions::new().lanes(1).max_connections(Some(1));
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| serve(&session, &listener, &options).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            // Unique malformed and invalid requests must not evict real
            // compute: none of them may take a cache slot.
            for i in 0..3 {
                writeln!(conn, "garbage number {i}").unwrap();
            }
            writeln!(conn, "{{\"Find\":{{\"v\":99,\"config\":{{}}}}}}").unwrap();
            writeln!(conn, "{}", request_line()).unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let lines: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
            assert_eq!(lines.len(), 5, "{lines:?}");
            assert!(lines[..4].iter().all(|l| l.contains("\"Error\":")), "{lines:?}");
            assert!(lines[4].starts_with("{\"Find\":"), "{}", lines[4]);
            let summary = handle.join().unwrap();
            assert_eq!(
                summary.metrics.cache_entries, 1,
                "only the successful Find may be cached: {:?}",
                summary.metrics
            );
        });
    }

    #[test]
    fn deadline_ms_over_the_wire() {
        let session = session();
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let options = ServeOptions::new().lanes(1).max_connections(Some(1));
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| serve(&session, &listener, &options).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            // An already-expired per-request deadline: answered with a
            // structured error, without running the finder.
            let expired = request_line().replace("\"deadline_ms\":null", "\"deadline_ms\":0");
            assert!(expired.contains("\"deadline_ms\":0"), "{expired}");
            writeln!(conn, "{expired}").unwrap();
            // A generous deadline: served normally, but never cached
            // (the outcome is timing-dependent) — send it twice.
            let generous =
                request_line().replace("\"deadline_ms\":null", "\"deadline_ms\":3600000");
            writeln!(conn, "{generous}").unwrap();
            writeln!(conn, "{generous}").unwrap();
            // A v2 request carrying deadline_ms: the field is v3+.
            let wrong_version = expired.replacen("\"v\":5", "\"v\":2", 1);
            writeln!(conn, "{wrong_version}").unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let lines: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
            assert_eq!(lines.len(), 4, "{lines:?}");
            assert!(lines[0].contains("\"code\":\"deadline_exceeded\""), "{}", lines[0]);
            assert!(lines[1].starts_with("{\"Find\":{\"v\":5,"), "{}", lines[1]);
            assert_eq!(
                strip_trace(&lines[1]),
                strip_trace(&lines[2]),
                "same line must answer identically modulo its trace"
            );
            assert!(lines[3].contains("\"code\":\"invalid_argument\""), "{}", lines[3]);
            let summary = handle.join().unwrap();
            assert_eq!(summary.metrics.deadlines_exceeded, 1, "{:?}", summary.metrics);
            assert_eq!(
                summary.metrics.cache_entries, 0,
                "deadline-carrying requests must never be cached: {:?}",
                summary.metrics
            );
        });
    }

    #[test]
    fn metrics_request_served_by_runtime_not_cached() {
        let session = session();
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let options = ServeOptions::new().lanes(1).max_connections(Some(1));
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| serve(&session, &listener, &options).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            let line = serde::json::to_string(&Request::Metrics(MetricsRequest::new()));
            writeln!(conn, "{line}").unwrap();
            writeln!(conn, "{line}").unwrap();
            // A v1 Metrics request must be rejected: the pair is v2+.
            writeln!(conn, "{{\"Metrics\":{{\"v\":1}}}}").unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let lines: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
            assert_eq!(lines.len(), 3, "{lines:?}");
            assert!(lines[0].starts_with("{\"Metrics\":{\"v\":5,\"metrics\":{"), "{}", lines[0]);
            assert!(lines[1].contains("\"requests\":"), "{}", lines[1]);
            assert!(lines[2].contains("\"invalid_argument\""), "{}", lines[2]);
            let summary = handle.join().unwrap();
            // Every Metrics outcome (snapshot or version error) bypasses
            // the cache; the two snapshots differ (the counters moved
            // between them).
            assert_eq!(summary.metrics.cache_entries, 0, "Metrics outcomes are never cached");
            assert_ne!(
                strip_trace(&lines[0]),
                strip_trace(&lines[1]),
                "metrics snapshots must not be cached"
            );
        });
    }

    #[test]
    fn traces_stamp_v5_responses_only() {
        let session = session();
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let options = ServeOptions::new().lanes(1).max_connections(Some(1));
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| serve(&session, &listener, &options).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            writeln!(conn, "{}", request_line()).unwrap();
            // The same request pinned to v4: frozen bytes, no trace.
            writeln!(conn, "{}", request_line().replacen("\"v\":5", "\"v\":4", 1)).unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let lines: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
            assert_eq!(lines.len(), 2, "{lines:?}");
            // Conn IDs are 1-based, sequence numbers 0-based.
            assert!(lines[0].ends_with(",\"trace\":\"00000001-00000000\"}}"), "{}", lines[0]);
            assert!(!lines[1].contains("\"trace\""), "{}", lines[1]);
            let summary = handle.join().unwrap();
            assert_eq!(summary.metrics.responses_traced, 1, "{:?}", summary.metrics);
        });
    }

    #[test]
    fn metrics_text_serves_prometheus_rendering() {
        let session = session();
        let listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let options = ServeOptions::new().lanes(1).max_connections(Some(1));
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| serve(&session, &listener, &options).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            let line = serde::json::to_string(&Request::MetricsText(MetricsTextRequest::new()));
            writeln!(conn, "{line}").unwrap();
            // The pair is v5+: a v4 MetricsText request is rejected.
            writeln!(conn, "{}", line.replacen("\"v\":5", "\"v\":4", 1)).unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let lines: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
            assert_eq!(lines.len(), 2, "{lines:?}");
            assert!(lines[0].starts_with("{\"MetricsText\":{\"v\":5,\"text\":\""), "{}", lines[0]);
            assert!(lines[0].contains("# TYPE gtl_requests counter"), "{}", lines[0]);
            assert!(lines[0].contains("\"trace\":\"00000001-00000000\""), "{}", lines[0]);
            assert!(lines[1].contains("\"invalid_argument\""), "{}", lines[1]);
            let summary = handle.join().unwrap();
            assert_eq!(summary.metrics.cache_entries, 0, "MetricsText is never cached");
        });
    }

    #[test]
    fn scrape_endpoint_serves_overlaid_prometheus_text() {
        let session = session();
        let listener = bind("127.0.0.1:0").unwrap();
        let metrics_listener = bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let metrics_addr = metrics_listener.local_addr().unwrap();
        let options = ServeOptions::new().lanes(1).max_connections(Some(1));
        std::thread::scope(|scope| {
            let handle = scope.spawn(|| {
                serve_with_metrics(&session, &listener, &options, Some(&metrics_listener)).unwrap()
            });
            let mut conn = TcpStream::connect(addr).unwrap();
            writeln!(conn, "{}", request_line()).unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let mut first = String::new();
            reader.read_line(&mut first).unwrap();
            assert!(first.starts_with("{\"Find\":"), "{first}");
            // Scrape while the data-plane connection is still open.
            let mut scrape = TcpStream::connect(metrics_addr).unwrap();
            write!(scrape, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
            let mut response = String::new();
            std::io::Read::read_to_string(&mut scrape, &mut response).unwrap();
            assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");
            assert!(response.contains("# TYPE gtl_requests counter"), "{response}");
            assert!(response.contains("gtl_requests 1"), "{response}");
            assert!(
                response.contains("gtl_request_latency_seconds_count{kind=\"find\"} 1"),
                "{response}"
            );
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let summary = handle.join().unwrap();
            assert_eq!(summary.connections, 1);
            assert_eq!(summary.metrics.responses_traced, 1, "{:?}", summary.metrics);
        });
    }
}
