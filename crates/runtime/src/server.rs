//! The bounded line-serving runtime: acceptor → I/O threads → bounded
//! job queue → compute lanes → per-connection reorder buffer.
//!
//! [`serve_lines`] turns a [`TcpListener`] plus a [`LineHandler`] into a
//! pipelined JSON-lines-style server with *bounded admission* at every
//! level:
//!
//! * **Compute lanes.** A fixed pool of `lanes` worker threads executes
//!   request jobs popped from one global bounded fair-share queue (a
//!   per-tenant round-robin [`FairQueue`] with the blocking semantics of
//!   [`gtl_core::sync::BoundedQueue`]). When every lane is busy and the
//!   queue is full — or one tenant has hit its per-tenant quota —
//!   connection readers block in `push`: backpressure reaches the
//!   client's TCP window instead of growing an unbounded buffer, and a
//!   flooding tenant backpressures *itself* before it can crowd out
//!   anyone else.
//! * **Fair-share admission.** [`LineHandler::tenant`] classifies each
//!   request line into an admission lane; lanes pop tenants in
//!   deterministic round-robin order (ties by submission order), so the
//!   interleaving served to a trickling tenant is independent of how
//!   hard any other tenant floods (the starvation counter
//!   [`MetricsSnapshot::fair_share_violations`] is structurally zero).
//! * **Pipelining with order preservation.** A client may write up to
//!   `pipeline_depth` request lines before reading; jobs from one
//!   connection run concurrently on the lanes, and a per-connection
//!   reorder ring emits responses strictly in request order, so the wire
//!   contract is exactly that of a serial server.
//! * **Connection bounds.** An optional max-concurrent-connections gate
//!   (excess clients wait in the listen backlog), an optional total
//!   accept budget (for scripted runs), and a per-connection read/idle
//!   timeout.
//!
//! Connection threads are **I/O only**: they parse frames and move
//! buffers; all request compute happens on the lanes, and whatever the
//! handler fans out internally (e.g. `gtl_core::exec`) stays inside the
//! job. Responses for a given request line are byte-identical no matter
//! how many lanes, connections, or pipelined requests are in flight —
//! provided the handler is deterministic, which the [`ResponseCache`]
//! additionally exploits (see [`crate::cache`]).

use std::borrow::Cow;
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead as _, BufReader, BufWriter, Write as _};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use gtl_core::cancel::{CancelToken, Deadline};
use gtl_core::obs::Span;
use gtl_core::sync::Semaphore;

use crate::cache::ResponseCache;
use crate::metrics::{MetricsHub, MetricsSnapshot, Stage};

/// Give up on the listener after this many `accept()` failures in a row
/// (transient `ECONNABORTED`-style failures are tolerated and reset on
/// every successful accept).
const MAX_CONSECUTIVE_ACCEPT_ERRORS: usize = 100;

/// At most this many per-connection I/O error strings are kept verbatim
/// in the [`ServeReport`]; further ones only bump a drop counter (a
/// long-running server must not grow an unbounded error log).
const MAX_REPORTED_IO_ERRORS: usize = 64;

/// Whether a response may be stored in the response cache.
///
/// Only responses that are **pure functions of the request line bytes**
/// may be cached — everything the workspace computes (find/place/stats)
/// qualifies; a metrics snapshot does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cacheability {
    /// The response depends only on the request bytes: cache it.
    Cacheable,
    /// The response depends on runtime state (e.g. metrics): never cache.
    Uncacheable,
}

/// A framing-level failure detected before the handler runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportError {
    /// The request line exceeded the configured byte cap.
    Oversized {
        /// The configured cap in bytes.
        limit: u64,
    },
    /// The request line is not valid UTF-8.
    NotUtf8,
}

/// A per-request trace identity, deterministically derived from the
/// connection id (accept order, 1-based) and the request's sequence
/// number on that connection (0-based).
///
/// Rendered as `cccccccc-ssssssss` (two fixed-width hex words), it lets
/// a client correlate a wire response with server-side metrics and
/// logs. Because `(conn, seq)` is a pure function of the request
/// *stream* — never of lane scheduling, timing, or cache state —
/// replaying the same script yields the same trace IDs, so golden
/// replays stay byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId {
    /// 1-based accept-order connection id.
    pub conn: u64,
    /// 0-based request sequence number within the connection.
    pub seq: u64,
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:08x}-{:08x}", self.conn, self.seq)
    }
}

/// Per-request context handed to the handler (read-only runtime views
/// plus this request's cancellation token).
#[derive(Debug)]
pub struct RequestContext<'a> {
    pub(crate) hub: &'a MetricsHub,
    pub(crate) cache: &'a ResponseCache,
    pub(crate) token: &'a CancelToken,
    pub(crate) submitted_at: Instant,
    pub(crate) trace: TraceId,
}

impl RequestContext<'_> {
    /// A point-in-time snapshot of the runtime's metrics, for serving a
    /// monitoring endpoint. Metrics are observation-only; reading them
    /// never perturbs request handling.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.hub.snapshot(self.cache)
    }

    /// This request's cancellation token: a child of the connection's
    /// token (tripped on connection loss) carrying the server-side
    /// default deadline, anchored at [`RequestContext::submitted_at`].
    /// Handlers should poll it inside long compute and may derive
    /// tighter children for request-supplied deadlines.
    pub fn cancel_token(&self) -> &CancelToken {
        self.token
    }

    /// When the runtime admitted this request (the read side framed the
    /// line) — the anchor for request-supplied deadlines, so time spent
    /// waiting in the job queue counts against the deadline.
    pub fn submitted_at(&self) -> Instant {
        self.submitted_at
    }

    /// Records that this request was answered with a deadline-exceeded
    /// error (the handler owns the response formats, the runtime owns
    /// the counters).
    pub fn record_deadline_exceeded(&self) {
        self.hub.deadline_exceeded();
    }

    /// Records that this request's compute was abandoned or answered
    /// with a cancellation error after its connection was lost.
    pub fn record_cancelled(&self) {
        self.hub.job_cancelled();
    }

    /// This request's trace identity (see [`TraceId`]). Handlers may log
    /// it or fold it into diagnostics, but the response *bytes* are
    /// stamped by the runtime via [`LineHandler::stamp_trace`] — after
    /// the cache — so cached bytes stay pure functions of the line.
    pub fn trace_id(&self) -> TraceId {
        self.trace
    }

    /// Records how long serializing the response body took, in
    /// microseconds (the handler owns serialization, the runtime owns
    /// the [`Stage::Serialize`] histogram). Durations are measured with
    /// [`gtl_core::obs::Span`] endpoints read on the handler's thread.
    pub fn observe_serialize_us(&self, us: u64) {
        self.hub.observe_stage_us(Stage::Serialize, us);
    }
}

/// The request dispatcher a runtime serves.
///
/// `handle` receives one trimmed request line and must append exactly the
/// response line's bytes (no trailing newline) onto `out`, which arrives
/// cleared but with reused capacity. It must be **total** (every input
/// produces a response, errors included) and **deterministic** for every
/// response it declares [`Cacheability::Cacheable`] — the cache's
/// transparency invariant builds on that.
pub trait LineHandler: Sync {
    /// Computes the response for `line` into `out`.
    fn handle(&self, ctx: &RequestContext<'_>, line: &str, out: &mut String) -> Cacheability;

    /// The response line for a framing failure (`None` = close without
    /// answering). The connection is dropped after this response either
    /// way; previously pipelined responses are still flushed first.
    fn transport_error(&self, error: &TransportError) -> Option<String> {
        let _ = error;
        None
    }

    /// The response-cache key for `line`. The default — the line bytes
    /// themselves — is correct for handlers whose responses are pure
    /// functions of the line. A handler that adds request-independent
    /// state (e.g. a session registry, where the same line means
    /// different things before and after a reload) must fold that state
    /// into the key; the transparency invariant then holds per key. The
    /// key must be a pure function of `line` and state that never
    /// changes between this call and the corresponding
    /// [`LineHandler::handle`] in a way that would alias two different
    /// responses onto one key.
    fn cache_key<'a>(&self, line: &'a str) -> Cow<'a, [u8]> {
        Cow::Borrowed(line.as_bytes())
    }

    /// The admission tenant for `line`: requests with the same tenant
    /// share one per-tenant quota and one fair-share lane; distinct
    /// tenants are served round-robin. The default puts every request in
    /// one shared tenant, which degenerates to the plain bounded FIFO.
    /// Must be cheap — it runs on the connection's I/O thread, before
    /// the line is admitted.
    fn tenant(&self, line: &str) -> String {
        let _ = line;
        String::new()
    }

    /// A cheap static classification of `line` for the per-request-kind
    /// latency histograms (e.g. `"find"`, `"place"`, `"stats"`,
    /// `"admin"`). Must be a pure function of the line; the label set
    /// must be small and fixed. The default puts every request in one
    /// `"request"` kind.
    fn kind(&self, line: &str) -> &'static str {
        let _ = line;
        "request"
    }

    /// Stamps this request's [`TraceId`] into the finished response
    /// `out`, returning whether a stamp was applied. The runtime calls
    /// this *after* the cache lookup/fill, so cached bytes stay pure
    /// functions of the request line while hits and misses are stamped
    /// uniformly (cache transparency holds for the stamped bytes too).
    /// The default stamps nothing — protocols without a trace field
    /// keep their bytes unchanged.
    fn stamp_trace(&self, trace: TraceId, out: &mut String) -> bool {
        let _ = (trace, out);
        false
    }
}

impl<F> LineHandler for F
where
    F: Fn(&RequestContext<'_>, &str, &mut String) -> Cacheability + Sync,
{
    fn handle(&self, ctx: &RequestContext<'_>, line: &str, out: &mut String) -> Cacheability {
        self(ctx, line, out)
    }
}

/// Sizing and limits for [`serve_lines`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeConfig {
    /// Compute lanes (scheduler worker threads); `0` = all cores.
    pub lanes: usize,
    /// Bounded job-queue capacity; `0` = auto (`4 × lanes`, at least the
    /// pipeline depth).
    pub queue_depth: usize,
    /// Response-cache byte budget; `0` disables caching.
    pub cache_bytes: usize,
    /// Max jobs in flight per connection (reorder-ring size); clamped to
    /// at least 1. `1` degenerates to strict serial request/response.
    pub pipeline_depth: usize,
    /// Largest accepted request line in bytes. A line is buffered before
    /// parsing; the cap keeps one hostile newline-free stream from
    /// growing the buffer until the allocator aborts the process.
    pub max_request_bytes: u64,
    /// Per-connection idle timeout (`None` = wait forever). Idle means
    /// no request in flight **and** nothing arriving: a client waiting
    /// on a slow compute never trips it. On expiry the connection stops
    /// reading, flushes anything in flight and closes.
    pub read_timeout: Option<Duration>,
    /// Max concurrently open connections (`None`/`Some(0)` = unbounded);
    /// excess clients wait in the listen backlog.
    pub max_concurrent: Option<usize>,
    /// Total accept budget (`None` = run forever; `Some(0)` = return
    /// immediately). Scripted callers use this for a clean exit.
    pub max_connections: Option<usize>,
    /// Server-side default deadline per request (`None` = unbounded).
    /// Anchored at submission, so queue wait counts; the job's
    /// [`RequestContext::cancel_token`] trips once it passes. Handlers
    /// decide the response; cancelled work never blocks a lane beyond
    /// its current checkpoint interval.
    pub default_deadline: Option<Duration>,
    /// Max queued jobs per tenant (see [`LineHandler::tenant`]); `0` =
    /// auto (the full queue depth, i.e. no sub-limit). A tenant at its
    /// quota backpressures only its own connections. Clamped to at
    /// least 1.
    pub tenant_quota: usize,
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        Self {
            lanes: 0,
            queue_depth: 0,
            cache_bytes: 0,
            pipeline_depth: 1,
            max_request_bytes: 1 << 20,
            read_timeout: None,
            max_concurrent: None,
            max_connections: None,
            default_deadline: None,
            tenant_quota: 0,
        }
    }
}

impl RuntimeConfig {
    fn resolved_lanes(&self) -> usize {
        if self.lanes == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
        } else {
            self.lanes
        }
    }

    fn resolved_pipeline(&self) -> usize {
        self.pipeline_depth.max(1)
    }

    fn resolved_queue_depth(&self) -> usize {
        if self.queue_depth == 0 {
            (self.resolved_lanes() * 4).max(self.resolved_pipeline())
        } else {
            self.queue_depth
        }
    }

    fn resolved_tenant_quota(&self) -> usize {
        if self.tenant_quota == 0 {
            self.resolved_queue_depth()
        } else {
            self.tenant_quota.max(1)
        }
    }
}

/// What a bounded [`serve_lines`] run did.
#[derive(Debug)]
pub struct ServeReport {
    /// Connections accepted.
    pub connections: usize,
    /// Per-connection I/O error descriptions, capped at a fixed count
    /// (earlier behavior silently dropped these).
    pub io_errors: Vec<String>,
    /// I/O errors beyond the reporting cap (counted, not stored).
    pub dropped_io_errors: usize,
    /// Final metrics snapshot.
    pub metrics: MetricsSnapshot,
}

/// A unit of compute queued for the lanes: one request's dispatch,
/// boxed with everything it needs to deliver its response.
type Job<'a> = Box<dyn FnOnce() + Send + 'a>;

/// The bounded fair-share job queue: per-tenant FIFOs drained in
/// deterministic round-robin order.
///
/// Semantics mirror [`gtl_core::sync::BoundedQueue`] — `push` blocks on
/// the limits and fails only once closed; `pop` drains everything
/// admitted before returning `None` after close — with two additions:
///
/// * **Per-tenant quota.** A tenant with `quota` jobs already queued
///   blocks its own producers, leaving the remaining capacity to other
///   tenants (self-backpressure instead of crowding).
/// * **Round-robin service.** Tenants with queued work form a rotation
///   in first-submission order; each pop serves the front tenant's
///   oldest job and moves that tenant to the back if it still has work.
///   Within a tenant, order is strict FIFO — so the service order seen
///   by any one tenant is independent of how much the others submit.
struct FairQueue<T> {
    state: Mutex<FairState<T>>,
    /// Signaled when a job is admitted or the queue closes (poppers).
    ready: Condvar,
    /// Signaled when a pop frees capacity or the queue closes (pushers;
    /// `notify_all`, because waiters block on different predicates —
    /// global capacity vs. their own tenant's quota).
    vacancy: Condvar,
}

struct FairState<T> {
    capacity: usize,
    quota: usize,
    len: usize,
    closed: bool,
    queues: HashMap<String, VecDeque<T>>,
    /// Tenants with at least one queued job, in service order.
    rotation: VecDeque<String>,
    /// The tenant served by the previous pop, for the structural
    /// starvation check (see [`MetricsHub::fair_share_violation`]).
    last_popped: Option<String>,
    /// Whether another tenant was already waiting when the previous pop
    /// was served. Serving the same tenant twice in a row is only a
    /// starvation violation if someone else has been waiting the whole
    /// time — a tenant that arrived in between legitimately queues
    /// behind the incumbent's rotation slot.
    last_pop_had_others: bool,
}

impl<T> FairQueue<T> {
    fn new(capacity: usize, quota: usize) -> Self {
        assert!(capacity > 0, "queue capacity must be positive");
        assert!(quota > 0, "tenant quota must be positive");
        Self {
            state: Mutex::new(FairState {
                capacity,
                quota,
                len: 0,
                closed: false,
                queues: HashMap::new(),
                rotation: VecDeque::new(),
                last_popped: None,
                last_pop_had_others: false,
            }),
            ready: Condvar::new(),
            vacancy: Condvar::new(),
        }
    }

    /// Blocks until both the global capacity and `tenant`'s quota admit
    /// the item, then enqueues it. `Err(item)` once the queue is closed.
    fn push(&self, tenant: &str, item: T) -> Result<(), T> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.closed {
                return Err(item);
            }
            let tenant_len = state.queues.get(tenant).map_or(0, VecDeque::len);
            if state.len < state.capacity && tenant_len < state.quota {
                if tenant_len == 0 {
                    // Empty → non-empty: the tenant (re)joins the
                    // rotation at the back — "ties by submission order".
                    state.rotation.push_back(tenant.to_string());
                }
                state.queues.entry(tenant.to_string()).or_default().push_back(item);
                state.len += 1;
                self.ready.notify_one();
                return Ok(());
            }
            state = self.vacancy.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Pops the next job in fair-share order, blocking while the queue
    /// is empty but open. `None` once closed *and* drained.
    fn pop(&self, hub: &MetricsHub) -> Option<T> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(tenant) = state.rotation.pop_front() {
                // gtl-lint: allow(no-panic-on-serve-path, reason = "push inserts the queue before enqueueing the tenant in the rotation")
                let queue = state.queues.get_mut(&tenant).expect("rotation tenant has a queue");
                // gtl-lint: allow(no-panic-on-serve-path, reason = "a tenant leaves the rotation when its queue drains, so rotation members have work")
                let item = queue.pop_front().expect("rotation tenant has work");
                let more = !queue.is_empty();
                // Structural starvation check: serving the same tenant
                // twice in a row while another tenant has been waiting
                // since the previous pop would mean the rotation is
                // broken. Counted, never expected.
                if state.last_pop_had_others && state.last_popped.as_deref() == Some(&*tenant) {
                    hub.fair_share_violation();
                }
                state.last_pop_had_others = !state.rotation.is_empty();
                if more {
                    state.rotation.push_back(tenant.clone());
                }
                state.last_popped = Some(tenant);
                state.len -= 1;
                self.vacancy.notify_all();
                return Some(item);
            }
            if state.closed {
                return None;
            }
            state = self.ready.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Closes the queue: pending `pop`s drain what was admitted, then
    /// every blocked caller returns.
    fn close(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.closed = true;
        self.ready.notify_all();
        self.vacancy.notify_all();
    }

    /// Jobs currently queued across all tenants.
    fn len(&self) -> usize {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).len
    }
}

/// A side-port metrics scrape endpoint for [`serve_lines`]: a second
/// listener answered by a dedicated I/O thread with `render`'s text for
/// minimal HTTP/1.0 `GET /metrics` requests (anything else gets a 404).
/// `render` receives a fresh [`MetricsSnapshot`] per scrape; scraping is
/// observation-only and never perturbs request handling.
#[derive(Clone, Copy)]
pub struct MetricsExporter<'a> {
    /// The bound side-port listener to answer scrapes on.
    pub listener: &'a TcpListener,
    /// Renders a snapshot into the scrape response body (e.g.
    /// Prometheus text exposition, owned by the protocol layer).
    pub render: &'a (dyn Fn(&MetricsSnapshot) -> String + Sync),
}

/// Serves line-delimited requests from `listener` until the accept
/// budget is exhausted (or forever without one), with an optional
/// side-port scrape endpoint (see [`MetricsExporter`]). The scrape
/// thread lives exactly as long as the serve loop: it is woken and
/// joined before this returns.
///
/// # Errors
///
/// An [`std::io::Error`] when accepting fails persistently (100 times
/// in a row — transient failures are tolerated). Per-connection and
/// scrape-side I/O errors never fail the server; per-connection ones
/// are counted and reported in the [`ServeReport`].
///
/// # Panics
///
/// A panic inside [`LineHandler::handle`] is caught on the lane: it
/// costs the connection whose request panicked (earlier pipelined
/// responses still flush, then the connection closes; counted in
/// [`MetricsSnapshot::handler_panics`] and reported in the
/// [`ServeReport`]), never a lane or the server. Panics from runtime
/// internals still propagate.
pub fn serve_lines<H: LineHandler>(
    listener: &TcpListener,
    config: &RuntimeConfig,
    handler: &H,
    exporter: Option<MetricsExporter<'_>>,
) -> std::io::Result<ServeReport> {
    let lanes = config.resolved_lanes();
    let pipeline = config.resolved_pipeline();
    let queue_depth = config.resolved_queue_depth();
    let tenant_quota = config.resolved_tenant_quota();

    let cache = ResponseCache::new(config.cache_bytes);
    let hub = MetricsHub::new(lanes, queue_depth, pipeline, tenant_quota);
    let sink = Mutex::new(ErrorSink::default());
    let gate = config.max_concurrent.filter(|&max| max > 0).map(Semaphore::new);
    if config.max_connections == Some(0) {
        return Ok(ServeReport {
            connections: 0,
            io_errors: Vec::new(),
            dropped_io_errors: 0,
            metrics: hub.snapshot(&cache),
        });
    }

    let rt = RuntimeRefs {
        handler,
        cache: &cache,
        hub: &hub,
        sink: &sink,
        pipeline,
        max_request_bytes: config.max_request_bytes,
        read_timeout: config.read_timeout,
        default_deadline: config.default_deadline,
    };
    // Declared after `rt` so queued jobs may borrow it (drop order runs
    // the queue down first).
    let queue: FairQueue<Job<'_>> = FairQueue::new(queue_depth, tenant_quota);

    let scrape_done = AtomicBool::new(false);
    let (served, accept_error) = std::thread::scope(|scope| {
        for _ in 0..lanes {
            let queue = &queue;
            let hub = &hub;
            scope.spawn(move || {
                while let Some(job) = queue.pop(hub) {
                    hub.observe_queue_depth(queue.len());
                    job();
                }
            });
        }
        if let Some(exporter) = exporter {
            let hub = &hub;
            let cache = &cache;
            let done = &scrape_done;
            scope.spawn(move || scrape_loop(exporter, done, hub, cache));
        }

        let mut served = 0usize;
        let mut consecutive_errors = 0usize;
        let mut connections: Vec<std::thread::ScopedJoinHandle<'_, ()>> = Vec::new();
        let accept_error = loop {
            if let Some(gate) = &gate {
                gate.acquire();
            }
            let stream = match listener.accept() {
                Ok((stream, _peer)) => {
                    consecutive_errors = 0;
                    stream
                }
                Err(e) => {
                    // accept() fails transiently in normal operation
                    // (ECONNABORTED on client reset, EMFILE under fd
                    // pressure); one bad handshake must not take the
                    // server down. Persistent failure still surfaces.
                    if let Some(gate) = &gate {
                        gate.release();
                    }
                    consecutive_errors += 1;
                    if consecutive_errors >= MAX_CONSECUTIVE_ACCEPT_ERRORS {
                        break Some(std::io::Error::new(
                            e.kind(),
                            format!("accept failed {consecutive_errors} times in a row: {e}"),
                        ));
                    }
                    continue;
                }
            };
            served += 1;
            hub.connection_opened();
            let conn_id = served;
            let rt = &rt;
            let queue = &queue;
            let gate = &gate;
            connections.push(scope.spawn(move || {
                run_connection(rt, queue, scope, conn_id, stream);
                if let Some(gate) = gate {
                    gate.release();
                }
                rt.hub.connection_closed();
            }));
            // Reap finished connection threads so the handle list stays
            // proportional to *live* connections on a forever-server.
            let mut i = 0;
            while i < connections.len() {
                if connections[i].is_finished() {
                    // A panicked connection thread must cost only that
                    // connection, never the accept loop: record it and
                    // keep serving.
                    if connections.swap_remove(i).join().is_err() {
                        rt.record_error(0, "connection thread panicked".into());
                    }
                } else {
                    i += 1;
                }
            }
            if config.max_connections.is_some_and(|max| served >= max) {
                break None;
            }
        };
        // Graceful shutdown: every accepted connection finishes (readers
        // drain, lanes finish their jobs, writers flush) before the
        // queue closes and the lanes exit.
        for handle in connections {
            if handle.join().is_err() {
                rt.record_error(0, "connection thread panicked".into());
            }
        }
        queue.close();
        // Wake the scrape thread out of its blocking accept with a
        // self-connection so the scope can join it.
        scrape_done.store(true, Ordering::SeqCst);
        if let Some(exporter) = exporter {
            if let Ok(addr) = exporter.listener.local_addr() {
                let _ = TcpStream::connect(addr);
            }
        }
        (served, accept_error)
    });

    // End the job container's borrows (of `rt`, and through it `sink`)
    // before draining the sink by value.
    drop(queue);
    if let Some(error) = accept_error {
        return Err(error);
    }
    let drained = sink.into_inner().unwrap_or_else(|e| e.into_inner());
    Ok(ServeReport {
        connections: served,
        io_errors: drained.errors,
        dropped_io_errors: drained.dropped,
        metrics: hub.snapshot(&cache),
    })
}

/// The scrape endpoint's accept loop: one short-lived HTTP/1.0
/// exchange per connection, answered inline on this thread (scrapes
/// are rare and tiny; a slow scraper is bounded by the per-exchange
/// timeouts, it cannot block the serve path — only the next scraper).
fn scrape_loop(
    exporter: MetricsExporter<'_>,
    done: &AtomicBool,
    hub: &MetricsHub,
    cache: &ResponseCache,
) {
    let mut consecutive_errors = 0usize;
    loop {
        let stream = match exporter.listener.accept() {
            Ok((stream, _peer)) => {
                consecutive_errors = 0;
                stream
            }
            Err(_) => {
                consecutive_errors += 1;
                if done.load(Ordering::SeqCst)
                    || consecutive_errors >= MAX_CONSECUTIVE_ACCEPT_ERRORS
                {
                    return;
                }
                continue;
            }
        };
        if done.load(Ordering::SeqCst) {
            return; // the self-connection wake-up
        }
        // Scrape-side I/O failures cost only that scrape.
        let _ = answer_scrape(stream, exporter, hub, cache);
    }
}

/// One scrape exchange: read the request line (and drain the headers),
/// answer `GET /metrics` with the rendered snapshot, anything else
/// with a 404, then close. Hard timeouts bound a stalled client.
fn answer_scrape(
    stream: TcpStream,
    exporter: MetricsExporter<'_>,
    hub: &MetricsHub,
    cache: &ResponseCache,
) -> std::io::Result<()> {
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request = String::new();
    reader.read_line(&mut request)?;
    // Drain the header block (if any) before answering, so closing the
    // socket cannot RST the response out from under a client that is
    // still mid-write.
    loop {
        let mut header = String::new();
        if reader.read_line(&mut header)? == 0 || header == "\r\n" || header == "\n" {
            break;
        }
    }
    let mut writer = BufWriter::new(stream);
    let path = request.strip_prefix("GET ").and_then(|rest| rest.split_whitespace().next());
    if path == Some("/metrics") {
        let body = (exporter.render)(&hub.snapshot(cache));
        write!(
            writer,
            "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{}",
            body.len(),
            body
        )?;
    } else {
        writer.write_all(
            b"HTTP/1.0 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n",
        )?;
    }
    writer.flush()
}

/// Shared references every connection and job needs, bundled so the
/// spawned closures capture one pointer.
struct RuntimeRefs<'a, H: LineHandler> {
    handler: &'a H,
    cache: &'a ResponseCache,
    hub: &'a MetricsHub,
    sink: &'a Mutex<ErrorSink>,
    pipeline: usize,
    max_request_bytes: u64,
    read_timeout: Option<Duration>,
    default_deadline: Option<Duration>,
}

impl<H: LineHandler> RuntimeRefs<'_, H> {
    fn record_io_error(&self, conn_id: usize, message: String) {
        self.hub.io_error();
        self.record_error(conn_id, message);
    }

    /// Stores a per-connection error description for the report without
    /// bumping the I/O-error counter (used for non-I/O failures such as
    /// handler panics, which have their own counter).
    fn record_error(&self, conn_id: usize, message: String) {
        let mut sink = self.sink.lock().unwrap_or_else(|e| e.into_inner());
        if sink.errors.len() < MAX_REPORTED_IO_ERRORS {
            sink.errors.push(format!("connection #{conn_id}: {message}"));
        } else {
            sink.dropped += 1;
        }
    }
}

#[derive(Debug, Default)]
struct ErrorSink {
    errors: Vec<String>,
    dropped: usize,
}

/// One connection: spawn the writer, run the read loop, join the writer.
fn run_connection<'j, 'scope, 'env, H: LineHandler>(
    rt: &'j RuntimeRefs<'j, H>,
    queue: &FairQueue<Job<'j>>,
    scope: &'scope std::thread::Scope<'scope, 'env>,
    conn_id: usize,
    stream: TcpStream,
) where
    'j: 'env,
{
    if rt.read_timeout.is_some() {
        if let Err(e) = stream.set_read_timeout(rt.read_timeout) {
            rt.record_io_error(conn_id, format!("set_read_timeout: {e}"));
            return;
        }
    }
    let write_half = match stream.try_clone() {
        Ok(half) => half,
        Err(e) => {
            rt.record_io_error(conn_id, format!("clone: {e}"));
            return;
        }
    };
    let conn = Arc::new(ConnShared::new(rt.pipeline));
    let writer = {
        let conn = Arc::clone(&conn);
        let hub = rt.hub;
        scope.spawn(move || write_side(&conn, BufWriter::new(write_half), hub))
    };
    read_side(rt, queue, &conn, conn_id, stream);
    conn.finish_input();
    match writer.join() {
        Ok(Some(message)) => rt.record_io_error(conn_id, message),
        Ok(None) => {}
        // The writer panicking costs this connection its tail of
        // responses; the server keeps running and the report says why.
        Err(_) => rt.record_error(conn_id, "connection writer panicked".into()),
    }
}

/// The I/O-only producer: frame request lines, classify their admission
/// tenant, acquire a pipeline slot, submit a job per line. Never
/// computes a response itself.
fn read_side<'j, H: LineHandler>(
    rt: &'j RuntimeRefs<'j, H>,
    queue: &FairQueue<Job<'j>>,
    conn: &Arc<ConnShared>,
    conn_id: usize,
    stream: TcpStream,
) {
    let mut reader = BufReader::new(stream);
    let mut buf: Vec<u8> = Vec::new();
    'lines: loop {
        buf.clear();
        // Read one line, possibly across several timeout wakeups: the
        // timeout measures client *idleness*, so while responses are in
        // flight (the client is waiting on the server, not the other way
        // round) wakeups just retry. With nothing in flight the timeout
        // closes the connection — including one stalled mid-line, whose
        // partial bytes are discarded (slowloris protection).
        loop {
            // Bound the read: at most one byte past the cap, so an
            // oversized line is detected without ever buffering the
            // whole stream.
            let budget = rt.max_request_bytes + 1 - buf.len() as u64;
            match std::io::Read::take(&mut reader, budget).read_until(b'\n', &mut buf) {
                Ok(0) if buf.is_empty() => break 'lines, // clean EOF
                // EOF terminating a final unterminated line, a complete
                // line, or the byte budget exhausted (caught below).
                Ok(0) => break,
                Ok(_) if buf.last() == Some(&b'\n') || buf.len() as u64 > rt.max_request_bytes => {
                    break
                }
                Ok(_) => {} // partial read (short take) — keep reading
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    if conn.has_inflight() {
                        continue; // server still computing — not idle
                    }
                    // Genuinely idle: stop reading; anything already in
                    // flight still flushes before the connection closes.
                    rt.hub.read_timeout();
                    break 'lines;
                }
                Err(e) => {
                    // A read *error* (as opposed to a clean EOF, which may
                    // be a pipelining client's half-close) means the
                    // connection is gone: cancel its in-flight jobs so
                    // lane time is not spent on answers nobody can read.
                    rt.record_io_error(conn_id, format!("read: {e}"));
                    conn.kill();
                    break 'lines;
                }
            }
        }
        if buf.len() as u64 > rt.max_request_bytes {
            respond_transport_error(
                rt,
                conn,
                &TransportError::Oversized { limit: rt.max_request_bytes },
            );
            break;
        }
        let Ok(text) = std::str::from_utf8(&buf) else {
            respond_transport_error(rt, conn, &TransportError::NotUtf8);
            break;
        };
        // The canonical request line: surrounding whitespace stripped
        // (it cannot change the parsed request), so the cache key and
        // the handler input are exactly the same bytes.
        let line = text.trim();
        if line.is_empty() {
            continue;
        }
        let Some((seq, out)) = conn.acquire_slot() else {
            break; // the writer died; stop producing
        };
        rt.hub.request_submitted();
        // Classify the admission tenant on the I/O thread (it is a cheap
        // prefix inspection by contract) so the fair-share queue can
        // bound this tenant *before* the job occupies a queue slot.
        let tenant = rt.handler.tenant(line);
        let line = line.to_string();
        let submitted = Instant::now();
        let job: Job<'j> = Box::new({
            let conn = Arc::clone(conn);
            move || run_job(rt, &conn, conn_id, seq, &line, out, submitted)
        });
        if queue.push(&tenant, job).is_err() {
            // Only possible if shutdown raced this connection; fail the
            // stream rather than leave the writer waiting on `seq`.
            conn.kill();
            break;
        }
        rt.hub.observe_queue_depth(queue.len());
    }
}

/// Answers a framing failure in request order (if the handler supplies a
/// response line) — the connection is closed by the caller afterwards.
fn respond_transport_error<H: LineHandler>(
    rt: &RuntimeRefs<'_, H>,
    conn: &ConnShared,
    error: &TransportError,
) {
    if let Some(text) = rt.handler.transport_error(error) {
        if let Some((seq, mut out)) = conn.acquire_slot() {
            rt.hub.request_submitted();
            out.clear();
            out.push_str(&text);
            conn.deposit(seq, out);
        }
    }
}

/// One request's compute, run on a lane: cancellation probe, cache
/// lookup, handler dispatch, cache fill, in-order delivery.
///
/// A panic inside the handler is contained here: it costs exactly the
/// connection that submitted the request (the same blast radius as the
/// old dispatch-on-the-connection-thread server), never the lane — the
/// connection flushes every earlier in-order response, then closes.
fn run_job<H: LineHandler>(
    rt: &RuntimeRefs<'_, H>,
    conn: &ConnShared,
    conn_id: usize,
    seq: u64,
    line: &str,
    mut out: String,
    submitted: Instant,
) {
    // The connection died (token tripped) or this sequence number was
    // truncated by an abort (an earlier job panicked) while the job sat
    // in the queue: nobody will ever read an answer, so skip the
    // compute entirely — this is what keeps a lost connection from
    // occupying a compute lane. Note the abort case must NOT cancel the
    // connection token: earlier in-flight jobs still flush their real
    // responses, which a token trip would corrupt into errors.
    if conn.token().is_cancelled() || conn.discards(seq) {
        rt.hub.job_cancelled();
        return;
    }
    // Stage clocks are read here on the lane and only ever *subtracted*
    // (never branched on), so recording them cannot change response
    // bytes — the obs byte-invisibility contract.
    let started = Instant::now();
    rt.hub.observe_stage_us(Stage::QueueWait, Span::starting_at(submitted).end_at(started));
    let trace = TraceId { conn: conn_id as u64, seq };
    out.clear();
    // The handler may fold request-independent state (e.g. a session
    // generation) into the key; computed once, used for both the lookup
    // and the fill so they can never diverge.
    let cache_key = rt.handler.cache_key(line);
    if let Some(hit) = rt.cache.get(&cache_key) {
        // Transparency invariant: these are exactly the bytes the
        // handler produced for this key (property-tested end to end).
        out.push_str(&hit);
    } else {
        // The job's token: trips on connection loss, and additionally on
        // the server-side default deadline (anchored at submission, so
        // queue wait counts). An unrepresentably far deadline is no
        // deadline.
        let token = match rt.default_deadline.and_then(|d| Deadline::anchored(submitted, d)) {
            Some(deadline) => conn.token().child_with_deadline(deadline),
            None => conn.token().clone(),
        };
        let ctx = RequestContext {
            hub: rt.hub,
            cache: rt.cache,
            token: &token,
            submitted_at: submitted,
            trace,
        };
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.handler.handle(&ctx, line, &mut out)
        }));
        match outcome {
            Ok(Cacheability::Cacheable) => {
                // Guard against handler state moving between the lookup
                // and the compute (e.g. a session reloaded mid-job): the
                // fill goes in only if the key is unchanged, which —
                // with monotonic, never-reused state stamps in the key —
                // proves the compute saw exactly the state the key
                // names. A skipped fill only costs a recompute.
                if rt.handler.cache_key(line) == cache_key {
                    rt.cache.insert(&cache_key, &out);
                }
            }
            Ok(Cacheability::Uncacheable) => {}
            Err(_panic) => {
                rt.hub.handler_panic();
                rt.record_error(conn_id, "handler panicked; connection dropped".to_string());
                conn.abort_after(seq);
                return;
            }
        }
    }
    rt.hub.observe_stage_us(Stage::LaneCompute, Span::starting_at(started).end_at(Instant::now()));
    // Trace stamping happens strictly *after* the cache lookup and
    // fill: the cache keeps holding bytes that are pure functions of
    // the request line, and hits and misses are stamped uniformly, so
    // cache transparency holds for the stamped bytes too.
    if rt.handler.stamp_trace(trace, &mut out) {
        rt.hub.response_traced();
    }
    rt.hub.observe_kind_latency_us(
        rt.handler.kind(line),
        Span::starting_at(submitted).end_at(Instant::now()),
    );
    conn.deposit(seq, out);
}

/// The consumer: write responses strictly in request order, recycling
/// buffers back to the connection's pool.
///
/// Flushing is adaptive: while the next in-order response is already
/// deposited (a pipelined burst, e.g. cache-warm repeats), lines batch
/// in the `BufWriter` and flush together; the flush happens as soon as
/// the writer would otherwise wait, so an interactive client still sees
/// every response immediately.
fn write_side(
    conn: &ConnShared,
    mut writer: BufWriter<TcpStream>,
    hub: &MetricsHub,
) -> Option<String> {
    let result = write_loop(conn, &mut writer, hub);
    // Once the writer stops, nothing will ever be answered on this
    // connection again; shut the read half so a reader blocked in a
    // timeout-less read (e.g. after a handler panic aborted the
    // connection) sees EOF instead of leaking. On a normally completed
    // connection the reader has already exited and this is a no-op.
    let _ = writer.get_ref().shutdown(std::net::Shutdown::Read);
    result
}

/// The write loop proper (see [`write_side`]).
fn write_loop(
    conn: &ConnShared,
    writer: &mut BufWriter<TcpStream>,
    hub: &MetricsHub,
) -> Option<String> {
    loop {
        let text = {
            let mut state = conn.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if state.dead {
                    return None;
                }
                let slot = state.ring_index(state.written);
                if let Some(text) = state.ring[slot].take() {
                    break text;
                }
                if state.total == Some(state.written) {
                    // Everything written; push out whatever is batched.
                    drop(state);
                    let flush = Span::starting_at(Instant::now());
                    let result = writer.flush();
                    hub.observe_stage_us(Stage::WriterFlush, flush.end_at(Instant::now()));
                    return match result {
                        Ok(()) => None,
                        Err(e) => Some(format!("flush: {e}")),
                    };
                }
                state = conn.response_ready.wait(state).unwrap_or_else(|e| e.into_inner());
            }
        };
        match writeln!(writer, "{text}") {
            Ok(()) => {
                hub.response_written();
                let next_ready = {
                    let mut state = conn.state.lock().unwrap_or_else(|e| e.into_inner());
                    state.written += 1;
                    let mut recycled = text;
                    recycled.clear();
                    if state.pool.len() < state.ring.len() {
                        state.pool.push(recycled);
                    }
                    conn.slot_freed.notify_one();
                    let slot = state.ring_index(state.written);
                    state.ring[slot].is_some()
                };
                if !next_ready {
                    let flush = Span::starting_at(Instant::now());
                    let result = writer.flush();
                    hub.observe_stage_us(Stage::WriterFlush, flush.end_at(Instant::now()));
                    if let Err(e) = result {
                        conn.kill();
                        return Some(format!("flush: {e}"));
                    }
                }
            }
            Err(e) => {
                conn.kill();
                return Some(format!("write: {e}"));
            }
        }
    }
}

/// Per-connection pipeline state: the reorder ring plus flow control.
///
/// Invariants: `written ≤ submitted ≤ written + ring.len()` (the
/// pipeline-depth window), so every in-flight sequence number maps to a
/// distinct ring slot; `total` is set exactly once, when the read side
/// stops producing.
struct ConnShared {
    state: Mutex<ConnState>,
    /// Signaled when `written` advances or the connection dies
    /// (producers waiting for a pipeline slot).
    slot_freed: Condvar,
    /// Signaled when a response lands in the ring, input ends, or the
    /// connection dies (the writer waits on this).
    response_ready: Condvar,
    /// The connection's cancellation root: tripped by [`ConnShared::kill`]
    /// (connection loss — reader error or writer failure), so queued and
    /// in-flight jobs of this connection stop consuming lane time. Every
    /// job token is this token or a deadline-carrying child of it.
    token: CancelToken,
}

struct ConnState {
    /// `ring[seq % depth]` holds the finished response for `seq`.
    ring: Vec<Option<String>>,
    /// Recycled response buffers (capacity reuse across requests).
    pool: Vec<String>,
    /// Next sequence number to assign.
    submitted: u64,
    /// Responses written back so far (the reorder cursor).
    written: u64,
    /// Sequence number past the last response the writer should emit
    /// (set at end of input, or truncated by [`ConnShared::abort_after`]).
    total: Option<u64>,
    /// The writer failed; discard everything, stop producing.
    dead: bool,
    /// Stop producing new requests (a job failed); unlike `dead`, the
    /// writer still drains every response before the abort point.
    aborted: bool,
}

impl ConnState {
    fn ring_index(&self, seq: u64) -> usize {
        (seq % self.ring.len() as u64) as usize
    }
}

impl ConnShared {
    fn new(pipeline_depth: usize) -> Self {
        Self {
            state: Mutex::new(ConnState {
                ring: (0..pipeline_depth).map(|_| None).collect(),
                pool: Vec::new(),
                submitted: 0,
                written: 0,
                total: None,
                dead: false,
                aborted: false,
            }),
            slot_freed: Condvar::new(),
            response_ready: Condvar::new(),
            token: CancelToken::new(),
        }
    }

    /// The connection's cancellation root (see the field docs).
    fn token(&self) -> &CancelToken {
        &self.token
    }

    /// Whether a response for `seq` would be discarded unread: the
    /// connection is dead, or an abort truncated the response stream
    /// before `seq`. Lanes skip such jobs instead of computing them.
    fn discards(&self, seq: u64) -> bool {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.dead || state.total.is_some_and(|total| seq >= total)
    }

    /// Blocks until fewer than `pipeline_depth` requests are in flight,
    /// then claims the next sequence number and a recycled buffer.
    /// `None` when the connection is dead.
    fn acquire_slot(&self) -> Option<(u64, String)> {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if state.dead || state.aborted {
                return None;
            }
            if state.submitted - state.written < state.ring.len() as u64 {
                let seq = state.submitted;
                state.submitted += 1;
                let out = state.pool.pop().unwrap_or_default();
                return Some((seq, out));
            }
            state = self.slot_freed.wait(state).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Delivers the finished response for `seq` into its ring slot.
    fn deposit(&self, seq: u64, text: String) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let slot = state.ring_index(seq);
        debug_assert!(state.ring[slot].is_none(), "reorder slot for seq {seq} overwritten");
        state.ring[slot] = Some(text);
        self.response_ready.notify_one();
    }

    /// Whether any accepted request has not been answered on the wire
    /// yet — the read/idle timeout only closes a connection when this is
    /// `false` (a client waiting on a slow response is not idle). A dead
    /// or aborted connection will never answer anything again, so it
    /// reports `false` no matter the counters.
    fn has_inflight(&self) -> bool {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        !state.dead && !state.aborted && state.submitted > state.written
    }

    /// Marks end of input: the writer exits after draining everything
    /// submitted so far (unless an abort already truncated earlier).
    fn finish_input(&self) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        if state.total.is_none() {
            state.total = Some(state.submitted);
        }
        self.response_ready.notify_all();
    }

    /// Fails the connection at `seq` (its job produced no response):
    /// stop producing, let the writer flush every response before `seq`,
    /// then close. Responses for later in-flight sequence numbers are
    /// discarded.
    fn abort_after(&self, seq: u64) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.aborted = true;
        state.total = Some(state.total.map_or(seq, |t| t.min(seq)));
        self.slot_freed.notify_all();
        self.response_ready.notify_all();
    }

    /// Marks the connection dead (connection loss: reader error or
    /// writer failure) and cancels its token, so jobs already queued or
    /// running for this connection stop at their next checkpoint instead
    /// of computing answers nobody can read.
    fn kill(&self) {
        self.token.cancel();
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.dead = true;
        self.slot_freed.notify_all();
        self.response_ready.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    /// Deterministic test handler: echoes with a prefix, sleeps a few
    /// milliseconds on `slow-` lines (to shuffle lane completion order),
    /// serves a metrics line, and answers framing errors.
    struct TestHandler;

    impl LineHandler for TestHandler {
        fn handle(&self, ctx: &RequestContext<'_>, line: &str, out: &mut String) -> Cacheability {
            if line == "panic" {
                panic!("handler blew up");
            }
            if line == "check-token" {
                // Cooperative cancellation: the handler polls the job
                // token; a tripped deadline becomes an error response.
                return if ctx.cancel_token().is_cancelled() {
                    ctx.record_deadline_exceeded();
                    out.push_str("error:deadline");
                    Cacheability::Uncacheable
                } else {
                    out.push_str("token:live");
                    Cacheability::Cacheable
                };
            }
            if line == "sleep-long" {
                std::thread::sleep(Duration::from_millis(150));
            }
            if line == "metrics" {
                let snap = ctx.metrics();
                out.push_str(&format!("metrics hits={}", snap.cache_hits));
                return Cacheability::Uncacheable;
            }
            if let Some(rest) = line.strip_prefix("slow-") {
                let ms = rest.bytes().next().map_or(0, |b| u64::from(b % 4));
                std::thread::sleep(Duration::from_millis(ms));
            }
            out.push_str("echo:");
            out.push_str(line);
            Cacheability::Cacheable
        }

        fn transport_error(&self, error: &TransportError) -> Option<String> {
            Some(match error {
                TransportError::Oversized { limit } => format!("error:oversized:{limit}"),
                TransportError::NotUtf8 => "error:not-utf8".to_string(),
            })
        }
    }

    fn bind() -> TcpListener {
        TcpListener::bind("127.0.0.1:0").expect("bind loopback")
    }

    #[test]
    fn zero_connection_budget_returns_immediately() {
        let listener = bind();
        let config = RuntimeConfig { max_connections: Some(0), ..RuntimeConfig::default() };
        let report = serve_lines(&listener, &config, &TestHandler, None).unwrap();
        assert_eq!(report.connections, 0);
    }

    #[test]
    fn pipelined_responses_arrive_in_request_order() {
        let listener = bind();
        let addr = listener.local_addr().unwrap();
        let config = RuntimeConfig {
            lanes: 4,
            pipeline_depth: 5,
            max_connections: Some(1),
            ..RuntimeConfig::default()
        };
        std::thread::scope(|scope| {
            let server =
                scope.spawn(|| serve_lines(&listener, &config, &TestHandler, None).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            // Burst of uneven-latency requests, written before any read.
            let n = 40;
            let mut expected = Vec::new();
            for i in 0..n {
                writeln!(conn, "slow-{i}").unwrap();
                expected.push(format!("echo:slow-{i}"));
            }
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let got: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
            assert_eq!(got, expected, "responses reordered");
            let report = server.join().unwrap();
            assert_eq!(report.connections, 1);
            assert_eq!(report.metrics.requests, n as u64);
            assert_eq!(report.metrics.responses, n as u64);
        });
    }

    #[test]
    fn cache_serves_repeats_and_metrics_bypass_it() {
        let listener = bind();
        let addr = listener.local_addr().unwrap();
        let config = RuntimeConfig {
            lanes: 2,
            pipeline_depth: 4,
            cache_bytes: 1 << 16,
            max_connections: Some(1),
            ..RuntimeConfig::default()
        };
        std::thread::scope(|scope| {
            let server =
                scope.spawn(|| serve_lines(&listener, &config, &TestHandler, None).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(conn.try_clone().unwrap());
            let read_line = |reader: &mut BufReader<TcpStream>| {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                line.trim_end().to_string()
            };
            // First request fills the cache; reading its response before
            // sending the repeats makes the hit count deterministic.
            writeln!(conn, "repeat-me").unwrap();
            assert_eq!(read_line(&mut reader), "echo:repeat-me");
            writeln!(conn, "repeat-me").unwrap();
            writeln!(conn, "repeat-me").unwrap();
            writeln!(conn, "metrics").unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            assert_eq!(read_line(&mut reader), "echo:repeat-me");
            assert_eq!(read_line(&mut reader), "echo:repeat-me");
            assert!(read_line(&mut reader).starts_with("metrics hits="), "metrics line");
            let report = server.join().unwrap();
            // The two repeats hit; the first fill and the (uncacheable,
            // so never resident) metrics probe miss.
            assert_eq!(report.metrics.cache_hits, 2);
            assert_eq!(report.metrics.cache_misses, 2);
            // The metrics line must not have been cached: exactly one
            // resident entry (the echoed request).
            assert_eq!(report.metrics.cache_entries, 1);
        });
    }

    #[test]
    fn oversized_line_answered_in_order_then_closed() {
        let listener = bind();
        let addr = listener.local_addr().unwrap();
        let config = RuntimeConfig {
            lanes: 1,
            pipeline_depth: 2,
            max_request_bytes: 64,
            max_connections: Some(1),
            ..RuntimeConfig::default()
        };
        std::thread::scope(|scope| {
            let server =
                scope.spawn(|| serve_lines(&listener, &config, &TestHandler, None).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            writeln!(conn, "ok").unwrap();
            writeln!(conn, "{}", "x".repeat(100)).unwrap();
            let _ = conn.shutdown(std::net::Shutdown::Write);
            let got: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
            assert_eq!(got, vec!["echo:ok".to_string(), "error:oversized:64".to_string()]);
            server.join().unwrap();
        });
    }

    #[test]
    fn idle_timeout_closes_the_connection() {
        let listener = bind();
        let addr = listener.local_addr().unwrap();
        let config = RuntimeConfig {
            lanes: 1,
            read_timeout: Some(Duration::from_millis(30)),
            max_connections: Some(1),
            ..RuntimeConfig::default()
        };
        std::thread::scope(|scope| {
            let server =
                scope.spawn(|| serve_lines(&listener, &config, &TestHandler, None).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            writeln!(conn, "before-idle").unwrap();
            // Then go idle: the server must answer what it got and close.
            let got: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
            assert_eq!(got, vec!["echo:before-idle".to_string()]);
            let report = server.join().unwrap();
            assert_eq!(report.metrics.read_timeouts, 1);
        });
    }

    #[test]
    fn slow_compute_does_not_trip_the_idle_timeout() {
        let listener = bind();
        let addr = listener.local_addr().unwrap();
        let config = RuntimeConfig {
            lanes: 1,
            // Far shorter than the 150ms the request takes to compute:
            // the timeout must only measure idleness, not compute.
            read_timeout: Some(Duration::from_millis(40)),
            max_connections: Some(1),
            ..RuntimeConfig::default()
        };
        std::thread::scope(|scope| {
            let server =
                scope.spawn(|| serve_lines(&listener, &config, &TestHandler, None).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            writeln!(conn, "sleep-long").unwrap();
            // Keep the write half open (a serial client waiting for its
            // answer); the idle timeout should close the connection only
            // after the response arrives.
            let got: Vec<String> = BufReader::new(conn).lines().map_while(Result::ok).collect();
            assert_eq!(got, vec!["echo:sleep-long".to_string()], "slow response lost to timeout");
            let report = server.join().unwrap();
            // The post-response idle close is the one counted timeout.
            assert_eq!(report.metrics.read_timeouts, 1);
            assert_eq!(report.metrics.responses, 1);
        });
    }

    #[test]
    fn handler_panic_costs_the_connection_not_the_server() {
        let listener = bind();
        let addr = listener.local_addr().unwrap();
        let config = RuntimeConfig {
            lanes: 1, // serialize jobs so the pre-panic response is deposited first
            pipeline_depth: 4,
            max_connections: Some(2),
            ..RuntimeConfig::default()
        };
        std::thread::scope(|scope| {
            let server =
                scope.spawn(|| serve_lines(&listener, &config, &TestHandler, None).unwrap());
            // Connection 1: a good request, then a panicking one. The
            // server must flush the first response, then close without
            // answering the panicked request — even though this client
            // keeps its write half open and the server has no read
            // timeout (the abort unblocks the reader via shutdown, so
            // the connection cannot leak).
            let conn = TcpStream::connect(addr).unwrap();
            let mut writer = conn.try_clone().unwrap();
            writeln!(writer, "before\npanic").unwrap();
            let got: Vec<String> = BufReader::new(conn).lines().map_while(Result::ok).collect();
            assert_eq!(got, vec!["echo:before".to_string()], "pre-panic response must flush");
            drop(writer);
            // Connection 2: the lane survived; the server still serves.
            let mut conn = TcpStream::connect(addr).unwrap();
            writeln!(conn, "still-alive").unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let got: Vec<String> = BufReader::new(conn).lines().map_while(Result::ok).collect();
            assert_eq!(got, vec!["echo:still-alive".to_string()]);
            let report = server.join().unwrap();
            assert_eq!(report.metrics.handler_panics, 1);
            assert!(
                report.io_errors.iter().any(|e| e.contains("handler panicked")),
                "{:?}",
                report.io_errors
            );
        });
    }

    #[test]
    fn default_deadline_trips_the_job_token() {
        // An already-expired server-side deadline: the job token is
        // tripped before the handler runs, and the handler answers with
        // its deadline response (counted in the metrics).
        let listener = bind();
        let addr = listener.local_addr().unwrap();
        let config = RuntimeConfig {
            lanes: 1,
            default_deadline: Some(Duration::from_millis(0)),
            max_connections: Some(1),
            ..RuntimeConfig::default()
        };
        std::thread::scope(|scope| {
            let server =
                scope.spawn(|| serve_lines(&listener, &config, &TestHandler, None).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            writeln!(conn, "check-token").unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let got: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
            assert_eq!(got, vec!["error:deadline".to_string()]);
            let report = server.join().unwrap();
            assert_eq!(report.metrics.deadlines_exceeded, 1);
        });
    }

    #[test]
    fn no_deadline_leaves_the_job_token_live() {
        let listener = bind();
        let addr = listener.local_addr().unwrap();
        let config = RuntimeConfig {
            lanes: 1,
            default_deadline: Some(Duration::from_secs(3600)),
            max_connections: Some(1),
            ..RuntimeConfig::default()
        };
        std::thread::scope(|scope| {
            let server =
                scope.spawn(|| serve_lines(&listener, &config, &TestHandler, None).unwrap());
            let mut conn = TcpStream::connect(addr).unwrap();
            writeln!(conn, "check-token").unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let got: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
            assert_eq!(got, vec!["token:live".to_string()]);
            let report = server.join().unwrap();
            assert_eq!(report.metrics.deadlines_exceeded, 0);
        });
    }

    /// A handler that counts how many requests actually computed, so a
    /// test can prove that a lost connection's queued jobs were skipped.
    struct CountingHandler {
        computed: std::sync::atomic::AtomicUsize,
    }

    impl LineHandler for CountingHandler {
        fn handle(&self, _ctx: &RequestContext<'_>, line: &str, out: &mut String) -> Cacheability {
            self.computed.fetch_add(1, Ordering::Relaxed);
            if line == "panic" {
                panic!("handler blew up");
            }
            std::thread::sleep(Duration::from_millis(25));
            out.push_str("echo:");
            out.push_str(line);
            Cacheability::Uncacheable // force every request to compute
        }
    }

    #[test]
    fn panic_abort_skips_the_connections_queued_jobs() {
        // A handler panic aborts its connection; the jobs still queued
        // behind it can never be answered, so the lanes must skip them
        // instead of computing responses nobody will read — while the
        // pre-panic response still flushes.
        let listener = bind();
        let addr = listener.local_addr().unwrap();
        let handler = CountingHandler { computed: std::sync::atomic::AtomicUsize::new(0) };
        let config = RuntimeConfig {
            lanes: 1,
            pipeline_depth: 8,
            max_connections: Some(1),
            ..RuntimeConfig::default()
        };
        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_lines(&listener, &config, &handler, None).unwrap());
            let conn = TcpStream::connect(addr).unwrap();
            let mut writer = conn.try_clone().unwrap();
            writeln!(writer, "before\npanic\ndoomed-0\ndoomed-1\ndoomed-2\ndoomed-3").unwrap();
            let got: Vec<String> = BufReader::new(conn).lines().map_while(Result::ok).collect();
            assert_eq!(got, vec!["echo:before".to_string()], "pre-panic response must flush");
            drop(writer);
            let report = server.join().unwrap();
            assert_eq!(report.metrics.handler_panics, 1);
            // "before" and "panic" computed; the four doomed jobs must
            // have been skipped on the lane, not run.
            assert_eq!(handler.computed.load(Ordering::Relaxed), 2, "{:?}", report.metrics);
            assert_eq!(report.metrics.jobs_cancelled, 4, "{:?}", report.metrics);
        });
    }

    #[test]
    fn mid_burst_disconnect_cancels_queued_jobs_but_not_other_connections() {
        let listener = bind();
        let addr = listener.local_addr().unwrap();
        let burst = 8usize;
        let handler = CountingHandler { computed: std::sync::atomic::AtomicUsize::new(0) };
        let config = RuntimeConfig {
            lanes: 1, // serialize jobs so most of the burst is still queued
            pipeline_depth: burst,
            max_connections: Some(2),
            ..RuntimeConfig::default()
        };
        std::thread::scope(|scope| {
            let server = scope.spawn(|| serve_lines(&listener, &config, &handler, None).unwrap());
            // Connection 1: pipeline a slow burst, then drop the socket
            // without reading anything. The unread response triggers an
            // RST, the reader/writer fail, the connection token trips,
            // and the still-queued jobs are skipped on the lane.
            {
                let mut conn = TcpStream::connect(addr).unwrap();
                for i in 0..burst {
                    writeln!(conn, "doomed-{i}").unwrap();
                }
                // Full close with responses unread → RST.
            }
            // Connection 2 (after the disconnect): must be served in
            // full, byte-identical to an undisturbed serial exchange.
            let mut conn = TcpStream::connect(addr).unwrap();
            for i in 0..3 {
                writeln!(conn, "alive-{i}").unwrap();
            }
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let got: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
            assert_eq!(got, vec!["echo:alive-0", "echo:alive-1", "echo:alive-2"]);
            let report = server.join().unwrap();
            // The doomed burst must not have run to completion: at least
            // one queued job was cancelled instead of computed.
            let computed = handler.computed.load(Ordering::Relaxed);
            assert!(computed < burst + 3, "all {burst} doomed jobs still computed");
            assert!(report.metrics.jobs_cancelled > 0, "{:?}", report.metrics);
            assert_eq!(
                computed as u64 + report.metrics.jobs_cancelled,
                (burst + 3) as u64,
                "every admitted request either computed or was cancelled: {:?}",
                report.metrics
            );
        });
    }

    #[test]
    fn concurrent_connections_all_complete_under_gate() {
        let listener = bind();
        let addr = listener.local_addr().unwrap();
        let clients = 6usize;
        let config = RuntimeConfig {
            lanes: 2,
            pipeline_depth: 3,
            cache_bytes: 1 << 14,
            max_concurrent: Some(2),
            max_connections: Some(clients),
            ..RuntimeConfig::default()
        };
        std::thread::scope(|scope| {
            let server =
                scope.spawn(|| serve_lines(&listener, &config, &TestHandler, None).unwrap());
            let mut client_handles = Vec::new();
            for c in 0..clients {
                client_handles.push(scope.spawn(move || {
                    let mut conn = TcpStream::connect(addr).unwrap();
                    for i in 0..5 {
                        writeln!(conn, "slow-{}", (c + i) % 3).unwrap();
                    }
                    conn.shutdown(std::net::Shutdown::Write).unwrap();
                    BufReader::new(conn).lines().map(|l| l.unwrap()).collect::<Vec<_>>()
                }));
            }
            for (c, handle) in client_handles.into_iter().enumerate() {
                let got = handle.join().unwrap();
                let expected: Vec<String> =
                    (0..5).map(|i| format!("echo:slow-{}", (c + i) % 3)).collect();
                assert_eq!(got, expected, "client {c}");
            }
            let report = server.join().unwrap();
            assert_eq!(report.connections, clients);
            assert_eq!(report.metrics.responses, (clients * 5) as u64);
            assert!(report.io_errors.is_empty(), "{:?}", report.io_errors);
        });
    }

    fn test_hub() -> MetricsHub {
        MetricsHub::new(1, 8, 1, 8)
    }

    #[test]
    fn fair_queue_serves_tenants_round_robin_in_submission_order() {
        let queue: FairQueue<&'static str> = FairQueue::new(8, 8);
        let hub = test_hub();
        queue.push("a", "a1").unwrap();
        queue.push("a", "a2").unwrap();
        queue.push("b", "b1").unwrap();
        queue.push("c", "c1").unwrap();
        queue.push("a", "a3").unwrap();
        queue.close();
        let mut order = Vec::new();
        while let Some(item) = queue.pop(&hub) {
            order.push(item);
        }
        // Round-robin across tenants (first submission first), FIFO
        // within each tenant.
        assert_eq!(order, vec!["a1", "b1", "c1", "a2", "a3"]);
        assert_eq!(hub.snapshot(&ResponseCache::new(0)).fair_share_violations, 0);
    }

    #[test]
    fn fair_queue_quota_blocks_only_the_offending_tenant() {
        let queue: FairQueue<u32> = FairQueue::new(8, 1);
        let hub = test_hub();
        queue.push("hog", 1).unwrap();
        // The hog is at quota; another tenant still gets in immediately.
        queue.push("other", 10).unwrap();
        std::thread::scope(|scope| {
            let blocked = scope.spawn(|| queue.push("hog", 2));
            // Give the push a moment to block, then drain one hog job:
            // the blocked producer must get through.
            std::thread::sleep(Duration::from_millis(20));
            assert!(!blocked.is_finished(), "push should block at quota");
            assert_eq!(queue.pop(&hub), Some(1));
            blocked.join().unwrap().unwrap();
        });
        assert_eq!(queue.pop(&hub), Some(10));
        assert_eq!(queue.pop(&hub), Some(2));
        assert_eq!(queue.len(), 0);
    }

    #[test]
    fn fair_queue_close_drains_then_rejects() {
        let queue: FairQueue<u32> = FairQueue::new(4, 4);
        let hub = test_hub();
        queue.push("t", 1).unwrap();
        queue.push("t", 2).unwrap();
        queue.close();
        assert_eq!(queue.push("t", 3), Err(3), "push after close must fail");
        assert_eq!(queue.pop(&hub), Some(1));
        assert_eq!(queue.pop(&hub), Some(2));
        assert_eq!(queue.pop(&hub), None);
    }

    /// Classifies tenants by the line's `<tenant>:` prefix; flooding
    /// lines sleep so a backlog builds behind them.
    struct TenantHandler;

    impl LineHandler for TenantHandler {
        fn handle(&self, _ctx: &RequestContext<'_>, line: &str, out: &mut String) -> Cacheability {
            if line.contains("slow") {
                std::thread::sleep(Duration::from_millis(5));
            }
            out.push_str("echo:");
            out.push_str(line);
            Cacheability::Uncacheable // force every request to compute
        }

        fn tenant(&self, line: &str) -> String {
            line.split(':').next().unwrap_or("").to_string()
        }
    }

    /// Serially send `lines` on one connection, reading each response
    /// before the next request.
    fn exchange_serially(addr: std::net::SocketAddr, lines: &[String]) -> Vec<String> {
        let mut conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut out = Vec::new();
        for line in lines {
            writeln!(conn, "{line}").unwrap();
            let mut response = String::new();
            reader.read_line(&mut response).unwrap();
            out.push(response.trim_end().to_string());
        }
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        out
    }

    #[test]
    fn flooding_tenant_cannot_starve_or_perturb_a_trickler() {
        let trickle_lines: Vec<String> = (0..6).map(|i| format!("trickle:req-{i}")).collect();

        // Reference: the trickler served alone.
        let listener = bind();
        let addr = listener.local_addr().unwrap();
        let config = RuntimeConfig {
            lanes: 1,
            queue_depth: 4,
            tenant_quota: 2,
            pipeline_depth: 16,
            max_connections: Some(1),
            ..RuntimeConfig::default()
        };
        let solo = std::thread::scope(|scope| {
            let server =
                scope.spawn(|| serve_lines(&listener, &config, &TenantHandler, None).unwrap());
            let got = exchange_serially(addr, &trickle_lines);
            server.join().unwrap();
            got
        });

        // Same trickle while another tenant floods well past its quota.
        let listener = bind();
        let addr = listener.local_addr().unwrap();
        let config = RuntimeConfig { max_connections: Some(2), ..config };
        let (contended, report) = std::thread::scope(|scope| {
            let server =
                scope.spawn(|| serve_lines(&listener, &config, &TenantHandler, None).unwrap());
            let flooder = scope.spawn(move || {
                let mut conn = TcpStream::connect(addr).unwrap();
                for i in 0..48 {
                    writeln!(conn, "flood:slow-{i}").unwrap();
                }
                conn.shutdown(std::net::Shutdown::Write).unwrap();
                let mut answered = 0usize;
                for line in BufReader::new(conn).lines() {
                    line.unwrap();
                    answered += 1;
                }
                answered
            });
            // Let the flood saturate its quota before trickling.
            std::thread::sleep(Duration::from_millis(20));
            let got = exchange_serially(addr, &trickle_lines);
            assert_eq!(flooder.join().unwrap(), 48, "the flood is throttled, not dropped");
            (got, server.join().unwrap())
        });

        // The flood must be invisible to the trickler's bytes, and the
        // scheduler must never have served the flood twice in a row
        // while the trickler waited.
        assert_eq!(contended, solo);
        assert_eq!(report.metrics.fair_share_violations, 0, "{:?}", report.metrics);
        assert_eq!(report.metrics.tenant_quota, 2);
    }

    #[test]
    fn trace_ids_render_as_fixed_width_hex_words() {
        assert_eq!(TraceId { conn: 1, seq: 0 }.to_string(), "00000001-00000000");
        assert_eq!(TraceId { conn: 0x1f, seq: 0xabc }.to_string(), "0000001f-00000abc");
    }

    /// Echoes with a trace stamp appended, classifying everything as
    /// kind `find` — exercises the post-cache stamping path.
    struct StampHandler;

    impl LineHandler for StampHandler {
        fn handle(&self, _ctx: &RequestContext<'_>, line: &str, out: &mut String) -> Cacheability {
            out.push_str("echo:");
            out.push_str(line);
            Cacheability::Cacheable
        }

        fn kind(&self, _line: &str) -> &'static str {
            "find"
        }

        fn stamp_trace(&self, trace: TraceId, out: &mut String) -> bool {
            out.push_str(&format!(" trace={trace}"));
            true
        }
    }

    #[test]
    fn traces_are_stamped_after_the_cache_and_counted() {
        let listener = bind();
        let addr = listener.local_addr().unwrap();
        let config = RuntimeConfig {
            lanes: 1,
            cache_bytes: 1 << 14,
            max_connections: Some(2),
            ..RuntimeConfig::default()
        };
        std::thread::scope(|scope| {
            let server =
                scope.spawn(|| serve_lines(&listener, &config, &StampHandler, None).unwrap());
            // Connection 1 fills the cache; connection 2 repeats the
            // same line, hits the cache, and must still get its *own*
            // trace — the stamp is applied after the lookup.
            let lines = vec!["repeat-me".to_string(), "only-first".to_string()];
            let got1 = exchange_serially(addr, &lines);
            assert_eq!(
                got1,
                vec![
                    "echo:repeat-me trace=00000001-00000000".to_string(),
                    "echo:only-first trace=00000001-00000001".to_string(),
                ]
            );
            let got2 = exchange_serially(addr, &lines[..1]);
            assert_eq!(got2, vec!["echo:repeat-me trace=00000002-00000000".to_string()]);
            let report = server.join().unwrap();
            assert_eq!(report.metrics.cache_hits, 1, "{:?}", report.metrics);
            assert_eq!(report.metrics.responses_traced, 3, "{:?}", report.metrics);
            // Every stage histogram observed every request; serialize
            // is handler-owned (empty for this handler) and the writer
            // also flushes once more per connection at end of input.
            for stage in &report.metrics.stage_latency {
                match stage.label.as_str() {
                    "serialize" => assert_eq!(stage.count, 0),
                    "writer_flush" => assert!(stage.count >= 3, "{}", stage.count),
                    _ => assert_eq!(stage.count, 3, "stage {}", stage.label),
                }
            }
            let kinds: Vec<(&str, u64)> =
                report.metrics.kind_latency.iter().map(|s| (s.label.as_str(), s.count)).collect();
            assert_eq!(kinds, vec![("find", 3)]);
        });
    }

    #[test]
    fn metrics_side_port_answers_scrapes_and_404s() {
        let listener = bind();
        let addr = listener.local_addr().unwrap();
        let scrape_listener = bind();
        let scrape_addr = scrape_listener.local_addr().unwrap();
        let render = |snap: &MetricsSnapshot| format!("gtl_requests_total {}\n", snap.requests);
        let exporter = MetricsExporter { listener: &scrape_listener, render: &render };
        let config =
            RuntimeConfig { lanes: 1, max_connections: Some(1), ..RuntimeConfig::default() };
        let scrape = |request: &str| {
            let mut conn = TcpStream::connect(scrape_addr).unwrap();
            write!(conn, "{request}").unwrap();
            conn.shutdown(std::net::Shutdown::Write).unwrap();
            let mut response = String::new();
            std::io::Read::read_to_string(&mut conn, &mut response).unwrap();
            response
        };
        std::thread::scope(|scope| {
            let server = scope
                .spawn(|| serve_lines(&listener, &config, &TestHandler, Some(exporter)).unwrap());
            // Scrape while the server is live (before its one allowed
            // connection shuts it down).
            let ok = scrape("GET /metrics HTTP/1.0\r\nHost: x\r\n\r\n");
            assert!(ok.starts_with("HTTP/1.0 200 OK\r\n"), "{ok:?}");
            assert!(ok.contains("Content-Type: text/plain; version=0.0.4"), "{ok:?}");
            assert!(ok.ends_with("gtl_requests_total 0\n"), "{ok:?}");
            let missing = scrape("GET /other HTTP/1.0\r\n\r\n");
            assert!(missing.starts_with("HTTP/1.0 404 Not Found\r\n"), "{missing:?}");
            // Exhaust the accept budget so the serve loop (and with it
            // the scrape thread) shuts down cleanly.
            let got = exchange_serially(addr, &["ping".to_string()]);
            assert_eq!(got, vec!["echo:ping".to_string()]);
            let report = server.join().unwrap();
            assert_eq!(report.connections, 1);
        });
    }
}
