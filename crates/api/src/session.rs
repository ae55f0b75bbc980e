//! The [`Session`]: one loaded netlist serving repeated requests.
//!
//! A session is the unit of request dispatch: it owns the [`Netlist`],
//! validates each request (version, then arguments) before any compute
//! starts, and reuses allocation-heavy scratch across requests — today
//! the finder's pruning bitset ([`gtl_tangled::PruneScratch`]), behind a
//! mutex so concurrent `serve` connections share it safely. All heavy
//! compute inside a request fans out through `gtl_core::exec` (via the
//! finder and the sharded placer), so a response is byte-identical for
//! any worker count.

use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use gtl_core::cancel::{CancelToken, Deadline};
use gtl_netlist::{bookshelf, hgr, verilog, Netlist, NetlistStats};
use gtl_place::congestion;
use gtl_tangled::{PruneScratch, TangledLogicFinder};

use crate::{
    ApiError, ErrorBody, FindRequest, FindResponse, MetricsRequest, MetricsResponse,
    MetricsTextRequest, MetricsTextResponse, NetlistSummary, PlaceRequest, PlaceResponse, Request,
    Response, RuntimeMetrics, StatsRequest, StatsResponse, API_VERSION, DEADLINE_SINCE_VERSION,
    METRICS_SINCE_VERSION, METRICS_TEXT_SINCE_VERSION, MIN_API_VERSION, SESSION_SINCE_VERSION,
};

/// Loads a netlist, selecting the parser from the file extension
/// (`.hgr` hMETIS, `.aux` Bookshelf, `.v` structural Verilog).
///
/// # Errors
///
/// [`ApiError::BadRequest`] for unknown extensions,
/// [`ApiError::Netlist`] for load/parse failures.
pub fn load_netlist(path: &str) -> Result<Netlist, ApiError> {
    match Path::new(path).extension().and_then(|e| e.to_str()) {
        Some("hgr") => Ok(hgr::read(path)?),
        Some("aux") => Ok(bookshelf::read_aux(path)?.netlist),
        Some("v") => Ok(verilog::read(path)?.netlist),
        other => Err(ApiError::bad_request(format!(
            "unsupported input extension {other:?} (expected .hgr, .aux or .v)"
        ))),
    }
}

/// Caps on remote-supplied request sizes. Requests arrive over the
/// network; without bounds a single hostile line could drive the server
/// into an allocator abort (which no thread can catch) or hours of
/// compute. The caps are far above the paper-scale workloads
/// (`m = 100` seeds, `Z = 100K` orderings, 32-tile grids).
const MAX_NUM_SEEDS: usize = 100_000;
/// Cap on [`FinderConfig::max_order_len`](gtl_tangled::FinderConfig).
const MAX_ORDER_LEN: usize = 10_000_000;
/// Cap on Phase III refinement seeds per candidate.
const MAX_REFINE_SEEDS: usize = 64;
/// Cap on the congestion grid side (a `t × t` grid allocates two
/// `t²`-f64 slabs: 2048² ≈ 67 MB).
const MAX_ROUTING_TILES: usize = 2_048;
/// Cap on placer solve/spread iterations.
const MAX_PLACER_ITERATIONS: usize = 1_000;
/// Cap on CG iterations per solve.
const MAX_CG_ITERATIONS: usize = 100_000;
/// Cap on every request-supplied worker count (`0` = all cores is always
/// allowed); each worker is an OS thread.
const MAX_THREADS: usize = 1_024;
/// Cap on the requested shard-grid side (the auto-sizer itself never
/// exceeds 16; the placer allocates per-shard state for `g²` shards).
const MAX_SHARD_GRID: usize = 64;
/// Cap on spreading recursion depth (each level is a stack frame).
const MAX_SPREAD_DEPTH: usize = 256;

/// Validates a request-supplied worker count (`0` = all cores).
fn check_threads(threads: usize, field: &str) -> Result<(), ApiError> {
    if threads > MAX_THREADS {
        return Err(ApiError::invalid_argument(format!(
            "{field} must be at most {MAX_THREADS} (0 = all cores)"
        )));
    }
    Ok(())
}

/// Builds the effective cancellation token for one request: the caller's
/// `base` token (the serve runtime's per-connection token, or a fresh
/// never-firing one for in-process dispatch), narrowed by the request's
/// `deadline_ms` anchored at `anchor` (request admission, so queue wait
/// counts against the deadline).
///
/// # Errors
///
/// [`ApiError::InvalidArgument`] when `deadline_ms` is supplied with a
/// protocol version older than [`DEADLINE_SINCE_VERSION`].
fn request_token(
    base: &CancelToken,
    v: u32,
    deadline_ms: Option<u64>,
    anchor: Instant,
) -> Result<CancelToken, ApiError> {
    match deadline_ms {
        None => Ok(base.clone()),
        Some(_) if v < DEADLINE_SINCE_VERSION => Err(ApiError::invalid_argument(format!(
            "deadline_ms requires protocol version {DEADLINE_SINCE_VERSION} (requested {v})"
        ))),
        Some(ms) => match Deadline::anchored(anchor, Duration::from_millis(ms)) {
            Some(deadline) => Ok(base.child_with_deadline(deadline)),
            // An unrepresentably far deadline is the same as none.
            None => Ok(base.clone()),
        },
    }
}

/// Validates a request's `session` field against its protocol version.
/// The field exists since [`SESSION_SINCE_VERSION`]; on older versions
/// it is rejected exactly like a pre-v3 `deadline_ms`, so v1–v3 behavior
/// stays build-independent. A session name carried on a new-enough
/// version is *resolved by the serve dispatcher* before the request
/// reaches a [`Session`]; at this level it is validation-only.
fn check_session_field(v: u32, session: Option<&str>) -> Result<(), ApiError> {
    match session {
        Some(_) if v < SESSION_SINCE_VERSION => Err(ApiError::invalid_argument(format!(
            "session requires protocol version {SESSION_SINCE_VERSION} (requested {v})"
        ))),
        _ => Ok(()),
    }
}

/// Builder for [`Session`] (see [`Session::builder`]).
#[derive(Debug, Default)]
pub struct SessionBuilder {
    netlist: Option<Netlist>,
}

impl SessionBuilder {
    /// Uses an already-built netlist.
    pub fn netlist(mut self, netlist: Netlist) -> Self {
        self.netlist = Some(netlist);
        self
    }

    /// Loads the netlist from a file (extension selects the parser).
    ///
    /// # Errors
    ///
    /// See [`load_netlist`].
    pub fn load(mut self, path: &str) -> Result<Self, ApiError> {
        self.netlist = Some(load_netlist(path)?);
        Ok(self)
    }

    /// Finishes the builder.
    ///
    /// # Errors
    ///
    /// [`ApiError::InvalidArgument`] if no netlist was provided or the
    /// netlist is empty (the finder has nothing to search).
    pub fn build(self) -> Result<Session, ApiError> {
        let netlist =
            self.netlist.ok_or_else(|| ApiError::invalid_argument("session requires a netlist"))?;
        if netlist.num_cells() == 0 {
            return Err(ApiError::invalid_argument("netlist has no cells"));
        }
        let summary = NetlistSummary::of(&netlist);
        // The netlist is immutable for the session's lifetime, so the
        // full statistics are computed once here, not per Stats request.
        let stats = NetlistStats::compute(&netlist);
        let scratch = Mutex::new(PruneScratch::new(netlist.num_cells()));
        let place_scratch = Mutex::new(gtl_place::PlaceScratch::new());
        Ok(Session { netlist, summary, stats, scratch, place_scratch })
    }
}

/// A loaded netlist plus per-session scratch, serving [`Request`]s.
///
/// # Example
///
/// ```
/// use gtl_api::{FindRequest, Session};
/// use gtl_netlist::NetlistBuilder;
/// use gtl_tangled::FinderConfig;
///
/// let mut b = NetlistBuilder::new();
/// let cells: Vec<_> = (0..8).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
/// for i in 0..7 {
///     b.add_anonymous_net([cells[i], cells[i + 1]]);
/// }
/// let session = Session::builder().netlist(b.finish()).build().unwrap();
///
/// let req = FindRequest::new(FinderConfig { num_seeds: 4, ..FinderConfig::default() });
/// let resp = session.find(&req).unwrap();
/// assert_eq!(resp.netlist.num_cells, 8);
/// ```
#[derive(Debug)]
pub struct Session {
    netlist: Netlist,
    summary: NetlistSummary,
    stats: NetlistStats,
    scratch: Mutex<PruneScratch>,
    place_scratch: Mutex<gtl_place::PlaceScratch>,
}

impl Session {
    /// Starts building a session.
    pub fn builder() -> SessionBuilder {
        SessionBuilder::default()
    }

    /// The netlist this session serves.
    pub fn netlist(&self) -> &Netlist {
        &self.netlist
    }

    /// The summary echoed in every response.
    pub fn summary(&self) -> &NetlistSummary {
        &self.summary
    }

    /// Accepts any version in [`MIN_API_VERSION`]`..=`[`API_VERSION`];
    /// successful responses echo the request's version, so clients of an
    /// older protocol receive byte-identical answers from newer builds.
    fn check_version(&self, v: u32) -> Result<(), ApiError> {
        if (MIN_API_VERSION..=API_VERSION).contains(&v) {
            Ok(())
        } else {
            Err(ApiError::UnsupportedVersion { requested: v, supported: API_VERSION })
        }
    }

    /// Runs the three-phase finder.
    ///
    /// # Errors
    ///
    /// Version and argument validation errors; never panics on bad
    /// requests (the preconditions the finder asserts are checked here
    /// and reported as [`ApiError::InvalidArgument`], and remote-supplied
    /// sizes are capped before any allocation happens — a hostile request
    /// must not be able to abort the server).
    pub fn find(&self, request: &FindRequest) -> Result<FindResponse, ApiError> {
        self.find_under(request, &CancelToken::new(), Instant::now())
    }

    /// [`Session::find`] under a caller-supplied cancellation `base`
    /// token (the serve runtime passes the connection's token) and
    /// deadline anchor. The request's `deadline_ms` (v3+) narrows the
    /// token; an already-expired deadline is answered before any compute
    /// starts, and a deadline firing mid-run aborts the finder at its
    /// next checkpoint (one seed search).
    ///
    /// # Errors
    ///
    /// Everything [`Session::find`] reports, plus
    /// [`ApiError::DeadlineExceeded`] / [`ApiError::Cancelled`].
    fn find_under(
        &self,
        request: &FindRequest,
        base: &CancelToken,
        anchor: Instant,
    ) -> Result<FindResponse, ApiError> {
        self.check_version(request.v)?;
        check_session_field(request.v, request.session.as_deref())?;
        let token = request_token(base, request.v, request.deadline_ms, anchor)?;
        // The cheap pre-compute probe: an expired deadline (or lost
        // connection) is answered here, before any lane time is spent.
        token.checkpoint().map_err(ApiError::from)?;
        let config = request.config;
        if config.num_seeds == 0 || config.num_seeds > MAX_NUM_SEEDS {
            return Err(ApiError::invalid_argument(format!(
                "config.num_seeds must be in 1..={MAX_NUM_SEEDS}"
            )));
        }
        if config.max_order_len == 0 || config.max_order_len > MAX_ORDER_LEN {
            return Err(ApiError::invalid_argument(format!(
                "config.max_order_len must be in 1..={MAX_ORDER_LEN}"
            )));
        }
        if config.refine_seeds > MAX_REFINE_SEEDS {
            return Err(ApiError::invalid_argument(format!(
                "config.refine_seeds must be at most {MAX_REFINE_SEEDS}"
            )));
        }
        check_threads(config.threads, "config.threads")?;
        let finder = TangledLogicFinder::new(&self.netlist, config);
        let result = with_scratch(
            &self.scratch,
            || PruneScratch::new(self.netlist.num_cells()),
            |scratch| finder.run_with(scratch, Some(&token)),
        )?;
        Ok(FindResponse { v: request.v, netlist: self.summary.clone(), result, trace: None })
    }

    /// Runs global placement and congestion estimation.
    ///
    /// # Errors
    ///
    /// Version and argument validation errors.
    pub fn place(&self, request: &PlaceRequest) -> Result<PlaceResponse, ApiError> {
        self.place_under(request, &CancelToken::new(), Instant::now())
    }

    /// [`Session::place`] under a caller-supplied cancellation `base`
    /// token and deadline anchor (see [`Session::find_under`]);
    /// the placer checkpoints between solve/spread iterations and the
    /// congestion estimator between tile stripes.
    ///
    /// # Errors
    ///
    /// Everything [`Session::place`] reports, plus
    /// [`ApiError::DeadlineExceeded`] / [`ApiError::Cancelled`].
    fn place_under(
        &self,
        request: &PlaceRequest,
        base: &CancelToken,
        anchor: Instant,
    ) -> Result<PlaceResponse, ApiError> {
        self.check_version(request.v)?;
        check_session_field(request.v, request.session.as_deref())?;
        let token = request_token(base, request.v, request.deadline_ms, anchor)?;
        token.checkpoint().map_err(ApiError::from)?;
        if !(request.utilization > 0.0 && request.utilization <= 1.0) {
            return Err(ApiError::invalid_argument("utilization must be in (0, 1]"));
        }
        if request.routing.tiles == 0 || request.routing.tiles > MAX_ROUTING_TILES {
            return Err(ApiError::invalid_argument(format!(
                "routing.tiles must be in 1..={MAX_ROUTING_TILES}"
            )));
        }
        if request.placer.iterations == 0 || request.placer.iterations > MAX_PLACER_ITERATIONS {
            return Err(ApiError::invalid_argument(format!(
                "placer.iterations must be in 1..={MAX_PLACER_ITERATIONS}"
            )));
        }
        if request.placer.max_cg_iterations > MAX_CG_ITERATIONS {
            return Err(ApiError::invalid_argument(format!(
                "placer.max_cg_iterations must be at most {MAX_CG_ITERATIONS}"
            )));
        }
        if request.placer.shard_grid > MAX_SHARD_GRID {
            return Err(ApiError::invalid_argument(format!(
                "placer.shard_grid must be at most {MAX_SHARD_GRID} (0 = auto)"
            )));
        }
        let spread = &request.placer.spread;
        if spread.leaf_cells == 0 || spread.max_depth > MAX_SPREAD_DEPTH {
            return Err(ApiError::invalid_argument(format!(
                "placer.spread requires leaf_cells >= 1 and max_depth <= {MAX_SPREAD_DEPTH}"
            )));
        }
        if !(spread.target_utilization > 0.0 && spread.target_utilization.is_finite()) {
            return Err(ApiError::invalid_argument(
                "placer.spread.target_utilization must be positive and finite",
            ));
        }
        check_threads(request.placer.threads, "placer.threads")?;
        check_threads(request.routing.threads, "routing.threads")?;
        let die = gtl_place::Die::for_netlist(&self.netlist, request.utilization);
        let placement =
            with_scratch(&self.place_scratch, gtl_place::PlaceScratch::new, |scratch| {
                gtl_place::place_with(&self.netlist, &die, &request.placer, Some(&token), scratch)
            })?;
        let hpwl = gtl_place::hpwl(&self.netlist, &placement);
        let map = congestion::estimate_cancellable(
            &self.netlist,
            &placement,
            &die,
            &request.routing,
            &token,
        )?;
        Ok(PlaceResponse {
            v: request.v,
            netlist: self.summary.clone(),
            die,
            hpwl,
            congestion: map.report(),
            trace: None,
        })
    }

    /// Computes whole-design statistics.
    ///
    /// # Errors
    ///
    /// Version validation errors.
    pub fn stats(&self, request: &StatsRequest) -> Result<StatsResponse, ApiError> {
        self.check_version(request.v)?;
        check_session_field(request.v, request.session.as_deref())?;
        Ok(StatsResponse { v: request.v, stats: self.stats.clone(), trace: None })
    }

    /// Builds a [`MetricsResponse`] from a runtime snapshot — called by
    /// the serve runtime, which owns the counters (see
    /// [`serve`](crate::serve())). The pair exists since protocol v2;
    /// older versions are rejected.
    ///
    /// # Errors
    ///
    /// Version validation errors.
    pub fn metrics(
        &self,
        request: &MetricsRequest,
        snapshot: gtl_runtime::MetricsSnapshot,
    ) -> Result<MetricsResponse, ApiError> {
        self.check_version(request.v)?;
        if request.v < METRICS_SINCE_VERSION {
            return Err(ApiError::invalid_argument(format!(
                "Metrics requires protocol version {METRICS_SINCE_VERSION} (requested {})",
                request.v
            )));
        }
        Ok(MetricsResponse { v: request.v, metrics: RuntimeMetrics::from(snapshot), trace: None })
    }

    /// Builds a [`MetricsTextResponse`] — the Prometheus text rendering
    /// of already-assembled (and, on the serve path, registry-overlaid)
    /// counters. The pair exists since protocol v5; older versions are
    /// rejected, like [`Session::metrics`] before v2.
    ///
    /// # Errors
    ///
    /// Version validation errors.
    pub fn metrics_text(
        &self,
        request: &MetricsTextRequest,
        metrics: &RuntimeMetrics,
    ) -> Result<MetricsTextResponse, ApiError> {
        self.check_version(request.v)?;
        if request.v < METRICS_TEXT_SINCE_VERSION {
            return Err(ApiError::invalid_argument(format!(
                "MetricsText requires protocol version {METRICS_TEXT_SINCE_VERSION} (requested {})",
                request.v
            )));
        }
        Ok(MetricsTextResponse {
            v: request.v,
            text: crate::prom::render_prometheus(metrics),
            trace: None,
        })
    }

    /// Dispatches an envelope, mapping failures onto [`Response::Error`]
    /// (this never fails — every outcome is a response).
    ///
    /// [`Request::Metrics`] is the one envelope a bare session cannot
    /// serve: the counters belong to the `gtl serve` runtime, which
    /// intercepts it before dispatch (see [`serve`](crate::serve())).
    /// Here it is answered with a structured `invalid_argument` error.
    pub fn handle(&self, request: &Request) -> Response {
        self.handle_cancellable(request, &CancelToken::new(), Instant::now())
    }

    /// [`Session::handle`] under a caller-supplied cancellation `base`
    /// token and deadline anchor: cancellation and deadline outcomes
    /// become `cancelled` / `deadline_exceeded` error responses (echoing
    /// the request's version like every other error).
    pub fn handle_cancellable(
        &self,
        request: &Request,
        base: &CancelToken,
        anchor: Instant,
    ) -> Response {
        let outcome = match request {
            Request::Find(req) => self.find_under(req, base, anchor).map(Response::Find),
            Request::Place(req) => self.place_under(req, base, anchor).map(Response::Place),
            Request::Stats(req) => self.stats(req).map(Response::Stats),
            Request::Metrics(_) | Request::MetricsText(_) => Err(ApiError::invalid_argument(
                "Metrics is served by the `gtl serve` runtime (no runtime is attached to an \
                 in-process session)",
            )),
            Request::LoadNetlist(_) | Request::UnloadNetlist(_) | Request::ListSessions(_) => {
                Err(ApiError::invalid_argument(
                    "the session registry is served by the `gtl serve` runtime (an in-process \
                     session owns exactly one netlist)",
                ))
            }
        };
        outcome.unwrap_or_else(|err| {
            let mut body = ErrorBody::from(&err);
            // Like success responses, errors echo the request's version —
            // a v1 client sees exactly the bytes a v1 build produced. A
            // version outside the supported range can't be spoken back,
            // so those errors (and parse failures, where no version is
            // known) stamp the build's own API_VERSION.
            if !matches!(err, ApiError::UnsupportedVersion { .. }) {
                body.v = request.v();
            }
            Response::Error(body)
        })
    }

    /// The full wire round-trip for one JSON line: parse, dispatch,
    /// serialize. Malformed input becomes a `bad_request` error response;
    /// the returned string is always exactly one JSON document with no
    /// trailing newline.
    ///
    /// Determinism contract: the same input line always yields the same
    /// output bytes, for any `threads` value in the request and any
    /// machine — requests fan out through `gtl_core::exec` and the JSON
    /// renderer is deterministic.
    pub fn handle_line(&self, line: &str) -> String {
        let response = match serde::json::from_str::<Request>(line) {
            Ok(request) => self.handle(&request),
            Err(e) => Response::Error(ErrorBody::from(&ApiError::bad_request(e.to_string()))),
        };
        serde::json::to_string(&response)
    }
}

/// Runs `f` on a session's cached scratch when it is free; under
/// contention runs it on `fresh()` instead of serializing concurrent
/// requests behind the mutex. The scratch is a pure allocation cache
/// whose contents on entry every run ignores, so the result is identical
/// either way — which is also why a poisoned lock is simply recovered.
fn with_scratch<S, R>(
    cache: &Mutex<S>,
    fresh: impl FnOnce() -> S,
    f: impl FnOnce(&mut S) -> R,
) -> R {
    match cache.try_lock() {
        Ok(mut scratch) => f(&mut scratch),
        Err(std::sync::TryLockError::Poisoned(poisoned)) => f(&mut poisoned.into_inner()),
        Err(std::sync::TryLockError::WouldBlock) => f(&mut fresh()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gtl_netlist::NetlistBuilder;
    use gtl_tangled::FinderConfig;

    fn two_cliques() -> Netlist {
        let mut b = NetlistBuilder::new();
        let cells: Vec<_> = (0..40).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
        for base in [0, 20] {
            for i in 0..8 {
                for j in (i + 1)..8 {
                    b.add_anonymous_net([cells[base + i], cells[base + j]]);
                }
            }
        }
        for i in 0..40 {
            b.add_anonymous_net([cells[i], cells[(i + 1) % 40]]);
        }
        b.finish()
    }

    fn session() -> Session {
        Session::builder().netlist(two_cliques()).build().unwrap()
    }

    fn find_request() -> FindRequest {
        FindRequest::new(FinderConfig {
            num_seeds: 12,
            min_size: 4,
            max_order_len: 24,
            rng_seed: 7,
            ..FinderConfig::default()
        })
    }

    #[test]
    fn find_discovers_structures() {
        let resp = session().find(&find_request()).unwrap();
        assert_eq!(resp.v, API_VERSION);
        assert_eq!(resp.netlist.num_cells, 40);
        assert!(!resp.result.gtls.is_empty());
    }

    #[test]
    fn version_mismatch_is_structured() {
        let mut req = find_request();
        req.v = 99;
        let err = session().find(&req).unwrap_err();
        assert_eq!(err.code(), "unsupported_version");
    }

    #[test]
    fn invalid_arguments_do_not_panic() {
        let s = session();
        let mut req = find_request();
        req.config.num_seeds = 0;
        assert_eq!(s.find(&req).unwrap_err().code(), "invalid_argument");

        // Remote-supplied sizes are capped before any allocation.
        req.config.num_seeds = usize::MAX;
        assert_eq!(s.find(&req).unwrap_err().code(), "invalid_argument");

        let mut preq = PlaceRequest::new();
        preq.utilization = 0.0;
        assert_eq!(s.place(&preq).unwrap_err().code(), "invalid_argument");
        preq.utilization = f64::NAN;
        assert_eq!(s.place(&preq).unwrap_err().code(), "invalid_argument");
        preq.utilization = 0.7;
        preq.routing.tiles = usize::MAX;
        assert_eq!(s.place(&preq).unwrap_err().code(), "invalid_argument");
        preq.routing.tiles = 16;
        preq.placer.shard_grid = usize::MAX;
        assert_eq!(s.place(&preq).unwrap_err().code(), "invalid_argument");
        preq.placer.shard_grid = 0;
        preq.placer.threads = usize::MAX;
        assert_eq!(s.place(&preq).unwrap_err().code(), "invalid_argument");
        preq.placer.threads = 0;
        preq.placer.spread.leaf_cells = 0;
        assert_eq!(s.place(&preq).unwrap_err().code(), "invalid_argument");
        preq.placer.spread.leaf_cells = 12;
        preq.placer.spread.max_depth = usize::MAX;
        assert_eq!(s.place(&preq).unwrap_err().code(), "invalid_argument");

        let mut freq = find_request();
        freq.config.threads = usize::MAX;
        assert_eq!(s.find(&freq).unwrap_err().code(), "invalid_argument");
    }

    #[test]
    fn place_and_stats_answer() {
        let s = session();
        let place = s.place(&PlaceRequest::new()).unwrap();
        assert!(place.hpwl > 0.0);
        assert!(place.die.width > 0.0);
        let stats = s.stats(&StatsRequest::new()).unwrap();
        assert_eq!(stats.stats.num_cells, 40);
    }

    #[test]
    fn error_responses_echo_a_supported_request_version() {
        let s = session();
        // A v1 request failing validation answers with v:1 — the bytes a
        // v1 build produced.
        let mut req = find_request();
        req.v = 1;
        req.config.num_seeds = 0;
        let Response::Error(body) = s.handle(&Request::Find(req)) else {
            panic!("expected error response");
        };
        assert_eq!(body.v, 1);
        assert_eq!(body.code, "invalid_argument");
        // An unsupported version can't be spoken back: the build's own
        // version is stamped, and the message names the range.
        let mut req = find_request();
        req.v = 99;
        let Response::Error(body) = s.handle(&Request::Find(req)) else {
            panic!("expected error response");
        };
        assert_eq!(body.v, API_VERSION);
        assert!(body.message.contains("1..=5"), "{}", body.message);
    }

    #[test]
    fn handle_never_fails() {
        let s = session();
        let mut req = find_request();
        req.v = API_VERSION + 1;
        let Response::Error(body) = s.handle(&Request::Find(req)) else {
            panic!("expected error response");
        };
        assert_eq!(body.code, "unsupported_version");
    }

    #[test]
    fn handle_line_is_total_and_deterministic() {
        let s = session();
        let line = serde::json::to_string(&Request::Find(find_request()));
        let a = s.handle_line(&line);
        let b = s.handle_line(&line);
        assert_eq!(a, b);
        assert!(a.starts_with("{\"Find\":{\"v\":5,"), "{a}");
        // A v1 request is still accepted and echoes v1 — the golden
        // round-trip from the v1 protocol stays byte-identical (an
        // in-process session stamps no trace for any version).
        let v1 = s.handle_line(&line.replacen("\"v\":5", "\"v\":1", 1));
        assert!(v1.starts_with("{\"Find\":{\"v\":1,"), "{v1}");
        assert_eq!(v1.replacen("\"v\":1", "\"v\":5", 1), a);

        let err = s.handle_line("this is not json");
        assert!(err.contains("\"code\":\"bad_request\""), "{err}");
    }

    #[test]
    fn expired_deadline_answers_deadline_exceeded_before_compute() {
        let s = session();
        let mut req = find_request();
        req.deadline_ms = Some(0);
        let err = s.find(&req).unwrap_err();
        assert_eq!(err.code(), "deadline_exceeded");
        assert_eq!(err.exit_code(), 4);

        let mut preq = PlaceRequest::new();
        preq.deadline_ms = Some(0);
        assert_eq!(s.place(&preq).unwrap_err().code(), "deadline_exceeded");
    }

    #[test]
    fn deadline_ms_requires_protocol_v3() {
        let s = session();
        for v in [1, 2] {
            let mut req = find_request();
            req.v = v;
            req.deadline_ms = Some(5_000);
            let err = s.find(&req).unwrap_err();
            assert_eq!(err.code(), "invalid_argument", "v={v}");
            assert!(err.message().contains("deadline_ms"), "{}", err.message());
        }
    }

    #[test]
    fn generous_deadline_leaves_the_response_identical() {
        let s = session();
        let plain = serde::json::to_string(&s.find(&find_request()).unwrap());
        let mut req = find_request();
        req.deadline_ms = Some(3_600_000);
        let with_deadline = serde::json::to_string(&s.find(&req).unwrap());
        assert_eq!(plain, with_deadline);
        // An absurdly far deadline saturates to "no deadline".
        req.deadline_ms = Some(u64::MAX);
        assert_eq!(plain, serde::json::to_string(&s.find(&req).unwrap()));
    }

    #[test]
    fn busy_or_poisoned_scratch_leaves_responses_identical() {
        let s = session();
        let find = serde::json::to_string(&Request::Find(find_request()));
        let place = serde::json::to_string(&Request::Place(PlaceRequest::new()));
        let expected = [s.handle_line(&find), s.handle_line(&place)];
        // Held locks: both requests run on fresh scratch.
        {
            let _finder = s.scratch.lock().unwrap();
            let _placer = s.place_scratch.lock().unwrap();
            assert_eq!([s.handle_line(&find), s.handle_line(&place)], expected);
        }
        // Poisoned locks: both requests recover the cached scratch.
        std::thread::scope(|scope| {
            let poison = scope.spawn(|| {
                let _finder = s.scratch.lock().unwrap();
                let _placer = s.place_scratch.lock().unwrap();
                panic!("poison the scratch locks");
            });
            assert!(poison.join().is_err());
        });
        assert!(s.scratch.is_poisoned() && s.place_scratch.is_poisoned());
        assert_eq!([s.handle_line(&find), s.handle_line(&place)], expected);
    }

    #[test]
    fn cancelled_base_token_reaches_the_dispatch() {
        let s = session();
        let base = CancelToken::new();
        base.cancel();
        let err = s.find_under(&find_request(), &base, Instant::now()).unwrap_err();
        assert_eq!(err.code(), "cancelled");
        // Through the envelope path the outcome is an error *response*
        // echoing the request's version.
        let mut req = find_request();
        req.v = 1;
        let Response::Error(body) =
            s.handle_cancellable(&Request::Find(req), &base, Instant::now())
        else {
            panic!("expected error response");
        };
        assert_eq!(body.code, "cancelled");
        assert_eq!(body.v, 1);
    }

    #[test]
    fn scratch_reuse_does_not_change_results() {
        let s = session();
        let first = format!("{:?}", s.find(&find_request()).unwrap().result);
        let second = format!("{:?}", s.find(&find_request()).unwrap().result);
        assert_eq!(first, second);
    }

    #[test]
    fn session_field_requires_protocol_v4() {
        let s = session();
        for v in [1, 2, 3] {
            let mut req = find_request();
            req.v = v;
            req.session = Some("other".into());
            let err = s.find(&req).unwrap_err();
            assert_eq!(err.code(), "invalid_argument", "v={v}");
            assert!(err.message().contains("session"), "{}", err.message());

            let mut preq = PlaceRequest::new();
            preq.v = v;
            preq.session = Some("other".into());
            assert_eq!(s.place(&preq).unwrap_err().code(), "invalid_argument", "v={v}");

            let sreq = StatsRequest { v, session: Some("other".into()) };
            assert_eq!(s.stats(&sreq).unwrap_err().code(), "invalid_argument", "v={v}");
        }
    }

    #[test]
    fn v4_session_field_is_dispatcher_resolved_not_session_rejected() {
        // By the time a request reaches a Session, the serve dispatcher
        // has already resolved the name to this very session, so the
        // field is accepted and the response is byte-identical to the
        // session-less request (minus request bytes, which differ).
        let s = session();
        let plain = serde::json::to_string(&s.stats(&StatsRequest::new()).unwrap());
        let addressed = StatsRequest { v: API_VERSION, session: Some("default".into()) };
        assert_eq!(plain, serde::json::to_string(&s.stats(&addressed).unwrap()));
    }

    #[test]
    fn registry_requests_rejected_in_process() {
        let s = session();
        for req in [
            Request::LoadNetlist(crate::LoadNetlistRequest::new("a", "a.hgr")),
            Request::UnloadNetlist(crate::UnloadNetlistRequest::new("a")),
            Request::ListSessions(crate::ListSessionsRequest::new()),
        ] {
            let Response::Error(body) = s.handle(&req) else {
                panic!("expected error response");
            };
            assert_eq!(body.code, "invalid_argument");
            assert!(body.message.contains("registry"), "{}", body.message);
        }
    }

    #[test]
    fn empty_netlist_rejected_at_build() {
        let err = Session::builder().netlist(NetlistBuilder::new().finish()).build().unwrap_err();
        assert_eq!(err.code(), "invalid_argument");
        let err = Session::builder().build().unwrap_err();
        assert_eq!(err.code(), "invalid_argument");
    }
}
