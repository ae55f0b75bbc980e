//! The [`SessionDispatcher`]: multi-netlist session serving on top of
//! the runtime's [`Registry`].
//!
//! `gtl serve` starts with one netlist — the **default session**, which
//! lives outside the registry, can never be unloaded or evicted, and
//! answers every request that carries no `session` field exactly as
//! every pre-v4 build did, byte for byte. Protocol v4 adds named
//! sessions on top: [`LoadNetlistRequest`] registers a netlist from the
//! server's netlist directory under a name, [`UnloadNetlistRequest`]
//! removes it, [`ListSessionsRequest`] enumerates residents, and the
//! compute requests (Find/Place/Stats) grow an optional `session` field
//! addressing a named session.
//!
//! # Invariants
//!
//! * **Deterministic eviction.** The registry is byte- and
//!   entry-budgeted; a load that does not fit evicts the coldest
//!   sessions in strict LRU order and reports every victim in its
//!   response, so eviction is a pure function of the operation order —
//!   never of lane count or timing.
//! * **Drain, never abort.** Unloading (or evicting) a session only
//!   drops the registry's reference. Requests already dispatched against
//!   it hold their own [`Arc`] and finish normally; the memory is
//!   released when the last one drops it.
//! * **Cache transparency per session, never across sessions.** The
//!   response-cache key for a session-addressed line is prefixed with
//!   the session's registry *generation* — monotonically increasing and
//!   never reused — so a reload under the same name can never be
//!   answered with the previous load's bytes, while byte-identical
//!   requests against one load keep hitting.

use std::borrow::Cow;
use std::path::{Component, Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use gtl_core::cancel::CancelToken;
use gtl_netlist::Netlist;
use gtl_runtime::{MetricsSnapshot, Registry, RegistryStats};

use crate::{
    load_netlist, ApiError, ErrorBody, ListSessionsRequest, ListSessionsResponse,
    LoadNetlistRequest, LoadNetlistResponse, MetricsRequest, MetricsResponse, MetricsTextRequest,
    MetricsTextResponse, Request, Response, Session, SessionInfo, UnloadNetlistRequest,
    UnloadNetlistResponse, API_VERSION, MIN_API_VERSION, SESSION_SINCE_VERSION,
};

/// The reserved name of the netlist the server was started with. It is
/// addressable (`"session":"default"` behaves like an absent `session`
/// field) but can never be loaded over, unloaded or evicted.
pub const DEFAULT_SESSION: &str = "default";

/// Deterministic byte-cost estimate of a resident netlist session,
/// charged against the registry budget: per-cell, per-net and per-pin
/// footprints of the CSR storage plus session scratch, and a flat
/// overhead. An estimate (not an allocator measurement) keeps eviction
/// decisions identical on every platform and allocator.
pub fn netlist_cost(netlist: &Netlist) -> usize {
    1024 + 64 * netlist.num_cells() + 48 * netlist.num_nets() + 16 * netlist.num_pins()
}

/// Builds the error response for a failed request, echoing the
/// requested version exactly like [`Session::handle_cancellable`] does.
fn error_response(err: &ApiError, requested_v: u32) -> Response {
    let mut body = ErrorBody::from(err);
    if !matches!(err, ApiError::UnsupportedVersion { .. }) {
        body.v = requested_v;
    }
    Response::Error(body)
}

/// Validates the version of a registry-administration request: the pair
/// must be a supported version *and* at least [`SESSION_SINCE_VERSION`]
/// (the same gate the Metrics pair applies with
/// [`METRICS_SINCE_VERSION`](crate::METRICS_SINCE_VERSION)).
fn check_admin_version(v: u32, what: &str) -> Result<(), ApiError> {
    if !(MIN_API_VERSION..=API_VERSION).contains(&v) {
        return Err(ApiError::UnsupportedVersion { requested: v, supported: API_VERSION });
    }
    if v < SESSION_SINCE_VERSION {
        return Err(ApiError::invalid_argument(format!(
            "{what} requires protocol version {SESSION_SINCE_VERSION} (requested {v})"
        )));
    }
    Ok(())
}

/// A default [`Session`] plus a budgeted [`Registry`] of named sessions,
/// dispatching [`Request`]s to whichever session they address.
///
/// This is the layer `gtl serve` actually runs: it owns session
/// *resolution* (names, generations, the registry), while each
/// [`Session`] owns request *validation and compute*.
///
/// # Example
///
/// ```
/// use gtl_api::{SessionDispatcher, ListSessionsRequest, Session};
/// use gtl_netlist::NetlistBuilder;
///
/// let mut b = NetlistBuilder::new();
/// let cells: Vec<_> = (0..4).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
/// b.add_anonymous_net(cells.clone());
/// let session = Session::builder().netlist(b.finish()).build().unwrap();
///
/// let dispatcher = SessionDispatcher::new(&session, 4, 0, None);
/// let listed = dispatcher.list(&ListSessionsRequest::new()).unwrap();
/// assert_eq!(listed.sessions.len(), 1); // just the default session
/// assert_eq!(listed.sessions[0].name, "default");
/// assert_eq!(listed.sessions[0].generation, 0);
/// ```
#[derive(Debug)]
pub struct SessionDispatcher<'s> {
    default: &'s Session,
    registry: Registry<Session>,
    netlist_dir: Option<PathBuf>,
}

impl<'s> SessionDispatcher<'s> {
    /// Creates a dispatcher over `default` with a registry capped at
    /// `max_netlists` named sessions (`0` = unlimited) and
    /// `registry_bytes` estimated bytes (`0` = unlimited). `netlist_dir`
    /// is the only directory [`LoadNetlistRequest`] paths may resolve
    /// into; without one, loading is rejected.
    pub fn new(
        default: &'s Session,
        max_netlists: usize,
        registry_bytes: usize,
        netlist_dir: Option<PathBuf>,
    ) -> Self {
        Self { default, registry: Registry::new(max_netlists, registry_bytes), netlist_dir }
    }

    /// The default session this dispatcher wraps.
    pub fn default_session(&self) -> &'s Session {
        self.default
    }

    /// A snapshot of the registry's occupancy and counters.
    pub fn registry_stats(&self) -> RegistryStats {
        self.registry.stats()
    }

    /// Looks up a named *registry* session (promoting it to
    /// most-recently-used), returning the shared session and its
    /// generation. The default session lives outside the registry — use
    /// [`SessionDispatcher::default_session`].
    pub fn session(&self, name: &str) -> Option<(Arc<Session>, u64)> {
        self.registry.get(name)
    }

    /// Resolves a [`LoadNetlistRequest`] path inside the configured
    /// netlist directory. Absolute paths and any non-plain component
    /// (`..`, `.`, prefixes) are rejected so remote clients can never
    /// address files outside the directory.
    fn resolve_path(&self, path: &str) -> Result<PathBuf, ApiError> {
        let dir = self.netlist_dir.as_deref().ok_or_else(|| {
            ApiError::invalid_argument(
                "this server has no netlist directory (start `gtl serve` with --netlist-dir to \
                 allow LoadNetlist)",
            )
        })?;
        let rel = Path::new(path);
        let confined = !path.is_empty()
            && !rel.is_absolute()
            && rel.components().all(|c| matches!(c, Component::Normal(_)));
        if !confined {
            return Err(ApiError::invalid_argument(format!(
                "netlist path {path:?} must be relative to the server's netlist directory, \
                 without `..` components"
            )));
        }
        Ok(dir.join(rel))
    }

    /// Serves a [`LoadNetlistRequest`]: reads the netlist, builds a
    /// session, and registers it — deterministically evicting the
    /// coldest sessions if the registry budget requires it (every
    /// victim is named in the response).
    ///
    /// # Errors
    ///
    /// Version gating, name/path validation, netlist load failures, and
    /// `invalid_argument` when the netlist alone exceeds the registry's
    /// byte budget.
    pub fn load(&self, request: &LoadNetlistRequest) -> Result<LoadNetlistResponse, ApiError> {
        check_admin_version(request.v, "LoadNetlist")?;
        if request.name.is_empty() {
            return Err(ApiError::invalid_argument("session name must not be empty"));
        }
        if request.name == DEFAULT_SESSION {
            return Err(ApiError::invalid_argument(
                "the session name \"default\" is reserved for the netlist the server was \
                 started with",
            ));
        }
        let path = self.resolve_path(&request.path)?;
        let path = path
            .to_str()
            .ok_or_else(|| ApiError::invalid_argument("netlist path is not valid UTF-8"))?;
        let netlist = load_netlist(path)?;
        let cost = netlist_cost(&netlist);
        let session = Session::builder().netlist(netlist).build()?;
        let summary = session.summary().clone();
        let outcome = self
            .registry
            .insert(&request.name, session, cost)
            .map_err(|e| ApiError::invalid_argument(e.to_string()))?;
        Ok(LoadNetlistResponse {
            v: request.v,
            session: SessionInfo {
                name: request.name.clone(),
                generation: outcome.generation,
                netlist: summary,
            },
            replaced: outcome.replaced,
            evicted: outcome.evicted.iter().map(|name| name.to_string()).collect(),
            trace: None,
        })
    }

    /// Serves an [`UnloadNetlistRequest`]. Unloading drops only the
    /// registry's reference — in-flight requests against the session
    /// drain normally.
    ///
    /// # Errors
    ///
    /// Version gating, the reserved default name, and
    /// [`ApiError::UnknownSession`] when nothing is registered under
    /// the name.
    pub fn unload(
        &self,
        request: &UnloadNetlistRequest,
    ) -> Result<UnloadNetlistResponse, ApiError> {
        check_admin_version(request.v, "UnloadNetlist")?;
        if request.name == DEFAULT_SESSION {
            return Err(ApiError::invalid_argument("the default session cannot be unloaded"));
        }
        match self.registry.remove(&request.name) {
            Some(_session) => {
                Ok(UnloadNetlistResponse { v: request.v, name: request.name.clone(), trace: None })
            }
            None => Err(ApiError::unknown_session(&request.name)),
        }
    }

    /// Serves a [`ListSessionsRequest`]: the default session first, then
    /// every registered session sorted by name.
    ///
    /// # Errors
    ///
    /// Version gating.
    pub fn list(&self, request: &ListSessionsRequest) -> Result<ListSessionsResponse, ApiError> {
        check_admin_version(request.v, "ListSessions")?;
        let mut sessions = vec![SessionInfo {
            name: DEFAULT_SESSION.to_string(),
            generation: 0,
            netlist: self.default.summary().clone(),
        }];
        sessions.extend(self.registry.list().into_iter().map(|entry| SessionInfo {
            name: entry.name.to_string(),
            generation: entry.generation,
            netlist: entry.value.summary().clone(),
        }));
        Ok(ListSessionsResponse { v: request.v, sessions, trace: None })
    }

    /// Builds a [`MetricsResponse`] from a runtime snapshot, overlaying
    /// the registry counters the runtime cannot see (the registry lives
    /// in this crate).
    ///
    /// # Errors
    ///
    /// Version validation (the pair is v2+).
    pub fn metrics(
        &self,
        request: &MetricsRequest,
        snapshot: MetricsSnapshot,
    ) -> Result<MetricsResponse, ApiError> {
        let mut response = self.default.metrics(request, snapshot)?;
        response.metrics = self.overlay_registry(response.metrics);
        Ok(response)
    }

    /// The complete [`RuntimeMetrics`](crate::RuntimeMetrics) view for a runtime snapshot:
    /// the wire mirror of the snapshot plus the registry counters only
    /// this crate can see. Every export path — the v2+ `Metrics` pair,
    /// the v5+ `MetricsText` pair, the Prometheus side-port scrape and
    /// the serve exit summary — goes through here, so they can never
    /// disagree on a counter.
    pub fn runtime_metrics(&self, snapshot: MetricsSnapshot) -> crate::RuntimeMetrics {
        self.overlay_registry(crate::RuntimeMetrics::from(snapshot))
    }

    fn overlay_registry(&self, mut metrics: crate::RuntimeMetrics) -> crate::RuntimeMetrics {
        let stats = self.registry.stats();
        metrics.sessions_active = stats.entries;
        metrics.sessions_loaded = stats.loads;
        metrics.sessions_evicted = stats.evictions;
        metrics.sessions_unloaded = stats.unloads;
        metrics.registry_bytes = stats.bytes;
        metrics.registry_capacity_bytes = stats.capacity_bytes;
        metrics
    }

    /// Builds a [`MetricsTextResponse`] — the registry-overlaid counters
    /// rendered as Prometheus text ([`crate::prom::render_prometheus`]).
    ///
    /// # Errors
    ///
    /// Version validation (the pair is v5+).
    pub fn metrics_text(
        &self,
        request: &MetricsTextRequest,
        snapshot: MetricsSnapshot,
    ) -> Result<MetricsTextResponse, ApiError> {
        let metrics = self.runtime_metrics(snapshot);
        self.default.metrics_text(request, &metrics)
    }

    /// Dispatches an envelope to the session it addresses, mapping
    /// failures onto [`Response::Error`] (this never fails). The
    /// counterpart of [`Session::handle_cancellable`], one level up:
    ///
    /// * registry administration requests are served here;
    /// * a compute request carrying a `session` name (v4+) resolves it
    ///   against the registry ([`unknown_session`](ApiError::UnknownSession)
    ///   if absent), `"default"` and an absent field resolve to the
    ///   default session;
    /// * a `session` name on a pre-v4 version reaches the default
    ///   session unresolved and is rejected there with
    ///   `invalid_argument`, keeping frozen-version behavior
    ///   build-independent.
    ///
    /// [`Request::Metrics`] and [`Request::MetricsText`] are still the
    /// serve runtime's job (it owns the counters — see
    /// [`SessionDispatcher::metrics`] and
    /// [`SessionDispatcher::metrics_text`]); here they fall through to
    /// the default session's structured error.
    pub fn handle_cancellable(
        &self,
        request: &Request,
        base: &CancelToken,
        anchor: Instant,
    ) -> Response {
        match request {
            Request::LoadNetlist(req) => self
                .load(req)
                .map(Response::LoadNetlist)
                .unwrap_or_else(|err| error_response(&err, req.v)),
            Request::UnloadNetlist(req) => self
                .unload(req)
                .map(Response::UnloadNetlist)
                .unwrap_or_else(|err| error_response(&err, req.v)),
            Request::ListSessions(req) => self
                .list(req)
                .map(Response::ListSessions)
                .unwrap_or_else(|err| error_response(&err, req.v)),
            Request::Find(_)
            | Request::Place(_)
            | Request::Stats(_)
            | Request::Metrics(_)
            | Request::MetricsText(_) => {
                let v = request.v();
                match request.session() {
                    Some(name)
                        if (SESSION_SINCE_VERSION..=API_VERSION).contains(&v)
                            && name != DEFAULT_SESSION =>
                    {
                        match self.registry.get(name) {
                            Some((session, _generation)) => {
                                session.handle_cancellable(request, base, anchor)
                            }
                            None => error_response(&ApiError::unknown_session(name), v),
                        }
                    }
                    // Absent, "default", or a version the field doesn't
                    // exist in (the session rejects the latter).
                    _ => self.default.handle_cancellable(request, base, anchor),
                }
            }
        }
    }

    /// [`SessionDispatcher::handle_cancellable`] without external
    /// cancellation, for in-process dispatch.
    pub fn handle(&self, request: &Request) -> Response {
        self.handle_cancellable(request, &CancelToken::new(), Instant::now())
    }

    /// The response-cache key for a request line: the raw line bytes,
    /// except for a line addressing a *resolvable* named session (v4+),
    /// whose key is prefixed with `s<generation>:`. Generations are
    /// monotonic and never reused, so a reload under the same name keys
    /// differently and can never serve the previous load's bytes —
    /// cache transparency holds per session, never across sessions. A
    /// line addressing an unknown session keeps the raw key; it answers
    /// an error, which is never cached.
    pub fn cache_key<'a>(&self, line: &'a str) -> Cow<'a, [u8]> {
        // A session-addressed line necessarily contains the key token
        // verbatim; everything else takes this zero-cost path.
        if !line.contains("\"session\"") {
            return Cow::Borrowed(line.as_bytes());
        }
        let Ok(request) = serde::json::from_str::<Request>(line) else {
            return Cow::Borrowed(line.as_bytes());
        };
        match request.session() {
            Some(name) if (SESSION_SINCE_VERSION..=API_VERSION).contains(&request.v()) => {
                let generation = if name == DEFAULT_SESSION {
                    Some(0)
                } else {
                    self.registry.get(name).map(|(_, generation)| generation)
                };
                match generation {
                    Some(generation) => Cow::Owned(format!("s{generation}:{line}").into_bytes()),
                    None => Cow::Borrowed(line.as_bytes()),
                }
            }
            _ => Cow::Borrowed(line.as_bytes()),
        }
    }

    /// The fair-share admission tenant of a request line: the session it
    /// addresses (compute requests via their `session` field, load and
    /// unload via their target name). Default-session traffic,
    /// ListSessions, Metrics and unparseable lines share the anonymous
    /// `""` tenant.
    pub fn tenant(&self, line: &str) -> String {
        if !line.contains("\"session\"") && !line.contains("\"name\"") {
            return String::new();
        }
        match serde::json::from_str::<Request>(line) {
            Ok(Request::LoadNetlist(req)) => req.name,
            Ok(Request::UnloadNetlist(req)) => req.name,
            Ok(request) => request.session().unwrap_or_default().to_string(),
            Err(_) => String::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FindRequest, StatsRequest};
    use gtl_netlist::NetlistBuilder;
    use gtl_tangled::FinderConfig;

    /// A ring of `n` cells, as a Session.
    fn ring_session(n: usize) -> Session {
        Session::builder().netlist(ring(n)).build().unwrap()
    }

    fn ring(n: usize) -> Netlist {
        let mut b = NetlistBuilder::new();
        let cells: Vec<_> = (0..n).map(|i| b.add_cell(format!("c{i}"), 1.0)).collect();
        for i in 0..n {
            b.add_anonymous_net([cells[i], cells[(i + 1) % n]]);
        }
        b.finish()
    }

    /// Writes a ring netlist of `n` cells as `<name>.hgr` under a fresh
    /// per-test directory; returns the directory.
    fn netlist_dir(test: &str, rings: &[(&str, usize)]) -> PathBuf {
        let dir = gtl_core::testdir::test_dir("gtl_api_registry", test);
        for (name, n) in rings {
            let mut text = format!("{n} {n}\n");
            for i in 0..*n {
                text.push_str(&format!("{} {}\n", i + 1, (i + 1) % n + 1));
            }
            std::fs::write(dir.join(format!("{name}.hgr")), text).unwrap();
        }
        dir
    }

    #[test]
    fn load_list_unload_round_trip() {
        let default = ring_session(8);
        let dir = netlist_dir("round_trip", &[("a", 6), ("b", 10)]);
        let d = SessionDispatcher::new(&default, 0, 0, Some(dir));

        let a = d.load(&LoadNetlistRequest::new("a", "a.hgr")).unwrap();
        assert_eq!(a.session.name, "a");
        assert_eq!(a.session.generation, 1);
        assert_eq!(a.session.netlist.num_cells, 6);
        assert!(!a.replaced);
        assert!(a.evicted.is_empty());
        let b = d.load(&LoadNetlistRequest::new("b", "b.hgr")).unwrap();
        assert_eq!(b.session.generation, 2);

        let listed = d.list(&ListSessionsRequest::new()).unwrap();
        let names: Vec<&str> = listed.sessions.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["default", "a", "b"]);
        assert_eq!(listed.sessions[0].generation, 0);

        let unloaded = d.unload(&UnloadNetlistRequest::new("a")).unwrap();
        assert_eq!(unloaded.name, "a");
        let listed = d.list(&ListSessionsRequest::new()).unwrap();
        assert_eq!(listed.sessions.len(), 2);
        assert_eq!(
            d.unload(&UnloadNetlistRequest::new("a")).unwrap_err().code(),
            "unknown_session"
        );
    }

    #[test]
    fn session_addressed_requests_resolve_against_the_registry() {
        let default = ring_session(8);
        let dir = netlist_dir("resolve", &[("small", 5)]);
        let d = SessionDispatcher::new(&default, 0, 0, Some(dir));
        d.load(&LoadNetlistRequest::new("small", "small.hgr")).unwrap();

        let mut req = StatsRequest::new();
        req.session = Some("small".into());
        let Response::Stats(resp) = d.handle(&Request::Stats(req)) else {
            panic!("expected stats response");
        };
        assert_eq!(resp.stats.num_cells, 5);

        // Absent and "default" both reach the default session.
        let Response::Stats(resp) = d.handle(&Request::Stats(StatsRequest::new())) else {
            panic!("expected stats response");
        };
        assert_eq!(resp.stats.num_cells, 8);
        let mut req = StatsRequest::new();
        req.session = Some(DEFAULT_SESSION.into());
        let Response::Stats(resp) = d.handle(&Request::Stats(req)) else {
            panic!("expected stats response");
        };
        assert_eq!(resp.stats.num_cells, 8);

        // Unknown names answer unknown_session, echoing the version.
        let mut req = StatsRequest::new();
        req.v = SESSION_SINCE_VERSION;
        req.session = Some("missing".into());
        let Response::Error(body) = d.handle(&Request::Stats(req)) else {
            panic!("expected error response");
        };
        assert_eq!(body.code, "unknown_session");
        assert_eq!(body.v, SESSION_SINCE_VERSION);
        assert!(body.message.contains("missing"), "{}", body.message);
    }

    #[test]
    fn admin_requests_gate_on_protocol_v4() {
        let default = ring_session(8);
        let dir = netlist_dir("admin_gate", &[("a", 5)]);
        let d = SessionDispatcher::new(&default, 0, 0, Some(dir));
        for v in 1..SESSION_SINCE_VERSION {
            let mut req = LoadNetlistRequest::new("a", "a.hgr");
            req.v = v;
            let err = d.load(&req).unwrap_err();
            assert_eq!(err.code(), "invalid_argument", "v={v}");
            assert!(err.message().contains("protocol version 4"), "{}", err.message());
            let mut req = UnloadNetlistRequest::new("a");
            req.v = v;
            assert_eq!(d.unload(&req).unwrap_err().code(), "invalid_argument", "v={v}");
            let mut req = ListSessionsRequest::new();
            req.v = v;
            assert_eq!(d.list(&req).unwrap_err().code(), "invalid_argument", "v={v}");
        }
        let mut req = ListSessionsRequest::new();
        req.v = API_VERSION + 1;
        assert_eq!(d.list(&req).unwrap_err().code(), "unsupported_version");
    }

    #[test]
    fn load_paths_are_confined_to_the_netlist_dir() {
        let default = ring_session(8);
        let dir = netlist_dir("confined", &[("a", 5)]);
        let d = SessionDispatcher::new(&default, 0, 0, Some(dir));
        for path in ["/etc/passwd", "../a.hgr", "sub/../../a.hgr", "", "./a.hgr"] {
            let err = d.load(&LoadNetlistRequest::new("x", path)).unwrap_err();
            assert_eq!(err.code(), "invalid_argument", "path={path:?}");
        }
        // Without a netlist dir, loading is rejected outright.
        let closed = SessionDispatcher::new(&default, 0, 0, None);
        let err = closed.load(&LoadNetlistRequest::new("x", "a.hgr")).unwrap_err();
        assert_eq!(err.code(), "invalid_argument");
        assert!(err.message().contains("--netlist-dir"), "{}", err.message());
    }

    #[test]
    fn reserved_default_name_cannot_be_loaded_or_unloaded() {
        let default = ring_session(8);
        let dir = netlist_dir("reserved", &[("a", 5)]);
        let d = SessionDispatcher::new(&default, 0, 0, Some(dir));
        let err = d.load(&LoadNetlistRequest::new(DEFAULT_SESSION, "a.hgr")).unwrap_err();
        assert_eq!(err.code(), "invalid_argument");
        let err = d.unload(&UnloadNetlistRequest::new(DEFAULT_SESSION)).unwrap_err();
        assert_eq!(err.code(), "invalid_argument");
        let err = d.load(&LoadNetlistRequest::new("", "a.hgr")).unwrap_err();
        assert_eq!(err.code(), "invalid_argument");
    }

    #[test]
    fn budget_eviction_is_deterministic_and_reported() {
        let default = ring_session(8);
        let dir = netlist_dir("evict", &[("a", 5), ("b", 5), ("c", 5)]);
        // Entry cap of 2: loading a third evicts the coldest.
        let d = SessionDispatcher::new(&default, 2, 0, Some(dir));
        d.load(&LoadNetlistRequest::new("a", "a.hgr")).unwrap();
        d.load(&LoadNetlistRequest::new("b", "b.hgr")).unwrap();
        // Touch "a" so "b" is coldest.
        let mut req = StatsRequest::new();
        req.session = Some("a".into());
        assert!(matches!(d.handle(&Request::Stats(req)), Response::Stats(_)));
        let c = d.load(&LoadNetlistRequest::new("c", "c.hgr")).unwrap();
        assert_eq!(c.evicted, vec!["b".to_string()]);
        let stats = d.registry_stats();
        assert_eq!((stats.entries, stats.evictions), (2, 1));
    }

    #[test]
    fn oversized_load_is_refused_with_registry_unchanged() {
        let default = ring_session(8);
        let dir = netlist_dir("oversized", &[("a", 5), ("big", 200)]);
        let small_cost = netlist_cost(&ring(5));
        let d = SessionDispatcher::new(&default, 0, small_cost, Some(dir));
        d.load(&LoadNetlistRequest::new("a", "a.hgr")).unwrap();
        let err = d.load(&LoadNetlistRequest::new("big", "big.hgr")).unwrap_err();
        assert_eq!(err.code(), "invalid_argument");
        assert!(err.message().contains("budget"), "{}", err.message());
        // The refused load left "a" resident and untouched.
        let listed = d.list(&ListSessionsRequest::new()).unwrap();
        assert_eq!(listed.sessions.len(), 2);
    }

    #[test]
    fn unload_drains_in_flight_sessions() {
        let default = ring_session(8);
        let dir = netlist_dir("drain", &[("a", 12)]);
        let d = SessionDispatcher::new(&default, 0, 0, Some(dir));
        d.load(&LoadNetlistRequest::new("a", "a.hgr")).unwrap();
        // An "in-flight request" holds the session's Arc across the
        // unload; the compute must finish normally against it.
        let (held, generation) = d.session("a").unwrap();
        assert_eq!(generation, 1);
        d.unload(&UnloadNetlistRequest::new("a")).unwrap();
        assert!(d.session("a").is_none());
        let resp = held
            .find(&FindRequest::new(FinderConfig {
                num_seeds: 4,
                min_size: 3,
                max_order_len: 12,
                rng_seed: 1,
                ..FinderConfig::default()
            }))
            .unwrap();
        assert_eq!(resp.netlist.num_cells, 12);
    }

    #[test]
    fn cache_keys_isolate_sessions_by_generation() {
        let default = ring_session(8);
        let dir = netlist_dir("cache_key", &[("a", 5)]);
        let d = SessionDispatcher::new(&default, 0, 0, Some(dir));
        d.load(&LoadNetlistRequest::new("a", "a.hgr")).unwrap();

        let plain = serde::json::to_string(&Request::Stats(StatsRequest::new()));
        assert!(
            matches!(d.cache_key(&plain), Cow::Borrowed(_)),
            "default-session lines keep their raw bytes as the key"
        );

        let mut req = StatsRequest::new();
        req.session = Some("a".into());
        let addressed = serde::json::to_string(&Request::Stats(req));
        let first = d.cache_key(&addressed).into_owned();
        assert_eq!(first, format!("s1:{addressed}").into_bytes());

        // A reload under the same name gets a fresh generation: the same
        // line bytes key differently, so the old load's cached responses
        // can never answer for the new one.
        d.load(&LoadNetlistRequest::new("a", "a.hgr")).unwrap();
        let second = d.cache_key(&addressed).into_owned();
        assert_eq!(second, format!("s2:{addressed}").into_bytes());
        assert_ne!(first, second);

        // Unknown sessions (error outcome, never cached) keep raw bytes.
        d.unload(&UnloadNetlistRequest::new("a")).unwrap();
        assert!(matches!(d.cache_key(&addressed), Cow::Borrowed(_)));

        // Pre-v4 lines carrying a session name are rejected by the
        // session layer — raw key, uncacheable error.
        let pre_v4 = addressed.replacen("\"v\":5", "\"v\":3", 1);
        assert!(matches!(d.cache_key(&pre_v4), Cow::Borrowed(_)));
    }

    #[test]
    fn tenants_follow_the_addressed_session() {
        let default = ring_session(8);
        let d = SessionDispatcher::new(&default, 0, 0, None);
        let mut req = StatsRequest::new();
        req.session = Some("a".into());
        assert_eq!(d.tenant(&serde::json::to_string(&Request::Stats(req))), "a");
        assert_eq!(d.tenant(&serde::json::to_string(&Request::Stats(StatsRequest::new()))), "");
        let load = Request::LoadNetlist(LoadNetlistRequest::new("b", "b.hgr"));
        assert_eq!(d.tenant(&serde::json::to_string(&load)), "b");
        let unload = Request::UnloadNetlist(UnloadNetlistRequest::new("c"));
        assert_eq!(d.tenant(&serde::json::to_string(&unload)), "c");
        assert_eq!(d.tenant("not json"), "");
        assert_eq!(
            d.tenant(&serde::json::to_string(&Request::ListSessions(ListSessionsRequest::new()))),
            ""
        );
    }
}
