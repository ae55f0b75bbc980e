//! `serve_mixed`: a closed loop over loopback TCP against the in-process
//! `gtl_api::serve` runtime, and its traced profile.
//!
//! Two client connections each keep one request in flight. The mix is
//! 40% `Stats`, 35% Finds drawn from 8 hot lines and 25% distinct small
//! Finds, so about three requests in four are answered from the response
//! cache and the rest run the finder.

use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::time::{Duration, Instant};

use gtl_api::{Request, ServeOptions, ServeSummary, Session, StatsRequest};
use gtl_core::derive_stream;
use gtl_loadgen::replay::{replay, ReplayMode, ReplayOptions};
use gtl_loadgen::trace::TraceRecord;
use gtl_tangled::FinderConfig;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::designs::{self, stream, Planted};
use crate::report::Report;
use crate::stats::{mean, median, timed};
use crate::trace::{ApiSample, Tracer};

/// Client connections, each with one request in flight.
const CONNECTIONS: usize = 2;
/// Server compute lanes.
const LANES: usize = 2;
/// Server response-cache budget.
const CACHE_BYTES: usize = 64 << 20;
/// Server per-connection pipeline depth.
const PIPELINE_DEPTH: usize = 8;
/// Distinct hot Find lines.
const HOT_LINES: u64 = 8;
/// Share of `Stats` requests, then the cumulative share with hot Finds.
const STATS_SHARE: f64 = 0.40;
const HOT_SHARE: f64 = 0.75;
/// Requests per connection of the traced run's `gtl-loadgen` replay.
const LOADGEN_REQUESTS: usize = 500;
/// In-process distinct Finds timed for `api.small_find_ms_p50`.
const SMALL_FIND_SAMPLES: u64 = 40;
/// Shortest client window of a profile run for another workload.
const MIN_WINDOW: Duration = Duration::from_secs(1);
/// Request ids of the serve profile start here.
const REQUEST_BASE: u64 = 2 << 20;

/// The distinct small Find: 8 seeds, orderings of up to 400 cells, GTLs
/// of at least 40 cells, 1 thread.
fn small_find(rng_seed: u64) -> String {
    let config = FinderConfig {
        num_seeds: 8,
        max_order_len: 400,
        min_size: 40,
        threads: 1,
        rng_seed,
        ..FinderConfig::default()
    };
    crate::find::request_line(config)
}

/// One request of the mix, kept for every exchange in place of its line
/// (the check rebuilds the line), so the client's memory does not grow
/// with throughput.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Key {
    Stats,
    /// A small Find with this `rng_seed`.
    Find(u64),
}

impl Key {
    fn line(self) -> String {
        match self {
            Key::Stats => serde::json::to_string(&Request::Stats(StatsRequest::new())),
            Key::Find(rng_seed) => small_find(rng_seed),
        }
    }
}

/// The request sequence of one client stream, from the workload seed.
struct Mix {
    rng: SmallRng,
    seed: u64,
    stream: u64,
    distinct: u64,
}

impl Mix {
    fn new(seed: u64, stream_index: u64) -> Self {
        Self {
            rng: SmallRng::seed_from_u64(derive_stream(seed, stream::SERVE_MIX + stream_index)),
            seed,
            stream: stream_index,
            distinct: 0,
        }
    }

    fn next_key(&mut self) -> Key {
        let u: f64 = self.rng.gen();
        if u < STATS_SHARE {
            Key::Stats
        } else if u < HOT_SHARE {
            let hot = self.rng.gen_range(0..HOT_LINES);
            Key::Find(derive_stream(self.seed, stream::SERVE_HOT + hot))
        } else {
            self.distinct += 1;
            let index = (self.stream << 24) + self.distinct;
            Key::Find(derive_stream(self.seed, stream::SERVE_DISTINCT + index))
        }
    }
}

/// A digest of a response with the v5 trace stamp removed (the one
/// field a served response adds to the in-process bytes), for the
/// byte-equality check.
fn digest(response: &str) -> u64 {
    let stripped = match response.find(",\"trace\":\"") {
        None => response.to_string(),
        Some(start) => {
            let rest = &response[start + 10..];
            match rest.find('"') {
                Some(end) => format!("{}{}", &response[..start], &rest[end + 1..]),
                None => response.to_string(),
            }
        }
    };
    let mut hasher = DefaultHasher::new();
    stripped.hash(&mut hasher);
    hasher.finish()
}

/// What one client connection sent and received.
#[derive(Default)]
struct ConnLog {
    /// Requests, with the digest of the response (`None` if it never
    /// came).
    exchanges: Vec<(Key, Option<u64>)>,
    latencies_s: Vec<f64>,
}

/// Runs a server with the workload's options on `listener` until it has
/// accepted and finished `connections` connections, while `clients`
/// drives it; returns the clients' result and the server summary.
fn with_server<T: Send>(
    session: &Session,
    listener: &TcpListener,
    connections: usize,
    clients: impl FnOnce(SocketAddr) -> T + Send,
) -> Result<(T, ServeSummary), String> {
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    let options = ServeOptions::new()
        .lanes(LANES)
        .cache_bytes(CACHE_BYTES)
        .pipeline_depth(PIPELINE_DEPTH)
        .max_connections(Some(connections));
    // gtl-lint: allow(no-raw-thread, reason = "the in-process server runs beside its benchmark clients: I/O concurrency, not compute fan-out")
    std::thread::scope(|scope| {
        let server = scope.spawn(|| gtl_api::serve(session, listener, &options));
        let out = clients(addr);
        let summary = server.join().expect("the server thread panicked");
        Ok((out, summary.map_err(|e| e.to_string())?))
    })
}

/// Drives `CONNECTIONS` closed-loop clients until `deadline`, the
/// client on connection `c` taking its requests from `mixes[c]`. With a
/// tracer, each request gets a `client.request` span.
fn closed_loop(
    addr: SocketAddr,
    mixes: &mut [Mix],
    deadline: Instant,
    tracer: Option<&mut Tracer>,
    request_base: u64,
) -> Vec<ConnLog> {
    // Connect serially so every connection is accepted even if a client
    // fails early; the server waits for exactly this many.
    let streams: Vec<std::io::Result<TcpStream>> =
        mixes.iter().map(|_| TcpStream::connect(addr)).collect();
    let forks: Vec<Option<Tracer>> =
        mixes.iter().map(|_| tracer.as_ref().map(|t| t.fork())).collect();
    // gtl-lint: allow(no-raw-thread, reason = "one blocking client per connection: I/O concurrency, not compute fan-out")
    let results: Vec<(ConnLog, Option<Tracer>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = mixes
            .iter_mut()
            .zip(streams)
            .zip(forks)
            .enumerate()
            .map(|(c, ((mix, stream), fork))| {
                let base = request_base + ((c as u64) << 24);
                scope.spawn(move || drive(stream, mix, deadline, fork, base))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("a client thread panicked")).collect()
    });
    let mut logs = Vec::with_capacity(results.len());
    let mut tracer = tracer;
    for (log, fork) in results {
        if let (Some(tracer), Some(fork)) = (tracer.as_deref_mut(), fork) {
            tracer.absorb(fork);
        }
        logs.push(log);
    }
    logs
}

/// One closed-loop client: send, wait for the reply, repeat.
fn drive(
    stream: std::io::Result<TcpStream>,
    mix: &mut Mix,
    deadline: Instant,
    mut tracer: Option<Tracer>,
    request_base: u64,
) -> (ConnLog, Option<Tracer>) {
    let mut log = ConnLog::default();
    let Ok(mut writer) = stream else {
        log.exchanges.push((mix.next_key(), None));
        return (log, tracer);
    };
    let Ok(read_half) = writer.try_clone() else {
        log.exchanges.push((mix.next_key(), None));
        return (log, tracer);
    };
    let mut reader = BufReader::new(read_half);
    let mut response = String::new();
    while Instant::now() < deadline {
        let key = mix.next_key();
        let line = key.line() + "\n";
        response.clear();
        let sent = Instant::now();
        let ok = writer.write_all(line.as_bytes()).is_ok()
            && reader.read_line(&mut response).is_ok_and(|n| n > 0);
        let done = Instant::now();
        if !ok {
            log.exchanges.push((key, None));
            break;
        }
        if let Some(tracer) = tracer.as_mut() {
            let id = request_base + log.exchanges.len() as u64;
            tracer.record(id, "client.request", None, sent, done);
        }
        log.latencies_s.push(done.duration_since(sent).as_secs_f64());
        log.exchanges.push((key, Some(digest(response.trim_end()))));
    }
    (log, tracer)
}

/// Checks every exchange against in-process `Session::handle_line`,
/// ignoring the trace stamp, on `CONNECTIONS` workers that each keep the
/// expected digests they have computed. Returns one verdict per
/// exchange.
fn check(session: &Session, exchanges: &[(Key, Option<u64>)]) -> Vec<bool> {
    gtl_core::exec::parallel_map_with(
        CONNECTIONS,
        exchanges.len(),
        |_worker| BTreeMap::<Key, u64>::new(),
        |expected, i| {
            let (key, got) = exchanges[i];
            let want =
                *expected.entry(key).or_insert_with(|| digest(&session.handle_line(&key.line())));
            got == Some(want)
        },
    )
}

fn bind() -> Result<TcpListener, String> {
    gtl_api::bind("127.0.0.1:0").map_err(|e| e.to_string())
}

/// Sets the design up several times (generate, write and load it, build
/// the session, bind), then runs the closed loop for `seconds` and
/// checks every response.
pub fn run_untraced(seed: u64, seconds: Duration, dir: &Path) -> Result<Report, String> {
    let ((design, listener), setup_s) =
        designs::repeated_setup(|| Ok((designs::planted(seed, dir)?, bind()?)))?;
    let session = &design.session;
    let mut mixes: Vec<Mix> = (0..CONNECTIONS as u64).map(|c| Mix::new(seed, c)).collect();
    let ((logs, elapsed), _) = with_server(session, &listener, CONNECTIONS, |addr| {
        let start = Instant::now();
        let logs = closed_loop(addr, &mut mixes, start + seconds, None, 0);
        (logs, start.elapsed().as_secs_f64())
    })?;
    let peak_rss_mb = crate::stats::peak_rss_mb()?;
    let mut report = Report::default();
    let exchanges: Vec<_> = logs.iter().flat_map(|l| l.exchanges.iter().copied()).collect();
    for ok in check(session, &exchanges) {
        report.count(ok);
    }
    let latencies: Vec<f64> = logs.iter().flat_map(|l| l.latencies_s.iter().copied()).collect();
    crate::trace::end_to_end(&mut report, setup_s, &latencies, elapsed, peak_rss_mb);
    Ok(report)
}

/// Microseconds a runtime stage spent per served request: the stage
/// histogram's exact sum over the responses written, so the per-stage
/// numbers add up along a request.
fn stage_us_per_request(summary: &ServeSummary, label: &str) -> f64 {
    let m = &summary.metrics;
    m.stage_latency
        .iter()
        .find(|s| s.label == label)
        .map_or(0.0, |s| s.sum_us as f64 / m.responses.max(1) as f64)
}

/// Profiles the serve path: an untraced and a traced client window
/// against one server (each half of `budget`, at least [`MIN_WINDOW`]),
/// the runtime's stage histograms from its summary, a `gtl-loadgen`
/// closed-loop replay against a second server, and distinct small Finds
/// in-process. Adds the `runtime.*`, `loadgen.*` and
/// `api.small_find_ms_p50` metrics and returns the `api` sample of the
/// small Finds, whose `trace_overhead` is the traced window's mean
/// client latency over the untraced one's.
pub fn profile(
    design: &Planted,
    seed: u64,
    budget: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<ApiSample, String> {
    let session = &design.session;
    let window = (budget / 2).max(MIN_WINDOW);
    let mut untraced_mixes: Vec<Mix> = (0..CONNECTIONS as u64).map(|c| Mix::new(seed, c)).collect();
    let mut traced_mixes: Vec<Mix> =
        (0..CONNECTIONS as u64).map(|c| Mix::new(seed, CONNECTIONS as u64 + c)).collect();
    let ((untraced, traced), summary) = with_server(session, &bind()?, 2 * CONNECTIONS, |addr| {
        let untraced = closed_loop(addr, &mut untraced_mixes, Instant::now() + window, None, 0);
        let traced = closed_loop(
            addr,
            &mut traced_mixes,
            Instant::now() + window,
            Some(tracer),
            REQUEST_BASE,
        );
        (untraced, traced)
    })?;
    let exchanges: Vec<_> =
        untraced.iter().chain(&traced).flat_map(|l| l.exchanges.iter().copied()).collect();
    for ok in check(session, &exchanges) {
        report.count(ok);
    }
    let latencies = |logs: &[ConnLog]| -> Vec<f64> {
        logs.iter().flat_map(|l| l.latencies_s.iter().copied()).collect()
    };
    let untraced_s = latencies(&untraced);
    let traced_s = latencies(&traced);
    let all_s: Vec<f64> = untraced_s.iter().chain(&traced_s).copied().collect();

    // Serialization runs inside the lane's compute, so it is reported
    // but not added again.
    let mut stage_sum_us = 0.0;
    for stage in ["queue_wait", "lane_compute", "serialize", "writer_flush"] {
        let us = stage_us_per_request(&summary, stage);
        if stage != "serialize" {
            stage_sum_us += us;
        }
        report.metric(&format!("runtime.{stage}_us_mean"), us, "us");
    }
    let m = &summary.metrics;
    report.metric(
        "runtime.cache_hit_ratio",
        m.cache_hits as f64 / (m.cache_hits + m.cache_misses).max(1) as f64,
        "ratio",
    );
    report.metric("runtime.unattributed_us_mean", mean(&all_s) * 1e6 - stage_sum_us, "us");
    let p99 = m.stage_latency.iter().find(|s| s.label == "lane_compute").map_or(0, |s| s.p99_us);
    report.metric("runtime.lane_compute_us_p99", p99 as f64, "us");
    report.metric("runtime.queue_high_water", m.queue_high_water as f64, "count");

    let (requests, responses) = loadgen_replay(session, seed, report)?;
    report.metric("loadgen.requests", requests as f64, "count");
    report.metric("loadgen.responses", responses as f64, "count");

    let mut small_ms = Vec::new();
    let mut samples = Vec::new();
    for k in 0..SMALL_FIND_SAMPLES {
        let line = small_find(derive_stream(seed, stream::SERVE_DISTINCT + (1 << 40) + k));
        let (response, wall) = timed(|| session.handle_line(&line));
        let id = REQUEST_BASE + (3 << 24) + k;
        let traced = crate::trace::traced_request(session, &line, id, tracer);
        let api = ApiSample::of(&traced, &response, wall);
        report.count(api.matches);
        small_ms.push(wall * 1e3);
        samples.push(api);
    }
    report.metric("api.small_find_ms_p50", median(&small_ms), "ms");
    let mut api = ApiSample::summarize(&samples);
    api.trace_overhead = mean(&traced_s) / mean(&untraced_s);
    Ok(api)
}

/// Replays a fixed trace from the same mix with `gtl-loadgen` in closed
/// loop (one request in flight per connection) against a fresh server,
/// checks the response log, and returns its request and response counts.
fn loadgen_replay(session: &Session, seed: u64, report: &mut Report) -> Result<(u64, u64), String> {
    let mut keys = Vec::new();
    let mut records = Vec::new();
    for c in 0..CONNECTIONS as u32 {
        let mut mix = Mix::new(seed, 2 * CONNECTIONS as u64 + u64::from(c));
        for seq in 0..LOADGEN_REQUESTS as u32 {
            let key = mix.next_key();
            keys.push(key);
            records.push(TraceRecord::new(c, seq, 0, key.line()));
        }
    }
    let listener = bind()?;
    let (replayed, _) = with_server(session, &listener, CONNECTIONS, |addr| {
        let mut options = ReplayOptions::new(addr.to_string());
        options.mode = ReplayMode::Closed { inflight: 1 };
        replay(&records, &options)
    })?;
    let replayed = replayed.map_err(|e| e.to_string())?;
    // The log lists connections in id order, each in sequence order:
    // the order `records` was built in.
    let responses: Vec<&str> = replayed.log.lines().collect();
    let exchanges: Vec<(Key, Option<u64>)> = keys
        .iter()
        .enumerate()
        .map(|(i, &key)| (key, responses.get(i).map(|r| digest(r))))
        .collect();
    for ok in check(session, &exchanges) {
        report.count(ok);
    }
    Ok((replayed.requests, replayed.responses))
}
