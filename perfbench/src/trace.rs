//! Spans, the traced run, and the end-to-end metrics of untraced runs.
//!
//! Spans are recorded from the benchmark's own code around the calls it
//! makes into each layer's public functions; the program itself is not
//! instrumented. They stay in memory and are written out when the run
//! ends, one JSON object per line.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use gtl_api::{Request, Session};

use crate::designs;
use crate::report::Report;
use crate::stats::{median, quantile};

/// One timed interval at a layer boundary. A span's layer is its name up
/// to the first `.`.
#[derive(Debug, Clone)]
pub struct Span {
    workload: &'static str,
    request: u64,
    name: &'static str,
    start: Instant,
    end: Instant,
    parent: Option<usize>,
}

/// In-memory span store with a common time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    workload: &'static str,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty store whose times count from now.
    pub fn new() -> Self {
        Self { origin: Instant::now(), workload: "", spans: Vec::new() }
    }

    /// An empty store with the same origin and workload, for another
    /// thread; merge it back with [`Tracer::absorb`].
    pub fn fork(&self) -> Self {
        Self { origin: self.origin, workload: self.workload, spans: Vec::new() }
    }

    /// Sets the workload stamped on the spans recorded from now on.
    pub fn set_workload(&mut self, workload: &'static str) {
        self.workload = workload;
    }

    /// Records a finished span and returns its id.
    pub fn record(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        self.spans.push(Span { workload: self.workload, request, name, start, end, parent });
        self.spans.len() - 1
    }

    /// Opens a span now; finish it with [`Tracer::close`].
    pub fn open(&mut self, request: u64, name: &'static str, parent: Option<usize>) -> usize {
        let now = Instant::now();
        self.record(request, name, parent, now, now)
    }

    /// Closes span `id` now and returns its duration in seconds.
    pub fn close(&mut self, id: usize) -> f64 {
        let span = &mut self.spans[id];
        span.end = Instant::now();
        span.end.duration_since(span.start).as_secs_f64()
    }

    /// Appends the spans of a forked store, keeping their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + offset);
            s
        }));
    }

    /// Self time per layer in seconds: each span's duration minus the
    /// durations of its direct children.
    pub fn self_times(&self) -> BTreeMap<&'static str, f64> {
        let seconds = |s: &Span| s.end.duration_since(s.start).as_secs_f64();
        let mut children = vec![0.0; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                children[parent] += seconds(span);
            }
        }
        let mut layers = BTreeMap::new();
        for (span, child_s) in self.spans.iter().zip(children) {
            let layer = span.name.split('.').next().unwrap_or(span.name);
            *layers.entry(layer).or_insert(0.0) += seconds(span) - child_s;
        }
        layers
    }

    /// Writes the machine record and every span, one JSON line each.
    pub fn write(&self, path: &Path, machine: &str) -> Result<(), String> {
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos();
        let mut out = String::with_capacity(self.spans.len() * 120);
        out.push_str(&format!("{{\"machine\": {machine}}}\n"));
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            out.push_str(&format!(
                "{{\"workload\": \"{}\", \"request\": {}, \"name\": \"{}\", \"start_ns\": {}, \
                 \"end_ns\": {}, \"parent\": {parent}}}\n",
                s.workload,
                s.request,
                s.name,
                ns(s.start),
                ns(s.end)
            ));
        }
        let mut file =
            std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
        file.write_all(out.as_bytes()).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

/// The `api` layer numbers of one request, plus tracing overhead.
#[derive(Debug, Clone, Copy)]
pub struct ApiSample {
    /// Seconds serializing the response.
    pub encode_s: f64,
    /// Bytes of the serialized response.
    pub response_bytes: f64,
    /// Wall of the traced request over the wall of the same request
    /// through `handle_line` untraced.
    pub trace_overhead: f64,
    /// Whether the traced request produced the untraced response bytes.
    pub matches: bool,
}

impl ApiSample {
    /// Compares `traced` with `expected`, the untraced response of the
    /// same line, which took `untraced_s`.
    pub fn of(traced: &Traced, expected: &str, untraced_s: f64) -> ApiSample {
        ApiSample {
            encode_s: traced.encode_s,
            response_bytes: traced.response.len() as f64,
            trace_overhead: traced.wall_s / untraced_s,
            matches: traced.response == expected,
        }
    }

    /// Median timings over `samples`, the exact byte count of the first,
    /// and `matches` only if every sample matched.
    pub fn summarize(samples: &[ApiSample]) -> ApiSample {
        let med = |f: fn(&ApiSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
        ApiSample {
            encode_s: med(|s| s.encode_s),
            response_bytes: samples.first().map_or(0.0, |s| s.response_bytes),
            trace_overhead: med(|s| s.trace_overhead),
            matches: samples.iter().all(|s| s.matches),
        }
    }
}

/// A request run with a span around each step.
pub struct Traced {
    /// The serialized response (empty if the line did not parse).
    pub response: String,
    /// Seconds serializing it.
    pub encode_s: f64,
    /// Seconds of the whole request.
    pub wall_s: f64,
}

/// Runs `line` through the same steps as `Session::handle_line` (parse,
/// dispatch, serialize), with a span around each.
pub fn traced_request(session: &Session, line: &str, request: u64, tracer: &mut Tracer) -> Traced {
    let root = tracer.open(request, "api.request", None);
    let span = tracer.open(request, "api.parse", Some(root));
    let parsed = serde::json::from_str::<Request>(line);
    tracer.close(span);
    let Ok(parsed) = parsed else {
        return Traced { response: String::new(), encode_s: 0.0, wall_s: tracer.close(root) };
    };
    let span = tracer.open(request, "api.dispatch", Some(root));
    let response = session.handle(&parsed);
    tracer.close(span);
    let span = tracer.open(request, "api.encode", Some(root));
    let response = serde::json::to_string(&response);
    let encode_s = tracer.close(span);
    Traced { response, encode_s, wall_s: tracer.close(root) }
}

/// Latencies of an untraced run, and what the check needs of its
/// responses: each distinct request's first response in full, and for
/// every response whether it equals that first one byte for byte (held
/// as flags so memory does not grow with the number of requests).
pub struct Rounds {
    /// Seconds per request, in issue order.
    pub latencies_s: Vec<f64>,
    /// Wall seconds of the whole timed loop.
    pub elapsed_s: f64,
    /// Peak resident set size when the loop ended, before any check.
    pub peak_rss_mb: f64,
    /// First response of each distinct request.
    pub first: Vec<String>,
    /// Per distinct request, one flag per response: equal to the first.
    pub same_as_first: Vec<Vec<bool>>,
}

/// Issues requests `0..distinct` in rounds until `seconds` have passed
/// (at least one request is issued), recording each one's latency.
pub fn rounds(
    distinct: usize,
    seconds: Duration,
    mut issue: impl FnMut(usize) -> String,
) -> Result<Rounds, String> {
    let mut latencies_s = Vec::new();
    let mut first: Vec<String> = Vec::with_capacity(distinct);
    let mut same_as_first = vec![Vec::new(); distinct];
    let start = Instant::now();
    'run: loop {
        for (k, same) in same_as_first.iter_mut().enumerate() {
            let (response, wall) = crate::stats::timed(|| issue(k));
            latencies_s.push(wall);
            match first.get(k) {
                Some(f) => same.push(response == *f),
                None => {
                    first.push(response);
                    same.push(true);
                }
            }
            if start.elapsed() >= seconds {
                break 'run;
            }
        }
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let peak_rss_mb = crate::stats::peak_rss_mb()?;
    Ok(Rounds { latencies_s, elapsed_s, peak_rss_mb, first, same_as_first })
}

impl Rounds {
    /// Counts every response into `report`: it passes when the first
    /// response of its request passes `check` and it equals that first.
    pub fn count_checked(&self, report: &mut Report, mut check: impl FnMut(usize, &str) -> bool) {
        for (k, (first, same)) in self.first.iter().zip(&self.same_as_first).enumerate() {
            let ok = check(k, first);
            for &same in same {
                report.count(ok && same);
            }
        }
    }
}

/// Adds the end-to-end metrics of an untraced run: median request
/// latency, requests completed per second, set-up time and peak memory
/// (read when the timed loop ended). Also prints the latency sample
/// count with the highest percentile that has at least ten samples
/// beyond it.
pub fn end_to_end(
    report: &mut Report,
    setup_s: f64,
    latencies_s: &[f64],
    elapsed_s: f64,
    peak_rss_mb: f64,
) {
    report.metric("setup_s", setup_s, "s");
    report.metric("latency_p50_ms", quantile(latencies_s, 0.5) * 1e3, "ms");
    report.metric("throughput_req_per_s", latencies_s.len() as f64 / elapsed_s, "1/s");
    report.metric("peak_rss_mb", peak_rss_mb, "MB");
    let n = latencies_s.len();
    let tail_q = (1.0 - 10.0 / n as f64).clamp(0.5, 0.99);
    println!(
        "latency {{\"samples\": {n}, \"p50_ms\": {}, \"tail_q\": {tail_q}, \"tail_ms\": {}}}",
        quantile(latencies_s, 0.5) * 1e3,
        quantile(latencies_s, tail_q) * 1e3
    );
}

/// The traced run. Every run reports every per-layer metric: the
/// profile of `workload`'s own layers runs for `seconds`, the profiles
/// of the other workloads' layers run once, each on its own design. The
/// `netlist`, `api` and `trace_overhead` numbers come from `workload`'s
/// own design and requests.
pub fn run(
    workload: &str,
    seed: u64,
    seconds: Duration,
    dir: &Path,
    machine: &str,
) -> Result<Report, String> {
    let mut tracer = Tracer::new();
    let mut report = Report::default();
    let budget = |w: &str| if w == workload { seconds } else { Duration::ZERO };

    tracer.set_workload("find_large");
    let planted = designs::planted(seed, dir)?;
    tracer.record(0, "netlist.parse", None, planted.parse.0, planted.parse.1);
    let find_api = crate::find::profile(&planted, budget("find_large"), &mut tracer, &mut report)?;

    tracer.set_workload("place_large");
    let adaptec = designs::adaptec(seed)?;
    let place_api =
        crate::place::profile(&adaptec, budget("place_large"), &mut tracer, &mut report)?;

    tracer.set_workload("serve_mixed");
    let serve_api =
        crate::serve::profile(&planted, seed, budget("serve_mixed"), &mut tracer, &mut report)?;

    let (api, parse_s) = match workload {
        "find_large" => (find_api, planted.parse_s()),
        "place_large" => {
            // place_large keeps its design in memory; the netlist layer
            // is measured on the same connectivity through `.hgr`.
            let (_, parse) = designs::write_and_load(
                adaptec.netlist(),
                &dir.join(format!("adaptec-{seed}.hgr")),
            )?;
            tracer.set_workload("place_large");
            tracer.record(0, "netlist.parse", None, parse.0, parse.1);
            (place_api, parse.1.duration_since(parse.0).as_secs_f64())
        }
        _ => (serve_api, planted.parse_s()),
    };
    report.metric("netlist.parse_s", parse_s, "s");
    report.metric("api.encode_s", api.encode_s, "s");
    report.metric("api.response_bytes", api.response_bytes, "bytes");
    report.metric("trace_overhead", api.trace_overhead, "ratio");

    let layers: Vec<String> =
        tracer.self_times().iter().map(|(layer, s)| format!("\"{layer}\": {s}")).collect();
    println!("layers_self_s {{{}}}", layers.join(", "));
    tracer.write(&dir.join(format!("spans-{workload}-{seed}.jsonl")), machine)?;
    Ok(report)
}
