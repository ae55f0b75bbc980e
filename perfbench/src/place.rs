//! `place_large`: cold Places through `Session::handle_line`, and the
//! traced rebuild of one Place from the placer's public calls.

use std::time::{Duration, Instant};

use gtl_api::{PlaceRequest, Request, Response, Session};
use gtl_core::derive_stream;
use gtl_place::congestion::{self, CongestionReport};
use gtl_place::Die;

use crate::designs::{self, stream};
use crate::report::Report;
use crate::stats::{median, timed};
use crate::trace::{ApiSample, Tracer};

/// Request ids of profiled Places start here, after the Finds'.
const REQUEST_BASE: u64 = 1 << 20;
/// Distinct Places per run; each round issues all of them once, so each
/// is timed many times and the median falls inside one request's
/// distribution rather than between two.
const DISTINCT_REQUESTS: u64 = 3;

/// The default Place request with `placer.seed` varied per request.
///
/// Like the Finds' `rng_seed`, `placer.seed` depends on the request
/// index only; the workload seed varies the design.
pub fn request(index: u64) -> PlaceRequest {
    let mut request = PlaceRequest::new();
    request.placer.seed = derive_stream(0, stream::PLACE + index);
    request
}

fn request_line(request: &PlaceRequest) -> String {
    serde::json::to_string(&Request::Place(request.clone()))
}

/// HPWL of a Place response line, or `None` for anything else.
fn response_hpwl(line: &str) -> Option<f64> {
    match serde::json::from_str::<Response>(line) {
        Ok(Response::Place(resp)) => Some(resp.hpwl),
        _ => None,
    }
}

/// Sets the design up several times, then times rounds of cold Places
/// over [`DISTINCT_REQUESTS`] distinct requests for `seconds`. Every
/// response must equal its request's first response, whose HPWL must be
/// bit-equal to `gtl_place::hpwl` of `gtl_place::place` under the same
/// config.
pub fn run_untraced(seed: u64, seconds: Duration) -> Result<Report, String> {
    let (session, setup_s) = designs::repeated_setup(|| designs::adaptec(seed))?;
    let requests: Vec<PlaceRequest> = (0..DISTINCT_REQUESTS).map(request).collect();
    let lines: Vec<String> = requests.iter().map(request_line).collect();
    let rounds = crate::trace::rounds(lines.len(), seconds, |k| session.handle_line(&lines[k]))?;
    let mut report = Report::default();
    let netlist = session.netlist();
    rounds.count_checked(&mut report, |k, response| {
        let req = &requests[k];
        let die = Die::for_netlist(netlist, req.utilization);
        let placement = gtl_place::place(netlist, &die, &req.placer);
        let expected = gtl_place::hpwl(netlist, &placement).to_bits();
        response_hpwl(response).map(f64::to_bits) == Some(expected)
    });
    crate::trace::end_to_end(
        &mut report,
        setup_s,
        &rounds.latencies_s,
        rounds.elapsed_s,
        rounds.peak_rss_mb,
    );
    Ok(report)
}

/// Per-layer numbers of one profiled Place.
struct PlaceSample {
    global_s: f64,
    hpwl_s: f64,
    congestion_s: f64,
    unattributed_s: f64,
    hpwl: f64,
    api: ApiSample,
}

/// Profiles Places for at least `budget` (at least one), cycling through
/// the untraced run's requests: the untraced request, the same request
/// split into parse, dispatch and encode spans, and the pipeline rebuilt
/// from `gtl_place::place`, `gtl_place::hpwl` and `congestion::estimate`
/// with a span around each. Adds the `place.*` metrics (timings as
/// medians, HPWL from the first request) and returns the `api` sample.
pub fn profile(
    session: &Session,
    budget: Duration,
    tracer: &mut Tracer,
    report: &mut Report,
) -> Result<ApiSample, String> {
    let mut samples = Vec::new();
    let start = Instant::now();
    loop {
        samples.push(profile_one(session, samples.len() as u64, tracer, report));
        if start.elapsed() >= budget {
            break;
        }
    }
    let med = |f: fn(&PlaceSample) -> f64| median(&samples.iter().map(f).collect::<Vec<_>>());
    report.metric("place.global_s", med(|s| s.global_s), "s");
    report.metric("place.hpwl_s", med(|s| s.hpwl_s), "s");
    report.metric("place.congestion_s", med(|s| s.congestion_s), "s");
    report.metric("place.unattributed_s", med(|s| s.unattributed_s), "s");
    report.metric("place.hpwl", samples[0].hpwl, "um");
    Ok(ApiSample::summarize(&samples.iter().map(|s| s.api).collect::<Vec<_>>()))
}

/// Profiles repetition `rep` of the cycle through the run's distinct
/// requests.
fn profile_one(
    session: &Session,
    rep: u64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> PlaceSample {
    let id = REQUEST_BASE + rep;
    let req = request(rep % DISTINCT_REQUESTS);
    let line = request_line(&req);
    // The untraced request runs between the traced one and the rebuild,
    // whose order alternates by repetition, so drift in the machine's
    // speed cancels in the medians of the overhead and the residual.
    let traced_first = rep.is_multiple_of(2);
    let traced = traced_first.then(|| crate::trace::traced_request(session, &line, id, tracer));
    let rebuilt = (!traced_first).then(|| rebuild(session, &req, id, tracer));
    let (response, wall) = timed(|| session.handle_line(&line));
    let traced = traced.unwrap_or_else(|| crate::trace::traced_request(session, &line, id, tracer));
    let rebuilt = rebuilt.unwrap_or_else(|| rebuild(session, &req, id, tracer));
    let api = ApiSample::of(&traced, &response, wall);

    let ok = match serde::json::from_str::<Response>(&response) {
        Ok(Response::Place(resp)) => {
            resp.hpwl.to_bits() == rebuilt.hpwl.to_bits() && resp.congestion == rebuilt.congestion
        }
        _ => false,
    };
    report.count(ok && api.matches);
    let parts = rebuilt.global_s + rebuilt.hpwl_s + rebuilt.congestion_s + api.encode_s;
    PlaceSample {
        global_s: rebuilt.global_s,
        hpwl_s: rebuilt.hpwl_s,
        congestion_s: rebuilt.congestion_s,
        unattributed_s: wall - parts,
        hpwl: rebuilt.hpwl,
        api,
    }
}

/// A Place rebuilt from the placer's public calls.
struct Rebuilt {
    global_s: f64,
    hpwl_s: f64,
    congestion_s: f64,
    hpwl: f64,
    congestion: CongestionReport,
}

/// Rebuilds the Place of `req` from `gtl_place::place`,
/// `gtl_place::hpwl` and `congestion::estimate`, with a span around each.
fn rebuild(session: &Session, req: &PlaceRequest, id: u64, tracer: &mut Tracer) -> Rebuilt {
    let netlist = session.netlist();
    let root = tracer.open(id, "place.flow", None);
    let die = Die::for_netlist(netlist, req.utilization);
    let span = tracer.open(id, "place.global", Some(root));
    let placement = gtl_place::place(netlist, &die, &req.placer);
    let global_s = tracer.close(span);
    let span = tracer.open(id, "place.hpwl", Some(root));
    let hpwl = gtl_place::hpwl(netlist, &placement);
    let hpwl_s = tracer.close(span);
    let span = tracer.open(id, "place.congestion", Some(root));
    let congestion = congestion::estimate(netlist, &placement, &die, &req.routing).report();
    let congestion_s = tracer.close(span);
    tracer.close(root);
    Rebuilt { global_s, hpwl_s, congestion_s, hpwl, congestion }
}
