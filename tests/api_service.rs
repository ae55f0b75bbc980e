//! The PR-acceptance contract, end to end: `gtl find --json` and a
//! `gtl serve` TCP round-trip produce **byte-identical** `FindResponse`
//! JSON, for 1, 2 and 8 workers — plus the frozen-wire golden replays
//! (v1 Find, v4 session administration, v1/v4 Place and Stats) against
//! the checked-in bytes in `tests/golden/`.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

use gtl_api::{
    FindRequest, ListSessionsRequest, LoadNetlistRequest, PlaceRequest, Request, ServeOptions,
    Session, StatsRequest, UnloadNetlistRequest,
};
use gtl_tangled::ordering::GrowthCriterion;
use gtl_tangled::{FinderConfig, MetricKind};

/// The checked-in two-5-cliques design — the same file the CI serve
/// golden round-trip replays, so both checks exercise one fixture.
fn fixture_path() -> String {
    let path =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/two_cliques.hgr");
    assert!(path.exists(), "golden fixture missing: {}", path.display());
    path.display().to_string()
}

fn config(threads: usize) -> FinderConfig {
    FinderConfig {
        num_seeds: 10,
        min_size: 3,
        max_order_len: 10,
        rng_seed: 0xDAC,
        threads,
        ..FinderConfig::default()
    }
}

/// Drops the v5 trace stamp (`,"trace":"…"`) so wire bytes can be
/// compared against in-process oracles, which are never stamped.
fn strip_trace(line: &str) -> String {
    let Some(start) = line.find(",\"trace\":\"") else { return line.to_string() };
    let rest = &line[start + 10..];
    let end = rest.find('"').unwrap();
    format!("{}{}", &line[..start], &rest[end + 1..])
}

/// One TCP round-trip against a fresh single-connection server.
fn serve_round_trip(session: &Session, line: &str) -> String {
    let listener = gtl_api::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::scope(|scope| {
        scope.spawn(|| {
            gtl_api::serve(session, &listener, &ServeOptions::new().max_connections(Some(1)))
        });
        let mut conn = TcpStream::connect(addr).unwrap();
        writeln!(conn, "{line}").unwrap();
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        BufReader::new(conn).read_line(&mut response).unwrap();
        response.trim_end().to_string()
    })
}

#[test]
fn cli_json_equals_serve_payload_for_1_2_8_workers() {
    let path = fixture_path();
    let mut payloads = Vec::new();
    for threads in [1usize, 2, 8] {
        // One-shot CLI.
        let cli_out = gtl_cli::run(&[
            "find".into(),
            path.clone(),
            "--seeds".into(),
            "10".into(),
            "--min-size".into(),
            "3".into(),
            "--max-order".into(),
            "10".into(),
            "--rng".into(),
            format!("{}", 0xDAC),
            "--threads".into(),
            threads.to_string(),
            "--json".into(),
        ])
        .unwrap();
        let cli_json = cli_out.trim_end().to_string();

        // Serve round-trip with the equivalent request.
        let session = Session::builder().load(&path).unwrap().build().unwrap();
        let line = serde::json::to_string(&Request::Find(FindRequest::new(config(threads))));
        let envelope = serve_round_trip(&session, &line);

        // The envelope is exactly {"Find":<payload>}, plus the per-
        // request trace stamp the server adds to v5 responses.
        assert!(envelope.contains(",\"trace\":\""), "v5 response untraced: {envelope}");
        let envelope = strip_trace(&envelope);
        let payload = envelope
            .strip_prefix("{\"Find\":")
            .and_then(|rest| rest.strip_suffix('}'))
            .unwrap_or_else(|| panic!("unexpected envelope {envelope}"));
        assert_eq!(payload, cli_json, "serve payload != `gtl find --json` ({threads} workers)");
        payloads.push(cli_json);
    }
    assert!(payloads[0].contains("\"gtls\":[{"), "no GTLs found: {}", payloads[0]);
    assert_eq!(payloads[0], payloads[1], "2 workers changed the bytes");
    assert_eq!(payloads[0], payloads[2], "8 workers changed the bytes");
}

fn golden_dir() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden")
}

/// Plays `lines` over one connection against a fresh server and returns
/// the response lines. `pipeline_depth(1)` keeps the replay serial, so
/// registry administration ordering is part of the contract.
fn replay_script(session: &Session, options: ServeOptions, lines: &[String]) -> Vec<String> {
    let listener = gtl_api::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let options = options.pipeline_depth(1).max_connections(Some(1));
    std::thread::scope(|scope| {
        let server = scope.spawn(|| gtl_api::serve(session, &listener, &options).unwrap());
        let mut conn = TcpStream::connect(addr).unwrap();
        for line in lines {
            writeln!(conn, "{line}").unwrap();
        }
        conn.shutdown(std::net::Shutdown::Write).unwrap();
        let got: Vec<String> = BufReader::new(conn).lines().map(|l| l.unwrap()).collect();
        server.join().unwrap();
        got
    })
}

/// The v1 golden stays frozen: replaying the checked-in request line
/// through a current server reproduces the checked-in response bytes —
/// the same contract the CI `/dev/tcp` golden step enforces, runnable
/// locally via `cargo test`.
#[test]
fn golden_v1_find_replay_is_frozen() {
    let request = std::fs::read_to_string(golden_dir().join("serve_find_request.json")).unwrap();
    let expected = std::fs::read_to_string(golden_dir().join("serve_find_response.json")).unwrap();
    let session = Session::builder().load(&fixture_path()).unwrap().build().unwrap();
    let got = replay_script(&session, ServeOptions::new().lanes(2), &[request.trim().to_string()]);
    assert_eq!(got, vec![expected.trim_end().to_string()], "v1 golden bytes changed");
}

/// The v4 golden script: LoadNetlist → session-addressed Find →
/// ListSessions → UnloadNetlist. Checked-in request *and* response
/// bytes both stay frozen; `GTL_BLESS=1` regenerates them.
#[test]
fn golden_v4_session_script_replay() {
    let find_config = FinderConfig {
        num_seeds: 10,
        max_order_len: 10,
        lambda_threshold: 20,
        criterion: GrowthCriterion::WeightFirst,
        metric: MetricKind::GtlSd,
        min_size: 3,
        accept_threshold: 0.9,
        prominence: 1.2,
        max_fraction: 0.5,
        refine_seeds: 3,
        refine: true,
        threads: 2,
        rng_seed: 3500,
        rent_exponent: None,
    };
    let mut find = FindRequest::new(find_config);
    find.session = Some("alt".to_string());
    // Pinned to v4: this script freezes the pre-trace wire (constructors
    // now default to v5, which the v5 golden below covers).
    find.v = 4;
    let mut load = LoadNetlistRequest::new("alt", "two_cliques.hgr");
    load.v = 4;
    let mut list = ListSessionsRequest::new();
    list.v = 4;
    let mut unload = UnloadNetlistRequest::new("alt");
    unload.v = 4;
    let script = vec![
        serde::json::to_string(&Request::LoadNetlist(load)),
        serde::json::to_string(&Request::Find(find)),
        serde::json::to_string(&Request::ListSessions(list)),
        serde::json::to_string(&Request::UnloadNetlist(unload)),
    ];
    let session = Session::builder().load(&fixture_path()).unwrap().build().unwrap();
    let options = ServeOptions::new().lanes(2).max_netlists(4).netlist_dir(Some(golden_dir()));
    let got = replay_script(&session, options, &script);
    assert_eq!(got.len(), script.len(), "{got:?}");

    let requests_path = golden_dir().join("serve_session_requests.json");
    let responses_path = golden_dir().join("serve_session_responses.json");
    let render = |lines: &[String]| lines.join("\n") + "\n";
    if std::env::var("GTL_BLESS").is_ok() {
        std::fs::write(&requests_path, render(&script)).unwrap();
        std::fs::write(&responses_path, render(&got)).unwrap();
        return;
    }
    let requests = std::fs::read_to_string(&requests_path).unwrap();
    assert_eq!(requests, render(&script), "v4 golden request bytes changed");
    let responses = std::fs::read_to_string(&responses_path).unwrap();
    assert_eq!(responses, render(&got), "v4 golden response bytes changed");
}

/// The Place and Stats golden: v1 and v4 requests of both kinds, one
/// of each with non-default parameters, answered by
/// `Session::handle_line`. Checked-in request *and* response bytes stay
/// frozen; `GTL_BLESS=1` regenerates them. The requests stop at v4, so
/// the bytes carry no trace stamp and CI replays the same files over
/// TCP with `gtl loadgen replay --expect`.
#[test]
fn golden_place_and_stats_handle_line_is_frozen() {
    let mut stats_v1 = StatsRequest::new();
    stats_v1.v = 1;
    let mut place_v1 = PlaceRequest::new();
    place_v1.v = 1;
    let mut stats_v4 = StatsRequest::new();
    stats_v4.v = 4;
    let mut place_v4 = PlaceRequest::new();
    place_v4.v = 4;
    place_v4.utilization = 0.5;
    place_v4.placer.seed = 7;
    place_v4.placer.threads = 2;
    place_v4.routing.tiles = 8;
    let script: Vec<String> = [
        Request::Stats(stats_v1),
        Request::Place(place_v1),
        Request::Stats(stats_v4),
        Request::Place(place_v4),
    ]
    .iter()
    .map(serde::json::to_string)
    .collect();
    let session = Session::builder().load(&fixture_path()).unwrap().build().unwrap();
    let got: Vec<String> = script.iter().map(|line| session.handle_line(line)).collect();
    for line in &got {
        assert!(!line.starts_with("{\"Error\""), "{line}");
    }

    let requests_path = golden_dir().join("serve_place_stats_requests.json");
    let responses_path = golden_dir().join("serve_place_stats_responses.json");
    let render = |lines: &[String]| lines.join("\n") + "\n";
    if std::env::var("GTL_BLESS").is_ok() {
        std::fs::write(&requests_path, render(&script)).unwrap();
        std::fs::write(&responses_path, render(&got)).unwrap();
        return;
    }
    let requests = std::fs::read_to_string(&requests_path).unwrap();
    assert_eq!(requests, render(&script), "Place/Stats golden request bytes changed");
    let responses = std::fs::read_to_string(&responses_path).unwrap();
    assert_eq!(responses, render(&got), "Place/Stats golden response bytes changed");
}

/// The v5 golden script: the same session-administration shape as the
/// v4 golden, but at the current protocol version — every response line
/// carries its deterministic `(connection, sequence)` trace stamp, and
/// those stamped bytes are what's frozen. `GTL_BLESS=1` regenerates.
///
/// `MetricsText` is deliberately absent: its payload reports live
/// counters and latency buckets, which are not byte-stable across runs.
/// Its rendering is frozen separately in `tests/golden/metrics.prom`
/// (zeroed/fixed counters), and the scrape endpoint is exercised
/// structurally below and in CI.
#[test]
fn golden_v5_traced_script_replay() {
    let find_config = FinderConfig {
        num_seeds: 10,
        max_order_len: 10,
        lambda_threshold: 20,
        criterion: GrowthCriterion::WeightFirst,
        metric: MetricKind::GtlSd,
        min_size: 3,
        accept_threshold: 0.9,
        prominence: 1.2,
        max_fraction: 0.5,
        refine_seeds: 3,
        refine: true,
        threads: 2,
        rng_seed: 3500,
        rent_exponent: None,
    };
    let mut find = FindRequest::new(find_config);
    find.session = Some("alt".to_string());
    let script = vec![
        serde::json::to_string(&Request::LoadNetlist(LoadNetlistRequest::new(
            "alt",
            "two_cliques.hgr",
        ))),
        serde::json::to_string(&Request::Find(find)),
        serde::json::to_string(&Request::ListSessions(ListSessionsRequest::new())),
        serde::json::to_string(&Request::UnloadNetlist(UnloadNetlistRequest::new("alt"))),
    ];
    let session = Session::builder().load(&fixture_path()).unwrap().build().unwrap();
    let options = ServeOptions::new().lanes(2).max_netlists(4).netlist_dir(Some(golden_dir()));
    let got = replay_script(&session, options, &script);
    assert_eq!(got.len(), script.len(), "{got:?}");
    // Trace IDs are a pure function of (connection, sequence): one
    // connection (id 1), requests numbered from 0 — so the stamps are
    // reproducible bytes, fit to freeze.
    for (seq, line) in got.iter().enumerate() {
        let stamp = format!(",\"trace\":\"00000001-{seq:08x}\"}}}}");
        assert!(line.ends_with(&stamp), "line {seq} missing trace stamp: {line}");
    }

    let requests_path = golden_dir().join("serve_v5_requests.json");
    let responses_path = golden_dir().join("serve_v5_responses.json");
    let render = |lines: &[String]| lines.join("\n") + "\n";
    if std::env::var("GTL_BLESS").is_ok() {
        std::fs::write(&requests_path, render(&script)).unwrap();
        std::fs::write(&responses_path, render(&got)).unwrap();
        return;
    }
    let requests = std::fs::read_to_string(&requests_path).unwrap();
    assert_eq!(requests, render(&script), "v5 golden request bytes changed");
    let responses = std::fs::read_to_string(&responses_path).unwrap();
    assert_eq!(responses, render(&got), "v5 golden response bytes changed");
}

/// The scrape payload over the v5 wire: `MetricsText` returns the
/// Prometheus rendering as a JSON string field, end to end over TCP.
#[test]
fn metrics_text_round_trips_over_tcp() {
    let session = Session::builder().load(&fixture_path()).unwrap().build().unwrap();
    let line = serve_round_trip(&session, "{\"MetricsText\":{\"v\":5}}");
    assert!(line.starts_with("{\"MetricsText\":{\"v\":5,\"text\":\""), "{line}");
    assert!(line.contains("# TYPE gtl_requests counter"), "{line}");
    assert!(line.contains(",\"trace\":\"00000001-00000000\"}}"), "{line}");
}

#[test]
fn serve_stats_and_errors_over_tcp() {
    let path = fixture_path();
    let session = Session::builder().load(&path).unwrap().build().unwrap();
    let stats = serve_round_trip(&session, "{\"Stats\":{\"v\":1}}");
    assert!(stats.contains("\"num_cells\":10"), "{stats}");
    let err = serve_round_trip(&session, "{\"Find\":{\"v\":99,\"config\":{}}}");
    assert!(err.contains("\"code\":\"bad_request\""), "{err}");
    let err = serve_round_trip(&session, "{\"Nope\":{}}");
    assert!(err.contains("unknown variant"), "{err}");
}
