//! Live-server replay tests: boot the real `gtl_api::serve` loop on a
//! loopback port and drive it with `gtl_loadgen::replay`.
//!
//! Raw `thread::scope` is fine here (test zone); production loadgen code
//! fans out through `gtl_core::exec::parallel_map_with` only.

use std::path::PathBuf;

use gtl_api::{
    bind, serve, serve_with_metrics, FindRequest, Request, ServeOptions, Session, StatsRequest,
};
use gtl_loadgen::replay::{self, ReplayMode, ReplayOptions, ReplayReport};
use gtl_loadgen::trace::TraceRecord;
use gtl_netlist::NetlistBuilder;
use gtl_tangled::FinderConfig;

/// The 20-cell clique-plus-ring fixture the serve tests use.
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

fn find_line() -> String {
    serde::json::to_string(&Request::Find(FindRequest::new(FinderConfig {
        num_seeds: 6,
        min_size: 3,
        max_order_len: 10,
        rng_seed: 3,
        ..FinderConfig::default()
    })))
}

fn stats_line() -> String {
    serde::json::to_string(&Request::Stats(StatsRequest::new()))
}

/// Boots a fresh server with an accept budget of `max_conns`, runs `f`
/// against its address, and joins the server before returning.
fn with_server<R: Send>(max_conns: usize, f: impl FnOnce(&str) -> R + Send) -> R {
    let session = session();
    let listener = bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let options = ServeOptions::new().lanes(1).max_connections(Some(max_conns));
    std::thread::scope(|scope| {
        let handle = scope.spawn(|| serve(&session, &listener, &options).unwrap());
        let result = f(&addr);
        handle.join().unwrap();
        result
    })
}

fn unique_dir(name: &str) -> PathBuf {
    gtl_core::testdir::test_dir("gtl_loadgen_live", name)
}

#[test]
fn replays_across_fresh_servers_are_byte_identical() {
    // Two connections: conn 0 pipelines a Find and a Stats, conn 1 sends
    // one Find. v5 responses carry accept-order trace stamps, so byte
    // identity across runs also proves the serial-connect contract.
    let records = vec![
        TraceRecord::new(0, 0, 0, find_line()),
        TraceRecord::new(0, 1, 100, stats_line()),
        TraceRecord::new(1, 0, 200, find_line()),
    ];
    let run_one = || {
        with_server(2, |addr| {
            let mut options = ReplayOptions::new(addr);
            options.mode = ReplayMode::Closed { inflight: 2 };
            replay::run(&records, &options).unwrap()
        })
    };
    let a: ReplayReport = run_one();
    let b: ReplayReport = run_one();
    assert_eq!(a.log, b.log, "two replays of the same trace must be byte-identical");
    assert_eq!(a.responses, 3);
    assert_eq!(a.log.lines().count(), 3);
    assert!(a.req_per_s > 0.0);
    let counts: Vec<(&str, u64)> = a.kinds.iter().map(|k| (k.kind, k.count)).collect();
    assert_eq!(counts, vec![("find", 2), ("stats", 1)]);
}

#[test]
fn expect_mode_passes_on_match_and_fails_on_drift() {
    let golden = unique_dir("expect").join("golden.log");
    let records =
        vec![TraceRecord::new(0, 0, 0, find_line()), TraceRecord::new(0, 1, 0, stats_line())];
    with_server(1, |addr| {
        let mut options = ReplayOptions::new(addr);
        options.out = Some(golden.clone());
        replay::run(&records, &options).unwrap();
    });
    with_server(1, |addr| {
        let mut options = ReplayOptions::new(addr);
        options.expect = Some(golden.clone());
        replay::run(&records, &options).unwrap();
    });
    // Tamper with one byte of the golden: the replay must fail and name
    // the diverging line.
    let mut text = std::fs::read_to_string(&golden).unwrap();
    text = text.replacen("{", "[", 1);
    std::fs::write(&golden, text).unwrap();
    let err = with_server(1, |addr| {
        let mut options = ReplayOptions::new(addr);
        options.expect = Some(golden.clone());
        replay::run(&records, &options).unwrap_err()
    });
    let message = err.to_string();
    assert!(message.contains("response drift"), "{message}");
    assert!(message.contains("line 1"), "{message}");
}

#[test]
fn closed_loop_repeat_reports_per_kind_latencies() {
    let summary_path = unique_dir("closed").join("loadgen.json");
    let records =
        vec![TraceRecord::new(0, 0, 0, find_line()), TraceRecord::new(0, 1, 0, stats_line())];
    let report = with_server(1, |addr| {
        let mut options = ReplayOptions::new(addr);
        options.mode = ReplayMode::Closed { inflight: 2 };
        options.repeat = 5;
        options.summary_out = Some(summary_path.clone());
        replay::run(&records, &options).unwrap()
    });
    assert_eq!(report.requests, 10);
    assert_eq!(report.responses, 10);
    assert!(report.req_per_s > 0.0);
    let find = report.kinds.iter().find(|k| k.kind == "find").unwrap();
    let stats = report.kinds.iter().find(|k| k.kind == "stats").unwrap();
    assert_eq!((find.count, stats.count), (5, 5));
    assert!(find.p50_us <= find.p95_us && find.p95_us <= find.p99_us);
    assert!(find.max_us > 0);

    let parsed = serde::json::parse(&std::fs::read_to_string(&summary_path).unwrap()).unwrap();
    assert_eq!(parsed.get("bench").and_then(|v| v.as_str()), Some("loadgen"));
    let runs = match parsed.get("runs") {
        Some(serde::Value::Arr(runs)) => runs,
        other => panic!("runs missing: {other:?}"),
    };
    assert_eq!(runs[0].get("mode").and_then(|v| v.as_str()), Some("closed"));
    assert_eq!(runs[0].get("responses").and_then(|v| v.as_u64()), Some(10));
    assert!(runs[0].get("req_per_s").and_then(|v| v.as_f64()).unwrap() > 0.0);
}

#[test]
fn open_loop_paces_requests_at_recorded_offsets() {
    // Offsets span 60ms; an open-loop replay cannot finish faster than
    // the last scheduled send.
    let records = vec![
        TraceRecord::new(0, 0, 0, stats_line()),
        TraceRecord::new(0, 1, 30_000, stats_line()),
        TraceRecord::new(0, 2, 60_000, stats_line()),
    ];
    let report = with_server(1, |addr| {
        let mut options = ReplayOptions::new(addr);
        options.mode = ReplayMode::Open { rate: 0.0 };
        replay::run(&records, &options).unwrap()
    });
    assert_eq!(report.responses, 3);
    assert_eq!(report.log.lines().count(), 3);
    assert!(
        report.wall_seconds >= 0.06,
        "open loop finished in {}s, before the 60ms schedule",
        report.wall_seconds
    );
}

#[test]
fn scrape_captures_metrics_while_connections_are_open() {
    let dir = unique_dir("scrape");
    let scrape_out = dir.join("scrape.txt");
    let records =
        vec![TraceRecord::new(0, 0, 0, find_line()), TraceRecord::new(0, 1, 0, stats_line())];
    let session = session();
    let listener = bind("127.0.0.1:0").unwrap();
    let metrics_listener = bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let metrics_addr = metrics_listener.local_addr().unwrap().to_string();
    let options = ServeOptions::new().lanes(1).max_connections(Some(1));
    let report = std::thread::scope(|scope| {
        let handle = scope.spawn(|| {
            serve_with_metrics(&session, &listener, &options, Some(&metrics_listener)).unwrap()
        });
        let mut replay_options = ReplayOptions::new(&addr);
        replay_options.scrape_addr = Some(metrics_addr);
        replay_options.scrape_out = Some(scrape_out.clone());
        let report = replay::run(&records, &replay_options).unwrap();
        handle.join().unwrap();
        report
    });
    let scrape = report.scrape.expect("scrape text in report");
    assert!(scrape.contains("200 OK"), "{scrape}");
    assert!(scrape.contains("gtl_requests"), "{scrape}");
    assert_eq!(std::fs::read_to_string(&scrape_out).unwrap(), scrape);
}
