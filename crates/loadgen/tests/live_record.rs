//! Live record-proxy test: client → proxy → real server, then replay
//! the captured trace against a fresh server and compare bytes.
//!
//! Raw `thread::scope` is fine here (test zone); the production proxy
//! itself is single-threaded.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use gtl_api::{bind, serve, FindRequest, Request, ServeOptions, Session, StatsRequest};
use gtl_loadgen::record::{record_with_listener, RecordOptions};
use gtl_loadgen::replay::{self, ReplayOptions};
use gtl_loadgen::trace::read_trace;
use gtl_netlist::NetlistBuilder;
use gtl_tangled::FinderConfig;

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

#[test]
fn proxy_captures_traffic_that_replays_byte_identically() {
    let dir = gtl_core::testdir::test_dir(
        "gtl_loadgen_live",
        "proxy_captures_traffic_that_replays_byte_identically",
    );
    let trace_path = dir.join("captured.jsonl");

    // Phase 1: record. A client talks to the real server through the
    // proxy; the proxy must be a transparent byte pipe while capturing
    // every request line.
    let upstream_session = session();
    let upstream_listener = bind("127.0.0.1:0").unwrap();
    let upstream_addr = upstream_listener.local_addr().unwrap().to_string();
    let serve_options = ServeOptions::new().lanes(1).max_connections(Some(1));

    let proxy_listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let proxy_addr = proxy_listener.local_addr().unwrap().to_string();
    let mut record_options = RecordOptions::new("ignored", &upstream_addr, &trace_path);
    record_options.max_conns = 1;

    let (client_lines, summary) = std::thread::scope(|scope| {
        let server =
            scope.spawn(|| serve(&upstream_session, &upstream_listener, &serve_options).unwrap());
        let proxy = scope.spawn(|| record_with_listener(&proxy_listener, &record_options).unwrap());

        let mut conn = TcpStream::connect(&proxy_addr).unwrap();
        write!(conn, "{}\n{}\n", find_line(), stats_line()).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut lines = Vec::new();
        for _ in 0..2 {
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            lines.push(line.trim_end().to_string());
        }
        drop(reader);
        drop(conn); // client hangs up; proxy propagates EOF upstream

        let summary = proxy.join().unwrap();
        server.join().unwrap();
        (lines, summary)
    });
    assert_eq!((summary.connections, summary.requests), (1, 2));

    let records = read_trace(&trace_path).unwrap();
    assert_eq!(records.len(), 2);
    assert_eq!(records[0].line, find_line());
    assert_eq!(records[1].line, stats_line());
    assert_eq!((records[0].conn, records[0].seq), (0, 0));
    assert_eq!((records[1].conn, records[1].seq), (0, 1));
    assert!(records[0].offset_us <= records[1].offset_us);

    // Phase 2: replay the capture against a fresh server. The fresh
    // server assigns the same accept-order trace stamps, so the replayed
    // responses must match what the live client saw byte for byte.
    let replay_session = session();
    let replay_listener = bind("127.0.0.1:0").unwrap();
    let replay_addr = replay_listener.local_addr().unwrap().to_string();
    let report = std::thread::scope(|scope| {
        let server =
            scope.spawn(|| serve(&replay_session, &replay_listener, &serve_options).unwrap());
        let report = replay::run(&records, &ReplayOptions::new(&replay_addr)).unwrap();
        server.join().unwrap();
        report
    });
    assert_eq!(report.responses, 2);
    let replayed: Vec<&str> = report.log.lines().collect();
    assert_eq!(replayed, client_lines.iter().map(String::as_str).collect::<Vec<_>>());
}
