//! Wire-protocol robustness: malformed lines, half-dead clients and
//! daemon restarts must never wedge the service or corrupt results.

mod common;

use common::{counter, TestDaemon};
use noc_serve::client::Client;
use noc_serve::proto::{
    decode_response, encode, FlightEvent, Request, Response, WireSpec, MAX_REQUEST_LINE,
};
use noc_serve::{point_cache_key, SchemeId, SweepSpec};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::time::{Duration, Instant};

fn tiny_spec(seed: u64) -> SweepSpec {
    common::tiny_spec(SchemeId::Vct, seed)
}

/// A spec big enough that a client can plausibly disconnect before the
/// workers finish it.
fn slow_spec(seed: u64) -> SweepSpec {
    SweepSpec {
        measure: 5_000,
        warmup: 1_000,
        rates: vec![0.02, 0.05, 0.08],
        ..tiny_spec(seed)
    }
}

/// Raw socket access for tests that need to violate the protocol.
struct RawConn {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl RawConn {
    fn open(daemon: &TestDaemon) -> RawConn {
        let stream = UnixStream::connect(&daemon.sock).expect("connect");
        RawConn {
            writer: stream.try_clone().expect("clone stream"),
            reader: BufReader::new(stream),
        }
    }

    fn send_line(&mut self, line: &str) {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .expect("write line");
    }

    fn recv(&mut self) -> Response {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).expect("read line");
        assert!(n > 0, "daemon closed the connection unexpectedly");
        decode_response(&line).expect("daemon speaks the protocol")
    }
}

#[test]
fn malformed_lines_get_errors_and_the_connection_stays_usable() {
    let daemon = TestDaemon::boot_fresh("malformed");
    let mut conn = RawConn::open(&daemon);

    for garbage in [
        "not json at all",
        "[1,2,3]",
        "{\"cmd\":\"launch-missiles\"}",
        "{\"cmd\":\"submit\"}",
        "{\"no_cmd_field\":true}",
    ] {
        conn.send_line(garbage);
        let resp = conn.recv();
        assert!(
            matches!(resp, Response::Error { .. }),
            "`{garbage}` should draw an error, got {resp:?}"
        );
    }

    // Same connection still serves real requests.
    conn.send_line(&encode(&Request::Ping));
    assert!(matches!(conn.recv(), Response::Pong { .. }));

    // A submit with a well-formed frame but an invalid spec is rejected
    // with a readable message, and the connection survives that too.
    let mut bad = WireSpec::from_spec(&tiny_spec(1));
    bad.scheme = "NoSuchScheme".to_string();
    conn.send_line(&encode(&Request::Submit { specs: vec![bad] }));
    match conn.recv() {
        Response::Error { message } => assert!(
            message.contains("NoSuchScheme"),
            "error should name the bad scheme: {message}"
        ),
        other => panic!("bad spec should draw an error, got {other:?}"),
    }
    conn.send_line(&encode(&Request::Ping));
    assert!(matches!(conn.recv(), Response::Pong { .. }));

    let report = daemon.client().metrics().expect("metrics");
    assert_eq!(
        counter(&report, "bad_requests"),
        5,
        "malformed lines counted"
    );
    assert_eq!(
        counter(&report, "points_computed"),
        0,
        "nothing was simulated"
    );
}

/// A spec the scheme cannot be built on — DRAIN on a 3×3 mesh, which
/// has no Hamiltonian ring — is refused at decode with `bad spec`
/// naming DRAIN: no worker claims it, so nothing fails and nothing is
/// computed, and the connection keeps serving.
#[test]
fn a_spec_the_scheme_cannot_build_is_a_bad_spec() {
    let daemon = TestDaemon::boot_fresh("drain_odd");
    let mut conn = RawConn::open(&daemon);
    let drain = SweepSpec {
        id: SchemeId::Drain,
        size: 3,
        ..tiny_spec(1)
    };
    let specs = vec![WireSpec::from_spec(&drain)];
    conn.send_line(&encode(&Request::Submit { specs }));
    match conn.recv() {
        Response::Error { message } => assert!(
            message.starts_with("bad spec: ") && message.contains("DRAIN"),
            "{message}"
        ),
        other => panic!("DRAIN 3x3 should draw a bad spec error, got {other:?}"),
    }
    conn.send_line(&encode(&Request::Ping));
    assert!(matches!(conn.recv(), Response::Pong { .. }));

    let report = daemon.client().metrics().expect("metrics");
    assert_eq!(counter(&report, "points_failed"), 0, "{report:?}");
    assert_eq!(counter(&report, "points_computed"), 0, "{report:?}");
}

#[test]
fn an_endless_line_draws_one_error_and_the_daemon_lives_on() {
    let daemon = TestDaemon::boot_fresh("longline");
    let mut conn = RawConn::open(&daemon);
    // 5 MiB with no newline, written beside the read: the daemon stops
    // reading at its cap, so the writer may see the connection close.
    let mut writer = conn.writer.try_clone().expect("clone stream");
    let flood = std::thread::spawn(move || {
        let _ = writer.write_all(&vec![b'x'; 5 << 20]);
    });
    match conn.recv() {
        Response::Error { message } => assert!(
            message.contains(&MAX_REQUEST_LINE.to_string()),
            "error should name the cap: {message}"
        ),
        other => panic!("an endless line should draw an error, got {other:?}"),
    }
    let mut rest = String::new();
    let closed = matches!(conn.reader.read_line(&mut rest), Ok(0) | Err(_));
    assert!(
        closed,
        "the connection closes after the error, got {rest:?}"
    );
    flood.join().expect("writer thread");

    // A fresh connection is served, and the line counted as bad.
    let mut fresh = RawConn::open(&daemon);
    fresh.send_line(&encode(&Request::Ping));
    assert!(matches!(fresh.recv(), Response::Pong { .. }));
    let report = daemon.client().metrics().expect("metrics");
    assert_eq!(counter(&report, "bad_requests"), 1, "the long line counted");
}

#[test]
fn fetch_and_evict_reject_bad_keys_but_answer_good_ones() {
    let daemon = TestDaemon::boot_fresh("badkeys");
    let mut client = daemon.client();
    for bad in ["xyz", "ff", "00000000000000ff0"] {
        let err = client.fetch(vec![bad.to_string()]).unwrap_err();
        assert!(err.contains("bad key"), "{err}");
        let err = client.evict(vec![bad.to_string()]).unwrap_err();
        assert!(err.contains("bad key"), "{err}");
    }
    // A well-formed but unknown key is found:false, not an error.
    let points = client.fetch(vec!["00000000000000ff".to_string()]).unwrap();
    assert_eq!(points.len(), 1);
    assert!(!points[0].found);
    assert_eq!(
        client.evict(vec!["00000000000000ff".to_string()]).unwrap(),
        0
    );
}

#[test]
fn client_disconnect_mid_job_leaves_the_daemon_healthy() {
    let daemon = TestDaemon::boot_fresh("disconnect");
    let spec = slow_spec(31);

    // Submit and vanish: read the accepted line, then drop the socket
    // while workers are still simulating.
    {
        let mut conn = RawConn::open(&daemon);
        conn.send_line(&encode(&Request::Submit {
            specs: vec![WireSpec::from_spec(&spec)],
        }));
        let resp = conn.recv();
        assert!(matches!(resp, Response::Accepted { .. }), "{resp:?}");
    } // <- connection dropped here, job in flight

    // The daemon keeps computing; a well-behaved client asking for the
    // same points rides the in-flight work (or the finished store) and
    // gets complete results.
    let (receipt, sweeps) = daemon
        .client()
        .submit(std::slice::from_ref(&spec), |_, _| {})
        .expect("retry completes");
    assert_eq!(receipt.computed, 0, "retry must not recompute: {receipt:?}");
    assert_eq!(sweeps.len(), 1);
    assert_eq!(sweeps[0].points.len(), spec.rates.len());

    // Every point was simulated exactly once despite the dead client.
    let report = daemon.client().metrics().expect("metrics");
    assert_eq!(counter(&report, "points_computed"), spec.rates.len() as u64);
    assert_eq!(counter(&report, "points_failed"), 0);
}

#[test]
fn restarted_daemon_serves_warm_store_without_recompute() {
    let store = common::scratch_dir("warmstore").join("store");

    let first_run = {
        let daemon = TestDaemon::boot("warm1", store.clone());
        let (receipt, sweeps) = daemon
            .client()
            .submit(&[tiny_spec(41)], |_, _| {})
            .expect("cold job completes");
        assert_eq!(receipt.computed, 2);
        daemon.shutdown();
        serde_json::to_string_pretty(&sweeps).unwrap()
    };

    // Fresh daemon, same store: everything is a store hit.
    let daemon = TestDaemon::boot("warm2", store.clone());
    let (receipt, sweeps) = daemon
        .client()
        .submit(&[tiny_spec(41)], |_, _| {})
        .expect("warm job completes");
    assert_eq!(
        (receipt.computed, receipt.cached),
        (0, 2),
        "warm store must serve every point: {receipt:?}"
    );
    assert_eq!(serde_json::to_string_pretty(&sweeps).unwrap(), first_run);
    let report = daemon.client().metrics().expect("metrics");
    assert_eq!(counter(&report, "points_computed"), 0);
    assert_eq!(counter(&report, "store_hits"), 2);
    let _ = std::fs::remove_dir_all(store.parent().unwrap());
}

#[test]
fn evict_through_the_wire_forces_recompute_of_that_point_only() {
    let daemon = TestDaemon::boot_fresh("wire_evict");
    let spec = tiny_spec(53);
    let mut client = daemon.client();
    client
        .submit(std::slice::from_ref(&spec), |_, _| {})
        .unwrap();

    let victim = noc_serve::format_key(point_cache_key(&spec, spec.rates[0]));
    assert_eq!(client.evict(vec![victim.clone()]).unwrap(), 1);
    let points = client.fetch(vec![victim]).unwrap();
    assert!(!points[0].found, "evicted point must be gone");

    let (receipt, _) = client
        .submit(std::slice::from_ref(&spec), |_, _| {})
        .unwrap();
    assert_eq!(
        (receipt.computed, receipt.cached),
        (1, 1),
        "only the evicted point recomputes: {receipt:?}"
    );
}

#[test]
fn gc_over_the_wire_reports_planted_damage() {
    let daemon = TestDaemon::boot_fresh("wire_gc");
    let spec = tiny_spec(61);
    let mut client = daemon.client();
    client
        .submit(std::slice::from_ref(&spec), |_, _| {})
        .unwrap();

    // Plant a corrupt blob and an orphan temp file next to the two
    // valid entries, then gc through the protocol.
    std::fs::write(daemon.store_dir.join("00000000000000aa.json"), "{{{").unwrap();
    std::fs::write(daemon.store_dir.join("00000000000000bb.tmp.1"), "x").unwrap();
    let report = client.gc().unwrap();
    assert_eq!(report.kept, 2, "{report:?}");
    assert_eq!(report.dropped_corrupt, 1, "{report:?}");
    assert_eq!(report.dropped_temp, 1, "{report:?}");
}

/// Observability answers are part of the protocol even when the
/// daemon boots *without* a flight log or statsd sink: `metrics`
/// reports a healthy zero-sink bus and `watch` still streams records
/// (the bus fans out to watchers regardless of whether a JSONL sink
/// was configured).
#[test]
fn metrics_and_watch_work_without_a_flight_log() {
    let daemon = TestDaemon::boot_fresh("bare_observe");
    let report = daemon.client().metrics().expect("metrics");
    assert_eq!(report.flight.written, 0, "no sink, nothing written");
    assert_eq!(report.flight.dropped, 0);
    assert_eq!(report.flight.watchers, 0);
    assert_eq!(report.proto, noc_serve::proto::PROTO_VERSION, "{report:?}");

    let seen = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let sink = std::sync::Arc::clone(&seen);
    let watcher_client = daemon.client();
    let watcher = std::thread::spawn(move || {
        watcher_client
            .watch(|record| {
                sink.lock().expect("seen lock").push(record);
                true
            })
            .expect("watch ends cleanly at shutdown");
    });
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    while daemon.client().metrics().expect("metrics").flight.watchers == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never subscribed"
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    let spec = tiny_spec(71);
    daemon
        .client()
        .submit(std::slice::from_ref(&spec), |_, _| {})
        .expect("job completes");

    let mut daemon = daemon;
    daemon.stop();
    watcher.join().expect("watcher thread");
    // The stream alone tells the job's whole story: it opens and closes
    // exactly once, and every chain in between proves out.
    let seen = seen.lock().expect("seen lock");
    let events = |is: fn(&FlightEvent) -> bool| seen.iter().filter(|r| is(&r.event)).count();
    let opened = events(|e| matches!(e, FlightEvent::Submitted { .. }));
    let closed = events(|e| matches!(e, FlightEvent::Responded { .. }));
    assert_eq!((opened, closed), (1, 1), "{seen:?}");
    assert_eq!(noc_serve::validate_chains(&seen), Vec::<String>::new());
}

/// `shutdown` returns only once the daemon has stopped: before anyone
/// joins its thread, the socket is gone and the flight log is complete.
#[test]
fn shutdown_returns_after_the_daemon_has_flushed() {
    let mut daemon = TestDaemon::boot_fresh_observed("shutdown_flush");
    daemon
        .client()
        .submit(&[tiny_spec(73)], |_, _| {})
        .expect("job completes");
    daemon.client().shutdown().expect("daemon stops");
    assert!(!daemon.sock.exists(), "socket outlived shutdown");
    let records = noc_serve::load_flight(&daemon.flight_path()).expect("flight log loads");
    assert_eq!(noc_serve::validate_chains(&records), Vec::<String>::new());
    daemon.stop();
}

/// The accept loop blocks in `accept`, so a fresh connection is served
/// at once: a loop polling a non-blocking accept between sleeps makes
/// each connect wait out the sleep (25 ms a connect, with 25 ms polls).
#[test]
fn a_fresh_connection_is_answered_without_a_polling_wait() {
    let daemon = TestDaemon::boot_fresh("connect_rtt");
    let mut rtts: Vec<Duration> = (0..20)
        .map(|_| {
            let t0 = Instant::now();
            let mut client = Client::connect(&daemon.sock).expect("daemon is listening");
            client.ping().expect("pong");
            t0.elapsed()
        })
        .collect();
    rtts.sort();
    let median = rtts[rtts.len() / 2];
    assert!(
        median < Duration::from_millis(5),
        "median connect + ping {median:?} over {rtts:?}"
    );
    daemon.shutdown();
}
