//! End-to-end observability: the flight recorder tells every job's
//! complete story, `metrics`/`watch` answer over the wire, and none of
//! it perturbs results — sweeps served while a watcher streams are
//! still bitwise identical to the batch executor's.

mod common;

use common::{counter, small_spec, TestDaemon};
use noc_serve::flight::{check_daemon_trace, chrome_trace, load_flight, validate_chains};
use noc_serve::proto::{decode_response, encode, FlightRecord, Request, Response};
use noc_serve::{
    run_sweep_parallel, MetricsRegistry, MetricsReport, SchemeId, SweepOptions, SweepSpec, WireSpec,
};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use traffic::SyntheticPattern;

/// The Chrome export of `records`, in memory.
fn export(records: &[FlightRecord]) -> Vec<u8> {
    let mut json = Vec::new();
    chrome_trace(records, &mut json).expect("in-memory write");
    json
}

fn specs() -> Vec<SweepSpec> {
    [
        (SchemeId::FastPass, SyntheticPattern::Uniform),
        (SchemeId::Vct, SyntheticPattern::Transpose),
    ]
    .into_iter()
    .map(|(id, pattern)| small_spec(id, pattern, 23))
    .collect()
}

/// Replays a flight log into a fresh registry with the daemon's own
/// fold and asserts it gives the `metrics` report's every count the
/// log determines: the eight job counters, the `batch_wall_ms` and
/// `points_per_job` summaries, and each worker's batches, points and
/// busy time.
fn assert_log_reconciles(records: &[FlightRecord], report: &MetricsReport) {
    let replay = MetricsRegistry::new(report.workers.len());
    for r in records {
        replay.apply(&r.event);
    }
    let folded = |report: &MetricsReport| {
        let counters = [
            "jobs_submitted",
            "points_requested",
            "memory_hits",
            "store_hits",
            "dedup_waits",
            "points_enqueued",
            "points_computed",
            "points_failed",
        ]
        .map(|name| (name, counter(report, name)));
        let histograms = ["batch_wall_ms", "points_per_job"].map(|name| {
            let found = report.histograms.iter().find(|h| h.name == name);
            found.expect("histogram").clone()
        });
        let workers: Vec<_> = report
            .workers
            .iter()
            .map(|w| (w.worker, w.batches, w.points, w.busy_ms))
            .collect();
        (counters, histograms, workers)
    };
    assert_eq!(
        folded(&replay.report(0, [0, 0], Default::default())),
        folded(report),
        "flight log vs metrics report"
    );
}

/// The CI `serve` job's check on a release daemon: the flight log at
/// `NOCSERVE_FLIGHT` reconciles with the `nocctl metrics --json` report
/// saved at `NOCSERVE_METRICS` (run with `-- --ignored`).
#[test]
#[ignore = "reads NOCSERVE_FLIGHT and NOCSERVE_METRICS"]
fn a_saved_log_reconciles_with_its_metrics() {
    let path = |var: &str| std::env::var(var).unwrap_or_else(|_| panic!("{var} is not set"));
    let records = load_flight(path("NOCSERVE_FLIGHT").as_ref()).expect("flight log loads");
    let metrics = std::fs::read_to_string(path("NOCSERVE_METRICS")).expect("metrics file");
    assert_log_reconciles(
        &records,
        &serde_json::from_str(&metrics).expect("metrics report"),
    );
}

/// A live watcher must see the job lifecycle stream, and its presence
/// must not perturb results: two concurrent submits under an active
/// `watch` still answer bitwise-batch-identical sweeps.
#[test]
fn watch_streams_lifecycle_without_perturbing_results() {
    let specs = specs();
    let batch_json =
        serde_json::to_string_pretty(&run_sweep_parallel(&specs, &SweepOptions::quiet(2))).unwrap();

    let daemon = TestDaemon::boot_fresh_observed("watch");
    let seen = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&seen);
    let watcher_client = daemon.client();
    let watcher = std::thread::spawn(move || {
        watcher_client
            .watch(|record| {
                sink.lock().expect("seen lock").push(record);
                true
            })
            .expect("watch stream ends cleanly at daemon shutdown");
    });
    // Barrier: only submit once the subscription is live, so the
    // watcher is guaranteed the full story of both jobs.
    let deadline = Instant::now() + Duration::from_secs(10);
    while daemon.client().metrics().expect("metrics").flight.watchers == 0 {
        assert!(Instant::now() < deadline, "watcher never subscribed");
        std::thread::sleep(Duration::from_millis(10));
    }

    let workers: Vec<_> = (0..2)
        .map(|_| {
            let mut client = daemon.client();
            let specs = specs.clone();
            std::thread::spawn(move || {
                let (receipt, served) = client.submit(&specs, |_, _| {}).expect("job completes");
                (receipt, serde_json::to_string_pretty(&served).unwrap())
            })
        })
        .collect();
    for worker in workers {
        let (receipt, served_json) = worker.join().expect("client thread");
        assert_eq!(receipt.points, 6);
        assert_eq!(
            served_json, batch_json,
            "sweeps under an active watcher must stay bitwise batch-identical"
        );
    }

    // The wire metrics report reflects the work that just happened.
    let report = daemon.client().metrics().expect("metrics");
    let counter = |name: &str| counter(&report, name);
    assert_eq!(counter("jobs_submitted"), 2);
    assert_eq!(counter("jobs_completed"), 2);
    assert_eq!(counter("points_requested"), 12);
    assert_eq!(
        counter("points_computed")
            + counter("store_hits")
            + counter("memory_hits")
            + counter("dedup_waits"),
        12,
        "{report:?}"
    );
    assert_eq!(counter("points_computed"), 6, "each unique point once");
    let batches = report
        .histograms
        .iter()
        .find(|h| h.name == "batch_wall_ms")
        .expect("batch histogram");
    assert!(
        batches.count >= 1 && batches.p99 >= batches.p50,
        "{batches:?}"
    );
    assert_eq!(report.flight.watchers, 1);
    assert_eq!(report.flight.dropped, 0, "nothing may be dropped here");
    assert!(
        report.workers.iter().map(|w| w.points).sum::<u64>() >= 6,
        "{report:?}"
    );

    let flight_path = daemon.flight_path();
    let mut daemon = daemon;
    daemon.stop();
    watcher.join().expect("watcher thread");

    // The watcher saw the whole story live: its stream proves out and
    // reconciles with the registry just like the log on disk.
    let seen = seen.lock().expect("seen lock");
    assert_eq!(validate_chains(&seen), Vec::<String>::new());
    assert_log_reconciles(&seen, &report);

    // After shutdown the JSONL log is complete on disk: chains prove
    // out and the Perfetto export passes its structural checker.
    let records = load_flight(&flight_path).expect("flight log loads");
    assert_eq!(validate_chains(&records), Vec::<String>::new());
    assert_log_reconciles(&records, &report);
    let summary = check_daemon_trace(&export(&records)[..]).expect("valid chrome trace");
    assert_eq!(summary.jobs, 2);
    assert!(summary.batch_spans >= 1 && summary.counter_samples >= 1);
}

/// The flight log distinguishes every resolution path — enqueued on a
/// cold submit, memory on the warm resubmit — and the statsd drain
/// writes buffered lines to the configured file.
#[test]
fn flight_log_and_statsd_drain_cover_resolution_paths() {
    let specs = specs();
    let daemon = TestDaemon::boot_fresh_observed("paths");
    daemon
        .client()
        .submit(&specs, |_, _| {})
        .expect("cold job completes");
    daemon
        .client()
        .submit(&specs, |_, _| {})
        .expect("warm job completes");
    let report = daemon.client().metrics().expect("metrics");
    let (flight_path, statsd_path) = (daemon.flight_path(), daemon.statsd_path());
    let mut daemon = daemon;
    daemon.stop();

    let records = load_flight(&flight_path).expect("flight log loads");
    assert_eq!(validate_chains(&records), Vec::<String>::new());
    assert_log_reconciles(&records, &report);
    // The cold submit enqueued all six points, the warm resubmit hit
    // memory for all six, and each computed point was stored once.
    let paths = ["points_enqueued", "memory_hits", "points_computed"].map(|n| counter(&report, n));
    assert_eq!(paths, [6, 6, 6], "{report:?}");

    let statsd = std::fs::read_to_string(&statsd_path).expect("statsd drain wrote the file");
    for needle in ["nocserve.jobs_submitted:", "nocserve.queue_depth:"] {
        assert!(statsd.contains(needle), "missing {needle:?} in:\n{statsd}");
    }
    // Counters drain as per-tick deltas; across all drains they must
    // sum to the exact total.
    let computed: u64 = statsd
        .lines()
        .filter_map(|l| l.strip_prefix("nocserve.points_computed:"))
        .filter_map(|rest| rest.strip_suffix("|c"))
        .map(|v| v.parse::<u64>().expect("counter value"))
        .sum();
    assert_eq!(computed, 6, "deltas sum to the total in:\n{statsd}");
}

/// A client that hangs up mid-job still closes the job's span: the
/// handler publishes `responded` when its progress write finds the peer
/// gone, so the log validates and exports like any other.
#[test]
fn a_client_hanging_up_mid_job_still_closes_its_span() {
    let spec = small_spec(SchemeId::FastPass, SyntheticPattern::Uniform, 3);
    let daemon = TestDaemon::boot_fresh_observed("hangup");
    {
        let mut stream = UnixStream::connect(&daemon.sock).expect("connect");
        let submit = encode(&Request::Submit {
            specs: vec![WireSpec::from_spec(&spec)],
        });
        writeln!(stream, "{submit}").expect("send submit");
        let mut accepted = String::new();
        BufReader::new(&stream)
            .read_line(&mut accepted)
            .expect("read accepted");
        assert!(
            matches!(decode_response(&accepted), Ok(Response::Accepted { .. })),
            "{accepted}"
        );
    } // <- hung up here, job in flight

    // The job finishes with nobody listening, so the daemon's next
    // progress write meets the closed peer.
    let computed = || {
        counter(
            &daemon.client().metrics().expect("metrics"),
            "points_computed",
        )
    };
    let deadline = Instant::now() + Duration::from_secs(60);
    while computed() < 3 {
        assert!(Instant::now() < deadline, "job never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
    let flight_path = daemon.flight_path();
    let mut daemon = daemon;
    daemon.stop();

    let records = load_flight(&flight_path).expect("flight log loads");
    assert_eq!(validate_chains(&records), Vec::<String>::new());
    check_daemon_trace(&export(&records)[..]).expect("valid chrome trace");
}
