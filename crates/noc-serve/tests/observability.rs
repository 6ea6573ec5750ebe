//! End-to-end observability: the flight recorder tells every job's
//! complete story, `metrics`/`watch` answer over the wire, and none of
//! it perturbs results — sweeps served while a watcher streams are
//! still bitwise identical to the batch executor's.

mod common;

use common::{counter, small_spec, TestDaemon};
use noc_serve::flight::{check_daemon_trace, chrome_trace, load_flight, validate_chains};
use noc_serve::proto::{decode_response, encode, flight_event as ev, Request, Response};
use noc_serve::{run_sweep_parallel, SchemeId, SweepOptions, SweepSpec, WireSpec};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use traffic::SyntheticPattern;

fn specs() -> Vec<SweepSpec> {
    [
        (SchemeId::FastPass, SyntheticPattern::Uniform),
        (SchemeId::Vct, SyntheticPattern::Transpose),
    ]
    .into_iter()
    .map(|(id, pattern)| small_spec(id, pattern, 23))
    .collect()
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

    // The watcher saw the lifecycle vocabulary, not just noise.
    let seen = seen.lock().expect("seen lock");
    for event in [ev::SUBMITTED, ev::RESOLVED, ev::BATCH_DONE, ev::RESPONDED] {
        assert!(
            seen.iter().any(|r| r.event == event),
            "watcher never saw {event:?} among {} records",
            seen.len()
        );
    }
    assert_eq!(
        seen.iter().filter(|r| r.event == ev::SUBMITTED).count(),
        2,
        "one submitted record per job"
    );

    // After shutdown the JSONL log is complete on disk: chains prove
    // out and the Perfetto export passes its structural checker.
    let records = load_flight(&flight_path).expect("flight log loads");
    assert_eq!(validate_chains(&records), Vec::<String>::new());
    let summary = check_daemon_trace(&chrome_trace(&records)).expect("valid chrome trace");
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
    let (flight_path, statsd_path) = (daemon.flight_path(), daemon.statsd_path());
    let mut daemon = daemon;
    daemon.stop();

    let records = load_flight(&flight_path).expect("flight log loads");
    assert_eq!(validate_chains(&records), Vec::<String>::new());
    let kind_count = |kind: &str| {
        records
            .iter()
            .filter(|r| r.event == ev::RESOLVED && r.kind.as_deref() == Some(kind))
            .count()
    };
    assert_eq!(kind_count(ev::KIND_ENQUEUED), 6, "cold submit enqueues all");
    assert_eq!(kind_count(ev::KIND_MEMORY), 6, "warm resubmit hits memory");
    assert!(
        records.iter().any(|r| r.event == ev::QUEUE),
        "queue depth was sampled"
    );
    assert_eq!(
        records.iter().filter(|r| r.event == ev::STORED).count(),
        6,
        "every computed point left a stored record"
    );

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
    check_daemon_trace(&chrome_trace(&records)).expect("valid chrome trace");
}
