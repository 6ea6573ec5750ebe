//! One Chrome `trace_event` dialect across the workspace: the daemon's
//! flight export (process-scoped `queue_depth` counter, no `tid`) must
//! pass the figure harness's checker — the one `smoke --trace` runs — not
//! only the daemon's own.

use bench::{SchemeId, SweepSpec};
use noc_serve::{chrome_trace, load_flight, Daemon, ServeConfig};
use traffic::SyntheticPattern;

#[test]
fn recorded_daemon_run_passes_the_harness_checker() {
    let dir = std::env::temp_dir().join(format!("fp_daemon_trace_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let flight = dir.join("run.flight");
    let daemon = Daemon::start(&ServeConfig {
        socket: dir.join("unused.sock"),
        store_dir: dir.join("store"),
        workers: 2,
        batch: 4,
        statsd: None,
        flight: Some(flight.clone()),
        tick_ms: 5,
    })
    .expect("engine boots");
    let job = daemon.submit(vec![SweepSpec {
        id: SchemeId::FastPass,
        pattern: SyntheticPattern::Uniform,
        rates: vec![0.02, 0.06],
        size: 4,
        fp_vcs: 2,
        warmup: 200,
        measure: 600,
        seed: 5,
    }]);
    let mut snap = daemon.wait_progress(&job, 0);
    while !snap.complete {
        snap = daemon.wait_progress(&job, snap.done);
    }
    daemon.collect(&job).expect("job completes");
    daemon.note_responded(job.id);
    // Let the sampler tick record at least one queue-depth sample.
    std::thread::sleep(std::time::Duration::from_millis(50));
    daemon.request_shutdown();
    daemon.flush_observability();

    let records = load_flight(&flight).expect("flight log loads");
    let mut json = Vec::new();
    chrome_trace(&records, &mut json).expect("in-memory write");
    noc_serve::check_daemon_trace(&json[..]).expect("the daemon's own requirements hold");
    let json = String::from_utf8(json).expect("UTF-8");
    let summary = bench::check_chrome_trace(&json, false).expect("harness checker accepts it");
    assert!(summary.counters >= 1, "queue_depth track present");
    assert!(
        summary.complete >= 2,
        "job span plus at least one batch span"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
