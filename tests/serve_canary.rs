//! Tier-1 canary for the sweep service (ROADMAP 3(e)): tier-1 runs only
//! this package's `tests/`, so without it a change to the daemon's
//! compute path is first seen by CI's `--workspace` run.
//!
//! An in-process [`Daemon`] on a temp store takes two specs with
//! different `(warmup, measure)` windows — so one claim cannot hold them
//! both — and must return the serial reference's points bit for bit,
//! leave a store the batch executor reads without recomputing, and stamp
//! every entry with a worker id and its own spec's window.

use bench::{
    point_cache_key, run_sweep_parallel, SchemeId, Store, SweepOptions, SweepResult, SweepSpec,
};
use noc_serve::{Daemon, ServeConfig};
use traffic::SyntheticPattern;

fn specs() -> Vec<SweepSpec> {
    [(SchemeId::FastPass, 200, 600), (SchemeId::Vct, 300, 500)]
        .into_iter()
        .map(|(id, warmup, measure)| SweepSpec {
            id,
            pattern: SyntheticPattern::Uniform,
            rates: vec![0.02, 0.06],
            size: 4,
            fp_vcs: 2,
            warmup,
            measure,
            seed: 5,
        })
        .collect()
}

#[test]
fn daemon_serial_and_batch_executor_agree_over_one_store() {
    let specs = specs();
    let dir = std::env::temp_dir().join(format!("fp_serve_canary_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let daemon = Daemon::start(&ServeConfig {
        socket: dir.join("unused.sock"),
        store_dir: dir.clone(),
        workers: 2,
        batch: 4,
        statsd: None,
        flight: None,
        tick_ms: 500,
    })
    .expect("engine boots");
    let job = daemon.submit(specs.clone());
    assert_eq!((job.total, job.computed), (4, 4), "cold store");
    let mut done = 0;
    loop {
        let snap = daemon.wait_progress(&job, done);
        if snap.complete {
            break;
        }
        done = snap.done;
    }
    let served = daemon.collect(&job).expect("job completes");
    daemon.request_shutdown();

    let serial: Vec<_> = specs.iter().map(bench::runner::sweep).collect();
    let json = |sweeps: &[SweepResult]| serde_json::to_string(sweeps).expect("sweeps serialize");
    assert_eq!(json(&served), json(&serial), "daemon vs serial reference");

    // The batch executor over the daemon's store: same bytes, and (the
    // provenance check below) every point a hit.
    let opts = SweepOptions {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        progress: false,
    };
    assert_eq!(json(&run_sweep_parallel(&specs, &opts)), json(&serial));

    let store = Store::new(&dir);
    for spec in &specs {
        for &rate in &spec.rates {
            let (_, provenance) = store
                .load_entry(point_cache_key(spec, rate))
                .expect("daemon-computed point present");
            let provenance = provenance.expect("daemon stamps provenance");
            // A batch-executor recompute would have overwritten the
            // stamp with `worker: None`.
            assert!(provenance.worker.is_some(), "{provenance:?}");
            assert_eq!(provenance.cycles, spec.warmup + spec.measure);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
