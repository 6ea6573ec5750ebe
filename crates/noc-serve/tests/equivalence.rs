//! The service's core guarantee: sweeps answered by the daemon are
//! **bitwise identical** to the batch executor's, and land in the store
//! under exactly the batch executor's cache keys — so batch runs and
//! daemon runs share one cache with no translation layer.

mod common;

use common::{small_spec, TestDaemon};
use noc_serve::{point_cache_key, run_sweep_parallel, SchemeId, Store, SweepOptions, SweepSpec};
use traffic::SyntheticPattern;

fn specs() -> Vec<SweepSpec> {
    [
        (SchemeId::FastPass, SyntheticPattern::Uniform),
        (SchemeId::Vct, SyntheticPattern::Uniform),
        (SchemeId::FastPass, SyntheticPattern::Transpose),
    ]
    .into_iter()
    .map(|(id, pattern)| small_spec(id, pattern, 5))
    .collect()
}

#[test]
fn daemon_results_are_bitwise_identical_to_batch() {
    let specs = specs();

    // Batch reference with the cache off: pure simulation.
    let batch = run_sweep_parallel(&specs, &SweepOptions::quiet(2));
    let batch_json = serde_json::to_string_pretty(&batch).unwrap();

    let daemon = TestDaemon::boot_fresh("equivalence");
    let mut progress_calls = 0;
    let (receipt, served) = daemon
        .client()
        .submit(&specs, |done, total| {
            assert!(done <= total);
            progress_calls += 1;
        })
        .expect("job completes");
    assert_eq!(receipt.points, 9);
    assert_eq!(receipt.computed, 9, "cold daemon simulates everything");
    assert!(progress_calls > 0, "progress must stream");

    assert_eq!(
        serde_json::to_string_pretty(&served).unwrap(),
        batch_json,
        "daemon sweeps must be bitwise identical to the batch executor's"
    );
}

#[test]
fn daemon_stores_points_under_the_batch_executors_keys() {
    let specs = specs();
    let daemon = TestDaemon::boot_fresh("keys");
    daemon
        .client()
        .submit(&specs, |_, _| {})
        .expect("job completes");

    // Every (spec, rate) must sit in the store under point_cache_key —
    // checked both through the store API and over the wire.
    let store = Store::new(&daemon.store_dir);
    let mut keys = Vec::new();
    for spec in &specs {
        for &rate in &spec.rates {
            let key = point_cache_key(spec, rate);
            assert!(
                store.load(key).is_some(),
                "point {} missing from store",
                noc_serve::format_key(key)
            );
            keys.push(noc_serve::format_key(key));
        }
    }
    let fetched = daemon.client().fetch(keys).expect("fetch");
    assert!(
        fetched.iter().all(|p| p.found),
        "all keys resolve over the wire"
    );

    // And a *batch* run over the same store directory now serves
    // everything from cache: the two executors interoperate byte-level.
    let opts = SweepOptions {
        jobs: 2,
        cache_dir: Some(daemon.store_dir.clone()),
        progress: false,
    };
    let warm = run_sweep_parallel(&specs, &opts);
    let cold = run_sweep_parallel(&specs, &SweepOptions::quiet(2));
    assert_eq!(
        serde_json::to_string_pretty(&warm).unwrap(),
        serde_json::to_string_pretty(&cold).unwrap()
    );
}

/// The provenance stamp distinguishes the two executors: points the
/// daemon computed are stamped with the claiming worker's id (visible
/// over the wire via `fetch`), while the in-process batch executor
/// stamps `worker: None` — same store layout, honest attribution.
#[test]
fn provenance_distinguishes_daemon_workers_from_the_batch_executor() {
    let specs = specs();
    let daemon = TestDaemon::boot_fresh("provenance");
    daemon
        .client()
        .submit(&specs, |_, _| {})
        .expect("job completes");

    let keys: Vec<String> = specs
        .iter()
        .flat_map(|spec| {
            spec.rates
                .iter()
                .map(|&rate| noc_serve::format_key(point_cache_key(spec, rate)))
                .collect::<Vec<_>>()
        })
        .collect();
    let fetched = daemon.client().fetch(keys).expect("fetch");
    for point in &fetched {
        let provenance = point
            .provenance
            .as_ref()
            .expect("daemon-computed points carry a provenance stamp");
        assert!(
            provenance.worker.is_some(),
            "daemon stamps the claiming worker: {provenance:?}"
        );
        assert!(provenance.cycles > 0, "{provenance:?}");
    }

    // The batch executor over a *fresh* directory stamps the same
    // structure with worker: None.
    let dir = std::env::temp_dir().join(format!("fp_prov_batch_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("batch store dir");
    let opts = SweepOptions {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        progress: false,
    };
    run_sweep_parallel(&specs, &opts);
    let store = Store::new(&dir);
    for spec in &specs {
        for &rate in &spec.rates {
            let (_, provenance) = store
                .load_entry(point_cache_key(spec, rate))
                .expect("batch-computed point present");
            let provenance = provenance.expect("batch executor stamps provenance too");
            assert!(
                provenance.worker.is_none(),
                "batch executor is worker: None, got {provenance:?}"
            );
        }
    }
}
