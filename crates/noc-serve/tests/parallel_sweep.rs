//! The parallel executor's contract: results bitwise identical to the
//! serial path regardless of worker count, and the on-disk cache is
//! actually consulted (not silently recomputed).

mod common;

use common::{small_spec, Scratch};
use noc_serve::runner::sweep;
use noc_serve::{run_sweep_parallel, SchemeId, SweepOptions, SweepSpec};
use traffic::SyntheticPattern;

fn small_specs() -> Vec<SweepSpec> {
    [SchemeId::FastPass, SchemeId::Spin, SchemeId::Vct]
        .iter()
        .map(|&id| small_spec(id, SyntheticPattern::Uniform, 42))
        .collect()
}

#[test]
fn parallel_sweep_is_bitwise_identical_to_serial() {
    let specs = small_specs();
    let serial: Vec<_> = specs.iter().map(sweep).collect();
    let one = run_sweep_parallel(&specs, &SweepOptions::quiet(1));
    let four = run_sweep_parallel(&specs, &SweepOptions::quiet(4));
    let serial_json = serde_json::to_string_pretty(&serial).unwrap();
    let one_json = serde_json::to_string_pretty(&one).unwrap();
    let four_json = serde_json::to_string_pretty(&four).unwrap();
    assert_eq!(serial_json, one_json, "1 worker must match the serial path");
    assert_eq!(one_json, four_json, "4 workers must match 1 worker");
}

#[test]
fn cache_hit_skips_simulation() {
    let scratch = Scratch::new("hit");
    let specs = small_specs();
    let opts = SweepOptions {
        jobs: 2,
        cache_dir: Some(scratch.0.clone()),
        progress: false,
    };
    let first = run_sweep_parallel(&specs, &opts);

    // Rewrite every cached point with a sentinel latency (through the
    // store so the entries stay valid envelopes). If the second run
    // simulates anything, that point reverts to its true value.
    let store = noc_serve::Store::new(&scratch.0);
    let mut corrupted = 0;
    for entry in std::fs::read_dir(&scratch.0).unwrap() {
        let path = entry.unwrap().path();
        let stem = path.file_stem().unwrap().to_string_lossy().into_owned();
        let key = noc_serve::Store::parse_key(&stem).expect("cache files are named by hex key");
        let mut point = store.load(key).expect("fresh cache entry loads");
        point.avg_latency = 123_456.75;
        assert!(store.store(key, &point));
        corrupted += 1;
    }
    let total_points: usize = specs.iter().map(|s| s.rates.len()).sum();
    assert_eq!(corrupted, total_points, "one cache file per point");

    let second = run_sweep_parallel(&specs, &opts);
    for (sweep_a, sweep_b) in first.iter().zip(&second) {
        for (a, b) in sweep_a.points.iter().zip(&sweep_b.points) {
            assert_eq!(
                b.avg_latency, 123_456.75,
                "{} rate={} was simulated instead of loaded from cache",
                sweep_b.scheme, b.rate
            );
            assert_eq!(a.rate, b.rate);
        }
    }
}

#[test]
fn interrupted_sweep_resumes_with_identical_results() {
    let scratch = Scratch::new("resume");
    let specs = small_specs();
    let opts = SweepOptions {
        jobs: 2,
        cache_dir: Some(scratch.0.clone()),
        progress: false,
    };

    // "Interrupt": only the first spec's points make it into the cache.
    let partial = run_sweep_parallel(&specs[..1], &opts);
    assert_eq!(partial.len(), 1);
    let cached_files = std::fs::read_dir(&scratch.0).unwrap().count();
    assert_eq!(cached_files, specs[0].rates.len());

    // The resumed full run fills in the missing points; the result must
    // be indistinguishable from a cold uncached run.
    let resumed = run_sweep_parallel(&specs, &opts);
    let cold = run_sweep_parallel(&specs, &SweepOptions::quiet(2));
    assert_eq!(
        serde_json::to_string_pretty(&resumed).unwrap(),
        serde_json::to_string_pretty(&cold).unwrap()
    );
}

#[test]
fn corrupt_cache_entry_falls_back_to_simulation() {
    let scratch = Scratch::new("garbage");
    let specs = small_specs();
    let opts = SweepOptions {
        jobs: 2,
        cache_dir: Some(scratch.0.clone()),
        progress: false,
    };
    let first = run_sweep_parallel(&specs, &opts);
    // Truncate every cache file to unparseable garbage: the runner must
    // recompute (and still produce identical results), not crash.
    for entry in std::fs::read_dir(&scratch.0).unwrap() {
        std::fs::write(entry.unwrap().path(), "{not json").unwrap();
    }
    let second = run_sweep_parallel(&specs, &opts);
    assert_eq!(
        serde_json::to_string_pretty(&first).unwrap(),
        serde_json::to_string_pretty(&second).unwrap()
    );
}
