//! Stores written by earlier builds keep serving.
//!
//! `tests/golden/store/` holds the six envelopes the `smoke` binary's
//! grid (FastPass and VCT, 4x4 uniform, three rates, seed 5) left in
//! its store, under the keys and in the bytes that build wrote — except
//! that each `delivered` is a sentinel no simulation produces. A sweep
//! over a copy of that store must return the sentinels: every point was
//! found under its key and decoded, none re-simulated. A drift in the
//! key derivation, the blob path or the envelope decode turns hits into
//! misses, which the benchmark cannot see (it primes its own store with
//! the code it measures).

use noc_serve::{run_sweep_parallel, SchemeId, SweepOptions, SweepSpec};
use std::path::Path;
use traffic::SyntheticPattern;

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/store");

/// The `smoke` binary's specs.
fn smoke_specs() -> Vec<SweepSpec> {
    [SchemeId::FastPass, SchemeId::Vct]
        .into_iter()
        .map(|id| SweepSpec {
            id,
            pattern: SyntheticPattern::Uniform,
            rates: vec![0.02, 0.05, 0.08],
            size: 4,
            fp_vcs: 2,
            warmup: 1_000,
            measure: 3_000,
            seed: 5,
        })
        .collect()
}

/// The sentinel planted in each fixture blob, in spec and rate order.
const SENTINELS: [[u64; 3]; 2] = [
    [7_100_002, 7_100_005, 7_100_008],
    [7_200_002, 7_200_005, 7_200_008],
];

/// Copies the fixture so that a miss (which recomputes and rewrites)
/// cannot touch the committed files.
fn copy_fixture(to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).expect("temp dir");
    let mut copied = 0;
    for entry in std::fs::read_dir(FIXTURE).expect("tests/golden/store present") {
        let entry = entry.expect("fixture entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("fixture copies");
        copied += 1;
    }
    assert_eq!(copied, 6, "the fixture holds the smoke grid's six blobs");
}

#[test]
fn an_old_store_serves_every_point_without_simulating() {
    let dir = std::env::temp_dir().join(format!("fp_store_compat_{}", std::process::id()));
    copy_fixture(&dir);
    let specs = smoke_specs();
    let opts = SweepOptions {
        jobs: 2,
        cache_dir: Some(dir.clone()),
        progress: false,
    };
    let sweeps = run_sweep_parallel(&specs, &opts);
    for ((spec, sweep), sentinels) in specs.iter().zip(&sweeps).zip(SENTINELS) {
        for ((&rate, point), sentinel) in spec.rates.iter().zip(&sweep.points).zip(sentinels) {
            assert_eq!(
                point.delivered,
                sentinel,
                "{}@{rate}: simulated instead of served from the store",
                spec.id.name()
            );
            assert_eq!(point.rate, rate);
            assert!(point.avg_latency.is_finite() && point.avg_latency > 0.0);
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}
