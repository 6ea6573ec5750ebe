//! Store corruption/staleness recovery: entries that are truncated, or
//! written under a different schema generation, must be treated as
//! cache *misses* — recomputed and overwritten, never served — and a
//! `gc` pass must delete them. This is the end-to-end version of the
//! unit tests in `noc_serve::store`: it drives the real sweep executor over
//! a deliberately vandalized cache directory.

mod common;

use common::{small_spec, Scratch};
use noc_serve::runner::sweep;
use noc_serve::{
    point_cache_key, run_sweep_parallel, SchemeId, Store, SweepOptions, SweepSpec,
    CACHE_SCHEMA_VERSION,
};
use traffic::SyntheticPattern;

fn spec() -> SweepSpec {
    small_spec(SchemeId::Vct, SyntheticPattern::Uniform, 23)
}

/// A well-formed envelope claiming a *previous* schema generation, with
/// a poisoned payload: if it is ever served instead of recomputed, the
/// sweep result changes and the test fails loudly.
fn stale_envelope(key: u64) -> String {
    format!(
        "{{\n  \"schema_version\": {},\n  \"key\": \"{}\",\n  \"point\": {{\n    \"rate\": 0.02,\n    \"avg_latency\": 123456.75,\n    \"throughput\": 0.0,\n    \"delivered\": 1,\n    \"fastpass_fraction\": 0.0,\n    \"dropped_fraction\": 0.0\n  }}\n}}",
        CACHE_SCHEMA_VERSION - 1,
        noc_serve::format_key(key)
    )
}

#[test]
fn corrupt_and_stale_entries_are_recomputed_not_served() {
    let scratch = Scratch::new("recompute");
    let spec = spec();
    let opts = SweepOptions {
        jobs: 2,
        cache_dir: Some(scratch.0.clone()),
        progress: false,
    };

    // Reference: a cold run (fills the cache with valid envelopes).
    let reference = run_sweep_parallel(std::slice::from_ref(&spec), &opts);
    let reference_json = serde_json::to_string_pretty(&reference).unwrap();

    // Vandalize one entry per failure mode, leave the third valid.
    let store = Store::new(&scratch.0);
    let corrupt_key = point_cache_key(&spec, spec.rates[0]);
    let stale_key = point_cache_key(&spec, spec.rates[1]);
    std::fs::write(store.path_of(corrupt_key), "{\"schema_version\": 2, \"ke").unwrap();
    std::fs::write(store.path_of(stale_key), stale_envelope(stale_key)).unwrap();

    // Both damaged points must be misses.
    assert!(store.load(corrupt_key).is_none(), "corrupt entry served");
    assert!(store.load(stale_key).is_none(), "stale entry served");

    // The sweep recomputes them and lands on the reference bytes — the
    // poisoned 123456.75 latency never leaks into results.
    let recovered = run_sweep_parallel(std::slice::from_ref(&spec), &opts);
    assert_eq!(
        serde_json::to_string_pretty(&recovered).unwrap(),
        reference_json
    );

    // And the recompute *overwrote* the damage: both entries now load
    // and carry the true values.
    let fixed = store.load(stale_key).expect("stale entry overwritten");
    let truth = sweep(&spec);
    assert_eq!(fixed.avg_latency, truth.points[1].avg_latency);
    assert!(
        store.load(corrupt_key).is_some(),
        "corrupt entry overwritten"
    );
}

#[test]
fn gc_drops_damage_and_keeps_valid_entries() {
    let scratch = Scratch::new("gc");
    let spec = spec();
    let opts = SweepOptions {
        jobs: 2,
        cache_dir: Some(scratch.0.clone()),
        progress: false,
    };
    run_sweep_parallel(std::slice::from_ref(&spec), &opts);

    let store = Store::new(&scratch.0);
    assert_eq!(store.stats().entries, spec.rates.len() as u64);

    // Plant one corrupt blob, one stale envelope and one orphan temp
    // file *next to* the valid entries (fresh keys, so nothing valid is
    // overwritten).
    std::fs::write(store.path_of(0xdead), "{{{").unwrap();
    std::fs::write(store.path_of(0xbeef), stale_envelope(0xbeef)).unwrap();
    std::fs::write(scratch.0.join("00000000000000aa.tmp.999"), "x").unwrap();

    let report = store.gc();
    assert_eq!(report.kept, spec.rates.len() as u64, "{report:?}");
    assert_eq!(report.dropped_corrupt, 1, "{report:?}");
    assert_eq!(report.dropped_stale, 1, "{report:?}");
    assert_eq!(report.dropped_temp, 1, "{report:?}");

    // The valid entries still serve: a re-run simulates nothing new
    // (asserted by bitwise equality against a cache-poisoning marker —
    // if the runner recomputed, it would overwrite; if it served, the
    // files are untouched).
    for &rate in &spec.rates {
        assert!(store.load(point_cache_key(&spec, rate)).is_some());
    }
    assert_eq!(store.stats().entries, spec.rates.len() as u64);
}
