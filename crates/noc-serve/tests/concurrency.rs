//! Property: N concurrent clients submitting *overlapping* sweep sets
//! always read back byte-identical results for identical specs, and the
//! daemon simulates each unique point at most once — however the
//! overlap, client count and arrival order are drawn.

mod common;

use common::{counter, tiny_spec, TestDaemon};
use noc_serve::{point_cache_key, SchemeId, SweepSpec};
use proptest::prelude::*;
use std::collections::HashSet;

/// The point pool cases draw from: distinct (scheme, seed) sweeps over
/// a shared rate grid, all tiny enough for debug-build workers.
fn pool() -> Vec<SweepSpec> {
    [
        (SchemeId::Vct, 1),
        (SchemeId::Vct, 2),
        (SchemeId::FastPass, 1),
        (SchemeId::FastPass, 3),
    ]
    .into_iter()
    .map(|(id, seed)| tiny_spec(id, seed))
    .collect()
}

/// Decodes one drawn client: a non-empty subset of the pool, picked by
/// bitmask (so overlap between clients is the common case).
fn subset(mask: u8) -> Vec<SweepSpec> {
    let pool = pool();
    let picked: Vec<SweepSpec> = pool
        .iter()
        .enumerate()
        .filter(|(i, _)| mask & (1 << i) != 0)
        .map(|(_, s)| s.clone())
        .collect();
    if picked.is_empty() {
        vec![pool[0].clone()]
    } else {
        picked
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// 2–3 concurrent clients, each with a random overlapping subset:
    /// identical specs must yield byte-identical sweeps everywhere, and
    /// the daemon must compute each unique point exactly once.
    #[test]
    fn overlapping_concurrent_sweeps_are_identical_and_deduped(
        masks in proptest::collection::vec(1u8..16, 2..4),
        case in 0u32..1_000_000,
    ) {
        let daemon = TestDaemon::boot_fresh(&format!("prop_{case}"));
        let clients: Vec<Vec<SweepSpec>> = masks.iter().map(|&m| subset(m)).collect();

        // Fire all submits concurrently.
        let mut handles = Vec::new();
        for specs in clients.clone() {
            let sock = daemon.sock.clone();
            handles.push(std::thread::spawn(move || {
                let mut client = noc_serve::client::Client::connect(&sock)
                    .expect("connect");
                client.submit(&specs, |_, _| {}).expect("job completes")
            }));
        }
        let results: Vec<_> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect();

        // Identical specs → byte-identical sweeps, across every client.
        let mut by_spec: Vec<(String, String)> = Vec::new();
        for (specs, (_, sweeps)) in clients.iter().zip(&results) {
            for (spec, sweep) in specs.iter().zip(sweeps) {
                let tag = format!("{}#{}", spec.id.name(), spec.seed);
                let bytes = serde_json::to_string(sweep).unwrap();
                if let Some((_, first)) = by_spec.iter().find(|(t, _)| *t == tag) {
                    prop_assert_eq!(
                        &bytes, first,
                        "spec {} diverged across clients", tag
                    );
                } else {
                    by_spec.push((tag, bytes));
                }
            }
        }

        // Each unique point computed exactly once, the rest resolved by
        // cache or dedup.
        let mut unique = HashSet::new();
        let mut requested = 0u64;
        for specs in &clients {
            for spec in specs {
                for &rate in &spec.rates {
                    unique.insert(point_cache_key(spec, rate));
                    requested += 1;
                }
            }
        }
        let report = daemon.client().metrics().expect("metrics");
        let count = |name: &str| counter(&report, name);
        prop_assert_eq!(count("points_computed"), unique.len() as u64);
        prop_assert_eq!(count("points_requested"), requested);
        prop_assert_eq!(count("points_failed"), 0);
        prop_assert_eq!(
            count("store_hits") + count("memory_hits") + count("dedup_waits"),
            requested - unique.len() as u64
        );

        // Fetching every unique key over the wire succeeds — what was
        // computed is what is stored.
        let keys: Vec<String> = unique.iter().map(|&k| noc_serve::format_key(k)).collect();
        let fetched = daemon.client().fetch(keys).expect("fetch");
        prop_assert!(fetched.iter().all(|p| p.found));
    }
}
