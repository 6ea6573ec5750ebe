//! A cloned `Simulation` is a deep copy: it continues exactly as the
//! original would, and the two share no state.
//!
//! Each case runs 300 cycles, clones, then steps the clone 500 cycles
//! (the original must not move) and the original 500 cycles; both must
//! equal one uninterrupted 800-cycle run, by the golden fixtures' stats
//! digest. The original carries a phase probe throughout: the clone must
//! carry none, so stepping the clone never reaches the original's probe.

use bench::runner::{make_sim, netstats_fnv64};
use bench::SchemeId;
use fastpass_noc::sim::{Phase, PhaseProbe, Simulation};
use noc_schemes::ALL_SCHEMES;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use traffic::SyntheticPattern;

const FP_VCS: usize = 2;
const SEED: u64 = 5;
const BEFORE: u64 = 300;
const AFTER: u64 = 500;

/// Counts phase entries into a counter the test keeps.
struct Entries(Arc<AtomicU64>);

impl PhaseProbe for Entries {
    fn begin(&mut self, _: Phase) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }
    fn end(&mut self, _: Phase) {}
}

fn check(id: SchemeId, pattern: SyntheticPattern, rate: f64, size: usize) {
    let what = format!("{id:?} {pattern:?} {rate} on {size}x{size}");
    let sim = || make_sim(id, pattern, rate, size, FP_VCS, SEED);

    let mut whole = sim();
    whole.run(BEFORE + AFTER);
    let want = netstats_fnv64(&whole.core.stats);

    let entries = Arc::new(AtomicU64::new(0));
    let mut original = sim();
    original.set_probe(Box::new(Entries(Arc::clone(&entries))));
    original.run(BEFORE);
    let mut copy: Simulation = original.clone();
    assert!(
        copy.take_probe().is_none(),
        "{what}: the clone carries a probe"
    );

    let (stats, in_flight) = (netstats_fnv64(&original.core.stats), original.in_flight());
    let probed = entries.load(Ordering::Relaxed);
    copy.run(AFTER);
    assert_eq!(
        netstats_fnv64(&original.core.stats),
        stats,
        "{what}: stepping the clone moved the original's stats"
    );
    assert_eq!(
        original.in_flight(),
        in_flight,
        "{what}: stepping the clone moved the original's packets"
    );
    assert_eq!(
        entries.load(Ordering::Relaxed),
        probed,
        "{what}: stepping the clone reached the original's probe"
    );

    original.run(AFTER);
    assert!(
        entries.load(Ordering::Relaxed) > probed,
        "{what}: the original lost its probe"
    );
    assert_eq!(netstats_fnv64(&copy.core.stats), want, "{what}: clone");
    assert_eq!(
        netstats_fnv64(&original.core.stats),
        want,
        "{what}: original"
    );
    assert!(
        whole.core.stats.delivered() > 0,
        "{what}: nothing delivered"
    );
    copy.assert_conserved();
}

#[test]
fn every_scheme_clones_into_an_independent_equal_run() {
    let schemes = ALL_SCHEMES.into_iter().chain([SchemeId::Vct]);
    for id in schemes {
        for pattern in [SyntheticPattern::Uniform, SyntheticPattern::Transpose] {
            for rate in [0.02, 0.3] {
                check(id, pattern, rate, 4);
            }
        }
    }
}

/// The wedge regime a what-if probe forks: 8x8 FastPass past its knee.
#[test]
fn a_saturated_fastpass_8x8_clones_into_an_equal_run() {
    check(SchemeId::FastPass, SyntheticPattern::Uniform, 0.14, 8);
}
