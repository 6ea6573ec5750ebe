//! Sampler-transparency gate: windowed telemetry is observation, never
//! behavior.
//!
//! Re-runs the `golden_stats` sweep (same schemes, rates, seed and
//! windows) with the windowed sampler off and at several sampling
//! granularities, and compares each point's fully serialized
//! [`NetStats`] hash against the *same* committed fixture the trace gate
//! uses, `tests/golden/netstats.json`. A passing run proves that
//! sampling — at any window size, including every cycle — produces
//! bitwise identical simulated behavior: the sampler only ever reads
//! simulator state at window boundaries.
//!
//! Two companion properties keep the gate honest:
//!
//! * **reconciliation** — the recorded windows must tile the measurement
//!   span exactly and their per-window deltas must sum to the end-of-run
//!   totals (packets, flits, stall cycles), so the series is an exact
//!   decomposition of the run, not an approximation of it;
//! * **determinism** — two identical runs must record identical window
//!   series, sample for sample.
//!
//! The fixture is owned by `golden_stats.rs`; regenerate it there (and
//! only when simulated behavior intentionally changes).

use bench::runner::{make_sim, netstats_fnv64};
use bench::SchemeId;
use fastpass_noc::sim::{SamplerConfig, Simulation, WindowSample};
use fastpass_noc::trace::TraceConfig;
use traffic::SyntheticPattern;

const MESH_SIZE: usize = 4;
const FP_VCS: usize = 2;
const SEED: u64 = 5;
const WARMUP: u64 = 1_000;
const MEASURE: u64 = 3_000;
const RATES: [f64; 3] = [0.02, 0.05, 0.08];
const SCHEMES: [SchemeId; 2] = [SchemeId::FastPass, SchemeId::Vct];

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/netstats.json");

#[derive(Debug, serde::Deserialize)]
struct GoldenPoint {
    scheme: String,
    rate: f64,
    netstats_fnv64: String,
}

fn golden() -> Vec<GoldenPoint> {
    let text = std::fs::read_to_string(FIXTURE)
        .expect("missing tests/golden/netstats.json — regenerate via golden_stats.rs");
    serde_json::from_str(&text).expect("fixture parses")
}

fn point_sim(id: SchemeId, rate: f64) -> Simulation {
    make_sim(id, SyntheticPattern::Uniform, rate, MESH_SIZE, FP_VCS, SEED)
}

#[test]
fn netstats_identical_at_every_sampling_level() {
    let golden = golden();
    // `None` is the sampling-off control; the granularities cover one
    // window per cycle (maximum observation frequency), a typical size,
    // and a non-divisor prime that forces a partial flush window.
    for sample_every in [None, Some(1), Some(64), Some(997)] {
        let mut idx = 0;
        for id in SCHEMES {
            for rate in RATES {
                let mut sim = point_sim(id, rate);
                if let Some(every) = sample_every {
                    sim.set_sampler(&SamplerConfig {
                        sample_every: every,
                        max_windows: 4096,
                    });
                }
                let stats = sim.run_windows(WARMUP, MEASURE);
                sim.finish_sampling();
                let hash = netstats_fnv64(&stats);
                let want = &golden[idx];
                assert_eq!(want.scheme, id.name(), "fixture order drifted");
                assert_eq!(want.rate, rate, "fixture order drifted");
                assert_eq!(
                    hash,
                    want.netstats_fnv64,
                    "NetStats diverged from the golden fixture for {} @ rate {rate} \
                     with sample_every={sample_every:?} — the sampler changed \
                     simulated behavior",
                    id.name(),
                );
                idx += 1;
            }
        }
    }
}

#[test]
fn window_sums_reconcile_with_run_totals() {
    // Stall counters flow through the tracer, so this point runs with
    // counters live; the trace gate separately proves counters are
    // behavior-transparent.
    let mut sim = point_sim(SchemeId::FastPass, 0.08);
    sim.set_trace(&TraceConfig::counters());
    sim.set_sampler(&SamplerConfig {
        sample_every: 128, // non-divisor of 3000: forces a partial flush
        max_windows: 4096,
    });
    let stats = sim.run_windows(WARMUP, MEASURE);
    sim.finish_sampling();
    let windows = sim.sampler().expect("sampler installed").windows();

    // The series tiles [reset, end] with no gaps or overlaps.
    assert_eq!(windows.first().expect("windows").start_cycle, WARMUP);
    assert_eq!(windows.last().expect("windows").end_cycle, WARMUP + MEASURE);
    for pair in windows.windows(2) {
        assert_eq!(pair[0].end_cycle, pair[1].start_cycle, "gap in series");
    }

    // Monotone-counter deltas sum back to the end-of-run totals.
    let sum = |f: fn(&WindowSample) -> u64| windows.iter().map(f).sum::<u64>();
    assert_eq!(sum(|w| w.stats.delivered()), stats.delivered());
    assert_eq!(sum(|w| w.stats.flits_delivered), stats.flits_delivered);
    assert_eq!(sum(|w| w.stats.generated), stats.generated);
    assert_eq!(sum(|w| w.stats.latency_count), stats.latency.count() as u64);

    // Stall cycles: a single whole-measurement window must equal the sum
    // of the fine-grained windows (both are deltas over the same span).
    let mut coarse = point_sim(SchemeId::FastPass, 0.08);
    coarse.set_trace(&TraceConfig::counters());
    coarse.set_sampler(&SamplerConfig {
        sample_every: MEASURE,
        max_windows: 4,
    });
    coarse.run_windows(WARMUP, MEASURE);
    coarse.finish_sampling();
    let coarse_windows = coarse.sampler().expect("sampler").windows();
    assert_eq!(coarse_windows.len(), 1, "one window spans the measurement");
    let one = &coarse_windows[0];
    assert_eq!(sum(|w| w.trace.total_stalls()), one.trace.total_stalls());
    assert!(
        one.trace.total_stalls() > 0,
        "rate 0.08 must stall somewhere"
    );
    assert_eq!(
        sum(|w| w.trace.link_flits_regular),
        one.trace.link_flits_regular
    );
    assert_eq!(sum(|w| w.stats.delivered()), one.stats.delivered());
}

#[test]
fn window_series_is_deterministic_across_runs() {
    let run = || {
        let mut sim = point_sim(SchemeId::FastPass, 0.05);
        sim.set_sampler(&SamplerConfig {
            sample_every: 64,
            max_windows: 4096,
        });
        sim.run_windows(WARMUP, MEASURE);
        sim.finish_sampling();
        sim.sampler().expect("sampler").windows().to_vec()
    };
    let a = run();
    let b = run();
    assert!(!a.is_empty());
    assert_eq!(a, b, "identical runs must record identical series");
}
