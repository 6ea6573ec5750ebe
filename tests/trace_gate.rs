//! Trace-transparency gate: tracing is observation, never behavior.
//!
//! Re-runs the `golden_stats` sweep (same schemes, rates, seed and
//! windows) at every [`TraceLevel`] and compares each point's fully
//! serialized [`NetStats`] hash against the *same* committed fixture,
//! `tests/golden/netstats.json`. A passing run proves that enabling
//! counters or full event recording produces bitwise identical simulated
//! behavior to an untraced run — the hooks only ever read simulator
//! state.
//!
//! The fixture is owned by `golden_stats.rs`; regenerate it there (and
//! only when simulated behavior intentionally changes).

use bench::runner::{make_sim, netstats_fnv64};
use bench::SchemeId;
use fastpass_noc::trace::{TraceConfig, TraceLevel};
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

fn trace_cfg(level: TraceLevel) -> TraceConfig {
    TraceConfig { level }
}

#[test]
fn netstats_identical_at_every_trace_level() {
    let golden = golden();
    for level in [TraceLevel::Off, TraceLevel::Counters, TraceLevel::Full] {
        let mut idx = 0;
        for id in SCHEMES {
            for rate in RATES {
                let mut sim =
                    make_sim(id, SyntheticPattern::Uniform, rate, MESH_SIZE, FP_VCS, SEED);
                sim.set_trace(&trace_cfg(level));
                let stats = sim.run_windows(WARMUP, MEASURE);
                let hash = netstats_fnv64(&stats);
                let want = &golden[idx];
                assert_eq!(want.scheme, id.name(), "fixture order drifted");
                assert_eq!(want.rate, rate, "fixture order drifted");
                assert_eq!(
                    hash,
                    want.netstats_fnv64,
                    "NetStats diverged from the golden fixture for {} @ rate {rate} \
                     at trace level {} — a trace hook changed simulated behavior",
                    id.name(),
                    level.name(),
                );
                idx += 1;
            }
        }
    }
}

#[test]
fn counters_and_events_actually_record() {
    // Transparency must not be vacuous: the traced runs above only prove
    // something if the tracer was really live. Repeat one point per
    // level and check the level's promised artifacts exist.
    let run = |level: TraceLevel| {
        let mut sim = make_sim(
            SchemeId::FastPass,
            SyntheticPattern::Uniform,
            0.08,
            MESH_SIZE,
            FP_VCS,
            SEED,
        );
        sim.set_trace(&trace_cfg(level));
        sim.run_windows(WARMUP, MEASURE);
        let t = sim.tracer();
        let injected: u64 = t
            .metrics()
            .iter()
            .map(|m| m.injected.iter().sum::<u64>())
            .sum();
        (injected, t.total_events())
    };
    let (inj_off, ev_off) = run(TraceLevel::Off);
    assert_eq!((inj_off, ev_off), (0, 0), "Off must record nothing");
    let (inj_cnt, ev_cnt) = run(TraceLevel::Counters);
    assert!(inj_cnt > 0, "Counters must populate RouterMetrics");
    assert_eq!(ev_cnt, 0, "Counters must not record events");
    let (inj_full, ev_full) = run(TraceLevel::Full);
    assert!(inj_full > 0 && ev_full > 0, "Full records both");
    assert_eq!(inj_full, inj_cnt, "counters agree across levels");
}
