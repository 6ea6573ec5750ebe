//! Big-mesh golden gate: the simulator at 256 nodes.
//!
//! Runs 16×16-mesh sweep points through
//! [`Simulation::run_windows`](noc_sim::Simulation::run_windows) and
//! compares the FNV-1a hash of each point's fully serialized
//! [`NetStats`](noc_core::stats::NetStats) JSON against the committed
//! `tests/golden/netstats_16x16.json` fixture. A passing run proves the
//! simulator's behavior at 256 nodes is bitwise reproducible across
//! commits.
//!
//! Two scopes share the one fixture:
//!
//! * default (per-PR CI): the smoke subset — both schemes at the lowest
//!   rate only — keeping the gate a few seconds even in debug builds;
//! * `FP_BIG_MESH_FULL=1` (weekly CI sweep): every scheme × rate point
//!   in the fixture.
//!
//! Regenerate (only when simulated behavior is *intentionally*
//! changed) with the full scope:
//!
//! ```text
//! FP_GOLDEN_REGEN=1 cargo test --release --test big_mesh_golden
//! ```
//!
//! and commit the updated fixture together with an explanation of why
//! the simulated behavior changed. Regeneration always covers the full
//! point set regardless of `FP_BIG_MESH_FULL`.

use bench::runner::{make_sim, netstats_fnv64};
use bench::SchemeId;
use traffic::SyntheticPattern;

const MESH_SIZE: usize = 16;
const FP_VCS: usize = 2;
const SEED: u64 = 5;
const WARMUP: u64 = 500;
const MEASURE: u64 = 1_500;
const RATES: [f64; 3] = [0.02, 0.05, 0.08];
const SCHEMES: [SchemeId; 2] = [SchemeId::FastPass, SchemeId::Vct];

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/netstats_16x16.json"
);

#[derive(Debug, serde::Serialize, serde::Deserialize, PartialEq)]
struct GoldenPoint {
    scheme: String,
    rate: f64,
    netstats_fnv64: String,
    delivered: u64,
    generated: u64,
    cycles: u64,
}

fn full_matrix() -> Vec<(SchemeId, f64)> {
    SCHEMES
        .iter()
        .flat_map(|&id| RATES.iter().map(move |&r| (id, r)))
        .collect()
}

fn smoke_matrix() -> Vec<(SchemeId, f64)> {
    SCHEMES.iter().map(|&id| (id, RATES[0])).collect()
}

/// Runs each of `points` and returns their golden records in input
/// order.
fn run_points(points: &[(SchemeId, f64)]) -> Vec<GoldenPoint> {
    points
        .iter()
        .map(|&(id, rate)| {
            let mut sim = make_sim(id, SyntheticPattern::Uniform, rate, MESH_SIZE, FP_VCS, SEED);
            let stats = sim.run_windows(WARMUP, MEASURE);
            GoldenPoint {
                scheme: id.name().to_string(),
                rate,
                netstats_fnv64: netstats_fnv64(&stats),
                delivered: stats.delivered(),
                generated: stats.generated,
                cycles: stats.cycles,
            }
        })
        .collect()
}

fn env_on(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

// The name predates the serial run; CI steps and test selections use it.
#[test]
fn big_mesh_batched_matches_golden_fixture() {
    if env_on("FP_GOLDEN_REGEN") {
        let points = run_points(&full_matrix());
        let json = serde_json::to_string_pretty(&points).unwrap();
        std::fs::write(FIXTURE, json + "\n").expect("write fixture");
        eprintln!("regenerated {FIXTURE}");
        return;
    }
    let matrix = if env_on("FP_BIG_MESH_FULL") {
        full_matrix()
    } else {
        smoke_matrix()
    };
    let points = run_points(&matrix);
    let text = std::fs::read_to_string(FIXTURE)
        .expect("missing tests/golden/netstats_16x16.json — run with FP_GOLDEN_REGEN=1 once");
    let golden: Vec<GoldenPoint> = serde_json::from_str(&text).expect("fixture parses");
    for got in &points {
        let want = golden
            .iter()
            .find(|g| g.scheme == got.scheme && g.rate == got.rate)
            .unwrap_or_else(|| {
                panic!(
                    "fixture has no point for {} @ rate {} — regenerate it",
                    got.scheme, got.rate
                )
            });
        assert_eq!(
            got, want,
            "16x16 NetStats diverged from golden fixture for {} @ rate {}",
            want.scheme, want.rate
        );
    }
}
