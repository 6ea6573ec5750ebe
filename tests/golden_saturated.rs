//! Saturation golden gate for all eight schemes on the paper's mesh.
//!
//! `golden_stats` and `big_mesh_golden` pin FastPass + plain VCT at rates
//! ≤ 0.08, where hardly a head ever blocks. This gate pins the regime
//! the paper's claims live in: 8×8, every scheme in
//! [`ALL_SCHEMES`](bench::ALL_SCHEMES) × {uniform, transpose} × rate
//! {0.01, 0.14} — zero load and past every knee, where SPIN rotations,
//! SWAP exchanges, DRAIN circulation, Pitstop absorption and FastPass
//! upgrades all fire. Each point's fully serialized
//! [`NetStats`](noc_core::stats::NetStats) JSON is hashed with FNV-1a 64
//! and compared against `tests/golden/netstats_8x8_sat.json`.
//!
//! The fixture was generated from the engine *before* event-driven
//! allocation (parked heads, wake on a VC free) went in, so a passing
//! run proves that optimisation bitwise behaviour-preserving through
//! every scheme's relocation path.
//!
//! Regenerate (only when simulated behavior is *intentionally* changed):
//!
//! ```text
//! FP_GOLDEN_REGEN=1 cargo test --test golden_saturated
//! ```
//!
//! and commit the updated fixture together with an explanation of why
//! the simulated behavior changed.

use bench::runner::{make_sim, netstats_fnv64};
use bench::ALL_SCHEMES;
use traffic::SyntheticPattern;

const MESH_SIZE: usize = 8;
const FP_VCS: usize = 2;
const SEED: u64 = 5;
const WARMUP: u64 = 400;
const MEASURE: u64 = 600;
const RATES: [f64; 2] = [0.01, 0.14];
const PATTERNS: [SyntheticPattern; 2] = [SyntheticPattern::Uniform, SyntheticPattern::Transpose];

const FIXTURE: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/netstats_8x8_sat.json"
);

#[derive(Debug, serde::Serialize, serde::Deserialize, PartialEq)]
struct GoldenPoint {
    scheme: String,
    pattern: String,
    rate: f64,
    netstats_fnv64: String,
    delivered: u64,
    generated: u64,
    cycles: u64,
}

fn run_points() -> Vec<GoldenPoint> {
    let mut out = Vec::new();
    for id in ALL_SCHEMES {
        for pattern in PATTERNS {
            for rate in RATES {
                let mut sim = make_sim(id, pattern, rate, MESH_SIZE, FP_VCS, SEED);
                let stats = sim.run_windows(WARMUP, MEASURE);
                out.push(GoldenPoint {
                    scheme: id.name().to_string(),
                    pattern: pattern.name().to_string(),
                    rate,
                    netstats_fnv64: netstats_fnv64(&stats),
                    delivered: stats.delivered(),
                    generated: stats.generated,
                    cycles: stats.cycles,
                });
            }
        }
    }
    out
}

#[test]
fn saturated_netstats_bitwise_identical_to_golden_fixture() {
    let points = run_points();
    if std::env::var("FP_GOLDEN_REGEN").is_ok_and(|v| !v.is_empty() && v != "0") {
        let json = serde_json::to_string_pretty(&points).unwrap();
        std::fs::write(FIXTURE, json + "\n").expect("write fixture");
        eprintln!("regenerated {FIXTURE}");
        return;
    }
    let text = std::fs::read_to_string(FIXTURE)
        .expect("missing tests/golden/netstats_8x8_sat.json — run with FP_GOLDEN_REGEN=1 once");
    let golden: Vec<GoldenPoint> = serde_json::from_str(&text).expect("fixture parses");
    assert_eq!(
        points.len(),
        golden.len(),
        "point count changed — regenerate the fixture if intentional"
    );
    for (got, want) in points.iter().zip(&golden) {
        assert_eq!(
            got, want,
            "8x8 NetStats diverged from golden fixture for {} / {} @ rate {}",
            want.scheme, want.pattern, want.rate
        );
    }
}
