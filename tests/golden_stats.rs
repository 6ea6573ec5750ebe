//! Golden-stats determinism gate for the regular-pass hot path.
//!
//! Runs a fixed-seed low-load sweep (FastPass + plain VCT, three rates)
//! and compares the FNV-1a hash of each point's fully serialized
//! [`NetStats`] JSON against committed fixtures. The fixtures were
//! generated *before* the active-set/allocation-free rewrite of the
//! cycle loop, so a passing run proves the optimisation is bitwise
//! behavior-preserving — not merely "statistically similar".
//!
//! Regenerate (only when simulated behavior is *intentionally* changed):
//!
//! ```text
//! FP_GOLDEN_REGEN=1 cargo test --test golden_stats
//! ```
//!
//! and commit the updated `tests/golden/netstats.json` together with an
//! explanation of why the simulated behavior changed.

use bench::runner::{make_sim, netstats_fnv64};
use bench::SchemeId;
use traffic::SyntheticPattern;

const MESH_SIZE: usize = 4;
const FP_VCS: usize = 2;
const SEED: u64 = 5;
const WARMUP: u64 = 1_000;
const MEASURE: u64 = 3_000;
const RATES: [f64; 3] = [0.02, 0.05, 0.08];
const SCHEMES: [SchemeId; 2] = [SchemeId::FastPass, SchemeId::Vct];

const FIXTURE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/tests/golden/netstats.json");

#[derive(Debug, serde::Serialize, serde::Deserialize, PartialEq)]
struct GoldenPoint {
    scheme: String,
    rate: f64,
    /// FNV-1a 64 over the serde_json serialization of the full NetStats
    /// (every distribution's value → count histogram included), as a hex
    /// string.
    netstats_fnv64: String,
    delivered: u64,
    generated: u64,
    cycles: u64,
}

fn run_points() -> Vec<GoldenPoint> {
    let mut out = Vec::new();
    for id in SCHEMES {
        for rate in RATES {
            let mut sim = make_sim(id, SyntheticPattern::Uniform, rate, MESH_SIZE, FP_VCS, SEED);
            let stats = sim.run_windows(WARMUP, MEASURE);
            out.push(GoldenPoint {
                scheme: id.name().to_string(),
                rate,
                netstats_fnv64: netstats_fnv64(&stats),
                delivered: stats.delivered(),
                generated: stats.generated,
                cycles: stats.cycles,
            });
        }
    }
    out
}

#[test]
fn netstats_bitwise_identical_to_golden_fixture() {
    let points = run_points();
    if std::env::var("FP_GOLDEN_REGEN").is_ok_and(|v| !v.is_empty() && v != "0") {
        let json = serde_json::to_string_pretty(&points).unwrap();
        std::fs::write(FIXTURE, json + "\n").expect("write fixture");
        eprintln!("regenerated {FIXTURE}");
        return;
    }
    let text = std::fs::read_to_string(FIXTURE)
        .expect("missing tests/golden/netstats.json — run with FP_GOLDEN_REGEN=1 once");
    let golden: Vec<GoldenPoint> = serde_json::from_str(&text).expect("fixture parses");
    assert_eq!(
        points.len(),
        golden.len(),
        "point count drifted from fixture"
    );
    for (got, want) in points.iter().zip(&golden) {
        assert_eq!(
            got, want,
            "NetStats diverged from golden fixture for {} @ rate {} — \
             the hot path changed simulated behavior",
            want.scheme, want.rate
        );
    }
}
