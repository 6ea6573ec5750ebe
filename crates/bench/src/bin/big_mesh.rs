//! Big-mesh batched sweep: the 16×16 point matrix behind the `big-mesh`
//! CI job.
//!
//! Runs the same scheme × rate matrix as the `big_mesh_golden` test —
//! FastPass + plain VCT on a 16×16 mesh, uniform traffic, fixed seed —
//! with every point interleaved through
//! [`noc_sim::batch::run_windows_batched`], and prints one summary line
//! per point (delivered/generated counts plus the FNV-1a hash of the
//! fully serialized `NetStats`, the same hash the golden fixture
//! stores). It then re-runs the lowest-rate FastPass point with full
//! tracing and a windowed sampler, writing Chrome-trace / metrics /
//! lifetime / window-series artifacts into the trace directory
//! (default `trace/`, `FP_TRACE_OUT` overrides) for CI to upload.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin big_mesh            # smoke: both schemes, lowest rate
//! cargo run --release -p bench --bin big_mesh -- --full  # full matrix (weekly CI sweep)
//! ```
//!
//! `FP_BIG_MESH_FULL=1` is equivalent to `--full`, mirroring the golden
//! test's scope switch so the CI job can drive both with one env var.

use bench::runner::{make_sim, netstats_fnv64};
use bench::{run_traced_point, trace_out_dir, SchemeId, SweepSpec};
use noc_sim::{run_windows_batched, Simulation};
use noc_trace::TraceConfig;
use traffic::SyntheticPattern;

// One source of truth with tests/big_mesh_golden.rs: these constants
// must stay in lockstep or the CI job stops exercising the gated
// configuration.
const MESH_SIZE: usize = 16;
const FP_VCS: usize = 2;
const SEED: u64 = 5;
const WARMUP: u64 = 500;
const MEASURE: u64 = 1_500;
const RATES: [f64; 3] = [0.02, 0.05, 0.08];
const SCHEMES: [SchemeId; 2] = [SchemeId::FastPass, SchemeId::Vct];

fn env_on(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| !v.is_empty() && v != "0")
}

fn main() {
    let full = std::env::args().skip(1).any(|a| a == "--full") || env_on("FP_BIG_MESH_FULL");
    let points: Vec<(SchemeId, f64)> = if full {
        SCHEMES
            .iter()
            .flat_map(|&id| RATES.iter().map(move |&r| (id, r)))
            .collect()
    } else {
        SCHEMES.iter().map(|&id| (id, RATES[0])).collect()
    };

    let mut sims: Vec<Simulation> = points
        .iter()
        .map(|&(id, rate)| make_sim(id, SyntheticPattern::Uniform, rate, MESH_SIZE, FP_VCS, SEED))
        .collect();
    let start = std::time::Instant::now();
    let all = run_windows_batched(&mut sims, WARMUP, MEASURE);
    let elapsed = start.elapsed().as_secs_f64();

    let scope = if full { "full" } else { "smoke" };
    println!(
        "big_mesh: {} {}x{} points ({scope} scope), batched, {:.2}s wall",
        points.len(),
        MESH_SIZE,
        MESH_SIZE,
        elapsed
    );
    for (&(id, rate), stats) in points.iter().zip(&all) {
        println!(
            "big_mesh: {:>8} r={rate:.2}  delivered={:<6} generated={:<6} cycles={} fnv64={}",
            id.name(),
            stats.delivered(),
            stats.generated,
            stats.cycles,
            netstats_fnv64(stats)
        );
        assert!(
            stats.delivered() > 0,
            "{} @ rate {rate} delivered nothing on the {MESH_SIZE}x{MESH_SIZE} mesh",
            id.name()
        );
    }

    // Artifact pass: the lowest-rate FastPass point, re-run serially
    // with full tracing + windowed telemetry so CI has a 16x16 Chrome
    // trace / metrics / lifetime / window-series bundle to archive.
    let spec = SweepSpec {
        id: SchemeId::FastPass,
        pattern: SyntheticPattern::Uniform,
        rates: vec![RATES[0]],
        size: MESH_SIZE,
        fp_vcs: FP_VCS,
        warmup: WARMUP,
        measure: MEASURE,
        seed: SEED,
    };
    let cfg = TraceConfig::full();
    let dir = trace_out_dir();
    match run_traced_point(&spec, RATES[0], &cfg, &dir) {
        Ok(paths) => {
            for p in paths {
                println!("big_mesh: wrote {}", p.display());
            }
        }
        Err(e) => {
            eprintln!("big_mesh: writing trace artifacts into {:?}: {e}", dir);
            std::process::exit(1);
        }
    }
}
