//! Big-mesh trace artifacts: one 16×16 point behind the `big-mesh` CI
//! job's uploads.
//!
//! Runs FastPass on a 16×16 mesh under uniform traffic at rate 0.02
//! (seed 5, 500 + 1 500 cycles: the lowest-rate point of the
//! `big_mesh_golden` test's matrix) with full tracing and a windowed
//! sampler, writing Chrome-trace / metrics / lifetime / window-series
//! artifacts into the trace directory (default `trace/`,
//! `FP_TRACE_OUT` overrides). The point's statistics are gated by that
//! test, not here.
//!
//! Usage:
//!
//! ```text
//! cargo run --release -p bench --bin big_mesh
//! ```

use bench::{run_traced_point, trace_out_dir, SchemeId, SweepSpec};
use noc_trace::TraceConfig;
use traffic::SyntheticPattern;

const RATE: f64 = 0.02;

fn main() {
    let spec = SweepSpec {
        id: SchemeId::FastPass,
        pattern: SyntheticPattern::Uniform,
        rates: vec![RATE],
        size: 16,
        fp_vcs: 2,
        warmup: 500,
        measure: 1_500,
        seed: 5,
    };
    let dir = trace_out_dir();
    match run_traced_point(&spec, RATE, &TraceConfig::full(), &dir) {
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
