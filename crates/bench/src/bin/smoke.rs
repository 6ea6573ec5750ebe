//! CI smoke sweep: a 4×4 mesh, three injection rates, FastPass plus the
//! plain-VCT substrate baseline, run through the parallel executor.
//!
//! Exercises the whole stack — registry, work-queue scheduler, result
//! cache, JSON emission — end to end in a few seconds, and fails loudly
//! if any point produces a non-finite latency or delivers nothing.
//!
//! `--trace` additionally re-runs three points ([`traced_points`])
//! with full tracing and writes Chrome trace / metrics / lifetime /
//! window-series artifacts into `trace/` (override with
//! `FP_TRACE_OUT`). Each Chrome trace it writes is then checked:
//! structurally valid, carrying the telemetry counter tracks, and —
//! where the point demands it — holding both regular `link` and bypass
//! `lane` traversals. A failed check names the file and exits 1. Traced
//! runs never touch the sweep cache, so the cache-hit accounting of the
//! untraced sweep is unchanged.
//!
//! `--serve[=SOCKET]` (or `NOC_SERVE`) routes the sweep through a
//! running `nocserve` daemon instead of the in-process executor; the
//! emitted `smoke.json` is bitwise identical either way (the `serve` CI
//! job diffs the two). The telemetry summary and the traced points
//! always run locally. Any other argument is exit 2 with one usage line.

use bench::runner::make_sim;
use bench::{check_chrome_trace_full, run_traced_point, trace_out_dir};
use bench::{emit_json, run_sweeps, SchemeId, SweepSpec};
use noc_sim::SamplerConfig;
use std::fs::File;
use std::io::BufReader;
use std::process::ExitCode;
use traffic::SyntheticPattern;

fn main() -> ExitCode {
    let mut trace = false;
    for arg in std::env::args().skip(1) {
        // `ExecMode` reads the serve flags.
        if arg == "--serve" || arg.starts_with("--serve=") {
            continue;
        }
        if arg != "--trace" {
            eprintln!("smoke: unknown argument `{arg}`\nusage: smoke [--trace] [--serve[=SOCKET]]");
            return ExitCode::from(2);
        }
        trace = true;
    }
    let rates = vec![0.02, 0.05, 0.08];
    let specs: Vec<SweepSpec> = [SchemeId::FastPass, SchemeId::Vct]
        .iter()
        .map(|&id| SweepSpec {
            id,
            pattern: SyntheticPattern::Uniform,
            rates: rates.clone(),
            size: 4,
            fp_vcs: 2,
            warmup: 1_000,
            measure: 3_000,
            seed: 5,
        })
        .collect();
    let results = match run_sweeps(&specs) {
        Ok(results) => results,
        Err(err) => {
            eprintln!("error: {err}");
            return ExitCode::from(2);
        }
    };
    for r in &results {
        assert_eq!(r.points.len(), rates.len(), "{}: missing points", r.scheme);
        for p in &r.points {
            assert!(
                p.avg_latency.is_finite(),
                "{} rate={} produced non-finite latency",
                r.scheme,
                p.rate
            );
            assert!(
                p.delivered > 0,
                "{} rate={} delivered nothing",
                r.scheme,
                p.rate
            );
        }
        println!(
            "{:<10} saturation {:.2}, zero-load latency {:.1}",
            r.scheme,
            r.saturation_rate(),
            r.points[0].avg_latency
        );
    }
    let path = emit_json("smoke", &results).expect("write results");
    println!("smoke sweep OK — JSON written to {}", path.display());
    print_telemetry_summary(&specs[0]);

    if trace {
        if let Err(e) = run_traced_smoke(&specs[0]) {
            eprintln!("smoke: {e}");
            return ExitCode::FAILURE;
        }
    }
    ExitCode::SUCCESS
}

/// Re-runs the highest-rate point of `spec` with the windowed sampler
/// and prints a sparkline summary — a glance at how delivery, latency
/// and in-flight population evolve inside the measurement window. Runs
/// outside the parallel executor (samplers are per-simulation state),
/// so sweep cache accounting is untouched.
fn print_telemetry_summary(spec: &SweepSpec) {
    let rate = spec.rates.last().copied().expect("spec has rates");
    let mut sim = make_sim(
        spec.id,
        spec.pattern,
        rate,
        spec.size,
        spec.fp_vcs,
        spec.seed,
    );
    sim.set_sampler(&SamplerConfig {
        sample_every: (spec.measure / 60).max(1),
        max_windows: 128,
    });
    sim.run_windows(spec.warmup, spec.measure);
    sim.finish_sampling();
    println!(
        "\n{} rate {rate} — {}",
        spec.id.name(),
        bench::series_summary(sim.sampler().expect("sampler installed"))
    );
}

/// The traced points, each a FastPass spec traced at its one rate, and
/// whether its trace must hold both regular `link` and bypass `lane`
/// traversals: a low-load point of the smoke `sweep`; a 1-VC transpose
/// point past the knee, where upgrades demonstrably fire; and the lowest
/// rate of `tests/golden.rs`'s 16×16 grid, where lanes fire at 256 nodes.
fn traced_points(sweep: &SweepSpec) -> [(SweepSpec, bool); 3] {
    let low_load = SweepSpec {
        rates: vec![0.05],
        ..sweep.clone()
    };
    let transpose = SweepSpec {
        pattern: SyntheticPattern::Transpose,
        rates: vec![0.3],
        fp_vcs: 1,
        warmup: 2_000,
        measure: 8_000,
        seed: 9,
        ..sweep.clone()
    };
    let mesh_16x16 = SweepSpec {
        rates: vec![0.02],
        size: 16,
        warmup: 500,
        measure: 1_500,
        ..sweep.clone()
    };
    [(low_load, false), (transpose, true), (mesh_16x16, true)]
}

/// Traces every [`traced_points`] point of `sweep` at full level and
/// checks the Chrome trace each one writes.
///
/// # Errors
///
/// Names the artifact that could not be written, or the trace file and
/// what its check found wrong.
fn run_traced_smoke(sweep: &SweepSpec) -> Result<(), String> {
    let dir = trace_out_dir();
    for (spec, bypass) in traced_points(sweep) {
        let rate = spec.rates[0];
        let paths = run_traced_point(&spec, rate, &dir)
            .map_err(|e| format!("writing trace artifacts into {}: {e}", dir.display()))?;
        for p in &paths {
            println!("traced {} — {}", spec.id.name(), p.display());
        }
        let trace = &paths[0];
        let file = File::open(trace).map_err(|e| format!("{}: {e}", trace.display()))?;
        let s = check_chrome_trace_full(BufReader::new(file), bypass, true)
            .map_err(|e| format!("{}: INVALID — {e}", trace.display()))?;
        let path = trace.display();
        println!("{path}: OK — {} events, {} counters", s.events, s.counters);
    }
    Ok(())
}
