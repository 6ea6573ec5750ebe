//! CI smoke sweep: a 4×4 mesh, three injection rates, FastPass plus the
//! plain-VCT substrate baseline, run through the parallel executor.
//!
//! Exercises the whole stack — registry, work-queue scheduler, result
//! cache, JSON emission — end to end in a few seconds, and fails loudly
//! if any point produces a non-finite latency or delivers nothing.
//!
//! `--trace[=level]` (default level `full`) additionally re-runs two
//! traced points — one low-load uniform point and one high-load FastPass
//! transpose point that actually exercises the bypass lanes — and writes
//! Chrome trace / metrics / lifetime artifacts into `trace/` (override
//! with `FP_TRACE_OUT`). Traced runs never touch the sweep cache, so the
//! cache-hit accounting of the untraced sweep is unchanged.
//!
//! `--serve[=SOCKET]` (or `NOC_SERVE`) routes the sweep through a
//! running `nocserve` daemon instead of the in-process executor; the
//! emitted `smoke.json` is bitwise identical either way (the `serve` CI
//! job diffs the two). The telemetry summary and the traced points
//! always run locally.

use bench::runner::make_sim;
use bench::trace_out::{run_traced_point, trace_out_dir};
use bench::{emit_json, run_sweeps, SchemeId, SweepSpec};
use noc_sim::SamplerConfig;
use noc_trace::{TraceConfig, TraceLevel};
use traffic::SyntheticPattern;

fn parse_trace_flag() -> Option<TraceLevel> {
    for arg in std::env::args().skip(1) {
        if arg == "--trace" {
            return Some(TraceLevel::Full);
        }
        if let Some(level) = arg.strip_prefix("--trace=") {
            match TraceLevel::parse(level) {
                Ok(l) => return Some(l),
                Err(e) => {
                    eprintln!("smoke: {e}");
                    std::process::exit(2);
                }
            }
        }
    }
    None
}

fn main() {
    let trace_level = parse_trace_flag();
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
    let results = run_sweeps(&specs);
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

    if let Some(level) = trace_level {
        run_traced_smoke(level, &specs[0]);
    }
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

/// Traces one low-load point from the untraced sweep plus one high-load
/// FastPass transpose point (rate 0.3, single-VC buffers) where upgrades
/// demonstrably fire, so the artifacts contain both regular `link` and
/// bypass `lane` traversals for `trace_check --require-bypass`.
fn run_traced_smoke(level: TraceLevel, low_load: &SweepSpec) {
    let cfg = TraceConfig { level };
    let bypass_spec = SweepSpec {
        id: SchemeId::FastPass,
        pattern: SyntheticPattern::Transpose,
        rates: vec![0.3],
        size: 4,
        fp_vcs: 1,
        warmup: 2_000,
        measure: 8_000,
        seed: 9,
    };
    let dir = trace_out_dir();
    for (spec, rate) in [(low_load, 0.05), (&bypass_spec, 0.3)] {
        let paths = run_traced_point(spec, rate, &cfg, &dir).expect("traced point");
        for p in &paths {
            println!("traced {} — {}", spec.id.name(), p.display());
        }
    }
}
