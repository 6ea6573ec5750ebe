//! The repo benchmark. See `README.md` in this directory.
//!
//! ```text
//! benchmark [run] [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--tiny]
//! benchmark repeat N [--seed N] [--seconds S] [--tiny]
//! ```
//!
//! With `--workload`, runs that workload in this process and ends
//! standard output with one JSON line (`correct`, `attempted`, `failed`,
//! `metrics`). Without it, runs every workload, each in a child process
//! of its own. Exit code 0 means every check passed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod catalogue;
mod common;
mod engine;
mod guard;
mod inputs;
mod kernels;
mod lanes;
mod repeat;
mod report;
mod span;
mod traced;
mod wl_engine;
mod wl_serve;
mod wl_sweep;

use common::{peak_rss_mb, Ctx, Model, Timed};
use inputs::Scale;
use report::Report;
use serde::Content;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The six workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `engine_zeroload`.
    EngineZeroload,
    /// `engine_saturated`.
    EngineSaturated,
    /// `engine_protocol`.
    EngineProtocol,
    /// `sweep_cold`.
    SweepCold,
    /// `sweep_warm`.
    SweepWarm,
    /// `serve_mixed`.
    ServeMixed,
}

impl Kind {
    const ALL: [Kind; 6] = [
        Kind::EngineZeroload,
        Kind::EngineSaturated,
        Kind::EngineProtocol,
        Kind::SweepCold,
        Kind::SweepWarm,
        Kind::ServeMixed,
    ];

    /// The catalogue name.
    pub fn name(self) -> &'static str {
        catalogue::WORKLOADS[self as usize].0
    }

    fn parse(name: &str) -> Option<Kind> {
        catalogue::workload_index(name).map(|i| Kind::ALL[i])
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// `repeat N`: run the matrix N times and compare.
    repeat: Option<u32>,
    workload: Option<Kind>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    scale: Scale,
    /// `--plant-failure`: the self-test's hook; corrupts one reference
    /// digest so a point must be reported as failed.
    plant_failure: bool,
    /// `catalogue`: print `BENCHMARK.json` and exit.
    catalogue: bool,
}

fn usage() -> String {
    let names: Vec<&str> = catalogue::WORKLOADS.iter().map(|(n, _)| *n).collect();
    format!(
        "usage: benchmark [run | repeat N] [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--tiny]\n\
         workloads: {}",
        names.join(", ")
    )
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        repeat: None,
        workload: None,
        seed: 99,
        seconds: None,
        trace: false,
        scale: Scale::Full,
        plant_failure: false,
        catalogue: false,
    };
    let mut it = argv.iter();
    let value = |it: &mut std::slice::Iter<'_, String>, flag: &str| {
        it.next()
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))
    };
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "run" => {}
            "repeat" => {
                let n = value(&mut it, "repeat")?;
                args.repeat = Some(
                    n.parse()
                        .ok()
                        .filter(|&n| n >= 2)
                        .ok_or_else(|| format!("repeat needs a count of at least 2, got `{n}`"))?,
                );
            }
            "--workload" => {
                let w = value(&mut it, "--workload")?;
                args.workload = Some(
                    Kind::parse(&w)
                        .ok_or_else(|| format!("unknown workload `{w}`\n{}", usage()))?,
                );
            }
            "--seed" => {
                let s = value(&mut it, "--seed")?;
                args.seed = s
                    .parse()
                    .map_err(|_| format!("--seed needs a whole number, got `{s}`"))?;
            }
            "--seconds" => {
                let s = value(&mut it, "--seconds")?;
                args.seconds = Some(
                    s.parse()
                        .ok()
                        .filter(|v: &f64| v.is_finite() && *v > 0.0 && *v <= 600.0)
                        .ok_or_else(|| {
                            format!("--seconds needs a number in (0, 600], got `{s}`")
                        })?,
                );
            }
            "--trace" => {
                args.trace = match value(&mut it, "--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace needs 0 or 1, got `{other}`")),
                };
            }
            "--traced" => args.trace = true,
            "--tiny" => args.scale = Scale::Tiny,
            "--plant-failure" => args.plant_failure = true,
            "catalogue" => args.catalogue = true,
            "--help" | "-h" => return Err(usage()),
            other => return Err(format!("unknown argument `{other}`\n{}", usage())),
        }
    }
    Ok(args)
}

impl Args {
    fn seconds(&self) -> f64 {
        self.seconds.unwrap_or(match self.scale {
            Scale::Full => f64::from(catalogue::RUN_SECONDS),
            Scale::Tiny => 0.2,
        })
    }

    /// The flags that reproduce this invocation for one workload.
    fn child_flags(&self, kind: Kind, trace: bool) -> Vec<String> {
        let mut v = vec![
            "run".to_string(),
            "--workload".into(),
            kind.name().into(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds().to_string(),
            "--trace".into(),
            u8::from(trace).to_string(),
        ];
        if self.scale == Scale::Tiny {
            v.push("--tiny".into());
        }
        v
    }
}

/// Fills the end-to-end metrics of an untraced run.
fn end_to_end(report: &mut Report, setups: &[f64], timed: &Timed, model: Model) {
    let mut ops = timed.ops_ms.clone();
    // Like every host-time number here, the quiet-state value: the
    // fastest of the set-ups (see `common::Timed`).
    report.set(
        "setup_s",
        setups.iter().copied().fold(f64::INFINITY, f64::min),
    );
    report.set("points_per_s", timed.points_per_s);
    report.set("sim_cycles_per_s", timed.cycles_per_s);
    report.set("op_p50_ms", timed.op_p50_ms);
    report.set("peak_rss_mb", peak_rss_mb());
    report.set("model_latency_cycles", model.latency_cycles);
    report.set("model_accepted_load", model.accepted_load);
    report.attempted = timed.points;
    report
        .info
        .push(("blocks".into(), Content::U128(u128::from(timed.blocks))));
    report
        .info
        .push(("op_samples".into(), Content::U128(ops.len() as u128)));
    let mut q = |p: f64| common::percentile(&mut ops, p);
    report.notes.push(format!(
        "raw op latency over n = {} ops in {} blocks (ms): min {:.3}  q1 {:.3}  median {:.3}  q3 {:.3}  max {:.3}; {} points attempted",
        timed.ops_ms.len(),
        timed.blocks,
        q(0.0),
        q(25.0),
        q(50.0),
        q(75.0),
        q(100.0),
        timed.points
    ));
}

/// Runs set-up at least three times, and again until 1.5 s have gone
/// into it (at most twelve times): a set-up of a tenth of a second needs
/// more samples than one of two seconds before its fastest run repeats.
/// The previous workload is torn down, untimed, before the next is made.
/// Returns the last workload and every set-up's seconds.
fn repeat_setup<W>(
    mut make: impl FnMut(usize) -> Result<W, String>,
) -> Result<(W, Vec<f64>), String> {
    let mut seconds = Vec::new();
    let mut wl = None;
    while seconds.len() < 3 || (seconds.iter().sum::<f64>() < 1.5 && seconds.len() < 12) {
        drop(wl.take());
        let begun = Instant::now();
        wl = Some(make(seconds.len())?);
        seconds.push(begun.elapsed().as_secs_f64());
    }
    Ok((wl.expect("set-up ran at least three times"), seconds))
}

fn run_untraced(kind: Kind, ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::new(kind.name(), false);
    match kind {
        Kind::EngineZeroload | Kind::EngineSaturated | Kind::EngineProtocol => {
            let (wl, setups) = repeat_setup(|_| Ok(wl_engine::Engine::setup(kind, ctx)))?;
            let timed = wl.timed(ctx);
            report.fail(wl.setup_failures.clone());
            report.fail(wl.verify());
            report.stats_digest = format!("{:016x}", wl.digest());
            end_to_end(&mut report, &setups, &timed, wl.model());
            report.fail(timed.failures);
        }
        Kind::SweepCold | Kind::SweepWarm => {
            let (wl, setups) =
                repeat_setup(|i| Ok(wl_sweep::Sweep::setup(kind, ctx, &i.to_string())))?;
            let timed = wl.timed(ctx);
            report.fail(wl.setup_failures.clone());
            report.fail(wl.verify());
            report.stats_digest = format!("{:016x}", wl.digest());
            end_to_end(&mut report, &setups, &timed, wl.model());
            report.fail(timed.failures);
        }
        Kind::ServeMixed => {
            let (mut wl, setups) =
                repeat_setup(|i| wl_serve::Serve::setup(ctx, &i.to_string(), false))?;
            let session = wl.session(ctx.seconds, None);
            report.fail(wl.setup_failures.clone());
            report.fail(wl.verify());
            report.stats_digest = format!("{:016x}", wl.digest());
            end_to_end(&mut report, &setups, &session.timed, wl.model());
            report.fail(session.timed.failures);
            let r = session.resolved;
            report.notes.push(format!(
                "closed loop, 2 clients: {} jobs; points enqueued {} / cached {} / deduped {}",
                session.jobs, r.enqueued, r.cached, r.deduped
            ));
        }
    }
    Ok(report)
}

fn run_one(kind: Kind, args: &Args) -> Result<Report, String> {
    let package = guard::package_dir();
    if args.scale == Scale::Full {
        guard::check_build(&package)?;
    }
    let out = guard::relative_to_cwd(&package).join("out");
    let work = out.join(format!("work-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let ctx = Ctx {
        scale: args.scale,
        seed: args.seed,
        seconds: args.seconds(),
        work: work.clone(),
        plant_failure: args.plant_failure,
    };
    let result = if args.trace {
        traced::run(kind, &ctx, &out)
    } else {
        run_untraced(kind, &ctx)
    };
    let _ = std::fs::remove_dir_all(&work);
    let report = result?;
    report.print();
    let suffix = if args.trace { ".layers" } else { "" };
    let path: PathBuf = out.join(format!("{}{suffix}.json", kind.name()));
    std::fs::write(&path, report.file_json(&guard::stamp(), args.seed))
        .map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(report)
}

/// Runs every workload, each in a child process of its own.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    for trace in [false, true] {
        if trace && !args.trace {
            continue;
        }
        for kind in Kind::ALL {
            let status = std::process::Command::new(&exe)
                .args(args.child_flags(kind, trace))
                .status()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            all_ok &= status.success();
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    if args.catalogue {
        println!("{}", catalogue::benchmark_json());
        return ExitCode::SUCCESS;
    }
    let ok = if let Some(n) = args.repeat {
        repeat::run(&args, n)
    } else if let Some(kind) = args.workload {
        run_one(kind, &args).map(|report| {
            // The driver reads the last line of standard output.
            println!("{}", report.final_line());
            report.correct()
        })
    } else {
        run_all(&args)
    };
    match ok {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
