//! The `noc-check` CLI.
//!
//! ```text
//! noc-check [--matrix 2x2|3x3|all] [--config NAME]... [--planted]
//!           [--out DIR]
//! ```
//!
//! Runs the selected verification matrices (default: `2x2` plus the
//! planted soundness check), writes `summary.json` and any wedge traces
//! under `--out` (default `target/noc-check`; no wall-clock time goes
//! into these files, so two runs leave identical bytes), prints one
//! line per config, and exits nonzero if any config's verdict differs
//! from its expectation or a replay fails to confirm. (The static lane lemmas
//! are `noc-prove`'s: every point explored here also has a certificate
//! there.)

use noc_check::configs;
use noc_check::explore::{check, CheckConfig, Verdict};
use noc_check::replay::replay;
use noc_check::report::{ConfigOutcome, Summary};
use std::fs::File;
use std::io::BufWriter;
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    matrices: Vec<String>,
    configs: Vec<String>,
    planted: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        matrices: Vec::new(),
        configs: Vec::new(),
        planted: false,
        out: PathBuf::from("target/noc-check"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--matrix" => {
                let m = it.next().ok_or("--matrix needs a value")?;
                match m.as_str() {
                    "2x2" | "3x3" => args.matrices.push(m),
                    "all" => {
                        args.matrices.push("2x2".into());
                        args.matrices.push("3x3".into());
                    }
                    other => return Err(format!("unknown matrix {other:?}")),
                }
            }
            "--config" => args
                .configs
                .push(it.next().ok_or("--config needs a value")?),
            "--planted" => args.planted = true,
            "--out" => args.out = PathBuf::from(it.next().ok_or("--out needs a value")?),
            "--help" | "-h" => {
                println!(
                    "usage: noc-check [--matrix 2x2|3x3|all] [--config NAME]... \
                     [--planted] [--out DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.matrices.is_empty() && args.configs.is_empty() {
        args.matrices.push("2x2".into());
        args.planted = true;
    }
    Ok(args)
}

fn selected_configs(args: &Args) -> Result<Vec<CheckConfig>, String> {
    let mut v = Vec::new();
    for m in &args.matrices {
        match m.as_str() {
            "2x2" => v.extend(configs::matrix_2x2()),
            "3x3" => v.extend(configs::matrix_3x3()),
            _ => unreachable!("validated in parse_args"),
        }
    }
    for name in &args.configs {
        v.push(configs::by_name(name).ok_or_else(|| format!("no config named {name:?}"))?);
    }
    if args.planted {
        v.push(configs::planted());
    }
    Ok(v)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("noc-check: {e}");
            std::process::exit(2);
        }
    };
    let ccs = match selected_configs(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("noc-check: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("noc-check: cannot create {}: {e}", args.out.display());
        std::process::exit(2);
    }

    let mut outcomes = Vec::new();
    let mut ok = true;
    for cc in &ccs {
        if let Err(e) = configs::validate(cc) {
            eprintln!("noc-check: config {}: {e}", cc.point.name);
            std::process::exit(2);
        }
        let t0 = Instant::now();
        let report = check(cc);
        let seconds = t0.elapsed().as_secs_f64();

        let (replay_result, trace_path) = match &report.verdict {
            Verdict::Wedged(cex) => {
                let name = format!("{}-wedge.trace.json", cc.point.name);
                let path = args.out.join(&name);
                let written = File::create(&path).and_then(|f| replay(cc, cex, BufWriter::new(f)));
                let r = written.unwrap_or_else(|e| {
                    eprintln!("noc-check: cannot write {}: {e}", path.display());
                    std::process::exit(2);
                });
                (Some(r), Some(name))
            }
            _ => (None, None),
        };

        let as_expected =
            report.as_expected(cc) && replay_result.as_ref().is_none_or(|r| r.confirmed);
        ok &= as_expected;
        let outcome = ConfigOutcome {
            report,
            as_expected,
            replay: replay_result,
            trace_path,
        };
        println!("{}", Summary::describe(&outcome, seconds));
        if let Some(r) = &outcome.replay {
            for m in &r.mismatches {
                println!("    replay mismatch: {m}");
            }
        }
        if !as_expected {
            println!(
                "    UNEXPECTED: config {} expected {}",
                outcome.report.name,
                if cc.point.expect_deadlock {
                    "a wedge (planted bug) — checker failed its soundness test"
                } else {
                    "deadlock freedom"
                }
            );
        }
        outcomes.push(outcome);
    }

    let summary = Summary {
        version: env!("CARGO_PKG_VERSION"),
        matrices: args.matrices.clone(),
        configs: outcomes,
        ok,
    };
    let path = args.out.join("summary.json");
    let json = serde_json::to_string_pretty(&summary).expect("summary serializes");
    if let Err(e) = std::fs::write(&path, json) {
        eprintln!("noc-check: cannot write {}: {e}", path.display());
        std::process::exit(2);
    }
    println!(
        "summary: {} config(s), ok={} → {}",
        summary.configs.len(),
        summary.ok,
        path.display()
    );
    std::process::exit(if ok { 0 } else { 1 });
}
