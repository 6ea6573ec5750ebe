//! The `noc-prove` CLI.
//!
//! ```text
//! noc-prove [--suite figure|points|big|fault|full] [--config NAME]...
//!           [--faults N] [--planted] [--expect-clean] [--out DIR]
//! ```
//!
//! Certifies the selected configurations, writes one
//! `<config>.cert.json` per config plus `summary.json` under `--out`
//! (default `target/noc-prove`), prints one line per certificate, and
//! exits nonzero if any certificate differs from its expectation.
//!
//! `--expect-clean` overrides per-config expectations and demands a
//! `certified` verdict from everything selected — CI uses it to
//! demonstrate that the planted cyclic config fails the gate.

use noc_prove::certificate::Certificate;
use noc_prove::{certify, configs, ProveConfig};
use serde::Serialize;
use std::path::PathBuf;
use std::time::Instant;

struct Args {
    suites: Vec<String>,
    configs: Vec<String>,
    faults: Option<usize>,
    planted: bool,
    expect_clean: bool,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        suites: Vec::new(),
        configs: Vec::new(),
        faults: None,
        planted: false,
        expect_clean: false,
        out: PathBuf::from("target/noc-prove"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--suite" => {
                let s = it.next().ok_or("--suite needs a value")?;
                match s.as_str() {
                    "figure" | "points" | "big" | "fault" | "full" => args.suites.push(s),
                    other => return Err(format!("unknown suite {other:?}")),
                }
            }
            "--config" => args
                .configs
                .push(it.next().ok_or("--config needs a value")?),
            "--faults" => {
                let n = it.next().ok_or("--faults needs a value")?;
                args.faults = Some(n.parse().map_err(|_| format!("bad fault count {n:?}"))?);
            }
            "--planted" => args.planted = true,
            "--expect-clean" => args.expect_clean = true,
            "--out" => args.out = PathBuf::from(it.next().ok_or("--out needs a value")?),
            "--help" | "-h" => {
                println!(
                    "usage: noc-prove [--suite figure|points|big|fault|full] \
                     [--config NAME]... [--faults N] [--planted] [--expect-clean] \
                     [--out DIR]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.suites.is_empty() && args.configs.is_empty() && args.faults.is_none() && !args.planted {
        args.suites.push("full".into());
    }
    Ok(args)
}

fn selected(args: &Args) -> Result<Vec<ProveConfig>, String> {
    let mut v: Vec<ProveConfig> = Vec::new();
    for s in &args.suites {
        match s.as_str() {
            "figure" => v.extend(configs::figure_suite()),
            "points" => v.extend(configs::point_suite()),
            "big" => v.extend(configs::big_points()),
            "fault" => {
                v.extend(configs::fault_suite(8));
                v.push(configs::irregular_smoke());
            }
            "full" => v.extend(configs::full_suite()),
            other => return Err(format!("unknown suite {other:?}")),
        }
    }
    if let Some(n) = args.faults {
        v.extend(configs::fault_suite(n));
    }
    for name in &args.configs {
        v.push(configs::by_name(name).ok_or_else(|| format!("unknown config {name:?}"))?);
    }
    if args.planted {
        v.push(configs::planted());
    }
    // Suite combinations may select a config twice; certify each once.
    let mut seen = std::collections::BTreeSet::new();
    v.retain(|c| seen.insert(c.name.clone()));
    Ok(v)
}

#[derive(Serialize)]
struct Summary {
    total: usize,
    certified: usize,
    cycles: usize,
    refuted: usize,
    unexpected: Vec<String>,
    elapsed_ms: u64,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("noc-prove: {e}");
            std::process::exit(2);
        }
    };
    let cfgs = match selected(&args) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("noc-prove: {e}");
            std::process::exit(2);
        }
    };
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("noc-prove: creating {}: {e}", args.out.display());
        std::process::exit(2);
    }

    let start = Instant::now();
    let mut certs: Vec<Certificate> = Vec::new();
    let mut unexpected: Vec<String> = Vec::new();
    for cfg in &cfgs {
        let t = Instant::now();
        let cert = certify(cfg);
        let ok = if args.expect_clean {
            cert.certified()
        } else {
            cert.as_expected(cfg.expect_cycle)
        };
        println!(
            "[{}] {} ({} ms)",
            if ok { "ok" } else { "UNEXPECTED" },
            cert.summary(),
            t.elapsed().as_millis()
        );
        if !ok {
            unexpected.push(cert.config.clone());
        }
        let path = args.out.join(format!("{}.cert.json", cert.config));
        let json = serde_json::to_string_pretty(&cert).expect("certificate serializes");
        if let Err(e) = std::fs::write(&path, json) {
            eprintln!("noc-prove: writing {}: {e}", path.display());
            std::process::exit(2);
        }
        certs.push(cert);
    }

    let summary = Summary {
        total: certs.len(),
        certified: certs.iter().filter(|c| c.certified()).count(),
        cycles: certs.iter().filter(|c| c.verdict == "cycle-found").count(),
        refuted: certs.iter().filter(|c| c.verdict == "refuted").count(),
        unexpected: unexpected.clone(),
        elapsed_ms: start.elapsed().as_millis() as u64,
    };
    let json = serde_json::to_string_pretty(&summary).expect("summary serializes");
    if let Err(e) = std::fs::write(args.out.join("summary.json"), json) {
        eprintln!("noc-prove: writing summary: {e}");
        std::process::exit(2);
    }
    println!(
        "noc-prove: {} configs, {} certified, {} cycle(s), {} refuted in {} ms",
        summary.total, summary.certified, summary.cycles, summary.refuted, summary.elapsed_ms
    );
    if !unexpected.is_empty() {
        eprintln!("noc-prove: unexpected verdicts: {}", unexpected.join(", "));
        std::process::exit(1);
    }
}
