//! The `nocsim` front-end runs every scheme it advertises: each name on
//! `--list`'s `schemes` line resolves through the registry and delivers
//! packets on a small mesh. Bad arguments are usage errors, and a
//! synthetic run is the sweep's own point.

use fastpass_noc::schemes::SchemeId;
use fastpass_noc::serve::runner::{simulate_point, SweepSpec};
use fastpass_noc::traffic::SyntheticPattern;
use std::process::{Command, Output};

fn run_nocsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_nocsim"))
        .args(args)
        .output()
        .expect("nocsim runs")
}

fn nocsim(args: &[&str]) -> String {
    let out = run_nocsim(args);
    assert!(
        out.status.success(),
        "nocsim {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("utf-8 output")
}

#[test]
fn every_listed_scheme_runs_and_delivers() {
    let listing = nocsim(&["--list"]);
    let schemes = listing
        .lines()
        .find_map(|l| l.strip_prefix("schemes :"))
        .expect("--list prints a schemes line");
    let names: Vec<&str> = schemes.split_whitespace().collect();
    assert_eq!(names.len(), 9, "eight paper schemes plus vct-xy: {names:?}");
    for name in names {
        let json = nocsim(&["--scheme", name, "--size", "4", "--cycles", "500", "--json"]);
        let delivered: u64 = json
            .split("\"delivered\":")
            .nth(1)
            .and_then(|rest| rest.split(',').next())
            .and_then(|n| n.trim().parse().ok())
            .unwrap_or_else(|| panic!("{name}: no delivered count in {json}"));
        assert!(delivered > 0, "{name} delivered nothing: {json}");
    }
}

/// Out-of-range sizes and VC counts are usage errors (exit 2, one line
/// naming the bound), not panics from inside the simulator — and nothing
/// is simulated.
#[test]
fn out_of_range_size_and_vcs_are_usage_errors() {
    let edge = "mesh edge must be 2 to 255";
    for (args, bound) in [
        (["--scheme", "fastpass", "--vcs", "13"], "at most 12 VCs"),
        (["--scheme", "fastpass", "--size", "1"], edge),
        (["--scheme", "escapevc", "--size", "0"], edge),
        (["--scheme", "minbd", "--size", "256"], edge),
    ] {
        assert_usage_error(&args, bound);
    }
}

/// A bit pattern on a mesh whose node count is not a power of two is a
/// usage error under the pattern's own rule, not a panic mid-run.
#[test]
fn patterns_the_mesh_cannot_carry_are_usage_errors() {
    assert_usage_error(
        &["--size", "6", "--pattern", "bit-rotation"],
        "bit-rotation needs a power-of-two node count",
    );
}

/// `nocsim args` is a usage error: exit 2 and one `nocsim:` line that
/// contains `needle`, with nothing simulated.
fn assert_usage_error(args: &[&str], needle: &str) {
    let out = run_nocsim(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} simulated something");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(
        stderr.starts_with("nocsim: ") && stderr.contains(needle),
        "{args:?}: {stderr}"
    );
}

/// `--json` prints one JSON object even when a float has no value: a
/// run that delivers nothing has no average latency, printed `null`.
#[test]
fn json_report_is_json_when_nothing_is_delivered() {
    let out = nocsim(&[
        "--scheme", "fastpass", "--size", "4", "--rate", "0.001", "--warmup", "0", "--cycles", "1",
        "--json",
    ]);
    assert_eq!(field(&out, "delivered").as_u64(), Some(0), "{out}");
    assert_eq!(field(&out, "avg_latency"), serde::Content::Null, "{out}");
    assert_eq!(field(&out, "cycles").as_u64(), Some(1), "{out}");
}

/// Field `name` of a `--json` report.
fn field(out: &str, name: &str) -> serde::Content {
    let report: serde::Content =
        serde_json::from_str(out.trim()).unwrap_or_else(|e| panic!("{e}: {out}"));
    report
        .as_map()
        .and_then(|m| m.iter().find(|(k, _)| k == name))
        .map(|(_, v)| v.clone())
        .unwrap_or_else(|| panic!("no `{name}` in {out}"))
}

/// A misspelt or unknown flag is a usage error naming it, not a
/// silent default run.
#[test]
fn unknown_flags_are_usage_errors() {
    assert_usage_error(&["--size", "4", "--patern", "transpose"], "`--patern`");
    assert_usage_error(&["--size", "4", "--json", "--rates", "0.1"], "`--rates`");
}

/// Pattern names match case-insensitively, as on the wire.
#[test]
fn pattern_names_ignore_case() {
    let run = |name| {
        nocsim(&[
            "--size",
            "4",
            "--pattern",
            name,
            "--cycles",
            "500",
            "--json",
        ])
    };
    assert_eq!(run("Transpose"), run("transpose"));
}

/// A synthetic run is the point the sweep stores for the same spec:
/// same seed derivation, same counters.
#[test]
fn a_synthetic_run_reproduces_the_stored_point() {
    let spec = SweepSpec {
        id: SchemeId::FastPass,
        pattern: SyntheticPattern::Uniform,
        rates: vec![0.1],
        size: 4,
        fp_vcs: 2,
        warmup: 300,
        measure: 1_000,
        seed: 7,
    };
    let point = simulate_point(&spec, 0.1);
    let out = nocsim(&[
        "--size", "4", "--vcs", "2", "--seed", "7", "--rate", "0.1", "--warmup", "300", "--cycles",
        "1000", "--json",
    ]);
    assert_eq!(field(&out, "delivered").as_u64(), Some(point.delivered));
    for (name, want) in [
        ("throughput", point.throughput),
        ("avg_latency", point.avg_latency),
    ] {
        let got = <f64 as serde::Deserialize>::from_content(&field(&out, name))
            .unwrap_or_else(|e| panic!("{name}: {e}: {out}"));
        assert_eq!(got.to_bits(), want.to_bits(), "{name}: {out}");
    }
}

/// A rate outside `(0, 1]` is a usage error under the wire's own rule,
/// not a panic (`nan`), a silent idle network (`-0.5`) or a silent
/// clamp to 1 (`3`).
#[test]
fn out_of_range_rates_are_usage_errors() {
    for rate in ["nan", "-0.5", "3"] {
        let out = run_nocsim(&["--size", "4", "--rate", rate, "--json"]);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "--rate {rate}: {stderr}");
        assert!(out.stdout.is_empty(), "--rate {rate} simulated something");
        assert_eq!(stderr.lines().count(), 1, "--rate {rate}: {stderr}");
        assert!(
            stderr.starts_with("nocsim: ")
                && stderr
                    .to_lowercase()
                    .contains(&format!("rate {rate} outside (0, 1]")),
            "--rate {rate}: {stderr}"
        );
    }
}
