//! `repeat N`: runs the whole matrix N times on the same build and
//! checks that the runs agree: every host-time end-to-end metric within
//! its own bound, every simulated value and every statistics digest
//! identical. The benchmark has to pass this before its numbers can
//! compare two commits.

use crate::catalogue::{Base, MetricDef, END_TO_END, PER_LAYER};
use crate::{guard, Args, Kind};
use serde::Content;
use std::collections::BTreeMap;

/// One child run: its metrics by name and its statistics digest.
struct Run {
    metrics: BTreeMap<String, f64>,
    digest: String,
}

fn field<'a>(doc: &'a Content, key: &str) -> Option<&'a Content> {
    doc.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn as_f64(c: &Content) -> Option<f64> {
    match *c {
        Content::F64(v) => Some(v),
        Content::U128(v) => Some(v as f64),
        Content::I128(v) => Some(v as f64),
        _ => None,
    }
}

/// Runs one workload in a child process and parses its result line and
/// output file.
fn child(args: &Args, kind: Kind, trace: bool) -> Result<Run, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(&exe)
        .args(args.child_flags(kind, trace))
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        print!("{stdout}");
        return Err(format!("{} failed ({})", kind.name(), out.status));
    }
    let line = stdout.lines().last().unwrap_or("");
    let doc: Content =
        serde_json::from_str(line).map_err(|e| format!("{}: bad result line: {e}", kind.name()))?;
    let metrics = field(&doc, "metrics")
        .and_then(Content::as_map)
        .ok_or_else(|| format!("{}: result line has no metrics", kind.name()))?
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), as_f64(field(m, "value")?)?)))
        .collect();
    let suffix = if trace { ".layers" } else { "" };
    let path = guard::package_dir()
        .join("out")
        .join(format!("{}{suffix}.json", kind.name()));
    let file = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let file: Content =
        serde_json::from_str(&file).map_err(|e| format!("{}: {e}", path.display()))?;
    let digest = field(&file, "stats_digest")
        .and_then(Content::as_str)
        .unwrap_or("")
        .to_string();
    Ok(Run { metrics, digest })
}

/// Whether two values of a metric agree, and their relative difference.
fn agrees(def: &MetricDef, a: f64, b: f64) -> (bool, f64) {
    let rel = if a == b {
        0.0
    } else {
        (a - b).abs() / a.abs().max(f64::MIN_POSITIVE)
    };
    let ok = match (def.base, def.bound) {
        // Simulated values are exact for a seed.
        (Base::Sim, _) => a == b,
        // Set-up is short: allow 50 ms of jitter on top of the bound.
        (_, Some(bound)) if def.name == "setup_s" => rel <= bound || (a - b).abs() <= 0.05,
        (_, Some(bound)) => rel <= bound,
        // Host-time layer rows and time-boxed counts are informational.
        (_, None) => true,
    };
    (ok, rel)
}

/// Runs the matrix `n` times and compares every later run with the
/// first. Returns whether all of them agree.
///
/// # Errors
///
/// When a child cannot be started or its output cannot be parsed.
pub fn run(args: &Args, n: u32) -> Result<bool, String> {
    let mut all_ok = true;
    for kind in Kind::ALL {
        for (trace, defs) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let mut runs = Vec::new();
            for _ in 0..n {
                runs.push(child(args, kind, trace)?);
            }
            println!(
                "== {} ({}) x{n} ==",
                kind.name(),
                if trace { "per layer" } else { "end to end" }
            );
            for def in defs {
                let values: Vec<f64> = runs
                    .iter()
                    .map(|r| r.metrics.get(def.name).copied().unwrap_or(f64::NAN))
                    .collect();
                let (mut ok, mut worst) = (true, 0.0f64);
                for &v in &values[1..] {
                    let (this_ok, rel) = agrees(def, values[0], v);
                    ok &= this_ok && v.is_finite();
                    worst = worst.max(rel);
                }
                // Layer rows are only listed when they say something.
                if !trace || !ok || def.base == Base::Sim {
                    println!(
                        "  {:<46} {:>9.3}%  {}  {values:?}",
                        def.name,
                        100.0 * worst,
                        if ok { "ok" } else { "DISAGREES" }
                    );
                }
                all_ok &= ok;
            }
            let same = runs.iter().all(|r| r.digest == runs[0].digest);
            println!(
                "  stats_digest {} {}",
                runs[0].digest,
                if same { "identical" } else { "DIFFERS" }
            );
            all_ok &= same;
        }
    }
    println!(
        "repeat: {}",
        if all_ok {
            "all runs agree"
        } else {
            "runs disagree"
        }
    );
    Ok(all_ok)
}
