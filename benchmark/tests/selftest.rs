//! Self-test: a `--tiny` matrix (4x4, short windows) drives all six
//! workloads, untraced and traced, through the real binary and checks
//! the output contract against `BENCHMARK.json`, the trace structure,
//! and that a planted failing point is reported and changes the exit
//! code. Runs from a debug build; its numbers are not measurements.

use serde::Content;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::Command;

fn package() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn field<'a>(doc: &'a Content, key: &str) -> Option<&'a Content> {
    doc.as_map()?.iter().find(|(k, _)| k == key).map(|(_, v)| v)
}

fn str_field<'a>(doc: &'a Content, key: &str) -> &'a str {
    field(doc, key)
        .and_then(Content::as_str)
        .unwrap_or_else(|| panic!("no string `{key}` in {doc:?}"))
}

fn contract() -> Content {
    let text =
        std::fs::read_to_string(package().join("../BENCHMARK.json")).expect("BENCHMARK.json");
    serde_json::from_str(&text).expect("BENCHMARK.json parses")
}

/// `name -> unit` of one metric list of `BENCHMARK.json`.
fn listed(contract: &Content, list: &str) -> BTreeMap<String, String> {
    field(contract, list)
        .and_then(Content::as_seq)
        .unwrap_or_else(|| panic!("no `{list}` list"))
        .iter()
        .map(|m| {
            (
                str_field(m, "name").to_string(),
                str_field(m, "unit").to_string(),
            )
        })
        .collect()
}

/// Runs the binary as the driver does; returns its exit code and the
/// parsed last line of standard output.
fn run(workload: &str, trace: bool, extra: &[&str]) -> (i32, Content) {
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .current_dir(package().join(".."))
        .args([
            "run",
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0.2",
        ])
        .args(["--trace", if trace { "1" } else { "0" }, "--tiny"])
        .args(extra)
        .output()
        .expect("the benchmark binary starts");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or("");
    let doc = serde_json::from_str(last).unwrap_or_else(|e| {
        panic!(
            "{workload}: last line is not JSON ({e:?}): {last}\n{stdout}\n{}",
            String::from_utf8_lossy(&out.stderr)
        )
    });
    (out.status.code().unwrap_or(-1), doc)
}

/// The result line has exactly the contract's keys, and its metrics are
/// exactly the names `BENCHMARK.json` lists, once each, with their units.
fn check_line(workload: &str, doc: &Content, want: &BTreeMap<String, String>) {
    let keys: Vec<&str> = doc
        .as_map()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        ["correct", "attempted", "failed", "metrics"],
        "{workload}"
    );
    assert!(
        field(doc, "attempted")
            .and_then(Content::as_u64)
            .expect("attempted")
            >= 1
    );
    let metrics = field(doc, "metrics")
        .and_then(Content::as_map)
        .expect("metrics");
    assert_eq!(metrics.len(), want.len(), "{workload}: metric count");
    let mut seen = BTreeMap::new();
    for (name, m) in metrics {
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "{workload}: bad name {name}"
        );
        assert!(
            seen.insert(name.clone(), ()).is_none(),
            "{workload}: {name} emitted twice"
        );
        let unit = want
            .get(name)
            .unwrap_or_else(|| panic!("{workload}: {name} is not in BENCHMARK.json"));
        assert_eq!(str_field(m, "unit"), unit, "{workload}: unit of {name}");
        match field(m, "value") {
            Some(Content::F64(v)) => assert!(v.is_finite(), "{workload}: {name} = {v}"),
            Some(Content::U128(_) | Content::I128(_)) => {}
            other => panic!("{workload}: {name} has value {other:?}"),
        }
    }
}

/// Span parents resolve, self times are non-negative, and the self times
/// of the main thread's spans sum to the root span.
fn check_trace(path: &Path) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    bench::check_chrome_trace(&text, false).expect("a loadable Chrome trace");
    let doc: Content = serde_json::from_str(&text).expect("trace parses");
    let arg = |ev: &Content, key: &str| field(field(ev, "args")?, key)?.as_u64();
    let spans: Vec<&Content> = doc
        .as_seq()
        .expect("an array")
        .iter()
        .filter(|ev| str_field(ev, "ph") == "X")
        .collect();
    let mut own: Vec<i128> = spans
        .iter()
        .map(|ev| i128::from(arg(ev, "dur_ns").expect("dur_ns")))
        .collect();
    for (i, ev) in spans.iter().enumerate() {
        assert_eq!(arg(ev, "id"), Some(i as u64), "ids are positions");
        if let Some(parent) = arg(ev, "parent") {
            let parent = parent as usize;
            assert!(
                parent < spans.len() && parent != i,
                "span {i}: parent {parent} resolves"
            );
            if field(ev, "tid") == field(spans[parent], "tid") {
                own[parent] -= i128::from(arg(ev, "dur_ns").expect("dur_ns"));
            }
        }
    }
    assert!(own.iter().all(|&ns| ns >= 0), "self times are non-negative");
    let root_tid = field(spans[0], "tid");
    let main_thread: i128 = spans
        .iter()
        .zip(&own)
        .filter(|(ev, _)| field(ev, "tid") == root_tid)
        .map(|(_, &ns)| ns)
        .sum();
    assert!(arg(spans[0], "parent").is_none(), "span 0 is the root");
    assert_eq!(
        main_thread,
        i128::from(arg(spans[0], "dur_ns").expect("dur_ns")),
        "self times sum to the root span"
    );
}

fn drive(workload: &str) {
    let contract = contract();
    let (code, doc) = run(workload, false, &[]);
    check_line(workload, &doc, &listed(&contract, "end_to_end"));
    assert_eq!(
        field(&doc, "correct"),
        Some(&Content::Bool(true)),
        "{workload}: {doc:?}"
    );
    assert_eq!(code, 0, "{workload}: exit code");
    let (code, doc) = run(workload, true, &[]);
    check_line(workload, &doc, &listed(&contract, "per_layer"));
    assert_eq!(
        field(&doc, "correct"),
        Some(&Content::Bool(true)),
        "{workload}: {doc:?}"
    );
    assert_eq!(code, 0, "{workload}: traced exit code");
    check_trace(&package().join("out").join(format!("{workload}.trace.json")));
}

#[test]
fn engine_zeroload_meets_the_contract() {
    drive("engine_zeroload");
}

#[test]
fn engine_saturated_meets_the_contract() {
    drive("engine_saturated");
}

#[test]
fn engine_protocol_meets_the_contract() {
    drive("engine_protocol");
}

#[test]
fn sweep_cold_meets_the_contract() {
    drive("sweep_cold");
}

#[test]
fn sweep_warm_meets_the_contract() {
    drive("sweep_warm");
}

#[test]
fn serve_mixed_meets_the_contract() {
    drive("serve_mixed");
}

#[test]
fn workload_list_matches_benchmark_json() {
    let contract = contract();
    let names: Vec<&str> = field(&contract, "workloads")
        .and_then(Content::as_seq)
        .expect("workloads")
        .iter()
        .map(|w| str_field(w, "name"))
        .collect();
    assert_eq!(names.len(), 6);
    assert!(listed(&contract, "end_to_end").len() <= 16);
    assert!(listed(&contract, "per_layer").len() <= 128);
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(["run", "--workload", "no_such_workload", "--tiny"])
        .output()
        .expect("the benchmark binary starts");
    assert_eq!(
        out.status.code(),
        Some(2),
        "an unknown workload is a usage error"
    );
    let usage = String::from_utf8_lossy(&out.stderr);
    for name in names {
        assert!(usage.contains(name), "usage lists {name}");
    }
}

#[test]
fn a_planted_failing_point_is_counted_and_changes_the_exit_code() {
    let (code, doc) = run("engine_zeroload", false, &["--plant-failure"]);
    assert_eq!(field(&doc, "correct"), Some(&Content::Bool(false)));
    assert!(
        field(&doc, "failed")
            .and_then(Content::as_u64)
            .expect("failed")
            >= 1
    );
    assert_eq!(code, 1);
}

#[test]
fn a_full_size_run_is_refused_from_a_debug_build() {
    if !cfg!(debug_assertions) {
        return;
    }
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .current_dir(package().join(".."))
        .args(["run", "--workload", "sweep_warm", "--seconds", "0.1"])
        .output()
        .expect("the benchmark binary starts");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty(), "no result line is printed");
    assert!(String::from_utf8_lossy(&out.stderr).contains("debug build"));
}
