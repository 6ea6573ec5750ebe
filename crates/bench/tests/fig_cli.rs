//! The `fig` command line: bad arguments are exit 2 with one usage line
//! naming every figure, DESIGN.md's experiment index documents exactly
//! those figures, serve mode notes in-process jobs once per figure that
//! has them, a Fig. 10 run cut short by `FP_MAXCYCLES` fails, and an
//! `FP_SIZE` a figure's schemes cannot run on fails that figure alone.

use std::path::PathBuf;
use std::process::Command;

const FIGURES: &str = "table1 table2 fig7 fig8 fig9 fig10 fig11 fig12 fig13 fig_irregular ablation";

/// Runs `fig` on a 4x4 mesh with short windows, no cache and no daemon,
/// writing JSON into a fresh directory named by `out`.
fn fig(args: &[&str], env: &[(&str, &str)], out: &str) -> (Option<i32>, String, String) {
    let _ = std::fs::remove_dir_all(out_dir(out));
    let out = Command::new(env!("CARGO_BIN_EXE_fig"))
        .args(args)
        .env_remove("NOC_SERVE")
        .envs([("FP_WARMUP", "300"), ("FP_MEASURE", "800")])
        .envs([("FP_SIZE", "4"), ("FP_CACHE", "off")])
        .envs(env.iter().copied())
        .env("FP_OUT", out_dir(out))
        .output()
        .expect("fig runs");
    let text = |bytes: &[u8]| String::from_utf8_lossy(bytes).into_owned();
    (out.status.code(), text(&out.stdout), text(&out.stderr))
}

fn out_dir(tag: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("fig_cli_{tag}"))
}

/// The names on the one usage line of a rejected command line.
fn usage_names(stderr: &str) -> Vec<&str> {
    let usage: Vec<&str> = stderr.lines().filter(|l| l.starts_with("usage:")).collect();
    assert_eq!(usage.len(), 1, "one usage line: {stderr}");
    let (_, names) = usage[0].split_once("(names: ").expect("usage lists names");
    names.trim_end_matches(')').split(' ').collect()
}

#[test]
fn bad_command_lines_are_usage_errors_naming_every_figure() {
    for args in [&["nope"][..], &["table1", "--bogus"], &[], &["--serve"]] {
        let (code, stdout, stderr) = fig(args, &[], "usage");
        assert_eq!(code, Some(2), "fig {args:?}: {stderr}");
        assert!(stdout.is_empty(), "fig {args:?} ran something: {stdout}");
        let names = usage_names(&stderr);
        assert_eq!(names.join(" "), FIGURES, "fig {args:?}");
        let repeated = (1..names.len()).find(|&i| names[..i].contains(&names[i]));
        assert_eq!(repeated, None, "names are unique: {names:?}");
    }
}

#[test]
fn design_index_documents_exactly_the_figures() {
    let design = include_str!("../../../DESIGN.md");
    let (_, index) = design.split_once("## Experiment index").expect("an index");
    let (index, _) = index.split_once("\n## ").unwrap_or((index, ""));
    // Each row's regenerating target is `fig <name>`.
    let targets = index.split("`fig ").skip(1);
    let mut documented: Vec<&str> = targets.map(|t| t.split('`').next().unwrap_or(t)).collect();
    let mut names: Vec<&str> = FIGURES.split(' ').collect();
    documented.sort_unstable();
    names.sort_unstable();
    assert_eq!(documented, names);
}

#[test]
fn serve_mode_notes_in_process_jobs_once_per_figure_with_jobs() {
    let serve = format!("--serve={}", out_dir("serve").join("absent.sock").display());
    let (code, _, stderr) = fig(&["table1", "fig9", &serve], &[], "serve");
    assert_eq!(code, Some(0), "{stderr}");
    let lines: Vec<&str> = stderr.lines().filter(|l| l.starts_with("[fig]")).collect();
    assert_eq!(lines.len(), 3, "{stderr}");
    assert!(lines[1].starts_with("[fig] fig9:") && lines[2].starts_with("[fig] note: serve"));
    assert!(out_dir("serve").join("fig9.json").is_file());
}

#[test]
fn fig10_runs_cut_short_by_the_cycle_cap_fail_the_figure() {
    let caps = [("FP_QUOTA", "5"), ("FP_MAXCYCLES", "50")];
    let (code, stdout, stderr) = fig(&["fig10"], &caps, "fig10_capped");
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(stdout.contains("capped"), "{stdout}");
    assert!(!stdout.contains("JSON written"), "{stdout}");
    assert!(stderr.contains("hit FP_MAXCYCLES=50"), "{stderr}");
    assert!(stderr.contains("Radix on EscapeVC(6VN,2VC)"), "{stderr}");
    assert!(!out_dir("fig10_capped").join("fig10.json").exists());
}

/// DRAIN has no Hamiltonian ring on a 5×5 mesh: Fig. 7's sweeps and
/// Fig. 12's application runs are refused before anything simulates,
/// each figure failing with one line and no panic, while Fig. 9
/// (FastPass only) runs and writes its JSON. A 1×1 mesh is refused
/// under the edge bound.
#[test]
fn a_mesh_size_a_scheme_cannot_run_fails_that_figure_only() {
    let (code, stdout, stderr) = fig(&["fig7", "fig12", "fig9"], &[("FP_SIZE", "5")], "odd");
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    for name in ["fig7", "fig12"] {
        let prefix = format!("fig {name}: ");
        let failed: Vec<&str> = stderr.lines().filter(|l| l.starts_with(&prefix)).collect();
        assert_eq!(failed.len(), 1, "{stderr}");
        assert!(failed[0].contains("DRAIN"), "{stderr}");
        assert!(!out_dir("odd").join(format!("{name}.json")).exists());
    }
    assert!(out_dir("odd").join("fig9.json").is_file(), "{stderr}");

    let (code, stdout, stderr) = fig(&["fig9"], &[("FP_SIZE", "1")], "one");
    assert_eq!(code, Some(1), "{stdout}{stderr}");
    assert!(stderr.contains("mesh edge must be 2 to 255"), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
}
