//! The `smoke` command line: an argument it does not know — a typo, or
//! the retired `--trace=LEVEL` form — is exit 2 with one usage line, and
//! nothing is simulated or written.

use std::path::PathBuf;
use std::process::Command;

#[test]
fn unknown_arguments_are_usage_errors_that_simulate_nothing() {
    for arg in ["--bogus", "--trace=counters"] {
        let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("smoke_cli");
        let _ = std::fs::remove_dir_all(&dir);
        let out = Command::new(env!("CARGO_BIN_EXE_smoke"))
            .arg(arg)
            .env_remove("NOC_SERVE")
            .env("FP_CACHE", "off")
            .env("FP_OUT", dir.join("out"))
            .env("FP_TRACE_OUT", dir.join("trace"))
            .output()
            .expect("smoke runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "smoke {arg}: {stderr}");
        assert!(out.stdout.is_empty(), "smoke {arg} printed a result");
        let usage = stderr.lines().filter(|l| l.starts_with("usage:")).count();
        assert_eq!(usage, 1, "smoke {arg}: one usage line: {stderr}");
        assert!(stderr.contains(arg), "smoke {arg}: names the argument");
        assert!(!dir.exists(), "smoke {arg} wrote {}", dir.display());
    }
}
