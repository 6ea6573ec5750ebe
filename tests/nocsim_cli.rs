//! The `nocsim` front-end runs every scheme it advertises: each name on
//! `--list`'s `schemes` line resolves through the registry and delivers
//! packets on a small mesh.

use std::process::Command;

fn nocsim(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_nocsim"))
        .args(args)
        .output()
        .expect("nocsim runs");
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
