//! Table I and Table II are printed from the scheme catalogue and the
//! configuration defaults; their stdout is pinned byte for byte, so an
//! edit that changes a printed row fails here.

fn assert_prints(bin: &str, golden: &str) {
    let out = std::process::Command::new(bin)
        .output()
        .expect("table binary runs");
    assert!(out.status.success(), "{bin}: {}", out.status);
    assert_eq!(String::from_utf8_lossy(&out.stdout), golden, "{bin}");
}

#[test]
fn table1_matches_its_golden_output() {
    assert_prints(
        env!("CARGO_BIN_EXE_table1"),
        include_str!("golden/table1.txt"),
    );
}

#[test]
fn table2_matches_its_golden_output() {
    assert_prints(
        env!("CARGO_BIN_EXE_table2"),
        include_str!("golden/table2.txt"),
    );
}
