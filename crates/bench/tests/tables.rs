//! Table I and Table II are printed from the scheme catalogue and the
//! configuration defaults; `fig table1` / `fig table2` stdout is pinned
//! byte for byte to the committed `results/table{1,2}.txt`, so an edit
//! that changes a printed row fails here.

#[test]
fn tables_match_their_committed_output() {
    let tables = [
        ("table1", include_str!("../../../results/table1.txt")),
        ("table2", include_str!("../../../results/table2.txt")),
    ];
    for (table, expected) in tables {
        let mut fig = std::process::Command::new(env!("CARGO_BIN_EXE_fig"));
        let out = fig.arg(table).output().expect("fig runs");
        assert!(out.status.success(), "fig {table}: {}", out.status);
        assert_eq!(String::from_utf8_lossy(&out.stdout), expected, "{table}");
    }
}
