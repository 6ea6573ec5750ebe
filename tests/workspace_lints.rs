//! Every package opts into the workspace lint table.
//!
//! `unsafe_code = "forbid"` and clippy's `unwrap_used` live in the root
//! manifest's `[workspace.lints]`, but Cargo applies them only to a
//! package whose own manifest says `[lints] workspace = true`. A crate
//! that forgot would build without either, silently — this test is what
//! notices.

use std::path::{Path, PathBuf};

/// The `key = value` lines of table `[name]` in `manifest`, trimmed,
/// comments and blank lines dropped.
fn table(manifest: &str, name: &str) -> Vec<String> {
    let header = format!("[{name}]");
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != header)
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(|l| l.split_whitespace().collect::<Vec<_>>().join(" "))
        .collect()
}

fn manifests() -> Vec<PathBuf> {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut out = vec![root.join("Cargo.toml")];
    for dir in ["crates", "shims"] {
        let mut members: Vec<PathBuf> = std::fs::read_dir(root.join(dir))
            .expect("member directory")
            .map(|e| e.expect("dir entry").path().join("Cargo.toml"))
            .filter(|m| m.exists())
            .collect();
        members.sort();
        out.extend(members);
    }
    out
}

#[test]
fn every_manifest_opts_into_the_workspace_lints() {
    let all = manifests();
    assert_eq!(all.len(), 1 + 13 + 4, "root + crates + shims: {all:?}");
    let missing: Vec<_> = all
        .iter()
        .filter(|m| {
            let text = std::fs::read_to_string(m).expect("read manifest");
            !table(&text, "lints").contains(&"workspace = true".to_string())
        })
        .collect();
    assert!(
        missing.is_empty(),
        "no `[lints] workspace = true` in {missing:?}"
    );

    let root = std::fs::read_to_string(&all[0]).expect("root manifest");
    assert_eq!(
        table(&root, "workspace.lints.rust"),
        ["unsafe_code = \"forbid\""]
    );
    assert_eq!(
        table(&root, "workspace.lints.clippy"),
        ["unwrap_used = \"warn\""]
    );
}
