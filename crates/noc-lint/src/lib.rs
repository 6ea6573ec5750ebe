//! `noc-lint`: workspace static analysis for the FastPass NoC repo.
//!
//! The simulator's correctness claims rest on contracts of two kinds.
//! Those the compiler can hold, it holds: the arena's VC words are
//! private to `arena.rs` (rustc privacy), `unsafe` is forbidden and bare
//! `unwrap()` outside tests fails clippy (`[workspace.lints]`), and
//! `desired_ports` is a blanket impl no policy can override (E0119). The
//! rest are scoped by crate, function name or file, which no standard
//! lint can express; this crate enforces those mechanically, with
//! `file:line:col` diagnostics, on every CI run.
//!
//! Shipped rules (see [`rules::RULES`]):
//!
//! * `determinism` — no `HashMap`/`HashSet`, wall-clock time, or OS
//!   randomness in the simulator crates (their `#[cfg(test)]` code
//!   exempt; the service crate is not one of them);
//! * `hot-loop-alloc` — no allocation/`collect()`/`clone()` in
//!   `regular.rs` or in `advance`/`step`/`route`/`apply_staged` bodies;
//! * `routing-locality` — routing decisions (`RoutingPolicy` impls,
//!   `productive_dirs` use) only in the modules `noc-prove` introspects,
//!   so every live route is covered by the static deadlock-freedom
//!   certificates.
//!
//! A deliberate exception is annotated inline:
//!
//! ```text
//! let cold = epoch_table.clone(); // noc-lint: allow(hot-loop-alloc)
//! ```
//!
//! The directive suppresses exactly the named rule on its own line and
//! the line below it. Run the linter with `cargo run -p noc-lint --
//! --deny` (CI does) or without `--deny` for advisory output.
//!
//! The crate is dependency-free by design — a hand-rolled [`lexer`], not
//! `syn` — so it builds in well under a second and can never be broken
//! by the code it checks.

#![warn(missing_docs)]

pub mod diag;
pub mod lexer;
pub mod rules;
pub mod structure;

pub use diag::{to_json, Diagnostic};
pub use rules::{lint_source, RULES};

use std::path::{Path, PathBuf};

/// Directories never descended into: build output, VCS metadata,
/// vendored dependency shims (third-party API surface, not simulator
/// code) and lint-test fixtures (which contain violations on purpose).
const SKIP_DIRS: &[&str] = &[
    "target",
    ".git",
    "shims",
    "fixtures",
    "results",
    "node_modules",
];

/// Lints every `.rs` file under `root` (a workspace checkout), returning
/// diagnostics sorted by path, line and column.
///
/// # Errors
///
/// Returns any I/O error from walking the tree or reading a file.
pub fn lint_workspace(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut diags = Vec::new();
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let rel_str = rel
            .to_string_lossy()
            .replace(std::path::MAIN_SEPARATOR, "/");
        diags.extend(rules::lint_source(&rel_str, &src));
    }
    Ok(diags)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walker_skips_shims_and_fixtures() {
        // The real workspace root is two levels up from this crate.
        let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
        let mut files = Vec::new();
        collect_rs_files(&root, &root, &mut files).expect("walk workspace");
        assert!(
            files
                .iter()
                .any(|f| f.ends_with("crates/noc-sim/src/regular.rs")),
            "must see simulator sources"
        );
        assert!(
            !files.iter().any(|f| f.to_string_lossy().contains("shims/")),
            "must not descend into vendored shims"
        );
        assert!(
            !files
                .iter()
                .any(|f| f.to_string_lossy().contains("fixtures/")),
            "must not lint its own fixtures"
        );
    }
}
