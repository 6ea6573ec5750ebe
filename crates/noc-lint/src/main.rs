//! The `noc-lint` binary: lints the workspace and reports violations.
//!
//! ```text
//! cargo run -p noc-lint             # advisory: print findings, exit 0
//! cargo run -p noc-lint -- --deny   # CI gate: exit 1 on any finding
//! cargo run -p noc-lint -- --json   # machine-readable output
//! cargo run -p noc-lint -- --root <dir>   # lint another checkout
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut deny = false;
    let mut json = false;
    let mut root = PathBuf::from(".");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--deny" => deny = true,
            "--json" => json = true,
            "--root" => match args.next() {
                Some(r) => root = PathBuf::from(r),
                None => {
                    eprintln!("noc-lint: --root requires a directory argument");
                    return ExitCode::from(2);
                }
            },
            "--rules" => {
                for (id, desc) in noc_lint::RULES {
                    println!("{id}: {desc}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!(
                    "noc-lint: enforce the workspace's determinism, hot-loop and \
                     routing-locality contracts\n\n\
                     USAGE: noc-lint [--deny] [--json] [--root <dir>] [--rules]\n\n\
                     --deny    exit 1 if any diagnostic is produced (CI mode)\n\
                     --json    emit diagnostics as a JSON array\n\
                     --root    workspace root to lint (default: current directory)\n\
                     --rules   list the shipped rules and exit\n\n\
                     Suppress a deliberate exception inline with\n\
                     `// noc-lint: allow(<rule>)` on or above the offending line."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("noc-lint: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    if !root.join("Cargo.toml").exists() {
        eprintln!(
            "noc-lint: {} does not look like a workspace root (no Cargo.toml); \
             run from the repo root or pass --root",
            root.display()
        );
        return ExitCode::from(2);
    }

    let diags = match noc_lint::lint_workspace(&root) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("noc-lint: I/O error while walking {}: {e}", root.display());
            return ExitCode::from(2);
        }
    };

    if json {
        print!("{}", noc_lint::to_json(&diags));
    } else {
        for d in &diags {
            println!("{d}");
        }
        if diags.is_empty() {
            eprintln!("noc-lint: clean ({} rules)", noc_lint::RULES.len());
        } else {
            eprintln!("noc-lint: {} violation(s)", diags.len());
        }
    }

    if deny && !diags.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
