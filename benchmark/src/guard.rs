//! Build-parity and environment guard: measurements come from a release
//! build whose profile matches the root workspace's, and every output
//! file says what produced it.

use serde::Content;
use std::path::{Path, PathBuf};

/// The benchmark package directory: where `cargo run` says the manifest
/// is, else where it was when the binary was built.
pub fn package_dir() -> PathBuf {
    std::env::var_os("CARGO_MANIFEST_DIR")
        .map_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")), PathBuf::from)
}

/// `dir` relative to the current directory when it lies below it: Unix
/// socket paths are limited to about a hundred bytes, and a checkout can
/// sit arbitrarily deep.
pub fn relative_to_cwd(dir: &Path) -> PathBuf {
    std::env::current_dir()
        .ok()
        .and_then(|cwd| dir.strip_prefix(cwd).ok().map(Path::to_path_buf))
        .filter(|rel| !rel.as_os_str().is_empty())
        .unwrap_or_else(|| dir.to_path_buf())
}

/// The `key = value` lines of a manifest's `[profile.release]` table,
/// whitespace-normalised and sorted. Comments and blank lines are not
/// settings.
pub fn release_profile(manifest: &str) -> Vec<String> {
    let mut inside = false;
    let mut out = Vec::new();
    for line in manifest.lines() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.starts_with('[') {
            inside = line == "[profile.release]";
        } else if inside && !line.is_empty() {
            out.push(line.split_whitespace().collect::<String>());
        }
    }
    out.sort();
    out
}

/// Refuses to measure from a debug build or with a release profile that
/// differs from the root workspace's.
///
/// # Errors
///
/// What differs, as a message for the user.
pub fn check_build(package: &Path) -> Result<(), String> {
    if cfg!(debug_assertions) {
        return Err(
            "debug build: measure with `cargo run --release` (only --tiny runs in debug)".into(),
        );
    }
    let read =
        |p: PathBuf| std::fs::read_to_string(&p).map_err(|e| format!("{}: {e}", p.display()));
    let mine = release_profile(&read(package.join("Cargo.toml"))?);
    let root = release_profile(&read(package.join("../Cargo.toml"))?);
    if mine != root {
        return Err(format!(
            "[profile.release] differs: benchmark/Cargo.toml has {mine:?}, the root Cargo.toml has {root:?}"
        ));
    }
    Ok(())
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// What produced a result: commit, compiler, cores, build kind.
pub fn stamp() -> Vec<(String, Content)> {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    vec![
        ("git_sha".into(), Content::Str(bench::git_sha())),
        ("rustc".into(), Content::Str(command_line("rustc", &["-V"]))),
        ("nproc".into(), Content::U128(cores as u128)),
        (
            "build".into(),
            Content::Str(
                if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }
                .into(),
            ),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_parser_ignores_comments_and_other_tables() {
        let a = "[package]\nname = \"x\"\n[profile.release]\n# why\ndebug = true\nlto = \"fat\" # c\n\n[profile.bench]\ndebug = true\n";
        let b = "[profile.release]\nlto=\"fat\"\ndebug   =   true\n";
        assert_eq!(release_profile(a), release_profile(b));
        assert_eq!(release_profile(a).len(), 2);
        assert_ne!(
            release_profile(a),
            release_profile("[profile.release]\nlto = \"thin\"\n")
        );
    }

    #[test]
    fn benchmark_and_root_profiles_agree() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"));
        let mine = std::fs::read_to_string(dir.join("Cargo.toml")).expect("own manifest");
        let root = std::fs::read_to_string(dir.join("../Cargo.toml")).expect("root manifest");
        assert_eq!(release_profile(&mine), release_profile(&root));
        assert!(!release_profile(&mine).is_empty());
    }
}
