//! The `--serve` dispatch used by the figure harness.
//!
//! The rate-sweep figures call [`run_sweeps`], which routes a spec list
//! either through the in-process executor ([`run_sweep_parallel`]) or —
//! when `--serve[=SOCKET]` is on the command line or `NOC_SERVE` is set
//! — through a running daemon via [`noc_serve::client::Client`]
//! (re-exported here at its historical path). Both paths return the
//! same [`SweepResult`]s: the daemon computes points with the same
//! `simulate_point` and the same cache keys, so the emitted JSON
//! artifacts are bitwise identical (the `serve` CI job diffs them).

pub use noc_serve::client::{default_socket, Client, SubmitReceipt, SOCK_ENV};
use noc_serve::runner::{run_sweep_parallel, SweepOptions, SweepResult, SweepSpec};
use std::path::PathBuf;

/// How a binary should execute its sweeps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ExecMode {
    /// In-process batch executor (the default).
    Batch,
    /// Submit to the daemon at this socket.
    Serve(PathBuf),
}

impl ExecMode {
    /// Resolves the execution mode from a binary's argument list and the
    /// value of [`SOCK_ENV`]: `--serve` / `--serve=SOCKET` wins, then a
    /// non-empty `env_sock`, else batch. `--serve` without a path uses
    /// `env_sock` or the default socket. Pure — the environment is
    /// passed in, so it is testable without mutating process state.
    fn from_parts<S: AsRef<str>>(args: &[S], env_sock: Option<&str>) -> ExecMode {
        let env_sock = env_sock.filter(|s| !s.is_empty());
        for arg in args {
            let arg = arg.as_ref();
            if arg == "--serve" {
                return ExecMode::Serve(env_sock.map_or_else(default_socket, PathBuf::from));
            }
            if let Some(path) = arg.strip_prefix("--serve=") {
                return ExecMode::Serve(PathBuf::from(path));
            }
        }
        match env_sock {
            Some(sock) => ExecMode::Serve(PathBuf::from(sock)),
            None => ExecMode::Batch,
        }
    }

    /// Resolves from [`std::env::args`] and [`SOCK_ENV`].
    pub fn from_env() -> ExecMode {
        let args: Vec<String> = std::env::args().skip(1).collect();
        ExecMode::from_parts(&args, std::env::var(SOCK_ENV).ok().as_deref())
    }
}

/// The figures' sweep entry point: batch by default, daemon when
/// `--serve` / `NOC_SERVE` asks for it ([`ExecMode::from_env`]). In
/// serve mode it prints progress to stderr the way the batch executor
/// logs per-point completion.
///
/// Serve mode is explicit opt-in, so an unreachable daemon is an error,
/// not a silent fallback — falling back would make the CI dedup and
/// equivalence assertions vacuous.
///
/// # Errors
///
/// The first spec [`SweepSpec::admit`] refuses, checked before either
/// executor sees any spec; in serve mode, connection and protocol
/// failures, as readable strings.
pub fn run_sweeps(specs: &[SweepSpec]) -> Result<Vec<SweepResult>, String> {
    for spec in specs {
        spec.admit()?;
    }
    let sock = match ExecMode::from_env() {
        ExecMode::Batch => return Ok(run_sweep_parallel(specs, &SweepOptions::from_env())),
        ExecMode::Serve(sock) => sock,
    };
    let mut client = Client::connect(&sock)
        .map_err(|e| format!("cannot reach nocserve at {}: {e}", sock.display()))?;
    let mut last = 0u64;
    let (receipt, sweeps) = client.submit(specs, |done, total| {
        if done != last {
            last = done;
            eprintln!("[serve] job {done}/{total} points");
        }
    })?;
    eprintln!(
        "[serve] job {}: {} points ({} computed, {} cached, {} deduped)",
        receipt.job, receipt.points, receipt.computed, receipt.cached, receipt.deduped
    );
    Ok(sweeps)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exec_mode_parses_serve_flags() {
        let empty: [&str; 0] = [];
        assert_eq!(ExecMode::from_parts(&empty, None), ExecMode::Batch);
        assert_eq!(
            ExecMode::from_parts(&["--trace", "foo"], None),
            ExecMode::Batch
        );
        assert_eq!(
            ExecMode::from_parts(&["--serve=/tmp/x.sock"], None),
            ExecMode::Serve(PathBuf::from("/tmp/x.sock"))
        );
        // Bare --serve: env socket wins, then the default.
        assert_eq!(
            ExecMode::from_parts(&["--serve"], Some("/tmp/env.sock")),
            ExecMode::Serve(PathBuf::from("/tmp/env.sock"))
        );
        assert_eq!(
            ExecMode::from_parts(&["--serve"], Some("")),
            ExecMode::Serve(default_socket())
        );
        assert_eq!(
            ExecMode::from_parts(&["--serve"], None),
            ExecMode::Serve(default_socket())
        );
        // Env alone flips the mode too (how CI drives unmodified argv).
        assert_eq!(
            ExecMode::from_parts(&empty, Some("/tmp/env.sock")),
            ExecMode::Serve(PathBuf::from("/tmp/env.sock"))
        );
        // Explicit flag beats env.
        assert_eq!(
            ExecMode::from_parts(&["--serve=/a"], Some("/b")),
            ExecMode::Serve(PathBuf::from("/a"))
        );
    }
}
