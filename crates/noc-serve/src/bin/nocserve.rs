//! The sweep-service daemon.
//!
//! ```text
//! nocserve [--sock PATH] [--store DIR] [--jobs N]
//!          [--statsd PATH] [--flight PATH] [--tick-ms N]
//! ```
//!
//! Flags override the defaults [`ServeConfig::from_env`] takes from the
//! names the daemon shares with clients and batch runs (`NOC_SERVE`
//! for the socket, `FP_CACHE` for the store, `NOC_JOBS`). `--statsd`
//! takes a file path; `--flight` names the JSONL lifecycle log `nocctl
//! flight` consumes; `--tick-ms` sets the sampler period (default 500).
//! Runs in the foreground until a client sends `shutdown`; drive it
//! with `nocctl` or any figure binary's `--serve` mode.

use noc_serve::{serve, ServeConfig};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: nocserve [--sock PATH] [--store DIR] [--jobs N] [--statsd PATH] [--flight PATH] [--tick-ms N]";

fn main() -> ExitCode {
    let mut config = ServeConfig::from_env();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let outcome = match arg.as_str() {
            "--sock" => value("--sock").map(|v| config.socket = PathBuf::from(v)),
            "--store" => value("--store").map(|v| config.store_dir = PathBuf::from(v)),
            "--statsd" => value("--statsd").map(|v| config.statsd = Some(v)),
            "--flight" => value("--flight").map(|v| config.flight = Some(PathBuf::from(v))),
            "--tick-ms" => value("--tick-ms").and_then(|v| {
                v.parse()
                    .ok()
                    .filter(|&n| n > 0)
                    .map(|n| config.tick_ms = n)
                    .ok_or_else(|| format!("--tick-ms wants a positive number, got `{v}`"))
            }),
            "--jobs" => value("--jobs").and_then(|v| {
                v.parse()
                    .map(|n| config.workers = n)
                    .map_err(|_| format!("--jobs wants a number, got `{v}`"))
            }),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag `{other}`\n{USAGE}")),
        };
        if let Err(message) = outcome {
            eprintln!("error: {message}");
            return ExitCode::from(2);
        }
    }
    match serve(&config) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: cannot serve on {}: {e}", config.socket.display());
            ExitCode::FAILURE
        }
    }
}
