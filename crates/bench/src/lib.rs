//! Experiment harness regenerating every table and figure of the paper.
//!
//! The `fig` binary (`src/bin/fig/`) reproduces the artifacts of the
//! evaluation section, `fig <name>` each; this library holds what is
//! about *figures*: the `--serve` dispatch ([`serve_client`]:
//! [`ExecMode`], [`run_sweeps`]), the trace/telemetry/phase-time exporters
//! ([`trace_out`], [`telemetry`], [`phases`]) and plain-text emitters.
//! The sweep library itself — the one point path ([`simulate_point`])
//! with its sweep runners, the result store, the wire protocol and its
//! client — lives one layer down in `noc-serve`, shared with the
//! `nocserve` daemon, and the scheme catalogue with Table II's
//! configurations one further down in `noc-schemes`, shared with the
//! verifiers; both are re-exported here at their historical paths
//! (`bench::runner`, `bench::registry`, `bench::SchemeId`, …). It measures the *paper*, not
//! itself: simulator performance is the repo benchmark's job
//! (`benchmark/README.md`). Binaries honour these environment variables
//! so quick runs and full runs use the same code:
//!
//! * `FP_WARMUP` / `FP_MEASURE` — cycles per window, and `FP_SIZE` — mesh
//!   edge (defaults per figure);
//! * `FP_OUT` — directory for JSON results (default `results/`);
//! * `NOC_JOBS` — worker threads for parallel sweeps (default: available
//!   cores);
//! * `FP_CACHE` — completed-point cache directory (default
//!   `results/cache/`; set to `off` to disable);
//! * `FP_TRACE_OUT` — directory for traced-run artifacts (default
//!   `trace/`; used by `smoke --trace`);
//! * `NOC_SERVE` — socket of a running `nocserve` daemon; routes sweeps
//!   through it instead of the in-process executor (same as passing
//!   `--serve` to `smoke` or `fig` — see [`serve_client`]).

#![warn(missing_docs)]

pub mod phases;
pub mod serve_client;
pub mod telemetry;
pub mod trace_out;

use std::path::PathBuf;

// The sweep library lives one layer down, in `noc-serve`; these keep
// every moved module and name resolving at its historical path.
pub use noc_serve::{proto, registry, runner, store};

pub use noc_serve::{
    env_u64, format_key, git_sha, netstats_fnv64, num_jobs, parallel_map, parallel_map_with,
    point_cache_key, run_sweep_parallel, simulate_point, FlightRecord, FlightStats, GcReport,
    HistogramSummary, LatencyPoint, MetricValue, MetricsReport, Provenance, SchemeId, Store,
    StoreStats, SweepOptions, SweepResult, SweepSpec, WireSpec, WorkerReport, ALL_SCHEMES,
    CACHE_SCHEMA_VERSION, PROTO_VERSION,
};
pub use phases::{PhaseTimes, WallProbe};
pub use serve_client::{run_sweeps, Client, ExecMode};
pub use telemetry::{series_summary, sparkline, windows_json};
pub use trace_out::{
    check_chrome_trace, check_chrome_trace_full, run_traced_point, trace_out_dir, TraceCheckSummary,
};

/// Writes a serializable result into `$FP_OUT/<name>.json` (default
/// `results/`), creating the directory as needed. Returns the path.
///
/// # Errors
///
/// Propagates filesystem errors creating the directory or writing the
/// file, and a serialization failure.
pub fn emit_json<T: serde::Serialize>(name: &str, value: &T) -> std::io::Result<PathBuf> {
    let dir = std::env::var("FP_OUT").unwrap_or_else(|_| "results".to_string());
    std::fs::create_dir_all(&dir)?;
    let path = PathBuf::from(dir).join(format!("{name}.json"));
    std::fs::write(&path, serde_json::to_string_pretty(value)?)?;
    Ok(path)
}
