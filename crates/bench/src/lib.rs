//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `src/bin/figN.rs` / `tableN.rs` binary reproduces one artifact of
//! the evaluation section; this library holds what they share — the
//! scheme registry with Table II's per-scheme configurations, the one
//! point path ([`simulate_point`]) with its sweep runners, the result
//! store and wire protocol the `nocserve` daemon shares, trace/telemetry
//! exporters, and plain-text/JSON emitters. It measures the *paper*, not
//! itself: simulator performance is the repo benchmark's job
//! (`benchmark/README.md`). Binaries honour these environment variables
//! so quick runs and full runs use the same code:
//!
//! * `FP_WARMUP` / `FP_MEASURE` — cycles per window (defaults per binary);
//! * `FP_OUT` — directory for JSON results (default `results/`);
//! * `NOC_JOBS` — worker threads for parallel sweeps (default: available
//!   cores);
//! * `FP_CACHE` — completed-point cache directory (default
//!   `results/cache/`; set to `off` to disable);
//! * `FP_TRACE_OUT` — directory for traced-run artifacts (default
//!   `trace/`; used by `smoke --trace`);
//! * `NOC_SERVE` — socket of a running `nocserve` daemon; routes sweeps
//!   through it instead of the in-process executor (same as passing
//!   `--serve` to a sweep binary — see [`serve_client`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod phases;
pub mod proto;
pub mod registry;
pub mod runner;
pub mod serve_client;
pub mod store;
pub mod telemetry;
pub mod trace_out;

pub use phases::{PhaseTimes, WallProbe};
pub use proto::{
    FlightRecord, FlightStats, HistogramSummary, MetricValue, MetricsReport, StatusReport,
    WireSpec, WorkerReport, PROTO_VERSION,
};
pub use registry::{SchemeId, ALL_SCHEMES};
pub use runner::{
    emit_json, env_u64, num_jobs, parallel_map, parallel_map_with, point_cache_key,
    run_sweep_parallel, simulate_point, LatencyPoint, SweepOptions, SweepResult, SweepSpec,
    CACHE_SCHEMA_VERSION,
};
pub use serve_client::{run_sweeps, Client, ExecMode};
pub use store::{format_key, git_sha, GcReport, Provenance, Store, StoreStats};
pub use telemetry::{merge_counter_tracks, series_summary, sparkline, windows_json};
pub use trace_out::{
    check_chrome_trace, check_chrome_trace_full, run_traced_point, trace_out_dir, TraceCheckSummary,
};
