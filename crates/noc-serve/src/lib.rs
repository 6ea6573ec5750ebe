//! `noc-serve` — the sweep library and the persistent sweep service
//! built on it.
//!
//! This crate owns everything between "a sweep spec" and "a stored
//! point", once: the spec → key → point path ([`runner`]:
//! [`point_cache_key`], [`simulate_point`]), the content-addressed
//! result [`store`], the wire format ([`proto`]) with both of its ends
//! ([`client`], [`server`]) — and the two executors over that one point
//! path: [`run_sweep_parallel`] in-process, and the [`Daemon`] behind a
//! Unix socket. The scheme catalogue with Table II's per-scheme
//! configurations sits one layer *down* (`noc-schemes`, re-exported as
//! [`registry`]), shared with the verifiers. The figure harness
//! (`crates/bench`) and the facade sit *above* this crate; the
//! verifiers and the power model are not beneath it, so `nocserve`
//! links none of them.
//!
//! The daemon accepts sweep jobs as newline-delimited JSON, shards
//! points across a worker pool, and deduplicates identical in-flight
//! points across concurrent clients so every point is simulated
//! **exactly once** no matter how many jobs ask for it. Three layers
//! answer a point lookup, cheapest first:
//!
//! 1. the in-memory results map (points resolved this daemon lifetime);
//! 2. the on-disk store — survives restarts, shared with batch runs;
//! 3. the worker pool — each worker calls [`simulate_point`], the
//!    in-process executor's own point function, so daemon-computed
//!    points are bitwise identical to batch-computed ones by
//!    construction. The `serve` CI job diffs the resulting JSON
//!    artifacts as the end-to-end check.
//!
//! Service module map: [`core`] is the engine (state machine, worker
//! pool, dedup registry); [`server`] the transport (accept loop,
//! per-connection protocol handler); [`metrics`] the metrics registry
//! (counters folded from flight events, histograms, utilization);
//! [`flight`] the flight recorder (JSONL lifecycle log, live `watch`
//! fan-out, Perfetto export); [`statsd`] the buffered telemetry sink
//! the registry drains into (statsd-format lines appended to a file).
//! The `nocserve` binary boots the engine behind the transport;
//! `nocctl` is the operator CLI
//! (ping/metrics/watch/flight/fetch/evict/gc/shutdown).
//!
//! Unlike the simulation crates, this crate *intentionally* uses wall
//! clocks, threads and OS sockets — it is a service, not a model.
//! `noc-lint` scopes its determinism rules to the sim crates and lists
//! `noc-serve` in its service-crate whitelist; nothing here may leak
//! into simulation results beyond [`simulate_point`].

#![warn(missing_docs)]

pub mod client;
pub mod core;
pub mod flight;
pub mod metrics;
pub mod proto;
pub mod runner;
pub mod server;
pub mod statsd;
pub mod store;

/// The scheme catalogue, one layer down (`noc-schemes`), at the path
/// the sweep library has always exported it under.
pub use noc_schemes as registry;

pub use crate::core::{Daemon, JobProgress, ServeConfig};
pub use flight::{check_daemon_trace, chrome_trace, load_flight, validate_chains, FlightBus};
pub use metrics::{Counter, Histogram, MetricsRegistry};
pub use proto::{
    FlightEvent, FlightRecord, FlightStats, HistogramSummary, MetricValue, MetricsReport,
    Resolution, WireSpec, WorkerReport, PROTO_VERSION,
};
pub use registry::{SchemeId, ALL_SCHEMES};
pub use runner::{
    env_u64, netstats_fnv64, num_jobs, parallel_map, parallel_map_with, point_cache_key,
    run_sweep_parallel, simulate_point, LatencyPoint, SpecKey, SweepOptions, SweepResult,
    SweepSpec, CACHE_SCHEMA_VERSION,
};
pub use server::serve;
pub use statsd::StatsdSink;
pub use store::{format_key, git_sha, GcReport, Provenance, Store, StoreStats};
