//! `nocserve` — the persistent sweep service.
//!
//! The figure binaries historically ran every sweep in-process, each
//! invocation paying cold-start simulation for points another run had
//! already computed (shared only through the `FP_CACHE` blob
//! directory). This crate turns that cache into a *service*: one
//! daemon owns the content-addressed result store
//! ([`bench::store::Store`]), accepts sweep jobs over a Unix socket
//! (newline-delimited JSON, [`bench::proto`]), shards points across a
//! worker pool, and deduplicates identical in-flight points across
//! concurrent clients so every point is simulated **exactly once** no
//! matter how many jobs ask for it.
//!
//! Three layers answer a point lookup, cheapest first:
//!
//! 1. the in-memory results map (points resolved this daemon lifetime);
//! 2. the on-disk store — survives restarts, shared with batch runs;
//! 3. the worker pool — each worker calls
//!    [`bench::runner::simulate_point`], the batch executor's own
//!    point function, so daemon-computed points are bitwise identical
//!    to batch-computed ones by construction. The `serve` CI job diffs
//!    the resulting JSON artifacts as the end-to-end check.
//!
//! Module map: [`core`] is the engine (state machine, worker pool,
//! dedup registry); [`server`] the transport (accept loop,
//! per-connection protocol handler); [`metrics`] the lock-free metrics
//! registry (counters, gauges, histograms, worker utilization);
//! [`flight`] the flight recorder (JSONL lifecycle log, live `watch`
//! fan-out, Perfetto export); [`statsd`] the buffered telemetry sink
//! the registry drains into (statsd-format lines over a file or UDP).
//! The `nocserve` binary boots the engine behind the transport;
//! `nocctl` is the operator CLI
//! (ping/status/metrics/watch/flight/fetch/evict/gc/shutdown).
//!
//! Unlike the simulation crates, this crate *intentionally* uses wall
//! clocks, threads and OS sockets — it is a service, not a model.
//! `noc-lint` scopes its determinism rules to the sim crates and lists
//! `noc-serve` in its service-crate whitelist; nothing here may leak
//! into simulation results beyond the [`bench`] entry points above.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod core;
pub mod flight;
pub mod metrics;
pub mod server;
pub mod statsd;

pub use crate::core::{Daemon, JobProgress, ServeConfig};
pub use flight::{check_daemon_trace, chrome_trace, load_flight, validate_chains, FlightBus};
pub use metrics::{Counter, Histogram, MetricsRegistry};
pub use server::serve;
pub use statsd::StatsdSink;
