//! Facade crate for the FastPass NoC reproduction.
//!
//! Re-exports the public API of every workspace crate so that examples,
//! integration tests and downstream users need a single dependency:
//!
//! * [`core`] — topology, packets, configuration, statistics.
//! * [`sim`] — the cycle-accurate simulator substrate and engine.
//! * [`fastpass`] — the paper's contribution: TDM bufferless bypass lanes.
//! * [`baselines`] — EscapeVC, SPIN, SWAP, DRAIN, Pitstop, MinBD, TFC.
//! * [`schemes`] — the scheme catalogue: `SchemeId` (Table II
//!   configuration, constructor, routing discipline per scheme) and the
//!   verification points both verifiers read.
//! * [`traffic`] — synthetic patterns, protocol closed loop, app models.
//! * [`power`] — the analytical area/power model behind Fig. 11.
//! * [`trace`] — flit-level event tracing and per-router metrics.
//! * [`check`] — the bounded model checker over small configurations.
//! * [`prove`] — the static channel-dependency-graph deadlock certifier.
//! * [`serve`] — the sweep library and service: the one point path
//!   (`simulate_point`, `run_sweep_parallel`), the content-addressed
//!   result store, and the `nocserve`/`nocctl` daemon over them.
//!
//! # Quickstart
//!
//! See `examples/quickstart.rs` for a complete, runnable walk-through.

#![warn(missing_docs)]

pub use baselines;
pub use fastpass;
pub use noc_check as check;
pub use noc_core as core;
pub use noc_power as power;
pub use noc_prove as prove;
pub use noc_schemes as schemes;
pub use noc_serve as serve;
pub use noc_sim as sim;
pub use noc_trace as trace;
pub use traffic;
