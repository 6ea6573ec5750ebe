//! Cycle-accurate NoC simulator substrate.
//!
//! This crate is the reproduction's stand-in for gem5's Garnet 2.0: a
//! cycle-driven mesh network with 1-cycle routers, credit-based virtual
//! cut-through flow control, a single packet per VC and 5-flit buffers
//! (Table II of the FastPass paper). Flow-control *schemes* — FastPass
//! itself and the seven baselines — plug in through the [`Scheme`] trait
//! and drive the shared per-cycle machinery in [`regular`].
//!
//! # Architecture
//!
//! * [`vc`] — the virtual-channel occupant record. Because at most one
//!   packet occupies a VC, flit positions are tracked with counters
//!   rather than per-flit objects, while remaining flit-accurate in time.
//! * [`arena`] — flat struct-of-arrays storage for every VC buffer in
//!   the network, with word-level occupancy masks; the hot loops operate
//!   on these words directly.
//! * [`router`] — per-router state: arbitration pointers and the
//!   ejection stream.
//! * [`ni`] — network interfaces: per-class injection/ejection queues,
//!   the open-loop source queue, and MSHR-based regeneration of dropped
//!   requests.
//! * [`network`] — [`NetworkCore`], owning routers, NIs and the packet
//!   store, plus the staged flit-move machinery that keeps movement to
//!   one hop per cycle.
//! * [`routing`] — routing policies: XY, YX, west-first, fully adaptive,
//!   and Duato-style escape-VC routing.
//! * [`regular`] — the shared credit-based pipeline: ejection, switch
//!   allocation, injection, and staged-arrival application.
//! * [`waitgraph`] — wait-for-graph construction as a
//!   `noc_core::graph::Digraph` plus SPIN's rotation (used by SPIN, by
//!   `noc-check`'s wedge diagnosis and by deadlock tests).
//! * [`engine`] — the [`engine::Simulation`] driver,
//!   workloads and warmup/measurement windows.
//! * [`audit`] — deep structural invariant checks over the whole
//!   network state (used at test checkpoints and when developing new
//!   schemes).
//!
//! Schemes in downstream crates (FastPass, the baselines) are built
//! exclusively on the public API of this crate — they are clients of the
//! substrate exactly as a gem5 scheme is a client of Garnet.

#![warn(missing_docs)]

pub mod arbiter;
pub mod arena;
pub mod audit;
pub mod engine;
pub mod network;
pub mod ni;
pub mod probe;
pub mod regular;
pub mod router;
pub mod routing;
pub mod sampler;
pub mod scheme;
pub mod vc;
pub mod waitgraph;

pub use arena::{InputMut, InputRef, VcArena};
pub use engine::{run_windows_batched, Simulation, Workload};
pub use network::{LinkSet, NetworkCore};
pub use probe::{Phase, PhaseProbe};
pub use sampler::{Sampler, SamplerConfig, WindowSample};
pub use scheme::{ExportItem, Scheme, StateExport};
