//! `noc-check` — a bounded model checker for deadlock freedom.
//!
//! The simulator's dynamic tests sample schedules; this crate *searches*
//! them. Over deliberately small configurations (2×2 and 3×3 meshes, one
//! or two VCs, a handful of scripted packets) it explores every
//! injection/arbitration/TDM-phase interleaving the adversary can
//! express, checks the paper's invariants at every reached state, and
//! drains every fully-injected frontier state to verify the network
//! always delivers.
//!
//! The pipeline, one module per stage:
//!
//! * [`script`] — the adversary-controlled workload: a finite job list
//!   injected exactly when the explorer decides, with a deterministic
//!   replica of the protocol-backlog deadlock mechanism.
//! * [`canon`] — the state abstraction: packed occupant/queue/overlay
//!   words, packet-to-job renaming, saturated relative ages, FNV-1a
//!   digest.
//! * [`explore`] — one heap-stacked DFS over cloned simulation states
//!   that expands each canonical state once, with per-state invariant
//!   audits and the drain wedge-oracle.
//! * [`replay`] — bitwise counterexample confirmation through a fresh
//!   traced simulation, producing a Perfetto-loadable artifact.
//! * [`configs`] — the search bounds and job sets of the named
//!   verification matrices, over the points of the scheme catalogue
//!   (`noc-schemes`) that the static certifier shares.
//! * [`report`] — the serialized run summary CI uploads.
//!
//! Soundness posture: abstractions (hashing, age saturation, hidden
//! scheme RNG) can only *merge* states and therefore miss schedules —
//! they can never fabricate a counterexample, because every reported
//! wedge is replayed concretely before it is believed. The planted
//! configuration ([`configs::planted`]) keeps the other direction
//! honest: a checker that stops finding the known wedge fails CI.

#![warn(missing_docs)]

pub mod canon;
pub mod configs;
pub mod explore;
pub mod replay;
pub mod report;
pub mod script;

pub use canon::{canon_hash, CanonParams};
pub use explore::{check, CheckConfig, CheckReport, Counterexample, Decision, Verdict, WedgeKind};
pub use replay::{replay, ReplayResult};
pub use script::{JobSpec, ScriptCtl, ScriptedWorkload};
