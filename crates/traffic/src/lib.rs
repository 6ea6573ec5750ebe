//! Workload substrate: the reproduction's stand-in for gem5 + Ruby.
//!
//! Three families of workloads drive the simulator:
//!
//! * [`synthetic`] — open-loop synthetic patterns (Uniform, Transpose,
//!   Shuffle, Bit-rotation, …) with the paper's mix of 1-flit and 5-flit
//!   packets (Table II). These drive Figs. 7, 8, 9 and 13a.
//! * [`protocol`] — a closed-loop coherence-transaction model with finite
//!   MSHRs and message-class dependences (requests are only consumed
//!   while responses can be issued), reproducing the protocol-deadlock
//!   structure of §II without a full MOESI implementation.
//! * [`apps`] — per-application parameterizations of the protocol model
//!   standing in for the PARSEC/SPLASH-2 traces of Figs. 10, 12 and 13b.

#![warn(missing_docs)]

pub mod apps;
pub mod protocol;
pub mod synthetic;

pub use apps::AppModel;
pub use protocol::ProtocolWorkload;
pub use synthetic::{check_rate, SyntheticPattern, SyntheticWorkload};
