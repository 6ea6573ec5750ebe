//! Fundamental types for the FastPass NoC reproduction.
//!
//! This crate holds everything that both the simulator substrate
//! (`noc-sim`) and the flow-control schemes (FastPass and the baselines)
//! agree on: the [mesh topology](topology), [packets and message
//! classes](packet), the [simulation configuration](config) mirroring
//! Table II of the paper, deterministic [randomness](rng), seeded
//! [fault configurations](fault) for degraded-topology studies, the one
//! [directed graph](graph) every cycle and connectivity search runs on,
//! and [statistics](stats) collection (latency distributions,
//! throughput, packet-type breakdowns).
//!
//! # Example
//!
//! ```
//! use noc_core::topology::{Mesh, Direction};
//!
//! let mesh = Mesh::new(8, 8);
//! let a = mesh.node(3, 4);
//! let b = mesh.neighbor(a, Direction::East).unwrap();
//! assert_eq!(mesh.x(b), 4);
//! assert_eq!(mesh.hops(a, b), 1);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod fault;
pub mod graph;
pub mod packet;
pub mod rng;
pub mod stats;
pub mod topology;

pub use config::SimConfig;
pub use fault::FaultConfig;
pub use packet::{MessageClass, Packet, PacketId, PacketStore};
pub use rng::DetRng;
pub use stats::NetStats;
pub use topology::{Direction, LinkId, Mesh, NodeId, Port};
