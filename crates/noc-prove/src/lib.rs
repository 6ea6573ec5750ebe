//! Static deadlock-freedom certification for the FastPass NoC suite.
//!
//! `noc-check` (the bounded model checker) proves deadlock freedom
//! *dynamically* but is honestly limited to 2×2/3×3 meshes. This crate
//! proves it *statically* — Dally/Duato-style channel-dependency-graph
//! analysis over the exact route sets the simulator executes
//! ([`noc_sim::routing::introspect`]) — at any mesh size and for
//! arbitrary fault-degraded topologies, emitting machine-readable JSON
//! [certificates](certificate::Certificate) that CI archives and the
//! sweep infrastructure consults before simulating a configuration.
//!
//! [`model`] builds the CDG: `(link, VC)` channels, route continuation
//! edges from the introspected routing functions, and consumer-backlog
//! protocol-coupling edges. The graph is the workspace's one
//! [`Digraph`](noc_core::graph::Digraph), so the cycle search (with
//! concrete cycle extraction, the payload of a failure certificate) is
//! the same DFS that SPIN and `noc-check` run on the wait-for graph.
//!
//! [`prove::certify`] dispatches the scheme-specific obligations (see
//! that module's proof taxonomy), and [`configs`] defines the certified
//! suite: the figure matrix, the scheme catalogue's verification points
//! (the rows `noc-check` explores), 16×16/32×32 big points, seeded fault
//! configs and the planted soundness gate. Schemes, their VN/VC
//! structure, parameters and routing disciplines all come from
//! `noc-schemes`; nothing here restates them.
//!
//! # Example
//!
//! ```
//! use noc_prove::{configs, prove};
//!
//! let cert = prove::certify(&configs::planted());
//! assert_eq!(cert.verdict, "cycle-found");
//! assert!(!cert.cycle.is_empty(), "failure certificates carry the path");
//!
//! let cert = prove::certify(&configs::by_name("vct-xy6-2x2").unwrap());
//! assert!(cert.certified());
//! ```

#![warn(missing_docs)]

pub mod certificate;
pub mod configs;
pub mod model;
pub mod prove;

pub use certificate::Certificate;
pub use configs::ProveConfig;
pub use prove::certify;
