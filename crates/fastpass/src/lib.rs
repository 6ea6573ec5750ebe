//! FastPass: TDM bufferless multi-packet bypassing with 0 virtual
//! networks (HPCA 2022).
//!
//! This crate is the paper's primary contribution, implemented on the
//! [`noc_sim`] substrate:
//!
//! * [`schedule`] — recurring TDM slots, phases and the prime-router
//!   rotation (§III-C1, Qn5);
//! * [`lane`] — XY outbound / YX returning lane construction and the
//!   static non-overlap verifier (§III-E, Fig. 4);
//! * [`flight`] — bufferless FastPass-Packet transit: sliding link
//!   windows and lookahead suppression (§III-C5);
//! * [`scheme`] — the complete [`FastPass`] flow control: prime scanning
//!   (request injection queue first, §Qn2), the dynamic bubble with
//!   ejection-queue reservation and injection-request dropping
//!   (§III-C4), and the per-cycle collision assertion;
//! * [`irregular`] — partition derivation for arbitrary topologies via
//!   holistic-path segmentation (§III-F).
//!
//! The correctness lemmas of §III-D are encoded as runtime assertions
//! and tests: lane collision freedom is asserted every cycle, slot
//! boundaries assert that no flight is in the air, and the integration
//! suite (`tests/deadlock.rs` at the workspace root) constructs protocol-
//! and network-level deadlocks and shows FastPass resolving them with 0
//! VNs.
//!
//! # Example
//!
//! ```
//! use fastpass::{FastPass, FastPassConfig};
//! use noc_core::config::SimConfig;
//! use noc_sim::Simulation;
//! use traffic::{SyntheticPattern, SyntheticWorkload};
//!
//! let cfg = SimConfig::builder().mesh(4, 4).vns(0).vcs_per_vn(2).build();
//! let scheme = FastPass::new(&cfg, FastPassConfig::default());
//! let workload = SyntheticWorkload::new(SyntheticPattern::Uniform, 0.05, 7);
//! let mut sim = Simulation::new(cfg, Box::new(scheme), Box::new(workload));
//! let stats = sim.run_windows(1_000, 2_000);
//! assert!(stats.delivered() > 0);
//! ```

pub mod flight;
pub mod irregular;
pub mod lane;
pub mod schedule;
pub mod scheme;

pub use flight::{Flight, FlightState};
pub use schedule::TdmSchedule;
pub use scheme::{FastPass, FastPassConfig, FpCounters};
