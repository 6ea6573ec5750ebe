//! Baseline NoC schemes the paper compares FastPass against (Table II).
//!
//! Each baseline is a functional reimplementation of the mechanism that
//! drives its performance in the paper's figures:
//!
//! * [`vct`] — plain credit-based VCT with a fixed routing policy
//!   (building block and sanity baseline);
//! * [`escape_vc`] — Duato escape VCs \[8\]: deterministic escape channel
//!   + fully-adaptive remainder, 6 VNs;
//! * [`tfc`] — Token Flow Control \[19\]: west-first routing with
//!   region-broadcast buffer-availability tokens, 6 VNs;
//! * [`spin`] — SPIN \[31\]: timeout-based deadlock detection probes and
//!   synchronized spins of dependency cycles, 6 VNs;
//! * [`swap`] — SWAP \[26\]: periodic swapping of a long-blocked packet
//!   with the downstream packet it waits on (misrouting), 6 VNs;
//! * [`drain`] — DRAIN \[24\]: periodic coordinated circulation of all
//!   buffered packets along a Hamiltonian ring, 6 VNs;
//! * [`pitstop`] — Pitstop \[13\]: NI pit-lane absorption of one message
//!   class at a time, 0 VNs;
//! * [`minbd`] — MinBD \[12\]: flit-level minimally-buffered deflection
//!   routing with a side buffer and destination reassembly.

#![warn(missing_docs)]

pub mod drain;
pub mod escape_vc;
pub mod minbd;
pub mod pitstop;
pub mod spin;
pub mod swap;
pub mod tfc;
pub mod vct;

pub use drain::Drain;
pub use escape_vc::EscapeVc;
pub use minbd::MinBd;
pub use pitstop::Pitstop;
pub use spin::Spin;
pub use swap::Swap;
pub use tfc::Tfc;
pub use vct::CreditVct;
