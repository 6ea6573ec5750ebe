//! Analytical router area & power model (the Fig. 11 substitute).
//!
//! The paper reports post place-and-route area and static power of each
//! scheme's router in TSMC 28 nm at 1 GHz. Re-running P&R is out of
//! scope; what Fig. 11 communicates is *where the silicon goes* — input
//! buffering scales with `VNs × VCs × depth` and dominates VN-based
//! routers, the crossbar and NI queues are common to every scheme, and
//! per-scheme control logic is small (SPIN's detection circuit being the
//! largest at ~6% of an EscapeVC router).
//!
//! This crate models exactly those proportions with per-component
//! constants calibrated to the figure's 28 nm magnitudes, so the
//! reproduction preserves the paper's claims: FastPass ≈ Pitstop, both
//! roughly 40–55% below the 6-VN baselines, with FastPass overhead ~4%
//! of its own router.

pub mod model;
pub mod report;

pub use model::{router_area, router_power, AreaBreakdown, PowerBreakdown, RouterParams};
pub use report::{fig11_configs, Fig11Row};
