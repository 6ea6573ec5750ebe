//! Per-component area/power model with 28 nm-calibrated constants.
//!
//! Which scheme's router is synthesized is a catalogue [`SchemeId`]: it
//! selects the overhead block.

use noc_core::config::SimConfig;
use noc_schemes::SchemeId;
use serde::{Deserialize, Serialize};

/// Router structural parameters feeding the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RouterParams {
    /// Virtual networks (0 = none).
    pub vns: usize,
    /// VCs per VN (or per port when `vns == 0`).
    pub vcs_per_vn: usize,
    /// Buffer depth per VC in flits.
    pub buffer_flits: usize,
    /// Router ports (5 for a mesh).
    pub ports: usize,
    /// Message classes (NI queues per side).
    pub classes: usize,
    /// NI queue depth per class, in flits.
    pub ni_queue_flits: usize,
    /// Flit width in bits (Table II: 128).
    pub flit_bits: usize,
}

impl Default for RouterParams {
    fn default() -> Self {
        RouterParams {
            vns: 6,
            vcs_per_vn: 2,
            buffer_flits: 5,
            ports: 5,
            classes: 6,
            ni_queue_flits: 5,
            flit_bits: 128,
        }
    }
}

impl From<&SimConfig> for RouterParams {
    /// The buffer geometry a simulation runs (VNs, VCs per VN, buffer
    /// depth); ports, classes, NI queues and flit width as in Table II.
    fn from(cfg: &SimConfig) -> Self {
        RouterParams {
            vns: cfg.vns,
            vcs_per_vn: cfg.vcs_per_vn,
            buffer_flits: cfg.buffer_flits,
            ..RouterParams::default()
        }
    }
}

impl RouterParams {
    /// Total VCs per input port.
    pub fn vcs_per_port(&self) -> usize {
        self.vns.max(1) * self.vcs_per_vn
    }

    /// Total input-buffer flit slots across the router.
    pub fn input_buffer_slots(&self) -> usize {
        self.ports * self.vcs_per_port() * self.buffer_flits
    }

    /// Total NI queue flit slots (injection + ejection, per class).
    pub fn ni_queue_slots(&self) -> usize {
        2 * self.classes * self.ni_queue_flits
    }
}

// ---- calibrated 28 nm constants -------------------------------------------
// Area in µm² per unit, static power in µW per unit, both at 1 GHz /
// nominal corner. Chosen so that the 6-VN 2-VC EscapeVC router lands at
// Fig. 11's ≈ 350–400k µm² scale with a buffer-dominated breakdown.

/// Area of one 128-bit flit buffer slot (µm²).
const AREA_PER_FLIT_SLOT: f64 = 700.0;
/// Crossbar + link-infrastructure area coefficient: × ports² ×
/// flit_bits. Covers the 5×5 128-bit crossbar, link drivers, pipeline
/// registers and clocking — the parts of a router that do not shrink
/// with buffer count (≈ 80k µm² at the Table II configuration).
const AREA_XBAR_COEFF: f64 = 25.0;
/// Arbiter/VC-state area per VC (µm²).
const AREA_PER_VC_ARBITER: f64 = 400.0;
/// Static power of one flit slot (µW).
const POWER_PER_FLIT_SLOT: f64 = 0.55;
/// Crossbar + link-infrastructure power coefficient.
const POWER_XBAR_COEFF: f64 = 0.022;
/// Arbiter power per VC (µW).
const POWER_PER_VC_ARBITER: f64 = 0.30;

/// Per-scheme overhead, as (extra flit slots, extra control area µm²).
fn overhead(id: SchemeId, p: &RouterParams) -> (usize, f64) {
    match id {
        // Plain credit VCT and Duato escape VCs: no scheme logic.
        SchemeId::Vct | SchemeId::EscapeVc => (0, 0.0),
        // SPIN's probe/detection network: ~6% of an EscapeVC router.
        SchemeId::Spin => (0, 22_000.0),
        SchemeId::Swap => (0, 6_000.0),
        SchemeId::Drain => (0, 8_000.0),
        // Pitstop: 2-packet pit per router + class TDM control.
        SchemeId::Pitstop => (2 * p.buffer_flits, 4_000.0),
        // FastPass: lane table (P entries), TDM counters, lookahead
        // mux/demux, dropping management (Fig. 6) — ~4% of its router.
        SchemeId::FastPass => (0, 6_500.0),
        // MinBD replaces input buffers with a 4-flit side buffer; the
        // input-buffer term is zeroed by the caller via `vcs_per_vn`.
        SchemeId::MinBd => (4, 5_000.0),
        // TFC: token broadcast logic.
        SchemeId::Tfc => (0, 7_000.0),
    }
}

/// Area breakdown of one router + NI (µm²), mirroring Fig. 11's stacks.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AreaBreakdown {
    /// Input buffers.
    pub buffers: f64,
    /// Crossbar.
    pub crossbar: f64,
    /// Switch/VC arbiters and per-VC state.
    pub arbiters: f64,
    /// NI injection/ejection queues.
    pub ni_queues: f64,
    /// Scheme-specific overhead.
    pub overhead: f64,
}

impl AreaBreakdown {
    /// Total area.
    pub fn total(&self) -> f64 {
        self.buffers + self.crossbar + self.arbiters + self.ni_queues + self.overhead
    }
}

/// Static power breakdown of one router + NI (µW).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerBreakdown {
    /// Input buffers.
    pub buffers: f64,
    /// Crossbar.
    pub crossbar: f64,
    /// Arbiters.
    pub arbiters: f64,
    /// NI queues.
    pub ni_queues: f64,
    /// Scheme overhead.
    pub overhead: f64,
}

impl PowerBreakdown {
    /// Total static power.
    pub fn total(&self) -> f64 {
        self.buffers + self.crossbar + self.arbiters + self.ni_queues + self.overhead
    }
}

/// Computes the area breakdown for a scheme's router.
pub fn router_area(id: SchemeId, p: &RouterParams) -> AreaBreakdown {
    let (extra_slots, control) = overhead(id, p);
    let input_slots = if id == SchemeId::MinBd {
        0 // bufferless: no input buffers
    } else {
        p.input_buffer_slots()
    };
    AreaBreakdown {
        buffers: input_slots as f64 * AREA_PER_FLIT_SLOT,
        crossbar: AREA_XBAR_COEFF * (p.ports * p.ports * p.flit_bits) as f64,
        arbiters: (p.ports * p.vcs_per_port()) as f64 * AREA_PER_VC_ARBITER,
        ni_queues: p.ni_queue_slots() as f64 * AREA_PER_FLIT_SLOT,
        overhead: control + extra_slots as f64 * AREA_PER_FLIT_SLOT,
    }
}

/// Computes the static power breakdown for a scheme's router.
pub fn router_power(id: SchemeId, p: &RouterParams) -> PowerBreakdown {
    let (extra_slots, control) = overhead(id, p);
    let input_slots = if id == SchemeId::MinBd {
        0
    } else {
        p.input_buffer_slots()
    };
    // Control overhead leaks at roughly the SRAM rate per unit area.
    let control_power = control * (POWER_PER_FLIT_SLOT / AREA_PER_FLIT_SLOT);
    PowerBreakdown {
        buffers: input_slots as f64 * POWER_PER_FLIT_SLOT,
        crossbar: POWER_XBAR_COEFF * (p.ports * p.ports * p.flit_bits) as f64,
        arbiters: (p.ports * p.vcs_per_port()) as f64 * POWER_PER_VC_ARBITER,
        ni_queues: p.ni_queue_slots() as f64 * POWER_PER_FLIT_SLOT,
        overhead: control_power + extra_slots as f64 * POWER_PER_FLIT_SLOT,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vn6() -> RouterParams {
        RouterParams::default()
    }

    fn vn0() -> RouterParams {
        RouterParams {
            vns: 0,
            vcs_per_vn: 2,
            ..RouterParams::default()
        }
    }

    #[test]
    fn escape_router_is_buffer_dominated_at_28nm_scale() {
        let a = router_area(SchemeId::EscapeVc, &vn6());
        assert!(
            (250_000.0..450_000.0).contains(&a.total()),
            "EscapeVC total {} off Fig. 11 scale",
            a.total()
        );
        assert!(
            a.buffers > a.crossbar && a.buffers > a.arbiters,
            "buffers must dominate a 6-VN router"
        );
    }

    #[test]
    fn fastpass_cuts_area_and_power_roughly_in_half() {
        let escape = router_area(SchemeId::EscapeVc, &vn6()).total();
        let fp = router_area(SchemeId::FastPass, &vn0()).total();
        let reduction = 1.0 - fp / escape;
        assert!(
            (0.35..0.70).contains(&reduction),
            "paper: ~40% area reduction; model gives {reduction:.2}"
        );
        let escape_p = router_power(SchemeId::EscapeVc, &vn6()).total();
        let fp_p = router_power(SchemeId::FastPass, &vn0()).total();
        let p_reduction = 1.0 - fp_p / escape_p;
        assert!(
            (0.35..0.70).contains(&p_reduction),
            "paper: ~41% power reduction; model gives {p_reduction:.2}"
        );
    }

    #[test]
    fn fastpass_matches_pitstop() {
        // Paper: "FastPass has similar area and power consumption as
        // Pitstop".
        let fp = router_area(SchemeId::FastPass, &vn0()).total();
        let pit = router_area(SchemeId::Pitstop, &vn0()).total();
        assert!(
            (fp - pit).abs() / fp < 0.08,
            "FastPass {fp} vs Pitstop {pit}"
        );
    }

    #[test]
    fn spin_overhead_is_about_six_percent() {
        let escape = router_area(SchemeId::EscapeVc, &vn6()).total();
        let spin = router_area(SchemeId::Spin, &vn6()).total();
        let ratio = (spin - escape) / escape;
        assert!(
            (0.03..0.09).contains(&ratio),
            "paper: SPIN +6% over EscapeVC; model gives {ratio:.3}"
        );
    }

    #[test]
    fn fastpass_overhead_is_small() {
        let fp = router_area(SchemeId::FastPass, &vn0());
        let frac = fp.overhead / fp.total();
        assert!(
            (0.01..0.08).contains(&frac),
            "paper: FastPass overhead ~4% of its router; model gives {frac:.3}"
        );
    }

    #[test]
    fn area_monotone_in_vcs() {
        let base = router_area(SchemeId::Vct, &vn6()).total();
        let more = router_area(
            SchemeId::Vct,
            &RouterParams {
                vcs_per_vn: 4,
                ..vn6()
            },
        )
        .total();
        assert!(more > base);
    }

    #[test]
    fn minbd_has_no_input_buffers() {
        let a = router_area(SchemeId::MinBd, &vn0());
        assert_eq!(a.buffers, 0.0);
        assert!(a.overhead > 0.0, "side buffer accounted as overhead");
        assert!(a.total() < router_area(SchemeId::FastPass, &vn0()).total());
    }

    #[test]
    fn breakdown_totals_sum() {
        let a = router_area(SchemeId::FastPass, &vn0());
        let sum = a.buffers + a.crossbar + a.arbiters + a.ni_queues + a.overhead;
        assert!((a.total() - sum).abs() < 1e-9);
    }
}
