//! The verification points: the small-mesh configurations both
//! verifiers work on, one row each.
//!
//! `noc-check` explores a point's schedules and `noc-prove` certifies
//! its channel-dependency structure; each adds only what is about its
//! own method (search bounds there, proof obligations here). A row says
//! what is *verified* — mesh, VC structure, NI queue depth, scheme and
//! its parameters, whether the consumer-backlog protocol model is on,
//! and which verdict is expected — so the two cannot disagree about it.

use crate::{SchemeId, Tuning};
use baselines::{minbd::MinBdConfig, pitstop::PitstopConfig, spin::SpinConfig};
use noc_core::config::SimConfig;
use noc_sim::Scheme;

/// One configuration under verification.
#[derive(Debug, Clone, Copy)]
pub struct VerifyPoint {
    /// Stable name: the model checker's config name and the certificate
    /// file stem.
    pub name: &'static str,
    /// Mesh edge (2: the per-PR exhaustive tier; 3: the weekly one).
    pub mesh: usize,
    /// Virtual networks.
    pub vns: usize,
    /// VCs per VN (per input buffer when `vns == 0`).
    pub vcs_per_vn: usize,
    /// Depth of every NI injection and ejection queue, in packets.
    pub ni_queue: usize,
    /// The scheme.
    pub id: SchemeId,
    /// Its parameters (Table II's thresholds outlast a small-mesh
    /// exploration window, so some points shorten them).
    pub tuning: Tuning,
    /// Whether the consumer-backlog protocol model couples the message
    /// classes (requests wait for responses to be consumed).
    pub coupling: bool,
    /// The planted point: verification is *expected* to fail — a wedge
    /// dynamically, a dependency cycle statically.
    pub expect_deadlock: bool,
}

impl VerifyPoint {
    /// Seed of the simulation and of the scheme's hidden RNGs (adaptive
    /// tie-breaks, deflection draws): they are part of the system under
    /// test, and a fixed seed keeps counterexample replays bitwise.
    pub const SEED: u64 = 11;

    /// The simulator configuration of this point.
    pub fn sim_config(&self) -> SimConfig {
        SimConfig::builder()
            .mesh(self.mesh, self.mesh)
            .vns(self.vns)
            .vcs_per_vn(self.vcs_per_vn)
            .inj_queue_packets(self.ni_queue)
            .ej_queue_packets(self.ni_queue)
            .seed(Self::SEED)
            .build()
    }

    /// A fresh instance of this point's scheme for `cfg`.
    pub fn build(&self, cfg: &SimConfig) -> Box<dyn Scheme> {
        self.id.build_tuned(cfg, Self::SEED, &self.tuning)
    }
}

/// A row at the tiers' common setting: 2-deep NI queues, figure
/// parameters, verification expected to succeed.
fn point(
    name: &'static str,
    mesh: usize,
    (vns, vcs_per_vn): (usize, usize),
    id: SchemeId,
    coupling: bool,
) -> VerifyPoint {
    VerifyPoint {
        name,
        mesh,
        vns,
        vcs_per_vn,
        ni_queue: 2,
        id,
        tuning: Tuning::default(),
        coupling,
        expect_deadlock: false,
    }
}

/// Every verification point: the 2×2 tier, the 3×3 tier, then the
/// planted deadlock.
pub fn verify_points() -> Vec<VerifyPoint> {
    // Short class period so a full class rotation (8 × 6 = 48 cycles)
    // fits the explored horizon.
    let pitstop = Tuning {
        pitstop: PitstopConfig {
            class_period: 8,
            pit_capacity: 2,
            threshold: 4,
        },
        ..Tuning::default()
    };
    // Low detection threshold so the probe/spin machinery actually
    // engages inside the explored window.
    let spin = Tuning {
        spin: SpinConfig {
            detection_threshold: 16,
            check_interval: 4,
        },
        ..Tuning::default()
    };
    // Minimal buffering — 1-flit side buffer, 1-flit eject bandwidth —
    // the deflection-draw edge case.
    let minbd = Tuning {
        minbd: MinBdConfig {
            side_capacity: 1,
            eject_bandwidth: 1,
        },
        ..Tuning::default()
    };
    vec![
        // FastPass at the paper's zero-VN shared-buffer point, with the
        // protocol model it exists to survive (slot: the paper formula).
        point("fastpass-2x2", 2, (0, 1), SchemeId::FastPass, true),
        // Plain credit VCT, zero VNs, *without* the protocol model: the
        // pure network-level check (XY is cycle-free).
        point("vct-xy0-2x2", 2, (0, 1), SchemeId::Vct, false),
        // The conventional fix: 6 VNs isolate the classes, so the
        // protocol model that wedges the planted point must complete.
        point("vct-xy6-2x2", 2, (6, 1), SchemeId::Vct, true),
        // Pitstop at zero VNs with the protocol model (Table I: resolves
        // the protocol deadlock).
        VerifyPoint {
            tuning: pitstop,
            ..point("pitstop-2x2", 2, (0, 1), SchemeId::Pitstop, true)
        },
        // SPIN: fully adaptive, 1 VC per VN — the network-deadlock
        // baseline.
        VerifyPoint {
            tuning: spin,
            ..point("spin-2x2", 2, (6, 1), SchemeId::Spin, false)
        },
        // Duato-style escape VCs: adaptive inner VCs + XY escape lane.
        point("escape-vc-2x2", 2, (6, 2), SchemeId::EscapeVc, false),
        VerifyPoint {
            tuning: minbd,
            ..point("minbd-min-2x2", 2, (0, 1), SchemeId::MinBd, false)
        },
        point("fastpass-3x3", 3, (0, 1), SchemeId::FastPass, true),
        point("vct-xy6-3x3", 3, (6, 1), SchemeId::Vct, true),
        VerifyPoint {
            tuning: pitstop,
            ..point("pitstop-3x3", 3, (0, 1), SchemeId::Pitstop, true)
        },
        // The planted deadlock: zero VNs, plain credit VCT, one shared
        // VC, 1-deep NI queues, protocol model on — the 2×2 miniature of
        // `tests/deadlock.rs`'s
        // `zero_vn_plain_vct_wedges_on_protocol_traffic`. A verifier
        // that passes it is unsound.
        VerifyPoint {
            ni_queue: 1,
            expect_deadlock: true,
            ..point("planted-vct0-protocol-2x2", 2, (0, 1), SchemeId::Vct, true)
        },
    ]
}
