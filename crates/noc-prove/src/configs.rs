//! The certification suite: every configuration CI proves per PR.
//!
//! Four tiers, none of which restates a scheme — VN/VC structure comes
//! from [`SchemeId::sim_config`] or a catalogue point, parameters from
//! [`Tuning`]:
//!
//! * [`figure_suite`] — the configurations the figures actually run
//!   (every scheme of the comparison plus the VCT substrate at the
//!   figure sizes, FastPass VC variants included), with the
//!   consumer-backlog protocol model on.
//! * [`point_suite`] — the scheme catalogue's verification points
//!   ([`noc_schemes::verify_points`]), the same rows `noc-check`
//!   explores, so static and dynamic verdicts are about one object.
//! * [`big_points`] — 16×16 and 32×32 FastPass/EscapeVC points beyond
//!   the model checker's reach (the whole point of a static certifier).
//! * [`fault_suite`] — seeded irregular configurations from
//!   [`noc_core::fault::generate`], certified before any sweep may
//!   simulate them.
//!
//! [`planted`] is the suite's soundness gate: the catalogue's planted
//! point, whose CDG provably cycles (zero VNs, shared VCs, protocol
//! coupling). CI runs it expecting `cycle-found`; a `certified` verdict
//! means the certifier is unsound and the gate must go red. `noc-check`
//! witnesses the same point's wedge dynamically.

use noc_core::config::SimConfig;
use noc_core::fault::{self, FaultConfig};
use noc_core::topology::Mesh;
use noc_schemes::{verify_points, SchemeId, Tuning, VerifyPoint, ALL_SCHEMES};

/// One configuration to certify.
#[derive(Debug, Clone)]
pub struct ProveConfig {
    /// Stable name (certificate + CI artifact key).
    pub name: String,
    /// Mesh + VC structure.
    pub sim: SimConfig,
    /// Scheme under proof.
    pub scheme: SchemeId,
    /// The parameters the scheme is built with: the live config structs
    /// the structural obligations read.
    pub tuning: Tuning,
    /// Model the consumer-backlog protocol-coupling edges.
    pub coupling: bool,
    /// Degraded topology (FastPass holistic certification).
    pub fault: Option<FaultConfig>,
    /// Planted configs: the gate expects `cycle-found`.
    pub expect_cycle: bool,
}

/// The figure configuration of `scheme` on a healthy `size × size`
/// mesh, protocol model on (no proof reads the seed).
fn figure(name: String, scheme: SchemeId, size: usize, fp_vcs: usize) -> ProveConfig {
    ProveConfig {
        name,
        sim: scheme.sim_config(size, fp_vcs, 0),
        scheme,
        tuning: Tuning::default(),
        coupling: true,
        fault: None,
        expect_cycle: false,
    }
}

/// FastPass at 2 VCs on a `size × size` mesh degraded by `fault`.
fn degraded(name: String, size: usize, fault: FaultConfig) -> ProveConfig {
    ProveConfig {
        coupling: false,
        fault: Some(fault),
        ..figure(name, SchemeId::FastPass, size, 2)
    }
}

impl From<VerifyPoint> for ProveConfig {
    fn from(p: VerifyPoint) -> Self {
        ProveConfig {
            name: p.name.to_string(),
            sim: p.sim_config(),
            scheme: p.id,
            tuning: p.tuning,
            coupling: p.coupling,
            fault: None,
            expect_cycle: p.expect_deadlock,
        }
    }
}

/// The figure-suite matrix: every Table II scheme and the VCT substrate
/// at the figure sizes (4×4 and 8×8), FastPass at each of its VC counts,
/// protocol model on — built through [`SchemeId::sim_config`], so a
/// certificate is about the configuration a figure runs.
pub fn figure_suite() -> Vec<ProveConfig> {
    let mut v = Vec::new();
    for size in [4usize, 8] {
        for id in ALL_SCHEMES.into_iter().chain([SchemeId::Vct]) {
            let fp_vcs: &[usize] = match id {
                SchemeId::FastPass => &[1, 2, 4],
                _ => &[2], // ignored by every other scheme
            };
            for &vcs in fp_vcs {
                let slug = match id {
                    SchemeId::EscapeVc => "escape-vc".to_string(),
                    SchemeId::FastPass => format!("fastpass-vc{vcs}"),
                    SchemeId::Vct => format!("vct-xy{}", id.vns()),
                    _ => id.name().to_lowercase(),
                };
                let name = format!("fig-{slug}-{size}x{size}");
                v.push(figure(name, id, size, vcs));
            }
        }
    }
    v
}

/// The catalogue's verification points that are expected to hold (both
/// mesh tiers; the planted one is [`planted`]).
pub fn point_suite() -> Vec<ProveConfig> {
    verify_points()
        .into_iter()
        .filter(|p| !p.expect_deadlock)
        .map(ProveConfig::from)
        .collect()
}

/// Beyond the model checker's reach: 16×16 and 32×32 FastPass and
/// EscapeVC points from the big-mesh tier.
pub fn big_points() -> Vec<ProveConfig> {
    let mut v = Vec::new();
    for size in [16usize, 32] {
        for (slug, id) in [
            ("fastpass", SchemeId::FastPass),
            ("escape-vc", SchemeId::EscapeVc),
        ] {
            v.push(figure(format!("big-{slug}-{size}x{size}"), id, size, 2));
        }
    }
    v
}

/// `count` seeded fault configurations on an 8×8 mesh, 4 disabled
/// channels each: FastPass holistic certification of the degraded
/// topologies that ROADMAP item 4(a)'s fault sweeps will simulate.
///
/// # Panics
///
/// Panics if the deterministic generator cannot satisfy a draw (cannot
/// happen for 4 faults on 8×8).
pub fn fault_suite(count: usize) -> Vec<ProveConfig> {
    (0..count as u64)
        .map(|seed| {
            let fault = fault::generate(Mesh::new(8, 8), seed, 4)
                .expect("4 faults on 8x8 leave ample connectivity");
            degraded(fault.name(), 8, fault)
        })
        .collect()
}

/// The certified irregular point shared by the full suite and the
/// irregular figure: a 4×4 mesh minus the `R5 ↔ R6` channel.
pub fn irregular_smoke() -> ProveConfig {
    let fault = FaultConfig {
        mesh: Mesh::new(4, 4),
        seed: 0,
        disabled: vec![(5, 6)],
    };
    degraded("irregular-4x4-no56".to_string(), 4, fault)
}

/// The planted cyclic configuration — the catalogue's one
/// `expect_deadlock` point: zero VNs, one shared VC, XY VCT, protocol
/// coupling. Its CDG must contain a concrete cycle.
///
/// # Panics
///
/// Panics if the catalogue has lost its planted point.
pub fn planted() -> ProveConfig {
    verify_points()
        .into_iter()
        .find(|p| p.expect_deadlock)
        .expect("the catalogue plants exactly one deadlock")
        .into()
}

/// Everything certified per PR, in gate order.
pub fn full_suite() -> Vec<ProveConfig> {
    let mut v = figure_suite();
    v.extend(point_suite());
    v.extend(big_points());
    v.extend(fault_suite(8));
    v.push(irregular_smoke());
    v.push(planted());
    v
}

/// Looks up a configuration by name across the whole suite.
pub fn by_name(name: &str) -> Option<ProveConfig> {
    full_suite().into_iter().find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let suite = full_suite();
        let mut names: Vec<&str> = suite.iter().map(|c| c.name.as_str()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate config names");
    }

    /// Every row is a configuration its scheme can be built on, so a
    /// refused row (DRAIN on an odd×odd mesh, say) fails here rather
    /// than in the prove run.
    #[test]
    fn every_row_is_admitted_by_its_scheme() {
        for c in full_suite() {
            c.scheme
                .admits(&c.sim)
                .unwrap_or_else(|e| panic!("{}: {e}", c.name));
        }
    }

    #[test]
    fn fault_suite_is_deterministic() {
        let a: Vec<String> = fault_suite(4).into_iter().map(|c| c.name).collect();
        let b: Vec<String> = fault_suite(4).into_iter().map(|c| c.name).collect();
        assert_eq!(a, b);
    }
}
