//! The exploration matrix: per verification point, what is about the
//! *search* — the scripted job set, the canonicalization age cap, and
//! the horizon / drain / node bounds.
//!
//! What a point *is* (mesh, VC structure, scheme and its parameters,
//! protocol coupling, expected verdict) lives in the scheme catalogue
//! ([`noc_schemes::verify_points`]), shared with the static certifier;
//! nothing here constructs a scheme. Two tiers mirror the CI split:
//!
//! * [`matrix_2x2`] — the per-PR tier: every 2×2 point with a small
//!   scripted job set. Every point exhausts its schedule space (the
//!   node budget untouched) in seconds.
//! * [`matrix_3x3`] — the weekly tier: deeper exploration on a 3×3 mesh,
//!   a diameter-4 topology the 2×2 cannot cover. Every point exhausts
//!   its schedule space too (FastPass in about two million nodes).
//!
//! [`planted`] is the checker's own soundness test: the *broken*
//! configuration of `tests/deadlock.rs` (shared buffers, zero VNs, plain
//! credit VCT, consumer backlog) shrunk to 2×2 with a scripted request
//! pattern that admits the same wedge — the checker must find it, and
//! its replay must reproduce it bitwise.

use crate::canon::CanonParams;
use crate::explore::CheckConfig;
use crate::script::JobSpec;
use noc_core::packet::MessageClass;
use noc_schemes::{verify_points, VerifyPoint};

/// Attaches the search bounds to a catalogue point, one row per point
/// name (`None`: a point nobody has sized a search for). Each node
/// budget is about twice the nodes the point's exhaustive search
/// expands, so a state space that doubles ends bounded instead of
/// passing quietly.
fn bounded(point: VerifyPoint) -> Option<CheckConfig> {
    let (jobs, age_cap, horizon, drain_cap, node_budget) = match point.name {
        "fastpass-2x2" => (cross_jobs_2x2(), 24, 512, 60_000, 300_000),
        "vct-xy0-2x2" => (cross_jobs_2x2(), 8, 256, 20_000, 350),
        "vct-xy6-2x2" => (cross_jobs_2x2(), 8, 256, 20_000, 1_300),
        "pitstop-2x2" => (cross_jobs_2x2(), 12, 1024, 80_000, 60_000),
        "spin-2x2" => (cross_jobs_2x2(), 20, 1024, 40_000, 1_400),
        "escape-vc-2x2" => (cross_jobs_2x2(), 8, 512, 20_000, 350),
        "minbd-min-2x2" => (cross_jobs_2x2(), 8, 512, 20_000, 240),
        "fastpass-3x3" => (cross_jobs_3x3(), 24, 1024, 120_000, 4_000_000),
        "vct-xy6-3x3" => (cross_jobs_3x3(), 8, 512, 40_000, 2_500),
        "pitstop-3x3" => (cross_jobs_3x3(), 12, 1024, 120_000, 125_000),
        "planted-vct0-protocol-2x2" => (planted_jobs(), 8, 256, 20_000, 3_200),
        _ => return None,
    };
    Some(CheckConfig {
        point,
        jobs,
        canon: CanonParams { age_cap },
        horizon,
        drain_cap,
        node_budget,
    })
}

/// Cross-flow requests on a 2×2: the two diagonals plus one row flow.
/// Three jobs keep the interleaving space exhaustible.
fn cross_jobs_2x2() -> Vec<JobSpec> {
    vec![JobSpec::req(0, 3), JobSpec::req(3, 0), JobSpec::req(1, 2)]
}

/// Cross-flow requests on a 3×3: corner exchange through the center.
fn cross_jobs_3x3() -> Vec<JobSpec> {
    vec![JobSpec::req(0, 8), JobSpec::req(8, 0), JobSpec::req(2, 6)]
}

/// The planted-wedge job set (see [`planted`]): paired
/// request/counter-request flows between the bottom row and node
/// corners, sized so refused requests can fill both ejection queues and
/// strand each node's response behind the other's stuck request.
fn planted_jobs() -> Vec<JobSpec> {
    vec![
        JobSpec::req(0, 3),
        JobSpec::req(1, 2),
        JobSpec::req(2, 3),
        JobSpec::req(3, 2),
        JobSpec::req(3, 2),
        JobSpec::req(2, 3),
    ]
}

/// Every catalogue point with its search bounds, in catalogue order.
fn all() -> impl Iterator<Item = CheckConfig> {
    verify_points().into_iter().filter_map(bounded)
}

fn tier(edge: usize) -> Vec<CheckConfig> {
    let points = verify_points().into_iter();
    let in_tier = points.filter(|p| p.mesh == edge && !p.expect_deadlock);
    in_tier.filter_map(bounded).collect()
}

/// The per-PR 2×2 matrix.
pub fn matrix_2x2() -> Vec<CheckConfig> {
    tier(2)
}

/// The weekly 3×3 matrix: deeper topology, exhaustive verdicts.
pub fn matrix_3x3() -> Vec<CheckConfig> {
    tier(3)
}

/// The planted bug (the catalogue's one `expect_deadlock` point). The
/// checker is *expected* to produce a wedge counterexample here; a clean
/// verdict means the checker is unsound and CI must fail.
///
/// # Panics
///
/// Panics if the catalogue has lost its planted point or its bounds.
pub fn planted() -> CheckConfig {
    all()
        .find(|cc| cc.point.expect_deadlock)
        .expect("the catalogue plants exactly one deadlock")
}

/// Looks up a config by name across both matrices and the planted bug.
pub fn by_name(name: &str) -> Option<CheckConfig> {
    all().find(|cc| cc.point.name == name)
}

/// Every job in every matrix config references valid nodes and classes —
/// cheap self-check used by the CLI before exploring.
pub fn validate(cc: &CheckConfig) -> Result<(), String> {
    let n = cc.point.mesh * cc.point.mesh;
    for (i, j) in cc.jobs.iter().enumerate() {
        if j.src >= n || j.dst >= n {
            return Err(format!("job {i} endpoint out of range for {n} nodes"));
        }
        if j.src == j.dst {
            return Err(format!("job {i} is a self-send"));
        }
        if cc.point.coupling && j.class == MessageClass::Response {
            return Err(format!(
                "job {i}: scripted responses collide with the protocol model"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::packet::Packet;
    use noc_core::topology::{NodeId, Port};
    use noc_sim::network::NetworkCore;
    use noc_sim::routing::RouteReq;

    /// Every catalogue point is explorable: a point without bounds would
    /// silently drop out of its tier.
    #[test]
    fn every_point_has_bounds_and_valid_jobs() {
        assert_eq!(all().count(), verify_points().len());
        for cc in all() {
            validate(&cc).unwrap_or_else(|e| panic!("{}: {e}", cc.point.name));
            let admitted = cc.point.id.admits(&cc.point.sim_config());
            admitted.unwrap_or_else(|e| panic!("{}: {e}", cc.point.name));
        }
        assert_eq!(matrix_2x2().len(), 7);
        assert_eq!(matrix_3x3().len(), 3);
    }

    /// A wedge is diagnosed with the scheme's own routing discipline: a
    /// diagonal request under the fully-adaptive schemes waits on *both*
    /// productive directions (diagnosing them with XY would drop half
    /// the wait edges and call a buffer cycle quiescent), under plain
    /// VCT on XY's one.
    #[test]
    fn diagnosis_policy_is_the_schemes_own() {
        for (name, dirs) in [
            ("fastpass-2x2", 2),
            ("pitstop-2x2", 2),
            ("planted-vct0-protocol-2x2", 1),
        ] {
            let cc = by_name(name).expect("known point");
            let mut core = NetworkCore::new(cc.point.sim_config());
            let (src, dst) = (NodeId::new(0), NodeId::new(3));
            let pkt = core
                .store
                .insert(Packet::new(src, dst, MessageClass::Request, 1, 0));
            let req = RouteReq::new(&core, src, Port::Local, 0, pkt);
            let ports = cc.diag_policy().desired_ports(&core, &req);
            assert_eq!(ports.len(), dirs, "{name}: {ports:?}");
        }
    }
}
