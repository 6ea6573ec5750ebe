//! The verification matrix: named checker configurations over small
//! meshes, plus the static (non-exploratory) lemma checks.
//!
//! Two tiers mirror the CI split:
//!
//! * [`matrix_2x2`] — the per-PR tier: every scheme on a 2×2 mesh with a
//!   tight VC/queue configuration and a small scripted job set. Bounds
//!   are sized so FastPass and the credit baselines exhaust their
//!   schedule space (zero truncated paths) in seconds.
//! * [`matrix_3x3`] — the weekly tier: deeper, budgeted exploration on a
//!   3×3 mesh. Verdicts here are bounded (the budget usually runs out
//!   first) but cover a diameter-3 topology the 2×2 cannot.
//!
//! [`planted`] is the checker's own soundness test: the *broken*
//! configuration of `tests/deadlock.rs` (shared buffers, zero VNs, plain
//! credit VCT, consumer backlog) shrunk to 2×2 with a scripted request
//! pattern that admits the same wedge — the checker must find it, and
//! its replay must reproduce it bitwise.

use crate::canon::CanonParams;
use crate::explore::CheckConfig;
use crate::script::JobSpec;
use baselines::{minbd::MinBdConfig, pitstop::PitstopConfig, spin::SpinConfig};
use baselines::{CreditVct, EscapeVc, MinBd, Pitstop, Spin};
use fastpass::irregular::{holistic_path, segment, IrregularTopo};
use fastpass::lane::{verify_rotation_disjoint, verify_slot_disjoint};
use fastpass::{FastPass, FastPassConfig, TdmSchedule};
use noc_core::config::SimConfig;
use noc_core::packet::MessageClass;
use noc_core::topology::Mesh;
use noc_sim::routing::{DorXy, FullyAdaptive};

/// Deterministic seed for every checker simulation. The schemes' hidden
/// RNGs (adaptive tie-breaks, deflection draws) are part of the system
/// under test; a fixed seed keeps replays bitwise.
const SEED: u64 = 11;

/// A tight 2×2 base config: 1 VC per VN, 2-deep NI queues.
fn base_2x2(vns: usize, vcs_per_vn: usize) -> SimConfig {
    SimConfig::builder()
        .mesh(2, 2)
        .vns(vns)
        .vcs_per_vn(vcs_per_vn)
        .inj_queue_packets(2)
        .ej_queue_packets(2)
        .seed(SEED)
        .build()
}

/// A tight 3×3 base config.
fn base_3x3(vns: usize, vcs_per_vn: usize) -> SimConfig {
    SimConfig::builder()
        .mesh(3, 3)
        .vns(vns)
        .vcs_per_vn(vcs_per_vn)
        .inj_queue_packets(2)
        .ej_queue_packets(2)
        .seed(SEED)
        .build()
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

/// The per-PR 2×2 matrix.
pub fn matrix_2x2() -> Vec<CheckConfig> {
    let mut v = Vec::new();

    // FastPass at the paper's zero-VN shared-buffer point, including the
    // consumer-backlog protocol model it exists to survive.
    let sim = base_2x2(0, 1);
    v.push(CheckConfig {
        name: "fastpass-2x2".into(),
        make_scheme: Box::new(|cfg| {
            Box::new(FastPass::new(
                cfg,
                FastPassConfig {
                    slot_cycles: None, // paper formula: 20 cycles on 2x2
                    ..FastPassConfig::default()
                },
            ))
        }),
        diag_policy: Box::new(|| Box::new(DorXy)),
        sim,
        jobs: cross_jobs_2x2(),
        backlog_limit: Some(1),
        canon: CanonParams { age_cap: 24 },
        horizon: 512,
        drain_cap: 60_000,
        // One full TDM rotation on 2x2 is 80 cycles; the depth limit must
        // cover injected traffic draining plus a full rotation wrap for
        // idle-tick chains to close against the visited set.
        max_depth: 256,
        node_budget: 2_500_000,
        expect_wedge: false,
    });

    // Plain credit VCT, zero VNs, *without* the protocol model: pure
    // network-level check (XY is cycle-free; must verify clean).
    v.push(CheckConfig {
        name: "vct-xy0-2x2".into(),
        make_scheme: Box::new(|_| Box::new(CreditVct::xy(0))),
        diag_policy: Box::new(|| Box::new(DorXy)),
        sim: base_2x2(0, 1),
        jobs: cross_jobs_2x2(),
        backlog_limit: None,
        canon: CanonParams { age_cap: 8 },
        horizon: 256,
        drain_cap: 20_000,
        max_depth: 48,
        node_budget: 40_000,
        expect_wedge: false,
    });

    // The conventional fix: 6 VNs isolate the classes; the same protocol
    // model that wedges the zero-VN config must complete.
    v.push(CheckConfig {
        name: "vct-xy6-2x2".into(),
        make_scheme: Box::new(|_| Box::new(CreditVct::xy(6))),
        diag_policy: Box::new(|| Box::new(DorXy)),
        sim: base_2x2(6, 1),
        jobs: cross_jobs_2x2(),
        backlog_limit: Some(1),
        canon: CanonParams { age_cap: 8 },
        horizon: 256,
        drain_cap: 20_000,
        max_depth: 48,
        node_budget: 40_000,
        expect_wedge: false,
    });

    // Pitstop at zero VNs with the protocol model (Table I: resolves the
    // protocol deadlock). Short class period so a full class rotation
    // fits the horizon.
    v.push(CheckConfig {
        name: "pitstop-2x2".into(),
        make_scheme: Box::new(|cfg| {
            Box::new(Pitstop::new(
                cfg.mesh.num_nodes(),
                SEED,
                PitstopConfig {
                    class_period: 8,
                    pit_capacity: 2,
                    threshold: 4,
                },
            ))
        }),
        diag_policy: Box::new(|| Box::new(DorXy)),
        sim: base_2x2(0, 1),
        jobs: cross_jobs_2x2(),
        backlog_limit: Some(1),
        canon: CanonParams { age_cap: 12 },
        horizon: 1024,
        drain_cap: 80_000,
        // The class rotation is 8 × 6 = 48 cycles; see the FastPass note.
        max_depth: 96,
        node_budget: 600_000,
        expect_wedge: false,
    });

    // SPIN: fully-adaptive routing, 1 VC per VN — the network-deadlock
    // baseline. Low detection threshold so probe/spin machinery actually
    // engages inside the explored window.
    v.push(CheckConfig {
        name: "spin-2x2".into(),
        make_scheme: Box::new(|_| {
            Box::new(Spin::new(
                SEED,
                SpinConfig {
                    detection_threshold: 16,
                    check_interval: 4,
                },
            ))
        }),
        diag_policy: Box::new(|| Box::new(FullyAdaptive::new(SEED))),
        sim: base_2x2(6, 1),
        jobs: cross_jobs_2x2(),
        backlog_limit: None,
        canon: CanonParams { age_cap: 20 },
        horizon: 1024,
        drain_cap: 40_000,
        max_depth: 48,
        node_budget: 60_000,
        expect_wedge: false,
    });

    // Duato-style escape VCs: adaptive inner VCs + XY escape lane.
    v.push(CheckConfig {
        name: "escape-vc-2x2".into(),
        make_scheme: Box::new(|_| Box::new(EscapeVc::new(SEED))),
        diag_policy: Box::new(|| Box::new(FullyAdaptive::new(SEED))),
        sim: base_2x2(6, 2),
        jobs: cross_jobs_2x2(),
        backlog_limit: None,
        canon: CanonParams { age_cap: 8 },
        horizon: 512,
        drain_cap: 20_000,
        max_depth: 40,
        node_budget: 40_000,
        expect_wedge: false,
    });

    // MinBD at *minimal* buffering — 1-flit side buffer, 1-flit eject
    // bandwidth — the deflection-draw edge case named by the issue.
    v.push(CheckConfig {
        name: "minbd-min-2x2".into(),
        make_scheme: Box::new(|cfg| {
            Box::new(MinBd::new(
                cfg.mesh,
                SEED,
                MinBdConfig {
                    side_capacity: 1,
                    eject_bandwidth: 1,
                },
            ))
        }),
        diag_policy: Box::new(|| Box::new(FullyAdaptive::new(SEED))),
        sim: base_2x2(0, 1),
        jobs: cross_jobs_2x2(),
        backlog_limit: None,
        canon: CanonParams { age_cap: 8 },
        horizon: 512,
        drain_cap: 20_000,
        max_depth: 40,
        node_budget: 40_000,
        expect_wedge: false,
    });

    v
}

/// The weekly 3×3 matrix: deeper topology, budgeted verdicts.
pub fn matrix_3x3() -> Vec<CheckConfig> {
    let mut v = Vec::new();

    v.push(CheckConfig {
        name: "fastpass-3x3".into(),
        make_scheme: Box::new(|cfg| {
            Box::new(FastPass::new(
                cfg,
                FastPassConfig {
                    slot_cycles: None,
                    ..FastPassConfig::default()
                },
            ))
        }),
        diag_policy: Box::new(|| Box::new(DorXy)),
        sim: base_3x3(0, 1),
        jobs: cross_jobs_3x3(),
        backlog_limit: Some(1),
        canon: CanonParams { age_cap: 24 },
        horizon: 1024,
        drain_cap: 120_000,
        // The 3x3 rotation is longer than the 2x2's and the job set's
        // drain is slower; this depth lets tick-chains wrap it, but the
        // budget is what actually ends the search (bounded verdict by
        // design on the weekly tier).
        max_depth: 384,
        node_budget: 4_000_000,
        expect_wedge: false,
    });

    v.push(CheckConfig {
        name: "vct-xy6-3x3".into(),
        make_scheme: Box::new(|_| Box::new(CreditVct::xy(6))),
        diag_policy: Box::new(|| Box::new(DorXy)),
        sim: base_3x3(6, 1),
        jobs: cross_jobs_3x3(),
        backlog_limit: Some(1),
        canon: CanonParams { age_cap: 8 },
        horizon: 512,
        drain_cap: 40_000,
        max_depth: 64,
        node_budget: 100_000,
        expect_wedge: false,
    });

    v.push(CheckConfig {
        name: "pitstop-3x3".into(),
        make_scheme: Box::new(|cfg| {
            Box::new(Pitstop::new(
                cfg.mesh.num_nodes(),
                SEED,
                PitstopConfig {
                    class_period: 8,
                    pit_capacity: 2,
                    threshold: 4,
                },
            ))
        }),
        diag_policy: Box::new(|| Box::new(DorXy)),
        sim: base_3x3(0, 1),
        jobs: cross_jobs_3x3(),
        backlog_limit: Some(1),
        canon: CanonParams { age_cap: 12 },
        horizon: 1024,
        drain_cap: 120_000,
        // Class rotation 8 x 6 = 48 cycles, as on the 2x2.
        max_depth: 192,
        node_budget: 1_500_000,
        expect_wedge: false,
    });

    v
}

/// The planted bug: zero VNs, plain credit VCT, shared single-VC
/// buffers, 1-deep NI queues, consumer backlog limit 1 — the 2×2
/// miniature of `tests/deadlock.rs`'s
/// `zero_vn_plain_vct_wedges_on_protocol_traffic`. The checker is
/// *expected* to produce a wedge counterexample here; a clean verdict
/// means the checker is unsound and CI must fail.
pub fn planted() -> CheckConfig {
    let sim = SimConfig::builder()
        .mesh(2, 2)
        .vns(0)
        .vcs_per_vn(1)
        .inj_queue_packets(1)
        .ej_queue_packets(1)
        .seed(SEED)
        .build();
    CheckConfig {
        name: "planted-vct0-protocol-2x2".into(),
        make_scheme: Box::new(|_| Box::new(CreditVct::xy(0))),
        diag_policy: Box::new(|| Box::new(DorXy)),
        sim,
        jobs: planted_jobs(),
        backlog_limit: Some(1),
        canon: CanonParams { age_cap: 8 },
        horizon: 256,
        drain_cap: 20_000,
        max_depth: 48,
        node_budget: 400_000,
        expect_wedge: true,
    }
}

/// Looks up a config by name across both matrices and the planted bug.
pub fn by_name(name: &str) -> Option<CheckConfig> {
    matrix_2x2()
        .into_iter()
        .chain(matrix_3x3())
        .chain(std::iter::once(planted()))
        .find(|c| c.name == name)
}

/// Static (non-exploratory) FastPass lemma checks for a mesh: the TDM
/// partition lanes must be pairwise disjoint in every slot of a full
/// rotation (Lemma 1's premise — a FastPass-Packet never waits for a
/// buffer held by another partition's traffic).
pub fn fastpass_static_lemma_failures(mesh: Mesh, vcs_per_port: usize) -> Vec<String> {
    let mut fails = Vec::new();
    let schedule = TdmSchedule::new(mesh, vcs_per_port);
    if let Err(c) = verify_rotation_disjoint(mesh, schedule) {
        fails.push(format!("rotation lanes overlap: {c}"));
    }
    for probe in [0, schedule.slot_cycles() / 2, schedule.slot_cycles() - 1] {
        if let Err(c) = verify_slot_disjoint(mesh, schedule, probe) {
            fails.push(format!("mid-slot lanes overlap: {c}"));
        }
    }
    fails
}

/// The irregular smoke point: a 4×4 mesh with the `5 ↔ 6` channel
/// disabled. §III-F's construction must still yield a holistic path
/// (Eulerian circuit over the remaining channels) and segment it into
/// disjoint lanes covering every directed link.
pub fn irregular_smoke_topo() -> IrregularTopo {
    let (w, h) = (4usize, 4usize);
    let mut t = IrregularTopo::new(w * h);
    for y in 0..h {
        for x in 0..w {
            let n = y * w + x;
            if x + 1 < w && !(n == 5 && n + 1 == 6) {
                t.add_channel(n, n + 1);
            }
            if y + 1 < h {
                t.add_channel(n, n + w);
            }
        }
    }
    t
}

/// Validates the irregular smoke point end to end: connectivity, the
/// holistic path, and lane-segmentation disjointness/coverage for every
/// partition count FastPass would use. Returns failure descriptions.
pub fn irregular_static_failures() -> Vec<String> {
    let mut fails = Vec::new();
    let topo = irregular_smoke_topo();
    if !topo.is_connected() {
        fails.push("disabled-link topology is disconnected".into());
        return fails;
    }
    let path = match holistic_path(&topo) {
        Ok(p) => p,
        Err(e) => {
            fails.push(format!("holistic path failed: {e}"));
            return fails;
        }
    };
    let links = topo.directed_links().len();
    if path.len() != links {
        fails.push(format!(
            "holistic path covers {} of {links} directed links",
            path.len()
        ));
    }
    for p in [2, 4, 8] {
        let segs = segment(&path, p);
        let total: usize = segs.iter().map(|s| s.len()).sum();
        if segs.len() != p || total != path.len() {
            fails.push(format!("segmentation into {p} lanes lost links"));
        }
        let mut seen = std::collections::HashSet::new();
        for s in &segs {
            for &e in s {
                if !seen.insert(e) {
                    fails.push(format!("lane overlap on directed link {e:?} at p={p}"));
                }
            }
        }
    }
    fails
}

/// Every job in every matrix config references valid nodes and classes —
/// cheap self-check used by the CLI before exploring.
pub fn validate(cc: &CheckConfig) -> Result<(), String> {
    let n = cc.sim.mesh.num_nodes();
    for (i, j) in cc.jobs.iter().enumerate() {
        if j.src >= n || j.dst >= n {
            return Err(format!("job {i} endpoint out of range for {n} nodes"));
        }
        if j.src == j.dst {
            return Err(format!("job {i} is a self-send"));
        }
        if cc.backlog_limit.is_some() && j.class == MessageClass::Response {
            return Err(format!(
                "job {i}: scripted responses collide with the protocol model"
            ));
        }
    }
    Ok(())
}
