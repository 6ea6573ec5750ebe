//! The certifier: scheme-specific proof obligations over the CDG model.
//!
//! Proof taxonomy (one slug per [`Certificate::proof`]):
//!
//! * `cdg-acyclic` — plain VCT and turn-model schemes (XY/YX VCT, TFC's
//!   west-first): the full extended CDG, protocol coupling included,
//!   must be acyclic (Dally's condition).
//! * `duato-escape` — EscapeVC: the escape subnetwork (VC `range.start`
//!   per VN, XY-routed) is acyclic and requestable at every hop; the
//!   adaptive inner VCs may be cyclic (Duato's condition).
//! * `tdm-escape` — FastPass: the TDM lane network is an
//!   ejection-independent escape. The obligations are the paper's
//!   static lemmas — lane disjointness within each slot and across the
//!   rotation, and every router prime once per rotation (Lemma 2).
//! * `class-rotation-escape` — Pitstop: pit lanes rotate through all
//!   six classes, so every blocked packet is pit-eligible once per
//!   rotation, independent of ejection.
//! * `deflection` — MinBD: a deflecting router never waits on a
//!   downstream credit, so the CDG has no buffer-dependency edges at
//!   all; the obligations are structural (eject bandwidth and side
//!   buffer present).
//! * `dynamic-recovery` — SPIN/SWAP/DRAIN: their fully-adaptive CDG is
//!   *statically cyclic by design*; the certifier records a concrete
//!   cycle as evidence and certifies routability only. Deadlock freedom
//!   rests on the runtime recovery mechanism, which `noc-check`
//!   witnesses dynamically on small meshes.
//! * `holistic-lanes` — FastPass on an irregular (fault-degraded)
//!   topology: a holistic path (Eulerian circuit) exists and segments
//!   into disjoint lanes covering every surviving directed link
//!   (§III-F's construction).

use crate::certificate::{Certificate, VERDICT_CERTIFIED, VERDICT_CYCLE, VERDICT_REFUTED};
use crate::configs::ProveConfig;
use crate::model::{build_cdg, ChannelSpace};
use fastpass::irregular::{holistic_path, segment, IrregularTopo};
use fastpass::lane::{verify_rotation_disjoint, verify_slot_disjoint};
use fastpass::TdmSchedule;
use noc_schemes::SchemeId;

/// Certifies one configuration, never panicking on refutable inputs:
/// failed obligations become `refuted`/`cycle-found` certificates. The
/// routing discipline each proof models is the catalogue's
/// ([`SchemeId::policy_kind`]); the structural obligations read the
/// parameter structs the scheme is built with.
pub fn certify(cfg: &ProveConfig) -> Certificate {
    match cfg.scheme {
        SchemeId::Vct | SchemeId::Tfc => certify_cdg(cfg),
        SchemeId::EscapeVc => certify_escape_vc(cfg),
        SchemeId::Spin | SchemeId::Swap | SchemeId::Drain => certify_recovery(cfg),
        SchemeId::Pitstop => certify_pitstop(cfg),
        SchemeId::MinBd => certify_minbd(cfg),
        SchemeId::FastPass => match &cfg.fault {
            Some(fault) => certify_holistic(cfg, fault),
            None => certify_fastpass(cfg),
        },
    }
}

fn base(cfg: &ProveConfig, policy: &str, proof: &str) -> Certificate {
    Certificate {
        config: cfg.name.clone(),
        scheme: cfg.scheme.name().to_string(),
        mesh: format!("{}x{}", cfg.sim.mesh.width(), cfg.sim.mesh.height()),
        policy: policy.to_string(),
        vns: cfg.sim.vns,
        vcs_per_vn: cfg.sim.vcs_per_vn,
        protocol_coupling: cfg.coupling,
        disabled_channels: cfg
            .fault
            .as_ref()
            .map(|f| {
                f.disabled
                    .iter()
                    .map(|&(a, b)| format!("R{a}-R{b}"))
                    .collect()
            })
            .unwrap_or_default(),
        vertices: 0,
        edges: 0,
        routable: true,
        verdict: VERDICT_CERTIFIED.to_string(),
        proof: proof.to_string(),
        witness: Vec::new(),
        cycle: Vec::new(),
        failures: Vec::new(),
    }
}

fn cycle_labels(space: ChannelSpace, cycle: &[u32]) -> Vec<String> {
    let mut labels: Vec<String> = cycle.iter().map(|&v| space.label(v)).collect();
    if let Some(first) = labels.first().cloned() {
        labels.push(first); // close the path for readability
    }
    labels
}

/// Dally-style proof: the full extended CDG must be acyclic.
fn certify_cdg(cfg: &ProveConfig) -> Certificate {
    let kind = cfg.scheme.policy_kind();
    let mut cert = base(cfg, kind.name(), "cdg-acyclic");
    let (g, space, rg) = build_cdg(&cfg.sim, kind, cfg.coupling, false);
    cert.vertices = g.num_vertices();
    cert.edges = g.num_edges();
    cert.routable = rg.routable();
    if !rg.routable() {
        cert.verdict = VERDICT_REFUTED.to_string();
        cert.failures = rg.dead_ends;
        return cert;
    }
    match g.find_cycle() {
        None => {
            cert.witness.push(format!(
                "restricted CDG acyclic over {} route continuations{}",
                rg.continuations.len(),
                if cfg.coupling {
                    " + protocol-coupling edges"
                } else {
                    ""
                }
            ));
        }
        Some(c) => {
            cert.verdict = VERDICT_CYCLE.to_string();
            cert.cycle = cycle_labels(space, &c);
        }
    }
    cert
}

/// Duato's condition for EscapeVC: the escape subnetwork (first VC of
/// every VN, XY-routed) is acyclic and reachable from every hop.
fn certify_escape_vc(cfg: &ProveConfig) -> Certificate {
    let kind = cfg.scheme.policy_kind();
    let mut cert = base(cfg, &format!("adaptive+{}", kind.name()), "duato-escape");
    let (esc, space, rg) = build_cdg(&cfg.sim, kind, cfg.coupling, true);
    cert.vertices = esc.num_vertices();
    cert.edges = esc.num_edges();
    cert.routable = rg.routable();
    if !rg.routable() {
        cert.verdict = VERDICT_REFUTED.to_string();
        cert.failures = rg.dead_ends;
        return cert;
    }
    match esc.find_cycle() {
        None => {
            cert.witness.push(format!(
                "escape subnetwork (VC range.start per VN, xy-routed) acyclic: {} edges",
                esc.num_edges()
            ));
            cert.witness.push(
                "transfer condition: the escape VC of the XY next hop is requestable \
                 from every channel (xy has no dead ends)"
                    .to_string(),
            );
        }
        Some(c) => {
            cert.verdict = VERDICT_CYCLE.to_string();
            cert.cycle = cycle_labels(space, &c);
        }
    }
    cert
}

/// SPIN/SWAP/DRAIN: statically cyclic by design — certify routability
/// and record the cycle the recovery mechanism exists to break.
fn certify_recovery(cfg: &ProveConfig) -> Certificate {
    let kind = cfg.scheme.policy_kind();
    let mut cert = base(cfg, kind.name(), "dynamic-recovery");
    let (g, space, rg) = build_cdg(&cfg.sim, kind, cfg.coupling, false);
    cert.vertices = g.num_vertices();
    cert.edges = g.num_edges();
    cert.routable = rg.routable();
    if !rg.routable() {
        cert.verdict = VERDICT_REFUTED.to_string();
        cert.failures = rg.dead_ends;
        return cert;
    }
    match g.find_cycle() {
        Some(c) => {
            cert.witness.push(format!(
                "fully-adaptive CDG is statically cyclic (length-{} cycle recorded); \
                 deadlock freedom relies on runtime detection and recovery, \
                 witnessed dynamically by noc-check",
                c.len()
            ));
            cert.witness.push(format!(
                "evidence cycle: {}",
                cycle_labels(space, &c).join(" -> ")
            ));
        }
        None => {
            cert.witness
                .push("fully-adaptive CDG acyclic on this mesh (degenerate size)".to_string());
        }
    }
    cert
}

/// Pitstop: class-rotation pit lanes are an ejection-independent escape.
fn certify_pitstop(cfg: &ProveConfig) -> Certificate {
    let pitstop = cfg.tuning.pitstop;
    let kind = cfg.scheme.policy_kind();
    let mut cert = base(cfg, kind.name(), "class-rotation-escape");
    cert.vertices = cfg.sim.mesh.num_links() * cfg.sim.vcs_per_port();
    let rg = crate::model::route_graph(kind, cfg.sim.mesh);
    cert.routable = rg.routable();
    if pitstop.class_period == 0 {
        cert.failures
            .push("class_period must be positive for the rotation to advance".into());
    }
    if pitstop.pit_capacity == 0 {
        cert.failures
            .push("pit_capacity must be positive for pit pulls to succeed".into());
    }
    if !rg.routable() {
        cert.failures.extend(rg.dead_ends);
    }
    if cert.failures.is_empty() {
        cert.witness.push(format!(
            "pit lanes rotate through all {} classes every {} cycles; every blocked \
             packet is pit-eligible once per rotation, independent of ejection",
            noc_core::packet::NUM_CLASSES,
            pitstop.class_period * noc_core::packet::NUM_CLASSES as u64
        ));
    } else {
        cert.verdict = VERDICT_REFUTED.to_string();
    }
    cert
}

/// MinBD: deflection routers never block on credits, so the CDG is
/// edgeless; the obligations are structural.
fn certify_minbd(cfg: &ProveConfig) -> Certificate {
    let minbd = cfg.tuning.minbd;
    let mut cert = base(cfg, "deflection", "deflection");
    cert.vertices = cfg.sim.mesh.num_links() * cfg.sim.vcs_per_port();
    if minbd.eject_bandwidth == 0 {
        cert.failures
            .push("eject_bandwidth must be positive: flits could never leave".into());
    }
    if minbd.side_capacity == 0 {
        cert.failures
            .push("side_capacity must be positive for buffered redirection".into());
    }
    if cert.failures.is_empty() {
        cert.witness.push(format!(
            "deflection never waits on downstream credits: zero buffer-dependency \
             edges; side buffer {} flits, eject bandwidth {}/cycle",
            minbd.side_capacity, minbd.eject_bandwidth
        ));
    } else {
        cert.verdict = VERDICT_REFUTED.to_string();
    }
    cert
}

/// FastPass on a regular mesh: the paper's static lane lemmas.
fn certify_fastpass(cfg: &ProveConfig) -> Certificate {
    let kind = cfg.scheme.policy_kind();
    let mut cert = base(cfg, &format!("tdm-lanes+{}", kind.name()), "tdm-escape");
    cert.vertices = cfg.sim.mesh.num_links() * cfg.sim.vcs_per_port();
    let mesh = cfg.sim.mesh;
    let schedule = match cfg.tuning.fastpass.slot_cycles {
        Some(k) => TdmSchedule::with_slot_cycles(mesh, k),
        None => TdmSchedule::new(mesh, cfg.sim.vcs_per_port()),
    };
    // Lane disjointness: every slot of a full rotation, plus mid-slot
    // probes (the footprint is slot-position dependent only through the
    // covered partition, but probing guards against regressions).
    if let Err(c) = verify_rotation_disjoint(mesh, schedule) {
        cert.failures.push(format!("rotation lanes overlap: {c}"));
    }
    for probe in [0, schedule.slot_cycles() / 2, schedule.slot_cycles() - 1] {
        if let Err(c) = verify_slot_disjoint(mesh, schedule, probe) {
            cert.failures.push(format!("mid-slot lanes overlap: {c}"));
        }
    }
    // Lemma 2: every router is prime exactly once per rotation.
    let mut prime_count = vec![0usize; mesh.num_nodes()];
    for phase in 0..mesh.height() as u64 {
        for p in 0..schedule.partitions() {
            prime_count[schedule.prime(p, phase).index()] += 1;
        }
    }
    if let Some(missing) = prime_count.iter().position(|&c| c == 0) {
        cert.failures.push(format!(
            "Lemma 2 violated: R{missing} is never prime in a full rotation"
        ));
    }
    // The regular network routes fully adaptively; its deadlock freedom
    // comes from the lane escape, but it must at least be routable.
    let rg = crate::model::route_graph(kind, mesh);
    cert.routable = rg.routable();
    if !rg.routable() {
        cert.failures.extend(rg.dead_ends);
    }
    if cert.failures.is_empty() {
        cert.witness.push(format!(
            "TDM lanes pairwise disjoint in all {} slots of the {}-cycle rotation \
             (slot K = {})",
            schedule.partitions() as u64 * mesh.height() as u64,
            schedule.rotation_cycles(),
            schedule.slot_cycles()
        ));
        cert.witness.push(format!(
            "every router prime once per rotation ({} routers × {} phases): the lane \
             network drains any blocked packet independent of ejection state",
            mesh.num_nodes(),
            mesh.height()
        ));
    } else {
        cert.verdict = VERDICT_REFUTED.to_string();
    }
    cert
}

/// FastPass on a fault-degraded topology: §III-F's holistic-path lane
/// construction must survive the disabled channels.
fn certify_holistic(cfg: &ProveConfig, fault: &noc_core::FaultConfig) -> Certificate {
    let mut cert = base(cfg, "holistic-lanes", "holistic-lanes");
    let topo = IrregularTopo::from_fault_config(fault);
    let links = topo.directed_links().len();
    cert.vertices = links;
    if !topo.is_connected() {
        cert.routable = false;
        cert.failures
            .push("degraded topology is disconnected".to_string());
        cert.verdict = VERDICT_REFUTED.to_string();
        return cert;
    }
    let path = match holistic_path(&topo) {
        Ok(p) => p,
        Err(e) => {
            cert.failures.push(format!("holistic path failed: {e}"));
            cert.verdict = VERDICT_REFUTED.to_string();
            return cert;
        }
    };
    if path.len() != links {
        cert.failures.push(format!(
            "holistic path covers {} of {links} surviving directed links",
            path.len()
        ));
    }
    let mut partitions_checked = Vec::new();
    for p in [2usize, 4, 8] {
        if p > path.len() {
            continue;
        }
        let segs = segment(&path, p);
        let total: usize = segs.iter().map(|s| s.len()).sum();
        if segs.len() != p || total != path.len() {
            cert.failures
                .push(format!("segmentation into {p} lanes lost links"));
        }
        let mut seen = std::collections::BTreeSet::new();
        for s in &segs {
            for &e in s {
                if !seen.insert(e) {
                    cert.failures
                        .push(format!("lane overlap on directed link {e:?} at p={p}"));
                }
            }
        }
        partitions_checked.push(p);
    }
    if cert.failures.is_empty() {
        cert.witness.push(format!(
            "holistic path (Eulerian circuit) covers all {links} surviving directed \
             links; disjoint lane segmentation verified for p ∈ {partitions_checked:?}"
        ));
    } else {
        cert.verdict = VERDICT_REFUTED.to_string();
    }
    cert
}
