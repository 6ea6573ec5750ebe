//! Active-set equivalence gate: the node work-sets visit exactly what
//! the dense all-nodes scans they replaced would visit, in the same
//! order.
//!
//! The cycle loop no longer asks every node whether it is active, and
//! the NI consumer no longer polls every NI: both walk bitsets
//! (`VcArena::occ_nodes`, exact; `NetworkCore::ni_live`, a lazily
//! cleared superset). The golden fixtures prove the *results* unchanged
//! on the meshes they pin; this gate proves the *visit sequences*
//! unchanged, every cycle, on meshes whose node count is below, across
//! and far beyond one 64-bit word (3x5 = 15, 9x9 = 81, 16x16 = 256),
//! for all eight schemes from zero load to past saturation and for
//! closed-loop protocol traffic:
//!
//! * **worklist** — before each cycle,
//!   [`NetworkCore::active_nodes`](noc_sim::NetworkCore::active_nodes)
//!   equals `nodes_rotating().filter(node_active)`. (Debug builds also
//!   assert this inside `regular::advance`, at the point of use; CI runs
//!   this file in debug for that reason, and in release.)
//! * **consume order** — the consumer asks `Workload::can_consume` once
//!   per (node, class) with a queued delivery. The recorded questions of
//!   a cycle must be strictly ascending in (node, class) — the dense
//!   loop's order — and complete: ejection queues only shrink while the
//!   consumer runs, so a queue still nonempty after the cycle was
//!   nonempty when the dense loop would have reached it, and must have
//!   been asked about.

use bench::{SchemeId, ALL_SCHEMES};
use noc_core::config::SimConfig;
use noc_core::packet::{MessageClass, Packet, CLASSES};
use noc_core::topology::NodeId;
use noc_sim::{NetworkCore, Simulation, Workload};
use std::sync::{Arc, Mutex};
use traffic::{AppModel, SyntheticPattern, SyntheticWorkload};

const RATES: [f64; 3] = [0.01, 0.08, 0.14];
/// `(width, height, cycles)`: fewer cycles on the big mesh keep the
/// debug-build run short; every mesh still fills and drains.
const MESHES: [(usize, usize, u64); 3] = [(3, 5, 1_200), (9, 9, 500), (16, 16, 250)];

/// The `(node, class)` pairs the consumer asked about, in order.
type Asked = Arc<Mutex<Vec<(usize, usize)>>>;

/// Delegates everything and records every `can_consume` question.
#[derive(Clone)]
struct Observed {
    inner: Box<dyn Workload>,
    asked: Asked,
}

impl Workload for Observed {
    fn tick(&mut self, core: &mut NetworkCore) {
        self.inner.tick(core);
    }
    fn on_consumed(&mut self, core: &mut NetworkCore, pkt: &Packet) {
        self.inner.on_consumed(core, pkt);
    }
    fn can_consume(&self, node: NodeId, class: MessageClass) -> bool {
        self.asked
            .lock()
            .expect("no panic while holding the log")
            .push((node.index(), class.index()));
        self.inner.can_consume(node, class)
    }
    fn finished(&self, core: &NetworkCore) -> bool {
        self.inner.finished(core)
    }
}

/// The Table II configuration of `id` on a `w x h` mesh. DRAIN needs a
/// Hamiltonian ring, which no odd x odd mesh has: it gets one more
/// column there (4x5 = 20 nodes, 10x9 = 90, still two words).
fn config(id: SchemeId, w: usize, h: usize, seed: u64) -> SimConfig {
    let w = w + usize::from(id == SchemeId::Drain && w % 2 == 1 && h % 2 == 1);
    let square = id.sim_config(w, 2, seed);
    SimConfig::builder()
        .mesh(w, h)
        .vns(square.vns)
        .vcs_per_vn(square.vcs_per_vn)
        .seed(seed)
        .build()
}

fn observed_sim(id: SchemeId, cfg: SimConfig, workload: Box<dyn Workload>) -> (Simulation, Asked) {
    let asked = Asked::default();
    let scheme = id.build(&cfg, cfg.seed);
    let observed = Observed {
        inner: workload,
        asked: Arc::clone(&asked),
    };
    (Simulation::new(cfg, scheme, Box::new(observed)), asked)
}

/// What one run saw, for the non-vacuity checks.
#[derive(Default)]
struct Seen {
    sparse_cycles: u64,
    questions: u64,
}

/// Steps `sim` up to `cycles` times, checking both equivalences around
/// every cycle.
fn run_checked(sim: &mut Simulation, asked: &Asked, cycles: u64, what: &str) -> Seen {
    let mut seen = Seen::default();
    let nodes = sim.core.mesh().num_nodes();
    for _ in 0..cycles {
        if sim.workload_finished() {
            break;
        }
        let core = &sim.core;
        let cycle = core.cycle();
        let dense: Vec<NodeId> = core
            .nodes_rotating()
            .filter(|&n| core.node_active(n))
            .collect();
        let walked: Vec<NodeId> = core.active_nodes().collect();
        assert_eq!(walked, dense, "{what}: worklist at cycle {cycle}");
        seen.sparse_cycles += u64::from(!dense.is_empty() && dense.len() < nodes);

        asked.lock().expect("log lock").clear();
        sim.step();
        let asked = asked.lock().expect("log lock");
        assert!(
            asked.windows(2).all(|w| w[0] < w[1]),
            "{what}: consumer left ascending (node, class) order at cycle {cycle}: {asked:?}"
        );
        for node in sim.core.mesh().nodes() {
            for class in CLASSES {
                assert!(
                    sim.core.ni(node).ej_len(class) == 0
                        || asked.binary_search(&(node.index(), class.index())).is_ok(),
                    "{what}: {node} holds a {class} delivery the consumer never \
                     looked at in cycle {cycle}"
                );
            }
        }
        seen.questions += asked.len() as u64;
    }
    sim.assert_conserved();
    seen
}

#[test]
fn synthetic_visit_sequences_match_the_dense_scans() {
    for (w, h, cycles) in MESHES {
        let mut sparse_cycles = 0;
        for id in ALL_SCHEMES {
            for rate in RATES {
                let what = format!("{} {w}x{h} rate {rate}", id.name());
                let cfg = config(id, w, h, 31);
                let workload = SyntheticWorkload::new(SyntheticPattern::Uniform, rate, 77);
                let (mut sim, asked) = observed_sim(id, cfg, Box::new(workload));
                let seen = run_checked(&mut sim, &asked, cycles, &what);
                assert!(sim.total_consumed() > 0, "{what}: nothing was delivered");
                assert!(
                    seen.questions >= sim.total_consumed(),
                    "{what}: every delivery taken was asked about first"
                );
                sparse_cycles += seen.sparse_cycles;
            }
        }
        assert!(
            sparse_cycles > 0,
            "{w}x{h}: the worklist never was a proper subset of the mesh, \
             so the sparse walk went untested"
        );
    }
}

#[test]
fn protocol_visit_sequences_match_the_dense_scans() {
    // Closed loop: `on_consumed` generates replies (marking NIs live
    // mid-walk) and `can_consume` really refuses. Two words of nodes.
    for id in [SchemeId::FastPass, SchemeId::Pitstop, SchemeId::EscapeVc] {
        let what = format!("{} 9x9 FFT", id.name());
        let cfg = config(id, 9, 9, 13);
        let workload = AppModel::Fft.workload(81, Some(6));
        let (mut sim, asked) = observed_sim(id, cfg, Box::new(workload));
        let seen = run_checked(&mut sim, &asked, 4_000, &what);
        assert!(sim.total_consumed() > 200, "{what}: traffic flowed");
        assert!(
            seen.questions >= sim.total_consumed(),
            "{what}: every delivery taken was asked about first"
        );
        assert!(seen.sparse_cycles > 0, "{what}: sparse walk exercised");
    }
}
