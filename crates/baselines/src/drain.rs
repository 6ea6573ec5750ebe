//! DRAIN \[24\]: deadlock removal by periodic coordinated circulation.
//!
//! DRAIN never detects anything: on a coarse period (Table II: 64K
//! cycles) the whole network enters a *drain epoch* during which regular
//! movement is frozen and every buffered packet circulates in lockstep
//! along a predefined Hamiltonian ring. Because everyone moves at once,
//! movement never needs free buffers — any deadlock cycle is forcibly
//! rotated apart, and packets passing over their destination eject. The
//! price is wholesale misrouting, which is what gives DRAIN the worst
//! tail latency in Fig. 12.
//!
//! The ring is the classic serpentine Hamiltonian cycle, which exists
//! whenever at least one mesh dimension is even (an odd×odd mesh has an
//! odd number of vertices and, being bipartite, admits no Hamiltonian
//! cycle — construction rejects it, as does the DRAIN paper's).

use noc_core::packet::PacketId;
use noc_core::topology::{Mesh, NodeId, Port, NUM_PORTS};
use noc_sim::network::NetworkCore;
use noc_sim::ni::EjectEntry;
use noc_sim::regular::{advance, AdvanceCtx};
use noc_sim::routing::FullyAdaptive;
use noc_sim::scheme::Scheme;

/// Tunables for [`Drain`].
#[derive(Debug, Clone, Copy)]
pub struct DrainConfig {
    /// Cycles between drain epochs (Table II: 64K).
    pub period: u64,
    /// Cycles per ring step during an epoch (packet serialization:
    /// the maximum packet length).
    pub step_cycles: u64,
}

impl Default for DrainConfig {
    fn default() -> Self {
        DrainConfig {
            period: 64_000,
            step_cycles: 5,
        }
    }
}

/// Whether [`hamiltonian_ring`] can build a ring over `mesh`: both
/// edges at least 2 and one of them even. The scheme catalogue refuses
/// a DRAIN configuration on any other mesh through this predicate.
pub fn has_hamiltonian_ring(mesh: Mesh) -> bool {
    let (w, h) = (mesh.width(), mesh.height());
    w >= 2 && h >= 2 && (w % 2 == 0 || h % 2 == 0)
}

/// Builds the serpentine Hamiltonian cycle over a mesh.
///
/// Row 0 is traversed fully east; rows 1..h serpentine over columns
/// 1..w; column 0 carries the return path north. Requires even height
/// (or transposes the construction if the width is even instead).
///
/// # Panics
///
/// Panics where [`has_hamiltonian_ring`] is false: for odd×odd meshes
/// (no Hamiltonian cycle exists) and for degenerate single-row/column
/// meshes.
pub fn hamiltonian_ring(mesh: Mesh) -> Vec<NodeId> {
    let (w, h) = (mesh.width(), mesh.height());
    assert!(
        has_hamiltonian_ring(mesh),
        "a {w}x{h} mesh has no Hamiltonian ring: it needs both edges at least 2 \
         and one even (odd×odd meshes admit no Hamiltonian cycle)"
    );
    // Ensure even height; otherwise build on the transpose and flip.
    let transpose = h % 2 != 0;
    let (w, h) = if transpose { (h, w) } else { (w, h) };
    let mut path = Vec::with_capacity(w * h);
    let push = |path: &mut Vec<NodeId>, x: usize, y: usize| {
        let (x, y) = if transpose { (y, x) } else { (x, y) };
        path.push(mesh.node(x, y));
    };
    for x in 0..w {
        push(&mut path, x, 0);
    }
    for y in 1..h {
        if y % 2 == 1 {
            for x in (1..w).rev() {
                push(&mut path, x, y);
            }
        } else {
            for x in 1..w {
                push(&mut path, x, y);
            }
        }
    }
    for y in (1..h).rev() {
        push(&mut path, 0, y);
    }
    path
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Normal,
    /// Draining: `steps_left` ring steps remain; next step fires when
    /// `cycle % step_cycles == 0`.
    Draining {
        steps_left: usize,
    },
}

/// The DRAIN baseline (implements [`Scheme`]).
#[derive(Debug, Clone)]
pub struct Drain {
    cfg: DrainConfig,
    routing: FullyAdaptive,
    ring_next: Vec<usize>, // node index -> successor node index
    mode: Mode,
    /// Drain epochs entered (diagnostics).
    pub epochs: u64,
    /// Packets force-moved during drains (diagnostics).
    pub moves: u64,
}

impl Drain {
    /// Creates the scheme for the given mesh.
    pub fn new(mesh: Mesh, seed: u64, cfg: DrainConfig) -> Self {
        let ring = hamiltonian_ring(mesh);
        let mut ring_next = vec![usize::MAX; mesh.num_nodes()];
        for (i, &n) in ring.iter().enumerate() {
            ring_next[n.index()] = ring[(i + 1) % ring.len()].index();
        }
        Drain {
            cfg,
            routing: FullyAdaptive::new(seed ^ 0xD9A1),
            ring_next,
            mode: Mode::Normal,
            epochs: 0,
            moves: 0,
        }
    }

    /// One lockstep ring rotation: every movable packet advances to the
    /// same `(port, vc)` slot at its ring successor. A slot moves iff the
    /// whole chain ahead of it moves or ends in a free slot, computed per
    /// slot column around the ring.
    fn rotate_ring(&mut self, core: &mut NetworkCore) {
        let mesh = core.mesh();
        let now = core.cycle();
        let vcs = core.cfg().vcs_per_port();
        let n = mesh.num_nodes();
        for p in 0..NUM_PORTS {
            for vc in 0..vcs {
                // movable[i]: node i's (p,vc) occupant can participate.
                let mut movable = vec![false; n];
                let mut occupied = vec![false; n];
                for i in 0..n {
                    if let Some(occ) = core.input(NodeId::new(i), p).occupant(vc) {
                        occupied[i] = true;
                        movable[i] = occ.quiescent() && occ.out_vc.is_none();
                    }
                }
                // A movable packet moves iff its successor slot is free
                // or itself moving. Resolve by propagating "can move"
                // backward around each ring chain; iterate to fixpoint
                // (ring length bounded, cheap).
                let mut moves = movable.clone();
                loop {
                    let mut changed = false;
                    for i in 0..n {
                        if !moves[i] {
                            continue;
                        }
                        let succ = self.ring_next[i];
                        if occupied[succ] && !moves[succ] {
                            moves[i] = false;
                            changed = true;
                        }
                    }
                    if !changed {
                        break;
                    }
                }
                // Extract movers simultaneously, then reinstall shifted.
                let mut in_air: Vec<(usize, PacketId)> = Vec::new();
                for (i, &m) in moves.iter().enumerate() {
                    if m {
                        let pkt = core.take_vc_packet(NodeId::new(i), Port::from_index(p), vc);
                        in_air.push((self.ring_next[i], pkt));
                    }
                }
                for (target, pkt) in in_air {
                    let node = NodeId::new(target);
                    self.moves += 1;
                    let (class, arrived_home) = {
                        let pk = core.store.get_mut(pkt);
                        pk.hops += 1;
                        pk.deflections += 1; // circulation is misrouting
                        (pk.class, pk.dst == node)
                    };
                    // Eject in passing if this is the destination and the
                    // queue has room; otherwise keep circulating.
                    if arrived_home && core.ni(node).ej_can_accept(class, pkt) {
                        let ready = now + core.cfg().ni_consume_cycles;
                        core.ni_mut(node).ej_begin(class, pkt);
                        core.store.get_mut(pkt).eject_cycle.set(now);
                        core.ni_mut(node)
                            .ej_commit(class, EjectEntry { pkt, ready });
                        continue;
                    }
                    core.put_vc_packet(node, Port::from_index(p), vc, pkt);
                }
            }
        }
    }
}

impl Scheme for Drain {
    fn required_vns(&self) -> usize {
        6
    }

    fn step(&mut self, core: &mut NetworkCore) {
        let cycle = core.cycle();
        match self.mode {
            Mode::Normal => {
                if cycle > 0 && cycle.is_multiple_of(self.cfg.period) {
                    self.mode = Mode::Draining {
                        steps_left: core.mesh().num_nodes(),
                    };
                    self.epochs += 1;
                }
            }
            Mode::Draining { steps_left } => {
                if cycle.is_multiple_of(self.cfg.step_cycles) {
                    self.rotate_ring(core);
                    if steps_left <= 1 {
                        self.mode = Mode::Normal;
                    } else {
                        self.mode = Mode::Draining {
                            steps_left: steps_left - 1,
                        };
                    }
                }
            }
        }
        let freeze = matches!(self.mode, Mode::Draining { .. });
        let ctx = AdvanceCtx {
            freeze,
            ..Default::default()
        };
        advance(core, &mut self.routing, &ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::config::SimConfig;
    use noc_sim::Simulation;
    use traffic::{SyntheticPattern, SyntheticWorkload};

    #[test]
    fn ring_is_hamiltonian() {
        for (w, h) in [(4, 4), (8, 8), (4, 6), (5, 4), (2, 2), (3, 4)] {
            let mesh = Mesh::new(w, h);
            let ring = hamiltonian_ring(mesh);
            assert_eq!(ring.len(), mesh.num_nodes(), "{w}x{h}: visits all");
            let set: std::collections::HashSet<_> = ring.iter().collect();
            assert_eq!(set.len(), ring.len(), "{w}x{h}: each node once");
            for i in 0..ring.len() {
                let a = ring[i];
                let b = ring[(i + 1) % ring.len()];
                assert_eq!(
                    mesh.hops(a, b),
                    1,
                    "{w}x{h}: ring step {a}->{b} not adjacent"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "odd×odd")]
    fn odd_odd_rejected() {
        let _ = hamiltonian_ring(Mesh::new(3, 3));
    }

    #[test]
    fn rings_exist_where_an_edge_is_even_and_none_is_one() {
        for (w, h, ring) in [
            (2, 2, true),
            (3, 4, true),
            (5, 2, true),
            (3, 3, false),
            (1, 4, false),
        ] {
            assert_eq!(has_hamiltonian_ring(Mesh::new(w, h)), ring, "{w}x{h}");
        }
    }

    #[test]
    fn survives_saturation() {
        let cfg = SimConfig::builder()
            .mesh(4, 4)
            .vns(6)
            .vcs_per_vn(1)
            .seed(5)
            .build();
        let mesh = cfg.mesh;
        let mut sim = Simulation::new(
            cfg,
            Box::new(Drain::new(
                mesh,
                1,
                DrainConfig {
                    period: 2_000,
                    step_cycles: 5,
                },
            )),
            Box::new(SyntheticWorkload::new(SyntheticPattern::Transpose, 0.7, 2)),
        );
        sim.run(40_000);
        assert!(
            sim.starvation_cycles() < 5_000,
            "DRAIN wedged: {}",
            sim.starvation_cycles()
        );
        assert!(sim.total_consumed() > 300);
    }

    #[test]
    fn drains_misroute_packets() {
        let cfg = SimConfig::builder()
            .mesh(4, 4)
            .vns(6)
            .vcs_per_vn(1)
            .seed(5)
            .build();
        let mesh = cfg.mesh;
        let mut sim = Simulation::new(
            cfg,
            Box::new(Drain::new(
                mesh,
                1,
                DrainConfig {
                    period: 500,
                    step_cycles: 5,
                },
            )),
            Box::new(SyntheticWorkload::new(SyntheticPattern::Uniform, 0.4, 2)),
        );
        let stats = sim.run_windows(2_000, 8_000);
        assert!(
            stats.deflections > 0,
            "frequent drains must misroute buffered packets"
        );
    }

    #[test]
    fn no_epoch_before_period() {
        let cfg = SimConfig::builder()
            .mesh(4, 4)
            .vns(6)
            .vcs_per_vn(2)
            .seed(5)
            .build();
        let mesh = cfg.mesh;
        let mut core = NetworkCore::new(cfg);
        let mut drain = Drain::new(mesh, 1, DrainConfig::default());
        for _ in 0..10_000 {
            drain.step(&mut core);
            core.advance_cycle();
        }
        assert_eq!(drain.epochs, 0, "default period is 64K");
    }
}
