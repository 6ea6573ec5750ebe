//! Wait-for-graph construction and SPIN's synchronized rotation.
//!
//! A vertex is a buffered packet occupying a VC; an edge `v → w` means
//! "the packet at `v` could make its next hop into the buffer currently
//! held by `w`" — i.e. `w`'s VC is at a downstream input port `v` desires
//! and lies in `v`'s packet's VC range. A directed cycle of *quiescent*
//! packets is a (potential) network-level deadlock: rotating every packet
//! one step along the cycle is exactly SPIN's synchronized movement, and
//! detecting such cycles is how the integration tests prove FastPass
//! resolves deadlocks rather than merely avoiding the traffic that causes
//! them. The graph is a [`Digraph`], so the cycle search is the
//! workspace's one DFS ([`Digraph::find_cycle`]).

use crate::network::NetworkCore;
use crate::routing::{RouteReq, RoutingPolicy};
use noc_core::graph::Digraph;
use noc_core::packet::PacketId;
use noc_core::topology::{NodeId, Port, NUM_PORTS};
use std::collections::BTreeMap;

/// A buffered packet's position.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BufferPos {
    /// Router holding the packet.
    pub node: NodeId,
    /// Input port index.
    pub port: usize,
    /// VC index.
    pub vc: usize,
}

/// The wait-for graph over currently blocked, quiescent packets: the
/// vertices' positions plus their dependency [`Digraph`], whose vertex
/// `i` is the packet at [`WaitGraph::vertex`]`(i)`.
#[derive(Debug, Clone)]
pub struct WaitGraph {
    verts: Vec<(BufferPos, PacketId)>,
    deps: Digraph,
}

impl WaitGraph {
    /// Builds the graph from the network's current state.
    ///
    /// Vertices are quiescent occupants without an allocated route (they
    /// are the packets actually waiting on buffers). `min_blocked` filters
    /// to packets that have made no progress for at least that many
    /// cycles (SPIN's detection threshold; 0 captures everything).
    pub fn build(core: &NetworkCore, policy: &dyn RoutingPolicy, min_blocked: u64) -> Self {
        let now = core.cycle();
        let vcs = core.vcs_per_port();
        let mut verts = Vec::new();
        let mut index = BTreeMap::new();
        for node in core.mesh().nodes() {
            for port in 0..NUM_PORTS {
                for vc in 0..vcs {
                    if let Some(occ) = core.input(node, port).occupant(vc) {
                        if occ.quiescent()
                            && occ.route.is_none()
                            && occ.blocked_for(now) >= min_blocked
                        {
                            let pos = BufferPos { node, port, vc };
                            index.insert(pos, verts.len() as u32);
                            verts.push((pos, occ.pkt));
                        }
                    }
                }
            }
        }
        let mut deps = Digraph::new(verts.len());
        for (vi, &(pos, pkt_id)) in verts.iter().enumerate() {
            let req = RouteReq::new(core, pos.node, Port::from_index(pos.port), pos.vc, pkt_id);
            for d in policy.desired_ports(core, &req).iter() {
                let Some(nbr) = core.neighbor(pos.node, d) else {
                    continue;
                };
                let in_port = Port::Dir(d.opposite()).index();
                let range = core.cfg().vc_range_for_class(req.class.index());
                for vc in range {
                    let target = BufferPos {
                        node: nbr,
                        port: in_port,
                        vc,
                    };
                    if let Some(&wi) = index.get(&target) {
                        deps.add_edge(vi as u32, wi);
                    }
                }
            }
        }
        WaitGraph { verts, deps }
    }

    /// Number of vertices (blocked quiescent packets).
    pub fn len(&self) -> usize {
        self.verts.len()
    }

    /// Whether the graph is empty.
    pub fn is_empty(&self) -> bool {
        self.verts.is_empty()
    }

    /// Position and packet of vertex `i`.
    pub fn vertex(&self, i: u32) -> (BufferPos, PacketId) {
        self.verts[i as usize]
    }

    /// The dependency edges: `v → w` when `v`'s packet could move into
    /// `w`'s buffer. A cycle of it ([`Digraph::find_cycle`]) is a
    /// (potential) deadlock that [`rotate_cycle`] spins.
    pub fn deps(&self) -> &Digraph {
        &self.deps
    }
}

/// Rotates every packet one step along `cycle` (SPIN's synchronized
/// movement): each packet moves into the buffer of the next vertex, which
/// is simultaneously vacated. All moves are legal by construction of the
/// graph's edges.
///
/// Returns the packets that moved.
///
/// # Panics
///
/// Panics if any occupant vanished or became non-quiescent since the
/// graph was built (callers must use a freshly built graph).
pub fn rotate_cycle(core: &mut NetworkCore, graph: &WaitGraph, cycle: &[u32]) -> Vec<PacketId> {
    // Take every packet out first (simultaneous), then reinstall shifted.
    let mut taken = Vec::with_capacity(cycle.len());
    for &vi in cycle {
        let (pos, expect) = graph.vertex(vi);
        let pkt = core.take_vc_packet(pos.node, Port::from_index(pos.port), pos.vc);
        assert_eq!(pkt, expect, "wait graph went stale");
        taken.push(pkt);
    }
    let mut moved = Vec::with_capacity(cycle.len());
    for k in 0..cycle.len() {
        let next = cycle[(k + 1) % cycle.len()];
        let (npos, _) = graph.vertex(next);
        let pkt = taken[k];
        core.put_vc_packet(npos.node, Port::from_index(npos.port), npos.vc, pkt);
        core.store.get_mut(pkt).hops += 1;
        moved.push(pkt);
    }
    moved
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::FullyAdaptive;
    use crate::vc::VcOccupant;
    use noc_core::config::SimConfig;
    use noc_core::packet::{MessageClass, Packet};
    use noc_core::topology::Direction;

    fn core() -> NetworkCore {
        NetworkCore::new(SimConfig::builder().mesh(2, 2).vns(0).vcs_per_vn(1).build())
    }

    /// Places a quiescent packet into a specific buffer.
    fn place(core: &mut NetworkCore, node: usize, port: Port, src: usize, dst: usize) {
        let id = core.store.insert(Packet::new(
            NodeId::new(src),
            NodeId::new(dst),
            MessageClass::Request,
            1,
            0,
        ));
        let mut occ = VcOccupant::reserved(id, 1, 0);
        occ.arrived = 1;
        core.input_mut(NodeId::new(node), port.index())
            .install(0, occ);
    }

    /// Builds the canonical 4-packet clockwise deadlock on a 2×2 mesh:
    /// every packet wants to turn through the buffer the next one holds.
    /// Node layout: 0=(0,0) 1=(1,0) 2=(0,1) 3=(1,1).
    fn build_deadlocked_core() -> NetworkCore {
        let mut c = core();
        // Four packets, one per mesh corner, each buffered on the input
        // port the previous one wants to move into:
        //   at 0 (South input), dst 3 → wants E into 1's West buffer,
        //   at 1 (West input),  dst 2 → wants S into 3's North buffer,
        //   at 3 (North input), dst 2 → wants W into 2's East buffer,
        //   at 2 (East input),  dst 0 → wants N into 0's South buffer.
        place(&mut c, 0, Port::Dir(Direction::South), 2, 3);
        place(&mut c, 1, Port::Dir(Direction::West), 0, 2);
        place(&mut c, 3, Port::Dir(Direction::North), 1, 2);
        place(&mut c, 2, Port::Dir(Direction::East), 3, 0);
        c
    }

    #[test]
    fn detects_constructed_cycle() {
        let c = build_deadlocked_core();
        let policy = FullyAdaptive::new(1);
        let g = WaitGraph::build(&c, &policy, 0);
        assert_eq!(g.len(), 4);
        assert!(
            g.deps().find_cycle().is_some(),
            "the 4-packet ring must be detected"
        );
    }

    #[test]
    fn no_cycle_when_buffers_free() {
        let mut c = core();
        place(&mut c, 0, Port::Local, 2, 3);
        let policy = FullyAdaptive::new(1);
        let g = WaitGraph::build(&c, &policy, 0);
        assert_eq!(g.len(), 1);
        assert!(g.deps().find_cycle().is_none());
    }

    #[test]
    fn min_blocked_filters_fresh_packets() {
        let c = build_deadlocked_core();
        let policy = FullyAdaptive::new(1);
        let g = WaitGraph::build(&c, &policy, 100);
        assert!(g.is_empty(), "nothing has been blocked 100 cycles yet");
    }

    #[test]
    fn rotation_breaks_the_cycle() {
        let mut c = build_deadlocked_core();
        let policy = FullyAdaptive::new(1);
        let g = WaitGraph::build(&c, &policy, 0);
        let cycle = g.deps().find_cycle().expect("cycle exists");
        let before = c.resident_packets();
        let moved = rotate_cycle(&mut c, &g, &cycle);
        assert_eq!(moved.len(), cycle.len());
        assert_eq!(c.resident_packets(), before, "rotation conserves packets");
        // Every moved packet gained a hop.
        for pkt in moved {
            assert_eq!(c.store.get(pkt).hops, 1);
        }
        // After one rotation each packet sits one hop closer (or at least
        // relocated): the same graph positions now hold different packets.
        let g2 = WaitGraph::build(&c, &policy, 0);
        // Rotation may or may not fully dissolve the cycle (SPIN may spin
        // several times), but the graph must still be buildable and the
        // packets quiescent.
        assert_eq!(g2.len(), 4);
    }
}
