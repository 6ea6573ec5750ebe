//! Channel dependency graphs from the simulator's own route sets.
//!
//! The vertex space is `(directed link, VC)`; edges are induced by two
//! mechanisms only:
//!
//! * **Route continuation** — a packet holding channel `(l₁, v₁)` may
//!   next request `(l₂, v₂)` when the routing function continues `l₁`
//!   with `l₂` for some destination and `v₂` lies in the packet's class
//!   VC range. Route sets come from
//!   [`noc_sim::routing::introspect::route_set`] — the function every
//!   live policy selects its grants from — so the model cannot drift
//!   from the simulator.
//! * **Protocol coupling** — under the consumer-backlog protocol model
//!   (`noc-check`'s `ScriptCtl`: consuming a non-sink message raises a
//!   response obligation, and a full backlog refuses further non-sink
//!   ejections), a channel delivering a non-sink class to node `d`
//!   depends on `d`'s response injection draining, i.e. on every
//!   first-hop channel a response from `d` can take. Sink classes are
//!   terminal and couple to nothing.
//!
//! Both mechanisms over-approximate the reachable dependencies (every
//! destination pairing is admitted), which keeps the analysis sound:
//! extra edges can only turn a real proof into a spurious cycle report,
//! never a real deadlock into a certificate.

use noc_core::config::SimConfig;
use noc_core::graph::Digraph;
use noc_core::packet::{MessageClass, CLASSES};
use noc_core::topology::{LinkId, Mesh, NodeId, Port};
use noc_sim::routing::introspect::{route_set, travel_dir, PolicyKind};

/// The `(link, VC)` vertex space of a mesh CDG.
#[derive(Debug, Clone, Copy)]
pub struct ChannelSpace {
    /// The mesh the links belong to.
    pub mesh: Mesh,
    /// Total VCs per input port.
    pub vcs: usize,
}

impl ChannelSpace {
    /// Number of vertex ids (including ids of mesh-edge links that do
    /// not exist; those never receive edges).
    pub fn num_vertices(self) -> usize {
        self.mesh.num_links() * self.vcs
    }

    /// Vertex id of `(link, vc)`.
    pub fn vertex(self, link: LinkId, vc: usize) -> u32 {
        (link.index() * self.vcs + vc) as u32
    }

    /// Human-readable channel name, e.g. `R5->R6.vc1`.
    pub fn label(self, v: u32) -> String {
        let link_idx = v as usize / self.vcs;
        let vc = v as usize % self.vcs;
        let link = LinkId::new(link_idx);
        let (from, dir) = self.mesh.link_endpoints(link);
        let to = self
            .mesh
            .neighbor(from, dir)
            .expect("labelled vertices come from real links");
        format!("R{}->R{}.vc{}", from.index(), to.index(), vc)
    }
}

/// Link-level routing structure extracted by per-destination forward
/// reachability: which link continues which, which links inject and
/// deliver at each node, and whether the policy is free of dead ends.
#[derive(Debug)]
pub struct RouteGraph {
    /// Deduplicated link continuations `(l₁, l₂)` over all destinations.
    pub continuations: Vec<(LinkId, LinkId)>,
    /// Per node: first-hop links of packets injected there (any dst).
    pub injects: Vec<Vec<LinkId>>,
    /// Per node: links that can carry traffic terminating there.
    pub delivers: Vec<Vec<LinkId>>,
    /// Reachable routing states with an empty route set before the
    /// destination (descriptions). Empty for a sound minimal policy.
    pub dead_ends: Vec<String>,
}

impl RouteGraph {
    /// Whether every source can reach every destination: minimal route
    /// sets always make progress, so routability is exactly "no
    /// reachable dead end and every first hop exists".
    pub fn routable(&self) -> bool {
        self.dead_ends.is_empty()
    }
}

/// Extracts the [`RouteGraph`] of `kind` on `mesh` by forward
/// reachability from every injection point toward every destination.
///
/// A link fully determines the routing state at its head (the input
/// port is the opposite of the travel direction), so the walk visits
/// each `(destination, link)` pair at most once — `O(dsts × links)`
/// route-set evaluations, which keeps 32×32 meshes comfortably inside
/// the CI budget.
pub fn route_graph(kind: PolicyKind, mesh: Mesh) -> RouteGraph {
    let n = mesh.num_nodes();
    let num_links = mesh.num_links();
    let mut cont: Vec<(LinkId, LinkId)> = Vec::new();
    let mut injects: Vec<Vec<LinkId>> = vec![Vec::new(); n];
    let mut delivers: Vec<Vec<LinkId>> = vec![Vec::new(); n];
    let mut dead_ends = Vec::new();

    let xy = |n: NodeId| (mesh.x(n) as u16, mesh.y(n) as u16);
    let mut seen = vec![false; num_links];
    let mut queue: Vec<LinkId> = Vec::new();
    for dst in mesh.nodes() {
        seen.iter_mut().for_each(|s| *s = false);
        queue.clear();
        // Injection first hops from every source.
        for src in mesh.nodes() {
            if src == dst {
                continue;
            }
            let dirs = route_set(kind, xy(src), xy(dst), Port::Local);
            if dirs.is_empty() {
                dead_ends.push(format!(
                    "no first hop from R{} to R{} under {}",
                    src.index(),
                    dst.index(),
                    kind.name()
                ));
                continue;
            }
            for d in dirs.iter() {
                let l = mesh.link(src, d).expect("route set stays on the mesh");
                injects[src.index()].push(l);
                if !seen[l.index()] {
                    seen[l.index()] = true;
                    queue.push(l);
                }
            }
        }
        // Propagate along continuations.
        while let Some(l) = queue.pop() {
            let (from, dir) = mesh.link_endpoints(l);
            let at = mesh.neighbor(from, dir).expect("seen links are real");
            if at == dst {
                delivers[dst.index()].push(l);
                continue;
            }
            let in_port = Port::Dir(dir.opposite());
            debug_assert_eq!(travel_dir(in_port), Some(dir));
            let dirs = route_set(kind, xy(at), xy(dst), in_port);
            if dirs.is_empty() {
                dead_ends.push(format!(
                    "dead end at R{} (arrived {dir}) toward R{} under {}",
                    at.index(),
                    dst.index(),
                    kind.name()
                ));
                continue;
            }
            for d in dirs.iter() {
                let l2 = mesh.link(at, d).expect("route set stays on the mesh");
                cont.push((l, l2));
                if !seen[l2.index()] {
                    seen[l2.index()] = true;
                    queue.push(l2);
                }
            }
        }
    }
    cont.sort_unstable_by_key(|&(a, b)| (a.index(), b.index()));
    cont.dedup();
    for list in injects.iter_mut().chain(delivers.iter_mut()) {
        list.sort_unstable_by_key(|l| l.index());
        list.dedup();
    }
    dead_ends.sort();
    dead_ends.dedup();
    RouteGraph {
        continuations: cont,
        injects,
        delivers,
        dead_ends,
    }
}

/// Which VC transitions the CDG admits, mirroring
/// [`SimConfig::vc_range_for_class`]: a packet of class `c` may hold any
/// VC of `c`'s range and request any VC of the target channel's range.
fn class_ranges(sim: &SimConfig) -> Vec<std::ops::Range<usize>> {
    CLASSES
        .iter()
        .map(|c| sim.vc_range_for_class(c.index()))
        .collect()
}

/// Builds the extended CDG of `kind` on `sim`'s mesh/VC structure.
///
/// `coupling` adds the protocol-coupling edges of the consumer-backlog
/// model; `escape_only` restricts the vertex set to each class range's
/// first VC (the Duato escape subnetwork of `EscapeVc`: VC `range.start`
/// per VN is XY-routed and always requestable).
pub fn build_cdg(
    sim: &SimConfig,
    kind: PolicyKind,
    coupling: bool,
    escape_only: bool,
) -> (Digraph, ChannelSpace, RouteGraph) {
    let mesh = sim.mesh;
    let space = ChannelSpace {
        mesh,
        vcs: sim.vcs_per_port(),
    };
    let rg = route_graph(kind, mesh);
    let ranges = class_ranges(sim);
    let mut g = Digraph::new(space.num_vertices());

    let vcs_of = |class_idx: usize| -> Vec<usize> {
        let r = ranges[class_idx].clone();
        if escape_only {
            vec![r.start]
        } else {
            r.collect()
        }
    };

    // Route-continuation edges, per class VC range.
    for class in CLASSES {
        let vcs = vcs_of(class.index());
        for &(l1, l2) in &rg.continuations {
            for &v1 in &vcs {
                for &v2 in &vcs {
                    g.add_edge(space.vertex(l1, v1), space.vertex(l2, v2));
                }
            }
        }
    }

    // Protocol-coupling edges: non-sink delivery at `d` waits on `d`'s
    // response injection.
    if coupling {
        let resp_vcs = vcs_of(MessageClass::Response.index());
        for class in CLASSES {
            if class.is_sink() {
                continue;
            }
            let req_vcs = vcs_of(class.index());
            for d in mesh.nodes() {
                for &l_in in &rg.delivers[d.index()] {
                    for &l_out in &rg.injects[d.index()] {
                        for &v1 in &req_vcs {
                            for &v2 in &resp_vcs {
                                g.add_edge(space.vertex(l_in, v1), space.vertex(l_out, v2));
                            }
                        }
                    }
                }
            }
        }
    }

    g.dedup();
    (g, space, rg)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sim(w: usize, h: usize, vns: usize, vcs: usize) -> SimConfig {
        SimConfig::builder()
            .mesh(w, h)
            .vns(vns)
            .vcs_per_vn(vcs)
            .build()
    }

    #[test]
    fn xy_cdg_is_acyclic_without_coupling() {
        for (w, h) in [(2, 2), (4, 4), (3, 5)] {
            let (g, _, rg) = build_cdg(&sim(w, h, 0, 1), PolicyKind::Xy, false, false);
            assert!(rg.routable());
            assert!(g.find_cycle().is_none(), "{w}x{h}");
        }
    }

    #[test]
    fn zero_vn_coupling_creates_a_cycle() {
        let (g, space, _) = build_cdg(&sim(2, 2, 0, 1), PolicyKind::Xy, true, false);
        let cycle = g.find_cycle().expect("protocol coupling closes a cycle");
        // The cycle follows real edges between real channels.
        for (i, &v) in cycle.iter().enumerate() {
            assert!(g.successors(v).contains(&cycle[(i + 1) % cycle.len()]));
            assert!(space.label(v).starts_with('R'));
        }
    }

    #[test]
    fn six_vn_coupling_stays_acyclic() {
        let (g, _, _) = build_cdg(&sim(2, 2, 6, 1), PolicyKind::Xy, true, false);
        assert!(
            g.find_cycle().is_none(),
            "class-ordered coupling cannot cycle"
        );
        let (g, _, _) = build_cdg(&sim(4, 4, 6, 2), PolicyKind::Xy, true, false);
        assert!(g.find_cycle().is_none());
    }

    #[test]
    fn fully_adaptive_is_cyclic_even_without_coupling() {
        let (g, _, rg) = build_cdg(&sim(3, 3, 0, 1), PolicyKind::FullyAdaptive, false, false);
        assert!(rg.routable());
        assert!(g.find_cycle().is_some(), "adaptive turns close cycles");
    }

    #[test]
    fn turn_models_are_acyclic_and_routable() {
        for kind in [PolicyKind::WestFirst, PolicyKind::NorthLast] {
            for (w, h) in [(2, 2), (4, 4), (5, 3)] {
                let (g, _, rg) = build_cdg(&sim(w, h, 6, 2), kind, true, false);
                assert!(rg.routable(), "{} {w}x{h}", kind.name());
                assert!(g.find_cycle().is_none(), "{} {w}x{h}", kind.name());
            }
        }
    }

    #[test]
    fn odd_even_has_no_reachable_dead_ends() {
        for (w, h) in [(2, 2), (4, 4), (5, 5), (3, 4)] {
            let rg = route_graph(PolicyKind::OddEven, Mesh::new(w, h));
            assert!(rg.routable(), "{w}x{h}: {:?}", rg.dead_ends);
        }
    }

    #[test]
    fn escape_subnetwork_of_adaptive_vcs_is_acyclic() {
        // EscapeVc's structure: adaptive inner VCs are cyclic, the
        // XY-routed escape VC (range.start per VN) is not.
        let cfg = sim(4, 4, 6, 2);
        let (full, _, _) = build_cdg(&cfg, PolicyKind::FullyAdaptive, true, false);
        assert!(full.find_cycle().is_some());
        let (esc, _, rg) = build_cdg(&cfg, PolicyKind::EscapeXy, true, true);
        assert!(rg.routable());
        assert!(esc.find_cycle().is_none());
    }

    #[test]
    fn route_graph_injects_and_delivers_cover_all_nodes() {
        let rg = route_graph(PolicyKind::Xy, Mesh::new(3, 3));
        for n in 0..9 {
            assert!(!rg.injects[n].is_empty(), "node {n} never injects");
            assert!(!rg.delivers[n].is_empty(), "node {n} never receives");
        }
    }

    #[test]
    fn channel_labels_roundtrip() {
        let mesh = Mesh::new(2, 2);
        let space = ChannelSpace { mesh, vcs: 2 };
        let l = mesh
            .link(
                noc_core::topology::NodeId::new(0),
                noc_core::topology::Direction::East,
            )
            .unwrap();
        assert_eq!(space.label(space.vertex(l, 1)), "R0->R1.vc1");
    }
}
