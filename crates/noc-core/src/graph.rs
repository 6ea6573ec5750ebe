//! The workspace's one directed graph and its two searches.
//!
//! Every graph question the workspace asks is asked of a [`Digraph`]:
//! the certifier's channel dependency graph (`noc-prove`), the wait-for
//! graph SPIN and the model checker search for a buffer cycle
//! (`noc_sim::waitgraph`), and the connectivity of degraded topologies
//! ([`crate::fault`], `fastpass::irregular`). There is one cycle search
//! ([`Digraph::find_cycle`]) and one reachability walk
//! ([`Digraph::reachable_from`]); both are iterative and linear in
//! vertices plus edges.

/// A dense-vertex digraph with `u32` vertex ids.
///
/// Vertices are `0..n`; unused ids are legal (they simply have no
/// edges), which lets channel spaces address `(link, vc)` pairs directly
/// without compacting around mesh-edge links that do not exist.
#[derive(Debug, Clone)]
pub struct Digraph {
    adj: Vec<Vec<u32>>,
    edges: usize,
}

impl Digraph {
    /// An edgeless digraph on `n` vertices.
    pub fn new(n: usize) -> Self {
        Digraph {
            adj: vec![Vec::new(); n],
            edges: 0,
        }
    }

    /// Number of vertices (including unused ids).
    pub fn num_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Number of edges after [`Self::dedup`] (counts duplicates before).
    pub fn num_edges(&self) -> usize {
        self.edges
    }

    /// Adds the edge `a → b`. Successors keep insertion order;
    /// duplicates are tolerated until [`Self::dedup`] collapses them.
    pub fn add_edge(&mut self, a: u32, b: u32) {
        self.adj[a as usize].push(b);
        self.edges += 1;
    }

    /// Successors of `v`.
    pub fn successors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// Sorts adjacency lists and removes duplicate edges, keeping edge
    /// iteration (and therefore cycle reports) independent of insertion
    /// order.
    pub fn dedup(&mut self) {
        self.edges = 0;
        for list in &mut self.adj {
            list.sort_unstable();
            list.dedup();
            self.edges += list.len();
        }
    }

    /// Finds a directed cycle, returned as the vertex sequence
    /// `v0 → v1 → … → vk → v0` (without repeating `v0` at the end), or
    /// `None` if the graph is acyclic.
    ///
    /// Iterative three-color DFS from each white root in id order, with
    /// successors in stored order: a back edge to a gray vertex closes a
    /// cycle, and the gray stack *is* the concrete path — which is what
    /// turns a failed proof into an actionable certificate. The cycle is
    /// simple by construction (gray vertices are pairwise distinct).
    ///
    /// Colors persist across roots, so the search is linear, yet the
    /// cycle is the one a DFS restarted from scratch at every vertex in
    /// id order would report first: a vertex blackened under an earlier
    /// root reaches no cycle and no gray vertex, so skipping it changes
    /// neither the path nor the back edge that closes it.
    pub fn find_cycle(&self) -> Option<Vec<u32>> {
        const WHITE: u8 = 0;
        const GRAY: u8 = 1;
        const BLACK: u8 = 2;
        let n = self.adj.len();
        let mut color = vec![WHITE; n];
        // (vertex, next successor index) — an explicit DFS stack keeps
        // 32×32×12-VC graphs (≈50k vertices) off the call stack.
        let mut stack: Vec<(u32, usize)> = Vec::new();
        for root in 0..n as u32 {
            if color[root as usize] != WHITE {
                continue;
            }
            color[root as usize] = GRAY;
            stack.push((root, 0));
            while let Some(frame) = stack.last_mut() {
                let v = frame.0;
                let succ = &self.adj[v as usize];
                if frame.1 < succ.len() {
                    let w = succ[frame.1];
                    frame.1 += 1;
                    match color[w as usize] {
                        WHITE => {
                            color[w as usize] = GRAY;
                            stack.push((w, 0));
                        }
                        GRAY => {
                            // Back edge: the cycle is the gray path from
                            // `w` up to `v`.
                            let start = stack
                                .iter()
                                .position(|&(u, _)| u == w)
                                .expect("gray vertex is on the DFS stack");
                            return Some(stack[start..].iter().map(|&(u, _)| u).collect());
                        }
                        _ => {}
                    }
                } else {
                    color[v as usize] = BLACK;
                    stack.pop();
                }
            }
        }
        None
    }

    /// Which vertices `root` reaches (itself included), indexed by
    /// vertex id.
    pub fn reachable_from(&self, root: u32) -> Vec<bool> {
        let mut seen = vec![false; self.adj.len()];
        seen[root as usize] = true;
        let mut stack = vec![root];
        while let Some(v) = stack.pop() {
            for &w in &self.adj[v as usize] {
                if !seen[w as usize] {
                    seen[w as usize] = true;
                    stack.push(w);
                }
            }
        }
        seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single_vertex_are_acyclic() {
        assert!(Digraph::new(0).find_cycle().is_none());
        assert!(Digraph::new(1).find_cycle().is_none());
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut g = Digraph::new(3);
        g.add_edge(1, 1);
        assert_eq!(g.find_cycle(), Some(vec![1]));
    }

    #[test]
    fn two_cycle_found_with_path() {
        let mut g = Digraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(2, 1);
        assert_eq!(g.find_cycle(), Some(vec![1, 2]));
    }

    #[test]
    fn dag_is_acyclic() {
        let mut g = Digraph::new(6);
        for a in 0..5u32 {
            for b in (a + 1)..6 {
                g.add_edge(a, b);
            }
        }
        g.dedup();
        assert!(g.find_cycle().is_none());
    }

    #[test]
    fn dedup_collapses_duplicates() {
        let mut g = Digraph::new(2);
        g.add_edge(0, 1);
        g.add_edge(0, 1);
        assert_eq!(g.num_edges(), 2);
        g.dedup();
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn long_chain_cycle_reports_full_path() {
        let mut g = Digraph::new(100);
        for i in 0..99u32 {
            g.add_edge(i, i + 1);
        }
        g.add_edge(99, 50);
        let cycle: Vec<u32> = (50..100).collect();
        assert_eq!(g.find_cycle(), Some(cycle), "cycle is 50 → … → 99 → 50");
    }

    #[test]
    fn a_later_root_reports_the_cycle_it_reaches_first() {
        // Root 0 blackens 0 → 1 (no cycle); root 2 then walks 2 → 1
        // (black, skipped) and 2 → 3 → 2. A fresh search from 2 would
        // report the same cycle.
        let mut g = Digraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(2, 1);
        g.add_edge(2, 3);
        g.add_edge(3, 2);
        assert_eq!(g.find_cycle(), Some(vec![2, 3]));
    }

    #[test]
    fn reachability_follows_edge_direction() {
        let mut g = Digraph::new(4);
        g.add_edge(0, 1);
        g.add_edge(1, 2);
        g.add_edge(3, 0);
        assert_eq!(g.reachable_from(0), vec![true, true, true, false]);
        assert_eq!(g.reachable_from(3), vec![true; 4]);
        assert_eq!(g.reachable_from(2), vec![false, false, true, false]);
    }
}
