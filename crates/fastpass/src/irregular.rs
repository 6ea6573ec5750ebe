//! Partition derivation for irregular topologies (§III-F).
//!
//! FastPass is topology-agnostic: for an arbitrary network whose
//! channels are bidirectional (each an opposing pair of unidirectional
//! links), §III-F leverages DRAIN-style *holistic paths* — closed walks
//! that traverse every physical link exactly once — and segments them
//! into non-overlapping lanes.
//!
//! In a directed graph built from bidirectional channels, every vertex
//! has equal in- and out-degree, so a connected graph always has an
//! Eulerian circuit; [`holistic_path`] computes one with Hierholzer's
//! algorithm, and [`segment`] cuts it into `p` contiguous lane segments.
//! Because the circuit uses each directed link exactly once, the segments
//! are disjoint by construction — the property FastPass needs from its
//! lanes.
//!
//! The mesh simulator uses the closed-form column partitioning instead;
//! this module provides the general construction (with proofs-as-tests)
//! for arbitrary topologies.

use noc_core::graph::Digraph;
use std::collections::BTreeMap;

/// A directed edge `(from, to)` in an irregular topology.
pub type Edge = (usize, usize);

/// An irregular topology: nodes `0..n` with bidirectional channels.
#[derive(Debug, Clone, Default)]
pub struct IrregularTopo {
    n: usize,
    channels: Vec<(usize, usize)>,
}

impl IrregularTopo {
    /// Creates a topology with `n` nodes and no channels.
    pub fn new(n: usize) -> Self {
        IrregularTopo {
            n,
            channels: Vec::new(),
        }
    }

    /// Adds a bidirectional channel (two opposing directed links).
    ///
    /// # Panics
    ///
    /// Panics on self-loops or out-of-range endpoints.
    pub fn add_channel(&mut self, a: usize, b: usize) {
        assert!(a != b, "self-channels are meaningless");
        assert!(a < self.n && b < self.n, "endpoint out of range");
        self.channels.push((a.min(b), a.max(b)));
    }

    /// Builds the degraded topology of a seeded [`FaultConfig`]: the
    /// mesh's surviving bidirectional channels after the fault set is
    /// removed. This is the bridge between fault sweeps and §III-F
    /// holistic scheduling — the same `(mesh, seed, count)` triple
    /// yields the same topology here and in `noc-prove`'s certifier.
    pub fn from_fault_config(cfg: &noc_core::FaultConfig) -> Self {
        let mut t = IrregularTopo::new(cfg.mesh.num_nodes());
        for (a, b) in cfg.surviving_channels() {
            t.add_channel(a, b);
        }
        t
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// All directed links (both directions of every channel).
    pub fn directed_links(&self) -> Vec<Edge> {
        let mut v = Vec::with_capacity(self.channels.len() * 2);
        for &(a, b) in &self.channels {
            v.push((a, b));
            v.push((b, a));
        }
        v
    }

    /// Whether every node can reach every other (over directed links).
    pub fn is_connected(&self) -> bool {
        if self.n == 0 {
            return true;
        }
        let mut g = Digraph::new(self.n);
        for (a, b) in self.directed_links() {
            g.add_edge(a as u32, b as u32);
        }
        g.reachable_from(0).into_iter().all(|r| r)
    }
}

/// Computes a holistic path: a closed walk traversing every directed link
/// exactly once (Eulerian circuit, Hierholzer's algorithm). Returned as
/// the sequence of directed links in traversal order.
///
/// # Errors
///
/// Returns [`HolisticPathError`] if the topology is disconnected or has
/// no links.
pub fn holistic_path(topo: &IrregularTopo) -> Result<Vec<Edge>, HolisticPathError> {
    let links = topo.directed_links();
    if links.is_empty() {
        return Err(HolisticPathError::NoLinks);
    }
    if !topo.is_connected() {
        return Err(HolisticPathError::Disconnected);
    }
    // Out-adjacency with consumption cursors.
    let mut out: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for &(a, b) in &links {
        out.entry(a).or_default().push(b);
    }
    let mut cursor: BTreeMap<usize, usize> = out.keys().map(|&k| (k, 0)).collect();
    let start = links[0].0;
    let mut stack = vec![start];
    let mut circuit_nodes: Vec<usize> = Vec::new();
    while let Some(&v) = stack.last() {
        let c = cursor
            .get_mut(&v)
            .expect("connected topology: every reachable node has outgoing links");
        let nbrs = &out[&v];
        if *c < nbrs.len() {
            let w = nbrs[*c];
            *c += 1;
            stack.push(w);
        } else {
            circuit_nodes.push(v);
            stack.pop();
        }
    }
    circuit_nodes.reverse();
    let circuit: Vec<Edge> = circuit_nodes.windows(2).map(|w| (w[0], w[1])).collect();
    // Bidirectional channels ⇒ balanced degrees ⇒ the circuit covers all.
    assert_eq!(
        circuit.len(),
        links.len(),
        "Eulerian circuit must cover every directed link"
    );
    Ok(circuit)
}

/// Error from [`holistic_path`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HolisticPathError {
    /// The topology has no channels.
    NoLinks,
    /// The topology is not connected.
    Disconnected,
}

impl std::fmt::Display for HolisticPathError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HolisticPathError::NoLinks => f.write_str("topology has no links"),
            HolisticPathError::Disconnected => f.write_str("topology is not connected"),
        }
    }
}

impl std::error::Error for HolisticPathError {}

/// Segments a holistic path into `p` contiguous, non-overlapping lane
/// segments of near-equal length (FastPass partitions for an irregular
/// topology).
///
/// # Panics
///
/// Panics if `p == 0` or `p` exceeds the path length.
pub fn segment(path: &[Edge], p: usize) -> Vec<Vec<Edge>> {
    assert!(p > 0, "need at least one partition");
    assert!(p <= path.len(), "more partitions than links");
    let base = path.len() / p;
    let extra = path.len() % p;
    let mut segments = Vec::with_capacity(p);
    let mut at = 0;
    for i in 0..p {
        let len = base + usize::from(i < extra);
        segments.push(path[at..at + len].to_vec());
        at += len;
    }
    segments
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring(n: usize) -> IrregularTopo {
        let mut t = IrregularTopo::new(n);
        for i in 0..n {
            t.add_channel(i, (i + 1) % n);
        }
        t
    }

    fn random_connected(n: usize, extra: usize, seed: u64) -> IrregularTopo {
        use noc_core::rng::DetRng;
        let mut rng = DetRng::new(seed);
        let mut t = IrregularTopo::new(n);
        let mut seen = std::collections::HashSet::new();
        // Spanning tree first.
        for i in 1..n {
            let j = rng.range(0, i);
            t.add_channel(i, j);
            seen.insert((j.min(i), j.max(i)));
        }
        let mut added = 0;
        while added < extra {
            let a = rng.range(0, n);
            let b = rng.range(0, n);
            if a != b && seen.insert((a.min(b), a.max(b))) {
                t.add_channel(a, b);
                added += 1;
            }
        }
        t
    }

    fn check_holistic(t: &IrregularTopo) {
        let path = holistic_path(t).unwrap();
        // Every directed link exactly once.
        let mut seen = std::collections::HashSet::new();
        for &e in &path {
            assert!(seen.insert(e), "link {e:?} traversed twice");
        }
        assert_eq!(seen.len(), t.directed_links().len());
        // Consecutive links chain.
        for w in path.windows(2) {
            assert_eq!(w[0].1, w[1].0, "walk is discontinuous");
        }
        // Closed.
        assert_eq!(path.first().unwrap().0, path.last().unwrap().1);
    }

    #[test]
    fn ring_holistic_path() {
        check_holistic(&ring(6));
    }

    #[test]
    fn random_topologies_have_holistic_paths() {
        for seed in 0..10 {
            let t = random_connected(12, 8, seed);
            check_holistic(&t);
        }
    }

    #[test]
    fn segments_are_disjoint_and_cover() {
        let t = random_connected(10, 6, 3);
        let path = holistic_path(&t).unwrap();
        for p in [1, 2, 3, 5] {
            let segs = segment(&path, p);
            assert_eq!(segs.len(), p);
            let total: usize = segs.iter().map(|s| s.len()).sum();
            assert_eq!(total, path.len(), "segments cover the path");
            let mut seen = std::collections::HashSet::new();
            for s in &segs {
                for &e in s {
                    assert!(seen.insert(e), "segments overlap on {e:?}");
                }
            }
            // Near-equal lengths.
            let min = segs.iter().map(|s| s.len()).min().unwrap();
            let max = segs.iter().map(|s| s.len()).max().unwrap();
            assert!(max - min <= 1);
        }
    }

    #[test]
    fn disconnected_rejected() {
        let mut t = IrregularTopo::new(4);
        t.add_channel(0, 1);
        t.add_channel(2, 3);
        assert_eq!(holistic_path(&t), Err(HolisticPathError::Disconnected));
    }

    #[test]
    fn empty_rejected() {
        let t = IrregularTopo::new(3);
        assert_eq!(holistic_path(&t), Err(HolisticPathError::NoLinks));
    }

    #[test]
    #[should_panic(expected = "self-channels")]
    fn self_channel_rejected() {
        let mut t = IrregularTopo::new(2);
        t.add_channel(1, 1);
    }

    #[test]
    fn fault_configs_yield_schedulable_topologies() {
        use noc_core::topology::Mesh;
        for seed in 0..8 {
            let cfg = noc_core::fault::generate(Mesh::new(4, 4), seed, 3).unwrap();
            let t = IrregularTopo::from_fault_config(&cfg);
            assert_eq!(t.num_nodes(), 16);
            assert_eq!(t.directed_links().len(), 2 * (24 - 3));
            // Connectivity was certified at generation time, so the
            // holistic construction must succeed.
            check_holistic(&t);
        }
    }
}
