//! Seeded fault-config generation: deterministic disabled-link sets.
//!
//! ROADMAP item 4(a)'s fault sweeps and the `noc-prove` certifier both
//! need the *same* degraded topologies: a sweep must only simulate
//! configurations that were certified routable and deadlock-free, so the
//! fault set has to be a pure function of `(mesh, seed, count)` that
//! both sides can regenerate independently. This module provides that
//! function. A fault disables one *bidirectional channel* (both opposing
//! directed links), mirroring how a broken wire takes out the whole
//! lane pair; configurations that would disconnect the mesh are rejected
//! during sampling, so every returned fault set leaves all nodes
//! mutually reachable.

use crate::graph::Digraph;
use crate::rng::DetRng;
use crate::topology::{Direction, Mesh, NodeId};

/// A disabled bidirectional channel, canonically ordered
/// `(min_node, max_node)` by row-major index.
pub type DisabledChannel = (usize, usize);

/// A deterministic fault configuration: `count` disabled channels drawn
/// from `(seed, count)` on a mesh, guaranteed connected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultConfig {
    /// The mesh the faults apply to.
    pub mesh: Mesh,
    /// The generator seed.
    pub seed: u64,
    /// Disabled channels, sorted canonically.
    pub disabled: Vec<DisabledChannel>,
}

impl FaultConfig {
    /// Short stable name for certificates, cache keys and CI logs.
    pub fn name(&self) -> String {
        format!(
            "fault-{}x{}-s{}-k{}",
            self.mesh.width(),
            self.mesh.height(),
            self.seed,
            self.disabled.len()
        )
    }

    /// Whether the channel between `a` and its neighbour in `d` is
    /// disabled.
    pub fn is_disabled(&self, a: NodeId, d: Direction) -> bool {
        match self.mesh.neighbor(a, d) {
            Some(b) => {
                let ch = canonical(a.index(), b.index());
                self.disabled.binary_search(&ch).is_ok()
            }
            None => false,
        }
    }

    /// Surviving bidirectional channels as canonical node pairs.
    pub fn surviving_channels(&self) -> Vec<DisabledChannel> {
        all_channels(self.mesh)
            .into_iter()
            .filter(|ch| self.disabled.binary_search(ch).is_err())
            .collect()
    }
}

fn canonical(a: usize, b: usize) -> DisabledChannel {
    (a.min(b), a.max(b))
}

/// Every bidirectional channel of a mesh as canonical node pairs,
/// sorted.
pub fn all_channels(mesh: Mesh) -> Vec<DisabledChannel> {
    let mut v = Vec::new();
    for n in mesh.nodes() {
        for d in [Direction::East, Direction::South] {
            if let Some(nb) = mesh.neighbor(n, d) {
                v.push(canonical(n.index(), nb.index()));
            }
        }
    }
    v.sort_unstable();
    v
}

/// Whether the mesh stays connected with `disabled` channels removed
/// (`disabled` must be sorted; [`generate`] maintains this).
pub fn is_connected_without(mesh: Mesh, disabled: &[DisabledChannel]) -> bool {
    let n = mesh.num_nodes();
    if n == 0 {
        return true;
    }
    let mut g = Digraph::new(n);
    for (a, b) in all_channels(mesh) {
        if disabled.binary_search(&(a, b)).is_err() {
            g.add_edge(a as u32, b as u32);
            g.add_edge(b as u32, a as u32);
        }
    }
    g.reachable_from(0).into_iter().all(|r| r)
}

/// Error from [`generate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultGenError {
    /// `count` is at least the number of channels in the mesh.
    TooManyFaults,
    /// No connected configuration was found within the sampling budget
    /// (the requested count leaves too little spare connectivity).
    BudgetExhausted,
}

impl std::fmt::Display for FaultGenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultGenError::TooManyFaults => f.write_str("more faults requested than channels"),
            FaultGenError::BudgetExhausted => {
                f.write_str("no connected fault configuration found within the sampling budget")
            }
        }
    }
}

impl std::error::Error for FaultGenError {}

/// Draws a deterministic set of `count` disabled channels for
/// `(mesh, seed)`, rejecting draws that disconnect the mesh.
///
/// Channels are sampled one at a time; a draw that would disconnect the
/// remaining topology is discarded and redrawn, so the generator walks a
/// connected-preserving path through fault space and the result is a
/// pure function of its arguments. Sampling is bounded (64 rejected
/// draws per accepted channel) so pathological requests fail loudly
/// instead of spinning.
///
/// # Errors
///
/// [`FaultGenError::TooManyFaults`] when `count` cannot leave a spanning
/// tree; [`FaultGenError::BudgetExhausted`] when the rejection budget
/// runs out.
pub fn generate(mesh: Mesh, seed: u64, count: usize) -> Result<FaultConfig, FaultGenError> {
    let channels = all_channels(mesh);
    // A connected graph on n nodes needs at least n−1 channels.
    if channels.len().saturating_sub(count) < mesh.num_nodes().saturating_sub(1) {
        return Err(FaultGenError::TooManyFaults);
    }
    let mut rng = DetRng::new(seed ^ 0x000F_A017_C0DE);
    let mut disabled: Vec<DisabledChannel> = Vec::with_capacity(count);
    let mut budget = 64usize * count.max(1);
    while disabled.len() < count {
        let candidate = channels[rng.range(0, channels.len())];
        if disabled.binary_search(&candidate).is_ok() {
            continue; // already disabled; costs no budget
        }
        let pos = disabled
            .binary_search(&candidate)
            .expect_err("candidate verified absent above");
        disabled.insert(pos, candidate);
        if !is_connected_without(mesh, &disabled) {
            disabled.remove(pos);
            budget = match budget.checked_sub(1) {
                Some(b) => b,
                None => return Err(FaultGenError::BudgetExhausted),
            };
        }
    }
    Ok(FaultConfig {
        mesh,
        seed,
        disabled,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let mesh = Mesh::new(4, 4);
        let a = generate(mesh, 7, 3).unwrap();
        let b = generate(mesh, 7, 3).unwrap();
        assert_eq!(a, b);
        let c = generate(mesh, 8, 3).unwrap();
        assert_ne!(a.disabled, c.disabled, "different seeds must differ");
    }

    #[test]
    fn generated_configs_stay_connected() {
        for seed in 0..20 {
            for count in [1, 2, 4, 6] {
                let cfg = generate(Mesh::new(4, 4), seed, count).unwrap();
                assert_eq!(cfg.disabled.len(), count);
                assert!(
                    is_connected_without(cfg.mesh, &cfg.disabled),
                    "seed {seed} count {count} disconnected"
                );
            }
        }
    }

    #[test]
    fn disabled_channels_are_canonical_and_sorted() {
        let cfg = generate(Mesh::new(5, 5), 3, 5).unwrap();
        for &(a, b) in &cfg.disabled {
            assert!(a < b);
        }
        let mut sorted = cfg.disabled.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, cfg.disabled);
    }

    #[test]
    fn is_disabled_matches_the_set() {
        let mesh = Mesh::new(4, 4);
        let cfg = generate(mesh, 11, 4).unwrap();
        let mut hits = 0;
        for n in mesh.nodes() {
            for d in crate::topology::DIRECTIONS {
                if cfg.is_disabled(n, d) {
                    hits += 1;
                }
            }
        }
        // Each disabled channel is seen from both endpoints.
        assert_eq!(hits, 2 * cfg.disabled.len());
    }

    #[test]
    fn surviving_plus_disabled_partition_all_channels() {
        let mesh = Mesh::new(4, 4);
        let cfg = generate(mesh, 2, 3).unwrap();
        let mut union = cfg.surviving_channels();
        union.extend_from_slice(&cfg.disabled);
        union.sort_unstable();
        assert_eq!(union, all_channels(mesh));
    }

    #[test]
    fn impossible_request_rejected() {
        // 2×2 has 4 channels and needs 3 for a spanning tree.
        assert_eq!(
            generate(Mesh::new(2, 2), 1, 2),
            Err(FaultGenError::TooManyFaults)
        );
        assert!(generate(Mesh::new(2, 2), 1, 1).is_ok());
    }

    #[test]
    fn channel_count_formula() {
        // w×h mesh: (w−1)·h + w·(h−1) bidirectional channels.
        assert_eq!(all_channels(Mesh::new(4, 4)).len(), 3 * 4 + 4 * 3);
        assert_eq!(all_channels(Mesh::new(2, 2)).len(), 4);
    }
}
