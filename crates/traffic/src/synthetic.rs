//! Open-loop synthetic traffic patterns.
//!
//! Table II evaluates "Uniform, Transpose, and Shuffle — mix of 1-flit
//! and 5-flit" packets; Fig. 7 additionally shows Bit-rotation. Each node
//! generates a packet per cycle with probability `rate` (the injection
//! rate in packets/node/cycle), destined according to the pattern.
//! Packets are spread uniformly over the Request, Forward and Response
//! classes — Garnet's three-vnet synthetic-traffic convention that the
//! paper's 6-VN baselines run under — and are 1-flit (control) or
//! 5-flit (data) with equal probability.

use noc_core::packet::{MessageClass, Packet};
use noc_core::rng::DetRng;
use noc_core::topology::{Mesh, NodeId};
use noc_sim::network::NetworkCore;
use noc_sim::Workload;
use serde::{Deserialize, Serialize};

/// A classic synthetic destination pattern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SyntheticPattern {
    /// Uniform random over all other nodes.
    Uniform,
    /// `(x, y) → (y, x)`. Adversarial for dimension-ordered and
    /// west-first routing. Requires a square mesh.
    Transpose,
    /// Bit-shuffle: rotate the node-id bits left by one. Requires a
    /// power-of-two node count.
    Shuffle,
    /// Bit-rotation: rotate the node-id bits right by one. Requires a
    /// power-of-two node count.
    BitRotation,
    /// Bit-complement: invert all node-id bits. Requires a power-of-two
    /// node count.
    BitComplement,
    /// Tornado: half-way around each row.
    Tornado,
    /// Nearest-neighbour: one hop east (wrapping within the row).
    Neighbor,
    /// Hotspot: one quarter of the traffic targets the centre node, the
    /// rest is uniform random (classic congestion stressor).
    Hotspot,
}

impl SyntheticPattern {
    /// All patterns, for sweep harnesses.
    pub const ALL: [SyntheticPattern; 8] = [
        SyntheticPattern::Uniform,
        SyntheticPattern::Transpose,
        SyntheticPattern::Shuffle,
        SyntheticPattern::BitRotation,
        SyntheticPattern::BitComplement,
        SyntheticPattern::Tornado,
        SyntheticPattern::Neighbor,
        SyntheticPattern::Hotspot,
    ];

    /// Display name as used in the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            SyntheticPattern::Uniform => "uniform",
            SyntheticPattern::Transpose => "transpose",
            SyntheticPattern::Shuffle => "shuffle",
            SyntheticPattern::BitRotation => "bit-rotation",
            SyntheticPattern::BitComplement => "bit-complement",
            SyntheticPattern::Tornado => "tornado",
            SyntheticPattern::Neighbor => "neighbor",
            SyntheticPattern::Hotspot => "hotspot",
        }
    }

    /// The inverse of [`SyntheticPattern::name`], case-insensitively —
    /// sweep-service requests and CLI flags spell patterns by their
    /// figure names. Returns `None` for unknown names.
    pub fn from_name(name: &str) -> Option<SyntheticPattern> {
        SyntheticPattern::ALL
            .into_iter()
            .find(|p| p.name().eq_ignore_ascii_case(name))
    }

    /// The destination for `src` under this pattern, or `None` when the
    /// pattern maps a node to itself (such sources stay silent, the
    /// standard convention).
    ///
    /// # Panics
    ///
    /// Panics if the mesh does not satisfy the pattern's structural
    /// requirement, the one [`check`](Self::check) names.
    pub fn dest(self, mesh: Mesh, src: NodeId, rng: &mut DetRng) -> Option<NodeId> {
        let n = mesh.num_nodes();
        let bits = n.trailing_zeros() as usize;
        let require_pow2 = || {
            assert!(
                n.is_power_of_two(),
                "{} requires a power-of-two node count",
                self.name()
            );
        };
        let dst = match self {
            SyntheticPattern::Uniform => {
                let mut d = rng.range(0, n - 1);
                if d >= src.index() {
                    d += 1;
                }
                NodeId::new(d)
            }
            SyntheticPattern::Transpose => {
                assert_eq!(
                    mesh.width(),
                    mesh.height(),
                    "transpose requires a square mesh"
                );
                mesh.node(mesh.y(src), mesh.x(src))
            }
            SyntheticPattern::Shuffle => {
                require_pow2();
                let s = src.index();
                NodeId::new(((s << 1) | (s >> (bits - 1))) & (n - 1))
            }
            SyntheticPattern::BitRotation => {
                require_pow2();
                let s = src.index();
                NodeId::new((s >> 1) | ((s & 1) << (bits - 1)))
            }
            SyntheticPattern::BitComplement => {
                require_pow2();
                NodeId::new(!src.index() & (n - 1))
            }
            SyntheticPattern::Tornado => {
                let (x, y) = (mesh.x(src), mesh.y(src));
                let w = mesh.width();
                mesh.node((x + (w.div_ceil(2)).saturating_sub(1).max(1)) % w, y)
            }
            SyntheticPattern::Neighbor => {
                let (x, y) = (mesh.x(src), mesh.y(src));
                mesh.node((x + 1) % mesh.width(), y)
            }
            SyntheticPattern::Hotspot => {
                let center = mesh.node(mesh.width() / 2, mesh.height() / 2);
                if src != center && rng.chance(0.25) {
                    center
                } else {
                    let mut d = rng.range(0, n - 1);
                    if d >= src.index() {
                        d += 1;
                    }
                    NodeId::new(d)
                }
            }
        };
        (dst != src).then_some(dst)
    }
}

/// Open-loop synthetic workload (implements [`Workload`]).
///
/// # Example
///
/// ```
/// use traffic::{SyntheticPattern, SyntheticWorkload};
/// let wl = SyntheticWorkload::new(SyntheticPattern::Transpose, 0.1, 42);
/// assert_eq!(wl.rate(), 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct SyntheticWorkload {
    pattern: SyntheticPattern,
    rate: f64,
    rng: DetRng,
}

/// The classes synthetic traffic is spread over.
const SYNTHETIC_CLASSES: [MessageClass; 3] = [
    MessageClass::Request,
    MessageClass::Forward,
    MessageClass::Response,
];

/// The one rule for an injection rate, in packets/node/cycle, that a
/// front end accepts: it lies in `(0, 1]`.
///
/// # Errors
///
/// Names the rate when it is NaN, infinite, not positive or above 1.
pub fn check_rate(rate: f64) -> Result<(), String> {
    if rate > 0.0 && rate <= 1.0 {
        Ok(())
    } else {
        Err(format!("rate {rate} outside (0, 1]"))
    }
}

impl SyntheticPattern {
    /// The one rule for a mesh a front end runs this pattern on: the bit
    /// patterns need a power-of-two node count, transpose a square mesh.
    ///
    /// # Errors
    ///
    /// Names the pattern, its requirement and the mesh when it is unmet.
    pub fn check(self, mesh: Mesh) -> Result<(), String> {
        let (w, h, n) = (mesh.width(), mesh.height(), mesh.num_nodes());
        match self {
            SyntheticPattern::Shuffle
            | SyntheticPattern::BitRotation
            | SyntheticPattern::BitComplement
                if !n.is_power_of_two() =>
            {
                Err(format!(
                    "pattern {} needs a power-of-two node count; a {w}x{h} mesh has {n}",
                    self.name()
                ))
            }
            SyntheticPattern::Transpose if w != h => Err(format!(
                "pattern {} needs a square mesh, not {w}x{h}",
                self.name()
            )),
            _ => Ok(()),
        }
    }
}

impl SyntheticWorkload {
    /// Creates a workload injecting at `rate` packets/node/cycle.
    pub fn new(pattern: SyntheticPattern, rate: f64, seed: u64) -> Self {
        SyntheticWorkload {
            pattern,
            rate,
            rng: DetRng::new(seed),
        }
    }

    /// The configured injection rate.
    pub fn rate(&self) -> f64 {
        self.rate
    }

    /// The configured pattern.
    pub fn pattern(&self) -> SyntheticPattern {
        self.pattern
    }
}

impl Workload for SyntheticWorkload {
    fn tick(&mut self, core: &mut NetworkCore) {
        let mesh = core.mesh();
        let cycle = core.cycle();
        for src in mesh.nodes() {
            if !self.rng.chance(self.rate) {
                continue;
            }
            let Some(dst) = self.pattern.dest(mesh, src, &mut self.rng) else {
                continue;
            };
            let class = *self.rng.pick(&SYNTHETIC_CLASSES);
            let len = if self.rng.chance(0.5) { 1 } else { 5 };
            core.generate(Packet::new(src, dst, class, len, cycle));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::packet::CLASSES;
    use noc_sim::ni::SourceEntry;

    fn mesh8() -> Mesh {
        Mesh::new(8, 8)
    }

    /// `(class, length)` of every packet waiting in a source queue, where
    /// ticking the workload alone leaves all it generated.
    fn queued(core: &NetworkCore) -> Vec<(MessageClass, u8)> {
        let mut out = Vec::new();
        for n in core.mesh().nodes() {
            for class in CLASSES {
                for entry in core.ni(n).source_iter(class) {
                    let len = match entry {
                        SourceEntry::Pending(p) => p.len_flits(),
                        SourceEntry::Stored(id) => core.store.get(id).len_flits,
                    };
                    out.push((class, len));
                }
            }
        }
        assert!(!out.is_empty(), "the workload generated nothing");
        out
    }

    #[test]
    fn rates_outside_zero_one_are_rejected() {
        for ok in [1e-6, 0.05, 1.0] {
            assert_eq!(check_rate(ok), Ok(()));
        }
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            let err = check_rate(bad).expect_err("rejected");
            assert!(err.contains(&format!("rate {bad} ")), "{err}");
        }
    }

    /// `check` accepts exactly the meshes `dest` runs on: every pattern
    /// on 6×6 (36 nodes), 8×8 and a non-square 4×8, each source node.
    #[test]
    fn check_names_exactly_the_meshes_dest_rejects() {
        use SyntheticPattern as P;
        for (w, h) in [(6, 6), (8, 8), (4, 8)] {
            let mesh = Mesh::new(w, h);
            for p in P::ALL {
                let bit = matches!(p, P::Shuffle | P::BitRotation | P::BitComplement);
                let unmet = match (w, h) {
                    (6, 6) => bit,
                    (4, 8) => p == P::Transpose,
                    _ => false,
                };
                let checked = p.check(mesh);
                assert_eq!(
                    checked.is_err(),
                    unmet,
                    "{} on {w}x{h}: {checked:?}",
                    p.name()
                );
                if let Err(e) = checked {
                    assert!(
                        e.contains(p.name()) && e.contains(&format!("{w}x{h}")),
                        "{e}"
                    );
                }
                let runs = std::panic::catch_unwind(|| {
                    let mut rng = DetRng::new(3);
                    for src in mesh.nodes() {
                        p.dest(mesh, src, &mut rng);
                    }
                });
                assert_eq!(runs.is_err(), unmet, "{} on {w}x{h}", p.name());
            }
        }
    }

    #[test]
    fn transpose_is_an_involution() {
        let m = mesh8();
        let mut rng = DetRng::new(1);
        for src in m.nodes() {
            if let Some(d) = SyntheticPattern::Transpose.dest(m, src, &mut rng) {
                let back = SyntheticPattern::Transpose.dest(m, d, &mut rng).unwrap();
                assert_eq!(back, src);
            } else {
                // Diagonal nodes map to themselves.
                assert_eq!(m.x(src), m.y(src));
            }
        }
    }

    #[test]
    fn shuffle_and_rotation_are_inverse_permutations() {
        let m = mesh8();
        let mut rng = DetRng::new(1);
        for src in m.nodes() {
            let via = SyntheticPattern::Shuffle
                .dest(m, src, &mut rng)
                .unwrap_or(src);
            let back = SyntheticPattern::BitRotation
                .dest(m, via, &mut rng)
                .unwrap_or(via);
            assert_eq!(back, src);
        }
    }

    #[test]
    fn bit_complement_is_an_involution_and_total() {
        let m = mesh8();
        let mut rng = DetRng::new(1);
        for src in m.nodes() {
            let d = SyntheticPattern::BitComplement
                .dest(m, src, &mut rng)
                .unwrap();
            assert_ne!(d, src, "complement never maps to self for n>1");
            let back = SyntheticPattern::BitComplement
                .dest(m, d, &mut rng)
                .unwrap();
            assert_eq!(back, src);
        }
    }

    #[test]
    fn uniform_never_self_and_covers_space() {
        let m = mesh8();
        let mut rng = DetRng::new(7);
        let src = NodeId::new(20);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..2000 {
            let d = SyntheticPattern::Uniform.dest(m, src, &mut rng).unwrap();
            assert_ne!(d, src);
            seen.insert(d);
        }
        assert!(seen.len() > 55, "uniform should reach nearly all 63 peers");
    }

    #[test]
    fn neighbor_wraps_within_row() {
        let m = mesh8();
        let mut rng = DetRng::new(1);
        let right_edge = m.node(7, 3);
        let d = SyntheticPattern::Neighbor
            .dest(m, right_edge, &mut rng)
            .unwrap();
        assert_eq!(d, m.node(0, 3));
    }

    #[test]
    #[should_panic(expected = "square")]
    fn transpose_rejects_rectangles() {
        let m = Mesh::new(4, 2);
        let mut rng = DetRng::new(1);
        let _ = SyntheticPattern::Transpose.dest(m, NodeId::new(0), &mut rng);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn shuffle_rejects_non_pow2() {
        let m = Mesh::new(3, 3);
        let mut rng = DetRng::new(1);
        let _ = SyntheticPattern::Shuffle.dest(m, NodeId::new(1), &mut rng);
    }

    #[test]
    fn workload_generates_at_configured_rate() {
        use noc_core::config::SimConfig;
        let mut core =
            NetworkCore::new(SimConfig::builder().mesh(8, 8).vns(0).vcs_per_vn(1).build());
        let mut wl = SyntheticWorkload::new(SyntheticPattern::Uniform, 0.1, 3);
        for _ in 0..100 {
            wl.tick(&mut core);
            core.advance_cycle();
        }
        // 64 nodes × 100 cycles × 0.1 ≈ 640 expected.
        let g = core.stats.generated as f64;
        assert!((400.0..900.0).contains(&g), "generated {g}");
    }

    #[test]
    fn traffic_spreads_over_three_classes_and_both_lengths() {
        use noc_core::config::SimConfig;
        let mut core =
            NetworkCore::new(SimConfig::builder().mesh(4, 4).vns(0).vcs_per_vn(1).build());
        let mut wl = SyntheticWorkload::new(SyntheticPattern::Uniform, 0.5, 3);
        for _ in 0..20 {
            wl.tick(&mut core);
            core.advance_cycle();
        }
        let packets = queued(&core);
        for class in SYNTHETIC_CLASSES {
            assert!(packets.iter().any(|&(c, _)| c == class), "no {class:?}");
        }
        for (class, len) in packets {
            assert!(SYNTHETIC_CLASSES.contains(&class), "{class:?}");
            assert!(len == 1 || len == 5, "{len} flits");
        }
    }

    #[test]
    fn hotspot_concentrates_on_center() {
        let m = mesh8();
        let mut rng = DetRng::new(13);
        let center = m.node(4, 4);
        let mut hits = 0;
        let trials = 4000;
        for _ in 0..trials {
            let src = NodeId::new(rng.range(0, 64));
            if let Some(d) = SyntheticPattern::Hotspot.dest(m, src, &mut rng) {
                assert_ne!(d, src);
                if d == center {
                    hits += 1;
                }
            }
        }
        let frac = hits as f64 / trials as f64;
        assert!(
            (0.18..0.35).contains(&frac),
            "center share {frac:.3} outside the ~25% design point"
        );
    }
}
