//! Mesh topology, node/port arithmetic and directed-link identifiers.
//!
//! The paper evaluates FastPass on 4×4, 8×8 and 16×16 meshes (Table II).
//! Coordinates follow the paper's figures: `x` is the column (partition
//! index), `y` is the row, row 0 at the top. [`Direction::East`] increases
//! `x`, [`Direction::South`] increases `y`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a router / network-interface pair in the network.
///
/// Nodes are numbered row-major: `id = y * width + x`, matching the
/// numbering of Fig. 1 in the paper (R0..R8 on the 3×3 mesh).
///
/// # Example
///
/// ```
/// use noc_core::topology::{Mesh, NodeId};
/// let m = Mesh::new(3, 3);
/// assert_eq!(m.node(1, 2), NodeId::new(7));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct NodeId(u16);

impl NodeId {
    /// Creates a node identifier from its raw row-major index.
    pub fn new(raw: usize) -> Self {
        debug_assert!(raw <= u16::MAX as usize, "node index out of range");
        NodeId(raw as u16)
    }

    /// Raw row-major index, suitable for indexing per-node vectors.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "R{}", self.0)
    }
}

impl From<NodeId> for usize {
    fn from(n: NodeId) -> usize {
        n.index()
    }
}

/// One of the four mesh directions.
///
/// The discriminants are stable and used to index per-direction arrays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum Direction {
    /// Decreasing `y` (toward row 0).
    North = 0,
    /// Increasing `y`.
    South = 1,
    /// Increasing `x`.
    East = 2,
    /// Decreasing `x` (toward column 0).
    West = 3,
}

/// All four directions in index order (`North`, `South`, `East`, `West`).
pub const DIRECTIONS: [Direction; 4] = [
    Direction::North,
    Direction::South,
    Direction::East,
    Direction::West,
];

impl Direction {
    /// Stable index in `0..4`, matching [`DIRECTIONS`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Direction of travel that undoes this one.
    ///
    /// ```
    /// use noc_core::topology::Direction;
    /// assert_eq!(Direction::East.opposite(), Direction::West);
    /// ```
    pub fn opposite(self) -> Direction {
        match self {
            Direction::North => Direction::South,
            Direction::South => Direction::North,
            Direction::East => Direction::West,
            Direction::West => Direction::East,
        }
    }

    /// Reconstructs a direction from its stable index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 4`.
    pub fn from_index(i: usize) -> Direction {
        DIRECTIONS[i]
    }

    /// Whether travel in this direction changes the `x` coordinate.
    pub fn is_horizontal(self) -> bool {
        matches!(self, Direction::East | Direction::West)
    }
}

impl fmt::Display for Direction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Direction::North => "N",
            Direction::South => "S",
            Direction::East => "E",
            Direction::West => "W",
        };
        f.write_str(s)
    }
}

/// A router port: one of the four direction ports or the local
/// (injection/ejection) port attached to the network interface.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Port {
    /// Port to/from a neighbouring router.
    Dir(Direction),
    /// Port to/from the local network interface.
    Local,
}

/// Number of distinct router ports (4 directions + local).
pub const NUM_PORTS: usize = 5;

impl Port {
    /// Stable index in `0..5`: the four directions then `Local`.
    pub fn index(self) -> usize {
        match self {
            Port::Dir(d) => d.index(),
            Port::Local => 4,
        }
    }

    /// Reconstructs a port from its stable index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 5`.
    pub fn from_index(i: usize) -> Port {
        if i < 4 {
            Port::Dir(Direction::from_index(i))
        } else if i == 4 {
            Port::Local
        } else {
            panic!("port index {i} out of range")
        }
    }

    /// All five ports in index order.
    pub fn all() -> [Port; NUM_PORTS] {
        [
            Port::Dir(Direction::North),
            Port::Dir(Direction::South),
            Port::Dir(Direction::East),
            Port::Dir(Direction::West),
            Port::Local,
        ]
    }
}

impl fmt::Display for Port {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Port::Dir(d) => write!(f, "{d}"),
            Port::Local => f.write_str("L"),
        }
    }
}

/// Identifier of a *directed* physical link `(from, direction)`.
///
/// A bidirectional channel between adjacent routers consists of two
/// opposing directed links with distinct `LinkId`s — this distinction is
/// what makes the FastPass outbound lanes and returning paths provably
/// non-overlapping (§III-E of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LinkId(u32);

impl LinkId {
    /// Builds a link id from its dense index (the inverse of
    /// [`LinkId::index`], in [`Mesh::link`]'s `from * 4 + direction`
    /// numbering).
    pub fn new(raw: usize) -> Self {
        LinkId(raw as u32)
    }

    /// Dense index usable for per-link vectors of size [`Mesh::num_links`].
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// A `width × height` 2D mesh.
///
/// This is the concrete topology used by the simulator. All routing
/// functions, the FastPass partition/lane construction and the baseline
/// schemes are defined in terms of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Mesh {
    width: u16,
    height: u16,
}

impl Mesh {
    /// Creates a mesh with the given number of columns and rows.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the mesh would exceed
    /// `u16::MAX` nodes.
    pub fn new(width: usize, height: usize) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be nonzero");
        assert!(width * height <= u16::MAX as usize, "mesh too large");
        Mesh {
            width: width as u16,
            height: height as u16,
        }
    }

    /// Number of columns (also the number of FastPass partitions `P`).
    pub fn width(self) -> usize {
        self.width as usize
    }

    /// Number of rows.
    pub fn height(self) -> usize {
        self.height as usize
    }

    /// Total number of nodes.
    pub fn num_nodes(self) -> usize {
        self.width() * self.height()
    }

    /// Number of directed-link slots (`4 × num_nodes`; edge slots that
    /// leave the mesh are never produced by [`Mesh::link`]).
    pub fn num_links(self) -> usize {
        4 * self.num_nodes()
    }

    /// Node at column `x`, row `y`.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the coordinates are out of range.
    pub fn node(self, x: usize, y: usize) -> NodeId {
        debug_assert!(x < self.width(), "x={x} out of range");
        debug_assert!(y < self.height(), "y={y} out of range");
        NodeId::new(y * self.width() + x)
    }

    /// Column of `n` (the FastPass partition it belongs to).
    pub fn x(self, n: NodeId) -> usize {
        n.index() % self.width()
    }

    /// Row of `n`.
    pub fn y(self, n: NodeId) -> usize {
        n.index() / self.width()
    }

    /// Iterator over all node ids in row-major order.
    pub fn nodes(self) -> impl Iterator<Item = NodeId> {
        (0..self.num_nodes()).map(NodeId::new)
    }

    /// The neighbour of `n` in direction `d`, or `None` at a mesh edge.
    pub fn neighbor(self, n: NodeId, d: Direction) -> Option<NodeId> {
        let (x, y) = (self.x(n), self.y(n));
        match d {
            Direction::North if y > 0 => Some(self.node(x, y - 1)),
            Direction::South if y + 1 < self.height() => Some(self.node(x, y + 1)),
            Direction::East if x + 1 < self.width() => Some(self.node(x + 1, y)),
            Direction::West if x > 0 => Some(self.node(x - 1, y)),
            _ => None,
        }
    }

    /// The directed link leaving `n` in direction `d`, or `None` at an edge.
    pub fn link(self, n: NodeId, d: Direction) -> Option<LinkId> {
        self.neighbor(n, d)
            .map(|_| LinkId((n.index() * 4 + d.index()) as u32))
    }

    /// Decomposes a link id back into `(from, direction)`.
    pub fn link_endpoints(self, l: LinkId) -> (NodeId, Direction) {
        (
            NodeId::new(l.index() / 4),
            Direction::from_index(l.index() % 4),
        )
    }

    /// Manhattan hop distance between two nodes.
    pub fn hops(self, a: NodeId, b: NodeId) -> usize {
        self.x(a).abs_diff(self.x(b)) + self.y(a).abs_diff(self.y(b))
    }

    /// Network diameter (maximum minimal hop count between any pair).
    pub fn diameter(self) -> usize {
        self.width() - 1 + self.height() - 1
    }

    /// Minimal productive directions from `from` toward `to`.
    ///
    /// Returns zero, one or two directions: the horizontal correction (if
    /// any) followed by the vertical correction (if any). An empty result
    /// means `from == to`.
    pub fn productive_dirs(self, from: NodeId, to: NodeId) -> ProductiveDirs {
        ProductiveDirs::from_deltas(
            self.x(to) as isize - self.x(from) as isize,
            self.y(to) as isize - self.y(from) as isize,
        )
    }

    /// Next hop under dimension-ordered XY routing (X first, then Y).
    ///
    /// Returns `None` when `from == to`. XY routing is what FastPass-Lanes
    /// use outbound (§III-E).
    pub fn xy_next(self, from: NodeId, to: NodeId) -> Option<Direction> {
        let (fx, fy) = (self.x(from), self.y(from));
        let (tx, ty) = (self.x(to), self.y(to));
        if tx > fx {
            Some(Direction::East)
        } else if tx < fx {
            Some(Direction::West)
        } else if ty > fy {
            Some(Direction::South)
        } else if ty < fy {
            Some(Direction::North)
        } else {
            None
        }
    }

    /// Next hop under dimension-ordered YX routing (Y first, then X).
    ///
    /// Returning paths of rejected FastPass-Packets use YX (§III-E).
    pub fn yx_next(self, from: NodeId, to: NodeId) -> Option<Direction> {
        let (fx, fy) = (self.x(from), self.y(from));
        let (tx, ty) = (self.x(to), self.y(to));
        if ty > fy {
            Some(Direction::South)
        } else if ty < fy {
            Some(Direction::North)
        } else if tx > fx {
            Some(Direction::East)
        } else if tx < fx {
            Some(Direction::West)
        } else {
            None
        }
    }

    /// The full XY path from `from` to `to` as the sequence of nodes
    /// visited, including both endpoints.
    pub fn xy_path(self, from: NodeId, to: NodeId) -> Vec<NodeId> {
        self.path_by(from, to, |cur| self.xy_next(cur, to))
    }

    /// The full YX path from `from` to `to`, including both endpoints.
    pub fn yx_path(self, from: NodeId, to: NodeId) -> Vec<NodeId> {
        self.path_by(from, to, |cur| self.yx_next(cur, to))
    }

    fn path_by(
        self,
        from: NodeId,
        to: NodeId,
        mut next: impl FnMut(NodeId) -> Option<Direction>,
    ) -> Vec<NodeId> {
        let mut path = vec![from];
        let mut cur = from;
        while cur != to {
            let d = next(cur).expect("routing function stalled before destination");
            cur = self.neighbor(cur, d).expect("routing left the mesh");
            path.push(cur);
        }
        path
    }
}

/// Up to two minimal productive directions (see [`Mesh::productive_dirs`]):
/// at most one horizontal correction and one vertical, listed in that
/// order. Two scalar slots rather than an indexed list, so the per-head
/// route path builds, filters and walks it in registers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProductiveDirs {
    horizontal: Option<Direction>,
    vertical: Option<Direction>,
}

impl ProductiveDirs {
    /// Builds the productive set from coordinate deltas (`to − from`).
    /// Lets callers holding cached coordinates skip the per-call
    /// index-to-coordinate division.
    pub fn from_deltas(dx: isize, dy: isize) -> ProductiveDirs {
        use std::cmp::Ordering::{Equal, Greater, Less};
        ProductiveDirs {
            horizontal: match dx.cmp(&0) {
                Greater => Some(Direction::East),
                Less => Some(Direction::West),
                Equal => None,
            },
            vertical: match dy.cmp(&0) {
                Greater => Some(Direction::South),
                Less => Some(Direction::North),
                Equal => None,
            },
        }
    }

    /// Number of productive directions (0, 1 or 2).
    pub fn len(&self) -> usize {
        self.iter().count()
    }

    /// Whether the source already is the destination.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterator over the directions, the horizontal one first.
    pub fn iter(&self) -> impl Iterator<Item = Direction> + '_ {
        [self.horizontal, self.vertical].into_iter().flatten()
    }

    /// Whether `d` is one of the productive directions.
    pub fn contains(&self, d: Direction) -> bool {
        self.iter().any(|x| x == d)
    }

    /// The directions `keep` admits, in the same order: how a routing
    /// discipline narrows the minimal set to its own.
    pub fn filter(self, mut keep: impl FnMut(Direction) -> bool) -> ProductiveDirs {
        ProductiveDirs {
            horizontal: self.horizontal.filter(|&d| keep(d)),
            vertical: self.vertical.filter(|&d| keep(d)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_coordinates_roundtrip() {
        let m = Mesh::new(8, 8);
        for y in 0..8 {
            for x in 0..8 {
                let n = m.node(x, y);
                assert_eq!(m.x(n), x);
                assert_eq!(m.y(n), y);
            }
        }
    }

    #[test]
    fn fig1_numbering_matches_paper() {
        // Fig. 1 of the paper: 3×3 mesh, R0..R2 top row, R6..R8 bottom row.
        let m = Mesh::new(3, 3);
        assert_eq!(m.node(0, 0), NodeId::new(0));
        assert_eq!(m.node(2, 0), NodeId::new(2));
        assert_eq!(m.node(0, 2), NodeId::new(6));
        assert_eq!(m.node(2, 2), NodeId::new(8));
    }

    #[test]
    fn neighbors_respect_edges() {
        let m = Mesh::new(4, 4);
        let corner = m.node(0, 0);
        assert_eq!(m.neighbor(corner, Direction::North), None);
        assert_eq!(m.neighbor(corner, Direction::West), None);
        assert_eq!(m.neighbor(corner, Direction::East), Some(m.node(1, 0)));
        assert_eq!(m.neighbor(corner, Direction::South), Some(m.node(0, 1)));
    }

    #[test]
    fn neighbor_is_symmetric() {
        let m = Mesh::new(5, 3);
        for n in m.nodes() {
            for d in DIRECTIONS {
                if let Some(nb) = m.neighbor(n, d) {
                    assert_eq!(m.neighbor(nb, d.opposite()), Some(n));
                }
            }
        }
    }

    #[test]
    fn links_are_unique_and_decodable() {
        let m = Mesh::new(4, 5);
        let mut seen = std::collections::HashSet::new();
        for n in m.nodes() {
            for d in DIRECTIONS {
                if let Some(l) = m.link(n, d) {
                    assert!(seen.insert(l), "duplicate link id {l}");
                    assert_eq!(m.link_endpoints(l), (n, d));
                    assert!(l.index() < m.num_links());
                }
            }
        }
        // A w×h mesh has 2·(w−1)·h + 2·w·(h−1) directed links.
        assert_eq!(seen.len(), 2 * 3 * 5 + 2 * 4 * 4);
    }

    #[test]
    fn opposite_links_differ() {
        let m = Mesh::new(3, 3);
        let a = m.node(0, 0);
        let b = m.node(1, 0);
        let ab = m.link(a, Direction::East).unwrap();
        let ba = m.link(b, Direction::West).unwrap();
        assert_ne!(ab, ba, "opposing unidirectional links must be distinct");
    }

    #[test]
    fn hops_and_diameter() {
        let m = Mesh::new(8, 8);
        assert_eq!(m.diameter(), 14);
        assert_eq!(m.hops(m.node(0, 0), m.node(7, 7)), 14);
        assert_eq!(m.hops(m.node(3, 3), m.node(3, 3)), 0);
    }

    #[test]
    fn xy_and_yx_paths_are_minimal_and_distinct() {
        let m = Mesh::new(6, 6);
        let a = m.node(1, 4);
        let b = m.node(4, 1);
        let xy = m.xy_path(a, b);
        let yx = m.yx_path(a, b);
        assert_eq!(xy.len(), m.hops(a, b) + 1);
        assert_eq!(yx.len(), m.hops(a, b) + 1);
        assert_eq!(xy.first(), Some(&a));
        assert_eq!(xy.last(), Some(&b));
        assert_ne!(xy, yx, "XY and YX must differ off-axis");
    }

    #[test]
    fn xy_path_degenerate_cases() {
        let m = Mesh::new(4, 4);
        let a = m.node(2, 2);
        assert_eq!(m.xy_path(a, a), vec![a]);
        assert_eq!(m.xy_next(a, a), None);
        assert_eq!(m.yx_next(a, a), None);
    }

    #[test]
    fn productive_dirs_cover_quadrants() {
        let m = Mesh::new(8, 8);
        let c = m.node(4, 4);
        let ne = m.node(6, 2);
        let dirs = m.productive_dirs(c, ne);
        assert_eq!(dirs.len(), 2);
        assert!(dirs.contains(Direction::East));
        assert!(dirs.contains(Direction::North));
        assert!(!dirs.contains(Direction::South));

        let same_col = m.node(4, 7);
        let dirs = m.productive_dirs(c, same_col);
        assert_eq!(dirs.len(), 1);
        assert!(dirs.contains(Direction::South));

        assert!(m.productive_dirs(c, c).is_empty());
    }

    #[test]
    fn port_indexing_roundtrip() {
        for (i, p) in Port::all().into_iter().enumerate() {
            assert_eq!(p.index(), i);
            assert_eq!(Port::from_index(i), p);
        }
    }

    #[test]
    fn direction_opposite_is_involutive() {
        for d in DIRECTIONS {
            assert_eq!(d.opposite().opposite(), d);
            assert_eq!(Direction::from_index(d.index()), d);
        }
    }

    #[test]
    #[should_panic]
    fn port_index_out_of_range_panics() {
        let _ = Port::from_index(5);
    }
}
