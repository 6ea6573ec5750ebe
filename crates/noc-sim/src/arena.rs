//! Struct-of-arrays storage for every VC buffer in the network.
//!
//! The active-set rewrite (PR 2) made the cycle loop proportional to
//! *activity*; this layout makes the remaining work proportional to
//! *cache lines*. All per-VC state lives in flat vectors indexed by a
//! dense slot id — the five byte-sized fields (`len`, `arrived`, `sent`,
//! `route`, `out_vc`) packed into one `meta` word per slot so every
//! hot-path predicate is a single bounds-checked load —
//!
//! ```text
//! slot(node, port, vc) = (node * NUM_PORTS + port) * vcs_per_port + vc
//! ```
//!
//! and the predicates the hot loops scan live in one co-located
//! [`PortWords`] record per `(node, port)` (record index
//! `node * NUM_PORTS + port`), so route allocation, switch allocation and
//! the active-set scan operate word-at-a-time instead of chasing
//! `Option<VcOccupant>`s through nested per-router structs.
//!
//! Word-level invariants, maintained by construction and checked by the
//! conservation audit:
//!
//! * **occupancy** — bit `vc` of `occ` is set iff slot `(n, p, vc)` holds
//!   a packet; every field array entry is meaningful only under a set bit.
//! * **routed** — `routed ⊆ occ`, and bit `vc` is set iff the occupant's
//!   route has been computed.
//! * **ready** — `ready ⊆ occ`, and bit `vc` is set iff the occupant has
//!   a flit to forward (`sent < arrived`). An unrouted occupant has sent
//!   nothing, so under a clear routed bit "ready" means "head present".
//! * **parked** — `parked ⊆ occ & !routed`, and a set bit means: across
//!   each of the head's wait directions, every VC of its class range is
//!   either occupied or one its routing policy has already *refused* it
//!   (the per-slot `refused` masks), *and* the head is registered in this
//!   node's waiter words for each direction. Its policy cannot grant such
//!   a head (see
//!   [`RoutingPolicy::route`](crate::routing::RoutingPolicy::route)), so
//!   route allocation skips it until a VC it waits on is freed.
//! * **counts** — `node_occupied[n]` equals the population count of node
//!   `n`'s five occupancy words (the router half of the active-set
//!   predicate, O(1) per node).
//! * **occupied nodes** — bit `n` of the `occ_nodes` bitset is set iff
//!   `node_occupied[n] > 0`: [`install`](VcArena::install) sets it,
//!   [`take`](VcArena::take) clears it when the count returns to zero.
//!   The cycle loop walks these bits instead of asking every node.
//!
//! Route allocation scans `ready & !routed & !parked`; switch allocation
//! scans `ready & routed` (both implicitly `& occ`).
//!
//! Mutator locality: occupants enter and leave slots *only* through
//! [`VcArena::install`] / [`VcArena::take`] (wrapped for external crates
//! by [`InputMut`]), flit counters advance only through
//! [`VcArena::flit_arrived`] / [`VcArena::flit_sent`], and heads park only
//! through [`VcArena::park`], so the words can never drift from the
//! fields they summarize. [`VcArena::take`] — the only way a VC becomes
//! free — is also where parked heads are woken. `noc-lint`'s occupancy
//! rule enforces that call sites stay inside the relocation whitelist.

use crate::vc::VcOccupant;
use noc_core::config::SimConfig;
use noc_core::packet::{PacketId, NUM_CLASSES};
use noc_core::topology::{Direction, Port, ProductiveDirs, DIRECTIONS, NUM_PORTS};

/// `route` field sentinel: no route allocated.
pub(crate) const NO_ROUTE: u8 = u8::MAX;
/// `out_vc` field sentinel: no downstream VC allocated.
pub(crate) const NO_OUT_VC: u8 = u8::MAX;

/// Bit offset of the `len` byte in a packed meta word.
pub(crate) const M_LEN: u32 = 0;
/// Bit offset of the `arrived` byte in a packed meta word.
pub(crate) const M_ARRIVED: u32 = 8;
/// Bit offset of the `sent` byte in a packed meta word.
pub(crate) const M_SENT: u32 = 16;
/// Bit offset of the `route` byte in a packed meta word.
pub(crate) const M_ROUTE: u32 = 24;
/// Bit offset of the `out_vc` byte in a packed meta word.
pub(crate) const M_OUT_VC: u32 = 32;

/// `len` byte of a packed meta word.
#[inline]
pub(crate) fn m_len(m: u64) -> u8 {
    (m >> M_LEN) as u8
}

/// `arrived` byte of a packed meta word.
#[inline]
pub(crate) fn m_arrived(m: u64) -> u8 {
    (m >> M_ARRIVED) as u8
}

/// `sent` byte of a packed meta word.
#[inline]
pub(crate) fn m_sent(m: u64) -> u8 {
    (m >> M_SENT) as u8
}

/// `route` byte of a packed meta word ([`NO_ROUTE`] when unrouted).
#[inline]
pub(crate) fn m_route(m: u64) -> u8 {
    (m >> M_ROUTE) as u8
}

/// `out_vc` byte of a packed meta word ([`NO_OUT_VC`] when unallocated).
#[inline]
pub(crate) fn m_out_vc(m: u64) -> u8 {
    (m >> M_OUT_VC) as u8
}

/// Packs the five per-slot byte fields into one meta word.
#[inline]
pub(crate) fn pack_meta(len: u8, arrived: u8, sent: u8, route: u8, out_vc: u8) -> u64 {
    (len as u64) << M_LEN
        | (arrived as u64) << M_ARRIVED
        | (sent as u64) << M_SENT
        | (route as u64) << M_ROUTE
        | (out_vc as u64) << M_OUT_VC
}

/// Sentinel in the link tables: no such link (mesh edge / Local port).
const NO_LINK: u32 = u32::MAX;

/// The four predicate words of one `(node, port)`, co-located so a
/// pipeline stage reads one record per port instead of one entry from
/// each of four vectors. Bit `vc` of every word describes slot
/// `(node, port, vc)`; see the module docs for the invariants.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct PortWords {
    /// Occupied VCs.
    pub(crate) occ: u64,
    /// Occupants whose route has been computed (`routed ⊆ occ`).
    pub(crate) routed: u64,
    /// Occupants with a flit to forward, `sent < arrived` (`ready ⊆ occ`).
    pub(crate) ready: u64,
    /// Blocked heads waiting for a VC free (`parked ⊆ occ & !routed`).
    pub(crate) parked: u64,
}

/// Flat struct-of-arrays storage for all `(node, port, vc)` buffers.
///
/// Field vectors are `pub(crate)`: the hot pipeline (`regular`,
/// `network`) reads them in place; everything else goes through
/// [`InputRef`] / [`InputMut`] views obtained from
/// [`NetworkCore`](crate::network::NetworkCore).
#[derive(Debug, Clone)]
pub struct VcArena {
    vcs: usize,
    /// Resident packet per slot (valid only under a set occupancy bit).
    pub(crate) pkt: Vec<PacketId>,
    /// Packed per-slot flit state, one word per slot: `len`, `arrived`,
    /// `sent`, `route` and `out_vc` bytes at the [`M_LEN`]..[`M_OUT_VC`]
    /// offsets. One load serves every hot-path predicate on a slot, and
    /// `arrived`/`sent` advance by adding `1 << M_ARRIVED` /
    /// `1 << M_SENT` (no carry can escape a byte: both are bounded by
    /// `len < 255`).
    pub(crate) meta: Vec<u64>,
    /// Cycle the head flit arrived (blocked-time bookkeeping).
    pub(crate) head_arrival: Vec<u64>,
    /// Cycle of the last forward progress from the slot.
    pub(crate) last_progress: Vec<u64>,
    /// Per slot, per wait direction (in [`ProductiveDirs`] order): VCs at
    /// the neighbour that were free when the occupant's routing policy
    /// returned `None`. Which `(direction, VC)` pairs a policy may grant
    /// a given head is fixed for as long as it sits in the slot, so a VC
    /// refused once stays refused: it never makes the head routable.
    /// Cleared by [`install`](Self::install).
    refused: Vec<[u64; 2]>,
    /// Predicate words, one record per `(node, port)`.
    pub(crate) ports: Vec<PortWords>,
    /// Occupied-VC count per node (popcount of its five `occ` words).
    node_occupied: Vec<u32>,
    /// Bit `n` set iff `node_occupied[n] > 0` (exact, not a superset).
    pub(crate) occ_nodes: Vec<u64>,
    /// VC mask of each VN's range (one all-VCs entry when `vns == 0`).
    vn_mask: Vec<u64>,
    /// VN that owns each VC index.
    vn_of_vc: Vec<u8>,
    /// VN whose VC range serves each message class (the index form of
    /// [`SimConfig::vc_range_for_class`]).
    vn_of_class: [u8; NUM_CLASSES],
    /// Link `node * 4 + d` → record index of the input port it feeds at
    /// the neighbour ([`NO_LINK`] off the mesh edge).
    down: Vec<u32>,
    /// Record index `(node, port)` → the link feeding that input port
    /// ([`NO_LINK`] for Local ports and edge-facing ports).
    feeder: Vec<u32>,
    /// Waiter words: index `(link * nvn + vn) * NUM_PORTS + p` holds the
    /// VCs of input port `p` *at the link's source router* whose parked
    /// heads wait for a VC of VN `vn` across that link. Bits are set by
    /// [`park`](Self::park) and cleared wholesale when the wake fires; a
    /// bit left behind by a head that departed some other way is stale
    /// and harmless — it can only un-park a later head early, which
    /// re-checks and parks again.
    waiters: Vec<u64>,
    /// Per `link * nvn + vn`: which of the five waiter words are
    /// nonzero, so a VC free with nobody waiting costs one byte load.
    waiter_ports: Vec<u8>,
    /// Planted bug for the audit's self-test: `take` skips the wake.
    #[cfg(test)]
    pub(crate) fault_skip_wake: bool,
}

impl VcArena {
    /// Creates an empty arena for `cfg`'s mesh, with
    /// [`vcs_per_port`](SimConfig::vcs_per_port) VCs on each of every
    /// router's [`NUM_PORTS`] input ports.
    ///
    /// # Panics
    ///
    /// Panics if `vcs_per_port > 64` (one word per port);
    /// [`SimConfig::validate`] rejects such configurations with a typed
    /// error before a network is ever built.
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        let mesh = cfg.mesh;
        let num_nodes = mesh.num_nodes();
        let vcs = cfg.vcs_per_port();
        assert!(vcs <= 64, "at most 64 VCs per input port");
        let nvn = cfg.vns.max(1);
        let slots = num_nodes * NUM_PORTS * vcs;
        let words = num_nodes * NUM_PORTS;
        let mut down = vec![NO_LINK; num_nodes * 4];
        let mut feeder = vec![NO_LINK; words];
        for n in mesh.nodes() {
            for d in DIRECTIONS {
                if let Some(nbr) = mesh.neighbor(n, d) {
                    let link = n.index() * 4 + d.index();
                    let fed = nbr.index() * NUM_PORTS + Port::Dir(d.opposite()).index();
                    down[link] = fed as u32;
                    feeder[fed] = link as u32;
                }
            }
        }
        VcArena {
            vcs,
            pkt: vec![PacketId::PLACEHOLDER; slots],
            meta: vec![pack_meta(0, 0, 0, NO_ROUTE, NO_OUT_VC); slots],
            head_arrival: vec![0; slots],
            last_progress: vec![0; slots],
            refused: vec![[0; 2]; slots],
            ports: vec![PortWords::default(); words],
            node_occupied: vec![0; num_nodes],
            occ_nodes: vec![0; num_nodes.div_ceil(64)],
            vn_mask: (0..nvn)
                .map(|vn| range_mask(cfg.vc_range_for_class(vn), vcs))
                .collect(),
            vn_of_vc: (0..vcs).map(|vc| (vc / cfg.vcs_per_vn) as u8).collect(),
            vn_of_class: std::array::from_fn(|c| (c % nvn) as u8),
            down,
            feeder,
            waiters: vec![0; num_nodes * 4 * nvn * NUM_PORTS],
            waiter_ports: vec![0; num_nodes * 4 * nvn],
            #[cfg(test)]
            fault_skip_wake: false,
        }
    }

    /// VCs per input port.
    #[inline]
    pub fn vcs_per_port(&self) -> usize {
        self.vcs
    }

    /// Record index of `(node, port)` in [`ports`](Self::ports).
    #[inline]
    pub(crate) fn word(&self, node: usize, port: usize) -> usize {
        node * NUM_PORTS + port
    }

    /// Dense slot id of `(node, port, vc)`.
    #[inline]
    pub(crate) fn slot(&self, node: usize, port: usize, vc: usize) -> usize {
        (node * NUM_PORTS + port) * self.vcs + vc
    }

    /// Occupied VCs at `node` across all ports — O(1).
    #[inline]
    pub(crate) fn node_occupied(&self, node: usize) -> usize {
        self.node_occupied[node] as usize
    }

    /// Whether `node`'s bit is set in the occupied-nodes bitset (audit
    /// use; the cycle loop reads the words).
    pub(crate) fn in_occ_nodes(&self, node: usize) -> bool {
        self.occ_nodes[node / 64] & (1 << (node % 64)) != 0
    }

    /// Whether slot `(node, port, vc)` holds a packet.
    #[inline]
    pub(crate) fn is_occupied(&self, node: usize, port: usize, vc: usize) -> bool {
        self.ports[self.word(node, port)].occ & (1 << vc) != 0
    }

    /// The VN whose VC range serves message class `class_index`.
    #[inline]
    pub(crate) fn vn_of_class(&self, class_index: usize) -> usize {
        self.vn_of_class[class_index] as usize
    }

    /// Materializes the occupant of an **occupied** slot.
    #[inline]
    pub(crate) fn get(&self, s: usize) -> VcOccupant {
        let m = self.meta[s];
        VcOccupant {
            pkt: self.pkt[s],
            len: m_len(m),
            arrived: m_arrived(m),
            sent: m_sent(m),
            route: match m_route(m) {
                NO_ROUTE => None,
                i => Some(Port::from_index(i as usize)),
            },
            out_vc: match m_out_vc(m) {
                NO_OUT_VC => None,
                v => Some(v as usize),
            },
            head_arrival: self.head_arrival[s],
            last_progress: self.last_progress[s],
        }
    }

    /// Installs a new occupant into `(node, port, vc)`, updating the
    /// predicate words and the node count. The occupant starts unparked.
    ///
    /// # Panics
    ///
    /// Panics if the slot is already occupied — upstream VC allocation
    /// must never double-book a buffer — or if `vc` is out of range.
    pub(crate) fn install(&mut self, node: usize, port: usize, vc: usize, occ: VcOccupant) {
        assert!(vc < self.vcs, "VC index out of range");
        let w = self.word(node, port);
        let bit = 1u64 << vc;
        assert!(self.ports[w].occ & bit == 0, "VC double-booked");
        let s = self.slot(node, port, vc);
        self.pkt[s] = occ.pkt;
        self.meta[s] = pack_meta(
            occ.len,
            occ.arrived,
            occ.sent,
            occ.route.map_or(NO_ROUTE, |p| p.index() as u8),
            occ.out_vc.map_or(NO_OUT_VC, |v| v as u8),
        );
        self.head_arrival[s] = occ.head_arrival;
        self.last_progress[s] = occ.last_progress;
        self.refused[s] = [0; 2];
        let pw = &mut self.ports[w];
        pw.occ |= bit;
        pw.routed = (pw.routed & !bit) | if occ.route.is_some() { bit } else { 0 };
        pw.ready = (pw.ready & !bit) | if occ.sent < occ.arrived { bit } else { 0 };
        pw.parked &= !bit;
        self.node_occupied[node] += 1;
        self.occ_nodes[node / 64] |= 1 << (node % 64);
    }

    /// Removes and returns the occupant of `(node, port, vc)`, freeing
    /// the slot and updating the words and the node count.
    ///
    /// This is the only way a VC becomes free, so it is also the wake
    /// point of event-driven allocation: every head parked at the
    /// upstream router on (the link feeding this port, this VC's VN) is
    /// un-parked, and route allocation looks at it again next time.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    pub(crate) fn take(&mut self, node: usize, port: usize, vc: usize) -> Option<VcOccupant> {
        assert!(vc < self.vcs, "VC index out of range");
        let w = self.word(node, port);
        let bit = 1u64 << vc;
        if self.ports[w].occ & bit == 0 {
            return None;
        }
        let occ = self.get(self.slot(node, port, vc));
        let pw = &mut self.ports[w];
        pw.occ &= !bit;
        pw.routed &= !bit;
        pw.ready &= !bit;
        pw.parked &= !bit;
        self.node_occupied[node] -= 1;
        if self.node_occupied[node] == 0 {
            self.occ_nodes[node / 64] &= !(1 << (node % 64));
        }
        #[cfg(test)]
        if self.fault_skip_wake {
            return Some(occ);
        }
        let link = self.feeder[w];
        if link != NO_LINK {
            let k = self.waiter_key(link as usize, self.vn_of_vc[vc] as usize);
            let mut waiting = self.waiter_ports[k];
            if waiting != 0 {
                self.waiter_ports[k] = 0;
                // The link's source router: `link = upstream * 4 + d`.
                let up = (link as usize / 4) * NUM_PORTS;
                while waiting != 0 {
                    let p = waiting.trailing_zeros() as usize;
                    waiting &= waiting - 1;
                    let woken = std::mem::take(&mut self.waiters[k * NUM_PORTS + p]);
                    self.ports[up + p].parked &= !woken;
                }
            }
        }
        Some(occ)
    }

    /// Records the route decision for an occupied slot, keeping the
    /// routed word in sync (the slot leaves the route-allocation scan and
    /// enters the switch-request scan).
    #[inline]
    pub(crate) fn set_route(&mut self, node: usize, port: usize, vc: usize, out: Port) {
        let s = self.slot(node, port, vc);
        self.meta[s] = (self.meta[s] & !(0xFFu64 << M_ROUTE)) | ((out.index() as u64) << M_ROUTE);
        let w = self.word(node, port);
        debug_assert!(
            self.ports[w].parked & (1 << vc) == 0,
            "routing a parked head"
        );
        self.ports[w].routed |= 1 << vc;
    }

    /// [`set_route`](Self::set_route) plus the downstream VC allocation,
    /// in one read-modify-write of the slot's meta word (the direction
    /// branch of route allocation always records both together).
    #[inline]
    pub(crate) fn set_route_vc(
        &mut self,
        node: usize,
        port: usize,
        vc: usize,
        out: Port,
        out_vc: u8,
    ) {
        let s = self.slot(node, port, vc);
        self.meta[s] = (self.meta[s] & !((0xFFu64 << M_ROUTE) | (0xFFu64 << M_OUT_VC)))
            | ((out.index() as u64) << M_ROUTE)
            | ((out_vc as u64) << M_OUT_VC);
        let w = self.word(node, port);
        debug_assert!(
            self.ports[w].parked & (1 << vc) == 0,
            "routing a parked head"
        );
        self.ports[w].routed |= 1 << vc;
    }

    /// One flit arrives into occupied slot `(node, port, vc)`: `arrived`
    /// advances and the slot becomes flit-ready. Returns the slot id and
    /// its new meta word.
    #[inline]
    pub(crate) fn flit_arrived(&mut self, node: usize, port: usize, vc: usize) -> (usize, u64) {
        let s = self.slot(node, port, vc);
        debug_assert!(
            m_arrived(self.meta[s]) < m_len(self.meta[s]),
            "more flits arrived than packet length"
        );
        let m = self.meta[s] + (1 << M_ARRIVED);
        self.meta[s] = m;
        let w = self.word(node, port);
        self.ports[w].ready |= 1 << vc;
        (s, m)
    }

    /// One flit leaves occupied slot `(node, port, vc)`: `sent` advances
    /// and the ready bit drops once the buffer has nothing more to
    /// forward. Returns the slot id and its new meta word.
    #[inline]
    pub(crate) fn flit_sent(&mut self, node: usize, port: usize, vc: usize) -> (usize, u64) {
        let s = self.slot(node, port, vc);
        debug_assert!(
            m_sent(self.meta[s]) < m_arrived(self.meta[s]),
            "sending a flit that has not arrived"
        );
        let m = self.meta[s] + (1 << M_SENT);
        self.meta[s] = m;
        if m_sent(m) == m_arrived(m) {
            let w = self.word(node, port);
            self.ports[w].ready &= !(1 << vc);
        }
        (s, m)
    }

    // ---- event-driven allocation ----------------------------------------

    /// Index of `(link, vn)` in [`waiter_ports`](Self::waiter_ports);
    /// its five waiter words start at `key * NUM_PORTS`.
    #[inline]
    fn waiter_key(&self, link: usize, vn: usize) -> usize {
        link * self.vn_mask.len() + vn
    }

    /// Free VCs of VN `vn` at the far end of `d` from `node`. `d` must
    /// stay on the mesh (productive directions always do).
    #[inline]
    fn free_across(&self, node: usize, d: Direction, vn: usize) -> u64 {
        let fed = self.down[node * 4 + d.index()];
        debug_assert!(fed != NO_LINK, "wait direction leaves the mesh");
        !self.ports[fed as usize].occ & self.vn_mask[vn]
    }

    /// Whether the head in slot `s` at `node`, with wait set `dirs` × VN
    /// `vn`, is blocked: across every wait direction each VC of the VN is
    /// occupied or already refused to this head.
    #[inline]
    pub(crate) fn wait_blocked(
        &self,
        node: usize,
        s: usize,
        dirs: ProductiveDirs,
        vn: usize,
    ) -> bool {
        let refused = self.refused[s];
        dirs.iter()
            .zip(refused)
            .all(|(d, r)| self.free_across(node, d, vn) & !r == 0)
    }

    /// Records that the routing policy returned `None` for the head in
    /// slot `s` while these VCs were free: it will not grant them to
    /// this head, so they stop counting against
    /// [`wait_blocked`](Self::wait_blocked).
    #[inline]
    pub(crate) fn note_refusal(&mut self, node: usize, s: usize, dirs: ProductiveDirs, vn: usize) {
        for (i, d) in dirs.iter().enumerate() {
            self.refused[s][i] |= self.free_across(node, d, vn);
        }
    }

    /// Parks the unrouted head in `(node, port, vc)` on wait set `dirs` ×
    /// VN `vn`: route allocation skips it until [`take`](Self::take)
    /// frees a VC of that VN across one of those links. The caller has
    /// just seen [`wait_blocked`](Self::wait_blocked).
    #[inline]
    pub(crate) fn park(
        &mut self,
        node: usize,
        port: usize,
        vc: usize,
        dirs: ProductiveDirs,
        vn: usize,
    ) {
        debug_assert!(
            self.wait_blocked(node, self.slot(node, port, vc), dirs, vn),
            "parking a routable head"
        );
        let w = self.word(node, port);
        debug_assert!(
            self.ports[w].occ & !self.ports[w].routed & (1 << vc) != 0,
            "parking an empty or routed slot"
        );
        self.ports[w].parked |= 1 << vc;
        for d in dirs.iter() {
            let k = self.waiter_key(node * 4 + d.index(), vn);
            self.waiters[k * NUM_PORTS + port] |= 1 << vc;
            self.waiter_ports[k] |= 1 << port;
        }
    }

    /// The refused-VC masks of slot `s`, per wait direction (audit use).
    pub(crate) fn refused(&self, s: usize) -> [u64; 2] {
        self.refused[s]
    }

    /// Whether the head in `(node, port, vc)` is registered as a waiter
    /// on `(d, vn)` (audit use).
    pub(crate) fn is_waiting_on(
        &self,
        node: usize,
        port: usize,
        vc: usize,
        d: Direction,
        vn: usize,
    ) -> bool {
        let k = self.waiter_key(node * 4 + d.index(), vn);
        self.waiter_ports[k] & (1 << port) != 0
            && self.waiters[k * NUM_PORTS + port] & (1 << vc) != 0
    }
}

/// Bitmask of the VC indices in `range` (which must lie within `vcs`).
fn range_mask(range: std::ops::Range<usize>, vcs: usize) -> u64 {
    assert!(range.end <= vcs, "VC range out of bounds");
    if range.start >= range.end {
        return 0;
    }
    let width = range.end - range.start;
    let ones = if width >= 64 {
        !0u64
    } else {
        (1u64 << width) - 1
    };
    ones << range.start
}

/// Read-only view of one input port's VCs, in the shape the pre-arena
/// `InputUnit` API had. Occupants are materialized by value (they are
/// small `Copy` records).
#[derive(Debug, Clone, Copy)]
pub struct InputRef<'a> {
    arena: &'a VcArena,
    node: usize,
    port: usize,
}

impl<'a> InputRef<'a> {
    pub(crate) fn new(arena: &'a VcArena, node: usize, port: usize) -> Self {
        InputRef { arena, node, port }
    }

    /// Bitmask of occupied VC indices — O(1).
    pub fn occ_mask(&self) -> u64 {
        self.arena.ports[self.arena.word(self.node, self.port)].occ
    }

    /// Number of currently occupied VCs — O(1).
    pub fn occupied_count(&self) -> usize {
        self.occ_mask().count_ones() as usize
    }

    /// Number of VCs.
    pub fn num_vcs(&self) -> usize {
        self.arena.vcs_per_port()
    }

    /// The occupant of VC `vc`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    pub fn occupant(&self, vc: usize) -> Option<VcOccupant> {
        assert!(vc < self.num_vcs(), "VC index out of range");
        if self.occ_mask() & (1 << vc) == 0 {
            return None;
        }
        Some(self.arena.get(self.arena.slot(self.node, self.port, vc)))
    }

    /// Whether VC `vc` is free for a new packet (VCT admission: the whole
    /// buffer must be available).
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    pub fn is_free(&self, vc: usize) -> bool {
        assert!(vc < self.num_vcs(), "VC index out of range");
        self.occ_mask() & (1 << vc) == 0
    }

    /// Index of a free VC within `range`, if any.
    ///
    /// # Panics
    ///
    /// Panics if `range` extends past the port's VCs.
    pub fn free_vc_in(&self, range: std::ops::Range<usize>) -> Option<usize> {
        let free = !self.occ_mask() & range_mask(range, self.num_vcs());
        if free == 0 {
            None
        } else {
            Some(free.trailing_zeros() as usize)
        }
    }

    /// Number of free VCs within `range` (the "credit count" congestion
    /// metric used by adaptive routing and TFC tokens).
    ///
    /// # Panics
    ///
    /// Panics if `range` extends past the port's VCs.
    pub fn free_vcs_in(&self, range: std::ops::Range<usize>) -> usize {
        (!self.occ_mask() & range_mask(range, self.num_vcs())).count_ones() as usize
    }

    /// First free VC within `range` and the number of free VCs in it,
    /// from a single occupancy-word read — the adaptive-routing fast path
    /// (one call replaces a [`free_vc_in`](Self::free_vc_in) +
    /// [`free_vcs_in`](Self::free_vcs_in) pair re-reading the same word).
    ///
    /// # Panics
    ///
    /// Panics if `range` extends past the port's VCs.
    pub fn free_vc_and_credits(&self, range: std::ops::Range<usize>) -> (Option<usize>, usize) {
        let free = !self.occ_mask() & range_mask(range, self.num_vcs());
        let vc = (free != 0).then(|| free.trailing_zeros() as usize);
        (vc, free.count_ones() as usize)
    }

    /// Iterator over `(vc_index, occupant)` pairs for occupied VCs, in
    /// ascending VC order.
    pub fn occupied(&self) -> impl Iterator<Item = (usize, VcOccupant)> + 'a {
        let arena = self.arena;
        let base = arena.slot(self.node, self.port, 0);
        let mut mask = self.occ_mask();
        std::iter::from_fn(move || {
            if mask == 0 {
                return None;
            }
            let vc = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            Some((vc, arena.get(base + vc)))
        })
    }
}

/// Mutating view of one input port: occupant installation and removal.
/// This is the only route into arena mutation from outside `noc-sim`'s
/// pipeline, and call sites are locked to the relocation whitelist by
/// `noc-lint`'s occupancy rule.
#[derive(Debug)]
pub struct InputMut<'a> {
    arena: &'a mut VcArena,
    node: usize,
    port: usize,
}

impl<'a> InputMut<'a> {
    pub(crate) fn new(arena: &'a mut VcArena, node: usize, port: usize) -> Self {
        InputMut { arena, node, port }
    }

    /// Installs a new occupant into VC `vc`.
    ///
    /// # Panics
    ///
    /// Panics if the VC is already occupied ("VC double-booked") or out
    /// of range.
    pub fn install(&mut self, vc: usize, occ: VcOccupant) {
        self.arena.install(self.node, self.port, vc, occ);
    }

    /// Removes and returns the occupant of VC `vc` (freeing it).
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    pub fn take(&mut self, vc: usize) -> Option<VcOccupant> {
        self.arena.take(self.node, self.port, vc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::packet::{MessageClass, Packet, PacketStore};
    use noc_core::topology::NodeId;

    fn pid(store: &mut PacketStore) -> PacketId {
        store.insert(Packet::new(
            NodeId::new(0),
            NodeId::new(1),
            MessageClass::Request,
            5,
            0,
        ))
    }

    fn view(arena: &VcArena, node: usize, port: usize) -> InputRef<'_> {
        InputRef::new(arena, node, port)
    }

    /// A `nodes`×1 mesh with `vcs` shared VCs per port (no VNs).
    fn arena(nodes: usize, vcs: usize) -> VcArena {
        VcArena::new(
            &SimConfig::builder()
                .mesh(nodes, 1)
                .vns(0)
                .vcs_per_vn(vcs)
                .build(),
        )
    }

    #[test]
    fn install_take_maintains_count_and_masks() {
        let mut store = PacketStore::new();
        let mut a = arena(4, 2);
        assert!(view(&a, 1, 0).is_free(0));
        assert_eq!(view(&a, 1, 0).occupied_count(), 0);
        a.install(1, 0, 0, VcOccupant::reserved(pid(&mut store), 1, 0));
        assert!(!view(&a, 1, 0).is_free(0));
        assert!(view(&a, 1, 0).occupant(0).is_some());
        assert_eq!(view(&a, 1, 0).occupied_count(), 1);
        assert_eq!(a.node_occupied(1), 1);
        assert_eq!(a.node_occupied(0), 0, "counts are per node");
        assert_eq!(a.occ_nodes, [1 << 1], "first install marks the node");
        a.install(1, 2, 1, VcOccupant::reserved(pid(&mut store), 1, 0));
        a.take(1, 2, 1).unwrap();
        assert_eq!(a.occ_nodes, [1 << 1], "still one occupant: bit stays");
        let occ = a.take(1, 0, 0).unwrap();
        assert_eq!(occ.len, 1);
        assert!(view(&a, 1, 0).is_free(0));
        assert_eq!(a.node_occupied(1), 0);
        assert_eq!(a.occ_nodes, [0], "last take clears the node");
        assert!(a.take(1, 0, 0).is_none());
        assert_eq!(a.node_occupied(1), 0, "empty take must not underflow");
    }

    #[test]
    #[should_panic(expected = "double-booked")]
    fn double_install_panics() {
        let mut store = PacketStore::new();
        let mut a = arena(1, 1);
        a.install(0, 0, 0, VcOccupant::reserved(pid(&mut store), 1, 0));
        let p2 = pid(&mut store);
        a.install(0, 0, 0, VcOccupant::reserved(p2, 1, 0));
    }

    #[test]
    fn free_vc_search() {
        let mut store = PacketStore::new();
        let mut a = arena(1, 4);
        assert_eq!(view(&a, 0, 2).free_vc_in(0..4), Some(0));
        assert_eq!(view(&a, 0, 2).free_vcs_in(0..4), 4);
        a.install(0, 2, 0, VcOccupant::reserved(pid(&mut store), 1, 0));
        a.install(0, 2, 1, VcOccupant::reserved(pid(&mut store), 1, 0));
        assert_eq!(view(&a, 0, 2).free_vc_in(0..2), None);
        assert_eq!(view(&a, 0, 2).free_vc_in(0..4), Some(2));
        assert_eq!(view(&a, 0, 2).free_vcs_in(0..4), 2);
        assert_eq!(view(&a, 0, 2).free_vcs_in(2..4), 2);
        assert_eq!(view(&a, 0, 2).occupied().count(), 2);
        assert_eq!(view(&a, 0, 2).occupied_count(), 2);
        // Untouched ports are unaffected.
        assert_eq!(view(&a, 0, 1).occupied_count(), 0);
    }

    #[test]
    fn free_vc_respects_subrange() {
        let mut a = arena(1, 6);
        // VN 1 owns VCs 2..4 — a search there must not return VC 0.
        assert_eq!(view(&a, 0, 0).free_vc_in(2..4), Some(2));
        let mut store = PacketStore::new();
        a.install(0, 0, 2, VcOccupant::reserved(pid(&mut store), 1, 0));
        assert_eq!(view(&a, 0, 0).free_vc_in(2..4), Some(3));
    }

    #[test]
    fn occupant_roundtrips_all_fields() {
        let mut store = PacketStore::new();
        let mut a = arena(2, 4);
        let mut occ = VcOccupant::reserved(pid(&mut store), 5, 17);
        occ.arrived = 3;
        occ.sent = 1;
        occ.route = Some(Port::Dir(Direction::West));
        occ.out_vc = Some(3);
        occ.last_progress = 21;
        a.install(1, 3, 2, occ);
        assert_eq!(view(&a, 1, 3).occupant(2), Some(occ));
        assert_eq!(a.take(1, 3, 2), Some(occ));
    }

    #[test]
    fn routed_mask_tracks_route_state() {
        let mut store = PacketStore::new();
        let mut a = arena(1, 2);
        a.install(0, 0, 1, VcOccupant::reserved(pid(&mut store), 1, 0));
        let w = a.word(0, 0);
        assert_eq!(a.ports[w].routed, 0, "unrouted install leaves routed clear");
        a.set_route(0, 0, 1, Port::Local);
        assert_eq!(a.ports[w].routed, 1 << 1);
        assert_eq!(view(&a, 0, 0).occupant(1).unwrap().route, Some(Port::Local));
        a.take(0, 0, 1);
        assert_eq!(a.ports[w].routed, 0, "take clears the routed bit");
        // Installing a pre-routed occupant (relocation) sets it again.
        let mut routed = VcOccupant::reserved(pid(&mut store), 1, 0);
        routed.route = Some(Port::Dir(Direction::East));
        a.install(0, 0, 0, routed);
        assert_eq!(a.ports[w].routed, 1 << 0);
    }

    #[test]
    fn ready_word_tracks_flit_counters() {
        let mut store = PacketStore::new();
        let mut a = arena(1, 2);
        a.install(0, 0, 1, VcOccupant::reserved(pid(&mut store), 2, 0));
        let w = a.word(0, 0);
        assert_eq!(a.ports[w].ready, 0, "a reservation has no flit to forward");
        a.flit_arrived(0, 0, 1);
        assert_eq!(a.ports[w].ready, 1 << 1);
        a.flit_sent(0, 0, 1);
        assert_eq!(a.ports[w].ready, 0, "sent caught up with arrived");
        a.flit_arrived(0, 0, 1);
        assert_eq!(a.ports[w].ready, 1 << 1);
        a.take(0, 0, 1);
        assert_eq!(a.ports[w].ready, 0, "take clears the ready bit");
        // A relocated, fully buffered packet is ready from the start.
        let mut whole = VcOccupant::reserved(pid(&mut store), 2, 0);
        whole.arrived = 2;
        a.install(0, 0, 0, whole);
        assert_eq!(a.ports[w].ready, 1 << 0);
    }

    /// Two routers in a row, one VC: node 0's head waits for node 1's
    /// West input VC.
    fn blocked_pair(store: &mut PacketStore) -> (VcArena, ProductiveDirs) {
        let mut a = arena(2, 1);
        let mut head = VcOccupant::reserved(pid(store), 1, 0);
        head.arrived = 1;
        a.install(0, Port::Local.index(), 0, head);
        let blocker = VcOccupant::reserved(pid(store), 1, 0);
        a.install(1, Port::Dir(Direction::West).index(), 0, blocker);
        (a, ProductiveDirs::from_deltas(1, 0))
    }

    #[test]
    fn take_wakes_the_heads_parked_on_that_link() {
        let mut store = PacketStore::new();
        let (mut a, east) = blocked_pair(&mut store);
        let local = Port::Local.index();
        let s = a.slot(0, local, 0);
        assert!(a.wait_blocked(0, s, east, 0));
        a.park(0, local, 0, east, 0);
        let w = a.word(0, local);
        assert_eq!(a.ports[w].parked, 1);
        assert!(a.is_waiting_on(0, local, 0, Direction::East, 0));
        // A free elsewhere (node 1's Local port) wakes nobody.
        a.install(1, local, 0, VcOccupant::reserved(pid(&mut store), 1, 0));
        a.take(1, local, 0).unwrap();
        assert_eq!(a.ports[w].parked, 1);
        // The free it waits on does.
        a.take(1, Port::Dir(Direction::West).index(), 0).unwrap();
        assert_eq!(a.ports[w].parked, 0, "freeing the awaited VC un-parks");
        assert!(!a.is_waiting_on(0, local, 0, Direction::East, 0));
        assert!(!a.wait_blocked(0, s, east, 0));
    }

    #[test]
    fn stale_waiter_bit_only_wakes_early() {
        let mut store = PacketStore::new();
        let (mut a, east) = blocked_pair(&mut store);
        let local = Port::Local.index();
        a.park(0, local, 0, east, 0);
        // The parked head leaves some other way (relocation): its waiter
        // bit stays behind.
        a.take(0, local, 0).unwrap();
        let w = a.word(0, local);
        assert_eq!(a.ports[w].parked, 0, "take clears the parked bit");
        assert!(a.is_waiting_on(0, local, 0, Direction::East, 0), "stale");
        // A new head in the same slot is simply woken by the old bit.
        let mut head = VcOccupant::reserved(pid(&mut store), 1, 0);
        head.arrived = 1;
        a.install(0, local, 0, head);
        assert_eq!(a.ports[w].parked, 0, "installs start unparked");
        a.take(1, Port::Dir(Direction::West).index(), 0).unwrap();
        assert_eq!(a.ports[w].parked, 0);
        assert!(!a.is_waiting_on(0, local, 0, Direction::East, 0));
    }

    #[test]
    fn refused_vcs_do_not_count_as_free_until_reinstall() {
        let mut store = PacketStore::new();
        let mut a = arena(2, 2);
        let local = Port::Local.index();
        let east = ProductiveDirs::from_deltas(1, 0);
        let mut head = VcOccupant::reserved(pid(&mut store), 1, 0);
        head.arrived = 1;
        a.install(0, local, 0, head);
        let s = a.slot(0, local, 0);
        let west_in = Port::Dir(Direction::West).index();
        a.install(1, west_in, 0, VcOccupant::reserved(pid(&mut store), 1, 0));
        assert!(!a.wait_blocked(0, s, east, 0), "VC 1 is free");
        // The policy said None with VC 1 free: VC 1 is not for this head.
        a.note_refusal(0, s, east, 0);
        assert!(a.wait_blocked(0, s, east, 0));
        assert_eq!(a.refused(s), [1 << 1, 0]);
        // Freeing VC 0 — never refused — makes it routable again.
        a.take(1, west_in, 0).unwrap();
        assert!(!a.wait_blocked(0, s, east, 0));
        // A new occupant of the slot starts with a clean record.
        a.take(0, local, 0).unwrap();
        a.install(0, local, 0, head);
        assert_eq!(a.refused(s), [0, 0]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn install_out_of_range_vc_panics() {
        let mut store = PacketStore::new();
        let mut a = arena(1, 2);
        a.install(0, 0, 2, VcOccupant::reserved(pid(&mut store), 1, 0));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn free_vc_range_past_port_panics() {
        let a = arena(1, 2);
        let _ = view(&a, 0, 0).free_vc_in(0..3);
    }
}
