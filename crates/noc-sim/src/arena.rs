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
//! * **switch requests** — bit `p * vcs + vc` of request word
//!   `(node, out)` is set iff slot `(node, p, vc)` is
//!   `ready ∧ routed ∧ route == out`: the occupant has a flit to forward
//!   and wants output port `out`. Switch allocation loads a router's five
//!   words ([`VcArena::switch_requests`]) instead of gathering them from
//!   `ready & routed` and one `meta` load per slot every cycle.
//!
//! Route allocation scans `ready & !routed & !parked` (implicitly
//! `& occ`); switch allocation reads the request words.
//!
//! Mutator locality: occupants enter and leave slots *only* through
//! [`VcArena::install`] / [`VcArena::take`] (wrapped for external crates
//! by [`InputMut`]), routes are recorded only through
//! [`VcArena::set_route`] / [`VcArena::set_route_vc`], flit counters
//! advance only through [`VcArena::flit_arrived`] /
//! [`VcArena::flit_sent`] — those six own the request words — and heads
//! park only through [`VcArena::park`], so the words can never drift from
//! the fields they summarize. [`VcArena::take`] — the only way a VC becomes
//! free — is also where parked heads are woken. The words are private
//! fields, so the compiler holds every write to this module; the rest of
//! the crate reads them through getters.

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
/// Every field is private: the hot pipeline (`regular`, `network`) reads
/// the words through the `#[inline]` getters ([`pkt`](Self::pkt),
/// [`meta`](Self::meta), [`port_words`](Self::port_words),
/// [`occ_nodes`](Self::occ_nodes)) and changes them only through the
/// mutators; everything else goes through [`InputRef`] / [`InputMut`]
/// views obtained from [`NetworkCore`](crate::network::NetworkCore).
#[derive(Debug, Clone)]
pub struct VcArena {
    vcs: usize,
    /// Resident packet per slot (valid only under a set occupancy bit).
    pkt: Vec<PacketId>,
    /// Packed per-slot flit state, one word per slot: `len`, `arrived`,
    /// `sent`, `route` and `out_vc` bytes at the [`M_LEN`]..[`M_OUT_VC`]
    /// offsets. One load serves every hot-path predicate on a slot, and
    /// `arrived`/`sent` advance by adding `1 << M_ARRIVED` /
    /// `1 << M_SENT` (no carry can escape a byte: both are bounded by
    /// `len < 255`).
    meta: Vec<u64>,
    /// Cycle the head flit arrived (blocked-time bookkeeping).
    head_arrival: Vec<u64>,
    /// Cycle of the last forward progress from the slot.
    last_progress: Vec<u64>,
    /// Per slot, per wait direction (in [`ProductiveDirs`] order): VCs at
    /// the neighbour that were free when the occupant's routing policy
    /// returned `None`. Which `(direction, VC)` pairs a policy may grant
    /// a given head is fixed for as long as it sits in the slot, so a VC
    /// refused once stays refused: it never makes the head routable.
    /// Cleared by [`install`](Self::install).
    refused: Vec<[u64; 2]>,
    /// Predicate words, one record per `(node, port)`.
    ports: Vec<PortWords>,
    /// Occupied-VC count per node (popcount of its five `occ` words).
    node_occupied: Vec<u32>,
    /// Bit `n` set iff `node_occupied[n] > 0` (exact, not a superset).
    occ_nodes: Vec<u64>,
    /// Switch-request words, index `node * NUM_PORTS + out`: bit
    /// `p * vcs + vc` set iff slot `(node, p, vc)` is flit-ready and
    /// routed to output port `out`. Everyone outside this file reads
    /// [`switch_requests`](Self::switch_requests).
    sa_req: Vec<u64>,
    /// `(input port, vc)` of each requester index `p * vcs + vc` — one
    /// table for the whole network, so decoding a grant is a load rather
    /// than a runtime division pair.
    sa_slot: [(u8, u8); 64],
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
    /// Planted bug for the audit's self-test: `flit_sent` leaves the
    /// request bit behind when the slot stops being flit-ready.
    #[cfg(test)]
    pub(crate) fault_skip_req_clear: bool,
}

impl VcArena {
    /// Creates an empty arena for `cfg`'s mesh, with
    /// [`vcs_per_port`](SimConfig::vcs_per_port) VCs on each of every
    /// router's [`NUM_PORTS`] input ports.
    ///
    /// # Panics
    ///
    /// Panics if `NUM_PORTS * vcs_per_port > 64` (one request word per
    /// output port covers every `(input port, vc)` of the router);
    /// [`SimConfig::validate`] rejects such configurations with a typed
    /// error before a network is ever built.
    pub(crate) fn new(cfg: &SimConfig) -> Self {
        let mesh = cfg.mesh;
        let num_nodes = mesh.num_nodes();
        let vcs = cfg.vcs_per_port();
        assert!(
            (1..=64 / NUM_PORTS).contains(&vcs),
            "a router's (port, vc) requesters must fit one word"
        );
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
            sa_req: vec![0; words],
            sa_slot: std::array::from_fn(|i| ((i / vcs) as u8, (i % vcs) as u8)),
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
            #[cfg(test)]
            fault_skip_req_clear: false,
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

    /// Resident packet of slot `s` (meaningful only while it is occupied).
    #[inline]
    pub(crate) fn pkt(&self, s: usize) -> PacketId {
        self.pkt[s]
    }

    /// Packed meta word of slot `s` (read with [`m_len`] … [`m_out_vc`]).
    #[inline]
    pub(crate) fn meta(&self, s: usize) -> u64 {
        self.meta[s]
    }

    /// The predicate record of `(node, port)` at record index `w`
    /// ([`word`](Self::word)), by value.
    #[inline]
    pub(crate) fn port_words(&self, w: usize) -> PortWords {
        self.ports[w]
    }

    /// The occupied-nodes bitset: bit `n` set iff node `n` holds a packet.
    #[inline]
    pub(crate) fn occ_nodes(&self) -> &[u64] {
        &self.occ_nodes
    }

    /// The head flit of slot `s` arrived at `cycle`: starts its
    /// blocked-time clock.
    #[inline]
    pub(crate) fn stamp_head_arrival(&mut self, s: usize, cycle: u64) {
        self.head_arrival[s] = cycle;
        self.last_progress[s] = cycle;
    }

    /// Slot `s` forwarded a flit at `cycle`.
    #[inline]
    pub(crate) fn stamp_progress(&mut self, s: usize, cycle: u64) {
        self.last_progress[s] = cycle;
    }

    /// The words the audit's planted-drift tests corrupt by hand: the
    /// per-port records, the occupied-nodes bitset and the switch-request
    /// words. Test builds only — nothing else may write them.
    #[cfg(test)]
    pub(crate) fn words_mut(&mut self) -> (&mut [PortWords], &mut [u64], &mut [u64]) {
        (&mut self.ports, &mut self.occ_nodes, &mut self.sa_req)
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

    /// The switch-request words of `node`, one per output port: bit
    /// `p * vcs + vc` of word `out` is set iff slot `(node, p, vc)` has a
    /// flit to forward and is routed to `out`.
    #[inline]
    pub(crate) fn switch_requests(&self, node: usize) -> [u64; NUM_PORTS] {
        let base = node * NUM_PORTS;
        *self.sa_req[base..base + NUM_PORTS]
            .first_chunk()
            .expect("NUM_PORTS request words per node")
    }

    /// The `(input port, vc)` behind requester index `idx` of a request
    /// word (`idx = port * vcs + vc`).
    #[inline]
    pub(crate) fn sa_decode(&self, idx: usize) -> (usize, usize) {
        let (p, vc) = self.sa_slot[idx];
        (p as usize, vc as usize)
    }

    /// Request word and bit of slot `(node, port, vc)` once it is routed
    /// to output port index `route`.
    #[inline]
    fn sa_req_bit(&self, node: usize, port: usize, vc: usize, route: usize) -> (usize, u64) {
        debug_assert!(route < NUM_PORTS, "request bit of an unrouted slot");
        (node * NUM_PORTS + route, 1 << (port * self.vcs + vc))
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
        // A relocated occupant can arrive routed with flits to forward.
        if let (Some(out), true) = (occ.route, occ.sent < occ.arrived) {
            let (r, req) = self.sa_req_bit(node, port, vc, out.index());
            self.sa_req[r] |= req;
        }
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
        let s = self.slot(node, port, vc);
        let occ = self.get(s);
        // Still a switch requester (a relocation of a routed packet; a
        // drained slot stopped requesting at its last `flit_sent`).
        if self.ports[w].ready & self.ports[w].routed & bit != 0 {
            let (r, req) = self.sa_req_bit(node, port, vc, m_route(self.meta[s]) as usize);
            self.sa_req[r] &= !req;
        }
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

    /// Records the route decision for an occupied, so far unrouted slot,
    /// keeping the words in sync: the slot leaves the route-allocation
    /// scan and, if it has a flit to forward, raises its switch request.
    #[inline]
    pub(crate) fn set_route(&mut self, node: usize, port: usize, vc: usize, out: Port) {
        let s = self.slot(node, port, vc);
        self.meta[s] = (self.meta[s] & !(0xFFu64 << M_ROUTE)) | ((out.index() as u64) << M_ROUTE);
        self.mark_routed(node, port, vc, out);
    }

    /// The word half of [`set_route`](Self::set_route) /
    /// [`set_route_vc`](Self::set_route_vc).
    #[inline]
    fn mark_routed(&mut self, node: usize, port: usize, vc: usize, out: Port) {
        let w = self.word(node, port);
        let bit = 1u64 << vc;
        let pw = &mut self.ports[w];
        debug_assert!(pw.parked & bit == 0, "routing a parked head");
        // A second route would leave the first one's request bit behind.
        debug_assert!(pw.routed & bit == 0, "re-routing a routed slot");
        pw.routed |= bit;
        if pw.ready & bit != 0 {
            let (r, req) = self.sa_req_bit(node, port, vc, out.index());
            self.sa_req[r] |= req;
        }
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
        self.mark_routed(node, port, vc, out);
    }

    /// One flit arrives into occupied slot `(node, port, vc)`: `arrived`
    /// advances and the slot becomes flit-ready — and, if it is already
    /// routed (a body flit catching up with a forwarded head), a switch
    /// requester again. Returns the slot id and its new meta word.
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
        if m_route(m) != NO_ROUTE {
            let (r, req) = self.sa_req_bit(node, port, vc, m_route(m) as usize);
            self.sa_req[r] |= req;
        }
        (s, m)
    }

    /// One flit leaves occupied, routed slot `(node, port, vc)`: `sent`
    /// advances, and the ready bit and the switch request drop once the
    /// buffer has nothing more to forward. Returns the slot id and its
    /// new meta word.
    #[inline]
    pub(crate) fn flit_sent(&mut self, node: usize, port: usize, vc: usize) -> (usize, u64) {
        let s = self.slot(node, port, vc);
        debug_assert!(
            m_sent(self.meta[s]) < m_arrived(self.meta[s]),
            "sending a flit that has not arrived"
        );
        debug_assert!(
            m_route(self.meta[s]) != NO_ROUTE,
            "unrouted slot sent a flit"
        );
        let m = self.meta[s] + (1 << M_SENT);
        self.meta[s] = m;
        if m_sent(m) == m_arrived(m) {
            let w = self.word(node, port);
            self.ports[w].ready &= !(1 << vc);
            #[cfg(test)]
            if self.fault_skip_req_clear {
                return (s, m);
            }
            let (r, req) = self.sa_req_bit(node, port, vc, m_route(m) as usize);
            self.sa_req[r] &= !req;
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
/// This is the only route into arena mutation from outside `noc-sim`, and
/// it goes through [`VcArena::install`] / [`VcArena::take`], so the words
/// stay in step with the slots whoever calls it. Schemes relocate through
/// `NetworkCore::take_vc_packet` / `put_vc_packet` instead, which also
/// check quiescence and release reservations.
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
        // Only a routed slot forwards flits.
        a.set_route(0, 0, 1, Port::Local);
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

    #[test]
    fn request_words_follow_ready_and_routed() {
        let mut store = PacketStore::new();
        let mut a = arena(2, 2);
        let (east, local) = (Port::Dir(Direction::East), Port::Local);
        let bit = 1u64 << (3 * 2 + 1); // requester index of (port 3, vc 1)
        let words = |a: &VcArena, out: Port| a.switch_requests(1)[out.index()];
        a.install(1, 3, 1, VcOccupant::reserved(pid(&mut store), 2, 0));
        a.flit_arrived(1, 3, 1);
        assert_eq!(a.switch_requests(1), [0; NUM_PORTS], "ready but unrouted");
        a.set_route_vc(1, 3, 1, east, 0);
        assert_eq!(words(&a, east), bit, "routing a ready head raises it");
        for (p, vc) in (0..NUM_PORTS).flat_map(|p| [(p, 0), (p, 1)]) {
            assert_eq!(a.sa_decode(p * 2 + vc), (p, vc));
        }
        a.flit_sent(1, 3, 1);
        assert_eq!(words(&a, east), 0, "sent caught up with arrived");
        a.flit_arrived(1, 3, 1);
        assert_eq!(words(&a, east), bit, "a body flit re-raises a routed slot");
        assert_eq!(a.switch_requests(0), [0; NUM_PORTS], "words are per node");
        a.take(1, 3, 1).unwrap();
        assert_eq!(a.switch_requests(1), [0; NUM_PORTS], "take withdraws it");
        // A pre-routed relocation requests from the start; routing a
        // reservation that holds no flit yet does not.
        let mut whole = VcOccupant::reserved(pid(&mut store), 2, 0);
        whole.arrived = 2;
        whole.route = Some(local);
        a.install(1, 0, 0, whole);
        assert_eq!(words(&a, local), 1);
        a.install(1, 0, 1, VcOccupant::reserved(pid(&mut store), 1, 0));
        a.set_route(1, 0, 1, local);
        assert_eq!(words(&a, local), 1, "no flit to forward yet");
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
