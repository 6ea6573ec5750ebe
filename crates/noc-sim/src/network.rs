//! The network core: routers, NIs, packet store and staged flit movement.
//!
//! [`NetworkCore`] is the shared substrate every scheme operates on. It
//! enforces the physical constraints that keep the simulation honest:
//! flits move at most one hop per cycle (arrivals are *staged* during a
//! cycle and applied at its end), a VC is never double-booked, and
//! buffers are freed only when the tail flit has left.

use crate::arena::{m_arrived, InputMut, InputRef, VcArena};
use crate::ni::{NiState, SourceEntry};
use crate::probe::{Phase, PhaseProbe};
use crate::router::RouterState;
use crate::vc::VcOccupant;
use noc_core::config::SimConfig;
use noc_core::packet::{PacketId, PacketSeed, PacketStore, CLASSES};
use noc_core::stats::NetStats;
use noc_core::topology::{Direction, LinkId, Mesh, NodeId, Port, DIRECTIONS, NUM_PORTS};
use noc_trace::{TraceConfig, Tracer};

/// Sentinel in the flat neighbor table: no neighbor (mesh edge).
const NO_NBR: u32 = u32::MAX;

/// A set of directed links, used for FastPass lane suppression and for
/// collision assertions.
#[derive(Debug, Clone)]
pub struct LinkSet {
    words: Vec<u64>,
    len: usize,
}

impl LinkSet {
    /// Creates an empty set sized for `mesh`.
    pub fn new(mesh: Mesh) -> Self {
        let len = mesh.num_links();
        LinkSet {
            words: vec![0; len.div_ceil(64)],
            len,
        }
    }

    /// Inserts a link. Returns whether it was newly inserted (`false`
    /// means the link was already present — a collision).
    pub fn insert(&mut self, l: LinkId) -> bool {
        let (w, b) = (l.index() / 64, l.index() % 64);
        let was = self.words[w] & (1 << b) != 0;
        self.words[w] |= 1 << b;
        !was
    }

    /// Whether the set contains `l`.
    pub fn contains(&self, l: LinkId) -> bool {
        let (w, b) = (l.index() / 64, l.index() % 64);
        self.words[w] & (1 << b) != 0
    }

    /// Removes all links.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Number of links in the set.
    pub fn count(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Capacity (number of addressable links).
    pub fn capacity(&self) -> usize {
        self.len
    }
}

/// A flit arrival to apply at the end of the current cycle.
#[derive(Debug, Clone, Copy)]
struct StagedArrival {
    node: usize,
    port: usize,
    vc: usize,
}

/// The installed phase probe, if any. Newtype so [`NetworkCore`] keeps
/// its `#[derive(Debug, Clone)]` despite `dyn PhaseProbe` being
/// neither: a clone of the core carries no probe, because a probe
/// observes host time, not simulated state.
#[derive(Default)]
struct ProbeSlot(Option<Box<dyn PhaseProbe>>);

impl Clone for ProbeSlot {
    fn clone(&self) -> Self {
        ProbeSlot(None)
    }
}

impl std::fmt::Debug for ProbeSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ProbeSlot")
            .field(&self.0.as_ref().map(|_| "installed"))
            .finish()
    }
}

/// The simulated network: all routers, NIs, links and packets. A clone
/// is a deep copy, less the phase probe.
#[derive(Debug, Clone)]
pub struct NetworkCore {
    cfg: SimConfig,
    mesh: Mesh,
    routers: Vec<RouterState>,
    /// Flat struct-of-arrays storage for every VC buffer; the regular
    /// pipeline reads its per-port predicate words through the arena's
    /// getters (the words themselves are private to `arena.rs`).
    pub(crate) arena: VcArena,
    nis: Vec<NiState>,
    /// Bit `n` set for every node whose NI holds anything — a *superset*
    /// of `{n : has_work() || ej_any()}`, never less. Set wherever an NI
    /// is handed out mutably ([`ni_mut`](Self::ni_mut),
    /// [`generate`](Self::generate): there is no other way in), cleared
    /// lazily by the engine's consumer loop once the NI is seen empty
    /// ([`retire_idle_ni`](Self::retire_idle_ni)). It only says where to
    /// ask; [`node_active`](Self::node_active) and the NI's own queues
    /// stay the answer.
    ni_live: Vec<u64>,
    /// Planted bug for the audit's self-test: `generate` skips its
    /// `ni_live` mark.
    #[cfg(test)]
    pub(crate) fault_skip_generate_mark: bool,
    /// Central packet storage. Public: schemes and workloads read and
    /// annotate packets directly.
    pub store: PacketStore,
    /// Aggregate statistics. Public: the engine and schemes update
    /// counters as events occur.
    pub stats: NetStats,
    /// Event tracer. Public: pipeline stages and schemes record through
    /// the `noc_trace::trace!` macro and the tracer's `count_*` hooks.
    /// Disabled (and storage-free) unless
    /// [`enable_trace`](Self::enable_trace) is called; recording never
    /// influences simulation behavior.
    pub trace: Tracer,
    cycle: u64,
    staged: Vec<StagedArrival>,
    drained: Vec<StagedArrival>,
    /// Double buffers for `apply_staged`: swapped with `staged`/`drained`
    /// each cycle so neither side ever re-allocates in steady state.
    staged_back: Vec<StagedArrival>,
    drained_back: Vec<StagedArrival>,
    /// Reusable per-cycle scratch owned here so the regular pipeline
    /// allocates nothing in steady state: the active-node worklist.
    scratch_nodes: Vec<NodeId>,
    probe: ProbeSlot,
    /// Flat neighbor table (`node * 4 + direction` → neighbor index or
    /// [`NO_NBR`]): the hot pipeline asks for neighbors several times per
    /// active node per cycle, and the mesh's arithmetic answer costs an
    /// integer division each call.
    topo_nbr: Vec<u32>,
    /// Cached `(x, y)` per node, for division-free productive-direction
    /// computation.
    topo_xy: Vec<(u16, u16)>,
}

impl NetworkCore {
    /// Builds an idle network from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if the configuration is invalid (see
    /// [`SimConfig::validate`]).
    pub fn new(cfg: SimConfig) -> Self {
        cfg.validate().expect("invalid configuration");
        let mesh = cfg.mesh;
        let n = mesh.num_nodes();
        let vcs = cfg.vcs_per_port();
        NetworkCore {
            routers: (0..n).map(|_| RouterState::new(vcs)).collect(),
            arena: VcArena::new(&cfg),
            nis: (0..n)
                .map(|_| NiState::new(cfg.inj_queue_packets, cfg.ej_queue_packets))
                .collect(),
            ni_live: vec![0; n.div_ceil(64)],
            #[cfg(test)]
            fault_skip_generate_mark: false,
            store: PacketStore::new(),
            stats: NetStats::new(n),
            trace: Tracer::disabled(),
            cycle: 0,
            staged: Vec::new(),
            drained: Vec::new(),
            staged_back: Vec::new(),
            drained_back: Vec::new(),
            scratch_nodes: Vec::new(),
            probe: ProbeSlot(None),
            topo_nbr: (0..n)
                .flat_map(|i| {
                    DIRECTIONS.map(|d| {
                        mesh.neighbor(NodeId::new(i), d)
                            .map_or(NO_NBR, |nb| nb.index() as u32)
                    })
                })
                .collect(),
            topo_xy: (0..n)
                .map(|i| {
                    let node = NodeId::new(i);
                    (mesh.x(node) as u16, mesh.y(node) as u16)
                })
                .collect(),
            mesh,
            cfg,
        }
    }

    // ---- accessors -----------------------------------------------------

    /// The simulation configuration.
    pub fn cfg(&self) -> &SimConfig {
        &self.cfg
    }

    /// The topology.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The neighbor of `n` in direction `d` — table lookup, no division.
    /// Identical to [`Mesh::neighbor`]; preferred in per-cycle code.
    #[inline]
    pub fn neighbor(&self, n: NodeId, d: Direction) -> Option<NodeId> {
        let v = self.topo_nbr[n.index() * 4 + d.index()];
        (v != NO_NBR).then(|| NodeId::new(v as usize))
    }

    /// The directed link leaving `n` via `d` — identical to
    /// [`Mesh::link`], division-free.
    #[inline]
    pub fn link(&self, n: NodeId, d: Direction) -> Option<LinkId> {
        let i = n.index() * 4 + d.index();
        (self.topo_nbr[i] != NO_NBR).then(|| LinkId::new(i))
    }

    /// Cached mesh coordinates of `n` — no division, unlike
    /// [`Mesh::x`]/[`Mesh::y`].
    #[inline]
    pub fn xy(&self, n: NodeId) -> (u16, u16) {
        self.topo_xy[n.index()]
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Advances the clock by one cycle (called by the engine once per
    /// simulated cycle, after the scheme has stepped).
    pub fn advance_cycle(&mut self) {
        assert!(
            self.staged.is_empty() && self.drained.is_empty(),
            "advance_cycle called with staged moves pending; call apply_staged first"
        );
        if self.trace.counters_on() {
            self.sample_occupancy_all();
        }
        self.cycle += 1;
        self.trace.set_now(self.cycle);
    }

    /// End-of-cycle occupancy sample: one add per router into the
    /// buffer-occupancy integral (read-only w.r.t. the network). Cold:
    /// reached only with tracing counters enabled.
    #[cold]
    #[inline(never)]
    fn sample_occupancy_all(&mut self) {
        for i in 0..self.mesh.num_nodes() {
            self.trace
                .sample_occupancy(i, self.arena.node_occupied(i) as u64);
        }
    }

    /// Enables tracing for the rest of the simulation. All trace storage
    /// (event rings, counters) is allocated here, once; afterwards the
    /// hot path never allocates regardless of level. Any previously
    /// recorded trace data is discarded.
    pub fn enable_trace(&mut self, cfg: &TraceConfig) {
        self.trace = Tracer::new(cfg, self.mesh.num_nodes());
        self.trace.set_now(self.cycle);
    }

    /// Installs a phase probe; subsequent pipeline stages bracket
    /// themselves with its begin/end hooks. Probes observe only — a
    /// probed run is bitwise identical to an unprobed one.
    pub fn set_probe(&mut self, probe: Box<dyn PhaseProbe>) {
        self.probe = ProbeSlot(Some(probe));
    }

    /// Uninstalls and returns the current probe, if any.
    pub fn take_probe(&mut self) -> Option<Box<dyn PhaseProbe>> {
        self.probe.0.take()
    }

    /// Phase-begin hook. With no probe installed this is one predicted
    /// branch (the same zero-overhead discipline as the trace hooks).
    #[inline]
    pub fn probe_begin(&mut self, phase: Phase) {
        if self.probe.0.is_some() {
            self.probe_begin_cold(phase);
        }
    }

    /// Phase-end hook; see [`probe_begin`](Self::probe_begin).
    #[inline]
    pub fn probe_end(&mut self, phase: Phase) {
        if self.probe.0.is_some() {
            self.probe_end_cold(phase);
        }
    }

    #[cold]
    #[inline(never)]
    fn probe_begin_cold(&mut self, phase: Phase) {
        if let Some(p) = self.probe.0.as_mut() {
            p.begin(phase);
        }
    }

    #[cold]
    #[inline(never)]
    fn probe_end_cold(&mut self, phase: Phase) {
        if let Some(p) = self.probe.0.as_mut() {
            p.end(phase);
        }
    }

    /// Shared access to a router.
    pub fn router(&self, n: NodeId) -> &RouterState {
        &self.routers[n.index()]
    }

    /// Mutable access to a router.
    pub fn router_mut(&mut self, n: NodeId) -> &mut RouterState {
        &mut self.routers[n.index()]
    }

    /// Read-only view of one input port's VCs.
    pub fn input(&self, n: NodeId, port: usize) -> InputRef<'_> {
        InputRef::new(&self.arena, n.index(), port)
    }

    /// Mutating view of one input port (occupant install/take, through
    /// the arena's word-keeping mutators). Schemes relocate packets with
    /// [`take_vc_packet`](Self::take_vc_packet) /
    /// [`put_vc_packet`](Self::put_vc_packet) instead.
    pub fn input_mut(&mut self, n: NodeId, port: usize) -> InputMut<'_> {
        InputMut::new(&mut self.arena, n.index(), port)
    }

    /// VCs per input port (uniform across the network).
    pub fn vcs_per_port(&self) -> usize {
        self.arena.vcs_per_port()
    }

    /// Total occupied VCs in `n`'s input buffers — O(1), maintained by
    /// the arena's install/take. This is the router half of the
    /// active-set predicate: a router with zero occupied VCs has no
    /// route/switch/eject work this cycle. Note that a packet
    /// mid-transfer occupies buffers at several routers; use
    /// [`resident_packets`](Self::resident_packets) for an exactly-once
    /// packet count.
    pub fn occupied_vcs(&self, n: NodeId) -> usize {
        self.arena.node_occupied(n.index())
    }

    /// The switch-request words of router `n`, one per output port
    /// (indexed by [`Port::index`]): bit `p * vcs_per_port + vc` of word
    /// `out` is set iff input `(p, vc)` holds a flit to forward and is
    /// routed to `out`. Read-only view of state the arena maintains; the
    /// switch stage arbitrates over exactly these words.
    pub fn switch_requests(&self, n: NodeId) -> [u64; NUM_PORTS] {
        self.arena.switch_requests(n.index())
    }

    /// Shared access to an NI.
    pub fn ni(&self, n: NodeId) -> &NiState {
        &self.nis[n.index()]
    }

    /// Mutable access to an NI. Marks the node in the live-NI words: the
    /// caller may be about to put something there.
    #[inline]
    pub fn ni_mut(&mut self, n: NodeId) -> &mut NiState {
        self.ni_live[n.index() / 64] |= 1 << (n.index() % 64);
        &mut self.nis[n.index()]
    }

    /// Whether `n` is marked in the live-NI words (audit use).
    pub(crate) fn in_ni_live(&self, n: NodeId) -> bool {
        self.ni_live[n.index() / 64] & (1 << (n.index() % 64)) != 0
    }

    /// Word `w` of the live-NI superset (nodes `64 w ..`); the engine's
    /// consumer walks it, re-reading after every node it visits.
    #[inline]
    pub(crate) fn ni_live_word(&self, w: usize) -> u64 {
        self.ni_live[w]
    }

    /// Drops `n` from the live-NI superset if its NI holds nothing — the
    /// one place a bit is cleared (the engine's consumer, after visiting).
    #[inline]
    pub(crate) fn retire_idle_ni(&mut self, n: NodeId) {
        let ni = &self.nis[n.index()];
        if !ni.has_work() && !ni.ej_any() {
            self.ni_live[n.index() / 64] &= !(1 << (n.index() % 64));
        }
    }

    // ---- packet generation ----------------------------------------------

    /// Creates a packet and enqueues it at its source NI. This is the
    /// single entry point for workloads (open- and closed-loop).
    ///
    /// The packet's creation sequence, and so its id, is taken here, but
    /// a packet without a protocol transaction waits in the source queue
    /// as a [`PendingPacket`](noc_core::packet::PendingPacket) and enters
    /// the store only when [`refill_inj`](Self::refill_inj) moves it into
    /// the injection queue: look it up in [`store`](Self::store) by the
    /// id buffers hold, not by the one returned here (the two are equal,
    /// but only the stored one names a slot).
    ///
    /// # Panics
    ///
    /// Panics if the seed's source equals its destination or the packet
    /// exceeds the configured maximum length.
    pub fn generate(&mut self, seed: PacketSeed) -> PacketId {
        assert_ne!(seed.src, seed.dst, "self-traffic is not modelled");
        assert!(
            (1..=self.cfg.max_packet_flits as u8).contains(&seed.len_flits),
            "packet length {} outside 1..={}",
            seed.len_flits,
            self.cfg.max_packet_flits
        );
        let class = seed.class;
        let src = seed.src;
        // MSHR-bounded protocol traffic never backs up far: its packets
        // are stored at once rather than widen every pending record.
        let entry = match seed.txn {
            Some(_) => SourceEntry::Stored(self.store.insert(seed)),
            None => SourceEntry::Pending(self.store.reserve(&seed)),
        };
        self.nis[src.index()].push_source(class, entry);
        self.stats.generated += 1;
        #[cfg(test)]
        if self.fault_skip_generate_mark {
            return entry.id();
        }
        self.ni_live[src.index() / 64] |= 1 << (src.index() % 64);
        entry.id()
    }

    /// Moves packets from `node`'s source queues into its injection
    /// queues while there is room, storing each pending one as it moves
    /// (see [`NiState::refill_inj`]). Returns how many moved. The NI
    /// holds the same packets before and after, so its live-NI mark
    /// stands as it is.
    pub fn refill_inj(&mut self, node: NodeId) -> usize {
        self.nis[node.index()].refill_inj(node, &mut self.store)
    }

    /// Pending packets (created, not yet stored) across every source
    /// queue: `store.created()` is delivered + `store.live()` + this.
    pub fn pending_packets(&self) -> usize {
        self.nis
            .iter()
            .map(|ni| CLASSES.iter().map(|&c| ni.pending(c)).sum::<usize>())
            .sum()
    }

    // ---- staged flit movement --------------------------------------------

    /// Stages the arrival of one flit into `(node, port, vc)` at the end
    /// of this cycle. The occupant must already exist there (reserved at
    /// VC allocation).
    pub fn stage_flit(&mut self, node: NodeId, port: Port, vc: usize) {
        self.staged.push(StagedArrival {
            node: node.index(),
            port: port.index(),
            vc,
        });
    }

    /// Marks `(node, port, vc)` as fully drained (tail flit sent); the VC
    /// is freed when staged moves are applied, making the credit visible
    /// next cycle.
    pub fn mark_drained(&mut self, node: NodeId, port: Port, vc: usize) {
        self.drained.push(StagedArrival {
            node: node.index(),
            port: port.index(),
            vc,
        });
    }

    /// Applies all staged arrivals and VC frees. Called exactly once per
    /// cycle by the regular pipeline (after switch allocation).
    ///
    /// The staged/drained vectors are double-buffered: each cycle the
    /// filled buffer is swapped with an empty back buffer and drained, so
    /// both retain their capacity and steady-state operation allocates
    /// nothing.
    pub fn apply_staged(&mut self) {
        let cycle = self.cycle;
        std::mem::swap(&mut self.staged, &mut self.staged_back);
        for s in self.staged_back.drain(..) {
            // Staged entries come from `send_flit`/injection against a
            // reserved slot the sender still holds; debug builds re-check.
            debug_assert!(
                self.arena.is_occupied(s.node, s.port, s.vc),
                "staged arrival into an unreserved VC"
            );
            let (slot, m) = self.arena.flit_arrived(s.node, s.port, s.vc);
            if m_arrived(m) == 1 {
                self.arena.stamp_head_arrival(slot, cycle);
            }
        }
        std::mem::swap(&mut self.drained, &mut self.drained_back);
        for d in self.drained_back.drain(..) {
            let occ = self
                .arena
                .take(d.node, d.port, d.vc)
                .expect("drained VC already empty");
            debug_assert!(occ.drained(), "VC freed before tail departed");
        }
    }

    // ---- scheme helpers ---------------------------------------------------

    /// Atomically removes a quiescent packet from a VC, freeing the
    /// buffer immediately (the FastPass upgrade path: credit is returned
    /// as soon as the FastPass-Packet departs, §III-C4; also used by
    /// SPIN/SWAP/Pitstop relocations).
    ///
    /// If the packet had already been allocated a downstream VC (route
    /// computed, no flit sent yet), the reservation is released — the
    /// downstream buffer never saw a flit of this packet.
    ///
    /// # Panics
    ///
    /// Panics if the VC is empty or its occupant is not quiescent.
    pub fn take_vc_packet(&mut self, node: NodeId, port: Port, vc: usize) -> PacketId {
        let occ = self
            .arena
            .take(node.index(), port.index(), vc)
            .expect("taking packet from empty VC");
        assert!(
            occ.quiescent(),
            "only quiescent (fully buffered, unsent) packets can be relocated"
        );
        if let Some(out_vc) = occ.out_vc {
            let Some(Port::Dir(d)) = occ.route else {
                panic!("downstream VC allocated without a direction route");
            };
            let nbr = self
                .neighbor(node, d)
                .expect("allocated route leaves the mesh");
            let reserved = self
                .arena
                .take(nbr.index(), Port::Dir(d.opposite()).index(), out_vc)
                .expect("downstream reservation vanished");
            assert_eq!(reserved.pkt, occ.pkt, "reservation held by another packet");
            assert_eq!(reserved.arrived, 0, "reservation already received flits");
        }
        occ.pkt
    }

    /// Installs a relocated packet into a free VC, fully buffered and
    /// unrouted as of this cycle: the inverse of
    /// [`take_vc_packet`](Self::take_vc_packet), and the only form in
    /// which SPIN, SWAP and DRAIN put a packet back.
    ///
    /// # Panics
    ///
    /// Panics if the VC is occupied.
    pub fn put_vc_packet(&mut self, node: NodeId, port: Port, vc: usize, pkt: PacketId) {
        let len = self.store.get(pkt).len_flits;
        let mut occ = VcOccupant::reserved(pkt, len, self.cycle);
        occ.arrived = len;
        self.arena.install(node.index(), port.index(), vc, occ);
    }

    /// Total packets resident in routers and NIs (conservation checks;
    /// excludes scheme-held overlay packets such as FastPass flights).
    ///
    /// A packet in cut-through transfer spans a chain of buffers; it is
    /// counted exactly once, at the frontmost buffer that has received
    /// any of its flits (a downstream reservation that has seen no flit
    /// yet does not own the packet).
    pub fn resident_packets(&self) -> usize {
        let mut count = 0;
        for node in self.mesh.nodes() {
            if self.arena.node_occupied(node.index()) == 0 {
                continue; // active-set skip: nothing buffered here
            }
            for p in 0..NUM_PORTS {
                for (_, occ) in self.input(node, p).occupied() {
                    if occ.arrived == 0 {
                        continue; // reservation only; owned upstream
                    }
                    let owned = match (occ.route, occ.out_vc) {
                        (Some(Port::Dir(d)), Some(v)) => {
                            let nbr = self.neighbor(node, d).expect("route on-mesh");
                            self.input(nbr, Port::Dir(d.opposite()).index())
                                .occupant(v)
                                .map(|o| o.arrived == 0)
                                .unwrap_or(true)
                        }
                        _ => true,
                    };
                    if owned {
                        count += 1;
                    }
                }
            }
        }
        count
            + self
                .nis
                .iter()
                .map(|ni| ni.resident_packets())
                .sum::<usize>()
    }

    /// Iterates node ids in a rotating order that changes every cycle,
    /// removing systematic bias from fixed processing order.
    pub fn nodes_rotating(&self) -> impl Iterator<Item = NodeId> {
        let n = self.mesh.num_nodes();
        let off = self.rotation_offset();
        // One modulo per cycle; the two chained ranges yield the same
        // `off, off+1, .., n-1, 0, .., off-1` order without a per-node
        // `% n` in the loop body.
        (off..n).chain(0..off).map(NodeId::new)
    }

    /// First node of this cycle's rotating order.
    fn rotation_offset(&self) -> usize {
        (self.cycle as usize) % self.mesh.num_nodes().max(1)
    }

    // ---- active set -------------------------------------------------------

    /// Whether `n` has any regular-pass work this cycle: at least one
    /// occupied VC in its router (O(1) via the arena's per-node occupancy
    /// counter) or injection-side NI work. Nodes failing this predicate
    /// are provably no-ops for every pipeline stage — see `DESIGN.md`'s
    /// "active-set invariant" section.
    pub fn node_active(&self, n: NodeId) -> bool {
        self.arena.node_occupied(n.index()) > 0 || self.nis[n.index()].has_work()
    }

    /// The active nodes in this cycle's rotating order — the list a
    /// [`node_active`](Self::node_active) filter over
    /// [`nodes_rotating`](Self::nodes_rotating) yields, at a cost
    /// proportional to the nodes that hold something: an active node has
    /// an occupied VC (so its bit is in the arena's exact `occ_nodes`) or
    /// NI work (so its bit is in the superset `ni_live`), and the
    /// predicate is asked only at the set bits of the two.
    pub fn active_nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        let (off, n) = (self.rotation_offset(), self.mesh.num_nodes());
        set_bits_rotating(self.arena.occ_nodes(), &self.ni_live, off, n)
            .map(NodeId::new)
            .filter(|&node| self.node_active(node))
    }

    /// Hands the per-cycle active-node worklist scratch to the regular
    /// pipeline. Taking it out of `self` keeps the borrow checker happy
    /// while the pipeline mutates the core;
    /// [`put_advance_scratch`](Self::put_advance_scratch) returns it so
    /// its capacity survives across cycles.
    pub(crate) fn take_advance_scratch(&mut self) -> Vec<NodeId> {
        std::mem::take(&mut self.scratch_nodes)
    }

    /// Returns the scratch buffer taken by
    /// [`take_advance_scratch`](Self::take_advance_scratch).
    pub(crate) fn put_advance_scratch(&mut self, nodes: Vec<NodeId>) {
        self.scratch_nodes = nodes;
    }
}

/// Indices in `lo..hi` of the set bits of `a | b`, ascending.
fn set_bits_in<'a>(
    a: &'a [u64],
    b: &'a [u64],
    lo: usize,
    hi: usize,
) -> impl Iterator<Item = usize> + 'a {
    (lo / 64..hi.div_ceil(64)).flat_map(move |w| {
        let mut word = a[w] | b[w];
        if w == lo / 64 {
            word &= !0 << (lo % 64);
        }
        if w == hi / 64 {
            word &= (1 << (hi % 64)) - 1;
        }
        std::iter::from_fn(move || {
            (word != 0).then(|| {
                let bit = word.trailing_zeros() as usize;
                word &= word - 1;
                w * 64 + bit
            })
        })
    })
}

/// Indices below `n` of the set bits of `a | b` in the rotating order
/// `off, off+1, .., n-1, 0, .., off-1`.
fn set_bits_rotating<'a>(
    a: &'a [u64],
    b: &'a [u64],
    off: usize,
    n: usize,
) -> impl Iterator<Item = usize> + 'a {
    set_bits_in(a, b, off, n).chain(set_bits_in(a, b, 0, off))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vc::VcOccupant;
    use noc_core::packet::{MessageClass, Packet};
    use noc_core::rng::DetRng;

    fn small_core() -> NetworkCore {
        NetworkCore::new(SimConfig::builder().mesh(3, 3).vns(0).vcs_per_vn(2).build())
    }

    #[test]
    fn construction() {
        let core = small_core();
        assert_eq!(core.mesh().num_nodes(), 9);
        assert_eq!(core.router(NodeId::new(0)).sa_rr[0].len(), NUM_PORTS * 2);
        assert_eq!(core.vcs_per_port(), 2);
        assert_eq!(core.occupied_vcs(NodeId::new(0)), 0);
        assert_eq!(core.resident_packets(), 0);
        assert_eq!(core.cycle(), 0);
    }

    #[test]
    fn generate_places_packet_at_source() {
        let mut core = small_core();
        let id = core.generate(Packet::new(
            NodeId::new(0),
            NodeId::new(8),
            MessageClass::Request,
            5,
            0,
        ));
        assert_eq!(core.stats.generated, 1);
        assert_eq!(core.ni(NodeId::new(0)).source_depth(), 1);
        assert_eq!(core.resident_packets(), 1);
        // Created, but pending: no store slot until it moves on.
        assert_eq!((core.store.created(), core.store.live()), (1, 0));
        assert_eq!(core.pending_packets(), 1);
        assert_eq!(core.refill_inj(NodeId::new(0)), 1);
        let stored = core
            .ni(NodeId::new(0))
            .inj_head(MessageClass::Request)
            .expect("refilled");
        assert_eq!(stored, id);
        assert_eq!(core.store.get(stored).dst, NodeId::new(8));
        assert_eq!((core.store.live(), core.pending_packets()), (1, 0));
    }

    #[test]
    fn transaction_packets_are_stored_at_generation() {
        let mut core = small_core();
        let seed = Packet::new(NodeId::new(0), NodeId::new(8), MessageClass::Request, 1, 0);
        let plain = core.generate(seed.clone());
        let txn = core.generate(seed.with_txn(7));
        assert_eq!((core.store.created(), core.store.live()), (2, 1));
        assert_eq!(core.store.get(txn).txn.get(), Some(7));
        assert!(!core.store.contains(plain));
        core.refill_inj(NodeId::new(0));
        let queued: Vec<_> = core
            .ni(NodeId::new(0))
            .inj_iter(MessageClass::Request)
            .collect();
        assert_eq!(
            queued,
            [plain, txn],
            "generation order kept across the two forms"
        );
    }

    #[test]
    #[should_panic(expected = "self-traffic")]
    fn self_traffic_rejected() {
        let mut core = small_core();
        core.generate(Packet::new(
            NodeId::new(3),
            NodeId::new(3),
            MessageClass::Request,
            1,
            0,
        ));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn oversized_packet_rejected() {
        let mut core = small_core();
        core.generate(Packet::new(
            NodeId::new(0),
            NodeId::new(1),
            MessageClass::Request,
            6,
            0,
        ));
    }

    #[test]
    fn staged_arrival_lifecycle() {
        let mut core = small_core();
        let id = core.store.insert(Packet::new(
            NodeId::new(0),
            NodeId::new(8),
            MessageClass::Request,
            2,
            0,
        ));
        let node = NodeId::new(4);
        let port = Port::Dir(noc_core::topology::Direction::North);
        core.input_mut(node, port.index())
            .install(0, VcOccupant::reserved(id, 2, 0));
        core.stage_flit(node, port, 0);
        // Not yet visible.
        assert_eq!(
            core.input(node, port.index()).occupant(0).unwrap().arrived,
            0
        );
        core.apply_staged();
        let occ = core.input(node, port.index()).occupant(0).unwrap();
        assert_eq!(occ.arrived, 1);
        assert!(occ.head_present());
        assert_eq!(core.occupied_vcs(node), 1);
    }

    #[test]
    fn drain_frees_vc_at_apply() {
        let mut core = small_core();
        let id = core.store.insert(Packet::new(
            NodeId::new(0),
            NodeId::new(8),
            MessageClass::Request,
            1,
            0,
        ));
        let node = NodeId::new(4);
        let port = Port::Local;
        let mut occ = VcOccupant::reserved(id, 1, 0);
        occ.arrived = 1;
        occ.sent = 1;
        core.input_mut(node, port.index()).install(0, occ);
        core.mark_drained(node, port, 0);
        assert!(!core.input(node, port.index()).is_free(0));
        core.apply_staged();
        assert!(core.input(node, port.index()).is_free(0));
    }

    #[test]
    #[should_panic(expected = "staged moves pending")]
    fn advance_cycle_with_pending_moves_panics() {
        let mut core = small_core();
        let id = core.store.insert(Packet::new(
            NodeId::new(0),
            NodeId::new(8),
            MessageClass::Request,
            1,
            0,
        ));
        core.input_mut(NodeId::new(0), 0)
            .install(0, VcOccupant::reserved(id, 1, 0));
        core.stage_flit(NodeId::new(0), Port::from_index(0), 0);
        core.advance_cycle();
    }

    #[test]
    fn take_vc_packet_frees_immediately() {
        let mut core = small_core();
        let id = core.store.insert(Packet::new(
            NodeId::new(0),
            NodeId::new(8),
            MessageClass::Request,
            1,
            0,
        ));
        let node = NodeId::new(2);
        let mut occ = VcOccupant::reserved(id, 1, 0);
        occ.arrived = 1;
        core.input_mut(node, 0).install(0, occ);
        let got = core.take_vc_packet(node, Port::from_index(0), 0);
        assert_eq!(got, id);
        assert!(core.input(node, 0).is_free(0));
    }

    #[test]
    fn linkset_insert_and_collision() {
        let mesh = Mesh::new(4, 4);
        let mut set = LinkSet::new(mesh);
        let l = mesh
            .link(NodeId::new(0), noc_core::topology::Direction::East)
            .unwrap();
        assert!(set.insert(l), "first insert is new");
        assert!(!set.insert(l), "second insert reports collision");
        assert!(set.contains(l));
        assert_eq!(set.count(), 1);
        set.clear();
        assert_eq!(set.count(), 0);
        assert!(!set.contains(l));
    }

    /// The word walk yields exactly the dense rotating scan's order, at
    /// every word boundary: `off` at 0, 63, 64 and `n - 1`, meshes of
    /// one partial word, one full word and several words.
    #[test]
    fn rotating_bit_walk_matches_dense_order() {
        for n in [15usize, 64, 81, 130, 256] {
            let words = n.div_ceil(64);
            let mut rng = DetRng::new(n as u64);
            for fill in [0.0, 0.1, 0.5, 1.0] {
                let (mut a, mut b) = (vec![0u64; words], vec![0u64; words]);
                for i in 0..n {
                    if rng.chance(fill) {
                        a[i / 64] |= 1 << (i % 64);
                    }
                    if rng.chance(fill / 2.0) {
                        b[i / 64] |= 1 << (i % 64);
                    }
                }
                for off in [0, 1, 63, 64, 65, n / 2, n - 1] {
                    let off = off.min(n - 1);
                    let dense: Vec<usize> = (off..n)
                        .chain(0..off)
                        .filter(|&i| (a[i / 64] | b[i / 64]) >> (i % 64) & 1 != 0)
                        .collect();
                    let walked: Vec<usize> = set_bits_rotating(&a, &b, off, n).collect();
                    assert_eq!(walked, dense, "n {n} off {off} fill {fill}");
                }
            }
        }
    }

    #[test]
    fn ni_mut_and_generate_mark_the_ni_live() {
        let mut core = small_core();
        assert!(!core.in_ni_live(NodeId::new(4)));
        core.ni_mut(NodeId::new(4));
        assert!(core.in_ni_live(NodeId::new(4)), "handing out &mut marks");
        assert!(
            core.active_nodes().next().is_none(),
            "a marked but empty NI is not active: the words only say where to ask"
        );
        core.generate(Packet::new(
            NodeId::new(7),
            NodeId::new(0),
            MessageClass::Request,
            1,
            0,
        ));
        assert!(core.in_ni_live(NodeId::new(7)));
        assert_eq!(core.active_nodes().collect::<Vec<_>>(), [NodeId::new(7)]);
    }

    #[test]
    fn rotating_order_visits_all_nodes() {
        let core = small_core();
        let visited: std::collections::HashSet<_> = core.nodes_rotating().collect();
        assert_eq!(visited.len(), 9);
    }
}
