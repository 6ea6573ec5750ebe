//! Network interfaces: injection/ejection queues, sources and MSHRs.
//!
//! Following Fig. 6 of the paper, each NI keeps **one queue per message
//! class** on both the injection and ejection side, even in 0-VN
//! configurations. In front of the finite injection queues sits an
//! unbounded *source queue* (the open-loop traffic source / the core's
//! outstanding-miss machinery); behind the ejection queues sits the
//! consumer (the core / directory), modelled by the engine.
//!
//! The NI also owns the machinery for the paper's *dynamic bubble*
//! (§III-C4): the request injection queue is the only place packets are
//! ever dropped from, and dropped requests are regenerated from MSHR
//! state after a local re-issue delay.

use noc_core::packet::{MessageClass, PacketId, PacketStore, PendingPacket, CLASSES, NUM_CLASSES};
use noc_core::topology::NodeId;
use std::collections::VecDeque;

/// An entry of an open-loop source queue (16 bytes either way).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SourceEntry {
    /// A generated packet that holds no store slot yet: the refill that
    /// moves it into the injection queue stores it.
    Pending(PendingPacket),
    /// A packet already in the store: a regenerated request, or one that
    /// carries a protocol transaction.
    Stored(PacketId),
}

impl SourceEntry {
    /// The packet's id (a pending one's names no slot yet, but equals the
    /// id it will be stored under).
    pub fn id(self) -> PacketId {
        match self {
            SourceEntry::Pending(p) => p.id(),
            SourceEntry::Stored(id) => id,
        }
    }
}

/// An entry waiting in an ejection queue: the packet and the cycle from
/// which the consumer may take it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EjectEntry {
    /// The delivered packet.
    pub pkt: PacketId,
    /// Earliest cycle the NI consumer may pop it.
    pub ready: u64,
}

/// An in-progress injection transfer from the NI into the router's local
/// input port (one flit per cycle over the injection link).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjStream {
    /// Packet being streamed.
    pub pkt: PacketId,
    /// Destination VC at the router's local input port.
    pub vc: usize,
    /// Flits already pushed across the injection link.
    pub flits_sent: u8,
    /// Total flits.
    pub len: u8,
}

/// Why an ejection queue refuses a packet right now (the trace
/// subsystem maps these onto stall causes; see
/// [`NiState::ej_refusal`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EjRefusal {
    /// No free slot at all (queue + in-flight streams exhaust capacity).
    Full,
    /// Exactly one slot is free but it is reserved for a rejected
    /// FastPass-Packet (§III-C4), and this packet is not the owner.
    Reserved,
}

/// Per-node network interface state.
#[derive(Debug, Clone)]
pub struct NiState {
    /// Unbounded open-loop source queues, one per class. Packets wait
    /// here before there is room in the finite injection queue; source
    /// queueing time counts toward packet latency (standard open-loop
    /// methodology). Past saturation these hold most packets of a run,
    /// so a generated packet waits as a 16-byte pending record and takes
    /// a store slot only when it moves on.
    source: [VecDeque<SourceEntry>; NUM_CLASSES],
    /// Finite per-class injection queues (the buffers a FastPass prime
    /// router scans first, and the only droppable buffers).
    inj: [VecDeque<PacketId>; NUM_CLASSES],
    /// Finite per-class ejection queues.
    ej: [VecDeque<EjectEntry>; NUM_CLASSES],
    /// Ejection-queue slots pro-actively reserved for a rejected
    /// FastPass-Packet (§III-C4): while set, no other packet may take the
    /// last slot of that class's queue.
    ej_reserved: [Option<PacketId>; NUM_CLASSES],
    /// Packets currently streaming into each ejection queue (their slot
    /// is claimed from the first flit, committed at the tail).
    ej_inflight: [u8; NUM_CLASSES],
    /// Active injection transfer, if any.
    pub inj_stream: Option<InjStream>,
    /// Dropped requests awaiting MSHR regeneration: `(pkt, ready_cycle)`.
    regen: Vec<(PacketId, u64)>,
    inj_cap: usize,
    ej_cap: usize,
    /// Packets across all source/injection/regen queues, maintained
    /// incrementally so [`has_work`](Self::has_work) is O(1) — it runs
    /// for every node every cycle in the active-set snapshot.
    inj_items: u32,
    /// Entries across all ejection queues, maintained incrementally so
    /// [`ej_any`](Self::ej_any) is O(1) in the consumption loop.
    ej_items: u32,
    /// Packets across the source queues only, so
    /// [`refill_inj`](Self::refill_inj) — called for every active node
    /// every cycle — can exit in O(1) when the sources are dry (the
    /// common case for nodes that are active only because packets are
    /// transiting their router).
    src_items: u32,
    /// Bit `c` set iff ejection queue `c` is nonempty, so the consumer
    /// loop visits only classes with something to deliver instead of all
    /// [`NUM_CLASSES`] every cycle.
    ej_class_mask: u8,
}

impl NiState {
    /// Creates an NI with the given per-class queue capacities (packets).
    pub fn new(inj_cap: usize, ej_cap: usize) -> Self {
        NiState {
            source: Default::default(),
            inj: Default::default(),
            ej: Default::default(),
            ej_reserved: [None; NUM_CLASSES],
            ej_inflight: [0; NUM_CLASSES],
            inj_stream: None,
            regen: Vec::new(),
            inj_cap,
            ej_cap,
            inj_items: 0,
            ej_items: 0,
            src_items: 0,
            ej_class_mask: 0,
        }
    }

    // ---- source side -------------------------------------------------

    /// Enqueues a freshly generated packet at the back of its source
    /// queue.
    pub fn push_source(&mut self, class: MessageClass, entry: SourceEntry) {
        self.source[class.index()].push_back(entry);
        self.inj_items += 1;
        self.src_items += 1;
    }

    /// Enqueues a regenerated packet at the *front* of its source queue
    /// (it logically predates everything behind it).
    pub fn push_source_front(&mut self, class: MessageClass, pkt: PacketId) {
        self.source[class.index()].push_front(SourceEntry::Stored(pkt));
        self.inj_items += 1;
        self.src_items += 1;
    }

    /// Total packets waiting in source queues (congestion signal).
    pub fn source_depth(&self) -> usize {
        debug_assert_eq!(
            self.src_items as usize,
            self.source.iter().map(|q| q.len()).sum::<usize>(),
            "src_items counter out of sync with source queues"
        );
        self.src_items as usize
    }

    /// Pending records (packets not yet in the store) in a class's source
    /// queue.
    pub fn pending(&self, class: MessageClass) -> usize {
        self.source[class.index()]
            .iter()
            .filter(|e| matches!(e, SourceEntry::Pending(_)))
            .count()
    }

    /// Moves packets from source queues into injection queues while there
    /// is room, storing each pending record as a packet generated at
    /// `src` (this NI's node). Returns how many were moved.
    pub fn refill_inj(&mut self, src: NodeId, store: &mut PacketStore) -> usize {
        if self.src_items == 0 {
            return 0;
        }
        let mut moved = 0;
        for class in CLASSES {
            let c = class.index();
            while self.inj[c].len() < self.inj_cap {
                let pkt = match self.source[c].pop_front() {
                    Some(SourceEntry::Pending(p)) => store.materialize(p, src, class),
                    Some(SourceEntry::Stored(id)) => id,
                    None => break,
                };
                self.inj[c].push_back(pkt);
                moved += 1;
            }
        }
        self.src_items -= moved as u32;
        moved
    }

    // ---- injection side ----------------------------------------------

    /// Head packet of a class's injection queue.
    pub fn inj_head(&self, class: MessageClass) -> Option<PacketId> {
        self.inj[class.index()].front().copied()
    }

    /// Pops the head of a class's injection queue.
    pub fn pop_inj(&mut self, class: MessageClass) -> Option<PacketId> {
        let p = self.inj[class.index()].pop_front();
        self.inj_items -= p.is_some() as u32;
        p
    }

    /// Whether a class's injection queue is full.
    pub fn inj_full(&self, class: MessageClass) -> bool {
        self.inj[class.index()].len() >= self.inj_cap
    }

    /// Occupancy of a class's injection queue.
    pub fn inj_len(&self, class: MessageClass) -> usize {
        self.inj[class.index()].len()
    }

    /// Pushes a rejected FastPass-Packet into the *front* of the request
    /// injection queue (it becomes the first packet the prime re-examines,
    /// §Qn2). Callers normally make room first via
    /// [`drop_inj_tail`](Self::drop_inj_tail); if no droppable victim
    /// exists the push still succeeds — the transient extra entry models
    /// the prime router's bypass latch (the green path of Fig. 6, which
    /// lets a rejected packet wait outside the queue proper). The queue
    /// refuses new refills while over capacity, so the overflow drains.
    pub fn park_rejected(&mut self, class: MessageClass, pkt: PacketId) {
        self.inj[class.index()].push_front(pkt);
        self.inj_items += 1;
    }

    /// Drops the newest packet from a class's injection queue to make a
    /// bubble (§III-C4). Returns the victim, to be registered for MSHR
    /// regeneration by the caller.
    pub fn drop_inj_tail(&mut self, class: MessageClass) -> Option<PacketId> {
        let p = self.inj[class.index()].pop_back();
        self.inj_items -= p.is_some() as u32;
        p
    }

    /// Removes and returns the packet at `idx` (0 = front) of a class's
    /// injection queue. Used by the dynamic bubble to drop the newest
    /// *droppable* request (never a previously rejected FastPass-Packet,
    /// §Qn2).
    pub fn remove_inj_at(&mut self, class: MessageClass, idx: usize) -> Option<PacketId> {
        let p = self.inj[class.index()].remove(idx);
        self.inj_items -= p.is_some() as u32;
        p
    }

    /// Iterates a class's injection queue front-to-back.
    pub fn inj_iter(
        &self,
        class: MessageClass,
    ) -> impl DoubleEndedIterator<Item = PacketId> + ExactSizeIterator + '_ {
        self.inj[class.index()].iter().copied()
    }

    /// Iterates a class's source queue front-to-back (state export for
    /// the model checker; the queue is unbounded, order is behavioural).
    pub fn source_iter(&self, class: MessageClass) -> impl Iterator<Item = SourceEntry> + '_ {
        self.source[class.index()].iter().copied()
    }

    /// Iterates the pending MSHR regenerations as `(packet, ready_cycle)`
    /// in registration order.
    pub fn regen_iter(&self) -> impl Iterator<Item = (PacketId, u64)> + '_ {
        self.regen.iter().copied()
    }

    /// Registers a dropped request for regeneration at `ready_cycle`.
    pub fn schedule_regen(&mut self, pkt: PacketId, ready_cycle: u64) {
        self.regen.push((pkt, ready_cycle));
        self.inj_items += 1;
    }

    /// Takes all regenerated packets whose re-issue delay has elapsed.
    pub fn take_regenerated(&mut self, now: u64) -> Vec<PacketId> {
        let mut out = Vec::new();
        self.regen.retain(|&(p, ready)| {
            if ready <= now {
                out.push(p);
                false
            } else {
                true
            }
        });
        self.inj_items -= out.len() as u32;
        out
    }

    /// Packets currently awaiting regeneration.
    pub fn regen_pending(&self) -> usize {
        self.regen.len()
    }

    // ---- ejection side -----------------------------------------------

    /// Whether a class's ejection queue can accept `pkt` right now,
    /// honouring reservations (a reserved slot is only usable by the
    /// packet it is reserved for) and slots claimed by in-flight ejection
    /// streams.
    pub fn ej_can_accept(&self, class: MessageClass, pkt: PacketId) -> bool {
        let c = class.index();
        let free = self
            .ej_cap
            .saturating_sub(self.ej[c].len() + self.ej_inflight[c] as usize);
        match self.ej_reserved[c] {
            Some(owner) if owner == pkt => free >= 1,
            Some(_) => free >= 2,
            None => free >= 1,
        }
    }

    /// Classifies why [`ej_can_accept`](Self::ej_can_accept) is false
    /// for `(class, pkt)` — `None` means the packet would be accepted.
    /// Pure observation for stall attribution; computes the same
    /// free-slot arithmetic as the admission check.
    pub fn ej_refusal(&self, class: MessageClass, pkt: PacketId) -> Option<EjRefusal> {
        if self.ej_can_accept(class, pkt) {
            return None;
        }
        let c = class.index();
        let free = self
            .ej_cap
            .saturating_sub(self.ej[c].len() + self.ej_inflight[c] as usize);
        match self.ej_reserved[c] {
            // A reservation held by someone else is only the binding
            // refusal when a slot actually exists for the owner.
            Some(owner) if owner != pkt && free >= 1 => Some(EjRefusal::Reserved),
            _ => Some(EjRefusal::Full),
        }
    }

    /// Claims an ejection slot for a packet whose first flit is about to
    /// leave the network (the slot is held until [`ej_commit`] or
    /// [`ej_abort`]).
    ///
    /// [`ej_commit`]: Self::ej_commit
    /// [`ej_abort`]: Self::ej_abort
    ///
    /// # Panics
    ///
    /// Panics if [`ej_can_accept`](Self::ej_can_accept) is false —
    /// admission must be checked before the head flit is granted.
    pub fn ej_begin(&mut self, class: MessageClass, pkt: PacketId) {
        assert!(self.ej_can_accept(class, pkt), "ejection queue overflow");
        self.ej_inflight[class.index()] += 1;
    }

    /// Commits a claimed slot: the tail flit arrived, the packet enters
    /// the queue. Clears the class reservation if this packet held it.
    ///
    /// # Panics
    ///
    /// Panics if no slot was claimed via [`ej_begin`](Self::ej_begin).
    pub fn ej_commit(&mut self, class: MessageClass, entry: EjectEntry) {
        let c = class.index();
        assert!(self.ej_inflight[c] > 0, "ej_commit without ej_begin");
        self.ej_inflight[c] -= 1;
        if self.ej_reserved[c] == Some(entry.pkt) {
            self.ej_reserved[c] = None;
        }
        self.ej[c].push_back(entry);
        self.ej_items += 1;
        self.ej_class_mask |= 1 << c;
    }

    /// Releases a claimed slot without delivering (unused by the regular
    /// pipeline, available to schemes that abandon an ejection).
    ///
    /// # Panics
    ///
    /// Panics if no slot was claimed.
    pub fn ej_abort(&mut self, class: MessageClass) {
        let c = class.index();
        assert!(self.ej_inflight[c] > 0, "ej_abort without ej_begin");
        self.ej_inflight[c] -= 1;
    }

    /// Reserves the next free slot of a class's ejection queue for a
    /// rejected FastPass-Packet (§III-C4). Idempotent for the same owner.
    ///
    /// # Panics
    ///
    /// Panics if a *different* packet already holds the reservation —
    /// the paper guarantees at most one outstanding rejected packet per
    /// (destination, class).
    pub fn reserve_ej(&mut self, class: MessageClass, pkt: PacketId) {
        let c = class.index();
        match self.ej_reserved[c] {
            None => self.ej_reserved[c] = Some(pkt),
            Some(owner) => assert_eq!(owner, pkt, "conflicting ejection reservation"),
        }
    }

    /// Current reservation holder for a class, if any.
    pub fn ej_reservation(&self, class: MessageClass) -> Option<PacketId> {
        self.ej_reserved[class.index()]
    }

    /// Whether any class's ejection queue holds at least one entry — the
    /// consumption loop's fast path for skipping NIs with nothing to
    /// deliver.
    pub fn ej_any(&self) -> bool {
        self.ej_items != 0
    }

    /// Head of a class's ejection queue if its ready time has passed.
    pub fn ej_consumable(&self, class: MessageClass, now: u64) -> Option<PacketId> {
        self.ej[class.index()]
            .front()
            .filter(|e| e.ready <= now)
            .map(|e| e.pkt)
    }

    /// Pops the head of a class's ejection queue (the consumer took it).
    pub fn pop_ej(&mut self, class: MessageClass) -> Option<EjectEntry> {
        let c = class.index();
        let e = self.ej[c].pop_front();
        self.ej_items -= e.is_some() as u32;
        if self.ej[c].is_empty() {
            self.ej_class_mask &= !(1 << c);
        }
        e
    }

    /// Bitmask of classes whose ejection queues are nonempty (bit `c` ↔
    /// class index `c`), for consumers that want to skip empty queues.
    pub fn ej_classes(&self) -> u8 {
        self.ej_class_mask
    }

    /// Occupancy of a class's ejection queue.
    pub fn ej_len(&self, class: MessageClass) -> usize {
        self.ej[class.index()].len()
    }

    /// Iterates a class's ejection queue front-to-back (state export).
    pub fn ej_iter(&self, class: MessageClass) -> impl Iterator<Item = EjectEntry> + '_ {
        self.ej[class.index()].iter().copied()
    }

    /// Slots of a class's ejection queue claimed by in-flight ejection
    /// streams.
    pub fn ej_inflight(&self, class: MessageClass) -> usize {
        self.ej_inflight[class.index()] as usize
    }

    /// Whether this NI has any injection-side work for the regular
    /// pipeline this cycle: an active injection stream, pending MSHR
    /// regenerations, or packets waiting in source/injection queues.
    /// This is the NI half of the active-set predicate used by the cycle
    /// loop to skip idle nodes; ejection queues are deliberately excluded
    /// (draining them is the consumer's job, not the pipeline's).
    pub fn has_work(&self) -> bool {
        debug_assert_eq!(
            self.inj_items as usize,
            self.source.iter().map(|q| q.len()).sum::<usize>()
                + self.inj.iter().map(|q| q.len()).sum::<usize>()
                + self.regen.len(),
            "inj_items counter out of sync with queue contents"
        );
        self.inj_stream.is_some() || self.inj_items != 0
    }

    /// Total packets resident anywhere in this NI (conservation checks).
    ///
    /// A packet mid-injection (`inj_stream`) is *not* counted: it already
    /// occupies the router's local input VC, which the router counts.
    pub fn resident_packets(&self) -> usize {
        self.source.iter().map(|q| q.len()).sum::<usize>()
            + self.inj.iter().map(|q| q.len()).sum::<usize>()
            + self.ej.iter().map(|q| q.len()).sum::<usize>()
            + self.regen.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::packet::{Packet, PacketStore};
    use noc_core::topology::NodeId;

    fn pkt(store: &mut PacketStore, class: MessageClass) -> PacketId {
        store.insert(Packet::new(NodeId::new(0), NodeId::new(1), class, 1, 0))
    }

    /// A freshly generated packet of node 0, as `generate` queues it.
    fn generated(store: &mut PacketStore, class: MessageClass) -> SourceEntry {
        SourceEntry::Pending(store.reserve(&Packet::new(
            NodeId::new(0),
            NodeId::new(1),
            class,
            1,
            0,
        )))
    }

    fn refill(ni: &mut NiState, store: &mut PacketStore) -> usize {
        ni.refill_inj(NodeId::new(0), store)
    }

    #[test]
    fn source_entries_are_16_bytes() {
        assert_eq!(std::mem::size_of::<SourceEntry>(), 16);
    }

    #[test]
    fn source_to_inj_refill_respects_capacity() {
        let mut store = PacketStore::new();
        let mut ni = NiState::new(2, 2);
        for _ in 0..5 {
            let p = generated(&mut store, MessageClass::Request);
            ni.push_source(MessageClass::Request, p);
        }
        assert_eq!(refill(&mut ni, &mut store), 2);
        assert!(ni.inj_full(MessageClass::Request));
        assert_eq!(ni.source_depth(), 3);
        assert_eq!(ni.pending(MessageClass::Request), 3);
        // Only what moved took a store slot.
        assert_eq!((store.created(), store.live()), (5, 2));
        // Popping one makes room for exactly one more.
        ni.pop_inj(MessageClass::Request);
        assert_eq!(refill(&mut ni, &mut store), 1);
        assert_eq!(store.live(), 3);
    }

    #[test]
    fn refill_stores_a_pending_record_as_generated() {
        let mut store = PacketStore::new();
        let mut ni = NiState::new(4, 4);
        let seed = Packet::new(NodeId::new(6), NodeId::new(2), MessageClass::Forward, 5, 17);
        let entry = SourceEntry::Pending(store.reserve(&seed));
        ni.push_source(MessageClass::Forward, entry);
        ni.refill_inj(NodeId::new(6), &mut store);
        let id = ni.inj_head(MessageClass::Forward).expect("moved");
        assert_eq!(id, entry.id());
        let p = store.get(id);
        assert_eq!((p.src, p.dst, p.class), (seed.src, seed.dst, seed.class));
        assert_eq!((p.len_flits, p.gen_cycle), (5, 17));
    }

    #[test]
    fn regenerated_packets_jump_the_source_queue() {
        let mut store = PacketStore::new();
        let mut ni = NiState::new(4, 4);
        let a = generated(&mut store, MessageClass::Request);
        let b = pkt(&mut store, MessageClass::Request);
        let c = generated(&mut store, MessageClass::Request);
        ni.push_source(MessageClass::Request, a);
        ni.push_source_front(MessageClass::Request, b);
        ni.push_source(MessageClass::Request, c);
        assert_eq!(
            ni.source_iter(MessageClass::Request).collect::<Vec<_>>(),
            [SourceEntry::Stored(b), a, c]
        );
        refill(&mut ni, &mut store);
        assert_eq!(ni.pop_inj(MessageClass::Request), Some(b));
        assert_eq!(ni.pop_inj(MessageClass::Request), Some(a.id()));
        assert_eq!(ni.pop_inj(MessageClass::Request), Some(c.id()));
    }

    #[test]
    fn dynamic_bubble_drop_and_park() {
        let mut store = PacketStore::new();
        let mut ni = NiState::new(2, 2);
        let a = generated(&mut store, MessageClass::Request);
        let b = generated(&mut store, MessageClass::Request);
        ni.push_source(MessageClass::Request, a);
        ni.push_source(MessageClass::Request, b);
        refill(&mut ni, &mut store);
        assert!(ni.inj_full(MessageClass::Request));
        // The *newest* injection request (b) is the drop victim.
        let victim = ni.drop_inj_tail(MessageClass::Request).unwrap();
        assert_eq!(victim, b.id());
        let rejected = pkt(&mut store, MessageClass::Request);
        ni.park_rejected(MessageClass::Request, rejected);
        // The rejected packet is at the *front*: first to be re-examined.
        assert_eq!(ni.inj_head(MessageClass::Request), Some(rejected));
        // Regeneration round-trip.
        ni.schedule_regen(victim, 100);
        assert!(ni.take_regenerated(99).is_empty());
        assert_eq!(ni.take_regenerated(100), vec![victim]);
        assert_eq!(ni.regen_pending(), 0);
    }

    #[test]
    fn park_overflow_uses_bypass_latch_and_blocks_refill() {
        let mut store = PacketStore::new();
        let mut ni = NiState::new(1, 1);
        let a = generated(&mut store, MessageClass::Request);
        ni.push_source(MessageClass::Request, a);
        refill(&mut ni, &mut store);
        let r = pkt(&mut store, MessageClass::Request);
        // No droppable victim scenario: park still succeeds (green path).
        ni.park_rejected(MessageClass::Request, r);
        assert_eq!(ni.inj_head(MessageClass::Request), Some(r));
        assert_eq!(ni.inj_len(MessageClass::Request), 2);
        // Over capacity: refill refuses to add more.
        let b = generated(&mut store, MessageClass::Request);
        ni.push_source(MessageClass::Request, b);
        assert_eq!(refill(&mut ni, &mut store), 0);
    }

    #[test]
    fn remove_inj_at_picks_victims_precisely() {
        let mut store = PacketStore::new();
        let mut ni = NiState::new(3, 1);
        let ids: Vec<_> = (0..3)
            .map(|_| {
                let p = generated(&mut store, MessageClass::Request);
                ni.push_source(MessageClass::Request, p);
                p.id()
            })
            .collect();
        refill(&mut ni, &mut store);
        let order: Vec<_> = ni.inj_iter(MessageClass::Request).collect();
        assert_eq!(order, ids);
        let victim = ni.remove_inj_at(MessageClass::Request, 1).unwrap();
        assert_eq!(victim, ids[1]);
        let order: Vec<_> = ni.inj_iter(MessageClass::Request).collect();
        assert_eq!(order, vec![ids[0], ids[2]]);
    }

    #[test]
    fn ejection_reservation_blocks_others() {
        let mut store = PacketStore::new();
        let mut ni = NiState::new(2, 2);
        let owner = pkt(&mut store, MessageClass::Response);
        let other = pkt(&mut store, MessageClass::Response);
        let third = pkt(&mut store, MessageClass::Response);
        ni.reserve_ej(MessageClass::Response, owner);
        // One slot is held back for the owner; others may use the rest.
        assert!(ni.ej_can_accept(MessageClass::Response, other));
        ni.ej_begin(MessageClass::Response, other);
        ni.ej_commit(
            MessageClass::Response,
            EjectEntry {
                pkt: other,
                ready: 0,
            },
        );
        assert!(!ni.ej_can_accept(MessageClass::Response, third));
        assert!(ni.ej_can_accept(MessageClass::Response, owner));
        ni.ej_begin(MessageClass::Response, owner);
        ni.ej_commit(
            MessageClass::Response,
            EjectEntry {
                pkt: owner,
                ready: 0,
            },
        );
        // Reservation cleared once the owner landed.
        assert_eq!(ni.ej_reservation(MessageClass::Response), None);
    }

    #[test]
    fn inflight_ejections_claim_slots() {
        let mut store = PacketStore::new();
        let mut ni = NiState::new(2, 1);
        let a = pkt(&mut store, MessageClass::Response);
        let b = pkt(&mut store, MessageClass::Response);
        ni.ej_begin(MessageClass::Response, a);
        // The single slot is claimed: nobody else may start.
        assert!(!ni.ej_can_accept(MessageClass::Response, b));
        ni.ej_abort(MessageClass::Response);
        assert!(ni.ej_can_accept(MessageClass::Response, b));
    }

    #[test]
    fn ejection_ready_time_gates_consumption() {
        let mut store = PacketStore::new();
        let mut ni = NiState::new(2, 2);
        let p = pkt(&mut store, MessageClass::Response);
        ni.ej_begin(MessageClass::Response, p);
        ni.ej_commit(MessageClass::Response, EjectEntry { pkt: p, ready: 10 });
        assert_eq!(ni.ej_consumable(MessageClass::Response, 9), None);
        assert_eq!(ni.ej_consumable(MessageClass::Response, 10), Some(p));
        assert_eq!(ni.pop_ej(MessageClass::Response).unwrap().pkt, p);
        assert_eq!(ni.ej_len(MessageClass::Response), 0);
    }

    #[test]
    fn per_class_queues_are_independent() {
        let mut store = PacketStore::new();
        let mut ni = NiState::new(1, 1);
        let req = generated(&mut store, MessageClass::Request);
        let resp = generated(&mut store, MessageClass::Response);
        ni.push_source(MessageClass::Request, req);
        ni.push_source(MessageClass::Response, resp);
        refill(&mut ni, &mut store);
        assert!(ni.inj_full(MessageClass::Request));
        assert!(ni.inj_full(MessageClass::Response));
        assert_eq!(ni.inj_head(MessageClass::Request), Some(req.id()));
        assert_eq!(ni.inj_head(MessageClass::Response), Some(resp.id()));
        let stored = ni.inj_head(MessageClass::Response).expect("moved");
        assert_eq!(store.get(stored).class, MessageClass::Response);
        assert_eq!(ni.resident_packets(), 2);
    }

    #[test]
    fn ej_refusal_classifies_full_vs_reserved() {
        let mut store = PacketStore::new();
        let mut ni = NiState::new(2, 2);
        let owner = pkt(&mut store, MessageClass::Response);
        let other = pkt(&mut store, MessageClass::Response);
        // Empty queue: accepted, no refusal.
        assert_eq!(ni.ej_refusal(MessageClass::Response, other), None);
        // One slot taken, the other reserved for `owner`: a stranger is
        // refused because of the reservation, the owner is accepted.
        ni.ej_begin(MessageClass::Response, other);
        ni.ej_commit(
            MessageClass::Response,
            EjectEntry {
                pkt: other,
                ready: 0,
            },
        );
        ni.reserve_ej(MessageClass::Response, owner);
        let third = pkt(&mut store, MessageClass::Response);
        assert_eq!(
            ni.ej_refusal(MessageClass::Response, third),
            Some(EjRefusal::Reserved)
        );
        assert_eq!(ni.ej_refusal(MessageClass::Response, owner), None);
        // Fill the reserved slot with the owner: now genuinely full.
        ni.ej_begin(MessageClass::Response, owner);
        ni.ej_commit(
            MessageClass::Response,
            EjectEntry {
                pkt: owner,
                ready: 0,
            },
        );
        assert_eq!(
            ni.ej_refusal(MessageClass::Response, third),
            Some(EjRefusal::Full)
        );
    }

    #[test]
    #[should_panic(expected = "conflicting ejection reservation")]
    fn conflicting_reservation_panics() {
        let mut store = PacketStore::new();
        let mut ni = NiState::new(1, 1);
        let a = pkt(&mut store, MessageClass::Response);
        let b = pkt(&mut store, MessageClass::Response);
        ni.reserve_ej(MessageClass::Response, a);
        ni.reserve_ej(MessageClass::Response, b);
    }
}
