//! Packets, flits-as-counters, message classes and the central packet store.
//!
//! The simulator models virtual cut-through with a *single packet per VC*
//! (Table II of the paper), so a buffer never interleaves flits of
//! different packets. That lets us represent flit movement with per-VC
//! counters instead of per-flit objects while keeping flit-accurate timing
//! (serialization of 5-flit data packets, cut-through forwarding, credit
//! turnaround).

use crate::topology::NodeId;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::num::NonZeroU8;

/// Coherence message class.
///
/// The paper's baselines need 6 virtual networks for MOESI Hammer; this
/// enum provides the corresponding 6 classes. FastPass and Pitstop run
/// with 0 VNs but still keep one injection and one ejection queue per
/// class (§III-E, "Virtual networks").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[repr(u8)]
pub enum MessageClass {
    /// Coherence request (GetS/GetM). 1-flit control message.
    Request = 0,
    /// Forwarded request from a directory to an owner.
    Forward = 1,
    /// Data or ack response. Sink class: always consumable.
    Response = 2,
    /// Writeback request carrying dirty data.
    Writeback = 3,
    /// Writeback acknowledgment. Sink class.
    WritebackAck = 4,
    /// Unblock/completion notification. Sink class.
    Unblock = 5,
}

/// Number of message classes (= number of VNs in the 6-VN baselines).
pub const NUM_CLASSES: usize = 6;

/// All message classes in index order.
pub const CLASSES: [MessageClass; NUM_CLASSES] = [
    MessageClass::Request,
    MessageClass::Forward,
    MessageClass::Response,
    MessageClass::Writeback,
    MessageClass::WritebackAck,
    MessageClass::Unblock,
];

impl MessageClass {
    /// Stable index in `0..6`, used to select VNs and per-class queues.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Reconstructs a class from its stable index.
    ///
    /// # Panics
    ///
    /// Panics if `i >= 6`.
    pub fn from_index(i: usize) -> MessageClass {
        CLASSES[i]
    }

    /// Whether this class terminates protocol transactions.
    ///
    /// Sink classes can always be consumed at the destination (Lemma 3 of
    /// the paper relies on at least one sink class existing per
    /// transaction).
    pub fn is_sink(self) -> bool {
        matches!(
            self,
            MessageClass::Response | MessageClass::WritebackAck | MessageClass::Unblock
        )
    }
}

impl fmt::Display for MessageClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MessageClass::Request => "Req",
            MessageClass::Forward => "Fwd",
            MessageClass::Response => "Resp",
            MessageClass::Writeback => "Wb",
            MessageClass::WritebackAck => "WbAck",
            MessageClass::Unblock => "Unblk",
        };
        f.write_str(s)
    }
}

/// Unique identifier of a packet for the lifetime of a simulation.
///
/// One word, `seq << 32 | slot`: `seq` is the packet's creation sequence
/// (0, 1, 2, … per store, never reused) and `slot` the [`PacketStore`]
/// slot it lives in, which a later packet may reuse once this one is
/// removed. A packet still waiting as a [`PendingPacket`] has no slot
/// yet: its id's slot half is `u32::MAX` until the store materializes
/// it.
/// [`raw`](Self::raw), `Display` and `Debug` show `seq` only, and `Eq`,
/// `Ord` and `Hash` read `seq` only, so an id taken before
/// materialization equals, orders and hashes like the one the packet
/// holds afterwards. The slot half is the store's business.
#[derive(Clone, Copy)]
pub struct PacketId(u64);

/// Slot half of the id of a packet that holds no store slot yet.
const NO_SLOT: u32 = u32::MAX;

impl PacketId {
    /// Filler value for pre-sized storage (flat arenas, scratch slots)
    /// whose entries are guarded by a separate occupancy signal. Readers
    /// must never interpret a slot's id without checking that signal: the
    /// placeholder aliases a real id (the first packet, `raw() == 0`) on
    /// purpose, so any code path that trusts it unguarded fails loudly in
    /// conservation audits rather than silently dropping traffic.
    pub const PLACEHOLDER: PacketId = PacketId(0);

    fn new(seq: u32, slot: u32) -> PacketId {
        PacketId(u64::from(seq) << 32 | u64::from(slot))
    }

    /// Creation sequence of the packet: 0 for the first packet a store
    /// creates, 1 for the next, and so on.
    pub fn raw(self) -> u64 {
        self.0 >> 32
    }

    /// The store slot this packet occupies ([`NO_SLOT`] while pending).
    fn slot(self) -> usize {
        (self.0 & u64::from(u32::MAX)) as usize
    }
}

impl PartialEq for PacketId {
    fn eq(&self, other: &Self) -> bool {
        self.raw() == other.raw()
    }
}

impl Eq for PacketId {}

impl PartialOrd for PacketId {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PacketId {
    fn cmp(&self, other: &Self) -> Ordering {
        self.raw().cmp(&other.raw())
    }
}

impl Hash for PacketId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.raw().hash(state);
    }
}

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.raw())
    }
}

impl fmt::Debug for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("PacketId").field(&self.raw()).finish()
    }
}

/// How a packet ultimately traversed the network, for the Fig. 9 / Fig. 13
/// breakdowns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum DeliveryKind {
    /// Delivered entirely through credit-based regular pass.
    Regular,
    /// Upgraded by a prime router and delivered over a FastPass-Lane.
    FastPass,
}

/// An `Option<u64>` in one word: `u64::MAX`, which no cycle or
/// transaction id reaches, stands for `None`. A [`Packet`]'s optional
/// stamps use it so a store slot is 80 bytes rather than 112.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct OptU64(u64);

impl OptU64 {
    /// No value.
    pub const NONE: OptU64 = OptU64(u64::MAX);

    /// The value, if set.
    pub fn get(self) -> Option<u64> {
        (self.0 != u64::MAX).then_some(self.0)
    }

    /// Sets the value.
    ///
    /// # Panics
    ///
    /// Panics if `v` is `u64::MAX`, the word that means "none".
    pub fn set(&mut self, v: u64) {
        assert_ne!(v, u64::MAX, "u64::MAX is reserved for none");
        self.0 = v;
    }

    /// Whether a value is set.
    pub fn is_some(self) -> bool {
        self.0 != u64::MAX
    }

    /// Whether no value is set.
    pub fn is_none(self) -> bool {
        self.0 == u64::MAX
    }
}

impl From<Option<u64>> for OptU64 {
    fn from(v: Option<u64>) -> Self {
        let mut o = OptU64::NONE;
        if let Some(v) = v {
            o.set(v);
        }
        o
    }
}

/// Shows as the `Option<u64>` it stands for.
impl fmt::Debug for OptU64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.get().fmt(f)
    }
}

/// A packet in flight.
///
/// Timing fields are filled in by the simulator as the packet progresses;
/// they feed the latency statistics of Figs. 7, 9, 10 and 12.
#[derive(Debug, Clone)]
pub struct Packet {
    id: PacketId,
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Message class (selects VN in VN-based schemes, queue otherwise).
    pub class: MessageClass,
    /// Length in flits (the paper mixes 1-flit and 5-flit packets).
    pub len_flits: u8,
    /// Cycle the packet was created (enqueued at the source NI).
    pub gen_cycle: u64,
    /// Cycle the head flit entered the network, once it did.
    pub inject_cycle: OptU64,
    /// Cycle the tail flit was ejected at the destination, once it was.
    pub eject_cycle: OptU64,
    /// Hops traversed so far (regular + bufferless).
    pub hops: u32,
    /// Times this packet was deflected/misrouted (MinBD, SWAP, DRAIN).
    pub deflections: u32,
    /// Cycle the packet was upgraded to a FastPass-Packet, if ever.
    pub upgrade_cycle: OptU64,
    /// Cycles spent traversing bufferlessly on FastPass-Lanes (including
    /// returning paths). The remainder of its latency is "regular time".
    pub bufferless_cycles: u64,
    /// Times the packet arrived at a full ejection queue and was sent back
    /// to its prime router (§III-C4).
    pub rejections: u32,
    /// Times this packet was dropped at the source and regenerated from
    /// MSHR state (only ever injection-queue requests, §III-C4).
    pub drops: u32,
    /// Protocol transaction this packet belongs to, if any.
    pub txn: OptU64,
}

impl Packet {
    /// Creates a packet. `len_flits` must be in `1..=buffer depth` (5 in
    /// the paper's configuration); the store does not enforce an upper
    /// bound, the network configuration does.
    ///
    /// Returns a [`PacketSeed`]: ids are assigned by the store, so the
    /// constructor cannot return `Packet` itself.
    #[allow(clippy::new_ret_no_self)]
    pub fn new(
        src: NodeId,
        dst: NodeId,
        class: MessageClass,
        len_flits: u8,
        gen_cycle: u64,
    ) -> PacketSeed {
        PacketSeed {
            src,
            dst,
            class,
            len_flits,
            gen_cycle,
            txn: None,
        }
    }

    /// Unique id of this packet.
    pub fn id(&self) -> PacketId {
        self.id
    }

    /// Total latency from generation to final ejection, if delivered.
    pub fn latency(&self) -> Option<u64> {
        self.eject_cycle.get().map(|e| e - self.gen_cycle)
    }

    /// Network latency from injection to ejection, if delivered.
    pub fn network_latency(&self) -> Option<u64> {
        match (self.inject_cycle.get(), self.eject_cycle.get()) {
            (Some(i), Some(e)) => Some(e.saturating_sub(i)),
            _ => None,
        }
    }

    /// How the packet was finally delivered.
    pub fn delivery_kind(&self) -> DeliveryKind {
        if self.upgrade_cycle.is_some() {
            DeliveryKind::FastPass
        } else {
            DeliveryKind::Regular
        }
    }
}

/// All the information needed to create a packet, before the store assigns
/// its id. Produced by [`Packet::new`], consumed by [`PacketStore::insert`].
#[derive(Debug, Clone)]
pub struct PacketSeed {
    /// Source node.
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Message class.
    pub class: MessageClass,
    /// Length in flits.
    pub len_flits: u8,
    /// Creation cycle.
    pub gen_cycle: u64,
    /// Optional protocol transaction id.
    pub txn: Option<u64>,
}

impl PacketSeed {
    /// Attaches a protocol transaction id.
    pub fn with_txn(mut self, txn: u64) -> Self {
        self.txn = Some(txn);
        self
    }
}

/// A packet whose creation sequence is reserved but which holds no
/// store slot yet: everything an open-loop source queue needs to know
/// about it, in 16 bytes. Its source is the node whose queue holds it
/// and its class the queue; [`PacketStore::materialize`] turns it into a
/// [`Packet`] under the reserved sequence, so its id, and with it every
/// order and label derived from ids, is the one it would have had if it
/// had been stored at generation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PendingPacket {
    seq: u32,
    dst: NodeId,
    // Never zero (a packet has at least one flit): the niche keeps an
    // enum of this and a `PacketId` at 16 bytes too.
    len_flits: NonZeroU8,
    gen_cycle: u64,
}

impl PendingPacket {
    /// The id the packet will hold once materialized (equal to it, but
    /// naming no slot: look the packet up by the materialized id).
    pub fn id(&self) -> PacketId {
        PacketId::new(self.seq, NO_SLOT)
    }

    /// Destination node.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Length in flits.
    pub fn len_flits(&self) -> u8 {
        self.len_flits.get()
    }
}

/// Central owner of all packets in a simulation.
///
/// Buffers and queues throughout the simulator store only [`PacketId`]s;
/// the store maps them back to the full [`Packet`]. Delivered packets are
/// removed by the engine once their statistics are recorded.
///
/// The store is a slab: `remove` puts the packet's slot on a LIFO free
/// list and `insert` reuses the most recently freed slot, appending one
/// only when every slot is live. Memory is therefore proportional to
/// the peak number of live packets, not to the packets ever created.
/// Because a slot is reused, every lookup checks that the slot still
/// holds the packet its id names: [`get`](Self::get),
/// [`get_mut`](Self::get_mut) and [`remove`](Self::remove) panic on a
/// stale id, and [`contains`](Self::contains) answers false.
///
/// A packet may also be created in two steps: [`reserve`](Self::reserve)
/// takes its creation sequence and returns a slot-free
/// [`PendingPacket`], and [`materialize`](Self::materialize) later gives
/// it a slot under that sequence. [`created`](Self::created) counts
/// reserved sequences, [`live`](Self::live) only packets holding a slot.
#[derive(Debug, Default, Clone)]
pub struct PacketStore {
    slots: Vec<Option<Packet>>,
    /// Indices of the empty slots, most recently freed last.
    free: Vec<u32>,
    created: u64,
    live: usize,
}

impl PacketStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Inserts a new packet, assigning its id.
    ///
    /// # Panics
    ///
    /// Panics if the store has already created 2^32 packets, or would
    /// need more than 2^32 - 1 slots: neither fits its half of a
    /// [`PacketId`].
    pub fn insert(&mut self, seed: PacketSeed) -> PacketId {
        let seq = self.next_seq();
        self.place(seq, seed)
    }

    /// Reserves the next creation sequence for `seed` without giving it
    /// a slot: the returned record is the packet until
    /// [`materialize`](Self::materialize) stores it.
    ///
    /// # Panics
    ///
    /// Panics if the seed carries a protocol transaction (a pending
    /// record has no room for one: insert such packets directly), if its
    /// length is zero, or if the store has already created 2^32 packets.
    pub fn reserve(&mut self, seed: &PacketSeed) -> PendingPacket {
        assert!(seed.txn.is_none(), "a pending packet cannot carry a txn");
        let len_flits = NonZeroU8::new(seed.len_flits).expect("a packet has at least one flit");
        PendingPacket {
            seq: self.next_seq(),
            dst: seed.dst,
            len_flits,
            gen_cycle: seed.gen_cycle,
        }
    }

    /// Stores a reserved packet, generated at `src` in `class`, under its
    /// reserved sequence, and returns its id (equal to
    /// [`PendingPacket::id`]).
    ///
    /// # Panics
    ///
    /// Panics if the store would need more than 2^32 - 1 slots.
    pub fn materialize(
        &mut self,
        pending: PendingPacket,
        src: NodeId,
        class: MessageClass,
    ) -> PacketId {
        let seed = Packet::new(
            src,
            pending.dst,
            class,
            pending.len_flits(),
            pending.gen_cycle,
        );
        self.place(pending.seq, seed)
    }

    fn next_seq(&mut self) -> u32 {
        let seq = u32::try_from(self.created).expect("packet store: 2^32 packets created");
        self.created += 1;
        seq
    }

    fn place(&mut self, seq: u32, seed: PacketSeed) -> PacketId {
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len())
                    .ok()
                    .filter(|&s| s != NO_SLOT)
                    .expect("packet store: 2^32 slots live");
                self.slots.push(None);
                slot
            }
        };
        let id = PacketId::new(seq, slot);
        self.slots[slot as usize] = Some(Packet {
            id,
            src: seed.src,
            dst: seed.dst,
            class: seed.class,
            len_flits: seed.len_flits,
            gen_cycle: seed.gen_cycle,
            inject_cycle: OptU64::NONE,
            eject_cycle: OptU64::NONE,
            hops: 0,
            deflections: 0,
            upgrade_cycle: OptU64::NONE,
            bufferless_cycles: 0,
            rejections: 0,
            drops: 0,
            txn: seed.txn.into(),
        });
        self.live += 1;
        id
    }

    /// Shared access to a packet.
    ///
    /// # Panics
    ///
    /// Panics if the packet was already freed — buffers must never hold
    /// stale ids. This holds in release builds too, even once a later
    /// packet occupies the freed slot. A pending packet's id names no
    /// slot and panics the same way.
    pub fn get(&self, id: PacketId) -> &Packet {
        match self.slots.get(id.slot()) {
            Some(Some(p)) if p.id == id => p,
            _ => panic!("packet freed while still referenced"),
        }
    }

    /// Mutable access to a packet.
    ///
    /// # Panics
    ///
    /// Panics if the packet was already freed.
    pub fn get_mut(&mut self, id: PacketId) -> &mut Packet {
        match self.slots.get_mut(id.slot()) {
            Some(Some(p)) if p.id == id => p,
            _ => panic!("packet freed while still referenced"),
        }
    }

    /// Whether `id` still refers to a live packet.
    pub fn contains(&self, id: PacketId) -> bool {
        matches!(self.slots.get(id.slot()), Some(Some(p)) if p.id == id)
    }

    /// Number of packets ever created, pending ones included.
    pub fn created(&self) -> u64 {
        self.created
    }

    /// Number of live packets: materialized and not yet freed.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Number of slots allocated: the peak of [`live`](Self::live) so
    /// far, since a slot is appended only when every slot is live.
    pub fn slots(&self) -> usize {
        self.slots.len()
    }

    /// Removes and returns a packet (used after its stats are recorded).
    ///
    /// # Panics
    ///
    /// Panics if the packet was already freed.
    pub fn remove(&mut self, id: PacketId) -> Packet {
        assert!(self.contains(id), "packet freed twice");
        let p = self.slots[id.slot()].take().expect("checked live above");
        // The slot index came from a `u32` in `insert`.
        self.free.push(id.slot() as u32);
        self.live -= 1;
        p
    }

    /// Iterator over all live packets, in no particular order (slot
    /// order, which reuse decouples from creation order).
    pub fn iter(&self) -> impl Iterator<Item = &Packet> {
        self.slots.iter().flatten()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn request() -> PacketSeed {
        Packet::new(node(0), node(1), MessageClass::Request, 1, 0)
    }

    #[test]
    fn class_index_roundtrip() {
        for (i, c) in CLASSES.into_iter().enumerate() {
            assert_eq!(c.index(), i);
            assert_eq!(MessageClass::from_index(i), c);
        }
    }

    #[test]
    fn sink_classes_match_lemma3() {
        // Lemma 3: each transaction ends in a sink class. Response-like
        // classes are sinks; request-like classes are not.
        assert!(MessageClass::Response.is_sink());
        assert!(MessageClass::WritebackAck.is_sink());
        assert!(MessageClass::Unblock.is_sink());
        assert!(!MessageClass::Request.is_sink());
        assert!(!MessageClass::Forward.is_sink());
        assert!(!MessageClass::Writeback.is_sink());
    }

    #[test]
    fn store_insert_get_remove() {
        let mut store = PacketStore::new();
        let id = store.insert(Packet::new(node(0), node(5), MessageClass::Request, 1, 42));
        assert!(store.contains(id));
        assert_eq!(store.get(id).src, node(0));
        assert_eq!(store.get(id).gen_cycle, 42);
        assert_eq!(store.live(), 1);
        let p = store.remove(id);
        assert_eq!(p.id(), id);
        assert!(!store.contains(id));
        assert_eq!(store.live(), 0);
        assert_eq!(store.created(), 1);
    }

    #[test]
    fn ids_are_sequential_and_stable() {
        let mut store = PacketStore::new();
        let a = store.insert(Packet::new(node(0), node(1), MessageClass::Request, 1, 0));
        let b = store.insert(Packet::new(node(1), node(2), MessageClass::Response, 5, 0));
        assert!(a.raw() < b.raw());
        store.remove(a);
        // Removing a must not disturb b.
        assert_eq!(store.get(b).dst, node(2));
        // Creation sequence keeps counting across slot reuse.
        let c = store.insert(request());
        store.remove(b);
        let d = store.insert(request());
        let e = store.insert(request());
        let raws: Vec<u64> = [a, b, c, d, e].iter().map(|id| id.raw()).collect();
        assert_eq!(raws, [0, 1, 2, 3, 4]);
        assert!(a < b && b < c && c < d && d < e);
        assert_eq!(format!("{e} {e:?}"), "P4 PacketId(4)");
        assert_eq!(store.created(), 5);
        assert_eq!(store.slots(), 3);
    }

    /// Frees `a`, then inserts `b`, which takes `a`'s slot.
    fn reused_slot() -> (PacketStore, PacketId, PacketId) {
        let mut store = PacketStore::new();
        let a = store.insert(request());
        store.remove(a);
        let b = store.insert(Packet::new(node(2), node(3), MessageClass::Response, 5, 9));
        (store, a, b)
    }

    #[test]
    fn a_freed_slot_is_reused_by_a_later_id() {
        let (store, a, b) = reused_slot();
        assert_eq!(store.slots(), 1);
        assert_eq!(a.slot(), b.slot());
        assert!(b > a);
        assert!(b.raw() > a.raw());
        assert_ne!(a, b);
        assert!(!store.contains(a));
        assert!(store.contains(b));
        assert_eq!(store.get(b).id(), b);
        assert_eq!(store.get(b).gen_cycle, 9);
        assert_eq!(store.iter().map(Packet::id).collect::<Vec<_>>(), [b]);
    }

    #[test]
    #[should_panic(expected = "packet freed while still referenced")]
    fn get_rejects_an_id_whose_slot_was_reused() {
        let (store, a, _) = reused_slot();
        store.get(a);
    }

    #[test]
    #[should_panic(expected = "packet freed while still referenced")]
    fn get_mut_rejects_an_id_whose_slot_was_reused() {
        let (mut store, a, _) = reused_slot();
        store.get_mut(a).hops += 1;
    }

    #[test]
    #[should_panic(expected = "packet freed twice")]
    fn remove_rejects_an_id_whose_slot_was_reused() {
        let (mut store, a, _) = reused_slot();
        store.remove(a);
    }

    #[test]
    fn the_free_list_is_lifo() {
        let mut store = PacketStore::new();
        let ids: Vec<_> = (0..3).map(|_| store.insert(request())).collect();
        store.remove(ids[0]);
        store.remove(ids[2]);
        let (x, y, z) = (
            store.insert(request()),
            store.insert(request()),
            store.insert(request()),
        );
        assert_eq!((x.slot(), y.slot(), z.slot()), (2, 0, 3));
        assert_eq!(store.slots(), 4);
        assert_eq!(store.live(), 4);
    }

    #[test]
    fn a_pending_packet_materializes_with_its_reserved_seq() {
        let mut store = PacketStore::new();
        let pending = store.reserve(&Packet::new(
            node(4),
            node(7),
            MessageClass::Writeback,
            5,
            33,
        ));
        assert_eq!(std::mem::size_of::<PendingPacket>(), 16);
        assert_eq!((store.created(), store.live(), store.slots()), (1, 0, 0));
        assert!(!store.contains(pending.id()));
        let id = store.materialize(pending, node(4), MessageClass::Writeback);
        assert_eq!(id, pending.id());
        assert_eq!(id.raw(), 0);
        let p = store.get(id);
        assert_eq!((p.id(), p.src, p.dst), (id, node(4), node(7)));
        assert_eq!(
            (p.class, p.len_flits, p.gen_cycle),
            (MessageClass::Writeback, 5, 33)
        );
        assert_eq!((p.txn.get(), p.inject_cycle.get(), p.hops), (None, None, 0));
        assert_eq!((store.created(), store.live(), store.slots()), (1, 1, 1));
    }

    #[test]
    fn seq_order_survives_late_materialization() {
        let mut store = PacketStore::new();
        let early = store.reserve(&request());
        let middle = store.insert(request());
        let late = store.reserve(&request());
        // Materialized out of order, into slots in the same out-of-order
        // sequence, yet ids compare by creation.
        let late_id = store.materialize(late, node(0), MessageClass::Request);
        let early_id = store.materialize(early, node(0), MessageClass::Request);
        assert_eq!([early_id, middle, late_id].map(PacketId::raw), [0, 1, 2]);
        assert!(early_id < middle && middle < late_id);
        assert_eq!(format!("{early_id} {late_id:?}"), "P0 PacketId(2)");
        assert_eq!(store.created(), 3);
    }

    #[test]
    fn a_pending_id_equals_and_hashes_like_the_materialized_one() {
        use std::collections::hash_map::DefaultHasher;
        let hash = |id: PacketId| {
            let mut h = DefaultHasher::new();
            id.hash(&mut h);
            h.finish()
        };
        let mut store = PacketStore::new();
        store.insert(request());
        let pending = store.reserve(&request());
        let id = store.materialize(pending, node(0), MessageClass::Request);
        assert_eq!(pending.id(), id);
        assert_eq!(pending.id().cmp(&id), Ordering::Equal);
        assert_eq!(hash(pending.id()), hash(id));
        let map = std::collections::BTreeMap::from([(pending.id(), "job")]);
        assert_eq!(map.get(&id), Some(&"job"));
    }

    #[test]
    #[should_panic(expected = "packet freed while still referenced")]
    fn a_pending_id_names_no_slot() {
        let mut store = PacketStore::new();
        let pending = store.reserve(&request());
        store.get(pending.id());
    }

    #[test]
    #[should_panic(expected = "cannot carry a txn")]
    fn a_transaction_cannot_be_pending() {
        PacketStore::new().reserve(&request().with_txn(3));
    }

    #[test]
    fn a_store_slot_is_80_bytes() {
        assert_eq!(std::mem::size_of::<Option<Packet>>(), 80);
    }

    #[test]
    fn opt_u64_reads_as_the_option_it_stands_for() {
        let mut o = OptU64::NONE;
        assert_eq!(
            (o.get(), o.is_none(), format!("{o:?}")),
            (None, true, "None".into())
        );
        o.set(0);
        assert_eq!(
            (o.get(), o.is_some(), format!("{o:?}")),
            (Some(0), true, "Some(0)".into())
        );
        o.set(u64::MAX - 1);
        assert_eq!(o.get(), Some(u64::MAX - 1));
        assert_eq!(OptU64::from(Some(7)).get(), Some(7));
        assert_eq!(OptU64::from(None), OptU64::NONE);
    }

    #[test]
    #[should_panic(expected = "reserved for none")]
    fn opt_u64_refuses_its_none_word() {
        let mut o = OptU64::NONE;
        o.set(u64::MAX);
    }

    #[test]
    fn latency_accounting() {
        let mut store = PacketStore::new();
        let id = store.insert(Packet::new(node(0), node(3), MessageClass::Request, 1, 100));
        assert_eq!(store.get(id).latency(), None);
        {
            let p = store.get_mut(id);
            p.inject_cycle.set(110);
            p.eject_cycle.set(150);
        }
        assert_eq!(store.get(id).latency(), Some(50));
        assert_eq!(store.get(id).network_latency(), Some(40));
        assert_eq!(store.get(id).delivery_kind(), DeliveryKind::Regular);
    }

    #[test]
    fn upgraded_packet_reports_fastpass_delivery() {
        let mut store = PacketStore::new();
        let id = store.insert(Packet::new(node(0), node(3), MessageClass::Request, 1, 0));
        store.get_mut(id).upgrade_cycle.set(7);
        assert_eq!(store.get(id).delivery_kind(), DeliveryKind::FastPass);
    }

    #[test]
    #[should_panic(expected = "freed")]
    fn double_free_panics() {
        let mut store = PacketStore::new();
        let id = store.insert(Packet::new(node(0), node(1), MessageClass::Request, 1, 0));
        store.remove(id);
        store.remove(id);
    }
}
