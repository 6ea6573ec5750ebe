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
use std::fmt;

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
/// removed. [`raw`](Self::raw), `Display` and `Debug` show `seq` only,
/// and since `seq` is unique and sits in the high bits, `Ord`, `Eq` and
/// `Hash` on the whole word order and identify ids exactly as `seq`
/// does. The slot half is the store's business.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PacketId(u64);

impl PacketId {
    /// Filler value for pre-sized storage (flat arenas, scratch slots)
    /// whose entries are guarded by a separate occupancy signal. Readers
    /// must never interpret a slot's id without checking that signal: the
    /// placeholder aliases a real id (the first packet, `raw() == 0`) on
    /// purpose, so any code path that trusts it unguarded fails loudly in
    /// conservation audits rather than silently dropping traffic.
    pub const PLACEHOLDER: PacketId = PacketId(0);

    /// Creation sequence of the packet: 0 for the first packet a store
    /// creates, 1 for the next, and so on.
    pub fn raw(self) -> u64 {
        self.0 >> 32
    }

    /// The store slot this packet occupies.
    fn slot(self) -> usize {
        (self.0 & u64::from(u32::MAX)) as usize
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
    pub inject_cycle: Option<u64>,
    /// Cycle the tail flit was ejected at the destination, once it was.
    pub eject_cycle: Option<u64>,
    /// Hops traversed so far (regular + bufferless).
    pub hops: u32,
    /// Times this packet was deflected/misrouted (MinBD, SWAP, DRAIN).
    pub deflections: u32,
    /// Cycle the packet was upgraded to a FastPass-Packet, if ever.
    pub upgrade_cycle: Option<u64>,
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
    pub txn: Option<u64>,
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
        self.eject_cycle.map(|e| e - self.gen_cycle)
    }

    /// Network latency from injection to ejection, if delivered.
    pub fn network_latency(&self) -> Option<u64> {
        match (self.inject_cycle, self.eject_cycle) {
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
#[derive(Debug, Default)]
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
    /// need more than 2^32 slots: neither fits its half of a [`PacketId`].
    pub fn insert(&mut self, seed: PacketSeed) -> PacketId {
        let seq = u32::try_from(self.created).expect("packet store: 2^32 packets created");
        let slot = match self.free.pop() {
            Some(slot) => slot,
            None => {
                let slot = u32::try_from(self.slots.len()).expect("packet store: 2^32 slots live");
                self.slots.push(None);
                slot
            }
        };
        let id = PacketId(u64::from(seq) << 32 | u64::from(slot));
        self.slots[slot as usize] = Some(Packet {
            id,
            src: seed.src,
            dst: seed.dst,
            class: seed.class,
            len_flits: seed.len_flits,
            gen_cycle: seed.gen_cycle,
            inject_cycle: None,
            eject_cycle: None,
            hops: 0,
            deflections: 0,
            upgrade_cycle: None,
            bufferless_cycles: 0,
            rejections: 0,
            drops: 0,
            txn: seed.txn,
        });
        self.created += 1;
        self.live += 1;
        id
    }

    /// Shared access to a packet.
    ///
    /// # Panics
    ///
    /// Panics if the packet was already freed — buffers must never hold
    /// stale ids. This holds in release builds too, even once a later
    /// packet occupies the freed slot.
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

    /// Number of packets ever created.
    pub fn created(&self) -> u64 {
        self.created
    }

    /// Number of live (not yet freed) packets.
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
    fn latency_accounting() {
        let mut store = PacketStore::new();
        let id = store.insert(Packet::new(node(0), node(3), MessageClass::Request, 1, 100));
        assert_eq!(store.get(id).latency(), None);
        {
            let p = store.get_mut(id);
            p.inject_cycle = Some(110);
            p.eject_cycle = Some(150);
        }
        assert_eq!(store.get(id).latency(), Some(50));
        assert_eq!(store.get(id).network_latency(), Some(40));
        assert_eq!(store.get(id).delivery_kind(), DeliveryKind::Regular);
    }

    #[test]
    fn upgraded_packet_reports_fastpass_delivery() {
        let mut store = PacketStore::new();
        let id = store.insert(Packet::new(node(0), node(3), MessageClass::Request, 1, 0));
        store.get_mut(id).upgrade_cycle = Some(7);
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
