//! The trace event vocabulary.
//!
//! Every observable micro-architectural happening is one [`TraceEvent`]:
//! a small `Copy` value designed to be recorded into a pre-allocated
//! ring buffer with zero heap traffic. Events carry packet ids (never
//! packet bodies) so a record is a fixed handful of words; the exporters
//! join against the packet store only at report time.

use noc_core::packet::PacketId;
use noc_core::topology::{LinkId, NodeId};
use std::fmt;

/// Why a packet made no progress this cycle (the stall-with-reason
/// breakdown of the per-router metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// The flit's output link is suppressed by a FastPass lane this
    /// cycle (the lookahead signal of §III-C5).
    LinkSuppressed,
    /// Requested switch allocation and lost the round-robin grant.
    SaLost,
    /// The destination ejection queue has no free slot.
    EjBackpressure,
    /// The only free ejection slot is reserved for a rejected
    /// FastPass-Packet (§III-C4), so this packet may not take it.
    EjReserved,
    /// The ejection port is preempted by an overlay (FastPass) packet.
    EjPreempted,
    /// A packet waits at the NI with no free VC in its class's range.
    NoFreeVc,
    /// The routing policy returned no admissible output this cycle.
    RouteBlocked,
}

impl StallCause {
    /// Number of distinct causes (sizes the per-router counter array).
    pub const COUNT: usize = 7;

    /// Every cause, in counter-array order.
    pub const ALL: [StallCause; StallCause::COUNT] = [
        StallCause::LinkSuppressed,
        StallCause::SaLost,
        StallCause::EjBackpressure,
        StallCause::EjReserved,
        StallCause::EjPreempted,
        StallCause::NoFreeVc,
        StallCause::RouteBlocked,
    ];

    /// Every cause's label, in counter-array order: the `stall_causes`
    /// header of the JSON exports.
    pub const LABELS: [&'static str; StallCause::COUNT] = [
        "link_suppressed",
        "sa_lost",
        "ej_backpressure",
        "ej_reserved",
        "ej_preempted",
        "no_free_vc",
        "route_blocked",
    ];

    /// Counter-array index of this cause: its declaration order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable snake_case label (used in JSON exports and reports).
    pub fn label(self) -> &'static str {
        Self::LABELS[self.index()]
    }
}

impl fmt::Display for StallCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// How a FastPass flight left the bypass overlay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BypassOutcome {
    /// Committed into the destination ejection queue.
    Ejected,
    /// Bounced off a full ejection queue; heading home (§III-C4).
    Rejected,
    /// Arrived back at its prime and was parked in the request
    /// injection queue.
    Returned,
}

impl BypassOutcome {
    /// Stable snake_case label.
    pub fn label(self) -> &'static str {
        match self {
            BypassOutcome::Ejected => "ejected",
            BypassOutcome::Rejected => "rejected",
            BypassOutcome::Returned => "returned",
        }
    }
}

/// One micro-architectural event. All variants are `Copy` and carry at
/// most a packet id plus a couple of small indices — recording one is a
/// fixed-size store into a pre-allocated ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet's first flit entered the router's local input port.
    Inject {
        /// The injected packet.
        pkt: PacketId,
        /// Local-input VC it was installed into.
        vc: u8,
    },
    /// Route computed and a downstream VC allocated.
    VcAlloc {
        /// The allocated packet.
        pkt: PacketId,
        /// Output port index ([`noc_core::topology::Port::index`]).
        out_port: u8,
        /// Allocated downstream VC (0 for the local port).
        out_vc: u8,
    },
    /// Switch allocation granted (recorded for the head flit of each
    /// switch transfer).
    SaGrant {
        /// The granted packet.
        pkt: PacketId,
        /// Output port index the crossbar connected.
        out_port: u8,
    },
    /// One flit crossed a directed link under the regular pipeline.
    LinkTraverse {
        /// The owning packet.
        pkt: PacketId,
        /// The directed link.
        link: LinkId,
    },
    /// A packet was upgraded to a FastPass-Packet and launched onto a
    /// bypass lane at its prime router.
    BypassEnter {
        /// The upgraded packet.
        pkt: PacketId,
        /// Flight destination.
        dst: NodeId,
    },
    /// One flit-cycle of a FastPass flight occupying a directed link
    /// (distinguishes bypass traversals from regular ones).
    BypassLink {
        /// The flying packet.
        pkt: PacketId,
        /// The occupied link.
        link: LinkId,
    },
    /// A FastPass flight left the overlay.
    BypassExit {
        /// The packet.
        pkt: PacketId,
        /// How it left.
        outcome: BypassOutcome,
    },
    /// Tail flit left the network into the ejection queue.
    Eject {
        /// The delivered packet.
        pkt: PacketId,
    },
    /// The NI consumer popped the packet (end of its lifetime).
    Consume {
        /// The consumed packet.
        pkt: PacketId,
    },
    /// The packet wanted to move and could not.
    Stall {
        /// The stalled packet.
        pkt: PacketId,
        /// Why.
        cause: StallCause,
    },
}

impl TraceEvent {
    /// The packet this event concerns.
    pub fn pkt(&self) -> PacketId {
        match *self {
            TraceEvent::Inject { pkt, .. }
            | TraceEvent::VcAlloc { pkt, .. }
            | TraceEvent::SaGrant { pkt, .. }
            | TraceEvent::LinkTraverse { pkt, .. }
            | TraceEvent::BypassEnter { pkt, .. }
            | TraceEvent::BypassLink { pkt, .. }
            | TraceEvent::BypassExit { pkt, .. }
            | TraceEvent::Eject { pkt }
            | TraceEvent::Consume { pkt }
            | TraceEvent::Stall { pkt, .. } => pkt,
        }
    }

    /// Stable snake_case event name (Chrome trace `name` field).
    pub fn name(&self) -> &'static str {
        match self {
            TraceEvent::Inject { .. } => "inject",
            TraceEvent::VcAlloc { .. } => "vc_alloc",
            TraceEvent::SaGrant { .. } => "sa_grant",
            TraceEvent::LinkTraverse { .. } => "link",
            TraceEvent::BypassEnter { .. } => "bypass_enter",
            TraceEvent::BypassLink { .. } => "lane",
            TraceEvent::BypassExit { .. } => "bypass_exit",
            TraceEvent::Eject { .. } => "eject",
            TraceEvent::Consume { .. } => "consume",
            TraceEvent::Stall { .. } => "stall",
        }
    }

    /// Whether this event belongs to the FastPass bypass overlay (drawn
    /// on the lane track rather than the router track).
    pub fn is_bypass(&self) -> bool {
        matches!(
            self,
            TraceEvent::BypassEnter { .. }
                | TraceEvent::BypassLink { .. }
                | TraceEvent::BypassExit { .. }
        )
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            TraceEvent::Inject { vc, .. } => write!(f, "inject vc={vc}"),
            TraceEvent::VcAlloc {
                out_port, out_vc, ..
            } => write!(f, "vc_alloc out_port={out_port} out_vc={out_vc}"),
            TraceEvent::SaGrant { out_port, .. } => write!(f, "sa_grant out_port={out_port}"),
            TraceEvent::LinkTraverse { link, .. } => write!(f, "link {link}"),
            TraceEvent::BypassEnter { dst, .. } => write!(f, "bypass_enter dst={dst}"),
            TraceEvent::BypassLink { link, .. } => write!(f, "lane {link}"),
            TraceEvent::BypassExit { outcome, .. } => {
                write!(f, "bypass_exit {}", outcome.label())
            }
            TraceEvent::Eject { .. } => write!(f, "eject"),
            TraceEvent::Consume { .. } => write!(f, "consume"),
            TraceEvent::Stall { cause, .. } => write!(f, "stall {cause}"),
        }
    }
}

/// A recorded event: what happened, where, and when. `seq` is a global
/// monotonically increasing sequence number assigned at record time, so
/// merging per-node rings reconstructs the exact recording order even
/// within one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Cycle the event occurred in.
    pub cycle: u64,
    /// Global record order (total order across all nodes).
    pub seq: u64,
    /// Node (router/NI) the event occurred at.
    pub node: NodeId,
    /// The event.
    pub event: TraceEvent,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stall_cause_indices_are_a_bijection() {
        for (i, c) in StallCause::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        let labels: std::collections::HashSet<_> =
            StallCause::ALL.iter().map(|c| c.label()).collect();
        assert_eq!(labels.len(), StallCause::COUNT);
    }

    #[test]
    fn event_accessors() {
        let mut store = noc_core::packet::PacketStore::new();
        let pkt = store.insert(noc_core::packet::Packet::new(
            NodeId::new(0),
            NodeId::new(1),
            noc_core::packet::MessageClass::Request,
            1,
            0,
        ));
        let ev = TraceEvent::Stall {
            pkt,
            cause: StallCause::SaLost,
        };
        assert_eq!(ev.pkt(), pkt);
        assert_eq!(ev.name(), "stall");
        assert!(!ev.is_bypass());
        let mesh = noc_core::topology::Mesh::new(2, 2);
        let link = mesh
            .link(NodeId::new(0), noc_core::topology::Direction::East)
            .expect("interior link exists");
        let lane = TraceEvent::BypassLink { pkt, link };
        assert!(lane.is_bypass());
        assert_eq!(lane.name(), "lane");
    }
}
