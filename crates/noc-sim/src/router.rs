//! Per-router state: arbitration pointers and the ejection lock.
//!
//! VC buffer contents live in the network-wide flat
//! [`VcArena`](crate::arena::VcArena), not here — and so do the switch
//! *requests* and the `(input port, vc)` numbering of requesters, both
//! derived from the buffers. What remains per router is the control
//! state that is genuinely router-local, held inline (no heap behind a
//! router: the switch stage touches it once per grant).

use crate::arbiter::RoundRobin;
use noc_core::packet::NUM_CLASSES;
use noc_core::topology::NUM_PORTS;

/// State of one router.
///
/// The paper's router (Fig. 6) has five input ports (N/S/E/W + injection)
/// and five output ports (N/S/E/W + ejection), each input port carrying
/// the configured VCs. Switch allocation is per-output-port round-robin
/// over `(input port, VC)` requesters, numbered `port * vcs_per_port + vc`.
#[derive(Debug, Clone)]
pub struct RouterState {
    /// Per-output-port switch-allocation arbiters over
    /// `NUM_PORTS × vcs_per_port` requesters (at most 64: one request
    /// word per output port).
    pub sa_rr: [RoundRobin; NUM_PORTS],
    /// Round-robin over classes for starting NI injection transfers.
    pub inj_class_rr: RoundRobin,
    /// While a packet is being ejected, the `(input port, vc)` it streams
    /// from. The ejection port is held until the tail flit leaves
    /// (FastPass flights may stall, but never steal, the stream — Qn3).
    pub eject_lock: Option<(usize, usize)>,
}

impl RouterState {
    /// Creates a router whose input ports each have `vcs_per_port` VCs.
    pub fn new(vcs_per_port: usize) -> Self {
        RouterState {
            sa_rr: std::array::from_fn(|_| RoundRobin::new(NUM_PORTS * vcs_per_port)),
            inj_class_rr: RoundRobin::new(NUM_CLASSES),
            eject_lock: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_shapes() {
        let r = RouterState::new(12);
        assert!(r.sa_rr.iter().all(|rr| rr.len() == NUM_PORTS * 12));
        assert_eq!(r.inj_class_rr.len(), NUM_CLASSES);
        assert!(r.eject_lock.is_none());
    }
}
