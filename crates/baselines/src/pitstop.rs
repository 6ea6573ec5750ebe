//! Pitstop \[13\]: a virtual-network-free NoC via NI pit lanes.
//!
//! Pitstop removes both deadlock types with **0 VNs** by letting blocked
//! packets pull into a *pit lane* at the local network interface and be
//! transported NI-to-NI to their destination, bypassing the clogged
//! router buffers (no misrouting, unlike DRAIN). To bound the NI storage
//! and wiring, only **one message class at a time** may use the pit
//! lanes (rotating on a TDM period), and the bypass transports one
//! packet at a time — the serialization that makes Pitstop's resolution
//! latency grow with network size (Table I footnote, §V-B), which
//! FastPass's concurrent per-partition lanes avoid.

use noc_core::packet::{MessageClass, PacketId, CLASSES};
use noc_core::topology::{NodeId, Port, NUM_PORTS};
use noc_sim::network::NetworkCore;
use noc_sim::ni::EjectEntry;
use noc_sim::regular::{advance, AdvanceCtx};
use noc_sim::routing::FullyAdaptive;
use noc_sim::scheme::{Scheme, StateExport};
use std::collections::VecDeque;

/// Tunables for [`Pitstop`].
#[derive(Debug, Clone, Copy)]
pub struct PitstopConfig {
    /// Cycles each message class owns the pit lanes.
    pub class_period: u64,
    /// Pit capacity per node, in packets.
    pub pit_capacity: usize,
    /// Blocked time before a packet may pull into the pit.
    pub threshold: u64,
}

impl Default for PitstopConfig {
    fn default() -> Self {
        PitstopConfig {
            class_period: 256,
            pit_capacity: 4,
            threshold: 128,
        }
    }
}

/// A packet in the NI-to-NI bypass.
#[derive(Debug, Clone, Copy)]
struct BypassTransit {
    pkt: PacketId,
    dst: NodeId,
    arrival: u64,
}

/// The Pitstop baseline (implements [`Scheme`]).
#[derive(Debug, Clone)]
pub struct Pitstop {
    cfg: PitstopConfig,
    routing: FullyAdaptive,
    pits: Vec<VecDeque<PacketId>>,
    /// Packets across all pits: zero (the whole of a quiet run) lets
    /// `local_eject` and `dispatch` return without looking at any pit.
    pitted: usize,
    /// `absorb`'s per-cycle worklist (kept for its capacity).
    worklist: Vec<NodeId>,
    /// The single serialized bypass channel (one packet at a time).
    transit: Option<BypassTransit>,
    /// Round-robin dispatch pointer over nodes.
    dispatch_rr: usize,
    /// Packets absorbed into pits (diagnostics).
    pub absorbed: u64,
    /// Packets delivered over the bypass (diagnostics).
    pub bypassed: u64,
}

impl Pitstop {
    /// Creates the scheme for `nodes` nodes.
    pub fn new(nodes: usize, seed: u64, cfg: PitstopConfig) -> Self {
        Pitstop {
            cfg,
            routing: FullyAdaptive::new(seed ^ 0x9175_0907),
            pits: vec![VecDeque::new(); nodes],
            pitted: 0,
            worklist: Vec::new(),
            transit: None,
            dispatch_rr: 0,
            absorbed: 0,
            bypassed: 0,
        }
    }

    /// The message class currently owning the pit lanes.
    pub fn active_class(&self, cycle: u64) -> MessageClass {
        CLASSES[((cycle / self.cfg.class_period) % CLASSES.len() as u64) as usize]
    }

    /// Pit occupancy that counts against the absorption capacity:
    /// packets still needing transport. Packets that already landed at
    /// their destination sit in delivered-side NI storage and do not
    /// block further absorption.
    fn pit_load(&self, core: &NetworkCore, node: NodeId) -> usize {
        self.pits[node.index()]
            .iter()
            .filter(|&&pkt| core.store.get(pkt).dst != node)
            .count()
    }

    /// Absorb: one long-blocked packet of the active class per router
    /// per cycle may pull into the local pit — from the head of the
    /// class's injection queue (the NI-side pit entrance) or from a
    /// router input buffer.
    fn absorb(&mut self, core: &mut NetworkCore) {
        let now = core.cycle();
        let active = self.active_class(now);
        // Rotating order over the core's active nodes only: a candidate
        // for either pit entrance sits in an occupied VC or an injection
        // queue, and both make its node active. Absorbing at one node
        // changes no other node's buffers or NI, so the snapshot equals
        // asking each node as the loop reaches it.
        let mut nodes = std::mem::take(&mut self.worklist);
        nodes.clear();
        nodes.extend(core.active_nodes());
        for &node in &nodes {
            // Idle node: no occupied VC and no injection head of the
            // active class (its NI work is another class's), so there is
            // no candidate, whatever the pit holds.
            let inj_head = core.ni(node).inj_head(active);
            if core.occupied_vcs(node) == 0 && inj_head.is_none() {
                continue;
            }
            if self.pit_load(core, node) >= self.cfg.pit_capacity {
                continue;
            }
            // NI-side entrance: a head packet stuck in the injection
            // queue of the active class joins the pit directly.
            if let Some(pkt) = inj_head {
                if core.store.get(pkt).gen_cycle + self.cfg.threshold <= now {
                    core.ni_mut(node).pop_inj(active);
                    if core.store.get(pkt).inject_cycle.is_none() {
                        core.store.get_mut(pkt).inject_cycle.set(now);
                    }
                    self.pits[node.index()].push_back(pkt);
                    self.pitted += 1;
                    self.absorbed += 1;
                    continue;
                }
            }
            // Router-side entrance: the first (port, VC) in scan order
            // holding a long-blocked, unrouted packet of the active class
            // (blocked time first: on a quiet mesh it rules out every
            // occupant from one word).
            let found = (0..NUM_PORTS).find_map(|p| {
                core.input(node, p)
                    .occupied()
                    .find(|(_, occ)| {
                        occ.blocked_for(now) >= self.cfg.threshold
                            && occ.quiescent()
                            && occ.route.is_none()
                            && occ.out_vc.is_none()
                            && core.store.get(occ.pkt).class == active
                    })
                    .map(|(vc, _)| (p, vc))
            });
            if let Some((p, vc)) = found {
                let pkt = core.take_vc_packet(node, Port::from_index(p), vc);
                self.pits[node.index()].push_back(pkt);
                self.pitted += 1;
                self.absorbed += 1;
            }
        }
        self.worklist = nodes;
    }

    /// Dispatch: when the bypass channel is idle, the next pit packet of
    /// the active class (round-robin over nodes) enters NI-to-NI transit;
    /// transit time models hop-by-hop store-and-forward through the
    /// interface bypass (2 cycles/hop + serialization). Packets already
    /// at their destination's pit are handled by [`local_eject`] instead.
    ///
    /// [`local_eject`]: Self::local_eject
    fn dispatch(&mut self, core: &mut NetworkCore) {
        if self.transit.is_some() || self.pitted == 0 {
            return;
        }
        let now = core.cycle();
        let active = self.active_class(now);
        let n = self.pits.len();
        for k in 0..n {
            let i = (self.dispatch_rr + k) % n;
            let Some(pos) = self.pits[i].iter().position(|&pkt| {
                let p = core.store.get(pkt);
                p.class == active && p.dst != NodeId::new(i)
            }) else {
                continue;
            };
            let pkt = self.pits[i]
                .remove(pos)
                .expect("pit position came from a fresh position() scan");
            let p = core.store.get(pkt);
            let dst = p.dst;
            let len = p.len_flits as u64;
            let hops = core.mesh().hops(NodeId::new(i), dst) as u64;
            self.pitted -= 1;
            self.dispatch_rr = (i + 1) % n;
            self.transit = Some(BypassTransit {
                pkt,
                dst,
                arrival: now + 2 * hops + len,
            });
            core.store.get_mut(pkt).hops += hops as u32;
            return;
        }
    }

    /// Complete a transit whose packet has arrived: it lands in the
    /// destination's pit (NI storage; may transiently exceed the
    /// absorption capacity so the shared channel never blocks) and is
    /// ejected locally from there.
    fn land(&mut self, core: &mut NetworkCore) {
        let now = core.cycle();
        let Some(t) = self.transit else { return };
        if now < t.arrival {
            return;
        }
        let _ = core;
        self.pits[t.dst.index()].push_back(t.pkt);
        self.pitted += 1;
        self.bypassed += 1;
        self.transit = None;
    }

    /// Pit packets that are at their destination move into the local
    /// ejection queue as space appears (one per node per cycle).
    fn local_eject(&mut self, core: &mut NetworkCore) {
        if self.pitted == 0 {
            return;
        }
        let now = core.cycle();
        for i in 0..self.pits.len() {
            let node = NodeId::new(i);
            let Some(pos) = self.pits[i].iter().position(|&pkt| {
                let p = core.store.get(pkt);
                p.dst == node && core.ni(node).ej_can_accept(p.class, pkt)
            }) else {
                continue;
            };
            let pkt = self.pits[i]
                .remove(pos)
                .expect("pit position came from a fresh position() scan");
            self.pitted -= 1;
            let class = core.store.get(pkt).class;
            core.ni_mut(node).ej_begin(class, pkt);
            let ready = now + core.cfg().ni_consume_cycles;
            core.store.get_mut(pkt).eject_cycle.set(now);
            core.ni_mut(node)
                .ej_commit(class, EjectEntry { pkt, ready });
        }
    }
}

impl Scheme for Pitstop {
    fn required_vns(&self) -> usize {
        0
    }

    fn step(&mut self, core: &mut NetworkCore) {
        self.land(core);
        self.local_eject(core);
        self.absorb(core);
        self.dispatch(core);
        advance(core, &mut self.routing, &AdvanceCtx::default());
    }

    fn overlay_packets(&self) -> usize {
        debug_assert_eq!(
            self.pitted,
            self.pits.iter().map(|p| p.len()).sum::<usize>(),
            "pitted counter out of sync with the pits"
        );
        self.pitted + usize::from(self.transit.is_some())
    }

    fn export_state(&self, core: &NetworkCore, out: &mut StateExport) {
        let now = core.cycle();
        // Class-rotation position: active class and time-to-handover are
        // periodic in `class_period × NUM_CLASSES`.
        out.word(now % (self.cfg.class_period * CLASSES.len() as u64));
        for pit in &self.pits {
            out.word(pit.len() as u64);
            for &p in pit {
                out.pkt(p);
            }
        }
        match self.transit {
            Some(t) => {
                out.word(1);
                out.pkt(t.pkt);
                out.word(t.dst.index() as u64);
                out.word(t.arrival.saturating_sub(now));
            }
            None => out.word(0),
        }
        out.word(self.dispatch_rr as u64);
        // `absorbed`/`bypassed` are diagnostics; the adaptive routing RNG
        // is a documented abstraction (merges schedules, never invents).
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::config::SimConfig;
    use noc_sim::Simulation;
    use traffic::{SyntheticPattern, SyntheticWorkload};

    fn cfg() -> SimConfig {
        SimConfig::builder()
            .mesh(4, 4)
            .vns(0)
            .vcs_per_vn(2)
            .seed(6)
            .build()
    }

    #[test]
    fn class_rotation_covers_all() {
        let p = Pitstop::new(16, 1, PitstopConfig::default());
        let period = PitstopConfig::default().class_period;
        let mut seen = std::collections::HashSet::new();
        for k in 0..6u64 {
            seen.insert(p.active_class(k * period));
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn survives_saturation_with_zero_vns() {
        let sim_cfg = SimConfig::builder()
            .mesh(4, 4)
            .vns(0)
            .vcs_per_vn(1)
            .seed(6)
            .build();
        let n = sim_cfg.mesh.num_nodes();
        let mut sim = Simulation::new(
            sim_cfg,
            Box::new(Pitstop::new(n, 1, PitstopConfig::default())),
            Box::new(SyntheticWorkload::new(SyntheticPattern::Transpose, 0.7, 2)),
        );
        sim.run(40_000);
        assert!(
            sim.starvation_cycles() < 4_000,
            "Pitstop wedged: {}",
            sim.starvation_cycles()
        );
        assert!(sim.total_consumed() > 500);
    }

    #[test]
    fn pits_absorb_and_bypass_conservatively() {
        let sim_cfg = cfg();
        let n = sim_cfg.mesh.num_nodes();
        let mut core = NetworkCore::new(sim_cfg);
        let mut pit = Pitstop::new(
            n,
            1,
            PitstopConfig {
                class_period: 64,
                pit_capacity: 2,
                threshold: 16,
            },
        );
        let mut wl = SyntheticWorkload::new(SyntheticPattern::Transpose, 0.6, 2);
        use noc_sim::Workload;
        for _ in 0..20_000 {
            wl.tick(&mut core);
            pit.step(&mut core);
            let now = core.cycle();
            for node in core.mesh().nodes() {
                for class in CLASSES {
                    if core.ni(node).ej_consumable(class, now).is_some() {
                        let e = core.ni_mut(node).pop_ej(class).unwrap();
                        core.store.remove(e.pkt);
                    }
                }
            }
            core.advance_cycle();
        }
        assert!(pit.absorbed > 0, "saturation must trigger pit stops");
        assert!(pit.bypassed > 0, "the bypass must deliver");
        assert!(pit.bypassed <= pit.absorbed);
        assert_eq!(
            pit.absorbed - pit.bypassed,
            pit.overlay_packets() as u64,
            "pit accounting balances"
        );
    }

    #[test]
    fn quiet_network_never_pits() {
        let sim_cfg = cfg();
        let n = sim_cfg.mesh.num_nodes();
        let mut sim = Simulation::new(
            sim_cfg,
            Box::new(Pitstop::new(n, 1, PitstopConfig::default())),
            Box::new(SyntheticWorkload::new(SyntheticPattern::Uniform, 0.02, 2)),
        );
        sim.run(5_000);
        assert!(sim.total_consumed() > 0);
    }
}
