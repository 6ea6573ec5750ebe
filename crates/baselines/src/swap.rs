//! SWAP \[26\]: Synchronized Weaving of Adjacent Packets.
//!
//! SWAP avoids detection entirely: on a fixed duty cycle (Table II: 1K
//! cycles), a long-blocked packet *swaps places* with the packet
//! occupying the downstream buffer it waits on. The blocked packet makes
//! forward progress; the displaced packet is misrouted one hop backward.
//! Periodic forced progress breaks any network-level deadlock without
//! probes, at the cost of misrouting (Table I).

use noc_core::topology::{NodeId, Port, NUM_PORTS};
use noc_sim::network::NetworkCore;
use noc_sim::regular::{advance, AdvanceCtx};
use noc_sim::routing::{DesiredPorts, FullyAdaptive, RouteReq};
use noc_sim::scheme::Scheme;

/// Tunables for [`Swap`].
#[derive(Debug, Clone, Copy)]
pub struct SwapConfig {
    /// Cycles between swap sweeps (Table II: 1000).
    pub duty: u64,
    /// Minimum blocked time before a packet is eligible to force a swap.
    pub threshold: u64,
}

impl Default for SwapConfig {
    fn default() -> Self {
        SwapConfig {
            duty: 1_000,
            threshold: 200,
        }
    }
}

/// The SWAP baseline (implements [`Scheme`]).
#[derive(Debug, Clone)]
pub struct Swap {
    cfg: SwapConfig,
    routing: FullyAdaptive,
    /// Swaps performed (diagnostics).
    pub swaps: u64,
}

impl Swap {
    /// Creates the scheme.
    pub fn new(seed: u64, cfg: SwapConfig) -> Self {
        Swap {
            cfg,
            routing: FullyAdaptive::new(seed ^ 0x53A9),
            swaps: 0,
        }
    }

    /// Performs at most one swap per router this sweep.
    fn sweep(&mut self, core: &mut NetworkCore) {
        let now = core.cycle();
        let vcs = core.cfg().vcs_per_port();
        let nodes: Vec<NodeId> = core.nodes_rotating().collect();
        for node in nodes {
            'this_router: for p in 0..NUM_PORTS {
                for vc in 0..vcs {
                    let Some(occ) = core.input(node, p).occupant(vc) else {
                        continue;
                    };
                    if !occ.quiescent()
                        || occ.route.is_some()
                        || occ.out_vc.is_some()
                        || occ.blocked_for(now) < self.cfg.threshold
                    {
                        continue;
                    }
                    let req = RouteReq::new(core, node, Port::from_index(p), vc, occ.pkt);
                    for d in self.routing.desired_ports(core, &req).iter() {
                        let Some(nbr) = core.mesh().neighbor(node, d) else {
                            continue;
                        };
                        let nbr_in = Port::Dir(d.opposite()).index();
                        let range = core.cfg().vc_range_for_class(req.class.index());
                        for nvc in range {
                            let Some(victim) = core.input(nbr, nbr_in).occupant(nvc) else {
                                continue;
                            };
                            if !victim.quiescent() || victim.out_vc.is_some() {
                                continue;
                            }
                            // Swap: the blocked packet advances through
                            // its desired output; the victim is misrouted
                            // one hop backward into the vacated slot.
                            let fwd = core.take_vc_packet(node, Port::from_index(p), vc);
                            let back = core.take_vc_packet(nbr, Port::from_index(nbr_in), nvc);
                            core.put_vc_packet(nbr, Port::from_index(nbr_in), nvc, fwd);
                            core.put_vc_packet(node, Port::from_index(p), vc, back);
                            {
                                let f = core.store.get_mut(fwd);
                                f.hops += 1;
                            }
                            {
                                let b = core.store.get_mut(back);
                                b.hops += 1;
                                b.deflections += 1;
                            }
                            self.swaps += 1;
                            continue 'this_router;
                        }
                    }
                }
            }
        }
    }
}

impl Scheme for Swap {
    fn required_vns(&self) -> usize {
        6
    }

    fn step(&mut self, core: &mut NetworkCore) {
        let cycle = core.cycle();
        if cycle > 0 && cycle.is_multiple_of(self.cfg.duty) {
            self.sweep(core);
        }
        advance(core, &mut self.routing, &AdvanceCtx::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::config::SimConfig;
    use noc_sim::Simulation;
    use traffic::{SyntheticPattern, SyntheticWorkload};

    #[test]
    fn survives_saturation() {
        let cfg = SimConfig::builder()
            .mesh(4, 4)
            .vns(6)
            .vcs_per_vn(1)
            .seed(3)
            .build();
        let mut sim = Simulation::new(
            cfg,
            Box::new(Swap::new(1, SwapConfig::default())),
            Box::new(SyntheticWorkload::new(SyntheticPattern::Transpose, 0.7, 2)),
        );
        sim.run(40_000);
        assert!(
            sim.starvation_cycles() < 4_000,
            "SWAP wedged: {}",
            sim.starvation_cycles()
        );
        assert!(sim.total_consumed() > 500);
    }

    #[test]
    fn swaps_count_as_misroutes() {
        let cfg = SimConfig::builder()
            .mesh(4, 4)
            .vns(6)
            .vcs_per_vn(1)
            .seed(3)
            .build();
        let mut core = NetworkCore::new(cfg);
        let mut swap = Swap::new(
            1,
            SwapConfig {
                duty: 100,
                threshold: 50,
            },
        );
        let mut wl = SyntheticWorkload::new(SyntheticPattern::Transpose, 0.8, 2);
        use noc_sim::Workload;
        for _ in 0..20_000 {
            wl.tick(&mut core);
            swap.step(&mut core);
            let now = core.cycle();
            for n in core.mesh().nodes() {
                for class in noc_core::packet::CLASSES {
                    if core.ni(n).ej_consumable(class, now).is_some() {
                        let e = core.ni_mut(n).pop_ej(class).unwrap();
                        let p = core.store.remove(e.pkt);
                        core.stats.record_delivered(&p);
                    }
                }
            }
            core.advance_cycle();
        }
        assert!(
            swap.swaps > 0,
            "saturated adaptive traffic must trigger swaps"
        );
        // Deflections recorded at delivery never exceed swaps performed
        // (undelivered packets still hold theirs).
        assert!(core.stats.deflections <= swap.swaps);
    }

    #[test]
    fn no_swaps_at_low_load() {
        let cfg = SimConfig::builder()
            .mesh(4, 4)
            .vns(6)
            .vcs_per_vn(2)
            .seed(3)
            .build();
        let mut sim = Simulation::new(
            cfg,
            Box::new(Swap::new(1, SwapConfig::default())),
            Box::new(SyntheticWorkload::new(SyntheticPattern::Uniform, 0.02, 2)),
        );
        let stats = sim.run_windows(2_000, 4_000);
        assert_eq!(stats.deflections, 0);
    }
}
