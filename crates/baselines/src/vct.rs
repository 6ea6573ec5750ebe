//! Plain credit-based virtual cut-through with a fixed routing policy.
//!
//! Not a scheme from the paper's comparison table, but the substrate
//! sanity baseline: deterministic XY (or YX) routing is network-deadlock-
//! free by turn restriction, and protocol-level deadlock freedom comes
//! only from VNs. Used by integration tests to demonstrate the deadlocks
//! that FastPass/Pitstop resolve and the VN-based baselines avoid.

use noc_sim::network::NetworkCore;
use noc_sim::regular::{advance, AdvanceCtx};
use noc_sim::routing::{DorXy, DorYx, RoutingPolicy};
use noc_sim::scheme::Scheme;

/// Plain credit-based VCT (implements [`Scheme`]).
#[derive(Clone)]
pub struct CreditVct {
    policy: Box<dyn RoutingPolicy>,
    vns: usize,
}

impl std::fmt::Debug for CreditVct {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CreditVct")
            .field("policy", &self.policy.name())
            .field("vns", &self.vns)
            .finish()
    }
}

impl CreditVct {
    /// XY-routed VCT with `vns` virtual networks.
    pub fn xy(vns: usize) -> Self {
        CreditVct {
            policy: Box::new(DorXy),
            vns,
        }
    }

    /// YX-routed VCT with `vns` virtual networks.
    pub fn yx(vns: usize) -> Self {
        CreditVct {
            policy: Box::new(DorYx),
            vns,
        }
    }
}

impl Scheme for CreditVct {
    fn required_vns(&self) -> usize {
        self.vns
    }

    fn step(&mut self, core: &mut NetworkCore) {
        advance(core, self.policy.as_mut(), &AdvanceCtx::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::config::SimConfig;
    use noc_sim::Simulation;
    use traffic::{SyntheticPattern, SyntheticWorkload};

    #[test]
    fn xy_delivers_uniform_traffic() {
        let cfg = SimConfig::builder().mesh(4, 4).vns(6).vcs_per_vn(2).build();
        let mut sim = Simulation::new(
            cfg,
            Box::new(CreditVct::xy(6)),
            Box::new(SyntheticWorkload::new(SyntheticPattern::Uniform, 0.05, 1)),
        );
        let stats = sim.run_windows(1_000, 4_000);
        assert!(stats.delivered() > 100);
        assert!(sim.starvation_cycles() < 100);
    }

    #[test]
    fn yx_also_works_and_differs() {
        let cfg = SimConfig::builder().mesh(4, 4).vns(6).vcs_per_vn(2).build();
        let mut sim = Simulation::new(
            cfg,
            Box::new(CreditVct::yx(6)),
            Box::new(SyntheticWorkload::new(SyntheticPattern::Transpose, 0.1, 1)),
        );
        let stats = sim.run_windows(1_000, 4_000);
        assert!(stats.delivered() > 100);
    }

    #[test]
    fn zero_vn_variant_for_deadlock_demos() {
        let cfg = SimConfig::builder().mesh(4, 4).vns(0).vcs_per_vn(2).build();
        let mut sim = Simulation::new(
            cfg,
            Box::new(CreditVct::xy(0)),
            Box::new(SyntheticWorkload::new(SyntheticPattern::Uniform, 0.05, 1)),
        );
        let stats = sim.run_windows(500, 2_000);
        assert!(stats.delivered() > 0);
    }
}
