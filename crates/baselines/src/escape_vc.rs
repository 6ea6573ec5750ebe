//! EscapeVC \[8\]: Duato's escape-channel deadlock avoidance.
//!
//! Per VN, VC 0 is an escape channel routed deterministically (XY — a
//! west-first subset, as configured in Table II); the remaining VCs are
//! fully adaptive. Any blocked packet can always fall back to the escape
//! channel, whose turn-restricted routing admits no cycles, so the
//! network is deadlock-free without detection — at the cost of 6 VNs for
//! protocol-level freedom and reduced path diversity inside the escape
//! channel.

use noc_sim::network::NetworkCore;
use noc_sim::regular::{advance, AdvanceCtx};
use noc_sim::routing::EscapeVcRouting;
use noc_sim::scheme::Scheme;

/// The EscapeVC baseline (implements [`Scheme`]).
#[derive(Debug, Clone)]
pub struct EscapeVc {
    routing: EscapeVcRouting,
}

impl EscapeVc {
    /// Creates the scheme; `seed` feeds adaptive tie-breaking.
    pub fn new(seed: u64) -> Self {
        EscapeVc {
            routing: EscapeVcRouting::new(seed ^ 0xE5CA_9E0C),
        }
    }
}

impl Scheme for EscapeVc {
    fn required_vns(&self) -> usize {
        6
    }

    fn step(&mut self, core: &mut NetworkCore) {
        advance(core, &mut self.routing, &AdvanceCtx::default());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::config::SimConfig;
    use noc_sim::Simulation;
    use traffic::{SyntheticPattern, SyntheticWorkload};

    fn sim(rate: f64, pattern: SyntheticPattern) -> Simulation {
        let cfg = SimConfig::builder()
            .mesh(4, 4)
            .vns(6)
            .vcs_per_vn(2)
            .seed(2)
            .build();
        Simulation::new(
            cfg,
            Box::new(EscapeVc::new(7)),
            Box::new(SyntheticWorkload::new(pattern, rate, 3)),
        )
    }

    #[test]
    fn delivers_and_never_wedges_at_high_load() {
        let mut s = sim(0.6, SyntheticPattern::Transpose);
        s.run(20_000);
        assert!(
            s.starvation_cycles() < 500,
            "escape channel must guarantee forward progress (got {})",
            s.starvation_cycles()
        );
        assert!(s.total_consumed() > 500);
    }

    #[test]
    fn adaptive_beats_dor_on_transpose() {
        // The adaptive VCs give EscapeVC more throughput than plain XY on
        // an adversarial pattern.
        let measure = |scheme: Box<dyn noc_sim::Scheme>| {
            let cfg = SimConfig::builder()
                .mesh(4, 4)
                .vns(6)
                .vcs_per_vn(2)
                .seed(2)
                .build();
            let mut s = Simulation::new(
                cfg,
                scheme,
                Box::new(SyntheticWorkload::new(SyntheticPattern::Transpose, 0.30, 3)),
            );
            s.run_windows(3_000, 6_000).throughput_packets()
        };
        let escape = measure(Box::new(EscapeVc::new(7)));
        let xy = measure(Box::new(crate::vct::CreditVct::xy(6)));
        assert!(
            escape >= xy * 0.95,
            "escape ({escape:.4}) should at least match XY ({xy:.4}) on transpose"
        );
    }

    #[test]
    fn low_load_latency_reasonable() {
        let mut s = sim(0.02, SyntheticPattern::Uniform);
        let stats = s.run_windows(1_000, 4_000);
        assert!(stats.avg_latency() < 25.0, "{}", stats.avg_latency());
    }
}
