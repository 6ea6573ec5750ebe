//! Token Flow Control \[19\].
//!
//! TFC routers broadcast *tokens* advertising downstream buffer
//! availability within a small region, letting packets pick less
//! congested admissible outputs (and, in the original hardware, skip
//! pipeline stages — a no-op here since the substrate's routers are
//! already single-cycle for every scheme, matching Table II's 1-cycle
//! router latency). Routing is west-first (Table II), which is what
//! limits TFC's path diversity on adversarial patterns and drives its
//! early saturation in Fig. 7.

use noc_core::rng::DetRng;
use noc_core::topology::{Direction, NodeId};
use noc_sim::network::NetworkCore;
use noc_sim::regular::{advance, AdvanceCtx};
use noc_sim::routing::introspect::PolicyKind;
use noc_sim::routing::{
    downstream_credits, pick_scored, DesiredPorts, RouteDecision, RouteReq, RoutingPolicy,
};
use noc_sim::scheme::Scheme;

/// West-first routing weighted by region tokens: the score of a
/// direction is the free-VC count one hop away plus the free-VC count
/// two hops straight ahead (the token broadcast radius of \[19\]).
#[derive(Debug, Clone)]
struct TokenWestFirst {
    rng: DetRng,
}

impl TokenWestFirst {
    fn token_score(core: &NetworkCore, at: NodeId, d: Direction, class: usize) -> usize {
        let near = downstream_credits(core, at, d, class);
        let far = core
            .mesh()
            .neighbor(at, d)
            .map(|n| downstream_credits(core, n, d, class))
            .unwrap_or(0);
        2 * near + far
    }
}

impl RoutingPolicy for TokenWestFirst {
    fn name(&self) -> &'static str {
        "token-west-first"
    }

    fn kind(&self) -> PolicyKind {
        PolicyKind::WestFirst
    }

    fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
        let dirs = self.desired_ports(core, req);
        pick_scored(core, req, dirs, &mut self.rng, |d| {
            Self::token_score(core, req.at, d, req.class.index())
        })
    }
}

/// The TFC baseline (implements [`Scheme`]).
#[derive(Debug, Clone)]
pub struct Tfc {
    routing: TokenWestFirst,
}

impl Tfc {
    /// Creates the scheme; `seed` feeds tie-breaking.
    pub fn new(seed: u64) -> Self {
        Tfc {
            routing: TokenWestFirst {
                rng: DetRng::new(seed ^ 0x7F_C0DE),
            },
        }
    }
}

impl Scheme for Tfc {
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
            .seed(4)
            .build();
        Simulation::new(
            cfg,
            Box::new(Tfc::new(5)),
            Box::new(SyntheticWorkload::new(pattern, rate, 6)),
        )
    }

    /// Parking relies on it: TFC's policy grants a fixed set of VCs per
    /// request and a `None` leaves its tie-break stream untouched.
    #[test]
    fn token_west_first_honours_the_route_contract() {
        let mut routing = Tfc::new(5).routing;
        noc_sim::routing::contract::check(&mut routing).unwrap();
    }

    #[test]
    fn delivers_without_wedging() {
        let mut s = sim(0.5, SyntheticPattern::Uniform);
        s.run(15_000);
        assert!(s.starvation_cycles() < 500);
        assert!(s.total_consumed() > 500);
    }

    #[test]
    fn westbound_heavy_pattern_is_delivered() {
        // A packet that needs to go west must be routed west first; run a
        // westbound-heavy pattern and confirm delivery (correctness of
        // the restricted turns).
        let mut s = sim(0.1, SyntheticPattern::Transpose);
        let stats = s.run_windows(1_000, 4_000);
        assert!(stats.delivered() > 50);
    }

    #[test]
    fn tokens_spread_load_relative_to_plain_west_first() {
        // Token-weighted selection must not be worse than blind west-first.
        let measure = |tokens: bool| {
            let cfg = SimConfig::builder()
                .mesh(4, 4)
                .vns(6)
                .vcs_per_vn(2)
                .seed(4)
                .build();
            let scheme: Box<dyn noc_sim::Scheme> = if tokens {
                Box::new(Tfc::new(5))
            } else {
                Box::new(crate::vct::CreditVct::xy(6))
            };
            let mut s = Simulation::new(
                cfg,
                scheme,
                Box::new(SyntheticWorkload::new(SyntheticPattern::Uniform, 0.35, 6)),
            );
            s.run_windows(3_000, 6_000).throughput_packets()
        };
        let tfc = measure(true);
        let xy = measure(false);
        assert!(tfc > xy * 0.8, "tfc {tfc:.4} vs xy {xy:.4}");
    }
}
