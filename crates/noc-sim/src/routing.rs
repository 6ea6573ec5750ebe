//! Routing policies: XY, YX, fully adaptive, west-first, and escape-VC.
//!
//! A policy performs route computation *and* downstream VC selection for
//! a head packet (RC + VA of the 1-cycle router). Table II assigns:
//! fully-adaptive routing to SWAP, SPIN, DRAIN, Pitstop and FastPass's
//! regular pass; west-first to TFC; and a Duato escape-VC arrangement to
//! EscapeVC (deterministic escape VC + fully-adaptive elsewhere).
//!
//! Which directions a discipline admits is written once, in
//! [`introspect::route_set`] — the function `noc-prove` certifies. A
//! policy names its discipline ([`RoutingPolicy::kind`]) and its `route`
//! only *selects* from that set, by credits, tokens and its own
//! tie-break; [`contract::check`] verifies that the directions `route`
//! grants are exactly the set.

use crate::network::NetworkCore;
use introspect::PolicyKind;
use noc_core::packet::{MessageClass, PacketId};
use noc_core::rng::DetRng;
use noc_core::topology::{Direction, NodeId, Port, ProductiveDirs};

/// A head packet asking for a route at a router.
///
/// Carries by value the only packet fields route computation reads
/// (destination and message class) plus the packet id, so building a
/// request costs one store lookup and no `Packet` clone — this runs once
/// per routed head in the hot cycle loop.
#[derive(Debug, Clone, Copy)]
pub struct RouteReq {
    /// Router the packet is buffered at.
    pub at: NodeId,
    /// Input port it occupies.
    pub in_port: Port,
    /// VC it occupies.
    pub vc: usize,
    /// The packet's id (for policies that need more than `dst`/`class`).
    pub pkt: PacketId,
    /// The packet's destination.
    pub dst: NodeId,
    /// The packet's message class.
    pub class: MessageClass,
}

impl RouteReq {
    /// Builds a request for the packet `pkt` buffered at
    /// `(at, in_port, vc)`, reading `dst`/`class` from the store.
    pub fn new(core: &NetworkCore, at: NodeId, in_port: Port, vc: usize, pkt: PacketId) -> Self {
        let p = core.store.get(pkt);
        RouteReq {
            at,
            in_port,
            vc,
            pkt,
            dst: p.dst,
            class: p.class,
        }
    }
}

/// A granted route: output port plus the downstream VC that was selected
/// (`out_vc` is meaningless for `Port::Local`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteDecision {
    /// Output port to traverse.
    pub out_port: Port,
    /// Downstream VC index (already verified free by the policy).
    pub out_vc: usize,
}

/// Route computation + VC selection.
///
/// Implementations must only return decisions whose downstream VC is
/// currently free; the regular pipeline reserves it immediately.
///
/// Policies must be [`Send`]: schemes own their policies (often boxed),
/// and every scheme crosses a thread boundary when the bench harness
/// parallelizes sweeps.
pub trait RoutingPolicy: Send + DesiredPorts {
    /// The discipline whose [`introspect::route_set`] `route` selects
    /// from — the union of its lanes for a policy that routes VCs
    /// differently ([`EscapeVcRouting`]).
    fn kind(&self) -> PolicyKind;

    /// Short name for logs and reports: the discipline's, unless the
    /// policy is more than its discipline (escape lanes, TFC's tokens).
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Computes a route for `req`, or `None` if no admissible output/VC
    /// is available this cycle (the packet stays blocked).
    ///
    /// Event-driven allocation (`DESIGN.md`) parks a blocked head instead
    /// of asking again every cycle, and static certification reasons
    /// about [`kind`](Self::kind)'s route set instead of this function,
    /// so every implementation must meet three obligations for a packet
    /// not yet at its destination ([`contract::check`] is their
    /// executable form):
    ///
    /// 1. **A fixed grantable set inside the wait set.** Which
    ///    `(direction, VC)` pairs the policy may grant a request is a
    ///    function of the request and the configuration alone — not of
    ///    occupancy, time or random draws — and every such pair is a VC
    ///    of the packet's class range
    ///    ([`SimConfig::vc_range_for_class`]) at the *immediate*
    ///    neighbour in one of [`introspect::wait_dirs`]. `route` returns
    ///    a decision iff one of those VCs is free, and the decision
    ///    names a free one. So `None` means every grantable VC is
    ///    occupied (whatever else is free is not for this packet, now or
    ///    later), and a `None` can only turn into a grant after a VC of
    ///    the class range is freed across a wait direction — the
    ///    pipeline may skip the call until then.
    /// 2. **`None` leaves the policy untouched.** A call that returns
    ///    `None` draws no random number and changes no policy state, so
    ///    a skipped call and a failed call are indistinguishable.
    /// 3. **The granted directions are the certified ones.** The
    ///    directions of the grantable pairs are exactly
    ///    [`introspect::route_set`] of [`kind`](Self::kind): what
    ///    `noc-prove` certifies is what the simulator executes.
    ///
    /// A packet at its destination always gets `Port::Local`.
    ///
    /// [`SimConfig::vc_range_for_class`]: noc_core::config::SimConfig::vc_range_for_class
    fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision>;
}

/// The route set a [`RoutingPolicy`] selects from. A supertrait with one
/// blanket implementation, so no policy can define a direction set of its
/// own: a second `impl` is a conflicting-implementations error (E0119).
/// Callable on `dyn RoutingPolicy` and on generic policies without
/// importing it; concrete policy types need it in scope.
pub trait DesiredPorts {
    /// Directions the packet *could* legally take:
    /// [`introspect::route_set`] of [`RoutingPolicy::kind`], empty once
    /// it is at its destination. What `route` selects from and what
    /// wait-for graphs are built on.
    fn desired_ports(&self, core: &NetworkCore, req: &RouteReq) -> ProductiveDirs;
}

impl<P: RoutingPolicy + ?Sized> DesiredPorts for P {
    fn desired_ports(&self, core: &NetworkCore, req: &RouteReq) -> ProductiveDirs {
        introspect::route_set(self.kind(), core.xy(req.at), core.xy(req.dst))
    }
}

/// `(free VCs, first free VC)` of `range` at the input port a packet
/// leaving `at` through `d` enters, from one occupancy read; `None` when
/// no VC of the range is free there.
fn free_in(
    core: &NetworkCore,
    at: NodeId,
    d: Direction,
    range: std::ops::Range<usize>,
) -> Option<(usize, usize)> {
    let nbr = core.neighbor(at, d)?;
    let input = core.input(nbr, Port::Dir(d.opposite()).index());
    let (vc, credits) = input.free_vc_and_credits(range);
    Some((credits, vc?))
}

/// Counts free VCs for `class` at the downstream input port via `d`
/// (the congestion/credit signal used by adaptive selection and TFC
/// tokens).
pub fn downstream_credits(
    core: &NetworkCore,
    at: NodeId,
    d: Direction,
    class_index: usize,
) -> usize {
    free_in(core, at, d, core.cfg().vc_range_for_class(class_index)).map_or(0, |(n, _)| n)
}

/// The one selection loop every policy shares. A packet at its
/// destination gets `Port::Local`; otherwise `candidate` yields a
/// direction's `(score, free VC)` — `None` when nothing is free that
/// way — the highest score wins, and `tie_break(n)` says whether the
/// `n`-th candidate to equal the best so far replaces it. Nothing is
/// drawn unless two candidates tie, so a `None` leaves the caller's
/// tie-break stream untouched.
fn select(
    req: &RouteReq,
    dirs: ProductiveDirs,
    mut candidate: impl FnMut(Direction) -> Option<(usize, usize)>,
    mut tie_break: impl FnMut(usize) -> bool,
) -> Option<RouteDecision> {
    if req.dst == req.at {
        return Some(RouteDecision {
            out_port: Port::Local,
            out_vc: 0,
        });
    }
    let mut best: Option<(usize, RouteDecision)> = None;
    let mut ties = 0usize;
    for dir in dirs.iter() {
        let Some((score, out_vc)) = candidate(dir) else {
            continue;
        };
        let replaces = match best {
            Some((b, _)) if score < b => false,
            Some((b, _)) if score == b => {
                ties += 1;
                tie_break(ties)
            }
            _ => {
                ties = 0;
                true
            }
        };
        if replaces {
            let out_port = Port::Dir(dir);
            best = Some((score, RouteDecision { out_port, out_vc }));
        }
    }
    best.map(|(_, decision)| decision)
}

/// Selects the direction of `dirs` with a free VC for the request's
/// class and the highest `score`, a coin flip deciding between equal
/// scores (`Port::Local` for a packet at its destination): west-first
/// scores by downstream credits, TFC by region tokens.
pub fn pick_scored(
    core: &NetworkCore,
    req: &RouteReq,
    dirs: ProductiveDirs,
    rng: &mut DetRng,
    score: impl Fn(Direction) -> usize,
) -> Option<RouteDecision> {
    let range = core.cfg().vc_range_for_class(req.class.index());
    select(
        req,
        dirs,
        |d| free_in(core, req.at, d, range.start..range.end).map(|(_, vc)| (score(d), vc)),
        |_| rng.chance(0.5),
    )
}

/// The route sets themselves, as pure functions for static analysis.
///
/// Every discipline's *admissible direction set* is a pure function of
/// `(at, dst)` — the credit/occupancy state only picks *among*
/// admissible directions, never adds to them. [`route_set`] is the one
/// place those sets are written: the policies below select from it
/// through [`DesiredPorts::desired_ports`](super::DesiredPorts::desired_ports)
/// and `noc-prove` builds its channel-dependency graphs from it, so the
/// certified routes and the executed ones are the same function.
pub mod introspect {
    use noc_core::topology::{Direction, ProductiveDirs};

    /// Which routing discipline's route set to enumerate.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum PolicyKind {
        /// Dimension-ordered X-then-Y ([`super::DorXy`]).
        Xy,
        /// Dimension-ordered Y-then-X ([`super::DorYx`]).
        Yx,
        /// Minimal fully adaptive ([`super::FullyAdaptive`]).
        FullyAdaptive,
        /// West-first turn model ([`super::WestFirst`], TFC's substrate).
        WestFirst,
        /// The deterministic escape lane of [`super::EscapeVcRouting`]
        /// (XY into the escape VC).
        EscapeXy,
    }

    impl PolicyKind {
        /// Short name used in certificates.
        pub fn name(self) -> &'static str {
            match self {
                PolicyKind::Xy => "xy",
                PolicyKind::Yx => "yx",
                PolicyKind::FullyAdaptive => "fully-adaptive",
                PolicyKind::WestFirst => "west-first",
                PolicyKind::EscapeXy => "escape-xy",
            }
        }

        /// The live policy this kind enumerates, for callers that hold
        /// a kind and need its `desired_ports` (wait-graph diagnosis).
        /// `EscapeXy` names a lane, so it maps to the policy that owns
        /// the lane. `seed` feeds the adaptive tie-break stream.
        pub fn policy(self, seed: u64) -> Box<dyn super::RoutingPolicy> {
            match self {
                PolicyKind::Xy => Box::new(super::DorXy),
                PolicyKind::Yx => Box::new(super::DorYx),
                PolicyKind::FullyAdaptive => Box::new(super::FullyAdaptive::new(seed)),
                PolicyKind::WestFirst => Box::new(super::WestFirst::new(seed)),
                PolicyKind::EscapeXy => Box::new(super::EscapeVcRouting::new(seed)),
            }
        }
    }

    /// The *wait directions* of a head at mesh coordinates `at` bound for
    /// `dst`: every minimal direction, the horizontal correction first.
    /// Every [`route_set`] is a filter of this set, so a head blocked on
    /// all of these is blocked under any policy — the set the regular
    /// pipeline parks heads on. Takes coordinates rather than node ids so
    /// the per-cycle caller can pass the core's cached ones. Empty iff
    /// `at == dst`.
    pub fn wait_dirs(at: (u16, u16), dst: (u16, u16)) -> ProductiveDirs {
        ProductiveDirs::from_deltas(
            dst.0 as isize - at.0 as isize,
            dst.1 as isize - at.1 as isize,
        )
    }

    /// The full admissible direction set of `kind` for a head at mesh
    /// coordinates `at`, bound for `dst`: the [`wait_dirs`] the
    /// discipline keeps, in the same order. Empty iff `at == dst` (route
    /// to `Port::Local`).
    pub fn route_set(kind: PolicyKind, at: (u16, u16), dst: (u16, u16)) -> ProductiveDirs {
        let wait = wait_dirs(at, dst);
        match kind {
            PolicyKind::FullyAdaptive => wait,
            // Dimension order: the horizontal correction is listed first.
            PolicyKind::Xy | PolicyKind::EscapeXy => wait.filter(|d| Some(d) == wait.iter().next()),
            PolicyKind::Yx => wait.filter(|d| Some(d) == wait.iter().last()),
            // All westward correction first, then adaptive.
            PolicyKind::WestFirst => {
                wait.filter(|d| d == Direction::West || !wait.contains(Direction::West))
            }
        }
    }
}

/// Executable form of the [`RoutingPolicy::route`] contract, for the
/// tests of every crate that ships a policy.
pub mod contract {
    use super::{introspect, RouteReq, RoutingPolicy};
    use crate::network::NetworkCore;
    use crate::vc::VcOccupant;
    use noc_core::config::SimConfig;
    use noc_core::packet::{MessageClass, Packet};
    use noc_core::topology::{Direction, NodeId, Port};

    /// Checks `policy` against the three obligations event-driven
    /// allocation and static certification rely on, exhaustively over
    /// every `(at, in_port, dst)` of a 4×4 and a 3×5 mesh with two shared
    /// VCs per port: for each request, every free/occupied combination of
    /// the wait set's VCs is built on a scratch core and routed. Verified
    /// per request:
    ///
    /// * a decision names a free VC of the class range across a wait
    ///   direction, and a full wait set yields `None`;
    /// * the pairs granted when free *alone* form a fixed grantable set:
    ///   every combination routes iff it frees one of them;
    /// * the directions of that set are exactly
    ///   [`introspect::route_set`] of the policy's `kind()`;
    /// * a `None` leaves the policy's `Debug` rendering unchanged.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation.
    pub fn check<P: RoutingPolicy + std::fmt::Debug>(policy: &mut P) -> Result<(), String> {
        for (w, h) in [(4, 4), (3, 5)] {
            let cfg = SimConfig::builder().mesh(w, h).vns(0).vcs_per_vn(2).build();
            let mut core = NetworkCore::new(cfg);
            let mesh = core.mesh();
            let class = MessageClass::Request;
            let range = core.cfg().vc_range_for_class(class.index());
            let pkt = core.generate(Packet::new(NodeId::new(0), NodeId::new(1), class, 1, 0));
            for at in mesh.nodes() {
                for dst in mesh.nodes().filter(|&dst| dst != at) {
                    let dirs = introspect::wait_dirs(core.xy(at), core.xy(dst));
                    let pairs: Vec<(Direction, usize)> = dirs
                        .iter()
                        .flat_map(|d| range.clone().map(move |vc| (d, vc)))
                        .collect();
                    for in_port in Port::all() {
                        if matches!(in_port, Port::Dir(d) if mesh.neighbor(at, d).is_none()) {
                            continue;
                        }
                        let req = RouteReq {
                            at,
                            in_port,
                            vc: 0,
                            pkt,
                            dst,
                            class,
                        };
                        check_request(policy, &mut core, &req, &pairs).map_err(|e| {
                            format!(
                                "{} at {at} in {in_port} dst {dst} on {w}x{h}, wait set {pairs:?}: {e}",
                                policy.name()
                            )
                        })?;
                    }
                }
            }
        }
        Ok(())
    }

    /// Occupies (or frees again) every wait-set VC of `req` whose bit is
    /// clear in `free`, with reservations of the request's own packet.
    fn fill(
        core: &mut NetworkCore,
        req: &RouteReq,
        pairs: &[(Direction, usize)],
        free: usize,
        occupy: bool,
    ) {
        for (i, &(d, vc)) in pairs.iter().enumerate() {
            if free & (1 << i) != 0 {
                continue;
            }
            let nbr = core.neighbor(req.at, d).expect("wait dirs stay on-mesh");
            let mut input = core.input_mut(nbr, Port::Dir(d.opposite()).index());
            if occupy {
                input.install(vc, VcOccupant::reserved(req.pkt, 1, 0));
            } else {
                input.take(vc);
            }
        }
    }

    /// Routes `req` under every free/occupied combination of `pairs`.
    fn check_request<P: RoutingPolicy + std::fmt::Debug>(
        policy: &mut P,
        core: &mut NetworkCore,
        req: &RouteReq,
        pairs: &[(Direction, usize)],
    ) -> Result<(), String> {
        // granted[f]: routed with exactly the pairs in bitset `f` free.
        let mut granted = vec![false; 1 << pairs.len()];
        for (free, routed) in granted.iter_mut().enumerate() {
            fill(core, req, pairs, free, true);
            let before = format!("{policy:?}");
            let dec = policy.route(core, req);
            let unchanged = format!("{policy:?}") == before;
            fill(core, req, pairs, free, false);
            match dec {
                Some(dec) => {
                    let granted_pair = match dec.out_port {
                        Port::Dir(d) => pairs.iter().position(|&p| p == (d, dec.out_vc)),
                        Port::Local => None,
                    };
                    match granted_pair {
                        Some(i) if free & (1 << i) != 0 => {}
                        Some(_) => return Err(format!("free {free:#b}: granted occupied {dec:?}")),
                        None => {
                            return Err(format!("free {free:#b}: {dec:?} outside the wait set"))
                        }
                    }
                }
                None if !unchanged => {
                    return Err(format!("free {free:#b}: a None changed the policy's state"));
                }
                None => {}
            }
            *routed = dec.is_some();
        }
        let grantable = (0..pairs.len())
            .filter(|&i| granted[1 << i])
            .fold(0usize, |set, i| set | 1 << i);
        if let Some(free) = (0..granted.len()).find(|&f| granted[f] != (f & grantable != 0)) {
            return Err(format!(
                "grants alone {grantable:#b}, yet free {free:#b} routes: {}",
                granted[free]
            ));
        }
        // Both lists are in wait-set order, so set equality is `==`.
        let mut granted_dirs: Vec<_> = (0..pairs.len())
            .filter(|&i| grantable & (1 << i) != 0)
            .map(|i| pairs[i].0)
            .collect();
        granted_dirs.dedup();
        let certified: Vec<_> =
            introspect::route_set(policy.kind(), core.xy(req.at), core.xy(req.dst))
                .iter()
                .collect();
        if granted_dirs != certified {
            return Err(format!(
                "grants directions {granted_dirs:?}, yet the route set of its kind is {certified:?}"
            ));
        }
        Ok(())
    }
}

/// Dimension-ordered routing, X then Y (deterministic, deadlock-free).
#[derive(Debug, Clone)]
pub struct DorXy;

/// Dimension-ordered routing, Y then X.
#[derive(Debug, Clone)]
pub struct DorYx;

/// The one hop a dimension-ordered `policy` admits, if a VC is free there.
fn route_dor(
    policy: &impl RoutingPolicy,
    core: &NetworkCore,
    req: &RouteReq,
) -> Option<RouteDecision> {
    let range = core.cfg().vc_range_for_class(req.class.index());
    let dirs = policy.desired_ports(core, req);
    let free = |d| free_in(core, req.at, d, range.start..range.end);
    select(req, dirs, free, |_| false)
}

impl RoutingPolicy for DorXy {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Xy
    }

    fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
        route_dor(self, core, req)
    }
}

impl RoutingPolicy for DorYx {
    fn kind(&self) -> PolicyKind {
        PolicyKind::Yx
    }

    fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
        route_dor(self, core, req)
    }
}

/// Minimal fully-adaptive routing: any productive direction, preferring
/// the one with the most free downstream VCs (credit-based congestion
/// estimate), random tie-break.
///
/// Fully-adaptive routing admits network-level deadlock; schemes using it
/// must provide a resolution mechanism (SPIN, SWAP, DRAIN, Pitstop,
/// FastPass all do).
#[derive(Debug, Clone)]
pub struct FullyAdaptive {
    rng: DetRng,
}

impl FullyAdaptive {
    /// Creates the policy with a deterministic tie-break stream.
    pub fn new(seed: u64) -> Self {
        FullyAdaptive {
            rng: DetRng::new(seed),
        }
    }
}

impl RoutingPolicy for FullyAdaptive {
    fn kind(&self) -> PolicyKind {
        PolicyKind::FullyAdaptive
    }

    fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
        let range = core.cfg().vc_range_for_class(req.class.index());
        let dirs = self.desired_ports(core, req);
        let free = |d| free_in(core, req.at, d, range.start..range.end);
        // Most downstream credits wins; reservoir-style uniform tie-break.
        select(req, dirs, free, |ties| self.rng.range(0, ties + 1) == 0)
    }
}

/// West-first partially-adaptive routing (used by TFC). All westward
/// correction happens first; once the packet no longer needs to go west,
/// it picks the remaining productive direction with the most downstream
/// credits, coin-flip tie-break. West-first forbids every turn into
/// West, which breaks all cycles: deadlock-free.
#[derive(Debug, Clone)]
pub struct WestFirst {
    rng: DetRng,
}

impl WestFirst {
    /// Creates the policy with a deterministic tie-break stream.
    pub fn new(seed: u64) -> Self {
        WestFirst {
            rng: DetRng::new(seed),
        }
    }
}

impl RoutingPolicy for WestFirst {
    fn kind(&self) -> PolicyKind {
        PolicyKind::WestFirst
    }

    fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
        let dirs = self.desired_ports(core, req);
        pick_scored(core, req, dirs, &mut self.rng, |d| {
            downstream_credits(core, req.at, d, req.class.index())
        })
    }
}

/// Duato escape-VC routing: within each VN, VC 0 is the escape channel
/// routed deterministically (XY, a subset of west-first as configured in
/// the paper); the remaining VCs are fully adaptive. A packet may always
/// fall back into the escape channel, which guarantees network-level
/// deadlock freedom.
#[derive(Debug, Clone)]
pub struct EscapeVcRouting;

impl EscapeVcRouting {
    /// Creates the policy. Neither lane breaks a tie at random, so the
    /// seed every scheme constructor passes its policy goes unused.
    pub fn new(_seed: u64) -> Self {
        EscapeVcRouting
    }
}

impl RoutingPolicy for EscapeVcRouting {
    fn name(&self) -> &'static str {
        "escape-vc"
    }

    /// The union of the two lanes: the escape lane's XY hop is one of
    /// the adaptive lanes' minimal directions.
    fn kind(&self) -> PolicyKind {
        PolicyKind::FullyAdaptive
    }

    fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
        let range = core.cfg().vc_range_for_class(req.class.index());
        let escape = range.start;
        // Adaptive lanes: the direction with the most free non-escape
        // VCs, the first listed on a tie.
        let adaptive = |d| free_in(core, req.at, d, escape + 1..range.end);
        // Escape lane: the deterministic XY hop into the escape VC.
        let xy = introspect::route_set(PolicyKind::EscapeXy, core.xy(req.at), core.xy(req.dst));
        let escape_lane = |d| free_in(core, req.at, d, escape..escape + 1);
        select(req, self.desired_ports(core, req), adaptive, |_| false)
            .or_else(|| select(req, xy, escape_lane, |_| false))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::config::SimConfig;
    use noc_core::packet::{MessageClass, Packet};
    use noc_core::topology::Mesh;

    fn core(vns: usize, vcs: usize) -> NetworkCore {
        NetworkCore::new(
            SimConfig::builder()
                .mesh(4, 4)
                .vns(vns)
                .vcs_per_vn(vcs)
                .build(),
        )
    }

    fn req_between(core: &mut NetworkCore, src: usize, dst: usize) -> noc_core::PacketId {
        core.generate(Packet::new(
            NodeId::new(src),
            NodeId::new(dst),
            MessageClass::Request,
            1,
            0,
        ))
    }

    fn route_of(
        core: &NetworkCore,
        policy: &mut dyn RoutingPolicy,
        pkt: noc_core::PacketId,
        at: usize,
    ) -> Option<RouteDecision> {
        policy.route(
            core,
            &RouteReq::new(core, NodeId::new(at), Port::Local, 0, pkt),
        )
    }

    #[test]
    fn xy_routes_x_first() {
        let mut c = core(0, 2);
        let m = Mesh::new(4, 4);
        let pkt = req_between(&mut c, 0, 15); // (0,0) -> (3,3)
        let dec = route_of(&c, &mut DorXy, pkt, 0).unwrap();
        assert_eq!(dec.out_port, Port::Dir(Direction::East));
        // From a node in the right column, Y correction.
        let at = m.node(3, 0).index();
        let dec = route_of(&c, &mut DorXy, pkt, at).unwrap();
        assert_eq!(dec.out_port, Port::Dir(Direction::South));
    }

    #[test]
    fn yx_routes_y_first() {
        let mut c = core(0, 2);
        let pkt = req_between(&mut c, 0, 15);
        let dec = route_of(&c, &mut DorYx, pkt, 0).unwrap();
        assert_eq!(dec.out_port, Port::Dir(Direction::South));
    }

    #[test]
    fn arrived_packet_routes_local() {
        let mut c = core(0, 2);
        let pkt = req_between(&mut c, 0, 5);
        for policy in [
            &mut DorXy as &mut dyn RoutingPolicy,
            &mut DorYx,
            &mut FullyAdaptive::new(1),
            &mut WestFirst::new(1),
            &mut EscapeVcRouting::new(1),
        ] {
            let dec = route_of(&c, policy, pkt, 5).unwrap();
            assert_eq!(dec.out_port, Port::Local, "{}", policy.name());
        }
    }

    #[test]
    fn adaptive_only_picks_productive() {
        let mut c = core(0, 2);
        let pkt = req_between(&mut c, 5, 10); // (1,1) -> (2,2): E or S
        let mut pol = FullyAdaptive::new(3);
        for _ in 0..20 {
            let dec = route_of(&c, &mut pol, pkt, 5).unwrap();
            assert!(
                dec.out_port == Port::Dir(Direction::East)
                    || dec.out_port == Port::Dir(Direction::South)
            );
        }
    }

    #[test]
    fn adaptive_prefers_more_credits() {
        let mut c = core(0, 2);
        let pkt = req_between(&mut c, 5, 10);
        // Fill every VC at the East neighbour's West input port.
        let east_nbr = NodeId::new(6);
        for vc in 0..2 {
            let filler = req_between(&mut c, 0, 15);
            c.input_mut(east_nbr, Port::Dir(Direction::West).index())
                .install(vc, crate::vc::VcOccupant::reserved(filler, 1, 0));
        }
        let mut pol = FullyAdaptive::new(3);
        let dec = route_of(&c, &mut pol, pkt, 5).unwrap();
        assert_eq!(dec.out_port, Port::Dir(Direction::South));
    }

    #[test]
    fn adaptive_blocks_when_all_full() {
        let mut c = core(0, 1);
        let pkt = req_between(&mut c, 5, 10);
        for (nbr, dir) in [(6usize, Direction::West), (9, Direction::North)] {
            let filler = req_between(&mut c, 0, 15);
            c.input_mut(NodeId::new(nbr), Port::Dir(dir).index())
                .install(0, crate::vc::VcOccupant::reserved(filler, 1, 0));
        }
        let mut pol = FullyAdaptive::new(3);
        assert_eq!(route_of(&c, &mut pol, pkt, 5), None);
    }

    #[test]
    fn westward_correction_comes_first() {
        let mut c = core(0, 2);
        let pkt = req_between(&mut c, 10, 0); // (2,2) -> (0,0): W and N productive
        let mut pol = WestFirst::new(7);
        for _ in 0..10 {
            let dec = route_of(&c, &mut pol, pkt, 10).unwrap();
            assert_eq!(dec.out_port, Port::Dir(Direction::West), "west first");
        }
        // Eastbound traffic is adaptive between E and S.
        let pkt2 = req_between(&mut c, 0, 15);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..40 {
            let dec = route_of(&c, &mut pol, pkt2, 0).unwrap();
            seen.insert(dec.out_port);
        }
        assert!(seen.contains(&Port::Dir(Direction::East)));
        assert!(seen.contains(&Port::Dir(Direction::South)));
    }

    #[test]
    fn escape_prefers_adaptive_vcs_then_falls_back() {
        let mut c = core(6, 2);
        let pkt = req_between(&mut c, 0, 15);
        let mut pol = EscapeVcRouting::new(9);
        let dec = route_of(&c, &mut pol, pkt, 0).unwrap();
        let range = c.cfg().vc_range_for_class(MessageClass::Request.index());
        assert_eq!(dec.out_vc, range.start + 1, "adaptive VC chosen first");
        // Fill all adaptive VCs of both productive neighbours.
        for (nbr, dir) in [(1usize, Direction::West), (4, Direction::North)] {
            let filler = req_between(&mut c, 5, 15);
            c.input_mut(NodeId::new(nbr), Port::Dir(dir).index())
                .install(
                    range.start + 1,
                    crate::vc::VcOccupant::reserved(filler, 1, 0),
                );
        }
        let dec = route_of(&c, &mut pol, pkt, 0).unwrap();
        assert_eq!(dec.out_vc, range.start, "falls back to escape VC");
        assert_eq!(
            dec.out_port,
            Port::Dir(Direction::East),
            "escape uses deterministic XY"
        );
    }

    #[test]
    fn vn_isolation_respected() {
        // A Response packet must only be offered Response-VN VCs.
        let mut c = core(6, 2);
        let pkt = c.generate(Packet::new(
            NodeId::new(0),
            NodeId::new(3),
            MessageClass::Response,
            5,
            0,
        ));
        let dec = route_of(&c, &mut DorXy, pkt, 0).unwrap();
        let range = c.cfg().vc_range_for_class(MessageClass::Response.index());
        assert!(range.contains(&dec.out_vc));
    }

    /// `route_set` itself, at the coordinates the west-first test above
    /// routes through, plus the dimension orders it derives from the wait
    /// set's listing order.
    #[test]
    fn route_set_filters_the_wait_set() {
        use super::introspect::route_set;
        use Direction::{East, North, South, West};
        use PolicyKind as K;
        type Case = (K, (u16, u16), (u16, u16), &'static [Direction]);
        let cases: [Case; 7] = [
            // (2,2) -> (0,0): W and N productive.
            (K::WestFirst, (2, 2), (0, 0), &[West]),
            (K::WestFirst, (0, 0), (3, 3), &[East, South]),
            // Dimension orders and the adaptive set, on a diagonal.
            (K::Xy, (1, 1), (2, 0), &[East]),
            (K::EscapeXy, (1, 1), (2, 0), &[East]),
            (K::Yx, (1, 1), (2, 0), &[North]),
            (K::FullyAdaptive, (1, 1), (2, 0), &[East, North]),
            (K::FullyAdaptive, (1, 1), (1, 1), &[]),
        ];
        for (kind, at, dst, want) in cases {
            let got: Vec<_> = route_set(kind, at, dst).iter().collect();
            assert_eq!(got, want, "{} at {at:?} dst {dst:?}", kind.name());
        }
    }

    /// Every policy shipped here honours the route contract, grant-set
    /// equality included (TFC's token-scored west-first is checked in
    /// `baselines`).
    #[test]
    fn shipped_policies_honour_the_route_contract() {
        contract::check(&mut DorXy).unwrap();
        contract::check(&mut DorYx).unwrap();
        contract::check(&mut FullyAdaptive::new(1)).unwrap();
        contract::check(&mut WestFirst::new(1)).unwrap();
        contract::check(&mut EscapeVcRouting::new(1)).unwrap();
    }

    /// The checker is not vacuous: a policy that draws a random number
    /// before finding its candidates, whose grantable set moves with
    /// occupancy, or whose grants are not its kind's route set, fails.
    #[test]
    fn route_contract_checker_catches_violations() {
        #[derive(Debug)]
        struct DrawsFirst(FullyAdaptive);
        impl RoutingPolicy for DrawsFirst {
            fn kind(&self) -> PolicyKind {
                PolicyKind::FullyAdaptive
            }
            fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
                self.0.rng.chance(0.5);
                self.0.route(core, req)
            }
        }
        let err = contract::check(&mut DrawsFirst(FullyAdaptive::new(1))).unwrap_err();
        assert!(err.contains("changed the policy's state"), "{err}");

        #[derive(Debug)]
        struct FirstFreeWins;
        impl RoutingPolicy for FirstFreeWins {
            fn kind(&self) -> PolicyKind {
                PolicyKind::Xy
            }
            // Grantable set depends on occupancy: VC 1 only while VC 0
            // is taken.
            fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
                let d = self.desired_ports(core, req).iter().next()?;
                let nbr = core.neighbor(req.at, d)?;
                let iu = core.input(nbr, Port::Dir(d.opposite()).index());
                (!iu.is_free(0) && iu.is_free(1)).then_some(RouteDecision {
                    out_port: Port::Dir(d),
                    out_vc: 1,
                })
            }
        }
        let err = contract::check(&mut FirstFreeWins).unwrap_err();
        assert!(err.contains("grants alone"), "{err}");

        /// Routes Y-first while naming `claims` as its kind.
        #[derive(Debug)]
        struct Mislabelled {
            claims: PolicyKind,
        }
        impl RoutingPolicy for Mislabelled {
            fn kind(&self) -> PolicyKind {
                self.claims
            }
            fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
                DorYx.route(core, req)
            }
        }
        // Under the XY certificate that grants a direction outside the
        // set; under the fully-adaptive one it never grants a direction
        // of the set.
        for claims in [PolicyKind::Xy, PolicyKind::FullyAdaptive] {
            let err = contract::check(&mut Mislabelled { claims }).unwrap_err();
            assert!(err.contains("yet the route set of its kind is"), "{err}");
        }
    }

    /// Empirical deadlock-freedom soak for west-first: heavy adversarial
    /// traffic, a single VC, no resolution scheme — if the turn rule were
    /// wrong, the network would wedge.
    #[test]
    fn west_first_never_wedges() {
        use crate::regular::{advance, AdvanceCtx};
        let mut pol = WestFirst::new(5);
        let mut c = NetworkCore::new(
            noc_core::config::SimConfig::builder()
                .mesh(4, 4)
                .vns(0)
                .vcs_per_vn(1)
                .seed(7)
                .build(),
        );
        let mut wl_rng = noc_core::rng::DetRng::new(11);
        let mut last_consumed = 0u64;
        let mut consumed = 0u64;
        for cycle in 0..8_000u64 {
            // Saturating random traffic.
            for src in 0..16 {
                if wl_rng.chance(0.4) {
                    let mut dst = wl_rng.range(0, 15);
                    if dst >= src {
                        dst += 1;
                    }
                    c.generate(Packet::new(
                        NodeId::new(src),
                        NodeId::new(dst),
                        MessageClass::Request,
                        1 + 4 * (wl_rng.chance(0.5) as u8),
                        cycle,
                    ));
                }
            }
            advance(&mut c, &mut pol, &AdvanceCtx::default());
            let now = c.cycle();
            for n in c.mesh().nodes() {
                if c.ni(n).ej_consumable(MessageClass::Request, now).is_some() {
                    let e = c.ni_mut(n).pop_ej(MessageClass::Request).unwrap();
                    c.store.remove(e.pkt);
                    consumed += 1;
                    last_consumed = now;
                }
            }
            c.advance_cycle();
        }
        assert!(consumed > 1_000, "too little delivered");
        assert!(
            c.cycle() - last_consumed < 500,
            "wedged: no consumption for {} cycles",
            c.cycle() - last_consumed
        );
    }
}
