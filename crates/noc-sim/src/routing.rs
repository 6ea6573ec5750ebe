//! Routing policies: XY, YX, west-first, fully adaptive, escape-VC.
//!
//! A policy performs route computation *and* downstream VC selection for
//! a head packet (RC + VA of the 1-cycle router). Table II assigns:
//! fully-adaptive routing to SWAP, SPIN, DRAIN, Pitstop and FastPass's
//! regular pass; west-first to TFC; and a Duato escape-VC arrangement to
//! EscapeVC (deterministic escape VC + fully-adaptive elsewhere).

use crate::network::NetworkCore;
use noc_core::packet::{MessageClass, PacketId};
use noc_core::rng::DetRng;
use noc_core::topology::{Direction, NodeId, Port};

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
pub trait RoutingPolicy: Send {
    /// Short name for logs and reports.
    fn name(&self) -> &'static str;

    /// Computes a route for `req`, or `None` if no admissible output/VC
    /// is available this cycle (the packet stays blocked).
    ///
    /// Event-driven allocation (`DESIGN.md`) parks a blocked head instead
    /// of asking again every cycle, and leans on two obligations every
    /// implementation must meet for a packet not yet at its destination
    /// ([`contract::check`] is their executable form):
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
    ///
    /// A packet at its destination always gets `Port::Local`.
    ///
    /// [`SimConfig::vc_range_for_class`]: noc_core::config::SimConfig::vc_range_for_class
    fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision>;

    /// Output ports the packet *could* legally use (for wait-for-graph
    /// construction). The default is all minimal productive directions.
    fn desired_ports(&self, core: &NetworkCore, req: &RouteReq) -> Vec<Port> {
        if req.dst == req.at {
            return vec![Port::Local];
        }
        core.productive_dirs(req.at, req.dst)
            .iter()
            .map(Port::Dir)
            .collect()
    }
}

/// Returns the first free VC for `class` at the input port of the
/// neighbour reached via `d` from `at`, if any.
pub fn free_downstream_vc(
    core: &NetworkCore,
    at: NodeId,
    d: Direction,
    class_index: usize,
) -> Option<usize> {
    let nbr = core.neighbor(at, d)?;
    let range = core.cfg().vc_range_for_class(class_index);
    core.input(nbr, Port::Dir(d.opposite()).index())
        .free_vc_in(range)
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
    match core.neighbor(at, d) {
        Some(nbr) => {
            let range = core.cfg().vc_range_for_class(class_index);
            core.input(nbr, Port::Dir(d.opposite()).index())
                .free_vcs_in(range)
        }
        None => 0,
    }
}

fn local_if_arrived(req: &RouteReq) -> Option<RouteDecision> {
    (req.dst == req.at).then_some(RouteDecision {
        out_port: Port::Local,
        out_vc: 0,
    })
}

/// Pure route-set introspection for static analysis (`noc-prove`).
///
/// Every routing policy's *admissible direction set* is a pure function
/// of `(mesh, at, in_port, dst)` — the credit/occupancy state only picks
/// *among* admissible directions, never adds to them. This module is the
/// single source of truth for those sets: the policies below delegate to
/// it (so the simulator and the static certifier cannot drift), and
/// `noc-prove` builds channel-dependency graphs from exactly these
/// functions rather than re-deriving the routing algebra.
pub mod introspect {
    use noc_core::topology::{Direction, Mesh, NodeId, Port, ProductiveDirs};

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
        /// North-last turn model ([`super::NorthLast`]).
        NorthLast,
        /// Odd-even turn model ([`super::OddEven`]).
        OddEven,
        /// The deterministic escape discipline of
        /// [`super::EscapeVcRouting`] (XY into the escape VC).
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
                PolicyKind::NorthLast => "north-last",
                PolicyKind::OddEven => "odd-even",
                PolicyKind::EscapeXy => "escape-xy",
            }
        }

        /// The live policy this kind enumerates, for callers that hold
        /// a kind and need its `desired_ports` (wait-graph diagnosis).
        /// `seed` feeds the adaptive tie-break stream.
        pub fn policy(self, seed: u64) -> Box<dyn super::RoutingPolicy> {
            match self {
                PolicyKind::Xy => Box::new(super::DorXy),
                PolicyKind::Yx => Box::new(super::DorYx),
                PolicyKind::FullyAdaptive => Box::new(super::FullyAdaptive::new(seed)),
                PolicyKind::WestFirst => Box::new(super::WestFirst::new(seed)),
                PolicyKind::NorthLast => Box::new(super::NorthLast::new(seed)),
                PolicyKind::OddEven => Box::new(super::OddEven::new(seed)),
                PolicyKind::EscapeXy => Box::new(super::EscapeVcRouting::new(seed)),
            }
        }
    }

    /// Directions admissible under west-first: all westward correction
    /// first, then adaptive among the rest.
    pub fn west_first(mesh: Mesh, at: NodeId, dst: NodeId) -> Vec<Direction> {
        let prod = mesh.productive_dirs(at, dst);
        if prod.contains(Direction::West) {
            vec![Direction::West]
        } else {
            prod.iter().collect()
        }
    }

    /// Directions admissible under north-last: North only once nothing
    /// else is productive.
    pub fn north_last(mesh: Mesh, at: NodeId, dst: NodeId) -> Vec<Direction> {
        let prod: Vec<Direction> = mesh.productive_dirs(at, dst).iter().collect();
        let non_north: Vec<Direction> = prod
            .iter()
            .copied()
            .filter(|&d| d != Direction::North)
            .collect();
        if non_north.is_empty() {
            prod
        } else {
            non_north
        }
    }

    /// The direction a packet travelled to arrive on `in_port` (`None`
    /// for freshly injected packets).
    pub fn travel_dir(in_port: Port) -> Option<Direction> {
        match in_port {
            Port::Dir(d) => Some(d.opposite()),
            Port::Local => None,
        }
    }

    /// Directions admissible under the odd-even turn model (see
    /// [`super::OddEven`] for the rule derivation).
    pub fn odd_even(mesh: Mesh, at: NodeId, dst: NodeId, in_port: Port) -> Vec<Direction> {
        let x = mesh.x(at);
        let even = x.is_multiple_of(2);
        let (tx, ty) = (mesh.x(dst), mesh.y(dst));
        let dy = ty as isize - mesh.y(at) as isize;
        let dx = tx as isize - x as isize;
        let prev = travel_dir(in_port);
        mesh.productive_dirs(at, dst)
            .iter()
            .filter(|&d| match d {
                Direction::North | Direction::South => {
                    // EN/ES forbidden at even columns.
                    if prev == Some(Direction::East) && even {
                        return false;
                    }
                    // A packet still heading west must keep its future
                    // N/S->W turn legal (even columns only).
                    dx >= 0 || even
                }
                Direction::West => {
                    // NW/SW forbidden at odd columns.
                    !matches!(prev, Some(Direction::North) | Some(Direction::South)) || even
                }
                Direction::East => {
                    // Never enter an even destination column eastbound
                    // with vertical offset left: no legal turn there.
                    !(dy != 0 && tx % 2 == 0 && tx == x + 1)
                }
            })
            .collect()
    }

    /// The *wait directions* of a head at mesh coordinates `at` bound for
    /// `dst`: every minimal direction. Whatever the policy, its
    /// admissible set at that router is a subset (every shipped policy
    /// is minimal; [`route_set`] ⊆ this for every [`PolicyKind`], tested
    /// exhaustively), so a head blocked on all of these is blocked under
    /// any policy — the set the regular pipeline parks heads on. Takes
    /// coordinates rather than node ids so the per-cycle caller can pass
    /// the core's cached ones. Empty iff `at == dst`.
    pub fn wait_dirs(at: (u16, u16), dst: (u16, u16)) -> ProductiveDirs {
        ProductiveDirs::from_deltas(
            dst.0 as isize - at.0 as isize,
            dst.1 as isize - at.1 as isize,
        )
    }

    /// The full admissible direction set of `kind` at
    /// `(at, in_port, dst)`. Returns the empty set iff `at == dst`
    /// (route to `Port::Local`).
    pub fn route_set(
        kind: PolicyKind,
        mesh: Mesh,
        at: NodeId,
        in_port: Port,
        dst: NodeId,
    ) -> Vec<Direction> {
        if at == dst {
            return Vec::new();
        }
        match kind {
            PolicyKind::Xy | PolicyKind::EscapeXy => {
                vec![mesh
                    .xy_next(at, dst)
                    .expect("non-local packet always has an XY next hop")]
            }
            PolicyKind::Yx => vec![mesh
                .yx_next(at, dst)
                .expect("non-local packet always has a YX next hop")],
            PolicyKind::FullyAdaptive => mesh.productive_dirs(at, dst).iter().collect(),
            PolicyKind::WestFirst => west_first(mesh, at, dst),
            PolicyKind::NorthLast => north_last(mesh, at, dst),
            PolicyKind::OddEven => odd_even(mesh, at, dst, in_port),
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

    /// Checks `policy` against the two obligations event-driven
    /// allocation relies on, exhaustively over every `(at, in_port, dst)`
    /// of a 4×4 and a 3×5 mesh with two shared VCs per port: for each
    /// request, every free/occupied combination of the wait set's VCs is
    /// built on a scratch core and routed. Verified per request:
    ///
    /// * a decision names a free VC of the class range across a wait
    ///   direction, and a full wait set yields `None`;
    /// * the pairs granted when free *alone* form a fixed grantable set:
    ///   every combination routes iff it frees one of them;
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
            // noc-lint: allow(occupancy) — synthetic occupancy on a scratch core
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
        match (0..granted.len()).find(|&f| granted[f] != (f & grantable != 0)) {
            Some(free) => Err(format!(
                "grants alone {grantable:#b}, yet free {free:#b} routes: {}",
                granted[free]
            )),
            None => Ok(()),
        }
    }
}

/// Dimension-ordered routing, X then Y (deterministic, deadlock-free).
#[derive(Debug, Clone)]
pub struct DorXy;

impl RoutingPolicy for DorXy {
    fn name(&self) -> &'static str {
        "xy"
    }

    fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
        if let Some(d) = local_if_arrived(req) {
            return Some(d);
        }
        // `Mesh::xy_next` on cached coordinates (no per-call division).
        let (fx, fy) = core.xy(req.at);
        let (tx, ty) = core.xy(req.dst);
        let dir = if tx > fx {
            Direction::East
        } else if tx < fx {
            Direction::West
        } else if ty > fy {
            Direction::South
        } else if ty < fy {
            Direction::North
        } else {
            return None;
        };
        let out_vc = free_downstream_vc(core, req.at, dir, req.class.index())?;
        Some(RouteDecision {
            out_port: Port::Dir(dir),
            out_vc,
        })
    }

    fn desired_ports(&self, core: &NetworkCore, req: &RouteReq) -> Vec<Port> {
        if req.dst == req.at {
            vec![Port::Local]
        } else {
            vec![Port::Dir(
                core.mesh()
                    .xy_next(req.at, req.dst)
                    .expect("non-local packet always has an XY next hop"),
            )]
        }
    }
}

/// Dimension-ordered routing, Y then X.
#[derive(Debug, Clone)]
pub struct DorYx;

impl RoutingPolicy for DorYx {
    fn name(&self) -> &'static str {
        "yx"
    }

    fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
        if let Some(d) = local_if_arrived(req) {
            return Some(d);
        }
        // `Mesh::yx_next` on cached coordinates (no per-call division).
        let (fx, fy) = core.xy(req.at);
        let (tx, ty) = core.xy(req.dst);
        let dir = if ty > fy {
            Direction::South
        } else if ty < fy {
            Direction::North
        } else if tx > fx {
            Direction::East
        } else if tx < fx {
            Direction::West
        } else {
            return None;
        };
        let out_vc = free_downstream_vc(core, req.at, dir, req.class.index())?;
        Some(RouteDecision {
            out_port: Port::Dir(dir),
            out_vc,
        })
    }

    fn desired_ports(&self, core: &NetworkCore, req: &RouteReq) -> Vec<Port> {
        if req.dst == req.at {
            vec![Port::Local]
        } else {
            vec![Port::Dir(
                core.mesh()
                    .yx_next(req.at, req.dst)
                    .expect("non-local packet always has a YX next hop"),
            )]
        }
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
    fn name(&self) -> &'static str {
        "fully-adaptive"
    }

    fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
        if let Some(d) = local_if_arrived(req) {
            return Some(d);
        }
        // The class range is direction-independent: resolve it once, and
        // take the free-VC pick and the credit count from one downstream
        // occupancy read per direction (identical values to the
        // `free_downstream_vc` + `downstream_credits` pair).
        let range = core.cfg().vc_range_for_class(req.class.index());
        let mut best: Option<(usize, Direction, usize)> = None;
        let mut ties = 0usize;
        for dir in core.productive_dirs(req.at, req.dst).iter() {
            let Some(nbr) = core.neighbor(req.at, dir) else {
                continue;
            };
            let (vc, credits) = core
                .input(nbr, Port::Dir(dir.opposite()).index())
                .free_vc_and_credits(range.clone());
            if let Some(vc) = vc {
                match best {
                    Some((b, _, _)) if credits < b => {}
                    Some((b, _, _)) if credits == b => {
                        // Reservoir-style uniform tie-break.
                        ties += 1;
                        if self.rng.range(0, ties + 1) == 0 {
                            best = Some((credits, dir, vc));
                        }
                    }
                    _ => {
                        best = Some((credits, dir, vc));
                        ties = 0;
                    }
                }
            }
        }
        best.map(|(_, dir, vc)| RouteDecision {
            out_port: Port::Dir(dir),
            out_vc: vc,
        })
    }
}

/// West-first partially-adaptive routing (used by TFC and as the escape
/// discipline). All westward correction happens first; once the packet no
/// longer needs to go west, it may adaptively pick among the remaining
/// productive directions. West-first forbids every turn into West, which
/// breaks all cycles: deadlock-free.
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

    /// Directions admissible under west-first from `at` toward `dst`
    /// (delegates to [`introspect::west_first`], the set `noc-prove`
    /// certifies).
    pub fn admissible(core: &NetworkCore, at: NodeId, dst: NodeId) -> Vec<Direction> {
        introspect::west_first(core.mesh(), at, dst)
    }
}

impl RoutingPolicy for WestFirst {
    fn name(&self) -> &'static str {
        "west-first"
    }

    fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
        if let Some(d) = local_if_arrived(req) {
            return Some(d);
        }
        let class = req.class.index();
        let mut best: Option<(usize, Direction, usize)> = None;
        for dir in Self::admissible(core, req.at, req.dst) {
            if let Some(vc) = free_downstream_vc(core, req.at, dir, class) {
                let credits = downstream_credits(core, req.at, dir, class);
                let better = match best {
                    Some((b, _, _)) => credits > b || (credits == b && self.rng.chance(0.5)),
                    None => true,
                };
                if better {
                    best = Some((credits, dir, vc));
                }
            }
        }
        best.map(|(_, dir, vc)| RouteDecision {
            out_port: Port::Dir(dir),
            out_vc: vc,
        })
    }

    fn desired_ports(&self, core: &NetworkCore, req: &RouteReq) -> Vec<Port> {
        if req.dst == req.at {
            vec![Port::Local]
        } else {
            Self::admissible(core, req.at, req.dst)
                .into_iter()
                .map(Port::Dir)
                .collect()
        }
    }
}

/// Duato escape-VC routing: within each VN, VC 0 is the escape channel
/// routed deterministically (XY, a subset of west-first as configured in
/// the paper); the remaining VCs are fully adaptive. A packet may always
/// fall back into the escape channel, which guarantees network-level
/// deadlock freedom.
#[derive(Debug, Clone)]
pub struct EscapeVcRouting {
    adaptive: FullyAdaptive,
}

impl EscapeVcRouting {
    /// Creates the policy with a deterministic tie-break stream.
    pub fn new(seed: u64) -> Self {
        EscapeVcRouting {
            adaptive: FullyAdaptive::new(seed),
        }
    }

    /// The escape VC index for a class at the current configuration.
    pub fn escape_vc(core: &NetworkCore, class_index: usize) -> usize {
        core.cfg().vc_range_for_class(class_index).start
    }
}

impl RoutingPolicy for EscapeVcRouting {
    fn name(&self) -> &'static str {
        "escape-vc"
    }

    fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
        if let Some(d) = local_if_arrived(req) {
            return Some(d);
        }
        let class = req.class.index();
        let range = core.cfg().vc_range_for_class(class);
        let escape = range.start;
        // Adaptive attempt: any productive direction, non-escape VCs only.
        let mesh = core.mesh();
        let mut best: Option<(usize, Direction, usize)> = None;
        for dir in core.productive_dirs(req.at, req.dst).iter() {
            if let Some(nbr) = core.neighbor(req.at, dir) {
                let iu = core.input(nbr, Port::Dir(dir.opposite()).index());
                let adaptive_range = (escape + 1)..range.end;
                if let Some(vc) = iu.free_vc_in(adaptive_range.clone()) {
                    let credits = iu.free_vcs_in(adaptive_range);
                    if best.map(|(b, _, _)| credits > b).unwrap_or(true) {
                        best = Some((credits, dir, vc));
                    }
                }
            }
        }
        if let Some((_, dir, vc)) = best {
            return Some(RouteDecision {
                out_port: Port::Dir(dir),
                out_vc: vc,
            });
        }
        // Escape fallback: deterministic XY into the escape VC.
        let dir = mesh.xy_next(req.at, req.dst)?;
        let nbr = core.neighbor(req.at, dir)?;
        let iu = core.input(nbr, Port::Dir(dir.opposite()).index());
        iu.is_free(escape).then_some(RouteDecision {
            out_port: Port::Dir(dir),
            out_vc: escape,
        })
    }

    fn desired_ports(&self, core: &NetworkCore, req: &RouteReq) -> Vec<Port> {
        self.adaptive.desired_ports(core, req)
    }
}

/// North-last partially-adaptive routing: a packet may adaptively use
/// East/West/South, but may only head North once no other productive
/// direction remains (with minimal routing: once it is in the
/// destination column). All turns out of North are thereby eliminated,
/// which breaks every cycle: deadlock-free without VCs or detection.
#[derive(Debug, Clone)]
pub struct NorthLast {
    rng: DetRng,
}

impl NorthLast {
    /// Creates the policy with a deterministic tie-break stream.
    pub fn new(seed: u64) -> Self {
        NorthLast {
            rng: DetRng::new(seed),
        }
    }

    /// Directions admissible under north-last from `at` toward `dst`
    /// (delegates to [`introspect::north_last`], the set `noc-prove`
    /// certifies).
    pub fn admissible(core: &NetworkCore, at: NodeId, dst: NodeId) -> Vec<Direction> {
        introspect::north_last(core.mesh(), at, dst)
    }
}

impl RoutingPolicy for NorthLast {
    fn name(&self) -> &'static str {
        "north-last"
    }

    fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
        if req.dst == req.at {
            return Some(RouteDecision {
                out_port: Port::Local,
                out_vc: 0,
            });
        }
        let class = req.class.index();
        let mut best: Option<(usize, Direction, usize)> = None;
        for dir in Self::admissible(core, req.at, req.dst) {
            if let Some(vc) = free_downstream_vc(core, req.at, dir, class) {
                let credits = downstream_credits(core, req.at, dir, class);
                let better = match best {
                    Some((b, _, _)) => credits > b || (credits == b && self.rng.chance(0.5)),
                    None => true,
                };
                if better {
                    best = Some((credits, dir, vc));
                }
            }
        }
        best.map(|(_, dir, vc)| RouteDecision {
            out_port: Port::Dir(dir),
            out_vc: vc,
        })
    }

    fn desired_ports(&self, core: &NetworkCore, req: &RouteReq) -> Vec<Port> {
        if req.dst == req.at {
            vec![Port::Local]
        } else {
            Self::admissible(core, req.at, req.dst)
                .into_iter()
                .map(Port::Dir)
                .collect()
        }
    }
}

/// Odd-even turn-model routing (Chiu): partially adaptive and
/// deadlock-free by restricting *where* turns may occur instead of
/// *which* turns exist —
///
/// * EN and ES turns are forbidden at nodes in even columns;
/// * NW and SW turns are forbidden at nodes in odd columns.
///
/// Minimal-routing corollaries implemented here: an eastbound packet
/// with remaining vertical offset must not enter an even destination
/// column from the west (it could never turn there), and a packet that
/// still needs to travel west may only move vertically in even columns
/// (the later N/S→W turn must be legal).
#[derive(Debug, Clone)]
pub struct OddEven {
    rng: DetRng,
}

impl OddEven {
    /// Creates the policy with a deterministic tie-break stream.
    pub fn new(seed: u64) -> Self {
        OddEven {
            rng: DetRng::new(seed),
        }
    }

    /// Directions admissible under the odd-even rules (delegates to
    /// [`introspect::odd_even`], the set `noc-prove` certifies).
    pub fn admissible(
        core: &NetworkCore,
        at: NodeId,
        dst: NodeId,
        in_port: Port,
    ) -> Vec<Direction> {
        introspect::odd_even(core.mesh(), at, dst, in_port)
    }
}

impl RoutingPolicy for OddEven {
    fn name(&self) -> &'static str {
        "odd-even"
    }

    fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
        if req.dst == req.at {
            return Some(RouteDecision {
                out_port: Port::Local,
                out_vc: 0,
            });
        }
        let class = req.class.index();
        let mut best: Option<(usize, Direction, usize)> = None;
        for dir in Self::admissible(core, req.at, req.dst, req.in_port) {
            if let Some(vc) = free_downstream_vc(core, req.at, dir, class) {
                let credits = downstream_credits(core, req.at, dir, class);
                let better = match best {
                    Some((b, _, _)) => credits > b || (credits == b && self.rng.chance(0.5)),
                    None => true,
                };
                if better {
                    best = Some((credits, dir, vc));
                }
            }
        }
        best.map(|(_, dir, vc)| RouteDecision {
            out_port: Port::Dir(dir),
            out_vc: vc,
        })
    }

    fn desired_ports(&self, core: &NetworkCore, req: &RouteReq) -> Vec<Port> {
        if req.dst == req.at {
            vec![Port::Local]
        } else {
            Self::admissible(core, req.at, req.dst, req.in_port)
                .into_iter()
                .map(Port::Dir)
                .collect()
        }
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
    fn west_first_forces_west() {
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

    #[test]
    fn desired_ports_default_is_productive() {
        let mut c = core(0, 2);
        let pkt = req_between(&mut c, 5, 10);
        let pol = FullyAdaptive::new(1);
        let ports = pol.desired_ports(&c, &RouteReq::new(&c, NodeId::new(5), Port::Local, 0, pkt));
        assert_eq!(ports.len(), 2);
    }

    #[test]
    fn north_last_defers_north() {
        let mut c = core(0, 2);
        // (2,2) -> (3,0): productive {E, N}; north-last must pick E.
        let pkt = req_between(&mut c, 10, 3);
        let mut pol = NorthLast::new(3);
        for _ in 0..10 {
            let dec = route_of(&c, &mut pol, pkt, 10).unwrap();
            assert_eq!(dec.out_port, Port::Dir(Direction::East));
        }
        // Column-aligned: North is the only productive and is allowed.
        let pkt2 = req_between(&mut c, 14, 2); // (2,3) -> (2,0)
        let dec = route_of(&c, &mut pol, pkt2, 14).unwrap();
        assert_eq!(dec.out_port, Port::Dir(Direction::North));
    }

    #[test]
    fn odd_even_turn_rules() {
        let c = core(0, 2);
        let mesh = c.mesh();
        // Travelling east (arrived on the West input port) at an even
        // column: EN/ES forbidden.
        let at_even = mesh.node(2, 2);
        let dst = mesh.node(2, 0); // due north of at_even... use dst with vertical offset
        let dirs = OddEven::admissible(&c, at_even, dst, Port::Dir(Direction::West));
        assert!(
            !dirs.contains(&Direction::North),
            "EN turn must be forbidden at even column: {dirs:?}"
        );
        // Same situation at an odd column: EN allowed.
        let at_odd = mesh.node(1, 2);
        let dst2 = mesh.node(1, 0);
        let dirs = OddEven::admissible(&c, at_odd, dst2, Port::Dir(Direction::West));
        assert!(dirs.contains(&Direction::North));
        // Travelling north at an odd column: NW forbidden.
        let dst3 = mesh.node(0, 2);
        let dirs = OddEven::admissible(&c, at_odd, dst3, Port::Dir(Direction::South));
        assert!(
            !dirs.contains(&Direction::West),
            "NW turn must be forbidden at odd column: {dirs:?}"
        );
        // Injected packets are unrestricted by turn history.
        let dirs = OddEven::admissible(&c, at_odd, dst3, Port::Local);
        assert!(dirs.contains(&Direction::West));
    }

    /// The static-analysis hook must report exactly the direction sets
    /// the live policies advertise: for every `(at, in_port, dst)` on
    /// two mesh shapes, `introspect::route_set` equals the policy's
    /// `desired_ports`. This is what lets `noc-prove` build channel
    /// dependency graphs from the introspection module without drifting
    /// from the simulator.
    #[test]
    fn introspection_matches_policies_exhaustively() {
        use super::introspect::{route_set, PolicyKind};
        for (w, h) in [(4usize, 4usize), (3, 5)] {
            let mut c =
                NetworkCore::new(SimConfig::builder().mesh(w, h).vns(0).vcs_per_vn(2).build());
            let mesh = c.mesh();
            // `PolicyKind::policy` pairs each kind with its live policy
            // (EscapeXy is the escape *lane*'s set, not a policy's).
            let kinds = [
                PolicyKind::Xy,
                PolicyKind::Yx,
                PolicyKind::FullyAdaptive,
                PolicyKind::WestFirst,
                PolicyKind::NorthLast,
                PolicyKind::OddEven,
            ];
            let pkt = req_between(&mut c, 0, 1);
            for kind in &kinds {
                let policy = kind.policy(1);
                for at in 0..mesh.num_nodes() {
                    for dst in 0..mesh.num_nodes() {
                        // Probe every legal input port (turn history).
                        for in_port in Port::all() {
                            if let Port::Dir(d) = in_port {
                                if mesh.neighbor(NodeId::new(at), d).is_none() {
                                    continue;
                                }
                            }
                            let req = RouteReq {
                                at: NodeId::new(at),
                                in_port,
                                vc: 0,
                                pkt,
                                dst: NodeId::new(dst),
                                class: MessageClass::Request,
                            };
                            if at == dst {
                                assert!(
                                    route_set(*kind, mesh, req.at, in_port, req.dst).is_empty(),
                                    "arrived packets must have an empty route set"
                                );
                                continue;
                            }
                            let want: Vec<Port> = policy.desired_ports(&c, &req);
                            let got: Vec<Port> = route_set(*kind, mesh, req.at, in_port, req.dst)
                                .into_iter()
                                .map(Port::Dir)
                                .collect();
                            assert_eq!(
                                got,
                                want,
                                "{} at R{at} in {in_port} dst R{dst} on {w}x{h}",
                                kind.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// The wait set event-driven allocation parks heads on must cover
    /// every direction any policy could grant: for every
    /// `(at, in_port, dst)` on two mesh shapes, `wait_dirs` is the
    /// minimal-direction set and a superset of `route_set` for every
    /// `PolicyKind`.
    #[test]
    fn wait_dirs_cover_every_route_set_exhaustively() {
        use super::introspect::{route_set, wait_dirs, PolicyKind};
        const KINDS: [PolicyKind; 7] = [
            PolicyKind::Xy,
            PolicyKind::Yx,
            PolicyKind::FullyAdaptive,
            PolicyKind::WestFirst,
            PolicyKind::NorthLast,
            PolicyKind::OddEven,
            PolicyKind::EscapeXy,
        ];
        for (w, h) in [(4usize, 4usize), (3, 5)] {
            let mesh = Mesh::new(w, h);
            let xy = |n: NodeId| (mesh.x(n) as u16, mesh.y(n) as u16);
            for at in mesh.nodes() {
                for dst in mesh.nodes() {
                    let wait = wait_dirs(xy(at), xy(dst));
                    assert_eq!(wait.is_empty(), at == dst);
                    assert_eq!(
                        wait.iter().collect::<Vec<_>>(),
                        mesh.productive_dirs(at, dst).iter().collect::<Vec<_>>()
                    );
                    for in_port in Port::all() {
                        for kind in KINDS {
                            for d in route_set(kind, mesh, at, in_port, dst) {
                                assert!(
                                    wait.contains(d),
                                    "{} at {at} in {in_port} dst {dst} on {w}x{h}: \
                                     {d} not a wait direction",
                                    kind.name()
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    /// Every policy shipped here honours the parking contract (TFC's
    /// token-scored west-first is checked in `baselines`).
    #[test]
    fn shipped_policies_honour_the_route_contract() {
        contract::check(&mut DorXy).unwrap();
        contract::check(&mut DorYx).unwrap();
        contract::check(&mut FullyAdaptive::new(1)).unwrap();
        contract::check(&mut WestFirst::new(1)).unwrap();
        contract::check(&mut EscapeVcRouting::new(1)).unwrap();
        contract::check(&mut NorthLast::new(1)).unwrap();
        contract::check(&mut OddEven::new(1)).unwrap();
    }

    /// The checker is not vacuous: a policy that draws a random number
    /// before finding its candidates, or grants off the wait set, fails.
    #[test]
    fn route_contract_checker_catches_violations() {
        #[derive(Debug)]
        struct DrawsFirst(FullyAdaptive);
        impl RoutingPolicy for DrawsFirst {
            fn name(&self) -> &'static str {
                "draws-first"
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
            fn name(&self) -> &'static str {
                "occupancy-dependent"
            }
            // Grantable set depends on occupancy: VC 1 only while VC 0
            // is taken.
            fn route(&mut self, core: &NetworkCore, req: &RouteReq) -> Option<RouteDecision> {
                let d = core.productive_dirs(req.at, req.dst).iter().next()?;
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
    }

    /// Empirical deadlock-freedom soak for the turn-model policies: heavy
    /// adversarial traffic, a single VC, no resolution scheme — if the
    /// turn rules were wrong, the network would wedge.
    #[test]
    fn turn_models_never_wedge() {
        use crate::regular::{advance, AdvanceCtx};
        for which in ["north-last", "odd-even", "west-first"] {
            let mut c = NetworkCore::new(
                noc_core::config::SimConfig::builder()
                    .mesh(4, 4)
                    .vns(0)
                    .vcs_per_vn(1)
                    .seed(7)
                    .build(),
            );
            let mut nl = NorthLast::new(5);
            let mut oe = OddEven::new(5);
            let mut wf = WestFirst::new(5);
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
                let pol: &mut dyn RoutingPolicy = match which {
                    "north-last" => &mut nl,
                    "odd-even" => &mut oe,
                    _ => &mut wf,
                };
                advance(&mut c, pol, &AdvanceCtx::default());
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
            assert!(consumed > 1_000, "{which}: too little delivered");
            assert!(
                c.cycle() - last_consumed < 500,
                "{which} wedged: no consumption for {} cycles",
                c.cycle() - last_consumed
            );
        }
    }
}
