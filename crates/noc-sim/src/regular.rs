//! The regular pass: shared credit-based virtual cut-through pipeline.
//!
//! Every scheme's per-cycle step ultimately calls [`advance`], which
//! performs one cycle of the paper's "regular pass" (§III-A): route
//! computation + VC allocation for new head flits, switch allocation and
//! traversal (one flit per input and output port per cycle), ejection
//! into per-class NI queues, and injection from NI queues — all under the
//! single-packet-per-VC VCT discipline of Table II.
//!
//! Schemes influence the pipeline through [`AdvanceCtx`]: FastPass
//! suppresses the links its lanes occupy this cycle (the lookahead signal
//! of §III-C5) and preempts ejection ports; DRAIN freezes regular
//! movement during drain epochs.

use crate::arena::{m_arrived, m_len, m_out_vc, m_sent, NO_OUT_VC};
use crate::network::{LinkSet, NetworkCore};
use crate::ni::{EjRefusal, EjectEntry, InjStream};
use crate::probe::Phase;
use crate::routing::{introspect, RouteReq, RoutingPolicy};
use crate::vc::VcOccupant;
use noc_core::packet::{MessageClass, PacketId};
use noc_core::topology::{LinkId, NodeId, Port, DIRECTIONS, NUM_PORTS};
use noc_trace::{trace, StallCause, TraceEvent};

/// Per-cycle context handed to [`advance`] by the owning scheme.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdvanceCtx<'a> {
    /// Links a FastPass flight (or similar overlay) occupies this cycle;
    /// regular flits are not granted these links.
    pub suppressed: Option<&'a LinkSet>,
    /// Per-node flags: the ejection port is preempted by an overlay
    /// packet this cycle (ongoing regular ejections stall, §Qn3).
    pub eject_blocked: Option<&'a [bool]>,
    /// Freeze all regular movement (used by DRAIN during drain epochs).
    pub freeze: bool,
}

impl AdvanceCtx<'_> {
    fn link_suppressed(
        &self,
        core: &NetworkCore,
        node: NodeId,
        d: noc_core::topology::Direction,
    ) -> bool {
        match (self.suppressed, core.link(node, d)) {
            (Some(set), Some(l)) => set.contains(l),
            _ => false,
        }
    }

    fn eject_blocked_at(&self, node: NodeId) -> bool {
        self.eject_blocked.is_some_and(|v| v[node.index()])
    }
}

/// Advances the regular pass by one cycle.
///
/// Call exactly once per simulated cycle (schemes wrap it); it ends by
/// applying all staged flit arrivals, so the network is in a consistent
/// end-of-cycle state afterwards.
///
/// The loop is activity-proportional: it snapshots the *active set* —
/// nodes with ≥1 occupied router VC or injection-side NI work — in
/// rotating order at cycle start and runs every stage over only that
/// worklist. The snapshot itself is activity-proportional too
/// ([`NetworkCore::active_nodes`] walks the occupied-node and live-NI
/// words instead of asking all nodes); debug builds cross-check it
/// against the dense scan every cycle.
///
/// Skipping an inactive node is behavior-identical to
/// processing it: with no occupants, no stage finds a head to route, a
/// flit to move, or an ejection candidate, every round-robin arbiter sees
/// an all-false request vector (which leaves its pointer untouched — see
/// `arbiter::tests::grants_nothing_when_idle`), and an idle NI injects
/// nothing. Nodes that *become* active mid-cycle (a downstream VC
/// reservation, a staged flit) are no-ops for the rest of this cycle in
/// the unskipped pipeline too — reservations have no arrived flits and
/// staged arrivals apply only at end of cycle — so the snapshot loses
/// nothing. The worklist is a scratch buffer owned by [`NetworkCore`] and
/// the switch-request words are copied to the stack per router, making
/// the steady-state loop allocation-free.
pub fn advance(core: &mut NetworkCore, policy: &mut dyn RoutingPolicy, ctx: &AdvanceCtx<'_>) {
    if !ctx.freeze {
        let mut nodes = core.take_advance_scratch();
        nodes.clear();
        nodes.extend(core.active_nodes());
        let dense = core.nodes_rotating().filter(|&n| core.node_active(n));
        debug_assert!(
            nodes.iter().copied().eq(dense),
            "bitset worklist diverged from the dense active-set scan"
        );
        core.probe_begin(Phase::RouteAlloc);
        for &n in &nodes {
            route_and_allocate(core, policy, n);
        }
        core.probe_end(Phase::RouteAlloc);
        core.probe_begin(Phase::SwitchAlloc);
        for &n in &nodes {
            switch_traversal(core, ctx, n);
        }
        core.probe_end(Phase::SwitchAlloc);
        core.probe_begin(Phase::Inject);
        for &n in &nodes {
            injection(core, n);
        }
        core.probe_end(Phase::Inject);
        core.put_advance_scratch(nodes);
    }
    core.probe_begin(Phase::ApplyStaged);
    core.apply_staged();
    core.probe_end(Phase::ApplyStaged);
}

/// Route computation + downstream VC allocation for head packets that do
/// not yet hold a route.
///
/// Event-driven (`DESIGN.md`, "Event-driven allocation"): the scan
/// visits only heads that can act. A head whose every wait-direction VC
/// is occupied — or free but already refused to it by the policy — is
/// *parked*: the policy cannot grant it ([`RoutingPolicy::route`]'s
/// contract), so it leaves this scan until `VcArena::take` frees a VC it
/// waits on and un-parks it. Skipping a parked head is
/// behaviour-identical to asking its policy again: the call would return
/// `None` and change nothing.
fn route_and_allocate(core: &mut NetworkCore, policy: &mut dyn RoutingPolicy, node: NodeId) {
    let ni = node.index();
    // Active only through its NI: no buffered head to route.
    if core.arena.node_occupied(ni) == 0 {
        return;
    }
    let counters = core.trace.counters_on();
    for p in 0..NUM_PORTS {
        // Heads present (`ready`; an unrouted occupant has sent nothing)
        // that do not yet hold a route, minus the parked ones. The
        // snapshot stays valid: this loop only routes or parks the
        // current slot and installs reservations at *neighbor* routers,
        // and nothing here frees a VC (the only thing that un-parks).
        let pw = core.arena.port_words(core.arena.word(ni, p));
        let heads = pw.ready & !pw.routed;
        let mut mask = heads & !pw.parked;
        if counters && pw.parked != 0 {
            if core.trace.events_on() {
                // Full tracing keeps one Stall event per blocked head in
                // scan order: walk the parked heads too.
                mask = heads;
            } else {
                trace_route_blocked_parked(core, node, pw.parked.count_ones());
            }
        }
        while mask != 0 {
            let vc = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let s = core.arena.slot(ni, p, vc);
            debug_assert_eq!(m_sent(core.arena.meta(s)), 0, "unrouted slot sent a flit");
            let pkt_id = core.arena.pkt(s);
            if pw.parked & (1 << vc) != 0 {
                trace_route_blocked(core, node, pkt_id);
                continue;
            }
            // One store lookup for the fields routing reads; no clone.
            let req = RouteReq::new(core, node, Port::from_index(p), vc, pkt_id);
            // Live occupancy check before paying for the `dyn` call —
            // for a fresh head and for one a VC free just woke alike.
            let dirs = introspect::wait_dirs(core.xy(node), core.xy(req.dst));
            let vn = core.arena.vn_of_class(req.class.index());
            // At its destination a head always gets `Local`: never parks.
            let at_dst = dirs.is_empty();
            let granted = if !at_dst && core.arena.wait_blocked(ni, s, dirs, vn) {
                None
            } else {
                let granted = policy.route(core, &req);
                if granted.is_none() && !at_dst {
                    // VCs are free on a wait direction but the policy
                    // will not grant them to this head (turn model,
                    // escape discipline): remember that, so only a free
                    // of some *other* VC brings the head back.
                    core.arena.note_refusal(ni, s, dirs, vn);
                }
                granted
            };
            let Some(dec) = granted else {
                if !at_dst {
                    core.arena.park(ni, p, vc, dirs, vn);
                }
                if counters {
                    trace_route_blocked(core, node, pkt_id);
                }
                continue;
            };
            match dec.out_port {
                Port::Local => {
                    debug_assert_eq!(req.dst, node, "local route for a non-arrived packet");
                    core.arena.set_route(ni, p, vc, Port::Local);
                    if core.trace.events_on() {
                        trace_vc_alloc(core, node, pkt_id, Port::Local.index() as u8, 0);
                    }
                }
                Port::Dir(d) => {
                    let nbr = core
                        .neighbor(node, d)
                        .expect("policy routed off the mesh edge");
                    let in_port = Port::Dir(d.opposite()).index();
                    let cycle = core.cycle();
                    let len = core.store.get(pkt_id).len_flits;
                    // Reserve the downstream VC immediately so no other
                    // head can double-book it this cycle.
                    core.arena.install(
                        nbr.index(),
                        in_port,
                        dec.out_vc,
                        VcOccupant::reserved(pkt_id, len, cycle),
                    );
                    core.arena
                        .set_route_vc(ni, p, vc, Port::Dir(d), dec.out_vc as u8);
                    if core.trace.events_on() {
                        trace_vc_alloc(
                            core,
                            node,
                            pkt_id,
                            Port::Dir(d).index() as u8,
                            dec.out_vc as u8,
                        );
                    }
                }
            }
        }
    }
}

/// Switch allocation + traversal for one router: ejection first (Local
/// output), then the four direction outputs, at most one flit per input
/// and per output port.
///
/// The request words are *maintained*, not gathered: the arena keeps, per
/// output port, the set of flit-ready occupants routed there
/// (`VcArena::switch_requests`; `DESIGN.md`, "Switch requests are
/// maintained, not gathered"), so this stage loads five words and works
/// on stack words from there. A requester that loses arbitration is not
/// parked — it holds its downstream VC already and must be seen by the
/// round-robin every cycle — it simply stays in its word.
///
/// A router's whole requester space — index `p * vcs + vc` — fits one
/// `u64`: `SimConfig::validate` bounds `NUM_PORTS * vcs_per_port` by 64
/// (12 VCs per port, Table II's largest configuration).
fn switch_traversal(core: &mut NetworkCore, ctx: &AdvanceCtx<'_>, node: NodeId) {
    let ni = node.index();
    // A router with no buffered packets has nothing to eject or forward
    // (injection streams its own staged flits separately).
    if core.arena.node_occupied(ni) == 0 {
        return;
    }
    let vcs = core.arena.vcs_per_port();
    // Requesters per output port.
    let out_reqs = core.arena.switch_requests(ni);
    #[cfg(debug_assertions)]
    assert_eq!(
        out_reqs,
        gather_switch_requests(core, ni),
        "maintained switch requests diverged from the gather at {node}"
    );

    // Requesters already consumed: an input port forwards at most one
    // flit per cycle, so a granted port's whole bit range is retired from
    // the remaining output arbitrations.
    let mut used_mask = 0u64;

    // With no eject lock and no Local-routed requester the stage is a
    // no-op even under tracing (`trace_eject_preempted` requires a lock;
    // `trace_eject_stalls` scans exactly the Local request set), so
    // it can be skipped without perturbing stats or traces.
    let local_reqs = out_reqs[Port::Local.index()];
    if local_reqs != 0 || core.router(node).eject_lock.is_some() {
        core.probe_begin(Phase::Eject);
        eject_stage(core, ctx, node, &mut used_mask, local_reqs, vcs);
        core.probe_end(Phase::Eject);
    }

    for d in DIRECTIONS {
        let out_idx = Port::Dir(d).index();
        // No flit-ready occupant is routed this way: nothing to grant,
        // and nothing a suppressed link could be stalling.
        if out_reqs[out_idx] == 0 {
            continue;
        }
        let Some(nbr) = core.neighbor(node, d) else {
            continue;
        };
        if ctx.link_suppressed(core, node, d) {
            if core.trace.counters_on() {
                trace_suppressed_stalls(core, node, out_reqs[out_idx]);
            }
            continue;
        }
        let reqs = out_reqs[out_idx] & !used_mask;
        if reqs == 0 {
            continue;
        }
        let Some(winner) = core.router_mut(node).sa_rr[out_idx].grant_word(reqs) else {
            continue;
        };
        if core.trace.counters_on() {
            trace_sa_losers(core, node, reqs, winner);
        }
        let (p, vc) = core.arena.sa_decode(winner);
        used_mask |= ((1u64 << vcs) - 1) << (p * vcs);
        send_flit(core, node, p, vc, nbr, d);
    }
}

/// The definition the maintained request words are checked against, at
/// every visited router of every cycle in debug builds: one word-at-a-time
/// pass over the router's `ready & routed` words (flit-ready routed
/// occupants: every slot visited is a requester), each slot filed under
/// the output port its route names.
#[cfg(debug_assertions)]
fn gather_switch_requests(core: &NetworkCore, ni: usize) -> [u64; NUM_PORTS] {
    let vcs = core.arena.vcs_per_port();
    let mut out_reqs = [0u64; NUM_PORTS];
    for p in 0..NUM_PORTS {
        let pw = core.arena.port_words(core.arena.word(ni, p));
        let mut mask = pw.ready & pw.routed;
        while mask != 0 {
            let vc = mask.trailing_zeros() as usize;
            mask &= mask - 1;
            let m = core.arena.meta(core.arena.slot(ni, p, vc));
            out_reqs[crate::arena::m_route(m) as usize] |= 1 << (p * vcs + vc);
        }
    }
    out_reqs
}

/// Ejection: continue the locked stream or grant a new one.
/// `local_reqs` is the request word of Local-routed flit-ready slots;
/// candidates are still filtered by NI admission here, bit by bit.
fn eject_stage(
    core: &mut NetworkCore,
    ctx: &AdvanceCtx<'_>,
    node: NodeId,
    used_mask: &mut u64,
    local_reqs: u64,
    vcs: usize,
) {
    let ni = node.index();
    if ctx.eject_blocked_at(node) {
        if core.trace.counters_on() {
            trace_eject_preempted(core, node);
        }
        return; // Preempted by an overlay packet; the lock (if any) stalls.
    }
    if let Some((p, vc)) = core.router(node).eject_lock {
        debug_assert!(core.arena.is_occupied(ni, p, vc), "eject lock on empty VC");
        let m = core.arena.meta(core.arena.slot(ni, p, vc));
        if m_sent(m) < m_arrived(m) {
            eject_flit(core, node, p, vc);
            *used_mask |= ((1u64 << vcs) - 1) << (p * vcs);
        }
        return; // Port held until the tail leaves.
    }
    // New grant.
    if core.trace.counters_on() {
        trace_eject_stalls(core, node, local_reqs);
    }
    let mut reqs = 0u64;
    let mut m = local_reqs;
    while m != 0 {
        let b = m.trailing_zeros() as usize;
        m &= m - 1;
        let pkt = requester_pkt(core, node, b);
        let class = core.store.get(pkt).class;
        if core.ni(node).ej_can_accept(class, pkt) {
            reqs |= 1 << b;
        }
    }
    if reqs == 0 {
        return;
    }
    let out_idx = Port::Local.index();
    let Some(winner) = core.router_mut(node).sa_rr[out_idx].grant_word(reqs) else {
        return;
    };
    if core.trace.counters_on() {
        trace_sa_losers(core, node, reqs, winner);
    }
    let (p, vc) = core.arena.sa_decode(winner);
    debug_assert!(
        core.arena.is_occupied(ni, p, vc),
        "switch-allocation winner must be occupied"
    );
    let pkt_id = core.arena.pkt(core.arena.slot(ni, p, vc));
    let class = core.store.get(pkt_id).class;
    core.ni_mut(node).ej_begin(class, pkt_id);
    core.router_mut(node).eject_lock = Some((p, vc));
    if core.trace.events_on() {
        trace_sa_grant(core, node, pkt_id, Port::Local.index() as u8);
    }
    eject_flit(core, node, p, vc);
    *used_mask |= ((1u64 << vcs) - 1) << (p * vcs);
}

/// Moves one flit of `(node, p, vc)`'s occupant across link `d` to `nbr`.
fn send_flit(
    core: &mut NetworkCore,
    node: NodeId,
    p: usize,
    vc: usize,
    nbr: NodeId,
    d: noc_core::topology::Direction,
) {
    let cycle = core.cycle();
    debug_assert!(
        core.arena.is_occupied(node.index(), p, vc),
        "granted flit from empty VC"
    );
    let (s, m) = core.arena.flit_sent(node.index(), p, vc);
    core.arena.stamp_progress(s, cycle);
    let pkt_id = core.arena.pkt(s);
    let out_vc_raw = m_out_vc(m);
    assert!(
        out_vc_raw != NO_OUT_VC,
        "direction route without VC allocation"
    );
    let out_vc = out_vc_raw as usize;
    let first = m_sent(m) == 1;
    let drained = m_sent(m) == m_len(m);
    if first {
        core.store.get_mut(pkt_id).hops += 1;
        if core.trace.events_on() {
            trace_sa_grant(core, node, pkt_id, Port::Dir(d).index() as u8);
        }
    }
    if core.trace.counters_on() {
        if let Some(l) = core.link(node, d) {
            trace_link_traverse(core, node, pkt_id, l);
        }
    }
    core.stage_flit(nbr, Port::Dir(d.opposite()), out_vc);
    if drained {
        core.mark_drained(node, Port::from_index(p), vc);
    }
}

/// Streams one flit into the NI; finishes the delivery on the tail.
fn eject_flit(core: &mut NetworkCore, node: NodeId, p: usize, vc: usize) {
    let cycle = core.cycle();
    // Grants come from the switch-request words, so occupancy is
    // structural here (and in `send_flit` below); debug builds re-check.
    debug_assert!(
        core.arena.is_occupied(node.index(), p, vc),
        "ejecting VC must be occupied"
    );
    let (s, m) = core.arena.flit_sent(node.index(), p, vc);
    core.arena.stamp_progress(s, cycle);
    let pkt_id = core.arena.pkt(s);
    let drained = m_sent(m) == m_len(m);
    if drained {
        core.mark_drained(node, Port::from_index(p), vc);
        let ready = cycle + core.cfg().ni_consume_cycles;
        let class = {
            let pkt = core.store.get_mut(pkt_id);
            pkt.eject_cycle.set(cycle);
            pkt.class
        };
        core.ni_mut(node)
            .ej_commit(class, EjectEntry { pkt: pkt_id, ready });
        core.router_mut(node).eject_lock = None;
        if core.trace.counters_on() {
            trace_ejected(core, node, pkt_id, class.index());
        }
    }
}

/// NI-side injection: regeneration, source→queue refill, and streaming
/// one flit per cycle over the injection link into a Local input VC.
fn injection(core: &mut NetworkCore, node: NodeId) {
    if !core.ni(node).has_work() {
        // Node is active only because packets transit its router: no
        // stream to continue, nothing to regenerate, refill or grant.
        return;
    }
    let cycle = core.cycle();
    // MSHR regeneration of dropped requests.
    let regenerated = core.ni_mut(node).take_regenerated(cycle);
    for pkt in regenerated {
        let class = core.store.get(pkt).class;
        core.ni_mut(node).push_source_front(class, pkt);
    }
    core.refill_inj(node);

    // Continue an active injection stream: one flit per cycle.
    if let Some(stream) = core.ni(node).inj_stream {
        core.stage_flit(node, Port::Local, stream.vc);
        let ni = core.ni_mut(node);
        let s = ni
            .inj_stream
            .as_mut()
            .expect("stream checked Some immediately above");
        s.flits_sent += 1;
        if s.flits_sent == s.len {
            ni.inj_stream = None;
        }
        return;
    }

    // Start a new stream: round-robin over classes with a waiting head
    // packet and a free Local-port VC in the class's range.
    let mut reqs = [false; noc_core::packet::NUM_CLASSES];
    for (c, req) in reqs.iter_mut().enumerate() {
        let class = MessageClass::from_index(c);
        if let Some(head) = core.ni(node).inj_head(class) {
            let range = core.cfg().vc_range_for_class(c);
            *req = core
                .input(node, Port::Local.index())
                .free_vc_in(range)
                .is_some();
            if !*req && core.trace.counters_on() {
                trace_no_free_vc(core, node, head);
            }
        }
    }
    let Some(c) = core.router_mut(node).inj_class_rr.grant(&reqs) else {
        return;
    };
    let class = MessageClass::from_index(c);
    let range = core.cfg().vc_range_for_class(c);
    let vc = core
        .input(node, Port::Local.index())
        .free_vc_in(range)
        .expect("request vector promised a free VC");
    let pkt_id = core
        .ni_mut(node)
        .pop_inj(class)
        .expect("queue head vanished");
    let len = {
        let pkt = core.store.get_mut(pkt_id);
        pkt.inject_cycle.set(cycle);
        pkt.len_flits
    };
    core.arena.install(
        node.index(),
        Port::Local.index(),
        vc,
        VcOccupant::reserved(pkt_id, len, cycle),
    );
    core.stage_flit(node, Port::Local, vc);
    if core.trace.counters_on() {
        trace_injected(core, node, pkt_id, c, vc as u8);
    }
    core.ni_mut(node).inj_stream = if len > 1 {
        Some(InjStream {
            pkt: pkt_id,
            vc,
            flits_sent: 1,
            len,
        })
    } else {
        None
    };
}

// ---- tracing helpers ------------------------------------------------------
//
// Every hook below is `#[cold] #[inline(never)]` and reached only through
// a `counters_on()` / `events_on()` gate at the call site, so the hot
// functions pay exactly one predicted-not-taken branch per site when
// tracing is off — the event/counter code never bloats their bodies.

/// Records a `RouteBlocked` stall: a head has no grantable output this
/// cycle (parked, or refused by the routing policy).
#[cold]
#[inline(never)]
fn trace_route_blocked(core: &mut NetworkCore, node: NodeId, pkt: PacketId) {
    core.trace.count_stall(node, StallCause::RouteBlocked);
    trace!(core.trace, node, || TraceEvent::Stall {
        pkt,
        cause: StallCause::RouteBlocked,
    });
}

/// Counts one `RouteBlocked` stall for each of the `n` heads parked on a
/// port, in one add (counters-only tracing: no per-head event to keep).
#[cold]
#[inline(never)]
fn trace_route_blocked_parked(core: &mut NetworkCore, node: NodeId, n: u32) {
    core.trace
        .count_stall_n(node, StallCause::RouteBlocked, n as u64);
}

/// Records a `VcAlloc` event (route computed + downstream VC reserved).
#[cold]
#[inline(never)]
fn trace_vc_alloc(core: &mut NetworkCore, node: NodeId, pkt: PacketId, out_port: u8, out_vc: u8) {
    trace!(core.trace, node, || TraceEvent::VcAlloc {
        pkt,
        out_port,
        out_vc,
    });
}

/// Records an `SaGrant` event (first flit of a packet wins an output).
#[cold]
#[inline(never)]
fn trace_sa_grant(core: &mut NetworkCore, node: NodeId, pkt: PacketId, out_port: u8) {
    trace!(core.trace, node, || TraceEvent::SaGrant { pkt, out_port });
}

/// Counts a regular-pipeline link traversal and records its event.
#[cold]
#[inline(never)]
fn trace_link_traverse(core: &mut NetworkCore, node: NodeId, pkt: PacketId, link: LinkId) {
    core.trace.count_link(node, false);
    trace!(core.trace, node, || TraceEvent::LinkTraverse { pkt, link });
}

/// Counts a completed tail ejection and records its event.
#[cold]
#[inline(never)]
fn trace_ejected(core: &mut NetworkCore, node: NodeId, pkt: PacketId, class: usize) {
    core.trace.count_eject(node, class);
    trace!(core.trace, node, || TraceEvent::Eject { pkt });
}

/// Counts a packet injection and records its event.
#[cold]
#[inline(never)]
fn trace_injected(core: &mut NetworkCore, node: NodeId, pkt: PacketId, class: usize, vc: u8) {
    core.trace.count_inject(node, class);
    trace!(core.trace, node, || TraceEvent::Inject { pkt, vc });
}

/// Records a `NoFreeVc` stall: a class head is waiting on a Local VC.
#[cold]
#[inline(never)]
fn trace_no_free_vc(core: &mut NetworkCore, node: NodeId, pkt: PacketId) {
    core.trace.count_stall(node, StallCause::NoFreeVc);
    trace!(core.trace, node, || TraceEvent::Stall {
        pkt,
        cause: StallCause::NoFreeVc,
    });
}

/// Records a `LinkSuppressed` stall for every flit that was ready to
/// cross a suppressed link this cycle: `reqs` is that output port's whole
/// request word. Cold: only reached when tracing counters are enabled,
/// and alloc-free like the rest of the file.
#[cold]
#[inline(never)]
fn trace_suppressed_stalls(core: &mut NetworkCore, node: NodeId, reqs: u64) {
    let mut m = reqs;
    while m != 0 {
        let pkt = requester_pkt(core, node, m.trailing_zeros() as usize);
        m &= m - 1;
        core.trace.count_stall(node, StallCause::LinkSuppressed);
        trace!(core.trace, node, || TraceEvent::Stall {
            pkt,
            cause: StallCause::LinkSuppressed,
        });
    }
}

/// The packet behind requester index `idx` of one of `node`'s request
/// words (requests are only raised for occupied slots).
fn requester_pkt(core: &NetworkCore, node: NodeId, idx: usize) -> PacketId {
    // `idx = p * vcs + vc` is the slot's offset within the node.
    core.arena.pkt(core.arena.slot(node.index(), 0, 0) + idx)
}

/// Records an `SaLost` stall for every requester that lost this output
/// port's switch arbitration to `winner`. `reqs` is the request
/// word the arbiter saw. Cold: tracing-only.
#[cold]
#[inline(never)]
fn trace_sa_losers(core: &mut NetworkCore, node: NodeId, reqs: u64, winner: usize) {
    let mut m = reqs & !(1 << winner);
    while m != 0 {
        let pkt = requester_pkt(core, node, m.trailing_zeros() as usize);
        m &= m - 1;
        core.trace.count_stall(node, StallCause::SaLost);
        trace!(core.trace, node, || TraceEvent::Stall {
            pkt,
            cause: StallCause::SaLost,
        });
    }
}

/// Records `EjBackpressure` / `EjReserved` stalls for arrived packets —
/// `local_reqs`, the Local output's request word — whose ejection the NI
/// refused this cycle. Cold: tracing-only.
#[cold]
#[inline(never)]
fn trace_eject_stalls(core: &mut NetworkCore, node: NodeId, local_reqs: u64) {
    let mut m = local_reqs;
    while m != 0 {
        let pkt = requester_pkt(core, node, m.trailing_zeros() as usize);
        m &= m - 1;
        let class = core.store.get(pkt).class;
        let Some(refusal) = core.ni(node).ej_refusal(class, pkt) else {
            continue;
        };
        let cause = match refusal {
            EjRefusal::Full => StallCause::EjBackpressure,
            EjRefusal::Reserved => StallCause::EjReserved,
        };
        core.trace.count_stall(node, cause);
        trace!(core.trace, node, || TraceEvent::Stall { pkt, cause });
    }
}

/// Records an `EjPreempted` stall for the locked ejection stream (if
/// any) while the overlay holds the port. Cold: tracing-only.
#[cold]
#[inline(never)]
fn trace_eject_preempted(core: &mut NetworkCore, node: NodeId) {
    let Some((p, vc)) = core.router(node).eject_lock else {
        return;
    };
    let pkt = core.input(node, p).occupant(vc).map(|o| o.pkt);
    if let Some(pkt) = pkt {
        core.trace.count_stall(node, StallCause::EjPreempted);
        trace!(core.trace, node, || TraceEvent::Stall {
            pkt,
            cause: StallCause::EjPreempted,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::DorXy;
    use noc_core::config::SimConfig;
    use noc_core::packet::{MessageClass, Packet, PacketId};
    use noc_core::topology::Direction;

    fn core(w: usize, h: usize) -> NetworkCore {
        NetworkCore::new(
            SimConfig::builder()
                .mesh(w, h)
                .vns(0)
                .vcs_per_vn(2)
                .seed(1)
                .build(),
        )
    }

    fn run_until_consumable(
        core: &mut NetworkCore,
        dst: NodeId,
        class: MessageClass,
        max_cycles: u64,
    ) -> Option<(PacketId, u64)> {
        let mut policy = DorXy;
        for _ in 0..max_cycles {
            advance(core, &mut policy, &AdvanceCtx::default());
            core.advance_cycle();
            let now = core.cycle();
            if let Some(p) = core.ni(dst).ej_consumable(class, now) {
                return Some((p, now));
            }
        }
        None
    }

    #[test]
    fn single_packet_end_to_end() {
        let mut c = core(4, 4);
        let src = NodeId::new(0);
        let dst = NodeId::new(15); // 6 hops away
        let id = c.generate(Packet::new(src, dst, MessageClass::Request, 1, 0));
        let (got, _) = run_until_consumable(&mut c, dst, MessageClass::Request, 100)
            .expect("packet never delivered");
        assert_eq!(got, id);
        let pkt = c.store.get(got);
        assert_eq!(pkt.hops, 6);
        assert!(pkt.inject_cycle.is_some());
        let lat = pkt.latency().unwrap();
        // 1-cycle routers: one cycle per hop plus injection/ejection
        // overhead; single flit.
        assert!((6..=12).contains(&lat), "unexpected latency {lat}");
    }

    #[test]
    fn five_flit_packet_serializes() {
        let mut c1 = core(4, 4);
        let mut c5 = core(4, 4);
        let src = NodeId::new(0);
        let dst = NodeId::new(3);
        c1.generate(Packet::new(src, dst, MessageClass::Request, 1, 0));
        c5.generate(Packet::new(src, dst, MessageClass::Request, 5, 0));
        let (a, _) = run_until_consumable(&mut c1, dst, MessageClass::Request, 100).unwrap();
        let (b, _) = run_until_consumable(&mut c5, dst, MessageClass::Request, 100).unwrap();
        let l1 = c1.store.get(a).latency().unwrap();
        let l5 = c5.store.get(b).latency().unwrap();
        assert_eq!(
            l5 - l1,
            4,
            "a 5-flit packet pays exactly 4 extra serialization cycles"
        );
    }

    #[test]
    fn conservation_and_delivery_of_many_packets() {
        let mut c = core(4, 4);
        let mut expected = Vec::new();
        for i in 0..8 {
            let src = NodeId::new(i);
            let dst = NodeId::new(15 - i);
            expected.push(c.generate(Packet::new(
                src,
                dst,
                MessageClass::Request,
                1 + (i as u8 % 5),
                0,
            )));
        }
        let mut policy = DorXy;
        let mut delivered = std::collections::HashSet::new();
        for _ in 0..500 {
            advance(&mut c, &mut policy, &AdvanceCtx::default());
            c.advance_cycle();
            let now = c.cycle();
            for n in c.mesh().nodes() {
                if let Some(p) = c.ni(n).ej_consumable(MessageClass::Request, now) {
                    c.ni_mut(n).pop_ej(MessageClass::Request);
                    delivered.insert(p);
                }
            }
            if delivered.len() == expected.len() {
                break;
            }
        }
        assert_eq!(delivered.len(), expected.len(), "all packets delivered");
        for id in expected {
            assert!(delivered.contains(&id));
        }
    }

    #[test]
    fn suppressed_link_blocks_movement() {
        let mut c = core(2, 1);
        let src = NodeId::new(0);
        let dst = NodeId::new(1);
        c.generate(Packet::new(src, dst, MessageClass::Request, 1, 0));
        let mut suppressed = LinkSet::new(c.mesh());
        suppressed.insert(c.mesh().link(src, Direction::East).unwrap());
        let mut policy = DorXy;
        for _ in 0..50 {
            let ctx = AdvanceCtx {
                suppressed: Some(&suppressed),
                ..Default::default()
            };
            advance(&mut c, &mut policy, &ctx);
            c.advance_cycle();
        }
        assert_eq!(
            c.ni(dst).ej_consumable(MessageClass::Request, c.cycle()),
            None,
            "suppressed link must carry no flits"
        );
        // Unsuppress: delivery completes.
        assert!(run_until_consumable(&mut c, dst, MessageClass::Request, 50).is_some());
    }

    #[test]
    fn freeze_stops_everything() {
        let mut c = core(2, 1);
        let src = NodeId::new(0);
        let dst = NodeId::new(1);
        c.generate(Packet::new(src, dst, MessageClass::Request, 1, 0));
        let mut policy = DorXy;
        for _ in 0..50 {
            let ctx = AdvanceCtx {
                freeze: true,
                ..Default::default()
            };
            advance(&mut c, &mut policy, &ctx);
            c.advance_cycle();
        }
        assert_eq!(
            c.ni(src).source_depth() + c.ni(src).inj_len(MessageClass::Request),
            1
        );
    }

    #[test]
    fn ejection_queue_backpressure_stalls_packets() {
        let mut c = NetworkCore::new(
            SimConfig::builder()
                .mesh(2, 1)
                .vns(0)
                .vcs_per_vn(2)
                .ej_queue_packets(1)
                .ni_consume_cycles(1)
                .build(),
        );
        let src = NodeId::new(0);
        let dst = NodeId::new(1);
        for _ in 0..3 {
            c.generate(Packet::new(src, dst, MessageClass::Request, 1, 0));
        }
        let mut policy = DorXy;
        // Never consume: at most one packet can sit in the ejection queue.
        for _ in 0..200 {
            advance(&mut c, &mut policy, &AdvanceCtx::default());
            c.advance_cycle();
        }
        assert_eq!(c.ni(dst).ej_len(MessageClass::Request), 1);
        // The others are stalled in the network / at the source, not lost.
        assert_eq!(c.resident_packets(), 3);
    }

    #[test]
    fn vc_contention_two_senders_one_receiver() {
        let mut c = core(3, 1);
        let a = c.generate(Packet::new(
            NodeId::new(0),
            NodeId::new(2),
            MessageClass::Request,
            5,
            0,
        ));
        let b = c.generate(Packet::new(
            NodeId::new(1),
            NodeId::new(2),
            MessageClass::Request,
            5,
            0,
        ));
        let mut policy = DorXy;
        let mut got = Vec::new();
        for _ in 0..300 {
            advance(&mut c, &mut policy, &AdvanceCtx::default());
            c.advance_cycle();
            let now = c.cycle();
            let dst = NodeId::new(2);
            if let Some(p) = c.ni(dst).ej_consumable(MessageClass::Request, now) {
                c.ni_mut(dst).pop_ej(MessageClass::Request);
                got.push(p);
            }
            if got.len() == 2 {
                break;
            }
        }
        assert_eq!(got.len(), 2);
        assert!(got.contains(&a) && got.contains(&b));
    }

    #[test]
    fn per_class_injection_round_robins() {
        let mut c = core(2, 1);
        let src = NodeId::new(0);
        let dst = NodeId::new(1);
        c.generate(Packet::new(src, dst, MessageClass::Request, 1, 0));
        c.generate(Packet::new(src, dst, MessageClass::Response, 1, 0));
        let mut policy = DorXy;
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            advance(&mut c, &mut policy, &AdvanceCtx::default());
            c.advance_cycle();
            let now = c.cycle();
            for class in [MessageClass::Request, MessageClass::Response] {
                if let Some(p) = c.ni(dst).ej_consumable(class, now) {
                    c.ni_mut(dst).pop_ej(class);
                    seen.insert(p);
                }
            }
        }
        assert_eq!(seen.len(), 2, "both classes make it through");
    }

    #[test]
    fn eject_preemption_stalls_and_resumes() {
        // A 5-flit packet starts ejecting; the overlay preempts the port
        // mid-stream; the stream must stall (not abort) and finish after.
        let mut c = core(2, 1);
        let src = NodeId::new(0);
        let dst = NodeId::new(1);
        let id = c.generate(Packet::new(src, dst, MessageClass::Request, 5, 0));
        let mut policy = DorXy;
        // Run until the ejection lock engages at the destination.
        let mut engaged_at = None;
        for _ in 0..60 {
            advance(&mut c, &mut policy, &AdvanceCtx::default());
            c.advance_cycle();
            if c.router(dst).eject_lock.is_some() {
                engaged_at = Some(c.cycle());
                break;
            }
        }
        let engaged_at = engaged_at.expect("ejection must start");
        // Preempt for 10 cycles: no progress, lock persists.
        let blocked = vec![false, true];
        for _ in 0..10 {
            let ctx = AdvanceCtx {
                eject_blocked: Some(&blocked),
                ..Default::default()
            };
            advance(&mut c, &mut policy, &ctx);
            c.advance_cycle();
        }
        assert!(
            c.router(dst).eject_lock.is_some(),
            "lock held through stall"
        );
        assert_eq!(
            c.ni(dst).ej_len(MessageClass::Request),
            0,
            "nothing committed during preemption"
        );
        // Release: the stream completes.
        for _ in 0..20 {
            advance(&mut c, &mut policy, &AdvanceCtx::default());
            c.advance_cycle();
        }
        assert!(c.router(dst).eject_lock.is_none());
        let landed = c.ni(dst).ej_iter(MessageClass::Request).next().unwrap().pkt;
        assert_eq!((c.ni(dst).ej_len(MessageClass::Request), landed), (1, id));
        let done = c.store.get(landed).eject_cycle.get().unwrap();
        assert!(
            done > engaged_at + 10,
            "completion must reflect the stall ({done} vs engaged {engaged_at})"
        );
    }

    #[test]
    fn source_queue_latency_counts() {
        // With a tiny injection queue and a burst, later packets wait at
        // the source; their end-to-end latency must include that wait.
        let mut c = NetworkCore::new(
            SimConfig::builder()
                .mesh(2, 1)
                .vns(0)
                .vcs_per_vn(1)
                .inj_queue_packets(1)
                .build(),
        );
        let ids: Vec<_> = (0..6)
            .map(|_| {
                c.generate(Packet::new(
                    NodeId::new(0),
                    NodeId::new(1),
                    MessageClass::Request,
                    5,
                    0,
                ))
            })
            .collect();
        let mut policy = DorXy;
        let mut lats = Vec::new();
        for _ in 0..400 {
            advance(&mut c, &mut policy, &AdvanceCtx::default());
            c.advance_cycle();
            let now = c.cycle();
            let dst = NodeId::new(1);
            if c.ni(dst)
                .ej_consumable(MessageClass::Request, now)
                .is_some()
            {
                let e = c.ni_mut(dst).pop_ej(MessageClass::Request).unwrap();
                lats.push(c.store.get(e.pkt).latency().unwrap());
                c.store.remove(e.pkt);
            }
            if lats.len() == ids.len() {
                break;
            }
        }
        assert_eq!(lats.len(), 6);
        // Serialization: each subsequent packet waits ~5 more cycles.
        assert!(lats.windows(2).all(|w| w[1] > w[0]), "{lats:?}");
        assert!(lats[5] >= lats[0] + 5 * 4, "{lats:?}");
    }
}
