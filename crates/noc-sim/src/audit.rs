//! Deep structural audits of network state.
//!
//! [`audit`] walks every buffer, reservation and queue and checks the
//! invariants the simulator's correctness rests on. The engine does not
//! run it per cycle (it is O(network)); tests call it at checkpoints,
//! and it is invaluable when developing a new scheme — a scheme that
//! corrupts buffer state fails an audit long before it produces a wrong
//! figure.

use crate::network::NetworkCore;
use crate::routing::introspect;
use noc_core::packet::PacketId;
use noc_core::topology::{NodeId, Port, NUM_PORTS};
use std::collections::{BTreeMap, BTreeSet};

/// A violated invariant found by [`audit`].
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct AuditError {
    /// Where the violation was found.
    pub location: String,
    /// What is wrong.
    pub problem: String,
}

impl std::fmt::Display for AuditError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.location, self.problem)
    }
}

/// Audits the network, returning every violation found (empty = clean).
///
/// Checks, for every VC occupant:
/// * flit counters are ordered: `sent <= arrived <= len`;
/// * the packet exists in the store and its cached length matches;
/// * a downstream VC allocation points at a live reservation for the
///   same packet;
/// * no packet occupies more than one buffer *except* as a transfer
///   chain (each extra occupancy must be the downstream reservation of
///   another);
///
/// and for every router/NI:
/// * the ejection lock points at an occupant routed `Local`;
/// * every queued packet id is live in the store.
///
/// The returned list is sorted, so a failing snapshot renders
/// identically run after run (ordered traversal everywhere; no
/// address-seeded iteration).
pub fn audit(core: &NetworkCore) -> Vec<AuditError> {
    let mut errors = Vec::new();
    let mesh = core.mesh();
    let vcs = core.cfg().vcs_per_port();
    // packet -> list of (node, port, vc) occupancies, in packet order.
    let mut occupancies: BTreeMap<PacketId, Vec<(NodeId, usize, usize)>> = BTreeMap::new();

    let mut err = |location: String, problem: String| {
        errors.push(AuditError { location, problem });
    };

    for node in mesh.nodes() {
        for p in 0..NUM_PORTS {
            let iu = core.input(node, p);
            for vc in 0..vcs {
                let Some(occ) = iu.occupant(vc) else {
                    continue;
                };
                let loc = || format!("{node} port {} vc {vc}", Port::from_index(p));
                if occ.sent > occ.arrived {
                    err(
                        loc(),
                        format!("sent {} > arrived {}", occ.sent, occ.arrived),
                    );
                }
                if occ.arrived > occ.len {
                    err(loc(), format!("arrived {} > len {}", occ.arrived, occ.len));
                }
                if !core.store.contains(occ.pkt) {
                    err(loc(), format!("occupant {} not in store", occ.pkt));
                    continue;
                }
                let pkt = core.store.get(occ.pkt);
                if pkt.len_flits != occ.len {
                    err(
                        loc(),
                        format!("cached len {} != packet len {}", occ.len, pkt.len_flits),
                    );
                }
                if let (Some(Port::Dir(d)), Some(out_vc)) = (occ.route, occ.out_vc) {
                    match mesh.neighbor(node, d) {
                        None => err(loc(), "route leaves the mesh".into()),
                        Some(nbr) => {
                            let down = core
                                .input(nbr, Port::Dir(d.opposite()).index())
                                .occupant(out_vc);
                            match down {
                                None => err(
                                    loc(),
                                    format!("downstream reservation at {nbr} vc {out_vc} missing"),
                                ),
                                Some(res) if res.pkt != occ.pkt => err(
                                    loc(),
                                    format!(
                                        "downstream reservation held by {} not {}",
                                        res.pkt, occ.pkt
                                    ),
                                ),
                                _ => {}
                            }
                        }
                    }
                }
                occupancies.entry(occ.pkt).or_default().push((node, p, vc));
            }
        }
        if let Some((p, vc)) = core.router(node).eject_lock {
            let loc = || format!("{node} eject lock");
            match core.input(node, p).occupant(vc) {
                None => err(loc(), "locked VC is empty".into()),
                Some(occ) if occ.route != Some(Port::Local) => {
                    err(loc(), format!("locked occupant routed {:?}", occ.route))
                }
                _ => {}
            }
        }
        // NI queues reference live packets only.
        let ni = core.ni(node);
        for class in noc_core::packet::CLASSES {
            for pkt in ni.inj_iter(class) {
                if !core.store.contains(pkt) {
                    err(format!("{node} inj {class}"), format!("{pkt} not in store"));
                }
            }
        }
    }

    // Multi-occupancy must form transfer chains: for k occupancies of one
    // packet, exactly k-1 of them are downstream reservations of another.
    for (pkt, locs) in &occupancies {
        if locs.len() <= 1 {
            continue;
        }
        let mut reserved_targets = 0;
        for &(node, p, _vc) in locs {
            let port = Port::from_index(p);
            if let Port::Dir(d) = port {
                // This occupancy is "pointed at" if the upstream neighbour
                // through d holds this packet with a matching allocation.
                let upstream = mesh.neighbor(node, d).expect("input port implies neighbor");
                let any = (0..NUM_PORTS).any(|up| {
                    (0..vcs).any(|uvc| {
                        core.input(upstream, up)
                            .occupant(uvc)
                            .is_some_and(|o| o.pkt == *pkt && o.out_vc.is_some())
                    })
                });
                if any {
                    reserved_targets += 1;
                }
            }
        }
        if reserved_targets != locs.len() - 1 {
            errors.push(AuditError {
                location: format!("{pkt}"),
                problem: format!(
                    "occupies {} buffers but only {} are chained reservations",
                    locs.len(),
                    reserved_targets
                ),
            });
        }
    }
    errors.sort();
    errors
}

/// Global conservation audit: packets and downstream-VC credits.
///
/// `overlay` is the scheme's [`overlay_packets`] count (packets held
/// outside the core's buffers — FastPass flights, Pitstop pits);
/// `delivered` is the number of packets consumed out of the system over
/// the simulation's lifetime (the engine's counter).
///
/// Checks:
/// * **packet conservation** — every packet ever injected is delivered,
///   resident, or overlay-held: `created == delivered + live + pending`
///   (nothing leaves the store except through consumption; `pending`
///   counts the source-queue records not stored yet) and
///   `live + pending == resident + overlay` (nothing in the store is
///   orphaned);
/// * **arena-word consistency** — per `(node, port)` the routed and
///   ready words are subsets of the occupancy word, each occupied slot's
///   routed bit matches its stored route and its ready bit matches
///   `sent < arrived`, and each node's cached occupied-VC count equals
///   the population count of its occupancy words (the word-level signals
///   the hot loops scan can only be trusted if the arena's mutators
///   really are the only ones);
/// * **node work-sets** — a node's bit in the arena's occupied-nodes
///   words is set exactly when its occupied-VC count is nonzero, and
///   every NI holding anything (`has_work() || ej_any()`) is marked in
///   the core's live-NI words. The first is an equivalence, the second
///   only an inclusion: live-NI bits are cleared lazily, so a stale set
///   bit is legal and a missing one is the bug (the cycle loop and the
///   consumer would never look at that node);
/// * **switch requests** — every request word the arena maintains
///   equals the gather it replaced, recomputed here from the occupant
///   views alone: bit `p * vcs + vc` of `(node, out)` is set exactly when
///   the occupant of `(node, p, vc)` is flit-ready and routed to `out`.
///   A differing word is reported as missing bits (switch allocation
///   would never grant that flit) or stale ones, and a stale bit says
///   whether it lies outside an occupied slot or beyond the router's
///   `NUM_PORTS * vcs` requesters (arbitration would grant an empty or
///   nonexistent buffer);
/// * **wake protocol** — the parked word is a subset of
///   `occ & !routed`, and every parked head is genuinely blocked (across
///   its wait directions no VC of its class range is free, save those
///   its routing policy has already refused it) and registered as a
///   waiter on each of them. Together these are the
///   whole correctness claim of event-driven allocation: a head that
///   route allocation skips could not have been routed, and the next
///   VC free that could change that will find it. A missed wake in
///   `VcArena::take` shows up here as a parked head beside a free VC;
/// * **credit conservation** — every allocated downstream VC index is in
///   range and no VC is reserved by two upstream packets, so per-link
///   outstanding credits can never exceed the VC capacity.
///
/// Like [`audit`], the returned list is sorted for stable snapshots.
///
/// [`overlay_packets`]: crate::scheme::Scheme::overlay_packets
pub fn audit_conservation(core: &NetworkCore, overlay: usize, delivered: u64) -> Vec<AuditError> {
    let mut errors = Vec::new();
    let created = core.store.created();
    let live = core.store.live() as u64;
    let pending = core.pending_packets() as u64;
    if created != delivered + live + pending {
        errors.push(AuditError {
            location: "packet store".into(),
            problem: format!(
                "{created} packets created but {delivered} delivered + {live} live \
                 + {pending} pending (a packet left the store without being consumed)"
            ),
        });
    }
    let vcs = core.cfg().vcs_per_port();
    let mut credits_in_range = true;
    // (node, input port, vc) targets of downstream reservations.
    let mut reserved: BTreeSet<(NodeId, usize, usize)> = BTreeSet::new();
    for node in core.mesh().nodes() {
        let mut occ_bits = 0usize;
        // The switch-request gather, and every occupied requester index.
        let mut want_reqs = [0u64; NUM_PORTS];
        let mut occupied_reqs = 0u64;
        for p in 0..NUM_PORTS {
            let iu = core.input(node, p);
            let occ_word = iu.occ_mask();
            occupied_reqs |= occ_word << (p * vcs);
            let pw = core.arena.port_words(core.arena.word(node.index(), p));
            let routed_word = pw.routed;
            occ_bits += occ_word.count_ones() as usize;
            if routed_word & !occ_word != 0 {
                errors.push(AuditError {
                    location: format!("{node} port {}", Port::from_index(p)),
                    problem: format!(
                        "routed word {routed_word:#b} not a subset of occupancy {occ_word:#b} \
                         (a freed VC kept its routed bit)"
                    ),
                });
            }
            if pw.ready & !occ_word != 0 {
                errors.push(AuditError {
                    location: format!("{node} port {}", Port::from_index(p)),
                    problem: format!(
                        "ready word {:#b} not a subset of occupancy {occ_word:#b} \
                         (a freed VC kept its ready bit)",
                        pw.ready
                    ),
                });
            }
            if pw.parked & !(occ_word & !routed_word) != 0 {
                errors.push(AuditError {
                    location: format!("{node} port {}", Port::from_index(p)),
                    problem: format!(
                        "parked word {:#b} not a subset of occ & !routed {:#b} \
                         (a freed or routed VC kept its parked bit)",
                        pw.parked,
                        occ_word & !routed_word
                    ),
                });
            }
            for vc in 0..vcs {
                let Some(occ) = iu.occupant(vc) else {
                    continue;
                };
                let routed_bit = routed_word & (1 << vc) != 0;
                if routed_bit != occ.route.is_some() {
                    errors.push(AuditError {
                        location: format!("{node} port {} vc {vc}", Port::from_index(p)),
                        problem: format!(
                            "routed bit {routed_bit} but route {:?} \
                             (routed word drifted: route changed outside install/set_route)",
                            occ.route
                        ),
                    });
                }
                let ready_bit = pw.ready & (1 << vc) != 0;
                if ready_bit != occ.flit_ready() {
                    errors.push(AuditError {
                        location: format!("{node} port {} vc {vc}", Port::from_index(p)),
                        problem: format!(
                            "ready bit {ready_bit} but sent {} / arrived {} \
                             (ready word drifted: a flit counter moved outside \
                             flit_arrived/flit_sent)",
                            occ.sent, occ.arrived
                        ),
                    });
                }
                if let (Some(out), true) = (occ.route, occ.flit_ready()) {
                    want_reqs[out.index()] |= 1 << (p * vcs + vc);
                }
                if pw.parked & (1 << vc) != 0 && core.store.contains(occ.pkt) {
                    audit_parked_head(core, node, p, vc, occ.pkt, &mut errors);
                }
                if let (Some(Port::Dir(d)), Some(out_vc)) = (occ.route, occ.out_vc) {
                    let loc = || format!("{node} port {} vc {vc}", Port::from_index(p));
                    if out_vc >= vcs {
                        credits_in_range = false;
                        errors.push(AuditError {
                            location: loc(),
                            problem: format!("allocated downstream VC {out_vc} >= capacity {vcs}"),
                        });
                        continue;
                    }
                    if let Some(nbr) = core.mesh().neighbor(node, d) {
                        let target = (nbr, Port::Dir(d.opposite()).index(), out_vc);
                        if !reserved.insert(target) {
                            errors.push(AuditError {
                                location: loc(),
                                problem: format!(
                                    "downstream VC {nbr} port {} vc {out_vc} reserved twice \
                                     (credit double-spend)",
                                    Port::Dir(d.opposite())
                                ),
                            });
                        }
                    }
                }
            }
        }
        audit_switch_requests(core, node, want_reqs, occupied_reqs, &mut errors);
        let counted = core.occupied_vcs(node);
        if occ_bits != counted {
            errors.push(AuditError {
                location: format!("{node}"),
                problem: format!(
                    "occupancy words hold {occ_bits} set bits but the node count is \
                     {counted} (count drifted: occupancy changed outside install/take)"
                ),
            });
        }
        if core.arena.in_occ_nodes(node.index()) != (counted > 0) {
            errors.push(AuditError {
                location: format!("{node}"),
                problem: format!(
                    "occupied-nodes bit is {} but the node count is {counted} \
                     (the worklist walk would {} this router)",
                    core.arena.in_occ_nodes(node.index()),
                    if counted > 0 { "skip" } else { "poll" }
                ),
            });
        }
        let ni = core.ni(node);
        if (ni.has_work() || ni.ej_any()) && !core.in_ni_live(node) {
            errors.push(AuditError {
                location: format!("{node} NI"),
                problem: "NI holds packets but is not marked live \
                          (an NI was filled outside ni_mut/generate: the cycle loop \
                          and the consumer would never visit it)"
                    .into(),
            });
        }
    }

    // Residency counting indexes downstream VCs, so it is only
    // well-defined once every allocated credit is in range.
    if credits_in_range {
        // Residency counts source-queue entries, pending ones included.
        let resident = core.resident_packets();
        if (live + pending) as usize != resident + overlay {
            errors.push(AuditError {
                location: "packet store".into(),
                problem: format!(
                    "{live} live + {pending} pending packets but {resident} resident \
                     + {overlay} overlay (a packet is in the store but nowhere in the system)"
                ),
            });
        }
    }
    errors.sort();
    errors
}

/// The maintained switch-request words of `node` against the gather
/// `want` (built from the occupant views); `occupied` is the requester
/// indices of its occupied slots.
fn audit_switch_requests(
    core: &NetworkCore,
    node: NodeId,
    want: [u64; NUM_PORTS],
    occupied: u64,
    errors: &mut Vec<AuditError>,
) {
    let requesters = NUM_PORTS * core.cfg().vcs_per_port();
    for (out, (have, want)) in core.switch_requests(node).into_iter().zip(want).enumerate() {
        let location = || format!("{node} output {}", Port::from_index(out));
        let (stale, missing) = (have & !want, want & !have);
        if missing != 0 {
            errors.push(AuditError {
                location: location(),
                problem: format!(
                    "switch-request word lacks bits {missing:#b} of the gather \
                     (a flit-ready slot routed here is invisible to switch allocation)"
                ),
            });
        }
        if stale != 0 {
            // Index of the highest stale bit, plus one.
            let why = if 64 - stale.leading_zeros() as usize > requesters {
                format!("beyond the router's {requesters} requesters")
            } else if stale & !occupied != 0 {
                "outside any occupied slot".to_string()
            } else {
                "on slots not flit-ready or not routed here".to_string()
            };
            errors.push(AuditError {
                location: location(),
                problem: format!(
                    "stale switch-request bits {stale:#b} {why} (request words drifted: \
                     a slot stopped requesting outside install/take/set_route/flit_sent)"
                ),
            });
        }
    }
}

/// The wake protocol's invariant for one parked head: across every wait
/// direction each VC of its class range at the neighbour is occupied or
/// one its policy already refused it, and the head is in that
/// direction's waiter word (so the next free wakes it).
fn audit_parked_head(
    core: &NetworkCore,
    node: NodeId,
    p: usize,
    vc: usize,
    pkt: PacketId,
    errors: &mut Vec<AuditError>,
) {
    let loc = || format!("{node} port {} vc {vc}", Port::from_index(p));
    let packet = core.store.get(pkt);
    let class = packet.class.index();
    let dirs = introspect::wait_dirs(core.xy(node), core.xy(packet.dst));
    if dirs.is_empty() {
        errors.push(AuditError {
            location: loc(),
            problem: "parked head is at its destination (Local is always grantable)".into(),
        });
        return;
    }
    let refused = core.arena.refused(core.arena.slot(node.index(), p, vc));
    let vn = core.arena.vn_of_class(class);
    for (d, refused) in dirs.iter().zip(refused) {
        let Some(nbr) = core.mesh().neighbor(node, d) else {
            continue; // audited as "route leaves the mesh" if ever taken
        };
        let down = core.input(nbr, Port::Dir(d.opposite()).index());
        let grantable = core
            .cfg()
            .vc_range_for_class(class)
            .find(|&v| down.is_free(v) && refused & (1 << v) == 0);
        if let Some(free_vc) = grantable {
            errors.push(AuditError {
                location: loc(),
                problem: format!(
                    "parked head has free, never-refused VC {free_vc} of its class at {nbr} \
                     via {d} (missed wake: a VC was freed without un-parking its waiters)"
                ),
            });
        }
        if !core.arena.is_waiting_on(node.index(), p, vc, d, vn) {
            errors.push(AuditError {
                location: loc(),
                problem: format!(
                    "parked head is not registered as a waiter on {d} \
                     (the next free there would not wake it)"
                ),
            });
        }
    }
}

fn panic_on(what: &str, errors: &[AuditError]) {
    assert!(
        errors.is_empty(),
        "{what} failed with {} violations:\n{}",
        errors.len(),
        errors
            .iter()
            .map(|e| format!("  {e}"))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Panics with a readable report if the network fails the audit.
///
/// # Panics
///
/// Panics when [`audit`] finds any violation.
pub fn assert_clean(core: &NetworkCore) {
    panic_on("network audit", &audit(core));
}

/// Runs both the structural audit and the conservation audit, panicking
/// with a readable report on any violation.
///
/// # Panics
///
/// Panics when [`audit`] or [`audit_conservation`] finds any violation.
pub fn assert_conserved(core: &NetworkCore, overlay: usize, delivered: u64) {
    panic_on("network audit", &audit(core));
    panic_on(
        "conservation audit",
        &audit_conservation(core, overlay, delivered),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::regular::{advance, AdvanceCtx};
    use crate::routing::{DorXy, FullyAdaptive};
    use crate::vc::VcOccupant;
    use noc_core::config::SimConfig;
    use noc_core::packet::{MessageClass, Packet};

    fn core() -> NetworkCore {
        NetworkCore::new(SimConfig::builder().mesh(4, 4).vns(0).vcs_per_vn(2).build())
    }

    #[test]
    fn fresh_network_is_clean() {
        assert!(audit(&core()).is_empty());
    }

    #[test]
    fn running_network_stays_clean() {
        let mut c = core();
        let mut rng = noc_core::rng::DetRng::new(3);
        let mut policy = FullyAdaptive::new(5);
        for cycle in 0..400u64 {
            for src in 0..16 {
                if rng.chance(0.3) {
                    let mut dst = rng.range(0, 15);
                    if dst >= src {
                        dst += 1;
                    }
                    c.generate(Packet::new(
                        NodeId::new(src),
                        NodeId::new(dst),
                        MessageClass::Request,
                        1 + (cycle % 5) as u8,
                        cycle,
                    ));
                }
            }
            advance(&mut c, &mut policy, &AdvanceCtx::default());
            c.advance_cycle();
            if cycle % 50 == 0 {
                assert_clean(&c);
            }
        }
        assert_clean(&c);
    }

    #[test]
    fn detects_counter_corruption() {
        let mut c = core();
        let id = c.store.insert(Packet::new(
            NodeId::new(0),
            NodeId::new(5),
            MessageClass::Request,
            2,
            0,
        ));
        let mut occ = VcOccupant::reserved(id, 2, 0);
        occ.arrived = 1;
        occ.sent = 2; // corrupt: sent > arrived
        c.input_mut(NodeId::new(1), 0).install(0, occ);
        let errors = audit(&c);
        assert!(errors.iter().any(|e| e.problem.contains("sent")));
    }

    #[test]
    fn detects_dangling_reservation() {
        let mut c = core();
        let id = c.store.insert(Packet::new(
            NodeId::new(0),
            NodeId::new(5),
            MessageClass::Request,
            1,
            0,
        ));
        let mut occ = VcOccupant::reserved(id, 1, 0);
        occ.arrived = 1;
        occ.route = Some(Port::Dir(noc_core::topology::Direction::East));
        occ.out_vc = Some(0); // claims a downstream VC that was never reserved
        c.input_mut(NodeId::new(5), Port::Local.index())
            .install(0, occ);
        let errors = audit(&c);
        assert!(
            errors.iter().any(|e| e.problem.contains("reservation")),
            "{errors:?}"
        );
    }

    #[test]
    fn detects_stale_eject_lock() {
        let mut c = core();
        c.router_mut(NodeId::new(2)).eject_lock = Some((0, 0));
        let errors = audit(&c);
        assert!(errors.iter().any(|e| e.problem.contains("empty")));
    }

    #[test]
    fn conservation_holds_without_consumption() {
        let mut c = core();
        let mut policy = FullyAdaptive::new(5);
        for i in 0..6 {
            c.generate(Packet::new(
                NodeId::new(i),
                NodeId::new(15 - i),
                MessageClass::Request,
                2,
                0,
            ));
        }
        for _ in 0..100 {
            advance(&mut c, &mut policy, &AdvanceCtx::default());
            c.advance_cycle();
        }
        // Nothing consumed, no overlay: every created packet is resident.
        assert_conserved(&c, 0, 0);
    }

    #[test]
    fn conservation_flags_a_leaked_packet() {
        let mut c = core();
        let id = c.store.insert(Packet::new(
            NodeId::new(0),
            NodeId::new(5),
            MessageClass::Request,
            1,
            0,
        ));
        c.store.remove(id); // vanished without being consumed
        let errors = audit_conservation(&c, 0, 0);
        assert!(
            errors
                .iter()
                .any(|e| e.problem.contains("without being consumed")),
            "{errors:?}"
        );
    }

    #[test]
    fn conservation_flags_credit_double_spend() {
        use noc_core::topology::Direction;
        let mut c = core();
        let ids: Vec<PacketId> = (0..2)
            .map(|i| {
                c.store.insert(Packet::new(
                    NodeId::new(i),
                    NodeId::new(6),
                    MessageClass::Request,
                    1,
                    0,
                ))
            })
            .collect();
        // Two occupants at node 5 both claim downstream VC 0 east.
        for (vc, id) in ids.into_iter().enumerate() {
            let mut occ = VcOccupant::reserved(id, 1, 0);
            occ.arrived = 1;
            occ.route = Some(Port::Dir(Direction::East));
            occ.out_vc = Some(0);
            c.input_mut(NodeId::new(5), Port::Local.index())
                .install(vc, occ);
        }
        let errors = audit_conservation(&c, 0, 0);
        assert!(
            errors.iter().any(|e| e.problem.contains("reserved twice")),
            "{errors:?}"
        );
    }

    #[test]
    fn conservation_flags_out_of_range_credit() {
        use noc_core::topology::Direction;
        let mut c = core();
        let id = c.store.insert(Packet::new(
            NodeId::new(0),
            NodeId::new(6),
            MessageClass::Request,
            1,
            0,
        ));
        let mut occ = VcOccupant::reserved(id, 1, 0);
        occ.arrived = 1;
        occ.route = Some(Port::Dir(Direction::East));
        occ.out_vc = Some(63); // far beyond the configured VC capacity
        c.input_mut(NodeId::new(5), Port::Local.index())
            .install(0, occ);
        let errors = audit_conservation(&c, 0, 0);
        assert!(
            errors.iter().any(|e| e.problem.contains("capacity")),
            "{errors:?}"
        );
    }

    /// Saturating single-VC XY traffic (deadlock-free, and XY refuses
    /// free VCs off its one direction) with consumption counted into
    /// `delivered`, so heads park and VCs keep being freed. Runs the
    /// conservation audit after every cycle and returns its first
    /// non-empty findings, or nothing after `cycles` clean cycles.
    fn run_saturated(c: &mut NetworkCore, delivered: &mut u64, cycles: u64) -> Vec<AuditError> {
        let mut rng = noc_core::rng::DetRng::new(3 + *delivered);
        let mut policy = DorXy;
        for cycle in 0..cycles {
            for src in 0..16 {
                if rng.chance(0.4) {
                    let mut dst = rng.range(0, 15);
                    if dst >= src {
                        dst += 1;
                    }
                    c.generate(Packet::new(
                        NodeId::new(src),
                        NodeId::new(dst),
                        MessageClass::Request,
                        1 + (cycle % 5) as u8,
                        cycle,
                    ));
                }
            }
            advance(c, &mut policy, &AdvanceCtx::default());
            let now = c.cycle();
            for n in c.mesh().nodes() {
                if c.ni(n).ej_consumable(MessageClass::Request, now).is_some() {
                    let e = c.ni_mut(n).pop_ej(MessageClass::Request).unwrap();
                    c.store.remove(e.pkt);
                    *delivered += 1;
                }
            }
            c.advance_cycle();
            let errors = audit_conservation(c, 0, *delivered);
            if !errors.is_empty() {
                return errors;
            }
        }
        Vec::new()
    }

    fn any_parked(c: &mut NetworkCore) -> bool {
        c.arena.words_mut().0.iter().any(|pw| pw.parked != 0)
    }

    #[test]
    fn wake_protocol_holds_at_saturation() {
        let mut c = NetworkCore::new(SimConfig::builder().mesh(4, 4).vns(0).vcs_per_vn(1).build());
        assert_eq!(run_saturated(&mut c, &mut 0, 600), Vec::new());
        assert!(any_parked(&mut c), "the load must actually park heads");
    }

    /// Planted bug: `take` frees VCs without waking their waiters. The
    /// audit must see a parked head beside a free VC.
    #[test]
    fn conservation_flags_a_skipped_wake() {
        let mut c = NetworkCore::new(SimConfig::builder().mesh(4, 4).vns(0).vcs_per_vn(1).build());
        let mut delivered = 0;
        assert_eq!(run_saturated(&mut c, &mut delivered, 200), Vec::new());
        assert!(any_parked(&mut c));
        c.arena.fault_skip_wake = true;
        let errors = run_saturated(&mut c, &mut delivered, 200);
        assert!(
            errors.iter().any(|e| e.problem.contains("missed wake")),
            "{errors:?}"
        );
    }

    /// Planted bug: `flit_sent` keeps the request bit of a slot that has
    /// nothing left to forward. The audit must name the stale bit — on an
    /// occupied slot while the tail is still staged, outside any occupied
    /// slot once the VC has been freed under it.
    #[test]
    fn conservation_flags_a_skipped_request_clear() {
        let mut c = core();
        let mut delivered = 0;
        assert_eq!(run_saturated(&mut c, &mut delivered, 100), Vec::new());
        c.arena.fault_skip_req_clear = true;
        let errors = run_saturated(&mut c, &mut delivered, 100);
        assert!(
            errors
                .iter()
                .any(|e| e.problem.contains("stale switch-request bits")),
            "{errors:?}"
        );
    }

    #[test]
    fn conservation_flags_drifted_request_words() {
        use noc_core::topology::Direction;
        let mut c = core();
        let id = c.store.insert(Packet::new(
            NodeId::new(0),
            NodeId::new(6),
            MessageClass::Request,
            1,
            0,
        ));
        let mut occ = VcOccupant::reserved(id, 1, 0);
        occ.arrived = 1;
        occ.route = Some(Port::Local);
        c.input_mut(NodeId::new(6), 2).install(1, occ);
        assert_eq!(audit_conservation(&c, 0, 0), Vec::new());
        let req = 1u64 << (2 * 2 + 1);
        let word = |out: Port| 6 * NUM_PORTS + out.index();
        let (_, _, sa_req) = c.arena.words_mut();
        assert_eq!(sa_req[word(Port::Local)], req);
        // The real request withdrawn; the same slot filed under an output
        // it is not routed to, an empty VC requesting, and a bit past the
        // router's 5 x 2 requesters.
        sa_req[word(Port::Local)] = 0;
        sa_req[word(Port::Dir(Direction::North))] = req;
        sa_req[word(Port::Dir(Direction::East))] = 1;
        sa_req[word(Port::Dir(Direction::West))] = 1 << 10;
        let errors = audit_conservation(&c, 0, 0);
        for needle in [
            "lacks bits 0b100000",
            "not flit-ready or not routed here",
            "outside any occupied slot",
            "beyond the router's 10 requesters",
        ] {
            assert!(
                errors.iter().any(|e| e.problem.contains(needle)),
                "no `{needle}` in {errors:?}"
            );
        }
    }

    /// Planted bug: `generate` fills a source queue without marking the
    /// NI live. The audit must see the unmarked NI; the cycle loop never
    /// would (that node is simply not in the worklist).
    #[test]
    fn conservation_flags_a_skipped_generate_mark() {
        let mut c = core();
        let seed = |src| {
            Packet::new(
                NodeId::new(src),
                NodeId::new(6),
                MessageClass::Request,
                1,
                0,
            )
        };
        c.generate(seed(3));
        assert_eq!(audit_conservation(&c, 0, 0), Vec::new());
        assert_eq!(c.active_nodes().collect::<Vec<_>>(), [NodeId::new(3)]);
        c.fault_skip_generate_mark = true;
        c.generate(seed(9));
        let errors = audit_conservation(&c, 0, 0);
        assert!(
            errors
                .iter()
                .any(|e| e.location == "R9 NI" && e.problem.contains("not marked live")),
            "{errors:?}"
        );
        assert_eq!(
            c.active_nodes().collect::<Vec<_>>(),
            [NodeId::new(3)],
            "the planted fault really hides node 9 from the worklist"
        );
    }

    #[test]
    fn conservation_flags_a_drifted_occupied_nodes_bit() {
        let mut c = core();
        let id = c.store.insert(Packet::new(
            NodeId::new(0),
            NodeId::new(6),
            MessageClass::Request,
            1,
            0,
        ));
        c.input_mut(NodeId::new(5), 0)
            .install(0, VcOccupant::reserved(id, 1, 0));
        assert!(c.arena.in_occ_nodes(5));
        c.arena.words_mut().1[0] = 1 << 7; // node 5 dropped, idle node 7 marked
        let errors = audit_conservation(&c, 0, 0);
        for needle in ["would skip this router", "would poll this router"] {
            assert!(
                errors.iter().any(|e| e.problem.contains(needle)),
                "no `{needle}` in {errors:?}"
            );
        }
    }

    #[test]
    fn conservation_flags_drifted_ready_and_parked_words() {
        let mut c = core();
        let id = c.store.insert(Packet::new(
            NodeId::new(0),
            NodeId::new(6),
            MessageClass::Request,
            1,
            0,
        ));
        let mut occ = VcOccupant::reserved(id, 1, 0);
        occ.arrived = 1;
        c.input_mut(NodeId::new(5), Port::Local.index())
            .install(0, occ);
        let w = c.arena.word(5, Port::Local.index());
        let ports = c.arena.words_mut().0;
        ports[w].ready = 0; // head present but not flagged ready
        ports[w].parked = 0b11; // VC 1 is empty; VC 0 has free VCs ahead
        let errors = audit_conservation(&c, 0, 0);
        for needle in [
            "ready bit false",
            "parked word",
            "missed wake",
            "not registered",
        ] {
            assert!(
                errors.iter().any(|e| e.problem.contains(needle)),
                "no `{needle}` in {errors:?}"
            );
        }
    }

    #[test]
    fn audit_output_is_sorted() {
        let mut c = core();
        // Two independent stale eject locks at different nodes; the
        // report must come out in node order regardless of traversal.
        c.router_mut(NodeId::new(9)).eject_lock = Some((0, 0));
        c.router_mut(NodeId::new(2)).eject_lock = Some((0, 0));
        let errors = audit(&c);
        assert_eq!(errors.len(), 2);
        let mut sorted = errors.clone();
        sorted.sort();
        assert_eq!(errors, sorted);
    }

    #[test]
    fn xy_steady_state_clean_with_consumption() {
        let mut c = core();
        let mut policy = DorXy;
        for i in 0..8 {
            c.generate(Packet::new(
                NodeId::new(i),
                NodeId::new(15 - i),
                MessageClass::Response,
                5,
                0,
            ));
        }
        for _ in 0..200 {
            advance(&mut c, &mut policy, &AdvanceCtx::default());
            let now = c.cycle();
            for n in c.mesh().nodes() {
                if c.ni(n).ej_consumable(MessageClass::Response, now).is_some() {
                    let e = c.ni_mut(n).pop_ej(MessageClass::Response).unwrap();
                    c.store.remove(e.pkt);
                }
            }
            c.advance_cycle();
        }
        assert_clean(&c);
    }
}
