//! Switch-request equivalence gate: the request words the arena
//! maintains are exactly the words the switch stage used to gather.
//!
//! Switch allocation no longer rebuilds each output port's request set
//! from `ready & routed` and one `meta` load per slot every cycle; it
//! loads five words per router that the arena's mutators keep current
//! (`install`, `take`, `set_route`, `set_route_vc`, `flit_arrived`,
//! `flit_sent`). The golden fixtures prove the *results* unchanged on the
//! meshes they pin; this gate proves the *words* right, before every
//! cycle at every node, against a dense recomputation that shares
//! nothing with the arena's bookkeeping: every occupant of every input
//! port, through the public [`InputRef::occupied`](noc_sim::InputRef)
//! view, requests output `route` iff it is routed and `sent < arrived`.
//!
//! All eight schemes run from zero load to past saturation on three
//! meshes, plus closed-loop protocol traffic, so every way an occupant
//! enters, leaves or changes state is exercised: the regular pipeline,
//! SPIN's rotation, SWAP's exchange, DRAIN's circulation, Pitstop's
//! absorption and FastPass's lane upgrade (`take_vc_packet`, which also
//! releases a routed head's downstream reservation). No shipped scheme
//! re-installs a packet with its route intact, so the one remaining
//! mutator case — `install` of a pre-routed, flit-ready occupant — gets a
//! test of its own through the public `InputMut`. (Debug builds also
//! assert the equivalence inside `switch_traversal`, at the point of use;
//! CI runs this file in debug for that reason, and in release.)

use bench::{SchemeId, ALL_SCHEMES};
use noc_core::config::SimConfig;
use noc_core::packet::{MessageClass, Packet};
use noc_core::topology::{Direction, NodeId, Port, NUM_PORTS};
use noc_sim::regular::{advance, AdvanceCtx};
use noc_sim::routing::DorXy;
use noc_sim::vc::VcOccupant;
use noc_sim::{NetworkCore, Simulation, Workload};
use traffic::{AppModel, SyntheticPattern, SyntheticWorkload};

const RATES: [f64; 3] = [0.01, 0.08, 0.14];
/// `(width, height, cycles)`: fewer cycles on the big mesh keep the
/// debug-build run short; every mesh still fills.
const MESHES: [(usize, usize, u64); 3] = [(3, 5, 1_200), (9, 9, 500), (16, 16, 250)];

/// The Table II configuration of `id` on a `w x h` mesh. DRAIN needs a
/// Hamiltonian ring, which no odd x odd mesh has: it gets one more
/// column there.
fn config(id: SchemeId, w: usize, h: usize, seed: u64) -> SimConfig {
    let w = w + usize::from(id == SchemeId::Drain && w % 2 == 1 && h % 2 == 1);
    let square = id.sim_config(w, 2, seed);
    SimConfig::builder()
        .mesh(w, h)
        .vns(square.vns)
        .vcs_per_vn(square.vcs_per_vn)
        .seed(seed)
        .build()
}

/// What one run saw, for the non-vacuity checks.
#[derive(Default)]
struct Seen {
    /// Request bits summed over all nodes and cycles.
    requests: u64,
    /// Occupants that were routed but had no flit to forward, or had a
    /// flit but no route: the states the words must *not* report.
    non_requesting: u64,
    /// Words with two or more requesters (an arbitration with a loser).
    contended_words: u64,
}

/// Checks every node's maintained words against the dense recomputation.
fn check_words(core: &NetworkCore, seen: &mut Seen, what: &str) {
    let vcs = core.vcs_per_port();
    for node in core.mesh().nodes() {
        let mut dense = [0u64; NUM_PORTS];
        for p in 0..NUM_PORTS {
            for (vc, occ) in core.input(node, p).occupied() {
                match occ.route {
                    Some(out) if occ.sent < occ.arrived => {
                        dense[out.index()] |= 1 << (p * vcs + vc);
                    }
                    _ => seen.non_requesting += 1,
                }
            }
        }
        assert_eq!(
            core.switch_requests(node),
            dense,
            "{what}: request words of {node} at cycle {}",
            core.cycle()
        );
        for word in dense {
            seen.requests += u64::from(word.count_ones());
            seen.contended_words += u64::from(word.count_ones() > 1);
        }
    }
}

/// Steps `sim` up to `cycles` times, checking the words before every
/// cycle and once after the last.
fn run_checked(sim: &mut Simulation, cycles: u64, what: &str) -> Seen {
    let mut seen = Seen::default();
    for _ in 0..cycles {
        if sim.workload_finished() {
            break;
        }
        check_words(&sim.core, &mut seen, what);
        sim.step();
    }
    check_words(&sim.core, &mut seen, what);
    sim.assert_conserved();
    seen
}

fn sim(id: SchemeId, cfg: SimConfig, workload: Box<dyn Workload>) -> Simulation {
    let scheme = id.build(&cfg, cfg.seed);
    Simulation::new(cfg, scheme, workload)
}

#[test]
fn synthetic_request_words_match_the_dense_gather() {
    for (w, h, cycles) in MESHES {
        for id in ALL_SCHEMES {
            let mut contended = 0;
            for rate in RATES {
                let what = format!("{} {w}x{h} rate {rate}", id.name());
                let cfg = config(id, w, h, 31);
                let workload = SyntheticWorkload::new(SyntheticPattern::Uniform, rate, 77);
                let mut sim = sim(id, cfg, Box::new(workload));
                let seen = run_checked(&mut sim, cycles, &what);
                assert!(sim.total_consumed() > 0, "{what}: nothing was delivered");
                // MinBD is bufferless: its flits never sit in a VC, so
                // its words are checked to stay empty.
                if id == SchemeId::MinBd {
                    assert_eq!(seen.requests, 0, "{what}: a request from no buffer");
                    continue;
                }
                assert!(seen.requests > 0, "{what}: no switch request ever raised");
                assert!(
                    seen.non_requesting > 0,
                    "{what}: every occupant seen was a requester, so the \
                     words' clear side went untested"
                );
                contended += seen.contended_words;
            }
            assert!(
                id == SchemeId::MinBd || contended > 0,
                "{} {w}x{h}: no arbitration ever had a loser",
                id.name()
            );
        }
    }
}

#[test]
fn protocol_request_words_match_the_dense_gather() {
    // Closed loop, zero VNs on the deadlock-recovering schemes: FastPass
    // upgrades and Pitstop absorptions relocate routed-or-not heads under
    // real protocol backpressure.
    for id in [SchemeId::FastPass, SchemeId::Pitstop, SchemeId::EscapeVc] {
        let what = format!("{} 9x9 FFT", id.name());
        let cfg = config(id, 9, 9, 13);
        let workload = AppModel::Fft.workload(81, Some(6));
        let mut sim = sim(id, cfg, Box::new(workload));
        let seen = run_checked(&mut sim, 4_000, &what);
        assert!(sim.total_consumed() > 200, "{what}: traffic flowed");
        assert!(seen.requests > 0 && seen.non_requesting > 0, "{what}");
    }
}

#[test]
fn pre_routed_install_requests_at_once_and_is_forwarded() {
    let mut core = NetworkCore::new(SimConfig::builder().mesh(3, 1).vns(0).vcs_per_vn(2).build());
    let (src, mid, dst) = (NodeId::new(0), NodeId::new(1), NodeId::new(2));
    let east = Port::Dir(Direction::East);
    let west_in = Port::Dir(Direction::West).index();
    let pkt = core
        .store
        .insert(Packet::new(src, dst, MessageClass::Request, 2, 0));
    // A whole packet relocated into `mid` with its route and downstream
    // VC kept: the reservation at `dst` first, as route allocation would.
    core.input_mut(dst, west_in)
        .install(1, VcOccupant::reserved(pkt, 2, 0));
    let mut whole = VcOccupant::reserved(pkt, 2, 0);
    whole.arrived = 2;
    whole.route = Some(east);
    whole.out_vc = Some(1);
    core.input_mut(mid, west_in).install(0, whole);
    let mut seen = Seen::default();
    check_words(&core, &mut seen, "pre-routed install");
    assert_eq!(
        core.switch_requests(mid)[east.index()],
        1 << (west_in * 2),
        "the relocated packet requests its output without a route pass"
    );
    let mut policy = DorXy;
    for _ in 0..12 {
        advance(&mut core, &mut policy, &AdvanceCtx::default());
        core.advance_cycle();
        check_words(&core, &mut seen, "pre-routed install");
    }
    let now = core.cycle();
    assert_eq!(
        core.ni(dst).ej_consumable(MessageClass::Request, now),
        Some(pkt),
        "forwarded and ejected on the kept route"
    );
    assert_eq!(core.store.get(pkt).hops, 1);
}
