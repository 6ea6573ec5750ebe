//! The FastPass flow-control scheme (§III).
//!
//! Per cycle, FastPass:
//!
//! 1. advances every active [`Flight`] — deciding ejection vs. rejection
//!    at head arrival (dynamic bubble, §III-C4), committing ejections,
//!    and parking returned packets in the prime's request injection queue
//!    (dropping at most one fresh injection request to make room);
//! 2. lets every prime router scan its buffers — request injection queue
//!    first (§Qn2), then the other injection queues, then the input ports
//!    round-robin — and upgrade the first packet destined to the
//!    currently covered partition, provided the remaining slot budget
//!    covers a worst-case round trip (this makes the
//!    lane-clear-at-slot-boundary invariant provable, and it is
//!    asserted);
//! 3. computes the set of links FastPass flits occupy this cycle (the
//!    lookahead suppression of §III-C5) — asserting no two flights ever
//!    share a directed link — and runs the regular pass around them with
//!    fully-adaptive routing (Table II).
//!
//! # Pipelined lanes
//!
//! The paper serializes each lane ("only one FastPass-Packet traversing
//! through a FastPass-Lane"). This implementation generalizes that to a
//! configurable [`pipeline_depth`](FastPassConfig::pipeline_depth):
//! several packet trains may share a lane provided they provably cannot
//! collide. Three static conditions suffice —
//!
//! * **launch spacing**: consecutive launches are at least the previous
//!   packet's length apart, so same-direction trains never overlap
//!   (trains move at one hop/cycle and cannot overtake);
//! * **return-merge keys**: a rejected train re-enters the lane's
//!   reverse links at a point that depends on its destination row; the
//!   merge-time key `launch + 2·|dst_row − prime_row| + len` determines
//!   when it crosses every shared reverse link, so keeping keys of
//!   concurrent flights at least `max_len + 2` apart keeps their windows
//!   disjoint;
//! * **distinct destinations**, so two trains never contend for one
//!   ejection port.
//!
//! Depth 1 recovers the paper's literal serialization (the ablation
//! bench compares both). The per-cycle collision assertion remains the
//! ground truth for all of this reasoning.

use crate::flight::{Flight, FlightState};
use crate::schedule::{TdmSchedule, BUDGET_SLACK};
use noc_core::config::SimConfig;
use noc_core::packet::{MessageClass, PacketId, CLASSES};
use noc_core::topology::{LinkId, NodeId, Port, NUM_PORTS};
use noc_sim::network::{LinkSet, NetworkCore};
use noc_sim::ni::{EjRefusal, EjectEntry};
use noc_sim::regular::{advance, AdvanceCtx};
use noc_sim::routing::FullyAdaptive;
use noc_sim::scheme::{Scheme, StateExport};
use noc_trace::{trace, BypassOutcome, StallCause, TraceEvent};

/// Tunables for [`FastPass`].
#[derive(Debug, Clone, Copy)]
pub struct FastPassConfig {
    /// Overrides the slot length `K` (default: the paper's design-time
    /// formula, [`TdmSchedule::paper_slot_cycles`]).
    pub slot_cycles: Option<u64>,
    /// Maximum packet trains concurrently in flight per lane (1 = the
    /// paper's strict serialization; see the module docs).
    pub pipeline_depth: usize,
}

impl Default for FastPassConfig {
    fn default() -> Self {
        FastPassConfig {
            slot_cycles: None,
            pipeline_depth: 4,
        }
    }
}

/// Event counters exposed for the Fig. 13 breakdowns and diagnostics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FpCounters {
    /// Packets upgraded to FastPass-Packets.
    pub upgrades: u64,
    /// Flights that ejected successfully.
    pub completed: u64,
    /// Flights bounced off a full ejection queue.
    pub rejections: u64,
    /// Fresh injection requests dropped to make a bubble.
    pub drops: u64,
    /// Upgrades taken from injection queues (vs. input-port VCs).
    pub from_injection: u64,
}

/// Where a scanned upgrade candidate lives.
enum Candidate {
    InjHead(MessageClass),
    Vc(usize, usize),
}

/// Minimum separation of return-merge keys: the occupancy window is one
/// packet (≤ 5 flits) wide and the return-start time carries a ±1
/// length-dependent offset, so 7 guarantees disjoint windows.
const KEY_MARGIN: u64 = 7;

/// The FastPass scheme (implements [`Scheme`]).
#[derive(Clone)]
pub struct FastPass {
    schedule: TdmSchedule,
    cfg: FastPassConfig,
    /// Active flights per partition (≤ `pipeline_depth` each).
    flights: Vec<Vec<Flight>>,
    /// Last launch per partition: `(cycle, len)` for spacing.
    last_launch: Vec<Option<(u64, u8)>>,
    routing: FullyAdaptive,
    scan_rr: Vec<usize>,
    suppressed: LinkSet,
    eject_blocked: Vec<bool>,
    busy_scratch: Vec<LinkId>,
    counters: FpCounters,
}

impl std::fmt::Debug for FastPass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FastPass")
            .field("schedule", &self.schedule)
            .field("counters", &self.counters)
            .field("active_flights", &self.active_flights())
            .finish()
    }
}

impl FastPass {
    /// Builds the scheme for a simulation configuration (which must use 0
    /// VNs — FastPass's whole point).
    ///
    /// # Panics
    ///
    /// Panics if the mesh is wider than tall (see
    /// [`TdmSchedule::with_slot_cycles`]), the slot override is too short
    /// for a round trip, or `pipeline_depth == 0`.
    pub fn new(sim: &SimConfig, cfg: FastPassConfig) -> Self {
        assert!(cfg.pipeline_depth >= 1, "pipeline depth must be at least 1");
        let mesh = sim.mesh;
        let schedule = match cfg.slot_cycles {
            Some(k) => TdmSchedule::with_slot_cycles(mesh, k),
            None => TdmSchedule::new(mesh, sim.vcs_per_port()),
        };
        FastPass {
            schedule,
            cfg,
            flights: vec![Vec::new(); mesh.width()],
            last_launch: vec![None; mesh.width()],
            routing: FullyAdaptive::new(sim.seed ^ 0xFA57_1A4E),
            scan_rr: vec![0; mesh.width()],
            suppressed: LinkSet::new(mesh),
            eject_blocked: vec![false; mesh.num_nodes()],
            busy_scratch: Vec::new(),
            counters: FpCounters::default(),
        }
    }

    /// Event counters.
    pub fn counters(&self) -> FpCounters {
        self.counters
    }

    /// The TDM schedule in use.
    pub fn schedule(&self) -> TdmSchedule {
        self.schedule
    }

    /// Flights currently in the air.
    pub fn active_flights(&self) -> usize {
        self.flights.iter().map(|v| v.len()).sum()
    }

    /// Return-merge key of a flight (see module docs): the time its train
    /// would cross any shared returning link is `key + f(link)` for a
    /// per-link constant `f`, so keeping keys separated keeps the
    /// windows disjoint. The packet length enters because the return leg
    /// starts only after the tail drains off the outbound lane.
    fn merge_key(
        mesh: noc_core::topology::Mesh,
        prime: NodeId,
        dst: NodeId,
        launch: u64,
        len: u8,
    ) -> u64 {
        launch + 2 * mesh.y(prime).abs_diff(mesh.y(dst)) as u64 + len as u64
    }

    fn advance_flights(&mut self, core: &mut NetworkCore) {
        let cycle = core.cycle();
        for lane in self.flights.iter_mut() {
            let mut i = 0;
            while i < lane.len() {
                let f = &mut lane[i];
                let mut done = false;
                match f.state {
                    FlightState::Outbound => {
                        if cycle >= f.head_arrival() {
                            let class = core.store.get(f.pkt).class;
                            if core.ni(f.dst).ej_can_accept(class, f.pkt) {
                                core.ni_mut(f.dst).ej_begin(class, f.pkt);
                                f.begin_eject(cycle);
                            } else {
                                if core.trace.counters_on() {
                                    trace_bypass_rejected(core, f.dst, f.pkt, class);
                                }
                                // Rejected: pro-actively reserve the queue
                                // (first come, first reserved) and head
                                // home (§III-C4).
                                if core.ni(f.dst).ej_reservation(class).is_none() {
                                    core.ni_mut(f.dst).reserve_ej(class, f.pkt);
                                }
                                let pkt = core.store.get_mut(f.pkt);
                                pkt.rejections += 1;
                                core.stats.rejections += 1;
                                self.counters.rejections += 1;
                                f.begin_return(cycle);
                            }
                        }
                    }
                    FlightState::Ejecting { .. } => {
                        if cycle >= f.eject_done() {
                            let ready = cycle + core.cfg().ni_consume_cycles;
                            let class = {
                                let pkt = core.store.get_mut(f.pkt);
                                pkt.eject_cycle.set(cycle);
                                pkt.hops += f.hops_out() as u32;
                                pkt.bufferless_cycles += cycle + 1 - f.launch;
                                pkt.class
                            };
                            core.ni_mut(f.dst)
                                .ej_commit(class, EjectEntry { pkt: f.pkt, ready });
                            if core.trace.counters_on() {
                                trace_bypass_ejected(core, f.dst, f.pkt, class.index());
                            }
                            self.counters.completed += 1;
                            done = true;
                        }
                    }
                    FlightState::Returning { .. } => {
                        if cycle >= f.return_done() {
                            {
                                let pkt = core.store.get_mut(f.pkt);
                                pkt.hops += (f.hops_out() + f.hops_ret()) as u32;
                                pkt.bufferless_cycles += cycle + 1 - f.launch;
                            }
                            let (prime, pkt) = (f.prime, f.pkt);
                            if core.trace.events_on() {
                                trace_bypass_returned(core, prime, pkt);
                            }
                            Self::park_rejected(core, &mut self.counters, prime, pkt);
                            done = true;
                        }
                    }
                }
                if done {
                    lane.swap_remove(i);
                } else {
                    i += 1;
                }
            }
        }
    }

    /// Parks a returned FastPass-Packet in the prime's request injection
    /// queue, dropping the newest *fresh* injection request if the queue
    /// is full (never a previously rejected packet, §Qn2).
    fn park_rejected(
        core: &mut NetworkCore,
        counters: &mut FpCounters,
        prime: NodeId,
        pkt: PacketId,
    ) {
        let cycle = core.cycle();
        if core.ni(prime).inj_full(MessageClass::Request) {
            let victim_idx = core
                .ni(prime)
                .inj_iter(MessageClass::Request)
                .enumerate()
                .rev()
                .find(|&(_, id)| core.store.get(id).rejections == 0)
                .map(|(i, _)| i);
            if let Some(idx) = victim_idx {
                let victim = core
                    .ni_mut(prime)
                    .remove_inj_at(MessageClass::Request, idx)
                    .expect("victim index valid");
                core.store.get_mut(victim).drops += 1;
                core.stats.dropped += 1;
                counters.drops += 1;
                let ready = cycle + core.cfg().mshr_regen_cycles;
                core.ni_mut(prime).schedule_regen(victim, ready);
            }
            // If every queued packet is itself a rejected FastPass-Packet
            // (rare), the park below overflows into the bypass latch —
            // see NiState::park_rejected.
        }
        core.ni_mut(prime).park_rejected(MessageClass::Request, pkt);
    }

    /// At most one launch per prime per cycle, subject to the pipeline
    /// safety conditions (module docs) and the slot budget.
    fn launch_flights(&mut self, core: &mut NetworkCore) {
        let cycle = core.cycle();
        let info = self.schedule.slot_info(cycle);
        for p in 0..self.schedule.partitions() {
            if self.flights[p].len() >= self.cfg.pipeline_depth {
                continue;
            }
            // Launch spacing: previous train must have fully entered the
            // lane (no same-direction overlap).
            if let Some((last, len)) = self.last_launch[p] {
                if cycle < last + len as u64 {
                    continue;
                }
            }
            let prime = self.schedule.prime(p, info.phase);
            // A prime with no buffered packet and nothing queued at its
            // NI has no candidate: `scan` would return `None` untouched.
            if core.occupied_vcs(prime) == 0 && !core.ni(prime).has_work() {
                continue;
            }
            let covered = self.schedule.covered_partition(p, cycle);
            let remaining = self.schedule.remaining_in_slot(cycle);
            let Some((cand, dst, len)) = self.scan(core, p, prime, covered, remaining, cycle)
            else {
                continue;
            };
            let pkt_id = match cand {
                Candidate::InjHead(class) => {
                    self.counters.from_injection += 1;
                    core.ni_mut(prime)
                        .pop_inj(class)
                        .expect("scanned head vanished")
                }
                Candidate::Vc(port, vc) => core.take_vc_packet(prime, Port::from_index(port), vc),
            };
            {
                let pkt = core.store.get_mut(pkt_id);
                if pkt.upgrade_cycle.is_none() {
                    pkt.upgrade_cycle.set(cycle);
                }
                if pkt.inject_cycle.is_none() {
                    pkt.inject_cycle.set(cycle);
                }
            }
            self.counters.upgrades += 1;
            self.last_launch[p] = Some((cycle, len));
            self.flights[p].push(Flight::new(core.mesh(), pkt_id, prime, dst, len, cycle));
            if core.trace.counters_on() {
                trace_bypass_launch(core, prime, pkt_id, dst);
            }
        }
    }

    /// Scans the prime's buffers in the paper's order for the first
    /// upgrade candidate whose destination lies in the covered partition,
    /// whose worst-case round trip fits the remaining slot budget, and
    /// which satisfies the pipeline safety conditions against the lane's
    /// active flights.
    fn scan(
        &mut self,
        core: &NetworkCore,
        p: usize,
        prime: NodeId,
        covered: usize,
        remaining: u64,
        cycle: u64,
    ) -> Option<(Candidate, NodeId, u8)> {
        let mesh = core.mesh();
        let lane = &self.flights[p];
        let eligible = |dst: NodeId, len: u8| -> bool {
            if mesh.x(dst) != covered || dst == prime {
                return false;
            }
            let h = mesh.hops(prime, dst) as u64;
            if 2 * h + 2 * len as u64 + BUDGET_SLACK > remaining {
                return false;
            }
            // Distinct destinations (ejection-port exclusivity).
            if lane.iter().any(|f| f.dst == dst) {
                return false;
            }
            // Return-merge key separation.
            let key = Self::merge_key(mesh, prime, dst, cycle, len);
            lane.iter().all(|f| {
                let fk = Self::merge_key(mesh, prime, f.dst, f.launch, f.len);
                key.abs_diff(fk) >= KEY_MARGIN
            })
        };
        // Injection queues, request queue first (§Qn2).
        for class in CLASSES {
            if let Some(id) = core.ni(prime).inj_head(class) {
                let pkt = core.store.get(id);
                if eligible(pkt.dst, pkt.len_flits) {
                    return Some((Candidate::InjHead(class), pkt.dst, pkt.len_flits));
                }
            }
        }
        // Input ports, round-robin. `occupied()` walks the same ascending
        // VC order the dense loop did, so the pick is unchanged; it just
        // skips empty slots via the occupancy word.
        if core.occupied_vcs(prime) == 0 {
            return None;
        }
        for k in 0..NUM_PORTS {
            let port = (self.scan_rr[p] + k) % NUM_PORTS;
            for (vc, occ) in core.input(prime, port).occupied() {
                // Any fully buffered, unsent packet at the head of an
                // input buffer is upgradeable (§III-C2); a downstream VC
                // it may already hold is released at take time.
                if !occ.quiescent() {
                    continue;
                }
                let pkt = core.store.get(occ.pkt);
                if eligible(pkt.dst, pkt.len_flits) {
                    self.scan_rr[p] = (port + 1) % NUM_PORTS;
                    return Some((Candidate::Vc(port, vc), pkt.dst, pkt.len_flits));
                }
            }
        }
        None
    }

    /// Builds this cycle's suppression set from flight link windows,
    /// asserting collision freedom, counting lane flit-hops for the
    /// tracer, and flagging preempted ejection ports.
    fn build_suppression(&mut self, core: &mut NetworkCore) {
        let cycle = core.cycle();
        self.suppressed.clear();
        self.eject_blocked.fill(false);
        for f in self.flights.iter().flatten() {
            self.busy_scratch.clear();
            f.busy_links(cycle, &mut self.busy_scratch);
            for &l in &self.busy_scratch {
                assert!(
                    self.suppressed.insert(l),
                    "FastPass lane collision on {l} at cycle {cycle} — \
                     TDM non-overlap invariant violated"
                );
                // Each busy link-cycle carries exactly one lane flit.
                if core.trace.counters_on() {
                    trace_bypass_link(core, l, f.pkt);
                }
            }
            if f.ejecting_at(cycle) {
                self.eject_blocked[f.dst.index()] = true;
            }
        }
    }
}

impl Scheme for FastPass {
    fn required_vns(&self) -> usize {
        0
    }

    fn step(&mut self, core: &mut NetworkCore) {
        let cycle = core.cycle();
        if self.schedule.is_slot_boundary(cycle) {
            assert!(
                self.flights.iter().all(|v| v.is_empty()),
                "flight crossed a slot boundary at cycle {cycle} — \
                 budget invariant violated"
            );
        }
        self.advance_flights(core);
        self.launch_flights(core);
        self.build_suppression(core);
        if core.trace.counters_on() {
            core.trace.sample_lanes(self.active_flights() as u64);
        }
        let ctx = AdvanceCtx {
            suppressed: Some(&self.suppressed),
            eject_blocked: Some(&self.eject_blocked),
            freeze: false,
        };
        advance(core, &mut self.routing, &ctx);
    }

    fn overlay_packets(&self) -> usize {
        self.active_flights()
    }

    fn export_state(&self, core: &NetworkCore, out: &mut StateExport) {
        let now = core.cycle();
        // TDM position: prime assignment, covered partition and slot
        // budget are all periodic in the full rotation.
        out.word(now % self.schedule.rotation_cycles());
        for p in 0..self.flights.len() {
            out.word(self.flights[p].len() as u64);
            for f in &self.flights[p] {
                out.pkt(f.pkt);
                out.word(f.prime.index() as u64);
                out.word(f.dst.index() as u64);
                out.word(f.len as u64);
                out.word(now.saturating_sub(f.launch));
                match f.state {
                    FlightState::Outbound => out.word(0),
                    FlightState::Ejecting { started } => {
                        out.word(1);
                        out.word(now.saturating_sub(started));
                    }
                    FlightState::Returning { started } => {
                        out.word(2);
                        out.word(now.saturating_sub(started));
                    }
                }
            }
            // `last_launch` only gates launches while the previous train
            // is still entering the lane (`now < cycle + len`); once that
            // window passes it behaves exactly like `None`, so export the
            // remaining occupancy rather than an ever-growing age.
            match self.last_launch[p] {
                Some((cycle, len)) if now < cycle + len as u64 => {
                    out.word(1);
                    out.word((cycle + len as u64) - now);
                }
                _ => out.word(0),
            }
            out.word(self.scan_rr[p] as u64);
        }
        // `suppressed`, `eject_blocked` and `busy_scratch` are rebuilt
        // from the flights every step; `counters` are diagnostics. The
        // adaptive routing RNG is intentionally hidden (documented
        // abstraction: merging states that differ only in RNG position
        // can merge schedules, never invent counterexamples).
    }
}

// ---- tracing helpers ------------------------------------------------------
//
// Cold, never-inlined, and reached only through `counters_on()` /
// `events_on()` gates at the call sites, so the per-cycle overlay code
// pays one predicted branch per site when tracing is off.

/// Records a rejected bypass arrival: the ejection-refusal stall cause
/// plus the `BypassExit(Rejected)` event.
#[cold]
#[inline(never)]
fn trace_bypass_rejected(core: &mut NetworkCore, dst: NodeId, pkt: PacketId, class: MessageClass) {
    let cause = match core.ni(dst).ej_refusal(class, pkt) {
        Some(EjRefusal::Reserved) => StallCause::EjReserved,
        _ => StallCause::EjBackpressure,
    };
    core.trace.count_stall(dst, cause);
    trace!(core.trace, dst, || TraceEvent::BypassExit {
        pkt,
        outcome: BypassOutcome::Rejected,
    });
}

/// Records a successful bypass ejection (counter + exit event).
#[cold]
#[inline(never)]
fn trace_bypass_ejected(core: &mut NetworkCore, dst: NodeId, pkt: PacketId, class: usize) {
    core.trace.count_eject(dst, class);
    trace!(core.trace, dst, || TraceEvent::BypassExit {
        pkt,
        outcome: BypassOutcome::Ejected,
    });
}

/// Records a flight returning to its prime after rejection.
#[cold]
#[inline(never)]
fn trace_bypass_returned(core: &mut NetworkCore, prime: NodeId, pkt: PacketId) {
    trace!(core.trace, prime, || TraceEvent::BypassExit {
        pkt,
        outcome: BypassOutcome::Returned,
    });
}

/// Records an upgrade launch at a prime router (counter + enter event).
#[cold]
#[inline(never)]
fn trace_bypass_launch(core: &mut NetworkCore, prime: NodeId, pkt: PacketId, dst: NodeId) {
    core.trace.count_bypass_launch(prime);
    trace!(core.trace, prime, || TraceEvent::BypassEnter { pkt, dst });
}

/// Counts a lane flit on busy link `l` and records its event at the
/// link's source router.
#[cold]
#[inline(never)]
fn trace_bypass_link(core: &mut NetworkCore, l: LinkId, pkt: PacketId) {
    let (from, _) = core.mesh().link_endpoints(l);
    core.trace.count_link(from, true);
    trace!(core.trace, from, || TraceEvent::BypassLink { pkt, link: l });
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::packet::Packet;
    use noc_sim::Simulation;
    use traffic::{SyntheticPattern, SyntheticWorkload};

    fn cfg(vcs: usize) -> SimConfig {
        SimConfig::builder()
            .mesh(4, 4)
            .vns(0)
            .vcs_per_vn(vcs)
            .seed(42)
            .build()
    }

    fn fast_cfg() -> FastPassConfig {
        // Short slots so TDM behaviour shows up quickly in tests.
        FastPassConfig {
            slot_cycles: Some(TdmSchedule::min_slot_cycles(noc_core::topology::Mesh::new(
                4, 4,
            ))),
            pipeline_depth: 4,
        }
    }

    #[test]
    fn runs_and_delivers_under_uniform_load() {
        let sim_cfg = cfg(2);
        let fp = FastPass::new(&sim_cfg, fast_cfg());
        let wl = SyntheticWorkload::new(SyntheticPattern::Uniform, 0.05, 9);
        let mut sim = Simulation::new(sim_cfg, Box::new(fp), Box::new(wl));
        let stats = sim.run_windows(2_000, 5_000);
        assert!(stats.delivered() > 100);
        assert!(sim.starvation_cycles() < 200);
    }

    #[test]
    fn upgrades_happen_under_load() {
        let sim_cfg = cfg(1);
        let fp = FastPass::new(&sim_cfg, fast_cfg());
        let wl = SyntheticWorkload::new(SyntheticPattern::Transpose, 0.30, 9);
        let mut sim = Simulation::new(sim_cfg, Box::new(fp), Box::new(wl));
        let stats = sim.run_windows(2_000, 8_000);
        assert!(
            stats.delivered_fastpass > 0,
            "high load must trigger FastFlow"
        );
        assert!(stats.delivered_regular > 0, "regular pass still in use");
    }

    #[test]
    fn low_load_mostly_regular() {
        // §Qn1: in the absence of congestion packets do not wait for
        // lanes; FastPass behaves like the baseline.
        let sim_cfg = cfg(2);
        let fp = FastPass::new(&sim_cfg, fast_cfg());
        let wl = SyntheticWorkload::new(SyntheticPattern::Uniform, 0.01, 9);
        let mut sim = Simulation::new(sim_cfg, Box::new(fp), Box::new(wl));
        let stats = sim.run_windows(2_000, 6_000);
        assert!(
            stats.fastpass_fraction() < 0.5,
            "low load should be regular-dominated, got {}",
            stats.fastpass_fraction()
        );
    }

    #[test]
    fn saturation_does_not_wedge() {
        let sim_cfg = cfg(1);
        let fp = FastPass::new(&sim_cfg, fast_cfg());
        let wl = SyntheticWorkload::new(SyntheticPattern::Transpose, 0.8, 9);
        let mut sim = Simulation::new(sim_cfg, Box::new(fp), Box::new(wl));
        sim.run(30_000);
        assert!(
            sim.starvation_cycles() < 2_000,
            "FastPass must keep consuming even past saturation (got {})",
            sim.starvation_cycles()
        );
    }

    #[test]
    fn deterministic() {
        let run = || {
            let sim_cfg = cfg(2);
            let fp = FastPass::new(&sim_cfg, fast_cfg());
            let wl = SyntheticWorkload::new(SyntheticPattern::Shuffle, 0.2, 9);
            let mut sim = Simulation::new(sim_cfg, Box::new(fp), Box::new(wl));
            let s = sim.run_windows(2_000, 4_000);
            (s.delivered(), s.dropped, s.rejections)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn pipelined_lanes_outperform_serialized() {
        // Pipelining pays off when lanes are long enough to hold several
        // FastPass-Packets in flight, so measure on an 8x8 mesh (a 4x4
        // lane drains before depth ever binds). A single seed's margin is
        // within injection noise; the summed margin across seeds is not.
        let measure = |depth: usize, seed: u64| {
            let sim_cfg = SimConfig::builder()
                .mesh(8, 8)
                .vns(0)
                .vcs_per_vn(1)
                .seed(42)
                .build();
            let fp = FastPass::new(
                &sim_cfg,
                FastPassConfig {
                    slot_cycles: Some(TdmSchedule::min_slot_cycles(noc_core::topology::Mesh::new(
                        8, 8,
                    ))),
                    pipeline_depth: depth,
                },
            );
            let wl = SyntheticWorkload::new(SyntheticPattern::Transpose, 0.5, seed);
            let mut sim = Simulation::new(sim_cfg, Box::new(fp), Box::new(wl));
            sim.run_windows(3_000, 8_000).delivered_fastpass
        };
        let seeds = [9u64, 10, 11];
        let serial: u64 = seeds.iter().map(|&s| measure(1, s)).sum();
        let piped: u64 = seeds.iter().map(|&s| measure(4, s)).sum();
        assert!(
            piped > serial,
            "pipelining must raise lane throughput: {piped} vs {serial}"
        );
    }

    #[test]
    fn counters_are_consistent() {
        let sim_cfg = cfg(1);
        let mut fp = FastPass::new(&sim_cfg, fast_cfg());
        let mut core = NetworkCore::new(sim_cfg);
        let mut wl = SyntheticWorkload::new(SyntheticPattern::Transpose, 0.5, 9);
        use noc_sim::Workload;
        for _ in 0..20_000 {
            wl.tick(&mut core);
            fp.step(&mut core);
            let now = core.cycle();
            for n in core.mesh().nodes() {
                for class in CLASSES {
                    if core.ni(n).ej_consumable(class, now).is_some() {
                        let e = core.ni_mut(n).pop_ej(class).unwrap();
                        let pkt = core.store.remove(e.pkt);
                        core.stats.record_delivered(&pkt);
                    }
                }
            }
            core.advance_cycle();
        }
        let c = fp.counters();
        assert!(c.upgrades > 0);
        // Every upgrade ends exactly one way: committed at the
        // destination, bounced (rejection, later re-parked and possibly
        // re-upgraded — each re-upgrade counts again), or still in the
        // air right now.
        assert!(c.upgrades >= c.completed, "{c:?}");
        assert!(
            c.upgrades <= c.completed + c.rejections + fp.active_flights() as u64,
            "{c:?}"
        );
    }

    #[test]
    fn ejection_reservation_honored_end_to_end() {
        // Force rejections by never consuming at one node and flooding it.
        let sim_cfg = SimConfig::builder()
            .mesh(4, 4)
            .vns(0)
            .vcs_per_vn(1)
            .ej_queue_packets(1)
            .seed(1)
            .build();
        let mut fp = FastPass::new(&sim_cfg, fast_cfg());
        let mut core = NetworkCore::new(sim_cfg);
        // Hot-spot: many nodes send to node 5, nothing consumes.
        for s in [0usize, 1, 2, 3, 4, 6, 7, 8] {
            core.generate(Packet::new(
                NodeId::new(s),
                NodeId::new(5),
                MessageClass::Request,
                1,
                0,
            ));
        }
        for _ in 0..5_000 {
            fp.step(&mut core);
            core.advance_cycle();
        }
        // The hot-spot's queue (cap 1) holds one packet; everything else
        // is parked/buffered but nothing was lost.
        assert_eq!(core.ni(NodeId::new(5)).ej_len(MessageClass::Request), 1);
        assert_eq!(
            core.resident_packets() + fp.active_flights(),
            8,
            "conservation under rejection pressure"
        );
        assert!(fp.counters().rejections > 0, "the flood was rejected");
    }
}
