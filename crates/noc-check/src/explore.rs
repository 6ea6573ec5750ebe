//! The explorer: one depth-first search that expands each canonical
//! state once, with a drain-based wedge oracle.
//!
//! # Search space
//!
//! The only nondeterminism in a [`Simulation`] driven by a
//! [`ScriptedWorkload`] is *when* each scripted job enters the network:
//! router arbitration, TDM phase alignment and class rotation are all
//! deterministic functions of the injection schedule. One decision is
//! taken per cycle — [`Decision::TICK`] (advance without injecting) or
//! `Decision::inject(j)` for any still-pending job `j` — so a decision
//! *path* is a complete schedule prefix and covers every injection-order,
//! arbitration and phase interleaving.
//!
//! A [`Simulation`] is a value — cloning it deep-copies the network,
//! the scheme and the scripted workload, RNG states included — so a
//! search node is a state, not a path to replay: each child is its
//! parent's state plus the child's one decision ([`decide`]). Children
//! are tried injections first, then [`Decision::TICK`]. Injecting
//! children get a clone; the TICK child takes the parent's state itself
//! as a tail step, so the search holds a state only for the ancestors
//! whose injecting children it is inside — at most one per scripted
//! job, plus the node being expanded. Those ancestors live on a heap
//! stack, not in recursion: a long tick chain costs one path byte per
//! level, and no schedule depth can overflow the native stack.
//!
//! The visited set ([`canon_hash`]) collapses the combinatorial bulk of
//! equivalent interleavings, and each canonical state is expanded once,
//! at the first path that reaches it. There is no depth limit — idle
//! tick chains close against the visited set once the scheme's
//! rotation wraps — so the node budget is the only bound, and a search
//! that ends within it has exhausted the space. The wedge reported is
//! the first in depth-first order, not necessarily the shallowest. Only
//! [`replay`](mod@crate::replay) still runs a schedule from cycle 0, as
//! the independent check that a counterexample is real.
//!
//! # Wedge oracle
//!
//! Once every job is injected the remaining evolution is deterministic,
//! and injection can never *resolve* a deadlock (new packets only add
//! buffer pressure; the unbounded source queue accepts them regardless).
//! Any reachable wedge therefore survives along the schedule that injects
//! the remaining jobs immediately — so it is sound to apply the
//! deadlock oracle only at fully-injected frontier states: run the
//! deterministic drain, and if no consumption happens for
//! [`CheckConfig::horizon`] cycles while work remains, the state has
//! wedged. The oracle never reports on its own authority — every wedge
//! is replayed concretely (see [`replay`](crate::replay)) before being
//! believed.

use crate::canon::{canon_hash, CanonParams};
use crate::script::{script, script_mut, JobSpec, ScriptedWorkload};
use noc_schemes::VerifyPoint;
use noc_sim::audit::{audit, audit_conservation};
use noc_sim::routing::RoutingPolicy;
use noc_sim::waitgraph::WaitGraph;
use noc_sim::Simulation;
use serde::Serialize;
use std::collections::HashSet;
use std::ops::ControlFlow;

/// One scheduling decision: what the adversary does this cycle.
///
/// Encoded as a byte — `0` ticks without injecting, `1 + j` injects job
/// `j` — so a schedule serializes as a plain byte vector.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct Decision(pub u8);

impl Decision {
    /// Advance one cycle without injecting.
    pub const TICK: Decision = Decision(0);

    /// Inject job `j` this cycle.
    pub fn inject(j: usize) -> Decision {
        Decision(u8::try_from(j + 1).expect("job index fits a byte"))
    }

    /// The injected job, if this decision injects.
    pub fn job(self) -> Option<usize> {
        (self.0 > 0).then(|| self.0 as usize - 1)
    }
}

/// A checker configuration: one verification point of the scheme
/// catalogue plus what is about exploring it.
pub struct CheckConfig {
    /// What is explored: mesh, VC structure, queue depths, scheme,
    /// protocol coupling, expected verdict (shared with `noc-prove`).
    pub point: VerifyPoint,
    /// The scripted jobs.
    pub jobs: Vec<JobSpec>,
    /// Canonicalization parameters (age cap must exceed the scheme's
    /// blocked-time thresholds).
    pub canon: CanonParams,
    /// Consumption-silence horizon (cycles) before the drain oracle
    /// declares a wedge. Must exceed the scheme's longest legitimate
    /// quiet period (TDM rotation, pit phases, regeneration delays).
    pub horizon: u64,
    /// Hard cap on drain length per terminal state.
    pub drain_cap: u64,
    /// Cap on expanded search nodes: the search's only bound.
    pub node_budget: u64,
}

impl CheckConfig {
    /// The routing policy a wedged state's wait-graph is built with: the
    /// scheme's own discipline, so every direction a blocked head waits
    /// on contributes its edges.
    pub fn diag_policy(&self) -> Box<dyn RoutingPolicy> {
        self.point.id.policy_kind().policy(VerifyPoint::SEED)
    }
}

/// Why a wedged drain is stuck, per the wait-graph.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum WedgeKind {
    /// The wait-for graph over blocked buffer occupants has a cycle:
    /// classic circular buffer wait. Carries the human-readable
    /// `node:port:vc` positions along the cycle.
    BufferCycle(Vec<String>),
    /// No buffer-wait cycle: the network is quiescent (or starved by an
    /// overlay/protocol condition) with undelivered packets — e.g. the
    /// consumer-side backlog chain of a protocol deadlock, or packets
    /// marooned in scheme overlay state.
    Quiescent,
}

/// A concrete deadlock witness: the decision schedule plus how the drain
/// wedged, ready for deterministic replay.
#[derive(Debug, Clone, Serialize)]
pub struct Counterexample {
    /// The decision path from cycle 0 (one decision per cycle).
    pub schedule: Vec<Decision>,
    /// Cycles the drain oracle ran after the last decision before
    /// declaring the wedge.
    pub drain_cycles: u64,
    /// Simulation cycle at which the wedge was declared.
    pub wedge_cycle: u64,
    /// Packets still in flight at the wedge.
    pub in_flight: usize,
    /// Consumptions that had happened (vs. expected).
    pub consumed: u64,
    /// Consumptions the script expected.
    pub expected: u64,
    /// Canonical hash of the wedged state (replay must reproduce it).
    pub state_hash: u64,
    /// Wait-graph diagnosis.
    pub kind: WedgeKind,
}

/// The verdict for one configuration.
#[derive(Debug, Clone, Serialize)]
pub enum Verdict {
    /// Every explored schedule drains completely.
    DeadlockFree,
    /// A schedule wedges — here is the witness.
    Wedged(Counterexample),
    /// A structural invariant (Lemmas 1–4 instrumentation, packet
    /// conservation) failed at an explored state.
    InvariantViolation(Violation),
}

/// An invariant failure at a reached state.
#[derive(Debug, Clone, Serialize)]
pub struct Violation {
    /// The schedule reaching the violating state.
    pub schedule: Vec<Decision>,
    /// Auditor messages.
    pub errors: Vec<String>,
}

/// Exploration statistics and outcome for one configuration.
#[derive(Debug, Clone, Serialize)]
pub struct CheckReport {
    /// Configuration name.
    pub name: String,
    /// The verdict.
    pub verdict: Verdict,
    /// Distinct canonical states visited.
    pub states_explored: u64,
    /// Search nodes expanded.
    pub nodes_materialized: u64,
    /// Fully-injected frontier states drain-checked.
    pub terminals_drained: u64,
    /// Deepest decision path expanded.
    pub deepest_path: usize,
    /// Whether the node budget ran out: the verdict is bounded-only.
    /// Otherwise the state space was exhausted and a clean verdict is
    /// unconditional within the drain horizon.
    pub budget_exhausted: bool,
}

impl CheckReport {
    /// Whether the verdict matches the point's expectation (the planted
    /// deadlock must wedge; everything else must verify clean).
    pub fn as_expected(&self, cc: &CheckConfig) -> bool {
        matches!(
            (&self.verdict, cc.point.expect_deadlock),
            (Verdict::DeadlockFree, false) | (Verdict::Wedged(_), true)
        )
    }
}

/// Builds the cycle-0 simulation of a config: the root of the search,
/// and the start of every replay.
pub fn materialize(cc: &CheckConfig) -> Simulation {
    let cfg = cc.point.sim_config();
    // The protocol model, where on, stalls a consumer at one
    // outstanding response.
    let backlog_limit = cc.point.coupling.then_some(1);
    let wl = ScriptedWorkload::new(cc.jobs.clone(), cfg.mesh.num_nodes(), backlog_limit);
    let scheme = cc.point.build(&cfg);
    Simulation::new(cfg, scheme, Box::new(wl))
}

/// Takes one decision on `sim`: schedules the decided job, if any, and
/// steps one cycle.
pub fn decide(sim: &mut Simulation, d: Decision) {
    if let Some(j) = d.job() {
        script_mut(sim).next_inject = Some(j);
    }
    sim.step();
}

/// Outcome of draining one fully-injected state.
enum DrainOutcome {
    /// All expected consumptions happened within the cap.
    Drained,
    /// Consumption went silent for the horizon with work remaining.
    Wedged(Counterexample),
}

/// Runs the deterministic drain oracle from a fully-injected state.
fn drain(cc: &CheckConfig, path: &[Decision], sim: &mut Simulation) -> DrainOutcome {
    let mut silent = 0u64;
    let mut ran = 0u64;
    let mut last_consumed = script(sim).consumed;
    while ran < cc.drain_cap {
        sim.step();
        ran += 1;
        let ctl = script(sim);
        if ctl.done() {
            return DrainOutcome::Drained;
        }
        if ctl.consumed > last_consumed {
            last_consumed = ctl.consumed;
            silent = 0;
        } else {
            silent += 1;
        }
        if silent >= cc.horizon {
            return DrainOutcome::Wedged(wedge(cc, path, sim, ran));
        }
    }
    // Hitting the cap without a silent horizon means consumption is still
    // trickling — not a wedge, but the drain budget is too small to prove
    // completion. Treat as wedged so it surfaces loudly; replay will show
    // the slow progress if it is a false alarm.
    DrainOutcome::Wedged(wedge(cc, path, sim, ran))
}

/// The counterexample of a drain that stopped after `ran` cycles.
fn wedge(cc: &CheckConfig, path: &[Decision], sim: &Simulation, ran: u64) -> Counterexample {
    let ctl = script(sim);
    Counterexample {
        schedule: path.to_vec(),
        drain_cycles: ran,
        wedge_cycle: sim.core.cycle(),
        in_flight: sim.in_flight(),
        consumed: ctl.consumed,
        expected: ctl.expected,
        state_hash: canon_hash(sim, &cc.canon),
        kind: diagnose(cc, sim),
    }
}

/// Classifies a wedged state via the wait-for graph.
fn diagnose(cc: &CheckConfig, sim: &Simulation) -> WedgeKind {
    let g = WaitGraph::build(&sim.core, cc.diag_policy().as_ref(), 0);
    match g.deps().find_cycle() {
        Some(cycle) => WedgeKind::BufferCycle(
            cycle
                .iter()
                .map(|&i| {
                    let (pos, _pkt) = g.vertex(i);
                    format!("n{}:p{}:v{}", pos.node.index(), pos.port, pos.vc)
                })
                .collect(),
        ),
        None => WedgeKind::Quiescent,
    }
}

/// A node whose children are still to come: its state, its path length,
/// and the jobs it has yet to inject. It lives until its last child,
/// [`Decision::TICK`], takes its state.
struct Frame {
    sim: Simulation,
    depth: usize,
    inject: std::vec::IntoIter<usize>,
}

/// Internal mutable search state.
struct Search<'a> {
    cc: &'a CheckConfig,
    /// Canonical hashes of the states expanded so far.
    seen: HashSet<u64>,
    nodes: u64,
    terminals: u64,
    deepest: usize,
    budget_out: bool,
}

impl Search<'_> {
    /// Expands `sim`, reached along `path`: audits it and, if its
    /// canonical state is new, drains it (every job injected) or returns
    /// the frame its children branch from.
    fn expand(
        &mut self,
        path: &[Decision],
        mut sim: Simulation,
    ) -> ControlFlow<Verdict, Option<Frame>> {
        self.nodes += 1;
        self.deepest = self.deepest.max(path.len());

        // Lemma instrumentation + conservation at every explored state.
        let mut errors: Vec<String> = audit(&sim.core)
            .into_iter()
            .map(|e| e.to_string())
            .collect();
        errors.extend(
            audit_conservation(
                &sim.core,
                sim.scheme().overlay_packets(),
                sim.total_consumed(),
            )
            .into_iter()
            .map(|e| e.to_string()),
        );
        if !errors.is_empty() {
            let schedule = path.to_vec();
            return ControlFlow::Break(Verdict::InvariantViolation(Violation { schedule, errors }));
        }

        if !self.seen.insert(canon_hash(&sim, &self.cc.canon)) {
            return ControlFlow::Continue(None);
        }
        let pending = script(&sim).pending();
        if pending.is_empty() {
            // Fully injected: deterministic from here — drain-check once
            // per canonical state.
            self.terminals += 1;
            return match drain(self.cc, path, &mut sim) {
                DrainOutcome::Drained => ControlFlow::Continue(None),
                DrainOutcome::Wedged(cex) => ControlFlow::Break(Verdict::Wedged(cex)),
            };
        }
        let (depth, inject) = (path.len(), pending.into_iter());
        ControlFlow::Continue(Some(Frame { sim, depth, inject }))
    }

    /// The depth-first search from the cycle-0 state, on a heap stack of
    /// [`Frame`]s: after each expansion the next node is the top frame's
    /// next child — a clone of its state plus one injection while it has
    /// jobs to inject, then its own state plus [`Decision::TICK`], which
    /// pops it. Frames nest only inside injecting children, so at most
    /// one per scripted job is live, and a tick chain costs one path
    /// byte per level.
    fn run(&mut self) -> ControlFlow<Verdict> {
        let mut path = Vec::new();
        let mut frames: Vec<Frame> = Vec::new();
        let mut sim = materialize(self.cc);
        loop {
            if self.nodes >= self.cc.node_budget {
                self.budget_out = true;
                return ControlFlow::Continue(());
            }
            frames.extend(self.expand(&path, sim)?);
            let Some(top) = frames.last_mut() else {
                return ControlFlow::Continue(());
            };
            path.truncate(top.depth);
            let d;
            (sim, d) = match top.inject.next() {
                Some(j) => (top.sim.clone(), Decision::inject(j)),
                None => {
                    let top = frames.pop().expect("the top frame exists");
                    (top.sim, Decision::TICK)
                }
            };
            decide(&mut sim, d);
            path.push(d);
        }
    }
}

/// Runs the check for one configuration: one depth-first search that
/// expands each canonical state once, until the space is exhausted, a
/// counterexample is found, or the node budget runs out.
pub fn check(cc: &CheckConfig) -> CheckReport {
    let mut search = Search {
        cc,
        seen: HashSet::new(),
        nodes: 0,
        terminals: 0,
        deepest: 0,
        budget_out: false,
    };
    let verdict = match search.run() {
        ControlFlow::Continue(()) => Verdict::DeadlockFree,
        ControlFlow::Break(verdict) => verdict,
    };
    CheckReport {
        name: cc.point.name.to_string(),
        verdict,
        states_explored: search.seen.len() as u64,
        nodes_materialized: search.nodes,
        terminals_drained: search.terminals,
        deepest_path: search.deepest,
        budget_exhausted: search.budget_out,
    }
}
