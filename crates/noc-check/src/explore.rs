//! The bounded explorer: exhaustive interleaving search with a visited
//! set, iterative deepening and a drain-based wedge oracle.
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
//! arbitration and phase interleaving expressible at the configured
//! depth.
//!
//! A [`Simulation`] is a value — cloning it deep-copies the network,
//! the scheme and the scripted workload, RNG states included — so a
//! search node is a state, not a path to replay: each child is its
//! parent's state plus the child's one decision ([`decide`]). Injecting
//! children get a clone; the last child, [`Decision::TICK`], takes the
//! parent's state itself, so the DFS holds a state only for the
//! ancestors whose injecting children it is inside — at most one per
//! scripted job, plus the node being expanded. The canonical visited
//! set ([`canon_hash`]) collapses the combinatorial bulk of equivalent
//! interleavings. Only [`replay`](mod@crate::replay) still runs a schedule
//! from cycle 0, as the independent check that a counterexample is
//! real.
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
use std::collections::{HashMap, HashSet};

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
    /// Final iterative-deepening depth limit (decisions).
    pub max_depth: usize,
    /// Cap on expanded search nodes.
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
    /// Every schedule within bounds drains completely.
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
    /// Depth limit the final iterative-deepening round ran with.
    pub depth_limit: usize,
    /// Paths cut off at the depth limit with jobs still pending (0 ⇒
    /// the state space was exhausted and the verdict is unconditional
    /// within the drain horizon).
    pub truncated_paths: u64,
    /// Whether the node budget ran out (verdict is bounded-only).
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

/// Internal mutable search state.
struct Search<'a> {
    cc: &'a CheckConfig,
    /// Canonical hash → shallowest depth at which the state was expanded.
    visited: HashMap<u64, usize>,
    /// Terminal states already drain-checked.
    drained: HashSet<u64>,
    nodes: u64,
    terminals: u64,
    deepest: usize,
    truncated: u64,
    budget_out: bool,
}

/// What a DFS branch resolved to.
enum Found {
    Nothing,
    Wedge(Counterexample),
    Violation(Vec<Decision>, Vec<String>),
}

impl Search<'_> {
    /// Expands the node `sim`, reached along `path`; `depth_limit`
    /// bounds further decisions.
    fn dfs(&mut self, path: &mut Vec<Decision>, mut sim: Simulation, depth_limit: usize) -> Found {
        if self.nodes >= self.cc.node_budget {
            self.budget_out = true;
            return Found::Nothing;
        }
        self.nodes += 1;
        self.deepest = self.deepest.max(path.len());

        let hash = canon_hash(&sim, &self.cc.canon);

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
            return Found::Violation(path.clone(), errors);
        }

        let pending = script(&sim).pending();
        if pending.is_empty() {
            // Fully injected: deterministic from here — drain-check once
            // per canonical state.
            if self.drained.insert(hash) {
                self.terminals += 1;
                if let DrainOutcome::Wedged(cex) = drain(self.cc, path, &mut sim) {
                    return Found::Wedge(cex);
                }
            }
            return Found::Nothing;
        }

        // Already expanded at this depth or shallower?
        match self.visited.get(&hash) {
            Some(&d) if d <= path.len() => return Found::Nothing,
            _ => {
                self.visited.insert(hash, path.len());
            }
        }

        if path.len() >= depth_limit {
            self.truncated += 1;
            return Found::Nothing;
        }

        for j in pending {
            match self.child(path, sim.clone(), Decision::inject(j), depth_limit) {
                Found::Nothing => {}
                other => return other,
            }
        }
        // The last choice takes the state itself: no sibling needs it.
        self.child(path, sim, Decision::TICK, depth_limit)
    }

    /// Expands the child `d` derives from `sim`, its parent's state.
    fn child(
        &mut self,
        path: &mut Vec<Decision>,
        mut sim: Simulation,
        d: Decision,
        depth_limit: usize,
    ) -> Found {
        decide(&mut sim, d);
        path.push(d);
        let found = self.dfs(path, sim, depth_limit);
        path.pop();
        found
    }
}

/// Runs the bounded check for one configuration: iterative-deepening DFS
/// until the space is exhausted (no truncated paths), a counterexample
/// is found, or the node/depth budgets run out.
pub fn check(cc: &CheckConfig) -> CheckReport {
    let mut depth = cc.jobs.len().max(1) * 2;
    let mut search = Search {
        cc,
        visited: HashMap::new(),
        drained: HashSet::new(),
        nodes: 0,
        terminals: 0,
        deepest: 0,
        truncated: 0,
        budget_out: false,
    };
    loop {
        depth = depth.min(cc.max_depth);
        search.visited.clear();
        search.drained.clear();
        search.truncated = 0;
        let found = search.dfs(&mut Vec::new(), materialize(cc), depth);
        let verdict = match found {
            Found::Wedge(cex) => Some(Verdict::Wedged(cex)),
            Found::Violation(schedule, errors) => {
                Some(Verdict::InvariantViolation(Violation { schedule, errors }))
            }
            Found::Nothing => {
                if search.truncated == 0 || search.budget_out || depth >= cc.max_depth {
                    Some(Verdict::DeadlockFree)
                } else {
                    None // deepen and retry
                }
            }
        };
        if let Some(verdict) = verdict {
            return CheckReport {
                name: cc.point.name.to_string(),
                verdict,
                states_explored: search.visited.len() as u64 + search.drained.len() as u64,
                nodes_materialized: search.nodes,
                terminals_drained: search.terminals,
                deepest_path: search.deepest,
                depth_limit: depth,
                truncated_paths: search.truncated,
                budget_exhausted: search.budget_out,
            };
        }
        depth *= 2;
    }
}
