//! The scripted workload: a finite, adversary-controlled job set.
//!
//! The model checker explores *when* traffic enters the network, so the
//! workload must not make that decision itself. [`ScriptedWorkload`]
//! injects exactly one job per cycle when the explorer tells it to
//! (through the [`ScriptCtl`] it owns, which the explorer reaches
//! through the simulation: [`script_mut`]) and otherwise stays silent.
//! Because the workload owns all of its state, a cloned simulation is a
//! deep copy with its own script. Every
//! packet it ever creates is tagged with a *job id* — a logical identity
//! that is stable across interleavings — which is what lets the
//! canonicalizer rename [`PacketId`]s (assigned in creation order, which
//! differs per interleaving) into a schedule-independent space.
//!
//! The optional protocol model replicates the mechanism of
//! `traffic::ProtocolWorkload`'s deadlock demonstration deterministically:
//! consuming a non-sink message at its destination raises that node's
//! *backlog* and emits a sink-class response back to the requester; while
//! a node's backlog is at the limit, its consumer refuses further
//! non-sink messages (Lemma 3's "a stalled core stops draining request
//! queues"). Sink classes are always consumable.

use noc_core::packet::{MessageClass, Packet, PacketId};
use noc_core::topology::NodeId;
use noc_sim::network::NetworkCore;
use noc_sim::{Simulation, Workload};
use std::collections::BTreeMap;

/// One unit of scripted traffic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobSpec {
    /// Source node index.
    pub src: usize,
    /// Destination node index.
    pub dst: usize,
    /// Message class.
    pub class: MessageClass,
    /// Length in flits.
    pub len: u8,
}

impl JobSpec {
    /// A 1-flit request `src → dst`.
    pub fn req(src: usize, dst: usize) -> Self {
        JobSpec {
            src,
            dst,
            class: MessageClass::Request,
            len: 1,
        }
    }
}

/// The script's control/observation block, owned by the workload. The
/// explorer sets [`next_inject`](Self::next_inject) before a
/// `Simulation::step`; the workload consumes it during its tick and
/// records the packet↔job binding.
#[derive(Debug, Clone)]
pub struct ScriptCtl {
    /// The scripted jobs, in job-id order.
    pub jobs: Vec<JobSpec>,
    /// Which jobs have been generated.
    pub injected: Vec<bool>,
    /// Explorer's command for the next tick: generate this job.
    pub next_inject: Option<usize>,
    /// Live packet → canonical job id. Requests carry their job index;
    /// protocol responses carry `jobs.len() + job index`.
    pub pkt_job: BTreeMap<PacketId, u64>,
    /// Per-node protocol backlog (outstanding response obligations).
    pub backlog: Vec<u32>,
    /// Backlog at or above this refuses non-sink consumption (the
    /// protocol-deadlock ingredient). `None` disables the protocol model
    /// entirely: jobs are plain one-way traffic.
    pub backlog_limit: Option<u32>,
    /// Flit length of generated responses (protocol model only).
    pub response_len: u8,
    /// Total consumption events so far.
    pub consumed: u64,
    /// Consumption events expected for completion.
    pub expected: u64,
}

impl ScriptCtl {
    /// Creates the control block. With a backlog limit, every request is
    /// expected to produce and drain one response (two consumptions per
    /// job); without, jobs are one-way (one consumption per job).
    pub fn new(jobs: Vec<JobSpec>, nodes: usize, backlog_limit: Option<u32>) -> Self {
        let expected = jobs.len() as u64 * if backlog_limit.is_some() { 2 } else { 1 };
        let n = jobs.len();
        ScriptCtl {
            jobs,
            injected: vec![false; n],
            next_inject: None,
            pkt_job: BTreeMap::new(),
            backlog: vec![0; nodes],
            backlog_limit,
            response_len: 1,
            consumed: 0,
            expected,
        }
    }

    /// Job indices not yet generated, ascending.
    pub fn pending(&self) -> Vec<usize> {
        (0..self.jobs.len())
            .filter(|&j| !self.injected[j])
            .collect()
    }

    /// Whether every expected consumption has happened.
    pub fn done(&self) -> bool {
        self.consumed >= self.expected
    }

    /// Canonical job id of a live packet (requests: job index; responses:
    /// `jobs.len() + job index`).
    pub fn job_of(&self, pkt: PacketId) -> Option<u64> {
        self.pkt_job.get(&pkt).copied()
    }
}

/// The adversary-driven workload (see module docs).
#[derive(Debug, Clone)]
pub struct ScriptedWorkload {
    ctl: ScriptCtl,
}

impl ScriptedWorkload {
    /// Creates the workload with a fresh [`ScriptCtl`].
    pub fn new(jobs: Vec<JobSpec>, nodes: usize, backlog_limit: Option<u32>) -> Self {
        ScriptedWorkload {
            ctl: ScriptCtl::new(jobs, nodes, backlog_limit),
        }
    }
}

/// The script of a simulation whose workload is a [`ScriptedWorkload`].
///
/// # Panics
///
/// Panics if `sim` runs another workload.
pub fn script(sim: &Simulation) -> &ScriptCtl {
    &sim.workload::<ScriptedWorkload>()
        .expect("a checked simulation runs a scripted workload")
        .ctl
}

/// The script of `sim`, mutably (see [`script`]).
///
/// # Panics
///
/// Panics if `sim` runs another workload.
pub fn script_mut(sim: &mut Simulation) -> &mut ScriptCtl {
    &mut sim
        .workload_mut::<ScriptedWorkload>()
        .expect("a checked simulation runs a scripted workload")
        .ctl
}

impl Workload for ScriptedWorkload {
    fn tick(&mut self, core: &mut NetworkCore) {
        let ctl = &mut self.ctl;
        let Some(j) = ctl.next_inject.take() else {
            return;
        };
        assert!(!ctl.injected[j], "job {j} scheduled twice");
        ctl.injected[j] = true;
        let spec = ctl.jobs[j];
        let id = core.generate(Packet::new(
            NodeId::new(spec.src),
            NodeId::new(spec.dst),
            spec.class,
            spec.len,
            core.cycle(),
        ));
        ctl.pkt_job.insert(id, j as u64);
    }

    fn on_consumed(&mut self, core: &mut NetworkCore, pkt: &Packet) {
        let ctl = &mut self.ctl;
        ctl.consumed += 1;
        let job = ctl.pkt_job.remove(&pkt.id());
        if ctl.backlog_limit.is_none() {
            return;
        }
        if !pkt.class.is_sink() {
            // A request reached its home: the home now owes a response
            // and is (closer to) saturated until that response drains.
            ctl.backlog[pkt.dst.index()] += 1;
            let job = job.expect("scripted packets always carry a job id");
            let rid = core.generate(Packet::new(
                pkt.dst,
                pkt.src,
                MessageClass::Response,
                ctl.response_len,
                core.cycle(),
            ));
            let njobs = ctl.jobs.len() as u64;
            ctl.pkt_job.insert(rid, njobs + job);
        } else {
            // A response drained: its sender's obligation is settled.
            ctl.backlog[pkt.src.index()] -= 1;
        }
    }

    fn can_consume(&self, node: NodeId, class: MessageClass) -> bool {
        if class.is_sink() {
            return true;
        }
        match self.ctl.backlog_limit {
            Some(limit) => self.ctl.backlog[node.index()] < limit,
            None => true,
        }
    }

    fn finished(&self, _core: &NetworkCore) -> bool {
        self.ctl.done()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_and_done_track_script_progress() {
        let jobs = vec![JobSpec::req(0, 3), JobSpec::req(3, 0)];
        let mut ctl = ScriptCtl::new(jobs, 4, None);
        assert_eq!(ctl.pending(), vec![0, 1]);
        assert_eq!(ctl.expected, 2);
        ctl.injected[0] = true;
        assert_eq!(ctl.pending(), vec![1]);
        ctl.consumed = 2;
        assert!(ctl.done());
    }

    #[test]
    fn protocol_model_expects_responses() {
        let ctl = ScriptCtl::new(vec![JobSpec::req(0, 1)], 4, Some(1));
        assert_eq!(ctl.expected, 2, "request plus its response");
    }
}
