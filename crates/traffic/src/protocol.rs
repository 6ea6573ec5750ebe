//! Closed-loop coherence-transaction workload.
//!
//! The paper's full-system evaluation runs MOESI Hammer on gem5/Ruby. The
//! property FastPass actually depends on is the *message-class dependence
//! structure* of any invalidation protocol (§II, Lemma 3):
//!
//! * cores issue **Requests** (1 flit) to a home node, limited by a
//!   finite pool of MSHRs;
//! * the home answers with a **Response** (5-flit data) or forwards the
//!   request (**Forward**, 1 flit) to a current owner, who then responds;
//! * dirty evictions issue **Writebacks** (5 flits) answered by
//!   **WritebackAck** (1 flit);
//! * responses/acks are *sink* classes: always consumed;
//! * a home node only consumes Requests while it can still issue the
//!   corresponding Responses — if its outgoing-response backlog exceeds a
//!   bound, request consumption stalls. This is the dependence that turns
//!   an over-filled 0-VN network into a protocol-level deadlock unless
//!   the scheme (FastPass, Pitstop) breaks it.
//!
//! The workload is closed-loop: simulated "execution time" (Fig. 10) is
//! the number of cycles until every core completes its transaction quota.

use noc_core::packet::{MessageClass, Packet};
use noc_core::rng::DetRng;
use noc_core::topology::NodeId;
use noc_sim::network::NetworkCore;
use noc_sim::Workload;

/// Configuration of the protocol model.
#[derive(Debug, Clone)]
pub struct ProtocolConfig {
    /// MSHRs per core: maximum outstanding transactions.
    pub mshrs: usize,
    /// Probability per cycle that a core with a free MSHR issues a new
    /// request (models computation think-time between misses).
    pub issue_prob: f64,
    /// Fraction of requests that are 3-hop (home forwards to an owner).
    pub forward_fraction: f64,
    /// Fraction of completed transactions that trigger a writeback.
    pub writeback_fraction: f64,
    /// Probability that a request targets a "nearby" home (within two
    /// hops) instead of a uniformly random one — spatial locality knob.
    pub locality: f64,
    /// Transactions each core must complete before the workload reports
    /// finished; `None` runs forever (latency-only experiments).
    pub quota: Option<u64>,
    /// Maximum responses a home may have outstanding toward the network
    /// before it stops consuming requests (the finite home-side buffer
    /// that creates the protocol dependence).
    pub home_backlog_limit: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for ProtocolConfig {
    fn default() -> Self {
        ProtocolConfig {
            mshrs: 16,
            issue_prob: 0.05,
            forward_fraction: 0.2,
            writeback_fraction: 0.3,
            locality: 0.0,
            quota: None,
            home_backlog_limit: 8,
            seed: 0xC0FE,
        }
    }
}

#[derive(Debug, Clone, Default)]
struct CoreState {
    outstanding: usize,
    completed: u64,
    /// Sink-class messages (responses/acks) this node has emitted that
    /// have not yet been consumed. Only sink obligations count: sinks are
    /// always consumable, so the gate below can always eventually open —
    /// gating on non-sink messages would deadlock the protocol itself.
    backlog: usize,
}

/// Closed-loop coherence workload (implements [`Workload`]).
#[derive(Debug, Clone)]
pub struct ProtocolWorkload {
    cfg: ProtocolConfig,
    cores: Vec<CoreState>,
    rng: DetRng,
    next_txn: u64,
    /// Original requester per open transaction (the directory state that
    /// lets a forwarded owner respond to the right core).
    requesters: std::collections::BTreeMap<u64, NodeId>,
    /// Messages generated but not yet consumed (drain tracking for
    /// closed-loop completion).
    open: usize,
}

impl ProtocolWorkload {
    /// Creates the workload for a network of `nodes` nodes.
    pub fn new(nodes: usize, cfg: ProtocolConfig) -> Self {
        ProtocolWorkload {
            rng: DetRng::new(cfg.seed),
            cores: vec![CoreState::default(); nodes],
            cfg,
            next_txn: 0,
            requesters: std::collections::BTreeMap::new(),
            open: 0,
        }
    }

    /// Completed transactions per core.
    pub fn completed(&self) -> Vec<u64> {
        self.cores.iter().map(|c| c.completed).collect()
    }

    /// Total completed transactions.
    pub fn total_completed(&self) -> u64 {
        self.cores.iter().map(|c| c.completed).sum()
    }

    fn pick_home(&mut self, core: &NetworkCore, src: NodeId) -> NodeId {
        let mesh = core.mesh();
        let n = mesh.num_nodes();
        if self.cfg.locality > 0.0 && self.rng.chance(self.cfg.locality) {
            // Nearby home: within two hops.
            for _ in 0..8 {
                let dx = self.rng.range(0, 5) as isize - 2;
                let dy = self.rng.range(0, 5) as isize - 2;
                let x = mesh.x(src) as isize + dx;
                let y = mesh.y(src) as isize + dy;
                if x >= 0 && y >= 0 && (x as usize) < mesh.width() && (y as usize) < mesh.height() {
                    let cand = mesh.node(x as usize, y as usize);
                    if cand != src {
                        return cand;
                    }
                }
            }
        }
        let mut d = self.rng.range(0, n - 1);
        if d >= src.index() {
            d += 1;
        }
        NodeId::new(d)
    }

    fn emit(&mut self, core: &mut NetworkCore, seed: noc_core::packet::PacketSeed) {
        core.generate(seed);
        self.open += 1;
    }

    fn pick_other(&mut self, core: &NetworkCore, a: NodeId, b: NodeId) -> NodeId {
        let n = core.mesh().num_nodes();
        loop {
            let c = NodeId::new(self.rng.range(0, n));
            if c != a && c != b {
                return c;
            }
        }
    }
}

impl Workload for ProtocolWorkload {
    fn tick(&mut self, core: &mut NetworkCore) {
        let cycle = core.cycle();
        let n = core.mesh().num_nodes();
        for i in 0..n {
            if let Some(q) = self.cfg.quota {
                if self.cores[i].completed >= q {
                    continue;
                }
            }
            if self.cores[i].outstanding >= self.cfg.mshrs {
                continue;
            }
            if !self.rng.chance(self.cfg.issue_prob) {
                continue;
            }
            let src = NodeId::new(i);
            let home = self.pick_home(core, src);
            let txn = self.next_txn;
            self.next_txn += 1;
            self.requesters.insert(txn, src);
            self.emit(
                core,
                Packet::new(src, home, MessageClass::Request, 1, cycle).with_txn(txn),
            );
            self.cores[i].outstanding += 1;
        }
    }

    fn on_consumed(&mut self, core: &mut NetworkCore, pkt: &Packet) {
        self.open = self.open.saturating_sub(1);
        let cycle = core.cycle();
        let here = pkt.dst;
        let txn = pkt.txn.get().unwrap_or(0);
        match pkt.class {
            MessageClass::Request => {
                // Home node: respond directly (a sink obligation) or
                // transfer the obligation to an owner via a forward.
                if self.rng.chance(self.cfg.forward_fraction) {
                    let owner = self.pick_other(core, here, pkt.src);
                    self.emit(
                        core,
                        Packet::new(here, owner, MessageClass::Forward, 1, cycle).with_txn(txn),
                    );
                } else {
                    self.cores[here.index()].backlog += 1;
                    self.emit(
                        core,
                        Packet::new(here, pkt.src, MessageClass::Response, 5, cycle).with_txn(txn),
                    );
                }
            }
            MessageClass::Forward => {
                // Owner supplies the data to the original requester,
                // looked up from the directory's transaction state.
                self.cores[here.index()].backlog += 1;
                let requester = self.requesters[&txn];
                // A forwarded owner may itself be the requester's node id
                // only by directory error; pick_other prevented that.
                self.emit(
                    core,
                    Packet::new(here, requester, MessageClass::Response, 5, cycle).with_txn(txn),
                );
            }
            MessageClass::Response => {
                // Requester: transaction complete, MSHR freed.
                self.requesters.remove(&txn);
                let c = &mut self.cores[here.index()];
                c.outstanding = c.outstanding.saturating_sub(1);
                c.completed += 1;
                // The sender's backlog drains when its response left the
                // network; approximate by crediting on consumption.
                let s = &mut self.cores[pkt.src.index()];
                s.backlog = s.backlog.saturating_sub(1);
                let done = self
                    .cfg
                    .quota
                    .is_some_and(|q| self.cores[here.index()].completed >= q);
                if !done && self.rng.chance(self.cfg.writeback_fraction) {
                    let home = self.pick_home(core, here);
                    self.emit(
                        core,
                        Packet::new(here, home, MessageClass::Writeback, 5, cycle).with_txn(txn),
                    );
                }
            }
            MessageClass::Writeback => {
                self.cores[here.index()].backlog += 1;
                self.emit(
                    core,
                    Packet::new(here, pkt.src, MessageClass::WritebackAck, 1, cycle).with_txn(txn),
                );
            }
            MessageClass::WritebackAck => {
                let s = &mut self.cores[pkt.src.index()];
                s.backlog = s.backlog.saturating_sub(1);
            }
            MessageClass::Unblock => {}
        }
    }

    fn can_consume(&self, node: NodeId, class: MessageClass) -> bool {
        match class {
            // Sink classes are always consumable (Lemma 3's premise).
            MessageClass::Response | MessageClass::WritebackAck | MessageClass::Unblock => true,
            // Non-sink classes are consumed only while the home can still
            // issue the reply they trigger.
            _ => self.cores[node.index()].backlog < self.cfg.home_backlog_limit,
        }
    }

    fn finished(&self, _core: &NetworkCore) -> bool {
        match self.cfg.quota {
            Some(q) => self.open == 0 && self.cores.iter().all(|c| c.completed >= q),
            None => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use noc_core::config::SimConfig;
    use noc_sim::regular::{advance, AdvanceCtx};
    use noc_sim::routing::DorXy;
    use noc_sim::{Scheme, Simulation};

    #[derive(Clone)]
    struct PlainXy;
    impl Scheme for PlainXy {
        fn required_vns(&self) -> usize {
            6
        }
        fn step(&mut self, core: &mut NetworkCore) {
            advance(core, &mut DorXy, &AdvanceCtx::default());
        }
    }

    fn vn6_cfg() -> SimConfig {
        SimConfig::builder()
            .mesh(4, 4)
            .vns(6)
            .vcs_per_vn(2)
            .seed(5)
            .build()
    }

    #[test]
    fn transactions_complete_with_vns() {
        let cfg = ProtocolConfig {
            quota: Some(5),
            issue_prob: 0.2,
            ..Default::default()
        };
        let wl = ProtocolWorkload::new(16, cfg);
        let mut sim = Simulation::new(vn6_cfg(), Box::new(PlainXy), Box::new(wl));
        let ran = sim.run(100_000);
        assert!(ran < 100_000, "workload should finish, ran {ran} cycles");
        assert!(sim.total_consumed() > 0);
    }

    #[test]
    fn mshr_limit_bounds_outstanding() {
        let cfg = ProtocolConfig {
            mshrs: 2,
            issue_prob: 1.0,
            quota: None,
            ..Default::default()
        };
        let wl = ProtocolWorkload::new(16, cfg);
        let mut sim = Simulation::new(vn6_cfg(), Box::new(PlainXy), Box::new(wl));
        sim.run(500);
        // With 2 MSHRs/core and 16 cores, at most 32 requests can ever be
        // outstanding; counting replies the live packet population is
        // bounded (each txn has at most a request + fwd/resp + wb chain).
        assert!(
            sim.in_flight() <= 16 * 2 * 4,
            "in flight {} exceeds txn bound",
            sim.in_flight()
        );
    }

    #[test]
    fn conservation_every_issue_eventually_completes() {
        let cfg = ProtocolConfig {
            quota: Some(3),
            issue_prob: 0.5,
            forward_fraction: 0.5,
            writeback_fraction: 0.5,
            seed: 9,
            ..Default::default()
        };
        let wl = ProtocolWorkload::new(16, cfg);
        let mut sim = Simulation::new(vn6_cfg(), Box::new(PlainXy), Box::new(wl));
        sim.run(200_000);
        assert_eq!(sim.in_flight(), 0, "everything drains after quota");
    }

    #[test]
    fn sink_classes_always_consumable() {
        let wl = ProtocolWorkload::new(4, ProtocolConfig::default());
        for n in 0..4 {
            assert!(wl.can_consume(NodeId::new(n), MessageClass::Response));
            assert!(wl.can_consume(NodeId::new(n), MessageClass::WritebackAck));
        }
    }

    #[test]
    fn backlog_stalls_request_consumption() {
        let mut wl = ProtocolWorkload::new(
            4,
            ProtocolConfig {
                home_backlog_limit: 1,
                ..Default::default()
            },
        );
        let node = NodeId::new(1);
        assert!(wl.can_consume(node, MessageClass::Request));
        wl.cores[1].backlog = 1;
        assert!(!wl.can_consume(node, MessageClass::Request));
        assert!(
            wl.can_consume(node, MessageClass::Response),
            "sinks unaffected"
        );
    }
}
