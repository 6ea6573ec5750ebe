//! The simulation driver: workloads, measurement windows, sweeps.

use crate::network::NetworkCore;
use crate::probe::{Phase, PhaseProbe};
use crate::sampler::{Sampler, SamplerConfig};
use crate::scheme::Scheme;
use noc_core::config::SimConfig;
use noc_core::packet::{MessageClass, Packet};
use noc_core::stats::NetStats;
use noc_core::topology::NodeId;
use noc_trace::{trace, TraceConfig, TraceEvent, Tracer};

/// A traffic workload driving a simulation.
///
/// Workloads create packets via [`NetworkCore::generate`] in
/// [`tick`](Workload::tick) and may react to deliveries in
/// [`on_consumed`](Workload::on_consumed) (closed-loop protocols inject
/// replies there). [`can_consume`](Workload::can_consume) models
/// processor-side backpressure — a stalled core stops draining its
/// request ejection queue, which is exactly the protocol-deadlock
/// scenario of §II.
///
/// Workloads must be [`Send`] for the same reason schemes are: the bench
/// harness runs each simulation on a worker thread, so the whole
/// `Simulation` (scheme + workload + core) has to move across threads.
pub trait Workload: Send {
    /// Called once per cycle before the scheme steps; generate new
    /// packets here.
    fn tick(&mut self, core: &mut NetworkCore);

    /// Called when the NI consumer takes a delivered packet; closed-loop
    /// workloads inject replies here.
    fn on_consumed(&mut self, core: &mut NetworkCore, pkt: &Packet) {
        let _ = (core, pkt);
    }

    /// Whether the node's consumer is currently willing to take packets
    /// of this class (sink classes should always be consumable —
    /// Lemma 3).
    fn can_consume(&self, node: NodeId, class: MessageClass) -> bool {
        let _ = (node, class);
        true
    }

    /// Closed-loop completion signal; open-loop workloads never finish.
    fn finished(&self, core: &NetworkCore) -> bool {
        let _ = core;
        false
    }
}

/// One simulation: a network, a scheme and a workload.
pub struct Simulation {
    /// The simulated network (public for inspection in tests/benches).
    pub core: NetworkCore,
    scheme: Box<dyn Scheme>,
    workload: Box<dyn Workload>,
    last_consumption: u64,
    consumed: u64,
    sampler: Option<Sampler>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("cycle", &self.core.cycle())
            .field("consumed", &self.consumed)
            .finish()
    }
}

impl Simulation {
    /// Assembles a simulation.
    ///
    /// # Panics
    ///
    /// Panics if the configuration's VN count does not match the scheme's
    /// requirement (a 6-VN scheme run with 0 VNs would deadlock by
    /// design, and vice versa wastes buffers silently).
    pub fn new(cfg: SimConfig, scheme: Box<dyn Scheme>, workload: Box<dyn Workload>) -> Self {
        assert_eq!(
            cfg.vns,
            scheme.required_vns(),
            "scheme requires {} VNs, config has {}",
            scheme.required_vns(),
            cfg.vns
        );
        Simulation {
            core: NetworkCore::new(cfg),
            scheme,
            workload,
            last_consumption: 0,
            consumed: 0,
            sampler: None,
        }
    }

    /// Shared access to the scheme (overlay inspection, state export for
    /// the model checker).
    pub fn scheme(&self) -> &dyn Scheme {
        self.scheme.as_ref()
    }

    /// Enables (or re-levels) tracing for all subsequent cycles.
    ///
    /// Tracing is observational only: a traced run produces bitwise
    /// identical [`NetStats`] to an untraced one (enforced by the
    /// `trace_gate` integration test).
    pub fn set_trace(&mut self, cfg: &TraceConfig) {
        self.core.enable_trace(cfg);
    }

    /// The tracer (disabled unless [`set_trace`](Self::set_trace) ran).
    pub fn tracer(&self) -> &Tracer {
        &self.core.trace
    }

    /// Installs a windowed sampler for all subsequent cycles.
    ///
    /// Like tracing, sampling is observational only: a sampled run
    /// produces bitwise identical [`NetStats`] to an unsampled one
    /// (enforced by the `sampler_gate` integration test). The sampler's
    /// delta baselines are re-based on the current counters here, and
    /// again at every [`reset_stats`](Self::reset_stats), so the series
    /// always covers exactly the live measurement window.
    pub fn set_sampler(&mut self, cfg: &SamplerConfig) {
        let mut s = Sampler::new(cfg);
        s.resync(&self.core);
        self.sampler = Some(s);
    }

    /// The installed sampler, if any.
    pub fn sampler(&self) -> Option<&Sampler> {
        self.sampler.as_ref()
    }

    /// Flushes the sampler's final partial window and returns the
    /// sampler. Call after the last [`run`](Self::run) and before
    /// reading [`Sampler::windows`]; otherwise counts accrued since the
    /// last window boundary are missing and window sums will not
    /// reconcile with end-of-run totals.
    pub fn finish_sampling(&mut self) -> Option<&Sampler> {
        let overlay = self.scheme.overlay_packets() as u64;
        if let Some(s) = self.sampler.as_mut() {
            s.flush(&self.core, overlay);
        }
        self.sampler.as_ref()
    }

    /// Installs a phase probe (see [`PhaseProbe`]); stages bracket
    /// themselves with it until [`take_probe`](Self::take_probe).
    pub fn set_probe(&mut self, probe: Box<dyn PhaseProbe>) {
        self.core.set_probe(probe);
    }

    /// Uninstalls and returns the phase probe, if any.
    pub fn take_probe(&mut self) -> Option<Box<dyn PhaseProbe>> {
        self.core.take_probe()
    }

    /// Simulates one cycle: workload tick → scheme step → NI consumption.
    pub fn step(&mut self) {
        self.core.probe_begin(Phase::WorkloadTick);
        self.workload.tick(&mut self.core);
        self.core.probe_end(Phase::WorkloadTick);
        self.core.probe_begin(Phase::SchemeStep);
        self.scheme.step(&mut self.core);
        self.core.probe_end(Phase::SchemeStep);
        self.core.probe_begin(Phase::NiConsume);
        self.consume();
        self.core.probe_end(Phase::NiConsume);
        self.core.stats.cycles += 1;
        self.core.advance_cycle();
        if self.sampler.is_some() {
            self.sample_tick();
        }
    }

    /// Closes a sampling window when one is due. Cold: reached only with
    /// a sampler installed; `step()` pays a single predicted branch.
    #[cold]
    #[inline(never)]
    fn sample_tick(&mut self) {
        let due = self
            .sampler
            .as_ref()
            .is_some_and(|s| self.core.cycle() >= s.next_due());
        if due {
            let overlay = self.scheme.overlay_packets() as u64;
            if let Some(s) = self.sampler.as_mut() {
                s.record_window(&self.core, overlay);
            }
        }
    }

    /// Whether the workload reports itself finished (closed-loop
    /// workloads stop the run early; open-loop ones never finish).
    /// [`run`](Self::run) checks this before every cycle; drivers that
    /// step a closed-loop run themselves read it to know when it ended.
    pub fn workload_finished(&self) -> bool {
        self.workload.finished(&self.core)
    }

    /// Runs `cycles` cycles (or until a closed-loop workload finishes).
    /// Returns the cycles actually simulated.
    pub fn run(&mut self, cycles: u64) -> u64 {
        for i in 0..cycles {
            if self.workload.finished(&self.core) {
                return i;
            }
            self.step();
        }
        cycles
    }

    /// Standard open-loop methodology: run a warmup window with
    /// statistics discarded, then a measurement window, and return the
    /// measured statistics.
    pub fn run_windows(&mut self, warmup: u64, measure: u64) -> NetStats {
        self.run(warmup);
        self.reset_stats();
        self.run(measure);
        self.core.stats.clone()
    }

    /// Clears statistics (start of a measurement window). The new window
    /// records the current cycle as its start, so deliveries of packets
    /// generated *before* it (warmup carryover) are counted separately —
    /// see [`NetStats::delivered_carryover`].
    pub fn reset_stats(&mut self) {
        let nodes = self.core.mesh().num_nodes();
        let mut stats = NetStats::new(nodes);
        stats.window_start = self.core.cycle();
        self.core.stats = stats;
        if let Some(s) = self.sampler.as_mut() {
            s.resync(&self.core);
        }
    }

    /// Cycles since an NI last consumed a packet — a large value while
    /// packets are resident indicates a wedged network (deadlock or
    /// livelock); used by tests and the deadlock experiments.
    pub fn starvation_cycles(&self) -> u64 {
        if self.core.resident_packets() + self.scheme.overlay_packets() == 0 {
            0
        } else {
            self.core.cycle().saturating_sub(self.last_consumption)
        }
    }

    /// Total packets consumed by NIs over the simulation's lifetime.
    pub fn total_consumed(&self) -> u64 {
        self.consumed
    }

    /// Packets still anywhere in the system (network + NIs + overlay).
    pub fn in_flight(&self) -> usize {
        self.core.resident_packets() + self.scheme.overlay_packets()
    }

    /// Runs the full structural audit plus the global conservation
    /// checks (packet and credit conservation, occupancy-mask
    /// consistency), panicking with a readable report on any violation.
    ///
    /// Engine-level tests end with this; it is also the first thing to
    /// reach for when a scheme under development misbehaves.
    ///
    /// # Panics
    ///
    /// Panics when any audit check fails.
    pub fn assert_conserved(&self) {
        crate::audit::assert_conserved(&self.core, self.scheme.overlay_packets(), self.consumed);
    }

    /// Delivers queued packets to the workload, nodes ascending. Walks
    /// the live-NI words instead of every node, re-reading the word after
    /// each node: a bit `on_consumed` sets above the cursor is still
    /// visited this cycle, exactly as the dense `for node in nodes()`
    /// loop would (one set below it marks an NI that loop had already
    /// passed, and replies land in source queues, which this loop does
    /// not read). An NI seen empty afterwards leaves the set — the only
    /// place live-NI bits are cleared.
    fn consume(&mut self) {
        let now = self.core.cycle();
        for w in 0..self.core.mesh().num_nodes().div_ceil(64) {
            let mut passed = 0u64;
            loop {
                let ahead = self.core.ni_live_word(w) & !passed;
                if ahead == 0 {
                    break;
                }
                let bit = ahead.trailing_zeros();
                passed |= !0 >> (63 - bit);
                let node = NodeId::new(w * 64 + bit as usize);
                self.consume_at(node, now);
                self.core.retire_idle_ni(node);
            }
        }
    }

    fn consume_at(&mut self, node: NodeId, now: u64) {
        // Visit only classes with queued deliveries, in ascending class
        // order — the same order the dense CLASSES loop used
        // (`can_consume` is a pure predicate, so skipping classes with
        // empty queues is unobservable).
        let mut classes = self.core.ni(node).ej_classes();
        while classes != 0 {
            let c = classes.trailing_zeros() as usize;
            classes &= classes - 1;
            let class = MessageClass::from_index(c);
            if !self.workload.can_consume(node, class) {
                continue;
            }
            let Some(_) = self.core.ni(node).ej_consumable(class, now) else {
                continue;
            };
            let entry = self
                .core
                .ni_mut(node)
                .pop_ej(class)
                .expect("ej_consumable promised a waiting packet");
            let pkt = self.core.store.remove(entry.pkt);
            trace!(self.core.trace, node, || TraceEvent::Consume {
                pkt: entry.pkt,
            });
            self.core.stats.record_delivered(&pkt);
            self.workload.on_consumed(&mut self.core, &pkt);
            self.last_consumption = now;
            self.consumed += 1;
        }
    }
}

/// [`Simulation::run_windows`] on each simulation in turn, returning
/// the measured [`NetStats`] in input order.
///
/// Kept only because the repository benchmark
/// (`benchmark/src/{lanes,wl_engine}.rs`) calls it by this name; nothing
/// in the workspace does.
pub fn run_windows_batched(sims: &mut [Simulation], warmup: u64, measure: u64) -> Vec<NetStats> {
    sims.iter_mut()
        .map(|s| s.run_windows(warmup, measure))
        .collect()
}

/// Minimal scheme + workload pair for in-crate tests (`engine`,
/// `scheme`): XY-routed VCT with uniform-random single-class open-loop
/// traffic. Scheme crates proper live above `noc-sim`, so in-crate tests
/// bring their own.
#[cfg(test)]
pub(crate) mod tests_support {
    use super::*;
    use crate::regular::{advance, AdvanceCtx};
    use crate::routing::DorXy;
    use noc_core::rng::DetRng;

    pub(crate) struct PlainXy;
    impl Scheme for PlainXy {
        fn required_vns(&self) -> usize {
            0
        }
        fn step(&mut self, core: &mut NetworkCore) {
            advance(core, &mut DorXy, &AdvanceCtx::default());
        }
    }

    pub(crate) struct UniformReq {
        pub(crate) rate: f64,
        pub(crate) rng: DetRng,
    }
    impl Workload for UniformReq {
        fn tick(&mut self, core: &mut NetworkCore) {
            let n = core.mesh().num_nodes();
            let cycle = core.cycle();
            for src in 0..n {
                if self.rng.chance(self.rate) {
                    let mut dst = self.rng.range(0, n - 1);
                    if dst >= src {
                        dst += 1;
                    }
                    core.generate(Packet::new(
                        NodeId::new(src),
                        NodeId::new(dst),
                        MessageClass::Request,
                        1,
                        cycle,
                    ));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::tests_support::{PlainXy, UniformReq};
    use super::*;
    use noc_core::rng::DetRng;

    fn sim(rate: f64) -> Simulation {
        Simulation::new(
            SimConfig::builder()
                .mesh(4, 4)
                .vns(0)
                .vcs_per_vn(2)
                .seed(3)
                .build(),
            Box::new(PlainXy),
            Box::new(UniformReq {
                rate,
                rng: DetRng::new(11),
            }),
        )
    }

    /// End-of-test conservation gate: every engine-level test that runs
    /// a simulation finishes here, proving no packet or credit leaked
    /// and the occupancy masks never drifted.
    fn finish(s: &Simulation) {
        s.assert_conserved();
    }

    #[test]
    fn low_load_delivers_everything_quickly() {
        let mut s = sim(0.02);
        let stats = s.run_windows(2_000, 5_000);
        assert!(stats.delivered() > 0, "packets flowed");
        let lat = stats.avg_latency();
        assert!(
            lat < 30.0,
            "low-load latency should be near zero-load: {lat}"
        );
        assert!(s.starvation_cycles() < 100);
        finish(&s);
    }

    #[test]
    fn overload_saturates_gracefully() {
        let mut s = sim(0.9);
        let stats = s.run_windows(2_000, 4_000);
        // Accepted throughput far below offered; latency blows up.
        assert!(stats.throughput_packets() < 0.6);
        assert!(stats.avg_latency() > 50.0);
        // But the network keeps moving (XY is deadlock-free).
        assert!(s.starvation_cycles() < 100);
        finish(&s);
    }

    #[test]
    fn measurement_window_resets_stats() {
        let mut s = sim(0.05);
        s.run(1_000);
        let before = s.core.stats.delivered();
        assert!(before > 0);
        s.reset_stats();
        assert_eq!(s.core.stats.delivered(), 0);
        assert_eq!(s.core.stats.cycles, 0);
        finish(&s);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut s = sim(0.1);
            let st = s.run_windows(1_000, 2_000);
            finish(&s);
            (st.delivered(), st.avg_latency())
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "requires")]
    fn vn_mismatch_rejected() {
        let _ = Simulation::new(
            SimConfig::builder().mesh(4, 4).vns(6).vcs_per_vn(2).build(),
            Box::new(PlainXy),
            Box::new(UniformReq {
                rate: 0.0,
                rng: DetRng::new(0),
            }),
        );
    }

    /// Regression for warmup-boundary load accounting: packets generated
    /// during warmup but delivered during measurement previously inflated
    /// `delivered` against a `generated` counter that had been zeroed,
    /// letting accepted throughput exceed apparent offered load near
    /// saturation. With the carryover split, window-born deliveries can
    /// never exceed window generation.
    #[test]
    fn warmup_carryover_does_not_inflate_accepted_load() {
        // Heavy load on a small mesh: the warmup window ends with many
        // packets still in flight, which then drain during measurement.
        let mut s = sim(0.9);
        let stats = s.run_windows(1_000, 500);
        assert!(
            stats.delivered_carryover > 0,
            "near saturation, some warmup packets must drain in-window"
        );
        assert!(
            stats.delivered_in_window() <= stats.generated,
            "window-born deliveries ({}) exceed window generation ({})",
            stats.delivered_in_window(),
            stats.generated
        );
        assert_eq!(stats.window_start, 1_000);
        finish(&s);
    }

    #[test]
    fn sampler_windows_reconcile_with_run_totals() {
        let mut s = sim(0.1);
        s.run(500);
        s.reset_stats();
        s.set_sampler(&crate::sampler::SamplerConfig {
            sample_every: 64,
            max_windows: 128,
        });
        s.run(1_000);
        s.finish_sampling();
        let stats_delivered = s.core.stats.delivered();
        let stats_flits = s.core.stats.flits_delivered;
        let sampler = s.sampler().expect("sampler installed");
        assert_eq!(sampler.dropped_windows(), 0);
        // 15 full 64-cycle windows plus one 40-cycle flush window.
        assert_eq!(sampler.windows().len(), 16);
        let sum_delivered: u64 = sampler.windows().iter().map(|w| w.stats.delivered()).sum();
        let sum_flits: u64 = sampler
            .windows()
            .iter()
            .map(|w| w.stats.flits_delivered)
            .sum();
        assert_eq!(sum_delivered, stats_delivered, "delivered reconciles");
        assert_eq!(sum_flits, stats_flits, "flits reconcile");
        assert!(stats_delivered > 0, "reconciliation must not be vacuous");
        // Windows tile the measurement span without gaps or overlap.
        let mut expect_start = 500;
        for w in sampler.windows() {
            assert_eq!(w.start_cycle, expect_start);
            assert!(w.end_cycle > w.start_cycle);
            expect_start = w.end_cycle;
        }
        assert_eq!(expect_start, 1_500);
        finish(&s);
    }

    #[test]
    fn sampler_series_saturates_instead_of_growing() {
        let mut s = sim(0.1);
        s.set_sampler(&crate::sampler::SamplerConfig {
            sample_every: 16,
            max_windows: 4,
        });
        s.run(640);
        let sampler = s.sampler().expect("sampler installed");
        assert_eq!(sampler.windows().len(), 4);
        assert_eq!(sampler.dropped_windows(), 40 - 4);
    }

    #[test]
    fn phase_probe_fires_balanced_and_is_transparent() {
        use crate::probe::{CountingProbe, Phase, PhaseProbe};

        // Baseline: unprobed run.
        let mut plain = sim(0.1);
        let baseline = plain.run_windows(500, 1_000);

        // A probe sharing its accumulator with the test (the same
        // pattern the bench wall-clock probe uses: no downcasting).
        use std::sync::{Arc, Mutex};
        struct Recording(Arc<Mutex<CountingProbe>>);
        impl PhaseProbe for Recording {
            fn begin(&mut self, p: Phase) {
                self.0.lock().expect("probe lock").begin(p);
            }
            fn end(&mut self, p: Phase) {
                self.0.lock().expect("probe lock").end(p);
            }
        }
        let counts = Arc::new(Mutex::new(CountingProbe::default()));
        let mut probed = sim(0.1);
        probed.set_probe(Box::new(Recording(Arc::clone(&counts))));
        let stats = probed.run_windows(500, 1_000);
        assert_eq!(
            serde_json::to_string(&stats).expect("serializes"),
            serde_json::to_string(&baseline).expect("serializes"),
            "a probed run must be bitwise identical to an unprobed one"
        );
        assert!(probed.take_probe().is_some(), "probe was installed");
        let guard = counts.lock().expect("probe lock");
        let c = &*guard;
        for p in Phase::ALL {
            assert_eq!(
                c.begins[p.index()],
                c.ends[p.index()],
                "unbalanced begin/end for {:?}",
                p
            );
        }
        // Engine-level phases fire exactly once per cycle.
        assert_eq!(c.begins[Phase::WorkloadTick.index()], 1_500);
        assert_eq!(c.begins[Phase::SchemeStep.index()], 1_500);
        assert_eq!(c.begins[Phase::NiConsume.index()], 1_500);
        assert_eq!(c.begins[Phase::ApplyStaged.index()], 1_500);
        // Eject nests inside SwitchAlloc: at least one per active router.
        assert!(c.begins[Phase::Eject.index()] > 0);
        assert!(c.max_depth >= 3, "Eject must nest under SchemeStep");
        drop(guard);
        finish(&probed);
    }
}
