//! End-to-end integration: every scheme on every synthetic pattern and on
//! the protocol workload, checking delivery, conservation and
//! determinism through the full public API.

use fastpass_noc::core::config::SimConfig;
use fastpass_noc::core::packet::NUM_CLASSES;
use fastpass_noc::core::topology::NUM_PORTS;
use fastpass_noc::fastpass::{FastPass, FastPassConfig};
use fastpass_noc::schemes::{SchemeId, ALL_SCHEMES};
use fastpass_noc::sim::{NetworkCore, Scheme, Simulation, StateExport};
use fastpass_noc::traffic::{AppModel, SyntheticPattern, SyntheticWorkload};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[test]
fn every_scheme_delivers_every_pattern() {
    for pattern in [
        SyntheticPattern::Uniform,
        SyntheticPattern::Transpose,
        SyntheticPattern::Shuffle,
        SyntheticPattern::BitRotation,
        SyntheticPattern::BitComplement,
        SyntheticPattern::Tornado,
        SyntheticPattern::Neighbor,
    ] {
        for id in ALL_SCHEMES {
            let name = id.name();
            let cfg = id.sim_config(4, 2, 11);
            let scheme = id.build(&cfg, 1);
            let mut sim = Simulation::new(
                cfg,
                scheme,
                Box::new(SyntheticWorkload::new(pattern, 0.05, 21)),
            );
            let stats = sim.run_windows(1_000, 3_000);
            assert!(
                stats.delivered() > 50,
                "{name} delivered only {} on {}",
                stats.delivered(),
                pattern.name()
            );
            assert!(
                sim.starvation_cycles() < 1_500,
                "{name} starving on {}",
                pattern.name()
            );
        }
    }
}

#[test]
fn every_scheme_completes_an_app_quota() {
    for id in ALL_SCHEMES {
        let name = id.name();
        let cfg = id.sim_config(4, 2, 11);
        let scheme = id.build(&cfg, 1);
        let wl = AppModel::Fft.workload(16, Some(8));
        let mut sim = Simulation::new(cfg, scheme, Box::new(wl));
        let ran = sim.run(200_000);
        assert!(ran < 200_000, "{name} did not finish the quota");
        assert_eq!(sim.in_flight(), 0, "{name} left packets behind");
    }
}

#[test]
fn packet_conservation_under_load() {
    // Open-loop saturating traffic: generated = delivered + in flight,
    // for a scheme with drops (FastPass regenerates its drops, so the
    // identity must still hold).
    let c0 = SchemeId::FastPass.sim_config(4, 2, 11);
    let scheme = FastPass::new(&c0, FastPassConfig::default());
    let mut sim = Simulation::new(
        c0,
        Box::new(scheme),
        Box::new(SyntheticWorkload::new(SyntheticPattern::Transpose, 0.5, 31)),
    );
    sim.run(15_000);
    let generated = sim.core.stats.generated;
    let consumed = sim.total_consumed();
    let in_flight = sim.in_flight() as u64;
    assert_eq!(
        generated,
        consumed + in_flight,
        "conservation: {generated} generated vs {consumed} consumed + {in_flight} in flight"
    );
}

/// A scheme that, after each step, records the store's live count, its
/// own overlay and the NIs' source backlog. The live count peaks there
/// within a cycle: refills store pending packets during the step, and
/// packets leave the store only later, in the NI consumer.
#[derive(Clone)]
struct AfterStep {
    inner: Box<dyn Scheme>,
    peaks: Arc<Peaks>,
}

#[derive(Default)]
struct Peaks {
    live: AtomicUsize,
    overlay: AtomicUsize,
    backlog: AtomicUsize,
}

impl AfterStep {
    fn wrap(inner: Box<dyn Scheme>) -> (Box<dyn Scheme>, Arc<Peaks>) {
        let peaks = Arc::new(Peaks::default());
        let peaks2 = Arc::clone(&peaks);
        (Box::new(AfterStep { inner, peaks }), peaks2)
    }
}

impl Scheme for AfterStep {
    fn required_vns(&self) -> usize {
        self.inner.required_vns()
    }

    fn step(&mut self, core: &mut NetworkCore) {
        self.inner.step(core);
        let backlog = core.mesh().nodes().map(|n| core.ni(n).source_depth()).sum();
        self.peaks
            .live
            .fetch_max(core.store.live(), Ordering::Relaxed);
        self.peaks
            .overlay
            .fetch_max(self.inner.overlay_packets(), Ordering::Relaxed);
        self.peaks.backlog.fetch_max(backlog, Ordering::Relaxed);
    }

    fn overlay_packets(&self) -> usize {
        self.inner.overlay_packets()
    }

    fn export_state(&self, core: &NetworkCore, out: &mut StateExport) {
        self.inner.export_state(core, out);
    }
}

/// The packet store is a slab whose slots are reused LIFO, so it
/// appends a slot only when every slot is live: over a long run its size
/// is exactly the peak live count, not the packets ever created.
#[test]
fn packet_store_holds_only_the_peak_live_count() {
    let id = SchemeId::EscapeVc;
    let cfg = id.sim_config(4, 2, 11);
    let (scheme, peaks) = AfterStep::wrap(id.build(&cfg, 1));
    let traffic = SyntheticWorkload::new(SyntheticPattern::Uniform, 0.05, 21);
    let mut sim = Simulation::new(cfg, scheme, Box::new(traffic));
    // No warmup reset: `generated` counts every packet the store created.
    sim.run(200_000);
    let store = &sim.core.store;
    assert_eq!(
        store.slots(),
        peaks.live.load(Ordering::Relaxed),
        "slots vs peak live"
    );
    assert_eq!(store.created(), sim.core.stats.generated);
    assert!(
        store.created() > 100 * store.slots() as u64,
        "{} created, {} slots",
        store.created(),
        store.slots()
    );
}

/// Past its knee an open-loop point's source queues grow without bound,
/// but a packet waiting there is a pending record, not a store slot: the
/// store never holds more than the network can (every VC slot, every
/// injection and ejection queue, and the scheme's overlay), while the
/// backlog grows far beyond that.
#[test]
fn a_backlog_past_the_knee_takes_no_store_slots() {
    let id = SchemeId::Pitstop;
    let cfg = id.sim_config(4, 2, 11);
    let nodes = cfg.mesh.num_nodes();
    let queues = NUM_CLASSES * (cfg.inj_queue_packets + cfg.ej_queue_packets);
    let capacity = nodes * (NUM_PORTS * cfg.vcs_per_port() + queues);
    let (scheme, peaks) = AfterStep::wrap(id.build(&cfg, 1));
    let traffic = SyntheticWorkload::new(SyntheticPattern::Uniform, 0.5, 21);
    let mut sim = Simulation::new(cfg, scheme, Box::new(traffic));
    sim.run(20_000);
    let overlay = peaks.overlay.load(Ordering::Relaxed);
    let backlog = peaks.backlog.load(Ordering::Relaxed);
    let store = &sim.core.store;
    assert!(
        store.slots() <= capacity + overlay,
        "{} slots > {capacity} network + {overlay} overlay",
        store.slots()
    );
    assert!(
        backlog >= 10 * capacity,
        "backlog {backlog} not past the knee (capacity {capacity})"
    );
    assert_eq!(store.created(), sim.core.stats.generated);
    sim.assert_conserved();
}

#[test]
fn runs_are_bit_deterministic() {
    let run = |seed: u64| {
        let c = SimConfig::builder()
            .mesh(4, 4)
            .vns(0)
            .vcs_per_vn(2)
            .seed(seed)
            .build();
        let scheme = FastPass::new(&c, FastPassConfig::default());
        let mut sim = Simulation::new(
            c,
            Box::new(scheme),
            Box::new(SyntheticWorkload::new(SyntheticPattern::Uniform, 0.2, 5)),
        );
        let stats = sim.run_windows(2_000, 4_000);
        (
            stats.delivered(),
            stats.latency.mean(),
            stats.hops.mean(),
            stats.dropped,
        )
    };
    assert_eq!(run(7), run(7));
    assert_ne!(run(7), run(8), "different seeds explore different runs");
}

#[test]
fn sixteen_by_sixteen_smoke() {
    // The Fig. 8 large configuration boots and flows.
    let c = SimConfig::builder()
        .mesh(16, 16)
        .vns(0)
        .vcs_per_vn(4)
        .seed(2)
        .build();
    let scheme = FastPass::new(&c, FastPassConfig::default());
    let mut sim = Simulation::new(
        c,
        Box::new(scheme),
        Box::new(SyntheticWorkload::new(SyntheticPattern::Transpose, 0.05, 3)),
    );
    let stats = sim.run_windows(2_000, 3_000);
    assert!(stats.delivered() > 500);
}

#[test]
fn rectangular_mesh_supported() {
    let c = SimConfig::builder()
        .mesh(4, 8)
        .vns(0)
        .vcs_per_vn(2)
        .seed(2)
        .build();
    let scheme = FastPass::new(&c, FastPassConfig::default());
    let mut sim = Simulation::new(
        c,
        Box::new(scheme),
        Box::new(SyntheticWorkload::new(SyntheticPattern::Uniform, 0.05, 3)),
    );
    let stats = sim.run_windows(1_000, 3_000);
    assert!(stats.delivered() > 100);
}
