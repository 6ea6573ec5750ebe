//! End-to-end integration: every scheme on every synthetic pattern and on
//! the protocol workload, checking delivery, conservation and
//! determinism through the full public API.

use fastpass_noc::baselines::{
    drain::DrainConfig, pitstop::PitstopConfig, spin::SpinConfig, swap::SwapConfig, Drain,
    EscapeVc, MinBd, Pitstop, Spin, Swap, Tfc,
};
use fastpass_noc::core::config::SimConfig;
use fastpass_noc::fastpass::{FastPass, FastPassConfig};
use fastpass_noc::sim::{Scheme, Simulation};
use fastpass_noc::traffic::{AppModel, SyntheticPattern, SyntheticWorkload};

fn all_schemes(cfg_vns6: &SimConfig, cfg_vns0: &SimConfig) -> Vec<(Box<dyn Scheme>, usize)> {
    let nodes = cfg_vns0.mesh.num_nodes();
    vec![
        (Box::new(EscapeVc::new(1)) as Box<dyn Scheme>, 6),
        (Box::new(Spin::new(1, SpinConfig::default())), 6),
        (Box::new(Swap::new(1, SwapConfig::default())), 6),
        (
            Box::new(Drain::new(
                cfg_vns6.mesh,
                1,
                DrainConfig {
                    period: 4_000,
                    step_cycles: 5,
                },
            )),
            6,
        ),
        (
            Box::new(Pitstop::new(nodes, 1, PitstopConfig::default())),
            0,
        ),
        (
            Box::new(MinBd::new(cfg_vns0.mesh, 1, Default::default())),
            0,
        ),
        (Box::new(Tfc::new(1)), 6),
        (
            Box::new(FastPass::new(cfg_vns0, FastPassConfig::default())),
            0,
        ),
    ]
}

fn cfg(vns: usize) -> SimConfig {
    SimConfig::builder()
        .mesh(4, 4)
        .vns(vns)
        .vcs_per_vn(2)
        .seed(11)
        .build()
}

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
        let c6 = cfg(6);
        let c0 = cfg(0);
        for (scheme, vns) in all_schemes(&c6, &c0) {
            let name = scheme.name();
            let mut sim = Simulation::new(
                cfg(vns),
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
    let c6 = cfg(6);
    let c0 = cfg(0);
    for (scheme, vns) in all_schemes(&c6, &c0) {
        let name = scheme.name();
        let wl = AppModel::Fft.workload(16, Some(8));
        let mut sim = Simulation::new(cfg(vns), scheme, Box::new(wl));
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
    let c0 = cfg(0);
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
