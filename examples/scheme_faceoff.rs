//! Scheme face-off: every flow control in the paper's comparison on one
//! adversarial workload.
//!
//! ```sh
//! cargo run --release --example scheme_faceoff
//! ```
//!
//! Runs Transpose traffic (the pattern dimension-ordered and west-first
//! routing hate) at a moderate and a heavy load on every scheme, with
//! each scheme's Table II buffer configuration, and prints a compact
//! scoreboard: latency, accepted throughput, misroutes and buffer cost.

use fastpass_noc::power::{router_area, RouterParams};
use fastpass_noc::schemes::SchemeId;
use fastpass_noc::sim::Simulation;
use fastpass_noc::traffic::{SyntheticPattern, SyntheticWorkload};

// `SchemeId` is also the canonical scheme factory (the one `nocsim` and
// every sweep use), but this example shows direct construction through
// the public APIs on purpose; it names the power model's router.
use fastpass_noc::baselines::{
    drain::DrainConfig, pitstop::PitstopConfig, spin::SpinConfig, swap::SwapConfig, Drain,
    EscapeVc, MinBd, Pitstop, Spin, Swap, Tfc,
};
use fastpass_noc::core::config::SimConfig;
use fastpass_noc::fastpass::{FastPass, FastPassConfig};

fn main() {
    let size = 8;
    println!("Transpose traffic on an {size}x{size} mesh — Table II configurations");
    for rate in [0.08, 0.20] {
        println!("\ninjection rate {rate} packets/node/cycle:");
        println!(
            "{:<10} {:>4} {:>4} {:>10} {:>10} {:>10} {:>12}",
            "scheme", "VNs", "VCs", "latency", "thpt", "misroutes", "router um^2"
        );
        for name in [
            "EscapeVC", "SPIN", "SWAP", "DRAIN", "Pitstop", "MinBD", "TFC", "FastPass",
        ] {
            let (vns, vcs) = match name {
                "Pitstop" => (0, 2),
                "FastPass" => (0, 4),
                "MinBD" => (0, 1),
                _ => (6, 2),
            };
            let cfg = SimConfig::builder()
                .mesh(size, size)
                .vns(vns)
                .vcs_per_vn(vcs)
                .seed(3)
                .build();
            let nodes = cfg.mesh.num_nodes();
            let scheme: Box<dyn fastpass_noc::sim::Scheme> = match name {
                "EscapeVC" => Box::new(EscapeVc::new(1)),
                "SPIN" => Box::new(Spin::new(1, SpinConfig::default())),
                "SWAP" => Box::new(Swap::new(1, SwapConfig::default())),
                "DRAIN" => Box::new(Drain::new(
                    cfg.mesh,
                    1,
                    DrainConfig {
                        period: 8_000,
                        step_cycles: 5,
                    },
                )),
                "Pitstop" => Box::new(Pitstop::new(nodes, 1, PitstopConfig::default())),
                "MinBD" => Box::new(MinBd::new(cfg.mesh, 1, Default::default())),
                "TFC" => Box::new(Tfc::new(1)),
                _ => Box::new(FastPass::new(&cfg, FastPassConfig::default())),
            };
            let id = SchemeId::parse(name).expect("a catalogue scheme name");
            let area = router_area(id, &RouterParams::from(&cfg)).total();
            let wl = SyntheticWorkload::new(SyntheticPattern::Transpose, rate, 17);
            let mut sim = Simulation::new(cfg, scheme, Box::new(wl));
            let stats = sim.run_windows(4_000, 10_000);
            println!(
                "{:<10} {:>4} {:>4} {:>10.1} {:>10.4} {:>10} {:>12.0}",
                name,
                vns,
                vcs,
                stats.avg_latency(),
                stats.throughput_packets(),
                stats.deflections,
                area,
            );
        }
    }
    println!("\nNote how FastPass reaches baseline-class throughput with the");
    println!("smallest buffered-router area, zero misroutes and no VNs.");
}
