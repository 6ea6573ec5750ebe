//! Congestion cartography from the tracer's per-router counters.
//!
//! ```sh
//! cargo run --release --example congestion_map
//! ```
//!
//! Runs transpose traffic near the saturation knee under plain XY VCT
//! and under FastPass with tracing counters on, and prints two ASCII
//! heatmaps per scheme: the flits each router sent over its outgoing
//! links (regular pipeline plus FastPass lanes) and its VC-occupancy
//! integral, each scaled to the busiest router. XY concentrates
//! transpose traffic on the diagonal's turn links; FastPass's adaptive
//! regular pass plus its TDM lanes spread the same load and keep latency
//! near zero-load.
//!
//! (Try `--pattern hotspot` through `nocsim` to see the opposite
//! regime: a single hot destination tree-saturates shared-buffer
//! configurations, where deflection routing shines instead.)

use fastpass_noc::baselines::CreditVct;
use fastpass_noc::core::config::SimConfig;
use fastpass_noc::fastpass::{FastPass, FastPassConfig};
use fastpass_noc::sim::{Scheme, Simulation};
use fastpass_noc::trace::{RouterMetrics, TraceConfig};
use fastpass_noc::traffic::{SyntheticPattern, SyntheticWorkload};

const SHADES: [char; 5] = ['.', ':', '+', '#', '@'];

/// One character per router: `cell` of its counters relative to the
/// largest value in the mesh.
fn heatmap(sim: &Simulation, cell: fn(&RouterMetrics) -> u64) -> String {
    let mesh = sim.core.mesh();
    let routers = sim.tracer().metrics();
    let max = routers.iter().map(cell).max().unwrap_or(0).max(1) as f64;
    let mut out = String::new();
    for y in 0..mesh.height() {
        for x in 0..mesh.width() {
            let frac = cell(&routers[mesh.node(x, y).index()]) as f64 / max;
            out.push(SHADES[((frac * 4.0).round() as usize).min(4)]);
        }
        out.push('\n');
    }
    out
}

fn run(label: &str, vns: usize, scheme: Box<dyn Scheme>) {
    let cfg = SimConfig::builder()
        .mesh(8, 8)
        .vns(vns)
        .vcs_per_vn(if vns == 0 { 4 } else { 2 })
        .seed(1)
        .build();
    let wl = SyntheticWorkload::new(SyntheticPattern::Transpose, 0.09, 9);
    let mut sim = Simulation::new(cfg, scheme, Box::new(wl));
    sim.set_trace(&TraceConfig::counters());
    sim.run(15_000);
    let total = sim.tracer().totals();
    println!("==== {label} ====");
    println!(
        "{} regular + {} lane flit-hops, {} stall cycles",
        total.link_flits_regular,
        total.link_flits_bypass,
        total.total_stalls()
    );
    println!("link flits sent:");
    print!(
        "{}",
        heatmap(&sim, |m| m.link_flits_regular + m.link_flits_bypass)
    );
    println!("buffer occupancy:");
    print!("{}", heatmap(&sim, |m| m.occupancy_integral));
    println!(
        "avg latency {:.1} cycles, {:.1}% FastPass-Packets\n",
        sim.core.stats.avg_latency(),
        100.0 * sim.core.stats.fastpass_fraction()
    );
}

fn main() {
    println!("Transpose traffic at the saturation knee (rate 0.09), 8x8 mesh\n");
    run("plain VCT-XY (6 VN x 2 VC)", 6, Box::new(CreditVct::xy(6)));
    let cfg = SimConfig::builder()
        .mesh(8, 8)
        .vns(0)
        .vcs_per_vn(4)
        .seed(1)
        .build();
    run(
        "FastPass (0 VN x 4 VC)",
        0,
        Box::new(FastPass::new(&cfg, FastPassConfig::default())),
    );
    println!(
        "Legend, relative to the busiest router: '.' idle ':' light '+' busy '#' heavy '@' busiest"
    );
}
