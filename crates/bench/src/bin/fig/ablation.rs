//! Ablation study of FastPass design choices (beyond the paper's own
//! figures):
//!
//! * **lane pipelining** — depth 1 is the paper's literal "one
//!   FastPass-Packet per lane"; deeper pipelines are this
//!   implementation's provably-collision-free generalization;
//! * **slot length K** — the paper fixes `K = 2·hops·inputs·VCs` (Qn5);
//!   shorter slots rotate lanes faster (fresher coverage) but waste more
//!   budget tail, longer slots amortize better;
//! * **VCs per input buffer** — the paper's own 1/2/4 knob (Fig. 10's
//!   FastPass rows).

use crate::{run_sims, window, Outcome};
use bench::SchemeId;
use fastpass::{FastPass, FastPassConfig, TdmSchedule};
use noc_sim::Simulation;
use serde::Serialize;
use traffic::{SyntheticPattern, SyntheticWorkload};

#[derive(Serialize)]
struct AblationRow {
    knob: String,
    value: String,
    avg_latency: f64,
    throughput: f64,
    fastpass_fraction: f64,
    dropped_fraction: f64,
}

pub fn run() -> Outcome {
    let (warmup, measure, _) = window(4_000, 12_000, 0);
    let rate = 0.12; // near the knee: mechanisms differentiate here
    println!("== FastPass ablations (8x8, transpose @ {rate}) ==");
    println!(
        "{:<16} {:>8} {:>10} {:>10} {:>8} {:>8}",
        "knob", "value", "latency", "thpt", "fp frac", "dropped"
    );

    // The full knob grid — (printed knob, JSON knob, value) beside each
    // run — simulated in parallel and printed in order.
    let sim = |vcs: usize, fp_cfg: FastPassConfig| {
        let cfg = SchemeId::FastPass.sim_config(8, vcs, 51);
        let scheme = FastPass::new(&cfg, fp_cfg);
        let wl = SyntheticWorkload::new(SyntheticPattern::Transpose, rate, 13);
        Simulation::new(cfg, Box::new(scheme), Box::new(wl))
    };
    let fp = FastPassConfig::default;
    let (mut labels, mut sims) = (Vec::new(), Vec::new());
    for depth in [1usize, 2, 4, 8] {
        let mut cfg = fp();
        cfg.pipeline_depth = depth;
        labels.push(("pipeline", "pipeline_depth", depth.to_string()));
        sims.push(sim(4, cfg));
    }
    let mesh = noc_core::topology::Mesh::new(8, 8);
    let paper_k = TdmSchedule::paper_slot_cycles(mesh, 4);
    let min_k = TdmSchedule::min_slot_cycles(mesh);
    for k in [min_k * 2, paper_k / 2, paper_k, paper_k * 2] {
        let note = if k == paper_k { " (paper)" } else { "" };
        let mut cfg = fp();
        cfg.slot_cycles = Some(k);
        labels.push(("slot_cycles", "slot_cycles", format!("{k}{note}")));
        sims.push(sim(4, cfg));
    }
    for vcs in [1usize, 2, 4] {
        labels.push(("vcs_per_port", "vcs_per_port", vcs.to_string()));
        sims.push(sim(vcs, fp()));
    }

    let mut rows = Vec::new();
    let stats = run_sims(sims, move |sim| sim.run_windows(warmup, measure));
    for ((display, knob, value), s) in labels.into_iter().zip(stats) {
        let (lat, thpt) = (s.avg_latency(), s.throughput_packets());
        let (fpf, drp) = (s.fastpass_fraction(), s.dropped_fraction());
        println!("{display:<16} {value:>8} {lat:>10.1} {thpt:>10.4} {fpf:>8.3} {drp:>8.4}");
        rows.push(AblationRow {
            knob: knob.to_string(),
            value,
            avg_latency: lat,
            throughput: thpt,
            fastpass_fraction: fpf,
            dropped_fraction: drp,
        });
    }
    Ok(Some(Box::new(rows)))
}
