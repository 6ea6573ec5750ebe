//! Table II: key simulation parameters, as configured in this
//! reproduction (printed from the live defaults so drift is impossible).

use crate::Outcome;
use bench::registry::Tuning;
use bench::ALL_SCHEMES;
use fastpass::TdmSchedule;
use noc_core::config::SimConfig;

pub fn run() -> Outcome {
    let cfg = SimConfig::default();
    println!("Table II: Key simulation parameters");
    let (w, h) = (cfg.mesh.width(), cfg.mesh.height());
    let flow = "VCT, single packet per VC, 1- and 5-flit packets";
    let traffic = "Uniform, Transpose, Shuffle, Bit-rotation";
    let params = [
        ("Topology", "4x4, 8x8, and 16x16 mesh".to_string()),
        ("Mesh", format!("{w}x{h} (default)")),
        ("Router latency", "1-cycle".into()),
        ("Buffer size per VC", format!("{} flits", cfg.buffer_flits)),
        ("Link bandwidth", "128 bits/cycle".into()),
        ("Flow control", flow.into()),
        ("Synthetic traffic", traffic.into()),
    ];
    for (name, value) in params {
        println!("{name:<28} {value}");
    }
    println!();
    let row = |a: &str, b: &str, c: &str, d: &str| println!("{a:<10} {b:>4} {c:>10} {d:>22}");
    row("Scheme", "VNs", "VCs", "Routing");
    for id in ALL_SCHEMES {
        // The VCs/VN each experiment's FastPass VC knob (1, 2 or 4)
        // gives this scheme: one value unless the knob applies to it.
        let mut vcs = [1, 2, 4]
            .map(|fp_vcs| id.sim_config(8, fp_vcs, 0).vcs_per_vn)
            .to_vec();
        vcs.dedup();
        let vcs: Vec<String> = vcs.iter().map(usize::to_string).collect();
        let vns = id.sim_config(8, 4, 0).vns.to_string();
        row(id.name(), &vns, &vcs.join("/"), id.policy_kind().name());
    }
    println!();
    println!("FastPass TDM slot lengths (Qn5: 2 x hops x inputs x VCs):");
    for (size, vcs) in [(4usize, 2usize), (8, 4), (16, 4)] {
        let mesh = noc_core::topology::Mesh::new(size, size);
        let k = TdmSchedule::paper_slot_cycles(mesh, vcs);
        let sched = TdmSchedule::new(mesh, vcs);
        println!(
            "  {size:>2}x{size:<2} {vcs} VCs: K = {k} cycles, phase = {} cycles, full rotation = {} cycles",
            sched.phase_cycles(),
            sched.rotation_cycles()
        );
    }
    println!();
    let tuning = Tuning::default();
    println!(
        "SPIN detection threshold: {} cycles; SWAP duty: {} cycles;",
        tuning.spin.detection_threshold, tuning.swap.duty
    );
    println!(
        "DRAIN period: {} cycles (the paper's 64K, scaled to bench-length runs);",
        tuning.drain.period
    );
    println!("MOESI-Hammer-style protocol model: 6 message classes.");
    Ok(None)
}
