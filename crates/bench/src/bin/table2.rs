//! Table II: key simulation parameters, as configured in this
//! reproduction (printed from the live defaults so drift is impossible).

use bench::registry::Tuning;
use bench::ALL_SCHEMES;
use fastpass::TdmSchedule;
use noc_core::config::SimConfig;

fn main() {
    bench::serve_client::warn_if_serve_requested("table2");
    let cfg = SimConfig::default();
    println!("Table II: Key simulation parameters");
    println!("{:<28} 4x4, 8x8, and 16x16 mesh", "Topology");
    println!(
        "{:<28} {}x{} (default)",
        "Mesh",
        cfg.mesh.width(),
        cfg.mesh.height()
    );
    println!("{:<28} 1-cycle", "Router latency");
    println!("{:<28} {} flits", "Buffer size per VC", cfg.buffer_flits);
    println!("{:<28} 128 bits/cycle", "Link bandwidth");
    let flow = "VCT, single packet per VC, 1- and 5-flit packets";
    println!("{:<28} {flow}", "Flow control");
    println!(
        "{:<28} Uniform, Transpose, Shuffle, Bit-rotation",
        "Synthetic traffic"
    );
    println!();
    println!(
        "{:<10} {:>4} {:>10} {:>22}",
        "Scheme", "VNs", "VCs", "Routing"
    );
    for id in ALL_SCHEMES {
        // The VCs/VN each experiment's FastPass VC knob (1, 2 or 4)
        // gives this scheme: one value unless the knob applies to it.
        let mut vcs = [1, 2, 4]
            .map(|fp_vcs| id.sim_config(8, fp_vcs, 0).vcs_per_vn)
            .to_vec();
        vcs.dedup();
        let vcs: Vec<String> = vcs.iter().map(usize::to_string).collect();
        println!(
            "{:<10} {:>4} {:>10} {:>22}",
            id.name(),
            id.sim_config(8, 4, 0).vns,
            vcs.join("/"),
            id.policy_kind().name()
        );
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
}
