//! Fig. 10: average packet latency and normalized execution time for
//! the application workloads, 8×8 mesh.
//!
//! Configurations as in the paper: EscapeVC/SPIN/SWAP/DRAIN/TFC at
//! VN=6 VC=2; Pitstop at VN=0 VC=2; FastPass at VN=0 with VC=2 and VC=4.
//! Execution time is the cycle count for every core to finish its
//! transaction quota, normalized to EscapeVC. Expected shape (paper):
//! FastPass lowest latency (up to 46% better) and ~6–9% execution-time
//! improvement; FastPass(VC=4) ≥ FastPass(VC=2).

use bench::{emit_json, env_u64, num_jobs, parallel_map, SchemeId, ALL_SCHEMES};
use noc_sim::Simulation;
use serde::Serialize;
use traffic::AppModel;

#[derive(Serialize)]
struct Fig10Cell {
    app: String,
    scheme: String,
    fp_vcs: usize,
    avg_latency: f64,
    exec_cycles: u64,
    normalized_exec: f64,
}

/// The figure's eight configurations — every buffered scheme of the
/// comparison at FastPass VC=2, then FastPass again at VC=4 — labelled
/// from the configuration each one actually runs
/// (`"{name}({vns}VN,{vcs}VC)"`).
fn configs(size: usize) -> Vec<(SchemeId, usize, String)> {
    ALL_SCHEMES
        .into_iter()
        .filter(|&id| id != SchemeId::MinBd)
        .map(|id| (id, 2))
        .chain([(SchemeId::FastPass, 4)])
        .map(|(id, fp_vcs)| {
            let cfg = id.sim_config(size, fp_vcs, 0);
            let label = format!("{}({}VN,{}VC)", id.name(), cfg.vns, cfg.vcs_per_vn);
            (id, fp_vcs, label)
        })
        .collect()
}

fn run_app(
    id: SchemeId,
    fp_vcs: usize,
    app: AppModel,
    size: usize,
    quota: u64,
    max_cycles: u64,
) -> (f64, u64) {
    let cfg = id.sim_config(size, fp_vcs, 13);
    let nodes = cfg.mesh.num_nodes();
    let scheme = id.build(&cfg, 13);
    let workload = app.workload(nodes, Some(quota));
    let mut sim = Simulation::new(cfg, scheme, Box::new(workload));
    let ran = sim.run(max_cycles);
    let lat = sim.core.stats.avg_latency();
    (lat, ran)
}

fn main() {
    bench::serve_client::warn_if_serve_requested("fig10");
    let size = env_u64("FP_SIZE", 8) as usize;
    let quota = env_u64("FP_QUOTA", 60);
    let max_cycles = env_u64("FP_MAXCYCLES", 400_000);
    // One job per (app, config); each builds its own simulation, so the
    // grid fans out across NOC_JOBS workers with results in grid order.
    let configs = configs(size);
    let grid: Vec<(AppModel, SchemeId, usize, &str)> = AppModel::FIG10
        .iter()
        .flat_map(|&app| {
            configs
                .iter()
                .map(move |(id, fp_vcs, label)| (app, *id, *fp_vcs, label.as_str()))
        })
        .collect();
    let jobs: Vec<_> = grid
        .iter()
        .map(|&(app, id, fp_vcs, _)| move || run_app(id, fp_vcs, app, size, quota, max_cycles))
        .collect();
    let measured = parallel_map(jobs, num_jobs());
    let mut cells = Vec::new();
    println!("== Fig. 10 — application latency and normalized execution time ==");
    let mut point = grid.iter().zip(measured);
    for app in AppModel::FIG10 {
        println!("\n{app}:");
        println!(
            "  {:<20} {:>10} {:>12} {:>10}",
            "config", "avg lat", "exec cycles", "norm exec"
        );
        let mut base_exec = None;
        for _ in &configs {
            let (&(_, _, fp_vcs, label), (lat, exec)) =
                point.next().expect("one result per (app, config)");
            let base = *base_exec.get_or_insert(exec);
            let norm = exec as f64 / base as f64;
            println!("  {label:<20} {lat:>10.1} {exec:>12} {norm:>10.3}");
            cells.push(Fig10Cell {
                app: app.name().to_string(),
                scheme: label.to_string(),
                fp_vcs,
                avg_latency: lat,
                exec_cycles: exec,
                normalized_exec: norm,
            });
        }
    }
    // Averages across apps (the paper's "Average" group).
    println!("\nAverage across apps:");
    for (_, _, label) in &configs {
        let mine: Vec<&Fig10Cell> = cells.iter().filter(|c| c.scheme == *label).collect();
        let lat = mine.iter().map(|c| c.avg_latency).sum::<f64>() / mine.len() as f64;
        let norm = mine.iter().map(|c| c.normalized_exec).sum::<f64>() / mine.len() as f64;
        println!("  {label:<20} avg lat {lat:>8.1}  norm exec {norm:>6.3}");
    }
    let path = emit_json("fig10", &cells).expect("write results");
    println!("JSON written to {}", path.display());
}
