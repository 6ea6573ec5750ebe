//! Fig. 10: average packet latency and normalized execution time for
//! the application workloads, 8×8 mesh.
//!
//! Configurations as in the paper: EscapeVC/SPIN/SWAP/DRAIN/TFC at
//! VN=6 VC=2; Pitstop at VN=0 VC=2; FastPass at VN=0 with VC=2 and VC=4.
//! Execution time is the cycle count for every core to finish its
//! transaction quota, normalized to EscapeVC. Expected shape (paper):
//! FastPass lowest latency (up to 46% better) and ~6–9% execution-time
//! improvement; FastPass(VC=4) ≥ FastPass(VC=2).
//!
//! A run that reaches `FP_MAXCYCLES` before every core has finished its
//! `FP_QUOTA` has no execution time: its cell prints `capped` and the
//! figure fails, naming each such app and configuration.

use crate::{app_sim, run_sims, window, Outcome};
use bench::{env_u64, SchemeId, ALL_SCHEMES};
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

/// The figure's eight configurations: every buffered scheme of the
/// comparison at FastPass VC=2, then FastPass again at VC=4.
fn configs() -> Vec<(SchemeId, usize)> {
    ALL_SCHEMES
        .into_iter()
        .filter(|&id| id != SchemeId::MinBd)
        .map(|id| (id, 2))
        .chain([(SchemeId::FastPass, 4)])
        .collect()
}

pub fn run() -> Outcome {
    let (_, _, size) = window(0, 0, 8);
    let quota = env_u64("FP_QUOTA", 60);
    let max_cycles = env_u64("FP_MAXCYCLES", 400_000);
    // One run per (app, config) in grid order: its average latency and,
    // if every core finished its quota within the cap, its execution time.
    let configs = configs();
    let mut sims = Vec::new();
    for app in AppModel::FIG10 {
        for &(id, fp_vcs) in &configs {
            sims.push(app_sim(id, app, size, fp_vcs, 13, Some(quota), 1.0)?);
        }
    }
    // Each configuration labelled from the configuration it actually
    // runs (`"{name}({vns}VN,{vcs}VC)"`).
    let labels: Vec<String> = configs
        .iter()
        .zip(&sims)
        .map(|(&(id, _), sim)| {
            let cfg = sim.core.cfg();
            format!("{}({}VN,{}VC)", id.name(), cfg.vns, cfg.vcs_per_vn)
        })
        .collect();
    let measured = run_sims(sims, move |sim| {
        let ran = sim.run(max_cycles);
        let lat = sim.core.stats.avg_latency();
        (lat, sim.workload_finished().then_some(ran))
    });
    let (mut cells, mut capped) = (Vec::new(), Vec::new());
    println!("== Fig. 10 — application latency and normalized execution time ==");
    for (app, runs) in AppModel::FIG10.iter().zip(measured.chunks(configs.len())) {
        println!("\n{app}:");
        println!(
            "  {:<20} {:>10} {:>12} {:>10}",
            "config", "avg lat", "exec cycles", "norm exec"
        );
        // EscapeVC, the first configuration, is the baseline.
        let base_exec = runs[0].1;
        for (((_, fp_vcs), label), &(lat, exec)) in configs.iter().zip(&labels).zip(runs) {
            let Some(exec) = exec else {
                println!("  {label:<20} {lat:>10.1} {:>12} {:>10}", "capped", "-");
                capped.push(format!("{app} on {label}"));
                continue;
            };
            let norm = base_exec.map_or(f64::NAN, |base| exec as f64 / base as f64);
            println!("  {label:<20} {lat:>10.1} {exec:>12} {norm:>10.3}");
            cells.push(Fig10Cell {
                app: app.name().to_string(),
                scheme: label.to_string(),
                fp_vcs: *fp_vcs,
                avg_latency: lat,
                exec_cycles: exec,
                normalized_exec: norm,
            });
        }
    }
    if !capped.is_empty() {
        return Err(format!(
            "{} of {} runs hit FP_MAXCYCLES={max_cycles} before every core finished \
             FP_QUOTA={quota}: {}",
            capped.len(),
            measured.len(),
            capped.join(", ")
        ));
    }
    // Averages across apps (the paper's "Average" group).
    println!("\nAverage across apps:");
    for label in &labels {
        let mine: Vec<&Fig10Cell> = cells.iter().filter(|c| c.scheme == *label).collect();
        let lat = mine.iter().map(|c| c.avg_latency).sum::<f64>() / mine.len() as f64;
        let norm = mine.iter().map(|c| c.normalized_exec).sum::<f64>() / mine.len() as f64;
        println!("  {label:<20} avg lat {lat:>8.1}  norm exec {norm:>6.3}");
    }
    Ok(Some(Box::new(cells)))
}
