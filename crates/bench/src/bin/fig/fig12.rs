//! Fig. 12: 99th-percentile tail latency on application traffic
//! (log scale in the paper), five schemes.
//!
//! Expected shape (paper): FastPass(0VN,2VC) has the lowest tail —
//! multiple concurrent FastPass-Lanes bypass congested regions — and
//! DRAIN the worst (wholesale misrouting during drains).

use crate::{app_sim, run_sims, scheme_header, window, Outcome, FIVE_SCHEMES};
use serde::Serialize;
use traffic::AppModel;

#[derive(Serialize)]
struct Fig12Cell {
    app: String,
    scheme: String,
    p99_latency: u64,
}

pub fn run() -> Outcome {
    let (warmup, measure, size) = window(10_000, 40_000, 8);
    // One run per (app, scheme) cell, in grid order.
    let mut sims = Vec::new();
    for app in AppModel::FIG12 {
        for id in FIVE_SCHEMES {
            sims.push(app_sim(id, app, size, 2, 17, None, 1.0)?);
        }
    }
    let p99s = run_sims(sims, move |sim| {
        let stats = sim.run_windows(warmup, measure);
        stats.latency.percentile(99.0).unwrap_or(0)
    });
    let mut cells = Vec::new();
    println!("== Fig. 12 — 99th percentile packet latency (cycles) ==");
    scheme_header(&format!("{:<14}", "app"), &FIVE_SCHEMES);
    for (app, row) in AppModel::FIG12.iter().zip(p99s.chunks(FIVE_SCHEMES.len())) {
        print!("{:<14}", app.name());
        for (id, &p99) in FIVE_SCHEMES.iter().zip(row) {
            print!("{p99:>10}");
            cells.push(Fig12Cell {
                app: app.name().to_string(),
                scheme: id.name().to_string(),
                p99_latency: p99,
            });
        }
        println!();
    }
    // Geometric-mean summary across apps per scheme.
    println!("\ngeometric mean across apps:");
    for id in FIVE_SCHEMES {
        let vals: Vec<f64> = cells
            .iter()
            .filter(|c| c.scheme == id.name() && c.p99_latency > 0)
            .map(|c| (c.p99_latency as f64).ln())
            .collect();
        let gm = (vals.iter().sum::<f64>() / vals.len() as f64).exp();
        println!("  {:<10} {gm:>10.1}", id.name());
    }
    Ok(Some(Box::new(cells)))
}
