//! Fig. 13: breakdown of packet types under FastPass with 1 VC —
//! (a) Uniform traffic across injection rates, (b) application traffic.
//!
//! Expected shape (paper): regular packets dominate at low load (§Qn1 —
//! FastFlow only kicks in as load rises); the FastPass-Packet share
//! grows with load; dropped packets stay negligible (≤5.9% even past
//! saturation for synthetic traffic, ~0.3% for applications — vs.
//! SCARAB's up-to-9%).

use crate::{app_sim, run_sims, sweep_sims, window, Outcome};
use bench::{SchemeId::FastPass, SweepSpec};
use serde::Serialize;
use traffic::{AppModel, SyntheticPattern};

#[derive(Serialize)]
struct Fig13Row {
    label: String,
    regular_fraction: f64,
    fastpass_fraction: f64,
    dropped_fraction: f64,
}

impl Fig13Row {
    fn percentages(&self) -> String {
        let regular = 100.0 * self.regular_fraction;
        let fastpass = 100.0 * self.fastpass_fraction;
        let dropped = 100.0 * self.dropped_fraction;
        format!("{regular:>9.1}% {fastpass:>9.1}% {dropped:>9.2}%")
    }
}

fn breakdown(label: String, stats: &noc_core::stats::NetStats) -> Fig13Row {
    // Every dropped packet is regenerated and eventually delivered, so
    // the paper's three-way split partitions *delivered* packets:
    // dropped-at-least-once, FastPass-delivered (never dropped), and
    // plain regular.
    let total = stats.delivered().max(1) as f64;
    let dropped = stats.dropped_packets as f64;
    Fig13Row {
        label,
        regular_fraction: (stats.delivered_regular as f64 - dropped).max(0.0) / total,
        fastpass_fraction: stats.delivered_fastpass as f64 / total,
        dropped_fraction: dropped / total,
    }
}

pub fn run() -> Outcome {
    let (warmup, measure, size) = window(5_000, 15_000, 8);
    let rates = [0.02, 0.04, 0.06, 0.08, 0.10, 0.12, 0.14, 0.16];
    // Both panels' runs as one list: (a) uniform traffic at each rate,
    // then (b) each application. The paper's 13b runs the 1-VC
    // configuration under real loads; the models run at 2x nominal so
    // the single-VC network is in the regime where FastFlow engages.
    let mut sims = sweep_sims(&SweepSpec {
        id: FastPass,
        pattern: SyntheticPattern::Uniform,
        rates: rates.into(),
        size,
        fp_vcs: 1,
        warmup,
        measure,
        seed: 23,
    })?;
    for app in AppModel::FIG13 {
        sims.push(app_sim(FastPass, app, size, 1, 29, None, 2.0)?);
    }
    let labels = rates.map(|rate| format!("uniform@{rate}")).into_iter();
    let labels = labels.chain(AppModel::FIG13.map(|app| app.name().to_string()));
    let stats = run_sims(sims, move |sim| sim.run_windows(warmup, measure));
    let mut rows: Vec<Fig13Row> = labels.zip(&stats).map(|(l, s)| breakdown(l, s)).collect();
    let apps = rows.split_off(rates.len());

    println!("== Fig. 13a — packet-type breakdown, uniform, 1 VC ==");
    println!(
        "{:>6} {:>10} {:>10} {:>10}",
        "rate", "regular", "fastpass", "dropped"
    );
    for (row, rate) in rows.iter().zip(rates) {
        println!("{rate:>6.2} {}", row.percentages());
    }

    println!("\n== Fig. 13b — packet-type breakdown, applications, 1 VC ==");
    println!(
        "{:<14} {:>10} {:>10} {:>10}",
        "app", "regular", "fastpass", "dropped"
    );
    for row in &apps {
        println!("{:<14} {}", row.label, row.percentages());
    }
    let avg_drop = apps.iter().map(|r| r.dropped_fraction).sum::<f64>() / apps.len() as f64;
    println!(
        "\napplication average dropped fraction: {:.2}% (paper: ~0.3%; SCARAB drops up to 9%)",
        100.0 * avg_drop
    );
    rows.extend(apps);
    Ok(Some(Box::new(rows)))
}
